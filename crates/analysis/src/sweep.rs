//! Ablation sweeps beyond the paper's figures, and the parallel sweep grid.
//!
//! These sweeps quantify the design choices called out in DESIGN.md:
//!
//! * [`recall_sweep`] — how the optimal makespan and the number of partial
//!   verifications react to the detector recall `r`;
//! * [`partial_cost_sweep`] — sensitivity to the cost ratio `V*/V`
//!   (the paper fixes it at 100);
//! * [`rate_scaling_sweep`] — what happens as error rates grow towards
//!   exascale projections (both rates scaled by a common factor);
//! * [`tail_accounting_comparison`] — the `PaperExact` vs `Refined` tail
//!   accounting of §III-B (see DESIGN.md §3.3);
//! * [`heuristic_comparison`] — the optimal DP against the baseline
//!   placements of `chain2l_core::heuristics`.
//!
//! All of the above, plus the full `platform × pattern × n × total-weight`
//! grid runner ([`GridSpec`] / [`run_grid`]), execute their independent
//! scenario cells on a work-stealing thread pool (`rayon`): cells are claimed
//! dynamically by whichever worker is free, so one expensive `O(n⁶)` cell
//! does not serialise the sweep behind a static partition.  Results are
//! collected **in cell order**, and every cell that needs randomness (the
//! optional Monte-Carlo validation) derives its RNG seed deterministically
//! from the cell's coordinates via [`cell_seed`] — output is therefore
//! bit-identical across runs and independent of worker count.
//! `chain2l sweep <name>` prints one of these tables; `chain2l sweep all`
//! prints all five and the validated grid.

//! Every sweep solves through a caller-supplied strategy-routing
//! [`Engine`]: run several sweeps (or a sweep plus the figure panels)
//! against one engine and every scenario they share is solved exactly once.
//! Engine routing is bit-identical to per-cell cold solves — the optimizers
//! are deterministic pure functions — so output stays byte-identical however
//! the engine serves the cells.

use crate::report::{fmt_f64, Table};
use chain2l_core::evaluator::expected_makespan;
use chain2l_core::heuristics;
use chain2l_core::{Algorithm, Engine, PartialCostModel, Solution};
use chain2l_model::{Action, Platform, Scenario, WeightPattern};
use chain2l_sim::runner::{run_monte_carlo, MonteCarloConfig};
use rayon::prelude::*;

/// Builds a paper-setup scenario, overriding nothing.
fn scenario(platform: &Platform, n: usize, total_weight: f64) -> Scenario {
    Scenario::paper_setup(platform, &WeightPattern::Uniform, n, total_weight)
        .expect("valid paper setup")
}

/// Derives the RNG seed of one grid cell from the sweep's base seed and the
/// cell's coordinates (FNV-1a over the canonical rendering).
///
/// The seed depends only on *what* the cell computes — never on worker
/// identity, claim order or grid shape — so adding rows to a sweep, changing
/// the thread count or re-running the binary leaves every other cell's
/// Monte-Carlo stream untouched.
pub fn cell_seed(
    base_seed: u64,
    platform: &str,
    pattern: &str,
    n: usize,
    total_weight: f64,
    algorithm: Algorithm,
) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ base_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(platform.as_bytes());
    eat(&[0xff]);
    eat(pattern.as_bytes());
    eat(&[0xff]);
    eat(&(n as u64).to_le_bytes());
    eat(&total_weight.to_bits().to_le_bytes());
    eat(algorithm.label().as_bytes());
    hash
}

/// Specification of a full sweep grid: the Cartesian product
/// `platforms × patterns × task_counts × total_weights × algorithms`.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Platforms to sweep (e.g. the four Table I machines).
    pub platforms: Vec<Platform>,
    /// Weight patterns to sweep.
    pub patterns: Vec<WeightPattern>,
    /// Chain lengths to sweep.
    pub task_counts: Vec<usize>,
    /// Total computational weights (the paper's `T`, seconds) to sweep.
    pub total_weights: Vec<f64>,
    /// Algorithms to run on every scenario.
    pub algorithms: Vec<Algorithm>,
    /// Base seed from which every cell's RNG stream is derived.
    pub base_seed: u64,
    /// Monte-Carlo replications per cell for simulation cross-validation;
    /// `0` skips simulation and keeps the grid purely analytical.
    pub validation_replications: usize,
    /// Worker threads used *inside* each cell's Monte-Carlo campaign
    /// (`run_monte_carlo` is multi-threaded and deterministic per
    /// `(seed, threads)` config).  Keep at `1` — the default — when the grid
    /// itself saturates the machine; raise it when one large campaign cell
    /// dominates the run.  Output is reproducible for a fixed spec either
    /// way, but changing this value changes which worker stream draws which
    /// replication, so it is part of the artifact's configuration.
    pub validation_threads: usize,
}

impl GridSpec {
    /// The §IV evaluation grid: all Table I platforms, the three paper
    /// patterns, `W = 25 000 s`, at the given chain lengths.
    pub fn paper(task_counts: Vec<usize>, base_seed: u64) -> Self {
        Self {
            platforms: chain2l_model::platform::scr::all(),
            patterns: vec![
                WeightPattern::Uniform,
                WeightPattern::Decrease,
                WeightPattern::high_low_default(),
            ],
            task_counts,
            total_weights: vec![25_000.0],
            algorithms: Algorithm::paper_algorithms().to_vec(),
            base_seed,
            validation_replications: 0,
            validation_threads: 1,
        }
    }

    /// Number of cells in the grid.
    pub fn cell_count(&self) -> usize {
        self.platforms.len()
            * self.patterns.len()
            * self.task_counts.len()
            * self.total_weights.len()
            * self.algorithms.len()
    }
}

/// The outcome of one grid cell, in the deterministic grid order.
#[derive(Debug, Clone)]
pub struct GridRow {
    /// Platform name.
    pub platform: String,
    /// Pattern name.
    pub pattern: String,
    /// Number of tasks.
    pub n: usize,
    /// Total computational weight (seconds).
    pub total_weight: f64,
    /// Algorithm run on the cell.
    pub algorithm: Algorithm,
    /// Seed the cell's Monte-Carlo stream was derived from.
    pub seed: u64,
    /// The optimizer's solution for the cell.
    pub solution: Solution,
    /// Empirical mean makespan, when validation replications were requested.
    pub simulated_mean: Option<f64>,
    /// `(simulated − analytical) / analytical`, when simulated.
    pub relative_error: Option<f64>,
}

/// Runs every cell of the grid on the work-stealing pool, solving through
/// `engine`, and returns the rows **in grid order** (platforms outermost,
/// algorithms innermost).
///
/// With `validation_replications > 0` each cell also replays its optimal
/// schedule in the Monte-Carlo simulator, seeded by [`cell_seed`], making
/// the whole artifact reproducible bit-for-bit across runs and thread
/// counts.  The paper grid's cells are pairwise distinct, so within one grid
/// each fingerprint is solved exactly once; sharing the engine with other
/// sweeps or figure panels (as `chain2l sweep all` does) additionally serves
/// their repeated scenarios from it.  Output is byte-identical however the
/// engine routes the solves.
pub fn run_grid(spec: &GridSpec, engine: &Engine) -> Vec<GridRow> {
    let mut cells = Vec::with_capacity(spec.cell_count());
    for platform in &spec.platforms {
        for pattern in &spec.patterns {
            for &n in &spec.task_counts {
                for &total_weight in &spec.total_weights {
                    for &algorithm in &spec.algorithms {
                        cells.push((platform, pattern, n, total_weight, algorithm));
                    }
                }
            }
        }
    }
    cells
        .into_par_iter()
        .map(|(platform, pattern, n, total_weight, algorithm)| {
            let seed = cell_seed(
                spec.base_seed,
                &platform.name,
                pattern.name(),
                n,
                total_weight,
                algorithm,
            );
            let s = Scenario::paper_setup(platform, pattern, n, total_weight)
                .expect("valid paper setup");
            let solution = engine.solve(&s, algorithm);
            let (simulated_mean, relative_error) = if spec.validation_replications > 0 {
                let report = run_monte_carlo(
                    &s,
                    &solution.schedule,
                    MonteCarloConfig {
                        replications: spec.validation_replications,
                        seed,
                        threads: spec.validation_threads.max(1),
                    },
                )
                .expect("optimal schedules are valid");
                (
                    Some(report.makespan.mean),
                    Some(report.relative_error_vs(solution.expected_makespan)),
                )
            } else {
                (None, None)
            };
            GridRow {
                platform: platform.name.clone(),
                pattern: pattern.name().to_string(),
                n,
                total_weight,
                algorithm,
                seed,
                solution: (*solution).clone(),
                simulated_mean,
                relative_error,
            }
        })
        .collect()
}

/// Renders grid rows as a table (one line per cell, grid order).
pub fn grid_table(rows: &[GridRow]) -> Table {
    let mut table = Table::new(
        "Sweep grid — platform × pattern × n × T",
        &[
            "platform",
            "pattern",
            "n",
            "T",
            "algorithm",
            "normalized_makespan",
            "disk",
            "memory",
            "guaranteed",
            "partial",
            "sim_rel_error_%",
        ],
    );
    for r in rows {
        table.push_row(vec![
            r.platform.clone(),
            r.pattern.clone(),
            r.n.to_string(),
            fmt_f64(r.total_weight, 0),
            r.algorithm.label().to_string(),
            fmt_f64(r.solution.normalized_makespan, 5),
            r.solution.counts.disk_checkpoints.to_string(),
            r.solution.counts.memory_checkpoints.to_string(),
            r.solution.counts.guaranteed_verifications.to_string(),
            r.solution.counts.partial_verifications.to_string(),
            match r.relative_error {
                Some(e) => fmt_f64(e * 100.0, 3),
                None => "-".to_string(),
            },
        ]);
    }
    table
}

/// Sweeps the partial-verification recall `r` and reports the optimal `A_DMV`
/// makespan and the number of partial verifications it places.
pub fn recall_sweep(
    platform: &Platform,
    n: usize,
    total_weight: f64,
    recalls: &[f64],
    engine: &Engine,
) -> Table {
    let mut table = Table::new(
        format!("Recall sweep — {} (n = {n})", platform.name),
        &["recall", "normalized_makespan", "partial_verifs", "guaranteed_verifs"],
    );
    let rows: Vec<Vec<String>> = recalls
        .par_iter()
        .map(|&r| {
            let mut s = scenario(platform, n, total_weight);
            s.costs.partial_recall = r;
            let sol = engine.solve(&s, Algorithm::TwoLevelPartial);
            vec![
                fmt_f64(r, 2),
                fmt_f64(sol.normalized_makespan, 5),
                sol.counts.partial_verifications.to_string(),
                sol.counts.guaranteed_verifications.to_string(),
            ]
        })
        .collect();
    for row in rows {
        table.push_row(row);
    }
    table
}

/// Sweeps the cost ratio `V*/V` (the paper uses 100).
pub fn partial_cost_sweep(
    platform: &Platform,
    n: usize,
    total_weight: f64,
    ratios: &[f64],
    engine: &Engine,
) -> Table {
    let mut table = Table::new(
        format!("Partial-verification cost sweep — {} (n = {n})", platform.name),
        &["cost_ratio", "normalized_makespan", "partial_verifs"],
    );
    let rows: Vec<Vec<String>> = ratios
        .par_iter()
        .map(|&ratio| {
            let mut s = scenario(platform, n, total_weight);
            s.costs.partial_verification = s.costs.guaranteed_verification / ratio;
            let sol = engine.solve(&s, Algorithm::TwoLevelPartial);
            vec![
                fmt_f64(ratio, 1),
                fmt_f64(sol.normalized_makespan, 5),
                sol.counts.partial_verifications.to_string(),
            ]
        })
        .collect();
    for row in rows {
        table.push_row(row);
    }
    table
}

/// Scales both error rates by each factor and reports how the three
/// algorithms and their placements respond.
pub fn rate_scaling_sweep(
    platform: &Platform,
    n: usize,
    total_weight: f64,
    factors: &[f64],
    engine: &Engine,
) -> Table {
    let mut table = Table::new(
        format!("Error-rate scaling sweep — {} (n = {n})", platform.name),
        &["rate_factor", "ADV*", "ADMV*", "ADMV", "ADMV_memory_ckpts", "ADMV_partial_verifs"],
    );
    let rows: Vec<Vec<String>> = factors
        .par_iter()
        .map(|&factor| {
            let scaled = platform.with_scaled_rates(factor).expect("valid scaling");
            let s = scenario(&scaled, n, total_weight);
            let single = engine.solve(&s, Algorithm::SingleLevel);
            let two = engine.solve(&s, Algorithm::TwoLevel);
            let full = engine.solve(&s, Algorithm::TwoLevelPartial);
            vec![
                fmt_f64(factor, 1),
                fmt_f64(single.normalized_makespan, 5),
                fmt_f64(two.normalized_makespan, 5),
                fmt_f64(full.normalized_makespan, 5),
                full.counts.memory_checkpoints.to_string(),
                full.counts.partial_verifications.to_string(),
            ]
        })
        .collect();
    for row in rows {
        table.push_row(row);
    }
    table
}

/// Compares the `PaperExact` and `Refined` tail accounting of the §III-B
/// algorithm on every requested platform.
pub fn tail_accounting_comparison(
    platforms: &[Platform],
    n: usize,
    total_weight: f64,
    engine: &Engine,
) -> Table {
    let mut table = Table::new(
        format!("Tail-accounting ablation (n = {n})"),
        &["platform", "ADMV_paper", "ADMV_refined", "relative_gap"],
    );
    let rows: Vec<Vec<String>> = platforms
        .par_iter()
        .map(|platform| {
            let s = scenario(platform, n, total_weight);
            let paper = engine.solve(&s, Algorithm::TwoLevelPartial);
            let refined = engine.solve(&s, Algorithm::TwoLevelPartialRefined);
            let gap =
                (paper.expected_makespan - refined.expected_makespan) / refined.expected_makespan;
            vec![
                platform.name.clone(),
                fmt_f64(paper.expected_makespan, 2),
                fmt_f64(refined.expected_makespan, 2),
                format!("{:.2e}", gap),
            ]
        })
        .collect();
    for row in rows {
        table.push_row(row);
    }
    table
}

/// Compares the optimal two-level placement against the baseline heuristics
/// (the heuristic placements themselves are closed-form, not DP solves).
pub fn heuristic_comparison(
    platform: &Platform,
    n: usize,
    total_weight: f64,
    engine: &Engine,
) -> Table {
    let s = scenario(platform, n, total_weight);
    let optimal = engine.solve(&s, Algorithm::TwoLevel);
    let model = PartialCostModel::Refined;

    let mut table = Table::new(
        format!("Heuristic comparison — {} (n = {n})", platform.name),
        &["placement", "normalized_makespan", "overhead_vs_optimal_%"],
    );
    let mut push = |name: &str, value: f64| {
        let overhead = (value - optimal.expected_makespan) / optimal.expected_makespan * 100.0;
        table.push_row(vec![
            name.to_string(),
            fmt_f64(value / s.error_free_time(), 5),
            fmt_f64(overhead, 2),
        ]);
    };

    push("optimal ADMV*", optimal.expected_makespan);
    let cases: Vec<(&str, chain2l_model::Schedule)> = vec![
        ("no resilience", heuristics::no_resilience(&s)),
        ("disk ckpt every task", heuristics::checkpoint_every_task(&s)),
        ("memory ckpt every task", heuristics::memory_checkpoint_every_task(&s)),
        ("Young/Daly periods", heuristics::young_daly(&s).expect("valid scenario")),
        (
            "best periodic memory ckpt",
            heuristics::best_periodic(&s, Action::MemoryCheckpoint, model).0,
        ),
    ];
    let values: Vec<(&str, f64)> = cases
        .par_iter()
        .map(|(name, schedule)| {
            let value = expected_makespan(&s, schedule, model).expect("valid heuristic schedule");
            (*name, value)
        })
        .collect();
    for (name, value) in values {
        push(name, value);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain2l_model::platform::scr;

    const W: f64 = 25_000.0;

    #[test]
    fn recall_sweep_improves_with_higher_recall() {
        let table = recall_sweep(&scr::coastal_ssd(), 20, W, &[0.2, 0.5, 0.8, 1.0], &Engine::new());
        assert_eq!(table.row_count(), 4);
        let csv = table.to_csv();
        // Makespans are non-increasing as recall grows: parse and check.
        let values: Vec<f64> =
            csv.lines().skip(1).map(|l| l.split(',').nth(1).unwrap().parse().unwrap()).collect();
        for w in values.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "{values:?}");
        }
    }

    #[test]
    fn partial_cost_sweep_prefers_cheaper_partials() {
        let table = partial_cost_sweep(
            &scr::coastal_ssd(),
            20,
            W,
            &[1.0, 10.0, 100.0, 1000.0],
            &Engine::new(),
        );
        let csv = table.to_csv();
        let values: Vec<f64> =
            csv.lines().skip(1).map(|l| l.split(',').nth(1).unwrap().parse().unwrap()).collect();
        // Cheaper partial verifications (larger ratio) never hurt.
        for w in values.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "{values:?}");
        }
    }

    #[test]
    fn rate_scaling_increases_overhead_and_actions() {
        let table = rate_scaling_sweep(&scr::hera(), 20, W, &[1.0, 10.0, 50.0], &Engine::new());
        let csv = table.to_csv();
        let rows: Vec<Vec<String>> =
            csv.lines().skip(1).map(|l| l.split(',').map(|s| s.to_string()).collect()).collect();
        let makespans: Vec<f64> = rows.iter().map(|r| r[3].parse().unwrap()).collect();
        assert!(makespans.windows(2).all(|w| w[1] >= w[0] - 1e-9), "{makespans:?}");
        let mem_ckpts: Vec<usize> = rows.iter().map(|r| r[4].parse().unwrap()).collect();
        assert!(mem_ckpts.last().unwrap() >= mem_ckpts.first().unwrap(), "{mem_ckpts:?}");
    }

    #[test]
    fn tail_accounting_gap_is_tiny_on_paper_platforms() {
        let table = tail_accounting_comparison(&scr::all(), 15, W, &Engine::new());
        assert_eq!(table.row_count(), 4);
        // The two accountings differ only in how the closing guaranteed
        // verification of an interval is charged; neither dominates the other
        // in general, but the gap is far below anything the figures resolve.
        for line in table.to_csv().lines().skip(1) {
            let gap: f64 = line.split(',').nth(3).unwrap().parse().unwrap();
            assert!(gap.abs() < 1e-3, "gap {gap} too large: {line}");
        }
    }

    #[test]
    fn cell_seed_depends_on_every_coordinate() {
        let base = cell_seed(1, "Hera", "uniform", 10, W, Algorithm::TwoLevel);
        let variants = [
            cell_seed(2, "Hera", "uniform", 10, W, Algorithm::TwoLevel),
            cell_seed(1, "Atlas", "uniform", 10, W, Algorithm::TwoLevel),
            cell_seed(1, "Hera", "decrease", 10, W, Algorithm::TwoLevel),
            cell_seed(1, "Hera", "uniform", 11, W, Algorithm::TwoLevel),
            cell_seed(1, "Hera", "uniform", 10, W + 1.0, Algorithm::TwoLevel),
            cell_seed(1, "Hera", "uniform", 10, W, Algorithm::SingleLevel),
        ];
        for v in variants {
            assert_ne!(v, base);
        }
        // ... and on nothing else.
        assert_eq!(base, cell_seed(1, "Hera", "uniform", 10, W, Algorithm::TwoLevel));
    }

    #[test]
    fn grid_covers_every_cell_in_order_and_is_reproducible() {
        let spec = GridSpec { validation_replications: 60, ..GridSpec::paper(vec![3, 6], 42) };
        let rows = run_grid(&spec, &Engine::new());
        assert_eq!(rows.len(), spec.cell_count());
        // Grid order: platforms outermost, algorithms innermost.
        assert_eq!(rows[0].platform, "Hera");
        assert_eq!(rows[0].n, 3);
        assert_eq!(rows[1].n, 3);
        assert_ne!(rows[0].algorithm, rows[1].algorithm);
        assert_eq!(rows.last().unwrap().platform, "Coastal SSD");
        // Every cell draws from its own stream…
        let seeds: std::collections::HashSet<u64> = rows.iter().map(|r| r.seed).collect();
        assert_eq!(seeds.len(), rows.len());
        // …and a second run reproduces the artifact bit-for-bit, including
        // the Monte-Carlo means.
        let again = run_grid(&spec, &Engine::new());
        for (a, b) in rows.iter().zip(&again) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.solution.expected_makespan, b.solution.expected_makespan);
            assert_eq!(a.simulated_mean, b.simulated_mean);
            assert_eq!(a.relative_error, b.relative_error);
        }
        assert_eq!(grid_table(&rows).to_csv(), grid_table(&again).to_csv());
    }

    #[test]
    fn grid_validation_tracks_analytical_values() {
        let spec = GridSpec {
            platforms: vec![scr::hera()],
            patterns: vec![chain2l_model::WeightPattern::Uniform],
            task_counts: vec![10],
            total_weights: vec![W],
            algorithms: vec![Algorithm::TwoLevel],
            base_seed: 7,
            validation_replications: 4_000,
            validation_threads: 1,
        };
        let rows = run_grid(&spec, &Engine::new());
        assert_eq!(rows.len(), 1);
        let err = rows[0].relative_error.expect("validated cell");
        assert!(err.abs() < 0.02, "simulation off by {err}");
    }

    #[test]
    fn grid_cells_simulate_multi_threaded_and_stay_reproducible() {
        // One large campaign cell no longer simulates single-threaded: the
        // in-cell Monte-Carlo runs on `validation_threads` workers, stays
        // statistically consistent with the analytical value, and two runs
        // of the same spec are bit-identical.
        let spec = GridSpec {
            platforms: vec![scr::hera()],
            patterns: vec![chain2l_model::WeightPattern::Uniform],
            task_counts: vec![10],
            total_weights: vec![W],
            algorithms: vec![Algorithm::TwoLevel],
            base_seed: 7,
            validation_replications: 4_000,
            validation_threads: 4,
        };
        let rows = run_grid(&spec, &Engine::new());
        let err = rows[0].relative_error.expect("validated cell");
        assert!(err.abs() < 0.02, "simulation off by {err}");
        let again = run_grid(&spec, &Engine::new());
        assert_eq!(rows[0].simulated_mean, again[0].simulated_mean);
        // The worker-stream partition is part of the configuration: a
        // single-threaded run of the same seed draws different streams.
        let single = run_grid(&GridSpec { validation_threads: 1, ..spec }, &Engine::new());
        assert_ne!(rows[0].simulated_mean, single[0].simulated_mean);
        assert!(
            (rows[0].simulated_mean.unwrap() - single[0].simulated_mean.unwrap()).abs() < 200.0
        );
    }

    #[test]
    fn heuristic_comparison_puts_optimal_first_with_zero_overhead() {
        let table = heuristic_comparison(&scr::hera(), 20, W, &Engine::new());
        assert!(table.row_count() >= 5);
        let csv = table.to_csv();
        let first = csv.lines().nth(1).unwrap();
        assert!(first.starts_with("optimal"));
        let overhead: f64 = first.split(',').nth(2).unwrap().parse().unwrap();
        assert_eq!(overhead, 0.0);
        // Every heuristic has non-negative overhead.
        for line in csv.lines().skip(2) {
            let overhead: f64 = line.split(',').nth(2).unwrap().parse().unwrap();
            assert!(overhead >= -1e-9, "{line}");
        }
    }
}
