//! DP kernel performance report: wall-clock and candidate-count trajectory
//! of the pruned `A_DMV` kernels vs. the exhaustive reference, plus the
//! engine's incremental-in-`n` extension series, written to
//! `results/BENCH_dp.json`.
//!
//! Usage:
//!   cargo run --release -p chain2l-bench --bin dp_report              # report
//!   cargo run --release -p chain2l-bench --bin dp_report -- \
//!       --check crates/bench/baselines/dp_candidates.csv             # CI gate
//!   cargo run --release -p chain2l-bench --bin dp_report -- --full   # + n=100 exhaustive
//!   cargo run --release -p chain2l-bench --bin dp_report -- --wall   # wall-clock bench
//!   cargo run --release -p chain2l-bench --bin dp_report -- \
//!       --wall --check-wall crates/bench/baselines/BENCH_wall.json   # wall-clock gate
//!
//! `--help` prints the flags.  Any other argument, or a missing baseline
//! path, is a usage error (exit 2) raised before anything is solved or
//! written.
//!
//! `--check` re-runs the reference scenarios and **fails (exit 1) when any
//! pruned `candidates_examined` exceeds its recorded baseline** — the counts
//! are deterministic, so any regression is a real pruning regression, not
//! noise.  Coverage is enforced both ways (unmonitored measured cells fail
//! too).  The baseline CSV rows are `platform,n,algorithm,max_candidates`;
//! regenerate them with `--print-baseline` after an intentional kernel
//! change.  A recorded trajectory snapshot lives at
//! `crates/bench/baselines/BENCH_dp.json` (`results/` is gitignored).
//!
//! `--wall` measures cold-solve wall-clock ([`WALL_WARMUP`] untimed warmup
//! solves, then best of [`WALL_REPEATS`] timed ones), peak
//! RSS and heap-allocation counts (via the counting global allocator below)
//! for the pruned `A_DMV` kernel at `n ∈ {25, 50, 100}`, writes
//! `results/BENCH_wall.json`, and — when the recorded baseline exists —
//! annotates every cell with its improvement factor over it.
//! `--check-wall` additionally **fails (exit 1) when the `n = 50` cell
//! regresses by more than 15 %** against the recorded wall-clock baseline
//! (`crates/bench/baselines/BENCH_wall.json`); unlike the candidate gate
//! this one measures time, so the tolerance absorbs scheduler noise while
//! still catching the allocator/bandwidth regressions the arena work is
//! protecting against.

use chain2l_analysis::experiments::weak_scaling_scenario;
use chain2l_bench::write_result_file;
use chain2l_core::{optimize_with_partials, Algorithm, Engine, PartialOptions, Solution};
use chain2l_model::platform::scr;
use chain2l_model::{Platform, Scenario, WeightPattern};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of timed runs per wall-clock cell; the fastest is reported (the
/// minimum is the standard low-noise estimator for deterministic work).
const WALL_REPEATS: usize = 5;

/// Untimed warmup solves before the best-of-[`WALL_REPEATS`] window: the
/// first cold solve of a cell first-touches every freshly arena-allocated
/// plane, so its wall clock includes the process's page-fault cost — noise
/// that would pollute a cross-build baseline comparison.  The warmup solves
/// fault those pages in (the allocator hands the freed plane memory back to
/// the next solve), so every timed repeat runs over resident memory.
const WALL_WARMUP: usize = 2;

/// Wall-clock regression tolerance of the `--check-wall` gate.
const WALL_TOLERANCE: f64 = 1.15;

/// Heap allocations performed since process start (alloc + realloc calls).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// [`System`] with an allocation counter: the only way to observe allocator
/// churn from safe benchmark code.  Deallocations are not counted — the
/// report tracks how often the hot path asks the allocator for memory, which
/// is exactly what the table arena is meant to drive to zero.
struct CountingAllocator;

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic.
// lint: allow-file(unsafe-code: GlobalAlloc has an unsafe-only interface; this counting shim delegates verbatim to System and is bench instrumentation, not product code)
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// One measured reference cell.
struct Cell {
    platform: String,
    n: usize,
    algorithm: Algorithm,
    pruned: Measure,
    exhaustive: Option<Measure>,
}

struct Measure {
    millis: f64,
    candidates: u64,
    table_entries: usize,
}

fn measure<F: Fn() -> Solution>(solve: F) -> Measure {
    let start = Instant::now();
    let solution = solve();
    Measure {
        millis: start.elapsed().as_secs_f64() * 1e3,
        candidates: solution.stats.candidates_examined,
        table_entries: solution.stats.table_entries,
    }
}

/// The reference scenarios of the CI gate: every Table I platform at the
/// paper's `n = 50`, plus Hera at 25 and 100 for the scaling trajectory.
fn reference_cells() -> Vec<(Platform, usize)> {
    let mut cells: Vec<(Platform, usize)> = scr::all().into_iter().map(|p| (p, 50)).collect();
    cells.push((scr::hera(), 25));
    cells.push((scr::hera(), 100));
    cells
}

/// How much of the exhaustive reference to measure alongside the pruned
/// kernel.
#[derive(Clone, Copy, PartialEq)]
enum Exhaustive {
    /// None — the `--check` gate reads only pruned candidate counts.
    Skip,
    /// Up to `n = 50` (the default report).
    Small,
    /// Every cell (`--full`; the unpruned `n = 100` solve takes ~10x).
    All,
}

fn run_cells(exhaustive: Exhaustive) -> Vec<Cell> {
    reference_cells()
        .into_iter()
        .map(|(platform, n)| {
            let s = Scenario::paper_setup(&platform, &WeightPattern::Uniform, n, 25_000.0)
                .expect("valid paper setup");
            let pruned = measure(|| optimize_with_partials(&s, PartialOptions::paper_exact()));
            let reference = match exhaustive {
                Exhaustive::Skip => false,
                Exhaustive::Small => n <= 50,
                Exhaustive::All => true,
            };
            let exhaustive = reference.then(|| {
                measure(|| {
                    optimize_with_partials(&s, PartialOptions::paper_exact().without_pruning())
                })
            });
            Cell {
                platform: platform.name.clone(),
                n,
                algorithm: Algorithm::TwoLevelPartial,
                pruned,
                exhaustive,
            }
        })
        .collect()
}

/// Ascending weak-scaling series through one [`Engine`] (each point extends
/// the previous point's tables) vs. cold solves of every point.
struct SeriesReport {
    points: Vec<usize>,
    incremental_millis: f64,
    cold_millis: f64,
    stats: String,
}

fn run_series() -> SeriesReport {
    let platform = scr::hera();
    let points = vec![25usize, 50, 100];
    let engine = Engine::new();
    let start = Instant::now();
    for &n in &points {
        engine.solve(&weak_scaling_scenario(&platform, n, 500.0), Algorithm::TwoLevelPartial);
    }
    let incremental_millis = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    for &n in &points {
        optimize_with_partials(
            &weak_scaling_scenario(&platform, n, 500.0),
            PartialOptions::paper_exact(),
        );
    }
    let cold_millis = start.elapsed().as_secs_f64() * 1e3;
    let routes = engine.stats();
    let stats =
        format!("{} cold, {} extended, {} reused", routes.cold(), routes.extended, routes.reused);
    SeriesReport { points, incremental_millis, cold_millis, stats }
}

/// One wall-clock bench cell: cold pruned solves of the `A_DMV` kernel.
struct WallCell {
    platform: String,
    n: usize,
    algorithm: Algorithm,
    /// Fastest of [`WALL_REPEATS`] cold solves, in milliseconds.
    wall_millis: f64,
    /// Heap allocations (alloc + realloc) of one cold solve.
    allocations: u64,
    /// Process peak RSS after the cell ran (`VmHWM`, cumulative across
    /// cells — run the largest `n` last), 0 where unsupported.
    peak_rss_kb: u64,
}

/// Process peak resident set (`VmHWM` from `/proc/self/status`, Linux only;
/// falls back to the current `VmRSS` on kernels that do not report a
/// high-water mark, and to 0 where `/proc` is unavailable).
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    let field = |key: &str| {
        status
            .lines()
            .find_map(|line| line.strip_prefix(key))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
    };
    field("VmHWM:").or_else(|| field("VmRSS:")).unwrap_or(0)
}

/// The wall-clock reference cells: Hera `A_DMV` at `n ∈ {25, 50, 100}`
/// (paper setup, uniform weights), cold pruned solves only — the scenario
/// family both the `n = 50` CI gate and the `n = 100` cold-solve trajectory
/// read from.
fn run_wall_cells() -> Vec<WallCell> {
    [25usize, 50, 100]
        .into_iter()
        .map(|n| {
            let platform = scr::hera();
            let s = Scenario::paper_setup(&platform, &WeightPattern::Uniform, n, 25_000.0)
                .expect("valid paper setup");
            let mut wall_millis = f64::INFINITY;
            let mut allocations = 0;
            for _ in 0..WALL_WARMUP {
                let solution = optimize_with_partials(&s, PartialOptions::paper_exact());
                assert!(solution.expected_makespan.is_finite());
            }
            for _ in 0..WALL_REPEATS {
                let before = ALLOCATIONS.load(Ordering::Relaxed);
                let start = Instant::now();
                let solution = optimize_with_partials(&s, PartialOptions::paper_exact());
                let millis = start.elapsed().as_secs_f64() * 1e3;
                allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
                assert!(solution.expected_makespan.is_finite());
                wall_millis = wall_millis.min(millis);
            }
            WallCell {
                platform: platform.name,
                n,
                algorithm: Algorithm::TwoLevelPartial,
                wall_millis,
                allocations,
                peak_rss_kb: peak_rss_kb(),
            }
        })
        .collect()
}

/// Extracts a `"key": value` field from one rendered JSON line (the wall
/// report is rendered one cell per line, so line-oriented parsing is exact
/// for our own output format — no JSON dependency needed offline).
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\": ");
    let start = line.find(&pattern)? + pattern.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Parses `(platform, n, wall_millis)` rows out of a recorded
/// `BENCH_wall.json`.
fn parse_wall_baseline(text: &str) -> Vec<(String, usize, f64)> {
    text.lines()
        .filter(|line| line.contains("\"wall_millis\""))
        .filter_map(|line| {
            Some((
                json_field(line, "platform")?.to_string(),
                json_field(line, "n")?.parse().ok()?,
                json_field(line, "wall_millis")?.parse().ok()?,
            ))
        })
        .collect()
}

fn render_wall_json(cells: &[WallCell], baseline: &[(String, usize, f64)]) -> String {
    let mut out = String::from("{\n  \"report\": \"dp_wall\",\n  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"platform\": \"{}\", \"pattern\": \"uniform\", \"n\": {}, \
             \"algorithm\": \"{}\", \"wall_millis\": {:.3}, \"allocations\": {}, \
             \"peak_rss_kb\": {}",
            c.platform,
            c.n,
            c.algorithm.label(),
            c.wall_millis,
            c.allocations,
            c.peak_rss_kb,
        ));
        if let Some((_, _, base)) =
            baseline.iter().find(|(platform, n, _)| *platform == c.platform && *n == c.n)
        {
            out.push_str(&format!(
                ", \"baseline_wall_millis\": {:.3}, \"improvement\": {:.2}",
                base,
                base / c.wall_millis
            ));
        }
        out.push_str(if i + 1 == cells.len() { "}\n" } else { "},\n" });
    }
    out.push_str(&format!(
        "  ],\n  \"repeats\": {WALL_REPEATS},\n  \"warmup\": {WALL_WARMUP},\n  \
         \"methodology\": \"per cell: {WALL_WARMUP} untimed warmup solves fault the \
         plane memory in, then wall_millis is the fastest of {WALL_REPEATS} timed \
         cold solves; allocations counts one solve; re-seed the baseline on each \
         hardware class\",\n  \"gate\": {{\"platform\": \"Hera\", \
         \"n\": 50, \"max_regression\": {WALL_TOLERANCE}}}\n}}\n"
    ));
    out
}

/// The `--check-wall` gate: the `n = 50` reference cell must stay within
/// [`WALL_TOLERANCE`] of its recorded baseline.  Returns the number of
/// regressions (baseline rows for other cells are informational only — small
/// cells are noise-dominated and `n = 100` tracks the trajectory).
fn check_wall(cells: &[WallCell], baseline: &[(String, usize, f64)]) -> usize {
    let mut regressions = 0;
    let Some(cell) = cells.iter().find(|c| c.platform == "Hera" && c.n == 50) else {
        eprintln!("dp_report: wall gate cell Hera n=50 was not measured");
        return 1;
    };
    match baseline.iter().find(|(platform, n, _)| platform == "Hera" && *n == 50) {
        None => {
            eprintln!("dp_report: wall baseline has no Hera n=50 row");
            regressions += 1;
        }
        Some((_, _, base)) if cell.wall_millis > base * WALL_TOLERANCE => {
            eprintln!(
                "dp_report: WALL REGRESSION Hera n=50: {:.1} ms > {:.1} ms baseline x {:.2}",
                cell.wall_millis, base, WALL_TOLERANCE
            );
            regressions += 1;
        }
        Some((_, _, base)) => {
            eprintln!(
                "dp_report: wall ok Hera n=50: {:.1} ms <= {:.1} ms baseline x {:.2}",
                cell.wall_millis, base, WALL_TOLERANCE
            );
        }
    }
    regressions
}

fn run_wall(check: Option<String>, baseline_path: &str) -> i32 {
    let cells = run_wall_cells();
    let baseline = std::fs::read_to_string(check.as_deref().unwrap_or(baseline_path))
        .map(|text| parse_wall_baseline(&text))
        .unwrap_or_default();
    for c in &cells {
        let vs = baseline
            .iter()
            .find(|(platform, n, _)| *platform == c.platform && *n == c.n)
            .map(|(_, _, base)| {
                format!(" ({:.2}x vs baseline {:.1} ms)", base / c.wall_millis, base)
            })
            .unwrap_or_default();
        eprintln!(
            "dp_report: wall {} n={}: {:.1} ms, {} allocations, peak RSS {} kB{vs}",
            c.platform, c.n, c.wall_millis, c.allocations, c.peak_rss_kb
        );
    }
    let json = render_wall_json(&cells, &baseline);
    print!("{json}");
    if let Some(path) = write_result_file("BENCH_wall.json", &json) {
        eprintln!("dp_report: JSON written to {}", path.display());
    }
    if check.is_some() {
        let regressions = check_wall(&cells, &baseline);
        if regressions > 0 {
            eprintln!("dp_report: {regressions} wall-clock regression(s)");
            return 1;
        }
        eprintln!("dp_report: no wall-clock regressions");
    }
    0
}

fn render_json(cells: &[Cell], series: &SeriesReport) -> String {
    let mut out = String::from("{\n  \"report\": \"dp_report\",\n  \"scenarios\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"platform\": \"{}\", \"pattern\": \"uniform\", \"n\": {}, \
             \"algorithm\": \"{}\", \"pruned\": {{\"millis\": {:.3}, \"candidates\": {}, \
             \"table_entries\": {}}}",
            c.platform,
            c.n,
            c.algorithm.label(),
            c.pruned.millis,
            c.pruned.candidates,
            c.pruned.table_entries,
        ));
        if let Some(e) = &c.exhaustive {
            out.push_str(&format!(
                ", \"exhaustive\": {{\"millis\": {:.3}, \"candidates\": {}}}, \
                 \"speedup\": {:.2}, \"candidate_reduction\": {:.2}",
                e.millis,
                e.candidates,
                e.millis / c.pruned.millis,
                e.candidates as f64 / c.pruned.candidates as f64,
            ));
        }
        out.push_str(if i + 1 == cells.len() { "}\n" } else { "},\n" });
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"incremental_series\": {{\"platform\": \"Hera\", \"algorithm\": \"ADMV\", \
         \"per_task_weight\": 500.0, \"points\": {:?}, \"incremental_millis\": {:.3}, \
         \"cold_millis\": {:.3}, \"amortization\": {:.2}, \"solver\": \"{}\"}}\n}}\n",
        series.points,
        series.incremental_millis,
        series.cold_millis,
        series.cold_millis / series.incremental_millis,
        series.stats,
    ));
    out
}

fn baseline_rows(cells: &[Cell]) -> String {
    let mut out = String::from("platform,n,algorithm,max_candidates\n");
    for c in cells {
        out.push_str(&format!(
            "{},{},{},{}\n",
            c.platform,
            c.n,
            c.algorithm.label(),
            c.pruned.candidates
        ));
    }
    out
}

/// Compares measured pruned candidate counts against the recorded baseline;
/// returns the number of regressions.  Coverage is checked both ways: a
/// baseline row without a measured cell fails, and so does a measured
/// reference cell without a baseline row (an unmonitored scenario would let
/// a pruning regression ship undetected).
fn check_baseline(cells: &[Cell], baseline: &str) -> usize {
    let mut regressions = 0;
    let mut covered = vec![false; cells.len()];
    for line in baseline.lines().skip(1) {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // platform names contain no commas in Table I; split from the right
        // so a future name with a comma fails loudly instead of silently.
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 4 {
            eprintln!("dp_report: malformed baseline row `{line}`");
            regressions += 1;
            continue;
        }
        let (platform, n, algorithm, max): (&str, usize, &str, u64) = (
            fields[0],
            fields[1].parse().expect("baseline n"),
            fields[2],
            fields[3].parse().expect("baseline candidates"),
        );
        match cells
            .iter()
            .position(|c| c.platform == platform && c.n == n && c.algorithm.label() == algorithm)
            .map(|i| {
                covered[i] = true;
                &cells[i]
            }) {
            None => {
                eprintln!("dp_report: baseline row `{line}` has no measured cell");
                regressions += 1;
            }
            Some(cell) if cell.pruned.candidates > max => {
                eprintln!(
                    "dp_report: REGRESSION {platform} n={n} {algorithm}: \
                     {} candidates > baseline {max}",
                    cell.pruned.candidates
                );
                regressions += 1;
            }
            Some(cell) => {
                eprintln!(
                    "dp_report: ok {platform} n={n} {algorithm}: {} <= {max}",
                    cell.pruned.candidates
                );
            }
        }
    }
    for (cell, covered) in cells.iter().zip(&covered) {
        if !covered {
            eprintln!(
                "dp_report: UNMONITORED {} n={} {} has no baseline row",
                cell.platform,
                cell.n,
                cell.algorithm.label()
            );
            regressions += 1;
        }
    }
    regressions
}

/// Printed by `--help` (stdout, exit 0) and after a usage error (stderr,
/// exit 2).
const USAGE: &str = "\
usage: dp_report [--full | --print-baseline | --check BASELINE.csv]
       dp_report --wall [--check-wall BASELINE.json]

  (no flag)                  pruned vs exhaustive kernels and the incremental
                             series; writes BENCH_dp.json to the results dir
  --full                     also run the exhaustive n = 100 cell
  --print-baseline           print the candidate-count baseline rows
  --check BASELINE.csv       exit 1 if a candidate count exceeds its baseline
  --wall                     cold-solve wall clock; writes BENCH_wall.json
  --check-wall BASELINE.json (with --wall) exit 1 if the n = 50 cell regresses
  --help                     print this text

The results dir is `results/`, or CHAIN2L_RESULTS_DIR when set.
";

/// What the command line asks for.
#[derive(Default)]
struct Options {
    check: Option<String>,
    print_baseline: bool,
    full: bool,
    wall: bool,
    check_wall: Option<String>,
}

/// Parses the command line: `Ok(None)` is `--help`, `Err` a usage error.
/// Nothing is solved or written before the whole line parses.
fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut options = Options::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" => return Ok(None),
            "--full" => options.full = true,
            "--print-baseline" => options.print_baseline = true,
            "--wall" => options.wall = true,
            "--check" | "--check-wall" => {
                let path = iter
                    .next()
                    .filter(|path| !path.starts_with("--"))
                    .ok_or_else(|| format!("{arg} needs a baseline path"))?;
                if arg == "--check" {
                    options.check = Some(path.clone());
                } else {
                    options.check_wall = Some(path.clone());
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if options.check_wall.is_some() && !options.wall {
        return Err("--check-wall needs --wall".to_string());
    }
    Ok(Some(options))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(Some(options)) => options,
        Ok(None) => {
            print!("{USAGE}");
            return;
        }
        Err(why) => {
            eprintln!("dp_report: {why}");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };
    if options.wall {
        std::process::exit(run_wall(options.check_wall, "crates/bench/baselines/BENCH_wall.json"));
    }
    let exhaustive = if options.check.is_some() || options.print_baseline {
        Exhaustive::Skip
    } else if options.full {
        Exhaustive::All
    } else {
        Exhaustive::Small
    };

    let cells = run_cells(exhaustive);
    for c in &cells {
        match &c.exhaustive {
            Some(e) => eprintln!(
                "dp_report: {} n={}: pruned {:.1} ms / {} cands vs exhaustive {:.1} ms / {} \
                 cands ({:.1}x faster, {:.1}x fewer candidates)",
                c.platform,
                c.n,
                c.pruned.millis,
                c.pruned.candidates,
                e.millis,
                e.candidates,
                e.millis / c.pruned.millis,
                e.candidates as f64 / c.pruned.candidates as f64,
            ),
            None => eprintln!(
                "dp_report: {} n={}: pruned {:.1} ms / {} cands",
                c.platform, c.n, c.pruned.millis, c.pruned.candidates
            ),
        }
    }

    if let Some(path) = options.check {
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let regressions = check_baseline(&cells, &baseline);
        if regressions > 0 {
            eprintln!("dp_report: {regressions} candidate-count regression(s)");
            std::process::exit(1);
        }
        eprintln!("dp_report: no candidate-count regressions");
        return;
    }

    if options.print_baseline {
        print!("{}", baseline_rows(&cells));
        return;
    }

    let series = run_series();
    eprintln!(
        "dp_report: incremental series {:?}: {:.1} ms vs {:.1} ms cold ({})",
        series.points, series.incremental_millis, series.cold_millis, series.stats
    );
    let json = render_json(&cells, &series);
    print!("{json}");
    if let Some(path) = write_result_file("BENCH_dp.json", &json) {
        eprintln!("dp_report: JSON written to {}", path.display());
    }
}
