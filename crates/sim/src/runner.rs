//! Monte-Carlo replication runner.
//!
//! Runs many independent replications of [`crate::engine::simulate_run`] —
//! optionally across worker threads (`std::thread::scope`, one RNG stream
//! per worker) — and aggregates makespan and error statistics.  The runner is
//! the main tool used to cross-validate the analytical expectations of
//! `chain2l-core` against the execution semantics of the model.
//!
//! Campaigns are reproducible run-to-run for a fixed
//! [`MonteCarloConfig`]: worker `t` always draws from the stream
//! `seed + t`, and the per-worker accumulators are merged in worker order
//! after all threads join (merging through a shared lock in completion
//! order would make the floating-point totals depend on thread timing).

use crate::engine::{simulate_with_injector, RunConfig};
use crate::faults::FaultInjector;
use crate::stats::{Summary, Welford};
use chain2l_model::{ModelError, Scenario, Schedule};
use serde::{Deserialize, Serialize};

/// Configuration of a Monte-Carlo campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonteCarloConfig {
    /// Number of independent replications.
    pub replications: usize,
    /// Base RNG seed; worker `t` uses the stream `seed + t`.
    pub seed: u64,
    /// Number of worker threads (`1` = run inline on the calling thread).
    pub threads: usize,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        Self { replications: 10_000, seed: 0x5eed, threads: 1 }
    }
}

impl MonteCarloConfig {
    /// Sets the number of worker threads.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Aggregated outcome of a Monte-Carlo campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloReport {
    /// Makespan statistics over all replications.
    pub makespan: Summary,
    /// Average number of fail-stop errors per run.
    pub mean_fail_stop_errors: f64,
    /// Average number of silent errors per run.
    pub mean_silent_errors: f64,
    /// Average number of memory rollbacks per run.
    pub mean_memory_rollbacks: f64,
    /// Average number of disk rollbacks per run.
    pub mean_disk_rollbacks: f64,
    /// Average seconds of wasted (lost or re-executed) work per run.
    pub mean_wasted_work: f64,
    /// Average seconds of checkpoint/verification/recovery overhead per run.
    pub mean_resilience_overhead: f64,
    /// Number of replications.
    pub replications: usize,
}

impl MonteCarloReport {
    /// Relative difference between the empirical mean makespan and an
    /// analytical prediction: `(mean − predicted) / predicted`.
    pub fn relative_error_vs(&self, predicted: f64) -> f64 {
        (self.makespan.mean - predicted) / predicted
    }

    /// Whether `predicted` falls within the 95 % confidence interval of the
    /// empirical mean, widened by `slack_factor` standard errors.
    pub fn agrees_with(&self, predicted: f64, slack_factor: f64) -> bool {
        self.makespan.contains_with_slack(predicted, slack_factor)
    }
}

/// Per-worker accumulator merged at the end of the campaign.
#[derive(Debug, Clone, Copy, Default)]
struct WorkerAccumulator {
    makespan: Welford,
    fail_stop: f64,
    silent: f64,
    mem_rollbacks: f64,
    disk_rollbacks: f64,
    wasted: f64,
    overhead: f64,
    runs: usize,
}

impl WorkerAccumulator {
    fn merge(&mut self, other: &WorkerAccumulator) {
        self.makespan.merge(&other.makespan);
        self.fail_stop += other.fail_stop;
        self.silent += other.silent;
        self.mem_rollbacks += other.mem_rollbacks;
        self.disk_rollbacks += other.disk_rollbacks;
        self.wasted += other.wasted;
        self.overhead += other.overhead;
        self.runs += other.runs;
    }
}

/// Runs a Monte-Carlo campaign of `config.replications` simulated executions.
///
/// # Errors
/// Returns [`ModelError::InvalidSchedule`] when the schedule is invalid for
/// the scenario, and [`ModelError::InvalidParameter`] when `replications == 0`.
pub fn run_monte_carlo(
    scenario: &Scenario,
    schedule: &Schedule,
    config: MonteCarloConfig,
) -> Result<MonteCarloReport, ModelError> {
    schedule.validate(&scenario.chain)?;
    if config.replications == 0 {
        return Err(ModelError::InvalidParameter {
            name: "replications",
            value: 0.0,
            expected: "at least one replication",
        });
    }
    let threads = config.threads.max(1).min(config.replications);

    let accumulate = |worker_index: usize, replications: usize| -> WorkerAccumulator {
        let mut acc = WorkerAccumulator::default();
        let mut injector = FaultInjector::new(
            scenario.platform.lambda_fail_stop,
            scenario.platform.lambda_silent,
            config.seed.wrapping_add(worker_index as u64),
        );
        let run_config = RunConfig::default();
        for _ in 0..replications {
            let (result, _) = simulate_with_injector(scenario, schedule, &mut injector, run_config);
            acc.makespan.push(result.makespan);
            acc.fail_stop += result.fail_stop_errors as f64;
            acc.silent += result.silent_errors as f64;
            acc.mem_rollbacks += result.memory_rollbacks as f64;
            acc.disk_rollbacks += result.disk_rollbacks as f64;
            acc.wasted += result.wasted_work;
            acc.overhead += result.resilience_overhead;
            acc.runs += 1;
        }
        acc
    };

    let total = if threads == 1 {
        accumulate(0, config.replications)
    } else {
        let per_worker = config.replications / threads;
        let remainder = config.replications % threads;
        // Join in spawn order and merge in worker order so the aggregated
        // floating-point totals are identical run-to-run for a fixed config.
        let workers: Vec<WorkerAccumulator> = std::thread::scope(|scope| {
            let accumulate = &accumulate;
            let handles: Vec<_> = (0..threads)
                .map(|worker| {
                    let replications = per_worker + usize::from(worker < remainder);
                    scope.spawn(move || accumulate(worker, replications))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("simulation worker panicked")).collect()
        });
        let mut total = WorkerAccumulator::default();
        for acc in &workers {
            total.merge(acc);
        }
        total
    };

    let runs = total.runs as f64;
    Ok(MonteCarloReport {
        makespan: total.makespan.summary(),
        mean_fail_stop_errors: total.fail_stop / runs,
        mean_silent_errors: total.silent / runs,
        mean_memory_rollbacks: total.mem_rollbacks / runs,
        mean_disk_rollbacks: total.disk_rollbacks / runs,
        mean_wasted_work: total.wasted / runs,
        mean_resilience_overhead: total.overhead / runs,
        replications: total.runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain2l_core::evaluator::expected_makespan;
    use chain2l_core::{optimize, Algorithm, PartialCostModel};
    use chain2l_model::pattern::WeightPattern;
    use chain2l_model::platform::{scr, Platform};
    use chain2l_model::{Action, ResilienceCosts, Scenario, Schedule};

    fn hera(n: usize) -> Scenario {
        Scenario::paper_setup(&scr::hera(), &WeightPattern::Uniform, n, 25_000.0).unwrap()
    }

    #[test]
    fn zero_replications_is_an_error() {
        let s = hera(5);
        let schedule = Schedule::terminal_only(5);
        let config = MonteCarloConfig { replications: 0, ..Default::default() };
        assert!(run_monte_carlo(&s, &schedule, config).is_err());
    }

    #[test]
    fn report_counts_every_replication() {
        let s = hera(10);
        let schedule = Schedule::terminal_only(10);
        let config = MonteCarloConfig { replications: 500, seed: 1, threads: 1 };
        let report = run_monte_carlo(&s, &schedule, config).unwrap();
        assert_eq!(report.replications, 500);
        assert_eq!(report.makespan.count, 500);
        assert!(report.makespan.mean >= 25_000.0);
    }

    #[test]
    fn multi_threaded_run_covers_all_replications() {
        let s = hera(10);
        let schedule = Schedule::periodic(10, 2, Action::MemoryCheckpoint);
        let config = MonteCarloConfig { replications: 1001, seed: 7, threads: 4 };
        let report = run_monte_carlo(&s, &schedule, config).unwrap();
        assert_eq!(report.replications, 1001);
        // Single-threaded run with the same total replication count lands in a
        // statistically compatible place (different streams, so not equal).
        let single = run_monte_carlo(
            &s,
            &schedule,
            MonteCarloConfig { replications: 1001, seed: 7, threads: 1 },
        )
        .unwrap();
        let diff = (report.makespan.mean - single.makespan.mean).abs();
        let scale = report.makespan.ci_half_width() + single.makespan.ci_half_width();
        assert!(diff <= 2.0 * scale + 1.0, "diff {diff}, scale {scale}");
    }

    #[test]
    fn same_config_is_reproducible() {
        let s = hera(8);
        let schedule = Schedule::periodic(8, 2, Action::MemoryCheckpoint);
        let config = MonteCarloConfig { replications: 300, seed: 99, threads: 1 };
        let a = run_monte_carlo(&s, &schedule, config).unwrap();
        let b = run_monte_carlo(&s, &schedule, config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn simulation_agrees_with_analytical_expectation_for_guaranteed_schedules() {
        // The §III-A pricing is exact for the simulated execution semantics,
        // so the empirical mean must bracket the analytical value.
        let s = hera(15);
        let sol = optimize(&s, Algorithm::TwoLevel);
        let config = MonteCarloConfig { replications: 20_000, seed: 2024, threads: 4 };
        let report = run_monte_carlo(&s, &sol.schedule, config).unwrap();
        assert!(
            report.agrees_with(sol.expected_makespan, 2.0),
            "analytical {} not within CI [{}, {}]",
            sol.expected_makespan,
            report.makespan.ci95_low,
            report.makespan.ci95_high
        );
        assert!(report.relative_error_vs(sol.expected_makespan).abs() < 0.01);
    }

    #[test]
    fn simulation_agrees_with_evaluator_for_handwritten_schedule() {
        let platform = Platform::new("mid", 32, 3e-6, 1e-5, 120.0, 12.0).unwrap();
        let chain = WeightPattern::Decrease.generate(12, 20_000.0).unwrap();
        let costs = ResilienceCosts::paper_defaults(&platform);
        let s = Scenario::new(chain, platform, costs).unwrap();
        let schedule = Schedule::periodic(12, 3, Action::MemoryCheckpoint);
        let predicted = expected_makespan(&s, &schedule, PartialCostModel::Refined).unwrap();
        let config = MonteCarloConfig { replications: 20_000, seed: 11, threads: 4 };
        let report = run_monte_carlo(&s, &schedule, config).unwrap();
        assert!(
            report.agrees_with(predicted, 2.0),
            "analytical {predicted} vs CI [{}, {}]",
            report.makespan.ci95_low,
            report.makespan.ci95_high
        );
    }

    #[test]
    fn error_counts_scale_with_rates() {
        let s = hera(10);
        let schedule = Schedule::terminal_only(10);
        let config = MonteCarloConfig { replications: 5_000, seed: 5, threads: 2 };
        let report = run_monte_carlo(&s, &schedule, config).unwrap();
        // Expected silent errors per attempt ≈ λ_s · W = 3.38e-6 · 25000 ≈ 0.085;
        // re-executions push the observed average slightly above that.
        assert!(report.mean_silent_errors > 0.05);
        assert!(report.mean_silent_errors < 0.2);
        // Fail-stop errors are rarer (λ_f · W ≈ 0.024).
        assert!(report.mean_fail_stop_errors > 0.01);
        assert!(report.mean_fail_stop_errors < 0.06);
        assert!(report.mean_wasted_work > 0.0);
    }
}
