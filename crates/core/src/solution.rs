//! Optimizer output types.

use chain2l_model::{ActionCounts, Scenario, Schedule};
use serde::{Deserialize, Serialize};

/// Book-keeping statistics reported by the dynamic programs (mostly useful for
/// benchmarks and for sanity-checking complexity claims).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DpStatistics {
    /// Total number of memoization-table entries allocated.
    pub table_entries: usize,
    /// Number of candidate positions examined by the innermost loops
    /// (0 when the algorithm does not track it).
    pub candidates_examined: u64,
    /// 4-lane candidate blocks fully dispatched on the vectorized fast path
    /// (DESIGN.md §11; 0 under the `CHAIN2L_NO_SIMD` escape hatch and for
    /// algorithms without blocked scans).
    pub simd_blocks: u64,
    /// 4-lane candidate blocks that fell back to per-lane scalar resolution
    /// (a break, a survivor evaluation, or a mid-block incumbent update).
    pub scalar_fallbacks: u64,
}

/// The result of one optimization run: the optimal expected makespan, the
/// schedule that achieves it, and derived reporting quantities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Solution {
    /// Optimal expected makespan (seconds), including all resilience overheads
    /// and expected re-executions.
    pub expected_makespan: f64,
    /// Expected makespan divided by the error-free execution time of the chain
    /// (the normalisation used by the paper's figures).
    pub normalized_makespan: f64,
    /// The placement of checkpoints and verifications achieving the optimum.
    pub schedule: Schedule,
    /// Hierarchical counts of the actions placed by `schedule`.
    pub counts: ActionCounts,
    /// DP book-keeping statistics.
    pub stats: DpStatistics,
}

impl Solution {
    /// Assembles a solution from the optimizer's raw outputs.
    pub fn new(
        expected_makespan: f64,
        schedule: Schedule,
        scenario: &Scenario,
        stats: DpStatistics,
    ) -> Self {
        let error_free = scenario.error_free_time();
        let normalized_makespan =
            if error_free > 0.0 { expected_makespan / error_free } else { f64::NAN };
        let counts = schedule.counts();
        Self { expected_makespan, normalized_makespan, schedule, counts, stats }
    }

    /// Expected resilience + failure overhead relative to the error-free time
    /// (`normalized_makespan − 1`).
    pub fn overhead(&self) -> f64 {
        self.normalized_makespan - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain2l_model::pattern::WeightPattern;
    use chain2l_model::platform::scr;
    use chain2l_model::Scenario;

    #[test]
    fn solution_derives_normalization_and_counts() {
        let s = Scenario::paper_setup(&scr::hera(), &WeightPattern::Uniform, 10, 25_000.0).unwrap();
        let schedule = Schedule::terminal_only(10);
        let sol = Solution::new(26_000.0, schedule, &s, DpStatistics::default());
        assert!((sol.normalized_makespan - 1.04).abs() < 1e-12);
        assert!((sol.overhead() - 0.04).abs() < 1e-12);
        assert_eq!(sol.counts.disk_checkpoints, 1);
        assert_eq!(sol.counts.guaranteed_verifications, 1);
    }

    #[test]
    fn zero_weight_scenario_yields_nan_normalization() {
        let s = Scenario::paper_setup(&scr::hera(), &WeightPattern::Uniform, 3, 0.0).unwrap();
        let sol = Solution::new(10.0, Schedule::terminal_only(3), &s, DpStatistics::default());
        assert!(sol.normalized_makespan.is_nan());
    }
}
