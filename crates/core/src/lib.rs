//! # chain2l-core
//!
//! The dynamic-programming optimizers of *"Two-Level Checkpointing and
//! Verifications for Linear Task Graphs"* (Benoit, Cavelan, Robert, Sun —
//! IPDPSW/PDSEC 2016), plus the supporting machinery needed to validate them:
//!
//! * [`two_level`] — the §III-A dynamic program: `A_DMV*` (disk + memory
//!   checkpoints + guaranteed verifications, `O(n⁴)`) and its single-level
//!   restriction `A_DV*`;
//! * [`partial`] — the §III-B dynamic program `A_DMV` that additionally places
//!   partial verifications (`O(n⁶)`);
//! * [`evaluator`] — exact expected-makespan evaluation of *arbitrary*
//!   schedules (used by baselines, tests and the experiment harness);
//! * [`brute_force`] — exhaustive search on small chains, certifying DP
//!   optimality;
//! * [`heuristics`] — baseline placements (periodic, Young/Daly, …);
//! * [`sensitivity`] — elasticity of the optimum with respect to every model
//!   parameter;
//! * [`segment`] — the closed-form segment expectations (Eq. 2–4 and the
//!   §III-B quantities) shared by all of the above;
//! * [`cache`] — a concurrency-safe memoizing [`SolutionCache`] keyed by a
//!   canonical scenario fingerprint;
//! * [`engine`] — the strategy-routing [`Engine`]: the one front door that
//!   composes all of the above, routing every [`SolveRequest`] through the
//!   cheapest sound strategy (cache hit → prefix reuse → incremental
//!   extension → pruned kernel → exhaustive fallback) behind the [`Kernel`]
//!   trait, with per-strategy counters ([`EngineStats`]) and a batch API
//!   ([`Engine::solve_batch`]).  Extension grows finished DP tables from `n`
//!   to `n' > n` when the task-weight prefix is unchanged; reuse serves
//!   prefix-covered smaller scenarios with no DP work at all.  The
//!   experiment harness, the CLI and the `chain2l-service` daemon all solve
//!   through it;
//! * [`failpoint`] — a zero-cost-when-disabled, deterministically seeded
//!   fault-injection registry (`CHAIN2L_FAILPOINTS`) threaded through the
//!   workspace's I/O edges for chaos testing.
//!
//! The `A_DMV*` and `A_DMV` dynamic programs shard their two inner levels
//! (`Emem`/`Everif`) across independent disk-segment slices on the
//! work-stealing pool — each candidate predecessor disk checkpoint `d1` owns
//! a self-contained sub-table — and then run the sequential `Edisk` level.
//! Inside a slice the kernels are candidate-pruned: sound lower bounds
//! derived from the interval work and the mandatory verification costs
//! terminate the `v1`/`p2` candidate scans early and skip hopeless inner
//! `E_partial` interval DPs outright, with the exhaustive recurrence as
//! fallback (`*Options::without_pruning`), so values and argmins — and
//! therefore schedules — are bit-identical to the unpruned sequential DP at
//! any thread count.  See DESIGN.md §4 for the soundness argument.
//!
//! The unified entry point is [`optimize`], which dispatches on [`Algorithm`]:
//!
//! ```
//! use chain2l_core::{optimize, Algorithm};
//! use chain2l_model::platform::scr;
//! use chain2l_model::pattern::WeightPattern;
//! use chain2l_model::Scenario;
//!
//! let scenario =
//!     Scenario::paper_setup(&scr::hera(), &WeightPattern::Uniform, 20, 25_000.0).unwrap();
//! let single = optimize(&scenario, Algorithm::SingleLevel);
//! let two = optimize(&scenario, Algorithm::TwoLevel);
//! let full = optimize(&scenario, Algorithm::TwoLevelPartial);
//! assert!(two.expected_makespan <= single.expected_makespan);
//! assert!(full.schedule.validate(&scenario.chain).is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod brute_force;
pub mod cache;
mod dp;
pub mod engine;
pub mod evaluator;
pub mod failpoint;
pub mod heuristics;
pub mod lru;
pub mod partial;
pub mod segment;
pub mod sensitivity;
pub mod simd_scan;
pub mod snapshot;
pub mod solution;
pub mod tables;
pub mod two_level;

pub use arena::{ArenaStats, TableArena};
pub use cache::{CacheLimits, CacheStats, ScenarioFingerprint, SolutionCache, SolveRequest};
pub use engine::{kernel_for, Engine, EngineLimits, EngineStats, Kernel, KernelState};
pub use failpoint::FailAction;
pub use partial::{optimize_with_partials, PartialOptions};
pub use segment::{PartialCostModel, SegmentCalculator};
pub use simd_scan::{set_simd_enabled, simd_enabled};
pub use snapshot::{
    LoadReport, ShardIdentity, SnapshotLoadOutcome, SnapshotRejectReason, SnapshotStats,
};
pub use solution::{DpStatistics, Solution};
pub use two_level::{optimize_two_level, TwoLevelOptions};

use chain2l_model::Scenario;
use serde::{Deserialize, Serialize};

/// The three algorithms evaluated in §IV of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// `A_DV*`: disk checkpoints (each with its memory copy) and guaranteed
    /// verifications only.
    SingleLevel,
    /// `A_DMV*`: adds free-standing memory checkpoints (§III-A).
    TwoLevel,
    /// `A_DMV`: adds partial verifications (§III-B), equations as printed.
    TwoLevelPartial,
    /// `A_DMV` with the refined tail accounting (see `PartialCostModel`).
    TwoLevelPartialRefined,
}

impl Algorithm {
    /// The three algorithms of the paper, in the order of Figure 5.
    pub fn paper_algorithms() -> [Algorithm; 3] {
        [Algorithm::SingleLevel, Algorithm::TwoLevel, Algorithm::TwoLevelPartial]
    }

    /// Short label used in reports (matches the paper's notation).
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::SingleLevel => "ADV*",
            Algorithm::TwoLevel => "ADMV*",
            Algorithm::TwoLevelPartial => "ADMV",
            Algorithm::TwoLevelPartialRefined => "ADMV(refined)",
        }
    }

    /// Parses the labels accepted by the CLI (`adv*`, `admv*`, `admv`,
    /// `admv-refined`, case-insensitive).
    pub fn parse(label: &str) -> Option<Algorithm> {
        match label.to_ascii_lowercase().as_str() {
            "adv*" | "adv" | "single" | "single-level" => Some(Algorithm::SingleLevel),
            "admv*" | "two-level" | "twolevel" => Some(Algorithm::TwoLevel),
            "admv" | "partial" => Some(Algorithm::TwoLevelPartial),
            "admv(refined)" | "admv-refined" | "refined" => Some(Algorithm::TwoLevelPartialRefined),
            _ => None,
        }
    }

    /// The evaluation convention matching this algorithm's objective, for use
    /// with [`evaluator::expected_makespan`].
    pub fn cost_model(&self) -> PartialCostModel {
        match self {
            Algorithm::SingleLevel | Algorithm::TwoLevel => PartialCostModel::Refined,
            Algorithm::TwoLevelPartial => PartialCostModel::PaperExact,
            Algorithm::TwoLevelPartialRefined => PartialCostModel::Refined,
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Runs the selected algorithm on a scenario and returns the optimal expected
/// makespan and schedule.
pub fn optimize(scenario: &Scenario, algorithm: Algorithm) -> Solution {
    match algorithm {
        Algorithm::SingleLevel => {
            two_level::optimize_two_level(scenario, TwoLevelOptions::single_level())
        }
        Algorithm::TwoLevel => {
            two_level::optimize_two_level(scenario, TwoLevelOptions::two_level())
        }
        Algorithm::TwoLevelPartial => {
            partial::optimize_with_partials(scenario, PartialOptions::paper_exact())
        }
        Algorithm::TwoLevelPartialRefined => {
            partial::optimize_with_partials(scenario, PartialOptions::refined())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain2l_model::pattern::WeightPattern;
    use chain2l_model::platform::scr;

    #[test]
    fn algorithm_labels_and_parsing_round_trip() {
        for a in [
            Algorithm::SingleLevel,
            Algorithm::TwoLevel,
            Algorithm::TwoLevelPartial,
            Algorithm::TwoLevelPartialRefined,
        ] {
            assert_eq!(Algorithm::parse(a.label()), Some(a), "{a}");
        }
        assert_eq!(Algorithm::parse("ADMV*"), Some(Algorithm::TwoLevel));
        assert_eq!(Algorithm::parse("unknown"), None);
    }

    #[test]
    fn paper_algorithms_are_in_figure_order() {
        let labels: Vec<&str> = Algorithm::paper_algorithms().iter().map(|a| a.label()).collect();
        assert_eq!(labels, vec!["ADV*", "ADMV*", "ADMV"]);
    }

    #[test]
    fn cost_models_match_algorithms() {
        assert_eq!(Algorithm::TwoLevel.cost_model(), PartialCostModel::Refined);
        assert_eq!(Algorithm::TwoLevelPartial.cost_model(), PartialCostModel::PaperExact);
    }

    #[test]
    fn optimize_dispatches_and_preserves_dominance() {
        let s = Scenario::paper_setup(&scr::hera(), &WeightPattern::Uniform, 15, 25_000.0).unwrap();
        let single = optimize(&s, Algorithm::SingleLevel);
        let two = optimize(&s, Algorithm::TwoLevel);
        let refined = optimize(&s, Algorithm::TwoLevelPartialRefined);
        assert!(two.expected_makespan <= single.expected_makespan + 1e-9);
        assert!(refined.expected_makespan <= two.expected_makespan + 1e-9);
    }
}
