//! # chain2l
//!
//! A production-oriented Rust implementation of *"Two-Level Checkpointing and
//! Verifications for Linear Task Graphs"* (Anne Benoit, Aurélien Cavelan,
//! Yves Robert, Hongyang Sun — IPDPSW/PDSEC 2016).
//!
//! The paper studies HPC applications structured as a linear chain of tasks
//! subject to two error sources — fail-stop crashes and silent data
//! corruptions — and shows how to place four resilience mechanisms (disk
//! checkpoints, in-memory checkpoints, guaranteed verifications and cheap
//! partial verifications) so as to minimise the expected makespan, via
//! polynomial-time dynamic programming.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | content |
//! |---|---|---|
//! | [`model`] | `chain2l-model` | task chains, weight patterns, platforms (Table I), cost model, schedules |
//! | [`core`] | `chain2l-core` | the `A_DV*` / `A_DMV*` / `A_DMV` optimizers, evaluator, brute force, heuristics |
//! | [`sim`] | `chain2l-sim` | Monte-Carlo simulator and replication runner |
//! | [`exec`] | `chain2l-exec` | a miniature two-level checkpoint/restart runtime |
//! | [`analysis`] | `chain2l-analysis` | the §IV experiment harness (Figures 5–8, Table I, sweeps) |
//!
//! The most common entry points are also re-exported at the top level and in
//! [`prelude`].
//!
//! # Quickstart
//!
//! ```
//! use chain2l::prelude::*;
//!
//! // The exact setup of the paper's evaluation on the Hera platform.
//! let scenario = Scenario::paper_setup(
//!     &chain2l::model::platform::scr::hera(),
//!     &WeightPattern::Uniform,
//!     20,
//!     25_000.0,
//! )
//! .unwrap();
//!
//! // Optimal two-level placement (disk + memory checkpoints + verifications).
//! let solution = optimize(&scenario, Algorithm::TwoLevel);
//! assert!(solution.normalized_makespan < 1.10);
//!
//! // Replay the optimal schedule under randomly injected errors.
//! let report = chain2l::sim::run_monte_carlo(
//!     &scenario,
//!     &solution.schedule,
//!     chain2l::sim::MonteCarloConfig { replications: 1_000, seed: 1, threads: 2 },
//! )
//! .unwrap();
//! assert!(report.relative_error_vs(solution.expected_makespan).abs() < 0.05);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use chain2l_analysis as analysis;
pub use chain2l_core as core;
pub use chain2l_exec as exec;
pub use chain2l_model as model;
pub use chain2l_sim as sim;

pub use chain2l_core::{
    optimize, Algorithm, Engine, EngineStats, PartialCostModel, Solution, SolutionCache,
};
pub use chain2l_model::{
    Action, ActionCounts, ModelError, Platform, ResilienceCosts, Scenario, Schedule, TaskChain,
    WeightPattern,
};

/// Convenient glob import: `use chain2l::prelude::*;`.
pub mod prelude {
    pub use crate::core::evaluator::expected_makespan;
    pub use crate::core::{optimize, Algorithm, Engine, PartialCostModel, Solution};
    pub use crate::model::platform::scr;
    pub use crate::model::{
        Action, ActionCounts, Platform, ResilienceCosts, Scenario, Schedule, TaskChain,
        WeightPattern,
    };
    pub use crate::sim::{run_monte_carlo, MonteCarloConfig};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_usable_together() {
        let scenario =
            Scenario::paper_setup(&scr::atlas(), &WeightPattern::Uniform, 8, 25_000.0).unwrap();
        let solution = optimize(&scenario, Algorithm::TwoLevelPartial);
        let value =
            expected_makespan(&scenario, &solution.schedule, PartialCostModel::PaperExact).unwrap();
        assert!((value - solution.expected_makespan).abs() < 1e-6);
    }
}
