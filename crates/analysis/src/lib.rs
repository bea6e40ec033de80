//! # chain2l-analysis
//!
//! Experiment harness reproducing the evaluation (§IV) of *"Two-Level
//! Checkpointing and Verifications for Linear Task Graphs"* (Benoit, Cavelan,
//! Robert, Sun — IPDPSW/PDSEC 2016), plus the ablation sweeps and
//! simulation-based validation that a reproduction needs on top of the
//! original figures.
//!
//! * [`experiments`] — Figures 5–8 and Table I as runnable functions;
//! * [`figures`] — the data structures behind each figure panel;
//! * [`sweep`] — ablation sweeps (recall, cost ratio, error-rate scaling,
//!   tail accounting, heuristics);
//! * [`validation`] — Monte-Carlo validation of the analytical expectations;
//! * [`markdown`] — the Markdown sensitivity report of `chain2l sensitivity`;
//! * [`report`] — CSV / aligned-text rendering.
//!
//! The figure and sweep builders all solve through a caller-supplied
//! strategy-routing [`Engine`] (re-exported from `chain2l-core`), so figure
//! panels and sweeps that revisit the same `(platform, pattern, n, T,
//! algorithm)` scenario solve it exactly once, and ascending prefix-stable
//! series extend finished DP tables instead of re-solving — every routing
//! strategy is bit-identical to a cold solve.
//!
//! # Example — a quick Figure 5 sweep
//!
//! ```
//! use chain2l_analysis::experiments::{makespan_series, ExperimentConfig};
//! use chain2l_core::{Algorithm, Engine};
//! use chain2l_model::platform::scr;
//! use chain2l_model::WeightPattern;
//!
//! let config = ExperimentConfig {
//!     total_weight: 25_000.0,
//!     task_counts: vec![5, 10],
//!     algorithms: Algorithm::paper_algorithms().to_vec(),
//! };
//! let series = makespan_series(&scr::hera(), &WeightPattern::Uniform, &config, &Engine::new());
//! assert_eq!(series.points.len(), 2);
//! // The two-level algorithm never loses to the single-level one.
//! for p in &series.points {
//!     assert!(p.value(Algorithm::TwoLevel) <= p.value(Algorithm::SingleLevel));
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod figures;
pub mod markdown;
pub mod report;
pub mod sweep;
pub mod validation;

pub use chain2l_core::cache::{CacheStats, SolutionCache, SolveRequest};
pub use chain2l_core::{Engine, EngineStats};
pub use experiments::{fig5, fig6, fig7, fig8, table1, ExperimentConfig};
pub use figures::{CountSeries, MakespanSeries, PlacementStrip};
pub use report::Table;
