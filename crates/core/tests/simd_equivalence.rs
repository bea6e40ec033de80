//! SIMD/scalar equivalence suite: the 4-lane blocked candidate scans must be
//! **bit-identical** to the original scalar loops — same makespan bits, same
//! schedule (hence every argmin), same `candidates_examined` and finalized
//! table-entry counts — on every platform, at every `n mod 4` residue (full
//! blocks, and tails of 1, 2 and 3 lanes), and on random scenarios.
//!
//! The scalar path is selected through the runtime escape hatch
//! ([`set_simd_enabled`], the lever behind `CHAIN2L_NO_SIMD`).  The hatch
//! is process-global, so every A/B comparison holds a mutex and restores
//! the entry state before releasing it — the suite stays correct under the
//! default multi-threaded test runner.

use chain2l_core::{
    optimize_with_partials, set_simd_enabled, simd_enabled, PartialOptions, Solution,
};
use chain2l_model::pattern::WeightPattern;
use chain2l_model::platform::scr;
use chain2l_model::{Platform, ResilienceCosts, Scenario, TaskChain};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes access to the process-global SIMD switch.
static SIMD_SWITCH: Mutex<()> = Mutex::new(());

/// Solves `scenario` twice — blocked scans on, then off — and returns both
/// solutions.  Restores the switch to its entry state.
fn solve_both(scenario: &Scenario, options: PartialOptions) -> (Solution, Solution) {
    let _guard = SIMD_SWITCH.lock().unwrap();
    let entry = simd_enabled();
    set_simd_enabled(true);
    let vectorized = optimize_with_partials(scenario, options);
    set_simd_enabled(false);
    let scalar = optimize_with_partials(scenario, options);
    set_simd_enabled(entry);
    (vectorized, scalar)
}

/// The observable equivalence contract.  The scan counters are deliberately
/// *not* compared: they are exactly what distinguishes the two paths (the
/// scalar path reports zero blocks).
#[track_caller]
fn assert_paths_agree(vectorized: &Solution, scalar: &Solution, context: &str) {
    assert_eq!(
        vectorized.expected_makespan.to_bits(),
        scalar.expected_makespan.to_bits(),
        "makespan differs: {context}"
    );
    assert_eq!(vectorized.schedule, scalar.schedule, "schedule differs: {context}");
    assert_eq!(
        vectorized.stats.candidates_examined, scalar.stats.candidates_examined,
        "candidate counts differ: {context}"
    );
    assert_eq!(
        vectorized.stats.table_entries, scalar.stats.table_entries,
        "table entries differ: {context}"
    );
    assert_eq!(
        scalar.stats.simd_blocks + scalar.stats.scalar_fallbacks,
        0,
        "scalar path dispatched blocks: {context}"
    );
}

#[test]
fn blocked_scans_match_scalar_on_all_platforms_and_tail_residues() {
    for platform in scr::all() {
        for pattern in [WeightPattern::Uniform, WeightPattern::Decrease] {
            // One chain size per residue class of 4: full blocks only
            // (n = 8) and every partial-tail shape (9, 10, 11), plus the
            // degenerate sizes where no scan ever fills a single block.
            for n in [1usize, 2, 3, 8, 9, 10, 11] {
                let s = Scenario::paper_setup(&platform, &pattern, n, 25_000.0).unwrap();
                for options in [PartialOptions::paper_exact(), PartialOptions::refined()] {
                    let (vectorized, scalar) = solve_both(&s, options);
                    let context =
                        format!("{} / {} / n={n} / {options:?}", platform.name, pattern.name());
                    assert_paths_agree(&vectorized, &scalar, &context);
                }
            }
        }
    }
}

proptest! {
    /// Random chains and error rates: the blocked and scalar scans agree bit
    /// for bit, whatever the pruning landscape looks like.
    #[test]
    fn blocked_scans_match_scalar_on_random_scenarios(
        weights in proptest::collection::vec(1.0f64..5_000.0, 1..14),
        lambda_f in 1e-9f64..1e-4,
        lambda_s in 1e-9f64..1e-4,
    ) {
        let platform = Platform::new("random", 8, lambda_f, lambda_s, 120.0, 12.0).unwrap();
        let costs = ResilienceCosts::paper_defaults(&platform);
        let s = Scenario::new(TaskChain::from_weights(weights).unwrap(), platform, costs).unwrap();
        let (vectorized, scalar) = solve_both(&s, PartialOptions::paper_exact());
        prop_assert_eq!(
            vectorized.expected_makespan.to_bits(),
            scalar.expected_makespan.to_bits()
        );
        prop_assert_eq!(&vectorized.schedule, &scalar.schedule);
        prop_assert_eq!(
            vectorized.stats.candidates_examined,
            scalar.stats.candidates_examined
        );
        prop_assert_eq!(vectorized.stats.table_entries, scalar.stats.table_entries);
    }
}
