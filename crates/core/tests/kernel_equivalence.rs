//! Kernel-equivalence suite: the candidate-pruned kernels and the engine's
//! reuse and extension routes must be **bit-identical** to the unpruned
//! sequential dynamic programs — same expected makespans (to the bit), same
//! schedules, same finalized table-entry counts — across every platform,
//! weight pattern and chain size, while examining no more candidates than
//! the exhaustive scans.

use chain2l_core::{
    optimize, optimize_two_level, optimize_with_partials, Algorithm, Engine, EngineStats,
    PartialOptions, Solution, TwoLevelOptions,
};
use chain2l_model::pattern::WeightPattern;
use chain2l_model::platform::{scr, Platform};
use chain2l_model::{ResilienceCosts, Scenario, TaskChain};
use proptest::prelude::*;
use std::sync::Arc;

fn patterns() -> [WeightPattern; 3] {
    [WeightPattern::Uniform, WeightPattern::Decrease, WeightPattern::high_low_default()]
}

fn paper_scenario(platform: &Platform, pattern: &WeightPattern, n: usize) -> Scenario {
    Scenario::paper_setup(platform, pattern, n, 25_000.0).unwrap()
}

fn weak_scaling(platform: &Platform, n: usize, w: f64) -> Scenario {
    Scenario::new(
        TaskChain::from_weights(vec![w; n]).unwrap(),
        platform.clone(),
        ResilienceCosts::paper_defaults(platform),
    )
    .unwrap()
}

/// Asserts the strongest equivalence we can observe from the outside:
/// bitwise makespan, schedule (hence every argmin on the optimal path) and
/// finalized table entries.
#[track_caller]
fn assert_bit_identical(a: &Solution, b: &Solution, context: &str) {
    assert_eq!(
        a.expected_makespan.to_bits(),
        b.expected_makespan.to_bits(),
        "makespan differs: {context}"
    );
    assert_eq!(a.schedule, b.schedule, "schedule differs: {context}");
    assert_eq!(a.stats.table_entries, b.stats.table_entries, "entries differ: {context}");
}

#[test]
fn two_level_pruned_equals_exhaustive_on_all_platforms_patterns_and_sizes() {
    for platform in scr::all() {
        for pattern in patterns() {
            for n in [1usize, 2, 10, 50] {
                let s = paper_scenario(&platform, &pattern, n);
                for options in [TwoLevelOptions::two_level(), TwoLevelOptions::single_level()] {
                    let pruned = optimize_two_level(&s, options);
                    let exhaustive = optimize_two_level(&s, options.without_pruning());
                    let context =
                        format!("{} / {} / n={n} / {options:?}", platform.name, pattern.name());
                    assert_bit_identical(&pruned, &exhaustive, &context);
                    assert!(
                        pruned.stats.candidates_examined <= exhaustive.stats.candidates_examined,
                        "{context}"
                    );
                }
            }
        }
    }
}

#[test]
fn partial_pruned_equals_exhaustive_on_all_platforms_patterns_and_sizes() {
    for platform in scr::all() {
        for pattern in patterns() {
            // Paper-exact model at every size including the paper's n = 50;
            // the refined ablation variant on the smaller sizes.
            for n in [1usize, 2, 10, 50] {
                let s = paper_scenario(&platform, &pattern, n);
                let mut variants = vec![PartialOptions::paper_exact()];
                if n <= 10 {
                    variants.push(PartialOptions::refined());
                }
                for options in variants {
                    let pruned = optimize_with_partials(&s, options);
                    let exhaustive = optimize_with_partials(&s, options.without_pruning());
                    let context =
                        format!("{} / {} / n={n} / {options:?}", platform.name, pattern.name());
                    assert_bit_identical(&pruned, &exhaustive, &context);
                    assert!(
                        pruned.stats.candidates_examined <= exhaustive.stats.candidates_examined,
                        "{context}"
                    );
                }
            }
        }
    }
}

/// How the engine served one solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Hit,
    Reused,
    Extended,
    Cold,
}

/// Reads the route of the one solve between two engine snapshots from the
/// counter deltas.
fn route_of(before: &EngineStats, after: &EngineStats) -> Route {
    if after.cache.hits > before.cache.hits {
        Route::Hit
    } else if after.reused > before.reused {
        Route::Reused
    } else if after.extended > before.extended {
        Route::Extended
    } else {
        assert_eq!(after.cold(), before.cold() + 1, "exactly one route per solve");
        Route::Cold
    }
}

/// Solves through `engine`, reporting the route that served the request.
fn solve_routed(engine: &Engine, s: &Scenario, algorithm: Algorithm) -> (Arc<Solution>, Route) {
    let before = engine.stats();
    let solution = engine.solve(s, algorithm);
    (solution, route_of(&before, &engine.stats()))
}

/// Asserts an engine solution against a cold solve of the same scenario:
/// bitwise makespan and schedule on every route, and the DP statistics on
/// every route but reuse (a reused solution reports the statistics of the
/// larger tables it was read from).
#[track_caller]
fn assert_matches_cold(sol: &Solution, route: Route, cold: &Solution, context: &str) {
    assert_eq!(
        sol.expected_makespan.to_bits(),
        cold.expected_makespan.to_bits(),
        "makespan differs: {context}"
    );
    assert_eq!(sol.schedule, cold.schedule, "schedule differs: {context}");
    if route != Route::Reused {
        assert_eq!(sol.stats, cold.stats, "statistics differ: {context}");
    }
}

#[test]
fn extension_equals_cold_solves_for_every_algorithm() {
    // Ascending weak-scaling series: each step extends the previous tables;
    // every point must match a cold pruned solve bit for bit (including the
    // DP statistics — the extension performs exactly the missing work).
    for platform in scr::all() {
        let engine = Engine::new();
        for algorithm in [
            Algorithm::SingleLevel,
            Algorithm::TwoLevel,
            Algorithm::TwoLevelPartial,
            Algorithm::TwoLevelPartialRefined,
        ] {
            for n in [1usize, 2, 10, 50] {
                let s = weak_scaling(&platform, n, 500.0);
                let (sol, route) = solve_routed(&engine, &s, algorithm);
                let cold = optimize(&s, algorithm);
                let context = format!("{} / {algorithm} / n={n}", platform.name);
                let expected = if n == 1 { Route::Cold } else { Route::Extended };
                assert_eq!(route, expected, "{context}");
                assert_matches_cold(&sol, route, &cold, &context);
            }
        }
        let stats = engine.stats();
        assert_eq!(stats.cold(), 4, "{}: one cold solve per algorithm", platform.name);
        assert_eq!(stats.extended, 12, "{}: every other point extends", platform.name);
    }
}

#[test]
fn shrink_reuses_tables_and_matches_cold_solves() {
    let platform = scr::coastal_ssd();
    let engine = Engine::new();
    let (_, route) =
        solve_routed(&engine, &weak_scaling(&platform, 40, 625.0), Algorithm::TwoLevelPartial);
    assert_eq!(route, Route::Cold);
    // Every smaller size is a prefix of the retained tables; the repeated
    // size is a fingerprint already in the cache.
    for (n, expected) in
        [(1usize, Route::Reused), (7, Route::Reused), (23, Route::Reused), (40, Route::Hit)]
    {
        let s = weak_scaling(&platform, n, 625.0);
        let (sol, route) = solve_routed(&engine, &s, Algorithm::TwoLevelPartial);
        assert_eq!(route, expected, "n={n}");
        assert_matches_cold(
            &sol,
            route,
            &optimize(&s, Algorithm::TwoLevelPartial),
            &format!("n={n}"),
        );
    }
    let stats = engine.stats();
    assert_eq!((stats.reused, stats.cache.hits), (3, 1), "{stats:?}");
}

#[test]
fn engine_is_exact_under_interleaved_sizes_and_algorithms() {
    // A messy request mix — shrink, extend, repeat, switch algorithms —
    // must still be bit-identical to cold solves at every step.
    let platform = scr::atlas();
    let engine = Engine::new();
    let steps = [
        (12usize, Route::Cold),
        (5, Route::Reused),
        (20, Route::Extended),
        (20, Route::Hit),
        (3, Route::Reused),
        (33, Route::Extended),
        (8, Route::Reused),
    ];
    for (i, &(n, expected)) in steps.iter().enumerate() {
        for algorithm in [Algorithm::TwoLevel, Algorithm::TwoLevelPartial] {
            let s = weak_scaling(&platform, n, 500.0);
            let (sol, route) = solve_routed(&engine, &s, algorithm);
            let cold = optimize(&s, algorithm);
            let context = format!("step {i}, {algorithm}, n={n}");
            assert_eq!(route, expected, "{context}");
            assert_matches_cold(&sol, route, &cold, &context);
        }
    }
}

fn rates_strategy() -> impl Strategy<Value = (f64, f64)> {
    (1e-9f64..1e-4, 1e-9f64..1e-4)
}

proptest! {
    /// Random chains, random error rates: the pruned kernels and the
    /// exhaustive ones agree bit for bit.
    #[test]
    fn pruned_kernels_match_exhaustive_on_random_scenarios(
        weights in proptest::collection::vec(1.0f64..5_000.0, 1..14),
        rates in rates_strategy(),
    ) {
        let (lambda_f, lambda_s) = rates;
        let platform = Platform::new("random", 8, lambda_f, lambda_s, 120.0, 12.0).unwrap();
        let costs = ResilienceCosts::paper_defaults(&platform);
        let s = Scenario::new(TaskChain::from_weights(weights).unwrap(), platform, costs).unwrap();
        let two = optimize_two_level(&s, TwoLevelOptions::two_level());
        let two_ex = optimize_two_level(&s, TwoLevelOptions::two_level().without_pruning());
        prop_assert_eq!(two.expected_makespan.to_bits(), two_ex.expected_makespan.to_bits());
        prop_assert_eq!(&two.schedule, &two_ex.schedule);
        let full = optimize_with_partials(&s, PartialOptions::paper_exact());
        let full_ex =
            optimize_with_partials(&s, PartialOptions::paper_exact().without_pruning());
        prop_assert_eq!(full.expected_makespan.to_bits(), full_ex.expected_makespan.to_bits());
        prop_assert_eq!(&full.schedule, &full_ex.schedule);
    }

    /// Random scenario sequences through one shared engine — whose arena
    /// recycles every retired table and scratch buffer across solves — are
    /// bit-identical to fresh-allocation solves at every step, whatever the
    /// interleaving of platforms, algorithms and chain sizes.
    #[test]
    fn arena_recycled_engine_solves_match_fresh_allocation_solves(
        steps in proptest::collection::vec((0usize..4, 0usize..4, 1usize..11), 1..7),
    ) {
        let engine = Engine::new();
        let algorithms = [
            Algorithm::SingleLevel,
            Algorithm::TwoLevel,
            Algorithm::TwoLevelPartial,
            Algorithm::TwoLevelPartialRefined,
        ];
        for (step, (platform_index, algorithm_index, n)) in steps.into_iter().enumerate() {
            let platform = scr::all().into_iter().nth(platform_index).unwrap();
            let algorithm = algorithms[algorithm_index];
            // Paper setup fixes the total weight, so different n never share
            // a weight prefix: every distinct size is a cold solve whose
            // tables retire into the arena for the next step to recycle.
            let s = paper_scenario(&platform, &WeightPattern::Uniform, n);
            let sol = engine.solve(&s, algorithm);
            let fresh = optimize(&s, algorithm);
            let context = format!("step {step}: {} / {algorithm} / n={n}", platform.name);
            prop_assert_eq!(
                sol.expected_makespan.to_bits(),
                fresh.expected_makespan.to_bits(),
                "{}",
                &context
            );
            prop_assert_eq!(&sol.schedule, &fresh.schedule, "{}", &context);
            prop_assert_eq!(&sol.stats, &fresh.stats, "{}", &context);
        }
    }

    /// Random prefix-stable extensions: solving the prefix first and then the
    /// full chain through the engine extends the tables and matches the
    /// cold solve.
    #[test]
    fn extension_matches_cold_solve_on_random_chains(
        prefix_weights in proptest::collection::vec(1.0f64..5_000.0, 1..8),
        extra_weights in proptest::collection::vec(1.0f64..5_000.0, 1..8),
    ) {
        let platform = scr::hera();
        let costs = ResilienceCosts::paper_defaults(&platform);
        let mut all = prefix_weights.clone();
        all.extend_from_slice(&extra_weights);
        let small = Scenario::new(
            TaskChain::from_weights(prefix_weights).unwrap(), platform.clone(), costs).unwrap();
        let large = Scenario::new(
            TaskChain::from_weights(all).unwrap(), platform.clone(), costs).unwrap();
        let engine = Engine::new();
        engine.solve(&small, Algorithm::TwoLevelPartial);
        let (sol, route) = solve_routed(&engine, &large, Algorithm::TwoLevelPartial);
        prop_assert_eq!(route, Route::Extended);
        let cold = optimize(&large, Algorithm::TwoLevelPartial);
        prop_assert_eq!(sol.expected_makespan.to_bits(), cold.expected_makespan.to_bits());
        prop_assert_eq!(&sol.schedule, &cold.schedule);
        prop_assert_eq!(&sol.stats, &cold.stats);
    }
}
