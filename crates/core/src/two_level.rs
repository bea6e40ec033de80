//! The guaranteed-verification dynamic programs of §III-A:
//! `A_DMV*` (two checkpoint levels) and its restriction `A_DV*` (single level).
//!
//! The algorithm stacks three dynamic-programming levels:
//!
//! 1. `Edisk(d2)`  — optimal placement of disk checkpoints;
//! 2. `Emem(d1, m2)` — optimal placement of memory checkpoints between two
//!    disk checkpoints;
//! 3. `Everif(d1, m1, v2)` — optimal placement of guaranteed verifications
//!    between two memory checkpoints;
//!
//! with the closed-form segment expectation `E(d1, m1, v1, v2)` (Eq. (4),
//! [`crate::segment::SegmentCalculator::guaranteed_segment`]) at the leaves.
//!
//! `A_DV*` is obtained by forbidding free-standing memory checkpoints: the
//! `Emem` minimisation is restricted to `m1 = d1`, so memory checkpoints exist
//! only where disk checkpoints are taken (as the paper's single-level baseline
//! does).
//!
//! Complexity: `O(n⁴)` time and `O(n³)` memory for `A_DMV*`; `O(n³)` time and
//! `O(n²)` memory for `A_DV*` (the `Everif` table collapses to `m1 = d1` and
//! is allocated as a single-row slice).
//!
//! The `Emem`/`Everif` levels are **sharded across disk-segment slices**: for
//! a fixed predecessor disk checkpoint `d1`, the `Emem(d1, ·)` row and the
//! `Everif(d1, ·, ·)` sub-table read only same-`d1` entries, so every slice
//! is computed independently on the work-stealing pool ([`rayon`]) and the
//! sequential `Edisk` level runs over the finished slices.
//!
//! The slice kernel itself ([`fill_disk_slice`]) is candidate-pruned: the
//! `v1` scan runs right-to-left over a contiguous `Everif` row and breaks out
//! as soon as the sound lower bound `W_{v1,m2} + V*` on the remaining
//! candidates exceeds the running best (see DESIGN.md §4 for the soundness
//! argument).  Pruned candidates provably cannot improve the strict minimum,
//! so values *and argmins* — and therefore schedules — are bit-identical to
//! the exhaustive scan ([`TwoLevelOptions::without_pruning`]) at any thread
//! count.  The kernel also fills columns incrementally (`from_m2`), which is
//! what [`crate::Engine`]'s extension route uses to extend finished tables
//! from `n` to `n' > n`.

use crate::arena::TableArena;
use crate::dp::{self, DiskSlice, DpTables, NO_CHOICE};
use crate::segment::SegmentCalculator;
use crate::simd_scan::{self, ScanCounters};
use crate::solution::{DpStatistics, Solution};
use chain2l_model::{Action, Scenario, Schedule};
use rayon::prelude::*;
use wide_lite::f64x4;

/// Options controlling the guaranteed-verification dynamic program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoLevelOptions {
    /// When `false`, memory checkpoints may only coincide with disk
    /// checkpoints: this yields the single-level algorithm `A_DV*`.
    pub allow_interior_memory_checkpoints: bool,
    /// When `true` (the default), the `v1` scans break out early on the sound
    /// lower bound `W + V*`; results are bit-identical either way.
    pub prune: bool,
}

impl Default for TwoLevelOptions {
    fn default() -> Self {
        Self::two_level()
    }
}

impl TwoLevelOptions {
    /// Options for the two-level algorithm `A_DMV*` (the default).
    pub fn two_level() -> Self {
        Self { allow_interior_memory_checkpoints: true, prune: true }
    }

    /// Options for the single-level algorithm `A_DV*`.
    pub fn single_level() -> Self {
        Self { allow_interior_memory_checkpoints: false, prune: true }
    }

    /// Disables lower-bound pruning (the exhaustive reference kernel used by
    /// the equivalence tests and the candidate-count benchmarks).
    pub fn without_pruning(mut self) -> Self {
        self.prune = false;
        self
    }
}

/// Number of `Everif` rows a slice needs: the full `m1 ∈ d1..n` band, or the
/// single `m1 = d1` row for `A_DV*`.
fn slice_rows(n: usize, d1: usize, options: TwoLevelOptions) -> usize {
    if options.allow_interior_memory_checkpoints {
        n - d1
    } else {
        1
    }
}

/// Runs the §III-A dynamic program on `scenario` and returns the optimal
/// expected makespan together with the reconstructed schedule.
pub fn optimize_two_level(scenario: &Scenario, options: TwoLevelOptions) -> Solution {
    let n = scenario.task_count();
    let calc = SegmentCalculator::new(scenario);
    let arena = TableArena::new();
    let tables = compute_tables(&calc, n, options, &arena);
    let schedule = reconstruct(&tables, n);
    let expected_makespan = tables.edisk[n];
    let stats = DpStatistics {
        table_entries: tables.finalized_entries(),
        candidates_examined: tables.candidates,
        simd_blocks: tables.scan.simd_blocks,
        scalar_fallbacks: tables.scan.scalar_fallbacks,
    };
    Solution::new(expected_makespan, schedule, scenario, stats)
}

/// Fills the `Emem(d1, ·)` / `Everif(d1, ·, ·)` slice columns
/// `from_m2..=n` for one fixed `d1`.
///
/// A cold solve passes `from_m2 = d1 + 1`; the incremental solver passes
/// `old_n + 1` to extend a finished slice.  Either way each column is the
/// unmodified sequential recurrence (the pruning break only skips candidates
/// that provably cannot beat the running strict minimum), so results are
/// bit-identical to the exhaustive single-threaded DP.
pub(crate) fn fill_disk_slice(
    calc: &SegmentCalculator<'_>,
    n: usize,
    d1: usize,
    options: TwoLevelOptions,
    slice: &mut DiskSlice,
    from_m2: usize,
    arena: &TableArena,
) {
    let prune = options.prune;
    let simd = simd_scan::simd_enabled();
    let v_star = calc.v_star();
    let c_mem = calc.scenario().costs.memory_checkpoint;
    let rd = calc.disk_recovery(d1);
    let lf = calc.lambda_fail_stop();
    let lc = calc.lambda_combined();
    // Tight single-segment quadratic floor: exp_s·em1fol ≥ w + (λs + λf/2)·w²
    // (DESIGN.md §4).
    let quad_coef = calc.lambda_silent() + 0.5 * lf;
    let prefix = calc.prefix_weights();
    // Per-column argmin staging for the deferred write-back (DESIGN.md §11).
    let mut choice_col = arena.take_u32(n + 1, NO_CHOICE);
    let mut scan = ScanCounters::default();
    let mut candidates = 0u64;
    // Finite value cells this pass writes (`DiskSlice::entries`).
    let mut written = 0usize;

    if from_m2 == d1 + 1 {
        slice.emem[d1] = 0.0;
        written += 1;
    }
    for m2 in from_m2..=n {
        let col = calc.interval_col(m2);
        let w_m2 = prefix[m2];
        // The candidate last memory checkpoints m1 for Emem(d1, m2).
        let m1_end = if options.allow_interior_memory_checkpoints { m2 } else { d1 + 1 };
        let mut best_mem = f64::INFINITY;
        let mut best_m1 = NO_CHOICE;
        // The newest row's diagonal `Everif(d1, m2 − 1, m2 − 1)` is first
        // written in this column.
        if m1_end == m2 {
            written += 1;
        }
        for m1 in d1..m1_end {
            let emem_left = slice.emem[m1];
            debug_assert!(emem_left.is_finite(), "Emem({d1},{m1}) not computed");
            slice.everif.set(m1, m1, 0.0);
            let a = rd + emem_left;
            let rm = calc.memory_recovery(m1);

            // Everif(d1, m1, m2): place guaranteed verifications between the
            // memory checkpoints at m1 and m2.  The scan runs right-to-left
            // (short candidate segments first) with a non-strict minimum,
            // which selects the same (value, argmin) pair as the exhaustive
            // left-to-right strict scan, doubly pruned (DESIGN.md §4):
            //
            // * break — every candidate at or left of v1 costs at least the
            //   span's loaded work plus the tight quadratic re-execution
            //   floor of its last segment plus one V*, and that floor only
            //   grows as v1 moves left;
            // * skip — with the exact left cost known, the candidate's last
            //   segment costs at least its loaded work, its quadratic floor,
            //   the left re-execution `λ_c·W_tail·left` and V*.
            //
            // Every operand is re-sliced to the scan range `m1..m2` so the
            // loop walks contiguous value rows with the bounds checks
            // elided; the arithmetic is the exact expression of
            // `IntervalCol::guaranteed_segment_at`, in the same order, so
            // the flat scan stays bit-identical to the scalar closed form.
            let mut best_verif = f64::INFINITY;
            let mut best_v1 = NO_CHOICE;
            let load_a = 1.0 + lf * a;
            let span_floor = (w_m2 - prefix[m1]) * load_a + v_star;
            // The packed row starts at column m1: element `off` is v1 = m1 + off.
            let left_values = &slice.everif.row(m1)[..m2 - m1];
            let prefix_w = &prefix[m1..m2];
            let exp_s = &col.exp_s[m1..m2];
            let em1_f = &col.em1_f[m1..m2];
            let em1_s = &col.em1_s[m1..m2];
            let em1_fs = &col.em1_fs[m1..m2];
            let em1_fol = &col.em1_f_over_lambda[m1..m2];
            let len = left_values.len();
            #[cfg(debug_assertions)]
            for (off, left) in left_values.iter().enumerate() {
                debug_assert!(left.is_finite(), "Everif({d1},{m1},{}) not computed", m1 + off);
            }
            let mut hi = len;
            let mut stopped = false;
            if simd && prune {
                // Blocked descending scan (DESIGN.md §11): each 4-lane block
                // evaluates the break floor and the skip bound branchlessly
                // with the exact scalar grouping.  A block where every lane's
                // floor stays at or below the incumbent *and* every lane's
                // skip bound exceeds it is rejected wholesale — no lane would
                // have evaluated, so the incumbent cannot change mid-block
                // and the rejection equals the sequential skip set exactly.
                // Any other block resolves per lane in descending order
                // against the running incumbent, reusing the precomputed
                // lane bounds and vector-evaluated closed forms (bitwise
                // equal to the scalar expressions, independent of the
                // running best).
                let v_w_m2 = f64x4::splat(w_m2);
                let v_quad_coef = f64x4::splat(quad_coef);
                let v_load_a = f64x4::splat(load_a);
                let v_lc = f64x4::splat(lc);
                let v_v_star = f64x4::splat(v_star);
                let v_one = f64x4::splat(1.0);
                let v_a = f64x4::splat(a);
                let v_rm = f64x4::splat(rm);
                'blocks: while hi >= f64x4::LANES {
                    let start = hi - f64x4::LANES;
                    let w_tail = v_w_m2 - f64x4::from_slice(&prefix_w[start..]);
                    let quad = v_quad_coef * w_tail * w_tail;
                    let left = f64x4::from_slice(&left_values[start..]);
                    let skip_bound =
                        left * (v_one + v_lc * w_tail) + w_tail * v_load_a + quad + v_v_star;
                    // All-lanes tests as plain float compares — see
                    // `epartial_interval`.  In this descending scan `w_tail`,
                    // and with it `quad`, is largest in lane 0, so "no lane
                    // breaks" is one compare on the bottom lane.
                    if span_floor + quad.lane(0) <= best_verif
                        && skip_bound.reduce_min() > best_verif
                    {
                        scan.simd_blocks += 1;
                        hi = start;
                        continue;
                    }
                    scan.scalar_fallbacks += 1;
                    // Vector-evaluate the closed form for all four lanes up
                    // front — a pure function of the offset in the exact
                    // scalar grouping; surviving lanes read a bit-identical
                    // candidate value, rejected lanes discard theirs.
                    let exp = f64x4::from_slice(&exp_s[start..]);
                    let seg = exp * (f64x4::from_slice(&em1_fol[start..]) + v_v_star)
                        + exp * f64x4::from_slice(&em1_f[start..]) * v_a
                        + f64x4::from_slice(&em1_fs[start..]) * left
                        + f64x4::from_slice(&em1_s[start..]) * v_rm;
                    let lane_cand = (left + seg).to_array();
                    let lane_quad = quad.to_array();
                    let lane_skip = skip_bound.to_array();
                    for l in (0..f64x4::LANES).rev() {
                        if span_floor + lane_quad[l] > best_verif {
                            stopped = true;
                            break 'blocks;
                        }
                        if lane_skip[l] > best_verif {
                            continue;
                        }
                        candidates += 1;
                        let cand = lane_cand[l];
                        if cand <= best_verif {
                            best_verif = cand;
                            best_v1 = (m1 + start + l) as u32;
                        }
                    }
                    hi = start;
                }
            }
            // Scalar path: the blocked scan's low-end remainder, the
            // exhaustive reference kernel, and the `CHAIN2L_NO_SIMD` hatch.
            if stopped {
                hi = 0;
            }
            for off in (0..hi).rev() {
                let w_tail = w_m2 - prefix_w[off];
                let quad = quad_coef * w_tail * w_tail;
                if prune && span_floor + quad > best_verif {
                    break;
                }
                let left = left_values[off];
                if prune
                    && left * (1.0 + lc * w_tail) + w_tail * load_a + quad + v_star > best_verif
                {
                    continue;
                }
                candidates += 1;
                let seg = exp_s[off] * (em1_fol[off] + v_star)
                    + exp_s[off] * em1_f[off] * a
                    + em1_fs[off] * left
                    + em1_s[off] * rm;
                let cand = left + seg;
                if cand <= best_verif {
                    best_verif = cand;
                    best_v1 = (m1 + off) as u32;
                }
            }
            slice.everif.set(m1, m2, best_verif);
            written += usize::from(best_verif.is_finite());
            choice_col[m1] = best_v1;

            // Candidate for Emem(d1, m2): last memory checkpoint at m1.
            candidates += 1;
            let cand = emem_left + best_verif + c_mem;
            if cand < best_mem {
                best_mem = cand;
                best_m1 = m1 as u32;
            }
        }
        // Deferred argmin write-back (DESIGN.md §11): the `u32` argmin plane
        // is written once per finalized column.
        slice.everif_choice.write_column(m2, d1, &choice_col[d1..m1_end]);
        slice.emem[m2] = best_mem;
        slice.emem_choice[m2] = best_m1;
        written += usize::from(best_mem.is_finite());
    }
    slice.candidates += candidates;
    slice.scan.add(scan);
    slice.entries += written;
    arena.give_u32(choice_col);
}

/// Fills the three DP levels: the per-`d1` slices in parallel (their planes
/// checked out of `arena`), then the sequential `Edisk` level over the
/// finished slices.
pub(crate) fn compute_tables(
    calc: &SegmentCalculator<'_>,
    n: usize,
    options: TwoLevelOptions,
    arena: &TableArena,
) -> DpTables {
    let slices: Vec<DiskSlice> = (0..n)
        .into_par_iter()
        .map(|d1| {
            let mut slice = DiskSlice::new_in(arena, n, d1, slice_rows(n, d1, options));
            fill_disk_slice(calc, n, d1, options, &mut slice, d1 + 1, arena);
            slice
        })
        .collect();
    dp::finish_tables(
        arena,
        calc.scenario().costs.disk_checkpoint,
        slices,
        n,
        0,
        ScanCounters::default(),
    )
}

/// Extends finished tables from `old_n` to `new_n` tasks, reusing every
/// computed column: existing slices grow in place and fill only columns
/// `old_n + 1..=new_n` (batched over the pool with [`par_chunks_mut`]),
/// new slices `d1 ∈ old_n..new_n` are filled cold from `arena`, and the
/// cheap `Edisk` level is recomputed.  Requires the task-weight prefix to be
/// unchanged; the resulting tables are bit-identical to a cold solve at
/// `new_n`.
///
/// [`par_chunks_mut`]: rayon::prelude::ParallelSliceMut::par_chunks_mut
pub(crate) fn extend_tables(
    calc: &SegmentCalculator<'_>,
    tables: &mut DpTables,
    old_n: usize,
    new_n: usize,
    options: TwoLevelOptions,
    arena: &TableArena,
) {
    dp::extend_slices(
        arena,
        &mut tables.slices,
        old_n,
        new_n,
        |n, d1| slice_rows(n, d1, options),
        |d1, slice, from_m2| fill_disk_slice(calc, new_n, d1, options, slice, from_m2, arena),
    );
    dp::refresh_edisk(calc.scenario().costs.disk_checkpoint, tables, new_n);
}

/// Walks the argmin tables backwards and marks the chosen actions.
pub(crate) fn reconstruct(t: &DpTables, n: usize) -> Schedule {
    let mut schedule = Schedule::empty(n);

    // Disk checkpoints: follow Edisk choices from n down to 0.
    let mut disk_positions = Vec::new();
    let mut d2 = n;
    while d2 > 0 {
        disk_positions.push(d2);
        debug_assert!(t.edisk_choice[d2] != NO_CHOICE, "missing Edisk choice");
        d2 = t.edisk_choice[d2] as usize;
    }
    disk_positions.reverse();

    // Memory checkpoints inside each disk segment (d1, d2].
    let mut prev_disk = 0usize;
    for &disk in &disk_positions {
        let d1 = prev_disk;
        // Collect memory checkpoint positions m with d1 < m <= disk by
        // following Emem choices from m2 = disk down to d1.
        let slice = &t.slices[d1];
        let mut mem_positions = Vec::new();
        let mut m2 = disk;
        while m2 > d1 {
            mem_positions.push(m2);
            let m1 = slice.emem_choice[m2];
            debug_assert!(m1 != NO_CHOICE, "missing Emem choice at ({d1},{m2})");
            m2 = m1 as usize;
        }
        mem_positions.reverse();

        // Guaranteed verifications inside each memory segment (m1, m2].
        let mut prev_mem = d1;
        for &mem in &mem_positions {
            let m1 = prev_mem;
            let mut verif_positions = Vec::new();
            let mut v2 = mem;
            while v2 > m1 {
                verif_positions.push(v2);
                let v1 = slice.everif_choice.get(m1, v2);
                debug_assert!(v1 != NO_CHOICE, "missing Everif choice at ({d1},{m1},{v2})");
                v2 = v1 as usize;
            }
            for &v in &verif_positions {
                schedule.set_action(v, Action::GuaranteedVerification);
            }
            schedule.set_action(mem, Action::MemoryCheckpoint);
            prev_mem = mem;
        }
        schedule.set_action(disk, Action::DiskCheckpoint);
        prev_disk = disk;
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain2l_model::math::approx_eq;
    use chain2l_model::pattern::WeightPattern;
    use chain2l_model::platform::{scr, Platform};
    use chain2l_model::{ResilienceCosts, Scenario};

    fn paper_scenario(platform: &Platform, pattern: &WeightPattern, n: usize) -> Scenario {
        Scenario::paper_setup(platform, pattern, n, 25_000.0).unwrap()
    }

    #[test]
    fn single_task_places_only_the_terminal_checkpoint() {
        let s = paper_scenario(&scr::hera(), &WeightPattern::Uniform, 1);
        let sol = optimize_two_level(&s, TwoLevelOptions::two_level());
        assert_eq!(sol.schedule.disk_checkpoint_positions(), vec![1]);
        assert_eq!(sol.schedule.memory_checkpoint_positions(), vec![1]);
        // Expected makespan is at least W + V* + C_M + C_D.
        let floor = 25_000.0 + 15.4 + 15.4 + 300.0;
        assert!(sol.expected_makespan >= floor);
        // ... and not more than a few percent above for Hera's rates.
        assert!(sol.expected_makespan < 1.2 * floor);
    }

    #[test]
    fn schedule_is_valid_and_terminal_action_is_disk_checkpoint() {
        for platform in scr::all() {
            for n in [1usize, 2, 5, 17, 50] {
                let s = paper_scenario(&platform, &WeightPattern::Uniform, n);
                let sol = optimize_two_level(&s, TwoLevelOptions::two_level());
                sol.schedule.validate(&s.chain).unwrap();
                assert_eq!(sol.schedule.action(n), Action::DiskCheckpoint);
                assert!(sol.expected_makespan.is_finite());
                assert!(sol.expected_makespan >= s.error_free_time());
            }
        }
    }

    #[test]
    fn two_level_never_worse_than_single_level() {
        for platform in scr::all() {
            for n in [2usize, 5, 10, 25, 50] {
                let s = paper_scenario(&platform, &WeightPattern::Uniform, n);
                let two = optimize_two_level(&s, TwoLevelOptions::two_level());
                let one = optimize_two_level(&s, TwoLevelOptions::single_level());
                assert!(
                    two.expected_makespan <= one.expected_makespan + 1e-9,
                    "{} n={n}: ADMV*={} > ADV*={}",
                    platform.name,
                    two.expected_makespan,
                    one.expected_makespan
                );
            }
        }
    }

    #[test]
    fn two_level_strictly_better_on_hera_with_50_tasks() {
        // Paper §IV reports ≈2 % improvement on Hera (Uniform, n = 50).
        let s = paper_scenario(&scr::hera(), &WeightPattern::Uniform, 50);
        let two = optimize_two_level(&s, TwoLevelOptions::two_level());
        let one = optimize_two_level(&s, TwoLevelOptions::single_level());
        let gain = (one.expected_makespan - two.expected_makespan) / one.expected_makespan;
        assert!(gain > 0.005, "gain = {gain}");
        assert!(gain < 0.10, "gain = {gain}");
    }

    #[test]
    fn single_level_places_memory_checkpoints_only_at_disk_checkpoints() {
        for platform in scr::all() {
            let s = paper_scenario(&platform, &WeightPattern::Uniform, 40);
            let sol = optimize_two_level(&s, TwoLevelOptions::single_level());
            assert_eq!(
                sol.schedule.memory_checkpoint_positions(),
                sol.schedule.disk_checkpoint_positions(),
                "{}",
                platform.name
            );
            assert!(sol.schedule.partial_verification_positions().is_empty());
        }
    }

    #[test]
    fn two_level_uses_more_memory_than_disk_checkpoints_on_hera() {
        // Figure 5 row 1: ADMV* places many memory checkpoints but few disk ones.
        let s = paper_scenario(&scr::hera(), &WeightPattern::Uniform, 50);
        let sol = optimize_two_level(&s, TwoLevelOptions::two_level());
        let counts = sol.schedule.counts();
        assert!(counts.memory_checkpoints > counts.disk_checkpoints);
        assert!(counts.disk_checkpoints <= 5, "{counts:?}");
        assert!(counts.guaranteed_verifications >= counts.memory_checkpoints);
    }

    #[test]
    fn no_errors_means_no_interior_actions() {
        // With zero error rates the optimum is to never checkpoint or verify
        // before the mandatory terminal actions.
        let platform = Platform::new("ideal", 1, 0.0, 0.0, 300.0, 15.0).unwrap();
        let s = Scenario::new(
            WeightPattern::Uniform.generate(20, 25_000.0).unwrap(),
            platform.clone(),
            ResilienceCosts::paper_defaults(&platform),
        )
        .unwrap();
        let sol = optimize_two_level(&s, TwoLevelOptions::two_level());
        assert_eq!(sol.schedule.guaranteed_verification_positions(), vec![20]);
        assert_eq!(sol.schedule.disk_checkpoint_positions(), vec![20]);
        assert!(approx_eq(sol.expected_makespan, 25_000.0 + 15.0 + 15.0 + 300.0, 1e-9));
    }

    #[test]
    fn huge_error_rates_force_frequent_checkpoints() {
        // With an MTBF comparable to a single task, the optimizer must place
        // many interior actions.
        let platform = Platform::new("flaky", 1, 1e-3, 1e-3, 10.0, 1.0).unwrap();
        let s = Scenario::new(
            WeightPattern::Uniform.generate(20, 10_000.0).unwrap(),
            platform.clone(),
            ResilienceCosts::paper_defaults(&platform),
        )
        .unwrap();
        let sol = optimize_two_level(&s, TwoLevelOptions::two_level());
        assert!(sol.schedule.counts().memory_checkpoints >= 10, "{:?}", sol.schedule.counts());
        assert!(sol.expected_makespan > 10_000.0);
    }

    #[test]
    fn expected_makespan_trends_down_with_more_tasks_on_hera() {
        // Figure 5 (first column): with a fixed total weight, finer task
        // granularity gives the optimizer more placement freedom, so the
        // makespan trends down as n grows and flattens out.  (It is not
        // strictly monotonic: the boundary sets for different n are not
        // nested, so tiny upticks — well below 0.1 % — do occur, exactly as in
        // the paper's plots.)
        let mut prev = f64::INFINITY;
        let mut series = Vec::new();
        for n in [5usize, 10, 20, 30, 40, 50] {
            let s = paper_scenario(&scr::hera(), &WeightPattern::Uniform, n);
            let sol = optimize_two_level(&s, TwoLevelOptions::two_level());
            assert!(
                sol.expected_makespan <= prev * 1.001,
                "n={n}: {} ≫ {prev}",
                sol.expected_makespan
            );
            series.push(sol.expected_makespan);
            prev = sol.expected_makespan;
        }
        // The coarse end of the curve is clearly above the fine end.
        assert!(series[0] > *series.last().unwrap() + 50.0, "{series:?}");
    }

    #[test]
    fn normalized_makespan_on_hera_matches_paper_range() {
        // Figure 5 row 1: the normalized makespan for ADMV* at n = 50 on Hera
        // is ≈ 1.03; at n = 5 it is ≈ 1.06..1.12.
        let s = paper_scenario(&scr::hera(), &WeightPattern::Uniform, 50);
        let sol = optimize_two_level(&s, TwoLevelOptions::two_level());
        let norm = sol.expected_makespan / s.error_free_time();
        assert!(norm > 1.01 && norm < 1.06, "normalized = {norm}");
    }

    #[test]
    fn decrease_pattern_checkpoints_the_large_head_tasks() {
        // Figure 7: with quadratically decreasing weights, the large tasks at
        // the head of the chain attract the memory checkpoints.
        let s = paper_scenario(&scr::hera(), &WeightPattern::Decrease, 50);
        let sol = optimize_two_level(&s, TwoLevelOptions::two_level());
        let mems = sol.schedule.memory_checkpoint_positions();
        assert!(!mems.is_empty());
        // More memory checkpoints in the first half than in the second half
        // (excluding the mandatory terminal one).
        let first_half = mems.iter().filter(|&&m| m <= 25).count();
        let second_half = mems.iter().filter(|&&m| m > 25 && m < 50).count();
        assert!(
            first_half >= second_half,
            "first half {first_half} < second half {second_half}: {mems:?}"
        );
    }

    #[test]
    fn pruned_and_unpruned_kernels_are_bit_identical() {
        for platform in scr::all() {
            for n in [1usize, 7, 25] {
                let s = paper_scenario(&platform, &WeightPattern::Uniform, n);
                for options in [TwoLevelOptions::two_level(), TwoLevelOptions::single_level()] {
                    let pruned = optimize_two_level(&s, options);
                    let exhaustive = optimize_two_level(&s, options.without_pruning());
                    assert_eq!(
                        pruned.expected_makespan.to_bits(),
                        exhaustive.expected_makespan.to_bits(),
                        "{} n={n}",
                        platform.name
                    );
                    assert_eq!(pruned.schedule, exhaustive.schedule, "{} n={n}", platform.name);
                    assert!(
                        pruned.stats.candidates_examined <= exhaustive.stats.candidates_examined
                    );
                }
            }
        }
    }

    #[test]
    fn pruning_cuts_examined_candidates_on_large_chains() {
        let s = paper_scenario(&scr::hera(), &WeightPattern::Uniform, 50);
        let pruned = optimize_two_level(&s, TwoLevelOptions::two_level());
        let exhaustive = optimize_two_level(&s, TwoLevelOptions::two_level().without_pruning());
        assert!(
            pruned.stats.candidates_examined * 2 < exhaustive.stats.candidates_examined,
            "pruned {} vs exhaustive {}",
            pruned.stats.candidates_examined,
            exhaustive.stats.candidates_examined
        );
    }

    #[test]
    fn extend_tables_matches_cold_solve_bit_for_bit() {
        let platform = scr::atlas();
        // A prefix-stable chain: fixed per-task weight.
        let chain = |n: usize| chain2l_model::TaskChain::from_weights(vec![500.0; n]).unwrap();
        let costs = ResilienceCosts::paper_defaults(&platform);
        let small = Scenario::new(chain(12), platform.clone(), costs).unwrap();
        let large = Scenario::new(chain(30), platform.clone(), costs).unwrap();
        let arena = TableArena::new();
        for options in [TwoLevelOptions::two_level(), TwoLevelOptions::single_level()] {
            let calc_small = SegmentCalculator::new(&small);
            let mut tables = compute_tables(&calc_small, 12, options, &arena);
            let calc_large = SegmentCalculator::new(&large);
            extend_tables(&calc_large, &mut tables, 12, 30, options, &arena);
            let cold = compute_tables(&calc_large, 30, options, &arena);
            assert_eq!(tables.edisk.len(), cold.edisk.len());
            for (a, b) in tables.edisk.iter().zip(&cold.edisk) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(tables.edisk_choice, cold.edisk_choice);
            assert_eq!(tables.candidates, cold.candidates);
            assert_eq!(reconstruct(&tables, 30), reconstruct(&cold, 30));
            assert_eq!(tables.finalized_entries(), cold.finalized_entries());
        }
    }

    #[test]
    fn statistics_count_examined_candidates_and_actual_allocations() {
        let n = 20;
        let s = paper_scenario(&scr::hera(), &WeightPattern::Uniform, n);
        let two = optimize_two_level(&s, TwoLevelOptions::two_level());
        let one = optimize_two_level(&s, TwoLevelOptions::single_level());
        // Both options examine candidates (v1, m1 and d1 positions).
        assert!(two.stats.candidates_examined > 0);
        assert!(one.stats.candidates_examined > 0);
        assert!(
            one.stats.candidates_examined < two.stats.candidates_examined,
            "A_DV* examines fewer candidates: {} vs {}",
            one.stats.candidates_examined,
            two.stats.candidates_examined
        );
        // table_entries counts only finalized (actually written) cells: the
        // A_DV* Everif slices collapse to the m1 = d1 plane and every slice
        // is triangular, far below the old (n+1)^3 book-keeping.
        let cube = (n + 1) * (n + 1) * (n + 1);
        assert!(one.stats.table_entries < two.stats.table_entries);
        assert!(two.stats.table_entries < cube, "{} >= {}", two.stats.table_entries, cube);
        // A_DV*: slice d1 finalizes n−d1+1 Everif and n−d1+1 Emem entries,
        // plus the n+1 Edisk entries: 2·Σ_{d1=0}^{n-1}(n−d1+1) + n+1.
        let per_level: usize = (0..n).map(|d1| n - d1 + 1).sum();
        assert_eq!(one.stats.table_entries, 2 * per_level + (n + 1));
    }

    #[test]
    fn options_constructors() {
        assert!(TwoLevelOptions::two_level().allow_interior_memory_checkpoints);
        assert!(!TwoLevelOptions::single_level().allow_interior_memory_checkpoints);
        assert_eq!(TwoLevelOptions::default(), TwoLevelOptions::two_level());
        assert!(TwoLevelOptions::two_level().prune);
        assert!(!TwoLevelOptions::two_level().without_pruning().prune);
    }
}
