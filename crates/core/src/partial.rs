//! The full algorithm `A_DMV` of §III-B: two checkpoint levels, guaranteed
//! verifications *and* partial verifications.
//!
//! The outer structure is the same three-level dynamic program as
//! [`crate::two_level`] (disk checkpoints → memory checkpoints → guaranteed
//! verifications), but the leaf value of a guaranteed-verification interval
//! `(v1, v2]` is no longer the single closed form `E(d1, m1, v1, v2)`: it is
//! `E_partial(d1, m1, v1, p1 = v1, v2)`, itself the result of an inner
//! dynamic program that places partial verifications inside the interval.
//!
//! The inner DP works **right to left** (from `v2` towards `v1`) because the
//! expected downstream loss of an *undetected* silent error, `E_right`,
//! depends on the position of the *next* verification, which is exactly the
//! argmin the DP is computing.  See DESIGN.md §3.3 for the full derivation
//! and for the `PaperExact` / `Refined` tail-accounting discussion.
//!
//! Complexity: `O(n⁶)` time, `O(n³)` memory (the inner per-interval arrays
//! are scratch buffers reused across every interval of a slice).
//!
//! The two outer levels are **sharded across disk-segment slices** exactly as
//! in [`crate::two_level`], and the slice kernel is **candidate-pruned**
//! (DESIGN.md §4):
//!
//! * the `v1` scan is driven by a **hoisted candidate floor**: one shared
//!   `O(span²)` lower-bound DP per `(d1, m2)` column ([`epartial_floor`])
//!   bounds the zero-context inner value of *every* `(m1, m2)` window below,
//!   the exact `Everif` left-context coefficient `em1_fs(v1, m2)` (which
//!   telescopes along every verification chain) and a first-order
//!   `Emem(d1, m1)` term lift the floor into a per-window candidate bound,
//!   and only candidates whose bound reaches an exactly-evaluated seed
//!   candidate run their `O(span²)` exact inner DP;
//! * the innermost `p2` scan seeds its incumbent with the closing candidate,
//!   then *skips* any open candidate whose sound sub-interval floor
//!   (work, tight quadratic re-execution, `V`, first-order detection
//!   latency, all scaled by the exact re-execution factor, plus the exact
//!   tail value) cannot reach the incumbent, and *breaks* outright on the
//!   monotone span floor.
//!
//! Pruned candidates provably cannot improve the strict minimum, so values
//! *and argmins* — and therefore schedules — are bit-identical to the
//! exhaustive kernel ([`PartialOptions::without_pruning`]) at any thread
//! count (see `results/BENCH_dp.json` for the measured candidate and
//! wall-clock reductions).  The kernel fills columns incrementally
//! (`from_m2`), which is what [`crate::Engine`]'s extension route uses to
//! extend finished tables from `n` to `n' > n`.

use crate::arena::TableArena;
use crate::dp::{self, DiskSlice, DpTables, NO_CHOICE};
use crate::segment::{PartialCostModel, SegmentCalculator};
use crate::simd_scan::{self, LaneMin, ScanCounters};
use crate::solution::{DpStatistics, Solution};
use chain2l_model::{Action, Scenario, Schedule};
use rayon::prelude::*;
use wide_lite::f64x4;
/// Options controlling the partial-verification dynamic program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialOptions {
    /// Tail-accounting convention (see [`PartialCostModel`]).
    pub cost_model: PartialCostModel,
    /// When `true` (the default), the kernels use sound lower-bound pruning;
    /// results are bit-identical either way.  Pruning silently disables
    /// itself when the cost model is hostile to the bound (`V > V*`, see
    /// [`SegmentCalculator::pruning_sound`]).
    pub prune: bool,
}

impl Default for PartialOptions {
    fn default() -> Self {
        Self::paper_exact()
    }
}

impl PartialOptions {
    /// The equations exactly as printed in the paper (the default).
    pub fn paper_exact() -> Self {
        Self { cost_model: PartialCostModel::PaperExact, prune: true }
    }

    /// The refined tail accounting (ablation variant).
    pub fn refined() -> Self {
        Self { cost_model: PartialCostModel::Refined, prune: true }
    }

    /// Disables lower-bound pruning (the exhaustive reference kernel used by
    /// the equivalence tests and the candidate-count benchmarks).
    pub fn without_pruning(mut self) -> Self {
        self.prune = false;
        self
    }
}

/// Reusable buffers of the inner `E_partial` DP, sized once per slice fill
/// instead of being reallocated for each of the `O(n³)` intervals.
///
/// Every cell the DP reads within an interval `(v1, v2]` is written earlier
/// in the same run (the recurrence moves right-to-left and only looks right),
/// so the buffers need no clearing between intervals.
pub(crate) struct InnerScratch {
    /// `E_partial(·)` per left boundary.
    epartial: Vec<f64>,
    /// `E_right(·)` per left boundary.
    eright: Vec<f64>,
    /// `next[p]`: optimal position of the verification following `p`.
    next: Vec<u32>,
}

impl InnerScratch {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            epartial: vec![f64::INFINITY; n + 1],
            eright: vec![0.0; n + 1],
            next: vec![NO_CHOICE; n + 1],
        }
    }

    /// Checks the scratch buffers out of `arena` (same initial contents as
    /// [`Self::new`]).
    fn take(arena: &TableArena, n: usize) -> Self {
        Self {
            epartial: arena.take_f64(n + 1, f64::INFINITY),
            eright: arena.take_f64(n + 1, 0.0),
            next: arena.take_u32(n + 1, NO_CHOICE),
        }
    }

    /// Returns the scratch buffers to `arena` for the next slice fill.
    fn release(self, arena: &TableArena) {
        arena.give_f64(self.epartial);
        arena.give_f64(self.eright);
        arena.give_u32(self.next);
    }
}

/// Minimum column span `m2 − d1` at which the shared floor DP pays for
/// itself: below it the column's windows hold fewer exact inner-DP
/// evaluations than the `O(span²)` floor run would cost, and the exhaustive
/// `v1` scans are cheaper outright.
const FLOOR_SPAN_MIN: usize = 5;

/// Minimum window span `m2 − m1` at which the candidate bounds are consulted
/// (narrower windows hold at most two exact inner DPs — nothing to skip that
/// the seed run would not already pay for).
const PREDICT_SPAN_MIN: usize = 3;

/// Relative safety margin of the hoisted candidate floor.
///
/// In real arithmetic every skipped candidate's exact value provably exceeds
/// the exactly-evaluated seed candidate (see [`epartial_floor`] and
/// DESIGN.md §4.3), so it can neither win nor tie the scan's minimum.
/// Floating-point evaluation of the floor and of the seed accumulates a few
/// ulps over `O(span)` DP steps, so a candidate is only skipped when its
/// bound exceeds the seed by this relative margin — far above the float
/// error, far below any real cost separation — which keeps values and
/// argmins bit-identical to the exhaustive kernel.
const PREDICT_MARGIN: f64 = 1e-9;

/// Runs the inner right-to-left DP for the interval `(v1, v2]` and returns
/// `(E_partial(d1, m1, v1, p1 = v1, v2), candidates examined)`; the optimal
/// verification chain is left in `scratch.next`.
///
/// `emem` is `Emem(d1, m1)`, `everif_v1` is `Everif(d1, m1, v1)` — the
/// re-execution costs of the segments to the left, already optimal.
///
/// `simd` selects the 4-lane blocked scan for the pruned inner loop (the
/// exhaustive `prune = false` loop is always scalar — it is the reference
/// kernel).  `record_chain` controls the deferred argmin write-back
/// (DESIGN.md §11): table fills pass `false`, so the `scratch.next` store
/// stream is dropped from the hot loop entirely; schedule reconstruction
/// re-runs the optimal intervals with `true` to materialize the chain.
#[allow(clippy::too_many_arguments)] // DP cell coordinates of the O(n^6) recurrence
fn epartial_interval(
    calc: &SegmentCalculator<'_>,
    d1: usize,
    m1: usize,
    v1: usize,
    v2: usize,
    emem: f64,
    everif_v1: f64,
    model: PartialCostModel,
    prune: bool,
    simd: bool,
    record_chain: bool,
    scratch: &mut InnerScratch,
    counters: &mut ScanCounters,
) -> (f64, u64) {
    debug_assert!(d1 <= m1 && m1 <= v1 && v1 < v2);
    let prefix = calc.prefix_weights();
    // Constants of the open (non-closing) sub-intervals, hoisted out of the
    // innermost loop: both cost models charge the partial cost V and miss
    // probability g there.
    let v_cost = calc.v_partial();
    let g = calc.miss_probability();
    let a = calc.disk_recovery(d1) + emem;
    let miss_rm = (1.0 - g) * calc.memory_recovery(m1);
    // Re-execution factors e^{(λ_s+λ_f) W_{p2,v2}} for the fixed right
    // endpoint v2, contiguous in p2.
    let col = calc.interval_col(v2);
    let mut candidates = 0u64;
    // Block counters in locals — the hot loop must not carry a read-modify-
    // write of `counters` per block; one flush on return.
    let mut n_simd = 0u64;
    let mut n_fallback = 0u64;

    // Base case: at v2 the error (if any) is caught by the guaranteed
    // verification immediately; only a memory recovery is paid.
    scratch.eright[v2] = calc.eright_base(m1);

    let v_star = calc.v_star();
    let ls = calc.lambda_silent();
    // Tight single-interval quadratic floor: exp_s·em1fol ≥ w + (λs + λf/2)·w²
    // (DESIGN.md §4).
    let quad_coef = ls + 0.5 * calc.lambda_fail_stop();
    // Loaded-work factor of the coverage floor: every unit of work in
    // (p1, v2] executes at least once and re-executes the left contexts at
    // the first-order rates (DESIGN.md §4).
    let load = 1.0 + calc.lambda_fail_stop() * a + calc.lambda_combined() * everif_v1;

    // Hoisted constants of the closing candidate and the `E_right` step:
    // the verification cost and detection semantics at the closing
    // guaranteed verification, the correction coefficient of
    // `tail_verification_correction` and the fixed context sum of the
    // closing `E⁻` — all constant across `p1`, so the per-`p1` closing
    // evaluation below is pure column-slice arithmetic replicating
    // `SegmentCalculator::e_minus` / `eright_step` operation for operation.
    let rd = calc.disk_recovery(d1);
    let rm = calc.memory_recovery(m1);
    let (vc_close, g_close) = match model {
        PartialCostModel::PaperExact => (v_cost, g),
        PartialCostModel::Refined => (v_star, 0.0),
    };
    let tail_coef = match model {
        PartialCostModel::PaperExact => v_star - v_cost,
        PartialCostModel::Refined => 0.0,
    };
    let eright_v2 = scratch.eright[v2];
    let close_ctx = (1.0 - g_close) * rm + g_close * eright_v2;

    for p1 in (v1..v2).rev() {
        let row = calc.interval_row(p1);
        let w_p1 = prefix[p1];
        let span_floor = (prefix[v2] - w_p1) * load + v_star;
        // Closing candidate p2 = v2 first: executed once (nothing to its
        // right can trigger a re-execution of it within this interval), plus
        // the guaranteed-verification cost correction.  Seeding the scan
        // with it gives the pruning tests a tight incumbent in the common
        // no-partials-pay case; the tie rules below keep the final
        // (value, argmin) identical to the exhaustive opens-then-closing
        // order.  The transposed column mirrors are exact copies of the
        // row-major cache, so reading them keeps the closing value
        // bit-identical while staying contiguous in `p1`.
        candidates += 1;
        let eminus_closing = col.exp_s[p1] * (col.em1_f_over_lambda[p1] + vc_close)
            + col.exp_s[p1] * col.em1_f[p1] * a
            + col.em1_fs[p1] * everif_v1
            + col.em1_s[p1] * close_ctx;
        let mut best = eminus_closing + col.growth_fs[p1] * tail_coef;
        let mut best_p2 = v2;
        // Open candidates p2 < v2: pure arithmetic over the prefetched row
        // and the scratch tails, doubly pruned (DESIGN.md §4):
        //
        // * skip — the candidate's first sub-interval costs at least its
        //   loaded work, its quadratic re-execution floor, V and the
        //   first-order detection-latency cost `λ_s·w·(miss_rm + g·E_right)`
        //   (exact `E_right` tail), all scaled by the *exact* re-execution
        //   factor, on top of the *exact* tail value `epartial[p2]`; once
        //   the optimal verification spacing is on the board, candidates
        //   beyond it fail this few-flop test and the closed form is never
        //   evaluated;
        // * break — the span's loaded work plus the first sub-interval's
        //   quadratic floor plus the mandatory V* bounds every remaining
        //   candidate (monotone in p2), ending the scan outright.
        //
        // Every operand — the exponential row, the re-execution column, the
        // prefix sums and the scratch tails — is re-sliced to the scan range
        // `p1+1..v2`, so the loop is branch-light arithmetic over contiguous
        // memory with the bounds checks elided.  The candidate expression is
        // the exact arithmetic of `IntervalRow::e_minus_at` in the same
        // order, so the flat scan stays bit-identical to the scalar form.
        let base = p1 + 1;
        let exp_s = &row.exp_s[base..v2];
        let em1_f = &row.em1_f[base..v2];
        let em1_s = &row.em1_s[base..v2];
        let em1_fs = &row.em1_fs[base..v2];
        let em1_fol = &row.em1_f_over_lambda[base..v2];
        let growth = &col.growth_fs[base..v2];
        let prefix_w = &prefix[base..v2];
        let eright = &scratch.eright[base..v2];
        let epartial = &scratch.epartial[base..v2];
        let len = exp_s.len();
        let mut start = 0usize;
        let mut stopped = false;
        if simd && prune {
            // 4-lane blocked scan (DESIGN.md §11).  Every lane always
            // evaluates the *stronger* sub-interval bound — sound on its own
            // because the 2-stream pre-test below is float-monotonically
            // weaker — plus the monotone span floor.  A block whose four
            // bounds all exceed the incumbent, with no lane breaking, is
            // rejected wholesale by two mask tests; no lane of such a block
            // evaluates, so the incumbent cannot change inside it and the
            // entry incumbent equals the sequential running best at every
            // lane — the rejected set is exactly the scalar loop's skip set.
            // Any other block resolves lane-by-lane in ascending order with
            // the original scalar decisions, reusing the lane bounds and the
            // vector-evaluated closed forms (both are bit-identical to the
            // scalar expressions and independent of the running best).
            let v_w_p1 = f64x4::splat(w_p1);
            let v_quad_coef = f64x4::splat(quad_coef);
            let v_load = f64x4::splat(load);
            let v_v_cost = f64x4::splat(v_cost);
            let v_ls = f64x4::splat(ls);
            let v_miss_rm = f64x4::splat(miss_rm);
            let v_g = f64x4::splat(g);
            let v_a = f64x4::splat(a);
            let v_everif_v1 = f64x4::splat(everif_v1);
            'blocks: while start + 4 <= len {
                let er = f64x4::from_slice(&eright[start..]);
                let gr = f64x4::from_slice(&growth[start..]);
                let ep = f64x4::from_slice(&epartial[start..]);
                let w_sub = f64x4::from_slice(&prefix_w[start..]) - v_w_p1;
                let quad = v_quad_coef * w_sub * w_sub;
                let pre = w_sub * v_load + quad + v_v_cost;
                let sub_floor = pre + v_ls * w_sub * (v_miss_rm + v_g * er);
                let sub_total = sub_floor * gr + ep;
                // All-lanes tests as plain float compares, not comparison
                // masks — a mask-and-movemask round trip does not
                // autovectorize.  `quad` is monotone over the block's lanes
                // (prefix weights are non-decreasing, squaring and scaling
                // by a non-negative rate are float-monotone), so "no lane
                // breaks" is one compare on the top lane; the skip test is a
                // `minpd` fold, exact for these NaN-free streams: min > best
                // ⟺ every bound > best.
                if span_floor + quad.lane(3) <= best && sub_total.reduce_min() > best {
                    n_simd += 1;
                    start += 4;
                    continue;
                }
                n_fallback += 1;
                // Vector-evaluate the closed form for all four lanes up
                // front — it is a pure function of the offset (never of the
                // running best), in the exact scalar grouping, so surviving
                // lanes read a bit-identical candidate value and rejected
                // lanes simply discard theirs.
                let exp = f64x4::from_slice(&exp_s[start..]);
                let eminus = exp * (f64x4::from_slice(&em1_fol[start..]) + v_v_cost)
                    + exp * f64x4::from_slice(&em1_f[start..]) * v_a
                    + f64x4::from_slice(&em1_fs[start..]) * v_everif_v1
                    + f64x4::from_slice(&em1_s[start..]) * (v_miss_rm + v_g * er);
                let lane_cand = (eminus * gr + ep).to_array();
                let lane_quad = quad.to_array();
                let lane_total = sub_total.to_array();
                for l in 0..4 {
                    if span_floor + lane_quad[l] > best {
                        stopped = true;
                        break 'blocks;
                    }
                    if lane_total[l] > best {
                        continue;
                    }
                    candidates += 1;
                    let cand = lane_cand[l];
                    if cand < best || (best_p2 == v2 && cand == best) {
                        best = cand;
                        best_p2 = base + start + l;
                    }
                }
                start += 4;
            }
        }
        // Scalar path: the blocked scan's remainder lanes (`len % 4`), the
        // exhaustive reference kernel, and the `CHAIN2L_NO_SIMD` escape hatch.
        if stopped {
            start = len;
        }
        for off in start..len {
            let w_sub = prefix_w[off] - w_p1;
            let quad = quad_coef * w_sub * w_sub;
            if prune {
                if span_floor + quad > best {
                    break;
                }
                // Two-stage skip.  The pre-test drops the detection-latency
                // term and the ≥ 1 re-execution factor, so it reads only the
                // prefix sums and the exact tail (2 streams instead of 4);
                // it is weaker than the full bound *in float arithmetic too*
                // (the dropped term is non-negative, the factor multiplies a
                // non-negative value by ≥ 1, and round-to-nearest is
                // monotone), so every pre-rejected candidate would have been
                // rejected by the full test — counted candidates, values and
                // argmins are unchanged.  The full bound's first three terms
                // re-associate exactly as `pre`, so `pre + latency` is the
                // original expression bit for bit.
                let pre = w_sub * load + quad + v_cost;
                if pre + epartial[off] > best {
                    continue;
                }
                let sub_floor = pre + ls * w_sub * (miss_rm + g * eright[off]);
                if sub_floor * growth[off] + epartial[off] > best {
                    continue;
                }
            }
            candidates += 1;
            let eminus = exp_s[off] * (em1_fol[off] + v_cost)
                + exp_s[off] * em1_f[off] * a
                + em1_fs[off] * everif_v1
                + em1_s[off] * (miss_rm + g * eright[off]);
            let cand = eminus * growth[off] + epartial[off];
            // Tie rules of the exhaustive opens-then-closing scan: the
            // smallest open candidate wins ties among opens, and any open
            // candidate displaces an equal-valued closing incumbent.
            if cand < best || (best_p2 == v2 && cand == best) {
                best = cand;
                best_p2 = base + off;
            }
        }
        scratch.epartial[p1] = best;
        if record_chain {
            scratch.next[p1] = best_p2 as u32;
        }
        // E_right at p1 uses the *optimal* next verification position —
        // `SegmentCalculator::eright_step` flattened onto the already-bound
        // row slices (same operations, same order).
        let (vc_step, g_step) = if best_p2 == v2 { (vc_close, g_close) } else { (v_cost, g) };
        let w_step = prefix[best_p2] - w_p1;
        let pf = row.p_fail[best_p2];
        scratch.eright[p1] = pf * (row.t_lost[best_p2] + rd + emem)
            + (1.0 - pf)
                * (w_step + vc_step + (1.0 - g_step) * rm + g_step * scratch.eright[best_p2]);
    }

    counters.simd_blocks += n_simd;
    counters.scalar_fallbacks += n_fallback;
    (scratch.epartial[v1], candidates)
}

/// The per-column candidate floors shared by every `d1 ≥ 1` disk slice.
///
/// For a fixed column `v2` the floor DP's context terms are identical
/// across all `d1 ≥ 1` — `R_D(d1)` and `R_M(d1)` only distinguish the
/// virtual task `d1 = 0`, and the window-minimal `Emem` context is zero
/// everywhere — and the recurrence only looks right, so the floor values a
/// slice reads (`floor[p1]`, `p1 ≥ d1`) are the same whether the run
/// started at `p1 = d1` or at `p1 = 1`.  One full-range run per column
/// therefore serves every slice, collapsing the floor work from `O(n⁴)`
/// (one run per `(d1, m2)` pair) to `O(n³)` — with bit-identical floor
/// values, hence bit-identical skip decisions and tables.  The `d1 = 0`
/// slice keeps its private runs: its zero recovery costs give it a
/// strictly tighter floor.
pub(crate) struct SharedFloors {
    /// `columns[v2]`, when computed, holds `floor[p1]` for `p1 ∈ 1..v2`
    /// (buffers are full `n + 1` length for direct indexing).
    columns: Vec<Option<Vec<f64>>>,
    /// Candidates examined across every computed column (reported through
    /// `DpTables::floor_candidates` — shared work is counted once, not once
    /// per consuming slice).
    candidates: u64,
    /// Blocked-scan tallies across every computed column (reported through
    /// `DpTables::floor_scan`, same once-only accounting).
    scan: ScanCounters,
}

impl SharedFloors {
    fn empty(n: usize) -> Self {
        Self {
            columns: (0..=n).map(|_| None).collect(),
            candidates: 0,
            scan: ScanCounters::default(),
        }
    }

    fn recycle(self, arena: &TableArena) {
        for column in self.columns.into_iter().flatten() {
            arena.give_f64(column);
        }
    }
}

/// Computes the shared `d1 ≥ 1` floors for every column `m2 ∈ from_m2..=n`
/// that has at least one floor-using slice (`m2 − d1 ≥ FLOOR_SPAN_MIN` for
/// some `d1 ≥ 1`), in parallel on the pool.  Returns an empty set when
/// pruning is off or unsound (the kernels then never consult a floor).
pub(crate) fn compute_shared_floors(
    calc: &SegmentCalculator<'_>,
    n: usize,
    from_m2: usize,
    options: PartialOptions,
    arena: &TableArena,
) -> SharedFloors {
    let mut shared = SharedFloors::empty(n);
    if !(options.prune && calc.pruning_sound()) {
        return shared;
    }
    let start = from_m2.max(FLOOR_SPAN_MIN + 1);
    if start > n {
        return shared;
    }
    let model = options.cost_model;
    let simd = simd_scan::simd_enabled();
    let computed: Vec<(usize, Vec<f64>, u64, ScanCounters)> = (start..=n)
        .into_par_iter()
        .map(|v2| {
            let mut floor = arena.take_f64(n + 1, f64::INFINITY);
            let mut er_lb = arena.take_f64(n + 1, f64::INFINITY);
            let mut scan = ScanCounters::default();
            let candidates =
                epartial_floor(calc, 1, v2, model, simd, &mut floor, &mut er_lb, &mut scan);
            arena.give_f64(er_lb);
            (v2, floor, candidates, scan)
        })
        .collect();
    for (v2, floor, candidates, scan) in computed {
        shared.columns[v2] = Some(floor);
        shared.candidates += candidates;
        shared.scan.add(scan);
    }
    shared
}

/// The shared candidate floor of one `(d1, v2)` column: fills
/// `floor[p1]` for `p1 ∈ d1..v2` with a sound lower bound on the
/// zero-`Everif`-context inner value `E_partial(d1, m1, p1, p1, v2)` of
/// **every** window `(m1, v2]`, `m1 ∈ d1..v2` (DESIGN.md §4.3).
///
/// The bound is the exact minimum over *all* verification chains of the
/// chain cost with each context term replaced by its minimum over the
/// column's windows — `Emem(d1, m1)` by `0`, `R_M(m1)` by `R_M(d1)` — and
/// the detection-latency tail `E_right` replaced by its own minimum-over-
/// chains lower bound (`er_lb`, computed in the same scan).  Because it is a
/// true minimum over the full chain family of per-chain lower bounds, it
/// needs no argmin-stability argument: *any* window's DP value is the cost
/// of *some* chain at a context dominating the floor's, hence ≥ the floor.
///
/// Returns the number of candidates examined (every closed-form evaluation,
/// consistent with [`DpStatistics::candidates_examined`]).
#[allow(clippy::too_many_arguments)] // DP coordinates + the scan controls
fn epartial_floor(
    calc: &SegmentCalculator<'_>,
    d1: usize,
    v2: usize,
    model: PartialCostModel,
    simd: bool,
    floor: &mut [f64],
    er_lb: &mut [f64],
    counters: &mut ScanCounters,
) -> u64 {
    let v_cost = calc.v_partial();
    let g = calc.miss_probability();
    // Window-minimal contexts: emem = Emem(d1, d1) = 0 and the recovery
    // costs at m1 = d1 (R_M(m1) ≥ R_M(d1) for every m1 ≥ d1).
    let a = calc.disk_recovery(d1);
    let miss_rm = (1.0 - g) * calc.memory_recovery(d1);
    let col = calc.interval_col(v2);
    let eright_base = calc.eright_base(d1);
    let prefix = calc.prefix_weights();
    let everif_zero = 0.0;
    let mut candidates = 0u64;

    er_lb[v2] = eright_base;
    for p1 in (d1..v2).rev() {
        let row = calc.interval_row(p1);
        // Closing candidate p2 = v2: exactly the zero-context closing value
        // at m1 = d1 (monotone in the dominated context terms).
        candidates += 1;
        let mut best = calc.e_minus(d1, d1, p1, v2, 0.0, 0.0, eright_base, true, model)
            + calc.tail_verification_correction(p1, v2, model);
        let mut best_er = calc.eright_step(d1, d1, p1, v2, 0.0, eright_base, true, model);
        // Open candidates, over contiguous re-sliced operands (see
        // `epartial_interval` — same bounds-check-free shape).  The two
        // candidate expressions replicate `IntervalRow::e_minus_at` (with a
        // zero `Everif` context) and `SegmentCalculator::eright_step` (with
        // `emem = 0`, non-closing, where both cost models charge `(V, g)`),
        // operation for operation, so the flattened floor is bit-identical
        // to the scalar recurrences — which keeps every downstream skip
        // decision, and therefore the candidate counts of the baseline
        // gate, unchanged.
        let base = p1 + 1;
        let w_p1 = prefix[p1];
        let exp_s = &row.exp_s[base..v2];
        let em1_f = &row.em1_f[base..v2];
        let em1_s = &row.em1_s[base..v2];
        let em1_fs = &row.em1_fs[base..v2];
        let em1_fol = &row.em1_f_over_lambda[base..v2];
        let p_fail = &row.p_fail[base..v2];
        let t_lost = &row.t_lost[base..v2];
        let growth = &col.growth_fs[base..v2];
        let prefix_w = &prefix[base..v2];
        let floor_tail = &floor[base..v2];
        let er_tail = &er_lb[base..v2];
        let len = exp_s.len();
        // The floor evaluates every open candidate (no pruning), so the
        // count is known up front — one closed form per element, for both
        // the blocked and the scalar path.
        candidates += len as u64;
        let mut start = 0usize;
        if simd {
            // Branchless 4-lane value scan: both minima are pure reductions
            // (no argmin, no early exit), so each block folds into running
            // lane accumulators and a single horizontal `reduce_min` merges
            // them at the end.  Candidate streams contain neither NaN nor
            // `-0.0` (finite sums/products of non-negative model terms), so
            // equal-comparing lane values are bitwise identical and the fold
            // order is unobservable — the merged minima match the sequential
            // scan bit for bit (DESIGN.md §11).
            let v_v_cost = f64x4::splat(v_cost);
            let v_g = f64x4::splat(g);
            let v_a = f64x4::splat(a);
            let v_miss_rm = f64x4::splat(miss_rm);
            let v_everif_zero = f64x4::splat(everif_zero);
            let v_w_p1 = f64x4::splat(w_p1);
            let v_one = f64x4::splat(1.0);
            let mut acc_cand = f64x4::INFINITY;
            let mut acc_er = f64x4::INFINITY;
            // Every full block is processed unconditionally, so the block
            // count is known up front — no per-block counter traffic.
            counters.simd_blocks += (len / f64x4::LANES) as u64;
            while start + f64x4::LANES <= len {
                let exp = f64x4::from_slice(&exp_s[start..]);
                let er_t = f64x4::from_slice(&er_tail[start..]);
                let eminus = exp * (f64x4::from_slice(&em1_fol[start..]) + v_v_cost)
                    + exp * f64x4::from_slice(&em1_f[start..]) * v_a
                    + f64x4::from_slice(&em1_fs[start..]) * v_everif_zero
                    + f64x4::from_slice(&em1_s[start..]) * (v_miss_rm + v_g * er_t);
                let cand = eminus * f64x4::from_slice(&growth[start..])
                    + f64x4::from_slice(&floor_tail[start..]);
                acc_cand = acc_cand.min(cand);
                let w = f64x4::from_slice(&prefix_w[start..]) - v_w_p1;
                let pf = f64x4::from_slice(&p_fail[start..]);
                let er = pf * (f64x4::from_slice(&t_lost[start..]) + v_a)
                    + (v_one - pf) * (w + v_v_cost + v_miss_rm + v_g * er_t);
                acc_er = acc_er.min(er);
                start += f64x4::LANES;
            }
            let block_cand = acc_cand.reduce_min();
            if block_cand < best {
                best = block_cand;
            }
            let block_er = acc_er.reduce_min();
            if block_er < best_er {
                best_er = block_er;
            }
        }
        // Scalar path: the blocked scan's remainder lanes (`len % 4`) and
        // the `CHAIN2L_NO_SIMD` escape hatch.
        for off in start..len {
            let eminus = exp_s[off] * (em1_fol[off] + v_cost)
                + exp_s[off] * em1_f[off] * a
                + em1_fs[off] * everif_zero
                + em1_s[off] * (miss_rm + g * er_tail[off]);
            let cand = eminus * growth[off] + floor_tail[off];
            if cand < best {
                best = cand;
            }
            let w = prefix_w[off] - w_p1;
            let er = p_fail[off] * (t_lost[off] + a)
                + (1.0 - p_fail[off]) * (w + v_cost + miss_rm + g * er_tail[off]);
            if er < best_er {
                best_er = er;
            }
        }
        floor[p1] = best;
        er_lb[p1] = best_er;
    }
    candidates
}

/// Runs the §III-B dynamic program (`A_DMV`) on `scenario` and returns the
/// optimal expected makespan together with the reconstructed schedule
/// (including the partial-verification positions).
pub fn optimize_with_partials(scenario: &Scenario, options: PartialOptions) -> Solution {
    let n = scenario.task_count();
    let calc = SegmentCalculator::new(scenario);
    let arena = TableArena::new();
    let tables = compute_tables(&calc, n, options, &arena);
    let schedule = reconstruct(&calc, &tables, n, options);
    let expected_makespan = tables.edisk[n];
    let stats = DpStatistics {
        table_entries: tables.finalized_entries(),
        candidates_examined: tables.candidates,
        simd_blocks: tables.scan.simd_blocks,
        scalar_fallbacks: tables.scan.scalar_fallbacks,
    };
    Solution::new(expected_makespan, schedule, scenario, stats)
}

/// Fills the `Emem(d1, ·)` / `Everif(d1, ·, ·)` slice columns `from_m2..=n`
/// for one fixed `d1` (cold solves pass `from_m2 = d1 + 1`, the incremental
/// solver passes `old_n + 1`).  The inner-DP scratch and the shared floor
/// buffers are checked out of `arena` and returned when the slice is
/// finished, so concurrent slice fills recycle a thread-count-sized working
/// set instead of allocating per slice.
///
/// Pruning only skips candidates that provably cannot beat the running
/// minimum, so the filled columns are bit-identical to the exhaustive
/// sequential recurrence either way.
#[allow(clippy::too_many_arguments)] // DP coordinates + the storage/floor context
pub(crate) fn fill_disk_slice(
    calc: &SegmentCalculator<'_>,
    n: usize,
    d1: usize,
    options: PartialOptions,
    slice: &mut DiskSlice,
    from_m2: usize,
    arena: &TableArena,
    shared: &SharedFloors,
) {
    let model = options.cost_model;
    let prune = options.prune && calc.pruning_sound();
    let simd = simd_scan::simd_enabled();
    let c_mem = calc.scenario().costs.memory_checkpoint;
    let lf = calc.lambda_fail_stop();
    let prefix = calc.prefix_weights();
    let mut scratch = InnerScratch::take(arena, n);
    // Per-column argmin staging for the deferred write-back (DESIGN.md §11):
    // the m1 scan accumulates its `Everif` choices here and flushes them to
    // the `u32` argmin plane once per finalized column.
    let mut choice_col = arena.take_u32(n + 1, NO_CHOICE);
    let mut scan = ScanCounters::default();
    // Only the d1 = 0 slice runs private floor DPs (its zero recovery
    // costs give a tighter bound than the shared d1 ≥ 1 columns).
    let mut own_floor = if d1 == 0 {
        Some((arena.take_f64(n + 1, f64::INFINITY), arena.take_f64(n + 1, f64::INFINITY)))
    } else {
        None
    };
    let mut bounds = arena.take_f64(n + 1, f64::INFINITY);
    let mut candidates = 0u64;
    // Finite value cells this pass writes (`DiskSlice::entries`).
    let mut written = 0usize;

    if from_m2 == d1 + 1 {
        slice.emem[d1] = 0.0;
        written += 1;
    }
    for m2 in from_m2..=n {
        // One floor column per (d1, m2), hoisted across every (m1, m2)
        // window of the m1 scan below (DESIGN.md §4.3) — private for the
        // d1 = 0 slice, shared across all d1 ≥ 1 ([`SharedFloors`]).
        let use_floor = prune && m2 - d1 >= FLOOR_SPAN_MIN;
        if use_floor {
            if let Some((floor, er_lb)) = own_floor.as_mut() {
                candidates += epartial_floor(calc, 0, m2, model, simd, floor, er_lb, &mut scan);
            }
        }
        let floor_col: &[f64] = if !use_floor {
            &[]
        } else if let Some((floor, _)) = own_floor.as_ref() {
            floor
        } else {
            shared.columns[m2].as_deref().expect("shared floor computed for this column")
        };
        let col = calc.interval_col(m2);
        let w_m2 = prefix[m2];
        let mut best_mem = f64::INFINITY;
        let mut best_m1 = NO_CHOICE;
        // The newest row's diagonal `Everif(d1, m2 − 1, m2 − 1)` is first
        // written in this column.
        written += 1;
        // m1 is a DP coordinate indexing several tables, not a plain scan.
        #[allow(clippy::needless_range_loop)]
        for m1 in d1..m2 {
            let emem_left = slice.emem[m1];
            debug_assert!(emem_left.is_finite(), "Emem({d1},{m1}) not computed");
            slice.everif.set(m1, m1, 0.0);

            // Everif(d1, m1, m2): last guaranteed verification at v1, then
            // the partial-verification interval (v1, m2].  With the floor
            // on, every candidate's sound lower bound is the shared floor
            // plus the *exact* affine left-context term `left·em1_fs(v1, m2)`
            // (the Everif coefficient telescopes along every chain) plus the
            // first-order Emem term; the bound-minimizing seed candidate
            // runs its exact O(span²) inner DP, and only candidates whose
            // bound reaches the seed's exact value within the ulp margin
            // join it — every skipped candidate provably exceeds the seed,
            // so it can neither win nor tie.  Survivors run right-to-left
            // with a non-strict minimum, which reproduces the exhaustive
            // left-to-right strict tie-breaking exactly.
            let mut best_verif = f64::INFINITY;
            let mut best_v1 = NO_CHOICE;
            // The packed row starts at column m1: element `v1 − m1` is
            // Everif(d1, m1, v1).
            let row = slice.everif.row(m1);
            let use_predictor = use_floor && m2 - m1 >= PREDICT_SPAN_MIN;
            let mut threshold = f64::INFINITY;
            let mut seed_v1 = usize::MAX;
            let mut seed_value = f64::INFINITY;
            if use_predictor {
                // Bound computation over the contiguous value row and the
                // re-sliced floor/column operands (same arithmetic and
                // order as the scalar expression, bounds checks elided).
                let mut best_bound = f64::INFINITY;
                let left_values = &row[..m2 - m1];
                let floor_w = &floor_col[m1..m2];
                let em1_fs = &col.em1_fs[m1..m2];
                let prefix_w = &prefix[m1..m2];
                let bounds_w = &mut bounds[m1..m2];
                let len = left_values.len();
                #[cfg(debug_assertions)]
                for (off, left) in left_values.iter().enumerate() {
                    debug_assert!(left.is_finite(), "Everif({d1},{m1},{}) not computed", m1 + off);
                }
                let mut start = 0usize;
                if simd {
                    // 4-lane bound evaluation with a blocked argmin: the
                    // hoisted `emem_left · λ_f` product and the vector
                    // expression reuse the scalar grouping exactly
                    // (left-associated sums, no FMA contraction), and
                    // `LaneMin` reproduces the sequential ascending
                    // strict-`<` tie-break (DESIGN.md §11).
                    let v_eml = f64x4::splat(emem_left * lf);
                    let v_w_m2 = f64x4::splat(w_m2);
                    let mut lanes = LaneMin::new();
                    // Every full block runs unconditionally — count up front.
                    scan.simd_blocks += (len / f64x4::LANES) as u64;
                    while start + f64x4::LANES <= len {
                        let left = f64x4::from_slice(&left_values[start..]);
                        let bound = left
                            + f64x4::from_slice(&floor_w[start..])
                            + left * f64x4::from_slice(&em1_fs[start..])
                            + v_eml * (v_w_m2 - f64x4::from_slice(&prefix_w[start..]));
                        bounds_w[start..start + f64x4::LANES].copy_from_slice(bound.as_array_ref());
                        lanes.update(bound, start);
                        start += f64x4::LANES;
                    }
                    let (block_best, block_idx) = lanes.finish();
                    if block_best < best_bound {
                        best_bound = block_best;
                        seed_v1 = m1 + block_idx as usize;
                    }
                }
                // Scalar path: remainder lanes and the `CHAIN2L_NO_SIMD` hatch.
                for off in start..len {
                    let left = left_values[off];
                    let bound = left
                        + floor_w[off]
                        + left * em1_fs[off]
                        + emem_left * lf * (w_m2 - prefix_w[off]);
                    bounds_w[off] = bound;
                    if bound < best_bound {
                        best_bound = bound;
                        seed_v1 = m1 + off;
                    }
                }
                let left = row[seed_v1 - m1];
                let (value, seed_candidates) = epartial_interval(
                    calc,
                    d1,
                    m1,
                    seed_v1,
                    m2,
                    emem_left,
                    left,
                    model,
                    prune,
                    simd,
                    false,
                    &mut scratch,
                    &mut scan,
                );
                candidates += seed_candidates;
                seed_value = value;
                let seed_total = left + value;
                threshold = seed_total + PREDICT_MARGIN * (seed_total.abs() + 1.0);
            }
            for v1 in (m1..m2).rev() {
                if use_predictor && bounds[v1] > threshold {
                    continue;
                }
                let left = row[v1 - m1];
                debug_assert!(left.is_finite(), "Everif({d1},{m1},{v1}) not computed");
                let value = if v1 == seed_v1 {
                    seed_value
                } else {
                    let (value, inner_candidates) = epartial_interval(
                        calc,
                        d1,
                        m1,
                        v1,
                        m2,
                        emem_left,
                        left,
                        model,
                        prune,
                        simd,
                        false,
                        &mut scratch,
                        &mut scan,
                    );
                    candidates += inner_candidates;
                    value
                };
                let cand = left + value;
                if cand <= best_verif {
                    best_verif = cand;
                    best_v1 = v1 as u32;
                }
            }
            slice.everif.set(m1, m2, best_verif);
            written += usize::from(best_verif.is_finite());
            choice_col[m1] = best_v1;

            let cand = emem_left + best_verif + c_mem;
            if cand < best_mem {
                best_mem = cand;
                best_m1 = m1 as u32;
            }
        }
        // Deferred argmin write-back (DESIGN.md §11): the `u32` argmin plane
        // is written once per finalized column instead of once per cell
        // inside the hot m1 scan.
        slice.everif_choice.write_column(m2, d1, &choice_col[d1..m2]);
        slice.emem[m2] = best_mem;
        slice.emem_choice[m2] = best_m1;
        written += usize::from(best_mem.is_finite());
    }
    slice.candidates += candidates;
    slice.scan.add(scan);
    slice.entries += written;
    arena.give_u32(choice_col);
    scratch.release(arena);
    if let Some((floor, er_lb)) = own_floor {
        arena.give_f64(floor);
        arena.give_f64(er_lb);
    }
    arena.give_f64(bounds);
}

/// Fills the DP levels: the per-`d1` slices in parallel on the work-stealing
/// pool (their planes and scratch checked out of `arena`), then the
/// sequential `Edisk` level over the finished slices.
pub(crate) fn compute_tables(
    calc: &SegmentCalculator<'_>,
    n: usize,
    options: PartialOptions,
    arena: &TableArena,
) -> DpTables {
    let shared = compute_shared_floors(calc, n, 1, options, arena);
    let slices: Vec<DiskSlice> = (0..n)
        .into_par_iter()
        .map(|d1| {
            let mut slice = DiskSlice::new_in(arena, n, d1, n - d1);
            fill_disk_slice(calc, n, d1, options, &mut slice, d1 + 1, arena, &shared);
            slice
        })
        .collect();
    let floor_candidates = shared.candidates;
    let floor_scan = shared.scan;
    shared.recycle(arena);
    dp::finish_tables(
        arena,
        calc.scenario().costs.disk_checkpoint,
        slices,
        n,
        floor_candidates,
        floor_scan,
    )
}

/// Extends finished tables from `old_n` to `new_n` tasks, reusing every
/// computed column (see [`crate::two_level::extend_tables`]; same contract:
/// unchanged task-weight prefix, bit-identical to a cold solve at `new_n`).
pub(crate) fn extend_tables(
    calc: &SegmentCalculator<'_>,
    tables: &mut DpTables,
    old_n: usize,
    new_n: usize,
    options: PartialOptions,
    arena: &TableArena,
) {
    let shared = compute_shared_floors(calc, new_n, old_n + 1, options, arena);
    dp::extend_slices(
        arena,
        &mut tables.slices,
        old_n,
        new_n,
        |n, d1| n - d1,
        |d1, slice, from_m2| {
            fill_disk_slice(calc, new_n, d1, options, slice, from_m2, arena, &shared)
        },
    );
    tables.floor_candidates += shared.candidates;
    tables.floor_scan.add(shared.scan);
    shared.recycle(arena);
    dp::refresh_edisk(calc.scenario().costs.disk_checkpoint, tables, new_n);
}

/// Reconstructs the optimal schedule, re-running the inner DP on each leaf
/// interval of the optimal path to recover the partial-verification chain.
pub(crate) fn reconstruct(
    calc: &SegmentCalculator<'_>,
    t: &DpTables,
    n: usize,
    options: PartialOptions,
) -> Schedule {
    let model = options.cost_model;
    let prune = options.prune && calc.pruning_sound();
    let simd = simd_scan::simd_enabled();
    // Reconstruction re-runs only the optimal leaf intervals; its scan
    // tallies are scratch work, not part of the solve statistics.
    let mut scan = ScanCounters::default();
    let mut scratch = InnerScratch::new(n);
    let mut schedule = Schedule::empty(n);

    let mut disk_positions = Vec::new();
    let mut d2 = n;
    while d2 > 0 {
        disk_positions.push(d2);
        debug_assert!(t.edisk_choice[d2] != NO_CHOICE, "missing Edisk choice");
        d2 = t.edisk_choice[d2] as usize;
    }
    disk_positions.reverse();

    let mut prev_disk = 0usize;
    for &disk in &disk_positions {
        let d1 = prev_disk;
        let slice = &t.slices[d1];
        let mut mem_positions = Vec::new();
        let mut m2 = disk;
        while m2 > d1 {
            mem_positions.push(m2);
            debug_assert!(slice.emem_choice[m2] != NO_CHOICE, "missing Emem choice");
            m2 = slice.emem_choice[m2] as usize;
        }
        mem_positions.reverse();

        let mut prev_mem = d1;
        for &mem in &mem_positions {
            let m1 = prev_mem;
            // Guaranteed verification positions inside (m1, mem].
            let mut verif_bounds = Vec::new();
            let mut v2 = mem;
            while v2 > m1 {
                verif_bounds.push(v2);
                debug_assert!(
                    slice.everif_choice.get(m1, v2) != NO_CHOICE,
                    "missing Everif choice"
                );
                v2 = slice.everif_choice.get(m1, v2) as usize;
            }
            verif_bounds.reverse();

            // Partial verifications inside each (v1, v2] leaf interval.
            let mut prev_verif = m1;
            for &verif in &verif_bounds {
                let v1 = prev_verif;
                let emem_left = slice.emem[m1];
                let everif_left = slice.everif.get(m1, v1);
                let _ = epartial_interval(
                    calc,
                    d1,
                    m1,
                    v1,
                    verif,
                    emem_left,
                    everif_left,
                    model,
                    prune,
                    simd,
                    true,
                    &mut scratch,
                    &mut scan,
                );
                let mut p = v1;
                loop {
                    debug_assert!(scratch.next[p] != NO_CHOICE, "missing partial chain at {p}");
                    let nxt = scratch.next[p] as usize;
                    if nxt >= verif {
                        break;
                    }
                    schedule.set_action(nxt, Action::PartialVerification);
                    p = nxt;
                }
                schedule.set_action(verif, Action::GuaranteedVerification);
                prev_verif = verif;
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
    use crate::two_level::{optimize_two_level, TwoLevelOptions};
    use chain2l_model::math::approx_eq;
    use chain2l_model::pattern::WeightPattern;
    use chain2l_model::platform::{scr, Platform};
    use chain2l_model::{ResilienceCosts, Scenario};

    fn paper_scenario(platform: &Platform, pattern: &WeightPattern, n: usize) -> Scenario {
        Scenario::paper_setup(platform, pattern, n, 25_000.0).unwrap()
    }

    #[test]
    fn schedules_are_valid_for_all_platforms() {
        for platform in scr::all() {
            for n in [1usize, 3, 10, 25] {
                let s = paper_scenario(&platform, &WeightPattern::Uniform, n);
                let sol = optimize_with_partials(&s, PartialOptions::paper_exact());
                sol.schedule.validate(&s.chain).unwrap();
                assert_eq!(sol.schedule.action(n), Action::DiskCheckpoint);
                assert!(sol.expected_makespan >= s.error_free_time());
            }
        }
    }

    #[test]
    fn refined_model_with_no_partials_matches_two_level_exactly() {
        // Force partial verifications to be useless by making them as
        // expensive as guaranteed ones: the refined A_DMV must then return
        // exactly the A_DMV* optimum.
        for platform in scr::all() {
            let mut s = paper_scenario(&platform, &WeightPattern::Uniform, 20);
            s.costs.partial_verification = s.costs.guaranteed_verification;
            s.costs.partial_recall = 1.0;
            let admv = optimize_with_partials(&s, PartialOptions::refined());
            let admv_star = optimize_two_level(&s, TwoLevelOptions::two_level());
            assert!(
                approx_eq(admv.expected_makespan, admv_star.expected_makespan, 1e-9),
                "{}: {} vs {}",
                platform.name,
                admv.expected_makespan,
                admv_star.expected_makespan
            );
        }
    }

    #[test]
    fn refined_model_never_worse_than_two_level() {
        for platform in scr::all() {
            for n in [5usize, 15, 30] {
                let s = paper_scenario(&platform, &WeightPattern::Uniform, n);
                let admv = optimize_with_partials(&s, PartialOptions::refined());
                let admv_star = optimize_two_level(&s, TwoLevelOptions::two_level());
                assert!(
                    admv.expected_makespan <= admv_star.expected_makespan + 1e-9,
                    "{} n={n}: ADMV={} > ADMV*={}",
                    platform.name,
                    admv.expected_makespan,
                    admv_star.expected_makespan
                );
            }
        }
    }

    #[test]
    fn paper_model_close_to_two_level_and_never_much_worse() {
        // With the equations exactly as printed, the tail accounting may cost
        // a fraction of a second compared to A_DMV* (see DESIGN.md §3.3), but
        // never more than (V* − V) per guaranteed verification interval.
        for platform in scr::all() {
            let s = paper_scenario(&platform, &WeightPattern::Uniform, 30);
            let admv = optimize_with_partials(&s, PartialOptions::paper_exact());
            let admv_star = optimize_two_level(&s, TwoLevelOptions::two_level());
            let slack = s.costs.guaranteed_verification * 0.01 * 30.0 + 1.0;
            assert!(
                admv.expected_makespan <= admv_star.expected_makespan + slack,
                "{}: ADMV={} ADMV*={}",
                platform.name,
                admv.expected_makespan,
                admv_star.expected_makespan
            );
        }
    }

    #[test]
    fn cheap_partial_verifications_reduce_the_makespan_when_silent_errors_dominate() {
        // Exaggerate the silent error rate so partial verifications clearly pay
        // off, then check A_DMV (refined) strictly beats A_DMV*.
        let platform = Platform::new("sdc-heavy", 64, 1e-7, 5e-5, 600.0, 30.0).unwrap();
        let chain = WeightPattern::Uniform.generate(40, 25_000.0).unwrap();
        let costs = ResilienceCosts::paper_defaults(&platform);
        let s = Scenario::new(chain, platform, costs).unwrap();
        let admv = optimize_with_partials(&s, PartialOptions::refined());
        let admv_star = optimize_two_level(&s, TwoLevelOptions::two_level());
        assert!(
            admv.expected_makespan < admv_star.expected_makespan - 1.0,
            "ADMV={} ADMV*={}",
            admv.expected_makespan,
            admv_star.expected_makespan
        );
        assert!(admv.counts.partial_verifications > 0, "{:?}", admv.counts);
    }

    #[test]
    fn partial_positions_never_collide_with_guaranteed_ones() {
        let s = paper_scenario(&scr::coastal_ssd(), &WeightPattern::Uniform, 30);
        let sol = optimize_with_partials(&s, PartialOptions::paper_exact());
        let partials = sol.schedule.partial_verification_positions();
        let guaranteed = sol.schedule.guaranteed_verification_positions();
        for p in &partials {
            assert!(!guaranteed.contains(p), "boundary {p} has both kinds");
        }
    }

    #[test]
    fn coastal_ssd_prefers_partial_verifications() {
        // Figure 5 row 4 / Figure 6: on Coastal SSD the guaranteed
        // verification is expensive (V* = 180 s), so the optimizer relies on
        // partial verifications instead.
        let s = paper_scenario(&scr::coastal_ssd(), &WeightPattern::Uniform, 50);
        let sol = optimize_with_partials(&s, PartialOptions::paper_exact());
        assert!(
            sol.counts.partial_verifications > 0,
            "expected partial verifications on Coastal SSD: {:?}",
            sol.counts
        );
        // And A_DMV improves on A_DMV* there (paper reports ≈1 % at n = 50).
        let admv_star = optimize_two_level(&s, TwoLevelOptions::two_level());
        assert!(sol.expected_makespan < admv_star.expected_makespan);
    }

    #[test]
    fn no_silent_errors_means_no_verification_only_boundaries() {
        // Without silent errors, verifications (of either kind) are useless;
        // only disk checkpoints against fail-stop errors matter.
        let platform = Platform::new("failstop-only", 16, 5e-5, 0.0, 60.0, 6.0).unwrap();
        let chain = WeightPattern::Uniform.generate(20, 25_000.0).unwrap();
        let costs = ResilienceCosts::paper_defaults(&platform);
        let s = Scenario::new(chain, platform, costs).unwrap();
        let sol = optimize_with_partials(&s, PartialOptions::refined());
        assert_eq!(sol.counts.partial_verifications, 0, "{:?}", sol.counts);
        // Every guaranteed verification should be attached to a checkpoint.
        assert_eq!(
            sol.schedule.guaranteed_verification_positions(),
            sol.schedule.memory_checkpoint_positions()
        );
    }

    #[test]
    fn single_task_chain_works() {
        let s = paper_scenario(&scr::hera(), &WeightPattern::Uniform, 1);
        let sol = optimize_with_partials(&s, PartialOptions::paper_exact());
        assert_eq!(sol.schedule.disk_checkpoint_positions(), vec![1]);
        assert!(sol.expected_makespan > 25_000.0);
    }

    #[test]
    fn statistics_report_candidate_counts() {
        let n = 12;
        let s = paper_scenario(&scr::hera(), &WeightPattern::Uniform, n);
        let sol = optimize_with_partials(&s, PartialOptions::paper_exact());
        assert!(sol.stats.candidates_examined > 0);
        // Finalized entries only: triangular Everif slices + per-slice Emem
        // rows + Edisk, well below the old (n+1)^3 book-keeping.
        assert!(sol.stats.table_entries > 0);
        assert!(sol.stats.table_entries < (n + 1) * (n + 1) * (n + 1));
        // Exactly the written cells: slice d1 finalizes n−d1+1 entries per
        // Everif row m1 ∈ d1..n... no more, no fewer — the allocated but
        // never-written INFINITY cells are not counted.
        let expected: usize = (0..n)
            .map(|d1| {
                let everif: usize = (d1..n).map(|m1| n - m1 + 1).sum();
                everif + (n - d1 + 1)
            })
            .sum::<usize>()
            + (n + 1);
        assert_eq!(sol.stats.table_entries, expected);
    }

    #[test]
    fn pruned_and_unpruned_kernels_are_bit_identical() {
        for platform in scr::all() {
            for n in [1usize, 6, 15] {
                let s = paper_scenario(&platform, &WeightPattern::Uniform, n);
                for options in [PartialOptions::paper_exact(), PartialOptions::refined()] {
                    let pruned = optimize_with_partials(&s, options);
                    let exhaustive = optimize_with_partials(&s, options.without_pruning());
                    assert_eq!(
                        pruned.expected_makespan.to_bits(),
                        exhaustive.expected_makespan.to_bits(),
                        "{} n={n}",
                        platform.name
                    );
                    assert_eq!(pruned.schedule, exhaustive.schedule, "{} n={n}", platform.name);
                    assert_eq!(pruned.stats.table_entries, exhaustive.stats.table_entries);
                    assert!(
                        pruned.stats.candidates_examined <= exhaustive.stats.candidates_examined
                    );
                }
            }
        }
    }

    #[test]
    fn pruning_cuts_candidates_by_an_order_of_magnitude() {
        // The reduction grows with n (the predictor amortizes over wider
        // windows): ≥5× already at n = 25, ≥10× at n = 40, ~26× at the
        // paper's n = 50 and ~90× at n = 100 (see BENCH_dp.json).
        for (n, factor) in [(25usize, 5u64), (40, 10)] {
            let s = paper_scenario(&scr::hera(), &WeightPattern::Uniform, n);
            let pruned = optimize_with_partials(&s, PartialOptions::paper_exact());
            let exhaustive =
                optimize_with_partials(&s, PartialOptions::paper_exact().without_pruning());
            assert!(
                pruned.stats.candidates_examined * factor <= exhaustive.stats.candidates_examined,
                "n={n}: pruned {} vs exhaustive {}",
                pruned.stats.candidates_examined,
                exhaustive.stats.candidates_examined
            );
        }
    }

    #[test]
    fn hostile_cost_model_disables_pruning_but_stays_exact() {
        // V > V* breaks the lower-bound argument; the kernel must detect it
        // and fall back to the exhaustive scans.
        let mut s = paper_scenario(&scr::hera(), &WeightPattern::Uniform, 10);
        s.costs.partial_verification = s.costs.guaranteed_verification * 3.0;
        let a = optimize_with_partials(&s, PartialOptions::paper_exact());
        let b = optimize_with_partials(&s, PartialOptions::paper_exact().without_pruning());
        assert_eq!(a.expected_makespan.to_bits(), b.expected_makespan.to_bits());
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.stats, b.stats, "guard must disable pruning entirely");
    }

    #[test]
    fn extend_tables_matches_cold_solve_bit_for_bit() {
        let platform = scr::coastal_ssd();
        let chain = |n: usize| chain2l_model::TaskChain::from_weights(vec![500.0; n]).unwrap();
        let costs = ResilienceCosts::paper_defaults(&platform);
        let small = Scenario::new(chain(8), platform.clone(), costs).unwrap();
        let large = Scenario::new(chain(20), platform.clone(), costs).unwrap();
        let options = PartialOptions::paper_exact();
        let arena = TableArena::new();
        let calc_small = SegmentCalculator::new(&small);
        let mut tables = compute_tables(&calc_small, 8, options, &arena);
        let calc_large = SegmentCalculator::new(&large);
        extend_tables(&calc_large, &mut tables, 8, 20, options, &arena);
        let cold = compute_tables(&calc_large, 20, options, &arena);
        for (a, b) in tables.edisk.iter().zip(&cold.edisk) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(tables.edisk_choice, cold.edisk_choice);
        assert_eq!(tables.candidates, cold.candidates);
        assert_eq!(tables.finalized_entries(), cold.finalized_entries());
        assert_eq!(
            reconstruct(&calc_large, &tables, 20, options),
            reconstruct(&calc_large, &cold, 20, options)
        );
    }

    #[test]
    fn nan_poisoned_arena_buffers_never_leak_into_solves() {
        // Fill an arena's free lists with NaN-poisoned buffers (NaN would
        // contaminate any DP arithmetic that read a stale cell), solve
        // through it twice — the second round recycles the first round's
        // returned buffers — and require the tables to be bit-identical to
        // a fresh-allocation solve at every level.
        let s = paper_scenario(&scr::hera(), &WeightPattern::Uniform, 15);
        let calc = SegmentCalculator::new(&s);
        let options = PartialOptions::paper_exact();
        let fresh = compute_tables(&calc, 15, options, &TableArena::new());

        let poisoned = TableArena::new();
        for _ in 0..64 {
            poisoned.give_f64(vec![f64::NAN; 97]);
            poisoned.give_u32(vec![0xDEAD_BEEF; 61]);
        }
        for round in 0..2 {
            let tables = compute_tables(&calc, 15, options, &poisoned);
            assert_eq!(tables.candidates, fresh.candidates, "round {round}");
            assert_eq!(tables.finalized_entries(), fresh.finalized_entries(), "round {round}");
            for (a, b) in tables.edisk.iter().zip(&fresh.edisk) {
                assert_eq!(a.to_bits(), b.to_bits(), "round {round}");
            }
            assert_eq!(tables.edisk_choice, fresh.edisk_choice, "round {round}");
            for (slice, fresh_slice) in tables.slices.iter().zip(&fresh.slices) {
                for (a, b) in slice.everif.as_slice().iter().zip(fresh_slice.everif.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "round {round}");
                }
                assert_eq!(
                    slice.everif_choice.as_slice(),
                    fresh_slice.everif_choice.as_slice(),
                    "round {round}"
                );
            }
            assert_eq!(
                reconstruct(&calc, &tables, 15, options),
                reconstruct(&calc, &fresh, 15, options),
                "round {round}"
            );
            tables.recycle(&poisoned);
        }
        assert!(poisoned.stats().pool_hits > 0, "the poisoned pool must actually be used");
    }

    #[test]
    fn sharded_dp_is_bit_identical_across_thread_counts() {
        let s = paper_scenario(&scr::coastal_ssd(), &WeightPattern::Uniform, 15);
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let sequential = optimize_with_partials(&s, PartialOptions::paper_exact());
        std::env::set_var("RAYON_NUM_THREADS", "4");
        let sharded = optimize_with_partials(&s, PartialOptions::paper_exact());
        std::env::remove_var("RAYON_NUM_THREADS");
        assert_eq!(
            sequential.expected_makespan.to_bits(),
            sharded.expected_makespan.to_bits(),
            "sharded DP must be bit-identical to the sequential one"
        );
        assert_eq!(sequential.schedule, sharded.schedule);
        assert_eq!(sequential.stats, sharded.stats);
    }
}
