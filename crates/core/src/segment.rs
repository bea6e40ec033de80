//! Closed-form expected execution times of verified segments.
//!
//! These are the building blocks shared by the dynamic programs
//! ([`crate::two_level`], [`crate::partial`]), the analytical evaluator
//! ([`crate::evaluator`]) and the brute-force optimizer
//! ([`crate::brute_force`]):
//!
//! * [`SegmentCalculator::guaranteed_segment`] — `E(d1, m1, v1, v2)`,
//!   Eq. (4) of the paper: the expected time to successfully execute the tasks
//!   between two *guaranteed* verifications, when no partial verification is
//!   used in between;
//! * [`SegmentCalculator::e_minus`] — `E⁻(d1, m1, v1, p1, p2, v2)` of §III-B:
//!   the expected time to execute the tasks between two *partial*
//!   verifications, with the left re-execution term removed (it is re-injected
//!   through the re-execution factor);
//! * [`SegmentCalculator::eright_step`] — one step of the
//!   `E_right` recurrence: expected time lost downstream of an *undetected*
//!   silent error;
//! * [`SegmentCalculator::reexecution_factor`] — `e^{(λ_s+λ_f) W_{p2,v2}}`,
//!   the §III-B factor that accounts for re-executions of an interval caused
//!   by errors detected to its right.
//!
//! Two tail-accounting conventions are provided through [`PartialCostModel`]:
//! the equations exactly as printed in the paper, and a "refined" variant that
//! charges the guaranteed-verification cost `V*` with its exact expected
//! multiplicity when the next verification of an interval is the closing
//! guaranteed one (see DESIGN.md §3.3).  The refined variant makes the
//! partial-verification algorithm collapse *exactly* onto the two-level
//! algorithm when it places no partial verification.

use chain2l_model::math;
use chain2l_model::Scenario;
use serde::{Deserialize, Serialize};

/// How the closing guaranteed verification of a partial-verification interval
/// is accounted for (see module documentation and DESIGN.md §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PartialCostModel {
    /// The equations exactly as printed in the paper: the last sub-interval is
    /// charged the partial cost `V` inside `E⁻`/`E_right`, and a correction
    /// `e^{(λ_s+λ_f)W_{p1,v2}} (V* − V)` is added in the `E_partial` base case.
    #[default]
    PaperExact,
    /// Tail-exact accounting: the correction uses the exact multiplicity
    /// `e^{λ_s W_{p1,v2}} (V* − V)` and `E_right` charges `V*` (with certain
    /// detection) when the next verification is the closing guaranteed one.
    Refined,
}

/// Interval-indexed cache of every exponential quantity the closed forms use.
///
/// Building the cache costs `O(n²)` `exp` evaluations; afterwards the
/// innermost loops of the `O(n⁶)` partial-verification DP are pure arithmetic
/// and table lookups, which is what keeps the `n = 50` runs in the "few
/// seconds" regime claimed by the paper.
#[derive(Debug, Clone)]
struct ExpCache {
    dim: usize,
    /// `e^{λ_s W_{i,j}}`.
    exp_s: Vec<f64>,
    /// `e^{λ_f W_{i,j}} − 1`.
    em1_f: Vec<f64>,
    /// `e^{λ_s W_{i,j}} − 1`.
    em1_s: Vec<f64>,
    /// `e^{(λ_f + λ_s) W_{i,j}} − 1`.
    em1_fs: Vec<f64>,
    /// `e^{(λ_f + λ_s) W_{i,j}}`.
    growth_fs: Vec<f64>,
    /// `(e^{λ_f W_{i,j}} − 1) / λ_f` (with the `λ_f → 0` limit).
    em1_f_over_lambda: Vec<f64>,
    /// `p^f_{i,j} = 1 − e^{−λ_f W_{i,j}}`.
    p_fail: Vec<f64>,
    /// `T^lost_{i,j}` (Eq. 3).
    t_lost: Vec<f64>,
    /// Column-major mirror of `exp_s` (`[j * dim + i]`).
    exp_s_t: Vec<f64>,
    /// Column-major mirror of `em1_f`.
    em1_f_t: Vec<f64>,
    /// Column-major mirror of `em1_s`.
    em1_s_t: Vec<f64>,
    /// Column-major mirror of `em1_fs`.
    em1_fs_t: Vec<f64>,
    /// Column-major mirror of `growth_fs`.
    growth_fs_t: Vec<f64>,
    /// Column-major mirror of `em1_f_over_lambda`.
    em1_f_over_lambda_t: Vec<f64>,
}

impl ExpCache {
    fn build(scenario: &Scenario) -> Self {
        let n = scenario.task_count();
        let dim = n + 1;
        let lf = scenario.platform.lambda_fail_stop;
        let ls = scenario.platform.lambda_silent;
        let size = dim * dim;
        let mut cache = Self {
            dim,
            exp_s: vec![1.0; size],
            em1_f: vec![0.0; size],
            em1_s: vec![0.0; size],
            em1_fs: vec![0.0; size],
            growth_fs: vec![1.0; size],
            em1_f_over_lambda: vec![0.0; size],
            p_fail: vec![0.0; size],
            t_lost: vec![0.0; size],
            exp_s_t: vec![1.0; size],
            em1_f_t: vec![0.0; size],
            em1_s_t: vec![0.0; size],
            em1_fs_t: vec![0.0; size],
            growth_fs_t: vec![1.0; size],
            em1_f_over_lambda_t: vec![0.0; size],
        };
        for i in 0..dim {
            for j in i..dim {
                let w = scenario.work(i, j);
                let idx = i * dim + j;
                cache.exp_s[idx] = math::exp_lw(ls, w);
                cache.em1_f[idx] = math::exp_m1(lf * w);
                cache.em1_s[idx] = math::exp_m1(ls * w);
                cache.em1_fs[idx] = math::exp_m1((lf + ls) * w);
                cache.growth_fs[idx] = cache.em1_fs[idx] + 1.0;
                cache.em1_f_over_lambda[idx] = math::exp_m1_over_lambda(lf, w);
                cache.p_fail[idx] = math::prob_at_least_one(lf, w);
                cache.t_lost[idx] = math::expected_time_lost(lf, w);
                // Column-major mirrors: the two-level kernel scans a fixed
                // right endpoint `j` over candidate left endpoints `i`, which
                // in row-major order would stride by `dim` per step.
                let tdx = j * dim + i;
                cache.exp_s_t[tdx] = cache.exp_s[idx];
                cache.em1_f_t[tdx] = cache.em1_f[idx];
                cache.em1_s_t[tdx] = cache.em1_s[idx];
                cache.em1_fs_t[tdx] = cache.em1_fs[idx];
                cache.growth_fs_t[tdx] = cache.growth_fs[idx];
                cache.em1_f_over_lambda_t[tdx] = cache.em1_f_over_lambda[idx];
            }
        }
        cache
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i <= j && j < self.dim, "bad interval ({i},{j})");
        i * self.dim + j
    }
}

/// Row `i` of the exponential cache, contiguous in the right endpoint `j`.
///
/// The inner `E_partial` kernel binds one row per `p1` and then walks the
/// candidate `p2` linearly, so the innermost loop of the `O(n⁶)` dynamic
/// program is branch-light arithmetic over prefetched slices.  The fields
/// are `pub(crate)` so the kernels can re-slice them to the scan range and
/// iterate without per-cell bounds checks (the compiler elides the checks
/// once every operand slice provably shares the loop bound).
pub struct IntervalRow<'c> {
    pub(crate) exp_s: &'c [f64],
    pub(crate) em1_f: &'c [f64],
    pub(crate) em1_s: &'c [f64],
    pub(crate) em1_fs: &'c [f64],
    pub(crate) em1_f_over_lambda: &'c [f64],
    pub(crate) p_fail: &'c [f64],
    pub(crate) t_lost: &'c [f64],
}

impl IntervalRow<'_> {
    /// `E⁻(…, p1, p2, …)` with the model branch hoisted out: `v_cost` and
    /// `g` are the verification cost / miss probability at `p2`, `a` is the
    /// precomputed `R_D + Emem`, `everif` is `Everif(d1, m1, v1)` and
    /// `miss_rm` the precomputed `(1 − g)·R_M`.
    ///
    /// Performs exactly the arithmetic of [`SegmentCalculator::e_minus`] (same
    /// operations in the same order), so the flat kernel stays bit-identical
    /// to the scalar closed form.
    #[inline]
    #[allow(clippy::too_many_arguments)] // hoisted constants of the hot kernel
    pub fn e_minus_at(
        &self,
        p2: usize,
        v_cost: f64,
        g: f64,
        a: f64,
        everif: f64,
        miss_rm: f64,
        eright_p2: f64,
    ) -> f64 {
        self.exp_s[p2] * (self.em1_f_over_lambda[p2] + v_cost)
            + self.exp_s[p2] * self.em1_f[p2] * a
            + self.em1_fs[p2] * everif
            + self.em1_s[p2] * (miss_rm + g * eright_p2)
    }
}

/// Column `j` of the exponential cache, contiguous in the left endpoint `i`
/// (backed by the transposed mirrors).
///
/// The two-level kernel binds one column per segment right endpoint and scans
/// the candidate last verification `v1` linearly.  As with [`IntervalRow`],
/// the fields are `pub(crate)` for the kernels' bounds-check-free scans.
pub struct IntervalCol<'c> {
    pub(crate) exp_s: &'c [f64],
    pub(crate) em1_f: &'c [f64],
    pub(crate) em1_s: &'c [f64],
    pub(crate) em1_fs: &'c [f64],
    pub(crate) growth_fs: &'c [f64],
    pub(crate) em1_f_over_lambda: &'c [f64],
}

impl IntervalCol<'_> {
    /// `E(d1, m1, v1, v2)` (Eq. 4) with the per-segment constants hoisted:
    /// `a = R_D + Emem`, `rm = R_M`, `v_star = V*`; `everif` is
    /// `Everif(d1, m1, v1)`.  Bit-identical to
    /// [`SegmentCalculator::guaranteed_segment`].
    #[inline]
    pub fn guaranteed_segment_at(
        &self,
        v1: usize,
        v_star: f64,
        a: f64,
        rm: f64,
        everif: f64,
    ) -> f64 {
        self.exp_s[v1] * (self.em1_f_over_lambda[v1] + v_star)
            + self.exp_s[v1] * self.em1_f[v1] * a
            + self.em1_fs[v1] * everif
            + self.em1_s[v1] * rm
    }

    /// Re-execution factor `e^{(λ_s + λ_f) W_{i,j}}` for left endpoint `i`.
    #[inline]
    pub fn reexecution_factor_at(&self, i: usize) -> f64 {
        self.growth_fs[i]
    }
}

/// Pre-resolved scenario quantities plus the segment closed forms.
///
/// The calculator borrows the [`Scenario`], copies the scalar parameters it
/// needs and precomputes every interval exponential once (see [`ExpCache`]),
/// so the hot DP loops perform no transcendental function calls at all.
#[derive(Debug, Clone)]
pub struct SegmentCalculator<'a> {
    scenario: &'a Scenario,
    cache: ExpCache,
    /// `prefix[i] = w_1 + … + w_i` — contiguous copy of the chain's prefix
    /// sums, used by the kernels' lower-bound computations.
    prefix: Vec<f64>,
    lambda_f: f64,
    lambda_s: f64,
    /// Guaranteed verification cost `V*`.
    v_star: f64,
    /// Partial verification cost `V`.
    v_partial: f64,
    /// Miss probability `g = 1 − r` of the partial verification.
    g: f64,
    /// Disk recovery cost `R_D` (not yet zeroed for the virtual task).
    r_disk: f64,
    /// Memory recovery cost `R_M` (not yet zeroed for the virtual task).
    r_mem: f64,
}

impl<'a> SegmentCalculator<'a> {
    /// Builds a calculator for one scenario (precomputing the `O(n²)`
    /// exponential cache).
    pub fn new(scenario: &'a Scenario) -> Self {
        let n = scenario.task_count();
        Self {
            scenario,
            cache: ExpCache::build(scenario),
            prefix: (0..=n).map(|i| scenario.chain.prefix_weight(i)).collect(),
            lambda_f: scenario.platform.lambda_fail_stop,
            lambda_s: scenario.platform.lambda_silent,
            v_star: scenario.costs.guaranteed_verification,
            v_partial: scenario.costs.partial_verification,
            g: scenario.costs.miss_probability(),
            r_disk: scenario.costs.disk_recovery,
            r_mem: scenario.costs.memory_recovery,
        }
    }

    /// The scenario this calculator was built for.
    pub fn scenario(&self) -> &Scenario {
        self.scenario
    }

    /// Guaranteed verification cost `V*`.
    #[inline]
    pub fn v_star(&self) -> f64 {
        self.v_star
    }

    /// Partial verification cost `V`.
    #[inline]
    pub fn v_partial(&self) -> f64 {
        self.v_partial
    }

    /// Miss probability `g = 1 − r` of the partial verification.
    #[inline]
    pub fn miss_probability(&self) -> f64 {
        self.g
    }

    /// The chain's prefix sums `prefix[i] = W_{0,i}` as a contiguous slice.
    #[inline]
    pub fn prefix_weights(&self) -> &[f64] {
        &self.prefix
    }

    /// Fail-stop error rate `λ_f`.
    #[inline]
    pub fn lambda_fail_stop(&self) -> f64 {
        self.lambda_f
    }

    /// Silent error rate `λ_s`.
    #[inline]
    pub fn lambda_silent(&self) -> f64 {
        self.lambda_s
    }

    /// Combined error rate `λ_f + λ_s`.
    #[inline]
    pub fn lambda_combined(&self) -> f64 {
        self.lambda_f + self.lambda_s
    }

    /// Whether the kernels' lower-bound pruning is sound for this cost model.
    ///
    /// The bounds charge every sub-interval at least its work plus the
    /// *partial* verification cost `V`, and the closing guaranteed
    /// verification at least `V*`; both arguments require `V ≤ V*` (always
    /// true for the paper's `V = V*/100`, but a hostile cost model could
    /// invert them).  When this returns `false` the kernels fall back to the
    /// exhaustive scans.  See DESIGN.md §4.
    #[inline]
    pub fn pruning_sound(&self) -> bool {
        self.v_partial <= self.v_star
    }

    /// Binds row `i` of the exponential cache for linear scans over the right
    /// endpoint (entries valid for `j ∈ i..=n`).
    #[inline]
    pub fn interval_row(&self, i: usize) -> IntervalRow<'_> {
        let start = i * self.cache.dim;
        let end = start + self.cache.dim;
        IntervalRow {
            exp_s: &self.cache.exp_s[start..end],
            em1_f: &self.cache.em1_f[start..end],
            em1_s: &self.cache.em1_s[start..end],
            em1_fs: &self.cache.em1_fs[start..end],
            em1_f_over_lambda: &self.cache.em1_f_over_lambda[start..end],
            p_fail: &self.cache.p_fail[start..end],
            t_lost: &self.cache.t_lost[start..end],
        }
    }

    /// Binds column `j` of the exponential cache for linear scans over the
    /// left endpoint (entries valid for `i ∈ 0..=j`).
    #[inline]
    pub fn interval_col(&self, j: usize) -> IntervalCol<'_> {
        let start = j * self.cache.dim;
        let end = start + self.cache.dim;
        IntervalCol {
            exp_s: &self.cache.exp_s_t[start..end],
            em1_f: &self.cache.em1_f_t[start..end],
            em1_s: &self.cache.em1_s_t[start..end],
            em1_fs: &self.cache.em1_fs_t[start..end],
            growth_fs: &self.cache.growth_fs_t[start..end],
            em1_f_over_lambda: &self.cache.em1_f_over_lambda_t[start..end],
        }
    }

    /// `R_D`, zeroed when the last disk checkpoint is the virtual task `T0`.
    #[inline]
    pub fn disk_recovery(&self, d1: usize) -> f64 {
        if d1 == 0 {
            0.0
        } else {
            self.r_disk
        }
    }

    /// `R_M`, zeroed when the last memory checkpoint is the virtual task `T0`.
    #[inline]
    pub fn memory_recovery(&self, m1: usize) -> f64 {
        if m1 == 0 {
            0.0
        } else {
            self.r_mem
        }
    }

    /// `W_{i,j}`: work of tasks `T_{i+1}..T_j`.
    #[inline]
    pub fn work(&self, i: usize, j: usize) -> f64 {
        self.scenario.work(i, j)
    }

    /// `E(d1, m1, v1, v2)` — Eq. (4): expected time to successfully execute
    /// tasks `T_{v1+1}..T_{v2}` and pass the guaranteed verification at `v2`,
    /// given the expected re-execution costs `emem = Emem(d1, m1)` and
    /// `everif = Everif(d1, m1, v1)` of the segments to the left.
    pub fn guaranteed_segment(
        &self,
        d1: usize,
        m1: usize,
        v1: usize,
        v2: usize,
        emem: f64,
        everif: f64,
    ) -> f64 {
        debug_assert!(d1 <= m1 && m1 <= v1 && v1 < v2, "bad segment ({d1},{m1},{v1},{v2})");
        let idx = self.cache.idx(v1, v2);
        let rd = self.disk_recovery(d1);
        let rm = self.memory_recovery(m1);
        let exp_s = self.cache.exp_s[idx];
        let expm1_f = self.cache.em1_f[idx];
        let expm1_fs = self.cache.em1_fs[idx];
        let expm1_s = self.cache.em1_s[idx];
        exp_s * (self.cache.em1_f_over_lambda[idx] + self.v_star)
            + exp_s * expm1_f * (rd + emem)
            + expm1_fs * everif
            + expm1_s * rm
    }

    /// Same expectation computed from the *recursive* formulation (Eq. (2)),
    /// by solving the linear fixed point directly.  Only used by tests and the
    /// ablation benchmarks to cross-check the algebraic simplification.
    pub fn guaranteed_segment_recursive(
        &self,
        d1: usize,
        m1: usize,
        v1: usize,
        v2: usize,
        emem: f64,
        everif: f64,
    ) -> f64 {
        let w = self.work(v1, v2);
        let rd = self.disk_recovery(d1);
        let rm = self.memory_recovery(m1);
        let pf = math::prob_at_least_one(self.lambda_f, w);
        let ps = math::prob_at_least_one(self.lambda_s, w);
        let t_lost = math::expected_time_lost(self.lambda_f, w);
        // E = pf (T_lost + R_D + Emem + Everif + E)
        //   + (1 − pf)(W + V* + ps (R_M + Everif + E))
        // Solve for E: E (1 − pf − (1−pf) ps) = rhs.
        let rhs = pf * (t_lost + rd + emem + everif)
            + (1.0 - pf) * (w + self.v_star + ps * (rm + everif));
        let denom = (1.0 - pf) * (1.0 - ps);
        rhs / denom
    }

    /// `E⁻(d1, m1, v1, p1, p2, v2)` of §III-B: expected time to successfully
    /// execute tasks `T_{p1+1}..T_{p2}` and pass the verification at `p2`,
    /// with the `Eleft` re-execution term removed.
    ///
    /// * `emem` — `Emem(d1, m1)`;
    /// * `everif` — `Everif(d1, m1, v1)`;
    /// * `eright_p2` — `E_right(d1, m1, v1, p2, v2)`, the expected downstream
    ///   loss when an error of this interval escapes the verification at `p2`;
    /// * `closes_at_guaranteed` — true when `p2 == v2`, i.e. the verification
    ///   ending this sub-interval is the closing guaranteed one.
    #[allow(clippy::too_many_arguments)]
    pub fn e_minus(
        &self,
        d1: usize,
        m1: usize,
        p1: usize,
        p2: usize,
        emem: f64,
        everif: f64,
        eright_p2: f64,
        closes_at_guaranteed: bool,
        model: PartialCostModel,
    ) -> f64 {
        debug_assert!(p1 < p2, "bad partial sub-interval ({p1},{p2})");
        let idx = self.cache.idx(p1, p2);
        let rd = self.disk_recovery(d1);
        let rm = self.memory_recovery(m1);
        let exp_s = self.cache.exp_s[idx];
        let expm1_f = self.cache.em1_f[idx];
        let expm1_fs = self.cache.em1_fs[idx];
        let expm1_s = self.cache.em1_s[idx];
        // Verification cost and detection semantics at p2.
        let (v_cost, g) = match (model, closes_at_guaranteed) {
            // The paper charges the partial cost V and recall r everywhere;
            // the (V* − V) difference is re-added in the E_partial base case.
            (PartialCostModel::PaperExact, _) => (self.v_partial, self.g),
            (PartialCostModel::Refined, false) => (self.v_partial, self.g),
            // Refined tail: the closing guaranteed verification is charged at
            // its real cost and detects with certainty.
            (PartialCostModel::Refined, true) => (self.v_star, 0.0),
        };
        exp_s * (self.cache.em1_f_over_lambda[idx] + v_cost)
            + exp_s * expm1_f * (rd + emem)
            + expm1_fs * everif
            + expm1_s * ((1.0 - g) * rm + g * eright_p2)
    }

    /// One step of the `E_right` recurrence: expected time lost executing
    /// tasks `T_{p1+1}..T_{v2}` *given* that an undetected silent error is
    /// present, when the next verification is at `p2` (the optimal position
    /// selected by the `E_partial` dynamic program).
    ///
    /// `eright_p2` is `E_right` evaluated at `p2`; the base case is
    /// `E_right(v2) = R_M` (with `R_M = 0` when `m1 = 0`).
    #[allow(clippy::too_many_arguments)]
    pub fn eright_step(
        &self,
        d1: usize,
        m1: usize,
        p1: usize,
        p2: usize,
        emem: f64,
        eright_p2: f64,
        closes_at_guaranteed: bool,
        model: PartialCostModel,
    ) -> f64 {
        debug_assert!(p1 < p2, "bad partial sub-interval ({p1},{p2})");
        let idx = self.cache.idx(p1, p2);
        let w = self.work(p1, p2);
        let rd = self.disk_recovery(d1);
        let rm = self.memory_recovery(m1);
        let pf = self.cache.p_fail[idx];
        let t_lost = self.cache.t_lost[idx];
        let (v_cost, g) = match (model, closes_at_guaranteed) {
            (PartialCostModel::PaperExact, _) => (self.v_partial, self.g),
            (PartialCostModel::Refined, false) => (self.v_partial, self.g),
            (PartialCostModel::Refined, true) => (self.v_star, 0.0),
        };
        pf * (t_lost + rd + emem) + (1.0 - pf) * (w + v_cost + (1.0 - g) * rm + g * eright_p2)
    }

    /// Base case of the `E_right` recurrence: the error is detected
    /// immediately by the guaranteed verification at `v2`, costing one memory
    /// recovery.
    #[inline]
    pub fn eright_base(&self, m1: usize) -> f64 {
        self.memory_recovery(m1)
    }

    /// Re-execution factor `e^{(λ_s + λ_f) W_{p2, v2}}` applied to
    /// `E⁻(…, p1, p2, v2)`: the expected number of times the sub-interval
    /// `(p1, p2]` is executed, accounting for errors detected to its right.
    #[inline]
    pub fn reexecution_factor(&self, p2: usize, v2: usize) -> f64 {
        self.cache.growth_fs[self.cache.idx(p2, v2)]
    }

    /// Correction added in the `E_partial` base case (`p2 = v2`): the closing
    /// verification is guaranteed, not partial, so the cost difference
    /// `V* − V` is charged with the multiplicity prescribed by `model`.
    #[inline]
    pub fn tail_verification_correction(
        &self,
        p1: usize,
        v2: usize,
        model: PartialCostModel,
    ) -> f64 {
        match model {
            PartialCostModel::PaperExact => {
                self.reexecution_factor(p1, v2) * (self.v_star - self.v_partial)
            }
            // The refined model already charges V* inside E⁻, so no correction.
            PartialCostModel::Refined => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain2l_model::math::approx_eq;
    use chain2l_model::pattern::WeightPattern;
    use chain2l_model::platform::{scr, Platform};
    use chain2l_model::{ResilienceCosts, Scenario};

    fn scenario(platform: &Platform, n: usize) -> Scenario {
        Scenario::paper_setup(platform, &WeightPattern::Uniform, n, 25_000.0).unwrap()
    }

    #[test]
    fn closed_form_matches_recursive_fixed_point() {
        // Eq. (4) is the algebraic simplification of Eq. (2); both must agree
        // for every platform, interval length and left-context cost.
        for platform in scr::all() {
            let s = scenario(&platform, 20);
            let calc = SegmentCalculator::new(&s);
            for &(d1, m1, v1, v2) in &[(0, 0, 0, 5), (0, 2, 4, 9), (3, 6, 6, 20), (0, 0, 10, 11)] {
                for &(emem, everif) in &[(0.0, 0.0), (137.5, 52.25), (2500.0, 800.0)] {
                    let closed = calc.guaranteed_segment(d1, m1, v1, v2, emem, everif);
                    let recursive = calc.guaranteed_segment_recursive(d1, m1, v1, v2, emem, everif);
                    assert!(
                        approx_eq(closed, recursive, 1e-9),
                        "{}: ({d1},{m1},{v1},{v2}) closed={closed} recursive={recursive}",
                        platform.name
                    );
                }
            }
        }
    }

    #[test]
    fn guaranteed_segment_exceeds_plain_work_plus_verification() {
        let s = scenario(&scr::hera(), 10);
        let calc = SegmentCalculator::new(&s);
        let e = calc.guaranteed_segment(0, 0, 0, 10, 0.0, 0.0);
        let w = s.work(0, 10);
        assert!(e > w + s.costs.guaranteed_verification, "E = {e} <= W + V*");
        // ...but not absurdly so for these small error rates (overhead < 20 %).
        assert!(e < 1.2 * w, "E = {e} suspiciously large");
    }

    #[test]
    fn guaranteed_segment_with_zero_rates_is_work_plus_verification() {
        let platform = Platform::new("ideal", 1, 0.0, 0.0, 300.0, 15.0).unwrap();
        let chain = WeightPattern::Uniform.generate(10, 25_000.0).unwrap();
        let costs = ResilienceCosts::paper_defaults(&platform);
        let s = Scenario::new(chain, platform, costs).unwrap();
        let calc = SegmentCalculator::new(&s);
        let e = calc.guaranteed_segment(0, 0, 2, 7, 123.0, 456.0);
        assert!(approx_eq(e, s.work(2, 7) + 15.0, 1e-12), "E = {e}");
    }

    #[test]
    fn recovery_costs_vanish_at_virtual_task() {
        let s = scenario(&scr::hera(), 5);
        let calc = SegmentCalculator::new(&s);
        assert_eq!(calc.disk_recovery(0), 0.0);
        assert_eq!(calc.memory_recovery(0), 0.0);
        assert_eq!(calc.disk_recovery(1), 300.0);
        assert_eq!(calc.memory_recovery(3), 15.4);
    }

    #[test]
    fn guaranteed_segment_monotone_in_left_context() {
        // Larger re-execution costs on the left can only increase the segment
        // expectation (their coefficients are non-negative).
        let s = scenario(&scr::atlas(), 30);
        let calc = SegmentCalculator::new(&s);
        let base = calc.guaranteed_segment(0, 5, 10, 20, 100.0, 50.0);
        assert!(calc.guaranteed_segment(0, 5, 10, 20, 200.0, 50.0) > base);
        assert!(calc.guaranteed_segment(0, 5, 10, 20, 100.0, 150.0) > base);
    }

    #[test]
    fn guaranteed_segment_monotone_in_interval_length() {
        let s = scenario(&scr::coastal(), 30);
        let calc = SegmentCalculator::new(&s);
        let mut prev = 0.0;
        for v2 in 11..=30 {
            let e = calc.guaranteed_segment(0, 5, 10, v2, 80.0, 40.0);
            assert!(e > prev, "E(0,5,10,{v2}) = {e} not increasing");
            prev = e;
        }
    }

    #[test]
    fn e_minus_paper_reduces_to_guaranteed_segment_up_to_tail_correction() {
        // With no partial verification in the interval (p1 = v1, p2 = v2), the
        // paper's E⁻ + correction must equal Eq. (4) up to the documented
        // tail-accounting difference, and the refined model must equal it
        // exactly.
        for platform in scr::all() {
            let s = scenario(&platform, 25);
            let calc = SegmentCalculator::new(&s);
            let (d1, m1, v1, v2) = (2usize, 4usize, 6usize, 14usize);
            let emem = 321.0;
            let everif = 77.0;
            let guaranteed = calc.guaranteed_segment(d1, m1, v1, v2, emem, everif);
            let eright_v2 = calc.eright_base(m1);

            // Refined model: exact match.
            let refined = calc.e_minus(
                d1,
                m1,
                v1,
                v2,
                emem,
                everif,
                eright_v2,
                true,
                PartialCostModel::Refined,
            ) + calc.tail_verification_correction(v1, v2, PartialCostModel::Refined);
            assert!(
                approx_eq(refined, guaranteed, 1e-9),
                "{}: refined={refined} guaranteed={guaranteed}",
                platform.name
            );

            // Paper model: match within the tiny documented slack
            // (V*−V)·(e^{(λs+λf)W} − e^{λs W}), and never below.
            let paper = calc.e_minus(
                d1,
                m1,
                v1,
                v2,
                emem,
                everif,
                eright_v2,
                true,
                PartialCostModel::PaperExact,
            ) + calc.tail_verification_correction(v1, v2, PartialCostModel::PaperExact);
            let w = s.work(v1, v2);
            let slack = (s.costs.guaranteed_verification - s.costs.partial_verification)
                * (chain2l_model::math::exp_lw(s.combined_rate(), w)
                    - chain2l_model::math::exp_lw(s.platform.lambda_silent, w));
            assert!(paper >= guaranteed - 1e-9, "{}: paper={paper}", platform.name);
            assert!(
                (paper - guaranteed - slack).abs() < 1e-9,
                "{}: paper={paper} guaranteed={guaranteed} slack={slack}",
                platform.name
            );
        }
    }

    #[test]
    fn eright_step_is_bounded_by_interval_work_plus_overheads() {
        let s = scenario(&scr::hera(), 20);
        let calc = SegmentCalculator::new(&s);
        // Undetected error, next verification 3 tasks away.
        let e = calc.eright_step(0, 2, 5, 8, 100.0, 30.0, false, PartialCostModel::PaperExact);
        let w = s.work(5, 8);
        // Loss is at least part of the work and at most work + recovery +
        // verification + downstream loss + re-execution context.
        assert!(e > 0.0);
        assert!(e < w + 300.0 + 100.0 + s.costs.partial_verification + 30.0 + 20.0);
    }

    #[test]
    fn eright_base_is_memory_recovery() {
        let s = scenario(&scr::coastal_ssd(), 10);
        let calc = SegmentCalculator::new(&s);
        assert_eq!(calc.eright_base(0), 0.0);
        assert_eq!(calc.eright_base(4), 180.0);
    }

    #[test]
    fn reexecution_factor_is_one_for_empty_tail_and_grows_with_work() {
        let s = scenario(&scr::hera(), 20);
        let calc = SegmentCalculator::new(&s);
        assert!(approx_eq(calc.reexecution_factor(20, 20), 1.0, 1e-15));
        let f1 = calc.reexecution_factor(15, 20);
        let f2 = calc.reexecution_factor(10, 20);
        assert!(f1 > 1.0);
        assert!(f2 > f1);
    }

    #[test]
    fn tail_correction_positive_for_paper_zero_for_refined() {
        let s = scenario(&scr::hera(), 20);
        let calc = SegmentCalculator::new(&s);
        assert!(calc.tail_verification_correction(10, 20, PartialCostModel::PaperExact) > 0.0);
        assert_eq!(calc.tail_verification_correction(10, 20, PartialCostModel::Refined), 0.0);
    }

    #[test]
    fn interval_row_e_minus_is_bit_identical_to_scalar_form() {
        for platform in scr::all() {
            let s = scenario(&platform, 25);
            let calc = SegmentCalculator::new(&s);
            let (d1, m1) = (2usize, 4usize);
            let (emem, everif, eright) = (321.0, 77.0, 12.5);
            let a = calc.disk_recovery(d1) + emem;
            let g = calc.miss_probability();
            let miss_rm = (1.0 - g) * calc.memory_recovery(m1);
            for p1 in [4usize, 9, 20] {
                let row = calc.interval_row(p1);
                for p2 in (p1 + 1)..=25 {
                    let scalar = calc.e_minus(
                        d1,
                        m1,
                        p1,
                        p2,
                        emem,
                        everif,
                        eright,
                        false,
                        PartialCostModel::PaperExact,
                    );
                    let flat = row.e_minus_at(p2, calc.v_partial(), g, a, everif, miss_rm, eright);
                    assert_eq!(scalar.to_bits(), flat.to_bits(), "({p1},{p2})");
                }
            }
        }
    }

    #[test]
    fn interval_col_guaranteed_segment_is_bit_identical_to_scalar_form() {
        for platform in scr::all() {
            let s = scenario(&platform, 25);
            let calc = SegmentCalculator::new(&s);
            let (d1, m1, emem, everif) = (1usize, 3usize, 150.0, 40.0);
            let a = calc.disk_recovery(d1) + emem;
            let rm = calc.memory_recovery(m1);
            for v2 in [10usize, 25] {
                let col = calc.interval_col(v2);
                for v1 in m1..v2 {
                    let scalar = calc.guaranteed_segment(d1, m1, v1, v2, emem, everif);
                    let flat = col.guaranteed_segment_at(v1, calc.v_star(), a, rm, everif);
                    assert_eq!(scalar.to_bits(), flat.to_bits(), "({v1},{v2})");
                    assert_eq!(
                        col.reexecution_factor_at(v1).to_bits(),
                        calc.reexecution_factor(v1, v2).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn segment_costs_dominate_work_plus_verification_lower_bound() {
        // The pruning bounds rely on E ≥ W + V* and E⁻ ≥ W + V for every
        // interval and every left context (DESIGN.md §4).
        for platform in scr::all() {
            let s = scenario(&platform, 30);
            let calc = SegmentCalculator::new(&s);
            assert!(calc.pruning_sound());
            for &(v1, v2) in &[(0usize, 1usize), (3, 9), (0, 30), (28, 30)] {
                let w = s.work(v1, v2);
                let e = calc.guaranteed_segment(0, 0, v1, v2, 0.0, 0.0);
                assert!(e >= w + s.costs.guaranteed_verification - 1e-9, "({v1},{v2})");
                for model in [PartialCostModel::PaperExact, PartialCostModel::Refined] {
                    let em = calc.e_minus(0, 0, v1, v2, 0.0, 0.0, 0.0, false, model);
                    assert!(em >= w + s.costs.partial_verification - 1e-9, "({v1},{v2})");
                    let closing = calc.e_minus(0, 0, v1, v2, 0.0, 0.0, 0.0, true, model)
                        + calc.tail_verification_correction(v1, v2, model);
                    assert!(closing >= w + s.costs.guaranteed_verification - 1e-9, "({v1},{v2})");
                }
            }
        }
    }

    #[test]
    fn pruning_guard_rejects_inverted_verification_costs() {
        let mut s = scenario(&scr::hera(), 5);
        s.costs.partial_verification = s.costs.guaranteed_verification * 2.0;
        let calc = SegmentCalculator::new(&s);
        assert!(!calc.pruning_sound());
    }

    #[test]
    fn prefix_weights_match_interval_work() {
        let s = scenario(&scr::atlas(), 12);
        let calc = SegmentCalculator::new(&s);
        let prefix = calc.prefix_weights();
        assert_eq!(prefix.len(), 13);
        for i in 0..=12usize {
            for j in i..=12 {
                assert_eq!((prefix[j] - prefix[i]).to_bits(), s.work(i, j).to_bits());
            }
        }
    }
}
