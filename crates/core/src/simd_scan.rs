//! Runtime control and shared helpers of the vectorized candidate scans.
//!
//! The hot candidate scans of [`crate::two_level`] and [`crate::partial`]
//! process their rows in 4-lane blocks on [`wide_lite::f64x4`]
//! (DESIGN.md §11).  This module holds the pieces the kernels share:
//!
//! * the **scalar escape hatch** — [`simd_enabled`] / [`set_simd_enabled`],
//!   seeded from the `CHAIN2L_NO_SIMD` environment variable — which forces
//!   every kernel back onto the original scalar loops.  The blocked kernels
//!   are bit-identical to the scalar ones by construction (the equivalence
//!   proptest `simd_equivalence.rs` enforces it), so the hatch exists for
//!   A/B verification and for bisecting miscompiles, not for correctness;
//! * [`ScanCounters`] — the per-slice tallies of 4-lane blocks dispatched
//!   on the vector fast path vs. blocks that fell back to per-lane scalar
//!   resolution, threaded through `DpStatistics`/`EngineStats`;
//! * [`LaneMin`] — the blocked argmin accumulator: per-lane strict-`<`
//!   minima (each lane keeps the lowest index of its residue class) merged
//!   by an explicit lowest-index tie-break, which reproduces the sequential
//!   ascending strict-`<` scan's `(value, argmin)` pair exactly.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use wide_lite::f64x4;

/// Set when the vectorized scans are disabled (the scalar escape hatch).
/// Initialised lazily from `CHAIN2L_NO_SIMD`.
static SIMD_DISABLED: OnceLock<AtomicBool> = OnceLock::new();

fn disabled_flag() -> &'static AtomicBool {
    SIMD_DISABLED.get_or_init(|| {
        let off = std::env::var_os("CHAIN2L_NO_SIMD").is_some_and(|v| v != "0");
        AtomicBool::new(off)
    })
}

/// Whether the DP kernels use the 4-lane blocked candidate scans (the
/// default) or the original scalar loops.
///
/// Seeded from the `CHAIN2L_NO_SIMD` environment variable (set to anything
/// but `0` to disable SIMD); flipped at runtime by [`set_simd_enabled`].
/// Kernels read the flag once per slice fill, so a flip lands on the next
/// solve, not mid-scan.
pub fn simd_enabled() -> bool {
    !disabled_flag().load(Ordering::Relaxed)
}

/// Enables or disables the vectorized scans at runtime (overrides the
/// `CHAIN2L_NO_SIMD` environment variable).
///
/// Both paths produce bit-identical values, argmins and candidate counts —
/// this switch is the A/B lever of the equivalence tests, and only the
/// [`DpStatistics`] scan counters reveal which path ran.
///
/// [`DpStatistics`]: crate::solution::DpStatistics
pub fn set_simd_enabled(on: bool) {
    disabled_flag().store(!on, Ordering::Relaxed);
}

/// Tallies of the blocked candidate scans (see DESIGN.md §11).
///
/// A *block* is one 4-lane step of a pruned scan: either the whole block is
/// rejected by the masked bound test (`simd_blocks`) or at least one lane
/// needs per-lane resolution — a break, a survivor evaluation, or a
/// mid-block incumbent update (`scalar_fallbacks`).  The unpruned floor
/// columns count their always-evaluated blocks as `simd_blocks`.  Both are
/// deterministic functions of the scenario (they do not depend on thread
/// count), cumulative across incremental extensions, and zero when the
/// scalar escape hatch is active.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ScanCounters {
    /// 4-lane blocks fully dispatched on the vector fast path.
    pub simd_blocks: u64,
    /// 4-lane blocks resolved lane-by-lane in scalar code.
    pub scalar_fallbacks: u64,
}

impl ScanCounters {
    /// Accumulates another tally into this one.
    pub fn add(&mut self, other: ScanCounters) {
        self.simd_blocks += other.simd_blocks;
        self.scalar_fallbacks += other.scalar_fallbacks;
    }
}

/// Blocked argmin accumulator over 4-lane value blocks.
///
/// Each lane tracks the minimum seen in its residue class with a strict-`<`
/// update, so a lane holds the *lowest* index achieving its value (later
/// equal values never displace it — exactly the sequential rule).
/// [`Self::finish`] merges the lanes with an explicit lowest-index
/// tie-break, so for inputs free of NaN and `-0.0` (which the DP candidate
/// streams are, see DESIGN.md §11) the merged `(value, index)` pair is
/// bit-identical to the ascending scalar scan's.
pub(crate) struct LaneMin {
    values: f64x4,
    indices: [u32; 4],
}

impl LaneMin {
    /// An empty accumulator: all lanes `+inf` with sentinel indices.
    pub fn new() -> Self {
        Self { values: f64x4::INFINITY, indices: [u32::MAX; 4] }
    }

    /// Feeds one block whose lane `l` holds the candidate at index
    /// `base + l`.  Blocks must be fed in ascending `base` order.
    #[inline(always)]
    pub fn update(&mut self, values: f64x4, base: usize) {
        let mask = values.cmp_lt(self.values);
        self.values = mask.blend(values, self.values);
        let m = mask.move_mask();
        for l in 0..4 {
            if m & (1 << l) != 0 {
                self.indices[l] = (base + l) as u32;
            }
        }
    }

    /// Merges the lanes: smallest value wins, lowest index breaks ties.
    /// Returns `(f64::INFINITY, u32::MAX)` if nothing was fed.
    pub fn finish(self) -> (f64, u32) {
        let values = self.values.to_array();
        let mut best = f64::INFINITY;
        let mut index = u32::MAX;
        for (l, &value) in values.iter().enumerate() {
            if value < best || (value == best && self.indices[l] < index) {
                best = value;
                index = self.indices[l];
            }
        }
        (best, index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggle_round_trips() {
        let initial = simd_enabled();
        set_simd_enabled(false);
        assert!(!simd_enabled());
        set_simd_enabled(true);
        assert!(simd_enabled());
        set_simd_enabled(initial);
    }

    #[test]
    fn lane_min_matches_sequential_scan() {
        // Reference: ascending strict-< scan (keeps the first minimum).
        let reference = |xs: &[f64]| {
            let mut best = f64::INFINITY;
            let mut idx = u32::MAX;
            for (i, &x) in xs.iter().enumerate() {
                if x < best {
                    best = x;
                    idx = i as u32;
                }
            }
            (best, idx)
        };
        let cases: [&[f64]; 5] = [
            &[5.0, 3.0, 4.0, 1.0, 2.0, 1.0, 9.0, 8.0],
            &[1.0, 1.0, 1.0, 1.0],
            &[4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0],
            &[2.0, 7.0, 2.0, 9.0, 0.5, 0.5, 0.5, 0.5],
            &[8.0, 6.0, 7.0, 5.0, 3.0, 0.0, 9.0, 0.0],
        ];
        for xs in cases {
            let mut lanes = LaneMin::new();
            for (block, chunk) in xs.chunks_exact(4).enumerate() {
                lanes.update(f64x4::from_slice(chunk), block * 4);
            }
            assert_eq!(lanes.finish(), reference(xs), "{xs:?}");
        }
    }

    #[test]
    fn lane_min_empty_is_sentinel() {
        let (v, i) = LaneMin::new().finish();
        assert_eq!(v, f64::INFINITY);
        assert_eq!(i, u32::MAX);
    }

    #[test]
    fn counters_accumulate() {
        let mut a = ScanCounters { simd_blocks: 3, scalar_fallbacks: 1 };
        a.add(ScanCounters { simd_blocks: 2, scalar_fallbacks: 5 });
        assert_eq!(a, ScanCounters { simd_blocks: 5, scalar_fallbacks: 6 });
    }
}
