//! Shared dynamic-programming state of the `d1`-sharded optimizers.
//!
//! Both the §III-A ([`crate::two_level`]) and §III-B ([`crate::partial`])
//! dynamic programs decompose into independent disk-segment slices — one per
//! candidate predecessor disk checkpoint `d1`, each owning the
//! `Everif(d1, ·, ·)` sub-table and the `Emem(d1, ·)` row — topped by a
//! sequential `Edisk` level.  This module holds that state ([`DiskSlice`],
//! [`DpTables`]), the shared `Edisk` recurrence ([`edisk_level`]) and the
//! finalized-entry accounting behind `DpStatistics::table_entries`.
//!
//! Storage is struct-of-arrays: every level keeps an `f64` **value plane** —
//! the only data the hot candidate scans touch — and a separate `u32`
//! **argmin plane** that is written once per finalized cell and read again
//! only by schedule reconstruction.  Splitting the planes keeps the scanned
//! cache lines free of argmin bytes (and `u32` halves the argmin footprint
//! outright); since the argmin of a cell is a pure function of its value
//! scan, the split cannot change any schedule.  Boundary indices are stored
//! as `u32` with [`NO_CHOICE`] as the "not computed" sentinel — chain sizes
//! beyond `u32` are far outside the `O(n⁴)`–`O(n⁶)` DP regime.  Both `Everif`
//! planes are packed upper trapezoids ([`SliceTable2`]): row `m1` stores only
//! the columns `m1..=n` the recurrences write, so a slice holds no dead cells
//! for the kernels to fill, extensions to re-stride or snapshots to copy.
//!
//! `table_entries` is kept as a running count: each slice adds the finite
//! value cells it writes as it finalizes a column ([`DiskSlice::entries`]),
//! so reading the statistics costs `O(n)`, not a scan of every plane.
//!
//! All backing buffers are checked out of a [`TableArena`] and returned to
//! it when the tables are retired ([`DpTables::recycle`]), so a long-lived
//! engine re-solves mostly from recycled buffers.  The tables are also
//! growable (via [`SliceTable2::grow`], in place, and [`DiskSlice::grow`]):
//! the engine's extension route extends a finished table set from `n` to
//! `n' > n` when the task-weight prefix is unchanged, re-running only the
//! new columns.

use crate::arena::TableArena;
use crate::simd_scan::ScanCounters;
use crate::tables::{trapezoid_len, SliceTable2};
use rayon::prelude::*;

/// "Not computed" sentinel of the `u32` argmin planes.
pub(crate) const NO_CHOICE: u32 = u32::MAX;

/// The self-contained DP state of one disk-segment slice: everything the
/// recurrences compute for a fixed predecessor disk checkpoint `d1`.
pub(crate) struct DiskSlice {
    /// `Everif(d1, m1, v2)` value plane, packed: rows span `m1 ∈ d1..n` (one
    /// row when interior memory checkpoints are forbidden, as in `A_DV*`) and
    /// row `m1` holds the columns `v2 ∈ m1..=n`.
    pub everif: SliceTable2<f64>,
    /// Argmin `v1` plane for `Everif(d1, m1, v2)` (reconstruction only).
    pub everif_choice: SliceTable2<u32>,
    /// `Emem(d1, m2)` value row, indexed by `m2`.
    pub emem: Vec<f64>,
    /// Argmin `m1` row for `Emem(d1, m2)` (reconstruction only).
    pub emem_choice: Vec<u32>,
    /// Candidate positions examined while filling this slice (cumulative
    /// across incremental extensions).
    pub candidates: u64,
    /// Blocked-scan dispatch tallies of this slice (cumulative, like
    /// `candidates`; see [`ScanCounters`]).
    pub scan: ScanCounters,
    /// Finite value cells written so far (`Everif` and `Emem`), counted by
    /// the kernels as they finalize each column — always equal to
    /// [`Self::count_finite_entries`], without its scan.
    pub entries: usize,
}

impl DiskSlice {
    /// Checks out an empty slice for disk predecessor `d1` with `rows`
    /// packed Everif rows and columns up to `n`, drawing every plane from
    /// `arena`.
    ///
    /// # Panics
    /// Panics if the rows do not fit the columns (`d1 + rows > n + 1`).
    pub fn new_in(arena: &TableArena, n: usize, d1: usize, rows: usize) -> Self {
        let cells = trapezoid_len(n, d1, rows).expect("slice rows fit the columns");
        Self {
            everif: SliceTable2::from_buffer(n, d1, rows, arena.take_f64(cells, f64::INFINITY)),
            everif_choice: SliceTable2::from_buffer(n, d1, rows, arena.take_u32(cells, NO_CHOICE)),
            emem: arena.take_f64(n + 1, f64::INFINITY),
            emem_choice: arena.take_u32(n + 1, NO_CHOICE),
            candidates: 0,
            scan: ScanCounters::default(),
            entries: 0,
        }
    }

    /// Returns every backing buffer to `arena`.
    pub fn recycle(self, arena: &TableArena) {
        arena.give_f64(self.everif.into_buffer());
        arena.give_u32(self.everif_choice.into_buffer());
        arena.give_f64(self.emem);
        arena.give_u32(self.emem_choice);
    }

    /// Deep-copies the slice, drawing the copies' backing buffers from
    /// `arena` — the snapshot path's capture primitive (the copies are
    /// bit-identical, so a snapshot taken from them equals one taken from
    /// the originals).
    pub fn deep_clone_in(&self, arena: &TableArena) -> Self {
        let mut emem = arena.take_f64(self.emem.len(), 0.0);
        emem.clear();
        emem.extend_from_slice(&self.emem);
        let mut emem_choice = arena.take_u32(self.emem_choice.len(), NO_CHOICE);
        emem_choice.clear();
        emem_choice.extend_from_slice(&self.emem_choice);
        Self {
            everif: self.everif.clone_into(arena.take_f64(self.everif.entries(), 0.0)),
            everif_choice: self
                .everif_choice
                .clone_into(arena.take_u32(self.everif_choice.entries(), NO_CHOICE)),
            emem,
            emem_choice,
            candidates: self.candidates,
            scan: self.scan,
            entries: self.entries,
        }
    }

    /// Grows the slice in place to columns up to `new_n` and `new_rows`
    /// Everif rows, preserving every computed entry.
    pub fn grow(&mut self, new_n: usize, new_rows: usize) {
        self.everif.grow(new_n, new_rows, f64::INFINITY);
        self.everif_choice.grow(new_n, new_rows, NO_CHOICE);
        self.emem.resize(new_n + 1, f64::INFINITY);
        self.emem_choice.resize(new_n + 1, NO_CHOICE);
    }

    /// Counts the finite value cells by scanning both value planes: how a
    /// decoded snapshot slice recovers [`Self::entries`], and the reference
    /// the running count is tested against.
    pub fn count_finite_entries(&self) -> usize {
        self.everif.as_slice().iter().filter(|v| v.is_finite()).count()
            + self.emem.iter().filter(|v| v.is_finite()).count()
    }
}

/// Full DP state: one slice per candidate `d1`, plus the `Edisk` level.
pub(crate) struct DpTables {
    pub slices: Vec<DiskSlice>,
    /// `Edisk(d2)` value row.
    pub edisk: Vec<f64>,
    /// Argmin `d1` row for `Edisk(d2)` (reconstruction only).
    pub edisk_choice: Vec<u32>,
    /// Candidates examined by shared (hoisted-across-slices) lower-bound
    /// passes, cumulative across incremental extensions (`A_DMV`'s
    /// per-column candidate floors; 0 for the two-level kernels).
    pub floor_candidates: u64,
    /// Blocked-scan tallies of the shared lower-bound passes (cumulative,
    /// like `floor_candidates`).
    pub floor_scan: ScanCounters,
    /// Candidate positions examined across every level, at the current `n`.
    pub candidates: u64,
    /// Blocked-scan tallies across every level, at the current `n`
    /// (slices + shared floors, refreshed by [`refresh_edisk`]).
    pub scan: ScanCounters,
}

impl DpTables {
    /// Number of finalized value entries across all levels — the honest
    /// `DpStatistics::table_entries`: never-written cells (initialised to
    /// `INFINITY`) are not counted, so pruning and slice collapse gains show
    /// up in the reported statistics.  Sums the slices' running counts and
    /// scans only the `Edisk` row, `O(n)` in all.
    pub fn finalized_entries(&self) -> usize {
        self.slices.iter().map(|slice| slice.entries).sum::<usize>()
            + self.edisk.iter().filter(|v| v.is_finite()).count()
    }

    /// Retires the tables, returning every backing buffer to `arena` for the
    /// next solve to reuse.
    pub fn recycle(self, arena: &TableArena) {
        for slice in self.slices {
            slice.recycle(arena);
        }
        arena.give_f64(self.edisk);
        arena.give_u32(self.edisk_choice);
    }

    /// Deep-copies the full table set through `arena` (see
    /// [`DiskSlice::deep_clone_in`]); recycle the copy back into the same
    /// arena when done so repeated snapshots reuse the same buffers.
    pub fn deep_clone_in(&self, arena: &TableArena) -> Self {
        let mut edisk = arena.take_f64(self.edisk.len(), 0.0);
        edisk.clear();
        edisk.extend_from_slice(&self.edisk);
        let mut edisk_choice = arena.take_u32(self.edisk_choice.len(), NO_CHOICE);
        edisk_choice.clear();
        edisk_choice.extend_from_slice(&self.edisk_choice);
        Self {
            slices: self.slices.iter().map(|slice| slice.deep_clone_in(arena)).collect(),
            edisk,
            edisk_choice,
            floor_candidates: self.floor_candidates,
            floor_scan: self.floor_scan,
            candidates: self.candidates,
            scan: self.scan,
        }
    }
}

/// Assembles finished slices and the `Edisk` level into a [`DpTables`],
/// drawing the `Edisk` buffers from `arena`.  `floor_candidates` is the
/// shared lower-bound work performed outside the slices (see
/// [`DpTables::floor_candidates`]).
pub(crate) fn finish_tables(
    arena: &TableArena,
    disk_checkpoint: f64,
    slices: Vec<DiskSlice>,
    n: usize,
    floor_candidates: u64,
    floor_scan: ScanCounters,
) -> DpTables {
    let mut tables = DpTables {
        slices,
        edisk: arena.take_f64(n + 1, f64::INFINITY),
        edisk_choice: arena.take_u32(n + 1, NO_CHOICE),
        floor_candidates,
        floor_scan,
        candidates: 0,
        scan: ScanCounters::default(),
    };
    refresh_edisk(disk_checkpoint, &mut tables, n);
    tables
}

/// Grows the slice set from `old_n` to `new_n` tasks: existing slices grow
/// and refill only the new columns — batched over the pool with
/// [`par_chunks_mut`] (a slice extension near `d1 = old_n` is tiny, so
/// chunking keeps scheduling overhead off the kernels) — and the new slices
/// `d1 ∈ old_n..new_n` fill cold from `arena`.  `rows(n, d1)` sizes a
/// slice's `Everif` band; `fill(d1, slice, from_m2)` runs the kernel.  Call
/// [`refresh_edisk`] afterwards.
///
/// [`par_chunks_mut`]: rayon::prelude::ParallelSliceMut::par_chunks_mut
pub(crate) fn extend_slices<R, F>(
    arena: &TableArena,
    slices: &mut Vec<DiskSlice>,
    old_n: usize,
    new_n: usize,
    rows: R,
    fill: F,
) where
    R: Fn(usize, usize) -> usize + Sync,
    F: Fn(usize, &mut DiskSlice, usize) + Sync,
{
    debug_assert!(new_n > old_n);
    let chunk = (old_n / (4 * rayon::current_num_threads())).max(1);
    slices.par_chunks_mut(chunk).for_each(|batch| {
        for slice in batch {
            let d1 = slice.everif.row_base();
            slice.grow(new_n, rows(new_n, d1));
            fill(d1, slice, old_n + 1);
        }
    });
    let new_slices: Vec<DiskSlice> = (old_n..new_n)
        .into_par_iter()
        .map(|d1| {
            let mut slice = DiskSlice::new_in(arena, new_n, d1, rows(new_n, d1));
            fill(d1, &mut slice, d1 + 1);
            slice
        })
        .collect();
    slices.extend(new_slices);
}

/// (Re)runs the sequential `Edisk` level over the finished slices — in
/// place, reusing the existing `Edisk` buffers — and refreshes the
/// table-wide candidate total (slice counters are cumulative, so this is
/// exact after both cold fills and extensions).
pub(crate) fn refresh_edisk(disk_checkpoint: f64, tables: &mut DpTables, n: usize) {
    let slice_candidates: u64 = tables.slices.iter().map(|s| s.candidates).sum();
    let edisk_candidates = edisk_level(
        disk_checkpoint,
        &tables.slices,
        n,
        &mut tables.edisk,
        &mut tables.edisk_choice,
    );
    tables.candidates = slice_candidates + edisk_candidates + tables.floor_candidates;
    let mut scan = tables.floor_scan;
    for slice in &tables.slices {
        scan.add(slice.scan);
    }
    tables.scan = scan;
}

/// Runs the sequential `Edisk` level over the finished slices into the
/// provided value/argmin rows (resized and fully rewritten) and returns the
/// number of candidates examined.
///
/// `Edisk(d2) = min_{d1 < d2} Edisk(d1) + Emem(d1, d2) + C_D`, scanned in
/// ascending `d1` with a strict minimum (first argmin wins on ties).
fn edisk_level(
    disk_checkpoint: f64,
    slices: &[DiskSlice],
    n: usize,
    edisk: &mut Vec<f64>,
    edisk_choice: &mut Vec<u32>,
) -> u64 {
    edisk.clear();
    edisk.resize(n + 1, f64::INFINITY);
    edisk_choice.clear();
    edisk_choice.resize(n + 1, NO_CHOICE);
    let mut candidates = 0u64;
    edisk[0] = 0.0;
    for d2 in 1..=n {
        let mut best = f64::INFINITY;
        let mut best_d1 = NO_CHOICE;
        for (d1, slice) in slices.iter().enumerate().take(d2) {
            candidates += 1;
            let cand = edisk[d1] + slice.emem[d2] + disk_checkpoint;
            if cand < best {
                best = cand;
                best_d1 = d1 as u32;
            }
        }
        edisk[d2] = best;
        edisk_choice[d2] = best_d1;
    }
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{kernel_for, KernelState};
    use crate::segment::SegmentCalculator;
    use crate::Algorithm;
    use chain2l_model::platform::scr;
    use chain2l_model::{ResilienceCosts, Scenario, TaskChain};

    /// Hera with 400 s tasks: a prefix-stable chain the extension route can
    /// grow one task at a time.
    fn weak(n: usize) -> Scenario {
        let platform = scr::hera();
        let costs = ResilienceCosts::paper_defaults(&platform);
        Scenario::new(TaskChain::from_weights(vec![400.0; n]).unwrap(), platform, costs).unwrap()
    }

    /// The `Everif` cells the recurrences define for an `n`-task chain:
    /// `Everif(d1, m1, v2)` for `d1 ≤ m1 ≤ v2 ≤ n`, `m1 < n`, with `m1 = d1`
    /// only when interior memory checkpoints are forbidden (`A_DV*`).
    fn defined_everif_cells(n: usize, algorithm: Algorithm) -> usize {
        (0..n)
            .map(|d1| {
                let last_m1 = if algorithm == Algorithm::SingleLevel { d1 + 1 } else { n };
                (d1..last_m1).map(|m1| n - m1 + 1).sum::<usize>()
            })
            .sum()
    }

    /// Asserts that the tables store exactly the defined cells, every one of
    /// them written, and that the running `table_entries` equals a scan.
    fn assert_no_dead_cells(state: &KernelState, n: usize, algorithm: Algorithm, when: &str) {
        let tables = &state.tables;
        assert_eq!(tables.slices.len(), n, "{when}");
        let stored: usize = tables.slices.iter().map(|s| s.everif.entries()).sum();
        assert_eq!(stored, defined_everif_cells(n, algorithm), "{when}: stored Everif cells");
        for (d1, slice) in tables.slices.iter().enumerate() {
            assert_eq!(slice.everif.row_base(), d1, "{when}");
            assert_eq!(slice.everif_choice.entries(), slice.everif.entries(), "{when}");
            assert!(
                slice.everif.as_slice().iter().all(|v| v.is_finite()),
                "{when}: slice {d1} stores an unwritten Everif cell"
            );
            assert_eq!(slice.entries, slice.count_finite_entries(), "{when}: slice {d1}");
        }
        let scanned = tables.slices.iter().map(DiskSlice::count_finite_entries).sum::<usize>()
            + tables.edisk.iter().filter(|v| v.is_finite()).count();
        assert_eq!(state.statistics().table_entries, scanned, "{when}: reported vs scanned");
    }

    #[test]
    fn tables_store_no_dead_cells_after_cold_fills_and_extensions() {
        let arena = TableArena::new();
        for algorithm in [
            Algorithm::SingleLevel,
            Algorithm::TwoLevel,
            Algorithm::TwoLevelPartial,
            Algorithm::TwoLevelPartialRefined,
        ] {
            let kernel = kernel_for(algorithm);
            for n in [1usize, 2, 10, 50, 90] {
                let scenario = weak(n);
                let calc = SegmentCalculator::new(&scenario);
                let mut state = kernel.compute(&calc, n, &arena);
                assert_no_dead_cells(&state, n, algorithm, &format!("{algorithm:?} cold n={n}"));
                for next in n + 1..=n + 2 {
                    let scenario = weak(next);
                    let calc = SegmentCalculator::new(&scenario);
                    kernel.extend(&calc, &mut state, next - 1, next, &arena);
                    let when = format!("{algorithm:?} n={n} extended to {next}");
                    assert_no_dead_cells(&state, next, algorithm, &when);
                }
                state.recycle(&arena);
            }
        }
    }
}
