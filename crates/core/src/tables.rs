//! Packed upper-trapezoid dynamic-programming tables.
//!
//! The `d1`-sharded dynamic programs keep one 2-D `Everif(d1, m1, v2)`
//! sub-table per disk-segment slice.  The §III recurrences define a cell only
//! for `m1 ≤ v2` — a segment's verifications come after its memory
//! checkpoint — so a rectangular `rows × (n + 1)` plane would leave every
//! cell left of the diagonal allocated but never written.  [`SliceTable2`]
//! stores only the live cells, in the packed triangular layout of LAPACK's
//! `TP` format (Anderson et al., *LAPACK Users' Guide*, 3rd ed., SIAM 1999):
//! row `m1` holds columns `m1..=n`, rows sit back to back, and each row's
//! start is a closed form ([`trapezoid_len`]).  The row axis starts at the
//! slice's `d1` and spans only the rows the slice can touch, so the plane
//! shrinks as `d1` grows and collapses to a single row for the single-level
//! algorithm `A_DV*`.
//!
//! Cells start out as the checkout's fill value ([`f64::INFINITY`] /
//! [`u32::MAX`]), which doubles as a cheap "not computed" marker during
//! debugging.

/// Number of cells a packed plane with `rows` rows starting at `row_base`
/// holds for columns up to `n`: row `row_base + i` stores the `n + 1 −
/// row_base − i` columns `row_base + i..=n`.
///
/// Returns `None` when some row would be empty (`row_base + rows > n + 1`)
/// or the count overflows `usize`, so untrusted shapes (snapshot decode) are
/// rejected instead of panicking.
pub fn trapezoid_len(n: usize, row_base: usize, rows: usize) -> Option<usize> {
    let first = n.checked_add(1)?.checked_sub(row_base)?;
    if rows > first {
        return None;
    }
    // rows·first − rows(rows−1)/2; the subtrahend never exceeds the product
    // once `rows ≤ first`.
    let full = rows.checked_mul(first)?;
    Some(full - rows * rows.saturating_sub(1) / 2)
}

/// Offset of packed row `i` in a plane whose row 0 holds `first` cells:
/// `i·first − i(i−1)/2`, i.e. the summed lengths `first, first − 1, …` of the
/// rows before it.  `i·(2·first + 1 − i)` is always even.
#[inline]
fn row_start(first: usize, i: usize) -> usize {
    i * (2 * first + 1 - i) / 2
}

/// A packed upper-trapezoid 2-D table indexed by `(row, col)` with
/// `row ∈ row_base..row_base + rows` and `col ∈ row..=n`.
///
/// This is the storage behind one `d1` slice of the sharded dynamic programs:
/// the `Everif(d1, m1, v2)` sub-table only ever touches rows `m1 ≥ d1`
/// (a single row `m1 = d1` for `A_DV*`) and columns `v2 ≥ m1`, so the plane
/// holds exactly those cells and nothing else.
#[derive(Debug, Clone)]
pub struct SliceTable2<T> {
    row_base: usize,
    rows: usize,
    dim: usize,
    data: Vec<T>,
}

impl<T: Copy> SliceTable2<T> {
    /// Creates a table with `rows` rows starting at `row_base` and columns up
    /// to `n`, filled with `fill`.
    ///
    /// # Panics
    /// Panics if a row would be empty (`row_base + rows > n + 1`).
    pub fn new(n: usize, row_base: usize, rows: usize, fill: T) -> Self {
        let len = trapezoid_len(n, row_base, rows).expect("rows fit the columns");
        Self { row_base, rows, dim: n + 1, data: vec![fill; len] }
    }

    /// Wraps a pre-filled backing buffer (e.g. one checked out of a
    /// [`crate::arena::TableArena`]) as a packed plane.  The buffer must
    /// already hold the desired initial value in every cell.
    ///
    /// # Panics
    /// Panics if `data.len()` is not [`trapezoid_len`]`(n, row_base, rows)`.
    pub(crate) fn from_buffer(n: usize, row_base: usize, rows: usize, data: Vec<T>) -> Self {
        let len = trapezoid_len(n, row_base, rows);
        assert_eq!(Some(data.len()), len, "buffer does not match {rows} rows from {row_base}");
        Self { row_base, rows, dim: n + 1, data }
    }

    /// Retires the table, handing its backing buffer back to the caller
    /// (for return to a [`crate::arena::TableArena`]).
    pub(crate) fn into_buffer(self) -> Vec<T> {
        self.data
    }

    /// Clones the table into `buf` (an arena checkout of any length — it is
    /// cleared and refilled), preserving shape and every entry bit-exactly.
    pub(crate) fn clone_into(&self, mut buf: Vec<T>) -> Self {
        buf.clear();
        buf.extend_from_slice(&self.data);
        Self { row_base: self.row_base, rows: self.rows, dim: self.dim, data: buf }
    }

    /// Grows the table **in place** to columns up to `new_n` and `new_rows`
    /// rows (same `row_base`), preserving every existing entry and filling
    /// the new cells with `fill`.
    ///
    /// This is the storage step of the incremental-in-`n` solver: extending a
    /// finished slice from `n` to `n' > n` re-strides the packed rows inside
    /// the existing allocation (one `resize`, then a backwards row-by-row
    /// `copy_within`) and keeps all computed prefixes bit-identical.  Only
    /// live cells move; no fresh allocation is made beyond the `Vec`'s own
    /// capacity growth, and row 0 never moves.
    ///
    /// # Panics
    /// Panics if the new shape shrinks either axis or leaves a row empty.
    pub fn grow(&mut self, new_n: usize, new_rows: usize, fill: T) {
        let new_dim = new_n + 1;
        assert!(new_dim >= self.dim, "cannot shrink columns {} -> {new_dim}", self.dim);
        assert!(new_rows >= self.rows, "cannot shrink rows {} -> {new_rows}", self.rows);
        if new_dim == self.dim && new_rows == self.rows {
            return;
        }
        let new_len = trapezoid_len(new_n, self.row_base, new_rows).expect("rows fit the columns");
        self.data.resize(new_len, fill);
        if new_dim > self.dim {
            // Every old row keeps its length plus `widen` new columns, so its
            // start only moves right.  Re-stride from the last old row down
            // to row 1 (row 0 already starts at offset 0): moving backwards
            // means a row's source cells are never overwritten before they
            // are copied, and `copy_within` handles the self-overlap of each
            // move.  The gap columns of every moved row are then re-filled;
            // the new rows lie past the old data, inside the `resize` fill.
            let old_first = self.dim - self.row_base;
            let new_first = new_dim - self.row_base;
            let widen = new_dim - self.dim;
            for i in (0..self.rows).rev() {
                let src = row_start(old_first, i);
                let dst = row_start(new_first, i);
                let len = old_first - i;
                if i > 0 {
                    self.data.copy_within(src..src + len, dst);
                }
                self.data[dst + len..dst + len + widen].fill(fill);
            }
        }
        self.dim = new_dim;
        self.rows = new_rows;
    }

    /// First valid row index.
    pub fn row_base(&self) -> usize {
        self.row_base
    }

    /// Number of rows allocated.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of cells stored ([`trapezoid_len`] of the shape).
    pub fn entries(&self) -> usize {
        self.data.len()
    }

    #[inline]
    fn idx(&self, row: usize, col: usize) -> usize {
        debug_assert!(
            row >= self.row_base && row < self.row_base + self.rows && row <= col && col < self.dim,
            "({row},{col}) out of rows {}..{} x cols row..{}",
            self.row_base,
            self.row_base + self.rows,
            self.dim
        );
        row_start(self.dim - self.row_base, row - self.row_base) + (col - row)
    }

    /// Reads entry `(row, col)`; both are absolute boundary indices and
    /// `col ≥ row`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> T {
        self.data[self.idx(row, col)]
    }

    /// Writes entry `(row, col)`; both are absolute boundary indices and
    /// `col ≥ row`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: T) {
        let idx = self.idx(row, col);
        self.data[idx] = value;
    }

    /// Writes one table column in a single strided pass: cell
    /// `(first_row + i, col)` takes `values[i]`.
    ///
    /// This is the deferred argmin write-back of the blocked kernels
    /// (DESIGN.md §11): the value scans accumulate each cell's
    /// `(min, argmin)` pair in registers and the finalized argmins of a
    /// whole column are flushed here in one pass, keeping the `u32` store
    /// stream out of the innermost loops.  In the packed layout the step
    /// from row `r` to row `r + 1` of one column is row `r`'s length minus
    /// one, `n − r`.
    #[inline]
    pub(crate) fn write_column(&mut self, col: usize, first_row: usize, values: &[T]) {
        debug_assert!(first_row + values.len() <= self.row_base + self.rows);
        debug_assert!(first_row + values.len() <= col + 1);
        let mut idx = self.idx(first_row, col);
        for (row, &v) in (first_row..).zip(values) {
            self.data[idx] = v;
            idx += self.dim - 1 - row;
        }
    }

    /// Borrows one row as a contiguous slice of its stored columns
    /// `row..=n`: element `k` is column `row + k`.  `row` is an absolute
    /// boundary index.
    ///
    /// The dynamic-programming kernels iterate rows linearly through this
    /// accessor instead of issuing per-candidate [`Self::get`] calls, so the
    /// innermost loops run over prefetched contiguous memory.
    #[inline]
    pub fn row(&self, row: usize) -> &[T] {
        let start = self.idx(row, row);
        &self.data[start..start + (self.dim - row)]
    }

    /// The backing storage: the packed rows back to back.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every stored cell `(row, col)` of a table's shape, in storage order.
    fn cells(n: usize, row_base: usize, rows: usize) -> Vec<(usize, usize)> {
        (row_base..row_base + rows).flat_map(|r| (r..=n).map(move |c| (r, c))).collect()
    }

    #[test]
    fn trapezoid_len_counts_the_upper_trapezoid() {
        for n in 0..12usize {
            for row_base in 0..=n {
                for rows in 0..=n + 1 - row_base {
                    let want = cells(n, row_base, rows).len();
                    assert_eq!(
                        trapezoid_len(n, row_base, rows),
                        Some(want),
                        "{n} {row_base} {rows}"
                    );
                }
                assert_eq!(trapezoid_len(n, row_base, n + 2 - row_base), None);
            }
            assert_eq!(trapezoid_len(n, n + 2, 0), None);
        }
        assert_eq!(trapezoid_len(usize::MAX, 0, 1), None);
        assert_eq!(trapezoid_len(usize::MAX - 1, 0, usize::MAX), None);
    }

    #[test]
    fn slice_table_round_trip_with_offset_rows() {
        let n = 6;
        let mut t = SliceTable2::new(n, 2, 4, f64::INFINITY);
        assert_eq!(t.row_base(), 2);
        assert_eq!(t.rows(), 4);
        assert_eq!(t.entries(), 5 + 4 + 3 + 2);
        for (row, col) in cells(n, 2, 4) {
            t.set(row, col, (row * 10 + col) as f64);
        }
        for (row, col) in cells(n, 2, 4) {
            assert_eq!(t.get(row, col), (row * 10 + col) as f64);
        }
    }

    #[test]
    fn slice_table_distinct_cells_do_not_alias() {
        // Write a unique value in every cell and read the plane back: the
        // packed rows sit back to back in row-major order, no gaps, no
        // overlaps.
        let n = 7;
        let mut t = SliceTable2::new(n, 1, 5, 0u32);
        let shape = cells(n, 1, 5);
        for (k, &(row, col)) in shape.iter().enumerate() {
            t.set(row, col, k as u32);
        }
        let want: Vec<u32> = (0..shape.len() as u32).collect();
        assert_eq!(t.as_slice(), &want[..]);
    }

    #[test]
    fn slice_table_single_row_collapses_allocation() {
        let t = SliceTable2::new(50, 7, 1, 0.0f64);
        assert_eq!(t.entries(), 44);
        assert_eq!(t.get(7, 50), 0.0);
        assert_eq!(t.row(7).len(), 44);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn slice_table_below_row_base_panics_in_debug() {
        let t = SliceTable2::new(5, 3, 2, 0.0f64);
        let _ = t.get(2, 4);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn slice_table_left_of_the_diagonal_panics_in_debug() {
        let t = SliceTable2::new(5, 1, 3, 0.0f64);
        let _ = t.get(3, 2);
    }

    #[test]
    #[should_panic]
    fn new_rejects_rows_past_the_last_column() {
        let _ = SliceTable2::new(3, 2, 3, 0.0f64);
    }

    #[test]
    fn slice_table_corner_indices() {
        // The four corners of the trapezoid: first row's diagonal and last
        // column, last row's diagonal and last column.
        let (n, base, rows) = (6usize, 2usize, 4usize);
        let mut t = SliceTable2::new(n, base, rows, 0usize);
        let last = base + rows - 1;
        for (k, (row, col)) in
            [(base, base), (base, n), (last, last), (last, n)].into_iter().enumerate()
        {
            t.set(row, col, k + 1);
        }
        assert_eq!(t.as_slice()[0], 1);
        assert_eq!(t.as_slice()[n - base], 2);
        assert_eq!(t.get(last, last), 3);
        assert_eq!(*t.as_slice().last().unwrap(), 4);
        assert_eq!(t.get(base + 1, base + 1), 0);
    }

    #[test]
    fn slice_table_rows_are_contiguous_and_indexable() {
        let n = 5;
        let mut t = SliceTable2::new(n, 1, 3, 0.0f64);
        for (row, col) in cells(n, 1, 3) {
            t.set(row, col, (row * 100 + col) as f64);
        }
        let row2 = t.row(2);
        assert_eq!(row2.len(), n + 1 - 2);
        assert_eq!(row2[0], 202.0);
        assert_eq!(row2[3], 205.0);
        assert_eq!(t.as_slice().len(), 5 + 4 + 3);
    }

    #[test]
    fn grow_preserves_existing_entries_and_fills_new_cells() {
        let mut t = SliceTable2::new(3, 1, 2, f64::INFINITY);
        t.set(1, 1, 10.0);
        t.set(1, 3, 13.0);
        t.set(2, 2, 22.0);
        t.grow(6, 5, f64::INFINITY);
        assert_eq!(t.rows(), 5);
        assert_eq!(t.entries(), 6 + 5 + 4 + 3 + 2);
        assert_eq!(t.get(1, 1), 10.0);
        assert_eq!(t.get(1, 3), 13.0);
        assert_eq!(t.get(2, 2), 22.0);
        // New columns of old rows and entirely new rows start as fill.
        assert!(t.get(1, 6).is_infinite());
        assert!(t.get(4, 4).is_infinite());
        // Growing to the same shape is a no-op.
        t.grow(6, 5, f64::INFINITY);
        assert_eq!(t.get(1, 3), 13.0);
    }

    #[test]
    #[should_panic]
    fn grow_rejects_shrinking() {
        let mut t = SliceTable2::new(5, 0, 3, 0.0f64);
        t.grow(4, 3, 0.0);
    }

    #[test]
    fn grow_extends_in_place_when_capacity_suffices() {
        // A column extension re-strides inside the existing allocation: with
        // enough spare capacity the backing buffer must not move.
        let old_len = trapezoid_len(4, 2, 2).unwrap();
        let new_len = trapezoid_len(10, 2, 2).unwrap();
        let mut buf = Vec::with_capacity(new_len);
        buf.resize(old_len, f64::INFINITY);
        let mut t = SliceTable2::from_buffer(4, 2, 2, buf);
        for (row, col) in cells(4, 2, 2) {
            t.set(row, col, (row * 100 + col) as f64);
        }
        let ptr = t.as_slice().as_ptr();
        t.grow(10, 2, f64::INFINITY);
        assert_eq!(t.as_slice().as_ptr(), ptr, "column growth must not reallocate");
        for row in 2..4 {
            for col in row..=4 {
                assert_eq!(t.get(row, col), (row * 100 + col) as f64, "({row},{col})");
            }
            for col in 5..=10 {
                assert!(t.get(row, col).is_infinite(), "({row},{col}) not filled");
            }
        }
        let recycled = t.into_buffer();
        assert_eq!(recycled.len(), new_len);
    }

    #[test]
    fn grow_in_both_axes_matches_a_fresh_copy() {
        // Cross-check the in-place re-striding against the obvious
        // allocate-and-copy reference for a ragged set of shapes.
        for (rows, old_n, new_rows, new_n) in [
            (1usize, 1usize, 4usize, 7usize),
            (3, 4, 3, 9),
            (2, 6, 5, 6),
            (4, 6, 5, 13),
            (6, 6, 12, 12),
        ] {
            let mut t = SliceTable2::new(old_n, 1, rows, -1.0f64);
            let mut reference = SliceTable2::new(new_n, 1, new_rows, -2.0f64);
            for (r, c) in cells(old_n, 1, rows) {
                let v = (r * 1000 + c) as f64;
                t.set(r, c, v);
                reference.set(r, c, v);
            }
            t.grow(new_n, new_rows, -2.0);
            assert_eq!(t.as_slice(), reference.as_slice(), "{rows}x{old_n} -> {new_rows}x{new_n}");
        }
    }

    #[test]
    #[should_panic]
    fn from_buffer_rejects_mismatched_lengths() {
        let _ = SliceTable2::from_buffer(3, 0, 2, vec![0.0f64; 8]);
    }

    #[test]
    fn write_column_matches_per_cell_stores() {
        let n = 6;
        let mut by_cell = SliceTable2::new(n, 2, 4, u32::MAX);
        let mut by_column = SliceTable2::new(n, 2, 4, u32::MAX);
        // Column `col` of the kernels covers the rows below it, `2..col`.
        for col in [3usize, 5, n] {
            let values: Vec<u32> = (0..col - 2).map(|i| (col * 10 + i) as u32).collect();
            for (i, &v) in values.iter().enumerate() {
                by_cell.set(2 + i, col, v);
            }
            by_column.write_column(col, 2, &values);
        }
        assert_eq!(by_cell.as_slice(), by_column.as_slice());
        assert_eq!(by_column.get(5, 6), 63);
        // Untouched cells keep the fill value.
        assert_eq!(by_column.get(5, 5), u32::MAX);
        // A full-height column write covers every row, diagonal included.
        by_column.write_column(5, 2, &[9, 8, 7, 6]);
        for (i, want) in [9u32, 8, 7, 6].into_iter().enumerate() {
            assert_eq!(by_column.get(2 + i, 5), want);
        }
    }
}
