//! Compressed Sparse Row storage (§II-A of the paper).
//!
//! CSR keeps an array of row pointers (`rpt`), and per-nonzero column
//! indices and values. All SpGEMM algorithms in this reproduction consume
//! and produce CSR, exactly as the paper requires ("All input and output
//! matrices are stored in CSR format", §III).

#![cfg_attr(
    not(test),
    warn(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)
)]

use crate::convert::{ix, to_u64, try_u32};
use crate::scalar::{approx_eq, Scalar};
use crate::{Result, SparseError};

/// Width in bytes of one device-side CSR index (row-pointer entry or
/// column index). The paper's device-memory arithmetic assumes 4-byte
/// integers throughout (§III-D); every footprint formula and scan charge
/// derives from this constant, so a future 64-bit-index refactor changes
/// it in exactly one place.
pub const DEVICE_INDEX_BYTES: u64 = 4;

/// Convert a dimension or dense coordinate to a device column index.
///
/// # Panics
/// When `n` exceeds the 4-byte device index: such a dimension is
/// unrepresentable in this storage, so the infallible constructors
/// reject it loudly rather than silently wrapping.
#[expect(clippy::panic, reason = "unrepresentable dimension in infallible constructors")]
fn dev_index(n: usize) -> u32 {
    try_u32(n).unwrap_or_else(|e| panic!("{e}"))
}

/// A sparse matrix in CSR format.
///
/// Invariants (checked by [`Csr::validate`], guaranteed by safe
/// constructors):
/// * `rpt.len() == rows + 1`, `rpt[0] == 0`, `rpt` non-decreasing,
///   `rpt[rows] == col.len() == val.len()`;
/// * within each row, column indices are strictly increasing (sorted,
///   no duplicates) and `< cols`.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr<T> {
    rows: usize,
    cols: usize,
    rpt: Vec<usize>,
    col: Vec<u32>,
    val: Vec<T>,
}

impl<T: Scalar> Csr<T> {
    /// An `rows x cols` matrix with no stored entries.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Csr { rows, cols, rpt: vec![0; rows + 1], col: Vec::new(), val: Vec::new() }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Csr {
            rows: n,
            cols: n,
            rpt: (0..=n).collect(),
            col: (0..dev_index(n)).collect(),
            val: vec![T::ONE; n],
        }
    }

    /// Build from raw CSR arrays, validating every invariant.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        rpt: Vec<usize>,
        col: Vec<u32>,
        val: Vec<T>,
    ) -> Result<Self> {
        let m = Csr { rows, cols, rpt, col, val };
        m.validate()?;
        Ok(m)
    }

    /// Build from raw CSR arrays without per-entry validation.
    ///
    /// Used on hot paths by the SpGEMM kernels, which construct rows
    /// sorted by design. An O(1) structural spot-check (row-pointer
    /// length, first/last offsets, col/val agreement) always runs so a
    /// malformed shape is an error rather than latent UB-adjacent state
    /// in release builds too; the full O(nnz) invariant check still
    /// runs in debug builds.
    pub fn from_parts_unchecked(
        rows: usize,
        cols: usize,
        rpt: Vec<usize>,
        col: Vec<u32>,
        val: Vec<T>,
    ) -> Result<Self> {
        if rpt.len() != rows + 1 {
            return Err(SparseError::MalformedRowPointers(format!(
                "rpt has {} entries for {} rows (want rows + 1)",
                rpt.len(),
                rows
            )));
        }
        if rpt[0] != 0 {
            return Err(SparseError::MalformedRowPointers(format!("rpt[0] = {} (want 0)", rpt[0])));
        }
        if rpt[rows] != col.len() || col.len() != val.len() {
            return Err(SparseError::MalformedRowPointers(format!(
                "rpt[rows] = {} but col/val hold {}/{} entries",
                rpt[rows],
                col.len(),
                val.len()
            )));
        }
        let m = Csr { rows, cols, rpt, col, val };
        debug_assert!(m.validate().is_ok(), "from_parts_unchecked got malformed CSR");
        Ok(m)
    }

    /// Build from `(row, col, value)` triplets in any order; duplicates
    /// are summed (Matrix Market semantics). The three `rows + 1` arrays
    /// are reserved before any is written, so a row count the heap
    /// cannot hold is a [`SparseError::Overflow`], not an abort.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, u32, T)]) -> Result<Self> {
        for &(r, c, _) in triplets {
            if r >= rows {
                return Err(SparseError::RowOutOfBounds { row: r, rows });
            }
            if ix(c) >= cols {
                return Err(SparseError::ColumnOutOfBounds { row: r, col: c, cols });
            }
        }
        let mut row_arrays = [Vec::new(), Vec::new(), Vec::new()];
        for v in &mut row_arrays {
            v.try_reserve_exact(rows.saturating_add(1)).map_err(|_| {
                SparseError::Overflow(format!("{rows} rows: 3 row arrays do not fit the heap"))
            })?;
        }
        let [mut counts, mut slot, mut rpt] = row_arrays.map(|mut v| {
            v.resize(rows + 1, 0usize);
            v
        });
        // Counting sort by row, then sort+combine within each row.
        for &(r, _, _) in triplets {
            counts[r + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        slot.copy_from_slice(&counts);
        let mut col = vec![0u32; triplets.len()];
        let mut val = vec![T::ZERO; triplets.len()];
        for &(r, c, v) in triplets {
            let s = slot[r];
            col[s] = c;
            val[s] = v;
            slot[r] += 1;
        }
        // Sort each row and sum duplicates in place.
        let mut out_col = Vec::with_capacity(triplets.len());
        let mut out_val = Vec::with_capacity(triplets.len());
        let mut scratch: Vec<(u32, T)> = Vec::new();
        for r in 0..rows {
            scratch.clear();
            scratch.extend(
                col[counts[r]..counts[r + 1]]
                    .iter()
                    .copied()
                    .zip(val[counts[r]..counts[r + 1]].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut v = scratch[i].1;
                i += 1;
                while i < scratch.len() && scratch[i].0 == c {
                    v += scratch[i].1;
                    i += 1;
                }
                out_col.push(c);
                out_val.push(v);
            }
            rpt[r + 1] = out_col.len();
        }
        Ok(Csr { rows, cols, rpt, col: out_col, val: out_val })
    }

    /// Dense constructor for small test matrices: `data[r][c]`.
    pub fn from_dense(data: &[Vec<T>]) -> Self {
        let rows = data.len();
        let cols = data.first().map_or(0, |r| r.len());
        let mut rpt = vec![0usize; rows + 1];
        let mut col = Vec::new();
        let mut val = Vec::new();
        for (r, row) in data.iter().enumerate() {
            assert_eq!(row.len(), cols, "ragged dense input");
            for (c, &v) in row.iter().enumerate() {
                if v != T::ZERO {
                    col.push(dev_index(c));
                    val.push(v);
                }
            }
            rpt[r + 1] = col.len();
        }
        Csr { rows, cols, rpt, col, val }
    }

    /// Check every CSR invariant; see type-level docs.
    pub fn validate(&self) -> Result<()> {
        if self.rpt.len() != self.rows + 1 {
            return Err(SparseError::MalformedRowPointers(format!(
                "rpt.len() = {}, expected rows + 1 = {}",
                self.rpt.len(),
                self.rows + 1
            )));
        }
        if self.rpt[0] != 0 {
            return Err(SparseError::MalformedRowPointers(format!(
                "rpt[0] = {}, expected 0",
                self.rpt[0]
            )));
        }
        let tail = self.rpt.last().copied().unwrap_or(0);
        if tail != self.col.len() || self.col.len() != self.val.len() {
            return Err(SparseError::MalformedRowPointers(format!(
                "rpt[rows] = {}, col.len() = {}, val.len() = {}",
                tail,
                self.col.len(),
                self.val.len()
            )));
        }
        for r in 0..self.rows {
            if self.rpt[r] > self.rpt[r + 1] {
                return Err(SparseError::MalformedRowPointers(format!("rpt decreases at row {r}")));
            }
            let Some(cols) = self.col.get(self.rpt[r]..self.rpt[r + 1]) else {
                return Err(SparseError::MalformedRowPointers(format!(
                    "row {r} ends at {}, past nnz = {}",
                    self.rpt[r + 1],
                    self.col.len()
                )));
            };
            for w in cols.windows(2) {
                if w[0] == w[1] {
                    return Err(SparseError::DuplicateEntry { row: r, col: w[0] });
                }
                if w[0] > w[1] {
                    return Err(SparseError::UnsortedRow { row: r });
                }
            }
            if let Some(&c) = cols.last() {
                if ix(c) >= self.cols {
                    return Err(SparseError::ColumnOutOfBounds { row: r, col: c, cols: self.cols });
                }
            }
        }
        Ok(())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col.len()
    }

    /// Row pointer array (`rpt` in the paper's pseudocode).
    #[inline]
    pub fn rpt(&self) -> &[usize] {
        &self.rpt
    }

    /// Column index array.
    #[inline]
    pub fn col(&self) -> &[u32] {
        &self.col
    }

    /// Value array.
    #[inline]
    pub fn val(&self) -> &[T] {
        &self.val
    }

    /// Number of stored entries in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.rpt[r + 1] - self.rpt[r]
    }

    /// Column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[T]) {
        let span = self.rpt[r]..self.rpt[r + 1];
        (&self.col[span.clone()], &self.val[span])
    }

    /// Device footprint in bytes under the paper's 4-byte-integer CSR
    /// layout: `4 * (rows + 1)` for `rpt`, `4 * nnz` for `col`,
    /// `T::BYTES * nnz` for values.
    pub fn device_bytes(&self) -> u64 {
        DEVICE_INDEX_BYTES * (to_u64(self.rows) + 1)
            + (DEVICE_INDEX_BYTES + to_u64(T::BYTES)) * to_u64(self.nnz())
    }

    /// The row pointer, columns and values, moved out.
    pub(crate) fn into_arrays(self) -> (Vec<usize>, Vec<u32>, Vec<T>) {
        (self.rpt, self.col, self.val)
    }

    /// The sub-matrix of rows `range` (same column space): row pointers
    /// rebased to 0, entries copied. Used by the batched executor to
    /// carve `A` into row ranges whose working set fits the device.
    ///
    /// Panics on an out-of-range `range`; callers holding *untrusted*
    /// ranges (the engine's job-submission boundary) must use
    /// [`Csr::try_slice_rows`] instead.
    #[expect(clippy::panic, reason = "panic documented above; fallible sibling exists")]
    pub fn slice_rows(&self, range: std::ops::Range<usize>) -> Self {
        self.try_slice_rows(range.clone())
            .unwrap_or_else(|_| panic!("slice_rows {range:?} out of bounds for {} rows", self.rows))
    }

    /// Fallible [`Csr::slice_rows`]: an inverted or out-of-range row
    /// range is an error, never a panic — the form service boundaries
    /// validating caller-supplied ranges must use.
    pub fn try_slice_rows(&self, range: std::ops::Range<usize>) -> Result<Self> {
        if range.start > range.end || range.end > self.rows {
            return Err(SparseError::RowOutOfBounds {
                row: range.start.max(range.end),
                rows: self.rows,
            });
        }
        let base = self.rpt[range.start];
        let rpt: Vec<usize> = self.rpt[range.start..=range.end].iter().map(|&p| p - base).collect();
        let span = base..self.rpt[range.end];
        Ok(Csr {
            rows: range.len(),
            cols: self.cols,
            rpt,
            col: self.col[span.clone()].to_vec(),
            val: self.val[span].to_vec(),
        })
    }

    /// Transpose. O(nnz + rows + cols).
    pub fn transpose(&self) -> Self {
        let mut rpt = vec![0usize; self.cols + 1];
        for &c in &self.col {
            rpt[ix(c) + 1] += 1;
        }
        for i in 0..self.cols {
            rpt[i + 1] += rpt[i];
        }
        let mut slot = rpt.clone();
        let mut col = vec![0u32; self.nnz()];
        let mut val = vec![T::ZERO; self.nnz()];
        for r in 0..self.rows {
            let r32 = dev_index(r);
            let (cs, vs) = self.row(r);
            for (&c, &v) in cs.iter().zip(vs) {
                let s = slot[ix(c)];
                col[s] = r32;
                val[s] = v;
                slot[ix(c)] += 1;
            }
        }
        Csr { rows: self.cols, cols: self.rows, rpt, col, val }
    }

    /// Sparse matrix-vector product `y = A * x`.
    pub fn spmv(&self, x: &[T]) -> Result<Vec<T>> {
        if x.len() != self.cols {
            return Err(SparseError::DimensionMismatch(format!(
                "spmv: x.len() = {}, cols = {}",
                x.len(),
                self.cols
            )));
        }
        let mut y = vec![T::ZERO; self.rows];
        for (r, y_r) in y.iter_mut().enumerate() {
            let (cs, vs) = self.row(r);
            let mut acc = T::ZERO;
            for (&c, &v) in cs.iter().zip(vs) {
                acc += v * x[ix(c)];
            }
            *y_r = acc;
        }
        Ok(y)
    }

    /// Element-wise sum `A + B` (merge of sorted rows).
    pub fn add(&self, other: &Self) -> Result<Self> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(SparseError::DimensionMismatch(format!(
                "add: {}x{} + {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut rpt = vec![0usize; self.rows + 1];
        let mut col = Vec::with_capacity(self.nnz() + other.nnz());
        let mut val = Vec::with_capacity(self.nnz() + other.nnz());
        for r in 0..self.rows {
            let (ac, av) = self.row(r);
            let (bc, bv) = other.row(r);
            let (mut i, mut j) = (0, 0);
            while i < ac.len() || j < bc.len() {
                let take_a = j >= bc.len() || (i < ac.len() && ac[i] < bc[j]);
                let take_b = i >= ac.len() || (j < bc.len() && bc[j] < ac[i]);
                if take_a {
                    col.push(ac[i]);
                    val.push(av[i]);
                    i += 1;
                } else if take_b {
                    col.push(bc[j]);
                    val.push(bv[j]);
                    j += 1;
                } else {
                    col.push(ac[i]);
                    val.push(av[i] + bv[j]);
                    i += 1;
                    j += 1;
                }
            }
            rpt[r + 1] = col.len();
        }
        Ok(Csr { rows: self.rows, cols: self.cols, rpt, col, val })
    }

    /// Scale all values by `s`.
    pub fn scaled(&self, s: T) -> Self {
        let mut m = self.clone();
        for v in &mut m.val {
            *v = *v * s;
        }
        m
    }

    /// Dense representation (small matrices / tests only).
    pub fn to_dense(&self) -> Vec<Vec<T>> {
        let mut d = vec![vec![T::ZERO; self.cols]; self.rows];
        for (r, d_r) in d.iter_mut().enumerate() {
            let (cs, vs) = self.row(r);
            for (&c, &v) in cs.iter().zip(vs) {
                d_r[ix(c)] = v;
            }
        }
        d
    }

    /// Structural + numerical comparison with tolerance. Patterns must
    /// match exactly; values compared by [`approx_eq`].
    pub fn approx_eq(&self, other: &Self, rtol: f64, atol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.rpt == other.rpt
            && self.col == other.col
            && self.val.iter().zip(&other.val).all(|(&a, &b)| approx_eq(a, b, rtol, atol))
    }

    /// Convert values to another precision (used to run the same dataset
    /// in single and double precision).
    pub fn cast<U: Scalar>(&self) -> Csr<U> {
        Csr {
            rows: self.rows,
            cols: self.cols,
            rpt: self.rpt.clone(),
            col: self.col.clone(),
            val: self.val.iter().map(|v| U::from_f64(v.to_f64())).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr<f64> {
        // [1 0 2]
        // [0 0 3]
        // [4 5 0]
        Csr::from_dense(&[vec![1.0, 0.0, 2.0], vec![0.0, 0.0, 3.0], vec![4.0, 5.0, 0.0]])
    }

    #[test]
    fn from_dense_layout() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.rpt(), &[0, 2, 3, 5]);
        assert_eq!(m.col(), &[0, 2, 2, 0, 1]);
        assert_eq!(m.val(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        m.validate().unwrap();
    }

    #[test]
    fn row_accessors() {
        let m = sample();
        assert_eq!(m.row_nnz(0), 2);
        assert_eq!(m.row_nnz(1), 1);
        let (c, v) = m.row(2);
        assert_eq!(c, &[0, 1]);
        assert_eq!(v, &[4.0, 5.0]);
    }

    #[test]
    fn from_triplets_sorts_and_sums_duplicates() {
        let m =
            Csr::<f64>::from_triplets(2, 3, &[(1, 2, 1.0), (0, 1, 2.0), (1, 2, 3.0), (0, 0, 1.0)])
                .unwrap();
        assert_eq!(m.rpt(), &[0, 2, 3]);
        assert_eq!(m.col(), &[0, 1, 2]);
        assert_eq!(m.val(), &[1.0, 2.0, 4.0]);
    }

    #[test]
    fn from_triplets_rejects_out_of_bounds() {
        assert!(matches!(
            Csr::<f64>::from_triplets(2, 2, &[(2, 0, 1.0)]),
            Err(SparseError::RowOutOfBounds { .. })
        ));
        assert!(matches!(
            Csr::<f64>::from_triplets(2, 2, &[(0, 5, 1.0)]),
            Err(SparseError::ColumnOutOfBounds { .. })
        ));
    }

    #[test]
    fn validate_detects_malformed() {
        assert!(Csr::<f64>::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err()); // short rpt
        assert!(Csr::<f64>::from_parts(1, 2, vec![0, 2], vec![1, 0], vec![1.0, 2.0]).is_err()); // unsorted
        assert!(Csr::<f64>::from_parts(1, 2, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err()); // dup
        assert!(Csr::<f64>::from_parts(1, 2, vec![0, 1], vec![7], vec![1.0]).is_err()); // col oob
        assert!(Csr::<f64>::from_parts(1, 2, vec![1, 1], vec![], vec![]).is_err());
        // rpt[0] != 0
        let overshoot = Csr::<f64>::from_parts(2, 2, vec![0, 3, 2], vec![0, 1], vec![1.0, 2.0]);
        assert!(matches!(overshoot, Err(SparseError::MalformedRowPointers(_))));
    }

    #[test]
    fn identity_and_diag() {
        let i = Csr::<f32>::identity(4);
        assert_eq!(i.nnz(), 4);
        let x = vec![1.0f32, 2.0, 3.0, 4.0];
        assert_eq!(i.spmv(&x).unwrap(), x);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.to_dense()[2][1], 3.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_rectangular() {
        let m = Csr::from_dense(&[vec![1.0f64, 0.0, 2.0, 0.0], vec![0.0, 3.0, 0.0, 4.0]]);
        let t = m.transpose();
        assert_eq!((t.rows(), t.cols()), (4, 2));
        t.validate().unwrap();
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn spmv_matches_dense() {
        let m = sample();
        let y = m.spmv(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(y, vec![7.0, 9.0, 14.0]);
        assert!(m.spmv(&[1.0]).is_err());
    }

    #[test]
    fn add_merges_rows() {
        let a = sample();
        let b = Csr::from_dense(&[vec![0.0, 1.0, -2.0], vec![1.0, 0.0, 0.0], vec![0.0, -5.0, 0.0]]);
        let s = a.add(&b).unwrap();
        assert_eq!(
            s.to_dense(),
            vec![vec![1.0, 1.0, 0.0], vec![1.0, 0.0, 3.0], vec![4.0, 0.0, 0.0],]
        );
        // Cancelled entries stay as explicit zeros.
        assert_eq!(s.nnz(), 7);
    }

    #[test]
    fn device_bytes_formula() {
        let m = sample(); // f64: 4*(3+1) + (4+8)*5 = 16 + 60
        assert_eq!(m.device_bytes(), 76);
        let m32: Csr<f32> = m.cast();
        assert_eq!(m32.device_bytes(), 16 + 8 * 5);
    }

    #[test]
    fn cast_roundtrip_pattern() {
        let m = sample();
        let s: Csr<f32> = m.cast();
        let d: Csr<f64> = s.cast();
        assert_eq!(d.col(), m.col());
        assert!(d.approx_eq(&m, 1e-6, 0.0));
    }

    #[test]
    fn scaled_multiplies_values() {
        let m = sample().scaled(2.0);
        assert_eq!(m.val(), &[2.0, 4.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn try_slice_rows_rejects_bad_ranges() {
        let m = sample();
        // Valid slices agree with the panicking form.
        for range in [0..0, 0..3, 1..2, 3..3] {
            let s = m.try_slice_rows(range.clone()).unwrap();
            assert_eq!(s, m.slice_rows(range));
        }
        // Out-of-range / inverted ranges are errors, not aborts.
        assert!(matches!(m.try_slice_rows(0..4), Err(SparseError::RowOutOfBounds { .. })));
        assert!(matches!(m.try_slice_rows(5..9), Err(SparseError::RowOutOfBounds { .. })));
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = m.try_slice_rows(2..1);
        assert!(matches!(inverted, Err(SparseError::RowOutOfBounds { .. })));
    }
}
