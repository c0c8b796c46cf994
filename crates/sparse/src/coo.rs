//! Coordinate (COO) storage (§II-A of the paper).
//!
//! COO is the natural interchange format: Matrix Market files are COO,
//! and the ESC baseline's "expansion" phase materializes intermediate
//! products as COO triplets. Converting to CSR sorts and deduplicates.

use crate::csr::Csr;
use crate::scalar::Scalar;

/// A sparse matrix as unsorted `(row, col, value)` triplets.
#[derive(Clone, Debug, PartialEq)]
pub struct Coo<T> {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, T)>,
}

impl<T: Scalar> Coo<T> {
    /// Empty matrix of the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        Coo { rows, cols, entries: Vec::new() }
    }

    /// Append one entry (bounds asserted).
    pub fn push(&mut self, r: u32, c: u32, v: T) {
        assert!((r as usize) < self.rows && (c as usize) < self.cols, "COO entry out of bounds");
        self.entries.push((r, c, v));
    }

    /// Number of stored (possibly duplicate) entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The raw entries.
    pub fn entries(&self) -> &[(u32, u32, T)] {
        &self.entries
    }

    /// Convert to CSR, sorting and summing duplicate coordinates. Panics
    /// when the heap refuses the `rows + 1` row arrays; the Matrix Market
    /// reader, whose row count comes from outside, calls the fallible
    /// [`Csr::from_triplets`] instead.
    #[expect(
        clippy::expect_used,
        reason = "COO construction bounds-checks every entry; only the row arrays' allocation \
                  can fail"
    )]
    pub fn to_csr(&self) -> Csr<T> {
        let triplets: Vec<(usize, u32, T)> =
            self.entries.iter().map(|&(r, c, v)| (r as usize, c, v)).collect();
        Csr::from_triplets(self.rows, self.cols, &triplets)
            .expect("COO entries are in bounds, so only the row arrays' allocation can fail")
    }

    /// Convert from CSR (entries come out row-major sorted).
    pub fn from_csr(m: &Csr<T>) -> Self {
        let mut entries = Vec::with_capacity(m.nnz());
        for r in 0..m.rows() {
            let (cs, vs) = m.row(r);
            for (&c, &v) in cs.iter().zip(vs) {
                entries.push((r as u32, c, v));
            }
        }
        Coo { rows: m.rows(), cols: m.cols(), entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_csr() {
        let m = Csr::from_dense(&[vec![0.0f64, 1.0], vec![2.0, 0.0]]);
        let coo = Coo::from_csr(&m);
        assert_eq!(coo.nnz(), 2);
        assert_eq!(coo.to_csr(), m);
    }

    #[test]
    fn duplicates_sum_on_conversion() {
        let mut coo = Coo::<f32>::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, 2.5);
        coo.push(1, 1, 1.0);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.to_dense()[0][0], 3.5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_bounds_panics() {
        let mut coo = Coo::<f64>::new(1, 1);
        coo.push(0, 3, 1.0);
    }
}
