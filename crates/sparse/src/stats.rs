//! Matrix statistics — the columns of the paper's Table II.
//!
//! For each dataset the paper reports rows, nnz, average and maximum
//! nnz/row, the number of intermediate products of `A²` and the nnz of
//! `A²`. [`MatrixStats::for_square`] computes all of them.

use crate::csr::Csr;
use crate::scalar::Scalar;
use crate::spgemm_ref::{row_intermediate_products, symbolic_row_nnz};
use crate::Result;

/// The Table II row for one matrix (computed on `A` and, when requested,
/// on the product `A²`).
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixStats {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Stored non-zeros.
    pub nnz: usize,
    /// Average non-zeros per row ("Nnz/row").
    pub nnz_per_row: f64,
    /// Maximum non-zeros in any row ("Max nnz/row").
    pub max_nnz_row: usize,
    /// Minimum non-zeros in any row.
    pub min_nnz_row: usize,
    /// Intermediate products of `A²` (None unless computed).
    pub intermediate_products: Option<u64>,
    /// nnz of `A²` (None unless computed).
    pub nnz_of_square: Option<u64>,
}

impl MatrixStats {
    /// Structure-only statistics (cheap; no product information).
    pub fn structural<T: Scalar>(a: &Csr<T>) -> Self {
        let per_row: Vec<usize> = (0..a.rows()).map(|r| a.row_nnz(r)).collect();
        MatrixStats {
            rows: a.rows(),
            cols: a.cols(),
            nnz: a.nnz(),
            nnz_per_row: if a.rows() == 0 { 0.0 } else { a.nnz() as f64 / a.rows() as f64 },
            max_nnz_row: per_row.iter().copied().max().unwrap_or(0),
            min_nnz_row: per_row.iter().copied().min().unwrap_or(0),
            intermediate_products: None,
            nnz_of_square: None,
        }
    }

    /// Full Table II statistics for a square matrix, including the
    /// intermediate-product count and nnz of `A²`.
    pub fn for_square<T: Scalar>(a: &Csr<T>) -> Result<Self> {
        let mut s = Self::structural(a);
        s.intermediate_products =
            Some(row_intermediate_products(a, a)?.iter().map(|&x| x as u64).sum());
        s.nnz_of_square = Some(symbolic_row_nnz(a, a)?.iter().map(|&x| x as u64).sum());
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> Csr<f64> {
        Csr::from_dense(&[
            vec![1.0, 1.0, 1.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 1.0, 1.0],
        ])
    }

    #[test]
    fn structural_stats() {
        let s = MatrixStats::structural(&m());
        assert_eq!(s.rows, 4);
        assert_eq!(s.nnz, 7);
        assert_eq!(s.nnz_per_row, 1.75);
        assert_eq!(s.max_nnz_row, 3);
        assert_eq!(s.min_nnz_row, 0);
        assert!(s.intermediate_products.is_none());
    }

    #[test]
    fn square_stats_match_reference() {
        let a = m();
        let s = MatrixStats::for_square(&a).unwrap();
        let c = crate::spgemm_ref::spgemm_gustavson(&a, &a).unwrap();
        assert_eq!(s.nnz_of_square, Some(c.nnz() as u64));
        // row 0 selects rows 0,1,2 of A: nnz 3+0+1 = 4; row 2 selects row 0: 3;
        // row 3 selects rows 1,2,3: 0+1+3 = 4. Total 11.
        assert_eq!(s.intermediate_products, Some(11));
    }

    #[test]
    fn empty_matrix() {
        let z = Csr::<f32>::zeros(0, 0);
        let s = MatrixStats::structural(&z);
        assert_eq!(s.nnz_per_row, 0.0);
    }
}
