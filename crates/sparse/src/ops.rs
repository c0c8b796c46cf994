//! Structural operations around SpGEMM: row stacking for the batched
//! executor, on sorted CSR, preserving its invariants.

#![cfg_attr(
    not(test),
    warn(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)
)]

use crate::csr::Csr;
use crate::scalar::Scalar;
use crate::{Result, SparseError};

/// Stack matrices vertically: rows of `parts[0]`, then `parts[1]`, …
/// All parts must share a column count. The inverse of carving a matrix
/// with [`Csr::slice_rows`]; the batched executor stitches per-batch
/// results back together with this. The first part's arrays grow to
/// hold the rest, so only the later parts are copied.
#[expect(clippy::disallowed_methods, reason = "the sparse crate owns the unchecked constructor")]
pub fn vstack<T: Scalar>(parts: Vec<Csr<T>>) -> Result<Csr<T>> {
    let mut parts = parts.into_iter();
    let first = parts
        .next()
        .ok_or_else(|| SparseError::DimensionMismatch("vstack of zero parts".into()))?;
    let (cols, mut rows) = (first.cols(), first.rows());
    let rest: Vec<Csr<T>> = parts.collect();
    let (mut rpt, mut col, mut val) = first.into_arrays();
    let nnz: usize = rest.iter().map(Csr::nnz).sum();
    rpt.reserve(rest.iter().map(Csr::rows).sum());
    col.reserve(nnz);
    val.reserve(nnz);
    for p in &rest {
        if p.cols() != cols {
            return Err(SparseError::DimensionMismatch(format!(
                "vstack: part has {} cols, first has {cols}",
                p.cols()
            )));
        }
        let base = col.len();
        rpt.extend(p.rpt()[1..].iter().map(|&x| base + x));
        col.extend_from_slice(p.col());
        val.extend_from_slice(p.val());
        rows += p.rows();
    }
    Csr::from_parts_unchecked(rows, cols, rpt, col, val)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> Csr<f64> {
        Csr::from_dense(&[vec![2.0, 1.0, 0.0], vec![0.0, 3.0, 4.0], vec![5.0, 0.0, 6.0]])
    }

    #[test]
    fn vstack_inverts_slice_rows() {
        let a = m();
        let top = a.slice_rows(0..1);
        let mid = a.slice_rows(1..2);
        let bot = a.slice_rows(2..3);
        assert_eq!(vstack(vec![top.clone(), mid, bot]).unwrap(), a);
        // Empty slices stack away to nothing.
        let empty = a.slice_rows(1..1);
        assert_eq!(empty.rows(), 0);
        let restacked = vstack(vec![empty, a.clone()]).unwrap();
        assert_eq!(restacked, a);
        // Mismatched column counts and zero parts are rejected.
        assert!(vstack(vec![top, Csr::<f64>::zeros(1, 7)]).is_err());
        assert!(vstack::<f64>(Vec::new()).is_err());
    }
}
