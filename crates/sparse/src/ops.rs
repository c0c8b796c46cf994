//! Element-wise and structural operations around SpGEMM: differences,
//! pattern extraction, and row stacking for the batched executor. All
//! operate on sorted CSR and preserve its invariants.

use crate::csr::Csr;
use crate::scalar::Scalar;
use crate::{Result, SparseError};

/// Element-wise difference `A - B`.
pub fn sub<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Result<Csr<T>> {
    a.add(&b.scaled(-T::ONE))
}

/// The pattern of `A` with all values set to 1 (adjacency extraction).
pub fn pattern<T: Scalar>(a: &Csr<T>) -> Csr<T> {
    Csr::from_parts_unchecked(
        a.rows(),
        a.cols(),
        a.rpt().to_vec(),
        a.col().to_vec(),
        vec![T::ONE; a.nnz()],
    )
    // lint:allow(no-expect) — shape-preserving rebuild of a validated CSR cannot fail
    .expect("pattern preserves the CSR shape")
}

/// Stack matrices vertically: rows of `parts[0]`, then `parts[1]`, …
/// All parts must share a column count. The inverse of carving a matrix
/// with [`Csr::slice_rows`]; the batched executor stitches per-batch
/// results back together with this.
pub fn vstack<T: Scalar>(parts: &[Csr<T>]) -> Result<Csr<T>> {
    let first = parts
        .first()
        .ok_or_else(|| SparseError::DimensionMismatch("vstack of zero parts".into()))?;
    let cols = first.cols();
    let rows: usize = parts.iter().map(|p| p.rows()).sum();
    let nnz: usize = parts.iter().map(|p| p.nnz()).sum();
    let mut rpt = Vec::with_capacity(rows + 1);
    rpt.push(0usize);
    let mut col = Vec::with_capacity(nnz);
    let mut val = Vec::with_capacity(nnz);
    for p in parts {
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
    fn sub_is_add_of_negation() {
        let d = sub(&m(), &m()).unwrap();
        assert!(d.val().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pattern_is_all_ones() {
        let p = pattern(&m());
        assert_eq!(p.col(), m().col());
        assert!(p.val().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn vstack_inverts_slice_rows() {
        let a = m();
        let top = a.slice_rows(0..1);
        let mid = a.slice_rows(1..2);
        let bot = a.slice_rows(2..3);
        assert_eq!(vstack(&[top.clone(), mid, bot]).unwrap(), a);
        // Empty slices stack away to nothing.
        let empty = a.slice_rows(1..1);
        assert_eq!(empty.rows(), 0);
        let restacked = vstack(&[empty, a.clone()]).unwrap();
        assert_eq!(restacked, a);
        // Mismatched column counts and zero parts are rejected.
        assert!(vstack(&[top, Csr::<f64>::zeros(1, 7)]).is_err());
        assert!(vstack::<f64>(&[]).is_err());
    }
}
