//! Element-wise and structural operations around SpGEMM.
//!
//! The application layer (AMG, clustering, graph analytics) needs more
//! than the product itself: differences, diagonal extraction and row
//! scaling (Jacobi smoothers), pattern extraction, and row stacking for
//! the batched executor. All operate on sorted CSR and preserve its
//! invariants.

use crate::convert::try_u32;
use crate::csr::Csr;
use crate::scalar::Scalar;
use crate::{Result, SparseError};

/// Element-wise difference `A - B`.
pub fn sub<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Result<Csr<T>> {
    a.add(&b.scaled(-T::ONE))
}

/// Extract the main diagonal as a dense vector (absent entries → 0).
pub fn diagonal<T: Scalar>(a: &Csr<T>) -> Vec<T> {
    let n = a.rows().min(a.cols());
    let mut d = vec![T::ZERO; n];
    for (r, slot) in d.iter_mut().enumerate() {
        let (cs, vs) = a.row(r);
        // A row index beyond the 4-byte device index cannot have a
        // stored diagonal entry (columns are u32), so Err(_) → zero.
        if let Ok(r32) = try_u32(r) {
            if let Ok(p) = cs.binary_search(&r32) {
                *slot = vs[p];
            }
        }
    }
    d
}

/// Scale row `r` by `s[r]` (left-multiplication by a diagonal matrix).
pub fn scale_rows<T: Scalar>(a: &Csr<T>, s: &[T]) -> Result<Csr<T>> {
    if s.len() != a.rows() {
        return Err(SparseError::DimensionMismatch(format!(
            "scale_rows: {} scales for {} rows",
            s.len(),
            a.rows()
        )));
    }
    let mut vals: Vec<T> = a.val().to_vec();
    for r in 0..a.rows() {
        for v in &mut vals[a.rpt()[r]..a.rpt()[r + 1]] {
            *v = *v * s[r];
        }
    }
    Csr::from_parts_unchecked(a.rows(), a.cols(), a.rpt().to_vec(), a.col().to_vec(), vals)
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
    fn diagonal_of_sample() {
        assert_eq!(diagonal(&m()), vec![2.0, 3.0, 6.0]);
    }

    #[test]
    fn row_scaling() {
        let r = scale_rows(&m(), &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(r.to_dense()[1], vec![0.0, 6.0, 8.0]);
        assert!(scale_rows(&m(), &[1.0]).is_err());
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
