//! Reference CPU SpGEMM implementations (Algorithm 1 of the paper).
//!
//! These serve as ground truth for every GPU-simulated algorithm in the
//! workspace. Two independent implementations are provided so the test
//! suite can cross-check them against each other:
//!
//! * [`spgemm_gustavson`] — Gustavson's algorithm with a dense sparse
//!   accumulator (SPA); the fastest and the default oracle;
//! * [`spgemm_heap`] — k-way merge of sorted B-rows with a binary heap,
//!   the method BHSPARSE uses for small bins.
//!
//! Also here: Algorithm 2 (intermediate-product counting) and the
//! symbolic pass (exact output nnz per row), both host-side.

use crate::csr::Csr;
use crate::scalar::Scalar;
use crate::{Result, SparseError};
use std::collections::BinaryHeap;

fn check_dims<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(SparseError::DimensionMismatch(format!(
            "spgemm: A is {}x{}, B is {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        )));
    }
    Ok(())
}

/// Algorithm 2: number of intermediate products of each row of `C = A*B`,
/// i.e. `sum_{a_ik != 0} nnz(b_k*)`. This is the upper bound on the
/// output row's nnz and the quantity the paper groups rows by.
pub fn row_intermediate_products<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Result<Vec<usize>> {
    check_dims(a, b)?;
    let rpt_b = b.rpt();
    let mut nprod = vec![0usize; a.rows()];
    for (i, np) in nprod.iter_mut().enumerate() {
        let (cols, _) = a.row(i);
        *np = cols.iter().map(|&k| rpt_b[k as usize + 1] - rpt_b[k as usize]).sum();
    }
    Ok(nprod)
}

/// Total intermediate products of `A*B`. The paper's FLOP count for
/// performance reporting is twice this number (§IV).
pub fn total_intermediate_products<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Result<u64> {
    Ok(row_intermediate_products(a, b)?.iter().map(|&x| x as u64).sum())
}

/// Symbolic SpGEMM: exact nnz of each output row (duplicates merged),
/// computed with a dense boolean accumulator.
pub fn symbolic_row_nnz<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Result<Vec<usize>> {
    check_dims(a, b)?;
    let mut mark = vec![u32::MAX; b.cols()];
    let mut nnz = vec![0usize; a.rows()];
    for (i, nnz_i) in nnz.iter_mut().enumerate() {
        let stamp = i as u32;
        let (acols, _) = a.row(i);
        let mut count = 0usize;
        for &k in acols {
            let (bcols, _) = b.row(k as usize);
            for &j in bcols {
                if mark[j as usize] != stamp {
                    mark[j as usize] = stamp;
                    count += 1;
                }
            }
        }
        *nnz_i = count;
    }
    Ok(nnz)
}

/// Gustavson SpGEMM with a dense sparse-accumulator. The default oracle.
#[expect(clippy::disallowed_methods, reason = "the sparse crate owns the unchecked constructor")]
pub fn spgemm_gustavson<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Result<Csr<T>> {
    check_dims(a, b)?;
    let n = b.cols();
    let mut acc = vec![T::ZERO; n];
    let mut mark = vec![u32::MAX; n];
    let mut touched: Vec<u32> = Vec::new();
    let mut rpt = vec![0usize; a.rows() + 1];
    let mut col = Vec::new();
    let mut val = Vec::new();
    for i in 0..a.rows() {
        let stamp = i as u32;
        touched.clear();
        let (acols, avals) = a.row(i);
        for (&k, &av) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(k as usize);
            for (&j, &bv) in bcols.iter().zip(bvals) {
                let j_us = j as usize;
                if mark[j_us] != stamp {
                    mark[j_us] = stamp;
                    acc[j_us] = av * bv;
                    touched.push(j);
                } else {
                    acc[j_us] += av * bv;
                }
            }
        }
        touched.sort_unstable();
        for &j in &touched {
            col.push(j);
            val.push(acc[j as usize]);
        }
        rpt[i + 1] = col.len();
    }
    Csr::from_parts_unchecked(a.rows(), n, rpt, col, val)
}

/// SpGEMM by k-way heap merge of the (sorted) B-rows selected by each
/// A-row — the "heap method" of Liu & Vinter used in BHSPARSE's small
/// bins. Produces sorted output without an accumulator array.
#[expect(clippy::disallowed_methods, reason = "the sparse crate owns the unchecked constructor")]
pub fn spgemm_heap<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Result<Csr<T>> {
    check_dims(a, b)?;
    // Min-heap over (col_of_B_entry, stream index). std BinaryHeap is a
    // max-heap, so order by Reverse.
    use std::cmp::Reverse;
    let mut rpt = vec![0usize; a.rows() + 1];
    let mut col = Vec::new();
    let mut val = Vec::new();
    for i in 0..a.rows() {
        let (acols, avals) = a.row(i);
        // One cursor per selected B row.
        let mut cursors: Vec<(usize, usize, T)> = Vec::with_capacity(acols.len());
        let mut heap: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::with_capacity(acols.len());
        for (s, (&k, &av)) in acols.iter().zip(avals).enumerate() {
            let (start, end) = (b.rpt()[k as usize], b.rpt()[k as usize + 1]);
            cursors.push((start, end, av));
            if start < end {
                heap.push(Reverse((b.col()[start], s)));
            }
        }
        let mut cur_col: Option<u32> = None;
        let mut cur_val = T::ZERO;
        while let Some(Reverse((c, s))) = heap.pop() {
            let (ref mut pos, end, av) = cursors[s];
            let v = av * b.val()[*pos];
            *pos += 1;
            if *pos < end {
                heap.push(Reverse((b.col()[*pos], s)));
            }
            match cur_col {
                Some(cc) if cc == c => cur_val += v,
                Some(cc) => {
                    col.push(cc);
                    val.push(cur_val);
                    cur_col = Some(c);
                    cur_val = v;
                }
                None => {
                    cur_col = Some(c);
                    cur_val = v;
                }
            }
        }
        if let Some(cc) = cur_col {
            col.push(cc);
            val.push(cur_val);
        }
        rpt[i + 1] = col.len();
    }
    Csr::from_parts_unchecked(a.rows(), b.cols(), rpt, col, val)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> Csr<f64> {
        Csr::from_dense(&[vec![1.0, 0.0, 2.0], vec![0.0, 3.0, 0.0], vec![4.0, 0.0, 5.0]])
    }

    fn b() -> Csr<f64> {
        Csr::from_dense(&[vec![0.0, 1.0], vec![2.0, 0.0], vec![3.0, 4.0]])
    }

    fn dense_mm(a: &Csr<f64>, b: &Csr<f64>) -> Vec<Vec<f64>> {
        let (da, db) = (a.to_dense(), b.to_dense());
        let mut c = vec![vec![0.0; b.cols()]; a.rows()];
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                for j in 0..b.cols() {
                    c[i][j] += da[i][k] * db[k][j];
                }
            }
        }
        c
    }

    #[test]
    fn gustavson_matches_dense() {
        let c = spgemm_gustavson(&a(), &b()).unwrap();
        assert_eq!(c.to_dense(), dense_mm(&a(), &b()));
        c.validate().unwrap();
    }

    #[test]
    fn heap_matches_gustavson() {
        assert_eq!(spgemm_heap(&a(), &b()).unwrap(), spgemm_gustavson(&a(), &b()).unwrap());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        assert!(spgemm_gustavson(&b(), &b()).is_err());
        assert!(row_intermediate_products(&b(), &b()).is_err());
    }

    #[test]
    fn intermediate_products_alg2() {
        // Row 0 of A selects B rows 0 (nnz 1) and 2 (nnz 2) -> 3 products.
        let nprod = row_intermediate_products(&a(), &b()).unwrap();
        assert_eq!(nprod, vec![3, 1, 3]);
        assert_eq!(total_intermediate_products(&a(), &b()).unwrap(), 7);
    }

    #[test]
    fn symbolic_counts_merged_nnz() {
        let nnz = symbolic_row_nnz(&a(), &b()).unwrap();
        let c = spgemm_gustavson(&a(), &b()).unwrap();
        let expect: Vec<usize> = (0..3).map(|r| c.row_nnz(r)).collect();
        assert_eq!(nnz, expect);
    }

    #[test]
    fn empty_rows_and_matrices() {
        let z = Csr::<f64>::zeros(3, 3);
        let c = spgemm_gustavson(&z, &z).unwrap();
        assert_eq!(c.nnz(), 0);
        let c2 = spgemm_heap(&z, &a()).unwrap();
        assert_eq!(c2.nnz(), 0);
        assert_eq!(total_intermediate_products(&z, &a()).unwrap(), 0);
    }

    #[test]
    fn identity_is_neutral() {
        let i = Csr::<f64>::identity(3);
        assert_eq!(spgemm_gustavson(&i, &a()).unwrap(), a());
        assert_eq!(spgemm_gustavson(&a(), &i).unwrap(), a());
        assert_eq!(spgemm_heap(&i, &a()).unwrap(), a());
    }

    #[test]
    fn cancellation_keeps_explicit_zero() {
        // a*b produces +2 and -2 at the same coordinate: stored as explicit 0
        // (the paper's kernels behave identically: the pattern comes from the
        // symbolic phase, values may cancel numerically).
        let a = Csr::from_dense(&[vec![1.0, 1.0]]);
        let b = Csr::from_dense(&[vec![2.0], vec![-2.0]]);
        let c = spgemm_gustavson(&a, &b).unwrap();
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.val()[0], 0.0);
    }
}
