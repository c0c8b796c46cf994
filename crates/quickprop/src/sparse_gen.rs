//! CSR strategies shared by every crate's property tests, with
//! greedy structural shrinking: a failing matrix is simplified by
//! dropping triplets, halving its shape, and flattening its values —
//! each candidate re-tested so the reported minimal case still fails.

use crate::{Gen, Rng64};
use sparse::Csr;
use std::ops::Range;

/// Triplets of a CSR matrix, in `from_triplets` form.
fn triplets(m: &Csr<f64>) -> Vec<(usize, u32, f64)> {
    (0..m.rows())
        .flat_map(|r| {
            let (cols, vals) = m.row(r);
            cols.iter().zip(vals).map(move |(&c, &v)| (r, c, v))
        })
        .collect()
}

fn rebuild(rows: usize, cols: usize, t: &[(usize, u32, f64)]) -> Csr<f64> {
    Csr::from_triplets(rows, cols, t).expect("shrunk triplets stay in bounds")
}

/// Shared shrinking over the triplet form. `min_rows`/`min_cols` come
/// from the strategy's shape ranges; `square` keeps rows == cols.
fn shrink_csr(m: &Csr<f64>, min_rows: usize, min_cols: usize, square: bool) -> Vec<Csr<f64>> {
    let t = triplets(m);
    let n = t.len();
    let (rows, cols) = (m.rows(), m.cols());
    let mut out = Vec::new();
    if n > 0 {
        // Most aggressive first: the empty pattern at the same shape.
        out.push(rebuild(rows, cols, &[]));
        if n > 1 {
            out.push(rebuild(rows, cols, &t[..n / 2]));
            out.push(rebuild(rows, cols, &t[n / 2..]));
        }
        let step = (n / 12).max(1);
        for i in (0..n).step_by(step) {
            if out.len() >= 24 {
                break;
            }
            let mut d = t.clone();
            d.remove(i);
            out.push(rebuild(rows, cols, &d));
        }
    }
    // Halve the shape, keeping only in-range triplets.
    if rows > min_rows {
        let r2 = (rows / 2).max(min_rows);
        let c2 = if square { r2 } else { cols };
        let kept: Vec<_> =
            t.iter().copied().filter(|&(r, c, _)| r < r2 && (c as usize) < c2).collect();
        out.push(rebuild(r2, c2, &kept));
    }
    if !square && cols > min_cols {
        let c2 = (cols / 2).max(min_cols);
        let kept: Vec<_> = t.iter().copied().filter(|&(_, c, _)| (c as usize) < c2).collect();
        out.push(rebuild(rows, c2, &kept));
    }
    // Flatten values to 1.0 (isolates structural from numeric failures).
    if t.iter().any(|&(_, _, v)| v != 1.0) {
        let ones: Vec<_> = t.iter().map(|&(r, c, _)| (r, c, 1.0)).collect();
        out.push(rebuild(rows, cols, &ones));
    }
    out
}

fn sample(rng: &mut Rng64, r: &Range<usize>) -> usize {
    r.start + rng.below(r.end - r.start)
}

fn gen_triplets(
    rng: &mut Rng64,
    rows: usize,
    cols: usize,
    max_nnz: usize,
    vals: &Range<f64>,
) -> Vec<(usize, u32, f64)> {
    let n = rng.below(max_nnz.max(1));
    (0..n)
        .map(|_| {
            (
                rng.below(rows),
                rng.below(cols) as u32,
                vals.start + rng.unit() * (vals.end - vals.start),
            )
        })
        .collect()
}

/// Random CSR matrix strategy; see [`csr`], [`csr_square`], [`csr_in`].
#[derive(Clone, Debug)]
pub struct CsrGen {
    rows: Range<usize>,
    cols: Range<usize>,
    square: bool,
    max_nnz: usize,
    vals: Range<f64>,
}

impl CsrGen {
    /// Override the value range (default `-4.0..4.0`).
    pub fn values(mut self, lo: f64, hi: f64) -> Self {
        assert!(lo < hi);
        self.vals = lo..hi;
        self
    }
}

/// Rectangular matrix: rows and cols in `2..max_n`, up to `max_nnz`
/// (pre-dedup) triplets, values in `-4.0..4.0`.
pub fn csr(max_n: usize, max_nnz: usize) -> CsrGen {
    csr_in(2..max_n, 2..max_n, max_nnz)
}

/// Square matrix: side in `2..max_n`.
pub fn csr_square(max_n: usize, max_nnz: usize) -> CsrGen {
    CsrGen { rows: 2..max_n, cols: 2..max_n, square: true, max_nnz, vals: -4.0..4.0 }
}

/// Rectangular matrix with explicit shape ranges.
pub fn csr_in(rows: Range<usize>, cols: Range<usize>, max_nnz: usize) -> CsrGen {
    assert!(rows.start >= 1 && rows.start < rows.end);
    assert!(cols.start >= 1 && cols.start < cols.end);
    CsrGen { rows, cols, square: false, max_nnz, vals: -4.0..4.0 }
}

impl Gen for CsrGen {
    type Value = Csr<f64>;

    fn generate(&self, rng: &mut Rng64) -> Csr<f64> {
        let rows = sample(rng, &self.rows);
        let cols = if self.square { rows } else { sample(rng, &self.cols) };
        let t = gen_triplets(rng, rows, cols, self.max_nnz, &self.vals);
        rebuild(rows, cols, &t)
    }

    fn shrink(&self, value: &Csr<f64>) -> Vec<Csr<f64>> {
        shrink_csr(value, self.rows.start, self.cols.start, self.square)
    }
}

/// Two matrices of the same (random) shape — for `A + B` laws.
#[derive(Clone, Debug)]
pub struct CsrPairGen {
    dims: Range<usize>,
    max_nnz: usize,
    vals: Range<f64>,
}

/// Same-shape pair with rows, cols in `2..max_n`.
pub fn csr_pair(max_n: usize, max_nnz: usize) -> CsrPairGen {
    CsrPairGen { dims: 2..max_n, max_nnz, vals: -4.0..4.0 }
}

impl CsrPairGen {
    /// Override the value range (default `-4.0..4.0`).
    pub fn values(mut self, lo: f64, hi: f64) -> Self {
        assert!(lo < hi);
        self.vals = lo..hi;
        self
    }
}

impl Gen for CsrPairGen {
    type Value = (Csr<f64>, Csr<f64>);

    fn generate(&self, rng: &mut Rng64) -> Self::Value {
        let rows = sample(rng, &self.dims);
        let cols = sample(rng, &self.dims);
        let a = gen_triplets(rng, rows, cols, self.max_nnz, &self.vals);
        let b = gen_triplets(rng, rows, cols, self.max_nnz, &self.vals);
        (rebuild(rows, cols, &a), rebuild(rows, cols, &b))
    }

    fn shrink(&self, (a, b): &Self::Value) -> Vec<Self::Value> {
        let mut out = Vec::new();
        // Shrink either side, keeping the shared shape fixed.
        for sa in shrink_csr(a, a.rows(), a.cols(), false) {
            out.push((sa, b.clone()));
        }
        for sb in shrink_csr(b, b.rows(), b.cols(), false) {
            out.push((a.clone(), sb));
        }
        // Joint shape halving.
        let min = self.dims.start;
        if a.rows() > min || a.cols() > min {
            let r2 = (a.rows() / 2).max(min);
            let c2 = (a.cols() / 2).max(min);
            let cut = |m: &Csr<f64>| {
                let kept: Vec<_> = triplets(m)
                    .into_iter()
                    .filter(|&(r, c, _)| r < r2 && (c as usize) < c2)
                    .collect();
                rebuild(r2, c2, &kept)
            };
            out.push((cut(a), cut(b)));
        }
        out
    }
}

/// A multiplication chain `(A: m×k, B: k×n)` with random inner dim.
#[derive(Clone, Debug)]
pub struct CsrChainGen {
    dims: Range<usize>,
    max_nnz: usize,
    vals: Range<f64>,
}

/// Product-compatible pair with m, k, n in `2..max_n`.
pub fn csr_chain(max_n: usize, max_nnz: usize) -> CsrChainGen {
    CsrChainGen { dims: 2..max_n, max_nnz, vals: -4.0..4.0 }
}

impl Gen for CsrChainGen {
    type Value = (Csr<f64>, Csr<f64>);

    fn generate(&self, rng: &mut Rng64) -> Self::Value {
        let m = sample(rng, &self.dims);
        let k = sample(rng, &self.dims);
        let n = sample(rng, &self.dims);
        let a = gen_triplets(rng, m, k, self.max_nnz, &self.vals);
        let b = gen_triplets(rng, k, n, self.max_nnz, &self.vals);
        (rebuild(m, k, &a), rebuild(k, n, &b))
    }

    fn shrink(&self, (a, b): &Self::Value) -> Vec<Self::Value> {
        let mut out = Vec::new();
        for sa in shrink_csr(a, a.rows(), a.cols(), false) {
            out.push((sa, b.clone()));
        }
        for sb in shrink_csr(b, b.rows(), b.cols(), false) {
            out.push((a.clone(), sb));
        }
        // Halve the inner dimension consistently on both sides.
        let min = self.dims.start;
        if a.cols() > min {
            let k2 = (a.cols() / 2).max(min);
            let ka: Vec<_> =
                triplets(a).into_iter().filter(|&(_, c, _)| (c as usize) < k2).collect();
            let kb: Vec<_> = triplets(b).into_iter().filter(|&(r, _, _)| r < k2).collect();
            out.push((rebuild(a.rows(), k2, &ka), rebuild(k2, b.cols(), &kb)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_matrices_validate() {
        let g = csr(60, 300);
        let mut rng = Rng64::new(2024);
        for _ in 0..200 {
            let m = g.generate(&mut rng);
            m.validate().expect("generated CSR upholds invariants");
            assert!((2..60).contains(&m.rows()));
            assert!((2..60).contains(&m.cols()));
        }
    }

    #[test]
    fn square_means_square() {
        let g = csr_square(80, 200);
        let mut rng = Rng64::new(5);
        for _ in 0..100 {
            let m = g.generate(&mut rng);
            assert_eq!(m.rows(), m.cols());
        }
    }

    #[test]
    fn shrinks_validate_and_are_no_larger() {
        let g = csr(60, 300);
        let mut rng = Rng64::new(8);
        for _ in 0..50 {
            let m = g.generate(&mut rng);
            for s in g.shrink(&m) {
                s.validate().expect("shrunk CSR upholds invariants");
                assert!(s.nnz() <= m.nnz() || s.rows() < m.rows() || s.cols() < m.cols());
            }
        }
    }

    #[test]
    fn chain_stays_compatible_under_shrinking() {
        let g = csr_chain(40, 200);
        let mut rng = Rng64::new(21);
        for _ in 0..50 {
            let (a, b) = g.generate(&mut rng);
            assert_eq!(a.cols(), b.rows());
            for (sa, sb) in g.shrink(&(a, b)) {
                assert_eq!(sa.cols(), sb.rows(), "inner dim must stay shared");
                sa.validate().unwrap();
                sb.validate().unwrap();
            }
        }
    }

    #[test]
    fn pair_keeps_shapes_equal_under_shrinking() {
        let g = csr_pair(40, 200);
        let mut rng = Rng64::new(22);
        let (a, b) = g.generate(&mut rng);
        for (sa, sb) in g.shrink(&(a, b)) {
            assert_eq!(sa.rows(), sb.rows());
            assert_eq!(sa.cols(), sb.cols());
        }
    }
}
