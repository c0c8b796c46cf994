//! Per-group row algorithms beyond the hash kernel: ESC and merge.
//!
//! The paper runs one algorithm — grouped hash tables — for every row.
//! Nagasaka's KNL follow-up (PAPERS.md) showed that per-row accumulator
//! selection beats one-size-fits-all: rows with little duplication pay
//! the hash table's probe and extract cost for nothing (ESC — expand,
//! sort, compress — is cheaper), while enormous rows whose global table
//! thrashes are better served by an incremental sorted merge. This
//! module lifts both row kernels behind a shared shape so every backend
//! can dispatch per group on an [`AlgorithmChoice`] carried by
//! [`crate::groups::GroupSpec`].
//!
//! # Bitwise identity across algorithms
//!
//! All three algorithms accumulate each output column's partial products
//! in **A-row traversal order** and emit columns sorted ascending —
//! exactly the hash kernels' contract (insertion order = traversal
//! order, [`extract_sorted`](crate::hash::HashTable::extract_sorted)
//! sorts by column). ESC achieves it with a *stable* sort by column
//! (ties keep traversal order) followed by a left-to-right run
//! reduction; merge adds each `a_ik · b_kj` into an already-sorted
//! accumulator as `k` advances. Floating-point addition order is
//! therefore identical, making the output of any `AlgorithmChoice`
//! bitwise equal to the hash kernels' — the invariant the adaptive
//! policy relies on: selection may only move *cost*, never values.

use crate::groups::Assignment;
use crate::kernels::{sort_slots, ROW_PIPELINE_SLOTS};
use crate::plan::PhasePlan;
use sparse::{Csr, Scalar};
use vgpu::{BlockCost, Gpu};

/// The row algorithm a group's kernels run. `Hash` is the paper's
/// grouped hash kernel (Algorithms 3–5) and the default everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AlgorithmChoice {
    /// Grouped hash tables (the paper's proposal).
    #[default]
    Hash,
    /// Expand / stable-sort / compress — no hash table at all.
    Esc,
    /// Incremental sorted merge of B-rows into an accumulator.
    Merge,
}

impl std::fmt::Display for AlgorithmChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AlgorithmChoice::Hash => "hash",
            AlgorithmChoice::Esc => "esc",
            AlgorithmChoice::Merge => "merge",
        })
    }
}

/// How groups pick their [`AlgorithmChoice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AlgorithmPolicy {
    /// Every group runs the hash kernels (byte-identical to the
    /// pre-policy pipeline; the default).
    #[default]
    HashOnly,
    /// Select per group from the estimated compression ratio and
    /// products-per-row (thresholds below, DESIGN.md §16).
    Adaptive,
}

impl AlgorithmPolicy {
    /// Parse a CLI spelling: `hash` or `adaptive`.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        match s {
            "hash" | "hash-only" => Ok(AlgorithmPolicy::HashOnly),
            "adaptive" => Ok(AlgorithmPolicy::Adaptive),
            other => Err(format!("unknown algorithm policy '{other}' (hash|adaptive)")),
        }
    }
}

impl std::fmt::Display for AlgorithmPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AlgorithmPolicy::HashOnly => "hash",
            AlgorithmPolicy::Adaptive => "adaptive",
        })
    }
}

/// Adaptive count-phase rule: a TB group whose mean products-per-row is
/// at most this runs ESC (the expansion fits comfortably in shared
/// memory and skips table initialization + probing).
const ESC_COUNT_MAX_AVG: usize = 4 * crate::groups::PWARP_BORDER_COUNT;

/// Adaptive count-phase rule: a group-0 row population whose mean
/// products-per-row exceeds `factor × lower` spills far past the shared
/// attempt; the merge accumulator avoids the doomed first pass and the
/// global-table atomics entirely.
const MERGE_COUNT_LOWER_FACTOR: usize = 2;

/// Adaptive numeric rules on the compression ratio `products / nnz`
/// (≥ 1; high means heavy duplication, which is what hash tables are
/// good at). Below these, the non-hash algorithm wins its group.
const MERGE_MIN_COMPRESSION: f64 = 2.0;
const ESC_MAX_COMPRESSION: f64 = 1.25;

/// Select count-phase algorithms per group (metric = intermediate
/// products, possibly estimated). Mutates only the `algorithm` field —
/// bucketing happened first and is never affected by selection.
pub(crate) fn select_count(policy: AlgorithmPolicy, plan: &mut PhasePlan) {
    if policy != AlgorithmPolicy::Adaptive {
        return;
    }
    for gi in 0..plan.groups.groups.len() {
        let rows = &plan.rows_by_group[gi];
        if rows.is_empty() {
            continue;
        }
        let total: u128 = rows.iter().map(|&r| plan.metric[r as usize] as u128).sum();
        let avg = (total / rows.len() as u128).min(usize::MAX as u128) as usize;
        let g = &mut plan.groups.groups[gi];
        g.algorithm = match g.assignment {
            Assignment::Pwarp { .. } => AlgorithmChoice::Hash,
            Assignment::TbRowGlobal => {
                if avg > g.lower.saturating_mul(MERGE_COUNT_LOWER_FACTOR) {
                    AlgorithmChoice::Merge
                } else {
                    AlgorithmChoice::Hash
                }
            }
            Assignment::TbRow => {
                if avg <= ESC_COUNT_MAX_AVG {
                    AlgorithmChoice::Esc
                } else {
                    AlgorithmChoice::Hash
                }
            }
        };
    }
}

/// Select numeric-phase algorithms per group (metric = exact output
/// nnz; `nprod` is the count-phase metric, so the per-group compression
/// ratio is `Σ nprod / Σ nnz`).
pub(crate) fn select_numeric(policy: AlgorithmPolicy, plan: &mut PhasePlan, nprod: &[usize]) {
    if policy != AlgorithmPolicy::Adaptive {
        return;
    }
    for gi in 0..plan.groups.groups.len() {
        let rows = &plan.rows_by_group[gi];
        if rows.is_empty() {
            continue;
        }
        let nnz: u128 = rows.iter().map(|&r| plan.metric[r as usize] as u128).sum();
        let prods: u128 = rows.iter().map(|&r| nprod[r as usize] as u128).sum();
        if nnz == 0 {
            continue;
        }
        let cr = prods as f64 / nnz as f64;
        let g = &mut plan.groups.groups[gi];
        g.algorithm = match g.assignment {
            Assignment::Pwarp { .. } => AlgorithmChoice::Hash,
            Assignment::TbRowGlobal => {
                if cr < MERGE_MIN_COMPRESSION {
                    AlgorithmChoice::Merge
                } else {
                    AlgorithmChoice::Hash
                }
            }
            Assignment::TbRow => {
                if cr < ESC_MAX_COMPRESSION {
                    AlgorithmChoice::Esc
                } else {
                    AlgorithmChoice::Hash
                }
            }
        };
    }
}

/// Observed work of one ESC or merge row walk.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RowAlgStats {
    /// Intermediate products touched (Σ B-row lengths).
    pub products: u64,
    /// Distinct columns (row nnz) produced.
    pub nnz: u32,
    /// A-row length.
    pub a_len: u64,
    /// Merge only: accumulator elements moved across all merge steps.
    pub merge_moves: u64,
}

/// Scratch buffers an ESC/merge worker reuses across rows (the device
/// analogue is the per-block expansion buffer / accumulator).
#[derive(Default)]
pub(crate) struct RowAlgScratch<T> {
    sym: Vec<u32>,
    sym2: Vec<u32>,
    num: Vec<(u32, T)>,
    acc: Vec<(u32, T)>,
}

impl<T: Scalar> RowAlgScratch<T> {
    pub fn new() -> Self {
        RowAlgScratch { sym: Vec::new(), sym2: Vec::new(), num: Vec::new(), acc: Vec::new() }
    }
}

/// ESC symbolic: expand the row's B columns, sort, count distinct.
/// Never overflows — there is no table to exhaust.
pub(crate) fn esc_symbolic_row<T: Scalar>(
    a: &Csr<T>,
    b: &Csr<T>,
    row: usize,
    scratch: &mut RowAlgScratch<T>,
) -> RowAlgStats {
    let buf = &mut scratch.sym;
    buf.clear();
    let (acols, _) = a.row(row);
    for &k in acols {
        let (bcols, _) = b.row(k as usize);
        buf.extend_from_slice(bcols);
    }
    let products = buf.len() as u64;
    buf.sort_unstable();
    buf.dedup();
    RowAlgStats { products, nnz: buf.len() as u32, a_len: acols.len() as u64, merge_moves: 0 }
}

/// ESC numeric: expand `(column, a_ik · b_kj)` pairs in A-row traversal
/// order, stable-sort by column (ties keep traversal order), reduce
/// runs left to right into `out_cols`/`out_vals` — the exact addition
/// order of the hash kernels.
pub(crate) fn esc_numeric_row<T: Scalar>(
    a: &Csr<T>,
    b: &Csr<T>,
    row: usize,
    scratch: &mut RowAlgScratch<T>,
    out_cols: &mut [u32],
    out_vals: &mut [T],
) -> RowAlgStats {
    let buf = &mut scratch.num;
    buf.clear();
    let (acols, avals) = a.row(row);
    for (&k, &av) in acols.iter().zip(avals) {
        let (bcols, bvals) = b.row(k as usize);
        for (&j, &bv) in bcols.iter().zip(bvals) {
            buf.push((j, av * bv));
        }
    }
    let products = buf.len() as u64;
    buf.sort_by_key(|&(j, _)| j);
    let mut n = 0usize;
    let mut i = 0usize;
    while i < buf.len() {
        let (j, mut acc) = buf[i];
        i += 1;
        while i < buf.len() && buf[i].0 == j {
            acc += buf[i].1;
            i += 1;
        }
        out_cols[n] = j;
        out_vals[n] = acc;
        n += 1;
    }
    RowAlgStats { products, nnz: n as u32, a_len: acols.len() as u64, merge_moves: 0 }
}

/// Merge symbolic: fold each selected B-row (sorted) into a sorted
/// accumulator of distinct columns. Never overflows.
pub(crate) fn merge_symbolic_row<T: Scalar>(
    a: &Csr<T>,
    b: &Csr<T>,
    row: usize,
    scratch: &mut RowAlgScratch<T>,
) -> RowAlgStats {
    let acc = &mut scratch.sym;
    acc.clear();
    let tmp = &mut scratch.sym2;
    let (acols, _) = a.row(row);
    let mut s = RowAlgStats { a_len: acols.len() as u64, ..Default::default() };
    for &k in acols {
        let (bcols, _) = b.row(k as usize);
        s.products += bcols.len() as u64;
        if bcols.is_empty() {
            continue;
        }
        tmp.clear();
        let (mut i, mut j) = (0usize, 0usize);
        while i < acc.len() && j < bcols.len() {
            match acc[i].cmp(&bcols[j]) {
                std::cmp::Ordering::Less => {
                    tmp.push(acc[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    tmp.push(bcols[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    tmp.push(acc[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        tmp.extend_from_slice(&acc[i..]);
        tmp.extend_from_slice(&bcols[j..]);
        s.merge_moves += tmp.len() as u64;
        std::mem::swap(acc, tmp);
    }
    s.nnz = acc.len() as u32;
    s
}

/// Merge numeric: fold each selected B-row into a sorted `(column,
/// value)` accumulator; an existing column accumulates `acc + a·b` as
/// `k` advances — the A-row traversal order again, hence bitwise equal
/// to the hash kernels.
pub(crate) fn merge_numeric_row<T: Scalar>(
    a: &Csr<T>,
    b: &Csr<T>,
    row: usize,
    scratch: &mut RowAlgScratch<T>,
    out_cols: &mut [u32],
    out_vals: &mut [T],
) -> RowAlgStats {
    let acc = &mut scratch.acc;
    acc.clear();
    let tmp = &mut scratch.num;
    let (acols, avals) = a.row(row);
    let mut s = RowAlgStats { a_len: acols.len() as u64, ..Default::default() };
    for (&k, &av) in acols.iter().zip(avals) {
        let (bcols, bvals) = b.row(k as usize);
        s.products += bcols.len() as u64;
        if bcols.is_empty() {
            continue;
        }
        tmp.clear();
        let (mut i, mut j) = (0usize, 0usize);
        while i < acc.len() && j < bcols.len() {
            match acc[i].0.cmp(&bcols[j]) {
                std::cmp::Ordering::Less => {
                    tmp.push(acc[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    tmp.push((bcols[j], av * bvals[j]));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    tmp.push((acc[i].0, acc[i].1 + av * bvals[j]));
                    i += 1;
                    j += 1;
                }
            }
        }
        tmp.extend_from_slice(&acc[i..]);
        while j < bcols.len() {
            tmp.push((bcols[j], av * bvals[j]));
            j += 1;
        }
        s.merge_moves += tmp.len() as u64;
        std::mem::swap(acc, tmp);
    }
    s.nnz = acc.len() as u32;
    for (n, &(j, v)) in acc.iter().enumerate() {
        out_cols[n] = j;
        out_vals[n] = v;
    }
    s
}

/// Cost of one ESC row block: coalesced expansion, staged shared sort
/// over the products, a run-reduction scan, the row write.
pub(crate) fn esc_block_cost(
    gpu: &Gpu,
    block_threads: usize,
    s: &RowAlgStats,
    value_bytes: Option<usize>,
) -> BlockCost {
    let mut c = gpu.block_cost();
    c.compute(ROW_PIPELINE_SLOTS);
    c.global_random(s.a_len as f64 * 2.0, 4.0);
    let elem = 4.0 + value_bytes.unwrap_or(0) as f64;
    c.global_coalesced(s.products as f64 * elem);
    // Expansion buffer fill + staged shared sort + reduction scan.
    c.shared_access(s.products as f64 / 32.0);
    c.shared_access(sort_slots(s.products as f64));
    c.compute(s.products as f64 / 32.0 * 2.0);
    if let Some(vb) = value_bytes {
        c.global_coalesced(s.nnz as f64 * (4.0 + vb as f64));
    } else {
        c.global_random(1.0, 4.0);
    }
    c.warp_reduce(block_threads as f64 / 32.0);
    c.finish()
}

/// Cost of one merge row block (group-0 scale rows: the accumulator
/// lives in global memory; every A element streams it once).
pub(crate) fn merge_block_cost(
    gpu: &Gpu,
    s: &RowAlgStats,
    value_bytes: Option<usize>,
) -> BlockCost {
    let mut c = gpu.block_cost();
    c.compute(ROW_PIPELINE_SLOTS);
    c.global_random(s.a_len as f64 * 2.0, 4.0);
    let elem = 4.0 + value_bytes.unwrap_or(0) as f64;
    c.global_coalesced(s.products as f64 * elem);
    // The two-pointer merge reads and rewrites the accumulator.
    c.global_coalesced(s.merge_moves as f64 * 2.0 * elem);
    c.compute(s.merge_moves as f64 / 32.0 * 2.0);
    if let Some(vb) = value_bytes {
        c.global_coalesced(s.nnz as f64 * (4.0 + vb as f64));
    } else {
        c.global_random(1.0, 4.0);
    }
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::HashTable;
    use crate::kernels::tb_numeric_row;
    use sparse::spgemm_ref::spgemm_gustavson;

    fn rand_mat(n: usize, deg: usize, seed: u64) -> Csr<f64> {
        let mut s = seed;
        let mut t = Vec::new();
        for r in 0..n {
            for _ in 0..deg {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                t.push((r, ((s >> 33) as usize % n) as u32, 1.0 + (s % 7) as f64 * 0.25));
            }
        }
        Csr::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn esc_and_merge_rows_are_bitwise_equal_to_hash() {
        let a = rand_mat(160, 7, 3);
        let b = rand_mat(160, 6, 11);
        let c_ref = spgemm_gustavson(&a, &b).unwrap();
        let mut table = HashTable::<f64>::new(4096, true);
        let mut scratch = RowAlgScratch::new();
        for row in 0..a.rows() {
            let nnz = c_ref.row_nnz(row);
            let mut hc = vec![0u32; nnz];
            let mut hv = vec![0.0f64; nnz];
            tb_numeric_row(&a, &b, row, 4096, &mut table, &mut hc, &mut hv);

            let mut ec = vec![0u32; nnz];
            let mut ev = vec![0.0f64; nnz];
            let es = esc_numeric_row(&a, &b, row, &mut scratch, &mut ec, &mut ev);
            assert_eq!(es.nnz as usize, nnz, "row {row}");
            assert_eq!(ec, hc, "esc cols row {row}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&ev), bits(&hv), "esc vals row {row}");

            let mut mc = vec![0u32; nnz];
            let mut mv = vec![0.0f64; nnz];
            let ms = merge_numeric_row(&a, &b, row, &mut scratch, &mut mc, &mut mv);
            assert_eq!(ms.nnz as usize, nnz, "row {row}");
            assert_eq!(mc, hc, "merge cols row {row}");
            assert_eq!(bits(&mv), bits(&hv), "merge vals row {row}");

            // Symbolic counts agree too.
            assert_eq!(esc_symbolic_row(&a, &b, row, &mut scratch).nnz as usize, nnz);
            assert_eq!(merge_symbolic_row(&a, &b, row, &mut scratch).nnz as usize, nnz);
        }
    }

    #[test]
    fn policy_parses_and_displays() {
        assert_eq!(AlgorithmPolicy::parse("hash").unwrap(), AlgorithmPolicy::HashOnly);
        assert_eq!(AlgorithmPolicy::parse("adaptive").unwrap(), AlgorithmPolicy::Adaptive);
        assert!(AlgorithmPolicy::parse("nope").is_err());
        assert_eq!(AlgorithmPolicy::Adaptive.to_string(), "adaptive");
        assert_eq!(AlgorithmChoice::Esc.to_string(), "esc");
        assert_eq!(AlgorithmChoice::default(), AlgorithmChoice::Hash);
    }
}
