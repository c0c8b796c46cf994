//! Row kernels: functional execution + cost charging (Algorithms 3–5).
//!
//! Each function walks the B-rows selected by one A-row through the hash
//! table exactly as the device kernel would, and converts the *observed*
//! work (elements touched, probe chains, output size) into a
//! [`BlockCost`]. Charging conventions (all counts are warp-instruction
//! granular):
//!
//! * **TB/ROW** (Alg. 4): one warp strides a B-row 32 elements at a
//!   time → `ceil(len/32)` chunks; B columns/values are read coalesced;
//!   each chunk issues ~1 CAS warp-instruction; linear-probing excess is
//!   charged as divergent conflict work.
//! * **PWARP/ROW** (Alg. 3): each lane of a 4-lane partial warp walks a
//!   whole B-row serially, so a warp's instruction count is the *maximum*
//!   over its lanes (SIMT lockstep) and B loads are uncoalesced.
//! * **Global fallback** (group 0): same traversal but table probes go
//!   to global memory as atomics on 32-byte sectors.
//! * **Numeric extras** (§III-C): shared-table initialization, the
//!   gather pass over the table, the count-sort (each element compared
//!   against the row's others → `nnz²` comparisons), and the coalesced
//!   write of the finished row.
//!
//! Only the simulated backend runs these functions. [`crate::sim`] runs
//! the functional half — the row walk and its [`TbRowStats`] /
//! [`PwarpRowStats`] — on worker threads, each with its own table, then
//! charges the [`BlockCost`]s on the calling thread in row order, so
//! simulated time cannot depend on the thread count (DESIGN.md §12). The
//! host backend has CPU-native accumulators of its own ([`crate::host`]);
//! both accumulate in A-row order, which keeps their output bitwise
//! equal.

use crate::groups::GroupSpec;
use crate::hash::{HashTable, Insert};
use sparse::{Csr, Scalar};
use vgpu::{BlockCost, Gpu};

/// Warp-instruction charge for sorting one row of `nnz` elements inside
/// shared memory (§III-C phase 3): the count-sort is `nnz²` compares
/// spread over 32 lanes; beyond the crossover a staged bitonic-style
/// sort (`nnz·log²nnz`) is cheaper, so the model takes the minimum.
pub(crate) fn sort_slots(nnz: f64) -> f64 {
    if nnz <= 1.0 {
        return 0.0;
    }
    let quad = nnz * nnz / 32.0;
    let lg = nnz.log2();
    let staged = nnz * lg * lg / 32.0 * 6.0;
    quad.min(staged)
}

/// Per-row pipeline cost (issue slots): the serial dependent-load chain
/// every row pays (row pointers, group index, result pointer — a few
/// hundred cycles of latency that low-arithmetic rows cannot hide).
/// Calibrated so the proposal's low-throughput GFLOPS sit in the paper's
/// regime; the baselines carry larger constants for their heavier row
/// machinery.
pub(crate) const ROW_PIPELINE_SLOTS: f64 = 96.0;

/// Observed work of one TB/ROW row traversal.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TbRowStats {
    /// Intermediate products touched (Σ B-row lengths).
    pub products: u64,
    /// Warp chunks (Σ ceil(B-row length / 32)).
    pub chunks: u64,
    /// Total probe steps observed in the hash table.
    pub probes: u64,
    /// Distinct columns (row nnz) found.
    pub nnz: u32,
    /// Count-phase first pass ran out of table space.
    pub overflowed: bool,
    /// A-row length.
    pub a_len: u64,
}

/// Walk one row TB/ROW-style through `table` (symbolic). `cap` is the
/// group's table size; on overflow the walk stops (the paper's first
/// count pass "immediately terminates" and records the row).
pub(crate) fn tb_symbolic_row<T: Scalar>(
    a: &Csr<T>,
    b: &Csr<T>,
    row: usize,
    cap: usize,
    table: &mut HashTable<T>,
) -> TbRowStats {
    table.reset(cap);
    let (acols, _) = a.row(row);
    let mut s = TbRowStats { a_len: acols.len() as u64, ..Default::default() };
    'outer: for &k in acols {
        let (bcols, _) = b.row(k as usize);
        s.products += bcols.len() as u64;
        s.chunks += bcols.len().div_ceil(32) as u64;
        for &j in bcols {
            if table.insert_symbolic(j) == Insert::Overflow {
                s.overflowed = true;
                break 'outer;
            }
        }
    }
    s.probes = table.take_probes();
    s.nnz = table.occupied() as u32;
    s
}

/// Walk one row TB/ROW-style through `table` (numeric), then extract the
/// sorted row into `out_cols`/`out_vals` (slices of exactly the row's
/// nnz, as established by the symbolic phase).
pub(crate) fn tb_numeric_row<T: Scalar>(
    a: &Csr<T>,
    b: &Csr<T>,
    row: usize,
    cap: usize,
    table: &mut HashTable<T>,
    out_cols: &mut [u32],
    out_vals: &mut [T],
) -> TbRowStats {
    table.reset(cap);
    let (acols, avals) = a.row(row);
    let mut s = TbRowStats { a_len: acols.len() as u64, ..Default::default() };
    for (&k, &av) in acols.iter().zip(avals) {
        let (bcols, bvals) = b.row(k as usize);
        s.products += bcols.len() as u64;
        s.chunks += bcols.len().div_ceil(32) as u64;
        for (&j, &bv) in bcols.iter().zip(bvals) {
            let r = table.insert_numeric(j, av * bv);
            debug_assert_ne!(r, Insert::Overflow, "numeric table sized from symbolic nnz");
        }
    }
    s.probes = table.take_probes();
    s.nnz = table.occupied() as u32;
    table.extract_sorted_into(out_cols, out_vals);
    s
}

/// Convert one TB/ROW row's stats into a block cost.
///
/// `value_bytes = None` → symbolic; `Some(vb)` → numeric (adds value
/// traffic, gather, count-sort and the output write).
pub(crate) fn tb_block_cost(
    gpu: &Gpu,
    spec: &GroupSpec,
    s: &TbRowStats,
    value_bytes: Option<usize>,
) -> BlockCost {
    let mut c = gpu.block_cost();
    let excess = s.probes.saturating_sub(s.products) as f64;
    c.compute(ROW_PIPELINE_SLOTS);
    // Shared-table initialization by the whole block.
    c.shared_access(spec.table_size as f64 / 32.0);
    // A-row loads: column + row-pointer pair per element, random.
    c.global_random(s.a_len as f64 * 2.0, 4.0);
    // B loads, coalesced: columns always, values in the numeric phase.
    let elem_bytes = 4.0 + value_bytes.unwrap_or(0) as f64;
    c.global_coalesced(s.products as f64 * elem_bytes);
    // Hash work: ~2 ALU warp-instructions and one CAS per chunk, plus
    // divergent probing for observed collision excess.
    c.compute(s.chunks as f64 * 2.0);
    c.shared_atomic(s.chunks as f64, excess / 32.0 * 4.0);
    if value_bytes.is_some() {
        // atomicAdd per chunk (accumulation into the value array).
        c.shared_atomic(s.chunks as f64, 0.0);
    }
    if let Some(vb) = value_bytes {
        let nnz = s.nnz as f64;
        // Gather: scan the table, compact entries.
        c.shared_access(spec.table_size as f64 / 32.0 + nnz / 32.0);
        // Sort: the count-sort compares each element against the row's
        // others (quadratic); wide rows switch to a staged (bitonic-like)
        // shared sort, so the charge is the smaller of the two shapes.
        c.shared_access(sort_slots(nnz));
        // Write the finished row out, coalesced.
        c.global_coalesced(nnz * (4.0 + vb as f64));
    } else {
        // Write the per-row nnz counter.
        c.global_random(1.0, 4.0);
    }
    c.warp_reduce(spec.block_threads as f64 / 32.0);
    c.finish()
}

/// Convert one *global-table* (group 0) row's stats into a block cost.
pub(crate) fn tb_global_block_cost(
    gpu: &Gpu,
    s: &TbRowStats,
    table_size: usize,
    value_bytes: Option<usize>,
) -> BlockCost {
    let mut c = gpu.block_cost();
    let excess = s.probes.saturating_sub(s.products) as f64;
    c.global_random(s.a_len as f64 * 2.0, 4.0);
    let elem_bytes = 4.0 + value_bytes.unwrap_or(0) as f64;
    c.global_coalesced(s.products as f64 * elem_bytes);
    c.compute(s.chunks as f64 * 2.0);
    // Probes are global atomics now; every probe touches a 32 B sector.
    c.global_atomic(s.chunks as f64, 4.0);
    c.global_random(excess, 8.0);
    if let Some(vb) = value_bytes {
        c.global_atomic(s.chunks as f64, vb as f64);
        let nnz = s.nnz as f64;
        let eb = 4.0 + vb as f64;
        // Gather reads the whole global table, writes the row.
        c.global_coalesced(table_size as f64 * eb);
        c.global_coalesced(nnz * eb);
        // Sort in global memory: charged as a log²-depth merge network
        // rather than the shared-memory count-sort (rows here can be
        // enormous; the quadratic scan is only done inside shared tables).
        let logn = (nnz.max(2.0)).log2();
        c.global_random(nnz * logn * logn / 32.0, eb);
    } else {
        c.global_random(1.0, 4.0);
    }
    c.finish()
}

/// Observed work of one PWARP/ROW row.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PwarpRowStats {
    /// Intermediate products.
    pub products: u64,
    /// Max serial steps over the row's lanes (SIMT critical path).
    pub lane_max: u64,
    /// Probe steps observed.
    pub probes: u64,
    /// Distinct columns.
    pub nnz: u32,
    /// Symbolic walk ran out of table space (possible only when the
    /// grouping metric was a sampling under-estimate; the row is then
    /// recounted exactly by the replan path).
    pub overflowed: bool,
    /// A-row length.
    pub a_len: u64,
}

/// Walk one row PWARP-style (width lanes striding the A-row, each lane
/// walking its B-rows serially). With `out` (the numeric phase) the walk
/// accumulates values and extracts the sorted row into it; without, it
/// only counts columns. `lane_steps` is the caller's reused per-lane
/// step buffer.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pwarp_row<T: Scalar>(
    a: &Csr<T>,
    b: &Csr<T>,
    row: usize,
    width: usize,
    cap: usize,
    table: &mut HashTable<T>,
    lane_steps: &mut Vec<u64>,
    out: Option<(&mut [u32], &mut [T])>,
) -> PwarpRowStats {
    table.reset(cap);
    let (acols, avals) = a.row(row);
    let mut s = PwarpRowStats { a_len: acols.len() as u64, ..Default::default() };
    let numeric = out.is_some();
    lane_steps.clear();
    lane_steps.resize(width, 0);
    'outer: for (idx, (&k, &av)) in acols.iter().zip(avals).enumerate() {
        let lane = idx % width;
        let (bcols, bvals) = b.row(k as usize);
        s.products += bcols.len() as u64;
        for (&j, &bv) in bcols.iter().zip(bvals) {
            if numeric {
                let r = table.insert_numeric(j, av * bv);
                debug_assert_ne!(r, Insert::Overflow, "numeric table sized from symbolic nnz");
            } else if table.insert_symbolic(j) == Insert::Overflow {
                // Same contract as the TB/ROW first pass: terminate and
                // hand the row to the exact recount.
                s.overflowed = true;
                let probes = table.take_probes();
                s.probes += probes;
                lane_steps[lane] += 1 + probes;
                break 'outer;
            }
        }
        let probes = table.take_probes();
        s.probes += probes;
        // One step per element plus its probe chain, plus the A load.
        lane_steps[lane] += 1 + probes;
    }
    s.lane_max = lane_steps.iter().copied().max().unwrap_or(0);
    s.nnz = table.occupied() as u32;
    if let Some((oc, ov)) = out {
        table.extract_sorted_into(oc, ov);
    }
    s
}

/// Cost of one PWARP block processing `rows` row stats (the block holds
/// `block_threads / width` rows, 32/width rows per warp).
pub(crate) fn pwarp_block_cost(
    gpu: &Gpu,
    spec: &GroupSpec,
    width: usize,
    rows: &[PwarpRowStats],
    value_bytes: Option<usize>,
) -> BlockCost {
    let mut c = gpu.block_cost();
    c.compute(ROW_PIPELINE_SLOTS * rows.len() as f64);
    let rows_per_warp = (32 / width).max(1);
    // Per-row shared-table initialization (tiny tables).
    c.shared_access(rows.len() as f64 * spec.table_size as f64 / 32.0 / rows_per_warp as f64);
    let mut total_products = 0.0;
    let mut total_a = 0.0;
    for warp_rows in rows.chunks(rows_per_warp) {
        // SIMT lockstep: the warp runs as long as its slowest lane.
        let warp_steps = warp_rows.iter().map(|r| r.lane_max).max().unwrap_or(0) as f64;
        // ~3 instructions per serial step (load, hash, CAS/loop), all of
        // it divergent lane-serial work.
        c.compute(warp_steps * 2.0);
        c.shared_atomic(warp_steps, 0.0);
        for r in warp_rows {
            total_products += r.products as f64;
            total_a += r.a_len as f64;
        }
        c.warp_reduce(width as f64);
    }
    // Uncoalesced loads: every lane reads its own B elements.
    let elem_bytes = 4.0 + value_bytes.unwrap_or(0) as f64;
    c.global_random(total_products + total_a * 2.0, elem_bytes);
    if let Some(vb) = value_bytes {
        for r in rows {
            let nnz = r.nnz as f64;
            // Gather + count-sort + write, per row.
            c.shared_access(spec.table_size as f64 / 32.0 / rows_per_warp as f64);
            c.shared_access(sort_slots(nnz));
            c.global_coalesced(nnz * (4.0 + vb as f64));
        }
    } else {
        c.global_random(rows.len() as f64, 4.0);
    }
    c.finish()
}

/// Cost of the setup kernel that counts intermediate products (Alg. 2):
/// one thread per row; reads the A-row columns coalesced and two
/// adjacent B row-pointers per element (random).
pub(crate) fn count_products_block_cost(gpu: &Gpu, a_elems: u64, rows: u64) -> BlockCost {
    let mut c = gpu.block_cost();
    c.global_coalesced(a_elems as f64 * 4.0);
    c.global_random(a_elems as f64, 8.0);
    c.compute(a_elems as f64 / 32.0 * 2.0);
    c.global_coalesced(rows as f64 * 4.0);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::spgemm_ref::spgemm_gustavson;
    use vgpu::DeviceConfig;

    fn small() -> (Csr<f64>, Csr<f64>) {
        let a = Csr::from_dense(&[
            vec![1.0, 2.0, 0.0, 0.0],
            vec![0.0, 1.0, 1.0, 0.0],
            vec![1.0, 0.0, 0.0, 3.0],
            vec![0.0, 0.0, 0.0, 0.0],
        ]);
        let b = Csr::from_dense(&[
            vec![1.0, 0.0, 2.0, 0.0],
            vec![0.0, 3.0, 0.0, 1.0],
            vec![1.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 5.0, 5.0],
        ]);
        (a, b)
    }

    #[test]
    fn tb_symbolic_counts_match_reference() {
        let (a, b) = small();
        let c_ref = spgemm_gustavson(&a, &b).unwrap();
        let mut table = HashTable::<f64>::new(64, true);
        for row in 0..a.rows() {
            let s = tb_symbolic_row(&a, &b, row, 64, &mut table);
            assert_eq!(s.nnz as usize, c_ref.row_nnz(row), "row {row}");
            assert!(!s.overflowed);
            assert!(s.probes >= s.products);
        }
    }

    #[test]
    fn tb_numeric_rows_reproduce_product() {
        let (a, b) = small();
        let c_ref = spgemm_gustavson(&a, &b).unwrap();
        let mut table = HashTable::<f64>::new(64, true);
        let mut cols = vec![0u32; c_ref.nnz()];
        let mut vals = vec![0.0f64; c_ref.nnz()];
        for row in 0..a.rows() {
            let span = c_ref.rpt()[row]..c_ref.rpt()[row + 1];
            tb_numeric_row(&a, &b, row, 64, &mut table, &mut cols[span.clone()], &mut vals[span]);
        }
        let c = Csr::from_parts(a.rows(), b.cols(), c_ref.rpt().to_vec(), cols, vals).unwrap();
        assert_eq!(c, c_ref);
    }

    #[test]
    fn pwarp_rows_reproduce_product() {
        let (a, b) = small();
        let c_ref = spgemm_gustavson(&a, &b).unwrap();
        let mut table = HashTable::<f64>::new(32, true);
        let mut cols = vec![0u32; c_ref.nnz()];
        let mut vals = vec![0.0f64; c_ref.nnz()];
        for row in 0..a.rows() {
            let span = c_ref.rpt()[row]..c_ref.rpt()[row + 1];
            let s = pwarp_row(
                &a,
                &b,
                row,
                4,
                32,
                &mut table,
                &mut Vec::new(),
                Some((&mut cols[span.clone()], &mut vals[span])),
            );
            assert_eq!(s.nnz as usize, c_ref.row_nnz(row));
        }
        let c = Csr::from_parts(a.rows(), b.cols(), c_ref.rpt().to_vec(), cols, vals).unwrap();
        assert_eq!(c, c_ref);
    }

    #[test]
    fn symbolic_overflow_detected() {
        // Row 0 of a selects a dense B row wider than the table.
        let a = Csr::from_dense(&[vec![1.0]]);
        let b = Csr::from_parts(1, 64, vec![0, 64], (0..64).collect(), vec![1.0; 64]).unwrap();
        let mut table = HashTable::<f64>::new(16, true);
        let s = tb_symbolic_row(&a, &b, 0, 16, &mut table);
        assert!(s.overflowed);
    }

    #[test]
    fn pwarp_lane_max_reflects_imbalance() {
        // One long B-row, three empty ones: lane 0 does all the work.
        let a = Csr::from_dense(&[vec![1.0, 1.0, 1.0, 1.0]]);
        let b = Csr::from_parts(4, 64, vec![0, 40, 40, 40, 40], (0..40).collect(), vec![1.0; 40])
            .unwrap();
        let mut table = HashTable::<f64>::new(64, true);
        let s = pwarp_row(&a, &b, 0, 4, 64, &mut table, &mut Vec::new(), None);
        assert_eq!(s.products, 40);
        // lane 0 walked 40 elements (1 step + 1 probe each) plus its A elem.
        assert!(s.lane_max >= 40);
    }

    #[test]
    fn costs_scale_with_work() {
        let (a, b) = small();
        let gpu = Gpu::new(DeviceConfig::p100());
        let mut table = HashTable::<f64>::new(64, true);
        let spec = crate::groups::build_groups(
            gpu.config(),
            8,
            crate::groups::GroupPhase::Numeric,
            4,
            true,
        )
        .groups[5]
            .clone();
        let nnz0 = spgemm_gustavson(&a, &b).unwrap().row_nnz(0);
        let (mut oc, mut ov) = (vec![0u32; nnz0], vec![0.0f64; nnz0]);
        let s0 = tb_numeric_row(&a, &b, 0, 64, &mut table, &mut oc, &mut ov);
        let c_sym = tb_block_cost(&gpu, &spec, &s0, None);
        let c_num = tb_block_cost(&gpu, &spec, &s0, Some(8));
        assert!(c_num.slots > c_sym.slots);
        assert!(c_num.dram_bytes > c_sym.dram_bytes);
        let g = tb_global_block_cost(&gpu, &s0, 128, Some(8));
        assert!(g.dram_bytes > c_num.dram_bytes);
    }

    #[test]
    fn count_products_cost_positive() {
        let gpu = Gpu::new(DeviceConfig::p100());
        let c = count_products_block_cost(&gpu, 1000, 100);
        assert!(c.slots > 0.0);
        assert!(c.dram_bytes >= 1000.0 * 4.0);
    }
}
