//! BHSPARSE baseline: Liu & Vinter's bin-dispatched hybrid SpGEMM
//! (§V, \[17\]).
//!
//! The published algorithm assigns rows to bins by their *upper-bound*
//! non-zero count (the intermediate-product count) and picks a method
//! per bin:
//!
//! * tiny rows (≤ [`HEAP_LIMIT`]) — the **heap method**: a per-thread
//!   binary heap k-way-merges the selected B rows (compute-heavy,
//!   `ip · log(a_len)` comparisons, but perfectly load-balanced);
//! * medium rows (≤ [`ESC_LIMIT`]) — **bitonic ESC in shared memory**:
//!   expand the row's products into shared memory, bitonic-sort
//!   (`ip · log² ip` shared ops), scan and compact;
//! * large rows — **merge-path in global memory** with iteratively
//!   doubled buffers; the row's products are materialized in DRAM, which
//!   is where BHSPARSE's memory appetite comes from (§IV-B: up to 3×
//!   cuSPARSE on irregular matrices, OOM on cage15/wb-edu).
//!
//! Binning gives BHSPARSE its strength on irregular matrices (good load
//! balance) and its weakness on regular high-throughput ones (per-product
//! costs higher than a shared-memory hash) — both visible in Figure 2.

use crate::common::{check_dims, finish_report, phase_snapshot, Allocs};
use nsparse_core::pipeline::Result;
use sparse::spgemm_ref::{row_intermediate_products, spgemm_gustavson};
use sparse::{Csr, Scalar};
use vgpu::device::DEFAULT_STREAM;
use vgpu::{primitives, BlockCost, Gpu, KernelDesc, Phase, SpgemmReport, StreamId};

/// Per-row pipeline cost (issue slots): bin lookup, heap initialization
/// and result-cursor bookkeeping of the hybrid dispatcher. Calibrated
/// against the paper's Figure 2b BHSPARSE bars.
const HEAP_ROW_SLOTS: f64 = 1800.0;
/// Per-row overhead of the ESC and merge bins (buffer management and the
/// multi-kernel per-bin pipeline of the original implementation).
const BIG_ROW_SLOTS: f64 = 1500.0;

/// Upper bound (intermediate products) handled by the heap method.
pub const HEAP_LIMIT: usize = 64;
/// Upper bound handled by bitonic ESC in shared memory.
pub const ESC_LIMIT: usize = 2048;

/// BHSPARSE-like SpGEMM `C = A * B` on the virtual device.
pub fn multiply<T: Scalar>(
    gpu: &mut Gpu,
    a: &Csr<T>,
    b: &Csr<T>,
) -> Result<(Csr<T>, SpgemmReport)> {
    let mut allocs = Allocs::new();
    let res = multiply_inner(gpu, a, b, &mut allocs);
    allocs.free_all(gpu);
    if res.is_err() {
        gpu.set_phase(Phase::Other);
    }
    res
}

fn multiply_inner<T: Scalar>(
    gpu: &mut Gpu,
    a: &Csr<T>,
    b: &Csr<T>,
    allocs: &mut Allocs,
) -> Result<(Csr<T>, SpgemmReport)> {
    check_dims(a, b)?;
    let m = a.rows();
    let before = phase_snapshot(gpu);
    let nprod = row_intermediate_products(a, b)?;
    let ip: u64 = nprod.iter().map(|&x| x as u64).sum();

    allocs.push(gpu.malloc(a.device_bytes(), "A")?);
    allocs.push(gpu.malloc(b.device_bytes(), "B")?);

    // --- Setup: compute upper bounds and bin the rows ---
    gpu.set_phase(Phase::Setup);
    allocs.push(gpu.malloc(4 * (m as u64 + 1), "upper_bounds")?);
    {
        let n = gpu.config().num_sms * 4;
        let per = BlockCost {
            slots: (a.nnz() as f64 * 2.0 + m as f64) / 32.0 / n as f64,
            dram_bytes: (a.nnz() as f64 * 12.0 + m as f64 * 8.0) / n as f64,
        };
        gpu.launch(KernelDesc::new("bh_bounds_and_bin", DEFAULT_STREAM, 256, 0), vec![per; n])?;
    }
    primitives::exclusive_scan(gpu, DEFAULT_STREAM, m as u64, 4)?;
    allocs.push(gpu.malloc(4 * m as u64, "bin_rows")?);

    let mut heap_rows: Vec<u32> = Vec::new();
    let mut esc_rows: Vec<u32> = Vec::new();
    let mut merge_rows: Vec<u32> = Vec::new();
    for (r, &p) in nprod.iter().enumerate() {
        if p <= HEAP_LIMIT {
            heap_rows.push(r as u32);
        } else if p <= ESC_LIMIT {
            esc_rows.push(r as u32);
        } else {
            merge_rows.push(r as u32);
        }
    }

    // Upper-bound output buffer: BHSPARSE computes *into* memory sized
    // by the bound (products) for ESC/merge rows before compaction —
    // the big allocation behind its Figure 4 footprint.
    let ub_entries: u64 = nprod.iter().filter(|&&p| p > HEAP_LIMIT).map(|&p| p as u64).sum();
    let entry = (4 + T::BYTES) as u64;
    gpu.set_phase(Phase::Calc);
    allocs.push(gpu.malloc(ub_entries * entry, "ub_output")?);
    // Merge-path rows additionally keep a second (ping-pong) buffer.
    let merge_entries: u64 = merge_rows.iter().map(|&r| nprod[r as usize] as u64).sum();
    allocs.push(gpu.malloc(merge_entries * entry, "merge_buffer")?);

    // --- Compute each bin with its method (streams per bin) ---
    // Heap bin: 64 threads/block, one row per thread.
    if !heap_rows.is_empty() {
        let mut blocks = Vec::with_capacity(heap_rows.len().div_ceil(64));
        for chunk in heap_rows.chunks(64) {
            let mut c = gpu.block_cost();
            for &r in chunk {
                let p = nprod[r as usize] as f64;
                let alen = (a.row_nnz(r as usize).max(2)) as f64;
                // Serial per-thread heap: ip·log2(a_len) sift steps; the
                // whole walk is lane-serial (divergent), B loads random.
                c.compute(HEAP_ROW_SLOTS + p * alen.log2() / 32.0 * 3.0);
                c.global_random(p + alen * 2.0, 4.0 + T::BYTES as f64);
            }
            c.global_coalesced(chunk.len() as f64 * 8.0);
            blocks.push(c.finish());
        }
        gpu.launch(KernelDesc::new("bh_heap", StreamId(1), 64, 0), blocks)?;
    }
    // ESC bin: one block per row, bitonic sort in shared memory.
    if !esc_rows.is_empty() {
        let mut blocks = Vec::with_capacity(esc_rows.len());
        for &r in &esc_rows {
            let p = nprod[r as usize] as f64;
            let alen = a.row_nnz(r as usize) as f64;
            let mut c = gpu.block_cost();
            c.compute(BIG_ROW_SLOTS);
            // Expansion into shared memory.
            c.global_random(alen * 2.0, 4.0);
            c.global_coalesced(p * (4.0 + T::BYTES as f64));
            c.shared_access(p / 32.0 * 2.0);
            // Bitonic sort runs on the next power of two (padded with
            // sentinel keys): padded·log²(padded)/32 shared warp ops,
            // each a compare-exchange (~2 accesses + 1 ALU).
            let padded = (p as u64).max(2).next_power_of_two() as f64;
            let lg = padded.log2();
            c.shared_access(padded * lg * lg / 32.0 * 2.0);
            c.compute(padded * lg * lg / 32.0);
            // Scan + compaction into the upper-bound buffer.
            c.shared_access(p / 32.0 * 2.0);
            c.global_coalesced(p * (4.0 + T::BYTES as f64));
            blocks.push(c.finish());
        }
        let shared = (ESC_LIMIT * (4 + T::BYTES)).min(gpu.config().max_shared_per_block);
        gpu.launch(KernelDesc::new("bh_esc", StreamId(2), 256, shared), blocks)?;
    }
    // Merge bin: one block per row, merge-path in global memory.
    if !merge_rows.is_empty() {
        let mut blocks = Vec::with_capacity(merge_rows.len());
        for &r in &merge_rows {
            let p = nprod[r as usize] as f64;
            let alen = a.row_nnz(r as usize).max(2) as f64;
            let mut c = gpu.block_cost();
            c.compute(BIG_ROW_SLOTS);
            // log2(a_len) pairwise merge rounds, each streaming the
            // row's products through DRAM (read + write, ping-pong
            // buffers) with per-element merge-path partition searches
            // (binary searches → extra random traffic + ALU).
            let rounds = alen.log2().ceil();
            c.global_coalesced(rounds * 2.0 * p * (4.0 + T::BYTES as f64));
            c.global_random(rounds * p / 16.0, 4.0);
            c.compute(rounds * p / 32.0 * 10.0);
            c.global_random(alen * 2.0, 4.0);
            blocks.push(c.finish());
        }
        gpu.launch(KernelDesc::new("bh_merge", StreamId(3), 256, 0), blocks)?;
    }

    // Functional result: the hybrid computes the exact same merge as the
    // CPU reference (BHSPARSE is an exact SpGEMM).
    let c = spgemm_gustavson(a, b)?;
    let nnz_c = c.nnz() as u64;

    // --- Output malloc + compaction of the upper-bound buffers ---
    gpu.set_phase(Phase::Malloc);
    allocs.push(gpu.malloc(4 * (m as u64 + 1) + nnz_c * entry, "C")?);
    gpu.set_phase(Phase::Calc);
    primitives::exclusive_scan(gpu, DEFAULT_STREAM, m as u64 + 1, 4)?;
    primitives::gather(gpu, DEFAULT_STREAM, nnz_c, entry as u32)?;

    // Merge-based numeric stage: no hash tables, so no probes.
    let report = finish_report(gpu, &before, "bhsparse", T::PRECISION, ip, nnz_c, 0);
    Ok((c, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgpu::DeviceConfig;

    fn rand_mat(n: usize, deg: usize, seed: u64) -> Csr<f64> {
        let mut s = seed;
        let mut t = Vec::new();
        for r in 0..n {
            for _ in 0..deg {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                t.push((r, ((s >> 33) as usize % n) as u32, 1.0 + (s % 7) as f64));
            }
        }
        Csr::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn result_matches_reference() {
        let a = rand_mat(500, 6, 9);
        let mut g = Gpu::new(DeviceConfig::p100());
        let (c, r) = multiply(&mut g, &a, &a).unwrap();
        assert_eq!(c, spgemm_gustavson(&a, &a).unwrap());
        assert!(r.gflops() > 0.0);
        assert_eq!(g.live_mem_bytes(), 0);
    }

    #[test]
    fn memory_scales_with_upper_bound() {
        let a = rand_mat(2000, 20, 1); // products/row ~400 → ESC bin
        let ip = sparse::spgemm_ref::total_intermediate_products(&a, &a).unwrap();
        let mut g = Gpu::new(DeviceConfig::p100());
        let (_, r) = multiply(&mut g, &a, &a).unwrap();
        assert!(r.peak_mem_bytes >= ip * 12, "peak {} vs ip {}", r.peak_mem_bytes, ip);
    }

    #[test]
    fn oom_on_small_device() {
        let a = rand_mat(3000, 25, 2);
        let ip = sparse::spgemm_ref::total_intermediate_products(&a, &a).unwrap();
        let cap = 2 * a.device_bytes() + ip * 12 / 2;
        let mut g = Gpu::new(DeviceConfig::p100_with_memory(cap));
        assert!(matches!(
            multiply(&mut g, &a, &a),
            Err(nsparse_core::pipeline::Error::DeviceOom(_))
        ));
        assert_eq!(g.live_mem_bytes(), 0);
    }

    #[test]
    fn handles_skewed_rows_better_than_row_per_warp() {
        // BHSPARSE's merge bin isolates the giant row; its slowdown on
        // a skewed matrix must be smaller than cuSPARSE-like's.
        let n = 4000;
        let mut t = Vec::new();
        for c in 0..n {
            t.push((0usize, c as u32, 1.0));
        }
        for r in 1..n {
            t.push((r, (r % n) as u32, 1.0));
        }
        let skew = Csr::from_triplets(n, n, &t).unwrap();
        let mut g1 = Gpu::new(DeviceConfig::p100());
        let (_, bh) = multiply(&mut g1, &skew, &skew).unwrap();
        let mut g2 = Gpu::new(DeviceConfig::p100());
        let (_, cu) = crate::cusparse_like::multiply(&mut g2, &skew, &skew).unwrap();
        assert!(bh.gflops() > cu.gflops(), "bhsparse {} vs cusparse {}", bh.gflops(), cu.gflops());
    }

    #[test]
    fn empty_and_identity() {
        let z = Csr::<f64>::zeros(32, 32);
        let mut g = Gpu::new(DeviceConfig::p100());
        let (c, _) = multiply(&mut g, &z, &z).unwrap();
        assert_eq!(c.nnz(), 0);
        let i = Csr::<f64>::identity(64);
        let (c, _) = multiply(&mut g, &i, &i).unwrap();
        assert_eq!(c, i);
    }
}
