//! CUSP baseline: the ESC (expansion, sorting, contraction) algorithm
//! (§II-B; Bell, Dalton & Olson \[1\], CUSP \[16\]).
//!
//! 1. **Expansion** materializes *every* intermediate product as a
//!    `(row, col, value)` tuple in device memory — the paper's central
//!    criticism: "extremely large amount of intermediate data".
//! 2. **Sorting** orders the tuple list by (row, col) with an LSD radix
//!    sort over the combined key (double-buffered, so a second
//!    tuple-sized allocation appears).
//! 3. **Contraction** reduces runs of equal (row, col) into the output.
//!
//! The functional result is produced by the CPU reference (ESC computes
//! bit-identical structure to Gustavson up to floating-point summation
//! order); the cost and memory profiles are charged from the published
//! data-movement pattern. Performance is dominated by sorting `ip`
//! 64-bit keys + values and is largely independent of sparsity pattern —
//! the paper's observation that "CUSP achieves constant performance for
//! all matrices" falls out of the model.

use crate::common::{check_dims, finish_report, phase_snapshot, Allocs};
use nsparse_core::pipeline::Result;
use sparse::spgemm_ref::{row_intermediate_products, spgemm_gustavson};
use sparse::{Csr, Scalar};
use vgpu::device::DEFAULT_STREAM;
use vgpu::{primitives, BlockCost, Gpu, KernelDesc, Phase, SpgemmReport};

/// Extra per-item issue slots per radix pass beyond pure traffic —
/// histogramming, ranking and scatter address math. Calibrated so the
/// virtual device sorts ~2G (key, value) items/s, matching published
/// P100 radix-sort throughput.
const SORT_SLOTS_PER_ITEM_PASS: f64 = 7.0;

/// ESC SpGEMM `C = A * B` on the virtual device.
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

    // --- Setup: count products per row, scan into expansion offsets ---
    gpu.set_phase(Phase::Setup);
    allocs.push(gpu.malloc(4 * (m as u64 + 1), "esc_offsets")?);
    launch_count_products(gpu, a)?;
    primitives::exclusive_scan(gpu, DEFAULT_STREAM, m as u64 + 1, 4)?;

    // --- Calc: expansion, sorting, contraction — slab by slab ---
    // CUSP does not materialize all intermediate products at once: rows
    // are partitioned into slabs whose expansion fits a bounded
    // workspace, each slab is expanded/sorted/contracted, and the slab
    // results are merged. The workspace is what OOMs on the huge graphs.
    gpu.set_phase(Phase::Calc);
    let c = spgemm_gustavson(a, b)?;
    let nnz_c = c.nnz() as u64;
    let tuple_bytes = (8 + T::BYTES) as u64; // row + col + value
    let slab_entries = ip.min(6 * nnz_c.max(m as u64));
    // Expansion buffer + the radix sort's double buffer.
    allocs.push(gpu.malloc(slab_entries * tuple_bytes, "esc_expansion")?);
    allocs.push(gpu.malloc(slab_entries * tuple_bytes, "esc_sort_buffer")?);
    let n_slabs = ip.div_ceil(slab_entries.max(1)).max(1);

    let key_bits = 64u32; // CUSP sorts the full combined (row, col) key
    let mut remaining = ip;
    for slab in 0..n_slabs {
        let sip = remaining.min(slab_entries);
        remaining -= sip;
        // Expansion kernel: read A (row-major sweep) and gather B rows,
        // write one tuple per product.
        let n = gpu.config().num_sms * 4;
        let read = sip as f64 * (4.0 + T::BYTES as f64);
        let write = sip as f64 * tuple_bytes as f64;
        let a_random = a.nnz() as f64 * 2.0 / n_slabs as f64;
        let per = BlockCost {
            slots: (sip as f64 / 32.0 * 3.0 + a_random) / n as f64,
            dram_bytes: (read + write + a_random * 32.0) / n as f64,
        };
        gpu.launch(
            KernelDesc::new(format!("esc_expand_s{slab}"), DEFAULT_STREAM, 256, 0),
            vec![per; n],
        )?;
        primitives::radix_sort_pairs(gpu, DEFAULT_STREAM, sip, key_bits, T::BYTES as u32)?;
        {
            // Extra compute beyond the primitive's traffic model (see
            // SORT_SLOTS_PER_ITEM_PASS).
            let passes = (key_bits / 8) as f64;
            let per = BlockCost {
                slots: sip as f64 * passes * SORT_SLOTS_PER_ITEM_PASS / n as f64,
                dram_bytes: 0.0,
            };
            gpu.launch(
                KernelDesc::new(format!("esc_sort_ranking_s{slab}"), DEFAULT_STREAM, 256, 0),
                vec![per; n],
            )?;
        }
        // Contraction: reduce_by_key over the sorted slab.
        let per = BlockCost {
            slots: sip as f64 / 32.0 * 4.0 / n as f64,
            dram_bytes: (sip * tuple_bytes + nnz_c * (4 + T::BYTES as u64) / n_slabs) as f64
                / n as f64,
        };
        gpu.launch(
            KernelDesc::new(format!("esc_contract_s{slab}"), DEFAULT_STREAM, 256, 0),
            vec![per; n],
        )?;
    }
    primitives::exclusive_scan(gpu, DEFAULT_STREAM, m as u64 + 1, 4)?;

    // --- Malloc: the output matrix ---
    gpu.set_phase(Phase::Malloc);
    allocs.push(gpu.malloc(4 * (m as u64 + 1) + nnz_c * (4 + T::BYTES as u64), "C")?);
    gpu.set_phase(Phase::Calc);
    primitives::gather(gpu, DEFAULT_STREAM, nnz_c, (4 + T::BYTES) as u32)?;

    // ESC sorts instead of hashing: no probes to report.
    let report = finish_report(gpu, &before, "cusp", T::PRECISION, ip, nnz_c, 0);
    Ok((c, report))
}

/// The Algorithm-2 style product-count kernel (same traffic as the
/// proposal's setup kernel).
fn launch_count_products<T: Scalar>(gpu: &mut Gpu, a: &Csr<T>) -> Result<()> {
    let m = a.rows();
    let mut blocks = Vec::with_capacity(m.div_ceil(256));
    for start in (0..m).step_by(256) {
        let end = (start + 256).min(m);
        let a_elems: f64 = (a.rpt()[end] - a.rpt()[start]) as f64;
        let mut c = gpu.block_cost();
        c.global_coalesced(a_elems * 4.0);
        c.global_random(a_elems, 8.0);
        c.compute(a_elems / 32.0 * 2.0);
        c.global_coalesced((end - start) as f64 * 4.0);
        blocks.push(c.finish());
    }
    gpu.launch(KernelDesc::new("esc_count", DEFAULT_STREAM, 256, 0), blocks)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgpu::DeviceConfig;

    fn banded(n: usize, deg: usize) -> Csr<f64> {
        let mut t = Vec::new();
        for r in 0..n {
            for d in 0..deg {
                t.push((r, ((r + d * 3) % n) as u32, 1.0 + (r % 5) as f64));
            }
        }
        Csr::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn result_matches_reference() {
        let a = banded(500, 6);
        let mut g = Gpu::new(DeviceConfig::p100());
        let (c, report) = multiply(&mut g, &a, &a).unwrap();
        assert_eq!(c, spgemm_gustavson(&a, &a).unwrap());
        assert!(report.gflops() > 0.0);
        assert_eq!(g.live_mem_bytes(), 0);
    }

    #[test]
    fn memory_scales_with_intermediate_products() {
        // Peak must include ~2 tuple buffers of ip entries.
        let a = banded(2000, 8);
        let ip = sparse::spgemm_ref::total_intermediate_products(&a, &a).unwrap();
        let mut g = Gpu::new(DeviceConfig::p100());
        let (_, report) = multiply(&mut g, &a, &a).unwrap();
        let tuple = (8 + 8) as u64;
        assert!(report.peak_mem_bytes >= 2 * ip * tuple);
    }

    #[test]
    fn oom_on_small_device() {
        // Device fits inputs but not the expansion buffers.
        let a = banded(4000, 12);
        let ip = sparse::spgemm_ref::total_intermediate_products(&a, &a).unwrap();
        let cap = a.device_bytes() * 2 + ip * 16 / 2;
        let mut g = Gpu::new(DeviceConfig::p100_with_memory(cap));
        let res = multiply(&mut g, &a, &a);
        assert!(matches!(res, Err(nsparse_core::pipeline::Error::DeviceOom(_))));
        assert_eq!(g.live_mem_bytes(), 0);
    }

    #[test]
    fn throughput_roughly_constant_across_patterns() {
        // The paper: "CUSP achieves constant performance for all
        // matrices". Banded vs scattered with similar ip should land
        // within ~2.5x of each other.
        let a = banded(3000, 10);
        let mut t = Vec::new();
        let mut s = 7u64;
        for r in 0..3000usize {
            for _ in 0..10 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                t.push((r, ((s >> 33) % 3000) as u32, 1.0));
            }
        }
        let b = Csr::from_triplets(3000, 3000, &t).unwrap();
        let mut g1 = Gpu::new(DeviceConfig::p100());
        let (_, r1) = multiply(&mut g1, &a, &a).unwrap();
        let mut g2 = Gpu::new(DeviceConfig::p100());
        let (_, r2) = multiply(&mut g2, &b, &b).unwrap();
        let ratio = r1.gflops() / r2.gflops();
        assert!(ratio > 0.4 && ratio < 2.5, "ratio {ratio}");
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = Csr::<f32>::zeros(3, 4);
        let mut g = Gpu::new(DeviceConfig::p100());
        assert!(multiply(&mut g, &a, &a).is_err());
    }
}
