//! Masked SpGEMM: `C = (A · B) ∘ M` — compute only the entries of the
//! product that fall on a given pattern.
//!
//! Graph analytics (the paper's §I motivation) rarely need the full
//! product: triangle counting wants `(A·A) ∘ A`, sparse attention wants
//! a fixed output pattern. With a mask, the symbolic phase disappears
//! entirely (the output pattern *is* the mask) and the numeric hash
//! table only accepts masked-in columns, cutting both time and memory —
//! the same trick GraphBLAS `mxm` with a mask plays.

use crate::hash::{HashTable, Insert};
use crate::pipeline::{Error, Options, Result};
use sparse::spgemm_ref::row_intermediate_products;
use sparse::{Csr, Scalar};
use vgpu::device::DEFAULT_STREAM;
use vgpu::{Gpu, KernelDesc, Phase, SimTime, SpgemmReport};

/// Multiply `A · B` keeping only entries on `mask`'s pattern.
///
/// The result has **exactly** `mask`'s sparsity pattern; positions the
/// product does not reach hold explicit zeros (GraphBLAS "structure
/// only" mask semantics, which keeps the output allocation exact).
pub fn multiply_masked<T: Scalar>(
    gpu: &mut Gpu,
    a: &Csr<T>,
    b: &Csr<T>,
    mask: &Csr<T>,
    opts: &Options,
) -> Result<(Csr<T>, SpgemmReport)> {
    if a.cols() != b.rows() {
        return Err(Error::Planning(sparse::SparseError::DimensionMismatch(format!(
            "masked spgemm: A is {}x{}, B is {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        ))));
    }
    if mask.rows() != a.rows() || mask.cols() != b.cols() {
        return Err(Error::Planning(sparse::SparseError::DimensionMismatch(format!(
            "mask is {}x{}, product is {}x{}",
            mask.rows(),
            mask.cols(),
            a.rows(),
            b.cols()
        ))));
    }
    let phase_before = gpu.profiler().phase_times();
    let m = a.rows();
    let nprod = row_intermediate_products(a, b)?;
    let ip: u64 = nprod.iter().map(|&x| x as u64).sum();

    let a_buf = gpu.malloc(a.device_bytes(), "A")?;
    let b_buf = gpu.malloc(b.device_bytes(), "B")?;
    let m_buf = gpu.malloc(mask.device_bytes(), "mask")?;

    // Output pattern is the mask: allocate it up front — no count phase.
    gpu.set_phase(Phase::Malloc);
    let c_buf = gpu.malloc(4 * (m as u64 + 1) + (4 + T::BYTES as u64) * mask.nnz() as u64, "C")?;

    gpu.set_phase(Phase::Calc);
    // One numeric pass: per row, build the mask's column set in the hash
    // table, then accumulate only products that hit it.
    let mut table = HashTable::<T>::new(1024, opts.use_mul_hash);
    table.observe_probes(gpu.telemetry_enabled());
    let mut total_probes = 0u64;
    let mut val_c = vec![T::ZERO; mask.nnz()];
    // Reused per-row column buffer for the extraction (the mask already
    // holds the output columns; these only check them in debug builds).
    let mut cols = Vec::new();
    let mut blocks = Vec::with_capacity(m);
    for i in 0..m {
        let (mcols, _) = mask.row(i);
        let cap = crate::plan::global_table_size_checked(mcols.len())
            .ok_or_else(|| crate::pipeline::overflow_err("masked hash-table size"))?;
        table.reset(cap);
        for &c in mcols {
            table.insert_numeric(c, T::ZERO);
        }
        let (acols, avals) = a.row(i);
        let mut products = 0u64;
        let mut chunks = 0u64;
        for (&k, &av) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(k as usize);
            products += bcols.len() as u64;
            chunks += bcols.len().div_ceil(32) as u64;
            for (&j, &bv) in bcols.iter().zip(bvals) {
                // Bounded probe: a miss means the column is masked out.
                table.insert_bounded_probe_only(j, av * bv);
            }
        }
        let probes = table.take_probes();
        total_probes += probes;
        // Write the row's values in mask order.
        let span = mask.rpt()[i]..mask.rpt()[i + 1];
        cols.resize(mcols.len(), 0);
        table.extract_sorted_into(&mut cols, &mut val_c[span]);
        debug_assert_eq!(&cols[..], mcols);
        // Cost: same traversal as a numeric TB row, without gather/sort
        // (mask order is already sorted) and without the count phase.
        let mut c = gpu.block_cost();
        c.compute(crate::kernels::ROW_PIPELINE_SLOTS);
        c.shared_access(cap as f64 / 32.0);
        c.global_random(acols.len() as f64 * 2.0, 4.0);
        c.global_coalesced(products as f64 * (4.0 + T::BYTES as f64));
        c.compute(chunks as f64 * 2.0);
        c.shared_atomic(chunks as f64, probes.saturating_sub(products) as f64 / 32.0 * 4.0);
        c.global_coalesced(mcols.len() as f64 * T::BYTES as f64);
        blocks.push(c.finish());
    }
    gpu.launch(KernelDesc::new("masked_numeric", DEFAULT_STREAM, 256, 16 * 1024), blocks)?;
    gpu.set_phase(Phase::Other);
    if let Some(stats) = table.take_probe_stats() {
        if let Some(t) = gpu.telemetry_mut() {
            t.registry.hist_merge("masked.probe_len", &stats.probe_len);
            t.registry.hist_merge("masked.row_occupancy", &stats.row_occupancy);
            t.registry.hist_merge("masked.load_permille", &stats.load_permille);
        }
    }

    for id in [a_buf, b_buf, m_buf, c_buf] {
        gpu.free(id);
    }

    let after = gpu.profiler().phase_times();
    let phase_times: Vec<(Phase, SimTime)> =
        after.iter().zip(&phase_before).map(|(&(p, t1), &(_, t0))| (p, t1 - t0)).collect();
    let total_time = phase_times.iter().filter(|(p, _)| *p != Phase::Other).map(|&(_, t)| t).sum();
    let report = SpgemmReport {
        algorithm: "proposal (masked)".into(),
        precision: T::PRECISION,
        total_time,
        phase_times,
        peak_mem_bytes: gpu.peak_mem_bytes(),
        intermediate_products: ip,
        output_nnz: mask.nnz() as u64,
        hash_probes: total_probes,
        telemetry: gpu.telemetry_summary(),
    };
    // lint:allow(unchecked-ctor) — reuses the mask's already-validated pattern
    let c = Csr::from_parts_unchecked(m, b.cols(), mask.rpt().to_vec(), mask.col().to_vec(), val_c)
        .map_err(|e| Error::invariant(format!("masked product assembled malformed C: {e}")))?;
    Ok((c, report))
}

impl<T: Scalar> HashTable<T> {
    /// Accumulate `value` under `key` only if `key` is already present
    /// (mask semantics); counts probes either way.
    #[inline]
    pub fn insert_bounded_probe_only(&mut self, key: u32, value: T) -> Insert {
        // A lookup that never claims empty slots: probe until the key or
        // an empty slot is found.
        match self.lookup_accumulate(key, value) {
            true => Insert::Duplicate,
            false => Insert::Overflow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::spgemm_ref::spgemm_gustavson;
    use vgpu::DeviceConfig;

    fn rand_mat(n: usize, deg: usize, seed: u64) -> Csr<f64> {
        let mut s = seed;
        let mut t = Vec::new();
        for r in 0..n {
            for _ in 0..deg {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                t.push((r, ((s >> 33) as usize % n) as u32, 1.0 + (s % 5) as f64));
            }
        }
        Csr::from_triplets(n, n, &t).unwrap()
    }

    /// Host-side masked product for cross-checking.
    fn masked_ref(a: &Csr<f64>, b: &Csr<f64>, mask: &Csr<f64>) -> Csr<f64> {
        let full = spgemm_gustavson(a, b).unwrap();
        let mut vals = Vec::with_capacity(mask.nnz());
        for i in 0..mask.rows() {
            let (mc, _) = mask.row(i);
            let (fc, fv) = full.row(i);
            for &c in mc {
                let v = fc.binary_search(&c).map(|p| fv[p]).unwrap_or(0.0);
                vals.push(v);
            }
        }
        Csr::from_parts_unchecked(
            mask.rows(),
            mask.cols(),
            mask.rpt().to_vec(),
            mask.col().to_vec(),
            vals,
        )
        .unwrap()
    }

    #[test]
    fn masked_product_matches_reference() {
        let a = rand_mat(300, 6, 3);
        let mask = rand_mat(300, 4, 9);
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let (c, report) = multiply_masked(&mut gpu, &a, &a, &mask, &Options::default()).unwrap();
        let expect = masked_ref(&a, &a, &mask);
        assert_eq!(c.rpt(), expect.rpt());
        assert_eq!(c.col(), expect.col());
        assert!(c.approx_eq(&expect, 1e-12, 1e-12));
        assert_eq!(report.output_nnz, mask.nnz() as u64);
        assert_eq!(gpu.live_mem_bytes(), 0);
    }

    #[test]
    fn mask_skips_count_phase_and_saves_time() {
        let a = rand_mat(800, 8, 5);
        // Sparse mask: only the diagonal.
        let mask = Csr::<f64>::identity(800);
        let mut g1 = Gpu::new(DeviceConfig::p100());
        let (_, masked) = multiply_masked(&mut g1, &a, &a, &mask, &Options::default()).unwrap();
        let mut g2 = Gpu::new(DeviceConfig::p100());
        let (_, full) = crate::multiply(&mut g2, &a, &a, &Options::default()).unwrap();
        assert_eq!(masked.phase_time(Phase::Count), SimTime::ZERO);
        assert!(masked.total_time < full.total_time);
        assert!(masked.peak_mem_bytes < full.peak_mem_bytes);
    }

    #[test]
    fn masked_triangle_counting_semantics() {
        // (A·A) ∘ A on a triangle graph gives 1 on every edge.
        let mut t = Vec::new();
        for (u, v) in [(0usize, 1u32), (1, 2), (0, 2)] {
            t.push((u, v, 1.0f64));
            t.push((v as usize, u as u32, 1.0));
        }
        let a = Csr::from_triplets(3, 3, &t).unwrap();
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let (c, _) = multiply_masked(&mut gpu, &a, &a, &a, &Options::default()).unwrap();
        assert!(c.val().iter().all(|&v| v == 1.0));
        let wedges: f64 = c.val().iter().sum();
        assert_eq!(wedges as u64 / 6, 1); // one triangle
    }

    #[test]
    fn mask_shape_must_match() {
        let a = rand_mat(50, 3, 1);
        let bad_mask = Csr::<f64>::identity(49);
        let mut gpu = Gpu::new(DeviceConfig::p100());
        assert!(multiply_masked(&mut gpu, &a, &a, &bad_mask, &Options::default()).is_err());
    }
}
