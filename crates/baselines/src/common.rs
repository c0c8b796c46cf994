//! Shared plumbing for the baseline implementations.

use nsparse_core::pipeline::{Error, Result};
use sparse::{Csr, Scalar, SparseError};
use vgpu::{AllocId, Gpu, Phase, SimTime, SpgemmReport};

/// Validate `A.cols == B.rows`.
pub(crate) fn check_dims<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(Error::Planning(SparseError::DimensionMismatch(format!(
            "spgemm: A is {}x{}, B is {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        ))));
    }
    Ok(())
}

/// Tracks allocations so every exit path (including out-of-memory)
/// releases them and leaves the device reusable.
pub(crate) struct Allocs {
    ids: Vec<AllocId>,
}

impl Allocs {
    pub fn new() -> Self {
        Allocs { ids: Vec::new() }
    }

    pub fn push(&mut self, id: AllocId) -> AllocId {
        self.ids.push(id);
        id
    }

    /// Free one tracked allocation immediately (mid-run workspace hand-off).
    pub fn free_now(&mut self, gpu: &mut Gpu, id: AllocId) {
        if let Some(pos) = self.ids.iter().position(|&x| x == id) {
            self.ids.swap_remove(pos);
            gpu.free(id);
        }
    }

    pub fn free_all(&mut self, gpu: &mut Gpu) {
        for id in self.ids.drain(..) {
            gpu.free(id);
        }
    }
}

/// Snapshot the device's phase times before a run.
pub(crate) fn phase_snapshot(gpu: &Gpu) -> Vec<(Phase, SimTime)> {
    gpu.phase_times()
}

/// Build the report from the phase-time delta of this run.
/// `hash_probes` is the run's observed probe total (0 for algorithms
/// without hash tables, e.g. ESC-based CUSP).
pub(crate) fn finish_report(
    gpu: &mut Gpu,
    before: &[(Phase, SimTime)],
    algorithm: &str,
    precision: &'static str,
    intermediate_products: u64,
    output_nnz: u64,
    hash_probes: u64,
) -> SpgemmReport {
    gpu.set_phase(Phase::Other);
    let after = gpu.phase_times();
    let phase_times: Vec<(Phase, SimTime)> =
        after.iter().zip(before).map(|(&(p, t1), &(_, t0))| (p, t1 - t0)).collect();
    let total_time = phase_times.iter().filter(|(p, _)| *p != Phase::Other).map(|&(_, t)| t).sum();
    SpgemmReport {
        algorithm: algorithm.to_string(),
        precision,
        total_time,
        phase_times,
        peak_mem_bytes: gpu.peak_mem_bytes(),
        intermediate_products,
        output_nnz,
        hash_probes,
        telemetry: gpu.telemetry().map(|t| t.registry.clone()),
    }
}
