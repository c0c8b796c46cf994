//! Device SpMV — the companion kernel the published nsparse repository
//! ships next to its SpGEMM.
//!
//! Two variants, matching the standard GPU design space (§II-A's
//! discussion of SpMV formats):
//!
//! * [`spmv`] — CSR-vector: one warp per row, coalesced column/value
//!   reads, warp-shuffle reduction. No format conversion, good for
//!   one-shot products.
//! * [`spmv_blocked`] — a simplified adaptive-blocking variant
//!   (AMB-like): rows are packed into slices of [`SLICE_ROWS`] with a
//!   column-blocked layout, amortizing x-vector reads across a block.
//!   Charged with a one-time conversion cost; wins when the same matrix
//!   multiplies many vectors (iterative solvers), exactly the trade-off
//!   §II-A describes.

use crate::pipeline::{Error, Result};
use sparse::{Csr, Scalar};
use vgpu::device::DEFAULT_STREAM;
use vgpu::{BlockCost, Gpu, KernelDesc, SimTime};

/// Rows per slice in the blocked layout.
pub const SLICE_ROWS: usize = 32;

/// Report of one device SpMV.
#[derive(Debug, Clone)]
pub struct SpmvReport {
    /// Simulated kernel time.
    pub time: SimTime,
    /// Bytes of matrix data streamed.
    pub matrix_bytes: u64,
    /// Effective bandwidth in GB/s (`matrix_bytes / time`).
    pub effective_bandwidth: f64,
}

fn check_x<T: Scalar>(a: &Csr<T>, x: &[T]) -> Result<()> {
    if x.len() != a.cols() {
        return Err(Error::Planning(sparse::SparseError::DimensionMismatch(format!(
            "spmv: x.len() = {}, cols = {}",
            x.len(),
            a.cols()
        ))));
    }
    Ok(())
}

/// CSR-vector SpMV `y = A x` on the virtual device.
pub fn spmv<T: Scalar>(gpu: &mut Gpu, a: &Csr<T>, x: &[T]) -> Result<(Vec<T>, SpmvReport)> {
    check_x(a, x)?;
    let t0 = gpu.elapsed();
    let y = a.spmv(x)?;
    // One warp per row, 8 warps per block.
    let rows_per_block = 8;
    let mut blocks = Vec::with_capacity(a.rows().div_ceil(rows_per_block));
    for start in (0..a.rows()).step_by(rows_per_block) {
        let end = (start + rows_per_block).min(a.rows());
        let mut c = gpu.block_cost();
        for r in start..end {
            let nnz = a.row_nnz(r) as f64;
            // Coalesced col+val stream, random x gathers, shuffle reduce.
            c.global_coalesced(nnz * (4.0 + T::BYTES as f64));
            c.global_random(nnz, T::BYTES as f64);
            c.compute(nnz / 32.0 * 2.0);
            c.warp_reduce(32.0);
        }
        c.global_coalesced((end - start) as f64 * T::BYTES as f64);
        blocks.push(c.finish());
    }
    gpu.launch(KernelDesc::new("spmv_csr_vector", DEFAULT_STREAM, 256, 0), blocks)?;
    gpu.sync();
    let time = gpu.elapsed() - t0;
    let matrix_bytes = a.device_bytes();
    Ok((
        y,
        SpmvReport {
            time,
            matrix_bytes,
            effective_bandwidth: matrix_bytes as f64 / time.secs().max(1e-30) / 1e9,
        },
    ))
}

/// A matrix pre-converted into the sliced, column-blocked layout.
#[derive(Debug, Clone)]
pub struct BlockedMatrix<T> {
    a: Csr<T>,
    /// Simulated one-time conversion cost (charged at build).
    pub conversion_time: SimTime,
    /// Padding overhead of the sliced layout (≥ 1).
    pub fill_ratio: f64,
}

impl<T: Scalar> BlockedMatrix<T> {
    /// Convert on the device (one pass over the matrix plus the write of
    /// the blocked image).
    pub fn new(gpu: &mut Gpu, a: &Csr<T>) -> Result<Self> {
        let t0 = gpu.elapsed();
        // Slice fill: each slice stores max-row-length columns per lane.
        let mut padded = 0u64;
        for start in (0..a.rows()).step_by(SLICE_ROWS) {
            let end = (start + SLICE_ROWS).min(a.rows());
            let widest = (start..end).map(|r| a.row_nnz(r)).max().unwrap_or(0) as u64;
            padded += widest * (end - start) as u64;
        }
        let fill_ratio = padded as f64 / a.nnz().max(1) as f64;
        let bytes = a.device_bytes() as f64 + padded as f64 * (4.0 + T::BYTES as f64);
        let n = gpu.config().num_sms * 4;
        let per = BlockCost {
            slots: a.nnz() as f64 / 32.0 * 3.0 / n as f64,
            dram_bytes: 2.0 * bytes / n as f64,
        };
        gpu.launch(KernelDesc::new("blocked_convert", DEFAULT_STREAM, 256, 0), vec![per; n])?;
        gpu.sync();
        Ok(BlockedMatrix { a: a.clone(), conversion_time: gpu.elapsed() - t0, fill_ratio })
    }

    /// Blocked SpMV: slices stream their padded block; x gathers hit
    /// cached block columns (charged as shared traffic), so the random
    /// component drops — faster per iteration than [`spmv`] whenever the
    /// fill ratio is moderate.
    pub fn spmv(&self, gpu: &mut Gpu, x: &[T]) -> Result<(Vec<T>, SpmvReport)> {
        check_x(&self.a, x)?;
        let t0 = gpu.elapsed();
        let y = self.a.spmv(x)?;
        let mut blocks = Vec::with_capacity(self.a.rows().div_ceil(SLICE_ROWS));
        for start in (0..self.a.rows()).step_by(SLICE_ROWS) {
            let end = (start + SLICE_ROWS).min(self.a.rows());
            let widest = (start..end).map(|r| self.a.row_nnz(r)).max().unwrap_or(0) as f64;
            let padded = widest * (end - start) as f64;
            let mut c = gpu.block_cost();
            c.global_coalesced(padded * (4.0 + T::BYTES as f64));
            c.shared_access(padded / 32.0);
            c.compute(padded / 32.0 * 2.0);
            c.global_coalesced((end - start) as f64 * T::BYTES as f64);
            blocks.push(c.finish());
        }
        gpu.launch(KernelDesc::new("spmv_blocked", DEFAULT_STREAM, 256, 4096), blocks)?;
        gpu.sync();
        let time = gpu.elapsed() - t0;
        let matrix_bytes = (self.a.nnz() as f64 * self.fill_ratio * (4.0 + T::BYTES as f64)) as u64;
        Ok((
            y,
            SpmvReport {
                time,
                matrix_bytes,
                effective_bandwidth: matrix_bytes as f64 / time.secs().max(1e-30) / 1e9,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgpu::DeviceConfig;

    fn banded(n: usize, deg: usize) -> Csr<f64> {
        let mut t = Vec::new();
        for r in 0..n {
            for d in 0..deg {
                t.push((r, ((r + d * 3) % n) as u32, 1.0 + d as f64));
            }
        }
        Csr::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn spmv_matches_host() {
        let a = banded(500, 9);
        let x: Vec<f64> = (0..500).map(|i| (i % 13) as f64).collect();
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let (y, report) = spmv(&mut gpu, &a, &x).unwrap();
        assert_eq!(y, a.spmv(&x).unwrap());
        assert!(report.time > SimTime::ZERO);
        assert!(report.effective_bandwidth > 0.0);
    }

    #[test]
    fn blocked_matches_host_and_tracks_fill() {
        let a = banded(400, 7);
        let x: Vec<f64> = (0..400).map(|i| i as f64 * 0.5).collect();
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let blocked = BlockedMatrix::new(&mut gpu, &a).unwrap();
        assert!(blocked.fill_ratio >= 1.0);
        assert!(blocked.conversion_time > SimTime::ZERO);
        let (y, _) = blocked.spmv(&mut gpu, &x).unwrap();
        assert_eq!(y, a.spmv(&x).unwrap());
    }

    #[test]
    fn blocked_wins_per_iteration_on_regular_matrices() {
        // Uniform rows → fill ratio ~1 → the blocked kernel drops the
        // random-gather traffic and must be faster per iteration.
        let a = banded(4000, 16);
        let x: Vec<f64> = (0..4000).map(|i| i as f64).collect();
        let (_, plain) = spmv(&mut Gpu::new(DeviceConfig::p100()), &a, &x).unwrap();
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let (_, blocked) = BlockedMatrix::new(&mut gpu, &a).unwrap().spmv(&mut gpu, &x).unwrap();
        assert!(blocked.time < plain.time, "regular matrix must benefit");
    }

    #[test]
    fn dimension_mismatch() {
        let a = banded(10, 2);
        let mut gpu = Gpu::new(DeviceConfig::p100());
        assert!(spmv(&mut gpu, &a, &[1.0; 3]).is_err());
    }
}
