//! Runners for every table and figure of the paper, and the `spgemm`
//! command line.
//!
//! Each experiment has a function returning structured rows; the `repro`
//! binary prints them as text tables, and the [`report`] module writes
//! the per-figure CSVs, so `repro` is the one producer of every paper
//! number. The proposal's simulated times are pinned exactly by a
//! tier-1 test (`tests/determinism.rs`); wall time is measured by the
//! repository benchmark (`benchmark/`), not here. The `spgemm` binary's
//! subcommands live in the `*cli` modules.
//!
//! Dataset matrices are generated once per process and cached
//! ([`matrix_f32`]/[`matrix_f64`]) — generation is seeded and
//! deterministic, so caching cannot change results.

#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]

pub mod chaoscli;
pub mod cli;
pub mod experiments;
pub mod report;
pub mod runcli;
pub mod servecli;
pub mod table;
pub mod tracecli;

use baselines::Algorithm;
use matgen::{Dataset, Scale};
use sparse::{Csr, Scalar};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use vgpu::{DeviceConfig, Gpu, SpgemmReport};

/// Outcome of one (dataset, algorithm, precision) evaluation.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// Dataset name (paper spelling).
    pub dataset: String,
    /// Algorithm that ran.
    pub algorithm: Algorithm,
    /// "single" or "double".
    pub precision: &'static str,
    /// The execution report; `None` when the algorithm ran out of device
    /// memory (rendered as "-" like the paper's Table III).
    pub report: Option<SpgemmReport>,
}

impl EvalResult {
    /// GFLOPS or `None` on OOM.
    pub fn gflops(&self) -> Option<f64> {
        self.report.as_ref().map(|r| r.gflops())
    }
}

fn f32_cache() -> &'static Mutex<HashMap<String, Arc<Csr<f32>>>> {
    static CACHE: OnceLock<Mutex<HashMap<String, Arc<Csr<f32>>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn f64_cache() -> &'static Mutex<HashMap<String, Arc<Csr<f64>>>> {
    static CACHE: OnceLock<Mutex<HashMap<String, Arc<Csr<f64>>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The dataset's repro-scale matrix in single precision (process cache).
pub fn matrix_f32(d: &Dataset) -> Arc<Csr<f32>> {
    f32_cache()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .entry(d.name.to_string())
        .or_insert_with(|| Arc::new(d.generate::<f32>(Scale::Repro)))
        .clone()
}

/// The dataset's repro-scale matrix in double precision (process cache).
pub fn matrix_f64(d: &Dataset) -> Arc<Csr<f64>> {
    f64_cache()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .entry(d.name.to_string())
        .or_insert_with(|| Arc::new(d.generate::<f64>(Scale::Repro)))
        .clone()
}

/// Precision-generic access to the cached matrix.
pub trait CachedMatrix: Scalar {
    /// Fetch (or generate) the dataset's matrix at this precision.
    fn matrix(d: &Dataset) -> Arc<Csr<Self>>;
}

impl CachedMatrix for f32 {
    fn matrix(d: &Dataset) -> Arc<Csr<f32>> {
        matrix_f32(d)
    }
}

impl CachedMatrix for f64 {
    fn matrix(d: &Dataset) -> Arc<Csr<f64>> {
        matrix_f64(d)
    }
}

/// A fresh virtual device configured for this dataset (full 16 GB for
/// the standard set, row-scale-shrunk for the large graphs — see
/// DESIGN.md §8).
pub fn device_for(d: &Dataset) -> Gpu {
    Gpu::new(DeviceConfig::p100_with_memory(d.device_mem_bytes()))
}

/// Run one algorithm on one dataset (squaring the matrix, as every
/// experiment in the paper does). OOM → `report: None`.
pub fn run_one<T: CachedMatrix>(alg: Algorithm, d: &Dataset) -> EvalResult {
    let a = T::matrix(d);
    let mut gpu = device_for(d);
    let report = match alg.run::<T>(&mut gpu, &a, &a) {
        Ok((_, r)) => Some(r),
        Err(nsparse_core::pipeline::Error::DeviceOom(_)) => None,
        Err(e) => panic!("{} on {} failed: {e}", alg.name(), d.name),
    };
    EvalResult { dataset: d.name.to_string(), algorithm: alg, precision: T::PRECISION, report }
}

/// Evaluate all four algorithms over the given datasets.
pub fn eval_matrix_set<T: CachedMatrix>(datasets: &[Dataset]) -> Vec<EvalResult> {
    let mut out = Vec::new();
    for d in datasets {
        for alg in Algorithm::ALL {
            out.push(run_one::<T>(alg, d));
        }
    }
    out
}

/// The workspace-root `results/` directory, anchored via the crate's
/// manifest path so it is the same from any working directory.
pub fn results_dir() -> std::path::PathBuf {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.ancestors().nth(2).unwrap_or(manifest).join("results")
}

/// Write rows as CSV into `results/<name>.csv` (creating the directory),
/// returning the path. The `repro` binary writes every figure's data
/// through it.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::path::PathBuf {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.csv"));
    let mut body = String::from(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    std::fs::write(&path, body).expect("write csv");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_returns_same_matrix() {
        let d = matgen::by_name("QCD").unwrap();
        let a = matrix_f32(&d);
        let b = matrix_f32(&d);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn run_one_produces_report() {
        let d = matgen::by_name("Economics").unwrap();
        let r = run_one::<f32>(Algorithm::Proposal, &d);
        assert!(r.gflops().unwrap() > 0.0);
        assert_eq!(r.precision, "single");
    }

    #[test]
    fn device_memory_scaled_for_large_graphs() {
        let d = matgen::by_name("cage15").unwrap();
        let gpu = device_for(&d);
        assert!(gpu.config().device_mem_bytes < 16 << 30);
    }
}
