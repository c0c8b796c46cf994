//! The deterministic multi-job driver.
//!
//! CI needs a workload that (a) is reproducible from a seed, (b)
//! exercises every engine route — direct, queued, batched, fault
//! fallback, cache hit/miss, empty row windows — and (c) can be diffed
//! bitwise against standalone [`nsparse_core::multiply`] at any worker
//! count. [`run_driver`] builds that workload: a seeded mix of jobs
//! over a small pool of sparsity patterns (repeats exercise the plan
//! cache; values differ per job so hits are observable), a zero-row
//! window job, optional deterministic fault injection on a fixed
//! subset, and optional in-process verification against the reference.
//!
//! The job list depends only on [`DriverConfig`] — never on worker
//! count, timing or scheduling — so `ci/check.sh` runs the same seed at
//! several worker counts and requires byte-identical outputs.

use crate::engine::{Engine, EngineConfig, EngineStats};
use crate::job::{JobOutput, JobSpec};
use nsparse_core::{Backend, Executor, HostParallelExecutor, Options};
use sparse::{Csr, Scalar};
use std::sync::Arc;
use vgpu::{DeviceConfig, FaultPlan, Gpu};

/// Workload parameters; the job list is a pure function of these.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Jobs to submit.
    pub jobs: usize,
    /// Engine worker threads.
    pub workers: usize,
    /// Workload seed (patterns, value scales, job order).
    pub seed: u64,
    /// Engine backend.
    pub backend: Backend,
    /// Device class.
    pub device: DeviceConfig,
    /// Admission budget override in bytes.
    pub budget_bytes: Option<u64>,
    /// Plan-cache capacity in entries.
    pub cache_capacity: usize,
    /// Matrix dimension of generated operands.
    pub dim: usize,
    /// Average nonzeros per row of generated operands.
    pub nnz_per_row: f64,
    /// Distinct sparsity patterns in the pool (repeats → cache hits).
    pub patterns: usize,
    /// Inject a deterministic `malloc-oom` fault into every 5th job
    /// (sim backend only) to exercise the batched fallback.
    pub faults: bool,
    /// Recompute every job standalone and compare bitwise.
    pub verify: bool,
    /// Build per-job span trees and a flight-recorder dump
    /// ([`DriverReport::flight_dump`], DESIGN.md §15).
    pub trace: bool,
    /// Multiply options applied to every job (estimator mode, hash
    /// variant — DESIGN.md §16). Verification always
    /// compares against standalone `multiply` under the *same* options,
    /// so a sampled run still has to match its own exact-cost reference
    /// bitwise.
    pub opts: Options,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            jobs: 12,
            workers: 2,
            seed: 1,
            backend: Backend::Sim,
            device: DeviceConfig::p100(),
            budget_bytes: None,
            cache_capacity: 16,
            dim: 256,
            nnz_per_row: 6.0,
            patterns: 3,
            faults: false,
            verify: true,
            trace: false,
            opts: Options::default(),
        }
    }
}

/// Everything a driver run produced.
#[derive(Debug)]
pub struct DriverReport<T> {
    /// Each job's result as [`crate::JobTicket::wait`] returned it, in
    /// submission order.
    pub records: Vec<crate::Result<JobOutput<T>>>,
    /// Final engine counters.
    pub stats: EngineStats,
    /// Jobs whose output differed bitwise from standalone `multiply`
    /// (always 0 unless something is broken; only counted with
    /// [`DriverConfig::verify`]).
    pub mismatches: usize,
    /// Jobs that completed with an error.
    pub failures: usize,
    /// Flight-recorder JSONL dump (with [`DriverConfig::trace`]).
    pub flight_dump: Option<String>,
    /// Flight-recorder chrome-trace export (with `trace`).
    pub flight_chrome: Option<String>,
    /// Why the flight recorder tripped, if it did.
    pub flight_trigger: Option<String>,
}

fn lcg(s: &mut u64) -> u64 {
    *s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *s
}

/// The seeded job list: `(a, b, rows)` specs over a shared pattern pool.
fn job_mix<T: Scalar>(cfg: &DriverConfig) -> Vec<JobSpec<T>> {
    let mut s = cfg.seed ^ 0x9e3779b97f4a7c15;
    let pool: Vec<Arc<Csr<T>>> = (0..cfg.patterns.max(1))
        .map(|i| {
            Arc::new(matgen::generators::random_uniform(
                cfg.dim.max(2),
                cfg.nnz_per_row,
                (cfg.nnz_per_row * 4.0) as usize + 4,
                cfg.seed.wrapping_add(i as u64),
            ))
        })
        .collect();
    (0..cfg.jobs)
        .map(|i| {
            let r = lcg(&mut s);
            #[expect(clippy::indexing_slicing, reason = "index reduced modulo pool.len()")]
            let base = &pool[(r as usize) % pool.len()];
            // Re-scale values per job: repeated patterns with fresh
            // values make cache hits observable and bitwise-checkable.
            let scale = T::from_f64(1.0 + (r >> 40) as f64 / 1024.0);
            let a = Arc::new(base.scaled(scale));
            let mut spec = JobSpec::new(a, Arc::clone(base)).with_opts(cfg.opts.clone());
            if i == cfg.jobs / 2 {
                // One empty row window: the zero-row regression path.
                spec = spec.with_rows(0..0);
            } else if r.is_multiple_of(7) {
                let lo = (r as usize >> 8) % cfg.dim;
                let hi = lo + ((r as usize >> 16) % (cfg.dim - lo)).max(1);
                spec = spec.with_rows(lo..hi.min(cfg.dim));
            }
            if cfg.faults && matches!(cfg.backend, Backend::Sim) && i % 5 == 4 {
                // Two one-shot OOMs: the first trips the direct route
                // into the batched fallback, the second fails the
                // fallback's first attempt so it exercises the
                // budget-halving retry before succeeding.
                let plan = FaultPlan::new(cfg.seed + i as u64).malloc_oom(1).malloc_oom(2);
                spec = spec.with_faults(plan);
            }
            spec
        })
        .collect()
}

/// Standalone reference for one job, on the same backend class but with
/// an unconstrained device and no engine in the loop.
fn reference<T: Scalar>(cfg: &DriverConfig, spec: &JobSpec<T>) -> crate::Result<Csr<T>> {
    let a = spec.effective_a()?;
    let a = a.as_ref();
    let b = spec.b.as_ref();
    match cfg.backend {
        Backend::Sim => {
            let mut gpu = Gpu::new(cfg.device.clone());
            nsparse_core::multiply(&mut gpu, a, b, &spec.opts).map(|(c, _)| c)
        }
        Backend::Host { threads } => {
            let mut exec = HostParallelExecutor::with_config(threads, cfg.device.clone());
            exec.multiply(a, b, &spec.opts).map(|run| run.matrix)
        }
    }
}

fn bitwise_eq<T: Scalar>(x: &Csr<T>, y: &Csr<T>) -> bool {
    x.rows() == y.rows()
        && x.cols() == y.cols()
        && x.rpt() == y.rpt()
        && x.col() == y.col()
        && x.val().len() == y.val().len()
        && x.val().iter().zip(y.val()).all(|(a, b)| a.to_f64().to_bits() == b.to_f64().to_bits())
}

/// Run the seeded workload through a fresh engine and (optionally)
/// verify every output bitwise against standalone `multiply`.
pub fn run_driver<T: Scalar>(cfg: &DriverConfig) -> DriverReport<T> {
    let specs = job_mix::<T>(cfg);
    let mut eng: Engine<T> = Engine::new(EngineConfig {
        workers: cfg.workers,
        backend: cfg.backend,
        device: cfg.device.clone(),
        budget_bytes: cfg.budget_bytes,
        cache_capacity: cfg.cache_capacity,
        trace: cfg.trace,
        ..EngineConfig::default()
    });
    let tickets: Vec<_> = specs.iter().map(|spec| eng.submit(spec.clone())).collect();
    let records: Vec<_> = tickets.into_iter().map(crate::JobTicket::wait).collect();
    let failures = records.iter().filter(|r| r.is_err()).count();
    let flight = cfg.trace.then(|| eng.flight());
    let stats = eng.shutdown();
    let (flight_dump, flight_chrome, flight_trigger) = match flight {
        Some(rec) => (Some(rec.dump(&stats)), Some(rec.chrome()), rec.triggered()),
        None => (None, None, None),
    };
    let mut mismatches = 0;
    if cfg.verify {
        for (spec, rec) in specs.iter().zip(&records) {
            if let Ok(out) = rec {
                #[expect(
                    clippy::expect_used,
                    reason = "harness oracle: a faultless standalone multiply failing is a harness bug"
                )]
                let want = reference(cfg, spec).expect("reference multiply cannot fail");
                if !bitwise_eq(&out.matrix, &want) {
                    mismatches += 1;
                }
            }
        }
    }
    DriverReport {
        records,
        stats,
        mismatches,
        failures,
        flight_dump,
        flight_chrome,
        flight_trigger,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_is_deterministic_across_worker_counts() {
        let base = DriverConfig { jobs: 10, dim: 160, verify: true, ..DriverConfig::default() };
        let one = run_driver::<f64>(&DriverConfig { workers: 1, ..base.clone() });
        let four = run_driver::<f64>(&DriverConfig { workers: 4, ..base.clone() });
        assert_eq!(one.mismatches, 0);
        assert_eq!(four.mismatches, 0);
        assert_eq!(one.failures, 0);
        assert_eq!(one.records.len(), four.records.len());
        for (x, y) in one.records.iter().zip(&four.records) {
            match (x, y) {
                (Ok(x), Ok(y)) => assert!(bitwise_eq(&x.matrix, &y.matrix)),
                (Err(ex), Err(ey)) => assert_eq!(ex.to_string(), ey.to_string()),
                _ => panic!("outcome diverged across worker counts"),
            }
        }
        assert!(one.stats.budget_drained && four.stats.budget_drained);
        // The same pattern pool feeds both runs, so cold plans are
        // bounded by pool size regardless of workers.
        assert!(one.stats.cache.hits > 0);
    }

    #[test]
    fn sampled_estimator_mix_verifies_bitwise_and_counts_plans() {
        let cfg = DriverConfig {
            jobs: 8,
            workers: 2,
            dim: 144,
            seed: 11,
            opts: Options { estimator: nsparse_core::Estimator::sampled(), ..Options::default() },
            ..DriverConfig::default()
        };
        let rep = run_driver::<f64>(&cfg);
        assert_eq!(rep.mismatches, 0, "sampled plans must not change the product");
        assert_eq!(rep.failures, 0);
        assert!(rep.stats.sampled_plans >= 1, "cold sampled plans must be counted");
        assert_eq!(rep.stats.sampled_plans, rep.stats.symbolic_runs);
        assert!(rep.stats.budget_drained);
    }

    #[test]
    fn faulted_mix_still_verifies_and_drains() {
        let cfg = DriverConfig {
            jobs: 10,
            workers: 3,
            dim: 128,
            faults: true,
            seed: 7,
            ..DriverConfig::default()
        };
        let rep = run_driver::<f64>(&cfg);
        assert_eq!(rep.mismatches, 0);
        assert_eq!(rep.failures, 0, "injected OOM must fall back, not fail");
        assert!(rep.stats.fallback >= 1, "the every-5th-job fault must trigger a fallback");
        assert!(rep.stats.budget_drained);
    }
}
