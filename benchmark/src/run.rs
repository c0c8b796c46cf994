//! The untraced, timed runs behind the end-to-end metrics.
//!
//! Library workloads run passes over the five datasets, one multiply at
//! a time. Serve workloads drive the engine in a closed loop with `2·N`
//! jobs outstanding: solver callers wait for each product before sending
//! the next, and an open-loop rate sweep on a small shared host would
//! measure the scheduler more than the program.
//!
//! Correctness is checked outside the timed window, bitwise, on a
//! deterministic sample: every dataset once, the first job of every
//! pooled pattern and every 16th job.

use crate::metrics::Values;
use crate::stats::{median, percentile};
use crate::workloads::{
    digest, outstanding, parallelism, Library, Params, Serve, Workload, PAPER_DATASETS,
};
use engine::Engine;
use nsparse_core::{Backend, Executor, HostParallelExecutor, Options};
use sparse::{Csr, Scalar};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};
use vgpu::{DeviceConfig, Gpu, SpgemmReport};

/// Fewest multiplies or jobs a window may hold, so the median always has
/// at least ten samples beyond it; the window runs past `--seconds` when
/// needed to reach it.
const MIN_SAMPLES: usize = 25;

/// Counts and metric values of one run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// `C = A · B` on the virtual P100 through the paper's entry point.
pub fn sim_multiply<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Result<(Csr<T>, SpgemmReport), String> {
    let mut gpu = Gpu::new(DeviceConfig::p100());
    nsparse_core::multiply(&mut gpu, a, b, &Options::default()).map_err(|e| e.to_string())
}

/// `C = A · B` on `threads` host threads.
pub fn host_multiply<T: Scalar>(a: &Csr<T>, b: &Csr<T>, threads: usize) -> Result<Csr<T>, String> {
    let mut exec = HostParallelExecutor::with_config(threads, DeviceConfig::p100());
    exec.multiply(a, b, &Options::default()).map(|run| run.matrix).map_err(|e| e.to_string())
}

/// Standalone multiply on a serve workload's backend: the reference an
/// engine job must match bitwise.
pub fn reference(backend: Backend, a: &Csr<f64>, b: &Csr<f64>) -> Result<Csr<f64>, String> {
    match backend {
        Backend::Sim => sim_multiply(a, b).map(|(c, _)| c),
        Backend::Host { threads } => host_multiply(a, b, threads),
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-pass wall GFLOPS and per-multiply wall times of library passes.
pub struct Passes {
    pub gflops: Vec<f64>,
    pub times_ms: Vec<f64>,
    /// Output digests of the first pass, one per dataset.
    pub digests: Vec<Option<u64>>,
    pub errors: u64,
    pub attempted: u64,
}

/// Run passes over the datasets with `mult` until `seconds` of multiply
/// time and [`MIN_SAMPLES`] multiplies are done (at least `min_passes`).
/// Only the multiplies are timed.
pub fn passes(
    lib: &Library,
    seconds: f64,
    min_passes: usize,
    mut mult: impl FnMut(&Csr<f32>) -> Result<Csr<f32>, String>,
) -> Passes {
    let mut out = Passes {
        gflops: Vec::new(),
        times_ms: Vec::new(),
        digests: Vec::new(),
        errors: 0,
        attempted: 0,
    };
    let mut busy = 0.0;
    while out.gflops.len() < min_passes || busy < seconds || out.times_ms.len() < MIN_SAMPLES {
        let (mut pass_s, mut pass_products) = (0.0, 0u64);
        for (a, &p) in lib.mats.iter().zip(&lib.products) {
            out.attempted += 1;
            let t = Instant::now();
            let r = mult(black_box(a));
            let dt = t.elapsed().as_secs_f64();
            match black_box(r) {
                Ok(c) => {
                    pass_s += dt;
                    pass_products += p;
                    out.times_ms.push(dt * 1e3);
                    if out.gflops.is_empty() {
                        out.digests.push(Some(digest(&c)));
                    }
                }
                Err(e) => {
                    eprintln!("multiply failed: {e}");
                    out.errors += 1;
                    if out.gflops.is_empty() {
                        out.digests.push(None);
                    }
                }
            }
        }
        if pass_s == 0.0 {
            break; // every multiply failed; more passes would too
        }
        busy += pass_s;
        out.gflops.push(2.0 * pass_products as f64 / pass_s / 1e9);
    }
    out
}

/// `paper-sim` and `host-square`.
pub fn run_library(p: &Params, lib: &Library) -> Outcome {
    let n = parallelism();
    let mut notes = Vec::new();
    let mut sim_reports = Vec::new();
    let res = match p.workload {
        Workload::PaperSim => passes(lib, p.seconds, 1, |a| {
            let (c, report) = sim_multiply(a, a)?;
            if sim_reports.len() < lib.mats.len() {
                sim_reports.push(report);
            }
            Ok(c)
        }),
        _ => {
            let mut exec = HostParallelExecutor::new(n);
            passes(lib, p.seconds, 1, |a| {
                exec.multiply(a, a, &Options::default())
                    .map(|run| run.matrix)
                    .map_err(|e| e.to_string())
            })
        }
    };
    for (name, r) in PAPER_DATASETS.iter().zip(&sim_reports) {
        notes.push(format!(
            "{name}: simulated {:.9e} s, peak {} B, {:.4} GFLOPS",
            r.total_time.secs(),
            r.peak_mem_bytes,
            r.gflops()
        ));
    }
    // Verification, outside the timed window: each dataset once against
    // the other backend (outputs are bitwise identical across backends).
    let mut mismatches = 0u64;
    for ((name, a), want) in PAPER_DATASETS.iter().zip(&lib.mats).zip(&res.digests) {
        let got = match p.workload {
            Workload::PaperSim => host_multiply(a, a, 1),
            _ => sim_multiply(a, a).map(|(c, _)| c),
        };
        if want.is_none() || got.map(|c| digest(&c)).ok() != *want {
            notes.push(format!("{name}: output differs from the reference"));
            mismatches += 1;
        }
    }
    notes.push(format!(
        "{} multiplies in {} passes on {} thread(s); {} of {} datasets verified bitwise",
        res.attempted,
        res.gflops.len(),
        if p.workload == Workload::PaperSim { 1 } else { n },
        lib.mats.len() as u64 - mismatches,
        lib.mats.len()
    ));
    let mut values = Values::new();
    values.insert("wall_gflops", median(&res.gflops).unwrap_or(0.0));
    values.insert("latency_p50_ms", percentile(&res.times_ms, 0.5).unwrap_or(f64::NAN));
    Outcome { attempted: res.attempted, failed: res.errors + mismatches, values, notes }
}

/// What the engine reported for the jobs of one closed-loop window.
pub struct Served {
    pub attempted: u64,
    pub errors: u64,
    /// Per job `queue_wait + latency`, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Per job `queue_wait`, milliseconds.
    pub wait_ms: Vec<f64>,
    /// Per job pickup → completion, summed, milliseconds.
    pub service_ms: f64,
    pub products: u64,
    pub window_s: f64,
    /// `(job, digest)` of sampled jobs from the first pass over the list.
    pub samples: Vec<(usize, u64)>,
    pub stats: engine::EngineStats,
}

/// Drive `engine` in a closed loop for `seconds` (and at least
/// `min_jobs` jobs), then shut it down.
pub fn serve_window(mut eng: Engine<f64>, s: &Serve, seconds: f64, min_jobs: usize) -> Served {
    let (mut attempted, mut errors, mut products) = (0, 0, 0);
    let (mut latency_ms, mut wait_ms, mut service_ms) = (Vec::new(), Vec::new(), 0.0);
    let mut samples = Vec::new();
    let mut inflight = VecDeque::new();
    let mut next = 0usize;
    let t0 = Instant::now();
    loop {
        while inflight.len() < outstanding()
            && (t0.elapsed().as_secs_f64() < seconds || next < min_jobs)
        {
            inflight.push_back((next, eng.submit(s.spec(next))));
            next += 1;
        }
        let Some((i, ticket)) = inflight.pop_front() else { break };
        attempted += 1;
        match ticket.wait() {
            Ok(job) => {
                latency_ms.push(ms(job.queue_wait + job.latency));
                wait_ms.push(ms(job.queue_wait));
                service_ms += ms(job.latency);
                products += s.job_products(i);
                if i < s.jobs.len() && s.sampled(i) {
                    samples.push((i, digest(&job.matrix)));
                }
            }
            Err(e) => {
                eprintln!("job {i} failed: {e}");
                errors += 1;
            }
        }
    }
    let window_s = t0.elapsed().as_secs_f64();
    let stats = eng.shutdown();
    if !stats.budget_drained {
        eprintln!("admission budget not drained at shutdown");
        errors += 1;
    }
    Served {
        attempted,
        errors,
        latency_ms,
        wait_ms,
        service_ms,
        products,
        window_s,
        samples,
        stats,
    }
}

/// `serve-reuse` and `serve-pressure`.
pub fn run_serve(p: &Params, s: &Serve, eng: Engine<f64>) -> Outcome {
    let served = serve_window(eng, s, p.seconds, MIN_SAMPLES);
    // Verification, outside the timed window: the sampled outputs
    // against standalone multiply on the same backend and options.
    let mut mismatches = 0u64;
    for &(i, got) in &served.samples {
        let spec = s.spec(i);
        if reference(s.config.backend, &spec.a, &spec.b).map(|c| digest(&c)).ok() != Some(got) {
            eprintln!("job {i}: output differs from standalone multiply");
            mismatches += 1;
        }
    }
    let st = &served.stats;
    let notes = vec![format!(
        "{} jobs in {:.3} s on {} workers ({}); cache {} hits / {} misses; {} batched, {} queued; \
         {} sampled jobs verified bitwise, {} mismatched",
        served.attempted,
        served.window_s,
        parallelism(),
        s.config.backend,
        st.cache.hits,
        st.cache.misses,
        st.batched,
        st.queued,
        served.samples.len(),
        mismatches
    )];
    let mut values = Values::new();
    values.insert("wall_gflops", 2.0 * served.products as f64 / served.window_s / 1e9);
    values.insert("latency_p50_ms", percentile(&served.latency_ms, 0.5).unwrap_or(f64::NAN));
    Outcome { attempted: served.attempted, failed: served.errors + mismatches, values, notes }
}
