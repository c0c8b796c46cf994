//! The four workloads and the inputs they are built from.
//!
//! Inputs are a pure function of the workload, `--seed` and `--smoke`;
//! the library and the engine only ever receive the generated matrices.
//! Each workload exists to load a different set of layers (README.md):
//!
//! * `paper-sim` — the paper's own protocol: C = A² on five Table II
//!   analogues through `nsparse_core::multiply` on a fresh virtual P100;
//! * `host-square` — the same matrices on the real multi-threaded host
//!   kernels;
//! * `serve-reuse` — engine jobs over eight repeated patterns, so almost
//!   every job is a plan-cache hit;
//! * `serve-pressure` — engine jobs on fresh patterns under a fixed,
//!   tight admission budget, so jobs queue and a third take the batched
//!   route.

use engine::{Engine, EngineConfig, JobSpec};
use matgen::generators as g;
use matgen::Scale;
use nsparse_core::Backend;
use sparse::{Csr, Scalar};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSim,
    HostSquare,
    ServeReuse,
    ServePressure,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::PaperSim, Workload::HostSquare, Workload::ServeReuse, Workload::ServePressure];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSim => "paper-sim",
            Workload::HostSquare => "host-square",
            Workload::ServeReuse => "serve-reuse",
            Workload::ServePressure => "serve-pressure",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed window in seconds.
    pub seconds: f64,
    /// `Scale::Tiny` matrices, 1/16 of the serve rows, 1/10 of the jobs.
    pub smoke: bool,
}

/// The five datasets of the regression observatory (`results/baseline.json`):
/// banded FEM, lattice QCD, scattered economics, hubby circuit and a 2-D
/// epidemic grid — compression ratios from about 25 down to 1.1.
pub const PAPER_DATASETS: [&str; 5] = ["Protein", "QCD", "Economics", "Circuit", "Epidemiology"];

/// Admission budget of `serve-pressure` in bytes. Fixed, never derived
/// from `estimate_memory` at run time, so a change to the forecast shows
/// up as a change in queueing and routing instead of silently moving the
/// budget. Chosen so about a third of the jobs' forecasts exceed it at
/// the commit that defined the benchmark; `BENCHMARK.json` states it.
pub const PRESSURE_BUDGET_BYTES: u64 = 15 << 20;

/// Engine workers, and host threads of `host-square`: the host's cores,
/// at most four. One process never runs more threads than cores.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(4)
}

/// `2·N` jobs outstanding: each worker has one job running and one
/// waiting, and the client mostly blocks.
pub fn outstanding() -> usize {
    2 * parallelism()
}

/// Intermediate products of `A · B` (the paper's FLOP count is twice this).
pub fn products<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> u64 {
    let rpt = b.rpt();
    a.col().iter().map(|&k| (rpt[k as usize + 1] - rpt[k as usize]) as u64).sum()
}

/// FNV-1a over shape, structure and value bits: equal digests mean
/// bitwise-equal matrices.
pub fn digest<T: Scalar>(m: &Csr<T>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x100000001b3);
    };
    eat(m.rows() as u64);
    eat(m.cols() as u64);
    m.rpt().iter().for_each(|&p| eat(p as u64));
    m.col().iter().for_each(|&c| eat(u64::from(c)));
    m.val().iter().for_each(|v| eat(v.to_f64().to_bits()));
    h
}

/// splitmix64: the seed stream every generated choice draws from.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Inputs of the two library workloads: the paper datasets in single
/// precision, squared.
pub struct Library {
    /// One matrix per [`PAPER_DATASETS`] entry, in that order.
    pub mats: Vec<Csr<f32>>,
    pub products: Vec<u64>,
}

/// One engine job: `A = pattern × scale`, `B = pattern`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    pub pattern: usize,
    pub scale: f64,
}

/// Inputs of the two serve workloads, and the engine they run on.
pub struct Serve {
    pub patterns: Vec<Arc<Csr<f64>>>,
    pub products: Vec<u64>,
    pub jobs: Vec<Job>,
    pub config: EngineConfig,
}

impl Serve {
    /// The engine request for job `i` of the list (cycled).
    pub fn spec(&self, i: usize) -> JobSpec<f64> {
        let job = self.jobs[i % self.jobs.len()];
        let b = &self.patterns[job.pattern];
        JobSpec::new(Arc::new(b.scaled(job.scale)), Arc::clone(b))
    }

    /// Intermediate products of job `i`.
    pub fn job_products(&self, i: usize) -> u64 {
        self.products[self.jobs[i % self.jobs.len()].pattern]
    }

    /// Jobs checked bitwise against standalone multiply: the first job
    /// of every pattern in a shared pool, and every 16th job.
    pub fn sampled(&self, i: usize) -> bool {
        let pooled = self.patterns.len() < self.jobs.len();
        let p = self.jobs[i].pattern;
        i.is_multiple_of(16) || (pooled && self.jobs[..i].iter().all(|j| j.pattern != p))
    }
}

#[allow(clippy::large_enum_variant)] // one value per process
pub enum Inputs {
    Library(Library),
    /// The job list and the engine, started, that serves it.
    Serve(Serve, Engine<f64>),
}

fn library(smoke: bool) -> Library {
    let scale = if smoke { Scale::Tiny } else { Scale::Repro };
    let mats: Vec<Csr<f32>> = PAPER_DATASETS
        .iter()
        .map(|n| matgen::by_name(n).expect("observatory dataset is registered").generate(scale))
        .collect();
    let products = mats.iter().map(|a| products(a, a)).collect();
    Library { mats, products }
}

/// A seeded permutation of `0..n` (Fisher–Yates on [`mix`]).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, (mix(seed ^ i as u64) % (i as u64 + 1)) as usize);
    }
    v
}

/// `serve-reuse`: eight patterns — scattered uniform, power-law, banded
/// and a 2-D stencil, each at 8k and 16k rows — and 600 jobs on them,
/// each with a fresh value scale. Every block of eight jobs holds each
/// pattern once in a seeded order, so any window sees the same mix.
fn reuse(seed: u64, smoke: bool) -> Serve {
    let shrink = if smoke { 16 } else { 1 };
    let mut patterns = Vec::new();
    for rows in [8192 / shrink, 16384 / shrink] {
        let s = |k: u64| mix(seed ^ (rows as u64) << 8 ^ k);
        let side = (rows as f64).sqrt().round() as usize;
        patterns.push(g::random_uniform(rows, 8.0, 32, s(1)));
        patterns.push(g::power_law(rows, 8.0, 256.min(rows / 2), 0.7, 0.3, 64, s(2)));
        patterns.push(g::banded(rows, 16.0, 24, 64, s(3)));
        patterns.push(g::periodic_stencil(side * side, &g::grid2d_offsets(side), s(4)));
    }
    let n = patterns.len();
    let n_jobs = if smoke { 60 } else { 600 };
    let jobs = (0..n_jobs)
        .map(|i| {
            let order = shuffled(n, mix(seed ^ (i / n) as u64));
            let scale = scale_of(mix(seed.wrapping_mul(0x100000001b3) ^ i as u64));
            Job { pattern: order[i % n], scale }
        })
        .collect();
    let config = EngineConfig {
        backend: Backend::Host { threads: 1 },
        cache_capacity: 64,
        ..EngineConfig::default()
    };
    serve(patterns, jobs, config)
}

/// `serve-pressure`: 200 jobs, each on a pattern of its own — two thirds
/// scattered uniform, one third power-law — with 3k–10k rows and 4–16
/// nonzeros per row. Sizes come from a grid of 8 row bands × 5 densities
/// that every block of 40 jobs covers once in a seeded order, so seeds
/// change the patterns and their order but not the mix of job sizes.
fn pressure(seed: u64, smoke: bool) -> Serve {
    const DENSITIES: [f64; 5] = [4.0, 7.0, 10.0, 13.0, 16.0];
    const BANDS: usize = 8;
    let cells = BANDS * DENSITIES.len();
    let shrink = if smoke { 16 } else { 1 };
    let n_jobs = if smoke { 20 } else { 200 };
    let mut patterns = Vec::with_capacity(n_jobs);
    let mut jobs = Vec::with_capacity(n_jobs);
    for i in 0..n_jobs {
        let cell = shuffled(cells, mix(seed.rotate_left(17) ^ (i / cells) as u64))[i % cells];
        let r = mix(seed.rotate_left(29) ^ i as u64);
        let rows = (3000 + 875 * (cell % BANDS) + (r % 875) as usize) / shrink;
        let nnz = DENSITIES[cell / BANDS];
        let a = if i % 3 == 2 {
            g::power_law(rows, nnz, 128.min(rows / 2), 0.7, 0.3, 64, r)
        } else {
            g::random_uniform(rows, nnz, 4 * nnz as usize, r)
        };
        patterns.push(a);
        jobs.push(Job { pattern: i, scale: scale_of(r >> 8) });
    }
    serve(patterns, jobs, pressure_config(smoke))
}

/// The `serve-pressure` engine: sim backend, 16 cached plans and the
/// fixed budget. Smoke inputs have 1/16 of the rows, so 1/16 of the
/// budget keeps the same share of jobs over it.
fn pressure_config(smoke: bool) -> EngineConfig {
    EngineConfig {
        backend: Backend::Sim,
        cache_capacity: 16,
        budget_bytes: Some(PRESSURE_BUDGET_BYTES / if smoke { 16 } else { 1 }),
        ..EngineConfig::default()
    }
}

/// A per-job value scale in `[1, 2)`: fresh values on a repeated pattern
/// make a plan-cache hit observable and bitwise-checkable.
fn scale_of(r: u64) -> f64 {
    1.0 + (r >> 40) as f64 / (1u64 << 24) as f64
}

fn serve(patterns: Vec<Csr<f64>>, jobs: Vec<Job>, config: EngineConfig) -> Serve {
    let products = patterns.iter().map(|a| products(a, a)).collect();
    let config = EngineConfig { workers: parallelism(), ..config };
    Serve { patterns: patterns.into_iter().map(Arc::new).collect(), products, jobs, config }
}

/// Everything set-up produced, and how long building it took.
pub struct Setup {
    pub inputs: Inputs,
    /// Median of three builds of inputs plus `Engine::new`, seconds.
    pub setup_s: f64,
    /// Median of the input-generation part alone, milliseconds.
    pub gen_ms: f64,
}

/// Build the inputs (and start the engine) three times and keep the last
/// build; the earlier engines are shut down outside the timed part.
pub fn setup(p: &Params) -> Setup {
    let mut totals = Vec::new();
    let mut gens = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        drop(last.take());
        let t0 = Instant::now();
        let gen_ms = || t0.elapsed().as_secs_f64() * 1e3;
        let inputs = match p.workload {
            Workload::PaperSim | Workload::HostSquare => {
                let lib = library(p.smoke);
                gens.push(gen_ms());
                Inputs::Library(lib)
            }
            w => {
                let s = match w {
                    Workload::ServeReuse => reuse(p.seed, p.smoke),
                    _ => pressure(p.seed, p.smoke),
                };
                gens.push(gen_ms());
                let engine = Engine::new(s.config.clone());
                Inputs::Serve(s, engine)
            }
        };
        totals.push(t0.elapsed().as_secs_f64());
        last = Some(inputs);
    }
    Setup {
        inputs: last.expect("three builds ran"),
        setup_s: crate::stats::median(&totals).unwrap_or(0.0),
        gen_ms: crate::stats::median(&gens).unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(s: &Serve) -> Vec<(u64, usize, u64)> {
        s.jobs
            .iter()
            .map(|j| (digest(&s.patterns[j.pattern]), j.pattern, j.scale.to_bits()))
            .collect()
    }

    fn serve_inputs(w: Workload, seed: u64) -> Serve {
        match w {
            Workload::ServeReuse => reuse(seed, true),
            _ => pressure(seed, true),
        }
    }

    #[test]
    fn job_lists_are_a_pure_function_of_the_seed() {
        for w in [Workload::ServeReuse, Workload::ServePressure] {
            let a = fingerprint(&serve_inputs(w, 7));
            assert_eq!(a, fingerprint(&serve_inputs(w, 7)), "{}", w.name());
            assert_ne!(a, fingerprint(&serve_inputs(w, 8)), "{}", w.name());
        }
    }

    #[test]
    fn reuse_samples_every_pattern_and_every_sixteenth_job() {
        let s = serve_inputs(Workload::ServeReuse, 1);
        assert_eq!(s.patterns.len(), 8);
        for p in 0..8 {
            let first = s.jobs.iter().position(|j| j.pattern == p).expect("pattern used");
            assert!(s.sampled(first));
        }
        assert!(s.sampled(0) && s.sampled(16) && s.sampled(32));
    }

    #[test]
    fn pressure_budget_is_the_fixed_constant() {
        assert_eq!(pressure_config(false).budget_bytes, Some(PRESSURE_BUDGET_BYTES));
        // The same number is declared in BENCHMARK.json's workload list.
        let bench = crate::bench_decl().expect("BENCHMARK.json parses");
        let why = bench
            .get("workloads")
            .map(|w| w.as_arr())
            .unwrap_or_default()
            .iter()
            .find(|w| w.get("name").and_then(|n| n.as_str()) == Some("serve-pressure"))
            .and_then(|w| w.get("why"))
            .and_then(|w| w.as_str())
            .unwrap_or_default()
            .to_string();
        let mib = PRESSURE_BUDGET_BYTES >> 20;
        assert!(why.contains(&format!("{mib} MiB")), "serve-pressure why must state {mib} MiB");
    }
}
