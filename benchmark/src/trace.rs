//! The traced replay behind the per-layer metrics.
//!
//! Spans are recorded from the benchmark's own code, around public calls
//! into each layer, in the order the engine's `process_job` makes them:
//! validate → forecast → plan key → cache lookup → (miss: plan, then
//! symbolic) → numeric or batched → cache insert → verify. One thread
//! replays a fixed prefix of the workload's job list, so counts repeat
//! exactly for a seed. Admission and tail latency cannot be replayed on
//! one thread; they come from an untraced engine window over the same
//! list, through `JobOutput` and `EngineStats`.
//!
//! `Executor::plan` is timed on its own and then again inside
//! `SymbolicPlan::from_executor`; symbolic time is the difference.
//! Stitching is part of `batched` until the program records its own
//! spans.

use crate::metrics::Values;
use crate::run::{passes, serve_window, sim_multiply, Outcome};
use crate::stats::{median, percentile};
use crate::workloads::{digest, parallelism, Inputs, Library, Params, Serve, Setup, Workload};
use engine::{JobSpec, PlanCache, PlanKey};
use nsparse_core::{
    estimate_memory, Backend, BatchedExecutor, Executor, HostParallelExecutor, Options,
    SimExecutor, SymbolicPlan,
};
use sparse::Csr;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use vgpu::{DeviceConfig, Gpu, Phase, SpgemmReport};

/// One layer call of one job: `[start, end)` in µs since the traced run
/// began.
#[derive(Debug, Clone)]
pub struct Span {
    pub job: u64,
    pub layer: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span; `None` for a job's root.
    pub parent: Option<usize>,
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { t0: Instant::now(), spans: Vec::new() }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, job: u64, layer: &'static str, parent: Option<usize>) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span { job, layer, start_us, end_us: start_us, parent });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Self time per layer in ms: each span's duration minus the part
    /// its child spans cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_us - s.start_us;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.layer).or_insert(0.0) += (s.end_us - s.start_us - c) / 1e3;
        }
        out
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"job\":{},\"layer\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\
                 \"parent\":{parent}}}\n",
                s.job, s.layer, s.start_us, s.end_us
            ));
        }
        out
    }
}

/// Serve jobs replayed under the tracer (library workloads replay one
/// pass over the datasets).
fn replay_len(p: &Params) -> usize {
    match (p.smoke, p.workload) {
        (true, _) => 8,
        (false, Workload::ServeReuse) => 48,
        (false, _) => 32,
    }
}

/// Everything the replay counts besides span time.
#[derive(Default)]
struct Counts {
    jobs: u64,
    errors: u64,
    mismatches: u64,
    numeric_products: u64,
    cold_products: u64,
    cold_probes: u64,
    symbolic_runs: u64,
    lookups: u64,
    hits: u64,
    batched_jobs: u64,
    batches: u64,
    retries: u64,
    over_ratios: Vec<f64>,
    verify_reports: Vec<SpgemmReport>,
    verify_wall_s: f64,
}

/// The spans of one job: its root and the tracer they go into.
struct JobSpans<'t> {
    tr: &'t mut Tracer,
    job: u64,
    root: usize,
}

impl<'t> JobSpans<'t> {
    fn begin(tr: &'t mut Tracer, job: u64) -> Self {
        let root = tr.open(job, "job", None);
        JobSpans { tr, job, root }
    }

    fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.tr.open(self.job, layer, Some(self.root));
        let r = f();
        self.tr.close(id);
        r
    }
}

impl Drop for JobSpans<'_> {
    /// Closing the root on drop keeps a failed job's spans nested.
    fn drop(&mut self) {
        self.tr.close(self.root);
    }
}

/// A cold multiply split at the layer boundaries: plan, symbolic,
/// numeric. Returns the output and the symbolic plan for the cache.
fn cold<T: sparse::Scalar, E: Executor<T>>(
    js: &mut JobSpans,
    exec: &mut E,
    a: &Csr<T>,
    b: &Csr<T>,
    c: &mut Counts,
    products: u64,
) -> Result<(Csr<T>, SymbolicPlan<T>), nsparse_core::Error> {
    let opts = Options::default();
    std::hint::black_box(js.time("plan", || exec.plan(a, b, &opts))?);
    let plan = js.time("symbolic", || SymbolicPlan::from_executor(exec, a, b, &opts))?;
    c.symbolic_runs += 1;
    c.cold_products += products;
    c.cold_probes += plan.plan_hash_probes;
    let run = js.time("numeric", || plan.execute_with(exec, a, b))?;
    c.numeric_products += products;
    Ok((run.matrix, plan))
}

/// The engine's direct route: plan key, cache lookup, then the cached
/// plan's numeric phase on a hit, or a cold multiply and an insert.
fn direct<E: Executor<f64>>(
    js: &mut JobSpans,
    exec: &mut E,
    spec: &JobSpec<f64>,
    a: &Csr<f64>,
    cache: &PlanCache<f64>,
    c: &mut Counts,
    products: u64,
) -> Result<Csr<f64>, nsparse_core::Error> {
    let b = spec.b.as_ref();
    let key = js.time("cache.key", || PlanKey::new(a, b, &spec.opts));
    let hit = js.time("cache.lookup", || cache.lookup(&key));
    c.lookups += 1;
    if let Some(plan) = hit {
        c.hits += 1;
        c.numeric_products += products;
        return js.time("numeric", || plan.execute_with(exec, a, b)).map(|run| run.matrix);
    }
    let (m, plan) = cold(js, exec, a, b, c, products)?;
    js.time("cache.insert", || cache.insert(key, Arc::new(plan)));
    Ok(m)
}

/// Check `got` against `nsparse_core::multiply` on a fresh P100 and keep
/// its report for the simulated-device metrics.
fn verify<T: sparse::Scalar>(
    js: &mut JobSpans,
    a: &Csr<T>,
    b: &Csr<T>,
    got: Option<u64>,
    c: &mut Counts,
) -> Option<SpgemmReport> {
    let (reference, wall) = js.time("verify", || {
        let t = Instant::now();
        let r = sim_multiply(a, b);
        let wall = t.elapsed().as_secs_f64();
        (r.map(|(m, rep)| (digest(&m), rep)), wall)
    });
    match reference {
        Ok((want, report)) => {
            if got != Some(want) {
                c.mismatches += 1;
            }
            c.verify_wall_s += wall;
            c.verify_reports.push(report.clone());
            Some(report)
        }
        Err(e) => {
            eprintln!("reference multiply failed: {e}");
            c.errors += 1;
            None
        }
    }
}

fn replay_library(p: &Params, lib: &Library, tr: &mut Tracer, c: &mut Counts) {
    for (j, (a, &prods)) in lib.mats.iter().zip(&lib.products).enumerate() {
        let mut js = JobSpans::begin(tr, j as u64);
        let out = match p.workload {
            Workload::PaperSim => {
                let mut gpu = Gpu::new(DeviceConfig::p100());
                cold(&mut js, &mut SimExecutor::new(&mut gpu), a, a, c, prods)
            }
            _ => cold(&mut js, &mut HostParallelExecutor::new(parallelism()), a, a, c, prods),
        };
        let got = out.map_err(|e| eprintln!("multiply failed: {e}")).ok().map(|(m, _)| digest(&m));
        c.errors += u64::from(got.is_none());
        verify(&mut js, a, a, got, c);
        c.jobs += 1;
    }
}

/// Replay the engine's per-job path for job `i` of the list.
fn replay_job(
    s: &Serve,
    i: usize,
    budget: u64,
    cache: &PlanCache<f64>,
    tr: &mut Tracer,
    c: &mut Counts,
) -> Result<(), nsparse_core::Error> {
    let spec: JobSpec<f64> = s.spec(i);
    let prods = s.job_products(i);
    let mut js = JobSpans::begin(tr, i as u64);
    let eff =
        js.time("validate", || spec.validate(&s.config.backend).and_then(|()| spec.effective_a()))?;
    let (a, b) = (eff.as_ref(), spec.b.as_ref());
    let est = js.time("forecast", || estimate_memory(a, b).map(|m| m.upper_bound()))?;
    let dev = |bytes: u64| DeviceConfig { device_mem_bytes: bytes.max(1), ..DeviceConfig::p100() };
    let out = if est > budget {
        c.batched_jobs += 1;
        let (run, batches, retries) = js.time("batched", || match s.config.backend {
            Backend::Sim => {
                let mut gpu = Gpu::new(dev(budget));
                let mut exec = BatchedExecutor::sim(&mut gpu);
                let run = Executor::<f64>::multiply(&mut exec, a, b, &spec.opts);
                (run, exec.batches_used(), exec.retries_used())
            }
            Backend::Host { threads } => {
                let mut exec = BatchedExecutor::host(threads, dev(budget));
                let run = Executor::<f64>::multiply(&mut exec, a, b, &spec.opts);
                (run, exec.batches_used(), exec.retries_used())
            }
        });
        c.batches += batches as u64;
        c.retries += u64::from(retries);
        run?.matrix
    } else {
        // Like the engine: a device capped at the job's reservation on
        // the sim backend, a fresh host executor otherwise.
        match s.config.backend {
            Backend::Sim => {
                let mut gpu = Gpu::new(dev(est));
                direct(&mut js, &mut SimExecutor::new(&mut gpu), &spec, a, cache, c, prods)?
            }
            Backend::Host { threads } => {
                let mut exec = HostParallelExecutor::with_config(threads, DeviceConfig::p100());
                direct(&mut js, &mut exec, &spec, a, cache, c, prods)?
            }
        }
    };
    if let Some(report) = verify(&mut js, a, b, Some(digest(&out)), c) {
        c.over_ratios.push(est as f64 / report.peak_mem_bytes.max(1) as f64);
    }
    c.jobs += 1;
    Ok(())
}

/// Layers whose self time the engine itself spends on a job (the
/// separate `plan` call is the replay's own, counted again inside
/// `symbolic`; `verify` is the benchmark's).
const ENGINE_LAYERS: [&str; 8] = [
    "validate",
    "forecast",
    "cache.key",
    "cache.lookup",
    "symbolic",
    "numeric",
    "batched",
    "cache.insert",
];

/// The traced run: per-layer metrics and the span log.
pub fn run_trace(p: &Params, setup: Setup) -> (Outcome, Tracer) {
    let mut tr = Tracer::new();
    let mut c = Counts::default();
    let mut v = Values::new();
    for (name, _) in crate::metrics::PER_LAYER {
        v.insert(name, 0.0);
    }
    let mut attempted = 0;
    let mut errors = 0;
    let mut notes = Vec::new();
    v.insert("matgen.gen_ms", setup.gen_ms);
    match setup.inputs {
        Inputs::Library(lib) => {
            replay_library(p, &lib, &mut tr, &mut c);
            if p.workload == Workload::HostSquare {
                // The single-threaded baseline of the same kernels.
                let mut one = HostParallelExecutor::new(1);
                let res = passes(&lib, 0.0, 3, |a| {
                    one.multiply(a, a, &Options::default())
                        .map(|run| run.matrix)
                        .map_err(|e| e.to_string())
                });
                attempted += res.attempted;
                errors += res.errors;
                v.insert("wall_gflops_1t", median(&res.gflops).unwrap_or(0.0));
            }
        }
        Inputs::Serve(s, eng) => {
            let budget = eng.budget().capacity();
            let served = serve_window(eng, &s, p.seconds / 2.0, 100);
            attempted += served.attempted;
            errors += served.errors;
            let st = &served.stats;
            v.insert("admission.wait_p50_ms", median(&served.wait_ms).unwrap_or(0.0));
            v.insert("admission.queued_ratio", st.queued as f64 / st.jobs.max(1) as f64);
            v.insert(
                "admission.budget_peak_ratio",
                st.budget_peak as f64 / st.budget_capacity.max(1) as f64,
            );
            v.insert("latency_p90_ms", percentile(&served.latency_ms, 0.9).unwrap_or(f64::NAN));
            let cache = PlanCache::new(s.config.cache_capacity);
            for i in 0..replay_len(p) {
                if let Err(e) = replay_job(&s, i, budget, &cache, &mut tr, &mut c) {
                    eprintln!("replayed job {i} failed: {e}");
                    c.errors += 1;
                }
            }
            v.insert("cache.evictions", cache.stats().evictions as f64);
            let engine_ms: f64 = {
                let self_ms = tr.self_ms();
                ENGINE_LAYERS.iter().filter_map(|l| self_ms.get(l)).sum()
            };
            let service_per_job = served.service_ms / served.attempted.max(1) as f64;
            v.insert("trace.coverage_ratio", engine_ms / c.jobs.max(1) as f64 / service_per_job);
            notes.push(format!(
                "engine window: {} jobs, {} queued, {} batched, peak {} of {} budget bytes",
                st.jobs, st.queued, st.batched, st.budget_peak, st.budget_capacity
            ));
        }
    }
    layer_values(&tr, &c, &mut v);
    notes.push(format!(
        "replayed {} jobs on one thread: {} spans, {} mismatches",
        c.jobs,
        tr.spans.len(),
        c.mismatches
    ));
    attempted += c.jobs;
    errors += c.errors;
    let outcome = Outcome { attempted, failed: errors + c.mismatches, values: v, notes };
    (outcome, tr)
}

/// Fill the replay-derived metrics from span self times and counts.
fn layer_values(tr: &Tracer, c: &Counts, v: &mut Values) {
    let self_ms = tr.self_ms();
    let t = |l: &str| self_ms.get(l).copied().unwrap_or(0.0);
    let jobs = c.jobs.max(1) as f64;
    let ratio = |x: f64, base: f64| if base > 0.0 { x / base } else { 0.0 };
    v.insert("job.validate_ms", t("validate") / jobs);
    v.insert("forecast.busy_ms", t("forecast") / jobs);
    v.insert("forecast.over_ratio", median(&c.over_ratios).unwrap_or(0.0));
    v.insert("cache.key_ms", t("cache.key") / jobs);
    v.insert("cache.lookup_ms", t("cache.lookup") / jobs);
    v.insert("cache.hit_ratio", ratio(c.hits as f64, c.lookups as f64));
    v.insert("plan.busy_ms", t("plan") / jobs);
    v.insert("symbolic.busy_ms", (t("symbolic") - t("plan")).max(0.0) / jobs);
    v.insert("symbolic.runs", c.symbolic_runs as f64);
    v.insert("symbolic.probes_per_product", ratio(c.cold_probes as f64, c.cold_products as f64));
    v.insert("numeric.busy_ms", t("numeric") / jobs);
    v.insert("numeric.ns_per_product", ratio(t("numeric") * 1e6, c.numeric_products as f64));
    v.insert("batched.busy_ms", t("batched") / jobs);
    v.insert("batched.batches_per_job", ratio(c.batches as f64, c.batched_jobs as f64));
    v.insert("batched.retries", c.retries as f64);
    v.insert("route.batched_ratio", c.batched_jobs as f64 / jobs);
    v.insert("verify.busy_ms", t("verify") / jobs);
    v.insert("verify.mismatches", c.mismatches as f64);
    let reports = &c.verify_reports;
    let n = reports.len().max(1) as f64;
    let phase = |ph: Phase| reports.iter().map(|r| r.phase_time(ph).us()).sum::<f64>() / n;
    v.insert("vgpu.setup_us", phase(Phase::Setup));
    v.insert("vgpu.count_us", phase(Phase::Count));
    v.insert("vgpu.calc_us", phase(Phase::Calc));
    v.insert("vgpu.malloc_us", phase(Phase::Malloc));
    let sim_s: f64 = reports.iter().map(|r| r.total_time.secs()).sum();
    let sim_products: u64 = reports.iter().map(|r| r.intermediate_products).sum();
    v.insert("vgpu.wall_ns_per_sim_us", ratio(c.verify_wall_s * 1e9, sim_s * 1e6));
    v.insert("sim_gflops", ratio(2.0 * sim_products as f64 / 1e9, sim_s));
    v.insert(
        "sim_mem_mb",
        reports.iter().map(|r| r.peak_mem_bytes as f64).sum::<f64>() / n / 1048576.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new();
        tr.spans.push(Span { job: 0, layer: "job", start_us: 0.0, end_us: 10_000.0, parent: None });
        tr.spans.push(Span {
            job: 0,
            layer: "a",
            start_us: 1000.0,
            end_us: 4000.0,
            parent: Some(0),
        });
        tr.spans.push(Span {
            job: 0,
            layer: "b",
            start_us: 5000.0,
            end_us: 9000.0,
            parent: Some(0),
        });
        let s = tr.self_ms();
        assert_eq!(s["job"], 3.0);
        assert_eq!(s["a"], 3.0);
        assert_eq!(s["b"], 4.0);
        for line in tr.to_jsonl().lines() {
            obs::json::validate(line).expect("span line is JSON");
        }
    }
}
