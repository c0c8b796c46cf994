//! Deterministic chaos soak: hostile job mixes under fault injection,
//! with every invariant checked after the run (DESIGN.md §17).
//!
//! The harness drives one [`Engine`] with a seeded mix of clean jobs,
//! recoverable device OOMs, transient and persistent kernel faults,
//! already-expired deadlines, self-cancelling jobs, row windows (and
//! one degenerate zero-row window), across any worker count. Every
//! ingredient is a *pure function of the seed and job id* — faults are
//! seeded [`FaultPlan`]s, deadlines live on the simulated clock,
//! cancellation fires at fixed points rather than from a racing thread,
//! and shedding is exercised against a paused engine so exactly the
//! overflow submissions shed. The result: two runs with the same
//! [`ChaosConfig`] — at *any* worker count — produce the same outcome
//! for every job and the same [`ChaosReport::digest`].
//!
//! The per-job hooks behind that mix (transient faults, self-cancel
//! points, the injected panic, the sanitizer canary) are a crate-private
//! `Hooks` value that this module hands to `Engine::submit_with`; no
//! public type carries them. On a host backend there is no device,
//! so the soak attaches no device faults, and the oracle expects the
//! jobs that would have faulted or missed a simulated deadline to
//! complete.
//!
//! After the soak the harness asserts the engine's safety contract:
//!
//! - **conservation** — `jobs == completed + failed + shed + cancelled
//!   + deadline_exceeded`: every job retired into exactly one class;
//! - **no leaks** — the admission budget drained to zero;
//! - **outcome oracle** — each job's outcome class matches what its
//!   spec alone predicts;
//! - **bitwise fidelity** — every completed job's product is bitwise
//!   identical to standalone [`nsparse_core::multiply`] on a fresh
//!   device, on either backend.

use crate::job::{JobOutput, JobSpec};
use crate::{Engine, EngineConfig, EngineStats, JobTicket};
use nsparse_core::{multiply, Backend, ErrorKind, Options};
use sparse::Csr;
use std::collections::HashMap;
use std::sync::Arc;
use vgpu::fault::split_mix64;
use vgpu::{DeviceConfig, FaultPlan, Gpu};

/// Chaos-soak parameters. Everything observable is a pure function of
/// these fields.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed: flavors, fault seeds, row windows all derive from it.
    pub seed: u64,
    /// Total submissions, including the deliberately shed overflow.
    pub jobs: usize,
    /// Worker threads (outcomes and digest must not depend on this).
    pub workers: usize,
    /// Bounded-queue depth; 0 disables the shedding phase.
    pub max_queue_depth: usize,
    /// Overflow submissions pushed at a paused engine so exactly these
    /// shed (only when `max_queue_depth > 0`).
    pub shed_jobs: usize,
    /// Engine-level retry budget for transient faults.
    pub retry_budget: u32,
    /// The engine's backend. A host backend has no device: its jobs
    /// carry no device faults and no simulated deadline expires.
    pub backend: Backend,
    /// Inject a worker panic into this job id (the panic-containment
    /// canary).
    pub panic_at: Option<u64>,
    /// Dimension of the square operand pool.
    pub rows: usize,
    /// Re-multiply every completed job standalone and compare bitwise.
    pub verify: bool,
    /// Run every sim-backend job under the vgpu device-memory sanitizer
    /// ([`EngineConfig::sanitize`]): any violation fails its job and
    /// therefore trips the outcome oracle.
    pub sanitize: bool,
    /// Make every sanitized sim job commit this violation after its
    /// real work — the proof that a sanitized soak rejects broken jobs.
    pub san_canary: Option<SanCanary>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 1,
            jobs: 200,
            workers: 4,
            max_queue_depth: 32,
            shed_jobs: 8,
            retry_budget: 2,
            backend: Backend::Sim,
            panic_at: None,
            rows: 96,
            verify: true,
            sanitize: false,
            san_canary: None,
        }
    }
}

/// Deterministic fault hooks on one job, handed to the engine with
/// [`Engine::submit_with`] by this harness and the engine's unit tests.
/// The default hooks nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Hooks {
    /// Install the job's faults only on its first `n` attempts: a
    /// transient fault that a retry outlives. `None` installs them on
    /// every attempt (a persistent fault that exhausts the retry
    /// budget).
    pub(crate) transient_attempts: Option<u32>,
    /// The worker flips the job's cancel flag at this point: the
    /// cooperative-cancellation path of [`JobTicket::cancel`] without a
    /// racing thread.
    pub(crate) cancel_at: Option<CancelPoint>,
    /// Panic inside the worker after admission: exercises panic
    /// containment and the RAII reservation guard.
    pub(crate) panic: bool,
    /// Violate the device-memory contract after the job's real work
    /// (sanitized sim jobs only).
    pub(crate) san_canary: Option<SanCanary>,
}

/// Where a self-cancelling job flips its cancel flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CancelPoint {
    /// Before any work: the job dies at the pickup check, reserving
    /// nothing.
    Pickup,
    /// After the admission reservation: the job dies at the first
    /// post-admission boundary, exercising reservation release.
    Admitted,
}

/// A device-memory violation a sanitized job commits on purpose
/// (`spgemm chaos --san-canary KIND`). The canary runs after the job's
/// real work, so the only divergence from a clean run is the violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SanCanary {
    /// Allocate and never free: tripped by the job leak checkpoint.
    Leak,
    /// Free one allocation twice.
    DoubleFree,
    /// Read an allocation after freeing it.
    Uaf,
    /// Write past the end of a 64 B allocation.
    Oob,
    /// Read bytes no transfer or kernel ever wrote.
    Uninit,
}

impl std::str::FromStr for SanCanary {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "leak" => Ok(SanCanary::Leak),
            "double-free" => Ok(SanCanary::DoubleFree),
            "uaf" => Ok(SanCanary::Uaf),
            "oob" => Ok(SanCanary::Oob),
            "uninit" => Ok(SanCanary::Uninit),
            other => Err(format!("unknown canary '{other}' (leak, double-free, uaf, oob, uninit)")),
        }
    }
}

impl SanCanary {
    /// Commit the violation on `gpu`.
    pub(crate) fn violate(self, gpu: &mut Gpu) {
        match self {
            SanCanary::Leak => {
                let _ = gpu.malloc(64, "san_canary_leak");
            }
            SanCanary::DoubleFree => {
                if let Ok(id) = gpu.malloc(64, "san_canary_double_free") {
                    gpu.free(id);
                    gpu.free(id);
                }
            }
            SanCanary::Uaf => {
                if let Ok(id) = gpu.malloc(64, "san_canary_uaf") {
                    gpu.san_note_h2d(id, 0, 64);
                    gpu.free(id);
                    gpu.san_note_d2h(id, 0, 8);
                }
            }
            SanCanary::Oob => {
                if let Ok(id) = gpu.malloc(64, "san_canary_oob") {
                    gpu.san_note_h2d(id, 32, 64);
                    gpu.free(id);
                }
            }
            SanCanary::Uninit => {
                if let Ok(id) = gpu.malloc(64, "san_canary_uninit") {
                    gpu.san_note_d2h(id, 0, 64);
                    gpu.free(id);
                }
            }
        }
    }
}

/// What the soak observed, plus every invariant violation it found.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The engine's counters at shutdown: outcome classes, hostility
    /// counters, the budget drain and the sanitizer totals (all-zero
    /// unless [`ChaosConfig::sanitize`] was set).
    pub stats: EngineStats,
    /// FNV-1a digest over every job's `(id, outcome class, output
    /// bits)` in id order — byte-identical across runs and worker
    /// counts for the same config.
    pub digest: u64,
    /// Human-readable invariant violations (empty on a clean soak).
    pub violations: Vec<String>,
}

/// Outcome classes for the oracle and the digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    Completed = 0,
    Failed = 1,
    Shed = 2,
    Cancelled = 3,
    Deadline = 4,
    Panicked = 5,
}

impl Tag {
    fn name(self) -> &'static str {
        match self {
            Tag::Completed => "completed",
            Tag::Failed => "failed",
            Tag::Shed => "shed",
            Tag::Cancelled => "cancelled",
            Tag::Deadline => "deadline_exceeded",
            Tag::Panicked => "panicked",
        }
    }
}

/// The hostile-job menu. Probabilities come from the per-job roll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flavor {
    Clean,
    /// Recoverable device OOM: the direct route falls back to batched.
    MallocOom,
    /// Kernel fault on the first attempt only: a retry outlives it.
    TransientKernel,
    /// Kernel fault on every attempt: exhausts the retry budget.
    PersistentKernel,
    /// Deadline already expired (0 µs of simulated time).
    PastDeadline,
    /// Self-cancels at a deterministic point.
    Cancel(CancelPoint),
    /// Generous deadline that completed jobs always meet.
    WideDeadline,
    /// The degenerate zero-row window.
    ZeroRows,
    /// Worker panic (the containment canary).
    Panic,
}

fn rng(seed: u64, id: u64, salt: u64) -> u64 {
    split_mix64(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

fn flavor_of(cfg: &ChaosConfig, id: u64) -> Flavor {
    if cfg.panic_at == Some(id) {
        return Flavor::Panic;
    }
    if id == cfg.jobs as u64 / 2 {
        return Flavor::ZeroRows;
    }
    match rng(cfg.seed, id, 0xF1A) % 100 {
        0..=9 => Flavor::MallocOom,
        10..=19 => Flavor::TransientKernel,
        20..=24 => Flavor::PersistentKernel,
        25..=34 => Flavor::PastDeadline,
        35..=39 => Flavor::Cancel(CancelPoint::Pickup),
        40..=44 => Flavor::Cancel(CancelPoint::Admitted),
        45..=49 => Flavor::WideDeadline,
        _ => Flavor::Clean,
    }
}

/// Job `id`'s spec and hooks, a pure function of the config and the id.
fn spec_of(cfg: &ChaosConfig, id: u64, pool: &[Arc<Csr<f64>>]) -> (JobSpec<f64>, Hooks) {
    // lint:allow(slice-index) — index reduced modulo pool.len() on this and the next line
    let a = Arc::clone(&pool[(rng(cfg.seed, id, 0xA) % pool.len() as u64) as usize]);
    // lint:allow(slice-index) — same modulo bound
    let b = Arc::clone(&pool[(rng(cfg.seed, id, 0xB) % pool.len() as u64) as usize]);
    let mut spec = JobSpec::new(a, b);
    let flavor = flavor_of(cfg, id);
    // A quarter of the non-degenerate jobs run a row window.
    if flavor != Flavor::ZeroRows && rng(cfg.seed, id, 0xC).is_multiple_of(4) {
        let n = cfg.rows;
        let start = (rng(cfg.seed, id, 0xD) % n as u64) as usize;
        let len = 1 + (rng(cfg.seed, id, 0xE) % (n - start) as u64) as usize;
        spec = spec.with_rows(start..start + len);
    }
    let mut hooks = Hooks { san_canary: cfg.san_canary, ..Hooks::default() };
    let fault_seed = rng(cfg.seed, id, 0xF) % 1000;
    let on_device = cfg.backend == Backend::Sim;
    let spec = match flavor {
        Flavor::Clean => spec,
        Flavor::MallocOom if on_device => {
            spec.with_faults(FaultPlan::new(fault_seed).malloc_oom(1))
        }
        Flavor::TransientKernel if on_device => {
            hooks.transient_attempts = Some(1);
            spec.with_faults(FaultPlan::new(fault_seed).kernel_fail("grouping"))
        }
        Flavor::PersistentKernel if on_device => {
            spec.with_faults(FaultPlan::new(fault_seed).kernel_fail("grouping"))
        }
        Flavor::MallocOom | Flavor::TransientKernel | Flavor::PersistentKernel => spec,
        Flavor::PastDeadline => spec.with_deadline_us(0),
        Flavor::Cancel(point) => {
            hooks.cancel_at = Some(point);
            spec
        }
        Flavor::WideDeadline => spec.with_deadline_us(1_000_000_000),
        Flavor::ZeroRows => spec.with_rows(0..0),
        Flavor::Panic => {
            hooks.panic = true;
            spec
        }
    };
    (spec, hooks)
}

/// The oracle: what class must this job retire into, given only its
/// spec and the config?
fn expected_tag(cfg: &ChaosConfig, flavor: Flavor, is_shed_slot: bool) -> Tag {
    if is_shed_slot {
        return Tag::Shed;
    }
    // A host backend has no device: no device faults are attached, and
    // host multiplies consume no simulated time, so past deadlines are
    // met trivially.
    let no_device = cfg.backend != Backend::Sim;
    match flavor {
        Flavor::Panic => Tag::Panicked,
        Flavor::Cancel(_) => Tag::Cancelled,
        Flavor::PastDeadline => {
            if no_device {
                Tag::Completed
            } else {
                Tag::Deadline
            }
        }
        Flavor::PersistentKernel => {
            if no_device {
                Tag::Completed
            } else {
                Tag::Failed
            }
        }
        Flavor::TransientKernel => {
            if no_device || cfg.retry_budget >= 1 {
                Tag::Completed
            } else {
                Tag::Failed
            }
        }
        Flavor::Clean | Flavor::MallocOom | Flavor::WideDeadline | Flavor::ZeroRows => {
            Tag::Completed
        }
    }
}

fn tag_of(result: &Result<JobOutput<f64>, nsparse_core::Error>) -> Tag {
    match result {
        Ok(_) => Tag::Completed,
        Err(e) => match e.kind() {
            ErrorKind::Rejected => Tag::Shed,
            ErrorKind::Cancelled => Tag::Cancelled,
            ErrorKind::Deadline => Tag::Deadline,
            ErrorKind::Panic => Tag::Panicked,
            ErrorKind::Planning
            | ErrorKind::DeviceOom
            | ErrorKind::Kernel
            | ErrorKind::Invariant => Tag::Failed,
        },
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn digest_matrix(h: &mut u64, m: &Csr<f64>) {
    for &p in m.rpt() {
        fnv(h, &(p as u64).to_le_bytes());
    }
    for &c in m.col() {
        fnv(h, &c.to_le_bytes());
    }
    for &v in m.val() {
        fnv(h, &v.to_bits().to_le_bytes());
    }
}

/// Standalone reference multiply for a job spec (fresh device, no
/// engine) — the bitwise oracle for every completed job.
fn reference(spec: &JobSpec<f64>) -> Csr<f64> {
    // lint:allow(no-expect) — harness oracle: spec_of only emits in-range windows
    let a = spec.effective_a().expect("chaos specs carry valid row windows");
    let mut gpu = Gpu::new(DeviceConfig::p100());
    multiply(&mut gpu, a.as_ref(), spec.b.as_ref(), &Options::default())
        // lint:allow(no-expect) — harness oracle: a faultless standalone multiply failing is a harness bug
        .expect("reference multiply of a clean spec cannot fail")
        .0
}

/// Run one seeded soak and check every invariant. Deterministic: the
/// same config produces the same report (including `digest`) at any
/// worker count.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    assert!(cfg.rows > 0, "chaos needs non-empty operands");
    let pool: Vec<Arc<Csr<f64>>> = (0..3)
        .map(|i| {
            Arc::new(matgen::generators::random_uniform(
                cfg.rows,
                5.0,
                16,
                cfg.seed.wrapping_add(0x5EED).wrapping_add(i),
            ))
        })
        .collect();

    let depth = cfg.max_queue_depth;
    let mut engine: Engine<f64> = Engine::new_paused(EngineConfig {
        workers: cfg.workers.max(1),
        max_queue_depth: depth,
        retry_budget: cfg.retry_budget,
        backend: cfg.backend,
        sanitize: cfg.sanitize,
        ..EngineConfig::default()
    });

    let total = cfg.jobs as u64;
    // Phase 1 — shedding: with the workers paused, the first `depth`
    // submissions fill the queue and the next `shed_jobs` overflow
    // deterministically. With no bound there is no shedding phase.
    let phase1 = if depth > 0 { total.min((depth + cfg.shed_jobs) as u64) } else { 0 };
    let shed_slot = |id: u64| depth > 0 && id >= depth as u64 && id < phase1;

    fn drain(
        wave: &mut Vec<(u64, JobTicket<f64>)>,
        results: &mut [Option<Result<JobOutput<f64>, nsparse_core::Error>>],
    ) {
        for (id, ticket) in wave.drain(..) {
            if let Some(slot) = results.get_mut(id as usize) {
                *slot = Some(ticket.wait());
            }
        }
    }

    let mut results: Vec<Option<Result<JobOutput<f64>, nsparse_core::Error>>> =
        (0..total).map(|_| None).collect();
    let mut wave: Vec<(u64, JobTicket<f64>)> = Vec::new();

    for id in 0..phase1 {
        let (spec, hooks) = spec_of(cfg, id, &pool);
        let ticket = engine.submit_with(spec, hooks);
        wave.push((id, ticket));
    }
    engine.resume();
    drain(&mut wave, &mut results);

    // Phase 2 — steady state: submit in waves no larger than the queue
    // bound (so nothing else sheds) and drain each wave fully.
    let wave_size = if depth > 0 { depth } else { 64 };
    let mut id = phase1;
    while id < total {
        while id < total && wave.len() < wave_size {
            let (spec, hooks) = spec_of(cfg, id, &pool);
            let ticket = engine.submit_with(spec, hooks);
            wave.push((id, ticket));
            id += 1;
        }
        drain(&mut wave, &mut results);
    }

    let stats: EngineStats = engine.shutdown();
    let mut violations = Vec::new();
    let push = |violations: &mut Vec<String>, msg: String| {
        // Cap the list so a systemic failure doesn't produce megabytes.
        if violations.len() < 32 {
            violations.push(msg);
        } else if violations.len() == 32 {
            violations.push("… further violations suppressed".to_string());
        }
    };

    // Per-job oracle + bitwise verification + digest, in id order.
    let mut digest = FNV_OFFSET;
    let mut references: HashMap<(usize, usize, usize, usize), Csr<f64>> = HashMap::new();
    for id in 0..total {
        let Some(result) = results.get(id as usize).and_then(|r| r.as_ref()) else {
            push(&mut violations, format!("job {id}: no result recorded"));
            continue;
        };
        let tag = tag_of(result);
        let flavor = flavor_of(cfg, id);
        let want = expected_tag(cfg, flavor, shed_slot(id));
        if tag != want {
            push(
                &mut violations,
                format!(
                    "job {id}: expected {} for {flavor:?}, got {} ({result:?})",
                    want.name(),
                    tag.name()
                ),
            );
        }
        fnv(&mut digest, &id.to_le_bytes());
        fnv(&mut digest, &[tag as u8]);
        if let Ok(out) = result {
            digest_matrix(&mut digest, &out.matrix);
            if cfg.verify {
                let (spec, _) = spec_of(cfg, id, &pool);
                let key = (
                    (rng(cfg.seed, id, 0xA) % pool.len() as u64) as usize,
                    (rng(cfg.seed, id, 0xB) % pool.len() as u64) as usize,
                    spec.rows.as_ref().map_or(usize::MAX, |r| r.start),
                    spec.rows.as_ref().map_or(usize::MAX, |r| r.end),
                );
                let want = references.entry(key).or_insert_with(|| reference(&spec));
                let same = out.matrix.rpt() == want.rpt()
                    && out.matrix.col() == want.col()
                    && out.matrix.val().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                        == want.val().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                if !same {
                    push(
                        &mut violations,
                        format!("job {id}: output differs bitwise from standalone multiply"),
                    );
                }
            }
        }
    }

    if !stats.conserved() {
        push(
            &mut violations,
            format!(
                "conservation violated: {} jobs vs {} completed + {} failed + {} shed + {} \
                 cancelled + {} deadline_exceeded",
                stats.jobs,
                stats.completed,
                stats.failed,
                stats.shed,
                stats.cancelled,
                stats.deadline_exceeded
            ),
        );
    }
    if !stats.budget_drained {
        push(&mut violations, "budget leak: reservations outlived the soak".to_string());
    }
    if cfg.sanitize && stats.san.reports > 0 {
        push(
            &mut violations,
            format!("sanitizer recorded {} violation report(s) across the soak", stats.san.reports),
        );
    }
    let expected_shed = if depth > 0 { phase1.saturating_sub(depth as u64) } else { 0 };
    if stats.shed != expected_shed {
        push(
            &mut violations,
            format!("shed count {} != deterministic expectation {expected_shed}", stats.shed),
        );
    }
    if stats.jobs != total {
        push(&mut violations, format!("submitted {} != requested {total}", stats.jobs));
    }

    ChaosReport { stats, digest, violations }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_is_clean_and_deterministic_across_worker_counts() {
        let base = ChaosConfig { jobs: 60, rows: 48, seed: 42, ..ChaosConfig::default() };
        let r1 = run_chaos(&ChaosConfig { workers: 1, ..base.clone() });
        assert!(r1.violations.is_empty(), "violations: {:?}", r1.violations);
        assert!(r1.stats.conserved() && r1.stats.budget_drained);
        let r4 = run_chaos(&ChaosConfig { workers: 4, ..base.clone() });
        assert!(r4.violations.is_empty(), "violations: {:?}", r4.violations);
        assert_eq!(r1.digest, r4.digest, "digest must not depend on worker count");
        assert_eq!(r1.stats.completed, r4.stats.completed);
        assert_eq!(r1.stats.shed, r4.stats.shed);
        assert_eq!(r1.stats.backoff_retries, r4.stats.backoff_retries);
        // The mix actually exercised the hostile paths.
        assert!(
            r1.stats.shed > 0
                && r1.stats.cancelled > 0
                && r1.stats.deadline_exceeded > 0
                && r1.stats.failed > 0
        );
    }

    #[test]
    fn sanitized_soak_is_clean_and_byte_identical() {
        // DESIGN.md §18: the sanitizer's clean path charges no simulated
        // time and touches no output, so a sanitized soak must reproduce
        // the unsanitized digest bit for bit — while actually checking
        // (nonzero shadowed allocations and bytes).
        let base = ChaosConfig { jobs: 40, rows: 48, workers: 2, seed: 42, ..Default::default() };
        let plain = run_chaos(&base);
        let san = run_chaos(&ChaosConfig { sanitize: true, ..base });
        assert!(san.violations.is_empty(), "violations: {:?}", san.violations);
        assert_eq!(plain.digest, san.digest, "sanitizer must not change any output byte");
        assert!(
            san.stats.san.allocs > 0 && san.stats.san.bytes_checked > 0,
            "sanitizer saw no traffic"
        );
        assert_eq!(san.stats.san.reports, 0);
        assert_eq!(plain.stats.san, crate::SanTotals::default(), "off ⇒ all-zero totals");
    }

    #[test]
    fn different_seeds_produce_different_soaks() {
        let base = ChaosConfig { jobs: 40, rows: 32, workers: 2, ..ChaosConfig::default() };
        let r1 = run_chaos(&ChaosConfig { seed: 7, ..base.clone() });
        let r2 = run_chaos(&ChaosConfig { seed: 8, ..base });
        assert!(r1.violations.is_empty() && r2.violations.is_empty());
        assert_ne!(r1.digest, r2.digest);
    }

    #[test]
    fn host_soak_completes_every_non_hostile_job() {
        let cfg = ChaosConfig {
            jobs: 30,
            rows: 32,
            workers: 2,
            backend: Backend::Host { threads: 2 },
            seed: 11,
            ..ChaosConfig::default()
        };
        let r = run_chaos(&cfg);
        assert!(r.violations.is_empty(), "violations: {:?}", r.violations);
        // With no device, injected faults and past simulated deadlines
        // stop mattering: only cancellations remain hostile.
        assert_eq!(r.stats.failed, 0);
        assert_eq!(r.stats.deadline_exceeded, 0);
    }
}
