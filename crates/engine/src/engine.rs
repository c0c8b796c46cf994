//! The job engine: worker pool, admission control, routing, telemetry.
//!
//! Life of a job (DESIGN.md §14):
//!
//! 1. [`Engine::submit`] enqueues the spec and returns a [`JobTicket`];
//!    submission never blocks on device capacity. With a bounded queue
//!    ([`EngineConfig::max_queue_depth`]) a submission over the limit is
//!    **shed**: the ticket resolves immediately with a structured
//!    [`Error::Shed`] rejection — never a panic, never a reservation.
//! 2. A worker validates the spec at the trust boundary
//!    ([`JobSpec::validate`]) and forecasts its device footprint with
//!    [`estimate_memory`].
//! 3. **Admission**: the forecast is reserved against the shared
//!    [`SharedBudget`]. A job that fits now runs immediately; a job
//!    that would overcommit waits (the "queued" counter) until running
//!    jobs release their reservations; a job whose forecast exceeds the
//!    whole budget can never run in one piece and is routed through the
//!    row-batched fallback under a full-budget reservation. The
//!    reservation is held by an RAII guard, so *every* exit — success,
//!    classified error, deadline, cancellation, even a worker panic —
//!    releases it (the no-leak gate).
//! 4. **Execution**: direct jobs consult the [`PlanCache`] — a hit
//!    replays the cached symbolic plan (numeric phase only), a miss
//!    plans cold and populates the cache. Admitted jobs that still hit
//!    a recoverable device error ([`Recovery::RetrySmallerBatch`])
//!    fall back to the batched route instead of failing; transient
//!    device faults ([`Recovery::RetryAfterBackoff`]) are retried under
//!    a per-job budget with deterministic exponential backoff charged
//!    to *simulated* time.
//! 5. The reservation is released (the budget must drain to zero by
//!    shutdown — the no-leak gate), latency is recorded, and the
//!    ticket is fulfilled.
//!
//! Hostile-load posture (DESIGN.md §17): deadlines and cancellation are
//! *cooperative*, polled at phase boundaries on the simulated clock so
//! outcomes are a pure function of the job spec, never of wall-clock
//! racing; a panicking job is contained with [`std::panic::catch_unwind`]
//! and surfaces as [`Error::Panicked`] with a flight-recorder dump while
//! the pool keeps serving; every lock recovers from poisoning so one
//! panicked worker cannot wedge [`Engine::shutdown`] or the leak gate.
//!
//! Every job runs on its own device state (a fresh virtual GPU per job
//! on the sim backend), so results depend only on the job itself —
//! never on which worker ran it or what ran before. That is what makes
//! engine output bitwise identical to standalone `multiply` at any
//! worker count.

use crate::cache::{CacheStats, PlanCache, PlanKey};
use crate::chaos::{CancelPoint, Hooks, SanCanary};
use crate::job::{CacheOutcome, EffectiveA, JobOutput, JobSpec, Route};
use crate::recorder::{FlightRecorder, PhaseSpan, TraceBuilder};
use crate::Result;
use nsparse_core::{
    estimate_memory, Backend, BatchedExecutor, Error, ErrorKind, Executor, HostParallelExecutor,
    JobCtl, MemoryEstimate, Options, Recovery, SimExecutor, SymbolicPlan,
};
use obs::Telemetry;
use sparse::{Csr, Scalar};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vgpu::fault::split_mix64;
use vgpu::{DeviceConfig, FaultPlan, Gpu, SharedBudget, SpgemmReport};

/// The per-job tracer threaded through the worker's routing path:
/// `None` when tracing is off (the untraced path pays nothing).
type Tracer = Option<TraceBuilder>;

/// Flight-recorder ring capacity: the recent job traces a dump keeps.
const FLIGHT_CAPACITY: usize = 64;

/// Backoff base in simulated µs: retry `k` of job `id` waits
/// `base << (k-1)` plus a jitter `split_mix64(id ^ k) % base`, so waits
/// are byte-identical across runs and worker counts.
const BACKOFF_BASE_US: u64 = 100;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads consuming the job queue.
    pub workers: usize,
    /// Execution backend every worker uses ([`Backend::parse`] syntax).
    pub backend: Backend,
    /// Device class; its memory is the default admission budget.
    pub device: DeviceConfig,
    /// Admission budget in bytes (default: the device's memory).
    pub budget_bytes: Option<u64>,
    /// Plan-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Build a per-job span tree for every job and feed the flight
    /// recorder (DESIGN.md §15). Off by default: tracing allocates a
    /// telemetry session per job.
    pub trace: bool,
    /// Bounded-queue depth; submissions past it are shed with a
    /// structured [`Error::Shed`]. 0 = unbounded (the pre-hardening
    /// behaviour).
    pub max_queue_depth: usize,
    /// Retries for transient device faults
    /// ([`Recovery::RetryAfterBackoff`]). 0 = fail on the first fault.
    pub retry_budget: u32,
    /// Run every sim-backend job under the vgpu device-memory sanitizer
    /// (DESIGN.md §18): use-after-free, double-free, out-of-bounds,
    /// uninitialized reads and leaks become structured reports, and any
    /// report fails the job with an `Invariant` error. Clean jobs are
    /// byte-identical to unsanitized runs. Off by default.
    pub sanitize: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 2,
            backend: Backend::Sim,
            device: DeviceConfig::p100(),
            budget_bytes: None,
            cache_capacity: 64,
            trace: false,
            max_queue_depth: 0,
            retry_budget: 0,
            sanitize: false,
        }
    }
}

/// Aggregate device-sanitizer activity across all sim-backend jobs
/// (all-zero when [`EngineConfig::sanitize`] is off). Sums are
/// order-independent — no job-completion order can change them — and
/// `reports` is scheduling-invariant outright. The *activity* fields
/// (`allocs`..`bytes_checked`) count shadowed device work, which at
/// multiple workers can vary when concurrent same-fingerprint jobs
/// race the plan cache and both plan cold; byte-stable dumps are
/// guaranteed at one worker (sequential, hence fully deterministic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SanTotals {
    /// Violation reports recorded (0 on a clean fleet).
    pub reports: u64,
    /// Allocations shadowed.
    pub allocs: u64,
    /// Valid frees observed.
    pub frees: u64,
    /// Read ranges checked.
    pub reads: u64,
    /// Write ranges recorded.
    pub writes: u64,
    /// Total bytes across all checked ranges.
    pub bytes_checked: u64,
}

impl SanTotals {
    fn absorb(&mut self, reports: u64, st: vgpu::SanStats) {
        self.reports += reports;
        self.allocs += st.allocs;
        self.frees += st.frees;
        self.reads += st.reads;
        self.writes += st.writes;
        self.bytes_checked += st.bytes_checked;
    }

    /// One JSON object (the chaos CLI's `--san-jsonl` artifact, diffed
    /// byte-for-byte across single-worker runs in CI).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"reports\":{},\"allocs\":{},\"frees\":{},\"reads\":{},\"writes\":{},\
             \"bytes_checked\":{}}}",
            self.reports, self.allocs, self.frees, self.reads, self.writes, self.bytes_checked
        )
    }
}

/// Latency percentiles over completed jobs (wall-clock microseconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Completed jobs measured.
    pub count: u64,
    /// Median.
    pub p50_us: u64,
    /// 90th percentile.
    pub p90_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Slowest job.
    pub max_us: u64,
}

/// Snapshot of everything the engine counts.
///
/// Conservation invariant (checked by the chaos harness after every
/// soak): `jobs == completed + failed + shed + cancelled +
/// deadline_exceeded` — every submitted job retires into exactly one
/// outcome class.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Jobs submitted.
    pub jobs: u64,
    /// Jobs admitted whole (direct route).
    pub admitted: u64,
    /// Jobs that had to wait for budget before admission.
    pub queued: u64,
    /// Jobs routed to the batched fallback because the forecast
    /// exceeded the whole budget.
    pub batched: u64,
    /// Admitted jobs that fell back to the batched route after a
    /// recoverable device error.
    pub fallback: u64,
    /// Jobs that completed successfully.
    pub completed: u64,
    /// Jobs that completed with an error (excluding the dedicated
    /// shed/cancelled/deadline classes below).
    pub failed: u64,
    /// Submissions rejected at the bounded queue.
    pub shed: u64,
    /// Jobs cancelled cooperatively before completing.
    pub cancelled: u64,
    /// Jobs that blew their simulated-time deadline.
    pub deadline_exceeded: u64,
    /// Jobs that panicked inside a worker and were contained (subset of
    /// `failed`).
    pub panicked_jobs: u64,
    /// Transient-fault retry attempts consumed across all jobs.
    pub backoff_retries: u64,
    /// Cold symbolic (setup + count) phases actually run — cache hits
    /// skip these, so `symbolic_runs + cache.hits` ≈ direct jobs.
    pub symbolic_runs: u64,
    /// Cold plans built under a sampled estimator (subset of
    /// `symbolic_runs`; cache hits replay the plan without
    /// re-estimating, so they never count here).
    pub sampled_plans: u64,
    /// Rows re-planned with exact counts after a sampled table
    /// under-estimate, summed over cold plans only — a hit replays the
    /// already-corrected table sizes and can never replan again.
    pub replanned_rows: u64,
    /// Plan-cache counters.
    pub cache: CacheStats,
    /// Per-job latency percentiles (worker pickup → completion).
    pub latency: LatencySummary,
    /// Per-job queue-wait percentiles (submit → worker pickup) — the
    /// admission wait that job latency alone never showed.
    pub queue_wait: LatencySummary,
    /// Admission budget capacity in bytes.
    pub budget_capacity: u64,
    /// High-water mark of concurrent reservations.
    pub budget_peak: u64,
    /// `true` iff every reservation was released and accounting stayed
    /// consistent — the no-leak invariant.
    pub budget_drained: bool,
    /// Device-sanitizer totals (all-zero unless
    /// [`EngineConfig::sanitize`] was set).
    pub san: SanTotals,
}

impl EngineStats {
    /// The outcome-conservation invariant: every submitted job retired
    /// into exactly one class.
    pub fn conserved(&self) -> bool {
        self.jobs
            == self.completed + self.failed + self.shed + self.cancelled + self.deadline_exceeded
    }
}

/// What the workers count: the stats record itself, whose cache,
/// percentile and budget fields [`stats_of`] fills at snapshot time,
/// plus every job's latency and queue wait for those percentiles.
#[derive(Debug, Default)]
struct Tally {
    stats: EngineStats,
    latencies_us: Vec<u64>,
    queue_waits_us: Vec<u64>,
}

#[derive(Debug, Default)]
struct Metrics(Mutex<Tally>);

fn summarize(mut us: Vec<u64>) -> LatencySummary {
    if us.is_empty() {
        // No job has completed yet: there is no rank to take.
        return LatencySummary::default();
    }
    us.sort_unstable();
    let pct = |q: f64| {
        let i = ((q * us.len() as f64).ceil() as usize).clamp(1, us.len());
        us.get(i - 1).copied().unwrap_or(0)
    };
    LatencySummary {
        count: us.len() as u64,
        p50_us: pct(0.50),
        p90_us: pct(0.90),
        p99_us: pct(0.99),
        max_us: us.last().copied().unwrap_or(0),
    }
}

impl Metrics {
    /// Counter updates recover from lock poisoning: a panicked worker
    /// mid-update leaves at worst one stale integer, never a wedged
    /// stats snapshot (DESIGN.md §17).
    fn lock(&self) -> MutexGuard<'_, Tally> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn with<R>(&self, f: impl FnOnce(&mut EngineStats) -> R) -> R {
        f(&mut self.lock().stats)
    }
}

struct Slot<T> {
    result: Mutex<Option<Result<JobOutput<T>>>>,
    done: Condvar,
}

impl<T> Slot<T> {
    fn fulfill(&self, result: Result<JobOutput<T>>) {
        *self.result.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        self.done.notify_all();
    }
}

/// Waitable handle to a submitted job.
pub struct JobTicket<T> {
    slot: Arc<Slot<T>>,
    cancel: Arc<AtomicBool>,
}

impl<T> JobTicket<T> {
    /// Request cooperative cancellation. Workers poll the flag at phase
    /// boundaries; a job cancelled before any work reserves nothing,
    /// one cancelled mid-flight stops at the next boundary and releases
    /// its reservation. Best-effort: a job past its last boundary
    /// completes normally.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
    }

    /// Block until the job completes and take its result.
    pub fn wait(self) -> Result<JobOutput<T>> {
        let mut g = self.slot.result.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(r) = g.take() {
                return r;
            }
            g = self.slot.done.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct Pending<T> {
    id: u64,
    spec: JobSpec<T>,
    hooks: Hooks,
    slot: Arc<Slot<T>>,
    cancel: Arc<AtomicBool>,
    submitted: Instant,
}

struct QueueState<T> {
    q: VecDeque<Pending<T>>,
    closed: bool,
    paused: bool,
}

struct Queue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
}

impl<T> Queue<T> {
    /// Queue locking recovers from poisoning so a panicked worker can
    /// never wedge `shutdown()` or strand queued jobs — push/pop keep
    /// the deque consistent at every instruction boundary.
    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

struct Shared<T> {
    cfg: EngineConfig,
    queue: Queue<T>,
    budget: SharedBudget,
    cache: PlanCache<T>,
    metrics: Metrics,
    recorder: Arc<FlightRecorder>,
}

/// The SpGEMM job engine. See the [crate docs](crate) for the model.
pub struct Engine<T: Scalar> {
    shared: Arc<Shared<T>>,
    workers: Vec<JoinHandle<()>>,
    next_id: u64,
}

impl<T: Scalar> Engine<T> {
    /// Start the worker pool (at least one worker).
    pub fn new(cfg: EngineConfig) -> Self {
        Self::start(cfg, false)
    }

    /// [`Engine::new`] with the workers paused: jobs accumulate in the
    /// queue until [`Engine::resume`], so the chaos harness and this
    /// module's tests can fill a bounded queue and shed deterministically.
    pub(crate) fn new_paused(cfg: EngineConfig) -> Self {
        Self::start(cfg, true)
    }

    fn start(cfg: EngineConfig, paused: bool) -> Self {
        let budget_bytes = cfg.budget_bytes.unwrap_or(cfg.device.device_mem_bytes).max(1);
        let shared = Arc::new(Shared {
            budget: SharedBudget::new(budget_bytes),
            cache: PlanCache::new(cfg.cache_capacity),
            metrics: Metrics::default(),
            queue: Queue {
                state: Mutex::new(QueueState { q: VecDeque::new(), closed: false, paused }),
                ready: Condvar::new(),
            },
            recorder: Arc::new(FlightRecorder::new(FLIGHT_CAPACITY)),
            cfg,
        });
        #[expect(
            clippy::expect_used,
            reason = "spawn fails only on OS thread exhaustion, which no caller of Engine::new \
                      can recover from"
        )]
        let workers = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("spgemm-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn engine worker")
            })
            .collect();
        Engine { shared, workers, next_id: 0 }
    }

    /// Enqueue a job. Never blocks on device capacity — admission
    /// happens worker-side against the shared budget. With a bounded
    /// queue, a submission past [`EngineConfig::max_queue_depth`] is
    /// shed: the returned ticket resolves immediately with
    /// [`Error::Shed`].
    pub fn submit(&mut self, spec: JobSpec<T>) -> JobTicket<T> {
        self.submit_with(spec, Hooks::default())
    }

    /// [`Engine::submit`] with deterministic fault hooks attached (the
    /// chaos harness and this module's tests).
    pub(crate) fn submit_with(&mut self, spec: JobSpec<T>, hooks: Hooks) -> JobTicket<T> {
        let id = self.next_id;
        self.next_id += 1;
        self.shared.metrics.with(|c| c.jobs += 1);
        let slot = Arc::new(Slot { result: Mutex::new(None), done: Condvar::new() });
        let cancel = Arc::new(AtomicBool::new(false));
        let limit = self.shared.cfg.max_queue_depth;
        {
            let mut g = self.shared.queue.lock();
            if limit > 0 && g.q.len() >= limit {
                let queued = g.q.len();
                drop(g);
                self.shared.metrics.with(|c| c.shed += 1);
                slot.fulfill(Err(Error::Shed { queued, limit }));
                return JobTicket { slot, cancel };
            }
            g.q.push_back(Pending {
                id,
                spec,
                hooks,
                slot: Arc::clone(&slot),
                cancel: Arc::clone(&cancel),
                #[expect(
                    clippy::disallowed_methods,
                    reason = "queue-wait observability only; never enters results"
                )]
                submitted: Instant::now(),
            });
        }
        self.shared.queue.ready.notify_one();
        JobTicket { slot, cancel }
    }

    /// Release the workers of [`Engine::new_paused`]. A no-op when
    /// already running.
    pub(crate) fn resume(&self) {
        self.shared.queue.lock().paused = false;
        self.shared.queue.ready.notify_all();
    }

    /// The shared admission budget (for tests and leak gates).
    pub fn budget(&self) -> &SharedBudget {
        &self.shared.budget
    }

    /// Counter snapshot (valid any time; percentiles cover completed
    /// jobs so far).
    pub fn stats(&self) -> EngineStats {
        stats_of(&self.shared)
    }

    /// The engine's flight recorder — keep a clone of the [`Arc`] to
    /// dump it after [`Engine::shutdown`] (which returns final stats).
    pub fn flight(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.shared.recorder)
    }

    /// Drain the queue, stop the workers and return the final stats.
    pub fn shutdown(mut self) -> EngineStats {
        self.close_and_join();
        self.stats()
    }

    fn close_and_join(&mut self) {
        {
            let mut g = self.shared.queue.lock();
            g.closed = true;
            // Shutdown overrides a paused start: queued jobs drain.
            g.paused = false;
        }
        self.shared.queue.ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Budget-leak detection: with every worker joined, all
        // reservations must have been released. A leak trips the
        // flight recorder so the last traces survive for diagnosis.
        if !self.shared.budget.drained() {
            self.shared.recorder.trigger("budget leak at shutdown", &stats_of(&self.shared));
        }
    }
}

/// Snapshot the counters (shared by [`Engine::stats`] and the worker
/// threads, which need stats at flight-recorder trigger time).
fn stats_of<T: Scalar>(shared: &Shared<T>) -> EngineStats {
    let (stats, latencies_us, queue_waits_us) = {
        let t = shared.metrics.lock();
        (t.stats.clone(), t.latencies_us.clone(), t.queue_waits_us.clone())
    };
    EngineStats {
        cache: shared.cache.stats(),
        latency: summarize(latencies_us),
        queue_wait: summarize(queue_waits_us),
        budget_capacity: shared.budget.capacity(),
        budget_peak: shared.budget.peak_reserved(),
        budget_drained: shared.budget.drained(),
        ..stats
    }
}

impl<T: Scalar> Drop for Engine<T> {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn worker_loop<T: Scalar>(shared: &Shared<T>) {
    loop {
        let job = {
            let mut g = shared.queue.lock();
            loop {
                if !g.paused || g.closed {
                    if let Some(job) = g.q.pop_front() {
                        break job;
                    }
                    if g.closed {
                        return;
                    }
                }
                g = shared.queue.ready.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "queue-wait observability only; never enters results"
        )]
        let t0 = Instant::now();
        let queue_wait = t0.duration_since(job.submitted);
        let mut tracer: Tracer = shared.cfg.trace.then(|| TraceBuilder::new(job.id));
        // The wait is over the moment the worker picks the job up; the
        // span records *that it happened and where* — the wall duration
        // is scheduling-dependent and lives only in the aggregate
        // queue-wait metrics, never in the trace.
        let qs = t_begin(&mut tracer, None, "queue_wait");
        t_end(&mut tracer, None, qs);
        // Deterministic self-cancellation (chaos harness): flip the flag
        // at the same point the submitter's `JobTicket::cancel` targets.
        if job.hooks.cancel_at == Some(CancelPoint::Pickup) {
            job.cancel.store(true, Ordering::SeqCst);
        }
        // Panic containment: a job that unwinds is converted into a
        // structured failure. The RAII reservation guard inside
        // `process_job` released any budget during the unwind, and every
        // shared lock recovers from poisoning, so the pool survives.
        let result = match catch_unwind(AssertUnwindSafe(|| process_job(shared, &job, &mut tracer)))
        {
            Ok(r) => r,
            Err(payload) => Err(Error::Panicked(panic_message(payload.as_ref()))),
        };
        let latency = t0.elapsed();
        let us = |d: Duration| d.as_micros().min(u64::MAX as u128) as u64;
        {
            let mut t = shared.metrics.lock();
            t.latencies_us.push(us(latency));
            t.queue_waits_us.push(us(queue_wait));
            let c = &mut t.stats;
            match &result {
                Ok(_) => c.completed += 1,
                Err(e) => match e.kind() {
                    ErrorKind::Cancelled => c.cancelled += 1,
                    ErrorKind::Deadline => c.deadline_exceeded += 1,
                    ErrorKind::Panic => {
                        c.failed += 1;
                        c.panicked_jobs += 1;
                    }
                    ErrorKind::Planning
                    | ErrorKind::DeviceOom
                    | ErrorKind::Kernel
                    | ErrorKind::Invariant
                    | ErrorKind::Rejected => c.failed += 1,
                },
            }
        }
        if let Some(tb) = tracer.take() {
            let err = result.as_ref().err().map(|e| e.to_string());
            shared.recorder.record(tb.finish(err.as_deref()));
        }
        if let Err(e) = &result {
            // Cancellations and blown deadlines are *expected* terminal
            // outcomes under hostile load, not engine failures — they
            // never trip the recorder.
            let expected = matches!(e.kind(), ErrorKind::Cancelled | ErrorKind::Deadline);
            if e.recovery() == Recovery::Fatal && !expected {
                // Non-retryable failure: trip the flight recorder with
                // the counter state as of this moment.
                shared.recorder.trigger(
                    &format!("job {} failed (non-retryable): {e}", job.id),
                    &stats_of(shared),
                );
            }
        }
        let output = result.map(|fin| JobOutput {
            matrix: fin.matrix,
            report: fin.report,
            route: fin.route,
            cache: fin.cache,
            latency,
            queue_wait,
            batched_retries: fin.batched_retries,
            attempts: fin.attempts,
        });
        job.slot.fulfill(output);
    }
}

struct Finished<T> {
    matrix: Csr<T>,
    report: SpgemmReport,
    route: Route,
    cache: CacheOutcome,
    batched_retries: u32,
    attempts: u32,
}

/// RAII admission reservation: drops — and therefore releases — on
/// *every* exit path, including an unwinding panic, so the no-leak gate
/// holds under hostile load by construction.
struct Reservation<'a, T: Scalar> {
    shared: &'a Shared<T>,
    bytes: u64,
}

impl<'a, T: Scalar> Reservation<'a, T> {
    fn new(shared: &'a Shared<T>, bytes: u64) -> Self {
        reserve(shared, bytes);
        Reservation { shared, bytes }
    }

    /// Swap the reservation for a different size (the direct → batched
    /// fallback upgrades `est` to the full capacity). Releases first so
    /// the upgrade cannot deadlock against other holders.
    fn resize(&mut self, bytes: u64) {
        self.shared.budget.release(self.bytes);
        self.bytes = 0;
        reserve(self.shared, bytes);
        self.bytes = bytes;
    }
}

impl<T: Scalar> Drop for Reservation<'_, T> {
    fn drop(&mut self) {
        self.shared.budget.release(self.bytes);
    }
}

/// The chaos hook's worker panic.
#[expect(clippy::panic, reason = "deliberate fault injection; the containment guard catches it")]
fn inject_panic(job: u64) -> ! {
    panic!("chaos: injected worker panic (job {job})");
}

fn process_job<T: Scalar>(
    shared: &Shared<T>,
    job: &Pending<T>,
    tr: &mut Tracer,
) -> Result<Finished<T>> {
    let (spec, cancel, hooks) = (&job.spec, &job.cancel, &job.hooks);
    let backend = shared.cfg.backend;
    spec.validate(&backend)?;
    // Pickup boundary: a job cancelled before any work reserves nothing.
    JobCtl { cancel: Some(Arc::clone(cancel)), deadline_us: spec.deadline_us, base_us: 0.0 }
        .check(0.0)?;
    let a: EffectiveA<'_, T> = spec.effective_a()?;
    let a = a.as_ref();
    let b = spec.b.as_ref();
    let forecast = estimate_memory(a, b)?;
    let est = forecast.upper_bound();
    let capacity = shared.budget.capacity();

    // Admission. A forecast over the whole budget can never run in one
    // piece: the batched route owns the full budget while it runs (its
    // internal batches stay under it).
    let mut on_batched = est > capacity;
    let reserve_bytes = if on_batched { capacity } else { est };
    shared.metrics.with(|c| {
        if on_batched {
            c.batched += 1;
        } else {
            c.admitted += 1;
        }
    });
    let adm = t_begin(tr, None, "admission");
    t_emit(
        tr,
        None,
        obs::Event::new("reserve")
            .u64("bytes", reserve_bytes)
            .str("route", if on_batched { "batched" } else { "direct" }),
    );
    let mut reservation = Reservation::new(shared, reserve_bytes);
    t_end(tr, None, adm);

    // Deterministic chaos hooks, post-admission: both exercise the
    // reservation-release paths (cooperative cancellation at the next
    // boundary; panic containment through the RAII guard).
    if hooks.cancel_at == Some(CancelPoint::Admitted) {
        cancel.store(true, Ordering::SeqCst);
    }
    if hooks.panic {
        inject_panic(job.id);
    }

    // Retry loop for transient device faults: deterministic exponential
    // backoff charged to *simulated* time (no wall sleeping — byte
    // identical across runs and worker counts).
    let retry_budget = shared.cfg.retry_budget;
    let mut base_us: f64 = 0.0;
    let mut attempt: u32 = 0;
    let dev_result = loop {
        attempt += 1;
        let ctl =
            JobCtl { cancel: Some(Arc::clone(cancel)), deadline_us: spec.deadline_us, base_us };
        // Post-admission boundary: catches cancellation and deadlines
        // that expired during accumulated backoff waits.
        if let Err(e) = ctl.check(0.0) {
            break Err(e);
        }
        // A transient fault is only installed on its first N attempts.
        let faults = match hooks.transient_attempts {
            Some(n) if attempt > n => None,
            _ => spec.faults.as_ref(),
        };
        let canary = hooks.san_canary;
        let attempt_on = |batched: bool, tr: &mut Tracer| {
            let reserve = if batched { capacity } else { est };
            let batched = batched.then_some(&forecast);
            run_attempt(
                shared, &spec.opts, a, b, backend, reserve, batched, faults, canary, &ctl, tr,
            )
        };
        let r = match attempt_on(on_batched, tr) {
            Err(e) if !on_batched && e.recovery() == Recovery::RetrySmallerBatch => {
                // The forecast was admitted but the device still ran out
                // (fault injection, adversarial estimates): retry batched
                // under the full budget. Later attempts stay batched, so
                // this runs at most once per job.
                shared.metrics.with(|c| c.fallback += 1);
                t_emit(tr, None, obs::Event::new("fallback").str("cause", &e.to_string()));
                let adm = t_begin(tr, None, "admission");
                t_emit(
                    tr,
                    None,
                    obs::Event::new("reserve").u64("bytes", capacity).str("route", "fallback"),
                );
                reservation.resize(capacity);
                t_end(tr, None, adm);
                on_batched = true;
                attempt_on(true, tr)
            }
            other => other,
        };
        match r {
            Err(e) if e.recovery() == Recovery::RetryAfterBackoff && attempt <= retry_budget => {
                // Deterministic backoff: exponential in the attempt,
                // seeded sub-`base` jitter, charged against the job's
                // simulated elapsed time (so deadlines see it).
                let exp = BACKOFF_BASE_US << (attempt - 1).min(16);
                let jitter = split_mix64(job.id ^ u64::from(attempt)) % BACKOFF_BASE_US;
                let wait_us = exp + jitter;
                base_us += wait_us as f64;
                shared.metrics.with(|c| c.backoff_retries += 1);
                t_emit(
                    tr,
                    None,
                    obs::Event::new("backoff")
                        .u64("attempt", u64::from(attempt))
                        .u64("wait_us", wait_us),
                );
            }
            other => break other,
        }
    };
    drop(reservation);

    let (matrix, report, route, cache, batched_retries) = dev_result?;
    // Post-run deadline check against the job's whole simulated life
    // (backoff waits + the successful attempt's device time). Cancel is
    // deliberately absent: completed work is delivered.
    JobCtl { cancel: None, deadline_us: spec.deadline_us, base_us }
        .check(report.total_time.us())?;
    Ok(Finished { matrix, report, route, cache, batched_retries, attempts: attempt })
}

// ---- tracer helpers ----
//
// One family for every span and event of a job. `installed` is the
// backend's `telemetry_mut()` while a job attempt has the session
// installed there, `None` when the `TraceBuilder` holds it; either way
// timestamps come from the builder's logical clock, so the sequence is
// a pure function of the code path.

fn t_begin(tr: &mut Tracer, installed: Option<&mut Telemetry>, name: &str) -> Option<PhaseSpan> {
    tr.as_mut()?.begin(installed, name)
}

fn t_end(tr: &mut Tracer, installed: Option<&mut Telemetry>, phase: Option<PhaseSpan>) {
    if let Some(tb) = tr.as_mut() {
        tb.end(installed, phase);
    }
}

fn t_emit(tr: &mut Tracer, installed: Option<&mut Telemetry>, event: obs::Event) {
    if let Some(tb) = tr.as_mut() {
        tb.emit(installed, event);
    }
}

/// Job-end sanitizer gate: run the chaos canary (if armed), take the
/// leak checkpoint, fold activity totals into the engine counters, and
/// fail the job with an `Invariant` error when any violation was
/// recorded. No-op when the sanitizer is off.
fn san_finalize<T: Scalar>(
    shared: &Shared<T>,
    gpu: &mut Gpu,
    canary: Option<SanCanary>,
) -> Result<()> {
    if !gpu.sanitizer_enabled() {
        return Ok(());
    }
    if let Some(canary) = canary {
        canary.violate(gpu);
    }
    gpu.san_leak_check();
    let reports = gpu.san_reports();
    let n = reports.len() as u64;
    let first = reports.first().map(|r| format!("{} at {} ({})", r.kind.label(), r.site, r.detail));
    let stats = gpu.san_stats().unwrap_or_default();
    shared.metrics.with(|c| c.san.absorb(n, stats));
    match first {
        Some(first) => {
            Err(Error::invariant(format!("sanitizer recorded {n} violation(s); first: {first}")))
        }
        None => Ok(()),
    }
}

/// Reserve `bytes`, counting the job as queued when it has to wait.
fn reserve<T: Scalar>(shared: &Shared<T>, bytes: u64) {
    if !shared.budget.try_reserve(bytes) {
        shared.metrics.with(|c| c.queued += 1);
        // `bytes <= capacity` on both call sites, so this cannot fail.
        assert!(shared.budget.reserve_blocking(bytes), "reservation exceeds budget capacity");
    }
}

/// One attempt's product: matrix, report, route, cache outcome and the
/// batched route's budget-halving retries.
type Attempt<T> = (Csr<T>, SpgemmReport, Route, CacheOutcome, u32);

/// One job attempt — the per-attempt session every route and backend
/// shares. `batched` carries the job's admitted forecast on the batched
/// route. Open: a fresh backend capped at the attempt's reservation
/// (`est` direct, the whole budget batched) — on the sim backend a
/// virtual GPU with the sanitizer and the attempt's fault plan, so
/// concurrent jobs cannot exceed the shared budget in aggregate and
/// device state never leaks across jobs; on the host backend an executor
/// with the same capped config (planning never reads its memory size).
/// The job's telemetry session is installed into the backend so engine
/// spans and device events build one tree. Run: [`run_on`]. Close: the
/// session goes back to the tracer on every path, error included; on the
/// sim backend a successful run then passes the sanitizer gate and the
/// leak check.
#[allow(clippy::too_many_arguments)]
fn run_attempt<T: Scalar>(
    shared: &Shared<T>,
    opts: &Options,
    a: &Csr<T>,
    b: &Csr<T>,
    backend: Backend,
    reserve: u64,
    batched: Option<&MemoryEstimate>,
    faults: Option<&FaultPlan>,
    canary: Option<SanCanary>,
    ctl: &JobCtl,
    tr: &mut Tracer,
) -> Result<Attempt<T>> {
    let mut dev = shared.cfg.device.clone();
    dev.device_mem_bytes = reserve.max(1);
    let batch = batched.map(|forecast| (dev.device_mem_bytes, forecast));
    let tel = tr.as_mut().map(TraceBuilder::take_tel);
    let (tel, out) = match backend {
        Backend::Sim => {
            let mut gpu = Gpu::new(dev);
            if shared.cfg.sanitize {
                gpu.enable_sanitizer();
            }
            if let Some(faults) = faults {
                gpu.set_fault_plan(faults.clone());
            }
            if let Some(tel) = tel {
                gpu.set_telemetry(tel);
            }
            let (out, _) = run_on(shared, SimExecutor::new(&mut gpu), a, b, opts, batch, ctl, tr);
            let tel = gpu.take_telemetry();
            let out = out.and_then(|out| {
                san_finalize(shared, &mut gpu, canary)?;
                match gpu.live_mem_bytes() {
                    0 => Ok(out),
                    live => Err(Error::invariant(format!("job leaked {live} B of device memory"))),
                }
            });
            (tel, out)
        }
        Backend::Host { threads } => {
            let mut exec = HostParallelExecutor::with_config(threads, dev);
            if let Some(tel) = tel {
                exec.set_telemetry(tel);
            }
            let (out, mut exec) = run_on(shared, exec, a, b, opts, batch, ctl, tr);
            (exec.take_telemetry(), out)
        }
    };
    if let Some(tb) = tr.as_mut() {
        tb.put_tel(tel);
    }
    out
}

/// Run one attempt on `exec`: direct through the plan cache, or — with
/// a `batch` byte budget and the job's forecast — the row-batched
/// fallback wrapped around it under the job's [`JobCtl`]. Hands `exec`
/// back for the session to close.
#[allow(clippy::too_many_arguments)]
fn run_on<T: Scalar, E: Executor<T>>(
    shared: &Shared<T>,
    mut exec: E,
    a: &Csr<T>,
    b: &Csr<T>,
    opts: &Options,
    batch: Option<(u64, &MemoryEstimate)>,
    ctl: &JobCtl,
    tr: &mut Tracer,
) -> (Result<Attempt<T>>, E) {
    let Some((capacity, forecast)) = batch else {
        return (run_with_cache(shared, &mut exec, a, b, opts, tr), exec);
    };
    let mut batched = BatchedExecutor::new(exec, capacity);
    batched.set_ctl(Some(ctl.clone()));
    let bs = t_begin(tr, batched.inner_mut().telemetry_mut(), "batched");
    let run = batched.multiply_with_forecast(a, b, opts, forecast);
    t_end(tr, batched.inner_mut().telemetry_mut(), bs);
    let retries = batched.retries_used();
    let out = run.map(|r| (r.matrix, r.report, Route::Batched, CacheOutcome::Bypass, retries));
    (out, batched.into_inner())
}

/// The cache-aware direct multiply: hit → numeric phase only, miss →
/// one cold `multiply`, whose record becomes the published plan. Phase
/// spans go through the executor's telemetry — the job session lives
/// inside the backend here.
fn run_with_cache<T: Scalar, E: Executor<T>>(
    shared: &Shared<T>,
    exec: &mut E,
    a: &Csr<T>,
    b: &Csr<T>,
    opts: &Options,
    tr: &mut Tracer,
) -> Result<Attempt<T>> {
    let key = PlanKey::new(a, b, opts);
    if let Some(plan) = shared.cache.lookup(&key) {
        t_emit(tr, exec.telemetry_mut(), obs::Event::new("plan_cache").str("outcome", "hit"));
        let ns = t_begin(tr, exec.telemetry_mut(), "numeric");
        // The matching key already holds both operands' pattern
        // fingerprints, so skip `execute_with`'s second hash of them.
        let run = exec.execute_numeric(plan.plan(), plan.symbolic(), a, b);
        t_end(tr, exec.telemetry_mut(), ns);
        let run = run?;
        return Ok((run.matrix, run.report, Route::Direct, CacheOutcome::Hit, 0));
    }
    t_emit(tr, exec.telemetry_mut(), obs::Event::new("plan_cache").str("outcome", "miss"));
    let ms = t_begin(tr, exec.telemetry_mut(), "multiply");
    let run = exec.multiply(a, b, opts);
    t_end(tr, exec.telemetry_mut(), ms);
    let mut run = run?;
    // Replans only happen while planning cold: a hit replays the
    // already-corrected table sizes, and `Execution::replans` merely
    // echoes the plan's count — so both counters move on miss only.
    let sampled = opts.estimator.is_sampled();
    if sampled {
        t_emit(
            tr,
            exec.telemetry_mut(),
            obs::Event::new("estimate")
                .str("estimator", &opts.estimator.to_string())
                .u64("replanned_rows", run.replans),
        );
    }
    shared.metrics.with(|c| {
        c.symbolic_runs += 1;
        c.sampled_plans += u64::from(sampled);
        c.replanned_rows += run.replans;
    });
    let (fp_a, fp_b) = key.fingerprints();
    let plan = SymbolicPlan::from_run(&mut run, fp_a, fp_b)?;
    shared.cache.insert(key, Arc::new(plan));
    Ok((run.matrix, run.report, Route::Direct, CacheOutcome::Miss, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsparse_core::{multiply, ErrorKind, Options};
    use quickprop::{prop_assert, prop_assert_eq, quickprop, sparse_gen};
    use vgpu::FaultPlan;

    fn rand_mat(n: usize, seed: u64) -> Arc<Csr<f64>> {
        Arc::new(matgen::generators::random_uniform(n, 6.0, 24, seed))
    }

    fn bits(m: &Csr<f64>) -> Vec<u64> {
        m.val().iter().map(|v| v.to_bits()).collect()
    }

    fn reference(a: &Csr<f64>, b: &Csr<f64>) -> Csr<f64> {
        let mut gpu = Gpu::new(DeviceConfig::p100());
        multiply(&mut gpu, a, b, &Options::default()).unwrap().0
    }

    #[test]
    fn jobs_match_standalone_multiply_bitwise() {
        let a = rand_mat(300, 3);
        let b = rand_mat(300, 4);
        let mut eng = Engine::new(EngineConfig { workers: 3, ..EngineConfig::default() });
        let tickets: Vec<_> = (0..6)
            .map(|i| {
                let spec = if i % 2 == 0 {
                    JobSpec::new(Arc::clone(&a), Arc::clone(&b))
                } else {
                    JobSpec::new(Arc::clone(&b), Arc::clone(&a))
                };
                eng.submit(spec)
            })
            .collect();
        let outs: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let c_ab = reference(&a, &b);
        let c_ba = reference(&b, &a);
        for (i, out) in outs.iter().enumerate() {
            let want = if i % 2 == 0 { &c_ab } else { &c_ba };
            assert_eq!(out.matrix.rpt(), want.rpt());
            assert_eq!(out.matrix.col(), want.col());
            assert_eq!(bits(&out.matrix), bits(want));
        }
        let stats = eng.shutdown();
        assert_eq!(stats.jobs, 6);
        assert_eq!(stats.completed, 6);
        assert!(stats.conserved());
        assert!(stats.budget_drained, "budget must drain");
        // Every direct job either hit the cache or planned cold; with
        // concurrent workers the same pattern may plan cold more than
        // once (racing misses), so only the sum is exact.
        assert_eq!(stats.cache.hits + stats.symbolic_runs, 6);
        assert!(stats.symbolic_runs >= 2, "two distinct patterns need at least two cold plans");
    }

    #[test]
    fn stats_and_shutdown_before_any_job_report_zeroes() {
        let eng = Engine::<f64>::new(EngineConfig { workers: 2, ..EngineConfig::default() });
        let stats = eng.stats();
        assert_eq!((stats.jobs, stats.completed), (0, 0));
        assert_eq!(stats.latency.count, 0);
        assert_eq!((stats.latency.p50_us, stats.latency.max_us), (0, 0));
        let stats = eng.shutdown();
        assert_eq!(stats.queue_wait.count, 0);
        assert_eq!(stats.latency.p99_us, 0);
        assert!(stats.conserved());
        assert!(stats.budget_drained);
    }

    #[test]
    fn single_worker_cache_counters_are_exact() {
        let a = rand_mat(180, 17);
        let mut eng = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
        let tickets: Vec<_> =
            (0..5).map(|_| eng.submit(JobSpec::new(Arc::clone(&a), Arc::clone(&a)))).collect();
        let outs: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        assert_eq!(outs[0].cache, CacheOutcome::Miss);
        assert!(outs[1..].iter().all(|o| o.cache == CacheOutcome::Hit));
        let stats = eng.shutdown();
        // One pattern, FIFO worker: exactly one cold plan, four hits.
        assert_eq!(stats.symbolic_runs, 1);
        assert_eq!(stats.cache.hits, 4);
        assert_eq!(stats.cache.misses, 1);
    }

    #[test]
    fn cache_bytes_count_row_arrays_and_structure() {
        // One miss per backend: either plan holds its row pointer plus
        // its structure, 4 B per output entry.
        let a = rand_mat(200, 31);
        let (m, nnz) = (a.rows() as u64, reference(&a, &a).nnz() as u64);
        let want = std::mem::size_of::<usize>() as u64 * (m + 1) + 4 * nnz;
        for backend in [Backend::Host { threads: 2 }, Backend::Sim] {
            let mut eng =
                Engine::new(EngineConfig { workers: 1, backend, ..EngineConfig::default() });
            eng.submit(JobSpec::new(Arc::clone(&a), Arc::clone(&a))).wait().unwrap();
            let stats = eng.shutdown();
            assert_eq!((stats.cache.misses, stats.cache.len), (1, 1), "{backend}");
            assert_eq!(stats.cache.bytes, want, "{backend}");
        }
    }

    #[test]
    fn cold_job_report_equals_standalone_multiply() {
        // One worker, one pattern on the sim backend: the cold job is one
        // `multiply`, so it reports what standalone `multiply` reports on
        // a fresh P100; the hit replays its plan's numeric phase only.
        let a = rand_mat(240, 29);
        let mut eng = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
        let tickets: Vec<_> =
            (0..2).map(|_| eng.submit(JobSpec::new(Arc::clone(&a), Arc::clone(&a)))).collect();
        let outs: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let (cold, hit) = (&outs[0].report, &outs[1].report);
        assert_eq!((outs[0].cache, outs[1].cache), (CacheOutcome::Miss, CacheOutcome::Hit));
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let want = multiply(&mut gpu, &a, &a, &Options::default()).unwrap().1;
        assert_eq!(cold.total_time.secs().to_bits(), want.total_time.secs().to_bits());
        assert_eq!(cold.phase_times, want.phase_times);
        assert_eq!(cold.hash_probes, want.hash_probes);
        assert_eq!(cold.peak_mem_bytes, want.peak_mem_bytes);
        assert_eq!(hit.phase_time(vgpu::Phase::Setup), vgpu::SimTime::ZERO);
        eng.shutdown();
    }

    #[test]
    fn tiny_budget_routes_through_batched_and_drains() {
        let a = rand_mat(200, 9);
        let mut eng = Engine::new(EngineConfig {
            workers: 2,
            budget_bytes: Some(64 * 1024),
            ..EngineConfig::default()
        });
        let t1 = eng.submit(JobSpec::new(Arc::clone(&a), Arc::clone(&a)));
        let t2 = eng.submit(JobSpec::new(Arc::clone(&a), Arc::clone(&a)));
        let o1 = t1.wait().unwrap();
        let o2 = t2.wait().unwrap();
        assert_eq!(o1.route, Route::Batched);
        assert_eq!(o1.cache, CacheOutcome::Bypass);
        let want = reference(&a, &a);
        assert_eq!(bits(&o1.matrix), bits(&want));
        assert_eq!(bits(&o2.matrix), bits(&want));
        let stats = eng.shutdown();
        assert_eq!(stats.batched, 2);
        assert!(stats.budget_drained);
    }

    #[test]
    fn injected_oom_falls_back_to_batched_with_identical_output() {
        let a = rand_mat(250, 21);
        let mut eng = Engine::new(EngineConfig::default());
        let faults = FaultPlan::parse("seed=5;malloc-oom=1").unwrap();
        let t = eng.submit(JobSpec::new(Arc::clone(&a), Arc::clone(&a)).with_faults(faults));
        let out = t.wait().unwrap();
        assert_eq!(out.route, Route::Batched);
        assert_eq!(bits(&out.matrix), bits(&reference(&a, &a)));
        let stats = eng.shutdown();
        assert_eq!(stats.fallback, 1);
        assert!(stats.budget_drained);
    }

    /// `m` with flaw `flaw` planted in the first row that can hold it:
    /// 0 a column past the last, 1 an unsorted row, 2 a duplicate
    /// column, 3 a row pointer that overshoots nnz and falls back. Built
    /// through `Csr::from_parts_unchecked`, which checks only the row
    /// pointer's ends — and, in debug builds, the whole structure, so
    /// there no flawed matrix can be built (`None`).
    fn flawed(m: &Csr<f64>, flaw: usize) -> Option<Csr<f64>> {
        if cfg!(debug_assertions) {
            return None;
        }
        let (mut rpt, mut col) = (m.rpt().to_vec(), m.col().to_vec());
        // Offset of the first row holding two entries.
        let pair = (0..m.rows()).find(|&r| m.row_nnz(r) >= 2).map(|r| m.rpt()[r]);
        match flaw {
            0 => *col.last_mut()? = u32::try_from(m.cols()).ok()?,
            1 => col.swap(pair?, pair? + 1),
            2 => col[pair? + 1] = col[pair?],
            _ => rpt[1] = col.len() + 1,
        }
        #[expect(clippy::disallowed_methods, reason = "plants a malformed structure on purpose")]
        let flawed = Csr::from_parts_unchecked(m.rows(), m.cols(), rpt, col, m.val().to_vec());
        flawed.ok()
    }

    quickprop! {
        #![config(cases = 48)]

        /// Hostile `JobSpec`s at the trust boundary: mismatched shapes,
        /// row windows drawn from `0..rows + 8` (reversed ones included),
        /// flawed structures and faults on the host backend. A valid job
        /// equals standalone `multiply` bitwise; every other one fails
        /// with a planning error, never a panic, and the engine still
        /// conserves its outcomes and drains its budget.
        #[test]
        fn invalid_jobs_fail_with_planning_errors_not_panics(
            (mut a, mut b) in sparse_gen::csr_chain(24, 96),
            mismatch in 0usize..4,
            (windowed, lo, hi) in (0usize..3, 0usize..64, 0usize..64),
            (flaw, on_b) in (0usize..8, 0usize..2),
            (on_host, faults) in (0usize..2, 0usize..2),
        ) {
            // One job in four gets a `B` with a row too many.
            if mismatch == 0 {
                b = Csr::zeros(b.rows() + 1, b.cols());
            }
            let target = if on_b == 1 { &mut b } else { &mut a };
            let planted = match flaw {
                0..=3 => flawed(target, flaw).map(|m| *target = m).is_some(),
                _ => false,
            };
            let rows = (windowed > 0).then(|| lo % (a.rows() + 8)..hi % (a.rows() + 8));
            let faults = on_host == 1 && faults == 1;
            let mut spec = JobSpec::new(Arc::new(a.clone()), Arc::new(b.clone()));
            if let Some(r) = rows.clone() {
                spec = spec.with_rows(r);
            }
            if faults {
                spec = spec.with_faults(FaultPlan::parse("seed=1;malloc-oom=1").unwrap());
            }
            let valid = !planted
                && a.cols() == b.rows()
                && rows.as_ref().is_none_or(|r| r.start <= r.end && r.end <= a.rows())
                && !faults;
            let backend = if on_host == 1 { Backend::Host { threads: 2 } } else { Backend::Sim };
            let mut eng = Engine::new(EngineConfig { workers: 1, backend, ..EngineConfig::default() });
            let result = eng.submit(spec).wait();
            let stats = eng.shutdown();
            prop_assert!(stats.conserved(), "outcomes not conserved");
            prop_assert!(stats.budget_drained, "budget not drained");
            match result {
                Ok(out) => {
                    prop_assert!(valid, "an invalid job completed");
                    let a = rows.map_or(a.clone(), |r| a.slice_rows(r));
                    let want = reference(&a, &b);
                    prop_assert_eq!(out.matrix.rpt(), want.rpt());
                    prop_assert_eq!(out.matrix.col(), want.col());
                    prop_assert_eq!(bits(&out.matrix), bits(&want));
                }
                Err(e) => {
                    prop_assert_eq!(e.kind(), ErrorKind::Planning, "{e}");
                    prop_assert!(!valid, "a valid job failed: {e}");
                }
            }
        }
    }

    #[test]
    fn host_backend_matches_sim_bitwise() {
        let a = rand_mat(220, 13);
        // One worker so the second job deterministically hits the cache.
        let mut eng = Engine::new(EngineConfig {
            workers: 1,
            backend: Backend::Host { threads: 2 },
            ..EngineConfig::default()
        });
        let t1 = eng.submit(JobSpec::new(Arc::clone(&a), Arc::clone(&a)));
        let t2 = eng.submit(JobSpec::new(Arc::clone(&a), Arc::clone(&a)));
        let o1 = t1.wait().unwrap();
        let o2 = t2.wait().unwrap();
        let want = reference(&a, &a);
        assert_eq!(bits(&o1.matrix), bits(&want));
        assert_eq!(bits(&o2.matrix), bits(&want));
        let stats = eng.shutdown();
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.symbolic_runs, 1);
        assert!(stats.budget_drained);
    }

    #[test]
    fn sampled_estimator_jobs_match_exact_bitwise_and_count() {
        use nsparse_core::Estimator;
        let a = rand_mat(260, 29);
        let sampled = Options { estimator: Estimator::sampled(), ..Options::default() };
        // One worker: job 2 must deterministically hit job 1's plan.
        let mut eng = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
        let t1 =
            eng.submit(JobSpec::new(Arc::clone(&a), Arc::clone(&a)).with_opts(sampled.clone()));
        let t2 = eng.submit(JobSpec::new(Arc::clone(&a), Arc::clone(&a)).with_opts(sampled));
        let o1 = t1.wait().unwrap();
        let o2 = t2.wait().unwrap();
        assert_eq!(o1.cache, CacheOutcome::Miss);
        assert_eq!(o2.cache, CacheOutcome::Hit);
        // The estimator only changes planning cost, never the product.
        let want = reference(&a, &a);
        assert_eq!(bits(&o1.matrix), bits(&want));
        assert_eq!(bits(&o2.matrix), bits(&want));
        let stats = eng.shutdown();
        assert_eq!(stats.sampled_plans, 1, "one cold sampled plan, one hit");
        assert!(stats.budget_drained);
    }

    // ---- DESIGN.md §17: hostile-load hardening ----

    #[test]
    fn bounded_queue_sheds_deterministically_when_paused() {
        let a = rand_mat(120, 7);
        let mut eng = Engine::new_paused(EngineConfig {
            workers: 2,
            max_queue_depth: 2,
            ..EngineConfig::default()
        });
        // Paused workers: exactly the submissions past the depth shed.
        let tickets: Vec<_> =
            (0..5).map(|_| eng.submit(JobSpec::new(Arc::clone(&a), Arc::clone(&a)))).collect();
        eng.resume();
        let mut shed = 0;
        for (i, t) in tickets.into_iter().enumerate() {
            match t.wait() {
                Ok(out) => assert_eq!(bits(&out.matrix), bits(&reference(&a, &a))),
                Err(e) => {
                    shed += 1;
                    assert!(i >= 2, "only overflow submissions may shed");
                    assert_eq!(e.kind(), ErrorKind::Rejected);
                    assert_eq!(e.recovery(), Recovery::Resubmit);
                    assert!(e.to_string().contains("queue full"));
                }
            }
        }
        assert_eq!(shed, 3);
        let stats = eng.shutdown();
        assert_eq!(stats.shed, 3);
        assert_eq!(stats.completed, 2);
        assert!(stats.conserved());
        assert!(stats.budget_drained, "shed jobs must not leak budget");
    }

    #[test]
    fn cooperative_cancellation_classifies_and_drains() {
        let a = rand_mat(150, 11);
        let mut eng = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
        let cancel_at = |point| Hooks { cancel_at: Some(point), ..Hooks::default() };
        let t1 = eng.submit_with(
            JobSpec::new(Arc::clone(&a), Arc::clone(&a)),
            cancel_at(CancelPoint::Pickup),
        );
        let t2 = eng.submit_with(
            JobSpec::new(Arc::clone(&a), Arc::clone(&a)),
            cancel_at(CancelPoint::Admitted),
        );
        let t3 = eng.submit(JobSpec::new(Arc::clone(&a), Arc::clone(&a)));
        assert_eq!(t1.wait().unwrap_err().kind(), ErrorKind::Cancelled);
        assert_eq!(t2.wait().unwrap_err().kind(), ErrorKind::Cancelled);
        assert_eq!(bits(&t3.wait().unwrap().matrix), bits(&reference(&a, &a)));
        let stats = eng.shutdown();
        assert_eq!(stats.cancelled, 2);
        assert_eq!(stats.completed, 1);
        assert!(stats.conserved());
        assert!(stats.budget_drained, "cancelled jobs must release their reservations");
    }

    #[test]
    fn ticket_cancel_reaches_a_queued_job() {
        let a = rand_mat(140, 23);
        let mut eng = Engine::new_paused(EngineConfig { workers: 1, ..EngineConfig::default() });
        let t = eng.submit(JobSpec::new(Arc::clone(&a), Arc::clone(&a)));
        t.cancel();
        eng.resume();
        assert_eq!(t.wait().unwrap_err().kind(), ErrorKind::Cancelled);
        let stats = eng.shutdown();
        assert_eq!(stats.cancelled, 1);
        assert!(stats.budget_drained);
    }

    #[test]
    fn deadlines_expire_on_the_simulated_clock() {
        let a = rand_mat(200, 31);
        let mut eng = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
        // 1 µs of simulated time: any real multiply exceeds it, on the
        // cold-plan path and the cache-hit path alike.
        let t1 = eng.submit(JobSpec::new(Arc::clone(&a), Arc::clone(&a)).with_deadline_us(1));
        let t2 = eng.submit(JobSpec::new(Arc::clone(&a), Arc::clone(&a)));
        let t3 = eng.submit(JobSpec::new(Arc::clone(&a), Arc::clone(&a)).with_deadline_us(1));
        let t4 = eng
            .submit(JobSpec::new(Arc::clone(&a), Arc::clone(&a)).with_deadline_us(1_000_000_000));
        let e1 = t1.wait().unwrap_err();
        assert_eq!(e1.kind(), ErrorKind::Deadline);
        assert!(e1.to_string().contains("deadline exceeded"));
        t2.wait().unwrap();
        assert_eq!(t3.wait().unwrap_err().kind(), ErrorKind::Deadline, "hit path expires too");
        t4.wait().unwrap();
        let stats = eng.shutdown();
        assert_eq!(stats.deadline_exceeded, 2);
        assert_eq!(stats.completed, 2);
        assert!(stats.conserved());
        assert!(stats.budget_drained, "expired jobs must release their reservations");
    }

    #[test]
    fn transient_faults_retry_with_deterministic_backoff() {
        let a = rand_mat(180, 41);
        let faults = FaultPlan::parse("seed=7;kernel-fail=grouping").unwrap();
        let mut eng =
            Engine::new(EngineConfig { workers: 1, retry_budget: 2, ..EngineConfig::default() });
        // Transient: the fault is only installed on attempt 1.
        let t = eng.submit_with(
            JobSpec::new(Arc::clone(&a), Arc::clone(&a)).with_faults(faults.clone()),
            Hooks { transient_attempts: Some(1), ..Hooks::default() },
        );
        let out = t.wait().unwrap();
        assert_eq!(out.attempts, 2, "attempt 1 faults, attempt 2 runs clean");
        assert_eq!(bits(&out.matrix), bits(&reference(&a, &a)));
        // Persistent: replays identically every attempt and exhausts
        // the budget with a non-fatal kernel classification.
        let t = eng.submit(JobSpec::new(Arc::clone(&a), Arc::clone(&a)).with_faults(faults));
        let err = t.wait().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Kernel);
        assert_eq!(err.recovery(), Recovery::RetryAfterBackoff);
        let stats = eng.shutdown();
        assert_eq!(stats.backoff_retries, 1 + 2, "one transient retry + two exhausted retries");
        assert_eq!(stats.failed, 1);
        assert!(stats.conserved());
        assert!(stats.budget_drained);
    }

    #[test]
    fn worker_panic_is_contained_and_the_pool_survives() {
        let a = rand_mat(130, 71);
        let mut eng =
            Engine::new(EngineConfig { workers: 1, trace: true, ..EngineConfig::default() });
        let flight = eng.flight();
        let t1 = eng.submit_with(
            JobSpec::new(Arc::clone(&a), Arc::clone(&a)),
            Hooks { panic: true, ..Hooks::default() },
        );
        let err = t1.wait().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Panic);
        assert!(err.to_string().contains("chaos: injected worker panic"));
        // The same worker keeps serving.
        let t2 = eng.submit(JobSpec::new(Arc::clone(&a), Arc::clone(&a)));
        assert_eq!(bits(&t2.wait().unwrap().matrix), bits(&reference(&a, &a)));
        let stats = eng.shutdown();
        assert_eq!(stats.panicked_jobs, 1);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
        assert!(stats.conserved());
        assert!(stats.budget_drained, "the RAII guard must release the panicked reservation");
        let trigger = flight.triggered().expect("a contained panic trips the recorder");
        assert!(trigger.contains("worker panic"), "{trigger}");
        assert!(flight.dump(&stats).contains("\"trigger\""));
    }
}
