//! Per-job trace assembly and the engine flight recorder (DESIGN.md
//! §15).
//!
//! A traced job owns one [`obs::Telemetry`] session for its whole life:
//! the worker opens the root `job` span at pickup, the engine opens
//! phase spans (`queue_wait`, `admission`, `multiply`, `numeric`,
//! `batched`) around its routing decisions, and the session is
//! *installed into the backend* for each job attempt — taken from the
//! [`TraceBuilder`] when the attempt opens and put back when it closes,
//! each in exactly one place — so device events and engine spans share
//! one span-id space and reassemble into a single causal tree per job.
//!
//! # Two clock domains, one tree
//!
//! Engine phases carry a per-job **logical sequence clock** (0, 1, 2, …
//! in `t_us`): wall-clock durations of queue waits and retries are
//! scheduling-dependent and would break the byte-identical-dump
//! guarantee, so they live only in aggregate metrics
//! (`engine.queue_wait_us`), never in traces. Device events keep their
//! **simulated microseconds** (each job runs a fresh device starting at
//! 0, so those are deterministic too). The tree's nesting invariant is
//! therefore *structural* — a child's span id is greater than its
//! parent's, and its `span` event precedes the parent's in the log —
//! not an interval containment over timestamps, which would be
//! meaningless across the two domains.

use crate::engine::EngineStats;
use obs::{Event, EventLog, SpanId, Telemetry, Value};
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Handle for a phase span opened by [`TraceBuilder::begin`]: the span
/// plus the ambient parent to restore when it ends.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSpan {
    /// The opened span.
    pub span: SpanId,
    /// The ambient parent that was active before `begin`.
    pub prev: Option<SpanId>,
}

/// Builds one job's span tree. Holds the job's telemetry session except
/// while it is installed into a backend (`take_tel`/`put_tel`), and owns
/// the job's logical sequence clock — which keeps ticking even while the
/// session is installed, so span timestamps are a pure function of the
/// code path taken. One family of span/event methods (`begin`, `end`,
/// `emit`) serves both places the session can be: each takes the
/// backend's session while it is installed there, `None` otherwise.
#[derive(Debug)]
pub struct TraceBuilder {
    job: u64,
    tel: Option<Telemetry>,
    root: SpanId,
    seq: u64,
}

impl TraceBuilder {
    /// Open the root `job` span and emit the `submit` marker.
    pub fn new(job: u64) -> Self {
        let mut tel = Telemetry::new();
        let root = tel.span_begin("job", 0.0);
        tel.set_parent(Some(root));
        // No `job` field on the marker: `JobTrace::to_jsonl` splices a
        // `"job":N` prefix into every line of the finished trace.
        let mut tb = TraceBuilder { job, tel: Some(tel), root, seq: 1 };
        tb.emit(None, Event::new("submit"));
        tb
    }

    /// Next logical timestamp (ticks whether or not the session is
    /// currently held, so timestamps depend only on the code path).
    fn tick(&mut self) -> f64 {
        let t = self.seq;
        self.seq += 1;
        t as f64
    }

    /// Record an event in the job's session wherever it lives:
    /// `installed` (the backend's `telemetry_mut()`) while the session is
    /// installed into a backend, `None` while the builder holds it.
    pub fn emit(&mut self, installed: Option<&mut Telemetry>, event: Event) {
        if let Some(t) = installed.or(self.tel.as_mut()) {
            t.emit(event);
        }
    }

    /// Open a phase span in the job's session wherever it lives (see
    /// [`TraceBuilder::emit`]), stamped with the builder's logical clock,
    /// and make it the ambient parent.
    pub fn begin(&mut self, installed: Option<&mut Telemetry>, name: &str) -> Option<PhaseSpan> {
        let t_us = self.tick();
        let t = installed.or(self.tel.as_mut())?;
        let span = t.span_begin(name, t_us);
        Some(PhaseSpan { span, prev: t.set_parent(Some(span)) })
    }

    /// Close a phase span opened by [`TraceBuilder::begin`] and restore
    /// the previous ambient parent.
    pub fn end(&mut self, installed: Option<&mut Telemetry>, phase: Option<PhaseSpan>) {
        let t_us = self.tick();
        if let (Some(p), Some(t)) = (phase, installed.or(self.tel.as_mut())) {
            t.set_parent(p.prev);
            t.span_end(p.span, t_us);
        }
    }

    /// Detach the session for installation into a backend. The engine
    /// does this in exactly one place — when it opens a job attempt's
    /// backend — and `put_tel`s it back in exactly one place when the
    /// attempt closes, on every path, error included. In between, spans
    /// and events reach it through the `installed` argument.
    pub fn take_tel(&mut self) -> Telemetry {
        self.tel.take().unwrap_or_default()
    }

    /// Reattach a session retrieved from a backend.
    pub fn put_tel(&mut self, tel: Option<Telemetry>) {
        if let Some(t) = tel {
            self.tel = Some(t);
        }
    }

    /// Finish the trace: emit the `outcome` event (`complete`, or
    /// `failed` with the error), close the root span, and package the
    /// event log for the flight recorder.
    pub fn finish(mut self, error: Option<&str>) -> JobTrace {
        let outcome = match error {
            None => "complete".to_string(),
            Some(e) => format!("failed: {e}"),
        };
        let mut event = Event::new("outcome")
            .str("status", if error.is_some() { "failed" } else { "complete" });
        if let Some(e) = error {
            event = event.str("error", e);
        }
        self.emit(None, event);
        let t_us = self.tick();
        let events = match self.tel.take() {
            Some(mut t) => {
                t.set_parent(None);
                t.span_end(self.root, t_us);
                debug_assert_eq!(t.open_span_count(), 0, "job trace leaked open spans");
                t.events
            }
            None => EventLog::new(),
        };
        JobTrace { job: self.job, outcome, events }
    }
}

/// One finished job's span tree, ready for the flight-recorder ring.
#[derive(Debug, Clone)]
pub struct JobTrace {
    /// Submission-order job id.
    pub job: u64,
    /// `complete`, or `failed: <error>`.
    pub outcome: String,
    /// The job's full event log (engine spans + device events).
    pub events: EventLog,
}

impl JobTrace {
    /// The trace as JSON Lines with a `"job"` field spliced first into
    /// every object, so a multi-job dump stays greppable per job.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.events.events() {
            let json = e.to_json();
            let body = json.strip_prefix('{').unwrap_or(&json);
            out.push_str(&format!("{{\"job\":{},{}", self.job, body));
            out.push('\n');
        }
        out
    }
}

struct Inner {
    ring: VecDeque<JobTrace>,
    trigger: Option<String>,
    /// The dump snapshotted when the first trigger fired (counter
    /// deltas as of that moment), served verbatim afterwards.
    captured: Option<String>,
}

/// Bounded ring of recent job traces plus the trigger that tripped it.
///
/// Workers record every traced job; the first non-retryable failure (or
/// a budget leak detected at shutdown) *triggers* the recorder, which
/// snapshots a dump of the ring and counters as of that moment. With no
/// trigger, [`FlightRecorder::dump`] renders the current ring on demand
/// (`spgemm serve --trace-jobs`).
pub struct FlightRecorder {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl FlightRecorder {
    /// Ring of at most `capacity` traces (oldest evicted first).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner { ring: VecDeque::new(), trigger: None, captured: None }),
        }
    }

    /// Lock the ring, recovering from a panicked holder — the flight
    /// recorder exists *for* failure forensics, so it must keep working
    /// after a contained worker panic (DESIGN.md §17).
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record a finished job's trace.
    pub fn record(&self, trace: JobTrace) {
        let mut g = self.lock();
        if g.ring.len() == self.capacity {
            g.ring.pop_front();
        }
        g.ring.push_back(trace);
    }

    /// Trip the recorder (first trigger wins), snapshotting a dump with
    /// the counter state at this moment.
    pub fn trigger(&self, reason: &str, stats: &EngineStats) {
        let mut g = self.lock();
        if g.trigger.is_none() {
            g.trigger = Some(reason.to_string());
            g.captured = Some(render_dump(&g.ring, stats, Some(reason)));
        }
    }

    /// Why the recorder tripped, if it did.
    pub fn triggered(&self) -> Option<String> {
        self.lock().trigger.clone()
    }

    /// The dump: the trigger-time snapshot when one was captured,
    /// otherwise the current ring rendered with `stats`. One header
    /// line (schedule-independent counters only — single-worker runs
    /// are byte-deterministic end to end), then every job's trace in
    /// job-id order.
    pub fn dump(&self, stats: &EngineStats) -> String {
        let g = self.lock();
        match &g.captured {
            Some(d) => d.clone(),
            None => render_dump(&g.ring, stats, g.trigger.as_deref()),
        }
    }

    /// The ring's span events as a Chrome trace-event array (one `pid`
    /// per job; load at chrome://tracing or ui.perfetto.dev).
    pub fn chrome(&self) -> String {
        let g = self.lock();
        let mut traces: Vec<&JobTrace> = g.ring.iter().collect();
        traces.sort_by_key(|t| t.job);
        let us = |e: &Event, key: &str| match e.field(key) {
            Some(Value::F64(v)) => *v,
            _ => 0.0,
        };
        let mut trace = obs::chrome::Trace::default();
        for t in traces {
            for e in t.events.events().iter().filter(|e| e.kind() == "span") {
                let Some(Value::Str(name)) = e.field("name") else { continue };
                trace.span(&obs::chrome::Span {
                    name,
                    cat: None,
                    ts_us: us(e, "t_us"),
                    dur_us: us(e, "dur_us"),
                    pid: t.job,
                    tid: 0,
                    args: &[],
                });
            }
        }
        trace.finish()
    }
}

fn render_dump(ring: &VecDeque<JobTrace>, stats: &EngineStats, trigger: Option<&str>) -> String {
    let mut header = Event::new("flight")
        .u64("jobs", stats.jobs)
        .u64("admitted", stats.admitted)
        .u64("batched", stats.batched)
        .u64("fallback", stats.fallback)
        .u64("failed", stats.failed)
        .u64("shed", stats.shed)
        .u64("cancelled", stats.cancelled)
        .u64("deadline_exceeded", stats.deadline_exceeded)
        .u64("panicked_jobs", stats.panicked_jobs)
        .u64("budget_capacity_bytes", stats.budget_capacity);
    if let Some(t) = trigger {
        header = header.str("trigger", t);
    }
    let mut out = header.to_json();
    out.push('\n');
    let mut traces: Vec<&JobTrace> = ring.iter().collect();
    traces.sort_by_key(|t| t.job);
    for t in traces {
        out.push_str(&t.to_jsonl());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> EngineStats {
        EngineStats {
            jobs: 2,
            admitted: 1,
            batched: 1,
            completed: 2,
            symbolic_runs: 1,
            budget_capacity: 1024,
            budget_peak: 512,
            budget_drained: true,
            ..EngineStats::default()
        }
    }

    fn sample_trace(job: u64) -> JobTrace {
        let mut tb = TraceBuilder::new(job);
        let q = tb.begin(None, "queue_wait");
        tb.end(None, q);
        let n = tb.begin(None, "numeric");
        tb.emit(None, Event::new("alloc").u64("bytes", 64));
        tb.end(None, n);
        tb.finish(None)
    }

    #[test]
    fn trace_builder_produces_a_closed_parented_tree() {
        let t = sample_trace(7);
        assert_eq!(t.outcome, "complete");
        let jsonl = t.to_jsonl();
        for line in jsonl.lines() {
            obs::json::validate(line).unwrap();
            assert!(line.starts_with("{\"job\":7,"), "{line}");
        }
        // Root span id 0; phases and the alloc event parent under it.
        assert!(jsonl.contains("\"name\":\"job\",\"id\":0"));
        assert!(jsonl.contains("\"name\":\"queue_wait\",\"id\":1,\"parent\":0"));
        assert!(jsonl.contains("\"kind\":\"alloc\",\"bytes\":64,\"parent\":2"));
    }

    #[test]
    fn failed_traces_carry_the_error() {
        let tb = TraceBuilder::new(3);
        let t = tb.finish(Some("device OOM"));
        assert_eq!(t.outcome, "failed: device OOM");
        assert!(t.to_jsonl().contains("\"status\":\"failed\",\"error\":\"device OOM\""));
    }

    #[test]
    fn ring_is_bounded_and_dump_is_job_ordered() {
        let rec = FlightRecorder::new(2);
        rec.record(sample_trace(5));
        rec.record(sample_trace(1));
        rec.record(sample_trace(9)); // evicts job 5
        let dump = rec.dump(&stats());
        let lines: Vec<&str> = dump.lines().collect();
        assert!(lines[0].starts_with("{\"kind\":\"flight\",\"jobs\":2,"));
        let first_job1 = dump.find("{\"job\":1,").unwrap();
        let first_job9 = dump.find("{\"job\":9,").unwrap();
        assert!(dump.find("{\"job\":5,").is_none(), "oldest trace must be evicted");
        assert!(first_job1 < first_job9, "dump must be job-ordered");
        for line in lines {
            obs::json::validate(line).unwrap();
        }
    }

    #[test]
    fn trigger_snapshots_the_dump_once() {
        let rec = FlightRecorder::new(8);
        rec.record(sample_trace(0));
        rec.trigger("fatal: boom", &stats());
        rec.trigger("second (ignored)", &stats());
        rec.record(sample_trace(1)); // after the trigger: not in the snapshot
        assert_eq!(rec.triggered().as_deref(), Some("fatal: boom"));
        let dump = rec.dump(&stats());
        assert!(dump.contains("\"trigger\":\"fatal: boom\""));
        assert!(!dump.contains("{\"job\":1,"));
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let rec = FlightRecorder::new(4);
        rec.record(sample_trace(2));
        let chrome = rec.chrome();
        obs::json::validate(&chrome).unwrap();
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"pid\":2"));
    }
}
