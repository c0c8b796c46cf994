//! `obs` — the workspace's structured run-telemetry substrate.
//!
//! The paper explains its results (Figures 4–6, Table I) through
//! quantities no coarse timer exposes: hash probe-length distributions,
//! per-group row occupancy, allocation high-water timelines, per-stream
//! utilization. This crate is the measurement layer those analyses stand
//! on — fully hermetic (no external dependencies) and deterministic, so
//! telemetry captured from the simulated device is bit-reproducible.
//!
//! Three building blocks:
//!
//! * [`hist::Log2Histogram`] — fixed power-of-two bucket histograms, the
//!   shape every distribution here uses (probe chains, row sizes);
//! * [`metrics::Registry`] — named histograms with deterministic
//!   (sorted) iteration order;
//! * [`Telemetry`] — a capture session: the registry plus a structured
//!   [`event::EventLog`] that serializes to JSON Lines, and a scoped
//!   span API (`span_begin`/`span_end`) for interval attribution.
//!
//! [`json`] holds the escaping and the minimal well-formedness validator
//! the trace CLI and CI smoke tests use — again so no external JSON
//! crate is needed — and [`chrome`] the one Chrome trace-event writer.
//!
//! Everything is designed around one rule: **when telemetry is off,
//! nothing in this crate runs.** Producers hold an `Option<Telemetry>`
//! and skip all capture when it is `None`, so the uninstrumented path
//! pays nothing.

pub mod chrome;
pub mod event;
pub mod hist;
pub mod json;
pub mod metrics;

pub use event::{Event, EventLog, Value};
pub use hist::Log2Histogram;
pub use metrics::Registry;

/// One telemetry capture session: metrics plus the event log.
///
/// Owned by the producer (the virtual GPU) and only present when the
/// caller opted in, so the disabled path carries no cost.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Named histograms.
    pub registry: Registry,
    /// Structured events in emission order (JSONL export).
    pub events: EventLog,
    open_spans: Vec<OpenSpan>,
    next_span: u64,
    parent: Option<u64>,
}

/// Handle to a span opened with [`Telemetry::span_begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

#[derive(Debug, Clone)]
struct OpenSpan {
    id: u64,
    name: String,
    start_us: f64,
    parent: Option<u64>,
}

impl Telemetry {
    /// Fresh, empty session.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a structured event. When a parent span context is set
    /// ([`Telemetry::set_parent`]), a `parent` field carrying that span's
    /// id is appended, so device events land under the phase that issued
    /// them in the reconstructed span tree.
    pub fn emit(&mut self, event: Event) {
        let event = match self.parent {
            Some(p) if event.field("parent").is_none() => event.u64("parent", p),
            _ => event,
        };
        self.events.push(event);
    }

    /// Open a named span at simulated time `t_us` (microseconds),
    /// parented under the current context span (if any). Close it with
    /// [`Telemetry::span_end`]; nesting and interleaving are allowed
    /// (spans are matched by id, not by a stack).
    pub fn span_begin(&mut self, name: &str, t_us: f64) -> SpanId {
        let id = self.next_span;
        self.next_span += 1;
        self.open_spans.push(OpenSpan {
            id,
            name: name.to_string(),
            start_us: t_us,
            parent: self.parent,
        });
        SpanId(id)
    }

    /// Close a span at time `t_us`, emitting its `span` event (with the
    /// span's `id` and, when parented, its `parent` id). Unknown ids are
    /// ignored (a span may have been dropped by a reset).
    pub fn span_end(&mut self, span: SpanId, t_us: f64) {
        if let Some(pos) = self.open_spans.iter().position(|s| s.id == span.0) {
            let s = self.open_spans.remove(pos);
            let mut e = Event::new("span").str("name", &s.name).u64("id", s.id);
            if let Some(p) = s.parent {
                e = e.u64("parent", p);
            }
            // Push directly: the span's parent was fixed at begin time,
            // not by whatever context is ambient at end time.
            self.events.push(e.f64("t_us", s.start_us).f64("dur_us", t_us - s.start_us));
        }
    }

    /// Set the parent span new spans and events attach under; returns
    /// the previous context so callers can restore it (scoped use).
    pub fn set_parent(&mut self, parent: Option<SpanId>) -> Option<SpanId> {
        std::mem::replace(&mut self.parent, parent.map(|s| s.0)).map(SpanId)
    }

    /// Spans begun but not yet ended — 0 after a well-formed capture
    /// (every `span_begin` matched by a `span_end`).
    pub fn open_span_count(&self) -> usize {
        self.open_spans.len()
    }

    /// The whole event log as JSON Lines (one event per line,
    /// deterministic field order, trailing newline when non-empty).
    pub fn to_jsonl(&self) -> String {
        self.events.to_jsonl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_emit_duration_events() {
        let mut t = Telemetry::new();
        let a = t.span_begin("count", 10.0);
        let b = t.span_begin("inner", 12.0);
        t.span_end(b, 14.0);
        t.span_end(a, 20.0);
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"inner\""));
        assert!(lines[0].contains("\"dur_us\":2"));
        assert!(lines[1].contains("\"name\":\"count\""));
        assert!(lines[1].contains("\"dur_us\":10"));
    }

    #[test]
    fn spans_and_events_parent_under_the_context_span() {
        let mut t = Telemetry::new();
        let root = t.span_begin("job", 0.0);
        let prev = t.set_parent(Some(root));
        assert_eq!(prev, None);
        let child = t.span_begin("numeric", 1.0);
        t.set_parent(Some(child));
        t.emit(Event::new("alloc").u64("bytes", 64));
        t.set_parent(Some(root));
        t.span_end(child, 2.0);
        t.set_parent(None);
        t.span_end(root, 3.0);
        let text = t.to_jsonl();
        let lines: Vec<&str> = text.lines().map(str::trim).collect::<Vec<_>>();
        // The alloc event carries the numeric span's id as parent.
        assert!(lines[0].contains(&format!("\"parent\":{}", child.0)), "{}", lines[0]);
        // The numeric span is parented under the root; the root has no
        // parent field (it was begun with no context set).
        assert!(lines[1].contains(&format!("\"id\":{}", child.0)));
        assert!(lines[1].contains(&format!("\"parent\":{}", root.0)));
        assert!(lines[2].contains(&format!("\"id\":{}", root.0)));
        assert!(!lines[2].contains("\"parent\""));
        assert_eq!(t.open_span_count(), 0);
        for line in &lines {
            json::validate(line).unwrap();
        }
    }

    #[test]
    fn span_parent_is_fixed_at_begin_not_end() {
        let mut t = Telemetry::new();
        let a = t.span_begin("a", 0.0);
        t.set_parent(Some(a));
        let b = t.span_begin("b", 1.0);
        // Even with a different ambient context at end time, b's parent
        // stays a.
        t.set_parent(None);
        t.span_end(b, 2.0);
        let jsonl = t.to_jsonl();
        assert!(jsonl.contains(&format!("\"parent\":{}", a.0)));
        assert_eq!(t.open_span_count(), 1);
    }

    #[test]
    fn unknown_span_end_is_ignored() {
        let mut t = Telemetry::new();
        t.span_end(SpanId(42), 1.0);
        assert!(t.to_jsonl().is_empty());
    }

    #[test]
    fn jsonl_lines_are_valid_json() {
        let mut t = Telemetry::new();
        t.emit(Event::new("alloc").str("tag", "C \"out\"").u64("bytes", 128));
        let s = t.span_begin("x", 0.0);
        t.span_end(s, 3.5);
        for line in t.to_jsonl().lines() {
            json::validate(line).unwrap();
        }
    }
}
