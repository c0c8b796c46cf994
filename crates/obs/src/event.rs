//! Structured events and the JSON Lines log.
//!
//! An [`Event`] is a `kind` plus ordered fields; the log serializes one
//! event per line with fields in insertion order, so a run's JSONL is a
//! deterministic function of what the simulator did — byte-identical
//! across repeated seeded runs (there are no wall-clock fields; all
//! times are simulated).

use crate::json;

/// A field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Finite float (non-finite values serialize as `null`).
    F64(f64),
    /// String (escaped on output).
    Str(String),
}

impl Value {
    fn write_into(&self, out: &mut String) {
        match self {
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::F64(v) if v.is_finite() => out.push_str(&format_f64(*v)),
            Value::F64(_) => out.push_str("null"),
            Value::Str(s) => out.push_str(&json::quote(s)),
        }
    }
}

/// Shortest-roundtrip float formatting. Rust's `Display` for finite
/// `f64` is already a valid JSON number (plain decimal, or `1e300`-style
/// exponent form for extreme magnitudes) and is deterministic for equal
/// bit patterns — which is all the byte-identical-JSONL guarantee needs.
fn format_f64(v: f64) -> String {
    format!("{v}")
}

/// One telemetry event: a kind plus ordered `(key, value)` fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    kind: String,
    fields: Vec<(String, Value)>,
}

impl Event {
    /// New event of the given kind.
    pub fn new(kind: &str) -> Self {
        Event { kind: kind.to_string(), fields: Vec::new() }
    }

    /// The event kind.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// Field lookup.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Append a string field (builder style).
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.fields.push((key.to_string(), Value::Str(value.to_string())));
        self
    }

    /// Append an unsigned-integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.fields.push((key.to_string(), Value::U64(value)));
        self
    }

    /// Append a float field.
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.fields.push((key.to_string(), Value::F64(value)));
        self
    }

    /// Serialize as one JSON object (`kind` first, then fields in
    /// insertion order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"kind\":");
        out.push_str(&json::quote(&self.kind));
        for (k, v) in &self.fields {
            out.push(',');
            out.push_str(&json::quote(k));
            out.push(':');
            v.write_into(&mut out);
        }
        out.push('}');
        out
    }
}

/// Append-only event collection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event.
    pub fn push(&mut self, e: Event) {
        self.events.push(e);
    }

    /// Events in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Serialize as JSON Lines (trailing newline when non-empty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_serializes_fields_in_order() {
        let e = Event::new("alloc").str("tag", "C").u64("bytes", 42).f64("t_us", 1.5);
        assert_eq!(e.to_json(), "{\"kind\":\"alloc\",\"tag\":\"C\",\"bytes\":42,\"t_us\":1.5}");
        assert_eq!(e.kind(), "alloc");
        assert_eq!(e.field("bytes"), Some(&Value::U64(42)));
        assert_eq!(e.field("nope"), None);
    }

    #[test]
    fn strings_are_escaped() {
        let e = Event::new("k").str("name", "we\"ird\\name\n");
        assert_eq!(e.to_json(), "{\"kind\":\"k\",\"name\":\"we\\\"ird\\\\name\\n\"}");
        crate::json::validate(&e.to_json()).unwrap();
    }

    #[test]
    fn non_finite_floats_become_null() {
        let e = Event::new("k").f64("x", f64::NAN).f64("y", f64::INFINITY);
        assert_eq!(e.to_json(), "{\"kind\":\"k\",\"x\":null,\"y\":null}");
        crate::json::validate(&e.to_json()).unwrap();
    }

    #[test]
    fn jsonl_one_line_per_event() {
        let mut log = EventLog::new();
        assert_eq!(log.to_jsonl(), "");
        log.push(Event::new("a"));
        log.push(Event::new("b").u64("n", 1));
        let s = log.to_jsonl();
        assert_eq!(s.lines().count(), 2);
        assert!(s.ends_with('\n'));
        for line in s.lines() {
            crate::json::validate(line).unwrap();
        }
    }
}
