//! The Chrome trace-event writer: a JSON array of complete (`"ph":"X"`)
//! events, the format chrome://tracing and ui.perfetto.dev load. The
//! device profiler's kernel timeline and the engine flight recorder's
//! job spans both render through it.

use crate::json;

/// One complete event: a named interval on a `(pid, tid)` track.
#[derive(Debug, Clone, Copy)]
pub struct Span<'a> {
    /// Event name, JSON-escaped verbatim.
    pub name: &'a str,
    /// Category (`cat`); omitted when `None`.
    pub cat: Option<&'a str>,
    /// Start, in microseconds.
    pub ts_us: f64,
    /// Duration, in microseconds.
    pub dur_us: f64,
    /// Process track.
    pub pid: u64,
    /// Thread track.
    pub tid: u64,
    /// Numeric `args` as `(key, value, decimals)`; omitted when empty.
    /// Integers print exactly at 0 decimals.
    pub args: &'a [(&'a str, f64, usize)],
}

/// A trace-event array under construction.
#[derive(Debug, Default)]
pub struct Trace {
    out: String,
}

impl Trace {
    /// Append one event. Times print with three decimals (nanosecond
    /// resolution), so equal inputs give equal bytes.
    pub fn span(&mut self, s: &Span<'_>) {
        self.out.push(if self.out.is_empty() { '[' } else { ',' });
        self.out.push_str("{\"name\":");
        self.out.push_str(&json::quote(s.name));
        if let Some(cat) = s.cat {
            self.out.push_str(",\"cat\":");
            self.out.push_str(&json::quote(cat));
        }
        self.out.push_str(&format!(
            ",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{}",
            s.ts_us, s.dur_us, s.pid, s.tid
        ));
        for (i, (key, value, decimals)) in s.args.iter().enumerate() {
            self.out.push_str(if i == 0 { ",\"args\":{" } else { "," });
            self.out.push_str(&json::quote(key));
            self.out.push_str(&format!(":{value:.decimals$}"));
        }
        if !s.args.is_empty() {
            self.out.push('}');
        }
        self.out.push('}');
    }

    /// The finished JSON array (`[]` when no event was added).
    pub fn finish(mut self) -> String {
        if self.out.is_empty() {
            self.out.push('[');
        }
        self.out.push(']');
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_complete_events_with_optional_cat_and_args() {
        assert_eq!(Trace::default().finish(), "[]");
        let mut t = Trace::default();
        t.span(&Span {
            name: "k\"1",
            cat: Some("calc"),
            ts_us: 1.0,
            dur_us: 2.5,
            pid: 0,
            tid: 3,
            args: &[("blocks", 7.0, 0), ("efficiency", 0.8, 3)],
        });
        t.span(&Span {
            name: "job",
            cat: None,
            ts_us: 0.0,
            dur_us: 1.0,
            pid: 2,
            tid: 0,
            args: &[],
        });
        let s = t.finish();
        assert_eq!(
            s,
            concat!(
                "[{\"name\":\"k\\\"1\",\"cat\":\"calc\",\"ph\":\"X\",\"ts\":1.000,\"dur\":2.500,",
                "\"pid\":0,\"tid\":3,\"args\":{\"blocks\":7,\"efficiency\":0.800}},",
                "{\"name\":\"job\",\"ph\":\"X\",\"ts\":0.000,\"dur\":1.000,\"pid\":2,\"tid\":0}]"
            )
        );
        crate::json::validate(&s).expect("valid JSON");
    }
}
