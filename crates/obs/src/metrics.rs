//! Named metrics with deterministic iteration.
//!
//! A [`Registry`] is a flat namespace of counters (monotone `u64`),
//! high-water gauges (`f64`) and [`Log2Histogram`]s. Names are
//! dot-separated paths (`"count.g3.probe_len"`); storage is a `BTreeMap`
//! so every export walks metrics in the same order on every run — the
//! determinism guarantee the telemetry JSONL inherits.

use crate::hist::Log2Histogram;
use std::collections::BTreeMap;

/// Counters, gauges and histograms for one capture session.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Log2Histogram>,
}

/// Point-in-time snapshot of a [`Registry`], embeddable in reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// `(name, value)` pairs, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// `(name, histogram)` pairs, name-sorted.
    pub hists: Vec<(String, Log2Histogram)>,
}

impl Summary {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

impl Registry {
    /// Add `delta` to counter `name` (creating it at 0).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Raise gauge `name` to at least `value` (high-water semantics).
    pub fn gauge_max(&mut self, name: &str, value: f64) {
        let g = self.gauges.entry(name.to_string()).or_insert(f64::MIN);
        *g = g.max(value);
    }

    /// Merge a locally-accumulated histogram into histogram `name`
    /// (avoids a map lookup per observation on hot paths).
    pub fn hist_merge(&mut self, name: &str, h: &Log2Histogram) {
        self.hists.entry(name.to_string()).or_default().merge(h);
    }

    /// Name-sorted snapshot of everything.
    pub fn summary(&self) -> Summary {
        Summary {
            counters: self.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            gauges: self.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            hists: self.hists.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = Registry::default();
        r.counter_add("a.b", 2);
        r.counter_add("a.b", 3);
        assert_eq!(r.summary().counter("a.b"), Some(5));
        assert_eq!(r.summary().counter("missing"), None);
    }

    #[test]
    fn gauges_keep_the_maximum() {
        let mut r = Registry::default();
        r.gauge_max("hw", 10.0);
        r.gauge_max("hw", 4.0);
        assert_eq!(r.summary().gauges, vec![("hw".to_string(), 10.0)]);
    }

    #[test]
    fn hist_merge_creates_the_histogram() {
        let mut local = Log2Histogram::new();
        local.record(3);
        local.record(9);
        let mut r = Registry::default();
        r.hist_merge("h", &local);
        assert_eq!(r.summary().hists, vec![("h".to_string(), local)]);
    }

    #[test]
    fn summary_is_name_sorted() {
        let mut r = Registry::default();
        r.counter_add("z", 1);
        r.counter_add("a", 1);
        r.counter_add("m", 1);
        let s = r.summary();
        let names: Vec<&str> = s.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
        assert_eq!(s.counter("m"), Some(1));
        assert_eq!(s.counter("q"), None);
    }
}
