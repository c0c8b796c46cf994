//! Named histograms with deterministic iteration.
//!
//! A [`Registry`] is a flat namespace of [`Log2Histogram`]s: the
//! distributions (probe length, row occupancy, load factor, row metric)
//! that the event log cannot hold one event per observation. Everything
//! countable from the log — allocations, copies, kernels, faults — is
//! read from its events instead. Names are dot-separated paths
//! (`"count.g3.probe_len"`); storage is a `BTreeMap` so every reader
//! walks the histograms in the same order on every run.

use crate::hist::Log2Histogram;
use std::collections::BTreeMap;

/// The named histograms of one capture session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    hists: BTreeMap<String, Log2Histogram>,
}

impl Registry {
    /// Merge a locally-accumulated histogram into histogram `name`,
    /// creating it (empty) first if needed — so merging an empty
    /// histogram still makes the name visible to readers.
    pub fn hist_merge(&mut self, name: &str, h: &Log2Histogram) {
        self.hists.entry(name.to_string()).or_default().merge(h);
    }

    /// `(name, histogram)` pairs in name order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Log2Histogram)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_merge_creates_the_histogram() {
        let mut local = Log2Histogram::new();
        local.record(3);
        local.record(9);
        let mut r = Registry::default();
        r.hist_merge("h", &local);
        r.hist_merge("empty", &Log2Histogram::new());
        assert_eq!(
            r.hists().collect::<Vec<_>>(),
            vec![("empty", &Log2Histogram::new()), ("h", &local)]
        );
    }

    #[test]
    fn summary_is_name_sorted() {
        let mut one = Log2Histogram::new();
        one.record(1);
        let mut r = Registry::default();
        for name in ["z", "a", "m", "a"] {
            r.hist_merge(name, &one);
        }
        let names: Vec<&str> = r.hists().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
        let counts: Vec<u64> = r.hists().map(|(_, h)| h.count()).collect();
        assert_eq!(counts, vec![2, 1, 1]);
    }
}
