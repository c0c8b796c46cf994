//! Property tests of the telemetry substrate: histogram accounting,
//! merge algebra, JSON escaping, and registry determinism must
//! hold for arbitrary inputs, not just the unit-test values.

use obs::hist::{bucket_lower, bucket_of, BUCKETS};
use obs::{json, Log2Histogram, Registry};
use quickprop::prelude::*;

/// Observation values: spread across many buckets but small enough that
/// even 500 of them cannot overflow the u64 sum.
fn arb_values() -> impl Gen<Value = Vec<u64>> {
    collection::vec((0u32..33, 0u64..u32::MAX as u64).prop_map(|(s, v)| v >> s), 0..500)
}

quickprop! {
    #![config(cases = 64)]

    #[test]
    fn bucket_counts_sum_to_total_inserts(values in arb_values()) {
        let mut h = Log2Histogram::new();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.buckets().iter().sum::<u64>(), h.count());
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
        prop_assert_eq!(h.min(), values.iter().min().copied());
        prop_assert_eq!(h.max(), values.iter().max().copied());
    }

    #[test]
    fn every_value_lands_in_its_bucket_range(values in arb_values()) {
        for &v in &values {
            let i = bucket_of(v);
            prop_assert!(i < BUCKETS);
            prop_assert!(bucket_lower(i) <= v, "value {v} below bucket {i} lower bound");
            if i + 1 < BUCKETS {
                prop_assert!(v < bucket_lower(i + 1), "value {v} above bucket {i} upper bound");
            }
        }
    }

    #[test]
    fn merge_equals_concatenated_records(
        xs in arb_values(),
        ys in arb_values(),
    ) {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        let mut both = Log2Histogram::new();
        for &v in &xs {
            a.record(v);
            both.record(v);
        }
        for &v in &ys {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        prop_assert_eq!(a, both);
    }

    #[test]
    fn quoted_strings_always_validate(bytes in collection::vec(0u32..0x500, 0..60)) {
        // Arbitrary scalar values including every control character and
        // some multi-byte code points must survive quoting as valid JSON.
        let s: String = bytes.iter().filter_map(|&b| char::from_u32(b)).collect();
        let quoted = json::quote(&s);
        prop_assert!(json::validate(&quoted).is_ok(), "invalid quote of {s:?}: {quoted}");
    }

    #[test]
    fn registry_summary_is_insertion_order_independent(
        names in collection::vec(0u32..20, 1..30),
    ) {
        // The same multiset of histogram merges must read back
        // identically regardless of arrival order (BTreeMap-backed
        // determinism).
        let merge = |r: &mut Registry, n: u32| {
            let mut h = Log2Histogram::new();
            h.record(u64::from(n));
            r.hist_merge(&format!("h{}", n % 7), &h);
        };
        let mut fwd = Registry::default();
        let mut rev = Registry::default();
        for &n in &names {
            merge(&mut fwd, n);
        }
        for &n in names.iter().rev() {
            merge(&mut rev, n);
        }
        prop_assert!(fwd.hists().map(|(name, _)| name).is_sorted());
        prop_assert_eq!(fwd, rev);
    }
}
