//! The metric catalogue and the result line every run prints.
//!
//! The names and units here are the ones `BENCHMARK.json` declares (a
//! test keeps the two equal). An untraced run emits exactly the
//! end-to-end set, a traced run exactly the per-layer set, for every
//! workload: a layer a workload never enters reads 0.

use crate::json::num;
use std::collections::BTreeMap;

/// End-to-end metrics: what a caller of the library or the engine sees.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("wall_gflops", "GFLOPS"), ("latency_p50_ms", "ms")];

/// Per-layer metrics from the traced replay. `*_ms` busy times are
/// self time per job (or per multiply) in milliseconds.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("job.validate_ms", "ms"),
    ("forecast.busy_ms", "ms"),
    ("forecast.over_ratio", "ratio"),
    ("cache.key_ms", "ms"),
    ("cache.lookup_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("admission.wait_p50_ms", "ms"),
    ("admission.queued_ratio", "ratio"),
    ("admission.budget_peak_ratio", "ratio"),
    ("plan.busy_ms", "ms"),
    ("symbolic.busy_ms", "ms"),
    ("symbolic.runs", "count"),
    ("symbolic.probes_per_product", "ratio"),
    ("numeric.busy_ms", "ms"),
    ("numeric.ns_per_product", "ns"),
    ("batched.busy_ms", "ms"),
    ("batched.batches_per_job", "ratio"),
    ("batched.retries", "count"),
    ("route.batched_ratio", "ratio"),
    ("vgpu.wall_ns_per_sim_us", "ns/us"),
    ("vgpu.setup_us", "us"),
    ("vgpu.count_us", "us"),
    ("vgpu.calc_us", "us"),
    ("vgpu.malloc_us", "us"),
    ("verify.busy_ms", "ms"),
    ("verify.mismatches", "count"),
    ("matgen.gen_ms", "ms"),
    ("trace.coverage_ratio", "ratio"),
    ("sim_gflops", "GFLOPS"),
    ("sim_mem_mb", "MiB"),
    ("wall_gflops_1t", "GFLOPS"),
    ("latency_p90_ms", "ms"),
];

/// Metric values by name, filled in by a run or a trace.
pub type Values = BTreeMap<&'static str, f64>;

/// The catalogue a run in this mode must emit.
pub fn catalogue(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The result line every run ends with: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`, the metrics in catalogue order.
/// Errors if a catalogue metric is missing or an extra one is present.
pub fn result_line(
    traced: bool,
    attempted: u64,
    failed: u64,
    values: &Values,
) -> Result<String, String> {
    let cat = catalogue(traced);
    if let Some(extra) = values.keys().find(|k| !cat.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric {extra} is not in the catalogue"));
    }
    let mut fields = Vec::with_capacity(cat.len());
    for (name, unit) in cat {
        let v = values.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        fields.push(format!("{:?}:{{\"value\":{},\"unit\":{:?}}}", name, num(*v), unit));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        fields.join(",")
    ))
}
