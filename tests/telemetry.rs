//! Cross-crate telemetry invariants: the instrumented pipeline must
//! account for its own time, probes and memory consistently, stay
//! byte-deterministic, and cost nothing when disabled.

use nsparse_repro::prelude::*;
use obs::Value;

fn tiny(name: &str) -> Csr<f32> {
    matgen::by_name(name).unwrap().generate::<f32>(matgen::Scale::Tiny)
}

/// Run one algorithm with telemetry on; return the gpu and report.
fn traced_run(alg: Algorithm, a: &Csr<f32>) -> (Gpu, SpgemmReport) {
    let mut gpu = Gpu::new(DeviceConfig::p100());
    gpu.enable_telemetry();
    let (_, report) = alg.run::<f32>(&mut gpu, a, a).unwrap();
    (gpu, report)
}

#[test]
fn telemetry_is_none_when_disabled() {
    let a = tiny("QCD");
    let mut gpu = Gpu::new(DeviceConfig::p100());
    let (_, report) = Algorithm::Proposal.run::<f32>(&mut gpu, &a, &a).unwrap();
    assert!(report.telemetry.is_none());
    assert!(gpu.telemetry().is_none());
    // No per-operation timeline is kept without telemetry.
    assert!(gpu.timeline().is_empty());
    // Probe totals are collected regardless — they ride on data the
    // kernels already produce.
    assert!(report.hash_probes > 0);
}

#[test]
fn probe_histograms_account_for_reported_probes() {
    let a = tiny("QCD");
    let (_, report) = traced_run(Algorithm::Proposal, &a);
    let registry = report.telemetry.expect("telemetry enabled");
    // Every probe counted in the report appears in exactly one
    // phase/group probe-length histogram, and vice versa.
    let hist_total: u64 = registry
        .hists()
        .filter(|(name, _)| name.ends_with(".probe_len"))
        .map(|(_, h)| h.sum())
        .sum();
    assert_eq!(hist_total, report.hash_probes);
    assert!(report.hash_probes > 0);
}

/// Rows per `{phase}.g{group}` group.
type GroupRows = std::collections::BTreeMap<String, u64>;

/// Each group's rows as the `group` events report them and as the
/// `row_metric` histograms count them, on a traced proposal run of `a`,
/// capped at `cap` bytes (through the row-batched fallback) when given.
/// Also returns the batches the run took.
fn group_rows(a: &Csr<f32>, cap: Option<u64>) -> (GroupRows, GroupRows, usize) {
    let mut gpu = Gpu::new(cap.map_or_else(DeviceConfig::p100, DeviceConfig::p100_with_memory));
    gpu.enable_telemetry();
    let batches = if cap.is_some() {
        let mut exec = BatchedExecutor::sim(&mut gpu);
        exec.multiply(a, a, &Options::default()).unwrap();
        exec.batches_used()
    } else {
        nsparse_core::multiply(&mut gpu, a, a, &Options::default()).unwrap();
        1
    };
    let t = gpu.telemetry().unwrap();
    let mut from_events = GroupRows::new();
    for e in t.events.events().iter().filter(|e| e.kind() == "group") {
        let (Some(Value::Str(phase)), Some(Value::U64(group)), Some(Value::U64(rows))) =
            (e.field("phase"), e.field("group"), e.field("rows"))
        else {
            panic!("malformed group event: {}", e.to_json());
        };
        *from_events.entry(format!("{phase}.g{group}")).or_default() += rows;
    }
    let from_hists = t
        .registry
        .hists()
        .filter_map(|(name, h)| Some((name.strip_suffix(".row_metric")?.to_string(), h.count())))
        .collect();
    (from_events, from_hists, batches)
}

#[test]
fn group_events_and_row_histograms_agree() {
    let a = tiny("QCD");
    let est = nsparse_core::estimate_memory(&a, &a).unwrap().upper_bound();
    for cap in [None, Some(est.div_ceil(4))] {
        let (from_events, from_hists, batches) = group_rows(&a, cap);
        assert_eq!(batches > 1, cap.is_some(), "cap {cap:?}: {batches} batches");
        // Each group's rows, summed over its events, are its
        // histogram's count.
        assert_eq!(from_events, from_hists, "cap {cap:?}");
        // Every grouping pass partitions the rows it covers, and the
        // batches partition A's rows, so each phase accounts for every
        // row of A exactly once.
        for phase in ["count", "calc"] {
            let prefix = format!("{phase}.");
            let rows: u64 =
                from_hists.iter().filter(|(g, _)| g.starts_with(&prefix)).map(|(_, n)| n).sum();
            assert_eq!(rows, a.rows() as u64, "cap {cap:?}: {phase}");
        }
    }
}

#[test]
fn hash_probes_surface_for_every_algorithm() {
    let a = tiny("QCD");
    for alg in Algorithm::ALL {
        let (_, report) = traced_run(alg, &a);
        match alg {
            // Hash-based algorithms must observe probes.
            Algorithm::Proposal | Algorithm::Cusparse => {
                assert!(report.hash_probes > 0, "{}", alg.name())
            }
            // ESC sorts and bhsparse merges: no hash tables at all.
            Algorithm::Cusp | Algorithm::Bhsparse => {
                assert_eq!(report.hash_probes, 0, "{}", alg.name())
            }
        }
    }
}

#[test]
fn per_stream_busy_never_exceeds_wall() {
    let a = tiny("FEM/Cantilever");
    let (gpu, _) = traced_run(Algorithm::Proposal, &a);
    let (t0, t1) = gpu.timeline().wall_span().expect("kernels ran");
    let wall = t1 - t0;
    assert!(wall > SimTime::ZERO);
    for s in gpu.timeline().stream_utilization() {
        assert!(s.busy <= wall + SimTime::from_us(1e-6), "stream {}", s.stream);
        let u = s.utilization(wall);
        assert!((0.0..=1.0 + 1e-9).contains(&u), "stream {} utilization {u}", s.stream);
    }
}

#[test]
fn phase_times_sum_to_total_within_epsilon() {
    let a = tiny("Protein");
    for alg in Algorithm::ALL {
        let (_, report) = traced_run(alg, &a);
        let phase_sum: f64 = report
            .phase_times
            .iter()
            .filter(|(p, _)| *p != Phase::Other)
            .map(|(_, t)| t.secs())
            .sum();
        let total = report.total_time.secs();
        assert!(
            (phase_sum - total).abs() <= 1e-12 * total.max(1e-30),
            "{}: phases sum to {phase_sum}, total {total}",
            alg.name()
        );
    }
}

#[test]
fn telemetry_exports_are_byte_deterministic() {
    let run = || {
        let a = tiny("QCD");
        let mut gpu = Gpu::new(DeviceConfig::p100());
        gpu.enable_telemetry();
        let (_, _) = Algorithm::Proposal.run::<f32>(&mut gpu, &a, &a).unwrap();
        let jsonl = gpu.telemetry().unwrap().to_jsonl();
        let chrome = gpu.timeline().chrome_trace();
        (jsonl, chrome)
    };
    let (j1, c1) = run();
    let (j2, c2) = run();
    assert_eq!(j1, j2, "telemetry JSONL must be byte-identical across runs");
    assert_eq!(c1, c2, "chrome trace must be byte-identical across runs");
    assert!(!j1.is_empty());
    for line in j1.lines() {
        obs::json::validate(line).expect("every JSONL line is valid JSON");
    }
    obs::json::validate(&c1).expect("chrome trace is valid JSON");
}

/// `examples/profile_trace.rs` commits the Chrome trace of one run:
/// Circuit at repro scale, f32, default options, on a fresh P100. The
/// same run rendered from the telemetry log must reproduce the file byte
/// for byte.
#[test]
fn committed_kernel_timeline_is_reproduced() {
    let a = matgen::by_name("Circuit").unwrap().generate::<f32>(matgen::Scale::Repro);
    let mut gpu = Gpu::new(DeviceConfig::p100());
    gpu.enable_telemetry();
    nsparse_core::multiply(&mut gpu, &a, &a, &Options::default()).unwrap();
    let fresh = gpu.timeline().chrome_trace();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/trace.json");
    let committed = std::fs::read_to_string(path).unwrap();
    assert!(
        fresh == committed,
        "results/trace.json differs from a fresh run \
         (`cargo run --release --example profile_trace` rewrites it); fresh trace:\n{fresh}"
    );
}

/// Integer field extractor for the hand-rolled trace JSON (the dump
/// format is produced by this workspace, so a full parser is overkill).
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

mod span_tree_props {
    use super::field_u64;
    use quickprop::prelude::*;

    quickprop! {
        #![config(cases = 40)]

        /// Arbitrary interleavings of begin/end/emit ops must always
        /// yield a closed, strictly nested, deterministic span tree:
        /// unique span ids, every child id greater than its parent's,
        /// every child's `span` event preceding its parent's in the log
        /// (ends are emitted innermost-first), every plain event
        /// parented, and byte-identical output for identical ops.
        #[test]
        fn span_trees_are_closed_nested_and_deterministic(
            ops in collection::vec(0u8..3, 1..48)
        ) {
            let build = |ops: &[u8]| {
                let mut tb = engine::TraceBuilder::new(9);
                let mut stack = Vec::new();
                for (i, op) in ops.iter().enumerate() {
                    match *op {
                        0 => stack.push(tb.begin(None, ["admission", "symbolic", "numeric"][i % 3])),
                        1 => {
                            if let Some(s) = stack.pop() {
                                tb.end(None, s);
                            }
                        }
                        _ => tb.emit(None, obs::Event::new("marker").u64("i", i as u64)),
                    }
                }
                while let Some(s) = stack.pop() {
                    tb.end(None, s);
                }
                tb.finish(None).to_jsonl()
            };
            let text = build(&ops);
            prop_assert_eq!(&text, &build(&ops), "identical ops must give identical bytes");

            let lines: Vec<&str> = text.lines().collect();
            let mut span_line = std::collections::HashMap::new();
            for (idx, line) in lines.iter().enumerate() {
                prop_assert!(obs::json::validate(line).is_ok(), "invalid JSON: {}", line);
                if line.contains("\"kind\":\"span\"") {
                    let id = field_u64(line, "id").expect("span has an id");
                    prop_assert!(
                        span_line.insert(id, idx).is_none(),
                        "span id {} ended twice", id
                    );
                }
            }
            // Every begin was matched: spans = begins (+ the root).
            let begins = ops.iter().filter(|&&op| op == 0).count();
            prop_assert_eq!(span_line.len(), begins + 1);
            // The root `job` span (id 0) closes last.
            prop_assert_eq!(span_line.get(&0), Some(&(lines.len() - 1)));
            for (idx, line) in lines.iter().enumerate() {
                let parent = field_u64(line, "parent");
                if line.contains("\"kind\":\"span\"") {
                    let id = field_u64(line, "id").unwrap();
                    if id == 0 {
                        prop_assert_eq!(parent, None, "root span has no parent");
                        continue;
                    }
                    let p = parent.expect("non-root span has a parent");
                    prop_assert!(p < id, "child id {} not greater than parent {}", id, p);
                    let p_idx = span_line.get(&p).expect("parent span closed");
                    prop_assert!(idx < *p_idx, "child must close before its parent");
                } else {
                    // Plain events always carry the ambient parent.
                    let p = parent.expect("event is parented");
                    prop_assert!(span_line.contains_key(&p), "event parent {} never closed", p);
                }
            }
        }
    }
}

#[test]
fn memory_timeline_peak_matches_report() {
    let a = tiny("Epidemiology");
    let (gpu, report) = traced_run(Algorithm::Proposal, &a);
    let mem = gpu.memory();
    // The allocator's high-water mark equals the reported peak, and the
    // peak attribution sums to it exactly.
    assert_eq!(mem.peak_bytes(), report.peak_mem_bytes);
    let breakdown_sum: u64 = mem.peak_breakdown().iter().map(|(_, b)| b).sum();
    assert_eq!(breakdown_sum, report.peak_mem_bytes);
}
