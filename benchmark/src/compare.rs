//! `compare`: judge two sets of run files against the benchmark's bounds.
//!
//! For every workload × metric it prints both sides' median and
//! quartiles and a verdict:
//!
//! * `regressed` — the new median is worse than the base median by more
//!   than the metric's bound;
//! * `improved` — at least ten pairs of runs (base run i against new
//!   run i, the runs made alternately), the new side wins at least nine
//!   tenths of them, and the medians differ by more than the base side's
//!   interquartile distance;
//! * `unresolved` — the base side's own spread is wider than the bound,
//!   and not every new run reads better than every base run;
//! * `unchanged` otherwise; `-` for per-layer metrics, which have no
//!   bound.

use crate::json::Json;
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::path::Path;

/// One run file's workload and metric values.
#[derive(Debug, Clone)]
pub struct RunFile {
    pub workload: String,
    pub metrics: BTreeMap<String, f64>,
}

impl RunFile {
    pub fn parse(text: &str) -> Result<RunFile, String> {
        let v = Json::parse(text)?;
        let workload = v.get("workload").and_then(Json::as_str).ok_or("no workload")?.to_string();
        let metrics = v
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("no metrics")?
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        Ok(RunFile { workload, metrics })
    }
}

/// The `*.json` run files of `dir`, in file-name order (the order they
/// were made in, when named by sequence number).
pub fn load_dir(dir: &Path) -> Result<Vec<RunFile>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            RunFile::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// How a metric is judged: its direction and, for end-to-end metrics,
/// its bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    pub lower_is_better: bool,
    pub bound: Option<f64>,
}

/// The rules `BENCHMARK.json` declares, by metric name.
pub fn rules(bench: &Json) -> BTreeMap<String, Rule> {
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in bench.get(key).map(Json::as_arr).unwrap_or_default() {
            let Some(name) = m.get("name").and_then(Json::as_str) else { continue };
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let bound = m.get("bound").and_then(Json::as_f64);
            out.insert(name.to_string(), Rule { lower_is_better: lower, bound });
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    Unresolved,
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// Judge the new runs of one metric against the base runs.
pub fn judge(base: &[f64], new: &[f64], rule: Rule) -> Verdict {
    let (Some(bm), Some(nm)) = (median(base), median(new)) else { return Verdict::Info };
    let Some(bound) = rule.bound else { return Verdict::Info };
    let better = |x: f64, y: f64| if rule.lower_is_better { x < y } else { x > y };
    let worse_by = if bm == 0.0 {
        0.0
    } else if rule.lower_is_better {
        (nm - bm) / bm.abs()
    } else {
        (bm - nm) / bm.abs()
    };
    let iqr = quartiles(base).map_or(0.0, |q| q[2] - q[0]);
    let spread = if bm == 0.0 { 0.0 } else { iqr / bm.abs() };
    let all = |f: &dyn Fn(f64, f64) -> bool| new.iter().all(|&n| base.iter().all(|&b| f(n, b)));
    if worse_by > bound && (spread <= bound || all(&|n, b| better(b, n))) {
        return Verdict::Regressed;
    }
    if spread > bound && !all(&better) {
        return Verdict::Unresolved;
    }
    let pairs = base.len().min(new.len());
    let wins = base.iter().zip(new).filter(|&(&b, &n)| better(n, b)).count();
    if pairs >= 10 && wins * 10 >= pairs * 9 && (nm - bm).abs() > iqr {
        return Verdict::Improved;
    }
    Verdict::Unchanged
}

/// One printed row of a comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: Vec<f64>,
    pub new: Vec<f64>,
    pub verdict: Verdict,
}

/// Compare two sets of runs, workload by workload and metric by metric.
pub fn compare(base: &[RunFile], new: &[RunFile], rules: &BTreeMap<String, Rule>) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut keys: Vec<(String, String)> = base
        .iter()
        .flat_map(|r| r.metrics.keys().map(|m| (r.workload.clone(), m.clone())))
        .collect();
    keys.sort();
    keys.dedup();
    for (workload, metric) in keys {
        let values = |runs: &[RunFile]| -> Vec<f64> {
            runs.iter()
                .filter(|r| r.workload == workload)
                .filter_map(|r| r.metrics.get(&metric).copied())
                .collect()
        };
        let (b, n) = (values(base), values(new));
        if n.is_empty() {
            continue;
        }
        let rule =
            rules.get(&metric).copied().unwrap_or(Rule { lower_is_better: true, bound: None });
        let verdict = judge(&b, &n, rule);
        rows.push(Row { workload, metric, base: b, new: n, verdict });
    }
    rows
}

/// Render rows as a table: medians, quartiles, verdict.
pub fn render(rows: &[Row]) -> String {
    let q = |xs: &[f64]| {
        let m = median(xs).unwrap_or(f64::NAN);
        let [lo, _, hi] = quartiles(xs).unwrap_or([m, m, m]);
        format!("{m:>12.5} [{lo:.5}, {hi:.5}] n={}", xs.len())
    };
    let mut out = format!(
        "{:<15} {:<30} {:<40} {:<40} verdict\n",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<15} {:<30} {:<40} {:<40} {}\n",
            r.workload,
            r.metric,
            q(&r.base),
            q(&r.new),
            r.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten runs per workload with a small, deterministic spread.
    fn runs(slow: Option<(&str, &str)>) -> Vec<RunFile> {
        let mut out = Vec::new();
        for i in 0..10 {
            for w in ["paper-sim", "host-square", "serve-reuse", "serve-pressure"] {
                let jitter = 1.0 + 0.002 * ((i * 7 % 10) as f64 - 4.5);
                let mut metrics = BTreeMap::new();
                for (m, v) in [("setup_s", 0.5), ("wall_gflops", 0.2), ("latency_p50_ms", 40.0)] {
                    let factor = if slow == Some((w, m)) { 2.0 } else { 1.0 };
                    metrics.insert(m.to_string(), v * jitter * factor);
                }
                out.push(RunFile { workload: w.to_string(), metrics });
            }
        }
        out
    }

    fn bench_rules() -> BTreeMap<String, Rule> {
        rules(&crate::bench_decl().expect("BENCHMARK.json parses"))
    }

    #[test]
    fn identical_sets_pass() {
        let rows = compare(&runs(None), &runs(None), &bench_rules());
        assert_eq!(rows.len(), 12);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Unchanged), "{}", render(&rows));
    }

    #[test]
    fn a_doubled_latency_is_flagged_on_its_workload_alone() {
        let slow = runs(Some(("serve-reuse", "latency_p50_ms")));
        let rows = compare(&runs(None), &slow, &bench_rules());
        for r in &rows {
            let expect = if r.workload == "serve-reuse" && r.metric == "latency_p50_ms" {
                Verdict::Regressed
            } else {
                Verdict::Unchanged
            };
            assert_eq!(r.verdict, expect, "{} {}", r.workload, r.metric);
        }
        // The reverse direction is a gain: ten pairs, all won.
        let rows = compare(&slow, &runs(None), &bench_rules());
        let gain =
            rows.iter().find(|r| r.workload == "serve-reuse" && r.metric == "latency_p50_ms");
        assert_eq!(gain.map(|r| r.verdict), Some(Verdict::Improved));
    }

    #[test]
    fn run_files_round_trip() {
        let text = r#"{"workload":"paper-sim","trace":0,"metrics":{"wall_gflops":{"value":0.25,"unit":"GFLOPS"}}}"#;
        let r = RunFile::parse(text).unwrap();
        assert_eq!(r.workload, "paper-sim");
        assert_eq!(r.metrics["wall_gflops"], 0.25);
    }
}
