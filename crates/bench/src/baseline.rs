//! The perf-regression observatory: baseline snapshots and comparison.
//!
//! `spgemm bench --update-baseline` measures a fixed set of simulated
//! proposal runs and snapshots their times into `results/baseline.json`;
//! `spgemm bench --check-regression` re-measures and fails (exit 1) when
//! any entry slowed down by more than the tolerance. The observatory set
//! runs on the **sim backend only**: simulated time is a pure function
//! of the input matrix and the cost model, so a "regression" is always a
//! real algorithmic or cost-model change, never machine noise — which is
//! what makes the gate safe to run in CI (DESIGN.md §15).
//!
//! The baseline file is hand-rolled JSON (the workspace is hermetic —
//! no serde), written and parsed only by this module:
//!
//! ```json
//! {
//!   "version": 1,
//!   "tolerance_pct": 10.0,
//!   "entries": [
//!     {"group":"observatory","id":"Protein/sim","median_s":1.234567890e-3}
//!   ]
//! }
//! ```

use baselines::Algorithm;

/// File-format version this module writes and understands.
pub const BASELINE_VERSION: u32 = 1;

/// Default slowdown tolerance in percent.
pub const DEFAULT_TOLERANCE_PCT: f64 = 10.0;

/// One measured benchmark in a baseline snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Bench group ("observatory" for the built-in set).
    pub group: String,
    /// Stable id within the group, e.g. `QCD/sim`.
    pub id: String,
    /// Median runtime in seconds.
    pub median_s: f64,
}

/// A baseline snapshot: entries plus the tolerance they were frozen with.
#[derive(Debug, Clone)]
pub struct Baseline {
    /// Slowdown tolerance in percent a check run compares against
    /// (overridable with `--tolerance`).
    pub tolerance_pct: f64,
    /// Measured entries.
    pub entries: Vec<Entry>,
}

/// One baseline-vs-fresh comparison row.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Entry id (`group/id` is unique; group is "observatory" here).
    pub id: String,
    /// Baseline median in seconds.
    pub base_s: f64,
    /// Freshly measured median in seconds.
    pub fresh_s: f64,
    /// Signed slowdown in percent (positive = slower than baseline).
    pub delta_pct: f64,
    /// Whether `delta_pct` exceeds the tolerance.
    pub regressed: bool,
}

/// The datasets the observatory tracks: the five standard-set matrices
/// that exercise every regime the paper cares about (regular stencils,
/// lattice QCD, scale-free economics, circuit, epidemiology).
pub const OBSERVATORY_DATASETS: [&str; 5] =
    ["Protein", "QCD", "Economics", "Circuit", "Epidemiology"];

/// Measure the observatory set: proposal algorithm, f32, sim backend.
/// Simulated time is deterministic, so one sample *is* the median.
pub fn measure_observatory() -> Vec<Entry> {
    OBSERVATORY_DATASETS
        .iter()
        .map(|name| {
            let d = matgen::by_name(name).expect("observatory dataset exists");
            let r = crate::run_one::<f32>(Algorithm::Proposal, &d);
            let report = r.report.expect("observatory set never OOMs");
            Entry {
                group: "observatory".into(),
                id: format!("{name}/sim"),
                median_s: report.total_time.secs(),
            }
        })
        .collect()
}

/// Render a baseline as deterministic JSON (one entry per line).
pub fn to_json(b: &Baseline) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"version\": {BASELINE_VERSION},\n  \"tolerance_pct\": {:.1},\n  \"entries\": [\n",
        b.tolerance_pct
    ));
    for (i, e) in b.entries.iter().enumerate() {
        let comma = if i + 1 < b.entries.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"group\":{},\"id\":{},\"median_s\":{:.9e}}}{comma}\n",
            obs::json::quote(&e.group),
            obs::json::quote(&e.id),
            e.median_s
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extract the string value following `"key":"` in `s`.
fn str_field(s: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = s.find(&pat)? + pat.len();
    let end = s[start..].find('"')?;
    Some(s[start..start + end].to_string())
}

/// Extract the number following `"key":` in `s`.
fn num_field(s: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = s.find(&pat)? + pat.len();
    let rest = s[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parse a baseline produced by [`to_json`]. Only the subset of JSON
/// this module writes is understood; anything else is an error string.
pub fn from_json(text: &str) -> Result<Baseline, String> {
    let version = num_field(text, "version").ok_or("missing \"version\"")? as u32;
    if version != BASELINE_VERSION {
        return Err(format!("baseline version {version} != supported {BASELINE_VERSION}"));
    }
    let tolerance_pct = num_field(text, "tolerance_pct").ok_or("missing \"tolerance_pct\"")?;
    let mut entries = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with("{\"group\"") {
            continue;
        }
        entries.push(Entry {
            group: str_field(line, "group").ok_or("entry missing \"group\"")?,
            id: str_field(line, "id").ok_or("entry missing \"id\"")?,
            median_s: num_field(line, "median_s").ok_or("entry missing \"median_s\"")?,
        });
    }
    if entries.is_empty() {
        return Err("baseline has no entries".into());
    }
    Ok(Baseline { tolerance_pct, entries })
}

/// Compare fresh measurements against a baseline. Every baseline entry
/// must be present in `fresh` (a vanished bench is itself a regression
/// of coverage); entries only in `fresh` are ignored so the observatory
/// can grow without invalidating old baselines.
pub fn compare(base: &Baseline, fresh: &[Entry], tolerance_pct: f64) -> Result<Vec<Delta>, String> {
    base.entries
        .iter()
        .map(|b| {
            let f = fresh
                .iter()
                .find(|f| f.group == b.group && f.id == b.id)
                .ok_or_else(|| format!("baseline entry {}/{} was not measured", b.group, b.id))?;
            let delta_pct =
                if b.median_s > 0.0 { 100.0 * (f.median_s - b.median_s) / b.median_s } else { 0.0 };
            Ok(Delta {
                id: b.id.clone(),
                base_s: b.median_s,
                fresh_s: f.median_s,
                delta_pct,
                regressed: delta_pct > tolerance_pct,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Baseline {
        Baseline {
            tolerance_pct: 10.0,
            entries: vec![
                Entry { group: "observatory".into(), id: "QCD/sim".into(), median_s: 1.5e-3 },
                Entry { group: "observatory".into(), id: "Protein/sim".into(), median_s: 2.5e-3 },
            ],
        }
    }

    #[test]
    fn json_roundtrip_preserves_entries() {
        let b = sample();
        let text = to_json(&b);
        text.lines().count(); // deterministic multi-line form
        let back = from_json(&text).unwrap();
        assert_eq!(back.tolerance_pct, b.tolerance_pct);
        assert_eq!(back.entries, b.entries);
        // Byte-determinism: render → parse → render is a fixed point.
        assert_eq!(to_json(&back), text);
    }

    #[test]
    fn compare_flags_only_slowdowns_beyond_tolerance() {
        let b = sample();
        let fresh = vec![
            // 4% slower: within tolerance.
            Entry { group: "observatory".into(), id: "QCD/sim".into(), median_s: 1.56e-3 },
            // 2x faster: never a regression.
            Entry { group: "observatory".into(), id: "Protein/sim".into(), median_s: 1.25e-3 },
        ];
        let deltas = compare(&b, &fresh, 10.0).unwrap();
        assert!(deltas.iter().all(|d| !d.regressed));
        let slow = vec![
            Entry { group: "observatory".into(), id: "QCD/sim".into(), median_s: 2.0e-3 },
            Entry { group: "observatory".into(), id: "Protein/sim".into(), median_s: 2.5e-3 },
        ];
        let deltas = compare(&b, &slow, 10.0).unwrap();
        assert!(deltas[0].regressed && !deltas[1].regressed);
    }

    #[test]
    fn missing_fresh_entry_is_an_error() {
        let b = sample();
        let err = compare(&b, &b.entries[..1], 10.0).unwrap_err();
        assert!(err.contains("Protein/sim"));
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        assert!(from_json("{}").is_err());
        assert!(from_json("{\"version\": 99, \"tolerance_pct\": 10.0}").is_err());
        let no_entries =
            "{\n  \"version\": 1,\n  \"tolerance_pct\": 10.0,\n  \"entries\": [\n  ]\n}";
        assert!(from_json(no_entries).is_err());
    }
}
