//! In-repo timing harness — the `cargo bench` entry points' replacement
//! for Criterion, so the workspace resolves fully offline (DESIGN.md §7).
//!
//! Two measurement kinds:
//!
//! * [`Group::bench_sim`] records a *simulated-device* duration from the
//!   virtual GPU. The simulation is deterministic, so one sample is
//!   exact.
//! * [`Group::bench_wall`] measures real host code: auto-calibrated
//!   batch size, median of N samples, min/max spread.
//!
//! Every group writes `results/bench_<group>.csv`
//! (`id,kind,median_s,min_s,max_s,samples`). The paper's tables and
//! figures are not benches: the `repro` binary writes their CSVs.

use std::time::Instant;
use vgpu::SimTime;

/// Default number of wall-clock samples per benchmark id.
pub const DEFAULT_SAMPLES: usize = 15;

/// Target per-sample batch duration for wall-clock calibration.
const TARGET_SAMPLE_SECS: f64 = 0.005;

#[derive(Debug, Clone)]
struct Record {
    id: String,
    kind: &'static str,
    median_s: f64,
    min_s: f64,
    max_s: f64,
    samples: usize,
}

/// A named collection of benchmark ids (mirrors `benchmark_group`).
pub struct Group {
    name: String,
    samples: usize,
    records: Vec<Record>,
}

/// Open a benchmark group; call [`Group::finish`] to write its CSV.
pub fn group(name: &str) -> Group {
    Group { name: name.to_string(), samples: DEFAULT_SAMPLES, records: Vec::new() }
}

impl Group {
    /// Override the wall-clock sample count.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(3);
        self
    }

    /// Record a deterministic simulated-device duration under `id`.
    pub fn bench_sim(&mut self, id: &str, time: SimTime) {
        let s = time.secs();
        println!("{}/{id}  sim time: {}", self.name, fmt_secs(s));
        self.records.push(Record {
            id: id.to_string(),
            kind: "sim",
            median_s: s,
            min_s: s,
            max_s: s,
            samples: 1,
        });
    }

    /// Measure host wall-clock time of `f` under `id`: one calibration
    /// call sizes a batch near [`TARGET_SAMPLE_SECS`], then the median
    /// of `sample_size` batches is reported.
    pub fn bench_wall<F: FnMut()>(&mut self, id: &str, mut f: F) {
        let t0 = Instant::now();
        f();
        let once = t0.elapsed().as_secs_f64().max(1e-9);
        let iters = ((TARGET_SAMPLE_SECS / once).ceil() as u64).clamp(1, 100_000);
        let mut times = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            times.push(t.elapsed().as_secs_f64() / iters as f64);
        }
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        let median = times[times.len() / 2];
        let (min, max) = (times[0], times[times.len() - 1]);
        println!(
            "{}/{id}  wall time: {} [{} .. {}] ({} samples x {iters} iters)",
            self.name,
            fmt_secs(median),
            fmt_secs(min),
            fmt_secs(max),
            self.samples
        );
        self.records.push(Record {
            id: id.to_string(),
            kind: "wall",
            median_s: median,
            min_s: min,
            max_s: max,
            samples: self.samples,
        });
    }

    /// Write `results/bench_<group>.csv` and return its path.
    pub fn finish(self) -> std::path::PathBuf {
        let rows: Vec<String> = self
            .records
            .iter()
            .map(|r| {
                format!(
                    "{},{},{:.9e},{:.9e},{:.9e},{}",
                    r.id, r.kind, r.median_s, r.min_s, r.max_s, r.samples
                )
            })
            .collect();
        let path = crate::write_csv(
            &format!("bench_{}", self.name),
            "id,kind,median_s,min_s,max_s,samples",
            &rows,
        );
        println!("{} -> {}", self.name, path.display());
        path
    }
}

fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} us", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_records_are_exact() {
        let mut g = group("harness_selftest_sim");
        g.bench_sim("one_ms", SimTime::from_secs(1e-3));
        assert_eq!(g.records.len(), 1);
        assert_eq!(g.records[0].median_s, 1e-3);
        assert_eq!(g.records[0].kind, "sim");
    }

    #[test]
    fn wall_median_is_positive_and_ordered() {
        let mut g = group("harness_selftest_wall");
        g.sample_size(5);
        g.bench_wall("spin", || {
            std::hint::black_box((0..1000u64).sum::<u64>());
        });
        let r = &g.records[0];
        assert!(r.min_s <= r.median_s && r.median_s <= r.max_s);
        assert!(r.median_s > 0.0);
        assert_eq!(r.samples, 5);
    }

    #[test]
    fn fmt_secs_picks_units() {
        assert!(fmt_secs(2.5).ends_with(" s"));
        assert!(fmt_secs(2.5e-3).ends_with(" ms"));
        assert!(fmt_secs(2.5e-6).ends_with(" us"));
        assert!(fmt_secs(2.5e-9).ends_with(" ns"));
    }
}
