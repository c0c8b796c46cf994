//! `spgemm bench` — the perf-regression gate CLI.
//!
//! Three modes over the [`crate::baseline`] observatory set:
//!
//! * (no flags) — measure and print the observatory table;
//! * `--update-baseline` — measure and snapshot into
//!   `results/baseline.json` (the committed perf trajectory seed);
//! * `--check-regression` — measure, compare against the snapshot and
//!   exit 1 when any entry slowed beyond tolerance.
//!
//! Exit codes: 0 ok, 1 regression (or baseline/measure mismatch),
//! 2 usage or unreadable baseline.

use crate::baseline::{self, Baseline, Delta, Entry};
use crate::cli::{self, Flags};

#[derive(Debug, PartialEq)]
struct BenchArgs {
    check: bool,
    update: bool,
    path: Option<String>,
    tolerance: Option<f64>,
}

fn usage() -> String {
    format!(
        "usage: spgemm bench [--check-regression] [--update-baseline] \
         [--baseline PATH] [--tolerance PCT]\n\
         Measures the perf observatory (proposal, f32, sim backend —\n\
         deterministic simulated time) over {}.\n\
         --update-baseline snapshots medians into results/baseline.json;\n\
         --check-regression fails (exit 1) on >tolerance slowdowns.",
        baseline::OBSERVATORY_DATASETS.join(", ")
    )
}

fn parse_bench_args(argv: &[String]) -> Result<BenchArgs, String> {
    let mut args = BenchArgs { check: false, update: false, path: None, tolerance: None };
    let mut flags = Flags::new(argv);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--check-regression" => args.check = true,
            "--update-baseline" => args.update = true,
            "--baseline" => args.path = Some(flags.value(flag)?.to_string()),
            "--tolerance" => {
                let t: f64 = flags.parse(flag)?;
                if t.is_nan() || t < 0.0 {
                    return Err("--tolerance must be a non-negative percentage".into());
                }
                args.tolerance = Some(t);
            }
            other => return Err(cli::unknown(other)),
        }
    }
    if args.check && args.update {
        return Err("--check-regression and --update-baseline are mutually exclusive".into());
    }
    Ok(args)
}

fn baseline_path(args: &BenchArgs) -> std::path::PathBuf {
    match &args.path {
        Some(p) => std::path::PathBuf::from(p),
        None => crate::results_dir().join("baseline.json"),
    }
}

fn print_measurements(fresh: &[Entry]) {
    println!("  {:16} {:>16}", "bench", "median_s");
    for e in fresh {
        println!("  {:16} {:>16.9e}", e.id, e.median_s);
    }
}

fn print_deltas(deltas: &[Delta], tolerance: f64) {
    println!(
        "  {:16} {:>16} {:>16} {:>9}  (tolerance {:.1}%)",
        "bench", "baseline_s", "fresh_s", "delta", tolerance
    );
    for d in deltas {
        println!(
            "  {:16} {:>16.9e} {:>16.9e} {:>+8.1}%  {}",
            d.id,
            d.base_s,
            d.fresh_s,
            d.delta_pct,
            if d.regressed { "REGRESSED" } else { "ok" }
        );
    }
}

/// Entry point for `spgemm bench ...`; returns the process exit code.
pub fn run_bench(argv: &[String]) -> i32 {
    let args = match parse_bench_args(argv) {
        Ok(args) => args,
        Err(msg) => return cli::usage_error(&msg, &usage()),
    };
    let path = baseline_path(&args);
    println!("== perf observatory (proposal, f32, sim backend) ==");
    let fresh = baseline::measure_observatory();

    if args.update {
        let b = Baseline {
            tolerance_pct: args.tolerance.unwrap_or(baseline::DEFAULT_TOLERANCE_PCT),
            entries: fresh.clone(),
        };
        print_measurements(&fresh);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create baseline dir");
        }
        std::fs::write(&path, baseline::to_json(&b)).expect("write baseline");
        println!("baseline    : wrote {} ({} entries)", path.display(), b.entries.len());
        return 0;
    }

    if args.check {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!(
                    "cannot read baseline {} ({e}); run `spgemm bench --update-baseline` first",
                    path.display()
                );
                return 2;
            }
        };
        let base = match baseline::from_json(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("bad baseline {}: {e}", path.display());
                return 2;
            }
        };
        let tolerance = args.tolerance.unwrap_or(base.tolerance_pct);
        let deltas = match baseline::compare(&base, &fresh, tolerance) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("baseline mismatch: {e}");
                return 1;
            }
        };
        print_deltas(&deltas, tolerance);
        let regressed = deltas.iter().filter(|d| d.regressed).count();
        if regressed > 0 {
            println!("regression  : {regressed} of {} entries exceeded tolerance", deltas.len());
            return 1;
        }
        println!("regression  : none ({} entries within {tolerance:.1}%)", deltas.len());
        return 0;
    }

    print_measurements(&fresh);
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<BenchArgs, String> {
        parse_bench_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn modes_and_values_parse() {
        let none = BenchArgs { check: false, update: false, path: None, tolerance: None };
        assert_eq!(parse("").unwrap(), none);
        let a = parse("--check-regression --baseline b.json --tolerance 2.5").unwrap();
        assert_eq!(
            a,
            BenchArgs { check: true, path: Some("b.json".into()), tolerance: Some(2.5), ..none }
        );
        assert!(parse("--update-baseline --tolerance 0").unwrap().update);
    }

    #[test]
    fn bad_input_is_an_error_not_an_exit() {
        for bad in [
            "--bogus",
            "--baseline",
            "--tolerance",
            "--tolerance five",
            "--tolerance -1",
            "--tolerance NaN",
            "--check-regression --update-baseline",
            "--help",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(
            parse("--tolerance -1").unwrap_err(),
            "--tolerance must be a non-negative percentage"
        );
        assert_eq!(parse("--help").unwrap_err(), "");
    }
}
