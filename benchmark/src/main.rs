//! `nsbench` — the repository benchmark, timed from outside through
//! public calls only.
//!
//! ```text
//! nsbench [run] --workload W [--seed S] [--seconds T] [--trace 0|1]
//!               [--smoke] [--out FILE] [--spans FILE] [--tag TEXT]
//! nsbench compare BASE_DIR NEW_DIR
//! ```
//!
//! `run` prints every metric by name and unit, checks outputs bitwise,
//! and ends its standard output with one JSON line: `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end with `--trace 0`,
//! per-layer with `--trace 1`). `--out` also writes that record, with
//! the workload, seed, tag and core count, for `compare`. It exits
//! non-zero when any operation failed or any output differed. See
//! README.md.

mod compare;
mod json;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Inputs, Params, Workload};

/// `run_seconds` of `BENCHMARK.json`, the default window length.
const DEFAULT_SECONDS: f64 = 20.0;

/// The benchmark's declaration, `BENCHMARK.json` at the repository root.
pub fn bench_decl() -> Result<Json, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text)
}

struct Cli {
    params: Params,
    traced: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
    tag: String,
}

fn parse_run(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut cli = Cli {
        params: Params {
            workload: Workload::PaperSim,
            seed: 1,
            seconds: DEFAULT_SECONDS,
            smoke: false,
        },
        traced: false,
        out: None,
        spans: None,
        tag: String::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cli.params.smoke = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => cli.params.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.params.seconds = val.parse().map_err(|_| bad())?;
                if !(cli.params.seconds >= 0.0 && cli.params.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cli.traced = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                }
            }
            "--out" => cli.out = Some(PathBuf::from(val)),
            "--spans" => cli.spans = Some(PathBuf::from(val)),
            "--tag" => cli.tag = val.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cli.params.workload = workload.ok_or("--workload is required")?;
    if cli.params.smoke {
        cli.params.seconds = cli.params.seconds.min(1.0);
    }
    Ok(cli)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(cli: Cli) -> Result<bool, String> {
    let p = cli.params;
    let setup = workloads::setup(&p);
    let setup_s = setup.setup_s;
    let (outcome, spans) = if cli.traced {
        let (o, tr) = trace::run_trace(&p, setup);
        (o, Some(tr))
    } else {
        let mut o = match setup.inputs {
            Inputs::Library(lib) => run::run_library(&p, &lib),
            Inputs::Serve(s, eng) => run::run_serve(&p, &s, eng),
        };
        o.values.insert("setup_s", setup_s);
        (o, None)
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for (name, unit) in metrics::catalogue(cli.traced) {
        println!("{name:<30} {:>16} {unit}", outcome.values.get(name).copied().unwrap_or(f64::NAN));
    }
    let line =
        metrics::result_line(cli.traced, outcome.attempted, outcome.failed, &outcome.values)?;
    obs::json::validate(&line).map_err(|at| format!("result line is not JSON at byte {at}"))?;
    if let Some(tr) = spans {
        let default = Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
            "{}-seed{}.spans.jsonl",
            p.workload.name(),
            p.seed
        ));
        let path = cli.spans.unwrap_or(default);
        write(&path, &tr.to_jsonl())?;
        println!("spans: {}", path.display());
    }
    if let Some(path) = &cli.out {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let record = format!(
            "{{\"tag\":{},\"nproc\":{nproc},\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\
             \"trace\":{},\"smoke\":{},{}\n",
            obs::json::quote(&cli.tag),
            p.workload.name(),
            p.seed,
            json::num(p.seconds),
            u8::from(cli.traced),
            p.smoke,
            &line[1..]
        );
        obs::json::validate(&record)
            .map_err(|at| format!("run record is not JSON at byte {at}"))?;
        write(path, &record)?;
    }
    println!("{line}");
    Ok(outcome.failed == 0)
}

fn compare_dirs(base: &Path, new: &Path) -> Result<bool, String> {
    let rules = compare::rules(&bench_decl()?);
    let rows = compare::compare(&compare::load_dir(base)?, &compare::load_dir(new)?, &rules);
    print!("{}", compare::render(&rows));
    Ok(rows.iter().all(|r| r.verdict != compare::Verdict::Regressed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [base, new] => compare_dirs(Path::new(base), Path::new(new)),
            _ => Err("usage: nsbench compare BASE_DIR NEW_DIR".into()),
        },
        Some("run") => parse_run(&args[1..]).and_then(run),
        _ => parse_run(&args).and_then(run),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("nsbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn declared(key: &str) -> BTreeSet<(String, String)> {
        let bench = bench_decl().expect("BENCHMARK.json parses");
        bench
            .get(key)
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    /// Is `s` a valid metric name: a letter or digit first, then at most 63
    /// more of letters, digits, `_`, `.` and `-`.
    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
    }

    fn catalogued(traced: bool) -> BTreeSet<(String, String)> {
        metrics::catalogue(traced).iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn emitted_metrics_are_the_declared_ones() {
        assert_eq!(catalogued(false), declared("end_to_end"));
        assert_eq!(catalogued(true), declared("per_layer"));
        for (name, _) in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
            assert!(valid_name(name), "{name}");
        }
        let bench = bench_decl().unwrap();
        let workloads: Vec<&str> = bench
            .get("workloads")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        assert_eq!(bench.get("run_seconds").and_then(Json::as_f64), Some(DEFAULT_SECONDS));
    }

    #[test]
    fn result_lines_are_valid_json_with_every_metric() {
        for traced in [false, true] {
            let mut values = metrics::Values::new();
            for (i, (name, _)) in metrics::catalogue(traced).iter().enumerate() {
                values.insert(name, 0.1 * i as f64 + 1e-9);
            }
            let line = metrics::result_line(traced, 25, 0, &values).unwrap();
            obs::json::validate(&line).unwrap();
            let v = Json::parse(&line).unwrap();
            let keys: Vec<&String> = v.as_obj().unwrap().keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(v.get("metrics").and_then(Json::as_obj).unwrap().len(), values.len());
            values.remove(metrics::catalogue(traced)[0].0);
            assert!(metrics::result_line(traced, 25, 0, &values).is_err(), "missing metric");
        }
        assert!(valid_name("cache.hit_ratio") && !valid_name("_x"));
        assert!(!valid_name("a b") && !valid_name(&"x".repeat(65)));
    }

    #[test]
    fn smoke_runs_pass_and_spans_nest_per_job() {
        // A tiny untraced and traced run of the cheapest workload: the
        // whole path from inputs to a validated result line and span log.
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test.spans.jsonl");
        for traced in [false, true] {
            let cli = Cli {
                params: Params {
                    workload: Workload::ServePressure,
                    seed: 2,
                    seconds: 0.0,
                    smoke: true,
                },
                traced,
                out: None,
                spans: Some(path.clone()),
                tag: String::new(),
            };
            assert_eq!(run(cli), Ok(true));
        }
        let text = std::fs::read_to_string(&path).expect("the traced run wrote its spans");
        let spans: Vec<Json> =
            text.lines().map(|l| Json::parse(l).expect("span is JSON")).collect();
        assert!(spans.len() > 8);
        let num = |s: &Json, k| s.get(k).and_then(Json::as_f64).expect("numeric span field");
        for s in &spans {
            let Some(p) = s.get("parent").and_then(Json::as_f64) else { continue };
            let root = &spans[p as usize];
            assert_eq!(root.get("parent"), Some(&Json::Null), "layers hang off their job's root");
            assert_eq!(num(root, "job"), num(s, "job"));
            assert!(num(root, "start_us") <= num(s, "start_us"));
            assert!(num(s, "end_us") <= num(root, "end_us"));
        }
    }
}
