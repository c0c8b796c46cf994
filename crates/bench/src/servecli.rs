//! `spgemm serve` — the engine's serving-mode CLI.
//!
//! Runs the deterministic multi-job driver ([`engine::run_driver`])
//! against a fresh engine: a seeded mix of SpGEMM jobs over a small
//! pattern pool, pushed through admission control, the plan cache and
//! the worker pool, then (with `--verify`) diffed bitwise against
//! standalone `multiply`. Prints admission counters, cache counters,
//! latency percentiles and the budget leak check; `--out-dir` writes
//! each job's product as Matrix Market. That products do not depend on
//! the worker count is a tier-1 test (`tests/engine.rs`
//! `engine_products_are_bitwise_identical_across_worker_counts`).
//!
//! Exit codes: 0 ok, 1 job failures or verify mismatches, 2 usage or
//! an unwritable output path, 3 budget leak.

use crate::cli::{self, DriverArgs};
use engine::{run_driver, DriverReport};
use nsparse_core::Backend;
use sparse::Scalar;

struct ServeArgs {
    driver: DriverArgs,
    out_dir: Option<String>,
    trace_jobs: Option<String>,
}

fn usage() -> String {
    format!(
        "usage: spgemm serve {} [--out-dir DIR] [--trace-jobs PATH]\n\
         Runs the deterministic multi-job driver through the SpGEMM engine:\n\
         admission control against a shared device-memory budget, plan cache\n\
         keyed on sparsity structure, batched fallback for oversized or\n\
         faulted jobs. --out-dir writes each job's product as jobNN.mtx;\n\
         verification diffs every output bitwise against standalone multiply.\n\
         --trace-jobs enables per-job span trees and writes the engine\n\
         flight-recorder dump as JSONL to PATH (plus PATH.chrome.json).",
        cli::DRIVER_FLAGS
    )
}

fn parse_serve_args(argv: &[String]) -> Result<ServeArgs, String> {
    let (mut out_dir, mut trace_jobs) = (None, None);
    let mut driver = cli::parse_driver_args(argv, |flag, flags| {
        match flag {
            "--out-dir" => out_dir = Some(flags.value(flag)?.to_string()),
            "--trace-jobs" => trace_jobs = Some(flags.value(flag)?.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    driver.cfg.trace = trace_jobs.is_some();
    Ok(ServeArgs { driver, out_dir, trace_jobs })
}

fn print_report<T: Scalar>(args: &ServeArgs, rep: &DriverReport<T>) -> i32 {
    let s = &rep.stats;
    let backend = match args.driver.cfg.backend {
        Backend::Sim => "sim".to_string(),
        Backend::Host { threads } => format!("host ({threads} threads)"),
    };
    println!("backend     : {backend}");
    println!("workers     : {}", args.driver.cfg.workers);
    println!(
        "jobs        : {} submitted, {} failed (precision {}, faults {})",
        s.jobs,
        s.failed,
        T::PRECISION,
        if args.driver.cfg.faults { "on" } else { "off" }
    );
    println!(
        "outcomes    : {} completed, {} failed, {} shed, {} cancelled, {} deadline-exceeded \
         ({} panics contained)",
        s.completed, s.failed, s.shed, s.cancelled, s.deadline_exceeded, s.panicked_jobs
    );
    println!(
        "admission   : {} direct, {} waited for budget, {} batched, {} oom-fallback",
        s.admitted, s.queued, s.batched, s.fallback
    );
    println!(
        "plan cache  : {} hits, {} misses, {} evictions ({} cached, {} B, cap {})",
        s.cache.hits,
        s.cache.misses,
        s.cache.evictions,
        s.cache.len,
        s.cache.bytes,
        s.cache.capacity
    );
    println!(
        "symbolic    : {} cold runs for {} direct jobs ({} skipped via cache)",
        s.symbolic_runs, s.admitted, s.cache.hits
    );
    println!(
        "estimator   : {} ({} sampled plans, {} replanned rows)",
        args.driver.cfg.opts.estimator, s.sampled_plans, s.replanned_rows
    );
    println!(
        "latency     : p50 {} us, p90 {} us, p99 {} us, max {} us over {} jobs",
        s.latency.p50_us, s.latency.p90_us, s.latency.p99_us, s.latency.max_us, s.latency.count
    );
    println!(
        "queue wait  : p50 {} us, p90 {} us, p99 {} us, max {} us",
        s.queue_wait.p50_us, s.queue_wait.p90_us, s.queue_wait.p99_us, s.queue_wait.max_us
    );
    println!("budget      : {} B capacity, peak {} B reserved", s.budget_capacity, s.budget_peak);
    if args.driver.cfg.verify {
        if rep.mismatches == 0 {
            println!("verify      : ok (all outputs bitwise-identical to standalone multiply)");
        } else {
            println!("verify      : FAILED ({} of {} outputs differ)", rep.mismatches, s.jobs);
        }
    }
    if let Some(dir) = &args.out_dir {
        if let Err((path, e)) = write_outputs(dir, rep) {
            eprintln!("failed to write {path}: {e}");
            return 2;
        }
        println!("outputs     : {dir}/jobNN.mtx");
    }
    if let Some(path) = &args.trace_jobs {
        let dump = rep.flight_dump.as_deref().expect("trace enabled but no flight dump");
        for (i, line) in dump.lines().enumerate() {
            obs::json::validate(line)
                .unwrap_or_else(|e| panic!("flight dump line {} is not valid JSON: {e}", i + 1));
        }
        let chrome_path = format!("{path}.chrome.json");
        let chrome = rep.flight_chrome.as_deref().expect("trace enabled but no chrome export");
        obs::json::validate(chrome).expect("chrome export is not valid JSON");
        for (p, contents) in [(path, dump), (&chrome_path, chrome)] {
            if let Err(e) = std::fs::write(p, contents) {
                eprintln!("failed to write {p}: {e}");
                return 2;
            }
        }
        println!("job traces  : {path} ({} jobs), chrome trace {chrome_path}", s.jobs);
        if let Some(t) = &rep.flight_trigger {
            println!("flight trig : {t}");
        }
    }
    if s.budget_drained {
        println!("leak check  : ok (budget drained)");
    } else {
        println!("leak check  : FAILED (budget not drained)");
        return 3;
    }
    if rep.failures > 0 || rep.mismatches > 0 {
        return 1;
    }
    0
}

/// Write each completed job's product as `DIR/jobNN.mtx`. On failure,
/// the path that could not be written and why.
fn write_outputs<T: Scalar>(
    dir: &str,
    rep: &DriverReport<T>,
) -> Result<(), (String, std::io::Error)> {
    std::fs::create_dir_all(dir).map_err(|e| (dir.to_string(), e))?;
    for (i, r) in rep.records.iter().enumerate() {
        if let Ok(c) = &r.output {
            let path = format!("{dir}/job{i:02}.mtx");
            sparse::io::write_matrix_market_file(c, &path).map_err(|e| (path, e))?;
        }
    }
    Ok(())
}

/// Entry point for `spgemm serve ...`; returns the process exit code.
pub fn run_serve(argv: &[String]) -> i32 {
    let args = match parse_serve_args(argv) {
        Ok(args) => args,
        Err(msg) => return cli::usage_error(&msg, &usage()),
    };
    if args.driver.f64 {
        print_report(&args, &run_driver::<f64>(&args.driver.cfg))
    } else {
        print_report(&args, &run_driver::<f32>(&args.driver.cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_adds_its_output_flags_to_the_driver_flags() {
        let argv: Vec<String> =
            "--jobs 3 --budget 256K --out-dir d --trace-jobs t.jsonl --precision f32"
                .split_whitespace()
                .map(String::from)
                .collect();
        let a = parse_serve_args(&argv).unwrap();
        assert_eq!((a.driver.cfg.jobs, a.driver.cfg.budget_bytes), (3, Some(256 << 10)));
        assert!(a.driver.cfg.trace && !a.driver.f64);
        assert_eq!((a.out_dir.as_deref(), a.trace_jobs.as_deref()), (Some("d"), Some("t.jsonl")));
        assert!(!parse_serve_args(&[]).unwrap().driver.cfg.trace);
    }

    #[test]
    fn unwritable_output_paths_exit_2_instead_of_panicking() {
        let file = std::env::temp_dir().join(format!("serve-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, "a regular file").unwrap();
        let below = file.join("sub");
        let below = below.to_str().unwrap();
        for flag in ["--out-dir", "--trace-jobs"] {
            let argv: Vec<String> = format!("--jobs 2 --dim 32 --no-verify {flag} {below}")
                .split_whitespace()
                .map(String::from)
                .collect();
            assert_eq!(run_serve(&argv), 2, "{flag} below a regular file");
        }
        std::fs::remove_file(&file).unwrap();
    }
}
