//! `spgemm serve` — the engine's serving-mode CLI.
//!
//! Runs the deterministic multi-job driver ([`engine::run_driver`])
//! against a fresh engine: a seeded mix of SpGEMM jobs over a small
//! pattern pool, pushed through admission control, the plan cache and
//! the worker pool, then (with `--verify`) diffed bitwise against
//! standalone `multiply`. Prints admission counters, cache counters,
//! latency percentiles and the budget leak check; `--out-dir` writes
//! each job's product as Matrix Market so CI can `cmp` runs at
//! different worker counts.
//!
//! Exit codes: 0 ok, 1 job failures or verify mismatches, 2 usage,
//! 3 budget leak.

use engine::{run_driver, DriverConfig, DriverReport};
use nsparse_core::{Backend, Estimator};
use sparse::Scalar;
use vgpu::DeviceConfig;

struct ServeArgs {
    driver: DriverConfig,
    precision: String,
    out_dir: Option<String>,
    trace_jobs: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: spgemm serve [--jobs N] [--workers N] [--seed S] \
         [--backend sim|host|host:N] [--dim N] [--nnz-per-row F] [--patterns N] \
         [--budget BYTES[K|M|G]] [--cache N] [--precision f32|f64] \
         [--estimator exact|sampled[:K]] \
         [--faults] [--no-verify] [--out-dir DIR] [--trace-jobs PATH]\n\
         Runs the deterministic multi-job driver through the SpGEMM engine:\n\
         admission control against a shared device-memory budget, plan cache\n\
         keyed on sparsity structure, batched fallback for oversized or\n\
         faulted jobs. --out-dir writes each job's product as jobNN.mtx;\n\
         verification diffs every output bitwise against standalone multiply.\n\
         --trace-jobs enables per-job span trees and writes the engine\n\
         flight-recorder dump as JSONL to PATH (plus PATH.chrome.json)."
    );
    std::process::exit(2);
}

fn parse_bytes(s: &str) -> Option<u64> {
    let (digits, mult) = match s.chars().last()? {
        'K' | 'k' => (&s[..s.len() - 1], 1u64 << 10),
        'M' | 'm' => (&s[..s.len() - 1], 1 << 20),
        'G' | 'g' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    let v: u64 = digits.parse().ok()?;
    (v > 0).then(|| v.saturating_mul(mult))
}

fn parse_serve_args(argv: &[String]) -> ServeArgs {
    let mut args = ServeArgs {
        driver: DriverConfig::default(),
        precision: "f64".into(),
        out_dir: None,
        trace_jobs: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--jobs" => args.driver.jobs = value().parse().unwrap_or_else(|_| usage()),
            "--workers" => args.driver.workers = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.driver.seed = value().parse().unwrap_or_else(|_| usage()),
            "--backend" => {
                let spec = value().to_ascii_lowercase();
                args.driver.backend = Backend::parse(&spec).unwrap_or_else(|| {
                    eprintln!("unknown backend '{spec}' (sim, host, host:N)");
                    usage()
                });
            }
            "--dim" => args.driver.dim = value().parse().unwrap_or_else(|_| usage()),
            "--nnz-per-row" => {
                args.driver.nnz_per_row = value().parse().unwrap_or_else(|_| usage())
            }
            "--patterns" => args.driver.patterns = value().parse().unwrap_or_else(|_| usage()),
            "--budget" => {
                let spec = value();
                args.driver.budget_bytes = Some(parse_bytes(&spec).unwrap_or_else(|| {
                    eprintln!("bad --budget '{spec}' (e.g. 4G, 256M, 65536)");
                    usage()
                }));
            }
            "--cache" => args.driver.cache_capacity = value().parse().unwrap_or_else(|_| usage()),
            "--estimator" => {
                let spec = value();
                args.driver.opts.estimator = Estimator::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("bad --estimator '{spec}': {e}");
                    usage()
                });
            }
            "--precision" => args.precision = value().to_ascii_lowercase(),
            "--faults" => args.driver.faults = true,
            "--no-verify" => args.driver.verify = false,
            "--out-dir" => args.out_dir = Some(value()),
            "--trace-jobs" => {
                args.trace_jobs = Some(value());
                args.driver.trace = true;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag '{other}'");
                usage()
            }
        }
    }
    if !matches!(args.precision.as_str(), "f32" | "f64") {
        eprintln!("precision must be f32 or f64");
        usage();
    }
    if args.driver.jobs == 0 || args.driver.dim < 2 {
        eprintln!("--jobs must be > 0 and --dim at least 2");
        usage();
    }
    args.driver.device = DeviceConfig::p100();
    args
}

fn print_report<T: Scalar>(args: &ServeArgs, rep: &DriverReport<T>) -> i32 {
    let s = &rep.stats;
    let backend = match args.driver.backend {
        Backend::Sim => "sim".to_string(),
        Backend::Host { threads } => format!("host ({threads} threads)"),
    };
    println!("backend     : {backend}");
    println!("workers     : {}", args.driver.workers);
    println!(
        "jobs        : {} submitted, {} failed (precision {}, faults {})",
        s.jobs,
        s.failed,
        T::PRECISION,
        if args.driver.faults { "on" } else { "off" }
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
        args.driver.opts.estimator, s.sampled_plans, s.replanned_rows
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
    if args.driver.verify {
        if rep.mismatches == 0 {
            println!("verify      : ok (all outputs bitwise-identical to standalone multiply)");
        } else {
            println!("verify      : FAILED ({} of {} outputs differ)", rep.mismatches, s.jobs);
        }
    }
    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir).expect("create --out-dir");
        for (i, r) in rep.records.iter().enumerate() {
            if let Ok(c) = &r.output {
                let path = format!("{dir}/job{i:02}.mtx");
                sparse::io::write_matrix_market_file(c, &path).expect("write job output");
            }
        }
        println!("outputs     : {dir}/jobNN.mtx");
    }
    if let Some(path) = &args.trace_jobs {
        let dump = rep.flight_dump.as_deref().expect("trace enabled but no flight dump");
        for (i, line) in dump.lines().enumerate() {
            obs::json::validate(line)
                .unwrap_or_else(|e| panic!("flight dump line {} is not valid JSON: {e}", i + 1));
        }
        std::fs::write(path, dump).expect("write --trace-jobs dump");
        let chrome_path = format!("{path}.chrome.json");
        let chrome = rep.flight_chrome.as_deref().expect("trace enabled but no chrome export");
        obs::json::validate(chrome).expect("chrome export is not valid JSON");
        std::fs::write(&chrome_path, chrome).expect("write chrome trace");
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

/// Entry point for `spgemm serve ...`; returns the process exit code.
pub fn run_serve(argv: &[String]) -> i32 {
    let args = parse_serve_args(argv);
    if args.precision == "f32" {
        let rep = run_driver::<f32>(&args.driver);
        print_report(&args, &rep)
    } else {
        let rep = run_driver::<f64>(&args.driver);
        print_report(&args, &rep)
    }
}
