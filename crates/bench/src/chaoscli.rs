//! `spgemm chaos` — the deterministic chaos-soak CLI (DESIGN.md §17).
//!
//! Drives [`engine::run_chaos`]: a seeded hostile job mix (recoverable
//! OOMs, transient and persistent kernel faults, expired deadlines,
//! self-cancelling jobs, queue-overflow shedding, optionally a
//! contained worker panic) through the engine at any worker count,
//! then checks every invariant — outcome conservation, zero budget
//! leaks, the per-job outcome oracle, and bitwise identity of every
//! completed product against standalone `multiply`. All output on
//! stdout is a pure function of the flags, so CI diffs two runs (or
//! two worker counts) byte-for-byte.
//!
//! Exit codes: 0 all invariants held, 1 violations, 2 usage.

use engine::{run_chaos, ChaosConfig};

fn usage() -> ! {
    eprintln!(
        "usage: spgemm chaos [--seed S] [--jobs N] [--workers N] [--dim N] \
         [--queue-depth N] [--shed-jobs N] [--retry-budget N] \
         [--force-open] [--panic-at JOB] [--no-verify] \
         [--sanitize] [--san-jsonl PATH]\n\
         Seeded chaos soak against the SpGEMM job engine: hostile job mixes\n\
         (device faults, expired deadlines, cancellations, queue overflow,\n\
         optional worker panic) with every invariant checked after the run.\n\
         Deterministic: same flags => byte-identical stdout, at any --workers.\n\
         --force-open pins the circuit breaker open so every job runs on the\n\
         host failover backend (bitwise-identical outputs, faults ignored);\n\
         --panic-at J injects a contained worker panic into job J;\n\
         --sanitize runs every sim job under the device-memory sanitizer\n\
         (any violation fails its job and the soak);\n\
         --san-jsonl PATH writes the sanitizer activity totals as JSONL\n\
         (byte-deterministic at --workers 1)."
    );
    std::process::exit(2);
}

fn parse_chaos_args(argv: &[String]) -> (ChaosConfig, Option<String>) {
    let mut cfg = ChaosConfig::default();
    let mut san_jsonl = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--sanitize" => cfg.sanitize = true,
            "--san-jsonl" => san_jsonl = Some(value()),
            "--seed" => cfg.seed = value().parse().unwrap_or_else(|_| usage()),
            "--jobs" => cfg.jobs = value().parse().unwrap_or_else(|_| usage()),
            "--workers" => cfg.workers = value().parse().unwrap_or_else(|_| usage()),
            "--dim" => cfg.rows = value().parse().unwrap_or_else(|_| usage()),
            "--queue-depth" => cfg.max_queue_depth = value().parse().unwrap_or_else(|_| usage()),
            "--shed-jobs" => cfg.shed_jobs = value().parse().unwrap_or_else(|_| usage()),
            "--retry-budget" => cfg.retry_budget = value().parse().unwrap_or_else(|_| usage()),
            "--panic-at" => cfg.panic_at = Some(value().parse().unwrap_or_else(|_| usage())),
            "--force-open" => cfg.force_open = true,
            "--no-verify" => cfg.verify = false,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag '{other}'");
                usage()
            }
        }
    }
    if cfg.jobs == 0 || cfg.workers == 0 || cfg.rows < 2 {
        eprintln!("--jobs and --workers must be > 0, --dim at least 2");
        usage();
    }
    if san_jsonl.is_some() && !cfg.sanitize {
        eprintln!("--san-jsonl requires --sanitize");
        usage();
    }
    (cfg, san_jsonl)
}

/// Entry point for `spgemm chaos ...`; returns the process exit code.
pub fn run_chaos_cli(argv: &[String]) -> i32 {
    let (cfg, san_jsonl) = parse_chaos_args(argv);
    let rep = run_chaos(&cfg);
    let s = &rep.stats;
    // Every line below is deterministic for a given flag set: CI
    // compares whole stdouts across runs and worker counts.
    println!(
        "chaos       : seed {}, {} jobs, {} workers, queue depth {}, retry budget {}",
        cfg.seed, cfg.jobs, cfg.workers, cfg.max_queue_depth, cfg.retry_budget
    );
    println!(
        "backend     : {}",
        if cfg.force_open { "host (breaker forced open)" } else { "sim (primary)" }
    );
    println!(
        "outcomes    : {} completed, {} failed, {} shed, {} cancelled, {} deadline-exceeded",
        s.completed, s.failed, s.shed, s.cancelled, s.deadline_exceeded
    );
    println!(
        "hostility   : {} panics contained, {} backoff retries, {} breaker openings",
        s.panicked_jobs, s.backoff_retries, s.breaker_open_total
    );
    println!("conservation: {}", if s.conserved() { "ok" } else { "FAILED" });
    println!(
        "leak check  : {}",
        if s.budget_drained { "ok (budget drained)" } else { "FAILED (budget not drained)" }
    );
    if cfg.verify {
        println!("verify      : bitwise vs standalone multiply for every completed job");
    }
    if cfg.sanitize {
        // Only the report count goes to stdout: it is scheduling-
        // invariant, so stdout stays a pure function of the flags at
        // any worker count. The activity totals (allocs, bytes
        // checked) can vary when concurrent jobs race the plan cache
        // (both plan cold), so they live in the --san-jsonl artifact,
        // whose byte-determinism CI gates at --workers 1.
        println!(
            "sanitizer   : {} ({} reports)",
            if s.san.reports == 0 { "ok" } else { "FAILED" },
            s.san.reports
        );
        if let Some(path) = &san_jsonl {
            if let Err(e) = std::fs::write(path, format!("{}\n", s.san.to_json())) {
                eprintln!("failed to write {path}: {e}");
                return 2;
            }
        }
    }
    println!("digest      : {:016x}", rep.digest);
    if rep.violations.is_empty() {
        println!("invariants  : ok (0 violations)");
        0
    } else {
        println!("invariants  : FAILED ({} violations)", rep.violations.len());
        for v in &rep.violations {
            println!("  - {v}");
        }
        1
    }
}
