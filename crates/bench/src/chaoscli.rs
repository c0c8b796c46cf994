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

use crate::cli::{self, Flags};
use engine::{run_chaos, ChaosConfig};
use nsparse_core::Backend;

fn usage() -> &'static str {
    "usage: spgemm chaos [--seed S] [--jobs N] [--workers N] [--dim N] \
     [--queue-depth N] [--shed-jobs N] [--retry-budget N] \
     [--backend sim|host|host:N] [--panic-at JOB] [--no-verify] \
     [--sanitize] [--san-jsonl PATH] [--san-canary KIND]\n\
     Seeded chaos soak against the SpGEMM job engine: hostile job mixes\n\
     (device faults, expired deadlines, cancellations, queue overflow,\n\
     optional worker panic) with every invariant checked after the run.\n\
     Deterministic: same flags => byte-identical stdout, at any --workers.\n\
     --backend host[:N] runs the soak on the host backend: no device, so\n\
     no device faults and no simulated deadline expires (outputs stay\n\
     bitwise identical to the sim);\n\
     --panic-at J injects a contained worker panic into job J;\n\
     --sanitize runs every job under the device-memory sanitizer (sim\n\
     backend only; any violation fails its job and the soak);\n\
     --san-jsonl PATH writes the sanitizer activity totals as JSONL\n\
     (byte-deterministic at --workers 1);\n\
     --san-canary KIND makes every sanitized job commit one violation\n\
     (leak, double-free, uaf, oob, uninit), so the soak must fail."
}

fn parse_chaos_args(argv: &[String]) -> Result<(ChaosConfig, Option<String>), String> {
    let mut cfg = ChaosConfig::default();
    let mut san_jsonl = None;
    let mut flags = Flags::new(argv);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--sanitize" => cfg.sanitize = true,
            "--san-jsonl" => san_jsonl = Some(flags.value(flag)?.to_string()),
            "--san-canary" => cfg.san_canary = Some(flags.value(flag)?.parse()?),
            "--seed" => cfg.seed = flags.parse(flag)?,
            "--jobs" => cfg.jobs = flags.parse(flag)?,
            "--workers" => cfg.workers = flags.parse(flag)?,
            "--dim" => cfg.rows = flags.parse(flag)?,
            "--queue-depth" => cfg.max_queue_depth = flags.parse(flag)?,
            "--shed-jobs" => cfg.shed_jobs = flags.parse(flag)?,
            "--retry-budget" => cfg.retry_budget = flags.parse(flag)?,
            "--panic-at" => cfg.panic_at = Some(flags.parse(flag)?),
            "--backend" => cfg.backend = cli::parse_backend(flags.value(flag)?)?,
            "--no-verify" => cfg.verify = false,
            other => return Err(cli::unknown(other)),
        }
    }
    if cfg.jobs == 0 || cfg.workers == 0 || cfg.rows < 2 {
        return Err("--jobs and --workers must be > 0, --dim at least 2".into());
    }
    if san_jsonl.is_some() && !cfg.sanitize {
        return Err("--san-jsonl requires --sanitize".into());
    }
    if cfg.san_canary.is_some() && !cfg.sanitize {
        return Err("--san-canary requires --sanitize".into());
    }
    if cfg.sanitize && cfg.backend != Backend::Sim {
        return Err("--sanitize requires the sim backend (the host has no device)".into());
    }
    Ok((cfg, san_jsonl))
}

/// Entry point for `spgemm chaos ...`; returns the process exit code.
pub fn run_chaos_cli(argv: &[String]) -> i32 {
    let (cfg, san_jsonl) = match parse_chaos_args(argv) {
        Ok(parsed) => parsed,
        Err(msg) => return cli::usage_error(&msg, usage()),
    };
    let rep = run_chaos(&cfg);
    let s = &rep.stats;
    // Every line below is deterministic for a given flag set: CI
    // compares whole stdouts across runs and worker counts.
    println!(
        "chaos       : seed {}, {} jobs, {} workers, queue depth {}, retry budget {}",
        cfg.seed, cfg.jobs, cfg.workers, cfg.max_queue_depth, cfg.retry_budget
    );
    println!("backend     : {}", cfg.backend);
    println!(
        "outcomes    : {} completed, {} failed, {} shed, {} cancelled, {} deadline-exceeded",
        s.completed, s.failed, s.shed, s.cancelled, s.deadline_exceeded
    );
    println!(
        "hostility   : {} panics contained, {} backoff retries",
        s.panicked_jobs, s.backoff_retries
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

#[cfg(test)]
mod tests {
    use super::*;
    use engine::SanCanary;

    fn parse(s: &str) -> Result<(ChaosConfig, Option<String>), String> {
        parse_chaos_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn values_parse_into_the_config() {
        let (c, san) = parse(
            "--seed 5 --jobs 1000 --workers 4 --dim 64 --queue-depth 32 --shed-jobs 8 \
             --retry-budget 2 --panic-at 5 --no-verify --sanitize --san-jsonl s.jsonl \
             --san-canary uaf",
        )
        .unwrap();
        assert_eq!((c.seed, c.jobs, c.workers, c.rows), (5, 1000, 4, 64));
        assert_eq!((c.max_queue_depth, c.shed_jobs, c.retry_budget), (32, 8, 2));
        assert_eq!(c.panic_at, Some(5));
        assert!(!c.verify && c.sanitize);
        assert_eq!(c.san_canary, Some(SanCanary::Uaf));
        assert_eq!(san.as_deref(), Some("s.jsonl"));
        let (h, _) = parse("--backend host:2").unwrap();
        assert_eq!(h.backend, Backend::Host { threads: 2 });
        let (d, san) = parse("").unwrap();
        assert_eq!((d.seed, d.jobs, d.panic_at, san), (1, 200, None, None));
        assert_eq!((d.backend, d.san_canary), (Backend::Sim, None));
    }

    #[test]
    fn bad_input_is_an_error_not_an_exit() {
        for bad in [
            "--bogus",
            "--seed",
            "--jobs many",
            "--panic-at -1",
            "--jobs 0",
            "--workers 0",
            "--dim 1",
            "--san-jsonl s.jsonl",
            "--san-canary leak",
            "--sanitize --san-canary bogus",
            "--backend gpu",
            "--backend host:2 --sanitize",
            "--help",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(parse("--san-canary leak").unwrap_err(), "--san-canary requires --sanitize");
        assert_eq!(
            parse("--sanitize --san-canary bogus").unwrap_err(),
            "unknown canary 'bogus' (leak, double-free, uaf, oob, uninit)"
        );
        assert_eq!(parse("--bogus").unwrap_err(), "unknown flag '--bogus'");
        assert_eq!(parse("--seed").unwrap_err(), "--seed needs a value");
        assert_eq!(parse("--help").unwrap_err(), "");
    }
}
