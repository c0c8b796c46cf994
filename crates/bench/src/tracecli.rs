//! What `spgemm trace` adds to the main command's report: the phase ×
//! kernel × stream table, per-stream utilization, per-group row
//! populations, hash probe-length histograms and peak-memory
//! attribution, read from the virtual device's telemetry, plus the
//! machine-readable exports (`--jsonl`, `--chrome-trace`, `--check`).
//! `trace --per-job` runs the seeded engine driver instead and prints a
//! per-job stage table.
//!
//! The run itself is [`crate::runcli`]'s. It is fully deterministic:
//! identical arguments produce byte-identical exports.

use crate::cli;
use crate::runcli::RunArgs;
use sparse::Scalar;
use std::time::Duration;
use vgpu::{Gpu, Phase, SimTime, SpgemmReport};

/// Scaled ASCII bar for histogram rendering.
fn bar(count: u64, max: u64, width: usize) -> String {
    let n = if max == 0 { 0 } else { (count as usize * width).div_ceil(max as usize) };
    "#".repeat(n)
}

fn print_histogram(name: &str, h: &obs::Log2Histogram) {
    let nz = h.nonzero_buckets();
    if nz.is_empty() {
        return;
    }
    println!(
        "  {name}: n={} sum={} min={} max={} mean={:.2}",
        h.count(),
        h.sum(),
        h.min().unwrap_or(0),
        h.max().unwrap_or(0),
        h.mean()
    );
    let peak = nz.iter().map(|&(_, c)| c).max().unwrap_or(1);
    for (lower, count) in nz {
        println!("    >= {lower:>10}  {count:>10}  {}", bar(count, peak, 40));
    }
}

/// Nearest-rank percentile over a sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * p / 100.0).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// `trace --per-job`: the seeded driver with job tracing, rendered as a
/// per-job stage table. Queue-wait and latency are wall-clock (vary run
/// to run); symbolic/numeric are simulated device time (deterministic).
/// Takes the driver flags `serve` takes; returns the exit code.
pub fn run_per_job(argv: &[String]) -> i32 {
    let args = match parse_per_job(argv) {
        Ok(args) => args,
        Err(msg) => return cli::usage_error(&msg, &crate::runcli::usage()),
    };
    if args.f64 {
        per_job_report(&engine::run_driver::<f64>(&args.cfg), &args.cfg)
    } else {
        per_job_report(&engine::run_driver::<f32>(&args.cfg), &args.cfg)
    }
}

/// `trace --per-job ...`: the driver flags `serve` takes, with tracing on.
fn parse_per_job(argv: &[String]) -> Result<cli::DriverArgs, String> {
    let mut args = cli::parse_driver_args(argv, |flag, _| Ok(flag == "--per-job"))?;
    args.cfg.trace = true;
    Ok(args)
}

/// Simulated time of `phases` in one job's report, in µs (0 on the host
/// backend, which has no simulated clock).
fn phase_us<T>(out: &engine::JobOutput<T>, phases: &[Phase]) -> f64 {
    out.report
        .phase_times
        .iter()
        .filter(|(p, _)| phases.contains(p))
        .map(|&(_, t)| t.us())
        .sum::<f64>()
        .max(0.0)
}

fn per_job_report<T: Scalar>(rep: &engine::DriverReport<T>, cfg: &engine::DriverConfig) -> i32 {
    println!(
        "== per-job stages (seed {}, {} jobs, {} workers, faults {}) ==",
        cfg.seed,
        cfg.jobs,
        cfg.workers,
        if cfg.faults { "on" } else { "off" }
    );
    println!(
        "  {:>3} {:>8} {:>7} {:>14} {:>12} {:>12} {:>12} {:>8}",
        "job",
        "route",
        "cache",
        "queue-wait us",
        "latency us",
        "symbolic us",
        "numeric us",
        "retries"
    );
    let us = |d: Duration| d.as_micros() as f64;
    // One row per job: route, cache, then the four stage columns and the
    // retries; a failed job reads "failed", "-" and zeros.
    let rows: Vec<(&str, &str, [f64; 5])> = rep
        .records
        .iter()
        .map(|r| match r {
            Ok(out) => (
                match out.route {
                    engine::Route::Direct => "direct",
                    engine::Route::Batched => "batched",
                },
                match out.cache {
                    engine::CacheOutcome::Hit => "hit",
                    engine::CacheOutcome::Miss => "miss",
                    engine::CacheOutcome::Bypass => "bypass",
                },
                [
                    us(out.queue_wait),
                    us(out.latency),
                    phase_us(out, &[Phase::Setup, Phase::Count]),
                    phase_us(out, &[Phase::Malloc, Phase::Calc]),
                    f64::from(out.batched_retries),
                ],
            ),
            Err(_) => ("failed", "-", [0.0; 5]),
        })
        .collect();
    for (i, (route, cache, [queue_wait, latency, symbolic, numeric, retries])) in
        rows.iter().enumerate()
    {
        println!(
            "  {i:>3} {route:>8} {cache:>7} {queue_wait:>14} {latency:>12} {symbolic:>12.1} \
             {numeric:>12.1} {retries:>8}"
        );
    }
    println!("\n  {:14} {:>12} {:>12} {:>12}", "stage", "p50", "p90", "p99");
    let stages = ["queue-wait us", "latency us", "symbolic us", "numeric us"];
    for (k, name) in stages.into_iter().enumerate() {
        let mut v: Vec<f64> = rows.iter().map(|(_, _, cols)| cols[k]).collect();
        v.sort_by(f64::total_cmp);
        println!(
            "  {name:14} {:>12.1} {:>12.1} {:>12.1}",
            percentile(&v, 50.0),
            percentile(&v, 90.0),
            percentile(&v, 99.0)
        );
    }
    let retries: f64 = rows.iter().map(|(_, _, cols)| cols[4]).sum();
    println!(
        "\n  batched retries: {retries} total; {} of {} jobs failed",
        rep.failures,
        rep.records.len()
    );
    if let Some(t) = &rep.flight_trigger {
        println!("  flight trig  : {t}");
    }
    if rep.failures > 0 {
        1
    } else {
        0
    }
}

/// The trace tables, printed after the report of a successful run.
/// Logs the peak-memory holders into the telemetry, so the JSONL
/// export carries the attribution too.
pub fn print_tables(gpu: &mut Gpu, report: &SpgemmReport) {
    println!("\nhash probes : {}", report.hash_probes);
    println!("\n== kernels (phase x kernel x stream) ==");
    println!(
        "  {:10} {:24} {:>6} {:>8} {:>8} {:>14}",
        "phase", "kernel", "stream", "launches", "blocks", "time"
    );
    let timeline = gpu.timeline();
    for k in timeline.kernel_table() {
        println!(
            "  {:10} {:24} {:>6} {:>8} {:>8} {:>14}",
            k.phase.label(),
            k.name,
            k.stream,
            k.launches,
            k.blocks,
            k.time.to_string()
        );
    }

    println!("\n== streams ==");
    let wall = match timeline.wall_span() {
        Some((t0, t1)) => t1 - t0,
        None => SimTime::ZERO,
    };
    println!("  {:>6} {:>8} {:>14} {:>6}", "stream", "kernels", "busy", "util");
    for s in timeline.stream_utilization() {
        println!(
            "  {:>6} {:>8} {:>14} {:>5.1}%",
            s.stream,
            s.kernels,
            s.busy.to_string(),
            100.0 * s.utilization(wall)
        );
    }

    if let Some(registry) = gpu.telemetry().map(|t| &t.registry) {
        println!("\n== group populations ==");
        println!("  {:24} {:>10}", "group", "rows");
        for (name, h) in registry.hists() {
            if let Some(group) = name.strip_suffix(".row_metric") {
                println!("  {group:24} {:>10}", h.count());
            }
        }
        println!("\n== histograms ==");
        for (name, h) in registry.hists() {
            if name.ends_with(".probe_len") || name.ends_with(".row_metric") {
                print_histogram(name, h);
            }
        }
    }

    println!("\n== peak memory attribution ==");
    for (tag, bytes) in gpu.memory().peak_breakdown() {
        println!(
            "  {:24} {:>14} B  {:5.1}%",
            tag,
            bytes,
            100.0 * *bytes as f64 / report.peak_mem_bytes.max(1) as f64
        );
    }
    gpu.log_peak_holders();
}

/// Write the run's exports — the Chrome trace (`--trace` /
/// `--chrome-trace`) and, under `trace`, the JSONL event log — and with
/// `--check` validate both. Exports are deterministic: identical runs
/// write identical bytes. Returns `false` when a check fails.
pub fn export(gpu: &Gpu, args: &RunArgs) -> bool {
    let mut ok = true;
    let jsonl = gpu.telemetry().map(obs::Telemetry::to_jsonl).unwrap_or_default();
    let chrome = gpu.timeline().chrome_trace();
    if args.check {
        let checks = [
            ("jsonl", jsonl.lines().try_for_each(obs::json::validate)),
            ("chrome-trace", obs::json::validate(&chrome)),
        ];
        for (what, result) in checks {
            match result {
                Ok(()) => println!("check {what}: ok"),
                Err(pos) => {
                    eprintln!("check {what}: INVALID JSON at byte {pos}");
                    ok = false;
                }
            }
        }
    }
    if let Some(path) = &args.jsonl {
        std::fs::write(path, &jsonl).expect("write jsonl");
        println!("jsonl       : {path} ({} events)", jsonl.lines().count());
    }
    if let Some(path) = &args.chrome_trace {
        std::fs::write(path, &chrome).expect("write chrome trace");
        println!("trace       : {path} (open at chrome://tracing or ui.perfetto.dev)");
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn per_job_takes_the_driver_flags_serve_takes() {
        let a = parse_per_job(&argv(
            "--per-job --jobs 6 --workers 3 --seed 9 --backend host:2 --dim 64 \
             --nnz-per-row 4 --patterns 2 --budget 64K --cache 4 --estimator sampled:8 \
             --precision f32 --faults --no-verify",
        ))
        .unwrap();
        let c = &a.cfg;
        assert!(c.trace && c.faults && !c.verify && !a.f64);
        assert_eq!((c.jobs, c.workers, c.seed, c.dim, c.patterns), (6, 3, 9, 64, 2));
        assert_eq!((c.budget_bytes, c.cache_capacity), (Some(64 << 10), 4));
        assert!(parse_per_job(&argv("--per-job")).unwrap().f64, "f64 is the default");
        for serve_only in ["--out-dir d", "--trace-jobs t.jsonl", "--dataset QCD"] {
            let line = format!("--per-job {serve_only}");
            assert!(parse_per_job(&argv(&line)).is_err(), "{line:?} must be rejected");
        }
    }
}
