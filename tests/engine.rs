//! Integration: the SpGEMM job engine must be a transparent wrapper —
//! identical products to standalone `multiply` at any worker count, on
//! both backends, under cache hits, batched routing and injected
//! faults, with the shared admission budget drained at shutdown — and,
//! under hostile load (DESIGN.md §17), every shed, cancelled,
//! deadline-expired or panicking job must release its budget while
//! survivors stay bitwise identical.

use engine::{
    run_chaos, run_driver, CacheOutcome, ChaosConfig, DriverConfig, DriverReport, Engine,
    EngineConfig, JobSpec, Route,
};
use nsparse_core::{multiply, Backend, Options};
use quickprop::prelude::*;
use sparse::Csr;
use std::sync::Arc;
use vgpu::{DeviceConfig, Gpu};

fn bits(m: &Csr<f64>) -> Vec<u64> {
    m.val().iter().map(|v| v.to_bits()).collect()
}

fn reference(a: &Csr<f64>, b: &Csr<f64>) -> Csr<f64> {
    let mut gpu = Gpu::new(DeviceConfig::p100());
    multiply(&mut gpu, a, b, &Options::default()).unwrap().0
}

/// Every job's product of two driver runs: equal structure and value
/// bits, or the same error.
fn assert_same_outputs(x: &DriverReport<f64>, y: &DriverReport<f64>, what: &str) {
    assert_eq!(x.records.len(), y.records.len(), "{what}");
    for (i, (rx, ry)) in x.records.iter().zip(&y.records).enumerate() {
        match (rx, ry) {
            (Ok(x), Ok(y)) => {
                let (cx, cy) = (&x.matrix, &y.matrix);
                assert_eq!((cx.rpt(), cx.col()), (cy.rpt(), cy.col()), "{what}: job {i}");
                assert_eq!(bits(cx), bits(cy), "{what}: job {i}");
            }
            (Err(ex), Err(ey)) => assert_eq!(ex.to_string(), ey.to_string(), "{what}: job {i}"),
            _ => panic!("{what}: job {i} completed in one run only"),
        }
    }
}

#[test]
fn engine_products_are_bitwise_identical_across_worker_counts() {
    for workers in [1, 4] {
        let cfg = DriverConfig { jobs: 14, workers, seed: 42, dim: 200, ..DriverConfig::default() };
        let rep = run_driver::<f64>(&cfg);
        assert_eq!(rep.mismatches, 0, "{workers} workers: outputs diverged from multiply");
        assert_eq!(rep.failures, 0);
        assert!(rep.stats.budget_drained);
        assert!(rep.stats.cache.hits > 0, "repeated patterns must hit the plan cache");
        assert!(
            rep.stats.symbolic_runs < rep.stats.jobs,
            "cache hits must skip symbolic phases ({} runs for {} jobs)",
            rep.stats.symbolic_runs,
            rep.stats.jobs
        );
    }
}

#[test]
fn host_plan_cache_hits_reproduce_the_sims_outputs_and_cache() {
    // `spgemm serve --jobs 24 --dim 160` at seeds 11 and 29: the sim's
    // outputs do not depend on the worker count, and neither do
    // `host:1`'s, which equal the sim's. A host hit fills values into
    // the structure its miss recorded (DESIGN.md §14), and every cache
    // entry holds `C`'s structure whichever backend built it. One
    // worker serves the jobs in order, so its whole cache record equals
    // the sim's; four workers can race misses on one pattern, so only
    // their cached entries, bytes and capacity are compared.
    for seed in [11, 29] {
        let run = |backend, workers| {
            let what = format!("seed {seed}, {backend} at {workers} workers");
            let cfg =
                DriverConfig { jobs: 24, workers, seed, dim: 160, backend, ..Default::default() };
            let rep = run_driver::<f64>(&cfg);
            assert_eq!((rep.mismatches, rep.failures), (0, 0), "{what}");
            assert!(rep.stats.budget_drained, "{what}");
            rep
        };
        let sim = run(Backend::Sim, 1);
        assert_same_outputs(&run(Backend::Sim, 4), &sim, &format!("seed {seed}, sim"));
        for workers in [1, 4] {
            let what = format!("seed {seed}, host:1 at {workers} workers");
            let host = run(Backend::Host { threads: 1 }, workers);
            assert!(host.stats.cache.hits > 0, "{what}: the mix must hit the plan cache");
            assert_same_outputs(&host, &sim, &what);
            let (h, s) = (host.stats.cache, sim.stats.cache);
            if workers == 1 {
                assert_eq!(h, s, "{what}");
            } else {
                assert_eq!((h.len, h.bytes, h.capacity), (s.len, s.bytes, s.capacity), "{what}");
            }
        }
    }
}

#[test]
fn host_backend_engine_matches_sim_reference() {
    let a = Arc::new(matgen::generators::random_uniform::<f64>(300, 7.0, 28, 99));
    let want = reference(&a, &a);
    let mut eng: Engine<f64> = Engine::new(EngineConfig {
        workers: 2,
        backend: Backend::Host { threads: 3 },
        ..EngineConfig::default()
    });
    let tickets: Vec<_> =
        (0..4).map(|_| eng.submit(JobSpec::new(Arc::clone(&a), Arc::clone(&a)))).collect();
    for t in tickets {
        let out = t.wait().unwrap();
        assert_eq!(out.route, Route::Direct);
        assert_eq!(bits(&out.matrix), bits(&want));
    }
    assert!(eng.shutdown().budget_drained);
}

#[test]
fn fault_injected_mix_recovers_and_leaks_nothing() {
    let cfg = DriverConfig {
        jobs: 15,
        workers: 3,
        seed: 7,
        dim: 160,
        faults: true,
        ..DriverConfig::default()
    };
    let rep = run_driver::<f64>(&cfg);
    assert_eq!(rep.failures, 0, "injected OOM must fall back to the batched route");
    assert_eq!(rep.mismatches, 0);
    assert!(rep.stats.fallback >= 1);
    assert!(rep.stats.budget_drained, "shared budget leaked after the fault mix");
}

#[test]
fn job_traces_are_byte_identical_across_runs_and_worker_counts() {
    // Caching disabled: hit/miss outcomes are the one part of a job's
    // trace that depends on scheduling order, so with it off every
    // job's tree is a pure function of the job spec — identical at any
    // worker count. Timestamps are already schedule-free by design
    // (logical sequence clock + per-job simulated time).
    let cfg = |workers| DriverConfig {
        jobs: 8,
        workers,
        seed: 11,
        dim: 96,
        cache_capacity: 0,
        verify: false,
        trace: true,
        ..DriverConfig::default()
    };
    let one = run_driver::<f64>(&cfg(1));
    let again = run_driver::<f64>(&cfg(1));
    let four = run_driver::<f64>(&cfg(4));
    let dump = one.flight_dump.expect("tracing produces a dump");
    assert_eq!(dump, again.flight_dump.unwrap(), "identical runs must dump identical bytes");
    assert_eq!(dump, four.flight_dump.unwrap(), "worker count must not change job traces");
    assert!(dump.lines().count() > 8, "one header plus a tree per job");
    for line in dump.lines() {
        obs::json::validate(line).expect("dump is valid JSONL");
    }
    assert_eq!(one.flight_chrome.unwrap(), four.flight_chrome.unwrap());
}

#[test]
fn faulted_job_trace_shows_retry_and_batched_completion() {
    // `spgemm serve --jobs 10 --dim 128 --faults --trace-jobs` at seed 7.
    // Job 4 carries the injected double OOM: its trace must tell the
    // whole recovery story under one job id — direct attempt, fallback,
    // failed first batched attempt, budget-halving retry, completion.
    let cfg = DriverConfig {
        jobs: 10,
        workers: 1,
        seed: 7,
        dim: 128,
        faults: true,
        verify: false,
        trace: true,
        ..DriverConfig::default()
    };
    let rep = run_driver::<f64>(&cfg);
    assert_eq!(rep.failures, 0);
    let again = run_driver::<f64>(&cfg);
    assert_eq!(rep.flight_dump, again.flight_dump, "identical runs must dump identical bytes");
    assert_eq!(rep.flight_chrome, again.flight_chrome);
    let dump = rep.flight_dump.unwrap();
    let job4: Vec<&str> = dump.lines().filter(|l| l.starts_with("{\"job\":4,")).collect();
    assert!(!job4.is_empty());
    let has = |kind: &str| job4.iter().any(|l| l.contains(&format!("\"kind\":\"{kind}\"")));
    assert!(has("fault"), "injected fault must appear in the trace");
    assert!(has("fallback"), "the OOM must route the job to the fallback");
    assert!(has("batch_retry"), "the second OOM must halve the batch budget");
    assert!(job4.iter().any(|l| l.contains("\"status\":\"complete\"")), "job must complete");
    let job4 = rep.records[4].as_ref().unwrap();
    assert!(job4.batched_retries >= 1, "the retry must surface in the job's output");
    // A recoverable fault is not a flight-recorder trigger.
    assert!(rep.flight_trigger.is_none());
}

/// Span ids of one job's trace mapped to the line each closes on, after
/// checking the tree is well formed: unique ids, the root `job` span
/// (id 0) closing last, every child's id above its parent's and its
/// `span` line before the parent's, and every plain event parented
/// under a span of the same tree.
fn check_job_tree(lines: &[&str]) -> std::collections::HashMap<u64, usize> {
    let field = |line: &str, key: &str| -> Option<u64> {
        let pat = format!("\"{key}\":");
        let rest = &line[line.find(&pat)? + pat.len()..];
        let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
        rest[..end].parse().ok()
    };
    let is_span = |line: &str| line.contains("\"kind\":\"span\"");
    let mut closes = std::collections::HashMap::new();
    for (i, line) in lines.iter().enumerate() {
        obs::json::validate(line).expect("trace line is valid JSON");
        if is_span(line) {
            let id = field(line, "id").expect("span has an id");
            assert!(closes.insert(id, i).is_none(), "span {id} closed twice");
        }
    }
    assert_eq!(closes.get(&0), Some(&(lines.len() - 1)), "the root span closes last");
    for (i, line) in lines.iter().enumerate() {
        let parent = field(line, "parent");
        if is_span(line) && field(line, "id") == Some(0) {
            assert_eq!(parent, None, "the root span has no parent");
            continue;
        }
        let p = parent.unwrap_or_else(|| panic!("unparented line: {line}"));
        let p_line = *closes.get(&p).unwrap_or_else(|| panic!("parent {p} never closed"));
        if is_span(line) {
            assert!(p < field(line, "id").unwrap(), "child id below its parent's: {line}");
            assert!(i < p_line, "child must close before its parent: {line}");
        }
    }
    closes
}

#[test]
fn host_job_traces_cover_direct_and_batched_routes_byte_identically() {
    // Host backend, traced, one worker: a cold direct job, a plan-cache
    // hit, and two jobs whose forecast exceeds the 64 KiB budget and run
    // batched. Both routes install the job's telemetry session into the
    // host executor and must hand it back intact.
    let small = Arc::new(matgen::generators::random_uniform::<f64>(48, 4.0, 12, 21));
    let big = Arc::new(matgen::generators::random_uniform::<f64>(220, 6.0, 24, 5));
    let run = || {
        let mut eng: Engine<f64> = Engine::new(EngineConfig {
            workers: 1,
            backend: Backend::Host { threads: 2 },
            budget_bytes: Some(64 * 1024),
            trace: true,
            ..EngineConfig::default()
        });
        let flight = eng.flight();
        let tickets: Vec<_> = [&small, &small, &big, &big]
            .iter()
            .map(|m| eng.submit(JobSpec::new(Arc::clone(m), Arc::clone(m))))
            .collect();
        let outs: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let stats = eng.shutdown();
        assert!(stats.budget_drained);
        (outs, flight.dump(&stats), flight.chrome())
    };
    let (outs, dump, chrome) = run();
    let routes: Vec<_> = outs.iter().map(|o| (o.route, o.cache)).collect();
    assert_eq!(
        routes,
        [
            (Route::Direct, CacheOutcome::Miss),
            (Route::Direct, CacheOutcome::Hit),
            (Route::Batched, CacheOutcome::Bypass),
            (Route::Batched, CacheOutcome::Bypass),
        ]
    );
    for (out, m) in outs.iter().zip([&small, &small, &big, &big]) {
        assert_eq!(bits(&out.matrix), bits(&reference(m, m)), "host job output diverged");
    }
    for job in 0..4 {
        let prefix = format!("{{\"job\":{job},");
        let lines: Vec<&str> = dump.lines().filter(|l| l.starts_with(&prefix)).collect();
        check_job_tree(&lines);
        let has = |kind: &str| lines.iter().any(|l| l.contains(kind));
        let span = |name: &str| has(&format!("\"kind\":\"span\",\"name\":\"{name}\""));
        let event = |kind: &str| has(&format!("\"kind\":\"{kind}\""));
        assert!(has("\"status\":\"complete\""), "job {job} must complete");
        match job {
            0 => {
                assert!(has("\"outcome\":\"miss\"") && span("multiply"));
                assert!(!span("symbolic") && !span("numeric"), "a miss is one multiply");
            }
            1 => {
                assert!(has("\"outcome\":\"hit\"") && span("numeric"));
                assert!(!span("multiply"), "a cache hit replays the numeric phase only");
            }
            _ => {
                assert!(span("batched") && event("batch") && event("stitch"), "job {job}");
                assert!(!event("plan_cache"), "batched jobs bypass the plan cache");
            }
        }
    }
    let (_, dump2, chrome2) = run();
    assert_eq!(dump, dump2, "identical host runs must dump identical bytes");
    assert_eq!(chrome, chrome2);

    // The driver's mix on the same backend and budget (`spgemm serve
    // --jobs 10 --dim 128 --backend host:2 --budget 64K --trace-jobs` at
    // seed 7): three jobs run direct and seven batched.
    let mix = || {
        run_driver::<f64>(&DriverConfig {
            jobs: 10,
            workers: 1,
            seed: 7,
            dim: 128,
            backend: Backend::Host { threads: 2 },
            budget_bytes: Some(64 * 1024),
            verify: false,
            trace: true,
            ..DriverConfig::default()
        })
    };
    let (one, two) = (mix(), mix());
    assert_eq!(one.failures, 0);
    assert!(one.stats.budget_drained);
    assert_eq!((one.stats.admitted, one.stats.batched), (3, 7));
    assert_eq!(one.flight_dump, two.flight_dump, "identical host runs must dump identical bytes");
    assert_eq!(one.flight_chrome, two.flight_chrome);
    let dump = one.flight_dump.unwrap();
    assert!(dump.contains("\"kind\":\"stitch\"") && dump.contains("\"outcome\":\"miss\""));
}

#[test]
fn fatal_job_failure_trips_the_flight_recorder() {
    let a = Arc::new(matgen::generators::random_uniform::<f64>(96, 5.0, 20, 3));
    let mut eng: Engine<f64> =
        Engine::new(EngineConfig { workers: 1, trace: true, ..EngineConfig::default() });
    let ok = eng.submit(JobSpec::new(Arc::clone(&a), Arc::clone(&a)));
    // A shape mismatch is classified at the submission boundary as a
    // planning error — non-retryable, so it must trip the recorder.
    let b = Arc::new(matgen::generators::random_uniform::<f64>(80, 5.0, 20, 4));
    let bad = eng.submit(JobSpec::new(Arc::clone(&a), Arc::clone(&b)));
    assert!(ok.wait().is_ok());
    assert!(bad.wait().is_err(), "a shape mismatch is not recoverable");
    let rec = eng.flight();
    let stats = eng.shutdown();
    let trigger = rec.triggered().expect("non-retryable failure must trip the recorder");
    assert!(trigger.contains("non-retryable"), "{trigger}");
    let dump = rec.dump(&stats);
    assert!(dump.lines().next().unwrap().contains("\"trigger\""));
    assert!(dump.contains("\"status\":\"failed\""), "the failed job's trace is in the snapshot");
    assert!(dump.contains("\"status\":\"complete\""), "the earlier good job rode along");
}

#[test]
fn tiny_budget_serializes_jobs_through_batched_route() {
    let a = Arc::new(matgen::generators::random_uniform::<f64>(220, 6.0, 24, 5));
    let want = reference(&a, &a);
    let mut eng: Engine<f64> = Engine::new(EngineConfig {
        workers: 4,
        budget_bytes: Some(96 * 1024),
        ..EngineConfig::default()
    });
    let tickets: Vec<_> =
        (0..3).map(|_| eng.submit(JobSpec::new(Arc::clone(&a), Arc::clone(&a)))).collect();
    for t in tickets {
        let out = t.wait().unwrap();
        assert_eq!(out.route, Route::Batched);
        assert_eq!(bits(&out.matrix), bits(&want));
    }
    let stats = eng.shutdown();
    assert_eq!(stats.batched, 3);
    assert!(stats.budget_drained);
}

quickprop! {
    #![config(cases = 8)]

    /// DESIGN.md §17: hostile jobs — shed at the bounded queue,
    /// cancelled cooperatively, expired on the simulated clock, killed
    /// by injected faults — never leak admission budget, at any seed or
    /// worker count, and every survivor's product is bitwise identical
    /// to standalone `multiply` (verified inside the soak). The digest
    /// covers every job's outcome and output bits, so its equality with
    /// a single-worker run proves schedule independence.
    #[test]
    fn hostile_jobs_never_leak_budget(seed in 0u64..1_000, workers in 2usize..5) {
        let cfg = ChaosConfig {
            seed,
            jobs: 24,
            workers,
            rows: 32,
            max_queue_depth: 8,
            shed_jobs: 3,
            ..ChaosConfig::default()
        };
        let rep = run_chaos(&cfg);
        prop_assert!(rep.violations.is_empty(), "violations: {:?}", rep.violations);
        prop_assert!(rep.stats.budget_drained, "hostile jobs leaked budget");
        prop_assert!(rep.stats.conserved(), "outcome conservation violated");
        let single = run_chaos(&ChaosConfig { workers: 1, ..cfg });
        prop_assert_eq!(rep.digest, single.digest, "digest depends on worker count");
    }
}

#[test]
fn chaos_soak_reaches_every_outcome_class_and_stays_deterministic() {
    let cfg = ChaosConfig { seed: 99, jobs: 120, workers: 4, rows: 48, ..ChaosConfig::default() };
    let r1 = run_chaos(&cfg);
    assert!(r1.violations.is_empty(), "violations: {:?}", r1.violations);
    assert!(r1.stats.completed > 0 && r1.stats.failed > 0, "mix must complete and fail jobs");
    assert!(r1.stats.shed > 0 && r1.stats.cancelled > 0 && r1.stats.deadline_exceeded > 0);
    assert!(r1.stats.backoff_retries > 0, "persistent faults must consume retries");
    let r2 = run_chaos(&cfg);
    assert_eq!(r1.digest, r2.digest, "same config must reproduce byte-identically");
    assert_eq!(r1.stats.completed, r2.stats.completed);
    assert_eq!(r1.stats.backoff_retries, r2.stats.backoff_retries);
}

#[test]
fn panic_canary_drains_budget_and_dumps_the_flight_recorder() {
    let unbounded = ChaosConfig {
        seed: 5,
        jobs: 12,
        workers: 2,
        rows: 32,
        max_queue_depth: 0,
        panic_at: Some(3),
        ..ChaosConfig::default()
    };
    // `spgemm chaos --seed 7 --jobs 40 --workers 4 --dim 96 --panic-at 5`.
    let cli = ChaosConfig {
        seed: 7,
        jobs: 40,
        workers: 4,
        rows: 96,
        panic_at: Some(5),
        ..ChaosConfig::default()
    };
    for cfg in [unbounded, cli] {
        let rep = run_chaos(&cfg);
        assert!(rep.violations.is_empty(), "violations: {:?}", rep.violations);
        assert_eq!(rep.stats.panicked_jobs, 1, "the canary panic must be contained and counted");
        assert!(rep.stats.budget_drained, "the panicked job's reservation must be released");
    }
    // The recorder trigger and dump of a contained panic are checked on
    // a raw engine in `engine::tests::worker_panic_is_contained_and_the_pool_survives`.
}
