//! Recovery properties under device-memory pressure and injected
//! faults (DESIGN.md §13).
//!
//! The contract these tests enforce: a multiply under a memory cap or
//! an injected device fault either *completes with the exact bitwise
//! result of an unconstrained run* (via the row-batched fallback) or
//! *returns a structured [`Error`]* — it never panics, and it never
//! leaks: after every run, successful or not, the device ends with
//! zero live bytes and no live allocation.
//!
//! The malloc sweep is exhaustive: an OOM is injected at *every*
//! allocation index a clean run performs, one run per index, so no
//! allocation site can hide a leaky error path.
//!
//! Every device test runs twice: on a bare device, and (its
//! `_sanitized` twin) with the device-memory sanitizer shadowing every
//! allocation (DESIGN.md §18). There the OOM sweep's error/retry paths
//! must also be free of use-after-free, double-free, bounds and init
//! violations: `assert_no_leak` fails on any sanitizer report.

use nsparse_repro::prelude::*;
use sparse::spgemm_ref::spgemm_gustavson;

fn rand_mat(n: usize, deg: usize, seed: u64) -> Csr<f64> {
    let mut s = seed;
    let mut t = Vec::new();
    for r in 0..n {
        for _ in 0..deg {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            t.push((r, ((s >> 33) as usize % n) as u32, 1.0 + (s % 5) as f64));
        }
    }
    Csr::from_triplets(n, n, &t).unwrap()
}

fn assert_bitwise_eq(x: &Csr<f64>, y: &Csr<f64>, what: &str) {
    assert_eq!(x.rpt(), y.rpt(), "{what}: row pointer differs");
    assert_eq!(x.col(), y.col(), "{what}: columns differ");
    let xb: Vec<u64> = x.val().iter().map(|v| v.to_bits()).collect();
    let yb: Vec<u64> = y.val().iter().map(|v| v.to_bits()).collect();
    assert_eq!(xb, yb, "{what}: values differ bitwise");
}

/// The seed of the derived single-OOM fault plan.
const FAULT_SEED: u64 = 2017;

/// Construct the device under test, with the sanitizer attached when
/// `sanitize` is set.
fn test_gpu(cfg: DeviceConfig, sanitize: bool) -> Gpu {
    let mut gpu = Gpu::new(cfg);
    if sanitize {
        gpu.enable_sanitizer();
    }
    gpu
}

/// The device must be fully drained: no live bytes and no live
/// allocation ids. Under the sanitizer the shadow state must be clean
/// too.
fn assert_no_leak(gpu: &Gpu, what: &str) {
    assert_eq!(gpu.live_mem_bytes(), 0, "{what}: live bytes leaked");
    assert_eq!(gpu.memory().live_allocs(), 0, "{what}: allocation ids leaked");
    assert!(gpu.san_reports().is_empty(), "{what}: sanitizer reports:\n{}", gpu.san_jsonl());
}

/// Reference result and the number of device mallocs a clean run makes.
fn clean_run(a: &Csr<f64>, sanitize: bool) -> (Csr<f64>, u64) {
    let mut gpu = test_gpu(DeviceConfig::p100(), sanitize);
    gpu.enable_telemetry();
    let mut exec = SimExecutor::new(&mut gpu);
    let c = exec.multiply(a, a, &Options::default()).unwrap().matrix;
    let events = gpu.telemetry().unwrap().events.events();
    let mallocs = events.iter().filter(|e| e.kind() == "alloc").count() as u64;
    assert_no_leak(&gpu, "clean run");
    (c, mallocs)
}

/// One faulted, capacity-capped run through the batched fallback.
/// Returns the result plus the GPU's post-run leak state already
/// checked; panics (test failure) only on a contract violation.
fn faulted_run(
    a: &Csr<f64>,
    c_ref: &Csr<f64>,
    capacity: u64,
    plan: FaultPlan,
    what: &str,
    sanitize: bool,
) -> Result<(), Error> {
    let mut gpu = test_gpu(DeviceConfig::p100_with_memory(capacity), sanitize);
    gpu.enable_telemetry();
    gpu.set_fault_plan(plan);
    let result = {
        let mut exec = BatchedExecutor::sim(&mut gpu);
        exec.multiply(a, a, &Options::default())
    };
    assert_no_leak(&gpu, what);
    match result {
        Ok(run) => {
            assert_bitwise_eq(&run.matrix, c_ref, what);
            Ok(())
        }
        Err(e) => {
            // Structured, not a panic: every error classifies.
            let _ = (e.kind(), e.recovery());
            Err(e)
        }
    }
}

/// `#[test]` twins of each device test `case`: `plain` on a bare
/// device, `sanitized` under the device-memory sanitizer.
macro_rules! plain_and_sanitized {
    ($($case:ident => $plain:ident, $sanitized:ident;)*) => {$(
        #[test]
        fn $plain() {
            $case(false);
        }

        #[test]
        fn $sanitized() {
            $case(true);
        }
    )*};
}

plain_and_sanitized! {
    oom_sweep_at_full_capacity =>
        malloc_oom_sweep_recovers_at_full_capacity,
        malloc_oom_sweep_recovers_at_full_capacity_sanitized;
    oom_sweep_under_pressure =>
        malloc_oom_sweep_under_memory_pressure,
        malloc_oom_sweep_under_memory_pressure_sanitized;
    batched_fallback_under_pressure =>
        batched_fallback_is_bitwise_identical_under_4x_pressure,
        batched_fallback_is_bitwise_identical_under_4x_pressure_sanitized;
    exhausted_retries =>
        exhausted_retries_return_capacity_diagnostic,
        exhausted_retries_return_capacity_diagnostic_sanitized;
    kernel_fault =>
        kernel_fault_classifies_transient_and_leak_free,
        kernel_fault_classifies_transient_and_leak_free_sanitized;
    memcpy_fault =>
        memcpy_fault_classifies_as_kernel_error,
        memcpy_fault_classifies_as_kernel_error_sanitized;
    seeded_fault =>
        seeded_fault_recovers,
        seeded_fault_recovers_sanitized;
}

/// Tentpole acceptance sweep: inject an OOM at every malloc index of
/// the clean run. At full device capacity a one-shot OOM must always
/// be *recovered* (the batched retry re-runs and the fault is spent);
/// the output must match the clean run bitwise.
fn oom_sweep_at_full_capacity(sanitize: bool) {
    let a = rand_mat(150, 5, 11);
    let (c_ref, mallocs) = clean_run(&a, sanitize);
    assert!(mallocs > 0);
    for nth in 1..=mallocs {
        let plan = FaultPlan::new(nth).malloc_oom(nth);
        faulted_run(
            &a,
            &c_ref,
            DeviceConfig::p100().device_mem_bytes,
            plan,
            &format!("oom at malloc #{nth}/{mallocs}, full capacity"),
            sanitize,
        )
        .unwrap_or_else(|e| panic!("malloc #{nth} did not recover: {e}"));
    }
}

/// The same sweep under a halved forecast budget: batching is already
/// active, the injected OOM lands inside some batch, and the retry
/// loop must still converge to the exact result or return a structured
/// error — never panic, never leak.
fn oom_sweep_under_pressure(sanitize: bool) {
    let a = rand_mat(150, 5, 11);
    let (c_ref, mallocs) = clean_run(&a, sanitize);
    let est = nsparse_core::estimate_memory(&a, &a).unwrap().upper_bound();
    let mut recovered = 0u64;
    for nth in 1..=mallocs {
        let plan = FaultPlan::new(nth).malloc_oom(nth);
        let what = format!("oom at malloc #{nth}/{mallocs}, est/2");
        if faulted_run(&a, &c_ref, est / 2, plan, &what, sanitize).is_ok() {
            recovered += 1;
        }
    }
    // A one-shot fault against a 4-retry loop: every index recovers.
    assert_eq!(recovered, mallocs, "some injected OOMs failed to recover");
}

/// Batched output equals the unconstrained output bitwise when the
/// forecast exceeds capacity by 2x and 4x (the ISSUE's acceptance
/// bound), and the unbatched path genuinely cannot run at those caps.
fn batched_fallback_under_pressure(sanitize: bool) {
    let a = rand_mat(400, 7, 23);
    let c_ref = spgemm_gustavson(&a, &a).unwrap();
    let est = nsparse_core::estimate_memory(&a, &a).unwrap().upper_bound();

    let mut g_full = test_gpu(DeviceConfig::p100(), sanitize);
    let c_full = nsparse_core::multiply(&mut g_full, &a, &a, &Options::default()).unwrap().0;
    assert_bitwise_eq(&c_full, &c_ref, "unconstrained vs reference structure");
    let peak = g_full.peak_mem_bytes();

    // A cap below the real peak: the plain pipeline must report a
    // structured, retryable OOM (and leak nothing).
    let mut g_oom = test_gpu(DeviceConfig::p100_with_memory(peak * 3 / 4), sanitize);
    let err = nsparse_core::multiply(&mut g_oom, &a, &a, &Options::default()).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::DeviceOom);
    assert_eq!(err.recovery(), Recovery::RetrySmallerBatch);
    assert_no_leak(&g_oom, "plain multiply OOM");

    for denom in [2u64, 4] {
        let mut gpu = test_gpu(DeviceConfig::p100_with_memory(est / denom), sanitize);
        gpu.enable_telemetry();
        let (run, batches) = {
            let mut exec = BatchedExecutor::sim(&mut gpu);
            let run = exec.multiply(&a, &a, &Options::default()).unwrap();
            (run, exec.batches_used())
        };
        assert!(batches > 1, "est/{denom} must force batching");
        assert_bitwise_eq(&run.matrix, &c_full, &format!("batched at est/{denom}"));
        assert!(run.report.peak_mem_bytes <= est / denom);
        assert_no_leak(&gpu, &format!("batched at est/{denom}"));
    }
}

/// When every retry is struck by a fresh injected OOM, the loop gives
/// up with `CapacityExhausted` carrying the forecast-vs-capacity
/// diagnostic — classified as an unrecoverable DeviceOom.
fn exhausted_retries(sanitize: bool) {
    let a = rand_mat(120, 5, 31);
    let mut plan = FaultPlan::new(99);
    for nth in 1..=40 {
        plan = plan.malloc_oom(nth);
    }
    let mut gpu = test_gpu(DeviceConfig::p100(), sanitize);
    gpu.set_fault_plan(plan);
    let err = {
        let mut exec = BatchedExecutor::sim(&mut gpu);
        exec.multiply(&a, &a, &Options::default()).unwrap_err()
    };
    assert_no_leak(&gpu, "exhausted retries");
    match err {
        Error::CapacityExhausted(d) => {
            assert_eq!(d.attempts, 5, "4 retries = 5 batched attempts");
            assert_eq!(d.capacity, DeviceConfig::p100().device_mem_bytes);
            assert!(d.estimate_upper > 0);
            assert!(d.smallest_budget < d.capacity, "budget must have halved");
            assert!(d.detail.contains("injected"), "cause chain lost: {}", d.detail);
        }
        other => panic!("expected CapacityExhausted, got {other}"),
    }
    // The diagnostic is an OOM by kind but not retryable.
    let err2 = Error::CapacityExhausted(nsparse_core::CapacityDiagnostic {
        estimate_upper: 2,
        capacity: 1,
        attempts: 5,
        smallest_budget: 1,
        detail: String::new(),
    });
    assert_eq!(err2.kind(), ErrorKind::DeviceOom);
    assert_eq!(err2.recovery(), Recovery::Fatal);
}

/// Kernel faults are not memory pressure: they classify as `Kernel`
/// and — since DESIGN.md §17 — as *transient* ([`Recovery::
/// RetryAfterBackoff`]): no batch size can fix a faulting kernel, but a
/// retry on the same device can outlive a transient launch failure, and
/// the engine's retry/backoff loop owns that policy. With no retry
/// budget the fault is still terminal here — and it leaks nothing.
fn kernel_fault(sanitize: bool) {
    let a = rand_mat(100, 5, 17);
    let mut gpu = test_gpu(DeviceConfig::p100(), sanitize);
    gpu.set_fault_plan(FaultPlan::new(3).kernel_fail("count_products"));
    let err = {
        let mut exec = BatchedExecutor::sim(&mut gpu);
        exec.multiply(&a, &a, &Options::default()).unwrap_err()
    };
    assert_eq!(err.kind(), ErrorKind::Kernel);
    assert_eq!(err.recovery(), Recovery::RetryAfterBackoff);
    assert!(err.to_string().contains("count_products"));
    assert_no_leak(&gpu, "kernel fault");
}

/// Memcpy faults surface as structured kernel-class errors through the
/// taxonomy's `From<GpuError>` conversion, retryable like any other
/// transient device fault.
fn memcpy_fault(sanitize: bool) {
    let mut gpu = test_gpu(DeviceConfig::p100(), sanitize);
    gpu.set_fault_plan(FaultPlan::new(5).memcpy_fail(2));
    gpu.memcpy(1024, true).unwrap();
    let ge = gpu.memcpy(1024, false).unwrap_err();
    let err: Error = ge.into();
    assert_eq!(err.kind(), ErrorKind::Kernel);
    assert_eq!(err.recovery(), Recovery::RetryAfterBackoff);
    assert!(err.to_string().contains("memcpy"));
    assert_no_leak(&gpu, "memcpy fault");
}

/// Fault plans are serializable (CLI `--faults` round-trip) and the
/// seeded derivation is deterministic, so any CI failure reproduces
/// from the printed spec alone.
#[test]
fn fault_plans_round_trip_and_derive_deterministically() {
    let plan = FaultPlan::new(7).malloc_oom(3).kernel_fail("numeric_tb_g1").memcpy_fail(2);
    let reparsed = FaultPlan::parse(&plan.to_string()).unwrap();
    assert_eq!(plan, reparsed);
    assert_eq!(seeded_malloc_oom(42, 100), seeded_malloc_oom(42, 100));
}

/// A single-OOM plan derived from a seed: fails malloc
/// `1 + split_mix64(seed) % span`.
fn seeded_malloc_oom(seed: u64, span: u64) -> FaultPlan {
    FaultPlan::new(seed).malloc_oom(1 + vgpu::fault::split_mix64(seed) % span.max(1))
}

/// A malloc-OOM index derived from [`FAULT_SEED`]: one reproducible
/// injection, recovered like every index of the exhaustive sweep.
fn seeded_fault(sanitize: bool) {
    let a = rand_mat(150, 5, 11);
    let (c_ref, mallocs) = clean_run(&a, sanitize);
    let plan = seeded_malloc_oom(FAULT_SEED, mallocs);
    faulted_run(
        &a,
        &c_ref,
        DeviceConfig::p100().device_mem_bytes,
        plan.clone(),
        &format!("seeded fault {plan}"),
        sanitize,
    )
    .unwrap_or_else(|e| panic!("seeded fault {plan} did not recover: {e}"));
}
