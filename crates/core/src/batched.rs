//! Row-batched fallback execution under device-memory pressure.
//!
//! The paper's memory-saving claim (§I, Table III) is that nsparse
//! *completes* on matrices that exhaust device memory elsewhere. This
//! module extends that spirit past the algorithm's own frugality: when
//! even the grouped-hash working set cannot fit — the
//! [`estimate_memory`] forecast exceeds capacity, or a real/injected
//! OOM fires mid-run — [`BatchedExecutor`] re-plans `C = A·B` as a
//! sequence of row-range sub-multiplies `C[r0..r1] = A[r0..r1]·B`,
//! sized so each batch's upper-bound estimate fits the device, frees
//! every per-batch buffer between batches, and stitches the per-batch
//! CSR slices back together.
//!
//! # Determinism under batching
//!
//! The stitched output is **bitwise identical** to the unbatched run
//! (enforced by the property suites in `tests/backends.rs` and
//! `tests/resilience.rs`): every output row is a pure function of its
//! A-row, `B`, and its hash-table capacity, and the capacity depends
//! only on the row's own metric and the device class
//! ([`PhasePlan::table_size_for`](crate::plan::PhasePlan::table_size_for)
//! is per-row) — never on which other rows share the launch. Slicing
//! `A` therefore changes *scheduling*, not *values*.
//!
//! # Retry policy (DESIGN.md §13)
//!
//! Batch sizing is *predictive* on every backend — a batch runs only if
//! its estimate fits the budget — so the sim backend (which enforces
//! capacity for real) and the host backend (which has no device memory)
//! classify identically. If a batch still fails with a recoverable
//! error ([`Recovery::RetrySmallerBatch`], e.g. an injected OOM), the
//! byte budget is halved — roughly halving batch rows — and the whole
//! multiply retried, up to [`BatchedExecutor::MAX_RETRIES`]
//! times; after that a [`CapacityDiagnostic`] reports the estimate
//! against the capacity. A single row whose own estimate exceeds device
//! capacity is reported the same way without burning retries: no batch
//! boundary can help it.

#![cfg_attr(
    not(test),
    warn(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)
)]

use crate::exec::{Backend, ColdRecord, Execution, Executor, JobCtl, SymbolicOutput, WallClock};
use crate::partition::weighted_ranges;
use crate::pipeline::{
    estimate_memory, CapacityDiagnostic, Error, MemoryEstimate, Options, Recovery, Result,
};
use crate::plan::SpgemmPlan;
use crate::sim::SimExecutor;
use sparse::{ops, to_u64, Csr, Scalar};
use std::ops::Range;
use vgpu::{DeviceConfig, Gpu, Phase, SimTime, SpgemmReport};

/// An [`Executor`] wrapper that survives device-memory pressure by
/// splitting the multiply into row batches that fit a byte budget.
/// Wraps any inner executor; see the module docs for the policy.
pub struct BatchedExecutor<E> {
    inner: E,
    capacity: u64,
    last_batches: usize,
    last_retries: u32,
    ctl: Option<JobCtl>,
}

impl<E> BatchedExecutor<E> {
    /// Budget-halving retries before giving up with a diagnostic.
    pub const MAX_RETRIES: u32 = 4;

    /// Wrap `inner`, constraining every batch to `capacity` bytes.
    pub fn new(inner: E, capacity: u64) -> Self {
        BatchedExecutor { inner, capacity, last_batches: 0, last_retries: 0, ctl: None }
    }

    /// Attach cooperative job control (cancellation + deadline), polled
    /// between batches and before each retry attempt. `None` disables
    /// the checks (the default — standalone callers pay nothing).
    pub fn set_ctl(&mut self, ctl: Option<JobCtl>) {
        self.ctl = ctl;
    }

    /// Number of batches the most recent successful multiply used
    /// (1 = ran unbatched; 0 = no multiply yet).
    pub fn batches_used(&self) -> usize {
        self.last_batches
    }

    /// Budget-halving retries the most recent successful multiply
    /// consumed (0 = first attempt — or the unbatched fast path —
    /// succeeded).
    pub fn retries_used(&self) -> u32 {
        self.last_retries
    }

    /// The wrapped executor.
    pub fn inner_mut(&mut self) -> &mut E {
        &mut self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> E {
        self.inner
    }
}

impl<'g> BatchedExecutor<SimExecutor<'g>> {
    /// Batched execution on the virtual device, budgeted to the
    /// device's real capacity.
    pub fn sim(gpu: &'g mut Gpu) -> Self {
        let capacity = gpu.memory().capacity();
        Self::new(SimExecutor::new(gpu), capacity)
    }
}

impl BatchedExecutor<crate::HostParallelExecutor> {
    /// Batched execution on host threads, budgeted to `cfg`'s device
    /// capacity — the host has no device memory, so the budget is the
    /// *contract* that keeps its batching decisions (and therefore its
    /// error classification) identical to the sim backend's.
    pub fn host(threads: usize, cfg: DeviceConfig) -> Self {
        let capacity = cfg.device_mem_bytes;
        Self::new(crate::HostParallelExecutor::with_config(threads, cfg), capacity)
    }
}

/// Plan row batches whose estimates fit `budget`. A multi-row range
/// over budget is split further; a single row is allowed to exceed the
/// *budget* (retries shrink budgets below single rows) but never the
/// device *capacity* — that is unrecoverable and reported via `Err`
/// with the offending row and its requirement.
fn plan_batches(
    weights: &[u64],
    fixed: u64,
    budget: u64,
    capacity: u64,
) -> std::result::Result<Vec<Range<usize>>, (usize, u64)> {
    if weights.is_empty() {
        let empty: Range<usize> = 0..0;
        return Ok(vec![empty]);
    }
    for (r, &w) in weights.iter().enumerate() {
        if fixed + w > capacity {
            return Err((r, fixed + w));
        }
    }
    let total: u64 = weights.iter().sum();
    let var_budget = budget.saturating_sub(fixed).max(1);
    // Balance with the weighted partitioner, then greedily subdivide any
    // range its `acc >= target` cut left over budget: cut before a row
    // would overflow, so every multi-row range fits by construction.
    // Saturating narrowings: like the partitioner's saturating sums, a
    // clamped proxy weight can only coarsen the balance, never wrap.
    let proxy: Vec<usize> =
        weights.iter().map(|&w| usize::try_from(w).unwrap_or(usize::MAX)).collect();
    let parts = usize::try_from(total.div_ceil(var_budget).max(1)).unwrap_or(usize::MAX);
    let coarse = weighted_ranges(&proxy, parts);
    let mut out = Vec::new();
    for range in coarse {
        let mut start = range.start;
        let mut acc = 0u64;
        for i in range.clone() {
            if i > start && acc + weights[i] > var_budget {
                out.push(start..i);
                start = i;
                acc = 0;
            }
            acc += weights[i];
        }
        out.push(start..range.end);
    }
    Ok(out)
}

/// A zeroed report for a degenerate (zero-row) multiply that never
/// touched the device — the shape every executor returns instead of
/// panicking on an empty batch plan.
fn zeroed_report<T: Scalar>(batches: usize) -> SpgemmReport {
    SpgemmReport {
        algorithm: format!("proposal (batched x{batches})"),
        precision: T::PRECISION,
        total_time: SimTime::ZERO,
        phase_times: Vec::new(),
        peak_mem_bytes: 0,
        intermediate_products: 0,
        output_nnz: 0,
        hash_probes: 0,
        telemetry: None,
    }
}

/// Merge per-batch reports: times and counters sum, peaks max. Total —
/// an empty batch plan (zero-row `A`) merges into a zeroed report
/// instead of panicking (the former
/// `reports.last().expect("at least one batch")`).
fn merge_reports<T: Scalar>(reports: &[SpgemmReport], batches: usize) -> SpgemmReport {
    let Some(last) = reports.last() else {
        return zeroed_report::<T>(batches);
    };
    let mut phase_times: Vec<(Phase, SimTime)> = Vec::new();
    for rep in reports {
        for &(p, t) in &rep.phase_times {
            match phase_times.iter_mut().find(|(q, _)| *q == p) {
                Some((_, acc)) => *acc += t,
                None => phase_times.push((p, t)),
            }
        }
    }
    SpgemmReport {
        algorithm: format!("proposal (batched x{batches})"),
        precision: last.precision,
        total_time: reports.iter().map(|r| r.total_time).sum(),
        phase_times,
        peak_mem_bytes: reports.iter().map(|r| r.peak_mem_bytes).max().unwrap_or(0),
        intermediate_products: reports.iter().map(|r| r.intermediate_products).sum(),
        output_nnz: reports.iter().map(|r| r.output_nnz).sum(),
        hash_probes: reports.iter().map(|r| r.hash_probes).sum(),
        telemetry: last.telemetry.clone(),
    }
}

/// Merge per-batch wall clocks (present only when every batch has one).
fn merge_walls(walls: &[Option<WallClock>]) -> Option<WallClock> {
    if walls.iter().any(Option::is_none) {
        return None;
    }
    let mut total = std::time::Duration::ZERO;
    let mut phases: Vec<(Phase, std::time::Duration)> = Vec::new();
    for w in walls.iter().flatten() {
        total += w.total;
        for &(p, d) in &w.phases {
            match phases.iter_mut().find(|(q, _)| *q == p) {
                Some((_, acc)) => *acc += d,
                None => phases.push((p, d)),
            }
        }
    }
    Some(WallClock { total, phases })
}

impl<E> BatchedExecutor<E> {
    fn emit<T: Scalar>(&mut self, event: obs::Event)
    where
        E: Executor<T>,
    {
        if let Some(t) = self.inner.telemetry_mut() {
            t.emit(event);
        }
    }

    /// Poll the attached [`JobCtl`] (if any) against the inner
    /// executor's simulated clock — the deterministic phase-boundary
    /// check of DESIGN.md §17.
    fn check_ctl<T: Scalar>(&self) -> Result<()>
    where
        E: Executor<T>,
    {
        match &self.ctl {
            Some(ctl) => ctl.check(self.inner.device_elapsed_us().unwrap_or(0.0)),
            None => Ok(()),
        }
    }

    fn run_batches<T: Scalar>(
        &mut self,
        a: &Csr<T>,
        b: &Csr<T>,
        opts: &Options,
        batches: &[Range<usize>],
    ) -> Result<Execution<T>>
    where
        E: Executor<T>,
    {
        let mut mats = Vec::with_capacity(batches.len());
        let mut reports = Vec::with_capacity(batches.len());
        let mut walls = Vec::with_capacity(batches.len());
        let mut replans = 0u64;
        for (i, range) in batches.iter().enumerate() {
            self.check_ctl::<T>()?;
            self.emit::<T>(
                obs::Event::new("batch")
                    .u64("index", to_u64(i))
                    .u64("row_start", to_u64(range.start))
                    .u64("row_end", to_u64(range.end)),
            );
            let a_sub = a.slice_rows(range.clone());
            // The inner executor allocates and frees this batch's whole
            // working set, so batches never overlap on the device.
            let run = self.inner.multiply(&a_sub, b, opts)?;
            mats.push(run.matrix);
            reports.push(run.report);
            walls.push(run.wall);
            replans += run.replans;
        }
        let matrix =
            ops::vstack(mats).map_err(|e| Error::invariant(format!("batch stitch failed: {e}")))?;
        self.emit::<T>(
            obs::Event::new("stitch")
                .u64("batches", to_u64(batches.len()))
                .u64("rows", to_u64(matrix.rows())),
        );
        let report = merge_reports::<T>(&reports, batches.len());
        let wall = merge_walls(&walls);
        // Split rows ran separate plans: no one plan stands for `C`.
        Ok(Execution { matrix, report, wall, replans, record: None })
    }

    /// [`Executor::multiply`] with `forecast`, the caller's
    /// [`estimate_memory`] of `a·b`: a caller that already forecast the
    /// same operands (the engine, for admission) does not forecast twice.
    pub fn multiply_with_forecast<T: Scalar>(
        &mut self,
        a: &Csr<T>,
        b: &Csr<T>,
        opts: &Options,
        forecast: &MemoryEstimate,
    ) -> Result<Execution<T>>
    where
        E: Executor<T>,
    {
        if a.rows() == 0 {
            // Zero-row A: the batch plan would be empty. Return the
            // empty product with a zeroed report instead of reaching the
            // report merge with no batches (the old panic), and without
            // touching the device at all — there is nothing to compute.
            let plan = self.inner.plan(a, b, opts)?;
            self.last_batches = 0;
            self.last_retries = 0;
            let matrix = Csr::zeros(0, plan.cols);
            let report = zeroed_report::<T>(0);
            let record = Some(ColdRecord { plan, count_probes: 0 });
            return Ok(Execution { matrix, report, wall: None, replans: 0, record });
        }
        let estimate_upper = forecast.upper_bound();
        let capacity = self.capacity;
        self.last_batches = 0;
        self.last_retries = 0;

        // Fast path: forecast fits — run unbatched; fall through to the
        // batched loop only on a recoverable (OOM) failure.
        if estimate_upper <= capacity {
            match self.inner.multiply(a, b, opts) {
                Ok(run) => {
                    self.last_batches = 1;
                    return Ok(run);
                }
                Err(e) if e.recovery() == Recovery::RetrySmallerBatch => {
                    self.emit::<T>(obs::Event::new("batch_fallback").str("cause", &e.to_string()));
                }
                Err(e) => return Err(e),
            }
        }

        let mut budget = capacity;
        let mut attempts = 0u32;
        loop {
            self.check_ctl::<T>()?;
            attempts += 1;
            let diagnostic = |attempts, budget, detail: String| {
                Error::CapacityExhausted(CapacityDiagnostic {
                    estimate_upper,
                    capacity,
                    attempts,
                    smallest_budget: budget,
                    detail,
                })
            };
            let batches = plan_batches(&forecast.rows, forecast.fixed, budget, capacity).map_err(
                |(row, need)| {
                    diagnostic(
                        attempts,
                        budget,
                        format!("row {row} alone needs {need} B of device memory"),
                    )
                },
            )?;
            // One span per attempt so the per-batch runs (and every
            // device event they produce) nest under the retry that
            // issued them. The attempt index doubles as the logical
            // timestamp — the batched layer has no clock of its own.
            let attempt_span = self.inner.telemetry_mut().map(|t| {
                let span = t.span_begin("attempt", attempts as f64);
                (span, t.set_parent(Some(span)))
            });
            self.emit::<T>(
                obs::Event::new("batched_plan")
                    .u64("attempt", u64::from(attempts))
                    .u64("batches", to_u64(batches.len()))
                    .u64("budget", budget)
                    .u64("estimate_upper", estimate_upper)
                    .u64("capacity", capacity),
            );
            let res = self.run_batches(a, b, opts, &batches);
            if let Some((span, prev)) = attempt_span {
                if let Some(t) = self.inner.telemetry_mut() {
                    t.set_parent(prev);
                    t.span_end(span, attempts as f64 + 1.0);
                }
            }
            match res {
                Ok(run) => {
                    self.last_batches = batches.len();
                    self.last_retries = attempts - 1;
                    return Ok(run);
                }
                Err(e) if e.recovery() == Recovery::RetrySmallerBatch => {
                    let detail = e.to_string();
                    if attempts > Self::MAX_RETRIES {
                        return Err(diagnostic(attempts, budget, detail));
                    }
                    budget = (budget / 2).max(1);
                    self.emit::<T>(
                        obs::Event::new("batch_retry")
                            .u64("attempt", u64::from(attempts))
                            .u64("next_budget", budget)
                            .str("cause", &detail),
                    );
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl<T: Scalar, E: Executor<T>> Executor<T> for BatchedExecutor<E> {
    fn backend(&self) -> Backend {
        self.inner.backend()
    }

    fn plan(&self, a: &Csr<T>, b: &Csr<T>, opts: &Options) -> Result<SpgemmPlan> {
        self.inner.plan(a, b, opts)
    }

    fn execute_numeric(
        &mut self,
        plan: &SpgemmPlan,
        symbolic: &SymbolicOutput,
        a: &Csr<T>,
        b: &Csr<T>,
    ) -> Result<Execution<T>> {
        self.inner.execute_numeric(plan, symbolic, a, b)
    }

    fn telemetry_mut(&mut self) -> Option<&mut obs::Telemetry> {
        self.inner.telemetry_mut()
    }

    fn multiply(&mut self, a: &Csr<T>, b: &Csr<T>, opts: &Options) -> Result<Execution<T>> {
        let forecast = estimate_memory(a, b)?;
        self.multiply_with_forecast(a, b, opts, &forecast)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ErrorKind;
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

    #[test]
    fn plan_batches_fits_budget_and_reports_infeasible_rows() {
        let weights = vec![10, 20, 30, 5, 5, 40, 10];
        let fixed = 8;
        let batches = plan_batches(&weights, fixed, 60, 1000).unwrap();
        // Covers all rows, in order, non-overlapping.
        assert_eq!(batches.first().unwrap().start, 0);
        assert_eq!(batches.last().unwrap().end, weights.len());
        for w in batches.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        for b in &batches {
            assert!(b.len() == 1 || fixed + weights[b.clone()].iter().sum::<u64>() <= 60, "{b:?}");
        }
        // A row over device capacity is unrecoverable.
        assert_eq!(plan_batches(&weights, fixed, 60, 45), Err((5, 48)));
        // Zero rows: one empty batch.
        assert_eq!(plan_batches(&[], fixed, 60, 1000), Ok(vec![Range { start: 0, end: 0 }]));
        // Budget below fixed: single-row batches, allowed under capacity.
        let tiny = plan_batches(&weights, fixed, 4, 1000).unwrap();
        assert!(tiny.iter().all(|r| r.len() == 1));
    }

    #[test]
    fn batched_sim_is_bitwise_equal_to_unbatched() {
        let a = rand_mat(400, 7, 9);
        let c_ref = spgemm_gustavson(&a, &a).unwrap();
        let est = estimate_memory(&a, &a).unwrap().upper_bound();

        // Unconstrained reference run.
        let mut g_full = Gpu::new(DeviceConfig::p100());
        let full = crate::multiply(&mut g_full, &a, &a, &Options::default()).unwrap().0;
        assert_eq!(full, c_ref);

        // Constrain to a quarter of the estimate: the forecast exceeds
        // capacity 4x, so the fallback must batch — and match bitwise.
        let mut g = Gpu::new(DeviceConfig::p100_with_memory(est / 4));
        let mut exec = BatchedExecutor::sim(&mut g);
        let run = Executor::<f64>::multiply(&mut exec, &a, &a, &Options::default()).unwrap();
        assert!(exec.batches_used() > 1, "expected batching at est/4");
        let bits = |m: &Csr<f64>| m.val().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(run.matrix.rpt(), full.rpt());
        assert_eq!(run.matrix.col(), full.col());
        assert_eq!(bits(&run.matrix), bits(&full));
        assert!(run.report.algorithm.contains("batched"));
        assert_eq!(run.report.output_nnz, c_ref.nnz() as u64);
        assert_eq!(g.live_mem_bytes(), 0, "batched run must free everything");
    }

    #[test]
    fn unbatched_fast_path_when_it_fits() {
        let a = rand_mat(200, 5, 3);
        let mut g = Gpu::new(DeviceConfig::p100());
        let mut exec = BatchedExecutor::sim(&mut g);
        let run = Executor::<f64>::multiply(&mut exec, &a, &a, &Options::default()).unwrap();
        assert_eq!(exec.batches_used(), 1);
        assert!(!run.report.algorithm.contains("batched"));
    }

    #[test]
    fn capacity_exhausted_carries_diagnostic() {
        let a = rand_mat(200, 6, 4);
        // Device far too small for even one row's working set.
        let mut g = Gpu::new(DeviceConfig::p100_with_memory(256));
        let mut exec = BatchedExecutor::sim(&mut g);
        let err = Executor::<f64>::multiply(&mut exec, &a, &a, &Options::default()).unwrap_err();
        match err {
            Error::CapacityExhausted(d) => {
                assert_eq!(d.capacity, 256);
                assert!(d.estimate_upper > d.capacity);
                assert!(d.to_string().contains("device memory"));
            }
            other => panic!("expected CapacityExhausted, got {other}"),
        }
        assert_eq!(g.live_mem_bytes(), 0);
    }

    #[test]
    fn zero_row_a_returns_empty_c_not_panic() {
        // Regression: an empty batch plan (A has zero rows) used to
        // reach `reports.last().expect("at least one batch")`. Both
        // backends must return the empty product with a zeroed report.
        let a = Csr::<f64>::from_parts(0, 48, vec![0], vec![], vec![]).unwrap();
        let b = rand_mat(48, 4, 2);

        // Standalone reference for bitwise comparison.
        let mut g_ref = Gpu::new(DeviceConfig::p100());
        let c_ref = crate::multiply(&mut g_ref, &a, &b, &Options::default()).unwrap().0;
        assert_eq!(c_ref.rows(), 0);

        // Sim backend, device so small the batched path would engage.
        let mut g = Gpu::new(DeviceConfig::p100_with_memory(64));
        let mut exec = BatchedExecutor::sim(&mut g);
        let run = Executor::<f64>::multiply(&mut exec, &a, &b, &Options::default()).unwrap();
        assert_eq!(run.matrix, c_ref);
        assert_eq!(run.report.output_nnz, 0);
        assert_eq!(run.report.intermediate_products, 0);
        // The one case that still plans: its record stands for `C`.
        let record = run.record.expect("a zero-row multiply leaves its plan");
        assert_eq!((record.plan.rows, record.plan.cols), (0, 48));
        assert_eq!(exec.batches_used(), 0);
        assert_eq!(g.live_mem_bytes(), 0);

        // Host backend under the same byte contract.
        let mut cfg = DeviceConfig::p100();
        cfg.device_mem_bytes = 64;
        let mut host = BatchedExecutor::host(2, cfg);
        let run = Executor::<f64>::multiply(&mut host, &a, &b, &Options::default()).unwrap();
        assert_eq!(run.matrix, c_ref);
        assert_eq!(run.report.output_nnz, 0);
    }

    #[test]
    fn empty_matrix_batches_to_empty_product() {
        let z = Csr::<f64>::zeros(32, 32);
        // Capacity below even B's footprint: forecast exceeds capacity,
        // the batched path runs with one empty batch.
        let mut g = Gpu::new(DeviceConfig::p100_with_memory(64));
        let mut exec = BatchedExecutor::sim(&mut g);
        let err = Executor::<f64>::multiply(&mut exec, &z, &z, &Options::default());
        // Either outcome is structured: tiny devices may not fit B at
        // all (DeviceOom via retries -> CapacityExhausted), never panic.
        match err {
            Ok(run) => assert_eq!(run.matrix.nnz(), 0),
            Err(e) => assert!(matches!(e, Error::CapacityExhausted(_) | Error::DeviceOom(_))),
        }
        assert_eq!(g.live_mem_bytes(), 0);
    }

    #[test]
    fn mismatched_shapes_are_a_planning_error() {
        let a = rand_mat(20, 3, 1);
        let b = Csr::<f64>::zeros(21, 20);
        let mut g = Gpu::new(DeviceConfig::p100());
        let mut exec = BatchedExecutor::sim(&mut g);
        let err = Executor::<f64>::multiply(&mut exec, &a, &b, &Options::default()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Planning);
        let zero_rows = Csr::<f64>::zeros(0, 20);
        let err =
            Executor::<f64>::multiply(&mut exec, &zero_rows, &b, &Options::default()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Planning);
        assert_eq!(g.live_mem_bytes(), 0);
    }

    #[test]
    fn forecast_exactly_at_capacity_runs_unbatched() {
        let a = rand_mat(150, 4, 8);
        let est = estimate_memory(&a, &a).unwrap().upper_bound();
        let mut host = BatchedExecutor::host(2, DeviceConfig::p100_with_memory(est));
        let run = Executor::<f64>::multiply(&mut host, &a, &a, &Options::default()).unwrap();
        assert_eq!(host.batches_used(), 1);
        assert!(run.record.is_some(), "an unsplit run keeps its plan");
        // One byte less and the same multiply splits.
        let mut host = BatchedExecutor::host(2, DeviceConfig::p100_with_memory(est - 1));
        let split = Executor::<f64>::multiply(&mut host, &a, &a, &Options::default()).unwrap();
        assert!(host.batches_used() > 1);
        assert!(split.record.is_none());
        assert_eq!(split.matrix, run.matrix);
    }
}
