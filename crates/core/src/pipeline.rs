//! The full SpGEMM pipeline of Figure 1 — public facade.
//!
//! ```text
//! (1) count intermediate products per row          — Setup phase
//! (2) group rows by intermediate products          — Setup phase
//! (3) count nnz of each output row (hash tables)   — Count phase
//! (4) scan row counts into the output row pointer  — Count phase
//! (5) cudaMalloc of the output matrix              — Malloc phase
//! (6) group rows by output nnz                     — Calc phase
//! (7) compute values, gather, sort                 — Calc phase
//! ```
//!
//! Since the plan/executor split (DESIGN.md §12) this module holds the
//! shared surface: [`Options`], the [`Error`] type, the classic
//! [`multiply`] entry point (sugar for [`crate::SimExecutor`]) and the
//! [`estimate_memory`] forecast. The backend-neutral planning lives in
//! [`crate::plan`]; the simulated execution, including every kernel
//! charge, lives in [`crate::sim`]; the host-thread execution in
//! [`crate::host`].
//!
//! Each group's kernel launches on its own CUDA stream when
//! [`Options::use_streams`] is set, so small groups overlap with big
//! ones (§IV-C measured ×1.3 on Circuit from exactly this).

use crate::exec::Executor;
use crate::groups::{build_groups, GroupPhase};
use crate::sim::SimExecutor;
use sparse::spgemm_ref::row_intermediate_products;
use sparse::{to_u64, Csr, Scalar, DEVICE_INDEX_BYTES};
use vgpu::{Gpu, GpuError, OutOfDeviceMemory, SpgemmReport};

/// Tunables of the proposal. Defaults reproduce the paper's
/// configuration; the switches drive the §III/§IV-C ablations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Options {
    /// Launch each group's kernels on a separate CUDA stream (§IV-C).
    pub use_streams: bool,
    /// Use the PWARP/ROW kernel for tiny rows (§IV-C).
    pub use_pwarp: bool,
    /// Threads per row in the PWARP kernel (the paper swept 1/2/4/8/16
    /// and fixed 4).
    pub pwarp_width: usize,
    /// Apply the multiplicative `HASH_SCAL` scrambling (ablation; the
    /// paper always scrambles). Only the simulated backend's hash tables
    /// read it, and it moves their probe counts (so simulated time),
    /// never the output; the host backend has no hash tables and
    /// ignores it.
    pub use_mul_hash: bool,
    /// How the count-phase metric is obtained (DESIGN.md §16). The
    /// default, [`crate::Estimator::Exact`], is byte-identical to the paper's
    /// pipeline; a sampled estimator trades table-sizing accuracy for
    /// planning cost, with per-row replans absorbing under-estimates.
    pub estimator: crate::plan::Estimator,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            use_streams: true,
            use_pwarp: true,
            pwarp_width: 4,
            use_mul_hash: true,
            estimator: crate::plan::Estimator::Exact,
        }
    }
}

/// Errors of the SpGEMM pipeline, classified for recovery (DESIGN.md
/// §13). Every variant maps to an [`ErrorKind`] and carries a
/// [`Recovery`] hint; the hint is what [`crate::BatchedExecutor`] keys
/// its retry-with-smaller-batch loop on, so the taxonomy is load-bearing,
/// not cosmetic.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Host-side planning failure before any device work (dimension
    /// mismatch, malformed input). Retrying cannot help.
    Planning(sparse::SparseError),
    /// Device memory exhausted — real or injected. The one recoverable
    /// class: a smaller working set (fewer rows per batch) may fit.
    DeviceOom(OutOfDeviceMemory),
    /// Device execution failure other than memory (invalid or injected
    /// kernel/memcpy faults). Deterministic, so retrying the same work
    /// cannot help.
    Kernel(GpuError),
    /// An internal invariant was violated (e.g. a kernel assembled a
    /// malformed CSR). Always a bug in this crate, never the input.
    Invariant(String),
    /// The batched fallback gave up: even after shrinking batches
    /// [`CapacityDiagnostic::attempts`] times the multiply does not fit
    /// the device. Carries the estimate-vs-capacity diagnostic.
    CapacityExhausted(CapacityDiagnostic),
    /// The job's deadline elapsed before it finished (simulated
    /// microseconds, DESIGN.md §17). The work already done is discarded
    /// and every reservation released; retrying the same job with the
    /// same deadline would expire again.
    DeadlineExceeded {
        /// The deadline the job was submitted with.
        deadline_us: u64,
        /// Simulated time the job had consumed when the expiry was
        /// observed (phase boundaries only, so `>= deadline_us`).
        elapsed_us: u64,
    },
    /// The job was cancelled cooperatively (ticket-side cancel observed
    /// at a phase boundary). Not a failure of the work itself.
    Cancelled,
    /// The serving queue was full at submission: the job was shed
    /// without running. Carries the observed depth and the bound so a
    /// client can back off and resubmit.
    Shed {
        /// Jobs queued at the moment of rejection.
        queued: usize,
        /// The configured `max_queue_depth` bound.
        limit: usize,
    },
    /// The job panicked inside a worker thread; the panic was contained
    /// ([`std::panic::catch_unwind`]) and converted into this error so
    /// the pool and the shared budget survive.
    Panicked(String),
}

/// The failure classes of the taxonomy (DESIGN.md §13, §17).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Host-side planning failure.
    Planning,
    /// Device memory exhausted (includes capacity-exhausted fallback).
    DeviceOom,
    /// Non-memory device failure.
    Kernel,
    /// Internal invariant violation.
    Invariant,
    /// Deadline expiry (simulated clock).
    Deadline,
    /// Cooperative cancellation.
    Cancelled,
    /// Load-shed at submission (queue full).
    Rejected,
    /// A contained worker panic.
    Panic,
}

/// What a caller can do about an [`Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Retrying with a smaller per-batch working set may succeed — the
    /// batched fallback executor acts on exactly this hint.
    RetrySmallerBatch,
    /// A fresh attempt of the *same* work may succeed after a backoff
    /// delay: device faults are transient at the serving layer (ECC
    /// scrubs, driver resets), so the engine retries these under a
    /// bounded per-job budget with deterministic exponential backoff.
    /// Injected faults replay identically per attempt, so retries
    /// exhaust deterministically (DESIGN.md §17).
    RetryAfterBackoff,
    /// The job never ran (queue full); resubmit when load drops.
    Resubmit,
    /// No automatic recovery; surface the error.
    Fatal,
}

/// Why the batched fallback could not complete: the forecast, the
/// device, and how far the retry loop got before giving up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityDiagnostic {
    /// `estimate_memory(a, b).upper_bound()` for the full multiply.
    pub estimate_upper: u64,
    /// Device capacity in bytes.
    pub capacity: u64,
    /// Batched attempts made (each with half the previous byte budget).
    pub attempts: u32,
    /// The smallest per-batch byte budget tried.
    pub smallest_budget: u64,
    /// Human-readable cause (the last OOM, or the infeasible row).
    pub detail: String,
}

impl std::fmt::Display for CapacityDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "multiply needs up to {} B against {} B of device memory; \
             gave up after {} batched attempt(s) down to a {} B batch budget ({})",
            self.estimate_upper, self.capacity, self.attempts, self.smallest_budget, self.detail
        )
    }
}

impl Error {
    /// The failure class of this error.
    pub fn kind(&self) -> ErrorKind {
        match self {
            Error::Planning(_) => ErrorKind::Planning,
            Error::DeviceOom(_) | Error::CapacityExhausted(_) => ErrorKind::DeviceOom,
            Error::Kernel(_) => ErrorKind::Kernel,
            Error::Invariant(_) => ErrorKind::Invariant,
            Error::DeadlineExceeded { .. } => ErrorKind::Deadline,
            Error::Cancelled => ErrorKind::Cancelled,
            Error::Shed { .. } => ErrorKind::Rejected,
            Error::Panicked(_) => ErrorKind::Panic,
        }
    }

    /// The recovery hint of this error. Deliberately an exhaustive
    /// match — adding an `Error` variant must force a classification
    /// decision here, never fall through a wildcard (DESIGN.md §17).
    pub fn recovery(&self) -> Recovery {
        match self {
            // A plain OOM may fit in smaller batches; CapacityExhausted
            // means that retry loop already ran and gave up.
            Error::DeviceOom(_) => Recovery::RetrySmallerBatch,
            // Device faults are transient at the serving layer; the
            // engine retries them under a bounded backoff budget.
            Error::Kernel(_) => Recovery::RetryAfterBackoff,
            // Shed jobs never ran; the client may resubmit later.
            Error::Shed { .. } => Recovery::Resubmit,
            Error::Planning(_)
            | Error::Invariant(_)
            | Error::CapacityExhausted(_)
            | Error::DeadlineExceeded { .. }
            | Error::Cancelled
            | Error::Panicked(_) => Recovery::Fatal,
        }
    }

    /// Wrap an invariant violation (malformed internal CSR etc.).
    pub fn invariant(detail: impl std::fmt::Display) -> Self {
        Error::Invariant(detail.to_string())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Planning(e) => write!(f, "planning: {e}"),
            Error::DeviceOom(e) => write!(f, "device OOM (retry with smaller batches): {e}"),
            Error::Kernel(e) => write!(f, "device: {e}"),
            Error::Invariant(msg) => write!(f, "internal invariant violated: {msg}"),
            Error::CapacityExhausted(d) => write!(f, "capacity exhausted: {d}"),
            Error::DeadlineExceeded { deadline_us, elapsed_us } => {
                write!(f, "deadline exceeded: {elapsed_us} us elapsed against a {deadline_us} us deadline")
            }
            Error::Cancelled => write!(f, "cancelled by the submitter"),
            Error::Shed { queued, limit } => {
                write!(f, "shed: queue full ({queued} jobs against a depth limit of {limit})")
            }
            Error::Panicked(msg) => write!(f, "worker panic (contained): {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<GpuError> for Error {
    fn from(e: GpuError) -> Self {
        match e {
            GpuError::OutOfMemory(oom) => Error::DeviceOom(oom),
            other @ (GpuError::InvalidLaunch(_)
            | GpuError::BadAlloc(_)
            | GpuError::KernelFault(_)
            | GpuError::MemcpyFault(_)) => Error::Kernel(other),
        }
    }
}

impl From<OutOfDeviceMemory> for Error {
    fn from(e: OutOfDeviceMemory) -> Self {
        Error::DeviceOom(e)
    }
}

impl From<sparse::SparseError> for Error {
    fn from(e: sparse::SparseError) -> Self {
        Error::Planning(e)
    }
}

/// Crate result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Multiply `C = A * B` with the paper's grouped hash-table algorithm on
/// the virtual GPU. Returns the output matrix and the execution report
/// (phase times per Figure 5/6, peak memory per Figure 4).
///
/// Equivalent to running [`crate::SimExecutor`] through the
/// [`crate::Executor`] trait; kept as the one-call entry point every
/// pre-split caller used.
///
/// On out-of-device-memory every allocation made by this call is
/// released before the error is returned, so the device stays usable.
pub fn multiply<T: Scalar>(
    gpu: &mut Gpu,
    a: &Csr<T>,
    b: &Csr<T>,
    opts: &Options,
) -> Result<(Csr<T>, SpgemmReport)> {
    let mut exec = SimExecutor::new(gpu);
    let run = Executor::<T>::multiply(&mut exec, a, b, opts)?;
    Ok((run.matrix, run.report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::spgemm_ref::spgemm_gustavson;
    use vgpu::{DeviceConfig, Phase, SimTime};

    fn gpu() -> Gpu {
        Gpu::new(DeviceConfig::p100())
    }

    fn random_pair(n: usize, seed: u64) -> (Csr<f64>, Csr<f64>) {
        // Small pseudo-random matrices via the triplet constructor.
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as usize
        };
        let mut t1 = Vec::new();
        let mut t2 = Vec::new();
        for r in 0..n {
            for _ in 0..(next() % 9) {
                t1.push((r, (next() % n) as u32, 1.0 + (next() % 5) as f64));
            }
            for _ in 0..(next() % 9) {
                t2.push((r, (next() % n) as u32, 1.0 + (next() % 5) as f64));
            }
        }
        (Csr::from_triplets(n, n, &t1).unwrap(), Csr::from_triplets(n, n, &t2).unwrap())
    }

    #[test]
    fn multiply_matches_reference_small() {
        let (a, b) = random_pair(300, 7);
        let c_ref = spgemm_gustavson(&a, &b).unwrap();
        let mut g = gpu();
        let (c, report) = multiply(&mut g, &a, &b, &Options::default()).unwrap();
        assert_eq!(c.rpt(), c_ref.rpt());
        assert_eq!(c.col(), c_ref.col());
        assert!(c.approx_eq(&c_ref, 1e-12, 1e-12));
        assert!(report.total_time > SimTime::ZERO);
        assert_eq!(report.output_nnz, c_ref.nnz() as u64);
        // All device memory released.
        assert_eq!(g.live_mem_bytes(), 0);
    }

    #[test]
    fn multiply_identity_roundtrip() {
        let (a, _) = random_pair(200, 3);
        let i = Csr::<f64>::identity(200);
        let mut g = gpu();
        let (c, _) = multiply(&mut g, &a, &i, &Options::default()).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn multiply_empty_matrix() {
        let z = Csr::<f64>::zeros(64, 64);
        let mut g = gpu();
        let (c, report) = multiply(&mut g, &z, &z, &Options::default()).unwrap();
        assert_eq!(c.nnz(), 0);
        assert_eq!(report.intermediate_products, 0);
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let a = Csr::<f64>::zeros(4, 5);
        let b = Csr::<f64>::zeros(4, 5);
        let mut g = gpu();
        let err = multiply(&mut g, &a, &b, &Options::default()).unwrap_err();
        assert!(matches!(err, Error::Planning(_)));
        assert_eq!(err.kind(), ErrorKind::Planning);
        assert_eq!(err.recovery(), Recovery::Fatal);
    }

    #[test]
    fn options_do_not_change_results() {
        let (a, b) = random_pair(250, 11);
        let c_ref = spgemm_gustavson(&a, &b).unwrap();
        for opts in [
            Options { use_streams: false, ..Options::default() },
            Options { use_pwarp: false, ..Options::default() },
            Options { use_mul_hash: false, ..Options::default() },
            Options { pwarp_width: 8, ..Options::default() },
            Options { pwarp_width: 1, ..Options::default() },
        ] {
            let mut g = gpu();
            let (c, _) = multiply(&mut g, &a, &b, &opts).unwrap();
            assert_eq!(c.rpt(), c_ref.rpt(), "{opts:?}");
            assert!(c.approx_eq(&c_ref, 1e-12, 1e-12), "{opts:?}");
        }
    }

    #[test]
    fn streams_reduce_time_with_small_groups() {
        let (a, b) = random_pair(600, 23);
        let run = |streams: bool| {
            let mut g = gpu();
            let (_, r) =
                multiply(&mut g, &a, &b, &Options { use_streams: streams, ..Options::default() })
                    .unwrap();
            r.total_time
        };
        assert!(run(true) <= run(false));
    }

    #[test]
    fn report_phases_cover_total() {
        let (a, b) = random_pair(300, 5);
        let mut g = gpu();
        let (_, r) = multiply(&mut g, &a, &b, &Options::default()).unwrap();
        let sum: SimTime =
            r.phase_times.iter().filter(|(p, _)| *p != Phase::Other).map(|&(_, t)| t).sum();
        assert!((sum.secs() - r.total_time.secs()).abs() < 1e-15);
        assert!(r.phase_time(Phase::Count) > SimTime::ZERO);
        assert!(r.phase_time(Phase::Calc) > SimTime::ZERO);
        assert!(r.phase_time(Phase::Malloc) > SimTime::ZERO);
    }

    /// Satellite of DESIGN.md §17: every `Error` variant must have an
    /// explicit kind + recovery classification. The match below has no
    /// wildcard arm, so adding a variant breaks this test (and the
    /// `recovery()` impl, which is likewise exhaustive) at compile time.
    #[test]
    fn every_error_variant_is_classified() {
        use sparse::SparseError;
        let oom = || {
            let mut g = Gpu::new(DeviceConfig::p100_with_memory(8));
            g.malloc(1024, "probe").unwrap_err()
        };
        let samples: Vec<Error> = vec![
            Error::Planning(SparseError::DimensionMismatch("x".into())),
            oom().into(),
            Error::Kernel(vgpu::GpuError::KernelFault("grouping".into())),
            Error::Invariant("bad csr".into()),
            Error::CapacityExhausted(CapacityDiagnostic {
                estimate_upper: 2,
                capacity: 1,
                attempts: 5,
                smallest_budget: 1,
                detail: String::new(),
            }),
            Error::DeadlineExceeded { deadline_us: 10, elapsed_us: 25 },
            Error::Cancelled,
            Error::Shed { queued: 64, limit: 64 },
            Error::Panicked("boom".into()),
        ];
        for e in &samples {
            let (kind, recovery) = match e {
                Error::Planning(_) => (ErrorKind::Planning, Recovery::Fatal),
                Error::DeviceOom(_) => (ErrorKind::DeviceOom, Recovery::RetrySmallerBatch),
                Error::Kernel(_) => (ErrorKind::Kernel, Recovery::RetryAfterBackoff),
                Error::Invariant(_) => (ErrorKind::Invariant, Recovery::Fatal),
                Error::CapacityExhausted(_) => (ErrorKind::DeviceOom, Recovery::Fatal),
                Error::DeadlineExceeded { .. } => (ErrorKind::Deadline, Recovery::Fatal),
                Error::Cancelled => (ErrorKind::Cancelled, Recovery::Fatal),
                Error::Shed { .. } => (ErrorKind::Rejected, Recovery::Resubmit),
                Error::Panicked(_) => (ErrorKind::Panic, Recovery::Fatal),
            };
            assert_eq!(e.kind(), kind, "{e}");
            assert_eq!(e.recovery(), recovery, "{e}");
            assert!(!e.to_string().is_empty());
        }
        // The sample list covers every variant exactly once (update it
        // alongside the enum).
        assert_eq!(samples.len(), 9);
    }

    #[test]
    fn oom_propagates_and_cleans_up() {
        let (a, b) = random_pair(300, 9);
        let mut g = Gpu::new(DeviceConfig::p100_with_memory(1024));
        let err = multiply(&mut g, &a, &b, &Options::default()).unwrap_err();
        assert!(matches!(err, Error::DeviceOom(_)));
        assert_eq!(err.kind(), ErrorKind::DeviceOom);
        assert_eq!(err.recovery(), Recovery::RetrySmallerBatch);
        assert_eq!(g.live_mem_bytes(), 0);
    }

    #[test]
    fn dense_rows_exercise_global_group() {
        // One row of A selects a dense B-row band so its table exceeds
        // the shared-memory maximum (4096 numeric): needs > 4096 nnz.
        let n = 6000;
        let mut t1 = vec![(0usize, 0u32, 1.0f64)];
        for k in 0..3 {
            t1.push((0, k as u32, 1.0));
        }
        let mut t2 = Vec::new();
        for r in 0..3usize {
            for c in 0..n {
                if (c + r) % 2 == 0 {
                    t2.push((r, c as u32, 1.0));
                }
            }
        }
        // Other rows tiny.
        for r in 3..n {
            t1.push((r, (r % n) as u32, 1.0));
            t2.push((r, (r % n) as u32, 1.0));
        }
        let a = Csr::from_triplets(n, n, &t1).unwrap();
        let b = Csr::from_triplets(n, n, &t2).unwrap();
        let c_ref = spgemm_gustavson(&a, &b).unwrap();
        assert!(c_ref.row_nnz(0) > 4096, "test needs a group-0 row");
        let mut g = gpu();
        let (c, _) = multiply(&mut g, &a, &b, &Options::default()).unwrap();
        assert_eq!(c.rpt(), c_ref.rpt());
        assert!(c.approx_eq(&c_ref, 1e-12, 1e-12));
    }
}

/// Device-memory forecast for a multiplication — what a user consults
/// before committing a matrix to a device (the paper's headline concern:
/// "the applicable matrix data is limited by the capacity of GPU's
/// device memory", §I).
///
/// It is Alg. 2's product count turned into bytes, row by row: the
/// engine admits a job on [`MemoryEstimate::upper_bound`] and
/// [`crate::BatchedExecutor`] cuts its row batches on the same per-row
/// bytes, so the forecast of any row range is `fixed` plus the sum of
/// its rows, and the batch gate and the published forecast cannot
/// disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryEstimate {
    /// Bytes no row split divides: `B`, plus the `+1` slots of the four
    /// per-row arrays (`A`'s row pointer, the product counts, the count
    /// scan and `C`'s row pointer).
    pub(crate) fixed: u64,
    /// Bytes of each row of `A`: its entries and row-pointer slot, three
    /// working slots (product count, group row, `C` row pointer), one
    /// output entry per intermediate product plus its `C` row-pointer
    /// slot, and, above the largest shared table, its global count table.
    pub(crate) rows: Vec<u64>,
    /// `fixed` plus every row.
    upper: u64,
}

impl MemoryEstimate {
    /// Total upper bound: allocation of this many bytes always succeeds.
    pub fn upper_bound(&self) -> u64 {
        self.upper
    }
}

/// The byte-weight summations below run on untrusted, possibly
/// adversarial inputs (the engine's admission control feeds every
/// submitted job through them), so each step is overflow-checked and a
/// wrap is a structured [`ErrorKind::Planning`] error, never silent
/// wraparound arithmetic.
pub(crate) fn overflow_err(what: &str) -> Error {
    Error::Planning(sparse::SparseError::Overflow(format!("{what} exceeds u64 bytes")))
}

/// Estimate peak device memory for `multiply(a, b)` without running the
/// numeric phase (host-side, O(nnz(A))). Always from exact products:
/// a sampled estimator's padded counts size hash tables, not memory.
pub fn estimate_memory<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Result<MemoryEstimate> {
    let nprod = row_intermediate_products(a, b)?;
    let ix = DEVICE_INDEX_BYTES;
    let entry = ix + to_u64(T::BYTES);
    let overflow = || overflow_err("per-row byte weight");
    // Count-phase overflow tables exist for rows beyond the largest
    // shared table (threshold depends only on device class; use P100's).
    let groups = build_groups(&vgpu::DeviceConfig::p100(), T::BYTES, GroupPhase::Count, 4, true);
    let shared_max = groups.groups[0].lower - 1;
    let rows = nprod
        .iter()
        .enumerate()
        .map(|(r, &p)| {
            let input = entry * to_u64(a.row_nnz(r)) + ix;
            let output = entry.checked_mul(to_u64(p)).and_then(|o| o.checked_add(ix));
            let table = if p > shared_max {
                crate::plan::global_table_size_checked(p)
                    .and_then(|size| ix.checked_mul(to_u64(size)))
            } else {
                Some(0)
            };
            output
                .zip(table)
                .and_then(|(o, t)| (input + 3 * ix).checked_add(o)?.checked_add(t))
                .ok_or_else(overflow)
        })
        .collect::<Result<Vec<u64>>>()?;
    let fixed = b.device_bytes() + 4 * ix;
    let upper = rows
        .iter()
        .try_fold(fixed, |acc, &w| acc.checked_add(w))
        .ok_or_else(|| overflow_err("whole-multiply byte estimate"))?;
    Ok(MemoryEstimate { fixed, rows, upper })
}

#[cfg(test)]
mod estimate_tests {
    use super::*;
    use vgpu::DeviceConfig;

    fn mat(n: usize, deg: usize) -> Csr<f64> {
        let mut t = Vec::new();
        for r in 0..n {
            for d in 0..deg {
                t.push((r, ((r * 7 + d * 13) % n) as u32, 1.0));
            }
        }
        Csr::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn upper_bound_dominates_actual_peak() {
        let a = mat(600, 8);
        let est = estimate_memory(&a, &a).unwrap();
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let (_, report) = multiply(&mut gpu, &a, &a, &Options::default()).unwrap();
        assert!(
            est.upper_bound() >= report.peak_mem_bytes,
            "estimate {} < actual {}",
            est.upper_bound(),
            report.peak_mem_bytes
        );
        // And it is not absurdly loose: within the products/nnz ratio.
        assert!(est.upper_bound() < 40 * report.peak_mem_bytes);
    }

    #[test]
    fn estimate_components_consistent() {
        let a = mat(200, 5);
        let est = estimate_memory(&a, &a).unwrap();
        assert_eq!(est.fixed, a.device_bytes() + 4 * DEVICE_INDEX_BYTES);
        assert_eq!(est.upper_bound(), est.fixed + est.rows.iter().sum::<u64>());
        // Small regular matrix, no global tables: each row holds its 5
        // entries of `A`, 25 product entries and five index slots.
        let (ix, entry) = (DEVICE_INDEX_BYTES, DEVICE_INDEX_BYTES + 8);
        assert!(est.rows.iter().all(|&w| w == entry * (5 + 25) + 5 * ix));
    }

    #[test]
    fn rows_sum_to_every_row_range_forecast() {
        let a = mat(300, 6);
        let est = estimate_memory(&a, &a).unwrap();
        for range in [0..1, 0..300, 17..93, 150..300, 42..42] {
            let sub = a.slice_rows(range.clone());
            assert_eq!(
                est.fixed + est.rows[range.clone()].iter().sum::<u64>(),
                estimate_memory(&sub, &a).unwrap().upper_bound(),
                "range {range:?}"
            );
        }
    }

    #[test]
    fn estimate_rejects_bad_dims() {
        let a = Csr::<f32>::zeros(3, 4);
        assert!(estimate_memory(&a, &a).is_err());
    }

    #[test]
    fn overflow_is_a_planning_error() {
        let e = overflow_err("byte weights");
        assert_eq!(e.kind(), ErrorKind::Planning);
        assert_eq!(e.recovery(), Recovery::Fatal);
        assert!(e.to_string().contains("size overflow"));
    }
}
