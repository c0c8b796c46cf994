//! The executor abstraction: one [`SpgemmPlan`], many backends.
//!
//! An [`Executor`] turns a plan into results. Two implementations ship:
//!
//! * [`crate::SimExecutor`] — the paper's virtual Pascal GPU; charges
//!   every kernel to the cost model and reports simulated phase times.
//! * [`crate::HostParallelExecutor`] — the same grouped hash algorithm
//!   run for real across OS threads; reports wall-clock time.
//!
//! Both produce bitwise-identical CSR output for the same inputs
//! (DESIGN.md §12 gives the determinism argument); what differs is the
//! *report*: simulated time and device telemetry from the sim backend,
//! wall-clock phase times from the host backend.

use crate::pipeline::{overflow_err, Error, Options, Result};
use crate::plan::SpgemmPlan;
use sparse::{to_u64, Csr, Scalar};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use vgpu::{Phase, SpgemmReport};

/// Which execution backend to run a multiply on. Parsed from the
/// `--backend {sim,host,host:N}` CLI flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The virtual-GPU simulation (cost model + telemetry).
    Sim,
    /// Real OS threads on the host; `threads == 0` means "use all
    /// available cores".
    Host {
        /// Worker thread count (0 = auto).
        threads: usize,
    },
}

impl Backend {
    /// Parse a CLI backend spec: `sim`, `host`, or `host:N` (N ≥ 1).
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "sim" => Some(Backend::Sim),
            "host" => Some(Backend::Host { threads: 0 }),
            _ => s
                .strip_prefix("host:")
                .and_then(|n| n.parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .map(|threads| Backend::Host { threads }),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Sim => write!(f, "sim"),
            Backend::Host { threads: 0 } => write!(f, "host"),
            Backend::Host { threads } => write!(f, "host:{threads}"),
        }
    }
}

/// What a backend can and cannot report (the DESIGN.md §12 capability
/// matrix, queryable at runtime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendCaps {
    /// Reports simulated device time (phase breakdown of Figures 5/6).
    pub simulated_time: bool,
    /// Reports real wall-clock time.
    pub wall_clock: bool,
    /// Models concurrent per-group streams (§IV-C overlap).
    pub concurrent_streams: bool,
    /// Worker threads that execute row kernels.
    pub threads: usize,
    /// Output is independent of scheduling (always true today; a future
    /// backend with atomic accumulation would clear it).
    pub deterministic_output: bool,
}

/// What the numeric phase replays: exact per-row output sizes and the
/// output's structure. A cold [`Executor::multiply`] produces it; a
/// [`crate::SymbolicPlan`] holds one built from that run's `C`.
#[derive(Debug, Clone)]
pub struct SymbolicOutput {
    /// nnz of each output row.
    pub nnz_row: Vec<u32>,
    /// Exclusive scan of `nnz_row` — the output row pointer.
    pub rpt: Vec<usize>,
    /// Rows whose sampled-estimate table under-sized and were recounted
    /// with exact products (always 0 under [`crate::Estimator::Exact`];
    /// DESIGN.md §16's replan contract).
    pub replans: u64,
    /// The output's structure: every row's sorted column indices, back
    /// to back and laid out by `rpt` — the column array `C` has. The
    /// patterns alone decide it, so the host backend's numeric phase
    /// (the plan-cache hit path) only fills values, checking each row
    /// against it; the simulator's numeric kernels rebuild every row.
    pub structure: Vec<u32>,
}

impl SymbolicOutput {
    /// The symbolic result `c` stands for: its row pointer, the row
    /// counts it implies and a copy of its column array.
    pub(crate) fn of_output<T: Scalar>(c: &Csr<T>, replans: u64) -> Result<Self> {
        let rpt = c.rpt().to_vec();
        let nnz_row = rpt
            .windows(2)
            .map(|w| u32::try_from(w[1] - w[0]).map_err(|_| overflow_err("output row nnz")))
            .collect::<Result<_>>()?;
        Ok(SymbolicOutput { nnz_row, rpt, replans, structure: c.col().to_vec() })
    }

    /// Total nnz of the output matrix.
    pub fn output_nnz(&self) -> usize {
        *self.rpt.last().unwrap_or(&0)
    }

    /// Heap bytes of the result: the row arrays (`nnz_row`, `rpt`) and
    /// the structure, 4 B per output entry.
    pub fn heap_bytes(&self) -> u64 {
        let words = |len: usize, bytes: usize| to_u64(len) * to_u64(bytes);
        words(self.nnz_row.len(), 4)
            + words(self.rpt.len(), std::mem::size_of::<usize>())
            + words(self.structure.len(), 4)
    }
}

/// What a cold [`Executor::multiply`] leaves for a plan cache besides
/// `C`: the plan it ran and the hash probes of its count phase.
#[derive(Debug, Clone)]
pub struct ColdRecord {
    /// The backend-neutral plan the multiply built and ran.
    pub plan: SpgemmPlan,
    /// Hash-probe steps of the count phase (0 on the host backend,
    /// whose accumulators have no hash slots).
    pub count_probes: u64,
}

/// Real elapsed time of a host-side execution, reported alongside the
/// simulated [`SpgemmReport`] so the bench harness can track a
/// real-hardware trajectory next to the model's predictions.
///
/// The host backend's `multiply` reports `Setup` (planning) and `Calc`:
/// it walks every row once, so one window counts and accumulates, then
/// copies into `C`. Its `execute_numeric` (the checked values pass)
/// reports `Calc` alone.
#[derive(Debug, Clone, Default)]
pub struct WallClock {
    /// End-to-end duration of the multiply.
    pub total: Duration,
    /// Per-phase durations (phases a backend does not time are absent).
    pub phases: Vec<(Phase, Duration)>,
}

impl WallClock {
    /// Duration of one phase (zero if the backend did not time it).
    pub fn phase(&self, p: Phase) -> Duration {
        self.phases.iter().find(|&&(q, _)| q == p).map(|&(_, d)| d).unwrap_or_default()
    }

    /// Real GFLOPS given the multiply's intermediate products (2 FLOPs
    /// each, the paper's Figure 2/3 convention). Zero for zero time.
    pub fn gflops(&self, intermediate_products: u64) -> f64 {
        let s = self.total.as_secs_f64();
        if s <= 0.0 {
            return 0.0;
        }
        2.0 * intermediate_products as f64 / s / 1e9
    }
}

/// One finished multiply: the output matrix, the backend's report, and
/// wall-clock timings when the backend measures real time.
#[derive(Debug, Clone)]
pub struct Execution<T> {
    /// The product `C = A · B`.
    pub matrix: Csr<T>,
    /// The backend's execution report (simulated fields are zero on
    /// backends without a device model).
    pub report: SpgemmReport,
    /// Real elapsed time (`None` on the simulated backend, whose time
    /// is model time, not wall time).
    pub wall: Option<WallClock>,
    /// Replanned rows of the symbolic pass this execution consumed
    /// (see [`SymbolicOutput::replans`]; summed across batches by the
    /// batched executor).
    pub replans: u64,
    /// The cold run's record, from which [`crate::SymbolicPlan`] builds
    /// a cache entry: `Some` from `multiply`, `None` from
    /// `execute_numeric` and from a [`crate::BatchedExecutor`] that
    /// split the rows.
    pub record: Option<ColdRecord>,
}

/// A backend that can execute an [`SpgemmPlan`].
///
/// `multiply` is the one cold path: it plans, runs the whole multiply
/// and assembles the report — the simulator runs Figure 1's setup,
/// count, malloc and calc phases in sequence under its instrumentation,
/// while the host backend walks every row once, counting and
/// accumulating together, with the same output and `replans`. Its
/// [`Execution::record`] is what a plan cache keeps
/// ([`crate::SymbolicPlan`]). `execute_numeric` replays only the malloc
/// + calc phases against such a cached symbolic result.
pub trait Executor<T: Scalar> {
    /// The backend this executor implements.
    fn backend(&self) -> Backend;

    /// What this backend can report.
    fn capabilities(&self) -> BackendCaps;

    /// Build the backend-neutral plan for `C = A · B` (validates
    /// dimensions; pure host work on every backend).
    fn plan(&self, a: &Csr<T>, b: &Csr<T>, opts: &Options) -> Result<SpgemmPlan>;

    /// Run the numeric (calc) phase of `plan` against a symbolic result.
    fn execute_numeric(
        &mut self,
        plan: &SpgemmPlan,
        symbolic: &SymbolicOutput,
        a: &Csr<T>,
        b: &Csr<T>,
    ) -> Result<Execution<T>>;

    /// Run the whole multiply and report it: plan, then count, malloc
    /// and calc — as three phases on the simulator, and on the host
    /// backend as one walk per row — and record the plan it ran. The
    /// output is bitwise identical to `execute_numeric` replaying that
    /// record on any backend.
    fn multiply(&mut self, a: &Csr<T>, b: &Csr<T>, opts: &Options) -> Result<Execution<T>>;

    /// The backend's telemetry session when one is attached: the sim
    /// backend returns its device session, the host backend its opt-in
    /// session. Wrapper executors ([`crate::BatchedExecutor`]) emit
    /// their orchestration events here so batching and injected faults
    /// appear in the same trace as the device work. Defaults to `None`.
    fn telemetry_mut(&mut self) -> Option<&mut obs::Telemetry> {
        None
    }

    /// The backend's clock in simulated microseconds, when it has one.
    /// The sim backend reports its device timeline (deterministic — a
    /// pure function of the inputs); wall-clock backends return `None`.
    /// [`crate::BatchedExecutor`] polls a job's [`JobCtl`] deadline
    /// against it between batches.
    fn device_elapsed_us(&self) -> Option<f64> {
        None
    }
}

/// Cooperative job control checked at phase boundaries (DESIGN.md §17).
///
/// Long multiplies must yield to two external signals: a cancellation
/// flag flipped by the submitter, and a deadline on the *simulated*
/// clock. Neither preempts a kernel — both are polled between phases
/// (and between batches inside [`crate::BatchedExecutor`]), which keeps
/// the check deterministic: whether a job dies at a boundary depends
/// only on its own accumulated device time, never on wall-clock racing.
///
/// `base_us` carries simulated time accumulated *before* the current
/// executor attached (prior retry attempts, backoff waits), so the
/// deadline compares against the job's whole simulated life. Backends
/// without a simulated clock ([`Executor::device_elapsed_us`] = `None`)
/// report 0 elapsed; deadlines are then only enforced against
/// `base_us`, i.e. a job on the host backend does not expire mid-job —
/// documented behaviour, not an accident.
#[derive(Debug, Clone, Default)]
pub struct JobCtl {
    /// Set by the submitter to request cancellation; polled, never
    /// preemptive.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Simulated-time deadline in µs from submission; `None` = no
    /// deadline.
    pub deadline_us: Option<u64>,
    /// Simulated µs spent before the current executor attached
    /// (earlier attempts + backoff).
    pub base_us: f64,
}

impl JobCtl {
    /// True if the submitter has requested cancellation.
    pub fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c.load(Ordering::SeqCst))
    }

    /// Poll both signals against `elapsed_us` simulated µs spent in the
    /// current executor. Cancellation wins over the deadline so a
    /// cancel-then-expire job classifies deterministically.
    pub fn check(&self, elapsed_us: f64) -> Result<()> {
        if self.cancelled() {
            return Err(Error::Cancelled);
        }
        if let Some(deadline) = self.deadline_us {
            let total = self.base_us + elapsed_us;
            if total > deadline as f64 {
                return Err(Error::DeadlineExceeded {
                    deadline_us: deadline,
                    elapsed_us: total as u64,
                });
            }
        }
        Ok(())
    }
}

/// Exclusive prefix sum of per-row counts into a CSR row pointer.
pub(crate) fn prefix_sum(nnz_row: &[u32]) -> Vec<usize> {
    std::iter::once(0usize)
        .chain(nnz_row.iter().scan(0usize, |acc, &n| {
            *acc += n as usize;
            Some(*acc)
        }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parse_roundtrip() {
        assert_eq!(Backend::parse("sim"), Some(Backend::Sim));
        assert_eq!(Backend::parse("host"), Some(Backend::Host { threads: 0 }));
        assert_eq!(Backend::parse("host:1"), Some(Backend::Host { threads: 1 }));
        assert_eq!(Backend::parse("host:8"), Some(Backend::Host { threads: 8 }));
        assert_eq!(Backend::parse("host:0"), None);
        assert_eq!(Backend::parse("host:"), None);
        assert_eq!(Backend::parse("cuda"), None);
        assert_eq!(Backend::Sim.to_string(), "sim");
        assert_eq!(Backend::Host { threads: 0 }.to_string(), "host");
        assert_eq!(Backend::Host { threads: 8 }.to_string(), "host:8");
    }

    #[test]
    fn symbolic_output_scans_counts() {
        // Rows of 2, 0 and 3 entries.
        let c = Csr::<f64>::from_triplets(
            3,
            4,
            &[(0, 1, 1.0), (0, 3, 1.0), (2, 0, 1.0), (2, 1, 1.0), (2, 2, 1.0)],
        )
        .unwrap();
        let s = SymbolicOutput::of_output(&c, 7).unwrap();
        assert_eq!(s.nnz_row, vec![2, 0, 3]);
        assert_eq!(s.rpt, vec![0, 2, 2, 5]);
        assert_eq!(s.output_nnz(), 5);
        assert_eq!(s.replans, 7);
        assert_eq!(s.structure, c.col());
        // 3 counts, 4 row pointers and 5 columns.
        let word = std::mem::size_of::<usize>() as u64;
        assert_eq!(s.heap_bytes(), 4 * 3 + word * 4 + 4 * 5);
        let empty = SymbolicOutput::of_output(&Csr::<f64>::zeros(0, 3), 0).unwrap();
        assert_eq!(empty.output_nnz(), 0);
    }

    #[test]
    fn wall_clock_helpers() {
        let w = WallClock {
            total: Duration::from_secs(1),
            phases: vec![(Phase::Count, Duration::from_millis(400))],
        };
        assert_eq!(w.phase(Phase::Count), Duration::from_millis(400));
        assert_eq!(w.phase(Phase::Calc), Duration::ZERO);
        // 1e9 products in 1 s = 2 GFLOPS.
        assert!((w.gflops(1_000_000_000) - 2.0).abs() < 1e-12);
        assert_eq!(WallClock::default().gflops(100), 0.0);
    }
}
