//! Job specification and the submission-boundary validation.
//!
//! The engine is the workspace's first *untrusted-input* surface: a
//! service accepts matrices it did not construct and row ranges it did
//! not compute. Everything that used to be a caller-side precondition
//! (and therefore a panic) is re-checked here and surfaced as a
//! classified [`Error`] — `slice_rows` bounds, `A.cols == B.rows`,
//! CSR well-formedness, backend capabilities (faults are sim-only).

use crate::Result;
use nsparse_core::{Backend, Error, Options};
use sparse::{Csr, Scalar, SparseError};
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;
use vgpu::{FaultPlan, SpgemmReport};

/// One `C = A × B` request. Inputs are shared ([`Arc`]) so many jobs —
/// and the caller — can reference the same matrices without copies.
#[derive(Debug, Clone)]
pub struct JobSpec<T> {
    /// Left operand (optionally restricted to [`JobSpec::rows`]).
    pub a: Arc<Csr<T>>,
    /// Right operand.
    pub b: Arc<Csr<T>>,
    /// Multiply tunables; part of the plan-cache key.
    pub opts: Options,
    /// Optional row window of `A`: compute `C = A[rows, :] × B`.
    /// Validated at submission — out-of-range windows are a
    /// [`nsparse_core::ErrorKind::Planning`] error, never a panic.
    pub rows: Option<Range<usize>>,
    /// Deterministic device faults to inject into this job (sim backend
    /// only; rejected at validation on the host backend).
    pub faults: Option<FaultPlan>,
    /// Deadline in *simulated* microseconds from admission (DESIGN.md
    /// §17). Checked at phase boundaries against the job's accumulated
    /// device time plus backoff waits; an expired job fails with
    /// [`nsparse_core::Error::DeadlineExceeded`] and releases its
    /// reservation. `None` = no deadline.
    pub deadline_us: Option<u64>,
}

impl<T: Scalar> JobSpec<T> {
    /// A job with default options over whole matrices.
    pub fn new(a: Arc<Csr<T>>, b: Arc<Csr<T>>) -> Self {
        JobSpec { a, b, opts: Options::default(), rows: None, faults: None, deadline_us: None }
    }

    /// Replace the multiply options.
    pub fn with_opts(mut self, opts: Options) -> Self {
        self.opts = opts;
        self
    }

    /// Restrict the multiply to a row window of `A`.
    pub fn with_rows(mut self, rows: Range<usize>) -> Self {
        self.rows = Some(rows);
        self
    }

    /// Inject deterministic device faults (sim backend only).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Set a simulated-time deadline in microseconds.
    pub fn with_deadline_us(mut self, deadline_us: u64) -> Self {
        self.deadline_us = Some(deadline_us);
        self
    }

    fn planning(msg: String) -> Error {
        Error::Planning(SparseError::DimensionMismatch(msg))
    }

    /// Full boundary validation: CSR invariants of both inputs, the row
    /// window, operand shapes, and backend capabilities. Everything a
    /// hostile submitter could get wrong maps to a classified error.
    pub fn validate(&self, backend: &Backend) -> Result<()> {
        self.a.validate().map_err(Error::Planning)?;
        self.b.validate().map_err(Error::Planning)?;
        if let Some(r) = &self.rows {
            if r.start > r.end || r.end > self.a.rows() {
                return Err(Error::Planning(SparseError::RowOutOfBounds {
                    row: r.start.max(r.end),
                    rows: self.a.rows(),
                }));
            }
        }
        if self.a.cols() != self.b.rows() {
            return Err(Self::planning(format!(
                "cannot multiply {}x{} by {}x{}",
                self.a.rows(),
                self.a.cols(),
                self.b.rows(),
                self.b.cols()
            )));
        }
        if self.faults.is_some() && matches!(backend, Backend::Host { .. }) {
            return Err(Self::planning(
                "fault injection is sim-only (no device on the host backend)".into(),
            ));
        }
        Ok(())
    }

    /// The effective left operand: the whole matrix, or the validated
    /// row window sliced out (fallibly — never the panicking form).
    pub fn effective_a(&self) -> Result<EffectiveA<'_, T>> {
        match &self.rows {
            None => Ok(EffectiveA::Whole(&self.a)),
            Some(r) => {
                let sliced = self.a.try_slice_rows(r.clone()).map_err(Error::Planning)?;
                Ok(EffectiveA::Sliced(sliced))
            }
        }
    }
}

/// Borrowed-or-sliced left operand (a `Cow` without the `Clone` bound).
#[derive(Debug)]
pub enum EffectiveA<'a, T> {
    /// The job covers all of `A`.
    Whole(&'a Csr<T>),
    /// The job's row window, sliced into an owned matrix.
    Sliced(Csr<T>),
}

impl<T> AsRef<Csr<T>> for EffectiveA<'_, T> {
    fn as_ref(&self) -> &Csr<T> {
        match self {
            EffectiveA::Whole(m) => m,
            EffectiveA::Sliced(m) => m,
        }
    }
}

/// How the engine executed a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Admitted whole: one reservation, one multiply.
    Direct,
    /// Row-batched fallback: the forecast exceeded the budget, or an
    /// admitted run hit a recoverable device error.
    Batched,
}

/// What the plan cache did for a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// A cached symbolic plan was replayed — setup/count skipped.
    Hit,
    /// One cold multiply; the plan it recorded was inserted for future
    /// jobs.
    Miss,
    /// The batched route plans per batch and bypasses the cache.
    Bypass,
}

/// A completed job: the product plus how it was produced.
#[derive(Debug, Clone)]
pub struct JobOutput<T> {
    /// The product `C` — bitwise identical to standalone `multiply`.
    pub matrix: Csr<T>,
    /// The backend's execution report.
    pub report: SpgemmReport,
    /// Admission outcome.
    pub route: Route,
    /// Plan-cache outcome.
    pub cache: CacheOutcome,
    /// Wall-clock latency from worker pickup to completion.
    pub latency: Duration,
    /// Wall-clock wait from submission to worker pickup — the queue
    /// time `latency` never included.
    pub queue_wait: Duration,
    /// Budget-halving retries the batched route consumed (0 on the
    /// direct route or when the first batched attempt succeeded).
    pub batched_retries: u32,
    /// Execution attempts consumed (1 = first try succeeded; >1 means
    /// transient-fault retries with backoff ran).
    pub attempts: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsparse_core::ErrorKind;

    fn ident(n: usize) -> Arc<Csr<f64>> {
        Arc::new(Csr::identity(n))
    }

    #[test]
    fn shape_mismatch_is_a_planning_error() {
        let spec = JobSpec::new(ident(4), ident(5));
        let err = spec.validate(&Backend::Sim).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Planning);
    }

    #[test]
    fn bad_row_window_is_a_planning_error() {
        let spec = JobSpec::new(ident(4), ident(4)).with_rows(2..9);
        let err = spec.validate(&Backend::Sim).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Planning);
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = JobSpec::new(ident(4), ident(4)).with_rows(3..1);
        assert_eq!(inverted.validate(&Backend::Sim).unwrap_err().kind(), ErrorKind::Planning);
    }

    #[test]
    fn faults_are_rejected_on_the_host_backend() {
        let plan = FaultPlan::parse("seed=1;malloc-oom=1").unwrap();
        let spec = JobSpec::new(ident(4), ident(4)).with_faults(plan);
        assert!(spec.validate(&Backend::Sim).is_ok());
        let err = spec.validate(&Backend::Host { threads: 2 }).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Planning);
    }

    #[test]
    fn effective_a_slices_fallibly() {
        let spec = JobSpec::new(ident(6), ident(6)).with_rows(1..4);
        let eff = spec.effective_a().unwrap();
        assert_eq!(eff.as_ref().rows(), 3);
        let bad = JobSpec::new(ident(6), ident(6)).with_rows(4..9);
        assert!(bad.effective_a().is_err());
    }
}
