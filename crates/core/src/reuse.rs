//! Symbolic-phase reuse: plan once, execute the numeric phase many times.
//!
//! The paper's motivating applications recompute products with a *fixed
//! sparsity pattern* and changing values — AMG rebuilds `Pᵀ A P` per
//! time step, iterative methods re-form the same Galerkin triple
//! product, MCL expands a matrix whose pattern stabilizes. For those,
//! the setup + count phases (grouping, symbolic hashing, output sizing)
//! depend only on the pattern and can be cached.
//!
//! [`SymbolicPlan`] captures everything the numeric phase needs: the
//! backend-neutral plan, the symbolic result (output row pointer,
//! per-row nnz and the output's sorted column structure) and the
//! options. A host plan's numeric phase therefore only fills values: it
//! checks every row against the recorded columns and copies them into
//! `C` ([`crate::SymbolicOutput::structure`]).
//!
//! A plan is what a cold [`crate::Executor::multiply`] leaves behind:
//! [`SymbolicPlan::from_run`] moves the plan out of the run's
//! [`crate::Execution::record`] and copies the structure from its `C`,
//! and [`SymbolicPlan::from_executor`] is one cold multiply plus that
//! record, on any executor (on the sim backend,
//! `SymbolicPlan::from_executor(&mut SimExecutor::new(&mut gpu), ..)`).
//! [`SymbolicPlan::execute_with`] then runs only the output malloc +
//! numeric kernels, on either backend. A fingerprint of both input
//! patterns guards against executing a plan on matrices it was not
//! built for.

use crate::exec::{ColdRecord, Execution, Executor, SymbolicOutput};
use crate::pipeline::{Error, Options, Result};
use crate::plan::SpgemmPlan;
use sparse::{Csr, Scalar};
use vgpu::SimTime;

/// FNV-1a over the structural arrays of a matrix (pattern only — values
/// are free to change between plan and execute). Public because the
/// engine's plan cache keys on exactly this fingerprint (dims + `rpt` +
/// `col`).
pub fn pattern_fingerprint<T: Scalar>(m: &Csr<T>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x100000001b3);
    };
    eat(m.rows() as u64);
    eat(m.cols() as u64);
    for &p in m.rpt() {
        eat(p as u64);
    }
    for &c in m.col() {
        eat(c as u64);
    }
    h
}

/// A reusable symbolic plan for `C = A * B` with fixed patterns.
#[derive(Debug, Clone)]
pub struct SymbolicPlan<T> {
    plan: SpgemmPlan,
    fingerprint_a: u64,
    fingerprint_b: u64,
    symbolic: SymbolicOutput,
    /// Simulated time of the cold multiply that built the plan (its
    /// report's total; zero on backends without a device clock).
    pub plan_time: SimTime,
    /// Hash-probe steps spent in that multiply's count phase.
    pub plan_hash_probes: u64,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Scalar> SymbolicPlan<T> {
    /// Build a plan from one cold `multiply` on `exec` — the
    /// backend-neutral form, so a plan produced by the sim or host
    /// backend replays on either. A [`crate::BatchedExecutor`] that
    /// splits the rows records no plan, and this is then an
    /// [`Error::invariant`].
    pub fn from_executor<E: Executor<T>>(
        exec: &mut E,
        a: &Csr<T>,
        b: &Csr<T>,
        opts: &Options,
    ) -> Result<Self> {
        let mut run = exec.multiply(a, b, opts)?;
        Self::from_run(&mut run, pattern_fingerprint(a), pattern_fingerprint(b))
    }

    /// The plan a cold run leaves: its record's plan (moved out of
    /// `run`) and a symbolic result built from its `C`, a copy of the
    /// column array included. `fingerprint_a`/`fingerprint_b` are the
    /// operands' [`pattern_fingerprint`]s. A run without a record (a
    /// numeric replay, or a batched run that split the rows) is an
    /// [`Error::invariant`].
    pub fn from_run(
        run: &mut Execution<T>,
        fingerprint_a: u64,
        fingerprint_b: u64,
    ) -> Result<Self> {
        let ColdRecord { plan, count_probes } = run.record.take().ok_or_else(|| {
            Error::invariant("the run recorded no plan: it was not one cold multiply")
        })?;
        Ok(SymbolicPlan {
            plan,
            fingerprint_a,
            fingerprint_b,
            symbolic: SymbolicOutput::of_output(&run.matrix, run.replans),
            plan_time: run.report.total_time,
            plan_hash_probes: count_probes,
            _marker: std::marker::PhantomData,
        })
    }

    /// nnz the output will have.
    pub fn output_nnz(&self) -> usize {
        self.symbolic.output_nnz()
    }

    /// The backend-neutral plan this symbolic result was derived from.
    pub fn plan(&self) -> &SpgemmPlan {
        &self.plan
    }

    /// The cached symbolic (count-phase) result.
    pub fn symbolic(&self) -> &SymbolicOutput {
        &self.symbolic
    }

    /// Guard shared by every execution path: the matrices must carry the
    /// planned patterns (values are free to differ).
    fn check_patterns(&self, a: &Csr<T>, b: &Csr<T>) -> Result<()> {
        if pattern_fingerprint(a) != self.fingerprint_a
            || pattern_fingerprint(b) != self.fingerprint_b
        {
            return Err(Error::Planning(sparse::SparseError::DimensionMismatch(
                "matrix pattern differs from the planned pattern".into(),
            )));
        }
        Ok(())
    }

    /// Execute the numeric phase on *any* executor — the cache-hit path
    /// of the engine: the symbolic phase is skipped entirely, only
    /// output malloc + calc run on the backend.
    pub fn execute_with<E: Executor<T>>(
        &self,
        exec: &mut E,
        a: &Csr<T>,
        b: &Csr<T>,
    ) -> Result<Execution<T>> {
        self.check_patterns(a, b)?;
        exec.execute_numeric(&self.plan, &self.symbolic, a, b)
    }

    /// Heap bytes the plan's symbolic result holds: its row arrays and
    /// the structure (4 B per output entry) — what a plan cache pays per
    /// entry beyond the backend-neutral plan.
    pub fn heap_bytes(&self) -> u64 {
        self.symbolic.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimExecutor;
    use sparse::spgemm_ref::spgemm_gustavson;
    use vgpu::{DeviceConfig, Gpu, Phase};

    fn sim_plan(gpu: &mut Gpu, a: &Csr<f64>) -> SymbolicPlan<f64> {
        SymbolicPlan::from_executor(&mut SimExecutor::new(gpu), a, a, &Options::default()).unwrap()
    }

    fn sim_execute(
        plan: &SymbolicPlan<f64>,
        gpu: &mut Gpu,
        a: &Csr<f64>,
    ) -> Result<(Csr<f64>, vgpu::SpgemmReport)> {
        let run = plan.execute_with(&mut SimExecutor::new(gpu), a, a)?;
        Ok((run.matrix, run.report))
    }

    fn mats(n: usize, seed: u64) -> Csr<f64> {
        let mut s = seed;
        let mut t = Vec::new();
        for r in 0..n {
            for _ in 0..6 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                t.push((r, ((s >> 33) as usize % n) as u32, 1.0 + (s % 9) as f64));
            }
        }
        Csr::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn planned_execution_matches_direct_multiply() {
        let a = mats(400, 3);
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let plan = sim_plan(&mut gpu, &a);
        let (c, report) = sim_execute(&plan, &mut gpu, &a).unwrap();
        let c_ref = spgemm_gustavson(&a, &a).unwrap();
        assert_eq!(c, c_ref);
        assert_eq!(plan.output_nnz(), c_ref.nnz());
        assert!(plan.plan_time > SimTime::ZERO, "the sim backend charges planning time");
        assert!(report.total_time > SimTime::ZERO);
        assert_eq!(gpu.live_mem_bytes(), 0);
    }

    #[test]
    fn execute_is_faster_than_full_multiply() {
        let a = mats(2000, 7);
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let (_, full) = crate::multiply(&mut gpu, &a, &a, &Options::default()).unwrap();
        let plan = sim_plan(&mut gpu, &a);
        let (_, planned) = sim_execute(&plan, &mut gpu, &a).unwrap();
        assert!(
            planned.total_time < full.total_time,
            "planned {} vs full {}",
            planned.total_time,
            full.total_time
        );
        // The numeric-only run has no setup/count phases.
        assert_eq!(planned.phase_time(Phase::Setup), SimTime::ZERO);
        assert_eq!(planned.phase_time(Phase::Count), SimTime::ZERO);
    }

    #[test]
    fn values_may_change_pattern_may_not() {
        let a = mats(300, 11);
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let plan = sim_plan(&mut gpu, &a);
        // Same pattern, scaled values: fine.
        let a2 = a.scaled(3.0);
        let (c, _) = sim_execute(&plan, &mut gpu, &a2).unwrap();
        assert_eq!(c, spgemm_gustavson(&a2, &a2).unwrap());
        // Different pattern: rejected.
        let other = mats(300, 12);
        assert!(sim_execute(&plan, &mut gpu, &other).is_err());
    }

    #[test]
    fn host_executor_reuses_plans_bitwise() {
        // The backend-neutral path: plan via the host executor, replay
        // the numeric phase with changed values — bitwise equal to a
        // cold host multiply and to the sim backend.
        let a = mats(350, 9);
        let mut host = crate::HostParallelExecutor::new(2);
        let plan = SymbolicPlan::from_executor(&mut host, &a, &a, &Options::default()).unwrap();
        assert_eq!(plan.plan_time, SimTime::ZERO, "no device clock, no planning time");
        let a2 = a.scaled(2.5);
        let hit = plan.execute_with(&mut host, &a2, &a2).unwrap();
        let cold =
            Executor::<f64>::multiply(&mut host, &a2, &a2, &Options::default()).unwrap().matrix;
        let bits = |m: &Csr<f64>| m.val().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(hit.matrix.rpt(), cold.rpt());
        assert_eq!(hit.matrix.col(), cold.col());
        assert_eq!(bits(&hit.matrix), bits(&cold));
        // Wrong pattern still rejected through the generic path.
        let other = mats(350, 10);
        assert!(plan.execute_with(&mut host, &other, &other).is_err());
    }

    #[test]
    fn repeated_execution_is_stable() {
        let a = mats(500, 5);
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let plan = sim_plan(&mut gpu, &a);
        let (c1, r1) = sim_execute(&plan, &mut gpu, &a).unwrap();
        let (c2, r2) = sim_execute(&plan, &mut gpu, &a).unwrap();
        assert_eq!(c1, c2);
        assert_eq!(r1.total_time.secs().to_bits(), r2.total_time.secs().to_bits());
    }
}
