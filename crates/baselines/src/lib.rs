//! Re-implementations of the three comparison libraries (§IV, §V).
//!
//! The paper compares against CUSP (the ESC algorithm of Bell, Dalton &
//! Olson), cuSPARSE (Demouth's two-phase hash SpGEMM, GTC 2012) and
//! BHSPARSE (Liu & Vinter's bin-dispatched hybrid, IPDPS 2014). None of
//! those can run here (CUDA-only / closed), so each is re-implemented
//! from its published algorithm description on the same [`vgpu`]
//! substrate the proposal runs on — identical device model, identical
//! datasets, so relative shape is meaningful.
//!
//! All three return the same `(Csr<T>, SpgemmReport)` pair as
//! [`nsparse_core::multiply`], and all are validated against the CPU
//! reference in their tests.

pub mod bhsparse_like;
mod common;
pub mod cusp_esc;
pub mod cusparse_like;

pub use bhsparse_like::multiply as bhsparse_multiply;
pub use cusp_esc::multiply as cusp_multiply;
pub use cusparse_like::multiply as cusparse_multiply;

/// Which SpGEMM implementation to run (used by the benchmark harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The paper's proposal (`nsparse_core`).
    Proposal,
    /// cuSPARSE-like two-phase hash.
    Cusparse,
    /// CUSP's expansion-sort-contraction.
    Cusp,
    /// BHSPARSE-like bin-dispatched hybrid.
    Bhsparse,
}

impl Algorithm {
    /// All algorithms in the paper's comparison order.
    pub const ALL: [Algorithm; 4] =
        [Algorithm::Cusp, Algorithm::Cusparse, Algorithm::Bhsparse, Algorithm::Proposal];

    /// Display name used in tables and figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Proposal => "PROPOSAL",
            Algorithm::Cusparse => "cuSPARSE",
            Algorithm::Cusp => "CUSP",
            Algorithm::Bhsparse => "BHSPARSE",
        }
    }

    /// Run this algorithm on the given device with default options.
    pub fn run<T: sparse::Scalar>(
        self,
        gpu: &mut vgpu::Gpu,
        a: &sparse::Csr<T>,
        b: &sparse::Csr<T>,
    ) -> nsparse_core::pipeline::Result<(sparse::Csr<T>, vgpu::SpgemmReport)> {
        self.run_with_opts(gpu, a, b, &nsparse_core::Options::default())
    }

    /// Run this algorithm under explicit multiply options. Only the
    /// proposal consumes them (estimator mode, hash variant); the
    /// baselines model fixed published algorithms and ignore `opts`.
    pub fn run_with_opts<T: sparse::Scalar>(
        self,
        gpu: &mut vgpu::Gpu,
        a: &sparse::Csr<T>,
        b: &sparse::Csr<T>,
        opts: &nsparse_core::Options,
    ) -> nsparse_core::pipeline::Result<(sparse::Csr<T>, vgpu::SpgemmReport)> {
        match self {
            Algorithm::Proposal => {
                // Through the executor split: the baseline comparison runs
                // the proposal on the simulated backend explicitly.
                use nsparse_core::Executor;
                let mut exec = nsparse_core::SimExecutor::new(gpu);
                let run = exec.multiply(a, b, opts)?;
                Ok((run.matrix, run.report))
            }
            Algorithm::Cusparse => cusparse_multiply(gpu, a, b),
            Algorithm::Cusp => cusp_multiply(gpu, a, b),
            Algorithm::Bhsparse => bhsparse_multiply(gpu, a, b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::Proposal.name(), "PROPOSAL");
        assert_eq!(Algorithm::ALL.len(), 4);
    }
}
