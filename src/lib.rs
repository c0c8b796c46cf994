//! nsparse-repro — workspace facade.
//!
//! A from-scratch Rust reproduction of *"High-performance and
//! Memory-saving Sparse General Matrix-Matrix Multiplication for NVIDIA
//! Pascal GPU"* (Nagasaka, Nukada & Matsuoka, ICPP 2017). The GPU is
//! replaced by a deterministic virtual-device substrate; see DESIGN.md
//! for the substitution argument and EXPERIMENTS.md for the measured
//! reproduction of every table and figure.
//!
//! This crate only re-exports the member crates so the `examples/` and
//! `tests/` directories at the workspace root have a single dependency
//! surface:
//!
//! * [`sparse`] — CSR/COO formats, reference SpGEMM, Matrix Market I/O;
//! * [`matgen`] — seeded synthetic analogues of the paper's datasets;
//! * [`vgpu`] — the virtual Pascal P100;
//! * [`nsparse_core`] — the paper's grouped hash-table SpGEMM algorithm;
//! * [`baselines`] — CUSP (ESC), cuSPARSE-like and BHSPARSE-like.
//!
//! # Quick start
//!
//! ```
//! use nsparse_repro::prelude::*;
//!
//! let d = matgen::by_name("QCD").unwrap();
//! let a = d.generate::<f32>(matgen::Scale::Tiny);
//! let mut gpu = Gpu::new(DeviceConfig::p100());
//! let (c, report) = nsparse_core::multiply(&mut gpu, &a, &a, &Options::default()).unwrap();
//! assert_eq!(c.nnz() as u64, report.output_nnz);
//! ```

pub use baselines;
pub use matgen;
pub use nsparse_core;
pub use sparse;
pub use vgpu;

/// Common imports for examples and tests.
pub mod prelude {
    pub use baselines::Algorithm;
    pub use nsparse_core::{
        AlgorithmChoice, AlgorithmPolicy, Backend, BatchedExecutor, Error, ErrorKind, Estimator,
        Executor, HostParallelExecutor, Options, Recovery, SimExecutor, SpgemmPlan, SymbolicPlan,
    };
    pub use sparse::{Csr, Scalar};
    pub use vgpu::{DeviceConfig, FaultPlan, Gpu, Phase, SimTime, SpgemmReport};
}
