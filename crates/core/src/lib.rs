//! `nsparse_core` — the paper's contribution: high-performance,
//! memory-saving SpGEMM via grouped shared-memory hash tables.
//!
//! This crate implements the algorithm of Nagasaka, Nukada & Matsuoka
//! (ICPP 2017) behind a plan/executor split (DESIGN.md §12):
//!
//! * [`groups`]: row grouping and Table I parameter derivation —
//!   hash-table sizes (powers of two), thread-block sizes, PWARP/TB
//!   assignment, the 32-blocks/SM stopping rule;
//! * [`hash`]: the linear-probing `atomicCAS` hash table of Algorithm 5
//!   with observed probe counts;
//! * [`plan`]: the backend-neutral [`SpgemmPlan`] — per-row intermediate
//!   products, group assignments, table sizes, stream mapping — built
//!   once per multiply;
//! * [`exec`]: the [`Executor`] trait an execution backend implements;
//! * [`sim`]: [`SimExecutor`], the [`vgpu`] virtual Pascal GPU backend —
//!   the two-phase flow of Figure 1 (count → malloc → calc) with
//!   per-group CUDA-stream launches and the global-memory fallback for
//!   rows that exceed shared memory;
//! * [`host`]: [`HostParallelExecutor`], the same plan run for real
//!   across OS threads with CPU-native dense row accumulators, bitwise
//!   equal to [`sim`], with wall-clock reporting;
//! * [`pipeline`]: [`Options`], errors, the classic [`multiply`] entry
//!   point and the [`estimate_memory`] forecast.
//!
//! # Quick start
//!
//! ```
//! use nsparse_core::{multiply, Options};
//! use sparse::Csr;
//! use vgpu::{DeviceConfig, Gpu};
//!
//! let a = Csr::<f64>::identity(64);
//! let mut gpu = Gpu::new(DeviceConfig::p100());
//! let (c, report) = multiply(&mut gpu, &a, &a, &Options::default()).unwrap();
//! assert_eq!(c, a);
//! println!("{} GFLOPS, peak {} B", report.gflops(), report.peak_mem_bytes);
//! ```
//!
//! Or run the same multiply on real host threads:
//!
//! ```
//! use nsparse_core::{Executor, HostParallelExecutor, Options};
//! use sparse::Csr;
//!
//! let a = Csr::<f64>::identity(64);
//! let mut exec = HostParallelExecutor::new(2);
//! let run = exec.multiply(&a, &a, &Options::default()).unwrap();
//! assert_eq!(run.matrix, a);
//! println!("wall {:?}", run.wall.unwrap().total);
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::todo, clippy::unimplemented)]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]

pub mod batched;
pub mod exec;
pub mod groups;
pub mod hash;
pub mod host;
mod kernels;
pub mod partition;
pub mod pipeline;
pub mod plan;
pub mod reuse;
pub mod sim;

pub use batched::BatchedExecutor;
pub use exec::{Backend, ColdRecord, Execution, Executor, JobCtl, SymbolicOutput, WallClock};
pub use groups::{build_groups, Assignment, GroupOccupancy, GroupPhase, GroupSpec, GroupTable};
pub use hash::{HashTable, ProbeStats, HASH_SCAL};
pub use host::HostParallelExecutor;
pub use pipeline::{
    estimate_memory, multiply, CapacityDiagnostic, Error, ErrorKind, MemoryEstimate, Options,
    Recovery,
};
pub use plan::{global_table_size_checked, Estimator, PhasePlan, SpgemmPlan};
pub use reuse::{pattern_fingerprint, SymbolicPlan};
pub use sim::SimExecutor;
