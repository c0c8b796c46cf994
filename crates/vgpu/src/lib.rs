//! `vgpu` — a deterministic virtual Pascal-GPU substrate.
//!
//! The paper evaluates on an NVIDIA Tesla P100; this reproduction has no
//! GPU, so every SpGEMM algorithm in the workspace runs on this crate
//! instead. The substitution works like this:
//!
//! * **Functional execution** happens on the host: kernels really build
//!   their hash tables, really walk linear-probing chains, really merge
//!   intermediate products — so outputs are exact and collision/probe
//!   counts are *observed*, not estimated.
//! * **Cost accounting**: while executing, each thread block charges an
//!   analytic cost ([`cost::BlockCost`]) for compute slots, shared-memory
//!   traffic, atomics (with observed contention) and DRAM traffic.
//! * **Scheduling** ([`sched`]): blocks are placed onto the configured
//!   number of SMs in launch order, exactly like the hardware block
//!   scheduler; kernels on the same CUDA stream serialize, kernels on
//!   different streams overlap (§IV-C of the paper claims ×1.3 from this
//!   on Circuit); per-kernel latency-hiding efficiency is derived from
//!   achievable occupancy ([`occupancy`]).
//! * **Memory** ([`memory`]): a device allocator with capacity, live and
//!   peak tracking (Figure 4) and an out-of-memory error (the "-" entries
//!   of Table III), plus the measured-order Pascal `cudaMalloc` latency
//!   the paper's §IV-C breakdown highlights.
//! * **Profiling** ([`profiler`]): every kernel and malloc is recorded
//!   with its phase tag so Figures 5/6 (setup/count/calc/malloc
//!   breakdown) can be regenerated.
//!
//! Simulated time ([`SimTime`]) — never wall-clock — is the metric all
//! benchmarks report, which keeps every figure bit-reproducible.

pub mod budget;
pub mod config;
pub mod cost;
pub mod device;
pub mod fault;
pub mod memory;
pub mod occupancy;
pub mod primitives;
pub mod profiler;
pub mod report;
pub mod sanitize;
pub mod sched;
pub mod simtime;

pub use budget::SharedBudget;
pub use config::DeviceConfig;
pub use cost::{BlockCost, BlockCostBuilder, CostModel};
pub use device::{Gpu, KernelDesc, MemRange, StreamId};
pub use fault::{FaultPlan, FaultRule};
pub use memory::{AllocId, DeviceMemory, OutOfDeviceMemory};
pub use profiler::{KernelAgg, Phase, Profiler, StreamUtil};
pub use report::SpgemmReport;
pub use sanitize::{SanKind, SanReport, SanStats, Sanitizer};
pub use simtime::SimTime;

/// Errors surfaced by the virtual GPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuError {
    /// Device memory exhausted — the condition behind the "-" entries in
    /// the paper's Table III.
    OutOfMemory(OutOfDeviceMemory),
    /// A launch asked for more resources than the device allows (e.g.
    /// > 48 KB shared memory per block or > 1024 threads per block).
    InvalidLaunch(String),
    /// Free/use of an allocation id that is not live.
    BadAlloc(u64),
    /// A kernel launch failed because a [`FaultPlan`] rule matched its
    /// name (fault injection only — the virtual device itself never
    /// fails a valid launch).
    KernelFault(String),
    /// The Nth memcpy failed under an injected [`FaultPlan`] rule.
    MemcpyFault(u64),
}

impl std::fmt::Display for GpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpuError::OutOfMemory(e) => write!(f, "{e}"),
            GpuError::InvalidLaunch(msg) => write!(f, "invalid launch: {msg}"),
            GpuError::BadAlloc(id) => write!(f, "allocation {id} is not live"),
            GpuError::KernelFault(name) => {
                write!(f, "injected fault: kernel '{name}' failed to launch")
            }
            GpuError::MemcpyFault(nth) => write!(f, "injected fault: memcpy #{nth} failed"),
        }
    }
}

impl std::error::Error for GpuError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GpuError>;
