//! `engine` — SpGEMM as a service.
//!
//! The paper benchmarks one multiply at a time; a solver or service
//! computes *streams* of them — AMG setup across levels, Galerkin triple
//! products per time step, many tenants sharing one device. This crate
//! turns the workspace's plan/executor split (DESIGN.md §12) and its
//! error taxonomy (§13) into a job engine (§14):
//!
//! * [`JobSpec`] — one `C = A × B` request over [`std::sync::Arc`]'d
//!   inputs, validated at the submission boundary (shape, row ranges,
//!   sim-only faults) so untrusted inputs surface
//!   [`nsparse_core::Error`]s instead of panics;
//! * [`Engine`] — a fixed pool of worker threads consuming a FIFO job
//!   queue. Each job is *admitted* against a shared device-memory
//!   budget ([`vgpu::SharedBudget`]) using the
//!   [`nsparse_core::estimate_memory`] forecast: jobs whose forecast
//!   fits reserve it (blocking while the device is full — that wait is
//!   the queue), jobs that can never fit whole are routed through the
//!   row-batched fallback ([`nsparse_core::BatchedExecutor`]), and
//!   admitted jobs that still hit a recoverable device error fall back
//!   to the same batched route. Every attempt, on either route and
//!   either backend, runs as one session: a fresh backend capped at the
//!   attempt's reservation, the job's telemetry installed into it once
//!   and taken back once, and (on the sim backend) one sanitizer and
//!   leak check after a successful run;
//! * [`PlanCache`] — a shared LRU of [`nsparse_core::SymbolicPlan`]s
//!   keyed by the sparsity-structure fingerprint of both inputs (dims +
//!   `rpt` + `col`) plus the multiply options, so repeated structures
//!   skip the setup/count phases entirely and only run the numeric
//!   phase;
//! * [`driver`] — a seeded, deterministic multi-job workload (repeated
//!   patterns, rectangular slices, zero-row edge cases, optional fault
//!   injection) whose outputs are diffed bitwise against standalone
//!   [`nsparse_core::multiply`]; CI runs it at several worker counts.
//!
//! Results are **bitwise identical** to standalone `multiply` no matter
//! how jobs interleave: every output row is a pure function of its
//! A-row, B and the planned table sizes, and the plan depends only on
//! the input patterns and options — never on scheduling (see
//! `tests/determinism.rs` for the workspace-wide argument).
//!
//! Under hostile load (DESIGN.md §17) the engine adds per-job deadlines
//! on the simulated clock, bounded-queue load shedding, cooperative
//! cancellation ([`JobTicket::cancel`]), deterministic retry/backoff
//! for transient device faults, and worker panic containment. The
//! [`chaos`] module soaks all of it with seeded hostile job mixes and
//! asserts conservation, no budget leaks, and bitwise fidelity after
//! every run.
//!
//! ```
//! use engine::{Engine, EngineConfig, JobSpec};
//! use sparse::Csr;
//! use std::sync::Arc;
//!
//! let a = Arc::new(Csr::<f64>::identity(64));
//! let mut eng = Engine::new(EngineConfig::default());
//! let ticket = eng.submit(JobSpec::new(Arc::clone(&a), Arc::clone(&a)));
//! let out = ticket.wait().unwrap();
//! assert_eq!(&out.matrix, a.as_ref());
//! let stats = eng.shutdown();
//! assert!(stats.budget_drained);
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::todo, clippy::unimplemented)]
#![warn(clippy::indexing_slicing)]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]

pub mod cache;
pub mod chaos;
pub mod driver;
mod engine;
pub mod job;
pub mod recorder;

pub use cache::{CacheStats, PlanCache, PlanKey};
pub use chaos::{run_chaos, ChaosConfig, ChaosReport, SanCanary};
pub use driver::{run_driver, DriverConfig, DriverReport};
pub use engine::{Engine, EngineConfig, EngineStats, JobTicket, LatencySummary, SanTotals};
pub use job::{CacheOutcome, JobOutput, JobSpec, Route};
pub use recorder::{FlightRecorder, JobTrace, TraceBuilder};

/// Jobs fail with the core pipeline's classified error taxonomy.
pub type Result<T> = std::result::Result<T, nsparse_core::Error>;
