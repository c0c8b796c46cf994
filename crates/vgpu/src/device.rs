//! The virtual GPU device: timeline, launches, synchronization, memory.
//!
//! Host code (the SpGEMM algorithms) drives a [`Gpu`] exactly like a CUDA
//! runtime: allocate (`malloc`/`free`), launch kernels on streams
//! (`launch`), synchronize (`sync`). The device clock ([`Gpu::elapsed`])
//! only advances through these calls, so runs are perfectly deterministic
//! and independent of host wall-clock.
//!
//! CUDA semantics that matter to the paper and are reproduced here:
//! `cudaMalloc`/`cudaFree` synchronize the device and have substantial
//! fixed cost on Pascal (§IV-C); kernels on one stream serialize while
//! different streams may overlap (§IV-C stream experiment).

use crate::config::DeviceConfig;
use crate::cost::{BlockCost, BlockCostBuilder, CostModel};
use crate::fault::{FaultPlan, FaultState};
use crate::memory::{AllocId, DeviceMemory, OutOfDeviceMemory};
use crate::occupancy::occupancy;
use crate::profiler::{Phase, PhaseTotals, Timeline};
use crate::sanitize::{SanReport, SanStats, Sanitizer};
use crate::sched::{schedule_region, PendingKernel};
use crate::simtime::SimTime;
use crate::{GpuError, Result};

/// Identifier of a CUDA stream on the virtual device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub usize);

/// The default stream (stream 0).
pub const DEFAULT_STREAM: StreamId = StreamId(0);

/// A byte range inside one device allocation, used to annotate kernel
/// launches and transfers for the memory sanitizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRange {
    /// Target allocation.
    pub id: AllocId,
    /// Byte offset of the range start within the allocation.
    pub offset: u64,
    /// Range length in bytes.
    pub len: u64,
}

/// Static description of a kernel launch (grid size is implied by the
/// number of block costs passed to [`Gpu::launch`]).
#[derive(Debug, Clone)]
pub struct KernelDesc {
    /// Kernel name, logged with the kernel's telemetry event.
    pub name: String,
    /// Stream to launch on.
    pub stream: StreamId,
    /// Threads per block.
    pub block_threads: usize,
    /// Shared memory per block in bytes.
    pub shared_bytes: usize,
    /// Device ranges the kernel reads (sanitizer annotations; empty
    /// unless the call site opts in via [`KernelDesc::reading`]).
    pub reads: Vec<MemRange>,
    /// Device ranges the kernel writes ([`KernelDesc::writing`]).
    pub writes: Vec<MemRange>,
}

impl KernelDesc {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        stream: StreamId,
        block_threads: usize,
        shared_bytes: usize,
    ) -> Self {
        KernelDesc {
            name: name.into(),
            stream,
            block_threads,
            shared_bytes,
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    /// Annotate a device range this kernel reads. Checked by the
    /// sanitizer at launch (liveness, bounds, initialization); ignored
    /// when the sanitizer is off.
    pub fn reading(mut self, id: AllocId, offset: u64, len: u64) -> Self {
        self.reads.push(MemRange { id, offset, len });
        self
    }

    /// Annotate a device range this kernel writes. Checked by the
    /// sanitizer at launch (liveness, bounds) and marked initialized.
    pub fn writing(mut self, id: AllocId, offset: u64, len: u64) -> Self {
        self.writes.push(MemRange { id, offset, len });
        self
    }
}

/// The virtual GPU.
#[derive(Debug, Clone)]
pub struct Gpu {
    cfg: DeviceConfig,
    cost: CostModel,
    mem: DeviceMemory,
    phase_totals: PhaseTotals,
    now: SimTime,
    phase_start: SimTime,
    phase: Phase,
    stream_ready: Vec<SimTime>,
    pending: Vec<PendingKernel>,
    /// Structured telemetry session; `None` (the default) disables all
    /// capture so the uninstrumented path pays only this null check.
    telemetry: Option<Box<obs::Telemetry>>,
    /// Fault-injection state; `None` (the default) makes every device
    /// call behave normally at the cost of one null check.
    faults: Option<Box<FaultState>>,
    /// Device-memory sanitizer shadow state; `None` (the default)
    /// disables all checking. Sanitizer paths never advance the device
    /// clock, so a clean sanitized run is byte-identical to an
    /// unsanitized one (DESIGN.md §18).
    sanitizer: Option<Box<Sanitizer>>,
}

impl Gpu {
    /// New device with the given configuration and the P100 cost model.
    pub fn new(cfg: DeviceConfig) -> Self {
        let mem = DeviceMemory::new(cfg.device_mem_bytes);
        Gpu {
            cfg,
            cost: CostModel::p100(),
            mem,
            phase_totals: PhaseTotals::default(),
            now: SimTime::ZERO,
            phase_start: SimTime::ZERO,
            phase: Phase::Other,
            stream_ready: Vec::new(),
            pending: Vec::new(),
            telemetry: None,
            faults: None,
            sanitizer: None,
        }
    }

    /// Opt into device-memory sanitizing: every malloc/free/transfer and
    /// every annotated kernel range is checked against a shadow of the
    /// allocator (use-after-free, double-free, out-of-bounds, overlapping
    /// copies, uninitialized reads, leaks). Violations are *recorded* as
    /// [`SanReport`]s, not aborted on — read them back with
    /// [`Gpu::san_reports`]. Idempotent; off by default.
    pub fn enable_sanitizer(&mut self) {
        if self.sanitizer.is_none() {
            self.sanitizer = Some(Box::new(Sanitizer::new()));
        }
    }

    /// Whether the memory sanitizer is on.
    pub fn sanitizer_enabled(&self) -> bool {
        self.sanitizer.is_some()
    }

    /// Sanitizer violations recorded so far (empty when off or clean).
    pub fn san_reports(&self) -> &[SanReport] {
        self.sanitizer.as_deref().map(Sanitizer::reports).unwrap_or(&[])
    }

    /// Sanitizer activity counters, when the sanitizer is on.
    pub fn san_stats(&self) -> Option<SanStats> {
        self.sanitizer.as_deref().map(Sanitizer::stats)
    }

    /// All sanitizer reports as deterministic JSON Lines.
    pub fn san_jsonl(&self) -> String {
        self.sanitizer.as_deref().map(Sanitizer::reports_jsonl).unwrap_or_default()
    }

    /// Annotate a host→device transfer landing in `[offset, offset+len)`
    /// of `id`: bounds-checked, then marked initialized. Zero simulated
    /// time; no-op when the sanitizer is off. (The timed [`Gpu::memcpy`]
    /// deliberately carries no allocation id — annotations ride along.)
    pub fn san_note_h2d(&mut self, id: AllocId, offset: u64, len: u64) {
        let t = self.now.us();
        if let Some(s) = self.sanitizer.as_deref_mut() {
            s.note_write(id.0, offset, len, "memcpy_h2d", t);
        }
    }

    /// Annotate a device→host transfer reading `[offset, offset+len)`
    /// of `id`: liveness, bounds and initialization are checked.
    pub fn san_note_d2h(&mut self, id: AllocId, offset: u64, len: u64) {
        let t = self.now.us();
        if let Some(s) = self.sanitizer.as_deref_mut() {
            s.note_read(id.0, offset, len, "memcpy_d2h", t);
        }
    }

    /// Annotate a device-side memset of `[offset, offset+len)` of `id`:
    /// bounds-checked, then marked initialized. Used by pipelines that
    /// clear scratch tables before kernels read them.
    pub fn san_note_memset(&mut self, id: AllocId, offset: u64, len: u64) {
        let t = self.now.us();
        if let Some(s) = self.sanitizer.as_deref_mut() {
            s.note_write(id.0, offset, len, "memset", t);
        }
    }

    /// Leak checkpoint: every allocation still live is reported. Returns
    /// the number of leaks found (0 when the sanitizer is off).
    pub fn san_leak_check(&mut self) -> usize {
        let t = self.now.us();
        self.sanitizer.as_deref_mut().map(|s| s.leak_check(t)).unwrap_or(0)
    }

    /// Attach a fault-injection plan (replacing any previous one and
    /// resetting its call counters). Subsequent `malloc`/`launch`/
    /// `memcpy` calls consult the plan; injected failures are reported
    /// through telemetry when enabled.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = if plan.is_empty() { None } else { Some(Box::new(FaultState::new(plan))) };
    }

    /// Number of faults injected so far under the current plan.
    pub fn injected_faults(&self) -> u64 {
        self.faults.as_deref().map(|s| s.injected).unwrap_or(0)
    }

    /// Record an injected fault in telemetry (no-op when telemetry is
    /// off) and bump the injection counter.
    fn note_injected_fault(&mut self, site: &str, detail: &str) {
        if let Some(s) = self.faults.as_deref_mut() {
            s.injected += 1;
        }
        let now = self.now;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.emit(
                obs::Event::new("fault")
                    .str("site", site)
                    .str("detail", detail)
                    .f64("t_us", now.us()),
            );
        }
    }

    /// Opt into structured telemetry: device events (allocs, frees,
    /// copies, kernels, phases) are logged, and the allocator records
    /// which allocations make up its high-water mark. Idempotent; off by
    /// default.
    pub fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            self.telemetry = Some(Box::default());
        }
        self.mem.enable_tracking();
    }

    /// Install an existing telemetry session — the engine hands each
    /// job's trace (root span already open, parent context set) to the
    /// device so allocs, kernels and faults land in the job's span tree.
    /// Take it back with [`Gpu::take_telemetry`].
    pub fn set_telemetry(&mut self, t: obs::Telemetry) {
        self.telemetry = Some(Box::new(t));
        self.mem.enable_tracking();
    }

    /// Whether telemetry capture is on.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// The telemetry session, when enabled.
    pub fn telemetry(&self) -> Option<&obs::Telemetry> {
        self.telemetry.as_deref()
    }

    /// Mutable telemetry session — algorithms use this to record their
    /// own metrics (probe histograms, group stats) alongside the
    /// device's events. `None` when telemetry is off, so callers write
    /// `if let Some(t) = gpu.telemetry_mut() { ... }` and the disabled
    /// path skips the block entirely.
    pub fn telemetry_mut(&mut self) -> Option<&mut obs::Telemetry> {
        self.telemetry.as_deref_mut()
    }

    /// Detach the telemetry session (capture stops; enable again for a
    /// fresh one).
    pub fn take_telemetry(&mut self) -> Option<obs::Telemetry> {
        self.telemetry.take().map(|b| *b)
    }

    /// Log each allocation that made up the memory high-water mark as a
    /// `peak_holder` event (no-op when telemetry is off).
    pub fn log_peak_holders(&mut self) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            for (tag, bytes) in self.mem.peak_breakdown() {
                t.emit(obs::Event::new("peak_holder").str("tag", tag).u64("bytes", *bytes));
            }
        }
    }

    /// Device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Start charging costs for one thread block.
    pub fn block_cost(&self) -> BlockCostBuilder<'_> {
        BlockCostBuilder::new(&self.cost)
    }

    /// Simulated time since device creation (includes pending work only
    /// after [`Gpu::sync`]).
    pub fn elapsed(&self) -> SimTime {
        self.now
    }

    /// Peak device-memory usage so far (Figure 4 metric).
    pub fn peak_mem_bytes(&self) -> u64 {
        self.mem.peak_bytes()
    }

    /// Live device-memory bytes.
    pub fn live_mem_bytes(&self) -> u64 {
        self.mem.live_bytes()
    }

    /// Direct read access to the allocator (diagnostics).
    pub fn memory(&self) -> &DeviceMemory {
        &self.mem
    }

    /// Simulated time attributed to each phase so far, in
    /// [`Phase::ALL`] order (Figures 5 and 6).
    pub fn phase_times(&self) -> Vec<(Phase, SimTime)> {
        self.phase_totals.times()
    }

    /// Every kernel, malloc and copy the telemetry log holds — empty
    /// unless telemetry was on while they ran.
    pub fn timeline(&self) -> Timeline<'_> {
        Timeline::new(self.telemetry.as_deref().map_or(&[], |t| t.events.events()))
    }

    /// Switch the current phase; elapsed time since the previous switch
    /// is attributed to the previous phase. Synchronizes the device (a
    /// phase boundary is a measurement boundary).
    pub fn set_phase(&mut self, phase: Phase) {
        self.sync();
        let dt = self.now - self.phase_start;
        self.phase_totals.add(self.phase, dt);
        if let Some(t) = self.telemetry.as_deref_mut() {
            if dt > SimTime::ZERO {
                t.emit(
                    obs::Event::new("phase")
                        .str("name", self.phase.label())
                        .f64("t_us", self.phase_start.us())
                        .f64("dur_us", dt.us()),
                );
            }
        }
        self.phase = phase;
        self.phase_start = self.now;
    }

    /// Allocate device memory. Synchronizes, charges the Pascal
    /// `cudaMalloc` latency, and fails with [`GpuError::OutOfMemory`]
    /// when capacity is exceeded.
    pub fn malloc(&mut self, bytes: u64, tag: &'static str) -> Result<AllocId> {
        self.sync();
        if let Some(s) = self.faults.as_deref_mut() {
            s.mallocs_seen += 1;
            if s.plan.should_fail_malloc(s.mallocs_seen) {
                let nth = s.mallocs_seen;
                let err = OutOfDeviceMemory {
                    requested: bytes,
                    live: self.mem.live_bytes(),
                    capacity: self.mem.capacity(),
                    tag,
                    injected: true,
                };
                self.note_injected_fault("malloc", &format!("{tag}#{nth}"));
                return Err(GpuError::OutOfMemory(err));
            }
        }
        let id = self.mem.malloc(bytes, tag).map_err(GpuError::OutOfMemory)?;
        if let Some(s) = self.sanitizer.as_deref_mut() {
            s.on_malloc(id.0, bytes, tag);
        }
        let start = self.now;
        self.now += self.cost.malloc_time(bytes);
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.emit(
                obs::Event::new("alloc")
                    .str("tag", tag)
                    .u64("bytes", bytes)
                    .u64("live", self.mem.live_bytes())
                    .f64("t_us", start.us())
                    .str("phase", self.phase.label())
                    .f64("dur_us", (self.now - start).us()),
            );
        }
        Ok(id)
    }

    /// Host↔device transfer of `bytes` (synchronizes, charges PCIe
    /// time). Direction only matters for the telemetry event. Fails only
    /// under an injected [`FaultPlan`] memcpy rule.
    pub fn memcpy(&mut self, bytes: u64, to_device: bool) -> Result<()> {
        self.sync();
        if let Some(s) = self.faults.as_deref_mut() {
            s.memcpys_seen += 1;
            if s.plan.should_fail_memcpy(s.memcpys_seen) {
                let nth = s.memcpys_seen;
                self.note_injected_fault("memcpy", &format!("#{nth}"));
                return Err(GpuError::MemcpyFault(nth));
            }
        }
        let start = self.now;
        self.now += self.cost.memcpy_time(bytes);
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.emit(
                obs::Event::new("memcpy")
                    .str("dir", if to_device { "h2d" } else { "d2h" })
                    .u64("bytes", bytes)
                    .f64("t_us", start.us())
                    .str("phase", self.phase.label())
                    .f64("dur_us", (self.now - start).us()),
            );
        }
        Ok(())
    }

    /// Free device memory (synchronizes, charges `cudaFree` latency).
    /// With the sanitizer on, an invalid free (double-free / unknown id)
    /// is recorded as a report and the call returns without touching the
    /// real allocator — which would otherwise abort on the same
    /// condition. Unsanitized behaviour is unchanged.
    pub fn free(&mut self, id: AllocId) {
        self.sync();
        if self.sanitizer.is_some() {
            let t = self.now.us();
            let valid = self.sanitizer.as_deref_mut().is_some_and(|s| s.on_free(id.0, t));
            if !valid {
                return;
            }
        }
        let bytes = self.mem.free(id);
        self.now += self.cost.free_base;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.emit(
                obs::Event::new("free")
                    .u64("bytes", bytes)
                    .u64("live", self.mem.live_bytes())
                    .f64("t_us", self.now.us()),
            );
        }
    }

    /// Launch a kernel: one [`BlockCost`] per thread block, in grid
    /// order. Validates the launch configuration against device limits.
    /// Returns without running — work executes at the next sync point.
    pub fn launch(&mut self, desc: KernelDesc, blocks: Vec<BlockCost>) -> Result<()> {
        if self.faults.as_deref().is_some_and(|s| s.plan.should_fail_kernel(&desc.name)) {
            self.note_injected_fault("kernel", &desc.name);
            return Err(GpuError::KernelFault(desc.name));
        }
        if occupancy(&self.cfg, desc.block_threads, desc.shared_bytes).is_none() {
            return Err(GpuError::InvalidLaunch(format!(
                "kernel '{}': {} threads / {} B shared exceeds device limits",
                desc.name, desc.block_threads, desc.shared_bytes
            )));
        }
        // Sanitizer: validate annotated ranges at launch, against the
        // allocator state the kernel was issued under. Reads first (a
        // kernel's inputs must already be initialized), then writes.
        if self.sanitizer.is_some() && !(desc.reads.is_empty() && desc.writes.is_empty()) {
            let t = self.now.us();
            if let Some(s) = self.sanitizer.as_deref_mut() {
                for r in &desc.reads {
                    s.note_read(r.id.0, r.offset, r.len, &desc.name, t);
                }
                for w in &desc.writes {
                    s.note_write(w.id.0, w.offset, w.len, &desc.name, t);
                }
            }
        }
        // Host-side launch overhead advances the issue cursor.
        self.now += self.cost.launch_overhead;
        self.pending.push(PendingKernel {
            name: desc.name,
            phase: self.phase,
            stream: desc.stream.0,
            block_threads: desc.block_threads,
            shared_bytes: desc.shared_bytes,
            issue_time: self.now,
            blocks,
        });
        Ok(())
    }

    /// Synchronize the device: schedule all pending kernels (stream
    /// semantics apply) and advance the clock to completion.
    pub fn sync(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        let sched =
            schedule_region(&pending, &self.cfg, &self.cost, self.now, &mut self.stream_ready);
        if let Some(t) = self.telemetry.as_deref_mut() {
            for (k, span) in pending.iter().zip(&sched.spans) {
                t.emit(
                    obs::Event::new("kernel")
                        .str("name", &k.name)
                        .str("phase", k.phase.label())
                        .u64("stream", k.stream as u64)
                        .u64("blocks", k.blocks.len() as u64)
                        .f64("t_us", span.start.us())
                        .f64("dur_us", (span.end - span.start).us())
                        .f64("dram_bytes", span.dram_bytes)
                        .f64("efficiency", span.efficiency),
                );
            }
        }
        self.now = self.now.max(sched.end);
    }

    /// Finish the run: sync, close the open phase, and return total time.
    pub fn finish(&mut self) -> SimTime {
        self.set_phase(Phase::Other);
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> Gpu {
        Gpu::new(DeviceConfig::p100())
    }

    #[test]
    fn clock_starts_at_zero_and_advances_on_sync() {
        let mut g = gpu();
        assert_eq!(g.elapsed(), SimTime::ZERO);
        let desc = KernelDesc::new("k", DEFAULT_STREAM, 256, 0);
        g.launch(desc, vec![BlockCost::raw(1.0e6, 0.0)]).unwrap();
        let after_launch = g.elapsed();
        assert_eq!(after_launch, g.cost_model().launch_overhead);
        g.sync();
        assert!(g.elapsed() > after_launch);
    }

    #[test]
    fn malloc_charges_time_and_tracks_peak() {
        let mut g = gpu();
        let a = g.malloc(1 << 20, "buf").unwrap();
        assert!(g.elapsed() >= g.cost_model().malloc_base);
        assert_eq!(g.peak_mem_bytes(), 1 << 20);
        g.free(a);
        assert_eq!(g.live_mem_bytes(), 0);
        assert_eq!(g.peak_mem_bytes(), 1 << 20);
    }

    #[test]
    fn oom_is_an_error_not_a_panic() {
        let mut g = Gpu::new(DeviceConfig::p100_with_memory(1024));
        assert!(matches!(g.malloc(2048, "big"), Err(GpuError::OutOfMemory(_))));
    }

    #[test]
    fn invalid_launch_rejected() {
        let mut g = gpu();
        let desc = KernelDesc::new("bad", DEFAULT_STREAM, 4096, 0);
        assert!(matches!(g.launch(desc, vec![]), Err(GpuError::InvalidLaunch(_))));
        let desc = KernelDesc::new("bad2", DEFAULT_STREAM, 256, 64 * 1024);
        assert!(matches!(g.launch(desc, vec![]), Err(GpuError::InvalidLaunch(_))));
    }

    #[test]
    fn phase_attribution() {
        let mut g = gpu();
        g.set_phase(Phase::Count);
        g.launch(KernelDesc::new("count", DEFAULT_STREAM, 256, 0), vec![BlockCost::raw(1e6, 0.0)])
            .unwrap();
        g.set_phase(Phase::Calc);
        g.launch(KernelDesc::new("calc", DEFAULT_STREAM, 256, 0), vec![BlockCost::raw(2e6, 0.0)])
            .unwrap();
        g.finish();
        let times = g.phase_times();
        let count = times.iter().find(|(p, _)| *p == Phase::Count).unwrap().1;
        let calc = times.iter().find(|(p, _)| *p == Phase::Calc).unwrap().1;
        assert!(count > SimTime::ZERO);
        // calc has 2x the slots; both phases also contain one launch overhead.
        assert!(calc > count);
        // Total phase time equals elapsed.
        let phases: SimTime = g.phase_times().iter().map(|&(_, t)| t).sum();
        assert!((phases.secs() - g.elapsed().secs()).abs() < 1e-12);
    }

    #[test]
    fn streams_overlap_through_device_api() {
        // Mirror of the scheduler test, via the full device API.
        let run = |streams: bool| {
            let mut g = gpu();
            for i in 0..4 {
                let s = if streams { StreamId(i) } else { DEFAULT_STREAM };
                g.launch(
                    KernelDesc::new(format!("k{i}"), s, 256, 0),
                    vec![BlockCost::raw(1.0e7, 0.0); 4],
                )
                .unwrap();
            }
            g.finish().secs()
        };
        let serial = run(false);
        let overlapped = run(true);
        assert!(overlapped < 0.5 * serial, "overlapped {overlapped} vs serial {serial}");
    }

    #[test]
    fn memcpy_charges_pcie_time() {
        let mut g = gpu();
        g.enable_telemetry();
        let t0 = g.elapsed();
        g.memcpy(12_000_000_000, true).unwrap(); // 12 GB at 12 GB/s ≈ 1 s
        let dt = (g.elapsed() - t0).secs();
        assert!((dt - 1.0).abs() < 0.01, "dt {dt}");
        assert!(g.timeline().kernel_table().iter().any(|k| k.name == "memcpy_h2d"));
    }

    #[test]
    fn sync_without_pending_is_noop() {
        let mut g = gpu();
        g.sync();
        assert_eq!(g.elapsed(), SimTime::ZERO);
    }

    #[test]
    fn telemetry_off_by_default_on_when_enabled() {
        let mut g = gpu();
        assert!(!g.telemetry_enabled());
        assert!(g.telemetry().is_none());

        g.enable_telemetry();
        assert!(g.telemetry_enabled());
        g.set_phase(Phase::Count);
        let a = g.malloc(1 << 10, "buf").unwrap();
        g.launch(
            KernelDesc::new("count_k", DEFAULT_STREAM, 256, 0),
            vec![BlockCost::raw(1e6, 0.0)],
        )
        .unwrap();
        g.memcpy(4096, true).unwrap();
        g.free(a);
        g.finish();

        let t = g.telemetry().unwrap();
        let events = t.events.events();
        let jsonl = t.to_jsonl();
        for kind in ["alloc", "kernel", "free", "memcpy", "phase"] {
            let n = events.iter().filter(|e| e.kind() == kind).count();
            assert_eq!(n, 1, "{kind} events in {jsonl}");
        }
        let memcpy_bytes: u64 = events
            .iter()
            .filter(|e| e.kind() == "memcpy")
            .map(|e| match e.field("bytes") {
                Some(obs::Value::U64(b)) => *b,
                other => panic!("memcpy bytes: {other:?}"),
            })
            .sum();
        assert_eq!(memcpy_bytes, 4096);
        for line in jsonl.lines() {
            obs::json::validate(line).unwrap();
        }
        // Detach: capture stops.
        let taken = g.take_telemetry().unwrap();
        assert!(!taken.events.to_jsonl().is_empty());
        assert!(!g.telemetry_enabled());
    }

    #[test]
    fn injected_faults_fire_deterministically_and_report() {
        use crate::fault::FaultPlan;
        let mut g = gpu();
        g.enable_telemetry();
        g.set_fault_plan(FaultPlan::new(9).malloc_oom(2).kernel_fail("doomed").memcpy_fail(1));

        // Malloc 1 succeeds, malloc 2 fails with an *injected* OOM that
        // leaves accounting untouched, malloc 3 succeeds again (one-shot).
        let a = g.malloc(64, "ok").unwrap();
        match g.malloc(64, "boom") {
            Err(GpuError::OutOfMemory(e)) => {
                assert!(e.injected);
                assert!(e.to_string().contains("[injected]"));
            }
            other => panic!("expected injected OOM, got {other:?}"),
        }
        let b = g.malloc(64, "ok2").unwrap();
        assert_eq!(g.live_mem_bytes(), 128);

        // Named kernel fails every launch; other kernels are unaffected.
        let doomed = KernelDesc::new("doomed", DEFAULT_STREAM, 256, 0);
        assert!(matches!(
            g.launch(doomed.clone(), vec![BlockCost::raw(1.0, 0.0)]),
            Err(GpuError::KernelFault(_))
        ));
        assert!(matches!(
            g.launch(doomed, vec![BlockCost::raw(1.0, 0.0)]),
            Err(GpuError::KernelFault(_))
        ));
        g.launch(KernelDesc::new("fine", DEFAULT_STREAM, 256, 0), vec![BlockCost::raw(1.0, 0.0)])
            .unwrap();

        // First memcpy fails, second goes through.
        assert!(matches!(g.memcpy(1024, true), Err(GpuError::MemcpyFault(1))));
        g.memcpy(1024, true).unwrap();

        g.free(a);
        g.free(b);
        g.finish();
        assert_eq!(g.live_mem_bytes(), 0);
        assert_eq!(g.injected_faults(), 4);
        let events = g.telemetry().unwrap().events.events();
        assert_eq!(events.iter().filter(|e| e.kind() == "fault").count(), 4);
        // An empty plan detaches injection.
        g.set_fault_plan(FaultPlan::new(9));
        g.memcpy(1024, true).unwrap();
        assert_eq!(g.injected_faults(), 0);
    }

    #[test]
    fn sanitized_clean_run_is_byte_identical() {
        let run = |sanitize: bool| {
            let mut g = gpu();
            g.enable_telemetry();
            if sanitize {
                g.enable_sanitizer();
            }
            let a = g.malloc(4096, "a").unwrap();
            g.memcpy(4096, true).unwrap();
            g.san_note_h2d(a, 0, 4096);
            g.launch(
                KernelDesc::new("k", DEFAULT_STREAM, 256, 0)
                    .reading(a, 0, 4096)
                    .writing(a, 0, 4096),
                vec![BlockCost::raw(1e6, 0.0)],
            )
            .unwrap();
            g.memcpy(4096, false).unwrap();
            g.san_note_d2h(a, 0, 4096);
            g.free(a);
            let t = g.finish();
            (t, g.san_reports().len(), g.timeline().chrome_trace())
        };
        let (t_off, r_off, k_off) = run(false);
        let (t_on, r_on, k_on) = run(true);
        assert_eq!(t_off, t_on, "sanitizer must not charge simulated time");
        assert_eq!(k_off, k_on, "sanitizer must not change the device timeline");
        assert_eq!((r_off, r_on), (0, 0));
    }

    #[test]
    fn sanitizer_intercepts_double_free_instead_of_aborting() {
        let mut g = gpu();
        g.enable_sanitizer();
        let a = g.malloc(64, "x").unwrap();
        g.free(a);
        g.free(a); // would abort the process without the sanitizer
        assert_eq!(g.san_reports().len(), 1);
        assert_eq!(g.san_reports()[0].kind, crate::sanitize::SanKind::DoubleFree);
        assert_eq!(g.live_mem_bytes(), 0);
    }

    #[test]
    fn launch_annotations_catch_uaf_and_uninit() {
        let mut g = gpu();
        g.enable_sanitizer();
        let a = g.malloc(1024, "in").unwrap();
        // Read before any write: uninit.
        g.launch(
            KernelDesc::new("consume", DEFAULT_STREAM, 256, 0).reading(a, 0, 1024),
            vec![BlockCost::raw(1.0, 0.0)],
        )
        .unwrap();
        g.san_note_h2d(a, 0, 1024);
        g.free(a);
        // Read after free: UAF.
        g.launch(
            KernelDesc::new("stale", DEFAULT_STREAM, 256, 0).reading(a, 0, 8),
            vec![BlockCost::raw(1.0, 0.0)],
        )
        .unwrap();
        g.finish();
        let kinds: Vec<_> = g.san_reports().iter().map(|r| r.kind).collect();
        use crate::sanitize::SanKind;
        assert_eq!(kinds, vec![SanKind::UninitRead, SanKind::UseAfterFree]);
        assert_eq!(g.san_reports()[1].site, "stale");
    }

    #[test]
    fn leak_check_reports_each_live_allocation() {
        let mut g = gpu();
        g.enable_sanitizer();
        let _a = g.malloc(128, "leaked").unwrap();
        assert_eq!(g.san_leak_check(), 1);
        let kinds: Vec<_> = g.san_reports().iter().map(|r| r.kind).collect();
        assert_eq!(kinds, vec![crate::sanitize::SanKind::Leak]);
        let jsonl = g.san_jsonl();
        assert!(jsonl.contains("\"kind\":\"leak\""));
        assert!(jsonl.contains("\"tag\":\"leaked\""));
    }
}
