//! Block scheduler: turns per-block costs into kernel and region times.
//!
//! Model, in order of what the paper's evaluation depends on:
//!
//! * **Load balance** (§III-A): blocks are issued in launch order to the
//!   earliest-free SM, exactly like the hardware block scheduler. One
//!   monstrous row (webbase's 4700-nnz row) therefore stretches its SM's
//!   timeline while others finish — visible load imbalance.
//! * **Occupancy / latency hiding** (§III-D, Table I): each kernel's
//!   blocks run at an efficiency derived from how many warps its launch
//!   configuration can keep resident per SM; halving the hash table and
//!   block size raises efficiency.
//! * **Stream concurrency** (§IV-C): kernels on the *same* stream
//!   serialize (`stream_ready`); kernels on different streams share the
//!   SM pool inside one region, so a 9-block group kernel hides behind a
//!   large group's tail instead of occupying the device alone.
//! * **Bandwidth bound**: a kernel (and the whole region) can never beat
//!   `dram_bytes / mem_bandwidth` — this is what caps the ESC baseline.

use crate::config::DeviceConfig;
use crate::cost::{BlockCost, CostModel};
use crate::occupancy::occupancy;
use crate::simtime::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A kernel waiting to be scheduled at the next synchronization point.
#[derive(Debug, Clone)]
pub struct PendingKernel {
    /// Kernel name for its telemetry event.
    pub name: String,
    /// Phase tag for its telemetry event.
    pub phase: crate::profiler::Phase,
    /// Stream the kernel was launched on.
    pub stream: usize,
    /// Threads per block.
    pub block_threads: usize,
    /// Shared memory per block in bytes.
    pub shared_bytes: usize,
    /// Host instant the launch call was issued.
    pub issue_time: SimTime,
    /// Per-block observed costs.
    pub blocks: Vec<BlockCost>,
}

/// Result of scheduling one kernel inside a region.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpan {
    /// Start instant (first block begins).
    pub start: SimTime,
    /// End instant (last block drains, bandwidth bound applied).
    pub end: SimTime,
    /// Efficiency used for this kernel's blocks.
    pub efficiency: f64,
    /// Total DRAM traffic of the kernel.
    pub dram_bytes: f64,
}

/// Outcome of scheduling a whole region (all kernels between two syncs).
#[derive(Debug, Clone)]
pub struct RegionSchedule {
    /// Per-kernel spans, in launch order.
    pub spans: Vec<KernelSpan>,
    /// Instant the last kernel (and all DRAM traffic) completes.
    pub end: SimTime,
}

/// An SM and the instant it next falls idle, ordered by `(t, sm)` with
/// `f64::total_cmp`.
#[derive(Debug, Clone, Copy)]
struct SmFree {
    t: f64,
    sm: usize,
}

impl Ord for SmFree {
    fn cmp(&self, other: &Self) -> Ordering {
        self.t.total_cmp(&other.t).then(self.sm.cmp(&other.sm))
    }
}

impl PartialOrd for SmFree {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for SmFree {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for SmFree {}

/// Run a block of `service` seconds, issuable from `ready`, on the
/// earliest-free SM (ties to the lowest index); returns that SM and the
/// block's end. O(log num_sms).
fn place(sm_free: &mut BinaryHeap<Reverse<SmFree>>, ready: f64, service: f64) -> (usize, f64) {
    #[expect(clippy::expect_used, reason = "the heap holds cfg.num_sms entries, validated > 0")]
    let mut top = sm_free.peek_mut().expect("num_sms > 0");
    let end = top.0.t.max(ready) + service;
    top.0.t = end;
    (top.0.sm, end) // dropping `top` restores the heap order
}

/// Schedule `kernels` (in launch order) starting no earlier than `start`.
///
/// `stream_ready` carries per-stream serialization state across calls and
/// is updated in place.
pub fn schedule_region(
    kernels: &[PendingKernel],
    cfg: &DeviceConfig,
    cost: &CostModel,
    start: SimTime,
    stream_ready: &mut Vec<SimTime>,
) -> RegionSchedule {
    // Min-heap of SMs by (free time, index): the top is the earliest-free
    // SM, ties going to the lowest index, as the hardware scheduler picks.
    let mut sm_free: BinaryHeap<Reverse<SmFree>> =
        (0..cfg.num_sms).map(|sm| Reverse(SmFree { t: start.secs(), sm })).collect();
    let mut spans = Vec::with_capacity(kernels.len());
    let mut region_end = start;
    let mut region_bytes = 0.0f64;

    for k in kernels {
        if k.stream >= stream_ready.len() {
            stream_ready.resize(k.stream + 1, SimTime::ZERO);
        }
        let t_launch = k.issue_time.max(stream_ready[k.stream]).max(start);

        // Latency-hiding efficiency from achievable occupancy, capped by
        // how many blocks the grid actually provides per SM.
        #[expect(
            clippy::expect_used,
            reason = "Gpu::launch validated this exact config before queueing"
        )]
        let occ = occupancy(cfg, k.block_threads, k.shared_bytes)
            .expect("launch was validated before queueing");
        let warps_per_block = k.block_threads.div_ceil(cfg.warp_size);
        let grid_blocks_per_sm = k.blocks.len().div_ceil(cfg.num_sms).max(1);
        let resident_blocks = occ.blocks_per_sm.min(grid_blocks_per_sm);
        let resident_warps = (resident_blocks * warps_per_block).min(cfg.max_warps_per_sm()) as f64;
        let eff = cost.efficiency(resident_warps);
        let slot_rate = cost.slots_per_cycle * eff * cfg.clock_hz; // slots/sec

        let mut kernel_last = t_launch.secs();
        let mut kernel_bytes = 0.0f64;
        for b in &k.blocks {
            let service = (b.slots + cost.block_overhead_slots) / slot_rate;
            let (_, b_end) = place(&mut sm_free, t_launch.secs(), service);
            kernel_last = kernel_last.max(b_end);
            kernel_bytes += b.dram_bytes;
        }
        // Per-kernel bandwidth bound.
        let bw_end = t_launch.secs() + kernel_bytes / cfg.mem_bandwidth;
        let end = SimTime(kernel_last.max(bw_end));
        stream_ready[k.stream] = end;
        region_bytes += kernel_bytes;
        region_end = region_end.max(end);
        spans.push(KernelSpan { start: t_launch, end, efficiency: eff, dram_bytes: kernel_bytes });
    }

    // Region-wide bandwidth bound: concurrent kernels share the memory bus.
    let bw_region_end = SimTime(start.secs() + region_bytes / cfg.mem_bandwidth);
    region_end = region_end.max(bw_region_end);
    RegionSchedule { spans, end: region_end }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::Phase;

    fn p100() -> (DeviceConfig, CostModel) {
        (DeviceConfig::p100(), CostModel::p100())
    }

    fn kernel(stream: usize, nblocks: usize, slots: f64, threads: usize) -> PendingKernel {
        PendingKernel {
            name: "k".into(),
            phase: Phase::Other,
            stream,
            block_threads: threads,
            shared_bytes: 0,
            issue_time: SimTime::ZERO,
            blocks: vec![BlockCost::raw(slots, 0.0); nblocks],
        }
    }

    #[test]
    fn single_block_time_is_service_time() {
        let (cfg, cost) = p100();
        let k = kernel(0, 1, 1.0e6, 1024);
        let mut ready = vec![];
        let sched = schedule_region(&[k], &cfg, &cost, SimTime::ZERO, &mut ready);
        // 1024-thread blocks, no shared memory: 2 resident blocks possible
        // but the grid has only 1 → 32 warps resident → eff = 32/40.
        let eff: f64 = 32.0 / 40.0;
        let expect =
            (1.0e6 + cost.block_overhead_slots) / (cost.slots_per_cycle * eff * cfg.clock_hz);
        assert!((sched.end.secs() - expect).abs() < 1e-12);
        assert_eq!(sched.spans[0].efficiency, eff);
    }

    #[test]
    fn blocks_fill_sms_in_parallel() {
        let (cfg, cost) = p100();
        // Exactly num_sms equal blocks: same makespan as a single block.
        let one =
            schedule_region(&[kernel(0, 1, 1.0e6, 1024)], &cfg, &cost, SimTime::ZERO, &mut vec![]);
        let many = schedule_region(
            &[kernel(0, cfg.num_sms, 1.0e6, 1024)],
            &cfg,
            &cost,
            SimTime::ZERO,
            &mut vec![],
        );
        // The full grid reaches occupancy 2 blocks/SM → better efficiency
        // would need 2*num_sms blocks; with num_sms blocks efficiency is
        // the same as the single block, so the makespans match.
        assert!((many.end.secs() - one.end.secs()).abs() < 1e-12);
    }

    #[test]
    fn load_imbalance_stretches_makespan() {
        let (cfg, cost) = p100();
        // One giant block among many tiny ones dominates.
        let mut blocks = vec![BlockCost::raw(1.0e3, 0.0); 200];
        blocks[0] = BlockCost::raw(1.0e7, 0.0);
        let k = PendingKernel { blocks, ..kernel(0, 0, 0.0, 256) };
        let sched = schedule_region(&[k], &cfg, &cost, SimTime::ZERO, &mut vec![]);
        let balanced = schedule_region(
            &[kernel(0, 200, (1.0e7 + 199.0 * 1.0e3) / 200.0, 256)],
            &cfg,
            &cost,
            SimTime::ZERO,
            &mut vec![],
        );
        assert!(sched.end.secs() > 5.0 * balanced.end.secs());
    }

    #[test]
    fn same_stream_serializes_different_streams_overlap() {
        let (cfg, cost) = p100();
        // Two kernels with few blocks each: serialized on one stream they
        // take 2x; on two streams they overlap on disjoint SMs.
        let a = kernel(0, 4, 1.0e6, 256);
        let b_same = kernel(0, 4, 1.0e6, 256);
        let b_other = kernel(1, 4, 1.0e6, 256);
        let serial = schedule_region(&[a.clone(), b_same], &cfg, &cost, SimTime::ZERO, &mut vec![]);
        let overlap = schedule_region(&[a, b_other], &cfg, &cost, SimTime::ZERO, &mut vec![]);
        assert!(overlap.end.secs() < 0.6 * serial.end.secs());
    }

    #[test]
    fn bandwidth_bound_applies() {
        let (cfg, cost) = p100();
        // A kernel with negligible compute but 7.32 GB of traffic takes
        // at least 10 ms on a 732 GB/s device.
        let k = PendingKernel {
            blocks: vec![BlockCost::raw(1.0, 7.32e9 / 56.0); 56],
            ..kernel(0, 0, 0.0, 256)
        };
        let sched = schedule_region(&[k], &cfg, &cost, SimTime::ZERO, &mut vec![]);
        assert!(sched.end.secs() >= 0.01);
        assert!(sched.end.secs() < 0.0101);
    }

    #[test]
    fn stream_state_carries_across_regions() {
        let (cfg, cost) = p100();
        let mut ready = vec![];
        let r1 =
            schedule_region(&[kernel(0, 1, 1.0e6, 256)], &cfg, &cost, SimTime::ZERO, &mut ready);
        // Second region starts at r1.end; stream 0 must not go backwards.
        let r2 = schedule_region(&[kernel(0, 1, 1.0e6, 256)], &cfg, &cost, r1.end, &mut ready);
        assert!(r2.spans[0].start >= r1.end);
    }

    #[test]
    fn heap_pick_matches_linear_scan() {
        // The linear-scan rule the heap replaces: the earliest-free SM,
        // ties to the lowest index. Services come from a small set and
        // ready times repeat, so exact time ties are frequent.
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) % n
        };
        for num_sms in [1usize, 3, 56] {
            let start = next(4) as f64;
            let mut linear = vec![start; num_sms];
            let mut heap: BinaryHeap<Reverse<SmFree>> =
                (0..num_sms).map(|sm| Reverse(SmFree { t: start, sm })).collect();
            let mut ready = start;
            for _ in 0..5000 {
                if next(50) == 0 {
                    ready += next(3) as f64; // a new kernel's launch instant
                }
                let service = [0.5, 1.0, 1.0, 2.0, 0.25][next(5) as usize];
                let (sm, _) = linear
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
                    .unwrap();
                let end = linear[sm].max(ready) + service;
                linear[sm] = end;
                assert_eq!(place(&mut heap, ready, service), (sm, end));
            }
        }
    }

    #[test]
    fn higher_occupancy_runs_faster() {
        let (cfg, cost) = p100();
        // Same total work; 48 KB shared per block limits to 1 resident
        // block (32 warps); 6 KB allows higher residency → faster.
        let mut low = kernel(0, 112, 1.0e5, 1024);
        low.shared_bytes = 48 * 1024;
        let mut high = kernel(0, 112, 1.0e5, 1024);
        high.shared_bytes = 6 * 1024;
        let t_low = schedule_region(&[low], &cfg, &cost, SimTime::ZERO, &mut vec![]);
        let t_high = schedule_region(&[high], &cfg, &cost, SimTime::ZERO, &mut vec![]);
        assert!(t_high.end < t_low.end);
    }
}
