//! Standard device primitives with analytic costs.
//!
//! The baselines (and parts of the proposal) lean on well-known
//! bandwidth-bound primitives: `memset`, prefix sums (every CSR SpGEMM
//! needs a scan over row counts), radix sort (the heart of CUSP's ESC
//! algorithm) and gathers. Rather than emulating them thread by thread,
//! each helper enqueues one kernel whose cost is the primitive's
//! published traffic profile — e.g. an 8-bit-digit LSD radix sort moves
//! `ceil(bits/8)` passes × (read + write) × (key + payload) bytes, which
//! is precisely why ESC is slow and memory-hungry (§II-B).

use crate::cost::BlockCost;
use crate::device::{Gpu, KernelDesc, StreamId};
use crate::Result;

/// Blocks used to spread a uniform bandwidth-bound primitive across SMs.
fn spread_blocks(gpu: &Gpu) -> usize {
    gpu.config().num_sms * 4
}

/// Enqueue a kernel whose total cost is spread uniformly over blocks.
fn uniform_kernel(
    gpu: &mut Gpu,
    name: &str,
    stream: StreamId,
    total_slots: f64,
    total_bytes: f64,
) -> Result<()> {
    let n = spread_blocks(gpu);
    let per = BlockCost { slots: total_slots / n as f64, dram_bytes: total_bytes / n as f64 };
    gpu.launch(KernelDesc::new(name, stream, 256, 0), vec![per; n])
}

/// `cudaMemset`-style fill of `bytes` bytes.
pub fn memset(gpu: &mut Gpu, stream: StreamId, bytes: u64) -> Result<()> {
    let slots = bytes as f64 / 128.0; // one coalesced store per warp-line
    uniform_kernel(gpu, "memset", stream, slots, bytes as f64)
}

/// Device-wide exclusive prefix sum over `n` elements of `elem_bytes`.
///
/// Modeled on a two-level scan: read, per-tile partials, final write —
/// roughly 3 passes over the data.
pub fn exclusive_scan(gpu: &mut Gpu, stream: StreamId, n: u64, elem_bytes: u32) -> Result<()> {
    let bytes = 3.0 * n as f64 * elem_bytes as f64;
    let slots = n as f64 / 32.0 * 4.0;
    uniform_kernel(gpu, "exclusive_scan", stream, slots, bytes)
}

/// LSD radix sort of `n` key/payload pairs with `key_bits` significant
/// key bits and `payload_bytes` of payload per element.
///
/// `ceil(key_bits/8)` digit passes; every pass reads and writes key and
/// payload plus a histogram pass. Temp storage (the double buffer) is
/// the caller's responsibility — ESC allocates it explicitly so it shows
/// in the memory profile.
pub fn radix_sort_pairs(
    gpu: &mut Gpu,
    stream: StreamId,
    n: u64,
    key_bits: u32,
    payload_bytes: u32,
) -> Result<()> {
    let key_bytes = if key_bits <= 32 { 4.0 } else { 8.0 };
    let passes = key_bits.div_ceil(8) as f64;
    let pair = key_bytes + payload_bytes as f64;
    // Per pass: histogram read (keys) + scatter read+write (pairs); the
    // scatter is only partially coalesced — charge 25% overhead.
    let bytes = passes * n as f64 * (key_bytes + 2.25 * pair);
    let slots = passes * n as f64 / 32.0 * 6.0;
    uniform_kernel(gpu, "radix_sort_pairs", stream, slots, bytes)
}

/// Contiguous gather/copy of `n` elements of `elem_bytes` (read + write).
pub fn gather(gpu: &mut Gpu, stream: StreamId, n: u64, elem_bytes: u32) -> Result<()> {
    let bytes = 2.0 * n as f64 * elem_bytes as f64;
    let slots = n as f64 / 32.0 * 2.0;
    uniform_kernel(gpu, "gather", stream, slots, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use crate::device::DEFAULT_STREAM;
    use crate::simtime::SimTime;

    fn gpu() -> Gpu {
        Gpu::new(DeviceConfig::p100())
    }

    fn run(f: impl FnOnce(&mut Gpu)) -> SimTime {
        let mut g = gpu();
        f(&mut g);
        g.finish()
    }

    #[test]
    fn memset_is_bandwidth_bound() {
        // 7.32 GB at 732 GB/s >= 10 ms.
        let t = run(|g| memset(g, DEFAULT_STREAM, 7_320_000_000).unwrap());
        assert!(t.secs() >= 0.01);
        assert!(t.secs() < 0.013);
    }

    #[test]
    fn scan_scales_linearly() {
        let t1 = run(|g| exclusive_scan(g, DEFAULT_STREAM, 1_000_000, 4).unwrap());
        let t2 = run(|g| exclusive_scan(g, DEFAULT_STREAM, 10_000_000, 4).unwrap());
        let ratio = (t2.secs() - 0.0) / t1.secs();
        assert!(ratio > 3.0 && ratio < 11.0, "ratio {ratio}");
    }

    #[test]
    fn radix_sort_dwarfs_scan() {
        // Sorting 64-bit keys with 64-bit payloads moves far more bytes
        // than scanning the same count.
        let scan = run(|g| exclusive_scan(g, DEFAULT_STREAM, 4_000_000, 4).unwrap());
        let sort = run(|g| radix_sort_pairs(g, DEFAULT_STREAM, 4_000_000, 64, 8).unwrap());
        assert!(sort.secs() > 5.0 * scan.secs());
    }

    #[test]
    fn fewer_key_bits_fewer_passes() {
        let narrow = run(|g| radix_sort_pairs(g, DEFAULT_STREAM, 4_000_000, 24, 8).unwrap());
        let wide = run(|g| radix_sort_pairs(g, DEFAULT_STREAM, 4_000_000, 64, 8).unwrap());
        assert!(narrow < wide);
    }

    #[test]
    fn gather_completes() {
        let t = run(|g| gather(g, DEFAULT_STREAM, 1_000_000, 8).unwrap());
        assert!(t > SimTime::ZERO);
    }
}
