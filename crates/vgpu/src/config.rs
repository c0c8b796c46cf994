//! Device configuration.
//!
//! Defaults model the NVIDIA Tesla P100 PCIe 16 GB the paper evaluates on
//! (§III-D, §IV): 56 SMs with 64 CUDA cores each, 64 KB shared memory per
//! SM with a 48 KB per-block limit, up to 2048 resident threads and 32
//! resident blocks per SM, 16 GB HBM2 at 732 GB/s.

/// Static description of a (virtual) GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Marketing name, used in reports.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// SM clock in Hz (P100 boost: ~1.33 GHz).
    pub clock_hz: f64,
    /// Threads per warp (32 on every NVIDIA architecture).
    pub warp_size: usize,
    /// Shared memory per SM in bytes (P100: 64 KB).
    pub shared_mem_per_sm: usize,
    /// Maximum shared memory per thread block in bytes (P100: 48 KB).
    pub max_shared_per_block: usize,
    /// Maximum resident threads per SM (P100: 2048).
    pub max_threads_per_sm: usize,
    /// Maximum resident thread blocks per SM (Pascal: 32).
    pub max_blocks_per_sm: usize,
    /// Maximum threads per block (1024).
    pub max_threads_per_block: usize,
    /// Device (global) memory capacity in bytes.
    pub device_mem_bytes: u64,
    /// Device memory bandwidth in bytes/second (P100: 732 GB/s).
    pub mem_bandwidth: f64,
}

impl DeviceConfig {
    /// The Tesla P100 PCIe 16 GB configuration used throughout the paper.
    pub fn p100() -> Self {
        DeviceConfig {
            name: "Tesla P100-PCIE-16GB (virtual)".to_string(),
            num_sms: 56,
            clock_hz: 1.328e9,
            warp_size: 32,
            shared_mem_per_sm: 64 * 1024,
            max_shared_per_block: 48 * 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            device_mem_bytes: 16 * 1024 * 1024 * 1024,
            mem_bandwidth: 732e9,
        }
    }

    /// Tesla V100 (Volta): the paper's §VI asks how the algorithm moves
    /// to newer/other many-core parts. 80 SMs, faster clock, 96 KB of
    /// unified shared memory per SM (96 KB usable per block with opt-in),
    /// 900 GB/s HBM2.
    pub fn v100() -> Self {
        DeviceConfig {
            name: "Tesla V100-SXM2-16GB (virtual)".to_string(),
            num_sms: 80,
            clock_hz: 1.53e9,
            warp_size: 32,
            shared_mem_per_sm: 96 * 1024,
            max_shared_per_block: 96 * 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            device_mem_bytes: 16 * 1024 * 1024 * 1024,
            mem_bandwidth: 900e9,
        }
    }

    /// AMD Radeon Vega 64-class device — §VI: "Our algorithm should work
    /// well on AMD Radeon GPU since the architecture is similar". 64 CUs
    /// with 64-lane wavefronts, 64 KB LDS per CU but 32 KB per workgroup
    /// (which halves the largest hash table the grouping can derive),
    /// 484 GB/s HBM2, 8 GB.
    pub fn vega64() -> Self {
        DeviceConfig {
            name: "Radeon Vega 64 (virtual)".to_string(),
            num_sms: 64,
            clock_hz: 1.546e9,
            warp_size: 64,
            shared_mem_per_sm: 64 * 1024,
            max_shared_per_block: 32 * 1024,
            max_threads_per_sm: 2560,
            max_blocks_per_sm: 16,
            max_threads_per_block: 1024,
            device_mem_bytes: 8 * 1024 * 1024 * 1024,
            mem_bandwidth: 484e9,
        }
    }

    /// P100 with a different device-memory capacity.
    ///
    /// Table III's out-of-memory entries depend on the ratio between
    /// dataset footprint and device capacity. Because the datasets are
    /// generated at reduced scale (see EXPERIMENTS.md), the large-graph
    /// experiments scale the capacity by the same factor to preserve the
    /// memory-pressure regime.
    pub fn p100_with_memory(device_mem_bytes: u64) -> Self {
        DeviceConfig { device_mem_bytes, ..Self::p100() }
    }

    /// Maximum resident warps per SM.
    pub fn max_warps_per_sm(&self) -> usize {
        self.max_threads_per_sm / self.warp_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The presets' internal consistency.
    fn validate(c: &DeviceConfig) -> Result<(), String> {
        if c.num_sms == 0 || c.warp_size == 0 || c.clock_hz <= 0.0 {
            return Err("num_sms, warp_size and clock_hz must be positive".into());
        }
        if c.max_shared_per_block > c.shared_mem_per_sm {
            return Err("per-block shared memory exceeds per-SM shared memory".into());
        }
        if c.max_threads_per_block > c.max_threads_per_sm {
            return Err("per-block threads exceed per-SM threads".into());
        }
        if !c.max_threads_per_sm.is_multiple_of(c.warp_size) {
            return Err("max_threads_per_sm must be a warp multiple".into());
        }
        Ok(())
    }

    #[test]
    fn p100_matches_paper_constants() {
        let c = DeviceConfig::p100();
        validate(&c).unwrap();
        // §III-D: 64 KB shared per SM, 48 KB max per block.
        assert_eq!(c.shared_mem_per_sm, 64 * 1024);
        assert_eq!(c.max_shared_per_block, 48 * 1024);
        // §IV: 16 GB device memory, 732 GB/s.
        assert_eq!(c.device_mem_bytes, 16 << 30);
        assert_eq!(c.mem_bandwidth, 732e9);
        // §III-D: max 32 blocks per SM.
        assert_eq!(c.max_blocks_per_sm, 32);
        assert_eq!(c.max_warps_per_sm(), 64);
    }

    #[test]
    fn alternative_devices_are_consistent() {
        for c in [DeviceConfig::v100(), DeviceConfig::vega64()] {
            validate(&c).unwrap();
        }
        // Volta: more SMs and shared memory than Pascal.
        let (v, p) = (DeviceConfig::v100(), DeviceConfig::p100());
        assert!(v.num_sms > p.num_sms);
        assert!(v.max_shared_per_block > p.max_shared_per_block);
        // Vega: 64-lane wavefronts, halved per-workgroup LDS.
        let r = DeviceConfig::vega64();
        assert_eq!(r.warp_size, 64);
        assert_eq!(r.max_shared_per_block, 32 * 1024);
        assert_eq!(r.max_warps_per_sm(), 40);
    }

    #[test]
    fn scaled_memory_variant() {
        let c = DeviceConfig::p100_with_memory(1 << 30);
        assert_eq!(c.device_mem_bytes, 1 << 30);
        assert_eq!(c.num_sms, DeviceConfig::p100().num_sms);
    }
}
