//! Device-memory allocator with live/peak tracking and out-of-memory.
//!
//! The paper's two headline claims are speed *and* memory frugality:
//! Figure 4 compares the **maximum memory usage during SpGEMM** across
//! libraries, and Table III's "-" entries are CUSP/BHSPARSE exhausting
//! the 16 GB device on cage15/wb-edu. Algorithms in this workspace
//! allocate all temporary and output buffers through [`DeviceMemory`], so
//! both behaviours fall out of the accounting.

use std::collections::HashMap;

/// Handle to a live device allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocId(pub u64);

/// Error returned when an allocation would exceed device capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfDeviceMemory {
    /// Bytes requested by the failing allocation.
    pub requested: u64,
    /// Bytes live at the time of the request.
    pub live: u64,
    /// Device capacity.
    pub capacity: u64,
    /// Allocation tag (for diagnostics).
    pub tag: &'static str,
    /// `true` when the failure was injected by a fault plan rather than
    /// produced by real capacity accounting (see [`crate::fault`]).
    pub injected: bool,
}

impl std::fmt::Display for OutOfDeviceMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of device memory: requested {} B for '{}' with {} B live of {} B capacity{}",
            self.requested,
            self.tag,
            self.live,
            self.capacity,
            if self.injected { " [injected]" } else { "" }
        )
    }
}

impl std::error::Error for OutOfDeviceMemory {}

/// Tracks device allocations, live bytes and the high-water mark.
#[derive(Debug, Clone)]
pub struct DeviceMemory {
    capacity: u64,
    live: u64,
    peak: u64,
    next_id: u64,
    allocs: HashMap<u64, (u64, &'static str)>,
    /// High-water telemetry: the live breakdown captured the last time
    /// `peak` rose. `None` (the default) records nothing, so the
    /// uninstrumented path pays nothing.
    peak_holders: Option<Vec<(&'static str, u64)>>,
}

impl DeviceMemory {
    /// Allocator over `capacity` bytes of device memory.
    pub fn new(capacity: u64) -> Self {
        DeviceMemory {
            capacity,
            live: 0,
            peak: 0,
            next_id: 0,
            allocs: HashMap::new(),
            peak_holders: None,
        }
    }

    /// Start recording peak attribution (telemetry; off by default).
    /// Idempotent.
    pub fn enable_tracking(&mut self) {
        if self.peak_holders.is_none() {
            self.peak_holders = Some(Vec::new());
        }
    }

    /// The live breakdown `(tag, bytes)` captured when the high-water
    /// mark was last raised, largest first — which allocations *make up*
    /// the Figure 4 peak. Empty when tracking is off or nothing was
    /// allocated.
    pub fn peak_breakdown(&self) -> &[(&'static str, u64)] {
        self.peak_holders.as_deref().unwrap_or(&[])
    }

    /// Allocate `bytes`, tagged for diagnostics. Fails with
    /// [`OutOfDeviceMemory`] when capacity would be exceeded — the
    /// condition Table III renders as "-".
    pub fn malloc(&mut self, bytes: u64, tag: &'static str) -> Result<AllocId, OutOfDeviceMemory> {
        if self.live.saturating_add(bytes) > self.capacity {
            return Err(OutOfDeviceMemory {
                requested: bytes,
                live: self.live,
                capacity: self.capacity,
                tag,
                injected: false,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.allocs.insert(id, (bytes, tag));
        self.live += bytes;
        if self.live > self.peak {
            self.peak = self.live;
            if self.peak_holders.is_some() {
                self.peak_holders = Some(self.live_breakdown());
            }
        }
        Ok(AllocId(id))
    }

    /// Free a live allocation; returns its size.
    ///
    /// # Panics
    /// Panics on double-free / unknown id (a bug in the calling
    /// algorithm, not a recoverable device condition).
    pub fn free(&mut self, id: AllocId) -> u64 {
        #[expect(clippy::panic, reason = "panic documented above; the sanitizer intercepts first")]
        let (bytes, _) = self
            .allocs
            .remove(&id.0)
            .unwrap_or_else(|| panic!("free of non-live allocation {}", id.0));
        self.live -= bytes;
        bytes
    }

    /// Bytes currently allocated.
    pub fn live_bytes(&self) -> u64 {
        self.live
    }

    /// High-water mark since construction (the Figure 4 metric).
    pub fn peak_bytes(&self) -> u64 {
        self.peak
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of live allocations.
    pub fn live_allocs(&self) -> usize {
        self.allocs.len()
    }

    /// Live allocations as `(tag, bytes)`, largest first (diagnostics).
    pub fn live_breakdown(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<(&'static str, u64)> = self.allocs.values().map(|&(b, t)| (t, b)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_live_and_peak() {
        let mut m = DeviceMemory::new(1000);
        let a = m.malloc(400, "a").unwrap();
        let b = m.malloc(500, "b").unwrap();
        assert_eq!(m.live_bytes(), 900);
        assert_eq!(m.peak_bytes(), 900);
        m.free(a);
        assert_eq!(m.live_bytes(), 500);
        assert_eq!(m.peak_bytes(), 900);
        let c = m.malloc(100, "c").unwrap();
        assert_eq!(m.peak_bytes(), 900); // peak unchanged
        m.free(b);
        m.free(c);
        assert_eq!(m.live_bytes(), 0);
        assert_eq!(m.live_allocs(), 0);
    }

    #[test]
    fn oom_reports_context() {
        let mut m = DeviceMemory::new(100);
        m.malloc(80, "base").unwrap();
        let err = m.malloc(30, "overflow").unwrap_err();
        assert_eq!(err.requested, 30);
        assert_eq!(err.live, 80);
        assert_eq!(err.capacity, 100);
        assert_eq!(err.tag, "overflow");
        assert!(err.to_string().contains("out of device memory"));
        // Failed allocation does not change accounting.
        assert_eq!(m.live_bytes(), 80);
    }

    #[test]
    fn zero_sized_alloc_is_fine() {
        let mut m = DeviceMemory::new(10);
        let a = m.malloc(0, "zero").unwrap();
        assert_eq!(m.live_bytes(), 0);
        m.free(a);
    }

    #[test]
    fn exact_fit_succeeds() {
        let mut m = DeviceMemory::new(100);
        let a = m.malloc(100, "all").unwrap();
        assert!(m.malloc(1, "x").is_err());
        m.free(a);
        assert!(m.malloc(100, "again").is_ok());
    }

    #[test]
    #[should_panic(expected = "free of non-live allocation")]
    fn double_free_panics() {
        let mut m = DeviceMemory::new(100);
        let a = m.malloc(10, "a").unwrap();
        m.free(a);
        m.free(a);
    }

    #[test]
    fn breakdown_sorted_by_size() {
        let mut m = DeviceMemory::new(1000);
        m.malloc(10, "small").unwrap();
        m.malloc(500, "big").unwrap();
        let bd = m.live_breakdown();
        assert_eq!(bd[0].0, "big");
        assert_eq!(bd[1].0, "small");
    }

    #[test]
    fn tracking_off_records_nothing() {
        let mut m = DeviceMemory::new(1000);
        let a = m.malloc(100, "a").unwrap();
        m.free(a);
        assert!(m.peak_breakdown().is_empty());
    }

    #[test]
    fn peak_breakdown_attributes_high_water() {
        let mut m = DeviceMemory::new(1000);
        m.enable_tracking();
        let a = m.malloc(400, "big").unwrap();
        m.malloc(100, "small").unwrap();
        m.free(a);
        // Peak (500) was big+small; the later free does not change it.
        m.malloc(50, "later").unwrap();
        m.enable_tracking(); // idempotent: the attribution survives
        let bd = m.peak_breakdown();
        assert_eq!(bd.len(), 2);
        assert_eq!(bd[0], ("big", 400));
        assert_eq!(bd[1], ("small", 100));
        assert_eq!(bd.iter().map(|&(_, b)| b).sum::<u64>(), m.peak_bytes());
    }
}
