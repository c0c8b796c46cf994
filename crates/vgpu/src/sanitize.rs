//! Device-memory sanitizer: shadow allocation state for the virtual GPU.
//!
//! Real CUDA ships `compute-sanitizer` because device-memory bugs —
//! use-after-free, double-free, out-of-bounds transfers, reads of
//! never-written memory, leaks — corrupt results silently long before
//! they crash. The virtual device can do better than hardware: every
//! allocation, transfer and kernel annotation passes through
//! [`crate::Gpu`], so a shadow of the allocator
//! (generation-tagged allocations plus byte-granular initialization
//! intervals) can check each access exactly and deterministically.
//!
//! Design rules (DESIGN.md §18):
//!
//! * **Check-and-record, never abort.** Violations become structured
//!   [`SanReport`]s, in the style of ASAN's recover mode; the run keeps
//!   going so one soak surfaces every distinct bug. Callers (the engine)
//!   turn non-empty reports into `Invariant` errors at job boundaries.
//! * **Zero simulated time.** Sanitizer hooks never advance the device
//!   clock or log device operations — a sanitized clean run is
//!   byte-identical (outputs, reports, telemetry timings) to an
//!   unsanitized one, which is what lets CI diff the two.
//! * **Deterministic reports.** Ordering comes from a monotone sequence
//!   number and the simulated clock; leak checks sort by allocation id.
//!   Two runs of the same workload dump identical JSONL.
//!
//! Initialization is tracked as sorted, disjoint `[start, end)` byte
//! intervals per allocation — byte-granular semantics without a bitmap
//! over multi-gigabyte simulated buffers.

use std::collections::HashMap;

/// Classification of a sanitizer finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SanKind {
    /// Access (read, write or free) to an allocation that was freed.
    UseAfterFree,
    /// Second free of an already-freed allocation.
    DoubleFree,
    /// Access to an id the allocator never issued.
    UnknownAlloc,
    /// Access range extends past the allocation's byte length.
    OutOfBounds,
    /// Read of bytes never written by any transfer or kernel.
    UninitRead,
    /// Allocation still live at a leak checkpoint.
    Leak,
}

impl SanKind {
    /// Stable label used in JSONL dumps.
    pub fn label(self) -> &'static str {
        match self {
            SanKind::UseAfterFree => "use_after_free",
            SanKind::DoubleFree => "double_free",
            SanKind::UnknownAlloc => "unknown_alloc",
            SanKind::OutOfBounds => "out_of_bounds",
            SanKind::UninitRead => "uninit_read",
            SanKind::Leak => "leak",
        }
    }
}

/// One recorded violation.
#[derive(Debug, Clone, PartialEq)]
pub struct SanReport {
    /// Monotone detection order (primary sort key of every dump).
    pub seq: u64,
    /// Simulated clock at detection, in microseconds.
    pub t_us: f64,
    /// What went wrong.
    pub kind: SanKind,
    /// Raw allocation id the access touched.
    pub alloc: u64,
    /// Generation of that id when the violation fired (generations
    /// disambiguate reuse of an id across malloc/free cycles).
    pub generation: u64,
    /// Allocation tag (or the freed allocation's last tag).
    pub tag: &'static str,
    /// The access site (kernel name or transfer direction).
    pub site: String,
    /// Human-readable specifics: offsets, lengths, bounds.
    pub detail: String,
}

impl SanReport {
    /// One deterministic JSON object (no floats beyond the simulated
    /// clock, which is itself deterministic).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"t_us\":{:.3},\"kind\":\"{}\",\"alloc\":{},\"gen\":{},\"tag\":\"{}\",\
             \"site\":\"{}\",\"detail\":\"{}\"}}",
            self.seq,
            self.t_us,
            self.kind.label(),
            self.alloc,
            self.generation,
            escape(self.tag),
            escape(&self.site),
            escape(&self.detail)
        )
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Aggregate activity counters — the deterministic "heartbeat" dumped
/// alongside reports so clean runs still produce comparable output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SanStats {
    /// Allocations shadowed.
    pub allocs: u64,
    /// Valid frees observed.
    pub frees: u64,
    /// Read ranges checked (kernel reads + d2h).
    pub reads: u64,
    /// Write ranges recorded (kernel writes + h2d + memset).
    pub writes: u64,
    /// Total bytes across all checked ranges.
    pub bytes_checked: u64,
}

#[derive(Debug, Clone)]
struct Shadow {
    bytes: u64,
    tag: &'static str,
    generation: u64,
    /// Sorted, disjoint, non-empty `[start, end)` initialized intervals.
    init: Vec<(u64, u64)>,
}

/// The shadow allocator. Owned by [`Gpu`](crate::Gpu) when
/// [`Gpu::enable_sanitizer`](crate::Gpu::enable_sanitizer) was called.
#[derive(Debug, Clone, Default)]
pub struct Sanitizer {
    live: HashMap<u64, Shadow>,
    /// Last generation + tag of freed ids, for precise UAF messages.
    dead: HashMap<u64, (u64, &'static str)>,
    next_gen: u64,
    seq: u64,
    reports: Vec<SanReport>,
    stats: SanStats,
}

impl Sanitizer {
    /// Fresh, empty shadow state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Violations recorded so far, in detection order.
    pub fn reports(&self) -> &[SanReport] {
        &self.reports
    }

    /// Activity counters.
    pub fn stats(&self) -> SanStats {
        self.stats
    }

    /// All reports as deterministic JSON Lines (empty string when clean).
    pub fn reports_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.reports {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        t_us: f64,
        kind: SanKind,
        alloc: u64,
        generation: u64,
        tag: &'static str,
        site: &str,
        detail: String,
    ) {
        let seq = self.seq;
        self.seq += 1;
        self.reports.push(SanReport {
            seq,
            t_us,
            kind,
            alloc,
            generation,
            tag,
            site: site.to_string(),
            detail,
        });
    }

    /// Shadow a successful allocation.
    pub fn on_malloc(&mut self, id: u64, bytes: u64, tag: &'static str) {
        self.stats.allocs += 1;
        let generation = self.next_gen;
        self.next_gen += 1;
        self.dead.remove(&id);
        self.live.insert(id, Shadow { bytes, tag, generation, init: Vec::new() });
    }

    /// Observe a free. Returns `true` when the free is valid (the caller
    /// should release the real allocation) and `false` when it was a
    /// double-free / unknown id — recorded here, and the caller must
    /// *skip* the real free, which would abort on the same condition.
    pub fn on_free(&mut self, id: u64, t_us: f64) -> bool {
        match self.live.remove(&id) {
            Some(shadow) => {
                self.stats.frees += 1;
                self.dead.insert(id, (shadow.generation, shadow.tag));
                true
            }
            None => {
                match self.dead.get(&id) {
                    Some((generation, tag)) => {
                        let (generation, tag) = (*generation, *tag);
                        self.record(
                            t_us,
                            SanKind::DoubleFree,
                            id,
                            generation,
                            tag,
                            "free",
                            "second free of this allocation".to_string(),
                        );
                    }
                    None => {
                        self.record(
                            t_us,
                            SanKind::UnknownAlloc,
                            id,
                            0,
                            "?",
                            "free",
                            "free of an id the allocator never issued".to_string(),
                        );
                    }
                }
                false
            }
        }
    }

    /// Validate an access range against liveness and bounds. Returns the
    /// allocation when the range may proceed to init bookkeeping.
    fn check_range(
        &mut self,
        id: u64,
        offset: u64,
        len: u64,
        site: &str,
        t_us: f64,
    ) -> Option<(u64, u64)> {
        self.stats.bytes_checked += len;
        let Some(shadow) = self.live.get(&id) else {
            match self.dead.get(&id) {
                Some((generation, tag)) => {
                    let (generation, tag) = (*generation, *tag);
                    self.record(
                        t_us,
                        SanKind::UseAfterFree,
                        id,
                        generation,
                        tag,
                        site,
                        format!("access of {len} B at offset {offset} after free"),
                    );
                }
                None => {
                    self.record(
                        t_us,
                        SanKind::UnknownAlloc,
                        id,
                        0,
                        "?",
                        site,
                        format!("access of {len} B at offset {offset} on an unknown id"),
                    );
                }
            }
            return None;
        };
        let (bytes, generation, tag) = (shadow.bytes, shadow.generation, shadow.tag);
        let end = offset.checked_add(len);
        if end.is_none() || end.is_some_and(|e| e > bytes) {
            self.record(
                t_us,
                SanKind::OutOfBounds,
                id,
                generation,
                tag,
                site,
                format!("range [{offset}, {offset}+{len}) exceeds {bytes} B allocation"),
            );
            return None;
        }
        Some((offset, offset + len))
    }

    /// Record a device write of `[offset, offset+len)` (h2d transfer or
    /// annotated kernel output): bounds-checked, then marked initialized.
    pub fn note_write(&mut self, id: u64, offset: u64, len: u64, site: &str, t_us: f64) {
        self.stats.writes += 1;
        if len == 0 {
            return;
        }
        if let Some((start, end)) = self.check_range(id, offset, len, site, t_us) {
            if let Some(shadow) = self.live.get_mut(&id) {
                mark_init(&mut shadow.init, start, end);
            }
        }
    }

    /// Check a device read of `[offset, offset+len)` (d2h transfer or
    /// annotated kernel input): bounds-checked, then checked against the
    /// initialized intervals.
    pub fn note_read(&mut self, id: u64, offset: u64, len: u64, site: &str, t_us: f64) {
        self.stats.reads += 1;
        if len == 0 {
            return;
        }
        if let Some((start, end)) = self.check_range(id, offset, len, site, t_us) {
            let gap = self.live.get(&id).and_then(|s| first_gap(&s.init, start, end));
            if let Some((gs, ge)) = gap {
                let (generation, tag) =
                    self.live.get(&id).map(|s| (s.generation, s.tag)).unwrap_or((0, "?"));
                self.record(
                    t_us,
                    SanKind::UninitRead,
                    id,
                    generation,
                    tag,
                    site,
                    format!("bytes [{gs}, {ge}) read before any write"),
                );
            }
        }
    }

    /// Report every still-live allocation as a leak, in ascending id
    /// order (deterministic). Shadow state is left intact so a later
    /// valid free does not also trip a false double-free.
    pub fn leak_check(&mut self, t_us: f64) -> usize {
        let mut ids: Vec<u64> = self.live.keys().copied().collect();
        ids.sort_unstable();
        for id in &ids {
            if let Some(shadow) = self.live.get(id) {
                let (bytes, generation, tag) = (shadow.bytes, shadow.generation, shadow.tag);
                self.record(
                    t_us,
                    SanKind::Leak,
                    *id,
                    generation,
                    tag,
                    "leak_check",
                    format!("{bytes} B still live at checkpoint"),
                );
            }
        }
        ids.len()
    }
}

/// Insert `[start, end)` into sorted disjoint intervals, merging.
fn mark_init(init: &mut Vec<(u64, u64)>, start: u64, end: u64) {
    debug_assert!(start < end);
    // Find the insertion window: every interval overlapping or adjacent
    // to [start, end) collapses into one.
    let lo = init.partition_point(|&(_, e)| e < start);
    let mut hi = lo;
    let (mut s, mut e) = (start, end);
    while hi < init.len() && init[hi].0 <= end {
        s = s.min(init[hi].0);
        e = e.max(init[hi].1);
        hi += 1;
    }
    init.splice(lo..hi, std::iter::once((s, e)));
}

/// First sub-range of `[start, end)` not covered by `init`, if any.
fn first_gap(init: &[(u64, u64)], start: u64, end: u64) -> Option<(u64, u64)> {
    let mut cursor = start;
    let idx = init.partition_point(|&(_, e)| e <= start);
    for &(s, e) in &init[idx..] {
        if s > cursor {
            return Some((cursor, s.min(end)));
        }
        cursor = cursor.max(e);
        if cursor >= end {
            return None;
        }
    }
    if cursor < end {
        Some((cursor, end))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_merge_and_gap_detect() {
        let mut init = Vec::new();
        mark_init(&mut init, 10, 20);
        mark_init(&mut init, 30, 40);
        assert_eq!(init, vec![(10, 20), (30, 40)]);
        mark_init(&mut init, 20, 30); // adjacent on both sides → one interval
        assert_eq!(init, vec![(10, 40)]);
        mark_init(&mut init, 0, 5);
        assert_eq!(init, vec![(0, 5), (10, 40)]);
        assert_eq!(first_gap(&init, 0, 5), None);
        assert_eq!(first_gap(&init, 0, 12), Some((5, 10)));
        assert_eq!(first_gap(&init, 35, 50), Some((40, 50)));
        assert_eq!(first_gap(&init, 12, 30), None);
    }

    #[test]
    fn clean_lifecycle_produces_no_reports() {
        let mut s = Sanitizer::new();
        s.on_malloc(1, 100, "buf");
        s.note_write(1, 0, 100, "h2d", 0.0);
        s.note_read(1, 10, 50, "kernel", 1.0);
        assert!(s.on_free(1, 2.0));
        assert_eq!(s.leak_check(3.0), 0);
        assert!(s.reports().is_empty());
        assert_eq!(s.stats().allocs, 1);
        assert_eq!(s.stats().frees, 1);
    }

    #[test]
    fn double_free_and_uaf_are_distinct() {
        let mut s = Sanitizer::new();
        s.on_malloc(7, 64, "x");
        assert!(s.on_free(7, 0.0));
        assert!(!s.on_free(7, 1.0), "second free must be rejected");
        s.note_read(7, 0, 8, "kernel", 2.0);
        let kinds: Vec<SanKind> = s.reports().iter().map(|r| r.kind).collect();
        assert_eq!(kinds, vec![SanKind::DoubleFree, SanKind::UseAfterFree]);
        assert!(s.reports().iter().all(|r| r.tag == "x"));
    }

    #[test]
    fn oob_uninit_unknown() {
        let mut s = Sanitizer::new();
        s.on_malloc(1, 100, "buf");
        s.note_write(1, 90, 20, "h2d", 0.0); // [90,110) over 100 B
        s.note_read(1, 0, 10, "kernel", 1.0); // never written
        s.note_write(99, 0, 4, "h2d", 3.0); // never allocated
        let kinds: Vec<SanKind> = s.reports().iter().map(|r| r.kind).collect();
        assert_eq!(kinds, vec![SanKind::OutOfBounds, SanKind::UninitRead, SanKind::UnknownAlloc]);
    }

    #[test]
    fn leaks_sorted_by_id_and_jsonl_stable() {
        let mut s = Sanitizer::new();
        s.on_malloc(5, 10, "b");
        s.on_malloc(2, 10, "a");
        assert_eq!(s.leak_check(9.0), 2);
        let allocs: Vec<u64> = s.reports().iter().map(|r| r.alloc).collect();
        assert_eq!(allocs, vec![2, 5]);
        let dump = s.reports_jsonl();
        assert_eq!(dump.lines().count(), 2);
        assert!(dump.contains("\"kind\":\"leak\""));
        let again = s.reports_jsonl();
        assert_eq!(dump, again, "dump must be deterministic");
    }

    #[test]
    fn generations_distinguish_id_reuse() {
        let mut s = Sanitizer::new();
        s.on_malloc(1, 10, "first");
        assert!(s.on_free(1, 0.0));
        s.on_malloc(1, 10, "second");
        s.note_write(1, 0, 10, "h2d", 1.0);
        assert!(s.reports().is_empty(), "reused id must be clean");
        assert!(s.on_free(1, 2.0));
        assert!(!s.on_free(1, 3.0));
        assert_eq!(s.reports()[0].tag, "second");
        assert_eq!(s.reports()[0].generation, 1);
    }
}
