//! The linear-probing hash table of Algorithm 5, executed functionally.
//!
//! Column indices are keys; `hash = (key * HASH_SCAL) & (t_size - 1)`
//! (the paper keeps `t_size` a power of two so the modulo is a mask);
//! collisions linear-probe to the next slot; on the device the claim of
//! an empty slot is an `atomicCAS`, and the numeric phase accumulates
//! values with an atomic add.
//!
//! The table *observes* its own cost: every probe step is counted, so
//! the kernels charge the virtual GPU for the collision chains that
//! actually happened rather than an estimate. The table is reused across
//! rows via a stamp (no O(t_size) clearing per row — matching the device
//! code, where each block re-initializes only its own shared array; the
//! initialization cost is charged separately by the kernels). It also
//! lists the slots each row claims, so extracting a row sorts only its
//! own entries instead of scanning every slot.

use sparse::Scalar;

/// The multiplicative scrambling constant of Algorithm 5. The published
/// nsparse implementation uses 107.
pub const HASH_SCAL: u32 = 107;

/// Outcome of a symbolic insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insert {
    /// Key was not present: a slot was claimed.
    New,
    /// Key already present.
    Duplicate,
    /// Table is full and the key is not in it — the row overflows this
    /// group's table (drives the count phase's global-memory fallback).
    Overflow,
}

/// Aggregated hash-table observations, collected only when
/// [`HashTable::observe_probes`] turned the observer on (telemetry).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Slot inspections per insert/lookup chain (1 = no collision).
    pub probe_len: obs::Log2Histogram,
    /// Distinct keys per row, sampled at [`HashTable::take_probes`].
    pub row_occupancy: obs::Log2Histogram,
    /// Row load factor in permille (`occupied × 1000 / capacity`),
    /// sampled at [`HashTable::take_probes`].
    pub load_permille: obs::Log2Histogram,
}

impl ProbeStats {
    /// Fold `other`'s observations into these. Histogram merges are
    /// exact and commutative, so observations split across tables (one
    /// per worker thread) merge to the same stats in any order.
    pub(crate) fn merge(&mut self, other: &ProbeStats) {
        self.probe_len.merge(&other.probe_len);
        self.row_occupancy.merge(&other.row_occupancy);
        self.load_permille.merge(&other.load_permille);
    }
}

/// A reusable hash table with observed probe counts.
#[derive(Debug, Clone)]
pub struct HashTable<T> {
    stamp: Vec<u32>,
    keys: Vec<u32>,
    vals: Vec<T>,
    mask: usize,
    epoch: u32,
    /// Slots claimed since the last reset, in claim order (its length is
    /// the row's occupancy).
    touched: Vec<u32>,
    /// Reused sort buffer of [`HashTable::extract_sorted_into`]: one
    /// `(column << 32) | slot` key per entry.
    order: Vec<u64>,
    /// Total probe steps since the last `probes_taken` reset (one step =
    /// one slot inspection, i.e. one shared/global load + compare).
    probes: u64,
    /// Whether the multiplicative hash is applied (ablation switch).
    scramble: bool,
    /// Probe-distribution observer; `None` (the default) keeps the
    /// non-telemetry path free of histogram work.
    observer: Option<Box<ProbeStats>>,
}

impl<T: Scalar> HashTable<T> {
    /// Table with `capacity` slots (power of two).
    pub fn new(capacity: usize, scramble: bool) -> Self {
        assert!(capacity.is_power_of_two(), "t_size must be a power of two (§III-D)");
        HashTable {
            stamp: vec![0; capacity],
            keys: vec![0; capacity],
            vals: vec![T::ZERO; capacity],
            mask: capacity - 1,
            epoch: 0,
            touched: Vec::new(),
            order: Vec::new(),
            probes: 0,
            scramble,
            observer: None,
        }
    }

    /// Turn the probe-distribution observer on or off. Observations
    /// accumulate across rows until [`HashTable::take_probe_stats`].
    pub fn observe_probes(&mut self, on: bool) {
        if on {
            if self.observer.is_none() {
                self.observer = Some(Box::default());
            }
        } else {
            self.observer = None;
        }
    }

    /// Take the accumulated observations, leaving a fresh observer in
    /// place (so per-group draining keeps observing). `None` when the
    /// observer was never enabled.
    pub fn take_probe_stats(&mut self) -> Option<ProbeStats> {
        self.observer.as_mut().map(|o| std::mem::take(&mut **o))
    }

    /// Record the chain length of the access that started at probe
    /// count `p0` (observer only).
    #[inline]
    fn note_chain(&mut self, p0: u64) {
        if let Some(o) = self.observer.as_deref_mut() {
            o.probe_len.record(self.probes - p0);
        }
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Reset for a new row with exactly `capacity` slots (rounded up to
    /// a power of two). Probing uses *this* capacity's mask, so collision
    /// behaviour matches the group's real `t_size` even though the
    /// backing storage is reused across groups. Amortized O(1).
    pub fn reset(&mut self, capacity: usize) {
        let cap = capacity.next_power_of_two();
        if cap > self.stamp.len() {
            // Claimed slots are recorded as `u32` (see `claim`).
            assert!(cap <= 1 << 32, "t_size {cap} exceeds 2^32 slots");
            self.stamp = vec![0; cap];
            self.keys = vec![0; cap];
            self.vals = vec![T::ZERO; cap];
            self.epoch = 1;
        } else {
            self.epoch += 1;
            if self.epoch == 0 {
                // Stamp wrapped: hard-clear once every 2^32 rows.
                self.stamp.fill(0);
                self.epoch = 1;
            }
        }
        self.mask = cap - 1;
        self.touched.clear();
        self.probes = 0;
    }

    /// Claim the empty `slot` for `key` in the current row.
    #[inline]
    fn claim(&mut self, slot: usize, key: u32) {
        self.stamp[slot] = self.epoch;
        self.keys[slot] = key;
        // `slot <= mask < 2^32`: `reset` caps the capacity.
        self.touched.push(slot as u32);
    }

    #[inline]
    fn slot_of(&self, key: u32) -> usize {
        let h = if self.scramble { key.wrapping_mul(HASH_SCAL) } else { key };
        h as usize & self.mask
    }

    /// Symbolic insert (count phase): record `key`, counting probes.
    ///
    /// `Overflow` is returned only when the key is absent *and* no empty
    /// slot exists (the probe may walk the whole table once to establish
    /// that — exactly what the device kernel pays before a row is
    /// declared too big for its group).
    #[inline]
    pub fn insert_symbolic(&mut self, key: u32) -> Insert {
        self.insert_bounded_symbolic(key, self.capacity())
    }

    /// Symbolic insert that gives up after `max_probes` slot inspections
    /// — models designs (Demouth's cuSPARSE kernel) that abandon the
    /// shared table after a short probe budget and spill to global.
    #[inline]
    pub fn insert_bounded_symbolic(&mut self, key: u32, max_probes: usize) -> Insert {
        let p0 = self.probes;
        let mut slot = self.slot_of(key);
        for _ in 0..max_probes {
            self.probes += 1;
            if self.stamp[slot] != self.epoch {
                // Empty: claim it (the device's atomicCAS).
                self.claim(slot, key);
                self.note_chain(p0);
                return Insert::New;
            }
            if self.keys[slot] == key {
                self.note_chain(p0);
                return Insert::Duplicate;
            }
            slot = (slot + 1) & self.mask;
        }
        self.note_chain(p0);
        Insert::Overflow
    }

    /// Numeric insert (calc phase): accumulate `value` under `key`.
    #[inline]
    pub fn insert_numeric(&mut self, key: u32, value: T) -> Insert {
        self.insert_bounded_numeric(key, value, self.capacity())
    }

    /// Numeric insert with a probe budget (see
    /// [`HashTable::insert_bounded_symbolic`]). On `Overflow` nothing is
    /// accumulated — the caller routes the product to its global table.
    #[inline]
    pub fn insert_bounded_numeric(&mut self, key: u32, value: T, max_probes: usize) -> Insert {
        let p0 = self.probes;
        let mut slot = self.slot_of(key);
        for _ in 0..max_probes {
            self.probes += 1;
            if self.stamp[slot] != self.epoch {
                self.claim(slot, key);
                self.vals[slot] = value;
                self.note_chain(p0);
                return Insert::New;
            }
            if self.keys[slot] == key {
                self.vals[slot] += value; // the device's atomicAdd
                self.note_chain(p0);
                return Insert::Duplicate;
            }
            slot = (slot + 1) & self.mask;
        }
        self.note_chain(p0);
        Insert::Overflow
    }

    /// Distinct keys inserted since the last reset (the row's nnz).
    pub fn occupied(&self) -> usize {
        self.touched.len()
    }

    /// Take and clear the probe counter. Called once per row by the
    /// kernels, so the observer samples row occupancy and load factor
    /// here.
    pub fn take_probes(&mut self) -> u64 {
        let (occupied, mask) = (self.touched.len() as u64, self.mask as u64);
        if let Some(o) = self.observer.as_deref_mut() {
            let load = occupied * 1000 / (mask + 1);
            o.row_occupancy.record(occupied);
            o.load_permille.record(load);
        }
        std::mem::take(&mut self.probes)
    }

    /// Write this row's entries, sorted by column, into `out_cols` and
    /// `out_vals` (each exactly [`HashTable::occupied`] long) — the
    /// functional equivalent of the paper's gather + count-sort phases
    /// (§III-C). Only the claimed slots are read and sorted, in a buffer
    /// reused across rows, so a row costs no allocation once the buffer
    /// has grown.
    pub fn extract_sorted_into(&mut self, out_cols: &mut [u32], out_vals: &mut [T]) {
        debug_assert_eq!(out_cols.len(), self.touched.len(), "output sized to the row's nnz");
        debug_assert_eq!(out_vals.len(), self.touched.len(), "output sized to the row's nnz");
        self.order.clear();
        self.order.extend(
            self.touched.iter().map(|&s| (u64::from(self.keys[s as usize]) << 32) | u64::from(s)),
        );
        // Keys are distinct within a row, so the column alone orders.
        self.order.sort_unstable();
        for ((c, v), &e) in out_cols.iter_mut().zip(out_vals.iter_mut()).zip(&self.order) {
            *c = (e >> 32) as u32;
            *v = self.vals[(e & u64::from(u32::MAX)) as usize];
        }
    }

    /// Allocating form of [`HashTable::extract_sorted_into`]: returns
    /// `(columns, values)`.
    pub fn extract_sorted(&mut self) -> (Vec<u32>, Vec<T>) {
        let mut cols = vec![0; self.occupied()];
        let mut vals = vec![T::ZERO; self.occupied()];
        self.extract_sorted_into(&mut cols, &mut vals);
        (cols, vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbolic_counts_distinct_keys() {
        let mut t = HashTable::<f64>::new(16, true);
        t.reset(16);
        assert_eq!(t.insert_symbolic(5), Insert::New);
        assert_eq!(t.insert_symbolic(9), Insert::New);
        assert_eq!(t.insert_symbolic(5), Insert::Duplicate);
        assert_eq!(t.occupied(), 2);
    }

    #[test]
    fn numeric_accumulates() {
        let mut t = HashTable::<f64>::new(8, true);
        t.reset(8);
        t.insert_numeric(3, 1.5);
        t.insert_numeric(3, 2.0);
        t.insert_numeric(7, 1.0);
        let (cols, vals) = t.extract_sorted();
        assert_eq!(cols, vec![3, 7]);
        assert_eq!(vals, vec![3.5, 1.0]);
    }

    #[test]
    fn extract_is_sorted_regardless_of_probe_order() {
        let mut t = HashTable::<f32>::new(32, true);
        t.reset(32);
        for k in [31u32, 2, 17, 4, 29, 0, 11] {
            t.insert_numeric(k, k as f32);
        }
        let (cols, _) = t.extract_sorted();
        let mut sorted = cols.clone();
        sorted.sort_unstable();
        assert_eq!(cols, sorted);
        assert_eq!(cols.len(), 7);
    }

    #[test]
    fn collisions_increase_probes() {
        // Keys that collide under the mask after scrambling: with
        // capacity 8 and scramble off, 0 and 8 map to slot 0.
        let mut t = HashTable::<f64>::new(8, false);
        t.reset(8);
        t.insert_symbolic(0);
        let before = t.take_probes();
        assert_eq!(before, 1);
        t.insert_symbolic(8); // collides, probes slot 0 then 1
        assert_eq!(t.take_probes(), 2);
    }

    #[test]
    fn overflow_detected_when_full() {
        let mut t = HashTable::<f64>::new(4, true);
        t.reset(4);
        for k in 0..4 {
            assert_ne!(t.insert_symbolic(k), Insert::Overflow);
        }
        assert_eq!(t.insert_symbolic(99), Insert::Overflow);
        // Re-inserting an existing key still works when full.
        assert_eq!(t.insert_symbolic(2), Insert::Duplicate);
    }

    #[test]
    fn reset_reuses_without_clearing() {
        let mut t = HashTable::<f64>::new(8, true);
        t.reset(8);
        t.insert_numeric(1, 1.0);
        t.reset(8);
        assert_eq!(t.occupied(), 0);
        assert_eq!(t.insert_numeric(1, 2.0), Insert::New);
        let (_, vals) = t.extract_sorted();
        assert_eq!(vals, vec![2.0]); // old value gone
    }

    #[test]
    fn extract_into_reads_only_the_current_row() {
        // Rows of varying capacity reuse (and once grow) one table; each
        // extraction must hold exactly that row's columns, sorted, with
        // values summed in insertion order.
        let mut t = HashTable::<f64>::new(8, true);
        let mut state = 7u64;
        for (row, cap) in [8usize, 64, 16, 512, 32].into_iter().enumerate() {
            t.reset(cap);
            let mut expect = std::collections::BTreeMap::<u32, f64>::new();
            for i in 0..cap / 2 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let (key, v) = ((state >> 40) as u32 % (cap as u32 * 3), (row + i) as f64);
                t.insert_numeric(key, v);
                *expect.entry(key).or_insert(-0.0) += v;
            }
            let (mut cols, mut vals) = (vec![0; t.occupied()], vec![0.0; t.occupied()]);
            t.extract_sorted_into(&mut cols, &mut vals);
            assert_eq!(cols, expect.keys().copied().collect::<Vec<_>>(), "row {row}");
            assert_eq!(vals, expect.values().copied().collect::<Vec<_>>(), "row {row}");
        }
    }

    #[test]
    fn reset_grows_capacity() {
        let mut t = HashTable::<f64>::new(4, true);
        t.reset(100);
        assert_eq!(t.capacity(), 128);
        for k in 0..100 {
            assert_eq!(t.insert_symbolic(k), Insert::New);
        }
        assert_eq!(t.occupied(), 100);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_capacity() {
        HashTable::<f64>::new(12, true);
    }

    #[test]
    fn scramble_and_identity_agree_on_contents() {
        // The hash function changes probe counts, never results.
        let keys = [5u32, 123, 3000, 5, 77, 123, 9999, 64, 128];
        let mut ident = HashTable::<f64>::new(64, false);
        ident.reset(64);
        let mut scram = HashTable::<f64>::new(64, true);
        scram.reset(64);
        for &k in &keys {
            ident.insert_numeric(k, 1.0);
            scram.insert_numeric(k, 1.0);
        }
        assert_eq!(ident.extract_sorted(), scram.extract_sorted());
        assert_eq!(ident.occupied(), scram.occupied());
    }

    #[test]
    fn observer_collects_chain_and_row_stats() {
        let mut t = HashTable::<f64>::new(8, false);
        assert!(t.take_probe_stats().is_none()); // off by default
        t.observe_probes(true);
        t.reset(8);
        t.insert_symbolic(0); // chain length 1
        t.insert_symbolic(8); // collides with slot 0: chain length 2
        let probes = t.take_probes();
        let s = t.take_probe_stats().unwrap();
        assert_eq!(s.probe_len.count(), 2);
        assert_eq!(s.probe_len.sum(), probes); // chains partition the probes
        assert_eq!(s.row_occupancy.count(), 1);
        assert_eq!(s.row_occupancy.sum(), 2);
        assert_eq!(s.load_permille.sum(), 250); // 2 of 8 slots
                                                // Taking leaves a fresh observer in place.
        t.insert_symbolic(1);
        t.take_probes();
        let s2 = t.take_probe_stats().unwrap();
        assert_eq!(s2.probe_len.count(), 1);
        t.observe_probes(false);
        assert!(t.take_probe_stats().is_none());
    }

    #[test]
    fn scramble_breaks_clustered_runs() {
        // Consecutive runs that straddle a wrap: identity fills a dense
        // run of slots so later keys probe long chains; scrambling (odd
        // multiplier) disperses consecutive keys (stride 107 mod size).
        let mut ident = HashTable::<f64>::new(64, false);
        ident.reset(64);
        let mut scram = HashTable::<f64>::new(64, true);
        scram.reset(64);
        // Two overlapping-after-mask runs: 0..32 and 64..96 alias under
        // identity (both land in slots 0..32) but not under scrambling.
        for k in (0..32u32).chain(64..96) {
            ident.insert_symbolic(k);
            scram.insert_symbolic(k);
        }
        assert_eq!(ident.occupied(), 64);
        assert_eq!(scram.occupied(), 64);
        assert!(scram.take_probes() < ident.take_probes());
    }
}
