//! The shared plan cache: symbolic results keyed by sparsity structure.
//!
//! The paper's setup + count phases depend only on the *patterns* of
//! `A` and `B` and the multiply options — never on values (DESIGN.md
//! §12, [`nsparse_core::SymbolicPlan`]). A service recomputing products
//! over stable patterns (AMG levels, per-step Galerkin products) can
//! therefore skip straight to the numeric phase. The cache key is the
//! FNV-1a structure fingerprint of both operands
//! ([`nsparse_core::pattern_fingerprint`]: dims + `rpt` + `col`) plus
//! dims/nnz (cheap collision guards) and the options. A miss runs one
//! cold `multiply` and caches the plan it recorded
//! ([`nsparse_core::SymbolicPlan::from_run`]), taking the fingerprints
//! from the key. A hit replays the cached plan through
//! `Executor::execute_numeric` directly: the matching key already holds
//! the fingerprints that `SymbolicPlan::execute_with` would re-verify.
//!
//! Every entry holds the output's sorted column structure next to its
//! row arrays (4 B per output entry), whichever backend built it, so a
//! host hit only fills values; [`CacheStats::bytes`] reports what the
//! entries hold.
//!
//! Eviction is LRU over a fixed entry capacity. Eviction can never
//! change results — an evicted pattern just plans cold again — which
//! `tests/cache_props.rs` asserts property-style.

use nsparse_core::{pattern_fingerprint, Options, SymbolicPlan};
use sparse::{Csr, Scalar};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Cache key: structure fingerprints + shape + options.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    fp_a: u64,
    fp_b: u64,
    shape: (usize, usize, usize),
    nnz: (usize, usize),
    // The whole options value, so a field added to `Options` keys plans
    // too. The estimator matters although outputs never depend on it: a
    // sampled plan's table sizes live inside the cached SymbolicPlan, so
    // plans built under different estimators must never be conflated
    // (replayed cost/telemetry would silently belong to the wrong mode).
    opts: Options,
}

impl PlanKey {
    /// Key for `A × B` under `opts`.
    pub fn new<T: Scalar>(a: &Csr<T>, b: &Csr<T>, opts: &Options) -> Self {
        PlanKey {
            fp_a: pattern_fingerprint(a),
            fp_b: pattern_fingerprint(b),
            shape: (a.rows(), a.cols(), b.cols()),
            nnz: (a.nnz(), b.nnz()),
            opts: opts.clone(),
        }
    }

    /// The operands' pattern fingerprints, `(A, B)`.
    pub(crate) fn fingerprints(&self) -> (u64, u64) {
        (self.fp_a, self.fp_b)
    }
}

/// Counter snapshot of a [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a reusable plan.
    pub hits: u64,
    /// Lookups that had to plan cold.
    pub misses: u64,
    /// Entries displaced by LRU eviction.
    pub evictions: u64,
    /// Entries currently cached.
    pub len: usize,
    /// Maximum entries before eviction.
    pub capacity: usize,
    /// Heap bytes of the cached plans' symbolic results: each entry's
    /// row arrays plus its structure at 4 B per output entry
    /// ([`SymbolicPlan::heap_bytes`]).
    pub bytes: u64,
}

#[derive(Debug)]
struct CacheInner<T> {
    map: HashMap<PlanKey, Arc<SymbolicPlan<T>>>,
    // Recency order, least-recent first. Entries are unique.
    lru: VecDeque<PlanKey>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A thread-safe LRU of symbolic plans, shared by all engine workers.
#[derive(Debug)]
pub struct PlanCache<T> {
    capacity: usize,
    inner: Mutex<CacheInner<T>>,
}

impl<T: Scalar> PlanCache<T> {
    /// A cache holding at most `capacity` plans (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                lru: VecDeque::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner<T>> {
        // Poison recovery (DESIGN.md §14): cache mutations are
        // single-assignment map/queue updates, so a panicking holder
        // cannot leave the structure half-written.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Look up a plan, counting a hit (and refreshing recency) or a miss.
    pub fn lookup(&self, key: &PlanKey) -> Option<Arc<SymbolicPlan<T>>> {
        let mut g = self.lock();
        match g.map.get(key).cloned() {
            Some(plan) => {
                g.hits += 1;
                if let Some(pos) = g.lru.iter().position(|k| k == key) {
                    g.lru.remove(pos);
                }
                g.lru.push_back(key.clone());
                Some(plan)
            }
            None => {
                g.misses += 1;
                None
            }
        }
    }

    /// Insert a freshly built plan, evicting the least-recently used
    /// entry when full. Racing inserts for the same key keep the latest
    /// (both plans are equivalent: same pattern, same options).
    pub fn insert(&self, key: PlanKey, plan: Arc<SymbolicPlan<T>>) {
        if self.capacity == 0 {
            return;
        }
        let mut g = self.lock();
        if g.map.insert(key.clone(), plan).is_none() {
            g.lru.push_back(key);
            if g.lru.len() > self.capacity {
                if let Some(old) = g.lru.pop_front() {
                    g.map.remove(&old);
                    g.evictions += 1;
                }
            }
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let g = self.lock();
        CacheStats {
            hits: g.hits,
            misses: g.misses,
            evictions: g.evictions,
            len: g.map.len(),
            capacity: self.capacity,
            bytes: g.map.values().map(|plan| plan.heap_bytes()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsparse_core::{Estimator, HostParallelExecutor};

    fn plan_for(a: &Csr<f64>) -> Arc<SymbolicPlan<f64>> {
        let mut host = HostParallelExecutor::new(1);
        Arc::new(SymbolicPlan::from_executor(&mut host, a, a, &Options::default()).unwrap())
    }

    #[test]
    fn lru_evicts_least_recent_and_counts() {
        let cache = PlanCache::<f64>::new(2);
        let mats: Vec<Csr<f64>> = (1..=3).map(|n| Csr::identity(8 * n)).collect();
        let keys: Vec<PlanKey> =
            mats.iter().map(|m| PlanKey::new(m, m, &Options::default())).collect();
        for (k, m) in keys.iter().zip(&mats).take(2) {
            assert!(cache.lookup(k).is_none());
            cache.insert(k.clone(), plan_for(m));
        }
        // Touch key 0 so key 1 is least-recent, then overflow.
        assert!(cache.lookup(&keys[0]).is_some());
        cache.insert(keys[2].clone(), plan_for(&mats[2]));
        assert!(cache.lookup(&keys[1]).is_none(), "LRU entry evicted");
        assert!(cache.lookup(&keys[0]).is_some());
        assert!(cache.lookup(&keys[2]).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.len), (3, 3, 1, 2));
        // The two cached identity plans: a row pointer plus one
        // structure entry per row; the evicted one no longer counts.
        let word = std::mem::size_of::<usize>() as u64;
        let entry = |n: u64| word * (n + 1) + 4 * n;
        assert_eq!(s.bytes, entry(8) + entry(24));
    }

    #[test]
    fn same_pattern_different_values_share_a_key() {
        let a = Csr::<f64>::identity(16);
        let scaled = a.scaled(3.0);
        let opts = Options::default();
        assert_eq!(PlanKey::new(&a, &a, &opts), PlanKey::new(&scaled, &scaled, &opts));
        // Different options must not share a plan.
        let no_pwarp = Options { use_pwarp: false, ..Options::default() };
        assert_ne!(PlanKey::new(&a, &a, &opts), PlanKey::new(&a, &a, &no_pwarp));
        // The estimator is part of the fingerprint: sampled-estimator
        // plans never alias the default's entry.
        let sampled = Options { estimator: Estimator::sampled(), ..Options::default() };
        assert_ne!(PlanKey::new(&a, &a, &opts), PlanKey::new(&a, &a, &sampled));
    }

    #[test]
    fn every_option_field_is_part_of_the_key() {
        let a = Csr::<f64>::identity(16);
        let base = Options::default();
        // Exhaustive on purpose: a new `Options` field stops this
        // compiling until it gets a variant below.
        let Options { use_streams, use_pwarp, pwarp_width, use_mul_hash, estimator } = base.clone();
        let other_estimator =
            if estimator == Estimator::Exact { Estimator::sampled() } else { Estimator::Exact };
        let variants = [
            Options { use_streams: !use_streams, ..base.clone() },
            Options { use_pwarp: !use_pwarp, ..base.clone() },
            Options { pwarp_width: pwarp_width * 2, ..base.clone() },
            Options { use_mul_hash: !use_mul_hash, ..base.clone() },
            Options { estimator: other_estimator, ..base.clone() },
        ];
        let key = PlanKey::new(&a, &a, &base);
        for opts in &variants {
            assert_ne!(PlanKey::new(&a, &a, opts), key, "{opts:?}");
        }
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PlanCache::<f64>::new(0);
        let a = Csr::<f64>::identity(8);
        let key = PlanKey::new(&a, &a, &Options::default());
        cache.insert(key.clone(), plan_for(&a));
        assert!(cache.lookup(&key).is_none());
        assert_eq!(cache.stats().len, 0);
    }
}
