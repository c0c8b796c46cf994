//! Deterministic work partitioning for thread-parallel backends.
//!
//! Both backends split rows into contiguous ranges weighted by a per-row
//! cost metric (intermediate products) and let `run_workers` threads
//! pull them from a shared [`JobQueue`] — the host over the whole row
//! space, the simulator over each group's rows. Because every range owns
//! a disjoint slice of the output and rows are pure functions of their
//! inputs, the *order* in which threads pull ranges cannot affect the
//! result — the output is bitwise identical for any thread count
//! (DESIGN.md §12).

#![cfg_attr(
    not(test),
    warn(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)
)]

use sparse::to_u64;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// Split `0..metric.len()` into at most `parts` contiguous, non-empty,
/// ordered ranges covering the whole index space, each of roughly equal
/// total weight. A row's weight is `metric[row] + 1`, so empty rows
/// still spread across ranges instead of piling into the tail.
pub fn weighted_ranges(metric: &[usize], parts: usize) -> Vec<Range<usize>> {
    let n = metric.len();
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    // Saturating sums: adversarial metrics (weights near `usize::MAX`)
    // must degrade the *balance*, never wrap the arithmetic — a
    // saturated total only makes the target coarser, and the ranges
    // still cover the index space exactly.
    let total: u64 =
        metric.iter().fold(0u64, |acc, &w| acc.saturating_add(to_u64(w).saturating_add(1)));
    let target = total.div_ceil(to_u64(parts)).max(1);
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &w) in metric.iter().enumerate() {
        acc = acc.saturating_add(to_u64(w).saturating_add(1));
        if acc >= target && out.len() + 1 < parts {
            out.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < n {
        out.push(start..n);
    }
    out
}

/// A shared pull queue of pre-cut jobs. Threads take jobs front to back;
/// which thread takes which job is scheduling-dependent, but since each
/// job carries its own disjoint output, that nondeterminism is invisible
/// in the result.
pub struct JobQueue<J> {
    jobs: Mutex<std::vec::IntoIter<J>>,
}

impl<J> JobQueue<J> {
    /// Wrap a job list for shared consumption.
    pub fn new(jobs: Vec<J>) -> Self {
        JobQueue { jobs: Mutex::new(jobs.into_iter()) }
    }

    /// Take the next job, or `None` when drained. A worker panicking
    /// mid-`next` cannot leave the iterator inconsistent (advancing it
    /// is atomic from the queue's perspective), so poisoning is safely
    /// recovered rather than propagated.
    pub fn next(&self) -> Option<J> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner).next()
    }
}

/// Run `body` on `workers` scoped threads and collect what each returns,
/// in spawn order. A worker panic is re-raised on the calling thread,
/// as `std::thread::scope` would.
pub(crate) fn run_workers<R: Send>(workers: usize, body: impl Fn() -> R + Sync) -> Vec<R> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(&body)).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_covers(ranges: &[Range<usize>], n: usize) {
        let mut expect = 0;
        for r in ranges {
            assert_eq!(r.start, expect, "ranges must be contiguous");
            assert!(r.end > r.start, "ranges must be non-empty");
            expect = r.end;
        }
        assert_eq!(expect, n, "ranges must cover 0..{n}");
    }

    #[test]
    fn covers_index_space_exactly() {
        let metric = vec![5usize; 100];
        for parts in [1, 2, 3, 7, 100, 1000] {
            let r = weighted_ranges(&metric, parts);
            assert_covers(&r, 100);
            assert!(r.len() <= parts.min(100));
        }
    }

    #[test]
    fn weights_balance_skewed_input() {
        // One heavy row at the front: it should sit alone in its range.
        let mut metric = vec![0usize; 64];
        metric[0] = 10_000;
        let r = weighted_ranges(&metric, 4);
        assert_covers(&r, 64);
        assert_eq!(r[0], 0..1);
    }

    #[test]
    fn zero_weights_still_spread() {
        let metric = vec![0usize; 40];
        let r = weighted_ranges(&metric, 4);
        assert_covers(&r, 40);
        assert_eq!(r.len(), 4);
        // All-equal weights → near-equal range lengths.
        assert!(r.iter().all(|x| x.len() == 10));
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert!(weighted_ranges(&[], 4).is_empty());
        let r = weighted_ranges(&[3], 4);
        assert_eq!(r, vec![0..1]);
    }

    #[test]
    fn adversarial_weights_do_not_wrap() {
        // Weights whose sum overflows u64 many times over: the split
        // must still cover the index space without panicking.
        let metric = vec![usize::MAX; 9];
        for parts in [1, 2, 4, 9] {
            let r = weighted_ranges(&metric, parts);
            assert_covers(&r, 9);
        }
        let mixed = vec![usize::MAX, 0, usize::MAX / 2, 3, usize::MAX];
        let r = weighted_ranges(&mixed, 3);
        assert_covers(&r, 5);
    }

    #[test]
    fn queue_drains_in_order() {
        let q = JobQueue::new(vec![1, 2, 3]);
        assert_eq!(q.next(), Some(1));
        assert_eq!(q.next(), Some(2));
        assert_eq!(q.next(), Some(3));
        assert_eq!(q.next(), None);
    }
}
