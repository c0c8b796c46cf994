//! Shared device-memory budget for concurrent multiplies.
//!
//! One device serves many jobs: the engine admits a job only after
//! *reserving* its forecast (an `estimate_memory`-style upper bound)
//! against a [`SharedBudget`], and releases the
//! reservation when the job retires. The budget is the admission-level
//! contract — per-job device allocations are still charged to each
//! job's own [`crate::DeviceMemory`]; this type only guarantees the
//! *sum of forecasts* of in-flight jobs never exceeds the device.
//!
//! Accounting is deliberately panic-free under misuse: releasing more
//! than is reserved saturates to zero and flips a sticky `poisoned`
//! flag (read by [`SharedBudget::drained`]) instead of unwinding a worker
//! thread, so a leak check at shutdown still reports the truth. The
//! same principle applies to *lock* poisoning: a worker that panics
//! while holding the budget mutex must not wedge every later release
//! or the shutdown leak check, so every lock here recovers the guard
//! from a [`PoisonError`] — the `BudgetState` invariants hold at every
//! instruction boundary (plain integer updates), so the recovered
//! state is always consistent (DESIGN.md §17).

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

#[derive(Debug, Default)]
struct BudgetState {
    reserved: u64,
    peak: u64,
    poisoned: bool,
}

/// A byte budget shared by concurrent jobs, with blocking reservation.
#[derive(Debug)]
pub struct SharedBudget {
    capacity: u64,
    state: Mutex<BudgetState>,
    freed: Condvar,
}

impl SharedBudget {
    /// A budget of `capacity` bytes, all free.
    pub fn new(capacity: u64) -> Self {
        SharedBudget { capacity, state: Mutex::new(BudgetState::default()), freed: Condvar::new() }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Lock the state, recovering from a panicked holder: the integer
    /// updates here are consistent at every instruction boundary, so
    /// the data behind a poisoned mutex is never torn.
    fn lock(&self) -> MutexGuard<'_, BudgetState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// High-water mark of reserved bytes.
    pub fn peak_reserved(&self) -> u64 {
        self.lock().peak
    }

    /// `true` when every reservation has been released and the
    /// accounting never went inconsistent — the engine's no-leak gate.
    pub fn drained(&self) -> bool {
        let s = self.lock();
        s.reserved == 0 && !s.poisoned
    }

    /// Reserve `bytes` if they fit right now. Returns `false` (without
    /// blocking) when they do not.
    pub fn try_reserve(&self, bytes: u64) -> bool {
        let mut s = self.lock();
        if s.reserved.saturating_add(bytes) > self.capacity {
            return false;
        }
        s.reserved += bytes;
        s.peak = s.peak.max(s.reserved);
        true
    }

    /// Reserve `bytes`, blocking until enough of the budget is free.
    /// `bytes > capacity` can never fit and returns `false` immediately
    /// (blocking would deadlock); callers clamp batched jobs to the
    /// capacity first.
    pub fn reserve_blocking(&self, bytes: u64) -> bool {
        if bytes > self.capacity {
            return false;
        }
        let mut s = self.lock();
        while s.reserved.saturating_add(bytes) > self.capacity {
            s = self.freed.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        s.reserved += bytes;
        s.peak = s.peak.max(s.reserved);
        true
    }

    /// Release a prior reservation of `bytes` and wake blocked
    /// reservers. Over-release saturates and poisons the budget rather
    /// than panicking in a worker.
    pub fn release(&self, bytes: u64) {
        let mut s = self.lock();
        if bytes > s.reserved {
            s.reserved = 0;
            s.poisoned = true;
        } else {
            s.reserved -= bytes;
        }
        drop(s);
        self.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn reserve_release_roundtrip() {
        let b = SharedBudget::new(100);
        assert!(b.try_reserve(60));
        assert!(!b.try_reserve(50));
        assert!(b.try_reserve(40));
        assert!(!b.try_reserve(1), "the budget is full");
        assert_eq!(b.peak_reserved(), 100);
        b.release(60);
        assert!(!b.drained(), "40 B are still held");
        assert!(!b.try_reserve(61));
        b.release(40);
        assert!(b.drained());
        assert_eq!(b.peak_reserved(), 100);
    }

    #[test]
    fn oversized_blocking_request_fails_fast() {
        let b = SharedBudget::new(10);
        assert!(!b.reserve_blocking(11));
        assert!(b.reserve_blocking(10));
        b.release(10);
        assert!(b.drained());
    }

    #[test]
    fn over_release_poisons_instead_of_panicking() {
        let b = SharedBudget::new(10);
        assert!(b.try_reserve(4));
        b.release(5);
        // The reservation clamps to zero, and the poison keeps the
        // leak gate shut.
        assert!(b.try_reserve(10));
        b.release(10);
        assert!(!b.drained());
    }

    #[test]
    fn blocking_reservation_waits_for_release() {
        let b = Arc::new(SharedBudget::new(8));
        assert!(b.try_reserve(8));
        let b2 = Arc::clone(&b);
        let waiter = std::thread::spawn(move || b2.reserve_blocking(8));
        // The waiter cannot finish until we free the budget.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!waiter.is_finished());
        b.release(8);
        assert!(waiter.join().unwrap());
        b.release(8);
        assert!(b.drained());
    }
}
