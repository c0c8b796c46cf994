//! A Matrix Market file of about 60 bytes may declare 2^32 − 1 rows. Its
//! CSR needs three row arrays of 32 GiB each, so the reader must return
//! a `SparseError` when the heap refuses them, before writing any.
//!
//! This test binary's allocator refuses every request above 1 GiB, so
//! the refusal does not depend on how the host overcommits memory, and
//! no process commits the arrays: a reader that allocated them
//! infallibly would abort here instead of failing an assertion.

use sparse::{Csr, SparseError};
use std::alloc::{GlobalAlloc, Layout, System};

/// The largest single allocation [`Capped`] grants.
const CAP: usize = 1 << 30;

/// The system allocator, refusing any request above [`CAP`] bytes.
struct Capped;

// SAFETY: every call is forwarded to `System` unchanged, or answered
// with null, which `GlobalAlloc` allows for any request it refuses.
unsafe impl GlobalAlloc for Capped {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > CAP {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller's contract for `layout` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() > CAP {
            return std::ptr::null_mut();
        }
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > CAP {
            return std::ptr::null_mut();
        }
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static CAPPED: Capped = Capped;

#[test]
fn a_row_count_the_heap_refuses_is_an_overflow_error() {
    for rows in ["4294967295 1 0", "4294967295 1 1\n4294967295 1 2.5"] {
        let src = format!("%%MatrixMarket matrix coordinate real general\n{rows}\n");
        let err = sparse::io::read_matrix_market::<f64, _>(src.as_bytes()).unwrap_err();
        assert!(matches!(err, SparseError::Overflow(_)), "{err}");
    }
    // The same path still builds a matrix whose row arrays fit.
    let src = "%%MatrixMarket matrix coordinate real general\n1000000 1 1\n1000000 1 2.5\n";
    let m: Csr<f64> = sparse::io::read_matrix_market(src.as_bytes()).unwrap();
    assert_eq!((m.rows(), m.nnz()), (1_000_000, 1));
}
