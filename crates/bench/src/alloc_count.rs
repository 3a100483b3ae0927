//! A counting global allocator. The claim that steady-state operations
//! allocate nothing needs a real counter, not inference: `wall` reports
//! allocations per sector operation, `server` per request, and the
//! `alloc_regression` test pins the steady-state paths at zero.
//!
//! Each of them includes this file as a module (`#[path]`) and installs
//! [`Counting`] as its `#[global_allocator]`; no library the system links
//! includes it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation events (alloc, realloc and alloc_zeroed) so far.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Heap allocation events so far, process-wide.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// [`System`], plus a relaxed counter bump per allocation.
pub struct Counting;

// The one opt-out from the workspace's `unsafe_code` deny outside the
// repository benchmark, which keeps a copy of its own.
// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter bump has no
// effect on the returned memory.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}
