//! Benchmark-owned counting allocator: allocations and bytes requested
//! while switched on (the run phase of a traced child). Off, it costs one
//! relaxed load per allocation, so untraced runs measure the system
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// The process-wide allocator of every `bgq-perf` binary and test.
pub struct Counting;

// Statistics only: nothing is published through these, so `Relaxed`.
static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(bytes: usize) {
    if ON.load(Relaxed) {
        // A load and a store, not a locked add: the only processes that
        // switch counting on (the children) are single-threaded, and two
        // locked adds per allocation cost the allocation-heavy workloads
        // several percent of their run time.
        COUNT.store(COUNT.load(Relaxed) + 1, Relaxed);
        BYTES.store(BYTES.load(Relaxed) + bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Zero the counters and start counting.
pub fn start() {
    COUNT.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    ON.store(true, Relaxed);
}

/// Stop counting; returns `(allocations, bytes requested)` since [`start`].
pub fn stop() -> (u64, u64) {
    ON.store(false, Relaxed);
    (COUNT.load(Relaxed), BYTES.load(Relaxed))
}
