//! A counting global allocator for the `alloc.*` counters.
//!
//! The binary installs [`CountingAlloc`] as its global allocator. It
//! forwards to the system allocator and, while counting is switched on,
//! adds every allocation and its size to two process-wide counters. With
//! counting off it costs one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper that counts allocations while switched on.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// atomics and never touch the allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

fn note(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

/// Allocation count and bytes requested between [`AllocWindow::start`]
/// and [`AllocWindow::stop`]. Windows must not nest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocWindow {
    /// Allocations (`alloc`, `alloc_zeroed` and `realloc` calls).
    pub count: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl AllocWindow {
    /// Zero the counters and start counting.
    pub fn start() {
        COUNT.store(0, Ordering::Relaxed);
        BYTES.store(0, Ordering::Relaxed);
        COUNTING.store(true, Ordering::Relaxed);
    }

    /// Stop counting and return what was counted. Both fields are 0 when
    /// the running binary did not install [`CountingAlloc`].
    pub fn stop() -> AllocWindow {
        COUNTING.store(false, Ordering::Relaxed);
        AllocWindow {
            count: COUNT.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }
}
