//! A counting global allocator for precise bytes accounting.
//!
//! Coarse RSS (what the OS reports) mixes the allocator's retained pages,
//! fragmentation, and code/stack into one number; for a "bytes per device"
//! metric we want *live heap bytes* as the program sees them. [`CountingAlloc`]
//! wraps the system allocator and keeps a live-bytes counter plus a
//! high-water mark, with relaxed atomics so the overhead is one add per
//! alloc/dealloc. It also counts allocation *calls* (`alloc` and `realloc`
//! alike), the exact figure an allocations-per-event budget is held to.
//!
//! The type is always compiled; installing it is the binary's choice:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: simkit::alloc::CountingAlloc = simkit::alloc::CountingAlloc;
//! ```
//!
//! The `scale` bench binary and the allocation gates' test binaries
//! (`crates/bench/tests/`) install it; every other build keeps the stock
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// Wraps [`System`] and counts live heap bytes. See the module docs.
pub struct CountingAlloc;

impl CountingAlloc {
    fn on_alloc(size: usize) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        // The max update can race between threads; the mark may then read a
        // hair low, which is fine for a high-water statistic.
        if live > PEAK.load(Ordering::Relaxed) {
            PEAK.store(live, Ordering::Relaxed);
        }
    }

    fn on_dealloc(size: usize) {
        LIVE.fetch_sub(size, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            Self::on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        Self::on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            Self::on_dealloc(layout.size());
            Self::on_alloc(new_size);
        }
        new_ptr
    }
}

/// Heap bytes currently allocated (zero unless a [`CountingAlloc`] is
/// installed as the global allocator).
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Allocation calls (`alloc` + `realloc`) since process start (zero unless
/// a [`CountingAlloc`] is installed). Take the difference around a phase.
pub fn alloc_calls() -> usize {
    CALLS.load(Ordering::Relaxed)
}

/// High-water mark of [`live_bytes`] since process start.
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}
