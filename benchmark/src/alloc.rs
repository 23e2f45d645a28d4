//! The benchmark's own counting allocator. Only `bench-traced` installs
//! it, so the end-to-end repetitions run on the stock allocator;
//! `simkit::alloc` cannot serve here because it exposes live/peak bytes
//! but not call counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

// Statistics only: nothing is published through these, so `Relaxed`.
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

/// A plain load and store, not a locked read-modify-write: at ~20
/// allocations per event, three `fetch_add`s apiece put the traced run at
/// 1.04–1.11× the untraced wall; this way it is within noise of 1. Exact
/// on the one thread a traced repetition runs; concurrent allocators
/// could lose counts, never more than that.
fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Relaxed) + by, Relaxed);
}

/// Counts allocation calls and bytes in front of the system allocator.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&CALLS, 1);
        bump(&BYTES, layout.size() as u64);
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREED, layout.size() as u64);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&CALLS, 1);
        bump(&BYTES, new_size as u64);
        bump(&FREED, layout.size() as u64);
        // SAFETY: forwarded with the caller's pointer and layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of the counters.
#[derive(Clone, Copy, Default)]
pub struct AllocStats {
    pub calls: u64,
    pub bytes: u64,
    pub live_bytes: u64,
}

/// Current counters; all zero in a binary that did not install
/// [`CountingAlloc`].
pub fn stats() -> AllocStats {
    let (bytes, freed) = (BYTES.load(Relaxed), FREED.load(Relaxed));
    AllocStats {
        calls: CALLS.load(Relaxed),
        bytes,
        live_bytes: bytes.saturating_sub(freed),
    }
}
