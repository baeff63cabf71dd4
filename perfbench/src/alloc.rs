//! A counting global allocator, installed only by the traced binary.
//!
//! The counters are process-wide; the traced pass runs on one thread, so
//! a [`count`] around a call sees exactly that call's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator and counts every allocation and
/// reallocation (a reallocation counts as one allocation of its new
/// size). The counters publish no other data, so `Relaxed` suffices.
pub struct CountingAlloc;

fn note(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `layout` carry over unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` come from `System` as for `dealloc`, and
        // the caller guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and bytes allocated so far in this process.
fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Run `f`, returning its result with the allocations and bytes it made.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = snapshot();
    let out = f();
    let (a1, b1) = snapshot();
    (out, a1 - a0, b1 - b0)
}

/// Whether the counting allocator is the process's global allocator.
pub fn installed() -> bool {
    let (_, n, _) = count(|| std::hint::black_box(Vec::<u8>::with_capacity(64)));
    n > 0
}
