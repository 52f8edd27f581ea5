//! The process-wide allocation counter behind every "0 allocations per
//! warmed query" claim: the three overhead gates under `benches/` and
//! `tests/zero_alloc.rs` each include this file with
//! `#[path = "../support/counting_alloc.rs"] mod counting_alloc;` (a
//! `#[global_allocator]` is per binary, so it cannot live in the library).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System` plus a relaxed counter bump; every
// contract (layout validity, pointer provenance) is forwarded unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to `System.alloc` with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: delegates to `System.dealloc`; `ptr` came from this allocator.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: delegates to `System.realloc` with the caller's layout/size.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations (and reallocations) made by every thread of the process
/// while `f` ran.
pub fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}
