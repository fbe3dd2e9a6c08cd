//! Bench-only allocation counting (`--features bench-alloc`).
//!
//! Wraps the system allocator in a counting shim installed as the global
//! allocator, so `tests/alloc_budget.rs` can hold each engine probe to its
//! allocation budget and `parflow-perf`'s traced run can report
//! allocations per round. Compiled out entirely (and
//! [`alloc_count`] returns `None`) unless the `bench-alloc` feature is on:
//! production and test builds keep the untouched system allocator.
//!
//! The counter tracks allocation *events* (`alloc` + `realloc` calls), not
//! bytes: the arena work in PR 4 is about eliminating per-job/per-round
//! allocator round-trips, and an event count is the direct measure of
//! that. Counting uses one relaxed atomic increment per event.

// This is the only module in the workspace allowed to contain `unsafe`
// (every other crate is `#![forbid(unsafe_code)]`); inside it, every
// unsafe operation must sit in an explicit `unsafe {}` block with its own
// SAFETY justification — an `unsafe fn` signature alone is not enough.
#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(feature = "bench-alloc")]
mod imp {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

    struct CountingAlloc;

    // SAFETY: defers every operation to `System`, which upholds the
    // GlobalAlloc contract; the counter side effect does not allocate
    // (a relaxed atomic increment), so no reentrancy into the allocator.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
            // SAFETY: `layout` is forwarded unchanged from our caller, who
            // guarantees it is non-zero-sized per the GlobalAlloc contract.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr`/`layout` are forwarded unchanged; our caller
            // guarantees `ptr` came from this allocator with this layout,
            // and every path of ours returns `System`-owned blocks.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
            // SAFETY: arguments forwarded unchanged under the same caller
            // contract; the block being resized is `System`-owned.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    pub fn alloc_count() -> Option<u64> {
        Some(ALLOC_EVENTS.load(Ordering::Relaxed))
    }
}

#[cfg(not(feature = "bench-alloc"))]
mod imp {
    pub fn alloc_count() -> Option<u64> {
        None
    }
}

/// Allocation events (alloc + realloc calls) observed process-wide so far,
/// or `None` when the `bench-alloc` feature is off. Callers snapshot
/// before/after a region and subtract; the count is process-wide, so keep
/// other threads quiet across the probed region for meaningful deltas.
pub fn alloc_count() -> Option<u64> {
    imp::alloc_count()
}

#[cfg(all(test, feature = "bench-alloc"))]
mod tests {
    use super::alloc_count;

    #[test]
    fn counter_advances_on_allocation() {
        let before = alloc_count().unwrap();
        let v: Vec<u64> = Vec::with_capacity(32);
        std::hint::black_box(&v);
        drop(v);
        let after = alloc_count().unwrap();
        assert!(after > before, "allocation events must be counted");
    }
}

#[cfg(all(test, not(feature = "bench-alloc")))]
mod tests {
    use super::alloc_count;

    #[test]
    fn disabled_probe_reports_none() {
        assert!(alloc_count().is_none());
    }
}
