//! A counting global allocator, local to the benchmark binary.
//!
//! Live bytes and their high-water mark are process-wide (they feed
//! `peak_heap_mb`, and the service's workers allocate on their own
//! threads). Allocation and byte counts are per thread: a span of the
//! single-threaded traced run then counts exactly its own work, and a unit
//! test can check them while other test threads allocate.
//!
//! Every counter is a relaxed atomic or a thread-local cell: the counters
//! publish no other data, and the allocator must never lock or allocate.
//! Each thread adds its net change in live bytes to the shared counter only
//! once the change exceeds [`BATCH`] bytes: updating a shared counter on
//! every allocation made the workers contend for its cache line and halved
//! the throughput of allocation-heavy workloads. The live and peak figures
//! are therefore exact to within [`BATCH`] bytes per thread, and a thread
//! that ends takes its unpublished count with it: compare the peak with
//! the live bytes at a known point, not across threads' lifetimes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

/// The system allocator plus counters.
pub struct Counting;

/// Net bytes a thread allocates or frees before it updates [`LIVE`].
pub const BATCH: isize = 64 << 10;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static UNPUBLISHED: Cell<isize> = const { Cell::new(0) };
}

/// Allocations and bytes requested so far on this thread. A `realloc`
/// counts as one allocation of its new size.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Count {
    /// Number of allocations.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl Count {
    /// The work done since `earlier` was taken.
    #[must_use]
    pub fn since(self, earlier: Count) -> Count {
        Count {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// This thread's counters.
#[must_use]
pub fn thread_count() -> Count {
    Count {
        allocs: ALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}

/// The high-water mark of the process's live heap bytes since the last
/// [`reset_peak`].
#[must_use]
pub fn peak_bytes() -> usize {
    usize::try_from(PEAK.load(Relaxed)).unwrap_or(0)
}

/// Restart the high-water mark from the current live bytes.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Record a change of `delta` live bytes on this thread.
fn on_change(delta: isize) {
    // `try_with` cannot fail for a const-initialised cell without a
    // destructor, but an allocator must not panic, so ignore the result.
    let _ = UNPUBLISHED.try_with(|c| {
        let d = c.get() + delta;
        if d.abs() < BATCH {
            c.set(d);
        } else {
            c.set(0);
            let live = LIVE.fetch_add(d, Relaxed) + d;
            PEAK.fetch_max(live, Relaxed);
        }
    });
}

fn on_alloc(size: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
    on_change(size.cast_signed());
}

fn on_free(size: usize) {
    on_change(-size.cast_signed());
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counting
// around it neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        on_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's `ptr`/`layout`/`new_size` obligations pass
        // through unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_known_vec_growth_exactly() {
        let before = thread_count();
        let mut v: Vec<u64> = Vec::with_capacity(10);
        v.extend(0..10);
        v.reserve_exact(30);
        v.extend(10..40);
        let grown = thread_count().since(before);
        assert_eq!(v.len(), 40);
        assert_eq!(v.capacity(), 40);
        // One allocation of 10 × 8 bytes, one reallocation to 40 × 8.
        assert_eq!(
            grown,
            Count {
                allocs: 2,
                bytes: 80 + 320
            }
        );
    }

    #[test]
    fn peak_covers_live_memory() {
        // Other test threads may reset the mark concurrently; a reset
        // still leaves it at the live bytes, which include `big` (less at
        // most `BATCH` unpublished bytes per thread).
        let big = vec![1u8; 8 << 20];
        reset_peak();
        assert!(peak_bytes() >= big.len() / 2);
    }
}
