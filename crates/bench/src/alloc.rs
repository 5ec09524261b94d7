//! A counting global allocator for the zero-allocation perf gate.
//!
//! Wraps [`System`] and counts every `alloc`/`dealloc` (a `realloc` counts
//! as one of each). Install it in a binary with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: chainsformer_bench::alloc::CountingAlloc = CountingAlloc;
//! ```
//!
//! then bracket a region with [`measure`] to get the allocation delta it
//! caused, or with [`peak_bytes`] to get the most heap it held at once
//! beyond what was live on entry. The counters are process-global relaxed
//! atomics: cheap enough to leave on under a benchmark (one uncontended
//! `fetch_add` per allocator call, noise next to the allocation itself) and
//! exact on the single thread the gates run on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// [`System`] plus relaxed per-call counters.
pub struct CountingAlloc;

// SAFETY: defers every allocation verbatim to `System`; the counter updates
// are allocation-free atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        shrank(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow-in-place is still allocator traffic the pool should have
        // absorbed; book it as a free of the old block + alloc of the new.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        FREES.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        shrank(layout.size());
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocator-traffic totals at one instant (or the delta over a region).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Calls into `alloc`/`alloc_zeroed` (+1 per `realloc`).
    pub allocs: u64,
    /// Calls into `dealloc` (+1 per `realloc`).
    pub frees: u64,
    /// Bytes requested across all counted allocations.
    pub bytes: u64,
}

impl AllocCounts {
    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: AllocCounts) -> AllocCounts {
        AllocCounts {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            frees: self.frees.saturating_sub(earlier.frees),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// Snapshot of the process-wide counters.
pub fn counts() -> AllocCounts {
    AllocCounts {
        allocs: ALLOCS.load(Ordering::Relaxed),
        frees: FREES.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

/// Runs `f` and returns its result plus the allocator traffic it caused.
/// Only meaningful when [`CountingAlloc`] is the installed global allocator
/// (otherwise the delta is always zero) and no other thread allocates
/// concurrently.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, AllocCounts) {
    let before = counts();
    let out = f();
    (out, counts().since(before))
}

/// Runs `f` and returns its result plus the most heap bytes live at once
/// during it, beyond those live on entry. With the buffer pool disabled
/// (`cf_tensor::pool::set_enabled(false)`) every buffer is a fresh
/// allocation, so this is the region's peak working memory. Same caveats as
/// [`measure`].
pub fn peak_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let base = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(base))
}
