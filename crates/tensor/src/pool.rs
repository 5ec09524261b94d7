//! Size-bucketed buffer pool backing every tensor and scratch allocation,
//! plus the in-tree [`ThreadPool`] that parallelizes the hot kernels.
//!
//! The tape arena gives buffers a shared lifetime: every op output, gradient
//! slot and packing panel allocated during a step dies together when the tape
//! (or [`crate::InferCtx`]) is reset. Instead of returning those `Vec`s to the
//! global allocator and immediately re-requesting identical sizes on the next
//! step, this module keeps per-thread free-lists bucketed by power-of-two
//! capacity. After one warm-up step the steady state performs **zero** heap
//! allocations in the numeric substrate (see `DESIGN.md` §10).
//!
//! Recycling is bitwise-safe by construction: a pooled buffer is never
//! observable with stale contents. [`take_zeroed`] clears and `resize(n, 0)`s
//! the vector (producing exactly the bytes of `vec![0; n]`) and [`take`]
//! returns a zero-length vector whose contents are only ever `extend`ed with
//! freshly computed values.
//!
//! The pool is thread-local (the tape itself is `!Send`), so no locking is
//! involved; each serve worker warms its own pool.

use std::cell::RefCell;

/// Number of power-of-two size classes. Class `c` holds vectors whose
/// capacity lies in `[2^c, 2^(c+1))`; class 27 covers 512 MiB of `f32`s,
/// far beyond anything the workloads allocate.
const NUM_CLASSES: usize = 28;

/// Maximum retained vectors per size class (per thread). A batched serve
/// context retires a couple thousand buffers at once when it clears —
/// heavily concentrated in the tiny classes (per-chain scalars and `[k]`
/// vectors land together) — and any overflow here turns into one allocator
/// round-trip per step, so the cap is sized well above what one tape or one
/// serve batch of the model shapes retires at once. The byte budget below
/// is the real memory bound.
const MAX_PER_CLASS: usize = 4096;

/// Total retained bytes per element-type pool (per thread). Bounds the pool
/// the way the old `matmul_into_bt` thread-local `PACK` scratch was not.
const MAX_POOL_BYTES: usize = 64 << 20;

thread_local! {
    static F32_POOL: RefCell<Pool<f32>> = RefCell::new(Pool::new());
    static USIZE_POOL: RefCell<Pool<usize>> = RefCell::new(Pool::new());
    static I16_POOL: RefCell<Pool<i16>> = RefCell::new(Pool::new());
    static I32_POOL: RefCell<Pool<i32>> = RefCell::new(Pool::new());
}

mod sealed {
    use super::{MAX_PER_CLASS, MAX_POOL_BYTES, NUM_CLASSES};
    use std::cell::RefCell;
    use std::thread::LocalKey;

    /// Names the thread-local pool of one element type.
    pub trait HasPool: Sized + 'static {
        fn pool() -> &'static LocalKey<RefCell<Pool<Self>>>;
    }

    /// One element type's per-thread free-lists.
    pub struct Pool<T> {
        classes: Vec<Vec<Vec<T>>>,
        pub(super) bytes: usize,
        pub(super) enabled: bool,
        pub(super) hits: u64,
        pub(super) misses: u64,
    }

    impl<T: Clone + Default> Pool<T> {
        pub(super) fn new() -> Self {
            Pool {
                classes: (0..NUM_CLASSES).map(|_| Vec::new()).collect(),
                bytes: 0,
                enabled: true,
                hits: 0,
                misses: 0,
            }
        }

        /// Class that can serve requests of length `n`: every vector stored in
        /// class `c` has capacity `>= 2^c`, so serving from `ceil(log2(n))`
        /// guarantees no reallocation on `resize`/`extend` up to `n` elements.
        fn class_for_request(n: usize) -> usize {
            (usize::BITS - (n - 1).leading_zeros()) as usize
        }

        /// Class a vector of capacity `cap` is stored in: `floor(log2(cap))`.
        fn class_for_capacity(cap: usize) -> usize {
            (usize::BITS - 1 - cap.leading_zeros()) as usize
        }

        /// A vector with `len == 0` and `capacity >= n` (pooled or fresh).
        pub(super) fn take(&mut self, n: usize) -> Vec<T> {
            if n == 0 {
                return Vec::new();
            }
            if self.enabled {
                let class = Self::class_for_request(n);
                if class < NUM_CLASSES {
                    if let Some(mut v) = self.classes[class].pop() {
                        self.bytes -= v.capacity() * std::mem::size_of::<T>();
                        self.hits += 1;
                        v.clear();
                        return v;
                    }
                    self.misses += 1;
                    // Allocate the full class width so the buffer lands back in
                    // `class` on recycle and serves every future request of this
                    // size without reallocating.
                    return Vec::with_capacity(n.next_power_of_two());
                }
            }
            self.misses += 1;
            Vec::with_capacity(n)
        }

        pub(super) fn recycle(&mut self, v: Vec<T>) {
            let cap = v.capacity();
            if !self.enabled || cap == 0 {
                return;
            }
            let class = Self::class_for_capacity(cap);
            let bytes = cap * std::mem::size_of::<T>();
            if class >= NUM_CLASSES
                || self.classes[class].len() >= MAX_PER_CLASS
                || self.bytes + bytes > MAX_POOL_BYTES
            {
                return; // over budget: let the allocator have it back
            }
            self.bytes += bytes;
            self.classes[class].push(v);
        }
    }
}

use sealed::Pool;

/// An element type with a thread-local pool of its own: `f32` (tensors and
/// scratch), `usize` (indices), `i16` and `i32` (int8-GEMM panels and
/// accumulators). Sealed: the set of pools is fixed.
pub trait Pooled: sealed::HasPool + Copy + Default {}

macro_rules! pooled {
    ($($t:ty => $key:ident),*) => {$(
        impl sealed::HasPool for $t {
            fn pool() -> &'static std::thread::LocalKey<RefCell<Pool<$t>>> {
                &$key
            }
        }
        impl Pooled for $t {}
    )*};
}

pooled!(f32 => F32_POOL, usize => USIZE_POOL, i16 => I16_POOL, i32 => I32_POOL);

/// Pool hit/miss counters for one thread (used by benches and the zero-alloc
/// gate to prove the steady state never touches the allocator).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from a free-list.
    pub hits: u64,
    /// Requests that had to allocate (warm-up or pool disabled).
    pub misses: u64,
    /// Bytes currently retained by the `f32` pool.
    pub retained_bytes: usize,
}

/// Snapshot of this thread's `f32`-pool counters.
pub fn stats() -> PoolStats {
    F32_POOL.with(|p| {
        let p = p.borrow();
        PoolStats {
            hits: p.hits,
            misses: p.misses,
            retained_bytes: p.bytes,
        }
    })
}

/// Resets this thread's hit/miss counters (retained buffers are kept).
pub fn reset_stats() {
    fn reset<T: Pooled>() {
        T::pool().with(|p| {
            let mut p = p.borrow_mut();
            p.hits = 0;
            p.misses = 0;
        });
    }
    reset::<f32>();
    reset::<usize>();
    reset::<i16>();
    reset::<i32>();
}

/// Enables or disables pooling on this thread, returning the previous state.
///
/// While disabled, takes allocate fresh exact-size vectors and recycles drop
/// their argument — the pre-pool behaviour. Tests use this to prove the
/// pooled and fresh paths are bit-identical; the bench uses it for the
/// unpooled `train_step` baseline arm.
pub fn set_enabled(enabled: bool) -> bool {
    fn set<T: Pooled>(enabled: bool) -> bool {
        T::pool().with(|p| std::mem::replace(&mut p.borrow_mut().enabled, enabled))
    }
    let prev = set::<f32>(enabled);
    set::<usize>(enabled);
    set::<i16>(enabled);
    set::<i32>(enabled);
    prev
}

/// An empty `Vec<T>` with capacity for at least `n` elements. Extend it
/// with exactly the values you would have collected into a fresh vector.
pub fn take<T: Pooled>(n: usize) -> Vec<T> {
    T::pool().with(|p| p.borrow_mut().take(n))
}

/// A `Vec<T>` of length `n` holding `T::default()` (all zeros) — bitwise
/// identical to `vec![0; n]`.
pub fn take_zeroed<T: Pooled>(n: usize) -> Vec<T> {
    take_filled(n, T::default())
}

/// A `Vec<T>` of length `n` filled with `x` — bitwise `vec![x; n]`.
pub fn take_filled<T: Pooled>(n: usize, x: T) -> Vec<T> {
    let mut v = take(n);
    v.resize(n, x);
    v
}

/// Returns a buffer to this thread's pool of its element type. `Tensor::drop`
/// and [`Scratch`] call it; call it directly for raw vectors obtained from
/// [`take`].
pub fn recycle<T: Pooled>(v: Vec<T>) {
    // `try_with` so drops during thread teardown degrade to a plain free.
    let _ = T::pool().try_with(|p| p.borrow_mut().recycle(v));
}

/// RAII scratch buffer: recycles itself into its element type's pool on
/// drop. Holds kernel packing panels, backward-pass scratch that is not a
/// [`crate::Tensor`] (tensors recycle through their own `Drop`), int8-GEMM
/// panels and accumulators, and index lists.
#[derive(Debug, Default)]
pub struct Scratch<T: Pooled>(pub Vec<T>);

impl<T: Pooled> Scratch<T> {
    /// Empty scratch with capacity for at least `n` elements.
    pub fn with_capacity(n: usize) -> Self {
        Scratch(take(n))
    }

    /// Zero-filled scratch of length `n` (bitwise `vec![0; n]`).
    pub fn zeroed(n: usize) -> Self {
        Scratch(take_zeroed(n))
    }

    /// Pooled buffer holding `items` in order.
    pub fn collect(items: impl ExactSizeIterator<Item = T>) -> Self {
        let mut v = take(items.len());
        v.extend(items);
        Scratch(v)
    }
}

impl<T: Pooled> Drop for Scratch<T> {
    fn drop(&mut self) {
        recycle(std::mem::take(&mut self.0));
    }
}

impl<T: Pooled> std::ops::Deref for Scratch<T> {
    type Target = Vec<T>;
    fn deref(&self) -> &Vec<T> {
        &self.0
    }
}

impl<T: Pooled> std::ops::DerefMut for Scratch<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.0
    }
}

// ---------------------------------------------------------------------------
// Thread pool
// ---------------------------------------------------------------------------
//
// A small dependency-free worker pool with a scoped `run(n_items, |range|)`
// API. Work is split by *static range partition*: slice `s` of `T` gets
// `s*n/T .. (s+1)*n/T`, so the assignment depends only on `(n_items, T)` and
// never on timing. Determinism does not rest on the partition, though — the
// kernels routed through the pool only ever split *independent* dimensions
// (output rows, attention bands, flat elements, batch indices), so every
// element's float-op sequence is identical no matter which thread computes
// it or how many threads exist. See `DESIGN.md` §12.
//
// Workers are persistent (spawned once, parked on a condvar between jobs),
// which keeps their thread-local buffer pools warm: after one warm-up step a
// parallel kernel performs zero heap allocations, same as the serial path.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Errors surfaced by [`ThreadPool::run`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PoolError {
    /// `run` was called from inside a `run` closure (on the caller thread or
    /// on a pool worker). Nested jobs would deadlock a one-job-at-a-time
    /// pool, so they are rejected with this typed error instead;
    /// [`parallel_for`] falls back to the serial path in that case.
    Nested,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Nested => write!(f, "nested ThreadPool::run is not supported"),
        }
    }
}

impl std::error::Error for PoolError {}

/// One installed job: a lifetime-erased pointer to the caller's closure plus
/// the partition inputs. The caller blocks inside `run` until every slice
/// completes, so the pointer never outlives the borrow it was made from.
struct Job {
    f: *const (dyn Fn(Range<usize>) + Sync),
    n_items: usize,
    slices: usize,
}

// SAFETY: the closure behind `f` is `Sync` (shared `&` calls from many
// threads are fine) and `run` keeps the referent alive until the job retires.
unsafe impl Send for Job {}

struct JobState {
    /// Bumped once per installed job; workers detect new work by comparing
    /// against the last generation they executed.
    generation: u64,
    job: Option<Job>,
    /// Worker slices still running for the current generation.
    pending: usize,
    /// First worker panic of the current generation, if any.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<JobState>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The caller parks here while worker slices drain.
    done_cv: Condvar,
}

thread_local! {
    /// Set while this thread is executing a `run` closure (caller or worker).
    static IN_RUN: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Clears `IN_RUN` even if the guarded closure panics.
struct InRunGuard;

impl InRunGuard {
    fn enter() -> Option<InRunGuard> {
        IN_RUN.with(|f| {
            if f.get() {
                None
            } else {
                f.set(true);
                Some(InRunGuard)
            }
        })
    }
}

impl Drop for InRunGuard {
    fn drop(&mut self) {
        let _ = IN_RUN.try_with(|f| f.set(false));
    }
}

/// Static range partition: slice `s` of `slices` over `n` items. Public so
/// callers that shard work by a *fixed* count (e.g. the data-parallel
/// trainer) partition exactly like the pool does.
pub fn slice_range(n: usize, slices: usize, s: usize) -> Range<usize> {
    (s * n / slices)..((s + 1) * n / slices)
}

/// A fixed set of persistent worker threads executing range-partitioned jobs.
///
/// `ThreadPool::new(t)` spawns `t - 1` workers; the calling thread always
/// executes slice 0 itself, so a 1-thread pool has no workers and
/// [`ThreadPool::run`] degenerates to a direct closure call with zero
/// synchronization. Workers park on a condvar between jobs and are joined on
/// drop. One job runs at a time; concurrent `run` calls from different
/// threads serialize on an internal lock, and nested calls return
/// [`PoolError::Nested`].
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Serializes concurrent `run` callers (distinct from nesting).
    run_lock: Mutex<()>,
    threads: usize,
}

/// Ignore mutex poisoning: closures never panic while the state lock is held
/// (worker bodies run under `catch_unwind`), so a poisoned lock can only mean
/// a panic in this module's own bookkeeping — the data is still consistent.
fn lock(m: &Mutex<JobState>) -> MutexGuard<'_, JobState> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl ThreadPool {
    /// A pool that executes jobs on `threads` threads total (the caller plus
    /// `threads - 1` spawned workers). `threads` is clamped to at least 1.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(JobState {
                generation: 0,
                job: None,
                pending: 0,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|slice| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cf-pool-{slice}"))
                    .spawn(move || worker_loop(&shared, slice))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            run_lock: Mutex::new(()),
            threads,
        }
    }

    /// Total threads participating in each job (including the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits `0..n_items` into one contiguous range per thread and runs `f`
    /// on each range concurrently, returning once every range completes.
    ///
    /// Slice 0 runs on the calling thread; a 1-thread pool therefore calls
    /// `f(0..n_items)` directly with no synchronization at all. A panic in
    /// any slice is re-raised on the caller *after* all other slices finish
    /// (so no closure borrow is outstanding), and the pool remains usable
    /// for subsequent jobs. Steady-state `run` performs no heap allocation.
    pub fn run<F>(&self, n_items: usize, f: F) -> Result<(), PoolError>
    where
        F: Fn(Range<usize>) + Sync,
    {
        let guard = InRunGuard::enter().ok_or(PoolError::Nested)?;
        if self.threads == 1 || n_items == 0 {
            f(0..n_items);
            drop(guard);
            return Ok(());
        }
        let _serialize = self.run_lock.lock().unwrap_or_else(|e| e.into_inner());
        let f_ref: &(dyn Fn(Range<usize>) + Sync) = &f;
        // SAFETY: erases the borrow lifetime; `run` blocks until every slice
        // retires, so workers never observe a dangling pointer.
        let f_ptr: *const (dyn Fn(Range<usize>) + Sync) = unsafe { std::mem::transmute(f_ref) };
        {
            let mut st = lock(&self.shared.state);
            debug_assert!(st.job.is_none(), "run_lock must serialize jobs");
            st.generation += 1;
            st.pending = self.threads - 1;
            st.panic = None;
            st.job = Some(Job {
                f: f_ptr,
                n_items,
                slices: self.threads,
            });
            self.shared.work_cv.notify_all();
        }
        // Caller executes slice 0 while workers run slices 1..threads.
        let own = catch_unwind(AssertUnwindSafe(|| {
            f(slice_range(n_items, self.threads, 0))
        }));
        let worker_panic = {
            let mut st = lock(&self.shared.state);
            while st.pending > 0 {
                st = self
                    .shared
                    .done_cv
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
            st.job = None;
            st.panic.take()
        };
        drop(guard);
        if let Err(payload) = own {
            std::panic::resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            std::panic::resume_unwind(payload);
        }
        Ok(())
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, slice: usize) {
    let mut seen = 0u64;
    loop {
        let (f, range) = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    break;
                }
                st = shared.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            seen = st.generation;
            let job = st.job.as_ref().expect("generation bumped without a job");
            (job.f, slice_range(job.n_items, job.slices, slice))
        };
        // Execute outside the lock; flag the thread so kernels called from
        // inside the closure take their serial path instead of re-entering.
        let result = IN_RUN.with(|flag| {
            flag.set(true);
            let r = catch_unwind(AssertUnwindSafe(|| unsafe { (*f)(range) }));
            flag.set(false);
            r
        });
        let mut st = lock(&shared.state);
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.pending -= 1;
        if st.pending == 0 {
            shared.done_cv.notify_all();
        }
    }
}

// --- Global pool --------------------------------------------------------

/// Configured global thread count; 0 means "not yet initialized" (first use
/// reads `CF_THREADS`, falling back to the host parallelism).
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

/// Lazily built global pool shared by every parallel kernel.
static GLOBAL: Mutex<Option<Arc<ThreadPool>>> = Mutex::new(None);

fn default_threads() -> usize {
    match std::env::var("CF_THREADS") {
        Ok(s) => s.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    }
}

/// The global worker-thread count used by parallel kernels. Initialized on
/// first use from the `CF_THREADS` environment variable (host parallelism
/// when unset); change it at runtime with [`set_threads`].
pub fn threads() -> usize {
    let t = CONFIGURED.load(Ordering::Relaxed);
    if t != 0 {
        return t;
    }
    let t = default_threads();
    // Racing initializers compute the same value (env is stable), so a plain
    // store is fine.
    CONFIGURED.store(t, Ordering::Relaxed);
    t
}

/// Reconfigures the global pool to `threads` threads (clamped to ≥ 1). The
/// previous worker set is joined once every outstanding job completes; the
/// new pool is built lazily on the next parallel kernel. Thread count never
/// affects results — every kernel is bitwise invariant across counts — so
/// this is purely a performance knob (`--threads` / `CF_THREADS`).
pub fn set_threads(threads: usize) {
    let t = threads.max(1);
    CONFIGURED.store(t, Ordering::Relaxed);
    let mut g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    *g = None; // rebuilt lazily at the new width
}

fn global_pool() -> Option<Arc<ThreadPool>> {
    let t = threads();
    if t <= 1 {
        return None;
    }
    let mut g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    match g.as_ref() {
        Some(p) if p.threads() == t => Some(Arc::clone(p)),
        _ => {
            let p = Arc::new(ThreadPool::new(t));
            *g = Some(Arc::clone(&p));
            Some(p)
        }
    }
}

/// Runs `f` over `0..n_items` on the global pool, falling back to a direct
/// serial call when the pool is single-threaded, the item count is trivial,
/// or the caller is already inside a pool job (nested parallelism runs
/// serially by design). The serial and parallel paths execute the exact same
/// per-item work, so results are bitwise identical either way.
pub fn parallel_for<F>(n_items: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if n_items > 1 && !IN_RUN.with(std::cell::Cell::get) {
        if let Some(pool) = global_pool() {
            match pool.run(n_items, &f) {
                Ok(()) => return,
                Err(PoolError::Nested) => {} // raced a nested entry: serial
            }
        }
    }
    f(0..n_items);
}

/// Lifetime-erased shared-mutable view of a slice, for kernels whose
/// parallel slices write *disjoint* (but possibly interleaved) elements of
/// one output buffer — e.g. per-head attention bands that share rows.
///
/// # Safety contract
///
/// The creator must guarantee that concurrent [`Self::get`] calls from
/// different pool slices never touch the same index, and that no access
/// outlives the borrow `new` was given (the scoped [`ThreadPool::run`] API
/// enforces the latter structurally).
pub struct SharedMut<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: dereferencing is gated behind `unsafe fn get` whose contract
// requires disjoint element access per thread.
unsafe impl<T: Send> Sync for SharedMut<T> {}
unsafe impl<T: Send> Send for SharedMut<T> {}

impl<T> SharedMut<T> {
    /// Wraps a mutable slice for disjoint multi-threaded writes.
    pub fn new(s: &mut [T]) -> Self {
        SharedMut {
            ptr: s.as_mut_ptr(),
            len: s.len(),
        }
    }

    /// Mutable subslice `start..start + len`.
    ///
    /// # Safety
    ///
    /// Caller must ensure no concurrently outstanding `get`/`get_all` range
    /// overlaps this one, and that the underlying borrow is still live.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get(&self, start: usize, len: usize) -> &mut [T] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }

    /// The whole buffer.
    ///
    /// # Safety
    ///
    /// Same disjointness contract as [`Self::get`]: the thread may only
    /// write elements no other thread touches while the view is shared.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_all(&self) -> &mut [T] {
        std::slice::from_raw_parts_mut(self.ptr, self.len)
    }
}

#[cfg(test)]
mod pool_thread_tests {
    use super::*;

    #[test]
    fn single_thread_pool_runs_on_caller() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let caller = std::thread::current().id();
        let hits = AtomicUsize::new(0);
        pool.run(5, |r| {
            assert_eq!(std::thread::current().id(), caller);
            hits.fetch_add(r.len(), Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn ranges_cover_exactly_once_at_every_width() {
        for threads in [1usize, 2, 3, 4, 8] {
            for n in [0usize, 1, 2, 3, 7, 8, 64, 1000] {
                let pool = ThreadPool::new(threads);
                let touched: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                pool.run(n, |r| {
                    for i in r {
                        touched[i].fetch_add(1, Ordering::Relaxed);
                    }
                })
                .unwrap();
                for (i, t) in touched.iter().enumerate() {
                    assert_eq!(
                        t.load(Ordering::Relaxed),
                        1,
                        "item {i} of {n} at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn nested_run_is_rejected_not_deadlocked() {
        let pool = ThreadPool::new(4);
        let saw_nested = AtomicUsize::new(0);
        pool.run(4, |_r| {
            // Any nested attempt — same pool or a different one — errors.
            match pool.run(2, |_| unreachable!("nested job must not execute")) {
                Err(PoolError::Nested) => {
                    saw_nested.fetch_add(1, Ordering::Relaxed);
                }
                Ok(()) => panic!("nested run unexpectedly accepted"),
            }
        })
        .unwrap();
        assert_eq!(saw_nested.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn worker_panic_propagates_without_poisoning() {
        let pool = ThreadPool::new(4);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |r| {
                if r.contains(&5) {
                    panic!("slice bomb");
                }
            })
        }));
        assert!(caught.is_err(), "panic must reach the caller");
        // Pool still works for the next job.
        let count = AtomicUsize::new(0);
        pool.run(8, |r| {
            count.fetch_add(r.len(), Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn ten_thousand_tiny_jobs_complete() {
        let pool = ThreadPool::new(4);
        let total = AtomicUsize::new(0);
        for _ in 0..10_000 {
            pool.run(3, |r| {
                total.fetch_add(r.len(), Ordering::Relaxed);
            })
            .unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 30_000);
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = ThreadPool::new(4);
        pool.run(4, |_| {}).unwrap();
        let weak = Arc::downgrade(&pool.shared);
        drop(pool); // joins; workers release their Arc<Shared> clones
        assert_eq!(
            weak.strong_count(),
            0,
            "a worker thread outlived the pool drop"
        );
    }

    #[test]
    fn concurrent_runs_from_two_threads_serialize() {
        let pool = Arc::new(ThreadPool::new(2));
        let total = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        pool.run(4, |r| {
                            total.fetch_add(r.len(), Ordering::Relaxed);
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 4_000);
    }

    #[test]
    fn parallel_for_matches_serial_bitwise() {
        // The global pool may be at any width here; parallel_for must
        // produce the same bytes as a plain serial loop regardless.
        let n = 1023usize;
        let src: Vec<f32> = (0..n).map(|i| (i as f32) * 0.37 - 11.0).collect();
        let mut serial = vec![0.0f32; n];
        for i in 0..n {
            serial[i] = src[i] * 1.25 + 0.5;
        }
        let mut par = vec![0.0f32; n];
        let out = SharedMut::new(&mut par);
        parallel_for(n, |r| {
            // SAFETY: ranges from the partition are disjoint.
            let dst = unsafe { out.get(r.start, r.len()) };
            for (j, i) in r.enumerate() {
                dst[j] = src[i] * 1.25 + 0.5;
            }
        });
        for i in 0..n {
            assert_eq!(par[i].to_bits(), serial[i].to_bits());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_zeroed_matches_fresh_vec_bitwise() {
        // Dirty the pool with a recognizable pattern, then prove a zeroed
        // take cannot observe it.
        let mut v = take::<f32>(100);
        v.resize(100, f32::NAN);
        recycle(v);
        let z = take_zeroed::<f32>(100);
        let fresh = vec![0.0f32; 100];
        assert_eq!(z.len(), fresh.len());
        for (a, b) in z.iter().zip(&fresh) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn steady_state_hits_after_warm_up() {
        reset_stats();
        for _ in 0..3 {
            let v = take_zeroed::<f32>(1000);
            recycle(v);
        }
        let s = stats();
        assert!(s.hits >= 2, "expected pool hits, got {s:?}");
        assert!(s.misses <= 1, "expected one warm-up miss, got {s:?}");
    }

    #[test]
    fn served_capacity_always_fits_request() {
        // A recycled odd-capacity vector must never be served to a request
        // it cannot hold without reallocating.
        recycle(Vec::<f32>::with_capacity(100)); // class 6 (64..128)
        let v = take::<f32>(100); // requests class 7
        assert!(v.capacity() >= 100);
        let w = take::<f32>(65); // class 7 again; the cap-100 vec is in class 6
        assert!(w.capacity() >= 65);
    }

    #[test]
    fn disabled_pool_allocates_fresh() {
        let prev = set_enabled(false);
        let v = take_zeroed::<f32>(64);
        recycle(v);
        reset_stats();
        let v = take_zeroed::<f32>(64);
        assert_eq!(stats().hits, 0);
        drop(v);
        set_enabled(prev);
    }

    #[test]
    fn scratch_recycles_on_drop() {
        let prev = set_enabled(true);
        {
            let mut s = Scratch::<f32>::with_capacity(512);
            s.push(1.0);
        }
        reset_stats();
        let s2 = Scratch::<f32>::with_capacity(512);
        assert_eq!(stats().hits, 1, "scratch drop did not recycle");
        drop(s2);
        set_enabled(prev);
    }
}
