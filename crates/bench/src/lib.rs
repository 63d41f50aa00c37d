//! # tlscope-bench
//!
//! Allocation-budget benches for the tlscope workspace. The `alloc`
//! (passive pipeline) and `scan` (sweep loop) benches in `benches/`
//! are plain `main`s that write `BENCH_pipeline.json` and
//! `BENCH_scan.json` and fail past their budgets; this library holds
//! the budgets, their shared helpers and, behind the `alloc-counter`
//! feature, a counting global allocator that reports heap allocations
//! per connection and per host.

#![cfg_attr(not(feature = "alloc-counter"), forbid(unsafe_code))]

/// Regression budget for the fused generation→ingestion pipeline, in
/// heap allocations per connection. Enforced by the `alloc` bench
/// (full workload) and by the alloc-budget regression test (marginal
/// cost, immune to one-time table growth). With the borrowed fast
/// path — generation into reused scratch, extraction refilled into a
/// thread-local record slot, flow buffers never owned — and server
/// profiles that borrow their cipher and curve lists, what is left is
/// amortized table growth, first-sight fingerprint interning and one
/// client table per day: 0.28 allocs/conn at the fast workload. 1.0
/// leaves headroom for allocator noise, while one allocation per
/// connection creeping back in fails it.
pub const PIPELINE_ALLOC_BUDGET_PER_CONN: f64 = 1.0;

/// Regression budget for the active-scan hot loop, in heap
/// allocations per probed host. Enforced by the `scan` bench and by
/// the alloc-budget regression test (marginal cost). With the campaign
/// probe set prepared once, negotiation going through the
/// allocation-free `decide` core, and sampled profiles borrowing
/// `'static` cipher and curve lists, a host allocates nothing: the
/// 0.022 allocs/host the fast bench reads are the sweep's fixed costs.
/// 0.25 fails as soon as a profile list is allocated per host again
/// (that cost ~1.9 allocs/host).
pub const SCAN_ALLOC_BUDGET_PER_HOST: f64 = 0.25;

/// Best-of-`reps` wall time of `f` in seconds; `f` must be repeatable.
pub fn best_secs(reps: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// A counting wrapper around the system allocator. Installed as the
/// global allocator whenever this crate is built with the
/// `alloc-counter` feature, so the `alloc` bench (and the alloc-budget
/// regression test) can report heap allocations per connection.
///
/// Counters are thread-local: a measurement on one thread is not
/// polluted by concurrent test threads or allocator traffic elsewhere
/// in the process. The thread locals are const-initialised `Cell`s, so
/// reading them from inside `alloc` cannot itself allocate (no lazy
/// init, no destructor registration).
#[cfg(feature = "alloc-counter")]
pub mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
        static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    }

    /// Forwarding allocator that counts every `alloc`/`alloc_zeroed`/
    /// `realloc` on the calling thread. `dealloc` is free.
    pub struct CountingAlloc;

    fn record(bytes: usize) {
        // try_with: the thread-local may be unavailable during thread
        // teardown; dropping a count there is fine.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    }

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            record(layout.size());
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            record(layout.size());
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            record(new_size);
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    /// Reset this thread's counters to zero.
    pub fn reset() {
        let _ = ALLOCS.try_with(|c| c.set(0));
        let _ = ALLOC_BYTES.try_with(|c| c.set(0));
    }

    /// Heap allocations performed by this thread since the last `reset`.
    pub fn thread_allocations() -> u64 {
        ALLOCS.try_with(Cell::get).unwrap_or(0)
    }

    /// Bytes requested from the allocator by this thread since `reset`.
    pub fn thread_alloc_bytes() -> u64 {
        ALLOC_BYTES.try_with(Cell::get).unwrap_or(0)
    }

    /// Run `f` and return `(result, allocations)` for this thread.
    pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = thread_allocations();
        let out = f();
        (out, thread_allocations() - before)
    }
}
