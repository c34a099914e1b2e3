//! Offline stand-in for [rayon](https://crates.io/crates/rayon).
//!
//! The build environment has no network access, so this crate provides the
//! (small) subset of rayon's parallel-iterator API the workspace actually
//! uses, implemented on a **persistent work-stealing thread pool**:
//!
//! * [`ParallelSlice::par_chunks`] / [`ParallelSliceMut::par_chunks_mut`]
//! * [`IntoParallelRefMutIterator::par_iter_mut`] (slices and `Vec`)
//! * [`IntoParallelIterator::into_par_iter`] (`Vec`)
//! * adaptors [`ParIter::zip`], [`ParIter::enumerate`], terminal
//!   [`ParIter::for_each`]
//!
//! # Pool design
//!
//! The pool is a process-global set of `W` persistent worker threads, one
//! double-ended queue per worker. Owners push and pop at the back of their
//! own deque (LIFO, keeps nested work cache-hot); idle workers steal **half**
//! of a victim's queue from the front (FIFO, takes the oldest, coarsest
//! work). External submitters (threads that are not pool workers) distribute
//! a region's tasks round-robin across the worker deques, so task `i` of a
//! region consistently lands on worker `i % W` — stripe `i` of a GEMM meets
//! the same worker (and therefore the same core) on every call.
//!
//! A *region* ([`ParIter::for_each`]) submits its items as tasks and then
//! **helps**: the submitting thread executes tasks of its own region —
//! popping its own deque if it is a worker, otherwise scanning the worker
//! deques — until the region's pending count reaches zero. Helping is
//! restricted to the submitter's own region so a thread that holds
//! region-scoped thread-local state (fault-injection scopes, suppression
//! flags) never executes unrelated work under that state. Nested regions
//! submitted from a worker go to that worker's own deque where siblings can
//! steal them, so nesting splits instead of serialising.
//!
//! Worker count precedence: [`set_num_threads`] (explicit) >
//! `OZAKI_WORKERS` (environment) > `available_parallelism()`. Results of
//! every region are **bit-identical for any worker count** by construction:
//! tasks are data-disjoint and each task's work is itself deterministic, so
//! scheduling only permutes *when* disjoint writes happen, never what they
//! contain. [`set_steal_seed`] perturbs victim-selection order so tests can
//! drive adversarial steal interleavings.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Worker-count resolution
// ---------------------------------------------------------------------------

/// Sanity ceiling on configurable worker counts.
const MAX_WORKERS: usize = 256;

/// Pure worker-count resolution: explicit override > `OZAKI_WORKERS` env >
/// `available_parallelism()`. Zero or unparsable values fall through to the
/// next source, so `OZAKI_WORKERS=0` or `OZAKI_WORKERS=banana` mean "use the
/// machine default" rather than erroring.
fn resolve_worker_count(explicit: Option<usize>, env: Option<&str>) -> usize {
    if let Some(n) = explicit {
        if n > 0 {
            return n.min(MAX_WORKERS);
        }
    }
    if let Some(s) = env {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n.min(MAX_WORKERS);
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn resolved_from_globals() -> usize {
    let explicit = EXPLICIT_WORKERS.load(Ordering::Relaxed);
    let env = std::env::var("OZAKI_WORKERS").ok();
    resolve_worker_count(
        if explicit > 0 { Some(explicit) } else { None },
        env.as_deref(),
    )
}

// ---------------------------------------------------------------------------
// Pool internals
// ---------------------------------------------------------------------------

/// Completion state shared by every task of one `for_each` region.
struct Region {
    /// Tasks not yet finished. The submitter returns when this hits zero.
    pending: AtomicUsize,
    /// First captured panic payload; re-thrown on the submitting thread.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Parking spot for the submitter while workers finish the tail.
    done: Mutex<()>,
    done_cv: Condvar,
    /// Stable id, used to derive a deterministic steal-order stream when a
    /// steal seed is set (region pointers are not stable across runs).
    id: u64,
}

/// One unit of region work: a lifetime-erased closure over a single item.
struct Task {
    region: Arc<Region>,
    job: Box<dyn FnOnce() + Send>,
}

/// State shared between the workers of one pool generation. Reconfiguring
/// via [`set_num_threads`] swaps the global `Arc` for a fresh generation;
/// regions still draining an old generation hold their own `Arc` and finish
/// their tasks themselves even after the old workers exit.
struct PoolShared {
    /// Pool generation id; thread-local worker indices are tagged with it so
    /// a worker of a retired pool is not mistaken for one of the current.
    id: u64,
    workers: usize,
    deques: Vec<Mutex<VecDeque<Task>>>,
    shutdown: AtomicBool,
    /// Non-zero: seed for deterministic victim-selection order (test hook).
    steal_seed: AtomicU64,
    /// Wake generation counter: bumped (under the lock) on every submission
    /// so sleepers never miss work that was pushed between their last scan
    /// and their wait.
    sleep: Mutex<u64>,
    sleep_cv: Condvar,
}

thread_local! {
    /// `(pool id, worker index)` on pool worker threads, `None` elsewhere.
    static WORKER_TLS: Cell<Option<(u64, usize)>> = const { Cell::new(None) };
}

static POOL: Mutex<Option<Arc<PoolShared>>> = Mutex::new(None);
/// Fast path for [`current_num_threads`]: worker count of the live pool.
static WORKERS_CACHE: AtomicUsize = AtomicUsize::new(0);
/// Last explicit [`set_num_threads`] value (0 = no explicit override).
static EXPLICIT_WORKERS: AtomicUsize = AtomicUsize::new(0);
/// Seed applied to newly built pools (and the live one) by [`set_steal_seed`].
static STEAL_SEED: AtomicU64 = AtomicU64::new(0);
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_REGION_ID: AtomicU64 = AtomicU64::new(1);

/// Lock that shrugs off poisoning: pool bookkeeping must stay usable after a
/// task panic (the panic is re-thrown to the submitter, not swallowed).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl PoolShared {
    /// Bump the wake generation and wake every parked worker.
    fn wake_all(&self) {
        {
            let mut generation = lock(&self.sleep);
            *generation = generation.wrapping_add(1);
        }
        self.sleep_cv.notify_all();
    }

    /// Victim scan order for `who` on steal attempt `attempt`: a rotation of
    /// the other workers. Seeded pools derive the rotation from the seed so
    /// tests can replay (or sweep) steal interleavings; unseeded pools just
    /// advance a cheap per-thread counter.
    fn victim_start(&self, who: u64, attempt: u64) -> usize {
        let seed = self.steal_seed.load(Ordering::Relaxed);
        let h = if seed == 0 {
            splitmix64(who.wrapping_mul(0x9e37).wrapping_add(attempt))
        } else {
            splitmix64(seed ^ who.rotate_left(32) ^ attempt.wrapping_mul(0x2545_f491_4f6c_dd1d))
        };
        (h % self.workers as u64) as usize
    }

    /// Worker fast path: pop the back of our own deque (newest first — keeps
    /// nested work on the thread that created it), else steal half of the
    /// front of someone else's (oldest first — coarsest-grained work).
    fn find_any_task(&self, me: usize, attempt: &mut u64) -> Option<Task> {
        if let Some(task) = lock(&self.deques[me]).pop_back() {
            return Some(task);
        }
        *attempt = attempt.wrapping_add(1);
        let start = self.victim_start(me as u64, *attempt);
        for off in 0..self.workers {
            let victim = (start + off) % self.workers;
            if victim == me {
                continue;
            }
            let (mut stolen, left): (VecDeque<Task>, usize) = {
                let mut vq = lock(&self.deques[victim]);
                let take = vq.len().div_ceil(2);
                if take == 0 {
                    continue;
                }
                let stolen = vq.drain(..take).collect();
                (stolen, vq.len())
            };
            // Recorded outside the deque lock: one steal, and the victim's
            // post-steal depth as a sampled load signal.
            gemm_obs::catalog::POOL_STEALS.inc();
            gemm_obs::catalog::POOL_QUEUE_DEPTH.set(victim, left as i64);
            let first = stolen.pop_front();
            if !stolen.is_empty() {
                let mut mine = lock(&self.deques[me]);
                mine.extend(stolen);
            }
            return first;
        }
        None
    }

    /// Helper path: find a task belonging to `region` only. The submitting
    /// thread may carry region-scoped thread-local state (fault-injection
    /// scopes), so it must never execute unrelated work while waiting.
    fn find_region_task(
        &self,
        region: &Arc<Region>,
        me: Option<usize>,
        attempt: &mut u64,
    ) -> Option<Task> {
        if let Some(own) = me {
            let mut q = lock(&self.deques[own]);
            if let Some(pos) = q.iter().rposition(|t| Arc::ptr_eq(&t.region, region)) {
                return q.remove(pos);
            }
        }
        *attempt = attempt.wrapping_add(1);
        let who = me.map(|m| m as u64).unwrap_or(region.id | 1 << 63);
        let start = self.victim_start(who, *attempt);
        for off in 0..self.workers {
            let victim = (start + off) % self.workers;
            if Some(victim) == me {
                continue;
            }
            let mut q = lock(&self.deques[victim]);
            if let Some(pos) = q.iter().position(|t| Arc::ptr_eq(&t.region, region)) {
                return q.remove(pos);
            }
        }
        None
    }

    /// Submit `items` as one region and block until all of them ran.
    ///
    /// # Safety of the lifetime erasure
    ///
    /// Tasks capture `f` by raw pointer and may borrow stack data through
    /// `T` (e.g. `&mut [f64]` chunks). They are transmuted to `'static` to
    /// live in the deques, which is sound because this function does not
    /// return until `pending == 0`, and `pending` only reaches zero when
    /// every task has been consumed by `execute_task` (panics included —
    /// they are caught, recorded, and the count still drops). Tasks are
    /// never dropped unexecuted: nothing else removes them from the deques.
    fn run_region<T: Send, F: Fn(T) + Sync>(self: &Arc<Self>, items: Vec<T>, f: &F) {
        let region = Arc::new(Region {
            pending: AtomicUsize::new(items.len()),
            panic: Mutex::new(None),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
            id: NEXT_REGION_ID.fetch_add(1, Ordering::Relaxed),
        });
        let me = WORKER_TLS
            .with(|w| w.get())
            .filter(|(pool_id, _)| *pool_id == self.id)
            .map(|(_, idx)| idx);

        struct FnPtr<F>(*const F);
        unsafe impl<F: Sync> Send for FnPtr<F> {}

        for (i, item) in items.into_iter().enumerate() {
            let fp = FnPtr(f as *const F);
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                // Capture the whole `FnPtr` wrapper (it is the Send carrier),
                // not just its raw-pointer field.
                let FnPtr(fp) = { fp };
                // SAFETY: `f` outlives the region (see run_region docs).
                unsafe { (*fp)(item) }
            });
            // SAFETY: lifetime erasure justified in the method docs above.
            let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
            let target = match me {
                // Nested region on a worker: own deque, siblings steal.
                Some(own) => own,
                // External region: round-robin so task i is core-affine.
                None => i % self.workers,
            };
            lock(&self.deques[target]).push_back(Task {
                region: Arc::clone(&region),
                job,
            });
        }
        self.wake_all();

        let mut attempt = splitmix64(region.id);
        loop {
            if region.pending.load(Ordering::Acquire) == 0 {
                break;
            }
            if let Some(task) = self.find_region_task(&region, me, &mut attempt) {
                execute_task(task);
                continue;
            }
            // Nothing of ours to run: the tail is in flight on workers.
            let parked = lock(&region.done);
            if region.pending.load(Ordering::Acquire) != 0 {
                // Timeout is a belt-and-braces fallback; completion notifies.
                let _parked = self
                    .done_wait(parked, &region)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        let payload = lock(&region.panic).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    fn done_wait<'a>(
        &self,
        guard: MutexGuard<'a, ()>,
        region: &Region,
    ) -> Result<MutexGuard<'a, ()>, PoisonError<MutexGuard<'a, ()>>> {
        region
            .done_cv
            .wait_timeout(guard, Duration::from_micros(500))
            .map(|(g, _)| g)
            .map_err(|e| PoisonError::new(e.into_inner().0))
    }
}

/// Run one task: catch panics into the region, then retire the task. The
/// last retirement wakes the submitter.
fn execute_task(task: Task) {
    gemm_obs::catalog::POOL_TASKS.inc();
    let Task { region, job } = task;
    if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
        let mut slot = lock(&region.panic);
        slot.get_or_insert(payload);
    }
    if region.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
        // Take the lock so the submitter's pending re-check and our notify
        // cannot interleave into a missed wakeup.
        drop(lock(&region.done));
        region.done_cv.notify_all();
    }
}

fn worker_main(shared: Arc<PoolShared>, index: usize) {
    WORKER_TLS.with(|w| w.set(Some((shared.id, index))));
    let mut attempt = splitmix64(index as u64 ^ 0xa5a5);
    loop {
        let seen_generation = *lock(&shared.sleep);
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        if let Some(task) = shared.find_any_task(index, &mut attempt) {
            execute_task(task);
            continue;
        }
        let generation = lock(&shared.sleep);
        if *generation == seen_generation && !shared.shutdown.load(Ordering::Acquire) {
            // Counted, not spanned: idle workers park ~200x/s each and
            // would flood the span rings with no information.
            gemm_obs::catalog::POOL_PARKS.inc();
            // Timed wait: a stray lost wakeup costs 5 ms, not a hang.
            let _ = shared
                .sleep_cv
                .wait_timeout(generation, Duration::from_millis(5))
                .map_err(PoisonError::into_inner);
        }
    }
}

fn build_pool(workers: usize) -> Arc<PoolShared> {
    let shared = Arc::new(PoolShared {
        id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
        workers,
        deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        shutdown: AtomicBool::new(false),
        steal_seed: AtomicU64::new(STEAL_SEED.load(Ordering::Relaxed)),
        sleep: Mutex::new(0),
        sleep_cv: Condvar::new(),
    });
    if workers >= 2 {
        for i in 0..workers {
            let worker_shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("ozaki-worker-{i}"))
                .spawn(move || worker_main(worker_shared, i))
                .expect("spawn pool worker");
        }
    }
    shared
}

fn current_pool() -> Arc<PoolShared> {
    let mut slot = lock(&POOL);
    if slot.is_none() {
        let workers = resolved_from_globals();
        *slot = Some(build_pool(workers));
        WORKERS_CACHE.store(workers, Ordering::Relaxed);
    }
    Arc::clone(slot.as_ref().unwrap())
}

// ---------------------------------------------------------------------------
// Public pool controls
// ---------------------------------------------------------------------------

/// Number of workers in the live pool.
///
/// A single relaxed atomic load once the pool exists (the first call builds
/// it): `std::thread::available_parallelism` re-reads cgroup limits from the
/// filesystem on every invocation (tens of microseconds inside containers),
/// which a dispatch check on the hot path of every small GEMM cannot afford.
/// Unlike the old `OnceLock` cache, this tracks [`set_num_threads`]
/// reconfiguration and honours `OZAKI_WORKERS`.
pub fn current_num_threads() -> usize {
    let cached = WORKERS_CACHE.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    current_pool().workers
}

/// Worker index (`0..current_num_threads()`) on pool worker threads, `None`
/// on external threads. Stable for the lifetime of a pool generation, so a
/// caller can tell which worker ran a task.
pub fn current_worker_index() -> Option<usize> {
    WORKER_TLS.with(|w| w.get()).map(|(_, idx)| idx)
}

/// Reconfigure the global pool to `n` workers (`0` clears the explicit
/// override and re-resolves from `OZAKI_WORKERS` / the machine).
///
/// Process-global. In-flight regions are unaffected: they hold their own
/// reference to the retired pool generation and drain their remaining tasks
/// on the submitting thread even after the old workers exit.
pub fn set_num_threads(n: usize) {
    EXPLICIT_WORKERS.store(n, Ordering::Relaxed);
    let workers = resolved_from_globals();
    let mut slot = lock(&POOL);
    if let Some(old) = slot.take() {
        if old.workers == workers {
            // Same size: keep the generation (worker TLS indices stay valid).
            *slot = Some(old);
            WORKERS_CACHE.store(workers, Ordering::Relaxed);
            return;
        }
        old.shutdown.store(true, Ordering::Release);
        old.wake_all();
    }
    *slot = Some(build_pool(workers));
    WORKERS_CACHE.store(workers, Ordering::Relaxed);
}

/// Test hook: seed the steal-order permutation (0 restores the default
/// free-running order). Applies to the live pool and any pool built later.
/// Different seeds drive different steal interleavings; results must be (and
/// are asserted to be) bit-identical under all of them.
pub fn set_steal_seed(seed: u64) {
    STEAL_SEED.store(seed, Ordering::Relaxed);
    if let Some(pool) = lock(&POOL).as_ref() {
        pool.steal_seed.store(seed, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Parallel iterator surface
// ---------------------------------------------------------------------------

/// A materialised "parallel" iterator: a list of independent work items.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Pair items positionally with another parallel iterator
    /// (truncates to the shorter side, like rayon's `zip`).
    pub fn zip<U: Send>(self, other: ParIter<U>) -> ParIter<(T, U)> {
        ParIter {
            items: self.items.into_iter().zip(other.items).collect(),
        }
    }

    /// Attach the item index.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Run `f` over every item, distributing items across the worker pool.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        run_parallel(self.items, &f);
    }
}

fn run_parallel<T: Send, F: Fn(T) + Sync>(items: Vec<T>, f: &F) {
    if items.len() <= 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let pool = current_pool();
    if pool.workers <= 1 {
        for item in items {
            f(item);
        }
        return;
    }
    pool.run_region(items, f);
}

/// `par_chunks` over shared slices.
pub trait ParallelSlice<T: Sync> {
    /// Split into `size`-element chunks (last may be shorter).
    fn par_chunks(&self, size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, size: usize) -> ParIter<&[T]> {
        assert!(size != 0, "chunk size must be non-zero");
        ParIter {
            items: self.chunks(size).collect(),
        }
    }
}

/// `par_chunks_mut` over mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Split into disjoint mutable `size`-element chunks.
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]> {
        assert!(size != 0, "chunk size must be non-zero");
        ParIter {
            items: self.chunks_mut(size).collect(),
        }
    }
}

/// `par_iter_mut` over collections of independent elements.
pub trait IntoParallelRefMutIterator<'a> {
    /// Element type yielded to workers.
    type Item: Send;
    /// One item per element, mutably borrowed.
    fn par_iter_mut(&'a mut self) -> ParIter<Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

/// `into_par_iter` over owned collections.
pub trait IntoParallelIterator {
    /// Element type yielded to workers.
    type Item: Send;
    /// Consume `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// The usual glob-import surface.
pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefMutIterator, ParIter, ParallelSlice, ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// Tests that reconfigure the process-global pool serialise on this.
    static POOL_CONFIG: Mutex<()> = Mutex::new(());

    fn with_workers<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _guard = POOL_CONFIG
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        super::set_num_threads(n);
        let out = f();
        super::set_num_threads(0);
        out
    }

    #[test]
    fn chunks_mut_zip_enumerate() {
        let mut dst = vec![0i32; 100];
        let src: Vec<i32> = (0..100).collect();
        dst.par_chunks_mut(7)
            .zip(src.par_chunks(7))
            .enumerate()
            .for_each(|(idx, (d, s))| {
                for (x, &y) in d.iter_mut().zip(s) {
                    *x = y * 2 + idx as i32;
                }
            });
        for (i, &x) in dst.iter().enumerate() {
            assert_eq!(x, (i as i32) * 2 + (i / 7) as i32);
        }
    }

    #[test]
    fn nested_regions_complete() {
        let mut data = vec![0u64; 64];
        data.par_chunks_mut(8).enumerate().for_each(|(o, chunk)| {
            let mut inner = [0u64; 16];
            inner.par_chunks_mut(4).for_each(|c| c.fill(1));
            chunk.fill(o as u64 + inner.iter().sum::<u64>());
        });
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, (i / 8) as u64 + 16);
        }
    }

    #[test]
    fn into_par_iter_runs_all() {
        let total = AtomicUsize::new(0);
        let jobs: Vec<usize> = (1..=50).collect();
        jobs.into_par_iter().for_each(|j| {
            total.fetch_add(j, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 50 * 51 / 2);
    }

    #[test]
    fn worker_count_precedence_explicit_beats_env_beats_default() {
        // Pure resolution, no process-global state involved.
        assert_eq!(super::resolve_worker_count(Some(3), Some("7")), 3);
        assert_eq!(super::resolve_worker_count(None, Some("7")), 7);
        assert_eq!(super::resolve_worker_count(Some(0), Some("7")), 7);
        // Unparsable / zero env falls back to the machine default.
        let machine = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(super::resolve_worker_count(None, Some("banana")), machine);
        assert_eq!(super::resolve_worker_count(None, Some("0")), machine);
        assert_eq!(super::resolve_worker_count(None, None), machine);
        // Ceiling is clamped.
        assert_eq!(
            super::resolve_worker_count(Some(100_000), None),
            super::MAX_WORKERS
        );
    }

    #[test]
    fn set_num_threads_reconfigures_and_resets() {
        with_workers(3, || {
            assert_eq!(super::current_num_threads(), 3);
            super::set_num_threads(5);
            assert_eq!(super::current_num_threads(), 5);
        });
    }

    #[test]
    fn worker_indices_are_in_range_and_external_thread_has_none() {
        assert_eq!(super::current_worker_index(), None);
        use std::sync::Condvar;
        use std::time::Duration;
        with_workers(4, || {
            let seen = Mutex::new(Vec::new());
            let worker_ran = (Mutex::new(false), Condvar::new());
            let jobs: Vec<usize> = (0..64).collect();
            jobs.into_par_iter()
                .for_each(|_| match super::current_worker_index() {
                    Some(idx) => {
                        assert!(idx < 4);
                        seen.lock().unwrap().push(idx);
                        *worker_ran.0.lock().unwrap() = true;
                        worker_ran.1.notify_all();
                    }
                    // The submitting thread helps. So that it cannot drain all
                    // 64 items before any worker wakes, an item it runs waits
                    // (bounded) until a worker has run one of the others.
                    None => {
                        let ran = worker_ran.0.lock().unwrap();
                        let _ran = worker_ran
                            .1
                            .wait_timeout_while(ran, Duration::from_secs(10), |ran| !*ran)
                            .unwrap();
                    }
                });
            assert!(!seen.lock().unwrap().is_empty());
        });
        assert_eq!(super::current_worker_index(), None);
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        with_workers(4, || {
            let result = std::panic::catch_unwind(|| {
                let jobs: Vec<usize> = (0..32).collect();
                jobs.into_par_iter().for_each(|j| {
                    if j == 17 {
                        panic!("boom from item 17");
                    }
                });
            });
            assert!(result.is_err(), "panic must reach the submitter");
            // The pool keeps working after a panicked region.
            let total = AtomicUsize::new(0);
            let jobs: Vec<usize> = (1..=100).collect();
            jobs.into_par_iter().for_each(|j| {
                total.fetch_add(j, Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), 100 * 101 / 2);
        });
    }

    #[test]
    fn nested_regions_split_across_workers() {
        with_workers(4, || {
            let mut data = vec![0u64; 256];
            data.par_chunks_mut(32).enumerate().for_each(|(o, chunk)| {
                // Nested region from inside a pool task: must complete and
                // produce the same result as sequential execution.
                chunk.par_chunks_mut(8).enumerate().for_each(|(i, c)| {
                    c.fill((o * 10 + i) as u64);
                });
            });
            for (i, &x) in data.iter().enumerate() {
                assert_eq!(x, ((i / 32) * 10 + (i % 32) / 8) as u64);
            }
        });
    }

    #[test]
    fn steal_seed_sweep_is_bit_identical() {
        with_workers(4, || {
            let oracle: Vec<u64> = (0..128u64).map(|i| i.wrapping_mul(i ^ 0x5bd1)).collect();
            for seed in [0u64, 1, 42, 0xdead_beef, u64::MAX] {
                super::set_steal_seed(seed);
                let mut out = vec![0u64; 128];
                out.par_chunks_mut(4).enumerate().for_each(|(c, chunk)| {
                    for (j, x) in chunk.iter_mut().enumerate() {
                        let i = (c * 4 + j) as u64;
                        *x = i.wrapping_mul(i ^ 0x5bd1);
                    }
                });
                assert_eq!(out, oracle, "steal seed {seed} changed results");
            }
            super::set_steal_seed(0);
        });
    }

    #[test]
    fn concurrent_regions_from_many_threads() {
        with_workers(3, || {
            std::thread::scope(|scope| {
                for t in 0..6 {
                    scope.spawn(move || {
                        for round in 0..20 {
                            let total = AtomicUsize::new(0);
                            let jobs: Vec<usize> = (0..40).collect();
                            jobs.into_par_iter().for_each(|j| {
                                total.fetch_add(j + t + round, Ordering::Relaxed);
                            });
                            let expect = (0..40).sum::<usize>() + 40 * (t + round);
                            assert_eq!(total.load(Ordering::Relaxed), expect);
                        }
                    });
                }
            });
        });
    }

    #[test]
    fn reconfigure_during_active_regions_loses_no_items() {
        let _guard = POOL_CONFIG
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        super::set_num_threads(4);
        let done = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let done = &done;
            for _ in 0..4 {
                scope.spawn(move || {
                    for _ in 0..25 {
                        let jobs: Vec<usize> = (0..16).collect();
                        jobs.into_par_iter().for_each(|_| {
                            done.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
            // Churn the pool while regions are in flight: old generations
            // must still drain every task.
            scope.spawn(|| {
                for n in [2usize, 4, 3, 2, 4] {
                    super::set_num_threads(n);
                    std::thread::yield_now();
                }
            });
        });
        assert_eq!(done.load(Ordering::Relaxed), 4 * 25 * 16);
        super::set_num_threads(0);
    }
}
