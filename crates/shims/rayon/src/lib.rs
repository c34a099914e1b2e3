//! Offline stand-in for [rayon](https://crates.io/crates/rayon).
//!
//! The build environment has no network access, so this crate provides the
//! (small) subset of rayon's parallel-iterator API the workspace actually
//! uses, implemented on a **persistent thread pool with one queue**:
//!
//! * [`ParallelSlice::par_chunks`] / [`ParallelSliceMut::par_chunks_mut`]
//! * [`IntoParallelRefMutIterator::par_iter_mut`] (slices and `Vec`)
//! * [`IntoParallelIterator::into_par_iter`] (`Vec`)
//! * adaptors [`ParIter::zip`], [`ParIter::enumerate`], terminal
//!   [`ParIter::for_each`]
//!
//! # Pool design
//!
//! The pool is a process-global set of `W` persistent worker threads
//! (`ozaki-worker-0` … `ozaki-worker-{W-1}`) and one FIFO of *regions*. A
//! region ([`ParIter::for_each`]) owns the list of its not-yet-started
//! tasks, one per item. Submitting a region appends it to the FIFO; a
//! worker takes the next task of the oldest region that still has one. The
//! submitting thread **helps** while it waits: it takes tasks from its own
//! region's list until the list is empty, then sleeps until the tasks in
//! flight on workers finish. Helping cannot reach another region's list, so
//! a thread that holds region-scoped thread-local state (fault-injection
//! scopes, suppression flags) never runs unrelated work under that state. A
//! region submitted from inside a task (nesting) is queued like any other,
//! so idle workers split it instead of the submitter running it alone.
//!
//! Worker count precedence: [`set_num_threads`] (explicit) >
//! `OZAKI_WORKERS` (environment) > `available_parallelism()`. Results of
//! every region are **bit-identical for any worker count** by construction:
//! tasks are data-disjoint and each task's work is itself deterministic, so
//! scheduling only permutes *when* disjoint writes happen, never what they
//! contain.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

// ---------------------------------------------------------------------------
// Worker-count resolution
// ---------------------------------------------------------------------------

/// Sanity ceiling on configurable worker counts.
const MAX_WORKERS: usize = 256;

/// What `OZAKI_WORKERS` accepts, for the panic message.
const WORKERS_GRAMMAR: &str = "an integer in 0..=256 (unset, empty or 0 = machine default)";

/// Parse an `OZAKI_WORKERS` value: `None` for empty or `0` (use the machine
/// default), `Some(n)` for `1..=MAX_WORKERS`, an error for anything else.
fn parse_workers(raw: &str) -> Result<Option<usize>, String> {
    let s = raw.trim();
    if s.is_empty() {
        return Ok(None);
    }
    match s.parse::<usize>() {
        Ok(0) => Ok(None),
        Ok(n) if n <= MAX_WORKERS => Ok(Some(n)),
        Ok(n) => Err(format!("{n} workers is above the ceiling of {MAX_WORKERS}")),
        Err(_) => Err(format!("{s:?} is not an unsigned integer")),
    }
}

/// Pure worker-count resolution: explicit override > `OZAKI_WORKERS` env >
/// `available_parallelism()`. An explicit zero falls through to the next
/// source, as do an empty or zero environment value.
///
/// # Panics
/// On a malformed `OZAKI_WORKERS` (or one above the ceiling), naming the
/// variable, the value and the grammar, even when an explicit count
/// overrides it — a typo must not go unnoticed.
fn resolve_worker_count(explicit: Option<usize>, env: Option<&str>) -> usize {
    let env = env.and_then(|raw| {
        parse_workers(raw)
            .unwrap_or_else(|e| panic!("OZAKI_WORKERS={raw:?}: {e}; expected {WORKERS_GRAMMAR}"))
    });
    match explicit.filter(|&n| n > 0) {
        Some(n) => n.min(MAX_WORKERS),
        None => env.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }),
    }
}

fn resolved_from_globals() -> usize {
    let explicit = EXPLICIT_WORKERS.load(Ordering::Relaxed);
    let env = std::env::var("OZAKI_WORKERS").ok();
    resolve_worker_count(Some(explicit), env.as_deref())
}

// ---------------------------------------------------------------------------
// Pool internals
// ---------------------------------------------------------------------------

/// One unit of region work: a lifetime-erased closure over a single item.
type Job = Box<dyn FnOnce() + Send>;

/// One `for_each` call: the tasks nobody has started yet and the
/// completion state the submitter waits on.
struct Region {
    state: Mutex<RegionState>,
    /// Signalled when `unfinished` reaches zero.
    done: Condvar,
}

struct RegionState {
    /// Tasks not yet started, in item order.
    todo: std::vec::IntoIter<Job>,
    /// Tasks not yet finished, started or not. The submitter returns at zero.
    unfinished: usize,
    /// First captured panic payload; re-thrown on the submitting thread.
    panic: Option<Box<dyn Any + Send>>,
}

impl Region {
    /// Run this region's unstarted tasks until none is left, catching each
    /// task's panic into the region. One lock per task both retires the
    /// finished task and takes the next; the last retirement wakes the
    /// submitter. `by_worker` counts the tasks into `POOL_STEALS`. The
    /// caller keeps the region alive, so notifying after unlocking is safe.
    fn drain(&self, by_worker: bool) {
        let mut state = lock(&self.state);
        while let Some(job) = state.todo.next() {
            drop(state);
            gemm_obs::catalog::POOL_TASKS.inc();
            if by_worker {
                gemm_obs::catalog::POOL_STEALS.inc();
            }
            let result = catch_unwind(AssertUnwindSafe(job));
            state = lock(&self.state);
            if let Err(payload) = result {
                state.panic.get_or_insert(payload);
            }
            state.unfinished -= 1;
            if state.unfinished == 0 {
                // Notify after unlocking, so the woken submitter does not
                // block on the lock straight away.
                drop(state);
                self.done.notify_one();
                return;
            }
        }
    }
}

/// The queue one pool generation's workers serve.
struct Queue {
    /// Regions in submission order. A region stays until a worker finds
    /// its task list empty.
    regions: VecDeque<Arc<Region>>,
    /// Set when [`set_num_threads`] replaces this generation; its workers
    /// exit, and submitters finish what is left of their regions themselves.
    retired: bool,
}

/// One pool generation. Reconfiguring via [`set_num_threads`] swaps the
/// global `Arc` for a fresh generation; regions still draining an old
/// generation hold their own `Arc` and finish their tasks themselves even
/// after the old workers exit.
struct PoolShared {
    workers: usize,
    queue: Mutex<Queue>,
    /// Signalled when a region is queued or the generation retires.
    work: Condvar,
}

static POOL: Mutex<Option<Arc<PoolShared>>> = Mutex::new(None);
/// Fast path for [`current_num_threads`]: worker count of the live pool.
static WORKERS_CACHE: AtomicUsize = AtomicUsize::new(0);
/// Last explicit [`set_num_threads`] value (0 = no explicit override).
static EXPLICIT_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Lock that shrugs off poisoning: pool bookkeeping must stay usable after a
/// task panic (the panic is re-thrown to the submitter, not swallowed).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl PoolShared {
    /// Submit `items` as one region and block until all of them ran.
    ///
    /// # Safety of the lifetime erasure
    ///
    /// Tasks capture `f` by raw pointer and may borrow stack data through
    /// `T` (e.g. `&mut [f64]` chunks). They are transmuted to `'static` to
    /// live in the region, which is sound because this function does not
    /// return until `unfinished == 0`, and `unfinished` only reaches zero
    /// when every task has been taken from the list and run by
    /// [`Region::drain`] (panics included — they are caught, recorded, and
    /// the count still drops). Tasks are never dropped unexecuted: only
    /// `drain` removes them from the list, and it runs what it took.
    fn run_region<T: Send, F: Fn(T) + Sync>(&self, items: Vec<T>, f: &F) {
        struct FnPtr<F>(*const F);
        unsafe impl<F: Sync> Send for FnPtr<F> {}

        let n = items.len();
        let jobs: Vec<Job> = items
            .into_iter()
            .map(|item| {
                let fp = FnPtr(f as *const F);
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    // Capture the whole `FnPtr` wrapper (it is the Send
                    // carrier), not just its raw-pointer field.
                    let FnPtr(fp) = { fp };
                    // SAFETY: `f` outlives the region (see run_region docs).
                    unsafe { (*fp)(item) }
                });
                // SAFETY: lifetime erasure justified in the method docs above.
                unsafe { std::mem::transmute::<_, Job>(job) }
            })
            .collect();
        let region = Arc::new(Region {
            state: Mutex::new(RegionState {
                todo: jobs.into_iter(),
                unfinished: n,
                panic: None,
            }),
            done: Condvar::new(),
        });
        lock(&self.queue).regions.push_back(Arc::clone(&region));
        // The submitter runs tasks too: W - 1 workers fill W cores.
        for _ in 0..(n - 1).min(self.workers - 1) {
            self.work.notify_one();
        }

        region.drain(false);
        let mut state = lock(&region.state);
        while state.unfinished != 0 {
            state = region
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if let Some(payload) = state.panic.take() {
            drop(state);
            resume_unwind(payload);
        }
    }
}

fn worker_main(shared: Arc<PoolShared>) {
    loop {
        let region = {
            let mut queue = lock(&shared.queue);
            loop {
                if queue.retired {
                    return;
                }
                match queue.regions.front() {
                    None => {
                        // Counted, not spanned: parks are too frequent to
                        // be worth a span each.
                        gemm_obs::catalog::POOL_PARKS.inc();
                        queue = shared
                            .work
                            .wait(queue)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    Some(front) if lock(&front.state).todo.len() == 0 => {
                        drop(queue.regions.pop_front());
                    }
                    Some(front) => break Arc::clone(front),
                }
            }
        };
        // The oldest region with tasks: stay on it until its list is empty.
        // A worker never runs a region it submitted: its own regions are
        // drained inside `run_region` before it returns here.
        region.drain(true);
    }
}

fn build_pool(workers: usize) -> Arc<PoolShared> {
    let shared = Arc::new(PoolShared {
        workers,
        queue: Mutex::new(Queue {
            regions: VecDeque::new(),
            retired: false,
        }),
        work: Condvar::new(),
    });
    if workers >= 2 {
        for i in 0..workers {
            let worker_shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("ozaki-worker-{i}"))
                .spawn(move || worker_main(worker_shared))
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
/// Tracks [`set_num_threads`] reconfiguration and honours `OZAKI_WORKERS`.
pub fn current_num_threads() -> usize {
    let cached = WORKERS_CACHE.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    current_pool().workers
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
            // Same size: keep the generation and its threads.
            *slot = Some(old);
            WORKERS_CACHE.store(workers, Ordering::Relaxed);
            return;
        }
        lock(&old.queue).retired = true;
        old.work.notify_all();
    }
    *slot = Some(build_pool(workers));
    WORKERS_CACHE.store(workers, Ordering::Relaxed);
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
        // Empty / zero env falls back to the machine default.
        let machine = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(super::resolve_worker_count(None, Some("")), machine);
        assert_eq!(super::resolve_worker_count(None, Some("0")), machine);
        assert_eq!(super::resolve_worker_count(None, None), machine);
        // A malformed env value is an error, even under an explicit count.
        for explicit in [None, Some(3)] {
            let r =
                std::panic::catch_unwind(|| super::resolve_worker_count(explicit, Some("banana")));
            let msg = *r.unwrap_err().downcast::<String>().unwrap();
            assert!(
                msg.contains("OZAKI_WORKERS=\"banana\"") && msg.contains("0..=256"),
                "{msg}"
            );
        }
        // The explicit ceiling is clamped.
        assert_eq!(
            super::resolve_worker_count(Some(100_000), None),
            super::MAX_WORKERS
        );
    }

    #[test]
    fn workers_env_parser_accepts_the_grammar_and_rejects_the_rest() {
        use super::parse_workers;
        assert_eq!(parse_workers(""), Ok(None));
        assert_eq!(parse_workers("  "), Ok(None));
        assert_eq!(parse_workers("0"), Ok(None));
        assert_eq!(parse_workers("1"), Ok(Some(1)));
        assert_eq!(parse_workers(" 4 "), Ok(Some(4)));
        assert_eq!(parse_workers("256"), Ok(Some(256)));
        for bad in ["banana", "-1", "2x", "1.5", "+", "257", "100000"] {
            assert!(parse_workers(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn set_num_threads_reconfigures_and_resets() {
        with_workers(3, || {
            assert_eq!(super::current_num_threads(), 3);
            super::set_num_threads(5);
            assert_eq!(super::current_num_threads(), 5);
        });
    }

    /// The `N` of an `ozaki-worker-N` thread, `None` on any other thread.
    fn worker_number() -> Option<usize> {
        std::thread::current()
            .name()?
            .strip_prefix("ozaki-worker-")?
            .parse()
            .ok()
    }

    #[test]
    fn worker_indices_are_in_range_and_external_thread_has_none() {
        assert_eq!(worker_number(), None);
        use std::sync::Condvar;
        use std::time::Duration;
        with_workers(4, || {
            let seen = Mutex::new(Vec::new());
            let worker_ran = (Mutex::new(false), Condvar::new());
            let jobs: Vec<usize> = (0..64).collect();
            jobs.into_par_iter().for_each(|_| match worker_number() {
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
        assert_eq!(worker_number(), None);
    }

    /// Fault-injection scopes are thread-local, so a submitter that helps
    /// must only ever run tasks of its own region, never a concurrent
    /// submitter's.
    #[test]
    fn submitters_only_help_their_own_region() {
        use std::cell::Cell;
        thread_local! {
            static SUBMITTER: Cell<Option<usize>> = const { Cell::new(None) };
        }
        with_workers(2, || {
            let helped = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for t in 0..2 {
                    let helped = &helped;
                    scope.spawn(move || {
                        SUBMITTER.with(|s| s.set(Some(t)));
                        for _ in 0..200 {
                            let jobs: Vec<u64> = (0..16).collect();
                            jobs.into_par_iter().for_each(|j| {
                                match SUBMITTER.with(Cell::get) {
                                    Some(s) => {
                                        assert_eq!(s, t, "submitter {s} ran a task of region {t}");
                                        helped.fetch_add(1, Ordering::Relaxed);
                                    }
                                    None => assert!(worker_number().is_some()),
                                }
                                // A little work so the two regions overlap.
                                std::hint::black_box((0..500 * j).sum::<u64>());
                            });
                        }
                    });
                }
            });
            assert!(
                helped.load(Ordering::Relaxed) > 0,
                "submitters never helped"
            );
        });
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
