//! Concurrency stress tests for the batched runtime's shared state.
//!
//! The `OperandCache` (one lock) is hit by every concurrent batched
//! call, the `WorkspacePool` (sharded by worker index) by every worker
//! of every call. These tests hammer both from many OS threads at once
//! and pin the three properties shared state can silently lose: no
//! deadlock (the tests terminate), correct contents under churn (hits
//! return the exact `Arc` that was inserted; batched results stay
//! bit-identical), and flat steady-state allocation with panic-poison
//! recovery (a panicking holder never wedges or leaks the pool).

use gemm_batch::{BatchedOzaki2, OperandCache, OperandKey, StridedBatch, WorkspacePool};
use gemm_dense::workload::phi_matrix_f64;
use gemm_dense::{Layout, MatF64, MatView};
use ozaki2::{Mode, OperandSide, Ozaki2, PreparedOperand};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Tests that reconfigure the process-global pool serialise here.
static POOL_CONFIG: Mutex<()> = Mutex::new(());

fn pool_lock() -> MutexGuard<'static, ()> {
    POOL_CONFIG.lock().unwrap_or_else(|e| e.into_inner())
}

/// Distinct operand matrices with their keys and (one-time) preparations.
fn tenants(count: usize, nmod: usize) -> Vec<(Vec<f64>, Arc<PreparedOperand>)> {
    let emu = Ozaki2::new(nmod, Mode::Fast);
    (0..count)
        .map(|i| {
            let b = phi_matrix_f64(8, 6, 0.5, 1000 + i as u64, 1);
            let p = Arc::new(emu.prepare(OperandSide::B, &b).unwrap());
            (b.into_vec(), p)
        })
        .collect()
}

fn key_of(data: &[f64], nmod: usize) -> OperandKey {
    let view = MatView::new(data, 8, 6, 8, Layout::ColMajor);
    OperandKey::view(&view, OperandSide::B, nmod)
}

/// N threads hammering get/insert/repeat_miss over an overlapping key set
/// with eviction churn (capacity < tenant count): every hit must return
/// the exact preparation inserted for that key, the cache must stay
/// within capacity, and the run must terminate (no deadlock, no lost
/// updates wedging the lock).
#[test]
fn operand_cache_contention_keeps_contents_exact() {
    let nmod = 8;
    let prepared = tenants(12, nmod);
    let cache = OperandCache::new(8); // smaller than the tenant set: churn
    let hits = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for t in 0..8usize {
            let prepared = &prepared;
            let cache = &cache;
            let hits = &hits;
            scope.spawn(move || {
                for round in 0..300usize {
                    let idx = (t * 7 + round * 5) % prepared.len();
                    let (data, prep) = &prepared[idx];
                    let key = key_of(data, nmod);
                    match cache.get(&key) {
                        Some(got) => {
                            assert!(
                                Arc::ptr_eq(&got, prep),
                                "hit returned a foreign preparation for tenant {idx}"
                            );
                            hits.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            // Probation then promote, like the runtime does.
                            if cache.repeat_miss(&key) {
                                cache.insert(key, Arc::clone(prep));
                            }
                        }
                    }
                }
            });
        }
    });

    assert!(
        cache.len() <= cache.capacity(),
        "capacity must hold after churn"
    );
    assert!(
        hits.load(Ordering::Relaxed) > 0,
        "churn must still produce hits"
    );
    assert_eq!(
        cache.hits() + cache.misses(),
        8 * 300,
        "every lookup accounted exactly once"
    );
}

/// Concurrent batched calls against ONE shared runtime: results stay
/// bit-identical per caller, the workspace pool never holds more
/// workspaces than there are threads that can hold one at once, and once
/// warmed, further rounds add no cache bytes.
#[test]
fn shared_runtime_concurrent_calls_stay_exact_and_flat() {
    const CALLERS: usize = 6;
    const WORKERS: usize = 4;
    let _guard = pool_lock();
    rayon::set_num_threads(WORKERS);
    let (m, n, k, nmod, count) = (20usize, 16usize, 12usize, 7usize, 6usize);
    let runtime = BatchedOzaki2::new(nmod, Mode::Fast);
    let emu = Ozaki2::new(nmod, Mode::Fast);
    let b = phi_matrix_f64(k, n, 0.6, 9001, 1);

    let run_round = |thread: usize| {
        let a_mats: Vec<MatF64> = (0..count)
            .map(|i| phi_matrix_f64(m, k, 0.6, (thread * 100 + i) as u64, 0))
            .collect();
        let mut a_data = Vec::new();
        for a in &a_mats {
            a_data.extend_from_slice(a.as_slice());
        }
        let mut got = vec![MatF64::zeros(m, n); count];
        runtime
            .try_batched_into(
                &StridedBatch::packed(&a_data, m, k, count),
                &StridedBatch::broadcast(&b, count),
                &mut got,
            )
            .unwrap();
        for (i, g) in got.iter().enumerate() {
            assert_eq!(g, &emu.dgemm(&a_mats[i], &b), "thread {thread} item {i}");
        }
    };

    let hammer = || {
        std::thread::scope(|scope| {
            for t in 0..CALLERS {
                scope.spawn(move || {
                    for _ in 0..4 {
                        run_round(t);
                    }
                });
            }
        });
    };

    // The pool only allocates when no parked workspace is found, and a
    // thread holds at most one workspace at a time (an item's nested
    // engine stripes check none out), so workspaces created never exceed
    // the peak number of concurrent holders: each caller thread (helping
    // run its own batch) plus each pool worker. A warm-up high-water mark
    // is only a sample of that peak, so it is not a bound.
    let peak_holders = CALLERS + WORKERS;
    hammer(); // warmup
    let pool_bytes = runtime.pool().bytes();
    let cache_bytes = runtime.cache().bytes();
    hammer(); // steady state
    assert!(
        runtime.pool().created() <= peak_holders,
        "workspaces created: {} exceeds the {peak_holders} possible concurrent holders",
        runtime.pool().created()
    );
    assert!(
        runtime.pool().bytes() >= pool_bytes,
        "grown workspaces must survive the return"
    );
    assert_eq!(
        runtime.cache().bytes(),
        cache_bytes,
        "shared-operand cache must not regrow in steady state"
    );
    rayon::set_num_threads(0);
}

/// Panic-poison recovery under contention: threads checking workspaces
/// in and out while others panic mid-hold. The pool must keep serving,
/// every workspace must come back, and a poisoned shard lock must never
/// propagate to later checkouts.
#[test]
fn workspace_pool_survives_panicking_holders_under_contention() {
    let pool = WorkspacePool::new();
    std::thread::scope(|scope| {
        for t in 0..6usize {
            let pool = &pool;
            scope.spawn(move || {
                for round in 0..60usize {
                    if (t + round) % 7 == 0 {
                        // Panic while holding: the guard's drop must scrub
                        // and return the workspace during the unwind.
                        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            let _held = pool.checkout();
                            panic!("holder panic {t}:{round}");
                        }));
                        assert!(boom.is_err());
                    } else {
                        let _ws = pool.checkout();
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    // Everything returned; the pool still serves without allocating.
    assert_eq!(pool.available(), pool.created(), "no leaked workspaces");
    let created = pool.created();
    assert!(created <= 6, "never more workspaces than peak concurrency");
    {
        let _a = pool.checkout();
        let _b = pool.checkout();
    }
    assert_eq!(pool.created(), created, "post-stress checkouts reuse");
}
