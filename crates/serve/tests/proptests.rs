//! Property tests pinning the serving runtime's core contract: **any**
//! interleaving of submissions — mixed sizes straddling the intensity
//! crossover, shared and unique `Arc` operands, multiple submitter
//! threads, any worker count — yields results bit-identical to the
//! per-call sequential [`Ozaki2::dgemm`] oracle. Coalescing, batching,
//! caching and scheduling may change *when* work happens, never *what*
//! is computed.

use gemm_dense::workload::phi_matrix_f64;
use gemm_dense::MatF64;
use gemm_serve::{GemmRequest, Server};
use ozaki2::{Mode, Ozaki2};
use proptest::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Worker counts the property sweeps: the no-thread fast path and a
/// four-worker pool.
const WORKER_SWEEP: [usize; 2] = [1, 4];

/// The worker pool is process-global; tests that reconfigure it
/// serialise here (same pattern as `gemm_batch`'s worker_matrix tests).
static POOL_CONFIG: Mutex<()> = Mutex::new(());

fn pool_lock() -> MutexGuard<'static, ()> {
    POOL_CONFIG.lock().unwrap_or_else(|e| e.into_inner())
}

/// One generated submission: indices into the shared operand pools.
#[derive(Clone, Debug)]
struct Job {
    a_idx: usize,
    b_idx: usize,
    tenant: usize,
}

/// Build the operand pools: `n_small` small matrices per side (submitted
/// repeatedly — the shared-`Arc` weight-stationary pattern) plus, when
/// `with_large`, one high-intensity pair above the crossover.
fn operand_pools(
    n_small: usize,
    with_large: bool,
    seed: u64,
) -> (Vec<Arc<MatF64>>, Vec<Arc<MatF64>>) {
    // Small: m x 16 · 16 x n with m, n ∈ 6..=14 — intensity ~2, coalesces.
    let mut a_pool: Vec<Arc<MatF64>> = (0..n_small)
        .map(|i| {
            Arc::new(phi_matrix_f64(
                6 + (seed as usize + i) % 9,
                16,
                0.5,
                seed + i as u64,
                0,
            ))
        })
        .collect();
    let mut b_pool: Vec<Arc<MatF64>> = (0..n_small)
        .map(|i| {
            Arc::new(phi_matrix_f64(
                16,
                6 + (seed as usize + 3 * i) % 9,
                0.5,
                seed + 50 + i as u64,
                1,
            ))
        })
        .collect();
    if with_large {
        // 192³ at N = 8: intensity 2Ns/(9N+8) ≈ 38 > 32 ⇒ the solo
        // striped path runs inside the same trace.
        a_pool.push(Arc::new(phi_matrix_f64(192, 192, 0.5, seed + 200, 0)));
        b_pool.push(Arc::new(phi_matrix_f64(192, 192, 0.5, seed + 201, 1)));
    }
    (a_pool, b_pool)
}

/// Submit `jobs` from `n_threads` submitter threads (striped assignment)
/// against `server`, wait out every handle, and return the results in
/// job order.
fn run_trace(
    server: &Server,
    jobs: &[Job],
    pools: &(Vec<Arc<MatF64>>, Vec<Arc<MatF64>>),
    n_threads: usize,
) -> Vec<MatF64> {
    let (a_pool, b_pool) = pools;
    let mut results: Vec<Option<MatF64>> = (0..jobs.len()).map(|_| None).collect();
    let collected: Vec<(usize, MatF64)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..n_threads)
            .map(|t| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    for (j, job) in jobs.iter().enumerate().skip(t).step_by(n_threads) {
                        let req = GemmRequest::new(
                            format!("tenant-{}", job.tenant),
                            a_pool[job.a_idx].clone(),
                            b_pool[job.b_idx].clone(),
                        );
                        let handle = server.submit(req).expect("trace jobs always admit");
                        out.push((j, handle));
                    }
                    out.into_iter()
                        .map(|(j, h)| (j, h.wait().expect("trace jobs always complete")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("submitter thread"))
            .collect()
    });
    for (j, c) in collected {
        results[j] = Some(c);
    }
    results
        .into_iter()
        .map(|r| r.expect("every job returned"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any interleaving of mixed-size shared/unique-operand submissions,
    /// from several threads, at W ∈ {1, 4}, is bitwise-equal to running
    /// the same products sequentially through `Ozaki2::dgemm`.
    #[test]
    fn any_interleaving_matches_sequential_dgemm(
        n_jobs in 1usize..=24,
        n_small in 1usize..=4,
        with_large in any::<bool>(),
        n_threads in 1usize..=3,
        window_us in 0u64..800,
        max_batch in 1usize..=8,
        seed in 0u64..1000,
    ) {
        let nmod = 8usize;
        let pools = operand_pools(n_small, with_large, seed);
        let (a_pool, b_pool) = &pools;
        // Deterministic pseudo-random trace over the pools; when a large
        // pair exists it is submitted at least once, mid-trace.
        let mut jobs: Vec<Job> = (0..n_jobs)
            .map(|j| {
                let r = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add((j as u64).wrapping_mul(1442695040888963407));
                Job {
                    a_idx: (r % n_small as u64) as usize,
                    b_idx: ((r >> 16) % n_small as u64) as usize,
                    tenant: ((r >> 32) % 3) as usize,
                }
            })
            .collect();
        if with_large {
            jobs.insert(n_jobs / 2, Job { a_idx: n_small, b_idx: n_small, tenant: 2 });
        }

        let emu = Ozaki2::new(nmod, Mode::Fast);
        let oracle: Vec<MatF64> = jobs
            .iter()
            .map(|job| emu.dgemm(&a_pool[job.a_idx], &b_pool[job.b_idx]))
            .collect();

        let _guard = pool_lock();
        for w in WORKER_SWEEP {
            rayon::set_num_threads(w);
            let server = Server::builder(nmod, Mode::Fast)
                .coalesce_window(Duration::from_micros(window_us))
                .max_batch(max_batch)
                .build();
            let got = run_trace(&server, &jobs, &pools, n_threads);
            let stats = server.stats();
            prop_assert_eq!(stats.submitted, jobs.len() as u64);
            prop_assert_eq!(stats.completed, jobs.len() as u64);
            server.shutdown();
            for (j, (g, o)) in got.iter().zip(&oracle).enumerate() {
                prop_assert_eq!(g, o, "job {} diverged at W={}", j, w);
            }
        }
        rayon::set_num_threads(0);
    }

    /// Pause/resume burst coalescing never changes results either: a
    /// whole paused backlog released at once (maximum batch pressure)
    /// stays bitwise-equal to the sequential oracle at W ∈ {1, 4}.
    #[test]
    fn paused_burst_matches_sequential_dgemm(
        n_jobs in 1usize..=16,
        n_small in 1usize..=3,
        max_batch in 1usize..=6,
        seed in 0u64..1000,
    ) {
        let nmod = 6usize;
        let (a_pool, b_pool) = operand_pools(n_small, false, seed);
        let jobs: Vec<(usize, usize)> = (0..n_jobs)
            .map(|j| {
                let r = seed.wrapping_add(j as u64).wrapping_mul(0x9e3779b97f4a7c15);
                ((r % n_small as u64) as usize, ((r >> 8) % n_small as u64) as usize)
            })
            .collect();
        let emu = Ozaki2::new(nmod, Mode::Fast);
        let oracle: Vec<MatF64> = jobs
            .iter()
            .map(|&(ai, bi)| emu.dgemm(&a_pool[ai], &b_pool[bi]))
            .collect();

        let _guard = pool_lock();
        for w in WORKER_SWEEP {
            rayon::set_num_threads(w);
            let server = Server::builder(nmod, Mode::Fast)
                .max_batch(max_batch)
                .queue_depth(n_jobs.max(1))
                .build();
            server.pause();
            let handles: Vec<_> = jobs
                .iter()
                .map(|&(ai, bi)| {
                    server
                        .submit(GemmRequest::new("burst", a_pool[ai].clone(), b_pool[bi].clone()))
                        .expect("admitted while paused")
                })
                .collect();
            server.resume();
            for (j, h) in handles.into_iter().enumerate() {
                let c = h.wait().expect("burst completes");
                prop_assert_eq!(&c, &oracle[j], "burst job {} diverged at W={}", j, w);
            }
        }
        rayon::set_num_threads(0);
    }
}
