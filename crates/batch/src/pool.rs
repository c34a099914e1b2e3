//! A checkout pool of pipeline [`Workspace`]s.
//!
//! Each concurrently executing batch item needs its own scratch (packed
//! panels for view operands, residue planes, the INT32 product plane).
//! Allocating a fresh [`Workspace`] per item would put multi-megabyte
//! allocations on the hot path; the pool instead keeps returned
//! workspaces alive — each already grown to its high-water mark — and
//! hands them back out on the next checkout. In steady state a batched
//! call performs **zero** workspace allocations: the pool holds one
//! grown workspace per peak-concurrent item.
//!
//! The free list sits behind **one** lock, held only for a push or a
//! checkout, so a checkout from any thread reuses any parked workspace:
//! the pool never creates one while another is parked. A checkout takes
//! the largest parked workspace, so a large item never grows a small one
//! while a large one sits parked: the pool grows a second large
//! workspace only for a second large item running at the same time.

use ozaki2::Workspace;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Pool of reusable pipeline workspaces (see the module docs).
///
/// The pool is panic-hardened: a guard dropped during unwinding scrubs
/// its workspace before returning it (a panic mid-pipeline can leave
/// half-written panels behind), and a mutex poisoned by a panicking
/// holder is recovered rather than propagated — the free list is always
/// structurally valid, so later checkouts keep working.
///
/// # Examples
/// ```
/// use gemm_batch::WorkspacePool;
///
/// let pool = WorkspacePool::new();
/// {
///     let _ws = pool.checkout(); // fresh workspace created
/// } // returned on drop
/// let _ws2 = pool.checkout(); // the same workspace, reused
/// assert_eq!(pool.created(), 1);
/// ```
#[derive(Default)]
pub struct WorkspacePool {
    free: Mutex<Vec<Workspace>>,
    created: AtomicUsize,
}

impl WorkspacePool {
    /// Empty pool; workspaces are created on demand at checkout.
    pub fn new() -> Self {
        Self::default()
    }

    /// The free list, recovering from lock poisoning: the protected
    /// `Vec<Workspace>` is never left mid-mutation by pool code (push /
    /// pop / iterate are the only operations), so a poisoned lock only
    /// means some *holder* of a checked-out workspace panicked — the
    /// guard's drop has already scrubbed that workspace.
    fn free(&self) -> MutexGuard<'_, Vec<Workspace>> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Check out a workspace (the largest parked one when any is
    /// available). The guard returns it to the pool on drop.
    pub fn checkout(&self) -> PooledWorkspace<'_> {
        gemm_obs::catalog::WORKSPACE_CHECKOUTS.inc();
        let parked = {
            let mut free = self.free();
            let largest = (0..free.len()).max_by_key(|&i| free[i].bytes());
            largest.map(|i| free.swap_remove(i))
        };
        let ws = parked.unwrap_or_else(|| {
            self.created.fetch_add(1, Ordering::Relaxed);
            gemm_obs::catalog::WORKSPACE_CREATED.inc();
            Workspace::new()
        });
        PooledWorkspace {
            pool: self,
            ws: Some(ws),
        }
    }

    /// Total workspaces ever created — the peak checkout concurrency the
    /// pool has seen. Flat across steady-state iterations.
    pub fn created(&self) -> usize {
        self.created.load(Ordering::Relaxed)
    }

    /// Workspaces currently parked in the pool.
    pub fn available(&self) -> usize {
        self.free().len()
    }

    /// Summed scratch footprint of the parked workspaces in bytes.
    /// Stable across steady-state iterations (grow-once, reuse forever).
    pub fn bytes(&self) -> usize {
        self.free().iter().map(Workspace::bytes).sum()
    }
}

/// Checkout guard: derefs to [`Workspace`], returns it to the pool on
/// drop.
pub struct PooledWorkspace<'p> {
    pool: &'p WorkspacePool,
    ws: Option<Workspace>,
}

impl Deref for PooledWorkspace<'_> {
    type Target = Workspace;
    fn deref(&self) -> &Workspace {
        self.ws.as_ref().expect("workspace present until drop")
    }
}

impl DerefMut for PooledWorkspace<'_> {
    fn deref_mut(&mut self) -> &mut Workspace {
        self.ws.as_mut().expect("workspace present until drop")
    }
}

impl Drop for PooledWorkspace<'_> {
    fn drop(&mut self) {
        if let Some(mut ws) = self.ws.take() {
            // A panic mid-pipeline can leave half-written panels or
            // residue planes behind; the buffers stay correctly sized,
            // but scrub them so the next borrower starts from zeroed
            // scratch rather than another item's torn state.
            if std::thread::panicking() {
                ws.scrub();
            }
            self.pool.free().push(ws);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_reuses_returned_workspaces() {
        let pool = WorkspacePool::new();
        {
            let _a = pool.checkout();
            let _b = pool.checkout();
            assert_eq!(pool.created(), 2);
            assert_eq!(pool.available(), 0);
        }
        assert_eq!(pool.available(), 2);
        {
            let _c = pool.checkout();
            assert_eq!(pool.created(), 2, "reuse, not create");
            assert_eq!(pool.available(), 1);
        }
        assert_eq!(pool.available(), 2);
    }

    #[test]
    fn pooled_workspace_keeps_its_growth() {
        use gemm_dense::workload::phi_matrix_f64;
        use ozaki2::{GemmArgs, Mode, Ozaki2};
        let pool = WorkspacePool::new();
        let emu = Ozaki2::new(10, Mode::Fast);
        let a = phi_matrix_f64(16, 24, 0.5, 1, 0);
        let b = phi_matrix_f64(24, 12, 0.5, 1, 1);
        {
            let mut ws = pool.checkout();
            let _ = emu.gemm(GemmArgs::new(&a, &b).workspace(&mut ws));
        }
        let grown = pool.bytes();
        assert!(grown > 0, "workspace growth must survive the return");
        // Steady state: same shape, no further growth, no new workspaces.
        for _ in 0..3 {
            let mut ws = pool.checkout();
            let _ = emu.gemm(GemmArgs::new(&a, &b).workspace(&mut ws));
            drop(ws);
            assert_eq!(pool.bytes(), grown, "no realloc in steady state");
            assert_eq!(pool.created(), 1);
        }
    }

    #[test]
    fn cross_shard_adoption_beats_allocation() {
        use rayon::prelude::*;
        // Workspaces parked in pool-worker home shards must be found by
        // checkouts from other threads instead of allocating anew.
        rayon::set_num_threads(4);
        let pool = WorkspacePool::new();
        let jobs: Vec<usize> = (0..8).collect();
        jobs.into_par_iter().for_each(|_| {
            let _ws = pool.checkout();
            std::thread::yield_now();
        });
        let created = pool.created();
        assert!(created >= 1);
        assert_eq!(pool.available(), created, "all returned");
        // The external submitter homes to the last shard; adopting from
        // the worker shards must cover every checkout without allocating.
        let guards: Vec<_> = (0..created).map(|_| pool.checkout()).collect();
        assert_eq!(pool.created(), created, "adopt, never allocate");
        drop(guards);
        rayon::set_num_threads(0);
    }
}
