//! # gemm-batch — batched execution runtime for Ozaki Scheme II
//!
//! Real matrix-engine workloads are dominated by *many* GEMMs, often
//! small and often sharing an operand (weight-stationary inference, the
//! shared component products of CRT complex multiplication, blocked
//! factorizations). Driving [`ozaki2::Ozaki2`] one call at a time leaves
//! three kinds of performance on the table, and this crate's
//! [`BatchedOzaki2`] collects all three:
//!
//! * **Prepared-operand reuse** — Algorithm 1's front end (scale, trunc,
//!   convert, pack; lines 1–5) depends on one operand only, so a shared
//!   matrix is prepared **once** and its packed residue panels reused by
//!   every item, and across calls via a small LRU keyed on operand
//!   identity ([`OperandCache`]). The cache sits behind one lock: it is
//!   consulted only on the calling thread while a call resolves its
//!   operands, never from the workers that run the items.
//! * **Workspace pooling** — per-item scratch comes from a
//!   [`WorkspacePool`] of grow-once workspaces, so steady-state batched
//!   iterations allocate nothing beyond the output buffers.
//! * **Scheduling** — small items run one-per-worker with engine stripes
//!   disabled, large items run striped one after another; the crossover
//!   comes from the plan-level arithmetic intensity ([`Schedule`]).
//!
//! Every batched result is **bit-identical** to the equivalent sequence
//! of [`ozaki2::Ozaki2::dgemm`] / `sgemm` calls — caching, pooling and
//! either schedule change *when* work happens, never *what* is computed.
//! (In [`Mode::Accurate`] the scales couple `A` and `B`, so operands
//! cannot be prepared one-sided; accurate batches skip the cache and run
//! every item over its two views, on the same schedules.)
//!
//! ```
//! use gemm_batch::{BatchedOzaki2, StridedBatch};
//! use gemm_dense::workload::phi_matrix_f64;
//! use gemm_dense::MatF64;
//! use ozaki2::{Mode, Ozaki2};
//!
//! // A weight-stationary micro-batch: one shared B, four streaming As.
//! let b = phi_matrix_f64(32, 24, 0.5, 7, 1);
//! let a_stream: Vec<f64> = (0..4u64)
//!     .flat_map(|s| phi_matrix_f64(16, 32, 0.5, s, 0).into_vec())
//!     .collect();
//! let runtime = BatchedOzaki2::new(15, Mode::Fast);
//! let mut cs = vec![MatF64::zeros(16, 24); 4];
//! runtime.try_batched_into(
//!     &StridedBatch::packed(&a_stream, 16, 32, 4),
//!     &StridedBatch::broadcast(&b, 4), // stride 0: prepared once
//!     &mut cs,
//! )?;
//! // Bit-identical to the per-item emulator.
//! let emu = Ozaki2::new(15, Mode::Fast);
//! for (s, c) in cs.iter().enumerate() {
//!     let a = phi_matrix_f64(16, 32, 0.5, s as u64, 0);
//!     assert_eq!(c, &emu.dgemm(&a, &b));
//! }
//! # Ok::<(), ozaki2::EmulationError>(())
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod pool;
pub mod schedule;
pub mod strided;

pub use cache::{OperandCache, OperandKey};
pub use pool::{PooledWorkspace, WorkspacePool};
pub use schedule::{Schedule, INTENSITY_CROSSOVER};
pub use strided::StridedBatch;

use gemm_dense::{MatF64, MatView, Matrix};
use ozaki2::{
    Element, EmulationError, GemmArgs, Mode, OperandInput, OperandSide, Ozaki2, PreparedOperand,
};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Default capacity of the cross-call prepared-operand LRU.
pub const DEFAULT_CACHE_CAPACITY: usize = 8;

/// One schedulable unit of work. Each operand is the item's view
/// (converted in the worker's pooled workspace — zero-copy, even for
/// `ld`-strided items) or a preparation borrowed from the call's resolved
/// `Arc`s.
struct Job<'s, T: Element> {
    a: OperandInput<'s, T>,
    b: OperandInput<'s, T>,
    schedule: Schedule,
    out: &'s mut Matrix<T>,
    err: &'s mut Option<EmulationError>,
}

/// A job operand: the resolved preparation if there is one, else the view.
fn operand<'s, T: Element>(
    prepared: &'s Option<Arc<PreparedOperand>>,
    view: MatView<'s, T>,
) -> OperandInput<'s, T> {
    prepared.as_deref().map_or(view.into(), Into::into)
}

/// The batched Ozaki Scheme II runtime: prepared-operand cache +
/// workspace pool + many-GEMM scheduler. See the crate docs for the
/// design and the bit-identicality contract.
///
/// Two entries, one per job: [`BatchedOzaki2::try_batched_into`] for
/// uniform strided batches (either precision) and
/// [`BatchedOzaki2::try_dgemm_group_into`] for ragged groups. Both write
/// into caller-owned outputs and share one operand-reuse rule and one
/// round runner, in either mode.
///
/// The runtime is `Sync`: one instance can serve concurrent callers (the
/// cache and the pool are each behind one lock).
///
/// # Examples
/// ```
/// use gemm_batch::BatchedOzaki2;
/// use gemm_dense::workload::phi_matrix_f64;
/// use gemm_dense::MatF64;
/// use ozaki2::{Mode, Ozaki2};
///
/// let runtime = BatchedOzaki2::new(12, Mode::Fast);
/// // Ragged shape group: items need not share shapes — sharing an
/// // operand (here `w`) is still detected and prepared once.
/// let w = phi_matrix_f64(20, 16, 0.5, 1, 1);
/// let a0 = phi_matrix_f64(8, 20, 0.5, 2, 0);
/// let a1 = phi_matrix_f64(30, 20, 0.5, 3, 0);
/// let mut cs = [MatF64::zeros(8, 16), MatF64::zeros(30, 16)];
/// runtime.try_dgemm_group_into(&[(&a0, &w), (&a1, &w)], &mut cs)?;
/// let emu = Ozaki2::new(12, Mode::Fast);
/// assert_eq!(cs[0], emu.dgemm(&a0, &w));
/// assert_eq!(cs[1], emu.dgemm(&a1, &w));
/// # Ok::<(), ozaki2::EmulationError>(())
/// ```
pub struct BatchedOzaki2 {
    emu: Ozaki2,
    pool: WorkspacePool,
    cache: OperandCache,
}

impl BatchedOzaki2 {
    /// Runtime with `n_moduli ∈ 2..=20` and the given mode, retaining up
    /// to [`DEFAULT_CACHE_CAPACITY`] prepared operands across calls.
    pub fn new(n_moduli: usize, mode: Mode) -> Self {
        Self {
            emu: Ozaki2::new(n_moduli, mode),
            pool: WorkspacePool::new(),
            cache: OperandCache::new(DEFAULT_CACHE_CAPACITY),
        }
    }

    /// Set the fault-tolerance policy of the underlying emulator (every
    /// batch item executes under it, including items running concurrently
    /// on pool workers). See `ozaki2::FaultPolicy`.
    pub fn with_fault_policy(mut self, policy: ozaki2::FaultPolicy) -> Self {
        self.emu = self.emu.with_fault_policy(policy);
        self
    }

    /// The workspace pool (inspect for steady-state no-realloc checks).
    pub fn pool(&self) -> &WorkspacePool {
        &self.pool
    }

    /// The prepared-operand cache (inspect hits/misses/footprint).
    pub fn cache(&self) -> &OperandCache {
        &self.cache
    }

    /// Batched emulated GEMM over uniform-shape strided batches, in
    /// either precision: `C_i ≈ A_i · B_i` for every item, written into
    /// caller-owned outputs (each must already have shape
    /// `(a.rows(), b.cols())`; fully overwritten).
    ///
    /// A broadcast (stride-0) side of a multi-item batch is prepared once
    /// and cached; per-item sides convert straight from their views in
    /// the workers' pooled workspaces and never touch the cache. A
    /// single-item batch consults the cache and prepares a side only on
    /// its second sighting ([`OperandCache::repeat_miss`]). With outputs
    /// reused across calls, steady-state iterations perform **zero** heap
    /// allocations beyond the grow-once pool and cache.
    ///
    /// # Errors
    /// [`EmulationError::ShapeMismatch`] on a shape or count mismatch;
    /// otherwise the first per-item error (non-finite input, `N > 18`
    /// for f32, a fault the policy could not recover).
    pub fn try_batched_into<T: Element>(
        &self,
        a: &StridedBatch<'_, T>,
        b: &StridedBatch<'_, T>,
        outs: &mut [Matrix<T>],
    ) -> Result<(), EmulationError> {
        let (m, k) = (a.rows(), a.cols());
        let (kb, n) = (b.rows(), b.cols());
        if k != kb || a.count() != b.count() || outs.len() != a.count() {
            return Err(EmulationError::ShapeMismatch);
        }
        if outs.iter().any(|c| c.shape() != (m, n)) {
            return Err(EmulationError::ShapeMismatch);
        }
        let count = a.count();
        if count == 0 {
            return Ok(());
        }

        // The stride-0 declaration separates the two policies: only a
        // broadcast side (or the lone item of a one-item batch) is worth
        // a cache lookup; per-item sides stay views.
        let side = |batch: &StridedBatch<'_, T>, side| {
            let shared = batch.is_broadcast() && count > 1;
            if shared || count == 1 {
                self.resolve(batch.view(0), side, shared)
            } else {
                Ok(None)
            }
        };
        let pa = side(a, OperandSide::A)?;
        let pb = side(b, OperandSide::B)?;
        let schedule =
            Schedule::choose_with(m, n, k, self.emu.n_moduli(), rayon::current_num_threads());
        let mut errs: Vec<Option<EmulationError>> = (0..count).map(|_| None).collect();
        let jobs = outs
            .iter_mut()
            .zip(errs.iter_mut())
            .enumerate()
            .map(|(i, (out, err))| Job {
                a: operand(&pa, a.view(i)),
                b: operand(&pb, b.view(i)),
                schedule,
                out,
                err,
            })
            .collect();
        self.run_round(jobs);
        collect_errors(errs)
    }

    /// Batched emulated DGEMM over a ragged group, into caller-owned
    /// outputs (each must already have shape `(a.rows(), b.cols())`;
    /// fully overwritten). Items may have arbitrary (compatible) shapes.
    /// Operands referenced by more than one item — compared by data
    /// identity — are prepared once and cached; an operand used once is
    /// prepared only on its second sighting across calls. Large items
    /// run striped, small items run one-per-worker. Together with the
    /// workspace pool and operand cache, steady-state rounds over
    /// recycled outputs allocate nothing.
    ///
    /// # Errors
    /// As [`BatchedOzaki2::try_batched_into`].
    pub fn try_dgemm_group_into(
        &self,
        items: &[(&MatF64, &MatF64)],
        outs: &mut [MatF64],
    ) -> Result<(), EmulationError> {
        if outs.len() != items.len() {
            return Err(EmulationError::ShapeMismatch);
        }
        for ((a, b), out) in items.iter().zip(outs.iter()) {
            if a.cols() != b.rows() || out.shape() != (a.rows(), b.cols()) {
                return Err(EmulationError::ShapeMismatch);
            }
        }
        if items.is_empty() {
            return Ok(());
        }

        // Identity-based sharing (side + data pointer + shape): operands
        // referenced by >= 2 items are prepared once (and cached across
        // calls); unique operands stay plain views unless the cache shows
        // they recur across calls.
        let id = |m: &MatF64, side| (side, m.as_slice().as_ptr() as usize, m.rows(), m.cols());
        let mut multiplicity = HashMap::new();
        for (a, b) in items {
            *multiplicity.entry(id(a, OperandSide::A)).or_insert(0) += 1;
            *multiplicity.entry(id(b, OperandSide::B)).or_insert(0) += 1;
        }
        let mut prepared: HashMap<_, Arc<PreparedOperand>> = HashMap::new();
        let mut side = |m: &MatF64, side| -> Result<_, EmulationError> {
            let key = id(m, side);
            if let Some(p) = prepared.get(&key) {
                return Ok(Some(p.clone()));
            }
            let p = self.resolve(m.view(), side, multiplicity[&key] >= 2)?;
            if let Some(p) = &p {
                prepared.insert(key, p.clone());
            }
            Ok(p)
        };
        let resolved = items
            .iter()
            .map(|(a, b)| Ok((side(a, OperandSide::A)?, side(b, OperandSide::B)?)))
            .collect::<Result<Vec<_>, EmulationError>>()?;
        let (nmod, workers) = (self.emu.n_moduli(), rayon::current_num_threads());
        let mut errs: Vec<Option<EmulationError>> = (0..items.len()).map(|_| None).collect();
        let jobs = items
            .iter()
            .zip(&resolved)
            .zip(outs.iter_mut().zip(errs.iter_mut()))
            .map(|(((a, b), (pa, pb)), (out, err))| Job {
                a: operand(pa, a.view()),
                b: operand(pb, b.view()),
                schedule: Schedule::choose_with(a.rows(), b.cols(), a.cols(), nmod, workers),
                out,
                err,
            })
            .collect();
        self.run_round(jobs);
        collect_errors(errs)
    }

    // -- internals -------------------------------------------------------

    /// The operand-reuse rule both entries share. Only [`Mode::Fast`]
    /// prepares, so any other mode returns `None` without touching the
    /// cache. A cache hit is always reused. On a miss, an operand shared
    /// within the call (`shared_in_call`) is prepared and retained at once
    /// — the within-call reuse pays immediately; a lone operand goes
    /// through probation ([`OperandCache::repeat_miss`]) and is prepared
    /// only on its second sighting, so a one-off operand stays on the
    /// cheaper zero-alloc view path (`None`).
    fn resolve<T: Element>(
        &self,
        view: MatView<'_, T>,
        side: OperandSide,
        shared_in_call: bool,
    ) -> Result<Option<Arc<PreparedOperand>>, EmulationError> {
        if self.emu.mode() != Mode::Fast {
            return Ok(None);
        }
        let key = OperandKey::view(&view, side, self.emu.n_moduli());
        if let Some(hit) = self.cache.get(&key) {
            return Ok(Some(hit));
        }
        if !shared_in_call && !self.cache.repeat_miss(&key) {
            return Ok(None);
        }
        let prepared = Arc::new(self.emu.prepare(side, view)?);
        self.cache.insert(key, prepared.clone());
        Ok(Some(prepared))
    }

    /// The round runner both entries share: `IntraItem` jobs first,
    /// striped one at a time; then the `InterItem` jobs fan out one item
    /// per worker, or run on the caller when there is one, which opens no
    /// pool region. An empty class is skipped. Each job records its own
    /// error.
    fn run_round<T: Element>(&self, jobs: Vec<Job<'_, T>>) {
        let _span = gemm_obs::span("batch_round", "batch");
        let (intra, inter): (Vec<_>, Vec<_>) = jobs
            .into_iter()
            .partition(|job| job.schedule.intra_parallel());
        let run = |job: Job<'_, T>| self.run_job(job);
        if !intra.is_empty() {
            gemm_obs::catalog::BATCH_ITEMS_INTRA.add(intra.len() as u64);
            intra.into_iter().for_each(run);
        }
        if !inter.is_empty() {
            gemm_obs::catalog::BATCH_ITEMS_INTER.add(inter.len() as u64);
            if inter.len() == 1 {
                inter.into_iter().for_each(run);
            } else {
                inter.into_par_iter().for_each(run);
            }
        }
    }

    /// Execute one item with a pooled workspace.
    fn run_job<T: Element>(&self, job: Job<'_, T>) {
        let mut ws = self.pool.checkout();
        let args = GemmArgs::new(job.a, job.b)
            .workspace(&mut ws)
            .parallel(job.schedule.intra_parallel());
        if let Err(e) = self.emu.gemm_into(args, job.out.view_mut()) {
            *job.err = Some(e);
        }
    }
}

/// First recorded per-item error, if any.
fn collect_errors(errs: Vec<Option<EmulationError>>) -> Result<(), EmulationError> {
    match errs.into_iter().flatten().next() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}
