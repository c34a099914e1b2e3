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
//! cannot be prepared one-sided; accurate batches keep the pool and
//! scheduler but skip the cache.)
//!
//! ```
//! use gemm_batch::{BatchedOzaki2, StridedBatchF64};
//! use gemm_dense::workload::phi_matrix_f64;
//! use ozaki2::{Mode, Ozaki2};
//!
//! // A weight-stationary micro-batch: one shared B, four streaming As.
//! let b = phi_matrix_f64(32, 24, 0.5, 7, 1);
//! let a_stream: Vec<f64> = (0..4u64)
//!     .flat_map(|s| phi_matrix_f64(16, 32, 0.5, s, 0).into_vec())
//!     .collect();
//! let runtime = BatchedOzaki2::new(15, Mode::Fast);
//! let cs = runtime.dgemm_batched(
//!     &StridedBatchF64::packed(&a_stream, 16, 32, 4),
//!     &StridedBatchF64::broadcast(&b, 4), // stride 0: prepared once
//! );
//! // Bit-identical to the per-item emulator.
//! let emu = Ozaki2::new(15, Mode::Fast);
//! for (s, c) in cs.iter().enumerate() {
//!     let a = phi_matrix_f64(16, 32, 0.5, s as u64, 0);
//!     assert_eq!(c, &emu.dgemm(&a, &b));
//! }
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod pool;
pub mod schedule;
pub mod strided;

pub use cache::{OperandCache, OperandKey};
pub use pool::{PooledWorkspace, WorkspacePool};
pub use schedule::{Schedule, INTENSITY_CROSSOVER};
pub use strided::{StridedBatch, StridedBatchF32, StridedBatchF64};

use gemm_dense::{MatF32, MatF64, MatView, Matrix};
use ozaki2::{
    Element, EmulationError, GemmArgs, Mode, OperandInput, OperandSide, Ozaki2, PreparedOperand,
};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Default capacity of the cross-call prepared-operand LRU.
pub const DEFAULT_CACHE_CAPACITY: usize = 8;

/// One side of a batch item: a borrowed view converted in the worker's
/// pooled workspace (zero-copy, even for `ld`-strided items), or a shared
/// preparation.
enum Side<'s, T: Element> {
    View(MatView<'s, T>),
    Prep(Arc<PreparedOperand>),
}

impl<T: Element> Side<'_, T> {
    fn input(&self) -> OperandInput<'_, T> {
        match self {
            Side::View(v) => OperandInput::View(*v),
            Side::Prep(p) => OperandInput::Prepared(p),
        }
    }
}

/// One schedulable unit of work.
struct Job<'s, T: Element> {
    a: Side<'s, T>,
    b: Side<'s, T>,
    parallel: bool,
    out: &'s mut Matrix<T>,
    err: &'s mut Option<EmulationError>,
}

/// The batched Ozaki Scheme II runtime: prepared-operand cache +
/// workspace pool + many-GEMM scheduler. See the crate docs for the
/// design and the bit-identicality contract.
///
/// The runtime is `Sync`: one instance can serve concurrent callers (the
/// cache is behind one lock, the pool is sharded per worker).
///
/// # Examples
/// ```
/// use gemm_batch::BatchedOzaki2;
/// use gemm_dense::workload::phi_matrix_f64;
/// use ozaki2::{Mode, Ozaki2};
///
/// let runtime = BatchedOzaki2::new(12, Mode::Fast);
/// // Ragged shape group: items need not share shapes — sharing an
/// // operand (here `w`) is still detected and prepared once.
/// let w = phi_matrix_f64(20, 16, 0.5, 1, 1);
/// let a0 = phi_matrix_f64(8, 20, 0.5, 2, 0);
/// let a1 = phi_matrix_f64(30, 20, 0.5, 3, 0);
/// let cs = runtime.dgemm_group(&[(&a0, &w), (&a1, &w)]);
/// let emu = Ozaki2::new(12, Mode::Fast);
/// assert_eq!(cs[0], emu.dgemm(&a0, &w));
/// assert_eq!(cs[1], emu.dgemm(&a1, &w));
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

    /// The underlying per-call emulator (the bit-identicality reference).
    pub fn emulator(&self) -> Ozaki2 {
        self.emu
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

    /// Drop every cached preparation. Rarely needed for correctness —
    /// the full-content fingerprint already prevents a mutated or
    /// reallocated operand from hitting — but useful to release the
    /// retained panel memory of operands that will not recur.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    // -- uniform-shape strided batches ----------------------------------

    /// Batched emulated DGEMM over uniform-shape strided batches:
    /// `C_i ≈ A_i · B_i` for every item. Broadcast (stride-0) operands
    /// are prepared once and shared.
    ///
    /// # Panics
    /// On shape/count mismatch or non-finite input (see
    /// [`BatchedOzaki2::try_dgemm_batched`]).
    pub fn dgemm_batched(&self, a: &StridedBatchF64<'_>, b: &StridedBatchF64<'_>) -> Vec<MatF64> {
        self.try_dgemm_batched(a, b)
            .unwrap_or_else(|e| panic!("dgemm_batched: {e}"))
    }

    /// Checked form of [`BatchedOzaki2::dgemm_batched`].
    pub fn try_dgemm_batched(
        &self,
        a: &StridedBatchF64<'_>,
        b: &StridedBatchF64<'_>,
    ) -> Result<Vec<MatF64>, EmulationError> {
        let mut outs: Vec<MatF64> = (0..a.count())
            .map(|_| Matrix::zeros(a.rows(), b.cols()))
            .collect();
        self.try_dgemm_batched_into(a, b, &mut outs)?;
        Ok(outs)
    }

    /// [`BatchedOzaki2::try_dgemm_batched`] into caller-owned outputs
    /// (each must already have shape `(a.rows(), b.cols())`; fully
    /// overwritten). With outputs reused across calls, steady-state
    /// iterations perform **zero** heap allocations beyond the grow-once
    /// pool and cache.
    pub fn try_dgemm_batched_into(
        &self,
        a: &StridedBatchF64<'_>,
        b: &StridedBatchF64<'_>,
        outs: &mut [MatF64],
    ) -> Result<(), EmulationError> {
        self.batched_into(a, b, outs)
    }

    /// Batched emulated SGEMM over uniform-shape strided f32 batches.
    /// Broadcast operands (either side) are prepared once and cached;
    /// per-item operands convert straight from their f32 views in the
    /// workers' pooled workspaces — no widened copy, and nothing is
    /// allocated beyond the returned outputs once the pool has grown.
    ///
    /// # Panics
    /// On shape/count mismatch, non-finite input, or `N > 18`.
    pub fn sgemm_batched(&self, a: &StridedBatchF32<'_>, b: &StridedBatchF32<'_>) -> Vec<MatF32> {
        self.try_sgemm_batched(a, b)
            .unwrap_or_else(|e| panic!("sgemm_batched: {e}"))
    }

    /// Checked form of [`BatchedOzaki2::sgemm_batched`].
    pub fn try_sgemm_batched(
        &self,
        a: &StridedBatchF32<'_>,
        b: &StridedBatchF32<'_>,
    ) -> Result<Vec<MatF32>, EmulationError> {
        let mut outs: Vec<MatF32> = (0..a.count())
            .map(|_| Matrix::zeros(a.rows(), b.cols()))
            .collect();
        self.batched_into(a, b, &mut outs)?;
        Ok(outs)
    }

    // -- ragged shape groups --------------------------------------------

    /// Batched emulated DGEMM over a ragged group: items may have
    /// arbitrary (compatible) shapes. Operands referenced by more than
    /// one item — compared by data identity — are prepared once; large
    /// items run striped, small items run one-per-worker.
    ///
    /// # Panics
    /// On a shape mismatch or non-finite input (see
    /// [`BatchedOzaki2::try_dgemm_group`]).
    pub fn dgemm_group(&self, items: &[(&MatF64, &MatF64)]) -> Vec<MatF64> {
        self.try_dgemm_group(items)
            .unwrap_or_else(|e| panic!("dgemm_group: {e}"))
    }

    /// Checked form of [`BatchedOzaki2::dgemm_group`].
    pub fn try_dgemm_group(
        &self,
        items: &[(&MatF64, &MatF64)],
    ) -> Result<Vec<MatF64>, EmulationError> {
        let mut outs: Vec<MatF64> = items
            .iter()
            .map(|(a, b)| Matrix::zeros(a.rows(), b.cols()))
            .collect();
        self.try_dgemm_group_into(items, &mut outs)?;
        Ok(outs)
    }

    /// [`BatchedOzaki2::try_dgemm_group`] into caller-owned outputs
    /// (each must already have shape `(a.rows(), b.cols())`; fully
    /// overwritten). The allocation-free form for serving loops that
    /// recycle output buffers round after round — together with the
    /// workspace pool and operand cache, steady-state group rounds
    /// allocate nothing.
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

        if self.emu.mode() != Mode::Fast {
            let mut ws = self.pool.checkout();
            for ((a, b), out) in items.iter().zip(outs.iter_mut()) {
                self.emu
                    .gemm_into(GemmArgs::new(*a, *b).workspace(&mut ws), out.view_mut())?;
            }
            return Ok(());
        }

        // Identity-based sharing: operands referenced by >= 2 items are
        // prepared once (and cached across calls); unique operands stay
        // plain views and convert in the worker's pooled workspace — unless a
        // previous call already cached them.
        let mult_a = multiplicities(items.iter().map(|(a, _)| ident(a)));
        let mult_b = multiplicities(items.iter().map(|(_, b)| ident(b)));
        let workers = rayon::current_num_threads();
        let nmod = self.emu.n_moduli();

        let mut errs: Vec<Option<EmulationError>> = (0..items.len()).map(|_| None).collect();
        let mut prepared_a: HashMap<(usize, usize, usize), Arc<PreparedOperand>> = HashMap::new();
        let mut prepared_b: HashMap<(usize, usize, usize), Arc<PreparedOperand>> = HashMap::new();
        let mut small = Vec::new();
        let mut large = Vec::new();
        for (((a, b), out), err) in items.iter().zip(outs.iter_mut()).zip(errs.iter_mut()) {
            let (m, k) = a.shape();
            let n = b.cols();
            let a_side = self.group_side(a, OperandSide::A, mult_a[&ident(a)], &mut prepared_a)?;
            let b_side = self.group_side(b, OperandSide::B, mult_b[&ident(b)], &mut prepared_b)?;
            let schedule = Schedule::choose_with(m, n, k, nmod, items.len(), workers);
            let job = Job {
                a: a_side,
                b: b_side,
                parallel: schedule.intra_parallel(),
                out,
                err,
            };
            match schedule {
                Schedule::InterItem => small.push(job),
                Schedule::IntraItem => large.push(job),
            }
        }
        // Large items first, striped one at a time; then the small tail
        // fans out one item per worker.
        self.run_jobs(large, Schedule::IntraItem);
        self.run_jobs(small, Schedule::InterItem);
        collect_errors(errs)?;
        Ok(())
    }

    // -- internals -------------------------------------------------------

    /// Shared body of the uniform strided entries (both precisions).
    fn batched_into<T: Element>(
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

        if self.emu.mode() != Mode::Fast {
            // Accurate mode scales A and B jointly: no one-sided
            // preparation exists. Run the plain per-item facade over a
            // pooled workspace (items striped internally) — still
            // zero-copy: the facade takes the item views directly.
            let mut ws = self.pool.checkout();
            for (i, out) in outs.iter_mut().enumerate() {
                self.emu.gemm_into(
                    GemmArgs::new(a.view(i), b.view(i)).workspace(&mut ws),
                    out.view_mut(),
                )?;
            }
            return Ok(());
        }

        // Fast mode: shared sides go through the prepared-operand cache,
        // per-item sides convert in the worker's pooled workspace.
        let pa_shared = self.shared(a, OperandSide::A)?;
        let pb_shared = self.shared(b, OperandSide::B)?;
        let schedule = Schedule::choose(m, n, k, self.emu.n_moduli(), count);
        let parallel = schedule.intra_parallel();
        let mut errs: Vec<Option<EmulationError>> = (0..count).map(|_| None).collect();
        let side = |shared: &Option<Arc<PreparedOperand>>, view| match shared {
            Some(p) => Side::Prep(p.clone()),
            None => Side::View(view),
        };
        let jobs: Vec<Job<'_, T>> = outs
            .iter_mut()
            .zip(errs.iter_mut())
            .enumerate()
            .map(|(i, (out, err))| Job {
                a: side(&pa_shared, a.view(i)),
                b: side(&pb_shared, b.view(i)),
                parallel,
                out,
                err,
            })
            .collect();
        self.run_jobs(jobs, schedule);
        collect_errors(errs)
    }

    /// Resolve a strided side to a shared preparation. Broadcast
    /// multi-item batches always prepare (the within-call reuse pays
    /// immediately). A single-item batch consults the cache and, on a
    /// miss, goes through probation ([`OperandCache::repeat_miss`]): only
    /// an operand seen on an earlier call gets prepared and retained —
    /// a one-off operand stays on the cheaper zero-alloc view path.
    fn shared<T: Element>(
        &self,
        batch: &StridedBatch<'_, T>,
        side: OperandSide,
    ) -> Result<Option<Arc<PreparedOperand>>, EmulationError> {
        let within_call = batch.is_broadcast() && batch.count() > 1;
        if !within_call && batch.count() != 1 {
            return Ok(None);
        }
        let view = batch.view(0);
        let key = OperandKey::view(&view, side, self.emu.n_moduli(), self.emu.mode());
        if let Some(hit) = self.cache.get(&key) {
            return Ok(Some(hit));
        }
        if !within_call && !self.cache.repeat_miss(&key) {
            return Ok(None);
        }
        let prepared = Arc::new(self.emu.prepare(side, view)?);
        self.cache.insert(key, prepared.clone());
        Ok(Some(prepared))
    }

    /// Resolve one group-item side: operands shared by ≥ 2 items are
    /// prepared and cached immediately; unique operands stay plain views
    /// (converting in the worker's pooled workspace beats allocating
    /// panels) unless a cache hit or a probation repeat sighting shows
    /// they recur across calls.
    fn group_side<'s>(
        &self,
        mat: &'s MatF64,
        side: OperandSide,
        multiplicity: usize,
        local: &mut HashMap<(usize, usize, usize), Arc<PreparedOperand>>,
    ) -> Result<Side<'s, f64>, EmulationError> {
        let id = ident(mat);
        if let Some(p) = local.get(&id) {
            return Ok(Side::Prep(p.clone()));
        }
        let key = OperandKey::view(&mat.view(), side, self.emu.n_moduli(), self.emu.mode());
        if let Some(hit) = self.cache.get(&key) {
            local.insert(id, hit.clone());
            return Ok(Side::Prep(hit));
        }
        if multiplicity < 2 && !self.cache.repeat_miss(&key) {
            return Ok(Side::View(mat.view()));
        }
        let prepared = Arc::new(self.emu.prepare(side, mat)?);
        self.cache.insert(key, prepared.clone());
        local.insert(id, prepared.clone());
        Ok(Side::Prep(prepared))
    }

    /// Execute jobs under the chosen schedule.
    fn run_jobs<T: Element>(&self, jobs: Vec<Job<'_, T>>, schedule: Schedule) {
        let _span = gemm_obs::span("batch_round", "batch");
        let run = |job: Job<'_, T>| self.run_job(job);
        match schedule {
            Schedule::InterItem => {
                gemm_obs::catalog::BATCH_ITEMS_INTER.add(jobs.len() as u64);
                jobs.into_par_iter().for_each(run)
            }
            Schedule::IntraItem => {
                gemm_obs::catalog::BATCH_ITEMS_INTRA.add(jobs.len() as u64);
                jobs.into_iter().for_each(run)
            }
        }
    }

    /// Execute one item with a pooled workspace.
    fn run_job<T: Element>(&self, job: Job<'_, T>) {
        let mut ws = self.pool.checkout();
        let out = job.out.view_mut();
        if let Err(e) = self
            .emu
            .execute(job.a.input(), job.b.input(), &mut ws, job.parallel, out)
        {
            *job.err = Some(e);
        }
    }
}

/// Data identity of a matrix: pointer + shape.
fn ident(m: &MatF64) -> (usize, usize, usize) {
    (m.as_slice().as_ptr() as usize, m.rows(), m.cols())
}

/// Count occurrences of each identity.
fn multiplicities<I: Iterator<Item = (usize, usize, usize)>>(
    ids: I,
) -> HashMap<(usize, usize, usize), usize> {
    let mut map = HashMap::new();
    for id in ids {
        *map.entry(id).or_insert(0usize) += 1;
    }
    map
}

/// First recorded per-item error, if any.
fn collect_errors(errs: Vec<Option<EmulationError>>) -> Result<(), EmulationError> {
    match errs.into_iter().flatten().next() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}
