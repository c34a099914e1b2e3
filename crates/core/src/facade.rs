//! The GEMM facade: one element-generic Algorithm-1 body and the entries
//! built on it, plus accuracy-driven construction.
//!
//! * [`Ozaki2::gemm`] / [`Ozaki2::gemm_into`] — the product per output
//!   policy, generic over the sealed [`Element`] precisions (`f64`,
//!   `f32`). Each operand is a [`MatView`] — any layout, leading
//!   dimension, or transpose feeds the fused trunc+convert sweep with
//!   **zero copies** — or a cached one-sided front end from
//!   [`Ozaki2::prepare`] ([`crate::PreparedOperand`]). `dgemm`/`sgemm`
//!   are panicking delegates.
//! * [`GemmArgs`] — the argument bundle (`trans`/`alpha`/`beta`, optional
//!   reusable [`Workspace`], optional [`EmulationReport`] sink, fault
//!   policy, `parallel`), built fluently.
//! * [`Ozaki2::builder`] / [`Accuracy`] — construct an emulator from an
//!   accuracy *target* instead of a raw moduli count, resolving `N`
//!   through the a-priori model in [`crate::nselect`] (with a typed
//!   [`EmulationError::AccuracyUnreachable`] when no supported `N`
//!   reaches the target).

use crate::abft::{execute_panels, FaultPolicy, FaultReport, PanelsRef};
use crate::accumulate::{fold_planes, FoldPrecision};
use crate::blas::GemmOp;
use crate::consts::{constants, Constants};
use crate::convert::trunc_convert_pack_panels;
use crate::element::Element;
use crate::moduli::N_MAX;
use crate::nselect;
use crate::pipeline::{EmulationError, EmulationReport, Mode, Ozaki2, PhaseTimes, Workspace};
use crate::prepared::{OperandInput, OperandSide};
use crate::scale::{accurate_scale_view, fast_scale_view};
use gemm_dense::{Layout, MatView, MatViewMut, Matrix};
use gemm_obs::TimeShare;
use std::borrow::Cow;
use std::time::Instant;

// ---------------------------------------------------------------------------
// GemmArgs / GemmOut
// ---------------------------------------------------------------------------

/// Argument bundle for the unified GEMM facade:
/// `C ← alpha · op(A) · op(B) [+ beta · C]`.
///
/// Built fluently from two operands (views or [`crate::PreparedOperand`]s,
/// see [`OperandInput`]); everything else defaults to the plain product
/// (`op = N`, `alpha = 1`, `beta = 0`, fresh workspace, no report sink,
/// parallel regions on).
///
/// # Examples
/// ```
/// use ozaki2::{GemmArgs, Mode, Ozaki2};
/// use gemm_dense::workload::phi_matrix_f64;
///
/// let a = phi_matrix_f64(16, 24, 0.5, 1, 0);
/// let b = phi_matrix_f64(24, 12, 0.5, 1, 1);
/// let emu = Ozaki2::new(15, Mode::Fast);
/// let out = emu.gemm(GemmArgs::new(&a, &b)).unwrap();
/// // The named wrapper is a panicking delegate of the same body:
/// assert_eq!(out.c, emu.dgemm(&a, &b));
/// ```
pub struct GemmArgs<'a, T: Element> {
    pub(crate) a: OperandInput<'a, T>,
    pub(crate) b: OperandInput<'a, T>,
    pub(crate) trans_a: GemmOp,
    pub(crate) trans_b: GemmOp,
    pub(crate) alpha: T,
    pub(crate) beta: T,
    pub(crate) workspace: Option<&'a mut Workspace>,
    pub(crate) report: Option<&'a mut Option<EmulationReport>>,
    pub(crate) fault_policy: Option<FaultPolicy>,
    pub(crate) parallel: bool,
}

impl<'a, T: Element> GemmArgs<'a, T> {
    /// Arguments for the plain product `A · B` (accepts `&Matrix<T>`, any
    /// [`MatView`] — including strided / transposed ones — or a
    /// `&PreparedOperand` for its side).
    pub fn new(a: impl Into<OperandInput<'a, T>>, b: impl Into<OperandInput<'a, T>>) -> Self {
        Self {
            a: a.into(),
            b: b.into(),
            trans_a: GemmOp::N,
            trans_b: GemmOp::N,
            alpha: T::ONE,
            beta: T::ZERO,
            workspace: None,
            report: None,
            fault_policy: None,
            parallel: true,
        }
    }

    /// Transpose option for `A` (zero-copy: flips the view, moves no
    /// element). A prepared `A` cannot be transposed:
    /// [`GemmOp::T`] on it fails with [`EmulationError::PreparedMismatch`].
    pub fn trans_a(mut self, op: GemmOp) -> Self {
        self.trans_a = op;
        self
    }

    /// Transpose option for `B` (zero-copy; as for `A`, not on a prepared
    /// `B`).
    pub fn trans_b(mut self, op: GemmOp) -> Self {
        self.trans_b = op;
        self
    }

    /// Scalar multiplier on the product (BLAS `alpha`; default `1`).
    pub fn alpha(mut self, alpha: T) -> Self {
        self.alpha = alpha;
        self
    }

    /// Scalar multiplier on the existing output (BLAS `beta`; default `0`.
    /// Only meaningful for [`Ozaki2::gemm_into`] — the allocating
    /// [`Ozaki2::gemm`] starts from a zero output).
    pub fn beta(mut self, beta: T) -> Self {
        self.beta = beta;
        self
    }

    /// Reuse a caller-owned [`Workspace`]: steady-state repeated calls
    /// allocate nothing but the output (nothing at all with
    /// [`Ozaki2::gemm_into`]).
    pub fn workspace(mut self, ws: &'a mut Workspace) -> Self {
        self.workspace = Some(ws);
        self
    }

    /// Capture the per-phase [`EmulationReport`] into `sink` (also
    /// returned by [`Ozaki2::gemm_into`]; the sink serves callers that
    /// route the output elsewhere).
    pub fn report(mut self, sink: &'a mut Option<EmulationReport>) -> Self {
        self.report = Some(sink);
        self
    }

    /// Override the emulator's ABFT [`FaultPolicy`] for this call only
    /// (default: whatever [`Ozaki2::fault_policy`] says). The ABFT
    /// outcome lands in [`EmulationReport::fault`].
    pub fn fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = Some(policy);
        self
    }

    /// Run the internal parallel regions (engine stripes, convert jobs,
    /// the fold's columns) on the worker pool (default `true`). `false`
    /// keeps the whole call on the calling thread, so an inter-GEMM
    /// scheduler can run many single-threaded items at once. Bit-identical
    /// either way.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Effective operands after the transpose options (zero-copy).
    fn effective(&self) -> Result<(OperandInput<'a, T>, OperandInput<'a, T>), EmulationError> {
        let apply = |input: OperandInput<'a, T>, op| match (input, op) {
            (input, GemmOp::N) => Ok(input),
            (OperandInput::View(v), GemmOp::T) => Ok(OperandInput::View(v.t())),
            (OperandInput::Prepared(_), GemmOp::T) => Err(EmulationError::PreparedMismatch {
                reason: "transpose requested on a prepared operand",
            }),
        };
        Ok((apply(self.a, self.trans_a)?, apply(self.b, self.trans_b)?))
    }
}

/// Result of the allocating facade entry: the product and its per-phase
/// report.
#[derive(Clone, Debug)]
pub struct GemmOut<T: Element> {
    /// The computed product `alpha · op(A) · op(B)`.
    pub c: Matrix<T>,
    /// Per-phase wall-clock breakdown and INT8 GEMM count.
    pub report: EmulationReport,
}

// ---------------------------------------------------------------------------
// The facade entries
// ---------------------------------------------------------------------------

impl Ozaki2 {
    /// The unified, element-generic GEMM:
    /// `C = alpha · op(A) · op(B)` for `T ∈ {f64, f32}`, allocating the
    /// output. Strided, transposed, and row-major operand views all run
    /// with zero operand materialization, and a [`crate::PreparedOperand`]
    /// side skips its front end; results are bit-identical to the
    /// equivalent owned-matrix path.
    ///
    /// See [`GemmArgs`] for the argument bundle and [`Ozaki2::gemm_into`]
    /// for the allocation-free form.
    ///
    /// # Input validation
    /// Operands are scanned for NaN/infinity up front and rejected with
    /// [`EmulationError::NonFiniteInput`] naming the offending side and
    /// storage index — the residue arithmetic has no representation for
    /// non-finite values, so letting them through would silently produce
    /// garbage.
    ///
    /// # Fault tolerance
    /// The executing emulator's [`FaultPolicy`] (or a per-call override
    /// via [`GemmArgs::fault_policy`]) arms ABFT checksum verification of
    /// every INT8 residue product; detections and recoveries are reported
    /// in [`EmulationReport::fault`].
    pub fn gemm<T: Element>(&self, args: GemmArgs<'_, T>) -> Result<GemmOut<T>, EmulationError> {
        let (a, b) = args.effective()?;
        let mut c = Matrix::<T>::zeros(a.shape().0, b.shape().1);
        let report = self.gemm_into(args, c.view_mut())?;
        Ok(GemmOut { c, report })
    }

    /// [`Ozaki2::gemm`] into a caller-owned output view (column-major,
    /// any leading dimension): `C ← alpha · op(A) · op(B) + beta · C`.
    /// With a reused [`GemmArgs::workspace`] this is the fully
    /// allocation-free steady state; with a prepared side, only the other
    /// side's front end runs.
    ///
    /// # Errors
    /// Those of [`Ozaki2::gemm`], plus for a prepared operand:
    /// [`EmulationError::PreparedMismatch`] when its side, `N` or
    /// precision disagrees or a transpose is requested on it, and
    /// [`EmulationError::PreparationUnsupported`] under [`Mode::Accurate`].
    pub fn gemm_into<T: Element>(
        &self,
        args: GemmArgs<'_, T>,
        out: MatViewMut<'_, T>,
    ) -> Result<EmulationReport, EmulationError> {
        let (a, b) = args.effective()?;
        let GemmArgs {
            alpha,
            beta,
            workspace,
            report,
            fault_policy,
            parallel,
            ..
        } = args;
        let mut local;
        let ws: &mut Workspace = match workspace {
            Some(w) => w,
            None => {
                local = Workspace::new();
                &mut local
            }
        };
        let consts = constants(self.n_moduli());
        let rep = algorithm1(
            self,
            a,
            b,
            ws,
            parallel,
            fault_policy.unwrap_or(self.fault_policy()),
            out.shape(),
            |planes| fold_into_view(planes, consts, alpha, beta, out),
        )?;
        if let Some(sink) = report {
            *sink = Some(rep.clone());
        }
        Ok(rep)
    }
}

// ---------------------------------------------------------------------------
// The one Algorithm-1 body
// ---------------------------------------------------------------------------

/// Finiteness check over a view (contiguous fast path either layout).
/// The error reports the operand `side` and the storage index of the
/// first offending entry in the view's backing slice. Fast mode runs it
/// only on the cold path of [`fast_line1`]; accurate mode runs it on
/// both views before its estimate.
pub(crate) fn validate_view<T: Element>(
    v: &MatView<'_, T>,
    side: OperandSide,
) -> Result<(), EmulationError> {
    let contiguous = v
        .as_col_major_slice()
        .or_else(|| v.t().as_col_major_slice());
    if let Some(s) = contiguous {
        // Either way the slice is the backing storage in order, so the
        // iteration position is the storage index.
        return match s.iter().position(|x| !x.is_finite_elem()) {
            None => Ok(()),
            Some(index) => Err(EmulationError::NonFiniteInput { side, index }),
        };
    }
    for j in 0..v.cols() {
        for i in 0..v.rows() {
            if !v.get(i, j).is_finite_elem() {
                let index = match v.layout() {
                    Layout::ColMajor => i + j * v.ld(),
                    Layout::RowMajor => j + i * v.ld(),
                };
                return Err(EmulationError::NonFiniteInput { side, index });
            }
        }
    }
    Ok(())
}

/// The range check every entry runs: `N` must fit the precision's
/// conversion kernel (`b = 32` validates fewer moduli than `b = 64`).
pub(crate) fn check_n<T: Element>(n_moduli: usize) -> Result<(), EmulationError> {
    if n_moduli > T::N_MAX {
        return Err(EmulationError::UnsupportedN {
            n: n_moduli,
            max: T::N_MAX,
        });
    }
    Ok(())
}

/// Algorithm 1 line 1 in fast mode for one view side, which is also the
/// view's finiteness check: the exponents of [`fast_scale_view`], or,
/// when its flag reports a non-finite entry, the error [`validate_view`]
/// names (same side, same first storage index).
pub(crate) fn fast_line1<T: Element>(
    view: &MatView<'_, T>,
    side: OperandSide,
    consts: &Constants,
    parallel: bool,
) -> Result<Vec<i32>, EmulationError> {
    let (exps, finite) = fast_scale_view(view, side, consts.p_fast, parallel);
    if !finite {
        validate_view(view, side)?;
    }
    Ok(exps)
}

/// Algorithm 1 lines 2–5 for one operand view — the shared front end of
/// the body below and of [`Ozaki2::prepare`]: the fused trunc+convert
/// sweep under line 1's exponents `exps`, into `panels` (`N` packed panel
/// sets in the engine layout). The time lands in `phases`, split into
/// trunc/convert by CPU-time share.
pub(crate) fn front_end<T: Element>(
    view: &MatView<'_, T>,
    side: OperandSide,
    exps: &[i32],
    consts: &Constants,
    parallel: bool,
    panels: &mut [i8],
    phases: &mut PhaseTimes,
) {
    let t0 = Instant::now();
    let timing = TimeShare::new();
    trunc_convert_pack_panels(view, side, exps, consts, parallel, panels, Some(&timing));
    let sweep = t0.elapsed();
    let trunc = sweep.mul_f64(timing.fraction());
    phases.trunc += trunc;
    phases.convert += sweep.saturating_sub(trunc);
}

/// Line 1's exponents for one side: a view side's, as computed, or a
/// preparation's cached ones.
fn side_exps<'p, T: Element>(
    computed: Option<Vec<i32>>,
    input: &OperandInput<'p, T>,
) -> Cow<'p, [i32]> {
    match *input {
        OperandInput::Prepared(p) => Cow::Borrowed(p.exps()),
        OperandInput::View(_) => Cow::Owned(computed.expect("line 1 ran for every view side")),
    }
}

/// The panels lines 6–12 run over for one side: a preparation's cached
/// panels, or the workspace panels [`front_end`] just filled from a view,
/// with `repack`, the sweep ABFT recovery refills them with.
fn side_panels<'p, T: Element>(
    input: &OperandInput<'p, T>,
    ws_panels: &'p mut [i8],
    repack: &'p dyn Fn(&mut [i8]),
) -> PanelsRef<'p> {
    match input {
        OperandInput::Prepared(p) => PanelsRef::Fixed(p.panels()),
        OperandInput::View(_) => PanelsRef::Repackable {
            panels: ws_panels,
            repack,
        },
    }
}

/// ABFT recovery's refill of a view side's panels: the front end's sweep
/// again, on the calling thread (a no-op for a prepared side, whose
/// panels are never repacked).
fn repack_side<T: Element>(
    input: &OperandInput<'_, T>,
    side: OperandSide,
    exps: &[i32],
    consts: &Constants,
    panels: &mut [i8],
) {
    if let OperandInput::View(v) = input {
        trunc_convert_pack_panels(v, side, exps, consts, false, panels, None);
    }
}

/// What the Algorithm-1 body hands its caller's lines-8–12 fold: the `N`
/// UINT8 residue planes `U_s` (plane-major, each `m × n` column-major),
/// both sides' scale exponents, the workspace's grow-only f64 staging
/// buffer for a fold that cannot write its output directly, and whether
/// the call may use the worker pool.
pub(crate) struct FoldInput<'f> {
    pub u: &'f [u8],
    pub exps_a: &'f [i32],
    pub exps_b: &'f [i32],
    pub stage: &'f mut Vec<f64>,
    pub parallel: bool,
}

/// Algorithm 1, the one body behind every entry ([`Ozaki2::gemm_into`],
/// [`crate::dgemm_dd`], and through them every wrapper and the batched
/// runtime).
///
/// Each operand is a [`MatView`] — its front end (lines 1–5) runs into
/// the workspace panels — or a [`crate::PreparedOperand`] whose cached panels
/// are borrowed. Shapes come from the operands; `out_shape` must be
/// `(m, n)`, and view operands are scanned for non-finite entries. Lines
/// 6–7 run in [`execute_panels`], with checksums, verification and
/// recovery only under an active `policy`. Lines 8–12 are the caller's:
/// `fold` receives the residue planes and exponents (timed as
/// [`PhaseTimes::fold`]), or `None` when the product is empty (`m`, `n`
/// or `k` zero) and its value is zero. `parallel = false` keeps every
/// phase on the calling thread.
#[allow(clippy::too_many_arguments)]
pub(crate) fn algorithm1<T: Element>(
    emu: &Ozaki2,
    a: OperandInput<'_, T>,
    b: OperandInput<'_, T>,
    ws: &mut Workspace,
    parallel: bool,
    policy: FaultPolicy,
    out_shape: (usize, usize),
    fold: impl FnOnce(Option<FoldInput<'_>>),
) -> Result<EmulationReport, EmulationError> {
    let (n_moduli, mode) = (emu.n_moduli(), emu.mode());
    check_n::<T>(n_moduli)?;
    let prepared = |x: &OperandInput<'_, T>| matches!(x, OperandInput::Prepared(_));
    if mode != Mode::Fast && (prepared(&a) || prepared(&b)) {
        return Err(EmulationError::PreparationUnsupported { mode });
    }
    for (input, side) in [(&a, OperandSide::A), (&b, OperandSide::B)] {
        if let OperandInput::Prepared(p) = input {
            p.check(side, n_moduli, T::IS_F64)?;
        }
    }
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    if kb != k || out_shape != (m, n) {
        return Err(EmulationError::ShapeMismatch);
    }
    let consts: &Constants = constants(n_moduli);
    let predicted_error = nselect::predicted_error(n_moduli, k);
    let nmod = consts.n;
    let mut phases = PhaseTimes::default();
    let mut gemm_calls = 0usize;
    let obs_start = gemm_obs::now_ns();

    // ---- Line 1, A then B, before any panel is written ------------------
    // Fast mode: each view side's one-sided pass, which is also its
    // finiteness check. Accurate mode: both views are checked here, and
    // the joint estimate runs once the product is known to be non-empty.
    let t0 = Instant::now();
    let mut exps = [None, None];
    for (e, (input, side)) in exps
        .iter_mut()
        .zip([(&a, OperandSide::A), (&b, OperandSide::B)])
    {
        match input {
            OperandInput::View(v) if mode == Mode::Fast => {
                *e = Some(fast_line1(v, side, consts, parallel)?);
            }
            OperandInput::View(v) => validate_view(v, side)?,
            OperandInput::Prepared(_) => {}
        }
    }
    phases.scale = t0.elapsed();

    if m == 0 || n == 0 || k == 0 {
        fold(None);
        return Ok(EmulationReport {
            shape: (m, n, k),
            n_moduli: nmod,
            mode,
            predicted_error,
            phases,
            int8_gemm_calls: 0,
            fault: policy.is_active().then(FaultReport::default),
        });
    }
    if let (OperandInput::View(va), OperandInput::View(vb), Mode::Accurate) = (&a, &b, mode) {
        let t0 = Instant::now();
        gemm_calls += 1; // the Ā·B̄ estimation GEMM
        let (ea, eb) = accurate_scale_view(va, vb, consts.p_accu, parallel);
        exps = [Some(ea), Some(eb)];
        phases.scale += t0.elapsed();
    }
    let [exps_a, exps_b] = exps;
    let exps_a = side_exps(exps_a, &a);
    let exps_b = side_exps(exps_b, &b);

    // ---- Lines 2–5 for the view sides; prepared sides bring panels ------
    if !prepared(&a) {
        ws.reserve_a(m, k, nmod);
    }
    if !prepared(&b) {
        ws.reserve_b(n, k, nmod);
    }
    for (input, side, exps, panels) in [
        (&a, OperandSide::A, &exps_a, &mut ws.a8),
        (&b, OperandSide::B, &exps_b, &mut ws.b8),
    ] {
        if let OperandInput::View(v) = input {
            front_end(v, side, exps, consts, parallel, panels, &mut phases);
        }
    }
    let repack_a = |p: &mut [i8]| repack_side(&a, OperandSide::A, &exps_a, consts, p);
    let repack_b = |p: &mut [i8]| repack_side(&b, OperandSide::B, &exps_b, consts, p);
    let a_ref = side_panels(&a, &mut ws.a8, &repack_a);
    let b_ref = side_panels(&b, &mut ws.b8, &repack_b);

    // ---- Lines 6–7 over the packed panels --------------------------------
    let (calls, report) = execute_panels(
        m,
        n,
        k,
        consts,
        a_ref,
        b_ref,
        &mut ws.exec,
        parallel,
        policy,
        &mut phases,
    );
    gemm_calls += calls;

    // ---- Lines 8–12: the caller's fold -----------------------------------
    let t0 = Instant::now();
    fold(Some(FoldInput {
        u: &ws.exec.u[..nmod * m * n],
        exps_a: &exps_a,
        exps_b: &exps_b,
        stage: &mut ws.cstage,
        parallel,
    }));
    phases.fold = t0.elapsed();

    let report = EmulationReport {
        shape: (m, n, k),
        n_moduli: nmod,
        mode,
        predicted_error,
        phases,
        int8_gemm_calls: gemm_calls,
        fault: policy.is_active().then_some(report),
    };
    crate::pipeline::obs_record_report(obs_start, &report);
    Ok(report)
}

/// Lines 8–12 into an output view, the fold of [`Ozaki2::gemm_into`]:
/// `out ← alpha · A·B + beta · out`. The plain contiguous f64 product
/// folds straight into `out`; every other output folds into the staging
/// buffer, then the `alpha`/`beta` epilogue (or the exact f32 narrowing)
/// scatters it per column. An empty product (`None`) leaves
/// `alpha · 0 + beta · out`. With `beta = 0` the output is never read
/// (the BLAS contract), so NaN or Inf already in `out` cannot reach the
/// result. `fold_planes` splits the columns over the pool only for a
/// `parallel` call (a nested region on a worker joins the pool's queue,
/// where idle workers take its tasks); its output is bit-identical for
/// every split.
pub(crate) fn fold_into_view<T: Element>(
    planes: Option<FoldInput<'_>>,
    consts: &Constants,
    alpha: T,
    beta: T,
    mut out: MatViewMut<'_, T>,
) {
    let plain = alpha == T::ONE && beta == T::ZERO;
    let (m, n) = out.shape();
    let Some(FoldInput {
        u,
        exps_a,
        exps_b,
        stage,
        parallel,
    }) = planes
    else {
        for j in 0..n {
            for c in out.col_mut(j) {
                *c = if beta == T::ZERO {
                    T::ZERO
                } else {
                    alpha * T::ZERO + beta * *c
                };
            }
        }
        return;
    };
    let precision = if T::IS_F64 {
        FoldPrecision::Double
    } else {
        FoldPrecision::Single
    };
    if plain && T::IS_F64 {
        if let Some(dst) = out.as_col_major_slice_mut().and_then(T::as_f64_slice_mut) {
            fold_planes(
                u,
                m,
                n,
                consts,
                precision,
                exps_a,
                exps_b,
                parallel,
                &mut dst[..m * n],
            );
            return;
        }
    }
    if stage.len() < m * n {
        stage.resize(m * n, 0.0);
    }
    let stage = &mut stage[..m * n];
    fold_planes(u, m, n, consts, precision, exps_a, exps_b, parallel, stage);
    // Narrow / scale / scatter into the output view.
    for j in 0..n {
        let col = out.col_mut(j);
        let stage_col = &stage[j * m..(j + 1) * m];
        if plain {
            for (c, &p) in col.iter_mut().zip(stage_col) {
                *c = T::from_f64(p);
            }
        } else if beta == T::ZERO {
            for (c, &p) in col.iter_mut().zip(stage_col) {
                *c = alpha * T::from_f64(p);
            }
        } else {
            for (c, &p) in col.iter_mut().zip(stage_col) {
                *c = alpha * T::from_f64(p) + beta * *c;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Accuracy-driven construction
// ---------------------------------------------------------------------------

/// What the emulator should achieve, resolved to a moduli count `N` at
/// build time (see [`Ozaki2Builder`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Accuracy {
    /// An explicit moduli count (the historical `Ozaki2::new` knob).
    FixedN(usize),
    /// A normwise relative error target, resolved against the inner
    /// dimension `k` through the a-priori model
    /// ([`crate::nselect::choose_n_checked`]).
    TargetError(f64),
    /// DGEMM-level accuracy (`2^-52`) — resolves to `N = 15` at the
    /// paper's §5.1 `k = 1024` operating point.
    Fp64Equivalent,
    /// SGEMM-level accuracy (`2^-23`), capped to the SGEMM pipeline's
    /// supported moduli range.
    Fp32Equivalent,
    /// Low-moduli "fast inference" mode: a loose `2^-10` normwise target
    /// — roughly bf16-level — that resolves to very few residue planes
    /// (`N ≈ 5` at `k = 1024`), trading accuracy for throughput in
    /// inference-style workloads. The realized bound is reported per call
    /// in [`EmulationReport::predicted_error`].
    FastInference,
}

/// Builder for [`Ozaki2`]: accuracy target + [`Mode`] (+ the inner
/// dimension `k` when the target is `k`-dependent).
///
/// # Examples
/// ```
/// use ozaki2::{Accuracy, Mode, Ozaki2};
///
/// // The paper's §5.1 sweet spot: DGEMM-level at k = 1024 → N = 15.
/// let emu = Ozaki2::builder()
///     .accuracy(Accuracy::TargetError(2f64.powi(-52)))
///     .mode(Mode::Fast)
///     .k(1024)
///     .build()
///     .unwrap();
/// assert_eq!(emu.n_moduli(), 15);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Ozaki2Builder {
    accuracy: Accuracy,
    mode: Mode,
    k: Option<usize>,
    fault: Option<FaultPolicy>,
    workers: Option<usize>,
}

impl Default for Ozaki2Builder {
    fn default() -> Self {
        Self {
            accuracy: Accuracy::Fp64Equivalent,
            mode: Mode::Fast,
            k: None,
            fault: None,
            workers: None,
        }
    }
}

impl Ozaki2 {
    /// Accuracy-driven construction: pick the moduli count from a target
    /// instead of hardcoding it. Defaults to
    /// [`Accuracy::Fp64Equivalent`] in [`Mode::Fast`].
    pub fn builder() -> Ozaki2Builder {
        Ozaki2Builder::default()
    }
}

impl Ozaki2Builder {
    /// Set the accuracy request.
    pub fn accuracy(mut self, accuracy: Accuracy) -> Self {
        self.accuracy = accuracy;
        self
    }

    /// Set the scaling mode.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the inner dimension the `k`-dependent targets resolve against
    /// (each operand loses ~`0.5·log2 k` bits to the dot-length budget).
    pub fn k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// Set the emulator-wide fault-tolerance policy (see
    /// [`FaultPolicy`]). Unset, the built emulator inherits the
    /// `OZAKI_FAULT_POLICY` environment default, like [`Ozaki2::new`].
    pub fn fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault = Some(policy);
        self
    }

    /// Set the worker-pool size used by parallel regions (stripe sweeps,
    /// convert jobs). **Process-global**: the pool is shared by every
    /// emulator in the process, so the last build wins. Unset, the pool
    /// resolves `OZAKI_WORKERS`, then `available_parallelism()`. Results
    /// are bit-identical for any worker count; this knob only trades
    /// throughput.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n);
        self
    }

    /// Resolve the accuracy request to a moduli count and build.
    ///
    /// # Errors
    /// * [`EmulationError::UnsupportedN`] for an out-of-range
    ///   [`Accuracy::FixedN`];
    /// * [`EmulationError::AccuracyNeedsK`] for a `k`-dependent target
    ///   with no `k` set;
    /// * [`EmulationError::AccuracyUnreachable`] when even the largest
    ///   supported `N` misses the target.
    pub fn build(self) -> Result<Ozaki2, EmulationError> {
        let n = match self.accuracy {
            Accuracy::FixedN(n) => {
                if !(2..=N_MAX).contains(&n) {
                    return Err(EmulationError::UnsupportedN { n, max: N_MAX });
                }
                n
            }
            Accuracy::TargetError(target) => self.resolve(target, false)?,
            Accuracy::Fp64Equivalent => self.resolve(2f64.powi(-52), false)?,
            Accuracy::Fp32Equivalent => self.resolve(2f64.powi(-23), true)?,
            Accuracy::FastInference => self.resolve(2f64.powi(-10), false)?,
        };
        if let Some(workers) = self.workers {
            rayon::set_num_threads(workers);
        }
        let emu = Ozaki2::new(n, self.mode);
        Ok(match self.fault {
            Some(policy) => emu.with_fault_policy(policy),
            None => emu,
        })
    }

    fn resolve(&self, target: f64, for_sgemm: bool) -> Result<usize, EmulationError> {
        let k = self.k.ok_or(EmulationError::AccuracyNeedsK)?;
        nselect::choose_n_checked(target, k, for_sgemm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::scale_by_pow2;
    use gemm_dense::norms::max_relative_error;
    use gemm_dense::workload::{phi_matrix_f32, phi_matrix_f64};
    use gemm_dense::{MatF64, MatView};

    #[test]
    fn facade_matches_dgemm_bitwise() {
        let a = phi_matrix_f64(24, 40, 0.7, 3, 0);
        let b = phi_matrix_f64(40, 18, 0.7, 3, 1);
        for nmod in [4usize, 13, 15] {
            for mode in [Mode::Fast, Mode::Accurate] {
                let emu = Ozaki2::new(nmod, mode);
                let out = emu.gemm(GemmArgs::new(&a, &b)).unwrap();
                assert_eq!(out.c, emu.dgemm(&a, &b), "N={nmod} {mode:?}");
                assert_eq!(out.report.shape, (24, 18, 40));
            }
        }
    }

    #[test]
    fn facade_matches_sgemm_bitwise() {
        let a = phi_matrix_f32(12, 20, 0.5, 5, 0);
        let b = phi_matrix_f32(20, 10, 0.5, 5, 1);
        for mode in [Mode::Fast, Mode::Accurate] {
            let emu = Ozaki2::new(8, mode);
            let out = emu.gemm(GemmArgs::new(&a, &b)).unwrap();
            assert_eq!(out.c, emu.sgemm(&a, &b), "{mode:?}");
        }
    }

    #[test]
    fn transposed_views_are_zero_copy_and_bit_identical() {
        // Feed Aᵀ and Bᵀ through the trans options: no materialization
        // (the views alias the original buffers) and bit-identical output.
        let a = phi_matrix_f64(9, 17, 0.5, 2, 0);
        let b = phi_matrix_f64(17, 7, 0.5, 2, 1);
        let at = a.transpose();
        let bt = b.transpose();
        let emu = Ozaki2::new(12, Mode::Fast);
        let want = emu.dgemm(&a, &b);
        let got = emu
            .gemm(
                GemmArgs::new(&at, &bt)
                    .trans_a(GemmOp::T)
                    .trans_b(GemmOp::T),
            )
            .unwrap();
        assert_eq!(got.c, want);
        // And directly via pre-transposed views, no GemmOp involved.
        let got2 = emu
            .gemm(GemmArgs::<f64>::new(at.view().t(), bt.view().t()))
            .unwrap();
        assert_eq!(got2.c, want);
    }

    #[test]
    fn strided_submatrix_views_match_owned_copy() {
        // A 10x12 window of a 32x32 parent at offset (3, 5), times an
        // 12x8 window at (7, 2): strided ld = 32 views vs owned copies.
        let pa = phi_matrix_f64(32, 32, 0.6, 11, 0);
        let pb = phi_matrix_f64(32, 32, 0.6, 11, 1);
        let va = MatView::new(
            &pa.as_slice()[3 + 5 * 32..],
            10,
            12,
            32,
            gemm_dense::Layout::ColMajor,
        );
        let vb = MatView::new(
            &pb.as_slice()[7 + 2 * 32..],
            12,
            8,
            32,
            gemm_dense::Layout::ColMajor,
        );
        let emu = Ozaki2::new(15, Mode::Fast);
        let got = emu.gemm(GemmArgs::new(va, vb)).unwrap();
        assert_eq!(got.c, emu.dgemm(&va.to_matrix(), &vb.to_matrix()));
    }

    #[test]
    fn gemm_into_alpha_beta_epilogue() {
        let a = phi_matrix_f64(6, 6, 0.5, 2, 0);
        let b = phi_matrix_f64(6, 6, 0.5, 2, 1);
        let emu = Ozaki2::new(12, Mode::Fast);
        let prod = emu.dgemm(&a, &b);
        let mut c = MatF64::from_fn(6, 6, |i, j| (i == j) as u8 as f64);
        let c0 = c.clone();
        emu.gemm_into(GemmArgs::new(&a, &b).alpha(2.0).beta(3.0), c.view_mut())
            .unwrap();
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(c[(i, j)], 2.0 * prod[(i, j)] + 3.0 * c0[(i, j)]);
            }
        }
    }

    #[test]
    fn gemm_into_strided_output() {
        // C with ld > rows: the fold stages and scatters; gap rows stay.
        let (m, n, k) = (5usize, 4, 9);
        let a = phi_matrix_f64(m, k, 0.5, 3, 0);
        let b = phi_matrix_f64(k, n, 0.5, 3, 1);
        let emu = Ozaki2::new(10, Mode::Fast);
        let want = emu.dgemm(&a, &b);
        let ld = m + 3;
        let mut buf = vec![-7.0f64; ld * n];
        emu.gemm_into(
            GemmArgs::new(&a, &b),
            gemm_dense::MatViewMut::new(&mut buf, m, n, ld),
        )
        .unwrap();
        for j in 0..n {
            for i in 0..m {
                assert_eq!(buf[i + j * ld], want[(i, j)]);
            }
            for i in m..ld {
                assert_eq!(buf[i + j * ld], -7.0, "gap rows must stay untouched");
            }
        }
    }

    #[test]
    fn workspace_and_report_plumbing() {
        let a = phi_matrix_f64(16, 16, 0.5, 4, 0);
        let b = phi_matrix_f64(16, 16, 0.5, 4, 1);
        let emu = Ozaki2::new(9, Mode::Fast);
        let mut ws = Workspace::new();
        let mut sink = None;
        let out = emu
            .gemm(GemmArgs::new(&a, &b).workspace(&mut ws).report(&mut sink))
            .unwrap();
        assert!(ws.bytes() > 0);
        let rep = sink.expect("report sink filled");
        assert_eq!(rep.int8_gemm_calls, out.report.int8_gemm_calls);
        let steady = ws.bytes();
        let out2 = emu.gemm(GemmArgs::new(&a, &b).workspace(&mut ws)).unwrap();
        assert_eq!(out2.c, out.c);
        assert_eq!(ws.bytes(), steady, "steady state must not allocate");
    }

    #[test]
    fn facade_rejects_bad_inputs() {
        let a = phi_matrix_f64(4, 5, 0.5, 1, 0);
        let b = phi_matrix_f64(4, 4, 0.5, 1, 1);
        let emu = Ozaki2::new(8, Mode::Fast);
        assert_eq!(
            emu.gemm(GemmArgs::new(&a, &b)).unwrap_err(),
            EmulationError::ShapeMismatch
        );
        let af = phi_matrix_f32(4, 4, 0.5, 1, 0);
        let bf = phi_matrix_f32(4, 4, 0.5, 1, 1);
        assert_eq!(
            Ozaki2::new(20, Mode::Fast)
                .gemm(GemmArgs::new(&af, &bf))
                .unwrap_err(),
            EmulationError::UnsupportedN { n: 20, max: 18 }
        );
        let mut nan = phi_matrix_f64(4, 4, 0.5, 1, 0);
        nan[(1, 1)] = f64::NAN;
        let b4 = phi_matrix_f64(4, 4, 0.5, 1, 1);
        assert_eq!(
            emu.gemm(GemmArgs::new(&nan, &b4)).unwrap_err(),
            EmulationError::NonFiniteInput {
                side: OperandSide::A,
                index: 5, // col-major storage offset of (1, 1) with m = 4
            }
        );
        // NaN hidden in a strided view (non-contiguous validation path):
        // same storage offset, now reported relative to the view's backing
        // slice through its leading dimension.
        let vnan = MatView::new(nan.as_slice(), 3, 3, 4, gemm_dense::Layout::ColMajor);
        let vb = MatView::new(b4.as_slice(), 3, 3, 4, gemm_dense::Layout::ColMajor);
        assert_eq!(
            emu.gemm(GemmArgs::new(vnan, vb)).unwrap_err(),
            EmulationError::NonFiniteInput {
                side: OperandSide::A,
                index: 5,
            }
        );
    }

    /// Storage indices of the first, a middle and the last logical
    /// element of a `rows x cols` matrix stored as `layout` with leading
    /// dimension `ld`.
    fn first_middle_last(rows: usize, cols: usize, ld: usize, layout: Layout) -> [usize; 3] {
        let mut idx: Vec<usize> = (0..rows)
            .flat_map(|i| {
                (0..cols).map(move |j| match layout {
                    Layout::ColMajor => i + j * ld,
                    Layout::RowMajor => i * ld + j,
                })
            })
            .collect();
        idx.sort_unstable();
        [idx[0], idx[idx.len() / 2], idx[idx.len() - 1]]
    }

    /// `mat` stored as `layout` with leading dimension `minor + pad`.
    fn stored<T: Element>(mat: &Matrix<T>, layout: Layout, pad: usize) -> (Vec<T>, usize) {
        let (rows, cols) = mat.shape();
        let (major, minor) = match layout {
            Layout::ColMajor => (cols, rows),
            Layout::RowMajor => (rows, cols),
        };
        let ld = minor + pad;
        let mut buf = vec![T::ZERO; major * ld];
        for i in 0..rows {
            for j in 0..cols {
                match layout {
                    Layout::ColMajor => buf[i + j * ld] = mat[(i, j)],
                    Layout::RowMajor => buf[i * ld + j] = mat[(i, j)],
                }
            }
        }
        (buf, ld)
    }

    fn check_non_finite_errors<T: Element>() {
        let (m, k, n) = (7, 9, 5);
        let a = phi_matrix_f64(m, k, 0.5, 3, 0).map(T::from_f64);
        let b = phi_matrix_f64(k, n, 0.5, 3, 1).map(T::from_f64);
        let layouts = [
            (Layout::ColMajor, 0),
            (Layout::RowMajor, 0),
            (Layout::ColMajor, 2),
            (Layout::RowMajor, 3),
        ];
        for (layout, pad) in layouts {
            let (abuf, lda) = stored(&a, layout, pad);
            let (bbuf, ldb) = stored(&b, layout, pad);
            let spots_a = first_middle_last(m, k, lda, layout);
            let spots_b = first_middle_last(k, n, ldb, layout);
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for (ia, ib) in spots_a.into_iter().zip(spots_b) {
                    for (bad_a, bad_b) in [(true, false), (false, true), (true, true)] {
                        let (mut abad, mut bbad) = (abuf.clone(), bbuf.clone());
                        if bad_a {
                            abad[ia] = T::from_f64(bad);
                        }
                        if bad_b {
                            bbad[ib] = T::from_f64(bad);
                        }
                        let va = MatView::new(&abad, m, k, lda, layout);
                        let vb = MatView::new(&bbad, k, n, ldb, layout);
                        let want = validate_view(&va, OperandSide::A)
                            .and_then(|()| validate_view(&vb, OperandSide::B))
                            .unwrap_err();
                        let bad_side = if bad_a {
                            OperandSide::A
                        } else {
                            OperandSide::B
                        };
                        let at = if bad_a { ia } else { ib };
                        assert_eq!(
                            want,
                            EmulationError::NonFiniteInput {
                                side: bad_side,
                                index: at
                            }
                        );
                        let what = format!("{layout:?} pad {pad} {bad} A {bad_a} B {bad_b}");
                        for mode in [Mode::Fast, Mode::Accurate] {
                            for parallel in [true, false] {
                                // Rejected before any work: no panel
                                // written, the output untouched.
                                let mut ws = Workspace::new();
                                let mut c = Matrix::<T>::from_fn(m, n, |_, _| T::ONE);
                                let got = Ozaki2::new(8, mode)
                                    .gemm_into(
                                        GemmArgs::new(va, vb).workspace(&mut ws).parallel(parallel),
                                        c.view_mut(),
                                    )
                                    .unwrap_err();
                                assert_eq!(got, want, "{what} {mode:?} parallel {parallel}");
                                assert_eq!(ws.bytes(), 0, "{what} {mode:?}: workspace grew");
                                assert!(c.iter().all(|&x| x == T::ONE), "{what}: output written");
                            }
                        }
                        let emu = Ozaki2::new(8, Mode::Fast);
                        for (side, v, is_bad) in
                            [(OperandSide::A, va, bad_a), (OperandSide::B, vb, bad_b)]
                        {
                            let got = emu.prepare(side, v).map(|_| ());
                            let want = if is_bad {
                                validate_view(&v, side)
                            } else {
                                Ok(())
                            };
                            assert_eq!(got, want, "{what}: prepare {side:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn non_finite_inputs_fail_as_validate_view_reports() {
        // NaN, +inf and -inf at the first, a middle and the last storage
        // index of A, of B and of both (A wins), over contiguous and
        // strided views of either layout, in both precisions, through
        // gemm_into (both modes, parallel or not) and prepare.
        check_non_finite_errors::<f64>();
        check_non_finite_errors::<f32>();
    }

    #[test]
    fn row_maxima_below_2_pow_minus_1023_give_a_finite_product() {
        // A's row 0 lies near 2^-1060 with no zero entry, B near 2^1000:
        // the row's inverse scale 2^1060 overflows one f64, which once
        // made its norm infinite and C[0, 0] NaN. The product is exact in
        // f64 (C[0, 0] = 6.75 * 2^-60 ~ 5.85e-18).
        let tiny = scale_by_pow2(1.0, -1060);
        let huge = scale_by_pow2(1.0, 1000);
        let a = Matrix::from_fn(2, 4, |i, h| {
            let x = [1.0, 1.5, 1.25, 1.75][h];
            if i == 0 {
                x * tiny
            } else {
                x * (h + 1) as f64
            }
        });
        let b = Matrix::from_fn(4, 2, |h, j| {
            [1.5, 1.0, 1.25, 1.25][h] * (j + 1) as f64 * huge
        });
        let exact = gemm_dense::gemm::gemm_f64_naive(&a, &b);
        assert_eq!(exact[(0, 0)], 6.75 * scale_by_pow2(1.0, -60));
        let emu = Ozaki2::new(15, Mode::Fast);
        let check = |c: &MatF64, what: &str| {
            assert!(c.iter().all(|x| x.is_finite()), "{what}: {c:?}");
            assert!(max_relative_error(c, &exact) < 1e-12, "{what}: {c:?}");
        };
        check(&emu.dgemm(&a, &b), "col-major");
        let (abuf, lda) = stored(&a, Layout::RowMajor, 0);
        let (bbuf, ldb) = stored(&b, Layout::RowMajor, 0);
        let va = MatView::new(&abuf, 2, 4, lda, Layout::RowMajor);
        let vb = MatView::new(&bbuf, 4, 2, ldb, Layout::RowMajor);
        check(&emu.gemm(GemmArgs::new(va, vb)).unwrap().c, "row-major");
        for view in [a.view(), va] {
            let pa = emu.prepare(OperandSide::A, view).unwrap();
            let mut c = MatF64::zeros(2, 2);
            emu.gemm_into(GemmArgs::new(&pa, &b), c.view_mut()).unwrap();
            check(&c, &format!("prepared {:?}", view.layout()));
        }
    }

    #[test]
    fn empty_shapes_fill_output() {
        let emu = Ozaki2::new(6, Mode::Fast);
        let a = MatF64::zeros(3, 0);
        let b = MatF64::zeros(0, 2);
        let mut c = MatF64::from_fn(3, 2, |_, _| 5.0);
        // k = 0, beta = 0.5: C ← 0 + 0.5 C.
        emu.gemm_into(GemmArgs::new(&a, &b).beta(0.5), c.view_mut())
            .unwrap();
        assert!(c.iter().all(|&x| x == 2.5));
        // Plain: zero fill.
        let out = emu.gemm(GemmArgs::new(&a, &b)).unwrap();
        assert!(out.c.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn facade_accuracy_sanity() {
        let a = phi_matrix_f64(20, 32, 0.5, 9, 0);
        let b = phi_matrix_f64(32, 20, 0.5, 9, 1);
        let out = Ozaki2::new(15, Mode::Fast)
            .gemm(GemmArgs::new(&a, &b))
            .unwrap();
        let exact = gemm_dense::gemm::gemm_f64_naive(&a, &b);
        assert!(max_relative_error(&out.c, &exact) < 1e-12);
    }

    #[test]
    fn builder_resolves_paper_sweet_spot() {
        // §5.1: DGEMM-level accuracy at k = 1024 needs N = 15.
        let emu = Ozaki2::builder()
            .accuracy(Accuracy::TargetError(2f64.powi(-52)))
            .k(1024)
            .build()
            .unwrap();
        assert_eq!(emu.n_moduli(), 15);
        assert_eq!(emu.mode(), Mode::Fast);
        // The named equivalents agree with the explicit target.
        let e64 = Ozaki2::builder()
            .accuracy(Accuracy::Fp64Equivalent)
            .k(1024)
            .build()
            .unwrap();
        assert_eq!(e64.n_moduli(), 15);
        let e32 = Ozaki2::builder()
            .accuracy(Accuracy::Fp32Equivalent)
            .k(1024)
            .build()
            .unwrap();
        assert!((7..=9).contains(&e32.n_moduli()), "{}", e32.n_moduli());
    }

    #[test]
    fn builder_fixed_n_and_mode() {
        let emu = Ozaki2::builder()
            .accuracy(Accuracy::FixedN(11))
            .mode(Mode::Accurate)
            .build()
            .unwrap();
        assert_eq!(emu.n_moduli(), 11);
        assert_eq!(emu.mode(), Mode::Accurate);
        assert!(matches!(
            Ozaki2::builder()
                .accuracy(Accuracy::FixedN(99))
                .build()
                .unwrap_err(),
            EmulationError::UnsupportedN { n: 99, .. }
        ));
    }

    #[test]
    fn builder_typed_errors() {
        // k-dependent target without k.
        assert_eq!(
            Ozaki2::builder()
                .accuracy(Accuracy::TargetError(1e-10))
                .build()
                .unwrap_err(),
            EmulationError::AccuracyNeedsK
        );
        // Unreachable target: typed error with the best achievable point.
        match Ozaki2::builder()
            .accuracy(Accuracy::TargetError(1e-40))
            .k(1024)
            .build()
            .unwrap_err()
        {
            EmulationError::AccuracyUnreachable {
                target,
                best_n,
                predicted,
            } => {
                assert_eq!(target, 1e-40);
                assert_eq!(best_n, N_MAX);
                assert!(predicted > 1e-40);
            }
            e => panic!("expected AccuracyUnreachable, got {e:?}"),
        }
    }
}
