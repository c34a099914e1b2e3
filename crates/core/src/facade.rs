//! The GEMM facade: one element-generic Algorithm-1 body and the entries
//! built on it, plus accuracy-driven construction.
//!
//! * [`Ozaki2::gemm`] / [`Ozaki2::gemm_into`] — the plain product per
//!   output policy, generic over the sealed [`Element`] precisions
//!   (`f64`, `f32`). Operands are [`MatView`]s: any layout, leading
//!   dimension, or transpose feeds the fused trunc+convert sweep with
//!   **zero copies**. `dgemm`/`sgemm` are panicking delegates.
//! * [`Ozaki2::prepare`] / [`Ozaki2::execute`] — the same body with a
//!   cached one-sided front end ([`crate::PreparedOperand`]) on either side.
//! * [`GemmArgs`] — the argument bundle (`trans`/`alpha`/`beta`, optional
//!   reusable [`Workspace`], optional [`EmulationReport`] sink), built
//!   fluently.
//! * [`Ozaki2::builder`] / [`Accuracy`] — construct an emulator from an
//!   accuracy *target* instead of a raw moduli count, resolving `N`
//!   through the a-priori model in [`crate::nselect`] (with a typed
//!   [`EmulationError::AccuracyUnreachable`] when no supported `N`
//!   reaches the target).

use crate::abft::{execute_panels, ExecScratch, FaultPolicy, FaultReport, PanelsRef};
use crate::accumulate::{fold_planes, FoldPrecision};
use crate::blas::GemmOp;
use crate::consts::{constants, Constants};
use crate::convert::{trunc_convert_pack_panels, TruncSource};
use crate::element::Element;
use crate::moduli::N_MAX;
use crate::nselect;
use crate::pipeline::{
    EmulationError, EmulationReport, Mode, Ozaki2, PhaseTimes, Workspace, WsBuffers,
};
use crate::prepared::{OperandInput, OperandSide};
use crate::scale::{accurate_scale_view, fast_scale_a_view, fast_scale_b_view};
use gemm_dense::{Layout, MatView, MatViewMut, Matrix};
use gemm_engine::padded_depth;
use gemm_obs::TimeShare;
use std::borrow::Cow;
use std::time::Instant;

// ---------------------------------------------------------------------------
// GemmArgs / GemmOut
// ---------------------------------------------------------------------------

/// Argument bundle for the unified GEMM facade:
/// `C ← alpha · op(A) · op(B) [+ beta · C]`.
///
/// Built fluently from two operand views; everything else defaults to the
/// plain product (`op = N`, `alpha = 1`, `beta = 0`, fresh workspace, no
/// report sink).
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
    pub(crate) a: MatView<'a, T>,
    pub(crate) b: MatView<'a, T>,
    pub(crate) trans_a: GemmOp,
    pub(crate) trans_b: GemmOp,
    pub(crate) alpha: T,
    pub(crate) beta: T,
    pub(crate) workspace: Option<&'a mut Workspace>,
    pub(crate) report: Option<&'a mut Option<EmulationReport>>,
    pub(crate) fault_policy: Option<FaultPolicy>,
}

impl<'a, T: Element> GemmArgs<'a, T> {
    /// Arguments for the plain product `A · B` (accepts `&Matrix<T>` or
    /// any [`MatView`] — including strided / transposed ones).
    pub fn new(a: impl Into<MatView<'a, T>>, b: impl Into<MatView<'a, T>>) -> Self {
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
        }
    }

    /// Transpose option for `A` (zero-copy: flips the view, moves no
    /// element).
    pub fn trans_a(mut self, op: GemmOp) -> Self {
        self.trans_a = op;
        self
    }

    /// Transpose option for `B` (zero-copy).
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

    /// Effective operand views after the transpose options (zero-copy).
    fn effective(&self) -> (MatView<'a, T>, MatView<'a, T>) {
        let a = match self.trans_a {
            GemmOp::N => self.a,
            GemmOp::T => self.a.t(),
        };
        let b = match self.trans_b {
            GemmOp::N => self.b,
            GemmOp::T => self.b.t(),
        };
        (a, b)
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
    /// The unified, element-generic, view-based GEMM:
    /// `C = alpha · op(A) · op(B)` for `T ∈ {f64, f32}`, allocating the
    /// output. Strided, transposed, and row-major operand views all run
    /// with zero operand materialization; results are bit-identical to
    /// the equivalent owned-matrix path.
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
        let (a, b) = args.effective();
        let mut c = Matrix::<T>::zeros(a.rows(), b.cols());
        let report = self.gemm_into(args, c.view_mut())?;
        Ok(GemmOut { c, report })
    }

    /// [`Ozaki2::gemm`] into a caller-owned output view (column-major,
    /// any leading dimension): `C ← alpha · op(A) · op(B) + beta · C`.
    /// With a reused [`GemmArgs::workspace`] this is the fully
    /// allocation-free steady state.
    pub fn gemm_into<T: Element>(
        &self,
        args: GemmArgs<'_, T>,
        out: MatViewMut<'_, T>,
    ) -> Result<EmulationReport, EmulationError> {
        let (a, b) = args.effective();
        let GemmArgs {
            alpha,
            beta,
            workspace,
            report,
            fault_policy,
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
            OperandInput::View(a),
            OperandInput::View(b),
            ws,
            true,
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

/// Map an effective operand view to its fused-sweep source: rows of `A`
/// (`vectors_are_rows`) or columns of `B`, each either contiguous or a
/// strided gather depending on the view's layout — never a copy.
pub(crate) fn vectors_source<'s, T: Element>(
    v: &MatView<'s, T>,
    vectors_are_rows: bool,
    exps: &'s [i32],
) -> TruncSource<'s> {
    let data = T::elem_slice(v.data());
    let contiguous = matches!(
        (vectors_are_rows, v.layout()),
        (true, Layout::RowMajor) | (false, Layout::ColMajor)
    );
    if contiguous {
        TruncSource::Contiguous {
            data,
            ld: v.ld(),
            exps,
        }
    } else {
        TruncSource::Gathered {
            data,
            ld: v.ld(),
            exps,
        }
    }
}

/// Finiteness check over a view (contiguous fast path either layout).
/// The error reports the operand `side` and the storage index of the
/// first offending entry in the view's backing slice.
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

/// Algorithm 1 lines 1–5 for one operand view — the shared front end of
/// the body below and of [`Ozaki2::prepare`]. Line 1 computes the
/// one-sided fast-mode scale exponents unless `joint` carries the
/// accurate-mode ones; lines 2–5 run the fused trunc+convert sweep into
/// `panels` (`N` packed panel sets in the engine layout). The time lands
/// in `phases` (the sweep split into trunc/convert by CPU-time share);
/// returns the exponents.
pub(crate) fn front_end<T: Element>(
    view: &MatView<'_, T>,
    side: OperandSide,
    joint: Option<Vec<i32>>,
    consts: &Constants,
    parallel: bool,
    panels: &mut [i8],
    phases: &mut PhaseTimes,
) -> Vec<i32> {
    let t0 = Instant::now();
    let exps = joint.unwrap_or_else(|| match side {
        OperandSide::A => fast_scale_a_view(view, consts.p_fast),
        OperandSide::B => fast_scale_b_view(view, consts.p_fast),
    });
    phases.scale += t0.elapsed();

    let t0 = Instant::now();
    let (vecs, vecs_pad, k) = side.panel_dims(view.shape());
    let kp = padded_depth(k);
    let timing = TimeShare::new();
    trunc_convert_pack_panels(
        vectors_source(view, side == OperandSide::A, &exps),
        vecs,
        vecs_pad,
        k,
        kp,
        consts,
        T::IS_F64,
        parallel,
        &mut panels[..consts.n * vecs_pad * kp],
        Some(&timing),
    );
    let sweep = t0.elapsed();
    let trunc = sweep.mul_f64(timing.fraction());
    phases.trunc += trunc;
    phases.convert += sweep.saturating_sub(trunc);
    exps
}

/// The panels lines 6–12 run over for one side: a preparation's cached
/// panels, or the workspace panels [`front_end`] just filled from a view
/// (with the recipe ABFT recovery repacks them from).
fn side_panels<'p, T: Element>(
    input: &OperandInput<'p, T>,
    side: OperandSide,
    exps: &'p [i32],
    ws_panels: &'p mut [i8],
    nmod: usize,
) -> PanelsRef<'p> {
    match input {
        OperandInput::Prepared(p) => PanelsRef::Fixed(p.panels()),
        OperandInput::View(v) => {
            let (vecs, vecs_pad, k) = side.panel_dims(v.shape());
            PanelsRef::Repackable {
                panels: &mut ws_panels[..nmod * vecs_pad * padded_depth(k)],
                src: vectors_source(v, side == OperandSide::A, exps),
                vecs,
                vecs_pad,
            }
        }
    }
}

/// What the Algorithm-1 body hands its caller's lines-8–12 fold: the `N`
/// UINT8 residue planes `U_s` (plane-major, each `m × n` column-major),
/// both sides' scale exponents, and the workspace's grow-only f64 staging
/// buffer for a fold that cannot write its output directly.
pub(crate) struct FoldInput<'f> {
    pub u: &'f [u8],
    pub exps_a: &'f [i32],
    pub exps_b: &'f [i32],
    pub stage: &'f mut Vec<f64>,
}

/// Algorithm 1, the one body behind every entry ([`Ozaki2::gemm_into`],
/// [`Ozaki2::execute`], [`crate::dgemm_dd`], and through them every
/// wrapper and the batched runtime).
///
/// Each operand is a [`MatView`] — its front end (lines 1–5) runs into
/// the workspace panels — or a [`crate::PreparedOperand`] whose cached panels
/// are borrowed. Shapes come from the operands; `out_shape` must be
/// `(m, n)`, and view operands are scanned for non-finite entries. Lines
/// 6–7 run in [`execute_panels`], with checksums, verification and
/// recovery only under an active `policy`. Lines 8–12 are the caller's:
/// `fold` receives the residue planes and exponents (timed as
/// [`PhaseTimes::fold`]), or `None` when the product is empty (`m`, `n`
/// or `k` zero) and its value is zero.
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
    for (input, side) in [(&a, OperandSide::A), (&b, OperandSide::B)] {
        if let OperandInput::View(v) = input {
            validate_view(v, side)?;
        }
    }
    let consts: &Constants = constants(n_moduli);
    let predicted_error = nselect::predicted_error(n_moduli, k);
    let nmod = consts.n;
    let mut phases = PhaseTimes::default();
    let mut gemm_calls = 0usize;

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

    // ---- Line 1 in accurate mode: one joint estimate over both views ----
    let obs_start = gemm_obs::now_ns();
    let (joint_a, joint_b) = match (&a, &b) {
        (OperandInput::View(va), OperandInput::View(vb)) if mode == Mode::Accurate => {
            let t0 = Instant::now();
            gemm_calls += 1; // the Ā·B̄ estimation GEMM
            let (ea, eb) = accurate_scale_view(va, vb, consts.p_accu);
            phases.scale = t0.elapsed();
            (Some(ea), Some(eb))
        }
        _ => (None, None),
    };

    // ---- Lines 1–5 for the view sides; prepared sides bring panels ------
    if !prepared(&a) {
        ws.reserve_a(m, k, nmod);
    }
    if !prepared(&b) {
        ws.reserve_b(n, k, nmod);
    }
    ws.reserve_exec(m, n, k, nmod);
    if policy.is_active() {
        ws.reserve_abft(m, n, k, nmod);
    }
    let WsBuffers {
        a8,
        b8,
        u,
        c32,
        racc,
        cstage,
        chk_a8,
        chk_b8,
        uchk,
        chk_sum,
        vsum,
    } = ws.buffers();
    let exps_a: Cow<'_, [i32]> = match &a {
        OperandInput::View(v) => Cow::Owned(front_end(
            v,
            OperandSide::A,
            joint_a,
            consts,
            parallel,
            a8,
            &mut phases,
        )),
        OperandInput::Prepared(p) => Cow::Borrowed(p.exps()),
    };
    let exps_b: Cow<'_, [i32]> = match &b {
        OperandInput::View(v) => Cow::Owned(front_end(
            v,
            OperandSide::B,
            joint_b,
            consts,
            parallel,
            b8,
            &mut phases,
        )),
        OperandInput::Prepared(p) => Cow::Borrowed(p.exps()),
    };
    let a_ref = side_panels(&a, OperandSide::A, &exps_a, a8, nmod);
    let b_ref = side_panels(&b, OperandSide::B, &exps_b, b8, nmod);

    // ---- Lines 6–7 over the packed panels --------------------------------
    let (calls, report) = execute_panels(
        m,
        n,
        k,
        consts,
        T::IS_F64,
        a_ref,
        b_ref,
        ExecScratch {
            u: &mut u[..],
            c32,
            racc,
            chk_a8,
            chk_b8,
            uchk,
            chk_sum,
            vsum,
        },
        parallel,
        policy,
        &mut phases,
    );
    gemm_calls += calls;

    // ---- Lines 8–12: the caller's fold -----------------------------------
    let t0 = Instant::now();
    fold(Some(FoldInput {
        u: &u[..nmod * m * n],
        exps_a: &exps_a,
        exps_b: &exps_b,
        stage: cstage,
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

/// Lines 8–12 into an output view, the fold of [`Ozaki2::gemm_into`] and
/// [`Ozaki2::execute`]: `out ← alpha · A·B + beta · out`. The plain
/// contiguous f64 product folds straight into `out`; every other output
/// folds into the staging buffer, then the `alpha`/`beta` epilogue (or
/// the exact f32 narrowing) scatters it per column. An empty product
/// (`None`) leaves `alpha · 0 + beta · out`. `fold_planes`' column
/// parallelism nests safely inside an inter-GEMM worker (nested regions
/// run sequentially there) and its output is bit-identical for every
/// split.
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
    }) = planes
    else {
        for j in 0..n {
            for c in out.col_mut(j) {
                *c = if plain {
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
                &mut dst[..m * n],
            );
            return;
        }
    }
    if stage.len() < m * n {
        stage.resize(m * n, 0.0);
    }
    let stage = &mut stage[..m * n];
    fold_planes(u, m, n, consts, precision, exps_a, exps_b, stage);
    // Narrow / scale / scatter into the output view.
    for j in 0..n {
        let col = out.col_mut(j);
        let stage_col = &stage[j * m..(j + 1) * m];
        if plain {
            for (c, &p) in col.iter_mut().zip(stage_col) {
                *c = T::from_f64(p);
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
