//! The prepare/execute split of Algorithm 1: reusable one-sided operand
//! preparations.
//!
//! Lines 1–5 of Algorithm 1 (scale-vector determination, the fused
//! trunc+convert sweep, and the engine packing) depend on only **one**
//! operand in [`Mode::Fast`] — row scales for `A`, column scales for `B`.
//! A workload that reuses an operand across many products (weight-stationary
//! inference, the shared component products of CRT complex multiplication,
//! LU panels multiplied against a stream of blocks) therefore recomputes
//! the whole front end redundantly when it goes through
//! [`Ozaki2::dgemm`] per call.
//!
//! [`PreparedOperand`] captures that front end once: the scale exponents
//! plus the `N` packed i16 residue panels, in exactly the layout the INT8
//! engine's zero-repack entry ([`gemm_engine::int8_gemm_prepacked_fused`])
//! consumes. [`Ozaki2::execute_prepared`] then runs only lines 6–12 (the
//! `N` INT8 GEMMs with fused modular reduction and the CRT fold). Both
//! halves run the very same kernels as the monolithic pipeline, so the
//! result is **bit-identical** to [`Ozaki2::dgemm`] on the same inputs —
//! the property the batched runtime (`gemm_batch`) builds its caching on.
//!
//! [`Mode::Accurate`] scales `A` and `B` jointly (one estimation GEMM over
//! both magnitudes), so a one-sided preparation cannot exist; the prepare
//! entry points return [`EmulationError::PreparationUnsupported`] for it
//! and accurate-mode batches fall back to the monolithic per-item path.

use crate::abft::{execute_panels_ft, FtScratch, PanelsRef};
use crate::consts::{constants, Constants};
use crate::convert::trunc_convert_pack_panels;
use crate::element::Element;
use crate::facade::{validate_view, vectors_source};
use crate::nselect;
use crate::pipeline::{
    execute_panels, EmulationError, EmulationReport, Mode, Ozaki2, PhaseTimes, Workspace, WsBuffers,
};
use crate::scale::{fast_scale_a_view, fast_scale_b_view};
use gemm_dense::{MatF32, MatF64, MatView, Matrix};
use gemm_engine::{padded_a_rows, padded_b_cols, padded_depth};
use gemm_obs::TimeShare;
use std::time::Instant;

/// Which side of the product an operand was prepared for. The sides pack
/// differently (`A` is transpose-gathered into row panels, `B` into column
/// panels), so a preparation is only valid on its own side.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OperandSide {
    /// Left operand (`m x k`, row panels, per-row scales).
    A,
    /// Right operand (`k x n`, column panels, per-column scales).
    B,
}

/// A cached Algorithm-1 front end (lines 1–5) for one operand: scale
/// exponents plus the `N` packed i16 residue panels, ready for
/// zero-repack INT8 GEMMs.
///
/// Produced by [`Ozaki2::prepare_a`] / [`Ozaki2::prepare_b`] (and their
/// `try_`/slice/f32 variants), consumed by [`Ozaki2::execute_prepared`].
/// Reusing a preparation across products amortizes the entire convert
/// front end — see the crate-level example below and
/// `examples/batched_inference.rs`.
///
/// # Examples
/// ```
/// use ozaki2::{Mode, Ozaki2};
/// use gemm_dense::workload::phi_matrix_f64;
///
/// let emu = Ozaki2::new(12, Mode::Fast);
/// let b = phi_matrix_f64(48, 32, 0.5, 7, 1);
/// // Prepare the shared (weight-like) operand once...
/// let pb = emu.prepare_b(&b);
/// for seed in 0..3 {
///     let a = phi_matrix_f64(24, 48, 0.5, seed, 0);
///     let pa = emu.prepare_a(&a);
///     // ...and every product over it skips B's scale/trunc/convert.
///     let c = emu.execute_prepared(&pa, &pb);
///     assert_eq!(c, emu.dgemm(&a, &b)); // bit-identical
/// }
/// ```
pub struct PreparedOperand {
    side: OperandSide,
    /// Number of logical vectors: `m` for side A, `n` for side B.
    vecs: usize,
    k: usize,
    n_moduli: usize,
    mode: Mode,
    b64: bool,
    exps: Vec<i32>,
    panels: Vec<i16>,
    prepare_phases: PhaseTimes,
}

impl std::fmt::Debug for PreparedOperand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedOperand")
            .field("side", &self.side)
            .field("shape", &self.shape())
            .field("n_moduli", &self.n_moduli)
            .field("mode", &self.mode)
            .field("b64", &self.b64)
            .field("bytes", &self.bytes())
            .finish()
    }
}

impl PreparedOperand {
    /// Which side this preparation is for.
    pub fn side(&self) -> OperandSide {
        self.side
    }

    /// Logical operand shape: `(m, k)` for side A, `(k, n)` for side B.
    pub fn shape(&self) -> (usize, usize) {
        match self.side {
            OperandSide::A => (self.vecs, self.k),
            OperandSide::B => (self.k, self.vecs),
        }
    }

    /// Moduli count the panels were reduced against.
    pub fn n_moduli(&self) -> usize {
        self.n_moduli
    }

    /// Scaling mode (always [`Mode::Fast`]; accurate mode cannot prepare).
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// `true` when prepared with the DGEMM (`b = 64`) conversion
    /// thresholds, `false` for the SGEMM (`b = 32`) ones.
    pub fn is_f64(&self) -> bool {
        self.b64
    }

    /// Heap footprint in bytes (panels + exponents) — what a cache charges
    /// for keeping this preparation alive.
    pub fn bytes(&self) -> usize {
        self.panels.capacity() * 2 + self.exps.capacity() * 4
    }

    /// Wall-clock the preparation spent in the front-end phases (line 1
    /// in `scale`, lines 2–5 split across `trunc`/`convert`). Consumers
    /// report amortized front-end share with this.
    pub fn prepare_phases(&self) -> PhaseTimes {
        self.prepare_phases
    }

    /// Total preparation wall-clock in seconds.
    pub fn prepare_seconds(&self) -> f64 {
        self.prepare_phases.total().as_secs_f64()
    }
}

/// One side of a mixed execution ([`Ozaki2::try_execute_into_ws`]): either
/// a raw operand whose front end (lines 1–5) is computed into the
/// caller's [`Workspace`] panel buffers — the zero-allocation streaming
/// path — or an already-prepared operand whose cached panels are borrowed.
#[derive(Clone, Copy)]
pub enum OperandInput<'a> {
    /// Raw contiguous column-major data: `m x k` on side A, `k x n` on
    /// side B. Converted into the workspace's reusable panel buffers, so
    /// repeated calls allocate nothing.
    Raw(&'a [f64]),
    /// A raw borrowed strided view (any layout / leading dimension /
    /// transpose) — converted like [`OperandInput::Raw`], still with zero
    /// copies: the fused sweep gathers straight from the strided source.
    RawView(MatView<'a, f64>),
    /// A cached preparation (panels borrowed, front end skipped).
    Prepared(&'a PreparedOperand),
}

/// Shared body of every prepare entry point: Algorithm 1 lines 1–5 over
/// one borrowed strided operand view (f64 or exactly widened f32), with
/// zero operand materialization.
fn prepare_view<T: Element>(
    emu: &Ozaki2,
    view: &MatView<'_, T>,
    side: OperandSide,
) -> Result<PreparedOperand, EmulationError> {
    if emu.mode() != Mode::Fast {
        return Err(EmulationError::PreparationUnsupported { mode: emu.mode() });
    }
    if emu.n_moduli() > T::N_MAX {
        return Err(EmulationError::UnsupportedN {
            n: emu.n_moduli(),
            max: T::N_MAX,
        });
    }
    validate_view(view, side)?;
    let (vecs, k) = match side {
        OperandSide::A => (view.rows(), view.cols()),
        OperandSide::B => (view.cols(), view.rows()),
    };
    let consts: &Constants = constants(emu.n_moduli());
    let nmod = consts.n;
    let mut phases = PhaseTimes::default();

    // Line 1 (one-sided): row scales for A, column scales for B. These are
    // exactly the fast-mode exponents the monolithic pipeline computes.
    let obs_start = gemm_obs::now_ns();
    let t0 = Instant::now();
    let exps = match side {
        OperandSide::A => fast_scale_a_view(view, consts.p_fast),
        OperandSide::B => fast_scale_b_view(view, consts.p_fast),
    };
    phases.scale = t0.elapsed();

    // Lines 2–5: the fused trunc+convert sweep straight into the engine's
    // packed i16 panel layout (identical call to the monolithic pipeline's,
    // so the panels are bit-identical too).
    let t0 = Instant::now();
    let kp = padded_depth(k);
    let vecs_pad = match side {
        OperandSide::A => padded_a_rows(vecs),
        OperandSide::B => padded_b_cols(vecs),
    };
    let mut panels = vec![0i16; nmod * vecs_pad * kp];
    let timing = TimeShare::new();
    trunc_convert_pack_panels(
        vectors_source(view, side == OperandSide::A, &exps),
        vecs,
        vecs_pad,
        k,
        kp,
        consts,
        T::IS_F64,
        true,
        &mut panels,
        Some(&timing),
    );
    let sweep = t0.elapsed();
    phases.trunc = sweep.mul_f64(timing.fraction());
    phases.convert = sweep.saturating_sub(phases.trunc);
    crate::pipeline::obs_record_phases(obs_start, &phases);
    gemm_obs::catalog::PREPARED_OPERANDS.inc();

    Ok(PreparedOperand {
        side,
        vecs,
        k,
        n_moduli: nmod,
        mode: emu.mode(),
        b64: T::IS_F64,
        exps,
        panels,
        prepare_phases: phases,
    })
}

impl Ozaki2 {
    /// Prepare the left operand of a DGEMM for reuse: Algorithm 1 lines
    /// 1–5 over `A` only. See [`PreparedOperand`] for the full story.
    ///
    /// # Panics
    /// On non-finite input or [`Mode::Accurate`] (which scales jointly;
    /// use [`Ozaki2::try_prepare_a`] for a checked version).
    pub fn prepare_a(&self, a: &MatF64) -> PreparedOperand {
        self.try_prepare_a(a)
            .unwrap_or_else(|e| panic!("prepare_a: {e}"))
    }

    /// Checked form of [`Ozaki2::prepare_a`].
    pub fn try_prepare_a(&self, a: &MatF64) -> Result<PreparedOperand, EmulationError> {
        self.try_prepare_a_view(&a.view())
    }

    /// [`Ozaki2::try_prepare_a`] over a borrowed strided view (any
    /// layout, leading dimension, transpose; f64 or f32): the canonical
    /// zero-copy prepare entry.
    pub fn try_prepare_a_view<T: Element>(
        &self,
        a: &MatView<'_, T>,
    ) -> Result<PreparedOperand, EmulationError> {
        prepare_view(self, a, OperandSide::A)
    }

    /// [`Ozaki2::try_prepare_a`] over a raw column-major `m x k` slice.
    pub fn try_prepare_a_slice(
        &self,
        data: &[f64],
        m: usize,
        k: usize,
    ) -> Result<PreparedOperand, EmulationError> {
        self.try_prepare_a_view(&MatView::col_major(&data[..m * k], m, k))
    }

    /// Prepare the right operand of a DGEMM for reuse (lines 1–5 over `B`
    /// only).
    ///
    /// # Panics
    /// As [`Ozaki2::prepare_a`].
    pub fn prepare_b(&self, b: &MatF64) -> PreparedOperand {
        self.try_prepare_b(b)
            .unwrap_or_else(|e| panic!("prepare_b: {e}"))
    }

    /// Checked form of [`Ozaki2::prepare_b`].
    pub fn try_prepare_b(&self, b: &MatF64) -> Result<PreparedOperand, EmulationError> {
        self.try_prepare_b_view(&b.view())
    }

    /// [`Ozaki2::try_prepare_b`] over a borrowed strided view — the
    /// B-side counterpart of [`Ozaki2::try_prepare_a_view`].
    pub fn try_prepare_b_view<T: Element>(
        &self,
        b: &MatView<'_, T>,
    ) -> Result<PreparedOperand, EmulationError> {
        prepare_view(self, b, OperandSide::B)
    }

    /// [`Ozaki2::try_prepare_b`] over a raw column-major `k x n` slice.
    pub fn try_prepare_b_slice(
        &self,
        data: &[f64],
        k: usize,
        n: usize,
    ) -> Result<PreparedOperand, EmulationError> {
        self.try_prepare_b_view(&MatView::col_major(&data[..k * n], k, n))
    }

    /// Prepare the left operand of an SGEMM (widened exactly inside the
    /// fused sweep, `b = 32` conversion thresholds — no widened copy is
    /// ever made).
    pub fn try_prepare_a_f32(&self, a: &MatF32) -> Result<PreparedOperand, EmulationError> {
        self.try_prepare_a_view(&a.view())
    }

    /// [`Ozaki2::try_prepare_a_f32`] over a raw column-major slice.
    pub fn try_prepare_a_slice_f32(
        &self,
        data: &[f32],
        m: usize,
        k: usize,
    ) -> Result<PreparedOperand, EmulationError> {
        assert!(data.len() >= m * k, "operand slice too short");
        self.try_prepare_a_view(&MatView::col_major(&data[..m * k], m, k))
    }

    /// Prepare the right operand of an SGEMM.
    pub fn try_prepare_b_f32(&self, b: &MatF32) -> Result<PreparedOperand, EmulationError> {
        self.try_prepare_b_view(&b.view())
    }

    /// [`Ozaki2::try_prepare_b_f32`] over a raw column-major slice.
    pub fn try_prepare_b_slice_f32(
        &self,
        data: &[f32],
        k: usize,
        n: usize,
    ) -> Result<PreparedOperand, EmulationError> {
        assert!(data.len() >= k * n, "operand slice too short");
        self.try_prepare_b_view(&MatView::col_major(&data[..k * n], k, n))
    }

    /// Run Algorithm 1 lines 6–12 over two prepared operands, allocating
    /// the output. Bit-identical to [`Ozaki2::dgemm`] on the matrices the
    /// operands were prepared from.
    ///
    /// # Panics
    /// On mismatched preparations (sides, inner dimension, `N`, mode,
    /// precision) — see [`Ozaki2::try_execute_prepared`].
    pub fn execute_prepared(&self, pa: &PreparedOperand, pb: &PreparedOperand) -> MatF64 {
        self.try_execute_prepared(pa, pb)
            .unwrap_or_else(|e| panic!("execute_prepared: {e}"))
    }

    /// Checked form of [`Ozaki2::execute_prepared`].
    pub fn try_execute_prepared(
        &self,
        pa: &PreparedOperand,
        pb: &PreparedOperand,
    ) -> Result<MatF64, EmulationError> {
        let (m, _) = pa.shape();
        let (_, n) = pb.shape();
        let mut out = Matrix::<f64>::zeros(m, n);
        self.try_execute_prepared_into_ws(pa, pb, &mut Workspace::new(), true, out.as_mut_slice())?;
        Ok(out)
    }

    /// The full-control execute over prepared operands: caller-owned
    /// [`Workspace`] (only the execute-half buffers are used), caller-owned
    /// column-major `m x n` output slice (fully overwritten), and an
    /// explicit `parallel` gate for the engine stripes so an inter-GEMM
    /// scheduler can run many single-threaded items concurrently. The
    /// result is bit-identical for either `parallel` setting.
    pub fn try_execute_prepared_into_ws(
        &self,
        pa: &PreparedOperand,
        pb: &PreparedOperand,
        ws: &mut Workspace,
        parallel: bool,
        out: &mut [f64],
    ) -> Result<EmulationReport, EmulationError> {
        if pa.side != OperandSide::A || pb.side != OperandSide::B {
            return Err(EmulationError::PreparedMismatch {
                reason: "operand sides (expected an A-side and a B-side preparation)",
            });
        }
        self.try_execute_into_ws(
            OperandInput::Prepared(pa),
            OperandInput::Prepared(pb),
            pa.vecs,
            pa.k,
            pb.vecs,
            ws,
            parallel,
            out,
        )
    }

    /// The most general execution entry: each side is either a cached
    /// [`PreparedOperand`] or a **raw** column-major slice whose front end
    /// (lines 1–5) is computed into the caller's [`Workspace`] panel
    /// buffers on the spot. The weight-stationary serving loop runs here —
    /// prepared `B`, raw streaming `A` — with zero allocation per call
    /// beyond the grow-once workspace, and stays bit-identical to
    /// [`Ozaki2::dgemm`].
    ///
    /// `m`, `k`, `n` give the product shape; prepared sides are validated
    /// against it. With a prepared side of SGEMM precision, raw sides must
    /// carry exactly-widened f32 data (the raw conversion then uses the
    /// `b = 32` thresholds too). Only [`Mode::Fast`] emulators can execute
    /// here (accurate mode scales jointly).
    ///
    /// # Panics
    /// If `out.len() != m * n` or a raw slice is shorter than its shape.
    #[allow(clippy::too_many_arguments)]
    pub fn try_execute_into_ws(
        &self,
        a: OperandInput<'_>,
        b: OperandInput<'_>,
        m: usize,
        k: usize,
        n: usize,
        ws: &mut Workspace,
        parallel: bool,
        out: &mut [f64],
    ) -> Result<EmulationReport, EmulationError> {
        if self.mode() != Mode::Fast {
            return Err(EmulationError::PreparationUnsupported { mode: self.mode() });
        }
        // Normalise raw slices to views: one conversion path below.
        let a = match a {
            OperandInput::Raw(data) => {
                assert!(data.len() >= m * k, "A slice too short");
                OperandInput::RawView(MatView::col_major(&data[..m * k], m, k))
            }
            other => other,
        };
        let b = match b {
            OperandInput::Raw(data) => {
                assert!(data.len() >= k * n, "B slice too short");
                OperandInput::RawView(MatView::col_major(&data[..k * n], k, n))
            }
            other => other,
        };
        // Precision: prepared sides dictate; raw-only executions are DGEMM.
        let b64 = match (&a, &b) {
            (OperandInput::Prepared(p), _) => p.b64,
            (_, OperandInput::Prepared(p)) => p.b64,
            _ => true,
        };
        let check_prepared = |p: &PreparedOperand,
                              side: OperandSide,
                              shape: (usize, usize)|
         -> Result<(), EmulationError> {
            if p.side != side {
                return Err(EmulationError::PreparedMismatch {
                    reason: "operand prepared for the other side",
                });
            }
            if p.shape() != shape {
                return Err(EmulationError::ShapeMismatch);
            }
            if p.n_moduli != self.n_moduli() {
                return Err(EmulationError::PreparedMismatch {
                    reason: "moduli count differs from the executing emulator",
                });
            }
            if p.mode != self.mode() {
                return Err(EmulationError::PreparedMismatch {
                    reason: "scaling mode differs from the executing emulator",
                });
            }
            if p.b64 != b64 {
                return Err(EmulationError::PreparedMismatch {
                    reason: "precision (one operand prepared for DGEMM, the other for SGEMM)",
                });
            }
            Ok(())
        };
        match &a {
            OperandInput::Prepared(p) => check_prepared(p, OperandSide::A, (m, k))?,
            OperandInput::RawView(v) => {
                if v.shape() != (m, k) {
                    return Err(EmulationError::ShapeMismatch);
                }
                validate_view(v, OperandSide::A)?;
            }
            OperandInput::Raw(_) => unreachable!("normalised above"),
        }
        match &b {
            OperandInput::Prepared(p) => check_prepared(p, OperandSide::B, (k, n))?,
            OperandInput::RawView(v) => {
                if v.shape() != (k, n) {
                    return Err(EmulationError::ShapeMismatch);
                }
                validate_view(v, OperandSide::B)?;
            }
            OperandInput::Raw(_) => unreachable!("normalised above"),
        }
        assert_eq!(out.len(), m * n, "output buffer mismatch");

        let consts: &Constants = constants(self.n_moduli());
        let predicted_error = nselect::predicted_error(self.n_moduli(), k);
        let nmod = consts.n;
        let policy = self.fault_policy();
        let mut phases = PhaseTimes::default();
        if m == 0 || n == 0 || k == 0 {
            out.fill(0.0);
            return Ok(EmulationReport {
                shape: (m, n, k),
                n_moduli: nmod,
                mode: self.mode(),
                predicted_error,
                phases,
                int8_gemm_calls: 0,
                fault: policy.is_active().then(crate::abft::FaultReport::default),
            });
        }

        let obs_start = gemm_obs::now_ns();
        if matches!(a, OperandInput::RawView(_)) {
            ws.reserve_a(m, k, nmod);
        }
        if matches!(b, OperandInput::RawView(_)) {
            ws.reserve_b(n, k, nmod);
        }
        ws.reserve_exec(m, n, k, nmod);
        if policy.is_active() {
            ws.reserve_abft(m, n, k, nmod);
        }
        let WsBuffers {
            a16: a16ws,
            b16: b16ws,
            u,
            c32,
            racc,
            chk_a16,
            chk_b16,
            uchk,
            chk_sum,
            vsum,
            ..
        } = ws.buffers();
        let kp = padded_depth(k);
        let m_pad = padded_a_rows(m);
        let n_pad = padded_b_cols(n);

        // Front end for the raw sides only — exactly the monolithic
        // pipeline's line-1 scales and fused lines-2–5 sweep, into the
        // workspace's reusable panel buffers (gathered straight from the
        // strided view: no layout-normalised copy).
        let exps_a_own: Vec<i32>;
        let exps_b_own: Vec<i32>;
        let (a_ref, exps_a): (PanelsRef<'_>, &[i32]) = match &a {
            OperandInput::Prepared(p) => (PanelsRef::Fixed(&p.panels), &p.exps),
            OperandInput::RawView(v) => {
                let timing = TimeShare::new();
                let t0 = Instant::now();
                exps_a_own = fast_scale_a_view(v, consts.p_fast);
                phases.scale += t0.elapsed();
                let t0 = Instant::now();
                let a16 = &mut a16ws[..nmod * m_pad * kp];
                trunc_convert_pack_panels(
                    vectors_source(v, true, &exps_a_own),
                    m,
                    m_pad,
                    k,
                    kp,
                    consts,
                    b64,
                    parallel,
                    a16,
                    Some(&timing),
                );
                let sweep = t0.elapsed();
                let trunc = sweep.mul_f64(timing.fraction());
                phases.trunc += trunc;
                phases.convert += sweep.saturating_sub(trunc);
                (
                    PanelsRef::Repackable {
                        panels: a16,
                        src: vectors_source(v, true, &exps_a_own),
                        vecs: m,
                        vecs_pad: m_pad,
                    },
                    &exps_a_own[..],
                )
            }
            OperandInput::Raw(_) => unreachable!("normalised above"),
        };
        let (b_ref, exps_b): (PanelsRef<'_>, &[i32]) = match &b {
            OperandInput::Prepared(p) => (PanelsRef::Fixed(&p.panels), &p.exps),
            OperandInput::RawView(v) => {
                let timing = TimeShare::new();
                let t0 = Instant::now();
                exps_b_own = fast_scale_b_view(v, consts.p_fast);
                phases.scale += t0.elapsed();
                let t0 = Instant::now();
                let b16 = &mut b16ws[..nmod * n_pad * kp];
                trunc_convert_pack_panels(
                    vectors_source(v, false, &exps_b_own),
                    n,
                    n_pad,
                    k,
                    kp,
                    consts,
                    b64,
                    parallel,
                    b16,
                    Some(&timing),
                );
                let sweep = t0.elapsed();
                let trunc = sweep.mul_f64(timing.fraction());
                phases.trunc += trunc;
                phases.convert += sweep.saturating_sub(trunc);
                (
                    PanelsRef::Repackable {
                        panels: b16,
                        src: vectors_source(v, false, &exps_b_own),
                        vecs: n,
                        vecs_pad: n_pad,
                    },
                    &exps_b_own[..],
                )
            }
            OperandInput::Raw(_) => unreachable!("normalised above"),
        };

        let (gemm_calls, fault) = if policy.is_active() {
            let (calls, frep) = execute_panels_ft(
                m,
                n,
                k,
                consts,
                b64,
                a_ref,
                b_ref,
                exps_a,
                exps_b,
                FtScratch {
                    u,
                    c32,
                    racc,
                    chk_a16,
                    chk_b16,
                    uchk,
                    chk_sum,
                    vsum,
                },
                parallel,
                policy,
                out,
                &mut phases,
            );
            (calls, Some(frep))
        } else {
            let calls = execute_panels(
                m,
                n,
                k,
                consts,
                b64,
                a_ref.panels(),
                b_ref.panels(),
                exps_a,
                exps_b,
                u,
                c32,
                racc,
                parallel,
                out,
                &mut phases,
            );
            (calls, None)
        };
        let report = EmulationReport {
            shape: (m, n, k),
            n_moduli: nmod,
            mode: self.mode(),
            predicted_error,
            phases,
            int8_gemm_calls: gemm_calls,
            fault,
        };
        crate::pipeline::obs_record_report(obs_start, &report);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemm_dense::norms::max_relative_error;
    use gemm_dense::workload::{phi_matrix_f32, phi_matrix_f64};
    use std::time::Duration;

    #[test]
    fn prepared_matches_dgemm_bitwise() {
        for (m, n, k) in [
            (1usize, 1usize, 1usize),
            (7, 5, 9),
            (24, 18, 40),
            (33, 47, 65),
        ] {
            let a = phi_matrix_f64(m, k, 0.7, 11, 0);
            let b = phi_matrix_f64(k, n, 0.7, 11, 1);
            for nmod in [4usize, 13, 15] {
                let emu = Ozaki2::new(nmod, Mode::Fast);
                let pa = emu.prepare_a(&a);
                let pb = emu.prepare_b(&b);
                let got = emu.execute_prepared(&pa, &pb);
                assert_eq!(got, emu.dgemm(&a, &b), "m={m} n={n} k={k} N={nmod}");
            }
        }
    }

    #[test]
    fn prepared_reuse_across_partners() {
        // One prepared B against a stream of As — every product must match
        // the monolithic pipeline exactly.
        let (m, n, k) = (16usize, 12, 28);
        let emu = Ozaki2::new(15, Mode::Fast);
        let b = phi_matrix_f64(k, n, 0.5, 3, 1);
        let pb = emu.prepare_b(&b);
        let mut ws = Workspace::new();
        for seed in 0..5u64 {
            let a = phi_matrix_f64(m, k, 0.5, seed, 0);
            let pa = emu.prepare_a(&a);
            for parallel in [false, true] {
                let mut out = vec![f64::NAN; m * n];
                emu.try_execute_prepared_into_ws(&pa, &pb, &mut ws, parallel, &mut out)
                    .unwrap();
                assert_eq!(out, emu.dgemm(&a, &b).into_vec(), "seed={seed}");
            }
        }
    }

    #[test]
    fn prepared_slice_equals_matrix_form() {
        let (m, n, k) = (9usize, 14, 21);
        let a = phi_matrix_f64(m, k, 1.2, 5, 0);
        let b = phi_matrix_f64(k, n, 1.2, 5, 1);
        let emu = Ozaki2::new(10, Mode::Fast);
        let pa = emu.try_prepare_a_slice(a.as_slice(), m, k).unwrap();
        let pb = emu.try_prepare_b_slice(b.as_slice(), k, n).unwrap();
        assert_eq!(emu.execute_prepared(&pa, &pb), emu.dgemm(&a, &b));
    }

    #[test]
    fn prepared_f32_matches_sgemm() {
        let (m, n, k) = (12usize, 10, 20);
        let a = phi_matrix_f32(m, k, 0.5, 2, 0);
        let b = phi_matrix_f32(k, n, 0.5, 2, 1);
        let emu = Ozaki2::new(8, Mode::Fast);
        let pa = emu.try_prepare_a_f32(&a).unwrap();
        let pb = emu.try_prepare_b_f32(&b).unwrap();
        let mut out = vec![0f64; m * n];
        emu.try_execute_prepared_into_ws(&pa, &pb, &mut Workspace::new(), true, &mut out)
            .unwrap();
        let got: Vec<f32> = out.iter().map(|&x| x as f32).collect();
        assert_eq!(got, emu.sgemm(&a, &b).into_vec());
    }

    #[test]
    fn mixed_raw_a_prepared_b_matches_dgemm_alloc_free() {
        // The weight-stationary serving path: prepared B, streaming raw A
        // converted into the reusable workspace. Bit-identical, and the
        // workspace stops growing after the first item.
        let (m, n, k) = (24usize, 20, 36);
        let emu = Ozaki2::new(15, Mode::Fast);
        let b = phi_matrix_f64(k, n, 0.5, 7, 1);
        let pb = emu.prepare_b(&b);
        let mut ws = Workspace::new();
        let mut out = vec![0f64; m * n];
        let mut steady = 0usize;
        for seed in 0..5u64 {
            let a = phi_matrix_f64(m, k, 0.5, seed, 0);
            emu.try_execute_into_ws(
                OperandInput::Raw(a.as_slice()),
                OperandInput::Prepared(&pb),
                m,
                k,
                n,
                &mut ws,
                true,
                &mut out,
            )
            .unwrap();
            assert_eq!(out, emu.dgemm(&a, &b).into_vec(), "seed={seed}");
            if seed == 0 {
                steady = ws.bytes();
            } else {
                assert_eq!(ws.bytes(), steady, "steady state must not allocate");
            }
        }
    }

    #[test]
    fn mixed_both_raw_matches_dgemm() {
        let (m, n, k) = (11usize, 13, 17);
        let emu = Ozaki2::new(10, Mode::Fast);
        let a = phi_matrix_f64(m, k, 0.9, 2, 0);
        let b = phi_matrix_f64(k, n, 0.9, 2, 1);
        let mut out = vec![0f64; m * n];
        for parallel in [false, true] {
            emu.try_execute_into_ws(
                OperandInput::Raw(a.as_slice()),
                OperandInput::Raw(b.as_slice()),
                m,
                k,
                n,
                &mut Workspace::new(),
                parallel,
                &mut out,
            )
            .unwrap();
            assert_eq!(out, emu.dgemm(&a, &b).into_vec(), "parallel={parallel}");
        }
    }

    #[test]
    fn accurate_mode_cannot_prepare() {
        let a = phi_matrix_f64(4, 4, 0.5, 1, 0);
        let emu = Ozaki2::new(8, Mode::Accurate);
        assert_eq!(
            emu.try_prepare_a(&a).unwrap_err(),
            EmulationError::PreparationUnsupported {
                mode: Mode::Accurate
            }
        );
    }

    #[test]
    fn mismatches_are_rejected() {
        let emu = Ozaki2::new(8, Mode::Fast);
        let a = phi_matrix_f64(4, 6, 0.5, 1, 0);
        let b = phi_matrix_f64(6, 5, 0.5, 1, 1);
        let pa = emu.prepare_a(&a);
        let pb = emu.prepare_b(&b);
        // Sides swapped.
        assert!(matches!(
            emu.try_execute_prepared(&pb, &pa),
            Err(EmulationError::PreparedMismatch { .. })
        ));
        // Inner dimension mismatch.
        let b_bad = phi_matrix_f64(7, 5, 0.5, 1, 1);
        let pb_bad = emu.prepare_b(&b_bad);
        assert_eq!(
            emu.try_execute_prepared(&pa, &pb_bad).unwrap_err(),
            EmulationError::ShapeMismatch
        );
        // Moduli mismatch with the executing emulator.
        let other = Ozaki2::new(9, Mode::Fast);
        assert!(matches!(
            other.try_execute_prepared(&pa, &pb),
            Err(EmulationError::PreparedMismatch { .. })
        ));
        // Precision mismatch.
        let bf = phi_matrix_f32(6, 5, 0.5, 1, 1);
        let pb_f32 = emu.try_prepare_b_f32(&bf).unwrap();
        assert!(matches!(
            emu.try_execute_prepared(&pa, &pb_f32),
            Err(EmulationError::PreparedMismatch { .. })
        ));
    }

    #[test]
    fn prepared_empty_shapes() {
        let emu = Ozaki2::new(4, Mode::Fast);
        let a = MatF64::zeros(0, 5);
        let b = MatF64::zeros(5, 3);
        let pa = emu.prepare_a(&a);
        let pb = emu.prepare_b(&b);
        let c = emu.execute_prepared(&pa, &pb);
        assert_eq!(c.shape(), (0, 3));
        // k = 0: product is all zeros.
        let a0 = MatF64::zeros(2, 0);
        let b0 = MatF64::zeros(0, 3);
        let c0 = emu.execute_prepared(&emu.prepare_a(&a0), &emu.prepare_b(&b0));
        assert!(c0.iter().all(|&x| x == 0.0));
        assert_eq!(c0.shape(), (2, 3));
    }

    #[test]
    fn prepare_records_front_end_phases() {
        let a = phi_matrix_f64(64, 96, 0.5, 9, 0);
        let emu = Ozaki2::new(15, Mode::Fast);
        let pa = emu.prepare_a(&a);
        let ph = pa.prepare_phases();
        assert!(ph.scale.as_nanos() > 0);
        assert!(ph.trunc + ph.convert > Duration::from_nanos(0));
        assert!(pa.prepare_seconds() > 0.0);
        assert!(pa.bytes() >= 15 * 64 * 96 * 2);
    }

    #[test]
    fn prepared_accuracy_sanity() {
        // Not just bit-identity to the pipeline — the result is also right.
        let (m, n, k) = (20usize, 20, 32);
        let a = phi_matrix_f64(m, k, 0.5, 4, 0);
        let b = phi_matrix_f64(k, n, 0.5, 4, 1);
        let emu = Ozaki2::new(15, Mode::Fast);
        let c = emu.execute_prepared(&emu.prepare_a(&a), &emu.prepare_b(&b));
        let exact = gemm_dense::gemm::gemm_f64_naive(&a, &b);
        assert!(max_relative_error(&c, &exact) < 1e-12);
    }
}
