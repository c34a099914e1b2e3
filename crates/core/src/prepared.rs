//! Reusable one-sided operand preparations: Algorithm 1's front end,
//! cached.
//!
//! Lines 1–5 of Algorithm 1 (scale-vector determination, the fused
//! trunc+convert sweep, and the engine packing) depend on only **one**
//! operand in [`Mode::Fast`] — row scales for `A`, column scales for `B`.
//! A workload that reuses an operand across many products (weight-stationary
//! inference, the shared component products of CRT complex multiplication,
//! LU panels multiplied against a stream of blocks) therefore recomputes
//! the whole front end redundantly when it goes through
//! [`Ozaki2::gemm`] per call.
//!
//! [`Ozaki2::prepare`] captures that front end once as a
//! [`PreparedOperand`]: the scale exponents plus the `N` packed i8
//! residue panels, in exactly the layout the INT8 engine's zero-repack
//! entry ([`gemm_engine::int8_gemm_prepacked_fused`]) consumes.
//! [`Ozaki2::execute`] runs the one Algorithm-1 body with either side a
//! preparation (front end skipped) or a plain view (front end computed
//! into the workspace). Both halves run the very same kernels as
//! [`Ozaki2::gemm`], so the result is **bit-identical** to it — the
//! property the batched runtime (`gemm_batch`) builds its caching on.
//!
//! [`Mode::Accurate`] scales `A` and `B` jointly (one estimation GEMM over
//! both magnitudes), so a one-sided preparation cannot exist; `prepare`,
//! and `execute` with a prepared side, return
//! [`EmulationError::PreparationUnsupported`] for it, and accurate-mode
//! batches fall back to [`Ozaki2::gemm_into`] per item.

use crate::consts::constants;
use crate::element::Element;
use crate::facade::{algorithm1, check_n, fold_into_view, front_end, validate_view};
use crate::pipeline::{EmulationError, EmulationReport, Mode, Ozaki2, PhaseTimes, Workspace};
use gemm_dense::{MatView, MatViewMut, Matrix};
use gemm_engine::{padded_a_rows, padded_b_cols, padded_depth};

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

impl OperandSide {
    /// Panel geometry of an operand of logical `shape` on this side:
    /// `(vecs, vecs_pad, k)` — the packed vector count (rows of `A`,
    /// columns of `B`), its engine padding, and the inner dimension.
    pub(crate) fn panel_dims(self, (rows, cols): (usize, usize)) -> (usize, usize, usize) {
        match self {
            OperandSide::A => (rows, padded_a_rows(rows), cols),
            OperandSide::B => (cols, padded_b_cols(cols), rows),
        }
    }
}

/// A cached Algorithm-1 front end (lines 1–5) for one operand: scale
/// exponents plus the `N` packed i8 residue panels, ready for
/// zero-repack INT8 GEMMs.
///
/// Produced by [`Ozaki2::prepare`], consumed by [`Ozaki2::execute`].
/// Reusing a preparation across products amortizes the entire convert
/// front end — see the example below and `examples/batched_inference.rs`.
///
/// # Examples
/// ```
/// use gemm_dense::workload::phi_matrix_f64;
/// use gemm_dense::Matrix;
/// use ozaki2::{Mode, OperandSide, Ozaki2, Workspace};
///
/// let emu = Ozaki2::new(12, Mode::Fast);
/// let b = phi_matrix_f64(48, 32, 0.5, 7, 1);
/// // Prepare the shared (weight-like) operand once...
/// let pb = emu.prepare(OperandSide::B, &b).unwrap();
/// let mut ws = Workspace::new();
/// let mut c = Matrix::<f64>::zeros(24, 32);
/// for seed in 0..3 {
///     let a = phi_matrix_f64(24, 48, 0.5, seed, 0);
///     // ...and every product over it skips B's scale/trunc/convert.
///     emu.execute(&a, &pb, &mut ws, true, c.view_mut()).unwrap();
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
    panels: Vec<i8>,
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
        self.panels.capacity() + self.exps.capacity() * 4
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

    pub(crate) fn panels(&self) -> &[i8] {
        &self.panels
    }

    pub(crate) fn exps(&self) -> &[i32] {
        &self.exps
    }

    /// Can this preparation run as the `side` operand of an `n_moduli`
    /// emulator of precision `b64`? (The shape is checked against the
    /// other operand by the caller.)
    pub(crate) fn check(
        &self,
        side: OperandSide,
        n_moduli: usize,
        b64: bool,
    ) -> Result<(), EmulationError> {
        let reason = if self.side != side {
            "operand prepared for the other side"
        } else if self.n_moduli != n_moduli {
            "moduli count differs from the executing emulator"
        } else if self.b64 != b64 {
            "precision (operand prepared for the other element type)"
        } else {
            return Ok(());
        };
        Err(EmulationError::PreparedMismatch { reason })
    }
}

/// One operand of [`Ozaki2::execute`]: a borrowed view (any layout,
/// leading dimension or transpose) whose front end (lines 1–5) is
/// computed into the caller's [`Workspace`] — zero copies, zero
/// allocations once the workspace has grown — or a cached preparation
/// whose panels are borrowed.
#[derive(Clone, Copy)]
pub enum OperandInput<'a, T: Element> {
    /// A borrowed view, converted into the workspace's panel buffers.
    View(MatView<'a, T>),
    /// A cached preparation (panels borrowed, front end skipped).
    Prepared(&'a PreparedOperand),
}

impl<T: Element> OperandInput<'_, T> {
    /// Logical shape: the view's, or the preparation's.
    pub(crate) fn shape(&self) -> (usize, usize) {
        match self {
            OperandInput::View(v) => v.shape(),
            OperandInput::Prepared(p) => p.shape(),
        }
    }
}

impl<'a, T: Element> From<MatView<'a, T>> for OperandInput<'a, T> {
    fn from(v: MatView<'a, T>) -> Self {
        OperandInput::View(v)
    }
}

impl<'a, T: Element> From<&'a Matrix<T>> for OperandInput<'a, T> {
    fn from(m: &'a Matrix<T>) -> Self {
        OperandInput::View(m.view())
    }
}

impl<'a, T: Element> From<&'a PreparedOperand> for OperandInput<'a, T> {
    fn from(p: &'a PreparedOperand) -> Self {
        OperandInput::Prepared(p)
    }
}

impl Ozaki2 {
    /// Run Algorithm 1 lines 1–5 over one operand (`m x k` for
    /// [`OperandSide::A`], `k x n` for [`OperandSide::B`]; `f64` or `f32`,
    /// any view) and keep the result for reuse by [`Ozaki2::execute`].
    ///
    /// # Errors
    /// [`EmulationError::PreparationUnsupported`] in [`Mode::Accurate`]
    /// (which scales jointly), [`EmulationError::UnsupportedN`] past the
    /// precision's moduli range, [`EmulationError::NonFiniteInput`].
    pub fn prepare<'a, T: Element>(
        &self,
        side: OperandSide,
        view: impl Into<MatView<'a, T>>,
    ) -> Result<PreparedOperand, EmulationError> {
        let view = view.into();
        if self.mode() != Mode::Fast {
            return Err(EmulationError::PreparationUnsupported { mode: self.mode() });
        }
        check_n::<T>(self.n_moduli())?;
        validate_view(&view, side)?;
        let consts = constants(self.n_moduli());
        let (vecs, vecs_pad, k) = side.panel_dims(view.shape());
        let mut panels = vec![0i8; consts.n * vecs_pad * padded_depth(k)];
        let mut phases = PhaseTimes::default();
        let obs_start = gemm_obs::now_ns();
        let exps = front_end(&view, side, None, consts, true, &mut panels, &mut phases);
        crate::pipeline::obs_record_phases(obs_start, &phases);
        gemm_obs::catalog::PREPARED_OPERANDS.inc();
        Ok(PreparedOperand {
            side,
            vecs,
            k,
            n_moduli: consts.n,
            mode: self.mode(),
            b64: T::IS_F64,
            exps,
            panels,
            prepare_phases: phases,
        })
    }

    /// `out ← A · B` with each operand a view or a [`PreparedOperand`]
    /// (see [`OperandInput`]; `&Matrix`, views and `&PreparedOperand`
    /// convert). Shapes come from the operands and `out` (column-major,
    /// any leading dimension; fully overwritten). View operands convert
    /// into `ws`, so with a reused workspace the steady state allocates
    /// nothing. `parallel` gates the internal parallel regions, so an
    /// inter-GEMM scheduler can run many single-threaded items at once.
    /// Bit-identical to [`Ozaki2::gemm`] on the same operands, for either
    /// `parallel`.
    ///
    /// # Errors
    /// [`EmulationError::PreparedMismatch`] when a preparation's side,
    /// `N` or precision disagrees, [`EmulationError::ShapeMismatch`],
    /// [`EmulationError::PreparationUnsupported`] for a prepared operand
    /// under [`Mode::Accurate`], plus the errors of [`Ozaki2::gemm`].
    pub fn execute<'a, T: Element>(
        &self,
        a: impl Into<OperandInput<'a, T>>,
        b: impl Into<OperandInput<'a, T>>,
        ws: &mut Workspace,
        parallel: bool,
        out: MatViewMut<'_, T>,
    ) -> Result<EmulationReport, EmulationError> {
        let consts = constants(self.n_moduli());
        algorithm1(
            self,
            a.into(),
            b.into(),
            ws,
            parallel,
            self.fault_policy(),
            out.shape(),
            |planes| fold_into_view(planes, consts, T::ONE, T::ZERO, out),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemm_dense::norms::max_relative_error;
    use gemm_dense::workload::{phi_matrix_f32, phi_matrix_f64};
    use gemm_dense::MatF64;
    use std::time::Duration;

    /// `A · B` over two preparations into a fresh output, fresh workspace.
    fn execute_prepared(
        emu: &Ozaki2,
        pa: &PreparedOperand,
        pb: &PreparedOperand,
    ) -> Result<MatF64, EmulationError> {
        let mut c = MatF64::zeros(pa.shape().0, pb.shape().1);
        emu.execute(pa, pb, &mut Workspace::new(), true, c.view_mut())?;
        Ok(c)
    }

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
                let pa = emu.prepare(OperandSide::A, &a).unwrap();
                let pb = emu.prepare(OperandSide::B, &b).unwrap();
                let got = execute_prepared(&emu, &pa, &pb).unwrap();
                assert_eq!(got, emu.dgemm(&a, &b), "m={m} n={n} k={k} N={nmod}");
            }
        }
    }

    #[test]
    fn prepared_reuse_across_partners() {
        // One prepared B against a stream of As — every product must match
        // the plain facade exactly.
        let (m, n, k) = (16usize, 12, 28);
        let emu = Ozaki2::new(15, Mode::Fast);
        let b = phi_matrix_f64(k, n, 0.5, 3, 1);
        let pb = emu.prepare(OperandSide::B, &b).unwrap();
        let mut ws = Workspace::new();
        for seed in 0..5u64 {
            let a = phi_matrix_f64(m, k, 0.5, seed, 0);
            let pa = emu.prepare(OperandSide::A, &a).unwrap();
            for parallel in [false, true] {
                let mut out = vec![f64::NAN; m * n];
                emu.execute(
                    &pa,
                    &pb,
                    &mut ws,
                    parallel,
                    MatViewMut::col_major(&mut out, m, n),
                )
                .unwrap();
                assert_eq!(out, emu.dgemm(&a, &b).into_vec(), "seed={seed}");
            }
        }
    }

    #[test]
    fn prepared_slice_equals_matrix_form() {
        // A raw column-major slice viewed in place prepares exactly like
        // the owning matrix.
        let (m, n, k) = (9usize, 14, 21);
        let a = phi_matrix_f64(m, k, 1.2, 5, 0);
        let b = phi_matrix_f64(k, n, 1.2, 5, 1);
        let emu = Ozaki2::new(10, Mode::Fast);
        let pa = emu
            .prepare(OperandSide::A, MatView::col_major(a.as_slice(), m, k))
            .unwrap();
        let pb = emu
            .prepare(OperandSide::B, MatView::col_major(b.as_slice(), k, n))
            .unwrap();
        assert_eq!(execute_prepared(&emu, &pa, &pb).unwrap(), emu.dgemm(&a, &b));
    }

    #[test]
    fn prepared_f32_matches_sgemm() {
        let (m, n, k) = (12usize, 10, 20);
        let a = phi_matrix_f32(m, k, 0.5, 2, 0);
        let b = phi_matrix_f32(k, n, 0.5, 2, 1);
        let emu = Ozaki2::new(8, Mode::Fast);
        let pa = emu.prepare(OperandSide::A, &a).unwrap();
        let pb = emu.prepare(OperandSide::B, &b).unwrap();
        let mut out = Matrix::<f32>::zeros(m, n);
        emu.execute(&pa, &pb, &mut Workspace::new(), true, out.view_mut())
            .unwrap();
        assert_eq!(out, emu.sgemm(&a, &b));
        // Mixed: a streaming f32 view against the prepared B.
        emu.execute(&a, &pb, &mut Workspace::new(), true, out.view_mut())
            .unwrap();
        assert_eq!(out, emu.sgemm(&a, &b));
    }

    #[test]
    fn mixed_raw_a_prepared_b_matches_dgemm_alloc_free() {
        // The weight-stationary serving path: prepared B, streaming view A
        // converted into the reusable workspace. Bit-identical, and the
        // workspace stops growing after the first item.
        let (m, n, k) = (24usize, 20, 36);
        let emu = Ozaki2::new(15, Mode::Fast);
        let b = phi_matrix_f64(k, n, 0.5, 7, 1);
        let pb = emu.prepare(OperandSide::B, &b).unwrap();
        let mut ws = Workspace::new();
        let mut out = MatF64::zeros(m, n);
        let mut steady = 0usize;
        for seed in 0..5u64 {
            let a = phi_matrix_f64(m, k, 0.5, seed, 0);
            emu.execute(&a, &pb, &mut ws, true, out.view_mut()).unwrap();
            assert_eq!(out, emu.dgemm(&a, &b), "seed={seed}");
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
        let mut out = MatF64::zeros(m, n);
        for parallel in [false, true] {
            emu.execute(&a, &b, &mut Workspace::new(), parallel, out.view_mut())
                .unwrap();
            assert_eq!(out, emu.dgemm(&a, &b), "parallel={parallel}");
        }
    }

    #[test]
    fn accurate_mode_cannot_prepare() {
        let a = phi_matrix_f64(4, 4, 0.5, 1, 0);
        let emu = Ozaki2::new(8, Mode::Accurate);
        let unsupported = EmulationError::PreparationUnsupported {
            mode: Mode::Accurate,
        };
        assert_eq!(emu.prepare(OperandSide::A, &a).unwrap_err(), unsupported);
        // A preparation from a fast emulator cannot run under accurate
        // scaling either; two plain views can.
        let pa = Ozaki2::new(8, Mode::Fast)
            .prepare(OperandSide::A, &a)
            .unwrap();
        let mut c = MatF64::zeros(4, 4);
        let mut ws = Workspace::new();
        assert_eq!(
            emu.execute(&pa, &a, &mut ws, true, c.view_mut())
                .unwrap_err(),
            unsupported
        );
        emu.execute(&a, &a, &mut ws, true, c.view_mut()).unwrap();
        assert_eq!(c, emu.dgemm(&a, &a));
    }

    #[test]
    fn mismatches_are_rejected() {
        let emu = Ozaki2::new(8, Mode::Fast);
        let a = phi_matrix_f64(4, 6, 0.5, 1, 0);
        let b = phi_matrix_f64(6, 5, 0.5, 1, 1);
        let pa = emu.prepare(OperandSide::A, &a).unwrap();
        let pb = emu.prepare(OperandSide::B, &b).unwrap();
        // Sides swapped.
        assert!(matches!(
            execute_prepared(&emu, &pb, &pa),
            Err(EmulationError::PreparedMismatch { .. })
        ));
        // Inner dimension mismatch.
        let b_bad = phi_matrix_f64(7, 5, 0.5, 1, 1);
        let pb_bad = emu.prepare(OperandSide::B, &b_bad).unwrap();
        assert_eq!(
            execute_prepared(&emu, &pa, &pb_bad).unwrap_err(),
            EmulationError::ShapeMismatch
        );
        // Output shape mismatch.
        let mut c_bad = MatF64::zeros(4, 4);
        assert_eq!(
            emu.execute(&pa, &pb, &mut Workspace::new(), true, c_bad.view_mut())
                .unwrap_err(),
            EmulationError::ShapeMismatch
        );
        // Moduli mismatch with the executing emulator.
        let other = Ozaki2::new(9, Mode::Fast);
        assert!(matches!(
            execute_prepared(&other, &pa, &pb),
            Err(EmulationError::PreparedMismatch { .. })
        ));
        // Precision mismatch.
        let bf = phi_matrix_f32(6, 5, 0.5, 1, 1);
        let pb_f32 = emu.prepare(OperandSide::B, &bf).unwrap();
        assert!(matches!(
            execute_prepared(&emu, &pa, &pb_f32),
            Err(EmulationError::PreparedMismatch { .. })
        ));
    }

    #[test]
    fn prepared_empty_shapes() {
        let emu = Ozaki2::new(4, Mode::Fast);
        let a = MatF64::zeros(0, 5);
        let b = MatF64::zeros(5, 3);
        let pa = emu.prepare(OperandSide::A, &a).unwrap();
        let pb = emu.prepare(OperandSide::B, &b).unwrap();
        let c = execute_prepared(&emu, &pa, &pb).unwrap();
        assert_eq!(c.shape(), (0, 3));
        // k = 0: product is all zeros.
        let pa0 = emu.prepare(OperandSide::A, &MatF64::zeros(2, 0)).unwrap();
        let pb0 = emu.prepare(OperandSide::B, &MatF64::zeros(0, 3)).unwrap();
        let c0 = execute_prepared(&emu, &pa0, &pb0).unwrap();
        assert!(c0.iter().all(|&x| x == 0.0));
        assert_eq!(c0.shape(), (2, 3));
    }

    #[test]
    fn prepare_records_front_end_phases() {
        let a = phi_matrix_f64(64, 96, 0.5, 9, 0);
        let emu = Ozaki2::new(15, Mode::Fast);
        let pa = emu.prepare(OperandSide::A, &a).unwrap();
        let ph = pa.prepare_phases();
        assert!(ph.scale.as_nanos() > 0);
        assert!(ph.trunc + ph.convert > Duration::from_nanos(0));
        assert!(pa.prepare_seconds() > 0.0);
        assert!(pa.bytes() >= 15 * 64 * 96);
    }

    #[test]
    fn prepared_accuracy_sanity() {
        // Not just bit-identity to the facade — the result is also right.
        let (m, n, k) = (20usize, 20, 32);
        let a = phi_matrix_f64(m, k, 0.5, 4, 0);
        let b = phi_matrix_f64(k, n, 0.5, 4, 1);
        let emu = Ozaki2::new(15, Mode::Fast);
        let c = execute_prepared(
            &emu,
            &emu.prepare(OperandSide::A, &a).unwrap(),
            &emu.prepare(OperandSide::B, &b).unwrap(),
        )
        .unwrap();
        let exact = gemm_dense::gemm::gemm_f64_naive(&a, &b);
        assert!(max_relative_error(&c, &exact) < 1e-12);
    }
}
