//! The emulator, its workspace and per-call report.
//!
//! [`Ozaki2`] bundles the two user-visible knobs — the number of moduli `N`
//! (accuracy) and the computing [`Mode`] (fast vs accurate scaling) — plus
//! the ABFT [`FaultPolicy`]. This module holds the emulator, its
//! [`Workspace`] and [`EmulationReport`] (the per-phase wall-clock
//! breakdown used to regenerate Figs. 6–7), and the `dgemm`/`sgemm`
//! delegates. The entries and the one Algorithm-1 body live in
//! [`crate::facade`]; lines 6–7 over packed panels run in the one
//! executor in [`crate::abft`], for every fault policy, and each entry
//! hands the body its own lines-8–12 fold. The [`Workspace`]
//! holds the residue panels in the engine's one i8 panel format, so a
//! square product's panels take `2N·mk` bytes, next to the executor's
//! own scratch.

use crate::abft::{FaultPolicy, FaultReport};
use crate::facade::GemmArgs;
use crate::moduli::N_MAX;
use crate::prepared::OperandSide;
use gemm_dense::{MatF32, MatF64, MatMulF32, MatMulF64};
use gemm_engine::{padded_a_rows, padded_b_cols, padded_depth};
use std::time::Duration;

/// Largest `k` per INT8 GEMM before block splitting (§4.3: products of
/// `±128` entries stay within the wrapping-INT32 guarantee up to `2^17`).
pub const K_BLOCK_MAX: usize = 1 << 17;

/// Scaling mode (§4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Cauchy–Schwarz row/column-norm bound: cheapest, coarser scales.
    Fast,
    /// INT8 magnitude-product bound: one extra INT8 GEMM, tighter scales,
    /// better accuracy (especially for wide exponent distributions).
    Accurate,
}

impl Mode {
    /// Short label used in method names ("fast" / "accu").
    pub fn label(self) -> &'static str {
        match self {
            Mode::Fast => "fast",
            Mode::Accurate => "accu",
        }
    }
}

/// Errors surfaced by the checked entry points.
#[derive(Clone, Debug, PartialEq)]
pub enum EmulationError {
    /// An input entry was NaN or infinite.
    NonFiniteInput {
        /// Which operand held the offending entry.
        side: OperandSide,
        /// Storage index of the first non-finite entry in the operand's
        /// backing slice (column-major: `i + j * ld`; row-major:
        /// `j + i * ld`).
        index: usize,
    },
    /// Requested moduli count outside the supported range.
    UnsupportedN {
        /// The offending request.
        n: usize,
        /// Inclusive maximum for the precision in question.
        max: usize,
    },
    /// Inner dimensions disagree.
    ShapeMismatch,
    /// No supported moduli count reaches the requested accuracy target
    /// (surfaced by [`crate::facade::Ozaki2Builder`] and
    /// [`crate::nselect::choose_n_checked`]).
    AccuracyUnreachable {
        /// The requested normwise relative error.
        target: f64,
        /// The largest supported moduli count for the pipeline asked.
        best_n: usize,
        /// The predicted error at `best_n` — how close the request came.
        predicted: f64,
    },
    /// A `k`-dependent accuracy target was used without an inner
    /// dimension to resolve it against (call
    /// [`crate::facade::Ozaki2Builder::k`] before building).
    AccuracyNeedsK,
    /// Operand preparation requested for a mode that cannot prepare
    /// operands independently ([`Mode::Accurate`] scales `A` and `B`
    /// jointly, so a cached one-sided preparation cannot exist).
    PreparationUnsupported {
        /// The offending mode.
        mode: Mode,
    },
    /// Two [`crate::prepared::PreparedOperand`]s (or an operand and the
    /// executing emulator) disagree on side, inner dimension, moduli
    /// count, mode, or precision.
    PreparedMismatch {
        /// What disagreed.
        reason: &'static str,
    },
}

impl std::fmt::Display for EmulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmulationError::NonFiniteInput { side, index } => write!(
                f,
                "operand {side:?} contains NaN or infinity (storage index {index})"
            ),
            EmulationError::UnsupportedN { n, max } => {
                write!(f, "N = {n} outside supported range 2..={max}")
            }
            EmulationError::ShapeMismatch => write!(f, "inner matrix dimensions disagree"),
            EmulationError::AccuracyUnreachable {
                target,
                best_n,
                predicted,
            } => write!(
                f,
                "accuracy target {target:e} unreachable: the largest supported \
                 N = {best_n} predicts {predicted:e}"
            ),
            EmulationError::AccuracyNeedsK => write!(
                f,
                "a k-dependent accuracy target needs the inner dimension: \
                 set Ozaki2Builder::k before build"
            ),
            EmulationError::PreparationUnsupported { mode } => write!(
                f,
                "operand preparation is only defined for Mode::Fast \
                 (Mode::{mode:?} scales A and B jointly)"
            ),
            EmulationError::PreparedMismatch { reason } => {
                write!(f, "prepared operands disagree: {reason}")
            }
        }
    }
}

impl std::error::Error for EmulationError {}

/// Wall-clock breakdown by Algorithm 1 line (Figs. 6–7).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Line 1: scale-vector determination (includes the `Ā·B̄` INT8 GEMM
    /// in accurate mode).
    pub scale: Duration,
    /// Lines 2–3: the scale+trunc portion of the fused operand sweep
    /// (transpose gather + `trunc(2^e · x)`), attributed out of the
    /// combined trunc+convert pass by per-job CPU-time share.
    pub trunc: Duration,
    /// Lines 4–5: the `rmod` + panel-packing portion of the fused operand
    /// sweep (includes what used to be the engine-side operand packing).
    pub convert: Duration,
    /// Line 6: the `N` INT8 matrix multiplications.
    pub int8_gemm: Duration,
    /// Line 7: INT32 → UINT8 modular reduction.
    pub mod_reduce: Duration,
    /// Lines 8–12: weighted accumulation, CRT fold, inverse scaling.
    pub fold: Duration,
    /// ABFT side channel (zero under [`crate::abft::FaultPolicy::Off`]):
    /// checksum-panel construction, the per-plane checksum GEMMs, the
    /// verification sweep, and any recovery re-execution.
    pub verify: Duration,
}

impl PhaseTimes {
    /// Total across phases.
    pub fn total(&self) -> Duration {
        self.scale
            + self.trunc
            + self.convert
            + self.int8_gemm
            + self.mod_reduce
            + self.fold
            + self.verify
    }

    /// `(label, seconds)` pairs in Algorithm-1 order.
    pub fn as_rows(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("scale (line 1)", self.scale.as_secs_f64()),
            ("trunc (lines 2-3)", self.trunc.as_secs_f64()),
            ("convert (lines 4-5)", self.convert.as_secs_f64()),
            ("int8 GEMM (line 6)", self.int8_gemm.as_secs_f64()),
            ("mod (line 7)", self.mod_reduce.as_secs_f64()),
            ("fold (lines 8-12)", self.fold.as_secs_f64()),
            ("verify (abft)", self.verify.as_secs_f64()),
        ]
    }
}

/// Mirror one call's phase attribution into the observability registry:
/// each nonzero phase becomes one histogram observation *and* one span
/// event with the same nanosecond value (so Chrome-trace span sums
/// reconcile exactly against the Prometheus `_sum` series). The spans are
/// laid out end-to-end from `call_start_ns` in Algorithm-1 order — a
/// synthetic sequential timeline, since `int8_gemm` and `mod_reduce`
/// physically interleave per residue plane but are *attributed*
/// separately by the executor. No-op when observability is disabled.
pub(crate) fn obs_record_phases(call_start_ns: u64, phases: &PhaseTimes) {
    if !gemm_obs::enabled() {
        return;
    }
    use gemm_obs::catalog as cat;
    let mut t = call_start_ns;
    for (hist, d) in [
        (&cat::PHASE_SCALE, phases.scale),
        (&cat::PHASE_TRUNC, phases.trunc),
        (&cat::PHASE_CONVERT, phases.convert),
        (&cat::PHASE_INT8_GEMM, phases.int8_gemm),
        (&cat::PHASE_MOD_REDUCE, phases.mod_reduce),
        (&cat::PHASE_FOLD, phases.fold),
        (&cat::PHASE_VERIFY, phases.verify),
    ] {
        let ns = d.as_nanos() as u64;
        if ns == 0 {
            continue;
        }
        gemm_obs::observe_span(hist.span_name(), "pipeline", hist, t, ns);
        t += ns;
    }
}

/// [`obs_record_phases`] plus the per-call counters (emulated GEMMs,
/// issued INT8 GEMMs, ABFT outcome) — the shared tail of every execution
/// entry point (facade and prepared/batched paths).
pub(crate) fn obs_record_report(call_start_ns: u64, report: &EmulationReport) {
    if !gemm_obs::enabled() {
        return;
    }
    use gemm_obs::catalog as cat;
    obs_record_phases(call_start_ns, &report.phases);
    cat::EMULATED_GEMMS.inc();
    cat::INT8_GEMM_CALLS.add(report.int8_gemm_calls as u64);
    if let Some(f) = &report.fault {
        cat::ABFT_DETECTIONS.add(f.detected as u64);
        cat::ABFT_RETRIES.add(f.retries as u64);
        cat::ABFT_SCALAR_FALLBACKS.add(f.scalar_fallbacks as u64);
        cat::ABFT_UNRECOVERED.add(f.unrecovered as u64);
    }
}

/// Per-call metadata returned by [`Ozaki2::gemm_into`]
/// (and carried in [`crate::facade::GemmOut`]).
#[derive(Clone, Debug)]
pub struct EmulationReport {
    /// Problem shape `(m, n, k)`.
    pub shape: (usize, usize, usize),
    /// Number of moduli used.
    pub n_moduli: usize,
    /// Scaling mode.
    pub mode: Mode,
    /// A-priori normwise relative error bound for this `(N, k)` point
    /// ([`crate::nselect::predicted_error`]) — what the low-moduli
    /// fast-inference mode reports alongside its throughput.
    pub predicted_error: f64,
    /// Phase breakdown.
    pub phases: PhaseTimes,
    /// INT8 GEMMs issued (N per k-block, +1 in accurate mode). ABFT
    /// checksum GEMMs and recovery re-runs are *not* counted here — they
    /// land in [`FaultReport::checksum_gemms`] / [`FaultReport::retries`]
    /// so this count stays deterministic under fault injection.
    pub int8_gemm_calls: usize,
    /// ABFT outcome: `Some` whenever the run executed under an active
    /// [`FaultPolicy`] (even if no fault was detected), `None` under
    /// [`FaultPolicy::Off`].
    pub fault: Option<FaultReport>,
}

/// Reusable scratch for the whole Algorithm-1 pipeline: the packed residue
/// panels the fused trunc+convert phase emits, the f64 fold staging, and
/// the lines-6–7 executor's own scratch (the UINT8 residue planes and,
/// under an active [`FaultPolicy`], the ABFT side-channel buffers), which
/// the executor in [`crate::abft`] sizes itself.
///
/// A single emulated GEMM of a square product needs `2N·mk` bytes of
/// packed i8 panels and `N·mn` bytes of residue planes (`N·(mk + kn) +
/// N·mn` in general, the panels padded to whole panels). The INT32
/// product is never stored whole: each engine worker reduces it one
/// column group at a time in its own grow-only group buffer (at most
/// 256 KiB, or 32 columns past `m = 2048`), which lives with the worker,
/// not here. The integer matrices
/// `A'`, `B'` of the unfused pipeline no longer exist either — the
/// truncation happens inside the convert sweep's cache-resident staging
/// tiles. The workspace grows to the high-water mark of the shapes
/// it has seen and is then reused, so iterative consumers (LU panel
/// updates, purification sweeps, the `N` residue-panel sets of every call)
/// allocate nothing per call.
///
/// The residue panels are stored directly in the INT8 engine's packed i8
/// layout, so the GEMMs run over them with zero repacking
/// ([`gemm_engine::int8_gemm_prepacked_fused`]).
#[derive(Default)]
pub struct Workspace {
    pub(crate) a8: Vec<i8>,
    pub(crate) b8: Vec<i8>,
    /// f64 fold staging for outputs the fold cannot write directly: f32
    /// results (narrowed afterwards) and strided or `alpha`/`beta`
    /// epilogue outputs.
    pub(crate) cstage: Vec<f64>,
    /// The lines-6–7 executor's scratch.
    pub(crate) exec: crate::abft::Scratch,
}

/// Grow-only resize of one scratch buffer to at least `len` elements.
pub(crate) fn grow<T: Clone + Default>(buf: &mut Vec<T>, len: usize) {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
}

impl Workspace {
    /// Fresh, empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Current scratch footprint in bytes (excluding `Vec` headers).
    pub fn bytes(&self) -> usize {
        self.a8.capacity() + self.b8.capacity() + self.cstage.capacity() * 8 + self.exec.bytes()
    }

    /// Zero every buffer in place (capacity kept). The batch runtime's
    /// `WorkspacePool` checkout guards call this when a
    /// workspace is returned by a panicking tenant, so partially written
    /// scratch never leaks into the next checkout. (Correctness never
    /// depends on zeroed scratch — every path fully overwrites what it
    /// reads — so this is hygiene, not a functional reset.)
    pub fn scrub(&mut self) {
        self.a8.fill(0);
        self.b8.fill(0);
        self.cstage.fill(0.0);
        self.exec.scrub();
    }

    /// Grow-only resize of the A-side packed panel buffer.
    pub(crate) fn reserve_a(&mut self, m: usize, k: usize, nmod: usize) {
        grow(&mut self.a8, nmod * padded_a_rows(m) * padded_depth(k));
    }

    /// Grow-only resize of the B-side packed panel buffer.
    pub(crate) fn reserve_b(&mut self, n: usize, k: usize, nmod: usize) {
        grow(&mut self.b8, nmod * padded_b_cols(n) * padded_depth(k));
    }
}

/// The Ozaki Scheme II emulator.
#[derive(Clone, Copy, Debug)]
pub struct Ozaki2 {
    n_moduli: usize,
    mode: Mode,
    fault: FaultPolicy,
}

impl Ozaki2 {
    /// Create an emulator with `n ∈ 2..=`[`N_MAX`] moduli. The fault
    /// policy defaults to `OZAKI_FAULT_POLICY` from the environment
    /// ([`FaultPolicy::Off`] when unset); see
    /// [`Ozaki2::with_fault_policy`].
    pub fn new(n_moduli: usize, mode: Mode) -> Self {
        assert!(
            (2..=N_MAX).contains(&n_moduli),
            "N must be in 2..={N_MAX}, got {n_moduli}"
        );
        Self {
            n_moduli,
            mode,
            fault: FaultPolicy::default_from_env(),
        }
    }

    /// Number of moduli.
    pub fn n_moduli(&self) -> usize {
        self.n_moduli
    }

    /// Scaling mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The ABFT fault policy every GEMM entry of this emulator runs under
    /// (overridable per call via `GemmArgs::fault_policy`).
    pub fn fault_policy(&self) -> FaultPolicy {
        self.fault
    }

    /// Replace the ABFT fault policy (builder style).
    ///
    /// # Examples
    /// ```
    /// use ozaki2::{FaultPolicy, Mode, Ozaki2};
    /// let emu = Ozaki2::new(15, Mode::Fast)
    ///     .with_fault_policy(FaultPolicy::RetryThenScalar { max_retries: 2 });
    /// assert!(emu.fault_policy().is_active());
    /// ```
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault = policy;
        self
    }

    /// Emulated DGEMM: `C ≈ A·B` for f64 operands — a panicking
    /// delegate of [`Ozaki2::gemm`].
    ///
    /// # Panics
    /// On shape mismatch or non-finite input (use [`Ozaki2::gemm`] for a
    /// checked version).
    ///
    /// # Examples
    /// ```
    /// use ozaki2::{Mode, Ozaki2};
    /// use gemm_dense::workload::phi_matrix_f64;
    /// use gemm_dense::gemm::gemm_f64_naive;
    /// use gemm_dense::norms::max_relative_error;
    ///
    /// let a = phi_matrix_f64(48, 64, 0.5, 7, 0);
    /// let b = phi_matrix_f64(64, 48, 0.5, 7, 1);
    /// // N = 15 moduli reach ~double-precision accuracy (§5.1).
    /// let c = Ozaki2::new(15, Mode::Fast).dgemm(&a, &b);
    /// let exact = gemm_f64_naive(&a, &b);
    /// assert!(max_relative_error(&c, &exact) < 1e-10);
    /// ```
    pub fn dgemm(&self, a: &MatF64, b: &MatF64) -> MatF64 {
        self.gemm(GemmArgs::new(a, b))
            .unwrap_or_else(|e| panic!("dgemm: {e}"))
            .c
    }

    /// Emulated SGEMM: `C ≈ A·B` for f32 operands — a panicking
    /// delegate of [`Ozaki2::gemm`].
    ///
    /// # Panics
    /// On shape mismatch, non-finite input, or `N > 18` (the `b = 32`
    /// conversion kernel's validated range).
    pub fn sgemm(&self, a: &MatF32, b: &MatF32) -> MatF32 {
        self.gemm(GemmArgs::new(a, b))
            .unwrap_or_else(|e| panic!("sgemm: {e}"))
            .c
    }
}

impl MatMulF64 for Ozaki2 {
    fn matmul_f64(&self, a: &MatF64, b: &MatF64) -> MatF64 {
        self.dgemm(a, b)
    }
    fn name(&self) -> String {
        format!("OS II-{}-{}", self.mode.label(), self.n_moduli)
    }
}

impl MatMulF32 for Ozaki2 {
    fn matmul_f32(&self, a: &MatF32, b: &MatF32) -> MatF32 {
        self.sgemm(a, b)
    }
    fn name(&self) -> String {
        format!("OS II-{}-{}", self.mode.label(), self.n_moduli)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemm_dense::gemm::gemm_f64_naive;
    use gemm_dense::norms::max_relative_error;
    use gemm_dense::workload::{phi_matrix_f64, uniform_matrix_f64};
    use gemm_dense::Matrix;

    #[test]
    fn dgemm_small_uniform_high_accuracy() {
        let a = uniform_matrix_f64(24, 32, 7, 0);
        let b = uniform_matrix_f64(32, 16, 7, 1);
        let exact = gemm_f64_naive(&a, &b);
        for n in [8usize, 12, 15] {
            let c = Ozaki2::new(n, Mode::Fast).dgemm(&a, &b);
            let err = max_relative_error(&c, &exact);
            // k = 32 keeps even N = 8 well above DGEMM accuracy here.
            let budget = match n {
                8 => 1e-4,
                12 => 1e-9,
                _ => 1e-13,
            };
            assert!(err < budget, "N={n} err={err:e}");
        }
    }

    #[test]
    fn accuracy_improves_with_n() {
        let a = phi_matrix_f64(16, 48, 0.5, 3, 0);
        let b = phi_matrix_f64(48, 16, 0.5, 3, 1);
        let exact = gemm_f64_naive(&a, &b);
        let mut last = f64::INFINITY;
        for n in [4usize, 8, 12, 15] {
            let c = Ozaki2::new(n, Mode::Fast).dgemm(&a, &b);
            let err = max_relative_error(&c, &exact).max(1e-18);
            assert!(
                err < last * 2.0,
                "error should not regress: N={n} err={err:e} last={last:e}"
            );
            last = err;
        }
        assert!(
            last < 1e-12,
            "N=15 should be near double precision: {last:e}"
        );
    }

    #[test]
    fn accurate_mode_at_least_as_good_on_wide_phi() {
        let a = phi_matrix_f64(16, 32, 3.0, 11, 0);
        let b = phi_matrix_f64(32, 16, 3.0, 11, 1);
        let exact = gemm_f64_naive(&a, &b);
        let ef = max_relative_error(&Ozaki2::new(12, Mode::Fast).dgemm(&a, &b), &exact);
        let ea = max_relative_error(&Ozaki2::new(12, Mode::Accurate).dgemm(&a, &b), &exact);
        assert!(
            ea <= ef * 1.5,
            "accurate mode should not be worse: fast={ef:e} accu={ea:e}"
        );
    }

    #[test]
    fn sgemm_reaches_single_precision() {
        let a = gemm_dense::workload::phi_matrix_f32(24, 32, 0.5, 5, 0);
        let b = gemm_dense::workload::phi_matrix_f32(32, 24, 0.5, 5, 1);
        let a64 = a.map(|x| x as f64);
        let b64 = b.map(|x| x as f64);
        let exact = gemm_f64_naive(&a64, &b64);
        let c = Ozaki2::new(8, Mode::Fast).sgemm(&a, &b);
        let err = max_relative_error(&c.map(|x| x as f64), &exact);
        assert!(err < 1e-6, "err={err:e}");
    }

    #[test]
    fn workspace_bytes_pin_the_footprint() {
        // Fast mode, ABFT off, a contiguous f64 output: the workspace is
        // the 2N packed panel sets (padded to PV vectors and PK depth) and
        // the N residue planes, nothing else. The engine's group buffers
        // belong to its workers, not to the workspace.
        let (m, n, k, nmod) = (40usize, 24, 100, 15);
        let a = phi_matrix_f64(m, k, 0.5, 2, 0);
        let b = phi_matrix_f64(k, n, 0.5, 2, 1);
        let mut ws = Workspace::new();
        Ozaki2::new(nmod, Mode::Fast)
            .with_fault_policy(FaultPolicy::Off)
            .gemm(GemmArgs::new(&a, &b).workspace(&mut ws))
            .unwrap();
        let (m_pad, n_pad, kp) = (48, 32, 128);
        assert_eq!(ws.bytes(), nmod * (m_pad * kp + n_pad * kp) + nmod * m * n);
        assert_eq!(ws.bytes(), 168_000);
    }

    #[test]
    fn phases_attribute_grouped_engine_time() {
        // At 2048 rows every column group is 32 columns wide, so every
        // stripe (two per worker) has at least four groups, the last one
        // ragged: the engine and its fused reduction are both charged, and
        // the phases fit inside the call.
        let stripes = 2 * rayon::current_num_threads();
        let (m, n, k) = (2048usize, stripes * 4 * 2 * gemm_engine::PV - 5, 64);
        let a = phi_matrix_f64(m, k, 0.5, 4, 0);
        let b = phi_matrix_f64(k, n, 0.5, 4, 1);
        let emu = Ozaki2::new(8, Mode::Fast).with_fault_policy(FaultPolicy::Off);
        let t0 = std::time::Instant::now();
        let out = emu.gemm(GemmArgs::new(&a, &b)).unwrap();
        let wall = t0.elapsed();
        let ph = out.report.phases;
        assert!(ph.int8_gemm > Duration::ZERO, "{ph:?}");
        assert!(ph.mod_reduce > Duration::ZERO, "{ph:?}");
        assert!(ph.total() <= wall, "{ph:?} vs {wall:?}");
    }

    #[test]
    fn rejects_nan() {
        let mut a = uniform_matrix_f64(4, 4, 1, 0);
        a[(1, 2)] = f64::NAN;
        let b = uniform_matrix_f64(4, 4, 1, 1);
        assert_eq!(
            Ozaki2::new(8, Mode::Fast)
                .gemm(GemmArgs::new(&a, &b))
                .unwrap_err(),
            EmulationError::NonFiniteInput {
                side: OperandSide::A,
                index: 9, // col-major storage offset of (1, 2) with m = 4
            }
        );
    }

    #[test]
    fn rejects_shape_mismatch() {
        let a = uniform_matrix_f64(4, 5, 1, 0);
        let b = uniform_matrix_f64(4, 4, 1, 1);
        assert_eq!(
            Ozaki2::new(8, Mode::Fast)
                .gemm(GemmArgs::new(&a, &b))
                .unwrap_err(),
            EmulationError::ShapeMismatch
        );
    }

    #[test]
    fn sgemm_caps_n_at_18() {
        let a = gemm_dense::workload::phi_matrix_f32(4, 4, 0.5, 1, 0);
        let b = gemm_dense::workload::phi_matrix_f32(4, 4, 0.5, 1, 1);
        let r = Ozaki2::new(20, Mode::Fast).gemm(GemmArgs::new(&a, &b));
        assert_eq!(
            r.unwrap_err(),
            EmulationError::UnsupportedN { n: 20, max: 18 }
        );
    }

    #[test]
    fn report_counts_int8_gemms() {
        let a = uniform_matrix_f64(8, 8, 2, 0);
        let b = uniform_matrix_f64(8, 8, 2, 1);
        let report = |mode| {
            let emu = Ozaki2::new(9, mode);
            emu.gemm(GemmArgs::new(&a, &b)).unwrap().report
        };
        let rep = report(Mode::Fast);
        assert_eq!(rep.int8_gemm_calls, 9);
        let rep = report(Mode::Accurate);
        assert_eq!(rep.int8_gemm_calls, 10); // +1 estimation GEMM
        assert_eq!(rep.shape, (8, 8, 8));
    }

    #[test]
    fn new_assert_message_tracks_n_max() {
        // The message derives its range from N_MAX, so it can't drift from
        // the constant if the supported range ever widens.
        let err = std::panic::catch_unwind(|| Ozaki2::new(N_MAX + 1, Mode::Fast)).unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .expect("assert! with format args panics with String");
        assert!(msg.contains(&format!("2..={N_MAX}")), "{msg}");
    }

    #[test]
    fn empty_inputs() {
        let a = MatF64::zeros(0, 4);
        let b = MatF64::zeros(4, 3);
        let c = Ozaki2::new(4, Mode::Fast).dgemm(&a, &b);
        assert_eq!(c.shape(), (0, 3));
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(
            MatMulF64::name(&Ozaki2::new(14, Mode::Fast)),
            "OS II-fast-14"
        );
        assert_eq!(
            MatMulF64::name(&Ozaki2::new(8, Mode::Accurate)),
            "OS II-accu-8"
        );
    }

    #[test]
    fn workspace_path_bit_identical_and_alloc_free() {
        let a = phi_matrix_f64(24, 40, 0.8, 5, 0);
        let b = phi_matrix_f64(40, 18, 0.8, 5, 1);
        let emu = Ozaki2::new(11, Mode::Fast);
        let baseline = emu.dgemm(&a, &b);
        let mut ws = Workspace::new();
        let with_ws = |a: &MatF64, b: &MatF64, ws: &mut Workspace| {
            emu.gemm(GemmArgs::new(a, b).workspace(ws)).unwrap().c
        };
        assert_eq!(with_ws(&a, &b, &mut ws), baseline);
        let steady = ws.bytes();
        assert!(steady > 0);
        for _ in 0..3 {
            assert_eq!(with_ws(&a, &b, &mut ws), baseline);
            assert_eq!(ws.bytes(), steady, "steady state must not allocate");
        }
        // A smaller problem reuses the same buffers.
        let a2 = phi_matrix_f64(8, 16, 0.8, 6, 0);
        let b2 = phi_matrix_f64(16, 8, 0.8, 6, 1);
        assert_eq!(with_ws(&a2, &b2, &mut ws), emu.dgemm(&a2, &b2));
        assert_eq!(ws.bytes(), steady);
    }

    #[test]
    fn k_blocked_path_matches_direct_reference() {
        // k just over the block limit exercises the PK-aligned depth-window
        // path over the prepacked panels; compare against an independently
        // computed exact result on tiny m, n (integer inputs make the
        // reference exact).
        let k = K_BLOCK_MAX + 129;
        let (m, n) = (2usize, 2);
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 60) as i64 % 3 - 1) as f64
        };
        let a = Matrix::from_fn(m, k, |_, _| next());
        let b = Matrix::from_fn(k, n, |_, _| next());
        let got = Ozaki2::new(10, Mode::Fast).dgemm(&a, &b);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i64;
                for h in 0..k {
                    acc += (a[(i, h)] as i64) * (b[(h, j)] as i64);
                }
                assert_eq!(got[(i, j)], acc as f64, "({i},{j})");
            }
        }
    }

    #[test]
    fn accurate_mode_estimate_exact_past_2_pow_19() {
        // Ā·B̄ of all-64 magnitudes totals 4096·k: at k = 2^19 a single
        // i32 block reaches 2^31 and wraps, which once clamped the row
        // estimate to 1 and scaled the operands far past the budget.
        for k in [(1 << 19) - 64, 1 << 19, (1 << 19) + 64] {
            let a = MatF64::from_fn(1, k, |_, _| 1.9999999);
            let b = MatF64::from_fn(k, 1, |_, _| 1.9999999);
            let exact = k as f64 * 1.9999999f64 * 1.9999999;
            let got = Ozaki2::new(15, Mode::Accurate).dgemm(&a, &b)[(0, 0)];
            let err = ((got - exact) / exact).abs();
            assert!(err < 1e-12, "k={k}: relative error {err:e}");
        }
    }

    #[test]
    fn deterministic() {
        let a = phi_matrix_f64(16, 16, 1.0, 9, 0);
        let b = phi_matrix_f64(16, 16, 1.0, 9, 1);
        let c1 = Ozaki2::new(10, Mode::Fast).dgemm(&a, &b);
        let c2 = Ozaki2::new(10, Mode::Fast).dgemm(&a, &b);
        assert_eq!(c1, c2);
    }
}
