//! Lines 4–5 of Algorithm 1: `A'_i = rmod(A', p_i)`, `B'_i = rmod(B', p_i)`
//! as INT8 residues, via the fast FMA-based `rmod` of §4.2.
//!
//! The built-in `fmod` is slow, so the paper reduces with
//! `y ← fma(round(x·p_inv), -p, x)` followed by up to two single-precision
//! correction steps, gated on `N` (the larger `N`, the larger the scaled
//! integers `|a'| ≤ 2^{P'_budget}`, and the larger the first-step residual):
//! `(N1, N2) = (13, 19)` for `b = 64` and `(5, 11)` for `b = 32`.
//!
//! Three deliberate deviations (documented in `docs/ARCHITECTURE.md`):
//!
//! * an f32 operand whose truncated entries stay below `2^46`
//!   ([`rmod_chain`]; `N ≤ 11`) is reduced entirely in f32
//!   ([`rmod32_to_i8`]): `trunc(2^e·a)` of an f32 `a` is itself an f32, so
//!   its staging tile is f32 and every step runs at 16 lanes per 512-bit
//!   vector instead of an f64 first step at 8. Above that bound the
//!   staging tile is f64, as for an f64 operand, and the f64-first chain
//!   runs.
//! * when three steps of the f64-first chain are required (`N ≥ N2`) the
//!   second step runs in f64 before the narrowing to f32. For
//!   `N ∈ {19, 20}` the exact first-step residual can reach ~2^25, which
//!   does not round-trip through f32; keeping one more step in f64
//!   preserves exactness of the residue. Below `N2` the f64-first chain is
//!   literally the paper's.
//! * `round` is round-to-nearest **ties-to-even** (`roundscale` /
//!   `round_ties_even`), not ties-away. Any nearest rounding keeps the
//!   residual bound `|y| ≤ p/2 + ε`, and RNE is the mode the vector units
//!   implement natively — using it everywhere is what lets the vectorized
//!   copies of the row kernel stay bit-identical to the portable loop,
//!   lane for lane.
//!
//! Every chain ends on the symmetric residue in `[-p/2, p/2]`, which is
//! unique up to the `±128` wrap of `p = 256`, so the chains give the same
//! bits wherever each is exact.
//!
//! # The fused trunc+convert phase
//!
//! Converting a full operand is the memory-bound half of the pipeline, so
//! [`trunc_convert_pack_panels`] fuses Algorithm 1 lines 2–5 with the
//! INT8 engine's operand packing. It reads the operand as line 1 does: a
//! [`MatView`] of either precision and an [`OperandSide`]. Each operand
//! tile — one 16-vector strip's depth run — is read from the *original*
//! view (a strided gather where the side's vectors are not contiguous
//! runs), scaled by its power-of-two exponent and truncated straight into
//! the panel order of the side, in a cache-resident staging tile of the
//! `rmod` chain's precision (f32 for an f32 operand up to `N = 11`: the
//! product is taken in f64 and narrowed exactly). Both panel formats keep
//! a strip's
//! depth run in one contiguous span, so each of the `N` moduli then
//! reduces the whole tile with one row-kernel call that writes that span
//! in order — the same bytes the AMX tiles and the SIMD kernels read
//! ([`gemm_engine::pack_panels`]), so nothing repacks them. The integer
//! matrices `A'`/`B'` and the plane-major i8 buffers of the unfused
//! pipeline — and the engine's own packing sweep — disappear entirely;
//! [`residue_planes`] stays as the unfused reference.
//!
//! The inner scale+trunc and `rmod` row kernels are each one portable
//! loop ([`rmod_row_scalar`], [`rmod32_row_scalar`],
//! [`crate::scale::strunc_row_scalar`]) run
//! through [`gemm_engine::dispatch`], which compiles it for AVX-512,
//! AVX2+FMA and the baseline target and picks the level
//! [`gemm_engine::engine_isa()`] reports (forced to scalar by
//! `OZAKI_FORCE_SCALAR=1`, capped by [`gemm_engine::cap_scope`]). The
//! portable loops are the property-test oracles: every level must produce
//! bit-identical residues for every lane, every step count, and every
//! thread count. The crate holds no `unsafe` code.

use crate::consts::Constants;
use crate::element::Element;
use crate::prepared::{vectors_contiguous, OperandSide};
use crate::scale::{pow2_split, strunc_gather, strunc_runs, ACCURATE_EXCESS_BITS, GATHER_GROUP};
use gemm_dense::MatView;
use gemm_engine::{dispatch, dispatch_name, padded_depth, PK, PV};
use gemm_obs::TimeShare;
use rayon::prelude::*;
use std::time::Instant;

/// Correction-step thresholds for the DGEMM (`b = 64`) kernel.
pub const N1_F64: usize = 13;
/// Second threshold for `b = 64`.
pub const N2_F64: usize = 19;
/// Correction-step thresholds for the SGEMM (`b = 32`) kernel.
pub const N1_F32: usize = 5;
/// Second threshold for `b = 32`.
pub const N2_F32: usize = 11;

/// Depth block of the fused convert: a strip's `16 × 512` staging tile
/// (32 KiB and L1-resident in f32, 64 KiB and L2-resident in f64) stays
/// cached while each of the `N` moduli reduces it into one 8 KiB panel
/// span.
const DEPTH_BLOCK: usize = 512;

/// Steps of the f64-first chain ([`rmod_to_i8`]) for a given N and input
/// width.
#[inline]
pub fn steps_for(n: usize, b64: bool) -> u8 {
    let (n1, n2) = if b64 {
        (N1_F64, N2_F64)
    } else {
        (N1_F32, N2_F32)
    };
    1 + (n >= n1) as u8 + (n >= n2) as u8
}

/// `rmod(x, p)` for an integer-valued f64 `x`, wrapped into INT8.
///
/// The result is the symmetric residue in `[-p/2, p/2]`; the single corner
/// case `+128` (p = 256) wraps to `-128`, which is congruent mod 256.
/// Rounding is ties-to-even throughout (see the module docs), the mode the
/// vector units implement, so this one body vectorizes lane-exactly.
#[inline(always)]
pub fn rmod_to_i8(x: f64, p: f64, p32: f32, pinv64: f64, pinv32: f32, steps: u8) -> i8 {
    // Step 1 (always): one f64 FMA reduction.
    let t = (x * pinv64).round_ties_even();
    let y64 = t.mul_add(-p, x);
    let mut y: f32;
    if steps >= 3 {
        // Wide-range second step in f64, then narrow.
        let t2 = (y64 * pinv64).round_ties_even();
        y = t2.mul_add(-p, y64) as f32;
        let t3 = (y * pinv32).round_ties_even();
        y = t3.mul_add(-p32, y);
    } else {
        y = y64 as f32;
        if steps >= 2 {
            let t2 = (y * pinv32).round_ties_even();
            y = t2.mul_add(-p32, y);
        }
    }
    wrap_to_i8(y)
}

/// `rmod(x, p)` for an integer-valued f32 `x` by `steps` f32 FMA steps
/// `t = rne(y·p_inv)`, `y ← fma(t, -p, y)`, wrapped into INT8 like
/// [`rmod_to_i8`].
///
/// Exact, and the same residue as [`rmod_to_i8`], for `|x| < 2^44` with two
/// steps and `|x| < 2^46` with three. With `u = 2^-24` the quotient
/// `y·p_inv` carries a relative error below `2u(1 + u)` (the rounding of
/// `1/p`, then of the product), so a step leaves `|y'| < p/2 + 2^-23·|y|`
/// (to a factor `1 + 2^-25`). From `|x| < 2^46` the first step's `y` is an
/// integer below `2^24`, which f32 holds, so its FMA is exact; and a step
/// fed an integer `|y| < 2^22` lands in `[-p/2, p/2]`, its excess over
/// `p/2` staying under `1/2`. The first step's output is that small from
/// `|x| < 2^44`, the second's from `|x| < 2^46`.
#[inline(always)]
pub fn rmod32_to_i8(x: f32, p32: f32, pinv32: f32, steps: u8) -> i8 {
    let mut y = x;
    for _ in 0..steps {
        let t = (y * pinv32).round_ties_even();
        y = t.mul_add(-p32, y);
    }
    wrap_to_i8(y)
}

/// `(y as i32) as u8 as i8` for an integral `|y| ≤ 2^22`: the wrap of
/// `+128` to `-128` the paper relies on (Rust's float `as` saturates, so
/// `y as i8` would not wrap). Adding `1.5·2^23` lands in `[2^23, 2^24]`,
/// where the f32 ulp is 1, so the sum is exact and its low mantissa bits
/// hold `y + 2^22 ≡ y (mod 256)`. Unlike the saturating cast, this
/// vectorizes.
#[inline(always)]
fn wrap_to_i8(y: f32) -> i8 {
    ((y + 12_582_912.0f32).to_bits() as u8) as i8
}

/// Truncated entries below `2^44` take two [`rmod32_to_i8`] steps.
const F32_TWO_STEP_EXP: f64 = 44.0;
/// Truncated entries below `2^46` take three.
const F32_THREE_STEP_EXP: f64 = 46.0;

/// How a staging tile is reduced: the [`rmod_row`] or [`rmod32_row`]
/// chain, with its step count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RmodChain {
    /// An f64 first step and `steps − 1` correction steps
    /// ([`rmod_to_i8`]) over an f64 tile (an f32 operand's entries
    /// widened exactly by the trunc kernels).
    F64 {
        /// Steps in all (`1..=3`, [`steps_for`]).
        steps: u8,
    },
    /// `steps` f32 steps ([`rmod32_to_i8`]) over an f32-exact tile.
    F32 {
        /// Steps in all (2 or 3).
        steps: u8,
    },
}

/// The chain that reduces an operand of input width `b = 64` (`b64`) or
/// `b = 32` exactly under `consts`.
///
/// An f32 operand takes the all-f32 chain when `2^E` bounds its truncated
/// entries below [`rmod32_to_i8`]'s limits, with `E` the larger per-side
/// budget ([`Constants::p_accu`]) plus the accurate-mode excess
/// [`ACCURATE_EXCESS_BITS`]: two steps for `N ≤ 10`, three for `N = 11`.
/// Above that, and always for f64, the f64-first chain with
/// [`steps_for`].
pub fn rmod_chain(consts: &Constants, b64: bool) -> RmodChain {
    let e = consts.p_fast.max(consts.p_accu) + ACCURATE_EXCESS_BITS;
    if b64 || e > F32_THREE_STEP_EXP {
        RmodChain::F64 {
            steps: steps_for(consts.n, b64),
        }
    } else {
        RmodChain::F32 {
            steps: if e <= F32_TWO_STEP_EXP { 2 } else { 3 },
        }
    }
}

// ---------------------------------------------------------------------------
// The rmod row kernel (runtime-dispatched)
// ---------------------------------------------------------------------------

/// Name of the level the `rmod` row kernel runs at on this thread (see
/// [`gemm_engine::dispatch_name`]).
pub fn convert_kernel_name() -> &'static str {
    dispatch_name()
}

/// Portable `rmod` row kernel: `dst[i] = rmod(xs[i], p)` as i8 (the
/// engine's packed element type). The one body of [`rmod_row`], and the
/// oracle it is property-tested against, lane for lane.
#[inline(always)]
pub fn rmod_row_scalar(
    xs: &[f64],
    dst: &mut [i8],
    p: f64,
    p32: f32,
    pinv64: f64,
    pinv32: f32,
    steps: u8,
) {
    for (d, &x) in dst.iter_mut().zip(xs) {
        *d = rmod_to_i8(x, p, p32, pinv64, pinv32, steps);
    }
}

/// Vectorized `rmod` over a row of integer-valued f64s, writing i8
/// residues (the engine's packed element type): [`rmod_row_scalar`] run
/// through [`dispatch`], so it is bit-identical to it at every level.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn rmod_row(xs: &[f64], dst: &mut [i8], p: f64, p32: f32, pinv64: f64, pinv32: f32, steps: u8) {
    assert!(dst.len() >= xs.len(), "destination row too short");
    // One closure per step count keeps each body small enough for LLVM
    // to inline into every level's copy.
    match steps {
        0 | 1 => dispatch(|| rmod_row_scalar(xs, dst, p, p32, pinv64, pinv32, 1)),
        2 => dispatch(|| rmod_row_scalar(xs, dst, p, p32, pinv64, pinv32, 2)),
        _ => dispatch(|| rmod_row_scalar(xs, dst, p, p32, pinv64, pinv32, 3)),
    }
}

/// Portable all-f32 `rmod` row kernel: `dst[i] = rmod32_to_i8(xs[i])` for
/// integer-valued f32s, `steps` clamped to `2..=3`. The one body of
/// [`rmod32_row`], and the oracle it is property-tested against.
#[inline(always)]
pub fn rmod32_row_scalar(xs: &[f32], dst: &mut [i8], p32: f32, pinv32: f32, steps: u8) {
    let steps = steps.clamp(2, 3);
    for (d, &x) in dst.iter_mut().zip(xs) {
        *d = rmod32_to_i8(x, p32, pinv32, steps);
    }
}

/// Vectorized all-f32 `rmod` over a row of integer-valued f32s, 16 lanes
/// per 512-bit vector: [`rmod32_row_scalar`] run through [`dispatch`], so
/// it is bit-identical to it at every level.
#[inline]
pub fn rmod32_row(xs: &[f32], dst: &mut [i8], p32: f32, pinv32: f32, steps: u8) {
    assert!(dst.len() >= xs.len(), "destination row too short");
    match steps {
        0..=2 => dispatch(|| rmod32_row_scalar(xs, dst, p32, pinv32, 2)),
        _ => dispatch(|| rmod32_row_scalar(xs, dst, p32, pinv32, 3)),
    }
}

/// The element of a staging tile: the precision its [`RmodChain`] runs
/// in.
trait Stage: Element {
    /// Reduce `tile` against modulus `s` of `c` into `dst`.
    fn rmod(tile: &[Self], dst: &mut [i8], c: &Constants, s: usize, steps: u8);
}

impl Stage for f64 {
    #[inline]
    fn rmod(tile: &[f64], dst: &mut [i8], c: &Constants, s: usize, steps: u8) {
        let (p32, pinv32) = (c.p_f32[s], c.p_inv_f32[s]);
        rmod_row(tile, dst, c.p_f64[s], p32, c.p_inv_f64[s], pinv32, steps);
    }
}

impl Stage for f32 {
    #[inline]
    fn rmod(tile: &[f32], dst: &mut [i8], c: &Constants, s: usize, steps: u8) {
        rmod32_row(tile, dst, c.p_f32[s], c.p_inv_f32[s], steps);
    }
}

// ---------------------------------------------------------------------------
// Fused trunc+convert -> packed-panel emission
// ---------------------------------------------------------------------------

/// One parallel unit of the fused convert: vectors `[v0, v0 + nv)` of every
/// residue panel.
struct ConvertJob<'a> {
    v0: usize,
    nv: usize,
    /// This job's slice of each modulus' panel set (`nv * kp` each).
    planes: Vec<&'a mut [i8]>,
}

/// The fused trunc+convert phase (Algorithm 1 lines 2–5 + engine packing)
/// for one operand view: the `vecs` vectors of `side` (rows of `A`,
/// columns of `B`), each scaled by `2^{exps[v]}`, truncated, reduced
/// against every modulus of `consts` and packed.
///
/// The view may have any layout, leading dimension or transpose, in f64
/// or f32, and is never copied. The one inner loop, the same on both
/// sides, takes one 16-vector strip's run of up to 512 depth entries at a
/// time:
///
/// 1. truncate the run straight into panel order, in a staging tile of
///    the chain's precision (the runs of each vector that its side's
///    format keeps contiguous: a dword on side A, a 64-byte block row on
///    side B; an f32 entry's `trunc(2^e·a)` is taken in f64 and, up to
///    `N = 11`, stored as the f32 it is). Vectors that are
///    contiguous runs in memory (rows of a row-major `A`, columns of a
///    column-major `B`; the split line 1 makes too) run the dispatched
///    trunc kernel straight over the source; the others are gathered 8
///    consecutive vectors at a time, each source row's entries of the
///    group read together, with the same per-lane scale and trunc;
/// 2. for each modulus, reduce the whole tile with one [`rmod_row`] or
///    [`rmod32_row`] call into the strip's panel span for the run, which
///    is contiguous in both formats, so every span is written once, in
///    order.
///
/// The operand streams from DRAM once; the integer matrices `A'`, `B'` of
/// the unfused pipeline never exist. The chain is [`rmod_chain`] of the
/// precision (`b = 64` for f64, `b = 32` for f32): an f32 tile is reduced
/// in f32 up to `N = 11`.
///
/// For each modulus `s`, the residues are written to the panel set
/// `panels[s * vecs_pad * kp ..][.. vecs_pad * kp]` in the INT8 engine's
/// panels for `side` ([`gemm_engine::pack_panels`]): element `(v, h)` at
/// [`OperandSide::panel_index`]`(v, h, kp)`
/// ([`gemm_engine::a_panel_index`] or [`gemm_engine::b_panel_index`]),
/// depth zero-padded from `k` to `kp = padded_depth(k)`, vector count
/// zero-padded to `vecs_pad`. Bytes past the `N` panel sets are
/// untouched.
///
/// The sweep is split over whole 16-vector strips for rayon when
/// `parallel` is set.
/// The output is bit-identical for every kernel level, thread count and
/// split, and to the unfused chain
/// `pack_panels(residue_planes(scale_trunc_*))`:
/// workers own disjoint vector ranges and the row kernels are lane-exact
/// against [`crate::scale::strunc_row_scalar`], [`rmod_row_scalar`] and
/// [`rmod32_row_scalar`].
///
/// `timing`, when given, accumulates per-job trunc vs total CPU
/// nanoseconds for phase attribution (a [`TimeShare`] from `gemm_obs`:
/// the caller splits its wall-clock measurement by `fraction()` — exact
/// on one worker, a faithful CPU-share attribution on many). Each job
/// additionally emits a `convert_job` span when observability is enabled.
///
/// # Panics
/// If `exps` has fewer than `vecs` entries or `panels` fewer than
/// `N * vecs_pad * kp`.
// Kept out of line, as line 1 is: the generic Algorithm-1 body it is
// called from is large.
#[inline(never)]
pub fn trunc_convert_pack_panels<T: Element>(
    view: &MatView<'_, T>,
    side: OperandSide,
    exps: &[i32],
    consts: &Constants,
    parallel: bool,
    panels: &mut [i8],
    timing: Option<&TimeShare>,
) {
    let (vecs, vecs_pad, k) = side.panel_dims(view.shape());
    let kp = padded_depth(k);
    assert!(exps.len() >= vecs, "exponent vector too short");
    let out = &mut panels[..consts.n * vecs_pad * kp];
    if vecs_pad == 0 || kp == 0 {
        return;
    }
    let src = Source {
        side,
        data: view.data(),
        ld: view.ld(),
        contiguous: vectors_contiguous(side, view.layout()),
        exps,
        vecs,
        k,
        kp,
        consts,
        chain: rmod_chain(consts, T::IS_F64),
        timing,
    };

    // Coarse vector blocks: enough tasks to balance, few enough that each
    // worker streams long contiguous panel runs.
    let workers = if parallel {
        rayon::current_num_threads()
    } else {
        1
    };
    // Jobs own whole PV-vector strips: a strip interleaves its vectors.
    let tasks = (workers * 4).clamp(1, vecs_pad / PV);
    let vb = vecs_pad.div_ceil(tasks).next_multiple_of(PV);

    let mut plane_rests: Vec<&mut [i8]> = out.chunks_mut(vecs_pad * kp).collect();
    let mut jobs: Vec<ConvertJob<'_>> = Vec::with_capacity(tasks);
    let mut v0 = 0;
    while v0 < vecs_pad {
        let nv = vb.min(vecs_pad - v0);
        let planes: Vec<&mut [i8]> = plane_rests
            .iter_mut()
            .map(|rest| {
                let (head, tail) = std::mem::take(rest).split_at_mut(nv * kp);
                *rest = tail;
                head
            })
            .collect();
        jobs.push(ConvertJob { v0, nv, planes });
        v0 += nv;
    }

    let run = |job: ConvertJob<'_>| src.convert_job(job);
    if !parallel || jobs.len() == 1 {
        jobs.into_iter().for_each(run);
    } else {
        jobs.into_par_iter().for_each(run);
    }
}

/// The operand and constants every job of one sweep reads.
struct Source<'a, T> {
    side: OperandSide,
    data: &'a [T],
    ld: usize,
    /// Vector `v` element `h` at `data[v * ld + h]`; otherwise at
    /// `data[h * ld + v]`.
    contiguous: bool,
    exps: &'a [i32],
    vecs: usize,
    k: usize,
    kp: usize,
    consts: &'a Constants,
    chain: RmodChain,
    timing: Option<&'a TimeShare>,
}

impl<T: Element> Source<'_, T> {
    /// Convert one job's vectors across all moduli, on the run of depth
    /// bytes each vector keeps contiguous in its side's panel format (a
    /// dword on side A, a 64-byte block row on side B), in a staging tile
    /// of the chain's precision.
    fn convert_job(&self, job: ConvertJob<'_>) {
        match (self.side, self.chain) {
            (OperandSide::A, RmodChain::F64 { steps }) => self.convert_strips::<4, f64>(job, steps),
            (OperandSide::A, RmodChain::F32 { steps }) => self.convert_strips::<4, f32>(job, steps),
            (OperandSide::B, RmodChain::F64 { steps }) => {
                self.convert_strips::<PK, f64>(job, steps)
            }
            (OperandSide::B, RmodChain::F32 { steps }) => {
                self.convert_strips::<PK, f32>(job, steps)
            }
        }
    }

    /// [`Self::convert_job`], one 16-vector strip at a time, one
    /// [`DEPTH_BLOCK`]-deep run of the strip at a time: the run is scaled
    /// and truncated straight into panel order (`RUN`-element runs of each
    /// vector), in a staging tile of `S`, and then, for each modulus,
    /// reduced by one `steps`-step `S` row-kernel call into the panel span
    /// the run occupies, which
    /// is contiguous on either side. `rmod(0) = 0`, so zero-filling the
    /// tile where the strip has fewer than 16 vectors or the run reaches
    /// into the depth padding is all the padding takes.
    fn convert_strips<const RUN: usize, S: Stage>(&self, job: ConvertJob<'_>, steps: u8) {
        let Source {
            side,
            data,
            ld,
            contiguous,
            exps,
            vecs,
            k,
            kp,
            consts: c,
            timing,
            ..
        } = *self;
        let ConvertJob { v0, nv, mut planes } = job;
        let job_t0 = timing.map(|_| Instant::now());
        let mut trunc_ns = 0u64;
        let depth = DEPTH_BLOCK.min(kp);
        let mut tile = vec![S::ZERO; PV * depth];
        // Vector `r`, entry `h` of a run at `r * vstride + h / RUN * stride
        // + h % RUN`, which is `side.panel_index(r, h, span)`.
        let (vstride, stride) = (side.panel_index(1, 0, kp), side.panel_index(0, RUN, kp));
        let mut scales = [(1.0f64, 1.0f64); PV];
        for sl in (0..nv).step_by(PV) {
            let rows = vecs.saturating_sub(v0 + sl).min(PV);
            for (sc, &e) in scales.iter_mut().zip(&exps[v0 + sl..v0 + sl + rows]) {
                *sc = pow2_split(e);
            }
            for off in (0..k).step_by(depth) {
                let len = depth.min(k - off);
                let span = if off + len == k { kp - off } else { len };
                let tile = &mut tile[..PV * span];
                let t0 = timing.map(|_| Instant::now());
                if rows < PV || len < span {
                    tile.fill(S::ZERO);
                }
                if contiguous {
                    let xs = &data[(v0 + sl) * ld + off..];
                    strunc_runs::<RUN, T, S>(xs, ld, &scales[..rows], len, tile, vstride, stride);
                } else {
                    for r in (0..rows).step_by(GATHER_GROUP) {
                        let sc = &scales[r..r + GATHER_GROUP.min(rows - r)];
                        let (xs, dst) = (&data[off * ld + v0 + sl + r..], &mut tile[r * vstride..]);
                        strunc_gather::<RUN, T, S>(xs, ld, sc, len, dst, vstride, stride);
                    }
                }
                if let Some(t0) = t0 {
                    trunc_ns += t0.elapsed().as_nanos() as u64;
                }
                let at = side.panel_index(sl, off, kp);
                for (s, plane) in planes.iter_mut().enumerate() {
                    let dst = &mut plane[at..at + PV * span];
                    S::rmod(tile, dst, c, s, steps);
                }
            }
        }
        if let (Some(t), Some(t0)) = (timing, job_t0) {
            let job_ns = t0.elapsed().as_nanos() as u64;
            t.add(trunc_ns, job_ns);
            // One span per job (not per tile): end-anchored on the obs clock
            // using the already-measured duration, so the disabled path never
            // reads the clock.
            let end = gemm_obs::now_ns();
            if end != 0 {
                gemm_obs::record_span("convert_job", "convert", end.saturating_sub(job_ns), end);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reference (unfused) conversion
// ---------------------------------------------------------------------------

/// Convert one integer-valued buffer (row-major `A'` or column-major `B'`)
/// into `N` INT8 residue planes stored plane-major in `out`
/// (`out[s * len + idx] = rmod(src[idx], p_s)`).
///
/// This is the *unfused* PR 1 convert kernel — one full sweep over `src`
/// per modulus, emitting plane-major i8. The hot pipeline now uses the
/// fused [`trunc_convert_pack_panels`] instead; this stays as the
/// structurally independent reference the fused path is property-tested
/// against (both build on [`rmod_to_i8`], so they agree bit-for-bit), and
/// as the convenient form for consumers that want plain residue planes.
///
/// # Examples
/// ```
/// use ozaki2::consts::constants;
/// use ozaki2::convert::{residue_planes, rmod_reference};
///
/// let c = constants(3);
/// let src = [100.0, -300.0]; // integer-valued, as Step 2 truncation emits
/// let mut planes = vec![0i8; 3 * src.len()];
/// residue_planes(&src, c, true, &mut planes);
/// for s in 0..3 {
///     for (i, &x) in src.iter().enumerate() {
///         let got = planes[s * src.len() + i] as i64;
///         let want = rmod_reference(x, c.p[s]) as i64;
///         assert_eq!(got.rem_euclid(c.p[s] as i64), want.rem_euclid(c.p[s] as i64));
///     }
/// }
/// ```
pub fn residue_planes(src: &[f64], consts: &Constants, b64: bool, out: &mut [i8]) {
    let len = src.len();
    let n = consts.n;
    assert_eq!(out.len(), n * len, "plane buffer mismatch");
    let steps = steps_for(n, b64);
    out.chunks_exact_mut(len)
        .enumerate()
        .for_each(|(s, plane)| {
            let p = consts.p_f64[s];
            let p32 = consts.p_f32[s];
            let pinv64 = consts.p_inv_f64[s];
            let pinv32 = consts.p_inv_f32[s];
            plane
                .par_chunks_mut(16 * 1024)
                .zip(src.par_chunks(16 * 1024))
                .for_each(|(dst, xs)| {
                    for (d, &x) in dst.iter_mut().zip(xs) {
                        *d = rmod_to_i8(x, p, p32, pinv64, pinv32, steps);
                    }
                });
        });
}

/// Reference `rmod` via exact integer arithmetic (tests only).
pub fn rmod_reference(x: f64, p: u64) -> i8 {
    debug_assert_eq!(x.fract(), 0.0);
    let xi = gemm_exact::I256::from_f64_exact(x);
    let r = xi.rem_euclid_u64(p); // in [0, p)
    let half = p / 2;
    let signed = if p.is_multiple_of(2) {
        // Symmetric with the +p/2 boundary kept positive then wrapped:
        // round-half-away on x/p maps |rem| = p/2 to the sign of x.
        if r > half || (r == half && x < 0.0) {
            r as i64 - p as i64
        } else {
            r as i64
        }
    } else if r > half {
        r as i64 - p as i64
    } else {
        r as i64
    };
    (signed as i32) as u8 as i8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::constants;
    use gemm_dense::Matrix;

    fn check_residue(x: f64, s: usize, c: &Constants, steps: u8) {
        let got = rmod_to_i8(
            x,
            c.p_f64[s],
            c.p_f32[s],
            c.p_inv_f64[s],
            c.p_inv_f32[s],
            steps,
        );
        let p = c.p[s];
        // Residues must agree mod p (the i8 may legitimately differ by p
        // only through the documented ±p/2 tie, which is still congruent).
        let want = gemm_exact::I256::from_f64_exact(x).rem_euclid_u64(p);
        let got_mod = (got as i64).rem_euclid(p as i64) as u64;
        assert_eq!(got_mod, want, "x={x} p={p} got={got}");
    }

    #[test]
    fn rmod_small_exhaustive() {
        let c = constants(4);
        let steps = steps_for(4, true);
        for s in 0..4 {
            for x in -2000i64..=2000 {
                check_residue(x as f64, s, c, steps);
            }
        }
    }

    #[test]
    fn rmod_large_values_dgemm_n15() {
        let c = constants(15);
        let steps = steps_for(15, true);
        // Values up to the fast-mode magnitude bound 2^p_fast ≈ 2^58.
        let bound = 2f64.powf(c.p_fast);
        let mut x = 1.0f64;
        while x < bound {
            for s in 0..15 {
                check_residue(x.trunc(), s, c, steps);
                check_residue(-x.trunc(), s, c, steps);
                check_residue((x * 0.7360328).trunc(), s, c, steps);
            }
            x *= 1.9173;
        }
    }

    #[test]
    fn rmod_extreme_n20() {
        let c = constants(20);
        let steps = steps_for(20, true);
        assert_eq!(steps, 3);
        let bound = 2f64.powf(c.p_fast); // ~2^76.9
        let mut x = 1.0f64;
        while x < bound {
            for s in 0..20 {
                check_residue(x.trunc(), s, c, steps);
                check_residue((-x * 0.9418).trunc(), s, c, steps);
            }
            x *= 2.3719;
        }
    }

    #[test]
    fn plus_half_p_wraps_for_256() {
        let c = constants(2);
        // x = ±128: the quotient tie ±0.5 rounds to even (0), so the
        // residue stays ±128; the +128 case must wrap to -128 on the INT8
        // cast.
        let r = rmod_to_i8(-128.0, 256.0, 256.0, c.p_inv_f64[0], c.p_inv_f32[0], 1);
        assert_eq!(r, -128);
        let r2 = rmod_to_i8(128.0, 256.0, 256.0, c.p_inv_f64[0], c.p_inv_f32[0], 1);
        assert_eq!(r2, -128);
    }

    #[test]
    fn steps_thresholds_match_paper() {
        assert_eq!(steps_for(2, true), 1);
        assert_eq!(steps_for(12, true), 1);
        assert_eq!(steps_for(13, true), 2);
        assert_eq!(steps_for(18, true), 2);
        assert_eq!(steps_for(19, true), 3);
        assert_eq!(steps_for(4, false), 1);
        assert_eq!(steps_for(5, false), 2);
        assert_eq!(steps_for(10, false), 2);
        assert_eq!(steps_for(11, false), 3);
    }

    #[test]
    fn f32_chain_runs_up_to_n_11() {
        // Derived from the budgets, not listed: two f32 steps while
        // p_accu + ACCURATE_EXCESS_BITS stays below 44 (N <= 10), three
        // below 46 (N = 11), the f64-first chain past it and for f64.
        for n in 2..=crate::moduli::N_MAX_SGEMM {
            let c = constants(n);
            let want = match n {
                ..=10 => RmodChain::F32 { steps: 2 },
                11 => RmodChain::F32 { steps: 3 },
                _ => RmodChain::F64 {
                    steps: steps_for(n, false),
                },
            };
            assert_eq!(rmod_chain(c, false), want, "N={n}");
            let f64_steps = steps_for(n, true);
            assert_eq!(
                rmod_chain(c, true),
                RmodChain::F64 { steps: f64_steps },
                "N={n}"
            );
        }
        let e11 = constants(11).p_accu + ACCURATE_EXCESS_BITS;
        let e12 = constants(12).p_fast;
        assert!(e11 < F32_THREE_STEP_EXP && e12 > F32_THREE_STEP_EXP);
    }

    #[test]
    fn two_f32_steps_break_past_their_bound() {
        // |x| ~ 2^46.4, p = 255: two steps leave y = 128 = (p + 1) / 2,
        // which the INT8 wrap turns into -128, not even congruent to x;
        // a third step lands on the symmetric residue.
        let c = constants(2);
        let x = 90_509_397_721_088.0f64;
        assert_eq!((x as f32) as f64, x);
        let (p32, pinv32) = (c.p_f32[1], c.p_inv_f32[1]);
        assert_eq!(c.p[1], 255);
        assert_eq!(rmod_reference(x, 255), -127);
        assert_eq!(rmod32_to_i8(x as f32, p32, pinv32, 2), -128);
        assert_eq!(rmod32_to_i8(x as f32, p32, pinv32, 3), -127);
    }

    #[test]
    fn f32_chain_wraps_plus_half_p_for_256() {
        let c = constants(2);
        for steps in [2, 3] {
            for x in [-128.0f32, 128.0, -384.0, 2f32.powi(30) + 128.0] {
                let got = rmod32_to_i8(x, 256.0, c.p_inv_f32[0], steps);
                assert_eq!(got, -128, "x={x} steps={steps}");
                assert_eq!(got, rmod_reference(x as f64, 256), "x={x}");
            }
        }
    }

    #[test]
    fn residue_planes_layout() {
        let c = constants(3);
        let src = [100.0f64, -100.0, 300.0, -300.0];
        let mut out = vec![0i8; 3 * 4];
        residue_planes(&src, c, true, &mut out);
        for s in 0..3 {
            for (idx, &x) in src.iter().enumerate() {
                let want = rmod_reference(x, c.p[s]);
                let got = out[s * 4 + idx];
                assert_eq!(
                    (got as i64).rem_euclid(c.p[s] as i64),
                    (want as i64).rem_euclid(c.p[s] as i64),
                    "s={s} idx={idx}"
                );
            }
        }
    }

    #[test]
    fn reference_rmod_symmetric() {
        for p in [251u64, 256] {
            for x in -600i64..=600 {
                let r = rmod_reference(x as f64, p) as i64;
                assert_eq!((x - r).rem_euclid(p as i64), 0, "x={x} p={p}");
                assert!(r.abs() <= (p / 2) as i64, "x={x} p={p} r={r}");
            }
        }
    }

    /// Exercise rows through every step regime with awkward lengths (SIMD
    /// body + scalar tail) and wrap-prone values (multiples of p, ±p/2).
    fn parity_rows() -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        for len in [1usize, 3, 7, 8, 9, 16, 31, 64, 100] {
            let mut row = Vec::with_capacity(len);
            for i in 0..len {
                let v = match i % 5 {
                    0 => (i as f64) * 128.0 - 300.0,
                    1 => -(i as f64) * 12_345.0,
                    2 => (i as f64 + 1.0) * 256.0 * 128.0, // ±p/2 multiples for 256
                    3 => 2f64.powi(20 + (i % 30) as i32).trunc(),
                    _ => -(2f64.powi(15 + (i % 40) as i32) * 0.73).trunc(),
                };
                row.push(v);
            }
            rows.push(row);
        }
        rows
    }

    #[test]
    fn dispatched_rmod_row_bit_identical_to_scalar() {
        gemm_engine::for_each_level("dispatched_rmod_row_bit_identical_to_scalar", |level| {
            for nmod in [2usize, 13, 20] {
                let c = constants(nmod);
                for b64 in [true, false] {
                    if !b64 && nmod > crate::moduli::N_MAX_SGEMM {
                        continue;
                    }
                    let steps = steps_for(nmod, b64);
                    for row in parity_rows() {
                        // Keep values within the magnitude budget of this N.
                        let bound = 2f64.powf(c.p_fast);
                        let row: Vec<f64> = row
                            .iter()
                            .map(|&x| if x.abs() < bound { x } else { x % bound })
                            .map(|x| x.trunc())
                            .collect();
                        for s in 0..nmod {
                            let args = (c.p_f64[s], c.p_f32[s], c.p_inv_f64[s], c.p_inv_f32[s]);
                            let mut got = vec![0i8; row.len()];
                            let mut want = vec![0i8; row.len()];
                            rmod_row(&row, &mut got, args.0, args.1, args.2, args.3, steps);
                            rmod_row_scalar(&row, &mut want, args.0, args.1, args.2, args.3, steps);
                            assert_eq!(got, want, "{level:?} N={nmod} s={s} steps={steps}");
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn dispatched_rmod32_row_bit_identical_to_scalar_and_reference() {
        // The all-f32 kernel, at each N its chain serves, over f32-exact
        // integers up to the chain's bound: every level gives the portable
        // loop's bits, and those are the exact symmetric residues.
        gemm_engine::for_each_level("dispatched_rmod32_row_bit_identical_to_scalar", |level| {
            for nmod in [2usize, 8, 10, 11] {
                let c = constants(nmod);
                let RmodChain::F32 { steps } = rmod_chain(c, false) else {
                    panic!("N={nmod} runs the f32 chain");
                };
                let bound = 2f64.powf(c.p_accu + ACCURATE_EXCESS_BITS);
                for row in parity_rows() {
                    let row: Vec<f32> = row.iter().map(|&x| ((x % bound) as f32).trunc()).collect();
                    for s in 0..nmod {
                        let (p32, pinv32) = (c.p_f32[s], c.p_inv_f32[s]);
                        let mut got = vec![0i8; row.len()];
                        let mut want = vec![0i8; row.len()];
                        rmod32_row(&row, &mut got, p32, pinv32, steps);
                        rmod32_row_scalar(&row, &mut want, p32, pinv32, steps);
                        assert_eq!(got, want, "{level:?} N={nmod} s={s} steps={steps}");
                        let exact: Vec<i8> = row
                            .iter()
                            .map(|&x| rmod_reference(x as f64, c.p[s]))
                            .collect();
                        assert_eq!(want, exact, "N={nmod} s={s}");
                    }
                }
            }
        });
    }

    #[test]
    fn wrap_to_i8_matches_the_wrapping_cast() {
        // Every integral f32 in [-2^22, 2^22], not just the residue range.
        for y in -(1i32 << 22)..=(1 << 22) {
            let yf = y as f32;
            assert_eq!(wrap_to_i8(yf), (yf as i32) as u8 as i8, "y={y}");
        }
    }

    /// The unfused oracle of the sweep: `pack_panels(residue_planes(ints))`
    /// for integer-valued vectors `ints` (vector `v` at `v * k`).
    fn oracle_panels(
        side: OperandSide,
        ints: &[f64],
        vecs: usize,
        vecs_pad: usize,
        k: usize,
        c: &Constants,
        b64: bool,
    ) -> Vec<i8> {
        let kp = padded_depth(k);
        let mut planes8 = vec![0i8; c.n * vecs * k];
        residue_planes(ints, c, b64, &mut planes8);
        let mut want = Vec::with_capacity(c.n * vecs_pad * kp);
        for plane in planes8.chunks_exact(vecs * k) {
            let mut pack = Vec::new();
            gemm_engine::pack_panels(&mut pack, side, plane, k, vecs, vecs_pad, k, kp);
            want.extend_from_slice(&pack);
        }
        want
    }

    /// The sweep over `view` into a buffer that starts dirty, with one
    /// byte past the panel sets that must stay untouched.
    fn sweep<T: Element>(
        view: &MatView<'_, T>,
        side: OperandSide,
        exps: &[i32],
        c: &Constants,
        parallel: bool,
        timing: Option<&TimeShare>,
    ) -> Vec<i8> {
        let (_, vecs_pad, k) = side.panel_dims(view.shape());
        let len = c.n * vecs_pad * padded_depth(k);
        let mut got = vec![0x55i8; len + 1];
        trunc_convert_pack_panels(view, side, exps, c, parallel, &mut got, timing);
        assert_eq!(got.pop(), Some(0x55), "byte past the panel sets written");
        got
    }

    #[test]
    fn fused_panels_match_reference_planes() {
        // The sweep over integers with zero exponents (which truncation
        // leaves unchanged) == residue_planes + pack_panels, bitwise, for
        // ragged shapes and both parallel settings.
        use gemm_engine::padded_a_rows;
        for (vecs, k) in [(1usize, 1usize), (3, 5), (7, 33), (12, 100), (5, 2048 + 17)] {
            let c = constants(15);
            let src: Vec<f64> = (0..vecs * k)
                .map(|i| ((i as f64 * 97.0 + 13.0) * 1009.0 - 50_000.0).trunc())
                .collect();
            let want = oracle_panels(OperandSide::A, &src, vecs, padded_a_rows(vecs), k, c, true);
            let view = MatView::row_major(&src, vecs, k);
            for parallel in [false, true] {
                let got = sweep(&view, OperandSide::A, &vec![0; vecs], c, parallel, None);
                assert_eq!(got, want, "vecs={vecs} k={k} parallel={parallel}");
            }
        }
    }

    #[test]
    fn fused_f32_panels_match_reference_planes() {
        // f32 integers up to the chain's bound under zero exponents (which
        // truncation leaves unchanged), at N on either side of the all-f32
        // chain's edges: the sweep over every view (contiguous and
        // gathered) on both sides, at every kernel level, on one thread
        // and split, == the f64-first residue_planes + pack_panels,
        // bitwise.
        use crate::scale::tests::for_each_view;
        for nmod in [8usize, 11, 12, 18] {
            let c = constants(nmod);
            let e_max = (c.p_accu + ACCURATE_EXCESS_BITS).min(60.0);
            for (vecs, k) in [(3usize, 5usize), (17, 600)] {
                // Vector v, entry h at v * k + h: ±(24-bit mantissa)·2^e.
                let ints: Vec<f64> = (0..vecs * k)
                    .map(|i| {
                        let e = (i * 7919 % 1000) as f64 / 1000.0 * e_max;
                        let m = (1 << 23) + i.wrapping_mul(2_654_435_761) % (1 << 23);
                        let x = (m as f64 * 2f64.powi(e as i32 - 24)).trunc();
                        if i % 3 == 1 {
                            -x
                        } else {
                            x
                        }
                    })
                    .collect();
                assert!(ints.iter().all(|&x| (x as f32) as f64 == x), "f32-exact");
                for side in [OperandSide::A, OperandSide::B] {
                    let (rows, cols) = match side {
                        OperandSide::A => (vecs, k),
                        OperandSide::B => (k, vecs),
                    };
                    let mat = Matrix::from_fn(rows, cols, |r, c| match side {
                        OperandSide::A => ints[r * k + c] as f32,
                        OperandSide::B => ints[c * k + r] as f32,
                    });
                    let (_, vecs_pad, _) = side.panel_dims((rows, cols));
                    let want = oracle_panels(side, &ints, vecs, vecs_pad, k, c, false);
                    gemm_engine::for_each_level(
                        "fused_f32_panels_match_reference_planes",
                        |level| {
                            for_each_view(&mat, |name, view| {
                                for parallel in [false, true] {
                                    let got = sweep(&view, side, &vec![0; vecs], c, parallel, None);
                                    let what =
                                        format!("{level:?} N={nmod} {side:?} {name} {vecs}x{k}");
                                    assert_eq!(got, want, "{what} parallel={parallel}");
                                }
                            });
                        },
                    );
                }
            }
        }
    }

    /// The sweep over every view of the logical operand `mat` of `side`
    /// (both layouts, padded leading dimensions, a `.t()`), on one thread
    /// and split, against the oracle chain over its exactly widened
    /// column-major copy, bit for bit. An f32 operand's sweep (`b = 32`
    /// thresholds) must also equal the sweep over the widened f64 copy
    /// (`b = 64`).
    fn check_sweep<T: Element>(mat: &Matrix<T>, side: OperandSide, c: &Constants, what: &str) {
        use crate::scale::tests::for_each_view;
        use crate::scale::{
            fast_scale_cols, fast_scale_rows, scale_trunc_a_rowmajor, scale_trunc_b_colmajor,
        };
        let wide = mat.map(T::to_f64);
        let (vecs, vecs_pad, k) = side.panel_dims(wide.shape());
        let mut ints = vec![0f64; vecs * k];
        let exps = match side {
            OperandSide::A => fast_scale_rows(&wide, c.p_fast),
            OperandSide::B => fast_scale_cols(&wide, c.p_fast),
        };
        match side {
            OperandSide::A => scale_trunc_a_rowmajor(&wide, &exps, &mut ints),
            OperandSide::B => scale_trunc_b_colmajor(&wide, &exps, &mut ints),
        }
        let want = oracle_panels(side, &ints, vecs, vecs_pad, k, c, T::IS_F64);
        for_each_view(mat, |name, view| {
            for parallel in [false, true] {
                let timing = TimeShare::new();
                let got = sweep(&view, side, &exps, c, parallel, Some(&timing));
                assert_eq!(got, want, "{what} {side:?} {name} parallel={parallel}");
                assert!(timing.total_ns() > 0);
                assert!(timing.fraction() > 0.0 && timing.fraction() < 1.0);
            }
        });
        if !T::IS_F64 {
            let got = sweep(&wide.view(), side, &exps, c, true, None);
            assert_eq!(got, want, "{what} {side:?} widened to f64");
        }
    }

    #[test]
    fn fused_trunc_sources_match_unfused_composition() {
        // Every side, layout and precision, with vector counts that split
        // into several jobs and depths past one staging tile.
        use gemm_dense::workload::phi_matrix_f64;
        for nmod in [8usize, 11, 12, 13, 18] {
            let c = constants(nmod);
            for (vecs, k) in [
                (1usize, 1usize),
                (5, 37),
                (40, 9),
                (12, 100),
                (3, 2048 + 17),
            ] {
                for side in [OperandSide::A, OperandSide::B] {
                    let (rows, cols) = match side {
                        OperandSide::A => (vecs, k),
                        OperandSide::B => (k, vecs),
                    };
                    let mat = phi_matrix_f64(rows, cols, 1.0, 3 + vecs as u64, 0);
                    let what = format!("N={nmod} {vecs}x{k}");
                    if [8, 13].contains(&nmod) {
                        check_sweep(&mat, side, c, &format!("f64 {what}"));
                    }
                    check_sweep(&mat.map(|x| x as f32), side, c, &format!("f32 {what}"));
                }
            }
        }
    }

    #[test]
    fn fused_panels_zero_padding() {
        // Padding vectors and the depth tail must be zero even when the
        // buffer starts dirty (the B side: columns of a column-major k x
        // vecs integer matrix, zero exponents).
        let (vecs, k) = (5usize, 37usize);
        let nmod = 4;
        let c = constants(nmod);
        let vecs_pad = gemm_engine::padded_b_cols(vecs); // 16
        let kp = padded_depth(k); // 64
        let src: Vec<f64> = (0..vecs * k).map(|i| (i as f64 * 7.0) - 50.0).collect();
        let view = MatView::col_major(&src, k, vecs);
        let out = sweep(&view, OperandSide::B, &[0; 5], c, true, None);
        for s in 0..nmod {
            let panel = &out[s * vecs_pad * kp..(s + 1) * vecs_pad * kp];
            for v in 0..vecs_pad {
                for h in 0..kp {
                    let e = panel[gemm_engine::b_panel_index(v, h, kp)];
                    if v >= vecs || h >= k {
                        assert_eq!(e, 0, "s={s} v={v} h={h} must be padding");
                    } else {
                        let want = rmod_to_i8(
                            src[v * k + h],
                            c.p_f64[s],
                            c.p_f32[s],
                            c.p_inv_f64[s],
                            c.p_inv_f32[s],
                            steps_for(nmod, true),
                        );
                        assert_eq!(e, want, "s={s} v={v} h={h}");
                    }
                }
            }
        }
    }
}
