//! Step 1–3 of Algorithm 1: diagonal scale determination and truncation
//! (§4.2 of the paper).
//!
//! Both modes pick power-of-two scales `μ_i`, `ν_j` so that the uniqueness
//! condition (3) `2 Σ_h |a'_ih||b'_hj| < P` holds:
//!
//! * **fast mode** bounds the sum with Cauchy–Schwarz using per-row /
//!   per-column 2-norms computed with a certified round-up surrogate;
//! * **accurate mode** bounds it with an actual INT8 product of 6-bit
//!   magnitude estimates `Ā·B̄`, which is tighter (less truncation, better
//!   accuracy) at the cost of one extra INT8 GEMM.
//!
//! Scales are represented by their exponents (`μ_i = 2^{e_i}`), so the
//! inverse scaling in Step 4 is exact.
//!
//! The truncation row kernel [`strunc_row`] is one portable loop,
//! [`strunc_row_scalar`], run through [`gemm_engine::dispatch`]: an exact
//! widening to f64, two IEEE multiplies and a truncation per lane, so
//! every level LLVM compiles it for gives the oracle's bits, over f64 and
//! f32 sources alike. The fused trunc+convert sweep
//! ([`crate::convert::trunc_convert_pack_panels`]) runs it straight over
//! an operand's contiguous vectors, and its gathering twin over groups of
//! gathered ones, storing each truncated entry in the staging tile's
//! precision (f32 only for an f32 operand, where it is exact: the product
//! keeps `a`'s significant bits).

use crate::consts::Constants;
use crate::element::Element;
use crate::prepared::{vectors_contiguous, OperandSide};
use gemm_dense::{MatF64, MatView};
use gemm_engine::{
    a_panel_index, b_panel_index, dispatch, dispatch_name, int8_gemm_prepacked_fused,
    padded_a_rows, padded_b_cols, padded_depth, Kernel, NoEpilogue,
};
use gemm_exact::roundup;
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// `⌊log2 |x|⌋` for finite nonzero `x`, exact (bit manipulation, handles
/// subnormals).
#[inline]
pub fn ilog2_abs(x: f64) -> i32 {
    debug_assert!(x != 0.0 && x.is_finite());
    let bits = x.abs().to_bits();
    let exp_field = (bits >> 52) as i32;
    if exp_field > 0 {
        exp_field - 1023
    } else {
        // Subnormal: value = mant * 2^-1074.
        let mant = bits & ((1u64 << 52) - 1);
        63 - mant.leading_zeros() as i32 - 1074
    }
}

/// `x * 2^e`, safe for exponents beyond the normal range (split into two
/// in-range multiplications; each power of two is exact).
///
/// # Examples
/// ```
/// use ozaki2::scale::scale_by_pow2;
/// assert_eq!(scale_by_pow2(3.0, 4), 48.0);
/// // A naive `x * 2f64.powi(1500)` would overflow to infinity:
/// assert_eq!(scale_by_pow2(2f64.powi(-1000), 1500), 2f64.powi(500));
/// ```
#[inline]
pub fn scale_by_pow2(x: f64, e: i32) -> f64 {
    if (-969..=970).contains(&e) {
        x * 2f64.powi(e)
    } else {
        let half = e / 2;
        x * 2f64.powi(half) * 2f64.powi(e - half)
    }
}

/// Per-row fast-mode scale exponents for `A` (`μ_i = 2^{e_i}`).
///
/// Implements `e_i = ⌊budget − max(1, 0.51·log2 Σ_h ã_ih²)⌋ − m_i` where
/// `m_i = ⌊log2 max_h |a_ih|⌋` and `ã` is the row pre-normalised by `2^-m_i`
/// (the normalisation keeps the sum of squares in `[1, 4k]`, immune to
/// overflow, exactly as the paper's formula is structured). The
/// normalisation multiplies by the two exact factors of
/// `pow2_split(-m_i)`, so a maximum below `2^-1023`, whose `2^-m_i`
/// overflows one f64, is normalised too.
pub fn fast_scale_rows(a: &MatF64, budget: f64) -> Vec<i32> {
    let (m, k) = a.shape();
    let data = a.as_slice();
    let mut row_max = vec![0.0f64; m];
    for h in 0..k {
        for (rm, &x) in row_max.iter_mut().zip(&data[h * m..(h + 1) * m]) {
            let ax = x.abs();
            if ax > *rm {
                *rm = ax;
            }
        }
    }
    let m_exp: Vec<i32> = row_max
        .iter()
        .map(|&r| if r == 0.0 { 0 } else { ilog2_abs(r) })
        .collect();
    let inv_scale: Vec<(f64, f64)> = m_exp.iter().map(|&e| pow2_split(-e)).collect();
    let mut norm_sq = vec![0.0f64; m];
    for h in 0..k {
        for ((ns, &(s1, s2)), &x) in norm_sq
            .iter_mut()
            .zip(&inv_scale)
            .zip(&data[h * m..(h + 1) * m])
        {
            let t = x * s1 * s2;
            *ns += t * t;
        }
    }
    norm_sq
        .iter()
        .zip(&m_exp)
        .zip(&row_max)
        .map(|((&ns, &me), &rm)| {
            if rm == 0.0 {
                return 0;
            }
            let upper = roundup::inflate(ns, k);
            let t = (0.51 * upper.log2()).max(1.0);
            (budget - t).floor() as i32 - me
        })
        .collect()
}

/// Per-column fast-mode scale exponents for `B` (`ν_j = 2^{e_j}`).
pub fn fast_scale_cols(b: &MatF64, budget: f64) -> Vec<i32> {
    let (k, n) = b.shape();
    let data = b.as_slice();
    (0..n)
        .map(|j| {
            let col = &data[j * k..(j + 1) * k];
            let cm = col.iter().fold(0.0f64, |acc, &x| acc.max(x.abs()));
            if cm == 0.0 {
                return 0;
            }
            let me = ilog2_abs(cm);
            let (s1, s2) = pow2_split(-me);
            let upper = roundup::sum_sq_upper(col.iter().map(|&x| x * s1 * s2));
            let t = (0.51 * upper.log2()).max(1.0);
            (budget - t).floor() as i32 - me
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fast-mode line 1 over a view (runtime-dispatched)
// ---------------------------------------------------------------------------

/// Vectors per block of the gathered line-1 kernel: the lanes of its inner
/// loops (consecutive vectors are consecutive in memory), with running
/// maxima and norms of 1 KiB each, L1-resident.
const LINE1_GATHER_BLOCK: usize = 128;
/// Vectors side by side in the lanes of the contiguous line-1 kernel's
/// norm loop.
const LINE1_LANES: usize = 16;
/// Depth of the contiguous kernel's transposed staging tile (8 KiB).
const LINE1_TILE_DEPTH: usize = 64;

/// Vectors per block of line 1's kernel for vectors that are contiguous
/// runs, or a strided gather.
#[inline(always)]
fn line1_block(contiguous: bool) -> usize {
    if contiguous {
        LINE1_LANES
    } else {
        LINE1_GATHER_BLOCK
    }
}

/// `*m = max(*m, |x|)`, skipping NaN as the oracles do.
#[inline(always)]
fn max_abs(m: &mut f64, x: f64) {
    let ax = x.abs();
    if ax > *m {
        *m = ax;
    }
}

/// Fast-mode line 1 over a borrowed operand view (any layout, leading
/// dimension or transpose; f64 or exactly widened f32): the per-vector
/// scale exponents of `side` (rows of `A`, columns of `B`), and whether
/// every vector's scaled norm came out finite.
///
/// Bit-identical to [`fast_scale_rows`] / [`fast_scale_cols`] on a
/// column-major f64 copy: each vector's maximum (order-free) comes first,
/// then its scaled norm `s += t*t` in ascending `h`, with the same
/// inverse scale and no fused multiply-add. Two portable kernels run
/// through [`dispatch`], chosen by the memory order the trunc+convert
/// sweep also splits on: a gathered view puts consecutive vectors in the
/// lanes, a contiguous one puts 16 vectors side by side. A
/// vector whose maximum is below `2^-1023` (its inverse scale overflows
/// one f64) gets its norm from a separate pass with both exact factors of
/// [`pow2_split`], as the oracles compute every norm.
///
/// A NaN or infinite entry always makes its vector's norm non-finite (NaN
/// propagates; ±inf makes the maximum, and so `t`, infinite), and a
/// finite vector's norm is finite, so the flag is `true` exactly when the
/// view is finite. With `parallel`, contiguous chunks of vectors run on
/// the worker pool; otherwise nothing is submitted.
// Kept out of line: inlined into the large generic Algorithm-1 body,
// line 1's loops compiled measurably slower (f32 256x256x8192, 2-vCPU
// x86-64: 13 ms instead of 8.5 ms for the earlier scalar passes).
#[inline(never)]
pub fn fast_scale_view<T: Element>(
    v: &MatView<'_, T>,
    side: OperandSide,
    budget: f64,
    parallel: bool,
) -> (Vec<i32>, bool) {
    let (vecs, _, k) = side.panel_dims(v.shape());
    let mut exps = vec![0i32; vecs];
    if vecs == 0 || k == 0 {
        return (exps, true);
    }
    let contiguous = vectors_contiguous(side, v.layout());
    let block = line1_block(contiguous);
    // Two chunks per worker, each a whole number of blocks.
    let workers = if parallel {
        rayon::current_num_threads()
    } else {
        1
    };
    let blocks = vecs.div_ceil(block);
    let chunk = blocks.div_ceil((workers * 2).min(blocks)) * block;
    let finite = AtomicBool::new(true);
    let run = |(c, out): (usize, &mut [i32])| {
        let ok = dispatch(Line1 {
            data: v.data(),
            ld: v.ld(),
            k,
            v0: c * chunk,
            contiguous,
            budget,
            exps: out,
        });
        if !ok {
            finite.store(false, Ordering::Relaxed);
        }
    };
    // `Relaxed` suffices for the flag: it publishes no other data, and the
    // region's join orders every store before the read below.
    if parallel && chunk < vecs {
        exps.par_chunks_mut(chunk).enumerate().for_each(run);
    } else {
        exps.chunks_mut(chunk).enumerate().for_each(run);
    }
    (exps, finite.into_inner())
}

/// One chunk of [`fast_scale_view`]: vectors `v0..v0 + exps.len()`, bound
/// for [`dispatch`]. Returns whether every scaled norm is finite.
struct Line1<'a, T> {
    data: &'a [T],
    ld: usize,
    k: usize,
    v0: usize,
    contiguous: bool,
    budget: f64,
    exps: &'a mut [i32],
}

impl<T: Element> Kernel for Line1<'_, T> {
    type Out = bool;

    #[inline(always)]
    fn run(self) -> bool {
        let Line1 {
            data,
            ld,
            k,
            v0,
            contiguous,
            budget,
            exps,
        } = self;
        let block = line1_block(contiguous);
        let mut finite = true;
        let mut row_max = [0.0f64; LINE1_GATHER_BLOCK];
        let mut m_exp = [0i32; LINE1_GATHER_BLOCK];
        let mut inv = [1.0f64; LINE1_GATHER_BLOCK];
        let mut norm = [0.0f64; LINE1_GATHER_BLOCK];
        for (b, out) in exps.chunks_mut(block).enumerate() {
            let v = v0 + b * block;
            let nv = out.len();
            let rm = &mut row_max[..nv];
            if contiguous {
                contiguous_max(data, ld, k, v, rm);
            } else {
                gathered_max(data, ld, k, v, rm);
            }
            for ((&r, me), s) in rm.iter().zip(&mut m_exp).zip(&mut inv) {
                // A zero maximum keeps the neutral scale; an infinite one
                // (an infinite entry) any finite nonzero one, so the norm
                // is infinite too.
                (*me, *s) = if r == 0.0 || !r.is_finite() {
                    (0, 1.0)
                } else {
                    let me = ilog2_abs(r);
                    (me, scale_by_pow2(1.0, -me))
                };
            }
            let ns = &mut norm[..nv];
            if contiguous {
                contiguous_norm(data, ld, k, v, &inv[..nv], ns);
            } else {
                gathered_norm(data, ld, k, v, &inv[..nv], ns);
            }
            for (l, (n, &me)) in ns.iter_mut().zip(&m_exp).enumerate() {
                if me < -1023 {
                    *n = split_norm(data, ld, k, v + l, contiguous, me);
                }
            }
            for (((e, &r), &me), &ns) in out.iter_mut().zip(&row_max).zip(&m_exp).zip(&norm) {
                finite &= ns.is_finite();
                *e = if r == 0.0 {
                    0
                } else {
                    // `inflate` of a NaN norm is NaN (its debug assertion
                    // only admits non-negative sums).
                    let upper = if ns.is_nan() {
                        ns
                    } else {
                        roundup::inflate(ns, k)
                    };
                    let t = (0.51 * upper.log2()).max(1.0);
                    (budget - t).floor() as i32 - me
                };
            }
        }
        finite
    }
}

/// The scaled norm `Σ_h (x_h · 2^-me)²` in ascending `h` of vector `v`,
/// whose maximum has the exponent `me < -1023`: `2^-me` overflows one
/// f64, so each entry takes the two exact factors of [`pow2_split`], as
/// in the oracles.
#[cold]
fn split_norm<T: Element>(
    data: &[T],
    ld: usize,
    k: usize,
    v: usize,
    contiguous: bool,
    me: i32,
) -> f64 {
    let (s1, s2) = pow2_split(-me);
    let (start, stride) = if contiguous { (v * ld, 1) } else { (v, ld) };
    data[start..]
        .iter()
        .step_by(stride)
        .take(k)
        .fold(0.0, |n, &x| {
            let t = x.to_f64() * s1 * s2;
            n + t * t
        })
}

/// Gathered maxima: `rm[l] = max_h |data[h*ld + v + l]|`, consecutive
/// vectors in the lanes.
#[inline(always)]
fn gathered_max<T: Element>(data: &[T], ld: usize, k: usize, v: usize, rm: &mut [f64]) {
    rm.fill(0.0);
    let nv = rm.len();
    for h in 0..k {
        for (r, &x) in rm.iter_mut().zip(&data[h * ld + v..h * ld + v + nv]) {
            max_abs(r, x.to_f64());
        }
    }
}

/// Gathered norms: `ns[l] = Σ_h (data[h*ld + v + l] · inv[l])²` in
/// ascending `h`, consecutive vectors in the lanes.
#[inline(always)]
fn gathered_norm<T: Element>(
    data: &[T],
    ld: usize,
    k: usize,
    v: usize,
    inv: &[f64],
    ns: &mut [f64],
) {
    ns.fill(0.0);
    let nv = ns.len();
    for h in 0..k {
        for ((n, &s), &x) in ns
            .iter_mut()
            .zip(inv)
            .zip(&data[h * ld + v..h * ld + v + nv])
        {
            let t = x.to_f64() * s;
            *n += t * t;
        }
    }
}

/// Contiguous maxima: `rm[l] = max_h |data[(v+l)*ld + h]|`, each vector
/// reduced over [`LINE1_LANES`] running maxima (the maximum does not
/// depend on the order).
#[inline(always)]
fn contiguous_max<T: Element>(data: &[T], ld: usize, k: usize, v: usize, rm: &mut [f64]) {
    for (l, r) in rm.iter_mut().enumerate() {
        let col = &data[(v + l) * ld..(v + l) * ld + k];
        let mut acc = [0.0f64; LINE1_LANES];
        let mut chunks = col.chunks_exact(LINE1_LANES);
        for c in &mut chunks {
            for (a, &x) in acc.iter_mut().zip(c) {
                max_abs(a, x.to_f64());
            }
        }
        for (a, &x) in acc.iter_mut().zip(chunks.remainder()) {
            max_abs(a, x.to_f64());
        }
        *r = 0.0;
        for &a in &acc {
            max_abs(r, a);
        }
    }
}

/// Contiguous norms: `ns[l] = Σ_h (data[(v+l)*ld + h] · inv[l])²` in
/// ascending `h`, [`LINE1_LANES`] vectors side by side: each depth tile
/// is transposed into an L1 staging tile, whose rows are one vector op.
#[inline(always)]
fn contiguous_norm<T: Element>(
    data: &[T],
    ld: usize,
    k: usize,
    v: usize,
    inv: &[f64],
    ns: &mut [f64],
) {
    let nv = ns.len();
    // Unused lanes keep zero entries and a unit scale.
    let mut tile = [[0.0f64; LINE1_LANES]; LINE1_TILE_DEPTH];
    let mut s = [1.0f64; LINE1_LANES];
    s[..nv].copy_from_slice(inv);
    let mut acc = [0.0f64; LINE1_LANES];
    for h0 in (0..k).step_by(LINE1_TILE_DEPTH) {
        let hb = LINE1_TILE_DEPTH.min(k - h0);
        for l in 0..nv {
            let base = (v + l) * ld + h0;
            for (row, &x) in tile.iter_mut().zip(&data[base..base + hb]) {
                row[l] = x.to_f64();
            }
        }
        for row in &tile[..hb] {
            for ((a, &x), &s) in acc.iter_mut().zip(row).zip(&s) {
                let t = x * s;
                *a += t * t;
            }
        }
    }
    ns.copy_from_slice(&acc[..nv]);
}

/// Every vector's maximum `max_h |x_h|` of `side` (rows of `A`, columns
/// of `B`), by line 1's max kernels run through [`dispatch`] (skipping
/// NaN, as line 1 does).
fn vector_maxima<T: Element>(v: &MatView<'_, T>, side: OperandSide) -> Vec<f64> {
    let (vecs, _, k) = side.panel_dims(v.shape());
    let mut maxima = vec![0.0f64; vecs];
    if vecs > 0 && k > 0 {
        dispatch(Maxima {
            data: v.data(),
            ld: v.ld(),
            k,
            contiguous: vectors_contiguous(side, v.layout()),
            out: &mut maxima,
        });
    }
    maxima
}

/// [`vector_maxima`]'s kernel, bound for [`dispatch`] (too large for a
/// closure LLVM would inline into every level's copy).
struct Maxima<'a, T> {
    data: &'a [T],
    ld: usize,
    k: usize,
    contiguous: bool,
    out: &'a mut [f64],
}

impl<T: Element> Kernel for Maxima<'_, T> {
    type Out = ();

    #[inline(always)]
    fn run(self) {
        let Maxima {
            data,
            ld,
            k,
            contiguous,
            out,
        } = self;
        if contiguous {
            contiguous_max(data, ld, k, 0, out);
        } else {
            gathered_max(data, ld, k, 0, out);
        }
    }
}

/// Bits by which an accurate-mode truncated entry can exceed `2^budget`.
///
/// [`accurate_scale_view`] gives row `i` of `A` the exponent
/// `μ'_i + ⌊budget − 0.51·log2 cm_i⌋`, with `cm_i` the row maximum of
/// `Ā·B̄`. An entry `a_ih` whose row `h` of `B` is nonzero has some
/// `b̄_hj ≥ 1`, so `cm_i ≥ ā_ih` and `|trunc(2^{e_i} a_ih)| ≤
/// ā_ih^{0.49}·2^budget ≤ 64^{0.49}·2^budget`; the same holds for an
/// entry `b_hj` of `B` whose column `h` of `A` is nonzero. (An entry that
/// meets only zeros can be larger, but its products are all zero,
/// whatever residue it takes.) Fast mode stays below `2^budget`.
pub const ACCURATE_EXCESS_BITS: f64 = 0.49 * 6.0;

/// Accurate-mode scale exponents for both operands (§4.2), over borrowed
/// strided operand views (f64 or exactly widened f32).
///
/// Returns `(e_a, e_b)`. The 6-bit magnitude estimates `Ā`, `B̄` are
/// written from the strided elements straight into the engine's i8 panel
/// layout (the operands themselves are never copied), and `Ā·B̄` is one
/// INT8 GEMM over those panels, striped over the worker pool when
/// `parallel` is set.
pub fn accurate_scale_view<T: Element>(
    a: &MatView<'_, T>,
    b: &MatView<'_, T>,
    budget: f64,
    parallel: bool,
) -> (Vec<i32>, Vec<i32>) {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb);

    // μ'_i = 2^{5 - ⌊log2 max_h |a_ih|⌋}: scales the row max into [32, 64).
    let prime = |v: &MatView<'_, T>, side: OperandSide| -> Vec<i32> {
        vector_maxima(v, side)
            .iter()
            .map(|&r| if r == 0.0 { 0 } else { 5 - ilog2_abs(r) })
            .collect()
    };
    let mu_prime = prime(a, OperandSide::A);
    let nu_prime = prime(b, OperandSide::B);

    // Ā = ⌈μ' |A|⌉, B̄ = ⌈|B| ν'⌉ — 6-bit magnitudes (≤ 64), INT8-safe —
    // as zero-padded panels in the A- and B-panel formats.
    let magnitude = |x: T, e: i32| {
        let v = scale_by_pow2(x.to_f64().abs(), e).ceil();
        debug_assert!(v <= 64.0);
        v as i8
    };
    let kp = padded_depth(k);
    let mut a_bar = vec![0i8; padded_a_rows(m) * kp];
    for h in 0..k {
        for (i, &e) in mu_prime.iter().enumerate() {
            a_bar[a_panel_index(i, h, kp)] = magnitude(a.get(i, h), e);
        }
    }
    let mut b_bar = vec![0i8; padded_b_cols(n) * kp];
    for (j, &e) in nu_prime.iter().enumerate() {
        for h in 0..k {
            b_bar[b_panel_index(j, h, kp)] = magnitude(b.get(h, j), e);
        }
    }

    // C̄ = Ā·B̄ estimates Σ|a||b| per (row, col) pair. Products are ≤ 4096,
    // so a 2^18-deep window totals at most 2^30 and its i32 accumulator is
    // exact (a 2^19 window can reach 2^31 and wrap); the windows are
    // PK-aligned depth windows of the panels, summed in i64.
    const K_EST_WINDOW: usize = 1 << 18;
    let mut c_bar = vec![0i64; m * n];
    let mut c32 = vec![0i32; m * n];
    for h0 in (0..k).step_by(K_EST_WINDOW) {
        let kw = K_EST_WINDOW.min(k - h0);
        int8_gemm_prepacked_fused(
            m,
            n,
            kw,
            &a_bar,
            &b_bar,
            kp,
            h0,
            &mut c32,
            &mut [],
            &NoEpilogue,
            parallel,
        );
        for (acc, &c) in c_bar.iter_mut().zip(&c32) {
            *acc += c as i64;
        }
    }

    // Row / column maxima of C̄ (clamped to >= 1: a zero row estimate means
    // the product row is exactly zero, any scale works).
    let mut row_cmax = vec![1i64; m];
    let mut col_cmax = vec![1i64; n];
    for (j, cmax_j) in col_cmax.iter_mut().enumerate() {
        for (i, &c) in c_bar[j * m..(j + 1) * m].iter().enumerate() {
            if c > row_cmax[i] {
                row_cmax[i] = c;
            }
            if c > *cmax_j {
                *cmax_j = c;
            }
        }
    }

    let e_a: Vec<i32> = mu_prime
        .iter()
        .zip(&row_cmax)
        .map(|(&mp, &cm)| mp + (budget - 0.51 * (cm as f64).log2()).floor() as i32)
        .collect();
    let e_b: Vec<i32> = nu_prime
        .iter()
        .zip(&col_cmax)
        .map(|(&np, &cm)| np + (budget - 0.51 * (cm as f64).log2()).floor() as i32)
        .collect();
    (e_a, e_b)
}

/// `2^e` as one or two exact f64 factors `(s1, s2)`: multiplying by both
/// in order reproduces [`scale_by_pow2`] bit for bit (the in-range case
/// has `s2 = 1.0`, and multiplying by `1.0` is the IEEE identity). This is
/// what lets the trunc kernels hoist the power-of-two computation out of
/// the per-element loop: one split per vector, two multiplies per element.
#[inline]
pub fn pow2_split(e: i32) -> (f64, f64) {
    if (-969..=970).contains(&e) {
        (2f64.powi(e), 1.0)
    } else {
        let half = e / 2;
        (2f64.powi(half), 2f64.powi(e - half))
    }
}

// ---------------------------------------------------------------------------
// The scale+trunc row kernels (runtime-dispatched)
// ---------------------------------------------------------------------------

/// Name of the level the scale+trunc row kernels run at on this thread
/// (see [`gemm_engine::dispatch_name`]).
pub fn trunc_kernel_name() -> &'static str {
    dispatch_name()
}

/// Portable scale+trunc row kernel: `dst[i] = trunc(xs[i] * s1 * s2)` with
/// `(s1, s2) = pow2_split(e)`, f32 lanes widened exactly first. The one
/// body of [`strunc_row`], and the lane oracle it is property-tested
/// against, bit for bit.
#[inline(always)]
pub fn strunc_row_scalar<T: Element>(xs: &[T], dst: &mut [f64], s1: f64, s2: f64) {
    for (d, &x) in dst.iter_mut().zip(xs) {
        *d = (x.to_f64() * s1 * s2).trunc();
    }
}

/// Vectorized scale+trunc over a row: `dst[i] = trunc(xs[i] * s1 * s2)`
/// with `(s1, s2)` from [`pow2_split`]: [`strunc_row_scalar`] run through
/// [`dispatch`], so it is bit-identical to it at every level.
#[inline]
pub fn strunc_row<T: Element>(xs: &[T], dst: &mut [f64], s1: f64, s2: f64) {
    assert!(dst.len() >= xs.len(), "destination row too short");
    dispatch(|| strunc_row_scalar(xs, dst, s1, s2))
}

/// [`strunc_row`] over `scales.len()` contiguous vectors, vector `i` at
/// `xs[i * ld..]`, into panel order ([`PanelTrunc`]): each vector 64
/// entries at a time, truncated at full vector width and then stored run
/// by run, as `S`.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn strunc_runs<const RUN: usize, T: Element, S: Element>(
    xs: &[T],
    ld: usize,
    scales: &[(f64, f64)],
    len: usize,
    tile: &mut [S],
    vstride: usize,
    stride: usize,
) {
    dispatch(PanelTrunc::<RUN, false, T, S> {
        xs,
        ld,
        scales,
        len,
        tile,
        vstride,
        stride,
    })
}

/// [`strunc_runs`] over gathered vectors, vector `i`, entry `h` at
/// `xs[h * ld + i]` — the same per-lane operations, reading each source
/// row's entries of the group together (the fused transpose gather of the
/// trunc+convert sweep). `RUN = 1`, `stride = 1` gives vector `i` the
/// plain row at `i * vstride`.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn strunc_gather<const RUN: usize, T: Element, S: Element>(
    xs: &[T],
    ld: usize,
    scales: &[(f64, f64)],
    len: usize,
    tile: &mut [S],
    vstride: usize,
    stride: usize,
) {
    dispatch(PanelTrunc::<RUN, true, T, S> {
        xs,
        ld,
        scales,
        len,
        tile,
        vstride,
        stride,
    })
}

/// Scale+trunc of `scales.len()` vectors into panel order: entry `h` of
/// vector `i` — `xs[h * ld + i]` if `GATHER`, else `xs[i * ld + h]` —
/// scaled by `scales[i]` (a [`pow2_split`] pair) and truncated into
/// `tile[i * vstride + h / RUN * stride + h % RUN]` for `h < len`, as `S`.
/// The product is taken in f64; an f32 source's `trunc(2^e·a)` keeps at
/// most the 24 significant bits of `a`, so storing it as f32 is exact (an
/// f64 source goes to an f64 tile). A [`Kernel`] so that every level's
/// copy contains it (as a closure it is too large for LLVM to inline).
struct PanelTrunc<'a, const RUN: usize, const GATHER: bool, T, S> {
    xs: &'a [T],
    ld: usize,
    scales: &'a [(f64, f64)],
    len: usize,
    tile: &'a mut [S],
    vstride: usize,
    stride: usize,
}

/// Entries of one vector [`strunc_runs`] truncates at once; a multiple of
/// every run length it is used with.
const RUN_PIECE: usize = 64;

/// Gathered vectors truncated together: reading a source row's 8
/// consecutive entries at once took f32 256x256x8192's gathered trunc
/// from ~5.5 to ~4.7 ms against one strided pass per vector (2-vCPU
/// x86-64); 16 read no faster. [`strunc_gather`] runs a full group four
/// depth entries at a time, one full-width truncation per source row and
/// one 4-entry store per vector, which took the same trunc on one thread
/// from 3.3–4.1 ms (one scalar lane per entry, f64 tile) to 1.6–1.9 ms
/// (f32 tile).
pub(crate) const GATHER_GROUP: usize = 8;

impl<const RUN: usize, const GATHER: bool, T: Element, S: Element> Kernel
    for PanelTrunc<'_, RUN, GATHER, T, S>
{
    type Out = ();

    #[inline(always)]
    fn run(self) {
        let (xs, scales, tile) = (self.xs, self.scales, self.tile);
        let (ld, len, vstride, stride) = (self.ld, self.len, self.vstride, self.stride);
        let strunc = |x: T, (s1, s2): (f64, f64)| S::from_f64((x.to_f64() * s1 * s2).trunc());
        if GATHER {
            let mut h0 = 0;
            // A full group, four depth entries of all its vectors at a
            // time: truncated source row by source row at full width, then
            // stored vector by vector, each vector's four entries one
            // contiguous piece of its run.
            let pieces = RUN.is_multiple_of(4) || stride == RUN;
            if let (Ok(sc), true) = (<&[(f64, f64); GATHER_GROUP]>::try_from(scales), pieces) {
                let mut blk = [[S::ZERO; GATHER_GROUP]; 4];
                while h0 + 4 <= len {
                    for (j, out) in blk.iter_mut().enumerate() {
                        let row = &xs[(h0 + j) * ld..][..GATHER_GROUP];
                        for ((o, &x), &s) in out.iter_mut().zip(row).zip(sc) {
                            *o = strunc(x, s);
                        }
                    }
                    let at = h0 / RUN * stride + h0 % RUN;
                    for i in 0..GATHER_GROUP {
                        let piece = &mut tile[at + i * vstride..][..4];
                        for (j, d) in piece.iter_mut().enumerate() {
                            *d = blk[j][i];
                        }
                    }
                    h0 += 4;
                }
            }
            for h in h0..len {
                let at = h / RUN * stride + h % RUN;
                let row = &xs[h * ld..h * ld + scales.len()];
                for ((&x, &sc), i) in row.iter().zip(scales).zip(0..) {
                    tile[at + i * vstride] = strunc(x, sc);
                }
            }
            return;
        }
        for (i, &sc) in scales.iter().enumerate() {
            let (row, base) = (&xs[i * ld..i * ld + len], i * vstride);
            let mut pieces = row.chunks_exact(RUN_PIECE);
            for (c, piece) in (&mut pieces).enumerate() {
                let v: [S; RUN_PIECE] = std::array::from_fn(|e| strunc(piece[e], sc));
                for (r, run) in v.chunks_exact(RUN).enumerate() {
                    tile[base + (c * RUN_PIECE / RUN + r) * stride..][..RUN].copy_from_slice(run);
                }
            }
            let h0 = len - pieces.remainder().len();
            for (h, &x) in (h0..).zip(pieces.remainder()) {
                tile[base + h / RUN * stride + h % RUN] = strunc(x, sc);
            }
        }
    }
}

/// Depth tile of the standalone transposing trunc: 256 source cache lines
/// (16 KiB) stay L1-resident while consecutive rows gather from them.
const TRUNC_DEPTH_TILE: usize = 256;

/// Step 2 fused with the row-major repack: `A'^T` laid out row-major,
/// `out[i*k + h] = trunc(2^{e_i} · a_ih)`, via cache-blocked transpose.
///
/// The hot pipeline no longer calls this (the truncation is fused into the
/// convert sweep, [`crate::convert::trunc_convert_pack_panels`]); it stays
/// as the standalone form for consumers that want the integer matrices
/// (the benchmarks, the structural-independence property tests).
pub fn scale_trunc_a_rowmajor(a: &MatF64, exps: &[i32], out: &mut [f64]) {
    let (m, k) = a.shape();
    assert_eq!(exps.len(), m);
    assert_eq!(out.len(), m * k);
    let a_data = a.as_slice();
    let mut tmp = [0.0f64; TRUNC_DEPTH_TILE];
    for j0 in (0..k).step_by(TRUNC_DEPTH_TILE) {
        let len = TRUNC_DEPTH_TILE.min(k - j0);
        for i in 0..m {
            let (s1, s2) = pow2_split(exps[i]);
            for (t, jj) in tmp[..len].iter_mut().zip(0..) {
                *t = a_data[(j0 + jj) * m + i];
            }
            strunc_row(&tmp[..len], &mut out[i * k + j0..i * k + j0 + len], s1, s2);
        }
    }
}

/// Step 3: `B'` stays column-major; `out[h + j*k] = trunc(2^{e_j} · b_hj)`.
/// Columns are contiguous, so the vectorized [`strunc_row`] kernel runs
/// directly over the source (same standalone role as
/// [`scale_trunc_a_rowmajor`]).
pub fn scale_trunc_b_colmajor(b: &MatF64, exps: &[i32], out: &mut [f64]) {
    let (k, n) = b.shape();
    assert_eq!(exps.len(), n);
    assert_eq!(out.len(), k * n);
    for j in 0..n {
        let (s1, s2) = pow2_split(exps[j]);
        strunc_row(b.col(j), &mut out[j * k..(j + 1) * k], s1, s2);
    }
}

/// Check the uniqueness condition (3) directly (test/diagnostic use):
/// `2 max_ij Σ_h |a'_ih||b'_hj| < P`, evaluated with certified upper-bound
/// arithmetic on a sample of (i, j) pairs or exhaustively for small shapes.
pub fn condition3_holds(
    aprime_rm: &[f64],
    bprime_cm: &[f64],
    m: usize,
    n: usize,
    k: usize,
    consts: &Constants,
) -> bool {
    let p_log2 = consts.p_big.to_f64().log2();
    for i in 0..m {
        let a_row = &aprime_rm[i * k..(i + 1) * k];
        for j in 0..n {
            let b_col = &bprime_cm[j * k..(j + 1) * k];
            let dot = roundup::dot_abs_upper(a_row.iter().zip(b_col.iter()));
            if dot > 0.0 && (2.0 * dot).log2() >= p_log2 {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::consts::constants;
    use gemm_dense::workload::phi_matrix_f64;
    use gemm_dense::{Layout, Matrix};
    use gemm_engine::Isa;

    /// Logical line-1 operand for `side` (`vecs x k` rows of `A`, or
    /// `k x vecs` columns of `B`), entries `±[0.5, 1)·2^e` for `e` in
    /// `[-30, 30]`. With `special` and `vecs >= 4`, vectors 0–3 are: all
    /// zero; a maximum of `1.75·2^big`; a maximum of `1.5·2^tiny` among
    /// smaller entries and a zero; every entry in `[1, 2)·2^deep`.
    fn line1_operand<T: Element>(
        side: OperandSide,
        vecs: usize,
        k: usize,
        seed: u64,
        [big, tiny, deep]: [i32; 3],
    ) -> Matrix<T> {
        let mut state = seed | 1;
        let mut draw = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let logical = Matrix::<f64>::from_fn(vecs, k, |v, h| {
            let r = draw();
            let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
            let frac = 1.0 + (r >> 12) as f64 / (1u64 << 41) as f64; // [1, 2)
            let x = sign * frac;
            match (vecs >= 4, v) {
                (true, 0) => 0.0,
                (true, 1) if h == k / 2 => 1.75 * scale_by_pow2(1.0, big),
                (true, 1) => x * scale_by_pow2(1.0, big - 4),
                (true, 2) if h == 0 => -1.5 * scale_by_pow2(1.0, tiny),
                (true, 2) if h == 1 => 0.0,
                (true, 2) => x * scale_by_pow2(1.0, tiny - 2),
                (true, 3) => x * scale_by_pow2(1.0, deep),
                _ => x * scale_by_pow2(0.5, (r >> 53) as i32 % 61 - 30),
            }
        });
        let logical = logical.map(T::from_f64);
        match side {
            OperandSide::A => logical,
            OperandSide::B => logical.transpose(),
        }
    }

    /// `mat` stored as `layout` with leading dimension `minor + pad`, the
    /// gaps poisoned with NaN.
    fn stored<T: Element>(mat: &Matrix<T>, layout: Layout, pad: usize) -> (Vec<T>, usize) {
        let (rows, cols) = mat.shape();
        let (major, minor) = match layout {
            Layout::ColMajor => (cols, rows),
            Layout::RowMajor => (rows, cols),
        };
        let ld = minor + pad;
        let mut buf = vec![T::from_f64(f64::NAN); major * ld];
        for i in 0..rows {
            for j in 0..cols {
                let idx = match layout {
                    Layout::ColMajor => i + j * ld,
                    Layout::RowMajor => i * ld + j,
                };
                buf[idx] = mat[(i, j)];
            }
        }
        (buf, ld)
    }

    /// Every view of `mat`, named: column- and row-major with padded
    /// leading dimensions (gaps poisoned with NaN), and a `.t()` of the
    /// transpose. Each call of `f` gets one.
    pub(crate) fn for_each_view<T: Element>(
        mat: &Matrix<T>,
        mut f: impl FnMut(&str, MatView<'_, T>),
    ) {
        let (rows, cols) = mat.shape();
        for layout in [Layout::ColMajor, Layout::RowMajor] {
            for pad in [0usize, 3] {
                let (buf, ld) = stored(mat, layout, pad);
                f(
                    &format!("{layout:?} pad {pad}"),
                    MatView::new(&buf, rows, cols, ld, layout),
                );
            }
        }
        let transposed = mat.transpose();
        f(".t()", transposed.view().t());
    }

    /// [`fast_scale_view`] over every view of `mat` against the oracle on
    /// the widened column-major copy, bit for bit; the operand is finite,
    /// so the flag must be set.
    fn check_line1<T: Element>(mat: &Matrix<T>, side: OperandSide, parallel: bool, what: &str) {
        let budget = constants(15).p_fast;
        let wide = mat.map(T::to_f64);
        let want = match side {
            OperandSide::A => fast_scale_rows(&wide, budget),
            OperandSide::B => fast_scale_cols(&wide, budget),
        };
        for_each_view(mat, |name, view| {
            let (got, finite) = fast_scale_view(&view, side, budget, parallel);
            assert_eq!(got, want, "{what} {side:?} {name}");
            assert!(finite, "{what} {side:?} {name}: finite flag");
        });
    }

    #[test]
    fn fast_scale_view_bit_identical_to_oracles() {
        // Vector counts off the lane widths (16, 128), depths off the
        // tile depth (64), both sides, both precisions, every layout;
        // zero vectors, maxima near the top of the range and below the
        // normal range. On one thread at every level, then split over
        // the pool.
        let shapes = [
            (1usize, 1usize),
            (5, 3),
            (16, 16),
            (17, 67),
            (40, 130),
            (129, 5),
            (130, 33),
        ];
        const F64_SPECIALS: [i32; 3] = [1023, -1023, -1060];
        const F32_SPECIALS: [i32; 3] = [127, -140, -149];
        let run = |parallel: bool, level: Option<Isa>| {
            for (t, &(vecs, k)) in shapes.iter().enumerate() {
                for side in [OperandSide::A, OperandSide::B] {
                    let seed = 1 + t as u64;
                    let what = format!("{level:?} {vecs}x{k}");
                    let a64 = line1_operand::<f64>(side, vecs, k, seed, F64_SPECIALS);
                    check_line1(&a64, side, parallel, &format!("f64 {what}"));
                    let a32 = line1_operand::<f32>(side, vecs, k, seed, F32_SPECIALS);
                    check_line1(&a32, side, parallel, &format!("f32 {what}"));
                }
            }
        };
        gemm_engine::for_each_level("fast_scale_view_bit_identical_to_oracles", |level| {
            run(false, Some(level))
        });
        run(true, None);
    }

    #[test]
    fn fast_scale_view_flags_every_non_finite_entry() {
        // One NaN or ±inf anywhere makes its vector's norm non-finite.
        let budget = constants(15).p_fast;
        for side in [OperandSide::A, OperandSide::B] {
            let mat = line1_operand::<f64>(side, 37, 21, 9, [1023, -1023, -1060]);
            let (rows, cols) = mat.shape();
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for (i, j) in [(0, 0), (rows / 2, cols / 3), (rows - 1, cols - 1)] {
                    let mut m = mat.clone();
                    m[(i, j)] = bad;
                    for layout in [Layout::ColMajor, Layout::RowMajor] {
                        let (buf, ld) = stored(&m, layout, 2);
                        let view = MatView::new(&buf, rows, cols, ld, layout);
                        let (_, finite) = fast_scale_view(&view, side, budget, false);
                        assert!(!finite, "{side:?} {bad} at ({i}, {j}) {layout:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn ilog2_matches_log2_floor() {
        for &x in &[1.0, 1.5, 2.0, 3.9, 0.5, 0.49, 1e300, 1e-300, 7.25e-310] {
            assert_eq!(ilog2_abs(x), x.abs().log2().floor() as i32, "x={x}");
            assert_eq!(ilog2_abs(-x), ilog2_abs(x));
        }
    }

    #[test]
    fn scale_by_pow2_extremes() {
        assert_eq!(scale_by_pow2(1.0, 10), 1024.0);
        assert_eq!(scale_by_pow2(1.0, -10), 1.0 / 1024.0);
        // Beyond the single-multiply range: 2^-1000 * 2^1500 = 2^500, which
        // a naive `x * 2f64.powi(1500)` would turn into infinity.
        let x = scale_by_pow2(2f64.powi(-1000), 1500);
        assert_eq!(x, 2f64.powi(500));
        let y = scale_by_pow2(2f64.powi(1000), -1500);
        assert_eq!(y, 2f64.powi(-500));
    }

    #[test]
    fn fast_scale_respects_budget() {
        let budget = 30.0;
        let a = phi_matrix_f64(16, 64, 1.0, 7, 0);
        let exps = fast_scale_rows(&a, budget);
        for i in 0..16 {
            // 2-norm of the scaled, truncated row must stay under 2^budget.
            let nrm: f64 = (0..64)
                .map(|h| {
                    let v = scale_by_pow2(a[(i, h)], exps[i]).trunc();
                    v * v
                })
                .sum::<f64>()
                .sqrt();
            assert!(
                nrm.log2() <= budget + 1e-9,
                "row {i}: |a'| = 2^{}",
                nrm.log2()
            );
            // And not wastefully small (within ~3 bits of the budget for a
            // well-conditioned random row).
            assert!(
                nrm.log2() > budget - 4.0,
                "row {i}: |a'| = 2^{}",
                nrm.log2()
            );
        }
    }

    #[test]
    fn fast_scale_cols_matches_rows_of_transpose() {
        let b = phi_matrix_f64(32, 8, 0.5, 3, 1);
        let cols = fast_scale_cols(&b, 25.0);
        let rows = fast_scale_rows(&b.transpose(), 25.0);
        assert_eq!(cols, rows);
    }

    #[test]
    fn zero_rows_get_neutral_scale() {
        let mut a = phi_matrix_f64(4, 8, 0.5, 1, 0);
        for h in 0..8 {
            a[(2, h)] = 0.0;
        }
        let exps = fast_scale_rows(&a, 30.0);
        assert_eq!(exps[2], 0);
    }

    #[test]
    fn trunc_outputs_are_integers() {
        let a = phi_matrix_f64(8, 8, 2.0, 11, 0);
        let exps = fast_scale_rows(&a, 20.0);
        let mut out = vec![0f64; 64];
        scale_trunc_a_rowmajor(&a, &exps, &mut out);
        assert!(out.iter().all(|x| x.fract() == 0.0));
    }

    #[test]
    fn b_trunc_column_layout() {
        let b = phi_matrix_f64(6, 3, 0.5, 13, 1);
        let exps = fast_scale_cols(&b, 20.0);
        let mut out = vec![0f64; 18];
        scale_trunc_b_colmajor(&b, &exps, &mut out);
        for j in 0..3 {
            for h in 0..6 {
                let want = scale_by_pow2(b[(h, j)], exps[j]).trunc();
                assert_eq!(out[h + j * 6], want);
            }
        }
    }

    #[test]
    fn pow2_split_reproduces_scale_by_pow2() {
        for e in [
            -1940, -1500, -1074, -970, -969, -500, -1, 0, 1, 513, 970, 971, 1500, 1940,
        ] {
            let (s1, s2) = pow2_split(e);
            for &x in &[1.0f64, -3.7, 0.125, 12345.678, -2f64.powi(40)] {
                assert_eq!(
                    (x * s1 * s2).to_bits(),
                    scale_by_pow2(x, e).to_bits(),
                    "e={e} x={x}"
                );
            }
        }
    }

    #[test]
    fn strunc_row_bit_identical_to_scalar_and_reference() {
        // Ragged lengths (SIMD body + tail), extreme exponents (both
        // pow2_split regimes), negative zero producers.
        gemm_engine::for_each_level(
            "strunc_row_bit_identical_to_scalar_and_reference",
            |level| {
                for len in [1usize, 3, 4, 7, 8, 9, 16, 31, 64, 100] {
                    let xs: Vec<f64> = (0..len)
                        .map(|i| (i as f64 - 17.3) * 1.618f64.powi(i as i32 % 40 - 20))
                        .collect();
                    for e in [-1800i32, -975, -37, 0, 12, 975, 1800] {
                        let (s1, s2) = pow2_split(e);
                        let mut got = vec![0.0f64; len];
                        let mut want = vec![0.0f64; len];
                        strunc_row(&xs, &mut got, s1, s2);
                        strunc_row_scalar(&xs, &mut want, s1, s2);
                        for i in 0..len {
                            assert_eq!(
                                got[i].to_bits(),
                                want[i].to_bits(),
                                "{level:?} len={len} e={e} lane={i}"
                            );
                            assert_eq!(
                                want[i].to_bits(),
                                scale_by_pow2(xs[i], e).trunc().to_bits(),
                                "oracle deviates from scale_by_pow2: len={len} e={e} lane={i}"
                            );
                        }
                    }
                }
            },
        );
    }

    #[test]
    fn strunc_f32_and_gathered_match_widened_scalar() {
        // The f32 kernel widens exactly and stores the f32 it truncates
        // to, and the gathered kernel reads vector i's entry h at
        // h * ld + i for a group of vectors: both equal the scalar kernel
        // over the widened, gathered f64 vector, bit for bit, at every
        // level.
        const LD: usize = 11;
        let xs: Vec<f32> = (0..LD * 300)
            .map(|i| (i as f32) * 0.7331 - 1091.0)
            .collect();
        let wide: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        gemm_engine::for_each_level("strunc_f32_and_gathered_match_widened_scalar", |level| {
            let exps = [-40i32, 0, 7, 1100, -1100, 3, -7, 60];
            for g in [1usize, 3, 8] {
                let scales: Vec<(f64, f64)> = exps[..g].iter().map(|&e| pow2_split(e)).collect();
                for len in [1usize, 7, 300] {
                    const ROW: usize = 301;
                    let mut tile32 = vec![0.0f32; g * ROW];
                    let mut tile64 = vec![0.0f64; g * ROW];
                    strunc_gather::<1, _, _>(&xs, LD, &scales, len, &mut tile32, ROW, 1);
                    strunc_gather::<1, _, _>(&wide, LD, &scales, len, &mut tile64, ROW, 1);
                    for (i, &(s1, s2)) in scales.iter().enumerate() {
                        let vector: Vec<f64> =
                            wide[i..].iter().step_by(LD).take(len).copied().collect();
                        let mut want = vec![0.0f64; len];
                        strunc_row_scalar(&vector, &mut want, s1, s2);
                        let row = i * ROW..i * ROW + len;
                        let what = format!("{level:?} g={g} len={len} vector {i}");
                        let wide32: Vec<f64> =
                            tile32[row.clone()].iter().map(|&x| x.into()).collect();
                        assert_eq!(bits(&wide32), bits(&want), "f32 {what}");
                        assert_eq!(bits(&tile64[row]), bits(&want), "f64 {what}");
                    }
                }
            }
            for e in exps {
                let (s1, s2) = pow2_split(e);
                let mut want = vec![0.0f64; xs.len()];
                strunc_row_scalar(&wide, &mut want, s1, s2);
                let mut got = vec![0.0f64; xs.len()];
                strunc_row(&xs, &mut got, s1, s2);
                assert_eq!(bits(&got), bits(&want), "{level:?} e={e} f32 row");
            }
        });
    }

    #[test]
    fn accurate_scale_view_is_layout_and_precision_independent() {
        // Line 1's max kernels (gathered or contiguous, by layout) give
        // the maxima the per-element loops gave, so every view of the
        // operands, in either precision, yields the exponents of the
        // dense column-major f64 copy.
        let budget = constants(15).p_accu;
        for (m, k, n) in [(1usize, 1usize, 1usize), (7, 33, 5), (17, 67, 130)] {
            let a = line1_operand::<f64>(OperandSide::A, m, k, 5, [1023, -1023, -1060]);
            let b = line1_operand::<f64>(OperandSide::B, n, k, 6, [1000, -1000, -1050]);
            let want = accurate_scale_view(&a.view(), &b.view(), budget, false);
            // The maxima themselves, against a plain fold over `get`.
            let naive = |v: MatView<'_, f64>, side: OperandSide| -> Vec<f64> {
                let (vecs, _, k) = side.panel_dims(v.shape());
                (0..vecs)
                    .map(|i| {
                        (0..k).fold(0.0f64, |acc, h| {
                            let x = match side {
                                OperandSide::A => v.get(i, h),
                                OperandSide::B => v.get(h, i),
                            };
                            acc.max(x.abs())
                        })
                    })
                    .collect()
            };
            for_each_view(&a, |name, va| {
                assert_eq!(
                    vector_maxima(&va, OperandSide::A),
                    naive(va, OperandSide::A),
                    "A {name}"
                );
                let got = accurate_scale_view(&va, &b.view(), budget, false);
                assert_eq!(got, want, "A {name} {m}x{k}x{n}");
            });
            for_each_view(&b, |name, vb| {
                assert_eq!(
                    vector_maxima(&vb, OperandSide::B),
                    naive(vb, OperandSide::B),
                    "B {name}"
                );
                let got = accurate_scale_view(&a.view(), &vb, budget, true);
                assert_eq!(got, want, "B {name} {m}x{k}x{n}");
            });
            // f32: the exponents of the exactly widened copy, every view.
            let a32 = line1_operand::<f32>(OperandSide::A, m, k, 5, [127, -140, -149]);
            let b32 = line1_operand::<f32>(OperandSide::B, n, k, 6, [120, -126, -145]);
            let (a32w, b32w) = (a32.map(f64::from), b32.map(f64::from));
            let want32 = accurate_scale_view(&a32w.view(), &b32w.view(), budget, false);
            for_each_view(&a32, |name, va| {
                let got = accurate_scale_view(&va, &b32.view(), budget, false);
                assert_eq!(got, want32, "f32 A {name} {m}x{k}x{n}");
            });
            for_each_view(&b32, |name, vb| {
                let got = accurate_scale_view(&a32.view(), &vb, budget, false);
                assert_eq!(got, want32, "f32 B {name} {m}x{k}x{n}");
            });
        }
    }

    #[test]
    fn accurate_entries_stay_within_the_excess() {
        // a_00 meets B only through a tiny but nonzero b_00, so the
        // estimate Ā·B̄ cannot shrink its exponent: its truncated value
        // passes 2^budget, by less than ACCURATE_EXCESS_BITS.
        let budget = constants(11).p_accu;
        let a = MatF64::from_vec(1, 2, vec![1.49, 0.0]);
        let b = MatF64::from_vec(2, 1, vec![2f64.powi(-20), 1.0]);
        let (ea, _) = accurate_scale_view(&a.view(), &b.view(), budget, false);
        let top = scale_by_pow2(1.49, ea[0]).trunc().log2();
        assert!(top > budget + 2.0, "{top} vs budget {budget}");
        assert!(
            top < budget + ACCURATE_EXCESS_BITS,
            "{top} vs budget {budget}"
        );
    }

    #[test]
    fn accurate_scale_tighter_than_fast() {
        // Accurate mode should grant at least as many bits as fast mode on
        // a generic random instance (it bounds the true sum, not the
        // Cauchy–Schwarz overestimate).
        let a = phi_matrix_f64(24, 48, 1.0, 5, 0);
        let b = phi_matrix_f64(48, 24, 1.0, 5, 1);
        let budget = 25.0;
        let fast = fast_scale_rows(&a, budget);
        let (accu, _) = accurate_scale_view(&a.view(), &b.view(), budget + 0.25, true);
        let better: i32 = fast
            .iter()
            .zip(&accu)
            .map(|(&f, &acc)| (acc - f).signum())
            .sum();
        assert!(
            better > 0,
            "accurate mode should usually keep more bits: fast={fast:?} accu={accu:?}"
        );
    }
}
