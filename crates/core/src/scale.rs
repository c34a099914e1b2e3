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
//! The truncation row kernel [`strunc_row`] (and its in-place form) is one
//! portable loop, [`strunc_row_scalar`], run through
//! [`gemm_engine::dispatch`]: two IEEE multiplies and a truncation per
//! lane, so every level LLVM compiles it for gives the oracle's bits.

use crate::consts::Constants;
use crate::element::Element;
use gemm_dense::{MatF64, MatView};
use gemm_engine::{
    dispatch, dispatch_name, int8_gemm_prepacked_fused, padded_a_rows, padded_b_cols, padded_depth,
    NoEpilogue,
};
use gemm_exact::roundup;

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
/// overflow, exactly as the paper's formula is structured).
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
    let inv_scale: Vec<f64> = m_exp.iter().map(|&e| scale_by_pow2(1.0, -e)).collect();
    let mut norm_sq = vec![0.0f64; m];
    for h in 0..k {
        for ((ns, &s), &x) in norm_sq
            .iter_mut()
            .zip(&inv_scale)
            .zip(&data[h * m..(h + 1) * m])
        {
            let t = x * s;
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
            let s = scale_by_pow2(1.0, -me);
            let upper = roundup::sum_sq_upper(col.iter().map(|&x| x * s));
            let t = (0.51 * upper.log2()).max(1.0);
            (budget - t).floor() as i32 - me
        })
        .collect()
}

/// [`fast_scale_rows`] over a borrowed strided operand view (any layout,
/// leading dimension, or transpose; f64 or exactly widened f32): per-row
/// scale exponents for the view's **logical** elements, with zero
/// materialization. Bit-identical to [`fast_scale_rows`] on a
/// column-major copy — every row's maxima and norm accumulation run in
/// the same ascending-`h` order, and f32 widening is exact.
// Kept out of line (also `fast_scale_b_view`): inlined into the large
// generic Algorithm-1 body these scalar strided loops compiled measurably
// slower (f32 256x256x8192, 2-vCPU x86-64: line 1 took 13 ms instead of
// 8.5 ms).
#[inline(never)]
pub fn fast_scale_a_view<T: Element>(a: &MatView<'_, T>, budget: f64) -> Vec<i32> {
    let (m, k) = a.shape();
    let mut row_max = vec![0.0f64; m];
    for h in 0..k {
        for (i, rm) in row_max.iter_mut().enumerate() {
            let ax = a.get(i, h).to_f64().abs();
            if ax > *rm {
                *rm = ax;
            }
        }
    }
    let m_exp: Vec<i32> = row_max
        .iter()
        .map(|&r| if r == 0.0 { 0 } else { ilog2_abs(r) })
        .collect();
    let inv_scale: Vec<f64> = m_exp.iter().map(|&e| scale_by_pow2(1.0, -e)).collect();
    let mut norm_sq = vec![0.0f64; m];
    for h in 0..k {
        for (i, (ns, &s)) in norm_sq.iter_mut().zip(&inv_scale).enumerate() {
            let t = a.get(i, h).to_f64() * s;
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

/// [`fast_scale_cols`] over a borrowed strided operand view — the
/// column-side counterpart of [`fast_scale_a_view`], bit-identical to
/// [`fast_scale_cols`] on a column-major copy.
// Out of line: see `fast_scale_a_view`.
#[inline(never)]
pub fn fast_scale_b_view<T: Element>(b: &MatView<'_, T>, budget: f64) -> Vec<i32> {
    let (k, n) = b.shape();
    (0..n)
        .map(|j| {
            let cm = (0..k).fold(0.0f64, |acc, h| acc.max(b.get(h, j).to_f64().abs()));
            if cm == 0.0 {
                return 0;
            }
            let me = ilog2_abs(cm);
            let s = scale_by_pow2(1.0, -me);
            let upper = roundup::sum_sq_upper((0..k).map(|h| b.get(h, j).to_f64() * s));
            let t = (0.51 * upper.log2()).max(1.0);
            (budget - t).floor() as i32 - me
        })
        .collect()
}

/// Accurate-mode scale exponents for both operands (§4.2), over borrowed
/// strided operand views (f64 or exactly widened f32).
///
/// Returns `(e_a, e_b)`. The 6-bit magnitude estimates `Ā`, `B̄` are
/// written from the strided elements straight into the engine's i8 panel
/// layout (the operands themselves are never copied), and `Ā·B̄` is one
/// INT8 GEMM over those panels.
pub fn accurate_scale_view<T: Element>(
    a: &MatView<'_, T>,
    b: &MatView<'_, T>,
    budget: f64,
) -> (Vec<i32>, Vec<i32>) {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb);

    // μ'_i = 2^{5 - ⌊log2 max_h |a_ih|⌋}: scales the row max into [32, 64).
    let mut row_max = vec![0.0f64; m];
    for h in 0..k {
        for (i, rm) in row_max.iter_mut().enumerate() {
            let ax = a.get(i, h).to_f64().abs();
            if ax > *rm {
                *rm = ax;
            }
        }
    }
    let mu_prime: Vec<i32> = row_max
        .iter()
        .map(|&r| if r == 0.0 { 0 } else { 5 - ilog2_abs(r) })
        .collect();
    let col_max: Vec<f64> = (0..n)
        .map(|j| (0..k).fold(0.0f64, |acc, h| acc.max(b.get(h, j).to_f64().abs())))
        .collect();
    let nu_prime: Vec<i32> = col_max
        .iter()
        .map(|&c| if c == 0.0 { 0 } else { 5 - ilog2_abs(c) })
        .collect();

    // Ā = ⌈μ' |A|⌉, B̄ = ⌈|B| ν'⌉ — 6-bit magnitudes (≤ 64), INT8-safe —
    // as zero-padded panels: row i of Ā and column j of B̄ at stride kp.
    let magnitude = |x: T, e: i32| {
        let v = scale_by_pow2(x.to_f64().abs(), e).ceil();
        debug_assert!(v <= 64.0);
        v as i8
    };
    let kp = padded_depth(k);
    let mut a_bar = vec![0i8; padded_a_rows(m) * kp];
    for h in 0..k {
        for (i, &e) in mu_prime.iter().enumerate() {
            a_bar[i * kp + h] = magnitude(a.get(i, h), e);
        }
    }
    let mut b_bar = vec![0i8; padded_b_cols(n) * kp];
    for (j, &e) in nu_prime.iter().enumerate() {
        for (h, v) in b_bar[j * kp..j * kp + k].iter_mut().enumerate() {
            *v = magnitude(b.get(h, j), e);
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
            true,
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
/// `(s1, s2) = pow2_split(e)`. The one body of [`strunc_row`], and the
/// lane oracle it is property-tested against, bit for bit.
#[inline(always)]
pub fn strunc_row_scalar(xs: &[f64], dst: &mut [f64], s1: f64, s2: f64) {
    for (d, &x) in dst.iter_mut().zip(xs) {
        *d = (x * s1 * s2).trunc();
    }
}

/// Vectorized scale+trunc over a row: `dst[i] = trunc(xs[i] * s1 * s2)`
/// with `(s1, s2)` from [`pow2_split`]: [`strunc_row_scalar`] run through
/// [`dispatch`], so it is bit-identical to it at every level.
#[inline]
pub fn strunc_row(xs: &[f64], dst: &mut [f64], s1: f64, s2: f64) {
    assert!(dst.len() >= xs.len(), "destination row too short");
    dispatch(|| strunc_row_scalar(xs, dst, s1, s2))
}

/// In-place [`strunc_row`]: `buf[i] = trunc(buf[i] * s1 * s2)`, the same
/// per-lane operations; used on the fused convert's staging tile after
/// the transpose gather.
#[inline]
pub fn strunc_row_inplace(buf: &mut [f64], s1: f64, s2: f64) {
    dispatch(|| {
        for x in buf.iter_mut() {
            *x = (*x * s1 * s2).trunc();
        }
    })
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
/// (`mixed.rs`, diagnostics, the structural-independence property tests).
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
mod tests {
    use super::*;
    use gemm_dense::workload::phi_matrix_f64;

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
    fn strunc_inplace_matches_out_of_place() {
        let xs: Vec<f64> = (0..53).map(|i| (i as f64) * 0.7331 - 19.0).collect();
        gemm_engine::for_each_level("strunc_inplace_matches_out_of_place", |level| {
            for e in [-40i32, 0, 7, 1100] {
                let (s1, s2) = pow2_split(e);
                let mut want = vec![0.0f64; xs.len()];
                strunc_row_scalar(&xs, &mut want, s1, s2);
                let mut buf = xs.clone();
                strunc_row_inplace(&mut buf, s1, s2);
                assert_eq!(
                    buf.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "{level:?} e={e}"
                );
            }
        });
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
        let (accu, _) = accurate_scale_view(&a.view(), &b.view(), budget + 0.25);
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
