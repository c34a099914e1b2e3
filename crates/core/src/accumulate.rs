//! Lines 8–12 of Algorithm 1: the weighted accumulation of the UINT8
//! residue planes and the CRT fold back into the integer product (§4.3).
//!
//! `C'⁽¹⁾ = Σ s_i1 U_i` is **exact** in f64: every `s_i1` is an integer
//! multiple of one common power of two (the β_i construction) and carries
//! at most `53 - 8 - ⌈log2 N⌉` significant bits, so each product with a
//! UINT8 value and the whole N-term sum stay inside 53 bits of that common
//! ulp. `C'⁽²⁾` mops up the discarded low bits of the weights. The fold
//!
//! ```text
//! Q   = round(P_inv · C'⁽¹⁾)
//! C'' = fma(-P2, Q, fma(-P1, Q, C'⁽¹⁾) + C'⁽²⁾)
//! ```
//!
//! subtracts the unique multiple of `P` (double-double `P1 + P2`), leaving
//! `C'' ≈ rmod(A'B', P) = A'B'` by the uniqueness condition (3). The
//! inverse diagonal scaling (line 12, exact: powers of two) is fused into
//! the same pass.
//!
//! The hot recombination is a runtime-dispatched span kernel (AVX-512 →
//! AVX2+FMA → scalar): residues are widened u8 → f64 in SIMD lanes and
//! accumulated with fused multiply-adds. As with the convert kernels, the
//! scalar span kernel [`fold_span_scalar`] is the bit-exact lane oracle —
//! every operation (FMA-weighted accumulation, round-to-nearest-even
//! quotient, the `P1`/`P2` FMA chain) is mirrored exactly, so the SIMD
//! paths cannot diverge lane for lane. Two deliberate deviations from the
//! PR 2 scalar fold, both documented in `docs/ARCHITECTURE.md`:
//!
//! * the weighted accumulation uses FMA (`s·u + c` fused) instead of
//!   multiply-then-add. The exact `C'⁽¹⁾` sum is unchanged (every term is
//!   exact either way); the `C'⁽²⁾` correction gets *more* accurate (one
//!   rounding per term instead of two);
//! * the quotient rounding `Q = round(P_inv · C'⁽¹⁾)` is ties-to-even, the
//!   mode the vector units implement natively. Any nearest rounding keeps
//!   the fold correct (the uniqueness condition keeps `C'⁽¹⁾/P` away from
//!   half-integers); RNE is what makes scalar/SIMD bit-identicality
//!   possible.

use crate::consts::Constants;
use crate::scale::{ilog2_abs, pow2_split, scale_by_pow2};
use gemm_engine::{isa, Isa};
use rayon::prelude::*;

/// Which weight split drives the accumulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FoldPrecision {
    /// DGEMM: `s1 + s2` weight split, `P` as a double-double.
    Double,
    /// SGEMM: single f64 weights, `s2 = 0`, `P2 = 0`.
    Single,
}

// ---------------------------------------------------------------------------
// Vectorized fold span kernels (runtime-dispatched)
// ---------------------------------------------------------------------------

/// Human-readable name of the fold kernel the running CPU dispatches to.
pub fn fold_kernel_name() -> &'static str {
    match isa() {
        Isa::Avx512 | Isa::Avx512Vnni | Isa::Amx => "avx512",
        Isa::Avx2 => "avx2-fma",
        Isa::Scalar => "scalar",
    }
}

/// Scalar fold span kernel — the lane oracle. For each lane `l`, fold the
/// `N = s1.len()` residues at `u[s * plane + idx0 + l]` into the *unscaled*
/// `C''` value (line 12's inverse scaling is applied by the caller).
///
/// `s2 = Some` selects the DGEMM double-double weight split, `None` the
/// SGEMM single-weight fold.
#[allow(clippy::too_many_arguments)]
pub fn fold_span_scalar(
    u: &[u8],
    plane: usize,
    idx0: usize,
    s1: &[f64],
    s2: Option<&[f64]>,
    p1: f64,
    p2: f64,
    p_inv: f64,
    out: &mut [f64],
) {
    let nmod = s1.len();
    debug_assert!(u.len() >= nmod * plane && idx0 + out.len() <= plane);
    for (l, o) in out.iter_mut().enumerate() {
        let idx = idx0 + l;
        let mut c1 = 0.0f64;
        let mut c2 = 0.0f64;
        match s2 {
            Some(s2v) => {
                for s in 0..nmod {
                    let us = u[s * plane + idx] as f64;
                    c1 = s1[s].mul_add(us, c1); // exact by construction
                    c2 = s2v[s].mul_add(us, c2);
                }
            }
            None => {
                for s in 0..nmod {
                    let us = u[s * plane + idx] as f64;
                    c1 = s1[s].mul_add(us, c1);
                }
            }
        }
        let q = (p_inv * c1).round_ties_even();
        let t = q.mul_add(-p1, c1) + c2;
        *o = q.mul_add(-p2, t);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX-512 / AVX2 fold span kernels. Residues are widened u8 → i32 →
    //! f64 (exact), accumulated with `vfmadd`, the quotient rounded with
    //! `roundscale`/`roundpd` (RNE) and the `P1`/`P2` chain mirrored
    //! operation for operation — bit-identical to
    //! [`super::fold_span_scalar`] on every lane.

    use std::arch::x86_64::*;

    /// `_MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC`.
    const RNE: i32 = 0x08;

    /// # Safety
    /// AVX-512F and AVX2 must be available; `u` must hold
    /// `s1.len() * plane` bytes and `idx0 + out.len() <= plane`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f,avx2")]
    pub unsafe fn fold_span_avx512(
        u: &[u8],
        plane: usize,
        idx0: usize,
        s1: &[f64],
        s2: Option<&[f64]>,
        p1: f64,
        p2: f64,
        p_inv: f64,
        out: &mut [f64],
    ) {
        let nmod = s1.len();
        debug_assert!(u.len() >= nmod * plane && idx0 + out.len() <= plane);
        let len = out.len();
        let n8 = len / 8 * 8;
        let np1 = _mm512_set1_pd(-p1);
        let np2 = _mm512_set1_pd(-p2);
        let piv = _mm512_set1_pd(p_inv);
        let ubase = u.as_ptr().add(idx0);
        let mut l = 0;
        while l < n8 {
            let mut c1 = _mm512_setzero_pd();
            let mut c2 = _mm512_setzero_pd();
            match s2 {
                Some(s2v) => {
                    for s in 0..nmod {
                        let bytes = _mm_loadl_epi64(ubase.add(s * plane + l) as *const __m128i);
                        let us = _mm512_cvtepi32_pd(_mm256_cvtepu8_epi32(bytes));
                        c1 = _mm512_fmadd_pd(_mm512_set1_pd(s1[s]), us, c1);
                        c2 = _mm512_fmadd_pd(_mm512_set1_pd(s2v[s]), us, c2);
                    }
                }
                None => {
                    for (s, &w) in s1.iter().enumerate() {
                        let bytes = _mm_loadl_epi64(ubase.add(s * plane + l) as *const __m128i);
                        let us = _mm512_cvtepi32_pd(_mm256_cvtepu8_epi32(bytes));
                        c1 = _mm512_fmadd_pd(_mm512_set1_pd(w), us, c1);
                    }
                }
            }
            let q = _mm512_roundscale_pd::<RNE>(_mm512_mul_pd(piv, c1));
            let t = _mm512_add_pd(_mm512_fmadd_pd(q, np1, c1), c2);
            let cpp = _mm512_fmadd_pd(q, np2, t);
            _mm512_storeu_pd(out.as_mut_ptr().add(l), cpp);
            l += 8;
        }
        super::fold_span_scalar(u, plane, idx0 + n8, s1, s2, p1, p2, p_inv, &mut out[n8..]);
    }

    /// # Safety
    /// AVX2 and FMA must be available; same buffer contract as
    /// `fold_span_avx512`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fold_span_avx2(
        u: &[u8],
        plane: usize,
        idx0: usize,
        s1: &[f64],
        s2: Option<&[f64]>,
        p1: f64,
        p2: f64,
        p_inv: f64,
        out: &mut [f64],
    ) {
        let nmod = s1.len();
        debug_assert!(u.len() >= nmod * plane && idx0 + out.len() <= plane);
        let len = out.len();
        let n4 = len / 4 * 4;
        let np1 = _mm256_set1_pd(-p1);
        let np2 = _mm256_set1_pd(-p2);
        let piv = _mm256_set1_pd(p_inv);
        let ubase = u.as_ptr().add(idx0);
        let mut l = 0;
        while l < n4 {
            let mut c1 = _mm256_setzero_pd();
            let mut c2 = _mm256_setzero_pd();
            match s2 {
                Some(s2v) => {
                    for s in 0..nmod {
                        let w = (ubase.add(s * plane + l) as *const i32).read_unaligned();
                        let us = _mm256_cvtepi32_pd(_mm_cvtepu8_epi32(_mm_cvtsi32_si128(w)));
                        c1 = _mm256_fmadd_pd(_mm256_set1_pd(s1[s]), us, c1);
                        c2 = _mm256_fmadd_pd(_mm256_set1_pd(s2v[s]), us, c2);
                    }
                }
                None => {
                    for (s, &wt) in s1.iter().enumerate() {
                        let w = (ubase.add(s * plane + l) as *const i32).read_unaligned();
                        let us = _mm256_cvtepi32_pd(_mm_cvtepu8_epi32(_mm_cvtsi32_si128(w)));
                        c1 = _mm256_fmadd_pd(_mm256_set1_pd(wt), us, c1);
                    }
                }
            }
            let q = _mm256_round_pd::<RNE>(_mm256_mul_pd(piv, c1));
            let t = _mm256_add_pd(_mm256_fmadd_pd(q, np1, c1), c2);
            let cpp = _mm256_fmadd_pd(q, np2, t);
            _mm256_storeu_pd(out.as_mut_ptr().add(l), cpp);
            l += 4;
        }
        super::fold_span_scalar(u, plane, idx0 + n4, s1, s2, p1, p2, p_inv, &mut out[n4..]);
    }
}

/// Vectorized fold over a contiguous span: dispatches to the best kernel
/// the CPU supports; bit-identical to [`fold_span_scalar`] on every path.
#[allow(clippy::too_many_arguments)]
pub fn fold_span(
    u: &[u8],
    plane: usize,
    idx0: usize,
    s1: &[f64],
    s2: Option<&[f64]>,
    p1: f64,
    p2: f64,
    p_inv: f64,
    out: &mut [f64],
) {
    assert!(
        u.len() >= s1.len() * plane && idx0 + out.len() <= plane,
        "fold span out of bounds"
    );
    if let Some(s2v) = s2 {
        assert_eq!(s2v.len(), s1.len(), "weight split length mismatch");
    }
    match isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: variant selected only after runtime feature detection;
        // the buffer contract is asserted above.
        Isa::Avx512 | Isa::Avx512Vnni | Isa::Amx => unsafe {
            x86::fold_span_avx512(u, plane, idx0, s1, s2, p1, p2, p_inv, out)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Isa::Avx2 => unsafe { x86::fold_span_avx2(u, plane, idx0, s1, s2, p1, p2, p_inv, out) },
        _ => fold_span_scalar(u, plane, idx0, s1, s2, p1, p2, p_inv, out),
    }
}

/// Fold all residue planes into the final matrix.
///
/// * `u` — `N` UINT8 planes, plane-major, each `m*n` column-major;
/// * `exps_a` / `exps_b` — the scale exponents (`μ_i = 2^{e}`), negated here;
/// * `out` — `m*n` column-major f64.
///
/// The hot recombination runs through the dispatched [`fold_span`] kernel
/// column by column; the exact inverse diagonal scaling (line 12) is a
/// separate cheap pass over the span so the SIMD kernels stay oracle-exact
/// regardless of the per-row exponents.
#[allow(clippy::too_many_arguments)]
pub fn fold_planes(
    u: &[u8],
    m: usize,
    n: usize,
    consts: &Constants,
    precision: FoldPrecision,
    exps_a: &[i32],
    exps_b: &[i32],
    out: &mut [f64],
) {
    let plane = m * n;
    let nmod = consts.n;
    assert_eq!(u.len(), nmod * plane, "plane buffer mismatch");
    assert_eq!(out.len(), plane, "output buffer mismatch");
    assert_eq!(exps_a.len(), m);
    assert_eq!(exps_b.len(), n);
    if plane == 0 {
        return;
    }
    let (s1, s2): (&[f64], Option<&[f64]>) = match precision {
        FoldPrecision::Double => (&consts.s1, Some(&consts.s2)),
        FoldPrecision::Single => (&consts.s1_single, None),
    };
    let (p1, p2, p_inv) = (consts.p1, consts.p2, consts.p_inv);

    // Line 12: the inverse diagonal scales are powers of two, so
    // `2^{-e_i} · 2^{-e_j} · x` is a chain of exact multiplications as
    // long as every partial product stays in the normal f64 range.
    // Hoisting the factor computation to one pow2_split per row/column —
    // instead of one powi per *element* — is what keeps the scaling pass
    // far below the recombination cost. Elements whose partial exponents
    // could leave the normal range (the chain applies 2^{-e_i} before
    // 2^{-e_j}, so opposite-sign extremes can transiently under/overflow
    // even when the combined exponent is benign) take the one-shot
    // combined-exponent path instead, which is the bit-exact PR 2
    // behavior; the integer range check costs a few ALU ops per element.
    let inv_a: Vec<(f64, f64)> = exps_a.iter().map(|&e| pow2_split(-e)).collect();
    let inv_b: Vec<(f64, f64)> = exps_b.iter().map(|&e| pow2_split(-e)).collect();

    out.par_chunks_mut(m).enumerate().for_each(|(j, out_col)| {
        let col_off = j * m;
        fold_span(u, plane, col_off, s1, s2, p1, p2, p_inv, out_col);
        let (b1, b2) = inv_b[j];
        let eb = exps_b[j];
        for (o, (&ea, &(a1, a2))) in out_col.iter_mut().zip(exps_a.iter().zip(&inv_a)) {
            let x = *o;
            if x == 0.0 {
                // ±0 is preserved identically by either path (all factors
                // are positive powers of two).
                continue;
            }
            // Exponents the chained value passes through: 0 (start),
            // -e_i (after the A factors), -e_i - e_j (final). pow2_split
            // halves land inside this hull. All partials normal => every
            // multiply is exact => identical to the combined-exponent
            // form.
            let e1 = -ea;
            let e2 = e1 - eb;
            let ex = ilog2_abs(x);
            let lo = ex + e1.min(0).min(e2);
            let hi = ex + e1.max(0).max(e2);
            if lo >= -1021 && hi <= 1022 {
                *o = x * a1 * a2 * b1 * b2;
            } else {
                *o = scale_by_pow2(x, e2);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::constants;
    use gemm_exact::{CrtBasis, I256};

    /// Scalar oracle: reconstruct rmod(Σ w_i u_i, P) exactly.
    fn oracle(consts: &Constants, us: &[u8]) -> f64 {
        let basis = CrtBasis::new(&consts.p);
        let mut acc = gemm_exact::U256::ZERO;
        for (i, &uv) in us.iter().enumerate() {
            acc = acc.add(basis.weight(i).mul_u64(uv as u64));
        }
        let (_, r) = acc.div_rem(basis.p_big());
        let half = basis.p_big().half();
        if r > half {
            I256::from_u256(basis.p_big().sub(r)).neg().to_f64()
        } else {
            I256::from_u256(r).to_f64()
        }
    }

    fn fold_single_element(consts: &Constants, us: &[u8], prec: FoldPrecision) -> f64 {
        let mut u = vec![0u8; consts.n];
        u.copy_from_slice(us);
        let mut out = [0.0f64];
        fold_planes(&u, 1, 1, consts, prec, &[0], &[0], &mut out);
        out[0]
    }

    #[test]
    fn fold_matches_crt_oracle_small_n() {
        // For N <= 8 the weight splits (s1 + s2 = w exactly) leave only the
        // final fold roundings: the result is bit-exact below 2^53 and
        // within a couple of ulps above.
        for n in [2usize, 4, 6, 8] {
            let c = constants(n);
            let mut seed = 0x1234_5678u64;
            for _ in 0..200 {
                let us: Vec<u8> = (0..n)
                    .map(|s| {
                        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                        ((seed >> 33) % c.p[s]) as u8
                    })
                    .collect();
                let got = fold_single_element(c, &us, FoldPrecision::Double);
                let want = oracle(c, &us);
                if want.abs() < 2f64.powi(50) {
                    assert_eq!(got, want, "N={n} us={us:?}");
                } else {
                    let rel = ((got - want) / want).abs();
                    assert!(rel <= 4.0 * f64::EPSILON, "N={n} rel={rel}");
                }
            }
        }
    }

    #[test]
    fn fold_near_exact_large_n() {
        // For N = 15..20 the reconstruction is exact to f64 resolution:
        // the s2 truncation error (~2^-85 relative) is far below the final
        // rounding at ~2^-53.
        for n in [15usize, 18, 20] {
            let c = constants(n);
            let mut seed = 42u64;
            for _ in 0..100 {
                let us: Vec<u8> = (0..n)
                    .map(|s| {
                        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(7);
                        ((seed >> 33) % c.p[s]) as u8
                    })
                    .collect();
                let got = fold_single_element(c, &us, FoldPrecision::Double);
                let want = oracle(c, &us);
                if want != 0.0 {
                    let rel = ((got - want) / want).abs();
                    assert!(
                        rel <= 8.0 * f64::EPSILON,
                        "N={n} rel={rel} got={got} want={want}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_precision_fold_absolute_error_bound() {
        // The single-weight fold rounds each s1·u term: the absolute error
        // is bounded by N·255·ulp(max w) — the float-GEMM error model
        // (absolute error scales with Σ|terms|, not with the result).
        let c = constants(8);
        let lw_max = c.weights.iter().map(|w| w.bits()).max().unwrap() as i32;
        let bound = 8.0 * 255.0 * 2f64.powi(lw_max - 52);
        let mut seed = 77u64;
        for _ in 0..100 {
            let us: Vec<u8> = (0..8)
                .map(|s| {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(3);
                    ((seed >> 33) % c.p[s]) as u8
                })
                .collect();
            let got = fold_single_element(c, &us, FoldPrecision::Single);
            let want = oracle(c, &us);
            assert!(
                (got - want).abs() <= bound,
                "err={} bound={bound}",
                (got - want).abs()
            );
        }
    }

    #[test]
    fn fold_span_dispatched_bit_identical_to_scalar() {
        // Odd plane counts, tile-edge span lengths, offset spans, and
        // residues including the 255 maximum — the dispatched kernel must
        // equal the scalar oracle bit for bit, both precisions.
        for nmod in [2usize, 3, 5, 7, 15, 19, 20] {
            let c = constants(nmod);
            for len in [1usize, 3, 4, 7, 8, 9, 16, 33, 64] {
                for idx0 in [0usize, 1, 5] {
                    let plane = idx0 + len + 3;
                    let mut seed = (nmod * 1000 + len * 10 + idx0) as u64 | 1;
                    let u: Vec<u8> = (0..nmod * plane)
                        .map(|i| {
                            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(97);
                            let s = i / plane;
                            if i % 7 == 0 {
                                (c.p[s] - 1) as u8 // max residue
                            } else {
                                ((seed >> 33) % c.p[s]) as u8
                            }
                        })
                        .collect();
                    for single in [false, true] {
                        if single && nmod > crate::moduli::N_MAX_SGEMM {
                            continue;
                        }
                        let (s1, s2): (&[f64], Option<&[f64]>) = if single {
                            (&c.s1_single, None)
                        } else {
                            (&c.s1, Some(&c.s2))
                        };
                        let mut got = vec![0f64; len];
                        let mut want = vec![0f64; len];
                        fold_span(&u, plane, idx0, s1, s2, c.p1, c.p2, c.p_inv, &mut got);
                        fold_span_scalar(&u, plane, idx0, s1, s2, c.p1, c.p2, c.p_inv, &mut want);
                        assert_eq!(
                            got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                            want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                            "kernel={} N={nmod} len={len} idx0={idx0} single={single}",
                            fold_kernel_name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn inverse_scaling_applied() {
        let c = constants(4);
        // Layout: planes are plane-major; with m = n = 1 and N = 4, `u`
        // holds one element per plane.
        let u = vec![3u8, 3, 3, 3];
        let mut out = [0.0f64];
        fold_planes(&u, 1, 1, c, FoldPrecision::Double, &[2], &[3], &mut out);
        // All residues equal 3 => reconstructed integer is 3; scales 2^-5.
        assert_eq!(out[0], 3.0 / 32.0);
    }

    #[test]
    fn inverse_scaling_opposite_extreme_exponents_stay_exact() {
        // Regression: e_a ~ +1100 (tiny A row) with e_b ~ -1100 (huge B
        // column) has a benign combined inverse exponent of 0, but the
        // chained per-side multiplies would transiently flush 3·2^-1100
        // to zero (and the mirrored case to Inf). The range-guarded
        // fallback must keep these bit-exact.
        let c = constants(4);
        let u = vec![3u8, 3, 3, 3]; // folds to the integer 3
        for (ea, eb, want) in [
            (1100i32, -1100i32, 3.0f64),           // transient underflow
            (-1100, 1100, 3.0),                    // transient overflow
            (1100, -1090, 3.0 * 2f64.powi(-10)),   // near-cancelling
            (-40, 30, scale_by_pow2(3.0, 10)),     // plain in-range
            (540, 540, scale_by_pow2(3.0, -1080)), // genuinely subnormal
            (-30, -30, scale_by_pow2(3.0, 60)),    // in-range growth
        ] {
            let mut out = [0.0f64];
            fold_planes(&u, 1, 1, c, FoldPrecision::Double, &[ea], &[eb], &mut out);
            assert_eq!(
                out[0].to_bits(),
                want.to_bits(),
                "ea={ea} eb={eb}: got {} want {want}",
                out[0]
            );
        }
    }

    #[test]
    fn zero_planes_give_zero() {
        let c = constants(5);
        let u = vec![0u8; 5 * 6];
        let mut out = [0.0f64; 6];
        fold_planes(
            &u,
            2,
            3,
            c,
            FoldPrecision::Double,
            &[0, 0],
            &[0, 0, 0],
            &mut out,
        );
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn negative_values_reconstruct() {
        // Residues of x = -7 must fold back to -7.
        let c = constants(6);
        let us: Vec<u8> =
            c.p.iter()
                .map(|&p| ((-7i64).rem_euclid(p as i64)) as u8)
                .collect();
        let got = fold_single_element(c, &us, FoldPrecision::Double);
        assert_eq!(got, -7.0);
    }
}
