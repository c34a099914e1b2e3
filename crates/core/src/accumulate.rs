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
//! C'' = fma(-P1, Q, C'⁽¹⁾) + fma(-P2, Q, C'⁽²⁾)
//! ```
//!
//! subtracts the unique multiple of `P` (double-double `P1 + P2`), leaving
//! `C'' ≈ rmod(A'B', P) = A'B'` by the uniqueness condition (3).
//!
//! Line 12, the inverse diagonal scaling `2^{-e_i}·2^{-e_j}`, is exact
//! (powers of two) and runs per output column right after its fold, while
//! the column is in cache. It is a dispatched kernel too: one vector pass
//! checks that every lane is zero or keeps each partial product of the
//! chain `x·a1·a2·b1·b2` (the `pow2_split` halves of both factors) in the
//! normal range, and then applies that chain as one vector loop — the
//! same expression, so the same bits. A column that fails the check, say
//! one whose row exponents near ±1022 overflow or underflow a partial,
//! or whose results are subnormal, runs the per-element loop, which takes
//! the one-shot combined exponent where the chain would not be exact.
//!
//! The hot recombination is one portable span kernel, [`fold_span`], run
//! through [`gemm_engine::dispatch`] like the convert kernels: LLVM
//! compiles it for AVX-512, AVX2+FMA and the baseline target, widening
//! residues u8 → f64 in vector lanes and accumulating with fused
//! multiply-adds over 16-lane chunks. The lane-at-a-time loop
//! [`fold_span_scalar`] is its bit-exact lane oracle (and its tail):
//! every operation (FMA-weighted accumulation, round-to-nearest-even
//! quotient, the `P1`/`P2` FMA chain) is the same, in the same order, so
//! no level can diverge lane for lane. Three deliberate deviations from
//! the PR 2 scalar fold, all documented in `docs/ARCHITECTURE.md`:
//!
//! * the weighted accumulation uses FMA (`s·u + c` fused) instead of
//!   multiply-then-add. The exact `C'⁽¹⁾` sum is unchanged (every term is
//!   exact either way); the `C'⁽²⁾` correction gets *more* accurate (one
//!   rounding per term instead of two);
//! * the quotient rounding `Q = round(P_inv · C'⁽¹⁾)` is ties-to-even, the
//!   mode the vector units implement natively. Any nearest rounding keeps
//!   the fold correct (the uniqueness condition keeps `C'⁽¹⁾/P` away from
//!   half-integers); RNE is what makes every level bit-identical;
//! * line 11 adds the two corrections as `fma(-P1, Q, C'⁽¹⁾) +
//!   fma(-P2, Q, C'⁽²⁾)` instead of `fma(-P2, Q, fma(-P1, Q, C'⁽¹⁾) +
//!   C'⁽²⁾)`. The paper's order rounds twice at the result's magnitude
//!   (the inner `+` and the outer FMA), which left an integer product of
//!   −1024 as −1023.9999999999999 at N = 10. Here the first term is exact
//!   for N ≤ 10 and the second is small, so only the final `+` rounds at
//!   the result's magnitude. The single-weight SGEMM fold (`C'⁽²⁾ = 0`)
//!   keeps the paper's order, which already rounds once there.

use crate::consts::Constants;
use crate::scale::{ilog2_abs, pow2_split, scale_by_pow2};
use gemm_engine::{dispatch, dispatch_name, Kernel};
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
// The fold span kernel (runtime-dispatched)
// ---------------------------------------------------------------------------

/// Lanes per chunk of [`fold_span`]'s body: 16 accumulators per weight
/// split, two AVX-512 or four AVX2 registers each.
const FOLD_LANES: usize = 16;

/// Name of the level the fold span kernel runs at on this thread (see
/// [`gemm_engine::dispatch_name`]).
pub fn fold_kernel_name() -> &'static str {
    dispatch_name()
}

/// Line 11 for one lane: the quotient `Q` and the `P1`/`P2` corrections,
/// added as two FMAs for the double-weight split (one rounding at the
/// result's magnitude, see the module docs) and chained for the single.
#[inline(always)]
fn fold_lane(c1: f64, c2: f64, p1: f64, p2: f64, p_inv: f64, double: bool) -> f64 {
    let q = (p_inv * c1).round_ties_even();
    if double {
        q.mul_add(-p1, c1) + q.mul_add(-p2, c2)
    } else {
        q.mul_add(-p2, q.mul_add(-p1, c1) + c2)
    }
}

/// Scalar fold span kernel — the lane oracle. For each lane `l`, fold the
/// `N = s1.len()` residues at `u[s * plane + idx0 + l]` into the *unscaled*
/// `C''` value (line 12's inverse scaling is applied by the caller).
///
/// `s2 = Some` selects the DGEMM double-double weight split, `None` the
/// SGEMM single-weight fold.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
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
        *o = fold_lane(c1, c2, p1, p2, p_inv, s2.is_some());
    }
}

/// [`fold_span`]'s arguments, bound for [`dispatch`]. Its body is larger
/// than LLVM inlines a closure, so it is a [`Kernel`] with an
/// `#[inline(always)]` `run`.
struct FoldSpan<'a> {
    u: &'a [u8],
    plane: usize,
    idx0: usize,
    s1: &'a [f64],
    s2: Option<&'a [f64]>,
    p: [f64; 3],
    out: &'a mut [f64],
}

impl Kernel for FoldSpan<'_> {
    type Out = ();

    /// [`fold_span_scalar`]'s per-lane operations, in the same order, over
    /// [`FOLD_LANES`]-lane chunks with one accumulator per lane (a shape
    /// LLVM vectorizes), and the oracle itself on the tail.
    #[inline(always)]
    fn run(self) {
        let FoldSpan {
            u,
            plane,
            idx0,
            s1,
            s2,
            p: [p1, p2, p_inv],
            out,
        } = self;
        let body = out.len() / FOLD_LANES * FOLD_LANES;
        let (head, tail) = out.split_at_mut(body);
        for (chunk, o) in head.chunks_exact_mut(FOLD_LANES).enumerate() {
            let l0 = idx0 + chunk * FOLD_LANES;
            let lanes = |s: usize| -> &[u8; FOLD_LANES] {
                u[s * plane + l0..s * plane + l0 + FOLD_LANES]
                    .try_into()
                    .expect("the range is FOLD_LANES long")
            };
            let (mut c1, mut c2) = ([0.0f64; FOLD_LANES], [0.0f64; FOLD_LANES]);
            match s2 {
                Some(s2v) => {
                    for (s, (&w1, &w2)) in s1.iter().zip(s2v).enumerate() {
                        for (l, &x) in lanes(s).iter().enumerate() {
                            c1[l] = w1.mul_add(x as f64, c1[l]); // exact by construction
                            c2[l] = w2.mul_add(x as f64, c2[l]);
                        }
                    }
                }
                None => {
                    for (s, &w1) in s1.iter().enumerate() {
                        for (l, &x) in lanes(s).iter().enumerate() {
                            c1[l] = w1.mul_add(x as f64, c1[l]);
                        }
                    }
                }
            }
            for (l, o) in o.iter_mut().enumerate() {
                *o = fold_lane(c1[l], c2[l], p1, p2, p_inv, s2.is_some());
            }
        }
        fold_span_scalar(u, plane, idx0 + body, s1, s2, p1, p2, p_inv, tail);
    }
}

/// Vectorized fold over a contiguous span: [`fold_span_scalar`]'s lane
/// operations in 16-lane chunks, run through [`dispatch`], so
/// it is bit-identical to the oracle at every level.
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
    dispatch(FoldSpan {
        u,
        plane,
        idx0,
        s1,
        s2,
        p: [p1, p2, p_inv],
        out,
    });
}

// ---------------------------------------------------------------------------
// Line 12: the inverse diagonal scaling (runtime-dispatched)
// ---------------------------------------------------------------------------

/// Whether `x · 2^{-e_a} · 2^{-e_b}`, chained as per-side factors, keeps
/// every partial product normal, so that each multiply is exact: `x` is
/// zero (preserved by any chain of positive powers of two), or the
/// exponents the value passes through (its own, after the `A` factors,
/// final) stay in `[-1021, 1022]`, which also holds the `pow2_split`
/// halves. A subnormal `x` reads as exponent −1023 here and fails, as
/// does a non-finite one. Computed in i64 so no exponent pair overflows.
#[inline(always)]
fn in_normal_hull(x: f64, ea: i32, eb: i32) -> bool {
    let e1 = -(ea as i64);
    let e2 = e1 - eb as i64;
    let ex = ((x.to_bits() >> 52) & 0x7ff) as i64 - 1023;
    x == 0.0 || (ex + e1.min(0).min(e2) >= -1021 && ex + e1.max(0).max(e2) <= 1022)
}

/// Line 12 on one output column, element by element — the oracle of
/// [`InverseScaleCol`], and its path for a column that leaves the normal
/// hull: the chained factors `x·a1·a2·b1·b2` where every partial stays
/// normal, else the one-shot combined exponent [`scale_by_pow2`].
fn inverse_scale_col_scalar(
    col: &mut [f64],
    exps_a: &[i32],
    inv_a: (&[f64], &[f64]),
    eb: i32,
    (b1, b2): (f64, f64),
) {
    for (o, ((&ea, &a1), &a2)) in col.iter_mut().zip(exps_a.iter().zip(inv_a.0).zip(inv_a.1)) {
        let x = *o;
        if x == 0.0 {
            continue;
        }
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
}

/// Line 12 on one output column, bound for [`dispatch`]: one vector pass
/// checks that every lane is in the normal hull ([`in_normal_hull`]);
/// then the column is the same chained product as a vector loop, so its
/// bits equal [`inverse_scale_col_scalar`]'s, which runs otherwise.
struct InverseScaleCol<'a> {
    col: &'a mut [f64],
    exps_a: &'a [i32],
    inv_a: (&'a [f64], &'a [f64]),
    eb: i32,
    inv_b: (f64, f64),
}

impl Kernel for InverseScaleCol<'_> {
    type Out = ();

    #[inline(always)]
    fn run(self) {
        let InverseScaleCol {
            col,
            exps_a,
            inv_a,
            eb,
            inv_b,
        } = self;
        let in_hull = col
            .iter()
            .zip(exps_a)
            .fold(true, |ok, (&x, &ea)| ok & in_normal_hull(x, ea, eb));
        if !in_hull {
            return inverse_scale_col_scalar(col, exps_a, inv_a, eb, inv_b);
        }
        let (b1, b2) = inv_b;
        for (o, (&a1, &a2)) in col.iter_mut().zip(inv_a.0.iter().zip(inv_a.1)) {
            *o = *o * a1 * a2 * b1 * b2;
        }
    }
}

/// Tasks per worker of [`fold_planes`]' column split: enough to balance,
/// few enough that the pool's per-task cost stays out of the profile.
const FOLD_TASKS_PER_WORKER: usize = 4;

/// Fold all residue planes into the final matrix.
///
/// * `u` — `N` UINT8 planes, plane-major, each `m*n` column-major;
/// * `exps_a` / `exps_b` — the scale exponents (`μ_i = 2^{e}`), negated here;
/// * `parallel` — split the columns over the worker pool in a few
///   contiguous chunks per worker (`false`: run them all on the calling
///   thread; the output is identical);
/// * `out` — `m*n` column-major f64.
///
/// Per column, the dispatched [`fold_span`] kernel recombines the
/// residues and the dispatched line-12 kernel applies the exact inverse
/// diagonal scaling as a separate pass over the column, so the fold
/// kernel stays oracle-exact whatever the per-row exponents.
#[allow(clippy::too_many_arguments)]
pub fn fold_planes(
    u: &[u8],
    m: usize,
    n: usize,
    consts: &Constants,
    precision: FoldPrecision,
    exps_a: &[i32],
    exps_b: &[i32],
    parallel: bool,
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

    // Line 12: the inverse diagonal scales are powers of two, hoisted to
    // one pow2_split per row and per column instead of one powi per
    // element.
    let (inv_a1, inv_a2): (Vec<f64>, Vec<f64>) = exps_a.iter().map(|&e| pow2_split(-e)).unzip();

    let workers = if parallel {
        rayon::current_num_threads()
    } else {
        1
    };
    let cols = n.div_ceil(workers * FOLD_TASKS_PER_WORKER);
    let fold_cols = |(t, chunk): (usize, &mut [f64])| {
        for (jj, out_col) in chunk.chunks_mut(m).enumerate() {
            let j = t * cols + jj;
            fold_span(u, plane, j * m, s1, s2, p1, p2, p_inv, out_col);
            dispatch(InverseScaleCol {
                col: out_col,
                exps_a,
                inv_a: (&inv_a1, &inv_a2),
                eb: exps_b[j],
                inv_b: pow2_split(-exps_b[j]),
            });
        }
    };
    if parallel && cols < n {
        out.par_chunks_mut(cols * m).enumerate().for_each(fold_cols);
    } else {
        out.chunks_mut(cols * m).enumerate().for_each(fold_cols);
    }
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
        fold_planes(&u, 1, 1, consts, prec, &[0], &[0], true, &mut out);
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
        // Odd plane counts, chunk-edge span lengths, offset spans, and
        // residues including the 255 maximum — the dispatched kernel must
        // equal the scalar oracle bit for bit, both precisions, every level.
        gemm_engine::for_each_level("fold_span_dispatched_bit_identical_to_scalar", |level| {
            for nmod in [2usize, 3, 5, 7, 15, 19, 20] {
                let c = constants(nmod);
                for len in [1usize, 3, 4, 7, 8, 9, 15, 16, 17, 33, 64] {
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
                            let p = (c.p1, c.p2, c.p_inv);
                            let mut got = vec![0f64; len];
                            let mut want = vec![0f64; len];
                            fold_span(&u, plane, idx0, s1, s2, p.0, p.1, p.2, &mut got);
                            fold_span_scalar(&u, plane, idx0, s1, s2, p.0, p.1, p.2, &mut want);
                            assert_eq!(
                                got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                                want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                                "{level:?} N={nmod} len={len} idx0={idx0} single={single}"
                            );
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn inverse_scaling_applied() {
        let c = constants(4);
        // Layout: planes are plane-major; with m = n = 1 and N = 4, `u`
        // holds one element per plane.
        let u = vec![3u8, 3, 3, 3];
        let mut out = [0.0f64];
        fold_planes(
            &u,
            1,
            1,
            c,
            FoldPrecision::Double,
            &[2],
            &[3],
            true,
            &mut out,
        );
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
            fold_planes(
                &u,
                1,
                1,
                c,
                FoldPrecision::Double,
                &[ea],
                &[eb],
                true,
                &mut out,
            );
            assert_eq!(
                out[0].to_bits(),
                want.to_bits(),
                "ea={ea} eb={eb}: got {} want {want}",
                out[0]
            );
        }
    }

    #[test]
    fn inverse_scale_col_dispatched_bit_identical_to_elementwise() {
        // A column whose lanes all stay in the normal hull takes the
        // vector path; one that mixes them with lanes whose partials leave
        // it (row exponents near ±1022 and past them, transient overflow
        // and underflow, subnormal results) takes the element loop. Both
        // must equal the element loop bit for bit, at every level.
        gemm_engine::for_each_level(
            "inverse_scale_col_dispatched_bit_identical_to_elementwise",
            |level| {
                for m in [1usize, 7, 16, 33, 100] {
                    for mixed in [false, true] {
                        let extremes = [1060, -1000, 1022, -1022, 540, 1100];
                        let exps_a: Vec<i32> = (0..m)
                            .map(|i| {
                                if mixed && i % 3 == 1 {
                                    extremes[i / 3 % extremes.len()]
                                } else {
                                    (i as i32 * 7) % 81 - 40
                                }
                            })
                            .collect();
                        let col: Vec<f64> = (0..m)
                            .map(|i| match i % 5 {
                                0 => 0.0,
                                3 => -0.0,
                                _ => {
                                    let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                                    sign * (i as f64 + 0.5)
                                        * scale_by_pow2(1.0, (i as i32 * 13) % 50 - 25)
                                }
                            })
                            .collect();
                        let (a1, a2): (Vec<f64>, Vec<f64>) =
                            exps_a.iter().map(|&e| pow2_split(-e)).unzip();
                        let ebs: &[i32] = if mixed {
                            &[-1100, -1000, -30, 0, 25, 540, 1000]
                        } else {
                            &[-30, 0, 25]
                        };
                        for &eb in ebs {
                            let hull = col
                                .iter()
                                .zip(&exps_a)
                                .all(|(&x, &ea)| in_normal_hull(x, ea, eb));
                            if !mixed {
                                assert!(hull, "m={m} eb={eb}: the vector path should run");
                            }
                            if mixed && m > 1 {
                                assert!(!hull, "m={m} eb={eb}: the element loop should run");
                            }
                            let mut want = col.clone();
                            inverse_scale_col_scalar(
                                &mut want,
                                &exps_a,
                                (&a1, &a2),
                                eb,
                                pow2_split(-eb),
                            );
                            let mut got = col.clone();
                            dispatch(InverseScaleCol {
                                col: &mut got,
                                exps_a: &exps_a,
                                inv_a: (&a1, &a2),
                                eb,
                                inv_b: pow2_split(-eb),
                            });
                            assert_eq!(
                                got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                                want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                                "{level:?} m={m} mixed={mixed} eb={eb}"
                            );
                            for (i, (&x, &w)) in col.iter().zip(&want).enumerate() {
                                if x == 0.0 {
                                    assert_eq!(w.to_bits(), x.to_bits(), "lane {i}: ±0 kept");
                                    continue;
                                }
                                assert_eq!(
                                    w.to_bits(),
                                    scale_by_pow2(x, -exps_a[i] - eb).to_bits(),
                                    "element loop deviates from the combined exponent: lane {i}"
                                );
                            }
                        }
                    }
                }
            },
        );
    }

    #[test]
    fn fold_planes_column_split_is_bit_identical() {
        // The parallel column split (a few chunks per worker, a ragged
        // last chunk) gives the serial fold's bits.
        let c = constants(7);
        let (m, n) = (5usize, 37usize);
        let mut seed = 11u64;
        let u: Vec<u8> = (0..c.n * m * n)
            .map(|i| {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(5);
                ((seed >> 33) % c.p[i / (m * n)]) as u8
            })
            .collect();
        let exps_a: Vec<i32> = (0..m as i32).map(|i| 3 * i - 7).collect();
        let exps_b: Vec<i32> = (0..n as i32).map(|j| j % 9 - 4).collect();
        let fold = |parallel| {
            let mut out = vec![0.0f64; m * n];
            fold_planes(
                &u,
                m,
                n,
                c,
                FoldPrecision::Double,
                &exps_a,
                &exps_b,
                parallel,
                &mut out,
            );
            out.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(fold(true), fold(false));
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
            true,
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
