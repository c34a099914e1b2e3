//! Precomputed constant tables (§4.1, Fig. 2).
//!
//! For each supported `N` the emulation needs, all derived exactly from the
//! moduli with 256-bit integer arithmetic at first use and cached:
//!
//! * `P = Π p_i` as a double-double (`P1`, `P2`) and its reciprocal `P_inv`;
//! * the CRT weights `w_i = (P/p_i)·q_i` split as `s_i1 + s_i2`, where
//!   `s_i1` keeps only the top `β_i` bits so that **all `s_i1` share one
//!   common ulp** — that alignment is what makes the hot accumulation
//!   `Σ s_i1 U_i` exact in f64 (§4.3);
//! * the scale budgets `P'_fast`, `P'_accu` (see docs/ARCHITECTURE.md on the per-side
//!   halving of the printed formulas);
//! * fast-division reciprocals `p_inv` in f64, f32 and the `⌊2^32/p⌋ - 1`
//!   integer form used by the `__mulhi` modulo kernel.

use crate::moduli::{moduli, N_MAX};
use gemm_exact::{CrtBasis, Dd, I256, U256};
use std::sync::OnceLock;

/// Ceiling of log2 for positive integers.
#[inline]
pub fn ceil_log2(n: usize) -> u32 {
    debug_assert!(n >= 1);
    usize::BITS - (n - 1).leading_zeros()
}

/// Everything Algorithm 1 needs for a given number of moduli `N`.
#[derive(Clone, Debug)]
pub struct Constants {
    /// Number of moduli.
    pub n: usize,
    /// The moduli `p_1..p_N`.
    pub p: Vec<u64>,
    /// Exact product `P`.
    pub p_big: U256,
    /// Leading double of `P`.
    pub p1: f64,
    /// Trailing double: `P = P1 + P2` as a double-double.
    pub p2: f64,
    /// `double(1/P)`.
    pub p_inv: f64,
    /// Per-side fast-mode exponent budget (`(log2(P-1) - 1.5) / 2`).
    pub p_fast: f64,
    /// Per-side accurate-mode exponent budget (`(log2(P-1) - 1.0) / 2`).
    pub p_accu: f64,
    /// Bit budgets `β_i` for the `s_i1` truncation.
    pub beta: Vec<u32>,
    /// DGEMM weight splits: `s_i1` (top `β_i` bits of `w_i`, common ulp).
    pub s1: Vec<f64>,
    /// DGEMM weight splits: `s_i2` ≈ `w_i - s_i1` (53 bits).
    pub s2: Vec<f64>,
    /// SGEMM weights: `double(w_i)` (used with `s2 = 0`, `P2 = 0`).
    pub s1_single: Vec<f64>,
    /// `double(1/p_i)`.
    pub p_inv_f64: Vec<f64>,
    /// `single(1/p_i)`.
    pub p_inv_f32: Vec<f32>,
    /// `⌊2^32/p_i⌋ - 1` for the `__mulhi` integer modulo.
    pub p_inv_u32: Vec<u32>,
    /// Moduli as f64 (for the FMA kernels).
    pub p_f64: Vec<f64>,
    /// Moduli as f32.
    pub p_f32: Vec<f32>,
    /// Exact CRT weights (oracle / tests).
    pub weights: Vec<U256>,
}

impl Constants {
    fn build(n: usize) -> Constants {
        let p = moduli(n).to_vec();
        let basis = CrtBasis::new(&p);
        let p_big = basis.p_big();
        let weights: Vec<U256> = (0..n).map(|i| basis.weight(i)).collect();

        // P as a double-double: P1 = RNE(P), P2 = RNE(P - P1) computed
        // exactly in 256-bit arithmetic.
        let p1 = p_big.to_f64();
        let p2 = {
            let diff = I256::from_u256(p_big).sub(I256::from_f64_exact(p1));
            diff.to_f64()
        };
        // 1/P rounded via double-double division (error far below 0.5 ulp
        // of the double result for these magnitudes).
        let p_inv = Dd::from_f64(1.0).div(Dd::renorm(p1, p2)).to_f64();

        // log2(P - 1) (P >= 2^15 here, so the -1 is invisible at f64
        // precision; keep it for fidelity to the paper's formula).
        let log2_p_minus1 = {
            let pm1 = p_big.sub(U256::ONE);
            pm1.to_f64().log2()
        };
        let p_fast = 0.5 * (log2_p_minus1 - 1.5);
        let p_accu = 0.5 * (log2_p_minus1 - 1.0);

        // β_i = 53 - 8 - ⌈log2 N⌉ + ⌊log2 w_i⌋ - ⌊log2 max_j w_j⌋.
        let lw: Vec<u32> = weights.iter().map(|w| w.bits() - 1).collect();
        let lw_max = *lw.iter().max().expect("n >= 2");
        let cl2 = ceil_log2(n);
        let beta: Vec<u32> = lw
            .iter()
            .map(|&l| {
                let b = 53i64 - 8 - cl2 as i64 + l as i64 - lw_max as i64;
                assert!(b > 0, "β must stay positive");
                b as u32
            })
            .collect();

        let mut s1 = Vec::with_capacity(n);
        let mut s2 = Vec::with_capacity(n);
        for (w, &b) in weights.iter().zip(&beta) {
            let head = w.truncate_top_bits(b);
            let tail = w.sub(head);
            let s1v = head.to_f64();
            // head has <= β <= 53 significant bits: conversion is exact.
            debug_assert_eq!(U256::from_u64(0), {
                let back = I256::from_f64_exact(s1v);
                I256::from_u256(head).sub(back).abs_u256()
            });
            s1.push(s1v);
            s2.push(tail.to_f64());
        }
        let s1_single: Vec<f64> = weights.iter().map(|w| w.to_f64()).collect();

        let p_inv_f64: Vec<f64> = p.iter().map(|&pi| 1.0 / pi as f64).collect();
        let p_inv_f32: Vec<f32> = p.iter().map(|&pi| 1.0 / pi as f32).collect();
        let p_inv_u32: Vec<u32> = p.iter().map(|&pi| ((1u64 << 32) / pi - 1) as u32).collect();
        let p_f64: Vec<f64> = p.iter().map(|&pi| pi as f64).collect();
        let p_f32: Vec<f32> = p.iter().map(|&pi| pi as f32).collect();

        Constants {
            n,
            p,
            p_big,
            p1,
            p2,
            p_inv,
            p_fast,
            p_accu,
            beta,
            s1,
            s2,
            s1_single,
            p_inv_f64,
            p_inv_f32,
            p_inv_u32,
            p_f64,
            p_f32,
            weights,
        }
    }
}

/// Cached constants for `n ∈ 2..=20` (built on first use).
pub fn constants(n: usize) -> &'static Constants {
    static TABLES: OnceLock<Vec<Constants>> = OnceLock::new();
    let tables = TABLES.get_or_init(|| (2..=N_MAX).map(Constants::build).collect());
    assert!((2..=N_MAX).contains(&n), "N must be in 2..=20, got {n}");
    &tables[n - 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
        assert_eq!(ceil_log2(20), 5);
    }

    #[test]
    fn p1_p2_reconstruct_p_to_dd_accuracy() {
        // P has up to ~156 bits; a double-double holds ~106, so P1 + P2
        // approximates P with relative error below 2^-104.
        for n in 2..=N_MAX {
            let c = constants(n);
            let back = I256::from_f64_exact(c.p1).add(I256::from_f64_exact(c.p2));
            let diff = back.sub(I256::from_u256(c.p_big)).abs_u256();
            let bound_bits = c.p_big.bits().saturating_sub(104);
            assert!(
                diff.bits() <= bound_bits.max(1),
                "N={n}: |P1+P2-P| has {} bits, P has {}",
                diff.bits(),
                c.p_big.bits()
            );
            // For small N the DD is exact.
            if c.p_big.bits() <= 106 {
                assert!(diff.is_zero(), "N={n} should be exact");
            }
        }
    }

    #[test]
    fn p_inv_is_accurate() {
        for n in 2..=N_MAX {
            let c = constants(n);
            let err = (c.p_inv * c.p_big.to_f64() - 1.0).abs();
            assert!(err < 1e-15, "N={n} err={err}");
        }
    }

    #[test]
    fn s1_plus_s2_approximates_weight() {
        for n in 2..=N_MAX {
            let c = constants(n);
            for i in 0..n {
                let w = c.weights[i].to_f64();
                let rel = ((c.s1[i] + c.s2[i]) - w).abs() / w;
                // s1 + s2 carries ~beta + 53 >= 85 bits of w.
                assert!(rel < 1e-24, "N={n} i={i} rel={rel}");
            }
        }
    }

    #[test]
    fn accumulation_sum_is_exact_in_f64() {
        // The design contract of β_i (Fig. 2): expressed over the common
        // ruler (the largest power of two dividing every s_i1), the total
        // Σ 255·s_i1 must fit in 53 bits, so Σ s_i1·U_i never rounds.
        for n in 2..=N_MAX {
            let c = constants(n);
            let ints: Vec<U256> =
                c.s1.iter()
                    .map(|&s| I256::from_f64_exact(s).abs_u256())
                    .collect();
            let ruler = ints.iter().map(|w| w.trailing_zeros()).min().unwrap();
            let mut total = U256::ZERO;
            for w in &ints {
                total = total.add(w.shr(ruler).mul_u64(255));
            }
            assert!(
                total.bits() <= 53,
                "N={n}: Σ 255·s1/ruler needs {} bits",
                total.bits()
            );
        }
    }

    #[test]
    fn s1_truncation_keeps_top_beta_bits() {
        // s_i1 must equal w_i with everything below the top β_i bits
        // cleared — and therefore be exactly representable in f64.
        for n in [2usize, 8, 15, 20] {
            let c = constants(n);
            for i in 0..n {
                let head = c.weights[i].truncate_top_bits(c.beta[i]);
                assert_eq!(
                    I256::from_f64_exact(c.s1[i]).abs_u256(),
                    head,
                    "N={n} i={i}"
                );
            }
        }
    }

    #[test]
    fn weights_match_crt_oracle() {
        let c = constants(5);
        for (i, &pi) in c.p.iter().enumerate() {
            assert_eq!(c.weights[i].rem_u64(pi), 1);
            for (j, &pj) in c.p.iter().enumerate() {
                if i != j {
                    assert_eq!(c.weights[i].rem_u64(pj), 0);
                }
            }
        }
    }

    #[test]
    fn budgets_are_consistent() {
        for n in 2..=N_MAX {
            let c = constants(n);
            assert!(c.p_fast < c.p_accu, "fast budget must be tighter");
            // 2^(2*p_fast + 1) < P must hold — it is the uniqueness bound.
            let log2p = c.p_big.to_f64().log2();
            assert!(2.0 * c.p_fast + 1.0 < log2p);
            assert!(2.0 * c.p_accu + 1.0 <= log2p + 1e-9);
        }
    }

    #[test]
    fn mulhi_reciprocals() {
        for n in [2, 10, N_MAX] {
            let c = constants(n);
            for (i, &pi) in c.p.iter().enumerate() {
                assert_eq!(c.p_inv_u32[i] as u64, (1u64 << 32) / pi - 1);
                // `gemm_engine::barrett_mod_u8` sign-extends the
                // reciprocal, which equals zero-extending only below 2^31.
                assert!(c.p_inv_u32[i] < 1 << 31, "p={pi}");
            }
        }
    }

    /// Assert `gemm_engine::barrett_mod_u8` (the line-7 reduction every
    /// engine epilogue and the k-blocked finalize run) equals `rem_euclid`
    /// at `x` for every modulus of the pool, with the pipeline's
    /// reciprocals.
    fn assert_barrett_mod(x: i32) {
        let c = constants(N_MAX);
        for (&p, &pinv) in c.p.iter().zip(&c.p_inv_u32) {
            assert_eq!(
                gemm_engine::barrett_mod_u8(x, p as i32, pinv) as i64,
                (x as i64).rem_euclid(p as i64),
                "x={x} p={p}"
            );
        }
    }

    #[test]
    fn barrett_mod_matches_rem_euclid_sampled() {
        // Large prime stride: ~41k samples across the full i32 range.
        for x in (i32::MIN as i64..=i32::MAX as i64).step_by(104_729) {
            assert_barrett_mod(x as i32);
        }
    }

    #[test]
    fn barrett_mod_matches_rem_euclid_boundaries() {
        for &x in &[i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX - 1, i32::MAX] {
            assert_barrett_mod(x);
        }
        for &p in constants(N_MAX).p.iter() {
            let p = p as i32;
            for x in [-p * 7, -p - 1, -p, p - 1, p, p + 1] {
                assert_barrett_mod(x);
            }
        }
    }

    #[test]
    fn barrett_mod_exhaustive_small_window_every_modulus() {
        for x in -100_000i32..100_000 {
            assert_barrett_mod(x);
        }
    }
}
