//! Line 7 of Algorithm 1: `U_i = mod(C'_i, p_i)` as UINT8 planes.
//!
//! The integer `%` operator is slow on GPUs (and not vectorised well on
//! CPUs), so the paper replaces it with a `__mulhi`-based Barrett-style
//! reduction using the precomputed reciprocal `p_inv' = ⌊2^32/p⌋ - 1`,
//! followed by two conditional fix-ups. `mod` (truncation semantics) is
//! used instead of `rmod` because integer arithmetic truncates; the CRT
//! weights absorb the representative choice.

use rayon::prelude::*;

/// `x mod p ∈ [0, p)` for any `i32 x`, via high-multiply estimate plus two
/// conditional corrections (`q` can be off by at most one in each
/// direction across the full i32 range — see the exhaustive boundary test).
///
/// The actual arithmetic lives in [`gemm_engine::barrett_mod_u8`] so the
/// engine's fused GEMM epilogues and this standalone kernel cannot drift
/// apart.
#[inline]
pub fn mod_i32_to_u8(x: i32, p: i32, pinv: u32) -> u8 {
    gemm_engine::barrett_mod_u8(x, p, pinv)
}

/// Reduce one INT32 product plane into a UINT8 residue plane.
pub fn reduce_plane(c32: &[i32], p: u64, pinv: u32, out: &mut [u8]) {
    assert_eq!(c32.len(), out.len());
    let p = p as i32;
    out.par_chunks_mut(16 * 1024)
        .zip(c32.par_chunks(16 * 1024))
        .for_each(|(dst, src)| {
            for (d, &x) in dst.iter_mut().zip(src) {
                *d = mod_i32_to_u8(x, p, pinv);
            }
        });
}

/// Accumulate residue planes across `k`-blocks (used when `k > 2^17`):
/// `acc += mod(C'_blk, p)` stays far below i32 overflow as long as the
/// number of blocks is < 2^23.
pub fn accumulate_block_residues(c32: &[i32], p: u64, pinv: u32, acc: &mut [i32]) {
    assert_eq!(c32.len(), acc.len());
    let p = p as i32;
    acc.par_chunks_mut(16 * 1024)
        .zip(c32.par_chunks(16 * 1024))
        .for_each(|(dst, src)| {
            for (d, &x) in dst.iter_mut().zip(src) {
                *d += mod_i32_to_u8(x, p, pinv) as i32;
            }
        });
}

/// Final reduction of accumulated block residues into UINT8.
pub fn finalize_block_residues(acc: &[i32], p: u64, pinv: u32, out: &mut [u8]) {
    reduce_plane(acc, p, pinv, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moduli::MODULI;

    fn pinv(p: u64) -> u32 {
        ((1u64 << 32) / p - 1) as u32
    }

    #[test]
    fn matches_rem_euclid_sampled() {
        for &p in &MODULI {
            let pi = pinv(p);
            let mut x = i32::MIN as i64;
            while x <= i32::MAX as i64 {
                let v = x as i32;
                assert_eq!(
                    mod_i32_to_u8(v, p as i32, pi) as i64,
                    (v as i64).rem_euclid(p as i64),
                    "x={v} p={p}"
                );
                x += 104_729; // large prime stride: ~41k samples per modulus
            }
        }
    }

    #[test]
    fn matches_rem_euclid_boundaries() {
        for &p in &MODULI {
            let pi = pinv(p);
            for &v in &[
                i32::MIN,
                i32::MIN + 1,
                -(p as i32) * 7,
                -(p as i32) - 1,
                -(p as i32),
                -1,
                0,
                1,
                p as i32 - 1,
                p as i32,
                p as i32 + 1,
                i32::MAX - 1,
                i32::MAX,
            ] {
                assert_eq!(
                    mod_i32_to_u8(v, p as i32, pi) as i64,
                    (v as i64).rem_euclid(p as i64),
                    "x={v} p={p}"
                );
            }
        }
    }

    #[test]
    fn exhaustive_small_window_every_modulus() {
        for &p in &MODULI {
            let pi = pinv(p);
            for v in -100_000i32..100_000 {
                assert_eq!(
                    mod_i32_to_u8(v, p as i32, pi) as i64,
                    (v as i64).rem_euclid(p as i64),
                    "x={v} p={p}"
                );
            }
        }
    }

    #[test]
    fn block_accumulation_matches_direct() {
        let p = 251u64;
        let pi = pinv(p);
        // Two "blocks" of products; their residue sums reduce to the same
        // residue as the (unwrapped) total.
        let blk1 = [1000i32, -500, 123456, i32::MAX / 2];
        let blk2 = [2000i32, -700, -123456, i32::MAX / 2];
        let mut acc = vec![0i32; 4];
        accumulate_block_residues(&blk1, p, pi, &mut acc);
        accumulate_block_residues(&blk2, p, pi, &mut acc);
        let mut out = vec![0u8; 4];
        finalize_block_residues(&acc, p, pi, &mut out);
        for i in 0..4 {
            let total = blk1[i] as i64 + blk2[i] as i64;
            assert_eq!(out[i] as i64, total.rem_euclid(p as i64), "i={i}");
        }
    }
}
