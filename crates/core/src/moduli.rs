//! The fixed moduli table (§4.1).
//!
//! Pairwise-coprime integers `p_i ≤ 256`, descending, chosen greedily so
//! every prefix product `P(N) = Π_{i<N} p_i` is maximal — larger `P` means
//! less truncation in Step 2 and therefore better accuracy per modulus.
//! Each `rmod(·, p_i)` lands in `[-p_i/2, p_i/2] ⊆ [-128, 128]`; the single
//! boundary value `+128` (only possible for `p_1 = 256`) wraps to `-128` on
//! the INT8 cast, which is harmless because `128 ≡ -128 (mod 256)`.

/// Maximum number of moduli supported (the paper caps its tables at 20).
pub const N_MAX: usize = 20;

/// Maximum moduli for the SGEMM (`b = 32`) conversion kernel (§4.2).
pub const N_MAX_SGEMM: usize = 18;

/// The moduli pool: `256 = 2^8`, then the greedy maximal pairwise-coprime
/// descent. Factorisations are disjoint by construction:
/// 2^8 | 3·5·17 | 11·23 | 251 | 13·19 | 241 | 239 | 233 | 229 | 227 |
/// 223 | 7·31 | 211 | 199 | 197 | 193 | 191 | 181 | 179 | 173.
pub const MODULI: [u64; N_MAX] = [
    256, 255, 253, 251, 247, 241, 239, 233, 229, 227, 223, 217, 211, 199, 197, 193, 191, 181, 179,
    173,
];

/// The first `n` moduli.
///
/// # Examples
/// ```
/// // N = 2 keeps the two largest pairwise-coprime moduli.
/// assert_eq!(ozaki2::moduli(2), &[256, 255]);
/// ```
pub fn moduli(n: usize) -> &'static [u64] {
    assert!((2..=N_MAX).contains(&n), "N must be in 2..=20, got {n}");
    &MODULI[..n]
}

/// `log2 Π p_i` for the first `n` moduli (used in docs/reports; the exact
/// product lives in the constant tables).
pub fn log2_p(n: usize) -> f64 {
    moduli(n).iter().map(|&p| (p as f64).log2()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemm_exact::gcd_u64;

    #[test]
    fn pairwise_coprime() {
        for (i, &pi) in MODULI.iter().enumerate() {
            for &pj in &MODULI[i + 1..] {
                assert_eq!(gcd_u64(pi, pj), 1, "{pi} and {pj} share a factor");
            }
        }
    }

    #[test]
    fn strictly_descending_and_in_range() {
        for w in MODULI.windows(2) {
            assert!(w[0] > w[1]);
        }
        assert!(MODULI.iter().all(|&p| (2..=256).contains(&p)));
    }

    #[test]
    fn rmod_fits_int8() {
        // For every modulus, the symmetric residue range fits INT8 (the
        // +128 corner for p = 256 wraps, see module docs).
        for &p in &MODULI {
            let half = (p / 2) as i64;
            assert!(half <= 128);
            assert!(-half >= -128);
        }
    }

    #[test]
    fn accuracy_sweet_spots_match_paper() {
        // §5.1: N = 14 slightly below DGEMM (needs ~53+10+1 bits of P for
        // k = 1024), N = 15 on par. Our prefix products bracket those sizes.
        let bits14 = log2_p(14);
        let bits15 = log2_p(15);
        assert!(bits14 > 105.0 && bits14 < 115.0, "log2 P(14) = {bits14}");
        assert!(bits15 > 115.0 && bits15 < 122.0, "log2 P(15) = {bits15}");
        // SGEMM-level at N = 7..8 (needs ~24*2+10+1 = 59 bits).
        assert!(log2_p(7) > 52.0 && log2_p(8) > 60.0);
    }

    #[test]
    #[should_panic(expected = "N must be in 2..=20")]
    fn rejects_out_of_range_n() {
        moduli(21);
    }
}
