//! Property-based tests for the simulated matrix engines.

use gemm_dense::Matrix;
use gemm_engine::{
    barrett_addmod_row_u8, barrett_addmod_row_u8_scalar, barrett_mod_row_u8,
    barrett_mod_row_u8_scalar, for_each_level, int8_gemm_blocked, int8_gemm_naive,
    int8_gemm_rm_cm_scalar, lowfp_gemm, quantize, Epilogue, Int8Workspace, ReduceEpilogue,
};
use gemm_lowfp::{BF16, F16};
use proptest::prelude::*;

/// `A · B` through [`int8_gemm_blocked`] with a fresh workspace.
fn gemm(a: &Matrix<i8>, b: &Matrix<i8>) -> Matrix<i32> {
    let ((m, k), n) = (a.shape(), b.cols());
    let mut c = Matrix::<i32>::zeros(m, n);
    let mut ws = Int8Workspace::new();
    int8_gemm_blocked(
        m,
        n,
        k,
        &a.to_row_major(),
        b.as_slice(),
        c.as_mut_slice(),
        &mut ws,
    );
    c
}

/// `A · B` with epilogue `epi` over panels packed from row-major `a` (row
/// stride `lda`) and column-major `b` (column stride `ldb`).
#[allow(clippy::too_many_arguments)]
fn gemm_packed<E: Epilogue>(
    (m, n, k): (usize, usize, usize),
    a: &[i8],
    lda: usize,
    b: &[i8],
    ldb: usize,
    c: &mut [i32],
    out: &mut [u8],
    epi: &E,
    parallel: bool,
) {
    use gemm_engine::{
        int8_gemm_prepacked_fused, pack_panels, padded_a_rows, padded_b_cols, padded_depth,
        OperandSide,
    };
    let kp = padded_depth(k);
    let (mut apack, mut bpack) = (Vec::new(), Vec::new());
    pack_panels(
        &mut apack,
        OperandSide::A,
        a,
        lda,
        m,
        padded_a_rows(m),
        k,
        kp,
    );
    pack_panels(
        &mut bpack,
        OperandSide::B,
        b,
        ldb,
        n,
        padded_b_cols(n),
        k,
        kp,
    );
    int8_gemm_prepacked_fused(m, n, k, &apack, &bpack, kp, 0, c, out, epi, parallel);
}

fn arb_i8_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix<i8>> {
    proptest::collection::vec(any::<i8>(), rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// The add-mod row kernel at its boundary, `u = r = p - 1` (the sum
/// `2p - 2` takes the compare-subtract), at `p = 256` and at the pipeline's
/// smallest modulus, 173, on every level and over row lengths that cover
/// the SIMD body and the scalar tail: every lane is the canonical `p - 2`.
#[test]
fn addmod_rows_at_the_top_residue() {
    for p in [256u64, 173] {
        let pinv = ((1u64 << 32) / p - 1) as u32;
        for len in [1usize, 15, 16, 17, 63, 64, 65] {
            // -1 - p·t is p - 1 mod p.
            let row: Vec<i32> = (0..len as i32).map(|i| -1 - p as i32 * (i % 5)).collect();
            for_each_level("addmod_rows_at_the_top_residue", |level| {
                let mut u = vec![(p - 1) as u8; len];
                barrett_addmod_row_u8(&row, &mut u, p as i32, pinv);
                assert!(
                    u.iter().all(|&x| x as u64 == p - 2),
                    "level {level:?}, p={p}, len={len}: {u:?}"
                );
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocked_matches_naive(
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
        seed in any::<u64>(),
    ) {
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(99);
            (s >> 33) as i64 as i8
        };
        let a = Matrix::from_fn(m, k, |_, _| next());
        let b = Matrix::from_fn(k, n, |_, _| next());
        prop_assert_eq!(gemm(&a, &b), int8_gemm_naive(&a, &b));
    }

    #[test]
    fn arbitrary_values_match(a in arb_i8_matrix(5, 7), b in arb_i8_matrix(7, 4)) {
        prop_assert_eq!(gemm(&a, &b), int8_gemm_naive(&a, &b));
    }

    /// The dispatched mod-reduce row kernels (the fused line-7 epilogues)
    /// are lane-exact against their scalar oracles over the full i32
    /// domain, for every pipeline modulus and awkward row lengths.
    #[test]
    fn mod_rows_lane_exact_vs_scalar(
        len in 1usize..70,
        p in 2u64..=256,
        seed in any::<u64>(),
    ) {
        let pinv = ((1u64 << 32) / p - 1) as u32;
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(7);
            // Mix full-range values with near-multiples of p (the fix-up
            // boundaries).
            if s & 0b100 == 0 {
                ((s >> 32) as i32 / p as i32) * p as i32
            } else {
                (s >> 32) as i32
            }
        };
        let row: Vec<i32> = (0..len).map(|_| next()).collect();
        let mut want = vec![0u8; len];
        barrett_mod_row_u8_scalar(&row, &mut want, p as i32, pinv);
        // Residues a later depth block adds into: anything in [0, p).
        let prior: Vec<u8> = (0..len).map(|i| ((seed ^ (i as u64 * 89)) % p) as u8).collect();
        let mut want_add = prior.clone();
        barrett_addmod_row_u8_scalar(&row, &mut want_add, p as i32, pinv);
        let mut mismatch = None;
        for_each_level("mod_rows_lane_exact_vs_scalar", |level| {
            let mut got = vec![0u8; len];
            barrett_mod_row_u8(&row, &mut got, p as i32, pinv);
            let mut got_add = prior.clone();
            barrett_addmod_row_u8(&row, &mut got_add, p as i32, pinv);
            if got != want {
                mismatch.get_or_insert(("u8", level));
            }
            if got_add != want_add {
                mismatch.get_or_insert(("add-mod", level));
            }
        });
        prop_assert!(mismatch.is_none(), "(kernel, level) = {:?}, p={}", mismatch, p);
    }

    #[test]
    fn awkward_shapes_cross_blocking_boundaries(
        m in 1usize..40,
        k in 1usize..80,
        n in 1usize..40,
        m_bump in 0usize..2,
        k_bump in 0usize..2,
        seed in any::<u64>(),
    ) {
        // Mix small odd shapes with shapes straddling the MR/NR/PK/MC
        // boundaries (129, 1025, ...) so every ragged-edge path runs.
        let m = m + m_bump * 127;
        let k = k + k_bump * 1021;
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(99);
            (s >> 33) as i64 as i8
        };
        let a = Matrix::from_fn(m, k, |_, _| next());
        let b = Matrix::from_fn(k, n, |_, _| next());
        prop_assert_eq!(gemm(&a, &b), int8_gemm_naive(&a, &b), "{}x{}x{}", m, k, n);
    }

    #[test]
    fn extreme_inputs_deep_k_wrap_identically(
        k_extra in 0usize..700,
        seed in any::<u64>(),
    ) {
        // k > 2^17 with entries drawn from {-128, 127}: accumulators wrap
        // (products of 2^14 overflow i32 past k = 2^17); the packed/tiled
        // kernel must wrap bit-identically to the seed scalar kernel.
        let k = (1usize << 17) + k_extra;
        let (m, n) = (2usize, 2);
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if s >> 63 == 0 { -128i8 } else { 127i8 }
        };
        let a: Vec<i8> = (0..m * k).map(|_| next()).collect();
        let b: Vec<i8> = (0..k * n).map(|_| next()).collect();
        let mut c_blocked = vec![0i32; m * n];
        let mut c_scalar = vec![0i32; m * n];
        int8_gemm_blocked(m, n, k, &a, &b, &mut c_blocked, &mut Int8Workspace::new());
        int8_gemm_rm_cm_scalar(m, n, k, &a, &b, &mut c_scalar);
        prop_assert_eq!(c_blocked, c_scalar, "k={}", k);
    }

    #[test]
    fn fused_reduce_epilogue_matches_separate_pass(
        m in 1usize..24,
        k in 1usize..60,
        n in 1usize..24,
        p in 3u64..=256,
        seed in any::<u64>(),
    ) {
        let pinv = ((1u64 << 32) / p - 1) as u32;
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(7);
            (s >> 33) as i64 as i8
        };
        let a: Vec<i8> = (0..m * k).map(|_| next()).collect();
        let b: Vec<i8> = (0..k * n).map(|_| next()).collect();
        let mut c_plain = vec![0i32; m * n];
        int8_gemm_blocked(m, n, k, &a, &b, &mut c_plain, &mut Int8Workspace::new());
        let mut c_fused = vec![0i32; m * n];
        let mut u = vec![0u8; m * n];
        let epi = ReduceEpilogue::new(p, pinv, None);
        gemm_packed((m, n, k), &a, k, &b, k, &mut c_fused, &mut u, &epi, true);
        prop_assert_eq!(&c_fused, &c_plain);
        for (i, (&r, &x)) in u.iter().zip(&c_plain).enumerate() {
            prop_assert_eq!(r as i64, (x as i64).rem_euclid(p as i64), "elem {} p {}", i, p);
        }
    }

    #[test]
    fn fused_strided_epilogue_matches_naive(
        m in 1usize..24,
        k in 1usize..70,
        n in 1usize..40,
        pad_a in 1usize..9,
        pad_b in 1usize..9,
        p in 3u64..=256,
        seed in any::<u64>(),
    ) {
        // lda, ldb > k with garbage in the gaps, an active epilogue, and
        // both sweep modes: strided operands packed into panels, then the
        // one prepacked stripe driver.
        let (lda, ldb) = (k + pad_a, k + pad_b);
        let pinv = ((1u64 << 32) / p - 1) as u32;
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(13);
            (s >> 33) as i64 as i8
        };
        let a_buf: Vec<i8> = (0..m * lda).map(|_| next()).collect();
        let b_buf: Vec<i8> = (0..n * ldb).map(|_| next()).collect();
        let a = Matrix::from_fn(m, k, |i, h| a_buf[i * lda + h]);
        let b = Matrix::from_fn(k, n, |h, j| b_buf[j * ldb + h]);
        let want = int8_gemm_naive(&a, &b);
        for parallel in [false, true] {
            let mut c = vec![0i32; m * n];
            let mut u = vec![0u8; m * n];
            let epi = ReduceEpilogue::new(p, pinv, None);
            gemm_packed((m, n, k), &a_buf, lda, &b_buf, ldb, &mut c, &mut u, &epi, parallel);
            prop_assert_eq!(&c[..], want.as_slice(), "parallel={}", parallel);
            for (&r, &x) in u.iter().zip(&c) {
                prop_assert_eq!(r as i64, (x as i64).rem_euclid(p as i64));
            }
        }
    }

    #[test]
    fn linearity_in_scalar(a in arb_i8_matrix(4, 6), b in arb_i8_matrix(6, 3)) {
        // C(A, B) + C(A, B) == C(A, 2B) as long as 2B stays in range —
        // verify via i32 doubling instead to avoid range issues.
        let c = gemm(&a, &b);
        let doubled = int8_gemm_naive(&a, &b).map(|x| x.wrapping_mul(2));
        let sum = c.map(|x| x.wrapping_mul(2));
        prop_assert_eq!(doubled, sum);
    }

    #[test]
    fn f16_engine_matches_f64_within_fp32_rounding(
        seed in any::<u64>(),
        m in 1usize..10,
        k in 1usize..32,
        n in 1usize..10,
    ) {
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((s >> 40) as f32 / 256.0) - 32.0
        };
        let a32 = Matrix::from_fn(m, k, |_, _| next());
        let b32 = Matrix::from_fn(k, n, |_, _| next());
        let a = quantize::<F16>(&a32);
        let b = quantize::<F16>(&b32);
        let c = lowfp_gemm(&a, &b);
        for i in 0..m {
            for j in 0..n {
                let mut want = 0f64;
                let mut mag = 0f64;
                for h in 0..k {
                    let p = a[(i, h)].to_f32() as f64 * b[(h, j)].to_f32() as f64;
                    want += p;
                    mag += p.abs();
                }
                let bound = (k as f64) * 1.2e-7 * mag + 1e-30;
                prop_assert!(
                    (c[(i, j)] as f64 - want).abs() <= bound,
                    "({}, {}): got {} want {}", i, j, c[(i, j)], want
                );
            }
        }
    }

    #[test]
    fn bf16_quantize_bounded(xs in proptest::collection::vec(-1e20f32..1e20f32, 12)) {
        let m = Matrix::from_vec(3, 4, xs);
        let q = quantize::<BF16>(&m);
        for (orig, low) in m.iter().zip(q.iter()) {
            let err = (low.to_f32() - orig).abs();
            prop_assert!(err <= orig.abs() * 2f32.powi(-8) + f32::MIN_POSITIVE);
        }
    }
}

// ---------------------------------------------------------------------------
// Prepacked residue engine vs the scalar exact oracle
// ---------------------------------------------------------------------------

mod backend_oracle {
    use super::*;
    use gemm_engine::{
        int8_gemm_prepacked_fused, pack_panels, padded_a_rows, padded_b_cols, padded_depth,
        OperandSide,
    };

    /// `⌊2^32 / p⌋ - 1`, the Barrett reciprocal the fused epilogue consumes.
    fn pinv(p: u64) -> u32 {
        ((1u64 << 32) / p - 1) as u32
    }

    /// Scalar exact oracle: plain i64 dot products of the logical
    /// residues, reduced with `rem_euclid` — no blocking, no SIMD, no
    /// Barrett. Emitted in the engine's column-major plane layout. What
    /// the residue engine must reproduce bit-for-bit for every modulus
    /// `p ≤ 256`.
    fn oracle_u8(a: &Matrix<i8>, b: &Matrix<i8>, p: u64) -> Vec<u8> {
        let (m, k) = a.shape();
        let (_, n) = b.shape();
        let mut out = vec![0u8; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i64;
                for h in 0..k {
                    acc += a[(i, h)] as i64 * b[(h, j)] as i64;
                }
                out[j * m + i] = acc.rem_euclid(p as i64) as u8;
            }
        }
        out
    }

    /// Pack a residue matrix pair into the panel layout and run the
    /// prepacked INT8 engine with the fused mod-`p` reduce epilogue.
    fn run_engine(a: &Matrix<i8>, b: &Matrix<i8>, p: u64, parallel: bool) -> Vec<u8> {
        let (m, k) = a.shape();
        let (_, n) = b.shape();
        let (m_pad, n_pad, kp) = (padded_a_rows(m), padded_b_cols(n), padded_depth(k));
        // Row-major A: row i is the i-th k-vector. Column-major B: the
        // packers both take vec-major sources, so transpose B's storage.
        let a_rm: Vec<i8> = (0..m)
            .flat_map(|i| (0..k).map(move |h| a[(i, h)]))
            .collect();
        let b_cm: Vec<i8> = (0..n)
            .flat_map(|j| (0..k).map(move |h| b[(h, j)]))
            .collect();
        let mut apack = Vec::new();
        let mut bpack = Vec::new();
        pack_panels(&mut apack, OperandSide::A, &a_rm, k, m, m_pad, k, kp);
        pack_panels(&mut bpack, OperandSide::B, &b_cm, k, n, n_pad, k, kp);
        let mut c32 = vec![0i32; m * n];
        let mut u = vec![0u8; m * n];
        let epi = ReduceEpilogue::new(p, pinv(p), None);
        int8_gemm_prepacked_fused(
            m, n, k, &apack, &bpack, kp, 0, &mut c32, &mut u, &epi, parallel,
        );
        u
    }

    fn arb_residues(rows: usize, cols: usize, bound: i8) -> impl Strategy<Value = Matrix<i8>> {
        proptest::collection::vec(-bound..=bound, rows * cols)
            .prop_map(move |v| Matrix::from_vec(rows, cols, v))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The residue engine reproduces the scalar oracle bit-for-bit on
        /// small moduli from the bottom of the pool, sequential and striped.
        #[test]
        fn every_backend_matches_the_scalar_oracle(
            a in arb_residues(5, 23, 31),
            b in arb_residues(23, 7, 31),
            pidx in 0usize..4,
            parallel in any::<bool>(),
        ) {
            let p = [64u64, 63, 61, 59][pidx];
            let want = oracle_u8(&a, &b, p);
            let got = run_engine(&a, &b, p, parallel);
            prop_assert_eq!(&got, &want, "int8 vs oracle, p={}", p);
        }

        /// The INT8 engine's full envelope (residues to ±127, moduli to
        /// 256), sequential and striped, pins to the oracle.
        #[test]
        fn int8_backend_full_envelope_matches_oracle(
            a in arb_residues(4, 40, 127),
            b in arb_residues(40, 6, 127),
            pidx in 0usize..3,
            parallel in any::<bool>(),
        ) {
            let p = [256u64, 255, 253][pidx];
            let want = oracle_u8(&a, &b, p);
            let got = run_engine(&a, &b, p, parallel);
            prop_assert_eq!(&got, &want, "p={}", p);
        }
    }
}

// ---------------------------------------------------------------------------
// Every dispatch level against the naive oracle
// ---------------------------------------------------------------------------

mod level_parity {
    use super::*;
    use gemm_engine::{
        int8_gemm_prepacked_fused, pack_panels, padded_a_rows, padded_b_cols, padded_depth,
        AddModEpilogue, OperandSide, PK,
    };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Each level, pinned with `cap_scope`, reproduces the naive
        /// oracle on shapes that cross the 16/32 tile edges, over a
        /// depth window at a nonzero offset, with both epilogues,
        /// sequential and striped.
        #[test]
        fn every_isa_level_matches_naive(
            m in 1usize..80,
            n in 1usize..80,
            k in 1usize..300,
            chunks_before in 0usize..3,
            p in 3u64..=256,
            seed in any::<u64>(),
        ) {
            prop_assume!(k % PK != 0);
            // The window is the panels' final one, so its rounded-up tail
            // is the zero padding.
            let depth_off = chunks_before * PK;
            let k_full = depth_off + k;
            let mut s = seed | 1;
            let mut next = move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 56) as u8 as i8
            };
            let a_rm: Vec<i8> = (0..m * k_full).map(|_| next()).collect();
            let b_cm: Vec<i8> = (0..n * k_full).map(|_| next()).collect();
            let a = Matrix::from_fn(m, k, |i, h| a_rm[i * k_full + depth_off + h]);
            let b = Matrix::from_fn(k, n, |h, j| b_cm[j * k_full + depth_off + h]);
            let want = int8_gemm_naive(&a, &b);
            let kp = padded_depth(k_full);
            let (mut apack, mut bpack) = (Vec::new(), Vec::new());
            pack_panels(&mut apack, OperandSide::A, &a_rm, k_full, m, padded_a_rows(m), k_full, kp);
            pack_panels(&mut bpack, OperandSide::B, &b_cm, k_full, n, padded_b_cols(n), k_full, kp);
            let pinv = ((1u64 << 32) / p - 1) as u32;
            let mut failure = None;
            for_each_level("every_isa_level_matches_naive", |level| {
                for parallel in [false, true] {
                    let mut c = vec![0i32; m * n];
                    let mut u = vec![0u8; m * n];
                    let epi = ReduceEpilogue::new(p, pinv, None);
                    int8_gemm_prepacked_fused(
                        m, n, k, &apack, &bpack, kp, depth_off, &mut c, &mut u, &epi, parallel,
                    );
                    let reduced = u
                        .iter()
                        .zip(&c)
                        .all(|(&r, &x)| r as i64 == (x as i64).rem_euclid(p as i64));
                    if c != want.as_slice() || !reduced {
                        failure.get_or_insert(("reduce", level, parallel));
                    }
                    // Add into the residues just written, the first one
                    // raised to p - 1.
                    u[0] = (p - 1) as u8;
                    let prior = u.clone();
                    let epi = AddModEpilogue::new(p, pinv, None);
                    int8_gemm_prepacked_fused(
                        m, n, k, &apack, &bpack, kp, depth_off, &mut c, &mut u, &epi, parallel,
                    );
                    let added = u.iter().zip(&c).zip(&prior).all(|((&r, &x), &r0)| {
                        r as i64 == (r0 as i64 + x as i64).rem_euclid(p as i64)
                    });
                    if c != want.as_slice() || !added {
                        failure.get_or_insert(("add-mod", level, parallel));
                    }
                }
            });
            prop_assert!(failure.is_none(), "(epilogue, level, parallel) = {:?}", failure);
        }
    }
}
