//! Property-based tests for the Ozaki Scheme II core: kernel exactness,
//! the uniqueness condition (3), and end-to-end reconstruction.

use gemm_dense::{Layout, MatView, Matrix};
use gemm_engine::{barrett_mod_u8, for_each_level, padded_depth};
use ozaki2::accumulate::{fold_planes, fold_span, fold_span_scalar, FoldPrecision};
use ozaki2::consts::constants;
use ozaki2::consts::Constants;
use ozaki2::convert::{
    residue_planes, rmod_reference, rmod_row, rmod_row_scalar, rmod_to_i8, steps_for,
    trunc_convert_pack_panels,
};
use ozaki2::scale::{
    condition3_holds, fast_scale_cols, fast_scale_rows, pow2_split, scale_by_pow2,
    scale_trunc_a_rowmajor, scale_trunc_b_colmajor, strunc_row, strunc_row_scalar,
};
use ozaki2::{Element, Mode, OperandSide, Ozaki2, TimeShare, N_MAX_SGEMM};
use proptest::prelude::*;

/// The unfused oracle of the trunc+convert sweep:
/// `pack_panels(residue_planes(ints))` for integer-valued vectors `ints`
/// (vector `v` at `v * k`).
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

/// The trunc+convert sweep over `view` into a buffer that starts dirty.
fn sweep<T: Element>(
    view: &MatView<'_, T>,
    side: OperandSide,
    exps: &[i32],
    c: &Constants,
    parallel: bool,
) -> Vec<i8> {
    let (rows, cols) = view.shape();
    let (vecs_pad, k) = match side {
        OperandSide::A => (gemm_engine::padded_a_rows(rows), cols),
        OperandSide::B => (gemm_engine::padded_b_cols(cols), rows),
    };
    let mut got = vec![-1i8; c.n * vecs_pad * padded_depth(k)];
    let timing = TimeShare::new();
    trunc_convert_pack_panels(view, side, exps, c, parallel, &mut got, Some(&timing));
    got
}

/// The sweep over the logical operand `mat` of `side` stored column- and
/// row-major with leading dimension `minor + pad`, and as a `.t()`, on one
/// thread and split, against the oracle chain over the exactly widened
/// column-major copy; an f32 operand's sweep (`b = 32` thresholds) also
/// equals the sweep over that widened copy (`b = 64`).
fn check_sweep<T: Element>(
    mat: &Matrix<T>,
    side: OperandSide,
    c: &Constants,
    pad: usize,
) -> Result<(), TestCaseError> {
    let wide = mat.map(T::to_f64);
    let (rows, cols) = mat.shape();
    let (vecs, vecs_pad, k) = match side {
        OperandSide::A => (rows, gemm_engine::padded_a_rows(rows), cols),
        OperandSide::B => (cols, gemm_engine::padded_b_cols(cols), rows),
    };
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
    for layout in [Layout::ColMajor, Layout::RowMajor] {
        let (major, minor) = match layout {
            Layout::ColMajor => (cols, rows),
            Layout::RowMajor => (rows, cols),
        };
        let ld = minor + pad;
        let mut buf = vec![T::from_f64(f64::NAN); major * ld];
        for i in 0..rows {
            for j in 0..cols {
                match layout {
                    Layout::ColMajor => buf[i + j * ld] = mat[(i, j)],
                    Layout::RowMajor => buf[i * ld + j] = mat[(i, j)],
                }
            }
        }
        let view = MatView::new(&buf, rows, cols, ld, layout);
        for parallel in [false, true] {
            prop_assert_eq!(
                &sweep(&view, side, &exps, c, parallel),
                &want,
                "{:?} {:?} pad {} N={} {}x{} parallel={}",
                side,
                layout,
                pad,
                c.n,
                rows,
                cols,
                parallel
            );
        }
    }
    let transposed = mat.transpose();
    prop_assert_eq!(
        &sweep(&transposed.view().t(), side, &exps, c, true),
        &want,
        "{:?} .t() N={} {}x{}",
        side,
        c.n,
        rows,
        cols
    );
    if !T::IS_F64 {
        prop_assert_eq!(
            &sweep(&wide.view(), side, &exps, c, false),
            &want,
            "{:?} widened to f64 N={} {}x{}",
            side,
            c.n,
            rows,
            cols
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mulhi_mod_matches_rem_euclid(x in any::<i32>(), pidx in 0usize..20) {
        let c = constants(20);
        let p = c.p[pidx];
        prop_assert_eq!(
            barrett_mod_u8(x, p as i32, c.p_inv_u32[pidx]) as i64,
            (x as i64).rem_euclid(p as i64)
        );
    }

    #[test]
    fn rmod_congruent_over_pipeline_domain(
        mant in -(1i64 << 53)..(1i64 << 53),
        shift in 0u32..18,
        nmod in 2usize..=20,
        pidx_seed in any::<u32>(),
    ) {
        // Values of the form (53-bit integer) << shift cover the integer
        // f64s the truncation step can produce up to 2^71.
        let c = constants(nmod);
        let pidx = (pidx_seed as usize) % nmod;
        let x = (mant as f64) * 2f64.powi(shift as i32);
        let steps = steps_for(nmod, true);
        // Restrict to the fast-mode magnitude budget for this N.
        prop_assume!(x.abs() <= 2f64.powf(c.p_fast));
        let r = rmod_to_i8(
            x,
            c.p_f64[pidx],
            c.p_f32[pidx],
            c.p_inv_f64[pidx],
            c.p_inv_f32[pidx],
            steps,
        );
        let want = gemm_exact::I256::from_f64_exact(x).rem_euclid_u64(c.p[pidx]);
        prop_assert_eq!(
            (r as i64).rem_euclid(c.p[pidx] as i64) as u64,
            want,
            "x={} p={}", x, c.p[pidx]
        );
    }

    #[test]
    fn vectorized_rmod_lane_exact_and_congruent(
        nmod in 2usize..=20,
        b64 in any::<bool>(),
        len in 1usize..80,
        seed in any::<u64>(),
        pidx_seed in any::<u32>(),
    ) {
        // The dispatched SIMD row kernel must equal the scalar oracle bit
        // for bit on every lane (body lanes AND the scalar tail), for
        // every step count — and every lane must be congruent to the
        // exact-integer rmod. Rows mix random in-budget integers with the
        // ±p/2 wrap edge cases (multiples of p/2, including ±128 for
        // p = 256).
        prop_assume!(b64 || nmod <= 18);
        let c = constants(nmod);
        let steps = steps_for(nmod, b64);
        let pidx = (pidx_seed as usize) % nmod;
        let p = c.p[pidx];
        let bound = 2f64.powf(c.p_fast);
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s
        };
        let row: Vec<f64> = (0..len)
            .map(|i| match i % 4 {
                // ±(p/2)·odd: the wrap-prone boundary multiples.
                0 => {
                    let mult = (next() % 64) as f64 * 2.0 + 1.0;
                    let sign = if next() % 2 == 0 { 1.0 } else { -1.0 };
                    sign * (p as f64 / 2.0).trunc() * mult
                }
                // Large in-budget magnitudes (exercise steps 2-3).
                1 => {
                    let e = (next() % 52) as i32;
                    let sign = if next() % 2 == 0 { 1.0 } else { -1.0 };
                    (sign * 2f64.powi(e) * 1.337).trunc() % bound
                }
                // Small integers around zero.
                2 => (next() % 4096) as f64 - 2048.0,
                // Uniform 48-bit integers.
                _ => ((next() >> 16) as f64 - 2f64.powi(47)) % bound,
            })
            .map(|x| (x % bound).trunc())
            .collect();
        let args = (c.p_f64[pidx], c.p_f32[pidx], c.p_inv_f64[pidx], c.p_inv_f32[pidx]);
        let mut want = vec![0i8; len];
        rmod_row_scalar(&row, &mut want, args.0, args.1, args.2, args.3, steps);
        let mut got = vec![0i8; len];
        let mut mismatch = None;
        for_each_level("vectorized_rmod_lane_exact_and_congruent", |level| {
            rmod_row(&row, &mut got, args.0, args.1, args.2, args.3, steps);
            if got != want && mismatch.is_none() {
                mismatch = Some(level);
            }
        });
        prop_assert!(
            mismatch.is_none(),
            "lane mismatch at {:?}: N={} steps={}", mismatch, nmod, steps
        );
        for (i, (&g, &x)) in got.iter().zip(&row).enumerate() {
            let exact = gemm_exact::I256::from_f64_exact(x).rem_euclid_u64(p);
            prop_assert_eq!(
                (g as i64).rem_euclid(p as i64) as u64, exact,
                "lane {} not congruent: x={} p={}", i, x, p
            );
            let reference = rmod_reference(x, p) as i64;
            prop_assert_eq!(
                (g as i64).rem_euclid(p as i64), reference.rem_euclid(p as i64),
                "lane {} disagrees with rmod_reference: x={} p={}", i, x, p
            );
        }
    }

    #[test]
    fn strunc_row_lane_exact_any_exponent(
        len in 1usize..100,
        e in -1300i32..1300,
        seed in any::<u64>(),
    ) {
        // The dispatched scale+trunc kernel must equal the scalar oracle
        // bit for bit on every lane (SIMD body + tail), and the oracle
        // must equal scale_by_pow2(..).trunc() — including ±max-exponent
        // scales that overflow/underflow a single multiply (|e| > 970) and
        // subnormal products.
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s
        };
        let row: Vec<f64> = (0..len)
            .map(|_| {
                let m = ((next() >> 12) as f64) / 2f64.powi(40) - 2048.0;
                let ex = (next() % 600) as i32 - 300;
                m * 2f64.powi(ex)
            })
            .collect();
        let (s1, s2) = pow2_split(e);
        let mut want = vec![0f64; len];
        strunc_row_scalar(&row, &mut want, s1, s2);
        let mut mismatch = None;
        for_each_level("strunc_row_lane_exact_any_exponent", |level| {
            let mut got = vec![0f64; len];
            strunc_row(&row, &mut got, s1, s2);
            if let Some(i) = (0..len).find(|&i| got[i].to_bits() != want[i].to_bits()) {
                mismatch.get_or_insert((level, i));
            }
        });
        prop_assert!(mismatch.is_none(), "lane diverges (level, lane) = {:?}, e={}", mismatch, e);
        for i in 0..len {
            prop_assert_eq!(
                want[i].to_bits(), scale_by_pow2(row[i], e).trunc().to_bits(),
                "oracle deviates from scale_by_pow2: x={} e={}", row[i], e
            );
        }
    }

    #[test]
    fn fold_span_lane_exact_odd_planes(
        nmod in 2usize..=20,
        len in 1usize..70,
        idx0 in 0usize..9,
        single in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Lane-exact SIMD/scalar parity for the fold kernel across span
        // edges (body + tail), span offsets, odd plane counts and the full
        // residue range (including p-1 maxima).
        prop_assume!(!single || nmod <= ozaki2::N_MAX_SGEMM);
        let c = constants(nmod);
        let plane = idx0 + len + (seed % 5) as usize;
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(97);
            s
        };
        let u: Vec<u8> = (0..nmod * plane)
            .map(|i| {
                let m = i / plane;
                match next() % 5 {
                    0 => (c.p[m] - 1) as u8,
                    1 => 0,
                    _ => ((next() >> 30) % c.p[m]) as u8,
                }
            })
            .collect();
        let (s1, s2): (&[f64], Option<&[f64]>) = if single {
            (&c.s1_single, None)
        } else {
            (&c.s1, Some(&c.s2))
        };
        let mut want = vec![0f64; len];
        fold_span_scalar(&u, plane, idx0, s1, s2, c.p1, c.p2, c.p_inv, &mut want);
        let mut mismatch = None;
        for_each_level("fold_span_lane_exact_odd_planes", |level| {
            let mut got = vec![0f64; len];
            fold_span(&u, plane, idx0, s1, s2, c.p1, c.p2, c.p_inv, &mut got);
            if let Some(i) = (0..len).find(|&i| got[i].to_bits() != want[i].to_bits()) {
                mismatch.get_or_insert((level, i));
            }
        });
        prop_assert!(
            mismatch.is_none(),
            "lane diverges (level, lane) = {:?}: N={} len={} idx0={} single={}",
            mismatch, nmod, len, idx0, single
        );
    }

    #[test]
    fn fold_round_trip_vs_crt_oracle(
        nmod in 2usize..=20,
        seed in any::<u64>(),
    ) {
        // Random residue vectors must fold back to the exact CRT
        // reconstruction (symmetric range) within a few ulps — the
        // round-trip contract of the weight-split construction.
        let c = constants(nmod);
        let basis = gemm_exact::CrtBasis::new(&c.p);
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(7);
            s
        };
        let us: Vec<u8> = (0..nmod).map(|m| ((next() >> 33) % c.p[m]) as u8).collect();
        let mut out = [0.0f64];
        fold_planes(&us, 1, 1, c, FoldPrecision::Double, &[0], &[0], true, &mut out);
        let mut acc = gemm_exact::U256::ZERO;
        for (i, &uv) in us.iter().enumerate() {
            acc = acc.add(basis.weight(i).mul_u64(uv as u64));
        }
        let (_, r) = acc.div_rem(basis.p_big());
        let half = basis.p_big().half();
        let want = if r > half {
            gemm_exact::I256::from_u256(basis.p_big().sub(r)).neg().to_f64()
        } else {
            gemm_exact::I256::from_u256(r).to_f64()
        };
        if want == 0.0 {
            prop_assert_eq!(out[0], 0.0);
        } else {
            let rel = ((out[0] - want) / want).abs();
            prop_assert!(rel <= 8.0 * f64::EPSILON, "N={} rel={} got={} want={}", nmod, rel, out[0], want);
        }
    }

    #[test]
    fn fused_trunc_convert_matches_unfused_any_split(
        vecs in 1usize..10,
        k in 1usize..80,
        nmod in 2usize..=20,
        f32_elems in any::<bool>(),
        pad in 0usize..3,
        seed in any::<u64>(),
    ) {
        // The sweep over every side, layout (column- and row-major with a
        // padded leading dimension, and a .t()) and precision must equal
        // the unfused chain pack_panels(residue_planes(scale_trunc_*))
        // over the exactly widened copy bitwise, for every plane count
        // and both parallel splits.
        prop_assume!(!f32_elems || nmod <= N_MAX_SGEMM);
        let c = constants(nmod);
        for side in [OperandSide::A, OperandSide::B] {
            let (rows, cols) = match side {
                OperandSide::A => (vecs, k),
                OperandSide::B => (k, vecs),
            };
            let mat = gemm_dense::workload::phi_matrix_f64(rows, cols, 1.0, seed, side as u64);
            if f32_elems {
                check_sweep(&mat.map(|x| x as f32), side, c, pad)?;
            } else {
                check_sweep(&mat, side, c, pad)?;
            }
        }
    }

    #[test]
    fn fused_convert_matches_reference_planes_any_split(
        vecs in 1usize..12,
        k in 1usize..96,
        nmod in 2usize..=20,
        b64 in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // The sweep over integers with zero exponents (which truncation
        // leaves unchanged) must equal residue_planes + pack_panels
        // bitwise for every plane count, at either conversion threshold
        // of the oracle, and be invariant to the parallel/sequential
        // split.
        prop_assume!(b64 || nmod <= N_MAX_SGEMM);
        let c = constants(nmod);
        let bound = 2f64.powf(c.p_fast);
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(11);
            (((s >> 16) as f64) - 2f64.powi(47)) % bound
        };
        let src: Vec<f64> = (0..vecs * k).map(|_| next().trunc()).collect();
        let want = oracle_panels(OperandSide::A, &src, vecs, gemm_engine::padded_a_rows(vecs), k, c, b64);
        let view = MatView::row_major(&src, vecs, k);
        for parallel in [false, true] {
            let got = sweep(&view, OperandSide::A, &vec![0; vecs], c, parallel);
            prop_assert_eq!(
                &got, &want,
                "N={} vecs={} k={} parallel={}", nmod, vecs, k, parallel
            );
        }
    }

    #[test]
    fn fused_epilogue_matches_reduce_plane(
        m in 1usize..16,
        k in 1usize..40,
        n in 1usize..16,
        pidx in 0usize..20,
        seed in any::<u64>(),
    ) {
        // The engine's fused GEMM epilogue must agree with a separate
        // scalar Barrett pass over the same INT32 plane.
        let c20 = constants(20);
        let (p, pinv) = (c20.p[pidx], c20.p_inv_u32[pidx]);
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(11);
            (s >> 33) as i64 as i8
        };
        let a: Vec<i8> = (0..m * k).map(|_| next()).collect();
        let b: Vec<i8> = (0..k * n).map(|_| next()).collect();
        let mut c32 = vec![0i32; m * n];
        let mut u_fused = vec![0u8; m * n];
        let kp = gemm_engine::padded_depth(k);
        let (mut apack, mut bpack) = (Vec::new(), Vec::new());
        gemm_engine::pack_panels(&mut apack, OperandSide::A, &a, k, m, gemm_engine::padded_a_rows(m), k, kp);
        gemm_engine::pack_panels(&mut bpack, OperandSide::B, &b, k, n, gemm_engine::padded_b_cols(n), k, kp);
        // The i32 product from a NoEpilogue call: the fused call stores none.
        gemm_engine::int8_gemm_prepacked_fused(
            m, n, k, &apack, &bpack, kp, 0, &mut c32, &mut [], &gemm_engine::NoEpilogue, true,
        );
        let epi = gemm_engine::ReduceEpilogue::new(p, pinv, None);
        gemm_engine::int8_gemm_prepacked_fused(
            m, n, k, &apack, &bpack, kp, 0, &mut [], &mut u_fused, &epi, true,
        );
        let mut u_separate = vec![0u8; m * n];
        gemm_engine::barrett_mod_row_u8_scalar(&c32, &mut u_separate, p as i32, pinv);
        prop_assert_eq!(u_fused, u_separate, "p={}", p);
    }

    #[test]
    fn condition3_holds_for_random_workloads(
        seed in any::<u64>(),
        nmod in 3usize..=18,
        phi in 0.0f64..3.0,
    ) {
        let (m, n, k) = (8usize, 8usize, 24usize);
        let a = gemm_dense::workload::phi_matrix_f64(m, k, phi, seed, 0);
        let b = gemm_dense::workload::phi_matrix_f64(k, n, phi, seed, 1);
        let c = constants(nmod);
        let ea = fast_scale_rows(&a, c.p_fast);
        let eb = fast_scale_cols(&b, c.p_fast);
        let mut ap = vec![0f64; m * k];
        scale_trunc_a_rowmajor(&a, &ea, &mut ap);
        let mut bp = vec![0f64; k * n];
        scale_trunc_b_colmajor(&b, &eb, &mut bp);
        prop_assert!(
            condition3_holds(&ap, &bp, m, n, k, c),
            "uniqueness condition violated: N={} phi={}", nmod, phi
        );
    }

    #[test]
    fn integer_inputs_reconstruct(
        seed in any::<u64>(),
        nmod in 4usize..=16,
        accurate in any::<bool>(),
    ) {
        // Small integer matrices. For N <= 10 the scaled product C'' fits
        // the fold's exact window (c1 and q·P1 share enough ulp headroom,
        // so fma(-P1, Q, c1) is exact and line 11's one rounding at the
        // C'' magnitude is the final `+`) and the result is bit-exact; for
        // larger N that rounding can show, so the contract is "within a
        // few ulp of the true integer".
        let (m, n, k) = (6usize, 5usize, 9usize);
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 40) as i64 % 101) - 50
        };
        let a = Matrix::from_fn(m, k, |_, _| next() as f64);
        let b = Matrix::from_fn(k, n, |_, _| next() as f64);
        let mode = if accurate { Mode::Accurate } else { Mode::Fast };
        let got = Ozaki2::new(nmod, mode).dgemm(&a, &b);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i64;
                for h in 0..k {
                    acc += (a[(i, h)] as i64) * (b[(h, j)] as i64);
                }
                let want = acc as f64;
                if nmod <= 10 {
                    prop_assert_eq!(got[(i, j)], want, "({},{}) N={}", i, j, nmod);
                } else {
                    let tol = 4.0 * f64::EPSILON * want.abs().max(1.0);
                    prop_assert!(
                        (got[(i, j)] - want).abs() <= tol,
                        "({},{}) N={}: got {} want {}", i, j, nmod, got[(i, j)], want
                    );
                }
            }
        }
    }

    #[test]
    fn emulated_error_bounded_by_budget(
        seed in any::<u64>(),
        nmod in 10usize..=16,
    ) {
        // For phi = 0.5 workloads the componentwise error must stay below
        // ~2^(-4(N-?) ...): use a generous analytic envelope: the per-
        // operand truncation keeps ~(p_fast - log2 k) bits, giving
        // relative error <= 2^-(p_fast - log2 k - 6) on entries without
        // cancellation; test the normwise error which is cancellation-free.
        let (m, n, k) = (16usize, 16usize, 32usize);
        let a = gemm_dense::workload::phi_matrix_f64(m, k, 0.5, seed, 0);
        let b = gemm_dense::workload::phi_matrix_f64(k, n, 0.5, seed, 1);
        let exact = gemm_dense::gemm::gemm_f64_naive(&a, &b);
        let got = Ozaki2::new(nmod, Mode::Fast).dgemm(&a, &b);
        let c = constants(nmod);
        let bound = 2f64.powf(-(c.p_fast - (k as f64).log2() - 8.0));
        let err = gemm_dense::norms::normwise_relative_error(&got, &exact);
        prop_assert!(err <= bound.max(1e-14), "N={} err={:e} bound={:e}", nmod, err, bound);
    }

    #[test]
    fn sgemm_dgemm_consistent_on_f32_inputs(seed in any::<u64>(), nmod in 6usize..=12) {
        // `sgemm` on f32 data must agree with the exact product of the
        // widened data entry by entry, within the error the scheme itself
        // allows. Relative error per entry is not that bound: an entry that
        // cancels can be arbitrarily small next to its terms.
        //
        // Derivation. Line 1 picks exponents e_i (rows of A), f_j (columns
        // of B); lines 2-3 truncate toward zero, so a~ = trunc(a·2^e_i)·2^-e_i
        // has |a~| <= |a| and |a - a~| < 2^-e_i (likewise b~, 2^-f_j). Then
        //   |(A~B~ - AB)_ij| = |Σ_h a~(b~ - b) + (a~ - a)b|
        //                    <= 2^-f_j Σ_h |a_ih| + 2^-e_i Σ_h |b_hj| =: T.
        // Lines 4-11 recover the integer A'B' exactly mod P, and condition
        // (3) makes it the symmetric representative; the single-weight fold
        // (s1 = w rounded to f64, FMA accumulation of N terms below
        // N·255·P, one more rounding in the P1 correction) misses it by at
        // most (N·255 + N²·255 + 2)·2^-53·P <= N²·2^-44·P, so line 12 adds
        //   F = N²·2^-44·P·2^-(e_i + f_j).
        // Rounding the result to f32 adds 2^-24 of its magnitude, and the
        // f64 reference carries R = k·2^-52·(|A||B|)_ij. The sum
        //   |c32 - exact| <= T + F + R + 2^-24·(|exact| + T + F + R)
        // is the componentwise bound; T is the term that scales like
        // predicted_error(N, k) times the row and column magnitudes.
        let (m, n, k) = (8usize, 8usize, 12usize);
        let a32 = gemm_dense::workload::phi_matrix_f32(m, k, 0.5, seed, 0);
        let b32 = gemm_dense::workload::phi_matrix_f32(k, n, 0.5, seed, 1);
        let c32 = Ozaki2::new(nmod, Mode::Fast).sgemm(&a32, &b32);
        let (a, b) = (a32.map(|x| x as f64), b32.map(|x| x as f64));
        let exact = gemm_dense::gemm::gemm_f64_naive(&a, &b);
        let c = constants(nmod);
        // Line 1's exponents, from the oracles over the exactly widened
        // copies (the view pass is bit-identical to them).
        let e = fast_scale_rows(&a, c.p_fast);
        let f = fast_scale_cols(&b, c.p_fast);
        let fold = (nmod * nmod) as f64 * 2f64.powi(-44) * c.p_big.to_f64();
        for i in 0..m {
            for j in 0..n {
                let row_a: f64 = (0..k).map(|h| a[(i, h)].abs()).sum();
                let col_b: f64 = (0..k).map(|h| b[(h, j)].abs()).sum();
                let abs_ab: f64 = (0..k).map(|h| (a[(i, h)] * b[(h, j)]).abs()).sum();
                let t = 2f64.powi(-f[j]) * row_a + 2f64.powi(-e[i]) * col_b;
                let fl = fold * 2f64.powi(-e[i] - f[j]);
                let r = k as f64 * 2f64.powi(-52) * abs_ab;
                let bound = t + fl + r + 2f64.powi(-24) * (exact[(i, j)].abs() + t + fl + r);
                let err = (c32[(i, j)] as f64 - exact[(i, j)]).abs();
                prop_assert!(
                    err <= bound,
                    "({},{}) N={}: err {:e} > bound {:e}", i, j, nmod, err, bound
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// View facade: bit-identity across strides / layouts / transposes, and the
// named wrappers as thin delegates (also exercised by the forced-scalar CI
// job, which runs this whole suite with OZAKI_FORCE_SCALAR=1).
// ---------------------------------------------------------------------------

use ozaki2::{GemmArgs, GemmOp};

/// Scatter `mat` into a fresh NaN-poisoned column-major buffer with
/// leading dimension `rows + pad`; only the logical elements are written,
/// so any read of a gap element surfaces as a NaN-contaminated (or
/// validation-rejected) result.
fn poisoned_strided(mat: &Matrix<f64>, pad: usize) -> (Vec<f64>, usize) {
    let (rows, cols) = (mat.rows(), mat.cols());
    let ld = rows + pad;
    let len = if cols == 0 { 0 } else { (cols - 1) * ld + rows };
    let mut buf = vec![f64::NAN; len];
    for j in 0..cols {
        for i in 0..rows {
            buf[i + j * ld] = mat[(i, j)];
        }
    }
    (buf, ld)
}

fn poisoned_strided_f32(mat: &Matrix<f32>, pad: usize) -> (Vec<f32>, usize) {
    let (rows, cols) = (mat.rows(), mat.cols());
    let ld = rows + pad;
    let len = if cols == 0 { 0 } else { (cols - 1) * ld + rows };
    let mut buf = vec![f32::NAN; len];
    for j in 0..cols {
        for i in 0..rows {
            buf[i + j * ld] = mat[(i, j)];
        }
    }
    (buf, ld)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// f64: the view facade over arbitrary strides, layouts and transpose
    /// options is bit-identical to the owned-matrix path, in both scaling
    /// modes, with NaN poison proving no gap element is ever touched.
    #[test]
    fn view_gemm_matches_owned_f64(
        m in 1usize..=12,
        n in 1usize..=10,
        k in 1usize..=16,
        nmod in 2usize..=20,
        lda_pad in 0usize..4,
        ldb_pad in 0usize..4,
        trans_a in any::<bool>(),
        trans_b in any::<bool>(),
        accurate in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let mode = if accurate { Mode::Accurate } else { Mode::Fast };
        let a = gemm_dense::workload::phi_matrix_f64(m, k, 0.7, seed, 0);
        let b = gemm_dense::workload::phi_matrix_f64(k, n, 0.7, seed + 1, 1);
        let emu = Ozaki2::new(nmod, mode);
        let want = emu.dgemm(&a, &b);

        // Store op(A) (the transposed matrix when trans_a) strided, then
        // ask the facade to undo the transpose — a pure view flip.
        let stored_a = if trans_a { a.transpose() } else { a.clone() };
        let stored_b = if trans_b { b.transpose() } else { b.clone() };
        let (abuf, lda) = poisoned_strided(&stored_a, lda_pad);
        let (bbuf, ldb) = poisoned_strided(&stored_b, ldb_pad);
        let va = MatView::new(&abuf, stored_a.rows(), stored_a.cols(), lda, Layout::ColMajor);
        let vb = MatView::new(&bbuf, stored_b.rows(), stored_b.cols(), ldb, Layout::ColMajor);
        let got = emu.gemm(
            GemmArgs::new(va, vb)
                .trans_a(if trans_a { GemmOp::T } else { GemmOp::N })
                .trans_b(if trans_b { GemmOp::T } else { GemmOp::N }),
        ).unwrap();
        prop_assert_eq!(
            &got.c, &want,
            "N={} mode={:?} lda={} ldb={} ta={} tb={}", nmod, mode, lda, ldb, trans_a, trans_b
        );
    }

    /// f32: same bit-identity over strides/layouts/transposes — the fused
    /// sweep widens lanes exactly, so the strided f32 view path must equal
    /// the owned sgemm path bitwise.
    #[test]
    fn view_gemm_matches_owned_f32(
        m in 1usize..=12,
        n in 1usize..=10,
        k in 1usize..=16,
        nmod in 2usize..=18,
        lda_pad in 0usize..4,
        ldb_pad in 0usize..4,
        trans_a in any::<bool>(),
        trans_b in any::<bool>(),
        accurate in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let mode = if accurate { Mode::Accurate } else { Mode::Fast };
        let a = gemm_dense::workload::phi_matrix_f32(m, k, 0.5, seed, 0);
        let b = gemm_dense::workload::phi_matrix_f32(k, n, 0.5, seed + 1, 1);
        let emu = Ozaki2::new(nmod, mode);
        let want = emu.sgemm(&a, &b);

        let stored_a = if trans_a { a.transpose() } else { a.clone() };
        let stored_b = if trans_b { b.transpose() } else { b.clone() };
        let (abuf, lda) = poisoned_strided_f32(&stored_a, lda_pad);
        let (bbuf, ldb) = poisoned_strided_f32(&stored_b, ldb_pad);
        let va = MatView::new(&abuf, stored_a.rows(), stored_a.cols(), lda, Layout::ColMajor);
        let vb = MatView::new(&bbuf, stored_b.rows(), stored_b.cols(), ldb, Layout::ColMajor);
        let got = emu.gemm(
            GemmArgs::new(va, vb)
                .trans_a(if trans_a { GemmOp::T } else { GemmOp::N })
                .trans_b(if trans_b { GemmOp::T } else { GemmOp::N }),
        ).unwrap();
        prop_assert_eq!(
            &got.c, &want,
            "N={} mode={:?} lda={} ldb={} ta={} tb={}", nmod, mode, lda, ldb, trans_a, trans_b
        );
    }

    /// Row-major views (the zero-copy transpose representation) feed the
    /// contiguous/gathered sweep paths swapped — results stay bitwise
    /// equal to the owned path.
    #[test]
    fn row_major_views_match_owned(
        m in 1usize..=10,
        n in 1usize..=10,
        k in 1usize..=14,
        nmod in 2usize..=16,
        seed in 0u64..1000,
    ) {
        let a = gemm_dense::workload::phi_matrix_f64(m, k, 0.6, seed, 0);
        let b = gemm_dense::workload::phi_matrix_f64(k, n, 0.6, seed + 1, 1);
        let emu = Ozaki2::new(nmod, Mode::Fast);
        let want = emu.dgemm(&a, &b);
        // Row-major storage of A and B themselves.
        let arm = a.to_row_major();
        let brm = b.to_row_major();
        let va = MatView::new(&arm, m, k, k, Layout::RowMajor);
        let vb = MatView::new(&brm, k, n, n, Layout::RowMajor);
        let got = emu.gemm(GemmArgs::new(va, vb)).unwrap();
        prop_assert_eq!(&got.c, &want, "N={}", nmod);
    }

    /// Every entry runs the one Algorithm-1 body: the named delegates,
    /// `gemm_into` with a reused workspace and its transpose/alpha/beta
    /// cases, serial, and over preparations all equal the facade, bit for
    /// bit.
    #[test]
    fn named_wrappers_equal_facade(
        m in 1usize..=10,
        n in 1usize..=10,
        k in 1usize..=14,
        nmod in 2usize..=15,
        accurate in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let mode = if accurate { Mode::Accurate } else { Mode::Fast };
        let a = gemm_dense::workload::phi_matrix_f64(m, k, 0.7, seed, 0);
        let b = gemm_dense::workload::phi_matrix_f64(k, n, 0.7, seed + 1, 1);
        let emu = Ozaki2::new(nmod, mode);
        let facade = emu.gemm(GemmArgs::new(&a, &b)).unwrap().c;

        prop_assert_eq!(&emu.dgemm(&a, &b), &facade);
        let mut ws = ozaki2::Workspace::new();
        let mut c = Matrix::<f64>::zeros(m, n);
        for _ in 0..2 {
            emu.gemm_into(GemmArgs::new(&a, &b).workspace(&mut ws), c.view_mut()).unwrap();
            prop_assert_eq!(&c, &facade);
        }
        // BLAS transpose options over stored transposes.
        let (at, bt) = (a.transpose(), b.transpose());
        let args = GemmArgs::new(&at, &bt).trans_a(GemmOp::T).trans_b(GemmOp::T);
        emu.gemm_into(args.workspace(&mut ws), c.view_mut()).unwrap();
        prop_assert_eq!(&c, &facade);
        // alpha/beta epilogue: C ← 2·AB + 0.5·C.
        let c0 = Matrix::<f64>::from_fn(m, n, |i, j| (i + 2 * j) as f64);
        let mut cab = c0.clone();
        emu.gemm_into(GemmArgs::new(&a, &b).alpha(2.0).beta(0.5), cab.view_mut()).unwrap();
        for j in 0..n {
            for i in 0..m {
                prop_assert_eq!(cab[(i, j)], 2.0 * facade[(i, j)] + 0.5 * c0[(i, j)]);
            }
        }
        // Serial over two views (either mode), and over preparations.
        let serial = GemmArgs::new(&a, &b).parallel(false);
        emu.gemm_into(serial.workspace(&mut ws), c.view_mut()).unwrap();
        prop_assert_eq!(&c, &facade);
        if !accurate {
            let pa = emu.prepare(OperandSide::A, &a).unwrap();
            let pb = emu.prepare(OperandSide::B, &b).unwrap();
            emu.gemm_into(GemmArgs::new(&pa, &pb).workspace(&mut ws), c.view_mut()).unwrap();
            prop_assert_eq!(&c, &facade);
            emu.gemm_into(GemmArgs::new(&a, &pb).workspace(&mut ws), c.view_mut()).unwrap();
            prop_assert_eq!(&c, &facade);
            emu.gemm_into(GemmArgs::new(&pa, &b).workspace(&mut ws), c.view_mut()).unwrap();
            prop_assert_eq!(&c, &facade);
        }

        // f32 family.
        let af = gemm_dense::workload::phi_matrix_f32(m, k, 0.5, seed, 0);
        let bf = gemm_dense::workload::phi_matrix_f32(k, n, 0.5, seed + 1, 1);
        let emu8 = Ozaki2::new(nmod.min(18), mode);
        let facade32 = emu8.gemm(GemmArgs::new(&af, &bf)).unwrap().c;
        prop_assert_eq!(&emu8.sgemm(&af, &bf), &facade32);
        let mut cf = Matrix::<f32>::zeros(m, n);
        emu8.gemm_into(GemmArgs::new(&af, &bf).workspace(&mut ws), cf.view_mut()).unwrap();
        prop_assert_eq!(&cf, &facade32);
        let serial = GemmArgs::new(&af, &bf).parallel(false);
        emu8.gemm_into(serial.workspace(&mut ws), cf.view_mut()).unwrap();
        prop_assert_eq!(&cf, &facade32);
        if !accurate {
            let pbf = emu8.prepare(OperandSide::B, &bf).unwrap();
            emu8.gemm_into(GemmArgs::new(&af, &pbf).workspace(&mut ws), cf.view_mut()).unwrap();
            prop_assert_eq!(&cf, &facade32);
        }
    }
}

// ---------------------------------------------------------------------------
// Line 1 over views: the dispatched pass against the scalar oracles.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fast_scale_view_matches_oracles(
        seed in any::<u64>(),
        vecs in 1usize..70,
        k in 1usize..90,
        pad in 0usize..3,
        row_major in any::<bool>(),
        side_a in any::<bool>(),
        single in any::<bool>(),
        spread in 0i32..200,
    ) {
        // Entries `±[1, 2)·2^e` with `e` spread over `±spread` (within
        // f32 range for the f32 case), one zero vector when there are two
        // or more; every view layout with a padded leading dimension.
        let side = if side_a { OperandSide::A } else { OperandSide::B };
        let spread = if single { spread.min(100) } else { spread };
        let mut state = seed | 1;
        let mut draw = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 11
        };
        let logical = Matrix::<f64>::from_fn(vecs, k, |v, _| {
            let r = draw();
            let x = (1.0 + (r >> 12) as f64 / (1u64 << 41) as f64) * if r & 1 == 0 { 1.0 } else { -1.0 };
            let e = (r >> 53) as i32 % (2 * spread + 1) - spread;
            if vecs > 1 && v == vecs / 2 { 0.0 } else { scale_by_pow2(x, e) }
        });
        let logical = if single { logical.map(|x| x as f32 as f64) } else { logical };
        let mat = if side_a { logical } else { logical.transpose() };
        let budget = constants(15).p_fast;
        let want = if side_a { fast_scale_rows(&mat, budget) } else { fast_scale_cols(&mat, budget) };
        let layout = if row_major { Layout::RowMajor } else { Layout::ColMajor };
        let (rows, cols) = mat.shape();
        let ld = if row_major { cols } else { rows } + pad;
        let major = if row_major { rows } else { cols };
        let at = |i: usize, j: usize| if row_major { i * ld + j } else { i + j * ld };
        let mut buf = vec![f64::NAN; major * ld];
        for i in 0..rows {
            for j in 0..cols {
                buf[at(i, j)] = mat[(i, j)];
            }
        }
        let got = if single {
            let buf32: Vec<f32> = buf.iter().map(|&x| x as f32).collect();
            ozaki2::fast_scale_view(&MatView::new(&buf32, rows, cols, ld, layout), side, budget, true)
        } else {
            ozaki2::fast_scale_view(&MatView::new(&buf, rows, cols, ld, layout), side, budget, true)
        };
        prop_assert_eq!(&got.0, &want);
        prop_assert!(got.1, "finite operand flagged non-finite");
    }
}
