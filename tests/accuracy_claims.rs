//! Integration tests reproducing the paper's §5.1 accuracy claims at
//! reduced (CI-friendly) sizes. The `N`-thresholds shift with `log2 k`,
//! so claims are tested in scale-adjusted form where needed.

use gemmul8::prelude::*;

fn dgemm_err(
    nmod: usize,
    mode: Mode,
    a: &MatF64,
    b: &MatF64,
    exact: &gemm_dense::Matrix<Dd>,
) -> f64 {
    max_rel_error_vs_dd(&Ozaki2::new(nmod, mode).dgemm(a, b), exact)
}

#[test]
fn claim_fast_14_slightly_below_dgemm_fast_15_on_par() {
    // §5.1 (phi = 0.5): OS II-fast-14 slightly lower accuracy than DGEMM;
    // OS II-fast-15 on par or better. k here is 512 (vs the paper's 1024),
    // which shifts the truncation budget by half a bit — the ordering is
    // unchanged.
    let (m, n, k) = (128, 128, 512);
    let a = phi_matrix_f64(m, k, 0.5, 1001, 0);
    let b = phi_matrix_f64(k, n, 0.5, 1001, 1);
    let exact = dd_gemm(&a, &b);
    let native = max_rel_error_vs_dd(&NativeDgemm.matmul_f64(&a, &b), &exact);
    let fast14 = dgemm_err(14, Mode::Fast, &a, &b, &exact);
    let fast15 = dgemm_err(15, Mode::Fast, &a, &b, &exact);
    assert!(
        fast14 > native / 4.0,
        "fast-14 ({fast14:e}) should not beat DGEMM ({native:e}) decisively"
    );
    assert!(
        fast15 <= native * 4.0,
        "fast-15 ({fast15:e}) should be at DGEMM level ({native:e})"
    );
    assert!(fast15 < fast14, "more moduli must not hurt");
}

#[test]
fn claim_error_shrinks_about_4_bits_per_modulus() {
    // Each modulus adds ~7.9 bits to log2 P, but the budget is split
    // between the two operands, so the *product* error shrinks ~4 bits per
    // modulus — matching Fig. 3's span (SGEMM level at N≈8 to DGEMM level
    // at N≈15: 29 bits over 7 moduli).
    let (m, n, k) = (96, 96, 256);
    let a = phi_matrix_f64(m, k, 0.5, 7, 0);
    let b = phi_matrix_f64(k, n, 0.5, 7, 1);
    let exact = dd_gemm(&a, &b);
    let e8 = dgemm_err(8, Mode::Fast, &a, &b, &exact);
    let e12 = dgemm_err(12, Mode::Fast, &a, &b, &exact);
    let bits_gained = (e8 / e12).log2() / 4.0;
    assert!(
        (2.5..6.0).contains(&bits_gained),
        "expected ~4 bits per modulus, got {bits_gained}"
    );
}

#[test]
fn claim_fast_mode_degrades_with_phi_accurate_holds() {
    // §5.1: "the limiting accuracy of OS II-fast-N got worse as phi
    // increased … accurate mode achieves sufficient accuracy with N <= 17
    // even for phi = 4".
    let (m, n, k) = (96, 96, 256);
    let nmod = 14;
    // Same seed for every phi: the underlying draws are identical, only
    // the exponent spread changes — the cleanest comparison.
    let mut fast_errs = Vec::new();
    let mut accu_errs = Vec::new();
    for phi in [0.5f64, 2.0, 4.0] {
        let a = phi_matrix_f64(m, k, phi, 300, 0);
        let b = phi_matrix_f64(k, n, phi, 300, 1);
        let exact = dd_gemm(&a, &b);
        fast_errs.push(dgemm_err(nmod, Mode::Fast, &a, &b, &exact));
        accu_errs.push(dgemm_err(nmod, Mode::Accurate, &a, &b, &exact));
    }
    assert!(
        fast_errs[2] > fast_errs[0] * 10.0,
        "fast mode must degrade from phi=0.5 ({:e}) to phi=4 ({:e})",
        fast_errs[0],
        fast_errs[2]
    );
    assert!(
        accu_errs[2] <= fast_errs[2] * 1.2,
        "accurate mode must be at least as good at phi=4: {:e} vs {:e}",
        accu_errs[2],
        fast_errs[2]
    );
}

#[test]
fn claim_sgemm_level_at_n_7_to_8() {
    // §5.1: "OS II-fast-N with N in {7,8} returned results with
    // SGEMM-level accuracy" for phi <= 1.
    let (m, n, k) = (128, 128, 256);
    let a = phi_matrix_f32(m, k, 0.5, 55, 0);
    let b = phi_matrix_f32(k, n, 0.5, 55, 1);
    let exact = dd_gemm(&a.map(|x| x as f64), &b.map(|x| x as f64));
    let err = |c: &MatF32| max_rel_error_vs_dd(&c.map(|x| x as f64), &exact);
    let native = err(&NativeSgemm.matmul_f32(&a, &b));
    let e8 = err(&Ozaki2::new(8, Mode::Fast).sgemm(&a, &b));
    assert!(
        e8 <= native * 8.0,
        "fast-8 ({e8:e}) should be at SGEMM level ({native:e})"
    );
}

#[test]
fn claim_small_n_is_tf32_level() {
    // §5.1: "OS II-fast-N with N in {4,...,7} achieved TF32-level
    // accuracy" — between TF32 and SGEMM.
    let (m, n, k) = (96, 96, 256);
    let a = phi_matrix_f32(m, k, 0.5, 66, 0);
    let b = phi_matrix_f32(k, n, 0.5, 66, 1);
    let exact = dd_gemm(&a.map(|x| x as f64), &b.map(|x| x as f64));
    let err = |c: &MatF32| max_rel_error_vs_dd(&c.map(|x| x as f64), &exact);
    let tf32 = err(&Tf32Gemm.matmul_f32(&a, &b));
    let sgemm = err(&NativeSgemm.matmul_f32(&a, &b));
    let e5 = err(&Ozaki2::new(5, Mode::Fast).sgemm(&a, &b));
    assert!(
        e5 < tf32 * 2.0,
        "fast-5 ({e5:e}) should be at least TF32 level ({tf32:e})"
    );
    assert!(e5 > sgemm / 100.0, "but not at full SGEMM level yet");
}

#[test]
fn claim_fast_small_n_wide_phi_collapses() {
    // §5.1: "For phi in {0.5, 1, 1.5}, OS II-fast-2 yields A' = O and
    // B' = O due to overestimation in (7)". In the authors' formula the
    // Cauchy–Schwarz bound with N = 2's tiny P truncates *everything*
    // away; our per-row-normalised variant of the same bound keeps a few
    // sign bits, but the result is equally unusable (relative error far
    // above 1) and recovers as N grows — the same cliff as in Fig. 3.
    let (m, n, k) = (64, 64, 1024);
    let a = phi_matrix_f32(m, k, 1.5, 77, 0);
    let b = phi_matrix_f32(k, n, 1.5, 77, 1);
    let exact = dd_gemm(&a.map(|x| x as f64), &b.map(|x| x as f64));
    let err = |nmod: usize| {
        let c = Ozaki2::new(nmod, Mode::Fast).sgemm(&a, &b);
        max_rel_error_vs_dd(&c.map(|x| x as f64), &exact)
    };
    let e2 = err(2);
    let e3 = err(3);
    let e5 = err(5);
    assert!(e2 > 10.0, "fast-2 must be unusable at phi=1.5: {e2:e}");
    assert!(
        e3 < e2 && e5 < e3,
        "and recover with N: {e2:e} > {e3:e} > {e5:e}"
    );
    assert!(e5 < 1.0, "fast-5 should carry real signal: {e5:e}");
}

#[test]
fn claim_bf16x9_equivalent_to_sgemm() {
    // §5.1: "SGEMM and BF16x9 exhibited equivalent accuracy".
    let (m, n, k) = (96, 96, 192);
    let a = phi_matrix_f32(m, k, 0.5, 88, 0);
    let b = phi_matrix_f32(k, n, 0.5, 88, 1);
    let exact = dd_gemm(&a.map(|x| x as f64), &b.map(|x| x as f64));
    let err = |c: &MatF32| max_rel_error_vs_dd(&c.map(|x| x as f64), &exact);
    let sgemm = err(&NativeSgemm.matmul_f32(&a, &b));
    let bf = err(&Bf16x9.matmul_f32(&a, &b));
    let ratio = (bf / sgemm).max(sgemm / bf);
    assert!(
        ratio < 32.0,
        "SGEMM {sgemm:e} vs BF16x9 {bf:e}: same order expected"
    );
}

#[test]
fn claim_k_growth_costs_half_bit_per_doubling() {
    // Condition (3) spends log2(k) bits of P on the dot-product length:
    // going from k to 4k costs ~1 bit of accuracy per operand (2 total).
    let (m, n) = (64, 64);
    let a1 = phi_matrix_f64(m, 256, 0.5, 12, 0);
    let b1 = phi_matrix_f64(256, n, 0.5, 12, 1);
    let a2 = phi_matrix_f64(m, 4096, 0.5, 12, 2);
    let b2 = phi_matrix_f64(4096, n, 0.5, 12, 3);
    let e1 = max_rel_error_vs_dd(
        &Ozaki2::new(10, Mode::Fast).dgemm(&a1, &b1),
        &dd_gemm(&a1, &b1),
    );
    let e2 = max_rel_error_vs_dd(
        &Ozaki2::new(10, Mode::Fast).dgemm(&a2, &b2),
        &dd_gemm(&a2, &b2),
    );
    assert!(
        e2 > e1,
        "larger k must cost accuracy: k=256 -> {e1:e}, k=4096 -> {e2:e}"
    );
    assert!(e2 < e1 * 1e4, "but only a few bits");
}

/// The fast-inference accuracy point: very few planes, loose bound, and
/// the report carries the predicted error the builder promised.
#[test]
fn claim_fast_inference_mode_trades_accuracy_for_planes() {
    let (m, n, k) = (64, 64, 1024);
    let emu = Ozaki2::builder()
        .accuracy(Accuracy::FastInference)
        .k(k)
        .build()
        .expect("fast-inference target is always reachable");
    assert!(
        emu.n_moduli() <= 7,
        "fast inference should need few planes, got {}",
        emu.n_moduli()
    );
    let a = phi_matrix_f64(m, k, 0.5, 33, 0);
    let b = phi_matrix_f64(k, n, 0.5, 33, 1);
    let exact = gemm_dense::gemm::gemm_f64_naive(&a, &b);
    let mut report = None;
    let out = emu
        .gemm(GemmArgs::new(&a, &b).report(&mut report))
        .expect("runs");
    let report = report.expect("report collected");
    assert!(report.predicted_error > 0.0);
    assert!(
        report.predicted_error <= 2f64.powi(-10) * 2.0,
        "predicted {:e} should honour the 2^-10 target",
        report.predicted_error
    );
    let measured = normwise_relative_error(&out.c, &exact);
    assert!(
        measured <= report.predicted_error * 32.0,
        "measured {measured:e} vs predicted {:e}",
        report.predicted_error
    );
}
