//! Cross-crate exactness and failure-injection tests.

use gemmul8::prelude::*;
use ozaki2::{EmulationError, OperandSide};

/// Integer-valued inputs small enough that every pipeline step is exact.
/// For N <= 10 the fold's FMA chain also stays exact and the result is
/// **bitwise** the integer product; for larger N the line-11 fold rounds
/// once at the scaled-C'' magnitude, giving at most a couple of ulps.
#[test]
fn integer_products_are_bit_exact() {
    let mut rng = Philox4x32::new(424242);
    for &(m, n, k) in &[(17usize, 13usize, 29usize), (32, 32, 64), (5, 40, 7)] {
        let a = Matrix::from_fn(m, k, |_, _| ((rng.next_u32() % 201) as f64) - 100.0);
        let b = Matrix::from_fn(k, n, |_, _| ((rng.next_u32() % 201) as f64) - 100.0);
        let exact = NativeDgemm.matmul_f64(&a, &b); // exact: small integers
        for nmod in [4usize, 8, 10] {
            for mode in [Mode::Fast, Mode::Accurate] {
                let c = Ozaki2::new(nmod, mode).dgemm(&a, &b);
                for (got, want) in c.iter().zip(exact.iter()) {
                    assert_eq!(got, want, "{m}x{n}x{k} N={nmod} {mode:?}");
                }
            }
        }
        for nmod in [15usize, 20] {
            for mode in [Mode::Fast, Mode::Accurate] {
                let c = Ozaki2::new(nmod, mode).dgemm(&a, &b);
                for (got, want) in c.iter().zip(exact.iter()) {
                    let tol = 4.0 * f64::EPSILON * want.abs().max(1.0);
                    assert!(
                        (got - want).abs() <= tol,
                        "{m}x{n}x{k} N={nmod} {mode:?}: {got} vs {want}"
                    );
                }
            }
        }
    }
}

#[test]
fn integer_products_bit_exact_through_sgemm_path() {
    let mut rng = Philox4x32::new(7);
    let (m, n, k) = (24usize, 24usize, 48usize);
    let a = Matrix::from_fn(m, k, |_, _| ((rng.next_u32() % 31) as f32) - 15.0);
    let b = Matrix::from_fn(k, n, |_, _| ((rng.next_u32() % 31) as f32) - 15.0);
    let exact = NativeSgemm.matmul_f32(&a, &b);
    for nmod in [6usize, 10, 14] {
        let c = Ozaki2::new(nmod, Mode::Fast).sgemm(&a, &b);
        for (got, want) in c.iter().zip(exact.iter()) {
            assert_eq!(got, want, "N={nmod}");
        }
    }
}

#[test]
fn k_blocking_path_matches_direct() {
    // k just above 2^17 exercises the block-residue accumulation; compare
    // against native DGEMM on integer inputs (exact on both sides).
    let k = (1 << 17) + 64;
    let (m, n) = (3usize, 2usize);
    let mut rng = Philox4x32::new(99);
    let a = Matrix::from_fn(m, k, |_, _| ((rng.next_u32() % 5) as f64) - 2.0);
    let b = Matrix::from_fn(k, n, |_, _| ((rng.next_u32() % 5) as f64) - 2.0);
    // Exact integer product via i64.
    let exact = Matrix::from_fn(m, n, |i, j| {
        let mut acc = 0i64;
        for h in 0..k {
            acc += (a[(i, h)] as i64) * (b[(h, j)] as i64);
        }
        acc as f64
    });
    let c = Ozaki2::new(8, Mode::Fast).dgemm(&a, &b);
    for (got, want) in c.iter().zip(exact.iter()) {
        assert_eq!(got, want, "k-blocked path must stay exact");
    }
}

#[test]
fn rejects_nan_and_inf_everywhere() {
    let good = phi_matrix_f64(8, 8, 0.5, 1, 0);
    for bad_val in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut bad = good.clone();
        bad[(3, 4)] = bad_val;
        let e = Ozaki2::new(8, Mode::Fast)
            .gemm(GemmArgs::new(&bad, &good))
            .unwrap_err();
        assert_eq!(
            e,
            EmulationError::NonFiniteInput {
                side: OperandSide::A,
                index: 35, // col-major storage offset of (3, 4) with m = 8
            }
        );
        let e = Ozaki2::new(8, Mode::Fast)
            .gemm(GemmArgs::new(&good, &bad))
            .unwrap_err();
        assert_eq!(
            e,
            EmulationError::NonFiniteInput {
                side: OperandSide::B,
                index: 35,
            }
        );
    }
}

#[test]
fn extreme_exponents_survive() {
    // Entries spanning 2^±300: the power-of-two scaling paths must not
    // overflow/underflow (scale_by_pow2 splits out-of-range exponents).
    let a = Matrix::from_fn(8, 8, |i, j| {
        let base = phi_matrix_f64(8, 8, 0.5, 5, 0)[(i, j)];
        base * 2f64.powi(if i % 2 == 0 { 300 } else { -300 })
    });
    let b = Matrix::from_fn(8, 8, |i, j| {
        let base = phi_matrix_f64(8, 8, 0.5, 5, 1)[(i, j)];
        base * 2f64.powi(if j % 2 == 0 { -280 } else { 280 })
    });
    let exact = dd_gemm(&a, &b);
    let c = Ozaki2::new(15, Mode::Fast).dgemm(&a, &b);
    assert!(c.iter().all(|x| x.is_finite()));
    let err = max_rel_error_vs_dd(&c, &exact);
    assert!(err < 1e-9, "err={err:e}");
}

#[test]
fn zero_matrices_and_zero_rows() {
    let z = MatF64::zeros(16, 16);
    let a = phi_matrix_f64(16, 16, 0.5, 3, 0);
    let c = Ozaki2::new(10, Mode::Fast).dgemm(&z, &a);
    assert!(c.iter().all(|&x| x == 0.0));
    let c = Ozaki2::new(10, Mode::Accurate).dgemm(&a, &z);
    assert!(c.iter().all(|&x| x == 0.0));

    // A single zero row must produce a zero output row, everything else
    // unharmed.
    let mut a0 = a.clone();
    for j in 0..16 {
        a0[(5, j)] = 0.0;
    }
    let b = phi_matrix_f64(16, 16, 0.5, 3, 1);
    let c = Ozaki2::new(12, Mode::Fast).dgemm(&a0, &b);
    for j in 0..16 {
        assert_eq!(c[(5, j)], 0.0);
    }
    let exact = dd_gemm(&a0, &b);
    assert!(max_rel_error_vs_dd(&c, &exact) < 1e-8);
}

#[test]
fn determinism_across_runs() {
    let a = phi_matrix_f64(64, 64, 1.0, 2024, 0);
    let b = phi_matrix_f64(64, 64, 1.0, 2024, 1);
    let runs: Vec<MatF64> = (0..3)
        .map(|_| Ozaki2::new(12, Mode::Accurate).dgemm(&a, &b))
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[1], runs[2]);
}

#[test]
fn all_n_values_work_dgemm() {
    let a = phi_matrix_f64(16, 16, 0.5, 31, 0);
    let b = phi_matrix_f64(16, 16, 0.5, 31, 1);
    let exact = dd_gemm(&a, &b);
    let mut prev = f64::INFINITY;
    for nmod in 2..=20 {
        let c = Ozaki2::new(nmod, Mode::Fast).dgemm(&a, &b);
        let e = max_rel_error_vs_dd(&c, &exact).max(1e-17);
        // Monotone-ish: allow small noise, catch catastrophic regressions.
        assert!(
            e < prev * 16.0,
            "N={nmod}: error {e:e} regressed vs {prev:e}"
        );
        prev = e;
    }
    assert!(
        prev < 1e-15,
        "N=20 should be beyond double precision: {prev:e}"
    );
}

#[test]
fn all_n_values_work_sgemm() {
    let a = phi_matrix_f32(16, 16, 0.5, 32, 0);
    let b = phi_matrix_f32(16, 16, 0.5, 32, 1);
    for nmod in 2..=18 {
        let c = Ozaki2::new(nmod, Mode::Fast).sgemm(&a, &b);
        assert!(c.iter().all(|x| x.is_finite()), "N={nmod}");
    }
}

/// Worker-count bit-identity for the facade surface: the same products
/// at `W ∈ {1, 2, 4, 8}` (monolithic DGEMM/SGEMM with engine stripes,
/// strided views, both modes) must match the 1-worker result bitwise —
/// parallelism is a throughput knob, never an accuracy knob. Runs under
/// the forced-scalar and fault-injection CI jobs too, so the scalar
/// kernels and concurrent ABFT recovery are held to the same bar.
#[test]
fn facade_results_are_bit_identical_across_worker_counts() {
    let a = phi_matrix_f64(96, 80, 0.6, 77, 0);
    let b = phi_matrix_f64(80, 88, 0.6, 78, 1);
    let af = phi_matrix_f32(64, 48, 0.5, 79, 0);
    let bf = phi_matrix_f32(48, 56, 0.5, 80, 1);

    rayon::set_num_threads(1);
    let want_d_fast = Ozaki2::new(12, Mode::Fast).dgemm(&a, &b);
    let want_d_acc = Ozaki2::new(12, Mode::Accurate).dgemm(&a, &b);
    let want_s = Ozaki2::new(8, Mode::Fast).sgemm(&af, &bf);

    for w in [2usize, 4, 8] {
        // The builder override is the public road to the same pool knob.
        let emu = Ozaki2::builder()
            .accuracy(Accuracy::FixedN(12))
            .mode(Mode::Fast)
            .workers(w)
            .build()
            .unwrap();
        assert_eq!(rayon::current_num_threads(), w);
        assert_eq!(
            emu.dgemm(&a, &b),
            want_d_fast,
            "DGEMM fast diverged at W={w}"
        );
        assert_eq!(
            Ozaki2::new(12, Mode::Accurate).dgemm(&a, &b),
            want_d_acc,
            "DGEMM accurate diverged at W={w}"
        );
        assert_eq!(
            Ozaki2::new(8, Mode::Fast).sgemm(&af, &bf),
            want_s,
            "SGEMM diverged at W={w}"
        );
    }
    rayon::set_num_threads(0);
}

#[test]
fn report_phases_cover_total() {
    let a = phi_matrix_f64(48, 48, 0.5, 8, 0);
    let b = phi_matrix_f64(48, 48, 0.5, 8, 1);
    let rep = Ozaki2::new(10, Mode::Fast)
        .gemm(GemmArgs::new(&a, &b))
        .unwrap()
        .report;
    let total = rep.phases.total();
    assert!(total.as_nanos() > 0);
    assert_eq!(rep.n_moduli, 10);
    assert_eq!(rep.shape, (48, 48, 48));
    let rows = rep.phases.as_rows();
    assert_eq!(rows.len(), 7);
}
