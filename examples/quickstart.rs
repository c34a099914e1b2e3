//! Quickstart: emulate DGEMM and SGEMM with Ozaki Scheme II and compare
//! accuracy against native GEMM and the paper's baselines.
//!
//! Run: `cargo run --release --example quickstart`

use gemmul8::prelude::*;

fn main() {
    let (m, n, k) = (256, 256, 512);
    println!("== GEMMul8-rs quickstart: {m}x{k} times {k}x{n} ==\n");

    // The paper's workload: a_ij = (rand - 0.5) * exp(phi * randn),
    // phi = 0.5 is HPL-like. Fixed seed => fully reproducible.
    let a = phi_matrix_f64(m, k, PHI_HPL, 42, 0);
    let b = phi_matrix_f64(k, n, PHI_HPL, 42, 1);

    // High-accuracy oracle (double-double accumulation).
    let exact = dd_gemm(&a, &b);

    // The canonical entry: build from an accuracy target (the builder
    // resolves N through the a-priori model — DGEMM-level at this k) and
    // run the unified view facade. Operand views make transposes free:
    // C = A · (Bᵀ)ᵀ below reads the transposed buffer with zero copies.
    let emu = Ozaki2::builder()
        .accuracy(Accuracy::Fp64Equivalent)
        .mode(Mode::Fast)
        .k(k)
        .build()
        .expect("fp64-level accuracy is reachable");
    let bt = b.transpose(); // pretend the caller stores B transposed
    let out = emu
        .gemm(GemmArgs::new(&a, &bt).trans_b(GemmOp::T))
        .expect("finite inputs");
    println!(
        "builder resolved N = {} for k = {k}; transposed-view DGEMM error {:.3e} \
         ({} INT8 GEMMs)\n",
        emu.n_moduli(),
        max_rel_error_vs_dd(&out.c, &exact),
        out.report.int8_gemm_calls
    );

    println!("-- DGEMM emulation: error vs number of moduli N --");
    println!("{:<16} {:>14}", "method", "max rel error");
    let native = NativeDgemm.matmul_f64(&a, &b);
    println!(
        "{:<16} {:>14.3e}",
        "DGEMM",
        max_rel_error_vs_dd(&native, &exact)
    );
    for nmod in [6usize, 10, 14, 15, 17] {
        for mode in [Mode::Fast, Mode::Accurate] {
            let method = Ozaki2::new(nmod, mode);
            let c = method.dgemm(&a, &b);
            println!(
                "{:<16} {:>14.3e}",
                MatMulF64::name(&method),
                max_rel_error_vs_dd(&c, &exact)
            );
        }
    }

    println!("\n-- SGEMM emulation --");
    let a32 = phi_matrix_f32(m, k, 0.5, 7, 0);
    let b32 = phi_matrix_f32(k, n, 0.5, 7, 1);
    let exact32 = dd_gemm(&a32.map(|x| x as f64), &b32.map(|x| x as f64));
    let err32 = |c: &MatF32| max_rel_error_vs_dd(&c.map(|x| x as f64), &exact32);

    println!("{:<16} {:>14}", "method", "max rel error");
    println!(
        "{:<16} {:>14.3e}",
        "SGEMM",
        err32(&NativeSgemm.matmul_f32(&a32, &b32))
    );
    println!(
        "{:<16} {:>14.3e}",
        "TF32GEMM",
        err32(&Tf32Gemm.matmul_f32(&a32, &b32))
    );
    println!(
        "{:<16} {:>14.3e}",
        "BF16x9",
        err32(&Bf16x9.matmul_f32(&a32, &b32))
    );
    println!(
        "{:<16} {:>14.3e}",
        "cuMpSGEMM",
        err32(&CuMpSgemm.matmul_f32(&a32, &b32))
    );
    for nmod in [4usize, 6, 8] {
        let method = Ozaki2::new(nmod, Mode::Fast);
        println!(
            "{:<16} {:>14.3e}",
            MatMulF32::name(&method),
            err32(&method.sgemm(&a32, &b32))
        );
    }

    println!("\nExpected: OS II error shrinks ~4 bits per extra modulus (each modulus");
    println!("adds ~8 bits to P, split across the two operands); N=15 matches DGEMM,");
    println!("N=8 matches SGEMM, small N lands between TF32 and SGEMM (Fig. 3).");
}
