//! Production workflow: pick the moduli count from an accuracy target,
//! check the shape is in the emulation's sweet spot, and reuse one
//! workspace across repeated products.
//!
//! Run: `cargo run --release --example auto_precision`

use gemm_perfmodel::{gh200, recommend_dgemm, Recommendation};
use gemmul8::prelude::*;
use ozaki2::{n_for_dgemm_level, predicted_error};

fn main() {
    println!("== Automatic precision + deployment workflow ==\n");

    // 1. Accuracy target -> moduli count (per inner dimension).
    println!("-- N needed for DGEMM-level accuracy vs inner dimension k --");
    println!("{:<10} {:>4} {:>16}", "k", "N", "predicted error");
    for k in [256usize, 1024, 4096, 16384, 65536] {
        let n = n_for_dgemm_level(k);
        println!("{:<10} {:>4} {:>16.2e}", k, n, predicted_error(n, k));
    }

    // 2. Shape advisor: is emulation worth it on the target device?
    println!("\n-- Deployment advisor (GH200 model, N from accuracy target) --");
    println!("{:<26} {:>12}", "shape (m x k x n)", "verdict");
    for (m, k, n) in [
        (1024usize, 1024usize, 1024usize),
        (4096, 4096, 4096),
        (16384, 16384, 16384),
        (65536, 64, 65536), // tall-and-skinny: excluded by the paper
    ] {
        let nmod = n_for_dgemm_level(k).min(ozaki2::N_MAX);
        let verdict = match recommend_dgemm(gh200(), m, n, k, nmod) {
            Recommendation::Native => "native DGEMM".to_string(),
            Recommendation::Emulate { n_moduli, speedup } => {
                format!("emulate N={n_moduli} ({speedup:.2}x)")
            }
        };
        println!("{:<26} {:>12}", format!("{m} x {k} x {n}"), verdict);
    }

    // 3. Workspace reuse: iterative consumers allocate scratch once.
    println!("\n-- Workspace reuse across an iteration (m = n = k = 256) --");
    let (m, n, k) = (256usize, 256, 256);
    let nmod = n_for_dgemm_level(k);
    let emu = Ozaki2::new(nmod, Mode::Fast);
    let mut ws = Workspace::new();
    let mut a = phi_matrix_f64(m, k, 0.5, 1, 0);
    let b = phi_matrix_f64(k, n, 0.5, 1, 1);
    let mut c = MatF64::zeros(m, n);
    for iter in 0..3 {
        emu.gemm_into(GemmArgs::new(&a, &b).workspace(&mut ws), c.view_mut())
            .expect("finite, shape-consistent operands");
        // Feed the result back in (power-iteration style).
        let scale = 1.0 / gemm_dense::norms::max_abs_f64(&c).max(1e-300);
        a = c.map(|x| x * scale);
        println!(
            "iter {iter}: ||C||_max scaled by {scale:.3e}, workspace {:.1} MiB",
            ws.bytes() as f64 / (1024.0 * 1024.0)
        );
    }
    println!("\nDone — same results as one-shot Ozaki2::dgemm, zero steady-state allocation.");
}
