//! Production workflow: pick the moduli count from an accuracy target,
//! see how each shape is scheduled on this host, and reuse one workspace
//! across repeated products.
//!
//! Run: `cargo run --release --example auto_precision`

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

    // 2. Per-shape schedule on this host: a product whose engine phase
    //    has enough INT8 work per byte splits its stripes over the worker
    //    pool; lighter ones run whole items per worker in a batch.
    println!("\n-- Schedule per shape (N from accuracy target) --");
    println!(
        "{:<22} {:>4} {:>10}   schedule",
        "shape (m x k x n)", "N", "ops/byte"
    );
    for (m, k, n) in [
        (64usize, 64usize, 64usize),
        (256, 256, 256),
        (1024, 1024, 1024),
        (2048, 128, 2048), // rank-k update
    ] {
        let nmod = n_for_dgemm_level(k).min(ozaki2::N_MAX);
        let intensity = ozaki2::arithmetic_intensity(m, n, k, nmod);
        let schedule = if intensity < gemm_batch::INTENSITY_CROSSOVER {
            "inter-item"
        } else {
            "intra-item"
        };
        println!(
            "{:<22} {:>4} {:>10.1}   {schedule}",
            format!("{m} x {k} x {n}"),
            nmod,
            intensity
        );
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
