//! Figure 6: time breakdown of DGEMM emulation by Algorithm-1 line, in
//! fast and accurate modes, on RTX 5080 and GH200 (modelled), plus an
//! optional *measured* breakdown of this repository's CPU pipeline
//! (`--measured`), which exercises the same phase structure.
//!
//! Usage:
//!   cargo run --release -p gemm-bench --bin fig6_breakdown_dgemm
//!   cargo run --release -p gemm-bench --bin fig6_breakdown_dgemm -- --measured --size=512

use gemm_bench::report::{print_table, Args};
use gemm_dense::workload::phi_matrix_f64;
use gemm_perfmodel::{breakdown, gh200, rtx5080, Os2Input, Os2Mode};
use ozaki2::{GemmArgs, Mode, Ozaki2};

fn main() {
    let args = Args::from_env();
    let nmod: usize = args.get("n").unwrap_or(15);
    let mut out = std::io::stdout().lock();

    for device in [rtx5080(), gh200()] {
        for (mode, label) in [(Os2Mode::Fast, "fast"), (Os2Mode::Accurate, "accurate")] {
            println!(
                "# Figure 6 — DGEMM emulation time breakdown ({label} mode, N={nmod}) on {} [modelled]",
                device.name
            );
            let bars = breakdown(device, nmod, mode, Os2Input::F64);
            let header: Vec<String> = std::iter::once("n".to_string())
                .chain(bars[0].shares.iter().map(|(l, _)| l.to_string()))
                .collect();
            let rows: Vec<Vec<String>> = bars
                .iter()
                .map(|b| {
                    std::iter::once(b.n.to_string())
                        .chain(b.shares.iter().map(|(_, f)| format!("{:.1}%", f * 100.0)))
                        .collect()
                })
                .collect();
            print_table(&mut out, &header, &rows);
            println!();
        }
    }

    if args.flag("measured") {
        let size: usize = args.get("size").unwrap_or(256);
        println!("# Measured breakdown of this repository's CPU pipeline (m=n=k={size})");
        let a = phi_matrix_f64(size, size, 0.5, 99, 0);
        let b = phi_matrix_f64(size, size, 0.5, 99, 1);
        for mode in [Mode::Fast, Mode::Accurate] {
            let emu = Ozaki2::new(nmod, mode);
            let rep = emu
                .gemm(GemmArgs::new(&a, &b))
                .expect("finite operands")
                .report;
            let total = rep.phases.total().as_secs_f64();
            println!("mode = {:?}, total = {:.3} ms", mode, total * 1e3);
            for (label, secs) in rep.phases.as_rows() {
                println!(
                    "  {label:<22} {:>7.3} ms  ({:>4.1}%)",
                    secs * 1e3,
                    100.0 * secs / total
                );
            }
        }
    }
    println!("Expected shape (paper §5.3): conversion dominates overheads on RTX 5080");
    println!("(slow FP64); on GH200 the INT8 GEMM share grows with n; accurate mode");
    println!("adds the estimation GEMM to the scale phase.");
}
