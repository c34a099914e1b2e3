//! Figure 7: time breakdown of SGEMM emulation by Algorithm-1 line
//! (fast/accurate, RTX 5080 + GH200, modelled; `--measured` adds the CPU
//! pipeline's wall-clock phase split).
//!
//! Usage:
//!   cargo run --release -p gemm-bench --bin fig7_breakdown_sgemm
//!   cargo run --release -p gemm-bench --bin fig7_breakdown_sgemm -- --measured --size=512

use gemm_bench::report::{print_table, Args};
use gemm_dense::workload::phi_matrix_f32;
use gemm_perfmodel::{breakdown, gh200, rtx5080, Os2Input, Os2Mode};
use ozaki2::{GemmArgs, Mode, Ozaki2};

fn main() {
    let args = Args::from_env();
    let nmod: usize = args.get("n").unwrap_or(8);
    let mut out = std::io::stdout().lock();

    for device in [rtx5080(), gh200()] {
        for (mode, label) in [(Os2Mode::Fast, "fast"), (Os2Mode::Accurate, "accurate")] {
            println!(
                "# Figure 7 — SGEMM emulation time breakdown ({label} mode, N={nmod}) on {} [modelled]",
                device.name
            );
            let bars = breakdown(device, nmod, mode, Os2Input::F32);
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
        let a = phi_matrix_f32(size, size, 0.5, 77, 0);
        let b = phi_matrix_f32(size, size, 0.5, 77, 1);
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
    println!("Expected shape (paper §5.3): SGEMM conversion is much cheaper than in");
    println!("Fig. 6 on RTX 5080 because it runs in FP32 (64x faster than FP64 there).");
}
