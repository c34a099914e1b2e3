//! Per-layer probes and roofs: the INT8 engine on the workload's plane
//! shape and on a cache-resident shape, streaming bandwidth from DRAM and
//! from L2, and the Algorithm 1 phase ledger read from
//! `EmulationReport::phases`. Byte and operation counts here are computed
//! from the shapes (a model), not counted by hardware.

use crate::gemm::{LoopSamples, TAIL};
use crate::stats::{mean, median, percentile, Metrics};
use crate::Ctx;
use gemm_dense::Philox4x32;
use gemm_engine::{int8_gemm_blocked, padded_a_rows, padded_b_cols, padded_depth, Int8Workspace};
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// The shape of one emulated GEMM, for the computed work and byte counts.
pub struct Shape {
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub n_moduli: usize,
    /// Bytes per input/output element (8 for f64, 4 for f32).
    pub elem_bytes: usize,
}

/// DRAM roof buffer: at least 4x the 105 MiB L3.
const DRAM_BYTES: usize = 448 << 20;
/// L2 roof buffer per worker (half the 2 MiB per-core L2).
const L2_BYTES_PER_WORKER: usize = 1 << 20;
/// Cache-resident engine shape for the peak: 512 KiB per i8 operand and
/// a 1 MiB i32 product, split over the workers' L2s.
const PEAK_SHAPE: (usize, usize, usize) = (512, 512, 1024);

/// Time `f` until `secs` have passed and at least `min_reps` ran; the
/// median time in seconds.
fn median_secs(secs: f64, min_reps: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || start.elapsed().as_secs_f64() < secs {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64());
    }
    median(&times)
}

/// `int8_gemm_blocked` GOPS (2mnk per call) on random i8 operands.
pub fn engine_gops(m: usize, n: usize, k: usize, seed: u64, secs: f64) -> f64 {
    let mut rng = Philox4x32::new_stream(seed, 0x1a8);
    let mut fill = |len: usize| -> Vec<i8> { (0..len).map(|_| rng.next_u32() as i8).collect() };
    let (a, b) = (fill(m * k), fill(k * n));
    let mut c = vec![0i32; m * n];
    let mut ws = Int8Workspace::new();
    let t = median_secs(secs, 3, || {
        int8_gemm_blocked(m, n, k, &a, &b, &mut c, &mut ws);
        black_box(&mut c);
    });
    2.0 * (m * n * k) as f64 / t / 1e9
}

/// In-place scale over `buf` split across the pool's workers, `reps`
/// sweeps per chunk; GB/s counting one read and one write per element.
fn stream_gbps(buf: &mut [f64], workers: usize, reps: usize) -> f64 {
    let chunk = buf.len().div_ceil(workers);
    let bytes = 2.0 * std::mem::size_of_val(buf) as f64 * reps as f64;
    let t = median_secs(0.0, 3, || {
        buf.par_chunks_mut(chunk).for_each(|c| {
            for r in 0..reps {
                let s = black_box(if r % 2 == 0 { 0.5 } else { 2.0 });
                for x in c.iter_mut() {
                    *x *= s;
                }
            }
        });
        black_box(&mut *buf);
    });
    bytes / t / 1e9
}

/// `(dram, l2)` streaming roofs in GB/s.
pub fn stream_roofs(workers: usize) -> (f64, f64) {
    let mut big = vec![1.0f64; DRAM_BYTES / 8];
    let dram = stream_gbps(&mut big, workers, 1);
    drop(big);
    let mut small = vec![1.0f64; workers * L2_BYTES_PER_WORKER / 8];
    let l2 = stream_gbps(&mut small, workers, 400);
    (dram, l2)
}

/// The engine, phase and roof ledger of a GEMM loop on `shape`.
pub fn ledger_gemm(out: &mut Metrics, shape: &Shape, s: &LoopSamples, ws_bytes: usize, ctx: &Ctx) {
    let &Shape {
        m,
        n,
        k,
        n_moduli,
        elem_bytes,
    } = shape;
    let plane = engine_gops(m, n, k, ctx.seed, 0.3);
    let (pm, pn, pk) = PEAK_SHAPE;
    let peak = engine_gops(pm, pn, pk, ctx.seed, 0.3);
    out.add("engine.plane_gops", plane, "GOPS");
    out.add("engine.peak_gops", peak, "GOPS");
    out.add("engine.frac_of_peak", plane / peak, "ratio");
    out.add("engine.ops", 2.0 * (m * n * k * n_moduli) as f64, "count");

    let p50 = median(&s.emulated_ms);
    out.add("ozaki2.call_ms_p50", p50, "ms");
    out.add("ozaki2.call_ms_p90", percentile(&s.emulated_ms, TAIL), "ms");
    out.add(
        "ozaki2.gflops",
        2.0 * (m * n * k) as f64 / (p50 * 1e-3) / 1e9,
        "GFLOP/s",
    );

    let phase_ms = |f: fn(&ozaki2::PhaseTimes) -> std::time::Duration| {
        mean(
            &s.phases
                .iter()
                .map(|p| f(p).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let scale = phase_ms(|p| p.scale);
    let trunc = phase_ms(|p| p.trunc);
    let convert = phase_ms(|p| p.convert);
    let gemm = phase_ms(|p| p.int8_gemm);
    let modr = phase_ms(|p| p.mod_reduce);
    let fold = phase_ms(|p| p.fold);
    let total = phase_ms(|p| p.total());
    out.add("ozaki2.scale_ms", scale, "ms");
    out.add("ozaki2.trunc_ms", trunc, "ms");
    out.add("ozaki2.convert_ms", convert, "ms");
    out.add("ozaki2.gemm_ms", gemm, "ms");
    out.add("ozaki2.mod_ms", modr, "ms");
    out.add("ozaki2.fold_ms", fold, "ms");
    out.add("ozaki2.unattributed_ms", mean(&s.emulated_ms) - total, "ms");
    out.add("ozaki2.gemm_share", gemm / total, "ratio");
    out.add(
        "ozaki2.front_share",
        (scale + trunc + convert) / total,
        "ratio",
    );
    out.add("ozaki2.foldmod_share", (fold + modr) / total, "ratio");
    out.add(
        "ozaki2.workspace_mb",
        ws_bytes as f64 / (1 << 20) as f64,
        "MiB",
    );

    // Computed bytes per phase: scale reads both operands; the fused
    // trunc+convert sweep reads them again and writes N i16 panels each;
    // the fold reads N u8 planes and writes C through f64.
    let (dram, l2) = stream_roofs(ctx.workers);
    let operands = (elem_bytes * (m * k + k * n)) as f64;
    let kp = padded_depth(k);
    let panels = (2 * n_moduli * (padded_a_rows(m) + padded_b_cols(n)) * kp) as f64;
    let fold_bytes = ((n_moduli + 8) * m * n) as f64;
    let frac = |bytes: f64, ms: f64| bytes / (ms * 1e-3) / 1e9 / dram;
    out.add(
        "ozaki2.scale_frac_of_stream",
        frac(operands, scale),
        "ratio",
    );
    out.add(
        "ozaki2.convert_frac_of_stream",
        frac(operands + panels, trunc + convert),
        "ratio",
    );
    out.add(
        "ozaki2.fold_frac_of_stream",
        frac(fold_bytes, fold),
        "ratio",
    );
    out.add("mem.stream_gbps_dram", dram, "GB/s");
    out.add("mem.stream_gbps_l2", l2, "GB/s");
    out.add("native.call_ms_p50", median(&s.native_ms), "ms");
}

/// Pool counters per armed operation and the armed-vs-disarmed overhead.
pub fn pool_and_overhead(
    out: &mut Metrics,
    pool: (u64, u64, u64),
    armed_ops: usize,
    overhead: f64,
) {
    let per_op = |v: u64| v as f64 / armed_ops.max(1) as f64;
    out.add("pool.tasks", per_op(pool.0), "count/op");
    out.add("pool.steals", per_op(pool.1), "count/op");
    out.add("pool.parks", per_op(pool.2), "count/op");
    out.add("trace.overhead_pct", overhead * 100.0, "%");
}
