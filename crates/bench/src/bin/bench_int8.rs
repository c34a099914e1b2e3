//! INT8 engine benchmark harness: measures the blocked kernel against the
//! seed scalar kernel, the fused vectorized convert phase against the PR 1
//! scalar convert, the vectorized trunc and CRT fold against their PR 2
//! scalar forms, and records GEMM GOPS, per-stage throughput, and the
//! per-phase shares of a representative emulated DGEMM to
//! `BENCH_int8.json`, giving future PRs a perf trajectory.
//!
//! The `batched` section drives the `gemm_batch` runtime against the
//! naive sequential per-item loop on the two scheduler regimes (a
//! shared-operand 64³ x 256 service batch and a compute-bound 256³ x 16
//! batch), recording items/s and the speedup, after asserting the batched
//! results bit-identical to the loop's.
//!
//! `--workers=N` sizes the work-stealing pool for the run (same knob as
//! `OZAKI_WORKERS`); the report records the configured pool width, the
//! host's physical core count, and the shared-operand batch's scaling
//! ratio vs a 1-worker run of the same pool, so the numbers stay honest
//! on single-core runners where configured workers > physical cores.
//!
//! With `--check-against=<baseline.json>` the run doubles as the CI
//! perf-regression gate: the freshly measured int8 GOPS, convert
//! throughput, end-to-end pipeline time, batched speedups and the
//! worker-scaling ratio are compared against the checked-in baseline and
//! the process exits non-zero when any of them regresses past
//! `--tolerance` (default 0.8). Best-of-reps measurement on both sides
//! keeps the gate noise-tolerant.
//!
//! Usage: `cargo run --release -p gemm_bench --bin bench_int8 --
//! [--n=1024] [--reps=3] [--workers=2] [--out=BENCH_int8.json]
//! [--check-against=BENCH_baseline.json] [--tolerance=0.8]
//! [--check-metric=end_to_end_ms,...]`
//!
//! `--check-metric` restricts the gate to a comma-separated subset of
//! metric names, for jobs that gate one deliberately chosen number
//! rather than the full panel. The report always carries an
//! `obs_overhead` section — the steady-state pipeline timed with the
//! `gemm_obs` gate armed vs disabled, interleaved in-process like the
//! ABFT comparison (CI's obs job holds it to 3%) — and with
//! `OZAKI_OBS=1` an `obs` section read straight from the `gemm_obs`
//! registry.

use gemm_batch::{BatchedOzaki2, StridedBatchF64};
use gemm_bench::check::{check_regressions, json_number, json_string, GateMetric};
use gemm_bench::report::Args;
use gemm_dense::workload::phi_matrix_f64;
use gemm_dense::{MatF64, Matrix};
use gemm_engine::{
    int8_gemm_blocked, int8_gemm_prepacked_fused, int8_gemm_rm_cm_scalar, microkernel_name,
    mod_kernel_name, pack_panels, padded_a_rows, padded_b_cols, padded_depth, Int8Workspace,
    NoEpilogue,
};
use ozaki2::accumulate::{fold_kernel_name, fold_planes, FoldPrecision};
use ozaki2::convert::{convert_kernel_name, convert_pack_panels, rmod_to_i8, steps_for};
use ozaki2::scale::{fast_scale_rows, scale_by_pow2, scale_trunc_a_rowmajor, trunc_kernel_name};
use ozaki2::{
    choose_n, constants, Accuracy, FaultPolicy, GemmArgs, GemmOp, Mode, Ozaki2, Workspace,
};
use std::io::Write;
use std::time::Instant;

fn pattern_vec(len: usize, salt: usize) -> Vec<i8> {
    (0..len)
        .map(|i| (((i * 31 + salt) % 255) as i16 - 127) as i8)
        .collect()
}

/// Best-of-`reps` wall time for `f`, in seconds.
fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f(); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let args = Args::from_env();
    let n: usize = args.get("n").unwrap_or(1024);
    let reps: usize = args.get("reps").unwrap_or(3);
    let out_path: String = args.get("out").unwrap_or_else(|| "BENCH_int8.json".into());
    if let Some(w) = args.get::<usize>("workers") {
        rayon::set_num_threads(w);
    }
    let gops = |secs: f64| 2.0 * (n * n * n) as f64 / secs / 1e9;

    let a = pattern_vec(n * n, 1);
    let b = pattern_vec(n * n, 2);
    let mut c_blocked = vec![0i32; n * n];
    let mut c_scalar = vec![0i32; n * n];
    let mut ws = Int8Workspace::new();

    // blocked-1T: pack both operands, then one serial engine call.
    let kp = padded_depth(n);
    let (mut apack, mut bpack) = (Vec::new(), Vec::new());
    let t_seq = time_best(reps, || {
        pack_panels(&mut apack, &a, n, n, padded_a_rows(n), n, kp);
        pack_panels(&mut bpack, &b, n, n, padded_b_cols(n), n, kp);
        int8_gemm_prepacked_fused(
            n,
            n,
            n,
            &apack,
            &bpack,
            kp,
            0,
            &mut c_blocked,
            &mut [],
            &NoEpilogue,
            false,
        )
    });
    let t_par = time_best(reps, || {
        int8_gemm_blocked(n, n, n, &a, &b, &mut c_blocked, &mut ws)
    });
    let t_scalar = time_best(reps, || {
        int8_gemm_rm_cm_scalar(n, n, n, &a, &b, &mut c_scalar)
    });
    assert_eq!(c_blocked, c_scalar, "kernels must agree bit-for-bit");
    let speedup = t_scalar / t_seq;

    // Trunc phase (Algorithm 1 lines 2-3): the PR 2 per-element
    // scale_by_pow2 tile loop vs the vectorized strunc kernel (which the
    // fused pipeline sweep also runs), both single-threaded.
    let nmod = 15usize;
    let consts = constants(nmod);
    let ca = phi_matrix_f64(n, n, 0.5, 7, 0);
    let exps = fast_scale_rows(&ca, consts.p_fast);
    let mut src = vec![0f64; n * n];
    let t_trunc_scalar = time_best(reps, || {
        // PR 2 kernel: cache-blocked transpose with one powi per element.
        const TILE: usize = 64;
        let a_data = ca.as_slice();
        for j0 in (0..n).step_by(TILE) {
            let j1 = (j0 + TILE).min(n);
            for i0 in (0..n).step_by(TILE) {
                let i1 = (i0 + TILE).min(n);
                for j in j0..j1 {
                    let col = &a_data[j * n..(j + 1) * n];
                    for i in i0..i1 {
                        src[i * n + j] = scale_by_pow2(col[i], exps[i]).trunc();
                    }
                }
            }
        }
    });
    let t_trunc_vec = time_best(reps, || scale_trunc_a_rowmajor(&ca, &exps, &mut src));
    let gelem = |secs: f64| (n * n) as f64 / secs / 1e9;
    let trunc_speedup = t_trunc_scalar / t_trunc_vec;

    // Convert phase (Algorithm 1 lines 4-5): the PR 1 scalar per-plane
    // sweep vs the fused vectorized convert->pack, both single-threaded on
    // realistic truncated operand data at N = 15. The baseline replicates
    // residue_planes' per-element kernel in a plain sequential loop so the
    // "1T" label holds on any core count (residue_planes itself is
    // rayon-parallel).
    let mut planes8 = vec![0i8; nmod * n * n];
    let steps = steps_for(nmod, true);
    let t_conv_scalar = time_best(reps, || {
        for (s, plane) in planes8.chunks_exact_mut(n * n).enumerate() {
            for (d, &x) in plane.iter_mut().zip(&src) {
                *d = rmod_to_i8(
                    x,
                    consts.p_f64[s],
                    consts.p_f32[s],
                    consts.p_inv_f64[s],
                    consts.p_inv_f32[s],
                    steps,
                );
            }
        }
    });
    let n_pad = padded_a_rows(n);
    let kp = padded_depth(n);
    let mut panels = vec![0i8; nmod * n_pad * kp];
    let t_conv_fused = time_best(reps, || {
        convert_pack_panels(&src, n, n_pad, n, kp, consts, true, false, &mut panels)
    });
    // Residues emitted per second (each one rmod of an f64), in G/s.
    let gres = |secs: f64| (nmod * n * n) as f64 / secs / 1e9;
    let conv_speedup = t_conv_scalar / t_conv_fused;

    // Fold phase (Algorithm 1 lines 8-12): the PR 2 scalar per-element
    // fold (mul+add weights, ties-away round, one powi per element) vs the
    // vectorized FMA fold, over synthetic residue planes at N = 15.
    let mut useed = 0x2545f491_4f6cdd1du64;
    let u: Vec<u8> = (0..nmod * n * n)
        .map(|i| {
            useed = useed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((useed >> 33) % consts.p[i / (n * n)]) as u8
        })
        .collect();
    let mut fold_out = vec![0f64; n * n];
    let (s1w, s2w) = (&consts.s1, &consts.s2);
    let (p1, p2, p_inv) = (consts.p1, consts.p2, consts.p_inv);
    let t_fold_scalar = time_best(reps, || {
        for j in 0..n {
            let neg_eb = -exps[j];
            for (i, &ei) in exps.iter().enumerate() {
                let idx = j * n + i;
                let mut c1 = 0.0f64;
                let mut c2 = 0.0f64;
                for s in 0..nmod {
                    let us = u[s * n * n + idx] as f64;
                    c1 += s1w[s] * us;
                    c2 += s2w[s] * us;
                }
                let q = (p_inv * c1).round();
                let t = q.mul_add(-p1, c1) + c2;
                let cpp = q.mul_add(-p2, t);
                fold_out[idx] = scale_by_pow2(cpp, neg_eb - ei);
            }
        }
    });
    let t_fold_vec = time_best(reps, || {
        fold_planes(
            &u,
            n,
            n,
            consts,
            FoldPrecision::Double,
            &exps,
            &exps,
            &mut fold_out,
        )
    });
    let fold_speedup = t_fold_scalar / t_fold_vec;

    // Batched runtime (crates/batch): throughput of many-GEMM serving vs
    // the naive sequential per-item loop, on both scheduler regimes.
    //  * shared64: 64^3 x 256 items with one broadcast B — the
    //    weight-stationary service batch (inter-item schedule, cached B,
    //    pooled workspaces, raw-A conversion into reused panels);
    //  * large256: 256^3 x 16 items — compute-bound (intra-item stripes,
    //    pooled workspaces).
    // Results are asserted bit-identical to the naive loop before timing
    // counts for anything.
    let bench_batched = |bs: usize, count: usize| -> (f64, f64) {
        let bb = phi_matrix_f64(bs, bs, 0.5, 17, 1);
        let a_mats: Vec<MatF64> = (0..count)
            .map(|i| phi_matrix_f64(bs, bs, 0.5, 100 + i as u64, 0))
            .collect();
        let mut a_data = Vec::with_capacity(count * bs * bs);
        for a in &a_mats {
            a_data.extend_from_slice(a.as_slice());
        }
        let emu = Ozaki2::new(nmod, Mode::Fast);
        let mut naive_out: Vec<MatF64> = Vec::new();
        let t_naive = time_best(reps, || {
            naive_out = a_mats.iter().map(|a| emu.dgemm(a, &bb)).collect();
        });
        let runtime = BatchedOzaki2::new(nmod, Mode::Fast);
        let a_batch = StridedBatchF64::packed(&a_data, bs, bs, count);
        let b_batch = StridedBatchF64::broadcast(&bb, count);
        let mut outs: Vec<MatF64> = (0..count).map(|_| Matrix::zeros(bs, bs)).collect();
        let t_batched = time_best(reps, || {
            runtime
                .try_dgemm_batched_into(&a_batch, &b_batch, &mut outs)
                .expect("batched run");
        });
        assert_eq!(outs, naive_out, "batched must stay bit-identical");
        (count as f64 / t_batched, t_naive / t_batched)
    };
    // Worker scaling: the shared-operand batch once on a degenerate
    // 1-worker pool, then on the configured pool. The ratio isolates what
    // the work-stealing pool itself buys (inter-item overlap) from what
    // caching + pooling buy (present in both runs). On a host with fewer
    // physical cores than configured workers the ratio honestly hovers
    // near 1.0 — the report records both numbers so nobody mistakes pool
    // width for hardware parallelism.
    let workers = rayon::current_num_threads();
    rayon::set_num_threads(1);
    let (shared64_w1_items_per_s, _) = bench_batched(64, 256);
    rayon::set_num_threads(workers);
    let (shared64_items_per_s, shared64_speedup) = bench_batched(64, 256);
    let (large256_items_per_s, large256_speedup) = bench_batched(256, 16);
    let shared64_scaling = shared64_items_per_s / shared64_w1_items_per_s;
    let physical_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Per-phase shares of a representative emulated DGEMM (N = 15, the
    // paper's DGEMM-accuracy setting), reusing a pipeline workspace so the
    // shares reflect the steady state. Best-of-reps end-to-end wall time
    // feeds the perf gate.
    let pn = n.min(512); // keep the pipeline problem moderate
    let pa = phi_matrix_f64(pn, pn, 0.5, 42, 0);
    let pb = phi_matrix_f64(pn, pn, 0.5, 42, 1);
    let emu = Ozaki2::new(15, Mode::Fast);
    let mut pws = Workspace::new();
    let mut report = None;
    let t_pipeline = time_best(reps, || {
        let out = emu.gemm(GemmArgs::new(&pa, &pb).workspace(&mut pws));
        report = Some(out.unwrap().report);
    });
    let report = report.expect("pipeline ran");
    let end_to_end_ms = t_pipeline * 1e3;
    let total = report.phases.total().as_secs_f64().max(1e-12);
    let phase_rows = report.phases.as_rows();

    // Observability overhead: the same steady-state pipeline with the
    // gemm_obs gate toggled in-process, interleaved rep-by-rep like the
    // ABFT comparison below so clock/thermal drift hits both minima
    // equally. This is the number CI's obs job holds to 3%: an
    // instrumented and a clean run in *separate processes* would gate on
    // shared-runner drift (easily 10%+) instead of on instrumentation
    // cost.
    let obs_was_enabled = gemm_obs::enabled();
    let (mut t_obs_off, mut t_obs_on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..=reps {
        gemm_obs::set_enabled(false);
        let t0 = Instant::now();
        let _ = emu
            .gemm(GemmArgs::new(&pa, &pb).workspace(&mut pws))
            .unwrap();
        t_obs_off = t_obs_off.min(t0.elapsed().as_secs_f64());
        gemm_obs::set_enabled(true);
        let t0 = Instant::now();
        let _ = emu
            .gemm(GemmArgs::new(&pa, &pb).workspace(&mut pws))
            .unwrap();
        t_obs_on = t_obs_on.min(t0.elapsed().as_secs_f64());
    }
    gemm_obs::set_enabled(obs_was_enabled);
    let obs_overhead_pct = (t_obs_on / t_obs_off - 1.0) * 100.0;

    // ABFT overhead: the same steady-state pipeline with per-plane
    // checksum verification armed (FaultPolicy::Detect) vs explicitly
    // unprotected, through the facade with per-call policies so the
    // comparison is immune to any OZAKI_FAULT_POLICY in the environment.
    // A clean Detect run must stay bit-identical to the Off run before
    // the timing counts for anything.
    let mut c_off = MatF64::zeros(pn, pn);
    let mut c_det = MatF64::zeros(pn, pn);
    // The two policies interleave rep-by-rep so clock/thermal drift hits
    // both minima equally — the overhead is a ratio, and sequential
    // blocks let drift masquerade as (or hide) checksum cost.
    let (mut t_abft_off, mut t_abft_det) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..=reps {
        let t0 = Instant::now();
        emu.gemm_into(
            GemmArgs::new(&pa, &pb)
                .fault_policy(FaultPolicy::Off)
                .workspace(&mut pws),
            c_off.view_mut(),
        )
        .expect("unprotected run");
        t_abft_off = t_abft_off.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        emu.gemm_into(
            GemmArgs::new(&pa, &pb)
                .fault_policy(FaultPolicy::Detect)
                .workspace(&mut pws),
            c_det.view_mut(),
        )
        .expect("detect run");
        t_abft_det = t_abft_det.min(t0.elapsed().as_secs_f64());
    }
    assert_eq!(c_det, c_off, "clean ABFT run must stay bit-identical");
    let abft_overhead_pct = (t_abft_det / t_abft_off - 1.0) * 100.0;

    // BLAS-surface transposed operand: C = A · Bᵀ at pn³ via the view
    // facade (zero-copy transpose flip) vs the historical materialize
    // path (owned transpose copy fed to the plain pipeline). Bitwise
    // equality is asserted before the timing counts for anything.
    let bt = phi_matrix_f64(pn, pn, 0.5, 43, 1); // stored as Bᵀ (n x k)
    let mut c_mat = MatF64::zeros(pn, pn);
    let mut c_view = MatF64::zeros(pn, pn);
    // The two paths interleave rep-by-rep (same technique as the ABFT and
    // obs-overhead ratios): the gated metric is their ratio, and two
    // sequential best-of blocks let clock/thermal/box drift land on one
    // side only — which is exactly how PR 9 reproduced a phantom
    // 0.94-vs-1.19 "regression" on an unchanged build.
    let (mut t_blas_mat, mut t_blas_view) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..=reps {
        let t0 = Instant::now();
        let b_eff = bt.transpose();
        emu.gemm_into(
            GemmArgs::new(&pa, &b_eff).workspace(&mut pws),
            c_mat.view_mut(),
        )
        .expect("materialize path");
        t_blas_mat = t_blas_mat.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        emu.gemm_into(
            GemmArgs::new(&pa, &bt)
                .trans_b(GemmOp::T)
                .workspace(&mut pws),
            c_view.view_mut(),
        )
        .expect("view path");
        t_blas_view = t_blas_view.min(t0.elapsed().as_secs_f64());
    }
    assert_eq!(c_view, c_mat, "view path must stay bit-identical");
    let blas_view_speedup = t_blas_mat / t_blas_view;

    // The INT8 engine at pn³ on the N resolved for a 2^-20 target.
    // Effective GOPS counts the emulated product's 2·pn³ flops, not the
    // engine-plane ops.
    let int8_target = 2f64.powi(-20);
    let pgops = |secs: f64| 2.0 * (pn * pn * pn) as f64 / secs / 1e9;
    let n_i8 = choose_n(int8_target, pn, false).expect("the pool reaches 2^-20 at pn");
    let emu_i8 = Ozaki2::new(n_i8, Mode::Fast);
    let mut ws_i8 = Workspace::new();
    let mut c_i8 = MatF64::zeros(pn, pn);
    let t_i8 = time_best(reps, || {
        emu_i8
            .gemm_into(
                GemmArgs::new(&pa, &pb).workspace(&mut ws_i8),
                c_i8.view_mut(),
            )
            .expect("int8 run");
    });
    // Fast-inference mode: the low-moduli builder preset. Throughput is reported next to the *predicted* normwise
    // error bound the report carries, so the accuracy price of the speed
    // is on the same page as the speed.
    let emu_fi = Ozaki2::builder()
        .accuracy(Accuracy::FastInference)
        .k(pn)
        .build()
        .expect("fast-inference resolves on the int8 pool");
    let mut ws_fi = Workspace::new();
    let mut fi_report = None;
    let t_fi = time_best(reps, || {
        let out = emu_fi
            .gemm(GemmArgs::new(&pa, &pb).workspace(&mut ws_fi))
            .expect("fast-inference run");
        fi_report = Some(out.report);
    });
    let fi_report = fi_report.expect("fast-inference ran");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"shape\": [{n}, {n}, {n}],\n"));
    json.push_str(&format!("  \"microkernel\": \"{}\",\n", microkernel_name()));
    json.push_str(&format!("  \"mod_kernel\": \"{}\",\n", mod_kernel_name()));
    json.push_str(&format!(
        "  \"scalar_seed_gops\": {:.3},\n  \"blocked_1t_gops\": {:.3},\n  \"blocked_gops\": {:.3},\n",
        gops(t_scalar),
        gops(t_seq),
        gops(t_par)
    ));
    json.push_str(&format!("  \"speedup_1t_vs_scalar\": {speedup:.3},\n"));
    json.push_str(&format!(
        "  \"trunc\": {{\n    \"shape\": [{n}, {n}],\n    \"kernel\": \"{}\",\n    \"scalar_pr2_gelem_per_s\": {:.3},\n    \"vectorized_1t_gelem_per_s\": {:.3},\n    \"speedup_1t\": {trunc_speedup:.3}\n  }},\n",
        trunc_kernel_name(),
        gelem(t_trunc_scalar),
        gelem(t_trunc_vec)
    ));
    json.push_str(&format!(
        "  \"convert\": {{\n    \"shape\": [{n}, {n}],\n    \"n_moduli\": {nmod},\n    \"kernel\": \"{}\",\n    \"scalar_pr1_gres_per_s\": {:.3},\n    \"fused_1t_gres_per_s\": {:.3},\n    \"speedup_1t\": {conv_speedup:.3}\n  }},\n",
        convert_kernel_name(),
        gres(t_conv_scalar),
        gres(t_conv_fused)
    ));
    json.push_str(&format!(
        "  \"fold\": {{\n    \"shape\": [{n}, {n}],\n    \"n_moduli\": {nmod},\n    \"kernel\": \"{}\",\n    \"scalar_pr2_gres_per_s\": {:.3},\n    \"vectorized_gres_per_s\": {:.3},\n    \"speedup\": {fold_speedup:.3}\n  }},\n",
        fold_kernel_name(),
        gres(t_fold_scalar),
        gres(t_fold_vec)
    ));
    // `workers` is the configured pool width (`--workers`/`OZAKI_WORKERS`
    // or the machine default), `physical_cores` what the host actually
    // has; the scaling ratio compares the same pool at W=1 so the two can
    // be read together. On a single-core host the inter-item schedule
    // cannot overlap items (scaling ~1.0) and the shared-operand speedup
    // reflects caching + pooling + per-call overhead removal; with real
    // cores the small-item case additionally scales with W.
    json.push_str(&format!(
        "  \"batched\": {{\n    \"n_moduli\": {nmod},\n    \"workers\": {workers},\n    \"physical_cores\": {physical_cores},\n    \"shared64\": {{\n      \"shape\": [64, 64, 64],\n      \"items\": 256,\n      \"shared64_1worker_items_per_s\": {shared64_w1_items_per_s:.3},\n      \"shared64_items_per_s\": {shared64_items_per_s:.3},\n      \"shared64_scaling_vs_1worker\": {shared64_scaling:.3},\n      \"shared64_speedup_vs_naive\": {shared64_speedup:.3}\n    }},\n    \"large256\": {{\n      \"shape\": [256, 256, 256],\n      \"items\": 16,\n      \"large256_items_per_s\": {large256_items_per_s:.3},\n      \"large256_speedup_vs_naive\": {large256_speedup:.3}\n    }}\n  }},\n"
    ));
    json.push_str(&format!(
        "  \"blas_view\": {{\n    \"shape\": [{pn}, {pn}, {pn}],\n    \"n_moduli\": 15,\n    \"transposed_b_materialize_ms\": {:.3},\n    \"transposed_b_view_ms\": {:.3},\n    \"blas_view_speedup_vs_materialize\": {blas_view_speedup:.3}\n  }},\n",
        t_blas_mat * 1e3,
        t_blas_view * 1e3
    ));
    json.push_str(&format!(
        "  \"backends\": {{\n    \"shape\": [{pn}, {pn}, {pn}],\n    \"target\": {int8_target:e},\n    \"int8\": {{\n      \"n_moduli\": {n_i8},\n      \"backend_int8_e2e_ms\": {:.3},\n      \"backend_int8_gops\": {:.3}\n    }},\n    \"fast_inference\": {{\n      \"n_moduli\": {},\n      \"fast_inference_e2e_ms\": {:.3},\n      \"fast_inference_gops\": {:.3},\n      \"fast_inference_predicted_error\": {:e}\n    }}\n  }},\n",
        t_i8 * 1e3,
        pgops(t_i8),
        fi_report.n_moduli,
        t_fi * 1e3,
        pgops(t_fi),
        fi_report.predicted_error
    ));
    json.push_str(&format!(
        "  \"obs_overhead\": {{\n    \"shape\": [{pn}, {pn}, {pn}],\n    \"n_moduli\": 15,\n    \"obs_off_ms\": {:.3},\n    \"obs_on_ms\": {:.3},\n    \"obs_overhead_pct\": {obs_overhead_pct:.2}\n  }},\n",
        t_obs_off * 1e3,
        t_obs_on * 1e3
    ));
    json.push_str(&format!(
        "  \"abft\": {{\n    \"shape\": [{pn}, {pn}, {pn}],\n    \"n_moduli\": 15,\n    \"policy\": \"detect\",\n    \"abft_off_ms\": {:.3},\n    \"abft_detect_ms\": {:.3},\n    \"abft_overhead_pct\": {abft_overhead_pct:.2}\n  }},\n",
        t_abft_off * 1e3,
        t_abft_det * 1e3
    ));
    json.push_str(&format!(
        "  \"pipeline\": {{\n    \"shape\": [{pn}, {pn}, {pn}],\n    \"n_moduli\": {},\n    \"mode\": \"{}\",\n    \"int8_gemm_calls\": {},\n    \"end_to_end_ms\": {end_to_end_ms:.3},\n    \"phase_seconds\": {{\n",
        report.n_moduli,
        report.mode.label(),
        report.int8_gemm_calls
    ));
    for (i, (label, secs)) in phase_rows.iter().enumerate() {
        let comma = if i + 1 < phase_rows.len() { "," } else { "" };
        json.push_str(&format!("      \"{label}\": {secs:.6}{comma}\n"));
    }
    json.push_str("    },\n    \"phase_shares\": {\n");
    for (i, (label, secs)) in phase_rows.iter().enumerate() {
        let comma = if i + 1 < phase_rows.len() { "," } else { "" };
        json.push_str(&format!("      \"{label}\": {:.4}{comma}\n", secs / total));
    }
    json.push_str("    }\n  }");
    // With observability armed (OZAKI_OBS=1) the report also carries a
    // registry read-out: the same per-phase numbers the Prometheus
    // endpoint serves, so a bench run doubles as a check that the
    // instrumentation actually saw the work. The bench's own
    // phase_seconds/phase_shares fields above stay authoritative (and
    // present either way).
    if gemm_obs::enabled() {
        use gemm_obs::catalog as cat;
        json.push_str(",\n  \"obs\": {\n");
        json.push_str(&format!(
            "    \"emulated_gemms\": {},\n    \"engine_int8_calls\": {},\n    \"pool_tasks\": {},\n    \"pool_steals\": {},\n    \"pool_parks\": {},\n    \"phase_histograms\": {{\n",
            cat::EMULATED_GEMMS.value(),
            cat::ENGINE_INT8_CALLS.value(),
            cat::POOL_TASKS.value(),
            cat::POOL_STEALS.value(),
            cat::POOL_PARKS.value()
        ));
        let phase_hists = [
            &cat::PHASE_SCALE,
            &cat::PHASE_TRUNC,
            &cat::PHASE_CONVERT,
            &cat::PHASE_INT8_GEMM,
            &cat::PHASE_MOD_REDUCE,
            &cat::PHASE_FOLD,
            &cat::PHASE_VERIFY,
        ];
        for (i, h) in phase_hists.iter().enumerate() {
            let comma = if i + 1 < phase_hists.len() { "," } else { "" };
            json.push_str(&format!(
                "      \"{}\": {{\"count\": {}, \"sum_seconds\": {:.6}, \"p99_seconds\": {:.6}}}{comma}\n",
                h.span_name(),
                h.count(),
                h.sum_ns() as f64 / 1e9,
                h.quantile_ns(0.99) as f64 / 1e9
            ));
        }
        json.push_str("    }\n  }");
    }
    json.push_str("\n}\n");

    std::fs::File::create(&out_path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .unwrap_or_else(|e| panic!("write {out_path}: {e}"));

    println!(
        "int8 engine @ {n}x{n}x{n} (microkernel: {})",
        microkernel_name()
    );
    println!(
        "  scalar seed : {:8.2} GOPS\n  blocked 1T  : {:8.2} GOPS\n  blocked     : {:8.2} GOPS\n  1T speedup  : {speedup:8.2}x",
        gops(t_scalar),
        gops(t_seq),
        gops(t_par)
    );
    println!(
        "trunc lines 2-3 @ {n}x{n} (kernel: {})",
        trunc_kernel_name()
    );
    println!(
        "  PR2 scalar  : {:8.2} Gelem/s\n  vectorized  : {:8.2} Gelem/s\n  1T speedup  : {trunc_speedup:8.2}x",
        gelem(t_trunc_scalar),
        gelem(t_trunc_vec)
    );
    println!(
        "convert lines 4-5 @ {n}x{n}, N={nmod} (kernel: {})",
        convert_kernel_name()
    );
    println!(
        "  PR1 scalar  : {:8.2} Gres/s\n  fused 1T    : {:8.2} Gres/s\n  1T speedup  : {conv_speedup:8.2}x",
        gres(t_conv_scalar),
        gres(t_conv_fused)
    );
    println!(
        "fold lines 8-12 @ {n}x{n}, N={nmod} (kernel: {})",
        fold_kernel_name()
    );
    println!(
        "  PR2 scalar  : {:8.2} Gres/s\n  vectorized  : {:8.2} Gres/s\n  speedup     : {fold_speedup:8.2}x",
        gres(t_fold_scalar),
        gres(t_fold_vec)
    );
    println!(
        "batched runtime, N={nmod}, {workers} worker(s) on {physical_cores} core(s) (vs naive sequential per-item loop)"
    );
    println!(
        "  shared-B 64^3 x256 : {shared64_items_per_s:8.1} items/s  ({shared64_speedup:.2}x, {shared64_scaling:.2}x vs 1 worker)\n  large 256^3 x16    : {large256_items_per_s:8.1} items/s  ({large256_speedup:.2}x)"
    );
    println!("pipeline @ {pn}^3, N=15: {end_to_end_ms:.1} ms end-to-end (steady state)");
    println!("observability @ {pn}^3, N=15 (gemm_obs armed vs disabled, interleaved)");
    println!(
        "  disabled    : {:8.1} ms\n  armed       : {:8.1} ms\n  overhead    : {obs_overhead_pct:8.2}%",
        t_obs_off * 1e3,
        t_obs_on * 1e3
    );
    println!("abft checksum verify @ {pn}^3, N=15 (FaultPolicy::Detect vs Off)");
    println!(
        "  off         : {:8.1} ms\n  detect      : {:8.1} ms\n  overhead    : {abft_overhead_pct:8.2}%",
        t_abft_off * 1e3,
        t_abft_det * 1e3
    );
    println!("blas transposed-B @ {pn}^3, N=15 (view facade vs materialize)");
    println!(
        "  materialize : {:8.1} ms\n  view        : {:8.1} ms\n  speedup     : {blas_view_speedup:8.2}x",
        t_blas_mat * 1e3,
        t_blas_view * 1e3
    );
    println!("int8 engine @ {pn}^3, accuracy target 2^-20");
    println!(
        "  int8        : {:8.1} ms  ({:6.2} effective GOPS, N={n_i8})",
        t_i8 * 1e3,
        pgops(t_i8)
    );
    println!(
        "  fast-infer  : {:8.1} ms  ({:6.2} effective GOPS, N={}, predicted err {:.2e})",
        t_fi * 1e3,
        pgops(t_fi),
        fi_report.n_moduli,
        fi_report.predicted_error
    );
    println!("wrote {out_path}");

    // ---- CI perf-regression gate -----------------------------------------
    if let Some(baseline_path) = args.get::<String>("check-against") {
        let tolerance: f64 = args.get("tolerance").unwrap_or(0.8);
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        // Absolute throughput is only comparable on the hardware class
        // that produced the baseline. A different dispatched microkernel
        // (e.g. an avx2-only runner vs an avx512-vnni baseline) would
        // fail — or trivially pass — for reasons unrelated to the code,
        // so skip the gate loudly instead of gating on noise.
        let base_kernel = json_string(&baseline, "microkernel").unwrap_or("<missing>");
        if base_kernel != microkernel_name() {
            println!(
                "perf gate SKIPPED: baseline {baseline_path} was measured with the \
                 '{base_kernel}' microkernel, this machine dispatches '{}' — absolute \
                 numbers are not comparable across hardware classes. Refresh the \
                 baseline on this runner class to re-arm the gate.",
                microkernel_name()
            );
            return;
        }
        let pull = |key: &str| {
            json_number(&baseline, key)
                .unwrap_or_else(|| panic!("baseline {baseline_path} lacks \"{key}\""))
        };
        let all_metrics = vec![
            GateMetric {
                name: "blocked_gops",
                current: gops(t_par),
                baseline: pull("blocked_gops"),
                higher_is_better: true,
            },
            GateMetric {
                name: "fused_1t_gres_per_s",
                current: gres(t_conv_fused),
                baseline: pull("fused_1t_gres_per_s"),
                higher_is_better: true,
            },
            GateMetric {
                name: "end_to_end_ms",
                current: end_to_end_ms,
                baseline: pull("end_to_end_ms"),
                higher_is_better: false,
            },
            // The batched section gates on the *speedups* over the naive
            // loop (ratios travel across hardware better than absolute
            // items/s, and the kernel-mismatch skip above still shields
            // cross-class runs).
            GateMetric {
                name: "shared64_speedup_vs_naive",
                current: shared64_speedup,
                baseline: pull("shared64_speedup_vs_naive"),
                higher_is_better: true,
            },
            GateMetric {
                name: "large256_speedup_vs_naive",
                current: large256_speedup,
                baseline: pull("large256_speedup_vs_naive"),
                higher_is_better: true,
            },
            // Pool scaling on the shared-operand batch, relative to the
            // same pool at W=1. Baseline-relative like the other ratios:
            // on a single-core runner both sides sit near 1.0, on a
            // many-core runner both sides reflect real overlap — either
            // way a scheduling regression (lost inter-item parallelism,
            // serialized stealing) drags `current` below the floor.
            GateMetric {
                name: "shared64_scaling_vs_1worker",
                current: shared64_scaling,
                baseline: pull("shared64_scaling_vs_1worker"),
                higher_is_better: true,
            },
            // Absolute protected-run time (lower is better): keeps the
            // ABFT checksum overhead from quietly growing past the
            // O(mn/NC)-per-plane budget it is designed around.
            GateMetric {
                name: "abft_detect_ms",
                current: t_abft_det * 1e3,
                baseline: pull("abft_detect_ms"),
                higher_is_better: false,
            },
            // The view facade must keep beating (or matching) the
            // transpose-materialize path it replaced; a regression here
            // means an operand copy crept back into the BLAS surface.
            GateMetric {
                name: "blas_view_speedup_vs_materialize",
                current: blas_view_speedup,
                baseline: pull("blas_view_speedup_vs_materialize"),
                higher_is_better: true,
            },
        ];
        // INT8 throughput at the 2^-20 target, plus the fast-inference
        // preset. Guarded so a baseline predating the backends section
        // skips these two loudly instead of panicking the whole gate.
        let mut all_metrics = all_metrics;
        if json_number(&baseline, "backend_int8_gops").is_some() {
            all_metrics.push(GateMetric {
                name: "backend_int8_gops",
                current: pgops(t_i8),
                baseline: pull("backend_int8_gops"),
                higher_is_better: true,
            });
            all_metrics.push(GateMetric {
                name: "fast_inference_gops",
                current: pgops(t_fi),
                baseline: pull("fast_inference_gops"),
                higher_is_better: true,
            });
        } else {
            println!(
                "gate NOTE: baseline {baseline_path} predates the backends section; \
                 backend_int8_gops / fast_inference_gops \
                 not gated. Refresh the baseline to arm them."
            );
        }
        // `--check-metric=a,b,c` narrows the gate to the named metrics.
        // The obs-overhead CI job uses this to compare an instrumented
        // run against a just-measured uninstrumented baseline on
        // end_to_end_ms alone — the other metrics are noise-dominated at
        // the short rep counts that job can afford.
        let metrics: Vec<GateMetric> = match args.get::<String>("check-metric") {
            Some(list) => {
                let wanted: Vec<&str> = list
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .collect();
                let filtered: Vec<GateMetric> = all_metrics
                    .into_iter()
                    .filter(|m| wanted.contains(&m.name))
                    .collect();
                assert!(
                    !filtered.is_empty(),
                    "--check-metric={list} matched no gate metrics"
                );
                filtered
            }
            None => all_metrics,
        };
        let failures = check_regressions(&metrics, tolerance);
        for m in &metrics {
            let status = if m.passes(tolerance) { "ok" } else { "FAIL" };
            println!(
                "gate {:22} current {:10.3} baseline {:10.3}  [{status}]",
                m.name, m.current, m.baseline
            );
        }
        if failures.is_empty() {
            println!("perf gate PASSED vs {baseline_path} (tolerance {tolerance})");
        } else {
            for f in &failures {
                eprintln!("{f}");
            }
            eprintln!("perf gate FAILED vs {baseline_path} (tolerance {tolerance})");
            std::process::exit(1);
        }
    }
}
