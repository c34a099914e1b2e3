//! Criterion bench: each Algorithm-1 phase in isolation — the measured
//! counterpart of the Figs. 6–7 time breakdown.

use criterion::{criterion_group, criterion_main, Criterion};
use gemm_dense::workload::phi_matrix_f64;
use gemm_dense::MatView;
use gemm_engine::{
    barrett_mod_row_u8, int8_gemm_blocked, padded_a_rows, padded_depth, Int8Workspace,
};
use ozaki2::accumulate::{fold_planes, fold_span_scalar, FoldPrecision};
use ozaki2::convert::{residue_planes, trunc_convert_pack_panels};
use ozaki2::scale::{
    accurate_scale_view, fast_scale_cols, fast_scale_rows, scale_trunc_a_rowmajor,
    scale_trunc_b_colmajor,
};
use ozaki2::{constants, OperandSide};

const N: usize = 256;
const NMOD: usize = 15;

fn bench_phases(c: &mut Criterion) {
    let consts = constants(NMOD);
    let a = phi_matrix_f64(N, N, 0.5, 11, 0);
    let b = phi_matrix_f64(N, N, 0.5, 11, 1);

    let mut group = c.benchmark_group("pipeline_phase");
    group.sample_size(20);

    group.bench_function("scale_fast (line 1)", |bench| {
        bench.iter(|| {
            let ea = fast_scale_rows(&a, consts.p_fast);
            let eb = fast_scale_cols(&b, consts.p_fast);
            (ea, eb)
        });
    });
    group.bench_function("scale_accurate (line 1)", |bench| {
        bench.iter(|| accurate_scale_view(&a.view(), &b.view(), consts.p_accu, true));
    });

    let exps_a = fast_scale_rows(&a, consts.p_fast);
    let exps_b = fast_scale_cols(&b, consts.p_fast);
    let mut aprime = vec![0f64; N * N];
    let mut bprime = vec![0f64; N * N];
    group.bench_function("trunc (lines 2-3)", |bench| {
        bench.iter(|| {
            scale_trunc_a_rowmajor(&a, &exps_a, &mut aprime);
            scale_trunc_b_colmajor(&b, &exps_b, &mut bprime);
        });
    });

    scale_trunc_a_rowmajor(&a, &exps_a, &mut aprime);
    scale_trunc_b_colmajor(&b, &exps_b, &mut bprime);
    let mut a8 = vec![0i8; NMOD * N * N];
    group.bench_function("convert_unfused_pr1 (lines 4-5)", |bench| {
        bench.iter(|| residue_planes(&aprime, consts, true, &mut a8));
    });

    // The hot-pipeline convert: vectorized rmod fused with panel packing,
    // over A' as a row-major A with zero exponents (which truncation
    // leaves unchanged).
    let mut a16 = vec![0i8; NMOD * padded_a_rows(N) * padded_depth(N)];
    let aprime_view = MatView::row_major(&aprime, N, N);
    let zero_exps = vec![0i32; N];
    group.bench_function("convert_fused (lines 4-5)", |bench| {
        bench.iter(|| {
            trunc_convert_pack_panels(
                &aprime_view,
                OperandSide::A,
                &zero_exps,
                consts,
                true,
                &mut a16,
                None,
            )
        });
    });

    // The full fused sweep the pipeline actually runs: scale + trunc +
    // transpose gather + rmod + pack in one cache-blocked pass over A.
    group.bench_function("trunc_convert_fused (lines 2-5)", |bench| {
        bench.iter(|| {
            trunc_convert_pack_panels(
                &a.view(),
                OperandSide::A,
                &exps_a,
                consts,
                true,
                &mut a16,
                None,
            )
        });
    });

    residue_planes(&aprime, consts, true, &mut a8);
    let mut b8 = vec![0i8; NMOD * N * N];
    residue_planes(&bprime, consts, true, &mut b8);
    let mut c32 = vec![0i32; N * N];
    let mut ws = Int8Workspace::new();
    group.bench_function("int8_gemm x1 (line 6)", |bench| {
        bench.iter(|| int8_gemm_blocked(N, N, N, &a8[..N * N], &b8[..N * N], &mut c32, &mut ws));
    });

    let mut u = vec![0u8; NMOD * N * N];
    let (p0, pinv0) = (consts.p[0] as i32, consts.p_inv_u32[0]);
    group.bench_function("mod_reduce x1 (line 7)", |bench| {
        bench.iter(|| barrett_mod_row_u8(&c32, &mut u[..N * N], p0, pinv0));
    });

    let mut out = vec![0f64; N * N];
    group.bench_function("fold (lines 8-12)", |bench| {
        bench.iter(|| {
            fold_planes(
                &u,
                N,
                N,
                consts,
                FoldPrecision::Double,
                &exps_a,
                &exps_b,
                true,
                &mut out,
            )
        });
    });

    // The scalar lane oracle of the fold, for the SIMD-vs-scalar margin.
    group.bench_function("fold_scalar_oracle (lines 8-12)", |bench| {
        bench.iter(|| {
            for (j, out_col) in out.chunks_mut(N).enumerate() {
                fold_span_scalar(
                    &u,
                    N * N,
                    j * N,
                    &consts.s1,
                    Some(&consts.s2),
                    consts.p1,
                    consts.p2,
                    consts.p_inv,
                    out_col,
                );
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_phases);
criterion_main!(benches);
