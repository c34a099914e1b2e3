//! Criterion bench: the blocked, register-tiled INT8 microkernel against
//! the seed scalar kernel it replaced. The `blocked-1T` rows are the
//! single-threaded numbers the `>= 5x` kernel acceptance criterion refers
//! to; `blocked` adds stripe parallelism on multi-core hosts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gemm_engine::{
    int8_gemm_blocked, int8_gemm_prepacked_fused, int8_gemm_rm_cm_scalar, pack_panels,
    padded_a_rows, padded_b_cols, padded_depth, Int8Workspace, NoEpilogue, OperandSide,
};

fn pattern_vec(len: usize, salt: usize) -> Vec<i8> {
    (0..len)
        .map(|i| (((i * 31 + salt) % 255) as i16 - 127) as i8)
        .collect()
}

/// The blocked kernel on one thread: pack both operands into `packs`,
/// then one serial engine call with no epilogue.
fn blocked_1t(
    m: usize,
    n: usize,
    k: usize,
    a: &[i8],
    b: &[i8],
    c: &mut [i32],
    packs: &mut (Vec<i8>, Vec<i8>),
) {
    let (kp, mp, np) = (padded_depth(k), padded_a_rows(m), padded_b_cols(n));
    pack_panels(&mut packs.0, OperandSide::A, a, k, m, mp, k, kp);
    pack_panels(&mut packs.1, OperandSide::B, b, k, n, np, k, kp);
    int8_gemm_prepacked_fused(
        m,
        n,
        k,
        &packs.0,
        &packs.1,
        kp,
        0,
        c,
        &mut [],
        &NoEpilogue,
        false,
    );
}

fn bench_square(c: &mut Criterion) {
    let mut group = c.benchmark_group("int8_microkernel");
    group.sample_size(10);
    for &n in &[256usize, 512, 1024] {
        let a = pattern_vec(n * n, 1);
        let b = pattern_vec(n * n, 2);
        let mut cbuf = vec![0i32; n * n];
        let mut packs = (Vec::new(), Vec::new());
        let mut ws = Int8Workspace::new();
        group.throughput(Throughput::Elements(2 * (n * n * n) as u64));
        group.bench_with_input(BenchmarkId::new("blocked-1T", n), &n, |bench, _| {
            bench.iter(|| blocked_1t(n, n, n, &a, &b, &mut cbuf, &mut packs));
        });
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bench, _| {
            bench.iter(|| int8_gemm_blocked(n, n, n, &a, &b, &mut cbuf, &mut ws));
        });
        group.bench_with_input(BenchmarkId::new("scalar-seed", n), &n, |bench, _| {
            bench.iter(|| int8_gemm_rm_cm_scalar(n, n, n, &a, &b, &mut cbuf));
        });
    }
    group.finish();
}

fn bench_tall_k(c: &mut Criterion) {
    // The emulation's dominant shape: modest m/n, deep k.
    let mut group = c.benchmark_group("int8_microkernel_tall_k");
    group.sample_size(10);
    for &k in &[4096usize, 16384] {
        let m = 128;
        let a = pattern_vec(m * k, 3);
        let b = pattern_vec(k * m, 4);
        let mut cbuf = vec![0i32; m * m];
        let mut packs = (Vec::new(), Vec::new());
        group.throughput(Throughput::Elements(2 * (m * m * k) as u64));
        group.bench_with_input(BenchmarkId::new("blocked-1T", k), &k, |bench, _| {
            bench.iter(|| blocked_1t(m, m, k, &a, &b, &mut cbuf, &mut packs));
        });
        group.bench_with_input(BenchmarkId::new("scalar-seed", k), &k, |bench, _| {
            bench.iter(|| int8_gemm_rm_cm_scalar(m, m, k, &a, &b, &mut cbuf));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_square, bench_tall_k);
criterion_main!(benches);
