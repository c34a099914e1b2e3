//! Criterion bench: the INT8 matrix engine itself — the substrate whose
//! throughput advantage (Fig. 1) the whole paper builds on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gemm_dense::Matrix;
use gemm_engine::{int8_gemm_blocked, Int8Workspace};

fn mat_i8(rows: usize, cols: usize, salt: i32) -> Matrix<i8> {
    Matrix::from_fn(rows, cols, |i, j| {
        (((i as i32 * 31 + j as i32 * 17 + salt) % 255) - 127) as i8
    })
}

fn bench_int8_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("int8_gemm");
    group.sample_size(10);
    for &n in &[64usize, 128, 256, 512] {
        let a = mat_i8(n, n, 1).to_row_major();
        let b = mat_i8(n, n, 2);
        let mut cbuf = vec![0i32; n * n];
        let mut ws = Int8Workspace::new();
        group.throughput(Throughput::Elements(2 * (n * n * n) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| int8_gemm_blocked(n, n, n, &a, b.as_slice(), &mut cbuf, &mut ws));
        });
    }
    group.finish();
}

fn bench_rectangular(c: &mut Criterion) {
    // Tall-k shapes (k dominates in the emulation's inner products).
    let mut group = c.benchmark_group("int8_gemm_tall_k");
    group.sample_size(10);
    for &k in &[1024usize, 4096] {
        let m = 64;
        let a = mat_i8(m, k, 3).to_row_major();
        let b = mat_i8(k, m, 4);
        let mut cbuf = vec![0i32; m * m];
        let mut ws = Int8Workspace::new();
        group.throughput(Throughput::Elements(2 * (m * m * k) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bench, _| {
            bench.iter(|| int8_gemm_blocked(m, m, k, &a, b.as_slice(), &mut cbuf, &mut ws));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_int8_gemm, bench_rectangular);
criterion_main!(benches);
