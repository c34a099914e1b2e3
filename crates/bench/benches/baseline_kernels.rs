//! Criterion bench: the scalar kernels the paper optimises — the fast
//! `rmod` (§4.2), the `__mulhi` modulo (§4.3), the low-precision
//! conversions, and the Philox generator.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gemm_dense::Philox4x32;
use gemm_engine::barrett_mod_u8;
use gemm_lowfp::{Tf32, BF16, F16};
use ozaki2::constants;
use ozaki2::convert::rmod_to_i8;

const LEN: usize = 1 << 16;

fn bench_rmod(c: &mut Criterion) {
    let consts = constants(15);
    let xs: Vec<f64> = (0..LEN)
        .map(|i| ((i as f64) * 1_234_567.89).trunc() - 4e10)
        .collect();
    let mut group = c.benchmark_group("rmod_kernel");
    group.throughput(Throughput::Elements(LEN as u64));
    for steps in [1u8, 2, 3] {
        group.bench_function(format!("steps={steps}"), |bench| {
            bench.iter(|| {
                let mut acc = 0i32;
                for &x in &xs {
                    acc = acc.wrapping_add(rmod_to_i8(
                        x,
                        consts.p_f64[1],
                        consts.p_f32[1],
                        consts.p_inv_f64[1],
                        consts.p_inv_f32[1],
                        steps,
                    ) as i32);
                }
                acc
            });
        });
    }
    group.finish();
}

fn bench_mulhi_mod(c: &mut Criterion) {
    let consts = constants(15);
    let xs: Vec<i32> = (0..LEN as i32)
        .map(|i| i.wrapping_mul(2_654_435_761u32 as i32))
        .collect();
    let mut group = c.benchmark_group("mod_kernel");
    group.throughput(Throughput::Elements(LEN as u64));
    group.bench_function("mulhi", |bench| {
        bench.iter(|| {
            let mut acc = 0u32;
            for &x in &xs {
                acc =
                    acc.wrapping_add(
                        barrett_mod_u8(x, consts.p[1] as i32, consts.p_inv_u32[1]) as u32
                    );
            }
            acc
        });
    });
    group.bench_function("rem_euclid (reference)", |bench| {
        let p = consts.p[1] as i32;
        bench.iter(|| {
            let mut acc = 0u32;
            for &x in &xs {
                acc = acc.wrapping_add(x.rem_euclid(p) as u32);
            }
            acc
        });
    });
    group.finish();
}

fn bench_lowfp_conversions(c: &mut Criterion) {
    let xs: Vec<f32> = (0..LEN).map(|i| (i as f32) * 0.37 - 9000.0).collect();
    let mut group = c.benchmark_group("lowfp_convert");
    group.throughput(Throughput::Elements(LEN as u64));
    group.bench_function("f16", |bench| {
        bench.iter(|| xs.iter().map(|&x| F16::from_f32(x).0 as u32).sum::<u32>());
    });
    group.bench_function("bf16", |bench| {
        bench.iter(|| xs.iter().map(|&x| BF16::from_f32(x).0 as u32).sum::<u32>());
    });
    group.bench_function("tf32", |bench| {
        bench.iter(|| {
            xs.iter()
                .map(|&x| Tf32::from_f32(x).to_bits())
                .fold(0u32, u32::wrapping_add)
        });
    });
    group.finish();
}

fn bench_philox(c: &mut Criterion) {
    let mut group = c.benchmark_group("philox");
    group.throughput(Throughput::Elements(LEN as u64));
    group.bench_function("uniform_f64", |bench| {
        let mut rng = Philox4x32::new(1);
        bench.iter(|| (0..LEN).map(|_| rng.uniform_f64()).sum::<f64>());
    });
    group.bench_function("normal_f64", |bench| {
        let mut rng = Philox4x32::new(2);
        bench.iter(|| (0..LEN).map(|_| rng.normal_f64()).sum::<f64>());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_rmod,
    bench_mulhi_mod,
    bench_lowfp_conversions,
    bench_philox
);
criterion_main!(benches);
