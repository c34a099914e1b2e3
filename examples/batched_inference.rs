//! Weight-stationary serving with the batched runtime: one cached weight
//! matrix `B`, a stream of activation batches `A`, and the amortized cost
//! of Algorithm 1's convert front end before vs after operand caching.
//!
//! The naive loop re-runs `B`'s scale + trunc + convert + pack on every
//! single product; [`BatchedOzaki2`] prepares `B` once, keeps it in the
//! prepared-operand LRU across calls, pools the per-item workspaces, and
//! converts each streamed `A` into reused panel buffers — every result
//! bit-identical to `Ozaki2::dgemm`.
//!
//! Run: `cargo run --release --example batched_inference`

use gemmul8::prelude::*;
use std::time::Instant;

fn main() {
    // A service-shaped workload: 64-dim GEMMs, micro-batches of 64 items,
    // many rounds — the regime where per-call front-end cost dominates.
    let (m, n, k) = (64usize, 64, 64);
    let (items, rounds, nmod) = (64usize, 8, 15);
    println!("== batched weight-stationary serving ==");
    println!("   {m}x{k} . {k}x{n}, {items} items/batch, {rounds} rounds, N = {nmod}\n");

    let weights = phi_matrix_f64(k, n, PHI_HPL, 7, 1);
    let streams: Vec<Vec<MatF64>> = (0..rounds)
        .map(|r| {
            (0..items)
                .map(|i| phi_matrix_f64(m, k, PHI_HPL, (r * items + i) as u64, 0))
                .collect()
        })
        .collect();

    // -- naive: one Ozaki2::dgemm per product ---------------------------
    let emu = Ozaki2::new(nmod, Mode::Fast);
    let t0 = Instant::now();
    let mut naive_out = Vec::new();
    for batch in &streams {
        naive_out.push(
            batch
                .iter()
                .map(|a| emu.dgemm(a, &weights))
                .collect::<Vec<_>>(),
        );
    }
    let t_naive = t0.elapsed();

    // The convert front end (scale + trunc + convert) B pays per call:
    // measure one preparation and scale it by the call count.
    let pb = emu
        .prepare(OperandSide::B, &weights)
        .expect("fast mode, finite weights");
    let prep = pb.prepare_seconds();
    let naive_front = prep * (rounds * items) as f64;
    println!(
        "naive per-item loop      : {:8.1} ms",
        ms(t_naive.as_secs_f64())
    );
    println!(
        "  of which B front end   : {:8.1} ms ({:4.1}% — paid {} times)",
        ms(naive_front),
        100.0 * naive_front / t_naive.as_secs_f64(),
        rounds * items
    );

    // -- batched: cached B, pooled workspaces, scheduled items ----------
    let runtime = BatchedOzaki2::new(nmod, Mode::Fast);
    let mut outs: Vec<MatF64> = (0..items).map(|_| Matrix::zeros(m, n)).collect();
    let t0 = Instant::now();
    let mut flat = vec![0f64; items * m * k];
    for (r, batch) in streams.iter().enumerate() {
        for (i, a) in batch.iter().enumerate() {
            flat[i * m * k..(i + 1) * m * k].copy_from_slice(a.as_slice());
        }
        let a_batch = StridedBatch::packed(&flat, m, k, items);
        let b_batch = StridedBatch::broadcast(&weights, items);
        runtime
            .try_batched_into(&a_batch, &b_batch, &mut outs)
            .expect("batched serving");
        // Spot-check bit-identicality against the naive loop.
        assert_eq!(&outs, &naive_out[r], "round {r} must match bitwise");
    }
    let t_batched = t0.elapsed();
    let batched_front = prep; // prepared once, amortized over every call
    println!(
        "batched runtime          : {:8.1} ms  ({:.2}x)",
        ms(t_batched.as_secs_f64()),
        t_naive.as_secs_f64() / t_batched.as_secs_f64()
    );
    println!(
        "  amortized B front end  : {:8.1} ms ({:4.1}% — prepared once, {} cache hits)",
        ms(batched_front),
        100.0 * batched_front / t_batched.as_secs_f64(),
        runtime.cache().hits()
    );
    println!(
        "  workspaces created     : {:8} (pooled, {:.1} KiB steady state)",
        runtime.pool().created(),
        runtime.pool().bytes() as f64 / 1024.0
    );
    println!("\nevery batched result matched Ozaki2::dgemm bit for bit");
}

fn ms(s: f64) -> f64 {
    s * 1e3
}
