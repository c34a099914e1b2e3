//! Property tests pinning the batched runtime's core contract: every
//! batched result is **bit-identical** to the equivalent sequence of
//! per-item `Ozaki2::dgemm` / `sgemm` calls — across batch sizes 1–17,
//! ragged shape groups, shared-A / shared-B reuse, both scheduling
//! regimes, and (via the scalar-fallback CI job, `OZAKI_FORCE_SCALAR=1`)
//! every kernel dispatch.

use gemm_batch::{BatchedOzaki2, StridedBatch};
use gemm_dense::workload::{phi_matrix_f32, phi_matrix_f64};
use gemm_dense::{MatF64, Matrix};
use ozaki2::{GemmArgs, Mode, Ozaki2, Workspace};
use proptest::prelude::*;

mod common;
use common::{batched, group};

/// Flatten `count` matrices into one strided buffer with `pad` unused
/// elements between consecutive items (exercises non-trivial strides).
fn packed_stream(mats: &[MatF64], pad: usize) -> (Vec<f64>, usize) {
    let footprint = mats[0].as_slice().len();
    let stride = footprint + pad;
    let mut data = vec![0f64; (mats.len() - 1) * stride + footprint];
    for (i, m) in mats.iter().enumerate() {
        data[i * stride..i * stride + footprint].copy_from_slice(m.as_slice());
    }
    (data, stride)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Uniform strided batches (batch sizes 1–17, padded strides) match
    /// the per-item emulator bitwise.
    #[test]
    fn strided_batch_matches_sequential(
        count in 1usize..=17,
        m in 1usize..=20,
        n in 1usize..=20,
        k in 1usize..=28,
        nmod in 4usize..=15,
        pad in 0usize..8,
        seed in 0u64..1000,
    ) {
        let a_mats: Vec<MatF64> =
            (0..count).map(|i| phi_matrix_f64(m, k, 0.6, seed + i as u64, 0)).collect();
        let b_mats: Vec<MatF64> =
            (0..count).map(|i| phi_matrix_f64(k, n, 0.6, seed + 100 + i as u64, 1)).collect();
        let (a_data, a_stride) = packed_stream(&a_mats, pad);
        let (b_data, b_stride) = packed_stream(&b_mats, 0);
        let runtime = BatchedOzaki2::new(nmod, Mode::Fast);
        let got = batched(
            &runtime,
            &StridedBatch::new(&a_data, m, k, a_stride, count),
            &StridedBatch::new(&b_data, k, n, b_stride, count),
        );
        let emu = Ozaki2::new(nmod, Mode::Fast);
        for i in 0..count {
            let want = emu.dgemm(&a_mats[i], &b_mats[i]);
            prop_assert_eq!(&got[i], &want, "item {} of {}", i, count);
        }
    }

    /// `ld`-strided batches (items are windows of a parent allocation,
    /// `ld > rows`) run zero-copy through the view path and match the
    /// per-item emulator bitwise. The inter-column gaps are poisoned with
    /// NaN: the pipeline must never read a non-logical element.
    #[test]
    fn ld_strided_batch_matches_sequential(
        count in 1usize..=9,
        m in 1usize..=14,
        n in 1usize..=12,
        k in 1usize..=20,
        nmod in 4usize..=15,
        ldpad in 1usize..5,
        accurate in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let ld = m + ldpad;
        let footprint = (k - 1) * ld + m;
        let stride = footprint + 3;
        let a_mats: Vec<MatF64> =
            (0..count).map(|i| phi_matrix_f64(m, k, 0.6, seed + i as u64, 0)).collect();
        let mut a_data = vec![f64::NAN; (count - 1) * stride + footprint];
        for (t, mat) in a_mats.iter().enumerate() {
            for j in 0..k {
                for i in 0..m {
                    a_data[t * stride + i + j * ld] = mat[(i, j)];
                }
            }
        }
        let b = phi_matrix_f64(k, n, 0.6, seed + 500, 1);
        let mode = if accurate { Mode::Accurate } else { Mode::Fast };
        let runtime = BatchedOzaki2::new(nmod, mode);
        let got = batched(
            &runtime,
            &StridedBatch::with_ld(&a_data, m, k, ld, stride, count),
            &StridedBatch::broadcast(&b, count),
        );
        let emu = Ozaki2::new(nmod, mode);
        for i in 0..count {
            let want = emu.dgemm(&a_mats[i], &b);
            prop_assert_eq!(&got[i], &want, "item {} (ld {} mode {:?})", i, ld, mode);
        }
    }

    /// Shared-B (weight-stationary) and shared-A broadcasts reuse one
    /// preparation and still match bitwise.
    #[test]
    fn broadcast_reuse_matches_sequential(
        count in 2usize..=17,
        m in 1usize..=16,
        n in 1usize..=16,
        k in 1usize..=24,
        nmod in 4usize..=15,
        seed in 0u64..1000,
        share_a in any::<bool>(),
    ) {
        let emu = Ozaki2::new(nmod, Mode::Fast);
        let runtime = BatchedOzaki2::new(nmod, Mode::Fast);
        if share_a {
            let a = phi_matrix_f64(m, k, 0.6, seed, 0);
            let b_mats: Vec<MatF64> =
                (0..count).map(|i| phi_matrix_f64(k, n, 0.6, seed + 1 + i as u64, 1)).collect();
            let (b_data, b_stride) = packed_stream(&b_mats, 3);
            let got = batched(
                &runtime,
                &StridedBatch::broadcast(&a, count),
                &StridedBatch::new(&b_data, k, n, b_stride, count),
            );
            for i in 0..count {
                prop_assert_eq!(&got[i], &emu.dgemm(&a, &b_mats[i]), "shared-A item {}", i);
            }
        } else {
            let b = phi_matrix_f64(k, n, 0.6, seed, 1);
            let a_mats: Vec<MatF64> =
                (0..count).map(|i| phi_matrix_f64(m, k, 0.6, seed + 1 + i as u64, 0)).collect();
            let (a_data, a_stride) = packed_stream(&a_mats, 0);
            let got = batched(
                &runtime,
                &StridedBatch::new(&a_data, m, k, a_stride, count),
                &StridedBatch::broadcast(&b, count),
            );
            for i in 0..count {
                prop_assert_eq!(&got[i], &emu.dgemm(&a_mats[i], &b), "shared-B item {}", i);
            }
        }
        // Exactly one preparation was cached for the shared side.
        prop_assert_eq!(runtime.cache().len(), 1);
    }

    /// Ragged shape groups — including repeated operand references —
    /// match the per-item emulator bitwise.
    #[test]
    fn ragged_group_matches_sequential(
        items in 1usize..=8,
        nmod in 4usize..=15,
        seed in 0u64..1000,
        share in 0usize..3, // 0: none, 1: share one B, 2: share one A
    ) {
        // Ragged shapes derived deterministically per item. Odd items
        // reference the one shared operand (`share`: 0 = none, 1 = one B
        // shared, 2 = one A shared); `None` below means "use the shared
        // matrix for this side".
        let dims = |i: usize, salt: u64| {
            1 + ((seed + salt).wrapping_mul(31).wrapping_add(i as u64 * 17) % 20) as usize
        };
        let shared_b = phi_matrix_f64(dims(7, 3), dims(8, 4), 0.6, seed + 500, 1);
        let shared_a = phi_matrix_f64(dims(9, 5), dims(7, 6), 0.6, seed + 600, 0);
        let mut owned: Vec<(Option<MatF64>, Option<MatF64>)> = Vec::new();
        for i in 0..items {
            if share == 1 && i % 2 == 1 {
                let a = phi_matrix_f64(dims(i, 0), shared_b.rows(), 0.6, seed + i as u64, 0);
                owned.push((Some(a), None));
            } else if share == 2 && i % 2 == 1 {
                let b = phi_matrix_f64(shared_a.cols(), dims(i, 1), 0.6, seed + i as u64, 1);
                owned.push((None, Some(b)));
            } else {
                let (mi, ni, ki) = (dims(i, 0), dims(i, 1), dims(i, 2));
                owned.push((
                    Some(phi_matrix_f64(mi, ki, 0.6, seed + i as u64, 0)),
                    Some(phi_matrix_f64(ki, ni, 0.6, seed + 50 + i as u64, 1)),
                ));
            }
        }
        let refs: Vec<(&MatF64, &MatF64)> = owned
            .iter()
            .map(|(a, b)| {
                (
                    a.as_ref().unwrap_or(&shared_a),
                    b.as_ref().unwrap_or(&shared_b),
                )
            })
            .collect();
        let runtime = BatchedOzaki2::new(nmod, Mode::Fast);
        let got = group(&runtime, &refs);
        let emu = Ozaki2::new(nmod, Mode::Fast);
        for (i, (a, b)) in refs.iter().enumerate() {
            prop_assert_eq!(&got[i], &emu.dgemm(a, b), "group item {} share={}", i, share);
        }
    }

    /// Batched SGEMM (shared and unshared B) matches per-item sgemm
    /// bitwise. The unshared A items are windows with a padded leading
    /// dimension (`lda = m + a_pad`, NaN in the gap rows), so the strided
    /// f32 view path runs too.
    #[test]
    fn sgemm_batch_matches_sequential(
        count in 1usize..=9,
        m in 1usize..=12,
        n in 1usize..=12,
        k in 1usize..=16,
        nmod in 4usize..=10,
        seed in 0u64..1000,
        share_b in any::<bool>(),
        a_pad in 0usize..4,
    ) {
        let a_mats: Vec<_> =
            (0..count).map(|i| phi_matrix_f32(m, k, 0.5, seed + i as u64, 0)).collect::<Vec<_>>();
        let lda = m + a_pad;
        let mut a_data = vec![f32::NAN; count * lda * k];
        for (t, a) in a_mats.iter().enumerate() {
            for j in 0..k {
                let col = t * lda * k + j * lda;
                a_data[col..col + m].copy_from_slice(&a.as_slice()[j * m..(j + 1) * m]);
            }
        }
        let a_batch = StridedBatch::with_ld(&a_data, m, k, lda, lda * k, count);
        let runtime = BatchedOzaki2::new(nmod, Mode::Fast);
        let emu = Ozaki2::new(nmod, Mode::Fast);
        if share_b {
            let b = phi_matrix_f32(k, n, 0.5, seed + 777, 1);
            let got = batched(&runtime, &a_batch, &StridedBatch::broadcast(&b, count));
            for i in 0..count {
                prop_assert_eq!(&got[i], &emu.sgemm(&a_mats[i], &b), "sgemm shared item {}", i);
            }
        } else {
            let b_mats: Vec<_> =
                (0..count).map(|i| phi_matrix_f32(k, n, 0.5, seed + 100 + i as u64, 1)).collect::<Vec<_>>();
            let mut b_data = Vec::new();
            for b in &b_mats {
                b_data.extend_from_slice(b.as_slice());
            }
            let b_batch = StridedBatch::packed(&b_data, k, n, count);
            let got = batched(&runtime, &a_batch, &b_batch);
            for i in 0..count {
                prop_assert_eq!(&got[i], &emu.sgemm(&a_mats[i], &b_mats[i]), "sgemm item {}", i);
            }
        }
    }

    /// Accurate mode (uncached, monolithic per item) still matches the
    /// per-item emulator bitwise through the batched entry points.
    #[test]
    fn accurate_mode_batch_matches_sequential(
        count in 1usize..=6,
        m in 1usize..=12,
        n in 1usize..=12,
        k in 1usize..=16,
        seed in 0u64..1000,
    ) {
        let nmod = 10usize;
        let a_mats: Vec<MatF64> =
            (0..count).map(|i| phi_matrix_f64(m, k, 1.5, seed + i as u64, 0)).collect();
        let b = phi_matrix_f64(k, n, 1.5, seed + 42, 1);
        let (a_data, a_stride) = packed_stream(&a_mats, 2);
        let runtime = BatchedOzaki2::new(nmod, Mode::Accurate);
        let got = batched(
            &runtime,
            &StridedBatch::new(&a_data, m, k, a_stride, count),
            &StridedBatch::broadcast(&b, count),
        );
        let emu = Ozaki2::new(nmod, Mode::Accurate);
        for i in 0..count {
            prop_assert_eq!(&got[i], &emu.dgemm(&a_mats[i], &b), "accurate item {}", i);
        }
        // Accurate mode cannot cache one-sided preparations.
        prop_assert_eq!(runtime.cache().len(), 0);
    }
}

/// Accurate mode through the group entry runs the same per-item
/// fallback as the strided entry: bitwise equal to the per-item
/// emulator, with nothing cached.
#[test]
fn accurate_mode_group_matches_sequential() {
    let nmod = 10usize;
    let runtime = BatchedOzaki2::new(nmod, Mode::Accurate);
    let w = phi_matrix_f64(12, 7, 1.5, 1, 1);
    let a0 = phi_matrix_f64(5, 12, 1.5, 2, 0);
    let a1 = phi_matrix_f64(9, 12, 1.5, 3, 0);
    let items = [(&a0, &w), (&a1, &w), (&a0, &w)];
    let got = group(&runtime, &items);
    let emu = Ozaki2::new(nmod, Mode::Accurate);
    for (i, (a, b)) in items.iter().enumerate() {
        assert_eq!(got[i], emu.dgemm(a, b), "item {i}");
    }
    assert_eq!(runtime.cache().len(), 0);
}

/// Steady-state batched serving performs zero heap growth beyond the
/// output buffers: the pool stops creating workspaces, every parked
/// workspace stays at its high-water footprint, and the cache holds the
/// one shared preparation. On a single worker the property is exact; on
/// a parallel pool (the `OZAKI_WORKERS` CI matrix) a later round may
/// momentarily overlap more checkouts than warmup ever did, so the
/// assertion weakens to the peak-concurrency bound `workers + 1` (the
/// submitter helps) — still "flat", just measured against the true
/// high-water mark instead of warmup's sample of it.
#[test]
fn batched_steady_state_allocates_nothing() {
    let (m, n, k, count, nmod) = (24usize, 20, 32, 12, 15);
    let runtime = BatchedOzaki2::new(nmod, Mode::Fast);
    let b = phi_matrix_f64(k, n, 0.5, 9, 1);
    let a_mats: Vec<MatF64> = (0..count)
        .map(|i| phi_matrix_f64(m, k, 0.5, i as u64, 0))
        .collect();
    let (a_data, a_stride) = packed_stream(&a_mats, 0);
    let a_batch = StridedBatch::new(&a_data, m, k, a_stride, count);
    let b_batch = StridedBatch::broadcast(&b, count);
    let mut outs: Vec<MatF64> = (0..count).map(|_| Matrix::zeros(m, n)).collect();

    // Warm up: pool and cache grow to their high-water marks.
    for _ in 0..2 {
        runtime
            .try_batched_into(&a_batch, &b_batch, &mut outs)
            .unwrap();
    }
    let created = runtime.pool().created();
    let pool_bytes = runtime.pool().bytes();
    let cache_bytes = runtime.cache().bytes();
    assert!(created >= 1 && pool_bytes > 0 && cache_bytes > 0);
    assert_eq!(runtime.cache().len(), 1, "one shared preparation");

    // Steady state: nothing grows (exactly at W = 1, bounded by peak
    // checkout concurrency on a parallel pool).
    let workers = rayon::current_num_threads();
    for _ in 0..4 {
        runtime
            .try_batched_into(&a_batch, &b_batch, &mut outs)
            .unwrap();
        if workers == 1 {
            assert_eq!(runtime.pool().created(), created, "no new workspaces");
            assert_eq!(runtime.pool().bytes(), pool_bytes, "no workspace realloc");
        } else {
            assert!(
                runtime.pool().created() <= workers + 1,
                "workspaces {} exceed peak concurrency {}",
                runtime.pool().created(),
                workers + 1
            );
        }
        assert_eq!(runtime.cache().bytes(), cache_bytes, "no cache churn");
        assert_eq!(runtime.cache().len(), 1);
    }
    // And the results are still exactly the per-item emulator's.
    let emu = Ozaki2::new(nmod, Mode::Fast);
    for (i, c) in outs.iter().enumerate() {
        assert_eq!(c, &emu.dgemm(&a_mats[i], &b), "item {i}");
    }
}

/// The cross-call LRU serves repeated shared operands without
/// re-preparing them.
#[test]
fn cache_hits_across_calls() {
    let (m, n, k, count, nmod) = (8usize, 8, 12, 4, 8);
    let runtime = BatchedOzaki2::new(nmod, Mode::Fast);
    let b = phi_matrix_f64(k, n, 0.5, 1, 1);
    let a = phi_matrix_f64(m, k, 0.5, 2, 0);
    let a_batch_data = a.as_slice().to_vec();
    for call in 0..3 {
        let _ = batched(
            &runtime,
            &StridedBatch::new(&a_batch_data, m, k, 0, count),
            &StridedBatch::broadcast(&b, count),
        );
        assert_eq!(runtime.cache().len(), 2, "A and B preparations retained");
        if call > 0 {
            assert!(runtime.cache().hits() >= 2 * call, "call {call} must hit");
        }
    }
}

/// The operand-reuse policy, pinned by exact cumulative cache counts
/// `(hits, misses, len)` after each of three identical calls. Per-item
/// operands of a multi-item strided batch never touch the cache; a
/// broadcast side is prepared on its first call; a lone operand (a
/// single-item batch, or a group operand used once) is prepared only on
/// its second sighting; a group operand used twice is prepared at once.
#[test]
fn operand_reuse_policy_cache_counts() {
    let (m, n, k, count, nmod) = (8usize, 8, 12, 4, 8);
    let counts = |r: &BatchedOzaki2| (r.cache().hits(), r.cache().misses(), r.cache().len());
    let a_mats: Vec<MatF64> = (0..count)
        .map(|i| phi_matrix_f64(m, k, 0.5, 20 + i as u64, 0))
        .collect();
    let b_mats: Vec<MatF64> = (0..count)
        .map(|i| phi_matrix_f64(k, n, 0.5, 40 + i as u64, 1))
        .collect();
    let (a_data, a_stride) = packed_stream(&a_mats, 0);
    let (b_data, b_stride) = packed_stream(&b_mats, 0);
    let a_batch = StridedBatch::new(&a_data, m, k, a_stride, count);
    let mut outs: Vec<MatF64> = (0..count).map(|_| Matrix::zeros(m, n)).collect();

    let strided = |b_batch: &StridedBatch<'_, f64>, want: [(u64, u64, usize); 3]| {
        let runtime = BatchedOzaki2::new(nmod, Mode::Fast);
        let mut outs = outs.clone();
        for (call, want) in want.into_iter().enumerate() {
            runtime
                .try_batched_into(&a_batch, b_batch, &mut outs)
                .unwrap();
            assert_eq!(counts(&runtime), want, "call {call}");
        }
    };
    // packed × packed: no side is shared, the cache is never consulted.
    strided(
        &StridedBatch::new(&b_data, k, n, b_stride, count),
        [(0, 0, 0); 3],
    );
    // packed A × broadcast B: B prepared on the first call, then hit.
    strided(
        &StridedBatch::broadcast(&b_mats[0], count),
        [(0, 1, 1), (1, 1, 1), (2, 1, 1)],
    );

    // Single-item batch: both sides on probation, promoted on repeat.
    let runtime = BatchedOzaki2::new(nmod, Mode::Fast);
    for (call, want) in [(0, 2, 0), (0, 4, 2), (2, 4, 2)].into_iter().enumerate() {
        runtime
            .try_batched_into(
                &StridedBatch::broadcast(&a_mats[0], 1),
                &StridedBatch::broadcast(&b_mats[0], 1),
                &mut outs[..1],
            )
            .unwrap();
        assert_eq!(counts(&runtime), want, "single-item call {call}");
    }

    // Group of two unique As sharing one W: W prepared at once, the
    // As on their second sighting.
    let runtime = BatchedOzaki2::new(nmod, Mode::Fast);
    let w = &b_mats[0];
    let items = [(&a_mats[0], w), (&a_mats[1], w)];
    for (call, want) in [(0, 3, 1), (1, 5, 3), (4, 5, 3)].into_iter().enumerate() {
        runtime
            .try_dgemm_group_into(&items, &mut outs[..2])
            .unwrap();
        assert_eq!(counts(&runtime), want, "group call {call}");
    }
}

/// Single-item batches only pay for a preparation once the same operand
/// has been seen twice (probation): one-off operands stay on the raw
/// zero-alloc path, recurring weights still get amortized.
#[test]
fn single_item_batches_promote_on_repeat() {
    let (m, n, k, nmod) = (10usize, 8, 12, 8);
    let runtime = BatchedOzaki2::new(nmod, Mode::Fast);
    let a = phi_matrix_f64(m, k, 0.5, 1, 0);
    let b = phi_matrix_f64(k, n, 0.5, 2, 1);
    let emu = Ozaki2::new(nmod, Mode::Fast);
    let want = emu.dgemm(&a, &b);
    let call = || {
        batched(
            &runtime,
            &StridedBatch::broadcast(&a, 1),
            &StridedBatch::broadcast(&b, 1),
        )
    };
    assert_eq!(call()[0], want);
    assert_eq!(
        runtime.cache().len(),
        0,
        "first sighting of lone operands stays raw"
    );
    assert_eq!(call()[0], want);
    assert_eq!(runtime.cache().len(), 2, "second sighting promotes");
    let hits_before = runtime.cache().hits();
    assert_eq!(call()[0], want);
    assert!(runtime.cache().hits() >= hits_before + 2, "third call hits");
}

/// A broadcast SGEMM left operand is prepared once and cached, and the
/// results still match per-item sgemm bitwise.
#[test]
fn sgemm_shared_a_is_cached_and_bit_identical() {
    let (m, n, k, count, nmod) = (9usize, 7, 11, 5, 8);
    let runtime = BatchedOzaki2::new(nmod, Mode::Fast);
    let a = phi_matrix_f32(m, k, 0.5, 3, 0);
    let b_mats: Vec<_> = (0..count)
        .map(|i| phi_matrix_f32(k, n, 0.5, 10 + i as u64, 1))
        .collect::<Vec<_>>();
    let mut b_data = Vec::new();
    for b in &b_mats {
        b_data.extend_from_slice(b.as_slice());
    }
    let got = batched(
        &runtime,
        &StridedBatch::broadcast(&a, count),
        &StridedBatch::packed(&b_data, k, n, count),
    );
    assert_eq!(runtime.cache().len(), 1, "shared A prepared once");
    let emu = Ozaki2::new(nmod, Mode::Fast);
    for (i, b) in b_mats.iter().enumerate() {
        assert_eq!(got[i], emu.sgemm(&a, b), "item {i}");
    }
}

/// Mutating a cached operand in place must never serve stale panels:
/// the full-content fingerprint forces a re-preparation.
#[test]
fn in_place_mutation_never_serves_stale_panels() {
    let (m, n, k, count, nmod) = (8usize, 8, 10, 3, 8);
    let runtime = BatchedOzaki2::new(nmod, Mode::Fast);
    let a_data = vec![0.25f64; count * m * k];
    let mut b = phi_matrix_f64(k, n, 0.5, 4, 1);
    let emu = Ozaki2::new(nmod, Mode::Fast);
    for round in 0..3 {
        // Mutate ONE element in place between rounds (same pointer,
        // same shape — only the content differs).
        b[(round, round)] += 1.0 + round as f64;
        let got = batched(
            &runtime,
            &StridedBatch::packed(&a_data, m, k, count),
            &StridedBatch::broadcast(&b, count),
        );
        let a0 = gemm_dense::Matrix::from_vec(m, k, a_data[..m * k].to_vec());
        assert_eq!(got[0], emu.dgemm(&a0, &b), "round {round}");
    }
}

/// Per-item errors surface through the checked batched entry points.
#[test]
fn batched_propagates_item_errors() {
    let (m, n, k, count) = (4usize, 4, 4, 3);
    let runtime = BatchedOzaki2::new(8, Mode::Fast);
    let b = phi_matrix_f64(k, n, 0.5, 1, 1);
    let mut a_data = vec![0.5f64; count * m * k];
    a_data[m * k + 3] = f64::NAN; // poison item 1
    let mut outs = vec![MatF64::zeros(m, n); count];
    let err = runtime
        .try_batched_into(
            &StridedBatch::packed(&a_data, m, k, count),
            &StridedBatch::broadcast(&b, count),
            &mut outs,
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            ozaki2::EmulationError::NonFiniteInput {
                side: ozaki2::OperandSide::A,
                ..
            }
        ),
        "expected NonFiniteInput on side A, got {err:?}"
    );

    // Count mismatch.
    let ok_a = vec![0.5f64; 2 * m * k];
    assert_eq!(
        runtime
            .try_batched_into(
                &StridedBatch::packed(&ok_a, m, k, 2),
                &StridedBatch::broadcast(&b, 3),
                &mut outs[..2],
            )
            .unwrap_err(),
        ozaki2::EmulationError::ShapeMismatch
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Panic-hardening: a batch item that panics while holding a pooled
    /// workspace must not wedge the pool. The unwinding guard scrubs and
    /// returns the workspace, the poisoned free-list lock is recovered,
    /// and later checkouts see valid workspaces with flat byte
    /// accounting and bit-identical results.
    #[test]
    fn pool_survives_panicking_holders(
        m in 1usize..=16,
        n in 1usize..=16,
        k in 1usize..=24,
        nmod in 4usize..=12,
        seed in 0u64..1000,
    ) {
        use gemm_batch::WorkspacePool;
        let pool = WorkspacePool::new();
        let emu = Ozaki2::new(nmod, Mode::Fast);
        let a = phi_matrix_f64(m, k, 0.6, seed, 0);
        let b = phi_matrix_f64(k, n, 0.6, seed + 1, 1);
        let want = emu.dgemm(&a, &b);
        let product = |ws: &mut Workspace| emu.gemm(GemmArgs::new(&a, &b).workspace(ws)).unwrap().c;
        // Grow one workspace through a clean run.
        {
            let mut ws = pool.checkout();
            prop_assert_eq!(&product(&mut ws), &want);
        }
        let grown = pool.bytes();
        // Panic while holding the checked-out workspace: the guard's
        // drop runs during unwinding (thread::panicking() is true) and
        // its free-list MutexGuard release poisons the pool lock.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut ws = pool.checkout();
            let _ = product(&mut ws);
            panic!("simulated batch-item failure");
        }));
        prop_assert!(result.is_err());
        // The workspace came back (scrubbed, still grown) and the pool
        // keeps serving checkouts off the recovered lock.
        prop_assert_eq!(pool.available(), 1);
        prop_assert_eq!(pool.bytes(), grown, "byte accounting must stay flat");
        for _ in 0..3 {
            let mut ws = pool.checkout();
            prop_assert_eq!(pool.created(), 1, "reuse, not re-create");
            prop_assert_eq!(&product(&mut ws), &want);
            drop(ws);
            prop_assert_eq!(pool.bytes(), grown);
        }
    }
}
