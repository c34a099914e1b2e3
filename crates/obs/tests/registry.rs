//! Registry semantics under concurrency and at bucket boundaries.
//!
//! Every test in this binary arms the gate first: `set_enabled(true)`
//! overrides whatever `OZAKI_OBS` says in the environment, so the suite
//! behaves identically in plain CI and in the `OZAKI_OBS=1` job.

use gemm_obs::{set_enabled, Counter, Gauge, Histogram, TimeShare};
use std::sync::Arc;

/// 8 threads x 100k increments on one sharded counter must lose nothing:
/// the shards are plain relaxed atomics, so the aggregate is exact no
/// matter how the threads interleave or which shard each lands on.
#[test]
fn counter_concurrent_increments_are_exact() {
    set_enabled(true);
    static C: Counter = Counter::new("test_concurrent_total", "test");
    const THREADS: usize = 8;
    const PER: u64 = 100_000;
    let barrier = Arc::new(std::sync::Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..PER {
                    // Mix the entry points so both gated paths are hit.
                    if (i + t as u64).is_multiple_of(2) {
                        C.inc();
                    } else {
                        C.add(1);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(C.value(), THREADS as u64 * PER);
}

/// Same exactness for a histogram: concurrent observations must neither
/// drop samples nor corrupt the sum.
#[test]
fn histogram_concurrent_observations_are_exact() {
    set_enabled(true);
    static H: Histogram = Histogram::new("test_conc_seconds", "test", "test_conc");
    const THREADS: usize = 8;
    const PER: u64 = 50_000;
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            std::thread::spawn(|| {
                for i in 1..=PER {
                    H.observe_ns(i);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(H.count(), THREADS as u64 * PER);
    assert_eq!(H.sum_ns(), THREADS as u64 * (PER * (PER + 1) / 2));
}

/// Bucket boundaries are exact powers of two: `2^i` is the *first* value
/// of bucket `i`, `2^i - 1` the last value of bucket `i-1`. An
/// off-by-one here silently shifts every reported quantile.
#[test]
fn histogram_bucket_boundaries_are_exact() {
    // Pure index math, no gate involved.
    assert_eq!(Histogram::bucket_index(0), 0, "0 clamps into bucket 0");
    assert_eq!(Histogram::bucket_index(1), 0);
    for i in 1..47usize {
        let edge = 1u64 << i;
        assert_eq!(Histogram::bucket_index(edge), i, "2^{i} opens bucket {i}");
        assert_eq!(
            Histogram::bucket_index(edge - 1),
            i - 1,
            "2^{i} - 1 closes bucket {}",
            i - 1
        );
        assert_eq!(
            Histogram::bucket_upper_ns(i - 1),
            edge,
            "bucket {} upper edge",
            i - 1
        );
    }
    // Everything at and beyond 2^47 ns (~1.6 days) lands in the final
    // unbounded bucket.
    assert_eq!(Histogram::bucket_index(1 << 47), 47);
    assert_eq!(Histogram::bucket_index(u64::MAX), 47);
    assert_eq!(Histogram::bucket_upper_ns(47), u64::MAX);
}

/// Quantiles walk the cumulative counts and report the bucket's upper
/// edge — a deliberate over-estimate, never an under-estimate.
#[test]
fn histogram_quantiles_report_bucket_upper_edges() {
    set_enabled(true);
    static H: Histogram = Histogram::new("test_quant_seconds", "test", "test_quant");
    // 90 samples in [2^4, 2^5), 10 in [2^10, 2^11).
    for _ in 0..90 {
        H.observe_ns(20);
    }
    for _ in 0..10 {
        H.observe_ns(1300);
    }
    assert_eq!(H.quantile_ns(0.50), 32, "p50 is the fast bucket's edge");
    assert_eq!(H.quantile_ns(0.90), 32, "rank 90 still in the fast bucket");
    assert_eq!(H.quantile_ns(0.99), 2048, "p99 reaches the slow bucket");
    assert_eq!(H.quantile_ns(1.0), 2048);
    assert_eq!(H.quantile_ns(0.0), 32, "rank clamps to 1, not 0");
}

#[test]
fn gauge_records_latest_value() {
    set_enabled(true);
    static G: Gauge = Gauge::new("test_gauge", "test");
    // Gauges are deliberately ungated (cold-path correctness signals).
    G.set(7);
    assert_eq!(G.value(), 7);
    G.set(-3);
    assert_eq!(G.value(), -3);
}

#[test]
fn timeshare_fraction_matches_accumulated_parts() {
    let t = TimeShare::new();
    assert_eq!(t.fraction(), 0.0, "empty share reads 0, not NaN");
    t.add(25, 100);
    t.add(25, 100);
    assert_eq!(t.part_ns(), 50);
    assert_eq!(t.total_ns(), 200);
    assert!((t.fraction() - 0.25).abs() < 1e-12);
}

/// The Prometheus rendering must expose the catalog metrics with their
/// exposition names and the histogram plumbing (`_bucket`/`_sum`/
/// `_count`, terminal `+Inf`).
#[test]
fn prometheus_text_exposes_catalog() {
    set_enabled(true);
    gemm_obs::catalog::EMULATED_GEMMS.add(0); // touch so the name exists
    gemm_obs::catalog::PHASE_FOLD.observe_ns(1_000_000);
    let text = gemm_obs::render_prometheus();
    for needle in [
        "# TYPE ozaki_emulated_gemms_total counter",
        "# TYPE ozaki_phase_fold_seconds histogram",
        "ozaki_phase_fold_seconds_sum",
        "ozaki_phase_fold_seconds_count",
        "ozaki_phase_fold_seconds_bucket{le=\"+Inf\"}",
        "# TYPE ozaki_serve_cache_hit_tracking_saturated gauge",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}
