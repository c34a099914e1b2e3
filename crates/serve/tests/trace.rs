//! One closed-loop trace replayed through the server, with every property
//! it implies checked exactly, and the observability layer armed around
//! it.
//!
//! Three tenants: two weight-stationary inference tenants (`svc-a`,
//! `svc-b`) streaming 48³ products against their own pinned weights, and
//! one HPC tenant (`hpc`) submitting 192³ products that take the solo
//! striped path. Requests go in paused bursts (pause, submit, resume,
//! drain), so each burst of small requests coalesces into exactly one
//! group round and each large request runs alone. The coalescing outcome
//! and the operand hits are then functions of the trace, not of scheduler
//! timing, at any worker count and under fault injection: the test
//! asserts them as equalities.
//!
//! This file is its own test binary with one test, so arming
//! observability in-process (`gemm_obs::set_enabled`) and reading the
//! process-global registry touches no other test.

use gemm_dense::workload::phi_matrix_f64;
use gemm_dense::MatF64;
use gemm_obs::catalog;
use gemm_serve::{GemmRequest, Server};
use ozaki2::{Mode, Ozaki2};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

const NMOD: usize = 15;
const SMALL: usize = 48;
const LARGE: usize = 192;
const BURSTS: usize = 12;
const BURST: usize = 8;
/// One large request every this many bursts.
const LARGE_EVERY: usize = 3;

/// A pinned weight matrix, a cycled pool of activations, and the
/// sequential `Ozaki2::dgemm` of each pair.
struct Tenant {
    name: &'static str,
    acts: Vec<Arc<MatF64>>,
    weights: Arc<MatF64>,
    oracle: Vec<MatF64>,
}

impl Tenant {
    fn new(name: &'static str, size: usize, pool: usize, seed: u64, emu: &Ozaki2) -> Self {
        let acts: Vec<Arc<MatF64>> = (0..pool)
            .map(|i| Arc::new(phi_matrix_f64(size, size, 0.5, seed + i as u64, 0)))
            .collect();
        let weights = Arc::new(phi_matrix_f64(size, size, 0.5, seed + 1000, 1));
        let oracle = acts.iter().map(|a| emu.dgemm(a, &weights)).collect();
        Self {
            name,
            acts,
            weights,
            oracle,
        }
    }

    /// Request `i` (cycling the pool), its oracle, and its two operands'
    /// identities as the server counts hits.
    fn request(&self, i: usize) -> (GemmRequest, &MatF64, [*const MatF64; 2]) {
        let a = &self.acts[i % self.acts.len()];
        (
            GemmRequest::new(self.name, a.clone(), self.weights.clone()),
            &self.oracle[i % self.acts.len()],
            [Arc::as_ptr(a), Arc::as_ptr(&self.weights)],
        )
    }
}

#[test]
fn closed_loop_trace_counts_are_exact_and_reconcile() {
    let emu = Ozaki2::new(NMOD, Mode::Fast);
    let tenants = [
        Tenant::new("svc-a", SMALL, 16, 10, &emu),
        Tenant::new("svc-b", SMALL, 16, 500, &emu),
    ];
    let hpc = Tenant::new("hpc", LARGE, 2, 900, &emu);

    // Opened after the oracle is baked, so its sequential GEMMs stay out
    // of the window, and before the server is built, so every admission
    // falls inside it.
    gemm_obs::set_enabled(true);
    let session = gemm_obs::ObsSession::begin();
    let server = Server::builder(NMOD, Mode::Fast)
        .queue_depth(BURST + 2)
        .max_batch(BURST)
        .coalesce_window(Duration::from_micros(500))
        .build();

    let (mut small, mut large) = (0usize, 0usize);
    let mut operands: HashSet<*const MatF64> = HashSet::new();
    for b in 0..BURSTS {
        server.pause();
        let mut inflight = Vec::with_capacity(BURST + 1);
        for _ in 0..BURST {
            let (req, want, ids) = tenants[small % 2].request(small / 2);
            operands.extend(ids);
            inflight.push((server.submit(req).expect("admit"), want));
            small += 1;
        }
        if b % LARGE_EVERY == 0 {
            let (req, want, ids) = hpc.request(large);
            operands.extend(ids);
            inflight.push((server.submit(req).expect("admit"), want));
            large += 1;
        }
        server.resume();
        for (handle, want) in inflight {
            let got = handle.wait().expect("trace jobs complete");
            assert_eq!(&got, want, "served result must equal Ozaki2::dgemm bitwise");
        }
    }

    // Each burst is one coalesced round and each large request one solo
    // round; a hit is every sighting of an operand after its first.
    let stats = server.stats();
    let (mut hits, mut submissions) = (0u64, 0u64);
    for (_, t) in server.tenants() {
        hits += t.cache_hits;
        submissions += t.submitted;
    }
    assert_eq!((small, large), (96, 4));
    assert_eq!(stats.completed, 100);
    assert_eq!(operands.len(), 37, "distinct operands the trace submits");
    assert_eq!(
        hits,
        2 * submissions - operands.len() as u64,
        "operand hits = 2 x {submissions} submissions - {} distinct operands",
        operands.len()
    );
    assert_eq!(hits, 163);
    assert_eq!(stats.coalesced, 96, "every small request coalesces");
    assert_eq!(stats.solo, 4, "every large request runs solo");
    assert_eq!(
        stats.rounds, 16,
        "one round per burst plus one per large request"
    );

    let metrics = server.metrics_text();
    for needle in [
        "ozaki_serve_coalesce_rate",
        "ozaki_serve_cache_hit_rate",
        "ozaki_phase_fold_seconds_count",
    ] {
        assert!(metrics.contains(needle), "metrics text lacks {needle}");
    }
    server.shutdown();

    assert_eq!(
        catalog::SERVE_COMPLETED.value(),
        stats.completed,
        "registry completion counter must agree with server stats"
    );
    // Both sides of each pair record the same nanosecond value per
    // observation, so they agree unless a span ring wrapped; the 1%
    // only absorbs that truncation.
    let recs = session.reconcile();
    assert!(!recs.is_empty(), "the served trace observed no histogram");
    if session.dropped() == 0 {
        for r in &recs {
            assert!(
                r.within(0.01),
                "span/histogram mismatch for {}: spans {} ns vs histogram {} ns",
                r.span_name,
                r.span_ns,
                r.hist_ns
            );
        }
    }
    let trace = session.export_chrome_trace();
    for span in ["execute_round", "queue_wait"] {
        assert!(trace.contains(span), "chrome trace lacks {span}");
    }
}
