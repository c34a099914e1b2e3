//! Unit tests for the serving runtime's policy machinery: backpressure
//! at the configured queue depth, coalesce-window flush on timeout,
//! deadline shedding, admission validation, and exact tenant/server
//! accounting. (Bit-identicality across interleavings and worker counts
//! lives in `tests/proptests.rs`.)

use gemm_dense::workload::phi_matrix_f64;
use gemm_dense::MatF64;
use gemm_serve::{GemmRequest, JobError, Server, SubmitError};
use ozaki2::{EmulationError, Mode, Ozaki2};
use std::sync::Arc;
use std::time::Duration;

fn mat(rows: usize, cols: usize, seed: u64) -> Arc<MatF64> {
    Arc::new(phi_matrix_f64(rows, cols, 0.5, seed, 0))
}

/// `try_submit` reports `QueueFull` exactly at the configured depth, the
/// blocking `submit` path still admits after capacity frees up, and the
/// rejection is charged to the submitting tenant.
#[test]
fn try_submit_hits_queue_full_at_configured_depth() {
    let server = Server::builder(6, Mode::Fast).queue_depth(2).build();
    server.pause(); // dispatcher stops popping: occupancy is deterministic
    let w = mat(12, 8, 1);
    let mk = |s: u64| GemmRequest::new("t0", mat(8, 12, 10 + s), w.clone());
    let h0 = server.try_submit(mk(0)).expect("depth 2: first admits");
    let h1 = server.try_submit(mk(1)).expect("depth 2: second admits");
    assert_eq!(server.queue_len(), 2);
    match server.try_submit(mk(2)) {
        Err(SubmitError::QueueFull) => {}
        other => panic!("expected QueueFull, got {:?}", other.map(|_| ())),
    }
    let stats = server.tenant_stats("t0").expect("tenant exists");
    assert_eq!(stats.submitted, 2);
    assert_eq!(stats.rejected, 1);
    server.resume();
    // Capacity frees as the dispatcher drains; blocking submit admits.
    let h2 = server.submit(mk(3)).expect("blocking submit admits");
    for h in [h0, h1, h2] {
        h.wait().expect("drained jobs complete");
    }
    let stats = server.tenant_stats("t0").expect("tenant exists");
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.completed, 3);
}

/// A lone small job must not wait forever for companions: the coalesce
/// window flushes it as a solo round.
#[test]
fn coalesce_window_flushes_a_lone_small_job_on_timeout() {
    let server = Server::builder(6, Mode::Fast)
        .coalesce_window(Duration::from_millis(20))
        .max_batch(64)
        .build();
    let a = mat(10, 14, 3);
    let b = mat(14, 9, 4);
    let h = server
        .submit(GemmRequest::new("solo", a.clone(), b.clone()))
        .expect("admitted");
    let c = h.wait().expect("window flush completes the job");
    assert_eq!(c, Ozaki2::new(6, Mode::Fast).dgemm(&a, &b));
    let stats = server.stats();
    assert_eq!(stats.solo, 1);
    assert_eq!(stats.coalesced, 0);
    assert_eq!(stats.rounds, 1);
}

/// Jobs buffered while paused coalesce into one round on resume; a full
/// round (pending == max_batch) flushes without waiting for the window.
#[test]
fn paused_submissions_coalesce_into_one_round() {
    let server = Server::builder(6, Mode::Fast)
        .coalesce_window(Duration::from_millis(50))
        .max_batch(8)
        .build();
    server.pause();
    let w = mat(16, 12, 7);
    let handles: Vec<_> = (0..5u64)
        .map(|s| {
            server
                .submit(GemmRequest::new("inf", mat(8, 16, 20 + s), w.clone()))
                .expect("admitted")
        })
        .collect();
    server.resume();
    for h in handles {
        h.wait().expect("coalesced round completes");
    }
    let stats = server.stats();
    assert_eq!(stats.coalesced, 5, "all five jobs rode one round");
    assert_eq!(stats.solo, 0);
    assert_eq!(stats.rounds, 1);
    assert_eq!(stats.peak_queue_depth, 5);
}

/// `max_batch` chunks an oversized backlog into full rounds.
#[test]
fn max_batch_chunks_the_backlog() {
    let server = Server::builder(5, Mode::Fast)
        .coalesce_window(Duration::from_millis(30))
        .max_batch(4)
        .build();
    server.pause();
    let w = mat(12, 10, 11);
    let handles: Vec<_> = (0..10u64)
        .map(|s| {
            server
                .submit(GemmRequest::new("bulk", mat(6, 12, 40 + s), w.clone()))
                .expect("admitted")
        })
        .collect();
    server.resume();
    for h in handles {
        h.wait().expect("chunked rounds complete");
    }
    let stats = server.stats();
    assert_eq!(stats.completed, 10);
    // 4 + 4 full rounds, then a window-flushed pair.
    assert_eq!(stats.rounds, 3);
    assert_eq!(stats.coalesced, 10);
}

/// An admitted job that out-waits its deadline is shed, not executed,
/// and the shed is charged to its tenant.
#[test]
fn overdue_jobs_are_shed_with_queue_residence_time() {
    let server = Server::builder(6, Mode::Fast).build();
    server.pause();
    let h = server
        .submit(
            GemmRequest::new("late", mat(8, 8, 1), mat(8, 8, 2)).deadline(Duration::from_nanos(1)),
        )
        .expect("admitted");
    std::thread::sleep(Duration::from_millis(5));
    server.resume();
    match h.wait() {
        Err(JobError::Shed { queued_for }) => {
            assert!(queued_for >= Duration::from_millis(5));
        }
        other => panic!("expected Shed, got {:?}", other.map(|_| ())),
    }
    let stats = server.tenant_stats("late").expect("tenant exists");
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.completed, 0);
    assert_eq!(server.stats().shed, 1);
}

/// The server-level `default_deadline` applies to requests without one.
#[test]
fn default_deadline_sheds_requests_without_their_own() {
    let server = Server::builder(6, Mode::Fast)
        .default_deadline(Duration::from_nanos(1))
        .build();
    server.pause();
    let h = server
        .submit(GemmRequest::new("d", mat(8, 8, 1), mat(8, 8, 2)))
        .expect("admitted");
    std::thread::sleep(Duration::from_millis(2));
    server.resume();
    assert!(matches!(h.wait(), Err(JobError::Shed { .. })));
}

/// Malformed requests are rejected at the door — shape mismatch and
/// non-finite operands never reach a coalesced round.
#[test]
fn admission_rejects_invalid_requests() {
    let server = Server::builder(6, Mode::Fast).build();
    // Inner dimensions disagree: 8x12 · 8x12.
    let err = server
        .submit(GemmRequest::new("bad", mat(8, 12, 1), mat(8, 12, 2)))
        .expect_err("shape mismatch must not admit");
    assert_eq!(err, SubmitError::Invalid(EmulationError::ShapeMismatch));
    // A NaN operand.
    let mut poisoned = phi_matrix_f64(8, 8, 0.5, 3, 0);
    poisoned.as_mut_slice()[5] = f64::NAN;
    let err = server
        .submit(GemmRequest::new("bad", Arc::new(poisoned), mat(8, 8, 4)))
        .expect_err("non-finite operand must not admit");
    assert!(matches!(
        err,
        SubmitError::Invalid(EmulationError::NonFiniteInput { index: 5, .. })
    ));
    let stats = server.tenant_stats("bad").expect("tenant exists");
    assert_eq!(stats.rejected, 2);
    assert_eq!(stats.submitted, 0);
}

/// An operand identity admitted before is rescanned: a matrix mutated in
/// place after its job completed is rejected at the door, not admitted to
/// fail later as a round's `NonFiniteInput`.
#[test]
fn admission_rescans_operands_mutated_after_completion() {
    let server = Server::builder(6, Mode::Fast).build();
    let mut a = mat(8, 8, 11);
    let b = mat(8, 8, 12);
    server
        .submit(GemmRequest::new("mut", a.clone(), b.clone()))
        .expect("finite pair admits")
        .wait()
        .expect("finite pair completes");
    // The server drops its clone of `a` shortly after completing the job.
    let spin_until = std::time::Instant::now() + Duration::from_secs(10);
    let a_mut = loop {
        if let Some(m) = Arc::get_mut(&mut a) {
            break m;
        }
        assert!(
            std::time::Instant::now() < spin_until,
            "server kept its operand"
        );
        std::thread::yield_now();
    };
    a_mut.as_mut_slice()[5] = f64::NAN;
    let err = server
        .submit(GemmRequest::new("mut", a.clone(), b))
        .expect_err("mutated operand must not admit");
    assert!(matches!(
        err,
        SubmitError::Invalid(EmulationError::NonFiniteInput { index: 5, .. })
    ));
    let stats = server.tenant_stats("mut").expect("tenant exists");
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.submitted, 1);
}

/// A high-intensity job takes the solo striped path and still matches
/// the per-call emulator bitwise.
#[test]
fn large_jobs_dispatch_solo_and_stay_bit_identical() {
    let s = 192; // above the inter/intra crossover at N = 8
    let server = Server::builder(8, Mode::Fast).build();
    let a = mat(s, s, 5);
    let b = Arc::new(phi_matrix_f64(s, s, 0.5, 6, 1));
    let h = server
        .submit(GemmRequest::new("hpc", a.clone(), b.clone()))
        .expect("admitted");
    let c = h.wait().expect("large job completes");
    assert_eq!(c, Ozaki2::new(8, Mode::Fast).dgemm(&a, &b));
    let stats = server.stats();
    assert_eq!(stats.solo, 1);
    assert_eq!(stats.coalesced, 0);
}

/// Exact accounting: submissions, completions, bytes, residue-GEMMs and
/// operand-reuse hits per tenant, asserted with equality.
#[test]
fn tenant_accounting_is_exact() {
    let nmod = 7;
    let server = Server::builder(nmod, Mode::Fast).build();
    server.pause();
    let w = mat(16, 12, 70); // t0's stationary weights, submitted 3x
    let mut handles = Vec::new();
    for s in 0..3u64 {
        handles.push(
            server
                .submit(GemmRequest::new("t0", mat(8, 16, 80 + s), w.clone()))
                .expect("admitted"),
        );
    }
    for s in 0..2u64 {
        handles.push(
            server
                .submit(GemmRequest::new(
                    "t1",
                    mat(10, 14, 90 + s),
                    mat(14, 6, 95 + s),
                ))
                .expect("admitted"),
        );
    }
    server.resume();
    for h in handles {
        h.wait().expect("all jobs complete");
    }
    let t0 = server.tenant_stats("t0").expect("t0 exists");
    assert_eq!(t0.submitted, 3);
    assert_eq!(t0.completed, 3);
    assert_eq!(t0.rejected, 0);
    assert_eq!(t0.shed, 0);
    assert_eq!(t0.residue_gemms, 3 * nmod as u64);
    // Per product: A 8x16, B 16x12, C 8x12, all f64.
    assert_eq!(t0.bytes, 3 * 8 * (8 * 16 + 16 * 12 + 8 * 12) as u64);
    // The shared weight matrix was re-admitted twice after its first
    // sighting; the unique activations never hit.
    assert_eq!(t0.cache_hits, 2);
    let t1 = server.tenant_stats("t1").expect("t1 exists");
    assert_eq!(t1.submitted, 2);
    assert_eq!(t1.completed, 2);
    assert_eq!(t1.cache_hits, 0);
    assert_eq!(
        server
            .tenants()
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>(),
        ["t0", "t1"]
    );
    let totals = server.stats();
    assert_eq!(totals.submitted, 5);
    assert_eq!(totals.completed, 5);
}

/// Dropping the server drains every admitted job before the dispatcher
/// exits — no handle is left dangling.
#[test]
fn shutdown_drains_admitted_jobs() {
    let server = Server::builder(6, Mode::Fast)
        .coalesce_window(Duration::from_millis(100))
        .build();
    server.pause();
    let w = mat(12, 10, 50);
    let handles: Vec<_> = (0..4u64)
        .map(|s| {
            server
                .submit(GemmRequest::new("drain", mat(6, 12, 60 + s), w.clone()))
                .expect("admitted")
        })
        .collect();
    drop(server); // shutdown: un-pauses, drains, joins
    for h in handles {
        h.wait().expect("drained job completed during shutdown");
    }
}

/// `close()` wakes a submitter blocked on a full queue with
/// `SubmitError::Shutdown` instead of leaving it hanging, while the
/// already-admitted job still drains.
#[test]
fn close_wakes_blocked_submitters_and_drains() {
    let server = Server::builder(6, Mode::Fast).queue_depth(1).build();
    server.pause();
    let filler = server
        .submit(GemmRequest::new("t", mat(8, 8, 1), mat(8, 8, 2)))
        .expect("fills the depth-1 queue");
    let result = std::thread::scope(|s| {
        let blocked = s.spawn(|| server.submit(GemmRequest::new("t", mat(8, 8, 3), mat(8, 8, 4))));
        // Give the submitter time to actually block on the full queue.
        std::thread::sleep(Duration::from_millis(10));
        server.close();
        blocked.join().expect("submitter thread exits")
    });
    match result {
        Err(SubmitError::Shutdown) => {}
        other => panic!("expected Shutdown, got {:?}", other.map(|_| ())),
    }
    filler.wait().expect("queued job drained on close");
    // And a closed server refuses new work outright.
    assert_eq!(
        server
            .try_submit(GemmRequest::new("t", mat(8, 8, 5), mat(8, 8, 6)))
            .map(|_| ())
            .expect_err("closed server refuses"),
        SubmitError::Shutdown
    );
}

/// `is_done` / `try_wait` poll without blocking and hand the result
/// over exactly once.
#[test]
fn handle_polling_works() {
    let server = Server::builder(6, Mode::Fast).build();
    let a = mat(8, 8, 1);
    let b = mat(8, 8, 2);
    let h = server
        .submit(GemmRequest::new("poll", a.clone(), b.clone()))
        .expect("admitted");
    assert_eq!(h.tenant(), "poll");
    // Poll until done (bounded by the suite timeout, practically ms).
    let mut h = h;
    let result = loop {
        match h.try_wait() {
            Ok(result) => break result,
            Err(pending) => {
                h = pending;
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    };
    assert_eq!(
        result.expect("completes"),
        Ozaki2::new(6, Mode::Fast).dgemm(&a, &b)
    );
}
