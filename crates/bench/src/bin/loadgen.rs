//! Serving-runtime load generator: replays a mixed-size, multi-tenant
//! trace against `gemm_serve::Server` and records sustained GEMMs/s,
//! p50/p99 request latency, the coalesce rate, and the operand cache hit
//! rate into a `serving` section of `BENCH_int8.json` (spliced into the
//! snapshot `bench_int8` writes, preserving its sections).
//!
//! The trace is three tenants: two weight-stationary inference tenants
//! (`svc-a`, `svc-b`) streaming small below-crossover GEMMs against their
//! own pinned weight matrix, and one HPC tenant (`hpc`) submitting large
//! above-crossover GEMMs that take the solo striped path. Requests are
//! driven in bursts (pause → submit → resume → drain), which makes the
//! coalescing outcome — and therefore the coalesce and cache-hit rates —
//! exactly reproducible run to run. Every response is asserted
//! bit-identical to the sequential `Ozaki2::dgemm` oracle before any
//! timing counts for anything.
//!
//! In the closed loop both ratios are exact functions of the trace, and
//! every run asserts them: operand hits equal 2 x submissions minus the
//! distinct operands the client submitted, every small request coalesces
//! and every large one runs solo.
//!
//! With `--check-against=<baseline.json>` the run doubles as a CI gate:
//! the deterministic ratio metrics (coalesce rate, cache hit rate) are
//! always gated; the timing metrics (GEMMs/s, p99) are gated only in
//! full (non-`--smoke`) runs, since the smoke trace is too short to time
//! reliably on shared runners. A baseline measured with a different INT8
//! microkernel, or predating the serving section, skips loudly instead
//! of gating on noise.
//!
//! With `--open-loop` the burst-driven closed loop is replaced by an
//! **open-loop Poisson trace**: arrivals follow exponential inter-arrival
//! gaps at `--rate=<reqs/s>` sampled from a seeded Philox stream (the
//! offered trace is reproducible even though service order is not), and
//! submission never waits on service — `try_submit` sheds to the bounded
//! queue's backpressure exactly as a real open-loop client would. The
//! `serving` section then records the offered arrival rate, the shed
//! count, and the achieved throughput next to the latency percentiles,
//! which is the honest way to report a saturating server (closed loops
//! hide overload by slowing the client down). Open-loop timing is
//! scheduler-dependent, so `--check-against` gating is loudly skipped in
//! this mode.
//!
//! Usage: `cargo run --release -p gemm_bench --bin loadgen --
//! [--smoke] [--workers=2] [--open-loop] [--rate=400]
//! [--out=BENCH_int8.json]
//! [--check-against=BENCH_baseline.json] [--tolerance=0.8]
//! [--trace-out=loadgen-trace.json]`
//!
//! With `OZAKI_OBS=1` the run opens a [`gemm_obs::ObsSession`] around
//! the trace replay, exports a chrome://tracing JSON of every captured
//! span to `--trace-out`, and asserts that per-phase span sums reconcile
//! with the Prometheus histogram totals (exactly when no span ring
//! wrapped; see `docs/OBSERVABILITY.md`).

use gemm_bench::check::{check_regressions, json_number, json_string, upsert_section, GateMetric};
use gemm_bench::report::Args;
use gemm_dense::workload::phi_matrix_f64;
use gemm_dense::{MatF64, Philox4x32};
use gemm_engine::microkernel_name;
use gemm_serve::{GemmRequest, JobHandle, Server};
use ozaki2::{Mode, Ozaki2};
use std::collections::HashSet;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One tenant's replayable traffic: a pinned weight matrix and a cycled
/// pool of activation matrices (the weight-stationary pattern), plus the
/// per-pair oracle results.
struct Tenant {
    name: &'static str,
    acts: Vec<Arc<MatF64>>,
    weights: Arc<MatF64>,
    oracle: Vec<MatF64>,
}

impl Tenant {
    fn new(name: &'static str, m: usize, k: usize, n: usize, pool: usize, seed: u64) -> Self {
        let acts: Vec<Arc<MatF64>> = (0..pool)
            .map(|i| Arc::new(phi_matrix_f64(m, k, 0.5, seed + i as u64, 0)))
            .collect();
        let weights = Arc::new(phi_matrix_f64(k, n, 0.5, seed + 1000, 1));
        Self {
            name,
            acts,
            weights,
            oracle: Vec::new(),
        }
    }

    /// Precompute the per-activation oracle with the sequential emulator.
    fn bake_oracle(&mut self, emu: &Ozaki2) {
        self.oracle = self
            .acts
            .iter()
            .map(|a| emu.dgemm(a, &self.weights))
            .collect();
    }

    /// Identities of request `i`'s two operands, as the server counts hits.
    fn operand_ids(&self, i: usize) -> [*const MatF64; 2] {
        let idx = i % self.acts.len();
        [Arc::as_ptr(&self.acts[idx]), Arc::as_ptr(&self.weights)]
    }

    fn request(&self, i: usize) -> (GemmRequest, &MatF64) {
        let idx = i % self.acts.len();
        (
            GemmRequest::new(self.name, self.acts[idx].clone(), self.weights.clone()),
            &self.oracle[idx],
        )
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Reap every completed in-flight job: record its latency and assert the
/// result bit-identical to the oracle. Called between open-loop arrivals
/// so latency is measured at completion, not at drain order.
fn drain_done(pending: &mut Vec<(Instant, JobHandle, &MatF64)>, latencies: &mut Vec<f64>) {
    let mut i = 0;
    while i < pending.len() {
        if pending[i].1.is_done() {
            let (t0, handle, want) = pending.swap_remove(i);
            let got = handle.wait().expect("open-loop jobs complete");
            latencies.push(t0.elapsed().as_secs_f64() * 1e3);
            assert_eq!(&got, want, "served result must stay bit-identical");
        } else {
            i += 1;
        }
    }
}

fn main() {
    let args = Args::from_env();
    let smoke = args.flag("smoke");
    let open_loop = args.flag("open-loop");
    let rate: f64 = args
        .get("rate")
        .unwrap_or(if smoke { 400.0 } else { 200.0 });
    let out_path: String = args.get("out").unwrap_or_else(|| "BENCH_int8.json".into());
    if let Some(w) = args.get::<usize>("workers") {
        rayon::set_num_threads(w);
    }
    let workers = rayon::current_num_threads();
    let nmod = 15usize; // the paper's DGEMM-accuracy setting

    // Trace scale: smoke keeps CI runs in the seconds, full sizes the
    // measurement for a perf snapshot.
    let (small, large, n_small, n_large, burst) = if smoke {
        (48usize, 192usize, 96usize, 4usize, 8usize)
    } else {
        (64, 256, 1024, 16, 16)
    };

    let emu = Ozaki2::new(nmod, Mode::Fast);
    let mut tenants = [
        Tenant::new("svc-a", small, small, small, 16, 10),
        Tenant::new("svc-b", small, small, small, 16, 500),
    ];
    let mut hpc = Tenant::new("hpc", large, large, large, 2, 900);
    for t in &mut tenants {
        t.bake_oracle(&emu);
    }
    hpc.bake_oracle(&emu);

    // Observability session: opened *after* oracle baking so the baked
    // sequential GEMMs (pure setup) stay out of the trace and out of the
    // span/histogram reconciliation window, and *before* the server is
    // built so every admission falls inside it.
    let obs = gemm_obs::enabled().then(gemm_obs::ObsSession::begin);

    let server = Server::builder(nmod, Mode::Fast)
        .queue_depth(burst + 2)
        .max_batch(burst)
        .coalesce_window(Duration::from_micros(500))
        .build();

    let mut latencies: Vec<f64> = Vec::with_capacity(n_small + n_large);
    let mut submitted_small = 0usize;
    let mut submitted_large = 0usize;
    let mut shed = 0usize;
    // Distinct operands submitted (closed loop only).
    let mut operands: HashSet<*const MatF64> = HashSet::new();
    let t_start = Instant::now();
    if open_loop {
        // Open-loop Poisson trace: exponential inter-arrival gaps at
        // `rate` req/s from a seeded Philox stream. Arrivals never wait
        // on service; a full queue sheds the request (counted, not
        // fatal) — so the latency percentiles below describe the server
        // under the *offered* load, not under a client throttled by its
        // own waits.
        let mut rng = Philox4x32::new_stream(4242, 7);
        let n_total = n_small + n_large;
        let large_every = n_total / n_large.max(1);
        let mut pending: Vec<(Instant, JobHandle, &MatF64)> = Vec::new();
        let mut arrival = Duration::ZERO;
        for i in 0..n_total {
            let u = rng.uniform_f64();
            arrival += Duration::from_secs_f64(-(1.0 - u).ln() / rate);
            while t_start.elapsed() < arrival {
                drain_done(&mut pending, &mut latencies);
                std::thread::sleep(Duration::from_micros(50));
            }
            let (req, want) = if large_every > 0
                && i % large_every == large_every - 1
                && submitted_large < n_large
            {
                submitted_large += 1;
                hpc.request(submitted_large - 1)
            } else {
                submitted_small += 1;
                tenants[(submitted_small - 1) % 2].request((submitted_small - 1) / 2)
            };
            match server.try_submit(req) {
                Ok(handle) => pending.push((Instant::now(), handle, want)),
                Err(_) => shed += 1,
            }
            drain_done(&mut pending, &mut latencies);
        }
        for (t0, handle, want) in pending {
            let got = handle.wait().expect("open-loop jobs complete");
            latencies.push(t0.elapsed().as_secs_f64() * 1e3);
            assert_eq!(&got, want, "served result must stay bit-identical");
        }
    } else {
        // Burst-driven closed loop: pause, enqueue one burst of small
        // jobs (tenants alternating) plus any due large job, resume,
        // drain. Each burst coalesces into exactly one group round and
        // each large job runs solo, so the coalesce rate is a property
        // of the trace, not of scheduler timing — which is what lets CI
        // gate on it.
        let n_bursts = n_small / burst;
        let large_every = n_bursts.max(1) / n_large.max(1);
        for b in 0..n_bursts {
            server.pause();
            let mut inflight: Vec<(Instant, JobHandle, &MatF64)> = Vec::with_capacity(burst + 1);
            for _ in 0..burst {
                let tenant = &tenants[submitted_small % 2];
                let (req, want) = tenant.request(submitted_small / 2);
                operands.extend(tenant.operand_ids(submitted_small / 2));
                inflight.push((Instant::now(), server.submit(req).expect("admit"), want));
                submitted_small += 1;
            }
            if large_every > 0 && b % large_every == 0 && submitted_large < n_large {
                let (req, want) = hpc.request(submitted_large);
                operands.extend(hpc.operand_ids(submitted_large));
                inflight.push((Instant::now(), server.submit(req).expect("admit"), want));
                submitted_large += 1;
            }
            server.resume();
            for (t0, handle, want) in inflight {
                let got = handle.wait().expect("trace jobs complete");
                latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                assert_eq!(&got, want, "served result must stay bit-identical");
            }
        }
    }
    let wall = t_start.elapsed().as_secs_f64();
    let offered = submitted_small + submitted_large;
    let total = offered - shed;

    let stats = server.stats();
    assert_eq!(stats.completed as usize, total, "every request completed");
    let gemms_per_s = total as f64 / wall;
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50_ms = percentile(&latencies, 0.50);
    let p99_ms = percentile(&latencies, 0.99);
    let coalesce_rate = stats.coalesce_rate();
    let (mut hits, mut submissions) = (0u64, 0u64);
    for (_, t) in server.tenants() {
        hits += t.cache_hits;
        submissions += t.submitted;
    }
    // Two operands per submission; hits are identity re-sightings.
    let cache_hit_rate = hits as f64 / (2 * submissions) as f64;
    if !open_loop {
        // Each burst is one coalesced round and each large job one solo
        // round, and a hit is every sighting of an operand after its
        // first: check both ratios exactly, not within a tolerance.
        assert_eq!(
            hits,
            2 * submissions - operands.len() as u64,
            "operand hits must be 2 x {submissions} submissions - {} distinct operands",
            operands.len()
        );
        assert_eq!(
            stats.coalesced, submitted_small as u64,
            "every small request coalesces"
        );
        assert_eq!(
            stats.solo, submitted_large as u64,
            "every large request runs solo"
        );
        println!(
            "  exact ratios: {hits} hits = 2 x {submissions} - {} distinct operands; \
             {submitted_small} coalesced, {submitted_large} solo",
            operands.len()
        );
    }

    println!(
        "serving loadgen: {total} reqs ({submitted_small} x {small}^3 across 2 tenants, \
         {submitted_large} x {large}^3 hpc), N={nmod}, {workers} worker(s), burst {burst}"
    );
    if open_loop {
        let arrival_rate = offered as f64 / wall;
        println!(
            "  open loop   : offered {rate:.1} req/s (measured {arrival_rate:.1}), \
             {shed} shed at the queue"
        );
    }
    println!(
        "  sustained   : {gemms_per_s:8.1} GEMMs/s\n  p50 latency : {p50_ms:8.3} ms\n  p99 latency : {p99_ms:8.3} ms"
    );
    println!(
        "  coalesce    : {:8.1} %  ({} coalesced, {} solo, {} rounds)\n  cache hits  : {:8.1} %",
        coalesce_rate * 100.0,
        stats.coalesced,
        stats.solo,
        stats.rounds,
        cache_hit_rate * 100.0
    );
    for (name, t) in server.tenants() {
        println!(
            "  tenant {name:6}: {} submitted, {} completed, {} residue-GEMMs, {} operand hits",
            t.submitted, t.completed, t.residue_gemms, t.cache_hits
        );
    }
    server.shutdown();

    // Observability read-back (OZAKI_OBS=1): export a Chrome trace of
    // every span the session captured, then cross-check each paired
    // histogram's `_sum` delta against the summed span durations. The
    // two sides record the same nanosecond value per observation, so
    // they reconcile exactly whenever no per-thread span ring wrapped;
    // the 1% tolerance only exists to absorb ring-drop truncation, and
    // the assert is skipped (loudly) when drops occurred.
    if let Some(session) = &obs {
        let trace_path: String = args
            .get("trace-out")
            .unwrap_or_else(|| "loadgen-trace.json".into());
        session
            .export_chrome_trace_to(&trace_path)
            .unwrap_or_else(|e| panic!("write {trace_path}: {e}"));
        println!(
            "wrote chrome trace to {trace_path} ({} spans, {} dropped)",
            session.events().len(),
            session.dropped()
        );
        use gemm_obs::catalog as cat;
        println!(
            "  obs registry: {} submitted, {} completed, {} rounds, {} int8 engine calls",
            cat::SERVE_SUBMITTED.value(),
            cat::SERVE_COMPLETED.value(),
            cat::SERVE_ROUNDS.value(),
            cat::ENGINE_INT8_CALLS.value()
        );
        assert_eq!(
            cat::SERVE_COMPLETED.value(),
            stats.completed,
            "registry completion counter must agree with server stats"
        );
        let recs = session.reconcile();
        for r in &recs {
            println!(
                "  obs {:16} spans {:10.3} ms  histogram {:10.3} ms  ({} samples)",
                r.span_name,
                r.span_ns as f64 / 1e6,
                r.hist_ns as f64 / 1e6,
                r.hist_count
            );
        }
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
            println!(
                "  obs reconciliation: {} histograms agree within 1%",
                recs.len()
            );
        } else {
            println!(
                "  obs reconciliation SKIPPED: {} spans dropped (ring wrapped); \
                 histogram totals remain exact",
                session.dropped()
            );
        }
    }

    // Open-loop runs additionally record the offered (Poisson) arrival
    // rate and the shed count next to the achieved throughput —
    // `serving_gemms_per_s` is always *achieved* (completed / wall).
    let open_loop_fields = if open_loop {
        format!(
            "\n    \"serving_arrival_rate_per_s\": {rate:.3},\n    \"serving_offered\": {offered},\n    \"serving_shed\": {shed},",
        )
    } else {
        String::new()
    };
    let section = format!(
        "{{\n    \"mode\": \"{}\",\n    \"loop\": \"{}\",\n    \"n_moduli\": {nmod},\n    \"workers\": {workers},\n    \"requests\": {total},\n    \"small_shape\": [{small}, {small}, {small}],\n    \"large_shape\": [{large}, {large}, {large}],\n    \"burst\": {burst},{open_loop_fields}\n    \"serving_gemms_per_s\": {gemms_per_s:.3},\n    \"serving_p50_ms\": {p50_ms:.3},\n    \"serving_p99_ms\": {p99_ms:.3},\n    \"serving_coalesce_rate\": {coalesce_rate:.4},\n    \"serving_cache_hit_rate\": {cache_hit_rate:.4}\n  }}",
        if smoke { "smoke" } else { "full" },
        if open_loop { "open" } else { "closed" }
    );
    let doc = std::fs::read_to_string(&out_path).unwrap_or_else(|_| "{\n}\n".into());
    let doc = upsert_section(&doc, "serving", &section);
    std::fs::File::create(&out_path)
        .and_then(|mut f| f.write_all(doc.as_bytes()))
        .unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("wrote serving section into {out_path}");

    // ---- CI gate ---------------------------------------------------------
    if open_loop {
        if args.get::<String>("check-against").is_some() {
            println!(
                "serving gate SKIPPED: open-loop coalescing and timing depend on \
                 scheduler interleaving; gate on a closed-loop (burst) run instead."
            );
        }
        return;
    }
    if let Some(baseline_path) = args.get::<String>("check-against") {
        let tolerance: f64 = args.get("tolerance").unwrap_or(0.8);
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        if json_number(&baseline, "serving_coalesce_rate").is_none() {
            println!(
                "serving gate SKIPPED: baseline {baseline_path} has no serving section \
                 (predates the serving runtime). Refresh it to arm the gate."
            );
            return;
        }
        let pull = |key: &str| {
            json_number(&baseline, key)
                .unwrap_or_else(|| panic!("baseline {baseline_path} lacks \"{key}\""))
        };
        // The ratio metrics are exact properties of the replayed trace —
        // gate them in every mode, on every runner. Timing only gates in
        // full runs, against a baseline from the same hardware class.
        let mut metrics = vec![
            GateMetric {
                name: "serving_coalesce_rate",
                current: coalesce_rate,
                baseline: pull("serving_coalesce_rate"),
                higher_is_better: true,
            },
            GateMetric {
                name: "serving_cache_hit_rate",
                current: cache_hit_rate,
                baseline: pull("serving_cache_hit_rate"),
                higher_is_better: true,
            },
        ];
        // Same hardware-class shield as bench_int8's gate.
        let base_kernel = json_string(&baseline, "microkernel").unwrap_or("<missing>");
        if !smoke && base_kernel != microkernel_name() {
            println!(
                "serving timing gate SKIPPED: baseline {baseline_path} was measured with \
                 the '{base_kernel}' microkernel, this machine dispatches '{}'. Refresh the \
                 baseline on this runner class to re-arm it; the ratio gate still runs.",
                microkernel_name()
            );
        } else if !smoke {
            metrics.push(GateMetric {
                name: "serving_gemms_per_s",
                current: gemms_per_s,
                baseline: pull("serving_gemms_per_s"),
                higher_is_better: true,
            });
            metrics.push(GateMetric {
                name: "serving_p99_ms",
                current: p99_ms,
                baseline: pull("serving_p99_ms"),
                higher_is_better: false,
            });
        }
        let failures = check_regressions(&metrics, tolerance);
        for m in &metrics {
            let status = if m.passes(tolerance) { "ok" } else { "FAIL" };
            println!(
                "gate {:24} current {:10.3} baseline {:10.3}  [{status}]",
                m.name, m.current, m.baseline
            );
        }
        if failures.is_empty() {
            println!("serving gate PASSED vs {baseline_path} (tolerance {tolerance})");
        } else {
            for f in &failures {
                eprintln!("{f}");
            }
            eprintln!("serving gate FAILED vs {baseline_path} (tolerance {tolerance})");
            std::process::exit(1);
        }
    }
}
