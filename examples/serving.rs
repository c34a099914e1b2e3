//! Three tenants sharing one GEMM server: two weight-stationary
//! inference tenants streaming small below-crossover products against
//! their own pinned weight matrix, and one HPC tenant submitting large
//! above-crossover GEMMs that take the solo striped path.
//!
//! Each tenant runs on its own submitter thread; the server coalesces
//! the small jobs into shared-operand group rounds (the pinned weights
//! pay Algorithm 1's front end once, not per request) and dispatches the
//! large jobs immediately. Every response is verified bit-identical to
//! the sequential `Ozaki2::dgemm` oracle, then the per-tenant accounting
//! and the server-wide coalescing outcome are printed.
//!
//! Run: `cargo run --release --example serving`
//!
//! With `OZAKI_OBS=1` the run also records a trace of every span and
//! writes it to `serving-trace.json` for Perfetto or `chrome://tracing`
//! (`docs/OBSERVABILITY.md`); `OZAKI_METRICS_FILE=<path>` makes the server
//! dump its Prometheus metrics there.

use gemmul8::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let nmod = 15usize; // DGEMM-level accuracy, the paper's §5.1 setting
    println!("== many-tenant serving (gemm_serve) ==\n");

    let session = gemm_obs::enabled().then(gemm_obs::ObsSession::begin);
    let server = Server::builder(nmod, Mode::Fast)
        .coalesce_window(Duration::from_micros(500))
        .max_batch(32)
        .build();
    let emu = Ozaki2::new(nmod, Mode::Fast);

    // Two inference tenants: pinned 64x64 weights, 48 requests each over
    // a cycled pool of 12 activations (the weight-stationary pattern the
    // operand cache amortizes). One HPC tenant: 4 requests at 256^3.
    struct Inference {
        name: &'static str,
        weights: Arc<MatF64>,
        acts: Vec<Arc<MatF64>>,
    }
    let inference: Vec<Inference> = vec![("svc-a", 10u64), ("svc-b", 600u64)]
        .into_iter()
        .map(|(name, seed)| Inference {
            name,
            weights: Arc::new(phi_matrix_f64(64, 64, PHI_HPL, seed + 1000, 1)),
            acts: (0..12)
                .map(|i| Arc::new(phi_matrix_f64(64, 64, PHI_HPL, seed + i, 0)))
                .collect(),
        })
        .collect();
    let hpc_pairs: Vec<(Arc<MatF64>, Arc<MatF64>)> = (0..2u64)
        .map(|i| {
            (
                Arc::new(phi_matrix_f64(256, 256, PHI_HPL, 900 + i, 0)),
                Arc::new(phi_matrix_f64(256, 256, PHI_HPL, 950 + i, 1)),
            )
        })
        .collect();

    let t0 = Instant::now();
    std::thread::scope(|s| {
        for tenant in &inference {
            let server = &server;
            s.spawn(move || {
                for r in 0..48usize {
                    let a = tenant.acts[r % tenant.acts.len()].clone();
                    let req = GemmRequest::new(tenant.name, a.clone(), tenant.weights.clone());
                    let c = server.submit(req).expect("admit").wait().expect("serve");
                    assert_eq!(
                        c,
                        emu.dgemm(&a, &tenant.weights),
                        "{} r{r} diverged",
                        tenant.name
                    );
                }
            });
        }
        let server = &server;
        s.spawn(move || {
            for r in 0..4usize {
                let (a, b) = &hpc_pairs[r % hpc_pairs.len()];
                let req =
                    GemmRequest::new("hpc", a.clone(), b.clone()).deadline(Duration::from_secs(30));
                let c = server.submit(req).expect("admit").wait().expect("serve");
                assert_eq!(c, emu.dgemm(a, b), "hpc r{r} diverged");
            }
        });
    });
    let wall = t0.elapsed().as_secs_f64();

    let stats = server.stats();
    println!(
        "served {} requests in {:.1} ms ({:.0} GEMMs/s), every result bit-identical to Ozaki2::dgemm\n",
        stats.completed,
        wall * 1e3,
        stats.completed as f64 / wall
    );
    println!("tenant    submitted  completed  residue-GEMMs  bytes        operand hits");
    for (name, t) in server.tenants() {
        println!(
            "{name:9} {:9} {:10} {:14} {:12} {:12}",
            t.submitted, t.completed, t.residue_gemms, t.bytes, t.cache_hits
        );
    }
    println!(
        "\ncoalescing: {} coalesced + {} solo across {} rounds ({:.1}% coalesce rate, peak queue {})",
        stats.coalesced,
        stats.solo,
        stats.rounds,
        stats.coalesce_rate() * 100.0,
        stats.peak_queue_depth
    );
    println!(
        "operand cache: {} prepared entries, {} hits across rounds",
        server.runtime().cache().len(),
        server.runtime().cache().hits()
    );
    server.shutdown();

    if let Some(session) = session {
        session
            .export_chrome_trace_to("serving-trace.json")
            .expect("write serving-trace.json");
        println!(
            "wrote serving-trace.json ({} spans, {} dropped)",
            session.events().len(),
            session.dropped()
        );
    }
}
