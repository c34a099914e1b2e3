//! `serve_mixed`: a `gemm_serve::Server` fed by one generator thread with
//! a four-tenant mix. The untraced run is the closed loop in bursts,
//! interleaved with the same requests computed natively; the traced run
//! adds the open loop (latency from each request's due time) and the
//! server, cache and batch counters.

use crate::gemm::{error_bound, same_bits, sampled_errors, timed_loop};
use crate::layers::{self, Shape};
use crate::stats::{median, percentile, Metrics, Part, Tally};
use crate::{peak_rss_mib, Ctx};
use gemm_dense::workload::phi_matrix_f64;
use gemm_dense::{MatF64, Philox4x32};
use gemm_serve::{GemmRequest, JobHandle, Server, ServerStats};
use ozaki2::{Mode, Ozaki2, Workspace};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Moduli count of every served product (DGEMM-level at these shapes).
const N_MODULI: usize = 15;
const SMALL: usize = 64;
const LARGE: usize = 256;
/// Activations per weight-stationary tenant.
const HIT_POOL: usize = 64;
/// Operand pairs of the cache-miss tenant: far more distinct operands
/// than the operand cache and its probation list hold, so none repeats
/// while still remembered.
const MISS_POOL: usize = 256;
const LARGE_POOL: usize = 4;
/// Every 64th request is the large (solo, striped) tenant's.
const LARGE_EVERY: u64 = 64;
/// Open-loop arrival rate, about a third of the closed-loop capacity.
const RATE_PER_S: f64 = 1500.0;
/// Closed-loop burst size (as in `loadgen`'s burst mode).
const BURST: usize = 16;
/// Cold server set-ups per part; `setup_s` is the median over all parts.
const SETUP_REPS: usize = 3;
const ORACLE_SAMPLES: usize = 16384;
/// Tail percentile of the served request latency.
const TAIL: f64 = 0.99;
/// Generator poll period while waiting for the next due time.
const POLL: Duration = Duration::from_micros(50);

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Hit,
    Miss,
    Large,
}

struct Tenant {
    name: &'static str,
    class: Class,
    pairs: Vec<(Arc<MatF64>, Arc<MatF64>)>,
    /// Sequential `Ozaki2::dgemm` of each pair: what every served
    /// response must equal bit for bit.
    oracle: Vec<MatF64>,
}

/// The four tenants, all operands derived from the seed.
struct Pools {
    tenants: [Tenant; 4],
}

impl Pools {
    fn new(seed: u64) -> Self {
        let mat = |rows: usize, cols: usize, stream: u64| {
            Arc::new(phi_matrix_f64(rows, cols, 0.5, seed, stream))
        };
        let stationary = |name, stream: u64, size: usize, count: usize, class| {
            let w = mat(size, size, stream);
            let pairs = (0..count as u64)
                .map(|i| (mat(size, size, stream + 1 + i), w.clone()))
                .collect();
            Tenant {
                name,
                class,
                pairs,
                oracle: Vec::new(),
            }
        };
        let miss = Tenant {
            name: "miss",
            class: Class::Miss,
            pairs: (0..MISS_POOL as u64)
                .map(|i| {
                    (
                        mat(SMALL, SMALL, 3000 + 2 * i),
                        mat(SMALL, SMALL, 3001 + 2 * i),
                    )
                })
                .collect(),
            oracle: Vec::new(),
        };
        let mut tenants = [
            stationary("hit-a", 1000, SMALL, HIT_POOL, Class::Hit),
            stationary("hit-b", 2000, SMALL, HIT_POOL, Class::Hit),
            miss,
            stationary("large", 4000, LARGE, LARGE_POOL, Class::Large),
        ];
        let emu = Ozaki2::new(N_MODULI, Mode::Fast);
        for t in &mut tenants {
            t.oracle = t.pairs.iter().map(|(a, b)| emu.dgemm(a, b)).collect();
        }
        Self { tenants }
    }
}

/// The seeded request stream: which tenant, which of its operand pairs.
/// Each tenant cycles through its pool in order.
struct Mix {
    rng: Philox4x32,
    count: u64,
    cursor: [usize; 4],
}

impl Mix {
    fn new(seed: u64) -> Self {
        Self {
            rng: Philox4x32::new_stream(seed, 0x5e7e),
            count: 0,
            cursor: [0; 4],
        }
    }

    fn next(&mut self, pools: &Pools) -> (usize, usize) {
        self.count += 1;
        let t = if self.count.is_multiple_of(LARGE_EVERY) {
            3
        } else {
            (self.rng.next_u32() % 3) as usize
        };
        let i = self.cursor[t] % pools.tenants[t].pairs.len();
        self.cursor[t] += 1;
        (t, i)
    }

    /// Next request of the small tenants only.
    fn next_small(&mut self, pools: &Pools) -> (usize, usize) {
        loop {
            let (t, i) = self.next(pools);
            if t != 3 {
                return (t, i);
            }
        }
    }
}

fn request(pools: &Pools, (t, i): (usize, usize)) -> GemmRequest {
    let tenant = &pools.tenants[t];
    let (a, b) = &tenant.pairs[i];
    GemmRequest::new(tenant.name, a.clone(), b.clone())
}

/// Wait for a handle and check the response against the oracle.
fn check(pools: &Pools, (t, i): (usize, usize), handle: JobHandle) -> bool {
    match handle.wait() {
        Ok(c) => same_bits(&c, &pools.tenants[t].oracle[i]),
        Err(e) => {
            eprintln!("served request failed: {e}");
            false
        }
    }
}

/// Build a server and serve one request of every tenant, cold, timing
/// each of [`SETUP_REPS`] repetitions; the last server is kept.
fn setup(pools: &Pools, tally: &mut Tally) -> (Server, Vec<f64>) {
    let mut times = Vec::new();
    let mut server = None;
    for r in 0..SETUP_REPS {
        drop(server.take());
        let t0 = Instant::now();
        let s = Server::builder(N_MODULI, Mode::Fast).build();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let ti = (t, r % pools.tenants[t].pairs.len());
                (ti, s.submit(request(pools, ti)))
            })
            .collect();
        for (ti, h) in handles {
            tally.record(h.is_ok_and(|h| check(pools, ti, h)));
        }
        times.push(t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    (server.expect("at least one set-up"), times)
}

/// One request in flight in the open loop.
struct InFlight {
    due: f64,
    ti: (usize, usize),
    handle: JobHandle,
}

#[derive(Default)]
struct OpenLoop {
    /// Latency from the due time, per tenant.
    latency_ms: [Vec<f64>; 4],
    late_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    sent: usize,
}

impl OpenLoop {
    fn all_latency(&self) -> Vec<f64> {
        self.latency_ms.concat()
    }

    fn class_latency(&self, pools: &Pools, class: Class) -> Vec<f64> {
        (0..4)
            .filter(|&t| pools.tenants[t].class == class)
            .flat_map(|t| self.latency_ms[t].iter().copied())
            .collect()
    }
}

/// Reap every completed request: latency from its due time, response
/// checked.
fn reap(
    pools: &Pools,
    start: Instant,
    pending: &mut Vec<InFlight>,
    out: &mut OpenLoop,
    tally: &mut Tally,
) {
    let mut i = 0;
    while i < pending.len() {
        if pending[i].handle.is_done() {
            let done = pending.swap_remove(i);
            let now = start.elapsed().as_secs_f64();
            out.latency_ms[done.ti.0].push((now - done.due) * 1e3);
            tally.record(check(pools, done.ti, done.handle));
        } else {
            i += 1;
        }
    }
}

/// Open loop for `secs`: seeded Poisson arrivals at [`RATE_PER_S`], sent
/// with `try_submit` (a full queue sheds, never blocks the schedule),
/// every latency timed from the request's due time.
fn open_loop(
    server: &Server,
    pools: &Pools,
    mix: &mut Mix,
    gaps: &mut Philox4x32,
    secs: f64,
    out: &mut OpenLoop,
    tally: &mut Tally,
) {
    let mut pending: Vec<InFlight> = Vec::new();
    let start = Instant::now();
    let mut due = 0.0f64;
    loop {
        due += -(1.0 - gaps.uniform_f64()).ln() / RATE_PER_S;
        if due >= secs {
            break;
        }
        loop {
            reap(pools, start, &mut pending, out, tally);
            let now = start.elapsed().as_secs_f64();
            if now >= due {
                out.late_ms.push((now - due) * 1e3);
                break;
            }
            std::thread::sleep(POLL.min(Duration::from_secs_f64(due - now)));
        }
        let ti = mix.next(pools);
        let t0 = Instant::now();
        let submitted = server.try_submit(request(pools, ti));
        out.submit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.sent += 1;
        match submitted {
            Ok(handle) => pending.push(InFlight { due, ti, handle }),
            Err(e) => {
                eprintln!("request refused: {e}");
                tally.record(false);
            }
        }
    }
    while !pending.is_empty() {
        reap(pools, start, &mut pending, out, tally);
        std::thread::sleep(POLL);
    }
}

/// Closed loop for `secs`, in rounds of [`LARGE_EVERY`] requests of the
/// same mix (so each round holds one large request). A round is served
/// as bursts of [`BURST`] submitted while paused, released together and
/// awaited, and then computed natively. Returns per round
/// `(native_s, served_s)`.
fn closed_loop(
    server: &Server,
    pools: &Pools,
    mix: &mut Mix,
    secs: f64,
    tally: &mut Tally,
) -> Vec<(f64, f64)> {
    let mut rounds = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < secs {
        let round: Vec<(usize, usize)> = (0..LARGE_EVERY).map(|_| mix.next(pools)).collect();
        let t0 = Instant::now();
        for burst in round.chunks(BURST) {
            server.pause();
            let handles: Vec<_> = burst
                .iter()
                .map(|&ti| server.submit(request(pools, ti)))
                .collect();
            server.resume();
            for (&ti, h) in burst.iter().zip(handles) {
                tally.record(h.is_ok_and(|h| check(pools, ti, h)));
            }
        }
        let served = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for &(t, i) in &round {
            let (a, b) = &pools.tenants[t].pairs[i];
            black_box(gemm_dense::gemm::gemm_f64(black_box(a), black_box(b)));
        }
        rounds.push((t0.elapsed().as_secs_f64(), served));
    }
    rounds
}

/// `after − before` of the server's counters (peak depth: the later).
fn stats_delta(before: &ServerStats, after: &ServerStats) -> ServerStats {
    ServerStats {
        submitted: after.submitted - before.submitted,
        completed: after.completed - before.completed,
        rejected: after.rejected - before.rejected,
        shed: after.shed - before.shed,
        failed: after.failed - before.failed,
        rounds: after.rounds - before.rounds,
        coalesced: after.coalesced - before.coalesced,
        solo: after.solo - before.solo,
        peak_queue_depth: after.peak_queue_depth,
    }
}

/// Replays of `try_dgemm_group_into` on bursts the size of a served
/// coalesced round, each burst fresh from the mix; the median round ms.
fn replay_rounds(
    server: &Server,
    pools: &Pools,
    mix: &mut Mix,
    round: usize,
    secs: f64,
    tally: &mut Tally,
) -> f64 {
    let mut outs: Vec<MatF64> = (0..round).map(|_| MatF64::zeros(SMALL, SMALL)).collect();
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 3 || start.elapsed().as_secs_f64() < secs {
        let burst: Vec<(usize, usize)> = (0..round).map(|_| mix.next_small(pools)).collect();
        let items: Vec<(&MatF64, &MatF64)> = burst
            .iter()
            .map(|&(t, i)| {
                let (a, b) = &pools.tenants[t].pairs[i];
                (&**a, &**b)
            })
            .collect();
        let t0 = Instant::now();
        let done = server.runtime().try_dgemm_group_into(&items, &mut outs);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        for (&(t, i), c) in burst.iter().zip(&outs) {
            tally.record(done.is_ok() && same_bits(c, &pools.tenants[t].oracle[i]));
        }
    }
    median(&times)
}

/// Mean jobs per coalesced round (at least 2).
fn round_size(st: &ServerStats) -> usize {
    let rounds = st.rounds.saturating_sub(st.solo);
    if rounds == 0 {
        2
    } else {
        ((st.coalesced as f64 / rounds as f64).round() as usize).max(2)
    }
}

/// One server with its seeded traffic.
struct Serving {
    pools: Pools,
    server: Server,
    setup_s: Vec<f64>,
    mix: Mix,
    gaps: Philox4x32,
}

impl Serving {
    fn new(seed: u64, tally: &mut Tally) -> Self {
        let pools = Pools::new(seed);
        let (server, setup_s) = setup(&pools, tally);
        Self {
            pools,
            server,
            setup_s,
            mix: Mix::new(seed),
            gaps: Philox4x32::new_stream(seed, 0x9a95),
        }
    }

    fn closed(&mut self, secs: f64, tally: &mut Tally) -> Vec<(f64, f64)> {
        closed_loop(&self.server, &self.pools, &mut self.mix, secs, tally)
    }

    /// The served layers' ledger: the open loop for `open_secs` in
    /// `chunks` parts (observability armed on every other part when there
    /// are several), the server and cache counters over it, a closed loop
    /// for capacity, and the batch round replay. Returns the disarmed and
    /// armed open-loop parts.
    fn ledger(
        &mut self,
        out: &mut Metrics,
        open_secs: f64,
        chunks: usize,
        closed_secs: f64,
        tally: &mut Tally,
    ) -> [OpenLoop; 2] {
        let cache = self.server.runtime().cache();
        let (h0, m0) = (cache.hits(), cache.misses());
        let s0 = self.server.stats();
        let mut parts: [OpenLoop; 2] = Default::default();
        for c in 0..chunks {
            let armed = c % 2 == 1;
            gemm_obs::set_enabled(armed);
            open_loop(
                &self.server,
                &self.pools,
                &mut self.mix,
                &mut self.gaps,
                open_secs / chunks as f64,
                &mut parts[armed as usize],
                tally,
            );
            gemm_obs::set_enabled(false);
        }
        let st = stats_delta(&s0, &self.server.stats());
        let cache = self.server.runtime().cache();
        let (hits, misses) = (cache.hits() - h0, cache.misses() - m0);
        let rounds = self.closed(closed_secs, tally);
        let round_ms = replay_rounds(
            &self.server,
            &self.pools,
            &mut self.mix,
            round_size(&st),
            closed_secs,
            tally,
        );

        let [off, on] = &parts;
        let all = |f: fn(&OpenLoop) -> &Vec<f64>| [f(off).as_slice(), f(on)].concat();
        let class = |c| {
            [
                off.class_latency(&self.pools, c),
                on.class_latency(&self.pools, c),
            ]
            .concat()
        };
        let untraced = off.all_latency();
        let served: f64 = rounds.iter().map(|r| r.1).sum();
        out.add("serve.req_ms_p50", median(&untraced), "ms");
        out.add("serve.req_ms_p99", percentile(&untraced, TAIL), "ms");
        out.add(
            "serve.req_per_s",
            (rounds.len() as u64 * LARGE_EVERY) as f64 / served,
            "1/s",
        );
        out.add("serve.hit_tenant_ms_p50", median(&class(Class::Hit)), "ms");
        out.add(
            "serve.miss_tenant_ms_p50",
            median(&class(Class::Miss)),
            "ms",
        );
        out.add("serve.large_ms_p50", median(&class(Class::Large)), "ms");
        out.add("serve.coalesce_rate", st.coalesce_rate(), "ratio");
        out.add("serve.rounds", st.rounds as f64, "count");
        out.add(
            "serve.peak_queue_depth",
            st.peak_queue_depth as f64,
            "count",
        );
        out.add("serve.shed", (st.shed + st.rejected) as f64, "count");
        out.add(
            "serve.submit_ms_p99",
            percentile(&all(|p| &p.submit_ms), 0.99),
            "ms",
        );
        out.add(
            "gen.late_ms_p99",
            percentile(&all(|p| &p.late_ms), 0.99),
            "ms",
        );
        out.add("batch.round_ms_p50", round_ms, "ms");
        out.add(
            "batch.cache_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        out.add("batch.cache_misses", misses as f64, "count");
        parts
    }
}

/// The served layers measured on a short stretch of the `serve_mixed`
/// traffic, for the traced runs of workloads that bypass them.
pub fn served_layers(out: &mut Metrics, tally: &mut Tally, ctx: &Ctx) {
    let mut serving = Serving::new(ctx.seed, tally);
    serving.ledger(out, 1.5, 1, 0.3, tally);
    serving.server.shutdown();
}

/// The traced run of `serve_mixed`: the per-layer ledger.
pub fn ledger(ctx: &Ctx) -> (Metrics, Tally) {
    use gemm_obs::catalog::{POOL_PARKS, POOL_STEALS, POOL_TASKS};
    let mut tally = Tally::default();
    let mut serving = Serving::new(ctx.seed, &mut tally);
    let mut out = Metrics::default();
    // Counters only advance while armed: during the armed open-loop parts.
    let pool0 = (POOL_TASKS.value(), POOL_STEALS.value(), POOL_PARKS.value());
    let [off, on] = serving.ledger(
        &mut out,
        ctx.seconds * 0.5,
        4,
        ctx.seconds * 0.1,
        &mut tally,
    );
    let pool = (
        POOL_TASKS.value() - pool0.0,
        POOL_STEALS.value() - pool0.1,
        POOL_PARKS.value() - pool0.2,
    );
    let overhead = median(&on.all_latency()) / median(&off.all_latency()) - 1.0;
    serving.server.shutdown();

    // The emulator, engine and native yardstick on the small tenants'
    // shape, called directly.
    let tenant = &serving.pools.tenants[0];
    let (a, b) = &tenant.pairs[0];
    let emu = Ozaki2::new(N_MODULI, Mode::Fast);
    let mut ws = Workspace::new();
    let mut c = MatF64::zeros(SMALL, SMALL);
    let s = timed_loop(
        &emu,
        a,
        b,
        &mut ws,
        &mut c,
        &tenant.oracle[0],
        ctx.seconds * 0.1,
        1,
        false,
    );
    tally.merge(s.tally);
    let shape = Shape {
        m: SMALL,
        n: SMALL,
        k: SMALL,
        n_moduli: N_MODULI,
        elem_bytes: 8,
    };
    layers::ledger_gemm(&mut out, &shape, &s, ws.bytes(), ctx);
    layers::pool_and_overhead(&mut out, pool, on.sent, overhead);
    (out, tally)
}

/// One part of an untraced run of `serve_mixed`: the closed loop with
/// its interleaved native rounds. Part 0 also checks the error of the
/// served results against the double-double oracle.
pub fn part(ctx: &Ctx, index: usize) -> Part {
    let mut tally = Tally::default();
    let mut serving = Serving::new(ctx.seed, &mut tally);
    let rounds = serving.closed(ctx.seconds, &mut tally);
    serving.server.shutdown();
    println!(
        "closed loop: {} rounds of {LARGE_EVERY} requests",
        rounds.len()
    );
    let rel_err = (index == 0).then(|| {
        let pairs: Vec<_> = serving
            .pools
            .tenants
            .iter()
            .flat_map(|t| {
                t.pairs
                    .iter()
                    .zip(&t.oracle)
                    .map(|((a, b), c)| (&**a, &**b, c))
            })
            .collect();
        let (frob, maxnorm) = sampled_errors(&pairs, ORACLE_SAMPLES, ctx.seed);
        let bound = error_bound::<f64>(ozaki2::predicted_error(N_MODULI, LARGE));
        println!("rel_err {frob:e} (max-norm {maxnorm:e}) vs bound {bound:e}");
        tally.fail_if(!(frob <= bound && maxnorm <= bound));
        frob
    });
    Part {
        rounds,
        setup_s: serving.setup_s,
        rss_mib: peak_rss_mib(),
        rel_err,
        tally,
    }
}
