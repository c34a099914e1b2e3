//! The serving runtime: bounded submission queue, intensity-driven
//! coalescing dispatcher, deadline shedding, and exact accounting.
//!
//! One dispatcher thread owns the policy. Submitters validate and
//! enqueue; the dispatcher pops, classifies each job by
//! [`ozaki2::arithmetic_intensity`] (computed at admission), coalesces
//! the low-intensity jobs into shared-operand [`gemm_batch`] group
//! rounds, and runs high-intensity jobs immediately with intra-GEMM
//! stripe parallelism. Execution itself happens on the process-global
//! work-stealing pool — the dispatcher thread only sequences rounds.

use crate::request::{GemmRequest, JobCell, JobError, JobHandle, SubmitError};
use crate::stats::{ServerStats, TenantStats};
use gemm_batch::{BatchedOzaki2, INTENSITY_CROSSOVER};
use gemm_dense::MatF64;
use ozaki2::{arithmetic_intensity, EmulationError, FaultPolicy, Mode, OperandSide};
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Resolved server configuration (see [`ServerBuilder`] for the knobs
/// and their defaults).
#[derive(Clone, Debug)]
struct Config {
    queue_depth: usize,
    coalesce_window: Duration,
    max_batch: usize,
    default_deadline: Option<Duration>,
}

/// One admitted job travelling from the queue to its completion cell.
struct Admitted {
    req: GemmRequest,
    cell: Arc<JobCell>,
    submitted_at: Instant,
    /// Admission time on the observability clock (0 when disabled) — the
    /// anchor of the job's `queue_wait` span.
    submitted_ns: u64,
    deadline: Option<Duration>,
    /// `true` when the job's arithmetic intensity sits below the
    /// crossover: it waits in the coalesce buffer for companions.
    coalesce: bool,
}

impl Admitted {
    /// `Some(queue residence)` when the job has out-waited its deadline.
    fn overdue(&self, now: Instant) -> Option<Duration> {
        let deadline = self.deadline?;
        let queued_for = now.saturating_duration_since(self.submitted_at);
        (queued_for > deadline).then_some(queued_for)
    }
}

/// Queue state guarded by `Shared::queue`.
struct QueueState {
    items: VecDeque<Admitted>,
    paused: bool,
    shutdown: bool,
}

/// Everything the submitters and the dispatcher share.
struct Shared {
    cfg: Config,
    n_moduli: usize,
    queue: Mutex<QueueState>,
    /// Signals the dispatcher: work arrived, or pause/shutdown flipped.
    not_empty: Condvar,
    /// Signals blocked submitters: queue capacity freed up.
    not_full: Condvar,
    tenants: Mutex<HashMap<Arc<str>, TenantStats>>,
    totals: Mutex<ServerStats>,
    /// Operand identities (pointer + shape) admitted so far — only
    /// counted, as the per-tenant `cache_hits`; admission scans every
    /// operand for finiteness regardless (an identity says nothing about
    /// content mutated in place or reallocated at a freed address).
    seen: Mutex<HashSet<(usize, usize, usize)>>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Shared {
    fn with_tenant(&self, tenant: &Arc<str>, f: impl FnOnce(&mut TenantStats)) {
        let mut map = lock(&self.tenants);
        f(map.entry(tenant.clone()).or_default());
    }
}

/// Configuration builder for [`Server`]; every knob has a serving-ready
/// default. See `docs/SERVING.md` for the tuning cookbook.
///
/// # Examples
/// ```
/// use gemm_serve::Server;
/// use ozaki2::Mode;
/// use std::time::Duration;
///
/// let server = Server::builder(8, Mode::Fast)
///     .queue_depth(128)
///     .coalesce_window(Duration::from_micros(200))
///     .max_batch(32)
///     .default_deadline(Duration::from_millis(250))
///     .build();
/// assert_eq!(server.n_moduli(), 8);
/// ```
pub struct ServerBuilder {
    n_moduli: usize,
    mode: Mode,
    queue_depth: usize,
    coalesce_window: Duration,
    max_batch: usize,
    default_deadline: Option<Duration>,
    fault_policy: Option<FaultPolicy>,
}

impl ServerBuilder {
    /// Maximum admitted-but-undispatched jobs. Submissions beyond it
    /// block ([`Server::submit`]) or are rejected with
    /// [`SubmitError::QueueFull`] ([`Server::try_submit`]) — the
    /// backpressure boundary. Default 256.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        assert!(depth >= 1, "queue_depth must be >= 1");
        self.queue_depth = depth;
        self
    }

    /// How long the first low-intensity job of a batch waits for
    /// companions before the round flushes anyway. Larger windows raise
    /// the coalesce rate (throughput), smaller ones cut queue latency.
    /// Default 500 µs — about the cost of one small emulated GEMM.
    pub fn coalesce_window(mut self, window: Duration) -> Self {
        self.coalesce_window = window;
        self
    }

    /// Maximum jobs per coalesced round (bounds round latency and the
    /// per-round working set). Default 64.
    pub fn max_batch(mut self, max: usize) -> Self {
        assert!(max >= 1, "max_batch must be >= 1");
        self.max_batch = max;
        self
    }

    /// Deadline applied to requests that do not carry their own (see
    /// [`GemmRequest::deadline`]). Unset, only requests with explicit
    /// deadlines ever shed.
    pub fn default_deadline(mut self, d: Duration) -> Self {
        self.default_deadline = Some(d);
        self
    }

    /// Fault-tolerance policy for every executed job (see
    /// `ozaki2::FaultPolicy`). Unset, the runtime inherits the
    /// process-wide `OZAKI_FAULT_POLICY` / default, exactly like a
    /// direct `Ozaki2` call.
    pub fn fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = Some(policy);
        self
    }

    /// Start the server: spawns the dispatcher thread and returns the
    /// submission surface.
    pub fn build(self) -> Server {
        let mut runtime = BatchedOzaki2::new(self.n_moduli, self.mode);
        if let Some(policy) = self.fault_policy {
            runtime = runtime.with_fault_policy(policy);
        }
        let runtime = Arc::new(runtime);
        let shared = Arc::new(Shared {
            cfg: Config {
                queue_depth: self.queue_depth,
                coalesce_window: self.coalesce_window,
                max_batch: self.max_batch,
                default_deadline: self.default_deadline,
            },
            n_moduli: self.n_moduli,
            queue: Mutex::new(QueueState {
                items: VecDeque::new(),
                paused: false,
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            tenants: Mutex::new(HashMap::new()),
            totals: Mutex::new(ServerStats::default()),
            seen: Mutex::new(HashSet::new()),
        });
        let dispatcher = {
            let shared = shared.clone();
            let runtime = runtime.clone();
            std::thread::Builder::new()
                .name("gemm-serve-dispatcher".into())
                .spawn(move || Dispatcher { shared, runtime }.run())
                .expect("spawn dispatcher thread")
        };
        Server {
            shared,
            runtime,
            dispatcher: Some(dispatcher),
        }
    }
}

/// The many-tenant GEMM serving runtime.
///
/// `Server` fronts a [`BatchedOzaki2`] with a bounded submission queue
/// and a single dispatcher thread. Admission computes each request's
/// [`ozaki2::arithmetic_intensity`]: jobs below the crossover coalesce —
/// within a configurable window — into shared-operand group rounds
/// (weight-stationary tenants share one prepared operand through the
/// fingerprint-guarded cache), while jobs above it run immediately with
/// intra-GEMM stripe parallelism. Every result is **bit-identical** to
/// [`ozaki2::Ozaki2::dgemm`] on the same operands, under any worker
/// count and any [`FaultPolicy`].
///
/// Dropping the server drains the queue (every admitted job completes)
/// and joins the dispatcher.
///
/// # Examples
/// ```
/// use gemm_dense::workload::phi_matrix_f64;
/// use gemm_serve::{GemmRequest, Server};
/// use ozaki2::{Mode, Ozaki2};
/// use std::sync::Arc;
///
/// let server = Server::builder(10, Mode::Fast).build();
/// // Two tenants sharing one weight matrix, one unique activation each.
/// let w = Arc::new(phi_matrix_f64(32, 24, 0.5, 7, 1));
/// let handles: Vec<_> = (0..2u64)
///     .map(|t| {
///         let a = Arc::new(phi_matrix_f64(16, 32, 0.5, t, 0));
///         let req = GemmRequest::new(format!("tenant-{t}"), a, w.clone());
///         server.submit(req).expect("admitted")
///     })
///     .collect();
/// let emu = Ozaki2::new(10, Mode::Fast);
/// for (t, h) in handles.into_iter().enumerate() {
///     let c = h.wait().expect("served");
///     let a = phi_matrix_f64(16, 32, 0.5, t as u64, 0);
///     assert_eq!(c, emu.dgemm(&a, &w)); // bit-identical to the emulator
/// }
/// ```
pub struct Server {
    shared: Arc<Shared>,
    runtime: Arc<BatchedOzaki2>,
    dispatcher: Option<JoinHandle<()>>,
}

impl Server {
    /// A builder with `n_moduli ∈ 2..=20`, the given mode, and
    /// serving-ready defaults for every policy knob.
    pub fn builder(n_moduli: usize, mode: Mode) -> ServerBuilder {
        ServerBuilder {
            n_moduli,
            mode,
            queue_depth: 256,
            coalesce_window: Duration::from_micros(500),
            max_batch: 64,
            default_deadline: None,
            fault_policy: None,
        }
    }

    /// The configured moduli count `N`.
    pub fn n_moduli(&self) -> usize {
        self.shared.n_moduli
    }

    /// Submit a request, **blocking** while the queue is at its
    /// configured depth (the cooperative form of backpressure). Returns
    /// the job's [`JobHandle`] once admitted.
    pub fn submit(&self, req: GemmRequest) -> Result<JobHandle, SubmitError> {
        self.admit(req, true)
    }

    /// Submit without blocking: [`SubmitError::QueueFull`] when the
    /// queue is at depth (counted in the tenant's `rejected`), so
    /// latency-sensitive callers can shed at the door instead of
    /// waiting.
    pub fn try_submit(&self, req: GemmRequest) -> Result<JobHandle, SubmitError> {
        self.admit(req, false)
    }

    /// Jobs admitted but not yet handed to an execution round.
    pub fn queue_len(&self) -> usize {
        lock(&self.shared.queue).items.len()
    }

    /// Stop dispatching (admissions continue up to the queue depth, so
    /// backpressure still engages). For drain-style maintenance and
    /// deterministic tests.
    pub fn pause(&self) {
        lock(&self.shared.queue).paused = true;
        self.shared.not_empty.notify_all();
    }

    /// Resume dispatching after [`Server::pause`].
    pub fn resume(&self) {
        lock(&self.shared.queue).paused = false;
        self.shared.not_empty.notify_all();
    }

    /// Exact accounting snapshot for one tenant; `None` before its
    /// first submission attempt.
    pub fn tenant_stats(&self, tenant: &str) -> Option<TenantStats> {
        lock(&self.shared.tenants).get(tenant).cloned()
    }

    /// Every tenant's accounting snapshot, sorted by tenant name.
    pub fn tenants(&self) -> Vec<(String, TenantStats)> {
        let map = lock(&self.shared.tenants);
        let mut rows: Vec<(String, TenantStats)> = map
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        rows.sort_by(|x, y| x.0.cmp(&y.0));
        rows
    }

    /// Server-wide counters and coalescing outcomes.
    pub fn stats(&self) -> ServerStats {
        lock(&self.shared.totals).clone()
    }

    /// The backing batched runtime — inspect its prepared-operand cache
    /// (`.cache().hits()`, `.cache().bytes()`) and workspace pool
    /// (`.pool().created()`) for capacity planning.
    pub fn runtime(&self) -> &BatchedOzaki2 {
        &self.runtime
    }

    /// Stop admitting work and start the drain, without blocking: new
    /// submissions (including submitters blocked on a full queue) get
    /// [`SubmitError::Shutdown`], while every already-admitted job still
    /// completes. The dispatcher is joined later by [`Server::shutdown`]
    /// or drop.
    pub fn close(&self) {
        {
            let mut q = lock(&self.shared.queue);
            q.shutdown = true;
            // A paused server still drains on shutdown.
            q.paused = false;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }

    /// Drain the queue, complete every admitted job, and join the
    /// dispatcher. Dropping the server does the same; the explicit form
    /// exists so shutdown can be sequenced (and named) in operational
    /// code.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.close();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }

    // -- admission -------------------------------------------------------

    fn admit(&self, req: GemmRequest, block: bool) -> Result<JobHandle, SubmitError> {
        if let Err(e) = self.validate(&req) {
            self.note_rejection(&req.tenant);
            return Err(SubmitError::Invalid(e));
        }
        let shared = &self.shared;
        let (m, k, n) = req.shape();
        let coalesce = arithmetic_intensity(m, n, k, shared.n_moduli) < INTENSITY_CROSSOVER;
        let cell = JobCell::new();
        let ids = (ident(&req.a), ident(&req.b));
        let admitted = Admitted {
            deadline: req.deadline.or(shared.cfg.default_deadline),
            cell: cell.clone(),
            submitted_at: Instant::now(),
            submitted_ns: gemm_obs::now_ns(),
            coalesce,
            req,
        };
        let tenant = admitted.req.tenant.clone();
        let depth;
        {
            let mut q = lock(&shared.queue);
            loop {
                if q.shutdown {
                    return Err(SubmitError::Shutdown);
                }
                if q.items.len() < shared.cfg.queue_depth {
                    break;
                }
                if !block {
                    drop(q);
                    self.note_rejection(&tenant);
                    return Err(SubmitError::QueueFull);
                }
                q = shared.not_full.wait(q).unwrap_or_else(|e| e.into_inner());
            }
            q.items.push_back(admitted);
            depth = q.items.len();
        }
        shared.not_empty.notify_all();
        self.note_admission(&tenant, ids, depth);
        Ok(JobHandle { cell, tenant })
    }

    /// Shape and finiteness validation of every request, including
    /// operands admitted before: an `Arc`'d matrix may have been mutated
    /// through `Arc::get_mut` since, or a new one allocated at a freed
    /// address with the same shape.
    fn validate(&self, req: &GemmRequest) -> Result<(), EmulationError> {
        if req.a.cols() != req.b.rows() {
            return Err(EmulationError::ShapeMismatch);
        }
        for (side, mat) in [(OperandSide::A, &req.a), (OperandSide::B, &req.b)] {
            if let Some(index) = mat.as_slice().iter().position(|x| !x.is_finite()) {
                return Err(EmulationError::NonFiniteInput { side, index });
            }
        }
        Ok(())
    }

    fn note_rejection(&self, tenant: &Arc<str>) {
        self.shared.with_tenant(tenant, |t| t.rejected += 1);
        lock(&self.shared.totals).rejected += 1;
    }

    /// Record the admission: operand-reuse hits are counted here, at
    /// admission, because a cache hit is a property of the submission
    /// stream, not of when the dispatcher happens to run the round.
    fn note_admission(&self, tenant: &Arc<str>, ids: (Ident, Ident), depth: usize) {
        let (a_id, b_id) = ids;
        let mut hits = 0u64;
        {
            let mut seen = lock(&self.shared.seen);
            // Bound the identity set on long-lived servers: past the cap
            // it resets, costing at most an undercounted hit per
            // recurring operand — never correctness.
            // The reset is announced through the (always-on) registry so
            // operators know `cache_hits` undercounts from here on,
            // instead of silently reading a too-low hit rate.
            if seen.len() >= SEEN_CAP {
                seen.clear();
                gemm_obs::catalog::SERVE_SEEN_RESETS.add_always(1);
                gemm_obs::catalog::SERVE_SEEN_SATURATED.set(1);
            }
            for id in [a_id, b_id] {
                if !seen.insert(id) {
                    hits += 1;
                }
            }
        }
        self.shared.with_tenant(tenant, |t| {
            t.submitted += 1;
            t.cache_hits += hits;
        });
        let mut totals = lock(&self.shared.totals);
        totals.submitted += 1;
        totals.peak_queue_depth = totals.peak_queue_depth.max(depth);
        drop(totals);
        gemm_obs::catalog::SERVE_SUBMITTED.inc();
    }

    /// The whole registry plus the server-level derived series
    /// (coalesce rate, cache-hit rate, per-tenant counters) in the
    /// Prometheus text exposition format — the same numbers the
    /// dispatcher dumps to `OZAKI_METRICS_FILE` and CI gates on.
    pub fn metrics_text(&self) -> String {
        render_metrics(&self.shared, &self.runtime)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Data identity of an operand: pointer + shape (the same notion
/// `gemm_batch`'s group dedup and `OperandKey` use).
type Ident = (usize, usize, usize);

/// Upper bound on tracked operand identities (~1.5 MiB of tuples).
const SEEN_CAP: usize = 1 << 16;

fn ident(m: &MatF64) -> Ident {
    (m.as_slice().as_ptr() as usize, m.rows(), m.cols())
}

// -- the dispatcher -------------------------------------------------------

struct Dispatcher {
    shared: Arc<Shared>,
    runtime: Arc<BatchedOzaki2>,
}

impl Dispatcher {
    fn run(self) {
        let window = self.shared.cfg.coalesce_window;
        let max_batch = self.shared.cfg.max_batch;
        // Periodic Prometheus dump for scrapers: set OZAKI_METRICS_FILE
        // to a path and the dispatcher rewrites it about twice a second
        // (plus once at shutdown, so short runs always leave a snapshot).
        let metrics_file = std::env::var("OZAKI_METRICS_FILE").ok();
        let mut last_dump = Instant::now();
        let mut pending: Vec<Admitted> = Vec::new();
        let mut window_opened: Option<Instant> = None;
        // Observability-clock twin of `window_opened`, anchoring the
        // `coalesce_window` residency span.
        let mut window_opened_ns = 0u64;
        loop {
            let flush_at = window_opened.map(|t| t + window);
            let (popped, shutdown) = self.poll(flush_at, pending.is_empty());
            let mut large = Vec::new();
            for item in popped {
                if item.coalesce {
                    if pending.is_empty() {
                        window_opened = Some(Instant::now());
                        window_opened_ns = gemm_obs::now_ns();
                    }
                    pending.push(item);
                } else {
                    large.push(item);
                }
            }
            // Full rounds flush regardless of the window.
            while pending.len() >= max_batch {
                let round: Vec<Admitted> = pending.drain(..max_batch).collect();
                window_opened_ns = self.note_window_flush(window_opened_ns);
                self.execute_round(round);
                window_opened = (!pending.is_empty()).then(Instant::now);
            }
            // Large jobs run now — their execution time is coalescing
            // time for the pending small jobs.
            for item in large {
                self.execute_round(vec![item]);
            }
            // Window expiry (or shutdown) flushes the partial round.
            let expired = window_opened
                .map(|t| Instant::now() >= t + window)
                .unwrap_or(false);
            if (expired || shutdown) && !pending.is_empty() {
                self.note_window_flush(window_opened_ns);
                self.execute_round(std::mem::take(&mut pending));
            }
            if pending.is_empty() {
                window_opened = None;
            }
            if let Some(path) = &metrics_file {
                if shutdown || last_dump.elapsed() >= METRICS_DUMP_PERIOD {
                    let _ = std::fs::write(path, render_metrics(&self.shared, &self.runtime));
                    last_dump = Instant::now();
                }
            }
            if shutdown && pending.is_empty() {
                return;
            }
        }
    }

    /// Record the coalesce-window residency span ending now; returns the
    /// new window anchor (now) for the case where pending items remain.
    fn note_window_flush(&self, window_opened_ns: u64) -> u64 {
        let now = gemm_obs::now_ns();
        if now != 0 && window_opened_ns != 0 {
            gemm_obs::observe_span(
                "coalesce_window",
                "serve",
                &gemm_obs::catalog::SERVE_COALESCE_WINDOW,
                window_opened_ns,
                now.saturating_sub(window_opened_ns),
            );
        }
        now
    }

    /// Block until there is something to do: queue items (returned,
    /// drained), the coalesce window expiring (`flush_at`), or shutdown.
    /// Respects `paused` — a paused queue neither pops nor flushes.
    fn poll(&self, flush_at: Option<Instant>, pending_empty: bool) -> (Vec<Admitted>, bool) {
        let shared = &self.shared;
        let mut q = lock(&shared.queue);
        loop {
            if q.shutdown {
                let items: Vec<Admitted> = q.items.drain(..).collect();
                drop(q);
                shared.not_full.notify_all();
                return (items, true);
            }
            if !q.paused && !q.items.is_empty() {
                let items: Vec<Admitted> = q.items.drain(..).collect();
                drop(q);
                shared.not_full.notify_all();
                return (items, false);
            }
            if !q.paused && !pending_empty {
                if let Some(at) = flush_at {
                    let now = Instant::now();
                    if now >= at {
                        return (Vec::new(), false);
                    }
                    let (guard, _) = shared
                        .not_empty
                        .wait_timeout(q, at - now)
                        .unwrap_or_else(|e| e.into_inner());
                    q = guard;
                    continue;
                }
            }
            q = shared.not_empty.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Execute one round: shed overdue jobs, dispatch the rest as a
    /// shared-operand group (or a lone striped job), and complete every
    /// handle. A failing multi-job round degrades to per-item execution
    /// so errors land on the job that caused them, never on a
    /// coalescing neighbour.
    fn execute_round(&self, items: Vec<Admitted>) {
        let now = Instant::now();
        let mut live = Vec::new();
        for item in items {
            match item.overdue(now) {
                Some(queued_for) => self.complete_shed(item, queued_for),
                None => live.push(item),
            }
        }
        if live.is_empty() {
            return;
        }
        // Queue-wait spans close here: admission to dispatch. (On the
        // rare failure-isolation re-run below each surviving job records
        // a second, longer wait — the re-dispatch genuinely waited.)
        let dispatch_ns = gemm_obs::now_ns();
        if dispatch_ns != 0 {
            for item in &live {
                gemm_obs::observe_span(
                    "queue_wait",
                    "serve",
                    &gemm_obs::catalog::SERVE_QUEUE_WAIT,
                    item.submitted_ns,
                    dispatch_ns.saturating_sub(item.submitted_ns),
                );
            }
        }
        let coalesced = live.len() >= 2;
        let outcome = {
            let pairs: Vec<(&MatF64, &MatF64)> =
                live.iter().map(|it| (&*it.req.a, &*it.req.b)).collect();
            catch_unwind(AssertUnwindSafe(|| self.runtime.try_dgemm_group(&pairs)))
        };
        let end_ns = gemm_obs::now_ns();
        if end_ns != 0 {
            gemm_obs::observe_span(
                "execute_round",
                "serve",
                &gemm_obs::catalog::SERVE_EXECUTE,
                dispatch_ns,
                end_ns.saturating_sub(dispatch_ns),
            );
        }
        gemm_obs::catalog::SERVE_ROUNDS.inc();
        lock(&self.shared.totals).rounds += 1;
        match outcome {
            Ok(Ok(outs)) => {
                for (item, out) in live.into_iter().zip(outs) {
                    self.complete_ok(item, out, coalesced);
                }
            }
            Ok(Err(e)) if !coalesced => {
                let item = live.pop().expect("one live item");
                self.complete_failed(item, JobError::Emulation(e));
            }
            Err(payload) if !coalesced => {
                let item = live.pop().expect("one live item");
                self.complete_failed(item, JobError::Internal(panic_message(payload)));
            }
            // Multi-job round failed: isolate the offender by re-running
            // each job alone (deadlines re-checked per job).
            Ok(Err(_)) | Err(_) => {
                for item in live {
                    self.execute_round(vec![item]);
                }
            }
        }
    }

    fn complete_ok(&self, item: Admitted, out: MatF64, coalesced: bool) {
        let bytes = item.req.bytes();
        let nmod = self.shared.n_moduli as u64;
        self.shared.with_tenant(&item.req.tenant, |t| {
            t.completed += 1;
            t.bytes += bytes;
            t.residue_gemms += nmod;
        });
        {
            let mut totals = lock(&self.shared.totals);
            totals.completed += 1;
            if coalesced {
                totals.coalesced += 1;
            } else {
                totals.solo += 1;
            }
        }
        gemm_obs::catalog::SERVE_COMPLETED.inc();
        item.cell.complete(Ok(out));
    }

    fn complete_shed(&self, item: Admitted, queued_for: Duration) {
        self.shared.with_tenant(&item.req.tenant, |t| t.shed += 1);
        lock(&self.shared.totals).shed += 1;
        gemm_obs::catalog::SERVE_SHED.inc();
        item.cell.complete(Err(JobError::Shed { queued_for }));
    }

    fn complete_failed(&self, item: Admitted, err: JobError) {
        self.shared.with_tenant(&item.req.tenant, |t| t.failed += 1);
        lock(&self.shared.totals).failed += 1;
        item.cell.complete(Err(err));
    }
}

/// How often the dispatcher rewrites `OZAKI_METRICS_FILE`.
const METRICS_DUMP_PERIOD: Duration = Duration::from_millis(500);

/// The full Prometheus exposition: the `gemm_obs` registry first, then
/// the server-level series computed from the exact (always-on)
/// accounting — the ratio metrics CI gates on, runtime capacity
/// counters, and one labelled line set per tenant.
fn render_metrics(shared: &Shared, runtime: &BatchedOzaki2) -> String {
    use std::fmt::Write as _;
    let mut out = gemm_obs::render_prometheus();
    let totals = lock(&shared.totals).clone();
    let tenants = lock(&shared.tenants);
    let (mut hits, mut submissions) = (0u64, 0u64);
    for t in tenants.values() {
        hits += t.cache_hits;
        submissions += t.submitted;
    }
    // Two operands per submission; hits are identity re-sightings.
    let cache_hit_rate = if submissions == 0 {
        0.0
    } else {
        hits as f64 / (2 * submissions) as f64
    };
    let gauges: [(&str, &str, f64); 5] = [
        (
            "ozaki_serve_coalesce_rate",
            "Fraction of completed jobs that ran in a coalesced round",
            totals.coalesce_rate(),
        ),
        (
            "ozaki_serve_cache_hit_rate",
            "Operand identity re-sighting rate at admission (see saturation gauge)",
            cache_hit_rate,
        ),
        (
            "ozaki_serve_peak_queue_depth",
            "Deepest the submission queue has been",
            totals.peak_queue_depth as f64,
        ),
        (
            "ozaki_operand_cache_bytes",
            "Bytes held by the prepared-operand cache",
            runtime.cache().bytes() as f64,
        ),
        (
            "ozaki_workspace_pool_created",
            "Workspaces ever created by the pool (peak checkout concurrency)",
            runtime.pool().created() as f64,
        ),
    ];
    for (name, help, v) in gauges {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {v}");
    }
    let mut rows: Vec<(&Arc<str>, &TenantStats)> = tenants.iter().collect();
    rows.sort_by(|x, y| x.0.cmp(y.0));
    let _ = writeln!(
        out,
        "# HELP ozaki_serve_tenant_requests_total Per-tenant request outcomes\n\
         # TYPE ozaki_serve_tenant_requests_total counter"
    );
    for (name, t) in &rows {
        for (outcome, v) in [
            ("completed", t.completed),
            ("rejected", t.rejected),
            ("shed", t.shed),
            ("failed", t.failed),
        ] {
            let _ = writeln!(
                out,
                "ozaki_serve_tenant_requests_total{{tenant=\"{name}\",outcome=\"{outcome}\"}} {v}"
            );
        }
    }
    let _ = writeln!(
        out,
        "# HELP ozaki_serve_tenant_bytes_total Per-tenant operand+result bytes moved\n\
         # TYPE ozaki_serve_tenant_bytes_total counter"
    );
    for (name, t) in &rows {
        let _ = writeln!(
            out,
            "ozaki_serve_tenant_bytes_total{{tenant=\"{name}\"}} {}",
            t.bytes
        );
    }
    out
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
