//! The static metric catalog: every counter, gauge, and histogram the
//! runtime layers record, with their Prometheus exposition names, plus
//! the text renderer. One flat namespace (`ozaki_*`) so loadgen, the
//! serving runtime's `metrics_text()`, and CI all read the same numbers.
//!
//! See `docs/OBSERVABILITY.md` for the operator-facing catalog with
//! label semantics and the span hierarchy.

use crate::registry::{Counter, Gauge, Histogram};

// ---------------------------------------------------------------------------
// Pipeline (Algorithm 1) — crates/core
// ---------------------------------------------------------------------------

/// Line 1: exponent extraction / row-max scaling.
pub static PHASE_SCALE: Histogram = Histogram::new(
    "ozaki_phase_scale_seconds",
    "Algorithm 1 line 1: per-vector exponent extraction and scaling",
    "scale",
);
/// Lines 2–3: scale + truncate share of the fused sweep.
pub static PHASE_TRUNC: Histogram = Histogram::new(
    "ozaki_phase_trunc_seconds",
    "Algorithm 1 lines 2-3: truncation share of the fused trunc+convert sweep",
    "trunc",
);
/// Lines 4–5: residue conversion + engine packing share.
pub static PHASE_CONVERT: Histogram = Histogram::new(
    "ozaki_phase_convert_seconds",
    "Algorithm 1 lines 4-5: mod-p conversion and packing share of the fused sweep",
    "convert",
);
/// Line 6: INT8 engine GEMM time.
pub static PHASE_INT8_GEMM: Histogram = Histogram::new(
    "ozaki_phase_int8_gemm_seconds",
    "Algorithm 1 line 6: INT8 matrix-engine GEMM",
    "int8_gemm",
);
/// Line 7: mod-p reduction of engine accumulators.
pub static PHASE_MOD_REDUCE: Histogram = Histogram::new(
    "ozaki_phase_mod_reduce_seconds",
    "Algorithm 1 line 7: mod-p reduction of INT32 accumulators",
    "mod_reduce",
);
/// Lines 8–12: CRT fold back to floating point.
pub static PHASE_FOLD: Histogram = Histogram::new(
    "ozaki_phase_fold_seconds",
    "Algorithm 1 lines 8-12: CRT fold back to f64/f32",
    "fold",
);
/// ABFT checksum capture + verification time.
pub static PHASE_VERIFY: Histogram = Histogram::new(
    "ozaki_phase_verify_seconds",
    "ABFT checksum capture and verification",
    "verify",
);

/// Completed emulated GEMM calls (facade or prepared/batched path).
pub static EMULATED_GEMMS: Counter = Counter::new(
    "ozaki_emulated_gemms_total",
    "Completed emulated GEMM calls across all entry points",
);
/// Residue-plane INT8 GEMMs issued by completed emulations.
pub static INT8_GEMM_CALLS: Counter = Counter::new(
    "ozaki_int8_gemm_calls_total",
    "Residue-plane INT8 GEMMs issued by completed emulations",
);
/// Operands run through the prepare-side front end.
pub static PREPARED_OPERANDS: Counter = Counter::new(
    "ozaki_prepared_operands_total",
    "Operands converted by the prepare front end (prepare/execute split)",
);

// ---------------------------------------------------------------------------
// Engine — crates/engine
// ---------------------------------------------------------------------------

/// Panel-level INT8 engine invocations.
pub static ENGINE_INT8_CALLS: Counter = Counter::new(
    "ozaki_engine_int8_calls_total",
    "Panel-level INT8 engine GEMM invocations",
);
/// INT8 multiply-accumulate operations (m*n*k per invocation).
pub static ENGINE_INT8_MACS: Counter = Counter::new(
    "ozaki_engine_int8_macs_total",
    "INT8 multiply-accumulate operations issued to the engine",
);

// ---------------------------------------------------------------------------
// ABFT — crates/core (the lines-6–12 executor under an active policy)
// ---------------------------------------------------------------------------

/// Checksum mismatches detected.
pub static ABFT_DETECTIONS: Counter = Counter::new(
    "ozaki_abft_detections_total",
    "ABFT checksum mismatches detected",
);
/// Plane GEMM retries triggered by detections.
pub static ABFT_RETRIES: Counter = Counter::new(
    "ozaki_abft_retries_total",
    "Residue-plane retries triggered by ABFT detections",
);
/// Scalar-oracle fallbacks after exhausted retries.
pub static ABFT_SCALAR_FALLBACKS: Counter = Counter::new(
    "ozaki_abft_scalar_fallbacks_total",
    "Scalar-kernel fallbacks after exhausted retries",
);
/// Faults that survived the whole recovery policy.
pub static ABFT_UNRECOVERED: Counter = Counter::new(
    "ozaki_abft_unrecovered_total",
    "Faults not recovered by the active policy",
);

// ---------------------------------------------------------------------------
// Batch runtime — crates/batch
// ---------------------------------------------------------------------------

/// Prepared-operand cache hits.
pub static CACHE_HITS: Counter = Counter::new(
    "ozaki_operand_cache_hits_total",
    "Prepared-operand LRU cache hits",
);
/// Prepared-operand cache misses (fresh conversions).
pub static CACHE_MISSES: Counter = Counter::new(
    "ozaki_operand_cache_misses_total",
    "Prepared-operand LRU cache misses",
);
/// Workspace pool checkouts.
pub static WORKSPACE_CHECKOUTS: Counter = Counter::new(
    "ozaki_workspace_checkouts_total",
    "Workspace pool checkouts",
);
/// Workspaces freshly allocated by the pool (checkouts that missed).
pub static WORKSPACE_CREATED: Counter = Counter::new(
    "ozaki_workspace_created_total",
    "Workspaces freshly allocated by the pool",
);
/// Batch items dispatched via the inter-GEMM (coalesced stripe) schedule.
pub static BATCH_ITEMS_INTER: Counter = Counter::new(
    "ozaki_batch_items_inter_total",
    "Batch items dispatched on the inter-GEMM (parallel-across-items) schedule",
);
/// Batch items dispatched via the intra-GEMM (solo stripe) schedule.
pub static BATCH_ITEMS_INTRA: Counter = Counter::new(
    "ozaki_batch_items_intra_total",
    "Batch items dispatched on the intra-GEMM (parallel-within-item) schedule",
);

// ---------------------------------------------------------------------------
// Worker pool — crates/shims/rayon
// ---------------------------------------------------------------------------

/// Tasks run by a thread other than the one that submitted their region
/// (always a pool worker; the rest ran on their submitter while it waited).
pub static POOL_STEALS: Counter = Counter::new(
    "ozaki_pool_steals_total",
    "Tasks run by a pool worker rather than by their region's submitter",
);
/// Worker parks (sleeps because the pool queue was empty).
pub static POOL_PARKS: Counter = Counter::new(
    "ozaki_pool_parks_total",
    "Worker parks on an empty pool queue",
);
/// Tasks executed by the pool, by workers and submitters alike.
pub static POOL_TASKS: Counter = Counter::new(
    "ozaki_pool_tasks_total",
    "Tasks executed by pool workers (including the submitting thread)",
);

// ---------------------------------------------------------------------------
// Serving runtime — crates/serve
// ---------------------------------------------------------------------------

/// Requests admitted into the submission queue.
pub static SERVE_SUBMITTED: Counter = Counter::new(
    "ozaki_serve_submitted_total",
    "Requests admitted into the serving queue",
);
/// Requests completed successfully.
pub static SERVE_COMPLETED: Counter = Counter::new(
    "ozaki_serve_completed_total",
    "Requests completed by the serving runtime",
);
/// Requests shed past their deadline.
pub static SERVE_SHED: Counter = Counter::new(
    "ozaki_serve_shed_total",
    "Requests shed at their deadline before execution",
);
/// Execution rounds dispatched (coalesced group or solo).
pub static SERVE_ROUNDS: Counter = Counter::new(
    "ozaki_serve_rounds_total",
    "Execution rounds dispatched (coalesced groups and solo stripes)",
);
/// Times the cache-hit identity set hit its cap and was cleared.
/// **Always recorded** (cold path, correctness-adjacent — see the gauge).
pub static SERVE_SEEN_RESETS: Counter = Counter::new(
    "ozaki_serve_seen_resets_total",
    "Times the per-tenant operand-identity set saturated and was cleared",
);
/// 1 once cache-hit tracking has saturated at least once since start:
/// `TenantStats.cache_hits` undercounts from then on. **Always recorded.**
pub static SERVE_SEEN_SATURATED: Gauge = Gauge::new(
    "ozaki_serve_cache_hit_tracking_saturated",
    "1 if the operand-identity set ever saturated (cache_hits undercounts)",
);

/// Admission-to-dispatch queue wait.
pub static SERVE_QUEUE_WAIT: Histogram = Histogram::new(
    "ozaki_serve_queue_wait_seconds",
    "Request wait from admission to dispatch into an execution round",
    "queue_wait",
);
/// Execution-round duration (batched execute of one admitted group).
pub static SERVE_EXECUTE: Histogram = Histogram::new(
    "ozaki_serve_execute_seconds",
    "Execution-round duration (one batched execute call)",
    "execute_round",
);
/// Coalesce-window residency: window open to flush.
pub static SERVE_COALESCE_WINDOW: Histogram = Histogram::new(
    "ozaki_serve_coalesce_window_seconds",
    "Coalesce-window residency from first pending request to flush",
    "coalesce_window",
);

// ---------------------------------------------------------------------------
// Listings
// ---------------------------------------------------------------------------

static ALL_COUNTERS: [&Counter; 23] = [
    &EMULATED_GEMMS,
    &INT8_GEMM_CALLS,
    &PREPARED_OPERANDS,
    &ENGINE_INT8_CALLS,
    &ENGINE_INT8_MACS,
    &ABFT_DETECTIONS,
    &ABFT_RETRIES,
    &ABFT_SCALAR_FALLBACKS,
    &ABFT_UNRECOVERED,
    &CACHE_HITS,
    &CACHE_MISSES,
    &WORKSPACE_CHECKOUTS,
    &WORKSPACE_CREATED,
    &BATCH_ITEMS_INTER,
    &BATCH_ITEMS_INTRA,
    &POOL_STEALS,
    &POOL_PARKS,
    &POOL_TASKS,
    &SERVE_SUBMITTED,
    &SERVE_COMPLETED,
    &SERVE_SHED,
    &SERVE_ROUNDS,
    &SERVE_SEEN_RESETS,
];

static ALL_GAUGES: [&Gauge; 1] = [&SERVE_SEEN_SATURATED];

static ALL_HISTOGRAMS: [&Histogram; 10] = [
    &PHASE_SCALE,
    &PHASE_TRUNC,
    &PHASE_CONVERT,
    &PHASE_INT8_GEMM,
    &PHASE_MOD_REDUCE,
    &PHASE_FOLD,
    &PHASE_VERIFY,
    &SERVE_QUEUE_WAIT,
    &SERVE_EXECUTE,
    &SERVE_COALESCE_WINDOW,
];

/// Every registered counter, in exposition order.
pub fn counters() -> &'static [&'static Counter] {
    &ALL_COUNTERS
}

/// Every registered plain gauge.
pub fn gauges() -> &'static [&'static Gauge] {
    &ALL_GAUGES
}

/// Every registered histogram. Sessions reconcile span sums against this
/// list (each histogram names its paired span — `Histogram::span_name`).
pub fn histograms() -> &'static [&'static Histogram] {
    &ALL_HISTOGRAMS
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

use std::fmt::Write as _;

/// Render the whole catalog in the Prometheus text exposition format
/// (counters, gauges, and histograms with
/// cumulative `_bucket{le=...}` series in seconds plus exact `_sum` /
/// `_count`). Histograms emit only their populated bucket range (plus
/// `+Inf`), which the format permits and keeps scrapes compact.
pub fn render_prometheus() -> String {
    let mut out = String::with_capacity(4096);
    for c in counters() {
        let _ = writeln!(out, "# HELP {} {}", c.name(), c.help());
        let _ = writeln!(out, "# TYPE {} counter", c.name());
        let _ = writeln!(out, "{} {}", c.name(), c.value());
    }
    for g in gauges() {
        let _ = writeln!(out, "# HELP {} {}", g.name(), g.help());
        let _ = writeln!(out, "# TYPE {} gauge", g.name());
        let _ = writeln!(out, "{} {}", g.name(), g.value());
    }
    for h in histograms() {
        let _ = writeln!(out, "# HELP {} {}", h.name(), h.help());
        let _ = writeln!(out, "# TYPE {} histogram", h.name());
        let agg = h.buckets_total();
        let total: u64 = agg.iter().sum();
        // The final unbounded bucket renders only as +Inf.
        let last_used = agg
            .iter()
            .rposition(|&c| c != 0)
            .map(|l| l.min(agg.len() - 2));
        let mut cum = 0u64;
        if let Some(last) = last_used {
            for (i, c) in agg.iter().enumerate().take(last + 1) {
                cum += c;
                let le = crate::registry::Histogram::bucket_upper_ns(i) as f64 / 1e9;
                let _ = writeln!(out, "{}_bucket{{le=\"{le:.9}\"}} {cum}", h.name());
            }
        }
        let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {total}", h.name());
        let _ = writeln!(out, "{}_sum {:.9}", h.name(), h.sum_ns() as f64 / 1e9);
        let _ = writeln!(out, "{}_count {}", h.name(), h.count());
    }
    out
}
