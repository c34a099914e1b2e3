//! # gemm_obs — unified observability for the emulation stack
//!
//! One instrumentation substrate for every runtime layer (pipeline, engine,
//! batch scheduler, worker pool, serving runtime), replacing the
//! previous patchwork of ad-hoc timing structs. Three surfaces:
//!
//! - **Metrics registry** ([`registry`], [`catalog`]): monotonic counters,
//!   gauges, and fixed-bucket log₂-scale latency histograms (p50/p90/p99
//!   without allocation). Write paths are lock-free — each thread owns a
//!   cache-line-padded shard slot; readers aggregate across shards.
//! - **Structured spans** ([`mod@span`]): per-thread ring buffers of completed
//!   span events, exportable as chrome://tracing `trace_event` JSON via
//!   [`ObsSession::export_chrome_trace`] and openable in Perfetto.
//! - **Prometheus text exposition** ([`render_prometheus`]): the same
//!   registry rendered in the text format operators scrape and CI greps.
//!
//! ## The enable gate
//!
//! Observability is **off by default** and gated by `OZAKI_OBS` (any value
//! other than empty/`0`/`false`/`off` enables it), read once and latched
//! into an atomic; [`set_enabled`] overrides it programmatically. When
//! disabled every record path is a single relaxed atomic load followed by
//! an early return — no clock read, no thread-local access, no allocation —
//! so instrumented hot loops stay bit-identical and overhead-free. The
//! disabled-mode zero-allocation property is pinned by an allocator-counting
//! test (`tests/zero_alloc.rs`) and the enabled-mode overhead by a CI gate.
//!
//! The one deliberate exception: [`Gauge::set`] and a few cold-path
//! counters noted in [`catalog`] record even when disabled, because they
//! carry correctness-adjacent signals (e.g. the serving runtime's
//! cache-hit tracking saturation) that must not vanish with tracing off.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod registry;
pub mod span;

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

pub use catalog::render_prometheus;
pub use registry::{Counter, Gauge, Histogram, TimeShare};
pub use span::{
    dropped, observe_span, record_span, render_chrome_trace, span, span_timed, ObsSession,
    Reconciliation, SpanEvent, SpanGuard,
};

const STATE_UNSET: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

/// Tri-state gate: unset until the first query, then latched on/off.
static STATE: AtomicU8 = AtomicU8::new(STATE_UNSET);

/// Whether observability is enabled. First call reads `OZAKI_OBS` and
/// latches the answer; after that it is one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("OZAKI_OBS")
        .map(|v| {
            let v = v.trim();
            !(v.is_empty()
                || v == "0"
                || v.eq_ignore_ascii_case("false")
                || v.eq_ignore_ascii_case("off"))
        })
        .unwrap_or(false);
    // Racing first callers read the same environment and agree, so a plain
    // store (not compare-exchange) is fine.
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Force the gate on or off, overriding `OZAKI_OBS`. Takes effect for all
/// subsequent record calls; existing recorded data is kept.
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Process-wide span clock epoch, initialised on first enabled timestamp.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the observability epoch, or `0` when
/// disabled (so callers can unconditionally capture timestamps — the
/// gated record calls ignore them when off).
#[inline]
pub fn now_ns() -> u64 {
    if !enabled() {
        return 0;
    }
    clock_ns()
}

/// The raw clock, bypassing the gate (span internals only).
pub(crate) fn clock_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}
