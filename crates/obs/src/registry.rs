//! Lock-free metric primitives: counters, gauges, log₂-bucket histograms.
//!
//! Write paths shard by thread: each thread draws a stable slot index from
//! a global counter (mod [`SHARDS`]) on first touch, then only ever writes
//! its own cache-line-padded slot with relaxed atomics — no CAS loops, no
//! contended lines. Readers aggregate across all shards, so totals are
//! linearizable for quiesced writers (every increment issued before the
//! read is included) even though concurrent reads may observe partial
//! sums. The shard id deliberately does *not* come from the rayon pool:
//! that would invert the dependency graph (the rayon shim itself
//! instruments through this crate).

use crate::enabled;
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Per-thread slots each sharded metric maintains. Threads beyond this
/// many hash onto shared slots — still correct (atomics), just contended.
pub const SHARDS: usize = 32;

/// Histogram bucket count: bucket `i` holds durations in `[2^i, 2^(i+1))`
/// nanoseconds (bucket 0 also absorbs 0 ns; the last bucket is unbounded
/// above). 48 buckets span 1 ns .. ~3.26 days.
pub const BUCKETS: usize = 48;

/// Pad to a cache line so two shards never share one.
#[repr(align(64))]
struct Pad<T>(T);

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// This thread's stable shard slot (assigned round-robin on first touch).
#[inline]
fn shard() -> usize {
    SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
        s.set(v);
        v
    })
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A monotonic counter (Prometheus `counter`), sharded per thread.
pub struct Counter {
    name: &'static str,
    help: &'static str,
    shards: [Pad<AtomicU64>; SHARDS],
}

impl Counter {
    /// A zeroed counter with its exposition name and help line.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            shards: [const { Pad(AtomicU64::new(0)) }; SHARDS],
        }
    }

    /// Add `v`; no-op while the gate is off.
    #[inline]
    pub fn add(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.add_always(v);
    }

    /// Add `v` regardless of the gate (cold-path correctness signals only).
    #[inline]
    pub fn add_always(&self, v: u64) {
        self.shards[shard()].0.fetch_add(v, Ordering::Relaxed);
    }

    /// Increment by one; no-op while the gate is off.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Aggregate total across all shards.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Exposition name (`ozaki_*_total`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Help line for `# HELP`.
    pub fn help(&self) -> &'static str {
        self.help
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// A last-write-wins gauge. **Not gated**: gauges carry cold-path state
/// signals (saturation flags, configured limits) that must survive a
/// disabled registry; their write rate is negligible by construction.
pub struct Gauge {
    name: &'static str,
    help: &'static str,
    value: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            value: AtomicI64::new(0),
        }
    }

    /// Store `v` (always recorded — see the type docs).
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Exposition name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Help line for `# HELP`.
    pub fn help(&self) -> &'static str {
        self.help
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// One shard of a histogram: bucket counts plus an exact nanosecond sum
/// (the sum is what lets Chrome-trace span totals reconcile against the
/// exposition to better than bucket resolution).
struct HistShard {
    buckets: [AtomicU64; BUCKETS],
    sum_ns: AtomicU64,
}

/// A latency histogram with [`BUCKETS`] fixed log₂ buckets, sharded per
/// thread. Quantile reads walk the aggregated cumulative counts and
/// return the upper edge of the containing bucket — no allocation beyond
/// one stack array, no locks.
pub struct Histogram {
    name: &'static str,
    help: &'static str,
    span_name: &'static str,
    shards: [Pad<HistShard>; SHARDS],
}

impl Histogram {
    /// A zeroed histogram. `span_name` is the span event name this
    /// histogram pairs with (see [`crate::observe_span`]); sessions use
    /// the pairing to reconcile span sums against histogram sums.
    pub const fn new(name: &'static str, help: &'static str, span_name: &'static str) -> Self {
        Self {
            name,
            help,
            span_name,
            shards: [const {
                Pad(HistShard {
                    buckets: [const { AtomicU64::new(0) }; BUCKETS],
                    sum_ns: AtomicU64::new(0),
                })
            }; SHARDS],
        }
    }

    /// The bucket index holding duration `ns`: `floor(log2(max(ns,1)))`,
    /// clamped to the last bucket.
    #[inline]
    pub fn bucket_index(ns: u64) -> usize {
        ((63 - (ns | 1).leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Exclusive upper edge of bucket `i` in nanoseconds (`u64::MAX` for
    /// the final unbounded bucket).
    pub fn bucket_upper_ns(i: usize) -> u64 {
        if i >= BUCKETS - 1 {
            u64::MAX
        } else {
            1u64 << (i + 1)
        }
    }

    /// Record one observation of `ns` nanoseconds; no-op while the gate
    /// is off.
    #[inline]
    pub fn observe_ns(&self, ns: u64) {
        if !enabled() {
            return;
        }
        let sh = &self.shards[shard()].0;
        sh.buckets[Self::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        sh.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Total observation count across all shards.
    pub fn count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.0.buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .sum::<u64>()
            })
            .sum()
    }

    /// Exact sum of all observed nanoseconds across all shards.
    pub fn sum_ns(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.sum_ns.load(Ordering::Relaxed))
            .sum()
    }

    /// Aggregated per-bucket counts.
    pub fn buckets_total(&self) -> [u64; BUCKETS] {
        let mut agg = [0u64; BUCKETS];
        for s in &self.shards {
            for (a, b) in agg.iter_mut().zip(s.0.buckets.iter()) {
                *a += b.load(Ordering::Relaxed);
            }
        }
        agg
    }

    /// The `q`-quantile (`0.0..=1.0`) in nanoseconds, as the upper edge
    /// of the bucket containing that rank; `0` when empty. Bucket edges
    /// are powers of two, so the answer overstates by at most 2x — the
    /// right trade for a lock-free fixed-footprint registry.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let agg = self.buckets_total();
        let total: u64 = agg.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, c) in agg.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::bucket_upper_ns(i);
            }
        }
        u64::MAX
    }

    /// Exposition name (`ozaki_*_seconds`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Help line for `# HELP`.
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// The paired span event name (see [`Histogram::new`]).
    pub fn span_name(&self) -> &'static str {
        self.span_name
    }
}

// ---------------------------------------------------------------------------
// TimeShare
// ---------------------------------------------------------------------------

/// Wall-clock share attribution for a fused loop: accumulates "part" vs
/// "total" CPU nanoseconds over parallel jobs so a caller can split its
/// single wall-clock measurement proportionally — exact on one worker, a
/// faithful CPU-share attribution on many.
///
/// **Not gated**: this replaces the core pipeline's hand-rolled
/// `ConvertTiming` and feeds the phase rows every bench report exposes,
/// which must stay populated with observability off.
#[derive(Default)]
pub struct TimeShare {
    part_ns: AtomicU64,
    total_ns: AtomicU64,
}

impl TimeShare {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulate one job's contribution.
    #[inline]
    pub fn add(&self, part_ns: u64, total_ns: u64) {
        self.part_ns.fetch_add(part_ns, Ordering::Relaxed);
        self.total_ns.fetch_add(total_ns, Ordering::Relaxed);
    }

    /// Summed "part" nanoseconds.
    pub fn part_ns(&self) -> u64 {
        self.part_ns.load(Ordering::Relaxed)
    }

    /// Summed job-total nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    /// `part / total` (0 when nothing has been recorded).
    pub fn fraction(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            return 0.0;
        }
        self.part_ns() as f64 / total as f64
    }
}
