//! A small LRU cache of [`PreparedOperand`]s keyed on operand identity.
//!
//! The batched runtime amortizes Algorithm 1's front end (lines 1–5) by
//! caching the prepared panels of operands that repeat — within one
//! batched call (a broadcast/stride-0 operand, a matrix referenced by
//! several group items) and **across** calls (the weight matrix of a
//! serving loop). Identity combines the operand's data pointer, length,
//! shape and pipeline configuration `(N, mode, precision)`, guarded by a
//! **full-content** fingerprint: a buffer that is freed and
//! coincidentally reallocated at the same address, or mutated in place —
//! even at a single element — changes the key, so stale panels can never
//! be served. Hashing every element costs one streaming pass over the
//! operand per lookup, far below the cost of the `N`-moduli preparation
//! it guards (and paid once per *call* for a shared operand, not per
//! item).

use gemm_dense::MatView;
use ozaki2::{ElemSlice, Element, Mode, OperandSide, PreparedOperand};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Mix one 64-bit word into an FNV-1a style running hash.
#[inline]
fn mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Full-content hash: four interleaved FNV streams (breaking the
/// multiply latency chain) folded together, covering every element.
fn fingerprint_bits(len: usize, word: impl Fn(usize) -> u64) -> u64 {
    let mut lanes = [
        0xcbf2_9ce4_8422_2325u64,
        0x9e37_79b9_7f4a_7c15,
        0xc2b2_ae3d_27d4_eb4f,
        0x1656_67b1_9e37_79f9,
    ];
    let mut i = 0;
    while i + 4 <= len {
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane = mix(*lane, word(i + l));
        }
        i += 4;
    }
    while i < len {
        lanes[0] = mix(lanes[0], word(i));
        i += 1;
    }
    let mut h = mix(lanes[0], len as u64);
    h = mix(h, lanes[1]);
    h = mix(h, lanes[2]);
    mix(h, lanes[3])
}

/// Full-content fingerprint of an f64 operand buffer.
pub fn fingerprint_f64(data: &[f64]) -> u64 {
    fingerprint_bits(data.len(), |i| data[i].to_bits())
}

/// Full-content fingerprint of an f32 operand buffer.
pub fn fingerprint_f32(data: &[f32]) -> u64 {
    fingerprint_bits(data.len(), |i| data[i].to_bits() as u64)
}

/// Shared strided-view fingerprint body: logical elements only, in
/// column-major traversal with plain nested loops (no per-element
/// div/mod), four round-robin FNV lanes folded like [`fingerprint_bits`].
fn fingerprint_view_with<T: Copy>(v: &MatView<'_, T>, word: impl Fn(T) -> u64) -> u64 {
    let mut lanes = [
        0xcbf2_9ce4_8422_2325u64,
        0x9e37_79b9_7f4a_7c15,
        0xc2b2_ae3d_27d4_eb4f,
        0x1656_67b1_9e37_79f9,
    ];
    let (rows, cols) = v.shape();
    let mut idx = 0usize;
    for j in 0..cols {
        for i in 0..rows {
            lanes[idx & 3] = mix(lanes[idx & 3], word(v.get(i, j)));
            idx += 1;
        }
    }
    let mut h = mix(lanes[0], idx as u64);
    h = mix(h, lanes[1]);
    h = mix(h, lanes[2]);
    mix(h, lanes[3])
}

/// Full-content fingerprint of the **logical** elements of a strided f64
/// view (column-major traversal; the inter-column gap elements belong to
/// neighbouring items and are excluded, so their mutation cannot fault an
/// unrelated entry). On a dense view this equals [`fingerprint_f64`] of
/// the element slice.
pub fn fingerprint_view_f64(v: &MatView<'_, f64>) -> u64 {
    if let Some(s) = v.as_col_major_slice() {
        return fingerprint_f64(s);
    }
    fingerprint_view_with(v, f64::to_bits)
}

/// [`fingerprint_view_f64`] for f32 views.
pub fn fingerprint_view_f32(v: &MatView<'_, f32>) -> u64 {
    if let Some(s) = v.as_col_major_slice() {
        return fingerprint_f32(s);
    }
    fingerprint_view_with(v, |x| x.to_bits() as u64)
}

/// Cache identity of one prepared operand (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OperandKey {
    ptr: usize,
    len: usize,
    rows: usize,
    cols: usize,
    /// Leading dimension of the source view (`rows` for dense operands) —
    /// two windows of one parent buffer sharing a base pointer but read
    /// at different strides must not collide.
    ld: usize,
    /// Whether the source view stores elements row-major (a zero-copy
    /// transpose): same buffer, other layout ⇒ different operand.
    row_major: bool,
    side: OperandSide,
    n_moduli: usize,
    mode: Mode,
    b64: bool,
    fingerprint: u64,
}

impl OperandKey {
    /// Key for an f64 operand slice with logical shape `rows x cols`.
    pub fn f64(
        data: &[f64],
        rows: usize,
        cols: usize,
        side: OperandSide,
        n_moduli: usize,
        mode: Mode,
    ) -> Self {
        Self {
            ptr: data.as_ptr() as usize,
            len: data.len(),
            rows,
            cols,
            ld: rows,
            row_major: false,
            side,
            n_moduli,
            mode,
            b64: true,
            fingerprint: fingerprint_f64(data),
        }
    }

    /// Key for a (possibly `ld`-strided, either-layout) operand view of
    /// either precision.
    pub fn view<T: Element>(
        v: &MatView<'_, T>,
        side: OperandSide,
        n_moduli: usize,
        mode: Mode,
    ) -> Self {
        let (rows, cols) = v.shape();
        let (ld, layout) = (v.ld(), v.layout());
        let fingerprint = match T::elem_slice(v.data()) {
            ElemSlice::F64(d) => fingerprint_view_f64(&MatView::new(d, rows, cols, ld, layout)),
            ElemSlice::F32(d) => fingerprint_view_f32(&MatView::new(d, rows, cols, ld, layout)),
        };
        Self {
            ptr: v.data().as_ptr() as usize,
            len: v.min_len(),
            rows,
            cols,
            ld,
            row_major: layout == gemm_dense::Layout::RowMajor,
            side,
            n_moduli,
            mode,
            b64: T::IS_F64,
            fingerprint,
        }
    }

    /// Key for an f32 operand slice (SGEMM precision).
    pub fn f32(
        data: &[f32],
        rows: usize,
        cols: usize,
        side: OperandSide,
        n_moduli: usize,
        mode: Mode,
    ) -> Self {
        Self {
            ptr: data.as_ptr() as usize,
            len: data.len(),
            rows,
            cols,
            ld: rows,
            row_major: false,
            side,
            n_moduli,
            mode,
            b64: false,
            fingerprint: fingerprint_f32(data),
        }
    }
}

/// Lock shard count. Keys map to shards by identity hash, so concurrent
/// tenants of a batched call (distinct operands) lock distinct shards
/// instead of serialising on one cache-wide mutex.
const CACHE_SHARDS: usize = 8;

/// One lock shard: entries stamped with a global recency clock, plus its
/// slice of the probation queue.
struct CacheShard {
    /// `(key, preparation, last-used stamp)` — unordered; recency lives
    /// in the stamp, not the position.
    entries: Mutex<Vec<(OperandKey, Arc<PreparedOperand>, u64)>>,
    /// Recently missed keys (no values) — see [`OperandCache::repeat_miss`].
    probation: Mutex<VecDeque<OperandKey>>,
}

/// LRU cache mapping [`OperandKey`]s to shared [`PreparedOperand`]s.
/// Entries are `Arc`s, so an eviction never invalidates an execution in
/// flight. All methods take `&self`; the cache is internally locked —
/// **sharded** by key hash, so concurrent lookups of distinct operands do
/// not contend. Recency is tracked with a global monotonic clock stamped
/// on every hit or insert; eviction removes the globally oldest stamp
/// across all shards, so LRU semantics are identical to a single-lock
/// cache (only the lock granularity changed).
pub struct OperandCache {
    shards: [CacheShard; CACHE_SHARDS],
    capacity: usize,
    /// Total retained entries across shards.
    len: AtomicUsize,
    /// Monotonic recency clock; higher stamp = more recently used.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl OperandKey {
    /// Shard index: identity hash over the fields that distinguish
    /// operands cheaply (pointer, length, fingerprint).
    fn shard(&self) -> usize {
        let mut h = mix(0xcbf2_9ce4_8422_2325, self.ptr as u64);
        h = mix(h, self.len as u64);
        h = mix(h, self.fingerprint);
        (h % CACHE_SHARDS as u64) as usize
    }
}

impl OperandCache {
    /// Cache retaining up to `capacity` preparations.
    pub fn new(capacity: usize) -> Self {
        Self {
            shards: std::array::from_fn(|_| CacheShard {
                entries: Mutex::new(Vec::new()),
                probation: Mutex::new(VecDeque::new()),
            }),
            capacity,
            len: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Next recency stamp.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// A shard's entries, recovering from lock poisoning (cache code
    /// never panics mid-mutation; poisoning can only come from a caller
    /// panicking elsewhere while the process unwinds test threads).
    fn entries(
        &self,
        s: usize,
    ) -> std::sync::MutexGuard<'_, Vec<(OperandKey, Arc<PreparedOperand>, u64)>> {
        self.shards[s]
            .entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Maximum retained preparations.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current retained preparations (all shards).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that returned a cached preparation.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Summed heap footprint of the retained preparations in bytes.
    pub fn bytes(&self) -> usize {
        (0..CACHE_SHARDS)
            .map(|s| {
                self.entries(s)
                    .iter()
                    .map(|(_, p, _)| p.bytes())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Look up a preparation, refreshing its recency on hit.
    pub fn get(&self, key: &OperandKey) -> Option<Arc<PreparedOperand>> {
        let stamp = self.tick();
        let mut entries = self.entries(key.shard());
        if let Some(entry) = entries.iter_mut().find(|(k, _, _)| k == key) {
            entry.2 = stamp;
            let hit = entry.1.clone();
            drop(entries);
            self.hits.fetch_add(1, Ordering::Relaxed);
            gemm_obs::catalog::CACHE_HITS.inc();
            Some(hit)
        } else {
            drop(entries);
            self.misses.fetch_add(1, Ordering::Relaxed);
            gemm_obs::catalog::CACHE_MISSES.inc();
            None
        }
    }

    /// Insert (or refresh) a preparation, evicting the least recently
    /// used entries beyond capacity (globally — across all shards).
    pub fn insert(&self, key: OperandKey, value: Arc<PreparedOperand>) {
        if self.capacity == 0 {
            return;
        }
        let stamp = self.tick();
        {
            let mut entries = self.entries(key.shard());
            if let Some(entry) = entries.iter_mut().find(|(k, _, _)| *k == key) {
                entry.1 = value;
                entry.2 = stamp;
                return;
            }
            entries.push((key, value, stamp));
        }
        self.len.fetch_add(1, Ordering::Relaxed);
        while self.len.load(Ordering::Relaxed) > self.capacity {
            if !self.evict_oldest() {
                break;
            }
        }
    }

    /// Remove the entry with the globally smallest recency stamp. Locks
    /// one shard at a time (min scan, then targeted removal), so it can
    /// race another thread for the same victim; a vanished victim just
    /// means someone else evicted it, which is progress too.
    fn evict_oldest(&self) -> bool {
        let mut victim: Option<(usize, u64)> = None;
        for s in 0..CACHE_SHARDS {
            for (_, _, stamp) in self.entries(s).iter() {
                if victim.map(|(_, best)| *stamp < best).unwrap_or(true) {
                    victim = Some((s, *stamp));
                }
            }
        }
        let Some((s, stamp)) = victim else {
            return false; // nothing retained anywhere
        };
        let mut entries = self.entries(s);
        if let Some(pos) = entries.iter().position(|(_, _, st)| *st == stamp) {
            entries.remove(pos);
            drop(entries);
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        true
    }

    /// Record a miss for a *lone* operand (not shared within its call)
    /// and report whether the same key missed recently before — i.e. the
    /// operand is repeating across calls, so preparing and retaining it
    /// will pay off. First sightings return `false` (the caller should
    /// run the cheaper view/pooled-workspace path instead of allocating
    /// panels that may never be reused); a repeat sighting returns `true`
    /// and leaves probation.
    pub fn repeat_miss(&self, key: &OperandKey) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let mut probation = self.shards[key.shard()]
            .probation
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(pos) = probation.iter().position(|k| k == key) {
            probation.remove(pos);
            true
        } else {
            probation.push_front(key.clone());
            // Per-shard bound; keys are ~200 bytes, so even the summed
            // worst case stays trivial next to one retained preparation.
            probation.truncate(2 * self.capacity);
            false
        }
    }

    /// Drop every retained preparation (use after mutating a cached
    /// operand in place).
    pub fn clear(&self) {
        for s in 0..CACHE_SHARDS {
            let removed = {
                let mut entries = self.entries(s);
                let n = entries.len();
                entries.clear();
                n
            };
            self.len.fetch_sub(removed, Ordering::Relaxed);
            self.shards[s]
                .probation
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemm_dense::workload::phi_matrix_f64;
    use ozaki2::Ozaki2;

    fn prep(seed: u64) -> (Vec<f64>, Arc<PreparedOperand>) {
        let b = phi_matrix_f64(8, 6, 0.5, seed, 1);
        let p = Ozaki2::new(8, Mode::Fast)
            .prepare(OperandSide::B, &b)
            .unwrap();
        (b.into_vec(), Arc::new(p))
    }

    #[test]
    fn lru_evicts_oldest_and_refreshes_on_hit() {
        let cache = OperandCache::new(2);
        let (d1, p1) = prep(1);
        let (d2, p2) = prep(2);
        let (d3, p3) = prep(3);
        let key = |d: &[f64]| OperandKey::f64(d, 8, 6, OperandSide::B, 8, Mode::Fast);
        cache.insert(key(&d1), p1);
        cache.insert(key(&d2), p2);
        assert!(cache.get(&key(&d1)).is_some()); // refresh 1 → MRU
        cache.insert(key(&d3), p3); // evicts 2 (LRU), not 1
        assert!(cache.get(&key(&d1)).is_some());
        assert!(cache.get(&key(&d2)).is_none());
        assert!(cache.get(&key(&d3)).is_some());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.misses(), 1);
        assert!(cache.bytes() > 0);
    }

    #[test]
    fn fingerprint_guards_against_stale_content() {
        // Same pointer, same shape, mutated content: the full-content
        // fingerprint must differ — for a mutation of ANY single element
        // — so the lookup misses instead of serving stale panels.
        let cache = OperandCache::new(4);
        let (d0, p) = prep(4);
        for idx in 0..d0.len() {
            let mut d = d0.clone();
            let k1 = OperandKey::f64(&d, 8, 6, OperandSide::B, 8, Mode::Fast);
            cache.insert(k1.clone(), p.clone());
            d[idx] += 1.0;
            let k2 = OperandKey::f64(&d, 8, 6, OperandSide::B, 8, Mode::Fast);
            assert_ne!(k1, k2, "mutation at {idx} must change the key");
        }
    }

    #[test]
    fn repeat_miss_promotes_on_second_sighting() {
        let cache = OperandCache::new(4);
        let (d, _) = prep(6);
        let k = OperandKey::f64(&d, 8, 6, OperandSide::B, 8, Mode::Fast);
        assert!(!cache.repeat_miss(&k), "first sighting stays a view");
        assert!(cache.repeat_miss(&k), "second sighting promotes");
        // Leaving probation: a third miss starts over.
        assert!(!cache.repeat_miss(&k));
        // Zero capacity never promotes.
        let none = OperandCache::new(0);
        assert!(!none.repeat_miss(&k));
        assert!(!none.repeat_miss(&k));
    }

    #[test]
    fn key_separates_sides_and_configs() {
        let d = vec![1.0f64; 48];
        let base = OperandKey::f64(&d, 8, 6, OperandSide::B, 8, Mode::Fast);
        assert_ne!(
            base,
            OperandKey::f64(&d, 8, 6, OperandSide::A, 8, Mode::Fast)
        );
        assert_ne!(
            base,
            OperandKey::f64(&d, 8, 6, OperandSide::B, 9, Mode::Fast)
        );
        assert_ne!(
            base,
            OperandKey::f64(&d, 6, 8, OperandSide::B, 8, Mode::Fast)
        );
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let cache = OperandCache::new(0);
        let (d, p) = prep(5);
        let k = OperandKey::f64(&d, 8, 6, OperandSide::B, 8, Mode::Fast);
        cache.insert(k.clone(), p);
        assert!(cache.get(&k).is_none());
        assert!(cache.is_empty());
    }
}
