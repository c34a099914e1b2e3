//! A small LRU cache of [`PreparedOperand`]s keyed on operand identity.
//!
//! The batched runtime amortizes Algorithm 1's front end (lines 1–5) by
//! caching the prepared panels of operands that repeat — within one
//! batched call (a broadcast/stride-0 operand, a matrix referenced by
//! several group items) and **across** calls (the weight matrix of a
//! serving loop). Identity combines the operand's data pointer, length,
//! shape and pipeline configuration `(N, precision)`, guarded by a
//! **full-content** fingerprint: a buffer that is freed and
//! coincidentally reallocated at the same address, or mutated in place —
//! even at a single element — changes the key, so stale panels can never
//! be served. Hashing every element costs one streaming pass over the
//! operand per lookup, far below the cost of the `N`-moduli preparation
//! it guards (and paid once per *call* for a shared operand, not per
//! item).
//!
//! The whole cache sits behind **one** lock. Every lookup runs on the
//! thread that resolves a batched call's operands, before the call's
//! items start (in serving, the one dispatcher thread), so the lock is
//! uncontended.

use gemm_dense::MatView;
use ozaki2::{Element, OperandSide, PreparedOperand};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Mix one 64-bit word into an FNV-1a style running hash.
#[inline]
fn mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Full-content fingerprint of the **logical** elements of a view, in
/// column-major order: four round-robin FNV lanes (breaking the multiply
/// latency chain) folded together with the element count. Inter-column
/// gap elements belong to neighbouring items and are excluded, so their
/// mutation cannot fault an unrelated entry. A contiguous column-major
/// view hashes its slice directly; any other view walks its elements
/// with plain nested loops (no per-element div/mod) — both feed the
/// lanes identically.
fn fingerprint<T: Element>(v: &MatView<'_, T>) -> u64 {
    // f32 → f64 widening is exact, so one word per element serves both
    // precisions.
    let word = |x: T| x.to_f64().to_bits();
    let mut lanes = [
        0xcbf2_9ce4_8422_2325u64,
        0x9e37_79b9_7f4a_7c15,
        0xc2b2_ae3d_27d4_eb4f,
        0x1656_67b1_9e37_79f9,
    ];
    let len = v.rows() * v.cols();
    if let Some(s) = v.as_col_major_slice() {
        let quads = s.chunks_exact(4);
        let tail = quads.remainder();
        for q in quads {
            for (lane, &x) in lanes.iter_mut().zip(q) {
                *lane = mix(*lane, word(x));
            }
        }
        for (lane, &x) in lanes.iter_mut().zip(tail) {
            *lane = mix(*lane, word(x));
        }
    } else {
        let mut idx = 0usize;
        for j in 0..v.cols() {
            for i in 0..v.rows() {
                lanes[idx & 3] = mix(lanes[idx & 3], word(v.get(i, j)));
                idx += 1;
            }
        }
    }
    let mut h = mix(lanes[0], len as u64);
    h = mix(h, lanes[1]);
    h = mix(h, lanes[2]);
    mix(h, lanes[3])
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
    b64: bool,
    fingerprint: u64,
}

impl OperandKey {
    /// Key for a (possibly `ld`-strided, either-layout) operand view of
    /// either precision; a dense matrix passes `mat.view()`. Only
    /// fast-mode operands can be prepared, so the mode is not part of it.
    pub fn view<T: Element>(v: &MatView<'_, T>, side: OperandSide, n_moduli: usize) -> Self {
        let (rows, cols) = v.shape();
        Self {
            ptr: v.data().as_ptr() as usize,
            len: v.min_len(),
            rows,
            cols,
            ld: v.ld(),
            row_major: v.layout() == gemm_dense::Layout::RowMajor,
            side,
            n_moduli,
            b64: T::IS_F64,
            fingerprint: fingerprint(v),
        }
    }
}

/// Probation keys retained per unit of capacity: the bound of
/// [`OperandCache::repeat_miss`]'s list is `PROBATION_PER_ENTRY ·
/// capacity` keys (~200 bytes each — trivial next to one retained
/// preparation).
const PROBATION_PER_ENTRY: usize = 16;

/// Everything the one lock guards.
#[derive(Default)]
struct Lru {
    /// Retained preparations, most recently used first.
    entries: VecDeque<(OperandKey, Arc<PreparedOperand>)>,
    /// Recently missed keys (no values), newest first — see
    /// [`OperandCache::repeat_miss`].
    probation: VecDeque<OperandKey>,
    hits: u64,
    misses: u64,
}

/// LRU cache mapping [`OperandKey`]s to shared [`PreparedOperand`]s.
/// Entries are `Arc`s, so an eviction never invalidates an execution in
/// flight. All methods take `&self`; the cache is internally locked by
/// one mutex over the recency-ordered entries and the probation list.
pub struct OperandCache {
    lru: Mutex<Lru>,
    capacity: usize,
}

impl OperandCache {
    /// Cache retaining up to `capacity` preparations.
    pub fn new(capacity: usize) -> Self {
        Self {
            lru: Mutex::new(Lru::default()),
            capacity,
        }
    }

    /// The cache state, recovering from lock poisoning (cache code never
    /// panics mid-mutation; poisoning can only come from a caller
    /// panicking elsewhere while the process unwinds test threads).
    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.lru.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Maximum retained preparations.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current retained preparations.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that returned a cached preparation.
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }

    /// Summed heap footprint of the retained preparations in bytes.
    pub fn bytes(&self) -> usize {
        self.lock().entries.iter().map(|(_, p)| p.bytes()).sum()
    }

    /// Look up a preparation, refreshing its recency on hit.
    pub fn get(&self, key: &OperandKey) -> Option<Arc<PreparedOperand>> {
        let mut lru = self.lock();
        match lru.entries.iter().position(|(k, _)| k == key) {
            Some(pos) => {
                let entry = lru.entries.remove(pos).expect("position is in range");
                let hit = entry.1.clone();
                lru.entries.push_front(entry);
                lru.hits += 1;
                drop(lru);
                gemm_obs::catalog::CACHE_HITS.inc();
                Some(hit)
            }
            None => {
                lru.misses += 1;
                drop(lru);
                gemm_obs::catalog::CACHE_MISSES.inc();
                None
            }
        }
    }

    /// Insert (or refresh) a preparation, evicting the least recently
    /// used entries beyond capacity.
    pub fn insert(&self, key: OperandKey, value: Arc<PreparedOperand>) {
        if self.capacity == 0 {
            return;
        }
        let mut lru = self.lock();
        if let Some(pos) = lru.entries.iter().position(|(k, _)| *k == key) {
            lru.entries.remove(pos);
        }
        lru.entries.push_front((key, value));
        lru.entries.truncate(self.capacity);
    }

    /// Record a miss for a *lone* operand (not shared within its call)
    /// and report whether the same key missed recently before — i.e. the
    /// operand is repeating across calls, so preparing and retaining it
    /// will pay off. First sightings return `false` (the caller should
    /// run the cheaper view/pooled-workspace path instead of allocating
    /// panels that may never be reused); a repeat sighting returns `true`
    /// and leaves probation. "Recently" means within the last
    /// `16 · capacity` distinct first sightings.
    pub fn repeat_miss(&self, key: &OperandKey) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let probation = &mut self.lock().probation;
        if let Some(pos) = probation.iter().position(|k| k == key) {
            probation.remove(pos);
            true
        } else {
            probation.push_front(key.clone());
            probation.truncate(PROBATION_PER_ENTRY * self.capacity);
            false
        }
    }

    /// Drop every retained preparation and probation key (use after
    /// mutating a cached operand in place).
    pub fn clear(&self) {
        let mut lru = self.lock();
        lru.entries.clear();
        lru.probation.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemm_dense::workload::{phi_matrix_f32, phi_matrix_f64};
    use gemm_dense::Layout;
    use ozaki2::{Mode, Ozaki2};

    fn prep(seed: u64) -> (Vec<f64>, Arc<PreparedOperand>) {
        let b = phi_matrix_f64(8, 6, 0.5, seed, 1);
        let p = Ozaki2::new(8, Mode::Fast)
            .prepare(OperandSide::B, &b)
            .unwrap();
        (b.into_vec(), Arc::new(p))
    }

    /// Key of a dense column-major `rows x cols` buffer.
    fn key_of<T: Element>(
        d: &[T],
        rows: usize,
        cols: usize,
        side: OperandSide,
        n: usize,
    ) -> OperandKey {
        let v = MatView::new(d, rows, cols, rows, Layout::ColMajor);
        OperandKey::view(&v, side, n)
    }

    #[test]
    fn lru_evicts_oldest_and_refreshes_on_hit() {
        let cache = OperandCache::new(2);
        let (d1, p1) = prep(1);
        let (d2, p2) = prep(2);
        let (d3, p3) = prep(3);
        let key = |d: &[f64]| key_of(d, 8, 6, OperandSide::B, 8);
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

    /// Same pointer, same shape, mutated content: the full-content
    /// fingerprint must differ — for a mutation of ANY single element —
    /// so the lookup misses instead of serving stale panels.
    fn assert_every_element_guarded<T: Element>(d0: &[T], bump: impl Fn(T) -> T) {
        let cache = OperandCache::new(4);
        let (_, p) = prep(4);
        for idx in 0..d0.len() {
            let mut d = d0.to_vec();
            let k1 = key_of(&d, 8, 6, OperandSide::B, 8);
            cache.insert(k1.clone(), p.clone());
            d[idx] = bump(d[idx]);
            let k2 = key_of(&d, 8, 6, OperandSide::B, 8);
            assert_ne!(k1, k2, "mutation at {idx} must change the key");
        }
    }

    #[test]
    fn fingerprint_guards_against_stale_content() {
        let d64 = phi_matrix_f64(8, 6, 0.5, 4, 1).into_vec();
        assert_every_element_guarded(&d64, |x| x + 1.0);
        let d32 = phi_matrix_f32(8, 6, 0.5, 4, 1).into_vec();
        assert_every_element_guarded(&d32, |x| x + 1.0);
    }

    /// A padded-`ld` view hashes only its logical elements: a gap element
    /// (owned by a neighbour) leaves the key alone, a logical one changes
    /// it.
    #[test]
    fn strided_key_ignores_gap_elements() {
        let (rows, cols, ld) = (5, 4, 7);
        let mut d: Vec<f64> = (0..ld * cols).map(|i| i as f64 * 0.25).collect();
        let key = |d: &[f64]| {
            let v = MatView::new(
                &d[..(cols - 1) * ld + rows],
                rows,
                cols,
                ld,
                Layout::ColMajor,
            );
            OperandKey::view(&v, OperandSide::A, 8)
        };
        let k0 = key(&d);
        d[ld + rows] = f64::NAN; // column 1, row 5: inside the gap
        assert_eq!(key(&d), k0, "gap mutation must not change the key");
        d[2 * ld + 3] += 1.0; // element (3, 2)
        assert_ne!(key(&d), k0, "logical mutation must change the key");
    }

    /// `mat.view()` of a dense matrix keys exactly like an explicit
    /// column-major view over its buffer with `ld = rows`.
    #[test]
    fn dense_view_key_matches_explicit_view() {
        let m = phi_matrix_f64(8, 6, 0.5, 9, 0);
        let explicit = key_of(m.as_slice(), 8, 6, OperandSide::B, 8);
        assert_eq!(OperandKey::view(&m.view(), OperandSide::B, 8), explicit);
        let m32 = phi_matrix_f32(8, 6, 0.5, 9, 0);
        let explicit32 = key_of(m32.as_slice(), 8, 6, OperandSide::B, 8);
        assert_eq!(OperandKey::view(&m32.view(), OperandSide::B, 8), explicit32);
        assert_ne!(explicit, explicit32, "precision is part of the key");
    }

    #[test]
    fn repeat_miss_promotes_on_second_sighting() {
        let cache = OperandCache::new(4);
        let (d, _) = prep(6);
        let k = key_of(&d, 8, 6, OperandSide::B, 8);
        assert!(!cache.repeat_miss(&k), "first sighting stays a view");
        assert!(cache.repeat_miss(&k), "second sighting promotes");
        // Leaving probation: a third miss starts over.
        assert!(!cache.repeat_miss(&k));
        // Zero capacity never promotes.
        let none = OperandCache::new(0);
        assert!(!none.repeat_miss(&k));
        assert!(!none.repeat_miss(&k));
    }

    /// Probation remembers the last `16 · capacity` first sightings: a key
    /// still promotes after `16 · capacity − 1` newer distinct misses and
    /// no longer after `16 · capacity`.
    #[test]
    fn probation_holds_sixteen_keys_per_entry() {
        let capacity = 3;
        let bound = PROBATION_PER_ENTRY * capacity;
        assert_eq!(bound, 16 * capacity);
        let (d, _) = prep(7);
        let k = key_of(&d, 8, 6, OperandSide::B, 8);
        // Distinct keys over one buffer: only N differs.
        let other = |i: usize| key_of(&d, 8, 6, OperandSide::B, 100 + i);
        for (newer, promotes) in [(bound - 1, true), (bound, false)] {
            let cache = OperandCache::new(capacity);
            assert!(!cache.repeat_miss(&k));
            for i in 0..newer {
                assert!(!cache.repeat_miss(&other(i)));
            }
            assert_eq!(cache.repeat_miss(&k), promotes, "{newer} newer misses");
        }
    }

    #[test]
    fn key_separates_sides_and_configs() {
        let d = vec![1.0f64; 48];
        let base = key_of(&d, 8, 6, OperandSide::B, 8);
        assert_ne!(base, key_of(&d, 8, 6, OperandSide::A, 8));
        assert_ne!(base, key_of(&d, 8, 6, OperandSide::B, 9));
        assert_ne!(base, key_of(&d, 6, 8, OperandSide::B, 8));
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let cache = OperandCache::new(0);
        let (d, p) = prep(5);
        let k = key_of(&d, 8, 6, OperandSide::B, 8);
        cache.insert(k.clone(), p);
        assert!(cache.get(&k).is_none());
        assert!(cache.is_empty());
    }
}
