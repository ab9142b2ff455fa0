//! The Oracle's LRU caches: a plain single-stripe map and the sharded,
//! lock-striped concurrent cache built from it.
//!
//! The value of a *lightweight* auto-tuner comes from amortisation: a
//! service that tunes a stream of matrices pays feature extraction and
//! model evaluation per request unless repeated structures are recognised.
//! The cache maps a fingerprint of (matrix structure, scalar width, engine,
//! operation) to the decision made the first time, so structurally
//! identical requests skip the whole tuning stage.
//!
//! [`LruMap`] is the one mechanism under every cache in this crate — it
//! holds slots and recency, nothing else. [`ShardedLru`] stripes keys over
//! independently locked `LruMap` shards and owns the hit/miss accounting in
//! atomics, so concurrent clients contend only when they hash to the same
//! stripe, and `stats()` never blocks on the stripes for its counters. The
//! decision cache of an [`OracleService`](crate::OracleService) and its
//! table of re-tune aliases are `ShardedLru`s; an execution plan lives in
//! the decision entry it was built for.

use morpheus_machine::Op;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Key identifying one tuning question.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// [`morpheus::DynamicMatrix::structure_hash`] of the matrix in its
    /// active format.
    pub structure: u64,
    /// `size_of::<V>()` — the scalar width changes HYB splits and traffic.
    pub scalar_bytes: usize,
    /// Fingerprint of the engine the decision was made for.
    pub engine: u64,
    /// The operation tuned for.
    pub op: Op,
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    last_used: u64,
}

/// Bounded least-recently-used map: one stripe of the sharded cache.
///
/// Eviction scans for the oldest slot — O(len), which is irrelevant next
/// to the work a hit saves, and keeps the structure a plain `HashMap` with
/// no unsafe list splicing. Capacity 0 disables the map entirely (no
/// storage). Hit/miss accounting deliberately lives *outside* this type
/// (in [`ShardedLru`]'s atomics), so a stripe lock is held only for the
/// probe itself.
pub(crate) struct LruMap<K, V> {
    capacity: usize,
    slots: HashMap<K, Slot<V>>,
    tick: u64,
}

impl<K: std::fmt::Debug, V> std::fmt::Debug for LruMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LruMap").field("capacity", &self.capacity).field("len", &self.slots.len()).finish()
    }
}

impl<K: Copy + Eq + Hash, V> LruMap<K, V> {
    pub fn new(capacity: usize) -> Self {
        LruMap { capacity, slots: HashMap::new(), tick: 0 }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Looks up `key`, treating the slot as present only when `valid`
    /// accepts it; refreshes recency on a hit. Always misses when disabled.
    pub fn get_if(&mut self, key: &K, valid: impl FnOnce(&V) -> bool) -> Option<&mut V> {
        if self.capacity == 0 {
            return None;
        }
        self.tick += 1;
        match self.slots.get_mut(key) {
            Some(slot) if valid(&slot.value) => {
                slot.last_used = self.tick;
                Some(&mut slot.value)
            }
            _ => None,
        }
    }

    /// Stores a value, evicting the least-recently-used slot at capacity.
    /// No-op when disabled.
    ///
    /// One entry-style pass: occupied keys are overwritten in place and
    /// vacant keys inserted through the same `Entry`, so the key is hashed
    /// exactly once (the old remove-then-push formulation hashed twice).
    /// The eviction scan runs only when the insert pushed the map over
    /// capacity, and can never pick the entry just inserted (its
    /// `last_used` is the newest tick, and ticks are strictly increasing).
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        match self.slots.entry(key) {
            Entry::Occupied(mut e) => {
                let slot = e.get_mut();
                slot.value = value;
                slot.last_used = tick;
            }
            Entry::Vacant(e) => {
                e.insert(Slot { value, last_used: tick });
            }
        }
        if self.slots.len() > self.capacity {
            if let Some(oldest) = self.slots.iter().min_by_key(|(_, s)| s.last_used).map(|(k, _)| *k) {
                self.slots.remove(&oldest);
            }
        }
    }

    /// `true` when `key` is held.
    pub fn contains(&self, key: &K) -> bool {
        self.slots.contains_key(key)
    }

    /// Drops every slot.
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Visits every held entry (arbitrary order, no recency refresh).
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for (k, slot) in &self.slots {
            f(k, &slot.value);
        }
    }
}

/// Hit/miss counters and occupancy of an [`crate::OracleService`]'s cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from cache.
    pub hits: u64,
    /// Lookups that fell through to the tuner.
    pub misses: u64,
    /// Decisions currently held.
    pub len: usize,
    /// Maximum decisions held (0 = caching disabled).
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups served from cache (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Stripes of a service's caches: a small power of two comfortably above
/// typical client-thread counts.
pub(crate) const DEFAULT_SHARDS: usize = 16;

/// Fewest entries a stripe may be sized for: striping a small cache thin
/// would let one clustered stripe evict entries while the cache as a whole
/// is far from full (per-stripe LRU is only an approximation of global
/// LRU). See [`ShardedLru::new`].
pub(crate) const MIN_STRIPE_CAPACITY: usize = 16;

/// Sharded, lock-striped concurrent LRU: stripes of [`LruMap`], each
/// behind its own `parking_lot::Mutex`, with hit/miss counters aggregated
/// atomically *outside* the stripe locks.
///
/// Keys are striped by hash, so concurrent clients contend only when they
/// touch the same stripe — and then only for the duration of one `HashMap`
/// probe. Lookups clone the value out (`V: Clone`; the cached value is a
/// `Copy` decision beside an `Arc`, so cloning is cheap) rather than
/// holding a lock across use, which is what lets the service layer expose
/// `&self` tuning from any number of threads.
///
/// Counters use one atomic add per lookup (`Relaxed`: counts must not be
/// lost, but need not order against anything), so `stats()` never takes a
/// stripe lock for the hit/miss totals; only `len` is gathered under the
/// locks.
pub(crate) struct ShardedLru<K, V> {
    shards: Box<[Mutex<LruMap<K, V>>]>,
    hits: AtomicU64,
    misses: AtomicU64,
    capacity: usize,
    /// Bumped by every [`ShardedLru::clear`]; lets
    /// [`ShardedLru::insert_if_generation`] reject inserts computed from
    /// state that a clear has since invalidated (e.g. a tuning decision
    /// made by a model that was hot-swapped out mid-flight).
    generation: AtomicU64,
}

impl<K: std::fmt::Debug, V> std::fmt::Debug for ShardedLru<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLru")
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl<K: Copy + Eq + Hash, V: Clone> ShardedLru<K, V> {
    /// Cache holding up to `capacity` entries in total, striped over at
    /// most `shards` locks (capacity 0 disables the cache). Stripe
    /// capacities sum to exactly `capacity` (the first `capacity % stripes`
    /// stripes hold one extra slot), so `stats().len` can never exceed
    /// `stats().capacity`.
    ///
    /// Eviction is per stripe, so a stripe that keys cluster into can
    /// evict while others sit empty. To keep that approximation harmless,
    /// the stripe count is capped so every stripe holds at least
    /// [`MIN_STRIPE_CAPACITY`] entries — small caches degrade gracefully
    /// to one stripe with exact LRU order, large caches get the full
    /// stripe count for concurrency.
    pub fn new(capacity: usize, shards: usize) -> Self {
        // Floor division: only as many stripes as can each hold a full
        // MIN_STRIPE_CAPACITY (ceil would allow an under-sized stripe,
        // e.g. capacity 20 over 2 stripes of 10).
        let shards = match capacity {
            0 => shards.max(1),
            c => shards.max(1).min((c / MIN_STRIPE_CAPACITY).max(1)),
        };
        let (base, extra) = (capacity / shards, capacity % shards);
        debug_assert!(capacity == 0 || shards == 1 || base >= MIN_STRIPE_CAPACITY);
        ShardedLru {
            shards: (0..shards).map(|i| Mutex::new(LruMap::new(base + usize::from(i < extra)))).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capacity,
            generation: AtomicU64::new(0),
        }
    }

    /// Total requested capacity (0 = caching disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn shard_of(&self, key: &K) -> &Mutex<LruMap<K, V>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Looks up `key` in its stripe (refreshing its recency), cloning the
    /// value out so no lock is held after return. Always misses when
    /// disabled. Counts nothing: a lookup may be one question put to more
    /// than one table, so its caller [`count`](ShardedLru::count)s the
    /// answer, once.
    pub fn probe(&self, key: &K) -> Option<V> {
        if self.capacity == 0 {
            return None;
        }
        self.shard_of(key).lock().get_if(key, |_| true).map(|v| v.clone())
    }

    /// Counts one lookup as a hit or a miss (nothing when disabled).
    pub fn count(&self, hit: bool) {
        if self.capacity > 0 {
            let counter = if hit { &self.hits } else { &self.misses };
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The current clear-generation; read it *before* computing a value
    /// whose validity a concurrent [`ShardedLru::clear`] would revoke, and
    /// pass it to [`ShardedLru::insert_if_generation`].
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Stores a value in the key's stripe, evicting that stripe's
    /// least-recently-used entry at capacity (no-op when disabled) — but
    /// only if no [`ShardedLru::clear`] has happened since `observed` was
    /// read — checked *under the stripe
    /// lock*, so an insert racing a clear either lands before it (and is
    /// cleared with everything else) or is rejected — and, unless `replace`,
    /// only if the key is not held already. Returns whether the value was
    /// stored.
    pub fn insert_if_generation(&self, key: K, value: V, observed: u64, replace: bool) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let mut shard = self.shard_of(&key).lock();
        if self.generation.load(Ordering::Acquire) != observed || (!replace && shard.contains(&key)) {
            return false;
        }
        shard.insert(key, value);
        true
    }

    /// Drops every entry in every stripe, keeping the counters. The
    /// generation is bumped *before* the stripes are swept, so any
    /// concurrent [`ShardedLru::insert_if_generation`] that read the old
    /// generation either inserted before its stripe was swept (entry
    /// removed here) or will observe the bump and drop its value.
    pub fn clear(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
        for shard in self.shards.iter() {
            shard.lock().clear();
        }
    }

    /// Visits every held entry, stripe by stripe (arbitrary order; a
    /// stripe's lock is held only while its own entries are visited, and
    /// empty stripes are skipped without calling out).
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for shard in self.shards.iter() {
            let guard = shard.lock();
            if !guard.is_empty() {
                guard.for_each(&mut f);
            }
        }
    }

    /// Atomically aggregated counters plus current occupancy. Hits and
    /// misses come from the lock-free aggregate counters; `len` sums the
    /// stripes under their locks (each stripe internally consistent).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            len: self.shards.iter().map(|s| s.lock().len()).sum(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::{TuneDecision, TuningCost};
    use morpheus::format::FormatId;

    fn key(structure: u64) -> CacheKey {
        CacheKey { structure, scalar_bytes: 8, engine: 1, op: Op::Spmv }
    }

    fn decision(fmt: FormatId) -> TuneDecision {
        TuneDecision {
            format: fmt,
            params: morpheus::FormatParams::default(),
            op: Op::Spmv,
            cost: TuningCost::default(),
        }
    }

    // ---------------- LruMap (one stripe) ----------------

    #[test]
    fn lru_evicts_oldest() {
        let mut m: LruMap<u64, u32> = LruMap::new(2);
        m.insert(1, 10);
        m.insert(2, 20);
        let _ = m.get_if(&1, |_| true); // refresh 1; 2 becomes oldest
        m.insert(3, 30);
        assert!(m.get_if(&1, |_| true).is_some());
        assert!(m.get_if(&2, |_| true).is_none(), "LRU entry must be evicted");
        assert!(m.get_if(&3, |_| true).is_some());
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn insert_overwrites_in_place_without_eviction() {
        let mut m: LruMap<u64, u32> = LruMap::new(2);
        m.insert(1, 10);
        m.insert(2, 20);
        // Overwriting an occupied key at capacity must not evict anything.
        m.insert(1, 11);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get_if(&1, |_| true).copied(), Some(11));
        assert_eq!(m.get_if(&2, |_| true).copied(), Some(20));
    }

    #[test]
    fn insert_never_evicts_itself() {
        let mut m: LruMap<u64, u32> = LruMap::new(1);
        for i in 0..10u64 {
            m.insert(i, i as u32);
            assert_eq!(m.len(), 1);
            assert_eq!(
                m.get_if(&i, |_| true).copied(),
                Some(i as u32),
                "newest entry must survive its own insert"
            );
        }
    }

    #[test]
    fn len_and_is_empty_track_contents() {
        let mut m: LruMap<u64, u32> = LruMap::new(4);
        assert!(m.is_empty());
        m.insert(1, 1);
        m.insert(2, 2);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn zero_capacity_stripe_stores_nothing() {
        let mut m: LruMap<u64, u32> = LruMap::new(0);
        m.insert(1, 1);
        assert!(m.is_empty());
        assert_eq!(m.get_if(&1, |_| true), None);
    }

    #[test]
    fn validity_predicate_gates_stripe_hits() {
        let mut m: LruMap<u64, u32> = LruMap::new(4);
        m.insert(5, 50);
        assert_eq!(m.get_if(&5, |v| *v > 100), None);
        assert_eq!(m.get_if(&5, |v| *v == 50).copied(), Some(50));
    }

    // ---------------- ShardedLru ----------------

    /// One counted lookup, as the service makes it.
    fn put<K: Copy + Eq + Hash, V: Clone>(c: &ShardedLru<K, V>, key: K, value: V) {
        c.insert_if_generation(key, value, c.generation(), true);
    }

    fn get<K: Copy + Eq + Hash, V: Clone>(c: &ShardedLru<K, V>, key: &K) -> Option<V> {
        let found = c.probe(key);
        c.count(found.is_some());
        found
    }

    #[test]
    fn hit_and_miss_accounting() {
        let c: ShardedLru<CacheKey, TuneDecision> = ShardedLru::new(4, 2);
        assert_eq!(get(&c, &key(1)), None);
        put(&c, key(1), decision(FormatId::Dia));
        assert_eq!(get(&c, &key(1)).map(|d| d.format), Some(FormatId::Dia));
        assert_eq!(get(&c, &key(2)), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.len, s.capacity), (1, 2, 1, 4));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_ops_and_scalars_do_not_collide() {
        let c: ShardedLru<CacheKey, TuneDecision> = ShardedLru::new(8, 4);
        let spmv = CacheKey { structure: 9, scalar_bytes: 8, engine: 1, op: Op::Spmv };
        let spmm = CacheKey { structure: 9, scalar_bytes: 8, engine: 1, op: Op::Spmm { k: 8 } };
        let f32key = CacheKey { structure: 9, scalar_bytes: 4, engine: 1, op: Op::Spmv };
        put(&c, spmv, decision(FormatId::Dia));
        put(&c, spmm, decision(FormatId::Csr));
        put(&c, f32key, decision(FormatId::Ell));
        assert_eq!(get(&c, &spmv).map(|d| d.format), Some(FormatId::Dia));
        assert_eq!(get(&c, &spmm).map(|d| d.format), Some(FormatId::Csr));
        assert_eq!(get(&c, &f32key).map(|d| d.format), Some(FormatId::Ell));
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let c: ShardedLru<CacheKey, TuneDecision> = ShardedLru::new(0, 4);
        put(&c, key(1), decision(FormatId::Csr));
        assert_eq!(get(&c, &key(1)), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.len, s.capacity), (0, 0, 0, 0));
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn clear_keeps_counters() {
        let c: ShardedLru<CacheKey, TuneDecision> = ShardedLru::new(4, 2);
        put(&c, key(1), decision(FormatId::Csr));
        let _ = get(&c, &key(1));
        c.clear();
        let s = c.stats();
        assert_eq!(s.len, 0);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn sharded_bounds_total_occupancy() {
        // 8 slots requested over 4 stripes: the stripe cap collapses this
        // to one exact-LRU stripe (8 < MIN_STRIPE_CAPACITY), so occupancy
        // is bounded by the requested capacity exactly.
        let c: ShardedLru<u64, u32> = ShardedLru::new(8, 4);
        for i in 0..1000u64 {
            put(&c, i, i as u32);
        }
        assert!(c.stats().len <= 8, "len {} exceeds capacity", c.stats().len);
        assert_eq!(c.capacity(), 8);

        // A large cache keeps its stripes and still never exceeds the
        // requested capacity: stripe sizes sum to it exactly, even when
        // the division is uneven (100 over 6 stripes = 4x17 + 2x16, not
        // 6x17 = 102).
        for (capacity, shards) in [(64usize, 4usize), (100, 16), (70, 3)] {
            let big: ShardedLru<u64, u32> = ShardedLru::new(capacity, shards);
            for i in 0..2000u64 {
                put(&big, i, i as u32);
            }
            assert!(
                big.stats().len <= capacity,
                "len {} exceeds stated capacity {capacity}",
                big.stats().len
            );
        }
    }

    #[test]
    fn small_caches_hold_their_full_capacity_before_evicting() {
        // The regression the stripe cap prevents: capacity 64 striped 16
        // ways would give 4-entry stripes, and an unlucky key cluster
        // would evict while the cache is nearly empty. With the cap, any
        // 24 distinct keys fit a 64-entry cache.
        let c: ShardedLru<u64, u64> = ShardedLru::new(64, 16);
        for i in 0..24u64 {
            put(&c, i.wrapping_mul(0x9e37_79b9_7f4a_7c15), i);
        }
        assert_eq!(c.stats().len, 24, "no entry may be evicted below capacity");

        // Capacities just above one stripe's minimum must collapse to a
        // single exact stripe, not split into under-sized ones (ceil
        // division would make capacity 20 two stripes of 10, where 11
        // clustered keys evict at half occupancy).
        for capacity in [17usize, 20, 30] {
            let c: ShardedLru<u64, u64> = ShardedLru::new(capacity, 16);
            for i in 0..capacity as u64 {
                put(&c, i.wrapping_mul(0x9e37_79b9_7f4a_7c15), i);
            }
            assert_eq!(c.stats().len, capacity, "capacity {capacity} must be fully usable");
        }
    }

    #[test]
    fn generation_gated_insert_is_revoked_by_clear() {
        let c: ShardedLru<u64, u32> = ShardedLru::new(8, 2);
        // Normal flow: no clear between read and insert -> stored.
        let gen = c.generation();
        assert!(c.insert_if_generation(1, 10, gen, true));
        assert_eq!(get(&c, &1), Some(10));

        // A clear between reading the generation and inserting must reject
        // the stale value (this is the model-hot-swap race: the decision
        // was computed by a model that no longer serves).
        let stale_gen = c.generation();
        c.clear();
        assert!(!c.insert_if_generation(2, 20, stale_gen, true));
        assert_eq!(get(&c, &2), None);

        // The post-clear generation works again.
        assert!(c.insert_if_generation(2, 21, c.generation(), true));
        assert_eq!(get(&c, &2), Some(21));

        // Disabled caches reject everything.
        let off: ShardedLru<u64, u32> = ShardedLru::new(0, 2);
        assert!(!off.insert_if_generation(1, 1, off.generation(), true));
    }

    #[test]
    fn an_insert_without_replace_keeps_a_held_key() {
        let c: ShardedLru<u64, u32> = ShardedLru::new(8, 2);
        assert!(c.insert_if_generation(1, 10, c.generation(), false));
        assert!(!c.insert_if_generation(1, 11, c.generation(), false));
        assert_eq!(get(&c, &1), Some(10));
        assert!(c.insert_if_generation(1, 12, c.generation(), true));
        assert_eq!(get(&c, &1), Some(12));
    }

    #[test]
    fn sharded_for_each_and_clear() {
        let c: ShardedLru<u64, u32> = ShardedLru::new(32, 4);
        for i in 0..10u64 {
            put(&c, i, i as u32 * 2);
        }
        let mut seen = Vec::new();
        c.for_each(|k, v| seen.push((*k, *v)));
        seen.sort_unstable();
        assert_eq!(seen, (0..10u64).map(|i| (i, i as u32 * 2)).collect::<Vec<_>>());
        c.clear();
        assert_eq!(c.stats().len, 0);
    }

    #[test]
    fn sharded_counts_are_not_lost_under_contention() {
        // N threads hammer a small shared cache; every lookup must be
        // counted exactly once (hits + misses == total lookups) and every
        // insert must land (no torn stripes).
        let c = std::sync::Arc::new(ShardedLru::<u64, u64>::new(64, 4));
        let threads = 8u64;
        let per_thread = 500u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..per_thread {
                        let k = i % 32;
                        if get(&c, &k).is_none() {
                            put(&c, k, k + t);
                        }
                    }
                });
            }
        });
        let s = c.stats();
        assert_eq!(s.hits + s.misses, threads * per_thread, "lookup counts lost under contention: {s:?}");
        assert!(s.len <= 64);
        assert!(s.hits > 0, "some lookups must have hit: {s:?}");
    }
}
