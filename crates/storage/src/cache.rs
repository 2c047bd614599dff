//! Byte-budgeted LRU caching of decoded chunks.
//!
//! UEI "would release the memory space used to hold the data chunk and
//! reuse the space for the subsequent chunk" (§3.1); a bounded cache
//! generalizes that: with a budget of zero it degenerates to the paper's
//! strict chunk-at-a-time behaviour, with a larger budget it keeps hot
//! chunks (e.g. chunks shared by adjacent grid cells) resident. The budget
//! counts *decoded payload* bytes so it can be compared directly against
//! the experiment's memory restriction.
//!
//! - [`SharedChunkCache`] — a sharded, lock-striped cache (`&self`,
//!   `Send + Sync`) shared between the foreground region loader, the
//!   background prefetcher, and every session of an engine. Shards are
//!   keyed by [`ChunkId`] hash, each shard owns its own
//!   `parking_lot::Mutex<LruMap>` and byte account, and duplicate in-flight
//!   loads of one chunk coalesce into a single read (single-flight).
//!   Because the *caller* performs the physical read with its own
//!   [`ChunkSource`] handle, modeled I/O stays attributed to the thread
//!   that actually issued it: foreground misses charge the foreground
//!   tracker, prefetcher misses charge the background tracker, and hits
//!   charge nobody;
//! - [`SessionChunkView`] — a per-session *accounting view* over a
//!   [`SharedChunkCache`]: chunk bytes come from the shared cache (so N
//!   sessions keep one decoded copy), but each session's modeled I/O is
//!   charged by a private ghost LRU that behaves exactly like a
//!   single-owner cache of the same budget. Session traces therefore stay
//!   bit-identical regardless of what other sessions do to the shared
//!   cache — determinism the raw shared counters cannot offer, because
//!   *which* thread pays for a shared miss depends on thread scheduling.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use uei_types::Result;

use crate::chunk::{Chunk, ChunkId};
use crate::lru::LruMap;
use crate::source::ChunkSource;

/// Cache hit/miss counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from memory.
    pub hits: u64,
    /// Lookups that had to read the chunk file and admitted the result.
    pub misses: u64,
    /// Chunks evicted to stay within budget.
    pub evictions: u64,
    /// Lookups that read the chunk file but did *not* admit the result
    /// because the chunk exceeds the (shard) budget. These pay the same
    /// I/O as a miss yet can never become hits, so they are reported
    /// separately instead of looking like plain misses.
    pub bypasses: u64,
}

impl CacheStats {
    /// Total lookups (hits + misses + bypasses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.bypasses
    }

    /// Hit ratio in `[0, 1]`; 0 when there were no lookups.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fraction of lookups that bypassed admission; 0 with no lookups.
    pub fn bypass_ratio(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.bypasses as f64 / total as f64
        }
    }

    /// Counter-wise difference against an earlier snapshot.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            bypasses: self.bypasses - earlier.bypasses,
        }
    }
}

/// Default shard count of a [`SharedChunkCache`].
pub const DEFAULT_CACHE_SHARDS: usize = 8;

#[derive(Debug, Default)]
struct ShardState {
    lru: LruMap<ChunkId, (Arc<Chunk>, usize)>,
    used_bytes: usize,
    /// Chunk ids whose read is currently in flight on some thread.
    /// Later arrivals for the same id wait on the shard condvar instead of
    /// issuing a duplicate read (single-flight).
    inflight: HashSet<ChunkId>,
}

#[derive(Debug, Default)]
struct Shard {
    state: Mutex<ShardState>,
    flights: Condvar,
}

/// A sharded, lock-striped chunk cache shared across threads.
///
/// The global byte budget is split evenly across shards; each shard
/// accounts and evicts independently, so two threads touching chunks that
/// hash to different shards never contend. Counters are atomics and can be
/// read without taking any shard lock.
///
/// ## Single-flight
///
/// When thread A misses on chunk `c` and thread B asks for `c` while A's
/// read is still in flight, B blocks on the shard condvar until A publishes
/// the chunk, then takes it as a hit — the file is read once, charged to
/// A's tracker only. If A's read *fails*, B retries the lookup itself (and
/// will surface its own error if the failure persists); failures are never
/// cached.
///
/// ## I/O attribution
///
/// `get_or_load` takes the caller's own [`ChunkSource`] handle, so a miss
/// is charged to whichever [`crate::io::DiskTracker`] that handle carries.
/// The foreground loader and the background prefetcher hold handles over
/// the same data with separate trackers; sharing the cache therefore never
/// mixes their byte accounting, and a hit records zero modeled I/O on
/// either side.
#[derive(Debug)]
pub struct SharedChunkCache {
    shards: Vec<Shard>,
    shard_budget: usize,
    budget_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bypasses: AtomicU64,
}

impl SharedChunkCache {
    /// Creates a cache with `budget_bytes` of decoded payload split over
    /// `shards` lock stripes (`shards` is clamped to at least 1).
    pub fn new(budget_bytes: usize, shards: usize) -> SharedChunkCache {
        let n = shards.max(1);
        SharedChunkCache {
            shards: (0..n).map(|_| Shard::default()).collect(),
            shard_budget: budget_bytes / n,
            budget_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
        }
    }

    /// Creates a cache with the default shard count.
    pub fn with_default_shards(budget_bytes: usize) -> SharedChunkCache {
        SharedChunkCache::new(budget_bytes, DEFAULT_CACHE_SHARDS)
    }

    /// The configured global budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// The per-shard slice of the budget.
    pub fn shard_budget_bytes(&self) -> usize {
        self.shard_budget
    }

    /// Number of lock stripes.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Decoded bytes currently held, summed over shards.
    pub fn used_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.state.lock().used_bytes).sum()
    }

    /// Number of resident chunks, summed over shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.state.lock().lru.len()).sum()
    }

    /// Whether no chunk is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/eviction/bypass counters (atomic snapshot, lock-free).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
        }
    }

    /// Whether `id` is currently resident (does not touch recency and does
    /// not count as a lookup).
    pub fn contains(&self, id: ChunkId) -> bool {
        self.shard(id).state.lock().lru.contains(&id)
    }

    fn shard(&self, id: ChunkId) -> &Shard {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        id.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Returns the chunk, reading it through `source` on a miss.
    ///
    /// Concurrent callers asking for the same absent chunk coalesce: one
    /// performs the read (charging *its* source's tracker), the rest wait
    /// and take the published chunk as a hit with zero modeled I/O.
    /// Chunks larger than the shard budget bypass admission and count in
    /// [`CacheStats::bypasses`].
    pub fn get_or_load(&self, source: &dyn ChunkSource, id: ChunkId) -> Result<Arc<Chunk>> {
        let shard = self.shard(id);
        {
            let mut state = shard.state.lock();
            loop {
                if let Some((chunk, _)) = state.lru.get(&id) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Arc::clone(chunk));
                }
                if state.inflight.contains(&id) {
                    // Another thread is reading this chunk; wait for it to
                    // publish (or fail) and re-check.
                    shard.flights.wait(&mut state);
                    continue;
                }
                state.inflight.insert(id);
                break;
            }
        }
        // Read without holding the shard lock so other chunks of this
        // shard stay available, and so the condvar wait above can't
        // deadlock against the I/O.
        let outcome = source.read_chunk(id);
        let mut state = shard.state.lock();
        state.inflight.remove(&id);
        shard.flights.notify_all();
        let chunk = Arc::new(outcome?);
        let size = approx_chunk_bytes(&chunk);
        if size > self.shard_budget {
            self.bypasses.fetch_add(1, Ordering::Relaxed);
            return Ok(chunk);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if !state.lru.contains(&id) {
            state.used_bytes += size;
            state.lru.insert(id, (Arc::clone(&chunk), size));
            while state.used_bytes > self.shard_budget {
                if let Some((_, (_, sz))) = state.lru.pop_lru() {
                    state.used_bytes -= sz;
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                } else {
                    break;
                }
            }
        }
        Ok(chunk)
    }

    /// Returns the chunk only if it is already resident (a hit), recording
    /// no lookup otherwise. Used by opportunistic readers that do not want
    /// to pay a read on absence.
    pub fn get_if_resident(&self, id: ChunkId) -> Option<Arc<Chunk>> {
        let shard = self.shard(id);
        let mut state = shard.state.lock();
        state.lru.get(&id).map(|(chunk, _)| {
            self.hits.fetch_add(1, Ordering::Relaxed);
            Arc::clone(chunk)
        })
    }

    /// Drops every resident chunk from every shard. Counters are kept;
    /// in-flight reads are unaffected (they re-admit on completion).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut state = shard.state.lock();
            state.lru.clear();
            state.used_bytes = 0;
        }
    }
}

/// A per-session view over a [`SharedChunkCache`].
///
/// The view separates *where the bytes live* from *who is charged for
/// them*:
///
/// - **Bytes** always come from the shared cache, fetched on a shared miss
///   through the engine's `physical` source handle — so N sessions keep at
///   most one decoded copy of each chunk, and physical reads are billed to
///   the engine's global ledger.
/// - **Modeled I/O** is decided by a session-private *ghost LRU*: a map of
///   chunk id → approximate decoded size with the budget, admission,
///   eviction, and bypass rules of a single-owner byte-budgeted LRU. A
///   ghost miss charges the session's own tracker one seek plus the
///   chunk's encoded file size (what a private read would have cost); a
///   ghost hit charges nothing.
///
/// Charging off the shared counters instead would make per-session traces
/// depend on thread scheduling (single-flight bills the race winner;
/// cross-session hits bill nobody). The ghost ledger keeps each session's
/// modeled I/O — and hence its `IterationTrace` — bit-identical to the
/// session running alone, while the shared cache still delivers the real
/// wall-clock and memory wins of sharing.
pub struct SessionChunkView {
    shared: Arc<SharedChunkCache>,
    physical: Arc<dyn ChunkSource>,
    budget_bytes: usize,
    used_bytes: usize,
    ghost: LruMap<ChunkId, usize>,
    stats: CacheStats,
}

impl std::fmt::Debug for SessionChunkView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionChunkView")
            .field("budget_bytes", &self.budget_bytes)
            .field("used_bytes", &self.used_bytes)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl SessionChunkView {
    /// Creates a view over `shared` whose ghost ledger models a private
    /// cache of `budget_bytes`. `physical` is the engine's source handle:
    /// shared misses read through it, charging the engine's tracker.
    pub fn new(
        shared: Arc<SharedChunkCache>,
        physical: Arc<dyn ChunkSource>,
        budget_bytes: usize,
    ) -> SessionChunkView {
        SessionChunkView {
            shared,
            physical,
            budget_bytes,
            used_bytes: 0,
            ghost: LruMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// The shared cache backing this view.
    pub fn shared(&self) -> &Arc<SharedChunkCache> {
        &self.shared
    }

    /// The ghost ledger's budget (mirrors a private cache's budget).
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// This session's deterministic cache counters (the ghost ledger's,
    /// not the shared cache's).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Empties the ghost ledger (counters are kept). The shared cache is
    /// untouched — it belongs to every session of the engine.
    pub fn clear_ghost(&mut self) {
        self.ghost.clear();
        self.used_bytes = 0;
    }

    /// Returns the chunk, always via the shared cache, charging `session`'s
    /// tracker if and only if a private cache of the same budget would have
    /// read the chunk. `session` supplies the catalog lookup for the
    /// modeled cost and the tracker to bill it to.
    pub fn get_or_load(&mut self, session: &dyn ChunkSource, id: ChunkId) -> Result<Arc<Chunk>> {
        if self.ghost.get(&id).is_some() {
            self.stats.hits += 1;
            // Served from "our" cache in the model. Physically the chunk
            // may have been evicted from the shared cache by other
            // sessions; re-fetching it then bills the engine ledger, never
            // this session.
            return self.shared.get_or_load(self.physical.as_ref(), id);
        }
        // Ghost miss: a private cache would have read the file here, so
        // bill the session the catalog cost of that read (one seek plus
        // the encoded length) — a fixed amount that cannot depend on other
        // sessions' behaviour. Failed fetches charge nothing: a read that
        // errors moves no bytes.
        let file_size = session.chunk_file_size(id)?;
        let chunk = self.shared.get_or_load(self.physical.as_ref(), id)?;
        session.tracker().record_read(file_size, 1);
        let size = approx_chunk_bytes(&chunk);
        if size > self.budget_bytes {
            self.stats.bypasses += 1;
            return Ok(chunk);
        }
        self.stats.misses += 1;
        self.used_bytes += size;
        self.ghost.insert(id, size);
        while self.used_bytes > self.budget_bytes {
            if let Some((_, sz)) = self.ghost.pop_lru() {
                self.used_bytes -= sz;
                self.stats.evictions += 1;
            } else {
                break;
            }
        }
        Ok(chunk)
    }
}

/// The byte charge of a decoded chunk — the unit of every cache's
/// accounting (budgets, [`SharedChunkCache::used_bytes`], and the ghost
/// ledgers of [`SessionChunkView`]), exposed so tests can recompute a
/// cache's exact expected occupancy from its resident chunks.
///
/// This is the ledger's unit, not a measurement: it decides admission, hits
/// and evictions, and through them every modeled metric, so it stays
/// `32·entries + 8·ids` although the struct-of-arrays chunk really holds
/// about `12·entries + 8·ids` (key + `u32` offset per entry). It now
/// over-estimates; recalibrating it moves `bytes_read_per_iter` and
/// belongs with the one-memory-budget work (ROADMAP item 6).
pub fn approx_chunk_bytes(chunk: &Chunk) -> usize {
    chunk.num_entries() * 32 + chunk.num_ids() * 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{DiskTracker, IoProfile};
    use crate::store::{ColumnStore, StoreConfig};
    use uei_types::{AttributeDef, DataPoint, Rng, Schema};

    fn build_store(
        tag: &str,
        n: usize,
        chunk_bytes: usize,
    ) -> (ColumnStore, crate::testutil::TempDir) {
        let dir = crate::testutil::TempDir::new(&format!("cache-{tag}"));
        let schema = Schema::new(vec![
            AttributeDef::new("x", 0.0, 100.0).unwrap(),
            AttributeDef::new("y", 0.0, 100.0).unwrap(),
        ])
        .unwrap();
        let mut rng = Rng::new(1);
        let rows: Vec<DataPoint> = (0..n)
            .map(|i| {
                DataPoint::new(i as u64, vec![rng.range_f64(0.0, 100.0), rng.range_f64(0.0, 100.0)])
            })
            .collect();
        let tracker = DiskTracker::new(IoProfile::instant());
        let store = ColumnStore::create(
            dir.path(),
            schema,
            &rows,
            StoreConfig { chunk_target_bytes: chunk_bytes },
            tracker,
        )
        .unwrap();
        (store, dir)
    }

    /// A session view whose ghost ledger models `budget` bytes, over a
    /// fresh unbounded shared cache, with the session handle it bills.
    fn solo_view(store: &ColumnStore, budget: usize) -> (SessionChunkView, ColumnStore) {
        let engine: Arc<dyn ChunkSource> =
            Arc::new(store.with_tracker(DiskTracker::new(IoProfile::instant())));
        let shared = Arc::new(SharedChunkCache::new(usize::MAX, 2));
        let session = store.with_tracker(DiskTracker::new(IoProfile::default()));
        (SessionChunkView::new(shared, engine, budget), session)
    }

    /// Decoded footprint of chunk `id`.
    fn chunk_bytes(store: &ColumnStore, id: ChunkId) -> usize {
        approx_chunk_bytes(&store.read_chunk(id).unwrap())
    }

    // -- Ghost ledger: the single-owner LRU arithmetic ----------------------

    #[test]
    fn ghost_hit_after_miss_charges_once() {
        let (store, _dir) = build_store("hits", 200, 256);
        let id = store.manifest().dims[0][0].id();
        let (mut view, session) = solo_view(&store, 10 << 20);
        let a = view.get_or_load(&session, id).unwrap();
        let before = session.tracker().snapshot();
        let b = view.get_or_load(&session, id).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(view.stats().misses, 1);
        assert_eq!(view.stats().hits, 1);
        assert_eq!(session.tracker().delta(&before).stats.bytes_read, 0, "a ghost hit is free");
    }

    #[test]
    fn ghost_evicts_lru_when_over_budget() {
        let (store, _dir) = build_store("evict", 500, 200);
        let ids: Vec<ChunkId> = store.manifest().dims[0].iter().map(|m| m.id()).collect();
        assert!(ids.len() >= 3, "need several chunks for this test");
        // Budget sized for roughly one chunk.
        let one = chunk_bytes(&store, ids[0]);
        let (mut view, session) = solo_view(&store, one + one / 2);
        for &id in &ids {
            view.get_or_load(&session, id).unwrap();
        }
        assert!(view.stats().evictions > 0);
        assert!(view.used_bytes <= view.budget_bytes());
        // The last-loaded chunk should still be resident.
        let before = session.tracker().snapshot();
        view.get_or_load(&session, *ids.last().unwrap()).unwrap();
        assert_eq!(session.tracker().delta(&before).stats.bytes_read, 0);
    }

    #[test]
    fn ghost_bypasses_oversized_chunks() {
        let (store, _dir) = build_store("bypass", 100, 1 << 20);
        let id = store.manifest().dims[0][0].id();
        let (mut view, session) = solo_view(&store, 8); // absurdly small budget
        view.get_or_load(&session, id).unwrap();
        assert_eq!(view.ghost.len(), 0);
        assert_eq!(view.used_bytes, 0);
        // Counted as a bypass both times, never as a plain miss.
        view.get_or_load(&session, id).unwrap();
        assert_eq!(view.stats().bypasses, 2);
        assert_eq!(view.stats().misses, 0);
        assert_eq!(view.stats().hit_ratio(), 0.0);
        assert_eq!(view.stats().bypass_ratio(), 1.0);
    }

    #[test]
    fn clear_ghost_resets_usage() {
        let (store, _dir) = build_store("clear", 200, 256);
        let (mut view, session) = solo_view(&store, 10 << 20);
        for m in &store.manifest().dims[0] {
            view.get_or_load(&session, m.id()).unwrap();
        }
        assert!(view.used_bytes > 0);
        view.clear_ghost();
        assert_eq!(view.used_bytes, 0);
        assert!(view.ghost.is_empty());
        // The model forgot the chunks: reloading one is charged again.
        let before = session.tracker().snapshot();
        view.get_or_load(&session, store.manifest().dims[0][0].id()).unwrap();
        assert!(session.tracker().delta(&before).stats.bytes_read > 0);
    }

    #[test]
    fn hit_ratio() {
        let s = CacheStats { hits: 3, misses: 1, evictions: 0, bypasses: 0 };
        assert_eq!(s.hit_ratio(), 0.75);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
        // Bypasses dilute the hit ratio: they are lookups that cannot hit.
        let s = CacheStats { hits: 3, misses: 0, evictions: 0, bypasses: 1 };
        assert_eq!(s.hit_ratio(), 0.75);
    }

    #[test]
    fn stats_since_subtracts() {
        let a = CacheStats { hits: 10, misses: 4, evictions: 2, bypasses: 1 };
        let b = CacheStats { hits: 4, misses: 1, evictions: 0, bypasses: 1 };
        let d = a.since(&b);
        assert_eq!(d, CacheStats { hits: 6, misses: 3, evictions: 2, bypasses: 0 });
    }

    // -- SharedChunkCache ---------------------------------------------------

    #[test]
    fn shared_hit_after_miss_across_handles() {
        let (store, _dir) = build_store("sh-hits", 300, 256);
        let id = store.manifest().dims[0][0].id();
        let cache = SharedChunkCache::new(10 << 20, 4);
        let a = cache.get_or_load(&store, id).unwrap();
        // Second handle to the same directory with a separate tracker: the
        // prefetcher/foreground arrangement.
        let other_tracker = DiskTracker::new(IoProfile::instant());
        let other = ColumnStore::open(store.dir(), other_tracker.clone()).unwrap();
        // Opening the handle reads the manifest; only count the lookup.
        let before = other_tracker.snapshot();
        let b = cache.get_or_load(&other, id).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 1);
        // The second handle's hit performed zero modeled I/O.
        assert_eq!(other_tracker.delta(&before).stats.bytes_read, 0);
    }

    #[test]
    fn shared_spreads_chunks_over_shards() {
        let (store, _dir) = build_store("sh-spread", 1500, 200);
        let cache = SharedChunkCache::new(64 << 20, 4);
        for dim in &store.manifest().dims {
            for m in dim {
                cache.get_or_load(&store, m.id()).unwrap();
            }
        }
        let total = store.manifest().total_chunks();
        assert_eq!(cache.len(), total);
        // With many chunks and a hash distribution, no shard holds all.
        let max_in_one_shard =
            (0..cache.num_shards()).map(|i| cache.shards[i].state.lock().lru.len()).max().unwrap();
        assert!(max_in_one_shard < total, "chunks spread over shards");
    }

    #[test]
    fn shared_per_shard_budget_and_evictions() {
        let (store, _dir) = build_store("sh-evict", 2000, 128);
        let ids: Vec<ChunkId> = store.manifest().dims.iter().flatten().map(|m| m.id()).collect();
        assert!(ids.len() > 8);
        let one = {
            let c = SharedChunkCache::new(usize::MAX, 1);
            let ch = c.get_or_load(&store, ids[0]).unwrap();
            approx_chunk_bytes(&ch)
        };
        // Room for ~2 chunks per shard across 2 shards.
        let cache = SharedChunkCache::new(one * 4, 2);
        for &id in &ids {
            cache.get_or_load(&store, id).unwrap();
        }
        assert!(cache.stats().evictions > 0);
        assert!(cache.used_bytes() <= cache.budget_bytes());
        for shard in &cache.shards {
            assert!(shard.state.lock().used_bytes <= cache.shard_budget_bytes());
        }
    }

    #[test]
    fn shared_zero_budget_bypasses_everything() {
        let (store, _dir) = build_store("sh-zero", 200, 256);
        let cache = SharedChunkCache::new(0, 4);
        let id = store.manifest().dims[0][0].id();
        cache.get_or_load(&store, id).unwrap();
        cache.get_or_load(&store, id).unwrap();
        assert_eq!(cache.stats().bypasses, 2);
        assert_eq!(cache.stats().misses, 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn shared_clear_empties_all_shards() {
        let (store, _dir) = build_store("sh-clear", 600, 200);
        let cache = SharedChunkCache::new(64 << 20, 4);
        for m in &store.manifest().dims[0] {
            cache.get_or_load(&store, m.id()).unwrap();
        }
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn shared_get_if_resident_peeks() {
        let (store, _dir) = build_store("sh-peek", 200, 256);
        let cache = SharedChunkCache::new(64 << 20, 2);
        let id = store.manifest().dims[0][0].id();
        assert!(cache.get_if_resident(id).is_none());
        assert_eq!(cache.stats().lookups(), 0, "absent peek is not a lookup");
        cache.get_or_load(&store, id).unwrap();
        assert!(cache.get_if_resident(id).is_some());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn shared_concurrent_single_flight_reads_each_chunk_once() {
        let (store, _dir) = build_store("sh-flight", 2000, 200);
        let store = Arc::new(store);
        let cache = Arc::new(SharedChunkCache::new(256 << 20, 4));
        let ids: Vec<ChunkId> = store.manifest().dims.iter().flatten().map(|m| m.id()).collect();
        let unique_bytes: u64 = store.manifest().dims.iter().flatten().map(|m| m.file_size).sum();

        // Every worker opens its own handle (own tracker) and loads the
        // full chunk list; single-flight must keep total physical bytes at
        // exactly one copy of the store.
        let mut handles = Vec::new();
        let mut trackers = Vec::new();
        for t in 0..8 {
            let tracker = DiskTracker::new(IoProfile::instant());
            let my_store = ColumnStore::open(store.dir(), tracker.clone()).unwrap();
            // Snapshot after open: the manifest read is not chunk I/O.
            trackers.push((tracker.clone(), tracker.snapshot()));
            let my_cache = Arc::clone(&cache);
            let my_ids = ids.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("sh-flight-{t}"))
                    .spawn(move || {
                        for id in my_ids {
                            my_cache.get_or_load(&my_store, id).unwrap();
                        }
                    })
                    .unwrap(),
            );
        }
        for h in handles {
            h.join().unwrap();
        }
        let total_read: u64 = trackers.iter().map(|(t, s)| t.delta(s).stats.bytes_read).sum();
        assert_eq!(total_read, unique_bytes, "each chunk read exactly once across all threads");
        let s = cache.stats();
        assert_eq!(s.misses, ids.len() as u64);
        assert_eq!(s.hits, (8 - 1) * ids.len() as u64);
        assert_eq!(s.bypasses, 0);
    }

    // -- SessionChunkView ---------------------------------------------------

    #[test]
    fn session_view_ledger_is_unmoved_by_interference() {
        let (store, _dir) = build_store("sv-ghost", 1500, 200);
        let ids: Vec<ChunkId> = store.manifest().dims.iter().flatten().map(|m| m.id()).collect();
        assert!(ids.len() >= 6);
        // Access sequence with revisits so hits, misses, and evictions all
        // occur.
        let mut seq = ids.clone();
        seq.extend(ids.iter().rev().cloned());
        seq.extend_from_slice(&ids[..ids.len() / 2]);
        let one = chunk_bytes(&store, ids[0]);
        let budget = one * 3;

        // Reference: the view alone over an unbounded shared cache.
        let (mut solo, solo_session) = solo_view(&store, budget);
        for &id in &seq {
            solo.get_or_load(&solo_session, id).unwrap();
        }
        assert!(solo.stats().hits > 0 && solo.stats().evictions > 0, "{:?}", solo.stats());

        // The same ledger over a shared cache that is deliberately smaller
        // than the ghost budget and disturbed by another session between
        // every access.
        let engine_tracker = DiskTracker::new(IoProfile::instant());
        let engine_store: Arc<dyn ChunkSource> =
            Arc::new(store.with_tracker(engine_tracker.clone()));
        let shared = Arc::new(SharedChunkCache::new(one * 2, 2));
        let session_tracker = DiskTracker::new(IoProfile::default());
        let session_store = store.with_tracker(session_tracker.clone());
        let mut view =
            SessionChunkView::new(Arc::clone(&shared), Arc::clone(&engine_store), budget);
        let disturber_tracker = DiskTracker::new(IoProfile::instant());
        let disturber = store.with_tracker(disturber_tracker);
        for (i, &id) in seq.iter().enumerate() {
            view.get_or_load(&session_store, id).unwrap();
            // Another "session" churns the shared cache.
            shared.get_or_load(&disturber, ids[(i * 7) % ids.len()]).unwrap();
        }

        let solo_tracker = solo_session.tracker();
        assert_eq!(view.stats(), solo.stats(), "ghost counters match the solo run");
        assert_eq!(
            session_tracker.stats().bytes_read,
            solo_tracker.stats().bytes_read,
            "session modeled bytes match the solo run"
        );
        assert_eq!(session_tracker.stats().seeks, solo_tracker.stats().seeks);
        assert_eq!(session_tracker.stats().reads, solo_tracker.stats().reads);
        assert_eq!(
            session_tracker.virtual_elapsed(),
            solo_tracker.virtual_elapsed(),
            "session virtual clock matches the solo run"
        );
        // The session itself never performed a physical read.
        assert_eq!(session_tracker.stats().writes, 0);
    }

    #[test]
    fn session_view_physical_reads_bill_the_engine_ledger() {
        let (store, _dir) = build_store("sv-ledger", 600, 256);
        let ids: Vec<ChunkId> = store.manifest().dims.iter().flatten().map(|m| m.id()).collect();
        let engine_tracker = DiskTracker::new(IoProfile::instant());
        let engine_store: Arc<dyn ChunkSource> =
            Arc::new(store.with_tracker(engine_tracker.clone()));
        let shared = Arc::new(SharedChunkCache::new(256 << 20, 4));
        let session_tracker = DiskTracker::new(IoProfile::instant());
        let session_store = store.with_tracker(session_tracker.clone());
        let mut view = SessionChunkView::new(Arc::clone(&shared), engine_store, 256 << 20);
        for &id in &ids {
            view.get_or_load(&session_store, id).unwrap();
        }
        let unique_bytes: u64 = store.manifest().dims.iter().flatten().map(|m| m.file_size).sum();
        // Physical reads happened exactly once per chunk, on the engine
        // ledger; the session ledger carries the same amount as *modeled*
        // cost without having touched the disk.
        assert_eq!(engine_tracker.stats().bytes_read, unique_bytes);
        assert_eq!(session_tracker.stats().bytes_read, unique_bytes);
        // A second pass is all ghost hits: nobody is charged anything.
        let e0 = engine_tracker.snapshot();
        let s0 = session_tracker.snapshot();
        for &id in &ids {
            view.get_or_load(&session_store, id).unwrap();
        }
        assert_eq!(engine_tracker.delta(&e0).stats.bytes_read, 0);
        assert_eq!(session_tracker.delta(&s0).stats.bytes_read, 0);
        assert_eq!(view.stats().hits, ids.len() as u64);
    }

    #[test]
    fn shared_failed_read_is_not_cached_and_not_counted() {
        let (store, dir) = build_store("sh-fail", 200, 256);
        let cache = SharedChunkCache::new(64 << 20, 2);
        let id = store.manifest().dims[0][0].id();
        let path = dir.join(id.file_name());
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(cache.get_or_load(&store, id).is_err());
        assert_eq!(cache.stats().misses, 0);
        assert!(cache.is_empty());
        // Restore the file: the next lookup succeeds normally.
        std::fs::write(&path, &bytes).unwrap();
        assert!(cache.get_or_load(&store, id).is_ok());
        assert_eq!(cache.stats().misses, 1);
    }
}
