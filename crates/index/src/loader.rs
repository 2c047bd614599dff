//! Loading the chosen uncertain region into memory.
//!
//! Implements Algorithm 2 line 19: "load data region with m(p*_i)". The
//! loader resolves the cell's chunk set through the mapping, merges the
//! chunks into tuples (`uei_storage::merge`: the paper's hash-table
//! reconstruction as a row-id bitmap intersection, reusing the previous
//! region's decoded chunks), and keeps a running average of the load time τ that
//! the prefetcher's horizon θ = ⌈τ/σ⌉ is derived from.

use std::sync::Arc;
use std::time::{Duration, Instant};

use uei_obs::{FlightEventKind, Phase, SessionTelemetry};
use uei_storage::cache::{CacheStats, SessionChunkView, SharedChunkCache};
use uei_storage::fault::RetryPolicy;
use uei_storage::merge::{reconstruct_region, MergeStats, RegionChunkSet};
use uei_storage::source::ChunkSource;
use uei_types::stats::Welford;
use uei_types::{DataPoint, Result};

use crate::grid::{CellId, Grid};
use crate::mapping::ChunkMapping;
use crate::prefetch::Ewma;

/// Measurements from one region load.
#[derive(Debug, Clone, Copy)]
pub struct LoadStats {
    /// Merge counters (chunks, bytes, entries — the `e` of O(ke)).
    pub merge: MergeStats,
    /// Modeled (virtual-clock) time the load's I/O cost.
    pub virtual_time: Duration,
    /// Wall-clock time of the load.
    pub wall_time: Duration,
    /// Rows materialized.
    pub rows: usize,
    /// Transient-error retries this load needed (0 = clean first attempt).
    pub retries: u64,
}

/// Loads grid cells from a [`ChunkSource`] through a session's view of the
/// engine's chunk cache.
pub struct RegionLoader {
    /// The session's store handle: its tracker is the session's modeled
    /// clock (ghost misses and retry backoff are billed to it).
    source: Arc<dyn ChunkSource>,
    /// Serves bytes from the engine's shared cache and decides, with its
    /// deterministic ghost ledger, what the session is billed.
    cache: SessionChunkView,
    /// Decoded chunks of the previously loaded region: the overlap with
    /// the next region is reused from here instead of refetched.
    prev: Option<RegionChunkSet>,
    load_times: Welford,
    /// Exponentially weighted τ: what the horizon θ = ⌈τ/σ⌉ actually uses,
    /// so warm-cache steady state is not dragged by cold-start loads. The
    /// Welford mean above stays as the all-time diagnostic.
    recent_load: Ewma,
    retry: RetryPolicy,
    total_retries: u64,
    /// Region-load / chunk-merge spans and retry flight events (inert
    /// when telemetry is disabled).
    telemetry: SessionTelemetry,
}

impl std::fmt::Debug for RegionLoader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegionLoader")
            .field("cache", &self.cache)
            .field("loads", &self.load_times.count())
            .field("retry", &self.retry)
            .finish_non_exhaustive()
    }
}

impl RegionLoader {
    /// Creates a per-session loader over an engine's shared cache:
    /// `source` is the session's handle (its tracker is billed the
    /// session's modeled I/O), `view` decides the billing with its ghost
    /// ledger and serves bytes from the shared cache.
    pub fn with_session_view(source: Arc<dyn ChunkSource>, view: SessionChunkView) -> RegionLoader {
        RegionLoader {
            source,
            cache: view,
            prev: None,
            load_times: Welford::new(),
            recent_load: Ewma::default(),
            retry: RetryPolicy::default(),
            total_retries: 0,
            telemetry: SessionTelemetry::disabled(),
        }
    }

    /// Installs the session's telemetry handle (disabled by default).
    pub fn set_telemetry(&mut self, telemetry: SessionTelemetry) {
        self.telemetry = telemetry;
    }

    /// Sets the retry policy used for transient read failures during loads.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Cumulative transient-error retries across all loads.
    pub fn total_retries(&self) -> u64 {
        self.total_retries
    }

    /// The session's deterministic ghost-ledger counters (not the shared
    /// cache's aggregate).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The engine's shared cache behind this loader's session view.
    pub fn shared_cache(&self) -> &Arc<SharedChunkCache> {
        self.cache.shared()
    }

    /// All-time average region load time (virtual seconds) — a diagnostic;
    /// θ derivation uses [`Self::recent_load_secs`].
    pub fn average_load_secs(&self) -> f64 {
        self.load_times.mean()
    }

    /// Exponentially weighted recent region load time τ (virtual seconds),
    /// used for θ = ⌈τ/σ⌉ and swap deferral. Unlike the plain average it
    /// adapts to cache warm-up: a few warm loads pull it down even after an
    /// expensive cold start.
    pub fn recent_load_secs(&self) -> f64 {
        self.recent_load.value()
    }

    /// Number of loads performed.
    pub fn loads(&self) -> u64 {
        self.load_times.count()
    }

    /// Loads every tuple of cell `id` (Algorithm 2 line 19).
    pub fn load_cell(
        &mut self,
        grid: &Grid,
        mapping: &ChunkMapping,
        id: CellId,
    ) -> Result<(Vec<DataPoint>, LoadStats)> {
        let _load_span = self.telemetry.span(Phase::RegionLoad);
        let region = grid.cell_region(id)?;
        let chunks = mapping.chunks_for_cell(grid, id)?;
        let wall_start = Instant::now();
        let io_before = self.source.tracker().snapshot();
        // Reuse the previous region's decoded chunks for the overlap; only
        // the chunk-ID delta goes through the fetch path. The new region's
        // set replaces the old one afterwards, whether the load came from
        // cache, disk, or reuse — chunks are immutable, so retained copies
        // never go stale. Only borrowed here: a load whose every attempt
        // fails leaves the baseline in place for the next one.
        let prev = self.prev.as_ref();
        let policy = self.retry;
        let source = self.source.as_ref();
        let tel = self.telemetry.clone();
        let cache = &mut self.cache;
        // Transient read errors (flaky device, injected fault) are retried
        // with backoff charged to the virtual clock; corruption and hard
        // I/O errors propagate immediately for the caller's fallback
        // ladder. Reconstruction has no partial side effects — the merge
        // table is rebuilt per attempt — so a retry is a clean re-run.
        let ((rows, merge, set), retries) = policy.run(source.tracker(), || {
            // One merge span per attempt: retried merges each count.
            let _merge_span = tel.span(Phase::ChunkMerge);
            reconstruct_region(source, &region, &chunks, prev, &mut |id| {
                cache.get_or_load(source, id)
            })
        })?;
        self.prev = Some(set);
        self.total_retries += retries;
        if retries > 0 {
            self.telemetry.event(FlightEventKind::Retry, self.load_times.count(), || {
                format!("cell {id} needed {retries} transient-fault retries")
            });
        }
        let virtual_time = self.source.tracker().delta(&io_before).virtual_elapsed;
        let wall_time = wall_start.elapsed();
        self.load_times.push(virtual_time.as_secs_f64());
        self.recent_load.push(virtual_time.as_secs_f64());
        let stats = LoadStats { merge, virtual_time, wall_time, rows: rows.len(), retries };
        Ok((rows, stats))
    }

    /// Forgets the session's ghost ledger and the retained delta set
    /// (e.g. between experiment runs). The engine's shared cache belongs
    /// to every session and is never cleared from here.
    pub fn clear_cache(&mut self) {
        self.cache.clear_ghost();
        self.prev = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::build_store as build;
    use uei_storage::io::DiskTracker;
    use uei_storage::store::ColumnStore;

    /// A session loader with a cache budget of `cache_bytes`, wired the way
    /// `EngineCore::open_session` wires it: `store` is the physical handle
    /// (its tracker is the ledger), the returned tracker is the session's
    /// modeled clock.
    fn loader(store: &Arc<ColumnStore>, cache_bytes: usize) -> (RegionLoader, DiskTracker) {
        let clock = DiskTracker::new(store.tracker().profile());
        let session: Arc<dyn ChunkSource> = Arc::new(store.with_tracker(clock.clone()));
        let physical = Arc::clone(store) as Arc<dyn ChunkSource>;
        let shared = Arc::new(SharedChunkCache::with_default_shards(cache_bytes));
        let view = SessionChunkView::new(shared, physical, cache_bytes);
        (RegionLoader::with_session_view(session, view), clock)
    }

    #[test]
    fn loads_exactly_the_cell_population() {
        let (store, rows, _dir) = build("population", 2000);
        let grid = Grid::new(store.schema(), 4).unwrap();
        let mapping = ChunkMapping::build(&grid, store.manifest()).unwrap();
        let (mut loader, _) = loader(&store, 32 << 20);
        let mut total = 0usize;
        for cell in grid.cell_ids() {
            let (loaded, stats) = loader.load_cell(&grid, &mapping, cell).unwrap();
            let region = grid.cell_region(cell).unwrap();
            let expected: Vec<u64> = rows
                .iter()
                .filter(|p| region.contains(&p.values).unwrap())
                .map(|p| p.id.as_u64())
                .collect();
            let got: Vec<u64> = loaded.iter().map(|p| p.id.as_u64()).collect();
            assert_eq!(got, expected, "cell {cell}");
            assert_eq!(stats.rows, expected.len());
            total += loaded.len();
        }
        assert_eq!(total, 2000, "cells partition the dataset");
    }

    #[test]
    fn tracks_average_load_time() {
        let (store, _, _dir) = build("tau", 1000);
        let grid = Grid::new(store.schema(), 3).unwrap();
        let mapping = ChunkMapping::build(&grid, store.manifest()).unwrap();
        let (mut loader, _) = loader(&store, 0); // no caching
        assert_eq!(loader.loads(), 0);
        for cell in [0usize, 4, 8] {
            loader.load_cell(&grid, &mapping, cell).unwrap();
        }
        assert_eq!(loader.loads(), 3);
        assert!(loader.average_load_secs() > 0.0, "NVMe-modeled loads take time");
    }

    #[test]
    fn recent_load_time_adapts_to_cache_warmup() {
        let (store, _, _dir) = build("ewmatau", 1000);
        let grid = Grid::new(store.schema(), 3).unwrap();
        let mapping = ChunkMapping::build(&grid, store.manifest()).unwrap();
        let (mut loader, _) = loader(&store, 256 << 20);
        loader.load_cell(&grid, &mapping, 4).unwrap(); // cold: pays I/O
        let cold = loader.recent_load_secs();
        assert!(cold > 0.0, "cold load has modeled cost");
        assert_eq!(cold, loader.average_load_secs(), "single sample: estimators agree");
        // Warm reloads are free (cache hits, zero virtual time): the EWMA
        // sheds the cold start geometrically while the all-time mean keeps
        // a full share of it.
        for _ in 0..10 {
            loader.load_cell(&grid, &mapping, 4).unwrap();
        }
        assert!(loader.recent_load_secs() < cold * 0.1, "EWMA forgets the cold start");
        assert!(loader.recent_load_secs() < loader.average_load_secs());
    }

    #[test]
    fn cache_makes_reloads_free() {
        let (store, _, _dir) = build("cachehit", 1500);
        let grid = Grid::new(store.schema(), 3).unwrap();
        let mapping = ChunkMapping::build(&grid, store.manifest()).unwrap();
        let (mut loader, clock) = loader(&store, 256 << 20);
        let (first, _) = loader.load_cell(&grid, &mapping, 4).unwrap();
        let before = (clock.snapshot(), store.tracker().snapshot());
        let (second, stats) = loader.load_cell(&grid, &mapping, 4).unwrap();
        assert_eq!(first, second);
        assert_eq!(clock.delta(&before.0).stats.bytes_read, 0, "modeled");
        assert_eq!(store.tracker().delta(&before.1).stats.bytes_read, 0, "physical");
        assert_eq!(stats.virtual_time, Duration::ZERO);
    }

    #[test]
    fn delta_reload_of_same_cell_is_free_without_any_cache() {
        let (store, _, _dir) = build("deltafree", 1500);
        let grid = Grid::new(store.schema(), 3).unwrap();
        let mapping = ChunkMapping::build(&grid, store.manifest()).unwrap();
        // Zero cache budget: everything bypasses; only the delta set can
        // make the reload free.
        let (mut loader, clock) = loader(&store, 0);
        let (first, _) = loader.load_cell(&grid, &mapping, 4).unwrap();
        let before = clock.snapshot();
        let (second, stats) = loader.load_cell(&grid, &mapping, 4).unwrap();
        assert_eq!(first, second);
        assert_eq!(clock.delta(&before).stats.bytes_read, 0);
        assert_eq!(stats.merge.chunks_loaded, 0);
        assert!(stats.merge.chunks_reused > 0);
        assert_eq!(stats.virtual_time, Duration::ZERO);
        // Clearing drops the retained set: the next reload pays.
        loader.clear_cache();
        let before = clock.snapshot();
        let (third, stats) = loader.load_cell(&grid, &mapping, 4).unwrap();
        assert_eq!(first, third);
        assert!(clock.delta(&before).stats.bytes_read > 0);
        assert_eq!(stats.merge.chunks_reused, 0);
    }

    #[test]
    fn failed_load_keeps_the_delta_baseline() {
        use uei_storage::fault::{FaultConfig, FaultInjector};
        let (store, _, _dir) = build("keepprev", 1500);
        let grid = Grid::new(store.schema(), 3).unwrap();
        let mapping = ChunkMapping::build(&grid, store.manifest()).unwrap();
        // Zero cache budget: only the retained set can make a reload free.
        let (mut loader, clock) = loader(&store, 0);
        loader.set_retry_policy(RetryPolicy::none());
        let (first, _) = loader.load_cell(&grid, &mapping, 4).unwrap();
        let injector =
            FaultInjector::new(FaultConfig { seed: 5, transient_prob: 1.0, ..FaultConfig::off() })
                .unwrap();
        store.tracker().set_fault_injector(Some(injector));
        // Cell 0 shares no slice with cell 4, so every chunk must be read.
        let err = loader.load_cell(&grid, &mapping, 0).unwrap_err();
        assert!(err.is_storage_fault(), "{err}");
        store.tracker().set_fault_injector(None);
        // The previous region's chunks are immutable and still valid: the
        // failed load must not have thrown them away.
        let before = clock.snapshot();
        let (again, stats) = loader.load_cell(&grid, &mapping, 4).unwrap();
        assert_eq!(first, again);
        assert!(stats.merge.chunks_reused > 0, "baseline survived the failed load");
        assert_eq!(clock.delta(&before).stats.bytes_read, 0);
    }

    #[test]
    fn delta_between_adjacent_cells_reads_only_the_difference() {
        let (store, rows, _dir) = build("deltaadj", 3000);
        let grid = Grid::new(store.schema(), 3).unwrap();
        let mapping = ChunkMapping::build(&grid, store.manifest()).unwrap();
        let (mut loader, _) = loader(&store, 0); // delta only
        loader.load_cell(&grid, &mapping, 0).unwrap();
        // Adjacent cell in x: shares the y-dimension chunk range entirely.
        let (got, stats) = loader.load_cell(&grid, &mapping, 1).unwrap();
        assert!(stats.merge.chunks_reused > 0, "adjacent cells share chunks");
        let region = grid.cell_region(1).unwrap();
        let expected: Vec<u64> = rows
            .iter()
            .filter(|p| region.contains(&p.values).unwrap())
            .map(|p| p.id.as_u64())
            .collect();
        let got_ids: Vec<u64> = got.iter().map(|p| p.id.as_u64()).collect();
        assert_eq!(got_ids, expected, "delta load is exact");
    }

    #[test]
    fn loading_a_cell_reads_less_than_the_whole_dataset() {
        // The paper's O(kn) → O(ke): one subspace costs a fraction of a
        // full pass over the inverted files.
        let (store, _, _dir) = build("fraction", 4000);
        let grid = Grid::new(store.schema(), 5).unwrap();
        let mapping = ChunkMapping::build(&grid, store.manifest()).unwrap();
        let (mut loader, _) = loader(&store, 0);
        let (_, stats) = loader.load_cell(&grid, &mapping, 12).unwrap();
        let all_chunk_bytes = store.manifest().total_chunk_bytes();
        assert!(
            stats.merge.chunk_bytes < all_chunk_bytes / 2,
            "one cell ({} B) should cost well under the full inverted set ({} B)",
            stats.merge.chunk_bytes,
            all_chunk_bytes
        );
    }

    /// One fault kind at a time against a cache-less loader walking every
    /// cell: latency spikes reach the clock of the tracker that performed
    /// the read (the physical ledger) but never fail a load, and corruption
    /// surfaces as failed loads that are never retried.
    /// (Transients absorbed by retries: `load::tests`.)
    #[test]
    fn spikes_never_fail_a_load_and_corruption_is_never_retried() {
        use uei_storage::fault::{FaultConfig, FaultInjector};
        let (store, _, _dir) = build("faultkinds", 3000);
        let grid = Grid::new(store.schema(), 4).unwrap();
        let mapping = ChunkMapping::build(&grid, store.manifest()).unwrap();
        let sweep = |faults: FaultConfig| {
            let injector = FaultInjector::new(faults).unwrap();
            store.tracker().set_fault_injector(Some(Arc::clone(&injector)));
            let (mut loader, _) = loader(&store, 0);
            let before = store.tracker().snapshot();
            let failed = grid
                .cell_ids()
                .filter(|&cell| match loader.load_cell(&grid, &mapping, cell) {
                    Ok(_) => false,
                    Err(e) => {
                        assert!(e.is_storage_fault(), "untyped error under injection: {e}");
                        true
                    }
                })
                .count();
            let virtual_time = store.tracker().delta(&before).virtual_elapsed;
            store.tracker().set_fault_injector(None);
            (failed, loader.total_retries(), virtual_time, injector.stats())
        };

        let (_, _, clean_time, _) = sweep(FaultConfig::off());
        let slow = FaultConfig {
            seed: 211,
            slow_prob: 0.1,
            slow_penalty_secs: 0.05,
            ..FaultConfig::off()
        };
        let (failed, retries, slow_time, stats) = sweep(slow);
        assert!(stats.latency_spikes > 0, "spikes fired: {stats:?}");
        assert_eq!((failed, retries), (0, 0), "a slow read is still a good read");
        assert!(slow_time > clean_time, "spike penalties reach the ledger's virtual clock");

        let corrupt = FaultConfig { seed: 211, corrupt_prob: 0.02, ..FaultConfig::off() };
        let (failed, retries, _, stats) = sweep(corrupt);
        assert!(stats.corruptions > 0, "corruption fired: {stats:?}");
        assert!(failed > 0, "corruption must surface, never be silently decoded");
        assert_eq!(retries, 0, "a corrupt chunk stays corrupt: never retried");
    }
}
