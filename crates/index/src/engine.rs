//! The shared engine core for concurrent multi-session exploration.
//!
//! The paper's experiments run one analyst against one UEI. Serving many
//! analysts over the *same* dataset does not need one index copy per
//! analyst: everything heavy is immutable after the initialization phase
//! (Algorithm 2 lines 2–11) — the on-disk chunk files, their manifest
//! catalog, the grid geometry, the point→chunk mapping `m` — and the
//! decoded-chunk cache is explicitly designed to be shared. [`EngineCore`]
//! owns exactly that immutable half behind `Arc`s, and
//! [`EngineCore::open_session`] stamps out independent per-session
//! [`UeiIndex`] drivers over it:
//!
//! - **shared, `Arc`-owned by the core**: the [`ColumnStore`] handle (chunk
//!   files + manifest), the [`SharedChunkCache`], the [`Grid`], and the
//!   [`ChunkMapping`];
//! - **private to each session**: the symbolic index-point scores, the
//!   region loader with its [ghost ledger](uei_storage::cache::SessionChunkView),
//!   the optional prefetcher, the degradation counters, and a fresh
//!   [`DiskTracker`] whose virtual clock models that session's disk alone.
//!
//! Sessions opened from one core may run concurrently on separate threads
//! with **zero copies of the store**: a session's store handle shares the
//! directory path and `Arc<Manifest>` of the core's and differs only in its
//! tracker. Physical chunk reads that fill the shared cache are billed to
//! the core's I/O ledger; each session's *modeled* I/O is decided by its
//! private ghost ledger, so a session's iteration traces are bit-identical
//! whether it runs alone or next to seven noisy neighbours.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use uei_learn::strategy::UncertaintyMeasure;
use uei_obs::EngineTelemetry;
use uei_storage::cache::{CacheStats, SessionChunkView, SharedChunkCache};
use uei_storage::io::DiskTracker;
use uei_storage::source::ChunkSource;
use uei_storage::store::ColumnStore;
use uei_types::Result;

use crate::config::UeiConfig;
use crate::grid::Grid;
use crate::loader::RegionLoader;
use crate::mapping::ChunkMapping;
use crate::points::IndexPoints;
use crate::prefetch::Prefetcher;
use crate::uei::UeiIndex;

/// The thread-safe shared core of a multi-session UEI deployment.
///
/// Owns the immutable resources every session reads — store handle,
/// manifest catalog, grid geometry, chunk mapping, shared decoded-chunk
/// cache — and opens independent [`UeiIndex`] sessions over them. See the
/// [module docs](self) for the ownership split.
pub struct EngineCore {
    /// The core's own store handle; its tracker is the engine I/O ledger
    /// that physical cache-fill reads are billed to.
    store: Arc<ColumnStore>,
    /// The same handle, pre-coerced to the trait object the read path uses.
    physical: Arc<dyn ChunkSource>,
    grid: Arc<Grid>,
    mapping: Arc<ChunkMapping>,
    /// Index-point template cloned into each new session. The immutable
    /// halves inside — cell centers and shard layout — are `Arc`-shared,
    /// so a clone copies only per-session score state.
    points_template: IndexPoints,
    /// The engine-wide decoded-chunk cache.
    cache: Arc<SharedChunkCache>,
    config: UeiConfig,
    measure: UncertaintyMeasure,
    sessions_opened: AtomicU64,
    /// Engine-wide telemetry: one metrics registry shared by every
    /// session handle plus the per-session flight recorders. Inert (and
    /// near-free) unless [`UeiConfig::telemetry`] enables it.
    telemetry: Arc<EngineTelemetry>,
}

impl std::fmt::Debug for EngineCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCore")
            .field("grid", &self.grid)
            .field("config", &self.config)
            .field("sessions_opened", &self.sessions_opened)
            .finish_non_exhaustive()
    }
}

impl EngineCore {
    /// Builds an engine core over an initialized column store with the
    /// default uncertainty measure.
    ///
    /// Validates `config` against the store's schema up front
    /// ([`UeiConfig::validate`]) so a degenerate knob fails here, once,
    /// rather than inside every session.
    pub fn new(store: Arc<ColumnStore>, config: UeiConfig) -> Result<EngineCore> {
        Self::with_measure(store, config, UncertaintyMeasure::LeastConfidence)
    }

    /// [`EngineCore::new`] with an explicit uncertainty measure.
    pub fn with_measure(
        store: Arc<ColumnStore>,
        config: UeiConfig,
        measure: UncertaintyMeasure,
    ) -> Result<EngineCore> {
        config.validate(store.schema().dims())?;
        let grid = Arc::new(Grid::new(store.schema(), config.cells_per_dim)?);
        let mapping = Arc::new(ChunkMapping::build(&grid, store.manifest())?);
        let points_template = IndexPoints::from_grid(&grid)?;
        let physical: Arc<dyn ChunkSource> = Arc::clone(&store) as Arc<dyn ChunkSource>;
        let cache = Arc::new(SharedChunkCache::with_default_shards(config.chunk_cache_bytes));
        let telemetry = Arc::new(EngineTelemetry::new(config.telemetry));
        Ok(EngineCore {
            store,
            physical,
            grid,
            mapping,
            points_template,
            cache,
            config,
            measure,
            sessions_opened: AtomicU64::new(0),
            telemetry,
        })
    }

    /// Opens an independent exploration session against this core.
    ///
    /// The returned [`UeiIndex`] shares the core's store, grid, mapping,
    /// and decoded-chunk cache (all by `Arc` — no data is copied) but owns
    /// its index-point scores, region loader, ghost cache ledger, optional
    /// prefetcher, degradation counters, and a fresh virtual disk clock.
    /// Sessions are `Send` and safe to drive from separate threads.
    pub fn open_session(&self) -> Result<UeiIndex> {
        let profile = self.store.tracker().profile();
        let session_store = Arc::new(self.store.with_tracker(DiskTracker::new(profile)));
        let source: Arc<dyn ChunkSource> = Arc::clone(&session_store) as Arc<dyn ChunkSource>;
        let mut loader = RegionLoader::with_session_view(
            source,
            SessionChunkView::new(
                Arc::clone(&self.cache),
                Arc::clone(&self.physical),
                self.config.chunk_cache_bytes,
            ),
        );
        loader.set_retry_policy(self.config.retry);
        let prefetcher = if self.config.prefetch {
            // The prefetcher's background I/O gets its own tracker so it
            // never perturbs the session's foreground virtual clock.
            let bg: Arc<dyn ChunkSource> =
                Arc::new(self.store.with_tracker(DiskTracker::new(profile)))
                    as Arc<dyn ChunkSource>;
            Some(Prefetcher::spawn(
                bg,
                Arc::clone(&self.grid),
                Arc::clone(&self.mapping),
                Arc::clone(&self.cache),
            )?)
        } else {
            None
        };
        self.sessions_opened.fetch_add(1, Ordering::Relaxed);
        // The session's telemetry reads (never charges) the session's own
        // virtual clock, so dual-duration spans stay per-session exact.
        let telemetry =
            self.telemetry.open_session(Some(session_store.tracker().as_virtual_clock()));
        Ok(UeiIndex::from_parts(
            session_store,
            Arc::clone(&self.grid),
            Arc::clone(&self.mapping),
            self.points_template.clone(),
            loader,
            prefetcher,
            self.config.clone(),
            self.measure,
            telemetry,
        ))
    }

    /// The shared column store handle (engine I/O ledger tracker).
    pub fn store(&self) -> &Arc<ColumnStore> {
        &self.store
    }

    /// The grid of subspaces shared by every session.
    pub fn grid(&self) -> &Arc<Grid> {
        &self.grid
    }

    /// The point→chunk mapping `m` shared by every session.
    pub fn mapping(&self) -> &Arc<ChunkMapping> {
        &self.mapping
    }

    /// The validated engine configuration.
    pub fn config(&self) -> &UeiConfig {
        &self.config
    }

    /// The uncertainty measure sessions are opened with.
    pub fn measure(&self) -> UncertaintyMeasure {
        self.measure
    }

    /// The engine-wide decoded-chunk cache.
    pub fn shared_cache(&self) -> &Arc<SharedChunkCache> {
        &self.cache
    }

    /// Aggregate statistics of the engine-wide chunk cache across all
    /// sessions. (A session's own [`UeiIndex::cache_stats`] reports its
    /// deterministic ghost ledger instead.)
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The engine I/O ledger: every physical read that filled the shared
    /// cache, regardless of which session triggered it.
    pub fn io_ledger(&self) -> &DiskTracker {
        self.store.tracker()
    }

    /// How many sessions have been opened over this core so far.
    pub fn sessions_opened(&self) -> u64 {
        self.sessions_opened.load(Ordering::Relaxed)
    }

    /// The engine-wide telemetry hub: metrics registry, per-session phase
    /// breakdowns, and the merged flight-recorder view that
    /// [`EngineTelemetry::postmortem`] dumps.
    pub fn telemetry(&self) -> &Arc<EngineTelemetry> {
        &self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::build_store;

    fn test_config() -> UeiConfig {
        UeiConfig {
            cells_per_dim: 3,
            chunk_cache_bytes: 1 << 20,
            prefetch: false,
            ..UeiConfig::default()
        }
    }

    #[test]
    fn rejects_degenerate_config_at_construction() {
        let (store, _, _dir) = build_store("validate", 64);
        let cfg = UeiConfig { cells_per_dim: 0, ..test_config() };
        assert!(EngineCore::new(store, cfg).is_err());
    }

    #[test]
    fn sessions_share_store_and_cache_but_not_clocks() {
        let (store, _, _dir) = build_store("share", 256);
        let engine = EngineCore::new(Arc::clone(&store), test_config()).unwrap();
        let mut a = engine.open_session().unwrap();
        let mut b = engine.open_session().unwrap();
        assert_eq!(engine.sessions_opened(), 2);

        // Both sessions resolve the same shared cache instance.
        assert!(Arc::ptr_eq(a.shared_cache(), b.shared_cache()), "sessions must share one cache");
        assert!(Arc::ptr_eq(a.shared_cache(), engine.shared_cache()));

        // Both share the manifest (no store copies), but have distinct
        // trackers: loading in one session leaves the other's clock at 0.
        let cell = a.grid().cell_of(&[10.0, 10.0]).unwrap();
        a.load_cell(cell).unwrap();
        assert!(a.store().tracker().virtual_elapsed() > std::time::Duration::ZERO);
        assert_eq!(
            b.store().tracker().virtual_elapsed(),
            std::time::Duration::ZERO,
            "session B's modeled clock must be untouched by session A"
        );

        // The physical fill was billed to the engine ledger, once.
        let engine_bytes = engine.io_ledger().stats().bytes_read;
        assert!(engine_bytes > 0);

        // B loading the same cell hits the shared cache: no new physical
        // bytes, but B's modeled clock is charged exactly like A's was.
        b.load_cell(cell).unwrap();
        assert_eq!(engine.io_ledger().stats().bytes_read, engine_bytes);
        assert_eq!(
            a.store().tracker().stats().bytes_read,
            b.store().tracker().stats().bytes_read,
            "both sessions must model identical I/O for the same access"
        );
    }
}
