//! The Uncertainty Estimation Index facade.
//!
//! Ties the components together behind the per-iteration API the
//! exploration loop needs (Algorithm 2):
//!
//! - [`UeiIndex::build`] — lines 7–11: grid, symbolic index points, and the
//!   mapping `m` over an already-initialized column store (one session of
//!   a private [`EngineCore`]; many analysts share one core through
//!   [`EngineCore::open_session`]);
//! - [`UeiIndex::sample_unlabeled`] — line 12: the uniform sample that
//!   seeds the unlabeled cache `U`;
//! - [`UeiIndex::update_uncertainty`] — line 17;
//! - [`UeiIndex::select_and_load`] — lines 18–19: pick `p*`, fetch `g*`
//!   (from the prefetcher when it got there first, otherwise
//!   synchronously), and queue the θ next-most-uncertain cells for
//!   background prefetch.
//!
//! The facade is thin composition: ranking lives on
//! [`crate::points::IndexPoints`] (sharded per DESIGN.md §14, merged by
//! [`crate::select`]), region fetching and the degradation ladder on
//! [`crate::load::RegionFetcher`].

use std::sync::Arc;

use uei_learn::strategy::UncertaintyMeasure;
use uei_learn::Classifier;
use uei_obs::{Phase, SessionTelemetry};
use uei_storage::cache::SharedChunkCache;
use uei_storage::io::IoStats;
use uei_storage::store::ColumnStore;
use uei_types::{DataPoint, Result, Rng};

use crate::config::UeiConfig;
use crate::engine::EngineCore;
use crate::grid::{CellId, Grid};
use crate::load::RegionFetcher;
use crate::loader::{LoadStats, RegionLoader};
use crate::mapping::ChunkMapping;
use crate::points::{IndexPoints, RescoreStats};
use crate::prefetch::Prefetcher;

// Split out of this facade; re-exported so `uei::…` paths keep working.
pub use crate::load::{LoadSource, RegionLoad};
pub use crate::select::DegradeCounters;

/// The Uncertainty Estimation Index.
pub struct UeiIndex {
    store: Arc<ColumnStore>,
    grid: Arc<Grid>,
    mapping: Arc<ChunkMapping>,
    points: IndexPoints,
    fetcher: RegionFetcher,
    config: UeiConfig,
    measure: UncertaintyMeasure,
    /// Cumulative rescoring work (model-scored vs cache-served points).
    rescore_stats: RescoreStats,
    /// Phase spans + flight recorder for this session; inert unless
    /// [`UeiConfig::telemetry`] enables it. Only ever *reads* the virtual
    /// clock, so modeled traces stay bit-identical either way.
    telemetry: SessionTelemetry,
    /// Rescoring passes so far — the iteration stamp on rescore-side
    /// flight events.
    rescore_passes: u64,
}

impl UeiIndex {
    /// Builds the index over an initialized column store (the in-memory
    /// half of the initialization phase; the on-disk half is
    /// [`ColumnStore::create`]): the single-analyst setting of the paper,
    /// i.e. the one session of a private [`EngineCore`].
    pub fn build(store: Arc<ColumnStore>, config: UeiConfig) -> Result<UeiIndex> {
        Self::build_with_measure(store, config, UncertaintyMeasure::LeastConfidence)
    }

    /// [`UeiIndex::build`] with an explicit uncertainty measure.
    ///
    /// `store`'s tracker becomes the engine's physical I/O ledger (chunk
    /// reads, and therefore read-fault injectors, live there); the returned
    /// index's own [`UeiIndex::store`] handle carries the session's modeled
    /// clock.
    pub fn build_with_measure(
        store: Arc<ColumnStore>,
        config: UeiConfig,
        measure: UncertaintyMeasure,
    ) -> Result<UeiIndex> {
        EngineCore::with_measure(store, config, measure)?.open_session()
    }

    /// Assembles a session's index from the parts
    /// [`EngineCore::open_session`] shares (store, grid, mapping) and the
    /// ones it creates per session.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        store: Arc<ColumnStore>,
        grid: Arc<Grid>,
        mapping: Arc<ChunkMapping>,
        points: IndexPoints,
        loader: RegionLoader,
        prefetcher: Option<Prefetcher>,
        config: UeiConfig,
        measure: UncertaintyMeasure,
        telemetry: SessionTelemetry,
    ) -> UeiIndex {
        let mut fetcher = RegionFetcher::new(loader, prefetcher);
        fetcher.set_telemetry(telemetry.clone());
        UeiIndex {
            store,
            grid,
            mapping,
            points,
            fetcher,
            config,
            measure,
            rescore_stats: RescoreStats::default(),
            telemetry,
            rescore_passes: 0,
        }
    }

    /// The grid of subspaces.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The symbolic index points with their current scores.
    pub fn points(&self) -> &IndexPoints {
        &self.points
    }

    /// The chunk mapping `m`.
    pub fn mapping(&self) -> &ChunkMapping {
        &self.mapping
    }

    /// The underlying column store.
    pub fn store(&self) -> &Arc<ColumnStore> {
        &self.store
    }

    /// The active configuration.
    pub fn config(&self) -> &UeiConfig {
        &self.config
    }

    /// The background prefetcher, when enabled (the load-ladder tests
    /// reach it through here).
    #[cfg(test)]
    pub(crate) fn prefetcher(&self) -> Option<&Prefetcher> {
        self.fetcher.prefetcher()
    }

    /// Uniformly samples `gamma` rows for the unlabeled cache `U`
    /// (Algorithm 2 line 12).
    pub fn sample_unlabeled(&self, gamma: usize, rng: &mut Rng) -> Result<Vec<DataPoint>> {
        self.store.sample_rows(gamma, rng)
    }

    /// Re-scores every index point with the freshly trained model
    /// (Algorithm 2 line 17): a full pass that also captures the influence
    /// radii the *next* incremental call prunes against.
    ///
    /// Ready-but-untaken prefetches remain valid as *data* (cell contents
    /// do not change), so they are kept; only their priority was stale, and
    /// `select_and_load` re-ranks every iteration anyway.
    pub fn update_uncertainty(&mut self, model: &dyn Classifier) {
        let _span = self.telemetry.span(Phase::Rescore);
        self.rescore_passes += 1;
        let stats = self.points.update_tracked(model, self.measure);
        self.rescore_stats.accumulate(stats);
    }

    /// [`UeiIndex::update_uncertainty`] with locality-pruned invalidation:
    /// `added` are the raw-space training examples labeled since the last
    /// rescoring pass, and only the index points inside their influence
    /// balls (per the model's [`uei_learn::ModelDelta`]) are rescored — the
    /// rest are served from the score cache. Selection is bit-identical to
    /// a full rescore, and models with global updates (NB, SVM,
    /// committees) fall back to one automatically; see
    /// [`IndexPoints::update_incremental`].
    pub fn update_uncertainty_incremental(&mut self, model: &dyn Classifier, added: &[&[f64]]) {
        let _span = self.telemetry.span(Phase::Rescore);
        self.rescore_passes += 1;
        let stats = self.points.update_incremental(model, self.measure, added);
        self.rescore_stats.accumulate(stats);
    }

    /// Cumulative rescoring work counters: how many index points were
    /// scored through the model versus served from the score cache, summed
    /// over all rescoring passes. Snapshot before an iteration and
    /// [`RescoreStats::since`] after it for per-iteration deltas.
    pub fn rescore_counters(&self) -> RescoreStats {
        self.rescore_stats
    }

    /// Cumulative count of shards recomputed by rescoring passes — the
    /// shard-parallel analogue of [`UeiIndex::rescore_counters`]. Snapshot
    /// and subtract for per-iteration deltas.
    pub fn shards_touched(&self) -> u64 {
        self.points.shards_touched()
    }

    /// This session's telemetry handle: phase spans, flight events, and
    /// the engine's shared metrics registry. Disabled-mode handles are
    /// inert and free to clone.
    pub fn telemetry(&self) -> &SessionTelemetry {
        &self.telemetry
    }

    /// Picks the most uncertain cell and loads its subspace (Algorithm 2
    /// lines 18–19), preferring a completed prefetch; afterwards queues
    /// the θ = ⌈τ/σ⌉ next-most-uncertain cells for background loading.
    /// Swap deferral and the storage-fault fallback ladder are documented
    /// on [`RegionFetcher::select_and_load`].
    pub fn select_and_load(&mut self) -> Result<RegionLoad> {
        self.fetcher.select_and_load(&self.grid, &self.mapping, &self.config, &mut self.points)
    }

    /// How many region swaps were deferred to hold the latency threshold.
    pub fn deferred_swaps(&self) -> u64 {
        self.fetcher.deferred_swaps()
    }

    /// Cumulative graceful-degradation counters (retries, fallbacks,
    /// σ-deadline misses, exhausted selections).
    pub fn degrade_counters(&self) -> DegradeCounters {
        self.fetcher.degrade_counters()
    }

    /// Exponentially weighted recent region load time τ in virtual
    /// seconds — what the prefetch horizon and swap deferral consult.
    pub fn recent_load_secs(&self) -> f64 {
        self.fetcher.loader().recent_load_secs()
    }

    /// This session's chunk-cache statistics: its deterministic
    /// ghost-ledger counters (the prefetcher's lookups are not in them).
    /// The engine-wide aggregate lives on [`EngineCore::cache_stats`].
    pub fn cache_stats(&self) -> uei_storage::cache::CacheStats {
        self.fetcher.loader().cache_stats()
    }

    /// The engine-wide cache shared between this session's loader and
    /// prefetcher and every other session, reached through the session's
    /// ghost view.
    pub fn shared_cache(&self) -> &Arc<SharedChunkCache> {
        self.fetcher.loader().shared_cache()
    }

    /// Background I/O accumulated by the prefetcher, if enabled.
    pub fn background_io(&self) -> Option<IoStats> {
        self.fetcher.prefetcher().map(|p| p.background_io())
    }

    /// Directly loads one cell (diagnostics / ablations).
    pub fn load_cell(&mut self, cell: CellId) -> Result<(Vec<DataPoint>, LoadStats)> {
        self.fetcher.loader_mut().load_cell(&self.grid, &self.mapping, cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{boundary_model, build_store, small_config};
    use std::time::Duration;

    #[test]
    fn build_and_basic_accessors() {
        let (store, _, _dir) = build_store("accessors", 1000);
        let index = UeiIndex::build(Arc::clone(&store), small_config()).unwrap();
        assert_eq!(index.grid().num_cells(), 16);
        assert_eq!(index.points().len(), 16);
        assert!(index.background_io().is_none(), "prefetch disabled by default");
    }

    #[test]
    fn select_and_load_returns_boundary_cell() {
        let (store, rows, _dir) = build_store("boundary", 2000);
        let mut index = UeiIndex::build(Arc::clone(&store), small_config()).unwrap();
        // Boundary at x = 50: most uncertain cells are the two middle
        // columns; with 4 columns, centers at 12.5/37.5/62.5/87.5 the
        // nearest to 50 are columns 1 and 2.
        index.update_uncertainty(&boundary_model(50.0));
        let load = index.select_and_load().unwrap();
        let coords = index.grid().id_to_coords(load.cell).unwrap();
        assert!(coords[0] == 1 || coords[0] == 2, "x-column {} not near boundary", coords[0]);
        assert_eq!(load.source, LoadSource::Synchronous);
        // Loaded rows are exactly the population of the cell.
        let region = index.grid().cell_region(load.cell).unwrap();
        let expected: usize = rows.iter().filter(|p| region.contains(&p.values).unwrap()).count();
        assert_eq!(load.rows.len(), expected);
        assert!(load.stats.virtual_time > Duration::ZERO);
    }

    #[test]
    fn auto_sharded_session_ranks_like_the_global_reference() {
        use uei_learn::{Knn, Weighting};
        use uei_types::Label;
        // 91² = 8281 cells: enough for the automatic sizing to shard the
        // plane, so every iteration's cached per-shard merge is checked
        // against the uncached global ranking on a real session.
        let (store, _, _dir) = build_store("autoshard", 2000);
        let engine = EngineCore::new(
            Arc::clone(&store),
            UeiConfig { cells_per_dim: 91, ..UeiConfig::default() },
        )
        .unwrap();
        let mut index = engine.open_session().unwrap();
        assert!(index.points().num_shards() >= 2, "{} shards", index.points().num_shards());

        let mut examples: Vec<(Vec<f64>, Label)> = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                let p = vec![i as f64 * 25.0 + 12.0, j as f64 * 25.0 + 13.0];
                examples.push((p, Label::from_bool((i + j) % 2 == 0)));
            }
        }
        let theta = 16;
        let mut last_added: Option<Vec<f64>> = None;
        for step in 0..6 {
            let model = Knn::fit(3, Weighting::Dual, &examples).unwrap();
            let added: Vec<&[f64]> = last_added.iter().map(|p| p.as_slice()).collect();
            index.update_uncertainty_incremental(&model, &added);
            let global = index.points.ranked_top(theta).unwrap();
            assert_eq!(index.points.ranked_top_cached(theta).unwrap(), global, "step {step}");
            assert_eq!(index.select_and_load().unwrap().cell, global[0], "step {step}");
            // The next label lands in the region just served.
            let p = index.points().center(global[0]).unwrap().to_vec();
            examples.push((p.clone(), Label::from_bool(step % 2 == 0)));
            last_added = Some(p);
        }
        assert!(index.rescore_counters().points_cached > 0, "later passes were incremental");
    }

    #[test]
    fn loading_a_region_costs_a_fraction_of_full_scan() {
        let (store, _, _dir) = build_store("fraction", 4000);
        let mut index = UeiIndex::build(Arc::clone(&store), small_config()).unwrap();
        index.update_uncertainty(&boundary_model(50.0));
        let before = index.store().tracker().snapshot();
        index.select_and_load().unwrap();
        let region_bytes = index.store().tracker().delta(&before).stats.bytes_read;
        let full_bytes = store.manifest().total_chunk_bytes() + store.rows_file_bytes();
        assert!(
            region_bytes * 3 < full_bytes,
            "one region read {region_bytes} B, full dataset is {full_bytes} B"
        );
    }

    #[test]
    fn cannot_load_before_scoring() {
        let (store, _, _dir) = build_store("unscored", 300);
        let mut index = UeiIndex::build(store, small_config()).unwrap();
        assert!(index.select_and_load().is_err());
    }

    #[test]
    fn sample_unlabeled_draws_from_whole_space() {
        let (store, _, _dir) = build_store("sample", 2000);
        let index = UeiIndex::build(store, small_config()).unwrap();
        let mut rng = Rng::new(1);
        let sample = index.sample_unlabeled(200, &mut rng).unwrap();
        assert_eq!(sample.len(), 200);
        // Sample should span many cells, not cluster in one.
        let mut cells = std::collections::HashSet::new();
        for p in &sample {
            cells.insert(index.grid().cell_of(&p.values).unwrap());
        }
        assert!(cells.len() > 8, "uniform sample covers the grid ({} cells)", cells.len());
    }

    #[test]
    fn uncertainty_moves_with_model() {
        let (store, _, _dir) = build_store("moves", 1000);
        let mut index = UeiIndex::build(store, small_config()).unwrap();
        index.update_uncertainty(&boundary_model(10.0));
        let left = index.grid().id_to_coords(index.points().most_uncertain().unwrap()).unwrap();
        index.update_uncertainty(&boundary_model(90.0));
        let right = index.grid().id_to_coords(index.points().most_uncertain().unwrap()).unwrap();
        assert!(left[0] < right[0], "boundary shift moves the chosen column");
    }

    #[test]
    fn incremental_rescoring_prunes_and_matches_full() {
        use uei_learn::{Knn, Weighting};
        use uei_types::Label;
        let (store, _, _dir) = build_store("increscore", 1500);
        let mut inc = UeiIndex::build(Arc::clone(&store), small_config()).unwrap();
        // The reference takes the full pass every step.
        let mut full = UeiIndex::build(Arc::clone(&store), small_config()).unwrap();

        // Labeled examples spread across the whole 0..100 domain.
        let mut examples: Vec<(Vec<f64>, Label)> = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                let p = vec![i as f64 * 20.0 + 10.0, j as f64 * 20.0 + 10.0];
                examples.push((p, Label::from_bool((i + j) % 2 == 0)));
            }
        }
        let mut last_added: Option<Vec<f64>> = None;
        for step in 0..5 {
            let model = Knn::fit(3, Weighting::Dual, &examples).unwrap();
            match &last_added {
                None => inc.update_uncertainty(&model),
                Some(p) => {
                    let added: Vec<&[f64]> = vec![p.as_slice()];
                    inc.update_uncertainty_incremental(&model, &added);
                }
            }
            full.update_uncertainty(&model);
            assert_eq!(
                inc.points().ranked_top(16).unwrap(),
                full.points().ranked_top(16).unwrap(),
                "step {step}: incremental selection must be bit-identical"
            );
            // One new label near the middle of the domain each step.
            let p = vec![48.0 + step as f64, 52.0 - step as f64];
            examples.push((p.clone(), Label::from_bool(step % 2 == 0)));
            last_added = Some(p);
        }
        let counters = inc.rescore_counters();
        assert!(counters.points_cached > 0, "locality pruning served some points: {counters:?}");
        assert_eq!(counters.points_rescored + counters.points_cached, 5 * 16);
        assert_eq!(full.rescore_counters().points_cached, 0, "full passes never cache");
    }
}
