//! Exploration backends: the two storage schemes under comparison.
//!
//! The paper evaluates one IDE system (REQUEST) "with two schemes, one
//! incorporating UEI, and one utilizing MySQL" (§4). The
//! [`ExplorationBackend`] trait is the seam between the shared exploration
//! loop and those schemes:
//!
//! - [`UeiBackend`] — Algorithm 2: keeps a uniform sample `U` in memory,
//!   asks the Uncertainty Estimation Index for the most uncertain subspace
//!   each iteration, and selects the next example from `U ∪ g*`;
//! - [`DbmsBackend`] — Algorithm 1 over the MySQL-like row store: each
//!   iteration performs the exhaustive uncertainty scan over the whole
//!   table through a restricted buffer pool.

use std::sync::Arc;

use uei_dbms::buffer::BufferPool;
use uei_dbms::scan::exhaustive_most_uncertain;
use uei_dbms::table::Table;
use uei_index::config::UeiConfig;
use uei_index::engine::EngineCore;
use uei_index::uei::{LoadSource, UeiIndex};
use uei_learn::dataset::{LabeledSet, UnlabeledPool};
use uei_learn::strategy::{QueryStrategy, RandomSampling, UncertaintyMeasure, UncertaintySampling};
use uei_learn::Classifier;
use uei_obs::{FlightEventKind, ObsCounters, PhaseMs, SessionTelemetry};
use uei_storage::store::ColumnStore;
use uei_types::{DataPoint, Result, Rng, RowId, Schema, UeiError};

/// Per-selection diagnostics reported by a backend.
#[derive(Debug, Default, Clone)]
pub struct SelectionInfo {
    /// UEI: the chosen cell id.
    pub cell: Option<usize>,
    /// UEI: rows in the loaded region.
    pub region_rows: Option<usize>,
    /// UEI: whether the region came from the prefetcher.
    pub prefetched: bool,
    /// UEI: current candidate-pool size.
    pub pool_size: Option<usize>,
    /// The modeled per-selection observability counters (cache traffic,
    /// degradation ladder, rescoring work), deltas over this selection.
    /// See [`ObsCounters`] for per-field docs; `degraded` means the final
    /// rung fired and the selection was served from the resident pool `U`.
    pub counters: ObsCounters,
    /// Stamped by the session driver (never by backends): the selection
    /// happened in a session resumed from its journal after a crash.
    pub recovered: bool,
    /// DBMS: tuples examined by the exhaustive scan.
    pub examined: Option<u64>,
    /// Wall/virtual phase-timing breakdown of this selection (empty when
    /// telemetry is disabled — purely observational, never modeled).
    pub phase_ms: Vec<PhaseMs>,
}

/// A storage scheme the exploration loop can run on.
pub trait ExplorationBackend {
    /// Scheme name for reports ("uei" / "dbms").
    fn name(&self) -> &'static str;

    /// Dataset schema.
    fn schema(&self) -> &Schema;

    /// Number of rows in the dataset.
    fn num_rows(&self) -> u64;

    /// Uniformly samples `k` rows (used for bootstrap and for the
    /// harness's evaluation sample). Charged to the shared I/O model.
    fn sample_rows(&mut self, k: usize, rng: &mut Rng) -> Result<Vec<DataPoint>>;

    /// Fetches specific rows by id (the substitute for REQUEST's
    /// data-reduction stage when bootstrap sampling finds no positive).
    fn fetch_rows(&mut self, ids: &[u64]) -> Result<Vec<DataPoint>>;

    /// Selects the next example to present for labeling, given the current
    /// model. Must never return an already-labeled row.
    fn select_next(
        &mut self,
        model: &dyn Classifier,
        labeled: &LabeledSet,
    ) -> Result<Option<(DataPoint, SelectionInfo)>>;

    /// Informs the backend that `id` has been labeled (leaves any pools).
    fn mark_labeled(&mut self, id: RowId);

    /// Final result retrieval (Algorithm 2 line 26): row ids the model
    /// classifies positive, ascending, via a full pass over the dataset.
    fn retrieve_results(&mut self, model: &dyn Classifier) -> Result<Vec<u64>>;

    /// The backend's session telemetry handle, when it has one. The
    /// exploration session records its own phase spans (model refit, eval,
    /// journal appends) through this; backends without telemetry (DBMS)
    /// return `None` and the session runs uninstrumented.
    fn telemetry(&self) -> Option<&SessionTelemetry> {
        None
    }
}

/// Chunk evictions within a single selection at or above this count are
/// logged to the flight recorder as an eviction storm.
const EVICTION_STORM_THRESHOLD: u64 = 32;

/// Rows per block in final-result retrieval. Retrieval streams the dataset
/// and scores it block-at-a-time through [`Classifier::predict_proba_batch`],
/// so the scan keeps its sequential I/O pattern while the model evaluation
/// fans out; well above the batch layer's parallel threshold.
const RETRIEVE_BLOCK_ROWS: usize = 4096;

/// Scores one buffered block and appends the ids classified positive
/// (posterior ≥ 0.5, the same threshold as [`Classifier::predict`]) in
/// block order. Clears the block for reuse.
fn flush_retrieve_block(model: &dyn Classifier, block: &mut Vec<DataPoint>, out: &mut Vec<u64>) {
    let refs: Vec<&[f64]> = block.iter().map(|p| p.values.as_slice()).collect();
    let probs = model.predict_proba_batch(&refs);
    for (point, prob) in block.iter().zip(probs) {
        if prob >= 0.5 {
            out.push(point.id.as_u64());
        }
    }
    block.clear();
}

/// The shared body of [`ExplorationBackend::retrieve_results`]: drives any
/// row-streaming `scan` (the UEI column store's `scan_all`, the DBMS heap
/// scan), buffers rows into [`RETRIEVE_BLOCK_ROWS`]-sized blocks, and scores
/// each block through the batch prediction path. Returned ids are in stream
/// order — callers whose scan is not id-ordered sort afterwards.
fn retrieve_streaming<S>(model: &dyn Classifier, scan: S) -> Result<Vec<u64>>
where
    S: FnOnce(&mut dyn FnMut(DataPoint)) -> Result<()>,
{
    let mut out = Vec::new();
    let mut block = Vec::with_capacity(RETRIEVE_BLOCK_ROWS);
    scan(&mut |p| {
        block.push(p);
        if block.len() >= RETRIEVE_BLOCK_ROWS {
            flush_retrieve_block(model, &mut block, &mut out);
        }
    })?;
    flush_retrieve_block(model, &mut block, &mut out);
    Ok(out)
}

// ---------------------------------------------------------------------------
// UEI scheme
// ---------------------------------------------------------------------------

/// The UEI scheme (Algorithm 2).
pub struct UeiBackend {
    index: UeiIndex,
    pool: UnlabeledPool,
    strategy: Box<dyn QueryStrategy + Send>,
    gamma: usize,
    /// Training length of the model at the last rescoring pass. The
    /// exploration loop always retrains on the full (append-only) labeled
    /// set, so the labeled entries between this watermark and the current
    /// model's [`Classifier::training_len`] are exactly the examples the
    /// model gained since the index points were last scored — the
    /// influence sources for incremental invalidation. Tracking the
    /// *training* length (not the labeled-set length) matters: labels
    /// accrue for several iterations before one retrain folds them all in,
    /// and every one of them must participate in the dirty test.
    rescored_train_len: usize,
}

impl UeiBackend {
    /// Builds the scheme over an initialized column store — the paper's
    /// single-analyst setting: the one session of a private [`EngineCore`]
    /// (lines 7–11), its unlabeled cache `U` filled with a uniform sample
    /// of `gamma` rows (line 12). `store`'s tracker becomes the engine's
    /// physical I/O ledger; the session's modeled clock is
    /// `backend.index().store().tracker()`, as for [`Self::from_engine`].
    pub fn new(
        store: Arc<ColumnStore>,
        config: UeiConfig,
        measure: UncertaintyMeasure,
        gamma: usize,
        rng: &mut Rng,
    ) -> Result<UeiBackend> {
        Self::from_engine(&EngineCore::with_measure(store, config, measure)?, gamma, rng)
    }

    /// Builds the scheme as one session of a shared [`EngineCore`]: the
    /// store, manifest, grid, mapping, and decoded-chunk cache are shared
    /// with every other session of the engine (by `Arc`, zero data copies),
    /// while the index-point scores, unlabeled cache `U`, virtual disk
    /// clock, and degradation counters are private to this backend.
    ///
    /// The per-session I/O model lives on the session's store handle:
    /// drive the returned backend with an
    /// [`ExplorationSession`](crate::session::ExplorationSession) built
    /// over `backend.index().store().tracker()`.
    pub fn from_engine(engine: &EngineCore, gamma: usize, rng: &mut Rng) -> Result<UeiBackend> {
        let index = engine.open_session()?;
        let regions_in_memory = index.config().regions_in_memory;
        let sample = index.sample_unlabeled(gamma, rng)?;
        Ok(UeiBackend {
            index,
            pool: UnlabeledPool::with_region_capacity(sample, regions_in_memory),
            strategy: Box::new(UncertaintySampling::new(engine.measure())),
            gamma,
            rescored_train_len: 0,
        })
    }

    /// Replaces the example-selection strategy (default: uncertainty
    /// sampling). [`RandomSampling`] gives the classic "is active learning
    /// worth it" baseline; query-by-committee plugs in the same way.
    pub fn set_strategy(&mut self, strategy: Box<dyn QueryStrategy + Send>) {
        self.strategy = strategy;
    }

    /// Convenience: switch to uniform random selection with a seed.
    pub fn use_random_strategy(&mut self, seed: u64) {
        self.strategy = Box::new(RandomSampling::new(seed));
    }

    /// The underlying index (diagnostics).
    pub fn index(&self) -> &UeiIndex {
        &self.index
    }

    /// The configured uniform-sample size γ.
    pub fn gamma(&self) -> usize {
        self.gamma
    }
}

impl ExplorationBackend for UeiBackend {
    fn name(&self) -> &'static str {
        "uei"
    }

    fn schema(&self) -> &Schema {
        self.index.store().schema()
    }

    fn num_rows(&self) -> u64 {
        self.index.store().num_rows()
    }

    fn sample_rows(&mut self, k: usize, rng: &mut Rng) -> Result<Vec<DataPoint>> {
        self.index.store().sample_rows(k, rng)
    }

    fn fetch_rows(&mut self, ids: &[u64]) -> Result<Vec<DataPoint>> {
        self.index.store().fetch_rows(ids)
    }

    fn select_next(
        &mut self,
        model: &dyn Classifier,
        labeled: &LabeledSet,
    ) -> Result<Option<(DataPoint, SelectionInfo)>> {
        // Lines 15–20: rescore index points, load the most uncertain
        // region, swap it into U. A `Retained` load means the deferral
        // logic kept the previous region current — it is already in the
        // pool, so nothing is swapped.
        let cache_before = self.index.cache_stats();
        let bg_before = self.index.background_io().map_or(0, |s| s.bytes_read);
        let degrade_before = self.index.degrade_counters();
        let rescore_before = self.index.rescore_counters();
        let shards_before = self.index.shards_touched();
        let tel = self.index.telemetry().clone();
        let phase_before = tel.phase_snapshot();
        match model.training_len() {
            // The labeled entries between the previous and current training
            // lengths are exactly the examples the model gained since the
            // last rescore (the loop retrains on the full append-only
            // labeled set). An unchanged model yields an empty slice — and
            // an empty dirty set; a model whose training data is not drawn
            // from `labeled` (external bootstrap) clamps to a harmless
            // superset of labeled entries.
            Some(train_len) => {
                let entries = labeled.entries();
                let to = train_len.min(entries.len());
                let from = self.rescored_train_len.min(to);
                let added: Vec<&[f64]> =
                    entries[from..to].iter().map(|(p, _)| p.values.as_slice()).collect();
                self.index.update_uncertainty_incremental(model, &added);
                self.rescored_train_len = to;
            }
            // No training size ⇒ no way to recover what changed ⇒ full
            // rescore (committees and other opaque models).
            None => self.index.update_uncertainty(model),
        }
        let rescore = self.index.rescore_counters().since(&rescore_before);
        let shards_touched = self.index.shards_touched() - shards_before;
        let (cell, region_rows, prefetched, degraded) = match self.index.select_and_load() {
            Ok(load) => {
                let region_rows = if load.source == LoadSource::Retained {
                    self.pool.region_len()
                } else {
                    load.rows.len()
                };
                if load.source != LoadSource::Retained {
                    let fresh: Vec<DataPoint> =
                        load.rows.into_iter().filter(|p| !labeled.contains(p.id)).collect();
                    self.pool.swap_region(fresh);
                }
                (Some(load.cell), Some(region_rows), load.source == LoadSource::Prefetched, false)
            }
            // Final degradation rung: every ranked candidate failed with a
            // storage fault. The iteration still proceeds — the resident
            // cache `U` stays current and the selection below samples the
            // most uncertain point it already holds.
            Err(e) if e.is_storage_fault() => (None, None, false, true),
            Err(e) => return Err(e),
        };
        let cache_delta = self.index.cache_stats().since(&cache_before);
        let prefetch_bytes_read =
            self.index.background_io().map_or(0, |s| s.bytes_read) - bg_before;
        let degrade = self.index.degrade_counters().since(&degrade_before);

        let iteration = labeled.len() as u64;
        if degraded {
            tel.event(FlightEventKind::DegradedIteration, iteration, || {
                "every ranked candidate failed; selection served from resident pool U".to_string()
            });
        }
        // A burst of evictions within one selection means the working set
        // outgrew the cache — worth a flight-recorder breadcrumb.
        if cache_delta.evictions >= EVICTION_STORM_THRESHOLD {
            tel.event(FlightEventKind::EvictionStorm, iteration, || {
                format!("{} chunk evictions in one selection", cache_delta.evictions)
            });
        }

        // Line 21: uncertainty sampling over U.
        let candidates = self.pool.candidates();
        let info = SelectionInfo {
            cell,
            region_rows,
            prefetched,
            pool_size: Some(candidates.len()),
            counters: ObsCounters {
                cache_hits: cache_delta.hits,
                cache_misses: cache_delta.misses,
                cache_evictions: cache_delta.evictions,
                cache_bypasses: cache_delta.bypasses,
                prefetch_bytes_read,
                retries: degrade.retries,
                fallback_cells: degrade.fallback_cells,
                degraded,
                points_rescored: rescore.points_rescored,
                shards_touched,
                points_cached: rescore.points_cached,
            },
            recovered: false,
            examined: None,
            phase_ms: tel.breakdown_since(&phase_before),
        };
        match self.strategy.select(model, &candidates) {
            Some(idx) => {
                let point = candidates[idx].clone();
                self.pool.remove(point.id);
                Ok(Some((point, info)))
            }
            None => Ok(None),
        }
    }

    fn mark_labeled(&mut self, id: RowId) {
        self.pool.remove(id);
    }

    fn retrieve_results(&mut self, model: &dyn Classifier) -> Result<Vec<u64>> {
        // scan_all streams in ascending id order, so the stream-ordered
        // output is already ascending without a final sort.
        let store = self.index.store();
        retrieve_streaming(model, |emit| store.scan_all(emit))
    }

    fn telemetry(&self) -> Option<&SessionTelemetry> {
        Some(self.index.telemetry())
    }
}

// ---------------------------------------------------------------------------
// DBMS scheme
// ---------------------------------------------------------------------------

/// The MySQL-like scheme (Algorithm 1 over the row store).
pub struct DbmsBackend {
    table: Table,
    pool: BufferPool,
    measure: UncertaintyMeasure,
}

impl DbmsBackend {
    /// Opens the scheme over a table with a buffer pool of
    /// `buffer_pool_pages` pages charged to `tracker` — the experiment
    /// harness sizes the pool to the paper's ~1 % memory restriction.
    pub fn new(
        table: Table,
        buffer_pool_pages: usize,
        tracker: uei_storage::DiskTracker,
        measure: UncertaintyMeasure,
    ) -> Result<DbmsBackend> {
        Ok(DbmsBackend { pool: BufferPool::new(buffer_pool_pages, tracker)?, table, measure })
    }

    /// Builds the scheme with an explicit buffer pool (the pool carries the
    /// shared [`uei_storage::DiskTracker`]).
    pub fn with_pool(table: Table, pool: BufferPool, measure: UncertaintyMeasure) -> DbmsBackend {
        DbmsBackend { table, pool, measure }
    }

    /// The table (diagnostics).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Buffer-pool statistics.
    pub fn buffer_stats(&self) -> uei_dbms::buffer::BufferStats {
        self.pool.stats()
    }
}

impl ExplorationBackend for DbmsBackend {
    fn name(&self) -> &'static str {
        "dbms"
    }

    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    fn num_rows(&self) -> u64 {
        self.table.num_rows()
    }

    fn sample_rows(&mut self, k: usize, rng: &mut Rng) -> Result<Vec<DataPoint>> {
        // `SELECT … ORDER BY RAND() LIMIT k`: a full scan with reservoir
        // sampling.
        let mut reservoir: Vec<DataPoint> = Vec::with_capacity(k);
        let mut seen = 0usize;
        self.table.scan(&mut self.pool, |p| {
            seen += 1;
            if reservoir.len() < k {
                reservoir.push(p);
            } else {
                let j = rng.below_usize(seen);
                if j < k {
                    reservoir[j] = p;
                }
            }
        })?;
        Ok(reservoir)
    }

    fn fetch_rows(&mut self, ids: &[u64]) -> Result<Vec<DataPoint>> {
        // No row-id index on the heap: a full scan with an id filter.
        let want: std::collections::HashSet<u64> = ids.iter().copied().collect();
        let rows = self.table.filter(&mut self.pool, |p| want.contains(&p.id.as_u64()))?;
        if rows.len() != want.len() {
            return Err(UeiError::not_found(format!(
                "{} of {} requested rows missing",
                want.len() - rows.len(),
                want.len()
            )));
        }
        Ok(rows)
    }

    fn select_next(
        &mut self,
        model: &dyn Classifier,
        labeled: &LabeledSet,
    ) -> Result<Option<(DataPoint, SelectionInfo)>> {
        let outcome =
            exhaustive_most_uncertain(&self.table, &mut self.pool, model, self.measure, |id| {
                labeled.contains(id)
            })?;
        let info = SelectionInfo { examined: Some(outcome.examined), ..SelectionInfo::default() };
        Ok(outcome.best.map(|p| (p, info)))
    }

    fn mark_labeled(&mut self, _id: RowId) {
        // Nothing cached per-row; the scan filter handles labeled rows.
    }

    fn retrieve_results(&mut self, model: &dyn Classifier) -> Result<Vec<u64>> {
        let table = &self.table;
        let pool = &mut self.pool;
        let mut out = retrieve_streaming(model, |emit| table.scan(pool, emit))?;
        out.sort_unstable();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use uei_storage::io::{DiskTracker, IoProfile};
    use uei_storage::store::StoreConfig;
    use uei_types::Label;

    fn sdss_rows(n: usize) -> Vec<DataPoint> {
        crate::synth::generate_sdss_like(&crate::synth::SynthConfig {
            rows: n,
            ..Default::default()
        })
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "uei-backend-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A backend plus its session's modeled clock.
    fn uei_backend(tag: &str, n: usize) -> (UeiBackend, DiskTracker, PathBuf) {
        let dir = temp_dir(tag);
        let store = ColumnStore::create(
            dir.join("store"),
            uei_types::Schema::sdss(),
            &sdss_rows(n),
            StoreConfig { chunk_target_bytes: 4096 },
            DiskTracker::new(IoProfile::instant()),
        )
        .unwrap();
        let mut rng = Rng::new(3);
        let backend = UeiBackend::new(
            Arc::new(store),
            UeiConfig { cells_per_dim: 3, ..UeiConfig::default() },
            UncertaintyMeasure::LeastConfidence,
            200,
            &mut rng,
        )
        .unwrap();
        let tracker = backend.index().store().tracker().clone();
        (backend, tracker, dir)
    }

    fn dbms_backend(tag: &str, n: usize) -> (DbmsBackend, DiskTracker, PathBuf) {
        let dir = temp_dir(tag);
        let tracker = DiskTracker::new(IoProfile::instant());
        let table =
            Table::create(dir.join("table"), uei_types::Schema::sdss(), &sdss_rows(n), &tracker)
                .unwrap();
        let pool = BufferPool::new(4, tracker.clone()).unwrap();
        let backend = DbmsBackend::with_pool(table, pool, UncertaintyMeasure::LeastConfidence);
        (backend, tracker, dir)
    }

    fn trained_model(backend: &mut dyn ExplorationBackend) -> impl Classifier {
        let mut rng = Rng::new(9);
        let sample = backend.sample_rows(50, &mut rng).unwrap();
        // Arbitrary but consistent teacher: ra < 180 is positive.
        let examples: Vec<(Vec<f64>, Label)> = sample
            .iter()
            .map(|p| (p.values.clone(), Label::from_bool(p.values[2] < 180.0)))
            .collect();
        uei_learn::ScaledClassifier::train(
            uei_learn::EstimatorKind::Dwknn { k: 5 },
            uei_learn::MinMaxScaler::from_schema(backend.schema()),
            &examples,
        )
        .unwrap()
    }

    #[test]
    fn uei_backend_selects_unlabeled_points() {
        let (mut backend, _, dir) = uei_backend("select", 3000);
        let model = trained_model(&mut backend);
        let labeled = LabeledSet::new();
        let (point, info) = backend.select_next(&model, &labeled).unwrap().unwrap();
        assert_eq!(point.dims(), 5);
        assert!(info.cell.is_some());
        assert!(info.region_rows.is_some());
        assert!(info.pool_size.unwrap() > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uei_backend_never_reselects_labeled() {
        let (mut backend, _, dir) = uei_backend("noreselect", 2000);
        let model = trained_model(&mut backend);
        let mut labeled = LabeledSet::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10 {
            let (point, _) = backend.select_next(&model, &labeled).unwrap().unwrap();
            assert!(seen.insert(point.id), "row {} selected twice", point.id);
            labeled.add(point.clone(), Label::Positive).unwrap();
            backend.mark_labeled(point.id);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn random_strategy_differs_from_uncertainty() {
        let (mut backend, _, dir) = uei_backend("strategy", 2000);
        let model = trained_model(&mut backend);
        let labeled = LabeledSet::new();
        // Uncertainty sampling picks the argmax (and removes it from the
        // pool, so successive calls walk down the ranking).
        let (uncertain_pick, _) = backend.select_next(&model, &labeled).unwrap().unwrap();
        let u_first = model.uncertainty(&uncertain_pick.values);
        let (runner_up, _) = backend.select_next(&model, &labeled).unwrap().unwrap();
        assert!(model.uncertainty(&runner_up.values) <= u_first + 1e-12);

        backend.use_random_strategy(7);
        let mut random_ids = std::collections::HashSet::new();
        for _ in 0..5 {
            let (p, _) = backend.select_next(&model, &labeled).unwrap().unwrap();
            random_ids.insert(p.id);
        }
        assert!(random_ids.len() > 1, "random selection varies across draws");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dbms_backend_scans_whole_table_per_selection() {
        let (mut backend, tracker, dir) = dbms_backend("scanall", 3000);
        let model = trained_model(&mut backend);
        let labeled = LabeledSet::new();
        let before = tracker.snapshot();
        let (_, info) = backend.select_next(&model, &labeled).unwrap().unwrap();
        assert_eq!(info.examined, Some(3000));
        assert_eq!(
            tracker.delta(&before).stats.bytes_read,
            backend.table().size_bytes(),
            "exhaustive scan reads the full table"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uei_selection_reads_less_than_dbms_selection() {
        // The core claim, end to end: a UEI iteration touches a fraction
        // of what the DBMS iteration reads.
        let n = 4000;
        let (mut uei, uei_tracker, d1) = uei_backend("cmp1", n);
        let (mut dbms, dbms_tracker, d2) = dbms_backend("cmp2", n);
        let model_u = trained_model(&mut uei);
        let model_d = trained_model(&mut dbms);
        let labeled = LabeledSet::new();

        let before = uei_tracker.snapshot();
        uei.select_next(&model_u, &labeled).unwrap().unwrap();
        let uei_bytes = uei_tracker.delta(&before).stats.bytes_read;

        let before = dbms_tracker.snapshot();
        dbms.select_next(&model_d, &labeled).unwrap().unwrap();
        let dbms_bytes = dbms_tracker.delta(&before).stats.bytes_read;

        assert!(uei_bytes * 3 < dbms_bytes, "UEI read {uei_bytes} B vs DBMS {dbms_bytes} B");
        std::fs::remove_dir_all(&d1).unwrap();
        std::fs::remove_dir_all(&d2).unwrap();
    }

    #[test]
    fn both_backends_retrieve_consistent_results() {
        let n = 2000;
        let (mut uei, _, d1) = uei_backend("res1", n);
        let (mut dbms, _, d2) = dbms_backend("res2", n);
        let model = trained_model(&mut uei);
        let from_uei = uei.retrieve_results(&model).unwrap();
        let from_dbms = dbms.retrieve_results(&model).unwrap();
        assert_eq!(from_uei, from_dbms, "same data + same model ⇒ same result set");
        assert!(!from_uei.is_empty());
        std::fs::remove_dir_all(&d1).unwrap();
        std::fs::remove_dir_all(&d2).unwrap();
    }

    #[test]
    fn sample_and_fetch_round_trip() {
        for which in 0..2 {
            let (mut backend, dir): (Box<dyn ExplorationBackend>, PathBuf) = if which == 0 {
                let (b, _, d) = uei_backend("rt1", 1000);
                (Box::new(b), d)
            } else {
                let (b, _, d) = dbms_backend("rt2", 1000);
                (Box::new(b), d)
            };
            let mut rng = Rng::new(5);
            let sample = backend.sample_rows(20, &mut rng).unwrap();
            assert_eq!(sample.len(), 20);
            let ids: Vec<u64> = sample.iter().map(|p| p.id.as_u64()).collect();
            let fetched = backend.fetch_rows(&ids).unwrap();
            assert_eq!(fetched.len(), 20);
            let mut fetched_sorted = fetched.clone();
            fetched_sorted.sort_by_key(|p| p.id);
            let mut sample_sorted = sample.clone();
            sample_sorted.sort_by_key(|p| p.id);
            assert_eq!(fetched_sorted, sample_sorted);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
