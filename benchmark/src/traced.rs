//! The traced driver: an [`ExplorationBackend`] owned by the benchmark that
//! composes the same public pieces as `UeiBackend` (a `UeiIndex` opened
//! from the `EngineCore`, an `UnlabeledPool`, `UncertaintySampling`) in the
//! order `UeiBackend::select_next` calls them, with a span around each
//! call. The traced run checks that this driver shows the user the same
//! examples at the same modeled cost as `UeiBackend` does.

use std::rc::Rc;
use std::time::Instant;

use uei_explore::backend::{ExplorationBackend, SelectionInfo};
use uei_index::uei::{LoadSource, UeiIndex};
use uei_index::EngineCore;
use uei_learn::dataset::{LabeledSet, UnlabeledPool};
use uei_learn::strategy::{QueryStrategy, UncertaintySampling};
use uei_learn::Classifier;
use uei_types::{DataPoint, Result, Rng, RowId, Schema};

use crate::span::{Span, SpanId, SpanLog};

/// What one `select_next` observed, beyond its spans.
#[derive(Debug, Clone, Default)]
pub struct IterationProbe {
    /// `None` when every ranked cell failed and `U` alone served.
    pub cell: Option<usize>,
    /// Row ids of a freshly loaded region, for the brute-force check.
    pub loaded_ids: Option<Vec<u64>>,
    pub prefetched: bool,
    pub region_load_ns: u64,
    pub chunks_loaded: u64,
    pub chunks_reused: u64,
    pub entries_matched: u64,
    pub result_rows: u64,
    pub region_rows: u64,
    pub candidates: u64,
    pub points_rescored: u64,
    pub points_cached: u64,
    pub shards_touched: u64,
    pub shards_pruned: u64,
}

/// Span log and per-iteration observations shared between the session
/// loop (which opens the `explore.step` span) and the backend inside it.
pub struct Tracer {
    pub log: SpanLog,
    step: std::cell::Cell<Option<SpanId>>,
    probes: std::cell::RefCell<Vec<IterationProbe>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Rc<Tracer> {
        Rc::new(Tracer {
            log: SpanLog::new(epoch),
            step: std::cell::Cell::new(None),
            probes: std::cell::RefCell::new(Vec::new()),
        })
    }

    /// Opens the `explore.step` span of one iteration.
    pub fn begin_step(&self, session: u32, iteration: u32) -> SpanId {
        let id = self.log.open("explore.step", None, session, iteration);
        self.step.set(Some(id));
        id
    }

    /// Closes it; returns the step's wall time in nanoseconds.
    pub fn end_step(&self, id: SpanId) -> u64 {
        self.step.set(None);
        self.log.close(id)
    }

    pub fn take_probes(&self) -> Vec<IterationProbe> {
        std::mem::take(&mut self.probes.borrow_mut())
    }
}

/// `UeiBackend`, re-composed from public pieces with spans between them.
pub struct TracedBackend {
    index: UeiIndex,
    pool: UnlabeledPool,
    strategy: UncertaintySampling,
    /// Training length of the model at the last rescoring pass (see
    /// `UeiBackend::rescored_train_len`).
    rescored_train_len: usize,
    tracer: Rc<Tracer>,
    /// Wall time of `EngineCore::open_session` for this backend.
    pub open_session_ns: u64,
}

impl TracedBackend {
    /// Mirrors `UeiBackend::from_engine`.
    pub fn open(
        engine: &EngineCore,
        gamma: usize,
        rng: &mut Rng,
        tracer: Rc<Tracer>,
    ) -> Result<TracedBackend> {
        let t = Instant::now();
        let index = engine.open_session()?;
        let open_session_ns = t.elapsed().as_nanos() as u64;
        let regions_in_memory = index.config().regions_in_memory;
        let sample = index.sample_unlabeled(gamma, rng)?;
        Ok(TracedBackend {
            index,
            pool: UnlabeledPool::with_region_capacity(sample, regions_in_memory),
            strategy: UncertaintySampling::new(engine.measure()),
            rescored_train_len: 0,
            tracer,
            open_session_ns,
        })
    }

    pub fn index(&self) -> &UeiIndex {
        &self.index
    }
}

impl ExplorationBackend for TracedBackend {
    fn name(&self) -> &'static str {
        // The journal pins the backend name; the traced driver must write
        // the journal `UeiBackend` would.
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
        let log = &self.tracer.log;
        let step = self.tracer.step.get();
        let (session, iteration) = step.map_or((0, 0), |id| {
            let s = log.get(id);
            (s.session, s.iteration)
        });
        // `step` spends the time before this call on the refit alone.
        let entered = log.now_ns();
        if let Some(id) = step {
            let start_ns = log.get(id).start_ns;
            log.push(Span {
                name: "learn.refit",
                start_ns,
                end_ns: entered,
                parent: step,
                session,
                iteration,
            });
        }
        let select_next = log.push(Span {
            name: "explore.select_next",
            start_ns: entered,
            end_ns: entered,
            parent: step,
            session,
            iteration,
        });
        let open = |name| log.open(name, Some(select_next), session, iteration);

        let cache_before = self.index.cache_stats();
        let bg_before = self.index.background_io().map_or(0, |s| s.bytes_read);
        let degrade_before = self.index.degrade_counters();
        let rescore_before = self.index.rescore_counters();
        let touched_before = self.index.points().shards_touched();
        let pruned_before = self.index.points().shards_pruned();

        let span = open("index.rescore");
        match model.training_len() {
            Some(train_len) => {
                let entries = labeled.entries();
                let to = train_len.min(entries.len());
                let from = self.rescored_train_len.min(to);
                let added: Vec<&[f64]> =
                    entries[from..to].iter().map(|(p, _)| p.values.as_slice()).collect();
                self.index.update_uncertainty_incremental(model, &added);
                self.rescored_train_len = to;
            }
            None => self.index.update_uncertainty(model),
        }
        log.close(span);
        let rescore = self.index.rescore_counters().since(&rescore_before);
        let shards_touched = self.index.points().shards_touched() - touched_before;
        let shards_pruned = self.index.points().shards_pruned() - pruned_before;

        let mut probe = IterationProbe {
            points_rescored: rescore.points_rescored,
            points_cached: rescore.points_cached,
            shards_touched,
            shards_pruned,
            ..IterationProbe::default()
        };

        let span = open("index.select_and_load");
        let loaded = self.index.select_and_load();
        log.close(span);
        let (cell, region_rows, prefetched, degraded) = match loaded {
            Ok(load) => {
                // The loader timed the region reconstruction itself; place
                // it at the end of the call that contains it.
                let outer = log.get(span);
                let load_ns = load.stats.wall_time.as_nanos() as u64;
                log.push(Span {
                    name: "storage.region_load",
                    start_ns: outer.end_ns.saturating_sub(load_ns).max(outer.start_ns),
                    end_ns: outer.end_ns,
                    parent: Some(span),
                    session,
                    iteration,
                });
                probe.region_load_ns = load_ns;
                probe.chunks_loaded = load.stats.merge.chunks_loaded;
                probe.chunks_reused = load.stats.merge.chunks_reused;
                probe.entries_matched = load.stats.merge.entries_matched;
                probe.result_rows = load.stats.merge.result_rows;
                let retained = load.source == LoadSource::Retained;
                let region_rows = if retained { self.pool.region_len() } else { load.rows.len() };
                if !retained {
                    probe.loaded_ids = Some(load.rows.iter().map(|p| p.id.as_u64()).collect());
                    let span = open("learn.pool");
                    let fresh: Vec<DataPoint> =
                        load.rows.into_iter().filter(|p| !labeled.contains(p.id)).collect();
                    self.pool.swap_region(fresh);
                    log.close(span);
                }
                (Some(load.cell), Some(region_rows), load.source == LoadSource::Prefetched, false)
            }
            Err(e) if e.is_storage_fault() => (None, None, false, true),
            Err(e) => return Err(e),
        };
        probe.cell = cell;
        probe.prefetched = prefetched;
        probe.region_rows = region_rows.unwrap_or(0) as u64;

        let cache_delta = self.index.cache_stats().since(&cache_before);
        let prefetch_bytes_read =
            self.index.background_io().map_or(0, |s| s.bytes_read) - bg_before;
        let degrade = self.index.degrade_counters().since(&degrade_before);

        let span = open("learn.pool");
        let candidates = self.pool.candidates();
        log.close(span);
        probe.candidates = candidates.len() as u64;

        let mut info = SelectionInfo {
            cell,
            region_rows,
            prefetched,
            pool_size: Some(candidates.len()),
            ..SelectionInfo::default()
        };
        info.counters.cache_hits = cache_delta.hits;
        info.counters.cache_misses = cache_delta.misses;
        info.counters.cache_evictions = cache_delta.evictions;
        info.counters.cache_bypasses = cache_delta.bypasses;
        info.counters.prefetch_bytes_read = prefetch_bytes_read;
        info.counters.retries = degrade.retries;
        info.counters.fallback_cells = degrade.fallback_cells;
        info.counters.degraded = degraded;
        info.counters.points_rescored = rescore.points_rescored;
        info.counters.shards_touched = shards_touched;
        info.counters.points_cached = rescore.points_cached;

        let span = open("learn.sample_select");
        let picked = self.strategy.select(model, &candidates);
        log.close(span);
        let selected = picked.map(|idx| {
            let point = candidates[idx].clone();
            self.pool.remove(point.id);
            (point, info)
        });
        self.tracer.probes.borrow_mut().push(probe);
        log.close(select_next);
        Ok(selected)
    }

    fn mark_labeled(&mut self, id: RowId) {
        self.pool.remove(id);
    }

    fn retrieve_results(&mut self, model: &dyn Classifier) -> Result<Vec<u64>> {
        // `UeiBackend::retrieve_results`: stream the store in id order and
        // score it in blocks through the batch prediction path.
        const BLOCK_ROWS: usize = 4096;
        fn flush(model: &dyn Classifier, block: &mut Vec<DataPoint>, out: &mut Vec<u64>) {
            let refs: Vec<&[f64]> = block.iter().map(|p| p.values.as_slice()).collect();
            let probs = model.predict_proba_batch(&refs);
            out.extend(
                block.iter().zip(probs).filter(|(_, p)| *p >= 0.5).map(|(r, _)| r.id.as_u64()),
            );
            block.clear();
        }
        let mut out = Vec::new();
        let mut block = Vec::with_capacity(BLOCK_ROWS);
        self.index.store().scan_all(|p| {
            block.push(p);
            if block.len() >= BLOCK_ROWS {
                flush(model, &mut block, &mut out);
            }
        })?;
        flush(model, &mut block, &mut out);
        Ok(out)
    }
}
