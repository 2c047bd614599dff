//! Background prefetching of the predicted next uncertain region.
//!
//! Paper §3.2, "Tuning Interactive Exploration": the user sets a response
//! latency threshold σ; when loading a whole subspace within σ is not
//! possible, "UEI would start fetching the corresponding data chunks that
//! \[are\] associated with g*_{i+1} (in the background) θ iterations before
//! g*_{i+1} is loaded into the memory", with θ = ⌈τ/σ⌉ derived from the
//! average region load time τ.
//!
//! The prefetcher runs on its own thread with its **own** [`DiskTracker`]:
//! background I/O overlaps the user's labeling think-time, so its modeled
//! latency does not count against the iteration response time. Its bytes
//! are still reported separately so experiments can account for total I/O.
//!
//! Prediction of "the next region" uses the uncertainty ranking: after the
//! top cell is served, the runner-up cells (the θ next-most-uncertain) are
//! queued, since the boundary — and therefore the ranking — moves slowly
//! between consecutive iterations.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex};
use uei_storage::cache::SharedChunkCache;
use uei_storage::io::{DiskTracker, IoStats};
use uei_storage::merge::{reconstruct_region, MergeStats};
use uei_storage::source::ChunkSource;
use uei_types::{DataPoint, Result, UeiError};

use crate::grid::{CellId, Grid};
use crate::mapping::ChunkMapping;

/// Prefetch horizon θ = ⌈τ/σ⌉ (at least 1 when τ > 0).
pub fn horizon(tau_secs: f64, sigma_secs: f64) -> usize {
    if !(sigma_secs > 0.0) || tau_secs <= 0.0 {
        return 1;
    }
    (tau_secs / sigma_secs).ceil().max(1.0) as usize
}

/// Smoothing factor of the τ estimator: each new load contributes 30%,
/// so roughly the last ~6 loads dominate the estimate. High enough to
/// shed cold-start loads within a handful of iterations, low enough that
/// one outlier load does not whipsaw θ.
pub const TAU_EWMA_ALPHA: f64 = 0.3;

/// An exponentially weighted moving average.
///
/// The θ = ⌈τ/σ⌉ horizon wants the *current* region-load cost, but a plain
/// running mean is dragged indefinitely by cold-start loads: once the
/// chunk cache is warm (or delta reconstruction kicks in), real loads are
/// far cheaper than the mean suggests, and θ stays pinned too high. The
/// EWMA forgets old samples geometrically, so τ tracks the warmed-up
/// steady state after a few loads.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: f64,
    count: u64,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in `(0, 1]`; values
    /// outside that range are clamped. `alpha = 1` degenerates to
    /// "latest sample wins".
    pub fn new(alpha: f64) -> Ewma {
        let alpha = if alpha.is_finite() { alpha.clamp(f64::MIN_POSITIVE, 1.0) } else { 1.0 };
        Ewma { alpha, value: 0.0, count: 0 }
    }

    /// Folds in one sample. The first sample initializes the average
    /// directly (no bias toward zero).
    pub fn push(&mut self, sample: f64) {
        self.count += 1;
        if self.count == 1 {
            self.value = sample;
        } else {
            self.value = self.alpha * sample + (1.0 - self.alpha) * self.value;
        }
    }

    /// The current average, or 0 before any sample.
    pub fn value(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.value
        }
    }

    /// Samples folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl Default for Ewma {
    /// The τ-estimator configuration: [`TAU_EWMA_ALPHA`].
    fn default() -> Ewma {
        Ewma::new(TAU_EWMA_ALPHA)
    }
}

enum Request {
    Load(CellId),
    Shutdown,
}

/// Cap on the `failed` map: without one it grows monotonically over a long
/// exploration session (every cell that ever failed stays resident). The
/// map is diagnostic — a new request for the cell clears its entry anyway —
/// so on overflow an arbitrary older entry is evicted; the cumulative
/// `failed_total` counter is what experiments report.
const MAX_FAILED_CELLS: usize = 64;

#[derive(Default)]
struct Shared {
    ready: HashMap<CellId, (Vec<DataPoint>, MergeStats)>,
    pending: HashSet<CellId>,
    failed: HashMap<CellId, String>,
    failed_total: u64,
}

/// A background region prefetcher.
pub struct Prefetcher {
    tx: Sender<Request>,
    shared: Arc<(Mutex<Shared>, Condvar)>,
    tracker: DiskTracker,
    handle: Option<JoinHandle<()>>,
}

impl Prefetcher {
    /// Spawns the worker over a [`ChunkSource`] handle of its own: the
    /// source's tracker becomes the background ledger (same data as the
    /// foreground handle, separate I/O accounting), and the grid and
    /// mapping are shared by `Arc`. Every chunk the worker reads lands in
    /// `cache`, so the foreground loader finds a prefetched region's chunks
    /// already decoded and resident — and chunks the foreground loaded
    /// earlier serve the worker as hits, charging zero background I/O.
    pub fn spawn(
        source: Arc<dyn ChunkSource>,
        grid: Arc<Grid>,
        mapping: Arc<ChunkMapping>,
        cache: Arc<SharedChunkCache>,
    ) -> Result<Prefetcher> {
        let tracker = source.tracker().clone();
        let shared: Arc<(Mutex<Shared>, Condvar)> = Arc::new(Default::default());
        let (tx, rx) = unbounded::<Request>();
        let worker_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("uei-prefetch".into())
            .spawn(move || {
                while let Ok(req) = rx.recv() {
                    let cell = match req {
                        Request::Shutdown => break,
                        Request::Load(c) => c,
                    };
                    let outcome = load_cell_raw(source.as_ref(), &grid, &mapping, cell, &cache);
                    let (lock, cvar) = &*worker_shared;
                    let mut s = lock.lock();
                    s.pending.remove(&cell);
                    match outcome {
                        Ok(pair) => {
                            s.ready.insert(cell, pair);
                        }
                        Err(e) => {
                            s.failed_total += 1;
                            if s.failed.len() >= MAX_FAILED_CELLS && !s.failed.contains_key(&cell) {
                                if let Some(&evict) = s.failed.keys().next() {
                                    s.failed.remove(&evict);
                                }
                            }
                            s.failed.insert(cell, e.to_string());
                        }
                    }
                    cvar.notify_all();
                }
            })
            .map_err(|e| UeiError::invalid_state(format!("cannot spawn prefetcher: {e}")))?;
        Ok(Prefetcher { tx, shared, tracker, handle: Some(handle) })
    }

    /// Queues a cell for background loading; a no-op if it is already
    /// pending or ready.
    pub fn request(&self, cell: CellId) {
        {
            let (lock, _) = &*self.shared;
            let mut s = lock.lock();
            if s.ready.contains_key(&cell) || !s.pending.insert(cell) {
                return;
            }
            s.failed.remove(&cell);
        }
        // A send failure means the worker is gone; the caller falls back to
        // the synchronous path, so it is safe to ignore.
        let _ = self.tx.send(Request::Load(cell));
    }

    /// Takes a finished prefetch for `cell` without blocking.
    pub fn take(&self, cell: CellId) -> Option<(Vec<DataPoint>, MergeStats)> {
        let (lock, _) = &*self.shared;
        lock.lock().ready.remove(&cell)
    }

    /// Waits up to `timeout` for `cell` to finish, then takes it.
    pub fn take_blocking(
        &self,
        cell: CellId,
        timeout: std::time::Duration,
    ) -> Option<(Vec<DataPoint>, MergeStats)> {
        let deadline = std::time::Instant::now() + timeout;
        let (lock, cvar) = &*self.shared;
        let mut s = lock.lock();
        loop {
            if let Some(pair) = s.ready.remove(&cell) {
                return Some(pair);
            }
            if !s.pending.contains(&cell) {
                return None; // never requested, or failed
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            cvar.wait_for(&mut s, deadline - now);
        }
    }

    /// Whether `cell` is queued or in flight.
    pub fn is_pending(&self, cell: CellId) -> bool {
        let (lock, _) = &*self.shared;
        lock.lock().pending.contains(&cell)
    }

    /// Whether a completed result for `cell` is buffered (without taking it).
    pub fn has_ready(&self, cell: CellId) -> bool {
        let (lock, _) = &*self.shared;
        lock.lock().ready.contains_key(&cell)
    }

    /// Error message of a failed background load, if any.
    pub fn failure(&self, cell: CellId) -> Option<String> {
        let (lock, _) = &*self.shared;
        lock.lock().failed.get(&cell).cloned()
    }

    /// How many distinct cells currently have a recorded failure (bounded
    /// by `MAX_FAILED_CELLS`).
    pub fn failure_count(&self) -> usize {
        let (lock, _) = &*self.shared;
        lock.lock().failed.len()
    }

    /// Cumulative background-load failures since spawn. Unlike the failure
    /// map this never shrinks — it is the counter experiments report.
    pub fn total_failures(&self) -> u64 {
        let (lock, _) = &*self.shared;
        lock.lock().failed_total
    }

    /// Drops every recorded failure message (the cumulative counter is
    /// unaffected). Call between experiment phases to reset diagnostics.
    pub fn clear_failures(&self) {
        let (lock, _) = &*self.shared;
        lock.lock().failed.clear();
    }

    /// The background worker's private I/O tracker. Exposed so a fault
    /// harness can attach an injector to the prefetcher's read path (its
    /// store handle is separate from the foreground one).
    pub fn background_tracker(&self) -> &DiskTracker {
        &self.tracker
    }

    /// Drops every buffered result (regions go stale when the model moves).
    pub fn clear_ready(&self) {
        let (lock, _) = &*self.shared;
        lock.lock().ready.clear();
    }

    /// Cumulative background I/O (reported separately from foreground).
    pub fn background_io(&self) -> IoStats {
        self.tracker.stats()
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        let _ = self.tx.send(Request::Shutdown);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn load_cell_raw(
    source: &dyn ChunkSource,
    grid: &Grid,
    mapping: &ChunkMapping,
    cell: CellId,
    cache: &SharedChunkCache,
) -> Result<(Vec<DataPoint>, MergeStats)> {
    let region = grid.cell_region(cell)?;
    let chunks = mapping.chunks_for_cell(grid, cell)?;
    // Fill the cache the foreground also reads from. Requests are
    // independent cells, so there is no previous region to reuse.
    let (rows, stats, _) = reconstruct_region(source, &region, &chunks, None, &mut |id| {
        cache.get_or_load(source, id)
    })?;
    Ok((rows, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use uei_storage::io::IoProfile;
    use uei_storage::store::ColumnStore;
    use uei_storage::TempDir;

    /// A prefetcher over its own handle to `store` (fresh background
    /// tracker) filling `cache`.
    fn spawn_over(
        store: &ColumnStore,
        grid: &Grid,
        mapping: &ChunkMapping,
        cache: &Arc<SharedChunkCache>,
    ) -> Prefetcher {
        let bg = store.with_tracker(DiskTracker::new(IoProfile::instant()));
        Prefetcher::spawn(
            Arc::new(bg),
            Arc::new(grid.clone()),
            Arc::new(mapping.clone()),
            Arc::clone(cache),
        )
        .unwrap()
    }

    fn cache() -> Arc<SharedChunkCache> {
        Arc::new(SharedChunkCache::new(64 << 20, 4))
    }

    fn build(tag: &str, n: usize) -> (Arc<ColumnStore>, Grid, ChunkMapping, TempDir) {
        let (store, _, dir) = crate::testutil::build_store(tag, n);
        let grid = Grid::new(store.schema(), 3).unwrap();
        let mapping = ChunkMapping::build(&grid, store.manifest()).unwrap();
        (store, grid, mapping, dir)
    }

    #[test]
    fn horizon_formula() {
        assert_eq!(horizon(1.0, 0.5), 2, "θ = ⌈τ/σ⌉");
        assert_eq!(horizon(0.4, 0.5), 1);
        assert_eq!(horizon(1.3, 0.5), 3);
        assert_eq!(horizon(0.0, 0.5), 1);
        assert_eq!(horizon(1.0, 0.0), 1);
    }

    #[test]
    fn ewma_sheds_cold_start_loads() {
        // Three expensive cold loads, then a warm steady state of 0.1 s.
        // The plain mean stays dragged by the cold start; the EWMA
        // converges onto the recent cost, so θ = ⌈τ/σ⌉ shrinks with it.
        let mut ewma = Ewma::default();
        let mut sum = 0.0;
        let samples = [2.0, 2.0, 2.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1];
        for s in samples {
            ewma.push(s);
            sum += s;
        }
        let mean = sum / samples.len() as f64;
        assert_eq!(ewma.count(), samples.len() as u64);
        assert!(ewma.value() < 0.3, "EWMA tracks the warm cost: {}", ewma.value());
        assert!(mean > 0.6, "plain mean stays dragged: {mean}");
        assert!(horizon(ewma.value(), 0.5) < horizon(mean, 0.5));
    }

    #[test]
    fn ewma_edge_cases() {
        assert_eq!(Ewma::default().value(), 0.0, "no samples yet");
        // First sample initializes directly.
        let mut e = Ewma::new(0.25);
        e.push(4.0);
        assert_eq!(e.value(), 4.0);
        e.push(0.0);
        assert_eq!(e.value(), 3.0, "0.25·0 + 0.75·4");
        // α = 1 degenerates to latest-sample-wins; invalid α clamps there.
        for alpha in [1.0, f64::NAN, 7.0] {
            let mut e = Ewma::new(alpha);
            e.push(5.0);
            e.push(1.0);
            assert_eq!(e.value(), 1.0, "alpha {alpha}");
        }
    }

    #[test]
    fn prefetch_matches_synchronous_load() {
        let (store, grid, mapping, _dir) = build("match", 1500);
        let pre = spawn_over(&store, &grid, &mapping, &cache());
        pre.request(4);
        let (rows, stats) =
            pre.take_blocking(4, Duration::from_secs(10)).expect("prefetch completes");
        let (sync_rows, sync_stats) =
            load_cell_raw(store.as_ref(), &grid, &mapping, 4, &cache()).unwrap();
        assert_eq!(rows, sync_rows);
        assert_eq!(stats.result_rows, sync_stats.result_rows);
        assert!(stats.result_rows > 0);
    }

    #[test]
    fn background_io_is_tracked_separately() {
        let (store, grid, mapping, _dir) = build("separate", 1000);
        let foreground_before = store.tracker().stats();
        let pre = spawn_over(&store, &grid, &mapping, &cache());
        pre.request(0);
        pre.take_blocking(0, Duration::from_secs(10)).unwrap();
        assert!(pre.background_io().bytes_read > 0);
        // Foreground tracker untouched by the background load.
        assert_eq!(store.tracker().stats().bytes_read, foreground_before.bytes_read);
    }

    #[test]
    fn take_is_one_shot_and_duplicate_requests_coalesce() {
        let (store, grid, mapping, _dir) = build("oneshot", 800);
        let pre = spawn_over(&store, &grid, &mapping, &cache());
        pre.request(1);
        pre.request(1);
        pre.request(1);
        assert!(pre.take_blocking(1, Duration::from_secs(10)).is_some());
        assert!(pre.take(1).is_none(), "result consumed");
    }

    #[test]
    fn take_unrequested_cell_returns_none() {
        let (store, grid, mapping, _dir) = build("unreq", 500);
        let pre = spawn_over(&store, &grid, &mapping, &cache());
        assert!(pre.take(7).is_none());
        assert!(pre.take_blocking(7, Duration::from_millis(50)).is_none());
        assert!(!pre.is_pending(7));
    }

    #[test]
    fn clear_ready_drops_stale_regions() {
        let (store, grid, mapping, _dir) = build("stale", 800);
        let pre = spawn_over(&store, &grid, &mapping, &cache());
        pre.request(2);
        // Wait for completion, then clear without taking.
        while pre.is_pending(2) {
            std::thread::sleep(Duration::from_millis(5));
        }
        pre.clear_ready();
        assert!(pre.take(2).is_none());
    }

    #[test]
    fn take_blocking_times_out_on_stuck_pending_cell() {
        let (store, grid, mapping, _dir) = build("timeout", 400);
        let pre = spawn_over(&store, &grid, &mapping, &cache());
        // Mark a cell pending by hand, bypassing the worker queue: no load
        // will ever complete it, so take_blocking must hit its deadline
        // (deterministically — no race against a real load).
        {
            let (lock, _) = &*pre.shared;
            lock.lock().pending.insert(999);
        }
        let start = std::time::Instant::now();
        let got = pre.take_blocking(999, Duration::from_millis(80));
        assert!(got.is_none(), "stuck cell can only time out");
        assert!(
            start.elapsed() >= Duration::from_millis(80),
            "returned before the deadline: {:?}",
            start.elapsed()
        );
        assert!(pre.is_pending(999), "timeout does not cancel the request");
    }

    #[test]
    fn failed_background_load_reports_failure_and_unblocks() {
        let (store, grid, mapping, dir) = build("fail", 600);
        let pre = spawn_over(&store, &grid, &mapping, &cache());
        // Remove every chunk file: any background load must error.
        for entry in std::fs::read_dir(dir.path()).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "uei") {
                std::fs::remove_file(&path).unwrap();
            }
        }
        pre.request(3);
        // take_blocking returns None (the cell left pending via failure,
        // not ready) rather than hanging until the deadline.
        let start = std::time::Instant::now();
        assert!(pre.take_blocking(3, Duration::from_secs(10)).is_none());
        assert!(start.elapsed() < Duration::from_secs(10), "failure unblocks before the deadline");
        assert!(pre.failure(3).is_some(), "error message recorded");
        assert!(!pre.is_pending(3));
        assert!(!pre.has_ready(3));
        // A new request for the failed cell clears the stale error.
        pre.request(3);
        while pre.is_pending(3) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(pre.failure(3).is_some(), "still failing: files are gone");
    }

    #[test]
    fn failure_map_is_capped_and_counter_is_cumulative() {
        let (store, grid, mapping, _dir) = build("cap", 300);
        let pre = spawn_over(&store, &grid, &mapping, &cache());
        // Out-of-range cells fail immediately in the worker, giving an
        // unbounded supply of distinct failures without touching disk.
        let total = MAX_FAILED_CELLS + 40;
        for cell in 0..total {
            pre.request(1_000 + cell);
        }
        while (0..total).any(|c| pre.is_pending(1_000 + c)) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pre.total_failures(), total as u64);
        assert!(
            pre.failure_count() <= MAX_FAILED_CELLS,
            "failure map stays bounded: {} entries",
            pre.failure_count()
        );
        pre.clear_failures();
        assert_eq!(pre.failure_count(), 0);
        assert_eq!(pre.total_failures(), total as u64, "counter survives clear");
    }

    #[test]
    fn shared_cache_keeps_foreground_reads_at_zero() {
        let (store, grid, mapping, _dir) = build("warm", 1500);
        let cache = cache();
        let pre = spawn_over(&store, &grid, &mapping, &cache);
        pre.request(4);
        let (pre_rows, _) = pre.take_blocking(4, Duration::from_secs(10)).unwrap();
        assert!(pre.background_io().bytes_read > 0, "worker paid the reads");
        // Foreground load of the same cell through the shared cache: every
        // chunk is already resident, so zero foreground chunk reads.
        let before = store.tracker().snapshot();
        let (fg_rows, stats) = load_cell_raw(store.as_ref(), &grid, &mapping, 4, &cache).unwrap();
        assert_eq!(fg_rows, pre_rows);
        assert!(stats.chunks_loaded > 0, "chunks came through the cache");
        assert_eq!(
            store.tracker().delta(&before).stats.bytes_read,
            0,
            "prefetcher-warmed chunks cost the foreground nothing"
        );
    }

    #[test]
    fn shutdown_on_drop_is_clean() {
        let (store, grid, mapping, _dir) = build("drop", 300);
        {
            let pre = spawn_over(&store, &grid, &mapping, &cache());
            pre.request(0);
            // Drop immediately; worker must exit without deadlock.
        }
    }

    /// One fault kind at a time on the worker's own tracker, every cell
    /// requested: the worker does not retry, so transients and corruption
    /// become recorded failures the foreground routes around, while latency
    /// spikes only cost background virtual time. Every request ends ready
    /// or failed, never stuck.
    #[test]
    fn injected_faults_fail_or_spare_background_loads_by_kind() {
        use uei_storage::fault::{FaultConfig, FaultInjector};
        let (store, grid, mapping, _dir) = build("faultkinds", 3000);
        let cells: Vec<CellId> = grid.cell_ids().collect();
        let sweep = |faults: FaultConfig| {
            let pre = spawn_over(&store, &grid, &mapping, &Arc::new(SharedChunkCache::new(0, 1)));
            let injector = FaultInjector::new(faults).unwrap();
            pre.background_tracker().set_fault_injector(Some(Arc::clone(&injector)));
            for &cell in &cells {
                pre.request(cell);
            }
            let ready = cells
                .iter()
                .filter(|&&cell| pre.take_blocking(cell, Duration::from_secs(60)).is_some())
                .count();
            let failed = pre.total_failures() as usize;
            assert_eq!(ready + failed, cells.len(), "every request ends ready or failed");
            (failed, pre.background_tracker().virtual_elapsed(), injector.stats())
        };

        let off = FaultConfig { seed: 7, ..FaultConfig::off() };
        let (failed, _, stats) = sweep(FaultConfig { transient_prob: 0.2, ..off });
        assert!(stats.transient_errors > 0 && failed > 0, "{failed} failed, {stats:?}");
        let (failed, _, stats) = sweep(FaultConfig { corrupt_prob: 0.2, ..off });
        assert!(stats.corruptions > 0 && failed > 0, "{failed} failed, {stats:?}");
        let (failed, spent, stats) =
            sweep(FaultConfig { slow_prob: 0.5, slow_penalty_secs: 0.05, ..off });
        assert!(stats.latency_spikes > 0, "{stats:?}");
        assert_eq!(failed, 0, "latency spikes must never fail a background load");
        assert!(spent >= Duration::from_millis(50), "spike penalties reach the background clock");
    }
}
