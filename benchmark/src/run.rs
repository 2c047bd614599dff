//! The pipeline every workload runs: initialization repetitions, a
//! discarded warm-up session, the measured closed-loop sessions, and (in
//! the traced run) the chunk probe, the brute-force region check and the
//! `UeiBackend` reference sessions.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use uei_explore::backend::{ExplorationBackend, UeiBackend};
use uei_explore::session::{ExplorationSession, IterationTrace, SessionConfig};
use uei_explore::synth::{generate_sdss_like, SynthConfig};
use uei_explore::workload::generate_target_region_fraction;
use uei_explore::Oracle;
use uei_index::{EngineCore, UeiConfig};
use uei_storage::cache::CacheStats;
use uei_storage::io::{DiskTracker, IoProfile};
use uei_storage::journal::JournalConfig;
use uei_storage::source::ChunkSource;
use uei_storage::store::{ColumnStore, StoreConfig};
use uei_storage::ChunkId;
use uei_types::{DataPoint, Rng, Schema};

use crate::span::Span;
use crate::traced::{IterationProbe, TracedBackend, Tracer};
use crate::workload::{
    Inputs, Scale, SessionSeeds, Workload, BOOTSTRAP_SIZE, CHUNK_TARGET_BYTES, EXTRA_STARTS, GAMMA,
    PROBE_CHUNKS, TARGET_FRACTION,
};
use crate::BenchResult;

/// A scratch directory under the current directory (the checkout the
/// benchmark was started from, never the source tree of a package),
/// removed when the guard drops.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn new() -> BenchResult<Scratch> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let root = std::env::current_dir()?
            .join(".bench_scratch")
            .join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(Scratch { root })
    }

    pub fn dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // The shared parent goes too once the last run has left it.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Wall times of one initialization repetition.
#[derive(Debug, Clone, Copy)]
pub struct SetupRep {
    pub synth: Duration,
    pub create: Duration,
    pub engine_new: Duration,
}

impl SetupRep {
    pub fn total(&self) -> Duration {
        self.synth + self.create + self.engine_new
    }
}

/// Wall times of one `ColumnStore::open` + `EngineCore::new`.
#[derive(Debug, Clone, Copy)]
pub struct OpenRep {
    pub open: Duration,
    pub engine_new: Duration,
}

/// Everything measured about one session.
#[derive(Debug, Clone)]
pub struct SessionRecord {
    pub client: usize,
    pub session: usize,
    /// Backend construction + `ExplorationSession::start`.
    pub start: Duration,
    /// `ExplorationSession::finish`.
    pub finish: Duration,
    /// `EngineCore::open_session` alone (traced driver only).
    pub open_session: Option<Duration>,
    /// Wall time of each completed `step` call.
    pub steps: Vec<Duration>,
    pub traces: Vec<IterationTrace>,
    /// Every labeled example in the order the user saw it, bootstrap first.
    pub labels: Vec<(u64, bool)>,
    pub bootstrap_labels: usize,
    /// Iterations the session was asked for.
    pub planned: usize,
    pub labels_used: usize,
    pub final_f: f64,
    /// Why the session stopped early, if it did.
    pub error: Option<String>,
    pub probes: Vec<IterationProbe>,
}

impl SessionRecord {
    /// Iterations that errored, degraded or needed a fallback cell.
    pub fn failed_iterations(&self) -> usize {
        let unfinished = self.planned - self.traces.len().min(self.planned);
        let impaired = self
            .traces
            .iter()
            .filter(|t| t.counters.degraded || t.counters.fallback_cells > 0)
            .count();
        unfinished + impaired
    }

    /// Fingerprint of the (row id, label) sequence the user was shown.
    pub fn label_fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for &(id, positive) in &self.labels {
            h.write(id);
            h.write(u64::from(positive));
        }
        h.finish()
    }

    /// Fingerprint of the per-iteration (row id, label, `bytes_read`,
    /// `seeks`, `points_rescored`) sequence.
    pub fn io_fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for (trace, &(id, positive)) in
            self.traces.iter().zip(&self.labels[self.bootstrap_labels..])
        {
            h.write(id);
            h.write(u64::from(positive));
            h.write(trace.bytes_read);
            h.write(trace.seeks);
            h.write(trace.counters.points_rescored);
        }
        h.finish()
    }
}

/// FNV-1a over 64-bit words, byte by byte.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One closed-loop phase over one engine.
#[derive(Debug)]
pub struct Phase {
    pub wall: Duration,
    /// Engine-wide chunk-cache traffic of the phase.
    pub cache: CacheStats,
    /// `[client][session]`.
    pub sessions: Vec<Vec<SessionRecord>>,
    /// Spans per client (empty for an untraced phase).
    pub spans: Vec<Vec<Span>>,
}

impl Phase {
    pub fn records(&self) -> impl Iterator<Item = &SessionRecord> {
        self.sessions.iter().flatten()
    }
}

/// Read and decode wall times over the probed chunk sample.
#[derive(Debug, Default)]
pub struct ChunkProbe {
    pub read: Vec<Duration>,
    pub decode: Vec<Duration>,
    pub bytes: u64,
}

/// The traced run's extra passes.
#[derive(Debug)]
pub struct TracedExtras {
    pub probe: ChunkProbe,
    /// Each client's first session replayed through `UeiBackend`.
    pub reference: Phase,
    pub regions_verified: usize,
    pub region_mismatch: Option<String>,
}

/// Raw observations of one run, before they are reduced to metrics.
pub struct Observations {
    pub rows: usize,
    pub dims: usize,
    pub setup: Vec<SetupRep>,
    pub opens: Vec<OpenRep>,
    pub store_bytes: u64,
    pub chunk_files: u64,
    pub total_chunk_bytes: u64,
    pub cache_bytes: usize,
    pub verify_error: Option<String>,
    /// `VmHWM` once the initialization repetitions are done, in MB.
    pub peak_rss_init_mb: f64,
    /// `VmHWM` when the workload ends, in MB.
    pub peak_rss_exit_mb: f64,
    /// Session starts timed on the warm-up engine and discarded.
    pub extra_starts: Vec<Duration>,
    pub measured: Phase,
    /// Labeled examples whose label disagrees with the in-memory row.
    pub label_mismatches: usize,
    pub traced: Option<TracedExtras>,
}

/// Closed-loop work of one client: its sessions, in order.
type ClientPlan<'a> = Vec<(SessionSeeds, &'a Oracle)>;

struct PhaseSpec<'a> {
    workload: &'a Workload,
    max_labels: usize,
    traced: bool,
    /// Names the journal directories of this phase.
    tag: &'a str,
    scratch: &'a Scratch,
}

fn engine_config(w: &Workload, total_chunk_bytes: u64) -> UeiConfig {
    UeiConfig {
        cells_per_dim: w.cells_per_dim,
        chunk_cache_bytes: w.cache.bytes(total_chunk_bytes),
        prefetch: w.prefetch,
        ..UeiConfig::default()
    }
}

fn tracker() -> DiskTracker {
    DiskTracker::new(IoProfile::nvme())
}

/// A fresh engine (empty chunk cache) over the existing store directory.
fn open_engine(w: &Workload, dir: &Path) -> BenchResult<(EngineCore, OpenRep)> {
    let t = Instant::now();
    let store = ColumnStore::open(dir, tracker())?;
    let open = t.elapsed();
    let config = engine_config(w, store.manifest().total_chunk_bytes());
    let t = Instant::now();
    let engine = EngineCore::new(Arc::new(store), config)?;
    Ok((engine, OpenRep { open, engine_new: t.elapsed() }))
}

/// `VmHWM` of this process in megabytes (0 where `/proc` has no such line).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restarts the peak-RSS watermark so that each workload of `run --all`
/// reports its own peak (best effort: needs Linux's `clear_refs`).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn dir_bytes(dir: &Path) -> BenchResult<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() { dir_bytes(&entry.path())? } else { meta.len() };
    }
    Ok(total)
}

/// Runs one workload and returns what it observed.
pub fn observe(
    w: &Workload,
    scale: Scale,
    seed: u64,
    traced: bool,
    scratch: &Scratch,
) -> BenchResult<Observations> {
    let schema = Schema::sdss();
    let rows_wanted = scale.rows(w);
    let sessions_per_client = scale.sessions_per_client(w);
    let inputs = Inputs::derive(seed, w.clients, sessions_per_client);

    // Initialization phase, repeated into fresh directories. The last
    // repetition's rows and store are the ones explored.
    let reps = scale.setup_reps(w);
    let mut setup = Vec::with_capacity(reps);
    let mut verify_error = None;
    let mut kept: Option<(Vec<DataPoint>, PathBuf)> = None;
    for rep in 0..reps {
        let dir = scratch.dir(&format!("store-{rep}"));
        let t = Instant::now();
        let rows = generate_sdss_like(&SynthConfig {
            rows: rows_wanted,
            seed: inputs.dataset,
            ..SynthConfig::default()
        });
        let synth = t.elapsed();
        let t = Instant::now();
        let store = ColumnStore::create(
            &dir,
            schema.clone(),
            &rows,
            StoreConfig { chunk_target_bytes: CHUNK_TARGET_BYTES },
            tracker(),
        )?;
        let create = t.elapsed();
        let config = engine_config(w, store.manifest().total_chunk_bytes());
        let t = Instant::now();
        let engine = EngineCore::new(Arc::new(store), config)?;
        setup.push(SetupRep { synth, create, engine_new: t.elapsed() });
        if rep == 0 {
            verify_error = engine.store().verify().err().map(|e| e.to_string());
        }
        drop(engine);
        if rep + 1 == reps {
            kept = Some((rows, dir));
        } else {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    let (rows, store_dir) = kept.expect("at least one initialization repetition");
    let peak_rss_init_mb = peak_rss_mb();

    let mut opens = Vec::new();
    let (mut chunk_files, mut total_chunk_bytes) = (0, 0);
    for _ in 0..scale.open_reps() {
        let (engine, rep) = open_engine(w, &store_dir)?;
        opens.push(rep);
        let manifest = engine.store().manifest();
        (chunk_files, total_chunk_bytes) =
            (manifest.total_chunks() as u64, manifest.total_chunk_bytes());
    }

    // The simulated users: one target region per session.
    let oracle_for = |seeds: &SessionSeeds| -> BenchResult<Oracle> {
        let mut rng = Rng::new(seeds.target);
        Ok(Oracle::new(generate_target_region_fraction(&rows, &schema, TARGET_FRACTION, &mut rng)?))
    };
    let warmup_oracle = oracle_for(&inputs.warmup)?;
    let mut oracles: Vec<Vec<Oracle>> = Vec::new();
    for client in &inputs.sessions {
        oracles.push(client.iter().map(&oracle_for).collect::<BenchResult<_>>()?);
    }
    let plan_of = |take: usize| -> Vec<ClientPlan<'_>> {
        inputs
            .sessions
            .iter()
            .zip(&oracles)
            .map(|(seeds, oracles)| seeds.iter().copied().zip(oracles).take(take).collect())
            .collect()
    };

    // One discarded session on a throwaway engine lets the operating
    // system's cache absorb the freshly written chunk files.
    let (warm_engine, _) = open_engine(w, &store_dir)?;
    let warm_spec = PhaseSpec {
        workload: w,
        max_labels: scale.warmup_labels(),
        traced: false,
        tag: "warmup",
        scratch,
    };
    run_phase(&warm_engine, &warm_spec, vec![vec![(inputs.warmup, &warmup_oracle)]])?;
    let mut extra_starts = Vec::with_capacity(EXTRA_STARTS);
    for i in 0..EXTRA_STARTS {
        let seeds = inputs.sessions[0][i % sessions_per_client];
        let oracle = &oracles[0][i % sessions_per_client];
        extra_starts.push(time_session_start(&warm_engine, &warm_spec, i, seeds, oracle)?);
    }
    drop(warm_engine);

    // The measured engine is new, so the program's own cache starts empty.
    let (engine, _) = open_engine(w, &store_dir)?;
    let spec =
        PhaseSpec { workload: w, max_labels: scale.max_labels(), traced, tag: "measured", scratch };
    let measured = run_phase(&engine, &spec, plan_of(sessions_per_client))?;

    // `generate_sdss_like` numbers its rows 0..n in order.
    let row = |id: u64| rows.get(id as usize).filter(|p| p.id.as_u64() == id);
    let mut label_mismatches = 0;
    for record in measured.records() {
        let region = oracles[record.client][record.session].region();
        let mut seen = std::collections::HashSet::new();
        for &(id, positive) in &record.labels {
            let agrees = row(id)
                .is_some_and(|p| region.contains(&p.values).is_ok_and(|inside| inside == positive));
            if !agrees || !seen.insert(id) {
                label_mismatches += 1;
            }
        }
    }

    let extras = if traced {
        let probe = probe_chunks(engine.store(), inputs.probe)?;
        let (regions_verified, region_mismatch) = verify_regions(&engine, &rows, &measured)?;
        drop(engine);
        let (reference_engine, _) = open_engine(w, &store_dir)?;
        let spec = PhaseSpec { traced: false, tag: "reference", ..spec };
        let reference = run_phase(&reference_engine, &spec, plan_of(1))?;
        Some(TracedExtras { probe, reference, regions_verified, region_mismatch })
    } else {
        None
    };

    Ok(Observations {
        rows: rows.len(),
        dims: schema.dims(),
        setup,
        opens,
        store_bytes: dir_bytes(&store_dir)?,
        chunk_files,
        total_chunk_bytes,
        cache_bytes: w.cache.bytes(total_chunk_bytes),
        verify_error,
        peak_rss_init_mb,
        peak_rss_exit_mb: peak_rss_mb(),
        extra_starts,
        measured,
        label_mismatches,
        traced: extras,
    })
}

/// Runs every client's plan concurrently, one thread per client, each
/// client issuing its next iteration when the previous one returned.
fn run_phase(
    engine: &EngineCore,
    spec: &PhaseSpec<'_>,
    plans: Vec<ClientPlan<'_>>,
) -> BenchResult<Phase> {
    let cache_before = engine.cache_stats();
    let epoch = Instant::now();
    let outputs: Vec<BenchResult<(Vec<SessionRecord>, Vec<Span>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .into_iter()
            .enumerate()
            .map(|(client, plan)| {
                scope.spawn(move || run_client(engine, spec, client, plan, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("a client thread panicked".into())))
            .collect()
    });
    let wall = epoch.elapsed();
    let cache = engine.cache_stats().since(&cache_before);
    let mut sessions = Vec::new();
    let mut spans = Vec::new();
    for output in outputs {
        let (records, client_spans) = output?;
        sessions.push(records);
        spans.push(client_spans);
    }
    Ok(Phase { wall, cache, sessions, spans })
}

fn run_client(
    engine: &EngineCore,
    spec: &PhaseSpec<'_>,
    client: usize,
    plan: ClientPlan<'_>,
    epoch: Instant,
) -> BenchResult<(Vec<SessionRecord>, Vec<Span>)> {
    let tracer = spec.traced.then(|| Tracer::new(epoch));
    let mut records = Vec::with_capacity(plan.len());
    for (session, (seeds, oracle)) in plan.into_iter().enumerate() {
        let job = SessionJob {
            client,
            session,
            oracle,
            config: session_config(spec, &seeds),
            journal: journal_dir(spec, &format!("c{client}"), session),
            started: Instant::now(),
        };
        let mut rng = Rng::new(seeds.gamma);
        let record = match &tracer {
            Some(tracer) => {
                let mut backend = TracedBackend::open(engine, GAMMA, &mut rng, Rc::clone(tracer))?;
                let tracker = backend.index().store().tracker().clone();
                let mut record = drive(&mut backend, tracker, job, Some(tracer))?;
                record.open_session = Some(Duration::from_nanos(backend.open_session_ns));
                record.probes = tracer.take_probes();
                record
            }
            None => {
                let mut backend = UeiBackend::from_engine(engine, GAMMA, &mut rng)?;
                let tracker = backend.index().store().tracker().clone();
                drive(&mut backend, tracker, job, None)?
            }
        };
        records.push(record);
    }
    let spans = match tracer {
        Some(tracer) => Rc::into_inner(tracer).map(|t| t.log.into_spans()).unwrap_or_default(),
        None => Vec::new(),
    };
    Ok((records, spans))
}

/// Where a journaled workload's session writes its journal.
fn journal_dir(spec: &PhaseSpec<'_>, owner: &str, session: usize) -> Option<PathBuf> {
    let name = format!("journal-{}-{owner}-s{session}", spec.tag);
    spec.workload.journaled.then(|| spec.scratch.dir(&name))
}

fn session_config(spec: &PhaseSpec<'_>, seeds: &SessionSeeds) -> SessionConfig {
    SessionConfig {
        estimator: spec.workload.estimator,
        max_labels: spec.max_labels,
        bootstrap_size: BOOTSTRAP_SIZE,
        eval_sample: 0,
        seed: seeds.session,
        ..SessionConfig::default()
    }
}

/// What `SessionRecord::start` times, alone: the backend's construction and
/// `ExplorationSession::start`, on a session that is then dropped.
fn time_session_start(
    engine: &EngineCore,
    spec: &PhaseSpec<'_>,
    repetition: usize,
    seeds: SessionSeeds,
    oracle: &Oracle,
) -> BenchResult<Duration> {
    let journal = journal_dir(spec, "start", repetition);
    let started = Instant::now();
    let mut backend = UeiBackend::from_engine(engine, GAMMA, &mut Rng::new(seeds.gamma))?;
    let tracker = backend.index().store().tracker().clone();
    let mut session =
        ExplorationSession::new(&mut backend, oracle, session_config(spec, &seeds), tracker);
    if let Some(dir) = &journal {
        session.attach_journal(dir, JournalConfig::default())?;
    }
    black_box(session.start()?);
    Ok(started.elapsed())
}

/// One session of a client's plan, its clock already running: the
/// backend's construction counts towards the session's start.
struct SessionJob<'a> {
    client: usize,
    session: usize,
    oracle: &'a Oracle,
    config: SessionConfig,
    journal: Option<PathBuf>,
    started: Instant,
}

/// One session from `start` to `finish`, every `step` timed from outside.
/// A step that errors ends the session; its missing iterations count as
/// failed.
fn drive(
    backend: &mut dyn ExplorationBackend,
    tracker: DiskTracker,
    job: SessionJob<'_>,
    tracer: Option<&Rc<Tracer>>,
) -> BenchResult<SessionRecord> {
    let SessionJob { client, session, oracle, config, journal, started } = job;
    let max_labels = config.max_labels;
    let mut exploration = ExplorationSession::new(backend, oracle, config, tracker);
    if let Some(dir) = &journal {
        exploration.attach_journal(dir, JournalConfig::default())?;
    }
    let mut state = exploration.start()?;
    let start = started.elapsed();
    let bootstrap_labels = state.labeled().len();
    let planned = max_labels.saturating_sub(bootstrap_labels);

    let mut steps = Vec::with_capacity(planned);
    let mut error = None;
    while state.labeled().len() < max_labels {
        let iteration = steps.len() + 1;
        let span = tracer.map(|t| t.begin_step(session as u32, iteration as u32));
        let t = Instant::now();
        let outcome = exploration.step(&mut state);
        let wall = t.elapsed();
        if let (Some(t), Some(id)) = (tracer, span) {
            t.end_step(id);
        }
        match outcome {
            Ok(true) => steps.push(wall),
            Ok(false) => {
                error = Some("candidate pool exhausted".to_string());
                break;
            }
            Err(e) => {
                error = Some(e.to_string());
                break;
            }
        }
    }
    let labels: Vec<(u64, bool)> =
        state.labeled().entries().iter().map(|(p, l)| (p.id.as_u64(), l.is_positive())).collect();
    let t = Instant::now();
    let result = exploration.finish(state)?;
    let finish = t.elapsed();
    Ok(SessionRecord {
        client,
        session,
        start,
        finish,
        open_session: None,
        steps,
        traces: result.traces,
        labels,
        bootstrap_labels,
        planned,
        labels_used: result.labels_used,
        final_f: result.final_f_measure,
        error,
        probes: Vec::new(),
    })
}

/// Times `read_chunk_bytes` and `decode_chunk` over a seeded sample of
/// chunk ids, after the sessions.
fn probe_chunks(store: &Arc<ColumnStore>, seed: u64) -> BenchResult<ChunkProbe> {
    let source: &dyn ChunkSource = store.as_ref();
    let ids: Vec<ChunkId> = store.manifest().dims.iter().flatten().map(|meta| meta.id()).collect();
    let mut rng = Rng::new(seed);
    let picks = rng.sample_indices(ids.len(), PROBE_CHUNKS.min(ids.len()));
    let mut probe = ChunkProbe::default();
    for i in picks {
        let t = Instant::now();
        let bytes = source.read_chunk_bytes(ids[i])?;
        probe.read.push(t.elapsed());
        let t = Instant::now();
        let chunk = source.decode_chunk(ids[i], &bytes)?;
        probe.decode.push(t.elapsed());
        probe.bytes += bytes.len() as u64;
        black_box(chunk);
    }
    Ok(probe)
}

/// Every region the traced sessions loaded must hold exactly the rows a
/// brute-force filter of the in-memory rows by `Grid::cell_region` finds.
fn verify_regions(
    engine: &EngineCore,
    rows: &[DataPoint],
    phase: &Phase,
) -> BenchResult<(usize, Option<String>)> {
    let mut expected: HashMap<usize, Vec<u64>> = HashMap::new();
    let mut verified = 0;
    for record in phase.records() {
        for (i, probe) in record.probes.iter().enumerate() {
            let (Some(cell), Some(loaded)) = (probe.cell, &probe.loaded_ids) else { continue };
            let want = match expected.entry(cell) {
                Entry::Occupied(known) => known.into_mut(),
                Entry::Vacant(slot) => {
                    let region = engine.grid().cell_region(cell)?;
                    let mut ids = Vec::new();
                    for p in rows {
                        if region.contains(&p.values)? {
                            ids.push(p.id.as_u64());
                        }
                    }
                    ids.sort_unstable();
                    slot.insert(ids)
                }
            };
            let mut loaded = loaded.clone();
            loaded.sort_unstable();
            if loaded != *want {
                let detail = format!(
                    "client {} session {} iteration {}: cell {cell} loaded {} rows, brute force finds {}",
                    record.client,
                    record.session,
                    i + 1,
                    loaded.len(),
                    want.len()
                );
                return Ok((verified, Some(detail)));
            }
            verified += 1;
        }
    }
    Ok((verified, None))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(labels: Vec<(u64, bool)>, io: &[(u64, u64, u64)]) -> SessionRecord {
        let traces = io
            .iter()
            .enumerate()
            .map(|(i, &(bytes_read, seeks, points_rescored))| {
                let json = format!(
                    r#"{{"iteration":{},"labels":2,"f_measure":null,"response_virtual_ms":0.0,
                    "response_wall_ms":1.0,"bytes_read":{bytes_read},"seeks":{seeks},
                    "label_positive":true,"region_rows":null,"prefetched":false,"cache_hits":0,
                    "cache_misses":0,"cache_evictions":0,"cache_bypasses":0,"prefetch_bytes_read":0,
                    "retries":0,"fallback_cells":0,"degraded":false,"points_rescored":{points_rescored},
                    "shards_touched":0,"points_cached":0,"examined":null}}"#,
                    i + 1
                );
                serde_json::from_str::<IterationTrace>(&json).expect("trace parses")
            })
            .collect();
        SessionRecord {
            client: 0,
            session: 0,
            start: Duration::ZERO,
            finish: Duration::ZERO,
            open_session: None,
            steps: Vec::new(),
            traces,
            labels,
            bootstrap_labels: 2,
            planned: io.len(),
            labels_used: 2 + io.len(),
            final_f: 0.0,
            error: None,
            probes: Vec::new(),
        }
    }

    #[test]
    fn fingerprints_separate_what_was_shown_from_what_it_cost() {
        let labels = vec![(5, true), (9, false), (11, true), (3, false)];
        let a = record(labels.clone(), &[(100, 2, 7), (0, 0, 7)]);
        let same = record(labels.clone(), &[(100, 2, 7), (0, 0, 7)]);
        assert_eq!(a.label_fingerprint(), same.label_fingerprint());
        assert_eq!(a.io_fingerprint(), same.io_fingerprint());

        // Same examples at another modeled cost: only the I/O print moves.
        let dearer = record(labels.clone(), &[(100, 2, 7), (64, 1, 7)]);
        assert_eq!(a.label_fingerprint(), dearer.label_fingerprint());
        assert_ne!(a.io_fingerprint(), dearer.io_fingerprint());
        let rescored = record(labels, &[(100, 2, 7), (0, 0, 8)]);
        assert_ne!(a.io_fingerprint(), rescored.io_fingerprint());

        // Another example, another label, or another order: both move.
        let other_row =
            record(vec![(5, true), (9, false), (12, true), (3, false)], &[(100, 2, 7), (0, 0, 7)]);
        assert_ne!(a.label_fingerprint(), other_row.label_fingerprint());
        assert_ne!(a.io_fingerprint(), other_row.io_fingerprint());
        let other_label =
            record(vec![(5, true), (9, false), (11, false), (3, false)], &[(100, 2, 7), (0, 0, 7)]);
        assert_ne!(a.label_fingerprint(), other_label.label_fingerprint());
        let swapped =
            record(vec![(5, true), (9, false), (3, false), (11, true)], &[(100, 2, 7), (0, 0, 7)]);
        assert_ne!(a.label_fingerprint(), swapped.label_fingerprint());
    }

    #[test]
    fn unfinished_and_impaired_iterations_count_as_failed() {
        let mut r = record(vec![(1, true), (2, false), (3, true)], &[(10, 1, 1)]);
        assert_eq!(r.failed_iterations(), 0);
        r.planned = 4;
        assert_eq!(r.failed_iterations(), 3, "three iterations never ran");
        r.traces[0].counters.fallback_cells = 1;
        assert_eq!(r.failed_iterations(), 4);
    }

    #[test]
    fn scratch_is_removed_on_drop() {
        let scratch = Scratch::new().unwrap();
        let dir = scratch.dir("x");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("f"), b"1").unwrap();
        assert_eq!(dir_bytes(&scratch.root).unwrap(), 1);
        let root = scratch.root.clone();
        drop(scratch);
        assert!(!root.exists());
    }
}
