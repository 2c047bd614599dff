//! Reduces a run's raw observations to its metrics and checks.

use std::collections::HashMap;
use std::time::Duration;

use serde::Value;
use uei_learn::EstimatorKind;

use crate::report::{Check, Metric, WorkloadReport};
use crate::run::{Observations, Phase, SessionRecord, TracedExtras};
use crate::span::{self_times_ns, spans_to_value, Span};
use crate::stats;
use crate::workload::{Scale, Workload, GAMMA, SIGMA_SECS};

/// `explore.residual_ratio` above this fails the traced run.
const RESIDUAL_GATE: f64 = 0.05;
/// Mean final F-measure below this fails a full-scale DWKNN run (ten seeds
/// of every DWKNN workload read between 0.40 and 0.70).
const FINAL_F_FLOOR: f64 = 0.15;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    stats::median(&values.collect::<Vec<_>>()).unwrap_or(0.0)
}

pub fn report(
    w: &Workload,
    scale: Scale,
    seed: u64,
    seconds: u64,
    obs: &Observations,
) -> WorkloadReport {
    let phase = &obs.measured;
    let attempted: usize = phase.records().map(|r| r.planned).sum();
    let failed: usize = phase.records().map(SessionRecord::failed_iterations).sum();

    let mut checks = common_checks(w, scale, obs);
    let mut also = Vec::new();
    let metrics = match &obs.traced {
        None => {
            // Not an end-to-end metric (it is about 0 under the linear SVM,
            // where no relative bound can govern it) but still shown.
            also.push(final_f(phase));
            end_to_end_metrics(obs, attempted, failed)
        }
        Some(extras) => {
            let (metrics, residual) = per_layer_metrics(obs, extras);
            checks.extend(traced_checks(w, obs, extras, residual));
            metrics
        }
    };

    let prints = |f: fn(&SessionRecord) -> u64| -> Vec<Vec<u64>> {
        phase.sessions.iter().map(|c| c.iter().map(f).collect()).collect()
    };
    WorkloadReport {
        workload: w.name,
        params: params(w, scale, seed, seconds, obs),
        traced: obs.traced.is_some(),
        attempted: attempted as u64,
        failed: failed as u64,
        metrics,
        also,
        checks,
        label_fingerprints: prints(SessionRecord::label_fingerprint),
        io_fingerprints: prints(SessionRecord::io_fingerprint),
        spans: phase.spans.iter().enumerate().map(|(c, s)| spans_to_value(c, s)).collect(),
    }
}

fn params(
    w: &Workload,
    scale: Scale,
    seed: u64,
    seconds: u64,
    obs: &Observations,
) -> Vec<(String, Value)> {
    let n = |v: usize| Value::UInt(v as u64);
    vec![
        ("seed".into(), Value::UInt(seed)),
        ("seconds".into(), Value::UInt(seconds)),
        ("scale".into(), Value::Str(scale.name().into())),
        ("rows".into(), n(obs.rows)),
        ("index_points".into(), n(w.cells_per_dim.pow(obs.dims as u32))),
        ("estimator".into(), Value::Str(w.estimator.name().into())),
        ("chunk_cache".into(), Value::Str(w.cache.describe())),
        ("chunk_cache_bytes".into(), n(obs.cache_bytes)),
        ("total_chunk_bytes".into(), Value::UInt(obs.total_chunk_bytes)),
        ("clients".into(), n(w.clients)),
        ("prefetch".into(), Value::Bool(w.prefetch)),
        ("journaled".into(), Value::Bool(w.journaled)),
        ("sessions_per_client".into(), n(scale.sessions_per_client(w))),
        ("labels_per_session".into(), n(scale.max_labels())),
        ("gamma".into(), n(GAMMA)),
        ("sigma_s".into(), Value::Float(SIGMA_SECS)),
        ("setup_reps".into(), n(obs.setup.len())),
        ("open_reps".into(), n(obs.opens.len())),
    ]
}

/// Checks both kinds of run make: (1) sessions complete, (7) the store
/// verifies, and every label agrees with the row it was given for.
fn common_checks(w: &Workload, scale: Scale, obs: &Observations) -> Vec<Check> {
    let incomplete: Vec<String> = obs
        .measured
        .records()
        .filter(|r| r.labels_used != scale.max_labels() || r.error.is_some())
        .map(|r| {
            let why = r.error.as_deref().unwrap_or("stopped early");
            format!("client {} session {}: {} labels ({why})", r.client, r.session, r.labels_used)
        })
        .collect();
    let mean_f = final_f(&obs.measured).value;
    // An absolute guard against speed-ups that cost accuracy; only the
    // kNN family learns a box-shaped region in 62 labels.
    let floor = match (w.estimator, scale) {
        (EstimatorKind::Dwknn { .. }, Scale::Full) => FINAL_F_FLOOR,
        _ => 0.0,
    };
    vec![
        Check::new(
            "final_f_above_floor",
            mean_f >= floor,
            format!("mean exact final F {mean_f:.4} >= {floor}"),
        ),
        Check::new(
            "labels_complete",
            incomplete.is_empty(),
            if incomplete.is_empty() {
                format!("every session reached {} labels", scale.max_labels())
            } else {
                incomplete.join("; ")
            },
        ),
        Check::new(
            "labels_agree_with_rows",
            obs.label_mismatches == 0,
            format!(
                "{} labels disagree with the target region or repeat a row",
                obs.label_mismatches
            ),
        ),
        Check::new(
            "store_verifies",
            obs.verify_error.is_none(),
            obs.verify_error.clone().unwrap_or_else(|| "ColumnStore::verify passed".into()),
        ),
    ]
}

fn end_to_end_metrics(obs: &Observations, attempted: usize, failed: usize) -> Vec<Metric> {
    let phase = &obs.measured;
    let traces = || phase.records().flat_map(|r| &r.traces);
    let wall: Vec<f64> = traces().map(|t| t.response_wall_ms).collect();
    let virt: Vec<f64> = traces().map(|t| t.response_virtual_ms).collect();
    let completed = wall.len();
    let within_sigma = wall.iter().filter(|&&w| w <= SIGMA_SECS * 1e3).count();
    let bytes_read: u64 = traces().map(|t| t.bytes_read).sum();
    let setup: Vec<f64> = obs.setup.iter().map(|r| r.total().as_secs_f64()).collect();
    let create = median_of(obs.setup.iter().map(|r| r.create.as_secs_f64()));
    let opens: Vec<f64> = obs.opens.iter().map(|r| ms(r.open + r.engine_new)).collect();
    let starts: Vec<f64> =
        phase.records().map(|r| r.start).chain(obs.extra_starts.iter().copied()).map(ms).collect();
    let finishes: Vec<f64> = phase.records().map(|r| r.finish.as_secs_f64()).collect();
    let user_bytes = (obs.rows * obs.dims * 8) as f64;
    let session_walls: Vec<f64> = phase
        .records()
        .map(|r| (r.start + r.steps.iter().sum::<Duration>() + r.finish).as_secs_f64())
        .collect();

    vec![
        Metric::median("setup_s", "s", &setup),
        Metric::median("response_wall_ms_p50", "ms", &wall),
        Metric::tail("response_wall_ms_p95", "ms", &wall, 95.0),
        Metric::scalar(
            "response_virtual_ms_mean",
            "ms",
            ratio(virt.iter().sum(), completed as f64),
            completed,
        ),
        Metric::tail("response_virtual_ms_p95", "ms", &virt, 95.0),
        Metric::scalar(
            "sigma_met_ratio",
            "ratio",
            ratio(within_sigma as f64, attempted as f64),
            attempted,
        ),
        Metric::scalar(
            "iterations_per_s",
            "1/s",
            ratio(completed as f64, phase.wall.as_secs_f64()),
            completed,
        ),
        Metric::scalar(
            "bytes_read_per_iter",
            "bytes",
            ratio(bytes_read as f64, completed as f64),
            completed,
        ),
        Metric::median("session_start_ms", "ms", &starts),
        Metric::median("retrieve_s", "s", &finishes),
        Metric::median("session_wall_s", "s", &session_walls),
        Metric::scalar("peak_rss_mb", "MB", obs.peak_rss_init_mb, 1),
        Metric::scalar(
            "completed_ratio",
            "ratio",
            ratio((attempted - failed.min(attempted)) as f64, attempted as f64),
            attempted,
        ),
        Metric::scalar(
            "build_rows_per_s",
            "rows/s",
            ratio(obs.rows as f64, create),
            obs.setup.len(),
        ),
        Metric::median("open_ms", "ms", &opens),
        Metric::scalar(
            "stored_bytes_per_user_byte",
            "ratio",
            ratio(obs.store_bytes as f64, user_bytes),
            1,
        ),
    ]
}

/// Mean exact final F-measure over the sessions of a phase.
fn final_f(phase: &Phase) -> Metric {
    let sessions = phase.records().count();
    let sum: f64 = phase.records().map(|r| r.final_f).sum();
    Metric::scalar("explore.final_f", "ratio", ratio(sum, sessions as f64), sessions)
}

/// Per-iteration span durations of one traced phase, in milliseconds.
#[derive(Default)]
struct LayerTimes {
    step: Vec<f64>,
    refit: Vec<f64>,
    select_next: Vec<f64>,
    select_next_self: Vec<f64>,
    rescore: Vec<f64>,
    select: Vec<f64>,
    region_load: Vec<f64>,
    sample_select: Vec<f64>,
    /// Summed per iteration: a swap adds a second `learn.pool` span.
    pool: Vec<f64>,
}

fn layer_times(spans_per_client: &[Vec<Span>]) -> LayerTimes {
    let mut times = LayerTimes::default();
    for spans in spans_per_client {
        let own = self_times_ns(spans);
        let mut pool: HashMap<(u32, u32), f64> = HashMap::new();
        for (span, own_ns) in spans.iter().zip(own) {
            let dur = span.duration_ns() as f64 / 1e6;
            match span.name {
                "explore.step" => times.step.push(dur),
                "learn.refit" => times.refit.push(dur),
                "explore.select_next" => {
                    times.select_next.push(dur);
                    times.select_next_self.push(own_ns as f64 / 1e6);
                }
                "index.rescore" => times.rescore.push(dur),
                "index.select_and_load" => times.select.push(own_ns as f64 / 1e6),
                "storage.region_load" => times.region_load.push(dur),
                "learn.sample_select" => times.sample_select.push(dur),
                "learn.pool" => *pool.entry((span.session, span.iteration)).or_default() += dur,
                _ => {}
            }
        }
        let mut keys: Vec<_> = pool.keys().copied().collect();
        keys.sort_unstable();
        times.pool.extend(keys.iter().map(|k| pool[k]));
    }
    times
}

/// The per-layer metrics of a traced run, and its residual ratio.
fn per_layer_metrics(obs: &Observations, extras: &TracedExtras) -> (Vec<Metric>, f64) {
    let phase = &obs.measured;
    let times = layer_times(&phase.spans);
    let probes = || phase.records().flat_map(|r| &r.probes);
    let traces = || phase.records().flat_map(|r| &r.traces);
    let iterations = probes().count();
    let per_iter = |sum: u64| ratio(sum as f64, iterations as f64);
    let sum = |f: fn(&crate::traced::IterationProbe) -> u64| -> u64 { probes().map(f).sum() };
    let total = |v: &[f64]| v.iter().sum::<f64>();

    // The response window of an iteration is its refit plus select_next.
    let response = total(&times.refit) + total(&times.select_next);
    let residual = ratio(total(&times.select_next_self), response);
    let tails: Vec<f64> = times
        .step
        .iter()
        .zip(times.refit.iter().zip(&times.select_next))
        .map(|(step, (refit, select_next))| (step - refit - select_next).max(0.0) * 1e3)
        .collect();

    let read_us: Vec<f64> = extras.probe.read.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    let decode_us: Vec<f64> = extras.probe.decode.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    let decode_secs: f64 = extras.probe.decode.iter().map(Duration::as_secs_f64).sum();
    let chunk_ms =
        (stats::median(&read_us).unwrap_or(0.0) + stats::median(&decode_us).unwrap_or(0.0)) / 1e3;
    // Chunks that missed the engine's cache are the ones read and decoded;
    // what is left of the region loads is the merge.
    let physical = (phase.cache.misses + phase.cache.bypasses) as f64;
    let merge_est = (total(&times.region_load) - physical * chunk_ms).max(0.0);

    let swaps: usize = phase
        .records()
        .map(|r| {
            let cells: Vec<_> = r.probes.iter().map(|p| p.cell).collect();
            1 + cells.windows(2).filter(|pair| pair[0] != pair[1]).count()
        })
        .sum();
    let (loaded, reused) = (sum(|p| p.chunks_loaded), sum(|p| p.chunks_reused));
    let (rescored, cached) = (sum(|p| p.points_rescored), sum(|p| p.points_cached));
    let rescore_ns = total(&times.rescore) * 1e6;

    let create = median_of(obs.setup.iter().map(|r| r.create.as_secs_f64()));
    let finish = median_of(phase.records().map(|r| r.finish.as_secs_f64()));
    let sessions = phase.records().count();

    let traced_steps: f64 = phase
        .sessions
        .iter()
        .filter_map(|c| c.first())
        .flat_map(|r| &r.steps)
        .map(|d| ms(*d))
        .sum();
    let reference_steps: f64 =
        extras.reference.records().flat_map(|r| &r.steps).map(|d| ms(*d)).sum();

    let metrics = vec![
        Metric::median("storage.region_load_ms_p50", "ms", &times.region_load),
        Metric::tail("storage.region_load_ms_p95", "ms", &times.region_load, 95.0),
        Metric::scalar(
            "storage.region_load_share",
            "ratio",
            ratio(total(&times.region_load), response),
            iterations,
        ),
        Metric::median("storage.read_chunk_us_p50", "us", &read_us),
        Metric::tail("storage.read_chunk_us_p95", "us", &read_us, 95.0),
        Metric::median("storage.decode_chunk_us_p50", "us", &decode_us),
        Metric::tail("storage.decode_chunk_us_p95", "us", &decode_us, 95.0),
        Metric::scalar(
            "storage.decode_mb_per_s",
            "MB/s",
            ratio(extras.probe.bytes as f64 / 1e6, decode_secs),
            decode_us.len(),
        ),
        Metric::scalar(
            "storage.merge_est_ms",
            "ms",
            ratio(merge_est, iterations as f64),
            iterations,
        ),
        Metric::scalar("storage.chunks_loaded_per_iter", "count", per_iter(loaded), iterations),
        Metric::scalar("storage.chunks_reused_per_iter", "count", per_iter(reused), iterations),
        Metric::scalar(
            "storage.delta_reuse_ratio",
            "ratio",
            ratio(reused as f64, (loaded + reused) as f64),
            iterations,
        ),
        Metric::scalar(
            "storage.entries_matched_per_iter",
            "count",
            per_iter(sum(|p| p.entries_matched)),
            iterations,
        ),
        Metric::scalar(
            "storage.merge_selectivity",
            "ratio",
            ratio(sum(|p| p.result_rows) as f64, sum(|p| p.entries_matched) as f64),
            iterations,
        ),
        Metric::scalar(
            "storage.region_rows_per_iter",
            "rows",
            per_iter(sum(|p| p.region_rows)),
            iterations,
        ),
        Metric::scalar(
            "storage.cache_hit_ratio",
            "ratio",
            phase.cache.hit_ratio(),
            phase.cache.lookups() as usize,
        ),
        Metric::scalar(
            "storage.cache_evictions_per_iter",
            "count",
            per_iter(phase.cache.evictions),
            iterations,
        ),
        Metric::scalar(
            "storage.cache_bypasses_per_iter",
            "count",
            per_iter(phase.cache.bypasses),
            iterations,
        ),
        Metric::scalar("storage.create_s", "s", create, obs.setup.len()),
        Metric::scalar(
            "storage.create_rows_per_s",
            "rows/s",
            ratio(obs.rows as f64, create),
            obs.setup.len(),
        ),
        Metric::scalar(
            "storage.open_ms",
            "ms",
            median_of(obs.opens.iter().map(|r| ms(r.open))),
            obs.opens.len(),
        ),
        Metric::scalar("storage.chunk_files", "count", obs.chunk_files as f64, 1),
        Metric::scalar("storage.store_bytes", "bytes", obs.store_bytes as f64, 1),
        Metric::median("index.rescore_ms_p50", "ms", &times.rescore),
        Metric::tail("index.rescore_ms_p95", "ms", &times.rescore, 95.0),
        Metric::scalar(
            "index.rescore_share",
            "ratio",
            ratio(total(&times.rescore), response),
            iterations,
        ),
        Metric::scalar("index.points_rescored_per_iter", "count", per_iter(rescored), iterations),
        Metric::scalar(
            "index.rescore_dirty_ratio",
            "ratio",
            ratio(rescored as f64, (rescored + cached) as f64),
            iterations,
        ),
        Metric::scalar(
            "index.rescore_ns_per_point",
            "ns",
            ratio(rescore_ns, rescored as f64),
            iterations,
        ),
        Metric::median("index.select_ms_p50", "ms", &times.select),
        Metric::tail("index.select_ms_p95", "ms", &times.select, 95.0),
        Metric::scalar(
            "index.shards_touched_per_iter",
            "count",
            per_iter(sum(|p| p.shards_touched)),
            iterations,
        ),
        Metric::scalar(
            "index.shards_pruned_per_iter",
            "count",
            per_iter(sum(|p| p.shards_pruned)),
            iterations,
        ),
        Metric::scalar(
            "index.region_swap_ratio",
            "ratio",
            ratio(swaps as f64, iterations as f64),
            iterations,
        ),
        Metric::scalar(
            "index.prefetch_hit_ratio",
            "ratio",
            ratio(probes().filter(|p| p.prefetched).count() as f64, iterations as f64),
            iterations,
        ),
        Metric::scalar(
            "index.retries",
            "count",
            traces().map(|t| t.counters.retries).sum::<u64>() as f64,
            sessions,
        ),
        Metric::scalar(
            "index.fallback_cells",
            "count",
            traces().map(|t| t.counters.fallback_cells).sum::<u64>() as f64,
            sessions,
        ),
        Metric::scalar(
            "index.engine_new_ms",
            "ms",
            median_of(obs.opens.iter().map(|r| ms(r.engine_new))),
            obs.opens.len(),
        ),
        Metric::scalar(
            "index.open_session_ms",
            "ms",
            median_of(phase.records().filter_map(|r| r.open_session).map(ms)),
            sessions,
        ),
        Metric::median("learn.refit_ms_p50", "ms", &times.refit),
        Metric::tail("learn.refit_ms_p95", "ms", &times.refit, 95.0),
        Metric::median("learn.sample_select_ms_p50", "ms", &times.sample_select),
        Metric::tail("learn.sample_select_ms_p95", "ms", &times.sample_select, 95.0),
        Metric::median("learn.pool_ms_p50", "ms", &times.pool),
        Metric::tail("learn.pool_ms_p95", "ms", &times.pool, 95.0),
        Metric::scalar(
            "learn.sample_candidates_per_iter",
            "count",
            per_iter(sum(|p| p.candidates)),
            iterations,
        ),
        Metric::median("explore.step_tail_us_p50", "us", &tails),
        Metric::tail("explore.step_tail_us_p95", "us", &tails, 95.0),
        Metric::median("explore.step_ms_p50", "ms", &times.step),
        Metric::tail("explore.step_ms_p95", "ms", &times.step, 95.0),
        Metric::scalar(
            "explore.start_ms",
            "ms",
            median_of(phase.records().map(|r| ms(r.start))),
            sessions,
        ),
        Metric::scalar("explore.finish_ms", "ms", finish * 1e3, sessions),
        Metric::scalar(
            "explore.retrieve_rows_per_s",
            "rows/s",
            ratio(obs.rows as f64, finish),
            sessions,
        ),
        final_f(phase),
        Metric::scalar("explore.peak_rss_mb", "MB", obs.peak_rss_exit_mb, 1),
        Metric::scalar("explore.residual_ratio", "ratio", residual, iterations),
        Metric::scalar(
            "bench.trace_overhead_ratio",
            "ratio",
            ratio(traced_steps, reference_steps) - 1.0,
            extras.reference.records().count(),
        ),
        Metric::scalar(
            "bench.spans",
            "count",
            phase.spans.iter().map(Vec::len).sum::<usize>() as f64,
            1,
        ),
        Metric::scalar("bench.regions_verified", "count", extras.regions_verified as f64, 1),
        Metric::scalar(
            "bench.reference_sessions",
            "count",
            extras.reference.records().count() as f64,
            1,
        ),
    ];
    (metrics, residual)
}

/// Checks only the traced run can make: (2) and (5) against the
/// `UeiBackend` reference sessions, (4) regions against brute force,
/// (6) the residual gate.
fn traced_checks(
    w: &Workload,
    obs: &Observations,
    extras: &TracedExtras,
    residual: f64,
) -> Vec<Check> {
    let pairs = || first_sessions(&obs.measured).zip(first_sessions(&extras.reference));
    // With the prefetcher on, what the foreground reads depends on what the
    // background thread finished first; what the user is shown does not.
    let same_prints = pairs().all(|(t, r)| {
        t.label_fingerprint() == r.label_fingerprint()
            && (w.prefetch || t.io_fingerprint() == r.io_fingerprint())
    });
    let same_f = pairs().all(|(t, r)| t.final_f == r.final_f);
    let compared = pairs().count();
    vec![
        Check::new(
            "traced_matches_untraced",
            same_prints && compared == w.clients,
            format!(
                "{compared} reference sessions through UeiBackend: {} fingerprints compared",
                if w.prefetch {
                    "(row id, label)"
                } else {
                    "(row id, label, bytes_read, seeks, points_rescored)"
                }
            ),
        ),
        Check::new("final_f_matches", same_f, "exact final F of the reference sessions"),
        Check::new(
            "regions_match_brute_force",
            extras.region_mismatch.is_none(),
            extras
                .region_mismatch
                .clone()
                .unwrap_or_else(|| format!("{} loaded regions verified", extras.regions_verified)),
        ),
        Check::new(
            "residual_within_gate",
            residual <= RESIDUAL_GATE,
            format!("explore.residual_ratio {residual:.4} <= {RESIDUAL_GATE}"),
        ),
    ]
}

/// Each client's first session, the one the reference phase replays.
fn first_sessions(phase: &Phase) -> impl Iterator<Item = &SessionRecord> {
    phase.sessions.iter().filter_map(|client| client.first())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        iteration: u32,
    ) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, session: 0, iteration }
    }

    #[test]
    fn layer_times_follow_the_span_tree() {
        let ms = 1_000_000;
        let spans = vec![
            span("explore.step", 0, 100 * ms, None, 1),
            span("learn.refit", 0, 10 * ms, Some(0), 1),
            span("explore.select_next", 10 * ms, 95 * ms, Some(0), 1),
            span("index.rescore", 11 * ms, 21 * ms, Some(2), 1),
            span("index.select_and_load", 21 * ms, 81 * ms, Some(2), 1),
            span("storage.region_load", 31 * ms, 81 * ms, Some(4), 1),
            span("learn.pool", 81 * ms, 83 * ms, Some(2), 1),
            span("learn.pool", 84 * ms, 87 * ms, Some(2), 1),
            span("learn.sample_select", 87 * ms, 94 * ms, Some(2), 1),
        ];
        let t = layer_times(&[spans]);
        assert_eq!(t.step, vec![100.0]);
        assert_eq!(t.refit, vec![10.0]);
        assert_eq!(t.select_next, vec![85.0]);
        assert_eq!(t.rescore, vec![10.0]);
        assert_eq!(t.select, vec![10.0], "select_and_load minus the region load inside it");
        assert_eq!(t.region_load, vec![50.0]);
        assert_eq!(t.pool, vec![5.0], "both pool spans of the iteration, summed");
        assert_eq!(t.sample_select, vec![7.0]);
        // 85 − (10 + 60 + 2 + 3 + 7) = 3 ms of select_next nobody owns.
        assert_eq!(t.select_next_self, vec![3.0]);
    }
}
