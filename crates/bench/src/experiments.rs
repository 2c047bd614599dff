//! Experiment runners: one function per table/figure of the paper plus
//! the ablation sweeps.
//!
//! Every runner is deterministic given the scale's seed, averages over
//! `scale.runs` complete runs (paper: 10), and returns serializable
//! result structs; the `experiments` binary renders them as tables and
//! JSON. Both schemes are measured on the same generated target regions,
//! with the same simulated user, through the same modeled NVMe disk
//! (`IoProfile::nvme`, 3.4 GB/s, the paper's device).

use std::path::Path;

use serde::{Deserialize, Serialize};
use uei_explore::backend::{DbmsBackend, UeiBackend};
use uei_explore::oracle::Oracle;
use uei_explore::report::{average_traces, labels_to_reach, RunSummary};
use uei_explore::session::{ExplorationSession, SessionConfig, SessionResult};
use uei_explore::workload::{generate_target_region, RegionSize};
use uei_index::config::UeiConfig;
use uei_learn::strategy::UncertaintyMeasure;
use uei_learn::EstimatorKind;
use uei_storage::io::IoProfile;
use uei_types::{Result, Rng, Schema};

use crate::fixture::{ExperimentScale, Fixture};

/// Which storage scheme to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scheme {
    /// The Uncertainty Estimation Index (Algorithm 2).
    Uei,
    /// The MySQL-like baseline (Algorithm 1).
    Dbms,
}

impl Scheme {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Uei => "UEI",
            Scheme::Dbms => "MySQL-like",
        }
    }
}

/// Per-run variation knobs on top of a scale (used by the ablations).
#[derive(Debug, Clone, Default)]
pub struct Variation {
    /// Override the UEI grid resolution.
    pub cells_per_dim: Option<usize>,
    /// Override γ (UEI's uniform-sample size).
    pub gamma: Option<usize>,
    /// Override the estimator.
    pub estimator: Option<EstimatorKind>,
    /// Enable the background prefetcher with this σ (seconds).
    pub prefetch_sigma: Option<f64>,
    /// Override the retraining batch size B (Algorithm 1).
    pub batch_size: Option<usize>,
    /// Override how many loaded regions stay resident in `U`.
    pub regions_in_memory: Option<usize>,
    /// Replace uncertainty sampling with uniform random selection (the
    /// "is active learning worth it" baseline).
    pub random_strategy: bool,
}

/// Generates the per-run oracles for one region-size class: run `i` of
/// both schemes explores the same region.
pub fn oracles_for_runs(fixture: &Fixture, size: RegionSize, runs: usize) -> Result<Vec<Oracle>> {
    let discriminator = match size {
        RegionSize::Small => 1,
        RegionSize::Medium => 2,
        RegionSize::Large => 3,
    };
    let mut out = Vec::with_capacity(runs);
    for run in 0..runs {
        let mut rng = Rng::new(fixture.scale.seed ^ (discriminator << 32) ^ run as u64);
        let target = generate_target_region(&fixture.rows, &Schema::sdss(), size, &mut rng)?;
        out.push(Oracle::new(target));
    }
    Ok(out)
}

fn session_config(scale: &ExperimentScale, run: usize, variation: &Variation) -> SessionConfig {
    SessionConfig {
        estimator: variation.estimator.unwrap_or(EstimatorKind::Dwknn { k: 5 }),
        measure: UncertaintyMeasure::LeastConfidence,
        max_labels: scale.max_labels,
        batch_size: variation.batch_size.unwrap_or(1),
        bootstrap_size: scale.gamma.min(2_000),
        eval_sample: scale.eval_sample,
        eval_every: 1,
        seed: scale.seed ^ 0x5E55_1011 ^ ((run as u64) << 16),
    }
}

/// Runs one exploration session of `scheme` against `oracle`.
pub fn run_session(
    fixture: &Fixture,
    scheme: Scheme,
    oracle: &Oracle,
    run: usize,
    variation: &Variation,
) -> Result<SessionResult> {
    let scale = &fixture.scale;
    let config = session_config(scale, run, variation);
    match scheme {
        Scheme::Uei => {
            let (store, _) = fixture.open_store(IoProfile::nvme())?;
            let uei_config = UeiConfig {
                cells_per_dim: variation.cells_per_dim.unwrap_or(scale.cells_per_dim),
                chunk_cache_bytes: fixture.uei_cache_bytes(&store),
                latency_threshold_secs: variation.prefetch_sigma.unwrap_or(0.5),
                prefetch: variation.prefetch_sigma.is_some(),
                regions_in_memory: variation.regions_in_memory.unwrap_or(4),
                defer_swaps: false,
                ..UeiConfig::default()
            };
            let mut rng = Rng::new(config.seed ^ 0xBACC);
            let mut backend = UeiBackend::new(
                store,
                uei_config,
                config.measure,
                variation.gamma.unwrap_or(scale.gamma),
                &mut rng,
            )?;
            if variation.random_strategy {
                backend.use_random_strategy(config.seed ^ 0xA1EA);
            }
            let clock = backend.index().store().tracker().clone();
            ExplorationSession::new(&mut backend, oracle, config, clock).run()
        }
        Scheme::Dbms => {
            let (table, pool, tracker) = fixture.open_table(IoProfile::nvme())?;
            let mut backend = DbmsBackend::with_pool(table, pool, config.measure);
            ExplorationSession::new(&mut backend, oracle, config, tracker).run()
        }
    }
}

/// Runs all of one scheme's sessions for a region size and averages them.
pub fn run_scheme(
    fixture: &Fixture,
    scheme: Scheme,
    size: RegionSize,
    variation: &Variation,
) -> Result<RunSummary> {
    let oracles = oracles_for_runs(fixture, size, fixture.scale.runs)?;
    let mut results = Vec::with_capacity(oracles.len());
    for (run, oracle) in oracles.iter().enumerate() {
        results.push(run_session(fixture, scheme, oracle, run, variation)?);
    }
    Ok(average_traces(&results))
}

// ---------------------------------------------------------------------------
// Figures 3–5: accuracy vs number of labeled examples
// ---------------------------------------------------------------------------

/// The result of one accuracy figure (3, 4, or 5).
#[derive(Debug, Serialize, Deserialize)]
pub struct AccuracyFigure {
    /// Which figure ("fig3".."fig5").
    pub figure: String,
    /// Region-size class.
    pub region_size: String,
    /// Achieved region cardinality fraction, averaged over runs.
    pub region_fraction_mean: f64,
    /// UEI scheme series.
    pub uei: RunSummary,
    /// DBMS scheme series.
    pub dbms: RunSummary,
    /// Labels each scheme needed to first reach F ≥ 0.8 (the regime where
    /// the paper reports UEI pulling ahead).
    pub uei_labels_to_f80: Option<usize>,
    /// Same for the baseline.
    pub dbms_labels_to_f80: Option<usize>,
}

/// Regenerates Figure 3 (small), 4 (medium), or 5 (large).
pub fn fig_accuracy(fixture: &Fixture, size: RegionSize) -> Result<AccuracyFigure> {
    let figure = match size {
        RegionSize::Small => "fig3",
        RegionSize::Medium => "fig4",
        RegionSize::Large => "fig5",
    };
    let oracles = oracles_for_runs(fixture, size, fixture.scale.runs)?;
    let fraction_mean =
        oracles.iter().map(|o| o.target().fraction).sum::<f64>() / oracles.len() as f64;
    let uei = run_scheme(fixture, Scheme::Uei, size, &Variation::default())?;
    let dbms = run_scheme(fixture, Scheme::Dbms, size, &Variation::default())?;
    Ok(AccuracyFigure {
        figure: figure.to_string(),
        region_size: size.name().to_string(),
        region_fraction_mean: fraction_mean,
        uei_labels_to_f80: labels_to_reach(&uei, 0.8),
        dbms_labels_to_f80: labels_to_reach(&dbms, 0.8),
        uei,
        dbms,
    })
}

// ---------------------------------------------------------------------------
// Figure 6: response time
// ---------------------------------------------------------------------------

/// One bar of Figure 6.
#[derive(Debug, Serialize, Deserialize)]
pub struct ResponseTimeRow {
    /// Scheme name.
    pub scheme: String,
    /// Region-size class.
    pub region_size: String,
    /// Mean per-iteration modeled response time (ms).
    pub mean_response_ms: f64,
    /// 95th-percentile modeled response time (ms).
    pub p95_response_ms: f64,
    /// Mean bytes read per iteration.
    pub mean_bytes_per_iteration: f64,
    /// Whether the mean is under the 500 ms interactivity bound.
    pub sub_500ms: bool,
}

/// The full Figure 6 result.
#[derive(Debug, Serialize, Deserialize)]
pub struct ResponseTimeFigure {
    /// One row per (scheme, region size).
    pub rows: Vec<ResponseTimeRow>,
    /// Mean speedup of UEI over the baseline across region sizes.
    pub speedup: f64,
    /// Logical dataset bytes over memory budget (the "N× larger than
    /// memory" of the paper's claim).
    pub data_over_memory: f64,
}

/// Regenerates Figure 6: per-iteration response time of both schemes for
/// all three region sizes.
pub fn fig6_response_time(fixture: &Fixture) -> Result<ResponseTimeFigure> {
    let mut rows = Vec::new();
    let mut uei_means = Vec::new();
    let mut dbms_means = Vec::new();
    for size in RegionSize::all() {
        for scheme in [Scheme::Uei, Scheme::Dbms] {
            let summary = run_scheme(fixture, scheme, size, &Variation::default())?;
            let mean = summary.overall_response_virtual_ms;
            let bytes = summary.series.iter().map(|p| p.bytes_read_mean).sum::<f64>()
                / summary.series.len().max(1) as f64;
            match scheme {
                Scheme::Uei => uei_means.push(mean),
                Scheme::Dbms => dbms_means.push(mean),
            }
            rows.push(ResponseTimeRow {
                scheme: scheme.name().to_string(),
                region_size: size.name().to_string(),
                mean_response_ms: mean,
                p95_response_ms: summary.p95_response_virtual_ms,
                mean_bytes_per_iteration: bytes,
                sub_500ms: mean < 500.0,
            });
        }
    }
    let speedup = mean_of(&dbms_means) / mean_of(&uei_means).max(1e-9);

    // Data-to-memory ratio from the DBMS side (logical table vs pool).
    let (table, pool, _) = fixture.open_table(IoProfile::nvme())?;
    let pool_bytes = (pool.capacity() * uei_dbms::page::PAGE_SIZE) as f64;
    let data_over_memory = table.logical_size_bytes() as f64 / pool_bytes;

    Ok(ResponseTimeFigure { rows, speedup, data_over_memory })
}

fn mean_of(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

// ---------------------------------------------------------------------------
// §3.3 complexity: O(kn) vs O(ke)
// ---------------------------------------------------------------------------

/// Measured per-iteration work of each scheme.
#[derive(Debug, Serialize, Deserialize)]
pub struct ComplexityReport {
    /// Dataset rows `n`.
    pub n: u64,
    /// Mean tuples examined per DBMS iteration (should be ≈ n).
    pub dbms_examined_mean: f64,
    /// Mean bytes per DBMS iteration.
    pub dbms_bytes_mean: f64,
    /// Mean region rows per UEI iteration (the `e` of O(ke)).
    pub uei_region_rows_mean: f64,
    /// Mean bytes per UEI iteration.
    pub uei_bytes_mean: f64,
    /// Ratio n / e.
    pub n_over_e: f64,
    /// Ratio of bytes (DBMS / UEI).
    pub byte_ratio: f64,
}

/// Verifies the paper's complexity claim by direct accounting.
pub fn complexity(fixture: &Fixture) -> Result<ComplexityReport> {
    let size = RegionSize::Medium;
    let uei = run_scheme(fixture, Scheme::Uei, size, &Variation::default())?;
    let dbms = run_scheme(fixture, Scheme::Dbms, size, &Variation::default())?;

    // Re-run one session of each to pull the raw per-iteration fields.
    let oracles = oracles_for_runs(fixture, size, 1)?;
    let uei_run = run_session(fixture, Scheme::Uei, &oracles[0], 0, &Variation::default())?;
    let dbms_run = run_session(fixture, Scheme::Dbms, &oracles[0], 0, &Variation::default())?;

    let uei_rows: Vec<f64> =
        uei_run.traces.iter().filter_map(|t| t.region_rows.map(|r| r as f64)).collect();
    let dbms_examined: Vec<f64> =
        dbms_run.traces.iter().filter_map(|t| t.examined.map(|e| e as f64)).collect();

    let uei_bytes =
        uei.series.iter().map(|p| p.bytes_read_mean).sum::<f64>() / uei.series.len().max(1) as f64;
    let dbms_bytes = dbms.series.iter().map(|p| p.bytes_read_mean).sum::<f64>()
        / dbms.series.len().max(1) as f64;

    let e = mean_of(&uei_rows);
    let n = fixture.scale.rows as f64;
    Ok(ComplexityReport {
        n: fixture.scale.rows as u64,
        dbms_examined_mean: mean_of(&dbms_examined),
        dbms_bytes_mean: dbms_bytes,
        uei_region_rows_mean: e,
        uei_bytes_mean: uei_bytes,
        n_over_e: n / e.max(1.0),
        byte_ratio: dbms_bytes / uei_bytes.max(1.0),
    })
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// Renders Table 1 (the experiment parameters) for a scale.
pub fn table1(scale: &ExperimentScale) -> Vec<(String, String)> {
    vec![
        ("Number of runs per result".into(), scale.runs.to_string()),
        ("Number of dimensions (D)".into(), "5".into()),
        ("Number of relevant regions".into(), "1".into()),
        ("Cardinality of relevant regions".into(), "0.1% (S), 0.4% (M), 0.8% (L)".into()),
        ("Uncertainty Estimator".into(), "DWKNN [Gou et al. 2012]".into()),
        ("Label Type".into(), "Binary".into()),
        ("Data Storage Engine".into(), "UEI, MySQL-like row store".into()),
        (
            "Size of Individual Data Chunk".into(),
            format!("{} KB (paper: 470 KB at 40 GB scale)", scale.chunk_target_bytes / 1024),
        ),
        ("Number of Symbolic Index Points".into(), format!("{}", scale.cells_per_dim.pow(5))),
        ("Latency Threshold".into(), "500ms".into()),
        ("Performance Measurement".into(), "F-Measure (Accuracy)".into()),
        ("Dataset rows (paper: 10^7)".into(), scale.rows.to_string()),
        ("Memory budget".into(), format!("{:.1}% of dataset", scale.memory_fraction * 100.0)),
    ]
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// One point of a one-dimensional ablation sweep.
#[derive(Debug, Serialize, Deserialize)]
pub struct AblationPoint {
    /// The swept parameter's value, as text.
    pub value: String,
    /// Mean response time (ms, modeled).
    pub mean_response_ms: f64,
    /// Final F-measure (mean over runs).
    pub final_f_measure: f64,
    /// Mean bytes read per iteration.
    pub bytes_per_iteration: f64,
}

/// A complete ablation sweep.
#[derive(Debug, Serialize, Deserialize)]
pub struct Ablation {
    /// What was swept.
    pub parameter: String,
    /// The sweep, in input order.
    pub points: Vec<AblationPoint>,
}

fn summarize_variation(
    fixture: &Fixture,
    variation: &Variation,
    value: String,
) -> Result<AblationPoint> {
    let summary = run_scheme(fixture, Scheme::Uei, RegionSize::Medium, variation)?;
    let bytes = summary.series.iter().map(|p| p.bytes_read_mean).sum::<f64>()
        / summary.series.len().max(1) as f64;
    Ok(AblationPoint {
        value,
        mean_response_ms: summary.overall_response_virtual_ms,
        final_f_measure: summary.final_f_measure_mean,
        bytes_per_iteration: bytes,
    })
}

/// Sweep the grid resolution (number of symbolic index points).
pub fn ablation_grid(fixture: &Fixture, cells: &[usize]) -> Result<Ablation> {
    let mut points = Vec::new();
    for &c in cells {
        let variation = Variation { cells_per_dim: Some(c), ..Variation::default() };
        points.push(summarize_variation(fixture, &variation, format!("{c}^5={}", c.pow(5)))?);
    }
    Ok(Ablation { parameter: "symbolic index points".into(), points })
}

/// Sweep γ, the uniform-sample size of the in-memory cache `U`.
pub fn ablation_gamma(fixture: &Fixture, gammas: &[usize]) -> Result<Ablation> {
    let mut points = Vec::new();
    for &g in gammas {
        let variation = Variation { gamma: Some(g), ..Variation::default() };
        points.push(summarize_variation(fixture, &variation, g.to_string())?);
    }
    Ok(Ablation { parameter: "uniform sample size γ".into(), points })
}

/// Swap the uncertainty estimator (DWKNN vs alternatives).
pub fn ablation_estimator(fixture: &Fixture) -> Result<Ablation> {
    let kinds = [
        EstimatorKind::Dwknn { k: 5 },
        EstimatorKind::Knn { k: 5 },
        EstimatorKind::NaiveBayes,
        EstimatorKind::LinearSvm { epochs: 30, lambda: 1e-3 },
    ];
    let mut points = Vec::new();
    for kind in kinds {
        let variation = Variation { estimator: Some(kind), ..Variation::default() };
        points.push(summarize_variation(fixture, &variation, kind.name().to_string())?);
    }
    Ok(Ablation { parameter: "uncertainty estimator".into(), points })
}

/// Uncertainty sampling vs uniform random selection over the same UEI
/// storage: quantifies what active learning itself buys (paper §2.1's
/// motivation for uncertainty sampling).
pub fn ablation_strategy(fixture: &Fixture) -> Result<Ablation> {
    let mut points = Vec::new();
    points.push(summarize_variation(fixture, &Variation::default(), "uncertainty".into())?);
    let random = Variation { random_strategy: true, ..Variation::default() };
    points.push(summarize_variation(fixture, &random, "random".into())?);
    Ok(Ablation { parameter: "query strategy".into(), points })
}

/// Sweep how many loaded regions stay resident in the unlabeled cache
/// (the paper's default is 1; this quantifies the memory/recall trade).
pub fn ablation_regions(fixture: &Fixture, counts: &[usize]) -> Result<Ablation> {
    let mut points = Vec::new();
    for &k in counts {
        let variation = Variation { regions_in_memory: Some(k), ..Variation::default() };
        points.push(summarize_variation(fixture, &variation, format!("{k} regions"))?);
    }
    Ok(Ablation { parameter: "regions resident in U".into(), points })
}

/// Sweep the retraining batch size B (Algorithm 1's effectiveness /
/// efficiency trade-off).
pub fn ablation_batch(fixture: &Fixture, batches: &[usize]) -> Result<Ablation> {
    let mut points = Vec::new();
    for &b in batches {
        let variation = Variation { batch_size: Some(b), ..Variation::default() };
        points.push(summarize_variation(fixture, &variation, format!("B={b}"))?);
    }
    Ok(Ablation { parameter: "retraining batch size B".into(), points })
}

/// Prefetch on/off at several latency thresholds σ.
pub fn ablation_prefetch(fixture: &Fixture, sigmas: &[f64]) -> Result<Ablation> {
    let mut points = Vec::new();
    points.push(summarize_variation(fixture, &Variation::default(), "off".into())?);
    for &sigma in sigmas {
        let variation = Variation { prefetch_sigma: Some(sigma), ..Variation::default() };
        points.push(summarize_variation(fixture, &variation, format!("σ={sigma}s"))?);
    }
    Ok(Ablation { parameter: "prefetch latency threshold σ".into(), points })
}

/// Sweep the chunk size — needs its own stores, so it takes the fixture
/// root rather than a built fixture.
pub fn ablation_chunk_size(
    root: &Path,
    base: &ExperimentScale,
    chunk_sizes: &[usize],
) -> Result<Ablation> {
    let mut points = Vec::new();
    for &cb in chunk_sizes {
        let mut scale = base.clone();
        scale.chunk_target_bytes = cb;
        let fixture = Fixture::build(root, scale)?;
        points.push(summarize_variation(
            &fixture,
            &Variation::default(),
            format!("{} KB", cb / 1024),
        )?);
    }
    Ok(Ablation { parameter: "chunk size".into(), points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "uei-exp-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_scale() -> ExperimentScale {
        ExperimentScale {
            rows: 4_000,
            runs: 2,
            max_labels: 15,
            gamma: 300,
            eval_sample: 400,
            chunk_target_bytes: 8 * 1024,
            cells_per_dim: 3,
            memory_fraction: 0.01,
            row_pad_bytes: 4048,
            seed: 77,
        }
    }

    #[test]
    fn oracles_are_shared_between_schemes_and_deterministic() {
        let root = temp_root("oracles");
        let fixture = Fixture::build(&root, tiny_scale()).unwrap();
        let a = oracles_for_runs(&fixture, RegionSize::Medium, 2).unwrap();
        let b = oracles_for_runs(&fixture, RegionSize::Medium, 2).unwrap();
        assert_eq!(a[0].relevant_ids(), b[0].relevant_ids());
        assert_ne!(a[0].relevant_ids(), a[1].relevant_ids(), "runs differ");
        let small = oracles_for_runs(&fixture, RegionSize::Small, 1).unwrap();
        assert!(small[0].num_relevant() < a[0].num_relevant());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn response_time_figure_shape() {
        // The headline claim at miniature scale: UEI beats the baseline by
        // a large factor and stays sub-500 ms.
        let root = temp_root("fig6");
        let fixture = Fixture::build(&root, tiny_scale()).unwrap();
        let fig = fig6_response_time(&fixture).unwrap();
        assert_eq!(fig.rows.len(), 6);
        assert!(fig.speedup > 5.0, "speedup {}", fig.speedup);
        for row in &fig.rows {
            if row.scheme == "UEI" {
                assert!(row.sub_500ms, "UEI {} ms", row.mean_response_ms);
            }
        }
        // Response time is flat in region size for both schemes (paper:
        // "the response time remains the same across all three target
        // interest regions sizes").
        let uei: Vec<f64> =
            fig.rows.iter().filter(|r| r.scheme == "UEI").map(|r| r.mean_response_ms).collect();
        let spread = (uei.iter().cloned().fold(f64::MIN, f64::max)
            - uei.iter().cloned().fold(f64::MAX, f64::min))
            / mean_of(&uei).max(1e-9);
        assert!(spread < 3.0, "UEI response should not scale with region size: {uei:?}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn complexity_report_shows_e_much_less_than_n() {
        let root = temp_root("complexity");
        let fixture = Fixture::build(&root, tiny_scale()).unwrap();
        let report = complexity(&fixture).unwrap();
        assert_eq!(report.n, 4000);
        assert!(
            report.dbms_examined_mean >= report.n as f64 * 0.99,
            "baseline examines ~n per iteration"
        );
        assert!(report.n_over_e > 2.0, "n/e = {}", report.n_over_e);
        assert!(report.byte_ratio > 5.0, "byte ratio {}", report.byte_ratio);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn table1_lists_paper_parameters() {
        let rows = table1(&ExperimentScale::accuracy());
        let find =
            |k: &str| rows.iter().find(|(key, _)| key.contains(k)).map(|(_, v)| v.clone()).unwrap();
        assert_eq!(find("Symbolic Index Points"), "3125");
        assert_eq!(find("Latency"), "500ms");
        assert!(find("Cardinality").contains("0.1%"));
        assert_eq!(find("runs per result"), "10");
    }

    #[test]
    fn accuracy_figure_runs_end_to_end() {
        let root = temp_root("figacc");
        let mut scale = tiny_scale();
        scale.runs = 2;
        scale.max_labels = 12;
        let fixture = Fixture::build(&root, scale).unwrap();
        let fig = fig_accuracy(&fixture, RegionSize::Large).unwrap();
        assert_eq!(fig.figure, "fig5");
        assert_eq!(fig.uei.runs, 2);
        assert_eq!(fig.dbms.runs, 2);
        assert!(!fig.uei.series.is_empty());
        assert!(fig.region_fraction_mean > 0.0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn ablation_grid_runs() {
        let root = temp_root("ablgrid");
        let fixture = Fixture::build(&root, tiny_scale()).unwrap();
        let ab = ablation_grid(&fixture, &[2, 4]).unwrap();
        assert_eq!(ab.points.len(), 2);
        assert!(ab.points.iter().all(|p| p.final_f_measure >= 0.0));
        std::fs::remove_dir_all(&root).unwrap();
    }
}
