//! Pins the exact iteration sequence of a fixed-seed UEI exploration
//! session. The kd-tree layout work (flat SoA storage, bucketed leaves,
//! blocked distance kernels) promises *bit-identical* query results; this
//! golden trace was captured on the pre-change implementation, so any
//! layout change that perturbs a single nearest-neighbour result — and
//! with it one region selection — fails loudly here.

use std::sync::Arc;

use uei_explore::backend::UeiBackend;
use uei_explore::oracle::Oracle;
use uei_explore::session::{ExplorationSession, SessionConfig};
use uei_explore::synth::{generate_sdss_like, SynthConfig};
use uei_explore::workload::generate_target_region_fraction;
use uei_index::config::UeiConfig;
use uei_learn::strategy::UncertaintyMeasure;
use uei_storage::io::{DiskTracker, IoProfile};
use uei_storage::store::{ColumnStore, StoreConfig};
use uei_storage::TempDir;
use uei_types::{Rng, Schema};

/// Captured from the `Vec<Vec<f64>>` recursive kd-tree implementation at
/// seed state (dataset seed via `SynthConfig::default`, region rng 13,
/// backend rng 1, session seed 42). One entry per iteration:
/// `iteration:labels:label_positive:region_rows`.
const GOLDEN: &[&str] = &[
    "1:2:0:7",
    "2:3:0:4",
    "3:4:0:4",
    "4:5:0:22",
    "5:6:0:27",
    "6:7:0:3",
    "7:8:0:20",
    "8:9:1:29",
    "9:10:1:24",
    "10:11:0:30",
    "11:12:0:4",
    "12:13:1:4",
    "13:14:0:6",
    "14:15:0:6",
    "15:16:0:30",
    "16:17:0:2",
    "17:18:1:2",
    "18:19:0:20",
    "19:20:0:4",
    "20:21:0:4",
    "21:22:0:4",
    "22:23:0:4",
    "23:24:1:4",
];

/// Runs the pinned fixed-seed session and returns its
/// `iteration:labels:label_positive:region_rows` fingerprint.
fn run_pinned_session() -> Vec<String> {
    let dir = TempDir::new("golden-trace");
    let rows = generate_sdss_like(&SynthConfig { rows: 4000, ..Default::default() });
    let mut rng = Rng::new(13);
    let target = generate_target_region_fraction(&rows, &Schema::sdss(), 0.02, &mut rng).unwrap();
    let oracle = Oracle::new(target);

    let store = ColumnStore::create(
        dir.join("store"),
        Schema::sdss(),
        &rows,
        StoreConfig { chunk_target_bytes: 8192 },
        DiskTracker::new(IoProfile::instant()),
    )
    .unwrap();
    let mut backend_rng = Rng::new(1);
    let mut backend = UeiBackend::new(
        Arc::new(store),
        UeiConfig { cells_per_dim: 3, ..UeiConfig::default() },
        UncertaintyMeasure::LeastConfidence,
        300,
        &mut backend_rng,
    )
    .unwrap();
    let config = SessionConfig {
        max_labels: 25,
        bootstrap_size: 200,
        eval_sample: 400,
        ..SessionConfig::default()
    };
    let clock = backend.index().store().tracker().clone();
    let result = ExplorationSession::new(&mut backend, &oracle, config, clock).run().unwrap();

    result
        .traces
        .iter()
        .map(|t| {
            format!(
                "{}:{}:{}:{}",
                t.iteration,
                t.labels,
                u8::from(t.label_positive),
                t.region_rows.unwrap_or(0)
            )
        })
        .collect()
}

#[test]
fn fixed_seed_session_trace_is_pinned() {
    let fingerprint = run_pinned_session();
    assert_eq!(fingerprint, GOLDEN, "fixed-seed session diverged from the pinned pre-change trace");
}
