//! The metric tables: what an untraced run reports end to end, what a
//! traced run reports per layer, and which end-to-end metric each layer
//! metric should move. `BENCHMARK.json` and `README.md` mirror these tables;
//! a unit test keeps `BENCHMARK.json` in step.

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, measured with spans off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may worsen before
    /// `compare` (and the driver) call it a regression.
    pub bound: f64,
    pub definition: &'static str,
}

/// A metric of one layer (a workspace crate), from the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this one should move, and on which workload.
    pub moves: &'static str,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 16] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        definition: "synth + ColumnStore::create + EngineCore::new, median over the initialization repetitions",
    },
    EndToEnd {
        name: "response_wall_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        definition: "IterationTrace::response_wall_ms (refit + select_next), median over all pooled iterations",
    },
    EndToEnd {
        name: "response_wall_ms_p95",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        definition: "same, p95 (240 samples leave 12 beyond it)",
    },
    EndToEnd {
        name: "response_virtual_ms_mean",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        definition: "modeled-disk response per iteration, the paper's reported figure, mean (the median is 0 where most iterations reuse every chunk)",
    },
    EndToEnd {
        name: "response_virtual_ms_p95",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        definition: "modeled-disk response, p95",
    },
    EndToEnd {
        name: "sigma_met_ratio",
        unit: "ratio",
        better: Higher,
        bound: 0.01,
        definition: "iterations answered within sigma = 0.5 s wall over iterations attempted; a failed iteration misses",
    },
    EndToEnd {
        name: "iterations_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        definition: "iterations completed over the wall time of the measured phase, all clients together",
    },
    EndToEnd {
        name: "bytes_read_per_iter",
        unit: "bytes",
        better: Lower,
        bound: 0.25,
        definition: "modeled bytes read per iteration (the O(ke) claim); repeats exactly for one seed without prefetch",
    },
    EndToEnd {
        name: "session_start_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        definition: "UeiBackend::from_engine + ExplorationSession::start, median over sessions",
    },
    EndToEnd {
        name: "retrieve_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        definition: "ExplorationSession::finish (final model + full-scan result retrieval), median over sessions",
    },
    EndToEnd {
        name: "session_wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        definition: "one whole session as its user waits for it: backend construction, start, every step, finish; median over sessions",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
        definition: "VmHWM of the benchmark process once initialization is done (generated rows in memory, store built); what exploring adds is allocator-arena growth that varies by 28% between runs",
    },
    EndToEnd {
        name: "completed_ratio",
        unit: "ratio",
        better: Higher,
        bound: 0.01,
        definition: "iterations that neither errored, degraded nor needed a fallback cell, over iterations attempted",
    },
    EndToEnd {
        name: "build_rows_per_s",
        unit: "rows/s",
        better: Higher,
        bound: 0.25,
        definition: "rows over the median ColumnStore::create wall time",
    },
    EndToEnd {
        name: "open_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        definition: "median ColumnStore::open + EngineCore::new on an existing store",
    },
    EndToEnd {
        name: "stored_bytes_per_user_byte",
        unit: "ratio",
        better: Lower,
        bound: 0.01,
        definition: "bytes on disk under the store directory over rows x dims x 8",
    },
];

macro_rules! layer {
    ($name:literal, $unit:literal, $better:ident, $moves:literal) => {
        PerLayer { name: $name, unit: $unit, better: $better, moves: $moves }
    };
}

pub const PER_LAYER: [PerLayer; 60] = [
    layer!("storage.region_load_ms_p50", "ms", Lower, "response_wall_ms_p50 on paper_cold, paper_prefetch, build"),
    layer!("storage.region_load_ms_p95", "ms", Lower, "response_wall_ms_p95 on paper_cold, paper_prefetch, build"),
    layer!("storage.region_load_share", "ratio", Lower, "share of the response window; most of it on paper_*, least on grid_1m_*"),
    layer!("storage.read_chunk_us_p50", "us", Lower, "storage.region_load_ms on paper_cold; no move on paper_shared_x2 (hits skip it)"),
    layer!("storage.read_chunk_us_p95", "us", Lower, "storage.region_load_ms_p95 on paper_cold"),
    layer!("storage.decode_chunk_us_p50", "us", Lower, "storage.region_load_ms on paper_cold; no move on paper_shared_x2"),
    layer!("storage.decode_chunk_us_p95", "us", Lower, "storage.region_load_ms_p95 on paper_cold"),
    layer!("storage.decode_mb_per_s", "MB/s", Higher, "storage.region_load_ms on paper_cold"),
    layer!("storage.merge_est_ms", "ms", Lower, "response_wall_ms_p50, iterations_per_s on paper_shared_x2"),
    layer!("storage.chunks_loaded_per_iter", "count", Lower, "bytes_read_per_iter, response_virtual_ms_mean everywhere"),
    layer!("storage.chunks_reused_per_iter", "count", Higher, "bytes_read_per_iter everywhere"),
    layer!("storage.delta_reuse_ratio", "ratio", Higher, "bytes_read_per_iter everywhere"),
    layer!("storage.entries_matched_per_iter", "count", Lower, "storage.merge_est_ms on paper_*"),
    layer!("storage.merge_selectivity", "ratio", Higher, "storage.merge_est_ms on paper_*"),
    layer!("storage.region_rows_per_iter", "rows", Lower, "learn.sample_select_ms on paper_*"),
    layer!("storage.cache_hit_ratio", "ratio", Higher, "bytes_read_per_iter on paper_shared_x2; near 0 by construction on paper_cold"),
    layer!("storage.cache_evictions_per_iter", "count", Lower, "response_wall_ms_p50 on paper_cold"),
    layer!("storage.cache_bypasses_per_iter", "count", Lower, "response_wall_ms_p50 on paper_cold"),
    layer!("storage.create_s", "s", Lower, "build_rows_per_s, setup_s on build"),
    layer!("storage.create_rows_per_s", "rows/s", Higher, "build_rows_per_s on build"),
    layer!("storage.open_ms", "ms", Lower, "open_ms on build"),
    layer!("storage.chunk_files", "count", Lower, "stored_bytes_per_user_byte"),
    layer!("storage.store_bytes", "bytes", Lower, "stored_bytes_per_user_byte"),
    layer!("index.rescore_ms_p50", "ms", Lower, "response_wall_ms_p50 on grid_1m_*; no move on paper_*"),
    layer!("index.rescore_ms_p95", "ms", Lower, "response_wall_ms_p95 on grid_1m_*"),
    layer!("index.rescore_share", "ratio", Lower, "share of the response window; most of it on grid_1m_*, about 1% on paper_*"),
    layer!("index.points_rescored_per_iter", "count", Lower, "index.rescore_ms on grid_1m_dwknn"),
    layer!("index.rescore_dirty_ratio", "ratio", Lower, "index.rescore_ms on grid_1m_dwknn; pinned at 1.0 on grid_1m_nb"),
    layer!("index.rescore_ns_per_point", "ns", Lower, "index.rescore_ms on grid_1m_dwknn and grid_1m_nb"),
    layer!("index.select_ms_p50", "ms", Lower, "response_wall_ms_p50 on grid_1m_*"),
    layer!("index.select_ms_p95", "ms", Lower, "response_wall_ms_p95 on grid_1m_*"),
    layer!("index.shards_touched_per_iter", "count", Lower, "index.rescore_ms on grid_1m_dwknn"),
    layer!("index.shards_pruned_per_iter", "count", Higher, "index.rescore_ms on grid_1m_dwknn"),
    layer!("index.region_swap_ratio", "ratio", Lower, "bytes_read_per_iter everywhere"),
    layer!("index.prefetch_hit_ratio", "ratio", Higher, "response_wall_ms_p50, response_virtual_ms_mean on paper_prefetch only"),
    layer!("index.retries", "count", Lower, "completed_ratio (expected 0)"),
    layer!("index.fallback_cells", "count", Lower, "completed_ratio (expected 0)"),
    layer!("index.engine_new_ms", "ms", Lower, "open_ms, setup_s on grid_1m_* (mapping over 1M cells)"),
    layer!("index.open_session_ms", "ms", Lower, "session_start_ms on grid_1m_*"),
    layer!("learn.refit_ms_p50", "ms", Lower, "response_wall_ms_p50 everywhere; small, grows with labels"),
    layer!("learn.refit_ms_p95", "ms", Lower, "response_wall_ms_p95 everywhere"),
    layer!("learn.sample_select_ms_p50", "ms", Lower, "response_wall_ms_p50 on paper_*"),
    layer!("learn.sample_select_ms_p95", "ms", Lower, "response_wall_ms_p95 on paper_*"),
    layer!("learn.pool_ms_p50", "ms", Lower, "response_wall_ms_p50 on paper_*"),
    layer!("learn.pool_ms_p95", "ms", Lower, "response_wall_ms_p95 on paper_*"),
    layer!("learn.sample_candidates_per_iter", "count", Lower, "learn.sample_select_ms on paper_*"),
    layer!("explore.step_tail_us_p50", "us", Lower, "iterations_per_s on paper_shared_x2 (journal append)"),
    layer!("explore.step_tail_us_p95", "us", Lower, "iterations_per_s on paper_shared_x2 (journal snapshot)"),
    layer!("explore.step_ms_p50", "ms", Lower, "iterations_per_s everywhere"),
    layer!("explore.step_ms_p95", "ms", Lower, "iterations_per_s everywhere"),
    layer!("explore.start_ms", "ms", Lower, "session_start_ms everywhere"),
    layer!("explore.finish_ms", "ms", Lower, "retrieve_s everywhere"),
    layer!("explore.retrieve_rows_per_s", "rows/s", Higher, "retrieve_s everywhere"),
    layer!("explore.final_f", "ratio", Higher, "none; mean exact final F-measure, repeats exactly for one seed (about 0 under the linear SVM)"),
    layer!("explore.peak_rss_mb", "MB", Lower, "none; VmHWM when the workload ends, exploration included"),
    layer!("explore.residual_ratio", "ratio", Lower, "none; gate <= 0.05"),
    layer!("bench.trace_overhead_ratio", "ratio", Lower, "none; reported"),
    layer!("bench.spans", "count", Lower, "none; spans recorded by the traced driver"),
    layer!("bench.regions_verified", "count", Higher, "none; loaded regions checked against a brute-force filter"),
    layer!("bench.reference_sessions", "count", Higher, "none; sessions replayed through UeiBackend for the fingerprint check"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, unit: &str) {
        assert!(!name.is_empty() && name.len() <= 64, "{name}");
        assert!(name.chars().next().unwrap().is_ascii_alphanumeric(), "{name}");
        assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)), "{unit}");
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names = std::collections::HashSet::new();
        for m in &END_TO_END {
            well_formed(m.name, m.unit);
            assert!(names.insert(m.name), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            well_formed(m.name, m.unit);
            assert!(names.insert(m.name), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    /// `BENCHMARK.json` sits outside this package; when the package is
    /// built inside the repository the two must agree.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else { return };
        let doc: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| match doc.get(key) {
            Some(serde::Value::Array(items)) => items.clone(),
            other => panic!("{key}: expected an array, got {other:?}"),
        };
        let text_of = |v: &serde::Value, key: &str| match v.get(key) {
            Some(serde::Value::Str(s)) => s.clone(),
            other => panic!("{key}: expected a string, got {other:?}"),
        };
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (json, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text_of(json, "name"), m.name);
            assert_eq!(text_of(json, "unit"), m.unit);
            assert_eq!(text_of(json, "better"), m.better.name());
            assert_eq!(json.get("bound"), Some(&serde::Value::Float(m.bound)), "{}", m.name);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (json, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text_of(json, "name"), m.name);
            assert_eq!(text_of(json, "unit"), m.unit);
            assert_eq!(text_of(json, "better"), m.better.name());
        }
        let workloads = list("workloads");
        assert_eq!(workloads.len(), crate::workload::WORKLOADS.len());
        for (json, w) in workloads.iter().zip(&crate::workload::WORKLOADS) {
            assert_eq!(text_of(json, "name"), w.name);
            assert_eq!(text_of(json, "why"), w.why);
        }
    }
}
