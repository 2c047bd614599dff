//! Side-by-side exploration: UEI vs the MySQL-like baseline on the same
//! task — a miniature of the paper's whole evaluation.
//!
//! Both schemes explore the *same* target region with the *same* simulated
//! user under the *same* 1 % memory restriction, and the example prints
//! accuracy convergence and per-iteration response times for both.
//!
//! ```text
//! cargo run --release --example sdss_exploration
//! ```

use std::sync::Arc;

use uei::dbms::table::Table;
use uei::prelude::*;

const ROWS: usize = 30_000;
const LABELS: usize = 60;
const MEMORY_FRACTION: f64 = 0.01;

fn main() -> uei::types::Result<()> {
    let rows = generate_sdss_like(&SynthConfig { rows: ROWS, seed: 11, ..Default::default() });
    let mut rng = Rng::new(2025);
    let target = generate_target_region(&rows, &Schema::sdss(), RegionSize::Medium, &mut rng)?;
    println!(
        "exploring a medium target region: {} relevant of {} tuples ({:.2} %)",
        target.relevant_ids.len(),
        rows.len(),
        target.fraction * 100.0
    );
    let oracle = Oracle::new(target);
    let root = std::env::temp_dir().join("uei-example-sdss");
    let _ = std::fs::remove_dir_all(&root);

    let config = SessionConfig { max_labels: LABELS, eval_sample: 2_000, ..Default::default() };

    // --- UEI scheme ----------------------------------------------------
    let store = Arc::new(ColumnStore::create(
        root.join("store"),
        Schema::sdss(),
        &rows,
        StoreConfig { chunk_target_bytes: 16 * 1024 },
        DiskTracker::new(IoProfile::nvme()),
    )?);
    let cache_bytes = (store.manifest().total_chunk_bytes() as f64 * MEMORY_FRACTION) as usize;
    let mut uei_rng = Rng::new(1);
    let mut uei_backend = UeiBackend::new(
        store,
        UeiConfig {
            cells_per_dim: 5,
            chunk_cache_bytes: cache_bytes.max(64 * 1024),
            ..UeiConfig::default()
        },
        UncertaintyMeasure::LeastConfidence,
        1_000,
        &mut uei_rng,
    )?;
    let uei_clock = uei_backend.index().store().tracker().clone();
    let uei_result =
        ExplorationSession::new(&mut uei_backend, &oracle, config.clone(), uei_clock).run()?;

    // --- MySQL-like scheme ----------------------------------------------
    let dbms_tracker = DiskTracker::new(IoProfile::nvme());
    // Full-width rows like the paper's PhotoObjAll (≈4 KB each, charged in
    // the I/O model).
    let table =
        Table::create_padded(root.join("table"), Schema::sdss(), &rows, 4048, &dbms_tracker)?;
    let pool_pages = ((table.size_bytes() as f64 * MEMORY_FRACTION) as usize
        / uei::dbms::page::PAGE_SIZE)
        .max(1);
    let pool = BufferPool::new(pool_pages, dbms_tracker.clone())?;
    let mut dbms_backend = DbmsBackend::with_pool(table, pool, UncertaintyMeasure::LeastConfidence);
    let dbms_result =
        ExplorationSession::new(&mut dbms_backend, &oracle, config, dbms_tracker).run()?;

    // --- Report ----------------------------------------------------------
    println!("\n labels |   UEI F  | MySQL F  |  UEI ms  | MySQL ms");
    for t in uei_result.traces.iter().step_by(6) {
        let other = dbms_result.traces.iter().find(|d| d.labels == t.labels);
        println!(
            "  {:>5} | {:>8.3} | {:>8.3} | {:>8.2} | {:>8.2}",
            t.labels,
            t.f_measure.unwrap_or(f64::NAN),
            other.and_then(|d| d.f_measure).unwrap_or(f64::NAN),
            t.response_virtual_ms,
            other.map(|d| d.response_virtual_ms).unwrap_or(f64::NAN),
        );
    }
    let uei_mean = uei_result.total_virtual_secs * 1e3 / uei_result.traces.len() as f64;
    let dbms_mean = dbms_result.total_virtual_secs * 1e3 / dbms_result.traces.len() as f64;
    println!(
        "\nfinal F-measure:  UEI {:.3}   MySQL-like {:.3}",
        uei_result.final_f_measure, dbms_result.final_f_measure
    );
    println!(
        "mean response:    UEI {uei_mean:.2} ms   MySQL-like {dbms_mean:.2} ms   ({:.0}x)",
        dbms_mean / uei_mean.max(1e-9)
    );

    std::fs::remove_dir_all(&root).ok();
    Ok(())
}
