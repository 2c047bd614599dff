//! Quickstart: build a store, index it with UEI, and run a short
//! interactive exploration with a simulated user.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use uei::prelude::*;

fn main() -> uei::types::Result<()> {
    // ------------------------------------------------------------------
    // 1. Data: an SDSS-like dataset (rowc, colc, ra, dec, field).
    // ------------------------------------------------------------------
    let rows = generate_sdss_like(&SynthConfig { rows: 20_000, seed: 7, ..Default::default() });
    println!("generated {} SDSS-like tuples", rows.len());

    // ------------------------------------------------------------------
    // 2. Index initialization (paper Algorithm 2, lines 1–11): vertical
    //    decomposition, sorted <key, {ids}> chunks on disk, grid of
    //    symbolic index points.
    // ------------------------------------------------------------------
    let dir = std::env::temp_dir().join("uei-example-quickstart");
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(ColumnStore::create(
        &dir,
        Schema::sdss(),
        &rows,
        StoreConfig::default(),
        DiskTracker::new(IoProfile::nvme()), // the paper's disk
    )?);
    println!(
        "store initialized: {} chunks, {} bytes of inverted columns",
        store.manifest().total_chunks(),
        store.manifest().total_chunk_bytes()
    );

    let mut rng = Rng::new(42);
    let mut backend = UeiBackend::new(
        store,
        UeiConfig { cells_per_dim: 4, ..UeiConfig::default() },
        UncertaintyMeasure::LeastConfidence,
        800, // γ: uniform sample cached in memory
        &mut rng,
    )?;

    // ------------------------------------------------------------------
    // 3. A simulated user interested in one region (~1 % of the data).
    // ------------------------------------------------------------------
    let target = generate_target_region_fraction(&rows, &Schema::sdss(), 0.01, &mut rng)?;
    println!(
        "target region: {} relevant tuples ({:.2} % of the data)",
        target.relevant_ids.len(),
        target.fraction * 100.0
    );
    let oracle = Oracle::new(target);

    // ------------------------------------------------------------------
    // 4. Interactive exploration: 40 labels of yes/no feedback.
    // ------------------------------------------------------------------
    let config = SessionConfig { max_labels: 40, eval_sample: 1_500, ..Default::default() };
    // The session runs on the backend's own modeled disk clock.
    let clock = backend.index().store().tracker().clone();
    let result = ExplorationSession::new(&mut backend, &oracle, config, clock).run()?;

    println!("\n labels |  est. F-measure | response (modeled)");
    for t in result.traces.iter().step_by(5) {
        println!(
            "  {:>5} | {:>14.3} | {:>8.2} ms{}",
            t.labels,
            t.f_measure.unwrap_or(f64::NAN),
            t.response_virtual_ms,
            if t.prefetched { "  (prefetched)" } else { "" }
        );
    }
    println!("\nfinal F-measure (exact, full result retrieval): {:.3}", result.final_f_measure);
    println!(
        "mean response time: {:.2} ms over {} iterations",
        result.total_virtual_secs * 1e3 / result.traces.len().max(1) as f64,
        result.traces.len()
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
