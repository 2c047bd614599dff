//! Tuning interactive exploration: the latency threshold σ and the
//! background prefetcher (paper §3.2).
//!
//! UEI lets the user set a response-latency threshold σ; when region loads
//! approach it, UEI starts fetching the predicted next region in the
//! background, θ = ⌈τ/σ⌉ iterations ahead. This example runs the same
//! exploration with the prefetcher off and on, and shows how many regions
//! the prefetcher served and what that does to foreground latency.
//!
//! ```text
//! cargo run --release --example latency_tuning
//! ```

use std::sync::Arc;

use uei::prelude::*;

fn run(prefetch: bool, defer: bool, sigma: f64) -> uei::types::Result<(f64, usize, usize, u64)> {
    let rows = generate_sdss_like(&SynthConfig { rows: 25_000, seed: 3, ..Default::default() });
    let dir = std::env::temp_dir().join(format!("uei-example-latency-{prefetch}-{defer}-{sigma}"));
    let _ = std::fs::remove_dir_all(&dir);
    // A slow device makes the trade-off visible: a SATA SSD instead of NVMe.
    let store = Arc::new(ColumnStore::create(
        &dir,
        Schema::sdss(),
        &rows,
        StoreConfig { chunk_target_bytes: 16 * 1024 },
        DiskTracker::new(IoProfile::sata_ssd()),
    )?);

    let mut rng = Rng::new(17);
    let mut backend = UeiBackend::new(
        store,
        UeiConfig {
            cells_per_dim: 5,
            latency_threshold_secs: sigma,
            prefetch,
            // A tight chunk cache (~1 % of the data) so synchronous region
            // loads actually pay I/O, as in the paper's memory-restricted
            // setup; otherwise the cache hides the prefetcher's benefit.
            chunk_cache_bytes: 64 * 1024,
            regions_in_memory: 1,
            defer_swaps: defer,
            ..UeiConfig::default()
        },
        UncertaintyMeasure::LeastConfidence,
        1_000,
        &mut rng,
    )?;

    let target = generate_target_region(&rows, &Schema::sdss(), RegionSize::Medium, &mut rng)?;
    let oracle = Oracle::new(target);
    let config = SessionConfig { max_labels: 50, eval_sample: 0, ..Default::default() };
    let clock = backend.index().store().tracker().clone();
    let result = ExplorationSession::new(&mut backend, &oracle, config, clock).run()?;

    let mean_ms = result.total_virtual_secs * 1e3 / result.traces.len().max(1) as f64;
    let prefetched = result.traces.iter().filter(|t| t.prefetched).count();
    let total = result.traces.len();
    let deferred = backend.index().deferred_swaps();
    std::fs::remove_dir_all(&dir).ok();
    Ok((mean_ms, prefetched, total, deferred))
}

fn main() -> uei::types::Result<()> {
    println!("exploring on a modeled SATA SSD (550 MB/s) with a medium target region\n");
    let (off_ms, _, n, _) = run(false, false, 0.5)?;
    println!("prefetch OFF          : mean foreground response {off_ms:.2} ms over {n} iterations");
    for sigma in [0.5, 0.1, 0.02] {
        let (ms, served, n, _) = run(true, false, sigma)?;
        println!(
            "prefetch ON, σ = {sigma:>5}s: mean foreground response {ms:.2} ms; {served}/{n} \
             regions served from background loads"
        );
    }
    // Swap deferral: with a σ far below the region load time, UEI keeps
    // serving the current region rather than blowing the threshold.
    let (ms, _, n, deferred) = run(false, true, 1e-6)?;
    println!(
        "defer ON,    σ =  1µs : mean foreground response {ms:.2} ms; {deferred}/{n} \
         swaps deferred to hold σ"
    );
    println!(
        "\nPrefetched regions cost zero foreground I/O: their load overlapped the user's\n\
         labeling think-time; deferral trades candidate freshness for latency when even\n\
         that is not enough. Together they implement §3.2's tuning knobs."
    );
    Ok(())
}
