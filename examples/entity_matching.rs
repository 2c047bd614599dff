//! UEI beyond IDE: an active-learning **record matching** task.
//!
//! The paper notes UEI "can also be used in combination with any active
//! learning-based human-in-the-loop (HIL) applications", naming record
//! matching and entity resolution (§1). This example builds such a task:
//! candidate record *pairs* are embedded as similarity-feature vectors
//! (name similarity, address similarity, phone/email agreement, …), the
//! simulated "user" confirms or rejects matches, and UEI serves the most
//! uncertain pairs from disk exactly as it serves tuples in IDE.
//!
//! ```text
//! cargo run --release --example entity_matching
//! ```

use std::sync::Arc;

use uei::learn::strategy::QueryStrategy;
use uei::prelude::*;
use uei::types::{AttributeDef, DataPoint};

/// Similarity features of one candidate record pair. True matches cluster
/// near (1, 1, 1, 1); hard cases sit in the middle of the space.
fn candidate_pairs(n: usize, seed: u64) -> (Vec<DataPoint>, Vec<bool>) {
    let mut rng = Rng::new(seed);
    let mut rows = Vec::with_capacity(n);
    let mut truth = Vec::with_capacity(n);
    for id in 0..n {
        let is_match = rng.bool(0.15);
        let (name_sim, addr_sim, phone_eq, email_sim) = if is_match {
            (
                rng.normal(0.88, 0.08).clamp(0.0, 1.0),
                rng.normal(0.80, 0.12).clamp(0.0, 1.0),
                if rng.bool(0.7) { 1.0 } else { 0.0 },
                rng.normal(0.75, 0.15).clamp(0.0, 1.0),
            )
        } else {
            (
                rng.normal(0.35, 0.18).clamp(0.0, 1.0),
                rng.normal(0.30, 0.18).clamp(0.0, 1.0),
                if rng.bool(0.05) { 1.0 } else { 0.0 },
                rng.normal(0.25, 0.15).clamp(0.0, 1.0),
            )
        };
        rows.push(DataPoint::new(id as u64, vec![name_sim, addr_sim, phone_eq, email_sim]));
        truth.push(is_match);
    }
    (rows, truth)
}

fn pair_schema() -> Schema {
    Schema::new(vec![
        AttributeDef::new("name_similarity", 0.0, 1.0).expect("static"),
        AttributeDef::new("address_similarity", 0.0, 1.0).expect("static"),
        AttributeDef::new("phone_equal", 0.0, 1.0).expect("static"),
        AttributeDef::new("email_similarity", 0.0, 1.0).expect("static"),
    ])
    .expect("static schema")
}

fn main() -> uei::types::Result<()> {
    let (pairs, truth) = candidate_pairs(25_000, 99);
    let matches = truth.iter().filter(|&&m| m).count();
    println!("{} candidate pairs, {} true matches", pairs.len(), matches);

    // Store the similarity vectors with UEI's inverted columnar layout.
    let dir = std::env::temp_dir().join("uei-example-er");
    let _ = std::fs::remove_dir_all(&dir);
    let schema = pair_schema();
    let store = Arc::new(ColumnStore::create(
        &dir,
        schema.clone(),
        &pairs,
        StoreConfig { chunk_target_bytes: 16 * 1024 },
        DiskTracker::new(IoProfile::nvme()),
    )?);

    let mut rng = Rng::new(5);
    let index_config = UeiConfig { cells_per_dim: 4, ..UeiConfig::default() };
    let mut index = UeiIndex::build(Arc::clone(&store), index_config)?;
    println!(
        "UEI grid: {} symbolic index points over the 4-D similarity space",
        index.grid().num_cells()
    );

    // Active learning loop: the "user" is the ground truth above.
    let mut labeled: Vec<(Vec<f64>, Label)> = Vec::new();
    let mut labeled_ids = std::collections::HashSet::new();
    let pool = store.sample_rows(600, &mut rng)?;

    // Seed with one match and one non-match.
    for p in &pool {
        let is_match = truth[p.id.as_usize()];
        let needed = if is_match {
            !labeled.iter().any(|(_, l)| l.is_positive())
        } else {
            !labeled.iter().any(|(_, l)| !l.is_positive())
        };
        if needed {
            labeled.push((p.values.clone(), Label::from_bool(is_match)));
            labeled_ids.insert(p.id);
        }
        if labeled.len() >= 2 && labeled.iter().any(|(_, l)| l.is_positive()) {
            break;
        }
    }

    let scaler = MinMaxScaler::from_schema(&schema);
    let mut strategy = UncertaintySampling::new(UncertaintyMeasure::LeastConfidence);
    let budget = 50;
    for round in 0..budget {
        let model =
            ScaledClassifier::train(EstimatorKind::Dwknn { k: 5 }, scaler.clone(), &labeled)?;

        // UEI: load the subspace of most-uncertain candidate pairs.
        index.update_uncertainty(&model);
        let load = index.select_and_load()?;
        let mut candidates: Vec<DataPoint> =
            load.rows.into_iter().filter(|p| !labeled_ids.contains(&p.id)).collect();
        candidates.extend(pool.iter().filter(|p| !labeled_ids.contains(&p.id)).cloned());

        let Some(pick) = strategy.select(&model, &candidates) else { break };
        let point = candidates[pick].clone();
        let is_match = truth[point.id.as_usize()];
        labeled.push((point.values.clone(), Label::from_bool(is_match)));
        labeled_ids.insert(point.id);

        if (round + 1) % 10 == 0 {
            // Evaluate on the full candidate set.
            let mut tp = 0u64;
            let mut fp = 0u64;
            let mut fn_ = 0u64;
            for (p, &m) in pairs.iter().zip(&truth) {
                let predicted = model.predict(&p.values).is_positive();
                match (m, predicted) {
                    (true, true) => tp += 1,
                    (false, true) => fp += 1,
                    (true, false) => fn_ += 1,
                    _ => {}
                }
            }
            let cm = uei::learn::metrics::ConfusionMatrix { tp, fp, fn_, tn: 0 };
            println!(
                "after {:>3} labels: match-F1 = {:.3} (precision {:.3}, recall {:.3})",
                labeled.len(),
                cm.f_measure(),
                cm.precision(),
                cm.recall()
            );
        }
    }

    let final_model = ScaledClassifier::train(EstimatorKind::Dwknn { k: 5 }, scaler, &labeled)?;
    let predicted_matches =
        pairs.iter().filter(|p| final_model.predict(&p.values).is_positive()).count();
    println!(
        "\nlabeled {} of {} pairs ({:.2} %) to build the matcher; it flags {} pairs as matches",
        labeled.len(),
        pairs.len(),
        100.0 * labeled.len() as f64 / pairs.len() as f64,
        predicted_matches
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
