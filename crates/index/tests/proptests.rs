//! Property-based tests for the index: grid partition invariants, mapping
//! completeness, region loads vs brute force, and shard-count-invariant
//! ranking.

use std::sync::Arc;

use proptest::prelude::*;
use uei_index::grid::Grid;
use uei_index::mapping::ChunkMapping;
use uei_index::points::IndexPoints;
use uei_index::{UeiConfig, UeiIndex};
use uei_learn::strategy::UncertaintyMeasure;
use uei_learn::{EstimatorKind, MinMaxScaler, ScaledClassifier};
use uei_storage::io::{DiskTracker, IoProfile};
use uei_storage::store::{ColumnStore, StoreConfig};
use uei_types::{AttributeDef, DataPoint, Label, Rng, Schema};

fn schema2(x_max: f64, y_max: f64) -> Schema {
    Schema::new(vec![
        AttributeDef::new("x", 0.0, x_max).unwrap(),
        AttributeDef::new("y", -y_max, y_max).unwrap(),
    ])
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn grid_is_a_partition(
        cells in 1usize..8,
        x_max in 1.0f64..1000.0,
        y_max in 1.0f64..1000.0,
        points in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..100),
    ) {
        let schema = schema2(x_max, y_max);
        let grid = Grid::new(&schema, cells).unwrap();
        prop_assert_eq!(grid.num_cells(), cells * cells);
        for &(tx, ty) in &points {
            let p = vec![tx * x_max, (2.0 * ty - 1.0) * y_max];
            let cell = grid.cell_of(&p).unwrap();
            // Exactly one region contains the point.
            let mut containing = 0;
            for id in grid.cell_ids() {
                if grid.cell_region(id).unwrap().contains(&p).unwrap() {
                    containing += 1;
                    prop_assert_eq!(id, cell);
                }
            }
            prop_assert_eq!(containing, 1, "point {:?}", p);
        }
    }

    #[test]
    fn grid_id_coordinate_bijection(cells in 1usize..10) {
        let grid = Grid::new(&schema2(10.0, 10.0), cells).unwrap();
        let mut seen = std::collections::HashSet::new();
        for id in grid.cell_ids() {
            let coords = grid.id_to_coords(id).unwrap();
            prop_assert!(coords.iter().all(|&c| c < cells));
            prop_assert_eq!(grid.coords_to_id(&coords).unwrap(), id);
            prop_assert!(seen.insert(coords));
        }
        prop_assert_eq!(seen.len(), grid.num_cells());
    }

    #[test]
    fn loader_population_partitions_dataset(
        values in proptest::collection::vec((0.0f64..50.0, -25.0f64..25.0), 1..120),
        cells in 1usize..5,
        chunk_bytes in 128usize..2048,
    ) {
        let dir = uei_storage::TempDir::new("prop-load");
        let schema = schema2(50.0, 25.0);
        let rows: Vec<DataPoint> = values
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| DataPoint::new(i as u64, vec![x, y]))
            .collect();
        let tracker = DiskTracker::new(IoProfile::instant());
        let store = Arc::new(ColumnStore::create(
            dir.path(), schema, &rows,
            StoreConfig { chunk_target_bytes: chunk_bytes }, tracker).unwrap());
        let config =
            UeiConfig { cells_per_dim: cells, chunk_cache_bytes: 1 << 20, ..UeiConfig::default() };
        let mut index = UeiIndex::build(store, config).unwrap();

        let mut total = 0usize;
        let mut seen = std::collections::HashSet::new();
        for cell in index.grid().cell_ids() {
            let (loaded, _) = index.load_cell(cell).unwrap();
            // Every loaded row genuinely belongs to the cell.
            let region = index.grid().cell_region(cell).unwrap();
            for p in &loaded {
                prop_assert!(region.contains(&p.values).unwrap());
                prop_assert!(seen.insert(p.id), "row {} in two cells", p.id);
                prop_assert_eq!(p, &rows[p.id.as_usize()]);
            }
            total += loaded.len();
        }
        prop_assert_eq!(total, rows.len(), "every row in exactly one cell");
    }

    #[test]
    fn mapping_chunk_sets_match_manifest_lookup(
        values in proptest::collection::vec((0.0f64..10.0, -5.0f64..5.0), 5..100),
        cells in 1usize..6,
    ) {
        let dir = uei_storage::TempDir::new("prop-map");
        let schema = schema2(10.0, 5.0);
        let rows: Vec<DataPoint> = values
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| DataPoint::new(i as u64, vec![x, y]))
            .collect();
        let tracker = DiskTracker::new(IoProfile::instant());
        let store = ColumnStore::create(
            dir.path(), schema, &rows, StoreConfig { chunk_target_bytes: 256 }, tracker).unwrap();
        let grid = Grid::new(store.schema(), cells).unwrap();
        let mapping = ChunkMapping::build(&grid, store.manifest()).unwrap();
        for cell in grid.cell_ids() {
            let region = grid.cell_region(cell).unwrap();
            let chunks = mapping.chunks_for_cell(&grid, cell).unwrap();
            for (d, got) in chunks.iter().enumerate() {
                let want: Vec<_> = store
                    .manifest()
                    .chunks_overlapping(d, region.lo[d], region.hi[d])
                    .unwrap()
                    .iter()
                    .map(|m| m.id())
                    .collect();
                prop_assert_eq!(got, &want);
            }
        }
    }

    /// The shard count is invisible to selection: for every estimator kind
    /// (kNN-family incremental deltas, NB/SVM global fallbacks), a label
    /// trajectory rescored at 2, 4 and 8 shards holds bit-identical scores
    /// to the single-shard plane, and each iteration's cached per-shard
    /// top-θ merge equals the reference's uncached global ranking.
    #[test]
    fn ranking_is_identical_at_every_shard_count(seed in 0u64..1_000, theta in 1usize..40) {
        const ESTIMATORS: [EstimatorKind; 4] = [
            EstimatorKind::Dwknn { k: 3 },
            EstimatorKind::Knn { k: 3 },
            EstimatorKind::NaiveBayes,
            EstimatorKind::LinearSvm { epochs: 30, lambda: 0.01 },
        ];
        let schema = Schema::new(vec![
            AttributeDef::new("x", 0.0, 50.0).unwrap(),
            AttributeDef::new("y", -25.0, 25.0).unwrap(),
            AttributeDef::new("z", 100.0, 400.0).unwrap(),
        ]).unwrap();
        let grid = Grid::new(&schema, 6).unwrap();
        let measure = UncertaintyMeasure::LeastConfidence;
        let mut rng = Rng::new(seed);
        let draw = |rng: &mut Rng| {
            vec![rng.range_f64(0.0, 50.0), rng.range_f64(-25.0, 25.0), rng.range_f64(100.0, 400.0)]
        };
        for estimator in ESTIMATORS {
            let mut examples: Vec<(Vec<f64>, Label)> = (0..8)
                .map(|i| (draw(&mut rng), Label::from_bool(i % 2 == 0)))
                .collect();
            let mut reference = IndexPoints::from_grid_with_shards(&grid, 1).unwrap();
            let mut sharded: Vec<IndexPoints> = [2, 4, 8]
                .iter()
                .map(|&s| IndexPoints::from_grid_with_shards(&grid, s).unwrap())
                .collect();
            let mut added: Vec<Vec<f64>> = Vec::new();
            for step in 0..6 {
                let model = ScaledClassifier::train(
                    estimator, MinMaxScaler::from_schema(&schema), &examples).unwrap();
                let added_refs: Vec<&[f64]> = added.iter().map(|p| p.as_slice()).collect();
                reference.update_incremental(&model, measure, &added_refs);
                let want = reference.ranked_top(theta).unwrap();
                for points in &mut sharded {
                    points.update_incremental(&model, measure, &added_refs);
                    for id in 0..points.len() {
                        prop_assert_eq!(
                            points.uncertainty(id).unwrap().to_bits(),
                            reference.uncertainty(id).unwrap().to_bits(),
                            "{:?} step {} cell {} at {} shards",
                            estimator, step, id, points.num_shards()
                        );
                    }
                    prop_assert_eq!(
                        &points.ranked_top_cached(theta).unwrap(),
                        &want,
                        "{:?} step {} at {} shards", estimator, step, points.num_shards()
                    );
                }
                // One or two new labels per retrain, like a batched loop.
                added.clear();
                for i in 0..1 + step % 2 {
                    let p = draw(&mut rng);
                    examples.push((p.clone(), Label::from_bool((step + i) % 2 == 0)));
                    added.push(p);
                }
            }
        }
    }
}
