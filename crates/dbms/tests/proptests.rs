//! Property-based tests for the row store: pages and heap/table
//! round-trips.

use proptest::prelude::*;
use uei_dbms::buffer::BufferPool;
use uei_dbms::page::Page;
use uei_dbms::table::Table;
use uei_storage::io::{DiskTracker, IoProfile};
use uei_types::{AttributeDef, DataPoint, Schema};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn page_holds_inserted_tuples_in_order(
        tuples in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..120), 1..60)
    ) {
        let mut page = Page::new(0);
        let mut stored = Vec::new();
        for t in &tuples {
            if page.insert(t).is_some() {
                stored.push(t.clone());
            }
        }
        prop_assert_eq!(page.num_slots(), stored.len());
        for (slot, want) in stored.iter().enumerate() {
            prop_assert_eq!(page.get(slot as u16).unwrap(), want.as_slice());
        }
        // Round trip through serialization.
        let bytes = page.to_bytes();
        let reparsed = Page::from_bytes(0, &bytes).unwrap();
        for (slot, want) in stored.iter().enumerate() {
            prop_assert_eq!(reparsed.get(slot as u16).unwrap(), want.as_slice());
        }
    }

    #[test]
    fn table_scan_returns_exactly_the_load(
        values in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..150),
        pool_pages in 1usize..8,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "uei-prop-table-{}-{:?}", std::process::id(), std::thread::current().id()));
        let _ = std::fs::remove_dir_all(&dir);
        let schema = Schema::new(vec![
            AttributeDef::new("x", 0.0, 100.0).unwrap(),
            AttributeDef::new("y", 0.0, 100.0).unwrap(),
        ]).unwrap();
        let rows: Vec<DataPoint> = values
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| DataPoint::new(i as u64, vec![x, y]))
            .collect();
        let tracker = DiskTracker::new(IoProfile::instant());
        let table = Table::create(&dir, schema, &rows, &tracker).unwrap();
        let mut pool = BufferPool::new(pool_pages, tracker).unwrap();
        let mut seen = Vec::new();
        table.scan(&mut pool, |p| seen.push(p)).unwrap();
        prop_assert_eq!(seen, rows);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn padded_table_charge_is_exact_multiple(
        n in 1usize..60,
        pad in 0u32..5000,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "uei-prop-pad-{}-{:?}", std::process::id(), std::thread::current().id()));
        let _ = std::fs::remove_dir_all(&dir);
        let schema =
            Schema::new(vec![AttributeDef::new("x", 0.0, 1.0).unwrap()]).unwrap();
        let rows: Vec<DataPoint> =
            (0..n).map(|i| DataPoint::new(i as u64, vec![0.5])).collect();
        let tracker = DiskTracker::new(IoProfile::instant());
        let table = Table::create_padded(&dir, schema, &rows, pad, &tracker).unwrap();
        // physical row = 8 id + 8 value = 16 bytes.
        let factor = (16.0 + pad as f64) / 16.0;
        let want = (table.size_bytes() as f64 * factor) as u64;
        prop_assert_eq!(table.logical_size_bytes(), want);
        std::fs::remove_dir_all(&dir).ok();
    }
}
