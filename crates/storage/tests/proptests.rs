//! Property-based tests for the storage engine: chunk codec (round trip,
//! CRC, and structural hardening on bytes that pass the CRC), store
//! round-trips, subspace reconstruction vs brute force (rows, counters
//! and the fetch schedule), a model-based LRU check, and journal durability (replay fidelity, acked-record
//! survival across kills at arbitrary write boundaries).

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use proptest::prelude::*;
use uei_storage::cache::{SessionChunkView, SharedChunkCache};
use uei_storage::checksum::crc32;
use uei_storage::chunk::{Chunk, ChunkId};
use uei_storage::fault::{FaultConfig, FaultInjector, KillMode};
use uei_storage::io::{DiskTracker, IoProfile};
use uei_storage::journal::{FsyncPolicy, JournalConfig, SessionJournal};
use uei_storage::lru::LruMap;
use uei_storage::merge::{reconstruct_region, RegionChunkSet};
use uei_storage::source::{ChunkSource, MemChunkSource};
use uei_storage::store::{ColumnStore, StoreConfig};
use uei_types::{AttributeDef, DataPoint, Region, Rng, Schema, UeiError};

/// Per-dimension chunk ids overlapping `region` (what the index's cell →
/// chunk mapping would hand the loader).
fn chunks_for(store: &ColumnStore, region: &Region) -> Vec<Vec<ChunkId>> {
    (0..store.schema().dims())
        .map(|d| {
            store
                .manifest()
                .chunks_overlapping(d, region.lo[d], region.hi[d])
                .unwrap()
                .iter()
                .map(|m| m.id())
                .collect()
        })
        .collect()
}

/// What `reconstruct_region` fetches chunks through.
type Fetch<'a> = dyn FnMut(ChunkId) -> uei_types::Result<Arc<Chunk>> + 'a;

fn chunk_strategy() -> impl Strategy<Value = Chunk> {
    proptest::collection::btree_map(
        // Keys of a BTreeMap are unique and iterate ascending: exactly the
        // chunk invariant. Map float bits through an ordered integer key.
        0u32..1_000_000,
        proptest::collection::btree_set(0u64..100_000, 1..30),
        1..40,
    )
    .prop_map(|entries| {
        let postings: Vec<(f64, Vec<u64>)> = entries
            .into_iter()
            .map(|(k, ids)| (k as f64 * 0.25, ids.into_iter().collect()))
            .collect();
        Chunk::from_postings(ChunkId::new(1, 2), postings.iter().map(|(k, ids)| (*k, &ids[..])))
            .unwrap()
    })
}

/// Every invariant `Chunk` promises, checked through its public surface.
fn assert_chunk_invariants(chunk: &Chunk) {
    let n = chunk.num_entries();
    assert!(n > 0, "a chunk has at least one entry");
    let mut last_key: Option<f64> = None;
    let mut total = 0;
    for (key, ids) in chunk.postings(0..n) {
        assert!(!key.is_nan());
        assert!(last_key.is_none_or(|last| key > last), "keys strictly ascending");
        last_key = Some(key);
        assert!(!ids.is_empty(), "no empty list");
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids strictly ascending");
        total += ids.len();
    }
    // Offsets are monotone and end at the id array's length.
    assert_eq!(total, chunk.num_ids());
    assert_eq!(chunk.ids_in(0..n).len(), chunk.num_ids());
    assert_eq!(
        (chunk.min_key(), chunk.max_key()),
        (chunk.postings(0..1).next().unwrap().0, last_key.unwrap())
    );
}

/// Every chunk id `source` holds, per dimension, with each decoded chunk's
/// key bounds.
fn catalog_of(source: &MemChunkSource) -> Vec<Vec<(ChunkId, f64, f64)>> {
    (0..source.dims() as u32)
        .map(|d| {
            (0..)
                .map(|seq| ChunkId::new(d, seq))
                .map_while(|id| source.read_chunk(id).ok())
                .map(|c| (c.id, c.min_key(), c.max_key()))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chunk_roundtrip_and_corruption_detected(chunk in chunk_strategy(), flip in any::<usize>()) {
        assert_chunk_invariants(&chunk);
        let bytes = chunk.encode();
        let got = Chunk::decode(&bytes).unwrap();
        prop_assert_eq!(&got, &chunk);
        // Any single bit flip is caught by the CRC.
        let mut corrupted = bytes.clone();
        let pos = flip % corrupted.len();
        corrupted[pos] ^= 1;
        prop_assert!(Chunk::decode(&corrupted).is_err(), "flip at {} undetected", pos);
    }

    /// Hostile bytes that *pass* the CRC: body bytes mutated and the payload
    /// truncated or extended, with the trailer re-stamped, so decode's
    /// structural checks — not the checksum — are what stand between the
    /// bytes and the merge. Decode must return a chunk that holds every
    /// invariant or a typed `Corrupt`, and never panic.
    #[test]
    fn decode_is_total_on_mutated_bytes_with_a_valid_crc(
        chunk in chunk_strategy(),
        edits in proptest::collection::vec((any::<usize>(), 1u8..=255), 1..9),
        resize in 0u8..3,
        amount in 1usize..24,
        filler in any::<u8>(),
    ) {
        let mut body = chunk.encode();
        body.truncate(body.len() - 4);
        for (at, xor) in edits {
            let at = at % body.len();
            body[at] ^= xor;
        }
        match resize {
            1 => body.truncate(body.len().saturating_sub(amount)),
            2 => body.extend(std::iter::repeat_n(filler, amount)),
            _ => {}
        }
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        match Chunk::decode(&body) {
            Ok(decoded) => {
                assert_chunk_invariants(&decoded);
                prop_assert_eq!(Chunk::decode(&decoded.encode()).unwrap(), decoded);
            }
            Err(UeiError::Corrupt { .. }) => {}
            Err(other) => prop_assert!(false, "expected Corrupt, got {:?}", other),
        }
    }

    #[test]
    fn reconstruction_matches_brute_force(
        values in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..120),
        qx in 0.0f64..10.0,
        qy in 0.0f64..10.0,
        wx in 0.1f64..5.0,
        wy in 0.1f64..5.0,
        chunk_bytes in 64usize..2048,
    ) {
        let dir = uei_storage::testutil::TempDir::new("prop-merge");
        let schema = Schema::new(vec![
            AttributeDef::new("x", 0.0, 10.0).unwrap(),
            AttributeDef::new("y", 0.0, 10.0).unwrap(),
        ]).unwrap();
        let rows: Vec<DataPoint> = values
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| DataPoint::new(i as u64, vec![x, y]))
            .collect();
        let tracker = DiskTracker::new(IoProfile::instant());
        let store = ColumnStore::create(
            dir.path(), schema, &rows, StoreConfig { chunk_target_bytes: chunk_bytes }, tracker)
            .unwrap();
        let region = Region::new(
            vec![qx, qy],
            vec![(qx + wx).min(10.5), (qy + wy).min(10.5)],
        ).unwrap();
        let (got, stats, _) = reconstruct_region(
            &store, &region, &chunks_for(&store, &region), None,
            &mut |id| store.read_chunk(id).map(Arc::new)).unwrap();
        let expect: Vec<u64> = rows
            .iter()
            .filter(|p| region.contains(&p.values).unwrap())
            .map(|p| p.id.as_u64())
            .collect();
        let got_ids: Vec<u64> = got.iter().map(|p| p.id.as_u64()).collect();
        prop_assert_eq!(got_ids, expect);
        prop_assert_eq!(stats.result_rows as usize, got.len());
        for p in &got {
            prop_assert_eq!(p, &rows[p.id.as_usize()]);
        }
            }

    /// The merge against an independent model, over the shapes that matter
    /// to a bitmap intersection: long posting lists (quantised dimensions)
    /// beside one-id lists (continuous ones), bounds that land exactly on
    /// stored values, regions empty in dimension 0 / empty in a later
    /// dimension / covering everything, with and without a previous
    /// region's chunk set. Checks the rows (ascending ids, bit-equal
    /// values), every counter the ledger reads, and the exact sequence of
    /// chunk ids handed to `fetch` — the thing modeled I/O depends on.
    #[test]
    fn merge_matches_model_in_rows_counters_and_fetch_schedule(
        dims in 1usize..9,
        n in 50usize..2001,
        seed in any::<u64>(),
        chunk_bytes in 128usize..4096,
        closed in any::<bool>(),
        kind in 0u8..4,
        with_prev in any::<bool>(),
    ) {
        let mut rng = Rng::new(seed);
        // Per dimension: quantised to 4–64 levels, or continuous.
        let steps: Vec<Option<f64>> = (0..dims)
            .map(|_| rng.bool(0.5).then(|| 100.0 / (4 + rng.below(61)) as f64))
            .collect();
        let mut ids: Vec<u64> = (0..n as u64).collect();
        rng.shuffle(&mut ids);
        let rows: Vec<DataPoint> = ids
            .iter()
            .map(|&id| {
                let values = steps
                    .iter()
                    .map(|step| match step {
                        Some(step) => (rng.range_f64(0.0, 100.0) / step).floor() * step,
                        None => rng.range_f64(0.0, 100.0),
                    })
                    .collect();
                DataPoint::new(id, values)
            })
            .collect();
        let schema = Schema::new(
            (0..dims).map(|d| AttributeDef::new(format!("d{d}"), 0.0, 100.0).unwrap()).collect(),
        ).unwrap();
        let source = MemChunkSource::from_rows(
            schema, &rows, chunk_bytes, DiskTracker::new(IoProfile::instant())).unwrap();
        let catalog = catalog_of(&source);

        // A box whose bounds sit on stored values half the time, so closed
        // and half-open regions differ.
        let random_region = |rng: &mut Rng| {
            let (lo, hi): (Vec<f64>, Vec<f64>) = steps
                .iter()
                .map(|step| {
                    let lo = rng.range_f64(0.0, 90.0);
                    let hi = lo + rng.range_f64(5.0, 60.0);
                    match step {
                        Some(step) if rng.bool(0.5) => ((lo / step).floor() * step, (hi / step).ceil() * step),
                        _ => (lo, hi),
                    }
                })
                .unzip();
            (lo, hi)
        };
        let (mut lo, mut hi) = random_region(&mut rng);
        match kind {
            1 => (lo[0], hi[0]) = (200.0, 300.0),
            2 => {
                let d = rng.below_usize(dims).max(dims.min(2) - 1);
                (lo[d], hi[d]) = (200.0, 300.0);
            }
            3 => (lo, hi) = (vec![-1.0; dims], vec![101.0; dims]),
            _ => {}
        }
        let region = if closed { Region::closed(lo, hi) } else { Region::new(lo, hi) }.unwrap();
        let chunks_for = |region: &Region| -> Vec<Vec<ChunkId>> {
            catalog
                .iter()
                .enumerate()
                .map(|(d, chunks)| {
                    chunks
                        .iter()
                        .filter(|&&(_, min, max)| max >= region.lo[d] && min <= region.hi[d])
                        .map(|&(id, ..)| id)
                        .collect()
                })
                .collect()
        };
        let chunks = chunks_for(&region);

        let prev = with_prev.then(|| {
            let (lo, hi) = random_region(&mut rng);
            let prev_region = Region::new(lo, hi).unwrap();
            let (_, _, set) = reconstruct_region(
                &source, &prev_region, &chunks_for(&prev_region), None,
                &mut |id| source.read_chunk(id).map(Arc::new)).unwrap();
            set
        });

        let mut fetched: Vec<ChunkId> = Vec::new();
        let (got, stats, set) = reconstruct_region(
            &source, &region, &chunks, prev.as_ref(),
            &mut |id| { fetched.push(id); source.read_chunk(id).map(Arc::new) }).unwrap();

        // Rows: the brute-force filter, ascending by id, values bit-equal.
        let mut expect: Vec<&DataPoint> =
            rows.iter().filter(|p| region.contains(&p.values).unwrap()).collect();
        expect.sort_unstable_by_key(|p| p.id);
        prop_assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            prop_assert_eq!(g.id, e.id);
            let bits = |p: &DataPoint| p.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(g), bits(e));
        }
        prop_assert_eq!(stats.result_rows as usize, expect.len());

        // Counters: an independent count from the rows.
        let in_range = |d: usize, v: f64| v >= region.lo[d] && (v < region.hi[d] || (closed && v == region.hi[d]));
        let seed_ids = rows.iter().filter(|p| in_range(0, p.values[0])).count();
        prop_assert_eq!(stats.seed_candidates as usize, seed_ids);
        let dims_visited = if seed_ids == 0 { 1 } else { dims };
        let entries: usize = (0..dims_visited)
            .map(|d| {
                rows.iter()
                    .map(|p| p.values[d])
                    .filter(|&v| in_range(d, v))
                    .map(f64::to_bits)
                    .collect::<BTreeSet<u64>>()
                    .len()
            })
            .sum();
        prop_assert_eq!(stats.entries_matched as usize, entries);

        // Fetch schedule: the caller's lists flattened in dimension order,
        // minus what `prev` holds, cut after dimension 0 exactly when it
        // seeds nothing.
        let scheduled: Vec<ChunkId> = chunks[..dims_visited].iter().flatten().copied().collect();
        let (reused, fresh): (Vec<ChunkId>, Vec<ChunkId>) =
            scheduled.iter().partition(|&&id| prev.as_ref().is_some_and(|p| p.contains(id)));
        prop_assert_eq!(&fetched, &fresh);
        prop_assert_eq!(stats.chunks_loaded as usize, fresh.len());
        prop_assert_eq!(stats.chunks_reused as usize, reused.len());
        prop_assert_eq!(set.len(), scheduled.len());
        prop_assert!(scheduled.iter().all(|&id| set.contains(id)));
    }

    /// Every way a caller fetches — plain read+decode, the shared
    /// concurrent cache, a session's ghost-ledger view — with and without
    /// the previous region's chunk set returns the rows brute force finds,
    /// for the same region sequence, at any cache budget (including 0,
    /// where everything bypasses admission).
    #[test]
    fn every_fetch_path_reconstructs_brute_force_rows(
        values in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..100),
        queries in proptest::collection::vec(
            (0.0f64..10.0, 0.0f64..10.0, 0.1f64..5.0, 0.1f64..5.0), 1..5),
        chunk_bytes in 64usize..1024,
        budget_sel in 0u8..3,
    ) {
        let dir = uei_storage::testutil::TempDir::new("prop-modes");
        let schema = Schema::new(vec![
            AttributeDef::new("x", 0.0, 10.0).unwrap(),
            AttributeDef::new("y", 0.0, 10.0).unwrap(),
        ]).unwrap();
        let rows: Vec<DataPoint> = values
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| DataPoint::new(i as u64, vec![x, y]))
            .collect();
        let tracker = DiskTracker::new(IoProfile::instant());
        let store = Arc::new(ColumnStore::create(
            dir.path(), schema, &rows, StoreConfig { chunk_target_bytes: chunk_bytes }, tracker)
            .unwrap());

        // 0 = bypass everything, 1 = tight (evictions), 2 = unbounded.
        let budget = match budget_sel { 0 => 0, 1 => 4 * chunk_bytes, _ => usize::MAX };
        let shared = SharedChunkCache::new(budget, 4);
        let mut view = SessionChunkView::new(
            Arc::new(SharedChunkCache::new(budget, 4)),
            Arc::clone(&store) as Arc<dyn uei_storage::ChunkSource>,
            budget,
        );
        // One retained chunk set per fetch path.
        let mut prev: [Option<RegionChunkSet>; 3] = [None, None, None];

        for (qx, qy, wx, wy) in queries {
            let region = Region::new(
                vec![qx, qy],
                vec![(qx + wx).min(10.5), (qy + wy).min(10.5)],
            ).unwrap();
            let chunks = chunks_for(&store, &region);
            let expect: Vec<u64> = rows
                .iter()
                .filter(|p| region.contains(&p.values).unwrap())
                .map(|p| p.id.as_u64())
                .collect();

            let mut plain = |id| store.read_chunk(id).map(Arc::new);
            let mut through_shared = |id| shared.get_or_load(store.as_ref(), id);
            let mut through_view = |id| view.get_or_load(store.as_ref(), id);
            let fetches: [(&str, &mut Fetch); 3] = [
                ("plain", &mut plain),
                ("shared cache", &mut through_shared),
                ("session view", &mut through_view),
            ];
            for ((name, fetch), prev) in fetches.into_iter().zip(&mut prev) {
                let (cold, cold_stats, _) =
                    reconstruct_region(store.as_ref(), &region, &chunks, None, fetch).unwrap();
                let (delta, delta_stats, set) =
                    reconstruct_region(store.as_ref(), &region, &chunks, prev.as_ref(), fetch)
                        .unwrap();
                let cold_ids: Vec<u64> = cold.iter().map(|p| p.id.as_u64()).collect();
                prop_assert_eq!(&cold_ids, &expect, "{} without prev", name);
                prop_assert_eq!(&delta, &cold, "{} with prev", name);
                prop_assert_eq!(cold_stats.chunks_reused, 0);
                prop_assert_eq!(
                    delta_stats.chunks_loaded + delta_stats.chunks_reused,
                    cold_stats.chunks_loaded,
                    "{}: reuse only replaces fetches", name
                );
                *prev = Some(set);
            }
        }
    }

    /// Any single-bit flip anywhere in a chunk *file* is rejected by the
    /// catalog CRC in `read_chunk_bytes` — i.e. before any decode work —
    /// so corrupted postings can never reach the learner as plausible rows.
    #[test]
    fn single_bit_flip_in_chunk_file_is_caught_before_decode(
        values in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 20..120),
        chunk_bytes in 64usize..1024,
        pick_chunk in any::<prop::sample::Index>(),
        flip in any::<usize>(),
    ) {
        let dir = uei_storage::testutil::TempDir::new("prop-bitflip");
        let schema = Schema::new(vec![
            AttributeDef::new("x", 0.0, 10.0).unwrap(),
            AttributeDef::new("y", 0.0, 10.0).unwrap(),
        ]).unwrap();
        let rows: Vec<DataPoint> = values
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| DataPoint::new(i as u64, vec![x, y]))
            .collect();
        let tracker = DiskTracker::new(IoProfile::instant());
        let store = ColumnStore::create(
            dir.path(), schema, &rows, StoreConfig { chunk_target_bytes: chunk_bytes }, tracker)
            .unwrap();
        let metas: Vec<_> = store.manifest().dims.iter().flatten().cloned().collect();
        prop_assert!(!metas.is_empty());
        let meta = &metas[pick_chunk.index(metas.len())];
        let path = dir.join(meta.id().file_name());
        let clean = std::fs::read(&path).unwrap();
        let mut bad = clean.clone();
        let bit = flip % (bad.len() * 8);
        bad[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &bad).unwrap();
        match store.read_chunk_bytes(meta.id()) {
            Err(uei_types::UeiError::Corrupt { detail }) => {
                prop_assert!(
                    detail.contains("checksum"),
                    "caught by the catalog checksum, before decode: {}", detail
                );
            }
            Err(other) => prop_assert!(false, "expected Corrupt, got {:?}", other),
            Ok(_) => prop_assert!(false, "bit flip at {} undetected", bit),
        }
        // Restoring the clean bytes makes the chunk readable again.
        std::fs::write(&path, &clean).unwrap();
        prop_assert!(store.read_chunk(meta.id()).is_ok());
    }

    #[test]
    fn store_fetch_matches_originals(
        values in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..80),
        pick in proptest::collection::vec(any::<prop::sample::Index>(), 1..10),
    ) {
        let dir = uei_storage::testutil::TempDir::new("prop-fetch");
        let schema = Schema::new(vec![
            AttributeDef::new("x", 0.0, 1.0).unwrap(),
            AttributeDef::new("y", 0.0, 1.0).unwrap(),
        ]).unwrap();
        let rows: Vec<DataPoint> = values
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| DataPoint::new(i as u64, vec![x, y]))
            .collect();
        let tracker = DiskTracker::new(IoProfile::instant());
        let store =
            ColumnStore::create(dir.path(), schema, &rows, StoreConfig::default(), tracker).unwrap();
        let ids: Vec<u64> = pick.iter().map(|ix| ix.index(rows.len()) as u64).collect();
        let got = store.fetch_rows(&ids).unwrap();
        for (want_id, got_row) in ids.iter().zip(&got) {
            prop_assert_eq!(got_row, &rows[*want_id as usize]);
        }
            }

    /// Model-based LRU test: random op sequences against a naive reference.
    #[test]
    fn lru_matches_reference_model(
        ops in proptest::collection::vec((0u8..4, 0u8..16, any::<u32>()), 1..300)
    ) {
        let mut lru: LruMap<u8, u32> = LruMap::new();
        // Reference: Vec of (key, value) ordered MRU-first.
        let mut model: Vec<(u8, u32)> = Vec::new();

        for (op, key, value) in ops {
            match op {
                0 => {
                    // insert
                    let got = lru.insert(key, value);
                    let old = model.iter().position(|(k, _)| *k == key).map(|i| model.remove(i).1);
                    model.insert(0, (key, value));
                    prop_assert_eq!(got, old);
                }
                1 => {
                    // get
                    let got = lru.get(&key).copied();
                    let want = model.iter().position(|(k, _)| *k == key).map(|i| {
                        let e = model.remove(i);
                        let v = e.1;
                        model.insert(0, e);
                        v
                    });
                    prop_assert_eq!(got, want);
                }
                2 => {
                    // remove
                    let got = lru.remove(&key);
                    let want =
                        model.iter().position(|(k, _)| *k == key).map(|i| model.remove(i).1);
                    prop_assert_eq!(got, want);
                }
                _ => {
                    // pop_lru
                    let got = lru.pop_lru();
                    let want = model.pop();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(lru.len(), model.len());
            let order: Vec<u8> = lru.keys_mru_to_lru().copied().collect();
            let want_order: Vec<u8> = model.iter().map(|(k, _)| *k).collect();
            prop_assert_eq!(order, want_order);
        }
    }

    #[test]
    fn scan_all_yields_rows_in_id_order(
        values in proptest::collection::vec(0.0f64..1.0, 1..200)
    ) {
        let dir = uei_storage::testutil::TempDir::new("prop-scan");
        let schema =
            Schema::new(vec![AttributeDef::new("x", 0.0, 1.0).unwrap()]).unwrap();
        let rows: Vec<DataPoint> = values
            .iter()
            .enumerate()
            .map(|(i, &x)| DataPoint::new(i as u64, vec![x]))
            .collect();
        let tracker = DiskTracker::new(IoProfile::instant());
        let store =
            ColumnStore::create(dir.path(), schema, &rows, StoreConfig::default(), tracker).unwrap();
        let mut seen = Vec::new();
        store.scan_all(|p| seen.push(p)).unwrap();
        prop_assert_eq!(seen, rows);
            }
}

/// Length-prefixed concatenation: the snapshot stand-in the journal
/// proptests use for "everything the discarded records captured".
fn encode_state(records: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        out.extend_from_slice(&(r.len() as u32).to_le_bytes());
        out.extend_from_slice(r);
    }
    out
}

fn decode_state(mut bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        out.push(bytes[4..4 + len].to_vec());
        bytes = &bytes[4 + len..];
    }
    out
}

/// Small byte alphabet and short payloads: duplicates (including exact
/// duplicate records) are common, and empty payloads are legal.
fn payload_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(0u8..4, 0..12), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Replay fidelity: for ANY append sequence (duplicates, empty
    /// payloads, empty sessions) interleaved with snapshots at arbitrary
    /// points, `snapshot state + surviving records` reconstructs the full
    /// appended sequence bit-identically — across tiny segments (many
    /// rotations) and any fsync policy.
    #[test]
    fn journal_replay_reconstructs_any_label_sequence(
        payloads in payload_strategy(),
        snap_after in proptest::collection::vec(any::<bool>(), 0..40),
        segment_bytes in 32u64..256,
        fsync_sel in 0u8..3,
    ) {
        let dir = uei_storage::testutil::TempDir::new("prop-journal");
        let fsync = match fsync_sel {
            0 => FsyncPolicy::Always,
            1 => FsyncPolicy::Never,
            _ => FsyncPolicy::Interval(3),
        };
        let config = JournalConfig { fsync, segment_bytes, snapshot_every: 1000 };
        let tracker = DiskTracker::new(IoProfile::instant());
        let mut journal = SessionJournal::create(dir.path(), config, tracker.clone()).unwrap();

        let mut committed: Vec<Vec<u8>> = Vec::new();
        for (i, payload) in payloads.iter().enumerate() {
            journal.append(payload).unwrap();
            committed.push(payload.clone());
            if snap_after.get(i).copied().unwrap_or(false) {
                journal.snapshot(&encode_state(&committed)).unwrap();
            }
        }
        journal.sync().unwrap();
        drop(journal);

        let (contents, _reopened) =
            SessionJournal::recover(dir.path(), config, tracker).unwrap();
        prop_assert_eq!(contents.torn_tail_bytes, 0, "clean shutdown has no torn tail");
        let mut replayed = match &contents.snapshot {
            Some(snap) => decode_state(snap),
            None => Vec::new(),
        };
        replayed.extend(contents.records.iter().cloned());
        prop_assert_eq!(replayed, committed);
    }

    /// Durability: kill the process (before / torn / after the write) at an
    /// arbitrary journal write boundary. Every append that returned `Ok`
    /// before the crash MUST survive recovery, in order; at most the one
    /// in-flight unacknowledged record may additionally appear.
    #[test]
    fn kill_at_any_write_boundary_never_loses_an_acked_record(
        payloads in proptest::collection::vec(proptest::collection::vec(0u8..4, 0..12), 1..40),
        kill_op in any::<u64>(),
        mode_sel in 0u8..3,
        segment_bytes in 32u64..256,
    ) {
        let dir = uei_storage::testutil::TempDir::new("prop-journal-kill");
        let config = JournalConfig {
            fsync: FsyncPolicy::Always,
            segment_bytes,
            snapshot_every: 1000,
        };
        let mode = match mode_sel {
            0 => KillMode::BeforeWrite,
            1 => KillMode::Torn,
            _ => KillMode::AfterWrite,
        };
        let injector = FaultInjector::new(FaultConfig { seed: 7, ..FaultConfig::off() }).unwrap();
        let tracker = DiskTracker::new(IoProfile::instant());
        tracker.set_fault_injector(Some(injector.clone()));
        let mut journal = SessionJournal::create(dir.path(), config, tracker.clone()).unwrap();

        // Appends consult the dice roughly once per record plus rotations;
        // aim the kill inside (or just past) that window so some cases run
        // to completion unharmed.
        let writes_per_append = 3;
        let window = payloads.len() as u64 * writes_per_append + 2;
        injector.arm_journal_kill(injector.stats().writes_seen + kill_op % window, mode);

        let mut acked: Vec<Vec<u8>> = Vec::new();
        let mut crashed = false;
        for payload in &payloads {
            match journal.append(payload) {
                Ok(()) => acked.push(payload.clone()),
                Err(_) => {
                    crashed = true;
                    break;
                }
            }
        }
        if crashed {
            // Poisoned after the crash: the journal refuses further use.
            prop_assert!(journal.append(b"x").is_err());
        }
        drop(journal);

        // Recovery runs on a pristine tracker: the dead process's injector
        // state is irrelevant to the recovering one.
        let clean = DiskTracker::new(IoProfile::instant());
        let (contents, _reopened) = SessionJournal::recover(dir.path(), config, clean).unwrap();
        prop_assert!(
            contents.records.len() >= acked.len()
                && contents.records.len() <= acked.len() + 1,
            "{} acked, {} recovered",
            acked.len(),
            contents.records.len()
        );
        prop_assert_eq!(&contents.records[..acked.len()], &acked[..], "acked prefix lost");
    }
}

/// Non-proptest sanity: the LRU reference model itself starts empty.
#[test]
fn lru_reference_alignment_smoke() {
    let mut lru: LruMap<u8, u32> = LruMap::new();
    let model: HashMap<u8, u32> = HashMap::new();
    assert_eq!(lru.len(), model.len());
    assert!(lru.pop_lru().is_none());
}
