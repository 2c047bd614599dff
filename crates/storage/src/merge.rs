//! Reconstruction of a subspace from its chunks.
//!
//! Implements the merge process of paper §3.1: "to reconstruct each g when
//! needed, UEI utilizes a hash table [...] UEI iterates through each
//! dimension and loads the corresponding chunks to the memory one at a
//! time, and each entry in the chunk would be visited in a sequential
//! manner. For each object ID that is recorded in a loaded data chunk, the
//! value associated with the ID will be inserted into the corresponding
//! entry in the hash table. Once a chunk has been examined, UEI will
//! release the memory space used to hold the data chunk."
//!
//! A row belongs to the subspace only if *every* dimension's value falls in
//! the cell's range, so the table is really an intersection: dimension 0
//! seeds the candidate set and each later dimension can only shrink it.
//! Row ids are dense, so the "hash table" is realised as a bitmap over row
//! ids (the key set, intersected dimension by dimension) plus the output
//! rows themselves as the value arena, filled once the survivors are
//! known — no hashing, and no allocation per candidate that does not
//! survive. The paper's chunk-at-a-time release is replaced by the
//! retained [`RegionChunkSet`]: consecutive regions overlap, so a region's
//! decoded chunks are kept for the next load instead of dropped.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use uei_types::{DataPoint, Region, Result, UeiError};

use crate::chunk::{Chunk, ChunkId};
use crate::source::ChunkSource;

/// Work counters from one reconstruction; these are the `e` of the paper's
/// O(ke) per-iteration complexity claim (§3.3).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MergeStats {
    /// Chunk files materialized through the fetch path (cache hits
    /// included; delta-reused chunks are not).
    pub chunks_loaded: u64,
    /// Total encoded bytes of the materialized chunks.
    pub chunk_bytes: u64,
    /// Chunks reused from the previous region's decoded set without
    /// touching the fetch path.
    pub chunks_reused: u64,
    /// Posting-list entries whose key fell inside the per-dimension range.
    pub entries_matched: u64,
    /// Candidate rows after the seed dimension: the in-range ids of
    /// dimension 0.
    pub seed_candidates: u64,
    /// Rows in the reconstructed subspace.
    pub result_rows: u64,
}

/// The decoded chunks of one reconstructed region, keyed by [`ChunkId`].
///
/// Kept by callers that load overlapping regions back to back:
/// [`reconstruct_region`] reuses any chunk present here without
/// re-reading or re-decoding it. Chunks are immutable once written (the
/// store has no update path), so reuse is safe across *any* pair of
/// regions, not just adjacent ones.
#[derive(Debug, Default)]
pub struct RegionChunkSet {
    chunks: HashMap<ChunkId, Arc<Chunk>>,
}

impl RegionChunkSet {
    /// An empty set (nothing will be reused).
    pub fn new() -> Self {
        RegionChunkSet::default()
    }

    /// Number of retained decoded chunks.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether no chunk is retained.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Whether `id` is retained.
    pub fn contains(&self, id: ChunkId) -> bool {
        self.chunks.contains_key(&id)
    }
}

/// Largest row id the bitmap intersection accepts. Stores carry dense ids
/// `0..n`, so this bounds a dataset at 2^32 rows (a 512 MB bitmap) and keeps
/// an id forged past both chunk CRCs from sizing an absurd allocation.
const MAX_ROW_ID: u64 = u32::MAX as u64;

/// A set of row ids in `0..=max_id`, one bit each.
struct IdBitmap {
    words: Vec<u64>,
}

impl IdBitmap {
    fn new(max_id: u64) -> Self {
        IdBitmap { words: vec![0; (max_id / 64) as usize + 1] }
    }

    /// Bounds-checked membership: ids past the bitmap are simply absent.
    #[inline]
    fn contains(&self, id: u64) -> bool {
        let word = usize::try_from(id / 64).ok().and_then(|w| self.words.get(w));
        word.is_some_and(|w| w >> (id % 64) & 1 == 1)
    }

    /// Inserts an id no larger than the `max_id` the bitmap was sized for.
    #[inline]
    fn insert(&mut self, id: u64) {
        self.words[(id / 64) as usize] |= 1 << (id % 64);
    }

    /// Member ids in ascending order, skipping empty words.
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let occupied = self.words.iter().enumerate().filter(|(_, &word)| word != 0);
        occupied.flat_map(|(w, &word)| {
            (0..64).filter(move |bit| word >> bit & 1 == 1).map(move |bit| w as u64 * 64 + bit)
        })
    }
}

/// The part of one dimension's slab that one chunk holds: the chunk and its
/// run of entries whose key is inside the region.
type SlabPart = (Arc<Chunk>, Range<usize>);

/// Reconstructs every row of `region` from exactly the chunks the caller
/// names per dimension — the index's mapping method `m` has already
/// resolved the chunk set for the chosen subspace, so no catalog lookup
/// happens here.
///
/// Chunks present in `prev` (the previously loaded region's decoded set)
/// are reused in place — no file read, no decode, no cache traffic — and
/// counted in [`MergeStats::chunks_reused`]; every other chunk is
/// materialized through `fetch`, in caller order, one at a time. `fetch` is
/// whatever the caller reads chunks through: a session's ghost-ledger view,
/// the shared cache, or a plain `source.read_chunk`. Consecutive uncertain
/// regions in UEI's exploration overlap heavily — the decision boundary
/// moves slowly, the same premise the σ/θ prefetch machinery rests on
/// (§3.2) — so the fetched delta is usually a small fraction of the region.
///
/// Every dimension's chunks are fetched, in dimension order, before any
/// intersecting happens, and later dimensions are skipped only when
/// dimension 0 has no in-range id: *which* chunks are fetched in *what*
/// order is what the modeled I/O and every cache's LRU state see, so it
/// does not depend on how the in-memory intersection goes.
///
/// Returns the rows (ordered by row id), the work counters, and the
/// region's own [`RegionChunkSet`] (covering *all* its chunks, reused and
/// fresh) to pass as the next load's `prev`.
pub fn reconstruct_region(
    source: &dyn ChunkSource,
    region: &Region,
    chunks_per_dim: &[Vec<ChunkId>],
    prev: Option<&RegionChunkSet>,
    fetch: &mut dyn FnMut(ChunkId) -> Result<Arc<Chunk>>,
) -> Result<(Vec<DataPoint>, MergeStats, RegionChunkSet)> {
    let dims = source.dims();
    if region.dims() != dims {
        return Err(UeiError::DimensionMismatch { expected: dims, actual: region.dims() });
    }
    if chunks_per_dim.len() != dims {
        return Err(UeiError::DimensionMismatch { expected: dims, actual: chunks_per_dim.len() });
    }
    let inclusive_hi = region.is_closed();
    let mut stats = MergeStats::default();
    let mut new_set = RegionChunkSet::new();

    // Phase 1 — fetch every dimension's slab.
    let mut slabs: Vec<Vec<SlabPart>> = Vec::with_capacity(dims);
    for d in 0..dims {
        let mut slab = Vec::with_capacity(chunks_per_dim[d].len());
        for &id in &chunks_per_dim[d] {
            let chunk = match prev.and_then(|p| p.chunks.get(&id)) {
                Some(chunk) => {
                    stats.chunks_reused += 1;
                    Arc::clone(chunk)
                }
                None => {
                    let file_size = source.chunk_file_size(id)?;
                    let chunk = fetch(id)?;
                    stats.chunks_loaded += 1;
                    stats.chunk_bytes += file_size;
                    chunk
                }
            };
            new_set.chunks.insert(id, Arc::clone(&chunk));
            let entries = chunk.entry_range(region.lo[d], region.hi[d], inclusive_hi);
            stats.entries_matched += entries.len() as u64;
            if d == 0 {
                stats.seed_candidates += chunk.ids_in(entries.clone()).len() as u64;
            }
            slab.push((chunk, entries));
        }
        slabs.push(slab);
        if d == 0 && stats.seed_candidates == 0 {
            // No candidate can survive the intersection; skip the
            // remaining dimensions entirely. The returned set then only
            // covers dimension 0 — reuse is keyed per chunk, so a partial
            // set is still valid.
            break;
        }
    }

    let rows = if stats.seed_candidates > 0 { intersect(&slabs)? } else { Vec::new() };
    stats.result_rows = rows.len() as u64;
    Ok((rows, stats, new_set))
}

/// Phases 2 and 3: intersects the per-dimension slabs (dimension 0's must
/// hold at least one id) and materializes the surviving rows, ascending by
/// id.
fn intersect(slabs: &[Vec<SlabPart>]) -> Result<Vec<DataPoint>> {
    let slab_ids = |d: usize| slabs[d].iter().map(|(chunk, entries)| chunk.ids_in(entries.clone()));

    // Phase 2 — seed a bitmap from dimension 0, then keep only the ids each
    // later dimension also holds.
    let max_id = slab_ids(0).flatten().copied().max().expect("seed slab holds an id");
    if max_id > MAX_ROW_ID {
        return Err(UeiError::corrupt(format!(
            "row id {max_id} is past the {MAX_ROW_ID} the region merge supports"
        )));
    }
    let mut alive = IdBitmap::new(max_id);
    for &id in slab_ids(0).flatten() {
        alive.insert(id);
    }
    let mut next = IdBitmap::new(max_id);
    for d in 1..slabs.len() {
        let mut any = false;
        for ids in slab_ids(d) {
            for &id in ids {
                if alive.contains(id) {
                    next.insert(id);
                    any = true;
                }
            }
        }
        if !any {
            return Ok(Vec::new());
        }
        std::mem::swap(&mut alive, &mut next);
        next.words.fill(0);
    }

    // Phase 3 — list the survivors in id order and fill their values in by
    // a second membership pass over the same slabs.
    let mut rows: Vec<DataPoint> =
        alive.iter().map(|id| DataPoint::new(id, vec![0.0; slabs.len()])).collect();
    for (d, slab) in slabs.iter().enumerate() {
        for (chunk, entries) in slab {
            for (key, ids) in chunk.postings(entries.clone()) {
                for &id in ids.iter().filter(|&&id| alive.contains(id)) {
                    let row = rows
                        .binary_search_by_key(&id, |p| p.id.as_u64())
                        .expect("every alive id was listed as a row");
                    rows[row].values[d] = key;
                }
            }
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SharedChunkCache;
    use crate::io::{DiskTracker, IoProfile};
    use crate::source::MemChunkSource;
    use crate::store::{ColumnStore, StoreConfig};
    use uei_types::{AttributeDef, Rng, Schema};

    fn build(
        tag: &str,
        n: usize,
        chunk_bytes: usize,
    ) -> (ColumnStore, Vec<DataPoint>, crate::testutil::TempDir) {
        let dir = crate::testutil::TempDir::new(&format!("merge-{tag}"));
        let schema = Schema::new(vec![
            AttributeDef::new("x", 0.0, 100.0).unwrap(),
            AttributeDef::new("y", 0.0, 100.0).unwrap(),
            AttributeDef::new("z", 0.0, 100.0).unwrap(),
        ])
        .unwrap();
        let mut rng = Rng::new(9);
        let rows: Vec<DataPoint> = (0..n)
            .map(|i| {
                DataPoint::new(
                    i as u64,
                    vec![
                        rng.range_f64(0.0, 100.0),
                        rng.range_f64(0.0, 100.0),
                        rng.range_f64(0.0, 100.0),
                    ],
                )
            })
            .collect();
        let tracker = DiskTracker::new(IoProfile::instant());
        let store = ColumnStore::create(
            dir.path(),
            schema,
            &rows,
            StoreConfig { chunk_target_bytes: chunk_bytes },
            tracker,
        )
        .unwrap();
        (store, rows, dir)
    }

    fn brute_force(rows: &[DataPoint], region: &Region) -> Vec<u64> {
        rows.iter().filter(|p| region.contains(&p.values).unwrap()).map(|p| p.id.as_u64()).collect()
    }

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

    /// Cold reconstruction through a plain read+decode fetch: no cache, no
    /// previous region.
    fn reconstruct_cold(store: &ColumnStore, region: &Region) -> (Vec<DataPoint>, MergeStats) {
        let (rows, stats, _) = reconstruct_with(store, region, None);
        (rows, stats)
    }

    fn reconstruct_with(
        store: &ColumnStore,
        region: &Region,
        prev: Option<&RegionChunkSet>,
    ) -> (Vec<DataPoint>, MergeStats, RegionChunkSet) {
        reconstruct_region(store, region, &chunks_for(store, region), prev, &mut |id| {
            store.read_chunk(id).map(Arc::new)
        })
        .unwrap()
    }

    #[test]
    fn matches_brute_force_half_open() {
        let (store, rows, _dir) = build("halfopen", 800, 512);
        let region = Region::new(vec![20.0, 30.0, 0.0], vec![60.0, 70.0, 50.0]).unwrap();
        let (got, stats) = reconstruct_cold(&store, &region);
        let got_ids: Vec<u64> = got.iter().map(|p| p.id.as_u64()).collect();
        assert_eq!(got_ids, brute_force(&rows, &region));
        assert_eq!(stats.result_rows as usize, got.len());
        assert!(stats.chunks_loaded > 0);
        // Reconstructed values must equal the originals.
        for p in &got {
            assert_eq!(p, &rows[p.id.as_usize()]);
        }
    }

    #[test]
    fn matches_brute_force_closed() {
        let (store, rows, _dir) = build("closed", 500, 512);
        let region = Region::closed(vec![0.0, 0.0, 0.0], vec![100.0, 100.0, 100.0]).unwrap();
        let (got, _) = reconstruct_cold(&store, &region);
        assert_eq!(got.len(), rows.len(), "full-space region reconstructs every row");
    }

    #[test]
    fn empty_region_short_circuits() {
        let (store, _, _dir) = build("empty", 300, 512);
        // x-range outside the domain: dimension 0 seeds nothing.
        let region = Region::new(vec![200.0, 0.0, 0.0], vec![300.0, 100.0, 100.0]).unwrap();
        let before = store.tracker().snapshot();
        let (got, stats) = reconstruct_cold(&store, &region);
        assert!(got.is_empty());
        assert_eq!(stats.seed_candidates, 0);
        // Later dimensions were skipped, so almost nothing was read.
        assert_eq!(store.tracker().delta(&before).stats.bytes_read, 0);
    }

    #[test]
    fn narrow_region_touches_fewer_chunks_than_full() {
        let (store, _, _dir) = build("narrow", 2000, 256);
        let full = Region::new(vec![0.0; 3], vec![100.0; 3]).unwrap();
        let narrow = Region::new(vec![10.0, 10.0, 10.0], vec![15.0, 15.0, 15.0]).unwrap();
        let (_, full_stats) = reconstruct_cold(&store, &full);
        let (_, narrow_stats) = reconstruct_cold(&store, &narrow);
        assert!(
            narrow_stats.chunk_bytes < full_stats.chunk_bytes,
            "narrow {} vs full {}",
            narrow_stats.chunk_bytes,
            full_stats.chunk_bytes
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let (store, _, _dir) = build("dims", 50, 512);
        let mut fetch = |id| store.read_chunk(id).map(Arc::new);
        let region = Region::new(vec![0.0], vec![1.0]).unwrap();
        assert!(reconstruct_region(&store, &region, &[Vec::new()], None, &mut fetch).is_err());
        let region = Region::new(vec![0.0; 3], vec![1.0; 3]).unwrap();
        assert!(
            reconstruct_region(&store, &region, &[Vec::new()], None, &mut fetch).is_err(),
            "one chunk list per dimension"
        );
    }

    #[test]
    fn delta_reuses_overlap_and_matches_full_reconstruction() {
        let (store, rows, _dir) = build("delta", 1500, 256);
        let a = Region::new(vec![10.0, 10.0, 10.0], vec![60.0, 60.0, 60.0]).unwrap();
        // Shifted region: heavy overlap with `a` along every dimension.
        let b = Region::new(vec![20.0, 20.0, 20.0], vec![70.0, 70.0, 70.0]).unwrap();

        let (rows_a, stats_a, set_a) = reconstruct_with(&store, &a, None);
        assert_eq!(stats_a.chunks_reused, 0, "nothing to reuse on the first load");
        assert_eq!(set_a.len() as u64, stats_a.chunks_loaded);
        let ids_a: Vec<u64> = rows_a.iter().map(|p| p.id.as_u64()).collect();
        assert_eq!(ids_a, brute_force(&rows, &a));

        let before = store.tracker().snapshot();
        let (rows_b, stats_b, set_b) = reconstruct_with(&store, &b, Some(&set_a));
        let delta_io = store.tracker().delta(&before).stats.bytes_read;

        // Identical rows to a from-scratch reconstruction.
        let (rows_full, _) = reconstruct_cold(&store, &b);
        assert_eq!(rows_b, rows_full);
        // Overlapping chunks were reused, and reuse really skipped I/O.
        assert!(stats_b.chunks_reused > 0, "overlapping regions share chunks");
        assert_eq!(delta_io, stats_b.chunk_bytes, "only the delta was read");
        // The new set covers the whole region b (reused + fresh).
        assert_eq!(set_b.len() as u64, stats_b.chunks_loaded + stats_b.chunks_reused);
        for dim_ids in chunks_for(&store, &b) {
            for id in dim_ids {
                assert!(set_b.contains(id));
            }
        }
    }

    #[test]
    fn delta_same_region_reads_nothing() {
        let (store, _, _dir) = build("delta-same", 800, 256);
        let region = Region::new(vec![25.0, 25.0, 25.0], vec![75.0, 75.0, 75.0]).unwrap();
        let (first, _, set) = reconstruct_with(&store, &region, None);
        let before = store.tracker().snapshot();
        let (second, stats, _) = reconstruct_with(&store, &region, Some(&set));
        assert_eq!(first, second);
        assert_eq!(stats.chunks_loaded, 0);
        assert_eq!(stats.chunk_bytes, 0);
        assert_eq!(store.tracker().delta(&before).stats.bytes_read, 0);
    }

    #[test]
    fn delta_composes_with_shared_cache() {
        let (store, _, _dir) = build("delta-shared", 1000, 256);
        let cache = SharedChunkCache::new(64 << 20, 4);
        let mut fetch = |id| cache.get_or_load(&store, id);
        let a = Region::new(vec![0.0, 0.0, 0.0], vec![50.0, 50.0, 50.0]).unwrap();
        let b = Region::new(vec![10.0, 10.0, 10.0], vec![60.0, 60.0, 60.0]).unwrap();
        let (_, _, set_a) =
            reconstruct_region(&store, &a, &chunks_for(&store, &a), None, &mut fetch).unwrap();
        let hits_before = cache.stats().hits;
        let (rows_b, stats_b, _) =
            reconstruct_region(&store, &b, &chunks_for(&store, &b), Some(&set_a), &mut fetch)
                .unwrap();
        // Reused chunks never touch the cache: hit count only moves for
        // the delta chunks (which may hit if b's extra chunks were loaded
        // for a — impossible here since set_a covers exactly a's chunks).
        assert_eq!(cache.stats().hits, hits_before);
        let (rows_full, _) = reconstruct_cold(&store, &b);
        assert_eq!(rows_b, rows_full);
        assert!(stats_b.chunks_reused > 0);
    }

    #[test]
    fn shared_fetch_matches_uncached() {
        let (store, rows, _dir) = build("sharedfetch", 900, 256);
        let region = Region::new(vec![15.0, 5.0, 30.0], vec![85.0, 95.0, 70.0]).unwrap();
        let chunks = chunks_for(&store, &region);
        let cache = SharedChunkCache::new(64 << 20, 4);
        let mut fetch = |id| cache.get_or_load(&store, id);
        let (got, stats, _) =
            reconstruct_region(&store, &region, &chunks, None, &mut fetch).unwrap();
        let got_ids: Vec<u64> = got.iter().map(|p| p.id.as_u64()).collect();
        assert_eq!(got_ids, brute_force(&rows, &region));
        assert!(stats.chunks_loaded > 0);
        // Second pass: all hits, zero modeled I/O.
        let before = store.tracker().snapshot();
        let (again, _, _) = reconstruct_region(&store, &region, &chunks, None, &mut fetch).unwrap();
        assert_eq!(got, again);
        assert_eq!(store.tracker().delta(&before).stats.bytes_read, 0);
    }

    #[test]
    fn stats_entries_bounded_by_work() {
        let (store, rows, _dir) = build("stats", 600, 256);
        let region = Region::new(vec![40.0, 40.0, 40.0], vec![60.0, 60.0, 60.0]).unwrap();
        let (_, stats) = reconstruct_cold(&store, &region);
        assert!(stats.entries_matched >= stats.result_rows * 3, "each result row matched 3 times");
        let in_x = rows.iter().filter(|p| (40.0..60.0).contains(&p.values[0])).count();
        assert_eq!(stats.seed_candidates, in_x as u64, "the seed is dimension 0's in-range ids");
        assert!(stats.seed_candidates >= stats.result_rows);
    }

    /// A wide in-memory dataset: `dims` uniform columns over `0..100`.
    fn wide_source(
        dims: usize,
        n: usize,
        ids: impl Fn(usize) -> u64,
    ) -> (MemChunkSource, Vec<DataPoint>) {
        let schema = Schema::new(
            (0..dims).map(|d| AttributeDef::new(format!("d{d}"), 0.0, 100.0).unwrap()).collect(),
        )
        .unwrap();
        let mut rng = Rng::new(70);
        let rows: Vec<DataPoint> = (0..n)
            .map(|i| DataPoint::new(ids(i), (0..dims).map(|_| rng.range_f64(0.0, 100.0)).collect()))
            .collect();
        let tracker = DiskTracker::new(IoProfile::instant());
        (MemChunkSource::from_rows(schema, &rows, 512, tracker).unwrap(), rows)
    }

    /// Every chunk of every dimension: what a mapping resolves for a
    /// region that spans the domain.
    fn all_chunks(source: &MemChunkSource, dims: usize) -> Vec<Vec<ChunkId>> {
        (0..dims as u32)
            .map(|d| {
                (0..)
                    .map(|seq| ChunkId::new(d, seq))
                    .take_while(|&id| source.chunk_file_size(id).is_ok())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn seventy_dimensions_match_brute_force() {
        let (source, rows) = wide_source(70, 200, |i| i as u64);
        // Wide enough per dimension that some of the 200 rows survive 70
        // intersections: 0.98^70 ≈ 0.24.
        let region = Region::new(vec![1.0; 70], vec![99.0; 70]).unwrap();
        let chunks = all_chunks(&source, 70);
        let (got, stats, _) = reconstruct_region(&source, &region, &chunks, None, &mut |id| {
            source.read_chunk(id).map(Arc::new)
        })
        .unwrap();
        let expect: Vec<&DataPoint> =
            rows.iter().filter(|p| region.contains(&p.values).unwrap()).collect();
        assert!(!expect.is_empty() && expect.len() < rows.len(), "{} survivors", expect.len());
        assert_eq!(got.iter().collect::<Vec<_>>(), expect);
        assert_eq!(stats.result_rows as usize, expect.len());
    }

    #[test]
    fn row_ids_past_the_bitmap_limit_are_a_typed_error() {
        // Row ids are dense in every real store; a source that breaks that
        // must not size the bitmap from a wild id.
        let (source, _) = wide_source(2, 50, |i| (i as u64) << 40);
        let region = Region::closed(vec![0.0; 2], vec![100.0; 2]).unwrap();
        let got = reconstruct_region(&source, &region, &all_chunks(&source, 2), None, &mut |id| {
            source.read_chunk(id).map(Arc::new)
        });
        assert!(
            matches!(got, Err(UeiError::Corrupt { .. })),
            "got {:?}",
            got.map(|(rows, ..)| rows.len())
        );
    }
}
