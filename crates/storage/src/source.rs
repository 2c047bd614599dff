//! The [`ChunkSource`] abstraction: where chunks come from.
//!
//! `RegionLoader`, `Prefetcher`, and the chunk caches only need four things
//! from the storage layer: the dataset dimensionality, the catalog's encoded
//! size of a chunk, the (tracked, integrity-checked) bytes of a chunk, and a
//! tracker to charge modeled I/O against. Extracting that surface into a
//! trait lets the whole read path run against either the real on-disk
//! [`ColumnStore`] or an in-memory double — and lets one store be shared by
//! many sessions behind `Arc<dyn ChunkSource>` handles that differ only in
//! which [`DiskTracker`] they charge.

use std::collections::HashMap;
use std::sync::Arc;

use uei_types::{DataPoint, Result, Schema, UeiError};

use crate::chunk::{Chunk, ChunkId};
use crate::column::vertical_decompose;
use crate::io::DiskTracker;
use crate::store::ColumnStore;

/// A tracked, integrity-checked supplier of chunks.
///
/// Implementations must be usable from many threads at once (`Send + Sync`):
/// the prefetcher reads on a background thread while the foreground loader
/// reads on the session thread, and an `EngineCore` hands clones of one
/// source to every session.
pub trait ChunkSource: Send + Sync {
    /// Dataset dimensionality (number of inverted columns).
    fn dims(&self) -> usize;

    /// Encoded on-"disk" size of chunk `id` per the catalog, without
    /// touching the payload. Used for cache admission and modeled-I/O
    /// charging.
    fn chunk_file_size(&self, id: ChunkId) -> Result<u64>;

    /// Reads chunk `id`'s raw encoded bytes through the tracked I/O path,
    /// verifying catalog integrity (size + CRC) but not decoding. Paired
    /// with [`ChunkSource::decode_chunk`] so callers can keep reads
    /// sequential while decoding in parallel.
    fn read_chunk_bytes(&self, id: ChunkId) -> Result<Vec<u8>>;

    /// Decodes bytes produced by [`ChunkSource::read_chunk_bytes`],
    /// validating that they really hold chunk `id`. Pure CPU work.
    fn decode_chunk(&self, id: ChunkId, bytes: &[u8]) -> Result<Chunk>;

    /// Reads and decodes one chunk.
    fn read_chunk(&self, id: ChunkId) -> Result<Chunk> {
        let bytes = self.read_chunk_bytes(id)?;
        self.decode_chunk(id, &bytes)
    }

    /// The tracker charged by this source's reads. Each session holds a
    /// source handle with its own tracker, so modeled I/O is accounted
    /// per session even when the underlying files are shared.
    fn tracker(&self) -> &DiskTracker;
}

impl ChunkSource for ColumnStore {
    fn dims(&self) -> usize {
        self.schema().dims()
    }

    fn chunk_file_size(&self, id: ChunkId) -> Result<u64> {
        Ok(self.manifest().chunk_meta(id)?.file_size)
    }

    fn read_chunk_bytes(&self, id: ChunkId) -> Result<Vec<u8>> {
        ColumnStore::read_chunk_bytes(self, id)
    }

    fn decode_chunk(&self, id: ChunkId, bytes: &[u8]) -> Result<Chunk> {
        ColumnStore::decode_chunk(self, id, bytes)
    }

    fn tracker(&self) -> &DiskTracker {
        ColumnStore::tracker(self)
    }
}

/// An in-memory [`ChunkSource`]: the same vertical decomposition, chunking,
/// and encoding as [`ColumnStore::create`], but the encoded chunks live in a
/// `HashMap` instead of files. Reads charge the tracker's model exactly like
/// disk reads (one seek plus the encoded length), so loader tests and
/// determinism tests can run without a scratch directory.
#[derive(Debug)]
pub struct MemChunkSource {
    schema: Schema,
    chunks: Arc<HashMap<ChunkId, Vec<u8>>>,
    tracker: DiskTracker,
}

impl MemChunkSource {
    /// Builds an in-memory source from row data. `rows` must carry dense
    /// ids (a permutation of `0..rows.len()`), like [`ColumnStore::create`].
    pub fn from_rows(
        schema: Schema,
        rows: &[DataPoint],
        chunk_target_bytes: usize,
        tracker: DiskTracker,
    ) -> Result<MemChunkSource> {
        if chunk_target_bytes == 0 {
            return Err(UeiError::invalid_config("chunk_target_bytes must be positive"));
        }
        let dims = schema.dims();
        let columns = vertical_decompose(rows, dims)?;
        let mut chunks = HashMap::new();
        for column in columns {
            for chunk in column.chunks(chunk_target_bytes) {
                let chunk = chunk?;
                chunks.insert(chunk.id, chunk.encode());
            }
        }
        Ok(MemChunkSource { schema, chunks: Arc::new(chunks), tracker })
    }

    /// A handle over the same in-memory chunks charging a different
    /// tracker — the in-memory analogue of [`ColumnStore::with_tracker`].
    pub fn with_tracker(&self, tracker: DiskTracker) -> MemChunkSource {
        MemChunkSource { schema: self.schema.clone(), chunks: Arc::clone(&self.chunks), tracker }
    }

    /// Number of chunks held.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }
}

impl ChunkSource for MemChunkSource {
    fn dims(&self) -> usize {
        self.schema.dims()
    }

    fn chunk_file_size(&self, id: ChunkId) -> Result<u64> {
        let bytes = self
            .chunks
            .get(&id)
            .ok_or_else(|| UeiError::not_found(format!("chunk {id} not in memory source")))?;
        Ok(bytes.len() as u64)
    }

    fn read_chunk_bytes(&self, id: ChunkId) -> Result<Vec<u8>> {
        let bytes = self
            .chunks
            .get(&id)
            .ok_or_else(|| UeiError::not_found(format!("chunk {id} not in memory source")))?;
        self.tracker.record_read(bytes.len() as u64, 1);
        Ok(bytes.clone())
    }

    fn decode_chunk(&self, id: ChunkId, bytes: &[u8]) -> Result<Chunk> {
        let chunk = Chunk::decode(bytes)?;
        if chunk.id != id {
            return Err(UeiError::corrupt(format!("memory slot {id} holds chunk {}", chunk.id)));
        }
        Ok(chunk)
    }

    fn tracker(&self) -> &DiskTracker {
        &self.tracker
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::IoProfile;
    use uei_types::{AttributeDef, Rng};

    fn synthetic_rows(n: usize, dims: usize, seed: u64) -> (Schema, Vec<DataPoint>) {
        let mut rng = Rng::new(seed);
        let schema = Schema::new(
            (0..dims).map(|d| AttributeDef::new(format!("d{d}"), 0.0, 100.0).unwrap()).collect(),
        )
        .unwrap();
        let rows = (0..n)
            .map(|id| {
                DataPoint::new(id as u64, (0..dims).map(|_| rng.range_f64(0.0, 100.0)).collect())
            })
            .collect();
        (schema, rows)
    }

    #[test]
    fn mem_source_matches_disk_store_chunk_for_chunk() {
        let (schema, rows) = synthetic_rows(300, 2, 7);
        let dir = crate::testutil::TempDir::new("mem_source_matches");
        let store = ColumnStore::create(
            dir.path(),
            schema.clone(),
            &rows,
            crate::store::StoreConfig { chunk_target_bytes: 2048 },
            DiskTracker::new(IoProfile::instant()),
        )
        .unwrap();
        let mem =
            MemChunkSource::from_rows(schema, &rows, 2048, DiskTracker::new(IoProfile::instant()))
                .unwrap();

        assert_eq!(mem.num_chunks(), store.manifest().total_chunks());
        assert_eq!(ChunkSource::dims(&mem), ChunkSource::dims(&store));
        for dim in store.manifest().dims.iter() {
            for meta in dim {
                let id = ChunkId::new(meta.dim, meta.seq);
                assert_eq!(mem.chunk_file_size(id).unwrap(), meta.file_size);
                let a = ChunkSource::read_chunk(&store, id).unwrap();
                let b = ChunkSource::read_chunk(&mem, id).unwrap();
                assert_eq!(a.encode(), b.encode(), "chunk {id} differs");
            }
        }
    }

    #[test]
    fn mem_source_charges_model_like_disk() {
        let (schema, rows) = synthetic_rows(200, 2, 11);
        let mem =
            MemChunkSource::from_rows(schema, &rows, 1024, DiskTracker::new(IoProfile::default()))
                .unwrap();
        let id = *mem.chunks.keys().next().unwrap();
        let before = mem.tracker().snapshot();
        mem.read_chunk(id).unwrap();
        let delta = mem.tracker().delta(&before);
        assert_eq!(delta.stats.bytes_read, mem.chunk_file_size(id).unwrap());
        assert_eq!(delta.stats.seeks, 1);
        assert!(delta.virtual_elapsed > std::time::Duration::ZERO);
    }

    #[test]
    fn mem_source_unknown_chunk_is_not_found() {
        let (schema, rows) = synthetic_rows(50, 1, 3);
        let mem =
            MemChunkSource::from_rows(schema, &rows, 4096, DiskTracker::new(IoProfile::instant()))
                .unwrap();
        let missing = ChunkId::new(9, 9);
        assert!(mem.read_chunk(missing).is_err());
        assert!(mem.chunk_file_size(missing).is_err());
    }
}
