//! The on-disk column store: creation and reading.
//!
//! A store directory contains:
//!
//! - `manifest.json` — the chunk catalog ([`crate::manifest::Manifest`]);
//! - `dNNN_cNNNNNN.uei` — one file per chunk (paper: "each chunk will be
//!   stored as a separate file on the disk");
//! - `rows.dat` — a dense row-major copy of the data (fixed-width `f64`
//!   records addressed by row id).
//!
//! `rows.dat` is an engineering addition over the paper's description: the
//! exploration phase needs to (a) uniformly sample the unlabeled cache `U`
//! from the underlying dataset (Algorithm 2 line 12) and (b) retrieve result
//! tuples (line 26), both of which require row-id → tuple access that a
//! purely inverted layout cannot serve without reconstructing every
//! dimension. All reads of `rows.dat` go through the same [`DiskTracker`]
//! model, so it is charged like any other secondary-storage access.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use rayon::prelude::*;
use uei_types::{DataPoint, Result, Schema, UeiError};

use crate::chunk::{Chunk, ChunkId};
use crate::column::vertical_decompose;
use crate::io::DiskTracker;
use crate::manifest::{ChunkMeta, Manifest, MANIFEST_VERSION};

/// File name of the row-major data file inside a store directory.
pub const ROWS_FILE: &str = "rows.dat";

/// Magic prefix of `rows.dat`.
pub const ROWS_MAGIC: &[u8; 8] = b"UEIROWS1";

/// Byte length of the `rows.dat` header.
const ROWS_HEADER_LEN: u64 = 8 + 4 + 8;

/// Configuration for creating a [`ColumnStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Target encoded payload per chunk, in bytes. The paper's evaluation
    /// uses 470 KB chunks (Table 1).
    pub chunk_target_bytes: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig { chunk_target_bytes: 470 * 1024 }
    }
}

/// A readable, immutable column store rooted at a directory.
#[derive(Debug)]
pub struct ColumnStore {
    dir: PathBuf,
    manifest: Arc<Manifest>,
    tracker: DiskTracker,
}

impl ColumnStore {
    /// Creates a store from row data — the paper's *index initialization*
    /// phase for storage (Algorithm 2 lines 2–6): vertical decomposition,
    /// per-dimension sort, grouping into `<key, {ids}>`, and splitting into
    /// equal-size chunk files.
    ///
    /// `rows` must carry dense ids: a permutation of `0..rows.len()`.
    #[must_use = "dropping the store discards the only handle to the files just written; \
                  check the Result — creation performs real disk I/O that can fail"]
    pub fn create(
        dir: impl Into<PathBuf>,
        schema: Schema,
        rows: &[DataPoint],
        config: StoreConfig,
        tracker: DiskTracker,
    ) -> Result<ColumnStore> {
        let dir = dir.into();
        if config.chunk_target_bytes == 0 {
            return Err(UeiError::invalid_config("chunk_target_bytes must be positive"));
        }
        std::fs::create_dir_all(&dir).map_err(|e| UeiError::io(&dir, e))?;

        validate_dense_ids(rows)?;
        let dims = schema.dims();

        // Vertical decomposition and chunking, one dimension at a time.
        let columns = vertical_decompose(rows, dims)?;
        let mut catalogs: Vec<Vec<ChunkMeta>> = Vec::with_capacity(dims);
        for column in columns {
            let mut catalog = Vec::new();
            for chunk in column.chunks(config.chunk_target_bytes) {
                let chunk = chunk?;
                let bytes = chunk.encode();
                let meta = ChunkMeta {
                    dim: chunk.id.dim,
                    seq: chunk.id.seq,
                    min_key: chunk.min_key(),
                    max_key: chunk.max_key(),
                    num_entries: chunk.num_entries() as u64,
                    num_ids: chunk.num_ids() as u64,
                    file_size: bytes.len() as u64,
                    // Written once at build time, verified on every read
                    // (before decode) so corruption can never reach the
                    // learner as plausible rows.
                    crc32: crate::checksum::crc32(&bytes),
                };
                tracker.write_file(&dir.join(chunk.id.file_name()), &bytes)?;
                catalog.push(meta);
            }
            catalogs.push(catalog);
        }

        write_rows_file(&dir, dims, rows, &tracker)?;

        let manifest = Manifest {
            version: MANIFEST_VERSION,
            schema,
            num_rows: rows.len() as u64,
            chunk_target_bytes: config.chunk_target_bytes as u64,
            dims: catalogs,
        };
        manifest.validate()?;
        manifest.save(&dir, &tracker)?;

        Ok(ColumnStore { dir, manifest: Arc::new(manifest), tracker })
    }

    /// Opens an existing store directory.
    #[must_use = "an unchecked open hides manifest corruption until the first read; \
                  handle the Result"]
    pub fn open(dir: impl Into<PathBuf>, tracker: DiskTracker) -> Result<ColumnStore> {
        let dir = dir.into();
        let manifest = Manifest::load(&dir, &tracker)?;
        Ok(ColumnStore { dir, manifest: Arc::new(manifest), tracker })
    }

    /// A handle over the same store files and catalog charging a different
    /// tracker. The directory path and the decoded manifest are shared
    /// (`Arc`), so opening one handle per session copies no store data:
    /// sessions differ only in which I/O ledger their reads are billed to.
    pub fn with_tracker(&self, tracker: DiskTracker) -> ColumnStore {
        ColumnStore { dir: self.dir.clone(), manifest: Arc::clone(&self.manifest), tracker }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The chunk catalog.
    pub fn manifest(&self) -> &Manifest {
        self.manifest.as_ref()
    }

    /// Dataset schema.
    pub fn schema(&self) -> &Schema {
        &self.manifest.schema
    }

    /// Number of rows in the dataset.
    pub fn num_rows(&self) -> u64 {
        self.manifest.num_rows
    }

    /// The I/O tracker charged by this store's reads.
    pub fn tracker(&self) -> &DiskTracker {
        &self.tracker
    }

    /// Reads and validates one chunk file.
    pub fn read_chunk(&self, id: ChunkId) -> Result<Chunk> {
        let bytes = self.read_chunk_bytes(id)?;
        self.decode_chunk(id, &bytes)
    }

    /// Reads one chunk file's raw encoded bytes through the tracked I/O
    /// path, without decoding. Paired with [`Self::decode_chunk`] this
    /// lets callers keep reads sequential (the I/O model charges seeks in
    /// issue order) while spreading the CPU-bound CRC-validating decode
    /// across cores.
    pub fn read_chunk_bytes(&self, id: ChunkId) -> Result<Vec<u8>> {
        // Existence check against the catalog first: a miss is NotFound,
        // not Io.
        let meta = self.manifest.chunk_meta(id)?;
        let expected_crc = meta.crc32;
        let expected_len = meta.file_size;
        let bytes = self.tracker.read_file(&self.dir.join(id.file_name()))?;
        // Catalog-level integrity, checked before any decode work: the
        // build-time CRC must match the bytes that came off the device.
        // crc32 == 0 means a legacy catalog without checksums.
        if expected_crc != 0 {
            if bytes.len() as u64 != expected_len {
                return Err(UeiError::corrupt(format!(
                    "chunk file {} is {} bytes, catalog says {expected_len} (truncated?)",
                    id.file_name(),
                    bytes.len()
                )));
            }
            let actual = crate::checksum::crc32(&bytes);
            if actual != expected_crc {
                return Err(UeiError::corrupt(format!(
                    "chunk file {} failed its catalog checksum: \
                     crc32 {actual:08x} != recorded {expected_crc:08x}",
                    id.file_name()
                )));
            }
        }
        Ok(bytes)
    }

    /// Decodes bytes read by [`Self::read_chunk_bytes`], validating that
    /// the file really holds chunk `id`. Pure CPU work — safe to run in
    /// parallel for independent chunks.
    pub fn decode_chunk(&self, id: ChunkId, bytes: &[u8]) -> Result<Chunk> {
        let chunk = Chunk::decode(bytes)?;
        if chunk.id != id {
            return Err(UeiError::corrupt(format!(
                "chunk file {} contains chunk {}",
                id.file_name(),
                chunk.id
            )));
        }
        Ok(chunk)
    }

    /// Fetches one row by id from `rows.dat`.
    pub fn fetch_row(&self, id: u64) -> Result<DataPoint> {
        self.fetch_rows(&[id])?
            .pop()
            .ok_or_else(|| UeiError::not_found(format!("row {id} not present in rows.dat")))
    }

    /// Fetches rows by id from `rows.dat`.
    ///
    /// Ids are sorted and coalesced into contiguous runs so that the I/O
    /// model charges one seek per run rather than one per row. Results are
    /// returned in the caller's id order.
    pub fn fetch_rows(&self, ids: &[u64]) -> Result<Vec<DataPoint>> {
        let dims = self.schema().dims();
        let row_len = (dims * 8) as u64;
        for &id in ids {
            if id >= self.num_rows() {
                return Err(UeiError::not_found(format!(
                    "row {id} (store has {} rows)",
                    self.num_rows()
                )));
            }
        }
        let mut sorted: Vec<u64> = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();

        let path = self.dir.join(ROWS_FILE);

        // Phase 1 — I/O: read every coalesced run sequentially, in id
        // order, so the modeled seek/byte accounting is deterministic.
        let mut runs: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut run_start = 0usize;
        while run_start < sorted.len() {
            let mut run_end = run_start + 1;
            while run_end < sorted.len() && sorted[run_end] == sorted[run_end - 1] + 1 {
                run_end += 1;
            }
            let first = sorted[run_start];
            let count = (run_end - run_start) as u64;
            let offset = ROWS_HEADER_LEN + first * row_len;
            let buf = self.tracker.read_at(&path, offset, (count * row_len) as usize)?;
            runs.push((first, buf));
            run_start = run_end;
        }

        // Phase 2 — CPU: bit-decode the rows of each run, fanning runs out
        // across cores for large fetches. Row values are exact bit copies,
        // so parallel order cannot affect the result.
        let decode_run = |(first, buf): &(u64, Vec<u8>)| -> Vec<(u64, Vec<f64>)> {
            let count = buf.len() / row_len as usize;
            (0..count)
                .map(|i| {
                    let base = i * row_len as usize;
                    let mut values = Vec::with_capacity(dims);
                    for d in 0..dims {
                        let s = base + d * 8;
                        let bits =
                            u64::from_le_bytes(buf[s..s + 8].try_into().expect("slice is 8 bytes"));
                        values.push(f64::from_bits(bits));
                    }
                    (first + i as u64, values)
                })
                .collect()
        };
        let decoded: Vec<Vec<(u64, Vec<f64>)>> =
            if sorted.len() >= 256 && runs.len() >= 2 && rayon::current_num_threads() > 1 {
                runs.par_iter().map(decode_run).collect()
            } else {
                runs.iter().map(decode_run).collect()
            };
        let mut by_id = std::collections::HashMap::with_capacity(sorted.len());
        for run in decoded {
            for (id, values) in run {
                by_id.insert(id, values);
            }
        }
        Ok(ids
            .iter()
            .map(|&id| DataPoint::new(id, by_id.get(&id).expect("fetched above").clone()))
            .collect())
    }

    /// Uniformly samples `k` distinct rows (all rows when `k >= num_rows`),
    /// reading them through the tracked I/O path — this is how the
    /// exploration phase fills the unlabeled cache `U` (Algorithm 2 line 12).
    pub fn sample_rows(&self, k: usize, rng: &mut uei_types::Rng) -> Result<Vec<DataPoint>> {
        let n = self.num_rows() as usize;
        let mut ids: Vec<u64> = rng.sample_indices(n, k).into_iter().map(|i| i as u64).collect();
        ids.sort_unstable();
        self.fetch_rows(&ids)
    }

    /// Streams every row through `visit`, reading `rows.dat` sequentially in
    /// large blocks. One seek is charged for the whole scan; this is the
    /// cheapest possible full pass and is what the DBMS baseline's
    /// exhaustive search is compared against.
    pub fn scan_all(&self, mut visit: impl FnMut(DataPoint)) -> Result<()> {
        use std::io::Read;
        let dims = self.schema().dims();
        let row_len = dims * 8;
        let path = self.dir.join(ROWS_FILE);
        let mut f = std::fs::File::open(&path).map_err(|e| UeiError::io(&path, e))?;

        let mut header = vec![0u8; ROWS_HEADER_LEN as usize];
        f.read_exact(&mut header).map_err(|e| UeiError::io(&path, e))?;
        self.tracker.record_read(ROWS_HEADER_LEN, 1);
        validate_rows_header(&header, dims, self.num_rows())?;

        let rows_per_block = (1 << 20) / row_len.max(1);
        let mut buf = vec![0u8; rows_per_block.max(1) * row_len];
        let mut next_id = 0u64;
        while next_id < self.num_rows() {
            let batch = ((self.num_rows() - next_id) as usize).min(rows_per_block.max(1));
            let want = batch * row_len;
            f.read_exact(&mut buf[..want]).map_err(|e| UeiError::io(&path, e))?;
            // Sequential continuation: bytes only, no extra seek.
            self.tracker.record_read(want as u64, 0);
            for r in 0..batch {
                let base = r * row_len;
                let mut values = Vec::with_capacity(dims);
                for d in 0..dims {
                    let s = base + d * 8;
                    let bits = u64::from_le_bytes(buf[s..s + 8].try_into().expect("8-byte slice"));
                    values.push(f64::from_bits(bits));
                }
                visit(DataPoint::new(next_id, values));
                next_id += 1;
            }
        }
        Ok(())
    }

    /// Size of the row-major file in bytes (header included).
    pub fn rows_file_bytes(&self) -> u64 {
        ROWS_HEADER_LEN + self.num_rows() * (self.schema().dims() as u64) * 8
    }

    /// Full integrity check of the store directory.
    ///
    /// Reads and CRC-validates every chunk, verifies that each chunk's key
    /// range and counts match its catalog entry, that the chunk sequence
    /// of every dimension ascends, that each dimension's posting lists
    /// cover exactly the row ids `0..num_rows` once, and that `rows.dat`
    /// has the expected length. Returns per-dimension chunk counts on
    /// success. This is an offline operation (think `fsck`): it reads the
    /// whole store through the tracked I/O path.
    pub fn verify(&self) -> Result<VerifyReport> {
        let dims = self.schema().dims();
        let mut chunks_per_dim = Vec::with_capacity(dims);
        for d in 0..dims {
            let catalog = &self.manifest.dims[d];
            let mut covered = vec![false; self.num_rows() as usize];
            let mut last_key = f64::NEG_INFINITY;
            for meta in catalog {
                let chunk = self.read_chunk(meta.id())?;
                if chunk.min_key() != meta.min_key
                    || chunk.max_key() != meta.max_key
                    || chunk.num_entries() as u64 != meta.num_entries
                    || chunk.num_ids() as u64 != meta.num_ids
                {
                    return Err(UeiError::corrupt(format!(
                        "chunk {} disagrees with its catalog entry",
                        meta.id()
                    )));
                }
                if chunk.min_key() <= last_key {
                    return Err(UeiError::corrupt(format!(
                        "chunk {} breaks the ascending chunk sequence",
                        meta.id()
                    )));
                }
                last_key = chunk.max_key();
                for &id in chunk.ids_in(0..chunk.num_entries()) {
                    let slot = covered.get_mut(id as usize).ok_or_else(|| {
                        UeiError::corrupt(format!("dim {d}: posting id {id} out of range"))
                    })?;
                    if *slot {
                        return Err(UeiError::corrupt(format!("dim {d}: row {id} posted twice")));
                    }
                    *slot = true;
                }
            }
            if let Some(missing) = covered.iter().position(|&c| !c) {
                return Err(UeiError::corrupt(format!(
                    "dim {d}: row {missing} missing from the inverted column"
                )));
            }
            chunks_per_dim.push(catalog.len());
        }
        // rows.dat header + length.
        let rows_path = self.dir.join(ROWS_FILE);
        let len = std::fs::metadata(&rows_path).map_err(|e| UeiError::io(&rows_path, e))?.len();
        if len != self.rows_file_bytes() {
            return Err(UeiError::corrupt(format!(
                "rows.dat is {len} bytes, expected {}",
                self.rows_file_bytes()
            )));
        }
        Ok(VerifyReport { dims, rows: self.num_rows(), chunks_per_dim })
    }
}

/// Outcome of [`ColumnStore::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Dimensions checked.
    pub dims: usize,
    /// Rows covered by every dimension.
    pub rows: u64,
    /// Number of chunks per dimension.
    pub chunks_per_dim: Vec<usize>,
}

fn validate_dense_ids(rows: &[DataPoint]) -> Result<()> {
    let n = rows.len() as u64;
    let mut seen = vec![false; rows.len()];
    for row in rows {
        let id = row.id.as_u64();
        if id >= n {
            return Err(UeiError::invalid_config(format!(
                "row id {id} out of range for {n} rows (ids must be dense 0..n)"
            )));
        }
        if seen[id as usize] {
            return Err(UeiError::invalid_config(format!("duplicate row id {id}")));
        }
        seen[id as usize] = true;
    }
    Ok(())
}

fn write_rows_file(
    dir: &Path,
    dims: usize,
    rows: &[DataPoint],
    tracker: &DiskTracker,
) -> Result<()> {
    let mut buf = Vec::with_capacity(ROWS_HEADER_LEN as usize + rows.len() * dims * 8);
    buf.extend_from_slice(ROWS_MAGIC);
    buf.extend_from_slice(&(dims as u32).to_le_bytes());
    buf.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    // Records are laid out by row id, independent of input order.
    let mut ordered: Vec<&DataPoint> = rows.iter().collect();
    ordered.sort_unstable_by_key(|r| r.id);
    for row in ordered {
        for &v in &row.values {
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    tracker.write_file(&dir.join(ROWS_FILE), &buf)
}

fn validate_rows_header(header: &[u8], dims: usize, num_rows: u64) -> Result<()> {
    if &header[..8] != ROWS_MAGIC {
        return Err(UeiError::corrupt("bad rows.dat magic"));
    }
    let file_dims = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    let file_rows = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
    if file_dims as usize != dims || file_rows != num_rows {
        return Err(UeiError::corrupt(format!(
            "rows.dat header mismatch: file says {file_dims} dims / {file_rows} rows, \
             manifest says {dims} / {num_rows}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::IoProfile;
    use uei_types::{AttributeDef, Rng};

    fn schema2() -> Schema {
        Schema::new(vec![
            AttributeDef::new("x", 0.0, 100.0).unwrap(),
            AttributeDef::new("y", 0.0, 100.0).unwrap(),
        ])
        .unwrap()
    }

    fn make_rows(n: usize) -> Vec<DataPoint> {
        let mut rng = Rng::new(42);
        (0..n)
            .map(|i| {
                DataPoint::new(i as u64, vec![rng.range_f64(0.0, 100.0), rng.range_f64(0.0, 100.0)])
            })
            .collect()
    }

    fn temp_dir(tag: &str) -> crate::testutil::TempDir {
        crate::testutil::TempDir::new(&format!("store-{tag}"))
    }

    #[test]
    fn create_open_round_trip() {
        let dir = temp_dir("roundtrip");
        let rows = make_rows(500);
        let tracker = DiskTracker::new(IoProfile::instant());
        let store = ColumnStore::create(
            dir.path(),
            schema2(),
            &rows,
            StoreConfig { chunk_target_bytes: 256 },
            tracker.clone(),
        )
        .unwrap();
        assert_eq!(store.num_rows(), 500);
        assert!(store.manifest().total_chunks() > 2, "small target should split chunks");

        let reopened = ColumnStore::open(dir.path(), tracker).unwrap();
        assert_eq!(reopened.num_rows(), 500);
        assert_eq!(reopened.manifest().dims, store.manifest().dims);
    }

    /// The on-disk format is pinned independently of the in-memory layout:
    /// per dimension, the chunk count, total file bytes, a digest of every
    /// catalog tuple and a digest of the chunk files themselves, captured
    /// at commit 12fdd3e (before the write path went flat). (The catalog `crc32` is the CRC of a file that ends in its
    /// own CRC — one constant for every chunk — so the file digest is what
    /// pins the contents.) This is what keeps `stored_bytes_per_user_byte`
    /// and `bytes_read_per_iter` where they were.
    #[test]
    fn create_writes_the_parent_format() {
        fn fnv(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        // (chunks, file bytes, catalog digest, file digest) per dimension.
        const PARENT: [(usize, u64, u64, u64); 3] = [
            (43, 22_904, 0x443e_0dde_eccc_40b1, 0xee10_a188_9454_ed5b),
            (4, 2_246, 0x7c03_948f_c20b_5ae2, 0x59bd_23c2_3b90_02a9),
            (43, 22_904, 0x7c2e_f10d_004d_2e23, 0xbd6e_73ab_fd56_0a9d),
        ];

        let dir = temp_dir("format");
        let schema = Schema::new(
            ["x", "y", "z"].map(|n| AttributeDef::new(n, 0.0, 100.0).unwrap()).to_vec(),
        )
        .unwrap();
        let mut rng = Rng::new(9);
        // x and z continuous (one id per key), y on 16 levels (long lists).
        let rows: Vec<DataPoint> = (0..2000)
            .map(|i| {
                let x = rng.range_f64(0.0, 100.0);
                let y = rng.range_f64(0.0, 16.0).floor() * 6.25;
                let z = rng.range_f64(0.0, 100.0);
                DataPoint::new(i as u64, vec![x, y, z])
            })
            .collect();
        let store = ColumnStore::create(
            dir.path(),
            schema,
            &rows,
            StoreConfig { chunk_target_bytes: 512 },
            DiskTracker::new(IoProfile::instant()),
        )
        .unwrap();
        store.verify().unwrap();
        for (d, catalog) in store.manifest().dims.iter().enumerate() {
            let (mut tuples, mut files) = (FNV_OFFSET, FNV_OFFSET);
            for m in catalog {
                let tuple = format!(
                    "{},{},{},{},{:?},{:?};",
                    m.file_size, m.crc32, m.num_entries, m.num_ids, m.min_key, m.max_key
                );
                fnv(&mut tuples, tuple.as_bytes());
                fnv(&mut files, &std::fs::read(dir.join(m.id().file_name())).unwrap());
            }
            let bytes: u64 = catalog.iter().map(|m| m.file_size).sum();
            assert_eq!((catalog.len(), bytes, tuples, files), PARENT[d], "dimension {d}");
        }
    }

    #[test]
    fn chunks_cover_all_ids_in_order() {
        let dir = temp_dir("coverage");
        let rows = make_rows(300);
        let tracker = DiskTracker::new(IoProfile::instant());
        let store = ColumnStore::create(
            dir.path(),
            schema2(),
            &rows,
            StoreConfig { chunk_target_bytes: 200 },
            tracker,
        )
        .unwrap();
        for dim in 0..2 {
            let mut all_ids: Vec<u64> = Vec::new();
            let mut last_key = f64::NEG_INFINITY;
            for meta in &store.manifest().dims[dim] {
                let chunk = store.read_chunk(meta.id()).unwrap();
                assert!(chunk.min_key() > last_key, "chunk sequences ascend");
                last_key = chunk.max_key();
                all_ids.extend(chunk.ids_in(0..chunk.num_entries()));
            }
            all_ids.sort_unstable();
            assert_eq!(all_ids, (0..300u64).collect::<Vec<_>>(), "dim {dim} covers every row");
        }
    }

    #[test]
    fn fetch_rows_returns_exact_values() {
        let dir = temp_dir("fetch");
        let rows = make_rows(100);
        let tracker = DiskTracker::new(IoProfile::instant());
        let store =
            ColumnStore::create(dir.path(), schema2(), &rows, StoreConfig::default(), tracker)
                .unwrap();
        let got = store.fetch_rows(&[17, 3, 99, 4]).unwrap();
        assert_eq!(got.len(), 4);
        assert_eq!(got[0], rows[17]);
        assert_eq!(got[1], rows[3]);
        assert_eq!(got[2], rows[99]);
        assert_eq!(got[3], rows[4]);
        assert!(store.fetch_rows(&[100]).is_err());
    }

    #[test]
    fn fetch_contiguous_run_charges_one_seek() {
        let dir = temp_dir("seeks");
        let rows = make_rows(64);
        let tracker = DiskTracker::new(IoProfile::instant());
        let store = ColumnStore::create(
            dir.path(),
            schema2(),
            &rows,
            StoreConfig::default(),
            tracker.clone(),
        )
        .unwrap();
        let before = tracker.snapshot();
        store.fetch_rows(&[10, 11, 12, 13]).unwrap();
        let d = tracker.delta(&before);
        assert_eq!(d.stats.seeks, 1, "contiguous ids coalesce into one read");
        let before = tracker.snapshot();
        store.fetch_rows(&[1, 30, 60]).unwrap();
        let d = tracker.delta(&before);
        assert_eq!(d.stats.seeks, 3);
    }

    #[test]
    fn scan_all_streams_everything_once() {
        let dir = temp_dir("scan");
        let rows = make_rows(1000);
        let tracker = DiskTracker::new(IoProfile::instant());
        let store = ColumnStore::create(
            dir.path(),
            schema2(),
            &rows,
            StoreConfig::default(),
            tracker.clone(),
        )
        .unwrap();
        let before = tracker.snapshot();
        let mut seen = Vec::new();
        store.scan_all(|p| seen.push(p)).unwrap();
        assert_eq!(seen.len(), 1000);
        assert_eq!(seen[123], rows[123]);
        let d = tracker.delta(&before);
        assert_eq!(d.stats.seeks, 1, "sequential scan charges one seek");
        assert_eq!(d.stats.bytes_read, store.rows_file_bytes());
    }

    #[test]
    fn sample_rows_is_uniform_subset() {
        let dir = temp_dir("sample");
        let rows = make_rows(200);
        let tracker = DiskTracker::new(IoProfile::instant());
        let store =
            ColumnStore::create(dir.path(), schema2(), &rows, StoreConfig::default(), tracker)
                .unwrap();
        let mut rng = Rng::new(7);
        let sample = store.sample_rows(50, &mut rng).unwrap();
        assert_eq!(sample.len(), 50);
        let mut ids: Vec<u64> = sample.iter().map(|p| p.id.as_u64()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 50);
        for p in &sample {
            assert_eq!(p, &rows[p.id.as_usize()]);
        }
        // k >= n returns everything.
        let all = store.sample_rows(500, &mut rng).unwrap();
        assert_eq!(all.len(), 200);
    }

    #[test]
    fn create_rejects_non_dense_ids() {
        let dir = temp_dir("dense");
        let tracker = DiskTracker::new(IoProfile::instant());
        let bad = vec![DataPoint::new(5u64, vec![1.0, 1.0])];
        assert!(ColumnStore::create(
            dir.path(),
            schema2(),
            &bad,
            StoreConfig::default(),
            tracker.clone()
        )
        .is_err());
        let dup = vec![DataPoint::new(0u64, vec![1.0, 1.0]), DataPoint::new(0u64, vec![2.0, 2.0])];
        assert!(ColumnStore::create(dir.path(), schema2(), &dup, StoreConfig::default(), tracker)
            .is_err());
    }

    #[test]
    fn create_rejects_zero_chunk_target() {
        let dir = temp_dir("zerochunk");
        let tracker = DiskTracker::new(IoProfile::instant());
        assert!(ColumnStore::create(
            dir.path(),
            schema2(),
            &make_rows(10),
            StoreConfig { chunk_target_bytes: 0 },
            tracker
        )
        .is_err());
    }

    #[test]
    fn read_chunk_detects_corruption() {
        let dir = temp_dir("corrupt");
        let rows = make_rows(100);
        let tracker = DiskTracker::new(IoProfile::instant());
        let store = ColumnStore::create(
            dir.path(),
            schema2(),
            &rows,
            StoreConfig { chunk_target_bytes: 128 },
            tracker,
        )
        .unwrap();
        let id = store.manifest().dims[0][0].id();
        let path = dir.join(id.file_name());
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match store.read_chunk(id) {
            Err(UeiError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn decode_chunk_rejects_another_chunks_bytes() {
        let dir = temp_dir("wrongid");
        let tracker = DiskTracker::new(IoProfile::instant());
        let store = ColumnStore::create(
            dir.path(),
            schema2(),
            &make_rows(100),
            StoreConfig { chunk_target_bytes: 128 },
            tracker,
        )
        .unwrap();
        let (a, b) = (store.manifest().dims[0][0].id(), store.manifest().dims[0][1].id());
        // A healthy file in the wrong place passes both CRCs; only the id
        // inside it says it is not the chunk that was asked for.
        let bytes_b = store.read_chunk_bytes(b).unwrap();
        assert!(store.decode_chunk(b, &bytes_b).is_ok());
        assert!(matches!(store.decode_chunk(a, &bytes_b), Err(UeiError::Corrupt { .. })));
    }

    #[test]
    fn legacy_catalog_without_checksums_reads_identical_chunks() {
        let dir = temp_dir("legacycrc");
        let tracker = DiskTracker::new(IoProfile::instant());
        let store = ColumnStore::create(
            dir.path(),
            schema2(),
            &make_rows(300),
            StoreConfig { chunk_target_bytes: 128 },
            tracker.clone(),
        )
        .unwrap();
        // A catalog written before chunk CRCs existed records 0, which
        // skips catalog verification but must decode the same chunks.
        let mut manifest = store.manifest().clone();
        for meta in manifest.dims.iter_mut().flatten() {
            meta.crc32 = 0;
        }
        manifest.save(dir.path(), &tracker).unwrap();
        let legacy = ColumnStore::open(dir.path(), tracker).unwrap();
        for meta in store.manifest().dims.iter().flatten() {
            assert_eq!(legacy.read_chunk(meta.id()).unwrap(), store.read_chunk(meta.id()).unwrap());
        }
    }

    #[test]
    fn read_unknown_chunk_is_not_found() {
        let dir = temp_dir("missing");
        let rows = make_rows(10);
        let tracker = DiskTracker::new(IoProfile::instant());
        let store =
            ColumnStore::create(dir.path(), schema2(), &rows, StoreConfig::default(), tracker)
                .unwrap();
        match store.read_chunk(ChunkId::new(0, 999)) {
            Err(UeiError::NotFound { .. }) => {}
            other => panic!("expected NotFound, got {other:?}"),
        }
    }

    #[test]
    fn verify_passes_on_healthy_store() {
        let dir = temp_dir("verify-ok");
        let rows = make_rows(400);
        let tracker = DiskTracker::new(IoProfile::instant());
        let store = ColumnStore::create(
            dir.path(),
            schema2(),
            &rows,
            StoreConfig { chunk_target_bytes: 256 },
            tracker,
        )
        .unwrap();
        let report = store.verify().unwrap();
        assert_eq!(report.dims, 2);
        assert_eq!(report.rows, 400);
        assert_eq!(report.chunks_per_dim.len(), 2);
        assert!(report.chunks_per_dim.iter().all(|&c| c > 1));
    }

    #[test]
    fn verify_catches_chunk_tampering() {
        let dir = temp_dir("verify-bad");
        let rows = make_rows(300);
        let tracker = DiskTracker::new(IoProfile::instant());
        let store = ColumnStore::create(
            dir.path(),
            schema2(),
            &rows,
            StoreConfig { chunk_target_bytes: 256 },
            tracker,
        )
        .unwrap();
        // Rewrite a chunk file with a valid chunk that drops one posting:
        // the CRC is fine, but coverage breaks.
        let meta = store.manifest().dims[0][0].clone();
        let chunk = store.read_chunk(meta.id()).unwrap();
        let forged =
            Chunk::from_postings(meta.id(), chunk.postings(0..chunk.num_entries() - 1)).unwrap();
        std::fs::write(dir.join(meta.id().file_name()), forged.encode()).unwrap();
        match store.verify() {
            Err(UeiError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn verify_catches_truncated_rows_file() {
        let dir = temp_dir("verify-rows");
        let rows = make_rows(200);
        let tracker = DiskTracker::new(IoProfile::instant());
        let store =
            ColumnStore::create(dir.path(), schema2(), &rows, StoreConfig::default(), tracker)
                .unwrap();
        let path = dir.join(ROWS_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 8]).unwrap();
        assert!(store.verify().is_err());
    }

    #[test]
    fn empty_dataset_store() {
        let dir = temp_dir("empty");
        let tracker = DiskTracker::new(IoProfile::instant());
        let store =
            ColumnStore::create(dir.path(), schema2(), &[], StoreConfig::default(), tracker)
                .unwrap();
        assert_eq!(store.num_rows(), 0);
        assert_eq!(store.manifest().total_chunks(), 0);
        let mut count = 0;
        store.scan_all(|_| count += 1).unwrap();
        assert_eq!(count, 0);
    }
}
