//! The on-disk chunk file format.
//!
//! UEI "splits the distinct values of each dimension d into a set of
//! equal-sized data chunks, where each chunk will be stored as a separate
//! file on the disk" (§3.1). A chunk holds a run of consecutive posting
//! lists of one dimension; across chunks of a dimension the key ranges are
//! disjoint and ascending ("values stored in each subsequent chunk will be
//! larger than the values that have been stored" before it).
//!
//! ## Layout
//!
//! ```text
//! magic    8 bytes  "UEICHNK1"
//! dim      u32      dimension index
//! chunk    u32      chunk id within the dimension
//! entries  u32      number of posting lists
//! payload  entries × posting list
//! crc      u32      CRC-32 of everything above
//! ```
//!
//! A posting list is the paper's `<key, {row-ids}>` unit (§3.1, Figure 2):
//! each distinct value of the dimension becomes a *key* and the ids of the
//! objects holding that value become its list. It is persisted as the key
//! (raw `f64`), the id count (varint), the first id (varint) and then the
//! gaps between consecutive ids (varints; ids are strictly ascending, so
//! every gap is positive).
//!
//! In memory a chunk is struct-of-arrays — all keys, one offset per key
//! into one flat id array — so decoding performs three allocations however
//! many postings the file holds, and the ids of any run of consecutive
//! keys are one contiguous slice.

use std::ops::Range;

use uei_types::codec::{Reader, Writer};
use uei_types::{Result, UeiError};

use crate::checksum::crc32;

/// File-format magic for chunk files.
pub const CHUNK_MAGIC: &[u8; 8] = b"UEICHNK1";

/// Identifies a chunk: `(dimension, position within the dimension)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkId {
    /// Dimension (attribute) index.
    pub dim: u32,
    /// Ordinal of the chunk within the dimension (0-based; key ranges
    /// ascend with this ordinal).
    pub seq: u32,
}

impl ChunkId {
    /// Creates a chunk id.
    pub fn new(dim: u32, seq: u32) -> Self {
        ChunkId { dim, seq }
    }

    /// Canonical file name of this chunk inside a store directory.
    pub fn file_name(&self) -> String {
        format!("d{:03}_c{:06}.uei", self.dim, self.seq)
    }
}

impl std::fmt::Display for ChunkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}c{}", self.dim, self.seq)
    }
}

/// An in-memory chunk: a run of ascending-key posting lists of one dimension.
///
/// Invariants, established by [`Chunk::from_postings`] and [`Chunk::decode`]
/// and protected by the private fields: at least one key; keys strictly
/// ascending and never NaN; `offsets.len() == keys.len() + 1`, starting at
/// 0, strictly increasing (no empty list) and ending at `ids.len()`; the
/// ids of each list strictly ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    /// Chunk identity.
    pub id: ChunkId,
    keys: Vec<f64>,
    /// Entry `e`'s ids are `ids[offsets[e]..offsets[e + 1]]`.
    offsets: Vec<u32>,
    ids: Vec<u64>,
}

impl Chunk {
    /// Creates a chunk from `(key, ids)` posting lists, validating every
    /// invariant of the type.
    pub fn from_postings<'a>(
        id: ChunkId,
        postings: impl IntoIterator<Item = (f64, &'a [u64])>,
    ) -> Result<Self> {
        let mut chunk = Chunk::with_capacity(id, 0);
        for (key, ids) in postings {
            chunk.push_key(key)?;
            if ids.windows(2).any(|w| w[1] <= w[0]) {
                return Err(UeiError::corrupt("posting ids not strictly ascending"));
            }
            chunk.ids.extend_from_slice(ids);
            chunk.close_entry()?;
        }
        chunk.finish()
    }

    /// An empty chunk under construction with room for `entries` one-id
    /// lists (continuous columns hold exactly that, so decode usually
    /// allocates three times).
    fn with_capacity(id: ChunkId, entries: usize) -> Self {
        let mut offsets = Vec::with_capacity(entries + 1);
        offsets.push(0);
        Chunk { id, keys: Vec::with_capacity(entries), offsets, ids: Vec::with_capacity(entries) }
    }

    /// Appends `key`, which must not be NaN and must exceed the last key.
    fn push_key(&mut self, key: f64) -> Result<()> {
        if key.is_nan() || self.keys.last().is_some_and(|&last| key <= last) {
            let why = format!("chunk {}: key {key} is NaN or not above the previous key", self.id);
            return Err(UeiError::corrupt(why));
        }
        self.keys.push(key);
        Ok(())
    }

    /// Records the end of the current entry's ids, which must be non-empty
    /// and must keep the id count addressable by a `u32` offset.
    fn close_entry(&mut self) -> Result<()> {
        let end = u32::try_from(self.ids.len())
            .map_err(|_| UeiError::corrupt(format!("chunk {} holds over 2^32 ids", self.id)))?;
        if self.offsets.last() == Some(&end) {
            return Err(UeiError::corrupt("posting list must not be empty"));
        }
        self.offsets.push(end);
        Ok(())
    }

    fn finish(mut self) -> Result<Self> {
        if self.keys.is_empty() {
            return Err(UeiError::corrupt(format!("chunk {} has no entries", self.id)));
        }
        self.ids.shrink_to_fit();
        Ok(self)
    }

    /// Smallest key stored in the chunk.
    pub fn min_key(&self) -> f64 {
        self.keys[0]
    }

    /// Largest key stored in the chunk.
    pub fn max_key(&self) -> f64 {
        self.keys[self.keys.len() - 1]
    }

    /// Number of posting lists.
    pub fn num_entries(&self) -> usize {
        self.keys.len()
    }

    /// Total number of row ids across all posting lists.
    pub fn num_ids(&self) -> usize {
        self.ids.len()
    }

    /// The entries whose key falls in `[lo, hi)` (or `[lo, hi]` when
    /// `inclusive_hi`), located by binary search over the sorted keys.
    pub fn entry_range(&self, lo: f64, hi: f64, inclusive_hi: bool) -> Range<usize> {
        let start = self.keys.partition_point(|&k| k < lo);
        let len =
            self.keys[start..].partition_point(|&k| if inclusive_hi { k <= hi } else { k < hi });
        start..start + len
    }

    /// Every row id posted under the given run of entries, as one slice
    /// (ascending within each entry, not across entries).
    pub fn ids_in(&self, entries: Range<usize>) -> &[u64] {
        &self.ids[self.offsets[entries.start] as usize..self.offsets[entries.end] as usize]
    }

    /// The `(key, ids)` posting lists of the given run of entries, in
    /// ascending key order.
    pub fn postings(&self, entries: Range<usize>) -> impl Iterator<Item = (f64, &[u64])> {
        entries.map(move |e| (self.keys[e], self.ids_in(e..e + 1)))
    }

    /// Serializes the chunk to its file representation.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64 + self.keys.len() * 10 + self.ids.len() * 2);
        w.write_bytes(CHUNK_MAGIC);
        w.write_u32(self.id.dim);
        w.write_u32(self.id.seq);
        w.write_u32(self.keys.len() as u32);
        for (key, ids) in self.postings(0..self.keys.len()) {
            w.write_f64(key);
            w.write_varint(ids.len() as u64);
            let mut prev = 0;
            for &id in ids {
                w.write_varint(id - prev);
                prev = id;
            }
        }
        let crc = crc32(w.as_bytes());
        w.write_u32(crc);
        w.into_bytes()
    }

    /// Parses and validates a chunk file image in one pass.
    pub fn decode(bytes: &[u8]) -> Result<Chunk> {
        if bytes.len() < CHUNK_MAGIC.len() + 4 * 3 + 4 {
            return Err(UeiError::corrupt(format!("chunk file too small: {} bytes", bytes.len())));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored_crc = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte split"));
        let actual_crc = crc32(body);
        if stored_crc != actual_crc {
            return Err(UeiError::corrupt(format!(
                "chunk crc mismatch: stored {stored_crc:#x}, computed {actual_crc:#x}"
            )));
        }
        let mut r = Reader::new(body);
        let magic = r.read_bytes(CHUNK_MAGIC.len())?;
        if magic != CHUNK_MAGIC {
            return Err(UeiError::corrupt("bad chunk magic"));
        }
        let dim = r.read_u32()?;
        let seq = r.read_u32()?;
        let n = r.read_u32()? as usize;
        // A corrupt count must not size an allocation: an entry takes at
        // least 10 bytes (key, count, one id), so the payload bounds it.
        // List lengths never size one: ids are pushed as their bytes are
        // consumed.
        let mut chunk = Chunk::with_capacity(ChunkId::new(dim, seq), n.min(r.remaining() / 10));
        for _ in 0..n {
            chunk.push_key(r.read_f64()?)?;
            let len = r.read_varint()?;
            if len == 0 {
                return Err(UeiError::corrupt("decoded posting list is empty"));
            }
            let mut id = r.read_varint()?;
            chunk.ids.push(id);
            for _ in 1..len {
                let gap = r.read_varint()?;
                if gap == 0 {
                    return Err(UeiError::corrupt("decoded posting list not ascending"));
                }
                id = id.checked_add(gap).ok_or_else(|| UeiError::corrupt("posting id overflow"))?;
                chunk.ids.push(id);
            }
            chunk.close_entry()?;
        }
        if !r.is_empty() {
            return Err(UeiError::corrupt(format!("chunk has {} trailing bytes", r.remaining())));
        }
        chunk.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_chunk() -> Chunk {
        Chunk::from_postings(
            ChunkId::new(2, 7),
            [(-5.0, &[3, 9][..]), (0.0, &[1]), (4.5, &[2, 4, 6]), (9.0, &[0])],
        )
        .unwrap()
    }

    /// `sample_chunk().encode()` as captured from the encoder at commit
    /// 12fdd3e, before the in-memory layout went flat: the file format is
    /// independent of it.
    const SAMPLE_BYTES: [u8; 67] = [
        85, 69, 73, 67, 72, 78, 75, 49, 2, 0, 0, 0, 7, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 20,
        192, 2, 3, 6, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 18, 64, 3, 2, 2, 2, 0, 0, 0,
        0, 0, 0, 34, 64, 1, 0, 253, 165, 37, 62,
    ];

    /// Encodes a chunk image from raw posting fields *without* validation
    /// and stamps a correct trailer CRC, so structural checks are reached.
    fn forge(entries_field: u32, postings: &[(f64, u64, &[u64])], tail: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        w.write_bytes(CHUNK_MAGIC);
        w.write_u32(2);
        w.write_u32(7);
        w.write_u32(entries_field);
        for &(key, len, varints) in postings {
            w.write_f64(key);
            w.write_varint(len);
            for &v in varints {
                w.write_varint(v);
            }
        }
        w.write_bytes(tail);
        let crc = crc32(w.as_bytes());
        w.write_u32(crc);
        w.into_bytes()
    }

    fn assert_corrupt(bytes: &[u8], what: &str) {
        match Chunk::decode(bytes) {
            Err(UeiError::Corrupt { .. }) => {}
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn validation() {
        let id = ChunkId::new(0, 0);
        assert!(Chunk::from_postings(id, []).is_err(), "no entries");
        assert!(Chunk::from_postings(id, [(2.0, &[1][..]), (1.0, &[2])]).is_err(), "descending");
        assert!(Chunk::from_postings(id, [(1.0, &[1][..]), (1.0, &[2])]).is_err(), "duplicate key");
        assert!(Chunk::from_postings(id, [(1.0, &[][..])]).is_err(), "empty list");
        assert!(Chunk::from_postings(id, [(f64::NAN, &[1][..])]).is_err(), "NaN key");
        assert!(Chunk::from_postings(id, [(1.0, &[3, 3][..])]).is_err(), "repeated id");
        assert!(Chunk::from_postings(id, [(1.0, &[3, 2][..])]).is_err(), "descending ids");
        assert!(
            Chunk::from_postings(id, [(f64::NEG_INFINITY, &[0][..]), (1.0, &[1, 2, 3])]).is_ok()
        );
    }

    #[test]
    fn accessors() {
        let c = sample_chunk();
        assert_eq!(c.min_key(), -5.0);
        assert_eq!(c.max_key(), 9.0);
        assert_eq!(c.num_entries(), 4);
        assert_eq!(c.num_ids(), 7);
        assert_eq!(c.id.file_name(), "d002_c000007.uei");
        assert_eq!(c.ids_in(0..4), &[3, 9, 1, 2, 4, 6, 0]);
        assert_eq!(c.ids_in(2..2), &[] as &[u64]);
        let lists: Vec<(f64, &[u64])> = c.postings(1..3).collect();
        assert_eq!(lists, vec![(0.0, &[1][..]), (4.5, &[2, 4, 6])]);
    }

    #[test]
    fn encode_matches_the_parent_format_and_round_trips() {
        let c = sample_chunk();
        assert_eq!(c.encode(), SAMPLE_BYTES);
        assert_eq!(Chunk::decode(&SAMPLE_BYTES).unwrap(), c);
        assert_eq!(
            forge(
                4,
                &[(-5.0, 2, &[3, 6]), (0.0, 1, &[1]), (4.5, 3, &[2, 2, 2]), (9.0, 1, &[0])],
                &[]
            ),
            SAMPLE_BYTES,
            "the forging helper writes the real format"
        );
    }

    #[test]
    fn ids_near_u64_max_round_trip() {
        let big = [0, 1 << 63, u64::MAX - 1, u64::MAX];
        let c = Chunk::from_postings(ChunkId::new(0, 0), [(1.0, &big[..])]).unwrap();
        assert_eq!(Chunk::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut bytes = sample_chunk().encode();
        bytes[0] ^= 0xFF;
        assert_corrupt(&bytes, "flipped magic, stale crc");
        // With the CRC re-stamped the magic check itself must fire.
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
        assert_corrupt(&bytes, "flipped magic, valid crc");
    }

    #[test]
    fn decode_rejects_bit_flip_anywhere() {
        let bytes = sample_chunk().encode();
        for pos in 0..bytes.len() {
            let mut copy = bytes.clone();
            copy[pos] ^= 0x01;
            assert_corrupt(&copy, &format!("bit flip at {pos}"));
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = sample_chunk().encode();
        for cut in 0..bytes.len() {
            assert_corrupt(&bytes[..cut], &format!("truncation at {cut}"));
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        // Appending bytes invalidates the CRC position, so this must fail.
        let mut bytes = sample_chunk().encode();
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert_corrupt(&bytes, "appended bytes");
    }

    /// Each structural check on its own, on images whose trailer CRC is
    /// valid: removing any one check lets its image decode.
    #[test]
    fn decode_rejects_structurally_invalid_images_that_pass_the_crc() {
        assert!(Chunk::decode(&forge(1, &[(1.0, 2, &[5, 1])], &[])).is_ok(), "baseline is valid");
        assert_corrupt(&forge(0, &[], &[]), "no entries");
        assert_corrupt(&forge(1, &[(f64::NAN, 1, &[5])], &[]), "NaN key");
        assert_corrupt(&forge(2, &[(2.0, 1, &[5]), (1.0, 1, &[6])], &[]), "descending keys");
        assert_corrupt(&forge(2, &[(1.0, 1, &[5]), (1.0, 1, &[6])], &[]), "duplicate key");
        assert_corrupt(&forge(1, &[(1.0, 0, &[])], &[]), "empty list");
        assert_corrupt(&forge(1, &[(1.0, 2, &[5, 0])], &[]), "zero gap");
        assert_corrupt(&forge(1, &[(1.0, 2, &[u64::MAX, 1])], &[]), "id overflow");
        assert_corrupt(&forge(1, &[(1.0, 1, &[5])], &[0]), "trailing byte");
        assert_corrupt(&forge(2, &[(1.0, 1, &[5])], &[]), "entry count past the payload");
        assert_corrupt(&forge(1, &[(1.0, 3, &[5, 1])], &[]), "list length past the payload");
        assert_corrupt(&forge(u32::MAX, &[(1.0, 1, &[5])], &[]), "huge entry count");
        assert_corrupt(&forge(1, &[(1.0, u64::MAX, &[5, 1])], &[]), "huge list length");
    }

    #[test]
    fn entry_range_half_open() {
        let c = sample_chunk();
        assert_eq!(c.entry_range(0.0, 9.0, false), 1..3);
    }

    #[test]
    fn entry_range_inclusive() {
        let c = sample_chunk();
        assert_eq!(c.entry_range(0.0, 9.0, true), 1..4);
    }

    #[test]
    fn entry_range_outside_is_empty() {
        let c = sample_chunk();
        assert!(c.entry_range(100.0, 200.0, true).is_empty());
        assert!(c.entry_range(-100.0, -50.0, true).is_empty());
        assert!(c.entry_range(5.0, 1.0, true).is_empty(), "inverted bounds");
    }

    #[test]
    fn entry_range_full_cover() {
        let c = sample_chunk();
        let all = c.entry_range(f64::NEG_INFINITY, f64::INFINITY, false);
        assert_eq!(all, 0..c.num_entries());
        assert_eq!(c.ids_in(all).len(), c.num_ids());
    }
}
