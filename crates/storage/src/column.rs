//! Vertical decomposition of row data into sorted inverted columns.
//!
//! Implements Algorithm 2 lines 2–4 of the paper: for each dimension,
//! collect `(value, row-id)` pairs, sort ascending, and group equal values
//! into posting lists (`<key, {values}>` with object ids as the values,
//! Figure 2).

use std::ops::Range;

use uei_types::codec::varint_len;
use uei_types::{DataPoint, Result, UeiError};

use crate::chunk::{Chunk, ChunkId};

/// One fully decomposed, sorted, grouped dimension, held flat: entry `e`
/// is the key `keys[e]` with the ascending row ids
/// `ids[offsets[e]..offsets[e + 1]]`. Only [`vertical_decompose`] builds
/// one, so keys are strictly ascending and never NaN.
#[derive(Debug, Clone, PartialEq)]
pub struct InvertedColumn {
    /// Dimension index this column came from.
    pub dim: usize,
    keys: Vec<f64>,
    offsets: Vec<usize>,
    ids: Vec<u64>,
}

impl InvertedColumn {
    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        self.keys.len()
    }

    /// The `(key, ids)` posting lists of a run of entries, ascending by key.
    pub fn postings(&self, entries: Range<usize>) -> impl Iterator<Item = (f64, &[u64])> {
        entries.map(move |e| (self.keys[e], &self.ids[self.offsets[e]..self.offsets[e + 1]]))
    }

    /// The column cut into chunks of at least `target_bytes` of payload
    /// each (see [`split_into_chunks`]), in sequence order.
    pub fn chunks(&self, target_bytes: usize) -> impl Iterator<Item = Result<Chunk>> + '_ {
        split_into_chunks(self, target_bytes).into_iter().enumerate().map(|(seq, entries)| {
            Chunk::from_postings(ChunkId::new(self.dim as u32, seq as u32), self.postings(entries))
        })
    }
}

/// Vertically decomposes `rows` into one [`InvertedColumn`] per dimension.
///
/// Every row must have exactly `dims` values and NaN values are rejected
/// (they cannot be ordered, so they cannot live in a sorted inverted
/// column). Row ids must be unique; duplicates are rejected because posting
/// lists require strictly ascending ids.
pub fn vertical_decompose(rows: &[DataPoint], dims: usize) -> Result<Vec<InvertedColumn>> {
    if let Some(row) = rows.iter().find(|row| row.values.len() != dims) {
        return Err(UeiError::DimensionMismatch { expected: dims, actual: row.values.len() });
    }
    (0..dims).map(|dim| decompose_dimension(rows, dim)).collect()
}

/// One dimension of [`vertical_decompose`]; only this dimension's
/// `(value, id)` pairs are in memory while it runs.
fn decompose_dimension(rows: &[DataPoint], dim: usize) -> Result<InvertedColumn> {
    let mut col: Vec<(f64, u64)> =
        rows.iter().map(|row| (row.values[dim], row.id.as_u64())).collect();
    if let Some(&(_, id)) = col.iter().find(|pair| pair.0.is_nan()) {
        return Err(UeiError::corrupt(format!("row {id} has NaN in dimension {dim}")));
    }
    // Sort by (value, id): ids within each posting list come out ascending
    // for free, which the delta encoder requires.
    col.sort_unstable_by(|a, b| {
        a.0.partial_cmp(&b.0).expect("NaN rejected above").then(a.1.cmp(&b.1))
    });
    if let Some(w) = col.windows(2).find(|w| w[0] == w[1]) {
        return Err(UeiError::corrupt(format!("duplicate row id {} in dimension {dim}", w[0].1)));
    }
    // The sorted pairs *are* the flat column: ids in order, a new key (and
    // offset) wherever the value changes.
    let mut keys: Vec<f64> = Vec::new();
    let mut offsets = Vec::new();
    for (i, &(value, _)) in col.iter().enumerate() {
        if keys.last() != Some(&value) {
            keys.push(value);
            offsets.push(i);
        }
    }
    offsets.push(col.len());
    let ids = col.into_iter().map(|(_, id)| id).collect();
    Ok(InvertedColumn { dim, keys, offsets, ids })
}

/// Splits a column's posting lists into chunk-sized runs of entries.
///
/// Each run's *encoded payload* is at least `target_bytes` (except possibly
/// the final run), matching the paper's equal-sized chunk files ("the size
/// of each chunk can be adjusted based on the size of the data and the
/// available hardware resources"). A posting list is never split across
/// chunks, preserving the invariant that chunk key ranges are disjoint.
pub fn split_into_chunks(column: &InvertedColumn, target_bytes: usize) -> Vec<Range<usize>> {
    let mut runs = Vec::new();
    let mut start = 0;
    let mut current_bytes = 0usize;
    for (e, (_, ids)) in column.postings(0..column.num_keys()).enumerate() {
        current_bytes += posting_encoded_len(ids);
        if current_bytes >= target_bytes {
            runs.push(start..e + 1);
            start = e + 1;
            current_bytes = 0;
        }
    }
    if start < column.num_keys() {
        runs.push(start..column.num_keys());
    }
    runs
}

/// Bytes one posting list takes in a chunk file (see the layout in
/// [`crate::chunk`]): key, id count, first id, then the gaps.
fn posting_encoded_len(ids: &[u64]) -> usize {
    let gaps: usize = ids.windows(2).map(|w| varint_len(w[1] - w[0])).sum();
    8 + varint_len(ids.len() as u64) + ids.first().map_or(0, |&id| varint_len(id)) + gaps
}

#[cfg(test)]
mod tests {
    use super::*;
    use uei_types::DataPoint;

    fn rows() -> Vec<DataPoint> {
        vec![
            DataPoint::new(0u64, vec![3.0, 10.0]),
            DataPoint::new(1u64, vec![1.0, 10.0]),
            DataPoint::new(2u64, vec![3.0, 30.0]),
            DataPoint::new(3u64, vec![2.0, 20.0]),
        ]
    }

    /// A column of `n` single-id postings: key `i`, id `i`.
    fn unit_column(n: usize) -> InvertedColumn {
        let rows: Vec<DataPoint> =
            (0..n).map(|i| DataPoint::new(i as u64, vec![i as f64])).collect();
        vertical_decompose(&rows, 1).unwrap().remove(0)
    }

    fn keys_of(column: &InvertedColumn, entries: Range<usize>) -> Vec<f64> {
        column.postings(entries).map(|(k, _)| k).collect()
    }

    #[test]
    fn decompose_sorts_and_groups() {
        let cols = vertical_decompose(&rows(), 2).unwrap();
        assert_eq!(cols.len(), 2);

        let lists: Vec<(f64, &[u64])> = cols[0].postings(0..3).collect();
        // Value 3.0 appears in rows 0 and 2; ids must be ascending.
        assert_eq!(lists, vec![(1.0, &[1][..]), (2.0, &[3]), (3.0, &[0, 2])]);

        let lists: Vec<(f64, &[u64])> = cols[1].postings(0..3).collect();
        assert_eq!(lists, vec![(10.0, &[0, 1][..]), (20.0, &[3]), (30.0, &[2])]);
    }

    #[test]
    fn decompose_preserves_row_count() {
        let cols = vertical_decompose(&rows(), 2).unwrap();
        for c in &cols {
            assert_eq!(c.postings(0..c.num_keys()).map(|(_, ids)| ids.len()).sum::<usize>(), 4);
        }
        assert_eq!(cols[0].num_keys(), 3);
    }

    #[test]
    fn decompose_rejects_bad_rows() {
        let bad_dims = vec![DataPoint::new(0u64, vec![1.0])];
        assert!(vertical_decompose(&bad_dims, 2).is_err());

        let nan = vec![DataPoint::new(0u64, vec![1.0, f64::NAN])];
        assert!(vertical_decompose(&nan, 2).is_err());

        let dup_ids =
            vec![DataPoint::new(7u64, vec![1.0, 1.0]), DataPoint::new(7u64, vec![1.0, 2.0])];
        assert!(vertical_decompose(&dup_ids, 2).is_err());
    }

    #[test]
    fn decompose_empty_dataset() {
        let cols = vertical_decompose(&[], 3).unwrap();
        assert_eq!(cols.len(), 3);
        assert!(cols.iter().all(|c| c.num_keys() == 0 && c.ids.is_empty()));
    }

    #[test]
    fn split_respects_target_and_order() {
        let column = unit_column(100);
        let per_list = posting_encoded_len(&[50]);
        let runs = split_into_chunks(&column, per_list * 10);
        assert!(runs.len() > 1);
        // All postings survive, in order.
        let flat: Vec<f64> = runs.iter().flat_map(|r| keys_of(&column, r.clone())).collect();
        assert_eq!(flat, (0..100).map(|i| i as f64).collect::<Vec<_>>());
        // Every run except the last hits the target.
        for run in &runs[..runs.len() - 1] {
            let bytes: usize =
                column.postings(run.clone()).map(|(_, ids)| posting_encoded_len(ids)).sum();
            assert!(bytes >= per_list * 10);
        }
    }

    #[test]
    fn split_single_giant_target_yields_one_chunk() {
        assert_eq!(split_into_chunks(&unit_column(1), usize::MAX), vec![0..1]);
    }

    #[test]
    fn split_tiny_target_yields_one_chunk_per_list() {
        let runs = split_into_chunks(&unit_column(10), 1);
        assert_eq!(runs, (0..10).map(|e| e..e + 1).collect::<Vec<_>>());
    }

    #[test]
    fn split_empty_column() {
        assert!(split_into_chunks(&unit_column(0), 100).is_empty());
    }

    /// The arithmetic length the splitter adds up is the length the chunk
    /// encoder actually writes, for any list shape.
    #[test]
    fn posting_encoded_len_equals_encoded_payload() {
        // magic + dim + seq + entries + crc around the payload.
        const FRAME: usize = 8 + 4 + 4 + 4 + 4;
        let mut rng = uei_types::Rng::new(0x5EED);
        for case in 0..200 {
            let len = 1 + rng.below_usize(300);
            // Gaps from 1 to 2^63 / len keep the last id within u64.
            let max_gap_bits = rng.below(63 - 9) as u32 + 1;
            let mut ids = Vec::with_capacity(len);
            let mut id = rng.below(1 << max_gap_bits);
            for _ in 0..len {
                ids.push(id);
                id += 1 + rng.below(1 << max_gap_bits);
            }
            let chunk =
                Chunk::from_postings(ChunkId::new(0, 0), [(case as f64, &ids[..])]).unwrap();
            assert_eq!(posting_encoded_len(&ids), chunk.encode().len() - FRAME, "case {case}");
        }
        let wide = [0, 1 << 62, 1 << 63, u64::MAX];
        let chunk = Chunk::from_postings(ChunkId::new(0, 0), [(0.0, &wide[..])]).unwrap();
        assert_eq!(posting_encoded_len(&wide), chunk.encode().len() - FRAME);
    }

    #[test]
    fn chunks_cut_the_column_in_sequence() {
        let cols = vertical_decompose(&rows(), 2).unwrap();
        // A one-byte target closes a chunk after every posting list.
        let chunks: Vec<Chunk> = cols[1].chunks(1).collect::<Result<_>>().unwrap();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[2].id, ChunkId::new(1, 2));
        assert_eq!(chunks[2].postings(0..1).collect::<Vec<_>>(), vec![(30.0, &[2][..])]);
        let whole: Vec<Chunk> = cols[1].chunks(usize::MAX).collect::<Result<_>>().unwrap();
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0].num_ids(), 4);
    }
}
