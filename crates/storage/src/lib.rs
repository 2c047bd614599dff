//! # uei-storage
//!
//! The secondary-storage engine of the UEI reproduction.
//!
//! The paper (§3.1) stores the exploration dataset `D` on disk in a *fully
//! inverted columnar format*: each dimension is vertically decomposed,
//! sorted ascending, compressed into `<key, {row-ids}>` posting lists, and
//! split into equal-size chunk files whose key ranges are disjoint and
//! sequential. This crate implements that store end to end:
//!
//! - [`io`] — an I/O accounting layer ([`io::DiskTracker`]) that both
//!   performs real file I/O and charges every read to a *modeled* disk
//!   ([`io::IoProfile`], default: the paper's 3.4 GB/s NVMe SSD) on a
//!   virtual clock. All experiment response times are reported from this
//!   model so that "dataset 100× larger than memory" can be reproduced on a
//!   laptop (see DESIGN.md §2, substitution 8);
//! - [`chunk`] — the on-disk chunk format (delta-encoded varint posting
//!   lists, CRC-32 protected) and its flat in-memory form;
//! - [`manifest`] — the per-dataset catalog of chunks and their key ranges;
//! - [`column`](mod@column) — vertical decomposition of row data into sorted postings;
//! - [`store`] — [`store::ColumnStore`]: creation (index-initialization
//!   phase, Algorithm 2 lines 2–6) and reading;
//! - [`merge`] — reconstruction of a subspace from its chunks (Algorithm 2
//!   line 19): the paper's hash-table merge as a row-id bitmap
//!   intersection;
//! - [`cache`] — byte-budgeted LRU chunk caching: the sharded,
//!   lock-striped [`cache::SharedChunkCache`] shared by the foreground
//!   loader, the background prefetcher, and every session of an engine
//!   (single-flight per chunk), and the per-session
//!   [`cache::SessionChunkView`] whose ghost ledger keeps per-session
//!   modeled I/O deterministic;
//! - [`source`](mod@source) — the [`source::ChunkSource`] trait the read path is
//!   programmed against, implemented by [`store::ColumnStore`] and by the
//!   in-memory [`source::MemChunkSource`] test double;
//! - [`lru`] — the generic LRU used by the chunk cache and by the
//!   `uei-dbms` buffer pool;
//! - [`fault`] — deterministic, seed-driven fault injection
//!   ([`fault::FaultInjector`]) for chunk/manifest reads and journal
//!   writes (torn appends, failed renames, fsync errors, armed kill
//!   points) plus the bounded exponential-backoff [`fault::RetryPolicy`],
//!   the storage half of the degradation ladder (DESIGN.md §8);
//! - [`journal`] — the durable per-session write-ahead journal
//!   ([`journal::SessionJournal`]): CRC-framed records, atomic segment
//!   rotation, snapshots, and crash recovery (DESIGN.md §13);
//! - [`testutil`] — RAII temp directories for tests and benches.

#![warn(missing_docs)]
// Lint policy: `!(a <= b)` comparisons are deliberate — they reject NaN as
// well as inverted bounds, which `a > b` would silently accept. Indexed
// loops that clippy flags as `needless_range_loop` walk several parallel
// arrays by dimension; the index form keeps that symmetry readable.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]

pub mod cache;
pub mod checksum;
pub mod chunk;
pub mod column;
pub mod fault;
pub mod io;
pub mod journal;
pub mod lru;
pub mod manifest;
pub mod merge;
pub mod source;
pub mod store;
pub mod testutil;

pub use cache::{
    approx_chunk_bytes, CacheStats, SessionChunkView, SharedChunkCache, DEFAULT_CACHE_SHARDS,
};
pub use chunk::{Chunk, ChunkId};
pub use fault::{
    FaultConfig, FaultInjector, FaultStats, InjectedWriteFaults, KillMode, RetryPolicy,
};
pub use io::{DiskTracker, IoProfile, IoSnapshot, IoStats};
pub use journal::{FsyncPolicy, JournalConfig, JournalContents, SessionJournal};
pub use manifest::{ChunkMeta, Manifest};
pub use merge::{reconstruct_region, MergeStats, RegionChunkSet};
pub use source::{ChunkSource, MemChunkSource};
pub use store::{ColumnStore, StoreConfig};
pub use testutil::TempDir;
