//! # uei-dbms
//!
//! A minimal MySQL-like row store: the DBMS baseline of the paper's
//! evaluation (§4). Existing active-learning IDE systems "operate on
//! main-memory databases" or sit on a standard DBMS; the paper's comparison
//! scheme stores the 10M-tuple dataset in MySQL and performs the exhaustive
//! per-iteration uncertainty scan through it, with the memory footprint
//! restricted to ~1 % of the data.
//!
//! What matters for the reproduction is the baseline's *access pattern*:
//! every uncertainty-sampling iteration reads effectively the whole table
//! through a buffer pool far smaller than the table, so each iteration
//! costs a full-table disk read. This crate reproduces that faithfully:
//!
//! - [`page`] — fixed-size slotted pages with CRC validation;
//! - [`heap`] — a heap file of pages with bulk append;
//! - [`buffer`] — an LRU buffer pool with a page budget, charging misses
//!   to the shared [`uei_storage::DiskTracker`] I/O model (sequential page
//!   misses cost bandwidth, random ones an extra seek);
//! - [`table`] — typed row storage (`row id` + `f64` attributes) on top of
//!   heap + buffer pool, with full-scan iteration;
//! - [`scan`] — the exhaustive most-uncertain-tuple search (Algorithm 1
//!   line 6, executed over the full table).

#![warn(missing_docs)]
// Lint policy: `!(a <= b)` comparisons are deliberate — they reject NaN as
// well as inverted bounds, which `a > b` would silently accept. Indexed
// loops that clippy flags as `needless_range_loop` walk several parallel
// arrays by dimension; the index form keeps that symmetry readable.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]

pub mod buffer;
pub mod heap;
pub mod page;
pub mod scan;
pub mod table;

pub use buffer::{BufferPool, BufferStats};
pub use heap::HeapFile;
pub use page::{Page, PageId, PAGE_SIZE};
pub use scan::{exhaustive_most_uncertain, ScanOutcome};
pub use table::Table;
