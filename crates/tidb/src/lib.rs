//! # fup-tidb — transaction database substrate
//!
//! The FUP paper's algorithms (Apriori, DHP, FUP, FUP2) are *scan* algorithms
//! over a transaction database: every iteration reads either the increment
//! `db` or the original database `DB` end-to-end and counts candidate
//! itemsets inside each transaction. Their relative performance is governed
//! by (a) how many candidate sets each pass carries and (b) how much data
//! each pass scans. This crate provides the substrate that makes both
//! quantities observable:
//!
//! * [`ItemId`] / [`ItemDictionary`] — compact item identifiers with an
//!   optional string dictionary,
//! * [`Transaction`] — a sorted, duplicate-free set of items,
//! * [`TransactionDb`] — an in-memory transaction store,
//! * [`SegmentedDb`] — a store partitioned into a base database plus
//!   increments and decrements, modelling the paper's `DB`, `db⁺` and `db⁻`,
//! * [`codec`] / [`page`] — a varint binary codec and a 4 KiB-paged storage
//!   simulation so scans can be charged in bytes and pages, standing in for
//!   the paper's on-disk RS/6000 databases,
//! * [`wal`] / [`storage`] — an append-only, CRC32-framed write-ahead log
//!   over an injectable [`DurableStorage`] medium ([`DiskStorage`] for real
//!   directories, [`MemStorage`] with fault injection for crash tests) —
//!   the substrate of `fup_core`'s durable maintenance sessions,
//! * [`chunk`] — [`TxChunk`] views for the chunked scan API
//!   ([`TransactionSource::for_each_chunk`] and the
//!   [`TransactionSource::chunk`] cursor), which lets `fup_mining`'s
//!   counting engine scan one pass from many worker threads,
//! * [`ScanMetrics`] — per-source counters (full scans, transactions, items,
//!   bytes) used by the experiment harness.
//!
//! The paper ran against on-disk data; we substitute an in-memory paged
//! store with explicit scan accounting ([`page`]); the real-disk side —
//! WAL, checkpoints, recovery — is DESIGN_DURABILITY.md's.
//!
//! ## Quick example
//!
//! ```
//! use fup_tidb::{Transaction, TransactionDb, TransactionSource};
//!
//! let mut db = TransactionDb::new();
//! db.push(Transaction::from_items([1, 2, 3]));
//! db.push(Transaction::from_items([2, 3]));
//! assert_eq!(db.len(), 2);
//!
//! let mut with_2 = 0u64;
//! db.for_each(&mut |t: &[fup_tidb::ItemId]| {
//!     if t.binary_search(&fup_tidb::ItemId(2)).is_ok() {
//!         with_2 += 1;
//!     }
//! });
//! assert_eq!(with_2, 2);
//! assert_eq!(db.metrics().full_scans(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chunk;
pub mod codec;
pub mod database;
pub mod dictionary;
pub mod error;
pub mod io;
pub mod item;
pub mod page;
pub mod rpc;
pub mod scan;
pub mod segment;
pub mod shard;
pub mod source;
pub mod staging;
pub mod stats;
pub mod storage;
pub mod transaction;
pub mod wal;

pub use chunk::{ChunkScratch, TxChunk};
pub use database::TransactionDb;
pub use dictionary::ItemDictionary;
pub use error::{Error, FaultKind, Result};
pub use item::ItemId;
pub use rpc::{ChannelTransport, Message, Transport};
pub use scan::ScanMetrics;
pub use segment::{SegmentId, SegmentedDb, StagedUpdate, Tid, UpdateBatch};
pub use shard::{ShardSpec, ShardedDb, ShardedStaged, SpecError, TidRange};
pub use source::{SliceSource, TransactionSource};
pub use staging::{Admission, LiveTidView, StagingArea};
pub use storage::{DiskStorage, DurableStorage, FlakyStorage, MemStorage, OpClass};
pub use transaction::Transaction;
pub use wal::{WalRecord, WalScan};
