//! # fup-core — incremental maintenance of discovered association rules
//!
//! Implementation of **FUP** (Fast UPdate), the algorithm of
//! Cheung, Han, Ng & Wong, *"Maintenance of Discovered Association Rules in
//! Large Databases: An Incremental Updating Technique"* (ICDE 1996), plus
//! the FUP2 extension for deletions the paper's §5 announces.
//!
//! Given a database `DB`, its large itemsets `L` *with support counts*, and
//! an increment `db` of new transactions, [`fup::Fup`] computes the large
//! itemsets `L'` of `DB ∪ db` while scanning the small increment for the
//! old itemsets and only a heavily-pruned candidate pool against `DB`:
//!
//! * old large itemsets are confirmed or filtered out ("losers") with a
//!   scan of `db` alone (Lemmas 1/4),
//! * losers propagate upward without any scan (Lemma 3),
//! * a new itemset can only emerge if it is large *inside the increment*,
//!   so candidates are pruned by their `db` support before the expensive
//!   `DB` scan (Lemmas 2/5),
//! * the scanned data shrinks every iteration via the `Reduce-db` /
//!   `Reduce-DB` trimming and the P-set optimisation (§3.4),
//! * DHP-style pair hashing over the increment further thins the size-2
//!   candidates (§3.4, last paragraph).
//!
//! [`fup::Fup2`] takes a delete side as well
//! (`DB' = (DB − db⁻) ∪ db⁺`). Both are fronts of **one** round loop,
//! stated once in the [`fup`] module docs: FUP is its `db⁻ = ∅` case.
//!
//! The high-level entry point is the session-oriented
//! [`session::Maintainer`]: built once through a validating
//! [`builder`](session::Maintainer::builder), it accumulates update
//! batches with [`stage`](session::Maintainer::stage), applies everything
//! staged as one FUP/FUP2 round with
//! [`commit`](session::Maintainer::commit), serves reads through cheap
//! version-stamped [`session::RuleSnapshot`]s, and keeps a persistent
//! [`VerticalIndex`](fup_mining::VerticalIndex) alive across rounds (see
//! [`vindex`]). Sessions can be made crash-safe with a write-ahead log and
//! periodic checkpoints (see [`durable`]), recovering to exactly the last
//! durably-acknowledged commit after a kill at any point.
//!
//! ```
//! use fup_core::Maintainer;
//! use fup_mining::{MinConfidence, MinSupport};
//! use fup_tidb::{Transaction, UpdateBatch};
//!
//! let history = vec![
//!     Transaction::from_items([1u32, 2, 3]),
//!     Transaction::from_items([1u32, 2]),
//!     Transaction::from_items([2u32, 3]),
//! ];
//! let mut m = Maintainer::builder()
//!     .min_support(MinSupport::percent(50))
//!     .min_confidence(MinConfidence::percent(80))
//!     .build(history)
//!     .unwrap();
//! m.stage(UpdateBatch::insert_only(vec![
//!     Transaction::from_items([1u32, 3]),
//! ]))
//! .unwrap();
//! let report = m.commit().unwrap();
//! assert_eq!(report.num_transactions, 4);
//! assert_eq!(m.snapshot().version(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod cluster;
pub mod config;
pub mod diff;
pub mod durable;
pub mod error;
pub mod fup;
pub mod policy;
pub mod reduce;
pub mod service;
pub mod session;
mod supports;
pub mod vindex;

pub use cluster::{Cluster, ShardWorker, WorkerProbe};
pub use config::FupConfig;
pub use diff::{ItemsetDiff, RuleDiff};
pub use durable::{DurabilityPolicy, LogState, RecoveryReport, RetryPolicy};
pub use error::{BuildError, Error, Result};
pub use fup::{Fup, Fup2, FupOutcome, FupPassDetail};
pub use policy::UpdatePolicy;
pub use service::{
    CommitPolicy, HealthReport, HealthState, MaintainerService, ServiceError, ServiceHealth,
    ServiceMetrics, ShardHealth,
};
pub use session::{
    IndexStats, Maintainer, MaintainerBuilder, MaintenanceReport, RuleSnapshot, StageHandle,
};
pub use vindex::IndexSlot;
