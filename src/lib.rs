//! # fup — incremental maintenance of discovered association rules
//!
//! A complete Rust implementation of **FUP** (Cheung, Han, Ng & Wong,
//! *"Maintenance of Discovered Association Rules in Large Databases: An
//! Incremental Updating Technique"*, ICDE 1996), together with everything
//! it stands on: a transaction-database substrate, the Apriori and DHP
//! miners it is evaluated against, the IBM Quest-style synthetic workload
//! generator of its §4, and the FUP2 extension for deletions.
//!
//! This crate is a facade: it re-exports the public API of the four
//! underlying crates so an application can depend on `fup` alone.
//!
//! ## Quickstart
//!
//! Rule maintenance is a *session*: build a [`Maintainer`] once, stage
//! update batches as they arrive, commit them as one incremental round,
//! and serve lookups from version-stamped snapshots that later commits
//! never invalidate.
//!
//! ```
//! use fup::{Maintainer, MinConfidence, MinSupport, Transaction, UpdateBatch};
//!
//! // 1. Bootstrap from historical transactions (mined once, from scratch).
//! let history = vec![
//!     Transaction::from_items([1u32, 2, 3]),
//!     Transaction::from_items([1u32, 2]),
//!     Transaction::from_items([2u32, 3]),
//!     Transaction::from_items([1u32, 3]),
//! ];
//! let mut maintainer = Maintainer::builder()
//!     .min_support(MinSupport::percent(50))
//!     .min_confidence(MinConfidence::percent(70))
//!     .build(history)
//!     .expect("valid configuration");
//!
//! // 2. Serve reads from a snapshot — an Arc-backed, version-stamped view
//! //    that stays valid and consistent while updates proceed.
//! let snapshot = maintainer.snapshot();
//! assert_eq!(snapshot.version(), 0);
//!
//! // 3. New transactions arrive: stage them (arrival), then commit them
//! //    as one FUP round (application) — never re-mine from scratch.
//! maintainer
//!     .stage(UpdateBatch::insert_only(vec![
//!         Transaction::from_items([1u32, 2, 3]),
//!         Transaction::from_items([2u32, 3]),
//!     ]))
//!     .unwrap();
//! let report = maintainer.commit().unwrap();
//!
//! // 4. The report says exactly which rules the update created/killed...
//! println!(
//!     "v{}: +{} rules, -{} rules, {} retained",
//!     report.version,
//!     report.rules.added.len(),
//!     report.rules.removed.len(),
//!     report.rules.retained
//! );
//! assert_eq!(report.num_transactions, 6);
//!
//! // ...the old snapshot still reads its own version, and a fresh one
//! // answers serving-side queries without walking the raw rule set.
//! assert_eq!(snapshot.version(), 0);
//! let now = maintainer.snapshot();
//! assert_eq!(now.version(), 1);
//! let top = now.top_k_by_confidence(3);
//! assert!(top.len() <= 3);
//! ```
//!
//! ## Concurrent serving
//!
//! When updates arrive from many threads, wrap the session in a
//! [`MaintainerService`]: producers [`stage`](MaintainerService::stage)
//! batches concurrently through `&self` (sharded, lock-striped staging),
//! a background committer thread applies them as one FUP/FUP2 round per
//! [`CommitPolicy`] trigger (pending count, increment ratio, or explicit
//! [`flush`](MaintainerService::flush)), and a
//! [`snapshot`](MaintainerService::snapshot) read holds a read lock for
//! one `Arc` clone, so it is never blocked by a round in progress.
//!
//! ```
//! use fup::{CommitPolicy, Maintainer, MaintainerService};
//! use fup::{MinConfidence, MinSupport, Transaction, UpdateBatch};
//!
//! let maintainer = Maintainer::builder()
//!     .min_support(MinSupport::percent(50))
//!     .min_confidence(MinConfidence::percent(70))
//!     .build(vec![
//!         Transaction::from_items([1u32, 2]),
//!         Transaction::from_items([1u32, 2, 3]),
//!     ])
//!     .unwrap();
//! let service = MaintainerService::launch(maintainer, CommitPolicy::manual()).unwrap();
//! std::thread::scope(|scope| {
//!     for _ in 0..4 {
//!         scope.spawn(|| {
//!             service
//!                 .stage(UpdateBatch::insert_only(vec![
//!                     Transaction::from_items([2u32, 3]),
//!                 ]))
//!                 .unwrap();
//!         });
//!     }
//! });
//! let report = service.flush().unwrap();
//! assert_eq!(report.num_transactions, 6);
//! let (maintainer, _metrics) = service.shutdown();
//! assert_eq!(maintainer.len(), 6);
//! ```
//!
//! ## Serving under load
//!
//! Under sustained overload the service degrades predictably instead of
//! queueing without bound: [`CommitPolicy::staging_capacity`] caps the
//! staged backlog (producers choose their blocking behaviour per call —
//! [`try_stage`](MaintainerService::try_stage) fails fast with a typed
//! [`ServiceError::WouldBlock`],
//! [`stage_deadline`](MaintainerService::stage_deadline) waits up to a
//! deadline, plain [`stage`](MaintainerService::stage) rides the burst
//! out), and [`CommitPolicy::ops_per_round`] chunks an accumulated
//! backlog into bounded commit rounds so per-round latency — and with
//! it snapshot staleness — stays flat no matter how deep the burst was.
//! [`ServiceMetrics`] reports the backlog and round-size picture, and
//! [`round_latencies`](MaintainerService::round_latencies) serves the
//! per-round wall-clock series behind p50/p99 reporting.
//!
//! ```
//! use fup::{CommitPolicy, Maintainer, MaintainerService, ServiceError};
//! use fup::{MinConfidence, MinSupport, Transaction, UpdateBatch};
//!
//! let maintainer = Maintainer::builder()
//!     .min_support(MinSupport::percent(50))
//!     .min_confidence(MinConfidence::percent(70))
//!     .build(vec![
//!         Transaction::from_items([1u32, 2]),
//!         Transaction::from_items([1u32, 2, 3]),
//!     ])
//!     .unwrap();
//! // Admit at most 2 staged ops; drain in rounds of at most 1 op.
//! let policy = CommitPolicy::manual().staging_capacity(2).ops_per_round(1);
//! let service = MaintainerService::launch(maintainer, policy).unwrap();
//!
//! let batch = || UpdateBatch::insert_only(vec![Transaction::from_items([2u32, 3])]);
//! service.try_stage(batch()).unwrap();
//! service.try_stage(batch()).unwrap();
//!
//! // The gate is full: a third try_stage fails *now*, typed — the
//! // producer sheds or retries instead of queueing unboundedly.
//! match service.try_stage(batch()) {
//!     Err(ServiceError::WouldBlock { pending: 2, capacity: 2 }) => {}
//!     other => panic!("expected WouldBlock, got {other:?}"),
//! }
//!
//! // A flush drains the 2-op backlog in bounded 1-op rounds.
//! let report = service.flush().unwrap();
//! assert_eq!(report.version, 2);
//! let metrics = service.metrics();
//! assert_eq!(metrics.backpressure_rejections, 1);
//! assert_eq!(metrics.max_round_ops, 1);
//! assert_eq!(service.round_latencies().len(), 2);
//!
//! // With space freed, admission succeeds again.
//! service.try_stage(batch()).unwrap();
//! service.shutdown();
//! ```
//!
//! ## Durable serving
//!
//! A session built with
//! [`build_durable`](MaintainerBuilder::build_durable) survives crashes:
//! every staged batch is written to a CRC-framed write-ahead log before it
//! becomes visible, every commit is acknowledged with a logged boundary,
//! and a [`DurabilityPolicy`] drives periodic checkpoints that bound the
//! log replay. After a kill — at *any* point —
//! [`recover`](MaintainerBuilder::recover) rebuilds the session to
//! exactly its last durably-acknowledged commit, re-queues staged-but-
//! uncommitted batches, and reports what it did. Use [`DiskStorage`]
//! for a real directory, or [`MemStorage`] (with fault injection) in
//! tests.
//!
//! ```
//! use fup::core::DurabilityPolicy;
//! use fup::tidb::MemStorage;
//! use fup::{Maintainer, MinConfidence, MinSupport, Transaction, UpdateBatch};
//! use std::sync::Arc;
//!
//! let storage = Arc::new(MemStorage::new()); // or DiskStorage::open(dir)
//! let mut m = Maintainer::builder()
//!     .min_support(MinSupport::percent(50))
//!     .min_confidence(MinConfidence::percent(70))
//!     .durability(DurabilityPolicy::default())
//!     .build_durable(
//!         vec![
//!             Transaction::from_items([1u32, 2, 3]),
//!             Transaction::from_items([1u32, 2]),
//!         ],
//!         Arc::clone(&storage) as Arc<dyn fup::tidb::DurableStorage>,
//!     )
//!     .unwrap();
//! m.stage(UpdateBatch::insert_only(vec![
//!     Transaction::from_items([2u32, 3]),
//! ]))
//! .unwrap();
//! m.commit().unwrap(); // durably acknowledged once this returns
//!
//! // Simulate a crash: drop the session, keep only the storage bytes.
//! let image = Arc::new(MemStorage::from_files(storage.files()));
//! drop(m);
//! let (recovered, report) = Maintainer::builder()
//!     .min_support(MinSupport::percent(50))
//!     .min_confidence(MinConfidence::percent(70))
//!     .recover(image as Arc<dyn fup::tidb::DurableStorage>)
//!     .unwrap();
//! assert_eq!(recovered.version(), 1);
//! assert_eq!(report.version, 1);
//! assert_eq!(recovered.len(), 3);
//! ```
//!
//! ## Degraded serving
//!
//! A durable service heals itself where it can and degrades *typed*
//! where it cannot. Transient storage faults are absorbed by the
//! durable log's [`RetryPolicy`] (bounded attempts, exponential backoff,
//! deterministic jitter); a fault that outlives the budget closes
//! admissions — producers get [`ServiceError::Degraded`], never a hang —
//! while a background probe re-checks storage and reopens admissions on
//! heal, and a panicked committer is rebuilt from its own WAL up to
//! [`CommitPolicy::max_committer_restarts`] times. Permanent faults are
//! terminal ([`HealthState::Failed`]): the service keeps serving
//! snapshots and says why through
//! [`health`](MaintainerService::health).
//!
//! ```
//! use fup::tidb::{DurableStorage, MemStorage};
//! use fup::{CommitPolicy, DurabilityPolicy, HealthState, Maintainer, MaintainerService};
//! use fup::{MinConfidence, MinSupport, ServiceError, Transaction, UpdateBatch};
//! use std::sync::Arc;
//!
//! let storage = Arc::new(MemStorage::new());
//! let maintainer = Maintainer::builder()
//!     .min_support(MinSupport::percent(50))
//!     .min_confidence(MinConfidence::percent(70))
//!     .durability(DurabilityPolicy::default())
//!     .build_durable(
//!         vec![
//!             Transaction::from_items([1u32, 2, 3]),
//!             Transaction::from_items([1u32, 2]),
//!         ],
//!         Arc::clone(&storage) as Arc<dyn DurableStorage>,
//!     )
//!     .unwrap();
//! let service = MaintainerService::launch(maintainer, CommitPolicy::manual()).unwrap();
//!
//! // The disk dies — permanently, in this simulation: fsync always fails.
//! storage.set_fail_sync(true);
//!
//! // Producers get a typed refusal, never a hang...
//! let err = service
//!     .stage(UpdateBatch::insert_only(vec![
//!         Transaction::from_items([2u32, 3]),
//!     ]))
//!     .unwrap_err();
//! assert_eq!(err, ServiceError::Degraded);
//! // ...the health report says why...
//! assert_eq!(service.health().state, HealthState::Failed);
//! // ...and snapshots keep serving the last published state.
//! assert_eq!(service.snapshot().num_transactions(), 2);
//! let (maintainer, _metrics) = service.shutdown();
//! assert_eq!(maintainer.len(), 2);
//! ```
//!
//! ## Sharded serving
//!
//! A session's store is a [`ShardedDb`]: its live set is partitioned
//! into tid-range shards, one by default (`shards(1)`, the unsharded
//! store). [`MaintainerBuilder::shards`] asks for more, or [`ShardSpec`]
//! gives explicit routing. Support counts are additive over disjoint
//! tid ranges, so each shard counts its own slice and the merged result
//! is **bit-identical** at every shard count — same itemsets and
//! supports, same rules, same reports — while each shard keeps its own
//! persistent vertical index (a delete rebuilds only the shard it lands
//! on) and scans in parallel as its own chunk partition. The routing
//! spec is pure configuration: it is validated at build time and never
//! changes a result, only where rows live. See `DESIGN_SHARDING.md` for
//! the invariants.
//!
//! ```
//! use fup::{Maintainer, MinConfidence, MinSupport, ShardSpec, Tid};
//! use fup::{Transaction, UpdateBatch};
//!
//! let history: Vec<Transaction> = (0..8u32)
//!     .map(|i| Transaction::from_items([i % 2, 2 + (i % 3), 9]))
//!     .collect();
//! let builder = || {
//!     Maintainer::builder()
//!         .min_support(MinSupport::percent(25))
//!         .min_confidence(MinConfidence::percent(60))
//! };
//! let mut flat = builder().build(history.clone()).unwrap();
//! assert_eq!(flat.store().num_shards(), 1);
//! let mut sharded = builder()
//!     .shard_spec(ShardSpec::striped_with(4, 1)) // tid t -> shard t % 4
//!     .build(history)
//!     .unwrap();
//! assert_eq!(sharded.store().num_shards(), 4);
//!
//! // One update, routed by tid range: the insert lands on one shard,
//! // the delete on another.
//! let batch = UpdateBatch {
//!     inserts: vec![Transaction::from_items([0u32, 2, 9])],
//!     deletes: vec![Tid(3)],
//! };
//! flat.apply(batch.clone()).unwrap();
//! sharded.apply(batch).unwrap();
//!
//! // Count distribution: per-shard supports merge by summation, so the
//! // four-shard session is bit-identical to the one-shard one.
//! assert!(sharded.large_itemsets().same_itemsets(flat.large_itemsets()));
//! assert_eq!(sharded.rules(), flat.rules());
//!
//! // A spec that cannot route every tid is a typed build error, never a
//! // stage-time panic.
//! use fup::TidRange;
//! let err = builder()
//!     .shard_spec(ShardSpec::Ranges(vec![TidRange::new(5, 10)]))
//!     .build(vec![])
//!     .unwrap_err();
//! assert!(matches!(err, fup::BuildError::InvalidShardSpec(_)));
//! ```
//!
//! ## Cluster serving
//!
//! The cluster runtime takes sharding across the process seam: each
//! shard becomes a [`ShardWorker`] with its own thread, its own store
//! slice and persistent index, and its own WAL + checkpoint namespace,
//! speaking a CRC-framed RPC protocol to a [`Cluster`] coordinator
//! that merges per-shard support counts by summation and commits every
//! round two-phase. Results stay **bit-identical** to a flat session.
//! The crash model is single-shard: kill a worker and commits fail
//! fast with a typed [`core::Error::WorkerDown`] while the staged
//! backlog is held, snapshots keep serving reads and surviving workers
//! keep answering [`probe`](Cluster::probe)s; a restart recovers the
//! worker from its own checkpoint + WAL without losing an acknowledged
//! commit. See `DESIGN_CLUSTER.md` for the protocol and the crash
//! model.
//!
//! ```
//! use fup::tidb::{DurableStorage, MemStorage};
//! use fup::{Cluster, FupConfig, MinConfidence, MinSupport, ShardSpec};
//! use fup::{Tid, Transaction, UpdateBatch};
//! use std::sync::Arc;
//!
//! let history: Vec<Transaction> = (0..8u32)
//!     .map(|i| Transaction::from_items([i % 2, 2 + (i % 3), 9]))
//!     .collect();
//! let storages: Vec<Arc<dyn DurableStorage>> = (0..2)
//!     .map(|_| Arc::new(MemStorage::new()) as Arc<dyn DurableStorage>)
//!     .collect();
//! let mut cluster = Cluster::bootstrap(
//!     ShardSpec::striped_with(2, 1), // tid t -> worker t % 2
//!     storages,
//!     history,
//!     MinSupport::percent(25),
//!     MinConfidence::percent(60),
//!     FupConfig::default(),
//! )
//! .unwrap();
//!
//! // One incremental round: routed to workers, counted per shard,
//! // merged by summation, committed two-phase.
//! let report = cluster
//!     .apply(UpdateBatch {
//!         inserts: vec![Transaction::from_items([0u32, 2, 9])],
//!         deletes: vec![Tid(3)],
//!     })
//!     .unwrap();
//! assert_eq!(report.version, 1);
//!
//! // Kill one worker the hard way: its memory is gone, only its
//! // storage namespace survives. Commits now fail fast and typed —
//! // the staged batch is held, not lost.
//! cluster.kill_worker(1);
//! let err = cluster
//!     .apply(UpdateBatch::insert_only(vec![
//!         Transaction::from_items([0u32, 9]),
//!     ]))
//!     .unwrap_err();
//! assert!(matches!(err, fup::core::Error::WorkerDown { shard: 1, .. }));
//!
//! // The survivor keeps answering probes; snapshots keep serving.
//! assert!(cluster.probe(0).unwrap().live > 0);
//! assert_eq!(cluster.snapshot().version(), 1);
//!
//! // Restart: the worker recovers from its checkpoint + WAL and the
//! // held backlog commits on the next attempt.
//! cluster.restart_worker(1).unwrap();
//! let report = cluster.commit().unwrap();
//! assert_eq!(report.version, 2);
//! cluster.shutdown();
//! ```
//!
//! ## Layout
//!
//! * [`tidb`] — transactions, stores, scan accounting ([`fup_tidb`])
//! * [`mining`] — itemsets, Apriori, DHP, rule generation ([`fup_mining`])
//! * [`core`] — FUP, FUP2, the [`Maintainer`] session ([`fup_core`])
//! * [`datagen`] — the paper's synthetic workloads ([`fup_datagen`])

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use fup_core as core;
pub use fup_datagen as datagen;
pub use fup_mining as mining;
pub use fup_tidb as tidb;

// The working vocabulary, flattened.
pub use fup_core::{
    BuildError, Cluster, CommitPolicy, DurabilityPolicy, Fup, Fup2, FupConfig, FupOutcome,
    HealthReport, HealthState, IndexStats, ItemsetDiff, LogState, Maintainer, MaintainerBuilder,
    MaintainerService, MaintenanceReport, RecoveryReport, RetryPolicy, RuleDiff, RuleSnapshot,
    ServiceError, ServiceHealth, ServiceMetrics, ShardHealth, ShardWorker, StageHandle,
    UpdatePolicy, WorkerProbe,
};
pub use fup_datagen::{GenParams, QuestGenerator};
pub use fup_mining::{
    Apriori, CountingBackend, Dhp, EngineConfig, GenConfig, Itemset, ItemsetTable, LargeItemsets,
    MinConfidence, MinSupport, Miner, Rule, RuleSet, VerticalIndex,
};
pub use fup_tidb::{
    Admission, DiskStorage, DurableStorage, FaultKind, FlakyStorage, ItemDictionary, ItemId,
    MemStorage, OpClass, SegmentedDb, ShardSpec, ShardedDb, SpecError, Tid, TidRange, Transaction,
    TransactionDb, TransactionSource, UpdateBatch,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reexports_are_usable() {
        let t = Transaction::from_items([1u32, 2]);
        let x = Itemset::from_items([1u32]);
        assert_eq!(t.len(), 2);
        assert_eq!(x.k(), 1);
        let _ = MinSupport::percent(1);
        let _ = MinConfidence::percent(50);
        let _ = FupConfig::default();
        let _ = Maintainer::builder();
    }
}
