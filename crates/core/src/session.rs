//! The session-oriented maintenance API: a [`Maintainer`] built once via
//! [`Maintainer::builder`], fed by **staged** update batches
//! ([`stage`](Maintainer::stage) accumulates, [`commit`](Maintainer::commit)
//! applies them as one FUP/FUP2 round), and read through cheap, versioned
//! [`RuleSnapshot`]s that stay valid and self-consistent while later
//! commits proceed.
//!
//! This is the shape the paper argues for: rule maintenance as an
//! *ongoing service* over a growing database, not a batch re-mine. The
//! session decouples **arrival** (transactions stream in, `stage`) from
//! **application** (one incremental round, `commit`) and **serving**
//! (snapshot reads, untouched by either), and it keeps the expensive
//! per-round state — the vertical tid-list index — alive across rounds:
//! insert-only commits *extend* the held [`VerticalIndex`]
//! with the staged delta instead of rebuilding it on first use
//! (see [`crate::vindex`]).
//!
//! The session itself is single-writer: `stage`/`commit` take `&mut
//! self`. For multi-threaded ingestion there are two escalation steps:
//!
//! * [`Maintainer::stage_handle`] returns a [`StageHandle`] — a cloneable
//!   `&self` staging endpoint any number of producer threads can feed
//!   (batches land in the store's sharded staging area and join the next
//!   `commit` in global arrival order);
//! * [`crate::service::MaintainerService`] goes further and owns the
//!   commit side too: a background committer drains the staged batches
//!   into rounds under a [`CommitPolicy`](crate::service::CommitPolicy),
//!   and a snapshot read holds a read lock for one `Arc` clone, so it is
//!   never blocked by a round in progress.
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
//!
//! // Reads go through version-stamped snapshots...
//! let before = m.snapshot();
//!
//! // ...while updates accumulate and apply in one round.
//! m.stage(UpdateBatch::insert_only(vec![Transaction::from_items([1u32, 3])]))
//!     .unwrap();
//! let report = m.commit().unwrap();
//! assert_eq!(report.num_transactions, 4);
//!
//! // The pre-commit snapshot is still valid, at its own version.
//! assert_eq!(before.version() + 1, m.snapshot().version());
//! ```

use crate::config::FupConfig;
use crate::diff::{ItemsetDiff, RuleDiff};
use crate::durable::{self, DeltaBase, DurabilityPolicy, DurableLog, RecoveryReport};
use crate::error::{BuildError, Error, Result};
use crate::fup::update_local;
use crate::policy::UpdatePolicy;
use crate::service::ShardHealth;
use crate::vindex::{IndexSlot, SlotProvider};
use fup_mining::apriori::AprioriConfig;
use fup_mining::rules::generate_rules;
use fup_mining::{
    Apriori, CountingBackend, Itemset, LargeItemsets, MinConfidence, MinSupport, MiningOutcome,
    MiningStats, Rule, RuleSet, VerticalIndex,
};
use fup_tidb::wal::WalRecord;
use fup_tidb::{
    DurableStorage, ItemId, ShardSpec, ShardedDb, ShardedStaged, StagingArea, Tid, Transaction,
    TransactionSource, UpdateBatch,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// What one maintenance round changed.
#[derive(Debug, Clone)]
pub struct MaintenanceReport {
    /// Which algorithm ran ("fup" for pure insertions, "fup2" with
    /// deletions, "apriori-remine" when the policy routed to a re-mine).
    pub algorithm: &'static str,
    /// The state version this commit produced (snapshots taken after it
    /// carry the same stamp).
    pub version: u64,
    /// Itemsets that emerged / expired.
    pub itemsets: ItemsetDiff,
    /// Rules that appeared / disappeared.
    pub rules: RuleDiff,
    /// Tids assigned to the inserted transactions.
    pub inserted_tids: Vec<Tid>,
    /// Database size after the update.
    pub num_transactions: u64,
    /// Per-pass mining statistics of the incremental run.
    pub stats: MiningStats,
}

/// Counters describing the session's persistent vertical index (see
/// [`Maintainer::index_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// From-scratch index builds performed so far.
    pub builds: u64,
    /// Rounds that *extended* the held index with a delta scan instead of
    /// rebuilding it.
    pub extends: u64,
    /// `true` while an index is held and ready for the next round.
    pub resident: bool,
}

/// The immutable state one commit produced — shared by the maintainer and
/// every [`RuleSnapshot`] stamped with its version.
#[derive(Debug)]
pub(crate) struct SnapshotState {
    version: u64,
    num_transactions: u64,
    minsup: MinSupport,
    minconf: MinConfidence,
    large: LargeItemsets,
    rules: RuleSet,
    /// Rule indices mentioning each item (antecedent or consequent side).
    rules_by_item: HashMap<ItemId, Vec<u32>>,
    /// Rule indices sorted by confidence, highest first (ties broken by
    /// rule identity for determinism).
    rules_by_confidence: Vec<u32>,
}

impl SnapshotState {
    /// Crate-visible because the cluster coordinator
    /// (`crate::cluster`) publishes the same state the session
    /// does — identical inputs must produce an identical snapshot.
    pub(crate) fn new(
        version: u64,
        num_transactions: u64,
        minsup: MinSupport,
        minconf: MinConfidence,
        large: LargeItemsets,
        rules: RuleSet,
    ) -> Self {
        let mut rules_by_item: HashMap<ItemId, Vec<u32>> = HashMap::new();
        for (i, r) in rules.rules().iter().enumerate() {
            for &item in r.antecedent.items().iter().chain(r.consequent.items()) {
                rules_by_item.entry(item).or_default().push(i as u32);
            }
        }
        let mut rules_by_confidence: Vec<u32> = (0..rules.len() as u32).collect();
        rules_by_confidence.sort_by(|&a, &b| {
            let (ra, rb) = (&rules.rules()[a as usize], &rules.rules()[b as usize]);
            rb.confidence()
                .total_cmp(&ra.confidence())
                .then_with(|| ra.cmp(rb))
        });
        SnapshotState {
            version,
            num_transactions,
            minsup,
            minconf,
            large,
            rules,
            rules_by_item,
            rules_by_confidence,
        }
    }

    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    pub(crate) fn large(&self) -> &LargeItemsets {
        &self.large
    }

    pub(crate) fn rules(&self) -> &RuleSet {
        &self.rules
    }
}

/// A cheap, consistent view of the maintained rules and itemsets at one
/// state version.
///
/// Snapshots are `Arc`-backed: taking one is a pointer clone, and a
/// snapshot stays valid — and internally consistent — no matter how many
/// commits the session performs afterwards. Serving-side lookups go
/// through the query methods instead of walking the raw [`RuleSet`].
#[derive(Debug, Clone)]
pub struct RuleSnapshot {
    inner: Arc<SnapshotState>,
}

impl RuleSnapshot {
    /// Wraps a shared state — used by the service layer's snapshot reads.
    pub(crate) fn from_state(inner: Arc<SnapshotState>) -> Self {
        RuleSnapshot { inner }
    }

    /// The state version this snapshot was taken at (0 after bootstrap,
    /// +1 per commit).
    pub fn version(&self) -> u64 {
        self.inner.version
    }

    /// Number of live transactions at this version.
    pub fn num_transactions(&self) -> u64 {
        self.inner.num_transactions
    }

    /// The minimum support the itemsets were maintained at.
    pub fn min_support(&self) -> MinSupport {
        self.inner.minsup
    }

    /// The minimum confidence the rules were derived at.
    pub fn min_confidence(&self) -> MinConfidence {
        self.inner.minconf
    }

    /// The strong rules at this version, sorted.
    pub fn rules(&self) -> &RuleSet {
        &self.inner.rules
    }

    /// The large itemsets (with support counts) at this version.
    pub fn large_itemsets(&self) -> &LargeItemsets {
        &self.inner.large
    }

    /// The exact support count of `itemset` at this version, if it is
    /// large.
    pub fn support_of(&self, itemset: &Itemset) -> Option<u64> {
        self.inner.large.support(itemset)
    }

    /// All rules whose antecedent is exactly `antecedent`, sorted.
    pub fn rules_with_antecedent(&self, antecedent: &Itemset) -> Vec<&Rule> {
        let Some(&first) = antecedent.items().first() else {
            return Vec::new();
        };
        // Every such rule mentions the antecedent's first item, so the
        // per-item postings bound the scan.
        self.rules_for_indices(self.inner.rules_by_item.get(&first))
            .filter(|r| &r.antecedent == antecedent)
            .collect()
    }

    /// All rules mentioning `item` on either side, sorted.
    pub fn rules_about(&self, item: ItemId) -> Vec<&Rule> {
        self.rules_for_indices(self.inner.rules_by_item.get(&item))
            .collect()
    }

    /// The `k` highest-confidence rules (ties broken by rule identity).
    pub fn top_k_by_confidence(&self, k: usize) -> Vec<&Rule> {
        self.inner
            .rules_by_confidence
            .iter()
            .take(k)
            .map(|&i| &self.inner.rules.rules()[i as usize])
            .collect()
    }

    fn rules_for_indices<'s>(
        &'s self,
        indices: Option<&'s Vec<u32>>,
    ) -> impl Iterator<Item = &'s Rule> + 's {
        indices
            .into_iter()
            .flatten()
            .map(|&i| &self.inner.rules.rules()[i as usize])
    }
}

/// A thread-safe producer handle for staging update batches into a
/// session (or a [`MaintainerService`](crate::service::MaintainerService))
/// from any thread — obtained via [`Maintainer::stage_handle`].
///
/// Staging through a handle performs the same arrival-time validation as
/// [`Maintainer::stage`] (deletes must reference live, unclaimed tids;
/// insert-only sessions reject deletions) but takes `&self` and never
/// touches the session: producers run concurrently with each other, with
/// snapshot readers, and with a commit round in flight. Batches join the
/// next commit in global arrival order.
#[derive(Debug, Clone)]
pub struct StageHandle {
    staging: Arc<fup_tidb::StagingArea>,
    deletions: bool,
    durable: Option<Arc<DurableLog>>,
}

impl StageHandle {
    /// Queues a batch for the session's next commit. Validation failures
    /// ([`Error::DeletionsDisabled`], unknown/doubly-deleted tids) leave
    /// nothing queued. On a durable session the batch's WAL record is
    /// written (and, per policy, synced) *before* the batch becomes
    /// visible, so a storage failure here queues nothing either.
    ///
    /// When the staging area has a capacity limit and is full, **waits**
    /// for a commit round to free space — use
    /// [`try_stage`](Self::try_stage) or
    /// [`stage_deadline`](Self::stage_deadline) for bounded waiting.
    pub fn stage(&self, batch: UpdateBatch) -> Result<()> {
        self.stage_with(batch, fup_tidb::Admission::Block)
    }

    /// Non-blocking [`stage`](Self::stage): if the staging area is at
    /// capacity, fails immediately with
    /// [`fup_tidb::Error::WouldBlock`] (wrapped in [`Error::Store`])
    /// instead of waiting.
    pub fn try_stage(&self, batch: UpdateBatch) -> Result<()> {
        self.stage_with(batch, fup_tidb::Admission::Try)
    }

    /// [`stage`](Self::stage) that waits for capacity only until
    /// `deadline`, then fails with [`fup_tidb::Error::StageTimeout`]
    /// (wrapped in [`Error::Store`]).
    pub fn stage_deadline(&self, batch: UpdateBatch, deadline: std::time::Instant) -> Result<()> {
        self.stage_with(batch, fup_tidb::Admission::Deadline(deadline))
    }

    /// [`stage`](Self::stage) with an explicit [`fup_tidb::Admission`]
    /// mode.
    pub fn stage_with(&self, batch: UpdateBatch, admission: fup_tidb::Admission) -> Result<()> {
        if !self.deletions && !batch.deletes.is_empty() {
            return Err(Error::DeletionsDisabled);
        }
        match &self.durable {
            Some(log) => {
                log.log_stage(&self.staging, batch, admission)?;
            }
            None => self
                .staging
                .stage_with(batch, admission)
                .map(|_| ())
                .map_err(Error::Store)?,
        }
        Ok(())
    }

    /// [`try_stage`](Self::try_stage) wrapped in a bounded
    /// backoff-and-retry loop: admission pushback
    /// ([`WouldBlock`](fup_tidb::Error::WouldBlock) /
    /// [`StageTimeout`](fup_tidb::Error::StageTimeout)) and a degraded
    /// durable log ([`Error::DurabilityDegraded`]) are retried per
    /// `retry` (exponential backoff, deterministic jitter); anything
    /// else — validation failures, a closed staging area, a poisoned log
    /// — fails immediately. Exhausting the budget yields
    /// [`Error::RetriesExhausted`] carrying the final error, so callers
    /// can shed with one `match` instead of hand-rolling the loop.
    pub fn stage_with_retry(
        &self,
        batch: UpdateBatch,
        retry: crate::durable::RetryPolicy,
    ) -> Result<()> {
        retry.validate()?;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let err = match self.try_stage(batch.clone()) {
                Ok(()) => return Ok(()),
                Err(e) => e,
            };
            let retryable = matches!(
                err,
                Error::DurabilityDegraded
                    | Error::Store(
                        fup_tidb::Error::WouldBlock { .. } | fup_tidb::Error::StageTimeout { .. }
                    )
            );
            if !retryable {
                return Err(err);
            }
            if attempt >= retry.max_attempts {
                return Err(Error::RetriesExhausted {
                    attempts: attempt,
                    last: Box::new(err),
                });
            }
            retry.pause(attempt);
        }
    }

    /// `(inserts, deletes)` currently staged and awaiting a commit.
    pub fn pending_ops(&self) -> (u64, u64) {
        self.staging.pending_ops()
    }

    /// The shared staging area itself — the service layer configures its
    /// capacity gate and closes/reopens admissions through this.
    pub(crate) fn staging_area(&self) -> &Arc<fup_tidb::StagingArea> {
        &self.staging
    }

    /// The session's durable log, when there is one — the service layer
    /// reads health gauges through this.
    pub(crate) fn durable_log(&self) -> Option<&Arc<DurableLog>> {
        self.durable.as_ref()
    }
}

/// How to rebuild a durable session from its own storage: the fully
/// resolved builder configuration plus the storage handle. Captured once
/// by the service's committer supervisor so a panicked committer can be
/// respawned through [`MaintainerBuilder::recover`].
#[derive(Debug, Clone)]
pub(crate) struct RecoverySpec {
    pub(crate) builder: MaintainerBuilder,
    pub(crate) storage: Arc<dyn DurableStorage>,
}

/// Fluent, validating builder for a [`Maintainer`] session — the one
/// place the previously scattered knobs ([`MinSupport`],
/// [`MinConfidence`], [`FupConfig`], [`UpdatePolicy`],
/// [`CountingBackend`]) come together. Every setter writes into one
/// [`FupConfig`], so later calls win over earlier ones;
/// [`build`](MaintainerBuilder::build) rejects bad combinations with a
/// typed [`BuildError`] instead of panicking at runtime.
#[derive(Debug, Clone, Default)]
pub struct MaintainerBuilder {
    minsup: Option<MinSupport>,
    minconf: Option<MinConfidence>,
    config: FupConfig,
    policy: UpdatePolicy,
    deletions: bool,
    durability: DurabilityPolicy,
    shards: ShardSpec,
}

impl MaintainerBuilder {
    fn new() -> Self {
        MaintainerBuilder {
            deletions: true,
            ..Self::default()
        }
    }

    /// The minimum support threshold (required).
    pub fn min_support(mut self, minsup: MinSupport) -> Self {
        self.minsup = Some(minsup);
        self
    }

    /// The minimum confidence threshold (required).
    pub fn min_confidence(mut self, minconf: MinConfidence) -> Self {
        self.minconf = Some(minconf);
        self
    }

    /// Replaces the whole FUP configuration (optimisation toggles and
    /// engine settings), including what earlier [`threads`](Self::threads)
    /// / [`gen_threads`](Self::gen_threads) / [`backend`](Self::backend)
    /// calls set; those calls made *after* this one override its fields.
    /// The engine's chunk size must be ≥ 1 and a `max_k` cap must be ≥ 1;
    /// the cap bounds every from-scratch mine of the session too.
    pub fn fup_config(mut self, config: FupConfig) -> Self {
        self.config = config;
        self
    }

    /// Worker threads for counting scans *and* candidate generation
    /// (`0`, the default, uses the machine's available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.engine.threads = threads;
        self.config.engine.gen.threads = threads;
        self
    }

    /// Worker threads for candidate generation alone (overrides the
    /// [`threads`](Self::threads) value for that phase).
    pub fn gen_threads(mut self, threads: usize) -> Self {
        self.config.engine.gen.threads = threads;
        self
    }

    /// The support-counting backend for every scan of the session.
    pub fn backend(mut self, backend: CountingBackend) -> Self {
        self.config.engine.backend = backend;
        self
    }

    /// The incremental-vs-remine policy (validated like
    /// [`Maintainer::set_policy`]).
    pub fn policy(mut self, policy: UpdatePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Declares whether the workload contains deletions (default `true`).
    /// With `false`, staging a batch that deletes anything fails with
    /// [`Error::DeletionsDisabled`].
    pub fn deletions(mut self, deletions: bool) -> Self {
        self.deletions = deletions;
        self
    }

    /// The durability policy [`build_durable`](Self::build_durable) and
    /// [`recover`](Self::recover) will run under (ignored by the
    /// in-memory [`build`](Self::build)).
    pub fn durability(mut self, policy: DurabilityPolicy) -> Self {
        self.durability = policy;
        self
    }

    /// Partitions the session's store into `n` tid-range shards (striped
    /// with the default stripe width; the default is one shard, the
    /// unsharded store). Every FUP/FUP2 round counts shard-by-shard —
    /// per-shard persistent vertical indexes, per-shard chunk cursors —
    /// and merges local supports by summation (count distribution),
    /// producing **bit-identical** itemsets, rules and support counts at
    /// any shard count. A deletion invalidates only the shards it
    /// touches.
    ///
    /// `shards(0)` is rejected at build time as
    /// [`BuildError::InvalidShardSpec`].
    pub fn shards(mut self, n: u32) -> Self {
        self.shards = ShardSpec::striped(n);
        self
    }

    /// [`shards`](Self::shards) with an explicit routing spec — custom
    /// stripe widths or explicit tid ranges. Specs whose routing is not
    /// total (overlapping or gapping ranges, a bounded tail, zero shards)
    /// are rejected at build time as [`BuildError::InvalidShardSpec`].
    pub fn shard_spec(mut self, spec: ShardSpec) -> Self {
        self.shards = spec;
        self
    }

    /// Validates the configuration into a `(minsup, minconf, config)`
    /// triple — the shared front half of [`build`](Self::build),
    /// [`build_durable`](Self::build_durable) and
    /// [`recover`](Self::recover).
    fn validated(&self) -> std::result::Result<(MinSupport, MinConfidence, FupConfig), BuildError> {
        let minsup = self.minsup.ok_or(BuildError::MissingMinSupport)?;
        let minconf = self.minconf.ok_or(BuildError::MissingMinConfidence)?;
        if self.config.engine.chunk_size == 0 {
            return Err(BuildError::ZeroChunkSize);
        }
        if self.config.max_k == Some(0) {
            return Err(BuildError::ZeroMaxK);
        }
        validate_policy(self.policy)?;
        self.shards
            .validate()
            .map_err(BuildError::InvalidShardSpec)?;
        Ok((minsup, minconf, self.config.clone()))
    }

    /// Validates the configuration, then bootstraps the session: loads
    /// `history` into the store, mines it from scratch with Apriori (on
    /// the configured engine), and derives the initial rules as state
    /// version 0.
    pub fn build(self, history: Vec<Transaction>) -> std::result::Result<Maintainer, BuildError> {
        let (minsup, minconf, config) = self.validated()?;
        let mut m =
            Maintainer::bootstrap_unchecked(history, minsup, minconf, config, self.shards.clone());
        m.policy = self.policy;
        m.deletions = self.deletions;
        Ok(m)
    }

    /// [`build`](Self::build), made durable: bootstraps the session and
    /// writes its first checkpoint (`ckpt-0`) and an empty WAL segment to
    /// `storage` before returning. Every later [`stage`](Maintainer::stage)
    /// appends a WAL record before the batch becomes visible, every
    /// [`commit`](Maintainer::commit) appends a boundary record, and the
    /// [`DurabilityPolicy`] drives periodic checkpoints.
    ///
    /// `storage` must be empty — pointing a *new* session at a directory
    /// holding an existing durable session is almost certainly a mistake
    /// (it would shadow that session's history), so it fails with
    /// [`Error::Recovery`]; use [`recover`](Self::recover) instead.
    pub fn build_durable(
        self,
        history: Vec<Transaction>,
        storage: Arc<dyn DurableStorage>,
    ) -> Result<Maintainer> {
        self.durability.validate().map_err(Error::Config)?;
        let log = Arc::new(DurableLog::create(storage, self.durability)?);
        let mut m = self.build(history).map_err(Error::Config)?;
        let bytes = m.encode_checkpoint_image(0, None)?;
        log.install_checkpoint(0, &bytes, m.store.watermark())?;
        m.durable = Some(log);
        Ok(m)
    }

    /// Rebuilds a durable session from `storage`: assembles the newest
    /// checkpoint whose delta chain validates (falling back past corrupt
    /// files), replays the WAL tail — each committed round's rows are
    /// re-applied to the store, un-committed staged batches are re-queued,
    /// a torn tail is dropped — and seals with the next ordinary
    /// checkpoint. When the tail committed any round, the itemsets are
    /// mined once from the recovered store (a one-shard session keeps that
    /// mine's index), so recovery costs one decode of the chain plus one
    /// mine however long the tail is; otherwise the checkpoint's itemsets
    /// stand. The seal resumes the recovered chain under the usual
    /// full-cut rule, so it is usually a delta holding the tail's rows
    /// that names the chosen checkpoint as its parent. The recovered
    /// session's state is identical to the pre-crash session at its last
    /// durably-acknowledged commit.
    ///
    /// The builder supplies the *configuration* (engine, policy — neither
    /// is checkpointed), but its thresholds must match the
    /// checkpointed session's: maintained support counts are only valid
    /// under the thresholds they were mined with.
    pub fn recover(self, storage: Arc<dyn DurableStorage>) -> Result<(Maintainer, RecoveryReport)> {
        self.durability.validate().map_err(Error::Config)?;
        let (minsup, minconf, config) = self.validated().map_err(Error::Config)?;
        let recovered = durable::load_latest(storage.as_ref())?;
        let image = recovered.image;
        if (minsup.num(), minsup.den()) != image.minsup
            || (minconf.num(), minconf.den()) != image.minconf
        {
            return Err(Error::Recovery {
                reason: format!(
                    "checkpoint was written under minsup {}/{} and minconf {}/{} but the \
                     builder asks for {}/{} and {}/{}; maintained support counts are only \
                     valid under their original thresholds",
                    image.minsup.0,
                    image.minsup.1,
                    image.minconf.0,
                    image.minconf.1,
                    minsup.num(),
                    minsup.den(),
                    minconf.num(),
                    minconf.den(),
                ),
            });
        }
        if image.large.num_transactions() != image.live.len() as u64 {
            return Err(Error::Recovery {
                reason: format!(
                    "checkpoint itemsets cover {} transactions but the image holds {}",
                    image.large.num_transactions(),
                    image.live.len()
                ),
            });
        }

        // Rebuild the store and published state exactly as checkpointed.
        // The shard spec is pure configuration: the checkpoint format is
        // shard-agnostic, so any valid spec can recover any image — every
        // row is re-routed by tid.
        let store = ShardedDb::from_recovered(
            self.shards.clone(),
            image.live,
            image.watermark,
            image.tombstones,
            image.next_segment,
        )
        .map_err(|e| Error::Config(BuildError::InvalidShardSpec(e)))?;
        // Checkpoints hold no index: unless the mine below adopts one, the
        // first round that counts vertically builds each shard's, as in a
        // fresh session.
        let mut m = Maintainer::unpublished(store, minsup, minconf, config);
        m.policy = self.policy;
        m.deletions = self.deletions;

        // Replay the WAL tail. Staged batches gather in a ticket-ordered
        // pending map seeded with the checkpoint's backlog (their Stage
        // records live in rotated-away segments); each Commit boundary
        // applies its tickets' rows to the store in ticket order, as the
        // round did. The itemsets are not maintained per round: they are a
        // function of the live rows, so one mine of the final store yields
        // what replaying every round would.
        let mut pending: BTreeMap<u64, UpdateBatch> = image.backlog.into_iter().collect();
        let mut max_ticket = pending.keys().next_back().copied();
        let mut replayed_rounds = 0u64;
        // Every tid the replayed rounds deleted, for the seal's delta.
        let mut deleted = Vec::new();
        for record in recovered.replay {
            match record {
                WalRecord::Stage { ticket, batch } => {
                    max_ticket = max_ticket.max(Some(ticket));
                    pending.insert(ticket, batch);
                }
                WalRecord::Commit { version, tickets } => {
                    let expected = image.version + replayed_rounds + 1;
                    if version != expected {
                        return Err(Error::Recovery {
                            reason: format!(
                                "replay diverged: WAL commit is version {version} but the \
                                 boundaries before it lead to version {expected}"
                            ),
                        });
                    }
                    let mut entries = Vec::with_capacity(tickets.len());
                    for ticket in tickets {
                        let batch = pending.remove(&ticket).ok_or_else(|| Error::Recovery {
                            reason: format!(
                                "WAL commit for version {version} references ticket {ticket} \
                                 with no staged record"
                            ),
                        })?;
                        entries.push((ticket, batch));
                    }
                    let batch = StagingArea::merge_entries(entries);
                    deleted.extend_from_slice(&batch.deletes);
                    let staged = m.stage_drained(batch)?;
                    m.note_shard_ops(&staged);
                    m.store.commit(staged);
                    replayed_rounds += 1;
                }
                WalRecord::Abort { tickets } => {
                    for ticket in tickets {
                        pending.remove(&ticket);
                    }
                }
            }
        }
        let large = if replayed_rounds == 0 {
            image.large
        } else {
            m.mine().large
        };
        m.restate(image.version + replayed_rounds, large);

        // Whatever is still pending was staged (durably) but never reached
        // a commit boundary: re-queue it under its original ticket.
        let restaged_batches = pending.len() as u64;
        {
            let staging = m.store.staging();
            for (&ticket, batch) in &pending {
                staging.claim(&batch.deletes).map_err(|e| Error::Recovery {
                    reason: format!("re-staging ticket {ticket} failed: {e}"),
                })?;
                // Recovered backlog bypasses the capacity gate (it was
                // already admitted once) but must still occupy it, so a
                // later bound sees the true backlog.
                staging.reserve_restored(batch.num_ops());
                staging.admit_with_ticket(ticket, batch.clone());
            }
            if let Some(t) = max_ticket {
                staging.bump_ticket(t + 1);
            }
        }

        // Seal recovery with the log's next ordinary checkpoint, past every
        // sequence number seen in storage so damaged files can never
        // shadow it. The log resumes the recovered chain with the replayed
        // rounds on top, so the full-cut rule decides the seal's shape:
        // usually a delta holding just the tail's rows, naming the chosen
        // checkpoint as its parent.
        let log = Arc::new(DurableLog::resumed(
            storage,
            self.durability,
            recovered.max_seq,
            recovered.chain,
            deleted,
        ));
        m.write_durable_checkpoint(&log)?;
        m.durable = Some(log);

        let report = RecoveryReport {
            checkpoint_seq: image.seq,
            corrupt_checkpoints: recovered.corrupt_checkpoints,
            replayed_rounds,
            restaged_batches,
            wal_tail_dropped: recovered.wal_tail_dropped,
            version: m.version(),
        };
        Ok((m, report))
    }
}

/// Checks that the session can actually honor `policy` —
/// shared by the builder and [`Maintainer::set_policy`].
fn validate_policy(policy: UpdatePolicy) -> std::result::Result<(), BuildError> {
    match policy {
        UpdatePolicy::RemineOverRatio(r) if r.is_nan() || r < 0.0 => {
            Err(BuildError::InvalidRemineRatio(r))
        }
        _ => Ok(()),
    }
}

/// A rule-maintenance session: owns the transaction store, the current
/// mined state, and a persistent vertical index, and keeps discovered
/// association rules current across staged insert/delete batches.
///
/// Construction goes through [`Maintainer::builder`]. Updates **arrive**
/// via [`stage`](Maintainer::stage) (accumulated on the store's staging
/// area, invisible to scans and reads), are **applied** by
/// [`commit`](Maintainer::commit) (one FUP/FUP2 round over everything
/// staged), and are **served** via [`snapshot`](Maintainer::snapshot)
/// (version-stamped, `Arc`-backed reads that later commits never
/// invalidate).
#[derive(Debug)]
pub struct Maintainer {
    /// The tid-range-sharded store; an unsharded session is one shard.
    store: ShardedDb,
    state: Arc<SnapshotState>,
    minsup: MinSupport,
    minconf: MinConfidence,
    config: FupConfig,
    policy: UpdatePolicy,
    deletions: bool,
    /// One persistent vertical-index slot per shard.
    slots: Vec<IndexSlot>,
    /// Update ops (inserts + deletes) committed into each shard since
    /// the session started — the
    /// [`ShardHealth`](crate::service::ShardHealth) `ops` gauge.
    shard_ops: Vec<u64>,
    durable: Option<Arc<DurableLog>>,
}

impl Maintainer {
    /// Starts configuring a session.
    pub fn builder() -> MaintainerBuilder {
        MaintainerBuilder::new()
    }

    /// Bootstrap without builder validation — the builder validates
    /// first and then calls this.
    pub(crate) fn bootstrap_unchecked(
        history: Vec<Transaction>,
        minsup: MinSupport,
        minconf: MinConfidence,
        config: FupConfig,
        shards: ShardSpec,
    ) -> Self {
        let store = ShardedDb::from_transactions(shards, history)
            .expect("shard spec validated by the builder");
        let mut m = Maintainer::unpublished(store, minsup, minconf, config);
        let large = m.mine().large;
        m.restate(0, large);
        // When the mine engaged vertical counting (pinned, or Auto past
        // its thresholds) on a one-shard store, the slot adopted its
        // index, so even the *first* commit extends instead of building.
        // Otherwise a pinned-vertical session, which wants the index on
        // every commit, seeds one index per non-empty shard from a fresh
        // scan of that shard.
        if !m.index_stats().resident && m.config.engine.backend == CountingBackend::Vertical {
            for (s, slot) in m.slots.iter_mut().enumerate() {
                let shard = m.store.shard(s);
                if !shard.is_empty() {
                    slot.adopt(VerticalIndex::build(shard, None, &m.config.engine));
                }
            }
        }
        m
    }

    /// A session over `store` with empty index slots, default policy and
    /// an empty state at version 0 — bootstrap and recovery set the state
    /// it starts from through [`restate`](Self::restate).
    fn unpublished(
        store: ShardedDb,
        minsup: MinSupport,
        minconf: MinConfidence,
        config: FupConfig,
    ) -> Self {
        let n = store.num_shards();
        let state = Arc::new(SnapshotState::new(
            0,
            store.len() as u64,
            minsup,
            minconf,
            LargeItemsets::new(store.len() as u64),
            RuleSet::default(),
        ));
        Maintainer {
            store,
            state,
            minsup,
            minconf,
            config,
            policy: UpdatePolicy::default(),
            deletions: true,
            slots: (0..n).map(|_| IndexSlot::new()).collect(),
            shard_ops: vec![0; n],
            durable: None,
        }
    }

    /// The session's from-scratch miner: its engine, and its `max_k` cap,
    /// so a mine holds exactly the levels incremental rounds maintain.
    fn miner(&self) -> Apriori {
        Apriori::with_config(AprioriConfig {
            max_k: self.config.max_k,
            engine: self.config.engine.clone(),
        })
    }

    /// Mines the store from scratch (bootstrap, re-mine, recovery) and
    /// keeps the index the mine built, if it engaged vertical counting,
    /// for the next incremental round. The index is positional over the
    /// whole store and cannot be split, so only a one-shard store adopts
    /// it.
    fn mine(&mut self) -> MiningOutcome {
        let (outcome, built) = self.miner().run_with_index(&self.store, self.minsup);
        if let (Some(idx), 1) = (built, self.store.num_shards()) {
            self.slots[0].adopt(idx);
        }
        outcome
    }

    /// Publishes `large` as the state at `version`, with its rules
    /// re-derived and no diff reported.
    fn restate(&mut self, version: u64, large: LargeItemsets) {
        let rules = generate_rules(&large, self.minconf);
        self.state = Arc::new(SnapshotState::new(
            version,
            self.store.len() as u64,
            self.minsup,
            self.minconf,
            large,
            rules,
        ));
    }

    // ------------------------------------------------------ staging --

    /// Queues a batch for the next commit. The batch is validated at
    /// arrival (unknown or doubly-deleted tids fail here, with nothing
    /// queued) but the mined state, the store's live set, and every
    /// existing snapshot are untouched until [`commit`](Self::commit).
    pub fn stage(&mut self, batch: UpdateBatch) -> Result<()> {
        if !self.deletions && !batch.deletes.is_empty() {
            return Err(Error::DeletionsDisabled);
        }
        match &self.durable {
            Some(log) => {
                log.log_stage(&self.store.staging(), batch, fup_tidb::Admission::Block)?;
            }
            None => self.store.enqueue(batch)?,
        }
        Ok(())
    }

    /// A shareable, thread-safe staging handle: any number of producer
    /// threads can [`StageHandle::stage`] batches through it — with the
    /// same arrival-time validation as [`stage`](Self::stage) — while
    /// this session is borrowed (even mutably, mid-commit) elsewhere.
    /// Everything staged through handles joins the next
    /// [`commit`](Self::commit), in global arrival order. This is the
    /// producer side of [`crate::service::MaintainerService`].
    pub fn stage_handle(&self) -> StageHandle {
        StageHandle {
            staging: self.store.staging(),
            deletions: self.deletions,
            durable: self.durable.clone(),
        }
    }

    /// A copy of the batches staged so far, concatenated in arrival
    /// order.
    pub fn staged(&self) -> UpdateBatch {
        self.store.pending()
    }

    /// `true` if anything is staged.
    pub fn has_staged(&self) -> bool {
        self.store.has_pending()
    }

    /// Drops everything staged without applying it, returning the
    /// discarded batch. On a durable session the drop is logged as an
    /// abort boundary (best-effort: a storage failure here poisons the
    /// log, and an un-logged discard merely re-queues the batches on
    /// recovery — committed state is never affected).
    pub fn discard(&mut self) -> UpdateBatch {
        match self.durable.clone() {
            None => self.store.discard_pending(),
            Some(log) => {
                let entries = self.store.take_pending_entries();
                let tickets: Vec<u64> = entries.iter().map(|&(t, _)| t).collect();
                let merged = StagingArea::merge_entries(entries);
                self.store
                    .staging()
                    .release_deletes(merged.deletes.iter().copied());
                if !tickets.is_empty() {
                    let _ = log.log_synced(&WalRecord::Abort { tickets });
                }
                merged
            }
        }
    }

    /// Applies everything staged as **one** maintenance round: pure
    /// insertions run the paper's FUP, batches with deletions run FUP2,
    /// and the [`UpdatePolicy`] may route oversized batches to a full
    /// re-mine. Returns what the round changed; on error the store and
    /// the mined state are left unchanged (the staged work is consumed
    /// either way).
    ///
    /// Committing with nothing staged is a no-op round: it bumps the
    /// version and reports no changes.
    ///
    /// On a durable session the round is acknowledged by a WAL commit
    /// boundary *after* it applies in memory; only an acknowledged round
    /// is guaranteed to survive recovery. A storage failure while
    /// acknowledging returns an error and poisons the session's log —
    /// recover from storage rather than trusting the in-memory state.
    pub fn commit(&mut self) -> Result<MaintenanceReport> {
        self.commit_bounded(None)
    }

    /// [`commit`](Self::commit) bounded to at most `max_ops` staged
    /// operations: applies the longest arrival-order prefix of whole
    /// batches within the bound as one maintenance round, leaving the
    /// rest staged (claims intact) for later rounds. A first batch
    /// larger than the bound travels alone, so the backlog always makes
    /// progress. `None` behaves exactly like [`commit`](Self::commit).
    /// This is what lets a service chunk an oversized backlog into
    /// bounded-latency rounds; ticket order is preserved within and
    /// across rounds.
    pub fn commit_bounded(&mut self, max_ops: Option<u64>) -> Result<MaintenanceReport> {
        match self.durable.clone() {
            None => {
                let entries = self.store.take_pending_entries_up_to(max_ops);
                self.commit_batch(StagingArea::merge_entries(entries))
            }
            Some(log) => self.commit_durable(&log, max_ops),
        }
    }

    fn commit_durable(
        &mut self,
        log: &Arc<DurableLog>,
        max_ops: Option<u64>,
    ) -> Result<MaintenanceReport> {
        let entries = self.store.take_pending_entries_up_to(max_ops);
        let tickets: Vec<u64> = entries.iter().map(|&(t, _)| t).collect();
        let merged = StagingArea::merge_entries(entries);
        let deleted = merged.deletes.clone();
        match self.commit_batch(merged) {
            Ok(report) => {
                if let Err(boundary_err) = log.log_synced(&WalRecord::Commit {
                    version: report.version,
                    tickets,
                }) {
                    // The boundary could not reach the WAL. If the log
                    // merely degraded (transient fault outlived its
                    // budget), a fresh checkpoint can still acknowledge
                    // the round: it embeds this round's post-state and
                    // the remaining backlog, superseding the suspect
                    // segment — and doubles as the heal. Only when that
                    // also fails is the round reported dropped.
                    if log.state() == crate::durable::LogState::Degraded
                        && self.write_durable_checkpoint(log).is_ok()
                    {
                        return Ok(report);
                    }
                    return Err(boundary_err);
                }
                if log.note_round(&deleted) {
                    // A checkpoint failure degrades/poisons the log but
                    // the round itself is durably acknowledged — report
                    // success and let the next durable operation surface
                    // the state.
                    let _ = self.write_durable_checkpoint(log);
                }
                Ok(report)
            }
            Err(e) => {
                // The round failed and its batches are consumed (the store
                // rolled back). Mirror that durably so recovery does not
                // resurrect them as staged.
                if !tickets.is_empty() {
                    let _ = log.log_synced(&WalRecord::Abort { tickets });
                }
                Err(e)
            }
        }
    }

    /// [`stage`](Self::stage) + [`commit`](Self::commit) in one call —
    /// note this also applies anything staged earlier.
    pub fn apply(&mut self, batch: UpdateBatch) -> Result<MaintenanceReport> {
        self.stage(batch)?;
        self.commit()
    }

    fn commit_batch(&mut self, batch: UpdateBatch) -> Result<MaintenanceReport> {
        let batch_size = batch.inserts.len() as u64 + batch.deletes.len() as u64;
        if self
            .policy
            .should_remine(batch_size, self.store.len() as u64)
        {
            return self.commit_by_remine(batch);
        }
        let staged = self.stage_drained(batch)?;
        // Shard-parallel counting: one persistent index slot per shard,
        // per-shard supports merged by summation inside the provider —
        // every threshold decision gates on the same global sums.
        let slots =
            SlotProvider::per_shard(&self.store, &staged, &mut self.slots, &self.config.engine);
        let outcome = update_local(&self.config, &self.state.large, self.minsup, slots);
        self.settle_slots(outcome.is_ok(), &staged);
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                self.store.abort(staged);
                return Err(e);
            }
        };
        let algorithm = outcome.stats.algorithm;
        Ok(self.finish_commit(staged, outcome.large, algorithm, outcome.stats))
    }

    /// Two-phase-stages a batch drained from the staging area. The
    /// drained batch owns the staging claims for its deletes, so on a
    /// validation failure — which consumes the batch — those claims are
    /// released here (their tids become claimable again).
    fn stage_drained(&mut self, batch: UpdateBatch) -> Result<ShardedStaged> {
        let claimed: Vec<Tid> = batch.deletes.clone();
        match self.store.stage(batch) {
            Ok(staged) => Ok(staged),
            Err(e) => {
                self.store.staging().release_deletes(claimed);
                Err(e.into())
            }
        }
    }

    /// Applies a batch by committing it and re-mining from scratch — the
    /// path [`UpdatePolicy`] routes to for very large batches.
    fn commit_by_remine(&mut self, batch: UpdateBatch) -> Result<MaintenanceReport> {
        let staged = self.stage_drained(batch)?;
        self.settle_slots(true, &staged);
        self.note_shard_ops(&staged);
        let (_seg, inserted_tids) = self.store.commit(staged);
        let outcome = self.mine();
        Ok(self.publish(
            outcome.large,
            "apriori-remine",
            outcome.stats,
            inserted_tids,
        ))
    }

    /// Commits `staged` (its slots already settled) and publishes the
    /// round's mined state.
    fn finish_commit(
        &mut self,
        staged: ShardedStaged,
        new_large: LargeItemsets,
        algorithm: &'static str,
        stats: MiningStats,
    ) -> MaintenanceReport {
        self.note_shard_ops(&staged);
        let (_seg, inserted_tids) = self.store.commit(staged);
        self.publish(new_large, algorithm, stats, inserted_tids)
    }

    /// Charges a committed round's ops to the per-shard gauges.
    fn note_shard_ops(&mut self, staged: &ShardedStaged) {
        for (s, ops) in self.shard_ops.iter_mut().enumerate() {
            *ops += staged.shard_inserted(s).num_transactions()
                + staged.shard_deleted(s).num_transactions();
        }
    }

    /// Per-shard health gauges (committed ops, routed backlog, state)
    /// for [`HealthReport::shards`](crate::HealthReport::shards). An
    /// in-process session always reports `"up"`; backlog is the staged
    /// batches routed prospectively through the shard spec.
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        let spec = self.store.spec();
        let watermark = self.store.watermark();
        let mut backlog = vec![0u64; self.store.num_shards()];
        let pending = StagingArea::merge_entries(self.store.staging().entries_snapshot());
        for i in 0..pending.inserts.len() as u64 {
            backlog[spec.shard_of(Tid(watermark + i))] += 1;
        }
        for &tid in &pending.deletes {
            backlog[spec.shard_of(tid)] += 1;
        }
        backlog
            .into_iter()
            .enumerate()
            .map(|(s, backlog)| ShardHealth {
                shard: s,
                ops: self.shard_ops[s],
                backlog,
                state: "up",
            })
            .collect()
    }

    /// Settles every shard's index slot at the staged round's decision
    /// (`committed`, else aborted), before the store applies it. A delete
    /// landing on one shard never invalidates the others.
    fn settle_slots(&mut self, committed: bool, staged: &ShardedStaged) {
        let engine = &self.config.engine;
        for (s, slot) in self.slots.iter_mut().enumerate() {
            let deleted = !staged.shard_deleted(s).is_empty();
            slot.settle(committed, staged.shard_inserted(s), deleted, engine);
        }
    }

    fn publish(
        &mut self,
        new_large: LargeItemsets,
        algorithm: &'static str,
        stats: MiningStats,
        inserted_tids: Vec<Tid>,
    ) -> MaintenanceReport {
        let old = Arc::clone(&self.state);
        self.restate(old.version + 1, new_large);
        MaintenanceReport {
            algorithm,
            version: self.state.version,
            itemsets: ItemsetDiff::between(&old.large, &self.state.large),
            rules: RuleDiff::between(&old.rules, &self.state.rules),
            inserted_tids,
            num_transactions: self.store.len() as u64,
            stats,
        }
    }

    // ------------------------------------------------------ reading --

    /// Takes a version-stamped snapshot of the current rules and
    /// itemsets — an `Arc` clone, valid (and internally consistent)
    /// forever, no matter how many commits follow.
    pub fn snapshot(&self) -> RuleSnapshot {
        RuleSnapshot {
            inner: Arc::clone(&self.state),
        }
    }

    /// The current shared state — the service layer publishes this to
    /// its readers after each commit.
    pub(crate) fn state_arc(&self) -> Arc<SnapshotState> {
        Arc::clone(&self.state)
    }

    /// The current state version (0 after bootstrap, +1 per commit).
    pub fn version(&self) -> u64 {
        self.state.version
    }

    /// The current strong rules.
    pub fn rules(&self) -> &RuleSet {
        &self.state.rules
    }

    /// The current large itemsets with support counts.
    pub fn large_itemsets(&self) -> &LargeItemsets {
        &self.state.large
    }

    /// The underlying store (read access): a [`ShardedDb`] with one shard
    /// unless [`MaintainerBuilder::shards`] asked for more.
    pub fn store(&self) -> &ShardedDb {
        &self.store
    }

    /// Number of live transactions.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The configured minimum support.
    pub fn minsup(&self) -> MinSupport {
        self.minsup
    }

    /// The configured minimum confidence.
    pub fn minconf(&self) -> MinConfidence {
        self.minconf
    }

    /// The session's FUP configuration.
    pub fn config(&self) -> &FupConfig {
        &self.config
    }

    /// The active update policy.
    pub fn policy(&self) -> UpdatePolicy {
        self.policy
    }

    /// Counters for the persistent vertical index: how often it was built
    /// from scratch vs extended in place across the session's rounds.
    /// The counters sum over the per-shard slots and `resident` is `true`
    /// while *any* shard holds an index.
    pub fn index_stats(&self) -> IndexStats {
        IndexStats {
            builds: self.slots.iter().map(|s| s.builds()).sum(),
            extends: self.slots.iter().map(|s| s.extends()).sum(),
            resident: self.slots.iter().any(|s| s.has_index()),
        }
    }

    // ---------------------------------------------- administration --

    /// Sets the incremental-vs-remine policy, rejecting a
    /// [`RemineOverRatio`](UpdatePolicy::RemineOverRatio) whose ratio is
    /// negative or NaN.
    pub fn set_policy(&mut self, policy: UpdatePolicy) -> std::result::Result<(), BuildError> {
        validate_policy(policy)?;
        self.policy = policy;
        Ok(())
    }

    /// Re-mines from scratch (Apriori) and replaces the maintained state —
    /// an escape hatch for threshold changes. Bumps the state version
    /// (logged as an empty commit boundary on a durable session, so
    /// replayed version numbers stay aligned).
    pub fn remine(&mut self) -> &LargeItemsets {
        let outcome = self.mine();
        let report = self.publish(outcome.large, "apriori-remine", outcome.stats, Vec::new());
        if let Some(log) = self.durable.clone() {
            let _ = log.log_synced(&WalRecord::Commit {
                version: report.version,
                tickets: Vec::new(),
            });
            if log.note_round(&[]) {
                let _ = self.write_durable_checkpoint(&log);
            }
        }
        &self.state.large
    }

    // ------------------------------------------------------ durability --

    /// `true` if this session writes a WAL and checkpoints (built with
    /// [`MaintainerBuilder::build_durable`] or recovered).
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Forces a checkpoint now (instead of waiting for the policy's
    /// cadence), returning its sequence number. Fails with
    /// [`Error::NotDurable`] on an in-memory session.
    pub fn checkpoint(&mut self) -> Result<u64> {
        let log = self.durable.clone().ok_or(Error::NotDurable)?;
        self.write_durable_checkpoint(&log)
    }

    /// The durable log's health, or `None` on an in-memory session. See
    /// [`LogState`](crate::durable::LogState) for what each state means.
    pub fn durability_state(&self) -> Option<crate::durable::LogState> {
        self.durable.as_ref().map(|log| log.state())
    }

    /// Attempts to heal a [`Degraded`](crate::durable::LogState::Degraded)
    /// durable log by installing a fresh checkpoint: the checkpoint
    /// embeds the session state *and* the staged backlog and rotates to
    /// a fresh WAL segment, so one atomic install supersedes whatever
    /// the suspect segment holds — nothing acknowledged is lost, and
    /// every staged record is re-logged.
    ///
    /// Returns `Ok(true)` when a heal was performed, `Ok(false)` when
    /// there was nothing to heal (healthy log, or an in-memory session),
    /// and an error when the probe failed — [`Error::Recovery`] for a
    /// poisoned log (only recovery helps), or the storage error when the
    /// checkpoint itself failed (the log stays degraded; probe again
    /// later).
    pub fn try_heal(&mut self) -> Result<bool> {
        let Some(log) = self.durable.clone() else {
            return Ok(false);
        };
        match log.state() {
            crate::durable::LogState::Healthy => Ok(false),
            crate::durable::LogState::Degraded => {
                self.write_durable_checkpoint(&log)?;
                Ok(true)
            }
            crate::durable::LogState::Poisoned => Err(Error::Recovery {
                reason: "the durable log is poisoned by a permanent storage failure; \
                         healing cannot help — recover from storage"
                    .into(),
            }),
        }
    }

    /// Everything needed to rebuild this session from its own storage —
    /// the committer supervisor uses this to respawn through the
    /// recovery path after a panic. `None` on an in-memory session.
    pub(crate) fn recovery_spec(&self) -> Option<RecoverySpec> {
        let log = self.durable.as_ref()?;
        Some(RecoverySpec {
            builder: MaintainerBuilder {
                minsup: Some(self.minsup),
                minconf: Some(self.minconf),
                config: self.config.clone(),
                policy: self.policy,
                deletions: self.deletions,
                durability: *log.policy(),
                shards: self.store.spec().clone(),
            },
            storage: Arc::clone(log.storage()),
        })
    }

    /// Encodes and installs the next checkpoint on `log`. Encoding runs
    /// inside the log's checkpoint critical section so the embedded
    /// backlog stays consistent with concurrent producer admissions
    /// (see [`DurableLog::checkpoint_with`]).
    fn write_durable_checkpoint(&mut self, log: &Arc<DurableLog>) -> Result<u64> {
        log.checkpoint_with(self.store.watermark(), |seq, base| {
            self.encode_checkpoint_image(seq, base)
        })
    }

    /// Serialises the session's durable image as checkpoint `seq` (a
    /// delta with a `base`, a full image without — see
    /// [`durable::encode_store`]), with the maintained itemsets and the
    /// staged backlog.
    fn encode_checkpoint_image(&self, seq: u64, base: Option<DeltaBase<'_>>) -> Result<Vec<u8>> {
        durable::encode_store(
            &self.store,
            seq,
            base,
            self.state.version,
            (
                (self.minsup.num(), self.minsup.den()),
                (self.minconf.num(), self.minconf.den()),
            ),
            &self.state.large,
            &self.store.staging().entries_snapshot(),
        )
    }

    /// Verifies that the incrementally-maintained itemsets equal a full
    /// re-mine and that every shard's held index equals a fresh build
    /// over that shard's rows, returning [`Error::Inconsistent`] with one
    /// line per divergence otherwise. Intended for tests and audits;
    /// scans the whole store, and each indexed shard twice more.
    pub fn verify_consistency(&self) -> Result<()> {
        let fresh = self.miner().run(&self.store, self.minsup).large;
        let mut differences = self.state.large.diff(&fresh);
        for (s, slot) in self.slots.iter().enumerate() {
            let drift = slot.drift(self.store.shard(s), &self.config.engine);
            differences.extend(drift.into_iter().map(|d| format!("shard {s} index: {d}")));
        }
        match differences.is_empty() {
            true => Ok(()),
            false => Err(Error::Inconsistent { differences }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fup_mining::{EngineConfig, GenConfig};

    fn tx(items: &[u32]) -> Transaction {
        Transaction::from_items(items.iter().copied())
    }

    fn s(items: &[u32]) -> Itemset {
        Itemset::from_items(items.iter().copied())
    }

    fn history() -> Vec<Transaction> {
        vec![
            tx(&[1, 2, 3]),
            tx(&[1, 2]),
            tx(&[2, 3]),
            tx(&[1, 3]),
            tx(&[4, 5]),
        ]
    }

    fn session() -> Maintainer {
        Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .build(history())
            .unwrap()
    }

    #[test]
    fn builder_requires_thresholds() {
        let e = Maintainer::builder().build(history()).unwrap_err();
        assert_eq!(e, BuildError::MissingMinSupport);
        let e = Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .build(history())
            .unwrap_err();
        assert_eq!(e, BuildError::MissingMinConfidence);
    }

    #[test]
    fn builder_rejects_bad_combinations() {
        let base = || {
            Maintainer::builder()
                .min_support(MinSupport::percent(40))
                .min_confidence(MinConfidence::percent(60))
        };
        let zero_chunks = FupConfig {
            engine: EngineConfig {
                chunk_size: 0,
                ..EngineConfig::default()
            },
            ..FupConfig::default()
        };
        assert_eq!(
            base().fup_config(zero_chunks).build(history()).unwrap_err(),
            BuildError::ZeroChunkSize
        );
        let capped = |k| FupConfig {
            max_k: Some(k),
            ..FupConfig::default()
        };
        assert_eq!(
            base().fup_config(capped(0)).build(history()).unwrap_err(),
            BuildError::ZeroMaxK
        );
        assert_eq!(
            base()
                .policy(UpdatePolicy::RemineOverRatio(-2.0))
                .build(history())
                .unwrap_err(),
            BuildError::InvalidRemineRatio(-2.0)
        );
    }

    #[test]
    fn builder_threads_flow_into_engine_and_gen() {
        let m = Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .fup_config(FupConfig {
                reduce_db: false,
                engine: EngineConfig {
                    chunk_size: 128,
                    ..EngineConfig::default()
                },
                ..FupConfig::default()
            })
            .threads(3)
            .backend(CountingBackend::HashTree)
            .build(history())
            .unwrap();
        assert_eq!(m.config().engine.threads, 3);
        assert_eq!(m.config().engine.gen, GenConfig { threads: 3 });
        assert_eq!(m.config().engine.chunk_size, 128);
        assert_eq!(m.config().engine.backend, CountingBackend::HashTree);
        assert!(!m.config().reduce_db);
    }

    #[test]
    fn builder_later_calls_win_over_earlier_ones() {
        let eight = || FupConfig::default().with_threads(8);
        // A wholesale fup_config() after fine-grained calls discards them...
        let m = Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .threads(2)
            .backend(CountingBackend::Vertical)
            .fup_config(eight())
            .build(history())
            .unwrap();
        assert_eq!(m.config().engine.threads, 8);
        assert_eq!(m.config().engine.backend, CountingBackend::default());
        // ...and fine-grained calls after it override individual fields.
        let m = Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .fup_config(eight())
            .threads(2)
            .build(history())
            .unwrap();
        assert_eq!(m.config().engine.threads, 2);
    }

    #[test]
    fn stage_commit_and_discard_decouple_arrival_from_application() {
        let mut m = session();
        let v0 = m.version();
        m.stage(UpdateBatch::insert_only(vec![tx(&[4, 5]), tx(&[4, 5])]))
            .unwrap();
        m.stage(UpdateBatch::insert_only(vec![tx(&[4, 5, 1])]))
            .unwrap();
        // Nothing applied yet: reads and the store are untouched.
        assert_eq!(m.len(), 5);
        assert_eq!(m.version(), v0);
        assert!(m.has_staged());
        assert_eq!(m.staged().inserts.len(), 3);

        let report = m.commit().unwrap();
        assert_eq!(report.algorithm, "fup");
        assert_eq!(report.version, v0 + 1);
        assert_eq!(report.num_transactions, 8);
        assert_eq!(report.inserted_tids.len(), 3);
        assert!(report.itemsets.emerged.contains(&s(&[4, 5])));
        assert!(!m.has_staged());
        m.verify_consistency().unwrap();

        // Discard drops staged work without touching anything.
        m.stage(UpdateBatch::insert_only(vec![tx(&[9, 9])]))
            .unwrap();
        let dropped = m.discard();
        assert_eq!(dropped.inserts.len(), 1);
        assert_eq!(m.len(), 8);
        assert_eq!(m.version(), v0 + 1);
    }

    #[test]
    fn snapshots_are_versioned_and_survive_commits() {
        let mut m = session();
        let snap0 = m.snapshot();
        assert_eq!(snap0.version(), 0);
        assert_eq!(snap0.num_transactions(), 5);
        let rules_before = snap0.rules().clone();

        m.apply(UpdateBatch::insert_only(vec![
            tx(&[4, 5]),
            tx(&[4, 5]),
            tx(&[4, 5, 1]),
        ]))
        .unwrap();

        // The old snapshot still reads its own consistent state...
        assert_eq!(snap0.version(), 0);
        assert_eq!(snap0.num_transactions(), 5);
        assert_eq!(snap0.rules(), &rules_before);
        assert_eq!(snap0.support_of(&s(&[1, 2])), Some(2));
        assert_eq!(snap0.support_of(&s(&[4, 5])), None); // 1/5 < 40 %
                                                         // ...while a fresh snapshot sees the new version.
        let snap1 = m.snapshot();
        assert_eq!(snap1.version(), 1);
        assert_eq!(snap1.num_transactions(), 8);
        assert_eq!(snap1.support_of(&s(&[4, 5])), Some(4));
        assert_eq!(snap1.min_support(), MinSupport::percent(40));
        assert_eq!(snap1.min_confidence(), MinConfidence::percent(60));
    }

    #[test]
    fn snapshot_query_layer_matches_raw_ruleset() {
        let mut m = session();
        m.apply(UpdateBatch::insert_only(vec![
            tx(&[4, 5]),
            tx(&[4, 5]),
            tx(&[4, 5]),
        ]))
        .unwrap();
        let snap = m.snapshot();

        for rule in snap.rules().rules() {
            let about = snap.rules_about(rule.antecedent.items()[0]);
            assert!(about.contains(&rule), "{rule}");
            let with = snap.rules_with_antecedent(&rule.antecedent);
            assert!(with.iter().all(|r| r.antecedent == rule.antecedent));
            assert!(with.contains(&rule));
        }
        // rules_about covers consequent mentions too.
        for rule in snap.rules().rules() {
            let about = snap.rules_about(rule.consequent.items()[0]);
            assert!(about.contains(&rule));
        }
        // top-k is sorted by confidence and bounded by the rule count.
        let top = snap.top_k_by_confidence(3);
        assert!(top.len() <= 3);
        for w in top.windows(2) {
            assert!(w[0].confidence() >= w[1].confidence());
        }
        let all = snap.top_k_by_confidence(usize::MAX);
        assert_eq!(all.len(), snap.rules().len());
        // Unknown lookups are empty, not panics.
        assert!(snap.rules_about(ItemId(999)).is_empty());
        assert!(snap.rules_with_antecedent(&s(&[77, 78])).is_empty());
        assert!(snap.rules_with_antecedent(&s(&[])).is_empty());
        assert_eq!(snap.support_of(&s(&[77])), None);
    }

    #[test]
    fn deletions_route_to_fup2_and_empty_commit_is_noop_round() {
        let mut m = session();
        let tid0 = m.store().iter().next().unwrap().0;
        let report = m
            .apply(UpdateBatch {
                inserts: vec![tx(&[4, 5])],
                deletes: vec![tid0],
            })
            .unwrap();
        assert_eq!(report.algorithm, "fup2");
        assert_eq!(report.num_transactions, 5);
        m.verify_consistency().unwrap();

        let v = m.version();
        let report = m.commit().unwrap();
        assert_eq!(report.version, v + 1);
        assert!(report.itemsets.is_unchanged());
        assert!(report.rules.is_unchanged());
    }

    #[test]
    fn deletions_disabled_sessions_reject_delete_batches() {
        let mut m = Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .deletions(false)
            .build(history())
            .unwrap();
        let tid0 = m.store().iter().next().unwrap().0;
        let err = m.stage(UpdateBatch::delete_only(vec![tid0])).unwrap_err();
        assert_eq!(err, Error::DeletionsDisabled);
        assert!(!m.has_staged());
        // Inserts still flow.
        m.apply(UpdateBatch::insert_only(vec![tx(&[1, 2])]))
            .unwrap();
        m.verify_consistency().unwrap();
    }

    #[test]
    fn failed_commit_leaves_state_and_version_intact() {
        let mut m = session();
        let v = m.version();
        let rules_before = m.rules().len();
        // Arrival-time validation: unknown tid fails at stage.
        let err = m
            .stage(UpdateBatch::delete_only(vec![Tid(12345)]))
            .unwrap_err();
        assert!(matches!(err, Error::Store(_)));
        assert_eq!(m.len(), 5);
        assert_eq!(m.version(), v);
        assert_eq!(m.rules().len(), rules_before);
        m.verify_consistency().unwrap();
    }

    #[test]
    fn set_policy_validates_and_routes() {
        let mut m = session();
        assert_eq!(
            m.set_policy(UpdatePolicy::RemineOverRatio(-1.0))
                .unwrap_err(),
            BuildError::InvalidRemineRatio(-1.0)
        );
        assert_eq!(m.policy(), UpdatePolicy::AlwaysIncremental);
        m.set_policy(UpdatePolicy::RemineOverRatio(2.0)).unwrap();
        assert_eq!(m.policy(), UpdatePolicy::RemineOverRatio(2.0));
        // Small batch: incremental; huge batch: re-mine.
        let r = m
            .apply(UpdateBatch::insert_only(vec![tx(&[1, 2])]))
            .unwrap();
        assert_eq!(r.algorithm, "fup");
        let big: Vec<Transaction> = (0..13).map(|_| tx(&[1, 2, 9])).collect();
        let r = m.apply(UpdateBatch::insert_only(big)).unwrap();
        assert_eq!(r.algorithm, "apriori-remine");
        m.verify_consistency().unwrap();
        assert!(m.large_itemsets().contains(&s(&[1, 2, 9])));
    }

    fn capped(k: usize) -> MaintainerBuilder {
        Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .fup_config(FupConfig {
                max_k: Some(k),
                ..FupConfig::default()
            })
    }

    #[test]
    fn capped_sessions_mine_only_levels_up_to_max_k() {
        // Uncapped, this history holds three level-2 itemsets at 40 %.
        assert_eq!(session().large_itemsets().len_at(2), 3);
        let mut m = capped(1).build(history()).unwrap();
        assert_eq!(m.large_itemsets().max_size(), 1, "version 0 is capped");
        m.apply(UpdateBatch::insert_only(vec![tx(&[1, 2])]))
            .unwrap();
        assert_eq!(m.version(), 1);
        assert_eq!(m.large_itemsets().max_size(), 1, "version 1 is capped");
        m.remine();
        assert_eq!(m.large_itemsets().max_size(), 1, "a re-mine is capped");
        m.verify_consistency().unwrap();
    }

    #[test]
    fn capped_remine_policy_matches_incremental_rounds() {
        let mut incremental = capped(2).build(history()).unwrap();
        let mut remining = capped(2)
            .policy(UpdatePolicy::AlwaysRemine)
            .build(history())
            .unwrap();
        let rounds = [
            UpdateBatch::insert_only(vec![
                tx(&[1, 2, 3]),
                tx(&[1, 2, 3]),
                tx(&[1, 2, 3]),
                tx(&[2, 3]),
            ]),
            UpdateBatch {
                inserts: vec![tx(&[1, 2, 3, 4])],
                deletes: vec![Tid(4)],
            },
            UpdateBatch::delete_only(vec![Tid(0), Tid(5)]),
        ];
        for batch in rounds {
            incremental.apply(batch.clone()).unwrap();
            let r = remining.apply(batch).unwrap();
            assert_eq!(r.algorithm, "apriori-remine");
            assert_same_published_state(&incremental, &remining);
            assert!(remining.large_itemsets().max_size() <= 2);
            remining.verify_consistency().unwrap();
        }
        // The cap is what kept level 3 out: uncapped, it is large.
        let mut uncapped = session();
        assert!(uncapped.large_itemsets().max_size() <= 2);
        uncapped
            .apply(UpdateBatch::insert_only(vec![
                tx(&[1, 2, 3]),
                tx(&[1, 2, 3]),
                tx(&[1, 2, 3]),
                tx(&[2, 3]),
            ]))
            .unwrap();
        assert_eq!(uncapped.large_itemsets().max_size(), 3);
    }

    #[test]
    fn persistent_index_extends_on_insert_only_commits() {
        let mut m = Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .backend(CountingBackend::Vertical)
            .build(history())
            .unwrap();
        // Pinned-vertical sessions seed the index at bootstrap.
        let stats = m.index_stats();
        assert_eq!((stats.builds, stats.extends), (1, 0));
        assert!(stats.resident);

        for round in 0..3 {
            m.apply(UpdateBatch::insert_only(vec![tx(&[1, 2]), tx(&[2, 3])]))
                .unwrap();
            m.verify_consistency().unwrap();
            let stats = m.index_stats();
            assert_eq!(
                (stats.builds, stats.extends),
                (1, round + 1),
                "round {round} should extend, not rebuild"
            );
        }

        // A deletion reorders the live set: the index is rebuilt, not
        // poisoned.
        let tid0 = m.store().iter().next().unwrap().0;
        m.apply(UpdateBatch::delete_only(vec![tid0])).unwrap();
        m.verify_consistency().unwrap();
        assert_eq!(m.index_stats().builds, 2);
        // And insert-only rounds extend again afterwards.
        let extends = m.index_stats().extends;
        m.apply(UpdateBatch::insert_only(vec![tx(&[2, 3])]))
            .unwrap();
        m.verify_consistency().unwrap();
        assert_eq!(m.index_stats().extends, extends + 1);
    }

    /// `n` rows of four distinct items drawn from `0..30` (xorshift on
    /// `seed`), each with `extra` appended.
    fn random_rows(n: usize, seed: u64, extra: &[u32]) -> Vec<Transaction> {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 30) as u32
        };
        (0..n)
            .map(|_| {
                let mut items: Vec<u32> = extra.to_vec();
                while items.len() < extra.len() + 4 {
                    let x = next();
                    if !items.contains(&x) {
                        items.push(x);
                    }
                }
                Transaction::from_items(items)
            })
            .collect()
    }

    /// A warm `Auto` round counts `C₁` and every `k ≥ 2` pass through the
    /// held index, extended by the delta, even when its DHP pool is far
    /// below `AUTO_MIN_CANDIDATES`: the store is never scanned.
    #[test]
    fn a_warm_insert_round_reads_no_base_rows() {
        // 5 000 rows over items 0..30 (each ≈ 13 %, every pair ≈ 1.4 %),
        // item 41 in 239 of them: just under 5 % support. At one shard the
        // bootstrap mine (435 C₂ pairs) goes vertical and its L₁-filtered
        // index is adopted.
        let mut history = random_rows(5_000, 1996, &[]);
        for t in history.iter_mut().step_by(21) {
            *t = Transaction::from_items(t.items().iter().map(|x| x.0).chain([41]));
        }
        // The warm-up round: item 40 becomes large (the adopted index's
        // one miss and rebuild), and 300 pairs over 0..25 pass DHP, so a
        // multi-shard session, holding no index yet, engages cold.
        let mut warm_up: Vec<Transaction> = vec![Transaction::from_items([40u32]); 300];
        warm_up.extend(vec![Transaction::from_items(0u32..25); 50]);
        // Three small rounds: their k = 2 pools stay far below
        // `AUTO_MIN_CANDIDATES`, so only the held index makes them vertical.
        let rounds = [
            random_rows(20, 7, &[]),
            // Item 41 becomes large: 239 + 60 of 5 430 rows.
            random_rows(60, 11, &[41]),
            random_rows(20, 13, &[]),
        ];

        for shards in [1u32, 4] {
            let builder = |backend| {
                Maintainer::builder()
                    .min_support(MinSupport::percent(5))
                    .min_confidence(MinConfidence::percent(60))
                    .backend(backend)
                    .shards(shards)
            };
            let mut auto = builder(CountingBackend::Auto)
                .build(history.clone())
                .unwrap();
            let mut pinned = builder(CountingBackend::HashTree)
                .build(history.clone())
                .unwrap();
            if shards == 1 {
                assert_eq!(auto.index_stats().builds, 1, "the mine's index is adopted");
            }
            auto.apply(UpdateBatch::insert_only(warm_up.clone()))
                .unwrap();
            pinned
                .apply(UpdateBatch::insert_only(warm_up.clone()))
                .unwrap();
            assert!(auto.large_itemsets().contains(&s(&[40])));
            assert_eq!(
                auto.index_stats().builds,
                if shards == 1 { 2 } else { u64::from(shards) },
                "{shards} shard(s): one build per shard after the warm-up"
            );

            for (i, batch) in rounds.iter().enumerate() {
                let scans = auto.store().metrics().full_scans();
                let read = auto.store().metrics().transactions_read();
                let index = auto.index_stats();
                let report = auto.apply(UpdateBatch::insert_only(batch.clone())).unwrap();
                pinned
                    .apply(UpdateBatch::insert_only(batch.clone()))
                    .unwrap();
                let ctx = format!("{shards} shard(s), round {i}");
                assert!(
                    report.stats.passes[1].candidates_checked
                        < fup_mining::vertical::AUTO_MIN_CANDIDATES as u64,
                    "{ctx}: the k = 2 pool must stay below the cold threshold"
                );
                assert_eq!(auto.store().metrics().full_scans(), scans, "{ctx}");
                assert_eq!(auto.store().metrics().transactions_read(), read, "{ctx}");
                let after = auto.index_stats();
                assert_eq!(after.builds, index.builds, "{ctx}: no rebuild");
                let spec = auto.store().spec();
                let fed: std::collections::HashSet<usize> = report
                    .inserted_tids
                    .iter()
                    .map(|&t| spec.shard_of(t))
                    .collect();
                assert_eq!(
                    after.extends,
                    index.extends + fed.len() as u64,
                    "{ctx}: every shard that receives rows extends"
                );
                assert_same_session(&auto, &pinned);
                assert_eq!(auto.large_itemsets(), pinned.large_itemsets(), "{ctx}");
            }
            assert!(auto.large_itemsets().contains(&s(&[41])));
            auto.verify_consistency().unwrap();
        }
    }

    #[test]
    fn remine_bumps_version_and_resets_state() {
        let mut m = session();
        m.apply(UpdateBatch::insert_only(vec![tx(&[7, 8]), tx(&[7, 8])]))
            .unwrap();
        let before = m.large_itemsets().clone();
        let v = m.version();
        m.remine();
        assert!(m.large_itemsets().same_itemsets(&before));
        assert_eq!(m.version(), v + 1);
    }

    #[test]
    fn empty_bootstrap() {
        let m = Maintainer::builder()
            .min_support(MinSupport::percent(50))
            .min_confidence(MinConfidence::percent(50))
            .build(Vec::new())
            .unwrap();
        assert!(m.is_empty());
        assert!(m.rules().is_empty());
        assert_eq!(m.snapshot().version(), 0);
    }

    // ------------------------------------------------- durability --

    fn mem() -> Arc<fup_tidb::MemStorage> {
        Arc::new(fup_tidb::MemStorage::new())
    }

    fn durable_session(storage: Arc<fup_tidb::MemStorage>) -> Maintainer {
        Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .build_durable(history(), storage)
            .unwrap()
    }

    fn assert_same_published_state(a: &Maintainer, b: &Maintainer) {
        assert_eq!(a.version(), b.version(), "state versions diverge");
        assert_eq!(a.len(), b.len(), "live set sizes diverge");
        assert!(
            a.large_itemsets().same_itemsets(b.large_itemsets()),
            "itemsets diverge: {:?}",
            a.large_itemsets().diff(b.large_itemsets())
        );
        assert_eq!(a.rules().len(), b.rules().len(), "rule counts diverge");
        let mut live_a: Vec<_> = a.store().iter().map(|(t, x)| (t, x.clone())).collect();
        let mut live_b: Vec<_> = b.store().iter().map(|(t, x)| (t, x.clone())).collect();
        live_a.sort_unstable_by_key(|&(t, _)| t);
        live_b.sort_unstable_by_key(|&(t, _)| t);
        assert_eq!(live_a, live_b, "live transactions diverge");
    }

    #[test]
    fn build_durable_writes_initial_checkpoint_and_refuses_nonempty_storage() {
        let storage = mem();
        let m = durable_session(Arc::clone(&storage));
        assert!(m.is_durable());
        let names = storage.list().unwrap();
        assert!(names.contains(&"ckpt-00000000".to_string()), "{names:?}");
        assert!(names.contains(&"wal-00000000".to_string()), "{names:?}");
        let err = Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .build_durable(history(), storage)
            .unwrap_err();
        assert!(matches!(err, Error::Recovery { .. }));
    }

    #[test]
    fn recover_reproduces_committed_state_and_requeues_staged_batches() {
        let storage = mem();
        let mut m = durable_session(Arc::clone(&storage));
        m.stage(UpdateBatch::insert_only(vec![tx(&[1, 2]), tx(&[2, 3])]))
            .unwrap();
        m.commit().unwrap();
        m.stage(UpdateBatch::delete_only(vec![Tid(4)])).unwrap();
        m.commit().unwrap();
        // Staged but never committed: must come back as staged.
        m.stage(UpdateBatch::insert_only(vec![tx(&[4, 5])]))
            .unwrap();
        let expected_version = m.version();
        let expected_pending = m.staged();

        // "Crash": drop the session, keep only the storage bytes.
        let image = Arc::new(fup_tidb::MemStorage::from_files(storage.files()));
        drop(m);
        let (r, report) = Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .recover(Arc::clone(&image) as Arc<dyn DurableStorage>)
            .unwrap();
        assert_eq!(report.version, expected_version);
        assert_eq!(report.replayed_rounds, 2);
        assert_eq!(report.restaged_batches, 1);
        assert!(report.wal_tail_dropped.is_none());
        assert_eq!(r.staged(), expected_pending);
        assert_eq!(r.version(), expected_version);
        r.verify_consistency().unwrap();
    }

    #[test]
    fn recovered_session_matches_an_uncrashed_run_after_more_commits() {
        // Reference run, never crashed.
        let storage_a = mem();
        let mut a = durable_session(Arc::clone(&storage_a));
        // Crashing run with the same inputs.
        let storage_b = mem();
        let mut b = durable_session(Arc::clone(&storage_b));

        for m in [&mut a, &mut b] {
            m.stage(UpdateBatch::insert_only(vec![tx(&[1, 2, 3]), tx(&[3])]))
                .unwrap();
            m.commit().unwrap();
            m.stage(UpdateBatch {
                inserts: vec![tx(&[2, 3])],
                deletes: vec![Tid(0)],
            })
            .unwrap();
            m.commit().unwrap();
        }
        let image = Arc::new(fup_tidb::MemStorage::from_files(storage_b.files()));
        drop(b);
        let (mut r, _) = Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .recover(image as Arc<dyn DurableStorage>)
            .unwrap();
        assert_same_published_state(&a, &r);

        // The recovered session keeps working — and stays equal to the
        // uncrashed one round for round.
        for m in [&mut a, &mut r] {
            m.stage(UpdateBatch::insert_only(vec![tx(&[1, 3]), tx(&[1, 2])]))
                .unwrap();
            m.commit().unwrap();
        }
        assert_same_published_state(&a, &r);
        r.verify_consistency().unwrap();
    }

    #[test]
    fn recover_rejects_mismatched_thresholds() {
        let storage = mem();
        let _m = durable_session(Arc::clone(&storage));
        let err = Maintainer::builder()
            .min_support(MinSupport::percent(50))
            .min_confidence(MinConfidence::percent(60))
            .recover(storage as Arc<dyn DurableStorage>)
            .unwrap_err();
        assert!(matches!(err, Error::Recovery { .. }), "{err:?}");
    }

    #[test]
    fn explicit_checkpoint_requires_durability() {
        let mut m = session();
        assert!(!m.is_durable());
        assert!(matches!(m.checkpoint(), Err(Error::NotDurable)));

        let storage = mem();
        let mut d = durable_session(Arc::clone(&storage));
        let seq = d.checkpoint().unwrap();
        assert_eq!(seq, 1);
        assert!(storage
            .list()
            .unwrap()
            .contains(&"ckpt-00000001".to_string()));
    }

    #[test]
    fn checkpoint_cadence_rotates_wal_segments() {
        let storage = mem();
        let mut m = Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .durability(DurabilityPolicy {
                checkpoint_every_rounds: 2,
                retain_checkpoints: 2,
                ..Default::default()
            })
            .build_durable(history(), Arc::clone(&storage) as Arc<dyn DurableStorage>)
            .unwrap();
        let initial = "ckpt-00000000".to_string();
        let mut rounds = 0u32;
        let mut two_rounds = |m: &mut Maintainer| {
            for _ in 0..2 {
                m.stage(UpdateBatch::insert_only(vec![tx(&[1, 2 + rounds % 5])]))
                    .unwrap();
                m.commit().unwrap();
                rounds += 1;
            }
        };
        two_rounds(&mut m);
        two_rounds(&mut m);
        let names = storage.list().unwrap();
        assert!(names.contains(&"ckpt-00000002".to_string()), "{names:?}");
        assert!(
            names.contains(&initial),
            "the full image the deltas extend is retained: {names:?}"
        );
        // Once the deltas outgrow it, full images are cut; two more put
        // the initial pair beyond retention.
        for _ in 0..32 {
            if !storage.list().unwrap().contains(&initial) {
                break;
            }
            two_rounds(&mut m);
        }
        let names = storage.list().unwrap();
        assert!(
            !names.contains(&initial) && !names.contains(&"wal-00000000".to_string()),
            "initial pair beyond retention must be collected: {names:?}"
        );
        // Recovery from the rotated layout still works.
        let image = Arc::new(fup_tidb::MemStorage::from_files(storage.files()));
        let (r, report) = Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .recover(image as Arc<dyn DurableStorage>)
            .unwrap();
        assert_eq!(r.version(), m.version());
        assert_eq!(report.replayed_rounds, 0, "checkpoint covers every round");
        r.verify_consistency().unwrap();
    }

    #[test]
    fn a_degraded_commit_boundary_heals_with_a_full_image() {
        // The round's Commit boundary outlives the retry budget, so the
        // inline heal checkpoint acknowledges it. The log never counted
        // that round's delete: a delta heal would resurrect the row.
        let storage = mem();
        let flaky = Arc::new(fup_tidb::FlakyStorage::new(
            Arc::clone(&storage) as Arc<dyn DurableStorage>
        ));
        let retry = crate::durable::RetryPolicy::attempts(2)
            .backoff(std::time::Duration::ZERO, std::time::Duration::ZERO);
        let builder = || {
            Maintainer::builder()
                .min_support(MinSupport::percent(40))
                .min_confidence(MinConfidence::percent(60))
        };
        let mut m = builder()
            .durability(DurabilityPolicy::default().with_retry(retry))
            .build_durable(history(), Arc::clone(&flaky) as Arc<dyn DurableStorage>)
            .unwrap();
        m.stage(UpdateBatch::delete_only(vec![Tid(0)])).unwrap();
        flaky.fail_next(fup_tidb::OpClass::Append, 2);
        m.commit().unwrap();
        assert_eq!(
            m.durability_state(),
            Some(crate::durable::LogState::Healthy)
        );
        let image = Arc::new(fup_tidb::MemStorage::from_files(storage.files()));
        let (r, _) = builder().recover(image as Arc<dyn DurableStorage>).unwrap();
        assert_same_published_state(&m, &r);
    }

    #[test]
    fn durable_commit_failure_poisons_the_session() {
        let storage = mem();
        let mut m = durable_session(Arc::clone(&storage));
        m.stage(UpdateBatch::insert_only(vec![tx(&[7, 8])]))
            .unwrap();
        storage.fail_after(0, 0); // every storage op now dies
        let err = m.commit().unwrap_err();
        assert!(
            matches!(err, Error::Store(fup_tidb::Error::Io { .. })),
            "{err:?}"
        );
        storage.revive();
        // The log is poisoned: later durable work fails fast.
        let err = m
            .stage(UpdateBatch::insert_only(vec![tx(&[9])]))
            .unwrap_err();
        assert!(matches!(err, Error::Recovery { .. }), "{err:?}");
    }

    #[test]
    fn remine_logs_a_version_boundary() {
        let storage = mem();
        let mut m = durable_session(Arc::clone(&storage));
        m.remine();
        assert_eq!(m.version(), 1);
        let image = Arc::new(fup_tidb::MemStorage::from_files(storage.files()));
        let (r, _) = Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .recover(image as Arc<dyn DurableStorage>)
            .unwrap();
        assert_eq!(r.version(), 1, "the re-mine's version bump must survive");
    }

    /// One step of the replay script: a committed batch, or a `remine()`
    /// (an empty commit boundary in the WAL).
    enum Step {
        Apply(UpdateBatch),
        Remine,
    }

    /// Eight committed rounds over `history()` (tids 0–4): inserts, mixed
    /// rounds, a re-mine, and deletes of rows inserted earlier in the same
    /// tail (tid 5 in step 3, tid 9 in step 5, tid 11 in step 7).
    fn replay_script() -> Vec<Step> {
        vec![
            Step::Apply(UpdateBatch::insert_only(vec![
                tx(&[1, 2, 3]),
                tx(&[1, 2, 3]),
            ])),
            Step::Apply(UpdateBatch {
                inserts: vec![tx(&[2, 3, 4])],
                deletes: vec![Tid(0)],
            }),
            Step::Remine,
            Step::Apply(UpdateBatch {
                inserts: vec![tx(&[1, 2])],
                deletes: vec![Tid(5)],
            }),
            Step::Apply(UpdateBatch::insert_only(vec![tx(&[4, 5]), tx(&[4, 5])])),
            Step::Apply(UpdateBatch {
                inserts: vec![tx(&[1, 3])],
                deletes: vec![Tid(9)],
            }),
            Step::Apply(UpdateBatch::insert_only(vec![tx(&[1, 2, 3, 4])])),
            Step::Apply(UpdateBatch::delete_only(vec![Tid(2), Tid(11)])),
        ]
    }

    /// A durable session over `history()` whose WAL keeps every round
    /// (no checkpoint after `ckpt-0`), so recovery replays all of them.
    fn tail_builder(shards: u32, max_k: Option<usize>) -> MaintainerBuilder {
        Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .fup_config(FupConfig {
                max_k,
                ..FupConfig::default()
            })
            .shards(shards)
            .durability(DurabilityPolicy {
                checkpoint_every_rounds: u64::MAX,
                ..Default::default()
            })
    }

    /// Commits the first `rounds` steps of the replay script on a fresh
    /// durable session, stages one batch that never commits, and returns
    /// the uncrashed session with its storage.
    fn run_tail(
        builder: MaintainerBuilder,
        rounds: usize,
    ) -> (Maintainer, Arc<fup_tidb::MemStorage>) {
        let storage = mem();
        let mut m = builder
            .build_durable(history(), Arc::clone(&storage) as Arc<dyn DurableStorage>)
            .unwrap();
        for step in replay_script().into_iter().take(rounds) {
            match step {
                Step::Apply(batch) => {
                    m.apply(batch).unwrap();
                }
                Step::Remine => {
                    m.remine();
                }
            }
        }
        m.stage(UpdateBatch::insert_only(vec![tx(&[6, 7])]))
            .unwrap();
        (m, storage)
    }

    fn crash_and_recover(
        builder: MaintainerBuilder,
        storage: &fup_tidb::MemStorage,
    ) -> (Maintainer, RecoveryReport) {
        let image = Arc::new(fup_tidb::MemStorage::from_files(storage.files()));
        builder.recover(image as Arc<dyn DurableStorage>).unwrap()
    }

    #[test]
    fn replayed_tails_recover_the_uncrashed_state() {
        for shards in [1, 4] {
            for max_k in [None, Some(2)] {
                for rounds in [0, 1, 4, 8] {
                    let what = format!("{shards} shard(s), max_k {max_k:?}, {rounds} round(s)");
                    let (mut m, storage) = run_tail(tail_builder(shards, max_k), rounds);
                    let (mut r, report) = crash_and_recover(tail_builder(shards, max_k), &storage);
                    assert_eq!(report.replayed_rounds, rounds as u64, "{what}");
                    assert_eq!(report.restaged_batches, 1, "{what}");
                    assert_eq!(report.version, rounds as u64, "{what}");
                    assert_same_published_state(&m, &r);
                    assert_eq!(m.rules(), r.rules(), "{what}");
                    assert_eq!(m.staged(), r.staged(), "{what}");
                    if let Some(k) = max_k {
                        assert!(r.large_itemsets().max_size() <= k, "{what}");
                    }
                    r.verify_consistency().unwrap();
                    // Both commit the re-staged batch and one more round
                    // and stay equal.
                    for s in [&mut m, &mut r] {
                        s.commit().unwrap();
                        s.apply(UpdateBatch::insert_only(vec![tx(&[1, 2, 3])]))
                            .unwrap();
                    }
                    assert_same_published_state(&m, &r);
                    r.verify_consistency().unwrap();
                }
            }
        }
    }

    #[test]
    fn one_shard_recovery_adopts_the_replay_mine_index() {
        let pinned = || tail_builder(1, None).backend(CountingBackend::Vertical);
        let (_m, storage) = run_tail(pinned(), 4);
        let (mut r, report) = crash_and_recover(pinned(), &storage);
        assert_eq!(report.replayed_rounds, 4);
        let stats = r.index_stats();
        assert!(stats.resident, "the recovery mine's index is kept");
        assert_eq!(stats.builds, 1, "the adopted index is the only build");
        r.commit().unwrap();
        r.apply(UpdateBatch::insert_only(vec![tx(&[1, 2])]))
            .unwrap();
        let after = r.index_stats();
        assert_eq!(after.builds, stats.builds, "insert commits do not build");
        assert_eq!(after.extends, stats.extends + 2, "they extend");
        r.verify_consistency().unwrap();
    }

    #[test]
    fn recovery_scans_the_store_the_same_for_any_tail_length() {
        // Pinned vertical: the mine's scans (item counts, then the fused
        // index build) do not depend on how deep the itemsets go.
        let pinned = || tail_builder(1, None).backend(CountingBackend::Vertical);
        let scans = |rounds| {
            let (_m, storage) = run_tail(pinned(), rounds);
            let (r, report) = crash_and_recover(pinned(), &storage);
            assert_eq!(report.replayed_rounds, rounds as u64);
            r.store().metrics().full_scans()
        };
        assert_eq!(scans(1), scans(8));
    }

    // --------------------------------------------- the recovery seal --

    /// A durable session at the default eight-round checkpoint cadence.
    fn cadence_builder(shards: u32) -> MaintainerBuilder {
        Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .shards(shards)
    }

    /// Round `i` after a recovery: two inserts, plus a delete of a history
    /// row on rounds 2 and 6 and of the row round 6 inserted last on
    /// round 7 (`watermark` is the store's before the round).
    fn round_after(i: u32, watermark: u64) -> UpdateBatch {
        let deletes = match i {
            2 => vec![Tid(1)],
            6 => vec![Tid(3)],
            7 => vec![Tid(watermark - 1)],
            _ => Vec::new(),
        };
        UpdateBatch {
            inserts: vec![tx(&[1, 2, 3 + i % 3]), tx(&[2, 4])],
            deletes,
        }
    }

    /// A power-loss image of `storage`: only what reached a sync barrier.
    fn power_cut(storage: &fup_tidb::MemStorage) -> Arc<fup_tidb::MemStorage> {
        Arc::new(fup_tidb::MemStorage::from_files(storage.synced_files()))
    }

    /// Published state, rules and the staged backlog all agree.
    fn assert_same_session(a: &Maintainer, b: &Maintainer) {
        assert_same_published_state(a, b);
        assert_eq!(a.rules(), b.rules(), "rules diverge");
        assert_eq!(a.staged(), b.staged(), "backlogs diverge");
    }

    /// Every checkpoint file in `storage` that decodes, in sequence order.
    fn checkpoints(storage: &fup_tidb::MemStorage) -> Vec<durable::CheckpointImage> {
        let mut files: Vec<_> = storage
            .files()
            .into_iter()
            .filter(|(name, _)| name.starts_with("ckpt-"))
            .collect();
        files.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        files
            .iter()
            .filter_map(|(_, bytes)| durable::decode_checkpoint(bytes).ok())
            .collect()
    }

    fn newest_checkpoint(storage: &fup_tidb::MemStorage) -> durable::CheckpointImage {
        checkpoints(storage).pop().expect("a checkpoint")
    }

    #[test]
    fn the_recovery_seal_is_a_delta_on_the_chosen_checkpoint() {
        let (m, storage) = run_tail(cadence_builder(1), 4);
        let image = power_cut(&storage);
        let (_r, report) = cadence_builder(1)
            .recover(Arc::clone(&image) as Arc<dyn DurableStorage>)
            .unwrap();
        assert_eq!(report.checkpoint_seq, 0);
        let seal = newest_checkpoint(&image);
        assert_eq!(seal.seq, 1);
        assert_eq!(
            seal.parent,
            Some(durable::Parent {
                seq: 0,
                watermark: history().len() as u64,
            })
        );
        // It holds the tail alone: the rows the replayed rounds inserted
        // and kept, and every tid they deleted.
        let tail_rows = m
            .store()
            .iter()
            .filter(|(tid, _)| tid.0 >= history().len() as u64)
            .count();
        assert_eq!(seal.live.len(), tail_rows);
        assert_eq!(seal.tombstones, vec![Tid(0), Tid(5)]);
        assert_eq!(seal.version, m.version());
    }

    #[test]
    fn a_recovered_session_survives_a_second_power_cut() {
        for shards in [1, 4] {
            for k in [0u32, 1, 9] {
                let what = format!("{shards} shard(s), {k} round(s) between the crashes");
                let (mut m, storage) = run_tail(cadence_builder(shards), 4);
                let image = power_cut(&storage);
                let (mut r, _) = cadence_builder(shards)
                    .recover(Arc::clone(&image) as Arc<dyn DurableStorage>)
                    .unwrap();
                let seal = newest_checkpoint(&image).seq;
                for i in 0..k {
                    let batch = round_after(i, m.store().watermark());
                    for s in [&mut m, &mut r] {
                        s.apply(batch.clone()).unwrap();
                    }
                }
                for s in [&mut m, &mut r] {
                    s.stage(UpdateBatch::insert_only(vec![tx(&[3, 4])]))
                        .unwrap();
                }
                drop(r);
                let (r2, report) = cadence_builder(shards)
                    .recover(power_cut(&image) as Arc<dyn DurableStorage>)
                    .unwrap();
                // Nine rounds cross the cadence: the second recovery starts
                // from the checkpoint written after the seal.
                let expect_from = if k >= 8 { seal + 1 } else { seal };
                assert_eq!(report.checkpoint_seq, expect_from, "{what}");
                assert_eq!(report.version, m.version(), "{what}");
                assert_same_session(&m, &r2);
                r2.verify_consistency().unwrap();
            }
        }
    }

    #[test]
    fn the_full_cut_rule_resumes_across_a_crash() {
        let builder = || {
            Maintainer::builder()
                .min_support(MinSupport::percent(40))
                .min_confidence(MinConfidence::percent(60))
                .durability(DurabilityPolicy {
                    checkpoint_every_rounds: 2,
                    ..Default::default()
                })
        };
        // A 240-row base and rounds of ten rows: a delta's rows outweigh
        // the itemsets and header every checkpoint carries, so a seal with
        // no rows is small beside the margin of a chain one delta short of
        // the cut.
        let base: Vec<Transaction> = (0..240u32)
            .map(|i| tx(&[1 + i % 2, 3 + i % 4, 7 + i % 10]))
            .collect();
        let round = |i: u64| {
            UpdateBatch::insert_only(
                (0..10u32).map(|j| tx(&[1 + j % 2, 3 + (i as u32 + j) % 4, 7 + j])),
            )
        };
        // The versions at which a run cut a full image after `ckpt-0`.
        let fulls = |storage: &fup_tidb::MemStorage| -> Vec<u64> {
            checkpoints(storage)
                .iter()
                .filter(|c| c.seq > 0 && c.parent.is_none())
                .map(|c| c.version)
                .collect()
        };

        // Uncrashed: commit until the deltas outgrow `ckpt-0` and a full
        // image is cut.
        let storage = mem();
        let mut m = builder()
            .build_durable(
                base.clone(),
                Arc::clone(&storage) as Arc<dyn DurableStorage>,
            )
            .unwrap();
        while fulls(&storage).is_empty() {
            m.apply(round(m.version())).unwrap();
            assert!(m.version() < 200, "the deltas never outgrew ckpt-0");
        }
        let cut = fulls(&storage)[0];
        assert_eq!(cut, m.version());
        // One delta short of the cut: after the checkpoint two cadences
        // before the full image, the next delta crosses the threshold.
        let crash_at = cut - 4;
        assert!(crash_at >= 2, "the chain holds deltas before the crash");

        // Crashed: the same rounds, a power cut right after the checkpoint
        // at `crash_at`, recovery, then the rest of the rounds.
        let storage = mem();
        let mut b = builder()
            .build_durable(base, Arc::clone(&storage) as Arc<dyn DurableStorage>)
            .unwrap();
        for v in 0..crash_at {
            b.apply(round(v)).unwrap();
        }
        drop(b);
        let image = power_cut(&storage);
        let (mut r, report) = builder()
            .recover(Arc::clone(&image) as Arc<dyn DurableStorage>)
            .unwrap();
        assert_eq!(report.replayed_rounds, 0);
        assert!(newest_checkpoint(&image).parent.is_some(), "a delta seal");
        for v in crash_at..cut {
            r.apply(round(v)).unwrap();
        }
        assert_eq!(
            fulls(&image),
            vec![cut],
            "the full image lands on the same checkpoint"
        );
        assert_same_published_state(&m, &r);
    }

    #[test]
    fn a_second_crash_after_a_fallback_recovers_through_the_seal() {
        let builder = || {
            tail_builder(1, None).durability(DurabilityPolicy {
                checkpoint_every_rounds: 2,
                ..Default::default()
            })
        };
        let (mut m, storage) = run_tail(builder(), 8);
        let newest = newest_checkpoint(&storage).seq;
        assert!(newest >= 2, "a checkpoint to fall back to");
        let name = durable::ckpt_name(newest);
        let image = Arc::new(fup_tidb::MemStorage::from_files(storage.files()));
        image.flip_byte(&name, storage.file(&name).unwrap().len() / 2);
        let (mut r, report) = builder()
            .recover(Arc::clone(&image) as Arc<dyn DurableStorage>)
            .unwrap();
        assert_eq!(report.corrupt_checkpoints, vec![newest]);
        assert!(report.checkpoint_seq < newest);
        assert_same_session(&m, &r);
        let seal = newest_checkpoint(&image);
        assert_eq!(seal.parent.map(|p| p.seq), Some(report.checkpoint_seq));

        // Crash again after one more round: recovery starts from the seal,
        // which shadows the damaged file, and reads no further back.
        for s in [&mut m, &mut r] {
            s.apply(UpdateBatch::insert_only(vec![tx(&[1, 3])]))
                .unwrap();
        }
        drop(r);
        let (r2, report) = builder()
            .recover(power_cut(&image) as Arc<dyn DurableStorage>)
            .unwrap();
        assert!(report.corrupt_checkpoints.is_empty());
        assert_eq!(report.checkpoint_seq, seal.seq);
        assert_eq!(report.replayed_rounds, 1);
        assert_same_session(&m, &r2);
        r2.verify_consistency().unwrap();
    }

    // -------------------------------------------------- sharding --

    #[test]
    fn builder_rejects_invalid_shard_specs() {
        let e = Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .shards(0)
            .build(history())
            .unwrap_err();
        assert_eq!(
            e,
            BuildError::InvalidShardSpec(fup_tidb::SpecError::NoShards)
        );
        let e = Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .shard_spec(ShardSpec::ranges([
                fup_tidb::TidRange::new(0, 100),
                fup_tidb::TidRange::new(50, u64::MAX),
            ]))
            .build(history())
            .unwrap_err();
        assert!(matches!(
            e,
            BuildError::InvalidShardSpec(fup_tidb::SpecError::Overlap { .. })
        ));
    }

    fn sharded_session(shards: u32) -> Maintainer {
        Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .shard_spec(ShardSpec::striped_with(shards, 2))
            .build(history())
            .unwrap()
    }

    #[test]
    fn sharded_session_matches_flat_round_for_round() {
        let mut flat = session();
        let mut sharded = sharded_session(3);
        assert_eq!(sharded.store().num_shards(), 3);
        // Bootstrap state already agrees.
        assert!(flat
            .large_itemsets()
            .same_itemsets(sharded.large_itemsets()));

        // Insert-only round, then a cross-shard delete round (tids 1 and 4
        // live on different stripes), then a mixed round.
        let rounds: Vec<UpdateBatch> = vec![
            UpdateBatch::insert_only(vec![tx(&[1, 2]), tx(&[2, 3]), tx(&[1, 3, 5])]),
            UpdateBatch::delete_only(vec![Tid(1), Tid(4)]),
            UpdateBatch {
                inserts: vec![tx(&[2, 3, 5]), tx(&[1, 2])],
                deletes: vec![Tid(0)],
            },
        ];
        for batch in rounds {
            let rf = flat.apply(batch.clone()).unwrap();
            let rs = sharded.apply(batch).unwrap();
            assert_eq!(rf.algorithm, rs.algorithm);
            assert_eq!(rf.inserted_tids, rs.inserted_tids);
            assert_eq!(rf.num_transactions, rs.num_transactions);
            assert!(flat
                .large_itemsets()
                .same_itemsets(sharded.large_itemsets()));
            assert_eq!(flat.rules().len(), sharded.rules().len());
            assert_eq!(
                flat.store().live_view(),
                sharded.store().live_view(),
                "live-tid views must agree"
            );
            sharded.verify_consistency().unwrap();
        }
    }

    #[test]
    fn sharded_pinned_vertical_extends_per_shard_and_deletes_touch_one_shard() {
        let mut m = Maintainer::builder()
            .min_support(MinSupport::percent(30))
            .min_confidence(MinConfidence::percent(60))
            .backend(CountingBackend::Vertical)
            .shard_spec(ShardSpec::striped_with(2, 2))
            .build(history())
            .unwrap();
        // Pinned-vertical bootstrap seeds every non-empty shard.
        let stats = m.index_stats();
        assert_eq!(stats.builds, 2, "one seed per shard");
        assert!(stats.resident);

        // Insert-only rounds extend shards, never rebuild.
        m.apply(UpdateBatch::insert_only(vec![tx(&[1, 2]), tx(&[2, 3])]))
            .unwrap();
        m.verify_consistency().unwrap();
        assert_eq!(m.index_stats().builds, 2);

        // A delete invalidates only its own shard: builds go up by exactly
        // one (the touched shard), not one per shard.
        let tid0 = m.store().iter().next().unwrap().0;
        m.apply(UpdateBatch::delete_only(vec![tid0])).unwrap();
        m.verify_consistency().unwrap();
        assert_eq!(
            m.index_stats().builds,
            3,
            "only the deleted tid's shard rebuilds"
        );
    }

    #[test]
    fn sharded_durable_recovery_round_trips_and_spec_is_pure_config() {
        let storage = mem();
        let mut m = Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .shards(2)
            .build_durable(history(), Arc::clone(&storage) as Arc<dyn DurableStorage>)
            .unwrap();
        m.stage(UpdateBatch::insert_only(vec![tx(&[1, 2, 3]), tx(&[3])]))
            .unwrap();
        m.commit().unwrap();
        m.stage(UpdateBatch {
            inserts: vec![tx(&[2, 3])],
            deletes: vec![Tid(0)],
        })
        .unwrap();
        m.commit().unwrap();

        // Recover under the SAME spec...
        let image = Arc::new(fup_tidb::MemStorage::from_files(storage.files()));
        let (r, _) = Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .shards(2)
            .recover(Arc::clone(&image) as Arc<dyn DurableStorage>)
            .unwrap();
        assert_same_published_state(&m, &r);
        r.verify_consistency().unwrap();

        // ...under a DIFFERENT shard count...
        let (r4, _) = Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .shards(4)
            .recover(Arc::clone(&image) as Arc<dyn DurableStorage>)
            .unwrap();
        assert_same_published_state(&m, &r4);
        assert_eq!(r4.store().num_shards(), 4);

        // ...and flat: the spec is configuration, not state.
        let (rf, _) = Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .recover(image as Arc<dyn DurableStorage>)
            .unwrap();
        assert_same_published_state(&m, &rf);
        assert_eq!(rf.store().num_shards(), 1);

        // Checkpoints hold no index, at any shard count: a session
        // recovered with no rounds to replay holds none, and its first
        // insert-only commit builds one where the writer's would extend.
        let storage = mem();
        let pinned = || {
            Maintainer::builder()
                .min_support(MinSupport::percent(40))
                .min_confidence(MinConfidence::percent(60))
                .backend(CountingBackend::Vertical)
        };
        let d = pinned()
            .build_durable(history(), Arc::clone(&storage) as Arc<dyn DurableStorage>)
            .unwrap();
        assert!(d.index_stats().resident);
        let image = Arc::new(fup_tidb::MemStorage::from_files(storage.files()));
        let (mut r1, _) = pinned()
            .shards(1)
            .recover(image as Arc<dyn DurableStorage>)
            .unwrap();
        assert!(!r1.index_stats().resident, "recovery restores no index");
        r1.apply(UpdateBatch::insert_only(vec![tx(&[1, 2])]))
            .unwrap();
        let stats = r1.index_stats();
        assert_eq!((stats.builds, stats.extends), (1, 0), "builds once");
        r1.verify_consistency().unwrap();
    }

    #[test]
    fn sharded_remine_policy_stays_consistent() {
        let mut m = Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .policy(UpdatePolicy::AlwaysRemine)
            .shards(3)
            .build(history())
            .unwrap();
        m.apply(UpdateBatch {
            inserts: vec![tx(&[1, 2]), tx(&[2, 3])],
            deletes: vec![Tid(2)],
        })
        .unwrap();
        m.verify_consistency().unwrap();
        assert_eq!(m.store().shard_lens().iter().sum::<usize>(), m.len());
    }

    #[test]
    fn durable_discard_does_not_resurrect_batches() {
        let storage = mem();
        let mut m = durable_session(Arc::clone(&storage));
        m.stage(UpdateBatch::delete_only(vec![Tid(0)])).unwrap();
        let dropped = m.discard();
        assert_eq!(dropped.deletes, vec![Tid(0)]);
        // The tid is claimable again in this session...
        m.stage(UpdateBatch::delete_only(vec![Tid(0)])).unwrap();
        m.commit().unwrap();
        // ...and recovery agrees: nothing pending, the delete committed.
        let image = Arc::new(fup_tidb::MemStorage::from_files(storage.files()));
        let (r, report) = Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .recover(image as Arc<dyn DurableStorage>)
            .unwrap();
        assert_eq!(report.restaged_batches, 0);
        assert!(!r.has_staged());
        assert_eq!(r.len(), 4);
    }
}
