//! Process-per-shard cluster runtime: shard workers, a count-merge
//! coordinator, and single-shard crash recovery.
//!
//! This module lifts the tid-range sharding of the in-process
//! session's store out of one address space: each shard becomes a
//! **worker** owning its rows (under dense local tids, see
//! [`ShardSpec::local_tid`]), its own durable log on a per-shard
//! [`DurableStorage`] namespace, and its own persistent [`IndexSlot`]. A
//! **coordinator** routes staged batches through a [`ShardSpec`],
//! broadcasts each round's candidate tables, and merges the per-shard
//! `(base, delta)` support splits by summation — count distribution,
//! exactly as in-process sharding, so the cluster's itemsets and rules
//! are **bit-identical** to a flat [`Maintainer`](crate::Maintainer)
//! over the same history and updates.
//!
//! ## Protocol and durability
//!
//! Coordinator and workers speak the [`fup_tidb::rpc`] message protocol
//! over a pluggable [`Transport`] (an in-process channel pair, the only
//! one so far). Every request to more than one worker is one
//! scatter-gather: each worker gets its frame before the coordinator
//! waits on any reply, so they serve it at the same time, one frame in
//! flight each. A worker persists through the durable session's own
//! log: it appends each round it stages and decides as a [`WalRecord`]
//! keyed by the round number, checkpoints the session's image format
//! (with no itemsets) when the coordinator says so, and recovers exactly
//! as a session does — newest valid checkpoint chain, WAL tail, seal.
//!
//! ## Two-phase rounds
//!
//! A commit round is a two-phase protocol:
//!
//! 1. **Stage** — every worker WAL-logs the round and applies its
//!    deletes (answering with the removed rows, which the coordinator
//!    needs to count FUP2's delete side locally). If any refuses, the
//!    rest abort it.
//! 2. **Count** — the FUP/FUP2 round runs on the coordinator with
//!    nothing but `|DB⁻|` of the base: its support provider counts the
//!    small parts locally and asks the workers for every base count
//!    (index splits, and pass 1's item histogram), summing their
//!    answers, so no base row ever travels to the coordinator.
//! 3. **Decide** — `CommitRound` (or `AbortRound`) is WAL-logged and
//!    applied on every worker, which settles its index slot with it.
//!
//! A worker killed between phases recovers from its own log: an
//! undecided round at the log's tail is re-staged and reported at
//! rejoin, and the coordinator resolves it from its last decision — an
//! acknowledged commit is never lost. While a worker is down the
//! coordinator fails rounds fast ([`Error::WorkerDown`]), holding staged
//! work in the bounded backlog (the backpressure gate); published
//! snapshots keep serving reads throughout.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use fup_mining::apriori::AprioriConfig;
use fup_mining::engine::{count_items_and_pairs, merge_dense};
use fup_mining::rules::generate_rules;
use fup_mining::{
    Apriori, EngineConfig, ItemsetTable, LargeItemsets, MinConfidence, MinSupport, MiningStats,
};
use fup_tidb::rpc::{ChannelTransport, Message, Transport};
use fup_tidb::source::ChainSource;
use fup_tidb::wal::WalRecord;
use fup_tidb::{
    Admission, DurableStorage, ItemId, ShardSpec, ShardedDb, ShardedStaged, SliceSource,
    StagingArea, Tid, Transaction, TransactionDb, UpdateBatch,
};

use crate::config::FupConfig;
use crate::diff::{ItemsetDiff, RuleDiff};
use crate::durable::{self, DurabilityPolicy, DurableLog};
use crate::error::{Error, Result};
use crate::fup::update_round;
use crate::policy::UpdatePolicy;
use crate::service::ShardHealth;
use crate::session::{MaintenanceReport, RuleSnapshot, SnapshotState};
use crate::supports::{sum_splits, Sides, SplitSupports, Splits};
use crate::vindex::IndexSlot;

/// One shard's routed slice of a batch: inserts with the local tids they
/// will take, and local delete tids.
type RoutedSlice = (Vec<(Tid, Transaction)>, Vec<Tid>);

/// The `(minsup, minconf)` a worker checkpoint records: a worker mines
/// nothing, so its images carry no thresholds and an empty itemset table.
const NO_THRESHOLDS: ((u64, u64), (u64, u64)) = ((0, 1), (0, 1));

// ========================================================== worker ==

/// A round staged on a worker, held until its phase-2 decision.
struct StagedRound {
    round: u64,
    /// Local tids the round deletes, request order.
    deletes: Vec<Tid>,
    staged: ShardedStaged,
}

impl StagedRound {
    /// The rows the deletes removed, request order — echoed in `StagedOk`.
    fn removed(&self) -> Vec<(Tid, Transaction)> {
        let rows = self.staged.deleted().raw().iter().cloned();
        self.deletes.iter().copied().zip(rows).collect()
    }
}

/// One shard's process: its rows under dense local tids in a one-shard
/// [`ShardedDb`], a persistent [`IndexSlot`], and the durable log a
/// durable session writes, on a private [`DurableStorage`] namespace.
/// Drives nothing itself — [`run`](ShardWorker::run) serves requests
/// until the transport closes (which models a crash: memory is lost,
/// storage survives).
pub struct ShardWorker {
    shard: usize,
    db: ShardedDb,
    slot: IndexSlot,
    engine: EngineConfig,
    log: DurableLog,
    decided_round: u64,
    staged: Option<StagedRound>,
}

impl ShardWorker {
    /// A worker on an empty storage namespace; a namespace that holds
    /// anything is [`Error::Recovery`]. Nothing is written until the
    /// first round, and the first checkpoint is a full image.
    pub fn create(
        shard: usize,
        storage: Arc<dyn DurableStorage>,
        engine: EngineConfig,
    ) -> Result<ShardWorker> {
        let log = DurableLog::create(storage, DurabilityPolicy::default())?;
        let db = ShardedDb::new(ShardSpec::default()).expect("one shard is a valid spec");
        Ok(ShardWorker::new(shard, db, log, 0, engine))
    }

    /// Rebuilds a worker from its storage namespace as a durable session
    /// recovers: the newest checkpoint chain that validates, the WAL tail
    /// replayed (a torn tail dropped), then a seal — the *decided* state,
    /// with any undecided round as its backlog, on a fresh WAL segment,
    /// so nothing is ever appended after a torn tail. Only then is the
    /// undecided round re-staged, for the next `HealthProbe` to report.
    pub fn recover(
        shard: usize,
        storage: Arc<dyn DurableStorage>,
        engine: EngineConfig,
    ) -> Result<ShardWorker> {
        let recovered = durable::load_latest(storage.as_ref())?;
        let mut image = recovered.image;
        let mut pending = image.backlog.pop();
        let db = ShardedDb::from_recovered(
            ShardSpec::default(),
            image.live,
            image.watermark,
            image.tombstones,
            image.next_segment,
        )
        .expect("one shard is a valid spec");
        // The log resumes the chain; each round replayed below reports its
        // deletions to it, as a live commit does, for the seal's delta.
        let log = DurableLog::resumed(
            storage,
            DurabilityPolicy::default(),
            recovered.max_seq,
            recovered.chain,
            Vec::new(),
        );
        let mut worker = ShardWorker::new(shard, db, log, image.version, engine);
        for record in recovered.replay {
            let (round, commit) = match record {
                WalRecord::Stage { ticket, batch } => {
                    pending = Some((ticket, batch));
                    continue;
                }
                WalRecord::Commit { version, .. } => (version, true),
                WalRecord::Abort { tickets } => (tickets.first().copied().unwrap_or(0), false),
            };
            let Some((_, batch)) = pending.take().filter(|&(r, _)| r == round) else {
                return Err(Error::Recovery {
                    reason: format!("shard {shard}: the WAL decides round {round} it never staged"),
                });
            };
            worker.stage_locally(round, batch)?;
            worker.apply_decision(commit);
        }
        let backlog: Vec<(u64, UpdateBatch)> = pending.into_iter().collect();
        worker.write_checkpoint(&backlog)?;
        for (round, batch) in backlog {
            worker.stage_locally(round, batch)?;
        }
        Ok(worker)
    }

    fn new(
        shard: usize,
        db: ShardedDb,
        log: DurableLog,
        decided_round: u64,
        engine: EngineConfig,
    ) -> ShardWorker {
        ShardWorker {
            shard,
            db,
            slot: IndexSlot::new(),
            engine,
            log,
            decided_round,
            staged: None,
        }
    }

    /// Serves requests until the transport closes or a `Shutdown`
    /// arrives. A transport error is the crash model: the loop returns,
    /// dropping all in-memory state; only the storage namespace
    /// survives for [`recover`](ShardWorker::recover).
    pub fn run(&mut self, transport: &mut dyn Transport) {
        loop {
            let msg = match transport.recv() {
                Ok(m) => m,
                Err(_) => return,
            };
            let stop = matches!(msg, Message::Shutdown);
            let reply = match self.handle(&msg) {
                Ok(r) => r,
                Err(e) => Message::Err(e.to_string()),
            };
            if transport.send(&reply).is_err() {
                return;
            }
            if stop {
                return;
            }
        }
    }

    fn handle(&mut self, msg: &Message) -> Result<Message> {
        match msg {
            Message::StageRound {
                round,
                inserts,
                deletes,
            } => self.handle_stage(*round, inserts, deletes),
            Message::Engage { keep } => {
                let Some(st) = &self.staged else {
                    return Ok(Message::Err("engage without a staged round".into()));
                };
                let delta = st.staged.inserted();
                self.slot
                    .engage(keep.iter().copied(), &self.db, delta, &self.engine);
                Ok(Message::Ok)
            }
            Message::CountSplit { k, items } => {
                let table = ItemsetTable::from_flat_rows(*k as usize, items.clone());
                Ok(match self.slot.count_split(&table, &self.engine) {
                    Some(splits) => Message::Splits(splits),
                    None => Message::Err("count before engage".into()),
                })
            }
            Message::CountDense => Ok(Message::Counts(
                count_items_and_pairs(&self.db, 0, &self.engine).0,
            )),
            Message::CommitRound { round } => self.handle_decision(*round, true),
            Message::AbortRound { round } => self.handle_decision(*round, false),
            Message::Checkpoint => {
                if self.staged.is_some() {
                    return Ok(Message::Err("checkpoint with a round staged".into()));
                }
                self.write_checkpoint(&[])?;
                Ok(Message::Ok)
            }
            Message::HealthProbe => Ok(Message::Health {
                live: self.db.len() as u64,
                decided_round: self.decided_round,
                staged_round: self.staged.as_ref().map(|s| s.round),
            }),
            Message::FetchRows => Ok(Message::Rows(
                self.db.iter().map(|(tid, t)| (tid, t.clone())).collect(),
            )),
            Message::Shutdown => Ok(Message::Ok),
            other => Ok(Message::Err(format!(
                "unexpected message for shard {}: {other:?}",
                self.shard
            ))),
        }
    }

    fn handle_stage(
        &mut self,
        round: u64,
        inserts: &[(Tid, Transaction)],
        deletes: &[Tid],
    ) -> Result<Message> {
        if let Some(st) = &self.staged {
            // Idempotent re-stage (coordinator retry after a lost
            // reply): answer from the held round.
            if st.round == round {
                return Ok(Message::StagedOk {
                    round,
                    removed: st.removed(),
                });
            }
            return Ok(Message::Err(format!(
                "round {} still staged, refusing round {round}",
                st.round
            )));
        }
        if round <= self.decided_round {
            return Ok(Message::Err(format!(
                "stale round {round} (decided {})",
                self.decided_round
            )));
        }
        let watermark = self.db.watermark();
        if (0..)
            .zip(inserts)
            .any(|(i, (tid, _))| tid.0 != watermark + i)
        {
            return Ok(Message::Err(format!(
                "inserts must take the next local tids, from {watermark}"
            )));
        }
        let mut seen = HashSet::new();
        for tid in deletes {
            if !self.db.contains(*tid) || !seen.insert(*tid) {
                return Ok(Message::Err(format!("unknown tid {}", tid.0)));
            }
        }
        // Log before acting: a round is staged only once its record is
        // durable.
        let record = WalRecord::Stage {
            ticket: round,
            batch: UpdateBatch {
                inserts: inserts.iter().map(|(_, t)| t.clone()).collect(),
                deletes: deletes.to_vec(),
            },
        };
        self.log.log_synced(&record)?;
        let WalRecord::Stage { batch, .. } = record else {
            unreachable!("built as a stage record")
        };
        let removed = self.stage_locally(round, batch)?.removed();
        Ok(Message::StagedOk { round, removed })
    }

    /// Stages `batch` as `round` in memory: the deletes leave the live
    /// set, the inserts wait for the decision.
    fn stage_locally(&mut self, round: u64, batch: UpdateBatch) -> Result<&StagedRound> {
        let deletes = batch.deletes.clone();
        let staged = self.db.stage(batch)?;
        Ok(self.staged.insert(StagedRound {
            round,
            deletes,
            staged,
        }))
    }

    /// Phase 2 on the worker: logs the decision on the staged round
    /// (`commit`, else abort), then applies it.
    fn handle_decision(&mut self, round: u64, commit: bool) -> Result<Message> {
        let verb = if commit { "commit" } else { "abort" };
        match self.staged.as_ref().map(|st| st.round) {
            Some(staged) if staged == round => {}
            // Idempotent redelivery of an already-decided round (the
            // rejoin handshake may resolve a round the worker already
            // decided before crashing).
            None if round <= self.decided_round => return Ok(Message::Ok),
            None => return Ok(Message::Err(format!("no staged round to {verb} ({round})"))),
            Some(staged) => {
                return Ok(Message::Err(format!(
                    "staged round {staged} does not match {verb} {round}"
                )))
            }
        }
        let record = if commit {
            WalRecord::Commit {
                version: round,
                tickets: vec![round],
            }
        } else {
            WalRecord::Abort {
                tickets: vec![round],
            }
        };
        self.log.log_synced(&record)?;
        self.apply_decision(commit);
        Ok(Message::Ok)
    }

    /// Applies the decision on the staged round in memory (`commit`,
    /// else abort), settling the index slot with it — after it is
    /// logged, or when recovery replays it.
    fn apply_decision(&mut self, commit: bool) {
        let st = self.staged.take().expect("a round is staged");
        self.decided_round = st.round;
        let deleted = !st.deletes.is_empty();
        self.slot
            .settle(commit, st.staged.inserted(), deleted, &self.engine);
        if commit {
            // The coordinator sets the checkpoint cadence; the log only
            // needs the deletions for its next delta.
            let _ = self.log.note_round(&st.deletes);
            self.db.commit(st.staged);
        } else {
            self.db.abort(st.staged);
        }
    }

    /// Installs the log's next checkpoint — a delta on the last one, or
    /// a full image under the log's full-cut rule — of the decided state,
    /// with `backlog` as its undecided round.
    fn write_checkpoint(&self, backlog: &[(u64, UpdateBatch)]) -> Result<u64> {
        self.log.checkpoint_with(self.db.watermark(), |seq, base| {
            durable::encode_store(
                &self.db,
                seq,
                base,
                self.decided_round,
                NO_THRESHOLDS,
                &LargeItemsets::new(0),
                backlog,
            )
        })
    }
}

// ======================================================= provider ==

/// The cluster's [`Splits`] provider: `db⁻` and `db⁺` are counted on
/// the coordinator, every base request (`Engage`, `CountSplit`,
/// `CountDense`) is broadcast to the workers and their answers summed —
/// supports are additive over disjoint tid ranges. Worker failures cannot
/// surface as `Err` through the provider, so they land in a failure flag
/// the coordinator checks after the run; counts returned after a failure
/// are garbage and the round is aborted without looking at them.
struct ClusterProvider<'a> {
    workers: &'a [WorkerHandle],
    sides: Sides<'a>,
    engaged: bool,
    failure: std::cell::RefCell<Option<(usize, String)>>,
}

impl ClusterProvider<'_> {
    /// Sends `msg` to every worker and returns the accepted replies in
    /// shard order; the round's first failure (the lowest failing shard)
    /// lands in the failure flag.
    fn broadcast<T>(
        &self,
        msg: &Message,
        accept: impl FnMut(usize, Message) -> std::result::Result<T, Message>,
    ) -> Vec<T> {
        let all = (0..self.workers.len()).map(|s| (s, msg));
        let gathered = scatter_gather(self.workers, all, accept);
        let mut failure = self.failure.borrow_mut();
        if failure.is_none() {
            *failure = gathered.failed.into_iter().next().map(|(s, r, _)| (s, r));
        }
        gathered.replies.into_iter().map(|(_, v)| v).collect()
    }
}

impl Splits for ClusterProvider<'_> {
    fn sides(&self) -> &Sides<'_> {
        &self.sides
    }

    fn base_dense(&mut self) -> Vec<u64> {
        merge_dense(
            self.broadcast(&Message::CountDense, |_, reply| match reply {
                Message::Counts(v) => Ok(v),
                other => Err(other),
            }),
        )
    }

    fn engage(&mut self, l1: &[ItemId]) {
        if !self.engaged {
            self.broadcast(&Message::Engage { keep: l1.to_vec() }, ack);
            self.engaged = true;
        }
    }

    fn count_split(&mut self, table: &ItemsetTable) -> Vec<(u64, u64)> {
        if table.is_empty() {
            // An empty table has nothing to count — and would encode as
            // a zero-strided `CountSplit`, which workers reject as
            // corruption.
            return Vec::new();
        }
        let msg = Message::CountSplit {
            k: table.k() as u32,
            items: table.flat_items().to_vec(),
        };
        let splits = self.broadcast(&msg, |_, reply| match reply {
            Message::Splits(v) if v.len() == table.len() => Ok(v),
            other => Err(other),
        });
        sum_splits(table.len(), splits)
    }
}

// ===================================================== fan-out ==

/// What one [`scatter_gather`] collected, each list in shard order: the
/// accepted replies, and every failure as `(shard, reason, reached)` —
/// `reached` is false when the transport itself failed.
struct Gathered<T> {
    replies: Vec<(usize, T)>,
    failed: Vec<(usize, String, bool)>,
}

/// The one way the coordinator talks to more than one worker: it locks
/// each target's transport (ascending shard order), sends every target
/// its frame, and only then receives the replies in shard order, so the
/// workers serve the request at the same time, one frame in flight each.
/// Every sent frame's reply is drained, even after a failure. A reply
/// `accept` hands back, an `Err` reply and a transport error all fail
/// their shard.
fn scatter_gather<M: Borrow<Message>, T>(
    workers: &[WorkerHandle],
    msgs: impl IntoIterator<Item = (usize, M)>,
    mut accept: impl FnMut(usize, Message) -> std::result::Result<T, Message>,
) -> Gathered<T> {
    let sent: Vec<_> = msgs
        .into_iter()
        .map(|(s, msg)| {
            let exchange = workers[s].lock_transport().map(|mut t| {
                let sent = t.send(msg.borrow());
                (t, sent)
            });
            (s, exchange)
        })
        .collect();
    let (mut replies, mut failed) = (Vec::new(), Vec::new());
    for (s, exchange) in sent {
        let (mut t, sent) = match exchange {
            Ok(exchange) => exchange,
            Err(reason) => {
                failed.push((s, reason.to_string(), false));
                continue;
            }
        };
        match sent.and_then(|()| t.recv()) {
            Ok(Message::Err(reason)) => failed.push((s, reason, true)),
            Ok(reply) => match accept(s, reply) {
                Ok(v) => replies.push((s, v)),
                Err(other) => failed.push((s, format!("unexpected reply: {other:?}"), true)),
            },
            Err(e) => failed.push((s, Error::Store(e).to_string(), false)),
        }
    }
    Gathered { replies, failed }
}

/// `accept` for requests answered [`Message::Ok`].
fn ack(_: usize, reply: Message) -> std::result::Result<(), Message> {
    match reply {
        Message::Ok => Ok(()),
        other => Err(other),
    }
}

// ==================================================== coordinator ==

/// Coordinator-side handle to one shard worker.
struct WorkerHandle {
    transport: Mutex<Box<dyn Transport>>,
    up: bool,
    /// Update operations (inserts + deletes) committed into this shard
    /// since the cluster started.
    ops: u64,
}

impl WorkerHandle {
    /// The worker's transport. This is the workspace's one lock that
    /// fails typed instead of recovering (see `fup_tidb::sync`): a panic
    /// mid-exchange can leave a reply unread, which the next request
    /// would take for its own. So a poisoned transport fails its shard,
    /// as a transport error would.
    fn lock_transport(
        &self,
    ) -> std::result::Result<MutexGuard<'_, Box<dyn Transport>>, &'static str> {
        self.transport
            .lock()
            .map_err(|_| "transport lock poisoned by a panic mid-exchange")
    }

    fn call(&self, shard: usize, msg: &Message) -> Result<Message> {
        let mut t = self
            .lock_transport()
            .map_err(|reason| down(shard, reason))?;
        t.send(msg).map_err(Error::Store)?;
        t.recv().map_err(Error::Store)
    }
}

/// The process-per-shard cluster session: same algebra as
/// [`Maintainer`](crate::Maintainer) (stage → commit → versioned
/// snapshot), with the store split across shard workers and every
/// support a sum of per-shard counts. See the module docs for the
/// protocol; see `Cluster::bootstrap` for construction.
pub struct Cluster {
    spec: ShardSpec,
    minsup: MinSupport,
    minconf: MinConfidence,
    config: FupConfig,
    policy: UpdatePolicy,
    workers: Vec<WorkerHandle>,
    threads: Vec<Option<JoinHandle<()>>>,
    storages: Vec<Arc<dyn DurableStorage>>,
    staging: Arc<StagingArea>,
    state: Arc<SnapshotState>,
    next_tid: u64,
    total_live: u64,
    /// The last decided round and whether it committed — the whole
    /// decision record. Rounds are decided in order and none runs while
    /// a worker is down, so a rejoining worker can hold only this round
    /// staged; resolving it from here is what makes an acknowledged
    /// commit survive a worker crash.
    decided: (u64, bool),
    /// A drained batch whose round failed on a transport error; held
    /// (with its delete claims and its slice of the backpressure gate)
    /// until the worker rejoins and the round can re-run.
    retry: Option<UpdateBatch>,
}

fn down(shard: usize, reason: impl std::fmt::Display) -> Error {
    Error::WorkerDown {
        shard,
        reason: reason.to_string(),
    }
}

/// Spawns worker `s`, opening its namespace with `open`:
/// [`ShardWorker::create`] at bootstrap, [`ShardWorker::recover`] on
/// restart.
fn spawn_worker(
    s: usize,
    storage: Arc<dyn DurableStorage>,
    engine: EngineConfig,
    open: fn(usize, Arc<dyn DurableStorage>, EngineConfig) -> Result<ShardWorker>,
) -> (WorkerHandle, JoinHandle<()>) {
    let (coord, mut remote) = ChannelTransport::pair();
    let thread = std::thread::Builder::new()
        .name(format!("fup-shard-{s}"))
        .spawn(move || match open(s, storage, engine) {
            Ok(mut worker) => worker.run(&mut remote),
            // A worker that cannot open stays on its transport and
            // answers every request with the reason until it closes, so
            // the failure reaches the coordinator.
            Err(e) => {
                let reply = Message::Err(e.to_string());
                while remote.recv().is_ok() && remote.send(&reply).is_ok() {}
            }
        })
        .expect("spawn shard worker");
    let handle = WorkerHandle {
        transport: Mutex::new(Box::new(coord)),
        up: true,
        ops: 0,
    };
    (handle, thread)
}

impl Cluster {
    /// Boots a cluster: mines `history` from scratch (bit-identical to
    /// the flat bootstrap — Apriori's result does not depend on row
    /// placement), spawns one worker per shard of `spec` on its storage
    /// namespace, and loads the routed history through a first
    /// stage/commit round followed by a checkpoint, so every shard
    /// starts from a full image of its history and an empty WAL.
    ///
    /// Whatever `config`'s backend, every round counts through the
    /// per-shard indexes (summed splits) and pass 1 through the workers'
    /// histograms, so no base row ever travels to the coordinator; the
    /// backend picks only how the coordinator's own mines (bootstrap and
    /// re-mine) count. Storages must be empty (worker recovery into an
    /// existing namespace is [`restart_worker`](Cluster::restart_worker)'s
    /// job).
    pub fn bootstrap(
        spec: ShardSpec,
        storages: Vec<Arc<dyn DurableStorage>>,
        history: Vec<Transaction>,
        minsup: MinSupport,
        minconf: MinConfidence,
        config: FupConfig,
    ) -> Result<Cluster> {
        spec.validate()
            .map_err(|e| Error::Config(crate::error::BuildError::InvalidShardSpec(e)))?;
        if storages.len() != spec.num_shards() {
            return Err(Error::Recovery {
                reason: format!(
                    "{} storage namespaces for {} shards",
                    storages.len(),
                    spec.num_shards()
                ),
            });
        }
        // The history moves on to the workers below; mine it where it is.
        let outcome = Apriori::with_config(AprioriConfig {
            max_k: config.max_k,
            engine: config.engine.clone(),
        })
        .run(&SliceSource::new(&history), minsup);
        let large = outcome.large;
        let rules = generate_rules(&large, minconf);
        let n = history.len() as u64;
        let state = Arc::new(SnapshotState::new(0, n, minsup, minconf, large, rules));

        let mut workers = Vec::with_capacity(spec.num_shards());
        let mut threads = Vec::with_capacity(spec.num_shards());
        for (s, storage) in storages.iter().enumerate() {
            let (handle, thread) = spawn_worker(
                s,
                Arc::clone(storage),
                config.engine.clone(),
                ShardWorker::create,
            );
            workers.push(handle);
            threads.push(Some(thread));
        }
        let staging = Arc::new(StagingArea::with_shards(1));
        let mut cluster = Cluster {
            spec,
            minsup,
            minconf,
            config,
            policy: UpdatePolicy::default(),
            workers,
            threads,
            storages,
            staging,
            state,
            next_tid: 0,
            total_live: 0,
            decided: (0, false),
            retry: None,
        };
        // A worker refuses a used namespace and answers with why.
        let all = (0..cluster.workers.len()).map(|s| (s, Message::HealthProbe));
        let probed = scatter_gather(&cluster.workers, all, |_, reply| Ok(reply));
        if let Some((s, reason, _)) = probed.failed.first() {
            return Err(Error::Recovery {
                reason: format!("shard {s}: {reason}"),
            });
        }
        // Initial load: the history is round 1, staged and committed with
        // no counting in between, then checkpointed, so each worker's
        // first checkpoint is a full image of its routed history.
        let batch = UpdateBatch::insert_only(history);
        let routed = cluster.route(&batch);
        cluster.stage_round(1, &routed)?;
        cluster.commit_round(1, &routed, &batch);
        cluster.checkpoint()?;
        Ok(cluster)
    }

    /// Replaces the re-mine routing policy.
    pub fn set_policy(&mut self, policy: UpdatePolicy) {
        self.policy = policy;
    }

    /// Bounds the staged-but-uncommitted backlog (the backpressure
    /// gate); `None` removes the bound.
    pub fn set_staging_capacity(&mut self, limit: Option<u64>) {
        self.staging.set_capacity(limit);
    }

    /// Number of shards (= workers).
    pub fn num_shards(&self) -> usize {
        self.spec.num_shards()
    }

    /// Live transactions across all shards.
    pub fn num_transactions(&self) -> u64 {
        self.total_live
    }

    /// Current snapshot version (0 after bootstrap, +1 per commit).
    pub fn version(&self) -> u64 {
        self.state.version()
    }

    /// A consistent, `Arc`-backed view of the current rules/itemsets —
    /// stays valid and readable no matter what the cluster does next
    /// (including while a killed worker recovers).
    pub fn snapshot(&self) -> RuleSnapshot {
        RuleSnapshot::from_state(Arc::clone(&self.state))
    }

    /// `true` if worker `shard` is reachable.
    pub fn worker_up(&self, shard: usize) -> bool {
        self.workers[shard].up
    }

    /// Queues a batch, validating deletes at arrival (live + unclaimed)
    /// and blocking on the capacity gate when one is set. Returns the
    /// arrival ticket.
    pub fn stage(&self, batch: UpdateBatch) -> Result<u64> {
        self.staging
            .stage_with(batch, Admission::Block)
            .map_err(Error::Store)
    }

    /// Non-blocking [`stage`](Cluster::stage).
    pub fn try_stage(&self, batch: UpdateBatch) -> Result<u64> {
        self.staging
            .stage_with(batch, Admission::Try)
            .map_err(Error::Store)
    }

    /// [`stage`](Cluster::stage) + [`commit`](Cluster::commit).
    pub fn apply(&mut self, batch: UpdateBatch) -> Result<MaintenanceReport> {
        self.stage(batch)?;
        self.commit()
    }
}

impl Cluster {
    /// Routes a batch through the shard spec, in each shard's local tids:
    /// inserts get the local tids of their prospective global tids
    /// (`next_tid + i`, the tids the commit will assign), deletes go to
    /// the shard owning their tid.
    fn route(&self, batch: &UpdateBatch) -> Vec<RoutedSlice> {
        let mut out = vec![(Vec::new(), Vec::new()); self.spec.num_shards()];
        for (i, t) in batch.inserts.iter().enumerate() {
            let (s, local) = self.spec.local_tid(Tid(self.next_tid + i as u64));
            out[s].0.push((local, t.clone()));
        }
        for &tid in &batch.deletes {
            let (s, local) = self.spec.local_tid(tid);
            out[s].1.push(local);
        }
        out
    }

    fn ensure_all_up(&self) -> Result<()> {
        for (s, w) in self.workers.iter().enumerate() {
            if !w.up {
                return Err(down(s, "worker is down; staged work held until it rejoins"));
            }
        }
        Ok(())
    }

    /// Marks down every worker that failed in `gathered` — or, with
    /// `refused` false, only those its transport could not reach — and
    /// returns the lowest failing shard as [`Error::WorkerDown`].
    fn mark_down<T>(&mut self, gathered: &Gathered<T>, refused: bool) -> Option<Error> {
        for &(s, _, reached) in &gathered.failed {
            if refused || !reached {
                self.workers[s].up = false;
            }
        }
        gathered
            .failed
            .first()
            .map(|(s, reason, _)| down(*s, reason))
    }

    /// Phase 1: stages `routed` as `round` on every worker (empty
    /// slices included — round boundaries are lockstep). On success
    /// returns the rows the deletes removed, in shard order. On failure
    /// every failing worker is marked down and every other aborts the
    /// round: a worker that did not stage may still hold part of the
    /// round in its log (a torn append, a failed sync), and only a
    /// restart reconciles the two.
    fn stage_round(&mut self, round: u64, routed: &[RoutedSlice]) -> Result<Vec<Transaction>> {
        let msgs = routed.iter().enumerate().map(|(s, slice)| {
            let (inserts, deletes) = slice.clone();
            let msg = Message::StageRound {
                round,
                inserts,
                deletes,
            };
            (s, msg)
        });
        let staged = scatter_gather(&self.workers, msgs, |s, reply| match reply {
            // The removed rows must echo the routed deletes, in order.
            Message::StagedOk { round: r, removed }
                if r == round && removed.iter().map(|(tid, _)| tid).eq(&routed[s].1) =>
            {
                Ok(removed)
            }
            other => Err(other),
        });
        if let Some(err) = self.mark_down(&staged, true) {
            self.abort_round(round, staged.replies.iter().map(|&(s, _)| s));
            return Err(err);
        }
        let rows = staged.replies.into_iter().flat_map(|(_, rem)| rem);
        Ok(rows.map(|(_, t)| t).collect())
    }

    /// Phase 2 (commit arm): decides `round` — `batch`, routed as
    /// `routed` — as committed, delivers the decision to every worker,
    /// and advances the coordinator's bookkeeping (tids, live view,
    /// claims, totals), returning the inserts' tids. A worker that
    /// cannot be reached keeps its staged round durably and completes
    /// the commit from the decision record at rejoin — the commit is
    /// acknowledged either way, because every worker holds the round in
    /// its WAL.
    fn commit_round(
        &mut self,
        round: u64,
        routed: &[RoutedSlice],
        batch: &UpdateBatch,
    ) -> Vec<Tid> {
        self.decided = (round, true);
        let msg = Message::CommitRound { round };
        let all = (0..self.workers.len()).map(|s| (s, &msg));
        let committed = scatter_gather(&self.workers, all, ack);
        for &(s, ()) in &committed.replies {
            self.workers[s].ops += routed[s].0.len() as u64 + routed[s].1.len() as u64;
        }
        // A failed worker holds the round staged durably; resolved at rejoin.
        self.mark_down(&committed, true);
        let inserted = batch.inserts.len() as u64;
        let new_tids: Vec<Tid> = (self.next_tid..self.next_tid + inserted).map(Tid).collect();
        self.staging.live_remove(batch.deletes.iter().copied());
        self.staging.release_deletes(batch.deletes.iter().copied());
        self.staging.live_insert(new_tids.iter().copied());
        self.next_tid += inserted;
        self.total_live = self.total_live + inserted - batch.deletes.len() as u64;
        new_tids
    }

    /// Phase 2 (abort arm): decides `round` as aborted and delivers the
    /// abort to every worker in `staged_on`; unreachable workers resolve
    /// at rejoin from the decision record.
    fn abort_round(&mut self, round: u64, staged_on: impl IntoIterator<Item = usize>) {
        self.decided = (round, false);
        let msg = Message::AbortRound { round };
        let targets = staged_on.into_iter().map(|s| (s, &msg));
        let aborted = scatter_gather(&self.workers, targets, ack);
        self.mark_down(&aborted, true);
    }

    /// Commits everything staged (plus a held retry batch, if a prior
    /// round failed on a worker crash) as **one** maintenance round:
    /// two-phase against the workers, FUP/FUP2 counting through the
    /// summed provider in between, snapshot published at the end.
    ///
    /// Fails fast with [`Error::WorkerDown`] while any worker is down —
    /// staged batches stay in the bounded backlog (claims and capacity
    /// held) until the worker rejoins.
    pub fn commit(&mut self) -> Result<MaintenanceReport> {
        self.ensure_all_up()?;
        let drained = self.staging.drain_entries_up_to(None);
        let mut batch = StagingArea::merge_entries(drained);
        if let Some(held) = self.retry.take() {
            // The held batch drained earlier — its ops re-entered the
            // gate when it was parked; pay them back out now.
            self.staging.release_capacity(held.num_ops());
            let mut merged = held;
            merged.inserts.extend(batch.inserts);
            merged.deletes.extend(batch.deletes);
            batch = merged;
        }
        self.commit_batch(batch)
    }

    fn commit_batch(&mut self, batch: UpdateBatch) -> Result<MaintenanceReport> {
        let round = self.decided.0 + 1;
        let routed = self.route(&batch);
        let removed = match self.stage_round(round, &routed) {
            Ok(removed) => removed,
            Err(e) => {
                self.park_retry(batch);
                return Err(e);
            }
        };
        if self.policy.should_remine(batch.num_ops(), self.total_live) {
            return self.commit_by_remine(round, &routed, batch);
        }
        let d_minus = batch.deletes.len() as u64;
        let deleted_db = TransactionDb::from_transactions(removed);
        let inserted_db = TransactionDb::from_transactions(batch.inserts.iter().cloned());
        let state = Arc::clone(&self.state);
        let sides = Sides {
            remainder: self.total_live - d_minus,
            deleted: &deleted_db,
            inserted: &inserted_db,
            engine: &self.config.engine,
        };
        let mut provider = SplitSupports::new(ClusterProvider {
            workers: &self.workers,
            sides,
            engaged: false,
            failure: Default::default(),
        });
        let outcome = update_round(&self.config, state.large(), self.minsup, &mut provider);
        if let Some((shard, reason)) = provider.parts.failure.into_inner() {
            // Counting lost a worker mid-round: the sums are garbage.
            // Abort everywhere reachable (the dead worker resolves at
            // rejoin) and hold the batch for a re-run.
            self.abort_round(round, 0..self.workers.len());
            self.workers[shard].up = false;
            self.park_retry(batch);
            return Err(down(shard, reason));
        }
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                // Algorithm-level rejection (e.g. a stale baseline):
                // mirror the flat session — the batch is consumed, the
                // round aborted, claims released.
                self.abort_round(round, 0..self.workers.len());
                self.staging.release_deletes(batch.deletes.iter().copied());
                return Err(e);
            }
        };
        let new_tids = self.commit_round(round, &routed, &batch);
        let algorithm = outcome.stats.algorithm;
        Ok(self.publish(outcome.large, algorithm, outcome.stats, new_tids))
    }

    /// Policy-routed re-mine of the staged `round`: the batch still
    /// two-phases through the workers, but counting is a from-scratch
    /// Apriori over the rows fetched back from every shard (after the
    /// deletes, plus the batch's inserts) — the round's post-state,
    /// mined locally.
    fn commit_by_remine(
        &mut self,
        round: u64,
        routed: &[RoutedSlice],
        batch: UpdateBatch,
    ) -> Result<MaintenanceReport> {
        let all = (0..self.workers.len()).map(|s| (s, Message::FetchRows));
        let fetched = scatter_gather(&self.workers, all, |_, reply| match reply {
            Message::Rows(v) => Ok(v),
            other => Err(other),
        });
        if let Some(err) = self.mark_down(&fetched, false) {
            self.abort_round(round, 0..self.workers.len());
            self.park_retry(batch);
            return Err(err);
        }
        let rows: Vec<Transaction> = (fetched.replies.into_iter())
            .flat_map(|(_, v)| v.into_iter().map(|(_, t)| t))
            .collect();
        let (kept, inserted) = (SliceSource::new(&rows), SliceSource::new(&batch.inserts));
        let post_state = ChainSource::new(&kept, &inserted);
        let outcome = Apriori::with_config(AprioriConfig {
            max_k: self.config.max_k,
            engine: self.config.engine.clone(),
        })
        .run(&post_state, self.minsup);
        let new_tids = self.commit_round(round, routed, &batch);
        Ok(self.publish(outcome.large, "apriori-remine", outcome.stats, new_tids))
    }

    /// Parks a drained batch for a retry once the dead worker rejoins:
    /// delete claims stay held and the batch's ops re-enter the
    /// capacity gate, so the bounded backlog keeps counting it.
    fn park_retry(&mut self, batch: UpdateBatch) {
        self.staging.reserve_restored(batch.num_ops());
        debug_assert!(self.retry.is_none(), "at most one round in flight");
        self.retry = Some(batch);
    }

    /// Publishes a new snapshot, mirroring the flat session's publish.
    fn publish(
        &mut self,
        new_large: LargeItemsets,
        algorithm: &'static str,
        stats: MiningStats,
        inserted_tids: Vec<Tid>,
    ) -> MaintenanceReport {
        let new_rules = generate_rules(&new_large, self.minconf);
        let version = self.state.version() + 1;
        let report = MaintenanceReport {
            algorithm,
            version,
            itemsets: ItemsetDiff::between(self.state.large(), &new_large),
            rules: RuleDiff::between(self.state.rules(), &new_rules),
            inserted_tids,
            num_transactions: self.total_live,
            stats,
        };
        self.state = Arc::new(SnapshotState::new(
            version,
            self.total_live,
            self.minsup,
            self.minconf,
            new_large,
            new_rules,
        ));
        report
    }
}

/// One worker's answer to a health probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerProbe {
    /// Live transactions in the shard.
    pub live: u64,
    /// Highest round the worker has decided (committed or aborted).
    pub decided_round: u64,
    /// A round staged and awaiting its phase-2 decision, if any.
    pub staged_round: Option<u64>,
}

impl Cluster {
    /// Probes one worker directly — the surviving-shard read path: while
    /// another shard recovers, probes (and [`snapshot`](Cluster::snapshot)
    /// reads) keep answering.
    pub fn probe(&self, shard: usize) -> Result<WorkerProbe> {
        if !self.workers[shard].up {
            return Err(down(shard, "worker is down"));
        }
        match self.workers[shard].call(shard, &Message::HealthProbe)? {
            Message::Health {
                live,
                decided_round,
                staged_round,
            } => Ok(WorkerProbe {
                live,
                decided_round,
                staged_round,
            }),
            Message::Err(reason) => Err(down(shard, reason)),
            other => Err(down(shard, format!("unexpected probe reply: {other:?}"))),
        }
    }

    /// Kills worker `shard` the hard way: severs its transport (the
    /// worker loop exits, dropping all in-memory state — db slice,
    /// index, staged round) and joins the thread. Only the worker's
    /// storage namespace survives, which is exactly what
    /// [`restart_worker`](Cluster::restart_worker) recovers from.
    pub fn kill_worker(&mut self, shard: usize) {
        let (dead, _) = ChannelTransport::pair();
        // Overwriting the transport discards whatever a panicked
        // exchange left in it, so a poisoned lock may be recovered here.
        *fup_tidb::sync::lock(&self.workers[shard].transport) = Box::new(dead);
        self.workers[shard].up = false;
        if let Some(t) = self.threads[shard].take() {
            let _ = t.join();
        }
    }

    /// Restarts a dead worker from its storage namespace and runs the
    /// rejoin handshake: if the worker recovered with an undecided
    /// staged round in its WAL, the coordinator resolves it from the
    /// decision record — committed rounds complete (no acknowledged
    /// commit is lost), aborted rounds roll back. Once this returns the
    /// worker serves rounds again and a held retry batch becomes
    /// committable. If recovery or the handshake fails, the error
    /// carries the worker's reason and the shard stays down.
    pub fn restart_worker(&mut self, shard: usize) -> Result<()> {
        if self.workers[shard].up {
            return Ok(());
        }
        // Sever and join whatever still holds the shard's transport (a
        // worker whose last recovery failed answers until it closes).
        self.kill_worker(shard);
        let (mut handle, thread) = spawn_worker(
            shard,
            Arc::clone(&self.storages[shard]),
            self.config.engine.clone(),
            ShardWorker::recover,
        );
        // The ops gauge counts since cluster start, not since restart.
        handle.ops = self.workers[shard].ops;
        self.workers[shard] = handle;
        self.threads[shard] = Some(thread);
        let rejoined = self.rejoin(shard);
        if rejoined.is_err() {
            self.workers[shard].up = false;
        }
        rejoined
    }

    /// The rejoin handshake of [`restart_worker`](Cluster::restart_worker).
    fn rejoin(&mut self, shard: usize) -> Result<()> {
        let Some(round) = self.probe(shard)?.staged_round else {
            return Ok(());
        };
        let (last, committed) = self.decided;
        if round != last {
            return Err(down(
                shard,
                format!("worker holds round {round} staged, but the last decided round is {last}"),
            ));
        }
        let msg = if committed {
            Message::CommitRound { round }
        } else {
            Message::AbortRound { round }
        };
        match self.workers[shard].call(shard, &msg)? {
            Message::Ok => Ok(()),
            other => Err(down(shard, format!("rejoin resolution refused: {other:?}"))),
        }
    }

    /// Checkpoints every worker (requires all up and nothing staged):
    /// each installs its log's next checkpoint — a delta on its last
    /// one, or a full image once the deltas outgrow it — and rotates to
    /// a fresh WAL segment. This is also how a worker whose log degraded
    /// heals without a restart.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.ensure_all_up()?;
        let all = (0..self.workers.len()).map(|s| (s, Message::Checkpoint));
        let checkpointed = scatter_gather(&self.workers, all, ack);
        // A refusal leaves the worker serving; an unreachable one is down.
        self.mark_down(&checkpointed, false).map_or(Ok(()), Err)
    }

    /// Per-shard health gauges for the service's
    /// [`HealthReport`](crate::HealthReport) shards section: committed
    /// ops, the backlog routed to each shard (pending batches plus a
    /// parked retry, routed prospectively), and an `up`/`down` state.
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        let mut backlog = vec![0u64; self.spec.num_shards()];
        let mut pending = StagingArea::merge_entries(self.staging.entries_snapshot());
        if let Some(held) = &self.retry {
            pending.inserts.extend(held.inserts.iter().cloned());
            pending.deletes.extend(held.deletes.iter().copied());
        }
        for (i, _) in pending.inserts.iter().enumerate() {
            backlog[self.spec.shard_of(Tid(self.next_tid + i as u64))] += 1;
        }
        for &tid in &pending.deletes {
            backlog[self.spec.shard_of(tid)] += 1;
        }
        self.workers
            .iter()
            .enumerate()
            .map(|(s, w)| ShardHealth {
                shard: s,
                ops: w.ops,
                backlog: backlog[s],
                state: if w.up { "up" } else { "down" },
            })
            .collect()
    }

    fn shutdown_workers(&mut self) {
        let up = (0..self.workers.len()).filter(|&s| self.workers[s].up);
        scatter_gather(&self.workers, up.map(|s| (s, Message::Shutdown)), ack);
        self.workers.clear();
        for t in &mut self.threads {
            if let Some(t) = t.take() {
                let _ = t.join();
            }
        }
        self.threads.clear();
    }

    /// Orderly shutdown: every worker gets a `Shutdown`, threads are
    /// joined. Dropping the cluster does the same best-effort.
    pub fn shutdown(mut self) {
        self.shutdown_workers();
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown_workers();
    }
}

#[cfg(test)]
mod tests;
