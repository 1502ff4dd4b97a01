//! Process-per-shard cluster runtime: shard workers, a count-merge
//! coordinator, and single-shard crash recovery.
//!
//! This module lifts the tid-range sharding of the in-process
//! session's store out of one address space: each shard
//! becomes a **worker** owning its own [`SegmentedDb`] slice, its own
//! WAL + checkpoint namespace (a per-shard [`DurableStorage`] root), and
//! its own persistent [`IndexSlot`]. A **coordinator** routes staged
//! batches through a [`ShardSpec`], broadcasts each round's candidate
//! tables, and merges the per-shard `(base, delta)` support splits by
//! summation — count distribution, exactly as in-process sharding, so
//! the cluster's itemsets and rules are **bit-identical** to a flat
//! [`Maintainer`](crate::Maintainer) over the same history and updates.
//!
//! ## Protocol and durability
//!
//! Coordinator and workers speak the [`fup_tidb::rpc`] message protocol
//! over a pluggable [`Transport`] (in-process channel pair here; the
//! same frames travel a Unix-domain socket unchanged). A worker's WAL
//! records *are* protocol frames: [`Message::StageRound`],
//! [`Message::CommitRound`] and [`Message::AbortRound`] are appended
//! verbatim before they take effect, so recovery replays the log with
//! the wire decoder and inherits the WAL's torn-tail prefix rule.
//!
//! ## Two-phase rounds
//!
//! A commit round is a two-phase protocol:
//!
//! 1. **Stage** — every worker WAL-logs the round and applies its
//!    deletes (answering with the removed rows, which the coordinator
//!    needs to count FUP2's delete side locally).
//! 2. **Count** — FUP/FUP2 run on the coordinator with a
//!    `VerticalProvider` whose splits are RPC sums; pass-1 base scans
//!    are offloaded the same way (`count_base_items` /
//!    `count_base_dense`), so no base row ever travels to the
//!    coordinator.
//! 3. **Decide** — `CommitRound` (or `AbortRound`) is WAL-logged and
//!    applied on every worker.
//!
//! A worker killed between phases recovers from its own checkpoint +
//! WAL: an undecided `StageRound` at the log's tail is re-staged and
//! reported at rejoin, and the coordinator resolves it from its
//! decision record — an acknowledged commit is never lost. While a
//! worker is down the coordinator fails rounds fast ([`Error::WorkerDown`]),
//! holding staged work in the bounded backlog (the backpressure gate);
//! published snapshots keep serving reads throughout.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use fup_mining::apriori::AprioriConfig;
use fup_mining::rules::generate_rules;
use fup_mining::{
    Apriori, CountingBackend, EngineConfig, ItemsetTable, LargeItemsets, MinConfidence, MinSupport,
    MiningStats,
};
use fup_tidb::rpc::{ChannelTransport, Message, Transport};
use fup_tidb::source::ChainSource;
use fup_tidb::{
    Admission, ChunkScratch, DurableStorage, FaultKind, ItemId, ScanMetrics, SegmentedDb,
    ShardSpec, SliceSource, StagingArea, Tid, Transaction, TransactionDb, TransactionSource,
    TxChunk, UpdateBatch,
};

use crate::config::FupConfig;
use crate::diff::{ItemsetDiff, RuleDiff};
use crate::error::{Error, Result};
use crate::fup::update_round;
use crate::policy::UpdatePolicy;
use crate::service::ShardHealth;
use crate::session::{MaintenanceReport, RuleSnapshot, SnapshotState};
use crate::vindex::{IndexSlot, VerticalProvider};

/// Per-shard WAL file name inside the worker's storage namespace.
const WAL_FILE: &str = "wal";
/// Per-shard checkpoint file name.
const CHECKPOINT_FILE: &str = "checkpoint";
/// Attempts for transient storage faults on the worker's WAL path.
const WAL_RETRIES: u32 = 4;

/// One shard's routed slice of a batch: tid-assigned inserts + deletes.
type RoutedSlice = (Vec<(Tid, Transaction)>, Vec<Tid>);

// ========================================================== worker ==

/// A round staged on a worker, held until its phase-2 decision.
struct StagedRound {
    round: u64,
    inserts: Vec<(Tid, Transaction)>,
    deletes: Vec<Tid>,
    /// Rows the deletes removed, request order — echoed in `StagedOk`.
    removed: Vec<(Tid, Transaction)>,
}

/// One shard's process: a [`SegmentedDb`] slice, a persistent
/// [`IndexSlot`], and a WAL + checkpoint in a private [`DurableStorage`]
/// namespace. Drives nothing itself — [`run`](ShardWorker::run) serves
/// requests until the transport closes (which models a crash: memory is
/// lost, storage survives).
pub struct ShardWorker {
    shard: usize,
    db: SegmentedDb,
    slot: IndexSlot,
    engine: EngineConfig,
    storage: Arc<dyn DurableStorage>,
    decided_round: u64,
    staged: Option<StagedRound>,
    /// The round's engaged index and its base/delta boundary.
    round_index: Option<(fup_mining::VerticalIndex, u64)>,
}

impl ShardWorker {
    /// Rebuilds a worker from its storage namespace: checkpoint first,
    /// then the WAL replayed frame by frame with the torn-tail prefix
    /// rule. An undecided `StageRound` at the tail is re-staged (its
    /// deletes re-applied) and will be reported at the next
    /// `HealthProbe`, so the coordinator can resolve it from its
    /// decision record. An empty namespace yields an empty shard.
    pub fn recover(
        shard: usize,
        storage: Arc<dyn DurableStorage>,
        engine: EngineConfig,
    ) -> Result<ShardWorker> {
        let mut db = SegmentedDb::new();
        let mut decided_round = 0u64;
        if let Some(bytes) = storage.read(CHECKPOINT_FILE).map_err(Error::Store)? {
            let (frames, torn) = fup_tidb::rpc::read_frames(&bytes);
            match (frames.as_slice(), torn) {
                ([Message::CommitRound { round }, Message::Rows(rows)], None) => {
                    decided_round = *round;
                    db.append_pairs(rows.clone());
                }
                _ => {
                    return Err(Error::Recovery {
                        reason: format!("shard {shard}: malformed checkpoint"),
                    })
                }
            }
        }
        let mut pending: Option<(u64, RoutedSlice)> = None;
        if let Some(bytes) = storage.read(WAL_FILE).map_err(Error::Store)? {
            let (frames, _torn) = fup_tidb::rpc::read_frames(&bytes);
            for frame in frames {
                match frame {
                    Message::StageRound {
                        round,
                        inserts,
                        deletes,
                    } if round > decided_round => {
                        // Idempotent against a duplicated append: the
                        // same round re-staged replaces itself.
                        pending = Some((round, (inserts, deletes)));
                    }
                    Message::CommitRound { round } => {
                        if let Some((r, (inserts, deletes))) = pending.take() {
                            if r == round {
                                for tid in deletes {
                                    let _ = db.remove_tid(tid);
                                }
                                db.append_pairs(inserts);
                            }
                        }
                        decided_round = decided_round.max(round);
                    }
                    Message::AbortRound { round } => {
                        if let Some((r, _)) = &pending {
                            if *r == round {
                                pending = None;
                            }
                        }
                        decided_round = decided_round.max(round);
                    }
                    _ => {}
                }
            }
        }
        let staged = pending.map(|(round, (inserts, deletes))| {
            let mut removed = Vec::with_capacity(deletes.len());
            for &tid in &deletes {
                if let Some(t) = db.remove_tid(tid) {
                    removed.push((tid, t));
                }
            }
            StagedRound {
                round,
                inserts,
                deletes,
                removed,
            }
        });
        Ok(ShardWorker {
            shard,
            db,
            slot: IndexSlot::new(),
            engine,
            storage,
            decided_round,
            staged,
            round_index: None,
        })
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

    /// Appends one protocol frame to the WAL and syncs, retrying
    /// transient faults (a transient fault leaves nothing behind — the
    /// [`FlakyStorage`](fup_tidb::FlakyStorage) contract).
    fn wal_append(&self, frame: &[u8]) -> Result<()> {
        self.wal_retry(|| self.storage.append(WAL_FILE, frame))?;
        self.wal_retry(|| self.storage.sync(WAL_FILE))
    }

    fn wal_retry(&self, mut op: impl FnMut() -> fup_tidb::Result<()>) -> Result<()> {
        let mut last: Option<fup_tidb::Error> = None;
        for _ in 0..WAL_RETRIES {
            match op() {
                Ok(()) => return Ok(()),
                Err(
                    e @ fup_tidb::Error::Io {
                        kind: FaultKind::Transient,
                        ..
                    },
                ) => last = Some(e),
                Err(e) => return Err(Error::Store(e)),
            }
        }
        Err(Error::Store(last.expect("at least one attempt ran")))
    }

    /// The staged round's insert side as a local delta source.
    fn staged_delta(&self) -> TransactionDb {
        let inserts = self
            .staged
            .as_ref()
            .map(|s| s.inserts.as_slice())
            .unwrap_or(&[]);
        TransactionDb::from_transactions(inserts.iter().map(|(_, t)| t.clone()))
    }

    fn handle(&mut self, msg: &Message) -> Result<Message> {
        match msg {
            Message::StageRound {
                round,
                inserts,
                deletes,
            } => self.handle_stage(*round, inserts, deletes),
            Message::Engage { keep } => {
                if self.staged.is_none() {
                    return Ok(Message::Err("engage without a staged round".into()));
                }
                if self.round_index.is_none() {
                    let delta = self.staged_delta();
                    let boundary = TransactionSource::num_transactions(&self.db);
                    let idx = self.slot.acquire_items(
                        keep.iter().copied(),
                        &self.db,
                        &delta,
                        &self.engine,
                    );
                    self.round_index = Some((idx, boundary));
                }
                Ok(Message::Ok)
            }
            Message::CountSplit { k, items } => {
                let Some((idx, boundary)) = &self.round_index else {
                    return Ok(Message::Err("count before engage".into()));
                };
                let table = ItemsetTable::from_flat_rows(*k as usize, items.clone());
                Ok(Message::Splits(idx.count_rows_split(
                    &table,
                    *boundary,
                    &self.engine,
                )))
            }
            Message::CountItems { items } => {
                let index_of: HashMap<ItemId, usize> =
                    items.iter().enumerate().map(|(i, &x)| (x, i)).collect();
                let mut counts = vec![0u64; items.len()];
                TransactionSource::for_each(&self.db, &mut |tx: &[ItemId]| {
                    for item in tx {
                        if let Some(&i) = index_of.get(item) {
                            counts[i] += 1;
                        }
                    }
                });
                Ok(Message::Counts(counts))
            }
            Message::CountDense => {
                let mut counts: Vec<u64> = Vec::new();
                TransactionSource::for_each(&self.db, &mut |tx: &[ItemId]| {
                    for item in tx {
                        let i = item.index();
                        if i >= counts.len() {
                            counts.resize(i + 1, 0);
                        }
                        counts[i] += 1;
                    }
                });
                Ok(Message::Counts(counts))
            }
            Message::FinishRound => {
                if let Some((idx, _)) = self.round_index.take() {
                    self.slot.stash(idx);
                }
                Ok(Message::Ok)
            }
            Message::CommitRound { round } => self.handle_commit(*round, msg),
            Message::AbortRound { round } => self.handle_abort(*round, msg),
            Message::Checkpoint => self.handle_checkpoint(),
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
                    removed: st.removed.clone(),
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
        let mut seen = HashSet::new();
        for tid in deletes {
            if !self.db.contains(*tid) || !seen.insert(*tid) {
                return Ok(Message::Err(format!("unknown tid {}", tid.0)));
            }
        }
        // Log before acting: the frame *is* the WAL record.
        let frame = Message::StageRound {
            round,
            inserts: inserts.to_vec(),
            deletes: deletes.to_vec(),
        }
        .to_frame();
        self.wal_append(&frame)?;
        let mut removed = Vec::with_capacity(deletes.len());
        for &tid in deletes {
            let t = self.db.remove_tid(tid).expect("validated above");
            removed.push((tid, t));
        }
        self.staged = Some(StagedRound {
            round,
            inserts: inserts.to_vec(),
            deletes: deletes.to_vec(),
            removed: removed.clone(),
        });
        Ok(Message::StagedOk { round, removed })
    }

    fn handle_commit(&mut self, round: u64, msg: &Message) -> Result<Message> {
        let Some(st) = &self.staged else {
            // Idempotent redelivery of an already-decided round (the
            // rejoin handshake may resolve a round the worker already
            // decided before crashing).
            if round <= self.decided_round {
                return Ok(Message::Ok);
            }
            return Ok(Message::Err(format!("no staged round to commit ({round})")));
        };
        if st.round != round {
            return Ok(Message::Err(format!(
                "staged round {} does not match commit {round}",
                st.round
            )));
        }
        self.wal_append(&msg.to_frame())?;
        let st = self.staged.take().expect("checked above");
        self.db.append_pairs(st.inserts.clone());
        // Mirror the flat session's `align_index`: a round whose
        // counting stashed the index (FinishRound) already covers
        // base ∪ delta; otherwise insert-only rounds extend the held
        // index, delete rounds drop it (swap_remove reordered the live
        // set).
        let touched = self.slot.take_touched();
        if !touched {
            if st.deletes.is_empty() {
                let delta =
                    TransactionDb::from_transactions(st.inserts.iter().map(|(_, t)| t.clone()));
                self.slot.extend_with(&delta, &self.engine);
            } else {
                self.slot.clear();
            }
        }
        self.round_index = None;
        self.decided_round = round;
        Ok(Message::Ok)
    }

    fn handle_abort(&mut self, round: u64, msg: &Message) -> Result<Message> {
        let Some(st) = &self.staged else {
            if round <= self.decided_round {
                return Ok(Message::Ok);
            }
            return Ok(Message::Err(format!("no staged round to abort ({round})")));
        };
        if st.round != round {
            return Ok(Message::Err(format!(
                "staged round {} does not match abort {round}",
                st.round
            )));
        }
        self.wal_append(&msg.to_frame())?;
        let st = self.staged.take().expect("checked above");
        // Removed rows go back at the end of the live set, exactly as
        // the in-process abort does — which is why the slot must drop
        // its index when rows were removed (order changed).
        self.db.append_pairs(st.removed);
        if !st.deletes.is_empty() {
            self.slot.clear();
        }
        let _ = self.slot.take_touched();
        self.round_index = None;
        self.decided_round = round;
        Ok(Message::Ok)
    }

    fn handle_checkpoint(&mut self) -> Result<Message> {
        if self.staged.is_some() {
            return Ok(Message::Err("checkpoint with a round staged".into()));
        }
        let mut bytes = Message::CommitRound {
            round: self.decided_round,
        }
        .to_frame();
        bytes.extend_from_slice(
            &Message::Rows(self.db.iter().map(|(tid, t)| (tid, t.clone())).collect()).to_frame(),
        );
        self.storage
            .write_atomic(CHECKPOINT_FILE, &bytes)
            .map_err(Error::Store)?;
        self.storage.remove(WAL_FILE).map_err(Error::Store)?;
        Ok(Message::Ok)
    }
}

// ==================================================== phantom base ==

/// A [`TransactionSource`] standing in for base rows that live in the
/// shard workers: it knows its size (the algorithms' `|DB|` / `|DB⁻|`
/// arithmetic needs it) but panics on any scan — with the engine pinned
/// to [`CountingBackend::Vertical`] and the provider answering the
/// pass-1 hooks, no code path should ever scan it, and a panic here is
/// a provider regression, not a recoverable condition.
struct PhantomSource {
    n: u64,
    metrics: ScanMetrics,
}

impl PhantomSource {
    fn new(n: u64) -> Self {
        PhantomSource {
            n,
            metrics: ScanMetrics::new(),
        }
    }
}

impl TransactionSource for PhantomSource {
    fn num_transactions(&self) -> u64 {
        self.n
    }

    fn for_each(&self, _f: &mut dyn FnMut(&[ItemId])) {
        panic!("cluster base rows live in shard workers; local scan is a provider regression");
    }

    fn metrics(&self) -> &ScanMetrics {
        &self.metrics
    }

    fn chunk<'s>(
        &'s self,
        _chunk_size: usize,
        _index: u64,
        _scratch: &'s mut ChunkScratch,
    ) -> TxChunk<'s> {
        panic!("cluster base rows live in shard workers; local scan is a provider regression");
    }
}

// ======================================================= provider ==

/// The cluster's [`VerticalProvider`]: every split request is broadcast
/// to the workers and the per-shard answers are summed element-wise —
/// supports are additive over disjoint tid ranges, so the sums equal a
/// flat index's splits bit for bit. Worker failures cannot surface as
/// `Err` through the provider seam (the round loops treat counts as
/// infallible), so they are recorded in a failure flag the coordinator
/// checks after the run; counts returned after a failure are garbage
/// and the round is aborted without looking at them.
struct ClusterProvider<'a> {
    workers: &'a [WorkerHandle],
    engaged: bool,
    failure: std::cell::RefCell<Option<(usize, String)>>,
}

impl<'a> ClusterProvider<'a> {
    fn new(workers: &'a [WorkerHandle]) -> Self {
        ClusterProvider {
            workers,
            engaged: false,
            failure: std::cell::RefCell::new(None),
        }
    }

    fn note_failure(&self, shard: usize, reason: String) {
        let mut slot = self.failure.borrow_mut();
        if slot.is_none() {
            *slot = Some((shard, reason));
        }
    }

    fn take_failure(&self) -> Option<(usize, String)> {
        self.failure.borrow_mut().take()
    }

    /// One request/reply exchange with worker `s`; transport errors and
    /// `Err` replies both land in the failure flag.
    fn exchange(&self, s: usize, msg: &Message) -> Option<Message> {
        match self.workers[s].call(msg) {
            Ok(Message::Err(reason)) => {
                self.note_failure(s, reason);
                None
            }
            Ok(reply) => Some(reply),
            Err(e) => {
                self.note_failure(s, e.to_string());
                None
            }
        }
    }
}

impl VerticalProvider for ClusterProvider<'_> {
    fn engaged(&self) -> bool {
        self.engaged
    }

    fn engage(&mut self, old: &LargeItemsets, result: &LargeItemsets, _engine: &EngineConfig) {
        if self.engaged {
            return;
        }
        let mut keep: Vec<ItemId> = old
            .level(1)
            .chain(result.level(1))
            .map(|(x, _)| x.items()[0])
            .collect();
        keep.sort_unstable();
        keep.dedup();
        let msg = Message::Engage { keep };
        for s in 0..self.workers.len() {
            if let Some(reply) = self.exchange(s, &msg) {
                if reply != Message::Ok {
                    self.note_failure(s, format!("unexpected engage reply: {reply:?}"));
                }
            }
        }
        self.engaged = true;
    }

    fn count_split(&self, table: &ItemsetTable, _engine: &EngineConfig) -> Vec<(u64, u64)> {
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
        let mut totals = vec![(0u64, 0u64); table.len()];
        for s in 0..self.workers.len() {
            match self.exchange(s, &msg) {
                Some(Message::Splits(v)) if v.len() == totals.len() => {
                    for (t, x) in totals.iter_mut().zip(v) {
                        t.0 += x.0;
                        t.1 += x.1;
                    }
                }
                Some(reply) => self.note_failure(s, format!("unexpected splits reply: {reply:?}")),
                None => {}
            }
        }
        totals
    }

    fn count_base_items(&self, items: &[ItemId], _engine: &EngineConfig) -> Option<Vec<u64>> {
        let msg = Message::CountItems {
            items: items.to_vec(),
        };
        let mut totals = vec![0u64; items.len()];
        for s in 0..self.workers.len() {
            match self.exchange(s, &msg) {
                Some(Message::Counts(v)) if v.len() == totals.len() => {
                    for (t, x) in totals.iter_mut().zip(v) {
                        *t += x;
                    }
                }
                Some(reply) => self.note_failure(s, format!("unexpected counts reply: {reply:?}")),
                None => {}
            }
        }
        // Always `Some`: the base source is a phantom and must never be
        // scanned, even on a failed round (the coordinator aborts it).
        Some(totals)
    }

    fn count_base_dense(&self, _engine: &EngineConfig) -> Option<Vec<u64>> {
        let mut totals: Vec<u64> = Vec::new();
        for s in 0..self.workers.len() {
            match self.exchange(s, &Message::CountDense) {
                Some(Message::Counts(v)) => {
                    if v.len() > totals.len() {
                        totals.resize(v.len(), 0);
                    }
                    for (i, x) in v.into_iter().enumerate() {
                        totals[i] += x;
                    }
                }
                Some(reply) => self.note_failure(s, format!("unexpected counts reply: {reply:?}")),
                None => {}
            }
        }
        Some(totals)
    }

    fn finish(&mut self) {
        if !self.engaged {
            return;
        }
        for s in 0..self.workers.len() {
            let _ = self.exchange(s, &Message::FinishRound);
        }
    }
}

// ==================================================== coordinator ==

/// Coordinator-side handle to one shard worker.
struct WorkerHandle {
    transport: Mutex<Box<dyn Transport>>,
    up: bool,
    /// A round staged on the worker awaiting its phase-2 decision (set
    /// through crash windows so the rejoin handshake can resolve it).
    staged_round: Option<u64>,
    /// Update operations (inserts + deletes) committed into this shard
    /// since the cluster started.
    ops: u64,
}

impl WorkerHandle {
    fn call(&self, msg: &Message) -> Result<Message> {
        let mut t = self.transport.lock().expect("transport lock");
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
    round: u64,
    /// Phase-2 decision per round: `true` committed, `false` aborted.
    /// This is what makes an acknowledged commit survive a worker
    /// crash — the rejoin handshake replays the decision.
    decisions: HashMap<u64, bool>,
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

fn spawn_worker(
    s: usize,
    storage: Arc<dyn DurableStorage>,
    engine: EngineConfig,
) -> (WorkerHandle, JoinHandle<()>) {
    let (coord, mut remote) = ChannelTransport::pair();
    let thread = std::thread::Builder::new()
        .name(format!("fup-shard-{s}"))
        .spawn(move || match ShardWorker::recover(s, storage, engine) {
            Ok(mut worker) => worker.run(&mut remote),
            // A worker that cannot recover stays on its transport and
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
        staged_round: None,
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
    /// starts durable with an empty WAL.
    ///
    /// The engine backend is pinned to [`CountingBackend::Vertical`]:
    /// every k ≥ 2 pass counts through the per-shard indexes (summed
    /// splits), and pass 1 goes through the count hooks — no base row
    /// ever travels to the coordinator. Storages must be empty (worker
    /// recovery into an existing namespace is
    /// [`restart_worker`](Cluster::restart_worker)'s job).
    pub fn bootstrap(
        spec: ShardSpec,
        storages: Vec<Arc<dyn DurableStorage>>,
        history: Vec<Transaction>,
        minsup: MinSupport,
        minconf: MinConfidence,
        mut config: FupConfig,
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
        config.engine.backend = CountingBackend::Vertical;
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
            let (handle, thread) = spawn_worker(s, Arc::clone(storage), config.engine.clone());
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
            round: 0,
            decisions: HashMap::new(),
            retry: None,
        };
        for s in 0..cluster.workers.len() {
            match cluster.workers[s].call(&Message::HealthProbe)? {
                Message::Health {
                    live: 0,
                    decided_round: 0,
                    staged_round: None,
                } => {}
                _ => {
                    return Err(Error::Recovery {
                        reason: format!("shard {s}: storage namespace is not empty"),
                    })
                }
            }
        }
        // Initial load: route the history as commit round 1, then
        // checkpoint so the bulk rows live in the checkpoint, not the WAL.
        let batch = UpdateBatch::insert_only(history);
        cluster.run_two_phase(&batch)?;
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
    /// Routes a batch through the shard spec: inserts get prospective
    /// tids (`next_tid + i`, the tids the commit will assign), deletes
    /// go to the shard owning their tid.
    fn route(&self, batch: &UpdateBatch) -> Vec<RoutedSlice> {
        let mut out = vec![(Vec::new(), Vec::new()); self.spec.num_shards()];
        for (i, t) in batch.inserts.iter().enumerate() {
            let tid = Tid(self.next_tid + i as u64);
            out[self.spec.shard_of(tid)].0.push((tid, t.clone()));
        }
        for &tid in &batch.deletes {
            out[self.spec.shard_of(tid)].1.push(tid);
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

    /// Phase 1: stages `routed` as `round` on every worker (empty
    /// slices included — round boundaries are lockstep). On success
    /// returns the rows the deletes removed, keyed by tid. On failure
    /// the already-staged prefix is aborted and the failing worker is
    /// marked down.
    fn stage_round(
        &mut self,
        round: u64,
        routed: &[RoutedSlice],
    ) -> Result<HashMap<u64, Transaction>> {
        let mut removed = HashMap::new();
        let mut staged_on: Vec<usize> = Vec::new();
        for (s, slice) in routed.iter().enumerate() {
            let msg = Message::StageRound {
                round,
                inserts: slice.0.clone(),
                deletes: slice.1.clone(),
            };
            let fail = |reason: String| -> (usize, String) { (s, reason) };
            let err = match self.workers[s].call(&msg) {
                Ok(Message::StagedOk {
                    round: r,
                    removed: rem,
                }) if r == round => {
                    staged_on.push(s);
                    self.workers[s].staged_round = Some(round);
                    for (tid, t) in rem {
                        removed.insert(tid.0, t);
                    }
                    continue;
                }
                Ok(Message::Err(reason)) => fail(reason),
                Ok(other) => fail(format!("unexpected stage reply: {other:?}")),
                Err(e) => {
                    self.workers[s].up = false;
                    fail(e.to_string())
                }
            };
            self.abort_round(round, &staged_on);
            self.decisions.insert(round, false);
            self.round = round;
            return Err(down(err.0, err.1));
        }
        Ok(removed)
    }

    /// Phase 2 (commit arm): decides `round` as committed and delivers
    /// the decision to every worker. A worker that cannot be reached
    /// keeps its staged round durably and completes the commit from the
    /// decision record at rejoin — the commit is acknowledged either
    /// way, because every worker holds the round in its WAL.
    fn commit_round(&mut self, round: u64, routed: &[RoutedSlice]) {
        self.decisions.insert(round, true);
        self.round = round;
        let msg = Message::CommitRound { round };
        for (s, slice) in routed.iter().enumerate() {
            match self.workers[s].call(&msg) {
                Ok(Message::Ok) => {
                    self.workers[s].staged_round = None;
                    self.workers[s].ops += slice.0.len() as u64 + slice.1.len() as u64;
                }
                Ok(_) | Err(_) => {
                    // Staged durably on the worker; resolved at rejoin.
                    self.workers[s].up = false;
                }
            }
        }
    }

    /// Phase 2 (abort arm): delivers the abort to every worker in
    /// `staged_on`; unreachable workers resolve at rejoin from the
    /// decision record.
    fn abort_round(&mut self, round: u64, staged_on: &[usize]) {
        let msg = Message::AbortRound { round };
        for &s in staged_on {
            match self.workers[s].call(&msg) {
                Ok(Message::Ok) => self.workers[s].staged_round = None,
                Ok(_) | Err(_) => self.workers[s].up = false,
            }
        }
    }

    /// Stage + commit with no counting in between — the load path for
    /// bootstrap rounds. Updates all coordinator
    /// bookkeeping (tids, live view, claims, totals).
    fn run_two_phase(&mut self, batch: &UpdateBatch) -> Result<Vec<Tid>> {
        let round = self.round + 1;
        let routed = self.route(batch);
        self.stage_round(round, &routed)?;
        let new_tids: Vec<Tid> = (0..batch.inserts.len() as u64)
            .map(|i| Tid(self.next_tid + i))
            .collect();
        self.commit_round(round, &routed);
        self.staging.live_remove(batch.deletes.iter().copied());
        self.staging.release_deletes(batch.deletes.iter().copied());
        self.staging.live_insert(new_tids.iter().copied());
        self.next_tid += batch.inserts.len() as u64;
        self.total_live = self.total_live + batch.inserts.len() as u64 - batch.deletes.len() as u64;
        Ok(new_tids)
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
        let ops = batch.num_ops();
        if self.policy.should_remine(ops, self.total_live) {
            return self.commit_by_remine(batch);
        }
        let round = self.round + 1;
        let routed = self.route(&batch);
        let removed = match self.stage_round(round, &routed) {
            Ok(removed) => removed,
            Err(e) => {
                self.park_retry(batch);
                return Err(e);
            }
        };
        let d_minus = batch.deletes.len() as u64;
        let deleted_db = TransactionDb::from_transactions(batch.deletes.iter().map(|tid| {
            removed
                .get(&tid.0)
                .expect("worker acknowledged every routed delete")
                .clone()
        }));
        let inserted_db = TransactionDb::from_transactions(batch.inserts.iter().cloned());
        let state = Arc::clone(&self.state);
        let mut provider = ClusterProvider::new(&self.workers);
        let remainder = PhantomSource::new(self.total_live - d_minus);
        let outcome = update_round(
            &self.config,
            &remainder,
            state.large(),
            &deleted_db,
            &inserted_db,
            self.minsup,
            &mut provider,
        );
        let failure = provider.take_failure();
        drop(provider);
        if let Some((shard, reason)) = failure {
            // Counting lost a worker mid-round: the sums are garbage.
            // Abort everywhere reachable (the dead worker resolves at
            // rejoin) and hold the batch for a re-run.
            let staged: Vec<usize> = (0..self.workers.len()).collect();
            self.abort_round(round, &staged);
            self.decisions.insert(round, false);
            self.round = round;
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
                let staged: Vec<usize> = (0..self.workers.len()).collect();
                self.abort_round(round, &staged);
                self.decisions.insert(round, false);
                self.round = round;
                self.staging.release_deletes(batch.deletes.iter().copied());
                return Err(e);
            }
        };
        let new_tids: Vec<Tid> = (0..batch.inserts.len() as u64)
            .map(|i| Tid(self.next_tid + i))
            .collect();
        self.commit_round(round, &routed);
        self.staging.live_remove(batch.deletes.iter().copied());
        self.staging.release_deletes(batch.deletes.iter().copied());
        self.staging.live_insert(new_tids.iter().copied());
        self.next_tid += batch.inserts.len() as u64;
        self.total_live = self.total_live + batch.inserts.len() as u64 - d_minus;
        let algorithm = outcome.stats.algorithm;
        Ok(self.publish(outcome.large, algorithm, outcome.stats, new_tids))
    }

    /// Policy-routed re-mine: the batch still two-phases through the
    /// workers, but counting is a from-scratch Apriori over the rows
    /// fetched back from every shard (after the deletes, plus the
    /// batch's inserts) — the round's post-state, mined locally.
    fn commit_by_remine(&mut self, batch: UpdateBatch) -> Result<MaintenanceReport> {
        let round = self.round + 1;
        let routed = self.route(&batch);
        if let Err(e) = self.stage_round(round, &routed) {
            self.park_retry(batch);
            return Err(e);
        }
        let mut rows: Vec<Transaction> = Vec::new();
        for s in 0..self.workers.len() {
            match self.workers[s].call(&Message::FetchRows) {
                Ok(Message::Rows(v)) => rows.extend(v.into_iter().map(|(_, t)| t)),
                Ok(other) => {
                    let staged: Vec<usize> = (0..self.workers.len()).collect();
                    self.abort_round(round, &staged);
                    self.decisions.insert(round, false);
                    self.round = round;
                    self.park_retry(batch);
                    return Err(down(s, format!("unexpected rows reply: {other:?}")));
                }
                Err(e) => {
                    self.workers[s].up = false;
                    let staged: Vec<usize> = (0..self.workers.len()).collect();
                    self.abort_round(round, &staged);
                    self.decisions.insert(round, false);
                    self.round = round;
                    self.park_retry(batch);
                    return Err(down(s, e.to_string()));
                }
            }
        }
        let (kept, inserted) = (SliceSource::new(&rows), SliceSource::new(&batch.inserts));
        let post_state = ChainSource::new(&kept, &inserted);
        let outcome = Apriori::with_config(AprioriConfig {
            max_k: self.config.max_k,
            engine: self.config.engine.clone(),
        })
        .run(&post_state, self.minsup);
        let new_tids: Vec<Tid> = (0..batch.inserts.len() as u64)
            .map(|i| Tid(self.next_tid + i))
            .collect();
        self.commit_round(round, &routed);
        self.staging.live_remove(batch.deletes.iter().copied());
        self.staging.release_deletes(batch.deletes.iter().copied());
        self.staging.live_insert(new_tids.iter().copied());
        self.next_tid += batch.inserts.len() as u64;
        self.total_live = self.total_live + batch.inserts.len() as u64 - batch.deletes.len() as u64;
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
        match self.workers[shard].call(&Message::HealthProbe)? {
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
        *self.workers[shard]
            .transport
            .lock()
            .expect("transport lock") = Box::new(dead);
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
        let probe = self.probe(shard)?;
        if let Some(round) = probe.staged_round {
            let committed = self.decisions.get(&round).copied().unwrap_or(false);
            let msg = if committed {
                Message::CommitRound { round }
            } else {
                Message::AbortRound { round }
            };
            match self.workers[shard].call(&msg)? {
                Message::Ok => {}
                other => return Err(down(shard, format!("rejoin resolution refused: {other:?}"))),
            }
        }
        self.workers[shard].staged_round = None;
        Ok(())
    }

    /// Checkpoints every worker (requires all up and nothing staged):
    /// each writes its rows + decided round atomically and truncates
    /// its WAL.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.ensure_all_up()?;
        for s in 0..self.workers.len() {
            match self.workers[s].call(&Message::Checkpoint) {
                Ok(Message::Ok) => {}
                Ok(Message::Err(reason)) => return Err(down(s, reason)),
                Ok(other) => return Err(down(s, format!("unexpected reply: {other:?}"))),
                Err(e) => {
                    self.workers[s].up = false;
                    return Err(e);
                }
            }
        }
        Ok(())
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
        for s in 0..self.workers.len() {
            if self.workers[s].up {
                let _ = self.workers[s].call(&Message::Shutdown);
            }
        }
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
