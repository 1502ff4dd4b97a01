//! Sharded, thread-safe staging for [`ShardedDb`](crate::ShardedDb):
//! the pending area behind `enqueue`/`take_pending_entries`, built so many
//! producer threads can stage update batches **concurrently** — through
//! `&self` — while scans of the live set and snapshot reads proceed
//! untouched.
//!
//! ## Design
//!
//! * **Lock-striped shards.** Arriving batches land in one of
//!   [`StagingArea::num_shards`] queues, each behind its own mutex;
//!   producers hitting different shards never contend. Every batch takes
//!   a **ticket** from one shared atomic counter, so the drain can
//!   re-assemble the exact global arrival order (sort by ticket) no
//!   matter how batches interleaved across shards — the committed round
//!   is deterministic given the arrival sequence.
//! * **Arrival-time delete validation.** Deletes are validated when
//!   staged, exactly like the single-threaded pending area: the tid must
//!   be live and not already claimed by an earlier pending delete. The
//!   area keeps its own *live-tid view* (maintained by the owning
//!   [`ShardedDb`](crate::ShardedDb) on every mutation) so validation
//!   never touches the store — producers can validate while a commit
//!   round is scanning.
//! * **Claims survive the round.** A drained delete stays claimed until
//!   the round that carries it commits or aborts; only then does the tid
//!   leave (or re-enter) the live view and the claim set together. A
//!   producer therefore can never double-book a deletion against a round
//!   in flight.
//!
//! The area is shared by `Arc`: the store holds one handle and hands out
//! clones ([`ShardedDb::staging`](crate::ShardedDb::staging)) to
//! producer threads, which is what lets a maintenance service accept
//! `stage(&self, …)` calls while its committer thread owns the store
//! mutably.

use crate::error::{Error, Result};
use crate::segment::{Tid, UpdateBatch};
use crate::sync;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, RwLock};
use std::time::Instant;

/// Default shard count — enough stripes that a handful of producer
/// threads effectively never collide on a shard mutex.
pub const DEFAULT_STAGING_SHARDS: usize = 16;

/// One shard's queue: `(ticket, batch)` pairs in local arrival order.
type Shard = Vec<(u64, UpdateBatch)>;

/// How a producer wants to wait when the staging area is at capacity.
///
/// With no capacity limit configured every mode admits immediately; the
/// modes only differ once [`StagingArea::set_capacity`] has bounded the
/// area and it is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Fail immediately with [`Error::WouldBlock`] instead of waiting.
    Try,
    /// Wait (indefinitely) until a drain frees enough capacity.
    Block,
    /// Wait until the deadline, then fail with [`Error::StageTimeout`].
    Deadline(Instant),
}

/// The capacity gate: admitted-but-undrained ops plus the closed flag,
/// behind one mutex so blocked producers can park on the condvar.
#[derive(Debug, Default)]
struct Gate {
    /// Ops (inserts + deletes) admitted and not yet drained. Tracks the
    /// pending counters, but under the gate mutex so waiting is
    /// race-free.
    occupancy: u64,
    /// When set, every admission fails with [`Error::StagingClosed`].
    closed: bool,
}

/// A compact view of the live tid set: tids are assigned sequentially, so
/// "live" is *allocated* (`tid < watermark`) and *not tombstoned*. The
/// durable checkpoint format and the staging area's arrival-time delete
/// validation share this one representation — deletes tombstone a tid
/// instead of rewriting the tid universe.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LiveTidView {
    /// One past the highest tid ever allocated.
    watermark: u64,
    /// Allocated-but-deleted tids below the watermark.
    tombstones: HashSet<Tid>,
}

impl LiveTidView {
    /// A view with explicit parts — used when restoring from a checkpoint.
    pub fn from_parts(watermark: u64, tombstones: impl IntoIterator<Item = Tid>) -> Self {
        LiveTidView {
            watermark,
            tombstones: tombstones.into_iter().filter(|t| t.0 < watermark).collect(),
        }
    }

    /// `true` if `tid` is live (allocated and not tombstoned).
    pub fn contains(&self, tid: Tid) -> bool {
        tid.0 < self.watermark && !self.tombstones.contains(&tid)
    }

    /// One past the highest tid ever allocated.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Number of live tids.
    pub fn len(&self) -> u64 {
        self.watermark - self.tombstones.len() as u64
    }

    /// `true` if nothing is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tombstoned tids, ascending (materialised for serialisation).
    pub fn tombstones_sorted(&self) -> Vec<Tid> {
        let mut out: Vec<Tid> = self.tombstones.iter().copied().collect();
        out.sort_unstable();
        out
    }

    /// The live tids, ascending.
    pub fn live_sorted(&self) -> Vec<Tid> {
        let mut out = Vec::with_capacity(self.len() as usize);
        for t in 0..self.watermark {
            let tid = Tid(t);
            if !self.tombstones.contains(&tid) {
                out.push(tid);
            }
        }
        out
    }

    fn insert(&mut self, tid: Tid) {
        if tid.0 >= self.watermark {
            // Fresh allocations arrive in order; tolerate gaps anyway.
            for skipped in self.watermark..tid.0 {
                self.tombstones.insert(Tid(skipped));
            }
            self.watermark = tid.0 + 1;
        } else {
            // A tombstoned tid resurrected (an aborted deletion).
            self.tombstones.remove(&tid);
        }
    }

    fn remove(&mut self, tid: Tid) {
        if tid.0 < self.watermark {
            self.tombstones.insert(tid);
        }
    }
}

/// The sharded staging area. See the module docs for the concurrency
/// contract; the owning [`SegmentedDb`](crate::SegmentedDb) keeps the
/// live-tid view in sync.
#[derive(Debug)]
pub struct StagingArea {
    shards: Vec<Mutex<Shard>>,
    /// Global arrival tickets (also the shard selector).
    ticket: AtomicU64,
    /// Tids claimed by a pending *or in-flight* delete.
    claims: Mutex<HashSet<Tid>>,
    /// Mirror of the store's live tid set, for arrival-time validation
    /// without touching the store.
    live: RwLock<LiveTidView>,
    pending_inserts: AtomicU64,
    pending_deletes: AtomicU64,
    /// Capacity limit in ops; 0 means unbounded.
    capacity: AtomicU64,
    gate: Mutex<Gate>,
    freed: Condvar,
}

impl Default for StagingArea {
    fn default() -> Self {
        Self::with_shards(DEFAULT_STAGING_SHARDS)
    }
}

impl StagingArea {
    // ## Lock poisoning
    //
    // Every lock here recovers a poisoned guard (the rule in
    // `crate::sync`). No critical section in this module can be
    // interrupted between the steps of a multi-part invariant: each one
    // either mutates a single scalar or flag (gate occupancy, the closed
    // bit, the ticket counter), inserts/removes whole elements of one
    // collection (a shard's queue, the claim set, the live view), or
    // completes all validation *before* its first mutation (`claim`
    // reads the live view and rejects before extending the claim set).
    // The only panics that can fire inside a section are allocation
    // failures, which abort the process outright.

    /// An empty area with `shards` lock stripes (min 1).
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        StagingArea {
            shards: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            ticket: AtomicU64::new(0),
            claims: Mutex::new(HashSet::new()),
            live: RwLock::new(LiveTidView::default()),
            pending_inserts: AtomicU64::new(0),
            pending_deletes: AtomicU64::new(0),
            capacity: AtomicU64::new(0),
            gate: Mutex::new(Gate::default()),
            freed: Condvar::new(),
        }
    }

    /// Number of lock stripes.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Bounds the area to `limit` ops (inserts + deletes), or removes
    /// the bound with `None`. While more than `limit` ops are queued,
    /// new admissions wait or fail per their [`Admission`] mode. Raising
    /// the limit wakes blocked producers.
    pub fn set_capacity(&self, limit: Option<u64>) {
        self.capacity.store(limit.unwrap_or(0), Ordering::Relaxed);
        // Take the gate lock so no reserver can observe the old limit
        // between its capacity check and its wait.
        drop(sync::lock(&self.gate));
        self.freed.notify_all();
    }

    /// The configured capacity limit in ops, if any.
    pub fn capacity(&self) -> Option<u64> {
        match self.capacity.load(Ordering::Relaxed) {
            0 => None,
            n => Some(n),
        }
    }

    /// Ops (inserts + deletes) currently occupying the capacity gate:
    /// admitted (or reserved by a mid-flight stage) and not yet drained.
    pub fn occupancy(&self) -> u64 {
        sync::lock(&self.gate).occupancy
    }

    /// Closes the area to new admissions: every subsequent (and every
    /// blocked) [`reserve`](Self::reserve) fails with
    /// [`Error::StagingClosed`]. Draining, committing, and releasing
    /// claims still work — a shutdown drains the backlog after closing
    /// the door. Reopen with [`reopen_admissions`](Self::reopen_admissions).
    pub fn close_admissions(&self) {
        sync::lock(&self.gate).closed = true;
        self.freed.notify_all();
    }

    /// Reopens the area after [`close_admissions`](Self::close_admissions).
    pub fn reopen_admissions(&self) {
        sync::lock(&self.gate).closed = false;
        self.freed.notify_all();
    }

    /// Reserves `ops` worth of capacity, waiting per `admission` when
    /// the area is full. Every admission path (including the decomposed
    /// durable path) reserves before claiming; a reservation is paid
    /// back by a drain, or by [`release_capacity`](Self::release_capacity)
    /// if the stage fails after reserving.
    ///
    /// A batch larger than the whole capacity can never fit and is
    /// rejected immediately with [`Error::WouldBlock`] in every mode.
    pub fn reserve(&self, ops: u64, admission: Admission) -> Result<()> {
        let mut gate = sync::lock(&self.gate);
        loop {
            if gate.closed {
                return Err(Error::StagingClosed);
            }
            let limit = self.capacity.load(Ordering::Relaxed);
            if limit == 0 || gate.occupancy.saturating_add(ops) <= limit {
                gate.occupancy += ops;
                return Ok(());
            }
            if ops > limit {
                // Would never fit: waiting is a guaranteed hang.
                return Err(Error::WouldBlock {
                    pending: gate.occupancy,
                    capacity: limit,
                });
            }
            match admission {
                Admission::Try => {
                    return Err(Error::WouldBlock {
                        pending: gate.occupancy,
                        capacity: limit,
                    });
                }
                Admission::Block => {
                    gate = sync::wait(&self.freed, gate);
                }
                Admission::Deadline(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(Error::StageTimeout {
                            pending: gate.occupancy,
                            capacity: limit,
                        });
                    }
                    gate = sync::wait_timeout(&self.freed, gate, deadline - now);
                }
            }
        }
    }

    /// Returns `ops` worth of reserved capacity (a stage failed after
    /// reserving, or a drain paid back what it removed) and wakes
    /// blocked producers.
    pub fn release_capacity(&self, ops: u64) {
        if ops == 0 {
            return;
        }
        let mut gate = sync::lock(&self.gate);
        gate.occupancy = gate.occupancy.saturating_sub(ops);
        drop(gate);
        self.freed.notify_all();
    }

    /// Accounts `ops` against the gate without checking the limit or the
    /// closed flag — recovery re-admits a checkpoint/WAL backlog that
    /// must be accepted regardless of any capacity configured later.
    pub fn reserve_restored(&self, ops: u64) {
        sync::lock(&self.gate).occupancy += ops;
    }

    /// Queues a batch, validating deletes at arrival: every deleted tid
    /// must be live and not already claimed by an earlier pending (or
    /// in-flight) delete, including earlier in the same batch. On
    /// [`Error::UnknownTransaction`] nothing is queued.
    ///
    /// Takes `&self`: any number of producer threads may stage
    /// concurrently, with each other and with scans of the live set.
    /// Returns the batch's global arrival ticket.
    ///
    /// When a capacity limit is set and the area is full, **blocks**
    /// until a drain frees space — use [`try_stage`](Self::try_stage) or
    /// [`stage_deadline`](Self::stage_deadline) for bounded waiting.
    pub fn stage(&self, batch: UpdateBatch) -> Result<u64> {
        self.stage_with(batch, Admission::Block)
    }

    /// Non-blocking [`stage`](Self::stage): fails with
    /// [`Error::WouldBlock`] instead of waiting for capacity.
    pub fn try_stage(&self, batch: UpdateBatch) -> Result<u64> {
        self.stage_with(batch, Admission::Try)
    }

    /// [`stage`](Self::stage) that waits for capacity only until
    /// `deadline`, then fails with [`Error::StageTimeout`].
    pub fn stage_deadline(&self, batch: UpdateBatch, deadline: Instant) -> Result<u64> {
        self.stage_with(batch, Admission::Deadline(deadline))
    }

    /// [`stage`](Self::stage) with an explicit [`Admission`] mode.
    pub fn stage_with(&self, batch: UpdateBatch, admission: Admission) -> Result<u64> {
        let ops = batch.num_ops();
        self.reserve(ops, admission)?;
        if let Err(e) = self.claim(&batch.deletes) {
            self.release_capacity(ops);
            return Err(e);
        }
        let ticket = self.take_ticket();
        self.admit_with_ticket(ticket, batch);
        Ok(ticket)
    }

    /// Validates and claims a set of delete tids: every tid must be live
    /// and not already claimed by an earlier pending (or in-flight)
    /// delete, including earlier in the slice. On error nothing is
    /// claimed. A successful claim must be followed by
    /// [`admit_with_ticket`](Self::admit_with_ticket) or undone with
    /// [`release_deletes`](Self::release_deletes) — the durable write
    /// path claims first, appends the WAL record, and only then admits.
    pub fn claim(&self, deletes: &[Tid]) -> Result<()> {
        if deletes.is_empty() {
            return Ok(());
        }
        // Claim lock first, live view second — the same order the
        // store uses when it applies a round.
        let mut claims = sync::lock(&self.claims);
        {
            let live = sync::read(&self.live);
            let mut seen = HashSet::new();
            for &tid in deletes {
                if !live.contains(tid) || claims.contains(&tid) || !seen.insert(tid) {
                    return Err(Error::UnknownTransaction(tid));
                }
            }
        }
        claims.extend(deletes.iter().copied());
        Ok(())
    }

    /// Draws the next global arrival ticket.
    pub fn take_ticket(&self) -> u64 {
        self.ticket.fetch_add(1, Ordering::Relaxed)
    }

    /// Raises the ticket counter to at least `next` (no-op if it is
    /// already higher). Recovery re-admits logged batches under their
    /// original tickets and then bumps the counter past the highest
    /// ticket the log ever assigned, so fresh batches can never collide.
    pub fn bump_ticket(&self, next: u64) {
        self.ticket.fetch_max(next, Ordering::Relaxed);
    }

    /// Queues an already-claimed, already-ticketed batch. With
    /// [`claim`](Self::claim) + [`take_ticket`](Self::take_ticket) this is
    /// the decomposed [`stage`](Self::stage), letting the durable write
    /// path interpose a WAL append between validation and visibility.
    pub fn admit_with_ticket(&self, ticket: u64, batch: UpdateBatch) {
        // Counters go up *before* the batch is visible in a shard: a
        // concurrent drain then subtracts at most what it actually
        // merged, so the counters never underflow (they may transiently
        // overcount a batch still being pushed, which at worst wakes the
        // committer for an empty no-op round).
        self.pending_inserts
            .fetch_add(batch.inserts.len() as u64, Ordering::Relaxed);
        self.pending_deletes
            .fetch_add(batch.deletes.len() as u64, Ordering::Relaxed);
        let shard = &self.shards[(ticket % self.shards.len() as u64) as usize];
        sync::lock(shard).push((ticket, batch));
    }

    /// `(inserts, deletes)` currently queued. Snapshots of two relaxed
    /// counters — exact whenever no producer is mid-`stage` (a batch
    /// being staged may already be counted before it is drainable).
    pub fn pending_ops(&self) -> (u64, u64) {
        (
            self.pending_inserts.load(Ordering::Relaxed),
            self.pending_deletes.load(Ordering::Relaxed),
        )
    }

    /// `true` if at least one insert or delete is queued.
    pub fn has_pending(&self) -> bool {
        let (i, d) = self.pending_ops();
        i + d > 0
    }

    /// Assembles (a copy of) everything queued, in global arrival order,
    /// without draining. Batches staged concurrently with the call may or
    /// may not be included.
    pub fn snapshot(&self) -> UpdateBatch {
        Self::merge_entries(self.entries_snapshot())
    }

    /// Drains the queue, returning the accumulated batches concatenated
    /// in global arrival (ticket) order. Claims for the drained deletes
    /// are **kept** until [`release_deletes`](Self::release_deletes) —
    /// the round carrying them is now in flight.
    pub fn drain(&self) -> UpdateBatch {
        Self::merge_entries(self.drain_entries())
    }

    /// Drains the queue keeping per-batch boundaries: `(ticket, batch)`
    /// pairs in global arrival order. The durable commit path uses this
    /// to record exactly which tickets a round consumed. Claims for the
    /// drained deletes are kept, as with [`drain`](Self::drain).
    pub fn drain_entries(&self) -> Vec<(u64, UpdateBatch)> {
        let entries = self.collect_entries(std::mem::take);
        self.account_drained(&entries);
        entries
    }

    /// Drains at most `max_ops` ops (inserts + deletes) of the queue,
    /// keeping per-batch boundaries: the longest prefix of the global
    /// arrival (ticket) order whose op total stays within the bound.
    /// Batches are never split, so one invariant holds instead of a
    /// strict cap: **a returned round exceeds `max_ops` only when its
    /// first batch alone does** (an oversized batch travels alone).
    /// `None` drains everything, exactly like
    /// [`drain_entries`](Self::drain_entries). Claims for the drained
    /// deletes are kept, as with [`drain`](Self::drain); claims for
    /// batches left behind stay claimed for the round that will
    /// eventually carry them.
    pub fn drain_entries_up_to(&self, max_ops: Option<u64>) -> Vec<(u64, UpdateBatch)> {
        let Some(cap) = max_ops else {
            return self.drain_entries();
        };
        // Lock every shard at once for a consistent cut (producers only
        // ever hold one shard lock, so ordering cannot deadlock).
        // Within a shard tickets ascend, so the global ticket-order
        // prefix is a per-shard prefix: k-way merge the shard fronts
        // until the cap is reached, then drain each shard's prefix.
        let mut guards: Vec<_> = self.shards.iter().map(sync::lock).collect();
        let mut take = vec![0usize; guards.len()];
        let mut ops = 0u64;
        loop {
            let mut best: Option<usize> = None;
            for (i, guard) in guards.iter().enumerate() {
                if take[i] < guard.len() {
                    let ticket = guard[take[i]].0;
                    if best.is_none_or(|b: usize| ticket < guards[b][take[b]].0) {
                        best = Some(i);
                    }
                }
            }
            let Some(i) = best else { break };
            let batch_ops = guards[i][take[i]].1.num_ops();
            if ops > 0 && ops.saturating_add(batch_ops) > cap {
                break;
            }
            take[i] += 1;
            ops = ops.saturating_add(batch_ops);
            if ops >= cap {
                break;
            }
        }
        let mut entries: Vec<(u64, UpdateBatch)> = Vec::new();
        for (guard, &n) in guards.iter_mut().zip(&take) {
            entries.extend(guard.drain(..n));
        }
        drop(guards);
        entries.sort_unstable_by_key(|&(ticket, _)| ticket);
        self.account_drained(&entries);
        entries
    }

    /// Pays drained entries back to the pending counters and the
    /// capacity gate.
    fn account_drained(&self, entries: &[(u64, UpdateBatch)]) {
        let (mut inserts, mut deletes) = (0u64, 0u64);
        for (_, batch) in entries {
            inserts += batch.inserts.len() as u64;
            deletes += batch.deletes.len() as u64;
        }
        self.pending_inserts.fetch_sub(inserts, Ordering::Relaxed);
        self.pending_deletes.fetch_sub(deletes, Ordering::Relaxed);
        self.release_capacity(inserts + deletes);
    }

    /// A copy of the queued `(ticket, batch)` entries in global arrival
    /// order, without draining — the durable checkpoint embeds this
    /// backlog so a fresh WAL segment can start empty.
    pub fn entries_snapshot(&self) -> Vec<(u64, UpdateBatch)> {
        self.collect_entries(|shard| shard.clone())
    }

    /// Concatenates ticket-ordered entries into one batch.
    pub fn merge_entries(entries: Vec<(u64, UpdateBatch)>) -> UpdateBatch {
        let mut merged = UpdateBatch::default();
        for (_, batch) in entries {
            merged.inserts.extend(batch.inserts);
            merged.deletes.extend(batch.deletes);
        }
        merged
    }

    /// Drops everything queued, returning the discarded batch. The
    /// discarded deletes' claims are released — their tids may be staged
    /// for deletion again.
    pub fn discard(&self) -> UpdateBatch {
        let dropped = self.drain();
        self.release_deletes(dropped.deletes.iter().copied());
        dropped
    }

    /// Collects every shard through `take` (clone or drain) and returns
    /// the entries sorted by ticket — global arrival order.
    fn collect_entries(
        &self,
        mut take: impl FnMut(&mut Shard) -> Shard,
    ) -> Vec<(u64, UpdateBatch)> {
        let mut entries: Vec<(u64, UpdateBatch)> = Vec::new();
        for shard in &self.shards {
            let mut guard = sync::lock(shard);
            entries.append(&mut take(&mut guard));
        }
        entries.sort_unstable_by_key(|&(ticket, _)| ticket);
        entries
    }

    /// Releases delete claims (round committed, aborted, or discarded).
    pub fn release_deletes(&self, tids: impl IntoIterator<Item = Tid>) {
        let mut claims = sync::lock(&self.claims);
        for tid in tids {
            claims.remove(&tid);
        }
    }

    /// A copy of the current live-tid view (watermark + tombstones) — the
    /// compact live-set the durable checkpoint format serialises.
    pub fn live_view(&self) -> LiveTidView {
        sync::read(&self.live).clone()
    }

    /// Replaces the live view wholesale — used when a store is restored
    /// from a checkpoint.
    pub(crate) fn live_reset(&self, view: LiveTidView) {
        *sync::write(&self.live) = view;
    }

    /// Adds tids to the live view (the store appended transactions).
    ///
    /// Public for row routers that keep the authoritative live view on
    /// their own staging area — [`SegmentedDb`](crate::SegmentedDb) and
    /// [`ShardedDb`](crate::ShardedDb) in this crate, and the cluster
    /// coordinator (`fup_core::cluster`), whose rows live in worker
    /// processes, one crate up.
    pub fn live_insert(&self, tids: impl IntoIterator<Item = Tid>) {
        let mut live = sync::write(&self.live);
        for tid in tids {
            live.insert(tid);
        }
    }

    /// Removes tids from the live view (the store staged deletions).
    /// Public for the same routers as
    /// [`live_insert`](StagingArea::live_insert).
    pub fn live_remove(&self, tids: impl IntoIterator<Item = Tid>) {
        let mut live = sync::write(&self.live);
        for tid in tids {
            live.remove(tid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::Transaction;

    fn tx(items: &[u32]) -> Transaction {
        Transaction::from_items(items.iter().copied())
    }

    fn area_with_live(tids: &[u64]) -> StagingArea {
        let area = StagingArea::with_shards(4);
        area.live_insert(tids.iter().map(|&t| Tid(t)));
        area
    }

    #[test]
    fn tickets_preserve_arrival_order_across_shards() {
        let area = StagingArea::with_shards(3);
        for i in 0..10u32 {
            area.stage(UpdateBatch::insert_only(vec![tx(&[i])]))
                .unwrap();
        }
        let merged = area.drain();
        let got: Vec<u32> = merged.inserts.iter().map(|t| t.items()[0].raw()).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert!(!area.has_pending());
    }

    #[test]
    fn delete_validation_against_live_view_and_claims() {
        let area = area_with_live(&[1, 2, 3]);
        // Unknown tid: rejected, nothing queued.
        let err = area
            .stage(UpdateBatch::delete_only(vec![Tid(99)]))
            .unwrap_err();
        assert_eq!(err, Error::UnknownTransaction(Tid(99)));
        assert!(!area.has_pending());
        // First claim fine; second claim of the same tid rejected.
        area.stage(UpdateBatch::delete_only(vec![Tid(1)])).unwrap();
        let err = area
            .stage(UpdateBatch::delete_only(vec![Tid(1)]))
            .unwrap_err();
        assert_eq!(err, Error::UnknownTransaction(Tid(1)));
        // Duplicate within one batch rejected.
        let err = area
            .stage(UpdateBatch::delete_only(vec![Tid(2), Tid(2)]))
            .unwrap_err();
        assert_eq!(err, Error::UnknownTransaction(Tid(2)));
        assert_eq!(area.pending_ops(), (0, 1));
    }

    #[test]
    fn claims_survive_drain_until_released() {
        let area = area_with_live(&[1, 2]);
        area.stage(UpdateBatch::delete_only(vec![Tid(1)])).unwrap();
        let drained = area.drain();
        assert_eq!(drained.deletes, vec![Tid(1)]);
        // Still claimed while the round is in flight.
        let err = area
            .stage(UpdateBatch::delete_only(vec![Tid(1)]))
            .unwrap_err();
        assert_eq!(err, Error::UnknownTransaction(Tid(1)));
        // Released (e.g. the round aborted): claimable again.
        area.release_deletes(drained.deletes.iter().copied());
        area.stage(UpdateBatch::delete_only(vec![Tid(1)])).unwrap();
    }

    #[test]
    fn discard_releases_claims() {
        let area = area_with_live(&[7]);
        area.stage(UpdateBatch {
            inserts: vec![tx(&[1])],
            deletes: vec![Tid(7)],
        })
        .unwrap();
        let dropped = area.discard();
        assert_eq!(dropped.inserts.len(), 1);
        assert_eq!(dropped.deletes, vec![Tid(7)]);
        assert!(!area.has_pending());
        area.stage(UpdateBatch::delete_only(vec![Tid(7)])).unwrap();
    }

    #[test]
    fn live_view_is_watermark_plus_tombstones() {
        let area = StagingArea::with_shards(2);
        area.live_insert((0..5).map(Tid));
        area.live_remove([Tid(1), Tid(3)]);
        let view = area.live_view();
        assert_eq!(view.watermark(), 5);
        assert_eq!(view.len(), 3);
        assert!(view.contains(Tid(0)));
        assert!(!view.contains(Tid(1)));
        assert!(!view.contains(Tid(7))); // beyond the watermark
        assert_eq!(view.tombstones_sorted(), vec![Tid(1), Tid(3)]);
        assert_eq!(view.live_sorted(), vec![Tid(0), Tid(2), Tid(4)]);
        // An aborted deletion resurrects the tombstoned tid.
        area.live_insert([Tid(3)]);
        assert!(area.live_view().contains(Tid(3)));
        // Reconstructing from parts round-trips.
        let view = area.live_view();
        let rebuilt = LiveTidView::from_parts(view.watermark(), view.tombstones_sorted());
        assert_eq!(rebuilt, view);
    }

    #[test]
    fn drain_entries_keeps_ticket_boundaries() {
        let area = StagingArea::with_shards(3);
        for i in 0..5u32 {
            area.stage(UpdateBatch::insert_only(vec![tx(&[i])]))
                .unwrap();
        }
        let copy = area.entries_snapshot();
        assert_eq!(copy.len(), 5);
        assert!(area.has_pending(), "snapshot must not drain");
        let entries = area.drain_entries();
        assert_eq!(entries.len(), 5);
        for (i, (ticket, batch)) in entries.iter().enumerate() {
            assert_eq!(*ticket, i as u64);
            assert_eq!(batch.inserts[0].items()[0].raw(), i as u32);
        }
        assert!(!area.has_pending());
        assert_eq!(StagingArea::merge_entries(entries).inserts.len(), 5);
    }

    #[test]
    fn claim_then_admit_matches_stage() {
        let area = area_with_live(&[0, 1]);
        // The decomposed path: claim, ticket, admit.
        area.claim(&[Tid(0)]).unwrap();
        // Claim alone already excludes others...
        assert!(area.stage(UpdateBatch::delete_only(vec![Tid(0)])).is_err());
        // ...and releasing before admit frees the tid (a failed WAL
        // append takes this path).
        area.release_deletes([Tid(0)]);
        area.claim(&[Tid(0)]).unwrap();
        let ticket = area.take_ticket();
        area.admit_with_ticket(ticket, UpdateBatch::delete_only(vec![Tid(0)]));
        assert_eq!(area.pending_ops(), (0, 1));
        let entries = area.drain_entries();
        assert_eq!(
            entries,
            vec![(ticket, UpdateBatch::delete_only(vec![Tid(0)]))]
        );
    }

    #[test]
    fn concurrent_staging_loses_nothing() {
        let area = StagingArea::default();
        let per_thread = 200u32;
        std::thread::scope(|scope| {
            for worker in 0..8u32 {
                let area = &area;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        area.stage(UpdateBatch::insert_only(vec![tx(&[
                            worker * per_thread + i
                        ])]))
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(area.pending_ops(), (8 * per_thread as u64, 0));
        let merged = area.drain();
        let mut got: Vec<u32> = merged.inserts.iter().map(|t| t.items()[0].raw()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..8 * per_thread).collect::<Vec<_>>());
    }

    #[test]
    fn capacity_rejects_try_stage_when_full() {
        let area = StagingArea::with_shards(2);
        area.set_capacity(Some(3));
        assert_eq!(area.capacity(), Some(3));
        area.try_stage(UpdateBatch::insert_only(vec![tx(&[1]), tx(&[2])]))
            .unwrap();
        assert_eq!(area.occupancy(), 2);
        // 2 + 2 > 3: rejected with the typed error, nothing queued.
        let err = area
            .try_stage(UpdateBatch::insert_only(vec![tx(&[3]), tx(&[4])]))
            .unwrap_err();
        assert_eq!(
            err,
            Error::WouldBlock {
                pending: 2,
                capacity: 3
            }
        );
        assert_eq!(area.pending_ops(), (2, 0));
        // A single op still fits.
        area.try_stage(UpdateBatch::insert_only(vec![tx(&[3])]))
            .unwrap();
        // Draining pays the capacity back.
        area.drain();
        assert_eq!(area.occupancy(), 0);
        area.try_stage(UpdateBatch::insert_only(vec![tx(&[5]), tx(&[6])]))
            .unwrap();
    }

    #[test]
    fn oversized_batch_is_rejected_in_every_mode() {
        let area = StagingArea::with_shards(1);
        area.set_capacity(Some(2));
        let big = || UpdateBatch::insert_only(vec![tx(&[1]), tx(&[2]), tx(&[3])]);
        for admission in [
            Admission::Try,
            Admission::Block,
            Admission::Deadline(Instant::now() + std::time::Duration::from_secs(60)),
        ] {
            let err = area.stage_with(big(), admission).unwrap_err();
            assert!(matches!(err, Error::WouldBlock { capacity: 2, .. }));
        }
    }

    #[test]
    fn stage_deadline_times_out_with_typed_error() {
        let area = StagingArea::with_shards(1);
        area.set_capacity(Some(1));
        area.stage(UpdateBatch::insert_only(vec![tx(&[1])]))
            .unwrap();
        let deadline = Instant::now() + std::time::Duration::from_millis(20);
        let err = area
            .stage_deadline(UpdateBatch::insert_only(vec![tx(&[2])]), deadline)
            .unwrap_err();
        assert_eq!(
            err,
            Error::StageTimeout {
                pending: 1,
                capacity: 1
            }
        );
        assert_eq!(area.pending_ops(), (1, 0));
    }

    #[test]
    fn blocked_stage_wakes_when_a_drain_frees_capacity() {
        let area = StagingArea::with_shards(2);
        area.set_capacity(Some(2));
        area.stage(UpdateBatch::insert_only(vec![tx(&[1]), tx(&[2])]))
            .unwrap();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| area.stage(UpdateBatch::insert_only(vec![tx(&[3])])));
            // Let the producer park, then free capacity.
            std::thread::sleep(std::time::Duration::from_millis(20));
            let drained = area.drain();
            assert_eq!(drained.inserts.len(), 2);
            handle.join().unwrap().unwrap();
        });
        assert_eq!(area.pending_ops(), (1, 0));
        assert_eq!(area.occupancy(), 1);
    }

    #[test]
    fn close_admissions_fails_blocked_and_new_stages() {
        let area = StagingArea::with_shards(2);
        area.set_capacity(Some(1));
        area.stage(UpdateBatch::insert_only(vec![tx(&[1])]))
            .unwrap();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| area.stage(UpdateBatch::insert_only(vec![tx(&[2])])));
            std::thread::sleep(std::time::Duration::from_millis(20));
            area.close_admissions();
            assert_eq!(handle.join().unwrap().unwrap_err(), Error::StagingClosed);
        });
        // New admissions fail too, in every mode; the backlog drains fine.
        let err = area
            .try_stage(UpdateBatch::insert_only(vec![tx(&[3])]))
            .unwrap_err();
        assert_eq!(err, Error::StagingClosed);
        assert_eq!(area.drain().inserts.len(), 1);
        // Reopening restores service.
        area.reopen_admissions();
        area.stage(UpdateBatch::insert_only(vec![tx(&[4])]))
            .unwrap();
    }

    #[test]
    fn failed_claim_after_reserve_returns_the_capacity() {
        let area = area_with_live(&[1]);
        area.set_capacity(Some(4));
        let err = area
            .try_stage(UpdateBatch::delete_only(vec![Tid(99)]))
            .unwrap_err();
        assert_eq!(err, Error::UnknownTransaction(Tid(99)));
        assert_eq!(area.occupancy(), 0, "failed stage must not leak capacity");
    }

    #[test]
    fn bounded_drain_takes_an_arrival_order_prefix() {
        let area = StagingArea::with_shards(3);
        for i in 0..6u32 {
            // Batches of 2 ops each: tickets 0..6, ops 12 total.
            area.stage(UpdateBatch::insert_only(vec![tx(&[i]), tx(&[i + 100])]))
                .unwrap();
        }
        // Cap 5 ops → whole batches only → tickets {0, 1} (4 ops).
        let round = area.drain_entries_up_to(Some(5));
        assert_eq!(
            round.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(area.pending_ops(), (8, 0));
        // Cap 4 takes the next two, exactly.
        let round = area.drain_entries_up_to(Some(4));
        assert_eq!(
            round.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            vec![2, 3]
        );
        // No cap drains the rest.
        let round = area.drain_entries_up_to(None);
        assert_eq!(
            round.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            vec![4, 5]
        );
        assert!(!area.has_pending());
        assert_eq!(area.occupancy(), 0);
    }

    #[test]
    fn bounded_drain_lets_an_oversized_first_batch_travel_alone() {
        let area = StagingArea::with_shards(2);
        area.stage(UpdateBatch::insert_only(vec![tx(&[1]), tx(&[2]), tx(&[3])]))
            .unwrap();
        area.stage(UpdateBatch::insert_only(vec![tx(&[4])]))
            .unwrap();
        // Cap 2 < first batch's 3 ops: the oversized batch still moves,
        // alone, so the backlog can never wedge.
        let round = area.drain_entries_up_to(Some(2));
        assert_eq!(round.len(), 1);
        assert_eq!(round[0].1.inserts.len(), 3);
        assert_eq!(area.pending_ops(), (1, 0));
    }

    #[test]
    fn bounded_drain_keeps_claims_for_batches_left_behind() {
        let area = area_with_live(&[1, 2]);
        area.stage(UpdateBatch::delete_only(vec![Tid(1)])).unwrap();
        area.stage(UpdateBatch::delete_only(vec![Tid(2)])).unwrap();
        let round = area.drain_entries_up_to(Some(1));
        assert_eq!(round.len(), 1);
        // Both tids stay claimed: one by the in-flight round, one by the
        // batch still queued.
        for tid in [Tid(1), Tid(2)] {
            let err = area.stage(UpdateBatch::delete_only(vec![tid])).unwrap_err();
            assert_eq!(err, Error::UnknownTransaction(tid));
        }
    }

    #[test]
    fn poisoned_locks_recover_instead_of_cascading() {
        let area = area_with_live(&[1, 2, 3]);
        area.set_capacity(Some(10));
        // Panic while holding each internal guard: the unwinding marks
        // every one of them poisoned.
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let _gate = area.gate.lock().unwrap();
                let _claims = area.claims.lock().unwrap();
                let _live = area.live.write().unwrap();
                let _shard = area.shards[0].lock().unwrap();
                panic!("producer bug while holding staging locks");
            });
            assert!(handle.join().is_err(), "the poisoning panic must fire");
        });
        // Every path recovers the guards: admission, validation,
        // ticketing, draining, and the live view all still work.
        area.stage(UpdateBatch::insert_only(vec![tx(&[9])]))
            .unwrap();
        area.stage(UpdateBatch::delete_only(vec![Tid(1)])).unwrap();
        assert_eq!(area.occupancy(), 2);
        assert_eq!(area.pending_ops(), (1, 1));
        let err = area
            .stage(UpdateBatch::delete_only(vec![Tid(1)]))
            .unwrap_err();
        assert_eq!(err, Error::UnknownTransaction(Tid(1)));
        let drained = area.drain();
        assert_eq!(drained.inserts.len(), 1);
        assert_eq!(drained.deletes, vec![Tid(1)]);
        area.release_deletes(drained.deletes.iter().copied());
        assert!(area.live_view().contains(Tid(2)));
        area.close_admissions();
        area.reopen_admissions();
        area.stage(UpdateBatch::insert_only(vec![tx(&[10])]))
            .unwrap();
    }

    #[test]
    fn concurrent_delete_claims_are_exclusive() {
        // 8 threads race to claim the same 16 tids; each tid must be
        // granted exactly once.
        let area = area_with_live(&(0..16).collect::<Vec<_>>());
        let wins: Vec<AtomicU64> = (0..16).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let (area, wins) = (&area, &wins);
                scope.spawn(move || {
                    for tid in 0..16u64 {
                        if area.stage(UpdateBatch::delete_only(vec![Tid(tid)])).is_ok() {
                            wins[tid as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        for (tid, w) in wins.iter().enumerate() {
            assert_eq!(w.load(Ordering::Relaxed), 1, "tid {tid} claimed twice");
        }
        assert_eq!(area.pending_ops(), (0, 16));
    }
}
