//! Segmented store modelling the paper's update semantics.
//!
//! The FUP problem statement is: a database `DB` of `D` transactions
//! receives an increment `db` of `d` new transactions; find the large
//! itemsets of `DB ∪ db`. The FUP2 extension (§5) additionally allows a set
//! `db⁻ ⊆ DB` of deleted transactions. [`SegmentedDb`] models both with a
//! two-phase protocol:
//!
//! 1. [`SegmentedDb::stage`] removes the deleted transactions and hands back
//!    a [`StagedUpdate`] holding the materialised `db⁺` (insertions) and
//!    `db⁻` (deletions). While an update is staged, scanning the store
//!    itself yields exactly `DB⁻ = DB \ db⁻` — the portion FUP/FUP2 must
//!    check pruned candidates against.
//! 2. [`SegmentedDb::commit`] appends the insertions (making the store
//!    `(DB \ db⁻) ∪ db⁺`), or [`SegmentedDb::abort`] restores the deleted
//!    transactions.
//!
//! Batches accumulate before a round on the session's store, a
//! [`ShardedDb`](crate::ShardedDb), whose one [`StagingArea`] validates
//! them at arrival and hands them to `stage`+`commit` in global arrival
//! order; a [`SegmentedDb`] is one shard of it. Its own staging area
//! only tracks the live-tid view of rows it assigned itself.

use crate::database::TransactionDb;
use crate::error::{Error, Result};
use crate::item::ItemId;
use crate::scan::ScanMetrics;
use crate::source::TransactionSource;
use crate::staging::{LiveTidView, StagingArea};
use crate::transaction::Transaction;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A stable identifier for a stored transaction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tid(pub u64);

impl fmt::Debug for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tid:{}", self.0)
    }
}

/// A stable identifier for an applied update batch (one `stage`+`commit`
/// round). Mostly useful for audit trails in the maintenance layer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub u32);

impl fmt::Debug for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seg:{}", self.0)
    }
}

/// A batch of changes: transactions to insert (`db⁺`) and transaction ids to
/// delete (`db⁻`). The paper's base FUP algorithm is the pure-insertion case
/// (`deletes` empty).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct UpdateBatch {
    /// New transactions to append.
    pub inserts: Vec<Transaction>,
    /// Ids of existing transactions to remove.
    pub deletes: Vec<Tid>,
}

impl UpdateBatch {
    /// A pure-insertion batch — the setting of the base FUP algorithm.
    pub fn insert_only<I: IntoIterator<Item = Transaction>>(inserts: I) -> Self {
        UpdateBatch {
            inserts: inserts.into_iter().collect(),
            deletes: Vec::new(),
        }
    }

    /// A pure-deletion batch.
    pub fn delete_only<I: IntoIterator<Item = Tid>>(deletes: I) -> Self {
        UpdateBatch {
            inserts: Vec::new(),
            deletes: deletes.into_iter().collect(),
        }
    }

    /// `true` if the batch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Total operations the batch carries (inserts + deletes) — the unit
    /// the staging capacity gate and bounded commit rounds account in.
    pub fn num_ops(&self) -> u64 {
        self.inserts.len() as u64 + self.deletes.len() as u64
    }
}

/// A staged (uncommitted) update: the materialised `db⁺` and `db⁻` sides.
///
/// Produced by [`SegmentedDb::stage`]; consumed by [`SegmentedDb::commit`]
/// or [`SegmentedDb::abort`].
#[derive(Debug)]
pub struct StagedUpdate {
    inserted: TransactionDb,
    deleted: TransactionDb,
    deleted_with_tids: Vec<(Tid, Transaction)>,
}

impl StagedUpdate {
    /// The insertion side `db⁺` as a scannable source.
    pub fn inserted(&self) -> &TransactionDb {
        &self.inserted
    }

    /// The deletion side `db⁻` as a scannable source.
    pub fn deleted(&self) -> &TransactionDb {
        &self.deleted
    }

    /// `d⁺`: number of inserted transactions.
    pub fn num_inserted(&self) -> u64 {
        self.inserted.len() as u64
    }

    /// `d⁻`: number of deleted transactions.
    pub fn num_deleted(&self) -> u64 {
        self.deleted.len() as u64
    }
}

/// Transaction store with staged insert/delete updates.
///
/// Scanning the store (via [`TransactionSource`]) always delivers the
/// current *live* transactions: `DB` before staging, `DB \ db⁻` while an
/// update is staged, `(DB \ db⁻) ∪ db⁺` after commit.
#[derive(Debug, Default)]
pub struct SegmentedDb {
    live: Vec<(Tid, Transaction)>,
    /// Index from tid to position in `live`; kept in sync on every mutation.
    by_tid: HashMap<Tid, usize>,
    next_tid: u64,
    next_segment: u32,
    /// Scan accounting — shared with the other shards of a
    /// [`ShardedDb`](crate::ShardedDb), so a scan of one shard charges
    /// the whole store.
    metrics: Arc<ScanMetrics>,
    /// The live-tid view (watermark + tombstones) and the delete claims
    /// released on commit/abort.
    staging: Arc<StagingArea>,
}

impl SegmentedDb {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store charging its scans to `metrics` — a shard of a
    /// [`ShardedDb`](crate::ShardedDb).
    pub(crate) fn with_metrics(metrics: Arc<ScanMetrics>) -> Self {
        SegmentedDb {
            metrics,
            ..Self::default()
        }
    }

    /// Builds a store from initial transactions, assigning fresh tids.
    pub fn from_transactions<I: IntoIterator<Item = Transaction>>(iter: I) -> Self {
        let mut db = SegmentedDb::new();
        db.append_all(iter);
        db
    }

    /// Appends transactions directly (no staging), returning their tids.
    pub fn append_all<I: IntoIterator<Item = Transaction>>(&mut self, iter: I) -> Vec<Tid> {
        let mut tids = Vec::new();
        for t in iter {
            let tid = Tid(self.next_tid);
            self.next_tid += 1;
            self.by_tid.insert(tid, self.live.len());
            self.live.push((tid, t));
            tids.push(tid);
        }
        self.staging.live_insert(tids.iter().copied());
        tids
    }

    /// Appends transactions under **caller-assigned** tids — the primitive
    /// a tid-range shard router uses to keep one global tid sequence
    /// across many partitions. The caller guarantees the tids are fresh
    /// (never live in this store). The store's own allocator is advanced
    /// past the highest appended tid, and the tid-order flag is cleared
    /// only if an appended tid sorts below an existing live row.
    ///
    /// The internal staging live view is **not** updated: a sharded
    /// router maintains the single authoritative view on its own staging
    /// area (a per-shard view over a strided tid subset would misread
    /// the gaps as tombstones).
    pub(crate) fn append_pairs(&mut self, pairs: Vec<(Tid, Transaction)>) {
        self.live.reserve(pairs.len());
        self.by_tid.reserve(pairs.len());
        for (tid, t) in pairs {
            debug_assert!(!self.by_tid.contains_key(&tid), "tid reused: {tid:?}");
            self.by_tid.insert(tid, self.live.len());
            self.live.push((tid, t));
            self.next_tid = self.next_tid.max(tid.0 + 1);
        }
    }

    /// Removes one live transaction by tid, returning it — the deletion
    /// primitive of the shard router. Mirrors the `swap_remove` of
    /// [`stage`](Self::stage) (including the tid-order bookkeeping) but
    /// leaves the internal staging live view alone, as with
    /// [`append_pairs`](Self::append_pairs).
    pub(crate) fn remove_tid(&mut self, tid: Tid) -> Option<Transaction> {
        let idx = self.by_tid.remove(&tid)?;
        let (_, t) = self.live.swap_remove(idx);
        if idx < self.live.len() {
            let moved_tid = self.live[idx].0;
            self.by_tid.insert(moved_tid, idx);
        }
        Some(t)
    }

    /// Number of live transactions.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// `true` if no transaction is live.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Looks up a live transaction by id.
    pub fn get(&self, tid: Tid) -> Option<&Transaction> {
        self.by_tid.get(&tid).map(|&i| &self.live[i].1)
    }

    /// `true` if `tid` is live.
    pub fn contains(&self, tid: Tid) -> bool {
        self.by_tid.contains_key(&tid)
    }

    /// Iterates `(tid, transaction)` pairs without charging scan metrics.
    /// For tests and administrative tasks; miners must use `for_each`.
    pub fn iter(&self) -> impl Iterator<Item = (Tid, &Transaction)> + '_ {
        self.live.iter().map(|(tid, t)| (*tid, t))
    }

    /// One past the highest tid ever allocated (the durable watermark).
    pub fn watermark(&self) -> u64 {
        self.next_tid
    }

    /// The segment id the next committed round will receive.
    pub fn next_segment(&self) -> u32 {
        self.next_segment
    }

    /// The compact live-tid view (watermark + tombstones) shared with the
    /// staging area's delete validation and the durable format.
    pub fn live_view(&self) -> LiveTidView {
        self.staging.live_view()
    }

    /// Stages an update: removes `batch.deletes` from the live set and
    /// materialises both sides of the update. Fails with
    /// [`Error::UnknownTransaction`] (leaving the store untouched) if any
    /// deleted tid is not live or is listed twice.
    pub fn stage(&mut self, batch: UpdateBatch) -> Result<StagedUpdate> {
        // Validate first so failure cannot leave a partial removal. No
        // staging claims are touched on failure: a claim for one of
        // these tids may legitimately belong to a *different* batch
        // still pending in the staging area, and only the owner of a
        // drained batch knows its claims died with it (see
        // [`StagingArea::release_deletes`]).
        {
            let mut seen = std::collections::HashSet::new();
            for &tid in &batch.deletes {
                if !self.by_tid.contains_key(&tid) || !seen.insert(tid) {
                    return Err(Error::UnknownTransaction(tid));
                }
            }
        }
        self.staging.live_remove(batch.deletes.iter().copied());
        let mut deleted_with_tids = Vec::with_capacity(batch.deletes.len());
        for &tid in &batch.deletes {
            let idx = self.by_tid.remove(&tid).expect("validated above");
            let (_, t) = self.live.swap_remove(idx);
            // swap_remove moved the former last element into `idx`.
            if idx < self.live.len() {
                let moved_tid = self.live[idx].0;
                self.by_tid.insert(moved_tid, idx);
            }
            deleted_with_tids.push((tid, t));
        }
        let deleted =
            TransactionDb::from_transactions(deleted_with_tids.iter().map(|(_, t)| t.clone()));
        let inserted = TransactionDb::from_transactions(batch.inserts);
        Ok(StagedUpdate {
            inserted,
            deleted,
            deleted_with_tids,
        })
    }

    /// Commits a staged update: appends the insertion side and returns the
    /// new tids together with the segment id of the batch.
    pub fn commit(&mut self, staged: StagedUpdate) -> (SegmentId, Vec<Tid>) {
        let seg = SegmentId(self.next_segment);
        self.next_segment += 1;
        self.staging
            .release_deletes(staged.deleted_with_tids.iter().map(|&(tid, _)| tid));
        let tids = self.append_all(staged.inserted.into_transactions());
        (seg, tids)
    }

    /// Aborts a staged update, restoring the deleted transactions under
    /// their original tids (live — and deletable — again).
    pub fn abort(&mut self, staged: StagedUpdate) {
        self.staging
            .release_deletes(staged.deleted_with_tids.iter().map(|&(tid, _)| tid));
        self.staging
            .live_insert(staged.deleted_with_tids.iter().map(|&(tid, _)| tid));
        for (tid, t) in staged.deleted_with_tids {
            self.by_tid.insert(tid, self.live.len());
            self.live.push((tid, t));
        }
    }
}

impl TransactionSource for SegmentedDb {
    fn num_transactions(&self) -> u64 {
        self.live.len() as u64
    }

    fn for_each(&self, f: &mut dyn FnMut(&[ItemId])) {
        self.metrics.record_full_scan();
        for (_, t) in &self.live {
            self.metrics.record_transaction(t.len());
            f(t.items());
        }
    }

    fn metrics(&self) -> &ScanMetrics {
        &self.metrics
    }

    /// Chunks are zero-copy views of the live `(tid, transaction)` pairs.
    fn chunk<'s>(
        &'s self,
        chunk_size: usize,
        index: u64,
        _scratch: &'s mut crate::chunk::ChunkScratch,
    ) -> crate::chunk::TxChunk<'s> {
        let (start, end) = crate::source::chunk_bounds(self.num_transactions(), chunk_size, index);
        let chunk = crate::chunk::TxChunk::from_pairs(&self.live[start..end]);
        self.metrics
            .record_transactions(chunk.len() as u64, chunk.total_items());
        chunk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(items: &[u32]) -> Transaction {
        Transaction::from_items(items.iter().copied())
    }

    #[test]
    fn append_assigns_fresh_tids() {
        let mut db = SegmentedDb::new();
        let tids = db.append_all(vec![tx(&[1]), tx(&[2])]);
        assert_eq!(tids.len(), 2);
        assert_ne!(tids[0], tids[1]);
        assert_eq!(db.len(), 2);
        assert!(db.contains(tids[0]));
        assert_eq!(db.get(tids[1]).unwrap().items(), &[ItemId(2)]);
    }

    #[test]
    fn stage_insert_only_leaves_live_unchanged() {
        let mut db = SegmentedDb::from_transactions(vec![tx(&[1]), tx(&[2])]);
        let staged = db
            .stage(UpdateBatch::insert_only(vec![tx(&[3]), tx(&[4])]))
            .unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(staged.num_inserted(), 2);
        assert_eq!(staged.num_deleted(), 0);
        let (seg, tids) = db.commit(staged);
        assert_eq!(seg, SegmentId(0));
        assert_eq!(tids.len(), 2);
        assert_eq!(db.len(), 4);
    }

    #[test]
    fn stage_removes_deleted_and_commit_keeps_them_out() {
        let mut db = SegmentedDb::new();
        let tids = db.append_all(vec![tx(&[1]), tx(&[2]), tx(&[3])]);
        let staged = db
            .stage(UpdateBatch {
                inserts: vec![tx(&[9])],
                deletes: vec![tids[1]],
            })
            .unwrap();
        // While staged: live = DB \ db⁻.
        assert_eq!(db.len(), 2);
        assert!(!db.contains(tids[1]));
        assert_eq!(staged.deleted().len(), 1);
        db.commit(staged);
        assert_eq!(db.len(), 3);
        assert!(!db.contains(tids[1]));
    }

    #[test]
    fn abort_restores_deleted() {
        let mut db = SegmentedDb::new();
        let tids = db.append_all(vec![tx(&[1]), tx(&[2])]);
        let staged = db.stage(UpdateBatch::delete_only(vec![tids[0]])).unwrap();
        assert_eq!(db.len(), 1);
        db.abort(staged);
        assert_eq!(db.len(), 2);
        assert!(db.contains(tids[0]));
        assert_eq!(db.get(tids[0]).unwrap().items(), &[ItemId(1)]);
    }

    #[test]
    fn stage_unknown_tid_fails_atomically() {
        let mut db = SegmentedDb::new();
        let tids = db.append_all(vec![tx(&[1]), tx(&[2])]);
        let err = db
            .stage(UpdateBatch::delete_only(vec![tids[0], Tid(999)]))
            .unwrap_err();
        assert_eq!(err, Error::UnknownTransaction(Tid(999)));
        // Nothing was removed.
        assert_eq!(db.len(), 2);
        assert!(db.contains(tids[0]));
    }

    #[test]
    fn stage_duplicate_delete_fails() {
        let mut db = SegmentedDb::new();
        let tids = db.append_all(vec![tx(&[1])]);
        let err = db
            .stage(UpdateBatch::delete_only(vec![tids[0], tids[0]]))
            .unwrap_err();
        assert_eq!(err, Error::UnknownTransaction(tids[0]));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn scanning_charges_metrics_and_sees_live_only() {
        let mut db = SegmentedDb::new();
        let tids = db.append_all(vec![tx(&[1]), tx(&[2]), tx(&[3])]);
        let staged = db.stage(UpdateBatch::delete_only(vec![tids[2]])).unwrap();
        let mut seen = Vec::new();
        db.for_each(&mut |t| seen.push(t[0].raw()));
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2]);
        assert_eq!(db.metrics().full_scans(), 1);
        db.abort(staged);
    }

    #[test]
    fn swap_remove_keeps_index_consistent() {
        let mut db = SegmentedDb::new();
        let tids = db.append_all(vec![tx(&[1]), tx(&[2]), tx(&[3]), tx(&[4])]);
        // Delete the first; the last swaps into its slot.
        let staged = db.stage(UpdateBatch::delete_only(vec![tids[0]])).unwrap();
        db.commit(staged);
        for &tid in &tids[1..] {
            assert!(db.contains(tid), "{tid:?} lost after swap_remove");
            assert!(db.get(tid).is_some());
        }
    }

    #[test]
    fn segment_ids_increment() {
        let mut db = SegmentedDb::new();
        let s1 = db.stage(UpdateBatch::insert_only(vec![tx(&[1])])).unwrap();
        let (seg1, _) = db.commit(s1);
        let s2 = db.stage(UpdateBatch::insert_only(vec![tx(&[2])])).unwrap();
        let (seg2, _) = db.commit(s2);
        assert!(seg2 > seg1);
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut db = SegmentedDb::from_transactions(vec![tx(&[1])]);
        let batch = UpdateBatch::default();
        assert!(batch.is_empty());
        let staged = db.stage(batch).unwrap();
        assert_eq!(staged.num_inserted(), 0);
        assert_eq!(staged.num_deleted(), 0);
        db.commit(staged);
        assert_eq!(db.len(), 1);
    }
}
