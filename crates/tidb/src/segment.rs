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
//! Rows are held and scanned in ascending tid order: inserts append (fresh
//! tids are the largest), deletes compact, an abort merges rows back in
//! place, and a lookup by tid is a binary search.
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
    /// The rows the deletes removed, in tid order, for abort's merge.
    removed: Vec<(Tid, Transaction)>,
}

impl StagedUpdate {
    /// The insertion side `db⁺` as a scannable source.
    pub fn inserted(&self) -> &TransactionDb {
        &self.inserted
    }

    /// The deletion side `db⁻`, in batch order, as a scannable source.
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

/// Checks a batch's deletes before any is removed: every tid must be live
/// and listed once, else [`Error::UnknownTransaction`] names the first.
pub(crate) fn validate_deletes(deletes: &[Tid], live: impl Fn(Tid) -> bool) -> Result<()> {
    let mut seen = std::collections::HashSet::new();
    match deletes.iter().find(|&&tid| !live(tid) || !seen.insert(tid)) {
        Some(&tid) => Err(Error::UnknownTransaction(tid)),
        None => Ok(()),
    }
}

/// The row of `tid` among `rows`, which ascend by tid.
pub(crate) fn row_of(rows: &[(Tid, Transaction)], tid: Tid) -> Option<&Transaction> {
    let at = rows.binary_search_by_key(&tid, |&(t, _)| t).ok()?;
    Some(&rows[at].1)
}

/// Transaction store with staged insert/delete updates.
///
/// Scanning the store (via [`TransactionSource`]) always delivers the
/// current *live* transactions, in ascending tid order: `DB` before
/// staging, `DB \ db⁻` while an update is staged, `(DB \ db⁻) ∪ db⁺`
/// after commit.
#[derive(Debug, Default)]
pub struct SegmentedDb {
    /// The live rows in ascending tid order.
    live: Vec<(Tid, Transaction)>,
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
        let first = self.next_tid;
        let rows: Vec<(Tid, Transaction)> = (first..).map(Tid).zip(iter).collect();
        self.append_pairs(rows);
        let tids: Vec<Tid> = (first..self.next_tid).map(Tid).collect();
        self.staging.live_insert(tids.iter().copied());
        tids
    }

    /// Appends rows under **caller-assigned** tids — the primitive a
    /// tid-range shard router uses to keep one global tid sequence across
    /// many partitions. The tids ascend above every live row, so the rows
    /// move in as they are; the allocator advances past the last.
    ///
    /// The internal staging live view is **not** updated: a sharded
    /// router maintains the single authoritative view on its own staging
    /// area (a per-shard view over a strided tid subset would misread
    /// the gaps as tombstones).
    pub(crate) fn append_pairs(&mut self, rows: Vec<(Tid, Transaction)>) {
        let fresh = |r: &(Tid, _)| self.live.last().is_none_or(|l| l.0 < r.0);
        debug_assert!(rows.first().is_none_or(fresh), "tids must be fresh");
        if let Some(&(last, _)) = rows.last() {
            self.next_tid = self.next_tid.max(last.0 + 1);
        }
        if self.live.is_empty() {
            self.live = rows;
        } else {
            self.live.extend(rows);
        }
    }

    /// Removes the rows of `tids` (every one live) in one order-preserving
    /// compaction and returns them in tid order — the deletion primitive
    /// of [`stage`](Self::stage) and of the shard router. Leaves the
    /// internal staging live view alone, as
    /// [`append_pairs`](Self::append_pairs) does.
    pub(crate) fn remove(&mut self, mut tids: Vec<Tid>) -> Vec<(Tid, Transaction)> {
        tids.sort_unstable();
        let start = match tids.first() {
            Some(&first) => self.live.partition_point(|r| r.0 < first),
            None => return Vec::new(),
        };
        let mut next = tids.iter().peekable();
        let cut = |r: &mut (Tid, Transaction)| next.next_if_eq(&&r.0).is_some();
        self.live.extract_if(start.., cut).collect()
    }

    /// Merges `rows` (ascending, none live) back at their tid positions in
    /// one linear pass — the inverse of [`remove`](Self::remove).
    pub(crate) fn restore(&mut self, rows: Vec<(Tid, Transaction)>) {
        let at = match rows.first() {
            Some(&(first, _)) => self.live.partition_point(|r| r.0 < first),
            None => return,
        };
        let mut rows = rows.into_iter().peekable();
        for kept in self.live.split_off(at) {
            self.live
                .extend(std::iter::from_fn(|| rows.next_if(|r| r.0 < kept.0)));
            self.live.push(kept);
        }
        self.live.extend(rows);
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
        row_of(&self.live, tid)
    }

    /// `true` if `tid` is live.
    pub fn contains(&self, tid: Tid) -> bool {
        self.get(tid).is_some()
    }

    /// Iterates `(tid, transaction)` pairs in ascending tid order (the
    /// scan order) without charging scan metrics. For tests and
    /// administrative tasks; miners must use `for_each`.
    pub fn iter(
        &self,
    ) -> impl DoubleEndedIterator<Item = (Tid, &Transaction)> + ExactSizeIterator + '_ {
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
        // No staging claims are touched on failure: a claim for one of
        // these tids may legitimately belong to a *different* batch
        // still pending in the staging area, and only the owner of a
        // drained batch knows its claims died with it (see
        // [`StagingArea::release_deletes`]).
        validate_deletes(&batch.deletes, |tid| self.contains(tid))?;
        self.staging.live_remove(batch.deletes.iter().copied());
        let removed = self.remove(batch.deletes.clone());
        let row = |&tid: &Tid| row_of(&removed, tid).expect("removed above").clone();
        Ok(StagedUpdate {
            inserted: TransactionDb::from_transactions(batch.inserts),
            deleted: TransactionDb::from_transactions(batch.deletes.iter().map(row)),
            removed,
        })
    }

    /// Commits a staged update: appends the insertion side and returns the
    /// new tids together with the segment id of the batch.
    pub fn commit(&mut self, staged: StagedUpdate) -> (SegmentId, Vec<Tid>) {
        let seg = SegmentId(self.next_segment);
        self.next_segment += 1;
        self.staging
            .release_deletes(staged.removed.iter().map(|&(tid, _)| tid));
        let tids = self.append_all(staged.inserted.into_transactions());
        (seg, tids)
    }

    /// Aborts a staged update, restoring the deleted transactions under
    /// their original tids, at their tid positions (live — and deletable
    /// — again).
    pub fn abort(&mut self, staged: StagedUpdate) {
        let tids = || staged.removed.iter().map(|&(tid, _)| tid);
        self.staging.release_deletes(tids());
        self.staging.live_insert(tids());
        self.restore(staged.removed);
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
    fn deletes_compact_and_abort_merges_back_in_tid_order() {
        let mut db = SegmentedDb::new();
        let tids = db.append_all((1..=6).map(|i| tx(&[i])));
        let order = |db: &SegmentedDb| db.iter().map(|(tid, _)| tid).collect::<Vec<_>>();
        // Deletes in the middle and at both ends, listed out of tid order.
        let staged = db
            .stage(UpdateBatch::delete_only(vec![tids[3], tids[0], tids[5]]))
            .unwrap();
        assert_eq!(order(&db), vec![tids[1], tids[2], tids[4]]);
        // db⁻ keeps batch order.
        let deleted: Vec<_> = staged
            .deleted()
            .raw()
            .iter()
            .map(|t| t.items()[0].raw())
            .collect();
        assert_eq!(deleted, vec![4, 1, 6]);
        db.abort(staged);
        assert_eq!(order(&db), tids);
        for (i, &tid) in tids.iter().enumerate() {
            assert_eq!(db.get(tid).unwrap().items(), &[ItemId(i as u32 + 1)]);
        }
        let staged = db.stage(UpdateBatch::delete_only(vec![tids[2]])).unwrap();
        db.commit(staged);
        assert!(!db.contains(tids[2]));
        assert_eq!(order(&db), [&tids[..2], &tids[3..]].concat());
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
