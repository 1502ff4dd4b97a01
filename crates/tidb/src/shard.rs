//! Tid-range sharding: a partitioned [`SegmentedDb`] behind one tid space.
//!
//! The FUP family's cost model is per-support-count, and a support count
//! is a sum over transactions — so it is additive across **disjoint tid
//! ranges**. [`ShardedDb`] exploits exactly that: it partitions the live
//! set into N [`SegmentedDb`] shards by a [`ShardSpec`] routing function
//! while presenting *one* tid space, *one* staging area (tickets, delete
//! claims, capacity gate, live-tid view), and *one* scan order (shard 0's
//! rows, then shard 1's, …; each shard's in ascending tid order, since a
//! shard appends inserts, compacts deletes and merges an abort back in
//! place). Each shard is its own chunk partition
//! ([`TransactionSource::chunk_partitions`]), so a partition-aware scan
//! driver gives every shard its own chunk cursor; local counts merge by
//! summation at pass end (count distribution). Mining results are
//! bit-identical to the unsharded store because every count is the same
//! sum, merely reassociated.
//!
//! Routing invariant: `spec.shard_of(tid)` is a **pure function of the
//! tid** — staging, commit, recovery and deletes all route through it, so
//! a transaction's shard never changes and a delete always finds its
//! insert's shard, no matter how many batches apart they arrived.

use crate::chunk::{ChunkScratch, TxChunk};
use crate::database::TransactionDb;
use crate::error::Result;
use crate::item::ItemId;
use crate::scan::ScanMetrics;
use crate::segment::{row_of, validate_deletes, SegmentId, SegmentedDb, Tid, UpdateBatch};
use crate::source::TransactionSource;
use crate::staging::{LiveTidView, StagingArea};
use crate::transaction::Transaction;
use std::fmt;
use std::sync::Arc;

/// A half-open tid interval `[start, end)`; `end == u64::MAX` means
/// unbounded (the tail range every future tid falls into).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TidRange {
    /// First tid of the range.
    pub start: u64,
    /// One past the last tid (`u64::MAX` = unbounded).
    pub end: u64,
}

impl TidRange {
    /// `[start, end)`.
    pub fn new(start: u64, end: u64) -> Self {
        TidRange { start, end }
    }
}

/// Why a [`ShardSpec`] was rejected. Validation runs in
/// [`ShardedDb::new`] (and therefore in every session builder), never as
/// a panic at stage time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecError {
    /// The spec names zero shards.
    NoShards,
    /// A striped spec with a zero stripe width.
    ZeroStripe,
    /// An explicit range list whose first range does not start at tid 0,
    /// leaving tids below `start` unroutable.
    NotAnchored {
        /// Start of the first range.
        start: u64,
    },
    /// Range `index` is empty (`start >= end`).
    EmptyRange {
        /// Position of the offending range.
        index: usize,
    },
    /// Range `index` starts before the previous range ends — two shards
    /// would own the overlapped tids.
    Overlap {
        /// Position of the offending range.
        index: usize,
        /// Its start.
        start: u64,
        /// The previous range's end.
        prev_end: u64,
    },
    /// Range `index` starts after the previous range ends — the tids in
    /// between would have no owner.
    Gap {
        /// Position of the offending range.
        index: usize,
        /// Its start.
        start: u64,
        /// The previous range's end.
        prev_end: u64,
    },
    /// The last range is bounded, leaving future tids (≥ `end`)
    /// unroutable.
    BoundedTail {
        /// The last range's end.
        end: u64,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SpecError::NoShards => write!(f, "shard spec names zero shards"),
            SpecError::ZeroStripe => write!(f, "striped shard spec with zero stripe width"),
            SpecError::NotAnchored { start } => {
                write!(f, "first range starts at {start}, not 0: tids below it are unroutable")
            }
            SpecError::EmptyRange { index } => write!(f, "range {index} is empty"),
            SpecError::Overlap { index, start, prev_end } => write!(
                f,
                "range {index} starts at {start}, overlapping the previous range ending at {prev_end}"
            ),
            SpecError::Gap { index, start, prev_end } => write!(
                f,
                "range {index} starts at {start}, leaving tids {prev_end}..{start} unowned"
            ),
            SpecError::BoundedTail { end } => {
                write!(f, "last range ends at {end}: future tids would be unroutable")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Stripe width used by [`ShardSpec::striped`] when none is given: wide
/// enough that a chunked scan rarely crosses a stripe, narrow enough
/// that a steadily-growing tid sequence spreads evenly.
pub const DEFAULT_STRIPE: u64 = 1024;

/// How tids map to shards. The routing function must be **total** (every
/// tid, including all future ones, has exactly one owner); `validate`
/// rejects anything else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardSpec {
    /// Round-robin over fixed-width tid stripes:
    /// `shard_of(tid) = (tid / stripe) % shards`. Every stripe is a tid
    /// range, and a growing tid sequence stays balanced.
    Striped {
        /// Number of shards (≥ 1).
        shards: u32,
        /// Stripe width in tids (≥ 1).
        stripe: u64,
    },
    /// Explicit contiguous ranges, one per shard: must start at 0, tile
    /// the tid space with no gap or overlap, and end unbounded.
    Ranges(Vec<TidRange>),
}

/// One shard: the unsharded store.
impl Default for ShardSpec {
    fn default() -> Self {
        ShardSpec::striped(1)
    }
}

impl ShardSpec {
    /// A striped spec over `shards` shards with the
    /// [`DEFAULT_STRIPE`] width.
    pub fn striped(shards: u32) -> Self {
        ShardSpec::Striped {
            shards,
            stripe: DEFAULT_STRIPE,
        }
    }

    /// A striped spec with an explicit stripe width.
    pub fn striped_with(shards: u32, stripe: u64) -> Self {
        ShardSpec::Striped { shards, stripe }
    }

    /// An explicit-ranges spec (validated by [`ShardedDb::new`] /
    /// [`ShardSpec::validate`]).
    pub fn ranges<I: IntoIterator<Item = TidRange>>(ranges: I) -> Self {
        ShardSpec::Ranges(ranges.into_iter().collect())
    }

    /// Number of shards the spec routes to.
    pub fn num_shards(&self) -> usize {
        match self {
            ShardSpec::Striped { shards, .. } => *shards as usize,
            ShardSpec::Ranges(r) => r.len(),
        }
    }

    /// Checks the routing function is total: at least one shard, a
    /// positive stripe, and (for explicit ranges) an anchored,
    /// gap-free, overlap-free, unbounded tiling.
    pub fn validate(&self) -> std::result::Result<(), SpecError> {
        match self {
            ShardSpec::Striped { shards, stripe } => {
                if *shards == 0 {
                    return Err(SpecError::NoShards);
                }
                if *stripe == 0 {
                    return Err(SpecError::ZeroStripe);
                }
                Ok(())
            }
            ShardSpec::Ranges(ranges) => {
                if ranges.is_empty() {
                    return Err(SpecError::NoShards);
                }
                if ranges[0].start != 0 {
                    return Err(SpecError::NotAnchored {
                        start: ranges[0].start,
                    });
                }
                for (index, r) in ranges.iter().enumerate() {
                    if r.start >= r.end {
                        return Err(SpecError::EmptyRange { index });
                    }
                    if index > 0 {
                        let prev_end = ranges[index - 1].end;
                        if r.start < prev_end {
                            return Err(SpecError::Overlap {
                                index,
                                start: r.start,
                                prev_end,
                            });
                        }
                        if r.start > prev_end {
                            return Err(SpecError::Gap {
                                index,
                                start: r.start,
                                prev_end,
                            });
                        }
                    }
                }
                let end = ranges.last().expect("non-empty").end;
                if end != u64::MAX {
                    return Err(SpecError::BoundedTail { end });
                }
                Ok(())
            }
        }
    }

    /// The shard owning `tid`. Pure and total (given a validated spec).
    pub fn shard_of(&self, tid: Tid) -> usize {
        self.local_tid(tid).0
    }

    /// The shard owning `tid` and `tid`'s **local tid** there: the global
    /// tids a shard owns, taken in ascending order, are its local tids
    /// `0, 1, 2, …`. Local tids are dense, so a shard that numbers its
    /// rows itself gives each insert exactly the local tid of the global
    /// tid it was routed under. [`global_tid`](Self::global_tid) is the
    /// inverse.
    pub fn local_tid(&self, tid: Tid) -> (usize, Tid) {
        match self {
            ShardSpec::Striped { shards, stripe } => {
                let band = tid.0 / stripe;
                let shards = u64::from(*shards);
                (
                    (band % shards) as usize,
                    Tid(band / shards * stripe + tid.0 % stripe),
                )
            }
            ShardSpec::Ranges(ranges) => {
                // Validated tilings are sorted by start; the owner is the
                // last range starting at or below the tid.
                let shard = ranges
                    .partition_point(|r| r.start <= tid.0)
                    .saturating_sub(1);
                (shard, Tid(tid.0 - ranges[shard].start))
            }
        }
    }

    /// The global tid of local tid `local` on `shard` — the inverse of
    /// [`local_tid`](Self::local_tid).
    pub fn global_tid(&self, shard: usize, local: Tid) -> Tid {
        match self {
            ShardSpec::Striped { shards, stripe } => {
                let band = local.0 / stripe * u64::from(*shards) + shard as u64;
                Tid(band * stripe + local.0 % stripe)
            }
            ShardSpec::Ranges(ranges) => Tid(ranges[shard].start + local.0),
        }
    }
}

/// A staged (uncommitted) sharded update: the global `db⁺`/`db⁻` sides
/// plus the same sides routed per shard — the inputs of a shard-parallel
/// FUP/FUP2 round.
///
/// Insert tids are assigned **prospectively** at stage time (from the
/// router's global allocator, in batch order — exactly the tids an
/// unsharded [`SegmentedDb`] would assign) but the allocator itself only
/// advances at [`ShardedDb::commit`], so an aborted round burns no tids.
#[derive(Debug)]
pub struct ShardedStaged {
    inserted: TransactionDb,
    deleted: TransactionDb,
    /// Per shard: the inserts routed to it by their prospective tids, as
    /// a scannable source in the order the shard will append them.
    shard_inserted: Vec<TransactionDb>,
    /// Per shard: the rows the deletes removed from it, in tid order,
    /// for abort's merge.
    removed: Vec<Vec<(Tid, Transaction)>>,
    /// Per shard: the routed delete side, in tid order, as a scannable
    /// source.
    shard_deleted: Vec<TransactionDb>,
    /// The global allocator value the routing was computed against.
    base_tid: u64,
}

impl ShardedStaged {
    /// The insertion side `db⁺` in batch order, as one scannable source.
    pub fn inserted(&self) -> &TransactionDb {
        &self.inserted
    }

    /// The deletion side `db⁻` in batch order, as one scannable source.
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

    /// Shard `s`'s slice of the insertion side, `db⁺ₛ`.
    pub fn shard_inserted(&self, s: usize) -> &TransactionDb {
        &self.shard_inserted[s]
    }

    /// Shard `s`'s slice of the deletion side, `db⁻ₛ`.
    pub fn shard_deleted(&self, s: usize) -> &TransactionDb {
        &self.shard_deleted[s]
    }
}

/// A tid-range-partitioned transaction store: N [`SegmentedDb`] shards
/// behind one tid space, one staging area, and one scan order.
///
/// This is the maintenance session's store; an unsharded session is the
/// one-shard case. The two-phase stage/commit/abort mirrors
/// [`SegmentedDb`]'s, but [`stage`](Self::stage) returns the richer
/// [`ShardedStaged`] that the shard-parallel mining rounds consume.
#[derive(Debug)]
pub struct ShardedDb {
    spec: ShardSpec,
    shards: Vec<SegmentedDb>,
    /// The single authoritative staging area: tickets, delete claims,
    /// capacity gate and the global live-tid view. The per-shard stores'
    /// internal areas are unused.
    staging: Arc<StagingArea>,
    next_tid: u64,
    next_segment: u32,
    /// Shared with every shard: scanning one shard charges the store.
    metrics: Arc<ScanMetrics>,
}

impl ShardedDb {
    /// Creates an empty sharded store, rejecting an invalid spec (zero
    /// shards, zero stripe, or an explicit range list that overlaps,
    /// gaps, starts past 0, or ends bounded).
    pub fn new(spec: ShardSpec) -> std::result::Result<Self, SpecError> {
        spec.validate()?;
        let metrics = Arc::new(ScanMetrics::new());
        let shards = (0..spec.num_shards())
            .map(|_| SegmentedDb::with_metrics(Arc::clone(&metrics)))
            .collect();
        Ok(ShardedDb {
            spec,
            shards,
            staging: Arc::default(),
            next_tid: 0,
            next_segment: 0,
            metrics,
        })
    }

    /// Builds a sharded store from initial transactions, assigning fresh
    /// tids (identical to the unsharded assignment) and routing each to
    /// its shard.
    pub fn from_transactions<I: IntoIterator<Item = Transaction>>(
        spec: ShardSpec,
        iter: I,
    ) -> std::result::Result<Self, SpecError> {
        let mut db = ShardedDb::new(spec)?;
        db.append_all(iter);
        Ok(db)
    }

    /// Restores a sharded store from a durable checkpoint image (`live`
    /// pairs in ascending tid order, watermark, tombstones, next segment
    /// id), routing every recovered row by the spec. The shard count is
    /// pure configuration: any valid spec yields the same live set, tid
    /// space and mining results, so a store checkpointed under one spec
    /// may be recovered under another.
    pub fn from_recovered(
        spec: ShardSpec,
        live: Vec<(Tid, Transaction)>,
        watermark: u64,
        tombstones: Vec<Tid>,
        next_segment: u32,
    ) -> std::result::Result<Self, SpecError> {
        let mut db = ShardedDb::new(spec)?;
        db.append_rows(live);
        db.next_tid = watermark;
        db.next_segment = next_segment;
        db.staging
            .live_reset(LiveTidView::from_parts(watermark, tombstones));
        Ok(db)
    }

    /// Appends transactions directly (no staging), returning their tids.
    /// Tid assignment is global and sequential — bit-identical to
    /// [`SegmentedDb::append_all`] — with each row routed to its shard.
    pub fn append_all<I: IntoIterator<Item = Transaction>>(&mut self, iter: I) -> Vec<Tid> {
        let first = self.next_tid;
        let rows: Vec<(Tid, Transaction)> = (first..).map(Tid).zip(iter).collect();
        self.next_tid += rows.len() as u64;
        self.append_rows(rows);
        let tids: Vec<Tid> = (first..self.next_tid).map(Tid).collect();
        self.staging.live_insert(tids.iter().copied());
        tids
    }

    /// Appends `rows` (ascending, above every live tid) to their shards.
    fn append_rows(&mut self, rows: Vec<(Tid, Transaction)>) {
        let routed = self.route(rows);
        for (shard, rows) in self.shards.iter_mut().zip(routed) {
            shard.append_pairs(rows);
        }
    }

    /// `rows` split by owning shard, each shard's in the given order: one
    /// move for a lone shard, else one routing pass.
    fn route(&self, rows: Vec<(Tid, Transaction)>) -> Vec<Vec<(Tid, Transaction)>> {
        if self.shards.len() == 1 {
            return vec![rows];
        }
        let mut routed = vec![Vec::new(); self.shards.len()];
        for (tid, t) in rows {
            routed[self.spec.shard_of(tid)].push((tid, t));
        }
        routed
    }

    /// The routing spec.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `s` as a read-only store (each shard is a complete
    /// [`SegmentedDb`] over its tid subset — and a complete
    /// [`TransactionSource`], which is what the per-shard mining rounds
    /// scan).
    pub fn shard(&self, s: usize) -> &SegmentedDb {
        &self.shards[s]
    }

    /// Live transaction count per shard — the balance view.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.len()).collect()
    }

    /// Total number of live transactions.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// `true` if no transaction is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a live transaction by tid (routed, not searched).
    pub fn get(&self, tid: Tid) -> Option<&Transaction> {
        self.shards[self.spec.shard_of(tid)].get(tid)
    }

    /// `true` if `tid` is live.
    pub fn contains(&self, tid: Tid) -> bool {
        self.shards[self.spec.shard_of(tid)].contains(tid)
    }

    /// Iterates `(tid, transaction)` pairs in scan order (shard 0's rows,
    /// then shard 1's, …, each shard's in ascending tid order) without
    /// charging scan metrics.
    pub fn iter(&self) -> impl Iterator<Item = (Tid, &Transaction)> + '_ {
        self.shards.iter().flat_map(|s| s.iter())
    }

    /// Queues a batch into the (global) staging area **without touching
    /// any live set**: scans keep seeing exactly the current
    /// transactions until a `stage`+`commit` round applies it. Deletes
    /// are validated at arrival — every tid must be live and not already
    /// claimed by an earlier pending delete — and on
    /// [`Error::UnknownTransaction`](crate::Error::UnknownTransaction) nothing is queued.
    pub fn enqueue(&self, batch: UpdateBatch) -> Result<()> {
        self.staging.stage(batch)?;
        Ok(())
    }

    /// A shareable handle to the global staging area.
    pub fn staging(&self) -> Arc<StagingArea> {
        Arc::clone(&self.staging)
    }

    /// A copy of the accumulated staging area in global arrival order.
    pub fn pending(&self) -> UpdateBatch {
        self.staging.snapshot()
    }

    /// `true` if at least one insert or delete is queued.
    pub fn has_pending(&self) -> bool {
        self.staging.has_pending()
    }

    /// Drains keeping per-batch `(ticket, batch)` boundaries; delete
    /// claims are held until the round commits or aborts.
    pub fn take_pending_entries(&mut self) -> Vec<(u64, UpdateBatch)> {
        self.staging.drain_entries()
    }

    /// [`take_pending_entries`](Self::take_pending_entries) bounded to at
    /// most `max_ops` operations (see
    /// [`StagingArea::drain_entries_up_to`]). `None` drains everything.
    pub fn take_pending_entries_up_to(&mut self, max_ops: Option<u64>) -> Vec<(u64, UpdateBatch)> {
        self.staging.drain_entries_up_to(max_ops)
    }

    /// Drops everything queued, returning the discarded batch.
    pub fn discard_pending(&mut self) -> UpdateBatch {
        self.staging.discard()
    }

    /// One past the highest tid ever allocated (the durable watermark).
    pub fn watermark(&self) -> u64 {
        self.next_tid
    }

    /// The segment id the next committed round will receive.
    pub fn next_segment(&self) -> u32 {
        self.next_segment
    }

    /// The global live-tid view shared with delete validation and the
    /// durable format.
    pub fn live_view(&self) -> LiveTidView {
        self.staging.live_view()
    }

    /// Stages an update: removes `batch.deletes` from their owning shards
    /// and routes `batch.inserts` to prospective tids/shards. Fails with
    /// [`Error::UnknownTransaction`](crate::Error::UnknownTransaction) —
    /// leaving every shard untouched — if any deleted tid is not live or
    /// is listed twice.
    pub fn stage(&mut self, batch: UpdateBatch) -> Result<ShardedStaged> {
        // Validate across all shards first (same contract as
        // `SegmentedDb::stage`: staging claims are untouched on failure).
        validate_deletes(&batch.deletes, |tid| self.contains(tid))?;
        self.staging.live_remove(batch.deletes.iter().copied());
        // One order-preserving compaction per shard; `db⁻` reads the rows
        // back in batch order.
        let mut shard_tids = vec![Vec::new(); self.shards.len()];
        for &tid in &batch.deletes {
            shard_tids[self.spec.shard_of(tid)].push(tid);
        }
        let removed: Vec<_> = (self.shards.iter_mut().zip(shard_tids))
            .map(|(shard, tids)| shard.remove(tids))
            .collect();
        let rows_of = |tid| &removed[self.spec.shard_of(tid)];
        let row = |&tid: &Tid| row_of(rows_of(tid), tid).expect("removed above").clone();
        let shard_deleted = (removed.iter())
            .map(|rows| TransactionDb::from_transactions(rows.iter().map(|(_, t)| t.clone())));
        // Prospective insert routing: the tids a commit will assign, in
        // batch order from the global allocator (not yet advanced, so an
        // abort burns nothing).
        let base_tid = self.next_tid;
        let rows = (base_tid..).map(Tid).zip(batch.inserts.iter().cloned());
        let shard_inserted = (self.route(rows.collect()).into_iter())
            .map(|rows| TransactionDb::from_transactions(rows.into_iter().map(|(_, t)| t)))
            .collect();
        Ok(ShardedStaged {
            inserted: TransactionDb::from_transactions(batch.inserts),
            deleted: TransactionDb::from_transactions(batch.deletes.iter().map(row)),
            shard_inserted,
            shard_deleted: shard_deleted.collect(),
            removed,
            base_tid,
        })
    }

    /// Commits a staged update: appends the insertion side under its
    /// prospective tids, routed as at stage time, advances the global
    /// allocator, and returns the new tids with the round's segment id.
    pub fn commit(&mut self, staged: ShardedStaged) -> (SegmentId, Vec<Tid>) {
        debug_assert_eq!(
            staged.base_tid, self.next_tid,
            "rounds must commit in stage order"
        );
        let seg = SegmentId(self.next_segment);
        self.next_segment += 1;
        self.staging
            .release_deletes(staged.removed.iter().flatten().map(|&(tid, _)| tid));
        let tids = self.append_all(staged.inserted.into_transactions());
        (seg, tids)
    }

    /// Aborts a staged update, restoring the deleted transactions to
    /// their shards under their original tids, at their tid positions.
    /// Prospective insert tids were never allocated, so the next round
    /// reuses them.
    pub fn abort(&mut self, staged: ShardedStaged) {
        let tids = || staged.removed.iter().flatten().map(|&(tid, _)| tid);
        self.staging.release_deletes(tids());
        self.staging.live_insert(tids());
        for (shard, rows) in self.shards.iter_mut().zip(staged.removed) {
            shard.restore(rows);
        }
    }

    /// The scan accounting for every scan of the store or of one of its
    /// shards.
    pub fn metrics(&self) -> &ScanMetrics {
        &self.metrics
    }

    /// The shard holding chunk `index` of the chunk plan, and the chunk's
    /// index within that shard's own plan.
    fn locate_chunk(&self, chunk_size: usize, mut index: u64) -> (usize, u64) {
        for (s, shard) in self.shards.iter().enumerate() {
            let chunks = shard.plan_chunks(chunk_size);
            if index < chunks {
                return (s, index);
            }
            index -= chunks;
        }
        panic!("chunk index out of range");
    }
}

impl TransactionSource for ShardedDb {
    fn num_transactions(&self) -> u64 {
        self.len() as u64
    }

    fn for_each(&self, f: &mut dyn FnMut(&[ItemId])) {
        self.metrics.record_full_scan();
        for shard in &self.shards {
            for (_, t) in shard.iter() {
                self.metrics.record_transaction(t.len());
                f(t.items());
            }
        }
    }

    fn metrics(&self) -> &ScanMetrics {
        &self.metrics
    }

    /// Chunks never straddle a shard boundary: the plan delivers every
    /// chunk of shard 0, then every chunk of shard 1, … (the last chunk
    /// of each shard may run short, as the chunked contract allows).
    fn plan_chunks(&self, chunk_size: usize) -> u64 {
        self.shards.iter().map(|s| s.plan_chunks(chunk_size)).sum()
    }

    /// One partition per shard — a partition-aware driver gives each
    /// shard its own chunk cursor.
    fn chunk_partitions(&self, chunk_size: usize) -> Vec<u64> {
        let mut acc = 0;
        self.shards
            .iter()
            .map(|s| {
                acc += s.plan_chunks(chunk_size);
                acc
            })
            .collect()
    }

    fn chunk<'s>(
        &'s self,
        chunk_size: usize,
        index: u64,
        scratch: &'s mut ChunkScratch,
    ) -> TxChunk<'s> {
        // The shard charges the shared metrics.
        let (s, index) = self.locate_chunk(chunk_size, index);
        self.shards[s].chunk(chunk_size, index, scratch)
    }

    /// N-way generalisation of the chain-source seam arithmetic: a chunk
    /// of shard `s` starts at the total row count of earlier shards plus
    /// the shard's own offset.
    fn chunk_tid_offset(&self, chunk_size: usize, index: u64) -> u64 {
        let (s, index) = self.locate_chunk(chunk_size, index);
        let before: u64 = self.shards[..s].iter().map(|d| d.len() as u64).sum();
        before + self.shards[s].chunk_tid_offset(chunk_size, index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;

    fn tx(items: &[u32]) -> Transaction {
        Transaction::from_items(items.iter().copied())
    }

    fn txs(n: u64) -> Vec<Transaction> {
        (0..n)
            .map(|i| tx(&[i as u32, (i % 7) as u32 + 100]))
            .collect()
    }

    #[test]
    fn striped_spec_routes_totally_and_evenly() {
        let spec = ShardSpec::striped_with(3, 4);
        spec.validate().unwrap();
        let mut per_shard = [0u64; 3];
        for tid in 0..120 {
            per_shard[spec.shard_of(Tid(tid))] += 1;
        }
        assert_eq!(per_shard, [40, 40, 40]);
        // Stripe boundaries honoured: tids 0..4 → shard 0, 4..8 → shard 1.
        assert_eq!(spec.shard_of(Tid(3)), 0);
        assert_eq!(spec.shard_of(Tid(4)), 1);
        assert_eq!(spec.shard_of(Tid(11)), 2);
        assert_eq!(spec.shard_of(Tid(12)), 0);
    }

    #[test]
    fn range_spec_validation_rejects_bad_tilings() {
        // Valid: anchored, contiguous, unbounded.
        let ok = ShardSpec::ranges([
            TidRange::new(0, 100),
            TidRange::new(100, 200),
            TidRange::new(200, u64::MAX),
        ]);
        ok.validate().unwrap();
        assert_eq!(ok.shard_of(Tid(0)), 0);
        assert_eq!(ok.shard_of(Tid(99)), 0);
        assert_eq!(ok.shard_of(Tid(100)), 1);
        assert_eq!(ok.shard_of(Tid(5_000_000)), 2);

        let overlap = ShardSpec::ranges([TidRange::new(0, 100), TidRange::new(50, u64::MAX)]);
        assert_eq!(
            overlap.validate(),
            Err(SpecError::Overlap {
                index: 1,
                start: 50,
                prev_end: 100
            })
        );

        let gap = ShardSpec::ranges([TidRange::new(0, 100), TidRange::new(150, u64::MAX)]);
        assert_eq!(
            gap.validate(),
            Err(SpecError::Gap {
                index: 1,
                start: 150,
                prev_end: 100
            })
        );

        assert_eq!(
            ShardSpec::ranges([TidRange::new(10, u64::MAX)]).validate(),
            Err(SpecError::NotAnchored { start: 10 })
        );
        assert_eq!(
            ShardSpec::ranges([TidRange::new(0, 100)]).validate(),
            Err(SpecError::BoundedTail { end: 100 })
        );
        assert_eq!(ShardSpec::ranges([]).validate(), Err(SpecError::NoShards));
        assert_eq!(
            ShardSpec::striped_with(0, 8).validate(),
            Err(SpecError::NoShards)
        );
        assert_eq!(
            ShardSpec::striped_with(2, 0).validate(),
            Err(SpecError::ZeroStripe)
        );
        assert!(ShardedDb::new(ShardSpec::striped_with(2, 0)).is_err());
    }

    #[test]
    fn append_assigns_global_tids_and_routes() {
        let mut db = ShardedDb::from_transactions(ShardSpec::striped_with(2, 2), txs(8)).unwrap();
        assert_eq!(db.len(), 8);
        // Stripe 2 over 2 shards: tids 0,1,4,5 → shard 0; 2,3,6,7 → shard 1.
        assert_eq!(db.shard_lens(), vec![4, 4]);
        assert!(db.shard(0).contains(Tid(0)));
        assert!(db.shard(1).contains(Tid(2)));
        assert_eq!(db.watermark(), 8);
        // Same tids the unsharded store would assign.
        let flat = SegmentedDb::from_transactions(txs(8));
        assert_eq!(db.live_view(), flat.live_view());
        let more = db.append_all(txs(2));
        assert_eq!(more, vec![Tid(8), Tid(9)]);
    }

    #[test]
    fn stage_commit_matches_unsharded_live_view() {
        let rows = txs(20);
        let mut sharded =
            ShardedDb::from_transactions(ShardSpec::striped_with(3, 2), rows.clone()).unwrap();
        let mut flat = SegmentedDb::from_transactions(rows);
        let batch = UpdateBatch {
            inserts: txs(5),
            deletes: vec![Tid(1), Tid(7), Tid(19)],
        };
        let ss = sharded.stage(batch.clone()).unwrap();
        let fs = flat.stage(batch).unwrap();
        // Mid-round: both stores expose DB⁻.
        assert_eq!(sharded.len(), flat.len());
        assert_eq!(ss.num_deleted(), 3);
        // Per-shard sides tile the global sides.
        let routed_total: usize = (0..3)
            .map(|s| ss.shard_inserted(s).len())
            .collect::<Vec<_>>()
            .iter()
            .sum();
        assert_eq!(routed_total, 5);
        let deleted_total: usize = (0..3).map(|s| ss.shard_deleted(s).len()).sum();
        assert_eq!(deleted_total, 3);
        let (seg_s, tids_s) = sharded.commit(ss);
        let (seg_f, tids_f) = flat.commit(fs);
        assert_eq!(seg_s, seg_f);
        assert_eq!(tids_s, tids_f, "sharded commit must assign the same tids");
        assert_eq!(sharded.live_view(), flat.live_view());
        assert_eq!(sharded.len(), flat.len());
        for (tid, t) in flat.iter() {
            assert_eq!(sharded.get(tid), Some(t), "{tid:?} differs");
        }
    }

    #[test]
    fn abort_restores_rows_without_burning_tids() {
        let mut db = ShardedDb::from_transactions(ShardSpec::striped(2), txs(6)).unwrap();
        let staged = db
            .stage(UpdateBatch {
                inserts: txs(3),
                deletes: vec![Tid(0), Tid(5)],
            })
            .unwrap();
        assert_eq!(db.len(), 4);
        db.abort(staged);
        assert_eq!(db.len(), 6);
        assert!(db.contains(Tid(0)) && db.contains(Tid(5)));
        // The prospective tids were never allocated.
        let tids = db.append_all(txs(1));
        assert_eq!(tids, vec![Tid(6)]);
        // The aborted deletes are deletable again.
        db.enqueue(UpdateBatch::delete_only(vec![Tid(0)])).unwrap();
    }

    #[test]
    fn stage_unknown_or_duplicate_tid_fails_atomically() {
        let mut db = ShardedDb::from_transactions(ShardSpec::striped(4), txs(4)).unwrap();
        let err = db
            .stage(UpdateBatch::delete_only(vec![Tid(1), Tid(99)]))
            .unwrap_err();
        assert_eq!(err, Error::UnknownTransaction(Tid(99)));
        assert_eq!(db.len(), 4);
        let err = db
            .stage(UpdateBatch::delete_only(vec![Tid(1), Tid(1)]))
            .unwrap_err();
        assert_eq!(err, Error::UnknownTransaction(Tid(1)));
        assert_eq!(db.len(), 4);
    }

    #[test]
    fn scan_order_concatenates_shards_and_chunks_agree() {
        let db = ShardedDb::from_transactions(ShardSpec::striped_with(3, 2), txs(17)).unwrap();
        let mut pass = Vec::new();
        db.for_each(&mut |t| pass.push(t.to_vec()));
        assert_eq!(pass.len(), 17);
        // Chunked pass delivers the same rows in the same order, and the
        // tid-offset arithmetic stays consistent across shard seams.
        for chunk_size in [1, 2, 3, 5, 20] {
            let mut scratch = ChunkScratch::new();
            let mut chunked = Vec::new();
            for index in 0..db.plan_chunks(chunk_size) {
                let offset = db.chunk_tid_offset(chunk_size, index);
                let chunk = db.chunk(chunk_size, index, &mut scratch);
                for (i, t) in chunk.iter().enumerate() {
                    assert_eq!(chunked.len() as u64, offset + i as u64);
                    chunked.push(t.to_vec());
                }
            }
            assert_eq!(chunked, pass, "chunk_size {chunk_size}");
        }
        // Partition boundaries tile the chunk plan, one per shard.
        let parts = db.chunk_partitions(2);
        assert_eq!(parts.len(), 3);
        assert_eq!(*parts.last().unwrap(), db.plan_chunks(2));
    }

    #[test]
    fn recovery_round_trips_and_respects_any_spec() {
        let mut db = ShardedDb::from_transactions(ShardSpec::striped_with(2, 2), txs(10)).unwrap();
        let staged = db
            .stage(UpdateBatch::delete_only(vec![Tid(3), Tid(4)]))
            .unwrap();
        db.commit(staged);
        let view = db.live_view();
        let mut pairs: Vec<(Tid, Transaction)> =
            db.iter().map(|(tid, t)| (tid, t.clone())).collect();
        pairs.sort_unstable_by_key(|&(tid, _)| tid);
        // Recover under a *different* shard count: same live set, same view.
        let recovered = ShardedDb::from_recovered(
            ShardSpec::striped_with(4, 1),
            pairs,
            view.watermark(),
            view.tombstones_sorted(),
            db.next_segment(),
        )
        .unwrap();
        assert_eq!(recovered.len(), db.len());
        assert_eq!(recovered.live_view(), view);
        for (tid, t) in db.iter() {
            assert_eq!(recovered.get(tid), Some(t));
        }
    }

    #[test]
    fn single_shard_behaves_like_flat() {
        let rows = txs(9);
        let mut sharded =
            ShardedDb::from_transactions(ShardSpec::striped(1), rows.clone()).unwrap();
        let mut flat = SegmentedDb::from_transactions(rows);
        let batch = UpdateBatch {
            inserts: txs(2),
            deletes: vec![Tid(2)],
        };
        let ss = sharded.stage(batch.clone()).unwrap();
        let fs = flat.stage(batch).unwrap();
        let (_, ts) = sharded.commit(ss);
        let (_, tf) = flat.commit(fs);
        assert_eq!(ts, tf);
        let collect = |src: &dyn TransactionSource| {
            let mut v = Vec::new();
            src.for_each(&mut |t| v.push(t.to_vec()));
            v
        };
        assert_eq!(collect(&sharded), collect(&flat));
    }

    /// Every tid below `n` round-trips through `local_tid`/`global_tid`,
    /// and each shard's local tids, in global order, are exactly
    /// `0, 1, 2, …`.
    fn assert_dense_bijection(spec: &ShardSpec, n: u64) {
        spec.validate().unwrap();
        let mut next_local = vec![0u64; spec.num_shards()];
        for tid in (0..n).map(Tid) {
            let (shard, local) = spec.local_tid(tid);
            assert_eq!(
                local,
                Tid(next_local[shard]),
                "{spec:?} {tid:?} is not dense"
            );
            assert_eq!(spec.global_tid(shard, local), tid, "{spec:?}");
            next_local[shard] += 1;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        #[test]
        fn striped_local_tids_are_a_dense_bijection(
            shards in 1u32..6,
            stripe in 1u64..9,
            n in 0u64..300,
        ) {
            assert_dense_bijection(&ShardSpec::striped_with(shards, stripe), n);
        }

        #[test]
        fn range_local_tids_are_a_dense_bijection(
            widths in proptest::collection::vec(1u64..40, 0..5),
            n in 0u64..300,
        ) {
            let mut ranges = Vec::new();
            let mut start = 0;
            for width in widths {
                ranges.push(TidRange::new(start, start + width));
                start += width;
            }
            ranges.push(TidRange::new(start, u64::MAX));
            assert_dense_bijection(&ShardSpec::ranges(ranges), n);
        }
    }
}
