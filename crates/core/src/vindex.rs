//! Vertical-index plumbing for the maintenance layer: [`IndexSlot`], the
//! holder that lets a [`Maintainer`](crate::Maintainer) keep one
//! [`VerticalIndex`] alive *across* maintenance rounds instead of
//! rebuilding it on first use every round, and `SlotProvider`, the
//! in-process support provider that counts through one slot per
//! tid-range part. A session passes one part per shard (an unsharded
//! session is the one-shard case); the one-shot [`Fup`](crate::Fup) /
//! [`Fup2`](crate::Fup2) fronts pass one part over their own sources.
//! Supports are additive over disjoint parts, so the summed splits are
//! the whole-store splits.
//!
//! ## The persistent-index contract
//!
//! A [`VerticalIndex`] identifies transactions positionally (tid = scan
//! order), so a held index is only reusable if it covers **exactly** the
//! rows its part holds, in scan order. A round touches a slot through
//! three calls: `engage` (the round's index over base ∪ delta: the held
//! index extended when it covers the base, else a build), `count_split`,
//! and `settle` at the round's decision, the one place the rule lives. A
//! commit keeps the index the round counted through; a commit that did
//! not count through it extends the held index by the delta; an abort
//! that did neither keeps it; every other case drops it — an aborted
//! round's index covers rows the part does not hold, and deletions
//! shift the positions of every later row (the part compacts them out;
//! an abort restores them in place).
//! Every index a slot builds indexes every item, so it covers
//! whatever the round asks about, newly large items included; only an
//! index adopted from a mine, which is filtered to that mine's `L₁` for
//! its pair matrix, can miss — and at its first miss
//! ([`VerticalIndex::covers`]) it is replaced by an unfiltered build. An
//! unfiltered index is still bounded by the rows it holds: a sparse list
//! costs 4 B per occurrence, and a dense one is chosen only when it is
//! smaller.
//!
//! A round whose every part holds an aligned index is *warm*
//! (`SlotProvider::warm`): it counts `C₁` and every `k ≥ 2` pass
//! through the held index, extended by the round's delta (one scan of
//! the small delta, no scan of the base), so an insert-only round reads
//! no base row.

use crate::supports::{pick_items, sum_splits, ScanSupports, Sides, Splits, Supports};
use fup_mining::engine::count_items_and_pairs;
use fup_mining::vertical::item_bitmap;
use fup_mining::{EngineConfig, ItemsetTable, VerticalIndex};
use fup_tidb::{ItemId, ShardedDb, ShardedStaged, TransactionSource};

/// Holds a [`VerticalIndex`] between FUP/FUP2 rounds so insert-only
/// updates extend it (one delta scan) instead of rebuilding it (a full
/// base scan). Rebuilds still happen — and are counted — when a round's
/// base does not match what the index covers (deletions). The slot's own
/// builds index every item, so dictionary growth (a newly large item, or
/// an item the dictionary never saw) extends like any other round; only
/// an adopted `L₁`-filtered index rebuilds, once, at the first item it
/// lacks.
///
/// The default slot is empty; the first round that engages the vertical
/// backend builds into it.
#[derive(Debug, Default)]
pub struct IndexSlot {
    index: Option<VerticalIndex>,
    /// `|base|` while a round is engaged: the index then covers the
    /// round's base ∪ delta, split at this tid.
    boundary: Option<u64>,
    builds: u64,
    extends: u64,
}

impl IndexSlot {
    /// An empty slot (no index held yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` if the slot currently holds an index.
    pub fn has_index(&self) -> bool {
        self.index.is_some()
    }

    /// Number of from-scratch index builds this slot has performed.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Number of times the held index was extended with a non-empty delta
    /// instead of being rebuilt.
    pub fn extends(&self) -> u64 {
        self.extends
    }

    /// The held index, if it covers exactly `rows` transactions — the
    /// size half of the reuse contract; the caller guarantees the order.
    fn aligned(&self, rows: u64) -> Option<&VerticalIndex> {
        self.index
            .as_ref()
            .filter(|idx| idx.num_transactions() == rows)
    }

    /// Adopts an index built elsewhere — typically the one a bootstrap or
    /// re-mine [`Apriori::run_with_index`](fup_mining::Apriori::run_with_index)
    /// already paid for, or a pinned-vertical bootstrap's build over each
    /// shard — counting it as a build. The caller guarantees the index
    /// covers the part's rows in scan order.
    pub(crate) fn adopt(&mut self, idx: VerticalIndex) {
        self.builds += 1;
        self.index = Some(idx);
    }

    /// Holds the round's index: the `base` source's tid-lists extended by
    /// the `delta` source's scan (FUP: `DB` then the increment; FUP2:
    /// `DB⁻` then `db⁺`), split at `|base|`. Once per round; later calls
    /// keep the engaged index.
    ///
    /// `keep_items` is what the held index must cover: old `L₁ ∪ L'₁`,
    /// which holds every item of `W` and of every candidate (both
    /// complete after iteration 1), and which a cluster shard worker
    /// receives over the wire. If the slot holds an index that already
    /// covers `base` (same transaction count — the caller guarantees same
    /// order — and those items), only `delta` is scanned; otherwise the
    /// index is rebuilt over every item, so later rounds never miss.
    pub(crate) fn engage(
        &mut self,
        keep_items: impl IntoIterator<Item = ItemId>,
        base: &dyn TransactionSource,
        delta: &dyn TransactionSource,
        engine: &EngineConfig,
    ) {
        if self.boundary.is_some() {
            return;
        }
        let boundary = base.num_transactions();
        let keep = item_bitmap(keep_items);
        let mut idx = match self.index.take() {
            Some(idx) if idx.num_transactions() == boundary && idx.covers(&keep) => {
                self.extends += u64::from(delta.num_transactions() > 0);
                idx
            }
            _ => {
                self.builds += 1;
                VerticalIndex::build(base, None, engine)
            }
        };
        idx.extend(delta, engine);
        self.index = Some(idx);
        self.boundary = Some(boundary);
    }

    /// `(support in base, support in delta)` of every row of `table`
    /// through the engaged index; `None` before [`engage`](Self::engage).
    pub(crate) fn count_split(
        &self,
        table: &ItemsetTable,
        engine: &EngineConfig,
    ) -> Option<Vec<(u64, u64)>> {
        let (idx, boundary) = (self.index.as_ref()?, self.boundary?);
        Some(idx.count_rows_split(table, boundary, engine))
    }

    /// Settles the round at its decision (`committed`, else aborted),
    /// where `inserted` is the round's delta and `had_deletes` says
    /// whether it removed rows from this part: keeps, extends or drops
    /// the held index as the [module docs](self) state, so it covers
    /// exactly the part's rows afterwards.
    pub(crate) fn settle(
        &mut self,
        committed: bool,
        inserted: &dyn TransactionSource,
        had_deletes: bool,
        engine: &EngineConfig,
    ) {
        let engaged = self.boundary.take().is_some();
        match (engaged, committed, had_deletes) {
            (true, true, _) | (false, false, false) => {}
            (false, true, false) => {
                if let Some(idx) = &mut self.index {
                    idx.extend(inserted, engine);
                    self.extends += u64::from(inserted.num_transactions() > 0);
                }
            }
            _ => self.index = None,
        }
    }

    /// How the held index differs from a fresh build over `rows`, the
    /// part's rows in scan order: its size, and every covered item's
    /// split at a few boundaries, so positions are checked and not only
    /// totals. Empty when nothing is held or nothing differs.
    pub(crate) fn drift(&self, rows: &dyn TransactionSource, engine: &EngineConfig) -> Vec<String> {
        let Some(held) = &self.index else {
            return Vec::new();
        };
        let (fresh, mut out) = (VerticalIndex::build(rows, None, engine), Vec::new());
        let (n, held_n) = (fresh.num_transactions(), held.num_transactions());
        if held_n != n {
            out.push(format!(
                "the held index covers {held_n} rows, the part holds {n}"
            ));
        }
        let universe = count_items_and_pairs(rows, 0, engine).0.len() as u32;
        let items: Vec<ItemId> = (0..universe)
            .map(ItemId)
            .filter(|&item| held.covers(&item_bitmap([item])))
            .collect();
        let table = ItemsetTable::from_flat_rows(1, items.clone());
        for boundary in [n / 4, n / 2, n - n / 4, n.saturating_sub(1)] {
            let h = held.count_rows_split(&table, boundary, engine);
            let f = fresh.count_rows_split(&table, boundary, engine);
            for ((item, h), f) in items.iter().zip(h).zip(f).filter(|((_, h), f)| h != f) {
                out.push(format!(
                    "item {}: split at {boundary} held {h:?}, fresh {f:?}",
                    item.raw()
                ));
            }
        }
        out
    }
}

/// One part of a [`SlotProvider`]: a persistent slot, the base rows its
/// index covers (`DB` for FUP, `DB⁻` for FUP2 — after staging, a shard
/// *is* its remainder), and the delta rows extending it.
pub(crate) type Part<'a> = (
    &'a mut IndexSlot,
    &'a dyn TransactionSource,
    &'a dyn TransactionSource,
);

/// The in-process index provider: one [`IndexSlot`] per disjoint
/// tid-range part, local splits summed. The first `engage` engages each
/// part's slot (a shard no deletion touched extends its index); the
/// caller settles the slots at the round's decision. `C₁`'s base supports
/// are list lengths when the round is [`warm`](SlotProvider::warm), a
/// scan else.
pub(crate) struct SlotProvider<'a> {
    base: &'a dyn TransactionSource,
    sides: Sides<'a>,
    parts: Vec<Part<'a>>,
}

impl<'a> SlotProvider<'a> {
    /// A provider over `base` (`DB⁻`) and `sides`, whose rows are the
    /// parts', in scan order.
    pub(crate) fn new(
        base: &'a dyn TransactionSource,
        sides: Sides<'a>,
        parts: impl IntoIterator<Item = Part<'a>>,
    ) -> Self {
        let parts = parts.into_iter().collect();
        SlotProvider { base, sides, parts }
    }

    /// One part per shard of a staged `store`: shard `s`'s remainder and
    /// its routed inserts, against `slots[s]`.
    pub(crate) fn per_shard(
        store: &'a ShardedDb,
        staged: &'a ShardedStaged,
        slots: &'a mut [IndexSlot],
        engine: &'a EngineConfig,
    ) -> Self {
        let sides = Sides {
            remainder: store.num_transactions(),
            deleted: staged.deleted(),
            inserted: staged.inserted(),
            engine,
        };
        Self::new(
            store,
            sides,
            (slots.iter_mut().enumerate())
                .map(|(s, slot)| -> Part<'a> { (slot, store.shard(s), staged.shard_inserted(s)) }),
        )
    }

    /// The hash-tree arm over the same sources.
    pub(crate) fn scan(&self, reduce_db: bool) -> ScanSupports<'a> {
        ScanSupports::new(self.base, self.sides, reduce_db)
    }

    /// `true` if every part's slot holds an index aligned with its base,
    /// so counting through them extends and never scans a base row.
    pub(crate) fn warm(&self) -> bool {
        (self.parts.iter()).all(|(slot, base, _)| slot.aligned(base.num_transactions()).is_some())
    }
}

impl Splits for SlotProvider<'_> {
    fn sides(&self) -> &Sides<'_> {
        &self.sides
    }

    fn base_items(&mut self, items: &[ItemId]) -> Vec<u64> {
        let needed = item_bitmap(items.iter().copied());
        let held: Option<Vec<&VerticalIndex>> = (self.parts.iter())
            .map(|(slot, base, _)| slot.aligned(base.num_transactions()))
            .map(|idx| idx.filter(|idx| idx.covers(&needed)))
            .collect();
        match held {
            Some(held) => (items.iter())
                .map(|&item| held.iter().map(|idx| idx.support(item)).sum())
                .collect(),
            None => pick_items(&self.base_dense(), items),
        }
    }

    fn base_dense(&mut self) -> Vec<u64> {
        self.scan(false).base_dense()
    }

    fn engage(&mut self, l1: &[ItemId]) {
        let engine = self.sides.engine;
        for (slot, base, delta) in &mut self.parts {
            slot.engage(l1.iter().copied(), *base, *delta, engine);
        }
    }

    fn count_split(&mut self, table: &ItemsetTable) -> Vec<(u64, u64)> {
        let engine = self.sides.engine;
        let splits = (self.parts.iter()).map(|(slot, _, _)| {
            slot.count_split(table, engine)
                .expect("engaged before counting")
        });
        sum_splits(table.len(), splits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fup_mining::{Apriori, Itemset, LargeItemsets, MinSupport};
    use fup_tidb::{SegmentedDb, ShardSpec, Tid, Transaction, TransactionDb, UpdateBatch};

    /// The items of `large`'s level 1.
    fn l1(large: &LargeItemsets) -> Vec<ItemId> {
        large.level(1).map(|(x, _)| x.items()[0]).collect()
    }

    /// Settles every shard's slot at the staged round's decision, as a
    /// session does.
    fn settle_all(
        slots: &mut [IndexSlot],
        staged: &ShardedStaged,
        committed: bool,
        engine: &EngineConfig,
    ) {
        for (s, slot) in slots.iter_mut().enumerate() {
            let deleted = !staged.shard_deleted(s).is_empty();
            slot.settle(committed, staged.shard_inserted(s), deleted, engine);
        }
    }

    fn rows(n: u64) -> Vec<Transaction> {
        (0..n)
            .map(|i| {
                let mut items = vec![(i % 5) as u32, 10 + (i % 3) as u32];
                if i % 2 == 0 {
                    items.push(20);
                }
                Transaction::from_items(items)
            })
            .collect()
    }

    /// Per-shard splits summed must equal the one-part splits over the
    /// unsharded store for the same logical update — the
    /// count-distribution identity the sharded session rests on.
    #[test]
    fn summed_shard_splits_equal_flat_splits() {
        let initial = rows(40);
        let batch = UpdateBatch {
            inserts: rows(10),
            deletes: vec![],
        };
        let minsup = MinSupport::percent(10);
        let engine = EngineConfig::serial();

        // One part over an unsharded store.
        let mut flat = SegmentedDb::from_transactions(initial.clone());
        let old = Apriori::new().run(&flat, minsup).large;
        let fs = flat.stage(batch.clone()).unwrap();
        let mut flat_slot = IndexSlot::new();
        let sides = Sides {
            remainder: flat.num_transactions(),
            deleted: fs.deleted(),
            inserted: fs.inserted(),
            engine: &engine,
        };
        let mut flat_provider = SlotProvider::new(
            &flat,
            sides,
            [(
                &mut flat_slot,
                &flat as &dyn TransactionSource,
                fs.inserted() as &dyn TransactionSource,
            )],
        );

        // One part per shard, several shard counts.
        for shards in [1u32, 2, 3, 8] {
            let mut sharded =
                ShardedDb::from_transactions(ShardSpec::striped_with(shards, 4), initial.clone())
                    .unwrap();
            let ss = sharded.stage(batch.clone()).unwrap();
            let mut slots: Vec<IndexSlot> = (0..shards).map(|_| IndexSlot::new()).collect();
            let mut provider = SlotProvider::per_shard(&sharded, &ss, &mut slots, &engine);

            flat_provider.engage(&l1(&old));
            provider.engage(&l1(&old));

            let sets: Vec<Itemset> = vec![
                Itemset::from_items([0u32, 10]),
                Itemset::from_items([0u32, 20]),
                Itemset::from_items([10u32, 20]),
            ];
            let table = ItemsetTable::from_sorted_itemsets(&sets);
            assert_eq!(
                provider.count_split(&table),
                flat_provider.count_split(&table),
                "{shards} shard(s)"
            );
            // Empty tables stay empty through the summation.
            assert!(provider.count_split(&ItemsetTable::empty()).is_empty());

            drop(provider);
            settle_all(&mut slots, &ss, true, &engine);
            for slot in &slots {
                assert!(
                    slot.has_index(),
                    "a committed round keeps every part's index"
                );
            }
        }
    }

    /// Deletions rebuild only the shards they touch; untouched shards
    /// extend their held index.
    #[test]
    fn deletes_invalidate_only_their_shard() {
        // Stripe 4 over 2 shards: tids 0..4,8..12,16..20 → shard 0.
        let mut sharded =
            ShardedDb::from_transactions(ShardSpec::striped_with(2, 4), rows(24)).unwrap();
        let minsup = MinSupport::percent(10);
        let old = Apriori::new().run(&sharded, minsup).large;
        let engine = EngineConfig::serial();
        let mut slots: Vec<IndexSlot> = vec![IndexSlot::new(), IndexSlot::new()];

        // Round 1: insert-only — both shards build.
        let ss = sharded.stage(UpdateBatch::insert_only(rows(6))).unwrap();
        {
            let mut provider = SlotProvider::per_shard(&sharded, &ss, &mut slots, &engine);
            provider.engage(&l1(&old));
        }
        settle_all(&mut slots, &ss, true, &engine);
        sharded.commit(ss);
        assert_eq!((slots[0].builds(), slots[1].builds()), (1, 1));

        // Round 2: delete one tid owned by shard 0. Shard 0 must rebuild
        // (its base shrank), shard 1 must extend.
        let old2 = Apriori::new().run(&sharded, minsup).large;
        let ss = sharded
            .stage(UpdateBatch {
                inserts: rows(4),
                deletes: vec![Tid(1)],
            })
            .unwrap();
        {
            let mut provider = SlotProvider::per_shard(&sharded, &ss, &mut slots, &engine);
            provider.engage(&l1(&old2));
        }
        settle_all(&mut slots, &ss, true, &engine);
        sharded.commit(ss);
        assert_eq!((slots[0].builds(), slots[0].extends()), (2, 0));
        assert_eq!((slots[1].builds(), slots[1].extends()), (1, 1));
    }

    fn db(rows: &[&[u32]]) -> TransactionDb {
        TransactionDb::from_transactions(
            rows.iter()
                .map(|r| Transaction::from_items(r.iter().copied())),
        )
    }

    fn mine(d: &TransactionDb) -> LargeItemsets {
        fup_mining::Apriori::new()
            .run(d, MinSupport::percent(30))
            .large
    }

    #[test]
    fn engage_reuses_matching_index_and_rebuilds_on_mismatch() {
        let base = db(&[&[1, 2], &[1, 2], &[2, 3], &[1, 3]]);
        let inc1 = db(&[&[1, 2], &[2, 3]]);
        let old = mine(&base);
        let cfg = EngineConfig::serial();

        let mut slot = IndexSlot::new();
        assert!(!slot.has_index());
        assert!(slot.count_split(&ItemsetTable::empty(), &cfg).is_none());
        slot.engage(l1(&old), &base, &inc1, &cfg);
        assert_eq!((slot.builds(), slot.extends()), (1, 0));
        let pair = ItemsetTable::from_sorted_itemsets(&[Itemset::from_items([1u32, 2])]);
        assert_eq!(slot.count_split(&pair, &cfg), Some(vec![(2, 1)]));
        // A second engage in the same round keeps the engaged index.
        slot.engage(l1(&old), &base, &inc1, &cfg);
        assert_eq!((slot.builds(), slot.extends()), (1, 0));
        slot.settle(true, &inc1, false, &cfg);
        assert!(slot.count_split(&pair, &cfg).is_none(), "settled");

        // Next round: base is now base ∪ inc1 (6 transactions) — the held
        // index matches, so only the new delta is scanned.
        let merged = db(&[&[1, 2], &[1, 2], &[2, 3], &[1, 3], &[1, 2], &[2, 3]]);
        let old2 = mine(&merged);
        let inc2 = db(&[&[1, 3]]);
        slot.engage(l1(&old2), &merged, &inc2, &cfg);
        assert_eq!((slot.builds(), slot.extends()), (1, 1));
        assert_eq!(slot.count_split(&pair, &cfg), Some(vec![(3, 0)]));
        slot.settle(true, &inc2, false, &cfg);

        // A held index over other rows (here: the round's base without
        // inc2) rebuilds.
        slot.engage(l1(&old2), &merged, &inc2, &cfg);
        assert_eq!((slot.builds(), slot.extends()), (2, 1));
    }

    /// Dictionary growth: a slot's own index covers every item, so a
    /// newly large item extends it; an adopted `L₁`-filtered mine index
    /// rebuilds once, at the first item it lacks.
    #[test]
    fn engage_extends_across_dictionary_growth() {
        // Item 9 is rare in the base (not large) and large after `inc`.
        let base = db(&[&[1, 2], &[1, 2], &[1, 2], &[1, 9]]);
        let inc = db(&[&[9], &[2, 9]]);
        let merged = db(&[&[1, 2], &[1, 2], &[1, 2], &[1, 9], &[9], &[2, 9]]);
        let empty = db(&[]);
        let old = mine(&base);
        assert!(!old.contains(&Itemset::single(ItemId(9))));
        let cfg = EngineConfig::serial();
        let nine = ItemsetTable::from_sorted_itemsets(&[Itemset::single(ItemId(9))]);

        let mut slot = IndexSlot::new();
        slot.engage(l1(&old), &base, &inc, &cfg);
        slot.settle(true, &inc, false, &cfg);
        let grown = mine(&merged);
        assert!(grown.contains(&Itemset::single(ItemId(9))));
        // Reused, not rebuilt; an empty delta is no extend.
        slot.engage(l1(&grown), &merged, &empty, &cfg);
        assert_eq!((slot.builds(), slot.extends()), (1, 0));
        let exact = Some(vec![(3, 0)]);
        assert_eq!(slot.count_split(&nine, &cfg), exact, "exact, not filtered");

        // The same growth against an index adopted from a mine of `base`
        // (filtered to its L₁ = {1, 2}): reuse would be unsound, so the
        // slot rebuilds — over every item — and extends from then on.
        let (_, mined) = fup_mining::Apriori::with_config(fup_mining::apriori::AprioriConfig {
            engine: EngineConfig::serial().with_backend(fup_mining::CountingBackend::Vertical),
            ..Default::default()
        })
        .run_with_index(&base, MinSupport::percent(30));
        let mut adopted = IndexSlot::new();
        adopted.adopt(mined.expect("a pinned-vertical mine builds an index"));
        let keep = l1(&old).into_iter().chain(l1(&grown));
        adopted.engage(keep, &base, &inc, &cfg);
        assert_eq!((adopted.builds(), adopted.extends()), (2, 0));
        assert_eq!(adopted.count_split(&nine, &cfg), Some(vec![(1, 2)]));
        adopted.settle(true, &inc, false, &cfg);
        adopted.engage(l1(&grown), &merged, &empty, &cfg);
        assert_eq!((adopted.builds(), adopted.extends()), (2, 0));
    }

    /// `settle` keeps, extends or drops the held index exactly as the
    /// module docs tabulate, and what it keeps matches a fresh build.
    #[test]
    fn settle_keeps_extends_or_drops_as_tabulated() {
        let base = db(&[&[1, 2], &[1, 2], &[2, 3]]);
        let delta = db(&[&[1, 2], &[2]]);
        let merged = db(&[&[1, 2], &[1, 2], &[2, 3], &[1, 2], &[2]]);
        let cfg = EngineConfig::serial();
        let seeded = || {
            let mut slot = IndexSlot::new();
            slot.adopt(VerticalIndex::build(&base, None, &cfg));
            slot
        };
        let engaged = || {
            let mut slot = seeded();
            slot.engage([ItemId(1), ItemId(2)], &base, &delta, &cfg);
            slot
        };
        // (slot, committed, had_deletes) → rows the slot then covers.
        let cases: [(IndexSlot, bool, bool, Option<&TransactionDb>); 6] = [
            (engaged(), true, false, Some(&merged)),
            (engaged(), false, false, None),
            (seeded(), true, false, Some(&merged)),
            (seeded(), true, true, None),
            (seeded(), false, false, Some(&base)),
            (seeded(), false, true, None),
        ];
        for (i, (mut slot, committed, deletes, covers)) in cases.into_iter().enumerate() {
            slot.settle(committed, &delta, deletes, &cfg);
            assert_eq!(slot.has_index(), covers.is_some(), "case {i}");
            if let Some(rows) = covers {
                assert!(slot.drift(rows, &cfg).is_empty(), "case {i}");
            }
        }
        // An engaged, committed round with deletions keeps its index too.
        let mut slot = engaged();
        slot.settle(true, &delta, true, &cfg);
        assert!(slot.drift(&merged, &cfg).is_empty());

        // An empty slot has nothing to extend, and nothing drifts.
        let mut empty = IndexSlot::new();
        empty.settle(true, &delta, false, &cfg);
        assert_eq!((empty.has_index(), empty.extends()), (false, 0));
        assert!(empty.drift(&merged, &cfg).is_empty());
    }

    /// `drift` sees a wrong size and rows out of place, not only wrong
    /// totals.
    #[test]
    fn drift_reports_a_size_or_position_mismatch() {
        let cfg = EngineConfig::serial();
        let rows = db(&[&[1, 2], &[2], &[1, 2], &[3]]);
        let mut slot = IndexSlot::new();
        slot.adopt(VerticalIndex::build(&rows, None, &cfg));
        assert!(slot.drift(&rows, &cfg).is_empty());
        let shorter = db(&[&[1, 2], &[2], &[1, 2]]);
        assert_eq!(slot.drift(&shorter, &cfg).len(), 1);
        // Same rows, same totals, another order.
        let moved = db(&[&[3], &[1, 2], &[2], &[1, 2]]);
        assert!(!slot.drift(&moved, &cfg).is_empty());
    }
}
