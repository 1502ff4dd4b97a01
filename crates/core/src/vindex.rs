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
//! order), so an index stored in a slot is only reusable for a later
//! update if the update's base source replays **exactly** the transactions
//! the index covers, in the same order, and the index covers every item
//! the round needs. The [`Maintainer`](crate::Maintainer) upholds the
//! order half by clearing the slot whenever the store mutates in a way
//! the slot did not track (deletions reorder the live set); the size
//! half is checked on every use. Every index a slot builds indexes every
//! item, so it covers whatever the round asks about, newly large items
//! included; only an index adopted from a mine, which is filtered to that
//! mine's `L₁` for its pair matrix, can miss — and at its first miss
//! ([`VerticalIndex::covers`]) it is replaced by an unfiltered build.
//! An unfiltered index is still bounded by the rows it holds: a sparse
//! list costs 4 B per occurrence, and a dense one is chosen only when it
//! is smaller.
//!
//! A round whose every part holds an aligned index is *warm*
//! (`SlotProvider::warm`): it counts `C₁` and every `k ≥ 2` pass
//! through the held index, extended by the round's delta (one scan of
//! the small delta, no scan of the base), so an insert-only round reads
//! no base row.

use crate::supports::{ScanSupports, Sides, Supports};
use fup_mining::vertical::item_bitmap;
use fup_mining::{EngineConfig, ItemsetTable, VerticalIndex};
use fup_tidb::{ItemId, ShardedDb, ShardedStaged, TransactionSource};

/// Holds a [`VerticalIndex`] between FUP/FUP2 rounds so insert-only
/// updates extend it (one delta scan) instead of rebuilding it (a full
/// base scan). Rebuilds still happen — and are counted — when a round's
/// base does not match what the index covers (deletions). The slot's own
/// builds index every item, so dictionary growth (a newly large item, or
/// an item the dictionary never saw) extends like any other round; only
/// an [`adopt`](IndexSlot::adopt)ed `L₁`-filtered index rebuilds, once,
/// at the first item it lacks.
///
/// The default slot is empty; the first round that engages the vertical
/// backend builds into it.
#[derive(Debug, Default)]
pub struct IndexSlot {
    index: Option<VerticalIndex>,
    builds: u64,
    extends: u64,
    touched: bool,
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

    /// Number of times the held index was extended with a delta instead
    /// of being rebuilt.
    pub fn extends(&self) -> u64 {
        self.extends
    }

    /// Drops the held index (the next round that wants one rebuilds).
    /// Called by the maintainer whenever the store mutates in a way the
    /// slot did not track.
    pub fn clear(&mut self) {
        self.index = None;
    }

    /// Seeds the slot with a freshly built index over `base`, covering
    /// every item. Used at bootstrap when the backend is pinned vertical,
    /// so even the *first* commit extends.
    pub fn seed<S>(&mut self, base: &S, engine: &EngineConfig)
    where
        S: TransactionSource + ?Sized,
    {
        self.builds += 1;
        self.index = Some(VerticalIndex::build(base, None, engine));
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
    /// already paid for — counting it as a build. The caller guarantees
    /// the index covers the store's live set in scan order.
    pub fn adopt(&mut self, idx: VerticalIndex) {
        self.builds += 1;
        self.index = Some(idx);
    }

    /// Extends the held index (if any) with `delta` at the current tid
    /// offset — the maintainer's way of keeping the slot aligned with an
    /// insert-only commit whose counting ran on the hash-tree path.
    pub fn extend_with<S>(&mut self, delta: &S, engine: &EngineConfig)
    where
        S: TransactionSource + ?Sized,
    {
        if let Some(idx) = &mut self.index {
            idx.extend(delta, engine);
            self.extends += 1;
            self.touched = true;
        }
    }

    /// Takes an index an updater can count this round against: the `base`
    /// source's tid-lists extended by the `delta` source's scan (FUP: `DB`
    /// then the increment; FUP2: `DB⁻` then `db⁺`).
    ///
    /// `keep_items` is what the held index must cover: old `L₁ ∪ L'₁`,
    /// which holds every item of `W` and of every candidate (both
    /// complete after iteration 1), and which a cluster shard worker
    /// receives over the wire. If the slot holds an index that already
    /// covers `base` (same transaction count — the caller guarantees same
    /// order — and those items), only `delta` is scanned; otherwise the
    /// index is rebuilt over every item, so later rounds never miss.
    ///
    /// The updater must [`stash`](IndexSlot::stash) the index back after a
    /// successful run so the next round can reuse it.
    pub(crate) fn acquire(
        &mut self,
        keep_items: impl IntoIterator<Item = ItemId>,
        base: &dyn TransactionSource,
        delta: &dyn TransactionSource,
        engine: &EngineConfig,
    ) -> VerticalIndex {
        let keep = item_bitmap(keep_items);
        if let Some(mut idx) = self.index.take() {
            if idx.num_transactions() == base.num_transactions() && idx.covers(&keep) {
                idx.extend(delta, engine);
                self.extends += 1;
                return idx;
            }
        }
        self.builds += 1;
        let mut idx = VerticalIndex::build(base, None, engine);
        idx.extend(delta, engine);
        idx
    }

    /// Returns an index to the slot after a successful update round. The
    /// index now covers the round's `base ∪ delta` — exactly the store
    /// after the round commits.
    pub(crate) fn stash(&mut self, idx: VerticalIndex) {
        self.index = Some(idx);
        self.touched = true;
    }

    /// Clears and returns the per-round "slot participated" flag — set by
    /// [`stash`](IndexSlot::stash) / [`extend_with`](IndexSlot::extend_with),
    /// read by the maintainer after each commit to decide whether the held
    /// index still matches the store.
    pub(crate) fn take_touched(&mut self) -> bool {
        std::mem::take(&mut self.touched)
    }
}

/// One part of a [`SlotProvider`]: a persistent slot, the base rows its
/// index covers (`DB` for FUP, `DB⁻` for FUP2 — after staging, a shard
/// *is* its remainder), the delta rows extending it, and the boundary
/// splitting the two.
struct Part<'a> {
    slot: &'a mut IndexSlot,
    base: &'a dyn TransactionSource,
    delta: &'a dyn TransactionSource,
    /// Tid splitting the base's supports from the delta's (`|base|`).
    boundary: u64,
    index: Option<VerticalIndex>,
}

/// The in-process index provider: one [`IndexSlot`] per disjoint
/// tid-range part, local splits summed. The first
/// [`delta`](Supports::delta) acquires each part's index from its slot
/// (a shard no deletion touched extends its index), `finish` stashes
/// them back. `delta` splits every row of `W ∪ C` and keeps `C`'s `DB⁻`
/// halves for [`base`](Supports::base). `C₁`'s base supports are list
/// lengths when the round is [`warm`](SlotProvider::warm), a scan else.
pub(crate) struct SlotProvider<'a> {
    base: &'a dyn TransactionSource,
    sides: Sides<'a>,
    parts: Vec<Part<'a>>,
    /// The `DB⁻` supports of the last `delta`'s `C`, row order.
    c_base: Vec<u64>,
}

impl<'a> SlotProvider<'a> {
    /// A provider over `base` (`DB⁻`) and `sides`, whose rows are the
    /// `(slot, base, delta)` parts, in scan order.
    pub(crate) fn new(
        base: &'a dyn TransactionSource,
        sides: Sides<'a>,
        parts: impl IntoIterator<
            Item = (
                &'a mut IndexSlot,
                &'a dyn TransactionSource,
                &'a dyn TransactionSource,
            ),
        >,
    ) -> Self {
        let parts = parts
            .into_iter()
            .map(|(slot, base, delta)| Part {
                slot,
                base,
                delta,
                boundary: base.num_transactions(),
                index: None,
            })
            .collect();
        SlotProvider {
            base,
            sides,
            parts,
            c_base: Vec::new(),
        }
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
            slots.iter_mut().enumerate().map(|(s, slot)| {
                (
                    slot,
                    store.shard(s) as &dyn TransactionSource,
                    staged.shard_inserted(s) as &dyn TransactionSource,
                )
            }),
        )
    }

    /// The hash-tree arm over the same sources.
    pub(crate) fn scan(&self, reduce_db: bool) -> ScanSupports<'a> {
        ScanSupports::new(self.base, self.sides, reduce_db)
    }

    /// `true` if every part's slot holds an index aligned with its base,
    /// so counting through them extends and never scans a base row.
    pub(crate) fn warm(&self) -> bool {
        self.parts
            .iter()
            .all(|p| p.slot.aligned(p.boundary).is_some())
    }

    /// Acquires every part's index, covering `l1`, once per round.
    fn engage(&mut self, l1: &[ItemId]) {
        let engine = self.sides.engine;
        for part in self.parts.iter_mut().filter(|p| p.index.is_none()) {
            let keep = l1.iter().copied();
            part.index = Some(part.slot.acquire(keep, part.base, part.delta, engine));
        }
    }

    /// `(support in base, support in delta)` for every row of `table`,
    /// summed over the parts.
    fn count_split(&self, table: &ItemsetTable) -> Vec<(u64, u64)> {
        let mut splits = self.parts.iter().map(|part| {
            part.index
                .as_ref()
                .expect("engage() before count_split()")
                .count_rows_split(table, part.boundary, self.sides.engine)
        });
        let mut totals = splits.next().unwrap_or_else(|| vec![(0, 0); table.len()]);
        for local in splits {
            for (acc, (b, d)) in totals.iter_mut().zip(local) {
                acc.0 += b;
                acc.1 += d;
            }
        }
        totals
    }
}

impl Supports for SlotProvider<'_> {
    fn sides(&self) -> &Sides<'_> {
        &self.sides
    }

    fn base_items(&mut self, items: &[ItemId]) -> Vec<u64> {
        let needed = item_bitmap(items.iter().copied());
        let held: Option<Vec<&VerticalIndex>> = self
            .parts
            .iter()
            .map(|p| p.slot.aligned(p.boundary).filter(|idx| idx.covers(&needed)))
            .collect();
        match held {
            Some(held) => (items.iter())
                .map(|&item| held.iter().map(|idx| idx.support(item)).sum())
                .collect(),
            None => self.scan(false).base_items(items),
        }
    }

    fn base_dense(&mut self) -> Vec<u64> {
        self.scan(false).base_dense()
    }

    fn delta(&mut self, l1: &[ItemId], w: &ItemsetTable, c: &ItemsetTable) -> Vec<(u64, u64)> {
        self.engage(l1);
        let minus = self.sides.minus(w, c);
        let (w_splits, c_splits) = (self.count_split(w), self.count_split(c));
        self.c_base = c_splits.iter().map(|s| s.0).collect();
        let plus = w_splits.iter().chain(&c_splits).map(|s| s.1);
        minus.into_iter().zip(plus).collect()
    }

    fn base(&mut self, _old: &ItemsetTable, _c: &ItemsetTable, survivors: &[usize]) -> Vec<u64> {
        survivors.iter().map(|&i| self.c_base[i]).collect()
    }

    fn finish(&mut self) {
        for part in &mut self.parts {
            if let Some(idx) = part.index.take() {
                part.slot.stash(idx);
            }
        }
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

            provider.finish();
            for slot in &slots {
                assert!(slot.has_index(), "finish must stash every part's index");
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
            provider.finish();
        }
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
            provider.finish();
        }
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
    fn acquire_reuses_matching_index_and_rebuilds_on_mismatch() {
        let base = db(&[&[1, 2], &[1, 2], &[2, 3], &[1, 3]]);
        let inc1 = db(&[&[1, 2], &[2, 3]]);
        let old = mine(&base);
        let cfg = EngineConfig::serial();

        let mut slot = IndexSlot::new();
        assert!(!slot.has_index());
        let idx = slot.acquire(l1(&old), &base, &inc1, &cfg);
        assert_eq!((slot.builds(), slot.extends()), (1, 0));
        assert_eq!(idx.num_transactions(), 6);
        slot.stash(idx);
        assert!(slot.take_touched());
        assert!(!slot.take_touched());

        // Next round: base is now base ∪ inc1 (6 transactions) — the held
        // index matches, so only the new delta is scanned.
        let merged = db(&[&[1, 2], &[1, 2], &[2, 3], &[1, 3], &[1, 2], &[2, 3]]);
        let old2 = mine(&merged);
        let inc2 = db(&[&[1, 3]]);
        let idx = slot.acquire(l1(&old2), &merged, &inc2, &cfg);
        assert_eq!((slot.builds(), slot.extends()), (1, 1));
        slot.stash(idx);

        // A cleared slot rebuilds.
        slot.clear();
        assert!(!slot.has_index());
        let _ = slot.acquire(l1(&old2), &merged, &inc2, &cfg);
        assert_eq!(slot.builds(), 2);
    }

    /// Dictionary growth: a slot's own index covers every item, so a
    /// newly large item extends it; an adopted `L₁`-filtered mine index
    /// rebuilds once, at the first item it lacks.
    #[test]
    fn acquire_extends_across_dictionary_growth() {
        // Item 9 is rare in the base (not large) and large after `inc`.
        let base = db(&[&[1, 2], &[1, 2], &[1, 2], &[1, 9]]);
        let inc = db(&[&[9], &[2, 9]]);
        let merged = db(&[&[1, 2], &[1, 2], &[1, 2], &[1, 9], &[9], &[2, 9]]);
        let empty = db(&[]);
        let old = mine(&base);
        assert!(!old.contains(&Itemset::single(fup_tidb::ItemId(9))));
        let cfg = EngineConfig::serial();

        let mut slot = IndexSlot::new();
        let idx = slot.acquire(l1(&old), &base, &inc, &cfg);
        slot.stash(idx);
        let grown = mine(&merged);
        assert!(grown.contains(&Itemset::single(fup_tidb::ItemId(9))));
        let idx = slot.acquire(l1(&grown), &merged, &empty, &cfg);
        assert_eq!((slot.builds(), slot.extends()), (1, 1));
        assert_eq!(idx.support(fup_tidb::ItemId(9)), 3, "exact, not filtered");

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
        let idx = adopted.acquire(l1(&old).into_iter().chain(l1(&grown)), &base, &inc, &cfg);
        assert_eq!((adopted.builds(), adopted.extends()), (2, 0));
        assert_eq!(idx.support(fup_tidb::ItemId(9)), 3);
        adopted.stash(idx);
        let _ = adopted.acquire(l1(&grown), &merged, &empty, &cfg);
        assert_eq!((adopted.builds(), adopted.extends()), (2, 1));
    }

    #[test]
    fn extend_with_keeps_slot_aligned() {
        let base = db(&[&[1, 2], &[1, 2]]);
        let old = mine(&base);
        let cfg = EngineConfig::serial();
        let mut slot = IndexSlot::new();
        let empty = db(&[]);
        let idx = slot.acquire(l1(&old), &base, &empty, &cfg);
        slot.stash(idx);
        let _ = slot.take_touched();

        let delta = db(&[&[1, 2], &[2]]);
        slot.extend_with(&delta, &cfg);
        assert_eq!(slot.extends(), 1);
        assert!(slot.take_touched());
        // Empty slots ignore the call.
        let mut empty_slot = IndexSlot::new();
        empty_slot.extend_with(&delta, &cfg);
        assert_eq!(empty_slot.extends(), 0);
    }
}
