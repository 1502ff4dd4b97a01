//! Vertical-index plumbing for the maintenance layer: the shared bits of
//! the FUP/FUP2 vertical counting paths (index construction and the
//! split-count seam), plus [`IndexSlot`] — the holder that lets a
//! [`Maintainer`](crate::Maintainer) keep one [`VerticalIndex`] alive
//! *across* maintenance rounds instead of rebuilding it on first use every
//! round.
//!
//! One provider serves every in-process round: a `SlotProvider` over one
//! slot per tid-range part. A session passes one part per shard (an
//! unsharded session is the one-shard case); the one-shot
//! [`Fup`](crate::Fup) / [`Fup2`](crate::Fup2) fronts pass one part over
//! their own sources. Supports are additive over disjoint parts, so the
//! summed splits are the whole-store splits.
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
//! (`VerticalProvider::warm`): it counts `C₁` and every `k ≥ 2` pass
//! through the held index, extended by the round's delta (one scan of
//! the small delta, no scan of the base), so an insert-only round reads
//! no base row.

use fup_mining::vertical::item_bitmap;
use fup_mining::{EngineConfig, ItemsetTable, LargeItemsets, VerticalIndex};
use fup_tidb::{ShardedDb, ShardedStaged, TransactionSource};

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
    /// Every `W` item is in the old `L₁` and every candidate item is in
    /// the updated `L₁` (both complete after iteration 1), so the index
    /// must cover their union. If the slot holds an index that already
    /// covers `base` (same transaction count — the caller guarantees same
    /// order — and those items), only `delta` is scanned; otherwise the
    /// index is rebuilt over every item, so later rounds never miss.
    ///
    /// The updater must [`stash`](IndexSlot::stash) the index back after a
    /// successful run so the next round can reuse it.
    pub(crate) fn acquire(
        &mut self,
        old: &LargeItemsets,
        result: &LargeItemsets,
        base: &dyn TransactionSource,
        delta: &dyn TransactionSource,
        engine: &EngineConfig,
    ) -> VerticalIndex {
        self.acquire_items(
            old.level(1)
                .chain(result.level(1))
                .map(|(x, _)| x.items()[0]),
            base,
            delta,
            engine,
        )
    }

    /// [`acquire`](IndexSlot::acquire) with the keep filter given as an
    /// explicit item list instead of the two `L₁` levels — the shape a
    /// cluster shard worker receives over the wire (the coordinator
    /// computes `old L₁ ∪ result L₁` and broadcasts just the items).
    /// Same reuse contract, same counters: `keep_items` is what the held
    /// index must cover, not a build filter.
    pub(crate) fn acquire_items(
        &mut self,
        keep_items: impl IntoIterator<Item = fup_tidb::ItemId>,
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

/// The vertical-counting seam of the FUP/FUP2 round loops: where the
/// per-pass `(support in base, support in delta)` splits come from once
/// the vertical backend engages. In-process callers hand the loops a
/// [`SlotProvider`] — one persistent index per tid-range part (one part
/// per session shard, or one part over the one-shot fronts' own
/// sources) — that merges local splits by summation (count
/// distribution); the cluster hands them a provider whose parts live in
/// its workers. The loops cannot tell the difference: supports are
/// additive over disjoint tid ranges, so the summed splits equal the
/// whole-store splits exactly.
pub(crate) trait VerticalProvider {
    /// `true` once [`engage`](VerticalProvider::engage) has run.
    fn engaged(&self) -> bool;

    /// `true` if engaging would only extend indexes already held over the
    /// round's base rows — no base scan. With
    /// [`engaged`](VerticalProvider::engaged) it is the round loop's
    /// [`PassProfile::indexed`](fup_mining::PassProfile::indexed). The
    /// default is `false`: a remote provider's rounds are priced cold.
    fn warm(&self) -> bool {
        false
    }

    /// Materialises the round's index (or indexes), covering at least
    /// `old L₁ ∪ result L₁`. Idempotent: a second call in the same round
    /// is a no-op.
    fn engage(&mut self, old: &LargeItemsets, result: &LargeItemsets, engine: &EngineConfig);

    /// `(support in base, support in delta)` for every row of `table`,
    /// in row order.
    ///
    /// # Panics
    ///
    /// May panic if [`engage`](VerticalProvider::engage) has not run.
    fn count_split(&self, table: &ItemsetTable, engine: &EngineConfig) -> Vec<(u64, u64)>;

    /// Pass-1 offload: supports of `items` in the round's **base** rows
    /// only (FUP's `C₁`-over-`DB` scan). `None` — the default — tells the
    /// round loop to scan its base source directly; a provider that can
    /// answer without that scan returns `Some(counts)` (one per item,
    /// request order) and the loop skips it: a remote provider whose
    /// base rows live in other processes, or a warm in-process one
    /// reading list lengths off its held indexes. Summed per-part counts
    /// equal the whole-base scan's counts (a support is a sum over
    /// disjoint tid ranges), so results stay bit-identical either way.
    fn count_base_items(
        &self,
        items: &[fup_tidb::ItemId],
        engine: &EngineConfig,
    ) -> Option<Vec<u64>> {
        let _ = (items, engine);
        None
    }

    /// Pass-1 offload, dense flavour: the full item histogram of the
    /// round's base rows (FUP2's all-items pass over `DB⁻`). Same
    /// contract as [`count_base_items`](VerticalProvider::count_base_items):
    /// `None` means "scan it yourself"; `Some(counts)` has `counts[i]`
    /// counting `ItemId(i)` and may be shorter than the dictionary
    /// (missing tail = zero occurrences).
    fn count_base_dense(&self, engine: &EngineConfig) -> Option<Vec<u64>> {
        let _ = engine;
        None
    }

    /// Returns the round's index (or indexes) to their slot(s) after a
    /// successful run. A no-op when the round never engaged.
    fn finish(&mut self);
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

/// The in-process [`VerticalProvider`]: one [`IndexSlot`] per disjoint
/// tid-range part, local splits merged by summation. Engaging acquires
/// every part's index from its slot; finishing stashes them back.
///
/// Each part's slot is acquired independently, and the acquire step's
/// size check (base row count vs. index coverage) rebuilds exactly the
/// parts whose live set changed — a session shard no deletion touched
/// reuses its index and scans only its delta slice.
pub(crate) struct SlotProvider<'a> {
    parts: Vec<Part<'a>>,
}

impl<'a> SlotProvider<'a> {
    /// A provider over `(slot, base, delta)` parts, in scan order.
    pub(crate) fn new(
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
        SlotProvider { parts }
    }

    /// One part per shard of a staged `store`: shard `s`'s remainder and
    /// its routed inserts, against `slots[s]`.
    pub(crate) fn per_shard(
        store: &'a ShardedDb,
        staged: &'a ShardedStaged,
        slots: &'a mut [IndexSlot],
    ) -> Self {
        Self::new(slots.iter_mut().enumerate().map(|(s, slot)| {
            (
                slot,
                store.shard(s) as &dyn TransactionSource,
                staged.shard_inserted(s) as &dyn TransactionSource,
            )
        }))
    }
}

impl VerticalProvider for SlotProvider<'_> {
    fn engaged(&self) -> bool {
        // Parts engage together (one loop in `engage`), so the first
        // part speaks for all of them.
        self.parts.first().is_some_and(|p| p.index.is_some())
    }

    fn warm(&self) -> bool {
        self.parts
            .iter()
            .all(|p| p.slot.aligned(p.boundary).is_some())
    }

    fn engage(&mut self, old: &LargeItemsets, result: &LargeItemsets, engine: &EngineConfig) {
        for part in &mut self.parts {
            if part.index.is_none() {
                part.index = Some(
                    part.slot
                        .acquire(old, result, part.base, part.delta, engine),
                );
            }
        }
    }

    fn count_split(&self, table: &ItemsetTable, engine: &EngineConfig) -> Vec<(u64, u64)> {
        let mut splits = self.parts.iter().map(|part| {
            part.index
                .as_ref()
                .expect("engage() before count_split()")
                .count_rows_split(table, part.boundary, engine)
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

    /// A `C₁` survivor's support in the base is its list length in the
    /// held index — when every part holds an aligned index covering
    /// `items`; otherwise `None`, and the round scans.
    fn count_base_items(
        &self,
        items: &[fup_tidb::ItemId],
        _engine: &EngineConfig,
    ) -> Option<Vec<u64>> {
        let needed = item_bitmap(items.iter().copied());
        let held: Vec<&VerticalIndex> = self
            .parts
            .iter()
            .map(|p| p.slot.aligned(p.boundary).filter(|idx| idx.covers(&needed)))
            .collect::<Option<_>>()?;
        Some(
            items
                .iter()
                .map(|&item| held.iter().map(|idx| idx.support(item)).sum())
                .collect(),
        )
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
    use fup_mining::{Apriori, Itemset, MinSupport};
    use fup_tidb::{SegmentedDb, ShardSpec, Tid, Transaction, TransactionDb, UpdateBatch};

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
        let mut flat_provider = SlotProvider::new([(
            &mut flat_slot,
            &flat as &dyn TransactionSource,
            fs.inserted() as &dyn TransactionSource,
        )]);

        // One part per shard, several shard counts.
        for shards in [1u32, 2, 3, 8] {
            let mut sharded =
                ShardedDb::from_transactions(ShardSpec::striped_with(shards, 4), initial.clone())
                    .unwrap();
            let ss = sharded.stage(batch.clone()).unwrap();
            let mut slots: Vec<IndexSlot> = (0..shards).map(|_| IndexSlot::new()).collect();
            let mut provider = SlotProvider::per_shard(&sharded, &ss, &mut slots);

            let result = LargeItemsets::new(50);
            assert!(!provider.engaged());
            flat_provider.engage(&old, &result, &engine);
            provider.engage(&old, &result, &engine);
            assert!(provider.engaged());

            let sets: Vec<Itemset> = vec![
                Itemset::from_items([0u32, 10]),
                Itemset::from_items([0u32, 20]),
                Itemset::from_items([10u32, 20]),
            ];
            let table = ItemsetTable::from_sorted_itemsets(&sets);
            assert_eq!(
                provider.count_split(&table, &engine),
                flat_provider.count_split(&table, &engine),
                "{shards} shard(s)"
            );
            // Empty tables stay empty through the summation.
            assert!(provider
                .count_split(&ItemsetTable::empty(), &engine)
                .is_empty());

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
            let mut provider = SlotProvider::per_shard(&sharded, &ss, &mut slots);
            provider.engage(&old, &LargeItemsets::new(30), &engine);
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
            let mut provider = SlotProvider::per_shard(&sharded, &ss, &mut slots);
            provider.engage(&old2, &LargeItemsets::new(33), &engine);
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
        let idx = slot.acquire(&old, &LargeItemsets::new(6), &base, &inc1, &cfg);
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
        let idx = slot.acquire(&old2, &LargeItemsets::new(7), &merged, &inc2, &cfg);
        assert_eq!((slot.builds(), slot.extends()), (1, 1));
        slot.stash(idx);

        // A cleared slot rebuilds.
        slot.clear();
        assert!(!slot.has_index());
        let _ = slot.acquire(&old2, &LargeItemsets::new(7), &merged, &inc2, &cfg);
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
        let idx = slot.acquire(&old, &LargeItemsets::new(6), &base, &inc, &cfg);
        slot.stash(idx);
        let grown = mine(&merged);
        assert!(grown.contains(&Itemset::single(fup_tidb::ItemId(9))));
        let idx = slot.acquire(&grown, &grown, &merged, &empty, &cfg);
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
        let idx = adopted.acquire(&old, &grown, &base, &inc, &cfg);
        assert_eq!((adopted.builds(), adopted.extends()), (2, 0));
        assert_eq!(idx.support(fup_tidb::ItemId(9)), 3);
        adopted.stash(idx);
        let _ = adopted.acquire(&grown, &grown, &merged, &empty, &cfg);
        assert_eq!((adopted.builds(), adopted.extends()), (2, 1));
    }

    #[test]
    fn extend_with_keeps_slot_aligned() {
        let base = db(&[&[1, 2], &[1, 2]]);
        let old = mine(&base);
        let cfg = EngineConfig::serial();
        let mut slot = IndexSlot::new();
        let empty = db(&[]);
        let idx = slot.acquire(&old, &LargeItemsets::new(2), &base, &empty, &cfg);
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
