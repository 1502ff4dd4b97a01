//! The round's one support oracle: [`Supports`] answers every count the
//! maintenance round ([`update_round`](crate::fup::update_round)) asks
//! for, in the paper's order. Per iteration `k ≥ 2` the round asks for
//! `(support_{db⁻}, support_{db⁺})` of every row of `W ∪ C`
//! ([`delta`](Supports::delta)), applies Lemma 4 to `W` and the
//! Lemma-2/5 gate to `C`, and asks for the `DB⁻` supports of the gate's
//! survivors only ([`base`](Supports::base)). Iteration 1 asks for item
//! histograms instead. A provider decides how to count:
//!
//! * [`ScanSupports`], the paper's own path (`CountingBackend::HashTree`):
//!   a hash tree over `W ∪ C` scans the small parts, one over the
//!   survivors scans `DB⁻`, and §3.4's `Reduce-db` / `Reduce-DB` trim
//!   the copies the next iteration scans instead.
//! * [`SlotProvider`] (`Vertical`): one persistent tid-list index per
//!   tid-range part — per shard for a session, one for the one-shot
//!   fronts — whose splits at tid `|DB⁻|` give both halves.
//! * [`AutoSupports`] (`Auto`): both of the above, switching once.
//! * The cluster's provider sums its workers' index splits.
//!
//! The two split providers implement [`Splits`], and one
//! [`SplitSupports`] turns their summed splits into `delta` and `base`.
//! No provider closes the round: the caller settles every index slot at
//! the round's decision (`IndexSlot::settle`).
//!
//! Every provider counts `db⁻` whole through a hash tree: it is never
//! trimmed, because undercounting it would inflate `support'` and could
//! fabricate winners. The loop makes every threshold decision on the
//! returned sums, so its result, `FupPassDetail` and `MiningStats` do not
//! depend on the provider.

use crate::reduce;
use crate::vindex::SlotProvider;
use fup_mining::engine::{self, count_items_and_pairs, ChunkedCollector, EngineConfig};
use fup_mining::vertical::{PassProfile, ResolvedBackend};
use fup_mining::{CountScratch, CountingBackend, HashTree, ItemsetTable};
use fup_tidb::{ItemId, Transaction, TransactionDb, TransactionSource};
use std::collections::HashSet;

/// A round's sizes and small parts. `db⁻` and `db⁺` live with the caller
/// in every deployment, so every provider counts them the same way.
#[derive(Clone, Copy)]
pub(crate) struct Sides<'a> {
    /// `|DB⁻|`: all the round needs of the remainder.
    pub(crate) remainder: u64,
    /// `db⁻`, the deleted rows.
    pub(crate) deleted: &'a dyn TransactionSource,
    /// `db⁺`, the inserted rows.
    pub(crate) inserted: &'a dyn TransactionSource,
    pub(crate) engine: &'a EngineConfig,
}

impl Sides<'_> {
    /// `(|DB⁻|, |db⁻|, |db⁺|)`.
    pub(crate) fn sizes(&self) -> (u64, u64, u64) {
        (
            self.remainder,
            self.deleted.num_transactions(),
            self.inserted.num_transactions(),
        )
    }

    /// `support_{db⁻}` of every row of `tree`, counted into it; zeros
    /// without deletions.
    fn count_minus(&self, tree: &mut HashTree) -> Vec<u64> {
        if self.deleted.is_empty() {
            return vec![0; tree.len()];
        }
        engine::count_source_into(tree, self.deleted, self.engine);
        tree.counts().to_vec()
    }

    /// `support_{db⁻}` of every row of `W ∪ C`, for a provider whose
    /// `db⁺` supports come from elsewhere: a tree only with deletions.
    pub(crate) fn minus(&self, w: &ItemsetTable, c: &ItemsetTable) -> Vec<u64> {
        if self.deleted.is_empty() {
            return vec![0; w.len() + c.len()];
        }
        self.count_minus(&mut tree_over(w, c))
    }
}

/// Where the round's supports come from (see the [module docs](self)).
pub(crate) trait Supports {
    /// The round's sizes and small parts.
    fn sides(&self) -> &Sides<'_>;

    /// Iteration 1 over the small parts: the item histogram of `db⁺`, its
    /// `nbuckets` DHP pair buckets, and the item histogram of `db⁻`.
    fn delta_items(&mut self, nbuckets: usize) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let sides = self.sides();
        let (plus, pairs) = count_items_and_pairs(sides.inserted, nbuckets, sides.engine);
        (
            plus,
            pairs,
            count_items_and_pairs(sides.deleted, 0, sides.engine).0,
        )
    }

    /// `DB⁻` supports of `items` (FUP's `C₁` survivors), request order.
    fn base_items(&mut self, items: &[ItemId]) -> Vec<u64> {
        pick_items(&self.base_dense(), items)
    }

    /// The item histogram of `DB⁻` (FUP2's `C₁`): `counts[i]` counts
    /// `ItemId(i)`, and a missing tail counts zero.
    fn base_dense(&mut self) -> Vec<u64>;

    /// `(support_{db⁻}, support_{db⁺})` of every row of `w`, then of `c`.
    /// `l1` is old `L₁ ∪ L'₁`, sorted: every item those rows can hold,
    /// which an index must cover.
    fn delta(&mut self, l1: &[ItemId], w: &ItemsetTable, c: &ItemsetTable) -> Vec<(u64, u64)>;

    /// `DB⁻` supports of the rows `survivors` (ascending, non-empty) of
    /// the `c` of this pass's [`delta`](Supports::delta); `old` is the
    /// old level `L_k`.
    fn base(&mut self, old: &ItemsetTable, c: &ItemsetTable, survivors: &[usize]) -> Vec<u64>;
}

/// The counts of `items` in a dense histogram (a missing tail counts
/// zero), request order.
pub(crate) fn pick_items(counts: &[u64], items: &[ItemId]) -> Vec<u64> {
    (items.iter())
        .map(|i| counts.get(i.index()).copied().unwrap_or(0))
        .collect()
}

/// The element-wise sum of per-part `(base, delta)` splits of a
/// `rows`-row table.
pub(crate) fn sum_splits(
    rows: usize,
    parts: impl IntoIterator<Item = Vec<(u64, u64)>>,
) -> Vec<(u64, u64)> {
    let mut totals = vec![(0, 0); rows];
    for part in parts {
        for (acc, (b, d)) in totals.iter_mut().zip(part) {
            acc.0 += b;
            acc.1 += d;
        }
    }
    totals
}

/// A provider whose `k ≥ 2` supports are tid-list splits at `|DB⁻|`,
/// one per tid-range part and summed: the slots' and the cluster's.
pub(crate) trait Splits {
    fn sides(&self) -> &Sides<'_>;
    fn base_items(&mut self, items: &[ItemId]) -> Vec<u64> {
        pick_items(&self.base_dense(), items)
    }
    fn base_dense(&mut self) -> Vec<u64>;

    /// Engages every part's index for the round, covering `l1` (see
    /// [`Supports::delta`]); only the first call of a round does work.
    fn engage(&mut self, l1: &[ItemId]);

    /// `(support in DB⁻, support in db⁺)` of every row of `table`,
    /// summed over the parts.
    fn count_split(&mut self, table: &ItemsetTable) -> Vec<(u64, u64)>;
}

/// [`Supports`] over [`Splits`]: `delta` splits every row of `W ∪ C` and
/// keeps `C`'s `DB⁻` halves, which `base` reads for the survivors.
pub(crate) struct SplitSupports<P> {
    pub(crate) parts: P,
    /// The `DB⁻` supports of the last `delta`'s `C`, row order.
    c_base: Vec<u64>,
}

impl<P> SplitSupports<P> {
    pub(crate) fn new(parts: P) -> Self {
        SplitSupports {
            parts,
            c_base: Vec::new(),
        }
    }
}

impl<P: Splits> Supports for SplitSupports<P> {
    fn sides(&self) -> &Sides<'_> {
        self.parts.sides()
    }

    fn base_items(&mut self, items: &[ItemId]) -> Vec<u64> {
        self.parts.base_items(items)
    }

    fn base_dense(&mut self) -> Vec<u64> {
        self.parts.base_dense()
    }

    fn delta(&mut self, l1: &[ItemId], w: &ItemsetTable, c: &ItemsetTable) -> Vec<(u64, u64)> {
        self.parts.engage(l1);
        let minus = self.parts.sides().minus(w, c);
        let (w_splits, c_splits) = (self.parts.count_split(w), self.parts.count_split(c));
        self.c_base = c_splits.iter().map(|s| s.0).collect();
        let plus = w_splits.iter().chain(&c_splits).map(|s| s.1);
        minus.into_iter().zip(plus).collect()
    }

    fn base(&mut self, _old: &ItemsetTable, _c: &ItemsetTable, survivors: &[usize]) -> Vec<u64> {
        survivors.iter().map(|&i| self.c_base[i]).collect()
    }
}

/// A hash tree over the rows of `w`, then of `c`.
fn tree_over(w: &ItemsetTable, c: &ItemsetTable) -> HashTree {
    HashTree::build_from_rows(w.k().max(c.k()), &[w.flat_items(), c.flat_items()].concat())
}

/// The hash-tree arm: the sources, or the copies the last pass trimmed
/// from them, scanned through a tree per request.
pub(crate) struct ScanSupports<'a> {
    base: &'a dyn TransactionSource,
    sides: Sides<'a>,
    reduce_db: bool,
    /// `db⁺` and `DB⁻` as the last pass that scanned them trimmed them.
    plus_working: Option<TransactionDb>,
    rem_working: Option<TransactionDb>,
}

impl<'a> ScanSupports<'a> {
    /// A provider scanning `base` (`DB⁻`) and the small parts, trimming
    /// under `reduce_db`.
    pub(crate) fn new(base: &'a dyn TransactionSource, sides: Sides<'a>, reduce_db: bool) -> Self {
        ScanSupports {
            base,
            sides,
            reduce_db,
            plus_working: None,
            rem_working: None,
        }
    }
}

impl Supports for ScanSupports<'_> {
    fn sides(&self) -> &Sides<'_> {
        &self.sides
    }

    /// Unlike the paper, this scan does not also rewrite `DB` without the
    /// pruned items: in memory the copy is pure overhead, and the
    /// `Reduce-DB` keep-set of iteration 2 (items of `L₂ ∪ C₂`) subsumes
    /// that removal, so the first trimmed copy is built there.
    fn base_dense(&mut self) -> Vec<u64> {
        count_items_and_pairs(self.base, 0, self.sides.engine).0
    }

    /// One tree over `W ∪ C` counts `db⁻` whole, then `db⁺` (or its
    /// trimmed copy) on top, applying `Reduce-db`.
    fn delta(&mut self, _l1: &[ItemId], w: &ItemsetTable, c: &ItemsetTable) -> Vec<(u64, u64)> {
        let mut tree = tree_over(w, c);
        let minus = self.sides.count_minus(&mut tree);
        let src = self
            .plus_working
            .as_ref()
            .map_or(self.sides.inserted, |t| t);
        if let Some(trimmed) =
            count_delta_and_trim(&mut tree, src, self.reduce_db, self.sides.engine)
        {
            self.plus_working = Some(trimmed);
        }
        let totals = tree.counts().iter().zip(minus);
        totals.map(|(t, m)| (m, t - m)).collect()
    }

    /// One scan of `DB⁻` (or its trimmed copy) through a tree over the
    /// survivors' rows, applying `Reduce-DB`: no item outside `L_k ∪ C`
    /// can be in a large (k+1)-itemset.
    fn base(&mut self, old: &ItemsetTable, c: &ItemsetTable, survivors: &[usize]) -> Vec<u64> {
        let rows = c.select_rows(survivors);
        let keep = self
            .reduce_db
            .then(|| reduce::item_universe(old.rows().chain(rows.rows())));
        let mut tree = HashTree::build_from_table(rows);
        let src = self.rem_working.as_ref().map_or(self.base, |t| t);
        if let Some(trimmed) = count_base_and_trim(&mut tree, src, keep.as_ref(), self.sides.engine)
        {
            self.rem_working = Some(trimmed);
        }
        tree.into_counts()
    }
}

/// `Auto`: counts on its [`ScanSupports`] until the first pass
/// [`CountingBackend::Auto`] resolves vertical, and on its
/// [`SlotProvider`] from that pass on. A pass is `indexed` when every
/// part already holds an index over its base (the round is warm), so a
/// warm round counts every `k ≥ 2` pass through the index; a cold pass is
/// priced by its pool size, `|DB'|` and `residue`.
pub(crate) struct AutoSupports<'a> {
    scan: ScanSupports<'a>,
    slots: SplitSupports<SlotProvider<'a>>,
    /// The average row length of `db⁺` (of `db⁻` without inserts), from
    /// iteration 1's histograms. It stands in for the frequent-item
    /// residue the miners feed `Auto`: an overestimate on filler-heavy
    /// data, so a cold pass may engage slightly earlier than the
    /// calibrated thresholds intend.
    residue: f64,
    engaged: bool,
}

impl<'a> AutoSupports<'a> {
    /// Switches from a scan of `slots`' sources to `slots`.
    pub(crate) fn new(slots: SlotProvider<'a>, reduce_db: bool) -> Self {
        AutoSupports {
            scan: slots.scan(reduce_db),
            slots: SplitSupports::new(slots),
            residue: 0.0,
            engaged: false,
        }
    }
}

impl Supports for AutoSupports<'_> {
    fn sides(&self) -> &Sides<'_> {
        self.scan.sides()
    }

    fn delta_items(&mut self, nbuckets: usize) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let counts = self.scan.delta_items(nbuckets);
        let (_, d_minus, d_plus) = self.scan.sides().sizes();
        let (side, rows) = if d_plus > 0 {
            (&counts.0, d_plus)
        } else {
            (&counts.2, d_minus)
        };
        self.residue = side.iter().sum::<u64>() as f64 / rows as f64;
        counts
    }

    fn base_items(&mut self, items: &[ItemId]) -> Vec<u64> {
        self.slots.base_items(items)
    }

    fn base_dense(&mut self) -> Vec<u64> {
        self.scan.base_dense()
    }

    fn delta(&mut self, l1: &[ItemId], w: &ItemsetTable, c: &ItemsetTable) -> Vec<(u64, u64)> {
        let sides = self.scan.sides();
        self.engaged = self.engaged
            || CountingBackend::Auto.resolve(&PassProfile {
                k: w.k().max(c.k()),
                candidates: c.len(),
                transactions: sides.remainder + sides.inserted.num_transactions(),
                residue: self.residue,
                indexed: self.slots.parts.warm(),
            }) == ResolvedBackend::Vertical;
        if self.engaged {
            // The scan's trimmed copies are never read again.
            (self.scan.plus_working, self.scan.rem_working) = (None, None);
            self.slots.delta(l1, w, c)
        } else {
            self.scan.delta(l1, w, c)
        }
    }

    fn base(&mut self, old: &ItemsetTable, c: &ItemsetTable, survivors: &[usize]) -> Vec<u64> {
        if self.engaged {
            self.slots.base(old, c, survivors)
        } else {
            self.scan.base(old, c, survivors)
        }
    }
}

/// One engine pass of `tree` (`W ∪ C`) over the insert side, adding into
/// the tree's counts. Under `Reduce-db` it also returns the trimmed
/// working copy the next iteration scans instead — kept per chunk, so
/// the copy is deterministic at any thread count.
fn count_delta_and_trim(
    tree: &mut HashTree,
    src: &dyn TransactionSource,
    reduce: bool,
    engine: &EngineConfig,
) -> Option<TransactionDb> {
    let (view, k) = (tree.view(), tree.k());
    let folds = engine::scan_fold(
        src,
        engine,
        || (tree.new_scratch(), ChunkedCollector::new()),
        |(scratch, kept), chunk, t| {
            if reduce {
                let mut matched: Vec<usize> = Vec::new();
                view.count_with(t, scratch, &mut |i| matched.push(i));
                let matched = matched.iter().map(|&i| view.candidate(i));
                if let Some(reduced) = reduce::reduce_db_transaction(t, matched, k) {
                    kept.push(chunk, reduced);
                }
            } else {
                view.count(t, scratch);
            }
        },
    );
    absorb_and_collect(tree, folds, reduce)
}

/// One engine pass of `tree` (the surviving candidates) over `DB⁻`.
/// With a `Reduce-DB` keep-set it also returns the trimmed working copy
/// the next iteration scans instead.
fn count_base_and_trim(
    tree: &mut HashTree,
    src: &dyn TransactionSource,
    keep: Option<&HashSet<ItemId>>,
    engine: &EngineConfig,
) -> Option<TransactionDb> {
    let (view, k) = (tree.view(), tree.k());
    let folds = engine::scan_fold(
        src,
        engine,
        || (tree.new_scratch(), ChunkedCollector::new()),
        |(scratch, kept), chunk, t| {
            view.count(t, scratch);
            if let Some(reduced) = keep.and_then(|keep| reduce::reduce_full_transaction(t, keep, k))
            {
                kept.push(chunk, reduced);
            }
        },
    );
    absorb_and_collect(tree, folds, keep.is_some())
}

/// Folds the per-worker scratches of one pass into `tree`; when the pass
/// trimmed, merges the kept transactions (chunk-ordered) into the next
/// iteration's working copy.
fn absorb_and_collect(
    tree: &mut HashTree,
    folds: Vec<(CountScratch, ChunkedCollector<Transaction>)>,
    trimmed: bool,
) -> Option<TransactionDb> {
    let mut collectors = Vec::with_capacity(folds.len());
    for (scratch, kept) in folds {
        tree.absorb(scratch);
        collectors.push(kept);
    }
    trimmed.then(|| TransactionDb::from_transactions(ChunkedCollector::merge(collectors)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FupConfig;
    use crate::fup::{update_round, Fup};
    use crate::vindex::IndexSlot;
    use fup_datagen::{corpus, generate_split};
    use fup_mining::vertical::AUTO_MIN_CANDIDATES;
    use fup_mining::{Apriori, LargeItemsets, MinSupport};
    use fup_tidb::source::ChainSource;
    use fup_tidb::{SegmentedDb, Tid, Transaction, UpdateBatch};

    /// A [`ScanSupports`] that logs the size of each trimmed working copy
    /// (`rows/items`) after every `delta` (`D<k>`, `db⁺`) and `base`
    /// (`B<k>`, `DB⁻`) it serves.
    struct Recorder<'a> {
        scan: ScanSupports<'a>,
        log: Vec<String>,
    }

    impl Recorder<'_> {
        fn note(&mut self, side: char, k: usize, copy: Option<(usize, u64)>) {
            let (rows, items) = copy.expect("a trimming pass leaves a copy");
            self.log.push(format!("{side}{k}:{rows}/{items}"));
        }
    }

    fn size(copy: &Option<TransactionDb>) -> Option<(usize, u64)> {
        copy.as_ref().map(|t| (t.len(), t.total_items()))
    }

    impl Supports for Recorder<'_> {
        fn sides(&self) -> &Sides<'_> {
            self.scan.sides()
        }
        fn base_dense(&mut self) -> Vec<u64> {
            self.scan.base_dense()
        }
        fn delta(&mut self, l1: &[ItemId], w: &ItemsetTable, c: &ItemsetTable) -> Vec<(u64, u64)> {
            let counts = self.scan.delta(l1, w, c);
            self.note('D', w.k().max(c.k()), size(&self.scan.plus_working));
            counts
        }
        fn base(&mut self, old: &ItemsetTable, c: &ItemsetTable, survivors: &[usize]) -> Vec<u64> {
            let counts = self.scan.base(old, c, survivors);
            self.note('B', c.k(), size(&self.scan.rem_working));
            counts
        }
    }

    /// The [`Recorder`] log of one hash-tree round.
    fn trim_log(
        config: &FupConfig,
        base: &dyn TransactionSource,
        deleted: &dyn TransactionSource,
        inserted: &dyn TransactionSource,
        old: &LargeItemsets,
        minsup: MinSupport,
    ) -> String {
        let sides = Sides {
            remainder: base.num_transactions(),
            deleted,
            inserted,
            engine: &config.engine,
        };
        let mut recorder = Recorder {
            scan: ScanSupports::new(base, sides, config.reduce_db),
            log: Vec::new(),
        };
        update_round(config, old, minsup, &mut recorder).unwrap();
        recorder.log.join(" ")
    }

    /// Reduce-db and Reduce-DB trim exactly: the working copies' sizes on
    /// the `experiments scanvol --scale 100` workload, insert-only and
    /// with every tenth row of `DB` deleted, at each Figure 2 support
    /// level. The scan-volume pins cannot see these copies.
    #[test]
    fn scan_supports_trims_the_working_copies_as_pinned() {
        let pinned: [(u64, &str, &str); 5] = [
            (600, "", ""),
            (400, "D2:1/3 B2:8/24", "D2:2/6 B2:65/216"),
            (
                200,
                "D2:4/23 B2:159/727 D3:0/0",
                "D2:5/27 B2:601/3093 D3:0/0",
            ),
            (
                100,
                "D2:10/70 B2:469/2376 D3:1/5 B3:140/789 D4:0/0 D5:0/0 D6:0/0 D7:0/0",
                "D2:10/69 B2:423/2145 D3:1/6 B3:120/669 D4:0/0 D5:0/0 D6:0/0 D7:0/0 \
                 D8:0/0",
            ),
            (
                75,
                "D2:10/84 B2:635/3455 D3:1/6 B3:174/986 D4:0/0 D5:0/0 D6:0/0 D7:0/0 \
                 D8:0/0 D9:0/0",
                "D2:10/84 B2:875/7983 D3:1/6 B3:225/1273 D4:0/0 B4:70/465 D5:0/0 \
                 B5:29/236 D6:0/0 B6:22/188 D7:0/0 B7:16/146 D8:0/0 B8:12/114 D9:0/0 \
                 B9:6/60",
            ),
        ];
        let data = generate_split(&corpus::scaled(
            corpus::t10_i4_d100_d1().with_seed(1996),
            100,
        ));
        let config = FupConfig {
            engine: EngineConfig::default().with_backend(CountingBackend::HashTree),
            ..FupConfig::full()
        };
        for (bp, insert_only, with_deletes) in pinned {
            let minsup = MinSupport::basis_points(bp);
            let old = Apriori::new().run(&data.db, minsup).large;
            let log = trim_log(
                &config,
                &data.db,
                &TransactionDb::new(),
                &data.increment,
                &old,
                minsup,
            );
            assert_eq!(log, insert_only, "{bp} bp, insert-only");

            let mut store = SegmentedDb::from_transactions(data.db.raw().to_vec());
            let old = Apriori::new().run(&store, minsup).large;
            let staged = store
                .stage(UpdateBatch {
                    inserts: data.increment.raw().to_vec(),
                    deletes: (0..100).map(|i| Tid(i * 10)).collect(),
                })
                .unwrap();
            let log = trim_log(
                &config,
                &store,
                staged.deleted(),
                staged.inserted(),
                &old,
                minsup,
            );
            assert_eq!(log, with_deletes, "{bp} bp, with deletions");
        }
    }

    /// `Auto` counts pass 2 on the hash tree (old `L₂` covers every pair,
    /// so `C₂` is empty) and engages the index at pass 3, whose `C₃`
    /// holds every triple of 13 items: bit-identical to both pinned
    /// backends, one build, and a slot that the next round extends.
    #[test]
    fn auto_switches_to_the_index_once_mid_round() {
        let tx = |items: &[u32]| Transaction::from_items(items.iter().copied());
        let mut rows = Vec::new();
        for a in 0..13u32 {
            for b in a + 1..13 {
                rows.extend((0..50).map(|_| tx(&[a, b])));
            }
        }
        rows.extend((0..300u32).map(|i| tx(&[100 + i % 100])));
        let db = TransactionDb::from_transactions(rows);
        let triple = |i: u32| tx(&[i % 13, (i + 1) % 13, (i + 2) % 13]);
        let inc = TransactionDb::from_transactions((0..200).map(triple));
        let minsup = MinSupport::percent(1);
        let old = Apriori::new().run(&db, minsup).large;
        let config = |backend| FupConfig {
            engine: EngineConfig::default().with_backend(backend),
            ..FupConfig::full()
        };
        let round = |backend, slot: &mut IndexSlot| {
            let scans = inc.metrics().full_scans();
            let fup = Fup::with_config(config(backend));
            let out = fup
                .update_with_index(&db, &old, &inc, minsup, slot)
                .unwrap();
            (out, inc.metrics().full_scans() - scans)
        };

        let mut slot = IndexSlot::new();
        let (auto, auto_inc_scans) = round(CountingBackend::Auto, &mut slot);
        let (hash, _) = round(CountingBackend::HashTree, &mut IndexSlot::new());
        let (vertical, vertical_inc_scans) =
            round(CountingBackend::Vertical, &mut IndexSlot::new());
        for other in [&hash, &vertical] {
            assert_eq!(auto.large, other.large);
            assert_eq!(auto.detail, other.detail);
            assert_eq!(auto.stats.passes, other.stats.passes);
        }
        let whole = ChainSource::new(&db, &inc);
        assert!(auto
            .large
            .same_itemsets(&Apriori::new().run(&whole, minsup).large));
        assert_eq!(auto.detail[1].candidates_after_hash, 0);
        assert!(auto.detail[2].candidates_after_hash >= AUTO_MIN_CANDIDATES as u64);
        // db⁺ is read by pass 1's histogram, pass 2's tree and pass 3's
        // extend under Auto; a pinned index extends at pass 2 instead.
        assert_eq!((auto_inc_scans, vertical_inc_scans), (3, 2));
        assert_eq!((slot.builds(), slot.extends()), (1, 0));
        assert!(slot.has_index(), "the committed round keeps its index");

        // The next round is warm: it extends the kept index.
        let inc2 = TransactionDb::from_transactions((0..20).map(triple));
        let fup = Fup::with_config(config(CountingBackend::Auto));
        let next = fup.update_with_index(&whole, &auto.large, &inc2, minsup, &mut slot);
        let again = ChainSource::new(&whole, &inc2);
        let remined = Apriori::new().run(&again, minsup).large;
        assert!(next.unwrap().large.same_itemsets(&remined));
        assert_eq!((slot.builds(), slot.extends()), (1, 1));
    }
}
