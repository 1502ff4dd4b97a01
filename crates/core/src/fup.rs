//! The maintenance round: FUP2 (§5 of the paper), with FUP (§3) as its
//! `db⁻ = ∅` case.
//!
//! One update turns `DB` into `DB' = (DB − db⁻) ∪ db⁺` (a modification is
//! a delete plus an insert); `DB⁻ = DB − db⁻` is the *remainder*. Each
//! iteration `k` of `update_round` — the only round loop in the crate,
//! behind both [`Fup`] and [`Fup2`] and every session commit
//! — scans the small parts for everything and `DB⁻` for as little as
//! possible:
//!
//! 1. **Filter the old large itemsets.** `W = L_k` minus the Lemma-3
//!    losers (supersets of (k−1)-losers need no scan at all). For
//!    `X ∈ W` the new support is exact arithmetic over the small parts:
//!    `X.support' = X.support_D − X.support_{db⁻} + X.support_{db⁺}` — no
//!    scan of `DB⁻` — and Lemma 1/4 decides winners and losers exactly.
//! 2. **Find the new large itemsets.** A candidate
//!    `X ∈ C_k = apriori-gen(L'_{k−1}) − L_k` was small in `DB`, so only
//!    the bound `X.support_D ≤ ⌈s×D⌉ − 1` is known, and `X` can be large
//!    in `DB'` only if
//!    `(⌈s×D⌉ − 1) − X.support_{db⁻} + X.support_{db⁺} ≥ ⌈s×(D−d⁻+d⁺)⌉`
//!    (the FUP2 bound). Candidates failing it are pruned; only the
//!    survivors are counted against `DB⁻`.
//!
//! **FUP is the `db⁻ = ∅` specialisation.** Without deletions the bound
//! tightens to Lemma 2/5 — `X.support_{db⁺} ≥ s×d⁺`, a new itemset must
//! be large inside the increment — which is applied in its place; only
//! items that occur in `db⁺` can be new 1-candidates, so iteration 1
//! counts `db⁺` first and scans `DB` for the Lemma-2 survivors alone (not
//! at all when there are none), where a round with deletions needs the
//! full item histogram of `DB⁻` because a deletion can promote an item
//! that `db⁺` never mentions; and DHP-style pair hashing over the
//! increment (§3.4) thins `C₂` before it is ever counted — a bucket total
//! bounds `support_{db⁺}`, which says nothing once `db⁻` also moves the
//! bound. Those are the only differences; the input decides them, and the
//! run is labelled `"fup"` without deletions and `"fup2"` with.
//!
//! **One candidate type.** Every set an iteration works on is a flat,
//! sorted [`ItemsetTable`]: the old `L_k` (supports parallel to its rows),
//! `W` and the losers as row masks over it, the previous level's losers
//! for Lemma 3's subset lookups, and `C_k` from `apriori_gen_flat` over
//! `L'_{k−1}`. `− L_k` is one sorted merge, the DHP filter and the
//! Lemma-2/5 gate are row masks, and both counting arms take rows (the
//! hash tree builds from them, the vertical index intersects them). An
//! [`Itemset`] is built only for an itemset inserted into `L'`.
//!
//! **Trimming.** The `Reduce-db`/`Reduce-DB` rules of §3.4 shrink `db⁺`
//! and `DB⁻` each iteration. The delete side is **never** trimmed —
//! undercounting `support_{db⁻}` would inflate `support'` and could
//! fabricate winners — so `db⁻` is always scanned whole (it is small by
//! assumption).

use crate::config::FupConfig;
use crate::error::{Error, Result};
use crate::reduce;
use crate::vindex::{IndexSlot, SlotProvider, VerticalProvider};
use fup_mining::engine::{
    self, count_items_and_pairs, pair_bucket, ChunkedCollector, EngineConfig,
};
use fup_mining::gen::apriori_gen_flat;
use fup_mining::vertical::{PassProfile, ResolvedBackend};
use fup_mining::{
    CountScratch, HashTree, Itemset, ItemsetTable, LargeItemsets, MinSupport, MiningStats,
    PassStats,
};
use fup_tidb::{ItemId, Transaction, TransactionDb, TransactionSource};
use std::collections::HashSet;
use std::time::Instant;

/// Cap on the pair-bucket table of FUP's DHP filter over `db⁺` (§3.4):
/// the table grows with the increment, one bucket per expected pair
/// occurrence, up to this many.
const MAX_PAIR_BUCKETS: u64 = 1 << 20;

/// Per-iteration detail beyond the common [`PassStats`] — the quantities
/// the paper's narrative tracks (losers filtered for free, candidates
/// pruned by the increment check, winners from each side).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FupPassDetail {
    /// Iteration number `k`.
    pub k: usize,
    /// `|L_k|` — old large itemsets entering the iteration.
    pub old_large: u64,
    /// Old itemsets discarded by Lemma 3 without scanning anything.
    pub lemma3_losers: u64,
    /// Old itemsets confirmed large in the updated database (scans of
    /// the small parts only).
    pub winners_from_old: u64,
    /// `|apriori-gen(L'_{k−1}) − L_k|` (or, for k = 1, distinct new items
    /// seen in the increment — with deletions, anywhere).
    pub candidates_generated: u64,
    /// Candidates surviving the DHP pair-hash filter (k = 2 only;
    /// equals `candidates_generated` elsewhere).
    pub candidates_after_hash: u64,
    /// Candidates surviving the Lemma-2/5 (FUP2-bound) pruning — the
    /// pool actually counted against `DB` (the Figure 3 quantity).
    pub candidates_checked: u64,
    /// New large itemsets found among the candidates.
    pub winners_from_new: u64,
}

/// The result of one FUP / FUP2 run.
#[derive(Debug, Clone)]
pub struct FupOutcome {
    /// `L'`: all large itemsets of the updated database with exact
    /// support counts.
    pub large: LargeItemsets,
    /// Common per-pass statistics (comparable with Apriori/DHP).
    pub stats: MiningStats,
    /// FUP-specific per-pass detail.
    pub detail: Vec<FupPassDetail>,
}

/// The FUP incremental updater: [`Fup2`] with nothing to delete.
#[derive(Debug, Clone, Default)]
pub struct Fup {
    config: FupConfig,
}

impl Fup {
    /// Creates an updater with the paper's full configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an updater with an explicit configuration.
    pub fn with_config(config: FupConfig) -> Self {
        Fup { config }
    }

    /// Computes `L'`, the large itemsets of `DB ∪ db`.
    ///
    /// * `db` — the original database (the paper's `DB`, `D` transactions),
    /// * `old` — its large itemsets **with support counts**, as produced by
    ///   a previous mining run at the same `minsup`,
    /// * `increment` — the new transactions (the paper's `db`, `d`),
    /// * `minsup` — the unchanged minimum support threshold.
    ///
    /// Fails with [`Error::StaleBaseline`] if `old` was not mined over a
    /// database of exactly `db`'s size.
    pub fn update(
        &self,
        db: &dyn TransactionSource,
        old: &LargeItemsets,
        increment: &dyn TransactionSource,
        minsup: MinSupport,
    ) -> Result<FupOutcome> {
        self.update_with_index(db, old, increment, minsup, &mut IndexSlot::new())
    }

    /// [`update`](Self::update) with a persistent [`IndexSlot`]: when the
    /// vertical backend engages, the slot's held index is reused (extended
    /// with the increment's delta scan — no scan of `db`) if it covers
    /// `db`, and the round's index is stashed back on success so the next
    /// round can extend it again. See the [`crate::vindex`] module docs
    /// for the reuse contract; [`Fup::update`] passes a throwaway slot and
    /// builds per round.
    pub fn update_with_index(
        &self,
        db: &dyn TransactionSource,
        old: &LargeItemsets,
        increment: &dyn TransactionSource,
        minsup: MinSupport,
        slot: &mut IndexSlot,
    ) -> Result<FupOutcome> {
        let mut provider = SlotProvider::new([(slot, db, increment)]);
        let nothing = TransactionDb::new();
        update_round(
            &self.config,
            db,
            old,
            &nothing,
            increment,
            minsup,
            &mut provider,
        )
    }
}

/// The FUP2 incremental updater (insertions + deletions): the entry point
/// of the round loop that takes a delete side.
#[derive(Debug, Clone, Default)]
pub struct Fup2 {
    config: FupConfig,
}

impl Fup2 {
    /// Creates an updater with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an updater with an explicit configuration.
    pub fn with_config(config: FupConfig) -> Self {
        Fup2 { config }
    }

    /// Computes `L'`, the large itemsets of `DB' = (DB − db⁻) ∪ db⁺`.
    ///
    /// * `remainder` — `DB⁻ = DB − db⁻` (e.g. a
    ///   [`SegmentedDb`](fup_tidb::SegmentedDb) with a staged update),
    /// * `old` — the large itemsets of the *original* `DB` (including the
    ///   deleted transactions) with support counts,
    /// * `deleted` — `db⁻`, the removed transactions,
    /// * `inserted` — `db⁺`, the new transactions,
    /// * `minsup` — the unchanged minimum support threshold.
    ///
    /// Fails with [`Error::StaleBaseline`] if `old` was not mined over a
    /// database of `remainder`'s plus `deleted`'s size.
    pub fn update(
        &self,
        remainder: &dyn TransactionSource,
        old: &LargeItemsets,
        deleted: &dyn TransactionSource,
        inserted: &dyn TransactionSource,
        minsup: MinSupport,
    ) -> Result<FupOutcome> {
        self.update_with_index(
            remainder,
            old,
            deleted,
            inserted,
            minsup,
            &mut IndexSlot::new(),
        )
    }

    /// [`update`](Self::update) with a persistent [`IndexSlot`]: an index
    /// held from a previous round is reused (extended with `inserted`'s
    /// delta scan) when it covers `remainder` — which is only the case for
    /// insert-only updates, since deletions shrink and reorder the
    /// remainder; any mismatch rebuilds. The round's index is stashed back
    /// on success. [`Fup2::update`] passes a throwaway slot and builds per
    /// round.
    pub fn update_with_index(
        &self,
        remainder: &dyn TransactionSource,
        old: &LargeItemsets,
        deleted: &dyn TransactionSource,
        inserted: &dyn TransactionSource,
        minsup: MinSupport,
        slot: &mut IndexSlot,
    ) -> Result<FupOutcome> {
        let mut provider = SlotProvider::new([(slot, remainder, inserted)]);
        update_round(
            &self.config,
            remainder,
            old,
            deleted,
            inserted,
            minsup,
            &mut provider,
        )
    }
}

/// One maintenance round: `L'`, the large itemsets of
/// `DB' = remainder ∪ inserted`, from `old` — the large itemsets of
/// `DB = remainder ∪ deleted` with their support counts (see the
/// [module docs](self) for the algorithm).
///
/// `provider` is the source of vertical splits once that backend
/// engages: the session and the one-shot fronts pass a [`SlotProvider`]
/// (one index per tid-range part — per shard for a session, one over
/// `remainder` for the fronts), the cluster a provider whose rows live
/// in its workers. Splits merge by summation and every threshold
/// decision is made on the sums, so the result is provider-independent.
/// The delete side is never indexed — it is counted whole either way.
pub(crate) fn update_round(
    config: &FupConfig,
    remainder: &dyn TransactionSource,
    old: &LargeItemsets,
    deleted: &dyn TransactionSource,
    inserted: &dyn TransactionSource,
    minsup: MinSupport,
    provider: &mut dyn VerticalProvider,
) -> Result<FupOutcome> {
    let start = Instant::now();
    let engine = &config.engine;
    let d_rem = remainder.num_transactions();
    let d_minus = deleted.num_transactions();
    let d_plus = inserted.num_transactions();
    let d_orig = d_rem + d_minus;
    if old.num_transactions() != d_orig {
        return Err(Error::StaleBaseline {
            baseline: old.num_transactions(),
            database: d_orig,
        });
    }
    let n = d_rem + d_plus;
    let insert_only = d_minus == 0;

    let mut stats = MiningStats::new(if insert_only { "fup" } else { "fup2" });
    let mut detail = Vec::new();
    // Nothing changed: the baseline is the answer. Everything was
    // deleted: no itemset has support.
    let unchanged = insert_only && d_plus == 0;
    if unchanged || n == 0 {
        stats.elapsed = start.elapsed();
        let large = if unchanged {
            old.clone()
        } else {
            LargeItemsets::new(0)
        };
        return Ok(FupOutcome {
            large,
            stats,
            detail,
        });
    }
    let mut result = LargeItemsets::new(n);

    // Can `X ∉ L_k` with these delta supports be large in DB'? Lemma 2/5
    // without deletions; otherwise the FUP2 bound from
    // support_D(X) ≤ old_cap = ⌈s×D⌉ − 1 (in i128 to dodge underflow).
    let old_cap = minsup.required_count(d_orig).saturating_sub(1);
    let may_emerge = |sup_minus: u64, sup_plus: u64| -> bool {
        if insert_only {
            minsup.is_large(sup_plus, d_plus)
        } else {
            let bound = i128::from(old_cap) - i128::from(sup_minus) + i128::from(sup_plus);
            bound >= i128::from(minsup.required_count(n))
        }
    };

    // ------------------------- Iteration 1 -------------------------
    // One scan of each small part: per-item counts, plus — insert-only —
    // DHP pair-bucket counts over db⁺ for the iteration-2 filter. Bucket
    // count adapts to the increment: ~one bucket per expected pair
    // occurrence gives strong filtering without allocating a huge table
    // for a small `db⁺`. `MAX_PAIR_BUCKETS` caps it.
    let nbuckets = if config.dhp_hash && insert_only {
        let estimated_pairs = (d_plus.saturating_mul(64)).next_power_of_two();
        estimated_pairs.clamp(1024, MAX_PAIR_BUCKETS) as usize
    } else {
        0
    };
    let (plus_counts, pair_buckets) = count_items_and_pairs(inserted, nbuckets, engine);
    let (minus_counts, _) = count_items_and_pairs(deleted, 0, engine);
    let at = |v: &[u64], item: ItemId| v.get(item.index()).copied().unwrap_or(0);

    // Winners and losers among the old L₁ (Lemma 1). The losers' rows
    // carry into iteration 2 for Lemma 3.
    let (old_1, old_1_sup) = level_table(old, 1);
    let mut pass = FupPassDetail {
        k: 1,
        old_large: old_1.len() as u64,
        ..Default::default()
    };
    let mut lost_at = Vec::new();
    for (i, row) in old_1.rows().enumerate() {
        let sup_new = old_1_sup[i] + at(&plus_counts, row[0]) - at(&minus_counts, row[0]);
        if minsup.is_large(sup_new, n) {
            result.insert(old_1.row_itemset(i), sup_new);
            pass.winners_from_old += 1;
        } else {
            lost_at.push(i);
        }
    }
    let mut losers_prev = old_1.select_rows(&lost_at);

    // C₁. Deletions can promote items that never occur in db⁺, so with
    // them every item of DB⁻ is a candidate and one dense pass over DB⁻
    // (histogrammed where the rows live, if the provider is remote)
    // counts them all; without, only db⁺'s items are.
    let rem_counts: Option<Vec<u64>> = (!insert_only).then(|| {
        provider
            .count_base_dense(engine)
            .unwrap_or_else(|| count_items_and_pairs(remainder, 0, engine).0)
    });
    let universe = rem_counts
        .as_ref()
        .map_or(0, Vec::len)
        .max(plus_counts.len())
        .max(minus_counts.len());
    let mut c1: Vec<(ItemId, u64)> = Vec::new();
    for item in (0..universe as u32).map(ItemId) {
        let (plus, minus) = (at(&plus_counts, item), at(&minus_counts, item));
        let rem = rem_counts.as_ref().map_or(0, |c| at(c, item));
        if (plus == 0 && minus == 0 && rem == 0) || old_1.contains(&[item]) {
            continue;
        }
        pass.candidates_generated += 1;
        if may_emerge(minus, plus) {
            c1.push((item, plus));
        }
    }
    pass.candidates_after_hash = pass.candidates_generated;
    pass.candidates_checked = c1.len() as u64;

    // Supports of C₁ in DB⁻. Insert-only, only the Lemma-2 survivors
    // are counted against DB — not at all when there are none, FUP's
    // headline saving — and a warm provider reads them off its held
    // index (a support is a list length), so DB is scanned only when no
    // index over it is held.
    //
    // Deviation from the paper's letter, kept to its spirit: the paper
    // rewrites DB without the pruned items *during* this scan, because on
    // disk the rewrite rides along for free. In memory a copy is pure
    // overhead, and the `Reduce-DB` keep-set applied at iteration 2
    // (items of `L₂ ∪ C₂` only) strictly subsumes that removal, so the
    // first trimmed copy is built there instead.
    let c1_rem: Vec<u64> = match &rem_counts {
        Some(counts) => c1.iter().map(|&(item, _)| at(counts, item)).collect(),
        None if c1.is_empty() => Vec::new(),
        None => {
            let items: Vec<ItemId> = c1.iter().map(|&(item, _)| item).collect();
            provider
                .count_base_items(&items, engine)
                .unwrap_or_else(|| count_listed_items(remainder, &items, engine))
        }
    };
    for (&(item, plus), rem) in c1.iter().zip(c1_rem) {
        let sup_new = rem + plus;
        if minsup.is_large(sup_new, n) {
            result.insert(Itemset::single(item), sup_new);
            pass.winners_from_new += 1;
        }
    }
    record_pass(&mut stats, &mut detail, pass);

    // --------------------- Iterations k ≥ 2 ------------------------
    // Backend selection input: the raw average transaction length of
    // whichever delta side has data stands in for the frequent-item
    // residue the miners feed `Auto` (the frequent set of DB' is not
    // known here without extra work) — an overestimate on filler-heavy
    // data, so a cold `Auto` pass may engage slightly earlier than the
    // calibrated thresholds intend.
    let residue = if d_plus > 0 {
        plus_counts.iter().sum::<u64>() as f64 / d_plus as f64
    } else {
        minus_counts.iter().sum::<u64>() as f64 / d_minus as f64
    };
    // Trimmed working copies of db⁺ and DB⁻ (hash-tree arm only).
    let mut plus_working: Option<TransactionDb> = None;
    let mut rem_working: Option<TransactionDb> = None;
    let mut sub: Vec<ItemId> = Vec::new();
    let mut k = 2;
    while (old.len_at(k) > 0 || result.len_at(k - 1) > 0) && config.max_k.is_none_or(|m| k <= m) {
        let (old_k, old_sup) = level_table(old, k);
        let mut pass = FupPassDetail {
            k,
            old_large: old_k.len() as u64,
            ..Default::default()
        };
        // Lemma 3: drop old itemsets with a losing (k−1)-subset, looked
        // up in the previous level's sorted loser rows. `lost` masks the
        // rows of old L_k that leave L' this pass; `W` is the rest.
        let mut lost = vec![false; old_k.len()];
        if !losers_prev.is_empty() {
            for (i, row) in old_k.rows().enumerate() {
                lost[i] = (0..k).any(|m| {
                    sub.clear();
                    sub.extend_from_slice(&row[..m]);
                    sub.extend_from_slice(&row[m + 1..]);
                    losers_prev.contains(&sub)
                });
            }
        }
        let w_at: Vec<usize> = (0..old_k.len()).filter(|&i| !lost[i]).collect();
        pass.lemma3_losers = (old_k.len() - w_at.len()) as u64;
        let w = old_k.select_rows(&w_at);

        // C_k = apriori-gen(L'_{k−1}) − L_k: generated flat, then one
        // sorted merge against the old level's rows.
        let mut c = apriori_gen_flat(&level_table(&result, k - 1).0, &engine.gen);
        c.subtract(&old_k);
        pass.candidates_generated = c.len() as u64;

        // DHP hash filter for the size-2 candidates (§3.4; insert-only,
        // see `nbuckets`): a pair's bucket total bounds its db⁺ support,
        // so a light bucket proves Lemma 5's condition fails.
        if k == 2 && nbuckets > 0 {
            c.retain_rows(|row| {
                let b = pair_bucket(row[0], row[1], nbuckets);
                minsup.is_large(pair_buckets[b], d_plus)
            });
        }
        pass.candidates_after_hash = c.len() as u64;

        if w.is_empty() && c.is_empty() {
            // Every old itemset at this level is a Lemma-3 loser.
            record_pass(&mut stats, &mut detail, pass);
            losers_prev = old_k;
            k += 1;
            continue;
        }

        // Vertical arm: the provider's index (or per-shard indexes) over
        // DB⁻ ∪ db⁺ — DB⁻'s tid-lists held from the last round or built
        // here, and only *extended* by db⁺'s delta scan — after which one
        // intersection per itemset yields (support in DB⁻, support in
        // db⁺) split at tid |DB⁻|, with no scan of either source. The
        // pass is `indexed` when the provider engaged at an earlier pass
        // or is warm (every part holds an index aligned with its base):
        // then `Auto` takes this arm whatever the pool size, since the
        // hash-tree arm would scan DB⁻ for survivors the index answers
        // by intersection. Cold, only `C` can force scans of the big
        // remainder (W is counted over the small parts either way), so
        // the thresholds weigh the candidate pool alone: the pruning
        // usually keeps it tiny, and then a tree pass beats a build.
        let use_vertical = engine.backend.resolve(&PassProfile {
            k,
            candidates: c.len(),
            transactions: n,
            residue,
            indexed: provider.warm() || provider.engaged(),
        }) == ResolvedBackend::Vertical;
        if use_vertical {
            provider.engage(old, &result, engine);
            // Trimmed working copies are never consulted again.
            plus_working = None;
            rem_working = None;
        }
        let w_len = w.len();

        // The hash tree over W ∪ C: W's rows, then C's. Either arm counts
        // the delete side through it — whole, see the module docs — and
        // the hash-tree arm the insert side on top; only a vertical
        // insert-only pass needs none.
        let mut tree = (!insert_only || !use_vertical)
            .then(|| HashTree::build_from_rows(k, &[w.flat_items(), c.flat_items()].concat()));
        let minus_k: Vec<u64> = match &mut tree {
            Some(tree) if !insert_only => {
                engine::count_source_into(tree, deleted, engine);
                tree.counts().to_vec()
            }
            _ => vec![0; w_len + c.len()],
        };

        // db⁺ supports of W ∪ C — and, on the vertical arm, the DB⁻
        // supports of all of C from the same intersections.
        let (plus_k, c_rem): (Vec<u64>, Option<Vec<u64>>) = if use_vertical {
            let w_splits = provider.count_split(&w, engine);
            let c_splits = provider.count_split(&c, engine);
            let plus = w_splits.iter().chain(&c_splits).map(|s| s.1).collect();
            (plus, Some(c_splits.iter().map(|s| s.0).collect()))
        } else {
            let tree = tree.as_mut().expect("the hash-tree arm builds W ∪ C");
            let src = plus_working.as_ref().map_or(inserted, |t| t);
            if let Some(trimmed) = count_delta_and_trim(tree, src, k, config) {
                plus_working = Some(trimmed);
            }
            let totals = tree.counts().iter().zip(&minus_k);
            (totals.map(|(total, minus)| total - minus).collect(), None)
        };

        // Winners/losers among W, by exact delta arithmetic (Lemma 4).
        for (j, &i) in w_at.iter().enumerate() {
            let sup_new = old_sup[i] + plus_k[j] - minus_k[j];
            if minsup.is_large(sup_new, n) {
                result.insert(old_k.row_itemset(i), sup_new);
                pass.winners_from_old += 1;
            } else {
                lost[i] = true;
            }
        }

        // Lemma 5 / the FUP2 bound: prune candidates that cannot emerge,
        // leaving a row mask over C. The vertical arm already holds every
        // row's DB⁻ support, but gating them all the same keeps
        // `candidates_checked` — and the result — identical across arms.
        let survivors: Vec<usize> = (0..c.len())
            .filter(|&i| may_emerge(minus_k[w_len + i], plus_k[w_len + i]))
            .collect();
        pass.candidates_checked = survivors.len() as u64;

        // DB⁻ supports of the survivors: read off the splits, or one scan
        // of DB⁻ through a tree over the survivors' rows (skipped when
        // nothing survived) that also applies `Reduce-DB` — no item
        // outside `L_k ∪ C` can be in a large (k+1)-itemset.
        let survivors_rem: Vec<u64> = match c_rem {
            Some(all) => survivors.iter().map(|&i| all[i]).collect(),
            None if survivors.is_empty() => Vec::new(),
            None => {
                let rows = c.select_rows(&survivors);
                let keep = config
                    .reduce_db
                    .then(|| reduce::item_universe(old_k.rows().chain(rows.rows())));
                let mut ctree = HashTree::build_from_table(rows);
                let src = rem_working.as_ref().map_or(remainder, |t| t);
                if let Some(trimmed) =
                    count_base_and_trim(&mut ctree, src, keep.as_ref(), k, engine)
                {
                    rem_working = Some(trimmed);
                }
                ctree.into_counts()
            }
        };
        for (&i, sup_rem) in survivors.iter().zip(survivors_rem) {
            let sup_new = sup_rem + plus_k[w_len + i];
            if minsup.is_large(sup_new, n) {
                result.insert(c.row_itemset(i), sup_new);
                pass.winners_from_new += 1;
            }
        }

        record_pass(&mut stats, &mut detail, pass);
        let lost_at: Vec<usize> = (0..old_k.len()).filter(|&i| lost[i]).collect();
        losers_prev = old_k.select_rows(&lost_at);
        k += 1;
    }

    // The provider's index(es) now cover DB⁻ ∪ db⁺ — exactly the
    // database after this update commits; the next round can extend.
    provider.finish();
    stats.elapsed = start.elapsed();
    Ok(FupOutcome {
        large: result,
        stats,
        detail,
    })
}

/// Level `k` of `large` as one sorted table, with the supports parallel
/// to its rows.
fn level_table(large: &LargeItemsets, k: usize) -> (ItemsetTable, Vec<u64>) {
    let mut level: Vec<(&Itemset, u64)> = large.level(k).collect();
    level.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let mut rows = Vec::with_capacity(level.len() * k);
    for (x, _) in &level {
        rows.extend_from_slice(x.items());
    }
    let supports = level.into_iter().map(|(_, sup)| sup).collect();
    (ItemsetTable::from_flat_rows(k, rows), supports)
}

/// Closes a pass: its [`FupPassDetail`] and the [`PassStats`] row derived
/// from it.
fn record_pass(stats: &mut MiningStats, detail: &mut Vec<FupPassDetail>, pass: FupPassDetail) {
    stats.passes.push(PassStats {
        k: pass.k,
        candidates_generated: pass.candidates_generated,
        candidates_checked: pass.candidates_checked,
        large_found: pass.winners_from_old + pass.winners_from_new,
    });
    detail.push(pass);
}

/// Supports of `items` over one scan of `db`, in `items` order.
fn count_listed_items(
    db: &dyn TransactionSource,
    items: &[ItemId],
    engine: &EngineConfig,
) -> Vec<u64> {
    // Items are dense, so the candidate index is a flat array
    // (u32::MAX = not a candidate) — no hashing in the hot loop.
    let max_item = items.iter().map(|i| i.index()).max().unwrap_or(0);
    let mut index_of: Vec<u32> = vec![u32::MAX; max_item + 1];
    for (idx, item) in items.iter().enumerate() {
        index_of[item.index()] = idx as u32;
    }
    engine::merge_dense(engine::scan_fold(
        db,
        engine,
        || vec![0u64; items.len()],
        |counts: &mut Vec<u64>, _chunk, t| {
            for &item in t {
                if let Some(&idx) = index_of.get(item.index()) {
                    if idx != u32::MAX {
                        counts[idx as usize] += 1;
                    }
                }
            }
        },
    ))
}

/// One engine pass of `tree` (`W ∪ C`) over the insert side, adding into
/// the tree's counts. Under `Reduce-db` it also returns the trimmed
/// working copy the next iteration scans instead — kept per chunk, so
/// the copy is deterministic at any thread count.
fn count_delta_and_trim(
    tree: &mut HashTree,
    src: &dyn TransactionSource,
    k: usize,
    config: &FupConfig,
) -> Option<TransactionDb> {
    let reduce = config.reduce_db;
    let view = tree.view();
    let folds = engine::scan_fold(
        src,
        &config.engine,
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
    k: usize,
    engine: &EngineConfig,
) -> Option<TransactionDb> {
    let view = tree.view();
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

/// Convenience: mines the baseline with Apriori, then maintains it with
/// FUP — used pervasively in tests and examples.
pub fn mine_then_update(
    db: &dyn TransactionSource,
    increment: &dyn TransactionSource,
    minsup: MinSupport,
    config: FupConfig,
) -> Result<FupOutcome> {
    let baseline = fup_mining::Apriori::new().run(db, minsup).large;
    Fup::with_config(config).update(db, &baseline, increment, minsup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fup_mining::apriori::mine_naive;
    use fup_mining::Apriori;
    use fup_tidb::source::ChainSource;
    use fup_tidb::{SegmentedDb, Transaction, TransactionDb, UpdateBatch};

    fn db(rows: &[&[u32]]) -> TransactionDb {
        TransactionDb::from_transactions(
            rows.iter()
                .map(|r| Transaction::from_items(r.iter().copied())),
        )
    }

    fn s(items: &[u32]) -> Itemset {
        Itemset::from_items(items.iter().copied())
    }

    /// The central correctness property: FUP(DB, L, db) equals a full
    /// re-mine of DB ∪ db.
    fn assert_fup_matches_remine(
        original: &TransactionDb,
        increment: &TransactionDb,
        minsup: MinSupport,
        config: FupConfig,
    ) -> FupOutcome {
        let outcome = mine_then_update(original, increment, minsup, config).unwrap();
        let whole = ChainSource::new(original, increment);
        let remined = Apriori::new().run(&whole, minsup).large;
        assert!(
            outcome.large.same_itemsets(&remined),
            "FUP disagrees with re-mining: {:?}",
            outcome.large.diff(&remined)
        );
        outcome
    }

    #[test]
    fn paper_example_1_first_iteration() {
        // D = 1000, d = 100, s = 3%. I1, I2 large with supports 32, 31.
        // In db: I1 appears 4×, I2 1×, I3 6×, I4 2×.
        // Expected: I1 stays (36 ≥ 33), I2 loses (32 < 33), I4 pruned
        // from C1 (2 < 3), I3 checked against DB (28 there) → 34 ≥ 33.
        let mut original = TransactionDb::new();
        // 32 transactions with I1, 31 with I2, 28 with I3; pad to 1000.
        for i in 0..1000u32 {
            let mut items = vec![900 + (i % 50)]; // filler items, never large
            if i < 32 {
                items.push(1);
            }
            if i < 31 {
                items.push(2);
            }
            if i < 28 {
                items.push(3);
            }
            original.push(Transaction::from_items(items));
        }
        let mut increment = TransactionDb::new();
        for i in 0..100u32 {
            let mut items = vec![800 + (i % 50)];
            if i < 4 {
                items.push(1);
            }
            if i < 1 {
                items.push(2);
            }
            if i < 6 {
                items.push(3);
            }
            if i < 2 {
                items.push(4);
            }
            increment.push(Transaction::from_items(items));
        }
        let minsup = MinSupport::percent(3);
        let baseline = Apriori::new().run(&original, minsup).large;
        assert_eq!(baseline.support(&s(&[1])), Some(32));
        assert_eq!(baseline.support(&s(&[2])), Some(31));
        assert_eq!(baseline.support(&s(&[3])), None); // 28 < 30

        let out = Fup::new()
            .update(&original, &baseline, &increment, minsup)
            .unwrap();
        assert_eq!(out.large.support(&s(&[1])), Some(36));
        assert_eq!(out.large.support(&s(&[2])), None); // loser
        assert_eq!(out.large.support(&s(&[3])), Some(34)); // new winner
        assert_eq!(out.large.support(&s(&[4])), None); // pruned by Lemma 2

        let d1 = &out.detail[0];
        assert_eq!(d1.winners_from_old, 1);
        assert_eq!(d1.winners_from_new, 1);
        // I4 was generated as a candidate but pruned before the DB scan.
        assert!(d1.candidates_checked < d1.candidates_generated);
    }

    #[test]
    fn equivalence_on_small_handcrafted_updates() {
        let original = db(&[
            &[1, 2, 3],
            &[1, 2],
            &[2, 3, 4],
            &[1, 3, 4],
            &[2, 4],
            &[1, 2, 3, 4],
        ]);
        let increment = db(&[&[1, 2, 3, 4], &[4, 5], &[1, 5], &[2, 3]]);
        for pct in [10, 25, 40, 60, 90] {
            assert_fup_matches_remine(
                &original,
                &increment,
                MinSupport::percent(pct),
                FupConfig::full(),
            );
            assert_fup_matches_remine(
                &original,
                &increment,
                MinSupport::percent(pct),
                FupConfig::bare(),
            );
        }
    }

    #[test]
    fn equivalence_against_naive_reference() {
        let original = db(&[&[1, 2, 3], &[2, 3], &[1, 3], &[3, 4]]);
        let increment = db(&[&[1, 2], &[1, 2, 3], &[4]]);
        let minsup = MinSupport::percent(40);
        let out = mine_then_update(&original, &increment, minsup, FupConfig::full()).unwrap();
        let whole = ChainSource::new(&original, &increment);
        let naive = mine_naive(&whole, minsup);
        assert!(
            out.large.same_itemsets(&naive),
            "{:?}",
            out.large.diff(&naive)
        );
    }

    #[test]
    fn empty_increment_returns_baseline() {
        let original = db(&[&[1, 2], &[1, 2], &[3]]);
        let increment = db(&[]);
        let minsup = MinSupport::percent(50);
        let baseline = Apriori::new().run(&original, minsup).large;
        let out = Fup::new()
            .update(&original, &baseline, &increment, minsup)
            .unwrap();
        assert!(out.large.same_itemsets(&baseline));
        assert_eq!(out.stats.num_passes(), 0);
    }

    #[test]
    fn empty_original_database() {
        let original = db(&[]);
        let increment = db(&[&[1, 2], &[1, 2], &[2, 3]]);
        let minsup = MinSupport::percent(50);
        assert_fup_matches_remine(&original, &increment, minsup, FupConfig::full());
    }

    #[test]
    fn stale_baseline_is_rejected() {
        let original = db(&[&[1], &[2]]);
        let increment = db(&[&[3]]);
        let wrong = LargeItemsets::new(99);
        let err = Fup::new()
            .update(&original, &wrong, &increment, MinSupport::percent(10))
            .unwrap_err();
        assert!(matches!(
            err,
            Error::StaleBaseline {
                baseline: 99,
                database: 2
            }
        ));
    }

    #[test]
    fn increment_larger_than_database() {
        // §4.4/Figure 4 territory: d ≫ D must still be exact.
        let original = db(&[&[1, 2], &[2, 3]]);
        let increment = db(&[
            &[1, 2, 3],
            &[1, 2],
            &[1, 3],
            &[2, 3],
            &[1, 2, 3],
            &[3, 4],
            &[1, 4],
            &[2, 4],
        ]);
        for pct in [20, 40, 60] {
            assert_fup_matches_remine(
                &original,
                &increment,
                MinSupport::percent(pct),
                FupConfig::full(),
            );
        }
    }

    #[test]
    fn deep_itemsets_are_maintained() {
        // A 4-itemset that only becomes large thanks to the increment.
        let original = db(&[
            &[1, 2, 3, 4],
            &[1, 2, 3, 4],
            &[5, 6],
            &[5, 6],
            &[1, 2],
            &[3, 4],
        ]);
        let increment = db(&[&[1, 2, 3, 4], &[1, 2, 3, 4], &[5, 6]]);
        let minsup = MinSupport::ratio(4, 9); // 4 of 9
        let out = assert_fup_matches_remine(&original, &increment, minsup, FupConfig::full());
        assert_eq!(out.large.support(&s(&[1, 2, 3, 4])), Some(4));
    }

    #[test]
    fn losers_cascade_via_lemma3() {
        // {1,2} is large initially; the increment floods unrelated
        // transactions so 1 itself drops below threshold. The 2-itemset
        // must be filtered by Lemma 3 without a candidate scan.
        let original = db(&[&[1, 2], &[1, 2], &[3], &[3]]);
        let increment = db(&[&[3], &[3], &[3], &[3]]);
        let minsup = MinSupport::percent(50);
        let out = assert_fup_matches_remine(&original, &increment, minsup, FupConfig::full());
        assert!(!out.large.contains(&s(&[1, 2])));
        let d2 = out.detail.iter().find(|d| d.k == 2).unwrap();
        assert_eq!(d2.lemma3_losers, 1);
        assert_eq!(d2.winners_from_old, 0);
    }

    #[test]
    fn lemma3_and_the_old_level_merge_account_exactly_at_k3() {
        use fup_mining::CountingBackend;
        // D = 10 at 40 % (4 rows); DB' = 15 rows (6). Old L₂ is every
        // pair of {1,2,3,4}, old L₃ every triple, old L₄ {1,2,3,4}.
        let mut rows: Vec<&[u32]> = vec![&[1, 2, 3, 4]; 4];
        rows.extend([&[1, 2, 4][..], &[7], &[7], &[7], &[10], &[11]]);
        let original = db(&rows);
        let increment = db(&[
            &[1, 2, 4, 7],
            &[1, 2, 4, 7],
            &[1, 3, 4],
            &[1, 3, 4],
            &[7, 8],
        ]);
        let minsup = MinSupport::percent(40);
        let detail =
            |k, old_large, lemma3, old_wins, generated, hashed, checked, new_wins| FupPassDetail {
                k,
                old_large,
                lemma3_losers: lemma3,
                winners_from_old: old_wins,
                candidates_generated: generated,
                candidates_after_hash: hashed,
                candidates_checked: checked,
                winners_from_new: new_wins,
            };
        let expected = vec![
            // 1–4 stay; 7 (3 + 3) emerges; 8 fails Lemma 2.
            detail(1, 4, 0, 4, 2, 2, 1, 1),
            // {2,3} loses (4 < 6). apriori-gen(L'₁) yields all 10 pairs of
            // {1,2,3,4,7}; the merge removes the 6 of old L₂, leaving the
            // four pairs with 7, and {3,7} (no db⁺ support) fails the
            // bucket filter.
            detail(2, 6, 0, 5, 4, 3, 3, 0),
            // {1,2,3} and {2,3,4} lose to {2,3} by Lemma 3; apriori-gen
            // regenerates {1,2,4} and {1,3,4}, and the merge removes both.
            detail(3, 4, 2, 2, 0, 0, 0, 0),
            // {1,2,3,4} loses to {1,2,3}; nothing is generated.
            detail(4, 1, 1, 0, 0, 0, 0, 0),
        ];
        for backend in [CountingBackend::HashTree, CountingBackend::Vertical] {
            let config = FupConfig {
                engine: EngineConfig::default().with_backend(backend),
                ..FupConfig::full()
            };
            let out = assert_fup_matches_remine(&original, &increment, minsup, config);
            assert_eq!(out.detail, expected, "{backend:?}");
            assert_eq!(out.large.support(&s(&[1, 3, 4])), Some(6));
            assert!(!out.large.contains(&s(&[2, 3])));
        }
    }

    #[test]
    fn vertical_backend_matches_remine_and_hash_tree() {
        use fup_mining::{CountingBackend, EngineConfig};
        let original = db(&[
            &[1, 2, 3, 4],
            &[1, 2, 3],
            &[2, 3, 4],
            &[1, 3, 4],
            &[2, 4],
            &[1, 2, 4, 5],
            &[5, 6],
        ]);
        let increment = db(&[&[1, 2, 3, 4], &[4, 5, 6], &[1, 5], &[2, 3, 6]]);
        for pct in [15, 30, 50] {
            let minsup = MinSupport::percent(pct);
            let vertical_cfg = FupConfig {
                engine: EngineConfig::default().with_backend(CountingBackend::Vertical),
                ..FupConfig::full()
            };
            let out = assert_fup_matches_remine(&original, &increment, minsup, vertical_cfg);
            // And the per-pass statistics agree with the hash-tree path.
            let hash = mine_then_update(&original, &increment, minsup, FupConfig::full()).unwrap();
            assert_eq!(out.detail, hash.detail, "minsup {pct}%");
        }
    }

    #[test]
    fn reduce_db_configurations_agree() {
        let original = db(&[
            &[1, 2, 3, 4, 5],
            &[1, 2, 3],
            &[2, 3, 4],
            &[1, 4, 5],
            &[2, 5],
            &[1, 2, 4, 5],
        ]);
        let increment = db(&[&[1, 2, 3], &[3, 4, 5], &[1, 2, 3, 4, 5], &[2, 3]]);
        for pct in [20, 35, 50] {
            let minsup = MinSupport::percent(pct);
            let full = mine_then_update(&original, &increment, minsup, FupConfig::full()).unwrap();
            let bare = mine_then_update(&original, &increment, minsup, FupConfig::bare()).unwrap();
            assert!(
                full.large.same_itemsets(&bare.large),
                "minsup {pct}%: {:?}",
                full.large.diff(&bare.large)
            );
        }
    }

    #[test]
    fn no_db_scan_when_no_candidates_survive() {
        // All increment items already large; C1 empty and C2 pruned to
        // nothing → with trimming disabled, DB is never scanned after
        // pass 1.
        let original = db(&[&[1, 2], &[1, 2], &[1, 2], &[1, 2]]);
        let increment = db(&[&[1, 2]]);
        let minsup = MinSupport::percent(80);
        let baseline = Apriori::new().run(&original, minsup).large;
        let scans_before = original.metrics().full_scans();
        let out = Fup::with_config(FupConfig::bare())
            .update(&original, &baseline, &increment, minsup)
            .unwrap();
        // No candidates at any level → zero additional DB scans.
        assert_eq!(original.metrics().full_scans(), scans_before);
        assert!(out.large.contains(&s(&[1, 2])));
        assert_eq!(out.large.support(&s(&[1, 2])), Some(5));
    }

    #[test]
    fn max_k_limits_iterations() {
        let original = db(&[&[1, 2, 3], &[1, 2, 3]]);
        let increment = db(&[&[1, 2, 3]]);
        let minsup = MinSupport::percent(100);
        let baseline = Apriori::new().run(&original, minsup).large;
        let out = Fup::with_config(FupConfig {
            max_k: Some(2),
            ..FupConfig::full()
        })
        .update(&original, &baseline, &increment, minsup)
        .unwrap();
        assert_eq!(out.large.max_size(), 2);
    }

    #[test]
    fn detail_candidate_accounting_is_consistent() {
        let original = db(&[&[1, 2, 3], &[1, 2], &[2, 3], &[1, 3], &[4, 5]]);
        let increment = db(&[&[4, 5], &[4, 5], &[1, 2, 3]]);
        let out = mine_then_update(
            &original,
            &increment,
            MinSupport::percent(40),
            FupConfig::full(),
        )
        .unwrap();
        for d in &out.detail {
            assert!(d.candidates_after_hash <= d.candidates_generated, "{d:?}");
            assert!(d.candidates_checked <= d.candidates_after_hash, "{d:?}");
            assert!(d.winners_from_new <= d.candidates_checked, "{d:?}");
            assert!(d.winners_from_old + d.lemma3_losers <= d.old_large, "{d:?}");
        }
        // Stats mirror detail.
        assert_eq!(out.stats.num_passes(), out.detail.len());
    }

    fn tx(items: &[u32]) -> Transaction {
        Transaction::from_items(items.iter().copied())
    }

    /// Drives a staged update through FUP2 and cross-checks against a full
    /// re-mine of the updated database.
    fn check_fup2(
        initial: Vec<Transaction>,
        delete_idx: &[usize],
        inserts: Vec<Transaction>,
        minsup: MinSupport,
        config: FupConfig,
    ) -> FupOutcome {
        let mut store = SegmentedDb::new();
        let tids = store.append_all(initial);
        let baseline = Apriori::new().run(&store, minsup).large;
        let batch = UpdateBatch {
            inserts,
            deletes: delete_idx.iter().map(|&i| tids[i]).collect(),
        };
        let staged = store.stage(batch).unwrap();
        let out = Fup2::with_config(config)
            .update(
                &store,
                &baseline,
                staged.deleted(),
                staged.inserted(),
                minsup,
            )
            .unwrap();
        // Re-mine the committed database for the ground truth.
        let updated = ChainSource::new(&store, staged.inserted());
        let remined = Apriori::new().run(&updated, minsup).large;
        assert!(
            out.large.same_itemsets(&remined),
            "FUP2 disagrees with re-mining: {:?}",
            out.large.diff(&remined)
        );
        store.commit(staged);
        out
    }

    #[test]
    fn insert_only_matches_fup_semantics() {
        check_fup2(
            vec![tx(&[1, 2, 3]), tx(&[1, 2]), tx(&[2, 3]), tx(&[3, 4])],
            &[],
            vec![tx(&[1, 2, 3]), tx(&[1, 4])],
            MinSupport::percent(40),
            FupConfig::full(),
        );
    }

    #[test]
    fn delete_only_can_promote_itemsets() {
        // {4,5} has support 2 of 6 (33%) — small at 40%. Deleting two
        // transactions without {4,5} lifts it to 2 of 4 (50%).
        let out = check_fup2(
            vec![
                tx(&[4, 5]),
                tx(&[4, 5]),
                tx(&[1, 2]),
                tx(&[1, 2]),
                tx(&[1, 3]),
                tx(&[2, 3]),
            ],
            &[4, 5],
            vec![],
            MinSupport::percent(40),
            FupConfig::full(),
        );
        assert_eq!(out.large.support(&s(&[4, 5])), Some(2));
    }

    #[test]
    fn delete_only_can_demote_itemsets() {
        // Deleting the transactions that carried {1,2} kills it.
        let out = check_fup2(
            vec![tx(&[1, 2]), tx(&[1, 2]), tx(&[3, 4]), tx(&[3, 4])],
            &[0, 1],
            vec![],
            MinSupport::percent(50),
            FupConfig::full(),
        );
        assert!(!out.large.contains(&s(&[1, 2])));
        assert_eq!(out.large.support(&s(&[3, 4])), Some(2));
    }

    #[test]
    fn mixed_insert_delete() {
        for pct in [25, 40, 60] {
            check_fup2(
                vec![
                    tx(&[1, 2, 3]),
                    tx(&[1, 2]),
                    tx(&[2, 3, 4]),
                    tx(&[1, 3, 4]),
                    tx(&[2, 4]),
                    tx(&[5, 6]),
                ],
                &[1, 4],
                vec![tx(&[5, 6]), tx(&[5, 6, 1]), tx(&[1, 2, 3, 4])],
                MinSupport::percent(pct),
                FupConfig::full(),
            );
        }
    }

    #[test]
    fn mixed_update_bare_config() {
        check_fup2(
            vec![tx(&[1, 2, 3]), tx(&[2, 3]), tx(&[1, 3]), tx(&[3, 4])],
            &[3],
            vec![tx(&[1, 2]), tx(&[1, 2, 3])],
            MinSupport::percent(40),
            FupConfig::bare(),
        );
    }

    #[test]
    fn vertical_backend_matches_remine_on_mixed_updates() {
        use fup_mining::CountingBackend;
        let vertical_cfg = || FupConfig {
            engine: EngineConfig::default().with_backend(CountingBackend::Vertical),
            ..FupConfig::full()
        };
        for pct in [25, 40, 60] {
            // Mixed insert + delete.
            check_fup2(
                vec![
                    tx(&[1, 2, 3]),
                    tx(&[1, 2]),
                    tx(&[2, 3, 4]),
                    tx(&[1, 3, 4]),
                    tx(&[2, 4]),
                    tx(&[5, 6]),
                ],
                &[1, 4],
                vec![tx(&[5, 6]), tx(&[5, 6, 1]), tx(&[1, 2, 3, 4])],
                MinSupport::percent(pct),
                vertical_cfg(),
            );
        }
        // Delete-only (db⁺ empty: the index covers DB⁻ alone).
        check_fup2(
            vec![
                tx(&[4, 5]),
                tx(&[4, 5]),
                tx(&[1, 2]),
                tx(&[1, 2]),
                tx(&[1, 3]),
                tx(&[2, 3]),
            ],
            &[4, 5],
            vec![],
            MinSupport::percent(40),
            vertical_cfg(),
        );
        // Insert-only (FUP's stronger Lemma-5 gate applies).
        check_fup2(
            vec![tx(&[1, 2, 3]), tx(&[1, 2]), tx(&[2, 3]), tx(&[3, 4])],
            &[],
            vec![tx(&[1, 2, 3]), tx(&[1, 4])],
            MinSupport::percent(40),
            vertical_cfg(),
        );
    }

    #[test]
    fn delete_everything_yields_empty() {
        let mut store = SegmentedDb::new();
        let tids = store.append_all(vec![tx(&[1, 2]), tx(&[1, 2])]);
        let minsup = MinSupport::percent(50);
        let baseline = Apriori::new().run(&store, minsup).large;
        let staged = store.stage(UpdateBatch::delete_only(tids)).unwrap();
        let out = Fup2::new()
            .update(
                &store,
                &baseline,
                staged.deleted(),
                staged.inserted(),
                minsup,
            )
            .unwrap();
        assert!(out.large.is_empty());
        assert_eq!(out.large.num_transactions(), 0);
    }

    #[test]
    fn noop_update_returns_baseline() {
        let mut store = SegmentedDb::new();
        store.append_all(vec![tx(&[1, 2]), tx(&[2, 3])]);
        let minsup = MinSupport::percent(50);
        let baseline = Apriori::new().run(&store, minsup).large;
        let staged = store.stage(UpdateBatch::default()).unwrap();
        let out = Fup2::new()
            .update(
                &store,
                &baseline,
                staged.deleted(),
                staged.inserted(),
                minsup,
            )
            .unwrap();
        assert!(out.large.same_itemsets(&baseline));
        assert_eq!(out.stats.num_passes(), 0);
    }

    #[test]
    fn stale_baseline_rejected() {
        let store = SegmentedDb::from_transactions(vec![tx(&[1])]);
        let empty = TransactionDb::new();
        let wrong = LargeItemsets::new(7);
        let err = Fup2::new()
            .update(&store, &wrong, &empty, &empty, MinSupport::percent(10))
            .unwrap_err();
        assert!(matches!(
            err,
            Error::StaleBaseline {
                baseline: 7,
                database: 1
            }
        ));
    }

    #[test]
    fn deep_itemsets_with_mixed_updates() {
        check_fup2(
            vec![
                tx(&[1, 2, 3, 4]),
                tx(&[1, 2, 3, 4]),
                tx(&[1, 2, 3]),
                tx(&[9, 8]),
                tx(&[9, 8, 7]),
            ],
            &[2],
            vec![tx(&[1, 2, 3, 4]), tx(&[9, 8, 7]), tx(&[7, 8])],
            MinSupport::percent(40),
            FupConfig::full(),
        );
    }

    #[test]
    fn deletions_that_shift_threshold_boundary() {
        // Threshold boundary: 3 of 10 at 30%; delete 3 → 3 of 7 (42.9%) vs
        // required ⌈2.1⌉ = 3 — stays large; items at 2 of 10 → 2 of 7 vs 3
        // — still small.
        let mut initial = vec![tx(&[1]), tx(&[1]), tx(&[1]), tx(&[2]), tx(&[2])];
        for _ in 0..5 {
            initial.push(tx(&[99]));
        }
        check_fup2(
            initial,
            &[7, 8, 9],
            vec![],
            MinSupport::percent(30),
            FupConfig::full(),
        );
    }
}
