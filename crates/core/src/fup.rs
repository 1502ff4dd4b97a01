//! The maintenance round: FUP2 (§5 of the paper), with FUP (§3) as its
//! `db⁻ = ∅` case.
//!
//! One update turns `DB` into `DB' = (DB − db⁻) ∪ db⁺` (a modification is
//! a delete plus an insert); `DB⁻ = DB − db⁻` is the *remainder*. Each
//! iteration `k` of `update_round` — the only round loop in the crate,
//! behind both [`Fup`] and [`Fup2`] and every session and cluster commit
//! — counts the small parts for everything and `DB⁻` for as little as
//! possible:
//!
//! 1. **Filter the old large itemsets.** `W = L_k` minus the Lemma-3
//!    losers (supersets of (k−1)-losers need no count at all). For
//!    `X ∈ W` the new support is exact arithmetic over the small parts:
//!    `X.support' = X.support_D − X.support_{db⁻} + X.support_{db⁺}` — no
//!    count in `DB⁻` — and Lemma 1/4 decides winners and losers exactly.
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
//! counts `db⁺` first and `DB` for the Lemma-2 survivors alone (not at
//! all when there are none), where a round with deletions needs the full
//! item histogram of `DB⁻` because a deletion can promote an item that
//! `db⁺` never mentions; and DHP-style pair hashing over the increment
//! (§3.4) thins `C₂` before it is ever counted — a bucket total bounds
//! `support_{db⁺}`, which says nothing once `db⁻` also moves the bound.
//! Those are the only differences; the input decides them, and the run
//! is labelled `"fup"` without deletions and `"fup2"` with.
//!
//! **One support oracle.** Every level an iteration works on is a flat,
//! sorted [`ItemsetTable`] (`W` and the losers are row masks over the old
//! `L_k`), and every count comes from one provider, asked in the paper's
//! order: `delta(W ∪ C)`, then `base(survivors)` (see `crate::supports`;
//! the caller's [`CountingBackend`] picks the provider once).

use crate::config::FupConfig;
use crate::error::{Error, Result};
use crate::supports::{AutoSupports, Sides, SplitSupports, Supports};
use crate::vindex::{IndexSlot, SlotProvider};
use fup_mining::engine::pair_bucket;
use fup_mining::gen::apriori_gen_flat;
use fup_mining::{
    CountingBackend, Itemset, ItemsetTable, LargeItemsets, MinSupport, MiningStats, PassStats,
};
use fup_tidb::{ItemId, TransactionDb, TransactionSource};
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
    /// `db`, and after the round the slot covers `db ∪ increment` (or
    /// holds nothing), so the next round can extend it again. See the
    /// [`crate::vindex`] module docs for the reuse contract; [`Fup::update`]
    /// passes a throwaway slot and builds per round.
    pub fn update_with_index(
        &self,
        db: &dyn TransactionSource,
        old: &LargeItemsets,
        increment: &dyn TransactionSource,
        minsup: MinSupport,
        slot: &mut IndexSlot,
    ) -> Result<FupOutcome> {
        let fup2 = Fup2::with_config(self.config.clone());
        fup2.update_with_index(db, old, &TransactionDb::new(), increment, minsup, slot)
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
    /// remainder; any mismatch rebuilds. The slot is settled as the
    /// round's decision: a successful round commits, a failed one aborts.
    /// [`Fup2::update`] passes a throwaway slot and builds per round.
    pub fn update_with_index(
        &self,
        remainder: &dyn TransactionSource,
        old: &LargeItemsets,
        deleted: &dyn TransactionSource,
        inserted: &dyn TransactionSource,
        minsup: MinSupport,
        slot: &mut IndexSlot,
    ) -> Result<FupOutcome> {
        let sides = Sides {
            remainder: remainder.num_transactions(),
            deleted,
            inserted,
            engine: &self.config.engine,
        };
        let slots = SlotProvider::new(remainder, sides, [(&mut *slot, remainder, inserted)]);
        let outcome = update_local(&self.config, old, minsup, slots);
        let engine = &self.config.engine;
        slot.settle(outcome.is_ok(), inserted, !deleted.is_empty(), engine);
        outcome
    }
}

/// An in-process round over `slots`' sources: the configured backend
/// picks the provider once — [`ScanSupports`](crate::supports::ScanSupports)
/// for `HashTree`, the slots for `Vertical`, and [`AutoSupports`] over
/// both for `Auto`. The caller settles the slots at the round's decision.
pub(crate) fn update_local(
    config: &FupConfig,
    old: &LargeItemsets,
    minsup: MinSupport,
    slots: SlotProvider<'_>,
) -> Result<FupOutcome> {
    let mut supports: Box<dyn Supports + '_> = match config.engine.backend {
        CountingBackend::HashTree => Box::new(slots.scan(config.reduce_db)),
        CountingBackend::Vertical => Box::new(SplitSupports::new(slots)),
        CountingBackend::Auto => Box::new(AutoSupports::new(slots, config.reduce_db)),
    };
    update_round(config, old, minsup, supports.as_mut())
}

/// One maintenance round: `L'`, the large itemsets of
/// `DB' = DB⁻ ∪ db⁺`, from `old` — the large itemsets of
/// `DB = DB⁻ ∪ db⁻` with their support counts (see the
/// [module docs](self) for the algorithm). Every count comes from
/// `supports`, which also knows the round's sizes; every threshold
/// decision is made here, on its sums, so the result does not depend on
/// the provider.
pub(crate) fn update_round(
    config: &FupConfig,
    old: &LargeItemsets,
    minsup: MinSupport,
    supports: &mut dyn Supports,
) -> Result<FupOutcome> {
    let start = Instant::now();
    let (d_rem, d_minus, d_plus) = supports.sides().sizes();
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
        let large = match unchanged {
            true => old.clone(),
            false => LargeItemsets::new(0),
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
    // Item counts of the small parts, and (insert-only) DHP pair buckets
    // over db⁺, about one per expected pair, up to `MAX_PAIR_BUCKETS`.
    let nbuckets = (config.dhp_hash && insert_only)
        .then(|| d_plus.saturating_mul(64).next_power_of_two())
        .map_or(0, |pairs| pairs.clamp(1024, MAX_PAIR_BUCKETS) as usize);
    let (plus_counts, pair_buckets, minus_counts) = supports.delta_items(nbuckets);
    let at = |v: &[u64], item: ItemId| v.get(item.index()).copied().unwrap_or(0);

    // Winners and losers among the old L₁ (Lemma 1). The losers' rows
    // carry into iteration 2 for Lemma 3.
    let (old_1, old_1_sup) = level_table(old, 1);
    let mut pass = FupPassDetail::default();
    (pass.k, pass.old_large) = (1, old_1.len() as u64);
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

    // C₁. A deletion can promote an item db⁺ never mentions, so with
    // deletions every item of DB⁻ is a candidate (one dense pass);
    // without, only db⁺'s items are, and only the Lemma-2 survivors are
    // counted in DB⁻ — not at all when none survive.
    let rem_counts = (!insert_only).then(|| supports.base_dense());
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
    let c1_rem: Vec<u64> = match &rem_counts {
        Some(counts) => c1.iter().map(|&(item, _)| at(counts, item)).collect(),
        None if c1.is_empty() => Vec::new(),
        None => supports.base_items(&c1.iter().map(|&(item, _)| item).collect::<Vec<_>>()),
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
    // Old L₁ ∪ L'₁: every item a row of W or of C_k can hold.
    let mut l1: Vec<ItemId> = (old.level(1).chain(result.level(1)))
        .map(|(x, _)| x.items()[0])
        .collect();
    l1.sort_unstable();
    l1.dedup();
    let mut k = 2;
    while (old.len_at(k) > 0 || result.len_at(k - 1) > 0) && config.max_k.is_none_or(|m| k <= m) {
        let (old_k, old_sup) = level_table(old, k);
        let mut pass = FupPassDetail::default();
        (pass.k, pass.old_large) = (k, old_k.len() as u64);
        // `lost` masks the rows of old L_k that leave L' this pass, the
        // Lemma-3 losers first; `W` is the rest.
        let mut lost = lemma3_losers(&old_k, &losers_prev);
        let w_at: Vec<usize> = (0..old_k.len()).filter(|&i| !lost[i]).collect();
        pass.lemma3_losers = (old_k.len() - w_at.len()) as u64;
        let w = old_k.select_rows(&w_at);

        // C_k = apriori-gen(L'_{k−1}) − L_k: generated flat, then one
        // sorted merge against the old level's rows.
        let mut c = apriori_gen_flat(&level_table(&result, k - 1).0, &config.engine.gen);
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

        // (support in db⁻, support in db⁺) of every row of W, then of C;
        // nothing to count when every old itemset here is a Lemma-3 loser.
        let delta = match w.is_empty() && c.is_empty() {
            true => Vec::new(),
            false => supports.delta(&l1, &w, &c),
        };
        let w_len = w.len();

        // Winners/losers among W, by exact delta arithmetic (Lemma 4).
        for (j, &i) in w_at.iter().enumerate() {
            let sup_new = old_sup[i] + delta[j].1 - delta[j].0;
            if minsup.is_large(sup_new, n) {
                result.insert(old_k.row_itemset(i), sup_new);
                pass.winners_from_old += 1;
            } else {
                lost[i] = true;
            }
        }

        // Lemma 5 / the FUP2 bound prunes the candidates that cannot
        // emerge; only the survivors are counted in DB⁻.
        let survivors: Vec<usize> = (0..c.len())
            .filter(|&i| may_emerge(delta[w_len + i].0, delta[w_len + i].1))
            .collect();
        pass.candidates_checked = survivors.len() as u64;
        if !survivors.is_empty() {
            let base = supports.base(&old_k, &c, &survivors);
            for (&i, sup_rem) in survivors.iter().zip(base) {
                let sup_new = sup_rem + delta[w_len + i].1;
                if minsup.is_large(sup_new, n) {
                    result.insert(c.row_itemset(i), sup_new);
                    pass.winners_from_new += 1;
                }
            }
        }

        record_pass(&mut stats, &mut detail, pass);
        let lost_at: Vec<usize> = (0..old_k.len()).filter(|&i| lost[i]).collect();
        losers_prev = old_k.select_rows(&lost_at);
        k += 1;
    }

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

/// Lemma 3: `true` for each row of `old_k` with a (k−1)-subset among
/// `losers`, the previous level's sorted loser rows.
fn lemma3_losers(old_k: &ItemsetTable, losers: &ItemsetTable) -> Vec<bool> {
    let mut sub = Vec::new();
    (old_k.rows())
        .map(|row| {
            !losers.is_empty()
                && (0..row.len()).any(|m| {
                    sub.clear();
                    sub.extend_from_slice(&row[..m]);
                    sub.extend_from_slice(&row[m + 1..]);
                    losers.contains(&sub)
                })
        })
        .collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use fup_mining::apriori::mine_naive;
    use fup_mining::Apriori;
    use fup_mining::EngineConfig;
    use fup_tidb::source::ChainSource;
    use fup_tidb::{SegmentedDb, Transaction, TransactionDb, UpdateBatch};

    /// Mines the baseline with Apriori, then maintains it with FUP.
    fn mine_then_update(
        db: &dyn TransactionSource,
        increment: &dyn TransactionSource,
        minsup: MinSupport,
        config: FupConfig,
    ) -> Result<FupOutcome> {
        let baseline = Apriori::new().run(db, minsup).large;
        Fup::with_config(config).update(db, &baseline, increment, minsup)
    }

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

    /// Plants, for each `(kept, deleted, inserted)` group `g`, that many
    /// rows holding exactly the triple `{3g, 3g+1, 3g+2}` in `DB⁻`, `db⁻`
    /// and `db⁺`, so the triple, its pairs and its items share one
    /// support per part, and pads each part to `sizes` with rows of
    /// distinct filler items. Returns `DB` (`DB⁻`, then `db⁻`), the
    /// indices of `db⁻` in it, and `db⁺`.
    fn planted(
        groups: &[(usize, usize, usize)],
        sizes: (usize, usize, usize),
    ) -> (Vec<Transaction>, Vec<usize>, Vec<Transaction>) {
        let mut parts: [Vec<Transaction>; 3] = Default::default();
        for (g, &(kept, deleted, inserted)) in groups.iter().enumerate() {
            let g = 3 * g as u32;
            for (part, n) in parts.iter_mut().zip([kept, deleted, inserted]) {
                part.extend((0..n).map(|_| tx(&[g, g + 1, g + 2])));
            }
        }
        let mut filler = 500u32..;
        for (part, size) in parts.iter_mut().zip([sizes.0, sizes.1, sizes.2]) {
            assert!(part.len() <= size);
            part.resize_with(size, || tx(&[filler.next().unwrap()]));
        }
        let [mut db, deleted, inserted] = parts;
        let deletes = (db.len()..db.len() + deleted.len()).collect();
        db.extend(deleted);
        (db, deletes, inserted)
    }

    /// [`check_fup2`] (≡ an Apriori re-mine of `DB'`) under `HashTree`,
    /// `Vertical` and `Auto`; `detail` and `stats.passes` must agree.
    fn across_backends(
        (db, deletes, inserts): (Vec<Transaction>, Vec<usize>, Vec<Transaction>),
        minsup: MinSupport,
    ) -> FupOutcome {
        use fup_mining::CountingBackend::{Auto, HashTree, Vertical};
        let outs = [HashTree, Vertical, Auto].map(|backend| {
            let config = FupConfig {
                engine: EngineConfig::default().with_backend(backend),
                ..FupConfig::full()
            };
            check_fup2(db.clone(), &deletes, inserts.clone(), minsup, config)
        });
        for out in &outs[1..] {
            assert_eq!(out.detail, outs[0].detail);
            assert_eq!(out.stats.passes, outs[0].stats.passes);
        }
        outs.into_iter().next().unwrap()
    }

    /// FUP2 on the thresholds. |DB| = 100 and |DB'| = 100 at 10 %, so
    /// `required = 10` on both sides and `old_cap = 9`; a candidate
    /// survives the bound iff `sup_d⁺ − sup_d⁻ ≥ 1`. Each group's triple,
    /// pairs and items sit at one boundary at every level k = 1, 2, 3.
    #[test]
    fn fup2_bound_and_support_thresholds_are_exact() {
        let groups = [
            (9, 1, 0),  // old large (10), ends at required − 1: a loser
            (9, 1, 1),  // old large, ends exactly at required
            (10, 0, 1), // old large, ends at required + 1
            (9, 0, 1),  // small (9): the bound holds with equality, ends at required
            (8, 0, 1),  // small (8): the bound holds with equality, ends at required − 1
            (8, 1, 1),  // small (9): misses the bound by 1 (pruned), ends at 9
            (9, 0, 0),  // small (9), no delta: misses by 1, ends at 9
            (9, 0, 2),  // small (9): the bound holds with 1 to spare, ends at required + 1
        ];
        let out = across_backends(planted(&groups, (90, 10, 10)), MinSupport::percent(10));
        let triple = |g: u32| s(&[3 * g, 3 * g + 1, 3 * g + 2]);
        let supports: Vec<Option<u64>> = (0..8).map(|g| out.large.support(&triple(g))).collect();
        let expected = [
            None,
            Some(10),
            Some(11),
            Some(10),
            None,
            None,
            None,
            Some(11),
        ];
        assert_eq!(supports, expected);
        let detail = |k, old_large, lemma3, old_wins, generated, checked, new_wins| FupPassDetail {
            k,
            old_large,
            lemma3_losers: lemma3,
            winners_from_old: old_wins,
            candidates_generated: generated,
            candidates_after_hash: generated,
            candidates_checked: checked,
            winners_from_new: new_wins,
        };
        assert_eq!(
            out.detail,
            [
                // 9 old items, 3 of them losers; 15 planted candidate items
                // and 29 fillers, of which the 9 on or over the bound and
                // the 3 inserted fillers are checked.
                detail(1, 9, 0, 6, 44, 12, 6),
                // The 60 pairs over L'₁ outside old L₂: only the 6 inside
                // the two emerging triples pass the bound.
                detail(2, 9, 3, 6, 60, 6, 6),
                detail(3, 3, 1, 2, 2, 2, 2),
                detail(4, 0, 0, 0, 0, 0, 0),
            ]
        );
    }

    /// FUP on the thresholds. |DB| = 100 and |db⁺| = 30 at 10 %:
    /// `required(DB') = 13`, and Lemma 5 keeps a candidate iff its `db⁺`
    /// support is at least 3.
    #[test]
    fn fup_lemma5_and_support_thresholds_are_exact() {
        let groups = [
            (10, 0, 2), // old large, ends at required − 1: a loser
            (10, 0, 3), // old large, ends exactly at required
            (11, 0, 3), // old large, ends at required + 1
            (9, 0, 4),  // small: passes Lemma 5, ends exactly at required
            (9, 0, 3),  // small: meets Lemma 5 with equality, ends at required − 1
            (9, 0, 2),  // small: misses Lemma 5 by 1 (pruned), ends at 11
            (9, 0, 5),  // small: passes Lemma 5, ends at required + 1
        ];
        let out = across_backends(planted(&groups, (100, 0, 30)), MinSupport::percent(10));
        let triple = |g: u32| s(&[3 * g, 3 * g + 1, 3 * g + 2]);
        let supports: Vec<Option<u64>> = (0..7).map(|g| out.large.support(&triple(g))).collect();
        let expected = [None, Some(13), Some(14), Some(13), None, None, Some(14)];
        assert_eq!(supports, expected);
        // Iteration 1 checks exactly the items of the three candidates at
        // or over the Lemma-5 line; fillers never reach it.
        assert_eq!(out.detail[0].candidates_checked, 9);
        assert_eq!(out.stats.algorithm, "fup");
    }
}
