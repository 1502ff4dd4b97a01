//! FUP2 — the general insert/delete maintenance algorithm of the paper's
//! §5, for an update `DB' = (DB − db⁻) ∪ db⁺`. The algorithm, its bound
//! and the trimming rules are stated once, in the [`crate::fup`] module
//! docs; this is the entry point that takes a delete side.

use crate::config::FupConfig;
use crate::error::Result;
use crate::fup::{update_round, FupOutcome};
use crate::vindex::{IndexSlot, SlotProvider};
use fup_mining::{LargeItemsets, MinSupport};
use fup_tidb::TransactionSource;

/// The FUP2 incremental updater (insertions + deletions).
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
    /// Fails with [`Error::StaleBaseline`](crate::Error::StaleBaseline) if
    /// `old` was not mined over a database of `remainder`'s plus
    /// `deleted`'s size.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use fup_mining::{Apriori, Itemset};
    use fup_tidb::source::ChainSource;
    use fup_tidb::{SegmentedDb, Transaction, UpdateBatch};

    fn tx(items: &[u32]) -> Transaction {
        Transaction::from_items(items.iter().copied())
    }

    fn s(items: &[u32]) -> Itemset {
        Itemset::from_items(items.iter().copied())
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
        use fup_mining::{CountingBackend, EngineConfig};
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

    use fup_tidb::TransactionDb;
}
