//! Property-based equivalence: the correctness theorem of the paper.
//!
//! For arbitrary databases, increments, deletions, and thresholds:
//!
//! * `FUP(DB, L, db)` equals Apriori and DHP re-run on `DB ∪ db`,
//! * `FUP2(DB⁻, L, db⁻, db⁺)` equals a re-mine of `(DB − db⁻) ∪ db⁺`,
//! * `FUP(DB, L, db)` is `FUP2(DB, L, ∅, db)`, statistics included,
//! * every optimisation configuration produces identical results.

use fup_core::{Fup, Fup2, FupConfig};
use fup_mining::{Apriori, CountingBackend, Dhp, MinSupport};
use fup_tidb::source::ChainSource;
use fup_tidb::{SegmentedDb, Transaction, TransactionDb, UpdateBatch};
use proptest::prelude::*;

/// A random transaction over a small item alphabet (1–6 items of 0..12).
fn arb_transaction() -> impl Strategy<Value = Transaction> {
    proptest::collection::vec(0u32..12, 1..6).prop_map(Transaction::from_items)
}

fn arb_db(max: usize) -> impl Strategy<Value = Vec<Transaction>> {
    proptest::collection::vec(arb_transaction(), 0..max)
}

/// Minimum supports spanning sparse to dense outcomes.
fn arb_minsup() -> impl Strategy<Value = MinSupport> {
    (1u64..=100).prop_map(MinSupport::percent)
}

/// All three counting backends (the updaters must be exact under each).
fn arb_backend() -> impl Strategy<Value = CountingBackend> {
    (0usize..3).prop_map(|i| {
        [
            CountingBackend::HashTree,
            CountingBackend::Vertical,
            CountingBackend::Auto,
        ][i]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fup_equals_remine(
        original in arb_db(40),
        increment in arb_db(20),
        minsup in arb_minsup(),
        reduce_db in any::<bool>(),
        dhp_hash in any::<bool>(),
        backend in arb_backend(),
    ) {
        let db = TransactionDb::from_transactions(original);
        let inc = TransactionDb::from_transactions(increment);
        let mut config = FupConfig { reduce_db, dhp_hash, ..FupConfig::default() };
        config.engine.backend = backend;

        let baseline = Apriori::new().run(&db, minsup).large;
        let out = Fup::with_config(config)
            .update(&db, &baseline, &inc, minsup)
            .unwrap();

        let whole = ChainSource::new(&db, &inc);
        let apriori = Apriori::new().run(&whole, minsup).large;
        prop_assert!(
            out.large.same_itemsets(&apriori),
            "FUP vs Apriori: {:?}",
            out.large.diff(&apriori)
        );
        let dhp = Dhp::new().run(&whole, minsup).large;
        prop_assert!(
            out.large.same_itemsets(&dhp),
            "FUP vs DHP: {:?}",
            out.large.diff(&dhp)
        );
    }

    #[test]
    fn fup2_equals_remine(
        original in arb_db(30),
        inserts in arb_db(15),
        delete_seed in proptest::collection::vec(any::<prop::sample::Index>(), 0..10),
        minsup in arb_minsup(),
        reduce_db in any::<bool>(),
    ) {
        let mut store = SegmentedDb::new();
        let tids = store.append_all(original);
        // Distinct delete targets chosen by index into the original.
        let mut deletes: Vec<_> = delete_seed
            .iter()
            .filter(|_| !tids.is_empty())
            .map(|ix| tids[ix.index(tids.len())])
            .collect();
        deletes.sort();
        deletes.dedup();

        let baseline = Apriori::new().run(&store, minsup).large;
        let staged = store
            .stage(UpdateBatch { inserts, deletes })
            .unwrap();
        let updated = ChainSource::new(&store, staged.inserted());
        let remined = Apriori::new().run(&updated, minsup).large;
        // Every backend on the same case: the same itemsets as the
        // re-mine, and the same Figure 3 accounting pass by pass (the
        // `− L_k` merge, the gate and the tree's delete-side counts must
        // not drift on one arm).
        let mut first: Option<fup_core::FupOutcome> = None;
        for backend in [CountingBackend::HashTree, CountingBackend::Vertical, CountingBackend::Auto] {
            let mut config = FupConfig { reduce_db, ..FupConfig::default() };
            config.engine.backend = backend;
            let out = Fup2::with_config(config)
                .update(&store, &baseline, staged.deleted(), staged.inserted(), minsup)
                .unwrap();
            prop_assert!(
                out.large.same_itemsets(&remined),
                "FUP2 ({:?}) vs re-mine: {:?}",
                backend,
                out.large.diff(&remined)
            );
            if let Some(first) = &first {
                prop_assert_eq!(&out.detail, &first.detail, "{:?} vs HashTree", backend);
                prop_assert_eq!(&out.stats.passes, &first.stats.passes, "{:?} vs HashTree", backend);
            } else {
                first = Some(out);
            }
        }
    }

    #[test]
    fn fup_is_fup2_without_deletions(
        original in arb_db(40),
        increment in arb_db(20),
        minsup in arb_minsup(),
        reduce_db in any::<bool>(),
        dhp_hash in any::<bool>(),
    ) {
        // §5: FUP is FUP2 with db⁻ = ∅ — the same itemsets and the same
        // Figure 3 accounting pass by pass, under every backend and thread
        // count (small chunks, so the threads really split the scans).
        let db = TransactionDb::from_transactions(original);
        let inc = TransactionDb::from_transactions(increment);
        let nothing = TransactionDb::new();
        let baseline = Apriori::new().run(&db, minsup).large;
        for backend in [CountingBackend::HashTree, CountingBackend::Vertical, CountingBackend::Auto] {
            for threads in [1, 2, 8] {
                let mut config = FupConfig { reduce_db, dhp_hash, ..FupConfig::default() }
                    .with_threads(threads);
                config.engine.backend = backend;
                config.engine.chunk_size = 8;
                let fup = Fup::with_config(config.clone())
                    .update(&db, &baseline, &inc, minsup)
                    .unwrap();
                let fup2 = Fup2::with_config(config)
                    .update(&db, &baseline, &nothing, &inc, minsup)
                    .unwrap();
                prop_assert!(
                    fup.large.same_itemsets(&fup2.large),
                    "{:?} x{}: {:?}", backend, threads, fup.large.diff(&fup2.large)
                );
                prop_assert_eq!(&fup.stats.passes, &fup2.stats.passes, "{:?} x{}", backend, threads);
                prop_assert_eq!(&fup.detail, &fup2.detail, "{:?} x{}", backend, threads);
            }
        }
    }

    #[test]
    fn chained_updates_stay_consistent(
        original in arb_db(20),
        inc1 in arb_db(10),
        inc2 in arb_db(10),
        minsup in arb_minsup(),
    ) {
        // FUP result feeds the next FUP round; after two rounds the result
        // must still equal a from-scratch mine.
        let db0 = TransactionDb::from_transactions(original);
        let i1 = TransactionDb::from_transactions(inc1);
        let i2 = TransactionDb::from_transactions(inc2);

        let l0 = Apriori::new().run(&db0, minsup).large;
        let l1 = Fup::new().update(&db0, &l0, &i1, minsup).unwrap().large;

        // Materialise DB ∪ db1 to feed round 2.
        let mut merged = TransactionDb::new();
        merged.extend(db0.raw().iter().cloned());
        merged.extend(i1.raw().iter().cloned());
        let l2 = Fup::new().update(&merged, &l1, &i2, minsup).unwrap().large;

        let mut whole = TransactionDb::new();
        whole.extend(merged.raw().iter().cloned());
        whole.extend(i2.raw().iter().cloned());
        let fresh = Apriori::new().run(&whole, minsup).large;
        prop_assert!(
            l2.same_itemsets(&fresh),
            "chained FUP diverged: {:?}",
            l2.diff(&fresh)
        );
    }

    #[test]
    fn fup_supports_are_exact_counts(
        original in arb_db(25),
        increment in arb_db(10),
        minsup in arb_minsup(),
    ) {
        // Every reported support equals the true containment count over
        // DB ∪ db.
        let db = TransactionDb::from_transactions(original);
        let inc = TransactionDb::from_transactions(increment);
        let baseline = Apriori::new().run(&db, minsup).large;
        let out = Fup::new().update(&db, &baseline, &inc, minsup).unwrap();
        for (x, reported) in out.large.iter() {
            let truth = db
                .raw()
                .iter()
                .chain(inc.raw().iter())
                .filter(|t| t.contains_itemset(x.items()))
                .count() as u64;
            prop_assert_eq!(reported, truth, "support of {:?}", x);
        }
    }
}
