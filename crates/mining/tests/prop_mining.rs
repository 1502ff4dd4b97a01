//! Property tests for the mining foundation: every fast path agrees with
//! its obviously-correct reference implementation on random inputs.

use fup_datagen::{corpus, QuestGenerator};
use fup_mining::apriori::{mine_naive, AprioriConfig};
use fup_mining::engine::EngineConfig;
use fup_mining::gen::{
    apriori_gen, apriori_gen_flat, apriori_gen_naive, apriori_gen_reference, clustered_l2,
    GenConfig,
};
use fup_mining::rules::{generate_rules, generate_rules_naive, MinConfidence};
use fup_mining::vertical::{item_bitmap, CountingBackend, VerticalIndex};
use fup_mining::{Apriori, Dhp, HashTree, Itemset, ItemsetTable, MinSupport};
use fup_tidb::transaction::contains_sorted;
use fup_tidb::{ItemId, Transaction, TransactionDb};
use proptest::prelude::*;

fn arb_transaction(max_item: u32, max_len: usize) -> impl Strategy<Value = Transaction> {
    proptest::collection::vec(0..max_item, 1..max_len).prop_map(Transaction::from_items)
}

fn arb_db() -> impl Strategy<Value = Vec<Transaction>> {
    proptest::collection::vec(arb_transaction(14, 7), 1..40)
}

fn arb_itemset(max_item: u32, k: usize) -> impl Strategy<Value = Itemset> {
    proptest::collection::hash_set(0..max_item, k).prop_map(Itemset::from_items)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn hashtree_matches_naive_containment(
        candidates in proptest::collection::hash_set(arb_itemset(40, 3), 1..60),
        transactions in proptest::collection::vec(arb_transaction(40, 10), 0..40),
    ) {
        let candidates: Vec<Itemset> = candidates.into_iter().collect();
        let mut tree = HashTree::build(candidates.clone());
        for t in &transactions {
            tree.add_transaction(t.items());
        }
        for (c, &count) in candidates.iter().zip(tree.counts()) {
            let truth = transactions
                .iter()
                .filter(|t| contains_sorted(t.items(), c.items()))
                .count() as u64;
            prop_assert_eq!(count, truth, "candidate {:?}", c);
        }
    }

    #[test]
    fn apriori_gen_matches_naive(
        level in proptest::collection::hash_set(arb_itemset(10, 2), 0..25),
    ) {
        let level: Vec<Itemset> = level.into_iter().collect();
        prop_assert_eq!(apriori_gen(&level), apriori_gen_naive(&level));
    }

    #[test]
    fn apriori_gen_candidates_have_large_subsets(
        level in proptest::collection::hash_set(arb_itemset(12, 3), 0..25),
    ) {
        let level: Vec<Itemset> = level.into_iter().collect();
        let members: std::collections::HashSet<&Itemset> = level.iter().collect();
        for c in apriori_gen(&level) {
            prop_assert_eq!(c.k(), 4);
            for sub in c.proper_subsets() {
                prop_assert!(members.contains(&sub), "{:?} missing subset {:?}", c, sub);
            }
        }
    }

    #[test]
    fn apriori_gen_parallel_matches_naive(
        k in 1usize..=6,
        raw in proptest::collection::vec(proptest::collection::hash_set(0u32..24, 6), 0..40),
    ) {
        // Random uniform-size L_k (k up to 6): every thread count must
        // reproduce the naive join+prune exactly, order included. Each
        // 6-item set is sorted before truncating to k so the input is a
        // pure function of the generated value (HashSet iteration order
        // is not reproducible across proptest replays).
        let level: Vec<Itemset> = raw
            .iter()
            .map(|set| {
                let mut items: Vec<u32> = set.iter().copied().collect();
                items.sort_unstable();
                Itemset::from_items(items.into_iter().take(k))
            })
            .collect();
        let naive = apriori_gen_naive(&level);
        for threads in [1usize, 2, 8] {
            let fast = apriori_gen_flat(
                &ItemsetTable::from_itemsets(&level),
                &GenConfig::with_threads(threads),
            )
            .to_itemsets();
            prop_assert_eq!(&fast, &naive, "threads {}", threads);
        }
    }

    #[test]
    fn apriori_and_dhp_match_naive(
        rows in arb_db(),
        pct in 1u64..=100,
    ) {
        let db = TransactionDb::from_transactions(rows);
        let minsup = MinSupport::percent(pct);
        let truth = mine_naive(&db, minsup);
        let apriori = Apriori::new().run(&db, minsup).large;
        prop_assert!(apriori.same_itemsets(&truth), "apriori: {:?}", apriori.diff(&truth));
        let dhp = Dhp::new().run(&db, minsup).large;
        prop_assert!(dhp.same_itemsets(&truth), "dhp: {:?}", dhp.diff(&truth));
    }

    #[test]
    fn rules_match_naive_and_respect_confidence(
        rows in arb_db(),
        sup_pct in 5u64..=60,
        conf_pct in 10u64..=100,
    ) {
        let db = TransactionDb::from_transactions(rows);
        let large = Apriori::new().run(&db, MinSupport::percent(sup_pct)).large;
        let minconf = MinConfidence::percent(conf_pct);
        let fast = generate_rules(&large, minconf);
        let naive = generate_rules_naive(&large, minconf);
        prop_assert_eq!(fast.rules(), naive.rules());
        for r in fast.rules() {
            // Confidence threshold honoured exactly.
            prop_assert!(minconf.is_met(r.union_count, r.antecedent_count));
            // Antecedent and consequent are disjoint and non-empty.
            prop_assert!(!r.antecedent.is_empty());
            prop_assert!(!r.consequent.is_empty());
            for item in r.consequent.items() {
                prop_assert!(!r.antecedent.contains(*item));
            }
            // Support counts come from the large-itemset table.
            let union = r.antecedent.union(&r.consequent);
            prop_assert_eq!(large.support(&union), Some(r.union_count));
            prop_assert_eq!(large.support(&r.antecedent), Some(r.antecedent_count));
        }
    }

    #[test]
    fn subset_closure_holds_for_mined_itemsets(
        rows in arb_db(),
        pct in 5u64..=80,
    ) {
        // Every subset of a large itemset is large with ≥ its support —
        // the foundation of Lemma 3.
        let db = TransactionDb::from_transactions(rows);
        let large = Apriori::new().run(&db, MinSupport::percent(pct)).large;
        for (x, sup) in large.iter() {
            if x.k() < 2 {
                continue;
            }
            for sub in x.proper_subsets() {
                let sub_sup = large.support(&sub);
                prop_assert!(sub_sup.is_some(), "{:?} lacks subset {:?}", x, sub);
                prop_assert!(sub_sup.unwrap() >= sup);
            }
        }
    }

    #[test]
    fn minsup_monotonicity(
        rows in arb_db(),
        lo in 1u64..=50,
        delta in 1u64..=50,
    ) {
        // Raising the threshold can only shrink the result set.
        let db = TransactionDb::from_transactions(rows);
        let low = Apriori::new().run(&db, MinSupport::percent(lo)).large;
        let high = Apriori::new().run(&db, MinSupport::percent(lo + delta)).large;
        for (x, sup) in high.iter() {
            prop_assert_eq!(low.support(x), Some(sup));
        }
        prop_assert!(high.len() <= low.len());
    }
}

/// On a ~10 000-set structured L₂ the flat join+prune is byte-identical
/// (order included) to the pre-flat reference implementation at every
/// thread count — the PR's compatibility acceptance check.
#[test]
fn apriori_gen_ten_thousand_sets_identical_across_threads() {
    let l2 = clustered_l2(70, 18, 13);
    assert!(l2.len() >= 9_000, "|L2| = {}", l2.len());
    let reference = apriori_gen_reference(&l2);
    assert!(!reference.is_empty());
    for threads in [1usize, 2, 8] {
        let fast = apriori_gen_flat(
            &ItemsetTable::from_itemsets(&l2),
            &GenConfig::with_threads(threads),
        )
        .to_itemsets();
        assert_eq!(fast, reference, "threads {threads}");
    }
}

/// On Quest corpora either side of `Auto`'s thresholds, Apriori yields the
/// same itemsets *and* the same per-pass accounting under every backend
/// and thread count, hands back an index exactly when a pass counted
/// through one, and that index is the plain `L₁`-filtered build — however
/// pass 2 got its counts.
#[test]
fn apriori_backends_agree_on_quest_corpora() {
    // D = 2 000 sits below AUTO_MIN_TRANSACTIONS (Auto stays on the hash
    // tree), D = 5 000 above it (Auto engages the index at pass 2).
    for (scale, auto_indexes) in [(50u64, false), (20, true)] {
        let params = corpus::scaled(corpus::t10_i4_d100_d1(), scale).with_seed(0x2026);
        let n = params.num_transactions;
        let db = QuestGenerator::new(params).generate_db(n);
        let minsup = MinSupport::percent(1);
        let mine = |backend, threads| {
            Apriori::with_config(AprioriConfig {
                engine: EngineConfig::with_threads(threads).with_backend(backend),
                ..AprioriConfig::default()
            })
            .run_with_index(&db, minsup)
        };
        let (reference, no_index) = mine(CountingBackend::HashTree, 1);
        assert!(no_index.is_none());
        assert!(
            reference.large.max_size() >= 3,
            "D = {n}: corpus too sparse"
        );
        let l1 = item_bitmap(reference.large.level(1).map(|(x, _)| x.items()[0]));
        for (backend, indexes) in [
            (CountingBackend::HashTree, false),
            (CountingBackend::Vertical, true),
            (CountingBackend::Auto, auto_indexes),
        ] {
            for threads in [1usize, 2, 8] {
                let (out, index) = mine(backend, threads);
                assert!(
                    out.large.same_itemsets(&reference.large),
                    "D = {n} {backend:?} threads {threads}: {:?}",
                    out.large.diff(&reference.large)
                );
                assert_eq!(
                    out.stats.passes, reference.stats.passes,
                    "D = {n} {backend:?} threads {threads}"
                );
                assert_eq!(index.is_some(), indexes, "D = {n} {backend:?}");
                if let Some(index) = index {
                    let engine = EngineConfig::with_threads(threads);
                    assert!(
                        index == VerticalIndex::build(&db, Some(&l1), &engine),
                        "D = {n} {backend:?} threads {threads}: index differs"
                    );
                }
            }
        }
    }
}

/// `contains_sorted` agrees with a set-based reference.
#[test]
fn contains_sorted_reference() {
    use std::collections::BTreeSet;
    let mut rng = 1u64;
    let mut next = || {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
        (rng >> 33) as u32
    };
    for _ in 0..500 {
        let hay: BTreeSet<u32> = (0..(next() % 12)).map(|_| next() % 20).collect();
        let needle: BTreeSet<u32> = (0..(next() % 6)).map(|_| next() % 20).collect();
        let hay_v: Vec<ItemId> = hay.iter().map(|&i| ItemId(i)).collect();
        let needle_v: Vec<ItemId> = needle.iter().map(|&i| ItemId(i)).collect();
        assert_eq!(
            contains_sorted(&hay_v, &needle_v),
            needle.is_subset(&hay),
            "hay {hay:?} needle {needle:?}"
        );
    }
}
