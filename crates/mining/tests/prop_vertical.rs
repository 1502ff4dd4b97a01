//! Property tests for the vertical tid-list backend: for random databases
//! and candidate pools, the vertical index produces exactly the hash
//! tree's (and naive containment's) support counts — across thread counts
//! {1, 2, 8}, both list representations (all-sparse and all-dense forced
//! by density cutoff), and arbitrary split boundaries — and every miner
//! produces bit-identical large itemsets under every [`CountingBackend`].
//! The fused pass-2 kernel ([`VerticalIndex::build_with_pairs`]) is held
//! to the same two references, over flat, sharded and chained sources.

use fup_mining::apriori::AprioriConfig;
use fup_mining::dhp::DhpConfig;
use fup_mining::engine::{count_table_with, EngineConfig};
use fup_mining::gen::{apriori_gen_flat, GenConfig};
use fup_mining::vertical::{item_bitmap, CountingBackend, VerticalIndex, DENSE_FACTOR};
use fup_mining::{Apriori, Dhp, Itemset, ItemsetTable, MinSupport};
use fup_tidb::source::ChainSource;
use fup_tidb::transaction::contains_sorted;
use fup_tidb::{ItemId, ShardSpec, ShardedDb, Transaction, TransactionDb, TransactionSource};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const DENSITY_CUTOFFS: [u32; 3] = [0, DENSE_FACTOR, u32::MAX];
const CHUNK_SIZES: [usize; 3] = [1, 7, 1024];

/// Every 2-subset of `items` (ascending): the `C₂` `apriori-gen` makes
/// of an `L₁`.
fn all_pairs(items: &[ItemId]) -> ItemsetTable {
    let level = ItemsetTable::from_flat_rows(1, items.to_vec());
    apriori_gen_flat(&level, &GenConfig::serial())
}

/// The fused kernel's support of every row of `c2`, plus the index the
/// same scan built.
fn fused_pairs(
    source: &dyn TransactionSource,
    items: &[ItemId],
    c2: &ItemsetTable,
    cfg: &EngineConfig,
) -> (Vec<u64>, VerticalIndex) {
    let (idx, pairs) = VerticalIndex::build_with_pairs(source, items, cfg);
    let pairs = pairs.expect("item set is far below the matrix bound");
    let counts = c2
        .rows()
        .map(|row| pairs.support(row[0], row[1]).expect("both items ranked"))
        .collect();
    (counts, idx)
}

fn arb_transaction(max_item: u32, max_len: usize) -> impl Strategy<Value = Transaction> {
    proptest::collection::vec(0..max_item, 0..max_len).prop_map(Transaction::from_items)
}

fn arb_itemset(max_item: u32, k: usize) -> impl Strategy<Value = Itemset> {
    proptest::collection::hash_set(0..max_item, k).prop_map(Itemset::from_items)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn vertical_counts_equal_naive_across_threads_and_densities(
        candidates in proptest::collection::hash_set(arb_itemset(30, 3), 1..40),
        transactions in proptest::collection::vec(arb_transaction(30, 10), 0..150),
    ) {
        let candidates: Vec<Itemset> = candidates.into_iter().collect();
        let table = ItemsetTable::from_itemsets(&candidates);
        let naive: Vec<u64> = table
            .rows()
            .map(|row| {
                transactions
                    .iter()
                    .filter(|t| contains_sorted(t.items(), row))
                    .count() as u64
            })
            .collect();
        let db = TransactionDb::from_transactions(transactions.clone());
        for &dense_factor in &DENSITY_CUTOFFS {
            for &threads in &THREAD_COUNTS {
                let cfg = EngineConfig::with_threads(threads);
                let idx = VerticalIndex::build_with_density(&db, None, &cfg, dense_factor);
                let counts = idx.count_rows(&table, &cfg);
                prop_assert_eq!(
                    &counts,
                    &naive,
                    "threads {} dense_factor {}",
                    threads,
                    dense_factor
                );
            }
        }
    }

    #[test]
    fn fused_pair_supports_equal_intersections_and_hash_tree(
        transactions in proptest::collection::vec(arb_transaction(30, 10), 0..150),
        minsup_pct in 0u64..40,
    ) {
        let n = transactions.len() as u64;
        let db = TransactionDb::from_transactions(transactions.clone());
        let mut item_counts = std::collections::BTreeMap::new();
        for t in &transactions {
            for &item in t.items() {
                *item_counts.entry(item).or_insert(0u64) += 1;
            }
        }
        let all_items: Vec<ItemId> = item_counts.keys().copied().collect();
        let minsup = MinSupport::percent(minsup_pct);
        let l1: Vec<ItemId> = item_counts
            .iter()
            .filter(|&(_, &count)| minsup.is_large(count, n))
            .map(|(&item, _)| item)
            .collect();
        // Keep filter None (every item seen) and L₁.
        for (items, filtered) in [(&all_items, false), (&l1, true)] {
            let c2 = all_pairs(items);
            let keep = item_bitmap(items.iter().copied());
            let hash = count_table_with(&db, &c2, &EngineConfig::serial());
            for &threads in &THREAD_COUNTS {
                for &chunk_size in &CHUNK_SIZES {
                    let cfg = EngineConfig {
                        chunk_size,
                        ..EngineConfig::with_threads(threads)
                    };
                    let (fused, index) = fused_pairs(&db, items, &c2, &cfg);
                    prop_assert_eq!(
                        &fused, &hash,
                        "vs hash tree: threads {} chunk {} filtered {}",
                        threads, chunk_size, filtered
                    );
                    for &dense_factor in &DENSITY_CUTOFFS {
                        let idx = VerticalIndex::build_with_density(
                            &db,
                            filtered.then_some(keep.as_slice()),
                            &cfg,
                            dense_factor,
                        );
                        prop_assert_eq!(
                            &fused,
                            &idx.count_rows(&c2, &cfg),
                            "vs intersections: threads {} chunk {} filtered {} dense_factor {}",
                            threads, chunk_size, filtered, dense_factor
                        );
                    }
                    // The scan that counted the pairs built the very
                    // index a plain filtered build yields.
                    prop_assert_eq!(&index, &VerticalIndex::build(&db, Some(&keep), &cfg));
                }
            }
        }
    }

    #[test]
    fn fused_pairs_over_sharded_and_chained_sources(
        transactions in proptest::collection::vec(arb_transaction(20, 8), 2..120),
        seam_sel in 0usize..1000,
        shards in 1u32..5,
    ) {
        // Per-partition cursors (ShardedDb) and seam-shifted tid offsets
        // (ChainSource) must feed the fused scan the same rows, at the
        // same tids, as the flat store.
        let flat = TransactionDb::from_transactions(transactions.clone());
        let items: Vec<ItemId> = (0..20).map(ItemId).collect();
        let c2 = all_pairs(&items);
        let reference = fused_pairs(&flat, &items, &c2, &EngineConfig::serial());
        let sharded =
            ShardedDb::from_transactions(ShardSpec::striped_with(shards, 16), transactions.clone())
                .unwrap();
        let seam = seam_sel % (transactions.len() + 1);
        let head = TransactionDb::from_transactions(transactions[..seam].to_vec());
        let tail = TransactionDb::from_transactions(transactions[seam..].to_vec());
        let chain = ChainSource::new(&head, &tail);
        for &threads in &THREAD_COUNTS {
            for &chunk_size in &CHUNK_SIZES {
                let cfg = EngineConfig {
                    chunk_size,
                    ..EngineConfig::with_threads(threads)
                };
                prop_assert_eq!(
                    &fused_pairs(&chain, &items, &c2, &cfg),
                    &reference,
                    "chain seam {} threads {} chunk {}",
                    seam, threads, chunk_size
                );
                // A sharded store delivers its rows shard by shard, so
                // tids differ from the flat store's; the pair supports
                // cannot.
                prop_assert_eq!(
                    &fused_pairs(&sharded, &items, &c2, &cfg).0,
                    &reference.0,
                    "{} shards threads {} chunk {}",
                    shards, threads, chunk_size
                );
            }
        }
    }

    #[test]
    fn split_counts_partition_the_support(
        candidates in proptest::collection::hash_set(arb_itemset(25, 2), 1..30),
        transactions in proptest::collection::vec(arb_transaction(25, 8), 1..120),
        boundary_sel in 0u64..1000,
    ) {
        let candidates: Vec<Itemset> = candidates.into_iter().collect();
        let table = ItemsetTable::from_itemsets(&candidates);
        let n = transactions.len() as u64;
        let boundary = boundary_sel % (n + 1);
        // Ground truth by position: tids below the boundary are exactly
        // the first `boundary` transactions of the pass.
        let head = TransactionDb::from_transactions(
            transactions[..boundary as usize].to_vec(),
        );
        let db = TransactionDb::from_transactions(transactions.clone());
        let cfg = EngineConfig::serial();
        for &dense_factor in &DENSITY_CUTOFFS {
            let idx = VerticalIndex::build_with_density(&db, None, &cfg, dense_factor);
            let head_idx =
                VerticalIndex::build_with_density(&head, None, &cfg, dense_factor);
            let split = idx.count_rows_split(&table, boundary, &cfg);
            let total = idx.count_rows(&table, &cfg);
            let below = head_idx.count_rows(&table, &cfg);
            for (i, &(b, a)) in split.iter().enumerate() {
                prop_assert_eq!(b + a, total[i], "row {} dense_factor {}", i, dense_factor);
                prop_assert_eq!(b, below[i], "row {} dense_factor {}", i, dense_factor);
            }
        }
    }

    #[test]
    fn miners_identical_under_every_backend(
        transactions in proptest::collection::vec(arb_transaction(20, 8), 1..100),
        minsup_pct in 5u64..60,
    ) {
        let db = TransactionDb::from_transactions(transactions);
        let minsup = MinSupport::percent(minsup_pct);
        let reference = Apriori::with_config(AprioriConfig {
            engine: EngineConfig::serial(),
            ..AprioriConfig::default()
        })
        .run(&db, minsup)
        .large;
        for backend in [
            CountingBackend::HashTree,
            CountingBackend::Vertical,
            CountingBackend::Auto,
        ] {
            for &threads in &THREAD_COUNTS {
                let engine = EngineConfig::with_threads(threads).with_backend(backend);
                let apriori = Apriori::with_config(AprioriConfig {
                    engine: engine.clone(),
                    ..AprioriConfig::default()
                })
                .run(&db, minsup)
                .large;
                prop_assert!(
                    apriori.same_itemsets(&reference),
                    "apriori {:?} threads {}: {:?}",
                    backend,
                    threads,
                    apriori.diff(&reference)
                );
                let dhp = Dhp::with_config(DhpConfig {
                    engine,
                    ..DhpConfig::default()
                })
                .run(&db, minsup)
                .large;
                prop_assert!(
                    dhp.same_itemsets(&reference),
                    "dhp {:?} threads {}: {:?}",
                    backend,
                    threads,
                    dhp.diff(&reference)
                );
            }
        }
    }
}

/// The facade re-exports stay wired.
#[test]
fn backend_types_are_reexported() {
    let _ = fup_mining::CountingBackend::default();
    assert_eq!(
        fup_mining::CountingBackend::default(),
        CountingBackend::Auto
    );
}
