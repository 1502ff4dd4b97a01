//! Property tests for the parallel counting engine: for random candidate
//! sets and databases, the engine's counts equal (a) naive containment
//! counts and (b) the serial path's counts, across thread counts
//! {1, 2, 8} and chunk sizes {1, 7, 1024}.

use fup_mining::engine::{self, EngineConfig};
use fup_mining::{EngineConfig as ReexportedEngineConfig, Itemset, ItemsetTable};
use fup_tidb::transaction::contains_sorted;
use fup_tidb::{Transaction, TransactionDb, TransactionSource};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const CHUNK_SIZES: [usize; 3] = [1, 7, 1024];

fn arb_transaction(max_item: u32, max_len: usize) -> impl Strategy<Value = Transaction> {
    proptest::collection::vec(0..max_item, 0..max_len).prop_map(Transaction::from_items)
}

fn arb_itemset(max_item: u32, k: usize) -> impl Strategy<Value = Itemset> {
    proptest::collection::hash_set(0..max_item, k).prop_map(Itemset::from_items)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_counts_equal_naive_and_serial(
        candidates in proptest::collection::hash_set(arb_itemset(40, 3), 1..40),
        transactions in proptest::collection::vec(arb_transaction(40, 12), 0..120),
    ) {
        let table = ItemsetTable::from_itemsets(&candidates.into_iter().collect::<Vec<_>>());
        let candidates = table.to_itemsets();
        let naive: Vec<u64> = candidates
            .iter()
            .map(|c| {
                transactions
                    .iter()
                    .filter(|t| contains_sorted(t.items(), c.items()))
                    .count() as u64
            })
            .collect();

        // The serial reference path (threads = 1 short-circuits to the
        // classic for_each loop).
        let serial_db = TransactionDb::from_transactions(transactions.clone());
        let serial = engine::count_table_with(&serial_db, &table, &EngineConfig::serial());
        for ((cand, count), truth) in candidates.iter().zip(&serial).zip(&naive) {
            prop_assert_eq!(count, truth, "serial disagrees with naive on {:?}", cand);
        }

        for &threads in &THREAD_COUNTS {
            for &chunk_size in &CHUNK_SIZES {
                let cfg = EngineConfig {
                    threads,
                    chunk_size,
                    ..EngineConfig::default()
                };
                let db = TransactionDb::from_transactions(transactions.clone());
                let counted = engine::count_table_with(&db, &table, &cfg);
                prop_assert_eq!(
                    &counted,
                    &serial,
                    "threads {} chunk_size {}",
                    threads,
                    chunk_size
                );
                // Scan accounting: one full pass, every transaction and
                // item charged exactly once, matching the serial path.
                prop_assert_eq!(
                    db.metrics().snapshot(),
                    serial_db.metrics().snapshot(),
                    "metrics diverged at threads {} chunk_size {}",
                    threads,
                    chunk_size
                );
            }
        }
    }

    #[test]
    fn soa_hashtree_counts_equal_direct_containment(
        candidates in proptest::collection::hash_set(arb_itemset(30, 2), 1..50),
        transactions in proptest::collection::vec(arb_transaction(30, 9), 0..80),
    ) {
        // The SoA leaf arena must count bit-identically to direct
        // containment over the owned itemsets, across every chunk size
        // (chunking changes which worker walks which leaf ranges).
        let table = ItemsetTable::from_itemsets(&candidates.into_iter().collect::<Vec<_>>());
        let candidates = table.to_itemsets();
        let truth: Vec<u64> = candidates
            .iter()
            .map(|c| {
                transactions
                    .iter()
                    .filter(|t| contains_sorted(t.items(), c.items()))
                    .count() as u64
            })
            .collect();
        for &chunk_size in &CHUNK_SIZES {
            let cfg = EngineConfig {
                threads: 2,
                chunk_size,
                ..EngineConfig::default()
            };
            let db = TransactionDb::from_transactions(transactions.clone());
            let counts = engine::count_table_with(&db, &table, &cfg);
            prop_assert_eq!(&counts, &truth, "chunk_size {}", chunk_size);
        }
    }

    #[test]
    fn engine_item_counts_equal_serial(
        transactions in proptest::collection::vec(arb_transaction(60, 10), 0..150),
    ) {
        let db = TransactionDb::from_transactions(transactions.clone());
        let serial = engine::count_items_with(&db, &EngineConfig::serial());
        for &threads in &THREAD_COUNTS {
            for &chunk_size in &CHUNK_SIZES {
                let cfg = EngineConfig {
                    threads,
                    chunk_size,
                    ..EngineConfig::default()
                };
                let parallel = engine::count_items_with(&db, &cfg);
                prop_assert_eq!(parallel.capacity(), serial.capacity());
                for (item, count) in serial.iter_nonzero() {
                    prop_assert_eq!(
                        parallel.get(item),
                        count,
                        "item {:?} at threads {} chunk_size {}",
                        item,
                        threads,
                        chunk_size
                    );
                }
            }
        }
    }
}

/// The facade re-export stays wired.
#[test]
fn engine_config_is_reexported() {
    let cfg = ReexportedEngineConfig::with_threads(2);
    assert_eq!(cfg.resolved_threads(), 2);
    assert!(EngineConfig::default().resolved_threads() >= 1);
}
