//! Sharding is invisible: a tid-range-sharded session must be
//! **bit-identical** to the flat unsharded [`Maintainer`] — itemsets
//! with support counts, strong rules with their exact counts, the live
//! tid view, and every round report — because support is additive over
//! disjoint tid ranges and every threshold decision gates on the summed
//! counts (count distribution).
//!
//! * **Across shard counts:** the same workload replayed under 1, 2, 3,
//!   and 8 shards matches the flat reference after every round. The
//!   default session *is* the one-shard case, so at one shard the
//!   persistent index's builds and extends match too.
//! * **Across engines:** backends {HashTree, Vertical, Auto} × worker
//!   threads {1, 8}.
//! * **Cross-shard deletes:** deletes routinely land on different shards
//!   than the round's inserts (fine stripes spread consecutive tids),
//!   and a dedicated scripted case pins that pattern exactly — claim
//!   validation and per-shard index alignment must stay correct when a
//!   shard only deletes while others only insert.

use fup_core::Maintainer;
use fup_mining::{CountingBackend, MinConfidence, MinSupport};
use fup_tidb::{ShardSpec, Tid, Transaction, UpdateBatch};
use proptest::prelude::*;

const SHARD_COUNTS: [u32; 4] = [1, 2, 3, 8];

/// A random transaction over a small item alphabet (1–6 items of 0..12).
fn arb_transaction() -> impl Strategy<Value = Transaction> {
    proptest::collection::vec(0u32..12, 1..6).prop_map(Transaction::from_items)
}

fn arb_db(max: usize) -> impl Strategy<Value = Vec<Transaction>> {
    proptest::collection::vec(arb_transaction(), 0..max)
}

fn arb_minsup() -> impl Strategy<Value = MinSupport> {
    (1u64..=100).prop_map(MinSupport::percent)
}

fn arb_backend() -> impl Strategy<Value = CountingBackend> {
    (0usize..3).prop_map(|i| {
        [
            CountingBackend::HashTree,
            CountingBackend::Vertical,
            CountingBackend::Auto,
        ][i]
    })
}

/// The issue's thread matrix: serial and heavily parallel.
fn arb_threads() -> impl Strategy<Value = usize> {
    (0usize..2).prop_map(|i| [1usize, 8][i])
}

fn builder(
    minsup: MinSupport,
    backend: CountingBackend,
    threads: usize,
) -> fup_core::MaintainerBuilder {
    Maintainer::builder()
        .min_support(minsup)
        .min_confidence(MinConfidence::percent(60))
        .backend(backend)
        .threads(threads)
}

/// Distinct delete targets drawn from `tids` by index.
fn pick_deletes(tids: &[Tid], seed: &[proptest::sample::Index]) -> Vec<Tid> {
    let mut deletes: Vec<Tid> = seed
        .iter()
        .filter(|_| !tids.is_empty())
        .map(|ix| tids[ix.index(tids.len())])
        .collect();
    deletes.sort();
    deletes.dedup();
    deletes
}

/// The live tid view, sorted, for exact store comparison.
fn live(m: &Maintainer) -> Vec<(Tid, Transaction)> {
    let mut v: Vec<(Tid, Transaction)> = m.store().iter().map(|(t, x)| (t, x.clone())).collect();
    v.sort_unstable_by_key(|&(t, _)| t);
    v
}

/// The bit-identity contract: itemsets + supports, rules + counts, and
/// the live tid view all match the flat reference exactly.
fn assert_bit_identical(flat: &Maintainer, sharded: &Maintainer, label: &str) {
    assert!(
        sharded
            .large_itemsets()
            .same_itemsets(flat.large_itemsets()),
        "{label}: itemsets/supports diverge: {:?}",
        sharded.large_itemsets().diff(flat.large_itemsets())
    );
    assert_eq!(sharded.rules(), flat.rules(), "{label}: rules diverge");
    assert_eq!(live(sharded), live(flat), "{label}: live view diverges");
}

/// A one-shard session is the default session: the same store shape,
/// so the same index builds and extends (the `SHARD_COUNTS[0] == 1`
/// entry of `sharded`).
fn assert_one_shard_index_matches(flat: &Maintainer, sharded: &[Maintainer], label: &str) {
    assert_eq!(SHARD_COUNTS[0], 1);
    assert_eq!(
        sharded[0].index_stats(),
        flat.index_stats(),
        "{label}: a one-shard session's index diverges from the default session's"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random histories and rounds (mixed inserts and cross-shard
    /// deletes), replayed round-for-round under every shard count of the
    /// matrix against one flat reference.
    #[test]
    fn sharded_sessions_are_bit_identical_to_flat(
        history in arb_db(14),
        rounds in proptest::collection::vec(
            (arb_db(6), proptest::collection::vec(any::<prop::sample::Index>(), 0..4)),
            0..3,
        ),
        minsup in arb_minsup(),
        backend in arb_backend(),
        threads in arb_threads(),
    ) {
        let mut flat = builder(minsup, backend, threads)
            .build(history.clone())
            .unwrap();
        // Stripe of 2: consecutive tids alternate shards quickly, so
        // deletes of old tids land away from the round's fresh inserts.
        let mut sharded: Vec<Maintainer> = SHARD_COUNTS
            .iter()
            .map(|&s| {
                builder(minsup, backend, threads)
                    .shard_spec(ShardSpec::striped_with(s, 2))
                    .build(history.clone())
                    .unwrap()
            })
            .collect();
        for m in &sharded {
            assert_bit_identical(&flat, m, "bootstrap");
        }
        assert_one_shard_index_matches(&flat, &sharded, "bootstrap");

        for (round, (inserts, delete_seed)) in rounds.into_iter().enumerate() {
            let tids: Vec<Tid> = live(&flat).into_iter().map(|(t, _)| t).collect();
            let batch = UpdateBatch {
                inserts,
                deletes: pick_deletes(&tids, &delete_seed),
            };
            let reference = flat.apply(batch.clone()).unwrap();
            for (m, &shards) in sharded.iter_mut().zip(&SHARD_COUNTS) {
                let report = m.apply(batch.clone()).unwrap();
                let label = format!("round {round}, {shards} shard(s)");
                prop_assert_eq!(report.algorithm, reference.algorithm, "{}", &label);
                prop_assert_eq!(
                    &report.inserted_tids, &reference.inserted_tids, "{}", &label
                );
                prop_assert_eq!(
                    report.num_transactions, reference.num_transactions, "{}", &label
                );
                assert_bit_identical(&flat, m, &label);
            }
            assert_one_shard_index_matches(&flat, &sharded, &format!("round {round}"));
        }
        for m in &sharded {
            m.verify_consistency().unwrap();
        }
    }
}

/// The pinned cross-shard script: every delete lands on a shard that
/// receives **no** insert that round, so delete-only shards must
/// invalidate their index and claim their tids correctly while
/// insert-only shards extend — and the merged counts still match flat.
#[test]
fn deletes_on_other_shards_than_inserts_stay_bit_identical() {
    let tx = |items: &[u32]| Transaction::from_items(items.iter().copied());
    let history: Vec<Transaction> = (0..8u32).map(|i| tx(&[i % 3, 3 + (i % 4), 10])).collect();
    for backend in [
        CountingBackend::HashTree,
        CountingBackend::Vertical,
        CountingBackend::Auto,
    ] {
        for threads in [1usize, 8] {
            let minsup = MinSupport::percent(25);
            let mut flat = builder(minsup, backend, threads)
                .build(history.clone())
                .unwrap();
            // Stripe 1 over 4 shards: tid t lives on shard t % 4. History
            // tids 0..8 cover all four shards.
            let mut sharded = builder(minsup, backend, threads)
                .shard_spec(ShardSpec::striped_with(4, 1))
                .build(history.clone())
                .unwrap();

            // Round 1: inserts get tids 8 and 9 (shards 0 and 1); the
            // deletes hit tids 2 and 7 (shards 2 and 3) — fully disjoint.
            let batch = UpdateBatch {
                inserts: vec![tx(&[0, 3, 10]), tx(&[1, 4])],
                deletes: vec![Tid(2), Tid(7)],
            };
            flat.apply(batch.clone()).unwrap();
            sharded.apply(batch).unwrap();
            assert_bit_identical(&flat, &sharded, "round 1 (disjoint shards)");

            // Round 2: delete one of round 1's inserts (tid 8, shard 0)
            // while inserting onto shards 2 and 3 (tids 10, 11) — the
            // delete again avoids every insert shard.
            let batch = UpdateBatch {
                inserts: vec![tx(&[2, 5, 10]), tx(&[0, 6, 10])],
                deletes: vec![Tid(8)],
            };
            flat.apply(batch.clone()).unwrap();
            sharded.apply(batch).unwrap();
            assert_bit_identical(&flat, &sharded, "round 2 (cross-shard delete)");

            sharded.verify_consistency().unwrap();
            assert_eq!(sharded.store().num_shards(), 4);
            assert_eq!(
                sharded.store().shard_lens().iter().sum::<usize>(),
                flat.len()
            );
        }
    }
}

/// Past the `Auto` thresholds the bootstrap mine builds an index over the
/// whole store. A one-shard session adopts it exactly as the default
/// session does, so neither rebuilds on its first vertical round.
#[test]
fn one_shard_auto_session_adopts_the_bootstrap_index() {
    // 4 500 rows of 4 items over a 40-item alphabet: every item is
    // large, C₂ holds 780 pairs and the residue is about 4 — Auto
    // engages — while no pair reaches 2 %, so the mine stops at k = 2.
    let rows = |n: u64, salt: u64| -> Vec<Transaction> {
        (0..n)
            .map(|i| {
                let i = i + salt;
                Transaction::from_items((0..4u64).map(|j| ((i * 7 + j * 11 + i * j) % 40) as u32))
            })
            .collect()
    };
    let minsup = MinSupport::percent(2);
    let mut flat = builder(minsup, CountingBackend::Auto, 1)
        .build(rows(4_500, 0))
        .unwrap();
    let mut one = builder(minsup, CountingBackend::Auto, 1)
        .shards(1)
        .build(rows(4_500, 0))
        .unwrap();
    let stats = flat.index_stats();
    assert_eq!((stats.builds, stats.resident), (1, true));
    assert_eq!(one.index_stats(), stats, "bootstrap");
    for round in 0..2u64 {
        let batch = UpdateBatch::insert_only(rows(500, 10_000 * (round + 1)));
        flat.apply(batch.clone()).unwrap();
        one.apply(batch).unwrap();
        assert_bit_identical(&flat, &one, "one shard");
        assert_eq!(one.index_stats(), flat.index_stats(), "round {round}");
    }
    assert_eq!(flat.index_stats().builds, 1, "insert rounds extend");
}
