//! Stress and property coverage for concurrent staging and the
//! maintainer service.
//!
//! The load-bearing claim: **staging from N producer threads followed by
//! one commit yields rule sets and itemset supports bit-identical to the
//! same batches staged serially** — across producer counts {2, 8} and
//! both fixed counting backends. The concurrent path differs only in
//! which shard each batch lands in and in arrival interleaving; support
//! counting is order-independent, so the mined state must not move.

use fup_core::service::{CommitPolicy, MaintainerService};
use fup_core::{Maintainer, UpdatePolicy};
use fup_datagen::{generate_multi_split, GenParams};
use fup_mining::{CountingBackend, MinConfidence, MinSupport};
use fup_tidb::{Tid, Transaction, UpdateBatch};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

fn workload(seed: u64) -> (Vec<Transaction>, Vec<Vec<Transaction>>) {
    let params = GenParams {
        num_transactions: 1_500,
        increment_size: 0,
        num_items: 200,
        num_patterns: 150,
        pool_size: 25,
        seed,
        ..GenParams::default()
    };
    let (history, increments) = generate_multi_split(&params, &[60; 16]);
    (
        history.into_transactions(),
        increments
            .into_iter()
            .map(|db| db.into_transactions())
            .collect(),
    )
}

fn build(history: Vec<Transaction>, backend: CountingBackend) -> Maintainer {
    Maintainer::builder()
        .min_support(MinSupport::percent(1))
        .min_confidence(MinConfidence::percent(60))
        .backend(backend)
        .build(history)
        .unwrap()
}

#[test]
fn concurrent_staging_commits_bit_identical_to_serial() {
    let (history, batches) = workload(0xc0ffee);
    for backend in [CountingBackend::HashTree, CountingBackend::Vertical] {
        // Reference: the same batches staged serially, one commit.
        let mut serial = build(history.clone(), backend);
        for batch in &batches {
            serial
                .stage(UpdateBatch::insert_only(batch.clone()))
                .unwrap();
        }
        let serial_report = serial.commit().unwrap();

        for producers in [2usize, 8] {
            let mut concurrent = build(history.clone(), backend);
            let handle = concurrent.stage_handle();
            std::thread::scope(|scope| {
                for worker in 0..producers {
                    let (handle, batches) = (&handle, &batches);
                    scope.spawn(move || {
                        // Round-robin split of the batch stream.
                        for batch in batches.iter().skip(worker).step_by(producers) {
                            handle
                                .stage(UpdateBatch::insert_only(batch.clone()))
                                .unwrap();
                        }
                    });
                }
            });
            let report = concurrent.commit().unwrap();

            assert_eq!(
                report.num_transactions, serial_report.num_transactions,
                "{backend:?}/{producers} producers: transaction counts diverged"
            );
            assert_eq!(
                report.inserted_tids.len(),
                serial_report.inserted_tids.len()
            );
            // Bit-identical mined state: same itemsets, same supports,
            // same rules (RuleSet equality covers confidences).
            assert!(
                concurrent
                    .large_itemsets()
                    .same_itemsets(serial.large_itemsets()),
                "{backend:?}/{producers} producers: {:?}",
                concurrent.large_itemsets().diff(serial.large_itemsets())
            );
            for (itemset, support) in serial.large_itemsets().iter() {
                assert_eq!(
                    concurrent.large_itemsets().support(itemset),
                    Some(support),
                    "{backend:?}/{producers} producers: support of {itemset:?} diverged"
                );
            }
            assert_eq!(
                concurrent.rules(),
                serial.rules(),
                "{backend:?}/{producers} producers: rule sets diverged"
            );
            concurrent.verify_consistency().unwrap();
        }
    }
}

#[test]
fn concurrent_staging_with_deletes_claims_each_tid_once() {
    let (history, batches) = workload(0xdead);
    let mut m = build(history, CountingBackend::HashTree);
    let victims: Vec<_> = m.store().iter().take(64).map(|(tid, _)| tid).collect();
    let handle = m.stage_handle();
    // 8 threads race: everyone tries to delete every victim, and stages
    // one insert batch of its own. Exactly one claim per tid may win.
    let claimed = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for worker in 0..8usize {
            let (handle, victims, claimed, batches) = (&handle, &victims, &claimed, &batches);
            scope.spawn(move || {
                for &tid in victims {
                    if handle.stage(UpdateBatch::delete_only(vec![tid])).is_ok() {
                        claimed.lock().unwrap().push(tid);
                    }
                }
                handle
                    .stage(UpdateBatch::insert_only(batches[worker].clone()))
                    .unwrap();
            });
        }
    });
    let mut claimed = claimed.into_inner().unwrap();
    claimed.sort();
    let mut unique = claimed.clone();
    unique.dedup();
    assert_eq!(claimed.len(), victims.len(), "every victim claimed once");
    assert_eq!(claimed, unique, "no tid claimed twice");

    let report = m.commit().unwrap();
    assert_eq!(report.algorithm, "fup2");
    assert_eq!(
        report.num_transactions,
        1_500 - 64 + 8 * 60,
        "all deletes and all inserts applied"
    );
    m.verify_consistency().unwrap();
}

#[test]
fn service_under_concurrent_producers_and_readers_matches_serial() {
    let (history, batches) = workload(0x5e21);

    // Serial reference: everything in one session, one commit.
    let mut serial = build(history.clone(), CountingBackend::Auto);
    for batch in &batches {
        serial
            .stage(UpdateBatch::insert_only(batch.clone()))
            .unwrap();
    }
    serial.commit().unwrap();

    // Service: 8 producers + 2 snapshot readers while the background
    // committer commits on a pending trigger (so several rounds happen
    // mid-stream), then a final flush.
    let service = MaintainerService::launch(
        build(history, CountingBackend::Auto),
        CommitPolicy::manual()
            .every_ops(150)
            .with_poll_interval(std::time::Duration::from_millis(1)),
    )
    .unwrap();
    let stop_readers = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let (service, stop_readers) = (&service, &stop_readers);
            scope.spawn(move || {
                let mut last_version = 0;
                let mut last_len = 0;
                while !stop_readers.load(Ordering::Relaxed) {
                    let snap = service.snapshot();
                    assert!(snap.version() >= last_version, "versions must not rewind");
                    assert!(
                        snap.num_transactions() >= last_len,
                        "insert-only stream: the database only grows"
                    );
                    // The snapshot is internally consistent mid-commit.
                    for rule in snap.top_k_by_confidence(3) {
                        assert!(snap.support_of(&rule.antecedent).is_some());
                    }
                    last_version = snap.version();
                    last_len = snap.num_transactions();
                }
            });
        }
        // Producers run in a nested scope so the readers (outer scope)
        // observe the flush too before being released.
        std::thread::scope(|producers| {
            for worker in 0..8usize {
                let (service, batches) = (&service, &batches);
                producers.spawn(move || {
                    for batch in batches.iter().skip(worker).step_by(8) {
                        service
                            .stage(UpdateBatch::insert_only(batch.clone()))
                            .unwrap();
                    }
                });
            }
        });
        service.flush().unwrap();
        stop_readers.store(true, Ordering::Relaxed);
    });

    let (maintainer, metrics) = service.shutdown();
    assert_eq!(
        metrics.staged_inserts,
        batches.iter().map(|b| b.len() as u64).sum::<u64>()
    );
    assert_eq!(metrics.committed_inserts, metrics.staged_inserts);
    assert_eq!(metrics.dropped_rounds, 0);
    assert!(metrics.committed_rounds >= 1);

    // Final state is bit-identical to the serial session, regardless of
    // how the stream was partitioned into rounds.
    assert_eq!(maintainer.len(), serial.len());
    assert!(
        maintainer
            .large_itemsets()
            .same_itemsets(serial.large_itemsets()),
        "{:?}",
        maintainer.large_itemsets().diff(serial.large_itemsets())
    );
    for (itemset, support) in serial.large_itemsets().iter() {
        assert_eq!(maintainer.large_itemsets().support(itemset), Some(support));
    }
    assert_eq!(maintainer.rules(), serial.rules());
    maintainer.verify_consistency().unwrap();
}

// --------------------- the bounded pipeline equivalence property ------

/// A random transaction over a small item alphabet (1–6 items of 0..12).
fn arb_transaction() -> impl Strategy<Value = Transaction> {
    proptest::collection::vec(0u32..12, 1..6).prop_map(Transaction::from_items)
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

fn arb_producers() -> impl Strategy<Value = usize> {
    (0usize..3).prop_map(|i| [1usize, 2, 8][i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite: a bursty arrival schedule pushed through the *bounded*
    /// pipeline — a small staging-capacity gate with blocking producers,
    /// chunked commit rounds, and (when the policy crosses the §4.5
    /// break-even) the forced re-mine routing — commits itemsets and
    /// rules bit-identical to an unbounded serial session staging the
    /// same batches, across backends × producer counts {1, 2, 8}.
    #[test]
    fn bursty_bounded_pipeline_matches_unbounded_serial(
        history in proptest::collection::vec(arb_transaction(), 0..40),
        insert_bursts in proptest::collection::vec(
            proptest::collection::vec(arb_transaction(), 0..5), 4..10),
        delete_seed in proptest::collection::vec(any::<prop::sample::Index>(), 0..6),
        round_cap in 1u64..6,
        backend in arb_backend(),
        producers in arb_producers(),
        force_remine in any::<bool>(),
    ) {
        // A tiny break-even ratio makes nearly every backlog cross the
        // re-mine threshold, exercising the whole-backlog routing; the
        // default policy keeps every round on the capped FUP path.
        let policy = if force_remine {
            UpdatePolicy::RemineOverRatio(0.05)
        } else {
            UpdatePolicy::AlwaysIncremental
        };
        let build = |history: Vec<Transaction>| {
            Maintainer::builder()
                .min_support(MinSupport::percent(5))
                .min_confidence(MinConfidence::percent(60))
                .backend(backend)
                .policy(policy)
                .build(history)
                .unwrap()
        };

        // Distinct delete victims from the history, dealt round-robin
        // across the bursts so concurrent claims never collide.
        let mut serial = build(history.clone());
        let tids: Vec<Tid> = serial.store().iter().map(|(tid, _)| tid).collect();
        let mut victims: Vec<Tid> = delete_seed
            .iter()
            .filter(|_| !tids.is_empty())
            .map(|ix| tids[ix.index(tids.len())])
            .collect();
        victims.sort();
        victims.dedup();
        let mut batches: Vec<UpdateBatch> = insert_bursts
            .into_iter()
            .map(|inserts| UpdateBatch { inserts, deletes: vec![] })
            .collect();
        let num_batches = batches.len();
        for (i, tid) in victims.into_iter().enumerate() {
            batches[i % num_batches].deletes.push(tid);
        }

        // Unbounded serial reference: stage everything, one commit.
        for batch in &batches {
            serial.stage(batch.clone()).unwrap();
        }
        serial.commit().unwrap();

        // The bounded pipeline: the capacity gate blocks producers, the
        // pending trigger keeps the committer draining in capped rounds,
        // and the final flush covers the stragglers.
        let capacity = 16;
        let service = MaintainerService::launch(
            build(history),
            CommitPolicy::manual()
                .every_ops(4)
                .ops_per_round(round_cap)
                .staging_capacity(capacity)
                .with_poll_interval(std::time::Duration::from_millis(1)),
        )
        .unwrap();
        std::thread::scope(|scope| {
            for worker in 0..producers {
                let (service, batches) = (&service, &batches);
                scope.spawn(move || {
                    for batch in batches.iter().skip(worker).step_by(producers) {
                        service.stage(batch.clone()).unwrap();
                    }
                });
            }
        });
        service.flush().unwrap();
        let (maintainer, metrics) = service.shutdown();
        prop_assert_eq!(metrics.dropped_rounds, 0);
        prop_assert!(
            metrics.max_backlog_ops <= capacity,
            "the backlog must stay within the {} op capacity (saw {})",
            capacity,
            metrics.max_backlog_ops
        );
        if !force_remine {
            // Batches are atomic, so one batch larger than the cap forms
            // its own round; the bound is max(cap, largest batch).
            let largest_batch = batches
                .iter()
                .map(|b| (b.inserts.len() + b.deletes.len()) as u64)
                .max()
                .unwrap_or(0);
            prop_assert!(
                metrics.max_round_ops <= round_cap.max(largest_batch),
                "incremental rounds must respect the {} op cap (saw {})",
                round_cap,
                metrics.max_round_ops
            );
        }

        prop_assert_eq!(maintainer.len(), serial.len());
        prop_assert!(
            maintainer
                .large_itemsets()
                .same_itemsets(serial.large_itemsets()),
            "{:?}",
            maintainer.large_itemsets().diff(serial.large_itemsets())
        );
        for (itemset, support) in serial.large_itemsets().iter() {
            prop_assert_eq!(maintainer.large_itemsets().support(itemset), Some(support));
        }
        prop_assert_eq!(maintainer.rules(), serial.rules());
        maintainer.verify_consistency().unwrap();
    }
}
