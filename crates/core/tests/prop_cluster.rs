//! The cluster runtime is invisible: a process-per-shard [`Cluster`]
//! must publish **bit-identical** itemsets and rules to a flat
//! [`Maintainer`] over the same history and update stream — per-shard
//! support splits are summed by the coordinator, and supports are
//! additive over disjoint tid ranges, so reassociating the sums cannot
//! change any count (count distribution, exactly as in-process
//! sharding).
//!
//! * **Across shard counts:** the same workload replayed under 1, 2,
//!   and 4 shard workers matches one flat reference after every round.
//! * **Across engines:** the flat reference runs backends {HashTree,
//!   Vertical, Auto} — the cluster always counts through the per-shard
//!   vertical indexes, so identity across backends is exactly the
//!   engine-equivalence contract applied over RPC.
//! * **Cross-shard deletes:** stripes of 1 spread consecutive tids, so
//!   deletes routinely land on shards the round's inserts never touch.
//! * **Crash/recovery:** a scripted case kills one worker, shows the
//!   survivors still serving probes and snapshots, then recovers the
//!   worker from its checkpoint + WAL and commits the held backlog —
//!   with no acknowledged commit lost and the final state still
//!   bit-identical to flat.
//! * **Kill sweep:** one worker's storage dies at every operation
//!   budget of a churn script with a checkpoint in it, tearing the fatal
//!   append to 0, 1 or 7 bytes; after each death the worker restarts,
//!   the held work commits, and nothing acknowledged is lost.

use std::sync::Arc;

use fup_core::{Cluster, Error, FupConfig, Maintainer};
use fup_mining::{CountingBackend, MinConfidence, MinSupport};
use fup_tidb::{DurableStorage, MemStorage, ShardSpec, Tid, Transaction, UpdateBatch};
use proptest::prelude::*;

const SHARD_COUNTS: [u32; 3] = [1, 2, 4];

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

fn mem_storages(n: usize) -> Vec<Arc<dyn DurableStorage>> {
    (0..n)
        .map(|_| Arc::new(MemStorage::new()) as Arc<dyn DurableStorage>)
        .collect()
}

fn boot_cluster(shards: u32, history: Vec<Transaction>, minsup: MinSupport) -> Cluster {
    Cluster::bootstrap(
        ShardSpec::striped_with(shards, 1),
        mem_storages(shards as usize),
        history,
        minsup,
        MinConfidence::percent(60),
        FupConfig::default(),
    )
    .unwrap()
}

fn flat_reference(
    history: Vec<Transaction>,
    minsup: MinSupport,
    backend: CountingBackend,
) -> Maintainer {
    Maintainer::builder()
        .min_support(minsup)
        .min_confidence(MinConfidence::percent(60))
        .backend(backend)
        .build(history)
        .unwrap()
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

/// The bit-identity contract: itemsets with their support counts, and
/// strong rules with their exact counts, match the flat reference.
fn assert_bit_identical(cluster: &Cluster, flat: &Maintainer, label: &str) {
    let cs = cluster.snapshot();
    let fs = flat.snapshot();
    assert_eq!(
        cluster.num_transactions(),
        flat.len() as u64,
        "{label}: live size diverges"
    );
    assert_eq!(
        cs.large_itemsets(),
        fs.large_itemsets(),
        "{label}: itemsets/supports diverge"
    );
    assert_eq!(cs.rules(), fs.rules(), "{label}: rules diverge");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random histories and rounds (mixed inserts and cross-shard
    /// deletes), replayed round-for-round under every shard count
    /// against one flat reference per backend.
    #[test]
    fn cluster_sessions_are_bit_identical_to_flat(
        history in arb_db(12),
        rounds in proptest::collection::vec(
            (arb_db(5), proptest::collection::vec(any::<prop::sample::Index>(), 0..4)),
            0..3,
        ),
        minsup in arb_minsup(),
        backend in arb_backend(),
    ) {
        let mut flat = flat_reference(history.clone(), minsup, backend);
        let mut clusters: Vec<Cluster> = SHARD_COUNTS
            .iter()
            .map(|&s| boot_cluster(s, history.clone(), minsup))
            .collect();
        for c in &clusters {
            assert_bit_identical(c, &flat, "bootstrap");
        }

        let mut live: Vec<Tid> = (0..history.len() as u64).map(Tid).collect();
        let mut next_tid = history.len() as u64;
        for (round, (inserts, delete_seed)) in rounds.into_iter().enumerate() {
            let batch = UpdateBatch {
                inserts,
                deletes: pick_deletes(&live, &delete_seed),
            };
            live.retain(|t| !batch.deletes.contains(t));
            live.extend((0..batch.inserts.len() as u64).map(|i| Tid(next_tid + i)));
            next_tid += batch.inserts.len() as u64;

            let reference = flat.apply(batch.clone()).unwrap();
            for (c, &shards) in clusters.iter_mut().zip(&SHARD_COUNTS) {
                let report = c.apply(batch.clone()).unwrap();
                let label = format!("round {round}, {shards} shard worker(s)");
                prop_assert_eq!(report.algorithm, reference.algorithm, "{}", &label);
                prop_assert_eq!(
                    &report.inserted_tids, &reference.inserted_tids, "{}", &label
                );
                prop_assert_eq!(
                    report.num_transactions, reference.num_transactions, "{}", &label
                );
                assert_bit_identical(c, &flat, &label);
            }
        }
        for c in clusters {
            c.shutdown();
        }
    }
}

/// The issue's crash script, end to end through the public API: one
/// worker is killed mid-stream. The cluster fails rounds fast while
/// holding the staged work, the surviving shard keeps answering probes
/// and the published snapshot keeps serving reads; after a restart the
/// worker recovers everything it acknowledged from its checkpoint + WAL
/// (the bootstrap load **and** a post-checkpoint committed round), the
/// held backlog commits, and the result is bit-identical to flat.
#[test]
fn kill_one_worker_recovery_loses_nothing() {
    let tx = |items: &[u32]| Transaction::from_items(items.iter().copied());
    let history: Vec<Transaction> = (0..8u32).map(|i| tx(&[i % 3, 3 + (i % 4), 10])).collect();
    let minsup = MinSupport::percent(25);
    let mut cluster = boot_cluster(2, history.clone(), minsup);
    let mut flat = flat_reference(history.clone(), minsup, CountingBackend::Auto);

    // An acknowledged round after the bootstrap checkpoint: it exists
    // only in the workers' WALs, so recovery must replay it.
    let committed = UpdateBatch {
        inserts: vec![tx(&[0, 3, 10]), tx(&[1, 4])],
        deletes: vec![Tid(2), Tid(7)],
    };
    cluster.apply(committed.clone()).unwrap();
    flat.apply(committed).unwrap();
    let acknowledged = cluster.snapshot();
    let probe_before = cluster.probe(1).unwrap();

    cluster.kill_worker(1);
    assert!(!cluster.worker_up(1));

    // Staged work is held, not lost: the commit fails fast.
    cluster
        .stage(UpdateBatch::insert_only(vec![tx(&[0, 1, 10])]))
        .unwrap();
    let err = cluster.commit().unwrap_err();
    assert!(matches!(err, Error::WorkerDown { shard: 1, .. }), "{err}");

    // Surviving shard serves probes; snapshots serve reads throughout.
    assert!(cluster.probe(0).unwrap().live > 0);
    assert_eq!(cluster.snapshot().rules(), acknowledged.rules());

    // Rejoin from checkpoint + WAL: the acknowledged round is intact.
    cluster.restart_worker(1).unwrap();
    assert_eq!(cluster.probe(1).unwrap(), probe_before);

    // The held backlog commits now, and identity with flat still holds.
    cluster.commit().unwrap();
    flat.apply(UpdateBatch::insert_only(vec![tx(&[0, 1, 10])]))
        .unwrap();
    let (cs, fs) = (cluster.snapshot(), flat.snapshot());
    assert_eq!(cs.large_itemsets(), fs.large_itemsets());
    assert_eq!(cs.rules(), fs.rules());
    assert_eq!(cluster.num_transactions(), flat.len() as u64);
    cluster.shutdown();
}

/// Live rows across every worker, by probe.
fn workers_live(cluster: &Cluster) -> u64 {
    (0..cluster.num_shards())
        .map(|s| cluster.probe(s).unwrap().live)
        .sum()
}

/// The flat reference and its live tids: what the acknowledged rounds
/// leave behind.
struct Reference {
    flat: Maintainer,
    live: Vec<Tid>,
}

impl Reference {
    fn acknowledge(&mut self, batch: UpdateBatch) {
        let report = self.flat.apply(batch.clone()).unwrap();
        self.live.retain(|t| !batch.deletes.contains(t));
        self.live.extend(report.inserted_tids);
    }
}

/// The op-budget kill sweep of `prop_recovery`, run against a worker
/// namespace: worker 1's `MemStorage` dies after `budget` mutating
/// operations of a script of three churn rounds and one checkpoint,
/// tearing the fatal append to `tear` bytes. The storage then revives,
/// the worker restarts, and the held work (if the dead operation was a
/// round) commits; the script carries on. At every budget no
/// acknowledged round is lost — the workers hold exactly the flat
/// reference's rows — and the cluster stays bit-identical to flat.
#[test]
fn worker_op_budget_kill_sweep_loses_no_acknowledged_round() {
    let tx = |items: &[u32]| Transaction::from_items(items.iter().copied());
    let history: Vec<Transaction> = (0..12u32)
        .map(|i| tx(&[i % 3, 3 + (i % 4), 7 + (i % 2)]))
        .collect();
    let minsup = MinSupport::percent(25);
    for tear in [0usize, 1, 7] {
        for budget in 0u64.. {
            assert!(budget < 200, "the script never outlived the fault");
            let storage = Arc::new(MemStorage::new());
            let mut cluster = Cluster::bootstrap(
                ShardSpec::striped_with(2, 1),
                vec![
                    Arc::new(MemStorage::new()) as Arc<dyn DurableStorage>,
                    Arc::clone(&storage) as Arc<dyn DurableStorage>,
                ],
                history.clone(),
                minsup,
                MinConfidence::percent(60),
                FupConfig::default(),
            )
            .unwrap();
            let mut reference = Reference {
                flat: flat_reference(history.clone(), minsup, CountingBackend::Auto),
                live: (0..history.len() as u64).map(Tid).collect(),
            };
            storage.fail_after(budget, tear);
            let mut fired = false;
            for step in 0..4u32 {
                let label = format!("tear {tear}, budget {budget}, step {step}");
                let held = if step == 2 {
                    let _ = cluster.checkpoint();
                    None
                } else {
                    // Churn: delete the two oldest live rows, insert three.
                    let batch = UpdateBatch {
                        inserts: (0..3u32)
                            .map(|i| tx(&[(step + i) % 3, 3 + (step * 3 + i) % 4, 9]))
                            .collect(),
                        deletes: reference.live[..2].to_vec(),
                    };
                    match cluster.apply(batch.clone()) {
                        Ok(_) => {
                            reference.acknowledge(batch);
                            None
                        }
                        Err(_) => Some(batch),
                    }
                };
                if !fired && storage.faults_fired() > 0 {
                    fired = true;
                    storage.revive();
                    cluster.kill_worker(1);
                    cluster
                        .restart_worker(1)
                        .unwrap_or_else(|e| panic!("{label}: restart: {e}"));
                    if let Some(batch) = held {
                        cluster
                            .commit()
                            .unwrap_or_else(|e| panic!("{label}: held work: {e}"));
                        reference.acknowledge(batch);
                    }
                    assert_eq!(
                        workers_live(&cluster),
                        reference.flat.len() as u64,
                        "{label}"
                    );
                    assert_bit_identical(&cluster, &reference.flat, &label);
                } else {
                    assert!(held.is_none(), "{label}: a round failed without a fault");
                }
            }
            let label = format!("tear {tear}, budget {budget}, end");
            assert_eq!(
                workers_live(&cluster),
                reference.flat.len() as u64,
                "{label}"
            );
            assert_bit_identical(&cluster, &reference.flat, &label);
            cluster.shutdown();
            if !fired {
                // Three rounds of stage + decide (an append and a sync
                // each) and a checkpoint's three writes: 15 operations.
                assert_eq!(budget, 15, "tear {tear}: the sweep's reach changed");
                break;
            }
        }
    }
}
