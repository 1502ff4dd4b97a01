use super::*;
use crate::session::Maintainer;
use fup_tidb::{MemStorage, TidRange};

fn tx(items: &[u32]) -> Transaction {
    Transaction::from_items(items.iter().copied())
}

fn history() -> Vec<Transaction> {
    vec![
        tx(&[1, 2, 3]),
        tx(&[1, 2]),
        tx(&[2, 3]),
        tx(&[1, 3]),
        tx(&[4, 5]),
        tx(&[1, 2, 3, 4]),
        tx(&[2, 4]),
        tx(&[3, 4, 5]),
    ]
}

fn flat() -> Maintainer {
    Maintainer::builder()
        .min_support(MinSupport::percent(25))
        .min_confidence(MinConfidence::percent(60))
        .build(history())
        .unwrap()
}

fn mem_storages(n: usize) -> Vec<Arc<dyn DurableStorage>> {
    (0..n)
        .map(|_| Arc::new(MemStorage::new()) as Arc<dyn DurableStorage>)
        .collect()
}

fn cluster(spec: ShardSpec) -> Cluster {
    let n = spec.num_shards();
    Cluster::bootstrap(
        spec,
        mem_storages(n),
        history(),
        MinSupport::percent(25),
        MinConfidence::percent(60),
        FupConfig::default(),
    )
    .unwrap()
}

/// The two sessions publish the same version and the same itemsets and
/// rules, bit for bit.
fn assert_identical(c: &Cluster, m: &Maintainer) {
    let cs = c.snapshot();
    let ms = m.snapshot();
    assert_eq!(cs.version(), ms.version());
    assert_eq!(c.num_transactions(), m.len() as u64);
    assert_eq!(cs.large_itemsets(), ms.large_itemsets());
    assert_eq!(cs.rules(), ms.rules());
}

#[test]
fn bootstrap_matches_flat_bootstrap() {
    for shards in [1u32, 2, 4] {
        let c = cluster(ShardSpec::striped_with(shards, 1));
        let m = flat();
        assert_eq!(c.version(), 0);
        assert_eq!(c.num_shards(), shards as usize);
        assert_identical(&c, &m);
        let mut live = 0;
        for s in 0..c.num_shards() {
            live += c.probe(s).unwrap().live;
        }
        assert_eq!(live, history().len() as u64);
        c.shutdown();
    }
}

#[test]
fn insert_rounds_identical_across_shard_counts() {
    for shards in [1u32, 2, 4] {
        let mut c = cluster(ShardSpec::striped_with(shards, 1));
        let mut m = flat();
        for round in 0..3u32 {
            let batch =
                UpdateBatch::insert_only(vec![tx(&[1, 2, 4 + round]), tx(&[2, 3]), tx(&[1, 4, 5])]);
            let cr = c.apply(batch.clone()).unwrap();
            let mr = m.apply(batch).unwrap();
            assert_eq!(cr.algorithm, mr.algorithm);
            assert_eq!(cr.algorithm, "fup");
            assert_eq!(cr.inserted_tids, mr.inserted_tids);
            assert_identical(&c, &m);
        }
        c.shutdown();
    }
}

#[test]
fn cross_shard_delete_rounds_identical() {
    for shards in [1u32, 2, 4] {
        let mut c = cluster(ShardSpec::striped_with(shards, 1));
        let mut m = flat();
        // Deletes span every shard of the striped spec; inserts ride
        // along so the round is a mixed FUP2 round.
        let batch = UpdateBatch {
            inserts: vec![tx(&[1, 3, 5]), tx(&[2, 5])],
            deletes: vec![Tid(0), Tid(1), Tid(2), Tid(3)],
        };
        let cr = c.apply(batch.clone()).unwrap();
        let mr = m.apply(batch).unwrap();
        assert_eq!(cr.algorithm, "fup2");
        assert_eq!(mr.algorithm, "fup2");
        assert_identical(&c, &m);
        // And a pure-deletion follow-up.
        let batch = UpdateBatch::delete_only(vec![Tid(5), Tid(8)]);
        c.apply(batch.clone()).unwrap();
        m.apply(batch).unwrap();
        assert_identical(&c, &m);
        c.shutdown();
    }
}

#[test]
fn range_spec_matches_striped_spec() {
    let mut a = cluster(ShardSpec::striped_with(2, 1));
    let mut b = cluster(ShardSpec::ranges(vec![
        TidRange::new(0, 6),
        TidRange::new(6, u64::MAX),
    ]));
    let batch = UpdateBatch {
        inserts: vec![tx(&[1, 2, 5]), tx(&[3, 4])],
        deletes: vec![Tid(2), Tid(7)],
    };
    a.apply(batch.clone()).unwrap();
    b.apply(batch).unwrap();
    let (sa, sb) = (a.snapshot(), b.snapshot());
    assert_eq!(sa.large_itemsets(), sb.large_itemsets());
    assert_eq!(sa.rules(), sb.rules());
    a.shutdown();
    b.shutdown();
}

#[test]
fn remine_policy_round_identical() {
    let mut c = cluster(ShardSpec::striped_with(2, 1));
    let mut m = flat();
    c.set_policy(UpdatePolicy::AlwaysRemine);
    m.set_policy(UpdatePolicy::AlwaysRemine).unwrap();
    let batch = UpdateBatch {
        inserts: vec![tx(&[1, 2, 3]), tx(&[4, 5])],
        deletes: vec![Tid(4)],
    };
    let cr = c.apply(batch.clone()).unwrap();
    let mr = m.apply(batch).unwrap();
    assert_eq!(cr.algorithm, "apriori-remine");
    assert_eq!(mr.algorithm, "apriori-remine");
    assert_identical(&c, &m);
    c.shutdown();
}

#[test]
fn killed_worker_fails_fast_and_survivors_keep_serving() {
    let mut c = cluster(ShardSpec::striped_with(2, 1));
    let v0 = c.snapshot();
    c.kill_worker(1);
    assert!(!c.worker_up(1));
    assert!(c.worker_up(0));

    // Staging still admits work; committing fails fast and holds it.
    c.stage(UpdateBatch::insert_only(vec![tx(&[1, 2, 3])]))
        .unwrap();
    let err = c.commit().unwrap_err();
    assert!(matches!(err, Error::WorkerDown { shard: 1, .. }), "{err}");
    assert!(c.staging.has_pending() || c.retry.is_some());

    // Surviving shard answers probes; the published snapshot (and older
    // handles) keep serving reads.
    let probe = c.probe(0).unwrap();
    assert!(probe.live > 0);
    assert!(c.probe(1).is_err());
    assert_eq!(c.snapshot().rules(), v0.rules());

    // Rejoin: recovery from checkpoint + WAL, then the held work commits.
    c.restart_worker(1).unwrap();
    assert!(c.worker_up(1));
    let report = c.commit().unwrap();
    assert_eq!(report.num_transactions, history().len() as u64 + 1);

    // The recovered cluster is still bit-identical to flat.
    let mut m = flat();
    m.apply(UpdateBatch::insert_only(vec![tx(&[1, 2, 3])]))
        .unwrap();
    assert_identical(&c, &m);
    c.shutdown();
}

#[test]
fn failed_worker_recovery_reaches_the_coordinator() {
    let storages: Vec<Arc<MemStorage>> = (0..2).map(|_| Arc::new(MemStorage::new())).collect();
    let mut c = Cluster::bootstrap(
        ShardSpec::striped_with(2, 1),
        storages
            .iter()
            .map(|s| Arc::clone(s) as Arc<dyn DurableStorage>)
            .collect(),
        history(),
        MinSupport::percent(25),
        MinConfidence::percent(60),
        FupConfig::default(),
    )
    .unwrap();
    let len = storages[1].read(CHECKPOINT_FILE).unwrap().unwrap().len();
    storages[1].flip_byte(CHECKPOINT_FILE, len - 1);
    c.kill_worker(1);

    let err = c.restart_worker(1).unwrap_err();
    match &err {
        Error::WorkerDown { shard: 1, reason } => {
            assert!(reason.contains("malformed checkpoint"), "{reason}")
        }
        other => panic!("expected WorkerDown, got {other}"),
    }
    assert!(!c.worker_up(1));
    assert!(c.probe(0).unwrap().live > 0);
    c.stage(UpdateBatch::insert_only(vec![tx(&[1, 2])]))
        .unwrap();
    let err = c.commit().unwrap_err();
    assert!(matches!(err, Error::WorkerDown { shard: 1, .. }), "{err}");
    // A second attempt reaches the same worker error, not a hang.
    let err = c.restart_worker(1).unwrap_err();
    assert!(matches!(err, Error::WorkerDown { shard: 1, .. }), "{err}");
    c.shutdown();
}

#[test]
fn acknowledged_commits_survive_kill_and_restart() {
    let mut c = cluster(ShardSpec::striped_with(2, 1));
    let mut m = flat();
    // Two acknowledged rounds after the bootstrap checkpoint: both live
    // only in the workers' WALs.
    let b1 = UpdateBatch::insert_only(vec![tx(&[1, 2, 5]), tx(&[3, 5])]);
    let b2 = UpdateBatch {
        inserts: vec![tx(&[2, 4, 5])],
        deletes: vec![Tid(0), Tid(3)],
    };
    c.apply(b1.clone()).unwrap();
    m.apply(b1).unwrap();
    c.apply(b2.clone()).unwrap();
    m.apply(b2).unwrap();

    let before: Vec<WorkerProbe> = (0..2).map(|s| c.probe(s).unwrap()).collect();
    for (s, probe) in before.iter().enumerate() {
        c.kill_worker(s);
        c.restart_worker(s).unwrap();
        assert_eq!(c.probe(s).unwrap(), *probe, "shard {s}");
    }

    // Post-recovery rounds still match flat — nothing was lost.
    let b3 = UpdateBatch::insert_only(vec![tx(&[1, 4])]);
    c.apply(b3.clone()).unwrap();
    m.apply(b3).unwrap();
    assert_identical(&c, &m);
    c.shutdown();
}

#[test]
fn checkpoint_truncates_wal_and_recovery_reads_it() {
    let mut c = cluster(ShardSpec::striped_with(2, 1));
    let mut m = flat();
    let b = UpdateBatch {
        inserts: vec![tx(&[1, 2, 3]), tx(&[4, 5])],
        deletes: vec![Tid(1)],
    };
    c.apply(b.clone()).unwrap();
    m.apply(b).unwrap();
    c.checkpoint().unwrap();
    for s in 0..2 {
        assert!(
            c.storages[s].read(WAL_FILE).unwrap().is_none(),
            "shard {s}: WAL not truncated"
        );
        assert!(c.storages[s].read(CHECKPOINT_FILE).unwrap().is_some());
        c.kill_worker(s);
        c.restart_worker(s).unwrap();
    }
    let b = UpdateBatch::insert_only(vec![tx(&[2, 3, 5])]);
    c.apply(b.clone()).unwrap();
    m.apply(b).unwrap();
    assert_identical(&c, &m);
    c.shutdown();
}

#[test]
fn worker_recovers_undecided_staged_round_and_resolves_it() {
    // Worker-level: a round staged (WAL-logged, acknowledged) right
    // before a crash must be re-staged at recovery and complete from
    // the coordinator's phase-2 decision — the acknowledged-commit
    // guarantee of the two-phase protocol.
    let storage: Arc<dyn DurableStorage> = Arc::new(MemStorage::new());
    let engine = EngineConfig::default();
    let mut w = ShardWorker::recover(0, Arc::clone(&storage), engine.clone()).unwrap();
    let base = vec![(Tid(0), tx(&[1, 2])), (Tid(1), tx(&[2, 3]))];
    let stage1 = Message::StageRound {
        round: 1,
        inserts: base.clone(),
        deletes: vec![],
    };
    assert!(matches!(
        w.handle(&stage1).unwrap(),
        Message::StagedOk { round: 1, .. }
    ));
    assert_eq!(
        w.handle(&Message::CommitRound { round: 1 }).unwrap(),
        Message::Ok
    );

    // Round 2 stages (delete + insert) and the worker dies undecided.
    let stage2 = Message::StageRound {
        round: 2,
        inserts: vec![(Tid(2), tx(&[1, 3]))],
        deletes: vec![Tid(0)],
    };
    assert!(matches!(
        w.handle(&stage2).unwrap(),
        Message::StagedOk { round: 2, .. }
    ));
    drop(w);

    let mut w = ShardWorker::recover(0, Arc::clone(&storage), engine.clone()).unwrap();
    match w.handle(&Message::HealthProbe).unwrap() {
        Message::Health {
            live,
            decided_round,
            staged_round,
        } => {
            assert_eq!(live, 1, "round 2's delete is re-applied while staged");
            assert_eq!(decided_round, 1);
            assert_eq!(staged_round, Some(2));
        }
        other => panic!("unexpected probe reply: {other:?}"),
    }
    // Commit arm: the staged inserts land, the delete sticks.
    assert_eq!(
        w.handle(&Message::CommitRound { round: 2 }).unwrap(),
        Message::Ok
    );
    match w.handle(&Message::HealthProbe).unwrap() {
        Message::Health {
            live,
            decided_round,
            staged_round,
        } => {
            assert_eq!((live, decided_round, staged_round), (2, 2, None));
        }
        other => panic!("unexpected probe reply: {other:?}"),
    }
    drop(w);

    // Abort arm, from the same storage shape: stage round 3 with a
    // delete, crash, recover, abort — the removed row is restored.
    let mut w = ShardWorker::recover(0, Arc::clone(&storage), engine).unwrap();
    let stage3 = Message::StageRound {
        round: 3,
        inserts: vec![],
        deletes: vec![Tid(1)],
    };
    assert!(matches!(
        w.handle(&stage3).unwrap(),
        Message::StagedOk { round: 3, .. }
    ));
    drop(w);
    let mut w = ShardWorker::recover(0, Arc::clone(&storage), EngineConfig::default()).unwrap();
    assert_eq!(
        w.handle(&Message::AbortRound { round: 3 }).unwrap(),
        Message::Ok
    );
    match w.handle(&Message::HealthProbe).unwrap() {
        Message::Health {
            live,
            decided_round,
            staged_round,
        } => {
            assert_eq!((live, decided_round, staged_round), (2, 3, None));
        }
        other => panic!("unexpected probe reply: {other:?}"),
    }
}

#[test]
fn stage_is_idempotent_and_rejects_conflicts() {
    let storage: Arc<dyn DurableStorage> = Arc::new(MemStorage::new());
    let mut w = ShardWorker::recover(0, storage, EngineConfig::default()).unwrap();
    let stage = Message::StageRound {
        round: 1,
        inserts: vec![(Tid(0), tx(&[1, 2]))],
        deletes: vec![],
    };
    assert!(matches!(
        w.handle(&stage).unwrap(),
        Message::StagedOk { round: 1, .. }
    ));
    // Re-delivery of the same round answers from the held state.
    assert!(matches!(
        w.handle(&stage).unwrap(),
        Message::StagedOk { round: 1, .. }
    ));
    // A different round is refused while one is staged.
    let other = Message::StageRound {
        round: 2,
        inserts: vec![],
        deletes: vec![],
    };
    assert!(matches!(w.handle(&other).unwrap(), Message::Err(_)));
    // Unknown delete tids are refused before anything is logged.
    assert_eq!(
        w.handle(&Message::CommitRound { round: 1 }).unwrap(),
        Message::Ok
    );
    let bad = Message::StageRound {
        round: 2,
        inserts: vec![],
        deletes: vec![Tid(99)],
    };
    assert!(matches!(w.handle(&bad).unwrap(), Message::Err(_)));
}

#[test]
fn shard_health_reports_ops_backlog_and_state() {
    let mut c = cluster(ShardSpec::striped_with(2, 1));
    let h = c.shard_health();
    assert_eq!(h.len(), 2);
    let total_ops: u64 = h.iter().map(|s| s.ops).sum();
    assert_eq!(total_ops, history().len() as u64, "bootstrap load ops");
    assert!(h.iter().all(|s| s.state == "up" && s.backlog == 0));

    // Pending work is routed prospectively: inserts to the tids the
    // next commit will assign, deletes to their owning shard.
    c.stage(UpdateBatch {
        inserts: vec![tx(&[1, 2]), tx(&[2, 3]), tx(&[3, 4])],
        deletes: vec![Tid(0), Tid(1)],
    })
    .unwrap();
    let h = c.shard_health();
    assert_eq!(h.iter().map(|s| s.backlog).sum::<u64>(), 5);
    assert_eq!(h[0].backlog, 3, "tids 8, 10 route to shard 0, plus Tid(0)");
    assert_eq!(h[1].backlog, 2, "tid 9 routes to shard 1, plus Tid(1)");

    c.kill_worker(1);
    let h = c.shard_health();
    assert_eq!(h[1].state, "down");
    c.restart_worker(1).unwrap();
    c.commit().unwrap();
    let h = c.shard_health();
    assert!(h.iter().all(|s| s.backlog == 0));
    assert_eq!(
        h.iter().map(|s| s.ops).sum::<u64>(),
        history().len() as u64 + 5
    );
    c.shutdown();
}

#[test]
fn backpressure_holds_capacity_across_a_crash() {
    let mut c = cluster(ShardSpec::striped_with(2, 1));
    c.set_staging_capacity(Some(2));
    c.stage(UpdateBatch::insert_only(vec![tx(&[1, 2]), tx(&[2, 3])]))
        .unwrap();
    c.kill_worker(0);
    assert!(c.commit().is_err());
    // The failed round's batch is parked but still occupies the gate:
    // new work bounces instead of growing the backlog unboundedly.
    let err = c
        .try_stage(UpdateBatch::insert_only(vec![tx(&[4, 5])]))
        .unwrap_err();
    assert!(matches!(err, Error::Store(_)), "{err}");
    c.restart_worker(0).unwrap();
    c.commit().unwrap();
    // Capacity came back with the commit.
    c.try_stage(UpdateBatch::insert_only(vec![tx(&[4, 5])]))
        .unwrap();
    c.commit().unwrap();
    c.shutdown();
}

#[test]
fn bootstrap_validates_spec_and_storages() {
    let Err(err) = Cluster::bootstrap(
        ShardSpec::striped_with(2, 1),
        mem_storages(3),
        history(),
        MinSupport::percent(25),
        MinConfidence::percent(60),
        FupConfig::default(),
    ) else {
        panic!("mismatched storage count must be refused");
    };
    assert!(matches!(err, Error::Recovery { .. }), "{err}");

    // A used namespace is refused — recovery into it is restart_worker's
    // job, not bootstrap's.
    let storages = mem_storages(2);
    let c = Cluster::bootstrap(
        ShardSpec::striped_with(2, 1),
        storages.clone(),
        history(),
        MinSupport::percent(25),
        MinConfidence::percent(60),
        FupConfig::default(),
    )
    .unwrap();
    c.shutdown();
    let Err(err) = Cluster::bootstrap(
        ShardSpec::striped_with(2, 1),
        storages,
        history(),
        MinSupport::percent(25),
        MinConfidence::percent(60),
        FupConfig::default(),
    ) else {
        panic!("a non-empty namespace must be refused");
    };
    assert!(matches!(err, Error::Recovery { .. }), "{err}");
}
