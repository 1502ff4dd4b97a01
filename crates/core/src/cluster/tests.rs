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
fn capped_cluster_matches_a_capped_flat_session() {
    // At 25 % the history holds {1, 2, 3} twice, so an uncapped mine
    // reaches level 3; `max_k: Some(2)` must stop both sessions' mines —
    // the bootstrap and a policy re-mine — at pairs.
    assert_eq!(flat().large_itemsets().max_size(), 3);
    let capped = FupConfig {
        max_k: Some(2),
        ..FupConfig::default()
    };
    let mut c = Cluster::bootstrap(
        ShardSpec::striped_with(2, 1),
        mem_storages(2),
        history(),
        MinSupport::percent(25),
        MinConfidence::percent(60),
        capped.clone(),
    )
    .unwrap();
    let mut m = Maintainer::builder()
        .min_support(MinSupport::percent(25))
        .min_confidence(MinConfidence::percent(60))
        .fup_config(capped)
        .build(history())
        .unwrap();
    assert_identical(&c, &m);
    assert_eq!(c.snapshot().large_itemsets().max_size(), 2);
    c.set_policy(UpdatePolicy::AlwaysRemine);
    m.set_policy(UpdatePolicy::AlwaysRemine).unwrap();
    let batch = UpdateBatch::insert_only(vec![tx(&[1, 2, 3]), tx(&[1, 2, 3, 5])]);
    let cr = c.apply(batch.clone()).unwrap();
    let mr = m.apply(batch).unwrap();
    assert_eq!(cr.algorithm, "apriori-remine");
    assert_eq!(mr.algorithm, "apriori-remine");
    assert_identical(&c, &m);
    assert_eq!(c.snapshot().large_itemsets().max_size(), 2);
    assert_eq!(m.large_itemsets().max_size(), 2);
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
fn a_poisoned_transport_fails_its_shard_typed() {
    // A panic mid-exchange poisons the worker's transport lock and may
    // leave a reply unread. The coordinator reports that shard down
    // rather than panicking or pairing a stale reply with a new request.
    let mut c = cluster(ShardSpec::striped_with(2, 1));
    std::thread::scope(|scope| {
        let transport = &c.workers[1].transport;
        let poisoner = scope.spawn(move || {
            let _exchange = transport.lock().unwrap();
            panic!("panic mid-exchange");
        });
        assert!(poisoner.join().is_err());
    });
    let err = c.probe(1).unwrap_err();
    assert!(matches!(err, Error::WorkerDown { shard: 1, .. }), "{err}");
    c.stage(UpdateBatch::insert_only(vec![tx(&[1, 2, 3])]))
        .unwrap();
    let err = c.commit().unwrap_err();
    assert!(matches!(err, Error::WorkerDown { shard: 1, .. }), "{err}");
    assert!(!c.worker_up(1));
    assert!(c.probe(0).is_ok());

    // A restart replaces the transport, and the held work commits.
    c.restart_worker(1).unwrap();
    let report = c.commit().unwrap();
    assert_eq!(report.num_transactions, history().len() as u64 + 1);
    let mut m = flat();
    m.apply(UpdateBatch::insert_only(vec![tx(&[1, 2, 3])]))
        .unwrap();
    assert_identical(&c, &m);
    c.shutdown();
}

/// A two-worker cluster over `MemStorage`s the test keeps handles on.
fn cluster_on(storages: &[Arc<MemStorage>]) -> Cluster {
    Cluster::bootstrap(
        ShardSpec::striped_with(storages.len() as u32, 1),
        storages
            .iter()
            .map(|s| Arc::clone(s) as Arc<dyn DurableStorage>)
            .collect(),
        history(),
        MinSupport::percent(25),
        MinConfidence::percent(60),
        FupConfig::default(),
    )
    .unwrap()
}

fn mem_handles(n: usize) -> Vec<Arc<MemStorage>> {
    (0..n).map(|_| Arc::new(MemStorage::new())).collect()
}

/// Every checkpoint file in `storage`, oldest first.
fn checkpoint_files(storage: &MemStorage) -> Vec<String> {
    let mut names: Vec<String> = storage
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| n.starts_with("ckpt-"))
        .collect();
    names.sort();
    names
}

fn flip_last_byte(storage: &MemStorage, file: &str) {
    storage.flip_byte(file, storage.file(file).unwrap().len() - 1);
}

#[test]
fn failed_worker_recovery_reaches_the_coordinator() {
    let storages = mem_handles(2);
    let mut c = cluster_on(&storages);
    let mut m = flat();
    // An acknowledged round, a checkpoint (a delta on the bootstrap's
    // full image), and another round in the fresh WAL segment.
    let b1 = UpdateBatch {
        inserts: vec![tx(&[1, 2, 5]), tx(&[3, 5])],
        deletes: vec![Tid(0), Tid(3)],
    };
    c.apply(b1.clone()).unwrap();
    m.apply(b1).unwrap();
    c.checkpoint().unwrap();
    let b2 = UpdateBatch::insert_only(vec![tx(&[2, 4, 5])]);
    c.apply(b2.clone()).unwrap();
    m.apply(b2).unwrap();

    // A flipped byte in the newest checkpoint: recovery falls back to
    // the retained full image and replays both WAL segments.
    let newest = checkpoint_files(&storages[1]).pop().unwrap();
    let before = c.probe(1).unwrap();
    flip_last_byte(&storages[1], &newest);
    c.kill_worker(1);
    c.restart_worker(1).unwrap();
    assert_eq!(c.probe(1).unwrap(), before);
    let b3 = UpdateBatch {
        inserts: vec![tx(&[1, 4])],
        deletes: vec![Tid(9)],
    };
    c.apply(b3.clone()).unwrap();
    m.apply(b3).unwrap();
    assert_identical(&c, &m);

    // Only a namespace whose every checkpoint is corrupt stays down,
    // and the reason reaches the coordinator.
    for file in checkpoint_files(&storages[1]) {
        if file != newest {
            flip_last_byte(&storages[1], &file);
        }
    }
    c.kill_worker(1);
    let err = c.restart_worker(1).unwrap_err();
    match &err {
        Error::WorkerDown { shard: 1, reason } => {
            assert!(reason.contains("no checkpoint chain validates"), "{reason}")
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
fn torn_stage_append_loses_no_later_commit() {
    let storages = mem_handles(2);
    let mut c = cluster_on(&storages);
    let mut m = flat();
    // Worker 1's next mutating op is the round's stage append: tear it
    // after 5 bytes and kill the medium.
    storages[1].fail_after(0, 5);
    let held = UpdateBatch {
        inserts: vec![tx(&[1, 2, 5]), tx(&[3, 5])],
        deletes: vec![Tid(1)],
    };
    let err = c.apply(held.clone()).unwrap_err();
    assert!(matches!(err, Error::WorkerDown { shard: 1, .. }), "{err}");
    storages[1].revive();
    c.restart_worker(1).unwrap();

    // The held batch commits: an acknowledged round, logged after the
    // recovery that dropped the torn tail.
    c.commit().unwrap();
    m.apply(held).unwrap();
    let before = c.probe(1).unwrap();
    c.kill_worker(1);
    c.restart_worker(1).unwrap();
    assert_eq!(
        c.probe(1).unwrap(),
        before,
        "an acknowledged round was lost"
    );
    let b = UpdateBatch {
        inserts: vec![tx(&[2, 3, 5])],
        deletes: vec![Tid(3), Tid(9)],
    };
    c.apply(b.clone()).unwrap();
    m.apply(b).unwrap();
    assert_identical(&c, &m);
    c.shutdown();
}

/// Shared by every worker's [`RendezvousStorage`]: once armed, each
/// worker's first WAL append waits (for at most five seconds) until every
/// worker has made one. A wait that times out is a miss.
#[derive(Debug)]
struct Rendezvous {
    parties: usize,
    gate: std::sync::Mutex<Gate>,
    arrived: std::sync::Condvar,
}

#[derive(Debug, Default)]
struct Gate {
    armed: bool,
    arrived: usize,
    missed: usize,
}

impl Rendezvous {
    fn new(parties: usize) -> Arc<Rendezvous> {
        Arc::new(Rendezvous {
            parties,
            gate: std::sync::Mutex::new(Gate::default()),
            arrived: std::sync::Condvar::new(),
        })
    }

    fn arm(&self) {
        self.gate.lock().unwrap().armed = true;
    }

    fn missed(&self) -> usize {
        self.gate.lock().unwrap().missed
    }

    /// Waits for the other parties unless this storage already passed.
    fn arrive(&self, passed: &std::sync::atomic::AtomicBool) {
        let mut gate = self.gate.lock().unwrap();
        if !gate.armed || passed.swap(true, std::sync::atomic::Ordering::SeqCst) {
            return;
        }
        gate.arrived += 1;
        self.arrived.notify_all();
        let timeout = std::time::Duration::from_secs(5);
        let (mut gate, waited) = (self.arrived)
            .wait_timeout_while(gate, timeout, |g| g.arrived < self.parties)
            .unwrap();
        if waited.timed_out() {
            gate.missed += 1;
        }
    }
}

/// A worker's [`MemStorage`] behind its [`Rendezvous`].
#[derive(Debug)]
struct RendezvousStorage {
    inner: MemStorage,
    rendezvous: Arc<Rendezvous>,
    passed: std::sync::atomic::AtomicBool,
}

impl DurableStorage for RendezvousStorage {
    fn append(&self, file: &str, bytes: &[u8]) -> fup_tidb::Result<()> {
        self.rendezvous.arrive(&self.passed);
        self.inner.append(file, bytes)
    }
    fn sync(&self, file: &str) -> fup_tidb::Result<()> {
        self.inner.sync(file)
    }
    fn write_atomic(&self, file: &str, content: &[u8]) -> fup_tidb::Result<()> {
        self.inner.write_atomic(file, content)
    }
    fn read(&self, file: &str) -> fup_tidb::Result<Option<Vec<u8>>> {
        self.inner.read(file)
    }
    fn list(&self) -> fup_tidb::Result<Vec<String>> {
        self.inner.list()
    }
    fn remove(&self, file: &str) -> fup_tidb::Result<()> {
        self.inner.remove(file)
    }
}

#[test]
fn a_round_reaches_every_worker_before_the_coordinator_waits() {
    // Each worker's stage append waits for the other's: a coordinator
    // that waited on worker 0's reply before asking worker 1 would leave
    // worker 0 waiting out its timeout.
    let rendezvous = Rendezvous::new(2);
    let storages = (0..2)
        .map(|_| {
            Arc::new(RendezvousStorage {
                inner: MemStorage::new(),
                rendezvous: Arc::clone(&rendezvous),
                passed: Default::default(),
            }) as Arc<dyn DurableStorage>
        })
        .collect();
    let mut c = Cluster::bootstrap(
        ShardSpec::striped_with(2, 1),
        storages,
        history(),
        MinSupport::percent(25),
        MinConfidence::percent(60),
        FupConfig::default(),
    )
    .unwrap();
    let mut m = flat();
    rendezvous.arm();
    let churn = UpdateBatch {
        inserts: vec![tx(&[1, 2, 5]), tx(&[3, 5])],
        deletes: vec![Tid(0), Tid(1)],
    };
    c.apply(churn.clone()).unwrap();
    m.apply(churn).unwrap();
    assert_eq!(rendezvous.missed(), 0, "the stage was not scattered");
    assert_identical(&c, &m);
    c.shutdown();
}

#[test]
fn a_stage_refused_by_a_lower_shard_aborts_on_the_others() {
    let storages = mem_handles(2);
    let mut c = cluster_on(&storages);
    let mut m = flat();
    // Shard 0's next mutating op is the round's stage append: kill its
    // medium there, while shard 1 stages the round.
    storages[0].fail_after(0, 0);
    let held = UpdateBatch {
        inserts: vec![tx(&[1, 2, 5]), tx(&[3, 5])],
        deletes: vec![Tid(1), Tid(2)],
    };
    let round = c.decided.0 + 1;
    let err = c.apply(held.clone()).unwrap_err();
    assert!(matches!(err, Error::WorkerDown { shard: 0, .. }), "{err}");
    assert!(!c.worker_up(0));
    // Shard 1 staged the round and then aborted it: its delete of tid 1
    // (local 0) is undone.
    assert_eq!(
        c.probe(1).unwrap(),
        WorkerProbe {
            live: 4,
            decided_round: round,
            staged_round: None,
        }
    );
    storages[0].revive();
    c.restart_worker(0).unwrap();
    c.commit().unwrap();
    m.apply(held).unwrap();
    assert_identical(&c, &m);
    c.shutdown();
}

#[test]
fn checkpoint_with_a_failing_worker_still_checkpoints_the_others() {
    let storages = mem_handles(2);
    let mut c = cluster_on(&storages);
    let b = UpdateBatch::insert_only(vec![tx(&[1, 2, 5]), tx(&[3, 5])]);
    c.apply(b).unwrap();
    let before = checkpoint_files(&storages[1]);
    storages[0].fail_after(0, 0);
    let err = c.checkpoint().unwrap_err();
    assert!(matches!(err, Error::WorkerDown { shard: 0, .. }), "{err}");
    let after = checkpoint_files(&storages[1]);
    assert_ne!(after.last(), before.last(), "shard 1 did not checkpoint");
    let log = durable::load_latest(storages[1].as_ref()).unwrap();
    assert!(log.replay.is_empty(), "shard 1's WAL did not rotate");
    c.shutdown();
}

#[test]
fn rejoin_refuses_a_round_other_than_the_last_decided() {
    let storages = mem_handles(2);
    let mut c = cluster_on(&storages);
    c.kill_worker(1);
    // Leave round 7 staged in worker 1's log behind the coordinator's
    // back; the coordinator's last decision is the bootstrap's round 1.
    let storage = Arc::clone(&storages[1]) as Arc<dyn DurableStorage>;
    let mut w = ShardWorker::recover(1, storage, EngineConfig::default()).unwrap();
    let stage = Message::StageRound {
        round: 7,
        inserts: vec![],
        deletes: vec![Tid(0)],
    };
    assert!(matches!(
        w.handle(&stage).unwrap(),
        Message::StagedOk { round: 7, .. }
    ));
    drop(w);
    let err = c.restart_worker(1).unwrap_err();
    match &err {
        Error::WorkerDown { shard: 1, reason } => {
            assert!(reason.contains("last decided round is 1"), "{reason}")
        }
        other => panic!("expected WorkerDown, got {other}"),
    }
    assert!(!c.worker_up(1));
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
fn checkpoint_rotates_the_wal_and_recovery_reads_it() {
    let mut c = cluster(ShardSpec::striped_with(2, 1));
    let mut m = flat();
    // After bootstrap each worker's newest checkpoint is a full image of
    // its routed history, with nothing left to replay.
    for s in 0..2 {
        let log = durable::load_latest(c.storages[s].as_ref()).unwrap();
        assert_eq!(
            log.chain.root, log.chain.tip.seq,
            "shard {s}: not a full image"
        );
        assert_eq!(log.image.live.len() as u64, c.probe(s).unwrap().live);
        assert!(log.replay.is_empty());
    }
    let b = UpdateBatch {
        inserts: vec![tx(&[1, 2, 3]), tx(&[4, 5])],
        deletes: vec![Tid(1)],
    };
    c.apply(b.clone()).unwrap();
    m.apply(b).unwrap();
    c.checkpoint().unwrap();
    for s in 0..2 {
        // A delta on that image, and a fresh, empty WAL segment.
        let log = durable::load_latest(c.storages[s].as_ref()).unwrap();
        assert_ne!(log.chain.root, log.chain.tip.seq, "shard {s}: not a delta");
        assert!(log.replay.is_empty(), "shard {s}: WAL not rotated");
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
    let mut w = ShardWorker::create(0, Arc::clone(&storage), engine.clone()).unwrap();
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
    // As at bootstrap: the load round is checkpointed.
    assert_eq!(w.handle(&Message::Checkpoint).unwrap(), Message::Ok);

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

    let staged_probe = Message::Health {
        live: 1, // round 2's delete is re-applied while staged
        decided_round: 1,
        staged_round: Some(2),
    };
    let mut w = ShardWorker::recover(0, Arc::clone(&storage), engine.clone()).unwrap();
    assert_eq!(w.handle(&Message::HealthProbe).unwrap(), staged_probe);
    // A second crash between recovery and the decision: the seal holds
    // the round, so it is reported again.
    drop(w);
    let mut w = ShardWorker::recover(0, Arc::clone(&storage), engine.clone()).unwrap();
    assert_eq!(w.handle(&Message::HealthProbe).unwrap(), staged_probe);
    // Commit arm: the staged inserts land, the delete sticks — and a
    // third recovery finds the round decided.
    assert_eq!(
        w.handle(&Message::CommitRound { round: 2 }).unwrap(),
        Message::Ok
    );
    let committed_probe = Message::Health {
        live: 2,
        decided_round: 2,
        staged_round: None,
    };
    assert_eq!(w.handle(&Message::HealthProbe).unwrap(), committed_probe);
    drop(w);
    let mut w = ShardWorker::recover(0, Arc::clone(&storage), engine).unwrap();
    assert_eq!(w.handle(&Message::HealthProbe).unwrap(), committed_probe);

    // Abort arm, from the same storage shape: stage round 3 with a
    // delete, crash, recover, abort — the removed row is restored.
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
    assert_eq!(
        w.handle(&Message::HealthProbe).unwrap(),
        Message::Health {
            live: 2,
            decided_round: 3,
            staged_round: None,
        }
    );
}

#[test]
fn stage_is_idempotent_and_rejects_conflicts() {
    let storage: Arc<dyn DurableStorage> = Arc::new(MemStorage::new());
    let mut w = ShardWorker::create(0, storage, EngineConfig::default()).unwrap();
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
    // So are inserts that skip the shard's next local tid (1).
    let gap = Message::StageRound {
        round: 2,
        inserts: vec![(Tid(2), tx(&[3]))],
        deletes: vec![],
    };
    assert!(matches!(w.handle(&gap).unwrap(), Message::Err(_)));
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

/// A worker that counted an insert-only round through its index and then
/// aborted it keeps no index over rows it does not hold: its slot holds
/// nothing, or exactly a fresh build over its rows.
#[test]
fn an_aborted_round_leaves_the_worker_no_stale_index() {
    let storage: Arc<dyn DurableStorage> = Arc::new(MemStorage::new());
    let engine = EngineConfig::serial();
    let mut w = ShardWorker::create(0, storage, engine.clone()).unwrap();
    let rows = history();
    let n = rows.len() as u64;
    let load = Message::StageRound {
        round: 1,
        inserts: (0..).map(Tid).zip(rows).collect(),
        deletes: vec![],
    };
    assert!(matches!(w.handle(&load).unwrap(), Message::StagedOk { .. }));
    let commit = Message::CommitRound { round: 1 };
    assert_eq!(w.handle(&commit).unwrap(), Message::Ok);

    // An insert-only round counts through the index, then aborts (as
    // when another worker dies mid-count).
    let stage = Message::StageRound {
        round: 2,
        inserts: vec![(Tid(n), tx(&[1, 2])), (Tid(n + 1), tx(&[2, 4]))],
        deletes: vec![],
    };
    assert!(matches!(
        w.handle(&stage).unwrap(),
        Message::StagedOk { .. }
    ));
    let keep = (1..=5).map(ItemId).collect();
    assert_eq!(w.handle(&Message::Engage { keep }).unwrap(), Message::Ok);
    let count = Message::CountSplit {
        k: 2,
        items: vec![ItemId(1), ItemId(2)],
    };
    assert_eq!(w.handle(&count).unwrap(), Message::Splits(vec![(3, 1)]));
    let abort = Message::AbortRound { round: 2 };
    assert_eq!(w.handle(&abort).unwrap(), Message::Ok);

    let drift = w.slot.drift(&w.db, &engine);
    assert!(drift.is_empty(), "stale index after the abort: {drift:?}");
    // Counting without an engaged round is refused, not answered.
    assert!(matches!(w.handle(&count).unwrap(), Message::Err(_)));
}
