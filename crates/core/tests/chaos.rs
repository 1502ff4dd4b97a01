//! Chaos tests for the self-healing service layer.
//!
//! Three fault families, each compared against an unfaulted oracle:
//!
//! * **Transient storage faults heal and converge:** scripted
//!   [`FlakyStorage`] schedules — every operation class, several
//!   fail-run lengths and arming offsets, seeded random fault rates —
//!   under concurrent producers. The service may degrade, but the heal
//!   probe must bring it back, every producer must land every batch via
//!   [`MaintainerService::stage_with_retry`], and the final state (and
//!   a recovery from the surviving bytes) must equal the unfaulted run.
//! * **Permanent faults degrade to read-only, nobody hangs:** with
//!   fsync failing permanently, every producer — including ones parked
//!   on a full staging gate — returns a typed error, snapshots keep
//!   serving the last acknowledged state, and recovery lands exactly on
//!   that state.
//! * **Committer panic storms are bounded:** each panic inside the
//!   restart budget is healed by a supervised restart (the service
//!   keeps committing afterwards); the panic past the budget is
//!   terminal, with typed refusals, a still-serving snapshot, and no
//!   acknowledged commit lost.

use fup_core::{
    CommitPolicy, HealthState, Maintainer, MaintainerBuilder, MaintainerService, RetryPolicy,
    ServiceError,
};
use fup_mining::{MinConfidence, MinSupport};
use fup_tidb::{
    DurableStorage, FlakyStorage, ItemId, MemStorage, OpClass, Transaction, UpdateBatch,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tx(items: &[u32]) -> Transaction {
    Transaction::from_items(items.iter().copied())
}

fn builder() -> MaintainerBuilder {
    Maintainer::builder()
        .min_support(MinSupport::percent(40))
        .min_confidence(MinConfidence::percent(60))
}

fn history() -> Vec<Transaction> {
    vec![
        tx(&[1, 2, 3]),
        tx(&[1, 2]),
        tx(&[2, 3]),
        tx(&[1, 3]),
        tx(&[4, 5]),
    ]
}

/// The insert-only batches producer `p` stages. Insert-only on purpose:
/// the final database is then a multiset union, identical under every
/// interleaving, so the faulted concurrent run has a well-defined
/// unfaulted oracle.
fn producer_batches(p: u64) -> Vec<UpdateBatch> {
    (0..4u64)
        .map(|i| {
            let k = p * 4 + i;
            UpdateBatch::insert_only(vec![
                tx(&[1 + (k % 5) as u32, 6 + (k % 3) as u32]),
                tx(&[2, 3, 4 + (k % 4) as u32]),
            ])
        })
        .collect()
}

/// The unfaulted oracle: the same history and batches applied on a
/// plain in-memory session, one commit per batch.
fn unfaulted_reference(producers: u64) -> Maintainer {
    let mut m = builder().build(history()).unwrap();
    for p in 0..producers {
        for batch in producer_batches(p) {
            m.apply(batch).unwrap();
        }
    }
    m
}

/// The database as an order-independent multiset: tids are assigned in
/// arrival order (which producer interleavings permute), so states are
/// compared by their sorted transaction contents, never by tid.
fn live_multiset(m: &Maintainer) -> Vec<Vec<ItemId>> {
    let mut live: Vec<Vec<ItemId>> = m.store().iter().map(|(_, t)| t.items().to_vec()).collect();
    live.sort_unstable();
    live
}

fn assert_same_final_state(got: &Maintainer, want: &Maintainer, label: &str) {
    assert!(
        got.large_itemsets().same_itemsets(want.large_itemsets()),
        "[{label}] itemsets diverge from the unfaulted run: {:?}",
        got.large_itemsets().diff(want.large_itemsets())
    );
    assert_eq!(
        got.rules().len(),
        want.rules().len(),
        "[{label}] rule count diverges"
    );
    assert_eq!(
        live_multiset(got),
        live_multiset(want),
        "[{label}] live transactions diverge"
    );
    got.verify_consistency().unwrap();
}

/// Spin until `probe` passes or the deadline expires.
fn wait_for(what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A producer that must land every batch: bounded retries absorb
/// backpressure and degraded windows, and an exhausted budget loops —
/// with a hang deadline — until the heal probe reopens admissions. Any
/// other error is a test failure.
fn pump(service: &MaintainerService, batches: Vec<UpdateBatch>) {
    let deadline = Instant::now() + Duration::from_secs(30);
    for batch in batches {
        loop {
            assert!(
                Instant::now() < deadline,
                "producer wedged: the service never healed"
            );
            match service.stage_with_retry(batch.clone(), RetryPolicy::attempts(5)) {
                Ok(()) => break,
                Err(ServiceError::RetriesExhausted { .. }) => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => panic!("producer hit a non-retryable error: {e}"),
            }
        }
    }
}

/// Flushes until a round covers everything staged, riding out degraded
/// windows (typed, never hanging) and failed rounds in between.
fn flush_until_clean(service: &MaintainerService) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match service.flush() {
            Ok(_) => return,
            Err(ServiceError::Degraded | ServiceError::Commit(_)) => {
                assert!(Instant::now() < deadline, "the service never healed");
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("flush failed with a non-retryable error: {e}"),
        }
    }
}

/// Drives `producers` concurrent pumps against a faulted service, waits
/// for convergence and heal, and checks the shutdown state — and a
/// recovery from the surviving storage bytes — against the unfaulted
/// oracle.
fn converge_and_check(
    service: MaintainerService,
    mem: &Arc<MemStorage>,
    producers: u64,
    label: &str,
) {
    std::thread::scope(|scope| {
        for p in 0..producers {
            let service = &service;
            scope.spawn(move || pump(service, producer_batches(p)));
        }
    });
    flush_until_clean(&service);
    wait_for("the service to heal", || {
        service.health().state == HealthState::Healthy
    });
    assert_eq!(
        service.pending_ops(),
        (0, 0),
        "[{label}] backlog not drained"
    );

    let (maintainer, _metrics) = service.shutdown();
    let reference = unfaulted_reference(producers);
    assert_same_final_state(&maintainer, &reference, label);

    // Every acknowledged commit survives a crash-recovery from the
    // bytes the faulted run actually managed to store.
    let image: Arc<dyn DurableStorage> = Arc::new(MemStorage::from_files(mem.files()));
    let (recovered, _report) = builder().recover(image).unwrap();
    assert_same_final_state(&recovered, &maintainer, &format!("{label} / recovered"));
}

fn chaos_policy() -> CommitPolicy {
    CommitPolicy::default()
        .every_ops(2)
        .with_poll_interval(Duration::from_millis(1))
        .staging_capacity(64)
}

/// Launches a durable service over a scripted [`FlakyStorage`]: after
/// `skip` clean operations of `class`, the next `fail` fail transiently.
fn run_scripted_case(class: OpClass, skip: u64, fail: u64, producers: u64) {
    let mem = Arc::new(MemStorage::new());
    let flaky = Arc::new(FlakyStorage::new(
        Arc::clone(&mem) as Arc<dyn DurableStorage>
    ));
    let session = builder()
        .build_durable(history(), Arc::clone(&flaky) as Arc<dyn DurableStorage>)
        .unwrap();
    let service = MaintainerService::launch(session, chaos_policy()).unwrap();
    // Armed only after the clean build so every case starts from the
    // same durable baseline; the schedule then hits live traffic.
    flaky.fail_after(class, skip, fail);
    let label = format!("{class:?} skip={skip} fail={fail} producers={producers}");
    converge_and_check(service, &mem, producers, &label);
}

/// Transient faults on **every** storage operation class — absorbed
/// within the retry budget (`fail=1,3`) or past it (`fail=6`, forcing a
/// degraded window the probe must heal) — always converge to the
/// unfaulted state. Classes a schedule never reaches (e.g. `Remove`
/// before any checkpoint GC) simply stay armed: the run is then a plain
/// clean-path check.
#[test]
fn transient_faults_on_every_op_class_heal_and_converge() {
    for class in OpClass::ALL {
        for &(skip, fail) in &[(0, 1), (1, 3), (4, 6)] {
            run_scripted_case(class, skip, fail, 2);
        }
    }
}

/// The convergence guarantee is producer-count independent: a single
/// producer and a contending crowd of eight both ride out schedules
/// that exhaust the retry budget.
#[test]
fn transient_faults_converge_with_one_and_eight_producers() {
    for &producers in &[1u64, 8] {
        run_scripted_case(OpClass::Append, 0, 6, producers);
        run_scripted_case(OpClass::Sync, 2, 6, producers);
    }
}

/// Seeded random fault injection: every storage operation fails
/// transiently with probability 1.5% or 5%, across several seeds. No
/// schedule-shaped assumptions — just the invariant: converge, heal,
/// match the oracle. At 1.5% a seed's short run may draw no fault at
/// all; at 5% the three seeds together must draw some.
#[test]
fn seeded_random_fault_rates_converge() {
    for rate_bp in [150, 500] {
        let mut fired = 0;
        for seed in [0xfeed_u64, 0xbeef, 0x5eed_cafe] {
            let mem = Arc::new(MemStorage::new());
            let flaky = Arc::new(FlakyStorage::with_fault_rate(
                Arc::clone(&mem) as Arc<dyn DurableStorage>,
                seed,
                rate_bp,
            ));
            let session = builder()
                .build_durable(history(), Arc::clone(&flaky) as Arc<dyn DurableStorage>)
                .unwrap();
            let service = MaintainerService::launch(session, chaos_policy()).unwrap();
            let label = format!("rate_bp={rate_bp} seed={seed:#x}");
            converge_and_check(service, &mem, 4, &label);
            fired += flaky.faults_injected();
        }
        assert!(rate_bp < 500 || fired > 0, "no fault fired at {rate_bp} bp");
    }
}

/// A permanent storage fault mid-traffic: the service fails to
/// read-only, every producer — including those parked on the full
/// staging gate — returns `ServiceError::Degraded` instead of hanging,
/// the snapshot keeps serving the last acknowledged state, and recovery
/// lands exactly there.
#[test]
fn a_permanent_fault_degrades_to_read_only_with_no_hung_producers() {
    let mem = Arc::new(MemStorage::new());
    let session = builder()
        .build_durable(history(), Arc::clone(&mem) as Arc<dyn DurableStorage>)
        .unwrap();
    // Manual commits and a tiny gate make the parking deterministic:
    // nothing drains until the main thread asks for a round.
    let policy = CommitPolicy::manual()
        .with_poll_interval(Duration::from_millis(1))
        .staging_capacity(4);
    let service = MaintainerService::launch(session, policy).unwrap();

    // One clean acknowledged round first — the state the degraded
    // service must go on serving.
    service
        .stage(UpdateBatch::insert_only(vec![tx(&[1, 2]), tx(&[2, 3])]))
        .unwrap();
    service.flush().unwrap();
    let acked_version = service.snapshot().version();

    // Fill the gate to capacity, then kill fsync permanently.
    for _ in 0..4 {
        service
            .stage(UpdateBatch::insert_only(vec![tx(&[1, 6])]))
            .unwrap();
    }
    mem.set_fail_sync(true);

    let mut outcomes = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for p in 0..8u64 {
            let service = &service;
            handles.push(scope.spawn(move || -> Result<(), ServiceError> {
                // Blocking stages on a full gate: these park until the
                // failed round below closes admissions and wakes them.
                for i in 0..4u64 {
                    service.stage(UpdateBatch::insert_only(vec![tx(&[
                        1 + ((p + i) % 5) as u32,
                        7,
                    ])]))?;
                }
                Ok(())
            }));
        }
        // Give the producers time to park on the gate, then force the
        // round that discovers the permanent fault.
        std::thread::sleep(Duration::from_millis(20));
        let flush_err = service.flush().unwrap_err();
        assert!(
            matches!(flush_err, ServiceError::Degraded | ServiceError::Commit(_)),
            "flush over dead storage must fail typed, got {flush_err:?}"
        );
        // thread::scope joins every producer: a hang here is the bug.
        for handle in handles {
            outcomes.push(handle.join().expect("producer panicked"));
        }
    });
    for outcome in outcomes {
        let err = outcome.expect_err("a producer staged past a permanent storage fault");
        assert!(
            matches!(err, ServiceError::Degraded),
            "parked producers must fail typed with Degraded, got {err:?}"
        );
    }

    // Read-only mode: terminal health, but reads still serve the last
    // acknowledged state.
    assert_eq!(service.health().state, HealthState::Failed);
    let snap = service.snapshot();
    assert_eq!(snap.version(), acked_version);
    assert!(!snap.rules().is_empty());

    // Shutdown completes (no panic: the committer idled, it never
    // died), and recovery from the power-loss image — synced bytes
    // only; the dead fsync pinned everything later in the page cache —
    // lands exactly on the last acknowledged commit.
    let (_maintainer, _metrics) = service.shutdown();
    let image: Arc<dyn DurableStorage> = Arc::new(MemStorage::from_files(mem.synced_files()));
    let (recovered, _report) = builder().recover(image).unwrap();
    assert_eq!(recovered.version(), acked_version);
    let mut reference = builder().build(history()).unwrap();
    reference
        .apply(UpdateBatch::insert_only(vec![tx(&[1, 2]), tx(&[2, 3])]))
        .unwrap();
    assert_same_final_state(&recovered, &reference, "permanent-fault recovery");
}

/// A committer panic storm: each panic inside the restart budget heals
/// through a supervised restart and the service keeps committing; the
/// panic past the budget is terminal — typed refusals, snapshot still
/// serving, every acknowledged commit recoverable.
#[test]
fn a_committer_panic_storm_is_bounded_by_the_restart_budget() {
    let mem = Arc::new(MemStorage::new());
    let session = builder()
        .build_durable(history(), Arc::clone(&mem) as Arc<dyn DurableStorage>)
        .unwrap();
    // Manual policy: rounds run only on `flush`, so each `commit_one`
    // is exactly one version. (An ops trigger would race the flush —
    // the triggered round can cover a pre-flush ticket, making the
    // flush drain an empty backlog as an extra no-op round, which
    // still bumps the version and throws off the reference count.)
    let policy = CommitPolicy::manual()
        .with_poll_interval(Duration::from_millis(1))
        .committer_restarts(2);
    let service = MaintainerService::launch(session, policy).unwrap();

    let mut committed = Vec::new();
    let mut commit_one = |service: &MaintainerService, items: &[u32]| {
        let batch = UpdateBatch::insert_only(vec![tx(items)]);
        committed.push(batch.clone());
        service.stage(batch).unwrap();
        service.flush().unwrap();
    };

    // Two panics, two supervised restarts — and a working service in
    // between each.
    for round in 0..2u64 {
        commit_one(&service, &[1 + round as u32, 6]);
        service.debug_kill_committer();
        wait_for("the supervised restart", || {
            let health = service.health();
            health.committer_restarts == round + 1 && health.state == HealthState::Healthy
        });
    }
    commit_one(&service, &[5, 6]);
    let served = service.snapshot();

    // The third panic exceeds the budget: terminal, typed, still
    // serving.
    service.debug_kill_committer();
    wait_for("the supervisor to give up", || {
        service.health().state == HealthState::Failed
    });
    let err = service
        .stage(UpdateBatch::insert_only(vec![tx(&[1, 2])]))
        .unwrap_err();
    assert!(matches!(err, ServiceError::CommitterGone), "got {err:?}");
    assert!(matches!(service.flush(), Err(ServiceError::CommitterGone)));
    assert_eq!(service.snapshot().version(), served.version());
    assert_eq!(service.health().committer_restarts, 2);

    // Drop (not shutdown) discards the dead pipeline without re-raising
    // its panic; recovery then proves no acknowledged commit was lost.
    drop(service);
    let image: Arc<dyn DurableStorage> = Arc::new(MemStorage::from_files(mem.files()));
    let (recovered, _report) = builder().recover(image).unwrap();
    let mut reference = builder().build(history()).unwrap();
    for batch in committed {
        reference.apply(batch).unwrap();
    }
    assert_eq!(recovered.version(), reference.version());
    assert_same_final_state(&recovered, &reference, "after the panic storm");
}
