//! Crash-recovery properties for durable sessions.
//!
//! * **WAL records round-trip:** every record type survives framing and
//!   is recovered exactly by the scanner, for arbitrary payloads.
//! * **Checkpoints round-trip:** a session checkpointed with arbitrary
//!   history, staged backlog, and committed rounds recovers bit-identical
//!   (itemsets + supports, rules, live set, staged batches).
//! * **Kill anywhere, recover exactly:** a crash at *every byte offset*
//!   of the WAL — and at every storage-operation budget, with torn
//!   appends and failing fsyncs — recovers to a state bit-identical to
//!   the uncrashed run at the last surviving commit boundary, never
//!   panicking and never losing an acknowledged commit. Both sweeps also
//!   run a churn script whose checkpoints are delta chains with deletes
//!   crossing their boundaries and a full image cut among them, written
//!   and recovered at one shard and at four. A third sweep kills a
//!   recovery — inside its seal, a delta on the chain it recovered — and
//!   the commits after it.
//! * **Corrupt checkpoints degrade, not destroy:** a flipped byte in the
//!   newest checkpoint, in a delta in the middle of its chain, or in the
//!   full image the chain starts from falls back to an older checkpoint;
//!   with every checkpoint damaged, recovery fails with a typed error.

use fup_core::{CommitPolicy, DurabilityPolicy, Error, Maintainer, MaintainerService};
use fup_mining::{LargeItemsets, MinConfidence, MinSupport};
use fup_tidb::codec::read_varint64;
use fup_tidb::wal::{self, WalRecord};
use fup_tidb::{DurableStorage, MemStorage, Tid, Transaction, UpdateBatch};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn tx(items: &[u32]) -> Transaction {
    Transaction::from_items(items.iter().copied())
}

fn builder() -> fup_core::MaintainerBuilder {
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

/// A durable workload: the history a session bootstraps from, the rounds
/// committed on top of it (one staged batch each), and the shard counts
/// it is written and recovered under.
struct Script {
    history: Vec<Transaction>,
    rounds: Vec<UpdateBatch>,
    write_shards: u32,
    recover_shards: u32,
}

/// The scripted workload every kill sweep runs: three committed rounds
/// (insert-only, mixed insert+delete, delete-only) and a staged tail that
/// never commits before the crash.
fn basic_script() -> Script {
    Script {
        history: history(),
        rounds: vec![
            UpdateBatch::insert_only(vec![tx(&[1, 2]), tx(&[2, 3, 4])]),
            UpdateBatch {
                inserts: vec![tx(&[1, 2, 3])],
                deletes: vec![Tid(1)],
            },
            UpdateBatch::delete_only(vec![Tid(4)]),
        ],
        write_shards: 1,
        recover_shards: 1,
    }
}

/// Rows of the churn script's history.
const CHURN_HISTORY: u64 = 24;

/// Thirteen churn rounds over a 24-row history: each inserts three rows
/// and deletes the oldest history row and, from the third round on, the
/// first row inserted two rounds before. Checkpointed every round, those
/// deletes cross delta boundaries, the deltas outgrow their full image
/// twice, so full images are cut among them, and the last chain holds
/// several deltas; checkpointed every five rounds, some rows are inserted
/// and deleted inside one delta.
fn churn_script(write_shards: u32, recover_shards: u32) -> Script {
    let shapes: [&[u32]; 6] = [
        &[1, 2, 3],
        &[1, 2],
        &[2, 3, 4],
        &[1, 3, 5],
        &[2, 4],
        &[1, 2, 4, 5],
    ];
    let history = (0..CHURN_HISTORY as usize)
        .map(|i| tx(shapes[i % shapes.len()]))
        .collect();
    let rounds = (0..13u32)
        .map(|r| {
            let mut deletes = vec![Tid(u64::from(r))];
            if r >= 2 {
                deletes.push(Tid(CHURN_HISTORY + 3 * u64::from(r - 2)));
            }
            UpdateBatch {
                inserts: vec![tx(&[1, 2, 3 + r % 5]), tx(&[2, 3]), tx(&[1, 4 + r % 3])],
                deletes,
            }
        })
        .collect();
    Script {
        history,
        rounds,
        write_shards,
        recover_shards,
    }
}

/// One published state of the uncrashed reference run, keyed by version.
struct Reference {
    large: LargeItemsets,
    num_rules: usize,
    live: Vec<(Tid, Transaction)>,
}

/// Runs the script on a plain in-memory session and records the exact
/// published state at every version — the oracle every crash point is
/// compared against.
fn reference_states(script: &Script) -> HashMap<u64, Reference> {
    let mut m = builder().build(script.history.clone()).unwrap();
    let mut states = HashMap::new();
    let mut record = |m: &Maintainer| {
        let mut live: Vec<(Tid, Transaction)> =
            m.store().iter().map(|(t, x)| (t, x.clone())).collect();
        live.sort_unstable_by_key(|&(t, _)| t);
        states.insert(
            m.version(),
            Reference {
                large: m.large_itemsets().clone(),
                num_rules: m.rules().len(),
                live,
            },
        );
    };
    record(&m);
    for batch in script.rounds.clone() {
        m.apply(batch).unwrap();
        record(&m);
    }
    states
}

/// Asserts the recovered session equals the reference run at the version
/// recovery landed on.
fn assert_matches_reference(recovered: &Maintainer, states: &HashMap<u64, Reference>) {
    let reference = states.get(&recovered.version()).unwrap_or_else(|| {
        panic!(
            "recovered to version {} which the uncrashed run never published",
            recovered.version()
        )
    });
    assert!(
        recovered.large_itemsets().same_itemsets(&reference.large),
        "itemsets diverge at version {}: {:?}",
        recovered.version(),
        recovered.large_itemsets().diff(&reference.large)
    );
    assert_eq!(recovered.rules().len(), reference.num_rules);
    let mut live: Vec<(Tid, Transaction)> = recovered
        .store()
        .iter()
        .map(|(t, x)| (t, x.clone()))
        .collect();
    live.sort_unstable_by_key(|&(t, _)| t);
    assert_eq!(live, reference.live, "live set diverges");
    recovered.verify_consistency().unwrap();
}

/// Drives the scripted session against `storage`, ignoring storage
/// failures (the injected kill), and returns how many commits were
/// durably acknowledged.
fn drive_script(script: &Script, storage: Arc<MemStorage>, policy: DurabilityPolicy) -> u64 {
    let mut acked = 0u64;
    let Ok(mut m) = builder()
        .shards(script.write_shards)
        .durability(policy)
        .build_durable(script.history.clone(), storage as Arc<dyn DurableStorage>)
    else {
        return acked;
    };
    for batch in script.rounds.clone() {
        if m.stage(batch).is_err() {
            return acked;
        }
        match m.commit() {
            Ok(_) => acked += 1,
            Err(_) => return acked,
        }
    }
    // The staged tail: durably logged, never committed.
    let _ = m.stage(UpdateBatch::insert_only(vec![tx(&[6, 7])]));
    acked
}

/// Recovers a session from a copy of `files` under the script's recovery
/// shard count.
fn recover(
    script: &Script,
    files: HashMap<String, Vec<u8>>,
) -> Result<(Maintainer, fup_core::RecoveryReport), Error> {
    builder()
        .shards(script.recover_shards)
        .recover(Arc::new(MemStorage::from_files(files)) as Arc<dyn DurableStorage>)
}

/// The parent a checkpoint file names, or `None` for a full image: the
/// body (past magic and CRC) opens with the varint sequence number, then
/// a kind byte, then — for a delta — the parent's sequence number.
fn ckpt_parent(bytes: &[u8]) -> Option<u64> {
    let body = &bytes[fup_core::durable::CHECKPOINT_MAGIC.len() + 4..];
    let mut pos = 0;
    read_varint64(body, &mut pos).unwrap();
    let kind = body[pos];
    pos += 1;
    (kind == 1).then(|| read_varint64(body, &mut pos).unwrap())
}

/// The checkpoint sequence numbers in `files`, ascending.
fn ckpt_seqs(files: &HashMap<String, Vec<u8>>) -> Vec<u64> {
    let mut seqs: Vec<u64> = files
        .keys()
        .filter_map(|n| n.strip_prefix("ckpt-")?.parse().ok())
        .collect();
    seqs.sort_unstable();
    seqs
}

fn ckpt_file(seq: u64) -> String {
    format!("ckpt-{seq:08}")
}

// ---------------------------------------------------------- sweeps --

/// Runs the script under `policy`, then crashes it at every byte offset
/// of its newest WAL segment: each prefix must recover to exactly the
/// last commit boundary it contains, and the sweep must reach every
/// version from the newest checkpoint's to the last.
fn wal_byte_sweep(script: &Script, policy: DurabilityPolicy) {
    let states = reference_states(script);
    let storage = Arc::new(MemStorage::new());
    assert_eq!(
        drive_script(script, Arc::clone(&storage), policy),
        script.rounds.len() as u64
    );
    let files = storage.files();
    let newest = files
        .keys()
        .filter(|n| n.starts_with("wal-"))
        .max()
        .expect("an active WAL segment")
        .clone();
    let wal = &files[&newest];
    assert!(wal.len() > 50, "script should produce a non-trivial WAL");

    let mut versions_seen = std::collections::BTreeSet::new();
    for cut in 0..=wal.len() {
        let mut image = files.clone();
        image.get_mut(&newest).unwrap().truncate(cut);
        let (recovered, report) = recover(script, image)
            .unwrap_or_else(|e| panic!("recovery must succeed at cut {cut}: {e}"));
        assert_matches_reference(&recovered, &states);
        versions_seen.insert(report.version);
        // A mid-record cut is reported as a dropped tail, not hidden.
        if cut < wal.len() && report.wal_tail_dropped.is_none() {
            // The cut landed exactly on a record boundary — fine, but the
            // recovered version must then cover every boundary before it.
            assert_eq!(report.version, recovered.version());
        }
    }
    // The sweep must actually traverse every commit boundary.
    let rounds = script.rounds.len() as u64;
    let every = policy.checkpoint_every_rounds;
    assert_eq!(
        versions_seen.into_iter().collect::<Vec<_>>(),
        (rounds / every * every..=rounds).collect::<Vec<_>>(),
        "every prefix version should be reachable by some cut"
    );
}

/// Tentpole: crash at every WAL byte offset. The surviving prefix must
/// recover to exactly the last commit boundary it contains — never a
/// panic, never a half-applied round, never a lost acknowledged commit.
#[test]
fn kill_at_every_wal_byte_offset_recovers_exactly() {
    // No mid-run checkpoints: the whole script lives in wal-00000000, so
    // the sweep reaches versions 0..=3.
    let policy = DurabilityPolicy {
        checkpoint_every_rounds: u64::MAX,
        ..Default::default()
    };
    wal_byte_sweep(&basic_script(), policy);
    // The churn script checkpoints every five rounds: each cut recovers
    // through a delta chain, then replays the newest segment's prefix.
    let policy = DurabilityPolicy {
        checkpoint_every_rounds: 5,
        ..Default::default()
    };
    for (write, recover) in [(1, 4), (4, 1)] {
        wal_byte_sweep(&churn_script(write, recover), policy);
    }
}

/// Kills the storage after every possible operation budget (with three
/// torn-append variants each) while the script runs under `policy`, and
/// recovers each crash image exactly. Returns the files of the first
/// fault-free run.
fn op_budget_sweep(script: &Script, policy: DurabilityPolicy) -> HashMap<String, Vec<u8>> {
    let states = reference_states(script);
    for budget in 0u64..400 {
        let mut any_fault = false;
        let mut files = HashMap::new();
        for tear_bytes in [0usize, 1, 7] {
            let storage = Arc::new(MemStorage::new());
            storage.fail_after(budget, tear_bytes);
            drive_script(script, Arc::clone(&storage), policy);
            any_fault |= storage.faults_fired() > 0;
            files = storage.files();
            match recover(script, files.clone()) {
                Ok((recovered, _report)) => assert_matches_reference(&recovered, &states),
                Err(e) => {
                    // Only one failure is legitimate: the kill hit the very
                    // first write, leaving no checkpoint at all.
                    assert!(
                        matches!(e, Error::Recovery { .. }),
                        "budget {budget}: unexpected error {e}"
                    );
                    assert!(
                        budget == 0,
                        "budget {budget} left no recoverable checkpoint"
                    );
                }
            }
        }
        if !any_fault {
            // The whole script fit under the budget — the sweep covered
            // every operation the workload performs.
            return files;
        }
    }
    panic!("sweep never reached a fault-free run");
}

/// Tentpole: kill the storage after every possible operation budget (with
/// three torn-append variants each), spanning kills mid-record, at record
/// boundaries, mid-checkpoint, and between a checkpoint and its WAL
/// rotation. Recovery from each crash image is exact.
#[test]
fn kill_at_every_storage_op_budget_recovers_exactly() {
    let policy = DurabilityPolicy {
        // Checkpoint every round: the sweep crosses encode → write_atomic
        // → fresh-WAL append → gc at every boundary.
        checkpoint_every_rounds: 1,
        retain_checkpoints: 2,
        ..Default::default()
    };
    op_budget_sweep(&basic_script(), policy);
    // The churn script's checkpoints are deltas with a full image cut
    // among them, and retention collects the initial pair.
    for (write, recover) in [(1, 4), (4, 1)] {
        let files = op_budget_sweep(&churn_script(write, recover), policy);
        let seqs = ckpt_seqs(&files);
        assert!(
            seqs.iter()
                .any(|&s| s > 0 && ckpt_parent(&files[&ckpt_file(s)]).is_none()),
            "the churn script must force a full cut: {seqs:?}"
        );
        assert!(
            seqs.iter()
                .any(|&s| ckpt_parent(&files[&ckpt_file(s)]).is_some()),
            "the churn script must leave deltas: {seqs:?}"
        );
    }
}

/// The op-budget sweep across **recovery itself**: the script's first
/// `split` rounds commit and the session crashes, then every budget kills
/// a run that recovers — sealing with a delta on the chain it chose — and
/// commits the remaining rounds. Cuts land inside the seal's install (its
/// atomic write, the fresh segment's append and sync, retention) and in
/// every later commit and checkpoint. Each crash image recovers exactly,
/// with no commit acknowledged after the first recovery lost.
fn recover_then_commit_sweep(script: &Script, split: usize, policy: DurabilityPolicy) {
    let states = reference_states(script);
    let storage = Arc::new(MemStorage::new());
    let mut m = builder()
        .shards(script.write_shards)
        .durability(policy)
        .build_durable(
            script.history.clone(),
            Arc::clone(&storage) as Arc<dyn DurableStorage>,
        )
        .unwrap();
    for batch in &script.rounds[..split] {
        m.apply(batch.clone()).unwrap();
    }
    drop(m);
    let crashed = storage.files();
    let resume = |storage: &Arc<MemStorage>| {
        builder()
            .shards(script.recover_shards)
            .durability(policy)
            .recover(Arc::clone(storage) as Arc<dyn DurableStorage>)
    };

    // Unfaulted, the seal is a delta naming the checkpoint recovery chose.
    let sealed = Arc::new(MemStorage::from_files(crashed.clone()));
    let (_, report) = resume(&sealed).unwrap();
    let files = sealed.files();
    let seal = *ckpt_seqs(&files).last().unwrap();
    assert_eq!(
        ckpt_parent(&files[&ckpt_file(seal)]),
        Some(report.checkpoint_seq),
        "the seal is a delta on the chosen checkpoint"
    );

    for budget in 0u64..400 {
        let mut any_fault = false;
        for tear_bytes in [0usize, 1, 7] {
            let storage = Arc::new(MemStorage::from_files(crashed.clone()));
            storage.fail_after(budget, tear_bytes);
            let mut acked = 0u64;
            if let Ok((mut m, _)) = resume(&storage) {
                for batch in &script.rounds[split..] {
                    if m.apply(batch.clone()).is_err() {
                        break;
                    }
                    acked += 1;
                }
            }
            any_fault |= storage.faults_fired() > 0;
            let (recovered, _) = recover(script, storage.files())
                .unwrap_or_else(|e| panic!("budget {budget}: recovery must succeed: {e}"));
            assert_matches_reference(&recovered, &states);
            assert!(
                recovered.version() >= split as u64 + acked,
                "budget {budget}: an acknowledged commit was lost"
            );
        }
        if !any_fault {
            return;
        }
    }
    panic!("sweep never reached a fault-free run");
}

/// Satellite: kill recovery's seal and the commits after it at every
/// storage-op budget. The basic script recovers a two-round WAL tail onto
/// `ckpt-0`; the churn script recovers a delta chain checkpointed every
/// round, written and recovered at one shard and at four.
#[test]
fn kill_at_every_storage_op_budget_across_recovery_recovers_exactly() {
    let policy = DurabilityPolicy {
        checkpoint_every_rounds: u64::MAX,
        ..Default::default()
    };
    recover_then_commit_sweep(&basic_script(), 2, policy);
    let policy = DurabilityPolicy {
        checkpoint_every_rounds: 1,
        retain_checkpoints: 2,
        ..Default::default()
    };
    for (write, recover) in [(1, 4), (4, 1)] {
        recover_then_commit_sweep(&churn_script(write, recover), 6, policy);
    }
}

/// Tentpole satellite: the byte-offset kill sweep under **group commit**
/// — stage-record fsyncs batched four at a time with a generous age
/// bound, so cuts land *inside* grouped (appended-but-unflushed) runs as
/// well as on barrier boundaries. Every prefix must still recover to a
/// state the uncrashed run published.
#[test]
fn kill_at_every_wal_byte_offset_with_group_commit_recovers_exactly() {
    let states = reference_states(&basic_script());
    let storage = Arc::new(MemStorage::new());
    assert_eq!(
        drive_script(
            &basic_script(),
            Arc::clone(&storage),
            DurabilityPolicy {
                checkpoint_every_rounds: u64::MAX,
                ..DurabilityPolicy::group_commit(4, std::time::Duration::from_secs(3600))
            },
        ),
        3
    );
    let files = storage.files();
    let wal = files.get("wal-00000000").expect("active WAL segment");
    let mut versions_seen = std::collections::BTreeSet::new();
    for cut in 0..=wal.len() {
        let image = MemStorage::from_files(files.clone());
        image.truncate_file("wal-00000000", cut);
        let (recovered, report) = builder()
            .recover(Arc::new(image) as Arc<dyn DurableStorage>)
            .unwrap_or_else(|e| panic!("recovery must succeed at cut {cut}: {e}"));
        assert_matches_reference(&recovered, &states);
        versions_seen.insert(report.version);
    }
    assert_eq!(
        versions_seen.into_iter().collect::<Vec<_>>(),
        vec![0, 1, 2, 3],
        "every prefix version should be reachable by some cut"
    );
}

/// Tentpole satellite: the storage-op kill sweep under group commit —
/// torn appends and killed syncs while fsyncs are batched. Every crash
/// image recovers exactly; acknowledged commits never depend on the
/// batched stage syncs because boundaries always sync.
#[test]
fn kill_at_every_storage_op_budget_with_group_commit_recovers_exactly() {
    let policy = DurabilityPolicy {
        checkpoint_every_rounds: 1,
        retain_checkpoints: 2,
        ..DurabilityPolicy::group_commit(4, std::time::Duration::from_secs(3600))
    };
    op_budget_sweep(&basic_script(), policy);
}

/// Tentpole satellite: a **power-loss** crash under group commit — the
/// medium keeps only the fsynced prefix ([`MemStorage::synced_files`]).
/// Acknowledged commits survive (their boundary records are
/// unconditional sync barriers); only the staged-but-unacknowledged tail
/// sitting in the open group is lost, which is the documented contract.
#[test]
fn power_loss_under_group_commit_keeps_every_acknowledged_commit() {
    let states = reference_states(&basic_script());
    let storage = Arc::new(MemStorage::new());
    assert_eq!(
        drive_script(
            &basic_script(),
            Arc::clone(&storage),
            DurabilityPolicy {
                checkpoint_every_rounds: u64::MAX,
                ..DurabilityPolicy::group_commit(64, std::time::Duration::from_secs(3600))
            },
        ),
        3
    );
    // The process-crash image still holds the staged tail...
    let process_image = Arc::new(MemStorage::from_files(storage.files()));
    let (_, report) = builder()
        .recover(process_image as Arc<dyn DurableStorage>)
        .unwrap();
    assert_eq!(report.restaged_batches, 1, "the OS buffers kept the tail");
    // ...but the power-loss image cuts at the last sync barrier: the
    // final Commit boundary. All three acked rounds survive; the
    // unflushed staged tail is gone.
    let power_image = Arc::new(MemStorage::from_files(storage.synced_files()));
    let (recovered, report) = builder()
        .recover(power_image as Arc<dyn DurableStorage>)
        .unwrap();
    assert_eq!(report.version, 3, "no acknowledged commit may be lost");
    assert_eq!(
        report.restaged_batches, 0,
        "the open group's stage record never reached the medium"
    );
    assert_matches_reference(&recovered, &states);
}

/// An fsync failure is a commit that was never acknowledged: the session
/// poisons itself, and recovery lands on a state the uncrashed run
/// published — with the un-acked work either absent or fully applied
/// (the data may have reached the medium), never half-applied.
#[test]
fn failing_fsync_poisons_but_recovers_consistently() {
    let states = reference_states(&basic_script());
    let storage = Arc::new(MemStorage::new());
    let mut m = builder()
        .build_durable(history(), Arc::clone(&storage) as Arc<dyn DurableStorage>)
        .unwrap();
    m.stage(basic_script().rounds.remove(0)).unwrap();
    m.commit().unwrap();
    storage.set_fail_sync(true);
    let err = m
        .stage(UpdateBatch::insert_only(vec![tx(&[8, 9])]))
        .unwrap_err();
    assert!(matches!(err, Error::Store(fup_tidb::Error::Io { .. })));
    // Poisoned: nothing else is accepted.
    assert!(m.commit().is_err());

    let image = Arc::new(MemStorage::from_files(storage.files()));
    let (recovered, _) = builder().recover(image as Arc<dyn DurableStorage>).unwrap();
    assert_matches_reference(&recovered, &states);
    assert_eq!(recovered.version(), 1, "the acked round survives");
}

/// Satellite: a corrupt newest checkpoint falls back to the previous one
/// (with a longer replay); corrupting every checkpoint yields a typed
/// error, not a panic. On the churn script's delta chains, a corrupt
/// delta in the middle of the newest chain, or a corrupt full image with
/// deltas on top, falls back the same way and still reaches the end.
#[test]
fn corrupt_checkpoints_fall_back_then_fail_typed() {
    let script = basic_script();
    let states = reference_states(&script);
    let storage = Arc::new(MemStorage::new());
    drive_script(
        &script,
        Arc::clone(&storage),
        DurabilityPolicy {
            checkpoint_every_rounds: 1,
            retain_checkpoints: 3,
            ..Default::default()
        },
    );
    let files = storage.files();
    let mut ckpts: Vec<&String> = files.keys().filter(|n| n.starts_with("ckpt-")).collect();
    ckpts.sort();
    assert!(ckpts.len() >= 2, "script should retain several checkpoints");

    // Flip one byte somewhere in the newest checkpoint: recovery falls
    // back and still reproduces the final state (the WAL tail replays the
    // rounds the older checkpoint misses).
    let newest = ckpts.last().unwrap().to_string();
    for offset in [
        0usize,
        9,
        files[&newest].len() / 2,
        files[&newest].len() - 1,
    ] {
        let image = MemStorage::from_files(files.clone());
        image.flip_byte(&newest, offset);
        let (recovered, report) = builder()
            .recover(Arc::new(image) as Arc<dyn DurableStorage>)
            .unwrap_or_else(|e| panic!("fallback must succeed (flip at {offset}): {e}"));
        assert!(
            !report.corrupt_checkpoints.is_empty(),
            "the damaged checkpoint must be reported"
        );
        assert_matches_reference(&recovered, &states);
        assert_eq!(recovered.version(), 3, "fallback + replay reaches the end");
    }

    // Damage every checkpoint: a typed Recovery error, never a panic.
    let image = MemStorage::from_files(files.clone());
    for name in &ckpts {
        image.flip_byte(name, files[*name].len() / 2);
    }
    let err = builder()
        .recover(Arc::new(image) as Arc<dyn DurableStorage>)
        .unwrap_err();
    assert!(matches!(err, Error::Recovery { .. }), "{err:?}");

    // The churn script's newest checkpoint heads a chain of deltas on a
    // full image, with an older full image retained beneath it.
    let script = churn_script(1, 1);
    let states = reference_states(&script);
    let storage = Arc::new(MemStorage::new());
    drive_script(
        &script,
        Arc::clone(&storage),
        DurabilityPolicy {
            checkpoint_every_rounds: 1,
            ..Default::default()
        },
    );
    let files = storage.files();
    let mut chain = vec![*ckpt_seqs(&files).last().unwrap()];
    while let Some(parent) = ckpt_parent(&files[&ckpt_file(*chain.last().unwrap())]) {
        chain.push(parent);
    }
    assert!(chain.len() >= 3, "a delta chain with a middle: {chain:?}");
    let root = *chain.last().unwrap();
    assert!(
        ckpt_seqs(&files)
            .iter()
            .any(|&s| s < root && ckpt_parent(&files[&ckpt_file(s)]).is_none()),
        "an older full image is retained below the chain's root {root}"
    );
    for (damaged, what) in [
        (chain[1], "a middle delta"),
        (root, "the chain's full image"),
    ] {
        let mut image = files.clone();
        let bytes = image.get_mut(&ckpt_file(damaged)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let (recovered, report) = recover(&script, image)
            .unwrap_or_else(|e| panic!("fallback past {what} must succeed: {e}"));
        assert!(
            report.corrupt_checkpoints.contains(&damaged),
            "{what} must be reported: {:?}",
            report.corrupt_checkpoints
        );
        assert!(
            report.checkpoint_seq < damaged,
            "{what}: recovered from before it"
        );
        assert_matches_reference(&recovered, &states);
        assert_eq!(
            recovered.version(),
            script.rounds.len() as u64,
            "fallback past {what} + replay reaches the end"
        );
    }
}

/// Satellite: the one-call service restart path — recover a crash image
/// straight into a running [`MaintainerService`], flush the re-queued
/// backlog, and land on the uncrashed run's final state.
#[test]
fn service_recovers_from_crash_image_and_commits_backlog() {
    let storage = Arc::new(MemStorage::new());
    drive_script(
        &basic_script(),
        Arc::clone(&storage),
        DurabilityPolicy::default(),
    );
    let image = Arc::new(MemStorage::from_files(storage.files()));
    let (service, report) =
        MaintainerService::recover(builder(), image, CommitPolicy::manual()).unwrap();
    assert_eq!(report.version, 3);
    assert_eq!(report.restaged_batches, 1, "the staged tail is re-queued");
    let flushed = service.flush().unwrap();
    assert_eq!(flushed.version, 4);
    let snapshot = service.snapshot();
    assert_eq!(snapshot.num_transactions(), 7);
    let (m, _) = service.shutdown();
    m.verify_consistency().unwrap();
}

// ------------------------------------------------------ round-trips --

fn arb_transaction() -> impl Strategy<Value = Transaction> {
    proptest::collection::vec(0u32..32, 1..6).prop_map(Transaction::from_items)
}

fn sorted_dedup(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v.dedup();
    v
}

fn arb_batch() -> impl Strategy<Value = UpdateBatch> {
    (
        proptest::collection::vec(arb_transaction(), 0..5),
        proptest::collection::vec(0u64..1 << 48, 0..5),
    )
        .prop_map(|(inserts, deletes)| UpdateBatch {
            inserts,
            deletes: sorted_dedup(deletes).into_iter().map(Tid).collect(),
        })
}

fn arb_tickets() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..1 << 48, 0..8).prop_map(sorted_dedup)
}

/// One of the three record types, picked by a discriminant (the vendored
/// proptest has no `prop_oneof!`).
fn arb_record() -> impl Strategy<Value = WalRecord> {
    (0u8..3, 0u64..1 << 48, arb_batch(), arb_tickets()).prop_map(|(kind, n, batch, tickets)| {
        match kind {
            0 => WalRecord::Stage { ticket: n, batch },
            1 => WalRecord::Commit {
                version: n,
                tickets,
            },
            _ => WalRecord::Abort { tickets },
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite: every WAL record type round-trips through framing, in
    /// arbitrary sequences; the scanner recovers all of them with no tail
    /// error.
    #[test]
    fn wal_records_roundtrip(records in proptest::collection::vec(arb_record(), 0..8)) {
        let mut bytes = Vec::new();
        for r in &records {
            bytes.extend_from_slice(&r.to_framed_bytes());
        }
        let scan = wal::read_records(&bytes);
        prop_assert!(scan.tail_error.is_none());
        prop_assert_eq!(scan.valid_len, bytes.len());
        prop_assert_eq!(scan.records, records);
    }

    /// Satellite: truncating a framed WAL stream anywhere never panics,
    /// keeps a valid record prefix, and reports the damage on non-boundary
    /// cuts.
    #[test]
    fn torn_wal_always_yields_a_valid_prefix(
        records in proptest::collection::vec(arb_record(), 1..5),
        cut_seed in any::<prop::sample::Index>(),
    ) {
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &records {
            bytes.extend_from_slice(&r.to_framed_bytes());
            boundaries.push(bytes.len());
        }
        let cut = cut_seed.index(bytes.len() + 1);
        let scan = wal::read_records(&bytes[..cut]);
        // The valid prefix is the records wholly inside the cut.
        let n = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        prop_assert_eq!(scan.records.len(), n);
        prop_assert_eq!(&scan.records[..], &records[..n]);
        prop_assert_eq!(scan.tail_error.is_some(), !boundaries.contains(&cut));
    }

    /// Satellite: the checkpoint manifest round-trips through a real
    /// crash: arbitrary history and staged backlog, checkpoint, recover
    /// from the bytes alone, compare everything.
    #[test]
    fn checkpoint_roundtrips_through_recovery(
        history in proptest::collection::vec(arb_transaction(), 0..12),
        committed in proptest::collection::vec(arb_transaction(), 0..6),
        staged in proptest::collection::vec(arb_transaction(), 0..6),
        delete_seed in proptest::collection::vec(any::<prop::sample::Index>(), 0..3),
    ) {
        let storage = Arc::new(MemStorage::new());
        let mut m = builder()
            .build_durable(history, Arc::clone(&storage) as Arc<dyn DurableStorage>)
            .unwrap();
        if !committed.is_empty() {
            m.stage(UpdateBatch::insert_only(committed)).unwrap();
            m.commit().unwrap();
        }
        // Deletes drawn from live tids, staged but not committed.
        let tids: Vec<Tid> = m.store().iter().map(|(t, _)| t).collect();
        let mut deletes: Vec<Tid> = delete_seed
            .iter()
            .filter(|_| !tids.is_empty())
            .map(|ix| tids[ix.index(tids.len())])
            .collect();
        deletes.sort();
        deletes.dedup();
        if !staged.is_empty() || !deletes.is_empty() {
            m.stage(UpdateBatch { inserts: staged, deletes }).unwrap();
        }
        m.checkpoint().unwrap();

        let image = Arc::new(MemStorage::from_files(storage.files()));
        let expected_staged = m.staged();
        let (recovered, report) = builder()
            .recover(image as Arc<dyn DurableStorage>)
            .unwrap();
        prop_assert_eq!(recovered.version(), m.version());
        prop_assert_eq!(report.replayed_rounds, 0, "checkpoint covers all rounds");
        prop_assert!(recovered.large_itemsets().same_itemsets(m.large_itemsets()));
        prop_assert_eq!(recovered.rules().len(), m.rules().len());
        prop_assert_eq!(recovered.staged(), expected_staged);
        prop_assert_eq!(recovered.len(), m.len());
        prop_assert_eq!(
            recovered.store().live_view().tombstones_sorted(),
            m.store().live_view().tombstones_sorted()
        );
    }
}
