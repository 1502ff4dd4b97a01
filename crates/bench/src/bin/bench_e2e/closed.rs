//! The five closed-loop workloads: one client stages a batch, commits it,
//! reads the fresh snapshot, and only then offers the next batch. They
//! differ in the session under the loop (flat, durable, sharded, cluster)
//! and in the script (insert-only, or inserts beside oldest-row deletes).

use crate::oracle;
use crate::probes::{Probes, RoundInputs};
use crate::run::{
    builder, disk, minconf, minsup, pad_for_replay, payload_bytes, recover_after_power_cut,
    RunConfig, RunOutput, RECOVER_REPS,
};
use crate::script::{Model, QueryMix, Scale, Script};
use crate::stats::Samples;
use crate::sys;
use crate::timed_storage::{sum_totals, Op, OpTotals, TimedStorage};
use crate::trace::Tracer;
use fup_core::{Cluster, DurabilityPolicy, FupConfig, Maintainer, MaintenanceReport, RuleSnapshot};
use fup_mining::GenConfig;
use fup_tidb::{DurableStorage, ShardSpec, Transaction, UpdateBatch};
use std::sync::Arc;
use std::time::Instant;

/// Rounds between two probe runs of a traced run.
const PROBE_EVERY: u64 = 10;

/// Rounds a run makes even when one outlasts `--seconds`.
const MIN_ROUNDS: u64 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    InsertMem,
    InsertDurable,
    ChurnMem,
    ChurnShard4,
    ChurnCluster2,
}

impl Kind {
    pub fn from_name(name: &str) -> Option<Kind> {
        Some(match name {
            "insert_mem" => Kind::InsertMem,
            "insert_durable" => Kind::InsertDurable,
            "churn_mem" => Kind::ChurnMem,
            "churn_shard4" => Kind::ChurnShard4,
            "churn_cluster2" => Kind::ChurnCluster2,
            _ => return None,
        })
    }

    fn churn(self) -> bool {
        !matches!(self, Kind::InsertMem | Kind::InsertDurable)
    }

    /// `true` where batches reach a WAL.
    fn logged(self) -> bool {
        matches!(self, Kind::InsertDurable | Kind::ChurnCluster2)
    }
}

/// The session under the loop.
enum Session {
    Local(Box<Maintainer>),
    Cluster(Box<Cluster>),
}

impl Session {
    fn stage(&mut self, batch: UpdateBatch) -> fup_core::Result<()> {
        match self {
            Session::Local(m) => m.stage(batch),
            Session::Cluster(c) => c.stage(batch).map(drop),
        }
    }

    fn commit(&mut self) -> fup_core::Result<MaintenanceReport> {
        match self {
            Session::Local(m) => m.commit(),
            Session::Cluster(c) => c.commit(),
        }
    }

    fn snapshot(&self) -> RuleSnapshot {
        match self {
            Session::Local(m) => m.snapshot(),
            Session::Cluster(c) => c.snapshot(),
        }
    }

    fn live(&self) -> u64 {
        match self {
            Session::Local(m) => m.len() as u64,
            Session::Cluster(c) => c.num_transactions(),
        }
    }

    /// `(index builds, index extends, transactions scanned, full scans)`
    /// so far; a cluster keeps these inside its workers.
    fn counters(&self) -> [u64; 4] {
        match self {
            Session::Local(m) => {
                let (index, scan) = (m.index_stats(), m.store().metrics());
                [
                    index.builds,
                    index.extends,
                    scan.transactions_read(),
                    scan.full_scans(),
                ]
            }
            Session::Cluster(_) => [0; 4],
        }
    }

    fn shard_lens(&self) -> Vec<u64> {
        match self {
            Session::Local(m) => m.store().shard_lens().iter().map(|&n| n as u64).collect(),
            Session::Cluster(c) => (0..c.num_shards())
                .map(|s| c.probe(s).map_or(0, |p| p.live))
                .collect(),
        }
    }
}

/// A session ready for its first batch, and the storage under it.
struct Built {
    session: Session,
    storages: Vec<Arc<TimedStorage>>,
}

fn build(
    kind: Kind,
    history: Vec<Transaction>,
    scale: &Scale,
    trace: bool,
) -> Result<Built, String> {
    let err = |e: &dyn std::fmt::Display| format!("set-up failed: {e}");
    let (session, storages) = match kind {
        Kind::InsertMem | Kind::ChurnMem => {
            let m = builder(scale).build(history).map_err(|e| err(&e))?;
            (Session::Local(Box::new(m)), Vec::new())
        }
        Kind::ChurnShard4 => {
            let m = builder(scale)
                .shard_spec(ShardSpec::striped_with(4, scale.stripe))
                .build(history)
                .map_err(|e| err(&e))?;
            (Session::Local(Box::new(m)), Vec::new())
        }
        Kind::InsertDurable => {
            let storage = disk("durable", trace)?;
            let m = builder(scale)
                .durability(DurabilityPolicy::default())
                .build_durable(history, Arc::clone(&storage) as Arc<dyn DurableStorage>)
                .map_err(|e| err(&e))?;
            (Session::Local(Box::new(m)), vec![storage])
        }
        Kind::ChurnCluster2 => {
            let storages = vec![disk("worker0", trace)?, disk("worker1", trace)?];
            let mut config = FupConfig::default().with_threads(1);
            config.engine.gen = GenConfig::serial();
            let c = Cluster::bootstrap(
                ShardSpec::striped_with(2, scale.stripe),
                storages
                    .iter()
                    .map(|s| Arc::clone(s) as Arc<dyn DurableStorage>)
                    .collect(),
                history,
                minsup(scale),
                minconf(),
                config,
            )
            .map_err(|e| err(&e))?;
            (Session::Cluster(Box::new(c)), storages)
        }
    };
    Ok(Built { session, storages })
}

fn storage_nanos(totals: &[OpTotals; 4]) -> u64 {
    totals.iter().map(|t| t.nanos).sum()
}

fn ms(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e3
}

/// Runs one closed-loop workload.
pub fn run(kind: Kind, cfg: &RunConfig) -> Result<RunOutput, String> {
    let scale = &cfg.scale;
    let mut out = RunOutput::default();
    let mut tracer = Tracer::new();

    // ---- set-up, repeated; the last session is the one measured --------
    let (mut setup_s, mut datagen_ms, mut build_ms) =
        (Samples::new(), Samples::new(), Samples::new());
    let mut ready = None;
    for _ in 0..scale.setup_reps {
        // The previous repetition's session (and cluster threads) must
        // be gone before the next one is timed.
        drop(ready.take());
        let mut script = Script::new(scale);
        let start = Instant::now();
        let history = script.corpus();
        let generated = Instant::now();
        let model = Model::new(history.clone());
        let cloned = Instant::now();
        let built = build(kind, history, scale, cfg.trace)?;
        let end = Instant::now();
        datagen_ms.push(ms(start, generated));
        build_ms.push(ms(cloned, end));
        setup_s.push((ms(start, generated) + ms(cloned, end)) / 1e3);
        ready = Some((script, model, built));
    }
    let (
        mut script,
        mut model,
        Built {
            mut session,
            storages,
        },
    ) = ready.expect("at least one set-up repetition");

    script.seek_updates(cfg.seed);
    let mut queries = QueryMix::new(cfg.seed, &session.snapshot());

    // ---- the measured loop ---------------------------------------------
    let (mut round_ms, mut stage_ms, mut commit_ms) =
        (Samples::new(), Samples::new(), Samples::new());
    let mut visible_ms = Samples::new();
    let (mut read_us, mut snapshot_ns) = (Samples::new(), Samples::new());
    let (mut fup_ms, mut fup2_ms, mut self_ms) = (Samples::new(), Samples::new(), Samples::new());
    let (mut generated, mut checked, mut passes) = (0u64, 0u64, 0u64);
    let (mut rounds_fup, mut rounds_fup2, mut rounds_remine) = (0u64, 0u64, 0u64);
    let (mut busy_s, mut cpu_s, mut ops, mut payload) = (0.0f64, 0.0f64, 0u64, 0u64);
    let mut probes = Probes::default();
    let storage_before = sum_totals(&storages);
    let counters_before = session.counters();
    let worker_before: Vec<_> = storages
        .iter()
        .map(|s| (s.totals(Op::Sync).calls, s.totals(Op::Append).bytes))
        .collect();
    for s in &storages {
        s.take_spans(); // set-up's storage calls belong to no round
    }

    let mut round = 0u64;
    while busy_s < cfg.seconds || round < MIN_ROUNDS {
        let batch = if kind.churn() {
            UpdateBatch {
                inserts: script.transactions(scale.churn_inserts),
                deletes: model.oldest(scale.churn_deletes),
            }
        } else {
            UpdateBatch::insert_only(script.transactions(scale.insert_batch))
        };
        let batch_ops = batch.num_ops();
        out.attempted += batch_ops;
        let staged = batch.clone();
        let storage_at_start = storage_nanos(&sum_totals(&storages));

        let cpu_start = sys::cpu_seconds();
        let t0 = Instant::now();
        let stage_result = session.stage(staged);
        let t1 = Instant::now();
        let report = stage_result.and_then(|()| session.commit());
        let t2 = Instant::now();
        // The client reads what it just committed: the batch is visible.
        let snapshot = session.snapshot();
        let t3 = Instant::now();
        cpu_s += sys::cpu_seconds() - cpu_start;

        let report = match report {
            Ok(report) => report,
            Err(e) => {
                out.failed += batch_ops;
                out.notes.push(format!("round {round} failed: {e}"));
                break;
            }
        };
        busy_s += (t2 - t0).as_secs_f64();
        ops += batch_ops;
        payload += payload_bytes(&batch);
        round_ms.push(ms(t0, t2));
        visible_ms.push(ms(t0, t3));
        snapshot_ns.push((t3 - t2).as_nanos() as f64);
        stage_ms.push(ms(t0, t1));
        commit_ms.push(ms(t1, t2));

        // What the report says about the round.
        let update = report.stats.elapsed.as_secs_f64() * 1e3;
        let update_name = match report.algorithm {
            "fup" => {
                rounds_fup += 1;
                fup_ms.push(update);
                "core.fup.update"
            }
            "fup2" => {
                rounds_fup2 += 1;
                fup2_ms.push(update);
                "core.fup2.update"
            }
            _ => {
                rounds_remine += 1;
                "mining.apriori.remine"
            }
        };
        generated += report
            .stats
            .passes
            .iter()
            .map(|p| p.candidates_generated)
            .sum::<u64>();
        checked += report
            .stats
            .passes
            .iter()
            .map(|p| p.candidates_checked)
            .sum::<u64>();
        passes += report.stats.passes.len() as u64;
        let storage_in_round =
            (storage_nanos(&sum_totals(&storages)) - storage_at_start) as f64 / 1e6;
        self_ms.push((ms(t0, t2) - update - storage_in_round).max(0.0));
        if report
            .inserted_tids
            .first()
            .is_some_and(|t| t.0 != model.next_tid())
        {
            out.mismatches.push(format!(
                "round {round}: inserts got tid {:?}, the script expected {}",
                report.inserted_tids.first(),
                model.next_tid()
            ));
        }

        if cfg.trace {
            let span = tracer.span("round", t0, t2, None, Some(round));
            let stage = tracer.span("core.session.stage", t0, t1, Some(span), Some(round));
            let commit = tracer.span("core.session.commit", t1, t2, Some(span), Some(round));
            tracer.derived(update_name, report.stats.elapsed.as_nanos() as u64, commit);
            for s in &storages {
                tracer.adopt_storage(&s.take_spans(), &[span, stage, commit]);
            }
            if round.is_multiple_of(PROBE_EVERY) {
                let deleted = model.rows_of(&batch.deletes);
                probes.run(
                    &RoundInputs {
                        round,
                        base: &model.live_rows()[batch.deletes.len()..],
                        deleted: &deleted,
                        batch: &batch,
                        large: snapshot.large_itemsets(),
                        minconf: minconf(),
                        wal: kind.logged(),
                        rpc: kind == Kind::ChurnCluster2,
                    },
                    &mut tracer,
                );
            }
        }
        model.apply(&batch);
        if snapshot.num_transactions() != model.live_rows().len() as u64 {
            out.mismatches.push(format!(
                "round {round}: snapshot covers {} rows, the script left {}",
                snapshot.num_transactions(),
                model.live_rows().len()
            ));
        }
        for _ in 0..scale.reads_per_round {
            read_us.push(queries.burst_us(|| session.snapshot()));
        }
        round += 1;
    }
    let peak_rss = sys::peak_rss_mib();
    let storage_after = sum_totals(&storages);
    let counters_after = session.counters();
    if round_ms.is_empty() {
        return Err(format!("no round completed: {}", out.notes.join("; ")));
    }

    // ---- recovery, outside the clock -----------------------------------
    // What brings the final state back once the process is gone: the
    // durable session recovers from a power-cut image, the cluster
    // restarts a killed worker from its namespace, and an in-memory
    // session, of which nothing survives, is built again from the rows.
    let mut recover_s = Samples::new();
    let recovered;
    let (mut recover_ms, mut replayed, mut lost_rounds, mut recover_read_ms) = (0.0, 0, 0, 0.0);
    match &mut session {
        Session::Local(m) if kind == Kind::InsertDurable => {
            out.attempted += pad_for_replay(m, &storages[0], &mut script, &mut model, scale)?;
            let r = recover_after_power_cut(&storages[0], scale)?;
            tracer.span("core.durable.recover", r.span.0, r.span.1, None, None);
            recover_s = r.seconds;
            recover_ms = recover_s.percentile(0.5) * 1e3;
            (replayed, recover_read_ms) = (r.replayed_rounds, r.read_ms);
            // Every round was acknowledged before the cut; a recovered
            // version behind the live one is acknowledged work lost.
            lost_rounds = m.version().saturating_sub(r.session.version());
            out.failed += lost_rounds * scale.insert_batch;
            recovered = (r.session.snapshot(), r.session.len() as u64);
        }
        Session::Cluster(c) => {
            for _ in 0..RECOVER_REPS {
                c.kill_worker(0);
                let start = Instant::now();
                c.restart_worker(0)
                    .map_err(|e| format!("restart worker 0: {e}"))?;
                recover_s.push(start.elapsed().as_secs_f64());
            }
            let live: u64 = session.shard_lens().iter().sum();
            recovered = (session.snapshot(), live);
        }
        Session::Local(_) => {
            let mut last = None;
            for _ in 0..RECOVER_REPS {
                drop(last.take());
                let rows = model.live_rows().to_vec();
                let start = Instant::now();
                let rebuilt = build(kind, rows, scale, false)?;
                recover_s.push(start.elapsed().as_secs_f64());
                last = Some(rebuilt.session);
            }
            let rebuilt = last.expect("at least one rebuild");
            recovered = (rebuilt.snapshot(), rebuilt.live());
        }
    }

    // ---- end-to-end metrics --------------------------------------------
    let rounds = round_ms.len();
    let durable_bytes: u64 = [Op::Append, Op::Atomic]
        .iter()
        .map(|&op| storage_after[op as usize].bytes - storage_before[op as usize].bytes)
        .sum();
    out.report("setup_s", setup_s.percentile(0.5), setup_s.len(), 0.0);
    out.report("update_tps", ops as f64 / busy_s, rounds, 0.0);
    out.report("round_p50_ms", round_ms.percentile(0.5), rounds, 0.5);
    out.report_tail("round_p90_ms", &mut round_ms);
    out.report("visible_p50_ms", visible_ms.percentile(0.5), rounds, 0.5);
    out.report("read_p50_us", read_us.percentile(0.5), read_us.len(), 0.5);
    out.report("recover_s", recover_s.percentile(0.5), recover_s.len(), 0.0);
    out.report(
        "write_amp",
        (payload + durable_bytes) as f64 / payload as f64,
        rounds,
        0.0,
    );
    out.report(
        "cpu_ms_per_kop",
        cpu_s * 1e3 / (ops as f64 / 1e3),
        rounds,
        0.0,
    );
    out.report("peak_rss_mb", peak_rss, 1, 0.0);

    // ---- per-layer metrics ---------------------------------------------
    if cfg.trace {
        let mut checkpoint_ms = 0.0;
        let start = Instant::now();
        let checkpointed = match &mut session {
            Session::Local(m) if m.is_durable() => Some(m.checkpoint().map(drop)),
            Session::Cluster(c) => Some(c.checkpoint()),
            Session::Local(_) => None,
        };
        if let Some(result) = checkpointed {
            result.map_err(|e| format!("explicit checkpoint: {e}"))?;
            let end = Instant::now();
            tracer.span("checkpoint", start, end, None, None);
            checkpoint_ms = ms(start, end);
        }

        out.storage_layers(&storage_before, &storage_after, recover_read_ms, ops);
        probes.report(&mut out);
        let per_round = |i: usize| (counters_after[i] - counters_before[i]) as f64 / rounds as f64;
        out.layer("tidb.scan.transactions_read", per_round(2));
        out.layer("tidb.scan.full_scans", per_round(3));
        out.layer("core.fup.update_ms", fup_ms.mean());
        out.layer("core.fup2.update_ms", fup2_ms.mean());
        out.layer(
            "core.update.candidates_generated",
            generated as f64 / rounds as f64,
        );
        out.layer(
            "core.update.candidates_checked",
            checked as f64 / rounds as f64,
        );
        out.layer(
            "core.update.checked_ratio",
            checked as f64 / generated.max(1) as f64,
        );
        out.layer("core.update.passes", passes as f64 / rounds as f64);
        out.layer("core.session.stage_ms", stage_ms.mean());
        out.layer("core.session.commit_ms", commit_ms.mean());
        out.layer("core.session.self_ms", self_ms.mean());
        // What is left of the session's share once the probed cost of
        // rule generation and staging is taken out of it.
        let explained = probes.mean(probes.rules_ms)
            + probes.mean(probes.stage_ns_per_batch) / 1e6
            + probes.mean(probes.drain_ms);
        out.layer(
            "core.session.unattributed_pct",
            (self_ms.mean() - explained).max(0.0) / round_ms.mean() * 100.0,
        );
        out.layer("core.session.snapshot_ns", snapshot_ns.percentile(0.5));
        out.layer("core.session.read_p99_us", read_us.percentile(0.99));
        let builds = (counters_after[0] - counters_before[0]) as f64;
        let extends = (counters_after[1] - counters_before[1]) as f64;
        out.layer("core.session.index_builds", builds);
        out.layer("core.session.index_extends", extends);
        out.layer("core.session.rounds_fup", rounds_fup as f64);
        out.layer("core.session.rounds_fup2", rounds_fup2 as f64);
        out.layer("core.session.rounds_remine", rounds_remine as f64);
        // Layers only one session shape has read 0 on the others.
        let only = |shape: Kind, value: f64| if kind == shape { value } else { 0.0 };
        let checkpoints = out.per_layer["tidb.storage.atomic_calls"];
        out.layer(
            "core.durable.checkpoint_ms",
            only(Kind::InsertDurable, checkpoint_ms),
        );
        out.layer(
            "core.durable.checkpoints",
            only(Kind::InsertDurable, checkpoints),
        );
        out.layer("core.durable.recover_ms", recover_ms);
        out.layer("core.durable.replayed_rounds", replayed as f64);
        out.layer("core.durable.lost_rounds", lost_rounds as f64);
        let lens = session.shard_lens();
        let mean_len = lens.iter().sum::<u64>() as f64 / lens.len() as f64;
        out.layer("core.shard.shards", lens.len() as f64);
        out.layer(
            "core.shard.shard_balance",
            lens.iter().copied().max().unwrap_or(0) as f64 / mean_len.max(1.0),
        );
        out.layer(
            "core.shard.builds_per_round",
            only(Kind::ChurnShard4, builds / rounds as f64),
        );
        out.layer(
            "core.shard.extends_per_round",
            only(Kind::ChurnShard4, extends / rounds as f64),
        );
        out.layer(
            "core.cluster.bootstrap_ms",
            only(Kind::ChurnCluster2, build_ms.percentile(0.5)),
        );
        out.layer(
            "core.cluster.checkpoint_ms",
            only(Kind::ChurnCluster2, checkpoint_ms),
        );
        for (w, names) in [
            ["core.cluster.w0.sync_calls", "core.cluster.w0.append_bytes"],
            ["core.cluster.w1.sync_calls", "core.cluster.w1.append_bytes"],
        ]
        .into_iter()
        .enumerate()
        {
            let (mut syncs, mut bytes) = (0, 0);
            if kind == Kind::ChurnCluster2 {
                let (s, before) = (&storages[w], worker_before[w]);
                syncs = s.totals(Op::Sync).calls - before.0;
                bytes = s.totals(Op::Append).bytes - before.1;
            }
            out.layer(names[0], syncs as f64);
            out.layer(names[1], bytes as f64);
        }
        out.layer("datagen.generate_ms", datagen_ms.percentile(0.5));
        out.layer("bench.rounds", rounds as f64);
        out.layer("bench.ops", ops as f64);
        out.layer("bench.update_tps", ops as f64 / busy_s);
        out.idle("core.service.");
    }

    // ---- the oracle ----------------------------------------------------
    let expected = oracle::expect(
        model.live_rows(),
        minsup(scale),
        minconf(),
        scale.oracle_backend,
    );
    out.mismatches.extend(oracle::mismatches(
        cfg.workload,
        &session.snapshot(),
        session.live(),
        &expected,
    ));
    // A recovery that lost rounds is already counted as failed operations;
    // its state is then legitimately older.
    if lost_rounds == 0 {
        out.mismatches.extend(oracle::mismatches(
            "the recovered session",
            &recovered.0,
            recovered.1,
            &expected,
        ));
    }
    if cfg.trace {
        let remine_ms = expected.remine.as_secs_f64() * 1e3;
        out.layer("mining.apriori.remine_ms", remine_ms);
        out.layer(
            "mining.apriori.fup_vs_remine",
            remine_ms / round_ms.percentile(0.5),
        );
        crate::report::trace_notes(&mut out, &tracer, round_ms.sum());
        tracer
            .write_json(&cfg.trace_out, cfg.workload, cfg.seed)
            .map_err(|e| format!("write {}: {e}", cfg.trace_out.display()))?;
    }
    Ok(out)
}
