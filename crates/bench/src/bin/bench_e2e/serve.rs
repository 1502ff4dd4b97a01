//! `serve_open`: an open loop. One arrival thread offers small insert
//! batches to a durable `MaintainerService` on a schedule fixed in
//! advance — three rate steps, each a third of the run — and never waits
//! for the service; one reader wakes every 200 µs, notes which version
//! is visible and issues a burst of lookups. Latency is timed from each batch's *due* time, so a stall
//! charges every batch it delays, and how late the generator itself ran
//! is reported beside it.

use crate::oracle;
use crate::probes::{Probes, RoundInputs};
use crate::run::{
    builder, disk, minconf, minsup, pad_for_replay, payload_bytes, recover_after_power_cut,
    RunConfig, RunOutput,
};
use crate::script::{Model, QueryMix, Script};
use crate::stats::Samples;
use crate::sys;
use crate::timed_storage::{sum_totals, Op, StorageSpan, TimedStorage};
use crate::trace::Tracer;
use fup_core::service::{CommitPolicy, MaintainerService};
use fup_core::DurabilityPolicy;
use fup_tidb::{DurableStorage, Transaction, UpdateBatch};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pause between two reads of the reader thread.
const READ_EVERY: Duration = Duration::from_micros(200);

/// A step sustains its rate when its batches become visible within this
/// long at p99 and its backlog does not grow by more than one round.
const VISIBLE_LIMIT_MS: f64 = 1_000.0;

/// The step whose visibility latency is the workload's `visible_p50_ms`.
const REPORTED_STEP: usize = 1;

/// One batch of the arrival schedule.
struct Offer {
    step: usize,
    due: Instant,
    /// When the stage call began and returned.
    called: Instant,
    returned: Instant,
    /// Transactions accepted up to and including this batch; `None` if
    /// the service refused it.
    accepted_total: Option<u64>,
}

/// What the reader saw: when a snapshot first showed a new version, and
/// how many rows it covered.
struct Sighting {
    at: Instant,
    rows: u64,
}

struct Ready {
    script: Script,
    model: Model,
    storage: Arc<TimedStorage>,
    service: MaintainerService,
    scan_before: (u64, u64),
}

fn set_up(cfg: &RunConfig) -> Result<(Ready, f64, f64), String> {
    let scale = &cfg.scale;
    let mut script = Script::new(scale);
    let start = Instant::now();
    let history = script.corpus();
    let generated = Instant::now();
    let model = Model::new(history.clone());
    let cloned = Instant::now();
    let storage = disk("serve", cfg.trace)?;
    let session = builder(scale)
        .durability(DurabilityPolicy::default())
        .build_durable(history, Arc::clone(&storage) as Arc<dyn DurableStorage>)
        .map_err(|e| format!("set-up failed: {e}"))?;
    let scan = session.store().metrics();
    let scan_before = (scan.transactions_read(), scan.full_scans());
    let policy = CommitPolicy::manual()
        .every_ops(scale.serve_trigger)
        .ops_per_round(scale.serve_round_ops)
        .staging_capacity(scale.serve_capacity)
        .with_poll_interval(Duration::from_millis(1));
    let service = MaintainerService::launch(session, policy).map_err(|e| format!("launch: {e}"))?;
    let end = Instant::now();
    let datagen_ms = (generated - start).as_secs_f64() * 1e3;
    let setup_s = (generated - start).as_secs_f64() + (end - cloned).as_secs_f64();
    let ready = Ready {
        script,
        model,
        storage,
        service,
        scan_before,
    };
    Ok((ready, setup_s, datagen_ms))
}

/// Sleeps until `due`; returns how late the caller woke, in milliseconds.
fn wait_until(due: Instant) -> f64 {
    let now = Instant::now();
    if now < due {
        std::thread::sleep(due - now);
    }
    Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3
}

/// Runs the open-loop workload.
pub fn run(cfg: &RunConfig) -> Result<RunOutput, String> {
    let scale = &cfg.scale;
    let mut out = RunOutput::default();

    let (mut setup_s, mut datagen_ms) = (Samples::new(), Samples::new());
    let mut ready: Option<Ready> = None;
    for _ in 0..scale.setup_reps {
        if let Some(previous) = ready.take() {
            previous.service.shutdown();
        }
        let (r, setup, datagen) = set_up(cfg)?;
        setup_s.push(setup);
        datagen_ms.push(datagen);
        ready = Some(r);
    }
    let Ready {
        mut script,
        mut model,
        storage,
        service,
        scan_before,
    } = ready.expect("at least one set-up repetition");
    let base_rows = scale.base;
    script.seek_updates(cfg.seed);
    let mut queries = QueryMix::new(cfg.seed, &service.snapshot());

    // The whole schedule, generated before the clock starts.
    let step_s = cfg.seconds / scale.serve_rates.len() as f64;
    let mut schedule: Vec<(usize, Duration, Vec<Transaction>)> = Vec::new();
    let mut step_starts = Vec::new();
    let mut offset = 0.0;
    for (step, &rate) in scale.serve_rates.iter().enumerate() {
        step_starts.push(offset);
        let gap = scale.serve_batch as f64 / rate as f64;
        let batches = ((step_s / gap).round() as usize).max(1);
        for i in 0..batches {
            schedule.push((
                step,
                Duration::from_secs_f64(offset + i as f64 * gap),
                script.transactions(scale.serve_batch),
            ));
        }
        offset += batches as f64 * gap;
    }
    out.attempted = schedule.len() as u64 * scale.serve_batch;

    // ---- the measured window -------------------------------------------
    let mut tracer = Tracer::new();
    storage.take_spans();
    let storage_before = sum_totals(std::slice::from_ref(&storage));
    let stop = AtomicBool::new(false);
    let mut offers: Vec<Offer> = Vec::with_capacity(schedule.len());
    let mut backlog_at: Vec<(u64, u64)> = Vec::new(); // per step: (start, end)
    let mut late_ms = Samples::new();
    let cpu_start = sys::cpu_seconds();
    let epoch = Instant::now();
    let arrival_thread = std::thread::current().id();
    let (sightings, mut read_us, mut snapshot_ns) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let (mut sightings, mut read_us, mut snapshot_ns) =
                (Vec::new(), Samples::new(), Samples::new());
            let mut last_version = service.snapshot().version();
            loop {
                // The pass that sees the stop flag still takes a snapshot:
                // the flag is raised after the final flush, so the last
                // version is sighted however late this thread is scheduled.
                let stopping = stop.load(Ordering::Acquire);
                let t = Instant::now();
                let snapshot = service.snapshot();
                let seen = Instant::now();
                snapshot_ns.push((seen - t).as_nanos() as f64);
                read_us.push(queries.burst_us(|| service.snapshot()));
                if snapshot.version() != last_version {
                    last_version = snapshot.version();
                    sightings.push(Sighting {
                        at: seen,
                        rows: snapshot.num_transactions(),
                    });
                }
                if stopping {
                    break;
                }
                std::thread::sleep(READ_EVERY);
            }
            (sightings, read_us, snapshot_ns)
        });

        let mut accepted_total = 0u64;
        let mut current_step = usize::MAX;
        for (step, due, rows) in schedule.iter() {
            if *step != current_step {
                let backlog = service.metrics().backlog_ops;
                if let Some(last) = backlog_at.last_mut() {
                    last.1 = backlog;
                }
                backlog_at.push((backlog, backlog));
                current_step = *step;
            }
            let due = epoch + *due;
            late_ms.push(wait_until(due));
            let batch = UpdateBatch::insert_only(rows.clone());
            let called = Instant::now();
            let result = service.try_stage(batch);
            let returned = Instant::now();
            let accepted = match result {
                Ok(()) => {
                    accepted_total += rows.len() as u64;
                    Some(accepted_total)
                }
                Err(e) => {
                    out.failed += rows.len() as u64;
                    if out.notes.len() < 5 {
                        out.notes.push(format!("batch refused: {e}"));
                    }
                    None
                }
            };
            offers.push(Offer {
                step: *step,
                due,
                called,
                returned,
                accepted_total: accepted,
            });
        }
        if let Some(last) = backlog_at.last_mut() {
            last.1 = service.metrics().backlog_ops;
        }
        // Commit the tail; the reader's last pass sees it.
        if let Err(e) = service.flush() {
            out.notes.push(format!("final flush failed: {e}"));
        }
        stop.store(true, Ordering::Release);
        reader.join().expect("reader thread panicked")
    });
    let window_end = Instant::now();
    let cpu_s = sys::cpu_seconds() - cpu_start;
    let peak_rss = sys::peak_rss_mib();
    let storage_after = sum_totals(std::slice::from_ref(&storage));
    let commit_us = service.round_latencies();
    let (mut session, metrics) = service.shutdown();
    // Read before the rounds that follow the window add to them.
    let scan_after = session.store().metrics();
    let scan_after = (scan_after.transactions_read(), scan_after.full_scans());
    let window_spans = storage.take_spans();

    // ---- visibility: due time → first snapshot seen to contain it ------
    let steps = scale.serve_rates.len();
    let mut visible_ms: Vec<Samples> = vec![Samples::new(); steps];
    let mut last_visible = epoch;
    let mut accepted_ops = 0u64;
    let mut cursor = 0;
    for offer in &offers {
        let Some(total) = offer.accepted_total else {
            continue;
        };
        while cursor < sightings.len() && sightings[cursor].rows < base_rows + total {
            cursor += 1;
        }
        match sightings.get(cursor) {
            Some(s) => {
                accepted_ops += scale.serve_batch;
                last_visible = last_visible.max(s.at);
                visible_ms[offer.step]
                    .push(s.at.saturating_duration_since(offer.due).as_secs_f64() * 1e3);
            }
            // Accepted, flushed, and still never seen: lost.
            None => out.failed += scale.serve_batch,
        }
    }
    if accepted_ops == 0 {
        return Err(format!("no batch became visible: {}", out.notes.join("; ")));
    }
    // ---- recovery, outside the clock -----------------------------------
    let accepted_rows = schedule
        .iter()
        .zip(&offers)
        .filter(|(_, offer)| offer.accepted_total.is_some())
        .map(|((_, _, rows), _)| rows);
    // The last accepted batch and the rows before it feed the probes.
    let (mut last_batch, mut rows_before_last, mut payload) = (None, 0, 0);
    for rows in accepted_rows {
        let batch = UpdateBatch::insert_only(rows.clone());
        rows_before_last = model.live_rows().len();
        payload += payload_bytes(&batch);
        model.apply(&batch);
        last_batch = Some(batch);
    }
    out.attempted += pad_for_replay(&mut session, &storage, &mut script, &mut model, scale)?;
    let mut recovery = recover_after_power_cut(&storage, scale)?;
    let recover_s = recovery.seconds.percentile(0.5);
    let lost_rounds = session.version().saturating_sub(recovery.session.version());
    out.failed += lost_rounds * scale.insert_batch;

    // ---- end-to-end metrics --------------------------------------------
    let window_s = (last_visible - epoch).as_secs_f64();
    let mut commit_ms = Samples::new();
    for &us in &commit_us {
        commit_ms.push(us as f64 / 1e3);
    }
    let durable_bytes: u64 = [Op::Append, Op::Atomic]
        .iter()
        .map(|&op| storage_after[op as usize].bytes - storage_before[op as usize].bytes)
        .sum();
    out.report("setup_s", setup_s.percentile(0.5), setup_s.len(), 0.0);
    out.report(
        "update_tps",
        accepted_ops as f64 / window_s,
        offers.len(),
        0.0,
    );
    // A round is what it is in the closed loop: one commit, as the
    // committer timed it.
    let n = commit_ms.len();
    out.report("round_p50_ms", commit_ms.percentile(0.5), n, 0.5);
    out.report_tail("round_p90_ms", &mut commit_ms);
    let reported = &mut visible_ms[REPORTED_STEP.min(steps - 1)];
    let n = reported.len();
    out.report("visible_p50_ms", reported.percentile(0.5), n, 0.5);
    out.report("read_p50_us", read_us.percentile(0.5), read_us.len(), 0.5);
    out.report("recover_s", recover_s, recovery.seconds.len(), 0.0);
    out.report(
        "write_amp",
        (payload + durable_bytes) as f64 / payload.max(1) as f64,
        1,
        0.0,
    );
    out.report(
        "cpu_ms_per_kop",
        cpu_s * 1e3 / (accepted_ops as f64 / 1e3),
        1,
        0.0,
    );
    out.report("peak_rss_mb", peak_rss, 1, 0.0);

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
        session.len() as u64,
        &expected,
    ));
    if lost_rounds == 0 {
        out.mismatches.extend(oracle::mismatches(
            "the recovered session",
            &recovery.session.snapshot(),
            recovery.session.len() as u64,
            &expected,
        ));
    }
    if metrics.dropped_rounds > 0 {
        out.mismatches
            .push(format!("{} commit rounds failed", metrics.dropped_rounds));
    }

    if !cfg.trace {
        return Ok(out);
    }

    // ---- per-layer metrics ---------------------------------------------
    let mut stage_us = Samples::new();
    let mut step_spans = Vec::new();
    for (step, &start) in step_starts.iter().enumerate() {
        let from = epoch + Duration::from_secs_f64(start);
        let to = step_starts
            .get(step + 1)
            .map_or(window_end, |&s| epoch + Duration::from_secs_f64(s));
        step_spans.push(tracer.span("serve.step", from, to, None, Some(step as u64)));
    }
    let mut stage_spans = Vec::with_capacity(offers.len());
    for offer in &offers {
        stage_us.push((offer.returned - offer.called).as_nanos() as f64 / 1e3);
        stage_spans.push(tracer.span(
            "core.service.stage",
            offer.called,
            offer.returned,
            Some(step_spans[offer.step]),
            Some(offer.step as u64),
        ));
    }
    // Committer rounds, placed by when the reader saw each version: the
    // service reports their durations, not their timestamps.
    let mut round_spans = Vec::new();
    if sightings.len() == commit_us.len() {
        for (i, (s, &us)) in sightings.iter().zip(&commit_us).enumerate() {
            let start = s.at.checked_sub(Duration::from_micros(us)).unwrap_or(epoch);
            round_spans.push(tracer.span("core.service.round", start, s.at, None, Some(i as u64)));
        }
    } else {
        out.notes.push(format!(
            "reader saw {} versions of {} rounds; committer storage spans stay unparented",
            sightings.len(),
            commit_us.len()
        ));
    }
    let (arrival, committer): (Vec<StorageSpan>, Vec<StorageSpan>) = window_spans
        .into_iter()
        .partition(|s| s.thread == arrival_thread);
    tracer.adopt_storage(&arrival, &stage_spans);
    tracer.adopt_storage(&committer, &round_spans);
    tracer.span(
        "core.durable.recover",
        recovery.span.0,
        recovery.span.1,
        None,
        None,
    );

    let mut probes = Probes::default();
    if let Some(batch) = &last_batch {
        probes.run(
            &RoundInputs {
                round: 0,
                base: &model.live_rows()[..rows_before_last],
                deleted: &[],
                batch,
                large: session.large_itemsets(),
                minconf: minconf(),
                wal: true,
                rpc: false,
            },
            &mut tracer,
        );
    }
    let start = Instant::now();
    session
        .checkpoint()
        .map_err(|e| format!("explicit checkpoint: {e}"))?;
    let checkpoint_ms = start.elapsed().as_secs_f64() * 1e3;

    out.storage_layers(&storage_before, &storage_after, 0.0, accepted_ops);
    probes.report(&mut out);
    let rounds = metrics.committed_rounds.max(1) as f64;
    out.layer(
        "tidb.scan.transactions_read",
        (scan_after.0 - scan_before.0) as f64 / rounds,
    );
    out.layer(
        "tidb.scan.full_scans",
        (scan_after.1 - scan_before.1) as f64 / rounds,
    );
    let remine_ms = expected.remine.as_secs_f64() * 1e3;
    out.layer("mining.apriori.remine_ms", remine_ms);
    out.layer(
        "mining.apriori.fup_vs_remine",
        remine_ms / commit_ms.percentile(0.5).max(1e-9),
    );
    // The service hands no per-round report out, so which updater ran and
    // its candidate accounting cannot be seen from here; nothing shards
    // or clusters.
    for idle in [
        "core.fup",
        "core.update.",
        "core.session.",
        "core.durable.",
        "core.shard.",
        "core.cluster.",
    ] {
        out.idle(idle);
    }
    out.layer("core.session.stage_ms", stage_us.mean() / 1e3);
    out.layer("core.session.commit_ms", commit_ms.mean());
    out.layer("core.session.snapshot_ns", snapshot_ns.percentile(0.5));
    out.layer("core.session.read_p99_us", read_us.percentile(0.99));
    out.layer("core.session.index_builds", metrics.index_builds as f64);
    out.layer("core.session.index_extends", metrics.index_extends as f64);
    out.layer("core.durable.checkpoint_ms", checkpoint_ms);
    out.layer("core.durable.recover_ms", recover_s * 1e3);
    out.layer(
        "core.durable.replayed_rounds",
        recovery.replayed_rounds as f64,
    );
    out.layer("core.durable.lost_rounds", lost_rounds as f64);
    out.layer(
        "core.durable.checkpoints",
        out.per_layer["tidb.storage.atomic_calls"],
    );
    out.layer("core.shard.shards", 1.0);
    out.layer("core.shard.shard_balance", 1.0);
    out.layer("datagen.generate_ms", datagen_ms.percentile(0.5));
    out.layer("bench.rounds", metrics.committed_rounds as f64);
    out.layer("bench.ops", accepted_ops as f64);
    out.layer("bench.update_tps", accepted_ops as f64 / window_s);

    out.layer("core.service.stage_call_p50_us", stage_us.percentile(0.5));
    out.layer("core.service.stage_call_p99_us", stage_us.percentile(0.99));
    out.layer("core.service.rounds", metrics.committed_rounds as f64);
    out.layer("core.service.commit_p50_ms", commit_ms.percentile(0.5));
    out.layer(
        "core.service.commit_ms_total",
        metrics.total_commit_micros as f64 / 1e3,
    );
    out.layer("core.service.max_round_ops", metrics.max_round_ops as f64);
    out.layer(
        "core.service.max_backlog_ops",
        metrics.max_backlog_ops as f64,
    );
    out.layer(
        "core.service.backpressure_rejections",
        metrics.backpressure_rejections as f64,
    );
    out.layer("core.service.gen_late_p99_ms", late_ms.percentile(0.99));
    let mut sustained = 0;
    for (step, names) in [
        [
            "core.service.step1.visible_p50_ms",
            "core.service.step1.visible_p99_ms",
        ],
        [
            "core.service.step2.visible_p50_ms",
            "core.service.step2.visible_p99_ms",
        ],
        [
            "core.service.step3.visible_p50_ms",
            "core.service.step3.visible_p99_ms",
        ],
    ]
    .into_iter()
    .enumerate()
    {
        let samples = &mut visible_ms[step];
        let (p50, p99) = (samples.percentile(0.5), samples.percentile(0.99));
        out.layer(names[0], p50);
        out.layer(names[1], p99);
        let (backlog_start, backlog_end) = backlog_at[step];
        let offered = offers.iter().filter(|o| o.step == step).count();
        if samples.len() == offered
            && p99 <= VISIBLE_LIMIT_MS
            && backlog_end <= backlog_start + scale.serve_round_ops
        {
            sustained = sustained.max(scale.serve_rates[step]);
        }
    }
    out.layer("core.service.sustained_tps", sustained as f64);

    crate::report::trace_notes(&mut out, &tracer, commit_ms.sum());
    tracer
        .write_json(&cfg.trace_out, cfg.workload, cfg.seed)
        .map_err(|e| format!("write {}: {e}", cfg.trace_out.display()))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lateness_is_measured_from_the_due_time() {
        // A due time already 30 ms in the past: no sleep, and at least
        // that much lateness reported.
        let due = Instant::now() - Duration::from_millis(30);
        let late = wait_until(due);
        assert!((30.0..1_000.0).contains(&late), "late by {late} ms");
        // A due time ahead: the call returns no earlier than it, and
        // lateness is only the oversleep.
        let due = Instant::now() + Duration::from_millis(5);
        let late = wait_until(due);
        assert!(Instant::now() >= due);
        assert!((0.0..1_000.0).contains(&late), "late by {late} ms");
    }
}
