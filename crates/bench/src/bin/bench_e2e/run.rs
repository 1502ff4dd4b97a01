//! What every workload shares: its configuration, the session settings
//! common to all six, and the result it hands back for printing.

use crate::script::{Model, Scale, Script};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{supported_percentile, Samples};
use crate::sys;
use crate::timed_storage::{Op, OpTotals, TimedStorage};
use fup_core::{DurabilityPolicy, Maintainer, MaintainerBuilder};
use fup_mining::{MinConfidence, MinSupport};
use fup_tidb::{DiskStorage, DurableStorage, Transaction, UpdateBatch};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Rounds a recovery replays. After the clock stops, a durable session
/// commits on, outside it, until exactly this many rounds follow its last
/// checkpoint, so every run recovers the same amount of log.
pub const REPLAY_ROUNDS: u64 = 4;

/// Times a recovery is repeated; `recover_s` is their median.
pub const RECOVER_REPS: usize = 3;

/// Minimum support of every workload at `scale`.
pub fn minsup(scale: &Scale) -> MinSupport {
    MinSupport::basis_points(scale.minsup_bp)
}

/// Minimum confidence of every workload.
pub fn minconf() -> MinConfidence {
    MinConfidence::percent(50)
}

/// One process runs one workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: &'static str,
    pub seed: u64,
    /// Seconds of system busy time to measure.
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: PathBuf,
    pub scale: Scale,
}

/// The session settings every workload uses: single-threaded counting
/// and candidate generation, the default (`Auto`) backend, the default
/// update policy.
pub fn builder(scale: &Scale) -> MaintainerBuilder {
    Maintainer::builder()
        .min_support(minsup(scale))
        .min_confidence(minconf())
        .threads(1)
        .gen_threads(1)
}

/// A fresh `DiskStorage` namespace behind the decorator.
pub fn disk(label: &str, timing: bool) -> Result<Arc<TimedStorage>, String> {
    let dir = sys::fresh_work_dir(label);
    let disk = DiskStorage::open(&dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    Ok(Arc::new(TimedStorage::new(Arc::new(disk), timing)))
}

/// Bytes of update payload in a batch, by a format of the benchmark's own
/// (eight per tid, four per item): the denominator of `write_amp`, which
/// must not move when the library's encodings do.
pub fn payload_bytes(batch: &UpdateBatch) -> u64 {
    let row = |t: &Transaction| 8 + 4 * t.items().len() as u64;
    batch.inserts.iter().map(row).sum::<u64>() + 8 * batch.deletes.len() as u64
}

/// Commits insert-only rounds, outside the clock, until exactly
/// [`REPLAY_ROUNDS`] follow the session's last checkpoint. Returns the ops
/// committed on the way.
pub fn pad_for_replay(
    session: &mut Maintainer,
    storage: &TimedStorage,
    script: &mut Script,
    model: &mut Model,
    scale: &Scale,
) -> Result<u64, String> {
    let (mut ops, mut since_checkpoint) = (0, None);
    for _ in 0..64 {
        if since_checkpoint == Some(REPLAY_ROUNDS) {
            return Ok(ops);
        }
        let batch = UpdateBatch::insert_only(script.transactions(scale.insert_batch));
        let checkpoints = storage.totals(Op::Atomic).calls;
        session
            .stage(batch.clone())
            .and_then(|()| session.commit())
            .map_err(|e| format!("round after the clock stopped: {e}"))?;
        ops += batch.num_ops();
        model.apply(&batch);
        since_checkpoint = if storage.totals(Op::Atomic).calls > checkpoints {
            Some(0)
        } else {
            since_checkpoint.map(|n| n + 1)
        };
    }
    Err("no checkpoint landed in 64 rounds".into())
}

/// A session recovered from a power-cut image, and what that took.
pub struct Recovered {
    pub session: Maintainer,
    /// Seconds of each of [`RECOVER_REPS`] recoveries, each from a fresh
    /// image.
    pub seconds: Samples,
    pub replayed_rounds: u64,
    /// Milliseconds the last recovery spent reading its image.
    pub read_ms: f64,
    /// The last recovery, for the trace.
    pub span: (Instant, Instant),
}

/// Cuts the power on `storage` — every file back to its flushed length —
/// and recovers a session from what is left.
pub fn recover_after_power_cut(storage: &TimedStorage, scale: &Scale) -> Result<Recovered, String> {
    let mut seconds = Samples::new();
    let mut last = None;
    for _ in 0..RECOVER_REPS {
        let image = disk("image", true)?;
        storage
            .power_cut_image(image.as_ref())
            .map_err(|e| format!("power-cut image: {e}"))?;
        let start = Instant::now();
        let (session, report) = builder(scale)
            .durability(DurabilityPolicy::default())
            .recover(Arc::clone(&image) as Arc<dyn DurableStorage>)
            .map_err(|e| format!("recover from the power-cut image: {e}"))?;
        let end = Instant::now();
        seconds.push((end - start).as_secs_f64());
        last = Some((session, report.replayed_rounds, image, (start, end)));
    }
    let (session, replayed_rounds, image, span) = last.expect("at least one recovery");
    Ok(Recovered {
        session,
        seconds,
        replayed_rounds,
        read_ms: image.totals(Op::Read).nanos as f64 / 1e6,
        span,
    })
}

/// One reported end-to-end value with the samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Reported {
    pub value: f64,
    pub samples: usize,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Update operations offered, and those refused, shed, errored or
    /// lost to the power cut.
    pub attempted: u64,
    pub failed: u64,
    /// Oracle mismatches; any makes the run incorrect.
    pub mismatches: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, Reported>,
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Extra lines for the human reader (self times, sample warnings).
    pub notes: Vec<String>,
}

impl RunOutput {
    /// Records an end-to-end metric. `percentile` names the percentile a
    /// timing was taken at, so a series too short for it by the
    /// ten-samples-beyond rule is flagged in the notes.
    pub fn report(&mut self, name: &'static str, value: f64, samples: usize, percentile: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name),
            "{name} is not an end-to-end metric"
        );
        if percentile > 0.0 && supported_percentile(samples).is_none_or(|p| p < percentile) {
            self.notes.push(format!(
                "{name}: p{} of {samples} samples has fewer than ten samples beyond it",
                percentile * 100.0
            ));
        }
        self.end_to_end.insert(name, Reported { value, samples });
    }

    /// Records a tail latency under its `*_p90_*` name: at p90 when ten
    /// samples lie beyond it, else at the highest percentile of the ladder
    /// that has them (p75 from 40 samples on), else at the median — a run
    /// of eight rounds has no tail to report, and its slowest round is
    /// noise. The notes say which.
    pub fn report_tail(&mut self, name: &'static str, samples: &mut Samples) {
        let n = samples.len();
        let p = supported_percentile(n).map_or(0.5, |p| p.min(0.9));
        if p < 0.9 {
            self.notes.push(format!(
                "{name}: {n} samples support no p90; reported at p{}",
                p * 100.0
            ));
        }
        self.report(name, samples.percentile(p), n, p);
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.per_layer.insert(name, value);
    }

    /// Sets every per-layer metric under `prefix` to 0: that layer does no
    /// work in this workload (or cannot be seen from outside it).
    pub fn idle(&mut self, prefix: &str) {
        let before = self.per_layer.len();
        for m in PER_LAYER.iter().filter(|m| m.name.starts_with(prefix)) {
            self.per_layer.insert(m.name, 0.0);
        }
        assert!(
            self.per_layer.len() > before,
            "no new metric under {prefix}"
        );
    }

    /// Records `tidb.storage.*` from the decorator's totals before and
    /// after the measured section. `read_ms` is passed in: reads happen
    /// at recovery only, on another namespace.
    pub fn storage_layers(
        &mut self,
        before: &[OpTotals; 4],
        after: &[OpTotals; 4],
        read_ms: f64,
        ops: u64,
    ) {
        let diff = |op: Op| {
            let (a, b) = (after[op as usize], before[op as usize]);
            (
                (a.calls - b.calls) as f64,
                (a.bytes - b.bytes) as f64,
                (a.nanos - b.nanos) as f64 / 1e6,
            )
        };
        let (append, sync, atomic) = (diff(Op::Append), diff(Op::Sync), diff(Op::Atomic));
        self.layer("tidb.storage.append_calls", append.0);
        self.layer("tidb.storage.append_bytes", append.1);
        self.layer("tidb.storage.append_ms", append.2);
        self.layer("tidb.storage.sync_calls", sync.0);
        self.layer("tidb.storage.sync_ms", sync.2);
        self.layer("tidb.storage.atomic_calls", atomic.0);
        self.layer("tidb.storage.atomic_bytes", atomic.1);
        self.layer("tidb.storage.atomic_ms", atomic.2);
        self.layer("tidb.storage.read_ms", read_ms);
        self.layer(
            "tidb.storage.bytes_per_op",
            (append.1 + atomic.1) / ops.max(1) as f64,
        );
    }

    /// Share of attempted operations that failed.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}
