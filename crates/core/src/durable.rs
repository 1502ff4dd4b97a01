//! Durability for maintenance sessions: a write-ahead log, periodic
//! checkpoints, and recovery over an injectable
//! [`DurableStorage`] medium.
//!
//! One log, two users: a [`Maintainer`](crate::Maintainer), and each
//! cluster [`ShardWorker`](crate::ShardWorker), whose records are keyed
//! by round and whose checkpoints carry no itemsets.
//!
//! ## Protocol
//!
//! A durable session keeps two kinds of files in its storage directory,
//! both named by a shared **sequence number**:
//!
//! * `ckpt-<seq>` — a checkpoint (written atomically), in one of two
//!   shapes. A **full image** holds the live transactions in tid order
//!   as [`PagedStore`] pages, the watermark + tombstone live-tid view,
//!   the maintained large itemsets and the staged-but-uncommitted
//!   backlog. A **delta** names its parent checkpoint and holds only the
//!   rows inserted and the tids tombstoned since it, plus the itemsets,
//!   watermark and backlog whole. Neither stores rules (a pure function
//!   of the itemsets and the confidence threshold) or the vertical index
//!   (rebuilt by the first round that counts vertically).
//! * `wal-<seq>` — the append-only log of everything since `ckpt-<seq>`:
//!   one CRC32-framed [`WalRecord`] per staged batch (written *before*
//!   the batch becomes visible to a commit round) plus a `Commit` /
//!   `Abort` boundary record per round.
//!
//! Checkpoints and WAL segments rotate together: writing `ckpt-<s>`
//! starts a fresh, empty `wal-<s>` (the backlog is embedded in the
//! checkpoint). Most checkpoints are deltas, the recovery seal included;
//! a full image is cut once the deltas since the last one add up to its
//! size, and on every heal. Retention keeps the
//! [`DurabilityPolicy::retain_checkpoints`] newest full images and every
//! file from the oldest of them on, so each retained checkpoint's chain
//! is complete.
//!
//! ## Recovery invariant
//!
//! Recovery assembles the newest checkpoint whose chain — the delta, its
//! parents, down to a full image — validates (magic + CRC + structure on
//! every file), replays the WAL tail, and reproduces **exactly the state
//! of every durably-acknowledged commit**: a round whose `Commit`
//! boundary reached storage has its rows re-applied bit-for-bit (in the
//! arrival order the tickets pin), and the itemsets are mined once from
//! the resulting store — they are a function of the live rows, as every
//! FUP round equals a from-scratch mine; a round that crashed mid-flight
//! is rolled back, with its staged batches re-queued. A torn or corrupt
//! WAL tail is dropped (reported, never a panic) — safe because a
//! `Commit` record always follows its `Stage` records in file order, so
//! dropping a suffix can only un-stage batches, never lose an
//! acknowledged commit. A corrupt checkpoint file — full or delta — falls
//! back to an older checkpoint whose chain avoids it, at the cost of
//! re-applying more rows (still one mine). Recovery then seals with the
//! log's next ordinary checkpoint: the log resumes the assembled chain's
//! byte counts, so the usual full-cut rule applies and the seal is
//! usually a delta, holding the tail's rows, on the chosen checkpoint.
//!
//! ## Fault handling
//!
//! Storage failures are classified by the backend (see
//! [`fup_tidb::FaultKind`]) and handled in three tiers:
//!
//! * **Transient, within budget** — retried in place per the session's
//!   [`RetryPolicy`] (bounded attempts, exponential backoff,
//!   deterministic jitter). An in-place WAL append retry first verifies
//!   the failed attempt left no partial bytes on the segment.
//! * **Transient, budget exhausted** (or a suspect partial append) —
//!   the log enters the **degraded** state: durable operations fail
//!   fast with [`Error::DurabilityDegraded`] until a heal. Healing is
//!   simply the next checkpoint install succeeding: checkpoints
//!   embed the staged backlog and rotate to a fresh WAL segment, so one
//!   atomic install supersedes the suspect tail *and* re-logs every
//!   staged record.
//! * **Permanent** — the log is **poisoned**: every later durable
//!   operation fails with [`Error::Recovery`] until the session is
//!   rebuilt via recovery. The in-memory session may have state the log
//!   no longer reflects, and a half-logged session must never
//!   acknowledge more work.

use crate::error::{BuildError, Error, Result};
use fup_mining::{Itemset, LargeItemsets};
use fup_tidb::codec::{read_varint, read_varint64, write_varint, write_varint64};
use fup_tidb::page::{self, PagedStore};
use fup_tidb::wal::{self, WalRecord};
use fup_tidb::{sync, DurableStorage, ShardedDb, StagingArea, Tid, Transaction, UpdateBatch};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Magic prefix of every checkpoint file, full image or delta.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"FUPCKPT2";

/// How a durable session trades write latency for recovery work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityPolicy {
    /// Issue storage `sync` barriers for WAL appends (default `true`).
    /// With `false`, a crash may lose the latest records the medium had
    /// not flushed — recovery still works, from an earlier prefix.
    pub fsync: bool,
    /// **Group commit**: sync after this many appended `Stage` records
    /// instead of after every one (default 1 = per-append fsync). With
    /// `n > 1` the fsync moves off the producer's critical path: up to
    /// `n - 1` staged-but-unacknowledged-durable records may be lost by
    /// a power-loss crash (they were never part of a committed round —
    /// `Commit`/`Abort` boundaries *always* sync before returning, so
    /// acknowledged commits keep the per-append guarantee). Must be ≥ 1.
    /// Ignored when `fsync` is `false`.
    pub flush_every_ops: u64,
    /// Group-commit age bound: if the oldest unflushed `Stage` record
    /// has waited at least this long when the next append arrives, sync
    /// then even if the `flush_every_ops` quota is not yet met (default
    /// 2 ms). Checked at append time (and satisfied by every round
    /// boundary, which always syncs) — there is no background flusher
    /// thread.
    pub flush_interval: std::time::Duration,
    /// Write a checkpoint (and rotate the WAL) every this many committed
    /// rounds (default 8). Must be ≥ 1.
    pub checkpoint_every_rounds: u64,
    /// Keep this many most-recent checkpoints, with the WAL segments
    /// reaching back to the oldest retained one (default 2, so a corrupt
    /// newest checkpoint still recovers). Must be ≥ 1.
    pub retain_checkpoints: usize,
    /// Bounded retry for *transient* storage faults (see
    /// [`fup_tidb::FaultKind`]). Exhausting it degrades the log instead
    /// of poisoning it; [`RetryPolicy::none`] restores fail-on-first-blip.
    pub retry: RetryPolicy,
}

impl Default for DurabilityPolicy {
    fn default() -> Self {
        DurabilityPolicy {
            fsync: true,
            flush_every_ops: 1,
            flush_interval: std::time::Duration::from_millis(2),
            checkpoint_every_rounds: 8,
            retain_checkpoints: 2,
            retry: RetryPolicy::default(),
        }
    }
}

impl DurabilityPolicy {
    /// The default policy with group commit: stage-record fsyncs batched
    /// `ops` records at a time, bounded by `interval` of waiting.
    pub fn group_commit(ops: u64, interval: std::time::Duration) -> Self {
        DurabilityPolicy {
            flush_every_ops: ops,
            flush_interval: interval,
            ..Default::default()
        }
    }

    /// Replaces the transient-fault retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Rejects degenerate configurations.
    pub fn validate(&self) -> std::result::Result<(), BuildError> {
        if self.checkpoint_every_rounds == 0 {
            return Err(BuildError::ZeroCheckpointInterval);
        }
        if self.retain_checkpoints == 0 {
            return Err(BuildError::ZeroRetainedCheckpoints);
        }
        if self.flush_every_ops == 0 {
            return Err(BuildError::ZeroFlushOps);
        }
        self.retry.validate()
    }
}

/// Bounded retry with exponential backoff and deterministic jitter, for
/// faults classified [`Transient`](fup_tidb::FaultKind::Transient).
///
/// Delay before retry `r` (1-based) is `base_backoff * 2^(r-1)`, capped
/// at `max_backoff`, then jittered down by up to half so a fleet of
/// retriers never thunders in phase. The jitter is a pure function of
/// `jitter_seed` and the retry number — two runs with the same seed
/// sleep identically, which keeps fault-injection tests deterministic.
///
/// The same type drives client-side admission retries
/// ([`StageHandle::stage_with_retry`](crate::StageHandle::stage_with_retry)),
/// where "transient" means backpressure (`WouldBlock` / `StageTimeout`)
/// or a degraded service rather than a storage blip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (default 4). Must be ≥ 1; a
    /// value of 1 means "never retry".
    pub max_attempts: u32,
    /// Delay before the first retry (default 2 ms).
    pub base_backoff: Duration,
    /// Ceiling on any single delay (default 100 ms). Must be ≥
    /// `base_backoff`.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(100),
            jitter_seed: 0xf00d_5eed,
        }
    }
}

impl RetryPolicy {
    /// No retries at all: one attempt, fail on the first fault.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..Default::default()
        }
    }

    /// `attempts` total attempts with the default backoff shape.
    pub fn attempts(attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: attempts,
            ..Default::default()
        }
    }

    /// Replaces the backoff range.
    pub fn backoff(mut self, base: Duration, max: Duration) -> Self {
        self.base_backoff = base;
        self.max_backoff = max;
        self
    }

    /// Replaces the jitter seed.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// Rejects degenerate configurations.
    pub fn validate(&self) -> std::result::Result<(), BuildError> {
        if self.max_attempts == 0 {
            return Err(BuildError::ZeroRetryAttempts);
        }
        if self.base_backoff > self.max_backoff {
            return Err(BuildError::InvertedRetryBackoff);
        }
        Ok(())
    }

    /// The delay before retry number `retry` (1-based; 0 returns zero).
    /// Exponential in the retry number, capped at `max_backoff`, then
    /// jittered deterministically into the upper half of the window.
    pub fn delay(&self, retry: u32) -> Duration {
        if retry == 0 {
            return Duration::ZERO;
        }
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << retry.saturating_sub(1).min(20))
            .min(self.max_backoff);
        let nanos = exp.as_nanos().min(u64::MAX as u128) as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        let jitter = splitmix64(self.jitter_seed ^ u64::from(retry)) % (nanos / 2 + 1);
        Duration::from_nanos(nanos - jitter)
    }

    /// Sleeps for [`delay`](Self::delay) (skipping zero-length sleeps).
    pub(crate) fn pause(&self, retry: u32) {
        let d = self.delay(retry);
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

/// SplitMix64 — tiny, statistically solid, and dependency-free; used
/// only to decorrelate retry delays, never for anything security-like.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// What [`recover`](crate::MaintainerBuilder::recover) found and did.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Sequence number of the checkpoint recovery started from.
    pub checkpoint_seq: u64,
    /// Checkpoints skipped because they, or a file of their delta chain,
    /// failed validation (newest first) — recovery fell back past them.
    pub corrupt_checkpoints: Vec<u64>,
    /// Committed rounds in the WAL tail whose rows were re-applied to the
    /// store (one per `Commit` boundary, empty `remine()` boundaries
    /// included). When non-zero, recovery mined the store once after the
    /// last of them instead of re-running each round.
    pub replayed_rounds: u64,
    /// Staged-but-uncommitted batches re-queued for the next commit
    /// (checkpoint backlog plus un-committed WAL stages).
    pub restaged_batches: u64,
    /// Why the WAL tail was dropped, when it was (a torn or corrupt
    /// frame; everything before it was replayed normally).
    pub wal_tail_dropped: Option<fup_tidb::Error>,
    /// The state version after recovery — equal to the version of the
    /// last durably-acknowledged commit.
    pub version: u64,
}

// ------------------------------------------------------- file naming --

pub(crate) fn wal_name(seq: u64) -> String {
    format!("wal-{seq:08}")
}

pub(crate) fn ckpt_name(seq: u64) -> String {
    format!("ckpt-{seq:08}")
}

fn parse_seq(name: &str, prefix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.parse().ok()
}

// ------------------------------------------------- checkpoint format --

/// The checkpoint a delta extends: its sequence number and watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Parent {
    pub seq: u64,
    pub watermark: u64,
}

/// A decoded checkpoint file. A full image (`parent: None`) holds the
/// whole session; a delta holds what changed since its parent. Recovery
/// only ever sees full images: [`load_latest`] folds each delta into its
/// parent's image. Everything needed to rebuild a [`Maintainer`]
/// (`crate::Maintainer`) except the configuration, which the recovering
/// builder supplies.
#[derive(Debug)]
pub(crate) struct CheckpointImage {
    pub seq: u64,
    pub parent: Option<Parent>,
    pub version: u64,
    pub minsup: (u64, u64),
    pub minconf: (u64, u64),
    pub watermark: u64,
    pub next_segment: u32,
    /// Full image: every tombstoned tid. Delta: the tids tombstoned since
    /// the parent (its deleted rows, and rows inserted and deleted since).
    pub tombstones: Vec<Tid>,
    /// Full image: every live row. Delta: the rows inserted since the
    /// parent and still live.
    pub live: Vec<(Tid, Transaction)>,
    pub large: LargeItemsets,
    pub backlog: Vec<(u64, UpdateBatch)>,
}

/// What every checkpoint carries whole, full image or delta.
#[derive(Debug)]
struct CheckpointHead<'a> {
    pub seq: u64,
    pub parent: Option<Parent>,
    pub version: u64,
    pub minsup: (u64, u64),
    pub minconf: (u64, u64),
    pub watermark: u64,
    pub next_segment: u32,
    pub large: &'a LargeItemsets,
    pub backlog: &'a [(u64, UpdateBatch)],
}

fn corrupt(reason: impl Into<String>, offset: usize) -> fup_tidb::Error {
    fup_tidb::Error::Corrupt {
        reason: reason.into(),
        offset: Some(offset),
    }
}

fn encode_tids(buf: &mut Vec<u8>, tids: &[Tid]) {
    // Ascending, so delta-encoded like WAL ticket lists.
    write_varint64(buf, tids.len() as u64);
    let mut prev = 0u64;
    for (i, &Tid(t)) in tids.iter().enumerate() {
        write_varint64(buf, if i == 0 { t } else { t - prev });
        prev = t;
    }
}

fn decode_tids(buf: &[u8], pos: &mut usize) -> std::result::Result<Vec<Tid>, fup_tidb::Error> {
    let n = read_varint64(buf, pos)? as usize;
    let mut out = Vec::with_capacity(n.min(buf.len()));
    let mut prev = 0u64;
    for i in 0..n {
        let at = *pos;
        let v = read_varint64(buf, pos)?;
        let t = if i == 0 {
            v
        } else {
            if v == 0 {
                return Err(corrupt("duplicate tid in checkpoint list", at));
            }
            prev.checked_add(v)
                .ok_or_else(|| corrupt("tid delta overflows u64", at))?
        };
        out.push(Tid(t));
        prev = t;
    }
    Ok(out)
}

/// Checks that `live` and the `tombstones` at or above `lo` (each list
/// strictly ascending) split the tid range `lo..hi` exactly: every tid in
/// it is one or the other, and neither list strays outside it.
fn check_partition(
    live: &[(Tid, Transaction)],
    tombstones: &[Tid],
    lo: u64,
    hi: u64,
    at: usize,
) -> std::result::Result<(), fup_tidb::Error> {
    let split = || corrupt("live tids and tombstones do not split the tid range", at);
    let tombstones = &tombstones[tombstones.partition_point(|t| t.0 < lo)..];
    let span = hi.checked_sub(lo).ok_or_else(split)?;
    if (live.len() + tombstones.len()) as u64 != span {
        return Err(split());
    }
    let mut live = live.iter().map(|&(tid, _)| tid).peekable();
    let mut dead = tombstones.iter().copied().peekable();
    for expect in (lo..hi).map(Tid) {
        if live
            .next_if_eq(&expect)
            .or_else(|| dead.next_if_eq(&expect))
            .is_none()
        {
            return Err(split());
        }
    }
    Ok(())
}

/// Serialises a checkpoint file (magic + CRC + body). For a full image
/// (`head.parent` is `None`) `tombstones` and `live` are the whole
/// live-tid view; for a delta they are the tids tombstoned and the rows
/// inserted since the parent. Both in ascending tid order. Fails only if
/// a transaction cannot fit a storage page.
fn encode_checkpoint(
    head: &CheckpointHead<'_>,
    tombstones: &[Tid],
    live: &[(Tid, &Transaction)],
) -> std::result::Result<Vec<u8>, fup_tidb::Error> {
    let mut body = Vec::new();
    write_varint64(&mut body, head.seq);
    match head.parent {
        None => body.push(0),
        Some(parent) => {
            body.push(1);
            write_varint64(&mut body, parent.seq);
            write_varint64(&mut body, parent.watermark);
        }
    }
    write_varint64(&mut body, head.version);
    write_varint64(&mut body, head.minsup.0);
    write_varint64(&mut body, head.minsup.1);
    write_varint64(&mut body, head.minconf.0);
    write_varint64(&mut body, head.minconf.1);
    write_varint64(&mut body, head.watermark);
    write_varint(&mut body, head.next_segment);
    encode_tids(&mut body, tombstones);

    // Live transactions ride in the paged storage format — the same 4 KiB
    // page layout the scan-cost model charges — with a parallel tid list.
    let tids: Vec<Tid> = live.iter().map(|&(tid, _)| tid).collect();
    let store = PagedStore::from_transactions(live.iter().map(|&(_, t)| t))?;
    encode_tids(&mut body, &tids);
    write_varint64(&mut body, store.page_size() as u64);
    write_varint64(&mut body, store.num_pages() as u64);
    for p in 0..store.num_pages() {
        let page = store.page_bytes(p);
        write_varint64(&mut body, page.len() as u64);
        body.extend_from_slice(page);
    }

    // Large itemsets with exact supports, level by level in sorted order
    // so identical states encode identically.
    let large = head.large;
    write_varint64(&mut body, large.num_transactions());
    write_varint64(&mut body, large.len() as u64);
    for k in 1..=large.max_size() {
        for (itemset, support) in large.level_sorted(k) {
            write_varint64(&mut body, itemset.items().len() as u64);
            for &item in itemset.items() {
                write_varint(&mut body, item.raw());
            }
            write_varint64(&mut body, support);
        }
    }

    // Staged-but-uncommitted backlog, so the fresh WAL starts empty.
    write_varint64(&mut body, head.backlog.len() as u64);
    for (ticket, batch) in head.backlog {
        write_varint64(&mut body, *ticket);
        wal::encode_batch(&mut body, batch);
    }

    let mut out = Vec::with_capacity(CHECKPOINT_MAGIC.len() + 4 + body.len());
    out.extend_from_slice(CHECKPOINT_MAGIC);
    out.extend_from_slice(&wal::crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    Ok(out)
}

/// Serialises `store` as checkpoint `seq`: with a `base`, a delta (the
/// rows inserted since its parent and the tids deleted since); without,
/// a full image (the tid-ordered live set and its tombstones). The rest
/// — `version`, `(minsup, minconf)`, itemsets, backlog — rides whole.
pub(crate) fn encode_store(
    store: &ShardedDb,
    seq: u64,
    base: Option<DeltaBase<'_>>,
    version: u64,
    thresholds: ((u64, u64), (u64, u64)),
    large: &LargeItemsets,
    backlog: &[(u64, UpdateBatch)],
) -> Result<Vec<u8>> {
    let (tombstones, from) = match base {
        None => (store.live_view().tombstones_sorted(), 0),
        Some(base) => (base.deleted.to_vec(), base.parent.watermark),
    };
    let head = CheckpointHead {
        seq,
        parent: base.map(|b| b.parent),
        version,
        minsup: thresholds.0,
        minconf: thresholds.1,
        watermark: store.watermark(),
        next_segment: store.next_segment(),
        large,
        backlog,
    };
    encode_checkpoint(&head, &tombstones, &rows_from(store, from)).map_err(Error::Store)
}

/// The live rows at or above tid `from`, ascending. Each shard holds its
/// rows in ascending tid order, so these are its tail: the shards' tails
/// are merged from the back, which reads no row below `from`.
fn rows_from(store: &ShardedDb, from: u64) -> Vec<(Tid, &Transaction)> {
    let shards = (0..store.num_shards()).map(|s| store.shard(s).iter().rev());
    let mut tails: Vec<_> = (shards.map(|tail| tail.take_while(move |r| r.0 .0 >= from)))
        .map(Iterator::peekable)
        .collect();
    let mut rows = Vec::with_capacity(store.len().min((store.watermark() - from) as usize));
    while let Some((_, s)) = (0..tails.len())
        .filter_map(|s| Some((tails[s].peek()?.0, s)))
        .max()
    {
        rows.push(tails[s].next().expect("peeked"));
    }
    rows.reverse();
    rows
}

/// Decodes and fully validates one checkpoint file, full image or delta.
/// Any structural damage — bad magic, CRC mismatch, truncation,
/// out-of-range references, a tid range the live rows and tombstones do
/// not split exactly — yields a typed [`fup_tidb::Error::Corrupt`]; this
/// function never panics on untrusted bytes.
pub(crate) fn decode_checkpoint(
    bytes: &[u8],
) -> std::result::Result<CheckpointImage, fup_tidb::Error> {
    let header = CHECKPOINT_MAGIC.len() + 4;
    if bytes.len() < header || &bytes[..CHECKPOINT_MAGIC.len()] != CHECKPOINT_MAGIC {
        return Err(corrupt("missing checkpoint magic", 0));
    }
    let crc = u32::from_le_bytes(
        bytes[CHECKPOINT_MAGIC.len()..header]
            .try_into()
            .expect("4 bytes"),
    );
    let body = &bytes[header..];
    if wal::crc32(body) != crc {
        return Err(corrupt("checkpoint CRC mismatch", CHECKPOINT_MAGIC.len()));
    }

    let mut pos = 0usize;
    let seq = read_varint64(body, &mut pos)?;
    let parent = match body.get(pos) {
        Some(0) => {
            pos += 1;
            None
        }
        Some(1) => {
            pos += 1;
            let parent = Parent {
                seq: read_varint64(body, &mut pos)?,
                watermark: read_varint64(body, &mut pos)?,
            };
            if parent.seq >= seq {
                return Err(corrupt("delta names a parent that is not older", pos));
            }
            Some(parent)
        }
        Some(_) => return Err(corrupt("bad checkpoint kind", pos)),
        None => return Err(corrupt("truncated before checkpoint kind", pos)),
    };
    let version = read_varint64(body, &mut pos)?;
    let minsup = (
        read_varint64(body, &mut pos)?,
        read_varint64(body, &mut pos)?,
    );
    let minconf = (
        read_varint64(body, &mut pos)?,
        read_varint64(body, &mut pos)?,
    );
    let watermark = read_varint64(body, &mut pos)?;
    let next_segment = read_varint(body, &mut pos)?;
    let tombstones = decode_tids(body, &mut pos)?;

    let tids = decode_tids(body, &mut pos)?;
    let page_size = read_varint64(body, &mut pos)? as usize;
    if !(64..=16 << 20).contains(&page_size) {
        return Err(corrupt("implausible checkpoint page size", pos));
    }
    // Each page decodes in place, straight into rows, in one pass.
    let num_pages = read_varint64(body, &mut pos)?;
    let mut transactions = Vec::with_capacity(tids.len());
    for _ in 0..num_pages {
        let at = pos;
        let len = read_varint64(body, &mut pos)? as usize;
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= body.len())
            .ok_or_else(|| corrupt("checkpoint page truncated", at))?;
        page::decode_page(&body[pos..end], page_size, &mut transactions)?;
        pos = end;
    }
    if transactions.len() != tids.len() {
        return Err(corrupt(
            format!(
                "checkpoint holds {} transactions but {} tids",
                transactions.len(),
                tids.len()
            ),
            pos,
        ));
    }
    let live: Vec<(Tid, Transaction)> = tids.into_iter().zip(transactions).collect();
    // A full image splits every tid below its watermark into live rows and
    // tombstones; a delta, the tids allocated since its parent.
    check_partition(
        &live,
        &tombstones,
        parent.map_or(0, |p| p.watermark),
        watermark,
        pos,
    )?;

    let baseline = read_varint64(body, &mut pos)?;
    let num_large = read_varint64(body, &mut pos)? as usize;
    let mut large = LargeItemsets::new(baseline);
    for _ in 0..num_large {
        let at = pos;
        let len = read_varint64(body, &mut pos)? as usize;
        if len == 0 || len > 100_000 {
            return Err(corrupt("implausible itemset length", at));
        }
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(read_varint(body, &mut pos)?);
        }
        let itemset = Itemset::from_items(items);
        if itemset.items().len() != len {
            return Err(corrupt("itemset with duplicate items", at));
        }
        let support = read_varint64(body, &mut pos)?;
        if large.support(&itemset).is_some() {
            return Err(corrupt("duplicate itemset in checkpoint", at));
        }
        large.insert(itemset, support);
    }
    if large.len() != num_large {
        return Err(corrupt("itemset count mismatch", pos));
    }

    let num_backlog = read_varint64(body, &mut pos)? as usize;
    let mut backlog = Vec::with_capacity(num_backlog.min(1 << 20));
    let mut prev_ticket: Option<u64> = None;
    for _ in 0..num_backlog {
        let at = pos;
        let ticket = read_varint64(body, &mut pos)?;
        if prev_ticket.is_some_and(|p| ticket <= p) {
            return Err(corrupt("backlog tickets out of order", at));
        }
        prev_ticket = Some(ticket);
        let batch = wal::decode_batch(body, &mut pos)?;
        backlog.push((ticket, batch));
    }
    if pos != body.len() {
        return Err(corrupt("trailing bytes after checkpoint", pos));
    }

    Ok(CheckpointImage {
        seq,
        parent,
        version,
        minsup,
        minconf,
        watermark,
        next_segment,
        tombstones,
        live,
        large,
        backlog,
    })
}

impl CheckpointImage {
    /// Folds `delta`, a decoded delta whose parent is this full image,
    /// into it: drops the rows it deletes, appends the rows it inserts,
    /// and takes its header, itemsets and backlog. A delta that does not
    /// extend this image — wrong parent, other thresholds, an earlier
    /// version, or a deletion of a row the image does not hold — is
    /// [`fup_tidb::Error::Corrupt`].
    fn apply(&mut self, delta: CheckpointImage) -> std::result::Result<(), fup_tidb::Error> {
        let parent = Parent {
            seq: self.seq,
            watermark: self.watermark,
        };
        if delta.parent != Some(parent)
            || (delta.minsup, delta.minconf) != (self.minsup, self.minconf)
            || delta.version < self.version
        {
            return Err(corrupt(
                format!(
                    "delta {} does not extend checkpoint {}",
                    delta.seq, self.seq
                ),
                0,
            ));
        }
        // The delta's tombstones below the parent's watermark are the
        // parent rows it deletes; both lists are ascending.
        let below = delta.tombstones.partition_point(|t| t.0 < parent.watermark);
        let deleted = &delta.tombstones[..below];
        let mut next = 0;
        self.live.retain(|&(tid, _)| {
            let gone = deleted.get(next) == Some(&tid);
            next += usize::from(gone);
            !gone
        });
        if next != deleted.len() {
            return Err(corrupt(
                format!("delta {} deletes a row its parent does not hold", delta.seq),
                0,
            ));
        }
        self.live.extend(delta.live);
        self.tombstones.extend(delta.tombstones);
        self.tombstones.sort_unstable();
        self.seq = delta.seq;
        self.version = delta.version;
        self.watermark = delta.watermark;
        self.next_segment = delta.next_segment;
        self.large = delta.large;
        self.backlog = delta.backlog;
        Ok(())
    }
}

// ----------------------------------------------------- the WAL handle --

/// Health of a session's durable log, exposed through
/// [`Maintainer::durability_state`](crate::Maintainer::durability_state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogState {
    /// Durable operations are being accepted (and transparently retried
    /// through transient blips within the retry budget).
    Healthy,
    /// A transient fault outlived its retry budget (or an append retry
    /// found a suspect partial write). Durable operations fail fast with
    /// [`Error::DurabilityDegraded`]; a successful checkpoint install
    /// heals the log back to [`Healthy`](LogState::Healthy).
    Degraded,
    /// A permanent fault was observed. Terminal: every durable operation
    /// fails with [`Error::Recovery`] until the session is rebuilt via
    /// recovery.
    Poisoned,
}

#[derive(Debug)]
struct LogInner {
    /// Sequence number of the active `ckpt`/`wal` pair.
    seq: u64,
    /// Committed rounds since the last checkpoint.
    rounds_since_ckpt: u64,
    /// `Stage` records appended since the last sync barrier (group
    /// commit accounting; always 0 when `flush_every_ops` is 1).
    unflushed: u64,
    /// When the oldest unflushed record was appended.
    oldest_unflushed: Option<std::time::Instant>,
    /// Byte length of the active WAL segment as this session believes
    /// it to be, resolved lazily from storage *before* the first append
    /// touches the segment. An in-place append retry is sound only when
    /// the on-storage length still matches this — a mismatch means the
    /// failed attempt tore bytes onto the segment, and appending after
    /// a torn frame would bury every later record at replay.
    wal_len: Option<u64>,
    /// The newest installed checkpoint, which the next delta extends;
    /// `None` until this log installs its first (a full image), unless
    /// the log resumes a recovered chain.
    tip: Option<Tip>,
    /// Sequence numbers of the full images retention counts, ascending.
    fulls: Vec<u64>,
}

/// The checkpoint the next delta names as its parent, and what the
/// full-cut rule reads.
#[derive(Debug)]
struct Tip {
    parent: Parent,
    /// Tids deleted by the rounds committed since the tip was installed.
    deleted: Vec<Tid>,
    /// Bytes of the newest full image, and of the deltas written since.
    full_bytes: u64,
    delta_bytes: u64,
}

/// What a delta checkpoint is encoded against: its parent, and the tids
/// deleted by every round committed since it, ascending.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeltaBase<'a> {
    pub parent: Parent,
    pub deleted: &'a [Tid],
}

/// The session's handle on its durable storage: appends WAL records (in
/// ticket order — the append lock spans ticket draw and write), installs
/// checkpoints, and rotates/garbage-collects file pairs.
///
/// Storage failures are tiered (see the [module docs](self)): transient
/// faults are retried per [`DurabilityPolicy::retry`]; exhausting the
/// budget **degrades** the log (fail fast, heal by installing a fresh
/// checkpoint); a permanent fault **poisons** it — the in-memory session
/// may have state the log no longer reflects, so every later durable
/// operation fails with [`Error::Recovery`] until the session is rebuilt
/// via recovery.
#[derive(Debug)]
pub(crate) struct DurableLog {
    storage: Arc<dyn DurableStorage>,
    policy: DurabilityPolicy,
    /// A leaf lock: nothing else is taken while it is held, and each
    /// section reads or replaces the one value, so poison is recovered.
    state: Mutex<LogState>,
    /// Transient-fault retries performed over the log's lifetime
    /// (successful or not) — a health gauge, not control state.
    retries: AtomicU64,
    inner: Mutex<LogInner>,
}

impl DurableLog {
    /// A new log on `storage`, which must be empty: pointing a new log at
    /// a namespace that holds one would shadow its history, so that is
    /// [`Error::Recovery`] — recover the existing log instead. Nothing is
    /// written; the owner's first checkpoint is a full image.
    pub(crate) fn create(
        storage: Arc<dyn DurableStorage>,
        policy: DurabilityPolicy,
    ) -> Result<Self> {
        match storage.list().map_err(Error::Store)?.len() {
            0 => Ok(Self::new(storage, policy, 0)),
            n => Err(Error::Recovery {
                reason: format!("storage already holds {n} file(s); recover it instead"),
            }),
        }
    }

    pub(crate) fn new(
        storage: Arc<dyn DurableStorage>,
        policy: DurabilityPolicy,
        seq: u64,
    ) -> Self {
        DurableLog {
            storage,
            policy,
            state: Mutex::new(LogState::Healthy),
            retries: AtomicU64::new(0),
            inner: Mutex::new(LogInner {
                seq,
                rounds_since_ckpt: 0,
                unflushed: 0,
                oldest_unflushed: None,
                wal_len: None,
                tip: None,
                fulls: Vec::new(),
            }),
        }
    }

    /// A log resuming at `seq` after recovery, on the recovered `chain`
    /// with the tail's replayed rounds — which deleted `deleted` — on top
    /// of its newest checkpoint. The log is where it would stand had it
    /// written that chain and committed those rounds itself: the next
    /// checkpoint (the recovery seal) extends the chain's newest
    /// checkpoint under the ordinary full-cut rule, and retention counts
    /// the chain's root as the newest full image.
    pub(crate) fn resumed(
        storage: Arc<dyn DurableStorage>,
        policy: DurabilityPolicy,
        seq: u64,
        chain: Chain,
        deleted: Vec<Tid>,
    ) -> Self {
        let log = Self::new(storage, policy, seq);
        {
            let mut inner = log.lock_inner();
            inner.fulls.push(chain.root);
            inner.tip = Some(Tip {
                parent: chain.tip,
                deleted,
                full_bytes: chain.full_bytes,
                delta_bytes: chain.delta_bytes,
            });
        }
        log
    }

    pub(crate) fn state(&self) -> LogState {
        *sync::lock(&self.state)
    }

    pub(crate) fn is_poisoned(&self) -> bool {
        self.state() == LogState::Poisoned
    }

    pub(crate) fn transient_retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    pub(crate) fn policy(&self) -> &DurabilityPolicy {
        &self.policy
    }

    pub(crate) fn storage(&self) -> &Arc<dyn DurableStorage> {
        &self.storage
    }

    fn poison(&self) {
        *sync::lock(&self.state) = LogState::Poisoned;
    }

    /// Moves the log from `from` to `to`, and does nothing in any other
    /// state (so a poisoned log is never downgraded).
    fn shift(&self, from: LogState, to: LogState) {
        let mut state = sync::lock(&self.state);
        if *state == from {
            *state = to;
        }
    }

    fn degrade(&self) {
        self.shift(LogState::Healthy, LogState::Degraded);
    }

    /// Routes a storage failure to its tier and returns it wrapped.
    fn fail(&self, e: fup_tidb::Error) -> Error {
        if e.is_transient() {
            self.degrade();
        } else {
            self.poison();
        }
        Error::Store(e)
    }

    fn check_usable(&self) -> Result<()> {
        match self.state() {
            LogState::Healthy => Ok(()),
            LogState::Degraded => Err(Error::DurabilityDegraded),
            LogState::Poisoned => Err(Error::Recovery {
                reason: "the durable log is poisoned by an earlier storage failure; \
                         discard this session and recover from storage"
                    .into(),
            }),
        }
    }

    fn lock_inner(&self) -> std::sync::MutexGuard<'_, LogInner> {
        // A panic while holding the lock (a killed committer) leaves
        // only counters and the tracked segment length behind; the
        // tracked length is re-verified against storage before any
        // in-place retry, so recovering the guard is sound.
        sync::lock(&self.inner)
    }

    /// Runs one effect-free storage operation (sync, atomic write, list,
    /// remove — anything where a failed attempt leaves nothing behind)
    /// through the transient-retry budget.
    fn retrying<T>(&self, mut op: impl FnMut() -> fup_tidb::Result<T>) -> fup_tidb::Result<T> {
        let mut retry = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && retry + 1 < self.policy.retry.max_attempts => {
                    retry += 1;
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    self.policy.retry.pause(retry);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Appends `bytes` to the active WAL segment and issues the sync
    /// barrier per policy. Caller holds the inner lock. `barrier` forces
    /// the sync regardless of group-commit accounting — round boundaries
    /// must be durable before they are acknowledged.
    ///
    /// A transient append failure is retried in place only after
    /// verifying the on-storage segment length still matches the tracked
    /// one (no partial bytes landed); on any doubt the error propagates
    /// and the caller degrades the log — the degraded-mode heal rotates
    /// to a fresh checkpoint instead of appending after a suspect tail.
    fn append_locked(
        &self,
        inner: &mut LogInner,
        bytes: &[u8],
        barrier: bool,
    ) -> fup_tidb::Result<()> {
        let file = wal_name(inner.seq);
        // Resolve the tracked length *before* the first attempt: reading
        // it only after a failure would adopt that failure's torn bytes
        // as the baseline and defeat the check.
        if inner.wal_len.is_none() {
            if let Ok(existing) = self.storage.read(&file) {
                inner.wal_len = Some(existing.map_or(0, |b| b.len() as u64));
            }
        }
        let mut retry = 0u32;
        loop {
            match self.storage.append(&file, bytes) {
                Ok(()) => {
                    if let Some(len) = inner.wal_len.as_mut() {
                        *len += bytes.len() as u64;
                    }
                    break;
                }
                Err(e) if e.is_transient() && retry + 1 < self.policy.retry.max_attempts => {
                    let on_storage = match self.storage.read(&file) {
                        Ok(existing) => existing.map_or(0, |b| b.len() as u64),
                        Err(_) => return Err(e),
                    };
                    if inner.wal_len != Some(on_storage) {
                        return Err(e);
                    }
                    retry += 1;
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    self.policy.retry.pause(retry);
                }
                Err(e) => return Err(e),
            }
        }
        if !self.policy.fsync {
            return Ok(());
        }
        inner.unflushed += 1;
        let oldest = *inner
            .oldest_unflushed
            .get_or_insert_with(std::time::Instant::now);
        let due = barrier
            || inner.unflushed >= self.policy.flush_every_ops
            || oldest.elapsed() >= self.policy.flush_interval;
        if due {
            self.retrying(|| self.storage.sync(&file))?;
            inner.unflushed = 0;
            inner.oldest_unflushed = None;
        }
        Ok(())
    }

    /// The durable stage path: reserve staging capacity, claim the
    /// deletes, draw a ticket, make the record durable, and only then
    /// admit the batch. A storage failure releases the claims and the
    /// capacity (the batch was never visible) and degrades or poisons
    /// the log per the fault kind — the ticket-number gap it leaves is
    /// harmless, commits name their tickets explicitly.
    ///
    /// With group commit ([`DurabilityPolicy::flush_every_ops`] > 1) the
    /// append returns before the record is fsynced; a power-loss crash
    /// may drop it, in which case recovery simply never re-stages it —
    /// the same contract as `fsync: false`, but bounded to the group.
    pub(crate) fn log_stage(
        &self,
        staging: &StagingArea,
        batch: UpdateBatch,
        admission: fup_tidb::Admission,
    ) -> Result<u64> {
        self.check_usable()?;
        let ops = batch.num_ops();
        staging.reserve(ops, admission).map_err(Error::Store)?;
        if let Err(e) = staging.claim(&batch.deletes) {
            staging.release_capacity(ops);
            return Err(Error::Store(e));
        }
        let mut inner = self.lock_inner();
        let ticket = staging.take_ticket();
        let record = WalRecord::Stage {
            ticket,
            batch: batch.clone(),
        };
        match self.append_locked(&mut inner, &record.to_framed_bytes(), false) {
            Ok(()) => {
                // Admission must complete while the log lock is still
                // held: a checkpoint holds the same lock across encoding
                // its backlog and rotating the WAL, so a staged batch is
                // either admitted before the rotation (embedded in the
                // checkpoint) or appended after it (recorded in the fresh
                // segment) — never a record stranded in a superseded
                // segment with no matching backlog entry.
                staging.admit_with_ticket(ticket, batch);
                drop(inner);
                Ok(ticket)
            }
            Err(e) => {
                drop(inner);
                staging.release_deletes(batch.deletes.iter().copied());
                staging.release_capacity(ops);
                Err(self.fail(e))
            }
        }
    }

    /// Appends `record` and syncs, whatever the group-commit accounting:
    /// a session's `Commit`/`Abort` boundaries and every record of a
    /// cluster shard worker must survive any crash once acknowledged.
    /// Degrades or poisons on failure per the fault kind.
    pub(crate) fn log_synced(&self, record: &WalRecord) -> Result<()> {
        self.check_usable()?;
        let mut inner = self.lock_inner();
        match self.append_locked(&mut inner, &record.to_framed_bytes(), true) {
            Ok(()) => Ok(()),
            Err(e) => Err(self.fail(e)),
        }
    }

    /// Counts one durably-acknowledged round, which deleted `deleted`,
    /// against the checkpoint cadence, returning `true` when a checkpoint
    /// is due. The deletions ride into the next delta.
    pub(crate) fn note_round(&self, deleted: &[Tid]) -> bool {
        let mut inner = self.lock_inner();
        if let Some(tip) = &mut inner.tip {
            tip.deleted.extend_from_slice(deleted);
        }
        inner.rounds_since_ckpt += 1;
        inner.rounds_since_ckpt >= self.policy.checkpoint_every_rounds
    }

    /// The sequence number the next checkpoint will use.
    #[cfg(test)]
    pub(crate) fn next_seq(&self) -> u64 {
        self.lock_inner().seq + 1
    }

    /// Atomically installs checkpoint `seq` (an encoded full image of a
    /// store at `watermark`), starts its fresh WAL segment, and
    /// garbage-collects files beyond the retention policy. Degrades or
    /// poisons on failure per the fault kind.
    ///
    /// This is also the **heal** path: it is allowed while the log is
    /// degraded, because a checkpoint embeds the staged backlog and the
    /// rotation starts a fresh WAL segment — one atomic install
    /// supersedes the suspect tail and re-logs every staged record, so
    /// nothing durably acknowledged depends on the bytes the degraded
    /// segment may or may not hold. Full success flips the log back to
    /// [`LogState::Healthy`].
    pub(crate) fn install_checkpoint(&self, seq: u64, bytes: &[u8], watermark: u64) -> Result<()> {
        if self.is_poisoned() {
            self.check_usable()?;
        }
        let mut inner = self.lock_inner();
        self.install_locked(&mut inner, seq, bytes, true, watermark)
    }

    /// Encodes (via `encode`, handed the sequence number and, for a
    /// delta, its base) and installs the next checkpoint of a store at
    /// `watermark` as **one critical section** on the log lock.
    /// Concurrent [`log_stage`](Self::log_stage) calls append and admit
    /// under the same lock, so the encoded backlog and the superseded
    /// WAL segment can never disagree about a staged batch: every ticket
    /// a post-rotation `Commit` references is either embedded in this
    /// checkpoint or staged in the fresh segment.
    ///
    /// `encode` gets no base — and must write a full image — once the
    /// deltas since the last full image add up to its size, and while
    /// the log is degraded: a round whose boundary failed may have
    /// committed in memory without reaching [`note_round`](Self::note_round),
    /// so the heal writes an image that depends on no such bookkeeping.
    pub(crate) fn checkpoint_with(
        &self,
        watermark: u64,
        encode: impl FnOnce(u64, Option<DeltaBase<'_>>) -> Result<Vec<u8>>,
    ) -> Result<u64> {
        if self.is_poisoned() {
            self.check_usable()?;
        }
        let mut inner = self.lock_inner();
        let seq = inner.seq + 1;
        let healthy = self.state() == LogState::Healthy;
        let base = inner
            .tip
            .as_mut()
            .filter(|tip| healthy && tip.delta_bytes < tip.full_bytes)
            .map(|tip| {
                tip.deleted.sort_unstable();
                DeltaBase {
                    parent: tip.parent,
                    deleted: &tip.deleted,
                }
            });
        let full = base.is_none();
        let bytes = encode(seq, base)?;
        self.install_locked(&mut inner, seq, &bytes, full, watermark)?;
        Ok(seq)
    }

    fn install_locked(
        &self,
        inner: &mut std::sync::MutexGuard<'_, LogInner>,
        seq: u64,
        bytes: &[u8],
        full: bool,
        watermark: u64,
    ) -> Result<()> {
        let result: fup_tidb::Result<()> = (|| {
            self.retrying(|| self.storage.write_atomic(&ckpt_name(seq), bytes))?;
            // An empty append materialises the fresh segment so recovery
            // sees the rotation even before the first record.
            self.retrying(|| self.storage.append(&wal_name(seq), &[]))?;
            if self.policy.fsync {
                self.retrying(|| self.storage.sync(&wal_name(seq)))?;
            }
            Ok(())
        })();
        if let Err(e) = result {
            return Err(self.fail(e));
        }
        inner.seq = seq;
        inner.rounds_since_ckpt = 0;
        // The old segment's unflushed records are superseded: the
        // checkpoint embeds the backlog and the fresh segment is synced.
        inner.unflushed = 0;
        inner.oldest_unflushed = None;
        // The fresh segment holds exactly the empty append.
        inner.wal_len = Some(0);
        let len = bytes.len() as u64;
        let (full_bytes, delta_bytes) = match &inner.tip {
            Some(tip) if !full => (tip.full_bytes, tip.delta_bytes + len),
            _ => (len, 0),
        };
        inner.tip = Some(Tip {
            parent: Parent { seq, watermark },
            deleted: Vec::new(),
            full_bytes,
            delta_bytes,
        });
        if full {
            inner.fulls.push(seq);
            self.collect_garbage(inner)?;
        }
        // The rotation is durable and complete: a degraded log is healed.
        self.shift(LogState::Degraded, LogState::Healthy);
        Ok(())
    }

    /// Retention, run after a full image installs: keeps the
    /// [`DurabilityPolicy::retain_checkpoints`] newest full images and
    /// removes every checkpoint and WAL segment older than the oldest of
    /// them. Each retained checkpoint's chain therefore stays whole, and
    /// so does the WAL any of them would replay. A failure here loses
    /// nothing (old files are only ever extra), but the storage is
    /// evidently unwell, so it degrades/poisons to stay conservative.
    fn collect_garbage(&self, inner: &mut LogInner) -> Result<()> {
        let Some(stale) = inner
            .fulls
            .len()
            .checked_sub(self.policy.retain_checkpoints)
        else {
            return Ok(());
        };
        let cutoff = inner.fulls[stale];
        let names = match self.retrying(|| self.storage.list()) {
            Ok(names) => names,
            Err(e) => return Err(self.fail(e)),
        };
        for name in names {
            let seq = parse_seq(&name, "ckpt-").or_else(|| parse_seq(&name, "wal-"));
            if seq.is_some_and(|s| s < cutoff) {
                if let Err(e) = self.retrying(|| self.storage.remove(&name)) {
                    return Err(self.fail(e));
                }
            }
        }
        inner.fulls.drain(..stale);
        Ok(())
    }
}

// ------------------------------------------------------- log loading --

/// The chosen checkpoint's chain as the full-cut rule counts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Chain {
    /// The chosen checkpoint: the parent the recovery seal names.
    pub tip: Parent,
    /// The full image the chain starts from.
    pub root: u64,
    /// Bytes of that full image, and of the deltas above it.
    pub full_bytes: u64,
    pub delta_bytes: u64,
}

/// Everything recovery reads from storage before rebuilding a session.
#[derive(Debug)]
pub(crate) struct RecoveredLog {
    /// The chosen checkpoint, folded into a full image.
    pub image: CheckpointImage,
    /// The chain it was folded from.
    pub chain: Chain,
    pub corrupt_checkpoints: Vec<u64>,
    /// WAL records from every segment at or after the chosen checkpoint,
    /// concatenated in segment order.
    pub replay: Vec<WalRecord>,
    pub wal_tail_dropped: Option<fup_tidb::Error>,
    /// Highest sequence number seen anywhere — the recovery checkpoint
    /// goes at `max_seq + 1` so it can never collide with damaged files.
    pub max_seq: u64,
}

/// Checkpoint files decoded so far, by sequence number, each with its
/// byte length; `None` marks one that is missing or failed validation.
type Decoded = HashMap<u64, Option<(CheckpointImage, u64)>>;

/// Assembles the chain ending at checkpoint `seq` — the full image at its
/// root with every delta on the way back up folded in — or `None` if any
/// file of the chain is missing, fails validation, or does not extend
/// its parent. Files are read once across calls through `decoded`; a
/// chain that fails to fold marks its files bad, so recovery only ever
/// falls back to a chain that avoids them.
fn assemble_chain(
    storage: &dyn DurableStorage,
    seq: u64,
    decoded: &mut Decoded,
) -> Result<Option<(CheckpointImage, Chain)>> {
    let mut chain = Vec::new();
    let mut next = Some(seq);
    while let Some(s) = next {
        let file = match decoded.entry(s) {
            Entry::Occupied(cached) => cached.into_mut(),
            Entry::Vacant(slot) => {
                let bytes = storage.read(&ckpt_name(s)).map_err(Error::Store)?;
                slot.insert(bytes.and_then(|b| {
                    let file = decode_checkpoint(&b).ok().filter(|f| f.seq == s)?;
                    Some((file, b.len() as u64))
                }))
            }
        };
        let Some((file, _)) = file else {
            return Ok(None);
        };
        next = file.parent.map(|p| p.seq);
        chain.push(s);
    }
    let root = *chain.last().expect("the chain holds seq");
    let mut files = chain.into_iter().rev().map(|s| {
        decoded
            .insert(s, None)
            .flatten()
            .expect("every file of the chain decoded above")
    });
    let (mut image, full_bytes) = files.next().expect("the chain holds its root");
    let mut delta_bytes = 0;
    for (delta, len) in files {
        if image.apply(delta).is_err() {
            return Ok(None);
        }
        delta_bytes += len;
    }
    let chain = Chain {
        tip: Parent {
            seq: image.seq,
            watermark: image.watermark,
        },
        root,
        full_bytes,
        delta_bytes,
    };
    Ok(Some((image, chain)))
}

/// Scans the storage directory, assembles the newest checkpoint whose
/// chain validates, and gathers the WAL records to replay on top of it.
pub(crate) fn load_latest(storage: &dyn DurableStorage) -> Result<RecoveredLog> {
    let names = storage.list().map_err(Error::Store)?;
    let mut ckpt_seqs: Vec<u64> = names.iter().filter_map(|n| parse_seq(n, "ckpt-")).collect();
    let wal_seqs: Vec<u64> = names.iter().filter_map(|n| parse_seq(n, "wal-")).collect();
    if ckpt_seqs.is_empty() {
        return Err(Error::Recovery {
            reason: "no checkpoint found in storage (not a durable session directory, \
                     or its checkpoints were all removed)"
                .into(),
        });
    }
    ckpt_seqs.sort_unstable_by(|a, b| b.cmp(a));
    let max_seq = ckpt_seqs
        .iter()
        .chain(wal_seqs.iter())
        .copied()
        .max()
        .unwrap_or(0);

    let mut corrupt_checkpoints = Vec::new();
    let mut decoded = Decoded::new();
    let mut chosen = None;
    for &seq in &ckpt_seqs {
        match assemble_chain(storage, seq, &mut decoded)? {
            Some(found) => {
                chosen = Some(found);
                break;
            }
            None => corrupt_checkpoints.push(seq),
        }
    }
    let Some((image, chain)) = chosen else {
        return Err(Error::Recovery {
            reason: format!(
                "no checkpoint chain validates ({} candidate(s)); \
                 the storage is unrecoverable",
                corrupt_checkpoints.len()
            ),
        });
    };

    // Replay the WAL segments from the chosen checkpoint forward. A bad
    // tail ends the trustworthy suffix: stop there and drop later
    // segments too (they describe state reached through the dropped
    // records).
    let mut replay = Vec::new();
    let mut wal_tail_dropped = None;
    let mut seqs: Vec<u64> = wal_seqs.into_iter().filter(|&s| s >= image.seq).collect();
    seqs.sort_unstable();
    for seq in seqs {
        let bytes = match storage.read(&wal_name(seq)) {
            Ok(Some(b)) => b,
            Ok(None) => continue,
            Err(e) => return Err(Error::Store(e)),
        };
        let scan = wal::read_records(&bytes);
        replay.extend(scan.records);
        if let Some(e) = scan.tail_error {
            wal_tail_dropped = Some(e);
            break;
        }
    }

    Ok(RecoveredLog {
        image,
        chain,
        corrupt_checkpoints,
        replay,
        wal_tail_dropped,
        max_seq,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fup_tidb::{Admission, FlakyStorage, MemStorage, OpClass};

    fn tx(items: &[u32]) -> Transaction {
        Transaction::from_items(items.iter().copied())
    }

    /// The header of a checkpoint `seq` over `large` and `backlog`, with
    /// the sample thresholds.
    fn head<'a>(
        seq: u64,
        parent: Option<Parent>,
        version: u64,
        watermark: u64,
        large: &'a LargeItemsets,
        backlog: &'a [(u64, UpdateBatch)],
    ) -> CheckpointHead<'a> {
        CheckpointHead {
            seq,
            parent,
            version,
            minsup: (40, 100),
            minconf: (60, 100),
            watermark,
            next_segment: 2,
            large,
            backlog,
        }
    }

    fn refs(rows: &[(Tid, Transaction)]) -> Vec<(Tid, &Transaction)> {
        rows.iter().map(|(tid, t)| (*tid, t)).collect()
    }

    /// A full image of an empty store.
    fn empty_image(seq: u64) -> Vec<u8> {
        let large = LargeItemsets::new(0);
        encode_checkpoint(&head(seq, None, 0, 0, &large, &[]), &[], &[]).unwrap()
    }

    /// Checkpoint 5: a full image of tids 0, 1, 3 (2 tombstoned) below
    /// watermark 4, with itemsets and a two-batch backlog.
    fn sample_image_bytes() -> Vec<u8> {
        let mut large = LargeItemsets::new(3);
        large.insert(Itemset::from_items([1u32]), 3);
        large.insert(Itemset::from_items([2u32]), 2);
        large.insert(Itemset::from_items([1u32, 2]), 2);
        let live = vec![
            (Tid(0), tx(&[1, 2])),
            (Tid(1), tx(&[1, 2, 3])),
            (Tid(3), tx(&[1])),
        ];
        let backlog = vec![
            (4u64, UpdateBatch::insert_only(vec![tx(&[9])])),
            (
                7u64,
                UpdateBatch {
                    inserts: vec![],
                    deletes: vec![Tid(1)],
                },
            ),
        ];
        encode_checkpoint(
            &head(5, None, 12, 4, &large, &backlog),
            &[Tid(2)],
            &refs(&live),
        )
        .unwrap()
    }

    /// Checkpoint 6, a delta on the sample image: deletes tid 1, inserts
    /// tids 4..7 of which 5 was deleted again, and empties the backlog.
    fn sample_delta_bytes() -> Vec<u8> {
        let mut large = LargeItemsets::new(4);
        large.insert(Itemset::from_items([2u32]), 3);
        let inserted = vec![(Tid(4), tx(&[2, 3])), (Tid(6), tx(&[1, 2]))];
        let parent = Parent {
            seq: 5,
            watermark: 4,
        };
        encode_checkpoint(
            &head(6, Some(parent), 13, 7, &large, &[]),
            &[Tid(1), Tid(5)],
            &refs(&inserted),
        )
        .unwrap()
    }

    /// Recomputes the CRC over `bytes`' body, so a flipped byte reaches
    /// the structural checks behind it.
    fn reseal(bytes: &mut [u8]) {
        let header = CHECKPOINT_MAGIC.len();
        let crc = wal::crc32(&bytes[header + 4..]);
        bytes[header..header + 4].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn checkpoint_roundtrips() {
        let bytes = sample_image_bytes();
        let img = decode_checkpoint(&bytes).unwrap();
        assert_eq!(img.seq, 5);
        assert_eq!(img.parent, None);
        assert_eq!(img.version, 12);
        assert_eq!(img.minsup, (40, 100));
        assert_eq!(img.minconf, (60, 100));
        assert_eq!(img.watermark, 4);
        assert_eq!(img.next_segment, 2);
        assert_eq!(img.tombstones, vec![Tid(2)]);
        assert_eq!(img.live.len(), 3);
        assert_eq!(img.live[1], (Tid(1), tx(&[1, 2, 3])));
        assert_eq!(img.large.len(), 3);
        assert_eq!(img.large.support(&Itemset::from_items([1u32, 2])), Some(2));
        assert_eq!(img.backlog.len(), 2);
        assert_eq!(img.backlog[1].0, 7);
        assert_eq!(img.backlog[1].1.deletes, vec![Tid(1)]);
    }

    #[test]
    fn checkpoint_rejects_any_single_byte_flip_or_truncation() {
        let bytes = sample_image_bytes();
        for len in 0..bytes.len() {
            assert!(
                decode_checkpoint(&bytes[..len]).is_err(),
                "truncation at {len} must be rejected"
            );
        }
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            assert!(
                decode_checkpoint(&bad).is_err(),
                "byte flip at {at} must be rejected (CRC covers the body)"
            );
        }
    }

    /// The sample image with its one page edited by `edit`, the page's
    /// length prefix rewritten to match and the CRC resealed, so the
    /// damage reaches the page decoder.
    fn sample_image_with_page(edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let bytes = sample_image_bytes();
        let header = CHECKPOINT_MAGIC.len() + 4;
        let body = &bytes[header..];
        let mut pos = 0;
        read_varint64(body, &mut pos).unwrap(); // seq
        pos += 1; // kind: a full image
        for _ in 0..6 {
            read_varint64(body, &mut pos).unwrap(); // version .. watermark
        }
        read_varint(body, &mut pos).unwrap(); // next segment
        decode_tids(body, &mut pos).unwrap(); // tombstones
        decode_tids(body, &mut pos).unwrap(); // live tids
        read_varint64(body, &mut pos).unwrap(); // page size
        assert_eq!(read_varint64(body, &mut pos).unwrap(), 1, "one page");
        let len_at = pos;
        let len = read_varint64(body, &mut pos).unwrap() as usize;
        let mut page = body[pos..pos + len].to_vec();
        edit(&mut page);
        let mut out = bytes[..header + len_at].to_vec();
        write_varint64(&mut out, page.len() as u64);
        out.extend_from_slice(&page);
        out.extend_from_slice(&body[pos + len..]);
        reseal(&mut out);
        out
    }

    #[test]
    fn checkpoint_rejects_corrupt_pages_typed() {
        let untouched = decode_checkpoint(&sample_image_with_page(|_| {})).unwrap();
        assert_eq!(untouched.live.len(), 3);
        let is_corrupt = |bytes: Vec<u8>| {
            matches!(
                decode_checkpoint(&bytes),
                Err(fup_tidb::Error::Corrupt { .. })
            )
        };
        assert!(
            is_corrupt(sample_image_with_page(|page| {
                page.pop();
            })),
            "a truncated page"
        );
        assert!(
            is_corrupt(sample_image_with_page(|page| page[0] += 5)),
            "a count header inflated beyond the payload"
        );
        assert!(
            is_corrupt(sample_image_with_page(|page| {
                page.resize(fup_tidb::page::DEFAULT_PAGE_SIZE + 1, 0)
            })),
            "a page larger than the page size"
        );
        assert!(
            is_corrupt(sample_image_with_page(|page| page.push(0))),
            "trailing bytes after the last row"
        );
    }

    #[test]
    fn delta_folds_into_its_parent() {
        let delta = decode_checkpoint(&sample_delta_bytes()).unwrap();
        assert_eq!(
            delta.parent,
            Some(Parent {
                seq: 5,
                watermark: 4
            })
        );
        let mut img = decode_checkpoint(&sample_image_bytes()).unwrap();
        img.apply(delta).unwrap();
        let tids: Vec<Tid> = img.live.iter().map(|&(tid, _)| tid).collect();
        assert_eq!(tids, vec![Tid(0), Tid(3), Tid(4), Tid(6)]);
        assert_eq!(img.live[2].1, tx(&[2, 3]));
        assert_eq!(img.tombstones, vec![Tid(1), Tid(2), Tid(5)]);
        assert_eq!((img.seq, img.version, img.watermark), (6, 13, 7));
        assert_eq!(img.large.len(), 1);
        assert!(img.backlog.is_empty());
        // A delta only folds into the image it names.
        let mut other = decode_checkpoint(&empty_image(5)).unwrap();
        let delta = decode_checkpoint(&sample_delta_bytes()).unwrap();
        assert!(matches!(
            other.apply(delta),
            Err(fup_tidb::Error::Corrupt { .. })
        ));
    }

    #[test]
    fn delta_decoder_rejects_every_flip_and_truncation_typed() {
        let bytes = sample_delta_bytes();
        let is_corrupt = |r: std::result::Result<CheckpointImage, fup_tidb::Error>| {
            matches!(r, Err(fup_tidb::Error::Corrupt { .. }))
        };
        for len in 0..bytes.len() {
            assert!(
                is_corrupt(decode_checkpoint(&bytes[..len])),
                "truncation at {len} must be a typed Corrupt"
            );
        }
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            assert!(
                is_corrupt(decode_checkpoint(&bad)),
                "byte flip at {at} must be a typed Corrupt"
            );
            // Past the CRC, every structural check must hold its ground
            // too: a resealed flip decodes to a typed error or to a delta
            // that folds or fails typed — never a panic.
            for mask in [0x01, 0x80, 0xFF] {
                let mut bad = bytes.clone();
                bad[at] ^= mask;
                reseal(&mut bad);
                match decode_checkpoint(&bad) {
                    Ok(delta) => {
                        let mut parent = decode_checkpoint(&sample_image_bytes()).unwrap();
                        if let Err(e) = parent.apply(delta) {
                            assert!(matches!(e, fup_tidb::Error::Corrupt { .. }), "{e:?}");
                        }
                    }
                    Err(e) => assert!(matches!(e, fup_tidb::Error::Corrupt { .. }), "{e:?}"),
                }
            }
        }
    }

    #[test]
    fn empty_checkpoint_roundtrips() {
        let img = decode_checkpoint(&empty_image(0)).unwrap();
        assert_eq!(img.live.len(), 0);
        assert_eq!(img.large.len(), 0);
        assert_eq!(img.watermark, 0);
    }

    #[test]
    fn file_names_sort_with_their_sequence_numbers() {
        assert_eq!(wal_name(7), "wal-00000007");
        assert_eq!(ckpt_name(123), "ckpt-00000123");
        assert!(wal_name(9) < wal_name(10));
        assert_eq!(parse_seq("ckpt-00000123", "ckpt-"), Some(123));
        assert_eq!(parse_seq("ckpt-00000123.tmp", "ckpt-"), None);
        assert_eq!(parse_seq("wal-00000001", "ckpt-"), None);
    }

    #[test]
    fn load_latest_requires_a_checkpoint() {
        let storage = MemStorage::new();
        let err = load_latest(&storage).unwrap_err();
        assert!(matches!(err, Error::Recovery { .. }));
    }

    #[test]
    fn load_latest_falls_back_past_a_corrupt_checkpoint() {
        let storage = MemStorage::new();
        let large = LargeItemsets::new(1);
        let row = [(Tid(0), tx(&[1]))];
        let good = encode_checkpoint(&head(0, None, 0, 1, &large, &[]), &[], &refs(&row)).unwrap();
        storage.write_atomic(&ckpt_name(0), &good).unwrap();
        storage
            .write_atomic(&ckpt_name(1), b"FUPCKPT1garbage")
            .unwrap();
        // A WAL segment for the good checkpoint and one for the bad.
        let rec = WalRecord::Commit {
            version: 1,
            tickets: vec![],
        };
        storage
            .append(&wal_name(0), &rec.to_framed_bytes())
            .unwrap();
        let recovered = load_latest(&storage).unwrap();
        assert_eq!(recovered.image.seq, 0);
        assert_eq!(recovered.corrupt_checkpoints, vec![1]);
        assert_eq!(recovered.replay.len(), 1);
        assert_eq!(recovered.max_seq, 1);
        assert!(recovered.wal_tail_dropped.is_none());
    }

    #[test]
    fn load_latest_assembles_the_newest_whole_chain() {
        let storage = MemStorage::new();
        storage
            .write_atomic(&ckpt_name(5), &sample_image_bytes())
            .unwrap();
        storage
            .write_atomic(&ckpt_name(6), &sample_delta_bytes())
            .unwrap();
        let recovered = load_latest(&storage).unwrap();
        assert_eq!(recovered.image.seq, 6);
        assert_eq!(
            recovered.chain,
            Chain {
                tip: Parent {
                    seq: 6,
                    watermark: 7
                },
                root: 5,
                full_bytes: sample_image_bytes().len() as u64,
                delta_bytes: sample_delta_bytes().len() as u64,
            },
            "the chain's byte counts are what the full-cut rule resumes from"
        );
        assert_eq!(recovered.image.parent, None, "folded into a full image");
        assert_eq!(recovered.image.live.len(), 4);
        assert!(recovered.corrupt_checkpoints.is_empty());
        // A damaged root takes every delta on it down with it.
        let mut bad = sample_image_bytes();
        bad[20] ^= 0x01;
        storage.write_atomic(&ckpt_name(5), &bad).unwrap();
        let err = load_latest(&storage).unwrap_err();
        assert!(matches!(err, Error::Recovery { .. }), "{err:?}");
    }

    #[test]
    fn load_latest_drops_a_torn_tail_with_a_typed_error() {
        let storage = MemStorage::new();
        storage
            .write_atomic(&ckpt_name(0), &empty_image(0))
            .unwrap();
        let mut wal_bytes = WalRecord::Stage {
            ticket: 0,
            batch: UpdateBatch::insert_only(vec![tx(&[1])]),
        }
        .to_framed_bytes();
        let full = WalRecord::Commit {
            version: 1,
            tickets: vec![0],
        }
        .to_framed_bytes();
        wal_bytes.extend_from_slice(&full[..full.len() - 3]); // torn commit
        storage.append(&wal_name(0), &wal_bytes).unwrap();
        let recovered = load_latest(&storage).unwrap();
        assert_eq!(recovered.replay.len(), 1, "valid prefix survives");
        assert!(matches!(
            recovered.wal_tail_dropped,
            Some(fup_tidb::Error::Corrupt { .. })
        ));
    }

    #[test]
    fn durability_policy_validates() {
        DurabilityPolicy::default().validate().unwrap();
        let bad = DurabilityPolicy {
            checkpoint_every_rounds: 0,
            ..Default::default()
        };
        assert_eq!(
            bad.validate().unwrap_err(),
            BuildError::ZeroCheckpointInterval
        );
        let bad = DurabilityPolicy {
            retain_checkpoints: 0,
            ..Default::default()
        };
        assert_eq!(
            bad.validate().unwrap_err(),
            BuildError::ZeroRetainedCheckpoints
        );
        let bad = DurabilityPolicy {
            flush_every_ops: 0,
            ..Default::default()
        };
        assert_eq!(bad.validate().unwrap_err(), BuildError::ZeroFlushOps);
        DurabilityPolicy::group_commit(8, std::time::Duration::from_millis(5))
            .validate()
            .unwrap();
        let bad = DurabilityPolicy::default().with_retry(RetryPolicy::attempts(0));
        assert_eq!(bad.validate().unwrap_err(), BuildError::ZeroRetryAttempts);
        let bad = DurabilityPolicy::default().with_retry(
            RetryPolicy::default().backoff(Duration::from_secs(1), Duration::from_millis(1)),
        );
        assert_eq!(
            bad.validate().unwrap_err(),
            BuildError::InvertedRetryBackoff
        );
    }

    #[test]
    fn retry_delays_are_bounded_exponential_and_deterministic() {
        let policy = RetryPolicy::default()
            .backoff(Duration::from_millis(2), Duration::from_millis(100))
            .seeded(42);
        assert_eq!(policy.delay(0), Duration::ZERO);
        for r in 1..=16 {
            let exp = Duration::from_millis(2)
                .saturating_mul(1 << (r - 1).min(20))
                .min(Duration::from_millis(100));
            let d = policy.delay(r);
            assert!(d <= exp, "retry {r}: {d:?} over the cap {exp:?}");
            assert!(d >= exp / 2, "retry {r}: {d:?} jittered below half");
            assert_eq!(d, policy.delay(r), "same seed, same delay");
        }
        assert_ne!(
            policy.delay(3),
            policy.seeded(43).delay(3),
            "different seeds decorrelate"
        );
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }

    #[test]
    fn group_commit_batches_stage_fsyncs() {
        // A generous interval isolates the ops quota: 4 staged records
        // per sync barrier, so three appends buffer and the fourth pays
        // for all of them.
        let mem = Arc::new(MemStorage::new());
        let storage: Arc<dyn DurableStorage> = mem.clone();
        let log = DurableLog::new(
            storage,
            DurabilityPolicy::group_commit(4, std::time::Duration::from_secs(3600)),
            0,
        );
        let staging = StagingArea::default();
        for i in 0..3u32 {
            log.log_stage(
                &staging,
                UpdateBatch::insert_only(vec![tx(&[i + 1])]),
                Admission::Try,
            )
            .unwrap();
        }
        assert_eq!(mem.sync_calls(), 0, "under quota: no barrier yet");
        log.log_stage(
            &staging,
            UpdateBatch::insert_only(vec![tx(&[9])]),
            Admission::Try,
        )
        .unwrap();
        assert_eq!(mem.sync_calls(), 1, "fourth record triggers the barrier");
        // The synced image holds all four records, not just the last.
        let image = mem.synced_files();
        let records = wal::read_records(&image[&wal_name(0)]).records;
        assert_eq!(records.len(), 4);
    }

    #[test]
    fn group_commit_interval_bound_forces_the_sync() {
        // A zero age bound makes every append overdue regardless of the
        // huge ops quota — the interval knob alone bounds the window.
        let mem = Arc::new(MemStorage::new());
        let storage: Arc<dyn DurableStorage> = mem.clone();
        let log = DurableLog::new(
            storage,
            DurabilityPolicy::group_commit(1_000_000, std::time::Duration::ZERO),
            0,
        );
        let staging = StagingArea::default();
        log.log_stage(
            &staging,
            UpdateBatch::insert_only(vec![tx(&[1])]),
            Admission::Try,
        )
        .unwrap();
        assert_eq!(mem.sync_calls(), 1);
    }

    #[test]
    fn boundaries_always_sync_under_group_commit() {
        // One staged record sits inside an open group; the Commit
        // boundary must flush it and itself — an acknowledged round
        // keeps the per-append durability guarantee.
        let mem = Arc::new(MemStorage::new());
        let storage: Arc<dyn DurableStorage> = mem.clone();
        let log = DurableLog::new(
            storage,
            DurabilityPolicy::group_commit(64, std::time::Duration::from_secs(3600)),
            0,
        );
        let staging = StagingArea::default();
        let ticket = log
            .log_stage(
                &staging,
                UpdateBatch::insert_only(vec![tx(&[1])]),
                Admission::Try,
            )
            .unwrap();
        assert_eq!(mem.sync_calls(), 0, "the stage record waits in the group");
        log.log_synced(&WalRecord::Commit {
            version: 1,
            tickets: vec![ticket],
        })
        .unwrap();
        assert_eq!(
            mem.sync_calls(),
            1,
            "the boundary is an unconditional barrier"
        );
        let image = mem.synced_files();
        let records = wal::read_records(&image[&wal_name(0)]).records;
        assert_eq!(records.len(), 2, "the barrier flushed the whole group");
    }

    #[test]
    fn install_checkpoint_rotates_and_retains() {
        let storage: Arc<dyn DurableStorage> = Arc::new(MemStorage::new());
        let log = DurableLog::new(
            Arc::clone(&storage),
            DurabilityPolicy {
                retain_checkpoints: 2,
                ..Default::default()
            },
            0,
        );
        log.install_checkpoint(0, &empty_image(0), 0).unwrap();
        log.log_synced(&WalRecord::Commit {
            version: 1,
            tickets: vec![],
        })
        .unwrap();
        log.install_checkpoint(1, &empty_image(1), 0).unwrap();
        log.install_checkpoint(2, &empty_image(2), 0).unwrap();
        let mut names = storage.list().unwrap();
        names.sort();
        assert_eq!(
            names,
            vec![ckpt_name(1), ckpt_name(2), wal_name(1), wal_name(2),],
            "seq 0 pair is garbage-collected, 1 and 2 retained"
        );
    }

    #[test]
    fn storage_failure_poisons_the_log() {
        let mem = Arc::new(MemStorage::new());
        mem.fail_after(1, 0); // first op succeeds, second is killed
        let storage: Arc<dyn DurableStorage> = mem.clone();
        let log = DurableLog::new(storage, DurabilityPolicy::default(), 0);
        let staging = StagingArea::default();
        // First stage: append succeeds, sync is killed.
        let err = log
            .log_stage(
                &staging,
                UpdateBatch::insert_only(vec![tx(&[1])]),
                Admission::Try,
            )
            .unwrap_err();
        assert!(matches!(err, Error::Store(fup_tidb::Error::Io { .. })));
        assert!(log.is_poisoned());
        assert!(!staging.has_pending(), "killed batch must not be admitted");
        // Everything afterwards fails fast, even once storage recovers.
        mem.revive();
        let err = log
            .log_stage(
                &staging,
                UpdateBatch::insert_only(vec![tx(&[2])]),
                Admission::Try,
            )
            .unwrap_err();
        assert!(matches!(err, Error::Recovery { .. }));
        assert!(matches!(
            log.log_synced(&WalRecord::Abort { tickets: vec![] })
                .unwrap_err(),
            Error::Recovery { .. }
        ));
    }

    /// A retry policy that retries immediately, keeping tests fast.
    fn instant_retry(attempts: u32) -> RetryPolicy {
        RetryPolicy::attempts(attempts).backoff(Duration::ZERO, Duration::ZERO)
    }

    fn flaky_log(attempts: u32) -> (Arc<FlakyStorage>, DurableLog) {
        let mem: Arc<dyn DurableStorage> = Arc::new(MemStorage::new());
        let flaky = Arc::new(FlakyStorage::new(mem));
        let storage: Arc<dyn DurableStorage> = flaky.clone();
        let log = DurableLog::new(
            storage,
            DurabilityPolicy::default().with_retry(instant_retry(attempts)),
            0,
        );
        (flaky, log)
    }

    #[test]
    fn transient_blips_within_budget_are_absorbed() {
        let (flaky, log) = flaky_log(4);
        let staging = StagingArea::default();
        flaky.fail_next(OpClass::Append, 2);
        let ticket = log
            .log_stage(
                &staging,
                UpdateBatch::insert_only(vec![tx(&[1])]),
                Admission::Try,
            )
            .unwrap();
        assert_eq!(log.state(), LogState::Healthy);
        assert_eq!(log.transient_retries(), 2);
        assert!(staging.has_pending(), "the retried batch was admitted");
        // A sync blip rides the same budget.
        flaky.fail_next(OpClass::Sync, 1);
        log.log_synced(&WalRecord::Commit {
            version: 1,
            tickets: vec![ticket],
        })
        .unwrap();
        assert_eq!(log.state(), LogState::Healthy);
        assert_eq!(log.transient_retries(), 3);
    }

    #[test]
    fn exhausted_transient_retries_degrade_not_poison() {
        let (flaky, log) = flaky_log(3);
        let staging = StagingArea::default();
        flaky.fail_next(OpClass::Append, 10);
        let err = log
            .log_stage(
                &staging,
                UpdateBatch::insert_only(vec![tx(&[1])]),
                Admission::Try,
            )
            .unwrap_err();
        assert!(matches!(err, Error::Store(e) if e.is_transient()));
        assert_eq!(log.state(), LogState::Degraded);
        assert!(!log.is_poisoned());
        assert!(!staging.has_pending(), "failed batch must not be admitted");
        // Degraded: fail fast with the typed error, no storage traffic.
        let err = log
            .log_stage(
                &staging,
                UpdateBatch::insert_only(vec![tx(&[2])]),
                Admission::Try,
            )
            .unwrap_err();
        assert_eq!(err, Error::DurabilityDegraded);
        assert_eq!(
            log.log_synced(&WalRecord::Abort { tickets: vec![] })
                .unwrap_err(),
            Error::DurabilityDegraded
        );
    }

    #[test]
    fn a_fresh_checkpoint_heals_a_degraded_log() {
        let (flaky, log) = flaky_log(2);
        let staging = StagingArea::default();
        flaky.fail_next(OpClass::Append, 2);
        log.log_stage(
            &staging,
            UpdateBatch::insert_only(vec![tx(&[1])]),
            Admission::Try,
        )
        .unwrap_err();
        assert_eq!(log.state(), LogState::Degraded);
        // The heal path: install a checkpoint (the fault script has run
        // dry, so storage answers again).
        log.install_checkpoint(1, &empty_image(1), 0).unwrap();
        assert_eq!(log.state(), LogState::Healthy);
        // Durability has resumed on the fresh segment.
        log.log_stage(
            &staging,
            UpdateBatch::insert_only(vec![tx(&[2])]),
            Admission::Try,
        )
        .unwrap();
        assert_eq!(log.next_seq(), 2);
    }

    #[test]
    fn checkpoint_blips_are_retried_and_permanent_faults_still_poison() {
        let (flaky, log) = flaky_log(4);
        let ckpt = empty_image(1);
        flaky.fail_next(OpClass::WriteAtomic, 2);
        log.install_checkpoint(1, &ckpt, 0).unwrap();
        assert_eq!(log.state(), LogState::Healthy);
        assert_eq!(log.transient_retries(), 2);
        // Retention lists the directory once two full images are held.
        flaky.fail_next(OpClass::List, 1);
        log.install_checkpoint(2, &empty_image(2), 0).unwrap();
        assert_eq!(log.transient_retries(), 3);
        // A permanent fault (a MemStorage kill) poisons even mid-retry
        // budget, and a later checkpoint cannot heal a poisoned log.
        let mem = Arc::new(MemStorage::new());
        let storage: Arc<dyn DurableStorage> = mem.clone();
        let log = DurableLog::new(
            storage,
            DurabilityPolicy::default().with_retry(instant_retry(4)),
            0,
        );
        mem.fail_after(0, 0);
        let err = log.install_checkpoint(1, &ckpt, 0).unwrap_err();
        assert!(matches!(err, Error::Store(e) if !e.is_transient()));
        assert!(log.is_poisoned());
        mem.revive();
        assert!(matches!(
            log.install_checkpoint(2, &ckpt, 0).unwrap_err(),
            Error::Recovery { .. }
        ));
    }
}
