//! The concurrent ingestion service: a thread-safe layer over the
//! [`Maintainer`] session for deployments where updates arrive from many
//! threads and reads must never wait on a round.
//!
//! A [`MaintainerService`] splits the session's three roles across
//! threads:
//!
//! * **Producers** call [`stage`](MaintainerService::stage) from any
//!   number of threads (`&self`). Batches land in the store's sharded,
//!   lock-striped staging area ([`fup_tidb::StagingArea`]) with the same
//!   arrival-time validation as [`Maintainer::stage`]; producers touch
//!   neither the live set nor the mined state, so they run concurrently
//!   with each other, with readers, and with a commit round mid-scan.
//! * **The committer** is one owned background thread that owns the
//!   [`Maintainer`]. Driven by a validating [`CommitPolicy`] — a pending
//!   ops trigger, an increment-ratio trigger mirroring FUP2's re-mine
//!   economics, and explicit [`flush`](MaintainerService::flush) — it
//!   drains shards in global arrival order and applies them as
//!   deterministic FUP/FUP2 rounds.
//! * **Readers** call [`snapshot`](MaintainerService::snapshot): a read
//!   holds a read lock for one `Arc` clone. The committer publishes only
//!   after a round completes, and its write lock covers one pointer
//!   swap, so a read is never blocked by a round in progress.
//!
//! ## Overload behaviour: the bounded-latency pipeline
//!
//! Left alone, an open-loop producer fleet can outrun the committer:
//! the staged backlog grows without bound, and the one round that
//! finally drains it runs for as long as the backlog is deep. Two
//! policy knobs bound both ends:
//!
//! * [`CommitPolicy::staging_capacity`] caps staged ops. Producers then
//!   choose their backpressure: [`stage`](MaintainerService::stage)
//!   blocks until a round frees space,
//!   [`try_stage`](MaintainerService::try_stage) fails immediately with
//!   [`ServiceError::WouldBlock`], and
//!   [`stage_deadline`](MaintainerService::stage_deadline) waits only
//!   until a deadline ([`ServiceError::StageTimeout`]).
//! * [`CommitPolicy::ops_per_round`] chunks an oversized backlog into
//!   bounded rounds, preserving global arrival (ticket) order and
//!   delete claims across round boundaries — commit latency and the
//!   snapshot gap stop scaling with backlog depth. The one deliberate
//!   exception: a backlog that crosses the session's re-mine break-even
//!   (the paper's §4.5 economics, [`crate::UpdatePolicy`]) is handed to
//!   a *single* round so the update policy routes it to a full re-mine
//!   instead of grinding through FUP chunks a single Apriori pass would
//!   beat.
//!
//! ## Self-healing: degraded mode and committer supervision
//!
//! Degradation is typed, never silent — and where it can be, it is
//! temporary:
//!
//! * **Transient storage faults** are first absorbed by the durable
//!   log's own [`RetryPolicy`]. If a fault outlives
//!   the retry budget the service enters [`HealthState::Degraded`]:
//!   admissions close (producers get [`ServiceError::Degraded`], never
//!   a hang), snapshots keep serving, and the committer turns into a
//!   heal probe that re-checks storage on an exponential-backoff
//!   cadence. A successful probe installs a fresh checkpoint — session
//!   state *and* staged backlog in one atomic image — reopens
//!   admissions, and resumes durable rounds. No acknowledged commit is
//!   lost across the gap.
//! * **Committer panics** on a durable session are absorbed by a
//!   supervisor: it rebuilds the session through the crash-recovery
//!   path (replaying the WAL, re-adopting the staged backlog under its
//!   original tickets) and respawns the commit loop, up to
//!   [`CommitPolicy::max_committer_restarts`] times. Past the budget —
//!   or on a session with no durable storage to rebuild from — the
//!   service degrades permanently: parked and future producers fail
//!   with [`ServiceError::CommitterGone`] while snapshots keep serving
//!   the last published state.
//! * **Permanent storage faults** are terminal
//!   ([`HealthState::Failed`]): probing cannot help, so the service
//!   serves snapshots only and reports the condition through
//!   [`health`](MaintainerService::health).
//!
//! The service reports its own counters ([`ServiceMetrics`]): backlog
//! depth and its high-water mark, snapshot staleness in rounds,
//! per-round size and latency, backpressure rejections, and the
//! self-healing trio (transient retries absorbed, milliseconds spent
//! degraded, committer restarts survived), alongside the batch/round
//! totals.
//!
//! ```
//! use fup_core::service::{CommitPolicy, MaintainerService};
//! use fup_core::Maintainer;
//! use fup_mining::{MinConfidence, MinSupport};
//! use fup_tidb::{Transaction, UpdateBatch};
//!
//! let maintainer = Maintainer::builder()
//!     .min_support(MinSupport::percent(50))
//!     .min_confidence(MinConfidence::percent(70))
//!     .build(vec![
//!         Transaction::from_items([1u32, 2, 3]),
//!         Transaction::from_items([1u32, 2]),
//!         Transaction::from_items([2u32, 3]),
//!     ])
//!     .unwrap();
//! let service = MaintainerService::launch(maintainer, CommitPolicy::manual()).unwrap();
//!
//! // Producers stage concurrently (here: two scoped threads)...
//! std::thread::scope(|scope| {
//!     for _ in 0..2 {
//!         scope.spawn(|| {
//!             service
//!                 .stage(UpdateBatch::insert_only(vec![
//!                     Transaction::from_items([1u32, 3]),
//!                 ]))
//!                 .unwrap();
//!         });
//!     }
//! });
//! // ...reads never wait on a round...
//! assert_eq!(service.snapshot().version(), 0);
//! // ...and a flush forces rounds over everything staged.
//! let report = service.flush().unwrap();
//! assert_eq!(report.num_transactions, 5);
//! assert_eq!(service.snapshot().version(), 1);
//! let (maintainer, metrics) = service.shutdown();
//! assert_eq!(metrics.staged_inserts, 2);
//! assert_eq!(maintainer.len(), 5);
//! ```

use crate::durable::{LogState, RecoveryReport, RetryPolicy};
use crate::error::Error;
use crate::session::{
    Maintainer, MaintainerBuilder, MaintenanceReport, RecoverySpec, RuleSnapshot, SnapshotState,
    StageHandle,
};
use fup_tidb::{sync, Admission, DurableStorage, FaultKind, UpdateBatch};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Committed-round latencies kept for percentile reporting (a bounded
/// ring — old rounds fall off the front).
const LATENCY_RING: usize = 65_536;

/// Errors of the service layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// A [`CommitPolicy`] pending-ops trigger of zero would commit
    /// forever; use [`CommitPolicy::manual`] to disable auto-commits.
    ZeroPendingTrigger,
    /// A [`CommitPolicy`] increment-ratio trigger was not a positive,
    /// finite number.
    InvalidIncrementRatio(f64),
    /// A [`CommitPolicy`] poll interval of zero would busy-spin the
    /// committer thread.
    ZeroPollInterval,
    /// A [`CommitPolicy`] round cap of zero ops could never drain any
    /// backlog.
    ZeroRoundCap,
    /// A [`CommitPolicy`] staging capacity of zero ops would reject
    /// every batch at arrival.
    ZeroStagingCapacity,
    /// A batch failed arrival-time validation and was not staged (wraps
    /// the session error, e.g. an unknown tid or
    /// [`Error::DeletionsDisabled`]).
    Stage(Error),
    /// [`try_stage`](MaintainerService::try_stage) found the staging
    /// area at its configured capacity; nothing was queued. Retry after
    /// a round drains, or fall back to a blocking path.
    WouldBlock {
        /// Staged ops occupying the gate when the batch was refused.
        pending: u64,
        /// The configured capacity ([`CommitPolicy::staging_capacity`]).
        capacity: u64,
    },
    /// [`stage_deadline`](MaintainerService::stage_deadline) waited for
    /// capacity until its deadline and gave up; nothing was queued.
    StageTimeout {
        /// Staged ops occupying the gate when the deadline expired.
        pending: u64,
        /// The configured capacity ([`CommitPolicy::staging_capacity`]).
        capacity: u64,
    },
    /// The round covering a [`flush`](MaintainerService::flush) failed;
    /// the staged work it drained was dropped (see
    /// [`ServiceMetrics::dropped_ops`]).
    Commit(Error),
    /// [`flush_timeout`](MaintainerService::flush_timeout) gave up
    /// waiting. Only the wait was abandoned: the staged work stays
    /// queued and its rounds keep running.
    FlushTimeout,
    /// The committer thread is gone (it panicked past its restart
    /// budget, or panicked on a non-durable session the supervisor
    /// cannot rebuild). Staging and flushing are permanently refused,
    /// but [`snapshot`](MaintainerService::snapshot) keeps serving the
    /// last published state.
    CommitterGone,
    /// The service is shutting down (or already shut down).
    ShutDown,
    /// Rebuilding the session from durable storage failed (wraps the
    /// session error — see
    /// [`MaintainerBuilder::recover`](crate::MaintainerBuilder::recover)).
    Recover(Error),
    /// The service is degraded: durable storage is failing (or the
    /// committer is mid-restart), so new work cannot be accepted right
    /// now. Unlike [`CommitterGone`](Self::CommitterGone) this may be
    /// temporary — a background probe keeps re-checking storage, and
    /// admissions reopen when it heals (watch
    /// [`health`](MaintainerService::health)). Snapshots keep serving
    /// throughout; nothing already acknowledged is lost.
    Degraded,
    /// [`stage_with_retry`](MaintainerService::stage_with_retry)
    /// exhausted its attempts; the batch was not staged. Carries the
    /// final error so shedding callers can still tell backpressure from
    /// degradation.
    RetriesExhausted {
        /// Attempts made before giving up (at least 1).
        attempts: u32,
        /// The error the final attempt failed with.
        last: Box<ServiceError>,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::ZeroPendingTrigger => write!(
                f,
                "pending-ops commit trigger of zero; use CommitPolicy::manual() to disable \
                 auto-commits"
            ),
            ServiceError::InvalidIncrementRatio(r) => {
                write!(f, "increment-ratio trigger {r} is not a positive number")
            }
            ServiceError::ZeroPollInterval => {
                write!(f, "a zero poll interval would busy-spin the committer")
            }
            ServiceError::ZeroRoundCap => write!(
                f,
                "a commit-round cap of zero ops could never drain a backlog"
            ),
            ServiceError::ZeroStagingCapacity => {
                write!(f, "a staging capacity of zero ops would reject every batch")
            }
            ServiceError::Stage(e) => write!(f, "batch rejected at arrival: {e}"),
            ServiceError::WouldBlock { pending, capacity } => write!(
                f,
                "staging backlog at capacity ({pending}/{capacity} ops); retry after a round drains"
            ),
            ServiceError::StageTimeout { pending, capacity } => write!(
                f,
                "stage deadline expired with the backlog still at capacity \
                 ({pending}/{capacity} ops)"
            ),
            ServiceError::Commit(e) => write!(f, "commit round failed: {e}"),
            ServiceError::FlushTimeout => write!(
                f,
                "flush deadline expired before a covering round completed (the staged work \
                 remains queued)"
            ),
            ServiceError::CommitterGone => write!(
                f,
                "the committer thread is gone (it panicked); the service only serves snapshots now"
            ),
            ServiceError::ShutDown => write!(f, "the maintainer service is shut down"),
            ServiceError::Recover(e) => write!(f, "recovery failed before launch: {e}"),
            ServiceError::Degraded => write!(
                f,
                "the service is degraded (storage failing or committer restarting); \
                 snapshots keep serving and admissions reopen on heal"
            ),
            ServiceError::RetriesExhausted { attempts, last } => write!(
                f,
                "gave up staging after {attempts} attempt(s); last error: {last}"
            ),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Stage(e) | ServiceError::Commit(e) | ServiceError::Recover(e) => Some(e),
            ServiceError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

/// When the background committer turns staged batches into maintenance
/// rounds, and how much work any single round (or the staging area) may
/// hold. Triggers combine with OR; [`flush`](MaintainerService::flush)
/// always forces rounds regardless of policy.
///
/// The increment-ratio trigger mirrors the economics of the paper's §4.5
/// and Figure 4: FUP's advantage over re-mining is largest for increments
/// small relative to `DB`, so committing once the staged volume reaches a
/// fraction of the live database keeps every round in the regime the
/// incremental algorithms are built for.
/// [`ops_per_round`](Self::ops_per_round) and
/// [`staging_capacity`](Self::staging_capacity) bound the pipeline under
/// overload — see the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct CommitPolicy {
    /// Commit once staged inserts + deletes reach this count
    /// (`None` disables the trigger).
    pub max_pending_ops: Option<u64>,
    /// Commit once `staged / |DB|` reaches this ratio (`None` disables).
    pub max_increment_ratio: Option<f64>,
    /// Cap on staged ops a single commit round drains (`None` = a round
    /// takes everything). An oversized backlog is chunked into rounds of
    /// at most this many ops, in arrival order. Two exceptions: batches
    /// are atomic (their delete claims and validation are one unit), so
    /// a single batch larger than the cap travels alone; and a backlog
    /// past the session's re-mine break-even travels as one round so the
    /// [`crate::UpdatePolicy`] can route it to a full re-mine.
    pub max_ops_per_round: Option<u64>,
    /// Cap on ops the staging area holds (`None` = unbounded). At the
    /// cap, producers see backpressure instead of unbounded memory
    /// growth: blocking, failing, or timing out per their admission
    /// mode. A batch larger than the whole capacity is refused outright
    /// ([`ServiceError::WouldBlock`]) in every mode.
    pub max_staged_ops: Option<u64>,
    /// How often the committer re-checks triggers when idle (it is also
    /// woken eagerly by producers whose batch crosses a trigger).
    pub poll_interval: Duration,
    /// How many committer panics the supervisor may absorb by rebuilding
    /// the session through the durable recovery path and respawning the
    /// commit loop (see the [module docs](self)). Past the budget — or on
    /// a session without durable storage, which cannot be rebuilt — the
    /// service degrades permanently to
    /// [`ServiceError::CommitterGone`].
    pub max_committer_restarts: u32,
}

impl Default for CommitPolicy {
    /// Commit every 8 192 staged ops, or at a staged volume of 10 % of
    /// the live database, polling every 20 ms. Rounds and staging are
    /// unbounded (opt in with [`ops_per_round`](Self::ops_per_round) /
    /// [`staging_capacity`](Self::staging_capacity)).
    fn default() -> Self {
        CommitPolicy {
            max_pending_ops: Some(8_192),
            max_increment_ratio: Some(0.10),
            max_ops_per_round: None,
            max_staged_ops: None,
            poll_interval: Duration::from_millis(20),
            max_committer_restarts: 3,
        }
    }
}

impl CommitPolicy {
    /// No automatic triggers: rounds happen only on
    /// [`flush`](MaintainerService::flush) (and at shutdown).
    pub fn manual() -> Self {
        CommitPolicy {
            max_pending_ops: None,
            max_increment_ratio: None,
            ..Self::default()
        }
    }

    /// This policy with the pending-ops trigger set to `n`.
    pub fn every_ops(mut self, n: u64) -> Self {
        self.max_pending_ops = Some(n);
        self
    }

    /// This policy with the increment-ratio trigger set to `ratio`.
    pub fn at_increment_ratio(mut self, ratio: f64) -> Self {
        self.max_increment_ratio = Some(ratio);
        self
    }

    /// This policy with commit rounds capped at `n` staged ops (see
    /// [`max_ops_per_round`](Self::max_ops_per_round)).
    pub fn ops_per_round(mut self, n: u64) -> Self {
        self.max_ops_per_round = Some(n);
        self
    }

    /// This policy with the staging area capped at `n` staged ops (see
    /// [`max_staged_ops`](Self::max_staged_ops)). A capacity without any
    /// commit trigger means only flushes free space — blocking producers
    /// on a [`manual`](Self::manual) policy wait until someone flushes.
    pub fn staging_capacity(mut self, n: u64) -> Self {
        self.max_staged_ops = Some(n);
        self
    }

    /// This policy with an explicit idle poll interval.
    pub fn with_poll_interval(mut self, interval: Duration) -> Self {
        self.poll_interval = interval;
        self
    }

    /// This policy with the committer-panic restart budget set to `n`
    /// (see [`max_committer_restarts`](Self::max_committer_restarts);
    /// `0` disables supervision entirely).
    pub fn committer_restarts(mut self, n: u32) -> Self {
        self.max_committer_restarts = n;
        self
    }

    /// Rejects configurations the committer cannot run.
    pub fn validate(&self) -> Result<(), ServiceError> {
        if self.max_pending_ops == Some(0) {
            return Err(ServiceError::ZeroPendingTrigger);
        }
        if let Some(r) = self.max_increment_ratio {
            if !r.is_finite() || r <= 0.0 {
                return Err(ServiceError::InvalidIncrementRatio(r));
            }
        }
        if self.max_ops_per_round == Some(0) {
            return Err(ServiceError::ZeroRoundCap);
        }
        if self.max_staged_ops == Some(0) {
            return Err(ServiceError::ZeroStagingCapacity);
        }
        if self.poll_interval.is_zero() {
            return Err(ServiceError::ZeroPollInterval);
        }
        Ok(())
    }

    /// `true` if `pending` staged ops over a `live`-transaction database
    /// cross any configured trigger.
    fn triggered(&self, pending: u64, live: u64) -> bool {
        if pending == 0 {
            return false;
        }
        if self.max_pending_ops.is_some_and(|n| pending >= n) {
            return true;
        }
        self.max_increment_ratio
            .is_some_and(|r| pending as f64 >= r * live as f64)
    }
}

/// A point-in-time copy of the service's counters (see
/// [`MaintainerService::metrics`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceMetrics {
    /// Batches accepted by [`stage`](MaintainerService::stage).
    pub staged_batches: u64,
    /// Transactions staged for insertion.
    pub staged_inserts: u64,
    /// Deletions staged.
    pub staged_deletes: u64,
    /// Batches rejected at arrival-time validation (nothing was queued).
    pub rejected_batches: u64,
    /// Batches refused or timed out by the staging capacity gate
    /// ([`ServiceError::WouldBlock`] / [`ServiceError::StageTimeout`]).
    pub backpressure_rejections: u64,
    /// Staged ops not yet drained by a round, at the moment these
    /// metrics were read (a gauge, not a counter).
    pub backlog_ops: u64,
    /// High-water mark of the staged backlog, observed at admission.
    pub max_backlog_ops: u64,
    /// How many bounded rounds of draining the current backlog
    /// represents — the snapshot's staleness in rounds, at the moment
    /// these metrics were read (a gauge; with unbounded rounds it is 1
    /// whenever anything is staged).
    pub snapshot_staleness_rounds: u64,
    /// Maintenance rounds committed (including empty flush rounds).
    pub committed_rounds: u64,
    /// Transactions inserted by committed rounds.
    pub committed_inserts: u64,
    /// Deletions applied by committed rounds.
    pub committed_deletes: u64,
    /// Ops the most recent committed round applied.
    pub last_round_ops: u64,
    /// The largest number of ops any committed round applied. With a
    /// round cap this exceeds the cap only for a single atomic batch
    /// bigger than the cap (batches never split across rounds) or for
    /// rounds deliberately routed to the re-mine path (see
    /// [`CommitPolicy::max_ops_per_round`]).
    pub max_round_ops: u64,
    /// Rounds that failed after draining (their staged work was dropped).
    pub dropped_rounds: u64,
    /// Staged ops consumed by failed rounds.
    pub dropped_ops: u64,
    /// Wall-clock microseconds of the most recent committed round.
    pub last_commit_micros: u64,
    /// Cumulative wall-clock microseconds across committed rounds.
    pub total_commit_micros: u64,
    /// From-scratch vertical index builds in the underlying session.
    pub index_builds: u64,
    /// In-place vertical index extends in the underlying session.
    pub index_extends: u64,
    /// Transient storage faults absorbed by the durable log's
    /// [`RetryPolicy`] without surfacing to any caller (0 on a session
    /// without durable storage).
    pub transient_retries: u64,
    /// Cumulative wall-clock milliseconds spent with admissions closed
    /// awaiting a heal (degraded or mid-restart), including the
    /// currently open window if the service is degraded right now.
    pub degraded_ms: u64,
    /// Committer panics survived by a supervised restart (see
    /// [`CommitPolicy::max_committer_restarts`]).
    pub committer_restarts: u64,
}

#[derive(Debug, Default)]
struct MetricsAtomics {
    staged_batches: AtomicU64,
    staged_inserts: AtomicU64,
    staged_deletes: AtomicU64,
    rejected_batches: AtomicU64,
    backpressure_rejections: AtomicU64,
    max_backlog_ops: AtomicU64,
    committed_rounds: AtomicU64,
    committed_inserts: AtomicU64,
    committed_deletes: AtomicU64,
    last_round_ops: AtomicU64,
    max_round_ops: AtomicU64,
    dropped_rounds: AtomicU64,
    dropped_ops: AtomicU64,
    last_commit_micros: AtomicU64,
    total_commit_micros: AtomicU64,
    index_builds: AtomicU64,
    index_extends: AtomicU64,
}

impl MetricsAtomics {
    /// The counter half of [`ServiceMetrics`]; the gauges (`backlog_ops`,
    /// `snapshot_staleness_rounds`) are filled by
    /// [`Shared::metrics_snapshot`], which can see the staging area.
    fn snapshot(&self) -> ServiceMetrics {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ServiceMetrics {
            staged_batches: load(&self.staged_batches),
            staged_inserts: load(&self.staged_inserts),
            staged_deletes: load(&self.staged_deletes),
            rejected_batches: load(&self.rejected_batches),
            backpressure_rejections: load(&self.backpressure_rejections),
            backlog_ops: 0,
            max_backlog_ops: load(&self.max_backlog_ops),
            snapshot_staleness_rounds: 0,
            committed_rounds: load(&self.committed_rounds),
            committed_inserts: load(&self.committed_inserts),
            committed_deletes: load(&self.committed_deletes),
            last_round_ops: load(&self.last_round_ops),
            max_round_ops: load(&self.max_round_ops),
            dropped_rounds: load(&self.dropped_rounds),
            dropped_ops: load(&self.dropped_ops),
            last_commit_micros: load(&self.last_commit_micros),
            total_commit_micros: load(&self.total_commit_micros),
            index_builds: load(&self.index_builds),
            index_extends: load(&self.index_extends),
            transient_retries: 0,
            degraded_ms: 0,
            committer_restarts: 0,
        }
    }
}

/// The coarse condition of a running service (see
/// [`MaintainerService::health`]). States are ordered by severity;
/// [`Failed`](Self::Failed) is terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Normal operation: admissions open, rounds committing durably.
    Healthy,
    /// Durable storage is failing transiently: admissions are closed and
    /// a background probe re-checks storage on a backoff cadence.
    /// Snapshots keep serving; admissions reopen on heal.
    Degraded,
    /// The committer panicked and the supervisor is rebuilding the
    /// session from durable storage. Admissions are closed until the
    /// restarted committer adopts the staged backlog.
    Restarting,
    /// Terminal: a permanent storage fault, or the committer died past
    /// its restart budget. The service serves snapshots only.
    Failed,
}

impl HealthState {
    /// The stable lower-case name used by [`HealthReport`] renderings:
    /// `"healthy"`, `"degraded"`, `"restarting"`, or `"failed"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Restarting => "restarting",
            HealthState::Failed => "failed",
        }
    }
}

/// The opt-in observer installed by
/// [`MaintainerService::on_health_change`].
type HealthCallback = Arc<dyn Fn(HealthState, HealthState) + Send + Sync>;

/// A point-in-time health report (see [`MaintainerService::health`]):
/// the condition plus the self-healing counters behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceHealth {
    /// The service condition right now.
    pub state: HealthState,
    /// Failed heal probes since the service last left
    /// [`HealthState::Healthy`] (0 while healthy) — the probe's backoff
    /// exponent.
    pub consecutive_failures: u64,
    /// Transient storage faults absorbed by retries (the
    /// [`ServiceMetrics::transient_retries`] counter).
    pub transient_retries: u64,
    /// Cumulative milliseconds spent degraded or restarting, including
    /// the currently open window.
    pub degraded_ms: u64,
    /// Committer panics survived by a supervised restart.
    pub committer_restarts: u64,
}

/// One shard's slice of a [`HealthReport`]: committed ops, the backlog
/// routed to it, and a liveness state. In-process sessions report every
/// shard `"up"`; the cluster runtime ([`crate::cluster::Cluster`])
/// reports `"down"` for a killed worker until it rejoins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHealth {
    /// Shard index (position in the [`fup_tidb::ShardSpec`]).
    pub shard: usize,
    /// Update operations (inserts + deletes) committed into this shard
    /// since the session/cluster started.
    pub ops: u64,
    /// Pending operations currently routed to this shard (staged
    /// batches, prospectively routed; plus any parked retry round).
    pub backlog: u64,
    /// `"up"` or `"down"` (fixed strings — no escaping needed in the
    /// JSON rendering).
    pub state: &'static str,
}

/// A combined, renderable view of [`ServiceHealth`] and
/// [`ServiceMetrics`] (see [`MaintainerService::health_report`]).
///
/// Both renderings are **stable**: keys keep their names and relative
/// order across versions, new keys only ever append to their section —
/// safe to scrape from logs or serve from a monitoring endpoint. The
/// JSON is hand-rolled (every value is an unsigned integer or one of
/// a few fixed strings, so no escaping is ever needed) to keep the
/// core dependency-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// The self-healing state machine's condition and counters.
    pub health: ServiceHealth,
    /// The staging/commit counters and gauges.
    pub metrics: ServiceMetrics,
    /// Per-shard gauges, shard order (one entry for a flat session).
    /// Appended after the `metrics` section in both renderings.
    pub shards: Vec<ShardHealth>,
}

impl HealthReport {
    /// The health section's counters, in rendering order.
    fn health_fields(&self) -> [(&'static str, u64); 4] {
        let h = &self.health;
        [
            ("consecutive_failures", h.consecutive_failures),
            ("transient_retries", h.transient_retries),
            ("degraded_ms", h.degraded_ms),
            ("committer_restarts", h.committer_restarts),
        ]
    }

    /// The metrics section's counters and gauges, in rendering order
    /// (declaration order of [`ServiceMetrics`]).
    fn metric_fields(&self) -> [(&'static str, u64); 22] {
        let m = &self.metrics;
        [
            ("staged_batches", m.staged_batches),
            ("staged_inserts", m.staged_inserts),
            ("staged_deletes", m.staged_deletes),
            ("rejected_batches", m.rejected_batches),
            ("backpressure_rejections", m.backpressure_rejections),
            ("backlog_ops", m.backlog_ops),
            ("max_backlog_ops", m.max_backlog_ops),
            ("snapshot_staleness_rounds", m.snapshot_staleness_rounds),
            ("committed_rounds", m.committed_rounds),
            ("committed_inserts", m.committed_inserts),
            ("committed_deletes", m.committed_deletes),
            ("last_round_ops", m.last_round_ops),
            ("max_round_ops", m.max_round_ops),
            ("dropped_rounds", m.dropped_rounds),
            ("dropped_ops", m.dropped_ops),
            ("last_commit_micros", m.last_commit_micros),
            ("total_commit_micros", m.total_commit_micros),
            ("index_builds", m.index_builds),
            ("index_extends", m.index_extends),
            ("transient_retries", m.transient_retries),
            ("degraded_ms", m.degraded_ms),
            ("committer_restarts", m.committer_restarts),
        ]
    }

    /// The plain-text rendering: one `section.key: value` line per
    /// field, starting with `health.state`. Also what [`Display`]
    /// prints.
    ///
    /// [`Display`]: std::fmt::Display
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("health.state: ");
        out.push_str(self.health.state.as_str());
        out.push('\n');
        for (key, value) in self.health_fields() {
            out.push_str(&format!("health.{key}: {value}\n"));
        }
        for (key, value) in self.metric_fields() {
            out.push_str(&format!("metrics.{key}: {value}\n"));
        }
        for s in &self.shards {
            out.push_str(&format!("shards.{}.ops: {}\n", s.shard, s.ops));
            out.push_str(&format!("shards.{}.backlog: {}\n", s.shard, s.backlog));
            out.push_str(&format!("shards.{}.state: {}\n", s.shard, s.state));
        }
        out
    }

    /// The JSON rendering: one object with a `health` and a `metrics`
    /// sub-object, all values integers except `health.state`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"health\":{\"state\":\"");
        out.push_str(self.health.state.as_str());
        out.push('"');
        for (key, value) in self.health_fields() {
            out.push_str(&format!(",\"{key}\":{value}"));
        }
        out.push_str("},\"metrics\":{");
        let mut first = true;
        for (key, value) in self.metric_fields() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{key}\":{value}"));
        }
        out.push_str("},\"shards\":[");
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"shard\":{},\"ops\":{},\"backlog\":{},\"state\":\"{}\"}}",
                s.shard, s.ops, s.backlog, s.state
            ));
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for HealthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

/// The self-healing state machine behind [`MaintainerService::health`]:
/// the condition and its counters, behind one lock (`Shared::health`)
/// so a reader never sees a state without its degraded window.
#[derive(Debug)]
struct Health {
    state: HealthState,
    /// Failed heal probes since the service last left `Healthy`.
    consecutive_failures: u64,
    /// Completed degraded windows, in milliseconds.
    degraded_ms: u64,
    /// When the current degraded window opened (`None` while healthy).
    degraded_since: Option<Instant>,
    /// Committer panics survived by a supervised restart.
    restarts: u64,
}

impl Health {
    fn new() -> Self {
        Health {
            state: HealthState::Healthy,
            consecutive_failures: 0,
            degraded_ms: 0,
            degraded_since: None,
            restarts: 0,
        }
    }

    /// Enters `to` (`Degraded` or `Restarting`), opening the
    /// degraded-time window if it is not already open. `Failed` is
    /// terminal and never downgraded. Returns the `(from, to)` pair of
    /// the transition (equal when nothing changed).
    fn enter(&mut self, to: HealthState) -> (HealthState, HealthState) {
        match self.state {
            HealthState::Failed => (HealthState::Failed, HealthState::Failed),
            from => {
                self.state = to;
                self.degraded_since.get_or_insert_with(Instant::now);
                (from, to)
            }
        }
    }

    /// Back to `Healthy` (unless terminally failed): close the window,
    /// clear the probe-failure streak. Returns the transition pair.
    fn heal(&mut self) -> (HealthState, HealthState) {
        match self.state {
            HealthState::Failed => (HealthState::Failed, HealthState::Failed),
            from => {
                self.state = HealthState::Healthy;
                self.close_window();
                self.consecutive_failures = 0;
                (from, HealthState::Healthy)
            }
        }
    }

    /// Terminal failure: the window closes (degraded time measures the
    /// recoverable condition) and the state never changes again.
    /// Returns the transition pair.
    fn fail_terminal(&mut self) -> (HealthState, HealthState) {
        let from = std::mem::replace(&mut self.state, HealthState::Failed);
        self.close_window();
        (from, HealthState::Failed)
    }

    /// Folds the open degraded-time window into the total.
    fn close_window(&mut self) {
        if let Some(opened) = self.degraded_since.take() {
            self.degraded_ms += opened.elapsed().as_millis() as u64;
        }
    }

    /// Completed degraded milliseconds plus the currently open window.
    fn degraded_ms_now(&self) -> u64 {
        let open = self
            .degraded_since
            .map_or(0, |opened| opened.elapsed().as_millis() as u64);
        self.degraded_ms + open
    }
}

/// Committer-side control state, guarded by one mutex.
#[derive(Debug, Default)]
struct Ctl {
    stop: bool,
    /// Flush tickets issued to waiters.
    flush_requested: u64,
    /// Highest flush ticket covered by a completed round.
    flush_completed: u64,
    /// Tickets with a waiter currently blocked in `flush`.
    waiting: std::collections::BTreeSet<u64>,
    /// Per-round outcomes, as `(highest ticket covered, result)` in round
    /// order — a waiter for ticket `t` takes the *first* entry covering
    /// `t`, so a later round's failure (or success) is never
    /// misattributed to an earlier flush. Pruned to what blocked waiters
    /// can still need (empty whenever nobody waits).
    outcomes: Vec<(u64, Result<MaintenanceReport, Error>)>,
    /// Failed rounds so far. A flush compares this against its value at
    /// ticket issuance: work the flush means to cover may have been
    /// drained — and dropped — by a round that *started* before the
    /// ticket existed, whose failure its covering round would otherwise
    /// mask (rounds are serial, so that failure is recorded before any
    /// covering round runs).
    rounds_failed: u64,
    /// The most recent failed round's error, for the comparison above.
    last_round_error: Option<Error>,
}

impl Ctl {
    /// Drops outcome entries no blocked waiter can take: everything
    /// before the first entry covering the smallest waiting ticket.
    fn prune_outcomes(&mut self) {
        match self.waiting.iter().next().copied() {
            None => self.outcomes.clear(),
            Some(min) => {
                let first_needed = self
                    .outcomes
                    .iter()
                    .position(|&(covered, _)| covered >= min)
                    .unwrap_or(self.outcomes.len());
                self.outcomes.drain(..first_needed);
            }
        }
    }
}

/// State shared by the service handle, the committer and the
/// supervisor.
///
/// Lock order: `ctl` → `health` → `handle` → the staging area's gate.
/// A thread may take a later lock while holding an earlier one, never
/// the reverse. Every lock recovers from poison (`fup_tidb::sync`): no
/// critical section here can unwind between the steps of a multi-field
/// update, so a poisoned guard still holds consistent state. A committer
/// that panicked has recorded its death (see [`CommitterGuard`]), and
/// producers, readers and flush waiters must keep failing typed rather
/// than panic in sympathy.
struct Shared {
    /// The producers' staging path. Behind an `RwLock` only because a
    /// supervised committer restart swaps in the recovered session's
    /// handle; every other access is a read.
    handle: RwLock<StageHandle>,
    policy: CommitPolicy,
    /// The published rules. A reader clones the `Arc` under the read
    /// lock; the committer swaps in a new one under the write lock after
    /// each round (see [`publish`](Self::publish)).
    snapshot: RwLock<Arc<SnapshotState>>,
    metrics: MetricsAtomics,
    /// Committed-round wall-clock micros, oldest first, for percentile
    /// reporting (bounded to [`LATENCY_RING`] entries).
    latencies: Mutex<VecDeque<u64>>,
    /// `|DB|` after the last committed round, for the ratio trigger.
    live_len: AtomicU64,
    stopping: AtomicBool,
    /// Raised by [`CommitterGuard`] if the committer thread panics: the
    /// service degrades to snapshot-only instead of hanging producers.
    committer_gone: AtomicBool,
    /// Producers currently inside `stage` — the shutdown drain waits for
    /// this to reach zero so no accepted batch can miss the final round.
    in_flight: AtomicU64,
    ctl: Mutex<Ctl>,
    /// Wakes the committer (producer crossed a trigger, flush, stop).
    work_cv: Condvar,
    /// Wakes flush waiters (a round completed, or stop).
    done_cv: Condvar,
    /// The self-healing state machine: degraded/restarting/failed plus
    /// the counters [`MaintainerService::health`] reports. Every state
    /// change happens in [`transition`](Self::transition), together with
    /// the admission-gate change that goes with it.
    health: Mutex<Health>,
    /// Opt-in observer fired on every health-state transition (see
    /// [`MaintainerService::on_health_change`]). `None` until installed.
    on_health_change: RwLock<Option<HealthCallback>>,
    /// Fault-injection hook: makes the committer's next wakeup panic,
    /// exercising the supervision path without contriving a real bug
    /// (see [`MaintainerService::debug_kill_committer`]).
    kill_committer: AtomicBool,
    /// Per-shard gauges for [`HealthReport::shards`], refreshed by the
    /// committer after every round (and seeded at launch).
    shard_gauges: Mutex<Vec<ShardHealth>>,
}

/// RAII decrement of `Shared::in_flight`, covering every exit path of
/// [`MaintainerService::stage`].
struct InFlightGuard<'a>(&'a AtomicU64);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Shared {
    fn lock_ctl(&self) -> MutexGuard<'_, Ctl> {
        sync::lock(&self.ctl)
    }

    fn health_state(&self) -> HealthState {
        sync::lock(&self.health).state
    }

    /// The current staging handle (a cheap clone — two `Arc`s and a
    /// flag). Cloned out of the lock so no caller holds the read guard
    /// across a blocking admission wait.
    fn stage_handle(&self) -> StageHandle {
        sync::read(&self.handle).clone()
    }

    /// Publishes `state` to readers. The old state is dropped after the
    /// write lock is released, so a reader never waits on its
    /// destruction.
    fn publish(&self, state: Arc<SnapshotState>) {
        let old = std::mem::replace(&mut *sync::write(&self.snapshot), state);
        drop(old);
    }

    fn triggered(&self) -> bool {
        let (i, d) = self.stage_handle().pending_ops();
        self.policy
            .triggered(i + d, self.live_len.load(Ordering::Relaxed))
    }

    /// The full [`ServiceMetrics`]: counters plus the point-in-time
    /// gauges (backlog depth, snapshot staleness in rounds, health
    /// counters).
    fn metrics_snapshot(&self) -> ServiceMetrics {
        let mut m = self.metrics.snapshot();
        let handle = self.stage_handle();
        let (i, d) = handle.pending_ops();
        m.backlog_ops = i + d;
        m.snapshot_staleness_rounds = match self.policy.max_ops_per_round {
            Some(cap) => m.backlog_ops.div_ceil(cap),
            None => u64::from(m.backlog_ops > 0),
        };
        m.transient_retries = handle
            .durable_log()
            .map_or(0, |log| log.transient_retries());
        let health = sync::lock(&self.health);
        m.degraded_ms = health.degraded_ms_now();
        m.committer_restarts = health.restarts;
        m
    }

    /// The full [`ServiceHealth`] report, read under one lock.
    fn health_snapshot(&self) -> ServiceHealth {
        let transient_retries = self
            .stage_handle()
            .durable_log()
            .map_or(0, |log| log.transient_retries());
        let health = sync::lock(&self.health);
        ServiceHealth {
            state: health.state,
            consecutive_failures: health.consecutive_failures,
            transient_retries,
            degraded_ms: health.degraded_ms_now(),
            committer_restarts: health.restarts,
        }
    }

    /// Applies one health-state change (`Health::enter`, `heal` or
    /// `fail_terminal`) and the admission-gate change that goes with it,
    /// both under the health lock; then wakes the committer and every
    /// flush waiter, and fires the observer.
    ///
    /// Doing both under one lock is what keeps state and gate in step. A
    /// heal sets `Healthy` and only then reopens admissions (unless
    /// shutdown or a terminal committer death got there first); every
    /// other state closes them. A producer that degrades the service
    /// concurrently therefore runs strictly before or after the heal,
    /// never between its two steps, where it would leave the service
    /// `Healthy` with admissions closed and no probe left to reopen them.
    fn transition(&self, step: impl FnOnce(&mut Health) -> (HealthState, HealthState)) {
        let (from, to) = {
            let mut health = sync::lock(&self.health);
            let (from, to) = step(&mut health);
            let handle = self.stage_handle();
            let open = health.state == HealthState::Healthy
                && !self.stopping.load(Ordering::SeqCst)
                && !self.committer_gone.load(Ordering::SeqCst);
            if open {
                handle.staging_area().reopen_admissions();
            } else {
                handle.staging_area().close_admissions();
            }
            (from, to)
        };
        {
            let _ctl = self.lock_ctl();
            self.work_cv.notify_all();
            self.done_cv.notify_all();
        }
        self.notify_health(from, to);
    }

    /// Fires the opt-in health observer for a real transition. Called
    /// after the service's own bookkeeping (admission gates, condvar
    /// wakeups) and outside every service lock, so a callback can read
    /// health/metrics without deadlocking — it only must not block.
    fn notify_health(&self, from: HealthState, to: HealthState) {
        if from == to {
            return;
        }
        let callback = sync::read(&self.on_health_change).clone();
        if let Some(callback) = callback {
            callback(from, to);
        }
    }

    /// Swaps in a freshly recovered session after a committer panic: the
    /// new staging area takes over the service's capacity gate (closed
    /// until the heal transition reopens it), the recovered state is
    /// published, and producers are routed to the new handle. The
    /// recovered staging area already holds the panicked round's staged
    /// backlog under its original tickets — nothing staged is lost,
    /// nothing acknowledged is reordered.
    fn adopt_recovered(&self, maintainer: &Maintainer) {
        let handle = maintainer.stage_handle();
        {
            let area = handle.staging_area();
            area.set_capacity(self.policy.max_staged_ops);
            area.close_admissions();
        }
        self.publish(maintainer.state_arc());
        self.live_len
            .store(maintainer.len() as u64, Ordering::Relaxed);
        *sync::write(&self.handle) = handle;
    }
}

/// Runs when the *supervisor* thread exits. A planned exit is a no-op;
/// on a panic that escapes the supervisor itself (committer panics are
/// caught and handled below it) this backstop records the death so the
/// service degrades instead of hanging: admissions close (producers
/// parked on a full gate fail over to [`ServiceError::CommitterGone`]),
/// `stop` is raised, and both condvars fire so flush waiters observe the
/// death. Snapshots keep serving — the last published state remains
/// valid forever.
struct CommitterGuard<'a>(&'a Shared);

impl Drop for CommitterGuard<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        give_up(self.0);
    }
}

/// A running maintenance service: the session's staging, committing, and
/// serving split across threads. See the [module docs](self) for the
/// model and an example.
///
/// All methods take `&self`; share the service across producer and
/// reader threads by reference (e.g. [`std::thread::scope`]) or wrap it
/// in an [`Arc`]. Dropping the service without
/// [`shutdown`](Self::shutdown) stops the committer after a final drain
/// of everything staged.
pub struct MaintainerService {
    shared: Arc<Shared>,
    /// The supervisor thread. Returns `None` when the committer died
    /// past its restart budget (the [`ServiceError::CommitterGone`]
    /// state) instead of unwinding, so joining it cannot re-raise.
    committer: Option<JoinHandle<Option<Maintainer>>>,
}

impl fmt::Debug for MaintainerService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MaintainerService")
            .field("policy", &self.shared.policy)
            .field("metrics", &self.shared.metrics_snapshot())
            .finish_non_exhaustive()
    }
}

impl MaintainerService {
    /// Validates `policy` and launches the committer thread around
    /// `maintainer`. The session's current state becomes snapshot version
    /// 0; [`shutdown`](Self::shutdown) hands the session back. A
    /// [`CommitPolicy::staging_capacity`] is installed on the session's
    /// staging area here and removed again at shutdown.
    pub fn launch(
        maintainer: Maintainer,
        policy: CommitPolicy,
    ) -> Result<MaintainerService, ServiceError> {
        policy.validate()?;
        let handle = maintainer.stage_handle();
        {
            let area = handle.staging_area();
            area.reopen_admissions();
            area.set_capacity(policy.max_staged_ops);
        }
        let shared = Arc::new(Shared {
            handle: RwLock::new(handle),
            policy,
            snapshot: RwLock::new(maintainer.state_arc()),
            metrics: MetricsAtomics::default(),
            latencies: Mutex::new(VecDeque::new()),
            live_len: AtomicU64::new(maintainer.len() as u64),
            stopping: AtomicBool::new(false),
            committer_gone: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            ctl: Mutex::new(Ctl::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            health: Mutex::new(Health::new()),
            on_health_change: RwLock::new(None),
            kill_committer: AtomicBool::new(false),
            shard_gauges: Mutex::new(maintainer.shard_health()),
        });
        let committer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fup-committer".into())
                .spawn(move || supervised_committer(maintainer, &shared))
                .expect("spawning the committer thread")
        };
        Ok(MaintainerService {
            shared,
            committer: Some(committer),
        })
    }

    /// Rebuilds a durable session from `storage` (see
    /// [`MaintainerBuilder::recover`]) and launches the service around
    /// it — the one-call crash-restart path for a durable serving
    /// deployment. The recovered state (including any re-queued staged
    /// batches, which the policy's triggers see immediately) is snapshot
    /// version 0.
    pub fn recover(
        builder: MaintainerBuilder,
        storage: Arc<dyn DurableStorage>,
        policy: CommitPolicy,
    ) -> Result<(MaintainerService, RecoveryReport), ServiceError> {
        policy.validate()?;
        let (maintainer, report) = builder.recover(storage).map_err(ServiceError::Recover)?;
        let service = MaintainerService::launch(maintainer, policy)?;
        Ok((service, report))
    }

    /// Queues a batch for an upcoming maintenance round. Thread-safe;
    /// producers contend only on a staging shard stripe. Validation
    /// failures reject the batch atomically at arrival. When a
    /// [`CommitPolicy::staging_capacity`] is configured and the gate is
    /// full, **blocks** until a commit round frees space — use
    /// [`try_stage`](Self::try_stage) or
    /// [`stage_deadline`](Self::stage_deadline) for bounded waiting.
    pub fn stage(&self, batch: UpdateBatch) -> Result<(), ServiceError> {
        self.stage_with(batch, Admission::Block)
    }

    /// Non-blocking [`stage`](Self::stage): if the staging area is at
    /// capacity, fails immediately with [`ServiceError::WouldBlock`]
    /// instead of waiting. The overload-shedding path for open-loop
    /// producers.
    pub fn try_stage(&self, batch: UpdateBatch) -> Result<(), ServiceError> {
        self.stage_with(batch, Admission::Try)
    }

    /// [`stage`](Self::stage) that waits for capacity only until
    /// `deadline`, then fails with [`ServiceError::StageTimeout`].
    pub fn stage_deadline(
        &self,
        batch: UpdateBatch,
        deadline: Instant,
    ) -> Result<(), ServiceError> {
        self.stage_with(batch, Admission::Deadline(deadline))
    }

    fn stage_with(&self, batch: UpdateBatch, admission: Admission) -> Result<(), ServiceError> {
        // Register in-flight *before* checking the stop flag (both
        // SeqCst): a producer that observed `stopping == false` is
        // visible to the shutdown drain's in-flight wait, so a batch this
        // method accepts is always covered by a round — it can never
        // slip in behind the committer's final drain.
        self.shared.in_flight.fetch_add(1, Ordering::SeqCst);
        let guard = InFlightGuard(&self.shared.in_flight);
        if self.shared.committer_gone.load(Ordering::SeqCst) {
            return Err(ServiceError::CommitterGone);
        }
        if self.shared.stopping.load(Ordering::SeqCst) {
            return Err(ServiceError::ShutDown);
        }
        let inserts = batch.inserts.len() as u64;
        let deletes = batch.deletes.len() as u64;
        let handle = self.shared.stage_handle();
        if let Err(e) = handle.stage_with(batch, admission) {
            return Err(self.classify_stage_error(e));
        }
        let m = &self.shared.metrics;
        m.staged_batches.fetch_add(1, Ordering::Relaxed);
        m.staged_inserts.fetch_add(inserts, Ordering::Relaxed);
        m.staged_deletes.fetch_add(deletes, Ordering::Relaxed);
        let (pend_i, pend_d) = handle.pending_ops();
        m.max_backlog_ops
            .fetch_max(pend_i + pend_d, Ordering::Relaxed);
        drop(guard);
        if self.shared.triggered() {
            // Eager wakeup; the committer also polls, so a lost race here
            // only costs one poll interval.
            let _ctl = self.shared.lock_ctl();
            self.shared.work_cv.notify_one();
        }
        Ok(())
    }

    /// Sorts a failed admission into the service's error vocabulary and
    /// bumps the matching counter.
    fn classify_stage_error(&self, e: Error) -> ServiceError {
        let m = &self.shared.metrics;
        match e {
            Error::Store(fup_tidb::Error::WouldBlock { pending, capacity }) => {
                m.backpressure_rejections.fetch_add(1, Ordering::Relaxed);
                ServiceError::WouldBlock { pending, capacity }
            }
            Error::Store(fup_tidb::Error::StageTimeout { pending, capacity }) => {
                m.backpressure_rejections.fetch_add(1, Ordering::Relaxed);
                ServiceError::StageTimeout { pending, capacity }
            }
            // Admissions close for exactly three reasons: the committer
            // died for good, shutdown began, or the service degraded
            // awaiting a heal. The first two raise their flag before
            // closing, so whatever closed the gate this producer found
            // is decided by the flags alone — the health state may have
            // healed since.
            Error::Store(fup_tidb::Error::StagingClosed) => {
                if self.shared.committer_gone.load(Ordering::SeqCst) {
                    ServiceError::CommitterGone
                } else if self.shared.stopping.load(Ordering::SeqCst) {
                    ServiceError::ShutDown
                } else {
                    m.backpressure_rejections.fetch_add(1, Ordering::Relaxed);
                    ServiceError::Degraded
                }
            }
            // The staging WAL write hit storage trouble the log's own
            // retries could not absorb. Transient faults degrade the
            // service (a probe will heal it); permanent ones are
            // terminal. Either way the batch was not staged and the
            // producer gets a typed refusal, not a hang.
            Error::DurabilityDegraded
            | Error::Store(fup_tidb::Error::Io {
                kind: FaultKind::Transient,
                ..
            }) => {
                self.shared.transition(|h| h.enter(HealthState::Degraded));
                m.backpressure_rejections.fetch_add(1, Ordering::Relaxed);
                ServiceError::Degraded
            }
            Error::Store(fup_tidb::Error::Io {
                kind: FaultKind::Permanent,
                ..
            })
            | Error::Recovery { .. } => {
                self.shared.transition(Health::fail_terminal);
                m.backpressure_rejections.fetch_add(1, Ordering::Relaxed);
                ServiceError::Degraded
            }
            e => {
                m.rejected_batches.fetch_add(1, Ordering::Relaxed);
                ServiceError::Stage(e)
            }
        }
    }

    /// A version-stamped view of the current rules, valid forever once
    /// taken. The read lock is held for one `Arc` clone, so a read is
    /// never blocked by staging or by a commit round in progress. Keeps
    /// serving (the last published state) even after
    /// [`ServiceError::CommitterGone`].
    pub fn snapshot(&self) -> RuleSnapshot {
        RuleSnapshot::from_state(Arc::clone(&sync::read(&self.shared.snapshot)))
    }

    /// Forces maintenance rounds over everything staged so far and
    /// blocks until they complete, returning the last covering round's
    /// report (an empty round bumps the version and reports no changes).
    /// An oversized backlog is drained in bounded rounds per
    /// [`CommitPolicy::max_ops_per_round`]; concurrent flushes may be
    /// covered by one round.
    pub fn flush(&self) -> Result<MaintenanceReport, ServiceError> {
        self.flush_inner(None)
    }

    /// [`flush`](Self::flush) that waits at most `timeout`, then fails
    /// with [`ServiceError::FlushTimeout`]. Only the *wait* is
    /// abandoned: the staged work stays queued and the committer's
    /// rounds keep running, so a later flush (or trigger) still commits
    /// it.
    pub fn flush_timeout(&self, timeout: Duration) -> Result<MaintenanceReport, ServiceError> {
        self.flush_inner(Some(Instant::now() + timeout))
    }

    fn flush_inner(&self, deadline: Option<Instant>) -> Result<MaintenanceReport, ServiceError> {
        let mut ctl = self.shared.lock_ctl();
        if self.shared.committer_gone.load(Ordering::SeqCst) {
            return Err(ServiceError::CommitterGone);
        }
        if ctl.stop {
            return Err(ServiceError::ShutDown);
        }
        // A degraded service cannot commit durably: fail the flush typed
        // instead of parking the waiter on rounds that will not run. The
        // staged work stays queued — a flush after the heal covers it.
        if self.shared.health_state() != HealthState::Healthy {
            return Err(ServiceError::Degraded);
        }
        ctl.flush_requested += 1;
        let ticket = ctl.flush_requested;
        ctl.waiting.insert(ticket);
        let failed_at_issue = ctl.rounds_failed;
        self.shared.work_cv.notify_one();
        loop {
            // Take the outcome of the *first* round that covered this
            // ticket — never a later round's, whose failure (or success)
            // would say nothing about the work this flush staged. A
            // covering round that succeeded still fails the flush when
            // any round failed since the ticket was issued: such a round
            // may have drained — and dropped — work staged before this
            // call, and rounds are serial, so its failure is recorded by
            // the time the covering outcome exists.
            if let Some((_, outcome)) = ctl.outcomes.iter().find(|&&(covered, _)| covered >= ticket)
            {
                let result = match outcome {
                    Ok(_) if ctl.rounds_failed > failed_at_issue => Err(ServiceError::Commit(
                        ctl.last_round_error
                            .clone()
                            .expect("a counted failure recorded its error"),
                    )),
                    Ok(report) => Ok(report.clone()),
                    Err(e) => Err(ServiceError::Commit(e.clone())),
                };
                ctl.waiting.remove(&ticket);
                ctl.prune_outcomes();
                return result;
            }
            if self.shared.committer_gone.load(Ordering::SeqCst) {
                ctl.waiting.remove(&ticket);
                ctl.prune_outcomes();
                return Err(ServiceError::CommitterGone);
            }
            if self.shared.health_state() != HealthState::Healthy {
                // The service degraded while this flush waited; its
                // staged work stays queued for after the heal.
                ctl.waiting.remove(&ticket);
                ctl.prune_outcomes();
                return Err(ServiceError::Degraded);
            }
            if ctl.stop {
                ctl.waiting.remove(&ticket);
                ctl.prune_outcomes();
                return Err(ServiceError::ShutDown);
            }
            ctl = match deadline {
                None => sync::wait(&self.shared.done_cv, ctl),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        ctl.waiting.remove(&ticket);
                        ctl.prune_outcomes();
                        return Err(ServiceError::FlushTimeout);
                    }
                    sync::wait_timeout(&self.shared.done_cv, ctl, d - now)
                }
            };
        }
    }

    /// `(inserts, deletes)` staged and not yet drained by a round.
    pub fn pending_ops(&self) -> (u64, u64) {
        self.shared.stage_handle().pending_ops()
    }

    /// [`try_stage`](Self::try_stage) wrapped in a bounded
    /// backoff-and-jitter retry loop: backpressure refusals
    /// ([`WouldBlock`](ServiceError::WouldBlock) /
    /// [`StageTimeout`](ServiceError::StageTimeout)) and
    /// [`Degraded`](ServiceError::Degraded) refusals are retried per
    /// `retry`; anything else (validation, shutdown, a dead committer)
    /// fails immediately. Once the budget is spent the batch is shed
    /// with [`ServiceError::RetriesExhausted`] carrying the final error
    /// — the open-loop producer's patience-then-shed admission path.
    pub fn stage_with_retry(
        &self,
        batch: UpdateBatch,
        retry: RetryPolicy,
    ) -> Result<(), ServiceError> {
        if let Err(e) = retry.validate() {
            return Err(ServiceError::Stage(e.into()));
        }
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let err = match self.try_stage(batch.clone()) {
                Ok(()) => return Ok(()),
                Err(e) => e,
            };
            let retryable = matches!(
                err,
                ServiceError::WouldBlock { .. }
                    | ServiceError::StageTimeout { .. }
                    | ServiceError::Degraded
            );
            if !retryable {
                return Err(err);
            }
            if attempt >= retry.max_attempts {
                return Err(ServiceError::RetriesExhausted {
                    attempts: attempt,
                    last: Box::new(err),
                });
            }
            retry.pause(attempt);
        }
    }

    /// A point-in-time health report: the service condition
    /// ([`HealthState`]) plus the self-healing counters — transient
    /// retries absorbed, time spent degraded, committer restarts
    /// survived.
    pub fn health(&self) -> ServiceHealth {
        self.shared.health_snapshot()
    }

    /// One consistent [`HealthReport`] bundling [`health`](Self::health)
    /// and [`metrics`](Self::metrics), with stable plain-text
    /// ([`HealthReport::to_text`]) and JSON ([`HealthReport::to_json`])
    /// renderings for logs and monitoring endpoints.
    pub fn health_report(&self) -> HealthReport {
        HealthReport {
            health: self.shared.health_snapshot(),
            metrics: self.shared.metrics_snapshot(),
            shards: sync::lock(&self.shared.shard_gauges).clone(),
        }
    }

    /// Installs the opt-in health observer: `callback(from, to)` fires
    /// on every [`HealthState`] transition — degrading, healing,
    /// entering a supervised restart, or failing terminally — and never
    /// for a no-op re-entry of the current state. Replaces any
    /// previously installed observer.
    ///
    /// The callback runs synchronously on whichever thread drives the
    /// transition (a producer whose stage hit a storage fault, the
    /// committer's heal probe, the supervisor) after the service's own
    /// bookkeeping and outside its locks: it may read
    /// [`health`](Self::health) or [`metrics`](Self::metrics), but it
    /// must be fast and must not block on service operations like
    /// [`flush`](Self::flush).
    pub fn on_health_change<F>(&self, callback: F)
    where
        F: Fn(HealthState, HealthState) + Send + Sync + 'static,
    {
        *sync::write(&self.shared.on_health_change) = Some(Arc::new(callback));
    }

    /// Fault injection for tests and chaos harnesses: the committer's
    /// next wakeup panics, exercising the supervised-restart path
    /// without contriving a real bug. Not part of the stable API.
    #[doc(hidden)]
    pub fn debug_kill_committer(&self) {
        self.shared.kill_committer.store(true, Ordering::SeqCst);
        let _ctl = self.shared.lock_ctl();
        self.shared.work_cv.notify_all();
    }

    /// A copy of the service counters, with the backlog and staleness
    /// gauges read at this instant.
    pub fn metrics(&self) -> ServiceMetrics {
        self.shared.metrics_snapshot()
    }

    /// Wall-clock microseconds of recent committed rounds, oldest first
    /// — the raw series behind p50/p99 commit-latency reporting. Bounded
    /// to the last 65 536 rounds.
    pub fn round_latencies(&self) -> Vec<u64> {
        sync::lock(&self.shared.latencies).iter().copied().collect()
    }

    /// The active commit policy.
    pub fn policy(&self) -> &CommitPolicy {
        &self.shared.policy
    }

    /// Stops the committer — after final rounds draining anything still
    /// staged — and hands back the session plus the final counters. New
    /// [`stage`](Self::stage)/[`flush`](Self::flush) calls fail with
    /// [`ServiceError::ShutDown`] once shutdown begins; producers parked
    /// on a full staging gate are failed rather than left waiting for
    /// space that will never come.
    ///
    /// # Panics
    ///
    /// If the committer thread panicked (the
    /// [`ServiceError::CommitterGone`] state). Drop the service instead
    /// to discard a dead pipeline without re-raising its panic.
    pub fn shutdown(mut self) -> (Maintainer, ServiceMetrics) {
        let maintainer = self.stop_committer().expect("committer thread panicked");
        let metrics = self.shared.metrics_snapshot();
        (maintainer, metrics)
    }

    fn stop_committer(&mut self) -> std::thread::Result<Maintainer> {
        {
            // Under the health lock, so a concurrent heal cannot reopen
            // the gate behind this close (see `Shared::transition`).
            let _health = sync::lock(&self.shared.health);
            // SeqCst to pair with `stage`'s in-flight handshake: the
            // no-batch-misses-the-final-drain argument needs this store
            // in the same total order as the producers' flag loads.
            self.shared.stopping.store(true, Ordering::SeqCst);
            // Fail Block-mode producers parked on a full gate *before*
            // the committer waits out `in_flight`: a parked producer
            // holds an in-flight registration, and the final drain may
            // never free the space it is waiting for — without this,
            // shutdown and the sleeper deadlock.
            self.shared.stage_handle().staging_area().close_admissions();
        }
        {
            let mut ctl = self.shared.lock_ctl();
            ctl.stop = true;
            self.shared.work_cv.notify_all();
            self.shared.done_cv.notify_all();
        }
        let joined = self
            .committer
            .take()
            .expect("committer joined twice")
            .join();
        // Hand the session back with a standalone staging gate:
        // admissions open, no service capacity.
        let area_handle = self.shared.stage_handle();
        let area = area_handle.staging_area();
        area.reopen_admissions();
        area.set_capacity(None);
        match joined {
            Ok(Some(maintainer)) => Ok(maintainer),
            // The supervisor exhausted the restart budget and returned
            // gracefully; surface it like the panic it absorbed.
            Ok(None) => Err(Box::new("committer died past its restart budget")),
            Err(panic) => Err(panic),
        }
    }
}

impl Drop for MaintainerService {
    fn drop(&mut self) {
        if self.committer.is_some() {
            // Shutdown without handing the session back; a committer
            // panic already unwound, so don't double-panic here.
            let _ = self.stop_committer();
        }
    }
}

/// Consumes a pending kill request (the fault-injection hook). `swap`
/// rather than `load` so a supervised restart does not immediately
/// re-kill the fresh committer.
fn test_kill_requested(shared: &Shared) -> bool {
    shared.kill_committer.swap(false, Ordering::SeqCst)
}

/// Terminal degradation (a committer panic with no restart budget left,
/// no durable storage to rebuild from, or shutdown already underway):
/// record the death, close admissions for good, raise `stop`, and wake
/// everyone so parked producers and flush waiters fail typed.
fn give_up(shared: &Shared) {
    shared.committer_gone.store(true, Ordering::SeqCst);
    shared.lock_ctl().stop = true;
    shared.transition(Health::fail_terminal);
}

/// Supervises the committer: runs [`committer_loop`] under
/// `catch_unwind` and, when it panics, rebuilds the session through the
/// durable recovery path and respawns the loop — up to
/// [`CommitPolicy::max_committer_restarts`] times. The recovered
/// session replays the WAL, so every acknowledged commit survives and
/// the staged backlog is re-adopted under its original tickets. A
/// session without durable storage cannot be rebuilt: its first panic
/// (like any panic past the budget, or during shutdown) goes straight
/// to [`give_up`].
fn supervised_committer(mut maintainer: Maintainer, shared: &Shared) -> Option<Maintainer> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    // Backstop: if the *supervisor* itself panics (recovery code, adopt
    // path), the guard still degrades the service instead of hanging
    // producers on a silently dead thread.
    let _death_watch = CommitterGuard(shared);
    let spec: Option<RecoverySpec> = maintainer.recovery_spec();
    let mut panics = 0u32;
    loop {
        match catch_unwind(AssertUnwindSafe(|| committer_loop(maintainer, shared))) {
            Ok(session) => return Some(session),
            Err(_panic) => {
                panics += 1;
                // Decide *before* touching any shared state whether a
                // restart is possible, so an unrecoverable death never
                // shows an intermediate Restarting state to producers.
                let restartable = spec.is_some()
                    && panics <= shared.policy.max_committer_restarts
                    && !shared.stopping.load(Ordering::SeqCst);
                if !restartable {
                    give_up(shared);
                    return None;
                }
                // Close the dead loop's admissions immediately: parked
                // producers fail over to `Degraded` instead of waiting on
                // a committer that no longer drains.
                shared.transition(|h| h.enter(HealthState::Restarting));
                let spec = spec.as_ref().expect("restartable implies a recovery spec");
                match spec.builder.clone().recover(Arc::clone(&spec.storage)) {
                    Ok((recovered, _report)) => {
                        shared.adopt_recovered(&recovered);
                        shared.transition(|h| {
                            h.restarts += 1;
                            h.heal()
                        });
                        maintainer = recovered;
                    }
                    Err(_recovery_failed) => {
                        give_up(shared);
                        return None;
                    }
                }
            }
        }
    }
}

/// The committer thread's main loop: wait for a trigger / flush / stop
/// (or, while degraded, for the next heal probe), run bounded rounds,
/// publish, repeat. Returns the session at shutdown.
fn committer_loop(mut maintainer: Maintainer, shared: &Shared) -> Maintainer {
    // Heal-probe schedule, local to this incarnation of the loop: when
    // the next probe is due (`None` = immediately) and how many probes
    // in a row have failed (the backoff exponent).
    let mut next_probe: Option<Instant> = None;
    let mut probe_failures: u32 = 0;
    loop {
        let stop = {
            let mut ctl = shared.lock_ctl();
            loop {
                if test_kill_requested(shared) {
                    drop(ctl); // release (don't poison) before dying
                    panic!("committer killed by test harness");
                }
                if ctl.stop {
                    break true;
                }
                match shared.health_state() {
                    HealthState::Healthy
                        if ctl.flush_requested > ctl.flush_completed || shared.triggered() =>
                    {
                        break false;
                    }
                    // Flushes and triggers cannot run durably while
                    // degraded; only a due heal probe leaves the wait.
                    HealthState::Degraded if next_probe.is_none_or(|due| Instant::now() >= due) => {
                        break false;
                    }
                    // Failed is terminal (Restarting never coexists with
                    // a live loop): idle until shutdown.
                    _ => {}
                }
                ctl = sync::wait_timeout(&shared.work_cv, ctl, shared.policy.poll_interval);
            }
        };
        if stop {
            // Producers that passed the stop check are still landing
            // batches (they registered in `in_flight` first); wait them
            // out so the final rounds provably drain everything `stage`
            // ever accepted. Producers parked on a full gate were already
            // failed by `stop_committer`'s close_admissions.
            while shared.in_flight.load(Ordering::SeqCst) != 0 {
                std::thread::yield_now();
            }
            // A degraded service gets one last heal attempt before the
            // final drain.
            if shared.health_state() == HealthState::Degraded && maintainer.try_heal().is_ok() {
                shared.transition(Health::heal);
            }
        } else if shared.health_state() == HealthState::Degraded {
            // The due probe: a successful heal re-checkpoints (state and
            // staged backlog together) and reopens admissions; a failure
            // backs the next probe off exponentially so dead storage is
            // not hammered.
            match maintainer.try_heal() {
                Ok(_) => {
                    shared.transition(Health::heal);
                    probe_failures = 0;
                    next_probe = None;
                }
                Err(_still_failing) => {
                    if maintainer.durability_state() == Some(LogState::Poisoned) {
                        shared.transition(Health::fail_terminal);
                        next_probe = None;
                    } else {
                        probe_failures += 1;
                        sync::lock(&shared.health).consecutive_failures = u64::from(probe_failures);
                        let backoff = shared.policy.poll_interval
                            * 2u32.saturating_pow(probe_failures.min(6));
                        next_probe = Some(Instant::now() + backoff);
                    }
                }
            }
            continue;
        }
        let flush_pending = {
            let ctl = shared.lock_ctl();
            ctl.flush_requested > ctl.flush_completed
        };
        let (pend_i, pend_d) = shared.stage_handle().pending_ops();
        let pending = pend_i + pend_d;
        // While degraded or failed, rounds are skipped even at shutdown:
        // draining would burn staged records — already safe in the WAL —
        // into rounds whose durability cannot be acknowledged. Recovery
        // replays them instead.
        let healthy = shared.health_state() == HealthState::Healthy;
        if healthy && (flush_pending || (stop && pending > 0)) {
            // A flush (or the shutdown drain) covers *everything* staged,
            // in bounded rounds.
            drain_backlog(&mut maintainer, shared);
        } else if healthy && !stop && shared.triggered() {
            // A trigger runs one bounded round; if the backlog is still
            // over the trigger afterwards, the wait loop falls straight
            // through and the next round starts — with a stop/flush check
            // between rounds, which is what bounds flush latency.
            let ticket = shared.lock_ctl().flush_requested;
            let cap = round_cap(&maintainer, shared, pending);
            let hint = cap.map_or(pending, |c| pending.min(c));
            run_round(&mut maintainer, shared, cap, Some(ticket), hint);
        }
        if stop {
            // Unblock any flush waiter that raced shutdown (its staged
            // work was drained above, but no round was dedicated to its
            // ticket — it reports ShutDown).
            let mut ctl = shared.lock_ctl();
            ctl.flush_completed = ctl.flush_requested.max(ctl.flush_completed);
            shared.done_cv.notify_all();
            return maintainer;
        }
    }
}

/// The ops cap for the next round: the policy's bound — except when the
/// backlog has crossed the session's re-mine break-even (§4.5 applied
/// online). Then the whole backlog travels in one round, so the
/// session's update policy routes it to a full re-mine instead of
/// grinding through FUP chunks that a single Apriori pass would beat.
fn round_cap(maintainer: &Maintainer, shared: &Shared, pending: u64) -> Option<u64> {
    if pending > 0
        && maintainer
            .policy()
            .should_remine(pending, maintainer.len() as u64)
    {
        return None;
    }
    shared.policy.max_ops_per_round
}

/// Drains everything staged in bounded rounds, stopping early if a round
/// fails (the failure outcome covers every ticket issued so far).
///
/// The flush ticket is re-read immediately before the final round. That
/// read is what makes covering sound: work staged before any covered
/// `flush` call happens-before the ticket's issuance, which
/// happens-before our read, which precedes the pending read that sized
/// the final round — so that work is either already committed by an
/// earlier chunk or inside the final round's arrival-order prefix.
fn drain_backlog(maintainer: &mut Maintainer, shared: &Shared) {
    loop {
        let ticket = shared.lock_ctl().flush_requested;
        let (pend_i, pend_d) = shared.stage_handle().pending_ops();
        let pending = pend_i + pend_d;
        let cap = round_cap(maintainer, shared, pending);
        let is_final = cap.is_none_or(|c| pending <= c);
        let hint = cap.map_or(pending, |c| pending.min(c));
        let cover = if is_final { Some(ticket) } else { None };
        if !run_round(maintainer, shared, cap, cover, hint) || is_final {
            return;
        }
    }
}

/// One bounded maintenance round: drain up to `cap` ops in arrival
/// order and apply them as one FUP/FUP2/re-mine round (inside
/// [`Maintainer::commit_bounded`]), publish
/// the snapshot, update counters. With `cover = Some(ticket)` the
/// round's outcome completes flush tickets up to `ticket`; an
/// intermediate chunk passes `None` and publishes an outcome only on
/// failure (covering every ticket issued so far, which the
/// `rounds_failed` fence makes safe). Returns whether the round
/// succeeded.
fn run_round(
    maintainer: &mut Maintainer,
    shared: &Shared,
    cap: Option<u64>,
    cover: Option<u64>,
    pending_hint: u64,
) -> bool {
    let before_len = maintainer.len() as u64;
    let start = Instant::now();
    let outcome = maintainer.commit_bounded(cap);
    let micros = start.elapsed().as_micros() as u64;
    let m = &shared.metrics;
    let result = match outcome {
        Ok(report) => {
            shared.publish(maintainer.state_arc());
            shared
                .live_len
                .store(maintainer.len() as u64, Ordering::Relaxed);
            let inserted = report.inserted_tids.len() as u64;
            let deleted = (before_len + inserted).saturating_sub(report.num_transactions);
            let round_ops = inserted + deleted;
            m.committed_rounds.fetch_add(1, Ordering::Relaxed);
            m.committed_inserts.fetch_add(inserted, Ordering::Relaxed);
            m.committed_deletes.fetch_add(deleted, Ordering::Relaxed);
            m.last_round_ops.store(round_ops, Ordering::Relaxed);
            m.max_round_ops.fetch_max(round_ops, Ordering::Relaxed);
            m.last_commit_micros.store(micros, Ordering::Relaxed);
            m.total_commit_micros.fetch_add(micros, Ordering::Relaxed);
            let index = maintainer.index_stats();
            m.index_builds.store(index.builds, Ordering::Relaxed);
            m.index_extends.store(index.extends, Ordering::Relaxed);
            {
                let mut ring = sync::lock(&shared.latencies);
                if ring.len() == LATENCY_RING {
                    ring.pop_front();
                }
                ring.push_back(micros);
            }
            *sync::lock(&shared.shard_gauges) = maintainer.shard_health();
            Ok(report)
        }
        Err(e) => {
            // The drained batch is consumed either way; account it as
            // dropped (`pending_hint` was read just before the drain, so
            // it can undercount by batches that raced in).
            m.dropped_rounds.fetch_add(1, Ordering::Relaxed);
            m.dropped_ops.fetch_add(pending_hint, Ordering::Relaxed);
            // If the round failed because durable storage is failing,
            // route the service into the matching health state so
            // producers stop feeding rounds that cannot be made durable
            // and the heal probe starts.
            match maintainer.durability_state() {
                Some(LogState::Degraded) => shared.transition(|h| h.enter(HealthState::Degraded)),
                Some(LogState::Poisoned) => shared.transition(Health::fail_terminal),
                _ => {}
            }
            Err(e)
        }
    };
    let ok = result.is_ok();
    if ok && cover.is_none() {
        // An intermediate chunk: the snapshot is published, but the
        // backlog is not drained yet — no flush ticket completes.
        return true;
    }
    let mut ctl = shared.lock_ctl();
    if let Err(e) = &result {
        ctl.rounds_failed += 1;
        ctl.last_round_error = Some(e.clone());
    }
    let covered = cover.unwrap_or(ctl.flush_requested);
    ctl.outcomes.push((covered, result));
    ctl.flush_completed = covered.max(ctl.flush_completed);
    ctl.prune_outcomes();
    shared.done_cv.notify_all();
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::UpdatePolicy;
    use fup_mining::{MinConfidence, MinSupport};
    use fup_tidb::{FlakyStorage, MemStorage, OpClass, Tid, Transaction};

    fn tx(items: &[u32]) -> Transaction {
        Transaction::from_items(items.iter().copied())
    }

    fn durable_session(storage: Arc<dyn DurableStorage>) -> Maintainer {
        Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .build_durable(
                vec![
                    tx(&[1, 2, 3]),
                    tx(&[1, 2]),
                    tx(&[2, 3]),
                    tx(&[1, 3]),
                    tx(&[4, 5]),
                ],
                storage,
            )
            .unwrap()
    }

    /// Spin until `probe` passes or the deadline expires.
    fn wait_for(what: &str, mut probe: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !probe() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn session() -> Maintainer {
        Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .build(vec![
                tx(&[1, 2, 3]),
                tx(&[1, 2]),
                tx(&[2, 3]),
                tx(&[1, 3]),
                tx(&[4, 5]),
            ])
            .unwrap()
    }

    #[test]
    fn policy_validation_rejects_degenerate_triggers() {
        assert_eq!(
            CommitPolicy::default().every_ops(0).validate().unwrap_err(),
            ServiceError::ZeroPendingTrigger
        );
        for bad in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            let err = CommitPolicy::default()
                .at_increment_ratio(bad)
                .validate()
                .unwrap_err();
            assert!(
                matches!(err, ServiceError::InvalidIncrementRatio(_)),
                "{bad}: {err:?}"
            );
        }
        assert_eq!(
            CommitPolicy::default()
                .with_poll_interval(Duration::ZERO)
                .validate()
                .unwrap_err(),
            ServiceError::ZeroPollInterval
        );
        assert_eq!(
            CommitPolicy::manual()
                .ops_per_round(0)
                .validate()
                .unwrap_err(),
            ServiceError::ZeroRoundCap
        );
        assert_eq!(
            CommitPolicy::manual()
                .staging_capacity(0)
                .validate()
                .unwrap_err(),
            ServiceError::ZeroStagingCapacity
        );
        CommitPolicy::manual().validate().unwrap();
        CommitPolicy::default().validate().unwrap();
        CommitPolicy::manual()
            .ops_per_round(512)
            .staging_capacity(4096)
            .validate()
            .unwrap();
        // launch() refuses invalid policies before spawning anything.
        let err =
            MaintainerService::launch(session(), CommitPolicy::default().every_ops(0)).unwrap_err();
        assert_eq!(err, ServiceError::ZeroPendingTrigger);
    }

    #[test]
    fn trigger_arithmetic() {
        let p = CommitPolicy::manual();
        assert!(!p.triggered(u64::MAX, 0));
        let p = CommitPolicy::manual().every_ops(10);
        assert!(!p.triggered(9, 100));
        assert!(p.triggered(10, 100));
        assert!(!p.triggered(0, 0));
        let p = CommitPolicy::manual().at_increment_ratio(0.5);
        assert!(!p.triggered(49, 100));
        assert!(p.triggered(50, 100));
        assert!(p.triggered(1, 0), "any pending on an empty store triggers");
    }

    #[test]
    fn manual_service_flushes_and_hands_session_back() {
        let service = MaintainerService::launch(session(), CommitPolicy::manual()).unwrap();
        assert_eq!(service.snapshot().version(), 0);
        service
            .stage(UpdateBatch::insert_only(vec![tx(&[4, 5]), tx(&[4, 5])]))
            .unwrap();
        service
            .stage(UpdateBatch::insert_only(vec![tx(&[4, 5, 1])]))
            .unwrap();
        assert_eq!(service.pending_ops(), (3, 0));
        // Nothing committed yet: the snapshot is still version 0.
        assert_eq!(service.snapshot().version(), 0);

        let report = service.flush().unwrap();
        assert_eq!(report.algorithm, "fup");
        assert_eq!(report.num_transactions, 8);
        assert_eq!(service.snapshot().version(), 1);
        assert_eq!(service.pending_ops(), (0, 0));

        let (maintainer, metrics) = service.shutdown();
        assert_eq!(maintainer.len(), 8);
        maintainer.verify_consistency().unwrap();
        assert_eq!(metrics.staged_batches, 2);
        assert_eq!(metrics.staged_inserts, 3);
        assert_eq!(metrics.committed_rounds, 1);
        assert_eq!(metrics.committed_inserts, 3);
        assert_eq!(metrics.dropped_rounds, 0);
        assert!(metrics.last_commit_micros > 0);
        assert_eq!(metrics.last_round_ops, 3);
        assert_eq!(metrics.max_round_ops, 3);
        assert_eq!(metrics.max_backlog_ops, 3);
        assert_eq!(metrics.backlog_ops, 0);
    }

    #[test]
    fn pending_trigger_commits_in_background() {
        let service = MaintainerService::launch(
            session(),
            CommitPolicy::manual()
                .every_ops(4)
                .with_poll_interval(Duration::from_millis(1)),
        )
        .unwrap();
        for _ in 0..4 {
            service
                .stage(UpdateBatch::insert_only(vec![tx(&[4, 5])]))
                .unwrap();
        }
        // The committer picks the work up on its own; wait for it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.metrics().committed_rounds == 0 {
            assert!(Instant::now() < deadline, "trigger never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(service.snapshot().version(), 1);
        let (maintainer, metrics) = service.shutdown();
        assert_eq!(metrics.committed_inserts, 4);
        maintainer.verify_consistency().unwrap();
    }

    #[test]
    fn shutdown_drains_staged_work() {
        let service = MaintainerService::launch(session(), CommitPolicy::manual()).unwrap();
        service
            .stage(UpdateBatch::insert_only(vec![tx(&[7, 8]), tx(&[7, 8])]))
            .unwrap();
        let (maintainer, metrics) = service.shutdown();
        assert_eq!(maintainer.len(), 7, "shutdown must drain staged batches");
        assert_eq!(metrics.committed_rounds, 1);
        maintainer.verify_consistency().unwrap();
    }

    #[test]
    fn rejected_batches_do_not_poison_the_round() {
        let service = MaintainerService::launch(session(), CommitPolicy::manual()).unwrap();
        let err = service
            .stage(UpdateBatch::delete_only(vec![Tid(999)]))
            .unwrap_err();
        assert!(matches!(err, ServiceError::Stage(Error::Store(_))));
        service
            .stage(UpdateBatch::insert_only(vec![tx(&[1, 2])]))
            .unwrap();
        let report = service.flush().unwrap();
        assert_eq!(report.num_transactions, 6);
        let (_m, metrics) = service.shutdown();
        assert_eq!(metrics.rejected_batches, 1);
        assert_eq!(metrics.staged_batches, 1);
        assert_eq!(metrics.backpressure_rejections, 0);
    }

    #[test]
    fn deletes_route_through_the_service() {
        let m = session();
        let victim = m.store().iter().next().unwrap().0;
        let service = MaintainerService::launch(m, CommitPolicy::manual()).unwrap();
        service
            .stage(UpdateBatch {
                inserts: vec![tx(&[4, 5])],
                deletes: vec![victim],
            })
            .unwrap();
        // The same tid cannot be claimed twice while staged.
        let err = service
            .stage(UpdateBatch::delete_only(vec![victim]))
            .unwrap_err();
        assert!(matches!(err, ServiceError::Stage(Error::Store(_))));
        let report = service.flush().unwrap();
        assert_eq!(report.algorithm, "fup2");
        assert_eq!(report.num_transactions, 5);
        let (maintainer, metrics) = service.shutdown();
        assert_eq!(metrics.committed_deletes, 1);
        maintainer.verify_consistency().unwrap();
    }

    #[test]
    fn stage_and_flush_fail_after_shutdown_begins() {
        let service = MaintainerService::launch(session(), CommitPolicy::manual()).unwrap();
        service.shared.stopping.store(true, Ordering::Relaxed);
        let err = service
            .stage(UpdateBatch::insert_only(vec![tx(&[1])]))
            .unwrap_err();
        assert_eq!(err, ServiceError::ShutDown);
        service.shared.ctl.lock().unwrap().stop = true;
        assert_eq!(service.flush().unwrap_err(), ServiceError::ShutDown);
    }

    #[test]
    fn a_flush_drains_an_oversized_backlog_in_bounded_rounds() {
        let service =
            MaintainerService::launch(session(), CommitPolicy::manual().ops_per_round(2)).unwrap();
        for _ in 0..7 {
            service
                .stage(UpdateBatch::insert_only(vec![tx(&[4, 5])]))
                .unwrap();
        }
        let report = service.flush().unwrap();
        assert_eq!(report.num_transactions, 12);
        assert_eq!(service.pending_ops(), (0, 0));
        let m = service.metrics();
        assert_eq!(m.committed_rounds, 4, "7 ops in rounds of ≤2 is 4 rounds");
        assert!(m.max_round_ops <= 2, "no round may exceed the cap");
        assert_eq!(m.committed_inserts, 7);
        assert_eq!(service.round_latencies().len(), 4);
        // Every intermediate chunk published: 4 rounds, 4 versions.
        assert_eq!(service.snapshot().version(), 4);
        let (maintainer, _) = service.shutdown();
        assert_eq!(maintainer.len(), 12);
        maintainer.verify_consistency().unwrap();
    }

    #[test]
    fn backlog_and_staleness_gauges_track_staged_work() {
        let service =
            MaintainerService::launch(session(), CommitPolicy::manual().ops_per_round(2)).unwrap();
        for _ in 0..5 {
            service
                .stage(UpdateBatch::insert_only(vec![tx(&[4, 5])]))
                .unwrap();
        }
        let m = service.metrics();
        assert_eq!(m.backlog_ops, 5);
        assert_eq!(m.snapshot_staleness_rounds, 3, "ceil(5 / 2) rounds behind");
        assert_eq!(m.max_backlog_ops, 5);
        service.flush().unwrap();
        let m = service.metrics();
        assert_eq!(m.backlog_ops, 0);
        assert_eq!(m.snapshot_staleness_rounds, 0);
        assert_eq!(m.max_backlog_ops, 5, "the high-water mark survives");
        let (maintainer, _) = service.shutdown();
        maintainer.verify_consistency().unwrap();
    }

    #[test]
    fn an_over_breakeven_backlog_is_routed_to_one_remine_round() {
        // 7 staged ops over 5 live transactions is a 1.4 increment ratio
        // — past this session's 0.5 re-mine break-even, so the committer
        // must hand the whole backlog to one round (ignoring the 2-op
        // cap) and let the update policy re-mine, instead of grinding
        // through four FUP chunks.
        let maintainer = Maintainer::builder()
            .min_support(MinSupport::percent(40))
            .min_confidence(MinConfidence::percent(60))
            .policy(UpdatePolicy::RemineOverRatio(0.5))
            .build(vec![
                tx(&[1, 2, 3]),
                tx(&[1, 2]),
                tx(&[2, 3]),
                tx(&[1, 3]),
                tx(&[4, 5]),
            ])
            .unwrap();
        let service =
            MaintainerService::launch(maintainer, CommitPolicy::manual().ops_per_round(2)).unwrap();
        for _ in 0..7 {
            service
                .stage(UpdateBatch::insert_only(vec![tx(&[4, 5])]))
                .unwrap();
        }
        let report = service.flush().unwrap();
        assert_eq!(report.algorithm, "apriori-remine");
        assert_eq!(report.num_transactions, 12);
        let m = service.metrics();
        assert_eq!(m.committed_rounds, 1, "the backlog travelled as one round");
        assert_eq!(m.max_round_ops, 7, "a re-mine round may exceed the cap");
        let (maintainer, _) = service.shutdown();
        maintainer.verify_consistency().unwrap();
    }

    #[test]
    fn capacity_gate_rejects_and_times_out_with_typed_errors() {
        let service =
            MaintainerService::launch(session(), CommitPolicy::manual().staging_capacity(3))
                .unwrap();
        service
            .stage(UpdateBatch::insert_only(vec![
                tx(&[4, 5]),
                tx(&[4, 5]),
                tx(&[4, 5]),
            ]))
            .unwrap();
        let err = service
            .try_stage(UpdateBatch::insert_only(vec![tx(&[4, 5])]))
            .unwrap_err();
        assert_eq!(
            err,
            ServiceError::WouldBlock {
                pending: 3,
                capacity: 3
            }
        );
        let err = service
            .stage_deadline(
                UpdateBatch::insert_only(vec![tx(&[4, 5])]),
                Instant::now() + Duration::from_millis(10),
            )
            .unwrap_err();
        assert_eq!(
            err,
            ServiceError::StageTimeout {
                pending: 3,
                capacity: 3
            }
        );
        assert_eq!(service.metrics().backpressure_rejections, 2);
        assert_eq!(service.metrics().rejected_batches, 0);
        // A flush frees the gate and the same batch is admitted.
        service.flush().unwrap();
        service
            .try_stage(UpdateBatch::insert_only(vec![tx(&[4, 5])]))
            .unwrap();
        let (maintainer, _) = service.shutdown();
        assert_eq!(maintainer.len(), 9);
        maintainer.verify_consistency().unwrap();
    }

    #[test]
    fn a_blocking_stage_rides_out_a_full_gate() {
        // every_ops(2) keeps the committer draining, so a Block-mode
        // producer at a full 2-op gate eventually gets its space.
        let service = MaintainerService::launch(
            session(),
            CommitPolicy::manual()
                .every_ops(2)
                .staging_capacity(2)
                .with_poll_interval(Duration::from_millis(1)),
        )
        .unwrap();
        for _ in 0..6 {
            service
                .stage(UpdateBatch::insert_only(vec![tx(&[4, 5]), tx(&[6, 7])]))
                .unwrap();
        }
        service.flush().unwrap();
        let (maintainer, metrics) = service.shutdown();
        assert_eq!(maintainer.len(), 17);
        assert_eq!(metrics.staged_inserts, 12);
        maintainer.verify_consistency().unwrap();
    }

    #[test]
    fn shutdown_fails_producers_parked_on_a_full_gate() {
        let service = Arc::new(
            MaintainerService::launch(session(), CommitPolicy::manual().staging_capacity(2))
                .unwrap(),
        );
        service
            .stage(UpdateBatch::insert_only(vec![tx(&[4, 5]), tx(&[6, 7])]))
            .unwrap();
        let parked = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.stage(UpdateBatch::insert_only(vec![tx(&[8, 9])])))
        };
        // Give the producer time to park on the full gate, then shut
        // down: the sleeper must fail typed instead of deadlocking the
        // shutdown drain.
        std::thread::sleep(Duration::from_millis(50));
        let shutdown = std::thread::spawn(move || {
            // The parked thread still holds its Arc clone; spin until it
            // errors out and drops it, as shutdown() needs ownership.
            let mut service = service;
            loop {
                match Arc::try_unwrap(service) {
                    Ok(service) => return service.shutdown(),
                    Err(still_shared) => {
                        // Begin shutdown through the shared handle so the
                        // sleeper actually wakes: stopping + closed gate.
                        still_shared.shared.stopping.store(true, Ordering::SeqCst);
                        still_shared
                            .shared
                            .stage_handle()
                            .staging_area()
                            .close_admissions();
                        service = still_shared;
                        std::thread::yield_now();
                    }
                }
            }
        });
        let err = parked.join().unwrap().unwrap_err();
        assert_eq!(err, ServiceError::ShutDown);
        let (maintainer, _) = shutdown.join().unwrap();
        assert_eq!(maintainer.len(), 7, "the accepted batch still commits");
        maintainer.verify_consistency().unwrap();
    }

    #[test]
    fn killing_the_committer_mid_burst_degrades_typed_not_hung() {
        let service = Arc::new(
            MaintainerService::launch(
                session(),
                CommitPolicy::manual()
                    .staging_capacity(2)
                    .with_poll_interval(Duration::from_millis(1)),
            )
            .unwrap(),
        );
        // Fill the gate, then park a Block-mode producer on it.
        service
            .stage(UpdateBatch::insert_only(vec![tx(&[4, 5]), tx(&[6, 7])]))
            .unwrap();
        let parked = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.stage(UpdateBatch::insert_only(vec![tx(&[8, 9])])))
        };
        std::thread::sleep(Duration::from_millis(20));
        // Kill the committer mid-burst. Its next wakeup (the 1 ms poll)
        // panics; this session has no durable storage, so the supervisor
        // cannot rebuild it — it must fail the parked producer, refuse
        // new work, and keep snapshots serving.
        service.debug_kill_committer();
        let err = parked.join().unwrap().unwrap_err();
        assert_eq!(err, ServiceError::CommitterGone);
        let err = service
            .try_stage(UpdateBatch::insert_only(vec![tx(&[1, 2])]))
            .unwrap_err();
        assert_eq!(err, ServiceError::CommitterGone);
        let err = service.flush().unwrap_err();
        assert_eq!(err, ServiceError::CommitterGone);
        assert_eq!(service.snapshot().version(), 0);
        assert_eq!(service.snapshot().num_transactions(), 5);
        // Dropping the service discards the dead pipeline quietly.
        drop(Arc::into_inner(service).expect("unique"));
    }

    #[test]
    fn flush_timeout_abandons_the_wait_not_the_work() {
        let service = MaintainerService::launch(session(), CommitPolicy::manual()).unwrap();
        service
            .stage(UpdateBatch::insert_only(vec![tx(&[4, 5])]))
            .unwrap();
        // A zero timeout expires before the committer can possibly cover
        // the ticket (the control lock is held from issuance to the
        // deadline check), making the timeout path deterministic.
        let err = service.flush_timeout(Duration::ZERO).unwrap_err();
        assert_eq!(err, ServiceError::FlushTimeout);
        // The staged work was not lost: a patient flush still commits it
        // (possibly via the round the abandoned ticket provoked).
        let report = service.flush().unwrap();
        assert_eq!(report.num_transactions, 6);
        let (maintainer, _) = service.shutdown();
        assert_eq!(maintainer.len(), 6);
        maintainer.verify_consistency().unwrap();
        // And a generous timeout behaves like a plain flush.
        let service = MaintainerService::launch(session(), CommitPolicy::manual()).unwrap();
        service
            .stage(UpdateBatch::insert_only(vec![tx(&[4, 5])]))
            .unwrap();
        let report = service.flush_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(report.num_transactions, 6);
        drop(service);
    }

    #[test]
    fn snapshot_cell_survives_concurrent_readers_and_stores() {
        // 6 reader threads hammer snapshot() while the committer
        // publishes a new state per flushed round, as fast as it can.
        let service = MaintainerService::launch(session(), CommitPolicy::manual()).unwrap();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..6 {
                let (service, stop) = (&service, &stop);
                scope.spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let s = service.snapshot();
                        // Versions move forward and states stay readable:
                        // every round inserted exactly one row.
                        assert!(s.version() >= last);
                        assert_eq!(s.num_transactions(), 5 + s.version());
                        last = s.version();
                    }
                });
            }
            for _ in 0..200 {
                service
                    .stage(UpdateBatch::insert_only(vec![tx(&[6, 7])]))
                    .unwrap();
                service.flush().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(service.snapshot().version(), 200);
    }

    #[test]
    fn a_heal_never_swallows_a_concurrent_degradation() {
        // Producers stage through seeded bursts of transient append
        // faults while the committer's heal probe races them. A burst of
        // 4+ outlasts the stage path's retry budget and degrades the
        // service; the probe heals it once the burst drains. The health
        // state and the admission gate change together, so however a
        // producer's degradation interleaves with a heal, the service
        // never ends up healthy with admissions closed.
        let flaky = Arc::new(FlakyStorage::new(Arc::new(MemStorage::new())));
        let service = MaintainerService::launch(
            durable_session(flaky.clone()),
            CommitPolicy::manual().with_poll_interval(Duration::from_millis(1)),
        )
        .unwrap();
        let degradations = Arc::new(AtomicU64::new(0));
        let sink = Arc::clone(&degradations);
        service.on_health_change(move |_, to| {
            if to == HealthState::Degraded {
                sink.fetch_add(1, Ordering::Relaxed);
            }
        });
        let acked = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    while !done.load(Ordering::Relaxed) {
                        match service.stage(UpdateBatch::insert_only(vec![tx(&[6, 7])])) {
                            Ok(()) => {
                                acked.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(ServiceError::Degraded) => std::thread::yield_now(),
                            Err(e) => {
                                done.store(true, Ordering::Relaxed);
                                panic!("a producer got {e:?} before shutdown began");
                            }
                        }
                    }
                });
            }
            let mut seed = 0x5EED_u64;
            for _ in 0..40 {
                seed = seed
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                flaky.fail_next(OpClass::Append, 1 + (seed >> 33) % 8);
                // The burst drains on producer stages and heal probes;
                // the next one lands at a random point after it.
                wait_for("the burst to drain", || !flaky.script_pending());
                std::thread::sleep(Duration::from_micros((seed >> 20) % 3_000));
            }
            // The faults stop; let the producers run across the last heal.
            flaky.fail_next(OpClass::Append, 0);
            std::thread::sleep(Duration::from_millis(20));
            done.store(true, Ordering::Relaxed);
        });
        assert!(
            degradations.load(Ordering::Relaxed) > 0,
            "no burst degraded"
        );
        wait_for("the last heal", || {
            service.health().state == HealthState::Healthy
        });
        // Healthy means admissions are open...
        service
            .try_stage(UpdateBatch::insert_only(vec![tx(&[6, 7])]))
            .unwrap();
        let acked = acked.into_inner() + 1;
        // ...and a final flush covers every acknowledged batch.
        let report = service.flush().unwrap();
        assert_eq!(report.num_transactions, 5 + acked);
        let (maintainer, metrics) = service.shutdown();
        assert_eq!(metrics.committed_inserts, acked);
        maintainer.verify_consistency().unwrap();
    }

    #[test]
    fn flush_outcomes_attribute_by_first_covering_round() {
        // A waiter must take the first round covering its ticket, so a
        // later round's failure is never misattributed to it (and a
        // later success never masks its own round's failure).
        let mut ctl = Ctl::default();
        let report = |v: u64| {
            let mut m = session();
            let mut r = m
                .apply(UpdateBatch::insert_only(vec![tx(&[6, 7])]))
                .unwrap();
            r.version = v;
            r
        };
        ctl.waiting.extend([2u64, 3]);
        ctl.outcomes.push((1, Ok(report(1)))); // covers ticket 1 only
        ctl.outcomes.push((2, Err(Error::DeletionsDisabled))); // covers 2
        ctl.outcomes.push((3, Ok(report(3)))); // covers 3
                                               // Ticket 2 takes the failing round 2, not the later success.
        let (covered, outcome) = ctl
            .outcomes
            .iter()
            .find(|&&(c, _)| c >= 2)
            .expect("covered");
        assert_eq!(*covered, 2);
        assert!(outcome.is_err());
        // Ticket 3 takes round 3's success.
        let (_, outcome) = ctl
            .outcomes
            .iter()
            .find(|&&(c, _)| c >= 3)
            .expect("covered");
        assert_eq!(outcome.as_ref().unwrap().version, 3);
        // Pruning keeps everything the smallest waiting ticket may need…
        ctl.prune_outcomes();
        assert_eq!(ctl.outcomes.len(), 2);
        assert_eq!(ctl.outcomes[0].0, 2);
        // …and clears the history once nobody waits.
        ctl.waiting.clear();
        ctl.prune_outcomes();
        assert!(ctl.outcomes.is_empty());
    }

    #[test]
    fn a_panicked_committer_is_restarted_on_a_durable_session() {
        let mem = Arc::new(MemStorage::new());
        let service = MaintainerService::launch(
            durable_session(mem),
            CommitPolicy::manual().with_poll_interval(Duration::from_millis(1)),
        )
        .unwrap();
        service
            .stage(UpdateBatch::insert_only(vec![tx(&[6, 7])]))
            .unwrap();
        service.flush().unwrap();

        service.debug_kill_committer();
        wait_for("the supervised restart", || {
            let h = service.health();
            h.committer_restarts == 1 && h.state == HealthState::Healthy
        });

        // The restarted committer accepts work again, and the recovery
        // path preserved everything the dead incarnation committed.
        service
            .stage(UpdateBatch::insert_only(vec![tx(&[6, 7])]))
            .unwrap();
        let report = service.flush().unwrap();
        assert_eq!(report.num_transactions, 7);
        let (maintainer, metrics) = service.shutdown();
        assert_eq!(metrics.committer_restarts, 1);
        assert_eq!(maintainer.len(), 7);
        maintainer.verify_consistency().unwrap();
    }

    #[test]
    fn committer_restarts_are_bounded_by_the_policy_budget() {
        let mem = Arc::new(MemStorage::new());
        let service = MaintainerService::launch(
            durable_session(mem),
            CommitPolicy::manual()
                .with_poll_interval(Duration::from_millis(1))
                .committer_restarts(1),
        )
        .unwrap();
        // First panic: within budget, restarted.
        service.debug_kill_committer();
        wait_for("the first restart", || {
            let h = service.health();
            h.committer_restarts == 1 && h.state == HealthState::Healthy
        });
        // Second panic: past the budget — terminal.
        service.debug_kill_committer();
        wait_for("terminal failure", || {
            service.health().state == HealthState::Failed
        });
        let err = service
            .try_stage(UpdateBatch::insert_only(vec![tx(&[1, 2])]))
            .unwrap_err();
        assert_eq!(err, ServiceError::CommitterGone);
        assert_eq!(service.flush().unwrap_err(), ServiceError::CommitterGone);
        assert_eq!(service.snapshot().num_transactions(), 5);
        assert_eq!(service.metrics().committer_restarts, 1);
        // Dropping discards the dead pipeline without re-raising.
        drop(service);
    }

    #[test]
    fn exhausted_storage_retries_degrade_the_service_with_typed_errors() {
        let mem = Arc::new(MemStorage::new());
        let flaky = Arc::new(FlakyStorage::new(mem));
        let service = MaintainerService::launch(
            durable_session(flaky.clone()),
            CommitPolicy::manual().with_poll_interval(Duration::from_millis(1)),
        )
        .unwrap();
        // More faults than any retry budget: staging degrades the
        // service and the heal probes keep failing.
        flaky.fail_next(OpClass::Append, 1_000);
        let err = service
            .stage(UpdateBatch::insert_only(vec![tx(&[6, 7])]))
            .unwrap_err();
        assert_eq!(err, ServiceError::Degraded);
        assert_ne!(service.health().state, HealthState::Healthy);
        assert_eq!(service.flush().unwrap_err(), ServiceError::Degraded);
        // Reads keep serving throughout.
        assert_eq!(service.snapshot().num_transactions(), 5);
        let metrics = service.metrics();
        assert!(metrics.transient_retries > 0, "{metrics:?}");
        // Shutdown returns even while degraded (the final drain is
        // skipped; nothing was staged).
        let (maintainer, _metrics) = service.shutdown();
        assert_eq!(maintainer.len(), 5);
    }

    #[test]
    fn a_degraded_service_heals_and_reopens_admissions() {
        let mem = Arc::new(MemStorage::new());
        let flaky = Arc::new(FlakyStorage::new(mem));
        let service = MaintainerService::launch(
            durable_session(flaky.clone()),
            CommitPolicy::manual().with_poll_interval(Duration::from_millis(1)),
        )
        .unwrap();
        // Exactly the stage path's retry budget (default 4 attempts):
        // the stage exhausts it and degrades, and the script runs dry so
        // the first heal probe succeeds.
        flaky.fail_next(OpClass::Append, 4);
        let err = service
            .stage(UpdateBatch::insert_only(vec![tx(&[6, 7])]))
            .unwrap_err();
        assert_eq!(err, ServiceError::Degraded);
        wait_for("the heal probe", || {
            service.health().state == HealthState::Healthy
        });
        // Healed: the same batch is admitted and committed durably.
        service
            .stage(UpdateBatch::insert_only(vec![tx(&[6, 7])]))
            .unwrap();
        let report = service.flush().unwrap();
        assert_eq!(report.num_transactions, 6);
        let (maintainer, metrics) = service.shutdown();
        assert_eq!(metrics.committer_restarts, 0);
        assert!(metrics.transient_retries >= 3, "{metrics:?}");
        assert_eq!(maintainer.len(), 6);
        maintainer.verify_consistency().unwrap();
    }

    #[test]
    fn health_report_renders_stable_text_and_json() {
        let service = MaintainerService::launch(session(), CommitPolicy::manual()).unwrap();
        service
            .stage(UpdateBatch::insert_only(vec![tx(&[4, 5])]))
            .unwrap();
        service.flush().unwrap();

        let report = service.health_report();
        assert_eq!(report.health, service.health());

        let text = report.to_text();
        assert!(text.starts_with("health.state: healthy\n"), "{text}");
        assert!(text.contains("health.committer_restarts: 0\n"), "{text}");
        assert!(text.contains("metrics.staged_batches: 1\n"), "{text}");
        assert!(text.contains("metrics.committed_rounds: 1\n"), "{text}");
        assert!(text.contains("metrics.backlog_ops: 0\n"), "{text}");
        assert!(text.contains("shards.0.ops: 1\n"), "{text}");
        assert!(text.contains("shards.0.backlog: 0\n"), "{text}");
        assert!(text.contains("shards.0.state: up\n"), "{text}");
        assert_eq!(text, report.to_string(), "Display is the text form");
        // Every line is `key: value` over the three fixed sections.
        for line in text.lines() {
            let (key, value) = line.split_once(": ").expect("key: value lines");
            assert!(
                key.starts_with("health.")
                    || key.starts_with("metrics.")
                    || key.starts_with("shards."),
                "{line}"
            );
            if key != "health.state" && !key.ends_with(".state") {
                value.parse::<u64>().expect("integer values");
            }
        }

        let json = report.to_json();
        assert!(
            json.starts_with("{\"health\":{\"state\":\"healthy\""),
            "{json}"
        );
        assert!(json.contains("\"metrics\":{\"staged_batches\":1"), "{json}");
        assert!(json.contains("\"committed_rounds\":1"), "{json}");
        assert!(
            json.contains("\"shards\":[{\"shard\":0,\"ops\":1,\"backlog\":0,\"state\":\"up\"}]"),
            "{json}"
        );
        assert!(json.ends_with("]}"), "{json}");
        // Balanced braces and no stray quotes — a scraper's JSON parser
        // would accept it.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn on_health_change_fires_on_real_transitions_only() {
        let mem = Arc::new(MemStorage::new());
        let flaky = Arc::new(FlakyStorage::new(mem));
        let service = MaintainerService::launch(
            durable_session(flaky.clone()),
            CommitPolicy::manual().with_poll_interval(Duration::from_millis(1)),
        )
        .unwrap();
        let seen: Arc<Mutex<Vec<(HealthState, HealthState)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        service.on_health_change(move |from, to| sink.lock().unwrap().push((from, to)));

        // Degrade (stage exhausts the retry budget), then heal. The
        // degrade fires on this producer thread and the heal on the
        // committer's probe, so only the *set* of transitions is
        // deterministic here, not their push order.
        flaky.fail_next(OpClass::Append, 4);
        let err = service
            .stage(UpdateBatch::insert_only(vec![tx(&[6, 7])]))
            .unwrap_err();
        assert_eq!(err, ServiceError::Degraded);
        wait_for("the heal probe", || {
            service.health().state == HealthState::Healthy
        });
        wait_for("both degrade transitions", || {
            seen.lock().unwrap().len() == 2
        });
        {
            let mut transitions = seen.lock().unwrap();
            transitions.sort();
            let mut expected = vec![
                (HealthState::Healthy, HealthState::Degraded),
                (HealthState::Degraded, HealthState::Healthy),
            ];
            expected.sort();
            assert_eq!(
                *transitions, expected,
                "degrade and heal each fired exactly once"
            );
            transitions.clear();
        }

        // A supervised restart: both transitions fire on the supervisor
        // thread, so their order *is* deterministic.
        service.debug_kill_committer();
        wait_for("the restart transitions", || {
            seen.lock().unwrap().len() == 2
        });
        assert_eq!(
            *seen.lock().unwrap(),
            vec![
                (HealthState::Healthy, HealthState::Restarting),
                (HealthState::Restarting, HealthState::Healthy),
            ],
            "no no-op re-entries around the restart"
        );
        assert_eq!(service.health().committer_restarts, 1);
    }

    #[test]
    fn stage_with_retry_retries_backpressure_then_sheds() {
        let service =
            MaintainerService::launch(session(), CommitPolicy::manual().staging_capacity(2))
                .unwrap();
        service
            .stage(UpdateBatch::insert_only(vec![tx(&[4, 5]), tx(&[6, 7])]))
            .unwrap();
        let retry = RetryPolicy::attempts(3).backoff(Duration::ZERO, Duration::ZERO);
        let err = service
            .stage_with_retry(UpdateBatch::insert_only(vec![tx(&[8, 9])]), retry)
            .unwrap_err();
        match err {
            ServiceError::RetriesExhausted { attempts, last } => {
                assert_eq!(attempts, 3);
                assert!(matches!(*last, ServiceError::WouldBlock { .. }), "{last}");
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        // A flush frees the gate and the same policy then succeeds.
        service.flush().unwrap();
        service
            .stage_with_retry(UpdateBatch::insert_only(vec![tx(&[8, 9])]), retry)
            .unwrap();
        // Non-retryable errors surface immediately, unwrapped.
        let err = service
            .stage_with_retry(UpdateBatch::delete_only(vec![Tid(999)]), retry)
            .unwrap_err();
        assert!(matches!(err, ServiceError::Stage(_)));
        // A zero-attempt policy is refused up front.
        let err = service
            .stage_with_retry(
                UpdateBatch::insert_only(vec![tx(&[1])]),
                RetryPolicy::attempts(0),
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::Stage(Error::Config(_))));
        drop(service);
    }

    #[test]
    fn service_error_display_names_the_problem() {
        assert!(ServiceError::ZeroPendingTrigger
            .to_string()
            .contains("manual"));
        assert!(ServiceError::InvalidIncrementRatio(-2.0)
            .to_string()
            .contains("-2"));
        assert!(ServiceError::ShutDown.to_string().contains("shut down"));
        assert!(ServiceError::ZeroRoundCap.to_string().contains("zero ops"));
        assert!(ServiceError::ZeroStagingCapacity
            .to_string()
            .contains("reject every batch"));
        let e = ServiceError::WouldBlock {
            pending: 7,
            capacity: 8,
        };
        assert!(e.to_string().contains("7/8"));
        let e = ServiceError::StageTimeout {
            pending: 9,
            capacity: 9,
        };
        assert!(e.to_string().contains("9/9"));
        assert!(ServiceError::FlushTimeout.to_string().contains("deadline"));
        assert!(ServiceError::CommitterGone.to_string().contains("panicked"));
        assert!(ServiceError::Degraded.to_string().contains("degraded"));
        assert!(ServiceError::Degraded.to_string().contains("heal"));
        let e = ServiceError::RetriesExhausted {
            attempts: 4,
            last: Box::new(ServiceError::Degraded),
        };
        assert!(e.to_string().contains("4 attempt(s)"));
        assert!(e.to_string().contains("degraded"));
        assert!(std::error::Error::source(&e).is_some());
        let e = ServiceError::Stage(Error::DeletionsDisabled);
        assert!(std::error::Error::source(&e).is_some());
    }
}
