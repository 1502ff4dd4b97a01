//! Error types for incremental maintenance.

use std::fmt;

/// A configuration the [`MaintainerBuilder`](crate::MaintainerBuilder)
/// (or [`Maintainer::set_policy`](crate::Maintainer::set_policy)) refuses
/// to accept — each variant is a combination that would previously
/// surface as a runtime panic, a silent misconfiguration, or a
/// consistency violation several rounds later.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BuildError {
    /// No minimum support threshold was supplied.
    MissingMinSupport,
    /// No minimum confidence threshold was supplied.
    MissingMinConfidence,
    /// A chunk size of zero was requested; scans need at least one
    /// transaction per chunk.
    ZeroChunkSize,
    /// `max_k` was capped at zero, which would mine nothing at all.
    ZeroMaxK,
    /// A [`RemineOverRatio`](crate::UpdatePolicy::RemineOverRatio) policy
    /// carried a negative or NaN ratio.
    InvalidRemineRatio(f64),
    /// A [`DurabilityPolicy`](crate::DurabilityPolicy) asked for a
    /// checkpoint every zero rounds, which would checkpoint before any
    /// round could run.
    ZeroCheckpointInterval,
    /// A [`DurabilityPolicy`](crate::DurabilityPolicy) asked to retain
    /// zero checkpoints, leaving recovery nothing to start from.
    ZeroRetainedCheckpoints,
    /// A [`DurabilityPolicy`](crate::DurabilityPolicy) asked to group
    /// WAL fsyncs in batches of zero records, which would never sync.
    ZeroFlushOps,
    /// A [`RetryPolicy`](crate::RetryPolicy) allowed zero attempts, which
    /// could never even try the operation once.
    ZeroRetryAttempts,
    /// A [`RetryPolicy`](crate::RetryPolicy) base backoff exceeds its
    /// maximum backoff — the cap would *shorten* the first delay, which
    /// is almost certainly a misconfiguration.
    InvertedRetryBackoff,
    /// A [`ShardSpec`](fup_tidb::ShardSpec) whose routing function is not
    /// total — zero shards, a zero stripe, or an explicit range list that
    /// overlaps, gaps, starts past tid 0, or ends bounded. Carries the
    /// substrate's diagnosis of the exact defect.
    InvalidShardSpec(fup_tidb::SpecError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::MissingMinSupport => write!(f, "no minimum support configured"),
            BuildError::MissingMinConfidence => write!(f, "no minimum confidence configured"),
            BuildError::ZeroChunkSize => write!(f, "chunk size must be at least 1"),
            BuildError::ZeroMaxK => write!(f, "max_k of 0 would mine nothing"),
            BuildError::InvalidRemineRatio(r) => {
                write!(f, "re-mine ratio {r} is not a non-negative number")
            }
            BuildError::ZeroCheckpointInterval => {
                write!(f, "a checkpoint interval of zero rounds is not runnable")
            }
            BuildError::ZeroRetainedCheckpoints => write!(
                f,
                "retaining zero checkpoints would leave recovery nothing to start from"
            ),
            BuildError::ZeroFlushOps => write!(
                f,
                "a group-commit batch of zero records would never issue a sync barrier"
            ),
            BuildError::ZeroRetryAttempts => write!(
                f,
                "a retry policy must allow at least one attempt; use RetryPolicy::none() \
                 to disable retries"
            ),
            BuildError::InvertedRetryBackoff => write!(
                f,
                "retry base backoff exceeds the maximum backoff; the cap would shorten \
                 the first delay"
            ),
            BuildError::InvalidShardSpec(e) => write!(f, "invalid shard spec: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Errors produced by FUP/FUP2 and the maintenance layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The supplied `LargeItemsets` baseline was mined over a database of a
    /// different size than the `DB` being updated — its support counts
    /// cannot be reused.
    StaleBaseline {
        /// `D` recorded in the baseline.
        baseline: u64,
        /// Number of transactions in the database handed to FUP.
        database: u64,
    },
    /// An update referenced transactions that do not exist (wraps the
    /// substrate error).
    Store(fup_tidb::Error),
    /// A configuration rejected by the builder or by
    /// [`set_policy`](crate::Maintainer::set_policy).
    Config(BuildError),
    /// A batch with deletions was staged on a session built with
    /// `deletions(false)` (an insert-only workload declaration).
    DeletionsDisabled,
    /// The maintained state disagrees with a from-scratch one — returned
    /// by [`verify_consistency`](crate::Maintainer::verify_consistency)
    /// with one human-readable line per divergence.
    Inconsistent {
        /// One line per diverging itemset, or held-index item or size.
        differences: Vec<String>,
    },
    /// Recovery from durable storage could not proceed: no usable
    /// checkpoint, a log inconsistent with the checkpoint, or a
    /// configuration that does not match the checkpointed session.
    Recovery {
        /// Human-readable description of what blocked recovery.
        reason: String,
    },
    /// A durability-only operation (an explicit checkpoint) was invoked
    /// on a session built without durable storage.
    NotDurable,
    /// The durable log is in the *degraded* state: a transient storage
    /// fault survived its retry budget, so new work cannot be made
    /// durable right now. Unlike a poisoned log this is recoverable —
    /// the background probe (or an explicit
    /// [`try_heal`](crate::Maintainer::try_heal)) re-checks storage and
    /// resumes durability once it answers again. Already-acknowledged
    /// commits and staged records are unaffected; snapshots keep
    /// serving.
    DurabilityDegraded,
    /// A bounded retry loop (see
    /// [`StageHandle::stage_with_retry`](crate::StageHandle::stage_with_retry))
    /// exhausted its attempts. Carries the final error so callers can
    /// still distinguish backpressure from degradation when deciding to
    /// shed.
    RetriesExhausted {
        /// Attempts made before giving up (at least 1).
        attempts: u32,
        /// The error the final attempt failed with.
        last: Box<Error>,
    },
    /// A cluster shard worker is unreachable (killed, crashed, or
    /// refusing the round). Commit rounds cannot run until it rejoins —
    /// staged work stays in the coordinator's bounded backlog and
    /// published snapshots keep serving.
    WorkerDown {
        /// The unreachable shard.
        shard: usize,
        /// What the worker (or its transport) last reported.
        reason: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::StaleBaseline { baseline, database } => write!(
                f,
                "baseline was mined over {baseline} transactions but the database holds {database}; \
                 re-mine or replay the missing updates"
            ),
            Error::Store(e) => write!(f, "store error: {e}"),
            Error::Config(e) => write!(f, "configuration error: {e}"),
            Error::DeletionsDisabled => write!(
                f,
                "this session was built for an insert-only workload (deletions(false)); \
                 rebuild the maintainer to accept deletions"
            ),
            Error::Inconsistent { differences } => write!(
                f,
                "maintained state diverges from a full re-mine in {} place(s): {}",
                differences.len(),
                differences.join("; ")
            ),
            Error::Recovery { reason } => write!(f, "recovery failed: {reason}"),
            Error::NotDurable => write!(
                f,
                "this session has no durable storage; build it with build_durable() or recover()"
            ),
            Error::DurabilityDegraded => write!(
                f,
                "durable storage is degraded after exhausting transient-fault retries; \
                 staged work is refused until a heal probe restores durability"
            ),
            Error::RetriesExhausted { attempts, last } => write!(
                f,
                "gave up after {attempts} attempt(s); last error: {last}"
            ),
            Error::WorkerDown { shard, reason } => write!(
                f,
                "cluster shard worker {shard} is unreachable ({reason}); \
                 staged work is held until it rejoins"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Store(e) => Some(e),
            Error::Config(e) => Some(e),
            Error::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<fup_tidb::Error> for Error {
    fn from(e: fup_tidb::Error) -> Self {
        Error::Store(e)
    }
}

impl From<BuildError> for Error {
    fn from(e: BuildError) -> Self {
        Error::Config(e)
    }
}

/// Result alias for maintenance operations.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_actionable() {
        let e = Error::StaleBaseline {
            baseline: 100,
            database: 120,
        };
        let msg = e.to_string();
        assert!(msg.contains("100"));
        assert!(msg.contains("120"));
        assert!(msg.contains("re-mine"));
    }

    #[test]
    fn store_errors_convert_and_chain() {
        let inner = fup_tidb::Error::UnknownTransaction(fup_tidb::Tid(7));
        let e: Error = inner.clone().into();
        assert_eq!(e, Error::Store(inner));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn build_errors_convert_and_chain() {
        let e: Error = BuildError::ZeroChunkSize.into();
        assert_eq!(e, Error::Config(BuildError::ZeroChunkSize));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("chunk"));
    }

    #[test]
    fn inconsistency_lists_differences() {
        let e = Error::Inconsistent {
            differences: vec!["missing {1,2}".into(), "support of {3} drifted".into()],
        };
        let msg = e.to_string();
        assert!(msg.contains("2 place(s)"));
        assert!(msg.contains("missing {1,2}"));
    }

    #[test]
    fn build_error_messages_name_the_fix() {
        assert!(BuildError::InvalidRemineRatio(-1.0)
            .to_string()
            .contains("-1"));
        assert!(BuildError::ZeroMaxK.to_string().contains("max_k"));
        assert!(BuildError::ZeroRetryAttempts
            .to_string()
            .contains("RetryPolicy::none"));
        assert!(BuildError::InvertedRetryBackoff
            .to_string()
            .contains("backoff"));
        assert!(BuildError::InvalidShardSpec(fup_tidb::SpecError::NoShards)
            .to_string()
            .contains("zero shards"));
    }

    #[test]
    fn degraded_and_retry_errors_explain_themselves() {
        let msg = Error::DurabilityDegraded.to_string();
        assert!(msg.contains("degraded"));
        assert!(msg.contains("heal"));

        let e = Error::RetriesExhausted {
            attempts: 5,
            last: Box::new(Error::DurabilityDegraded),
        };
        assert!(e.to_string().contains("5 attempt(s)"));
        assert!(e.to_string().contains("degraded"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
