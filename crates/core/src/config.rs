//! FUP configuration knobs — each corresponds to an optimisation the paper
//! describes, so ablation benches can switch them off individually — plus
//! the counting-engine settings (worker threads, chunk size) every scan
//! routes through.

pub use fup_mining::engine::EngineConfig;

/// Configuration for [`Fup`](crate::Fup) and [`Fup2`](crate::Fup2).
#[derive(Debug, Clone)]
pub struct FupConfig {
    /// Apply the `Reduce-db` / `Reduce-DB` transaction trimming and the
    /// P-set item removal of §3.4. Disabling re-scans the original
    /// sources every iteration.
    pub reduce_db: bool,
    /// Integrate DHP's direct hashing over the increment to thin the
    /// size-2 candidate set before it is ever counted (§3.4, last
    /// paragraph). The bucket count adapts to the increment's size, up
    /// to a fixed cap.
    pub dhp_hash: bool,
    /// Stop after this iteration. `None` runs until no itemsets remain.
    pub max_k: Option<usize>,
    /// Counting-engine settings for every scan: `threads` defaults to the
    /// machine's available parallelism; `threads = 1` reproduces the
    /// historical serial scans (and their `ScanMetrics` charges) exactly.
    /// `engine.gen` controls the `apriori-gen` join+prune worker count the
    /// same way (candidate output is byte-identical at every setting).
    /// `engine.backend` picks the support-counting strategy
    /// ([`CountingBackend`](fup_mining::CountingBackend)): under
    /// `Vertical` (or `Auto` past its thresholds) FUP builds the old-DB
    /// tid-lists once, extends them with the increment's delta scan, and
    /// answers every later pass by split intersections — results are
    /// bit-identical to the hash-tree scans, only the scan schedule
    /// changes.
    pub engine: EngineConfig,
}

impl Default for FupConfig {
    fn default() -> Self {
        FupConfig {
            reduce_db: true,
            dhp_hash: true,
            max_k: None,
            engine: EngineConfig::default(),
        }
    }
}

impl FupConfig {
    /// The paper's full configuration (all optimisations on).
    pub fn full() -> Self {
        Self::default()
    }

    /// A bare configuration with every optional optimisation off — the
    /// ablation baseline (lemma-based pruning alone, which is FUP's core
    /// and cannot be disabled). The counting engine stays at its default;
    /// parallelism is orthogonal to the paper's optimisations.
    pub fn bare() -> Self {
        FupConfig {
            reduce_db: false,
            dhp_hash: false,
            max_k: None,
            engine: EngineConfig::default(),
        }
    }

    /// This configuration with an explicit engine thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.engine.threads = threads;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_all_paper_optimisations() {
        let c = FupConfig::default();
        assert!(c.reduce_db);
        assert!(c.dhp_hash);
        assert_eq!(c.max_k, None);
    }

    #[test]
    fn bare_disables_optional_parts() {
        let c = FupConfig::bare();
        assert!(!c.reduce_db);
        assert!(!c.dhp_hash);
    }
}
