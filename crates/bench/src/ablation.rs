//! Ablation study (not in the paper): how much each of FUP's design
//! choices contributes. The round loop has three separable mechanisms —
//! Lemma-2/5 candidate pruning (inherent, cannot be disabled), the
//! `Reduce-db`/`Reduce-DB` trimming, and the DHP pair-hash filter for
//! `C₂` — and [`FupConfig`] switches the latter two, so the ablation
//! toggles those.

use crate::harness::{mine_baseline, timed, workload};
use crate::table::{fmt_duration, Table};
use fup_core::{Fup, FupConfig};
use fup_datagen::corpus;
use fup_mining::MinSupport;
use std::time::Duration;

/// One configuration measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Configuration label.
    pub label: &'static str,
    /// FUP wall-clock time under this configuration.
    pub t_fup: Duration,
    /// Candidates counted against `DB`.
    pub candidates_checked: u64,
    /// Size-2 candidates counted in the increment (hash-filter target).
    pub c2_after_hash: u64,
}

/// The configurations compared.
pub fn configurations() -> Vec<(&'static str, FupConfig)> {
    vec![
        ("full", FupConfig::full()),
        (
            "no-reduce",
            FupConfig {
                reduce_db: false,
                ..FupConfig::full()
            },
        ),
        (
            "no-hash",
            FupConfig {
                dhp_hash: false,
                ..FupConfig::full()
            },
        ),
        ("bare", FupConfig::bare()),
    ]
}

/// Runs every configuration on the `T10.I4.D100.d10` workload at
/// `1/scale`, support 1 %.
pub fn run(scale: u64, seed: u64) -> Vec<Row> {
    let data = workload(corpus::t10_i4_d100_dm(10).with_seed(seed), scale);
    let minsup = MinSupport::percent(1);
    let baseline = mine_baseline(&data.db, minsup);
    configurations()
        .into_iter()
        .map(|(label, config)| {
            let (out, t_fup) = timed(|| {
                Fup::with_config(config)
                    .update(&data.db, &baseline, &data.increment, minsup)
                    .expect("baseline matches db")
            });
            let c2_after_hash = out
                .detail
                .iter()
                .find(|d| d.k == 2)
                .map(|d| d.candidates_after_hash)
                .unwrap_or(0);
            Row {
                label,
                t_fup,
                candidates_checked: out.stats.total_candidates_checked(),
                c2_after_hash,
            }
        })
        .collect()
}

/// Renders the ablation table.
pub fn render(rows: &[Row]) -> Table {
    let mut t = Table::new(["config", "t_FUP", "|C| checked", "|C2| after hash"]);
    for r in rows {
        t.push([
            r.label.to_string(),
            fmt_duration(r.t_fup),
            r.candidates_checked.to_string(),
            r.c2_after_hash.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_configurations_run_and_agree_on_structure() {
        let rows = run(500, 23); // D = 200
        assert_eq!(rows.len(), 4);
        let labels: Vec<_> = rows.iter().map(|r| r.label).collect();
        assert_eq!(labels, vec!["full", "no-reduce", "no-hash", "bare"]);
        // The DB-checked candidate pool is identical across configs:
        // trimming and hashing change *where* time goes, Lemma-2/5 pruning
        // determines the pool.
        let full = rows[0].candidates_checked;
        let no_reduce = rows[1].candidates_checked;
        assert_eq!(full, no_reduce);
        // Hash filter can only help (thin or equal C2 pools).
        let no_hash = rows.iter().find(|r| r.label == "no-hash").unwrap();
        assert!(rows[0].c2_after_hash <= no_hash.c2_after_hash);
        assert_eq!(render(&rows).len(), 4);
    }
}
