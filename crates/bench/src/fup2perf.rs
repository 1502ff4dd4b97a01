//! FUP2 performance across deletion fractions (extension).
//!
//! The paper's §5 reports that deletions and modifications "have been
//! investigated" but gives no numbers. This experiment fills that gap in
//! the same style as Figure 2: a `T10.I4` database takes an update that
//! deletes a fraction of its transactions and inserts an increment of the
//! same size; FUP2 is timed against re-running Apriori and DHP on the
//! updated database.

use crate::harness::timed;
use crate::table::{fmt_duration, Table};
use fup_core::Fup2;
use fup_datagen::{corpus, generate_split};
use fup_mining::{Apriori, Dhp, MinSupport};
use fup_tidb::source::ChainSource;
use fup_tidb::{SegmentedDb, Tid, UpdateBatch};
use std::time::Duration;

/// One deletion-fraction measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Transactions deleted (= transactions inserted).
    pub churn: u64,
    /// Fraction of the database deleted.
    pub delete_fraction: f64,
    /// FUP2 wall-clock time.
    pub t_fup2: Duration,
    /// DHP re-run on the updated database.
    pub t_dhp: Duration,
    /// Apriori re-run on the updated database.
    pub t_apriori: Duration,
}

impl Row {
    /// DHP time / FUP2 time.
    pub fn speedup_vs_dhp(&self) -> f64 {
        self.t_dhp.as_secs_f64() / self.t_fup2.as_secs_f64().max(1e-9)
    }

    /// Apriori time / FUP2 time.
    pub fn speedup_vs_apriori(&self) -> f64 {
        self.t_apriori.as_secs_f64() / self.t_fup2.as_secs_f64().max(1e-9)
    }
}

/// Deletion fractions examined.
pub const FRACTIONS: [f64; 4] = [0.01, 0.05, 0.10, 0.25];

/// The support used.
pub const SUPPORT_BP: u64 = 200;

/// Runs the sweep at `1/scale` of `T10.I4.D100` with churn = fraction × D.
pub fn run(scale: u64, seed: u64) -> Vec<Row> {
    let minsup = MinSupport::basis_points(SUPPORT_BP);
    FRACTIONS
        .iter()
        .map(|&frac| {
            // Generate D + churn transactions from one stream: the first D
            // become the database, the rest the insert side.
            let d = 100_000 / scale;
            let churn = ((d as f64) * frac).round() as u64;
            let params = corpus::t10_i4_d100_d1()
                .with_seed(seed)
                .with_increment(churn);
            let params = fup_datagen::GenParams {
                num_transactions: d,
                ..params
            };
            let data = generate_split(&params);

            let mut store = SegmentedDb::from_transactions(data.db.raw().to_vec());
            let baseline = Apriori::new().run(&store, minsup).large;
            // Delete every k-th transaction (spread churn across the DB).
            let victims: Vec<Tid> = store
                .iter()
                .map(|(tid, _)| tid)
                .step_by((d / churn.max(1)).max(1) as usize)
                .take(churn as usize)
                .collect();
            let staged = store
                .stage(UpdateBatch {
                    inserts: data.increment.raw().to_vec(),
                    deletes: victims,
                })
                .expect("valid tids");

            let (out, t_fup2) = timed(|| {
                Fup2::new()
                    .update(
                        &store,
                        &baseline,
                        staged.deleted(),
                        staged.inserted(),
                        minsup,
                    )
                    .expect("baseline matches")
            });
            let whole = ChainSource::new(&store, staged.inserted());
            let (dhp_out, t_dhp) = timed(|| Dhp::new().run(&whole, minsup));
            let (apriori_out, t_apriori) = timed(|| Apriori::new().run(&whole, minsup));
            assert!(out.large.same_itemsets(&dhp_out.large));
            assert!(out.large.same_itemsets(&apriori_out.large));

            Row {
                churn,
                delete_fraction: frac,
                t_fup2,
                t_dhp,
                t_apriori,
            }
        })
        .collect()
}

/// Renders the sweep.
pub fn render(rows: &[Row]) -> Table {
    let mut t = Table::new([
        "deleted%",
        "churn",
        "t_FUP2",
        "t_DHP",
        "t_Apriori",
        "DHP/FUP2",
        "Apriori/FUP2",
    ]);
    for r in rows {
        t.push([
            format!("{:.0}%", r.delete_fraction * 100.0),
            r.churn.to_string(),
            fmt_duration(r.t_fup2),
            fmt_duration(r.t_dhp),
            fmt_duration(r.t_apriori),
            format!("{:.2}", r.speedup_vs_dhp()),
            format!("{:.2}", r.speedup_vs_apriori()),
        ]);
    }
    t
}

/// Qualitative expectation.
pub const PAPER_SHAPE: &str = "extension (§5 gives no numbers): FUP2 should beat re-mining across \
     moderate churn, with the gain shrinking as churn grows";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_and_is_consistent() {
        let rows = run(200, 31); // D = 500
        assert_eq!(rows.len(), FRACTIONS.len());
        for r in &rows {
            assert!(r.churn > 0);
            assert!(r.speedup_vs_dhp() > 0.0);
        }
        assert_eq!(render(&rows).len(), rows.len());
    }
}
