//! Scan-volume accounting (extension of the paper's cost argument).
//!
//! The paper explains FUP's speed through two quantities: candidate-pool
//! size (Figure 3) and the amount of data each pass reads. This experiment
//! makes the second explicit using the substrate's [`fup_tidb::ScanMetrics`]: it
//! reports transactions and items delivered from the *original sources*
//! by FUP versus a re-run of Apriori/DHP on `DB ∪ db`. (FUP's trimmed
//! working copies are internal and excluded — the original sources model
//! the on-disk data whose scans the paper counts.)

use crate::harness::workload;
use crate::table::Table;
use fup_core::Fup;
use fup_datagen::corpus;
use fup_mining::{Apriori, Dhp, MinSupport};
use fup_tidb::source::ChainSource;
use fup_tidb::{TransactionDb, TransactionSource};

/// One support level's scan volumes.
#[derive(Debug, Clone)]
pub struct Row {
    /// Minimum support in basis points.
    pub minsup_bp: u64,
    /// Transactions read from DB+db by FUP.
    pub fup_transactions: u64,
    /// Transactions read from DB+db by a DHP re-run.
    pub dhp_transactions: u64,
    /// Transactions read from DB+db by an Apriori re-run.
    pub apriori_transactions: u64,
    /// Items read from DB+db by FUP.
    pub fup_items: u64,
    /// Items read by the Apriori re-run.
    pub apriori_items: u64,
}

fn both(db: &TransactionDb, inc: &TransactionDb, f: impl FnOnce()) -> (u64, u64) {
    let b_db = db.metrics().snapshot();
    let b_inc = inc.metrics().snapshot();
    f();
    let d_db = db.metrics().snapshot().since(&b_db);
    let d_inc = inc.metrics().snapshot().since(&b_inc);
    (
        d_db.transactions_read + d_inc.transactions_read,
        d_db.items_read + d_inc.items_read,
    )
}

/// Runs the scan-volume comparison at `1/scale` of `T10.I4.D100.d1`.
///
/// The counting backend is pinned to the hash tree: this experiment
/// reports the scan volumes of the *paper's* algorithms, and the vertical
/// index deliberately changes when sources are scanned.
pub fn run(scale: u64, seed: u64) -> Vec<Row> {
    use fup_mining::apriori::AprioriConfig;
    use fup_mining::dhp::DhpConfig;
    use fup_mining::{CountingBackend, EngineConfig};
    let engine = EngineConfig::default().with_backend(CountingBackend::HashTree);
    let fup_config = fup_core::FupConfig {
        engine: engine.clone(),
        ..fup_core::FupConfig::full()
    };
    let apriori = Apriori::with_config(AprioriConfig {
        engine: engine.clone(),
        ..AprioriConfig::default()
    });
    let dhp = Dhp::with_config(DhpConfig {
        engine: engine.clone(),
        ..DhpConfig::default()
    });
    let data = workload(corpus::t10_i4_d100_d1().with_seed(seed), scale);
    corpus::FIG2_SUPPORTS_BP
        .iter()
        .map(|&bp| {
            let minsup = MinSupport::basis_points(bp);
            let baseline = apriori.run(&data.db, minsup).large;

            let (fup_transactions, fup_items) = both(&data.db, &data.increment, || {
                Fup::with_config(fup_config.clone())
                    .update(&data.db, &baseline, &data.increment, minsup)
                    .expect("baseline matches");
            });
            let (dhp_transactions, _) = both(&data.db, &data.increment, || {
                let whole = ChainSource::new(&data.db, &data.increment);
                dhp.run(&whole, minsup);
            });
            let (apriori_transactions, apriori_items) = both(&data.db, &data.increment, || {
                let whole = ChainSource::new(&data.db, &data.increment);
                apriori.run(&whole, minsup);
            });
            Row {
                minsup_bp: bp,
                fup_transactions,
                dhp_transactions,
                apriori_transactions,
                fup_items,
                apriori_items,
            }
        })
        .collect()
}

/// Renders the scan-volume table.
pub fn render(rows: &[Row]) -> Table {
    let mut t = Table::new([
        "minsup",
        "txns FUP",
        "txns DHP",
        "txns Apriori",
        "FUP/Apriori txns",
        "FUP/Apriori items",
    ]);
    for r in rows {
        t.push([
            format!("{:.2}%", r.minsup_bp as f64 / 100.0),
            r.fup_transactions.to_string(),
            r.dhp_transactions.to_string(),
            r.apriori_transactions.to_string(),
            format!(
                "{:.3}",
                r.fup_transactions as f64 / r.apriori_transactions.max(1) as f64
            ),
            format!("{:.3}", r.fup_items as f64 / r.apriori_items.max(1) as f64),
        ]);
    }
    t
}

/// Qualitative expectation.
pub const PAPER_SHAPE: &str =
    "extension: FUP reads a fraction of the transactions the re-runs read \
     (DB only while pruned candidates remain; db is small)";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fup_reads_no_more_than_baselines() {
        let rows = run(200, 29); // D = 500
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(
                r.fup_transactions <= r.apriori_transactions,
                "minsup {}bp: FUP read {} vs Apriori {}",
                r.minsup_bp,
                r.fup_transactions,
                r.apriori_transactions
            );
        }
        // At the smallest support Apriori runs many passes; FUP must read
        // strictly less.
        let last = rows.last().unwrap();
        assert!(last.fup_transactions < last.apriori_transactions);
        assert_eq!(render(&rows).len(), 5);
    }

    /// The `experiments scanvol --scale 100` volumes, exact: every FUP
    /// scan of `DB` and `db` (Reduce-DB's trimmed copies excluded), and
    /// the re-runs beside them, at each Figure 2 support level.
    #[test]
    fn scale_100_volumes_are_pinned() {
        let got: Vec<[u64; 6]> = run(100, 1996)
            .iter()
            .map(|r| {
                [
                    r.minsup_bp,
                    r.fup_transactions,
                    r.dhp_transactions,
                    r.apriori_transactions,
                    r.fup_items,
                    r.apriori_items,
                ]
            })
            .collect();
        assert_eq!(
            got,
            [
                [600, 1010, 1010, 1010, 10418, 10418],
                [400, 2020, 2020, 2020, 20836, 20836],
                [200, 2020, 2020, 3030, 20836, 31254],
                [100, 2020, 2020, 7070, 20836, 72926],
                [75, 2020, 2020, 9090, 20836, 93762],
            ]
        );
    }
}
