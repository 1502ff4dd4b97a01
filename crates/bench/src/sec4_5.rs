//! §4.5 — the overhead of FUP.
//!
//! Overhead = `[t(mine DB) + t(FUP)] − t(mine DB ∪ db)`, as a percentage
//! of `t(mine DB ∪ db)`, with DHP as the miner (the paper's strongest
//! baseline).
//!
//! Paper's shape: 10–15 % when the increment is much smaller than the
//! database, dropping rapidly to 5–10 % once the increment exceeds the
//! original size.

use crate::harness::timed;
use crate::table::Table;
use fup_core::Fup;
use fup_datagen::{corpus, generate_split};
use fup_mining::{Dhp, MinSupport};
use fup_tidb::source::ChainSource;
use std::time::Duration;

/// One increment-size measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Increment size in transactions (after scaling).
    pub increment: u64,
    /// `t(mine DB)` with DHP.
    pub t_mine_original: Duration,
    /// `t(FUP)` given the mined baseline.
    pub t_fup: Duration,
    /// `t(mine DB ∪ db)` with DHP.
    pub t_mine_whole: Duration,
}

impl Row {
    /// The §4.5 overhead percentage.
    pub fn overhead_pct(&self) -> f64 {
        let combined = self.t_mine_original.as_secs_f64() + self.t_fup.as_secs_f64();
        let direct = self.t_mine_whole.as_secs_f64().max(1e-9);
        (combined - direct) / direct * 100.0
    }
}

/// Increment sizes examined, in thousands (small → larger than `D`).
pub const INCREMENTS_K: [u64; 5] = [1, 10, 50, 100, 200];

/// The support used for the sweep.
pub const SUPPORT_BP: u64 = 200;

/// Runs the overhead sweep at `1/scale` of the paper's sizes.
pub fn run(scale: u64, seed: u64) -> Vec<Row> {
    let minsup = MinSupport::basis_points(SUPPORT_BP);
    INCREMENTS_K
        .iter()
        .map(|&m| {
            let params = corpus::scaled(corpus::t10_i4_d100_dm(m).with_seed(seed), scale);
            let data = generate_split(&params);
            let (baseline_out, t_mine_original) = timed(|| Dhp::new().run(&data.db, minsup));
            // FUP reuses Apriori-compatible support counts; DHP's are the
            // same numbers (both are exact).
            let (fup_out, t_fup) = timed(|| {
                Fup::new()
                    .update(&data.db, &baseline_out.large, &data.increment, minsup)
                    .expect("baseline matches db")
            });
            let whole = ChainSource::new(&data.db, &data.increment);
            let (whole_out, t_mine_whole) = timed(|| Dhp::new().run(&whole, minsup));
            assert!(fup_out.large.same_itemsets(&whole_out.large));
            Row {
                increment: data.d_increment(),
                t_mine_original,
                t_fup,
                t_mine_whole,
            }
        })
        .collect()
}

/// Renders the overhead table.
pub fn render(rows: &[Row]) -> Table {
    let mut t = Table::new([
        "increment",
        "t(mine DB)",
        "t(FUP)",
        "t(mine DB+db)",
        "overhead %",
    ]);
    for r in rows {
        t.push([
            r.increment.to_string(),
            crate::table::fmt_duration(r.t_mine_original),
            crate::table::fmt_duration(r.t_fup),
            crate::table::fmt_duration(r.t_mine_whole),
            format!("{:.1}", r.overhead_pct()),
        ]);
    }
    t
}

/// The paper's qualitative expectation.
pub const PAPER_SHAPE: &str =
    "paper: overhead 10-15% for small increments, dropping to 5-10% once \
     the increment exceeds the original database";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_rows_cover_sweep() {
        let rows = run(500, 13); // D = 200
        assert_eq!(rows.len(), INCREMENTS_K.len());
        for r in &rows {
            // Overhead is finite and the render doesn't panic.
            assert!(r.overhead_pct().is_finite());
        }
        assert_eq!(render(&rows).len(), rows.len());
    }

    #[test]
    fn overhead_formula() {
        let r = Row {
            increment: 10,
            t_mine_original: Duration::from_millis(100),
            t_fup: Duration::from_millis(20),
            t_mine_whole: Duration::from_millis(110),
        };
        // (120 − 110) / 110 ≈ 9.09 %
        assert!((r.overhead_pct() - 9.0909).abs() < 0.01);
    }
}
