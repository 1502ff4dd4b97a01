//! Figure 3 — reduction in the number of candidate sets:
//! `|C(FUP)| / |C(DHP)|` and `|C(FUP)| / |C(Apriori)|` on `T10.I4.D100.d1`.
//!
//! Paper's shape: FUP generates 2–5 % of DHP's candidates (a 95–98 %
//! reduction) and even less relative to Apriori.

use crate::harness::{compare, mine_baseline, workload, Comparison};
use crate::table::Table;
use fup_datagen::corpus;
use fup_mining::MinSupport;

/// One measured support level.
pub type Row = Comparison;

/// Runs the Figure 3 sweep at `1/scale` of the paper's database size.
pub fn run(scale: u64, seed: u64) -> Vec<Row> {
    let data = workload(corpus::t10_i4_d100_d1().with_seed(seed), scale);
    corpus::FIG2_SUPPORTS_BP
        .iter()
        .map(|&bp| {
            let minsup = MinSupport::basis_points(bp);
            let baseline = mine_baseline(&data.db, minsup);
            compare(&data.db, &data.increment, &baseline, minsup)
        })
        .collect()
}

/// Renders the candidate-count table.
pub fn render(rows: &[Row]) -> Table {
    let mut t = Table::new([
        "minsup",
        "|C| FUP",
        "|C| DHP",
        "|C| Apriori",
        "FUP/DHP",
        "FUP/Apriori",
    ]);
    for r in rows {
        t.push([
            format!("{:.2}%", r.minsup_bp as f64 / 100.0),
            r.cand_fup.to_string(),
            r.cand_dhp.to_string(),
            r.cand_apriori.to_string(),
            format!("{:.4}", r.candidate_ratio_vs_dhp()),
            format!("{:.4}", r.candidate_ratio_vs_apriori()),
        ]);
    }
    t
}

/// The paper's qualitative expectation for this figure.
pub const PAPER_SHAPE: &str =
    "paper: FUP's candidate pool is 1.5-5% of DHP's (95-98% reduction), smaller still vs Apriori";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_ratios_are_fractions_below_one() {
        let rows = run(200, 11); // D = 500
        for r in &rows {
            assert!(
                r.candidate_ratio_vs_apriori() <= 1.0,
                "minsup {}bp: ratio {}",
                r.minsup_bp,
                r.candidate_ratio_vs_apriori()
            );
        }
        // At the smallest support the reduction must be pronounced.
        let last = rows.last().unwrap();
        assert!(
            last.candidate_ratio_vs_apriori() < 0.5,
            "expected strong reduction, got {}",
            last.candidate_ratio_vs_apriori()
        );
        assert!(render(&rows).to_string().contains("FUP/DHP"));
    }

    /// The `experiments fig3 --scale 100` candidate counts, exact, at
    /// each Figure 2 support level: `(minsup_bp, |C| FUP, |C| DHP,
    /// |C| Apriori)`.
    #[test]
    fn scale_100_candidate_counts_are_pinned() {
        let got: Vec<[u64; 4]> = run(100, 1996)
            .iter()
            .map(|r| [r.minsup_bp, r.cand_fup, r.cand_dhp, r.cand_apriori])
            .collect();
        assert_eq!(
            got,
            [
                [600, 80, 940, 940],
                [400, 80, 1045, 1045],
                [200, 111, 9728, 9728],
                [100, 251, 74452, 74452],
                [75, 361, 140085, 140085],
            ]
        );
    }
}
