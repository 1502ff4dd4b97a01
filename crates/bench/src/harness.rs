//! Shared measurement harness: FUP vs re-running Apriori/DHP.

use fup_core::{Fup, FupConfig, FupOutcome};
use fup_datagen::{generate_split, DbAndIncrement, GenParams};
use fup_mining::{Apriori, Dhp, LargeItemsets, MinSupport, MiningOutcome};
use fup_tidb::source::ChainSource;
use fup_tidb::TransactionDb;
use std::time::{Duration, Instant};

/// The head-to-head result at one support level — the raw material of
/// Figures 2–4.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Minimum support in basis points (75 = 0.75 %).
    pub minsup_bp: u64,
    /// FUP wall-clock time (given the old large itemsets).
    pub t_fup: Duration,
    /// Time to re-run DHP on `DB ∪ db`.
    pub t_dhp: Duration,
    /// Time to re-run Apriori on `DB ∪ db`.
    pub t_apriori: Duration,
    /// Candidates FUP counted against `DB` (summed over passes).
    pub cand_fup: u64,
    /// Candidates DHP counted (summed over passes).
    pub cand_dhp: u64,
    /// Candidates Apriori counted (summed over passes).
    pub cand_apriori: u64,
    /// `|L'|` — large itemsets in the updated database.
    pub num_large: u64,
}

impl Comparison {
    /// DHP time / FUP time — the paper's headline ratio.
    pub fn speedup_vs_dhp(&self) -> f64 {
        ratio(self.t_dhp, self.t_fup)
    }

    /// Apriori time / FUP time.
    pub fn speedup_vs_apriori(&self) -> f64 {
        ratio(self.t_apriori, self.t_fup)
    }

    /// FUP candidates / DHP candidates — the Figure 3 quantity.
    pub fn candidate_ratio_vs_dhp(&self) -> f64 {
        self.cand_fup as f64 / (self.cand_dhp.max(1)) as f64
    }

    /// FUP candidates / Apriori candidates.
    pub fn candidate_ratio_vs_apriori(&self) -> f64 {
        self.cand_fup as f64 / (self.cand_apriori.max(1)) as f64
    }
}

fn ratio(num: Duration, den: Duration) -> f64 {
    num.as_secs_f64() / den.as_secs_f64().max(1e-9)
}

/// Times a closure.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Runs the full head-to-head at one support level.
///
/// `baseline` must be the large itemsets of `db` at `minsup` (mine once
/// via [`mine_baseline`], reuse across calls).
pub fn compare(
    db: &TransactionDb,
    increment: &TransactionDb,
    baseline: &LargeItemsets,
    minsup: MinSupport,
) -> Comparison {
    // Warm-up: first touch of freshly generated pages and allocator pools
    // otherwise lands entirely on the first (FUP) measurement.
    let _ = Fup::with_config(FupConfig::full())
        .update(db, baseline, increment, minsup)
        .expect("baseline matches db");
    let (fup_out, t_fup): (FupOutcome, _) = timed(|| {
        Fup::with_config(FupConfig::full())
            .update(db, baseline, increment, minsup)
            .expect("baseline matches db")
    });
    let whole = ChainSource::new(db, increment);
    let (dhp_out, t_dhp): (MiningOutcome, _) = timed(|| Dhp::new().run(&whole, minsup));
    let (apriori_out, t_apriori): (MiningOutcome, _) = timed(|| Apriori::new().run(&whole, minsup));

    assert!(
        fup_out.large.same_itemsets(&dhp_out.large)
            && fup_out.large.same_itemsets(&apriori_out.large),
        "algorithms disagree: {:?}",
        fup_out.large.diff(&apriori_out.large)
    );

    Comparison {
        minsup_bp: (minsup.as_f64() * 10_000.0).round() as u64,
        t_fup,
        t_dhp,
        t_apriori,
        cand_fup: fup_out.stats.total_candidates_checked(),
        cand_dhp: dhp_out.stats.total_candidates_checked(),
        cand_apriori: apriori_out.stats.total_candidates_checked(),
        num_large: fup_out.large.len() as u64,
    }
}

/// Mines the FUP baseline (the "old" large itemsets over `DB`).
pub fn mine_baseline(db: &TransactionDb, minsup: MinSupport) -> LargeItemsets {
    Apriori::new().run(db, minsup).large
}

/// Generates a workload at `1/scale` of the paper's size (`scale = 1` is
/// the full paper configuration).
pub fn workload(params: GenParams, scale: u64) -> DbAndIncrement {
    generate_split(&fup_datagen::corpus::scaled(params, scale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fup_datagen::corpus;

    #[test]
    fn compare_produces_consistent_row() {
        let data = workload(corpus::t10_i4_d100_d1(), 200); // D = 500
        let minsup = MinSupport::percent(2);
        let baseline = mine_baseline(&data.db, minsup);
        let c = compare(&data.db, &data.increment, &baseline, minsup);
        assert_eq!(c.minsup_bp, 200);
        assert!(c.num_large > 0);
        assert!(c.cand_fup <= c.cand_apriori);
        assert!(c.speedup_vs_dhp() > 0.0);
        assert!(c.candidate_ratio_vs_dhp() <= 1.0);
    }

    #[test]
    fn timed_measures_something() {
        let (v, d) = timed(|| (0..10_000u64).sum::<u64>());
        assert_eq!(v, 49_995_000);
        assert!(d.as_nanos() > 0);
    }
}
