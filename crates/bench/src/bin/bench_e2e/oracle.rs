//! The correctness oracle: whatever a workload did, what it publishes at
//! the end must equal a from-scratch `Apriori` mine plus `generate_rules`
//! over the rows the benchmark's own [`Model`](crate::script::Model) says
//! are live — itemsets with supports, rules with counts, and the live-row
//! count. Every configuration is held to the same expectation, which is
//! also what makes the sharded, cluster, durable and recovered sessions
//! bit-identical to the flat in-memory one on the same script.

use fup_core::RuleSnapshot;
use fup_mining::apriori::AprioriConfig;
use fup_mining::rules::generate_rules;
use fup_mining::{
    Apriori, CountingBackend, EngineConfig, LargeItemsets, MinConfidence, MinSupport, RuleSet,
};
use fup_tidb::{Transaction, TransactionDb};
use std::time::{Duration, Instant};

/// What a correct session publishes for a given set of live rows.
pub struct Expected {
    pub large: LargeItemsets,
    pub rules: RuleSet,
    pub live: u64,
    /// How long the from-scratch mine took (`mining.apriori.remine_ms`).
    pub remine: Duration,
}

/// Mines `rows` from scratch on one thread with `backend`. The smoke scale
/// and the unit tests pin the hash tree, so a counting bug in the vertical
/// index cannot corrupt the sessions and the reference alike; at full
/// scale that mine costs a third of the run, and the oracle runs `Auto`
/// as the sessions do.
pub fn expect(
    rows: &[Transaction],
    minsup: MinSupport,
    minconf: MinConfidence,
    backend: CountingBackend,
) -> Expected {
    let db = TransactionDb::from_transactions(rows.iter().cloned());
    let miner = Apriori::with_config(AprioriConfig {
        engine: EngineConfig::with_threads(1).with_backend(backend),
        ..Default::default()
    });
    let start = Instant::now();
    let large = miner.run(&db, minsup).large;
    let remine = start.elapsed();
    let rules = generate_rules(&large, minconf);
    Expected {
        large,
        rules,
        live: rows.len() as u64,
        remine,
    }
}

/// Compares one published state with the expectation; returns one line
/// per mismatch (empty when identical).
pub fn mismatches(
    label: &str,
    snapshot: &RuleSnapshot,
    live: u64,
    expected: &Expected,
) -> Vec<String> {
    let mut out = Vec::new();
    if live != expected.live || snapshot.num_transactions() != expected.live {
        out.push(format!(
            "{label}: {live} live rows (snapshot says {}), the script left {}",
            snapshot.num_transactions(),
            expected.live
        ));
    }
    if !snapshot.large_itemsets().same_itemsets(&expected.large) {
        let diff = snapshot.large_itemsets().diff(&expected.large);
        out.push(format!(
            "{label}: {} itemsets/supports differ from the from-scratch mine, first: {}",
            diff.len(),
            diff.first().map_or("", String::as_str)
        ));
    }
    if snapshot.rules() != &expected.rules {
        out.push(format!(
            "{label}: {} rules published, the from-scratch mine implies {}",
            snapshot.rules().len(),
            expected.rules.len()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fup_core::Maintainer;

    fn rows() -> Vec<Transaction> {
        [&[1u32, 2, 3][..], &[1, 2], &[2, 3], &[1, 3], &[1, 2, 3]]
            .iter()
            .map(|items| Transaction::from_items(items.iter().copied()))
            .collect()
    }

    #[test]
    fn a_correct_session_matches_and_a_stale_one_does_not() {
        let (minsup, minconf) = (MinSupport::percent(40), MinConfidence::percent(50));
        let session = Maintainer::builder()
            .min_support(minsup)
            .min_confidence(minconf)
            .build(rows())
            .unwrap();
        let expected = expect(&rows(), minsup, minconf, CountingBackend::HashTree);
        assert_eq!(
            mismatches("ok", &session.snapshot(), 5, &expected),
            Vec::<String>::new()
        );

        // The same session held against rows it never saw.
        let mut more = rows();
        more.extend(rows());
        more.push(Transaction::from_items([7u32, 8]));
        let stale = mismatches(
            "stale",
            &session.snapshot(),
            5,
            &expect(&more, minsup, minconf, CountingBackend::HashTree),
        );
        assert!(stale.iter().any(|m| m.contains("live rows")), "{stale:?}");
        assert!(stale.iter().any(|m| m.contains("itemsets")), "{stale:?}");
    }
}
