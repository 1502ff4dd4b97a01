//! The Apriori algorithm (Agrawal & Srikant, VLDB 1994) — the paper's first
//! baseline: "re-run the association rule mining algorithm on the whole
//! updated database".
//!
//! Level-wise search: pass 1 counts individual items; pass `k` counts the
//! candidates produced by `apriori-gen` on `L_{k−1}` via the hash tree. One
//! full database scan per pass.

use crate::counting::ItemCounts;
use crate::engine::{self, EngineConfig};
use crate::gen::apriori_gen_flat;
use crate::itemset::{Itemset, ItemsetTable};
use crate::large::LargeItemsets;
use crate::miner::{Miner, MiningOutcome};
use crate::stats::{MiningStats, PassStats};
use crate::support::MinSupport;
use crate::vertical::{self, PassProfile, ResolvedBackend, VerticalIndex};
use fup_tidb::{ItemId, TransactionSource};
use std::time::Instant;

/// Configuration for [`Apriori`].
#[derive(Debug, Clone, Default)]
pub struct AprioriConfig {
    /// Stop after this pass even if larger itemsets might exist.
    /// `None` (default) runs until a pass finds nothing.
    pub max_k: Option<usize>,
    /// Counting-engine settings (thread count, chunk size) for every scan.
    pub engine: EngineConfig,
}

/// The Apriori miner.
#[derive(Debug, Clone, Default)]
pub struct Apriori {
    config: AprioriConfig,
}

impl Apriori {
    /// Creates a miner with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a miner with an explicit configuration.
    pub fn with_config(config: AprioriConfig) -> Self {
        Apriori { config }
    }

    /// Runs Apriori over `source`.
    pub fn run(&self, source: &dyn TransactionSource, minsup: MinSupport) -> MiningOutcome {
        self.run_with_index(source, minsup).0
    }

    /// Runs Apriori over `source`, additionally returning the
    /// [`VerticalIndex`] the run built — `Some` whenever the configured
    /// backend engaged vertical counting on any pass (always under
    /// [`CountingBackend::Vertical`](crate::CountingBackend) with
    /// candidates present, threshold-dependent under `Auto`).
    ///
    /// The index covers exactly `source` and is filtered to the mined
    /// `L₁`, so a maintenance session can seed its persistent index slot
    /// from the bootstrap mine instead of paying a second full scan.
    pub fn run_with_index(
        &self,
        source: &dyn TransactionSource,
        minsup: MinSupport,
    ) -> (MiningOutcome, Option<VerticalIndex>) {
        let start = Instant::now();
        let n = source.num_transactions();
        let mut large = LargeItemsets::new(n);
        let mut stats = MiningStats::new("apriori");

        // Pass 1: count items. The large items become the flat level
        // table L₁ (one run); their occurrence total gives the average
        // frequent-item residue backend selection weighs.
        let item_counts = ItemCounts::count_with(source, &self.config.engine);
        let mut distinct_items = 0u64;
        let mut level_rows: Vec<ItemId> = Vec::new();
        let mut freq_occurrences = 0u64;
        for (item, count) in item_counts.iter_nonzero() {
            distinct_items += 1;
            if minsup.is_large(count, n) {
                large.insert(Itemset::single(item), count);
                level_rows.push(item);
                freq_occurrences += count;
            }
        }
        stats.passes.push(PassStats {
            k: 1,
            candidates_generated: distinct_items,
            candidates_checked: distinct_items,
            large_found: level_rows.len() as u64,
        });
        let residue = freq_occurrences as f64 / n.max(1) as f64;
        let keep = vertical::item_bitmap(level_rows.iter().copied());
        let mut level = ItemsetTable::from_flat_rows(1, level_rows);

        // Pass k ≥ 2: generate flat, count through the configured
        // backend, filter into the next flat level. The vertical index is
        // built lazily at the first pass the backend resolves vertical;
        // every later pass is `indexed`, so `Auto` keeps counting through
        // it. When that pass is pass 2 the build scan counts C₂ itself
        // (every pair over L₁), so the 2-candidates are never intersected.
        let mut index: Option<VerticalIndex> = None;
        let mut k = 2;
        while !level.is_empty() && self.config.max_k.is_none_or(|m| k <= m) {
            let candidates = apriori_gen_flat(&level, &self.config.engine.gen);
            let generated = candidates.len() as u64;
            let use_vertical = !candidates.is_empty()
                && self.config.engine.backend.resolve(&PassProfile {
                    k,
                    candidates: candidates.len(),
                    transactions: n,
                    residue,
                    indexed: index.is_some(),
                }) == ResolvedBackend::Vertical;
            let counts: Vec<u64> = if use_vertical {
                // At k = 2 `level` is still L₁, one item per row.
                let pairs = if index.is_none() && k == 2 {
                    let (idx, pairs) = VerticalIndex::build_with_pairs(
                        source,
                        level.flat_items(),
                        &self.config.engine,
                    );
                    index = Some(idx);
                    pairs
                } else {
                    None
                };
                let idx = index.get_or_insert_with(|| {
                    VerticalIndex::build(source, Some(&keep), &self.config.engine)
                });
                match pairs {
                    Some(pairs) => candidates
                        .rows()
                        .map(|c| pairs.support(c[0], c[1]).expect("C₂ pairs items of L₁"))
                        .collect(),
                    None => idx.count_rows(&candidates, &self.config.engine),
                }
            } else {
                engine::count_table_with(source, &candidates, &self.config.engine)
            };
            let mut next_rows: Vec<ItemId> = Vec::new();
            let mut found = 0u64;
            for (i, &count) in counts.iter().enumerate() {
                if minsup.is_large(count, n) {
                    large.insert(candidates.row_itemset(i), count);
                    next_rows.extend_from_slice(candidates.row(i));
                    found += 1;
                }
            }
            level = ItemsetTable::from_flat_rows(k, next_rows);
            stats.passes.push(PassStats {
                k,
                candidates_generated: generated,
                candidates_checked: generated,
                large_found: found,
            });
            k += 1;
        }

        stats.elapsed = start.elapsed();
        (MiningOutcome { large, stats }, index)
    }
}

impl Miner for Apriori {
    fn name(&self) -> &'static str {
        "apriori"
    }

    fn mine(&self, source: &dyn TransactionSource, minsup: MinSupport) -> MiningOutcome {
        self.run(source, minsup)
    }
}

/// Exhaustive reference miner for tests: enumerates every subset of every
/// transaction. Exponential; only usable on tiny databases, but obviously
/// correct — the anchor of all equivalence property tests.
pub fn mine_naive(source: &dyn TransactionSource, minsup: MinSupport) -> LargeItemsets {
    use std::collections::HashMap;
    let n = source.num_transactions();
    let mut counts: HashMap<Itemset, u64> = HashMap::new();
    source.for_each(&mut |t| {
        assert!(t.len() <= 20, "mine_naive is for tiny transactions only");
        // Every non-empty subset of t.
        for mask in 1u32..(1u32 << t.len()) {
            let subset: Vec<_> = t
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &x)| x)
                .collect();
            *counts.entry(Itemset::from_sorted_vec(subset)).or_insert(0) += 1;
        }
    });
    let mut large = LargeItemsets::new(n);
    for (x, c) in counts {
        if minsup.is_large(c, n) {
            large.insert(x, c);
        }
    }
    large
}

#[cfg(test)]
mod tests {
    use super::*;
    use fup_tidb::{Transaction, TransactionDb};

    fn db(rows: &[&[u32]]) -> TransactionDb {
        TransactionDb::from_transactions(
            rows.iter()
                .map(|r| Transaction::from_items(r.iter().copied())),
        )
    }

    fn s(items: &[u32]) -> Itemset {
        Itemset::from_items(items.iter().copied())
    }

    #[test]
    fn textbook_example() {
        // AS94-style toy database, minsup 50% (count ≥ 2 of 4).
        let d = db(&[&[1, 3, 4], &[2, 3, 5], &[1, 2, 3, 5], &[2, 5]]);
        let out = Apriori::new().run(&d, MinSupport::percent(50));
        let l = &out.large;
        assert_eq!(l.support(&s(&[1])), Some(2));
        assert_eq!(l.support(&s(&[2])), Some(3));
        assert_eq!(l.support(&s(&[3])), Some(3));
        assert_eq!(l.support(&s(&[5])), Some(3));
        assert_eq!(l.support(&s(&[4])), None);
        assert_eq!(l.support(&s(&[1, 3])), Some(2));
        assert_eq!(l.support(&s(&[2, 3])), Some(2));
        assert_eq!(l.support(&s(&[2, 5])), Some(3));
        assert_eq!(l.support(&s(&[3, 5])), Some(2));
        assert_eq!(l.support(&s(&[1, 2])), None);
        assert_eq!(l.support(&s(&[2, 3, 5])), Some(2));
        assert_eq!(l.len_at(3), 1);
        assert_eq!(l.max_size(), 3);
    }

    #[test]
    fn matches_naive_reference() {
        let d = db(&[
            &[1, 2, 3],
            &[1, 2],
            &[2, 3, 4],
            &[1, 3, 4],
            &[2, 4],
            &[1, 2, 3, 4],
            &[3],
        ]);
        for pct in [10, 25, 40, 60, 100] {
            let minsup = MinSupport::percent(pct);
            let fast = Apriori::new().run(&d, minsup).large;
            let naive = mine_naive(&d, minsup);
            assert!(
                fast.same_itemsets(&naive),
                "minsup {pct}%: {:?}",
                fast.diff(&naive)
            );
        }
    }

    #[test]
    fn every_backend_mines_identical_itemsets() {
        use crate::vertical::CountingBackend;
        let d = db(&[
            &[1, 2, 3, 4],
            &[1, 2, 3],
            &[2, 3, 4],
            &[1, 3, 4],
            &[1, 2, 4],
            &[2, 4, 5],
            &[1, 5],
            &[3],
        ]);
        for pct in [15, 30, 50] {
            let minsup = MinSupport::percent(pct);
            let reference = Apriori::new().run(&d, minsup).large;
            for backend in [
                CountingBackend::HashTree,
                CountingBackend::Vertical,
                CountingBackend::Auto,
            ] {
                let config = AprioriConfig {
                    engine: EngineConfig::default().with_backend(backend),
                    ..AprioriConfig::default()
                };
                let out = Apriori::with_config(config).run(&d, minsup).large;
                assert!(
                    out.same_itemsets(&reference),
                    "{backend:?} at {pct}%: {:?}",
                    out.diff(&reference)
                );
            }
        }
    }

    /// A scaled-down Quest corpus big enough for `Auto` to engage the
    /// vertical index at pass 2 and for the search to reach k ≥ 3.
    fn quest_db() -> TransactionDb {
        use fup_datagen::{corpus, QuestGenerator};
        let params = corpus::scaled(corpus::t10_i4_d100_d1(), 20).with_seed(0x1996);
        assert_eq!(params.num_transactions, 5_000);
        QuestGenerator::new(params).generate_db(5_000)
    }

    #[test]
    fn pair_matrix_fallback_mines_identically() {
        // With the matrix bound lowered below |L₁| pass 2 falls back to
        // tid-list intersections; itemsets, per-pass accounting, scan
        // volume and the returned index must not notice.
        use crate::vertical::{with_pair_matrix_limit, CountingBackend};
        let minsup = MinSupport::percent(1);
        let run = |backend| {
            let d = quest_db();
            let (out, index) = Apriori::with_config(AprioriConfig {
                engine: EngineConfig::with_threads(1).with_backend(backend),
                ..AprioriConfig::default()
            })
            .run_with_index(&d, minsup);
            (out, index, d.metrics().snapshot())
        };
        let (reference, none, _) = run(CountingBackend::HashTree);
        assert!(none.is_none());
        assert!(
            reference.large.len_at(1) > 8,
            "L₁ must exceed the lowered bound"
        );
        assert!(reference.large.max_size() >= 3);
        for backend in [CountingBackend::Vertical, CountingBackend::Auto] {
            let (fused, fused_index, fused_scans) = run(backend);
            let (fallback, fallback_index, fallback_scans) =
                with_pair_matrix_limit(8, || run(backend));
            assert!(fused_index.is_some(), "{backend:?}");
            for out in [&fused, &fallback] {
                assert!(
                    out.large.same_itemsets(&reference.large),
                    "{backend:?}: {:?}",
                    out.large.diff(&reference.large)
                );
                assert_eq!(out.stats.passes, reference.stats.passes, "{backend:?}");
            }
            assert_eq!(fused_index, fallback_index, "{backend:?}");
            assert_eq!(fused_scans, fallback_scans, "{backend:?}");
        }
    }

    #[test]
    fn one_scan_per_pass() {
        let d = db(&[&[1, 2], &[1, 2], &[1, 2]]);
        let out = Apriori::new().run(&d, MinSupport::percent(100));
        // L1={1,2}, L2={12}, pass 3 generates no candidates (skipped scan).
        assert_eq!(out.stats.num_passes(), 3);
        // Pass 1 + pass 2 scan; pass 3 has empty C3 so no scan.
        assert_eq!(d.metrics().full_scans(), 2);
    }

    #[test]
    fn empty_database() {
        let d = db(&[]);
        let out = Apriori::new().run(&d, MinSupport::percent(10));
        assert!(out.large.is_empty());
        assert_eq!(out.stats.num_passes(), 1);
    }

    #[test]
    fn max_k_truncates_search() {
        let d = db(&[&[1, 2, 3], &[1, 2, 3]]);
        let out = Apriori::with_config(AprioriConfig {
            max_k: Some(2),
            ..AprioriConfig::default()
        })
        .run(&d, MinSupport::percent(100));
        assert_eq!(out.large.max_size(), 2);
        assert_eq!(out.large.len_at(2), 3);
    }

    #[test]
    fn zero_minsup_includes_everything_seen() {
        let d = db(&[&[1], &[2]]);
        let out = Apriori::new().run(&d, MinSupport::ratio(0, 1));
        // Both 1-itemsets large; {1,2} has support 0 and is still "large"
        // under a zero threshold — but it is never generated because
        // apriori-gen only joins, and counting finds support 0 which
        // satisfies s=0. It IS included.
        assert!(out.large.contains(&s(&[1])));
        assert!(out.large.contains(&s(&[2])));
        assert_eq!(out.large.support(&s(&[1, 2])), Some(0));
    }

    #[test]
    fn stats_track_candidates() {
        let d = db(&[&[1, 2], &[1, 2], &[3, 4]]);
        let out = Apriori::new().run(&d, MinSupport::percent(60));
        let p1 = &out.stats.passes[0];
        assert_eq!(p1.k, 1);
        assert_eq!(p1.candidates_generated, 4);
        assert_eq!(p1.large_found, 2); // items 1, 2
        let p2 = &out.stats.passes[1];
        assert_eq!(p2.candidates_generated, 1); // {1,2}
        assert_eq!(p2.large_found, 1);
    }
}
