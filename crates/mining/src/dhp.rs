//! DHP — Direct Hashing and Pruning (Park, Chen & Yu, SIGMOD 1995) — the
//! paper's second, stronger baseline.
//!
//! Two ideas on top of Apriori:
//!
//! 1. **Direct hashing** — while counting items in pass 1, every 2-subset
//!    of every transaction is hashed into a bucket table. A pair can only
//!    be large if its bucket total reaches the support threshold, so `C₂`
//!    (by far the largest candidate pool) shrinks before it is ever
//!    counted. Following the FUP paper's §4.2, hashing is applied to the
//!    size-2 candidates only.
//! 2. **Transaction trimming** — during the pass-`k` count, an item can
//!    belong to a large (k+1)-itemset only if it occurs in at least `k` of
//!    the matched candidates; other items (and transactions left with ≤ k
//!    items) are dropped from the working copy scanned by later passes.

use crate::engine::{self, ChunkedCollector, EngineConfig};
use crate::gen::apriori_gen_flat;
use crate::hashtree::HashTree;
use crate::itemset::{Itemset, ItemsetTable};
use crate::large::LargeItemsets;
use crate::miner::{Miner, MiningOutcome};
use crate::stats::{MiningStats, PassStats};
use crate::support::MinSupport;
use crate::vertical::{self, PassProfile, ResolvedBackend, VerticalIndex};
use fup_tidb::{ItemId, Transaction, TransactionDb, TransactionSource};
use std::collections::HashMap;
use std::time::Instant;

/// Configuration for [`Dhp`].
#[derive(Debug, Clone)]
pub struct DhpConfig {
    /// Buckets in the pass-1 pair hash table. The default follows the FUP
    /// paper's §4.2: "In our implementation of the DHP, a hash table of
    /// size 100 is used, and hashing is only used in the generation of the
    /// size-2 candidate sets." A table this small filters little on large
    /// databases; use [`DhpConfig::with_large_table`] for a
    /// proportionally-sized table as in the original DHP paper.
    pub hash_buckets: usize,
    /// Enable transaction trimming (working-copy reduction) from pass 2 on.
    pub trim: bool,
    /// Stop after this pass. `None` runs to exhaustion.
    pub max_k: Option<usize>,
    /// Counting-engine settings (thread count, chunk size) for every scan.
    pub engine: EngineConfig,
}

impl Default for DhpConfig {
    fn default() -> Self {
        DhpConfig {
            hash_buckets: 100,
            trim: true,
            max_k: None,
            engine: EngineConfig::default(),
        }
    }
}

impl DhpConfig {
    /// A configuration with a large (2²⁰-bucket) hash table, matching the
    /// original DHP paper's data-proportional sizing rather than the FUP
    /// paper's size-100 policy.
    pub fn with_large_table() -> Self {
        DhpConfig {
            hash_buckets: 1 << 20,
            ..DhpConfig::default()
        }
    }
}

/// The DHP miner.
#[derive(Debug, Clone, Default)]
pub struct Dhp {
    config: DhpConfig,
}

/// Deterministic pair-bucket hash (order-sensitive inputs must be given as
/// `x < y`).
use engine::pair_bucket;

impl Dhp {
    /// Creates a miner with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a miner with an explicit configuration.
    pub fn with_config(config: DhpConfig) -> Self {
        Dhp { config }
    }

    /// Runs DHP over `source`.
    pub fn run(&self, source: &dyn TransactionSource, minsup: MinSupport) -> MiningOutcome {
        let start = Instant::now();
        let n = source.num_transactions();
        let threshold = minsup.required_count(n);
        let mut large = LargeItemsets::new(n);
        let mut stats = MiningStats::new("dhp");

        // ---- Pass 1: count items AND hash all pairs into buckets, in
        // one engine pass (per-worker tables summed afterwards). ----
        let nbuckets = self.config.hash_buckets.max(1);
        let (item_counts, buckets) =
            engine::count_items_and_pairs(source, nbuckets, &self.config.engine);

        let mut distinct_items = 0u64;
        let mut level_rows: Vec<ItemId> = Vec::new();
        let mut freq_occurrences = 0u64;
        for (i, &count) in item_counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            distinct_items += 1;
            if minsup.is_large(count, n) {
                let item = ItemId(i as u32);
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

        // ---- Pass 2: C₂ = apriori-gen(L₁) filtered by bucket counts. ----
        let mut working: Option<TransactionDb> = None;
        let mut index: Option<VerticalIndex> = None;
        let mut k = 2;
        while !level.is_empty() && self.config.max_k.is_none_or(|m| k <= m) {
            let mut candidates = apriori_gen_flat(&level, &self.config.engine.gen);
            let generated = candidates.len() as u64;
            if k == 2 {
                candidates
                    .retain_rows(|row| buckets[pair_bucket(row[0], row[1], nbuckets)] >= threshold);
            }
            let checked = candidates.len() as u64;
            if candidates.is_empty() {
                stats.passes.push(PassStats {
                    k,
                    candidates_generated: generated,
                    candidates_checked: 0,
                    large_found: 0,
                });
                break;
            }

            // Backend choice (an index built at an earlier pass makes this
            // one `indexed`). The vertical index is built over the
            // *original* source — it holds exact supports, so trimming has
            // nothing left to save and the working copy is simply not
            // consulted from then on.
            let use_vertical = self.config.engine.backend.resolve(&PassProfile {
                k,
                candidates: candidates.len(),
                transactions: n,
                residue,
                indexed: index.is_some(),
            }) == ResolvedBackend::Vertical;
            let counts: Vec<u64> = if use_vertical {
                let idx = index.get_or_insert_with(|| {
                    VerticalIndex::build(source, Some(&keep), &self.config.engine)
                });
                // The trimmed working copy is never consulted again.
                working = None;
                idx.count_rows(&candidates, &self.config.engine)
            } else {
                let mut tree = HashTree::build_from_rows(candidates.k(), candidates.flat_items());
                let src: &dyn TransactionSource = match &working {
                    Some(w) => w,
                    None => source,
                };
                // Count (and optionally trim) through the engine:
                // per-worker tree scratches merge into the tree, per-chunk
                // kept transactions concatenate in chunk order so the
                // working copy is deterministic regardless of scheduling.
                let trim = self.config.trim;
                let view = tree.view();
                let folds = engine::scan_fold(
                    src,
                    &self.config.engine,
                    || (tree.new_scratch(), ChunkedCollector::new()),
                    |(scratch, kept), chunk, t| {
                        if !trim {
                            view.count(t, scratch);
                            return;
                        }
                        let mut item_hits: HashMap<ItemId, usize> = HashMap::new();
                        let mut matched: Vec<usize> = Vec::new();
                        view.count_with(t, scratch, &mut |idx| matched.push(idx));
                        for idx in matched {
                            for &item in view.candidate(idx) {
                                *item_hits.entry(item).or_insert(0) += 1;
                            }
                        }
                        let kept_items: Vec<ItemId> = t
                            .iter()
                            .copied()
                            .filter(|i| item_hits.get(i).copied().unwrap_or(0) >= k)
                            .collect();
                        if kept_items.len() > k {
                            kept.push(chunk, Transaction::from_sorted_vec(kept_items));
                        }
                    },
                );
                let mut collectors = Vec::with_capacity(folds.len());
                for (scratch, kept) in folds {
                    tree.absorb(scratch);
                    collectors.push(kept);
                }
                if trim {
                    working = Some(TransactionDb::from_transactions(ChunkedCollector::merge(
                        collectors,
                    )));
                }
                tree.into_counts()
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
                candidates_checked: checked,
                large_found: found,
            });
            k += 1;
        }

        stats.elapsed = start.elapsed();
        MiningOutcome { large, stats }
    }
}

impl Miner for Dhp {
    fn name(&self) -> &'static str {
        "dhp"
    }

    fn mine(&self, source: &dyn TransactionSource, minsup: MinSupport) -> MiningOutcome {
        self.run(source, minsup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::{mine_naive, Apriori};

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
    fn agrees_with_apriori_on_textbook_example() {
        let d = db(&[&[1, 3, 4], &[2, 3, 5], &[1, 2, 3, 5], &[2, 5]]);
        let minsup = MinSupport::percent(50);
        let dhp = Dhp::new().run(&d, minsup).large;
        let apriori = Apriori::new().run(&d, minsup).large;
        assert!(dhp.same_itemsets(&apriori), "{:?}", dhp.diff(&apriori));
    }

    #[test]
    fn agrees_with_naive_across_supports() {
        let d = db(&[
            &[1, 2, 3, 4],
            &[1, 2, 3],
            &[1, 2],
            &[2, 3, 4],
            &[1, 3, 4],
            &[2, 4],
            &[1, 2, 4],
            &[5],
        ]);
        for pct in [10, 20, 30, 50, 75] {
            let minsup = MinSupport::percent(pct);
            let dhp = Dhp::new().run(&d, minsup).large;
            let naive = mine_naive(&d, minsup);
            assert!(
                dhp.same_itemsets(&naive),
                "minsup {pct}%: {:?}",
                dhp.diff(&naive)
            );
        }
    }

    #[test]
    fn trimming_does_not_change_results() {
        let d = db(&[
            &[1, 2, 3, 4, 5],
            &[1, 2, 3, 4],
            &[1, 2, 3],
            &[2, 3, 4, 5],
            &[1, 3, 4, 5],
            &[1, 2, 4, 5],
        ]);
        let minsup = MinSupport::percent(50);
        let trimmed = Dhp::with_config(DhpConfig {
            trim: true,
            ..DhpConfig::default()
        })
        .run(&d, minsup)
        .large;
        let untrimmed = Dhp::with_config(DhpConfig {
            trim: false,
            ..DhpConfig::default()
        })
        .run(&d, minsup)
        .large;
        assert!(
            trimmed.same_itemsets(&untrimmed),
            "{:?}",
            trimmed.diff(&untrimmed)
        );
    }

    #[test]
    fn bucket_filter_reduces_c2() {
        // Many distinct singleton-frequent items whose pairs are all rare:
        // with ample buckets, C2 shrinks below apriori-gen's output.
        let rows: Vec<Vec<u32>> = (0..40u32)
            .map(|i| vec![i % 8, 10 + (i % 5), 20 + (i % 4)])
            .collect();
        let d = TransactionDb::from_transactions(
            rows.iter()
                .map(|r| Transaction::from_items(r.iter().copied())),
        );
        let minsup = MinSupport::percent(20);
        let out = Dhp::with_config(DhpConfig::with_large_table()).run(&d, minsup);
        let p2 = &out.stats.passes[1];
        assert!(p2.candidates_checked < p2.candidates_generated);
        // Still correct.
        let naive = mine_naive(&d, minsup);
        assert!(out.large.same_itemsets(&naive));
    }

    #[test]
    fn tiny_bucket_table_is_correct_but_weak() {
        // One bucket: everything collides, no filtering, still correct.
        let d = db(&[&[1, 2, 3], &[1, 2, 3], &[1, 2], &[3, 4]]);
        let minsup = MinSupport::percent(50);
        let out = Dhp::with_config(DhpConfig {
            hash_buckets: 1,
            ..DhpConfig::default()
        })
        .run(&d, minsup);
        let naive = mine_naive(&d, minsup);
        assert!(
            out.large.same_itemsets(&naive),
            "{:?}",
            out.large.diff(&naive)
        );
        let p2 = &out.stats.passes[1];
        assert_eq!(p2.candidates_generated, p2.candidates_checked);
    }

    #[test]
    fn empty_database() {
        let d = db(&[]);
        let out = Dhp::new().run(&d, MinSupport::percent(10));
        assert!(out.large.is_empty());
    }

    #[test]
    fn deep_itemsets_survive_trimming() {
        // A 5-itemset supported by every transaction.
        let d = db(&[
            &[1, 2, 3, 4, 5],
            &[1, 2, 3, 4, 5, 9],
            &[1, 2, 3, 4, 5, 8],
            &[1, 2, 3, 4, 5, 7],
        ]);
        let out = Dhp::new().run(&d, MinSupport::percent(100));
        assert_eq!(out.large.support(&s(&[1, 2, 3, 4, 5])), Some(4));
        assert_eq!(out.large.max_size(), 5);
    }

    #[test]
    fn every_backend_mines_identical_itemsets() {
        use crate::vertical::CountingBackend;
        let d = db(&[
            &[1, 2, 3, 4, 5],
            &[1, 2, 3, 4],
            &[1, 2, 3],
            &[2, 3, 4, 5],
            &[1, 3, 4, 5],
            &[1, 2, 4, 5],
            &[6, 7],
        ]);
        for pct in [25, 50] {
            let minsup = MinSupport::percent(pct);
            let reference = Dhp::new().run(&d, minsup).large;
            for backend in [CountingBackend::Vertical, CountingBackend::Auto] {
                for trim in [true, false] {
                    let out = Dhp::with_config(DhpConfig {
                        trim,
                        engine: EngineConfig::default().with_backend(backend),
                        ..DhpConfig::default()
                    })
                    .run(&d, minsup)
                    .large;
                    assert!(
                        out.same_itemsets(&reference),
                        "{backend:?} trim {trim} at {pct}%: {:?}",
                        out.diff(&reference)
                    );
                }
            }
        }
    }

    #[test]
    fn max_k_truncates() {
        let d = db(&[&[1, 2, 3], &[1, 2, 3]]);
        let out = Dhp::with_config(DhpConfig {
            max_k: Some(1),
            ..DhpConfig::default()
        })
        .run(&d, MinSupport::percent(100));
        assert_eq!(out.large.max_size(), 1);
    }
}
