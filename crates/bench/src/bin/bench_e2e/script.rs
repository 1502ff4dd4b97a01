//! Seeded inputs: the corpus and update stream, the benchmark's own model
//! of which rows are live (the oracle mines it), and the reader's query
//! mix. The library only ever sees what this module generates.

use fup_core::RuleSnapshot;
use fup_datagen::rng::Pcg32;
use fup_datagen::{corpus, GenParams, QuestGenerator};
use fup_mining::{CountingBackend, Itemset};
use fup_tidb::{Tid, Transaction, UpdateBatch};
use std::hint::black_box;

/// Seed of the Quest pattern table and of the base corpus drawn from it.
/// Both are fixed: the number of large itemsets, and with it the cost of
/// every round, is a property of the table and of which itemsets sit near
/// the support threshold in the corpus, so another table or corpus is
/// another workload, not another sample of this one. `--seed` picks which
/// stretch of the table's transaction stream arrives as updates, and the
/// query mix.
const PATTERN_SEED: u64 = 1996;

/// Sizes of everything a workload does; [`Scale::FULL`] is what
/// `BENCHMARK.json` measures, [`Scale::SMOKE`] is the unit-test scale.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Transactions in the base corpus (`D`).
    pub base: u64,
    /// Minimum support in basis points.
    pub minsup_bp: u64,
    /// Inserts per round of the `insert_*` workloads.
    pub insert_batch: u64,
    /// Inserts and oldest-row deletes per round of the `churn_*` workloads.
    pub churn_inserts: u64,
    pub churn_deletes: u64,
    /// Stripe width of the sharded and cluster workloads.
    pub stripe: u64,
    /// `serve_open`: inserts per offered batch, the three offered rates in
    /// transactions per second, and the service's commit trigger, round
    /// cap and staging capacity in ops.
    pub serve_batch: u64,
    pub serve_rates: [u64; 3],
    pub serve_trigger: u64,
    pub serve_round_ops: u64,
    pub serve_capacity: u64,
    /// Read bursts issued against the fresh snapshot after each
    /// closed-loop round.
    pub reads_per_round: usize,
    /// Times the set-up is repeated (at least once); `setup_s` is their
    /// median.
    pub setup_reps: usize,
    /// Backend of the oracle's from-scratch mine. The sessions run `Auto`;
    /// the hash tree shares no counting code with the vertical index.
    pub oracle_backend: CountingBackend,
}

impl Scale {
    pub const FULL: Scale = Scale {
        base: 100_000,
        // 1 %, inside the range of the paper's Figure 2.
        minsup_bp: 100,
        insert_batch: 500,
        churn_inserts: 1_000,
        churn_deletes: 100,
        stripe: 1_024,
        serve_batch: 20,
        serve_rates: [2_000, 4_000, 8_000],
        serve_trigger: 1_000,
        serve_round_ops: 2_000,
        serve_capacity: 16_000,
        reads_per_round: 1_000,
        setup_reps: 3,
        // The hash tree takes 5–7 s on this corpus, a third of the run.
        oracle_backend: CountingBackend::Auto,
    };

    pub const SMOKE: Scale = Scale {
        base: 2_000,
        // 1 % of 2 000 rows is 20 rows: noise is "large" and a debug build
        // spends seconds counting it. 3 % keeps the unit test quick.
        minsup_bp: 300,
        insert_batch: 50,
        churn_inserts: 100,
        churn_deletes: 10,
        stripe: 64,
        serve_batch: 5,
        serve_rates: [500, 1_000, 2_000],
        serve_trigger: 100,
        serve_round_ops: 200,
        serve_capacity: 1_600,
        reads_per_round: 10,
        setup_reps: 1,
        oracle_backend: CountingBackend::HashTree,
    };
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The `T10.I4`, `N` = 1 000 transaction stream: first the base corpus,
/// then — from a seed-chosen point on — the updates.
pub struct Script {
    generator: QuestGenerator,
    base: u64,
}

impl Script {
    /// A fresh stream, positioned at the corpus.
    pub fn new(scale: &Scale) -> Self {
        let params = GenParams {
            num_transactions: scale.base,
            ..corpus::t10_i4_d100_d1().with_seed(PATTERN_SEED)
        };
        Script {
            generator: QuestGenerator::new(params),
            base: scale.base,
        }
    }

    /// The base corpus: the stream's first `base` transactions.
    pub fn corpus(&mut self) -> Vec<Transaction> {
        self.generator.generate(self.base)
    }

    /// Moves on to the seed's stretch of the update stream: one of 200
    /// start points, up to two corpus lengths past the corpus.
    pub fn seek_updates(&mut self, seed: u64) {
        self.generator
            .generate(splitmix64(seed) % 200 * (self.base / 100));
    }

    /// The next `n` transactions of the stream.
    pub fn transactions(&mut self, n: u64) -> Vec<Transaction> {
        self.generator.generate(n)
    }
}

/// The benchmark's own account of the database: every row by tid, and
/// how many of the oldest have been deleted. Deletes always take the
/// oldest live tids (retention-style expiry), so the live rows are a
/// suffix.
pub struct Model {
    rows: Vec<Transaction>,
    first_live: usize,
}

impl Model {
    pub fn new(history: Vec<Transaction>) -> Self {
        Model {
            rows: history,
            first_live: 0,
        }
    }

    /// The tid the next inserted row must receive.
    pub fn next_tid(&self) -> u64 {
        self.rows.len() as u64
    }

    /// The `n` oldest live tids.
    pub fn oldest(&self, n: u64) -> Vec<Tid> {
        (self.first_live as u64..self.first_live as u64 + n)
            .map(Tid)
            .collect()
    }

    /// Applies a committed batch. Panics if its deletes are not exactly
    /// the oldest live tids, which would be a bug in the workload script.
    pub fn apply(&mut self, batch: &UpdateBatch) {
        assert_eq!(
            batch.deletes,
            self.oldest(batch.deletes.len() as u64),
            "workloads delete the oldest live rows only"
        );
        self.first_live += batch.deletes.len();
        self.rows.extend(batch.inserts.iter().cloned());
    }

    pub fn live_rows(&self) -> &[Transaction] {
        &self.rows[self.first_live..]
    }

    /// The rows `tids` name (for replaying a round's delete side).
    pub fn rows_of(&self, tids: &[Tid]) -> Vec<Transaction> {
        tids.iter()
            .map(|t| self.rows[t.0 as usize].clone())
            .collect()
    }
}

/// Lookups per read sample. One lookup takes about 150 ns, less than the
/// clock can time, so reads are issued — as a page of lookups would be —
/// in bursts, and a sample is the burst's time per lookup.
pub const READ_BURST: u32 = 20;

/// The seeded read mix: 40 % `rules_with_antecedent`, 20 %
/// `top_k_by_confidence(10)`, 40 % `support_of`, over antecedents and
/// itemsets that were large when the session was built.
pub struct QueryMix {
    rng: Pcg32,
    antecedents: Vec<Itemset>,
    itemsets: Vec<Itemset>,
}

impl QueryMix {
    pub fn new(seed: u64, snapshot: &RuleSnapshot) -> Self {
        let mut itemsets: Vec<Itemset> = snapshot
            .large_itemsets()
            .iter()
            .map(|(x, _)| x.clone())
            .collect();
        // `LargeItemsets` iterates in hash order; the mix must repeat.
        itemsets.sort();
        let mut antecedents: Vec<Itemset> = snapshot
            .rules()
            .rules()
            .iter()
            .map(|r| r.antecedent.clone())
            .collect();
        antecedents.sort();
        antecedents.dedup();
        QueryMix {
            rng: Pcg32::new(seed, 0x0071_7565_7279),
            antecedents,
            itemsets,
        }
    }

    /// One read sample: [`READ_BURST`] times `snapshot()` plus the next
    /// query of the mix; returns microseconds per lookup.
    pub fn burst_us(&mut self, snapshot: impl Fn() -> RuleSnapshot) -> f64 {
        let start = std::time::Instant::now();
        for _ in 0..READ_BURST {
            self.query(&snapshot());
        }
        start.elapsed().as_nanos() as f64 / 1e3 / f64::from(READ_BURST)
    }

    /// Runs the next query of the mix against `snapshot`.
    fn query(&mut self, snapshot: &RuleSnapshot) {
        let pick = |rng: &mut Pcg32, from: &[Itemset]| rng.below(from.len() as u32) as usize;
        match self.rng.below(10) {
            0..=3 if !self.antecedents.is_empty() => {
                let a = &self.antecedents[pick(&mut self.rng, &self.antecedents)];
                black_box(snapshot.rules_with_antecedent(a).len());
            }
            4..=7 if !self.itemsets.is_empty() => {
                let x = &self.itemsets[pick(&mut self.rng, &self.itemsets)];
                black_box(snapshot.support_of(x));
            }
            _ => {
                black_box(snapshot.top_k_by_confidence(10).len());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_seeds_differ() {
        let updates = |seed| {
            let mut script = Script::new(&Scale::SMOKE);
            let corpus = script.corpus();
            script.seek_updates(seed);
            (corpus, script.transactions(300))
        };
        let (a, b, c) = (updates(7), updates(7), updates(8));
        assert_eq!(a, b);
        assert_eq!(a.0, c.0, "the corpus does not depend on the seed");
        assert_ne!(a.1, c.1);
    }

    #[test]
    fn model_tracks_inserts_and_oldest_row_deletes() {
        let mut script = Script::new(&Scale::SMOKE);
        let mut model = Model::new(script.transactions(10));
        assert_eq!(model.next_tid(), 10);
        let batch = UpdateBatch {
            inserts: script.transactions(3),
            deletes: model.oldest(2),
        };
        assert_eq!(batch.deletes, vec![Tid(0), Tid(1)]);
        assert_eq!(model.rows_of(&batch.deletes).len(), 2);
        model.apply(&batch);
        assert_eq!(model.next_tid(), 13);
        assert_eq!(model.live_rows().len(), 11);
        assert_eq!(model.oldest(1), vec![Tid(2)]);
    }
}
