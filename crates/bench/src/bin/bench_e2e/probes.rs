//! Per-layer probes of a traced run: each calls one layer's public
//! functions on a round's real inputs, outside the round clock, and
//! reports what that layer alone costs on them. Spans inside the library
//! are a later change; until then this is how `mining.*`, `tidb.wal`,
//! `tidb.staging` and `tidb.rpc` are seen.

use crate::run::RunOutput;
use crate::trace::Tracer;
use fup_mining::engine::count_table_with;
use fup_mining::gen::apriori_gen_flat;
use fup_mining::rules::generate_rules;
use fup_mining::vertical::item_bitmap;
use fup_mining::{
    CountingBackend, EngineConfig, GenConfig, ItemsetTable, LargeItemsets, MinConfidence,
    VerticalIndex,
};
use fup_tidb::wal::read_records;
use fup_tidb::{Message, StagingArea, Transaction, TransactionDb, UpdateBatch, WalRecord};
use std::hint::black_box;
use std::time::Instant;

/// The real inputs of one round.
pub struct RoundInputs<'a> {
    pub round: u64,
    /// Live rows the round started from, minus the rows it deleted.
    pub base: &'a [Transaction],
    /// The rows the round deleted and the batch it applied.
    pub deleted: &'a [Transaction],
    pub batch: &'a UpdateBatch,
    /// What the session published after the round.
    pub large: &'a LargeItemsets,
    pub minconf: MinConfidence,
    /// Probe the layers only a durable or cluster session exercises.
    pub wal: bool,
    pub rpc: bool,
}

/// Sums over the probed rounds; [`Probes::mean`] divides.
#[derive(Debug, Default, Clone)]
pub struct Probes {
    pub probed: u64,
    pub gen_ms: f64,
    pub gen_candidates: f64,
    pub build_ms: f64,
    pub extend_ms: f64,
    pub count_ns_per_row: f64,
    pub arena_bytes: f64,
    pub delta_scan_ms: f64,
    pub delta_txn_per_s: f64,
    pub rules_ms: f64,
    pub rules: f64,
    pub wal_encode_ms: f64,
    pub wal_bytes: f64,
    pub wal_read_ms: f64,
    pub stage_ns_per_batch: f64,
    pub drain_ms: f64,
    pub rpc_frame_ms: f64,
    pub rpc_frame_bytes: f64,
}

fn level_table(large: &LargeItemsets, k: usize) -> ItemsetTable {
    let level: Vec<_> = large.level_sorted(k).into_iter().map(|(x, _)| x).collect();
    ItemsetTable::from_sorted_itemsets(&level)
}

impl Probes {
    /// Mean of a summed field over the probed rounds.
    pub fn mean(&self, sum: f64) -> f64 {
        if self.probed == 0 {
            0.0
        } else {
            sum / self.probed as f64
        }
    }

    /// Records every probed per-layer metric, as means over the probed
    /// rounds (0 for layers the inputs said not to probe).
    pub fn report(&self, out: &mut RunOutput) {
        for (name, sum) in [
            ("tidb.wal.encode_ms", self.wal_encode_ms),
            ("tidb.wal.bytes", self.wal_bytes),
            ("tidb.wal.read_ms", self.wal_read_ms),
            ("tidb.staging.stage_ns_per_batch", self.stage_ns_per_batch),
            ("tidb.staging.drain_ms", self.drain_ms),
            ("tidb.rpc.frame_ms", self.rpc_frame_ms),
            ("tidb.rpc.frame_bytes", self.rpc_frame_bytes),
            ("mining.gen.gen_ms", self.gen_ms),
            ("mining.gen.candidates", self.gen_candidates),
            ("mining.vertical.build_ms", self.build_ms),
            ("mining.vertical.extend_ms", self.extend_ms),
            ("mining.vertical.count_ns_per_row", self.count_ns_per_row),
            ("mining.vertical.arena_bytes", self.arena_bytes),
            ("mining.engine.delta_scan_ms", self.delta_scan_ms),
            ("mining.engine.txn_per_s", self.delta_txn_per_s),
            ("mining.rules.generate_ms", self.rules_ms),
            ("mining.rules.rules", self.rules),
        ] {
            out.layer(name, self.mean(sum));
        }
    }

    /// Probes every layer on one round's inputs, recording one span each.
    pub fn run(&mut self, inputs: &RoundInputs<'_>, tracer: &mut Tracer) {
        self.probed += 1;
        let round = Some(inputs.round);
        let mut timed = |name: &'static str, f: &mut dyn FnMut()| -> f64 {
            let start = Instant::now();
            f();
            let end = Instant::now();
            tracer.span(name, start, end, None, round);
            (end - start).as_secs_f64() * 1e3
        };
        let engine = EngineConfig::with_threads(1);
        let (l1, l2) = (level_table(inputs.large, 1), level_table(inputs.large, 2));

        // mining.gen: the join+prune that turns L1 into C2 and L2 into C3.
        let gen = GenConfig::serial();
        let mut candidates = 0;
        self.gen_ms += timed("mining.gen.apriori_gen", &mut || {
            candidates = apriori_gen_flat(&l1, &gen).len() + apriori_gen_flat(&l2, &gen).len();
        });
        self.gen_candidates += candidates as f64;

        // mining.vertical: what an index rebuild, an extend by the round's
        // inserts, and one counting pass over L2 cost.
        let base = TransactionDb::from_transactions(inputs.base.iter().cloned());
        let inserted = TransactionDb::from_transactions(inputs.batch.inserts.iter().cloned());
        let keep = item_bitmap(l1.flat_items().iter().copied());
        let mut index = None;
        self.build_ms += timed("mining.vertical.build", &mut || {
            index = Some(VerticalIndex::build(&base, Some(&keep), &engine));
        });
        let mut index = index.expect("built above");
        self.extend_ms += timed("mining.vertical.extend", &mut || {
            index.extend(&inserted, &engine);
        });
        let count_ms = timed("mining.vertical.count_rows", &mut || {
            black_box(index.count_rows(&l2, &engine));
        });
        self.count_ns_per_row += count_ms * 1e6 / l2.len().max(1) as f64;
        let (sparse, dense) = index.arena_bytes();
        self.arena_bytes += (sparse + dense) as f64;

        // mining.engine: a hash-tree pass over the round's delta, the
        // work FUP2's delete side and FUP's increment scan do.
        let delta = TransactionDb::from_transactions(
            inputs.deleted.iter().chain(&inputs.batch.inserts).cloned(),
        );
        let hash_tree = engine.clone().with_backend(CountingBackend::HashTree);
        let scan_ms = timed("mining.engine.delta_scan", &mut || {
            black_box(count_table_with(&delta, &l2, &hash_tree));
        });
        self.delta_scan_ms += scan_ms;
        let delta_rows = (inputs.deleted.len() + inputs.batch.inserts.len()) as f64;
        self.delta_txn_per_s += delta_rows / (scan_ms / 1e3).max(1e-9);

        // mining.rules
        let mut rules = 0;
        self.rules_ms += timed("mining.rules.generate", &mut || {
            rules = generate_rules(inputs.large, inputs.minconf).len();
        });
        self.rules += rules as f64;

        // tidb.staging: admission and drain of the round's inserts. A
        // fresh area knows no live tids, so the delete side stays out.
        let staging = StagingArea::with_shards(1);
        let mut inserts = Some(UpdateBatch::insert_only(inputs.batch.inserts.clone()));
        let stage_ms = timed("tidb.staging.stage", &mut || {
            let batch = inserts.take().expect("staged once");
            black_box(staging.stage(batch).expect("unbounded staging admits"));
        });
        self.stage_ns_per_batch += stage_ms * 1e6;
        self.drain_ms += timed("tidb.staging.drain", &mut || {
            black_box(staging.drain());
        });

        if inputs.wal {
            let record = WalRecord::Stage {
                ticket: inputs.round,
                batch: inputs.batch.clone(),
            };
            let mut framed = Vec::new();
            self.wal_encode_ms += timed("tidb.wal.encode", &mut || {
                framed = record.to_framed_bytes();
            });
            self.wal_bytes += framed.len() as f64;
            self.wal_read_ms += timed("tidb.wal.read_records", &mut || {
                black_box(read_records(&framed));
            });
        }

        // An empty table never travels: the coordinator answers it itself.
        let table = if l2.is_empty() { &l1 } else { &l2 };
        if inputs.rpc && !table.is_empty() {
            // The frames one counting pass exchanges with one worker: the
            // candidate table out, its (base, delta) splits back.
            let request = Message::CountSplit {
                k: table.k() as u32,
                items: table.flat_items().to_vec(),
            };
            let reply = Message::Splits(vec![(1, 1); table.len()]);
            let mut bytes = 0;
            self.rpc_frame_ms += timed("tidb.rpc.frame", &mut || {
                for message in [&request, &reply] {
                    let frame = message.to_frame();
                    bytes += frame.len();
                    black_box(Message::from_frame(&frame).expect("own frame decodes"));
                }
            });
            self.rpc_frame_bytes += bytes as f64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::{Scale, Script};
    use fup_core::Maintainer;
    use fup_mining::MinSupport;

    #[test]
    fn probes_report_every_layer_on_real_inputs() {
        let mut script = Script::new(&Scale::SMOKE);
        let history = script.transactions(1_500);
        let batch = UpdateBatch {
            inserts: script.transactions(100),
            deletes: Vec::new(),
        };
        let minconf = MinConfidence::percent(50);
        let mut session = Maintainer::builder()
            .min_support(MinSupport::basis_points(100))
            .min_confidence(minconf)
            .build(history.clone())
            .unwrap();
        session.apply(batch.clone()).unwrap();

        let (mut probes, mut tracer) = (Probes::default(), Tracer::new());
        let inputs = RoundInputs {
            round: 0,
            base: &history[5..],
            deleted: &history[..5],
            batch: &batch,
            large: session.large_itemsets(),
            minconf,
            wal: true,
            rpc: true,
        };
        probes.run(&inputs, &mut tracer);
        assert_eq!(probes.probed, 1);
        assert!(probes.gen_candidates > 0.0 && probes.arena_bytes > 0.0);
        assert!(probes.wal_bytes > 0.0 && probes.rpc_frame_bytes > 0.0);
        assert!(probes.delta_txn_per_s > 0.0);
        assert_eq!(probes.rules, session.rules().len() as f64);
        assert_eq!(probes.mean(probes.rules), probes.rules);
        assert!(tracer.spans().iter().all(|s| s.round == Some(0)));
        assert_eq!(tracer.spans().len(), 11);
    }
}
