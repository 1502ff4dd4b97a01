//! Micro-benchmarks for the shared data structures: the candidate hash
//! tree (vs naive containment), `apriori-gen`, and the transaction codec.
//! These justify the substrate choices: the codec is the one encoding
//! the WAL, checkpoints and RPC frames share (DESIGN_DURABILITY.md,
//! DESIGN_CLUSTER.md).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fup_datagen::rng::Pcg32;
use fup_mining::gen::apriori_gen;
use fup_mining::{HashTree, Itemset};
use fup_tidb::transaction::contains_sorted;
use fup_tidb::{codec, ItemId, Transaction};

fn random_transactions(n: usize, items: u32, len: usize, rng: &mut Pcg32) -> Vec<Transaction> {
    (0..n)
        .map(|_| Transaction::from_items((0..len).map(|_| rng.below(items))))
        .collect()
}

fn random_itemsets(n: usize, items: u32, k: usize, rng: &mut Pcg32) -> Vec<Itemset> {
    let mut out = std::collections::HashSet::new();
    while out.len() < n {
        out.insert(Itemset::from_items(
            (0..k * 2).map(|_| rng.below(items)).take(k),
        ));
    }
    out.into_iter().filter(|s| s.k() == k).collect()
}

fn subset_counting(c: &mut Criterion) {
    let mut rng = Pcg32::seed_from(42);
    let mut group = c.benchmark_group("subset_counting");
    group.sample_size(20);
    for &ncand in &[100usize, 1000, 5000] {
        let candidates = random_itemsets(ncand, 500, 2, &mut rng);
        let transactions = random_transactions(2000, 500, 10, &mut rng);
        group.bench_with_input(BenchmarkId::new("hash_tree", ncand), &ncand, |b, _| {
            b.iter(|| {
                let mut tree = HashTree::build(candidates.clone());
                for t in &transactions {
                    tree.add_transaction(t.items());
                }
                tree.counts().iter().sum::<u64>()
            })
        });
        group.bench_with_input(BenchmarkId::new("naive_scan", ncand), &ncand, |b, _| {
            b.iter(|| {
                let mut total = 0u64;
                for t in &transactions {
                    for cand in &candidates {
                        if contains_sorted(t.items(), cand.items()) {
                            total += 1;
                        }
                    }
                }
                total
            })
        });
    }
    group.finish();
}

fn candidate_generation(c: &mut Criterion) {
    let mut rng = Pcg32::seed_from(7);
    let mut group = c.benchmark_group("apriori_gen");
    group.sample_size(20);
    for &n in &[100usize, 1000] {
        let level = random_itemsets(n, 300, 2, &mut rng);
        group.bench_with_input(BenchmarkId::new("join_prune", n), &n, |b, _| {
            b.iter(|| apriori_gen(&level).len())
        });
    }
    group.finish();
}

fn transaction_codec(c: &mut Criterion) {
    let mut rng = Pcg32::seed_from(11);
    let transactions = random_transactions(5000, 1000, 10, &mut rng);
    let mut group = c.benchmark_group("codec");
    group.sample_size(30);
    group.bench_function("encode_5k", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            for t in &transactions {
                codec::encode_transaction(&mut buf, t.items());
            }
            buf.len()
        })
    });
    let mut encoded = Vec::new();
    for t in &transactions {
        codec::encode_transaction(&mut encoded, t.items());
    }
    group.bench_function("decode_5k", |b| {
        b.iter(|| {
            let mut pos = 0;
            let mut items: Vec<ItemId> = Vec::new();
            let mut total = 0usize;
            while pos < encoded.len() {
                codec::decode_transaction(&encoded, &mut pos, &mut items).unwrap();
                total += items.len();
            }
            total
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    subset_counting,
    candidate_generation,
    transaction_codec
);
criterion_main!(benches);
