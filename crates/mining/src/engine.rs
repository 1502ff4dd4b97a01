//! The parallel, allocation-free support-counting engine.
//!
//! Every miner in this workspace — Apriori, DHP, FUP, FUP2 — spends its
//! time in the same loop: one full pass over a
//! [`TransactionSource`], folding each transaction into some accumulator
//! (a candidate hash tree's counts, a dense per-item table, DHP's pair
//! buckets, a trimmed working copy). This module runs that loop on every
//! core:
//!
//! * the source is split into [`TxChunk`](fup_tidb::TxChunk)s via the
//!   chunked scan API of `fup_tidb`,
//! * `std::thread::scope` workers claim chunks from an atomic cursor
//!   (no work queue, no locking, no allocation in steady state — each
//!   worker reuses one [`ChunkScratch`] and one accumulator). Sources
//!   that advertise partitions ([`TransactionSource::chunk_partitions`]
//!   — one per tid-range shard) get **one cursor per partition**:
//!   workers drain a home partition first and steal from the rest, so
//!   shards scan in parallel without contending on one shared counter,
//! * per-worker accumulators are merged once, at the end of the pass.
//!
//! Counting is exact and order-independent, so the merged result equals
//! the serial result bit for bit. With [`EngineConfig::threads`]` = 1`
//! the engine does not even spin up the chunked machinery: it runs the
//! classic [`for_each`](TransactionSource::for_each) loop, reproducing
//! the historical serial behaviour (and its `ScanMetrics` charges)
//! exactly. The default `threads = 0` resolves to
//! [`std::thread::available_parallelism`].
//!
//! Order-sensitive by-products (FUP's `Reduce-db` trimmed copies, DHP's
//! working databases) stay deterministic through [`ChunkedCollector`]:
//! values are grouped by chunk index and concatenated in chunk order, so
//! the output is independent of worker scheduling.

use crate::counting::ItemCounts;
use crate::gen::GenConfig;
use crate::hashtree::HashTree;
use crate::itemset::ItemsetTable;
use crate::vertical::CountingBackend;
use fup_tidb::{ChunkScratch, ItemId, TransactionSource};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default transactions per chunk. Large enough to amortise chunk claim
/// and metric charges, small enough to load-balance skewed sources.
pub const DEFAULT_CHUNK_SIZE: usize = 1024;

/// Configuration of the counting engine (and of the candidate-generation
/// phase every miner runs between counting passes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads for counting scans. `0` (the default) resolves to
    /// [`std::thread::available_parallelism`]; `1` runs the classic
    /// serial scan loop, bit-identical to the pre-engine implementation.
    pub threads: usize,
    /// Transactions per claimed chunk (min 1).
    pub chunk_size: usize,
    /// Candidate-generation (`apriori-gen` join+prune) settings. Output
    /// is byte-identical for every thread count.
    pub gen: GenConfig,
    /// Support-counting strategy for the miners' passes: the candidate
    /// hash tree, the vertical tid-list index, or (the default) an
    /// adaptive per-pass choice. Every backend produces bit-identical
    /// large itemsets; only scan accounting differs (see
    /// [`crate::vertical`]).
    pub backend: CountingBackend,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            chunk_size: DEFAULT_CHUNK_SIZE,
            gen: GenConfig::default(),
            backend: CountingBackend::default(),
        }
    }
}

impl EngineConfig {
    /// The exact historical serial behaviour: `threads = 1` for the
    /// counting scans and the candidate generation alike, and the hash
    /// tree pinned as the counting backend (the vertical index changes
    /// *when* sources are scanned, which this configuration promises not
    /// to).
    pub fn serial() -> Self {
        EngineConfig {
            threads: 1,
            gen: GenConfig::serial(),
            backend: CountingBackend::HashTree,
            ..EngineConfig::default()
        }
    }

    /// This configuration with an explicit counting backend.
    pub fn with_backend(mut self, backend: CountingBackend) -> Self {
        self.backend = backend;
        self
    }

    /// A configuration with an explicit thread count, applied to both the
    /// counting scans and the candidate generation.
    pub fn with_threads(threads: usize) -> Self {
        EngineConfig {
            threads,
            gen: GenConfig::with_threads(threads),
            ..EngineConfig::default()
        }
    }

    /// The effective worker count (`0` resolved to the machine's
    /// available parallelism).
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Runs one full pass over `source`, folding every transaction into a
/// per-worker accumulator; returns the accumulators (one per worker that
/// ran — a single one on the serial path).
///
/// `step` receives the accumulator, the chunk index the transaction came
/// from (always 0 on the serial path), and the transaction's sorted item
/// slice. Transactions of one chunk are delivered to one worker in pass
/// order; chunk indices claimed by a worker increase monotonically.
///
/// The pass is charged to the source's `ScanMetrics` exactly once, per
/// chunk on the parallel path and per transaction on the serial path
/// (identical totals).
pub fn scan_fold<S, A, Make, Step>(
    source: &S,
    config: &EngineConfig,
    make: Make,
    step: Step,
) -> Vec<A>
where
    S: TransactionSource + ?Sized,
    A: Send,
    Make: Fn() -> A + Sync,
    Step: Fn(&mut A, u64, &[ItemId]) + Sync,
{
    let threads = config.resolved_threads();
    let chunk_size = config.chunk_size.max(1);
    let num_chunks = if threads > 1 {
        source.plan_chunks(chunk_size)
    } else {
        0
    };
    // Serial path: requested, or the pass fits one chunk (a tiny FUP
    // increment, say) and spawning workers could only add overhead.
    if threads <= 1 || num_chunks <= 1 {
        let mut acc = make();
        source.for_each(&mut |t| step(&mut acc, 0, t));
        return vec![acc];
    }
    let workers = threads.min(num_chunks as usize);
    source.record_scan_start();
    // One cursor per (non-empty) chunk partition. Unpartitioned sources
    // advertise a single partition, reproducing the classic shared-cursor
    // pass exactly; a sharded source gets one cursor per shard.
    let partitions: Vec<(u64, u64)> = {
        let ends = source.chunk_partitions(chunk_size);
        debug_assert_eq!(ends.last().copied(), Some(num_chunks));
        let mut start = 0;
        ends.into_iter()
            .filter_map(|end| {
                let s = start;
                start = end;
                (s < end).then_some((s, end))
            })
            .collect()
    };
    let cursors: Vec<AtomicU64> = partitions.iter().map(|&(s, _)| AtomicU64::new(s)).collect();
    let nparts = partitions.len();
    let mut results = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let partitions = &partitions;
            let cursors = &cursors;
            let make = &make;
            let step = &step;
            handles.push(scope.spawn(move || {
                let mut acc = make();
                let mut scratch = ChunkScratch::new();
                // Drain the home partition, then steal from the others.
                // Every worker eventually visits every partition, so all
                // chunks are claimed however threads and shards mismatch.
                let home = w % nparts;
                for offset in 0..nparts {
                    let p = (home + offset) % nparts;
                    let end = partitions[p].1;
                    loop {
                        let index = cursors[p].fetch_add(1, Ordering::Relaxed);
                        if index >= end {
                            break;
                        }
                        let chunk = source.chunk(chunk_size, index, &mut scratch);
                        for t in chunk.iter() {
                            step(&mut acc, index, t);
                        }
                    }
                }
                acc
            }));
        }
        for handle in handles {
            results.push(handle.join().expect("counting worker panicked"));
        }
    });
    results
}

/// Runs a counting pass for `tree` over `source`, adding the results into
/// the tree's own counts — the parallel form of
/// [`HashTree::count_source`].
pub fn count_source_into<S>(tree: &mut HashTree, source: &S, config: &EngineConfig)
where
    S: TransactionSource + ?Sized,
{
    let view = tree.view();
    let scratches = scan_fold(
        source,
        config,
        || tree.new_scratch(),
        |scratch, _chunk, t| view.count(t, scratch),
    );
    for scratch in scratches {
        tree.absorb(scratch);
    }
}

/// Counts the support of every row of `table` over one full pass of
/// `source` through a hash tree built straight from the table's row
/// arena (one flat copy — the tree needs owned storage — and no
/// per-candidate allocation), returning counts in row order — the
/// hash-tree pass the miners' level loops use. An empty table costs no
/// scan.
pub fn count_table_with<S>(source: &S, table: &ItemsetTable, config: &EngineConfig) -> Vec<u64>
where
    S: TransactionSource + ?Sized,
{
    if table.is_empty() {
        return Vec::new();
    }
    let mut tree = HashTree::build_from_rows(table.k(), table.flat_items());
    count_source_into(&mut tree, source, config);
    tree.into_counts()
}

/// Counts every item over one full pass of `source` — the engine-backed
/// form of [`ItemCounts::count`].
pub fn count_items_with<S>(source: &S, config: &EngineConfig) -> ItemCounts
where
    S: TransactionSource + ?Sized,
{
    let tables = scan_fold(
        source,
        config,
        Vec::new,
        |counts: &mut Vec<u64>, _chunk, t| {
            for &item in t {
                let i = item.index();
                if i >= counts.len() {
                    counts.resize(i + 1, 0);
                }
                counts[i] += 1;
            }
        },
    );
    ItemCounts::from_dense(merge_dense(tables))
}

/// Deterministic pair-bucket hash shared by DHP's direct hashing and
/// FUP/FUP2's increment pair filter (order-sensitive inputs must be given
/// as `x < y`).
#[inline]
pub fn pair_bucket(x: ItemId, y: ItemId, buckets: usize) -> usize {
    let key = (u64::from(x.raw()) << 32) | u64::from(y.raw());
    // Fibonacci hashing; the multiplier is 2^64 / φ.
    let mixed = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (mixed >> 32) as usize % buckets
}

/// One engine pass computing dense per-item counts plus (when
/// `nbuckets > 0`) DHP-style pair-bucket totals — the shared "first
/// iteration" scan of DHP, FUP, and FUP2.
pub fn count_items_and_pairs<S>(
    source: &S,
    nbuckets: usize,
    config: &EngineConfig,
) -> (Vec<u64>, Vec<u64>)
where
    S: TransactionSource + ?Sized,
{
    let folds = scan_fold(
        source,
        config,
        || (Vec::new(), vec![0u64; nbuckets]),
        |(counts, buckets): &mut (Vec<u64>, Vec<u64>), _chunk, t| {
            for &item in t {
                let i = item.index();
                if i >= counts.len() {
                    counts.resize(i + 1, 0);
                }
                counts[i] += 1;
            }
            if nbuckets > 0 {
                for i in 0..t.len() {
                    for j in (i + 1)..t.len() {
                        buckets[pair_bucket(t[i], t[j], nbuckets)] += 1;
                    }
                }
            }
        },
    );
    let (count_tables, bucket_tables): (Vec<_>, Vec<_>) = folds.into_iter().unzip();
    (merge_dense(count_tables), merge_dense(bucket_tables))
}

/// Element-wise sums dense `u64` tables of possibly different lengths.
pub fn merge_dense(tables: Vec<Vec<u64>>) -> Vec<u64> {
    let mut iter = tables.into_iter();
    let mut total = iter.next().unwrap_or_default();
    for table in iter {
        if table.len() > total.len() {
            let mut table = table;
            for (i, v) in total.iter().enumerate() {
                table[i] += v;
            }
            total = table;
        } else {
            for (i, v) in table.into_iter().enumerate() {
                total[i] += v;
            }
        }
    }
    total
}

/// Accumulates order-sensitive per-transaction by-products (trimmed
/// working copies, match lists) deterministically: values are keyed by
/// the chunk they came from, and [`ChunkedCollector::merge`] concatenates
/// chunk groups in chunk order — the result is independent of how chunks
/// were scheduled onto workers.
#[derive(Debug)]
pub struct ChunkedCollector<T> {
    groups: Vec<(u64, Vec<T>)>,
}

impl<T> Default for ChunkedCollector<T> {
    fn default() -> Self {
        ChunkedCollector { groups: Vec::new() }
    }
}

impl<T> ChunkedCollector<T> {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `value` under `chunk`. Each worker sees monotonically
    /// increasing chunk indices, so the group list stays sorted per
    /// collector.
    pub fn push(&mut self, chunk: u64, value: T) {
        match self.groups.last_mut() {
            Some((c, group)) if *c == chunk => group.push(value),
            _ => self.groups.push((chunk, vec![value])),
        }
    }

    /// Merges per-worker collectors into one chunk-ordered value stream.
    pub fn merge(collectors: Vec<Self>) -> Vec<T> {
        let mut groups: Vec<(u64, Vec<T>)> =
            collectors.into_iter().flat_map(|c| c.groups).collect();
        groups.sort_by_key(|(chunk, _)| *chunk);
        groups.into_iter().flat_map(|(_, g)| g).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itemset::Itemset;
    use fup_tidb::transaction::contains_sorted;
    use fup_tidb::{Transaction, TransactionDb};

    fn s(items: &[u32]) -> Itemset {
        Itemset::from_items(items.iter().copied())
    }

    fn db(n: u32) -> TransactionDb {
        TransactionDb::from_transactions(
            (0..n).map(|i| {
                Transaction::from_items([i % 7, 7 + (i % 5), 12 + (i % 11), 23 + (i % 3)])
            }),
        )
    }

    fn candidates() -> Vec<Itemset> {
        let mut out = Vec::new();
        for a in 0..7u32 {
            for b in 7..12 {
                out.push(s(&[a, b]));
            }
        }
        out
    }

    fn table() -> ItemsetTable {
        ItemsetTable::from_itemsets(&candidates())
    }

    #[test]
    fn parallel_counts_match_serial() {
        let source = db(500);
        let serial = count_table_with(&source, &table(), &EngineConfig::serial());
        for threads in [2, 3, 8] {
            for chunk_size in [1, 7, 64] {
                let cfg = EngineConfig {
                    threads,
                    chunk_size,
                    ..EngineConfig::default()
                };
                let parallel = count_table_with(&db(500), &table(), &cfg);
                assert_eq!(parallel, serial, "threads {threads} chunk {chunk_size}");
            }
        }
    }

    #[test]
    fn parallel_counts_match_naive_containment() {
        let source = db(300);
        let cfg = EngineConfig::with_threads(4);
        let counted = count_table_with(&source, &table(), &cfg);
        for (cand, count) in candidates().into_iter().zip(counted) {
            let mut truth = 0u64;
            source.for_each(&mut |t| {
                if contains_sorted(t, cand.items()) {
                    truth += 1;
                }
            });
            assert_eq!(count, truth, "candidate {cand:?}");
        }
    }

    #[test]
    fn scan_metrics_totals_match_serial() {
        let a = db(400);
        let b = db(400);
        let _ = count_table_with(&a, &table(), &EngineConfig::serial());
        let _ = count_table_with(
            &b,
            &table(),
            &EngineConfig {
                threads: 4,
                chunk_size: 33,
                ..EngineConfig::default()
            },
        );
        assert_eq!(a.metrics().snapshot(), b.metrics().snapshot());
    }

    #[test]
    fn item_counts_match_across_configs() {
        let source = db(700);
        let serial = count_items_with(&source, &EngineConfig::serial());
        let parallel = count_items_with(&source, &EngineConfig::with_threads(6));
        for i in 0..30u32 {
            assert_eq!(
                serial.get(fup_tidb::ItemId(i)),
                parallel.get(fup_tidb::ItemId(i))
            );
        }
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let cfg = EngineConfig::default();
        assert!(cfg.resolved_threads() >= 1);
        // And the pass still counts correctly.
        let counted = count_table_with(&db(100), &table(), &cfg);
        let reference = count_table_with(&db(100), &table(), &EngineConfig::serial());
        assert_eq!(counted, reference);
    }

    #[test]
    fn empty_source_and_empty_candidates() {
        let empty = TransactionDb::new();
        let cfg = EngineConfig::with_threads(4);
        assert!(count_table_with(&empty, &ItemsetTable::empty(), &cfg).is_empty());
        let counted = count_table_with(&empty, &ItemsetTable::from_itemsets(&[s(&[1, 2])]), &cfg);
        assert_eq!(counted, vec![0]);
        let items = count_items_with(&empty, &cfg);
        assert_eq!(items.capacity(), 0);
    }

    #[test]
    fn partitioned_source_counts_match_serial() {
        use fup_tidb::{ShardSpec, ShardedDb};
        let rows: Vec<Transaction> = (0..500)
            .map(|i| Transaction::from_items([i % 7, 7 + (i % 5), 12 + (i % 11), 23 + (i % 3)]))
            .collect();
        let flat = TransactionDb::from_transactions(rows.clone());
        let serial = count_table_with(&flat, &table(), &EngineConfig::serial());
        // Shard counts both below and above the worker count, with chunk
        // sizes that leave short seam chunks inside partitions.
        for shards in [1u32, 2, 3, 8] {
            let sharded =
                ShardedDb::from_transactions(ShardSpec::striped_with(shards, 16), rows.clone())
                    .unwrap();
            for threads in [2, 4, 8] {
                let cfg = EngineConfig {
                    threads,
                    chunk_size: 33,
                    ..EngineConfig::default()
                };
                let counted = count_table_with(&sharded, &table(), &cfg);
                assert_eq!(counted, serial, "shards {shards} threads {threads}");
            }
        }
    }

    #[test]
    fn chunked_collector_orders_by_chunk() {
        let mut w1 = ChunkedCollector::new();
        let mut w2 = ChunkedCollector::new();
        // Worker 1 claimed chunks 0 and 2; worker 2 claimed chunk 1.
        w1.push(0, "a");
        w1.push(0, "b");
        w1.push(2, "e");
        w2.push(1, "c");
        w2.push(1, "d");
        assert_eq!(
            ChunkedCollector::merge(vec![w2, w1]),
            vec!["a", "b", "c", "d", "e"]
        );
    }

    #[test]
    fn merge_dense_handles_ragged_tables() {
        assert_eq!(merge_dense(Vec::new()), Vec::<u64>::new());
        assert_eq!(
            merge_dense(vec![vec![1, 2], vec![10, 10, 10], vec![5]]),
            vec![16, 12, 10]
        );
    }
}
