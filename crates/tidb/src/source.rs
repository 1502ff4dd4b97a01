//! The [`TransactionSource`] abstraction that all miners scan.

use crate::chunk::{ChunkScratch, TxChunk};
use crate::item::ItemId;
use crate::scan::ScanMetrics;
use crate::transaction::Transaction;

/// Anything a mining algorithm can perform a full pass over.
///
/// Implemented by [`TransactionDb`](crate::TransactionDb) (flat in-memory
/// store), [`SegmentedDb`](crate::SegmentedDb) views (base / increment /
/// whole), and [`PagedStore`](crate::page::PagedStore) (block-storage
/// simulation). Algorithms are generic over this trait, so the same FUP code
/// runs against any of them.
///
/// Two scan shapes are offered:
///
/// * [`for_each`](TransactionSource::for_each) — the classic serial pass,
///   one callback per transaction;
/// * the chunked pass — [`plan_chunks`](TransactionSource::plan_chunks)
///   splits a pass into [`TxChunk`]s that
///   [`chunk`](TransactionSource::chunk) materialises individually, so
///   independent workers can claim chunks concurrently (the source is
///   required to be `Sync` for exactly this reason).
///   [`for_each_chunk`](TransactionSource::for_each_chunk) is the serial
///   driver over the same machinery.
///
/// The chunked contract: for a fixed `chunk_size ≥ 1`, the chunks
/// `0..plan_chunks(chunk_size)` are disjoint, each holds at most
/// `chunk_size` transactions, and concatenated in index order they deliver
/// exactly the transactions of one `for_each` pass in the same order.
pub trait TransactionSource: Sync {
    /// Number of transactions a full pass will deliver.
    fn num_transactions(&self) -> u64;

    /// Performs one full pass, invoking `f` on each transaction's sorted
    /// item slice, and charges the pass to [`Self::metrics`].
    fn for_each(&self, f: &mut dyn FnMut(&[ItemId]));

    /// The scan accounting for this source.
    fn metrics(&self) -> &ScanMetrics;

    /// `true` if the source holds no transactions.
    fn is_empty(&self) -> bool {
        self.num_transactions() == 0
    }

    /// Charges the start of one full pass. Chunked drivers call this once
    /// before materialising any chunk; `for_each` implementations charge
    /// it internally.
    fn record_scan_start(&self) {
        self.metrics().record_full_scan();
    }

    /// Number of chunks a chunked pass with `chunk_size` will deliver.
    /// `chunk_size` is clamped to at least 1.
    fn plan_chunks(&self, chunk_size: usize) -> u64 {
        self.num_transactions().div_ceil(chunk_size.max(1) as u64)
    }

    /// The pass-order position (0-based tid) of the **first** transaction
    /// of chunk `index` under the `chunk_size` plan, so chunked workers
    /// can recover every transaction's global position without
    /// coordination: transaction `i` of the chunk sits at
    /// `chunk_tid_offset(chunk_size, index) + i`.
    ///
    /// The default plan packs chunks back to back, so the offset is
    /// simply `index * chunk_size`. Sources whose chunks may run short
    /// mid-pass (e.g. [`ChainSource`], whose chunks never straddle the
    /// seam) must override this to keep the offsets consistent with the
    /// transactions [`chunk`](TransactionSource::chunk) actually
    /// delivers.
    fn chunk_tid_offset(&self, chunk_size: usize, index: u64) -> u64 {
        index * chunk_size.max(1) as u64
    }

    /// Partition boundaries of the `chunk_size` chunk plan, as cumulative
    /// chunk counts: partition `p` covers chunk indices
    /// `[boundaries[p-1], boundaries[p])` (with an implicit leading 0).
    /// The last boundary always equals
    /// [`plan_chunks`](TransactionSource::plan_chunks).
    ///
    /// Partitions group chunks whose data live together (one tid-range
    /// shard, one chained sub-source, …). Chunk-claiming drivers may give
    /// each partition its **own cursor** so workers drain independent
    /// partitions without contending on one shared counter — the
    /// count-distribution scan shape. The default is a single partition,
    /// which every driver must treat exactly like the classic shared
    /// cursor; partitioning never changes which chunks exist, only how
    /// they are claimed.
    fn chunk_partitions(&self, chunk_size: usize) -> Vec<u64> {
        vec![self.plan_chunks(chunk_size)]
    }

    /// Materialises chunk `index` of the `chunk_size` plan, either as a
    /// borrowed view of stored transactions or decoded into `scratch`.
    /// Charges the chunk's transactions and items (plus pages/bytes for
    /// paged sources) to [`Self::metrics`]; the full-scan counter is *not*
    /// charged here — drivers charge it once via
    /// [`record_scan_start`](TransactionSource::record_scan_start).
    ///
    /// # Panics
    ///
    /// May panic if `index >= plan_chunks(chunk_size)`.
    fn chunk<'s>(
        &'s self,
        chunk_size: usize,
        index: u64,
        scratch: &'s mut ChunkScratch,
    ) -> TxChunk<'s>;

    /// One full pass delivered as chunks of at most `chunk_size`
    /// transactions, charged to [`Self::metrics`] per chunk.
    fn for_each_chunk(&self, chunk_size: usize, f: &mut dyn FnMut(&TxChunk<'_>)) {
        self.record_scan_start();
        let mut scratch = ChunkScratch::new();
        for index in 0..self.plan_chunks(chunk_size) {
            let chunk = self.chunk(chunk_size, index, &mut scratch);
            f(&chunk);
        }
    }
}

/// Resolves the transaction range `[start, end)` covered by chunk `index`
/// under the default transaction-range plan.
pub(crate) fn chunk_bounds(num_transactions: u64, chunk_size: usize, index: u64) -> (usize, usize) {
    let cs = chunk_size.max(1) as u64;
    let start = index * cs;
    assert!(
        start < num_transactions || num_transactions == 0,
        "chunk index out of range"
    );
    let end = (start + cs).min(num_transactions);
    (start as usize, end as usize)
}

/// One full charged pass over a slice of stored transactions — the
/// `for_each` of every source that keeps its rows as a slice.
pub(crate) fn slice_for_each(
    transactions: &[Transaction],
    metrics: &ScanMetrics,
    f: &mut dyn FnMut(&[ItemId]),
) {
    metrics.record_full_scan();
    for t in transactions {
        metrics.record_transaction(t.len());
        f(t.items());
    }
}

/// Chunk `index` of the default plan over a slice of stored
/// transactions, as a charged zero-copy view.
pub(crate) fn slice_chunk<'s>(
    transactions: &'s [Transaction],
    metrics: &ScanMetrics,
    chunk_size: usize,
    index: u64,
) -> TxChunk<'s> {
    let (start, end) = chunk_bounds(transactions.len() as u64, chunk_size, index);
    let chunk = TxChunk::from_transactions(&transactions[start..end]);
    metrics.record_transactions(chunk.len() as u64, chunk.total_items());
    chunk
}

/// A borrowed slice of transactions as a scannable source — a
/// [`TransactionDb`](crate::TransactionDb) that does not own its rows,
/// for callers that hold the rows already and only need one mine over
/// them. Scans are charged to the adapter's own metrics.
pub struct SliceSource<'a> {
    transactions: &'a [Transaction],
    metrics: ScanMetrics,
}

impl<'a> SliceSource<'a> {
    /// Presents `transactions` as a source, in slice order.
    pub fn new(transactions: &'a [Transaction]) -> Self {
        SliceSource {
            transactions,
            metrics: ScanMetrics::new(),
        }
    }
}

impl TransactionSource for SliceSource<'_> {
    fn num_transactions(&self) -> u64 {
        self.transactions.len() as u64
    }

    fn for_each(&self, f: &mut dyn FnMut(&[ItemId])) {
        slice_for_each(self.transactions, &self.metrics, f);
    }

    fn metrics(&self) -> &ScanMetrics {
        &self.metrics
    }

    fn chunk<'s>(
        &'s self,
        chunk_size: usize,
        index: u64,
        _scratch: &'s mut ChunkScratch,
    ) -> TxChunk<'s> {
        slice_chunk(self.transactions, &self.metrics, chunk_size, index)
    }
}

/// A source adapter that chains two sources, presenting `DB ∪ db` as one
/// database. Used by the harness to re-run Apriori/DHP on the updated
/// database, which is exactly the baseline the paper compares FUP against.
pub struct ChainSource<'a, A: ?Sized, B: ?Sized> {
    first: &'a A,
    second: &'a B,
}

impl<'a, A, B> ChainSource<'a, A, B>
where
    A: TransactionSource + ?Sized,
    B: TransactionSource + ?Sized,
{
    /// Chains `first` followed by `second`.
    pub fn new(first: &'a A, second: &'a B) -> Self {
        ChainSource { first, second }
    }
}

impl<A, B> TransactionSource for ChainSource<'_, A, B>
where
    A: TransactionSource + ?Sized,
    B: TransactionSource + ?Sized,
{
    fn num_transactions(&self) -> u64 {
        self.first.num_transactions() + self.second.num_transactions()
    }

    fn for_each(&self, f: &mut dyn FnMut(&[ItemId])) {
        self.first.for_each(f);
        self.second.for_each(f);
    }

    /// Chained scans charge each underlying source; the chain itself reports
    /// the first source's metrics (callers interested in totals should read
    /// both underlying sources).
    fn metrics(&self) -> &ScanMetrics {
        self.first.metrics()
    }

    /// A chained pass is one pass over each underlying source.
    fn record_scan_start(&self) {
        self.first.record_scan_start();
        self.second.record_scan_start();
    }

    /// Chunks never straddle the seam: the chain delivers every chunk of
    /// `first` followed by every chunk of `second` (the last chunk of
    /// `first` may therefore be short even mid-pass, which the chunked
    /// contract allows).
    fn plan_chunks(&self, chunk_size: usize) -> u64 {
        self.first.plan_chunks(chunk_size) + self.second.plan_chunks(chunk_size)
    }

    fn chunk<'s>(
        &'s self,
        chunk_size: usize,
        index: u64,
        scratch: &'s mut ChunkScratch,
    ) -> TxChunk<'s> {
        let first_chunks = self.first.plan_chunks(chunk_size);
        if index < first_chunks {
            self.first.chunk(chunk_size, index, scratch)
        } else {
            self.second.chunk(chunk_size, index - first_chunks, scratch)
        }
    }

    /// Chunks after the seam start at `|first|` plus the second source's
    /// own offset — the last chunk of `first` may run short, so the
    /// default back-to-back arithmetic would drift for every chunk of
    /// `second`.
    fn chunk_tid_offset(&self, chunk_size: usize, index: u64) -> u64 {
        let first_chunks = self.first.plan_chunks(chunk_size);
        if index < first_chunks {
            self.first.chunk_tid_offset(chunk_size, index)
        } else {
            self.first.num_transactions()
                + self
                    .second
                    .chunk_tid_offset(chunk_size, index - first_chunks)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::TransactionDb;

    fn db(rows: &[&[u32]]) -> TransactionDb {
        let mut d = TransactionDb::new();
        for r in rows {
            d.push(Transaction::from_items(r.iter().copied()));
        }
        d
    }

    #[test]
    fn chain_concatenates_passes() {
        let a = db(&[&[1, 2], &[3]]);
        let b = db(&[&[4]]);
        let chain = ChainSource::new(&a, &b);
        assert_eq!(chain.num_transactions(), 3);
        let mut seen = Vec::new();
        chain.for_each(&mut |t| seen.push(t.to_vec()));
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[2], vec![ItemId(4)]);
        // Both underlying sources were charged a full scan.
        assert_eq!(a.metrics().full_scans(), 1);
        assert_eq!(b.metrics().full_scans(), 1);
    }

    #[test]
    fn is_empty_default() {
        let a = db(&[]);
        let b = db(&[]);
        assert!(a.is_empty());
        let chain = ChainSource::new(&a, &b);
        assert!(chain.is_empty());
    }

    #[test]
    fn slice_source_scans_like_the_owning_db() {
        let owned = db(&[&[1, 2], &[3], &[4, 5], &[6], &[7]]);
        let borrowed = SliceSource::new(owned.raw());
        assert_eq!(borrowed.num_transactions(), 5);
        let mut rows = Vec::new();
        borrowed.for_each(&mut |t| rows.push(t.to_vec()));
        let expect: Vec<Vec<ItemId>> = owned.raw().iter().map(|t| t.items().to_vec()).collect();
        assert_eq!(rows, expect);
        for chunk_size in [1, 2, 3, 7] {
            assert_tid_offsets_consistent(&borrowed, chunk_size);
        }
        // Five for_each passes and four chunked walks of 5 rows / 7
        // items, all charged to the adapter and none to the owner.
        assert_eq!(borrowed.metrics().full_scans(), 5);
        assert_eq!(borrowed.metrics().transactions_read(), 45);
        assert_eq!(borrowed.metrics().items_read(), 63);
        assert_eq!(owned.metrics().transactions_read(), 0);
    }

    /// Walks every chunk of `source`, asserting that `chunk_tid_offset`
    /// plus the in-chunk position reproduces exactly the pass order of
    /// `for_each`.
    fn assert_tid_offsets_consistent(source: &dyn TransactionSource, chunk_size: usize) {
        let mut pass_order = Vec::new();
        source.for_each(&mut |t| pass_order.push(t.to_vec()));
        let mut scratch = ChunkScratch::new();
        for index in 0..source.plan_chunks(chunk_size) {
            let offset = source.chunk_tid_offset(chunk_size, index);
            let chunk = source.chunk(chunk_size, index, &mut scratch);
            for (i, t) in chunk.iter().enumerate() {
                let tid = offset as usize + i;
                assert_eq!(
                    t,
                    &pass_order[tid][..],
                    "chunk {index} pos {i} (chunk_size {chunk_size})"
                );
            }
        }
    }

    #[test]
    fn default_tid_offsets_match_pass_order() {
        let a = db(&[&[1, 2], &[3], &[4, 5], &[6], &[7]]);
        for chunk_size in [1, 2, 3, 7] {
            assert_tid_offsets_consistent(&a, chunk_size);
        }
    }

    #[test]
    fn chained_tid_offsets_skip_the_short_seam_chunk() {
        // 5 transactions then 4: with chunk_size 2 the first source's last
        // chunk is short (1 transaction), so the second source's chunks do
        // NOT sit at index * chunk_size — the override must account for it.
        let a = db(&[&[1], &[2], &[3], &[4], &[5]]);
        let b = db(&[&[6], &[7], &[8], &[9]]);
        let chain = ChainSource::new(&a, &b);
        assert_eq!(chain.chunk_tid_offset(2, 3), 5); // first chunk of `b`
        for chunk_size in [1, 2, 3, 4, 10] {
            assert_tid_offsets_consistent(&chain, chunk_size);
        }
        // Nested chains compound the seam handling.
        let c = db(&[&[10]]);
        let nested = ChainSource::new(&chain, &c);
        for chunk_size in [2, 3] {
            assert_tid_offsets_consistent(&nested, chunk_size);
        }
    }
}
