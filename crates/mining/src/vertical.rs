//! Vertical (tid-list) support counting — the deep-pass alternative to
//! the candidate hash tree.
//!
//! The hash tree answers `Subset(C, T)` by re-scanning every transaction
//! against the candidate pool, so a pass costs `O(|DB| × work(T))` no
//! matter how few candidates remain. A [`VerticalIndex`] inverts the
//! layout: **one** scan materialises, per frequent item, the sorted list
//! of transaction ids (tids) containing it, and from then on the support
//! of any candidate `{i₁ < … < i_k}` is the size of the intersection
//! `tids(i₁) ∩ … ∩ tids(i_k)` — no further scans, and the cost *shrinks*
//! with support, exactly where the hash tree is weakest.
//!
//! ## Layout
//!
//! Tid-lists live in two contiguous arenas, one entry per item:
//!
//! * **sparse** — a sorted `u32` tid run in the shared `sparse` arena,
//!   chosen for items below the density cutoff;
//! * **dense** — a fixed-width `u64` bitset (one bit per transaction) in
//!   the shared `dense` arena, chosen once a list holds more than one tid
//!   per [`DENSE_FACTOR`] transactions, where the bitset is both smaller
//!   and intersects by word-parallel `AND`+popcount.
//!
//! The build runs on the chunked scan machinery of `fup_tidb`: workers
//! claim chunks off an atomic cursor (the `fup_mining::engine` pattern)
//! and recover every transaction's global tid from
//! [`chunk_tid_offset`](fup_tidb::TransactionSource::chunk_tid_offset),
//! so no coordination is needed. [`VerticalIndex::extend`] appends a
//! second source at a tid offset — FUP/FUP2 build the old-DB lists once
//! and the increment's delta scan only extends them, after which
//! [`VerticalIndex::count_rows_split`] yields a candidate's old-DB and
//! increment supports from a *single* intersection.
//!
//! ## Counting
//!
//! Candidates arrive as an [`ItemsetTable`], whose run index groups rows
//! sharing their (k−1)-prefix. Each run intersects the prefix lists
//! **once** into a scratch list, then every row of the run only
//! intersects that cached prefix list with its extension item's list —
//! the run-local reuse that makes deep passes cheap. Runs are batched by
//! row budget and claimed by `std::thread::scope` workers off an atomic
//! cursor; batch outputs concatenate in batch order, so counts are
//! identical at every thread count.
//!
//! ## Fused pass 2
//!
//! `C₂` is every pair over `L₁`, so its supports need no intersections:
//! [`VerticalIndex::build_with_pairs`] bumps a triangular pair matrix
//! over the ranks of the kept items inside the build scan itself
//! (`Σ_T C(|T ∩ L₁|, 2)` increments) and hands the supports back as
//! [`PairSupports`]. Apriori's from-scratch mine reads its pass 2 out of
//! that matrix; every deeper pass, and every maintenance round, counts
//! through the index as described above.
//!
//! ## Backend selection
//!
//! [`CountingBackend`] picks the counting strategy per pass:
//! [`CountingBackend::Auto`] (the default) counts every `k ≥ 2` pass
//! through the vertical index when one over the pass's rows already
//! exists ([`PassProfile::indexed`]): the scan is paid for, so the pass
//! costs intersections only. A cold pass — one that would first have to
//! build the index — stays on the hash tree until the candidate pool,
//! database size, and average transaction residue cross the measured
//! thresholds ([`AUTO_MIN_CANDIDATES`], [`AUTO_MIN_TRANSACTIONS`],
//! [`AUTO_MIN_RESIDUE`] — calibrated with `bench_vertical` on the T10.I4
//! workload). A miner run that builds the index therefore keeps it for
//! its deeper passes, and a maintenance round whose base is already
//! indexed counts through that index however small its pool. Both
//! backends produce bit-identical support counts; only scan accounting
//! differs (the index charges one scan per source, then none).

use crate::engine::{self, EngineConfig};
use crate::itemset::ItemsetTable;
use fup_tidb::{ItemId, TransactionSource};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Density cutoff between list representations: an item's tid-list turns
/// into a dense bitset once `count * DENSE_FACTOR >= num_transactions`
/// (one tid per 32 transactions — the point where the bitset's `n/8`
/// bytes undercut the sorted run's `4·count`).
pub const DENSE_FACTOR: u32 = 32;

/// `Auto` never leaves the hash tree below this source size: the index
/// build is a full scan, and small sources re-scan faster than they
/// index.
pub const AUTO_MIN_TRANSACTIONS: u64 = 4_096;

/// `Auto` never leaves the hash tree below this candidate-pool size: a
/// handful of candidates cost one cheap tree pass, not an index.
pub const AUTO_MIN_CANDIDATES: usize = 256;

/// `Auto` requires at least this many *frequent* items per transaction
/// on average (the transaction residue): below it, hash-tree passes
/// barely descend and the index has nothing to amortise against.
pub const AUTO_MIN_RESIDUE: f64 = 2.0;

/// Largest item set [`VerticalIndex::build_with_pairs`] counts pairs
/// for. Each scan worker owns one triangular `u32` matrix of
/// `m·(m−1)/2` cells, so the cap bounds it at 4096·4095/2 × 4 B ≈ 32 MiB
/// per worker — the size of the `C₂` table the same pass has to hold
/// anyway. Above it the build returns no pair supports and the caller
/// intersects tid-lists instead.
pub const PAIR_MATRIX_MAX_ITEMS: usize = 4096;

/// Rows per counting batch claimed by one worker. Oversized runs are
/// split into segments (each re-intersects the shared prefix once), so a
/// single giant run — `C₂` counting, where runs are per-first-item — still
/// spreads across workers.
const ROWS_PER_BATCH: usize = 1_024;

/// Minimum table size before the parallel counting path engages.
const PARALLEL_MIN_ROWS: usize = 4_096;

/// Sparse∩sparse intersections switch from the linear merge to galloping
/// (binary-searching the longer list) past this length ratio.
const GALLOP_RATIO: usize = 32;

/// Which support-counting strategy a miner's passes use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CountingBackend {
    /// Always the candidate hash tree — the classic scan-per-pass path,
    /// and the paper-faithful one (its scan counts are what the FUP
    /// paper's cost model charges).
    HashTree,
    /// Always the vertical tid-list index (from the first pass with
    /// candidates): one scan per source, then pure intersections.
    Vertical,
    /// Per-pass choice on measured thresholds; see the module docs.
    #[default]
    Auto,
}

/// One pass's shape, as far as backend selection cares.
#[derive(Debug, Clone, Copy)]
pub struct PassProfile {
    /// Candidate size `k` of the pass.
    pub k: usize,
    /// Number of candidates to count (for FUP, `|C|` after the DHP
    /// filter: `W` is counted over the small increment either way).
    pub candidates: usize,
    /// Transactions the pass would otherwise scan.
    pub transactions: u64,
    /// Average *frequent* items per transaction (the residue a scan
    /// actually walks).
    pub residue: f64,
    /// An index over this pass's rows already exists, so counting
    /// through it costs intersections only.
    pub indexed: bool,
}

/// A backend decision for one concrete pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedBackend {
    /// Count this pass through the hash tree.
    HashTree,
    /// Count this pass through the vertical index.
    Vertical,
}

impl CountingBackend {
    /// Resolves the backend for one pass. `Auto` takes the vertical
    /// index for every `k ≥ 2` pass that is already
    /// [`indexed`](PassProfile::indexed), and for a cold one only when it
    /// is big enough on every axis (candidates, transactions, residue);
    /// forced variants ignore the profile.
    pub fn resolve(&self, profile: &PassProfile) -> ResolvedBackend {
        match self {
            CountingBackend::HashTree => ResolvedBackend::HashTree,
            CountingBackend::Vertical => ResolvedBackend::Vertical,
            CountingBackend::Auto => {
                if profile.k >= 2
                    && (profile.indexed
                        || profile.transactions >= AUTO_MIN_TRANSACTIONS
                            && profile.candidates >= AUTO_MIN_CANDIDATES
                            && profile.residue >= AUTO_MIN_RESIDUE)
                {
                    ResolvedBackend::Vertical
                } else {
                    ResolvedBackend::HashTree
                }
            }
        }
    }
}

/// Builds the item-presence bitmap [`VerticalIndex::build`] filters by:
/// one bit per item id, set for every item yielded.
pub fn item_bitmap(items: impl IntoIterator<Item = ItemId>) -> Vec<u64> {
    let mut bits = Vec::new();
    for item in items {
        let i = item.index();
        let word = i >> 6;
        if word >= bits.len() {
            bits.resize(word + 1, 0);
        }
        bits[word] |= 1u64 << (i & 63);
    }
    bits
}

#[inline]
fn bitmap_test(bits: &[u64], item: ItemId) -> bool {
    let i = item.index();
    bits.get(i >> 6)
        .is_some_and(|&word| word & (1u64 << (i & 63)) != 0)
}

/// One item's tid-list: a range into the sparse or dense arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TidListRef {
    /// No transaction contains the item (or it was filtered out).
    Empty,
    /// `len` sorted tids at `sparse[start..start+len]`.
    Sparse { start: usize, len: usize },
    /// `words_per_dense` bitset words at `dense[start..]`; `count` set
    /// bits.
    Dense { start: usize, count: u64 },
}

/// The per-item tid-list index over one (or, after
/// [`extend`](VerticalIndex::extend), several concatenated) transaction
/// sources. See the module docs for layout and counting. Two indexes are
/// equal when their layouts are: same coverage, filter, density cutoff,
/// descriptors and arenas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerticalIndex {
    /// Transactions covered; tids are `0..num_transactions`, in pass
    /// order.
    num_transactions: u64,
    /// Bitset words per dense list: `ceil(num_transactions / 64)`.
    words_per_dense: usize,
    /// Density cutoff in force (see [`DENSE_FACTOR`]).
    dense_factor: u32,
    /// Optional item filter the index was built with (and applies again
    /// on extend): bit per item id.
    keep: Option<Vec<u64>>,
    /// Per-item list descriptors, indexed by item id.
    entries: Vec<TidListRef>,
    /// Shared sorted-run arena.
    sparse: Vec<u32>,
    /// Shared bitset arena.
    dense: Vec<u64>,
}

/// Per-worker accumulator of the build scan: per-item tid lists plus the
/// cursor state recovering global tids from chunk offsets, and — on the
/// fused pass — this worker's pair matrix.
struct GatherAcc {
    cur_chunk: u64,
    base: u64,
    pos: u64,
    lists: Vec<Vec<u32>>,
    /// Triangular pair matrix (empty unless pairs are being counted).
    cells: Vec<u32>,
    /// Ranks of the current transaction's kept items, ascending.
    row_ranks: Vec<u32>,
}

/// Rank-table entry of an item no pair is counted for.
const NO_RANK: u32 = u32::MAX;

/// First cell of rank `hi`'s row in the triangular pair matrix: the pair
/// of ranks `lo < hi` lives at `tri_base(hi) + lo`, rows packed back to
/// back (`hi·(hi−1)/2` cells precede row `hi`).
#[inline]
fn tri_base(hi: u32) -> usize {
    let hi = hi as usize;
    hi * hi.saturating_sub(1) / 2
}

#[cfg(test)]
thread_local! {
    static PAIR_MATRIX_LIMIT: std::cell::Cell<usize> =
        const { std::cell::Cell::new(PAIR_MATRIX_MAX_ITEMS) };
}

/// Test seam: runs `f` with [`PAIR_MATRIX_MAX_ITEMS`] lowered to `limit`
/// on this thread, so the intersection fallback can be driven on a small
/// corpus.
#[cfg(test)]
pub(crate) fn with_pair_matrix_limit<R>(limit: usize, f: impl FnOnce() -> R) -> R {
    let old = PAIR_MATRIX_LIMIT.replace(limit);
    let out = f();
    PAIR_MATRIX_LIMIT.set(old);
    out
}

fn pair_matrix_limit() -> usize {
    #[cfg(test)]
    return PAIR_MATRIX_LIMIT.get();
    #[cfg(not(test))]
    PAIR_MATRIX_MAX_ITEMS
}

/// The support of every 2-subset of an item set, counted by
/// [`VerticalIndex::build_with_pairs`] in the scan that built the index.
#[derive(Debug)]
pub struct PairSupports {
    /// Rank of each item id among the counted items ([`NO_RANK`] for the
    /// rest).
    ranks: Vec<u32>,
    /// Triangular matrix of pair supports; see [`tri_base`].
    cells: Vec<u32>,
}

impl PairSupports {
    /// An all-zero matrix over `items` (strictly ascending) for a source
    /// of `num_transactions` rows, or `None` when `items` exceeds the
    /// [`PAIR_MATRIX_MAX_ITEMS`] bound.
    fn zeroed(items: &[ItemId], num_transactions: u64) -> Option<Self> {
        if items.len() > pair_matrix_limit() {
            return None;
        }
        // A cell counts transactions, so `u32` holds it exactly while the
        // tid space does.
        assert!(
            num_transactions < u32::MAX as u64,
            "pair counters are u32: transaction count exceeds them"
        );
        let num_cells = items
            .len()
            .checked_mul(items.len().saturating_sub(1))
            .expect("pair matrix size overflows usize")
            / 2;
        let mut ranks = vec![NO_RANK; items.last().map_or(0, |i| i.index() + 1)];
        for (rank, item) in items.iter().enumerate() {
            ranks[item.index()] = rank as u32;
        }
        Some(PairSupports {
            ranks,
            cells: vec![0u32; num_cells],
        })
    }

    /// The support of `{a, b}`, or `None` unless both are distinct items
    /// of the set the pairs were counted over.
    pub fn support(&self, a: ItemId, b: ItemId) -> Option<u64> {
        let rank = |item: ItemId| {
            self.ranks
                .get(item.index())
                .copied()
                .filter(|&r| r != NO_RANK)
        };
        let (ra, rb) = (rank(a)?, rank(b)?);
        if ra == rb {
            return None;
        }
        let (lo, hi) = (ra.min(rb), ra.max(rb));
        Some(u64::from(self.cells[tri_base(hi) + lo as usize]))
    }
}

impl VerticalIndex {
    /// Builds the index over one full pass of `source`, with the default
    /// [`DENSE_FACTOR`] density cutoff.
    ///
    /// `keep` optionally restricts indexing to the items whose bit is set
    /// (see [`item_bitmap`]) — miners pass their `L₁` so filler items
    /// cost nothing; `None` indexes every item. The pass is parallelised
    /// per `config` (chunked workers, atomic cursor) and charged to the
    /// source's `ScanMetrics` exactly once, like any counting pass.
    ///
    /// # Panics
    ///
    /// Panics if the source holds `u32::MAX` transactions or more (tids
    /// are `u32`).
    pub fn build<S>(source: &S, keep: Option<&[u64]>, config: &EngineConfig) -> Self
    where
        S: TransactionSource + ?Sized,
    {
        Self::build_with_density(source, keep, config, DENSE_FACTOR)
    }

    /// [`VerticalIndex::build`] with an explicit density cutoff:
    /// `dense_factor = 0` keeps every list sparse, `u32::MAX` forces
    /// every non-empty list dense. Property tests drive both extremes;
    /// counting is representation-independent.
    pub fn build_with_density<S>(
        source: &S,
        keep: Option<&[u64]>,
        config: &EngineConfig,
        dense_factor: u32,
    ) -> Self
    where
        S: TransactionSource + ?Sized,
    {
        let n = source.num_transactions();
        assert!(n < u32::MAX as u64, "tid space exceeds u32");
        let lists = gather_tid_lists(source, keep, 0, config);
        Self::from_lists(n, lists, keep.map(<[u64]>::to_vec), dense_factor)
    }

    /// [`VerticalIndex::build`] filtered to `items`, which additionally
    /// counts the support of every pair over `items` inside the same
    /// scan — Apriori's whole pass 2, for the price of the index build.
    /// The index is identical to `build(source, Some(&item_bitmap(items)),
    /// config)` and the source is charged that one scan.
    ///
    /// The pair supports are `None` when `items` holds more than
    /// [`PAIR_MATRIX_MAX_ITEMS`] items (the matrix would outgrow its
    /// per-worker bound); the caller then counts `C₂` through
    /// [`count_rows`](VerticalIndex::count_rows) as for any other pass.
    ///
    /// # Panics
    ///
    /// Panics if `items` is not strictly ascending, or if the source
    /// holds `u32::MAX` transactions or more (tids and pair counters are
    /// `u32`).
    pub fn build_with_pairs<S>(
        source: &S,
        items: &[ItemId],
        config: &EngineConfig,
    ) -> (Self, Option<PairSupports>)
    where
        S: TransactionSource + ?Sized,
    {
        assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "pair items must be strictly ascending"
        );
        let n = source.num_transactions();
        assert!(n < u32::MAX as u64, "tid space exceeds u32");
        let keep = item_bitmap(items.iter().copied());
        let mut pairs = PairSupports::zeroed(items, n);
        let lists = gather_lists_and_pairs(source, Some(&keep), 0, config, pairs.as_mut());
        let index = Self::from_lists(n, lists, Some(keep), DENSE_FACTOR);
        (index, pairs)
    }

    /// Appends one full pass of `source` at tid offset
    /// `num_transactions()` — the index then covers the concatenation, as
    /// if built over a [`ChainSource`](fup_tidb::source::ChainSource).
    /// Only the delta is scanned; existing lists are re-packed in memory
    /// (re-deciding each item's representation for the new density), one
    /// item at a time, so the re-pack holds the old and the new arenas
    /// but never a third, unpacked copy of every list.
    ///
    /// # Panics
    ///
    /// Panics if the combined tid space reaches `u32::MAX`.
    pub fn extend<S>(&mut self, source: &S, config: &EngineConfig)
    where
        S: TransactionSource + ?Sized,
    {
        let delta = source.num_transactions();
        if delta == 0 {
            return;
        }
        let offset = self.num_transactions;
        let new_n = offset + delta;
        assert!(new_n < u32::MAX as u64, "tid space exceeds u32");
        let delta_lists = gather_tid_lists(source, self.keep.as_deref(), offset, config);
        let items = self.entries.len().max(delta_lists.len());
        let keep = self.keep.take();
        let old = &*self;
        let lists = (0..items).map(|item| {
            let delta_list = delta_lists.get(item).map(Vec::as_slice).unwrap_or(&[]);
            let mut list = Vec::with_capacity(old.list_len(item) + delta_list.len());
            old.for_each_tid(item, |tid| list.push(tid));
            list.extend_from_slice(delta_list);
            list
        });
        *self = Self::from_lists(new_n, lists, keep, self.dense_factor);
    }

    /// Packs raw per-item lists (sorted, distinct tids), in item order,
    /// into the arenas, deciding each item's representation by density.
    fn from_lists(
        num_transactions: u64,
        lists: impl IntoIterator<Item = Vec<u32>>,
        keep: Option<Vec<u64>>,
        dense_factor: u32,
    ) -> Self {
        let words_per_dense = num_transactions.div_ceil(64) as usize;
        let lists = lists.into_iter();
        let mut entries = Vec::with_capacity(lists.size_hint().0);
        let mut sparse = Vec::new();
        let mut dense = Vec::new();
        for list in lists {
            if list.is_empty() {
                entries.push(TidListRef::Empty);
                continue;
            }
            debug_assert!(list.windows(2).all(|w| w[0] < w[1]), "tids must be sorted");
            let is_dense = (list.len() as u64).saturating_mul(u64::from(dense_factor))
                >= num_transactions
                && dense_factor > 0;
            if is_dense {
                let start = dense.len();
                dense.resize(start + words_per_dense, 0u64);
                for &tid in &list {
                    dense[start + (tid >> 6) as usize] |= 1u64 << (tid & 63);
                }
                entries.push(TidListRef::Dense {
                    start,
                    count: list.len() as u64,
                });
            } else {
                let start = sparse.len();
                sparse.extend_from_slice(&list);
                entries.push(TidListRef::Sparse {
                    start,
                    len: list.len(),
                });
            }
        }
        VerticalIndex {
            num_transactions,
            words_per_dense,
            dense_factor,
            keep,
            entries,
            sparse,
            dense,
        }
    }

    /// Transactions covered (tids run `0..num_transactions()`).
    pub fn num_transactions(&self) -> u64 {
        self.num_transactions
    }

    /// The support (tid-list length) of `item`.
    pub fn support(&self, item: ItemId) -> u64 {
        match self.entry(item.index()) {
            TidListRef::Empty => 0,
            TidListRef::Sparse { len, .. } => len as u64,
            TidListRef::Dense { count, .. } => count,
        }
    }

    /// `Some(true)` if `item`'s list is a dense bitset, `Some(false)` if
    /// a sparse run, `None` if the item is not indexed.
    pub fn is_dense(&self, item: ItemId) -> Option<bool> {
        match self.entry(item.index()) {
            TidListRef::Empty => None,
            TidListRef::Sparse { .. } => Some(false),
            TidListRef::Dense { .. } => Some(true),
        }
    }

    /// Arena footprint `(sparse_bytes, dense_bytes)` — reported by
    /// `bench_vertical` so the memory cost of the index is on record.
    pub fn arena_bytes(&self) -> (usize, usize) {
        (self.sparse.len() * 4, self.dense.len() * 8)
    }

    /// `true` if every item whose bit is set in `needed` (see
    /// [`item_bitmap`]) was indexed — i.e. the index's build filter covers
    /// the set. An unfiltered index covers everything. A persistent index
    /// kept across maintenance rounds is reusable only while this holds:
    /// a newly-frequent item outside a filtered index's filter
    /// ("dictionary growth") forces a rebuild.
    pub fn covers(&self, needed: &[u64]) -> bool {
        match &self.keep {
            None => true,
            Some(keep) => needed
                .iter()
                .enumerate()
                .all(|(w, &bits)| keep.get(w).copied().unwrap_or(0) & bits == bits),
        }
    }

    #[inline]
    fn entry(&self, item: usize) -> TidListRef {
        self.entries.get(item).copied().unwrap_or(TidListRef::Empty)
    }

    fn list_len(&self, item: usize) -> usize {
        match self.entry(item) {
            TidListRef::Empty => 0,
            TidListRef::Sparse { len, .. } => len,
            TidListRef::Dense { count, .. } => count as usize,
        }
    }

    /// Visits `item`'s tids in ascending order (both representations).
    fn for_each_tid(&self, item: usize, mut f: impl FnMut(u32)) {
        match self.entry(item) {
            TidListRef::Empty => {}
            TidListRef::Sparse { start, len } => {
                for &tid in &self.sparse[start..start + len] {
                    f(tid);
                }
            }
            TidListRef::Dense { start, .. } => {
                for (w, &word) in self.dense[start..start + self.words_per_dense]
                    .iter()
                    .enumerate()
                {
                    let mut bits = word;
                    while bits != 0 {
                        let b = bits.trailing_zeros();
                        f((w as u32) << 6 | b);
                        bits &= bits - 1;
                    }
                }
            }
        }
    }

    /// The support of every row of `table`, in row order — each run's
    /// (k−1)-prefix intersection is computed once and reused across the
    /// run's rows, and run batches are counted in parallel per `config`.
    /// Counts are exact and identical at every thread count.
    pub fn count_rows(&self, table: &ItemsetTable, config: &EngineConfig) -> Vec<u64> {
        self.count_rows_split(table, self.num_transactions, config)
            .into_iter()
            .map(|(below, _)| below)
            .collect()
    }

    /// Like [`count_rows`](VerticalIndex::count_rows), but each row's
    /// support is split at the tid `boundary`: `(support among tids <
    /// boundary, support among tids ≥ boundary)`. With an index built
    /// over `DB` and extended by the increment at `boundary = |DB|`, one
    /// intersection yields a candidate's old-DB and increment supports at
    /// once — FUP's Lemma-5 pruning and its DB check collapse into a
    /// single pass.
    pub fn count_rows_split(
        &self,
        table: &ItemsetTable,
        boundary: u64,
        config: &EngineConfig,
    ) -> Vec<(u64, u64)> {
        if table.is_empty() {
            return Vec::new();
        }
        let segments = plan_segments(table);
        let threads = config.resolved_threads();
        if threads <= 1 || table.len() < PARALLEL_MIN_ROWS {
            let mut out = Vec::with_capacity(table.len());
            let mut scratch = RunScratch::default();
            for seg in &segments {
                self.count_segment(table, seg, boundary, &mut scratch, &mut out);
            }
            return out;
        }
        // Parallel path: workers claim segment indices off an atomic
        // cursor; per-segment outputs concatenate in segment (= row)
        // order.
        let workers = threads.min(segments.len());
        let cursor = AtomicUsize::new(0);
        let mut per_worker: Vec<SegmentCounts> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let cursor = &cursor;
                let segments = &segments;
                handles.push(scope.spawn(move || {
                    let mut done: SegmentCounts = Vec::new();
                    let mut scratch = RunScratch::default();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= segments.len() {
                            break;
                        }
                        let mut out = Vec::with_capacity(segments[i].rows());
                        self.count_segment(table, &segments[i], boundary, &mut scratch, &mut out);
                        done.push((i, out));
                    }
                    done
                }));
            }
            for handle in handles {
                per_worker.push(handle.join().expect("vertical counting worker panicked"));
            }
        });
        let mut done: SegmentCounts = per_worker.into_iter().flatten().collect();
        done.sort_unstable_by_key(|(i, _)| *i);
        let mut out = Vec::with_capacity(table.len());
        for (_, counts) in done {
            out.extend(counts);
        }
        out
    }

    /// Counts rows `seg.lo..seg.hi` (all inside one prefix run): the
    /// shared prefix is intersected once, then each row intersects the
    /// cached prefix list with its extension item's list.
    fn count_segment(
        &self,
        table: &ItemsetTable,
        seg: &Segment,
        boundary: u64,
        scratch: &mut RunScratch,
        out: &mut Vec<(u64, u64)>,
    ) {
        let k = table.k();
        let (lo, hi) = (seg.lo as usize, seg.hi as usize);
        if k == 1 {
            for row in lo..hi {
                out.push(self.split_support(table.row(row)[0], boundary));
            }
            return;
        }
        let prefix_items = &table.row(lo)[..k - 1];
        let prefix = match self.intersect_prefix(prefix_items, scratch) {
            Some(p) => p,
            None => {
                out.extend(std::iter::repeat_n((0, 0), hi - lo));
                return;
            }
        };
        for row in lo..hi {
            let z = table.row(row)[k - 1];
            out.push(match (prefix, self.entry(z.index())) {
                (_, TidListRef::Empty) => (0, 0),
                (Prefix::Sparse(p), TidListRef::Sparse { start, len }) => {
                    count_sparse_sparse(p, &self.sparse[start..start + len], boundary)
                }
                (Prefix::Sparse(p), TidListRef::Dense { start, .. }) => count_sparse_dense(
                    p,
                    &self.dense[start..start + self.words_per_dense],
                    boundary,
                ),
                (Prefix::Dense(pw), TidListRef::Sparse { start, len }) => {
                    count_sparse_dense(&self.sparse[start..start + len], pw, boundary)
                }
                (Prefix::Dense(pw), TidListRef::Dense { start, .. }) => count_dense_dense(
                    pw,
                    &self.dense[start..start + self.words_per_dense],
                    boundary,
                ),
            });
        }
    }

    /// Support of a single item split at `boundary` (the k = 1 case).
    fn split_support(&self, item: ItemId, boundary: u64) -> (u64, u64) {
        match self.entry(item.index()) {
            TidListRef::Empty => (0, 0),
            TidListRef::Sparse { start, len } => {
                let list = &self.sparse[start..start + len];
                let below = list.partition_point(|&tid| u64::from(tid) < boundary);
                (below as u64, (len - below) as u64)
            }
            TidListRef::Dense { start, count } => {
                let words = &self.dense[start..start + self.words_per_dense];
                let below = count_bits_below(words, boundary);
                (below, count - below)
            }
        }
    }

    /// Intersects the (k−1)-prefix lists. A single-item prefix borrows
    /// its native representation (no copy — the `C₂` fast path); longer
    /// prefixes are merged smallest-list-first into the scratch, which
    /// shrinks at every step. Returns `None` when the intersection is
    /// provably empty.
    fn intersect_prefix<'s>(
        &'s self,
        prefix_items: &[ItemId],
        scratch: &'s mut RunScratch,
    ) -> Option<Prefix<'s>> {
        debug_assert!(!prefix_items.is_empty());
        if prefix_items.len() == 1 {
            return match self.entry(prefix_items[0].index()) {
                TidListRef::Empty => None,
                TidListRef::Sparse { start, len } => {
                    Some(Prefix::Sparse(&self.sparse[start..start + len]))
                }
                TidListRef::Dense { start, .. } => Some(Prefix::Dense(
                    &self.dense[start..start + self.words_per_dense],
                )),
            };
        }
        // Order by ascending support so the working list starts minimal.
        scratch.order.clear();
        scratch.order.extend(prefix_items.iter().map(|i| i.index()));
        scratch.order.sort_unstable_by_key(|&i| self.list_len(i));
        if self.list_len(scratch.order[0]) == 0 {
            return None;
        }
        scratch.acc.clear();
        self.for_each_tid(scratch.order[0], |tid| scratch.acc.push(tid));
        for &item in &scratch.order[1..] {
            match self.entry(item) {
                TidListRef::Empty => return None,
                TidListRef::Dense { start, .. } => {
                    let words = &self.dense[start..start + self.words_per_dense];
                    scratch
                        .acc
                        .retain(|&tid| words[(tid >> 6) as usize] & (1u64 << (tid & 63)) != 0);
                }
                TidListRef::Sparse { start, len } => {
                    let other = &self.sparse[start..start + len];
                    scratch.tmp.clear();
                    intersect_into(&scratch.acc, other, &mut scratch.tmp);
                    std::mem::swap(&mut scratch.acc, &mut scratch.tmp);
                }
            }
            if scratch.acc.is_empty() {
                return None;
            }
        }
        Some(Prefix::Sparse(&scratch.acc))
    }
}

/// Per-worker output of the parallel counting path: `(segment index,
/// per-row split counts)` pairs, stitched back in segment order.
type SegmentCounts = Vec<(usize, Vec<(u64, u64)>)>;

/// The cached prefix intersection a run's rows count against.
#[derive(Clone, Copy)]
enum Prefix<'a> {
    /// Sorted tid run (borrowed from the arena or the run scratch).
    Sparse(&'a [u32]),
    /// Borrowed dense bitset words (single dense prefix item).
    Dense(&'a [u64]),
}

/// Reusable per-worker scratch for run counting.
#[derive(Default)]
struct RunScratch {
    acc: Vec<u32>,
    tmp: Vec<u32>,
    order: Vec<usize>,
}

/// A contiguous row range inside one prefix run.
struct Segment {
    lo: u32,
    hi: u32,
}

impl Segment {
    fn rows(&self) -> usize {
        (self.hi - self.lo) as usize
    }
}

/// Chops the table into row segments of at most [`ROWS_PER_BATCH`] rows,
/// never straddling a run boundary (each segment shares one prefix).
fn plan_segments(table: &ItemsetTable) -> Vec<Segment> {
    let mut segments = Vec::new();
    for r in 0..table.num_runs() {
        let (start, end) = table.run_bounds(r);
        let mut lo = start;
        while lo < end {
            let hi = (lo + ROWS_PER_BATCH).min(end);
            segments.push(Segment {
                lo: lo as u32,
                hi: hi as u32,
            });
            lo = hi;
        }
    }
    segments
}

/// One chunked pass over `source` gathering per-item tid lists (tids
/// shifted by `offset`), parallelised through [`engine::scan_fold`].
fn gather_tid_lists<S>(
    source: &S,
    keep: Option<&[u64]>,
    offset: u64,
    config: &EngineConfig,
) -> Vec<Vec<u32>>
where
    S: TransactionSource + ?Sized,
{
    gather_lists_and_pairs(source, keep, offset, config, None)
}

/// [`gather_tid_lists`], which with `pairs` (zeroed, ranking exactly the
/// items `keep` admits) also counts every pair of kept items per
/// transaction in the same pass — one matrix per worker, summed into
/// `pairs` like any `scan_fold` accumulator.
fn gather_lists_and_pairs<S>(
    source: &S,
    keep: Option<&[u64]>,
    offset: u64,
    config: &EngineConfig,
    mut pairs: Option<&mut PairSupports>,
) -> Vec<Vec<u32>>
where
    S: TransactionSource + ?Sized,
{
    let chunk_size = config.chunk_size.max(1);
    let pair_ranks = pairs.as_deref().map(|p| p.ranks.as_slice());
    let num_cells = pairs.as_deref().map_or(0, |p| p.cells.len());
    let folds = engine::scan_fold(
        source,
        config,
        || GatherAcc {
            cur_chunk: u64::MAX,
            base: 0,
            pos: 0,
            lists: Vec::new(),
            cells: vec![0u32; num_cells],
            row_ranks: Vec::new(),
        },
        |acc, chunk, t| {
            if chunk != acc.cur_chunk {
                acc.cur_chunk = chunk;
                acc.base = source.chunk_tid_offset(chunk_size, chunk);
                acc.pos = 0;
            }
            let tid = (offset + acc.base + acc.pos) as u32;
            acc.pos += 1;
            acc.row_ranks.clear();
            for &item in t {
                if keep.is_some_and(|bits| !bitmap_test(bits, item)) {
                    continue;
                }
                let i = item.index();
                if i >= acc.lists.len() {
                    acc.lists.resize_with(i + 1, Vec::new);
                }
                acc.lists[i].push(tid);
                if let Some(ranks) = pair_ranks {
                    acc.row_ranks.push(ranks[i]);
                }
            }
            // Items ascend within a transaction and ranks ascend with
            // items, so every earlier rank is the `lo` of the pair.
            for (j, &hi) in acc.row_ranks.iter().enumerate().skip(1) {
                let row = &mut acc.cells[tri_base(hi)..][..hi as usize];
                for &lo in &acc.row_ranks[..j] {
                    row[lo as usize] += 1;
                }
            }
        },
    );
    // Per-worker lists are individually sorted (chunks are claimed in
    // increasing order); across workers they interleave, so concatenate
    // and sort — tids are distinct, making the result canonical. Pair
    // cells are plain counts and merge by summation.
    let mut folds = folds.into_iter();
    let mut lists = Vec::new();
    if let Some(first) = folds.next() {
        lists = first.lists;
        if let Some(pairs) = pairs.as_deref_mut() {
            // Zero plus the first worker's counts is the first worker's
            // matrix: adopt it instead of adding it.
            pairs.cells = first.cells;
        }
    }
    let mut merged_any = false;
    for fold in folds {
        merged_any = true;
        if let Some(pairs) = pairs.as_deref_mut() {
            for (total, cell) in pairs.cells.iter_mut().zip(fold.cells) {
                *total += cell;
            }
        }
        if fold.lists.len() > lists.len() {
            lists.resize_with(fold.lists.len(), Vec::new);
        }
        for (item, mut list) in fold.lists.into_iter().enumerate() {
            lists[item].append(&mut list);
        }
    }
    if merged_any {
        for list in &mut lists {
            list.sort_unstable();
        }
    }
    lists
}

/// Intersects two sorted runs into `out` (linear merge).
fn intersect_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// `|a ∩ b|` for sorted runs, split at `boundary`. Gallops (binary
/// search per probe) when one side dwarfs the other, else a two-pointer
/// merge.
fn count_sparse_sparse(a: &[u32], b: &[u32], boundary: u64) -> (u64, u64) {
    let (small, big) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut below = 0u64;
    let mut above = 0u64;
    if small.is_empty() {
        return (0, 0);
    }
    if big.len() / small.len() >= GALLOP_RATIO {
        // Gallop: probe each element of the short run into the long one,
        // advancing the search window monotonically.
        let mut from = 0usize;
        for &tid in small {
            let pos = from + big[from..].partition_point(|&x| x < tid);
            if pos < big.len() && big[pos] == tid {
                if u64::from(tid) < boundary {
                    below += 1;
                } else {
                    above += 1;
                }
            }
            from = pos;
            if from >= big.len() {
                break;
            }
        }
        return (below, above);
    }
    let (mut i, mut j) = (0, 0);
    while i < small.len() && j < big.len() {
        match small[i].cmp(&big[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if u64::from(small[i]) < boundary {
                    below += 1;
                } else {
                    above += 1;
                }
                i += 1;
                j += 1;
            }
        }
    }
    (below, above)
}

/// `|run ∩ bitset|` split at `boundary`: probe each tid of the sorted run
/// into the bitset words.
fn count_sparse_dense(run: &[u32], words: &[u64], boundary: u64) -> (u64, u64) {
    let mut below = 0u64;
    let mut above = 0u64;
    for &tid in run {
        if words[(tid >> 6) as usize] & (1u64 << (tid & 63)) != 0 {
            if u64::from(tid) < boundary {
                below += 1;
            } else {
                above += 1;
            }
        }
    }
    (below, above)
}

/// `AND`+popcount over two equal-length word runs, unrolled over 4-word
/// blocks with independent accumulators — the first step of the SIMD
/// roadmap: four popcounts per iteration with no loop-carried dependency,
/// which autovectorises (and pipelines on scalar popcnt) far better than
/// the word-at-a-time loop.
#[inline]
fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0u64; 4];
    let mut blocks_a = a.chunks_exact(4);
    let mut blocks_b = b.chunks_exact(4);
    for (ba, bb) in blocks_a.by_ref().zip(blocks_b.by_ref()) {
        acc[0] += u64::from((ba[0] & bb[0]).count_ones());
        acc[1] += u64::from((ba[1] & bb[1]).count_ones());
        acc[2] += u64::from((ba[2] & bb[2]).count_ones());
        acc[3] += u64::from((ba[3] & bb[3]).count_ones());
    }
    let mut total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (&x, &y) in blocks_a.remainder().iter().zip(blocks_b.remainder()) {
        total += u64::from((x & y).count_ones());
    }
    total
}

/// `|bitset ∩ bitset|` split at `boundary`: the whole-word prefix and
/// suffix run through the unrolled [`and_popcount`] kernel; only the
/// single word straddling the boundary is masked bit-wise.
fn count_dense_dense(a: &[u64], b: &[u64], boundary: u64) -> (u64, u64) {
    debug_assert_eq!(a.len(), b.len());
    let bw = ((boundary / 64) as usize).min(a.len());
    let rem = (boundary % 64) as u32;
    let mut below = and_popcount(&a[..bw], &b[..bw]);
    let mut above;
    if rem > 0 && bw < a.len() {
        let and = a[bw] & b[bw];
        let mask = (1u64 << rem) - 1;
        below += u64::from((and & mask).count_ones());
        above = u64::from((and & !mask).count_ones());
        above += and_popcount(&a[bw + 1..], &b[bw + 1..]);
    } else {
        above = and_popcount(&a[bw..], &b[bw..]);
    }
    (below, above)
}

/// Set bits among the first `boundary` bit positions.
fn count_bits_below(words: &[u64], boundary: u64) -> u64 {
    let bw = (boundary / 64) as usize;
    let rem = (boundary % 64) as u32;
    let mut below = 0u64;
    for &word in words.iter().take(bw) {
        below += u64::from(word.count_ones());
    }
    if rem > 0 {
        if let Some(&word) = words.get(bw) {
            below += u64::from((word & ((1u64 << rem) - 1)).count_ones());
        }
    }
    below
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itemset::Itemset;
    use fup_tidb::source::ChainSource;
    use fup_tidb::transaction::contains_sorted;
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

    /// A deterministic mid-size database with both very frequent and rare
    /// items, to exercise dense and sparse lists together.
    fn mixed_db(n: u32) -> TransactionDb {
        TransactionDb::from_transactions((0..n).map(|i| {
            let mut items = vec![0u32]; // item 0 in every transaction
            if i % 2 == 0 {
                items.push(1);
            }
            if i % 3 == 0 {
                items.push(2);
            }
            if i % 7 == 0 {
                items.push(3);
            }
            items.push(10 + (i % 50)); // each ~2% of transactions
            items.push(100 + (i % 97)); // each ~1%
            Transaction::from_items(items)
        }))
    }

    fn naive_split(source: &TransactionDb, rows: &ItemsetTable, boundary: u64) -> Vec<(u64, u64)> {
        let mut tid = 0u64;
        let mut out = vec![(0u64, 0u64); rows.len()];
        source.for_each(&mut |t| {
            for (i, row) in rows.rows().enumerate() {
                if contains_sorted(t, row) {
                    if tid < boundary {
                        out[i].0 += 1;
                    } else {
                        out[i].1 += 1;
                    }
                }
            }
            tid += 1;
        });
        out
    }

    #[test]
    fn item_supports_match_counts() {
        let d = mixed_db(500);
        let idx = VerticalIndex::build(&d, None, &EngineConfig::serial());
        assert_eq!(idx.num_transactions(), 500);
        assert_eq!(idx.support(ItemId(0)), 500);
        assert_eq!(idx.support(ItemId(1)), 250);
        assert_eq!(idx.support(ItemId(2)), 167);
        assert_eq!(idx.support(ItemId(999)), 0);
        // Item 0 is in every transaction → dense; the ~1% tail is sparse.
        assert_eq!(idx.is_dense(ItemId(0)), Some(true));
        assert_eq!(idx.is_dense(ItemId(100)), Some(false));
        assert_eq!(idx.is_dense(ItemId(999)), None);
    }

    #[test]
    fn count_rows_matches_naive_containment() {
        let d = mixed_db(400);
        let pool = [
            s(&[0, 1]),
            s(&[0, 2]),
            s(&[1, 2]),
            s(&[1, 3]),
            s(&[0, 10]),
            s(&[10, 100]),
            s(&[0, 1, 2]),
            s(&[1, 2, 3]),
        ];
        // Tables hold one size; check each k separately.
        for k in [2usize, 3] {
            let sets: Vec<Itemset> = pool.iter().filter(|x| x.k() == k).cloned().collect();
            if sets.is_empty() {
                continue;
            }
            let table = ItemsetTable::from_itemsets(&sets);
            let truth = naive_split(&d, &table, 400);
            for factor in [0u32, DENSE_FACTOR, u32::MAX] {
                let idx =
                    VerticalIndex::build_with_density(&d, None, &EngineConfig::serial(), factor);
                let counts = idx.count_rows(&table, &EngineConfig::serial());
                let expect: Vec<u64> = truth.iter().map(|&(b, _)| b).collect();
                assert_eq!(counts, expect, "k {k} dense_factor {factor}");
            }
        }
    }

    #[test]
    fn split_counting_matches_naive_at_every_boundary() {
        let d = mixed_db(300);
        let table = ItemsetTable::from_itemsets(&[s(&[0, 1]), s(&[1, 2]), s(&[2, 10])]);
        for boundary in [0u64, 1, 63, 64, 65, 150, 299, 300] {
            let truth = naive_split(&d, &table, boundary);
            for factor in [0u32, u32::MAX] {
                let idx =
                    VerticalIndex::build_with_density(&d, None, &EngineConfig::serial(), factor);
                let got = idx.count_rows_split(&table, boundary, &EngineConfig::serial());
                assert_eq!(got, truth, "boundary {boundary} factor {factor}");
            }
        }
    }

    #[test]
    fn parallel_build_and_count_match_serial() {
        let d = mixed_db(600);
        let table = ItemsetTable::from_itemsets(&[
            s(&[0, 1]),
            s(&[0, 2]),
            s(&[0, 10]),
            s(&[1, 2]),
            s(&[1, 11]),
            s(&[2, 3]),
        ]);
        let serial_idx = VerticalIndex::build(&d, None, &EngineConfig::serial());
        let serial = serial_idx.count_rows(&table, &EngineConfig::serial());
        for threads in [2usize, 8] {
            for chunk_size in [1usize, 7, 64] {
                let cfg = EngineConfig {
                    threads,
                    chunk_size,
                    ..EngineConfig::default()
                };
                let idx = VerticalIndex::build(&d, None, &cfg);
                assert_eq!(
                    idx.count_rows(&table, &cfg),
                    serial,
                    "threads {threads} chunk {chunk_size}"
                );
            }
        }
    }

    /// Every 2-subset of `items`: the `C₂` `apriori-gen` makes of them.
    fn all_pairs(items: &[ItemId]) -> ItemsetTable {
        let level = ItemsetTable::from_flat_rows(1, items.to_vec());
        crate::gen::apriori_gen_flat(&level, &crate::gen::GenConfig::serial())
    }

    #[test]
    fn fused_pairs_match_intersections_and_build_the_same_index() {
        let d = mixed_db(600);
        // Dense (0..3), ~2% (10, 11) and ~1% (100, 150) items, plus one
        // that never occurs.
        let items: Vec<ItemId> = [0, 1, 2, 3, 10, 11, 100, 150, 900]
            .into_iter()
            .map(ItemId)
            .collect();
        let c2 = all_pairs(&items);
        let keep = item_bitmap(items.iter().copied());
        let plain = VerticalIndex::build(&d, Some(&keep), &EngineConfig::serial());
        let expect = plain.count_rows(&c2, &EngineConfig::serial());
        assert!(expect.iter().any(|&c| c > 0));
        for threads in [1usize, 2, 8] {
            for chunk_size in [1usize, 7, 1024] {
                let cfg = EngineConfig {
                    threads,
                    chunk_size,
                    ..EngineConfig::default()
                };
                let (idx, pairs) = VerticalIndex::build_with_pairs(&d, &items, &cfg);
                let pairs = pairs.expect("9 items fit the matrix");
                let got: Vec<u64> = c2
                    .rows()
                    .map(|r| pairs.support(r[0], r[1]).unwrap())
                    .collect();
                assert_eq!(got, expect, "threads {threads} chunk {chunk_size}");
                assert_eq!(idx.entries, plain.entries);
                assert_eq!(idx.sparse, plain.sparse);
                assert_eq!(idx.dense, plain.dense);
                assert_eq!(idx.keep, plain.keep);
            }
        }
        // One scan, like the plain build.
        let fresh = mixed_db(600);
        let _ = VerticalIndex::build_with_pairs(&fresh, &items, &EngineConfig::serial());
        assert_eq!(fresh.metrics().full_scans(), 1);
    }

    #[test]
    fn pair_supports_answer_only_counted_pairs() {
        let d = db(&[&[1, 2, 3], &[1, 2], &[2, 3], &[5]]);
        let items = [ItemId(1), ItemId(2), ItemId(5)];
        let (_, pairs) = VerticalIndex::build_with_pairs(&d, &items, &EngineConfig::serial());
        let pairs = pairs.unwrap();
        assert_eq!(pairs.support(ItemId(1), ItemId(2)), Some(2));
        assert_eq!(pairs.support(ItemId(2), ItemId(1)), Some(2)); // either order
        assert_eq!(pairs.support(ItemId(1), ItemId(5)), Some(0));
        assert_eq!(pairs.support(ItemId(2), ItemId(3)), None); // 3 not counted
        assert_eq!(pairs.support(ItemId(2), ItemId(2)), None); // not a pair
        assert_eq!(pairs.support(ItemId(2), ItemId(999)), None);
        // Degenerate item sets have no pairs but still build the index.
        for (items, support_of_2) in [(&[][..], 0), (&[ItemId(2)][..], 3)] {
            let (idx, pairs) = VerticalIndex::build_with_pairs(&d, items, &EngineConfig::serial());
            assert!(pairs.unwrap().cells.is_empty());
            assert_eq!(idx.support(ItemId(2)), support_of_2);
        }
    }

    #[test]
    fn pair_matrix_bound_falls_back_to_no_pairs() {
        let d = mixed_db(200);
        let items: Vec<ItemId> = (0..4).map(ItemId).collect();
        let cfg = EngineConfig::serial();
        let plain = VerticalIndex::build(&d, Some(&item_bitmap(items.iter().copied())), &cfg);
        // At the bound the matrix is counted; one item over, it is not —
        // and the index comes out the same either way.
        for (limit, counted) in [(4usize, true), (3, false)] {
            let (idx, pairs) =
                with_pair_matrix_limit(limit, || VerticalIndex::build_with_pairs(&d, &items, &cfg));
            assert_eq!(pairs.is_some(), counted, "limit {limit}");
            assert_eq!(idx.entries, plain.entries);
            assert_eq!(idx.dense, plain.dense);
        }
        // The shipped bound is what the doc comment's bytes-per-worker
        // figure is computed from.
        let cells = PAIR_MATRIX_MAX_ITEMS * (PAIR_MATRIX_MAX_ITEMS - 1) / 2;
        assert_eq!(cells * std::mem::size_of::<u32>(), 33_546_240);
        assert_eq!(tri_base(PAIR_MATRIX_MAX_ITEMS as u32), cells);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn build_with_pairs_rejects_unsorted_items() {
        let d = db(&[&[1, 2]]);
        let _ =
            VerticalIndex::build_with_pairs(&d, &[ItemId(2), ItemId(1)], &EngineConfig::serial());
    }

    #[test]
    fn keep_bitmap_filters_items() {
        let d = db(&[&[1, 2, 3], &[1, 2], &[2, 3]]);
        let keep = item_bitmap([ItemId(1), ItemId(2)]);
        let idx = VerticalIndex::build(&d, Some(&keep), &EngineConfig::serial());
        assert_eq!(idx.support(ItemId(1)), 2);
        assert_eq!(idx.support(ItemId(2)), 3);
        assert_eq!(idx.support(ItemId(3)), 0); // filtered
    }

    #[test]
    fn extend_equals_build_over_chain() {
        let a = mixed_db(200);
        let b = db(&[&[0, 1, 7], &[2, 7, 200], &[0, 2], &[7]]);
        let cfg = EngineConfig::serial();
        let mut extended = VerticalIndex::build(&a, None, &cfg);
        extended.extend(&b, &cfg);
        let chain = ChainSource::new(&a, &b);
        let whole = VerticalIndex::build(&chain, None, &cfg);
        assert_eq!(extended.num_transactions(), whole.num_transactions());
        for item in 0..260u32 {
            assert_eq!(
                extended.support(ItemId(item)),
                whole.support(ItemId(item)),
                "item {item}"
            );
            assert_eq!(
                extended.is_dense(ItemId(item)),
                whole.is_dense(ItemId(item))
            );
        }
        // Split counting at the seam gives (support in a, support in b).
        let table = ItemsetTable::from_itemsets(&[s(&[0, 2]), s(&[2, 7])]);
        let split = extended.count_rows_split(&table, 200, &cfg);
        let in_a = naive_split(&a, &table, u64::MAX);
        let in_b = naive_split(&b, &table, u64::MAX);
        for i in 0..table.len() {
            assert_eq!(split[i], (in_a[i].0, in_b[i].0), "row {i}");
        }
    }

    #[test]
    fn covers_tracks_the_build_filter() {
        let d = db(&[&[1, 2, 3], &[1, 2], &[2, 3]]);
        let keep = item_bitmap([ItemId(1), ItemId(2)]);
        let idx = VerticalIndex::build(&d, Some(&keep), &EngineConfig::serial());
        assert!(idx.covers(&item_bitmap([ItemId(1)])));
        assert!(idx.covers(&item_bitmap([ItemId(1), ItemId(2)])));
        assert!(!idx.covers(&item_bitmap([ItemId(3)])));
        assert!(!idx.covers(&item_bitmap([ItemId(2), ItemId(70)])));
        // Unfiltered indexes cover everything.
        let unfiltered = VerticalIndex::build(&d, None, &EngineConfig::serial());
        assert!(unfiltered.covers(&item_bitmap([ItemId(3), ItemId(999)])));
    }

    #[test]
    fn empty_sources_and_tables() {
        let empty = TransactionDb::new();
        let idx = VerticalIndex::build(&empty, None, &EngineConfig::serial());
        assert_eq!(idx.num_transactions(), 0);
        assert!(idx
            .count_rows(&ItemsetTable::empty(), &EngineConfig::serial())
            .is_empty());
        let table = ItemsetTable::from_itemsets(&[s(&[1, 2])]);
        assert_eq!(idx.count_rows(&table, &EngineConfig::serial()), vec![0]);
    }

    #[test]
    fn k1_tables_count_item_supports() {
        let d = mixed_db(128);
        let idx = VerticalIndex::build(&d, None, &EngineConfig::serial());
        let table = ItemsetTable::from_itemsets(&[s(&[0]), s(&[1]), s(&[3])]);
        assert_eq!(
            idx.count_rows(&table, &EngineConfig::serial()),
            vec![128, 64, idx.support(ItemId(3))]
        );
    }

    #[test]
    fn auto_resolution_thresholds() {
        let big = PassProfile {
            k: 3,
            candidates: AUTO_MIN_CANDIDATES,
            transactions: AUTO_MIN_TRANSACTIONS,
            residue: AUTO_MIN_RESIDUE,
            indexed: false,
        };
        assert_eq!(
            CountingBackend::Auto.resolve(&big),
            ResolvedBackend::Vertical
        );
        for small in [
            PassProfile { k: 1, ..big },
            PassProfile {
                candidates: AUTO_MIN_CANDIDATES - 1,
                ..big
            },
            PassProfile {
                transactions: AUTO_MIN_TRANSACTIONS - 1,
                ..big
            },
            PassProfile {
                residue: AUTO_MIN_RESIDUE - 0.5,
                ..big
            },
        ] {
            assert_eq!(
                CountingBackend::Auto.resolve(&small),
                ResolvedBackend::HashTree,
                "{small:?}"
            );
        }
        // Forced variants ignore the profile.
        assert_eq!(
            CountingBackend::HashTree.resolve(&big),
            ResolvedBackend::HashTree
        );
        let tiny = PassProfile {
            k: 2,
            candidates: 1,
            transactions: 1,
            residue: 0.0,
            indexed: false,
        };
        assert_eq!(
            CountingBackend::Vertical.resolve(&tiny),
            ResolvedBackend::Vertical
        );
        // An existing index decides every k ≥ 2 pass under Auto, however
        // small; pass 1 and a pinned hash tree are unaffected.
        let warm = PassProfile {
            indexed: true,
            ..tiny
        };
        assert_eq!(
            CountingBackend::Auto.resolve(&warm),
            ResolvedBackend::Vertical
        );
        assert_eq!(
            CountingBackend::Auto.resolve(&PassProfile { k: 1, ..warm }),
            ResolvedBackend::HashTree
        );
        assert_eq!(
            CountingBackend::HashTree.resolve(&warm),
            ResolvedBackend::HashTree
        );
    }

    #[test]
    fn unrolled_dense_kernel_matches_scalar_reference() {
        // Exercise every remainder length around the 4-word block size,
        // and boundaries landing inside, between, and past the blocks.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for words in 0..10usize {
            let a: Vec<u64> = (0..words).map(|_| next()).collect();
            let b: Vec<u64> = (0..words).map(|_| next()).collect();
            let reference = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| u64::from((x & y).count_ones()))
                .sum::<u64>();
            assert_eq!(and_popcount(&a, &b), reference, "{words} words");
            for boundary in [0u64, 1, 63, 64, 65, 128, 256, 64 * words as u64] {
                let (below, above) = count_dense_dense(&a, &b, boundary);
                let mut expect = (0u64, 0u64);
                for (w, (&x, &y)) in a.iter().zip(&b).enumerate() {
                    let mut and = x & y;
                    while and != 0 {
                        let bit = 64 * w as u64 + u64::from(and.trailing_zeros());
                        if bit < boundary {
                            expect.0 += 1;
                        } else {
                            expect.1 += 1;
                        }
                        and &= and - 1;
                    }
                }
                assert_eq!((below, above), expect, "{words} words, boundary {boundary}");
            }
        }
    }

    #[test]
    fn gallop_and_merge_agree() {
        // Force both sparse∩sparse strategies over the same data.
        let a: Vec<u32> = (0..1000).step_by(3).collect();
        let b: Vec<u32> = vec![0, 3, 10, 33, 500, 999];
        let merged = count_sparse_sparse(&a, &b, 100);
        // b is far shorter than a / GALLOP_RATIO? len ratio 333/6 = 55 ≥ 32
        // → that call galloped. Re-check with a near-equal pair that
        // merges linearly.
        let c: Vec<u32> = (0..1000).step_by(4).collect();
        let lin = count_sparse_sparse(&a, &c, 600);
        let mut below = 0;
        let mut above = 0;
        for x in &c {
            if a.binary_search(x).is_ok() {
                if *x < 600 {
                    below += 1;
                } else {
                    above += 1;
                }
            }
        }
        assert_eq!(lin, (below, above));
        assert_eq!(merged, (3, 1)); // 0, 3, 33 below 100; 999 above
    }
}
