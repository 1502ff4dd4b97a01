//! The candidate hash tree of Agrawal & Srikant, implementing the paper's
//! `Subset(C, T)` primitive.
//!
//! All three miners (Apriori, DHP, FUP) spend their time answering the same
//! question per transaction: *which candidate k-itemsets are contained in
//! `T`?* The hash tree stores candidates in leaves reached by hashing
//! successive transaction items, so a pass touches only candidates whose
//! leading items actually occur in `T`.
//!
//! Structure: interior nodes at depth `d` hash on the `(d+1)`-th consumed
//! item; leaves hold candidate indices and overflow into interior nodes once
//! they exceed a split threshold (unless depth already equals `k`). Because
//! different consumed prefixes can hash to the same leaf, leaves re-verify
//! containment against the full transaction; a per-candidate `last_seen`
//! transaction sequence number prevents double counting.
//!
//! ## Shared shape, private scratch
//!
//! The tree separates its **shape** (nodes, candidate itemsets, first-item
//! presence bitmap — immutable after [`HashTree::build`]) from its
//! **counting state** (support counts, `last_seen`, the walk stack). The
//! shape is exposed as a [`TreeView`], a `Copy + Sync` borrow that any
//! number of scan workers can share; each worker counts into its own
//! [`CountScratch`] and the per-worker counts are merged with
//! [`HashTree::absorb`]. The serial methods ([`HashTree::add_transaction`]
//! et al.) use a scratch embedded in the tree, so single-threaded callers
//! see exactly the classic behaviour.
//!
//! The walk is iterative (explicit stack in the scratch, no recursion), the
//! bucket hash is a power-of-two bitmask, and transactions whose feasible
//! prefix contains no candidate's first item are rejected by a bitmap test
//! before any tree descent.
//!
//! ## SoA leaf arena
//!
//! Leaves do not store per-candidate pointers. After the shape is built,
//! every leaf's candidates are packed into two shared arenas in leaf
//! order: `leaf_items` holds the item data k-strided (row `e` occupies
//! `leaf_items[e*k .. (e+1)*k]`) and the parallel `leaf_ids` holds each
//! row's global candidate index (the count slot). A leaf is just a
//! `(start, len)` range into those arenas, so re-verifying a leaf walks
//! one contiguous block of items instead of chasing one `Box` per
//! candidate, and the next row is software-prefetched while the current
//! one is compared. During descent, a child node's memory is prefetched
//! as soon as its bucket is chosen — it is the next node the LIFO walk
//! visits.

use crate::itemset::{Itemset, ItemsetTable};
use fup_tidb::transaction::contains_sorted;
use fup_tidb::{ItemId, TransactionSource};

/// Best-effort read prefetch; a no-op on architectures without one.
/// The workspace's one exception to `deny(unsafe_code)`: a prefetch
/// hint never faults, whatever address it is given.
#[allow(unsafe_code)]
#[inline(always)]
fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        core::arch::x86_64::_mm_prefetch(p as *const i8, core::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(target_arch = "aarch64")]
    unsafe {
        core::arch::asm!("prfm pldl1keep, [{0}]", in(reg) p, options(nostack, preserves_flags));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

/// Default children per interior node. Must be a power of two so bucket
/// selection is a bitmask; 32 keeps interior nodes at one cache line of
/// child ids while splitting leaves aggressively enough for the paper's
/// candidate pool sizes.
pub const DEFAULT_FANOUT: usize = 32;

/// Default leaf capacity before a split (when depth < k). Small enough
/// that leaf re-verification stays cheap, large enough that sparse
/// candidate pools don't burst into single-candidate leaves.
pub const DEFAULT_SPLIT_THRESHOLD: usize = 8;

/// Sentinel for an absent child.
const NO_CHILD: u32 = u32::MAX;

/// Build-time node: leaves accumulate candidate indices in a growable
/// vector until the shape is final, then everything is packed into the
/// SoA arenas of [`Node`].
#[derive(Debug)]
enum BuildNode {
    /// Candidate indices stored at this leaf.
    Leaf(Vec<u32>),
    /// Child node ids (`fanout` of them), `NO_CHILD` where absent.
    Interior(Box<[u32]>),
}

/// Finalised node: a leaf is a range into the shared leaf arenas.
#[derive(Debug)]
enum Node {
    /// `len` candidates at arena rows `start..start+len`.
    Leaf { start: u32, len: u32 },
    /// Child node ids (`fanout` of them), `NO_CHILD` where absent.
    Interior(Box<[u32]>),
}

/// A hash tree over a set of k-itemset candidates, accumulating support
/// counts as transactions are added.
///
/// Candidates are stored flat — one k-strided item arena in build order,
/// no per-candidate allocation. [`HashTree::build_from_table`] moves an
/// [`ItemsetTable`]'s arena straight in, so a level generated flat is
/// counted flat end to end, and [`HashTree::build_from_rows`] copies a
/// row arena in any order (the maintenance round's `W ∪ C` pool is `W`'s
/// rows then `C`'s). [`HashTree::build`] is a short adapter that flattens
/// owned [`Itemset`]s in their input order, for tests and kernel benches.
#[derive(Debug)]
pub struct HashTree {
    k: usize,
    /// `fanout - 1`; bucket selection is `item & mask`.
    mask: usize,
    /// Candidate arena: candidate `i` is `cand_items[i*k .. (i+1)*k]`,
    /// in build order (counts and results are parallel to it).
    cand_items: Vec<ItemId>,
    nodes: Vec<Node>,
    /// Leaf arena, item data: row `e` is `leaf_items[e*k .. (e+1)*k]`,
    /// rows grouped contiguously per leaf.
    leaf_items: Vec<ItemId>,
    /// Leaf arena, count slots: global candidate index of each row,
    /// parallel to `leaf_items`.
    leaf_ids: Vec<u32>,
    /// Bitset over the *first* item of every candidate: a transaction can
    /// only contain some candidate if one of its first `len - k + 1` items
    /// is set here, so misses skip the walk entirely.
    first_bits: Vec<u64>,
    /// Embedded scratch backing the serial `add_transaction` API.
    scratch: CountScratch,
}

#[inline]
fn bit_test(bits: &[u64], item: ItemId) -> bool {
    let i = item.index();
    bits.get(i >> 6)
        .is_some_and(|&word| word & (1u64 << (i & 63)) != 0)
}

#[inline]
fn bit_set(bits: &mut Vec<u64>, item: ItemId) {
    let i = item.index();
    let word = i >> 6;
    if word >= bits.len() {
        bits.resize(word + 1, 0);
    }
    bits[word] |= 1u64 << (i & 63);
}

impl HashTree {
    /// Builds a hash tree over `candidates` with the default
    /// [`DEFAULT_FANOUT`] / [`DEFAULT_SPLIT_THRESHOLD`] tuning. All
    /// candidates must have the same size `k ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if candidates have mixed sizes or an empty itemset appears.
    pub fn build(candidates: Vec<Itemset>) -> Self {
        Self::build_with_params(candidates, DEFAULT_FANOUT, DEFAULT_SPLIT_THRESHOLD)
    }

    /// Builds a hash tree straight from a flat level table with the
    /// default tuning, moving the table's item arena in — no per-candidate
    /// `Itemset` is ever materialised. Candidate order is the table's row
    /// order.
    pub fn build_from_table(table: ItemsetTable) -> Self {
        let (k, items) = table.into_flat();
        Self::build_flat(k.max(1), items, DEFAULT_FANOUT, DEFAULT_SPLIT_THRESHOLD)
    }

    /// Like [`HashTree::build_from_table`] for callers that keep their
    /// table: copies the row arena once (the tree needs owned storage)
    /// without touching the table's run index.
    pub fn build_from_rows(k: usize, rows: &[ItemId]) -> Self {
        Self::build_flat(
            k.max(1),
            rows.to_vec(),
            DEFAULT_FANOUT,
            DEFAULT_SPLIT_THRESHOLD,
        )
    }

    /// Builds a hash tree with explicit tuning:
    ///
    /// * `fanout` — children per interior node; must be a power of two
    ///   (bucket selection is a single bitmask) and at least 2. Larger
    ///   fanouts shorten descent paths at the cost of sparser nodes.
    /// * `split_threshold` — leaf capacity before it splits into an
    ///   interior node (min 1). Smaller thresholds trade memory for fewer
    ///   containment re-verifications per leaf visit.
    ///
    /// # Panics
    ///
    /// Panics if `fanout` is not a power of two ≥ 2, if candidates have
    /// mixed sizes, or if an empty itemset appears.
    pub fn build_with_params(
        candidates: Vec<Itemset>,
        fanout: usize,
        split_threshold: usize,
    ) -> Self {
        let k = candidates.first().map(Itemset::k).unwrap_or(1);
        assert!(k >= 1, "candidates must be non-empty itemsets");
        let mut items = Vec::with_capacity(candidates.len() * k);
        for c in &candidates {
            assert_eq!(c.k(), k, "all candidates must share one size");
            items.extend_from_slice(c.items());
        }
        Self::build_flat(k, items, fanout, split_threshold)
    }

    /// The shared build core over a flat candidate arena (`n * k` items,
    /// candidate `i` at rows `i*k..(i+1)*k`, any order).
    fn build_flat(
        k: usize,
        cand_items: Vec<ItemId>,
        fanout: usize,
        split_threshold: usize,
    ) -> Self {
        assert!(
            fanout.is_power_of_two() && fanout >= 2,
            "fanout must be a power of two ≥ 2"
        );
        debug_assert!(k >= 1 && cand_items.len().is_multiple_of(k));
        let n = cand_items.len() / k;
        let mut first_bits = Vec::new();
        for i in 0..n {
            bit_set(&mut first_bits, cand_items[i * k]);
        }
        let mut builder = TreeBuilder {
            k,
            mask: fanout - 1,
            split_threshold: split_threshold.max(1),
            items: &cand_items,
            nodes: vec![BuildNode::Leaf(Vec::new())],
        };
        for idx in 0..n as u32 {
            builder.insert(idx);
        }
        // Pack every leaf into the shared SoA arenas: item rows k-strided
        // and grouped per leaf, count slots (global candidate indices)
        // parallel to them. Node ids are preserved, so child links stay
        // valid as-is.
        let mut nodes = Vec::with_capacity(builder.nodes.len());
        let mut leaf_ids: Vec<u32> = Vec::new();
        let mut leaf_items: Vec<ItemId> = Vec::new();
        for bn in builder.nodes {
            match bn {
                BuildNode::Leaf(ids) => {
                    let start = leaf_ids.len() as u32;
                    for &idx in &ids {
                        let row = idx as usize * k;
                        leaf_items.extend_from_slice(&cand_items[row..row + k]);
                    }
                    let len = ids.len() as u32;
                    leaf_ids.extend(ids);
                    nodes.push(Node::Leaf { start, len });
                }
                BuildNode::Interior(ch) => nodes.push(Node::Interior(ch)),
            }
        }
        HashTree {
            k,
            mask: fanout - 1,
            cand_items,
            nodes,
            leaf_items,
            leaf_ids,
            first_bits,
            scratch: CountScratch::for_len(n),
        }
    }

    /// Number of candidates in the tree.
    pub fn len(&self) -> usize {
        self.cand_items.len() / self.k.max(1)
    }

    /// `true` if the tree holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.cand_items.is_empty()
    }

    /// The candidate size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The immutable shape of the tree, shareable across scan workers.
    pub fn view(&self) -> TreeView<'_> {
        TreeView {
            k: self.k,
            mask: self.mask,
            cand_items: &self.cand_items,
            nodes: &self.nodes,
            leaf_items: &self.leaf_items,
            leaf_ids: &self.leaf_ids,
            first_bits: &self.first_bits,
        }
    }

    /// Splits the borrow: the immutable shape plus the embedded serial
    /// scratch, so `&mut self` methods can count through the shared walk
    /// code (a plain `self.view()` would lock the scratch too).
    fn view_and_scratch(&mut self) -> (TreeView<'_>, &mut CountScratch) {
        (
            TreeView {
                k: self.k,
                mask: self.mask,
                cand_items: &self.cand_items,
                nodes: &self.nodes,
                leaf_items: &self.leaf_items,
                leaf_ids: &self.leaf_ids,
                first_bits: &self.first_bits,
            },
            &mut self.scratch,
        )
    }

    /// A fresh, zeroed counting scratch sized for this tree. One per scan
    /// worker; merge results back with [`HashTree::absorb`].
    pub fn new_scratch(&self) -> CountScratch {
        CountScratch::for_len(self.len())
    }

    /// Adds a worker's scratch counts into the tree's own counts.
    ///
    /// # Panics
    ///
    /// Panics if the scratch was sized for a different tree.
    pub fn absorb(&mut self, scratch: CountScratch) {
        assert_eq!(
            scratch.counts.len(),
            self.scratch.counts.len(),
            "scratch belongs to a different tree"
        );
        for (total, part) in self.scratch.counts.iter_mut().zip(&scratch.counts) {
            *total += part;
        }
    }

    /// Counts every candidate contained in the (sorted) transaction.
    pub fn add_transaction(&mut self, t: &[ItemId]) {
        let (view, scratch) = self.view_and_scratch();
        view.count(t, scratch);
    }

    /// Like [`HashTree::add_transaction`], but additionally reports, via
    /// `on_match(candidate_index)`, each candidate contained in `t`.
    /// FUP's `Reduce-db` uses the per-item match counts this enables.
    pub fn add_transaction_with<F: FnMut(usize)>(&mut self, t: &[ItemId], on_match: &mut F) {
        let (view, scratch) = self.view_and_scratch();
        view.count_with(t, scratch, on_match);
    }

    /// Runs one full (serial) pass over `source`, adding every transaction.
    /// For a multi-threaded pass, see `fup_mining::engine`.
    pub fn count_source<S: TransactionSource + ?Sized>(&mut self, source: &S) {
        source.for_each(&mut |t| self.add_transaction(t));
    }

    /// Candidate `i`'s sorted item slice, in build order (indices match
    /// [`HashTree::counts`]).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn candidate(&self, i: usize) -> &[ItemId] {
        &self.cand_items[i * self.k..(i + 1) * self.k]
    }

    /// Current support counts, parallel to the build-order candidates.
    pub fn counts(&self) -> &[u64] {
        &self.scratch.counts
    }

    /// Consumes the tree, yielding the support counts in build order,
    /// parallel to the candidate rows the caller built it from.
    pub fn into_counts(self) -> Vec<u64> {
        self.scratch.counts
    }
}

/// Builds the tree shape: leaves grow as `Vec<u32>` of candidate indices
/// and split into interior nodes past the threshold; the finished shape
/// is packed into [`HashTree`]'s SoA arenas by `build_with_params`.
struct TreeBuilder<'a> {
    k: usize,
    mask: usize,
    split_threshold: usize,
    /// Flat candidate arena (k-strided rows, build order).
    items: &'a [ItemId],
    nodes: Vec<BuildNode>,
}

impl TreeBuilder<'_> {
    #[inline]
    fn item_at(&self, idx: u32, depth: usize) -> ItemId {
        self.items[idx as usize * self.k + depth]
    }

    fn insert(&mut self, idx: u32) {
        let mut node = 0u32;
        let mut depth = 0usize;
        loop {
            match &mut self.nodes[node as usize] {
                BuildNode::Interior(children) => {
                    let item = self.items[idx as usize * self.k + depth];
                    let b = (item.raw() as usize) & self.mask;
                    if children[b] == NO_CHILD {
                        let new_id = self.nodes.len() as u32;
                        // Re-borrow after push: take the bucket decision now.
                        match &mut self.nodes[node as usize] {
                            BuildNode::Interior(ch) => ch[b] = new_id,
                            BuildNode::Leaf(_) => unreachable!(),
                        }
                        self.nodes.push(BuildNode::Leaf(Vec::new()));
                        node = new_id;
                    } else {
                        node = children[b];
                    }
                    depth += 1;
                }
                BuildNode::Leaf(ids) => {
                    ids.push(idx);
                    if ids.len() > self.split_threshold && depth < self.k {
                        self.split(node, depth);
                    }
                    return;
                }
            }
        }
    }

    /// Converts the leaf `node` (at `depth` items consumed) into an
    /// interior node, redistributing its candidates one level down.
    fn split(&mut self, node: u32, depth: usize) {
        let interior = BuildNode::Interior(vec![NO_CHILD; self.mask + 1].into_boxed_slice());
        let ids = match std::mem::replace(&mut self.nodes[node as usize], interior) {
            BuildNode::Leaf(ids) => ids,
            BuildNode::Interior(_) => unreachable!("split target must be a leaf"),
        };
        for idx in ids {
            let item = self.item_at(idx, depth);
            let b = (item.raw() as usize) & self.mask;
            let child = match &self.nodes[node as usize] {
                BuildNode::Interior(ch) => ch[b],
                BuildNode::Leaf(_) => unreachable!(),
            };
            let child = if child == NO_CHILD {
                let new_id = self.nodes.len() as u32;
                match &mut self.nodes[node as usize] {
                    BuildNode::Interior(ch) => ch[b] = new_id,
                    BuildNode::Leaf(_) => unreachable!(),
                }
                self.nodes.push(BuildNode::Leaf(Vec::new()));
                new_id
            } else {
                child
            };
            match &mut self.nodes[child as usize] {
                BuildNode::Leaf(v) => v.push(idx),
                // Children of a fresh split are always leaves.
                BuildNode::Interior(_) => unreachable!(),
            }
        }
    }
}

/// The immutable shape of a [`HashTree`]: everything a scan worker needs
/// to count transactions, minus the mutable counting state. `Copy`, and
/// `Sync` because it only borrows immutable tree data — hand one to each
/// worker in a `std::thread::scope`.
#[derive(Clone, Copy)]
pub struct TreeView<'a> {
    k: usize,
    mask: usize,
    /// Flat candidate arena (k-strided rows, build order).
    cand_items: &'a [ItemId],
    nodes: &'a [Node],
    leaf_items: &'a [ItemId],
    leaf_ids: &'a [u32],
    first_bits: &'a [u64],
}

impl<'a> TreeView<'a> {
    /// The candidate size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Candidate `i`'s sorted item slice, in build order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn candidate(&self, i: usize) -> &'a [ItemId] {
        &self.cand_items[i * self.k..(i + 1) * self.k]
    }

    /// Counts every candidate contained in `t` into `scratch`.
    #[inline]
    pub fn count(&self, t: &[ItemId], scratch: &mut CountScratch) {
        self.count_with(t, scratch, &mut |_| {});
    }

    /// Counts candidates contained in `t` into `scratch`, reporting each
    /// matched candidate index. Monomorphized over the callback so match
    /// reporting inlines into the walk.
    pub fn count_with<F: FnMut(usize)>(
        &self,
        t: &[ItemId],
        scratch: &mut CountScratch,
        on_match: &mut F,
    ) {
        if t.len() < self.k || self.cand_items.is_empty() {
            return;
        }
        // First-item prune: a candidate X ⊆ t must place its smallest item
        // within the first `len - k + 1` positions of t, so if none of
        // those items opens any candidate, the walk cannot match.
        let limit = t.len() - self.k;
        if !t[..=limit].iter().any(|&i| bit_test(self.first_bits, i)) {
            return;
        }
        scratch.seq += 1;
        let seq = scratch.seq;
        // Iterative depth-first walk; the explicit stack lives in the
        // scratch so steady-state passes allocate nothing.
        scratch.stack.clear();
        scratch.stack.push(WalkFrame {
            node: 0,
            start: 0,
            depth: 0,
        });
        let k = self.k;
        while let Some(WalkFrame { node, start, depth }) = scratch.stack.pop() {
            match &self.nodes[node as usize] {
                Node::Leaf { start, len } => {
                    let first = *start as usize;
                    let n = *len as usize;
                    let ids = &self.leaf_ids[first..first + n];
                    let rows = &self.leaf_items[first * k..(first + n) * k];
                    for (e, &idx) in ids.iter().enumerate() {
                        // Pull the next row into cache while this one is
                        // re-verified against the transaction.
                        if e + 1 < n {
                            prefetch_read(rows[(e + 1) * k..].as_ptr());
                        }
                        let i = idx as usize;
                        if scratch.last_seen[i] != seq
                            && contains_sorted(t, &rows[e * k..(e + 1) * k])
                        {
                            scratch.last_seen[i] = seq;
                            scratch.counts[i] += 1;
                            on_match(i);
                        }
                    }
                }
                Node::Interior(children) => {
                    // Need (k - depth) more items; stop when too few remain.
                    let remaining = k - depth as usize;
                    let start = start as usize;
                    if t.len() < start + remaining {
                        continue;
                    }
                    let last = t.len() - remaining;
                    for i in start..=last {
                        let child = children[(t[i].raw() as usize) & self.mask];
                        if child != NO_CHILD {
                            // The LIFO stack visits this bucket next (or
                            // soon); start pulling its node in now.
                            prefetch_read(&self.nodes[child as usize] as *const Node);
                            scratch.stack.push(WalkFrame {
                                node: child,
                                start: (i + 1) as u32,
                                depth: depth + 1,
                            });
                        }
                    }
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct WalkFrame {
    node: u32,
    start: u32,
    depth: u32,
}

/// Per-worker counting state for one [`HashTree`] (or [`TreeView`]):
/// support counts, the `last_seen` de-duplication stamps, and the reusable
/// walk stack. Create with [`HashTree::new_scratch`], count transactions
/// through [`TreeView::count`], and fold back with [`HashTree::absorb`].
#[derive(Debug, Default)]
pub struct CountScratch {
    counts: Vec<u64>,
    last_seen: Vec<u64>,
    seq: u64,
    stack: Vec<WalkFrame>,
}

impl CountScratch {
    fn for_len(n: usize) -> Self {
        CountScratch {
            counts: vec![0; n],
            last_seen: vec![0; n],
            seq: 0,
            stack: Vec::new(),
        }
    }

    /// The accumulated support counts, in candidate build order.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fup_tidb::{Transaction, TransactionDb};

    fn s(items: &[u32]) -> Itemset {
        Itemset::from_items(items.iter().copied())
    }

    fn tx(items: &[u32]) -> Vec<ItemId> {
        Transaction::from_items(items.iter().copied())
            .items()
            .to_vec()
    }

    /// Reference implementation: count by direct containment.
    fn naive_counts(candidates: &[Itemset], transactions: &[Vec<ItemId>]) -> Vec<u64> {
        candidates
            .iter()
            .map(|c| {
                transactions
                    .iter()
                    .filter(|t| contains_sorted(t, c.items()))
                    .count() as u64
            })
            .collect()
    }

    #[test]
    fn counts_simple_pairs() {
        let cands = vec![s(&[1, 2]), s(&[1, 3]), s(&[2, 3])];
        let mut tree = HashTree::build(cands.clone());
        let txns = vec![tx(&[1, 2, 3]), tx(&[1, 2]), tx(&[3])];
        for t in &txns {
            tree.add_transaction(t);
        }
        assert_eq!(tree.counts(), naive_counts(&cands, &txns).as_slice());
        assert_eq!(tree.counts(), &[2, 1, 1]);
    }

    #[test]
    fn no_double_count_on_hash_collisions() {
        // Items 1 and 33 collide under the 32-way mask; candidate {1,33}
        // must count once per containing transaction even though two paths
        // reach its leaf.
        let cands = vec![s(&[1, 33])];
        let mut tree = HashTree::build(cands);
        tree.add_transaction(&tx(&[1, 33, 65]));
        assert_eq!(tree.counts(), &[1]);
    }

    #[test]
    fn transactions_shorter_than_k_are_skipped() {
        let mut tree = HashTree::build(vec![s(&[1, 2, 3])]);
        tree.add_transaction(&tx(&[1, 2]));
        assert_eq!(tree.counts(), &[0]);
    }

    #[test]
    fn empty_candidate_set() {
        let mut tree = HashTree::build(Vec::new());
        assert!(tree.is_empty());
        tree.add_transaction(&tx(&[1, 2, 3]));
        assert!(tree.counts().is_empty());
    }

    #[test]
    fn splitting_leaves_preserves_counts() {
        // More than the split threshold of candidates sharing a first item
        // force splits at depth 1 and 2.
        let cands: Vec<Itemset> = (2..30).map(|i| s(&[1, i])).collect();
        let mut tree = HashTree::build(cands.clone());
        let txns: Vec<Vec<ItemId>> = (0..50).map(|j| tx(&[1, 2 + (j % 28), 40 + j])).collect();
        for t in &txns {
            tree.add_transaction(t);
        }
        assert_eq!(tree.counts(), naive_counts(&cands, &txns).as_slice());
    }

    #[test]
    fn matches_naive_on_mixed_workload() {
        // 3-itemsets over a small alphabet, transactions of varying length.
        let mut cands = Vec::new();
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                for c in (b + 1)..6 {
                    cands.push(s(&[a, b, c]));
                }
            }
        }
        let mut tree = HashTree::build(cands.clone());
        let txns: Vec<Vec<ItemId>> = vec![
            tx(&[0, 1, 2, 3, 4, 5]),
            tx(&[0, 2, 4]),
            tx(&[1, 3, 5]),
            tx(&[0, 1]),
            tx(&[]),
            tx(&[2, 3, 4, 5]),
        ];
        for t in &txns {
            tree.add_transaction(t);
        }
        assert_eq!(tree.counts(), naive_counts(&cands, &txns).as_slice());
    }

    #[test]
    fn k1_trees_work() {
        let cands = vec![s(&[1]), s(&[2]), s(&[40])];
        let mut tree = HashTree::build(cands);
        assert_eq!(tree.k(), 1);
        tree.add_transaction(&tx(&[1, 40]));
        tree.add_transaction(&tx(&[2]));
        assert_eq!(tree.counts(), &[1, 1, 1]);
    }

    #[test]
    fn count_source_runs_full_pass() {
        let db = TransactionDb::from_transactions(vec![
            Transaction::from_items([1u32, 2]),
            Transaction::from_items([1u32, 2, 3]),
        ]);
        let mut tree = HashTree::build(vec![s(&[1, 2])]);
        tree.count_source(&db);
        assert_eq!(tree.counts(), &[2]);
        assert_eq!(db.metrics().full_scans(), 1);
    }

    #[test]
    fn add_transaction_with_reports_matches() {
        let mut tree = HashTree::build(vec![s(&[1, 2]), s(&[2, 3])]);
        let mut matched = Vec::new();
        tree.add_transaction_with(&tx(&[1, 2, 3]), &mut |i| matched.push(i));
        matched.sort_unstable();
        assert_eq!(matched, vec![0, 1]);
    }

    #[test]
    fn into_counts_follow_build_order() {
        // Rows in any order (here: not sorted) keep their positions.
        let rows: Vec<ItemId> = [7u32, 9, 1, 2].map(ItemId).to_vec();
        let mut tree = HashTree::build_from_rows(2, &rows);
        assert_eq!(tree.candidate(0), &rows[..2]);
        tree.add_transaction(&tx(&[7, 8, 9]));
        tree.add_transaction(&tx(&[1, 2, 7, 9]));
        assert_eq!(tree.into_counts(), vec![2, 1]);
    }

    #[test]
    #[should_panic(expected = "share one size")]
    fn mixed_sizes_rejected() {
        let _ = HashTree::build(vec![s(&[1]), s(&[1, 2])]);
    }

    #[test]
    fn view_and_scratch_match_serial_counts() {
        let cands: Vec<Itemset> = (0..12u32).map(|i| s(&[i % 5, 5 + i])).collect();
        let txns: Vec<Vec<ItemId>> = (0..40)
            .map(|j| tx(&[j % 5, 5 + (j % 12), 5 + ((j + 3) % 12), 30 + j]))
            .collect();
        let mut serial = HashTree::build(cands.clone());
        for t in &txns {
            serial.add_transaction(t);
        }
        // Two workers splitting the pass, merged at the end.
        let mut parallel = HashTree::build(cands);
        let (mut s1, mut s2) = (parallel.new_scratch(), parallel.new_scratch());
        let view = parallel.view();
        for (j, t) in txns.iter().enumerate() {
            if j % 2 == 0 {
                view.count(t, &mut s1);
            } else {
                view.count(t, &mut s2);
            }
        }
        parallel.absorb(s1);
        parallel.absorb(s2);
        assert_eq!(parallel.counts(), serial.counts());
    }

    #[test]
    fn first_item_bitmap_prunes_without_changing_counts() {
        // Candidates all start at 100+; transactions over 0..50 must count
        // zero (and exercise the bitmap rejection path).
        let cands = vec![s(&[100, 101]), s(&[100, 120]), s(&[110, 115])];
        let mut tree = HashTree::build(cands.clone());
        let mut txns: Vec<Vec<ItemId>> = (0..20).map(|j| tx(&[j, j + 1, j + 2])).collect();
        txns.push(tx(&[40, 100, 101])); // first item misses, later item hits
        txns.push(tx(&[100, 110, 115, 120]));
        for t in &txns {
            tree.add_transaction(t);
        }
        assert_eq!(tree.counts(), naive_counts(&cands, &txns).as_slice());
    }

    #[test]
    fn custom_params_agree_with_defaults() {
        let cands: Vec<Itemset> = (2..40).map(|i| s(&[i % 7, 10 + i])).collect();
        let txns: Vec<Vec<ItemId>> = (0..60)
            .map(|j| tx(&[j % 7, 10 + 2 + (j % 38), 10 + ((j * 5) % 38), 60 + j]))
            .collect();
        let mut reference = HashTree::build(cands.clone());
        for t in &txns {
            reference.add_transaction(t);
        }
        for (fanout, threshold) in [(2, 1), (4, 2), (64, 3), (256, 16)] {
            let mut tuned = HashTree::build_with_params(cands.clone(), fanout, threshold);
            for t in &txns {
                tuned.add_transaction(t);
            }
            assert_eq!(
                tuned.counts(),
                reference.counts(),
                "fanout {fanout} threshold {threshold}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_fanout_rejected() {
        let _ = HashTree::build_with_params(vec![s(&[1])], 3, 4);
    }

    #[test]
    fn soa_leaf_arena_is_consistent() {
        // Every candidate lands in exactly one leaf; its arena row must
        // hold exactly its items, k-strided, across splitty shapes.
        let cands: Vec<Itemset> = (0..60u32)
            .map(|i| s(&[i % 6, 6 + (i % 9), 20 + i]))
            .collect();
        for (fanout, threshold) in [(2, 1), (32, 8), (256, 4)] {
            let tree = HashTree::build_with_params(cands.clone(), fanout, threshold);
            assert_eq!(tree.leaf_ids.len(), cands.len());
            assert_eq!(tree.leaf_items.len(), cands.len() * tree.k());
            let mut seen = vec![0usize; cands.len()];
            for (e, &idx) in tree.leaf_ids.iter().enumerate() {
                seen[idx as usize] += 1;
                let row = &tree.leaf_items[e * tree.k()..(e + 1) * tree.k()];
                assert_eq!(row, cands[idx as usize].items(), "arena row {e}");
            }
            assert!(seen.iter().all(|&c| c == 1), "candidate not in one leaf");
        }
    }
}
