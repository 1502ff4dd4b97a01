//! Immutable sorted itemsets, and the flat [`ItemsetTable`] arena that
//! stores a whole level `L_k` contiguously for cache-friendly candidate
//! generation.

use fup_tidb::ItemId;
use std::fmt;
use std::ops::Deref;

/// An itemset `X ⊆ I`: an immutable, sorted, duplicate-free set of items.
///
/// The sorted order underpins `apriori-gen` (itemsets sharing a (k−1)-item
/// prefix are joined), hash-tree descent, and linear-merge containment.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Itemset {
    items: Box<[ItemId]>,
}

impl Itemset {
    /// Builds an itemset from arbitrary items; sorts and deduplicates.
    pub fn from_items<I, T>(items: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<ItemId>,
    {
        let mut v: Vec<ItemId> = items.into_iter().map(Into::into).collect();
        v.sort_unstable();
        v.dedup();
        Itemset {
            items: v.into_boxed_slice(),
        }
    }

    /// Builds a 1-itemset.
    pub fn single(item: ItemId) -> Self {
        Itemset {
            items: Box::new([item]),
        }
    }

    /// Builds an itemset from a vector that is already sorted and
    /// duplicate-free.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the invariant does not hold.
    pub fn from_sorted_vec(v: Vec<ItemId>) -> Self {
        debug_assert!(
            v.windows(2).all(|w| w[0] < w[1]),
            "items must be strictly increasing"
        );
        Itemset {
            items: v.into_boxed_slice(),
        }
    }

    /// The size `k` of this k-itemset.
    #[inline]
    pub fn k(&self) -> usize {
        self.items.len()
    }

    /// `true` for the empty itemset.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The items, sorted ascending.
    #[inline]
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// `true` if `self ⊆ other` (both sorted; linear merge).
    pub fn is_subset_of(&self, other: &Itemset) -> bool {
        fup_tidb::transaction::contains_sorted(other.items(), self.items())
    }

    /// `true` if this itemset contains `item`.
    pub fn contains(&self, item: ItemId) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// The (k−1)-subset obtained by dropping the item at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= k`.
    pub fn without_index(&self, i: usize) -> Itemset {
        let mut v = Vec::with_capacity(self.items.len() - 1);
        v.extend_from_slice(&self.items[..i]);
        v.extend_from_slice(&self.items[i + 1..]);
        Itemset {
            items: v.into_boxed_slice(),
        }
    }

    /// Iterates all (k−1)-subsets.
    pub fn proper_subsets(&self) -> impl Iterator<Item = Itemset> + '_ {
        (0..self.items.len()).map(move |i| self.without_index(i))
    }

    /// The set difference `self \ other` (both sorted).
    pub fn difference(&self, other: &Itemset) -> Itemset {
        let kept: Vec<ItemId> = self
            .items
            .iter()
            .copied()
            .filter(|i| !other.contains(*i))
            .collect();
        Itemset {
            items: kept.into_boxed_slice(),
        }
    }

    /// The union `self ∪ other` (both sorted; linear merge).
    pub fn union(&self, other: &Itemset) -> Itemset {
        let mut v = Vec::with_capacity(self.items.len() + other.items.len());
        let (a, b) = (self.items(), other.items());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    v.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    v.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    v.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        v.extend_from_slice(&a[i..]);
        v.extend_from_slice(&b[j..]);
        Itemset {
            items: v.into_boxed_slice(),
        }
    }

    /// Extends a k-itemset with an item strictly greater than its last item,
    /// producing a (k+1)-itemset. Used by the `apriori-gen` join.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `item` is not strictly greater than the
    /// current maximum.
    pub fn extended_with(&self, item: ItemId) -> Itemset {
        debug_assert!(
            self.items.last().is_none_or(|&last| last < item),
            "extension item must exceed current maximum"
        );
        let mut v = Vec::with_capacity(self.items.len() + 1);
        v.extend_from_slice(&self.items);
        v.push(item);
        Itemset {
            items: v.into_boxed_slice(),
        }
    }
}

/// A level of same-size itemsets stored flat: one contiguous k-strided
/// `Vec<ItemId>` of rows in lexicographic order, plus a run index over
/// shared (k−1)-prefixes.
///
/// This is the structure-of-arrays representation of an `L_k`: row `i`
/// occupies `items[i*k .. (i+1)*k]`, rows are strictly increasing (sorted,
/// duplicate-free), and `run_starts` marks every maximal run of rows that
/// share their first `k−1` items. The `apriori-gen` join enumerates pairs
/// inside one run without touching any other memory, membership tests are
/// a binary search over the flat rows (no hashing, no owned-itemset
/// allocation), and the whole level lives in one allocation instead of one
/// `Box` per itemset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemsetTable {
    /// Row width; 0 only for the empty table.
    k: usize,
    /// Row-major item data, `k * len()` entries.
    items: Vec<ItemId>,
    /// Row index of each (k−1)-prefix run start, terminated by `len()`.
    run_starts: Vec<u32>,
}

impl ItemsetTable {
    /// Builds a table from itemsets of one size `k ≥ 1`, sorting and
    /// deduplicating only when needed: input that is already strictly
    /// increasing (the usual case — every miner feeds the previous pass's
    /// sorted output straight back in) is detected with one linear scan
    /// and copied without the sort.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the itemsets have mixed sizes.
    pub fn from_itemsets(sets: &[Itemset]) -> Self {
        let Some(first) = sets.first() else {
            return ItemsetTable::empty();
        };
        let k = first.k();
        debug_assert!(
            sets.iter().all(|x| x.k() == k),
            "mixed sizes in ItemsetTable"
        );
        if sets.windows(2).all(|w| w[0].items() < w[1].items()) {
            return Self::from_sorted_itemsets(sets);
        }
        let mut refs: Vec<&Itemset> = sets.iter().collect();
        refs.sort();
        refs.dedup();
        let mut items = Vec::with_capacity(refs.len() * k);
        for s in &refs {
            items.extend_from_slice(s.items());
        }
        Self::from_flat(k, items)
    }

    /// Builds a table from itemsets that are already strictly increasing
    /// (sorted, duplicate-free) — the fast path, skipping the sort.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the sorted-unique invariant does not hold
    /// or the itemsets have mixed sizes.
    pub fn from_sorted_itemsets(sets: &[Itemset]) -> Self {
        let Some(first) = sets.first() else {
            return ItemsetTable::empty();
        };
        let k = first.k();
        debug_assert!(
            sets.iter().all(|x| x.k() == k),
            "mixed sizes in ItemsetTable"
        );
        debug_assert!(
            sets.windows(2).all(|w| w[0].items() < w[1].items()),
            "itemsets must be strictly increasing"
        );
        let mut items = Vec::with_capacity(sets.len() * k);
        for s in sets {
            items.extend_from_slice(s.items());
        }
        Self::from_flat(k, items)
    }

    /// An empty table (no rows, width 0).
    pub fn empty() -> Self {
        ItemsetTable {
            k: 0,
            items: Vec::new(),
            run_starts: vec![0],
        }
    }

    /// Builds a table directly from row-major item data whose rows are
    /// already strictly increasing (lexicographically sorted and
    /// duplicate-free) — the allocation-free counterpart of
    /// [`ItemsetTable::from_sorted_itemsets`] used by the flat candidate
    /// pipeline (`apriori_gen` output, miner level filtering).
    ///
    /// An empty `items` yields the empty table regardless of `k`.
    ///
    /// # Panics
    ///
    /// Panics if `items.len()` is not a multiple of `k`, or in debug
    /// builds if the rows are not strictly increasing (within each row
    /// and from row to row).
    pub fn from_flat_rows(k: usize, items: Vec<ItemId>) -> Self {
        if items.is_empty() {
            return ItemsetTable::empty();
        }
        assert!(k >= 1, "rows must have width at least 1");
        assert_eq!(items.len() % k, 0, "row data must be k-strided");
        debug_assert!(
            items
                .chunks_exact(k)
                .all(|r| r.windows(2).all(|w| w[0] < w[1])),
            "row items must be strictly increasing"
        );
        debug_assert!(
            items
                .chunks_exact(k)
                .zip(items.chunks_exact(k).skip(1))
                .all(|(a, b)| a < b),
            "rows must be strictly increasing"
        );
        Self::from_flat(k, items)
    }

    /// Keeps only the rows for which `keep` returns `true`, compacting
    /// the item data in place and rebuilding the run index. Row order is
    /// preserved — the table stays sorted.
    pub fn retain_rows(&mut self, mut keep: impl FnMut(&[ItemId]) -> bool) {
        let k = self.k;
        if k == 0 {
            return;
        }
        let n = self.len();
        let mut write = 0usize;
        for row in 0..n {
            let start = row * k;
            if keep(&self.items[start..start + k]) {
                if write != start {
                    self.items.copy_within(start..start + k, write);
                }
                write += k;
            }
        }
        self.items.truncate(write);
        if self.items.is_empty() {
            *self = ItemsetTable::empty();
            return;
        }
        *self = Self::from_flat(k, std::mem::take(&mut self.items));
    }

    /// The rows at the ascending indices `rows`, as a new table — a row
    /// mask applied without touching `self`. The kept rows stay in order,
    /// so the result is sorted too.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range, or in debug builds if `rows`
    /// is not strictly increasing.
    pub fn select_rows(&self, rows: &[usize]) -> ItemsetTable {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]));
        let mut items = Vec::with_capacity(rows.len() * self.k);
        for &i in rows {
            items.extend_from_slice(self.row(i));
        }
        ItemsetTable::from_flat_rows(self.k, items)
    }

    /// Removes every row that is also a row of `other` (the set
    /// difference `self − other`): one sorted merge of the two tables, no
    /// hashing.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if both tables are non-empty and their row
    /// widths differ.
    pub fn subtract(&mut self, other: &ItemsetTable) {
        if self.is_empty() || other.is_empty() {
            return;
        }
        debug_assert_eq!(self.k, other.k, "tables of different widths");
        let mut j = 0;
        self.retain_rows(|row| {
            while j < other.len() && other.row(j) < row {
                j += 1;
            }
            j == other.len() || other.row(j) != row
        });
    }

    /// Row `i` materialised as an owned [`Itemset`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn row_itemset(&self, i: usize) -> Itemset {
        Itemset::from_sorted_vec(self.row(i).to_vec())
    }

    /// Builds the run index over sorted row-major data.
    fn from_flat(k: usize, items: Vec<ItemId>) -> Self {
        debug_assert!(k >= 1);
        debug_assert_eq!(items.len() % k, 0);
        let n = items.len() / k;
        let mut run_starts = Vec::new();
        let mut row = 0;
        while row < n {
            run_starts.push(row as u32);
            let prefix = &items[row * k..(row + 1) * k - 1];
            let mut end = row + 1;
            while end < n && &items[end * k..(end + 1) * k - 1] == prefix {
                end += 1;
            }
            row = end;
        }
        run_starts.push(n as u32);
        ItemsetTable {
            k,
            items,
            run_starts,
        }
    }

    /// The row width `k` (0 only when the table is empty).
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len().checked_div(self.k).unwrap_or(0)
    }

    /// `true` when the table holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Row `i` as an item slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[ItemId] {
        &self.items[i * self.k..(i + 1) * self.k]
    }

    /// The whole row-major item arena (`k * len()` entries).
    #[inline]
    pub fn flat_items(&self) -> &[ItemId] {
        &self.items
    }

    /// Number of (k−1)-prefix runs.
    #[inline]
    pub fn num_runs(&self) -> usize {
        self.run_starts.len() - 1
    }

    /// Half-open row range `[start, end)` of run `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= num_runs()`.
    #[inline]
    pub fn run_bounds(&self, r: usize) -> (usize, usize) {
        (self.run_starts[r] as usize, self.run_starts[r + 1] as usize)
    }

    /// `true` if `needle` (sorted, length `k`) is a row of this table —
    /// a binary search over the flat rows. The empty table contains
    /// nothing.
    pub fn contains(&self, needle: &[ItemId]) -> bool {
        debug_assert!(self.is_empty() || needle.len() == self.k);
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.row(mid).cmp(needle) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// The half-open row range of the run whose shared (k−1)-prefix is
    /// exactly `prefix`, or the empty range `(0, 0)` when no row has it —
    /// a binary search over the run index (runs have distinct, ascending
    /// prefixes).
    pub fn prefix_run(&self, prefix: &[ItemId]) -> (usize, usize) {
        debug_assert_eq!(prefix.len() + 1, self.k.max(1));
        let (mut lo, mut hi) = (0usize, self.num_runs());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let first = self.run_starts[mid] as usize;
            match self.row(first)[..self.k - 1].cmp(prefix) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return self.run_bounds(mid),
            }
        }
        (0, 0)
    }

    /// Iterates the rows in order.
    pub fn rows(&self) -> impl Iterator<Item = &[ItemId]> + '_ {
        (0..self.len()).map(move |i| self.row(i))
    }

    /// Materialises every row as an owned [`Itemset`], in table order.
    pub fn to_itemsets(&self) -> Vec<Itemset> {
        self.rows()
            .map(|r| Itemset::from_sorted_vec(r.to_vec()))
            .collect()
    }

    /// Consumes the table, yielding `(k, row-major item data)` — the raw
    /// material [`HashTree::build_from_table`](crate::HashTree) packs
    /// without re-boxing any candidate.
    pub fn into_flat(self) -> (usize, Vec<ItemId>) {
        (self.k, self.items)
    }
}

impl Deref for Itemset {
    type Target = [ItemId];
    #[inline]
    fn deref(&self) -> &[ItemId] {
        &self.items
    }
}

impl fmt::Debug for Itemset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{{}}}",
            self.items
                .iter()
                .map(|i| i.raw().to_string())
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

impl FromIterator<ItemId> for Itemset {
    fn from_iter<I: IntoIterator<Item = ItemId>>(iter: I) -> Self {
        Itemset::from_items(iter)
    }
}

impl FromIterator<u32> for Itemset {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        Itemset::from_items(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(items: &[u32]) -> Itemset {
        Itemset::from_items(items.iter().copied())
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let x = s(&[3, 1, 2, 3]);
        assert_eq!(x.items(), &[ItemId(1), ItemId(2), ItemId(3)]);
        assert_eq!(x.k(), 3);
    }

    #[test]
    fn single_and_empty() {
        assert_eq!(Itemset::single(ItemId(5)).k(), 1);
        assert!(s(&[]).is_empty());
    }

    #[test]
    fn subset_relation() {
        assert!(s(&[1, 3]).is_subset_of(&s(&[1, 2, 3])));
        assert!(!s(&[1, 4]).is_subset_of(&s(&[1, 2, 3])));
        assert!(s(&[]).is_subset_of(&s(&[1])));
        assert!(!s(&[1, 2, 3]).is_subset_of(&s(&[1, 2])));
    }

    #[test]
    fn without_index_drops_one_item() {
        let x = s(&[1, 2, 3]);
        assert_eq!(x.without_index(0), s(&[2, 3]));
        assert_eq!(x.without_index(1), s(&[1, 3]));
        assert_eq!(x.without_index(2), s(&[1, 2]));
    }

    #[test]
    fn proper_subsets_enumerates_all() {
        let x = s(&[1, 2, 3]);
        let subs: Vec<Itemset> = x.proper_subsets().collect();
        assert_eq!(subs.len(), 3);
        assert!(subs.contains(&s(&[1, 2])));
        assert!(subs.contains(&s(&[1, 3])));
        assert!(subs.contains(&s(&[2, 3])));
    }

    #[test]
    fn union_merges() {
        assert_eq!(s(&[1, 3]).union(&s(&[2, 3, 4])), s(&[1, 2, 3, 4]));
        assert_eq!(s(&[]).union(&s(&[1])), s(&[1]));
        assert_eq!(s(&[1]).union(&s(&[])), s(&[1]));
    }

    #[test]
    fn difference_removes() {
        assert_eq!(s(&[1, 2, 3]).difference(&s(&[2])), s(&[1, 3]));
        assert_eq!(s(&[1, 2]).difference(&s(&[3])), s(&[1, 2]));
        assert_eq!(s(&[1]).difference(&s(&[1])), s(&[]));
    }

    #[test]
    fn extended_with_appends() {
        assert_eq!(s(&[1, 2]).extended_with(ItemId(5)), s(&[1, 2, 5]));
        assert_eq!(s(&[]).extended_with(ItemId(1)), s(&[1]));
    }

    #[test]
    #[should_panic(expected = "exceed current maximum")]
    #[cfg(debug_assertions)]
    fn extended_with_rejects_non_increasing() {
        let _ = s(&[1, 5]).extended_with(ItemId(3));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = vec![s(&[2]), s(&[1, 2]), s(&[1])];
        v.sort();
        assert_eq!(v, vec![s(&[1]), s(&[1, 2]), s(&[2])]);
    }

    #[test]
    fn contains_item() {
        let x = s(&[1, 5, 9]);
        assert!(x.contains(ItemId(5)));
        assert!(!x.contains(ItemId(6)));
    }

    #[test]
    fn table_from_sorted_and_unsorted_agree() {
        let sorted = vec![s(&[1, 2]), s(&[1, 3]), s(&[2, 3]), s(&[2, 5])];
        let mut shuffled = sorted.clone();
        shuffled.reverse();
        shuffled.push(s(&[1, 3])); // duplicate
        let a = ItemsetTable::from_itemsets(&sorted);
        let b = ItemsetTable::from_itemsets(&shuffled);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.k(), 2);
        assert_eq!(a.to_itemsets(), sorted);
    }

    #[test]
    fn table_run_index_groups_shared_prefixes() {
        let sets = vec![
            s(&[1, 2, 4]),
            s(&[1, 2, 7]),
            s(&[1, 3, 4]),
            s(&[2, 3, 4]),
            s(&[2, 3, 9]),
        ];
        let t = ItemsetTable::from_itemsets(&sets);
        assert_eq!(t.num_runs(), 3);
        assert_eq!(t.run_bounds(0), (0, 2)); // prefix {1,2}
        assert_eq!(t.run_bounds(1), (2, 3)); // prefix {1,3}
        assert_eq!(t.run_bounds(2), (3, 5)); // prefix {2,3}
    }

    #[test]
    fn table_k1_is_one_run() {
        let sets: Vec<Itemset> = (0..5u32).map(|i| s(&[i])).collect();
        let t = ItemsetTable::from_itemsets(&sets);
        assert_eq!(t.num_runs(), 1);
        assert_eq!(t.run_bounds(0), (0, 5));
    }

    #[test]
    fn table_contains_is_exact() {
        let sets = vec![s(&[1, 2]), s(&[1, 9]), s(&[4, 5]), s(&[7, 8])];
        let t = ItemsetTable::from_itemsets(&sets);
        for x in &sets {
            assert!(t.contains(x.items()), "{x:?}");
        }
        assert!(!t.contains(&[ItemId(1), ItemId(3)]));
        assert!(!t.contains(&[ItemId(0), ItemId(1)]));
        assert!(!t.contains(&[ItemId(7), ItemId(9)]));
    }

    #[test]
    fn table_empty() {
        let t = ItemsetTable::from_itemsets(&[]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.num_runs(), 0);
        assert!(t.to_itemsets().is_empty());
    }

    #[test]
    fn from_flat_rows_matches_itemset_construction() {
        let sets = vec![s(&[1, 2]), s(&[1, 3]), s(&[2, 3]), s(&[2, 5])];
        let flat: Vec<ItemId> = sets.iter().flat_map(|x| x.items().to_vec()).collect();
        assert_eq!(
            ItemsetTable::from_flat_rows(2, flat),
            ItemsetTable::from_sorted_itemsets(&sets)
        );
        assert!(ItemsetTable::from_flat_rows(3, Vec::new()).is_empty());
    }

    #[test]
    fn retain_rows_compacts_and_reindexes() {
        let sets = vec![
            s(&[1, 2, 4]),
            s(&[1, 2, 7]),
            s(&[1, 3, 4]),
            s(&[2, 3, 4]),
            s(&[2, 3, 9]),
        ];
        let mut t = ItemsetTable::from_itemsets(&sets);
        t.retain_rows(|row| row[2] == ItemId(4));
        let kept = vec![s(&[1, 2, 4]), s(&[1, 3, 4]), s(&[2, 3, 4])];
        assert_eq!(t, ItemsetTable::from_sorted_itemsets(&kept));
        assert_eq!(t.num_runs(), 3);
        // Dropping everything yields the canonical empty table.
        t.retain_rows(|_| false);
        assert!(t.is_empty());
        assert_eq!(t, ItemsetTable::empty());
    }

    #[test]
    fn select_rows_keeps_the_masked_rows_in_order() {
        let sets = vec![s(&[1, 2]), s(&[1, 3]), s(&[2, 3]), s(&[2, 5])];
        let t = ItemsetTable::from_itemsets(&sets);
        let picked = t.select_rows(&[0, 2, 3]);
        assert_eq!(
            picked,
            ItemsetTable::from_sorted_itemsets(&[s(&[1, 2]), s(&[2, 3]), s(&[2, 5])])
        );
        assert_eq!(picked.num_runs(), 2);
        assert!(t.select_rows(&[]).is_empty());
        assert!(ItemsetTable::empty().select_rows(&[]).is_empty());
    }

    #[test]
    fn subtract_is_a_sorted_set_difference() {
        let sets = vec![s(&[1, 2]), s(&[1, 3]), s(&[2, 3]), s(&[2, 5]), s(&[4, 6])];
        let other = ItemsetTable::from_itemsets(&[s(&[0, 9]), s(&[1, 3]), s(&[2, 5]), s(&[7, 8])]);
        let mut t = ItemsetTable::from_itemsets(&sets);
        t.subtract(&other);
        assert_eq!(
            t,
            ItemsetTable::from_sorted_itemsets(&[s(&[1, 2]), s(&[2, 3]), s(&[4, 6])])
        );
        // Subtracting the empty table, or from it, changes nothing.
        t.subtract(&ItemsetTable::empty());
        assert_eq!(t.len(), 3);
        let mut empty = ItemsetTable::empty();
        empty.subtract(&other);
        assert!(empty.is_empty());
        // Subtracting a table from itself empties it.
        let mut all = ItemsetTable::from_itemsets(&sets);
        all.subtract(&ItemsetTable::from_itemsets(&sets));
        assert_eq!(all, ItemsetTable::empty());
        // The empty table contains nothing, whatever the needle's width.
        assert!(!ItemsetTable::empty().contains(&[ItemId(1)]));
    }

    #[test]
    fn row_itemset_and_into_flat_round_trip() {
        let sets = vec![s(&[3, 5]), s(&[4, 9])];
        let t = ItemsetTable::from_itemsets(&sets);
        assert_eq!(t.row_itemset(1), s(&[4, 9]));
        let (k, items) = t.clone().into_flat();
        assert_eq!(k, 2);
        assert_eq!(ItemsetTable::from_flat_rows(k, items), t);
    }
}
