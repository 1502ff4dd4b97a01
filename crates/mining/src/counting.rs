//! The first pass every miner makes over a [`TransactionSource`]:
//! per-item support counts.
//!
//! The pass routes through [`crate::engine`]: pass the engine
//! configuration to choose the worker count ([`EngineConfig::serial`]
//! reproduces the historical single-threaded scan exactly). Candidate
//! passes (k ≥ 2) count an [`ItemsetTable`](crate::ItemsetTable) with
//! [`engine::count_table_with`].

use crate::engine::{self, EngineConfig};
use fup_tidb::{ItemId, TransactionSource};

/// Per-item support counts from one full pass (the "first iteration" of
/// every miner). Items are dense, so counts live in a flat vector.
#[derive(Debug, Default, Clone)]
pub struct ItemCounts {
    counts: Vec<u64>,
}

impl ItemCounts {
    /// Counts every item over one full pass of `source`, using the default
    /// engine configuration (all available cores).
    pub fn count<S: TransactionSource + ?Sized>(source: &S) -> Self {
        Self::count_with(source, &EngineConfig::default())
    }

    /// Counts every item over one full pass of `source` with an explicit
    /// engine configuration.
    pub fn count_with<S: TransactionSource + ?Sized>(source: &S, config: &EngineConfig) -> Self {
        engine::count_items_with(source, config)
    }

    /// Wraps a dense count table (index = item id).
    pub(crate) fn from_dense(counts: Vec<u64>) -> Self {
        ItemCounts { counts }
    }

    /// The support count of `item` (0 if never seen).
    #[inline]
    pub fn get(&self, item: ItemId) -> u64 {
        self.counts.get(item.index()).copied().unwrap_or(0)
    }

    /// Iterates `(item, count)` for every item with a non-zero count.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (ItemId, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (ItemId(i as u32), c))
    }

    /// Number of item slots tracked (max item id + 1).
    pub fn capacity(&self) -> usize {
        self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Itemset, ItemsetTable};
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
    fn item_counts_count_occurrences() {
        let d = db(&[&[1, 2], &[2, 3], &[2]]);
        let counts = ItemCounts::count(&d);
        assert_eq!(counts.get(ItemId(1)), 1);
        assert_eq!(counts.get(ItemId(2)), 3);
        assert_eq!(counts.get(ItemId(3)), 1);
        assert_eq!(counts.get(ItemId(4)), 0);
        assert_eq!(counts.get(ItemId(1000)), 0);
    }

    #[test]
    fn item_counts_nonzero_iteration() {
        let d = db(&[&[0, 5]]);
        let counts = ItemCounts::count(&d);
        let nz: Vec<_> = counts.iter_nonzero().collect();
        assert_eq!(nz, vec![(ItemId(0), 1), (ItemId(5), 1)]);
        assert_eq!(counts.capacity(), 6);
    }

    #[test]
    fn item_counts_empty_source() {
        let d = db(&[]);
        let counts = ItemCounts::count(&d);
        assert_eq!(counts.capacity(), 0);
        assert_eq!(counts.iter_nonzero().count(), 0);
    }

    #[test]
    fn count_table_counts_each_pass_once() {
        let d = db(&[&[1, 2, 3], &[1, 3], &[2, 3]]);
        let table = ItemsetTable::from_itemsets(&[s(&[1, 3]), s(&[2, 3]), s(&[1, 2])]);
        let counts = engine::count_table_with(&d, &table, &EngineConfig::default());
        // Row order is the table's sorted order: {1,2}, {1,3}, {2,3}.
        assert_eq!(counts, vec![1, 2, 2]);
        assert_eq!(d.metrics().full_scans(), 1);
    }

    #[test]
    fn count_table_empty_is_free() {
        let d = db(&[&[1]]);
        let counts = engine::count_table_with(&d, &ItemsetTable::empty(), &EngineConfig::default());
        assert!(counts.is_empty());
        // No scan was charged for an empty candidate pool.
        assert_eq!(d.metrics().full_scans(), 0);
    }
}
