//! Flat in-memory transaction store.

use crate::item::ItemId;
use crate::scan::ScanMetrics;
use crate::source::TransactionSource;
use crate::transaction::Transaction;

/// An in-memory transaction database: the `DB` (or `db`) of the paper.
///
/// Every full pass over the store goes through
/// [`for_each`](TransactionSource::for_each) so scan volume is charged to
/// [`metrics`](TransactionSource::metrics); algorithms never index into the
/// store directly, mirroring the sequential-scan access pattern of the
/// paper's disk-resident databases.
#[derive(Debug, Default)]
pub struct TransactionDb {
    transactions: Vec<Transaction>,
    metrics: ScanMetrics,
}

impl TransactionDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty database with room for `n` transactions.
    pub fn with_capacity(n: usize) -> Self {
        TransactionDb {
            transactions: Vec::with_capacity(n),
            metrics: ScanMetrics::new(),
        }
    }

    /// Builds a database from transactions.
    pub fn from_transactions<I: IntoIterator<Item = Transaction>>(iter: I) -> Self {
        TransactionDb {
            transactions: iter.into_iter().collect(),
            metrics: ScanMetrics::new(),
        }
    }

    /// Appends one transaction.
    pub fn push(&mut self, t: Transaction) {
        self.transactions.push(t);
    }

    /// Appends many transactions.
    pub fn extend<I: IntoIterator<Item = Transaction>>(&mut self, iter: I) {
        self.transactions.extend(iter);
    }

    /// Number of transactions (the paper's `D` for the original database,
    /// `d` for the increment).
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// `true` if the store holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Direct, *uncharged* access to the stored transactions. Intended for
    /// tests and for building derived stores (trimmed copies, pagings); mining
    /// code must scan via [`TransactionSource::for_each`].
    pub fn raw(&self) -> &[Transaction] {
        &self.transactions
    }

    /// Consumes the store, returning its transactions.
    pub fn into_transactions(self) -> Vec<Transaction> {
        self.transactions
    }

    /// The largest item id present, if any. Useful for sizing per-item
    /// tables (DHP bucket hashing, item counters).
    pub fn max_item(&self) -> Option<ItemId> {
        self.transactions
            .iter()
            .filter_map(|t| t.items().last())
            .max()
            .copied()
    }

    /// Sum of transaction lengths.
    pub fn total_items(&self) -> u64 {
        self.transactions.iter().map(|t| t.len() as u64).sum()
    }
}

impl TransactionSource for TransactionDb {
    fn num_transactions(&self) -> u64 {
        self.transactions.len() as u64
    }

    fn for_each(&self, f: &mut dyn FnMut(&[ItemId])) {
        crate::source::slice_for_each(&self.transactions, &self.metrics, f);
    }

    fn metrics(&self) -> &ScanMetrics {
        &self.metrics
    }

    /// Chunks are zero-copy views of the stored transactions.
    fn chunk<'s>(
        &'s self,
        chunk_size: usize,
        index: u64,
        _scratch: &'s mut crate::chunk::ChunkScratch,
    ) -> crate::chunk::TxChunk<'s> {
        crate::source::slice_chunk(&self.transactions, &self.metrics, chunk_size, index)
    }
}

impl FromIterator<Transaction> for TransactionDb {
    fn from_iter<I: IntoIterator<Item = Transaction>>(iter: I) -> Self {
        TransactionDb::from_transactions(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(items: &[u32]) -> Transaction {
        Transaction::from_items(items.iter().copied())
    }

    #[test]
    fn push_and_len() {
        let mut db = TransactionDb::new();
        assert!(db.is_empty());
        db.push(tx(&[1, 2]));
        db.push(tx(&[3]));
        assert_eq!(db.len(), 2);
        assert_eq!(db.total_items(), 3);
    }

    #[test]
    fn for_each_charges_metrics() {
        let db = TransactionDb::from_transactions(vec![tx(&[1, 2, 3]), tx(&[4])]);
        let mut n = 0;
        db.for_each(&mut |_| n += 1);
        db.for_each(&mut |_| n += 1);
        assert_eq!(n, 4);
        assert_eq!(db.metrics().full_scans(), 2);
        assert_eq!(db.metrics().transactions_read(), 4);
        assert_eq!(db.metrics().items_read(), 8);
    }

    #[test]
    fn max_item_and_empty() {
        let db = TransactionDb::new();
        assert_eq!(db.max_item(), None);
        let db = TransactionDb::from_transactions(vec![tx(&[9, 1]), tx(&[5])]);
        assert_eq!(db.max_item(), Some(ItemId(9)));
    }

    #[test]
    fn from_iterator() {
        let db: TransactionDb = vec![tx(&[1]), tx(&[2])].into_iter().collect();
        assert_eq!(db.len(), 2);
        assert_eq!(db.into_transactions().len(), 2);
    }

    #[test]
    fn with_capacity_starts_empty() {
        let db = TransactionDb::with_capacity(128);
        assert!(db.is_empty());
        assert_eq!(db.num_transactions(), 0);
    }
}
