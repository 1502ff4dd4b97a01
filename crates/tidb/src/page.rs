//! Paged storage simulation.
//!
//! The paper evaluated on databases resident on an RS/6000's disks; scan
//! cost is proportional to pages read. [`PagedStore`] packs encoded
//! transactions into fixed-size pages (default 4 KiB) and charges
//! pages/bytes to its [`ScanMetrics`] on every pass, so experiments can
//! report I/O volume alongside wall-clock time. This is the documented
//! substitution for real disk I/O; durable checkpoints store the live
//! transactions in this same page layout (DESIGN_DURABILITY.md,
//! "Checkpoint format").

use crate::codec;
use crate::error::{Error, Result};
use crate::item::ItemId;
use crate::scan::ScanMetrics;
use crate::source::TransactionSource;
use crate::transaction::Transaction;

/// Default page size: 4 KiB, a common database block size.
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Per-page header: u16 count of transactions in the page.
const PAGE_HEADER: usize = 2;

/// A fixed-size page of encoded transactions.
#[derive(Debug, Clone)]
struct Page {
    /// Encoded bytes (header + payload), `len() <= page_size`.
    data: Vec<u8>,
    /// Number of transactions encoded in the page.
    count: u16,
}

/// An append-only, paged transaction store.
///
/// Transactions are varint/delta encoded ([`crate::codec`]) and packed
/// first-fit into pages. Scans decode pages sequentially, charging one page
/// read plus the page's bytes per page.
#[derive(Debug)]
pub struct PagedStore {
    pages: Vec<Page>,
    /// `page_first_txn[p]` = global index of the first transaction stored
    /// in page `p`; lets chunked scans locate a transaction's page in
    /// `O(log pages)`.
    page_first_txn: Vec<u64>,
    page_size: usize,
    num_transactions: u64,
    metrics: ScanMetrics,
}

impl Default for PagedStore {
    fn default() -> Self {
        Self::new()
    }
}

impl PagedStore {
    /// Creates an empty store with the default 4 KiB page size.
    pub fn new() -> Self {
        Self::with_page_size(DEFAULT_PAGE_SIZE)
    }

    /// Creates an empty store with a custom page size (min 8 bytes).
    pub fn with_page_size(page_size: usize) -> Self {
        assert!(
            page_size > PAGE_HEADER + codec::MAX_VARINT_LEN,
            "page size too small"
        );
        PagedStore {
            pages: Vec::new(),
            page_first_txn: Vec::new(),
            page_size,
            num_transactions: 0,
            metrics: ScanMetrics::new(),
        }
    }

    /// Builds a store from transactions.
    pub fn from_transactions<'a, I>(iter: I) -> Result<Self>
    where
        I: IntoIterator<Item = &'a Transaction>,
    {
        let mut store = PagedStore::new();
        for t in iter {
            store.append(t)?;
        }
        Ok(store)
    }

    /// Appends one transaction, starting a new page when the current one is
    /// full. Fails if the encoded transaction cannot fit in an empty page.
    pub fn append(&mut self, t: &Transaction) -> Result<()> {
        let need = codec::encoded_len(t.items());
        let capacity = self.page_size - PAGE_HEADER;
        if need > capacity {
            return Err(Error::TransactionTooLarge {
                encoded_len: need,
                page_capacity: capacity,
            });
        }
        let fits = self
            .pages
            .last()
            .map(|p| p.data.len() + need <= self.page_size)
            .unwrap_or(false);
        if !fits {
            let mut data = Vec::with_capacity(self.page_size);
            data.extend_from_slice(&0u16.to_le_bytes());
            self.pages.push(Page { data, count: 0 });
            self.page_first_txn.push(self.num_transactions);
        }
        let page = self.pages.last_mut().expect("page exists");
        codec::encode_transaction(&mut page.data, t.items());
        page.count += 1;
        let count_bytes = page.count.to_le_bytes();
        page.data[0] = count_bytes[0];
        page.data[1] = count_bytes[1];
        self.num_transactions += 1;
        Ok(())
    }

    /// Number of pages currently allocated.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// The raw bytes of page `idx` (header + encoded transactions) — the
    /// exact on-"disk" image the durable checkpoint format embeds.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_pages()`.
    pub fn page_bytes(&self, idx: usize) -> &[u8] {
        &self.pages[idx].data
    }

    /// Total encoded bytes across all pages (excluding slack).
    pub fn encoded_bytes(&self) -> u64 {
        self.pages.iter().map(|p| p.data.len() as u64).sum()
    }

    /// The configured page size.
    pub fn page_size(&self) -> usize {
        self.page_size
    }
}

/// Decodes one raw page image — as [`PagedStore::page_bytes`] returns it,
/// from a store of `page_size`-byte pages — in place, appending its
/// transactions to `out`. A page shorter than its header or longer than
/// `page_size`, whose count header promises more transactions than its
/// bytes hold, or with bytes after its last transaction is
/// [`Error::Corrupt`], and so is any transaction the codec rejects. The
/// durable checkpoint reader restores its embedded pages through this.
pub fn decode_page(page: &[u8], page_size: usize, out: &mut Vec<Transaction>) -> Result<()> {
    if page.len() < PAGE_HEADER || page.len() > page_size {
        return Err(Error::Corrupt {
            reason: format!("page has invalid length {}", page.len()),
            offset: None,
        });
    }
    let count = u16::from_le_bytes([page[0], page[1]]);
    let mut pos = PAGE_HEADER;
    let mut items: Vec<ItemId> = Vec::new();
    for _ in 0..count {
        codec::decode_transaction(page, &mut pos, &mut items)?;
        out.push(Transaction::from_sorted_vec(items.to_vec()));
    }
    if pos != page.len() {
        return Err(Error::Corrupt {
            reason: "page has trailing bytes".into(),
            offset: Some(pos),
        });
    }
    Ok(())
}

impl TransactionSource for PagedStore {
    fn num_transactions(&self) -> u64 {
        self.num_transactions
    }

    /// # Panics
    ///
    /// Panics if a page is corrupt. Pages are only written by
    /// [`PagedStore::append`], so corruption here indicates an internal
    /// bug; [`decode_page`] is the fallible decoder for untrusted images.
    fn for_each(&self, f: &mut dyn FnMut(&[ItemId])) {
        self.metrics.record_full_scan();
        let mut items: Vec<ItemId> = Vec::new();
        for page in &self.pages {
            self.metrics.record_page();
            self.metrics.record_bytes(page.data.len() as u64);
            let mut pos = PAGE_HEADER;
            for _ in 0..page.count {
                codec::decode_transaction(&page.data, &mut pos, &mut items)
                    .expect("internal page corruption");
                self.metrics.record_transaction(items.len());
                f(&items);
            }
        }
    }

    fn metrics(&self) -> &ScanMetrics {
        &self.metrics
    }

    /// Chunks decode into the scratch arena. Every page touched is charged
    /// (page + bytes), so a chunk boundary falling mid-page charges that
    /// page to both adjacent chunks — faithfully modelling two workers each
    /// reading the block.
    ///
    /// # Panics
    ///
    /// Panics if a page is corrupt (see [`PagedStore::for_each`]).
    fn chunk<'s>(
        &'s self,
        chunk_size: usize,
        index: u64,
        scratch: &'s mut crate::chunk::ChunkScratch,
    ) -> crate::chunk::TxChunk<'s> {
        let (start, end) = crate::source::chunk_bounds(self.num_transactions(), chunk_size, index);
        scratch.clear();
        if start == end {
            return scratch.as_chunk();
        }
        // Last page whose first transaction is ≤ start.
        let mut page_idx = self
            .page_first_txn
            .partition_point(|&first| first <= start as u64)
            .saturating_sub(1);
        let mut txn = self.page_first_txn[page_idx] as usize;
        let mut items_total = 0u64;
        while txn < end {
            let page = &self.pages[page_idx];
            self.metrics.record_page();
            self.metrics.record_bytes(page.data.len() as u64);
            let mut pos = PAGE_HEADER;
            for _ in 0..page.count {
                if txn >= end {
                    break;
                }
                codec::decode_transaction(&page.data, &mut pos, scratch.tmp_buffer())
                    .expect("internal page corruption");
                if txn >= start {
                    items_total += scratch.tmp_buffer().len() as u64;
                    scratch.push_tmp();
                }
                txn += 1;
            }
            page_idx += 1;
        }
        self.metrics
            .record_transactions((end - start) as u64, items_total);
        scratch.as_chunk()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(items: &[u32]) -> Transaction {
        Transaction::from_items(items.iter().copied())
    }

    /// Every transaction of `store`, decoded by one full scan.
    fn scan(store: &PagedStore) -> Vec<Transaction> {
        let mut out = Vec::new();
        store.for_each(&mut |items| out.push(Transaction::from_sorted_vec(items.to_vec())));
        out
    }

    #[test]
    fn append_and_scan_roundtrip() {
        let txs: Vec<Transaction> = (0..100).map(|i| tx(&[i, i + 1, i + 2, 500 + i])).collect();
        let store = PagedStore::from_transactions(&txs).unwrap();
        assert_eq!(store.num_transactions(), 100);
        let back = scan(&store);
        assert_eq!(back, txs);
    }

    #[test]
    fn pages_fill_and_roll_over() {
        // Tiny pages force roll-over.
        let mut store = PagedStore::with_page_size(16);
        for i in 0..10 {
            store.append(&tx(&[i, i + 100])).unwrap();
        }
        assert!(store.num_pages() > 1, "expected multiple pages");
        let back = scan(&store);
        assert_eq!(back.len(), 10);
    }

    #[test]
    fn oversized_transaction_rejected() {
        let mut store = PagedStore::with_page_size(16);
        let big = tx(&(0..100).collect::<Vec<_>>());
        let err = store.append(&big).unwrap_err();
        assert!(matches!(err, Error::TransactionTooLarge { .. }));
        assert_eq!(store.num_transactions(), 0);
    }

    #[test]
    fn scan_charges_pages_and_bytes() {
        let txs: Vec<Transaction> = (0..50).map(|i| tx(&[i, i + 1])).collect();
        let store = PagedStore::from_transactions(&txs).unwrap();
        let mut n = 0u64;
        store.for_each(&mut |_| n += 1);
        assert_eq!(n, 50);
        let m = store.metrics();
        assert_eq!(m.full_scans(), 1);
        assert_eq!(m.transactions_read(), 50);
        assert_eq!(m.pages_read(), store.num_pages() as u64);
        assert_eq!(m.bytes_read(), store.encoded_bytes());
    }

    #[test]
    fn empty_store_scans_nothing() {
        let store = PagedStore::new();
        let mut n = 0;
        store.for_each(&mut |_| n += 1);
        assert_eq!(n, 0);
        assert_eq!(store.num_pages(), 0);
        assert_eq!(store.metrics().full_scans(), 1);
    }

    #[test]
    fn empty_transaction_stored() {
        let mut store = PagedStore::new();
        store.append(&Transaction::empty()).unwrap();
        store.append(&tx(&[7])).unwrap();
        let back = scan(&store);
        assert_eq!(back[0], Transaction::empty());
        assert_eq!(back[1], tx(&[7]));
    }

    #[test]
    #[should_panic(expected = "page size too small")]
    fn rejects_tiny_page_size() {
        let _ = PagedStore::with_page_size(4);
    }

    #[test]
    fn raw_pages_roundtrip_through_decode_page() {
        let txs: Vec<Transaction> = (0..2_000).map(|i| tx(&[i, i + 3, 900 + i])).collect();
        let store = PagedStore::from_transactions(&txs).unwrap();
        assert!(store.num_pages() > 1, "expected multiple pages");
        let mut back = Vec::new();
        for p in 0..store.num_pages() {
            decode_page(store.page_bytes(p), store.page_size(), &mut back).unwrap();
        }
        assert_eq!(back, txs);
    }
}
