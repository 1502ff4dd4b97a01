//! Property tests for the substrate: codec roundtrips, paging fidelity,
//! segmented-store invariants, and text I/O.

use fup_tidb::chunk::TxChunk;
use fup_tidb::page::{decode_page, PagedStore};
use fup_tidb::{
    codec, io, SegmentedDb, ShardSpec, ShardedDb, Tid, Transaction, TransactionSource, UpdateBatch,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_transaction() -> impl Strategy<Value = Transaction> {
    proptest::collection::vec(0u32..5_000_000, 0..60).prop_map(Transaction::from_items)
}

/// The rows of `db` in every order it hands them out, checked against
/// `reference`: each shard ascends by tid; a full pass and a chunked scan
/// deliver the rows in `iter()` order; `get`, `contains` and `len` agree.
fn check_store(db: &ShardedDb, reference: &BTreeMap<Tid, Transaction>) -> Result<(), String> {
    for s in 0..db.num_shards() {
        let tids: Vec<Tid> = db.shard(s).iter().map(|(tid, _)| tid).collect();
        prop_assert!(
            tids.is_sorted_by(|a, b| a < b),
            "shard {} out of tid order: {:?}",
            s,
            tids
        );
    }
    let rows: Vec<Vec<_>> = db.iter().map(|(_, t)| t.items().to_vec()).collect();
    let mut pass = Vec::new();
    db.for_each(&mut |t| pass.push(t.to_vec()));
    prop_assert_eq!(&pass, &rows);
    for chunk_size in [1, 3, 64] {
        let mut chunked = Vec::new();
        db.for_each_chunk(chunk_size, &mut |c: &TxChunk<'_>| {
            chunked.extend(c.iter().map(|t| t.to_vec()));
        });
        prop_assert_eq!(&chunked, &rows, "chunk size {}", chunk_size);
    }
    prop_assert_eq!(db.len(), reference.len());
    for tid in (0..=db.watermark()).map(Tid) {
        prop_assert_eq!(db.get(tid), reference.get(&tid), "{:?}", tid);
        prop_assert_eq!(db.contains(tid), reference.contains_key(&tid), "{:?}", tid);
    }
    Ok(())
}

/// [`check_store`], plus: the reference's rows recovered under `other`
/// (another shard count) hold the same rows.
fn check_against(
    db: &ShardedDb,
    reference: &BTreeMap<Tid, Transaction>,
    other: &ShardSpec,
) -> Result<(), String> {
    check_store(db, reference)?;
    let view = db.live_view();
    let recovered = ShardedDb::from_recovered(
        other.clone(),
        reference.iter().map(|(&tid, t)| (tid, t.clone())).collect(),
        view.watermark(),
        view.tombstones_sorted(),
        db.next_segment(),
    )
    .unwrap();
    check_store(&recovered, reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn codec_roundtrips_any_transaction(t in arb_transaction()) {
        let buf = codec::encode_to_vec(&t);
        prop_assert_eq!(buf.len(), codec::encoded_len(t.items()));
        let mut pos = 0;
        let mut out = Vec::new();
        codec::decode_transaction(&buf, &mut pos, &mut out).unwrap();
        prop_assert_eq!(pos, buf.len());
        prop_assert_eq!(out.as_slice(), t.items());
    }

    #[test]
    fn codec_rejects_any_truncation(t in arb_transaction()) {
        prop_assume!(!t.is_empty());
        let buf = codec::encode_to_vec(&t);
        let mut out = Vec::new();
        for cut in 0..buf.len() {
            let mut pos = 0;
            prop_assert!(
                codec::decode_transaction(&buf[..cut], &mut pos, &mut out).is_err(),
                "truncation at {cut} decoded"
            );
        }
    }

    #[test]
    fn paged_store_roundtrips(
        txs in proptest::collection::vec(arb_transaction(), 0..80),
        page_size in 64usize..1024,
    ) {
        let mut store = PagedStore::with_page_size(page_size);
        let mut stored = Vec::new();
        for t in &txs {
            // Oversized transactions are rejected, not corrupted.
            if store.append(t).is_ok() {
                stored.push(t.clone());
            }
        }
        prop_assert_eq!(store.num_transactions(), stored.len() as u64);
        // The raw page images decode back to exactly what was stored.
        let mut back = Vec::new();
        for p in 0..store.num_pages() {
            decode_page(store.page_bytes(p), page_size, &mut back).unwrap();
        }
        prop_assert_eq!(back, stored);
    }

    #[test]
    fn segmented_store_stage_commit_abort(
        initial in proptest::collection::vec(arb_transaction(), 1..30),
        inserts in proptest::collection::vec(arb_transaction(), 0..10),
        delete_picks in proptest::collection::vec(any::<prop::sample::Index>(), 0..8),
        abort in any::<bool>(),
    ) {
        let mut db = SegmentedDb::new();
        let tids = db.append_all(initial.clone());
        let mut deletes: Vec<_> = delete_picks
            .iter()
            .map(|ix| tids[ix.index(tids.len())])
            .collect();
        deletes.sort();
        deletes.dedup();
        let n_del = deletes.len();
        let n_ins = inserts.len();

        let staged = db
            .stage(UpdateBatch { inserts, deletes: deletes.clone() })
            .unwrap();
        // While staged, live = initial − deleted.
        prop_assert_eq!(db.len(), initial.len() - n_del);
        for tid in &deletes {
            prop_assert!(!db.contains(*tid));
        }
        if abort {
            db.abort(staged);
            prop_assert_eq!(db.len(), initial.len());
            for tid in &deletes {
                prop_assert!(db.contains(*tid));
            }
        } else {
            let (_seg, new_tids) = db.commit(staged);
            prop_assert_eq!(new_tids.len(), n_ins);
            prop_assert_eq!(db.len(), initial.len() - n_del + n_ins);
            for tid in new_tids {
                prop_assert!(db.contains(tid));
            }
        }
        // Scan delivers exactly the live set.
        let mut scanned = 0u64;
        db.for_each(&mut |_| scanned += 1);
        prop_assert_eq!(scanned, db.len() as u64);
    }

    /// Random stage/commit/abort scripts keep every shard's rows in tid
    /// order, at one shard and at four striped shards: deletes land
    /// anywhere in a shard, listed in any order, and aborted deleting
    /// batches merge their rows back.
    #[test]
    fn store_rows_stay_in_tid_order_through_any_script(
        initial in proptest::collection::vec(arb_transaction(), 0..40),
        steps in proptest::collection::vec(
            (
                proptest::collection::vec(arb_transaction(), 0..6),
                proptest::collection::vec(any::<prop::sample::Index>(), 0..6),
                any::<bool>(),
            ),
            1..6,
        ),
    ) {
        let four = ShardSpec::striped_with(4, 3);
        let one = ShardSpec::striped(1);
        for (spec, other) in [(one.clone(), four.clone()), (four, one)] {
            let mut db = ShardedDb::from_transactions(spec, initial.clone()).unwrap();
            let mut reference: BTreeMap<Tid, Transaction> =
                db.iter().map(|(tid, t)| (tid, t.clone())).collect();
            check_against(&db, &reference, &other)?;
            for (inserts, picks, abort) in &steps {
                let live: Vec<Tid> = reference.keys().copied().collect();
                let mut deletes: Vec<Tid> = Vec::new();
                for pick in picks.iter().filter(|_| !live.is_empty()) {
                    let tid = live[pick.index(live.len())];
                    if !deletes.contains(&tid) {
                        deletes.push(tid);
                    }
                }
                let staged = db
                    .stage(UpdateBatch { inserts: inserts.clone(), deletes: deletes.clone() })
                    .unwrap();
                // db⁻ comes back in batch order; the store holds DB⁻.
                let removed: Vec<Transaction> =
                    deletes.iter().map(|tid| reference[tid].clone()).collect();
                prop_assert_eq!(staged.deleted().raw(), &removed[..]);
                let mut staged_ref = reference.clone();
                for tid in &deletes {
                    staged_ref.remove(tid);
                }
                check_store(&db, &staged_ref)?;
                if *abort {
                    db.abort(staged);
                } else {
                    let (_, tids) = db.commit(staged);
                    reference = staged_ref;
                    reference.extend(tids.into_iter().zip(inserts.iter().cloned()));
                }
                check_against(&db, &reference, &other)?;
            }
        }
    }

    #[test]
    fn numeric_io_roundtrips(
        txs in proptest::collection::vec(
            proptest::collection::vec(0u32..100_000, 1..20).prop_map(Transaction::from_items),
            0..40,
        ),
    ) {
        let mut buf = Vec::new();
        io::write_numeric(&mut buf, &txs).unwrap();
        let back = io::read_numeric(&buf[..]).unwrap();
        prop_assert_eq!(back, txs);
    }

    #[test]
    fn chunked_scan_matches_for_each(
        txs in proptest::collection::vec(
            proptest::collection::vec(0u32..100_000, 0..20).prop_map(Transaction::from_items),
            0..60,
        ),
        chunk_size in 1usize..16,
    ) {
        use fup_tidb::source::ChainSource;
        use fup_tidb::TransactionDb;

        let collect_serial = |s: &dyn TransactionSource| {
            let mut out: Vec<Vec<_>> = Vec::new();
            s.for_each(&mut |t| out.push(t.to_vec()));
            out
        };
        let collect_chunked = |s: &dyn TransactionSource| {
            let mut out: Vec<Vec<_>> = Vec::new();
            let mut max_len = 0usize;
            s.for_each_chunk(chunk_size, &mut |c: &TxChunk<'_>| {
                max_len = max_len.max(c.len());
                for t in c.iter() {
                    out.push(t.to_vec());
                }
            });
            prop_assert!(max_len <= chunk_size, "oversized chunk");
            Ok(out)
        };

        // TransactionDb: fresh instances so metrics are comparable.
        let a = TransactionDb::from_transactions(txs.clone());
        let b = TransactionDb::from_transactions(txs.clone());
        let serial = collect_serial(&a);
        prop_assert_eq!(&collect_chunked(&b)?, &serial);
        prop_assert_eq!(a.metrics().snapshot(), b.metrics().snapshot());

        // SegmentedDb.
        let a = SegmentedDb::from_transactions(txs.clone());
        let b = SegmentedDb::from_transactions(txs.clone());
        prop_assert_eq!(collect_chunked(&b)?, collect_serial(&a));
        prop_assert_eq!(a.metrics().snapshot(), b.metrics().snapshot());

        // PagedStore (oversized transactions rejected identically on both).
        let mut a = PagedStore::with_page_size(128);
        let mut b = PagedStore::with_page_size(128);
        for t in &txs {
            let ra = a.append(t).is_ok();
            prop_assert_eq!(ra, b.append(t).is_ok());
        }
        let serial = collect_serial(&a);
        prop_assert_eq!(&collect_chunked(&b)?, &serial);
        // Transaction/item totals match; pages may legitimately differ
        // (chunk boundaries re-read straddled pages).
        prop_assert_eq!(
            a.metrics().snapshot().transactions_read,
            b.metrics().snapshot().transactions_read
        );
        prop_assert_eq!(
            a.metrics().snapshot().items_read,
            b.metrics().snapshot().items_read
        );

        // ChainSource over a split of the same transactions.
        let mid = txs.len() / 2;
        let front = TransactionDb::from_transactions(txs[..mid].to_vec());
        let back = TransactionDb::from_transactions(txs[mid..].to_vec());
        let chain = ChainSource::new(&front, &back);
        let chunked = collect_chunked(&chain)?;
        let front2 = TransactionDb::from_transactions(txs[..mid].to_vec());
        let back2 = TransactionDb::from_transactions(txs[mid..].to_vec());
        let chain2 = ChainSource::new(&front2, &back2);
        prop_assert_eq!(chunked, collect_serial(&chain2));
        prop_assert_eq!(front.metrics().snapshot(), front2.metrics().snapshot());
        prop_assert_eq!(back.metrics().snapshot(), back2.metrics().snapshot());
    }

    #[test]
    fn scan_metrics_count_exactly(
        txs in proptest::collection::vec(arb_transaction(), 0..30),
        passes in 1usize..4,
    ) {
        let db = fup_tidb::TransactionDb::from_transactions(txs.clone());
        for _ in 0..passes {
            db.for_each(&mut |_| {});
        }
        let m = db.metrics();
        prop_assert_eq!(m.full_scans(), passes as u64);
        prop_assert_eq!(m.transactions_read(), (passes * txs.len()) as u64);
        let items: u64 = txs.iter().map(|t| t.len() as u64).sum();
        prop_assert_eq!(m.items_read(), passes as u64 * items);
    }
}
