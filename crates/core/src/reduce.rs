//! §3.4 — reduction of the size of the updated database.
//!
//! Two trimming rules shrink what later iterations scan:
//!
//! * **`Reduce-db`** (increment side): while counting the sets in `C ∪ W`
//!   during the k-th scan of the increment, count for each item `I ∈ T`
//!   how many matched sets contain `I`. That number upper-bounds the
//!   number of large k-itemsets containing `I`; if it is below `k`, `I`
//!   cannot belong to any large (k+1)-itemset and is dropped. Transactions
//!   left with fewer than `k + 1` items are dropped entirely.
//! * **`Reduce-DB`** (original side): after `C` has been pruned against
//!   the increment, any item that belongs to no set of `L_k ∪ C` cannot be
//!   in a large (k+1)-itemset; it is removed while `DB` is scanned for the
//!   supports of `C`.
//!
//! The P-set optimisation of iteration 1 is the degenerate case of
//! `Reduce-DB`: items pruned from `C₁` by Lemma 2 are removed from every
//! transaction during the first scan of `DB`.

use fup_tidb::{ItemId, Transaction};
use std::collections::{HashMap, HashSet};

/// Applies the `Reduce-db` rule to one transaction.
///
/// `matched` are the (sorted) item slices of the candidate/winner
/// k-itemsets found in `t` during this scan — the hash tree hands these
/// out straight from its flat candidate arena; `k` is the current
/// iteration. Returns the trimmed transaction, or `None` when it can no
/// longer contain a (k+1)-itemset.
pub fn reduce_db_transaction<'a>(
    t: &[ItemId],
    matched: impl Iterator<Item = &'a [ItemId]>,
    k: usize,
) -> Option<Transaction> {
    let mut hits: HashMap<ItemId, usize> = HashMap::new();
    for set in matched {
        for &item in set {
            *hits.entry(item).or_insert(0) += 1;
        }
    }
    let kept: Vec<ItemId> = t
        .iter()
        .copied()
        .filter(|i| hits.get(i).copied().unwrap_or(0) >= k)
        .collect();
    if kept.len() > k {
        Some(Transaction::from_sorted_vec(kept))
    } else {
        None
    }
}

/// The item universe of a collection of itemset rows (sorted item
/// slices, e.g. the rows of two `ItemsetTable`s) — the `L_k ∪ C` keep-set
/// of `Reduce-DB`.
pub fn item_universe<'a>(rows: impl Iterator<Item = &'a [ItemId]>) -> HashSet<ItemId> {
    let mut keep = HashSet::new();
    for row in rows {
        keep.extend(row.iter().copied());
    }
    keep
}

/// Applies the `Reduce-DB` rule to one transaction: keeps only items in
/// `keep`, dropping the transaction when fewer than `k + 1` items survive.
pub fn reduce_full_transaction(
    t: &[ItemId],
    keep: &HashSet<ItemId>,
    k: usize,
) -> Option<Transaction> {
    let kept: Vec<ItemId> = t.iter().copied().filter(|i| keep.contains(i)).collect();
    if kept.len() > k {
        Some(Transaction::from_sorted_vec(kept))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fup_mining::Itemset;

    fn s(items: &[u32]) -> Itemset {
        Itemset::from_items(items.iter().copied())
    }

    fn ids(items: &[u32]) -> Vec<ItemId> {
        items.iter().map(|&i| ItemId(i)).collect()
    }

    #[test]
    fn reduce_db_keeps_items_with_enough_matches() {
        // k = 2; transaction {1,2,3,4}; matched 2-sets {1,2},{1,3},{2,3}.
        // hits: 1→2, 2→2, 3→2, 4→0 → keep {1,2,3} (len 3 > 2).
        let matched = [s(&[1, 2]), s(&[1, 3]), s(&[2, 3])];
        let out = reduce_db_transaction(&ids(&[1, 2, 3, 4]), matched.iter().map(|x| x.items()), 2)
            .unwrap();
        assert_eq!(out.items(), ids(&[1, 2, 3]).as_slice());
    }

    #[test]
    fn reduce_db_drops_short_transactions() {
        // k = 2; only items 1 and 2 survive → len 2 ≤ k → dropped.
        let matched = [s(&[1, 2])];
        assert!(
            reduce_db_transaction(&ids(&[1, 2, 9]), matched.iter().map(|x| x.items()), 2).is_none()
        );
    }

    #[test]
    fn reduce_db_no_matches_drops_everything() {
        let matched: [&[ItemId]; 0] = [];
        assert!(reduce_db_transaction(&ids(&[1, 2, 3]), matched.into_iter(), 1).is_none());
    }

    #[test]
    fn item_universe_unions_items() {
        let sets = [s(&[1, 2]), s(&[2, 3])];
        let u = item_universe(sets.iter().map(|x| x.items()));
        assert_eq!(u.len(), 3);
        assert!(u.contains(&ItemId(1)));
        assert!(u.contains(&ItemId(3)));
    }

    #[test]
    fn reduce_full_keeps_only_universe_items() {
        let keep = item_universe([s(&[1, 2]), s(&[2, 3])].iter().map(|x| x.items()));
        let out = reduce_full_transaction(&ids(&[1, 2, 3, 7, 9]), &keep, 2).unwrap();
        assert_eq!(out.items(), ids(&[1, 2, 3]).as_slice());
        // Too few survivors → dropped.
        assert!(reduce_full_transaction(&ids(&[1, 7, 9]), &keep, 2).is_none());
    }
}
