//! Candidate generation: the `apriori-gen` function of Agrawal & Srikant,
//! used verbatim by Apriori, DHP, and FUP ("the set of candidate sets, C₂,
//! is generated … by applying the apriori-gen function on L'₁", §3.2).
//!
//! ## The flat, prefix-indexed representation
//!
//! `L_k` is loaded into an [`ItemsetTable`]: one contiguous k-strided
//! `Vec<ItemId>` of rows in lexicographic order, plus an index over the
//! maximal runs of rows sharing their first `k−1` items. On that layout:
//!
//! * **Join** — only pairs inside one run can join, so the join is a
//!   run-local double loop over contiguous memory. The merged candidate is
//!   `row_i` plus the last item of `row_j` — no allocation until a
//!   candidate survives the prune.
//! * **Prune** — a candidate is kept only if every k-subset is in `L_k`.
//!   The two subsets dropping one of the last two items *are* the join
//!   parents and are skipped. Each remaining subset drops one prefix item
//!   and so shares a fixed (k−1)-prefix with `z` (the joined item)
//!   appended; its run is located once per left row with a binary search
//!   over the flat table's run index and then verified by a linear merge
//!   as `z` increases — no hashing, no owned-itemset allocation, and
//!   amortised O(1) membership work per joined pair.
//!
//! Input that is already strictly increasing (every miner feeds the
//! previous pass's sorted output back in) is detected with one linear scan
//! and copied into the table without re-sorting.
//!
//! ## Parallelism
//!
//! [`apriori_gen_flat`] chops the join into batches of left-row segments
//! carrying a fixed pair budget — a single giant run (all of `L₁` shares
//! the empty prefix, so `C₂` generation is *one* run) is split across
//! batches, and many tiny runs coalesce into one — then lets
//! `std::thread::scope` workers claim batch indices off an atomic cursor,
//! the same pattern as the counting engine (`fup_mining::engine`). Each
//! worker collects its candidates per batch and the batches are
//! concatenated in index order, so the output is *identical* (order
//! included) for every thread count; [`GenConfig::serial`] (`threads = 1`)
//! does not spin up workers at all. Levels whose total join work is small
//! stay on the serial path regardless, so thread spawn overhead never
//! penalises the tiny levels that dominate late passes.

use crate::itemset::{Itemset, ItemsetTable};
use fup_tidb::ItemId;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Approximate join pairs per work batch claimed by one worker. Small
/// enough to load-balance skewed prefix distributions (a single giant
/// run — e.g. the whole of `L₁`, which is one run — is split into
/// left-row segments), large enough to amortise the claim and the
/// per-batch output vector.
const PAIRS_PER_BATCH: u64 = 8192;

/// Minimum join-pair count before the parallel path engages; below this
/// the level is generated serially even when more threads are configured.
const PARALLEL_MIN_PAIRS: u64 = 4096;

/// Configuration of candidate generation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GenConfig {
    /// Worker threads for the join+prune. `0` (the default) resolves to
    /// [`std::thread::available_parallelism`]; `1` runs the serial loop.
    /// Every thread count produces byte-identical output.
    pub threads: usize,
}

impl GenConfig {
    /// The serial join+prune (`threads = 1`).
    pub fn serial() -> Self {
        GenConfig { threads: 1 }
    }

    /// A configuration with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        GenConfig { threads }
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

/// Generates size-(k+1) candidates from the size-k large itemsets `prev`,
/// serially — the classic `apriori-gen` signature, a boxed wrapper over
/// [`apriori_gen_flat`] for callers that hold owned itemsets (rule
/// generation's consequents, tests).
///
/// `prev` may be in any order; the output is sorted and duplicate-free.
pub fn apriori_gen(prev: &[Itemset]) -> Vec<Itemset> {
    apriori_gen_flat(&ItemsetTable::from_itemsets(prev), &GenConfig::serial()).to_itemsets()
}

/// Generates size-(k+1) candidates from the size-k level `table`,
/// emitting them straight into a flat [`ItemsetTable`] — no per-candidate
/// allocation anywhere in the join, the prune, or the output — with the
/// join+prune parallelised per `config`; the output is identical (order
/// included) for every thread count. This is the core [`apriori_gen`]
/// wraps, and the form the miners' level loops and the maintenance round
/// consume (both counting backends build from the table without
/// re-boxing).
pub fn apriori_gen_flat(table: &ItemsetTable, config: &GenConfig) -> ItemsetTable {
    if table.is_empty() {
        return ItemsetTable::empty();
    }
    let runs = table.num_runs();
    let out_k = table.k() + 1;
    let threads = config.resolved_threads();
    if threads <= 1 || join_pairs(table) < PARALLEL_MIN_PAIRS {
        let mut out = Vec::new();
        let mut scratch = GenScratch::default();
        for r in 0..runs {
            let (start, end) = table.run_bounds(r);
            generate_range(
                table,
                r,
                start,
                end.saturating_sub(1),
                &mut scratch,
                &mut out,
            );
        }
        return ItemsetTable::from_flat_rows(out_k, out);
    }

    // Parallel path: the join is chopped into batches of left-row
    // segments holding ~PAIRS_PER_BATCH join pairs each — large runs
    // (e.g. all of L₁, which shares the empty prefix) are split across
    // batches, many tiny runs coalesce into one. Workers claim batch
    // indices off an atomic cursor; per-batch outputs concatenate in
    // batch order, so the result equals the serial output exactly.
    let batches = plan_batches(table);
    let workers = threads.min(batches.len());
    let cursor = AtomicUsize::new(0);
    let mut per_worker: Vec<Vec<(usize, Vec<ItemId>)>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let cursor = &cursor;
            let batches = &batches;
            handles.push(scope.spawn(move || {
                let mut done: Vec<(usize, Vec<ItemId>)> = Vec::new();
                let mut scratch = GenScratch::default();
                loop {
                    let batch = cursor.fetch_add(1, Ordering::Relaxed);
                    if batch >= batches.len() {
                        break;
                    }
                    let mut out = Vec::new();
                    for seg in &batches[batch] {
                        generate_range(
                            table,
                            seg.run as usize,
                            seg.lo as usize,
                            seg.hi as usize,
                            &mut scratch,
                            &mut out,
                        );
                    }
                    if !out.is_empty() {
                        done.push((batch, out));
                    }
                }
                done
            }));
        }
        for handle in handles {
            per_worker.push(handle.join().expect("gen worker panicked"));
        }
    });
    let mut done: Vec<(usize, Vec<ItemId>)> = per_worker.into_iter().flatten().collect();
    done.sort_unstable_by_key(|(batch, _)| *batch);
    let mut out = Vec::with_capacity(done.iter().map(|(_, b)| b.len()).sum());
    for (_, batch) in done {
        out.extend(batch);
    }
    ItemsetTable::from_flat_rows(out_k, out)
}

/// Total number of join pairs across all runs — the work estimate gating
/// the parallel path.
fn join_pairs(table: &ItemsetTable) -> u64 {
    let mut total = 0u64;
    for r in 0..table.num_runs() {
        let (start, end) = table.run_bounds(r);
        let n = (end - start) as u64;
        total += n * (n - 1) / 2;
    }
    total
}

/// A left-row segment of one run: rows `lo..hi` join against everything
/// after them inside the run.
struct Segment {
    run: u32,
    lo: u32,
    hi: u32,
}

/// Chops the whole join into batches of segments carrying roughly
/// [`PAIRS_PER_BATCH`] join pairs each, in (run, left-row) order.
fn plan_batches(table: &ItemsetTable) -> Vec<Vec<Segment>> {
    let mut batches = Vec::new();
    let mut batch: Vec<Segment> = Vec::new();
    let mut acc = 0u64;
    for r in 0..table.num_runs() {
        let (start, end) = table.run_bounds(r);
        let mut lo = start;
        // Left rows reach only end-1 (the last row has no join partner).
        while lo + 1 < end {
            let mut hi = lo;
            while hi + 1 < end && acc < PAIRS_PER_BATCH {
                acc += (end - 1 - hi) as u64;
                hi += 1;
            }
            batch.push(Segment {
                run: r as u32,
                lo: lo as u32,
                hi: hi as u32,
            });
            if acc >= PAIRS_PER_BATCH {
                batches.push(std::mem::take(&mut batch));
                acc = 0;
            }
            lo = hi;
        }
    }
    if !batch.is_empty() {
        batches.push(batch);
    }
    batches
}

/// Reusable per-worker state for [`generate_range`]: the prefix scratch
/// buffer and the merge cursors, allocated once per worker.
#[derive(Default)]
struct GenScratch {
    prefix: Vec<ItemId>,
    cursors: Vec<(usize, usize)>,
}

/// Joins and prunes the pairs of one prefix run whose *left* row lies in
/// `i_lo..i_hi` (capped at `end−1`: the run's last row has no join
/// partner), pushing survivors in pair order (which is lexicographic
/// candidate order). The serial path covers each run in one call; the
/// parallel path hands out left-row segments so a single giant run still
/// spreads across workers.
///
/// Prune check for a candidate `a ∪ {z}`: every k-subset must be a row of
/// `table`. The two subsets dropping `z` or `a`'s last item are the join
/// parents and known present; each remaining subset drops one prefix item
/// `m` and so has the fixed (k−1)-prefix `a∖{m}` with `z` appended. Since
/// `z` increases monotonically over the join partners of `a`, each
/// prefix's run is located **once** per left row (a binary search over
/// the run index) and then verified by a linear merge as `z` advances —
/// amortised O(1) per pair instead of a full binary search. A prefix with
/// no run at all prunes every candidate of `a` without touching the inner
/// loop.
fn generate_range(
    table: &ItemsetTable,
    run: usize,
    i_lo: usize,
    i_hi: usize,
    scratch: &mut GenScratch,
    out: &mut Vec<ItemId>,
) {
    let k = table.k();
    let (_, end) = table.run_bounds(run);
    debug_assert!(i_hi < end || i_lo >= i_hi, "left rows must stop at end-1");
    'left: for i in i_lo..i_hi {
        let a = table.row(i);
        // One run lookup per dropped prefix position; (cursor, end) pairs
        // then advance monotonically with z.
        scratch.cursors.clear();
        for m in 0..k.saturating_sub(1) {
            scratch.prefix.clear();
            scratch.prefix.extend_from_slice(&a[..m]);
            scratch.prefix.extend_from_slice(&a[m + 1..]);
            let (lo, hi) = table.prefix_run(&scratch.prefix);
            if lo == hi {
                continue 'left;
            }
            scratch.cursors.push((lo, hi));
        }
        for j in (i + 1)..end {
            let z = table.row(j)[k - 1];
            let mut ok = true;
            for c in scratch.cursors.iter_mut() {
                while c.0 < c.1 && table.row(c.0)[k - 1] < z {
                    c.0 += 1;
                }
                if c.0 == c.1 || table.row(c.0)[k - 1] != z {
                    ok = false;
                    break;
                }
            }
            if ok {
                // Survivor: append the flat (k+1)-row — the join parent's
                // items plus the joined item, already in sorted order.
                out.extend_from_slice(a);
                out.push(z);
            }
        }
    }
}

/// The pre-flat `apriori-gen`: sorts owned references, prunes through a
/// `HashSet` of itemsets, and allocates per joined pair. Kept as the
/// byte-identical reference the equivalence tests and `bench_gen` compare
/// the flat implementation against.
pub fn apriori_gen_reference(prev: &[Itemset]) -> Vec<Itemset> {
    if prev.is_empty() {
        return Vec::new();
    }
    let k = prev[0].k();
    debug_assert!(
        prev.iter().all(|x| x.k() == k),
        "mixed sizes in apriori_gen"
    );

    let mut sorted: Vec<&Itemset> = prev.iter().collect();
    sorted.sort();
    sorted.dedup();
    let members: HashSet<&Itemset> = sorted.iter().copied().collect();

    let mut out = Vec::new();
    // Scan runs of itemsets sharing the (k−1)-prefix; all pairs inside a
    // run join.
    let mut run_start = 0;
    while run_start < sorted.len() {
        let prefix = &sorted[run_start].items()[..k - 1];
        let mut run_end = run_start + 1;
        while run_end < sorted.len() && &sorted[run_end].items()[..k - 1] == prefix {
            run_end += 1;
        }
        for i in run_start..run_end {
            for j in (i + 1)..run_end {
                let last = *sorted[j].items().last().expect("non-empty itemset");
                let candidate = sorted[i].extended_with(last);
                if candidate.proper_subsets().all(|sub| members.contains(&sub)) {
                    out.push(candidate);
                }
            }
        }
        run_start = run_end;
    }
    out
}

/// Deterministic clustered synthetic `L₂` shared by the equivalence
/// tests and `bench_gen`: items `0..clusters*size` partitioned into
/// clusters, all within-cluster pairs except a hashed `1/drop_mod`
/// sliver — the join stays run-dense while the prune has real work to
/// reject (every dropped pair kills the joined triples above it).
pub fn clustered_l2(clusters: u32, size: u32, drop_mod: u32) -> Vec<Itemset> {
    let drop_mod = drop_mod.max(2);
    let mut l2 = Vec::new();
    for c in 0..clusters {
        let base = c * size;
        for a in 0..size {
            for b in (a + 1)..size {
                if (a * 31 + b * 17 + c) % drop_mod != 0 {
                    l2.push(Itemset::from_items([base + a, base + b]));
                }
            }
        }
    }
    l2
}

/// Reference implementation used by tests and property checks: all
/// (k+1)-item unions of members whose every k-subset is a member.
pub fn apriori_gen_naive(prev: &[Itemset]) -> Vec<Itemset> {
    if prev.is_empty() {
        return Vec::new();
    }
    let members: HashSet<&Itemset> = prev.iter().collect();
    let mut out: HashSet<Itemset> = HashSet::new();
    for a in prev {
        for b in prev {
            let u = a.union(b);
            if u.k() == a.k() + 1 && u.proper_subsets().all(|s| members.contains(&s)) {
                out.insert(u);
            }
        }
    }
    let mut v: Vec<Itemset> = out.into_iter().collect();
    v.sort();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(items: &[u32]) -> Itemset {
        Itemset::from_items(items.iter().copied())
    }

    #[test]
    fn paper_example_2_candidate_generation() {
        // Example 2: apriori-gen on L'₁ = {I1, I2, I4} yields
        // C₂ = {I1I2, I1I4, I2I4}.
        let l1 = vec![s(&[1]), s(&[2]), s(&[4])];
        let c2 = apriori_gen(&l1);
        assert_eq!(c2, vec![s(&[1, 2]), s(&[1, 4]), s(&[2, 4])]);
    }

    #[test]
    fn join_requires_shared_prefix() {
        // {1,2} and {1,3} join to {1,2,3}; pruned unless {2,3} is large.
        let l2 = vec![s(&[1, 2]), s(&[1, 3])];
        assert!(apriori_gen(&l2).is_empty());
        let l2 = vec![s(&[1, 2]), s(&[1, 3]), s(&[2, 3])];
        assert_eq!(apriori_gen(&l2), vec![s(&[1, 2, 3])]);
    }

    #[test]
    fn classic_as94_example() {
        // From the Apriori paper: L₃ = {124, 125... } variant:
        // L3 = {{1,2,3},{1,2,4},{1,3,4},{1,3,5},{2,3,4}}
        // join → {1,2,3,4} (from 123+124), {1,3,4,5} (from 134+135)
        // prune → {1,3,4,5} dropped because {1,4,5} ∉ L3.
        let l3 = vec![
            s(&[1, 2, 3]),
            s(&[1, 2, 4]),
            s(&[1, 3, 4]),
            s(&[1, 3, 5]),
            s(&[2, 3, 4]),
        ];
        assert_eq!(apriori_gen(&l3), vec![s(&[1, 2, 3, 4])]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(apriori_gen(&[]).is_empty());
        assert!(apriori_gen(&[s(&[1, 2])]).is_empty());
    }

    #[test]
    fn unsorted_input_handled() {
        let l1 = vec![s(&[4]), s(&[1]), s(&[2])];
        let c2 = apriori_gen(&l1);
        assert_eq!(c2, vec![s(&[1, 2]), s(&[1, 4]), s(&[2, 4])]);
    }

    #[test]
    fn duplicate_input_itemsets_ignored() {
        let l1 = vec![s(&[1]), s(&[1]), s(&[2])];
        assert_eq!(apriori_gen(&l1), vec![s(&[1, 2])]);
    }

    #[test]
    fn matches_naive_on_dense_level() {
        // All 2-subsets of {0..5} are large → C3 = all 3-subsets.
        let mut l2 = Vec::new();
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                l2.push(s(&[a, b]));
            }
        }
        let fast = apriori_gen(&l2);
        let naive = apriori_gen_naive(&l2);
        assert_eq!(fast, naive);
        assert_eq!(fast.len(), 20); // C(6,3)
    }

    #[test]
    fn matches_naive_on_sparse_level() {
        let l2 = vec![
            s(&[1, 2]),
            s(&[2, 3]),
            s(&[1, 3]),
            s(&[3, 4]),
            s(&[2, 4]),
            s(&[5, 6]),
        ];
        assert_eq!(apriori_gen(&l2), apriori_gen_naive(&l2));
    }

    #[test]
    fn output_is_sorted_and_unique() {
        let mut l1: Vec<Itemset> = (0..10u32).map(|i| s(&[i])).collect();
        l1.reverse();
        let c2 = apriori_gen(&l1);
        assert_eq!(c2.len(), 45);
        for w in c2.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn matches_reference_implementation() {
        // The flat implementation must be byte-identical (order included)
        // to the pre-flat HashSet implementation on every input.
        let mut l3 = Vec::new();
        for a in 0..5u32 {
            for b in (a + 1)..6 {
                for c in (b + 1)..7 {
                    if (a + b + c) % 3 != 0 {
                        l3.push(s(&[a, b, c]));
                    }
                }
            }
        }
        assert_eq!(apriori_gen(&l3), apriori_gen_reference(&l3));
    }

    /// Owned itemsets into a table, flat generation at `config`'s thread
    /// count, and the candidates back out as owned itemsets.
    fn gen_boxed(prev: &[Itemset], config: &GenConfig) -> Vec<Itemset> {
        apriori_gen_flat(&ItemsetTable::from_itemsets(prev), config).to_itemsets()
    }

    #[test]
    fn parallel_output_identical_to_serial() {
        let l2 = clustered_l2(40, 12, 13);
        let table = ItemsetTable::from_itemsets(&l2);
        let serial = apriori_gen_flat(&table, &GenConfig::serial());
        assert!(!serial.is_empty());
        // Enough pairs to clear the serial cutoff and engage workers.
        assert!(join_pairs(&table) >= PARALLEL_MIN_PAIRS);
        for threads in [1, 2, 3, 8] {
            let parallel = apriori_gen_flat(&table, &GenConfig::with_threads(threads));
            assert_eq!(parallel, serial, "threads {threads}");
        }
        assert_eq!(serial.to_itemsets(), apriori_gen_reference(&l2));
    }

    #[test]
    fn single_run_level_parallelizes_identically() {
        // All of L₁ is one run (the empty prefix), so C₂ generation must
        // be split by left-row segments — and still match serial exactly.
        let l1: Vec<Itemset> = (0..200u32).map(|i| s(&[i])).collect();
        let l1 = ItemsetTable::from_itemsets(&l1);
        let serial = apriori_gen_flat(&l1, &GenConfig::serial());
        assert_eq!(serial.len(), 199 * 200 / 2);
        for threads in [1, 2, 8] {
            let parallel = apriori_gen_flat(&l1, &GenConfig::with_threads(threads));
            assert_eq!(parallel, serial, "threads {threads}");
        }
        // Same for a k=2 level dominated by one long run.
        let mut l2: Vec<Itemset> = (1..200u32).map(|i| s(&[0, i])).collect();
        l2.push(s(&[1, 2]));
        let l2 = ItemsetTable::from_itemsets(&l2);
        let serial = apriori_gen_flat(&l2, &GenConfig::serial());
        for threads in [1, 2, 8] {
            let parallel = apriori_gen_flat(&l2, &GenConfig::with_threads(threads));
            assert_eq!(parallel, serial, "threads {threads}");
        }
    }

    #[test]
    fn small_levels_stay_serial_and_correct() {
        // Below the work cutoff the parallel config must fall back to the
        // serial loop (and of course still be correct).
        let l2 = vec![s(&[1, 2]), s(&[1, 3]), s(&[2, 3])];
        let out = gen_boxed(&l2, &GenConfig::with_threads(8));
        assert_eq!(out, vec![s(&[1, 2, 3])]);
    }

    #[test]
    fn table_entry_point_matches_slice_entry_point() {
        let l2 = clustered_l2(3, 8, 13);
        let table = ItemsetTable::from_itemsets(&l2);
        assert_eq!(
            apriori_gen_flat(&table, &GenConfig::serial()).to_itemsets(),
            apriori_gen(&l2)
        );
    }

    #[test]
    fn flat_output_matches_boxed_output() {
        // The flat table form must hold exactly the boxed wrapper's
        // candidates, row for row, at every thread count (including the
        // split giant run).
        for l in [
            clustered_l2(12, 10, 7),
            (0..80u32).map(|i| s(&[i])).collect(),
        ] {
            let boxed = apriori_gen(&l);
            let table = ItemsetTable::from_itemsets(&l);
            for threads in [1, 2, 8] {
                let flat = apriori_gen_flat(&table, &GenConfig::with_threads(threads));
                assert_eq!(flat.to_itemsets(), boxed, "threads {threads}");
            }
        }
    }

    #[test]
    fn zero_threads_resolves_and_matches() {
        let l2 = clustered_l2(10, 10, 13);
        assert!(GenConfig::default().resolved_threads() >= 1);
        assert_eq!(
            gen_boxed(&l2, &GenConfig::default()),
            gen_boxed(&l2, &GenConfig::serial())
        );
    }
}
