//! `bench_vertical` — backend comparison benchmark, emitting a
//! machine-readable `BENCH_vertical.json` for the perf trajectory (CI
//! runs this briefly on every push).
//!
//! Generates a `T10.I4` Quest corpus and, at each requested support
//! level, walks the Apriori level structure pass by pass (`C₂`, `C₃`, …),
//! timing the same candidate counting three ways:
//!
//! 1. **hash tree** — build + one full counting scan (the per-pass cost
//!    the classic backend pays every level),
//! 2. **vertical** — tid-list intersections over the [`VerticalIndex`];
//!    the one-time index build is timed separately and charged to the
//!    first candidate pass (exactly where a fixed-vertical miner pays
//!    it),
//! 3. **auto** — whichever of the two [`CountingBackend::Auto`] resolves
//!    for the pass's profile, charged like the fixed backend it picks.
//!
//! On the `C₂` pass a fourth timing, `pairs_ms`, is the **fused pass 2**
//! a from-scratch mine actually runs: one
//! [`VerticalIndex::build_with_pairs`] scan that builds the index *and*
//! counts every pair, plus reading `C₂`'s supports out of the matrix. It
//! replaces `build_ms + vertical_ms` (build, then intersect every pair),
//! and `pair_speedup` is that ratio; `--min-pair-speedup` gates it.
//!
//! Counts are asserted identical across backends before any number is
//! reported. `--min-speedup` gates the *deep passes* (k ≥ 3): each must
//! beat the hash tree by the given factor. `--max-auto-loss` gates the
//! adaptive policy: on every pass, auto must stay within the given
//! fraction of the better fixed backend.
//!
//! A second scenario measures **index reuse** — the maintenance-session
//! pattern where one persistent [`VerticalIndex`] is `extend`ed with each
//! of N successive increments, against rebuilding the index from scratch
//! every round. Per-item supports and candidate counts are asserted
//! identical between the two indexes; `--min-reuse-speedup` gates the
//! cumulative ratio (CI asserts 1.0: reuse must never be slower).
//!
//! A third micro-row (`dense_pair` in the JSON) times the pure
//! dense∩dense kernel — every pair of the 40 most frequent items, with
//! all tid-lists forced into the bitset representation — recording the
//! word throughput of the 4-word-unrolled AND+popcount loop.
//!
//! ```text
//! bench_vertical [--out PATH] [--transactions N] [--minsup-bp B1,B2,..]
//!                [--threads T] [--reps R] [--seed S]
//!                [--min-speedup X] [--max-auto-loss F]
//!                [--min-pair-speedup X]
//!                [--reuse-rounds N] [--reuse-increment D]
//!                [--min-reuse-speedup X]
//! ```

use fup_datagen::{corpus, QuestGenerator};
use fup_mining::counting::ItemCounts;
use fup_mining::engine::{self, EngineConfig};
use fup_mining::gen::apriori_gen_flat;
use fup_mining::vertical::{self, CountingBackend, PassProfile, ResolvedBackend, VerticalIndex};
use fup_mining::{ItemsetTable, MinSupport};
use fup_tidb::{ItemId, TransactionDb, TransactionSource};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Options {
    out: String,
    transactions: u64,
    minsup_bp: Vec<u64>,
    threads: usize,
    reps: usize,
    seed: u64,
    /// Exit non-zero unless every deep pass (k ≥ 3) beats the hash tree
    /// by this factor (0.0 disables; the ISSUE's acceptance target is 2.0
    /// single-thread).
    min_speedup: f64,
    /// Exit non-zero if auto loses more than this fraction to the better
    /// fixed backend on any pass (negative disables; the acceptance
    /// target is 0.10).
    max_auto_loss: f64,
    /// Exit non-zero unless the fused pass 2 beats build + intersections
    /// by this factor at every support level (0.0 disables; CI asserts
    /// 5.0).
    min_pair_speedup: f64,
    /// Rounds of the index-reuse scenario (successive increments applied
    /// to one persistent index vs a per-round rebuild).
    reuse_rounds: usize,
    /// Increment size per reuse round (0 = transactions / 50).
    reuse_increment: u64,
    /// Exit non-zero unless the persistent extend path beats the
    /// per-round rebuild by this factor over the whole scenario (0.0
    /// disables; CI asserts 1.0 — reuse must never be slower).
    min_reuse_speedup: f64,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        out: "BENCH_vertical.json".to_string(),
        transactions: 100_000,
        minsup_bp: vec![100, 200],
        threads: 1,
        reps: 2,
        seed: 1996,
        min_speedup: 0.0,
        max_auto_loss: -1.0,
        min_pair_speedup: 0.0,
        reuse_rounds: 6,
        reuse_increment: 0,
        min_reuse_speedup: 0.0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--out" => opts.out = value("--out")?,
            "--transactions" => {
                opts.transactions = value("--transactions")?
                    .parse()
                    .map_err(|e| format!("--transactions: {e}"))?
            }
            "--minsup-bp" => {
                opts.minsup_bp = value("--minsup-bp")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("--minsup-bp: {e}")))
                    .collect::<Result<Vec<u64>, String>>()?;
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--reps" => {
                opts.reps = value("--reps")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--min-speedup" => {
                opts.min_speedup = value("--min-speedup")?
                    .parse()
                    .map_err(|e| format!("--min-speedup: {e}"))?
            }
            "--max-auto-loss" => {
                opts.max_auto_loss = value("--max-auto-loss")?
                    .parse()
                    .map_err(|e| format!("--max-auto-loss: {e}"))?
            }
            "--min-pair-speedup" => {
                opts.min_pair_speedup = value("--min-pair-speedup")?
                    .parse()
                    .map_err(|e| format!("--min-pair-speedup: {e}"))?
            }
            "--reuse-rounds" => {
                opts.reuse_rounds = value("--reuse-rounds")?
                    .parse()
                    .map_err(|e| format!("--reuse-rounds: {e}"))?
            }
            "--reuse-increment" => {
                opts.reuse_increment = value("--reuse-increment")?
                    .parse()
                    .map_err(|e| format!("--reuse-increment: {e}"))?
            }
            "--min-reuse-speedup" => {
                opts.min_reuse_speedup = value("--min-reuse-speedup")?
                    .parse()
                    .map_err(|e| format!("--min-reuse-speedup: {e}"))?
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if opts.reps == 0 || opts.threads == 0 {
        return Err("--reps and --threads must be at least 1".into());
    }
    if opts.minsup_bp.is_empty() {
        return Err("--minsup-bp needs at least one level".into());
    }
    Ok(opts)
}

fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..reps {
        let start = Instant::now();
        let value = f();
        let elapsed = start.elapsed();
        if elapsed < best {
            best = elapsed;
        }
        out = Some(value);
    }
    (best, out.expect("reps >= 1"))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct PassRow {
    minsup_bp: u64,
    k: usize,
    candidates: usize,
    large: usize,
    hash_ms: f64,
    vertical_ms: f64,
    build_ms: f64,
    /// The fused build-and-count-pairs scan, on the pass that built the
    /// index at k = 2 (and `|L₁|` fits the pair matrix).
    pairs_ms: Option<f64>,
    speedup: f64,
    auto_backend: &'static str,
    auto_ms: f64,
    auto_loss: f64,
}

impl PassRow {
    /// How much faster the fused pass 2 (`pairs_ms`) is than building
    /// the index and then intersecting every pair.
    fn pair_speedup(&self) -> Option<f64> {
        self.pairs_ms
            .map(|p| (self.build_ms + self.vertical_ms) / p.max(1e-6))
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench_vertical: {e}");
            std::process::exit(2);
        }
    };
    let params = corpus::t10_i4_d100_d1()
        .with_seed(opts.seed)
        .with_increment(1);
    let params = fup_datagen::GenParams {
        num_transactions: opts.transactions,
        ..params
    };
    eprintln!(
        "generating {} corpus ({} transactions)...",
        params.name(),
        opts.transactions
    );
    let reuse_params = params.clone().with_seed(opts.seed ^ 0x5eed);
    let db: TransactionDb = QuestGenerator::new(params).generate_db(opts.transactions);
    let n = db.num_transactions();
    let cfg = EngineConfig::with_threads(opts.threads);

    let item_counts = ItemCounts::count_with(&db, &cfg);
    let mut rows: Vec<PassRow> = Vec::new();
    let mut index_bytes = (0usize, 0usize);

    for &bp in &opts.minsup_bp {
        let minsup = MinSupport::basis_points(bp);
        let mut level_items: Vec<ItemId> = Vec::new();
        let mut freq_occurrences = 0u64;
        for (item, count) in item_counts.iter_nonzero() {
            if minsup.is_large(count, n) {
                level_items.push(item);
                freq_occurrences += count;
            }
        }
        let residue = freq_occurrences as f64 / n.max(1) as f64;
        let keep = vertical::item_bitmap(level_items.iter().copied());
        let mut level = ItemsetTable::from_flat_rows(1, level_items);
        eprintln!(
            "minsup {minsup}: |L1| = {}, residue {residue:.2}",
            level.len()
        );

        // One index per support level (the L₁ filter depends on it),
        // built when the first pass needs it — its cost lands on that
        // pass's vertical (and auto) totals, as in a real miner run.
        let mut index: Option<VerticalIndex> = None;
        // Remembered so auto is charged the build at whichever pass it
        // first engages, even if that is deeper than the pass the bench
        // built the index on.
        let mut level_build = Duration::ZERO;
        // Once Auto has built the index its later passes are `indexed`
        // (the index is already paid for), as in the miners.
        let mut auto_engaged = false;
        let mut k = 2;
        while !level.is_empty() {
            let candidates = apriori_gen_flat(&level, &cfg.gen);
            if candidates.is_empty() {
                break;
            }
            let (hash_time, hash_counts) = best_of(opts.reps, || {
                engine::count_table_with(&db, &candidates, &cfg)
            });

            let mut build_time = Duration::ZERO;
            let mut pairs_time = None;
            if index.is_none() {
                let (bt, idx) = best_of(opts.reps, || VerticalIndex::build(&db, Some(&keep), &cfg));
                build_time = bt;
                level_build = bt;
                index_bytes = idx.arena_bytes();
                index = Some(idx);
                if k == 2 {
                    // At k = 2 `level` is still L₁, one item per row.
                    let (pt, fused_counts) = best_of(opts.reps, || {
                        let (_, pairs) =
                            VerticalIndex::build_with_pairs(&db, level.flat_items(), &cfg);
                        pairs.map(|pairs| {
                            candidates
                                .rows()
                                .map(|c| pairs.support(c[0], c[1]).expect("C2 pairs items of L1"))
                                .collect::<Vec<u64>>()
                        })
                    });
                    if let Some(fused_counts) = fused_counts {
                        assert_eq!(
                            hash_counts, fused_counts,
                            "fused pair counts diverged at {bp}bp"
                        );
                        pairs_time = Some(pt);
                    }
                }
            }
            let idx = index.as_ref().expect("index built above");
            let (vertical_time, vertical_counts) =
                best_of(opts.reps, || idx.count_rows(&candidates, &cfg));
            assert_eq!(
                hash_counts, vertical_counts,
                "backends diverged at {bp}bp k={k}"
            );

            // Auto pays whichever backend it resolves, including the
            // index build on the pass that first engages vertical.
            let auto = CountingBackend::Auto.resolve(&PassProfile {
                k,
                candidates: candidates.len(),
                transactions: n,
                residue,
                indexed: auto_engaged,
            });
            let (auto_backend, auto_choice, auto_time) = match auto {
                ResolvedBackend::HashTree => ("hashtree", hash_time, hash_time),
                ResolvedBackend::Vertical => {
                    // A real Auto run pays the index build at its
                    // engagement pass, wherever that falls.
                    let charged = if auto_engaged {
                        vertical_time
                    } else {
                        vertical_time + level_build
                    };
                    auto_engaged = true;
                    ("vertical", vertical_time, charged)
                }
            };
            // The loss gate grades the per-pass *choice* build-free: the
            // index build is a one-time charge whose pass it lands on
            // depends on the engagement schedule, not on whether the
            // choice was right (the reported ms columns keep the charge).
            let better = hash_time.min(vertical_time);
            let auto_loss =
                (auto_choice.as_secs_f64() - better.as_secs_f64()) / better.as_secs_f64().max(1e-9);
            let speedup = hash_time.as_secs_f64() / vertical_time.as_secs_f64().max(1e-9);

            let mut next_rows: Vec<ItemId> = Vec::new();
            let mut large = 0usize;
            for (i, &count) in hash_counts.iter().enumerate() {
                if minsup.is_large(count, n) {
                    next_rows.extend_from_slice(candidates.row(i));
                    large += 1;
                }
            }
            eprintln!(
                "  k={k}: |C|={} hash {:.1} ms, vertical {:.1} ms (+build {:.1}) -> {speedup:.2}x, auto={auto_backend}",
                candidates.len(),
                ms(hash_time),
                ms(vertical_time),
                ms(build_time),
            );
            if let Some(pt) = pairs_time {
                eprintln!(
                    "       fused build+pairs {:.1} ms vs build+intersect {:.1} ms",
                    ms(pt),
                    ms(build_time + vertical_time),
                );
            }
            rows.push(PassRow {
                minsup_bp: bp,
                k,
                candidates: candidates.len(),
                large,
                hash_ms: ms(hash_time),
                vertical_ms: ms(vertical_time),
                build_ms: ms(build_time),
                pairs_ms: pairs_time.map(ms),
                speedup,
                auto_backend,
                auto_ms: ms(auto_time),
                auto_loss: auto_loss.max(0.0),
            });
            level = ItemsetTable::from_flat_rows(k, next_rows);
            k += 1;
        }
    }

    // Cross-check: full miner runs agree across all backends at the first
    // support level (the bench must not certify a broken backend).
    {
        let minsup = MinSupport::basis_points(opts.minsup_bp[0]);
        let reference = fup_mining::Apriori::with_config(fup_mining::apriori::AprioriConfig {
            engine: cfg.clone().with_backend(CountingBackend::HashTree),
            ..Default::default()
        })
        .run(&db, minsup)
        .large;
        for backend in [CountingBackend::Vertical, CountingBackend::Auto] {
            let out = fup_mining::Apriori::with_config(fup_mining::apriori::AprioriConfig {
                engine: cfg.clone().with_backend(backend),
                ..Default::default()
            })
            .run(&db, minsup)
            .large;
            assert!(
                out.same_itemsets(&reference),
                "{backend:?} miner diverged: {:?}",
                out.diff(&reference)
            );
        }
        eprintln!("miner cross-check: all backends bit-identical");
    }

    // ---- index-reuse scenario: persistent extend vs per-round rebuild --
    // Models the maintenance session: one index built over the base
    // corpus, then N successive increments either *extend* it in place
    // (one delta scan each — what `Maintainer` does across commits) or
    // force a from-scratch rebuild over the grown corpus (what every
    // round paid before the index persisted).
    let inc_size = if opts.reuse_increment > 0 {
        opts.reuse_increment
    } else {
        (opts.transactions / 50).max(1)
    };
    let reuse_minsup = MinSupport::basis_points(opts.minsup_bp[0]);
    let mut keep_items: Vec<ItemId> = Vec::new();
    for (item, count) in item_counts.iter_nonzero() {
        if reuse_minsup.is_large(count, n) {
            keep_items.push(item);
        }
    }
    let reuse_keep = vertical::item_bitmap(keep_items.iter().copied());
    let mut reuse_gen = QuestGenerator::new(reuse_params);
    let increments: Vec<TransactionDb> = (0..opts.reuse_rounds)
        .map(|_| reuse_gen.generate_db(inc_size))
        .collect();
    eprintln!(
        "index reuse: {} rounds x {} increment transactions over the {}-transaction base",
        opts.reuse_rounds, inc_size, n
    );

    let (base_build, mut persistent) = best_of(opts.reps, || {
        VerticalIndex::build(&db, Some(&reuse_keep), &cfg)
    });
    let mut acc = TransactionDb::new();
    acc.extend(db.raw().iter().cloned());
    let mut extend_total = Duration::ZERO;
    let mut rebuild_total = Duration::ZERO;
    let mut reuse_rows: Vec<(usize, f64, f64)> = Vec::new();
    let mut rebuilt = None;
    for (round, inc) in increments.iter().enumerate() {
        // The extend is stateful, so it is timed once (no best-of) — a
        // conservative handicap against the best-of-reps rebuild.
        let start = Instant::now();
        persistent.extend(inc, &cfg);
        let extend_time = start.elapsed();
        extend_total += extend_time;

        acc.extend(inc.raw().iter().cloned());
        let (rebuild_time, fresh) = best_of(opts.reps, || {
            VerticalIndex::build(&acc, Some(&reuse_keep), &cfg)
        });
        rebuild_total += rebuild_time;

        // The extended index must be indistinguishable from the rebuild.
        assert_eq!(persistent.num_transactions(), fresh.num_transactions());
        for &item in &keep_items {
            assert_eq!(
                persistent.support(item),
                fresh.support(item),
                "reuse round {round}: support of {item:?} diverged"
            );
        }
        eprintln!(
            "  round {}: extend {:.1} ms vs rebuild {:.1} ms",
            round + 1,
            ms(extend_time),
            ms(rebuild_time)
        );
        reuse_rows.push((round + 1, ms(extend_time), ms(rebuild_time)));
        rebuilt = Some(fresh);
    }
    // Deeper equivalence: candidate counts agree on a C₂ sample.
    if let Some(fresh) = &rebuilt {
        let sample: Vec<ItemId> = keep_items.iter().copied().take(100).collect();
        let c2 = apriori_gen_flat(&ItemsetTable::from_flat_rows(1, sample), &cfg.gen);
        assert_eq!(
            persistent.count_rows(&c2, &cfg),
            fresh.count_rows(&c2, &cfg),
            "persistent and rebuilt indexes disagree on C2 counts"
        );
    }
    let reuse_speedup = rebuild_total.as_secs_f64() / extend_total.as_secs_f64().max(1e-9);
    eprintln!(
        "index reuse: extend total {:.1} ms vs rebuild total {:.1} ms -> {reuse_speedup:.2}x",
        ms(extend_total),
        ms(rebuild_total)
    );

    // ---- dense∩dense micro-row: the unrolled AND+popcount kernel ------
    // Every pair of the most frequent items, with every tid-list forced
    // into the dense (bitset) representation, so each candidate count is
    // exactly one dense∩dense intersection over the whole corpus — the
    // kernel the 4-word unroll targets.
    let dense_pair = {
        let minsup = MinSupport::basis_points(opts.minsup_bp[0]);
        let mut freq: Vec<(u64, ItemId)> = item_counts
            .iter_nonzero()
            .filter(|&(_, c)| minsup.is_large(c, n))
            .map(|(item, c)| (c, item))
            .collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        let mut items: Vec<ItemId> = freq.iter().take(40).map(|&(_, it)| it).collect();
        items.sort_unstable();
        let keep = vertical::item_bitmap(items.iter().copied());
        let level1 = ItemsetTable::from_flat_rows(1, items);
        let pairs = apriori_gen_flat(&level1, &cfg.gen);
        let all_dense = VerticalIndex::build_with_density(&db, Some(&keep), &cfg, u32::MAX);
        let (dense_time, dense_counts) = best_of(opts.reps, || all_dense.count_rows(&pairs, &cfg));
        // The representation must not change the counts.
        let default_idx = VerticalIndex::build(&db, Some(&keep), &cfg);
        assert_eq!(
            dense_counts,
            default_idx.count_rows(&pairs, &cfg),
            "forced-dense counts diverged from the default representation"
        );
        // Each pair ANDs two bitsets of ceil(n/64) words.
        let words = pairs.len() as f64 * n.div_ceil(64) as f64;
        let mwords_per_sec = words / dense_time.as_secs_f64().max(1e-9) / 1e6;
        eprintln!(
            "dense pair kernel: {} pairs x {} words in {:.2} ms -> {:.0} Mwords/s",
            pairs.len(),
            n.div_ceil(64),
            ms(dense_time),
            mwords_per_sec,
        );
        (pairs.len(), ms(dense_time), mwords_per_sec)
    };

    let mut json = String::new();
    let _ = write!(
        json,
        concat!(
            "{{\n",
            "  \"bench\": \"vertical\",\n",
            "  \"corpus\": \"T10.I4\",\n",
            "  \"transactions\": {},\n",
            "  \"threads\": {},\n",
            "  \"cpus\": {},\n",
            "  \"reps\": {},\n",
            "  \"index_sparse_bytes\": {},\n",
            "  \"index_dense_bytes\": {},\n",
            "  \"rows\": [\n"
        ),
        opts.transactions,
        opts.threads,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        opts.reps,
        index_bytes.0,
        index_bytes.1,
    );
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        let pairs = r
            .pairs_ms
            .zip(r.pair_speedup())
            .map_or(String::new(), |(p, x)| {
                format!(" \"pairs_ms\": {p:.3}, \"pair_speedup\": {x:.3},")
            });
        let _ = writeln!(
            json,
            "    {{ \"minsup_bp\": {}, \"k\": {}, \"candidates\": {}, \"large\": {}, \"hash_ms\": {:.3}, \"vertical_ms\": {:.3}, \"build_ms\": {:.3},{pairs} \"speedup\": {:.3}, \"auto\": \"{}\", \"auto_ms\": {:.3}, \"auto_loss\": {:.4} }}{sep}",
            r.minsup_bp,
            r.k,
            r.candidates,
            r.large,
            r.hash_ms,
            r.vertical_ms,
            r.build_ms,
            r.speedup,
            r.auto_backend,
            r.auto_ms,
            r.auto_loss,
        );
    }
    json.push_str("  ],\n");
    let _ = write!(
        json,
        concat!(
            "  \"reuse\": {{\n",
            "    \"rounds\": {}, \"increment\": {}, \"minsup_bp\": {},\n",
            "    \"base_build_ms\": {:.3}, \"extend_total_ms\": {:.3}, ",
            "\"rebuild_total_ms\": {:.3}, \"speedup\": {:.3},\n",
            "    \"rows\": [\n"
        ),
        opts.reuse_rounds,
        inc_size,
        opts.minsup_bp[0],
        ms(base_build),
        ms(extend_total),
        ms(rebuild_total),
        reuse_speedup,
    );
    for (i, (round, extend_ms, rebuild_ms)) in reuse_rows.iter().enumerate() {
        let sep = if i + 1 < reuse_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{ \"round\": {round}, \"extend_ms\": {extend_ms:.3}, \"rebuild_ms\": {rebuild_ms:.3} }}{sep}"
        );
    }
    json.push_str("    ]\n  },\n");
    let _ = writeln!(
        json,
        "  \"dense_pair\": {{ \"pairs\": {}, \"ms\": {:.3}, \"mwords_per_sec\": {:.1} }}\n}}",
        dense_pair.0, dense_pair.1, dense_pair.2
    );
    if let Err(e) = std::fs::write(&opts.out, &json) {
        eprintln!("bench_vertical: writing {}: {e}", opts.out);
        std::process::exit(1);
    }
    print!("{json}");

    // Gates.
    let deep_worst = rows
        .iter()
        .filter(|r| r.k >= 3)
        .map(|r| r.speedup)
        .fold(f64::INFINITY, f64::min);
    if deep_worst.is_finite() {
        fup_bench::cli::require_min_speedup(
            "bench_vertical",
            "worst deep-pass (k >= 3) vertical speedup",
            deep_worst,
            opts.min_speedup,
        );
    } else if opts.min_speedup > 0.0 {
        eprintln!(
            "bench_vertical: no deep passes produced candidates; cannot assert --min-speedup"
        );
        std::process::exit(1);
    }
    let pair_worst = rows
        .iter()
        .filter_map(PassRow::pair_speedup)
        .fold(f64::INFINITY, f64::min);
    if pair_worst.is_finite() {
        fup_bench::cli::require_min_speedup(
            "bench_vertical",
            "worst fused pass-2 speedup over build + intersections",
            pair_worst,
            opts.min_pair_speedup,
        );
    } else if opts.min_pair_speedup > 0.0 {
        eprintln!("bench_vertical: no pass 2 ran fused; cannot assert --min-pair-speedup");
        std::process::exit(1);
    }
    if opts.max_auto_loss >= 0.0 {
        let worst = rows.iter().map(|r| r.auto_loss).fold(0.0, f64::max);
        if worst > opts.max_auto_loss {
            eprintln!(
                "bench_vertical: auto lost {:.1}% to the better fixed backend (allowed {:.1}%)",
                worst * 100.0,
                opts.max_auto_loss * 100.0
            );
            std::process::exit(1);
        }
    }
    if !reuse_rows.is_empty() {
        fup_bench::cli::require_min_speedup(
            "bench_vertical",
            "persistent index reuse (extend vs per-round rebuild)",
            reuse_speedup,
            opts.min_reuse_speedup,
        );
    } else if opts.min_reuse_speedup > 0.0 {
        eprintln!("bench_vertical: no reuse rounds ran; cannot assert --min-reuse-speedup");
        std::process::exit(1);
    }
}
