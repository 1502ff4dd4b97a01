//! `bench_cluster` — process-per-shard cluster runtime benchmark,
//! emitting a machine-readable `BENCH_cluster.json` for the perf
//! trajectory (CI runs this briefly on every push).
//!
//! Replays a churn workload — a `T10.I4` base corpus followed by N
//! update rounds of fresh inserts plus a contiguous window of deletes —
//! through three sessions per shard count: the unsharded [`Maintainer`]
//! reference, the in-process tid-range sharded session (the baseline
//! this row is compared against), and the [`Cluster`] runtime, where each shard is a worker
//! thread with its own WAL + checkpoint namespace, candidate counts
//! travel as CRC-framed RPC messages, and every round commits
//! two-phase. After **every** cluster round the published state is
//! certified **bit-identical** to the flat reference (itemsets with
//! supports, rules with counts, live size) before any number is
//! reported — the curve never certifies a broken merge.
//!
//! What the row measures is the *cost of the process seam*: the cluster
//! does the same counting work as the in-process sharded session plus
//! message encode/decode, per-worker WAL appends, and two-phase
//! delivery. `--max-rpc-overhead` gates that multiple (cluster rounds
//! over in-process sharded rounds at the same shard count, best rep
//! each; 0 disables) so a protocol or coordination regression fails the
//! build instead of shipping silently.
//!
//! ```text
//! bench_cluster [--out PATH] [--transactions N] [--rounds R]
//!               [--increment D] [--deletes K] [--shards S1,S2,..]
//!               [--stripe W] [--minsup-bp B] [--reps R] [--seed S]
//!               [--max-rpc-overhead X]
//! ```

use fup_core::{Cluster, FupConfig, Maintainer};
use fup_datagen::{corpus, GenParams, QuestGenerator};
use fup_mining::{CountingBackend, LargeItemsets, MinConfidence, MinSupport, RuleSet};
use fup_tidb::{DurableStorage, MemStorage, ShardSpec, Tid, Transaction, UpdateBatch};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Options {
    out: String,
    transactions: u64,
    rounds: usize,
    increment: u64,
    deletes: u64,
    shards: Vec<u32>,
    stripe: u64,
    minsup_bp: u64,
    reps: usize,
    seed: u64,
    /// Exit non-zero if cluster rounds exceed the in-process sharded
    /// rounds by more than this factor at any shard count (0 disables).
    max_rpc_overhead: f64,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        out: "BENCH_cluster.json".to_string(),
        transactions: 20_000,
        rounds: 6,
        increment: 400,
        deletes: 48,
        shards: vec![1, 2, 4],
        stripe: 1024,
        minsup_bp: 200,
        reps: 2,
        seed: 1996,
        max_rpc_overhead: 0.0,
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
            "--rounds" => {
                opts.rounds = value("--rounds")?
                    .parse()
                    .map_err(|e| format!("--rounds: {e}"))?
            }
            "--increment" => {
                opts.increment = value("--increment")?
                    .parse()
                    .map_err(|e| format!("--increment: {e}"))?
            }
            "--deletes" => {
                opts.deletes = value("--deletes")?
                    .parse()
                    .map_err(|e| format!("--deletes: {e}"))?
            }
            "--shards" => {
                opts.shards = value("--shards")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("--shards: {e}")))
                    .collect::<Result<Vec<u32>, String>>()?;
            }
            "--stripe" => {
                opts.stripe = value("--stripe")?
                    .parse()
                    .map_err(|e| format!("--stripe: {e}"))?
            }
            "--minsup-bp" => {
                opts.minsup_bp = value("--minsup-bp")?
                    .parse()
                    .map_err(|e| format!("--minsup-bp: {e}"))?
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
            "--max-rpc-overhead" => {
                opts.max_rpc_overhead = value("--max-rpc-overhead")?
                    .parse()
                    .map_err(|e| format!("--max-rpc-overhead: {e}"))?
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if opts.reps == 0 || opts.rounds == 0 {
        return Err("--reps and --rounds must be at least 1".into());
    }
    if opts.shards.is_empty() || opts.shards.contains(&0) {
        return Err("--shards needs explicit counts ≥ 1".into());
    }
    if opts.deletes * opts.rounds as u64 >= opts.transactions {
        return Err("delete schedule would drain the base corpus".into());
    }
    Ok(opts)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One round's flat state, snapshotted so every replay can be certified
/// against it without re-running the reference.
struct RefState {
    large: LargeItemsets,
    rules: RuleSet,
    live: u64,
}

fn snapshot(m: &Maintainer) -> RefState {
    RefState {
        large: m.large_itemsets().clone(),
        rules: m.rules().clone(),
        live: m.len() as u64,
    }
}

/// The bit-identity contract the curve is conditioned on.
fn assert_cluster_identical(reference: &RefState, cluster: &Cluster, label: &str) {
    let snap = cluster.snapshot();
    assert!(
        snap.large_itemsets().same_itemsets(&reference.large),
        "{label}: itemsets/supports diverge: {:?}",
        snap.large_itemsets().diff(&reference.large)
    );
    assert_eq!(snap.rules(), &reference.rules, "{label}: rules diverge");
    assert_eq!(
        cluster.num_transactions(),
        reference.live,
        "{label}: live size diverges"
    );
}

fn builder(opts: &Options) -> fup_core::MaintainerBuilder {
    Maintainer::builder()
        .min_support(MinSupport::basis_points(opts.minsup_bp))
        .min_confidence(MinConfidence::percent(50))
        .backend(CountingBackend::Vertical)
}

fn mem_storages(n: usize) -> Vec<Arc<dyn DurableStorage>> {
    (0..n)
        .map(|_| Arc::new(MemStorage::new()) as Arc<dyn DurableStorage>)
        .collect()
}

/// One timed in-process replay (flat or sharded), timing only `build`
/// and `apply`.
fn replay_inproc(
    opts: &Options,
    history: &[Transaction],
    batches: &[UpdateBatch],
    spec: Option<ShardSpec>,
) -> (Duration, Duration) {
    let mut b = builder(opts);
    if let Some(spec) = spec {
        b = b.shard_spec(spec);
    }
    let start = Instant::now();
    let mut session = b.build(history.to_vec()).expect("valid shard spec");
    let bootstrap = start.elapsed();
    let mut rounds_total = Duration::ZERO;
    for batch in batches {
        let start = Instant::now();
        session.apply(batch.clone()).expect("maintenance round");
        rounds_total += start.elapsed();
    }
    (bootstrap, rounds_total)
}

/// One timed cluster replay; certifies every round against the flat
/// reference when `reference` is given (first rep), outside the clock.
fn replay_cluster(
    opts: &Options,
    history: &[Transaction],
    batches: &[UpdateBatch],
    shards: u32,
    reference: Option<&[RefState]>,
) -> (Duration, Duration) {
    let spec = ShardSpec::striped_with(shards, opts.stripe);
    let label = format!("{shards} worker(s)");
    let start = Instant::now();
    let mut cluster = Cluster::bootstrap(
        spec,
        mem_storages(shards as usize),
        history.to_vec(),
        MinSupport::basis_points(opts.minsup_bp),
        MinConfidence::percent(50),
        FupConfig::default(),
    )
    .expect("bootstrap cluster");
    let bootstrap = start.elapsed();
    if let Some(refs) = reference {
        assert_cluster_identical(&refs[0], &cluster, &format!("{label} bootstrap"));
    }
    let mut rounds_total = Duration::ZERO;
    for (round, batch) in batches.iter().enumerate() {
        let start = Instant::now();
        cluster.apply(batch.clone()).expect("cluster round");
        rounds_total += start.elapsed();
        if let Some(refs) = reference {
            assert_cluster_identical(
                &refs[round + 1],
                &cluster,
                &format!("{label} round {}", round + 1),
            );
        }
    }
    cluster.shutdown();
    (bootstrap, rounds_total)
}

struct Row {
    shards: u32,
    bootstrap_ms: f64,
    rounds_ms: f64,
    inproc_rounds_ms: f64,
    rpc_overhead: f64,
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench_cluster: {e}");
            std::process::exit(2);
        }
    };
    let params = corpus::t10_i4_d100_d1()
        .with_seed(opts.seed)
        .with_increment(opts.increment);
    let params = GenParams {
        num_transactions: opts.transactions,
        ..params
    };
    eprintln!(
        "generating {} corpus ({} transactions, {} rounds x {} inserts / {} deletes)...",
        params.name(),
        opts.transactions,
        opts.rounds,
        opts.increment,
        opts.deletes,
    );
    let mut gen = QuestGenerator::new(params);
    let history = gen.generate(opts.transactions);
    let batches: Vec<UpdateBatch> = (0..opts.rounds)
        .map(|r| UpdateBatch {
            inserts: gen.generate(opts.increment),
            deletes: (r as u64 * opts.deletes..(r as u64 + 1) * opts.deletes)
                .map(Tid)
                .collect(),
        })
        .collect();

    // Flat reference, run once untimed: per-round state snapshots every
    // cluster replay certifies against.
    let mut reference: Vec<RefState> = Vec::with_capacity(opts.rounds + 1);
    {
        let mut m = builder(&opts).build(history.clone()).unwrap();
        reference.push(snapshot(&m));
        for batch in &batches {
            m.apply(batch.clone()).unwrap();
            reference.push(snapshot(&m));
        }
    }

    let mut flat_boot = Duration::MAX;
    let mut flat_rounds = Duration::MAX;
    for _ in 0..opts.reps {
        let (b, r) = replay_inproc(&opts, &history, &batches, None);
        flat_boot = flat_boot.min(b);
        flat_rounds = flat_rounds.min(r);
    }
    eprintln!(
        "flat: bootstrap {:.1} ms, {} rounds in {:.1} ms",
        ms(flat_boot),
        opts.rounds,
        ms(flat_rounds),
    );

    let mut rows: Vec<Row> = Vec::new();
    for &shards in &opts.shards {
        let spec = ShardSpec::striped_with(shards, opts.stripe);
        let mut inproc_rounds = Duration::MAX;
        for _ in 0..opts.reps {
            let (_, r) = replay_inproc(&opts, &history, &batches, Some(spec.clone()));
            inproc_rounds = inproc_rounds.min(r);
        }
        let mut boot = Duration::MAX;
        let mut rounds = Duration::MAX;
        for rep in 0..opts.reps {
            // Certify only on the first rep; later reps are pure timing.
            let refs = (rep == 0).then_some(reference.as_slice());
            let (b, r) = replay_cluster(&opts, &history, &batches, shards, refs);
            boot = boot.min(b);
            rounds = rounds.min(r);
        }
        let rpc_overhead = rounds.as_secs_f64() / inproc_rounds.as_secs_f64().max(1e-9);
        eprintln!(
            "{shards} worker(s): bootstrap {:.1} ms, rounds {:.1} ms \
             (in-process sharded baseline {:.1} ms -> {rpc_overhead:.2}x RPC overhead)",
            ms(boot),
            ms(rounds),
            ms(inproc_rounds),
        );
        rows.push(Row {
            shards,
            bootstrap_ms: ms(boot),
            rounds_ms: ms(rounds),
            inproc_rounds_ms: ms(inproc_rounds),
            rpc_overhead,
        });
    }

    let mut json = String::new();
    let _ = write!(
        json,
        concat!(
            "{{\n",
            "  \"bench\": \"cluster\",\n",
            "  \"corpus\": \"T10.I4\",\n",
            "  \"transactions\": {},\n",
            "  \"rounds\": {},\n",
            "  \"increment\": {},\n",
            "  \"deletes_per_round\": {},\n",
            "  \"stripe\": {},\n",
            "  \"minsup_bp\": {},\n",
            "  \"reps\": {},\n",
            "  \"note\": \"rpc_overhead is cluster rounds over the in-process sharded ",
            "rounds at the same shard count — the cost of framed messages, per-worker ",
            "WALs and two-phase delivery; every reported cluster round was certified ",
            "bit-identical to the flat session in-run\",\n",
            "  \"flat\": {{ \"bootstrap_ms\": {:.3}, \"rounds_ms\": {:.3} }},\n",
            "  \"rows\": [\n",
        ),
        opts.transactions,
        opts.rounds,
        opts.increment,
        opts.deletes,
        opts.stripe,
        opts.minsup_bp,
        opts.reps,
        ms(flat_boot),
        ms(flat_rounds),
    );
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"shards\": {}, \"bootstrap_ms\": {:.3}, \"rounds_ms\": {:.3}, \
             \"inproc_rounds_ms\": {:.3}, \"rpc_overhead\": {:.3}, \"identical\": true }}{sep}",
            r.shards, r.bootstrap_ms, r.rounds_ms, r.inproc_rounds_ms, r.rpc_overhead,
        );
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&opts.out, &json) {
        eprintln!("bench_cluster: writing {}: {e}", opts.out);
        std::process::exit(1);
    }
    print!("{json}");

    // Gate: the process seam must stay a bounded tax over the in-process
    // sharded baseline at every shard count.
    if opts.max_rpc_overhead > 0.0 {
        let worst = rows.iter().map(|r| r.rpc_overhead).fold(0.0, f64::max);
        if worst > opts.max_rpc_overhead {
            eprintln!(
                "bench_cluster: FAIL: worst RPC overhead {worst:.2}x exceeds \
                 --max-rpc-overhead {:.2}x",
                opts.max_rpc_overhead
            );
            std::process::exit(1);
        }
        eprintln!(
            "bench_cluster: OK: worst RPC overhead {worst:.2}x within {:.2}x",
            opts.max_rpc_overhead
        );
    }
}
