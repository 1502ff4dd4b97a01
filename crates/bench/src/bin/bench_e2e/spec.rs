//! The benchmark's contract: workload and metric names, units, directions
//! and regression bounds. `BENCHMARK.json` at the repository root is this
//! table written out; a unit test keeps the two identical.

/// Seconds of system busy time one run measures (`BENCHMARK.json`'s
/// `run_seconds`; the driver passes it back as `--seconds`).
pub const RUN_SECONDS: u64 = 9;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "insert_mem",
        why: "The paper's case: insert-only FUP rounds on a flat in-memory session with a persistent index; WAL, storage, FUP2 and RPC do no work.",
    },
    Workload {
        name: "insert_durable",
        why: "The insert_mem script through build_durable on DiskStorage, then a power-cut image and recover; minus insert_mem it is the durability tax.",
    },
    Workload {
        name: "churn_mem",
        why: "Inserts beside oldest-row deletes on the flat session: FUP2, a per-round index rebuild and the delete-side counting pass.",
    },
    Workload {
        name: "churn_shard4",
        why: "The churn_mem script on four tid-range shards: only the shard a delete lands on rebuilds, so it shows flat vs sharded on one script.",
    },
    Workload {
        name: "churn_cluster2",
        why: "The churn_mem script through a 2-worker Cluster with per-worker DiskStorage: framed RPC, per-worker WAL and two-phase commits, on both cores.",
    },
    Workload {
        name: "serve_open",
        why: "Open loop: batches offered on a fixed schedule at three rates to a durable MaintainerService while a reader queries snapshots; queueing shows.",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// Metrics a user of the system sees; every workload reports every one.
/// Bounds are `max(default, 3 × IQR/median)` — the widest spread of any
/// workload over the ten-seed runs recorded in the README — rounded up.
pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "update_tps",
        unit: "ops/s",
        better: Higher,
        bound: 0.2,
    },
    EndToEnd {
        name: "round_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "round_p90_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "visible_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "recover_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "write_amp",
        unit: "ratio",
        better: Lower,
        bound: 0.1,
    },
    EndToEnd {
        name: "cpu_ms_per_kop",
        unit: "ms/kop",
        better: Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Single-layer metrics, named `<crate>.<module>.<metric>` and reported
/// by the traced run. The README says which end-to-end metric each one
/// should move, and on which workload.
pub const PER_LAYER: [PerLayer; 83] = [
    layer("tidb.storage.append_calls", "count", Lower),
    layer("tidb.storage.append_bytes", "B", Lower),
    layer("tidb.storage.append_ms", "ms", Lower),
    layer("tidb.storage.sync_calls", "count", Lower),
    layer("tidb.storage.sync_ms", "ms", Lower),
    layer("tidb.storage.atomic_calls", "count", Lower),
    layer("tidb.storage.atomic_bytes", "B", Lower),
    layer("tidb.storage.atomic_ms", "ms", Lower),
    layer("tidb.storage.read_ms", "ms", Lower),
    layer("tidb.storage.bytes_per_op", "B/op", Lower),
    layer("tidb.wal.encode_ms", "ms", Lower),
    layer("tidb.wal.bytes", "B", Lower),
    layer("tidb.wal.read_ms", "ms", Lower),
    layer("tidb.staging.stage_ns_per_batch", "ns", Lower),
    layer("tidb.staging.drain_ms", "ms", Lower),
    layer("tidb.scan.transactions_read", "count", Lower),
    layer("tidb.scan.full_scans", "count", Lower),
    layer("tidb.rpc.frame_ms", "ms", Lower),
    layer("tidb.rpc.frame_bytes", "B", Lower),
    layer("mining.gen.gen_ms", "ms", Lower),
    layer("mining.gen.candidates", "count", Lower),
    layer("mining.vertical.build_ms", "ms", Lower),
    layer("mining.vertical.extend_ms", "ms", Lower),
    layer("mining.vertical.count_ns_per_row", "ns", Lower),
    layer("mining.vertical.arena_bytes", "B", Lower),
    layer("mining.engine.delta_scan_ms", "ms", Lower),
    layer("mining.engine.txn_per_s", "txn/s", Higher),
    layer("mining.rules.generate_ms", "ms", Lower),
    layer("mining.rules.rules", "count", Higher),
    layer("mining.apriori.remine_ms", "ms", Lower),
    layer("mining.apriori.fup_vs_remine", "ratio", Higher),
    layer("core.fup.update_ms", "ms", Lower),
    layer("core.fup2.update_ms", "ms", Lower),
    layer("core.update.candidates_generated", "count", Lower),
    layer("core.update.candidates_checked", "count", Lower),
    layer("core.update.checked_ratio", "ratio", Lower),
    layer("core.update.passes", "count", Lower),
    layer("core.session.stage_ms", "ms", Lower),
    layer("core.session.commit_ms", "ms", Lower),
    layer("core.session.self_ms", "ms", Lower),
    layer("core.session.unattributed_pct", "%", Lower),
    layer("core.session.snapshot_ns", "ns", Lower),
    layer("core.session.read_p99_us", "us", Lower),
    layer("core.session.index_builds", "count", Lower),
    layer("core.session.index_extends", "count", Higher),
    layer("core.session.rounds_fup", "count", Higher),
    layer("core.session.rounds_fup2", "count", Higher),
    layer("core.session.rounds_remine", "count", Lower),
    layer("core.durable.checkpoint_ms", "ms", Lower),
    layer("core.durable.checkpoints", "count", Lower),
    layer("core.durable.recover_ms", "ms", Lower),
    layer("core.durable.replayed_rounds", "count", Lower),
    layer("core.durable.lost_rounds", "count", Lower),
    layer("core.service.stage_call_p50_us", "us", Lower),
    layer("core.service.stage_call_p99_us", "us", Lower),
    layer("core.service.rounds", "count", Lower),
    layer("core.service.commit_p50_ms", "ms", Lower),
    layer("core.service.commit_ms_total", "ms", Lower),
    layer("core.service.max_round_ops", "count", Lower),
    layer("core.service.max_backlog_ops", "count", Lower),
    layer("core.service.backpressure_rejections", "count", Lower),
    layer("core.service.gen_late_p99_ms", "ms", Lower),
    layer("core.service.step1.visible_p50_ms", "ms", Lower),
    layer("core.service.step1.visible_p99_ms", "ms", Lower),
    layer("core.service.step2.visible_p50_ms", "ms", Lower),
    layer("core.service.step2.visible_p99_ms", "ms", Lower),
    layer("core.service.step3.visible_p50_ms", "ms", Lower),
    layer("core.service.step3.visible_p99_ms", "ms", Lower),
    layer("core.service.sustained_tps", "txn/s", Higher),
    layer("core.shard.shards", "count", Higher),
    layer("core.shard.shard_balance", "ratio", Lower),
    layer("core.shard.builds_per_round", "count", Lower),
    layer("core.shard.extends_per_round", "count", Higher),
    layer("core.cluster.bootstrap_ms", "ms", Lower),
    layer("core.cluster.checkpoint_ms", "ms", Lower),
    layer("core.cluster.w0.sync_calls", "count", Lower),
    layer("core.cluster.w0.append_bytes", "B", Lower),
    layer("core.cluster.w1.sync_calls", "count", Lower),
    layer("core.cluster.w1.append_bytes", "B", Lower),
    layer("datagen.generate_ms", "ms", Lower),
    layer("bench.rounds", "count", Higher),
    layer("bench.ops", "count", Higher),
    layer("bench.update_tps", "ops/s", Higher),
];

/// `true` for names the driver accepts: a letter or digit first, then at
/// most 63 more of letters, digits, `_`, `.` and `-`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `true` for units the driver accepts.
#[cfg(test)]
fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::fmt::Write as _;

    /// The package directory, relative to the repository root.
    const BENCH_DIR: &str = "crates/bench/src/bin/bench_e2e";

    /// `BENCHMARK.json` as this table declares it.
    fn benchmark_json() -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(
            s,
            "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
             \"--manifest-path\", \"{BENCH_DIR}/Cargo.toml\", \"--\"],"
        );
        let _ = writeln!(s, "  \"paths\": [\"{BENCH_DIR}\"],");
        let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
        s.push_str("  \"workloads\": [\n");
        for (i, w) in WORKLOADS.iter().enumerate() {
            let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
                w.name, w.why
            );
        }
        s.push_str("  ],\n  \"end_to_end\": [\n");
        for (i, m) in END_TO_END.iter().enumerate() {
            let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
        }
        s.push_str("  ],\n  \"per_layer\": [\n");
        for (i, m) in PER_LAYER.iter().enumerate() {
            let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
                m.name,
                m.unit,
                m.better.as_str()
            );
        }
        s.push_str("  ]\n}\n");
        s
    }

    #[test]
    fn names_units_and_limits_follow_the_contract() {
        let mut seen = HashSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "bad unit {unit}");
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}",
                w.name
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(!valid_name(".hidden") && !valid_name("a b") && !valid_name(""));
    }

    #[test]
    fn committed_benchmark_json_is_the_rendered_table() {
        let committed = include_str!("../../../../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "BENCHMARK.json and spec.rs declare different benchmarks"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
