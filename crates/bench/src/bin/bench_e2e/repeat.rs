//! Modes that run workloads as child processes of this binary: a set of
//! workloads in one go (with the traced pass, `trace_overhead_pct` and
//! the discrimination self-check), and `--check-repeat`, which runs the
//! set twice and holds the two sets' medians to the declared bounds.

use crate::report::{parse_result, Parsed};
use crate::spec::{Better, END_TO_END};
use crate::stats::spread;
use crate::Args;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// Runs one workload in a child process; echoes what it printed and
/// returns its result line. `None` if it failed.
fn child(args: &Args, workload: &str, seed: u64, trace: bool, echo: bool) -> Option<Parsed> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .stdout(Stdio::piped());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command.output().expect("run a child of this binary");
    let text = String::from_utf8_lossy(&output.stdout);
    if echo {
        for line in text.lines().filter(|l| !l.starts_with('{')) {
            println!("  {line}");
        }
    }
    if !output.status.success() {
        return None;
    }
    text.lines().last().and_then(parse_result)
}

/// What the workloads' per-layer numbers must show for the benchmark to
/// tell the layers apart; one line per violation.
pub fn discrimination_failures(workload: &str, layers: &BTreeMap<String, f64>) -> Vec<String> {
    let get = |name: &str| layers.get(name).copied().unwrap_or(f64::NAN);
    let mut failures = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            failures.push(format!("{workload}: {what}"));
        }
    };
    let storage_calls = get("tidb.storage.append_calls")
        + get("tidb.storage.sync_calls")
        + get("tidb.storage.atomic_calls");
    let in_memory = matches!(workload, "insert_mem" | "churn_mem" | "churn_shard4");
    expect(
        (storage_calls == 0.0) == in_memory,
        format!("{storage_calls} storage calls"),
    );
    let rounds = get("bench.rounds");
    let (fup, fup2) = (
        get("core.session.rounds_fup"),
        get("core.session.rounds_fup2"),
    );
    if workload.starts_with("insert_") {
        expect(
            fup == rounds && fup2 == 0.0,
            format!("{fup} of {rounds} rounds ran fup"),
        );
        // An index too small for `Auto` to build at all is not a failure
        // to extend it.
        let (builds, extends) = (
            get("core.session.index_builds"),
            get("core.session.index_extends"),
        );
        expect(
            extends > builds || builds + extends == 0.0,
            format!("{extends} index extends against {builds} builds"),
        );
    }
    if workload.starts_with("churn_") {
        expect(
            fup2 == rounds,
            format!("{fup2} of {rounds} rounds ran fup2"),
        );
    }
    let rpc = get("tidb.rpc.frame_bytes");
    expect(
        (rpc > 0.0) == (workload == "churn_cluster2"),
        format!("{rpc} RPC frame bytes"),
    );
    failures
}

/// `--workload all`: each workload in its own process. With `--trace 1`,
/// each runs untraced and traced, and the set ends with the self-check.
pub fn run_set(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut failures = Vec::new();
    for &workload in &args.workloads {
        println!("== {workload} (seed {}, untraced) ==", args.seed);
        let Some(plain) = child(args, workload, args.seed, false, true) else {
            println!("  FAILED");
            ok = false;
            continue;
        };
        if !args.trace {
            continue;
        }
        println!("== {workload} (seed {}, traced) ==", args.seed);
        let Some(traced) = child(args, workload, args.seed, true, true) else {
            println!("  FAILED");
            ok = false;
            continue;
        };
        let (untraced_tps, traced_tps) = (
            plain.metrics["update_tps"],
            traced.metrics["bench.update_tps"],
        );
        println!(
            "  {:<43} {:>16.4} %  (traced {traced_tps:.1} vs untraced {untraced_tps:.1} ops/s)",
            "trace_overhead_pct",
            (untraced_tps / traced_tps - 1.0) * 100.0,
        );
        failures.extend(discrimination_failures(workload, &traced.metrics));
    }
    if args.trace {
        println!("== discrimination self-check ==");
        for f in &failures {
            println!("  FAIL {f}");
        }
        if failures.is_empty() && ok {
            println!(
                "  ok: storage is idle on the *_mem workloads and busy on the durable ones; \
                 insert_* rounds run fup and extend the index; churn_* rounds run fup2; \
                 RPC frames only on churn_cluster2"
            );
        }
    }
    if ok && failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// By how much of `first` the metric got worse from `first` to `second`
/// (negative when it improved).
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// `--check-repeat N`: two sets of N runs (seeds `seed`, `seed`+1, …) of
/// every workload. Prints both sets' median and quartile spread per
/// metric, fails when a second median is worse than the first by more
/// than the metric's bound or a spread exceeds it, and prints the bound
/// each metric would need (three times its widest spread).
pub fn check_repeat(args: &Args, runs: usize) -> ExitCode {
    let mut ok = true;
    let mut needed: BTreeMap<&str, f64> = BTreeMap::new();
    for &workload in &args.workloads {
        let mut sets: [BTreeMap<&str, Vec<f64>>; 2] = Default::default();
        for (set, values) in sets.iter_mut().enumerate() {
            for i in 0..runs {
                let seed = args.seed + i as u64;
                eprintln!(
                    "check-repeat: {workload} set {} run {} of {runs}",
                    set + 1,
                    i + 1
                );
                let Some(result) = child(args, workload, seed, false, false) else {
                    println!("{workload}: run with seed {seed} FAILED");
                    return ExitCode::FAILURE;
                };
                if result.failed > 0 {
                    println!(
                        "{workload}: seed {seed} failed {} operations",
                        result.failed
                    );
                    ok = false;
                }
                for m in &END_TO_END {
                    values
                        .entry(m.name)
                        .or_default()
                        .push(result.metrics[m.name]);
                }
            }
        }
        println!("== {workload}: {runs} runs a set ==");
        println!(
            "{:<16} {:>12} {:>8} {:>12} {:>8} {:>8} {:>6}",
            "metric", "median 1", "spread", "median 2", "spread", "worse", "bound"
        );
        for m in &END_TO_END {
            let (m1, s1) = spread(&sets[0][m.name]);
            let (m2, s2) = spread(&sets[1][m.name]);
            let worse = worsening(m.better, m1, m2);
            let verdict = if worse <= m.bound && s1.max(s2) <= m.bound {
                ""
            } else {
                "  FAIL"
            };
            ok &= verdict.is_empty();
            println!(
                "{:<16} {m1:>12.4} {:>7.1}% {m2:>12.4} {:>7.1}% {:>7.1}% {:>5.0}%{verdict}",
                m.name,
                s1 * 100.0,
                s2 * 100.0,
                worse * 100.0,
                m.bound * 100.0,
            );
            let need = needed.entry(m.name).or_default();
            *need = need.max(3.0 * s1.max(s2));
        }
    }
    println!("== bounds these runs ask for (3 x widest spread; the driver caps a bound at 25%) ==");
    for m in &END_TO_END {
        println!(
            "{:<16} declared {:>5.1}%  measured {:>5.1}%",
            m.name,
            m.bound * 100.0,
            needed[m.name] * 100.0
        );
    }
    if ok {
        println!("check-repeat: ok");
        ExitCode::SUCCESS
    } else {
        println!("check-repeat: FAILED");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layers(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn self_check_tells_the_workloads_apart() {
        let insert_mem = layers(&[
            ("tidb.storage.append_calls", 0.0),
            ("tidb.storage.sync_calls", 0.0),
            ("tidb.storage.atomic_calls", 0.0),
            ("bench.rounds", 150.0),
            ("core.session.rounds_fup", 150.0),
            ("core.session.rounds_fup2", 0.0),
            ("core.session.index_builds", 30.0),
            ("core.session.index_extends", 120.0),
            ("tidb.rpc.frame_bytes", 0.0),
        ]);
        assert!(discrimination_failures("insert_mem", &insert_mem).is_empty());
        // The same numbers are wrong for a durable or a churn workload.
        assert_eq!(
            discrimination_failures("insert_durable", &insert_mem).len(),
            1
        );
        assert_eq!(discrimination_failures("churn_mem", &insert_mem).len(), 1);
        assert_eq!(
            discrimination_failures("churn_cluster2", &insert_mem).len(),
            3
        );
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 10.0, 12.0) - 0.2).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 8.0) - 0.2).abs() < 1e-12);
        assert!(worsening(Better::Higher, 10.0, 12.0) < 0.0);
    }
}
