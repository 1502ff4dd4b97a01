//! `bench_e2e` — the repository's end-to-end benchmark of the FUP/FUP2
//! maintenance path: six named workloads, ten end-to-end metrics, and a
//! traced run that attributes round time to layers from outside (by
//! timing calls into public functions and decorating `DurableStorage`).
//! `BENCHMARK.json` at the repository root declares it; the README in
//! this directory is the glossary.
//!
//! ```text
//! bench_e2e --workload <name|all> [--seed S] [--seconds T] [--trace 0|1]
//!           [--trace-out PATH] [--smoke] [--check-repeat [N]]
//! ```
//!
//! One workload runs in one process, checks its final state against the
//! oracle, prints every metric by name with its unit and ends with the
//! driver's JSON line; a mismatch exits non-zero and prints no metrics.
//! `all` re-executes this binary once per workload; with `--trace 1` it
//! runs each both ways, reports `trace_overhead_pct` and
//! ends with the discrimination self-check. `--check-repeat` runs the
//! set twice, N seeds each, and compares the two sets' medians with the
//! declared bounds.

mod closed;
mod oracle;
mod probes;
mod repeat;
mod report;
mod run;
mod script;
mod serve;
mod spec;
mod stats;
mod sys;
mod timed_storage;
mod trace;

use run::{RunConfig, RunOutput};
use script::Scale;
use std::path::PathBuf;
use std::process::ExitCode;

/// 1996 is the paper's year; 2026 is the held-out seed no number in this
/// directory was tuned on.
const DEFAULT_SEED: u64 = 1996;

#[derive(Debug, Clone)]
pub struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    smoke: bool,
    check_repeat: Option<usize>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        trace_out: None,
        smoke: false,
        check_repeat: None,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("missing value for {arg}"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                let all = spec::WORKLOADS.iter().map(|w| w.name);
                parsed.workloads = all.filter(|w| name == "all" || name == *w).collect();
                if parsed.workloads.is_empty() {
                    return Err(format!("unknown workload: {name}"));
                }
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => parsed.smoke = true,
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--check-repeat" => {
                let runs = args.peek().and_then(|v| v.parse::<usize>().ok());
                args.next_if(|_| runs.is_some());
                parsed.check_repeat = Some(runs.unwrap_or(5));
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if parsed.check_repeat.is_some_and(|n| n < 2) {
        return Err("--check-repeat needs at least 2 runs a set".into());
    }
    if parsed.workloads.is_empty() {
        return Err("--workload <name|all> is required".into());
    }
    Ok(parsed)
}

/// Runs one workload in this process.
fn run_workload(cfg: &RunConfig) -> Result<RunOutput, String> {
    let result = match closed::Kind::from_name(cfg.workload) {
        Some(kind) => closed::run(kind, cfg),
        None => serve::run(cfg),
    };
    sys::remove_work_dirs();
    result
}

fn run_config(args: &Args, workload: &'static str) -> RunConfig {
    RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        trace_out: args
            .trace_out
            .clone()
            .unwrap_or_else(|| sys::output_root().join(format!("trace-{workload}.json"))),
        scale: if args.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        },
    }
}

/// Runs and prints one workload; the exit code says whether it may be
/// believed.
fn single(args: &Args, workload: &'static str) -> ExitCode {
    let cfg = run_config(args, workload);
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let why = spec::WORKLOADS.iter().find(|w| w.name == workload);
    eprintln!("bench_e2e: {workload}: {}", why.map_or("", |w| w.why));
    eprintln!(
        "bench_e2e: {workload} seed={} seconds={} trace={} scale={} cores={cores}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        if args.smoke { "smoke" } else { "full" },
    );
    let out = match run_workload(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("bench_e2e: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !out.mismatches.is_empty() {
        for m in &out.mismatches {
            eprintln!("bench_e2e: ORACLE MISMATCH: {m}");
        }
        return ExitCode::FAILURE;
    }
    match report::render(&out, cfg.trace) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench_e2e: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.check_repeat {
        return repeat::check_repeat(&args, runs);
    }
    match args.workloads.as_slice() {
        [one] => single(&args, one),
        _ => repeat::run_set(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse("--workload churn_mem --seed 7 --seconds 3 --trace 0").unwrap();
        assert_eq!(a.workloads, ["churn_mem"]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, false));
        assert!(parse("--workload churn_mem --trace 1").unwrap().trace);
        assert!(parse("--workload churn_mem --trace").is_err());
        assert!(parse("--workload churn_mem --trace yes").is_err());
        let a = parse("--trace 1 --workload all --check-repeat --seed 2026").unwrap();
        assert!(a.trace && a.seed == 2026);
        assert_eq!(a.check_repeat, Some(5));
        assert_eq!(a.workloads.len(), spec::WORKLOADS.len());
        assert_eq!(
            parse("--workload a --check-repeat 10").unwrap_err(),
            "unknown workload: a"
        );
        assert_eq!(
            parse("--workload serve_open --check-repeat 10")
                .unwrap()
                .check_repeat,
            Some(10)
        );
        assert!(parse("--workload serve_open,insert_mem").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload all --seconds 0").is_err());
        assert!(parse("--workload all --bogus").is_err());
    }

    /// The `--smoke` scale of all six workloads: each must pass the oracle
    /// with nothing failed, and its traced run (which measures everything
    /// the untraced one does) must produce every metric of both modes.
    #[test]
    fn smoke_scale_of_every_workload_passes_the_oracle() {
        for w in &spec::WORKLOADS {
            let cfg = RunConfig {
                workload: w.name,
                seed: 11,
                seconds: 0.05,
                trace: true,
                trace_out: sys::output_root().join(format!("smoke-trace-{}.json", w.name)),
                scale: Scale::SMOKE,
            };
            let out = run_workload(&cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(out.mismatches, Vec::<String>::new(), "{}", w.name);
            assert_eq!(out.failed, 0, "{}: {:?}", w.name, out.notes);
            assert!(out.attempted > 0);
            assert!(cfg.trace_out.exists(), "{} wrote no trace", w.name);
            let _ = std::fs::remove_file(&cfg.trace_out);

            let parse = |trace| {
                let text = report::render(&out, trace)
                    .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name));
                report::parse_result(text.lines().last().unwrap()).unwrap()
            };
            let (end_to_end, layers) = (parse(false), parse(true));
            assert!(end_to_end.correct && layers.correct);
            // CPU time ticks in 10 ms steps, too coarse for a run this
            // short; every other end-to-end metric is never 0.
            let zero: Vec<_> = end_to_end
                .metrics
                .iter()
                .filter(|(name, v)| **v <= 0.0 && *name != "cpu_ms_per_kop")
                .collect();
            assert!(zero.is_empty(), "{}: {zero:?}", w.name);
            let failures = repeat::discrimination_failures(w.name, &layers.metrics);
            assert_eq!(failures, Vec::<String>::new());
        }
    }
}
