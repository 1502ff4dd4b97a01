//! Printing a run: every metric by name with its unit, then the one JSON
//! object the driver reads from the last line of standard output — and
//! reading that line back, for the modes that run workloads as child
//! processes.

use crate::run::RunOutput;
use crate::spec::{Better, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Adds the traced run's account of where round time went: each layer's
/// self time, and what of the rounds no named layer explains.
pub fn trace_notes(out: &mut RunOutput, tracer: &Tracer, rounds_ms: f64) {
    let self_ms = tracer.self_ms();
    let share = |ms: f64| ms / rounds_ms.max(1e-9) * 100.0;
    for (name, ms) in &self_ms {
        out.notes.push(format!(
            "self time {name}: {ms:.3} ms ({:.1} % of round time)",
            share(*ms)
        ));
    }
    // Inside a round but in none of its named children: the session's
    // own work (staging, rule generation, publication), seen only as a
    // remainder until the library records spans itself.
    let unattributed: f64 = [
        "round",
        "core.session.stage",
        "core.session.commit",
        "core.service.round",
    ]
    .iter()
    .filter_map(|n| self_ms.get(n))
    .sum();
    out.notes.push(format!(
        "unattributed remainder of rounds: {unattributed:.3} ms of {rounds_ms:.3} ms ({:.1} %)",
        share(unattributed)
    ));
}

/// One printed metric: name, unit, value, the samples behind it, and
/// which way is better.
type Row = (&'static str, &'static str, f64, Option<usize>, Better);

/// The metrics a run of this mode must print, in table order, or the
/// name of one the workload did not produce.
fn expected_metrics(out: &RunOutput, trace: bool) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    if trace {
        for m in &PER_LAYER {
            let v = out.per_layer.get(m.name).ok_or(m.name)?;
            rows.push((m.name, m.unit, *v, None, m.better));
        }
    } else {
        for m in &END_TO_END {
            let r = out.end_to_end.get(m.name).ok_or(m.name)?;
            rows.push((m.name, m.unit, r.value, Some(r.samples), m.better));
        }
    }
    if let Some((name, ..)) = rows.iter().find(|r| !r.2.is_finite()) {
        return Err(format!("{name} is not a finite number"));
    }
    Ok(rows)
}

/// Renders a correct run: one line per metric, the notes, and last the
/// driver's JSON object. `Err` names what keeps the run from reporting.
pub fn render(out: &RunOutput, trace: bool) -> Result<String, String> {
    let rows = expected_metrics(out, trace).map_err(|e| format!("metric missing: {e}"))?;
    let mut text = String::new();
    if trace {
        // A traced run still shows its end-to-end numbers to the reader;
        // the driver takes them from the untraced run only.
        for m in &END_TO_END {
            if let Some(r) = out.end_to_end.get(m.name) {
                let _ = writeln!(text, "(traced) {:<34} {:>16.4} {}", m.name, r.value, m.unit);
            }
        }
    }
    for (name, unit, value, samples, better) in &rows {
        let n = samples.map_or(String::new(), |n| format!(", n={n}"));
        let better = better.as_str();
        let _ = writeln!(
            text,
            "{name:<43} {value:>16.4} {unit}  ({better} is better{n})"
        );
    }
    let _ = writeln!(
        text,
        "{:<43} {:>16.6} ratio  ({} of {} ops)",
        "failed_share",
        out.failed_share(),
        out.failed,
        out.attempted
    );
    for note in &out.notes {
        let _ = writeln!(text, "note: {note}");
    }
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, unit, value, ..)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let _ = writeln!(
        text,
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    Ok(text)
}

/// The last-line JSON object of a child run, read back.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

/// Parses the object [`render`] writes (only that shape: this is not a
/// JSON parser).
pub fn parse_result(line: &str) -> Option<Parsed> {
    let after = |key: &str| {
        let at = line.find(key)? + key.len();
        Some(line[at..].trim_start())
    };
    let number = |s: &str| {
        let end = s
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
            .unwrap_or(s.len());
        s[..end].parse::<f64>().ok()
    };
    let correct = after("\"correct\":")?.starts_with("true");
    let attempted = number(after("\"attempted\":")?)? as u64;
    let failed = number(after("\"failed\":")?)? as u64;
    let mut metrics = BTreeMap::new();
    let mut rest = after("\"metrics\":")?.strip_prefix('{')?;
    while let Some(open) = rest.find('"') {
        let name_end = open + 1 + rest[open + 1..].find('"')?;
        let name = &rest[open + 1..name_end];
        let value_at = name_end + rest[name_end..].find("\"value\":")? + "\"value\":".len();
        metrics.insert(name.to_string(), number(rest[value_at..].trim_start())?);
        rest = &rest[value_at + rest[value_at..].find('}')? + 1..];
    }
    Some(Parsed {
        correct,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Samples;

    fn complete(trace: bool) -> RunOutput {
        let mut out = RunOutput {
            attempted: 1_000,
            failed: 0,
            ..Default::default()
        };
        for (i, m) in END_TO_END.iter().enumerate() {
            out.report(m.name, 1.5 + i as f64, 100 + i, 0.0);
        }
        if trace {
            for (i, m) in PER_LAYER.iter().enumerate() {
                out.layer(m.name, i as f64 * 0.25);
            }
        }
        out
    }

    #[test]
    fn printed_names_are_exactly_the_declared_ones() {
        for trace in [false, true] {
            let text = render(&complete(trace), trace).unwrap();
            let last = text.lines().last().unwrap();
            let parsed = parse_result(last).expect("own output parses");
            assert!(parsed.correct);
            assert_eq!((parsed.attempted, parsed.failed), (1_000, 0));
            let declared: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            let mut printed: Vec<&str> = parsed.metrics.keys().map(String::as_str).collect();
            let mut sorted = declared.clone();
            sorted.sort_unstable();
            printed.sort_unstable();
            assert_eq!(printed, sorted);
            // Every metric also has its own line, with its unit and — for
            // timings — its sample count.
            for name in declared {
                assert!(
                    text.lines().any(|l| l.starts_with(name)),
                    "{name} has no line"
                );
            }
            if !trace {
                assert!(text.contains("n=100)"));
                assert_eq!(parsed.metrics["setup_s"], 1.5);
            }
        }
    }

    #[test]
    fn a_missing_or_non_finite_metric_stops_the_report() {
        let mut out = complete(false);
        out.end_to_end.remove("update_tps");
        assert!(render(&out, false).unwrap_err().contains("update_tps"));
        let mut out = complete(false);
        out.report("update_tps", f64::NAN, 1, 0.0);
        assert!(render(&out, false).unwrap_err().contains("finite"));
        assert!(render(&complete(false), true).is_err());
    }

    #[test]
    fn short_series_are_flagged_by_the_percentile_rule() {
        let mut out = RunOutput::default();
        out.report("round_p90_ms", 5.0, 6, 0.9);
        out.report("round_p50_ms", 5.0, 150, 0.5);
        assert_eq!(out.notes.len(), 1);
        assert!(out.notes[0].contains("round_p90_ms") && out.notes[0].contains("6 samples"));
    }

    #[test]
    fn a_tail_is_reported_at_the_highest_supported_percentile() {
        let series = |n: usize| {
            let mut s = Samples::new();
            (1..=n).for_each(|v| s.push(v as f64));
            s
        };
        let mut out = RunOutput::default();
        out.report_tail("round_p90_ms", &mut series(100));
        assert_eq!(out.end_to_end["round_p90_ms"].value, 90.0);
        assert!(out.notes.is_empty());
        // 40 samples have ten beyond p75, not beyond p90.
        out.report_tail("round_p90_ms", &mut series(40));
        assert_eq!(out.end_to_end["round_p90_ms"].value, 30.0);
        assert!(out.notes[0].contains("reported at p75"), "{:?}", out.notes);
        // Eight samples have no tail: the median, flagged twice over.
        out.report_tail("round_p90_ms", &mut series(8));
        assert_eq!(out.end_to_end["round_p90_ms"].value, 4.0);
        assert!(out.notes.last().unwrap().contains("fewer than ten"));
    }
}
