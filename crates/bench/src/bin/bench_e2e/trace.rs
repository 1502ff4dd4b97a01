//! Spans recorded by a traced run, from the benchmark's own call sites:
//! `name, start_ns, end_ns, parent, round`. They stay in memory while the
//! workload runs and are written as JSON when it ends.

use crate::timed_storage::StorageSpan;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The commit round the span belongs to (the identifier spans of one
    /// request share).
    pub round: Option<u64>,
    /// `true` when the library reported the duration and the benchmark
    /// only placed it (at the start of its parent).
    pub derived: bool,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span and returns its index.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        round: Option<u64>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            round,
            derived: false,
        });
        self.spans.len() - 1
    }

    /// Records a duration the library reported about work inside
    /// `parent`, placed at the parent's start.
    pub fn derived(&mut self, name: &'static str, nanos: u64, parent: usize) {
        let p = &self.spans[parent];
        let (start_ns, round) = (p.start_ns, p.round);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: (start_ns + nanos).min(p.end_ns),
            parent: Some(parent),
            round,
            derived: true,
        });
    }

    /// Nests each storage span under the latest of `parents` that contains
    /// it (parents are given outermost first); spans none contains keep no
    /// parent.
    pub fn adopt_storage(&mut self, storage: &[StorageSpan], parents: &[usize]) {
        for s in storage {
            let (start_ns, end_ns) = (self.ns(s.start), self.ns(s.end));
            let parent = parents.iter().rev().copied().find(|&p| {
                let p = &self.spans[p];
                p.start_ns <= start_ns && end_ns <= p.end_ns
            });
            self.spans.push(Span {
                name: s.op.span_name(),
                start_ns,
                end_ns,
                parent,
                round: parent.and_then(|p| self.spans[p].round),
                derived: false,
            });
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name, total self time in milliseconds: each span's
    /// duration minus the part of it its child spans cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if a < b {
                    children[p].push((a, b));
                }
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if a < b {
                    covered += b - a;
                    reach = b;
                }
            }
            *out.entry(s.name).or_default() += (s.duration_ns() - covered) as f64 / 1e6;
        }
        out
    }

    /// Writes the spans as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"round\": {}, \"derived\": {}}}{sep}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.round),
                s.derived,
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed_storage::Op;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let mut t = Tracer::new();
        let epoch = t.epoch;
        let at = move |ms: u64| epoch + Duration::from_millis(ms);
        let (r0, r10, r4, r9, r7) = (at(0), at(10), at(4), at(9), at(7));
        let round = t.span("round", r0, r10, None, Some(3));
        let commit = t.span("commit", r4, r9, Some(round), Some(3));
        // 2 ms of library-reported update time inside the commit.
        t.derived("update", 2_000_000, commit);
        // One storage call inside the commit, one outside every span.
        let thread = std::thread::current().id();
        let storage = [
            StorageSpan {
                op: Op::Sync,
                start: r7,
                end: r9,
                thread,
            },
            StorageSpan {
                op: Op::Append,
                start: at(20),
                end: at(21),
                thread,
            },
        ];
        t.adopt_storage(&storage, &[round, commit]);

        let spans = t.spans();
        assert_eq!(spans[2].parent, Some(commit));
        assert!(spans[2].derived);
        assert_eq!((spans[2].start_ns, spans[2].end_ns), (4_000_000, 6_000_000));
        assert_eq!(spans[3].parent, Some(commit));
        assert_eq!(spans[3].round, Some(3));
        assert_eq!(spans[4].parent, None);

        let self_ms = t.self_ms();
        assert_eq!(self_ms["round"], 5.0); // 10 − the 5 ms commit
        assert_eq!(self_ms["commit"], 1.0); // 5 − update 2 − sync 2
        assert_eq!(self_ms["update"], 2.0);
        assert_eq!(self_ms["tidb.storage.sync"], 2.0);
        assert_eq!(self_ms["tidb.storage.append"], 1.0);
        // Self times of a tree sum to its root's duration.
        let tree: f64 = ["round", "commit", "update", "tidb.storage.sync"]
            .iter()
            .map(|n| self_ms[n])
            .sum();
        assert_eq!(tree, 10.0);
    }
}
