//! `TimedStorage`: a [`DurableStorage`] decorator that measures the
//! `tidb.storage` layer from outside — calls, bytes and (in a traced run)
//! the duration of every operation — and remembers how many bytes of each
//! file a `sync` or an atomic write has made durable, so a power cut can
//! be staged: [`TimedStorage::power_cut_image`] copies every file cut back
//! to its flushed length, and recovery must find every acknowledged
//! commit in those bytes alone.

use fup_tidb::{DurableStorage, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;

/// The storage operations that are timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Append = 0,
    Sync = 1,
    Atomic = 2,
    Read = 3,
}

impl Op {
    pub fn span_name(self) -> &'static str {
        match self {
            Op::Append => "tidb.storage.append",
            Op::Sync => "tidb.storage.sync",
            Op::Atomic => "tidb.storage.write_atomic",
            Op::Read => "tidb.storage.read",
        }
    }
}

/// Calls, bytes and (traced runs only) nanoseconds of one operation kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTotals {
    pub calls: u64,
    pub bytes: u64,
    pub nanos: u64,
}

/// One timed storage call, for the trace.
#[derive(Debug, Clone, Copy)]
pub struct StorageSpan {
    pub op: Op,
    pub start: Instant,
    pub end: Instant,
    pub thread: ThreadId,
}

#[derive(Debug, Default)]
struct State {
    totals: [OpTotals; 4],
    /// Per file: bytes written so far, and the prefix of them a barrier
    /// has made durable.
    lengths: HashMap<String, (u64, u64)>,
    spans: Vec<StorageSpan>,
}

#[derive(Debug)]
pub struct TimedStorage {
    inner: Arc<dyn DurableStorage>,
    state: Mutex<State>,
    /// Off for end-to-end runs: only counts and flushed lengths are kept.
    timing: AtomicBool,
}

impl TimedStorage {
    pub fn new(inner: Arc<dyn DurableStorage>, timing: bool) -> Self {
        TimedStorage {
            inner,
            state: Mutex::new(State::default()),
            timing: AtomicBool::new(timing),
        }
    }

    fn state(&self) -> MutexGuard<'_, State> {
        // Every update leaves the counters valid, so a panic elsewhere
        // while the lock was held loses nothing.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn totals(&self, op: Op) -> OpTotals {
        self.state().totals[op as usize]
    }

    /// Takes the spans recorded since the last call.
    pub fn take_spans(&self) -> Vec<StorageSpan> {
        std::mem::take(&mut self.state().spans)
    }

    /// Runs one storage call, counts it, and on success lets `settle`
    /// update the flushed-length book.
    fn measured<T>(
        &self,
        op: Op,
        bytes: u64,
        call: impl FnOnce() -> Result<T>,
        settle: impl FnOnce(&mut HashMap<String, (u64, u64)>),
    ) -> Result<T> {
        let timing = self.timing.load(Ordering::Relaxed);
        let start = timing.then(Instant::now);
        let result = call();
        let end = timing.then(Instant::now);
        let mut state = self.state();
        let totals = &mut state.totals[op as usize];
        totals.calls += 1;
        totals.bytes += bytes;
        if let (Some(start), Some(end)) = (start, end) {
            totals.nanos += (end - start).as_nanos() as u64;
            state.spans.push(StorageSpan {
                op,
                start,
                end,
                thread: std::thread::current().id(),
            });
        }
        if result.is_ok() {
            settle(&mut state.lengths);
        }
        result
    }

    /// What a power cut leaves behind: every file of the namespace, cut
    /// back to the bytes a `sync` or an atomic write made durable, written
    /// into `dest`.
    pub fn power_cut_image(&self, dest: &dyn DurableStorage) -> Result<()> {
        let lengths = self.state().lengths.clone();
        for file in self.inner.list()? {
            let Some(mut bytes) = self.inner.read(&file)? else {
                continue;
            };
            let flushed = lengths.get(&file).map_or(0, |&(_, flushed)| flushed);
            bytes.truncate(flushed.min(bytes.len() as u64) as usize);
            dest.write_atomic(&file, &bytes)?;
        }
        Ok(())
    }
}

/// Totals of every operation kind, summed over a session's namespaces
/// and indexed by [`Op`].
pub fn sum_totals(storages: &[Arc<TimedStorage>]) -> [OpTotals; 4] {
    let mut sum = [OpTotals::default(); 4];
    for s in storages {
        let state = s.state();
        for (slot, t) in sum.iter_mut().zip(&state.totals) {
            slot.calls += t.calls;
            slot.bytes += t.bytes;
            slot.nanos += t.nanos;
        }
    }
    sum
}

impl DurableStorage for TimedStorage {
    fn append(&self, file: &str, bytes: &[u8]) -> Result<()> {
        self.measured(
            Op::Append,
            bytes.len() as u64,
            || self.inner.append(file, bytes),
            |lengths| lengths.entry(file.to_string()).or_default().0 += bytes.len() as u64,
        )
    }

    fn sync(&self, file: &str) -> Result<()> {
        self.measured(
            Op::Sync,
            0,
            || self.inner.sync(file),
            |lengths| {
                if let Some((written, flushed)) = lengths.get_mut(file) {
                    *flushed = *written;
                }
            },
        )
    }

    fn write_atomic(&self, file: &str, content: &[u8]) -> Result<()> {
        let len = content.len() as u64;
        self.measured(
            Op::Atomic,
            len,
            || self.inner.write_atomic(file, content),
            |lengths| {
                lengths.insert(file.to_string(), (len, len));
            },
        )
    }

    fn read(&self, file: &str) -> Result<Option<Vec<u8>>> {
        self.measured(Op::Read, 0, || self.inner.read(file), |_| {})
    }

    fn list(&self) -> Result<Vec<String>> {
        self.inner.list()
    }

    fn remove(&self, file: &str) -> Result<()> {
        self.inner.remove(file)?;
        self.state().lengths.remove(file);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fup_tidb::MemStorage;

    fn timed(timing: bool) -> TimedStorage {
        TimedStorage::new(Arc::new(MemStorage::new()), timing)
    }

    #[test]
    fn power_cut_keeps_only_flushed_bytes() {
        let s = timed(false);
        s.append("wal", b"aaaa").unwrap();
        s.sync("wal").unwrap();
        s.append("wal", b"bbbb").unwrap(); // written, never flushed
        s.append("fresh", b"cccc").unwrap(); // never flushed at all
        s.write_atomic("ckpt", b"image").unwrap();
        s.write_atomic("old", b"x").unwrap();
        s.remove("old").unwrap();

        let image = MemStorage::new();
        s.power_cut_image(&image).unwrap();
        assert_eq!(image.read("wal").unwrap().unwrap(), b"aaaa");
        assert_eq!(image.read("fresh").unwrap().unwrap(), b"");
        assert_eq!(image.read("ckpt").unwrap().unwrap(), b"image");
        assert_eq!(image.read("old").unwrap(), None);

        // A later barrier makes the tail durable too.
        s.sync("wal").unwrap();
        let image = MemStorage::new();
        s.power_cut_image(&image).unwrap();
        assert_eq!(image.read("wal").unwrap().unwrap(), b"aaaabbbb");
    }

    #[test]
    fn counts_always_and_times_only_when_tracing() {
        let s = timed(false);
        s.append("wal", b"12345").unwrap();
        s.sync("wal").unwrap();
        s.write_atomic("ckpt", b"123").unwrap();
        s.read("ckpt").unwrap();
        assert_eq!(
            s.totals(Op::Append),
            OpTotals {
                calls: 1,
                bytes: 5,
                nanos: 0
            }
        );
        assert_eq!(s.totals(Op::Sync).calls, 1);
        assert_eq!(s.totals(Op::Atomic).bytes, 3);
        assert_eq!(s.totals(Op::Read).calls, 1);
        assert!(s.take_spans().is_empty());

        let s = timed(true);
        s.append("wal", b"12345").unwrap();
        s.sync("wal").unwrap();
        let spans = s.take_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].op, Op::Append);
        assert!(spans[0].end <= spans[1].start);
        assert_eq!(spans[0].thread, std::thread::current().id());
        assert!(s.take_spans().is_empty());
    }
}
