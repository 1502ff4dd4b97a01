//! Injectable durable storage.
//!
//! The durability layer (the WAL in [`crate::wal`] and the checkpoints
//! written by `fup_core::durable`) talks to its backing medium through the
//! [`DurableStorage`] trait — a deliberately narrow, flat-namespace file
//! API — so that crash behaviour is *testable*: production code runs on
//! [`DiskStorage`] (a directory of real files with real `fsync`), while
//! the fault-injection harness runs the same code on [`MemStorage`] and
//! kills it at any chosen write, tears the last record, flips bytes, or
//! fails `fsync` — then recovers from exactly the bytes a real crash
//! would have left behind.
//!
//! ## Crash semantics
//!
//! * [`append`](DurableStorage::append) may persist any *prefix* of the
//!   appended bytes when the process dies mid-write (torn tail). It never
//!   reorders or drops earlier bytes.
//! * [`write_atomic`](DurableStorage::write_atomic) is all-or-nothing: a
//!   crash leaves either the old content (or absence) or the complete new
//!   content, never a torn file. `DiskStorage` implements this with the
//!   classic write-temp + `fsync` + `rename` + directory-`fsync` dance.
//! * [`sync`](DurableStorage::sync) is the durability barrier: appended
//!   bytes survive a crash only once a later `sync` on the same file
//!   returned `Ok`.
//!
//! ## Fault taxonomy
//!
//! Every failure carries a [`FaultKind`]: **permanent** faults mean the
//! caller must treat the session as crashed — [`MemStorage`] enforces
//! this by failing every subsequent mutation after an injected kill
//! fires — while **transient** faults (an interrupted syscall, a
//! timeout, `ENOSPC` that an operator can clear) may be retried with
//! backoff. [`DiskStorage`] classifies real OS errors;
//! [`FlakyStorage`] wraps any storage and injects scripted *transient*
//! faults (fail the next N ops of a class, then heal) — the harness for
//! the retry/degrade/self-heal machinery in `fup_core`, complementing
//! `MemStorage`'s terminal kills.

use crate::error::{Error, FaultKind, Result};
use crate::sync;
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// A flat namespace of durable files: the medium under the WAL and
/// checkpoints. See the [module docs](self) for crash semantics.
pub trait DurableStorage: Send + Sync + std::fmt::Debug {
    /// Appends `bytes` to `file`, creating it if absent. On a crash, any
    /// prefix of `bytes` may have been persisted.
    fn append(&self, file: &str, bytes: &[u8]) -> Result<()>;

    /// Durability barrier: everything previously appended to `file`
    /// survives a crash once this returns `Ok`.
    fn sync(&self, file: &str) -> Result<()>;

    /// Atomically replaces (or creates) `file` with `content` — a crash
    /// leaves either the old state or the complete new content.
    fn write_atomic(&self, file: &str, content: &[u8]) -> Result<()>;

    /// Reads a whole file; `Ok(None)` if it does not exist.
    fn read(&self, file: &str) -> Result<Option<Vec<u8>>>;

    /// Lists every file name in the namespace, in unspecified order.
    fn list(&self) -> Result<Vec<String>>;

    /// Removes `file`; removing a non-existent file is not an error.
    fn remove(&self, file: &str) -> Result<()>;
}

fn io_err(op: &'static str, file: &str, kind: FaultKind, e: impl std::fmt::Display) -> Error {
    Error::Io {
        op,
        file: file.to_string(),
        kind,
        reason: e.to_string(),
    }
}

/// Classifies an OS error: interruptions, timeouts, contention, and a
/// full disk may clear on their own; everything else (not-found,
/// permission, invalid data, …) is permanent.
fn classify_os(e: &std::io::Error) -> FaultKind {
    use std::io::ErrorKind;
    // ENOSPC (28 on Linux) is the canonical "clears when the operator
    // frees space" fault; match the raw errno so the classification does
    // not depend on `ErrorKind::StorageFull` stabilization.
    if e.raw_os_error() == Some(28) {
        return FaultKind::Transient;
    }
    match e.kind() {
        ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut => {
            FaultKind::Transient
        }
        _ => FaultKind::Permanent,
    }
}

/// Builds an [`Error::Io`] from a real OS error, classified.
fn os_err(op: &'static str, file: &str, e: std::io::Error) -> Error {
    let kind = classify_os(&e);
    io_err(op, file, kind, e)
}

/// Validates that a name stays inside the flat namespace (no path
/// separators, no traversal) — the durability layer only ever generates
/// such names, so a violation is a caller bug.
fn check_name(op: &'static str, file: &str) -> Result<()> {
    let bad =
        file.is_empty() || file == "." || file == ".." || file.contains('/') || file.contains('\\');
    if bad {
        return Err(io_err(
            op,
            file,
            FaultKind::Permanent,
            "invalid file name for flat storage",
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------- disk --

/// [`DurableStorage`] over a real directory: one file per name, appends
/// through a cached handle, `sync_data` as the barrier, and atomic
/// replace via temp-file + rename (+ directory fsync).
#[derive(Debug)]
pub struct DiskStorage {
    dir: PathBuf,
    /// Cached append handles, so a WAL append is one `write` syscall.
    /// Poison is recovered (`crate::sync`): a section inserts or removes
    /// one whole handle, and a failed write returns an error, not a
    /// panic.
    handles: Mutex<HashMap<String, fs::File>>,
}

impl DiskStorage {
    /// Opens (creating if needed) `dir` as a durable namespace.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| os_err("open", &dir.to_string_lossy(), e))?;
        Ok(DiskStorage {
            dir,
            handles: Mutex::new(HashMap::new()),
        })
    }

    /// The backing directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    fn path(&self, file: &str) -> PathBuf {
        self.dir.join(file)
    }

    /// Fsyncs the directory itself so renames/removals are durable.
    fn sync_dir(&self) -> Result<()> {
        let d = fs::File::open(&self.dir)
            .map_err(|e| os_err("sync", &self.dir.to_string_lossy(), e))?;
        d.sync_all()
            .map_err(|e| os_err("sync", &self.dir.to_string_lossy(), e))
    }
}

impl DurableStorage for DiskStorage {
    fn append(&self, file: &str, bytes: &[u8]) -> Result<()> {
        check_name("append", file)?;
        let mut handles = sync::lock(&self.handles);
        if !handles.contains_key(file) {
            let h = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.path(file))
                .map_err(|e| os_err("append", file, e))?;
            handles.insert(file.to_string(), h);
        }
        let h = handles.get_mut(file).expect("inserted above");
        h.write_all(bytes).map_err(|e| os_err("append", file, e))
    }

    fn sync(&self, file: &str) -> Result<()> {
        check_name("sync", file)?;
        let handles = sync::lock(&self.handles);
        match handles.get(file) {
            Some(h) => h.sync_data().map_err(|e| os_err("sync", file, e)),
            // Nothing appended through us yet — nothing to make durable.
            None => Ok(()),
        }
    }

    fn write_atomic(&self, file: &str, content: &[u8]) -> Result<()> {
        check_name("write_atomic", file)?;
        let tmp_name = format!("{file}.tmp");
        let tmp = self.path(&tmp_name);
        {
            let mut h = fs::File::create(&tmp).map_err(|e| os_err("write_atomic", file, e))?;
            h.write_all(content)
                .map_err(|e| os_err("write_atomic", file, e))?;
            h.sync_data().map_err(|e| os_err("write_atomic", file, e))?;
        }
        fs::rename(&tmp, self.path(file)).map_err(|e| os_err("write_atomic", file, e))?;
        // Drop any stale append handle: the inode changed.
        sync::lock(&self.handles).remove(file);
        self.sync_dir()
    }

    fn read(&self, file: &str) -> Result<Option<Vec<u8>>> {
        check_name("read", file)?;
        match fs::read(self.path(file)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(os_err("read", file, e)),
        }
    }

    fn list(&self) -> Result<Vec<String>> {
        let entries =
            fs::read_dir(&self.dir).map_err(|e| os_err("list", &self.dir.to_string_lossy(), e))?;
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| os_err("list", &self.dir.to_string_lossy(), e))?;
            if entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
                if let Some(name) = entry.file_name().to_str() {
                    // In-flight temp files are not part of the namespace.
                    if !name.ends_with(".tmp") {
                        names.push(name.to_string());
                    }
                }
            }
        }
        Ok(names)
    }

    fn remove(&self, file: &str) -> Result<()> {
        check_name("remove", file)?;
        sync::lock(&self.handles).remove(file);
        match fs::remove_file(self.path(file)) {
            Ok(()) => self.sync_dir(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(os_err("remove", file, e)),
        }
    }
}

// -------------------------------------------------- in-memory + faults --

/// A pending fault: fire after `after` more counted operations.
#[derive(Debug, Clone, Copy)]
struct FaultPlan {
    /// Counted (mutating) operations left before the fault fires.
    after: u64,
    /// When the faulted operation is an `append`, persist this many bytes
    /// of it before dying — the torn-tail knob.
    tear_bytes: usize,
}

#[derive(Debug, Default)]
struct MemInner {
    files: HashMap<String, Vec<u8>>,
    plan: Option<FaultPlan>,
    /// Set once a fault fired: the "process" is dead, every further
    /// mutation fails (recovery clears this via [`MemStorage::revive`]).
    dead: bool,
    fail_sync: bool,
    faults_fired: u64,
    /// Per-file length at the last successful `sync` (atomically written
    /// files count as synced in full) — the durable prefix a
    /// power-loss crash image keeps.
    synced_len: HashMap<String, usize>,
    sync_calls: u64,
}

/// In-memory [`DurableStorage`] with fault injection: the crash-recovery
/// harness. Configure a kill point with [`fail_after`](MemStorage::fail_after)
/// (optionally tearing the fatal append), or make `sync` fail with
/// [`set_fail_sync`](MemStorage::set_fail_sync); inspect and mutate the
/// surviving bytes with [`file`](MemStorage::file) /
/// [`truncate_file`](MemStorage::truncate_file) /
/// [`flip_byte`](MemStorage::flip_byte), and resurrect the namespace for
/// recovery with [`revive`](MemStorage::revive).
#[derive(Debug, Default)]
pub struct MemStorage {
    /// Poison is recovered (`crate::sync`): a section's only panics are
    /// allocation failures, which abort, so no holder unwinds mid-change.
    inner: Mutex<MemInner>,
}

impl MemStorage {
    /// An empty namespace with no faults planned.
    pub fn new() -> Self {
        Self::default()
    }

    /// A namespace pre-populated with `files` — typically a crash image
    /// captured from another `MemStorage`.
    pub fn from_files(files: HashMap<String, Vec<u8>>) -> Self {
        // An image handed to a fresh namespace is, by definition, what
        // survived: everything in it counts as durable.
        let synced_len = files.iter().map(|(k, v)| (k.clone(), v.len())).collect();
        MemStorage {
            inner: Mutex::new(MemInner {
                files,
                synced_len,
                ..Default::default()
            }),
        }
    }

    /// Plans a kill: after `after` more successful mutating operations
    /// (`append`, `write_atomic`, `remove`, and `sync`), the next one
    /// fails. If the fatal operation is an `append`, `tear_bytes` of its
    /// payload are persisted first (a torn tail). After the fault fires,
    /// every further mutation fails until [`revive`](Self::revive).
    pub fn fail_after(&self, after: u64, tear_bytes: usize) {
        let mut inner = sync::lock(&self.inner);
        inner.plan = Some(FaultPlan { after, tear_bytes });
    }

    /// Makes every `sync` fail (without killing the storage) until turned
    /// off — models an fsync error the kernel reports but the file data
    /// having been written.
    pub fn set_fail_sync(&self, fail: bool) {
        sync::lock(&self.inner).fail_sync = fail;
    }

    /// Clears the dead flag and any pending fault plan: the "restarted
    /// process" sees exactly the bytes the crash left behind.
    pub fn revive(&self) {
        let mut inner = sync::lock(&self.inner);
        inner.dead = false;
        inner.plan = None;
        inner.fail_sync = false;
    }

    /// Number of injected faults that have fired so far.
    pub fn faults_fired(&self) -> u64 {
        sync::lock(&self.inner).faults_fired
    }

    /// A copy of one file's bytes, if present.
    pub fn file(&self, name: &str) -> Option<Vec<u8>> {
        sync::lock(&self.inner).files.get(name).cloned()
    }

    /// A copy of the whole namespace (a crash image). Models a crash
    /// where the page cache survived (or every append was written
    /// through): un-synced appended bytes are still present. For the
    /// power-loss image that keeps only fsynced bytes, use
    /// [`synced_files`](Self::synced_files).
    pub fn files(&self) -> HashMap<String, Vec<u8>> {
        sync::lock(&self.inner).files.clone()
    }

    /// A power-loss crash image: every file truncated to its length at
    /// the last successful `sync` (atomically-written files count in
    /// full; never-synced append-only files come back empty). Group
    /// commit's relaxed guarantee is exactly that the bytes between this
    /// image and [`files`](Self::files) may be lost.
    pub fn synced_files(&self) -> HashMap<String, Vec<u8>> {
        let inner = sync::lock(&self.inner);
        inner
            .files
            .iter()
            .map(|(name, bytes)| {
                let keep = inner.synced_len.get(name).copied().unwrap_or(0);
                (name.clone(), bytes[..keep.min(bytes.len())].to_vec())
            })
            .collect()
    }

    /// Number of successful `sync` calls so far — the group-commit tests
    /// assert fsync cadence with this.
    pub fn sync_calls(&self) -> u64 {
        sync::lock(&self.inner).sync_calls
    }

    /// Truncates `name` to `len` bytes (no-op if shorter) — simulates a
    /// torn tail after the fact.
    pub fn truncate_file(&self, name: &str, len: usize) {
        let mut inner = sync::lock(&self.inner);
        if let Some(bytes) = inner.files.get_mut(name) {
            bytes.truncate(len);
        }
    }

    /// Flips every bit of byte `offset` in `name` — simulates media
    /// corruption.
    pub fn flip_byte(&self, name: &str, offset: usize) {
        let mut inner = sync::lock(&self.inner);
        if let Some(b) = inner.files.get_mut(name).and_then(|f| f.get_mut(offset)) {
            *b = !*b;
        }
    }

    /// Counts one mutating operation against the fault plan. Returns
    /// `Err` (and marks the storage dead) when the fault fires; the
    /// caller decides what partial effect (torn append) to apply first.
    fn count_op(inner: &mut MemInner, op: &'static str, file: &str) -> Result<Option<usize>> {
        if inner.dead {
            return Err(io_err(
                op,
                file,
                FaultKind::Permanent,
                "storage killed by injected fault",
            ));
        }
        if let Some(plan) = &mut inner.plan {
            if plan.after == 0 {
                let tear = plan.tear_bytes;
                inner.plan = None;
                inner.dead = true;
                inner.faults_fired += 1;
                return Ok(Some(tear));
            }
            plan.after -= 1;
        }
        Ok(None)
    }
}

impl DurableStorage for MemStorage {
    fn append(&self, file: &str, bytes: &[u8]) -> Result<()> {
        check_name("append", file)?;
        let mut inner = sync::lock(&self.inner);
        match Self::count_op(&mut inner, "append", file)? {
            Some(tear) => {
                let keep = tear.min(bytes.len());
                inner
                    .files
                    .entry(file.to_string())
                    .or_default()
                    .extend_from_slice(&bytes[..keep]);
                Err(io_err(
                    "append",
                    file,
                    FaultKind::Permanent,
                    "killed mid-append by injected fault",
                ))
            }
            None => {
                inner
                    .files
                    .entry(file.to_string())
                    .or_default()
                    .extend_from_slice(bytes);
                Ok(())
            }
        }
    }

    fn sync(&self, file: &str) -> Result<()> {
        check_name("sync", file)?;
        let mut inner = sync::lock(&self.inner);
        if inner.fail_sync {
            return Err(io_err(
                "sync",
                file,
                FaultKind::Permanent,
                "fsync failure injected",
            ));
        }
        if Self::count_op(&mut inner, "sync", file)?.is_some() {
            return Err(io_err(
                "sync",
                file,
                FaultKind::Permanent,
                "killed at fsync by injected fault",
            ));
        }
        let len = inner.files.get(file).map_or(0, Vec::len);
        inner.synced_len.insert(file.to_string(), len);
        inner.sync_calls += 1;
        Ok(())
    }

    fn write_atomic(&self, file: &str, content: &[u8]) -> Result<()> {
        check_name("write_atomic", file)?;
        let mut inner = sync::lock(&self.inner);
        if Self::count_op(&mut inner, "write_atomic", file)?.is_some() {
            // All-or-nothing: a killed atomic write leaves the old state.
            return Err(io_err(
                "write_atomic",
                file,
                FaultKind::Permanent,
                "killed by injected fault",
            ));
        }
        inner.files.insert(file.to_string(), content.to_vec());
        inner.synced_len.insert(file.to_string(), content.len());
        Ok(())
    }

    fn read(&self, file: &str) -> Result<Option<Vec<u8>>> {
        check_name("read", file)?;
        Ok(sync::lock(&self.inner).files.get(file).cloned())
    }

    fn list(&self) -> Result<Vec<String>> {
        Ok(sync::lock(&self.inner).files.keys().cloned().collect())
    }

    fn remove(&self, file: &str) -> Result<()> {
        check_name("remove", file)?;
        let mut inner = sync::lock(&self.inner);
        if Self::count_op(&mut inner, "remove", file)?.is_some() {
            // Crash before the unlink: the file survives.
            return Err(io_err(
                "remove",
                file,
                FaultKind::Permanent,
                "killed by injected fault",
            ));
        }
        inner.files.remove(file);
        inner.synced_len.remove(file);
        Ok(())
    }
}

// ------------------------------------------------- transient flakiness --

/// The operation classes a [`FlakyStorage`] fault schedule can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// [`DurableStorage::append`].
    Append,
    /// [`DurableStorage::sync`].
    Sync,
    /// [`DurableStorage::write_atomic`].
    WriteAtomic,
    /// [`DurableStorage::read`].
    Read,
    /// [`DurableStorage::list`].
    List,
    /// [`DurableStorage::remove`].
    Remove,
}

impl OpClass {
    /// Every op class, in declaration order — the chaos sweep iterates
    /// this.
    pub const ALL: [OpClass; 6] = [
        OpClass::Append,
        OpClass::Sync,
        OpClass::WriteAtomic,
        OpClass::Read,
        OpClass::List,
        OpClass::Remove,
    ];

    fn index(self) -> usize {
        match self {
            OpClass::Append => 0,
            OpClass::Sync => 1,
            OpClass::WriteAtomic => 2,
            OpClass::Read => 3,
            OpClass::List => 4,
            OpClass::Remove => 5,
        }
    }

    fn name(self) -> &'static str {
        match self {
            OpClass::Append => "append",
            OpClass::Sync => "sync",
            OpClass::WriteAtomic => "write_atomic",
            OpClass::Read => "read",
            OpClass::List => "list",
            OpClass::Remove => "remove",
        }
    }
}

/// One class's scripted fail-N-then-heal schedule: let `skip` more ops
/// succeed, fail the next `fail` transiently, then heal for good.
#[derive(Debug, Clone, Copy, Default)]
struct ClassScript {
    skip: u64,
    fail: u64,
}

#[derive(Debug, Default)]
struct FlakyState {
    scripts: [ClassScript; 6],
    /// Seeded background fault rate in basis points (of 10 000), applied
    /// to every op on top of the scripts.
    rate_bp: u32,
    seed: u64,
    /// Global op counter — the hash input for the background rate.
    ops: u64,
    faults_injected: u64,
}

/// SplitMix64: a tiny, high-quality mixing function — the deterministic
/// "coin" behind the seeded background fault rate.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`DurableStorage`] wrapper that injects *transient* faults on a
/// deterministic script — the harness for the retry / degraded-mode /
/// self-heal machinery in `fup_core`, complementing [`MemStorage`]'s
/// terminal kills.
///
/// Two knobs, composable:
///
/// * **Scripts** ([`fail_next`](Self::fail_next) /
///   [`fail_after`](Self::fail_after)): per [`OpClass`], let some ops
///   succeed, fail the next N transiently, then heal for good — the
///   "storage blip at exactly this point" schedule the chaos sweep
///   enumerates.
/// * **Background rate** ([`with_fault_rate`](Self::with_fault_rate)):
///   every op fails transiently with probability `rate_bp / 10 000`,
///   decided by hashing a seed with the global op counter — fully
///   deterministic for a given seed and op sequence.
///
/// Injected faults fire *before* the inner storage is touched, so a
/// failed attempt has **no partial effect** — retrying the identical
/// operation is always sound against this wrapper. (Torn partial writes
/// are `MemStorage`'s department.)
#[derive(Debug)]
pub struct FlakyStorage {
    inner: Arc<dyn DurableStorage>,
    /// Fault bookkeeping only. Poison is recovered (`crate::sync`): a
    /// holder updates counters and one script, none of which a panic can
    /// leave half-written in a way that matters.
    state: Mutex<FlakyState>,
}

impl FlakyStorage {
    /// Wraps `inner` with no faults scheduled.
    pub fn new(inner: Arc<dyn DurableStorage>) -> Self {
        FlakyStorage {
            inner,
            state: Mutex::new(FlakyState::default()),
        }
    }

    /// Wraps `inner` with a seeded background fault rate: each op fails
    /// transiently with probability `rate_bp / 10_000` (so `100` ≈ 1%),
    /// deterministically from `seed`.
    pub fn with_fault_rate(inner: Arc<dyn DurableStorage>, seed: u64, rate_bp: u32) -> Self {
        let s = Self::new(inner);
        {
            let mut state = sync::lock(&s.state);
            state.seed = seed;
            state.rate_bp = rate_bp.min(10_000);
        }
        s
    }

    /// The wrapped storage.
    pub fn inner(&self) -> &Arc<dyn DurableStorage> {
        &self.inner
    }

    /// Scripts `class`: the next `fail` ops fail transiently, then the
    /// class heals. Replaces any previous script for the class.
    pub fn fail_next(&self, class: OpClass, fail: u64) {
        self.fail_after(class, 0, fail);
    }

    /// Scripts `class`: let `skip` more ops succeed, then fail the next
    /// `fail` transiently, then heal. Replaces any previous script for
    /// the class.
    pub fn fail_after(&self, class: OpClass, skip: u64, fail: u64) {
        sync::lock(&self.state).scripts[class.index()] = ClassScript { skip, fail };
    }

    /// Number of transient faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        sync::lock(&self.state).faults_injected
    }

    /// `true` while any class still has scripted failures pending (its
    /// blip has not healed yet).
    pub fn script_pending(&self) -> bool {
        sync::lock(&self.state).scripts.iter().any(|s| s.fail > 0)
    }

    /// Decides whether this op faults; returns the injected error if so.
    fn gate(&self, class: OpClass, file: &str) -> Result<()> {
        let mut state = sync::lock(&self.state);
        let op_index = state.ops;
        state.ops += 1;
        let script = &mut state.scripts[class.index()];
        if script.skip > 0 {
            script.skip -= 1;
        } else if script.fail > 0 {
            script.fail -= 1;
            state.faults_injected += 1;
            return Err(io_err(
                class.name(),
                file,
                FaultKind::Transient,
                "scripted transient fault injected",
            ));
        }
        if state.rate_bp > 0
            && splitmix64(state.seed ^ op_index) % 10_000 < u64::from(state.rate_bp)
        {
            state.faults_injected += 1;
            return Err(io_err(
                class.name(),
                file,
                FaultKind::Transient,
                "background transient fault injected",
            ));
        }
        Ok(())
    }
}

impl DurableStorage for FlakyStorage {
    fn append(&self, file: &str, bytes: &[u8]) -> Result<()> {
        self.gate(OpClass::Append, file)?;
        self.inner.append(file, bytes)
    }

    fn sync(&self, file: &str) -> Result<()> {
        self.gate(OpClass::Sync, file)?;
        self.inner.sync(file)
    }

    fn write_atomic(&self, file: &str, content: &[u8]) -> Result<()> {
        self.gate(OpClass::WriteAtomic, file)?;
        self.inner.write_atomic(file, content)
    }

    fn read(&self, file: &str) -> Result<Option<Vec<u8>>> {
        self.gate(OpClass::Read, file)?;
        self.inner.read(file)
    }

    fn list(&self) -> Result<Vec<String>> {
        self.gate(OpClass::List, "")?;
        self.inner.list()
    }

    fn remove(&self, file: &str) -> Result<()> {
        self.gate(OpClass::Remove, file)?;
        self.inner.remove(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_appends_reads_and_lists() {
        let s = MemStorage::new();
        s.append("a", b"he").unwrap();
        s.append("a", b"llo").unwrap();
        s.sync("a").unwrap();
        s.write_atomic("b", b"world").unwrap();
        assert_eq!(s.read("a").unwrap().unwrap(), b"hello");
        assert_eq!(s.read("b").unwrap().unwrap(), b"world");
        assert_eq!(s.read("missing").unwrap(), None);
        let mut names = s.list().unwrap();
        names.sort();
        assert_eq!(names, vec!["a", "b"]);
        s.remove("a").unwrap();
        assert_eq!(s.read("a").unwrap(), None);
        s.remove("a").unwrap(); // idempotent
    }

    #[test]
    fn mem_fault_kills_and_tears() {
        let s = MemStorage::new();
        s.append("wal", b"aaaa").unwrap();
        // Fault after 1 more op, tearing 2 bytes of the fatal append.
        s.fail_after(1, 2);
        s.append("wal", b"bbbb").unwrap();
        let err = s.append("wal", b"cccc").unwrap_err();
        assert!(matches!(err, Error::Io { .. }));
        // The torn prefix survived; everything after the kill fails.
        assert_eq!(s.file("wal").unwrap(), b"aaaabbbbcc");
        assert!(s.append("wal", b"d").is_err());
        assert!(s.sync("wal").is_err());
        assert!(s.write_atomic("x", b"y").is_err());
        assert_eq!(s.faults_fired(), 1);
        // Reads still work (recovery inspects the crash image)...
        assert_eq!(s.read("wal").unwrap().unwrap(), b"aaaabbbbcc");
        // ...and revive restores a working namespace with the same bytes.
        s.revive();
        s.append("wal", b"d").unwrap();
        assert_eq!(s.file("wal").unwrap(), b"aaaabbbbccd");
    }

    #[test]
    fn mem_atomic_write_is_all_or_nothing_under_fault() {
        let s = MemStorage::new();
        s.write_atomic("ckpt", b"old").unwrap();
        s.fail_after(0, 0);
        assert!(s.write_atomic("ckpt", b"new-content").is_err());
        assert_eq!(s.file("ckpt").unwrap(), b"old");
    }

    #[test]
    fn mem_fail_sync_leaves_data_but_reports_error() {
        let s = MemStorage::new();
        s.set_fail_sync(true);
        s.append("wal", b"abc").unwrap();
        assert!(s.sync("wal").is_err());
        assert_eq!(s.file("wal").unwrap(), b"abc");
        s.set_fail_sync(false);
        s.sync("wal").unwrap();
    }

    #[test]
    fn mem_corruption_helpers() {
        let s = MemStorage::new();
        s.append("f", b"\x00\x01\x02\x03").unwrap();
        s.flip_byte("f", 1);
        assert_eq!(s.file("f").unwrap(), vec![0x00, 0xfe, 0x02, 0x03]);
        s.truncate_file("f", 2);
        assert_eq!(s.file("f").unwrap(), vec![0x00, 0xfe]);
        // Out-of-range offsets are ignored.
        s.flip_byte("f", 99);
        s.truncate_file("f", 99);
        assert_eq!(s.file("f").unwrap().len(), 2);
    }

    #[test]
    fn synced_files_keep_only_the_fsynced_prefix() {
        let s = MemStorage::new();
        s.append("wal", b"aaaa").unwrap();
        s.sync("wal").unwrap();
        s.append("wal", b"bbbb").unwrap(); // buffered, never synced
        s.write_atomic("ckpt", b"image").unwrap(); // atomically durable
        s.append("fresh", b"cccc").unwrap(); // never synced at all
        assert_eq!(s.sync_calls(), 1);

        let cache_alive = s.files();
        assert_eq!(cache_alive["wal"], b"aaaabbbb");

        let power_loss = s.synced_files();
        assert_eq!(power_loss["wal"], b"aaaa");
        assert_eq!(power_loss["ckpt"], b"image");
        assert_eq!(power_loss["fresh"], b"");

        // A later sync makes the buffered tail durable.
        s.sync("wal").unwrap();
        assert_eq!(s.synced_files()["wal"], b"aaaabbbb");

        // An image handed to a new namespace is durable in full.
        let restored = MemStorage::from_files(power_loss);
        assert_eq!(restored.synced_files()["wal"], b"aaaa");
    }

    #[test]
    fn flaky_scripts_fail_n_then_heal_per_class() {
        let mem = Arc::new(MemStorage::new());
        let s = FlakyStorage::new(mem);
        s.fail_next(OpClass::Append, 2);
        s.fail_after(OpClass::Sync, 1, 1);

        // Appends: two scripted transient failures, then healed for good.
        let e = s.append("wal", b"a").unwrap_err();
        assert!(e.is_transient());
        assert!(s.script_pending());
        assert!(s.append("wal", b"a").is_err());
        s.append("wal", b"a").unwrap();
        s.append("wal", b"b").unwrap();

        // Sync: one op skipped, the next fails, then healed.
        s.sync("wal").unwrap();
        assert!(s.sync("wal").unwrap_err().is_transient());
        s.sync("wal").unwrap();

        assert!(!s.script_pending());
        assert_eq!(s.faults_injected(), 3);
        // The failed attempts left no partial effect.
        assert_eq!(s.read("wal").unwrap().unwrap(), b"ab");
    }

    #[test]
    fn flaky_background_rate_is_deterministic_and_transient() {
        let run = |seed| {
            let s = FlakyStorage::with_fault_rate(Arc::new(MemStorage::new()), seed, 2_000);
            let mut outcomes = Vec::new();
            for i in 0..200u8 {
                outcomes.push(s.append("wal", &[i]).is_ok());
            }
            (outcomes, s.faults_injected())
        };
        let (a, faults_a) = run(7);
        let (b, faults_b) = run(7);
        let (c, _) = run(8);
        assert_eq!(a, b, "same seed, same op sequence, same faults");
        assert_eq!(faults_a, faults_b);
        assert!(faults_a > 0, "20% rate over 200 ops must fire");
        assert!(faults_a < 200, "and must not fire every time");
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn flaky_passthrough_delegates_everything() {
        let mem = Arc::new(MemStorage::new());
        let s = FlakyStorage::new(Arc::clone(&mem) as Arc<dyn DurableStorage>);
        s.append("wal", b"abc").unwrap();
        s.sync("wal").unwrap();
        s.write_atomic("ckpt", b"img").unwrap();
        assert_eq!(s.read("wal").unwrap().unwrap(), b"abc");
        let mut names = s.list().unwrap();
        names.sort();
        assert_eq!(names, vec!["ckpt", "wal"]);
        s.remove("ckpt").unwrap();
        assert_eq!(s.read("ckpt").unwrap(), None);
        assert_eq!(s.faults_injected(), 0);
        // The inner storage saw the real bytes.
        assert_eq!(mem.file("wal").unwrap(), b"abc");
    }

    #[test]
    fn names_with_separators_are_rejected() {
        let s = MemStorage::new();
        assert!(s.append("../evil", b"x").is_err());
        assert!(s.read("a/b").is_err());
        assert!(s.remove("..").is_err());
    }

    #[test]
    fn disk_storage_round_trips_in_temp_dir() {
        let dir = std::env::temp_dir().join(format!(
            "fup-storage-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let s = DiskStorage::open(&dir).unwrap();
        s.append("wal-0", b"abc").unwrap();
        s.append("wal-0", b"def").unwrap();
        s.sync("wal-0").unwrap();
        s.write_atomic("ckpt-0", b"manifest").unwrap();
        assert_eq!(s.read("wal-0").unwrap().unwrap(), b"abcdef");
        assert_eq!(s.read("ckpt-0").unwrap().unwrap(), b"manifest");
        assert_eq!(s.read("nope").unwrap(), None);
        let mut names = s.list().unwrap();
        names.sort();
        assert_eq!(names, vec!["ckpt-0", "wal-0"]);
        // Atomic replace, then append continues on the new inode.
        s.write_atomic("wal-0", b"reset").unwrap();
        s.append("wal-0", b"!").unwrap();
        assert_eq!(s.read("wal-0").unwrap().unwrap(), b"reset!");
        s.remove("wal-0").unwrap();
        assert_eq!(s.read("wal-0").unwrap(), None);
        s.remove("wal-0").unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}
