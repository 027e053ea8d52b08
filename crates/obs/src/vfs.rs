//! Fault-injectable virtual filesystem: the storage substrate every
//! durability path in the workspace goes through.
//!
//! The serving stack stakes correctness on disk durability — journals
//! promise "delivered ⇒ committed", checkpoints promise "previous file or
//! complete new one, never torn" — yet `std::fs` reports failure modes
//! (ENOSPC, short writes, failed fsync, rename errors, EINTR) that direct
//! call sites historically assumed away. This module turns those
//! assumptions into a tested contract:
//!
//! * [`Vfs`] / [`VfsFile`] — the narrow storage interface (atomic create,
//!   append + sync, read, rename, remove, list) with typed [`VfsError`]s
//!   classified transient vs fatal;
//! * [`StdVfs`] — the real filesystem, byte-for-byte the previous behavior;
//! * [`FaultVfs`] — a seeded injector wrapping any [`Vfs`] that produces
//!   short writes, ENOSPC, fsync failure, rename failure, EINTR-style
//!   transient errors, and read-back bit corruption on a deterministic
//!   per-op schedule, with an exact [`IoFaultLedger`] of what it did;
//! * [`RetryVfs`] — bounded-exponential-backoff retry for transient
//!   failures, typed fatal surfacing for the rest, and the `io.*` obs
//!   counters (`io.ops`, `io.retry`, `io.fatal`, `io.fault.<kind>`).
//!
//! The canonical stack is `RetryVfs(FaultVfs(StdVfs))` under chaos and
//! `RetryVfs(StdVfs)` in production (the process-global default, see
//! [`global`]/[`install`]). With that stack, every fault the injector
//! records in its ledger is observed exactly once by the retry layer (or,
//! for silent read corruption, counted by the injector itself at flip
//! time), so `IoFaultLedger` ↔ `io.fault.*` reconciliation is exact — the
//! `storage_chaos` smoke bin's core assertion.
//!
//! Determinism: the injection schedule is a pure function of the plan seed
//! and the per-op counter. Ops whose file name does not match the plan's
//! [`only`](FaultPlan::only) filter bypass injection *without consuming a
//! schedule slot*, so a plan scoped to (say) journal files produces an
//! identical fault sequence at any worker-pool width — journal appends
//! happen on the coordinator thread in committed order.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Duration;

use crate::metrics::{self, Counter};

// ---------------------------------------------------------------------------
// Fault taxonomy
// ---------------------------------------------------------------------------

/// Every fault kind the injector can produce (and the retry layer counts).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum IoFaultKind {
    /// A write persisted only a prefix of the buffer before failing — the
    /// torn-tail producer. Fatal: the prefix is on disk, so blind retry
    /// would duplicate bytes; recovery's checksum discipline handles it.
    ShortWrite,
    /// ENOSPC: the device is full. Fatal.
    NoSpace,
    /// `fsync`/`sync_data` reported failure: durability of everything
    /// written since the last successful sync is unknown. Fatal.
    SyncFailed,
    /// Atomic-replace rename failed; the destination still holds its
    /// previous content, the staged temp file is intact. Fatal (callers
    /// keep serving the previous file and retry at their own cadence).
    RenameFailed,
    /// EINTR-style transient failure: nothing was written/read. The only
    /// class [`RetryVfs`] retries.
    Transient,
    /// Read-back bit corruption: the read *succeeds* but one byte is
    /// flipped. Never surfaces as an error here — detection is the
    /// caller's checksum discipline (trailers, frame checksums, parsers).
    Corrupt,
}

impl IoFaultKind {
    /// All kinds, in ledger/counter index order.
    pub const ALL: [IoFaultKind; 6] = [
        IoFaultKind::ShortWrite,
        IoFaultKind::NoSpace,
        IoFaultKind::SyncFailed,
        IoFaultKind::RenameFailed,
        IoFaultKind::Transient,
        IoFaultKind::Corrupt,
    ];

    /// Stable snake_case label (ledger rendering, metric names).
    pub fn label(self) -> &'static str {
        match self {
            IoFaultKind::ShortWrite => "short_write",
            IoFaultKind::NoSpace => "no_space",
            IoFaultKind::SyncFailed => "sync",
            IoFaultKind::RenameFailed => "rename",
            IoFaultKind::Transient => "transient",
            IoFaultKind::Corrupt => "corrupt",
        }
    }

    /// Registered `io.fault.<label>` counter name.
    pub fn counter_name(self) -> &'static str {
        match self {
            IoFaultKind::ShortWrite => "io.fault.short_write",
            IoFaultKind::NoSpace => "io.fault.no_space",
            IoFaultKind::SyncFailed => "io.fault.sync",
            IoFaultKind::RenameFailed => "io.fault.rename",
            IoFaultKind::Transient => "io.fault.transient",
            IoFaultKind::Corrupt => "io.fault.corrupt",
        }
    }

    /// Whether [`RetryVfs`] retries this class (only [`Transient`]
    /// injections and real EINTR qualify — everything else either left
    /// partial state behind or reports a condition retry cannot fix).
    ///
    /// [`Transient`]: IoFaultKind::Transient
    pub fn is_transient(self) -> bool {
        matches!(self, IoFaultKind::Transient)
    }

    fn index(self) -> usize {
        match self {
            IoFaultKind::ShortWrite => 0,
            IoFaultKind::NoSpace => 1,
            IoFaultKind::SyncFailed => 2,
            IoFaultKind::RenameFailed => 3,
            IoFaultKind::Transient => 4,
            IoFaultKind::Corrupt => 5,
        }
    }
}

impl std::fmt::Display for IoFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a [`VfsError`] happened: a real OS error or an injected fault.
#[derive(Debug)]
pub enum VfsCause {
    /// A genuine operating-system error (kind plus rendered message).
    Os(std::io::ErrorKind, String),
    /// A fault injected by [`FaultVfs`].
    Injected(IoFaultKind),
}

/// Typed failure of one [`Vfs`] operation: which op, on which path, why.
#[derive(Debug)]
pub struct VfsError {
    /// The operation that failed (`"append"`, `"rename"`, …).
    pub op: &'static str,
    /// The path the operation targeted.
    pub path: PathBuf,
    /// OS error vs injected fault.
    pub cause: VfsCause,
}

impl VfsError {
    fn os(op: &'static str, path: &Path, e: std::io::Error) -> Self {
        Self { op, path: path.to_path_buf(), cause: VfsCause::Os(e.kind(), e.to_string()) }
    }

    fn injected(op: &'static str, path: &Path, kind: IoFaultKind) -> Self {
        Self { op, path: path.to_path_buf(), cause: VfsCause::Injected(kind) }
    }

    /// The injected fault kind, if this error came from [`FaultVfs`].
    pub fn fault(&self) -> Option<IoFaultKind> {
        match self.cause {
            VfsCause::Injected(k) => Some(k),
            VfsCause::Os(..) => None,
        }
    }

    /// Whether [`RetryVfs`] may retry this error (injected transient or
    /// real EINTR).
    pub fn is_transient(&self) -> bool {
        match self.cause {
            VfsCause::Injected(k) => k.is_transient(),
            VfsCause::Os(kind, _) => kind == std::io::ErrorKind::Interrupted,
        }
    }

    /// Whether the underlying condition is "file does not exist" (callers
    /// like the journal loader treat a missing log as empty).
    pub fn is_not_found(&self) -> bool {
        matches!(self.cause, VfsCause::Os(std::io::ErrorKind::NotFound, _))
    }
}

impl std::fmt::Display for VfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.cause {
            VfsCause::Os(_, msg) => {
                write!(f, "{} {}: {msg}", self.op, self.path.display())
            }
            VfsCause::Injected(k) => {
                write!(f, "{} {}: injected {k} fault", self.op, self.path.display())
            }
        }
    }
}

impl std::error::Error for VfsError {}

impl From<VfsError> for std::io::Error {
    fn from(e: VfsError) -> Self {
        let kind = match &e.cause {
            VfsCause::Os(kind, _) => *kind,
            VfsCause::Injected(IoFaultKind::NoSpace) => std::io::ErrorKind::StorageFull,
            VfsCause::Injected(IoFaultKind::Transient) => std::io::ErrorKind::Interrupted,
            VfsCause::Injected(_) => std::io::ErrorKind::Other,
        };
        std::io::Error::new(kind, e)
    }
}

// ---------------------------------------------------------------------------
// The trait
// ---------------------------------------------------------------------------

/// An open append-only file handle (journal logs, telemetry series).
pub trait VfsFile: Send {
    /// Append the whole buffer (or fail, possibly after a short write —
    /// see [`IoFaultKind::ShortWrite`]).
    fn append(&mut self, buf: &[u8]) -> Result<(), VfsError>;

    /// Flush file data to stable storage (`sync_data` semantics).
    fn sync(&mut self) -> Result<(), VfsError>;
}

/// The storage interface every durability path goes through. Implementors
/// must be shareable across threads; `Debug` is required so configs that
/// carry a vfs handle stay debuggable.
pub trait Vfs: std::fmt::Debug + Send + Sync {
    /// Open `path` for appending, creating it if missing.
    fn open_append(&self, path: &Path) -> Result<Box<dyn VfsFile>, VfsError>;

    /// Create/truncate `path` with `bytes` (no fsync, no atomicity — use
    /// [`create_atomic`](Self::create_atomic) for crash-safe replacement).
    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError>;

    /// Crash-safe replace: write `bytes` to a `.tmp` sibling, fsync it,
    /// and rename over `path`. On failure the final path still holds its
    /// previous content (or still does not exist); only the temp file may
    /// be damaged.
    fn create_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError>;

    /// Read the whole file.
    fn read(&self, path: &Path) -> Result<Vec<u8>, VfsError>;

    /// Rename `from` to `to` (same filesystem).
    fn rename(&self, from: &Path, to: &Path) -> Result<(), VfsError>;

    /// Remove a file.
    fn remove(&self, path: &Path) -> Result<(), VfsError>;

    /// File names (not full paths) of directory entries under `dir`.
    fn list(&self, dir: &Path) -> Result<Vec<String>, VfsError>;

    /// Create `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> Result<(), VfsError>;
}

/// Read a whole file as UTF-8 text (lossless requirement: non-UTF-8 bytes
/// are an error, mirroring `fs::read_to_string`).
pub fn read_to_string(vfs: &dyn Vfs, path: &Path) -> Result<String, VfsError> {
    let bytes = vfs.read(path)?;
    String::from_utf8(bytes).map_err(|e| VfsError {
        op: "read",
        path: path.to_path_buf(),
        cause: VfsCause::Os(std::io::ErrorKind::InvalidData, e.to_string()),
    })
}

// ---------------------------------------------------------------------------
// StdVfs: the real filesystem
// ---------------------------------------------------------------------------

/// The real filesystem — byte-for-byte the behavior durability paths had
/// when they called `std::fs` directly.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdVfs;

struct StdFile {
    file: std::fs::File,
    path: PathBuf,
}

impl VfsFile for StdFile {
    fn append(&mut self, buf: &[u8]) -> Result<(), VfsError> {
        use std::io::Write as _;
        self.file.write_all(buf).map_err(|e| VfsError::os("append", &self.path, e))
    }

    fn sync(&mut self) -> Result<(), VfsError> {
        self.file.sync_data().map_err(|e| VfsError::os("sync", &self.path, e))
    }
}

impl Vfs for StdVfs {
    fn open_append(&self, path: &Path) -> Result<Box<dyn VfsFile>, VfsError> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| VfsError::os("open_append", path, e))?;
        Ok(Box::new(StdFile { file, path: path.to_path_buf() }))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError> {
        std::fs::write(path, bytes).map_err(|e| VfsError::os("write", path, e))
    }

    fn create_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError> {
        use std::io::Write as _;
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)
                .map_err(|e| VfsError::os("create_atomic", &tmp, e))?;
            f.write_all(bytes).map_err(|e| VfsError::os("create_atomic", &tmp, e))?;
            f.sync_all().map_err(|e| VfsError::os("create_atomic", &tmp, e))?;
        }
        std::fs::rename(&tmp, path).map_err(|e| VfsError::os("create_atomic", path, e))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, VfsError> {
        std::fs::read(path).map_err(|e| VfsError::os("read", path, e))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), VfsError> {
        std::fs::rename(from, to).map_err(|e| VfsError::os("rename", from, e))
    }

    fn remove(&self, path: &Path) -> Result<(), VfsError> {
        std::fs::remove_file(path).map_err(|e| VfsError::os("remove", path, e))
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>, VfsError> {
        let rd = std::fs::read_dir(dir).map_err(|e| VfsError::os("list", dir, e))?;
        let mut out = Vec::new();
        for entry in rd {
            let entry = entry.map_err(|e| VfsError::os("list", dir, e))?;
            out.push(entry.file_name().to_string_lossy().into_owned());
        }
        out.sort_unstable();
        Ok(out)
    }

    fn create_dir_all(&self, dir: &Path) -> Result<(), VfsError> {
        std::fs::create_dir_all(dir).map_err(|e| VfsError::os("create_dir_all", dir, e))
    }
}

// ---------------------------------------------------------------------------
// FaultVfs: the seeded injector
// ---------------------------------------------------------------------------

/// What to inject and how often. Rates are per-op probabilities in
/// `[0, 1]`; the decision at schedule slot `i` is a pure function of
/// `(seed, i)`, so a plan replays identically.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Schedule seed.
    pub seed: u64,
    /// Per-kind injection probability, indexed like [`IoFaultKind::ALL`].
    pub rates: [f64; 6],
    /// File-name substring filter: only ops whose final path component
    /// contains one of these substrings are subject to injection (and
    /// consume schedule slots). Empty = every op is subject.
    pub only: Vec<String>,
    /// Stop injecting after this many faults (`0` = unlimited). Slots keep
    /// advancing, so the schedule prefix is unchanged by the cap.
    pub max_faults: u64,
}

impl FaultPlan {
    /// A plan with every rate zero (inject nothing) under `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed, rates: [0.0; 6], only: Vec::new(), max_faults: 0 }
    }

    /// Every kind at the same `rate`.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        Self { seed, rates: [rate; 6], only: Vec::new(), max_faults: 0 }
    }

    /// Set one kind's rate (builder style).
    pub fn with(mut self, kind: IoFaultKind, rate: f64) -> Self {
        self.rates[kind.index()] = rate;
        self
    }

    /// Restrict injection to paths whose file name contains any of
    /// `needles` (builder style).
    pub fn only_files(mut self, needles: &[&str]) -> Self {
        self.only = needles.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Cap the total number of injected faults (builder style).
    pub fn cap(mut self, max_faults: u64) -> Self {
        self.max_faults = max_faults;
        self
    }

    fn matches(&self, path: &Path) -> bool {
        if self.only.is_empty() {
            return true;
        }
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        self.only.iter().any(|needle| name.contains(needle))
    }
}

/// Exact record of what a [`FaultVfs`] did: how many ops consulted the
/// schedule and how many faults of each kind were injected.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IoFaultLedger {
    /// Ops that consumed a schedule slot (i.e. matched the path filter).
    pub ops: u64,
    /// Injected fault counts, indexed like [`IoFaultKind::ALL`].
    pub injected: [u64; 6],
}

impl IoFaultLedger {
    /// Injected count for one kind.
    pub fn count(&self, kind: IoFaultKind) -> u64 {
        self.injected[kind.index()]
    }

    /// Total faults injected across all kinds.
    pub fn total(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// One-line human rendering (`ops=N short_write=a no_space=b …`).
    pub fn render(&self) -> String {
        let mut out = format!("ops={}", self.ops);
        for kind in IoFaultKind::ALL {
            out.push_str(&format!(" {}={}", kind.label(), self.count(kind)));
        }
        out
    }
}

/// SplitMix64: the schedule's per-slot hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

struct FaultState {
    next_slot: u64,
    ledger: IoFaultLedger,
}

struct FaultCore {
    plan: FaultPlan,
    state: Mutex<FaultState>,
}

impl FaultCore {
    /// Consult the schedule for one op on `path`, restricted to the kinds
    /// that op can physically exhibit. Returns the injected kind plus the
    /// slot hash (for deterministic secondary choices like short-write
    /// prefix length).
    fn decide(&self, path: &Path, kinds: &[IoFaultKind]) -> (Option<IoFaultKind>, u64) {
        if !self.plan.matches(path) {
            return (None, 0);
        }
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let slot = st.next_slot;
        st.next_slot += 1;
        st.ledger.ops += 1;
        let h = splitmix64(self.plan.seed ^ slot.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        if self.plan.max_faults > 0 && st.ledger.total() >= self.plan.max_faults {
            return (None, h);
        }
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let mut cum = 0.0;
        for &kind in kinds {
            cum += self.plan.rates[kind.index()];
            if u < cum {
                st.ledger.injected[kind.index()] += 1;
                if kind == IoFaultKind::Corrupt {
                    // Corruption never surfaces as an error, so the retry
                    // layer cannot observe it; the injector counts it at
                    // flip time to keep reconciliation exact.
                    io_cells().fault[kind.index()].inc();
                }
                return (Some(kind), h);
            }
        }
        (None, h)
    }

    fn ledger(&self) -> IoFaultLedger {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).ledger.clone()
    }
}

impl std::fmt::Debug for FaultCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultCore").field("plan", &self.plan).finish_non_exhaustive()
    }
}

/// The seeded fault injector. Wraps any [`Vfs`]; cloning shares the
/// schedule and ledger, so keep a clone to read the [`ledger`] after
/// handing the injector into a stack.
///
/// [`ledger`]: FaultVfs::ledger
#[derive(Clone, Debug)]
pub struct FaultVfs {
    inner: Arc<dyn Vfs>,
    core: Arc<FaultCore>,
}

const APPEND_KINDS: &[IoFaultKind] =
    &[IoFaultKind::ShortWrite, IoFaultKind::NoSpace, IoFaultKind::Transient];
const SYNC_KINDS: &[IoFaultKind] = &[IoFaultKind::SyncFailed, IoFaultKind::Transient];
const RENAME_KINDS: &[IoFaultKind] = &[IoFaultKind::RenameFailed, IoFaultKind::Transient];
const READ_KINDS: &[IoFaultKind] = &[IoFaultKind::Corrupt, IoFaultKind::Transient];
const TRANSIENT_ONLY: &[IoFaultKind] = &[IoFaultKind::Transient];

impl FaultVfs {
    /// Wrap `inner` with the injection `plan`.
    pub fn new(inner: Arc<dyn Vfs>, plan: FaultPlan) -> Self {
        Self { inner, core: Arc::new(FaultCore { plan, state: Mutex::new(FaultState { next_slot: 0, ledger: IoFaultLedger::default() }) }) }
    }

    /// Snapshot the exact injection ledger.
    pub fn ledger(&self) -> IoFaultLedger {
        self.core.ledger()
    }
}

struct FaultFile {
    inner: Box<dyn VfsFile>,
    path: PathBuf,
    core: Arc<FaultCore>,
}

impl VfsFile for FaultFile {
    fn append(&mut self, buf: &[u8]) -> Result<(), VfsError> {
        match self.core.decide(&self.path, APPEND_KINDS) {
            (Some(IoFaultKind::ShortWrite), h) if !buf.is_empty() => {
                // Land a deterministic prefix, then fail — exactly what a
                // crash mid-append leaves behind.
                let k = ((h >> 17) % buf.len() as u64) as usize;
                let _ = self.inner.append(&buf[..k]);
                Err(VfsError::injected("append", &self.path, IoFaultKind::ShortWrite))
            }
            (Some(kind), _) => Err(VfsError::injected("append", &self.path, kind)),
            (None, _) => self.inner.append(buf),
        }
    }

    fn sync(&mut self) -> Result<(), VfsError> {
        match self.core.decide(&self.path, SYNC_KINDS) {
            (Some(kind), _) => Err(VfsError::injected("sync", &self.path, kind)),
            (None, _) => self.inner.sync(),
        }
    }
}

impl Vfs for FaultVfs {
    fn open_append(&self, path: &Path) -> Result<Box<dyn VfsFile>, VfsError> {
        if let (Some(kind), _) = self.core.decide(path, TRANSIENT_ONLY) {
            return Err(VfsError::injected("open_append", path, kind));
        }
        let inner = self.inner.open_append(path)?;
        Ok(Box::new(FaultFile { inner, path: path.to_path_buf(), core: Arc::clone(&self.core) }))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError> {
        match self.core.decide(path, APPEND_KINDS) {
            (Some(IoFaultKind::ShortWrite), h) if !bytes.is_empty() => {
                let k = ((h >> 17) % bytes.len() as u64) as usize;
                let _ = self.inner.write(path, &bytes[..k]);
                Err(VfsError::injected("write", path, IoFaultKind::ShortWrite))
            }
            (Some(kind), _) => Err(VfsError::injected("write", path, kind)),
            (None, _) => self.inner.write(path, bytes),
        }
    }

    fn create_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError> {
        // Three staged decisions mirror the protocol's phases. Every fault
        // confines damage to the temp sibling: the final path never holds
        // a prefix.
        let tmp = path.with_extension("tmp");
        match self.core.decide(path, APPEND_KINDS) {
            (Some(IoFaultKind::ShortWrite), h) if !bytes.is_empty() => {
                let k = ((h >> 17) % bytes.len() as u64) as usize;
                let _ = self.inner.write(&tmp, &bytes[..k]);
                return Err(VfsError::injected("create_atomic", path, IoFaultKind::ShortWrite));
            }
            (Some(kind), _) => {
                return Err(VfsError::injected("create_atomic", path, kind));
            }
            (None, _) => {}
        }
        if let (Some(kind), _) = self.core.decide(path, SYNC_KINDS) {
            let _ = self.inner.write(&tmp, bytes);
            return Err(VfsError::injected("create_atomic", path, kind));
        }
        if let (Some(kind), _) = self.core.decide(path, RENAME_KINDS) {
            let _ = self.inner.write(&tmp, bytes);
            return Err(VfsError::injected("create_atomic", path, kind));
        }
        self.inner.create_atomic(path, bytes)
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, VfsError> {
        match self.core.decide(path, READ_KINDS) {
            (Some(IoFaultKind::Corrupt), h) => {
                let mut bytes = self.inner.read(path)?;
                if !bytes.is_empty() {
                    let at = ((h >> 17) % bytes.len() as u64) as usize;
                    let bit = 1u8 << ((h >> 13) % 8);
                    bytes[at] ^= bit;
                }
                Ok(bytes)
            }
            (Some(kind), _) => Err(VfsError::injected("read", path, kind)),
            (None, _) => self.inner.read(path),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), VfsError> {
        match self.core.decide(from, RENAME_KINDS) {
            (Some(kind), _) => Err(VfsError::injected("rename", from, kind)),
            (None, _) => self.inner.rename(from, to),
        }
    }

    fn remove(&self, path: &Path) -> Result<(), VfsError> {
        match self.core.decide(path, TRANSIENT_ONLY) {
            (Some(kind), _) => Err(VfsError::injected("remove", path, kind)),
            (None, _) => self.inner.remove(path),
        }
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>, VfsError> {
        match self.core.decide(dir, TRANSIENT_ONLY) {
            (Some(kind), _) => Err(VfsError::injected("list", dir, kind)),
            (None, _) => self.inner.list(dir),
        }
    }

    fn create_dir_all(&self, dir: &Path) -> Result<(), VfsError> {
        match self.core.decide(dir, TRANSIENT_ONLY) {
            (Some(kind), _) => Err(VfsError::injected("create_dir_all", dir, kind)),
            (None, _) => self.inner.create_dir_all(dir),
        }
    }
}

// ---------------------------------------------------------------------------
// RetryVfs: bounded backoff for transient classes, counters for all
// ---------------------------------------------------------------------------

/// How [`RetryVfs`] retries transient failures.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts per op (first try included). Minimum 1.
    pub attempts: u32,
    /// Sleep before the first retry.
    pub base: Duration,
    /// Multiplier applied to the sleep after each retry.
    pub factor: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // 3 retries sleeping 200µs, 1ms, 5ms: transient blips clear, a
        // persistently failing device surfaces within ~7ms.
        Self { attempts: 4, base: Duration::from_micros(200), factor: 5 }
    }
}

struct IoCells {
    ops: &'static Counter,
    retry: &'static Counter,
    fatal: &'static Counter,
    os: &'static Counter,
    fault: [&'static Counter; 6],
}

fn io_cells() -> &'static IoCells {
    static CELLS: OnceLock<IoCells> = OnceLock::new();
    CELLS.get_or_init(|| IoCells {
        ops: metrics::counter("io.ops"),
        retry: metrics::counter("io.retry"),
        fatal: metrics::counter("io.fatal"),
        os: metrics::counter("io.fault.os"),
        fault: [
            metrics::counter(IoFaultKind::ShortWrite.counter_name()),
            metrics::counter(IoFaultKind::NoSpace.counter_name()),
            metrics::counter(IoFaultKind::SyncFailed.counter_name()),
            metrics::counter(IoFaultKind::RenameFailed.counter_name()),
            metrics::counter(IoFaultKind::Transient.counter_name()),
            metrics::counter(IoFaultKind::Corrupt.counter_name()),
        ],
    })
}

/// Cumulative `io.fault.<kind>` counter value (reconciliation helper for
/// tests and the chaos bin — take a before/after delta per schedule).
pub fn fault_counter(kind: IoFaultKind) -> u64 {
    io_cells().fault[kind.index()].get()
}

fn observe_error(e: &VfsError) {
    match e.fault() {
        Some(kind) => io_cells().fault[kind.index()].inc(),
        None => io_cells().os.inc(),
    }
}

fn with_retry<T>(
    policy: &RetryPolicy,
    mut f: impl FnMut() -> Result<T, VfsError>,
) -> Result<T, VfsError> {
    let cells = io_cells();
    cells.ops.inc();
    let attempts = policy.attempts.max(1);
    let mut delay = policy.base;
    let mut attempt = 0u32;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) => {
                observe_error(&e);
                attempt += 1;
                if e.is_transient() && attempt < attempts {
                    cells.retry.inc();
                    std::thread::sleep(delay);
                    delay = delay.saturating_mul(policy.factor);
                } else {
                    cells.fatal.inc();
                    return Err(e);
                }
            }
        }
    }
}

/// Retry layer: transient failures back off and retry (bounded), fatal
/// classes surface typed, every surfaced inner error bumps its
/// `io.fault.<kind>` counter (`io.fault.os` for real OS errors) and every
/// op bumps `io.ops`. Short writes are *not* retried — the prefix already
/// landed, so a blind retry would duplicate bytes; the checksum discipline
/// downstream owns that case.
#[derive(Clone, Debug)]
pub struct RetryVfs {
    inner: Arc<dyn Vfs>,
    policy: RetryPolicy,
}

impl RetryVfs {
    /// Wrap `inner` with the default policy.
    pub fn new(inner: Arc<dyn Vfs>) -> Self {
        Self { inner, policy: RetryPolicy::default() }
    }

    /// Wrap `inner` with an explicit policy.
    pub fn with_policy(inner: Arc<dyn Vfs>, policy: RetryPolicy) -> Self {
        Self { inner, policy }
    }
}

struct RetryFile {
    inner: Box<dyn VfsFile>,
    policy: RetryPolicy,
}

impl VfsFile for RetryFile {
    fn append(&mut self, buf: &[u8]) -> Result<(), VfsError> {
        with_retry(&self.policy, || self.inner.append(buf))
    }

    fn sync(&mut self) -> Result<(), VfsError> {
        with_retry(&self.policy, || self.inner.sync())
    }
}

impl Vfs for RetryVfs {
    fn open_append(&self, path: &Path) -> Result<Box<dyn VfsFile>, VfsError> {
        let inner = with_retry(&self.policy, || self.inner.open_append(path))?;
        Ok(Box::new(RetryFile { inner, policy: self.policy }))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError> {
        with_retry(&self.policy, || self.inner.write(path, bytes))
    }

    fn create_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError> {
        with_retry(&self.policy, || self.inner.create_atomic(path, bytes))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, VfsError> {
        with_retry(&self.policy, || self.inner.read(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), VfsError> {
        with_retry(&self.policy, || self.inner.rename(from, to))
    }

    fn remove(&self, path: &Path) -> Result<(), VfsError> {
        with_retry(&self.policy, || self.inner.remove(path))
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>, VfsError> {
        with_retry(&self.policy, || self.inner.list(dir))
    }

    fn create_dir_all(&self, dir: &Path) -> Result<(), VfsError> {
        with_retry(&self.policy, || self.inner.create_dir_all(dir))
    }
}

// ---------------------------------------------------------------------------
// The process-global default stack
// ---------------------------------------------------------------------------

fn default_stack() -> Arc<dyn Vfs> {
    Arc::new(RetryVfs::new(Arc::new(StdVfs)))
}

fn slot() -> &'static RwLock<Arc<dyn Vfs>> {
    static SLOT: OnceLock<RwLock<Arc<dyn Vfs>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(default_stack()))
}

/// The process-global vfs every durability path uses unless handed an
/// explicit handle. Defaults to `RetryVfs(StdVfs)`.
pub fn global() -> Arc<dyn Vfs> {
    slot().read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Replace the process-global vfs (the chaos harness installs
/// `RetryVfs(FaultVfs(StdVfs))` here). Returns the previous stack so
/// callers can restore it. Not for concurrent use from tests — prefer
/// explicit handles (`ServeConfig::vfs`, `*_with` function variants) there.
pub fn install(vfs: Arc<dyn Vfs>) -> Arc<dyn Vfs> {
    let mut guard = slot().write().unwrap_or_else(|e| e.into_inner());
    std::mem::replace(&mut *guard, vfs)
}

/// Reset the process-global vfs to the default `RetryVfs(StdVfs)` stack.
pub fn reset() {
    install(default_stack());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `io.fault.*` counters are process-global, so every test that
    /// injects faults holds this lock: `ledger_reconciles_with_fault_counters`
    /// must see only its own faults in the counter deltas.
    fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tpgnn-vfs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn std_vfs_roundtrips_every_op() {
        let dir = tmpdir("std");
        let v = StdVfs;
        let p = dir.join("a.txt");
        v.write(&p, b"hello").unwrap();
        assert_eq!(v.read(&p).unwrap(), b"hello");
        let mut f = v.open_append(&p).unwrap();
        f.append(b" world").unwrap();
        f.sync().unwrap();
        drop(f);
        assert_eq!(v.read(&p).unwrap(), b"hello world");
        let q = dir.join("b.txt");
        v.rename(&p, &q).unwrap();
        assert!(v.read(&p).is_err());
        v.create_atomic(&p, b"atomic").unwrap();
        assert!(!p.with_extension("tmp").exists());
        let mut names = v.list(&dir).unwrap();
        names.sort();
        assert_eq!(names, vec!["a.txt".to_string(), "b.txt".to_string()]);
        v.remove(&q).unwrap();
        assert_eq!(v.list(&dir).unwrap(), vec!["a.txt".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let _faults = fault_lock();
        let dir = tmpdir("det");
        let run = |seed: u64| -> (IoFaultLedger, Vec<bool>) {
            let fault = FaultVfs::new(Arc::new(StdVfs), FaultPlan::uniform(seed, 0.1));
            let mut oks = Vec::new();
            for i in 0..50 {
                let p = dir.join(format!("f{i}.txt"));
                oks.push(fault.write(&p, b"payload-bytes-here").is_ok());
            }
            (fault.ledger(), oks)
        };
        let (l1, o1) = run(7);
        let (l2, o2) = run(7);
        let (l3, _) = run(8);
        assert_eq!(l1, l2);
        assert_eq!(o1, o2);
        assert_ne!(l1, l3, "different seeds must produce different schedules");
        assert_eq!(l1.ops, 50);
        assert!(l1.total() > 0, "rate 0.1 over 50 ops should inject something: {}", l1.render());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn path_filter_skips_non_matching_ops_without_consuming_slots() {
        let _faults = fault_lock();
        let dir = tmpdir("filter");
        let plan = FaultPlan::uniform(3, 1.0).only_files(&["target-"]);
        let fault = FaultVfs::new(Arc::new(StdVfs), plan);
        // Non-matching ops succeed and advance nothing.
        for i in 0..10 {
            fault.write(&dir.join(format!("other-{i}.txt")), b"x").unwrap();
        }
        assert_eq!(fault.ledger().ops, 0);
        // Matching op consumes slot 0 and faults (rate 1.0).
        assert!(fault.write(&dir.join("target-1.txt"), b"x").is_err());
        assert_eq!(fault.ledger().ops, 1);
        assert_eq!(fault.ledger().total(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_write_lands_a_prefix_and_fails() {
        let _faults = fault_lock();
        let dir = tmpdir("short");
        let plan = FaultPlan::new(11).with(IoFaultKind::ShortWrite, 1.0);
        let fault = FaultVfs::new(Arc::new(StdVfs), plan);
        let p = dir.join("log.txt");
        let mut f = fault.open_append(&p).unwrap(); // open is transient-only, rate 0
        let err = f.append(b"0123456789abcdef").unwrap_err();
        assert_eq!(err.fault(), Some(IoFaultKind::ShortWrite));
        let on_disk = std::fs::read(&p).unwrap();
        assert!(on_disk.len() < 16, "short write must not land the full buffer");
        assert_eq!(&b"0123456789abcdef"[..on_disk.len()], &on_disk[..]);
        assert_eq!(fault.ledger().count(IoFaultKind::ShortWrite), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_read_flips_exactly_one_bit() {
        let _faults = fault_lock();
        let dir = tmpdir("corrupt");
        let p = dir.join("blob.bin");
        StdVfs.write(&p, b"immaculate-bytes").unwrap();
        let plan = FaultPlan::new(5).with(IoFaultKind::Corrupt, 1.0);
        let fault = FaultVfs::new(Arc::new(StdVfs), plan);
        let got = fault.read(&p).unwrap();
        assert_ne!(got, b"immaculate-bytes");
        let diff: u32 = got
            .iter()
            .zip(b"immaculate-bytes")
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1, "exactly one bit flipped");
        assert_eq!(fault.ledger().count(IoFaultKind::Corrupt), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_atomic_faults_never_touch_the_final_path() {
        let _faults = fault_lock();
        let dir = tmpdir("atomic");
        let p = dir.join("state.ckpt");
        StdVfs.write(&p, b"previous-generation").unwrap();
        for seed in 0..64u64 {
            let plan = FaultPlan::uniform(seed, 0.25);
            let fault = FaultVfs::new(Arc::new(StdVfs), plan);
            let res = fault.create_atomic(&p, b"next-generation");
            let now = std::fs::read(&p).unwrap();
            match res {
                Ok(()) => assert_eq!(now, b"next-generation"),
                Err(_) => assert_eq!(
                    now, b"previous-generation",
                    "seed {seed}: fault left a partial file at the final path"
                ),
            }
            // Restore for the next seed.
            StdVfs.write(&p, b"previous-generation").unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_clears_transient_faults_and_surfaces_fatal_ones() {
        let _faults = fault_lock();
        let dir = tmpdir("retry");
        // Transient at 100% for the first fault only: attempt 1 faults,
        // attempt 2 passes (cap reached) — the caller never sees an error.
        let plan = FaultPlan::new(2).with(IoFaultKind::Transient, 1.0).cap(1);
        let fault = FaultVfs::new(Arc::new(StdVfs), plan);
        let retry_before = io_cells().retry.get();
        let stack = RetryVfs::with_policy(
            Arc::new(fault.clone()),
            RetryPolicy { attempts: 4, base: Duration::from_micros(10), factor: 2 },
        );
        let p = dir.join("x.txt");
        stack.write(&p, b"made it").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"made it");
        assert_eq!(fault.ledger().count(IoFaultKind::Transient), 1);
        assert!(io_cells().retry.get() > retry_before);

        // ENOSPC is fatal: no retry, typed surfacing.
        let plan = FaultPlan::new(3).with(IoFaultKind::NoSpace, 1.0);
        let fault = FaultVfs::new(Arc::new(StdVfs), plan);
        let stack = RetryVfs::with_policy(
            Arc::new(fault.clone()),
            RetryPolicy { attempts: 4, base: Duration::from_micros(10), factor: 2 },
        );
        let err = stack.write(&dir.join("y.txt"), b"nope").unwrap_err();
        assert_eq!(err.fault(), Some(IoFaultKind::NoSpace));
        assert!(!err.is_transient());
        assert_eq!(fault.ledger().count(IoFaultKind::NoSpace), 1, "fatal = exactly one attempt");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ledger_reconciles_with_fault_counters() {
        let _faults = fault_lock();
        let dir = tmpdir("reconcile");
        let before: Vec<u64> = IoFaultKind::ALL.iter().map(|&k| fault_counter(k)).collect();
        let plan = FaultPlan::uniform(41, 0.15);
        let fault = FaultVfs::new(Arc::new(StdVfs), plan);
        let stack = RetryVfs::with_policy(
            Arc::new(fault.clone()),
            RetryPolicy { attempts: 3, base: Duration::from_micros(10), factor: 2 },
        );
        for i in 0..40 {
            let p = dir.join(format!("r{i}.txt"));
            let _ = stack.create_atomic(&p, b"some checkpoint body");
            let _ = stack.read(&p);
        }
        let ledger = fault.ledger();
        assert!(ledger.total() > 0, "{}", ledger.render());
        for (i, &kind) in IoFaultKind::ALL.iter().enumerate() {
            let delta = fault_counter(kind) - before[i];
            assert_eq!(
                delta,
                ledger.count(kind),
                "kind {kind}: counter delta {delta} vs ledger {} ({})",
                ledger.count(kind),
                ledger.render()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn not_found_is_detectable_and_error_converts_to_io() {
        let e = StdVfs.read(Path::new("/definitely/not/here.txt")).unwrap_err();
        assert!(e.is_not_found());
        let io: std::io::Error = e.into();
        assert_eq!(io.kind(), std::io::ErrorKind::NotFound);
        let inj = VfsError::injected("write", Path::new("x"), IoFaultKind::NoSpace);
        let io: std::io::Error = inj.into();
        assert_eq!(io.kind(), std::io::ErrorKind::StorageFull);
    }

    #[test]
    fn global_slot_installs_and_resets() {
        // Serialize against other tests by doing the whole dance quickly;
        // the slot is process-global.
        let prev = install(Arc::new(StdVfs));
        let g = global();
        assert!(format!("{g:?}").contains("StdVfs"));
        install(prev);
        let g = global();
        assert!(format!("{g:?}").contains("RetryVfs") || format!("{g:?}").contains("StdVfs"));
    }
}
