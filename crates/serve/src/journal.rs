//! Per-shard append-only session journal with group commit.
//!
//! Durability protocol (write-ahead of *delivery*, not of processing): a
//! batch is processed in memory first, then every frame it produced —
//! events, scores, faults, watchdog verdicts — is appended to the owning
//! shard's log and fsynced, and only then is a commit frame appended to
//! `commit.log` and fsynced. `ingest` returns after the commit, so a batch
//! the caller has seen results for is always on disk, and a batch that is
//! on disk without a commit frame is one the caller never saw — the driver
//! re-feeds it after recovery. Crash at any point therefore loses no
//! delivered result and double-reports none.
//!
//! Frames are single lines `<fnv1a-hex16> <payload>`; a torn tail (partial
//! final write after `kill -9`) fails its checksum and is dropped and
//! counted, while a *valid* frame after an invalid one means real mid-file
//! corruption and is a hard [`ServeError::Invariant`].
//!
//! Every frame carries the deterministic trace id of its (session, batch)
//! — explicitly on `R`/`E`/`W` frames, embedded in the score/fault payload
//! on `S`/`F` — and [`load`] verifies each id against
//! [`crate::trace_id`], so a frame that drifted to the wrong batch or
//! session is caught as corruption, and the `obs_report` tool can join
//! journal history to trace spans on the id alone. The read side
//! ([`load`], [`Frame`], [`Commit`]) is public for such tools; the staged
//! write path stays inside the crate.

use std::path::{Path, PathBuf};

use tpgnn_graph::NodeFeatures;
use tpgnn_obs::codec::parse_num;
use tpgnn_obs::vfs::{self, Vfs, VfsFile};
use tpgnn_tensor::ckpt::fnv1a;

use crate::error::{ServeError, SessionFault};
use crate::wire;
use crate::{ScoreRecord, SessionEvent};

/// What kind of batch a commit frame closes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchKind {
    /// A normal `ingest` batch.
    Ingest,
    /// A `close_all` sweep (no events; watermark forced to +inf).
    CloseAll,
}

impl BatchKind {
    fn tag(self) -> &'static str {
        match self {
            BatchKind::Ingest => "i",
            BatchKind::CloseAll => "z",
        }
    }

    fn from_tag(s: &str) -> Result<Self, String> {
        match s {
            "i" => Ok(BatchKind::Ingest),
            "z" => Ok(BatchKind::CloseAll),
            other => Err(format!("unknown batch kind `{other}`")),
        }
    }
}

/// One parsed shard-log frame.
#[derive(Clone, Debug)]
pub enum Frame {
    /// Features registered ahead of `batch`.
    Register {
        /// 1-based batch the registration rides with.
        batch: usize,
        /// Registering session.
        session: u64,
        /// Trace id of the (session, batch), verified on load.
        trace: u64,
        /// The declared node features.
        features: NodeFeatures,
    },
    /// One event of `batch`, with its global arrival index within the batch.
    Event {
        /// 1-based batch the event was offered in.
        batch: usize,
        /// Arrival index within the batch (replay restores offer order).
        arrival: usize,
        /// Trace id of the (session, batch), verified on load.
        trace: u64,
        /// The offered event.
        event: SessionEvent,
    },
    /// One score this shard emitted for `batch`, in emission order.
    Score {
        /// 1-based batch the score was delivered in.
        batch: usize,
        /// The delivered record (carries its own trace id).
        record: ScoreRecord,
    },
    /// One fault this shard recorded for `batch`, in ledger order.
    Fault {
        /// 1-based batch the fault was recorded in.
        batch: usize,
        /// The ledger entry (carries its own trace id).
        fault: SessionFault,
    },
    /// A watchdog poisoning verdict (the one wall-clock decision; replay
    /// applies it verbatim instead of re-measuring).
    Watchdog {
        /// 1-based batch the verdict was taken in.
        batch: usize,
        /// The quarantined session.
        session: u64,
        /// Trace id of the (session, batch), verified on load.
        trace: u64,
        /// The measured per-batch wall time that blew the deadline.
        elapsed_us: u64,
    },
}

impl Frame {
    /// The batch this frame belongs to.
    pub fn batch(&self) -> usize {
        match self {
            Frame::Register { batch, .. }
            | Frame::Event { batch, .. }
            | Frame::Score { batch, .. }
            | Frame::Fault { batch, .. }
            | Frame::Watchdog { batch, .. } => *batch,
        }
    }

    /// The deterministic trace id this frame carries.
    pub fn trace(&self) -> u64 {
        match self {
            Frame::Register { trace, .. }
            | Frame::Event { trace, .. }
            | Frame::Watchdog { trace, .. } => *trace,
            Frame::Score { record, .. } => record.trace,
            Frame::Fault { fault, .. } => fault.trace,
        }
    }

    /// The session this frame concerns.
    pub fn session(&self) -> u64 {
        match self {
            Frame::Register { session, .. } | Frame::Watchdog { session, .. } => *session,
            Frame::Event { event, .. } => event.session,
            Frame::Score { record, .. } => record.session,
            Frame::Fault { fault, .. } => fault.session,
        }
    }
}

/// One parsed commit frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Commit {
    /// 1-based batch index this commit seals.
    pub batch: usize,
    /// Ingest vs close-all.
    pub kind: BatchKind,
    /// Events offered in the batch (replay cross-checks the count).
    pub events: usize,
}

/// Everything read back from a journal directory.
pub struct JournalData {
    /// Per-shard frames, in append order, committed batches only.
    pub shards: Vec<Vec<Frame>>,
    /// Commit frames in order; the last one is the recovery horizon.
    pub commits: Vec<Commit>,
    /// Torn tail lines dropped across all files (counted, not silent).
    pub torn_frames: usize,
}

/// The write side: per-shard append handles plus the commit log. All I/O
/// goes through the server's [`Vfs`] handle, so injected faults and
/// retries cover the entire durability protocol.
pub(crate) struct Journal {
    dir: PathBuf,
    shard_files: Vec<Box<dyn VfsFile>>,
    commit_file: Box<dyn VfsFile>,
    /// Frames staged for the in-flight batch, per shard.
    pending: Vec<Vec<String>>,
}

/// Path of one shard's append-only log under `dir`.
pub fn shard_log_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.log"))
}

/// Path of the commit log under `dir`.
pub fn commit_log_path(dir: &Path) -> PathBuf {
    dir.join("commit.log")
}

/// Path of the full-server snapshot taken at `batch` under `dir`.
pub fn snapshot_path(dir: &Path, batch: usize) -> PathBuf {
    dir.join(format!("snap-{batch}.ckpt"))
}

fn frame_line(payload: &str) -> String {
    format!("{:016x} {payload}\n", fnv1a(payload.as_bytes()))
}

impl Journal {
    /// Open (creating if needed) the journal under `dir` for `num_shards`
    /// shards through `vfs`. Existing logs are appended to, which is what
    /// recovery wants.
    pub(crate) fn open(vfs: &dyn Vfs, dir: &Path, num_shards: usize) -> Result<Self, ServeError> {
        vfs.create_dir_all(dir)?;
        let mut shard_files = Vec::with_capacity(num_shards);
        for i in 0..num_shards {
            shard_files.push(vfs.open_append(&shard_log_path(dir, i))?);
        }
        let commit_file = vfs.open_append(&commit_log_path(dir))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            shard_files,
            commit_file,
            pending: (0..num_shards).map(|_| Vec::new()).collect(),
        })
    }

    /// The journal directory (snapshots and spill files live beside logs).
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    pub(crate) fn stage_register(
        &mut self,
        shard: usize,
        batch: usize,
        session: u64,
        features: &NodeFeatures,
    ) {
        let trace = crate::trace_hex(crate::trace_id(session, batch));
        self.pending[shard]
            .push(format!("R {batch} {trace} {}", wire::fmt_features(session, features)));
    }

    pub(crate) fn stage_event(
        &mut self,
        shard: usize,
        batch: usize,
        arrival: usize,
        se: &SessionEvent,
    ) {
        let trace = crate::trace_hex(crate::trace_id(se.session, batch));
        self.pending[shard]
            .push(format!("E {batch} {arrival} {trace} {}", wire::fmt_event(se)));
    }

    pub(crate) fn stage_score(&mut self, shard: usize, batch: usize, record: &ScoreRecord) {
        self.pending[shard].push(format!("S {batch} {}", wire::fmt_record(record)));
    }

    pub(crate) fn stage_fault(&mut self, shard: usize, batch: usize, fault: &SessionFault) {
        self.pending[shard].push(format!("F {batch} {}", wire::fmt_fault(fault)));
    }

    pub(crate) fn stage_watchdog(
        &mut self,
        shard: usize,
        batch: usize,
        session: u64,
        elapsed_us: u64,
    ) {
        let trace = crate::trace_hex(crate::trace_id(session, batch));
        self.pending[shard].push(format!("W {batch} {trace} {session} {elapsed_us}"));
    }

    /// Flush every staged frame to its shard log (fsync each touched file),
    /// then append and fsync the commit frame. Only after this returns may
    /// the batch's results be handed to the caller. On failure every staged
    /// frame of the batch is discarded — the batch is uncommitted and must
    /// not leak frames into a later commit's block (recovery would see a
    /// commit-log gap).
    pub(crate) fn commit(
        &mut self,
        batch: usize,
        kind: BatchKind,
        events: usize,
    ) -> Result<(), ServeError> {
        let result = self.commit_inner(batch, kind, events);
        if result.is_err() {
            self.abort_batch();
        }
        result
    }

    fn commit_inner(
        &mut self,
        batch: usize,
        kind: BatchKind,
        events: usize,
    ) -> Result<(), ServeError> {
        for (i, frames) in self.pending.iter_mut().enumerate() {
            if frames.is_empty() {
                continue;
            }
            let mut block = String::new();
            for payload in frames.iter() {
                block.push_str(&frame_line(payload));
            }
            self.shard_files[i].append(block.as_bytes())?;
            self.shard_files[i].sync()?;
            frames.clear();
        }
        let commit = frame_line(&format!("C {batch} {} {events}", kind.tag()));
        self.commit_file.append(commit.as_bytes())?;
        self.commit_file.sync()?;
        Ok(())
    }

    /// Drop every staged frame of the in-flight batch. Called when the
    /// batch fails before (or during) commit so stale frames cannot ride
    /// into the next batch.
    pub(crate) fn abort_batch(&mut self) {
        for frames in &mut self.pending {
            frames.clear();
        }
    }
}

/// Read one log file into verified payload lines. Invalid lines are only
/// tolerated as a contiguous tail (the torn final write of a crash); a
/// valid frame *after* an invalid one is mid-file corruption.
fn read_payloads(vfs: &dyn Vfs, path: &Path) -> Result<(Vec<String>, usize), ServeError> {
    let bytes = match vfs.read(path) {
        Ok(b) => b,
        Err(e) if e.is_not_found() => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e.into()),
    };
    let text = String::from_utf8_lossy(&bytes);
    let mut payloads = Vec::new();
    let mut torn = 0usize;
    for line in text.lines() {
        let valid = line
            .split_once(' ')
            .and_then(|(hex, payload)| {
                let sum = u64::from_str_radix(hex, 16).ok()?;
                (sum == fnv1a(payload.as_bytes())).then(|| payload.to_string())
            });
        match valid {
            Some(payload) if torn == 0 => payloads.push(payload),
            Some(_) => {
                return Err(ServeError::Invariant {
                    detail: format!(
                        "{}: valid frame after {torn} invalid line(s) — mid-file corruption",
                        path.display()
                    ),
                });
            }
            None => torn += 1,
        }
    }
    Ok((payloads, torn))
}

fn parse_frame(payload: &str) -> Result<Frame, String> {
    let toks: Vec<&str> = payload.split_whitespace().collect();
    let batch = |i: usize| -> Result<usize, String> {
        parse_num(toks.get(i).ok_or("truncated frame")?)
    };
    let trace_tok = |i: usize| -> Result<u64, String> {
        wire::parse_trace(toks.get(i).ok_or("truncated frame")?)
    };
    let frame = match toks.first().copied() {
        Some("R") => {
            let (session, features) = wire::parse_features(&toks[3..])?;
            Frame::Register { batch: batch(1)?, trace: trace_tok(2)?, session, features }
        }
        Some("E") => Frame::Event {
            batch: batch(1)?,
            arrival: batch(2)?,
            trace: trace_tok(3)?,
            event: wire::parse_event(&toks[4..])?,
        },
        Some("S") => Frame::Score { batch: batch(1)?, record: wire::parse_record(&toks[2..])? },
        Some("F") => Frame::Fault { batch: batch(1)?, fault: wire::parse_fault(&toks[2..])? },
        Some("W") => {
            if toks.len() != 5 {
                return Err("watchdog frame wants 5 tokens".to_string());
            }
            Frame::Watchdog {
                batch: batch(1)?,
                trace: trace_tok(2)?,
                session: parse_num(toks[3])?,
                elapsed_us: parse_num(toks[4])?,
            }
        }
        other => return Err(format!("unknown frame tag {other:?}")),
    };
    // Trace ids are pure functions of (session, batch): a mismatch means
    // the frame drifted (wrong batch, wrong session, or a codec bug) —
    // treated as corruption rather than silently joined to the wrong
    // history.
    let expect = crate::trace_id(frame.session(), frame.batch());
    if frame.trace() != expect {
        return Err(format!(
            "trace id {} does not match trace_id(session {}, batch {}) = {}",
            crate::trace_hex(frame.trace()),
            frame.session(),
            frame.batch(),
            crate::trace_hex(expect)
        ));
    }
    Ok(frame)
}

/// Load a journal directory: verified commit horizon plus per-shard frames
/// of committed batches. Frames beyond the last commit are the in-flight
/// batch of the crash — dropped and counted alongside torn tail lines.
/// Reads through the process-global [`vfs`] stack; see [`load_with`].
pub fn load(dir: &Path, num_shards: usize) -> Result<JournalData, ServeError> {
    load_with(&*vfs::global(), dir, num_shards)
}

/// [`load`] through an explicit [`Vfs`] (recovery uses the server's
/// handle; fault-injection tests use an injector stack).
pub fn load_with(vfs: &dyn Vfs, dir: &Path, num_shards: usize) -> Result<JournalData, ServeError> {
    let (commit_payloads, mut torn) = read_payloads(vfs, &commit_log_path(dir))?;
    let mut commits = Vec::with_capacity(commit_payloads.len());
    for p in &commit_payloads {
        let toks: Vec<&str> = p.split_whitespace().collect();
        if toks.len() != 4 || toks[0] != "C" {
            return Err(ServeError::Invariant { detail: format!("bad commit frame `{p}`") });
        }
        let c = Commit {
            batch: parse_num(toks[1])
                .map_err(|e| ServeError::Invariant { detail: e })?,
            kind: BatchKind::from_tag(toks[2])
                .map_err(|e| ServeError::Invariant { detail: e })?,
            events: parse_num(toks[3])
                .map_err(|e| ServeError::Invariant { detail: e })?,
        };
        if c.batch != commits.len() + 1 {
            return Err(ServeError::Invariant {
                detail: format!("commit log gap: frame {} after {} commits", c.batch, commits.len()),
            });
        }
        commits.push(c);
    }
    let horizon = commits.len();

    let mut shards = Vec::with_capacity(num_shards);
    for i in 0..num_shards {
        let (payloads, t) = read_payloads(vfs, &shard_log_path(dir, i))?;
        torn += t;
        let mut frames = Vec::with_capacity(payloads.len());
        for p in &payloads {
            let frame = parse_frame(p).map_err(|e| ServeError::Invariant {
                detail: format!("shard {i}: bad frame `{p}`: {e}"),
            })?;
            // Frames of the batch that was mid-write at the crash (no
            // commit) are uncommitted work the caller never saw.
            if frame.batch() <= horizon {
                frames.push(frame);
            } else {
                torn += 1;
            }
        }
        shards.push(frames);
    }
    Ok(JournalData { shards, commits, torn_frames: torn })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;
    use tpgnn_graph::stream::StreamEvent;
    use tpgnn_obs::vfs::StdVfs;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tpgnn-journal-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn se(session: u64, t: f64) -> SessionEvent {
        SessionEvent::new(session, StreamEvent::new(0, 1, t))
    }

    #[test]
    fn staged_frames_survive_commit_and_reload() {
        let dir = tmpdir("roundtrip");
        let mut j = Journal::open(&StdVfs, &dir, 2).unwrap();
        j.stage_event(0, 1, 0, &se(2, 1.0));
        j.stage_event(1, 1, 1, &se(3, 2.0));
        j.stage_watchdog(1, 1, 3, 777);
        j.commit(1, BatchKind::Ingest, 2).unwrap();
        j.stage_event(0, 2, 0, &se(2, 3.0));
        j.commit(2, BatchKind::CloseAll, 1).unwrap();

        let data = load(&dir, 2).unwrap();
        assert_eq!(data.torn_frames, 0);
        assert_eq!(data.commits.len(), 2);
        assert_eq!(data.commits[1].kind, BatchKind::CloseAll);
        assert_eq!(data.shards[0].len(), 2);
        assert_eq!(data.shards[1].len(), 2);
        assert!(matches!(data.shards[1][1], Frame::Watchdog { session: 3, elapsed_us: 777, .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_dropped_and_counted() {
        let dir = tmpdir("torn");
        let mut j = Journal::open(&StdVfs, &dir, 1).unwrap();
        j.stage_event(0, 1, 0, &se(1, 1.0));
        j.commit(1, BatchKind::Ingest, 1).unwrap();
        // Simulate a crash mid-append: garbage half-line at the shard tail
        // and a torn half-frame at the commit tail.
        let mut f = OpenOptions::new().append(true).open(shard_log_path(&dir, 0)).unwrap();
        f.write_all(b"deadbeef partial").unwrap();
        drop(f);
        let mut c = OpenOptions::new().append(true).open(commit_log_path(&dir)).unwrap();
        c.write_all(b"0123").unwrap();
        drop(c);

        let data = load(&dir, 1).unwrap();
        assert_eq!(data.commits.len(), 1);
        assert_eq!(data.shards[0].len(), 1);
        assert_eq!(data.torn_frames, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncommitted_batch_frames_are_dropped() {
        let dir = tmpdir("uncommitted");
        let mut j = Journal::open(&StdVfs, &dir, 1).unwrap();
        j.stage_event(0, 1, 0, &se(1, 1.0));
        j.commit(1, BatchKind::Ingest, 1).unwrap();
        // Batch 2 frames hit the shard log but the crash lands before the
        // commit frame: recovery must not replay them.
        j.stage_event(0, 2, 0, &se(1, 2.0));
        for (i, frames) in j.pending.iter_mut().enumerate() {
            let mut block = String::new();
            for p in frames.iter() {
                block.push_str(&frame_line(p));
            }
            j.shard_files[i].append(block.as_bytes()).unwrap();
            frames.clear();
        }

        let data = load(&dir, 1).unwrap();
        assert_eq!(data.commits.len(), 1);
        assert_eq!(data.shards[0].len(), 1);
        assert_eq!(data.torn_frames, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error() {
        let dir = tmpdir("midfile");
        let mut j = Journal::open(&StdVfs, &dir, 1).unwrap();
        j.stage_event(0, 1, 0, &se(1, 1.0));
        j.stage_event(0, 1, 1, &se(2, 2.0));
        j.commit(1, BatchKind::Ingest, 2).unwrap();
        let path = shard_log_path(&dir, 0);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[0] = "0000000000000000 E 1 0 corrupted".to_string();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        assert!(matches!(load(&dir, 1), Err(ServeError::Invariant { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }
}
