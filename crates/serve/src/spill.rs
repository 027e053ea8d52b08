//! Bounded session memory: spill evicted sessions to disk, restore them on
//! their next edge.
//!
//! A spilled session is the full [`SessionEntry`] — streaming builder,
//! incremental model state, close bookkeeping, and features — serialized
//! with bit-exact float codecs and persisted through the shared
//! checksummed atomic-write checkpoint machinery. Restoring produces a
//! session bitwise-indistinguishable from one that never left memory.
//!
//! Spill files are versioned by the batch at which the eviction happened
//! (`s<sid>-b<batch>.ckpt`): eviction decisions are a deterministic
//! function of committed traffic, so crash-recovery replay re-derives the
//! same evictions and rewrites the same files with identical content —
//! idempotent by construction. Files are never deleted on restore (an
//! older snapshot's replay may still need them); garbage collection of
//! superseded spill files is deliberately out of scope here.

use std::path::{Path, PathBuf};

use tpgnn_core::SessionState;
use tpgnn_graph::stream::{CtdnBuilder, StreamConfig};
use tpgnn_graph::NodeFeatures;
use tpgnn_obs::codec::{fmt_f32, fmt_f64, parse_f32, parse_f64, parse_num, LineReader};
use tpgnn_obs::vfs::Vfs;
use tpgnn_tensor::ckpt;

use crate::error::ServeError;
use crate::wire;
use crate::SessionEntry;

/// Where session `sid`, evicted at `batch`, spills under `dir`.
pub(crate) fn spill_path(dir: &Path, sid: u64, batch: usize) -> PathBuf {
    dir.join(format!("s{sid}-b{batch}.ckpt"))
}

/// Serialize one resident session to spill text (no checksum trailer —
/// [`write`] adds it through the atomic-write path). `trace` is the
/// deterministic id of the (session, batch) that persisted this state —
/// [`crate::trace_id`] of the eviction batch for spill files, of the
/// snapshot batch for entries embedded in server snapshots — so every
/// on-disk session blob is joinable to its causal trace history.
pub(crate) fn encode(sid: u64, trace: u64, entry: &SessionEntry) -> String {
    use std::fmt::Write as _;
    let feats = entry.builder.features();
    let mut out = String::from("session-spill v2\n");
    let _ = writeln!(out, "session {sid}");
    let _ = writeln!(out, "trace {}", crate::trace_hex(trace));
    let _ = writeln!(
        out,
        "meta {} {} {}",
        fmt_f64(entry.last_seen),
        entry.next_warn,
        entry.last_active_batch
    );
    let mut frow = format!("features {} {}", feats.num_nodes(), feats.dim());
    for v in feats.data() {
        frow.push(' ');
        frow.push_str(&fmt_f32(*v));
    }
    out.push_str(&frow);
    out.push('\n');
    let builder = entry.builder.snapshot();
    let _ = writeln!(out, "builder {}", builder.lines().count());
    out.push_str(&builder);
    let state = entry.state.snapshot();
    let _ = writeln!(out, "state {}", state.lines().count());
    out.push_str(&state);
    out
}

/// Rebuild a [`SessionEntry`] from [`encode`] output. The stream config is
/// process state (not stream state) and is supplied by the caller, exactly
/// as the server would configure a fresh session.
pub(crate) fn decode(
    text: &str,
    stream_cfg: &StreamConfig,
) -> Result<(u64, u64, SessionEntry), ServeError> {
    let bad = |detail: String| ServeError::Invariant { detail: format!("spill file: {detail}") };
    let mut lines = LineReader::new(text);
    let header = lines.next().ok_or_else(|| bad("empty".into()))?;
    if header != "session-spill v2" {
        return Err(bad(format!("bad header `{header}`")));
    }
    let sid: u64 = parse_num(lines.tagged_n("session", 1).map_err(&bad)?[0]).map_err(&bad)?;
    let trace = wire::parse_trace(lines.tagged_n("trace", 1).map_err(&bad)?[0]).map_err(&bad)?;
    let meta = lines.tagged_n("meta", 3).map_err(&bad)?;
    let last_seen = parse_f64(meta[0]).map_err(&bad)?;
    let next_warn: usize = parse_num(meta[1]).map_err(&bad)?;
    let last_active_batch: usize = parse_num(meta[2]).map_err(&bad)?;

    let ftoks = lines.tagged("features").map_err(&bad)?;
    if ftoks.len() < 2 {
        return Err(bad(format!("bad features line `{ftoks:?}`")));
    }
    let (n, d): (usize, usize) =
        (parse_num(ftoks[0]).map_err(&bad)?, parse_num(ftoks[1]).map_err(&bad)?);
    if ftoks.len() != 2 + n * d {
        return Err(bad(format!("features line wants {} values", n * d)));
    }
    let data = ftoks[2..]
        .iter()
        .map(|t| parse_f32(t))
        .collect::<Result<Vec<f32>, _>>()
        .map_err(&bad)?;
    let features = NodeFeatures::from_vec(n, d, data);

    // The builder and state blocks go to their decoders as borrowed
    // sub-slices of `text`: restores run on every evicted session's return.
    let mut read_block = |tag: &str| -> Result<&str, ServeError> {
        let count: usize = parse_num(lines.tagged_n(tag, 1).map_err(&bad)?[0]).map_err(&bad)?;
        lines
            .take_lines(count)
            .ok_or_else(|| bad(format!("`{tag}` block truncated (want {count} lines)")))
    };
    let builder_text = read_block("builder")?;
    let state_text = read_block("state")?;

    // The server forces release tracking on every session it opens; a
    // restored builder must advance the model state the same way.
    let mut stream_cfg = stream_cfg.clone();
    stream_cfg.track_releases = true;
    let builder = CtdnBuilder::restore(features, stream_cfg, builder_text)
        .map_err(|e| bad(format!("builder: {e}")))?;
    let state = SessionState::restore(state_text).map_err(|e| bad(format!("state: {e}")))?;
    Ok((sid, trace, SessionEntry { builder, state, last_seen, next_warn, last_active_batch }))
}

/// Persist session `sid` to its spill file crash-safely through the
/// server's [`Vfs`]. Re-spilling the same (sid, batch) during recovery
/// replay rewrites identical bytes.
pub(crate) fn write(
    vfs: &dyn Vfs,
    dir: &Path,
    sid: u64,
    batch: usize,
    entry: &SessionEntry,
) -> Result<(), ServeError> {
    vfs.create_dir_all(dir)?;
    let blob = encode(sid, crate::trace_id(sid, batch), entry);
    Ok(ckpt::write_atomic_with(vfs, &spill_path(dir, sid, batch), &blob)?)
}

/// Load session `sid` back from the spill file written at `batch`,
/// verifying both the session id and the embedded trace id against the
/// (sid, batch) the file name claims.
pub(crate) fn read(
    vfs: &dyn Vfs,
    dir: &Path,
    sid: u64,
    batch: usize,
    stream_cfg: &StreamConfig,
) -> Result<SessionEntry, ServeError> {
    let text = ckpt::read_atomic_with(vfs, &spill_path(dir, sid, batch))?;
    let (got, trace, entry) = decode(&text, stream_cfg)?;
    if got != sid {
        return Err(ServeError::Invariant {
            detail: format!("spill file for session {sid} contains session {got}"),
        });
    }
    let want = crate::trace_id(sid, batch);
    if trace != want {
        return Err(ServeError::Invariant {
            detail: format!(
                "spill file for session {sid} batch {batch} carries trace {} (want {})",
                crate::trace_hex(trace),
                crate::trace_hex(want)
            ),
        });
    }
    Ok(entry)
}
