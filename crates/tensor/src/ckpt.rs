//! Crash-safe checkpoint machinery shared by every on-disk state format.
//!
//! Extracted from the training-state persistence path (`optim`) so the
//! serving layer's session spill files, journals, and snapshots use the
//! same discipline: an FNV-1a `checksum` trailer over the body, and a
//! write-to-temp → fsync → atomic-rename protocol that leaves either the
//! previous file or the complete new one after a crash — never a torn one.
//!
//! The module also re-exports the bit-exact float codecs of
//! `tpgnn_obs::codec`: floats serialized as fixed-width hex bit patterns,
//! so NaN payloads, signed zeros, and subnormals all round-trip bitwise
//! (plain `Display`/`parse` canonicalizes NaNs, which would break the
//! serving layer's bitwise recovery contract for quarantined events).

use std::path::Path;

use tpgnn_obs::vfs::{self, Vfs, VfsError};

pub use tpgnn_obs::codec::{fmt_f32, fmt_f64, parse_f32, parse_f64};

/// Typed failure modes of checkpoint persistence and restore.
#[derive(Debug)]
pub enum CheckpointError {
    /// The serialized text is structurally invalid (bad header, shape
    /// mismatch, unparsable numbers, …).
    Format(String),
    /// The `checksum` trailer does not match the body — the file was
    /// truncated or corrupted on disk.
    ChecksumMismatch {
        /// Checksum recorded in the trailer.
        expected: u64,
        /// Checksum recomputed over the body.
        actual: u64,
    },
    /// Filesystem failure while persisting or reading.
    Io(std::io::Error),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Format(msg) => write!(f, "malformed training state: {msg}"),
            CheckpointError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checkpoint checksum mismatch: recorded {expected:016x}, recomputed {actual:016x}"
            ),
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failure: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<VfsError> for CheckpointError {
    fn from(e: VfsError) -> Self {
        CheckpointError::Io(e.into())
    }
}

/// FNV-1a over a checkpoint body — same hash family the in-repo property
/// harness uses; collision resistance is irrelevant here, torn-write
/// detection is the job.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// If `text` ends with a `checksum <hex>` trailer line, verify it against
/// everything before it and return the body; otherwise return `text`
/// unchanged (in-memory states carry no trailer).
pub fn verify_checksum_trailer(text: &str) -> Result<&str, CheckpointError> {
    let trimmed = text.strip_suffix('\n').unwrap_or(text);
    let Some(at) = trimmed.rfind('\n') else { return Ok(text) };
    let last = &trimmed[at + 1..];
    let Some(hex) = last.strip_prefix("checksum ") else { return Ok(text) };
    let expected = u64::from_str_radix(hex.trim(), 16)
        .map_err(|e| CheckpointError::Format(format!("bad checksum trailer: {e}")))?;
    let body = &text[..at + 1];
    let actual = fnv1a(body.as_bytes());
    if actual != expected {
        return Err(CheckpointError::ChecksumMismatch { expected, actual });
    }
    Ok(body)
}

/// Append a newline (if missing) and a `checksum <hex>` trailer line to
/// `body`, making it a self-verifying checkpoint text.
pub fn append_checksum_trailer(body: &mut String) {
    if !body.ends_with('\n') {
        body.push('\n');
    }
    let checksum = fnv1a(body.as_bytes());
    body.push_str(&format!("checksum {checksum:016x}\n"));
}

/// Persist `body` to `path` crash-safely: the checksummed text is written
/// to a sibling temp file, fsynced, and atomically renamed into place, so a
/// crash at any point leaves either the previous file or the complete new
/// one — never a torn file. Uses the process-global [`vfs`] stack; see
/// [`write_atomic_with`] for an explicit one.
pub fn write_atomic(path: &Path, body: &str) -> Result<(), CheckpointError> {
    write_atomic_with(&*vfs::global(), path, body)
}

/// [`write_atomic`] through an explicit [`Vfs`] (fault-injection tests, the
/// chaos harness, servers carrying their own storage handle).
pub fn write_atomic_with(vfs: &dyn Vfs, path: &Path, body: &str) -> Result<(), CheckpointError> {
    let mut state = body.to_string();
    append_checksum_trailer(&mut state);
    vfs.create_atomic(path, state.as_bytes())?;
    Ok(())
}

/// Read a file written by [`write_atomic`], verify its checksum trailer,
/// and return the body (trailer stripped). Uses the process-global [`vfs`]
/// stack; see [`read_atomic_with`] for an explicit one.
pub fn read_atomic(path: &Path) -> Result<String, CheckpointError> {
    read_atomic_with(&*vfs::global(), path)
}

/// [`read_atomic`] through an explicit [`Vfs`].
pub fn read_atomic_with(vfs: &dyn Vfs, path: &Path) -> Result<String, CheckpointError> {
    let text = vfs::read_to_string(vfs, path)?;
    let body = verify_checksum_trailer(&text)?;
    if body.len() == text.len() {
        return Err(CheckpointError::Format(format!(
            "{}: missing checksum trailer",
            path.display()
        )));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_codecs_are_bitwise_for_every_payload() {
        for v in [0.0f32, -0.0, 1.5, f32::NAN, f32::INFINITY, f32::MIN_POSITIVE / 8.0] {
            let back = parse_f32(&fmt_f32(v)).unwrap();
            assert_eq!(v.to_bits(), back.to_bits());
        }
        // A NaN with a non-default payload must survive — `Display` would
        // canonicalize it.
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let back = parse_f64(&fmt_f64(weird)).unwrap();
        assert_eq!(weird.to_bits(), back.to_bits());
        assert!(parse_f32("xyz").is_err());
        assert!(parse_f64("").is_err());
    }

    #[test]
    fn write_read_atomic_roundtrip_and_corruption() {
        let dir = std::env::temp_dir().join(format!("tpgnn-ckpt-mod-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob.ckpt");
        write_atomic(&path, "hello\nworld").unwrap();
        assert!(!path.with_extension("tmp").exists());
        assert_eq!(read_atomic(&path).unwrap(), "hello\nworld\n");

        // Corrupt one byte: the trailer must catch it.
        let text = std::fs::read_to_string(&path).unwrap().replacen("world", "w0rld", 1);
        std::fs::write(&path, text).unwrap();
        assert!(matches!(
            read_atomic(&path),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));

        // A file with no trailer at all is rejected by read_atomic.
        std::fs::write(&path, "no trailer here\n").unwrap();
        assert!(matches!(read_atomic(&path), Err(CheckpointError::Format(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trailer_helpers_agree() {
        let mut s = String::from("line a\nline b");
        append_checksum_trailer(&mut s);
        let body = verify_checksum_trailer(&s).unwrap();
        assert_eq!(body, "line a\nline b\n");
    }
}
