//! The bit-exact line codec shared by every text format in the workspace:
//! checkpoints, stream-builder and propagation-state snapshots, session
//! spills, journal frames and server snapshots.
//!
//! Floats travel as the hex digits of their IEEE-754 bit pattern, so every
//! value — NaN payloads and signed zeros included — round-trips bitwise.
//! Records are lines whose first whitespace token is a tag;
//! [`LineReader`] pops them and hands a run of lines to an inner decoder as
//! one borrowed sub-slice, so nested formats decode without copying.

use std::fmt;
use std::str::FromStr;

/// Bit-exact `f32` encoding: 8 hex digits of the IEEE-754 bit pattern.
pub fn fmt_f32(v: f32) -> String {
    format!("{:08x}", v.to_bits())
}

/// Decode [`fmt_f32`] output.
pub fn parse_f32(tok: &str) -> Result<f32, String> {
    u32::from_str_radix(tok, 16)
        .map(f32::from_bits)
        .map_err(|e| format!("bad f32 bits `{tok}`: {e}"))
}

/// Bit-exact `f64` encoding: 16 hex digits of the IEEE-754 bit pattern.
pub fn fmt_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Decode [`fmt_f64`] output.
pub fn parse_f64(tok: &str) -> Result<f64, String> {
    u64::from_str_radix(tok, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("bad f64 bits `{tok}`: {e}"))
}

/// Parse a decimal integer (or any `FromStr` token) with a readable error.
pub fn parse_num<T: FromStr>(tok: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    tok.parse().map_err(|e| format!("bad number `{tok}`: {e}"))
}

/// A cursor over the lines of a text. As an iterator it yields lines like
/// [`str::lines`]; unlike it, [`take_lines`](Self::take_lines) and
/// [`rest`](Self::rest) borrow a run of lines as one slice of the input.
#[derive(Clone, Debug)]
pub struct LineReader<'a> {
    rest: &'a str,
}

impl<'a> LineReader<'a> {
    /// A reader positioned at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self { rest: text }
    }

    /// Everything not yet read.
    pub fn rest(&self) -> &'a str {
        self.rest
    }

    /// The next `n` lines verbatim, terminators included, as one slice of
    /// the input; `None` (and nothing consumed) when fewer than `n` remain.
    pub fn take_lines(&mut self, n: usize) -> Option<&'a str> {
        let mut end = 0;
        for _ in 0..n {
            if end == self.rest.len() {
                return None;
            }
            end = self.rest[end..].find('\n').map_or(self.rest.len(), |i| end + i + 1);
        }
        let (block, rest) = self.rest.split_at(end);
        self.rest = rest;
        Some(block)
    }

    /// Pop the next line, which must read `<tag> <tok>...`, and return the
    /// tokens after the tag.
    pub fn tagged(&mut self, tag: &str) -> Result<Vec<&'a str>, String> {
        let line = self.next().ok_or_else(|| format!("missing `{tag}` line"))?;
        let mut toks = line.split_whitespace();
        if toks.next() != Some(tag) {
            return Err(format!("expected `{tag}` line, got `{line}`"));
        }
        Ok(toks.collect())
    }

    /// [`tagged`](Self::tagged) for a line with exactly `n` tokens after
    /// the tag.
    pub fn tagged_n(&mut self, tag: &str, n: usize) -> Result<Vec<&'a str>, String> {
        let toks = self.tagged(tag)?;
        if toks.len() != n {
            return Err(format!("`{tag}` line wants {n} fields, got {}", toks.len()));
        }
        Ok(toks)
    }
}

impl<'a> Iterator for LineReader<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let line = self.take_lines(1)?;
        Some(match line.strip_suffix('\n') {
            Some(line) => line.strip_suffix('\r').unwrap_or(line),
            None => line,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_are_fixed_width_hex_or_decimal() {
        assert_eq!(fmt_f32(1.0), "3f800000");
        assert_eq!(fmt_f32(-0.0), "80000000");
        assert_eq!(fmt_f64(1.0), "3ff0000000000000");
        assert_eq!(parse_num::<u64>("42"), Ok(42));
        assert!(parse_num::<usize>("-1").unwrap_err().contains("bad number `-1`"));
    }

    #[test]
    fn reader_yields_the_same_lines_as_str_lines() {
        for text in ["", "a", "a\n", "a\r\nb", "a\n\nb\n", "\n", "x y\r\n\r\n"] {
            let ours: Vec<&str> = LineReader::new(text).collect();
            assert_eq!(ours, text.lines().collect::<Vec<_>>(), "{text:?}");
        }
    }

    #[test]
    fn take_lines_borrows_blocks_and_rest() {
        let text = "head 2\nb 1\nb 2\ntail";
        let mut r = LineReader::new(text);
        assert_eq!(r.tagged_n("head", 1), Ok(vec!["2"]));
        assert_eq!(r.take_lines(2), Some("b 1\nb 2\n"));
        assert_eq!(r.clone().take_lines(2), None, "short block consumes nothing");
        assert_eq!(r.rest(), "tail");
        assert_eq!(r.take_lines(1), Some("tail"));
        assert_eq!(r.take_lines(0), Some(""));
        assert!(r.tagged("x").unwrap_err().contains("missing `x`"));
    }

    #[test]
    fn tagged_checks_tag_and_width() {
        let mut r = LineReader::new("meta 1 2\nmeta 1\nother 3\n");
        assert_eq!(r.tagged("meta"), Ok(vec!["1", "2"]));
        assert!(r.tagged_n("meta", 2).unwrap_err().contains("wants 2"));
        assert!(r.tagged("meta").unwrap_err().contains("expected `meta`"));
    }
}
