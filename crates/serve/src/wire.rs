//! Single-line wire codecs for journal frames and snapshot rows.
//!
//! Every float travels as its IEEE-754 bit pattern (via the shared
//! `tpgnn_obs::codec` codecs), so scores, event times, and the NaN
//! payloads of quarantined records all round-trip bitwise — the property
//! the crash-recovery self-check depends on: a replayed [`ScoreRecord`]
//! must re-encode to exactly the journaled frame. Trace ids travel as
//! fixed-width hex ([`crate::trace_hex`]), the same rendering the trace
//! JSONL and spill headers use, so the `obs_report` analysis tool can join
//! all three surfaces on the id alone.
//!
//! The codecs are public (read-only analysis tools parse journal frames
//! through them); the staging/commit write side stays inside the crate.

use tpgnn_graph::stream::{
    QuarantineLog, QuarantinedEvent, RejectReason, StreamEvent, StreamStats,
};
use tpgnn_graph::NodeFeatures;
use tpgnn_obs::codec::{fmt_f32, fmt_f64, parse_f32, parse_f64, parse_num};

use crate::error::{FaultKind, SessionFault};
use crate::{ScoreKind, ScoreRecord, SessionEvent};

pub(crate) fn parse_trace(tok: &str) -> Result<u64, String> {
    u64::from_str_radix(tok, 16).map_err(|e| format!("bad trace id `{tok}`: {e}"))
}

/// Encode one offered event: `<session> <src> <dst> <time-bits> <origin>`.
pub fn fmt_event(se: &SessionEvent) -> String {
    format!(
        "{} {} {} {} {}",
        se.session,
        se.event.src,
        se.event.dst,
        fmt_f64(se.event.time),
        se.event.origin
    )
}

/// Decode [`fmt_event`] output (pre-split into whitespace tokens).
pub fn parse_event(toks: &[&str]) -> Result<SessionEvent, String> {
    if toks.len() != 5 {
        return Err(format!("event frame wants 5 tokens, got {}", toks.len()));
    }
    Ok(SessionEvent {
        session: parse_num(toks[0])?,
        event: StreamEvent {
            src: parse_num(toks[1])?,
            dst: parse_num(toks[2])?,
            time: parse_f64(toks[3])?,
            origin: parse_num(toks[4])?,
        },
    })
}

/// Encode one fault-ledger entry:
/// `<session> <kind> <trace-hex16> <detail...>` — detail is the rest of
/// the line.
pub fn fmt_fault(f: &SessionFault) -> String {
    format!("{} {} {} {}", f.session, f.kind.label(), crate::trace_hex(f.trace), f.detail)
}

/// Decode [`fmt_fault`] output.
pub fn parse_fault(toks: &[&str]) -> Result<SessionFault, String> {
    if toks.len() < 3 {
        return Err("fault frame wants at least 3 tokens".to_string());
    }
    Ok(SessionFault {
        session: parse_num(toks[0])?,
        kind: FaultKind::from_label(toks[1])?,
        trace: parse_trace(toks[2])?,
        detail: toks[3..].join(" "),
    })
}

/// Encode one score record:
/// `<session> <E|F> <proba-bits> <edges> <trace-hex16>` plus, for `Final`
/// records, ` s <received> <released> <quarantined> <forced> <maxdepth>`
/// and ` q <n>` followed by `n` quarantine entries
/// (`<seq> <src> <dst> <time-bits> <origin> <reason-wire>` each, where the
/// reason tag determines its arity).
pub fn fmt_record(r: &ScoreRecord) -> String {
    use std::fmt::Write as _;
    let kind = match r.kind {
        ScoreKind::Early => "E",
        ScoreKind::Final => "F",
    };
    let mut out = format!(
        "{} {} {} {} {}",
        r.session,
        kind,
        fmt_f32(r.proba),
        r.edges,
        crate::trace_hex(r.trace)
    );
    if let Some(s) = &r.stats {
        let _ = write!(
            out,
            " s {} {} {} {} {}",
            s.received, s.released, s.quarantined, s.forced_releases, s.max_buffer_depth
        );
    }
    if let Some(q) = &r.quarantine {
        let _ = write!(out, " q {}", q.len());
        for e in q.entries() {
            let _ = write!(
                out,
                " {} {} {} {} {} {}",
                e.seq,
                e.event.src,
                e.event.dst,
                fmt_f64(e.event.time),
                e.event.origin,
                e.reason.to_wire()
            );
        }
    }
    out
}

/// Decode [`fmt_record`] output.
pub fn parse_record(toks: &[&str]) -> Result<ScoreRecord, String> {
    if toks.len() < 5 {
        return Err("score frame wants at least 5 tokens".to_string());
    }
    let kind = match toks[1] {
        "E" => ScoreKind::Early,
        "F" => ScoreKind::Final,
        other => return Err(format!("bad score kind `{other}`")),
    };
    let mut rec = ScoreRecord {
        session: parse_num(toks[0])?,
        kind,
        proba: parse_f32(toks[2])?,
        edges: parse_num(toks[3])?,
        trace: parse_trace(toks[4])?,
        stats: None,
        quarantine: None,
    };
    let mut i = 5;
    if toks.get(i) == Some(&"s") {
        if toks.len() < i + 6 {
            return Err("truncated stats block in score frame".to_string());
        }
        rec.stats = Some(StreamStats {
            received: parse_num(toks[i + 1])?,
            released: parse_num(toks[i + 2])?,
            quarantined: parse_num(toks[i + 3])?,
            forced_releases: parse_num(toks[i + 4])?,
            max_buffer_depth: parse_num(toks[i + 5])?,
        });
        i += 6;
    }
    if toks.get(i) == Some(&"q") {
        let n: usize = parse_num(toks.get(i + 1).ok_or("truncated quarantine count")?)?;
        i += 2;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            if toks.len() < i + 6 {
                return Err("truncated quarantine entry in score frame".to_string());
            }
            let seq = parse_num(toks[i])?;
            let event = StreamEvent {
                src: parse_num(toks[i + 1])?,
                dst: parse_num(toks[i + 2])?,
                time: parse_f64(toks[i + 3])?,
                origin: parse_num(toks[i + 4])?,
            };
            // Reason arity is tag-determined: `dup` is 1 token, `mal-time`
            // 2, and `late`/`clock`/`mal-src`/`mal-dst`/`overflow` 3.
            let arity = match toks[i + 5] {
                "dup" => 1,
                "mal-time" => 2,
                _ => 3,
            };
            if toks.len() < i + 5 + arity {
                return Err("truncated reason in score frame".to_string());
            }
            let reason = RejectReason::from_wire(&toks[i + 5..i + 5 + arity].join(" "))?;
            entries.push(QuarantinedEvent { seq, event, reason });
            i += 5 + arity;
        }
        rec.quarantine = Some(QuarantineLog::from_entries(entries));
    }
    if i != toks.len() {
        return Err(format!("trailing garbage in score frame at token {i}"));
    }
    Ok(rec)
}

/// Encode registered features:
/// `<session> <num_nodes> <dim> <f32-bits>...` — one line per feature set.
pub fn fmt_features(session: u64, f: &NodeFeatures) -> String {
    let mut out = format!("{} {} {}", session, f.num_nodes(), f.dim());
    for v in f.data() {
        out.push(' ');
        out.push_str(&fmt_f32(*v));
    }
    out
}

/// Decode [`fmt_features`] output.
pub fn parse_features(toks: &[&str]) -> Result<(u64, NodeFeatures), String> {
    if toks.len() < 3 {
        return Err("features frame wants at least 3 tokens".to_string());
    }
    let session = parse_num(toks[0])?;
    let (n, d): (usize, usize) = (parse_num(toks[1])?, parse_num(toks[2])?);
    if toks.len() != 3 + n * d {
        return Err(format!(
            "features frame for {n}x{d} wants {} value tokens, got {}",
            n * d,
            toks.len() - 3
        ));
    }
    let data = toks[3..]
        .iter()
        .map(|t| parse_f32(t))
        .collect::<Result<Vec<f32>, _>>()?;
    Ok((session, NodeFeatures::from_vec(n, d, data)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpgnn_graph::GraphError;

    #[test]
    fn event_roundtrips_bitwise_including_nan() {
        for t in [1.5, f64::from_bits(0x7ff8_0bad_cafe_0001), -0.0] {
            let se = SessionEvent::new(7, StreamEvent::from_origin(1, 2, t, 3));
            let line = fmt_event(&se);
            let toks: Vec<&str> = line.split_whitespace().collect();
            let back = parse_event(&toks).unwrap();
            assert_eq!(back.session, 7);
            assert_eq!(back.event.time.to_bits(), t.to_bits());
        }
        assert!(parse_event(&["1", "2"]).is_err());
    }

    #[test]
    fn record_roundtrips_with_stats_and_quarantine() {
        let q = QuarantineLog::from_entries([
            QuarantinedEvent {
                seq: 3,
                event: StreamEvent::new(0, 1, 2.0),
                reason: RejectReason::Duplicate,
            },
            QuarantinedEvent {
                seq: 5,
                event: StreamEvent::new(1, 2, f64::NAN),
                reason: RejectReason::Malformed(GraphError::BadTimestamp { time: f64::NAN }),
            },
            QuarantinedEvent {
                seq: 8,
                event: StreamEvent::new(2, 3, 1.0),
                reason: RejectReason::LateEvent { time: 1.0, watermark: 4.0 },
            },
        ]);
        let rec = ScoreRecord {
            session: 42,
            kind: ScoreKind::Final,
            proba: 0.734_f32,
            edges: 9,
            trace: crate::trace_id(42, 3),
            stats: Some(StreamStats {
                received: 12,
                released: 9,
                quarantined: 3,
                forced_releases: 1,
                max_buffer_depth: 4,
            }),
            quarantine: Some(q),
        };
        let line = fmt_record(&rec);
        let toks: Vec<&str> = line.split_whitespace().collect();
        let back = parse_record(&toks).unwrap();
        assert_eq!(fmt_record(&back), line, "re-encode is bitwise-stable");
        assert_eq!(back.proba.to_bits(), rec.proba.to_bits());
        assert_eq!(back.stats, rec.stats);
        assert_eq!(back.quarantine.as_ref().unwrap().render(), rec.quarantine.unwrap().render());
    }

    #[test]
    fn early_record_roundtrips_without_optionals() {
        let rec = ScoreRecord {
            session: 1,
            kind: ScoreKind::Early,
            proba: 0.25,
            edges: 2,
            trace: crate::trace_id(1, 1),
            stats: None,
            quarantine: None,
        };
        let line = fmt_record(&rec);
        let toks: Vec<&str> = line.split_whitespace().collect();
        let back = parse_record(&toks).unwrap();
        assert_eq!(fmt_record(&back), line);
        assert!(back.stats.is_none() && back.quarantine.is_none());
    }

    #[test]
    fn fault_and_features_roundtrip() {
        let f = SessionFault {
            session: 11,
            trace: crate::trace_id(11, 7),
            kind: FaultKind::Overloaded,
            detail: "3 events shed at batch 7".into(),
        };
        let line = fmt_fault(&f);
        let toks: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(parse_fault(&toks).unwrap(), f);

        let mut feats = NodeFeatures::zeros(2, 3);
        feats.row_mut(1).copy_from_slice(&[0.5, -0.0, f32::NAN]);
        let line = fmt_features(5, &feats);
        let toks: Vec<&str> = line.split_whitespace().collect();
        let (sid, back) = parse_features(&toks).unwrap();
        assert_eq!(sid, 5);
        assert_eq!(back.num_nodes(), 2);
        for (a, b) in feats.data().iter().zip(back.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(parse_features(&["1", "2", "2", "00000000"]).is_err());
    }
}
