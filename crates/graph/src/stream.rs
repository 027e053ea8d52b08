//! Streaming CTDN ingestion — incremental construction under dirty input.
//!
//! Real event streams (the paper's Gowalla/Brightkite check-ins, HDFS logs)
//! arrive out of order, duplicated, clock-skewed, and occasionally malformed.
//! [`CtdnBuilder`] absorbs such a stream and produces the same
//! chronologically-sorted [`Ctdn`] the batch loader would, degrading
//! gracefully instead of panicking:
//!
//! * a **bounded reorder buffer** holds admitted events until the
//!   **watermark** (max normalized event time seen minus
//!   [`StreamConfig::lateness`]) passes them, then releases them in
//!   chronological order with arrival order preserved for ties;
//! * events arriving behind the watermark are quarantined as
//!   [`RejectReason::LateEvent`];
//! * exact duplicates (same source, target, and normalized time) are dropped
//!   as [`RejectReason::Duplicate`];
//! * per-origin clock skew is corrected by subtracting declared
//!   [`StreamConfig::origin_offsets`]; an origin clock running backwards by
//!   more than [`StreamConfig::clock_tolerance`] yields
//!   [`RejectReason::NonMonotonicClock`];
//! * structurally invalid records become [`RejectReason::Malformed`];
//! * when the buffer is full the chronologically smallest event is released
//!   early, and anything later displaced behind that forced frontier becomes
//!   [`RejectReason::BufferOverflow`].
//!
//! Every rejection lands in the [`QuarantineLog`] with a typed reason, and
//! every decision feeds the `stream.*` counters and histograms in
//! `tpgnn-obs`, so ingestion health is observable alongside training health.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt;
use std::sync::OnceLock;

use tpgnn_obs::codec::{fmt_f64, parse_f64, parse_num, LineReader};
use tpgnn_obs::metrics::{self, Counter, Histogram};

use crate::ctdn::{Ctdn, GraphError, NodeFeatures};

/// One raw record offered to the builder: a directed temporal edge plus the
/// logical `origin` that emitted it (a shard, agent, or log file) — the unit
/// of clock-skew normalization and monotonicity checking.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamEvent {
    /// Source node index.
    pub src: usize,
    /// Target node index.
    pub dst: usize,
    /// Raw timestamp as emitted (before skew normalization).
    pub time: f64,
    /// Logical emitting source; single-origin streams use `0`.
    pub origin: u32,
}

impl StreamEvent {
    /// An event from the default origin `0`.
    pub fn new(src: usize, dst: usize, time: f64) -> Self {
        Self { src, dst, time, origin: 0 }
    }

    /// An event from an explicit origin.
    pub fn from_origin(src: usize, dst: usize, time: f64, origin: u32) -> Self {
        Self { src, dst, time, origin }
    }
}

/// Reason class of a quarantined event — the payload-free counterpart of
/// [`RejectReason`], used for counting and reconciliation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RejectKind {
    /// Arrived behind the watermark.
    LateEvent,
    /// Exact duplicate of an already-admitted edge.
    Duplicate,
    /// Origin clock ran backwards beyond tolerance.
    NonMonotonicClock,
    /// Structurally invalid record.
    Malformed,
    /// Displaced behind the forced-release frontier of a full buffer.
    BufferOverflow,
}

impl RejectKind {
    /// Every kind, in quarantine-log summary order.
    pub const ALL: [RejectKind; 5] = [
        RejectKind::LateEvent,
        RejectKind::Duplicate,
        RejectKind::NonMonotonicClock,
        RejectKind::Malformed,
        RejectKind::BufferOverflow,
    ];

    /// Stable snake_case label (used in metrics names and log rendering).
    pub fn label(self) -> &'static str {
        match self {
            RejectKind::LateEvent => "late_event",
            RejectKind::Duplicate => "duplicate",
            RejectKind::NonMonotonicClock => "non_monotonic_clock",
            RejectKind::Malformed => "malformed",
            RejectKind::BufferOverflow => "buffer_overflow",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Why an event was quarantined, with the evidence for the decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RejectReason {
    /// Normalized time fell behind the watermark when the event arrived.
    LateEvent {
        /// The event's normalized time.
        time: f64,
        /// The watermark it fell behind.
        watermark: f64,
    },
    /// Same source, target, and normalized time as an already-admitted edge.
    Duplicate,
    /// The origin's clock ran backwards beyond the configured tolerance.
    NonMonotonicClock {
        /// The event's normalized time.
        time: f64,
        /// The maximum normalized time previously seen from this origin.
        origin_max: f64,
    },
    /// The record is structurally invalid (endpoint out of bounds, or a
    /// timestamp that is not finite and strictly positive after
    /// normalization).
    Malformed(GraphError),
    /// The reorder buffer was full and forced releases moved the output
    /// frontier past this event's time.
    BufferOverflow {
        /// The event's normalized time.
        time: f64,
        /// The forced-release frontier it fell behind.
        frontier: f64,
    },
}

impl RejectReason {
    /// Compact single-line wire encoding with bit-exact float payloads
    /// (inverse of [`from_wire`](Self::from_wire)). Used by the builder
    /// snapshot format and the serving layer's journal frames.
    pub fn to_wire(&self) -> String {
        fmt_reason(self)
    }

    /// Decode [`to_wire`](Self::to_wire) output.
    pub fn from_wire(text: &str) -> Result<Self, String> {
        parse_reason(text)
    }

    /// The payload-free kind of this reason.
    pub fn kind(&self) -> RejectKind {
        match self {
            RejectReason::LateEvent { .. } => RejectKind::LateEvent,
            RejectReason::Duplicate => RejectKind::Duplicate,
            RejectReason::NonMonotonicClock { .. } => RejectKind::NonMonotonicClock,
            RejectReason::Malformed(_) => RejectKind::Malformed,
            RejectReason::BufferOverflow { .. } => RejectKind::BufferOverflow,
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::LateEvent { time, watermark } => {
                write!(f, "late event: t={time} behind watermark {watermark}")
            }
            RejectReason::Duplicate => write!(f, "duplicate edge"),
            RejectReason::NonMonotonicClock { time, origin_max } => {
                write!(f, "non-monotonic clock: t={time} after origin max {origin_max}")
            }
            RejectReason::Malformed(e) => write!(f, "malformed: {e}"),
            RejectReason::BufferOverflow { time, frontier } => {
                write!(f, "buffer overflow: t={time} behind forced frontier {frontier}")
            }
        }
    }
}

/// One quarantined event: what arrived, when (arrival sequence number,
/// 1-based), and why it was rejected.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuarantinedEvent {
    /// 1-based arrival sequence number of the event within the stream.
    pub seq: u64,
    /// The event as offered (raw, pre-normalization timestamp).
    pub event: StreamEvent,
    /// Why it was rejected.
    pub reason: RejectReason,
}

/// Every rejected event with its typed reason, plus per-kind counts.
///
/// The log is deterministic for a deterministic input stream: same events in
/// the same order produce an identical log ([`QuarantineLog::render`] is
/// bitwise-stable), which the chaos harness relies on.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QuarantineLog {
    entries: Vec<QuarantinedEvent>,
    counts: [usize; 5],
}

impl QuarantineLog {
    /// All quarantined events in arrival order.
    pub fn entries(&self) -> &[QuarantinedEvent] {
        &self.entries
    }

    /// Number of quarantined events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was quarantined.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of events quarantined with the given reason kind.
    pub fn count(&self, kind: RejectKind) -> usize {
        self.counts[kind.index()]
    }

    /// One-line per-kind summary, e.g. `late_event=2 duplicate=0 ...`.
    pub fn summary(&self) -> String {
        RejectKind::ALL
            .iter()
            .map(|k| format!("{}={}", k.label(), self.count(*k)))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Full deterministic rendering: the summary line followed by one line
    /// per entry. Bitwise-identical for identical input streams.
    pub fn render(&self) -> String {
        let mut out = self.summary();
        out.push('\n');
        for e in &self.entries {
            out.push_str(&format!(
                "#{} {} src={} dst={} t={} origin={} :: {}\n",
                e.seq,
                e.reason.kind().label(),
                e.event.src,
                e.event.dst,
                e.event.time,
                e.event.origin,
                e.reason
            ));
        }
        out
    }

    /// Rebuild a log from previously recorded entries (deserialization
    /// path of the serving layer's spill/recovery machinery). Per-kind
    /// counts are recomputed from the entries.
    pub fn from_entries(entries: impl IntoIterator<Item = QuarantinedEvent>) -> Self {
        let mut log = Self::default();
        for e in entries {
            log.push(e);
        }
        log
    }

    fn push(&mut self, entry: QuarantinedEvent) {
        self.counts[entry.reason.kind().index()] += 1;
        self.entries.push(entry);
    }
}

/// Configuration of the streaming ingestion path.
///
/// The default is maximally permissive — infinite lateness and tolerance, a
/// generous buffer — so a clean chronological stream reconstructs the batch
/// loader's `Ctdn` exactly. Production configs tighten `lateness` (bounding
/// end-to-end latency) and `clock_tolerance` (catching broken origin clocks).
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Maximum number of events held in the reorder buffer. When full, the
    /// chronologically smallest buffered event is released early.
    pub reorder_capacity: usize,
    /// Allowed lateness in time units: the watermark trails the maximum
    /// normalized time seen by this much. `f64::INFINITY` disables
    /// lateness-based quarantine (the buffer bound still applies).
    pub lateness: f64,
    /// Drop exact duplicate edges (same source, target, normalized time).
    pub dedup: bool,
    /// Declared per-origin clock offsets, subtracted from each event's raw
    /// timestamp on arrival. Origins not listed have offset `0`.
    pub origin_offsets: Vec<(u32, f64)>,
    /// How far an origin's clock may run backwards (in normalized time
    /// units) before the event is quarantined as non-monotonic.
    /// `f64::INFINITY` disables the check.
    pub clock_tolerance: f64,
    /// Record every released event (normalized time, release order) in a
    /// log the caller drains via [`CtdnBuilder::drain_released`]. The
    /// serving layer uses this to advance incremental per-session model
    /// state one step per released edge; batch ingestion leaves it off.
    pub track_releases: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            reorder_capacity: 1024,
            lateness: f64::INFINITY,
            dedup: true,
            origin_offsets: Vec::new(),
            clock_tolerance: f64::INFINITY,
            track_releases: false,
        }
    }
}

/// Per-builder ingestion accounting. The invariant
/// `received == released + quarantined` holds after [`CtdnBuilder::finish`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Events offered via [`CtdnBuilder::push`].
    pub received: usize,
    /// Events released into the graph.
    pub released: usize,
    /// Events quarantined.
    pub quarantined: usize,
    /// Events released early because the buffer was full.
    pub forced_releases: usize,
    /// High-water mark of the reorder buffer depth.
    pub max_buffer_depth: usize,
}

/// Result of offering one event to the builder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Accepted into the reorder buffer (possibly already released).
    Admitted,
    /// Rejected into the quarantine log with this reason kind.
    Quarantined(RejectKind),
}

/// Everything a finished ingestion produces: the reconstructed graph, the
/// quarantine log, and the accounting.
#[derive(Clone, Debug)]
pub struct StreamOutcome {
    /// The chronologically-ordered CTDN built from released events.
    pub graph: Ctdn,
    /// Every rejected event with its typed reason.
    pub quarantine: QuarantineLog,
    /// Ingestion accounting.
    pub stats: StreamStats,
}

/// A buffered event keyed by `(normalized time bits, arrival seq)`.
///
/// Normalized times are validated finite and strictly positive before
/// buffering, so their IEEE-754 bit patterns order identically to their
/// values; the arrival sequence breaks ties, preserving the batch loader's
/// stable order for equal timestamps.
#[derive(Clone, Copy, Debug)]
struct Buffered {
    bits: u64,
    seq: u64,
    ev: StreamEvent,
}

impl PartialEq for Buffered {
    fn eq(&self, other: &Self) -> bool {
        (self.bits, self.seq) == (other.bits, other.seq)
    }
}

impl Eq for Buffered {}

impl PartialOrd for Buffered {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Buffered {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.bits, self.seq).cmp(&(other.bits, other.seq))
    }
}

/// Incremental, out-of-order-tolerant CTDN constructor.
///
/// Feed raw [`StreamEvent`]s via [`push`](CtdnBuilder::push) (in any order);
/// call [`finish`](CtdnBuilder::finish) to flush the reorder buffer and
/// obtain the [`StreamOutcome`]. Ingestion never panics: every problem is a
/// typed entry in the [`QuarantineLog`].
pub struct CtdnBuilder {
    graph: Ctdn,
    cfg: StreamConfig,
    offsets: BTreeMap<u32, f64>,
    buffer: BinaryHeap<Reverse<Buffered>>,
    /// Dedup window: `(time bits, src, dst)` of admitted edges at or ahead
    /// of the release frontier (pruned as the frontier advances, so memory
    /// stays proportional to the reorder window, not the stream).
    seen: BTreeSet<(u64, usize, usize)>,
    origin_max: BTreeMap<u32, f64>,
    log: QuarantineLog,
    stats: StreamStats,
    seq: u64,
    /// Maximum normalized time admitted so far (watermark anchor).
    max_seen: f64,
    /// Largest time already released into the graph.
    frontier: f64,
    /// Released events awaiting [`CtdnBuilder::drain_released`] (only
    /// populated under [`StreamConfig::track_releases`]).
    released_pending: Vec<StreamEvent>,
}

impl CtdnBuilder {
    /// A builder over the nodes described by `features`.
    pub fn new(features: NodeFeatures, cfg: StreamConfig) -> Self {
        let offsets = cfg.origin_offsets.iter().copied().collect();
        Self {
            graph: Ctdn::new(features),
            cfg,
            offsets,
            buffer: BinaryHeap::new(),
            seen: BTreeSet::new(),
            origin_max: BTreeMap::new(),
            log: QuarantineLog::default(),
            stats: StreamStats::default(),
            seq: 0,
            max_seen: f64::NEG_INFINITY,
            frontier: 0.0,
            released_pending: Vec::new(),
        }
    }

    /// A builder over `num_nodes` zero-feature nodes of dimension `dim`.
    pub fn with_zero_features(num_nodes: usize, dim: usize, cfg: StreamConfig) -> Self {
        Self::new(NodeFeatures::zeros(num_nodes, dim), cfg)
    }

    /// The current watermark: `max normalized time seen − lateness`, or
    /// `-∞` before the first admission.
    pub fn watermark(&self) -> f64 {
        self.max_seen - self.cfg.lateness
    }

    /// Current reorder-buffer depth.
    pub fn buffer_depth(&self) -> usize {
        self.buffer.len()
    }

    /// The node features this builder's graph was opened over (what
    /// [`restore`](CtdnBuilder::restore) must be handed back).
    pub fn features(&self) -> &NodeFeatures {
        self.graph.features()
    }

    /// Number of edges released into the graph so far.
    pub fn num_released_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Ingestion accounting so far.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// The quarantine log so far.
    pub fn quarantine(&self) -> &QuarantineLog {
        &self.log
    }

    /// Offer one event. Never panics; rejects land in the quarantine log.
    pub fn push(&mut self, ev: StreamEvent) -> Admission {
        self.seq += 1;
        self.stats.received += 1;
        cells().events.inc();

        // 1. Clock-skew normalization: subtract the declared origin offset.
        let t = ev.time - self.offsets.get(&ev.origin).copied().unwrap_or(0.0);

        // 2. Structural validation of the normalized record.
        let n = self.graph.num_nodes();
        let structural = if ev.src >= n {
            Some(GraphError::EndpointOutOfBounds { endpoint: "source", index: ev.src, num_nodes: n })
        } else if ev.dst >= n {
            Some(GraphError::EndpointOutOfBounds { endpoint: "target", index: ev.dst, num_nodes: n })
        } else if !(t.is_finite() && t > 0.0) {
            Some(GraphError::BadTimestamp { time: t })
        } else {
            None
        };
        if let Some(e) = structural {
            return self.reject(ev, RejectReason::Malformed(e));
        }

        // 3. Per-origin clock monotonicity.
        let omax = self.origin_max.get(&ev.origin).copied().unwrap_or(f64::NEG_INFINITY);
        if t < omax - self.cfg.clock_tolerance {
            return self.reject(ev, RejectReason::NonMonotonicClock { time: t, origin_max: omax });
        }
        if t > omax {
            self.origin_max.insert(ev.origin, t);
        }

        // 4. Lateness: behind the watermark means the reorder window for
        // this timestamp has already closed.
        let wm = self.watermark();
        if t < wm {
            return self.reject(ev, RejectReason::LateEvent { time: t, watermark: wm });
        }

        // 5. Forced-release frontier: a full buffer may have released past
        // this time even though the watermark has not reached it.
        if t < self.frontier {
            return self.reject(ev, RejectReason::BufferOverflow { time: t, frontier: self.frontier });
        }

        // 6. Dedup against the active window.
        if self.cfg.dedup && !self.seen.insert((t.to_bits(), ev.src, ev.dst)) {
            return self.reject(ev, RejectReason::Duplicate);
        }

        // 7. Admit into the bounded reorder buffer.
        self.max_seen = self.max_seen.max(t);
        let b = Buffered { bits: t.to_bits(), seq: self.seq, ev: StreamEvent { time: t, ..ev } };
        if self.cfg.reorder_capacity == 0 {
            // Degenerate passthrough: no reordering at all.
            self.stats.forced_releases += 1;
            self.release(b.ev);
        } else if self.buffer.len() >= self.cfg.reorder_capacity {
            self.stats.forced_releases += 1;
            let release_new = self.buffer.peek().is_none_or(|min| b <= min.0);
            if release_new {
                self.release(b.ev);
            } else {
                let Reverse(out) = self.buffer.pop().expect("buffer non-empty at capacity");
                self.release(out.ev);
                self.buffer.push(Reverse(b));
            }
        } else {
            self.buffer.push(Reverse(b));
        }
        let depth = self.buffer.len();
        self.stats.max_buffer_depth = self.stats.max_buffer_depth.max(depth);
        cells().reorder_depth.record(depth as f64);

        // 8. Release everything the watermark has passed.
        self.drain_watermark();
        Admission::Admitted
    }

    /// Offer many events in order.
    pub fn extend(&mut self, events: impl IntoIterator<Item = StreamEvent>) {
        for ev in events {
            self.push(ev);
        }
    }

    /// Flush the reorder buffer and return the reconstructed graph, the
    /// quarantine log, and the accounting.
    pub fn finish(mut self) -> StreamOutcome {
        self.flush_buffer();
        StreamOutcome { graph: self.graph, quarantine: self.log, stats: self.stats }
    }

    /// Release every buffered event now, regardless of the watermark,
    /// without consuming the builder.
    ///
    /// This is the session-close path of the serving layer: the watermark
    /// has decided the session is over, so the reorder-buffer tail is
    /// drained (in chronological order, arrival order for ties), the
    /// caller advances its incremental state through
    /// [`drain_released`](CtdnBuilder::drain_released), and only then
    /// calls [`finish`](CtdnBuilder::finish) for the outcome.
    pub fn flush_buffer(&mut self) {
        while let Some(Reverse(b)) = self.buffer.pop() {
            self.release(b.ev);
        }
    }

    /// Take the events released since the last call (normalized times, in
    /// release order). Always empty unless
    /// [`StreamConfig::track_releases`] is set.
    pub fn drain_released(&mut self) -> Vec<StreamEvent> {
        std::mem::take(&mut self.released_pending)
    }

    fn drain_watermark(&mut self) {
        let wm = self.watermark();
        while self.buffer.peek().is_some_and(|min| min.0.ev.time <= wm) {
            let Reverse(b) = self.buffer.pop().expect("peeked");
            self.release(b.ev);
        }
    }

    fn release(&mut self, ev: StreamEvent) {
        match self.graph.try_add_edge(ev.src, ev.dst, ev.time) {
            Ok(()) => {
                self.frontier = self.frontier.max(ev.time);
                self.stats.released += 1;
                cells().released.inc();
                if self.max_seen.is_finite() {
                    cells().watermark_lag.record(self.max_seen - ev.time);
                }
                // Prune dedup keys strictly behind the frontier: any future
                // arrival with such a time is rejected (late or overflow)
                // before the dedup check, so the keys can never match again.
                if self.cfg.dedup {
                    self.seen = self.seen.split_off(&(self.frontier.to_bits(), 0, 0));
                }
                if self.cfg.track_releases {
                    self.released_pending.push(ev);
                }
            }
            // Unreachable by construction (events are validated before
            // buffering) — but ingestion must never panic, so a defect here
            // degrades to a quarantine entry instead.
            Err(e) => {
                self.reject(ev, RejectReason::Malformed(e));
            }
        }
    }

    fn reject(&mut self, ev: StreamEvent, reason: RejectReason) -> Admission {
        let kind = reason.kind();
        self.stats.quarantined += 1;
        cells().quarantined.inc();
        cells().by_kind[kind.index()].inc();
        self.log.push(QuarantinedEvent { seq: self.seq, event: ev, reason });
        Admission::Quarantined(kind)
    }

    /// Serialize the complete mid-stream state (graph edges, reorder buffer,
    /// dedup window, per-origin clocks, quarantine log, accounting) to a
    /// deterministic text form.
    ///
    /// Together with [`restore`](CtdnBuilder::restore) this is the spill
    /// path of the serving layer's bounded session memory: a snapshotted
    /// builder restored onto the same features and config behaves bitwise
    /// identically to one that was never spilled, for any suffix of events.
    /// All floats are encoded as IEEE-754 bit patterns, so NaN payloads in
    /// quarantined raw timestamps survive the roundtrip.
    pub fn snapshot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("ctdn-builder v1\n");
        let _ = writeln!(
            out,
            "meta {} {} {}",
            self.seq,
            fmt_f64(self.max_seen),
            fmt_f64(self.frontier)
        );
        let _ = writeln!(
            out,
            "stats {} {} {} {} {}",
            self.stats.received,
            self.stats.released,
            self.stats.quarantined,
            self.stats.forced_releases,
            self.stats.max_buffer_depth
        );
        let edges = self.graph.edges();
        let _ = writeln!(out, "edges {}", edges.len());
        for e in edges {
            let _ = writeln!(out, "e {} {} {}", e.src, e.dst, fmt_f64(e.time));
        }
        // The heap iterates in arbitrary order; serialize in release order
        // (time bits, then arrival seq) so the text is deterministic.
        let mut buf: Vec<&Buffered> = self.buffer.iter().map(|r| &r.0).collect();
        buf.sort_by_key(|b| (b.bits, b.seq));
        let _ = writeln!(out, "buffer {}", buf.len());
        for b in buf {
            let _ = writeln!(out, "b {} {} {} {} {}", b.seq, b.ev.src, b.ev.dst, b.bits, b.ev.origin);
        }
        let _ = writeln!(out, "seen {}", self.seen.len());
        for (bits, src, dst) in &self.seen {
            let _ = writeln!(out, "s {bits} {src} {dst}");
        }
        let _ = writeln!(out, "origins {}", self.origin_max.len());
        for (origin, max) in &self.origin_max {
            let _ = writeln!(out, "o {} {}", origin, fmt_f64(*max));
        }
        let _ = writeln!(out, "pending {}", self.released_pending.len());
        for ev in &self.released_pending {
            let _ = writeln!(out, "p {} {} {} {}", ev.src, ev.dst, fmt_f64(ev.time), ev.origin);
        }
        let _ = writeln!(out, "quarantine {}", self.log.entries.len());
        for q in &self.log.entries {
            let _ = writeln!(
                out,
                "q {} {} {} {} {} {}",
                q.seq,
                q.event.src,
                q.event.dst,
                fmt_f64(q.event.time),
                q.event.origin,
                fmt_reason(&q.reason)
            );
        }
        out
    }

    /// Rebuild a builder from [`snapshot`](CtdnBuilder::snapshot) output.
    ///
    /// `features` and `cfg` are supplied by the caller (the serving layer
    /// keeps both per session) rather than serialized — features can be
    /// large, and the config is process state, not stream state. The graph
    /// is reconstructed edge-by-edge without touching ingestion metrics or
    /// stream accounting, which are restored from the snapshot's own
    /// `stats` line instead.
    pub fn restore(features: NodeFeatures, cfg: StreamConfig, text: &str) -> Result<Self, String> {
        Self::decode(features, cfg, text).map_err(|e| format!("builder snapshot: {e}"))
    }

    fn decode(features: NodeFeatures, cfg: StreamConfig, text: &str) -> Result<Self, String> {
        let mut lines = LineReader::new(text);
        let header = lines.next().ok_or("empty text")?;
        if header != "ctdn-builder v1" {
            return Err(format!("bad header `{header}`"));
        }
        let meta = lines.tagged_n("meta", 3)?;
        let stats_line = lines.tagged_n("stats", 5)?;

        let mut b = Self::new(features, cfg);
        b.seq = parse_num(meta[0])?;
        b.max_seen = parse_f64(meta[1])?;
        b.frontier = parse_f64(meta[2])?;
        b.stats = StreamStats {
            received: parse_num(stats_line[0])?,
            released: parse_num(stats_line[1])?,
            quarantined: parse_num(stats_line[2])?,
            forced_releases: parse_num(stats_line[3])?,
            max_buffer_depth: parse_num(stats_line[4])?,
        };

        for t in section(&mut lines, "edges", "e", 3)? {
            let (src, dst) = (parse_num(&t[0])?, parse_num(&t[1])?);
            let time = parse_f64(&t[2])?;
            b.graph
                .try_add_edge(src, dst, time)
                .map_err(|e| format!("invalid edge: {e}"))?;
        }
        for t in section(&mut lines, "buffer", "b", 5)? {
            let bits: u64 = parse_num(&t[3])?;
            let ev = StreamEvent {
                src: parse_num(&t[1])?,
                dst: parse_num(&t[2])?,
                time: f64::from_bits(bits),
                origin: parse_num(&t[4])?,
            };
            b.buffer.push(Reverse(Buffered { bits, seq: parse_num(&t[0])?, ev }));
        }
        for t in section(&mut lines, "seen", "s", 3)? {
            b.seen.insert((parse_num(&t[0])?, parse_num(&t[1])?, parse_num(&t[2])?));
        }
        for t in section(&mut lines, "origins", "o", 2)? {
            b.origin_max.insert(parse_num(&t[0])?, parse_f64(&t[1])?);
        }
        for t in section(&mut lines, "pending", "p", 4)? {
            b.released_pending.push(StreamEvent {
                src: parse_num(&t[0])?,
                dst: parse_num(&t[1])?,
                time: parse_f64(&t[2])?,
                origin: parse_num(&t[3])?,
            });
        }
        let mut entries = Vec::new();
        for t in section(&mut lines, "quarantine", "q", 6)? {
            entries.push(QuarantinedEvent {
                seq: parse_num(&t[0])?,
                event: StreamEvent {
                    src: parse_num(&t[1])?,
                    dst: parse_num(&t[2])?,
                    time: parse_f64(&t[3])?,
                    origin: parse_num(&t[4])?,
                },
                reason: parse_reason(&t[5])?,
            });
        }
        b.log = QuarantineLog::from_entries(entries);
        if b.log.len() != b.stats.quarantined {
            return Err(format!(
                "quarantine log has {} entries but stats recorded {}",
                b.log.len(),
                b.stats.quarantined
            ));
        }
        Ok(b)
    }
}

/// Read a `<name> <n>` section header followed by `n` lines tagged `item`,
/// each with at least `min` tokens after the tag (the last token may itself
/// contain spaces for reason payloads, so it is returned joined).
fn section(
    lines: &mut LineReader<'_>,
    name: &str,
    item: &str,
    min: usize,
) -> Result<Vec<Vec<String>>, String> {
    let n: usize = parse_num(lines.tagged_n(name, 1)?[0])?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let line = lines.next().ok_or_else(|| format!("truncated `{name}` section"))?;
        let toks: Vec<&str> = line.split_whitespace().collect();
        if toks.first() != Some(&item) || toks.len() < min + 1 {
            return Err(format!("malformed `{name}` row `{line}`"));
        }
        let mut row: Vec<String> = toks[1..min].iter().map(|s| s.to_string()).collect();
        row.push(toks[min..].join(" "));
        rows.push(row);
    }
    Ok(rows)
}

fn fmt_reason(r: &RejectReason) -> String {
    match r {
        RejectReason::LateEvent { time, watermark } => {
            format!("late {} {}", fmt_f64(*time), fmt_f64(*watermark))
        }
        RejectReason::Duplicate => "dup".to_string(),
        RejectReason::NonMonotonicClock { time, origin_max } => {
            format!("clock {} {}", fmt_f64(*time), fmt_f64(*origin_max))
        }
        RejectReason::Malformed(GraphError::EndpointOutOfBounds { endpoint, index, num_nodes }) => {
            let side = if *endpoint == "source" { "mal-src" } else { "mal-dst" };
            format!("{side} {index} {num_nodes}")
        }
        RejectReason::Malformed(GraphError::BadTimestamp { time }) => {
            format!("mal-time {}", fmt_f64(*time))
        }
        RejectReason::BufferOverflow { time, frontier } => {
            format!("overflow {} {}", fmt_f64(*time), fmt_f64(*frontier))
        }
    }
}

fn parse_reason(tok: &str) -> Result<RejectReason, String> {
    let parts: Vec<&str> = tok.split_whitespace().collect();
    let want = |n: usize| -> Result<(), String> {
        if parts.len() == n {
            Ok(())
        } else {
            Err(format!("malformed reason `{tok}`"))
        }
    };
    match parts.first().copied() {
        Some("late") => {
            want(3)?;
            Ok(RejectReason::LateEvent {
                time: parse_f64(parts[1])?,
                watermark: parse_f64(parts[2])?,
            })
        }
        Some("dup") => {
            want(1)?;
            Ok(RejectReason::Duplicate)
        }
        Some("clock") => {
            want(3)?;
            Ok(RejectReason::NonMonotonicClock {
                time: parse_f64(parts[1])?,
                origin_max: parse_f64(parts[2])?,
            })
        }
        Some(side @ ("mal-src" | "mal-dst")) => {
            want(3)?;
            Ok(RejectReason::Malformed(GraphError::EndpointOutOfBounds {
                endpoint: if side == "mal-src" { "source" } else { "target" },
                index: parse_num(parts[1])?,
                num_nodes: parse_num(parts[2])?,
            }))
        }
        Some("mal-time") => {
            want(2)?;
            Ok(RejectReason::Malformed(GraphError::BadTimestamp { time: parse_f64(parts[1])? }))
        }
        Some("overflow") => {
            want(3)?;
            Ok(RejectReason::BufferOverflow {
                time: parse_f64(parts[1])?,
                frontier: parse_f64(parts[2])?,
            })
        }
        _ => Err(format!("unknown reason `{tok}`")),
    }
}

struct Cells {
    events: &'static Counter,
    released: &'static Counter,
    quarantined: &'static Counter,
    by_kind: [&'static Counter; 5],
    reorder_depth: &'static Histogram,
    watermark_lag: &'static Histogram,
}

fn cells() -> &'static Cells {
    static CELLS: OnceLock<Cells> = OnceLock::new();
    CELLS.get_or_init(|| Cells {
        events: metrics::counter("stream.events"),
        released: metrics::counter("stream.released"),
        quarantined: metrics::counter("stream.quarantined"),
        by_kind: [
            metrics::counter("stream.quarantine.late_event"),
            metrics::counter("stream.quarantine.duplicate"),
            metrics::counter("stream.quarantine.non_monotonic_clock"),
            metrics::counter("stream.quarantine.malformed"),
            metrics::counter("stream.quarantine.buffer_overflow"),
        ],
        reorder_depth: metrics::histogram(
            "stream.reorder_depth",
            &metrics::exponential_buckets(1.0, 2.0, 12),
        ),
        watermark_lag: metrics::histogram(
            "stream.watermark_lag",
            &metrics::exponential_buckets(0.125, 2.0, 16),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(src: usize, dst: usize, t: f64) -> StreamEvent {
        StreamEvent::new(src, dst, t)
    }

    fn times(g: &Ctdn) -> Vec<f64> {
        g.edges().iter().map(|e| e.time).collect()
    }

    #[test]
    fn in_order_stream_reconstructs_direct_loader_graph() {
        let mut direct = Ctdn::with_zero_features(4, 2);
        let mut b = CtdnBuilder::with_zero_features(4, 2, StreamConfig::default());
        for (s, d, t) in [(0, 1, 1.0), (1, 2, 2.0), (1, 3, 2.0), (2, 3, 5.0)] {
            direct.try_add_edge(s, d, t).unwrap();
            assert_eq!(b.push(ev(s, d, t)), Admission::Admitted);
        }
        let out = b.finish();
        assert!(out.quarantine.is_empty());
        assert_eq!(out.graph.edges(), direct.edges());
        assert_eq!(out.graph.features(), direct.features());
        assert_eq!(out.stats.received, 4);
        assert_eq!(out.stats.released, 4);
    }

    #[test]
    fn out_of_order_within_capacity_is_resorted() {
        let mut b = CtdnBuilder::with_zero_features(5, 1, StreamConfig::default());
        for (s, d, t) in [(0, 1, 3.0), (1, 2, 1.0), (2, 3, 2.0), (3, 4, 4.0)] {
            b.push(ev(s, d, t));
        }
        let out = b.finish();
        assert!(out.quarantine.is_empty());
        assert_eq!(times(&out.graph), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn ties_keep_arrival_order() {
        let mut b = CtdnBuilder::with_zero_features(4, 1, StreamConfig::default());
        b.push(ev(0, 1, 1.0));
        b.push(ev(0, 2, 1.0));
        b.push(ev(0, 3, 1.0));
        let out = b.finish();
        let dsts: Vec<usize> = out.graph.edges().iter().map(|e| e.dst).collect();
        assert_eq!(dsts, vec![1, 2, 3]);
    }

    #[test]
    fn late_event_is_quarantined_with_watermark_evidence() {
        let cfg = StreamConfig { lateness: 1.0, ..StreamConfig::default() };
        let mut b = CtdnBuilder::with_zero_features(3, 1, cfg);
        b.push(ev(0, 1, 10.0)); // watermark now 9.0
        let adm = b.push(ev(1, 2, 5.0));
        assert_eq!(adm, Admission::Quarantined(RejectKind::LateEvent));
        let out = b.finish();
        assert_eq!(out.quarantine.count(RejectKind::LateEvent), 1);
        let entry = &out.quarantine.entries()[0];
        assert!(matches!(
            entry.reason,
            RejectReason::LateEvent { time, watermark } if time == 5.0 && watermark == 9.0
        ));
        assert_eq!(times(&out.graph), vec![10.0]);
    }

    #[test]
    fn watermark_releases_progressively() {
        let cfg = StreamConfig { lateness: 2.0, ..StreamConfig::default() };
        let mut b = CtdnBuilder::with_zero_features(8, 1, cfg);
        b.push(ev(0, 1, 1.0));
        b.push(ev(1, 2, 2.0));
        assert_eq!(b.stats().released, 0, "watermark 0.0 has released nothing");
        b.push(ev(2, 3, 5.0)); // watermark 3.0 passes t=1,2
        assert_eq!(b.stats().released, 2);
        assert_eq!(b.buffer_depth(), 1);
        let out = b.finish();
        assert_eq!(times(&out.graph), vec![1.0, 2.0, 5.0]);
    }

    #[test]
    fn duplicates_are_quarantined() {
        let mut b = CtdnBuilder::with_zero_features(3, 1, StreamConfig::default());
        b.push(ev(0, 1, 1.0));
        assert_eq!(b.push(ev(0, 1, 1.0)), Admission::Quarantined(RejectKind::Duplicate));
        // Same endpoints at a different time is NOT a duplicate.
        assert_eq!(b.push(ev(0, 1, 2.0)), Admission::Admitted);
        let out = b.finish();
        assert_eq!(out.quarantine.count(RejectKind::Duplicate), 1);
        assert_eq!(out.graph.num_edges(), 2);
    }

    #[test]
    fn dedup_can_be_disabled() {
        let cfg = StreamConfig { dedup: false, ..StreamConfig::default() };
        let mut b = CtdnBuilder::with_zero_features(3, 1, cfg);
        b.push(ev(0, 1, 1.0));
        assert_eq!(b.push(ev(0, 1, 1.0)), Admission::Admitted);
        assert_eq!(b.finish().graph.num_edges(), 2);
    }

    #[test]
    fn malformed_records_are_quarantined_not_panicked() {
        let mut b = CtdnBuilder::with_zero_features(3, 1, StreamConfig::default());
        assert_eq!(b.push(ev(9, 1, 1.0)), Admission::Quarantined(RejectKind::Malformed));
        assert_eq!(b.push(ev(0, 7, 1.0)), Admission::Quarantined(RejectKind::Malformed));
        assert_eq!(b.push(ev(0, 1, f64::NAN)), Admission::Quarantined(RejectKind::Malformed));
        assert_eq!(b.push(ev(0, 1, -3.0)), Admission::Quarantined(RejectKind::Malformed));
        assert_eq!(b.push(ev(0, 1, 0.0)), Admission::Quarantined(RejectKind::Malformed));
        let out = b.finish();
        assert_eq!(out.quarantine.count(RejectKind::Malformed), 5);
        assert_eq!(out.stats.received, 5);
        assert_eq!(out.stats.released, 0);
        assert_eq!(out.graph.num_edges(), 0);
    }

    #[test]
    fn non_monotonic_origin_clock_is_caught() {
        let cfg = StreamConfig { clock_tolerance: 0.5, ..StreamConfig::default() };
        let mut b = CtdnBuilder::with_zero_features(4, 1, cfg);
        b.push(StreamEvent::from_origin(0, 1, 10.0, 7));
        // Within tolerance: fine.
        assert_eq!(b.push(StreamEvent::from_origin(1, 2, 9.8, 7)), Admission::Admitted);
        // Beyond tolerance on the same origin: rejected.
        let adm = b.push(StreamEvent::from_origin(2, 3, 4.0, 7));
        assert_eq!(adm, Admission::Quarantined(RejectKind::NonMonotonicClock));
        // A different origin has its own clock.
        assert_eq!(b.push(StreamEvent::from_origin(2, 3, 4.0, 8)), Admission::Admitted);
        let out = b.finish();
        assert_eq!(out.quarantine.count(RejectKind::NonMonotonicClock), 1);
        assert_eq!(times(&out.graph), vec![4.0, 9.8, 10.0]);
    }

    #[test]
    fn declared_skew_offsets_are_normalized_away() {
        let cfg = StreamConfig {
            origin_offsets: vec![(1, 100.0)],
            ..StreamConfig::default()
        };
        let mut b = CtdnBuilder::with_zero_features(4, 1, cfg);
        b.push(StreamEvent::from_origin(0, 1, 1.0, 0));
        b.push(StreamEvent::from_origin(1, 2, 102.0, 1)); // normalized to 2.0
        b.push(StreamEvent::from_origin(2, 3, 3.0, 0));
        let out = b.finish();
        assert!(out.quarantine.is_empty());
        assert_eq!(times(&out.graph), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn buffer_is_bounded_and_overflow_is_typed() {
        let cfg = StreamConfig { reorder_capacity: 4, ..StreamConfig::default() };
        let mut b = CtdnBuilder::with_zero_features(64, 1, cfg);
        // Adversarial: strictly decreasing times. The buffer can only absorb
        // four of them; everything pushed after the frontier advances past
        // its time lands in quarantine as BufferOverflow.
        for i in 0..16usize {
            b.push(ev(i, i + 1, 100.0 - i as f64));
            assert!(b.buffer_depth() <= 4, "buffer exceeded its configured bound");
        }
        let out = b.finish();
        assert!(out.stats.max_buffer_depth <= 4);
        assert_eq!(out.stats.received, 16);
        assert_eq!(out.stats.received, out.stats.released + out.stats.quarantined);
        assert!(out.quarantine.count(RejectKind::BufferOverflow) > 0);
        // Whatever was released is chronologically ordered.
        let ts = times(&out.graph);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn zero_capacity_is_strict_passthrough() {
        let cfg = StreamConfig { reorder_capacity: 0, ..StreamConfig::default() };
        let mut b = CtdnBuilder::with_zero_features(4, 1, cfg);
        b.push(ev(0, 1, 2.0));
        let adm = b.push(ev(1, 2, 1.0));
        assert_eq!(adm, Admission::Quarantined(RejectKind::BufferOverflow));
        let out = b.finish();
        assert_eq!(times(&out.graph), vec![2.0]);
    }

    #[test]
    fn accounting_invariant_holds() {
        let mut b = CtdnBuilder::with_zero_features(8, 1, StreamConfig::default());
        b.extend([ev(0, 1, 1.0), ev(0, 1, 1.0), ev(9, 9, 1.0), ev(1, 2, 3.0)]);
        let out = b.finish();
        assert_eq!(out.stats.received, 4);
        assert_eq!(out.stats.received, out.stats.released + out.stats.quarantined);
        assert_eq!(out.stats.quarantined, out.quarantine.len());
    }

    #[test]
    fn drain_released_reports_releases_in_release_order() {
        let cfg = StreamConfig {
            lateness: 2.0,
            track_releases: true,
            ..StreamConfig::default()
        };
        let mut b = CtdnBuilder::with_zero_features(8, 1, cfg);
        b.push(ev(1, 2, 2.0));
        b.push(ev(0, 1, 1.0));
        assert!(b.drain_released().is_empty(), "watermark 0.0 released nothing");
        b.push(ev(2, 3, 5.0)); // watermark 3.0 → t=1,2 release, resorted
        let first: Vec<f64> = b.drain_released().iter().map(|e| e.time).collect();
        assert_eq!(first, vec![1.0, 2.0]);
        assert!(b.drain_released().is_empty(), "drain consumes the log");
        b.flush_buffer();
        let tail: Vec<f64> = b.drain_released().iter().map(|e| e.time).collect();
        assert_eq!(tail, vec![5.0]);
        // The drained sequence equals the finished graph's edge order.
        let out = b.finish();
        assert_eq!(times(&out.graph), vec![1.0, 2.0, 5.0]);
        assert_eq!(out.stats.received, out.stats.released);
    }

    #[test]
    fn drain_released_is_empty_without_tracking() {
        let mut b = CtdnBuilder::with_zero_features(4, 1, StreamConfig::default());
        b.push(ev(0, 1, 1.0));
        b.flush_buffer();
        assert!(b.drain_released().is_empty());
        assert_eq!(b.finish().stats.released, 1);
    }

    #[test]
    fn flush_buffer_then_finish_matches_plain_finish() {
        let events = [ev(0, 1, 3.0), ev(1, 2, 1.0), ev(2, 3, 2.0)];
        let mut a = CtdnBuilder::with_zero_features(5, 1, StreamConfig::default());
        a.extend(events);
        let mut b = CtdnBuilder::with_zero_features(5, 1, StreamConfig::default());
        b.extend(events);
        b.flush_buffer();
        assert_eq!(b.buffer_depth(), 0);
        let (oa, ob) = (a.finish(), b.finish());
        assert_eq!(oa.graph.edges(), ob.graph.edges());
        assert_eq!(oa.stats, ob.stats);
    }

    #[test]
    fn snapshot_restore_is_bitwise_invisible_mid_stream() {
        let cfg = StreamConfig {
            lateness: 3.0,
            reorder_capacity: 4,
            clock_tolerance: 1.0,
            track_releases: true,
            origin_offsets: vec![(2, 10.0)],
            ..StreamConfig::default()
        };
        let prefix = [
            StreamEvent::from_origin(0, 1, 5.0, 0),
            StreamEvent::from_origin(1, 2, 4.0, 0),
            StreamEvent::from_origin(2, 3, 16.0, 2), // normalized 6.0
            StreamEvent::from_origin(0, 1, 5.0, 0),  // duplicate
            StreamEvent::from_origin(3, 4, f64::NAN, 0), // malformed, NaN payload
            StreamEvent::from_origin(4, 5, 9.0, 0),
        ];
        let suffix = [
            StreamEvent::from_origin(5, 6, 8.0, 0),
            StreamEvent::from_origin(6, 7, 1.0, 0), // late behind watermark
            StreamEvent::from_origin(7, 0, 12.0, 0),
        ];

        let mut live = CtdnBuilder::with_zero_features(8, 1, cfg.clone());
        live.extend(prefix);
        let text = live.snapshot();
        let mut restored =
            CtdnBuilder::restore(NodeFeatures::zeros(8, 1), cfg, &text).unwrap();
        assert_eq!(restored.snapshot(), text, "snapshot of a restore is bitwise-stable");

        for b in [&mut live, &mut restored] {
            b.extend(suffix);
            b.flush_buffer();
        }
        assert_eq!(live.drain_released(), restored.drain_released());
        let (a, b) = (live.finish(), restored.finish());
        assert_eq!(a.graph.edges(), b.graph.edges());
        assert_eq!(a.stats, b.stats);
        // NB: not `assert_eq!` on the logs themselves — the NaN-carrying
        // entry makes derived `PartialEq` self-unequal. The deterministic
        // rendering plus the explicit bit check below are the real claim.
        assert_eq!(a.quarantine.render(), b.quarantine.render());
        // The NaN raw timestamp survived with its exact bit pattern.
        let nan_entry = a
            .quarantine
            .entries()
            .iter()
            .find(|e| e.event.time.is_nan())
            .expect("NaN event quarantined");
        let nan_restored = b
            .quarantine
            .entries()
            .iter()
            .find(|e| e.event.time.is_nan())
            .unwrap();
        assert_eq!(nan_entry.event.time.to_bits(), nan_restored.event.time.to_bits());
    }

    #[test]
    fn restore_rejects_corrupt_snapshots() {
        let mut b = CtdnBuilder::with_zero_features(3, 1, StreamConfig::default());
        b.extend([ev(0, 1, 1.0), ev(0, 1, 1.0)]);
        let text = b.snapshot();
        let feats = || NodeFeatures::zeros(3, 1);
        assert!(CtdnBuilder::restore(feats(), StreamConfig::default(), "").is_err());
        assert!(CtdnBuilder::restore(feats(), StreamConfig::default(), "wrong v9\n").is_err());
        let truncated = &text[..text.len() / 2];
        assert!(CtdnBuilder::restore(feats(), StreamConfig::default(), truncated).is_err());
        let tampered = text.replacen("quarantine 1", "quarantine 0", 1);
        let err = CtdnBuilder::restore(feats(), StreamConfig::default(), &tampered);
        assert!(err.is_err(), "log/stats disagreement must be caught");
    }

    #[test]
    fn from_entries_recomputes_counts() {
        let log = QuarantineLog::from_entries([
            QuarantinedEvent { seq: 1, event: ev(0, 1, 1.0), reason: RejectReason::Duplicate },
            QuarantinedEvent { seq: 2, event: ev(0, 2, 1.0), reason: RejectReason::Duplicate },
            QuarantinedEvent {
                seq: 3,
                event: ev(0, 3, -1.0),
                reason: RejectReason::Malformed(GraphError::BadTimestamp { time: -1.0 }),
            },
        ]);
        assert_eq!(log.len(), 3);
        assert_eq!(log.count(RejectKind::Duplicate), 2);
        assert_eq!(log.count(RejectKind::Malformed), 1);
        assert_eq!(log.count(RejectKind::LateEvent), 0);
    }

    #[test]
    fn render_is_deterministic_and_labeled() {
        let run = || {
            let mut b = CtdnBuilder::with_zero_features(3, 1, StreamConfig::default());
            b.extend([ev(0, 1, 1.0), ev(0, 1, 1.0), ev(0, 9, 2.0)]);
            b.finish().quarantine.render()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.starts_with("late_event=0 duplicate=1 non_monotonic_clock=0 malformed=1 buffer_overflow=0"));
        assert!(a.contains("#2 duplicate src=0 dst=1"));
        assert!(a.contains("#3 malformed src=0 dst=9"));
    }
}
