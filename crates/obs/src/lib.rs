//! # tpgnn-obs
//!
//! Zero-dependency observability for the TP-GNN reproduction. The workspace
//! builds fully offline, so instead of `tracing`/`metrics`/`serde_json`
//! this crate provides, from scratch:
//!
//! * [`trace`] — structured spans and events with monotonic timestamps, a
//!   thread-local span stack, a JSONL sink under `results/trace-<name>.jsonl`
//!   (enabled by the `TPGNN_TRACE` env var) and a human-readable end-of-run
//!   summary,
//! * [`metrics`] — a process-wide registry of counters, gauges, and
//!   fixed-bucket histograms with p50/p95/max snapshots, serialized to JSON
//!   alongside the trace,
//! * [`opprof`] — the lock-free per-op-kind profiler that `tpgnn-tensor`
//!   hooks into its [`Tape`](../tpgnn_tensor/struct.Tape.html), recording
//!   call counts, forward/backward wall time, and output elements allocated,
//! * [`json`] — a minimal JSON value type, writer, and parser shared by the
//!   sinks and the reader,
//! * [`reader`] — a snapshot reader that parses traces back for tests and
//!   the CI smoke check (strict and lossy variants — a live trace file can
//!   end mid-line),
//! * [`snapshot`] — live telemetry: windowed metrics deltas appended as a
//!   JSONL time series plus a Prometheus-style exposition file atomically
//!   replaced each tick, driven by an explicit writer or a ticker thread,
//! * [`codec`] — the bit-exact line codec every text format shares:
//!   IEEE-754 hex float codecs, `parse_num`, and a [`codec::LineReader`]
//!   that pops tagged lines and lends multi-line blocks as sub-slices,
//! * [`vfs`] — the fault-injectable storage layer every durability path
//!   (checkpoints, journals, spills, telemetry files) goes through: a
//!   [`vfs::Vfs`] trait with typed errors, `StdVfs`, a seeded `FaultVfs`
//!   injector with an exact fault ledger, and a retry/backoff wrapper that
//!   feeds the `io.*` counters.
//!
//! Overhead policy: every recording entry point is gated on one relaxed
//! atomic load ([`trace::enabled`] / [`opprof::op_start`]). With tracing
//! disabled nothing allocates, locks, or formats — the training smoke bench
//! must stay within 5% of the checked-in baseline (enforced by CI's bench
//! comparison).
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod json;
pub mod metrics;
pub mod opprof;
pub mod reader;
pub mod snapshot;
pub mod trace;
pub mod vfs;

pub use json::Json;
pub use trace::{enabled, event, finish, init, init_to, span, warn, Span};
