//! Per-layer instruments for the traced run. Each layer is measured from
//! outside, by timing calls into its public interface: a scorer wrapper
//! around the model handed to `SessionServer`, a storage wrapper passed as
//! `ServeConfig::vfs`, a classifier wrapper handed to `train_guarded`, a
//! standalone replay through the stream builder, and the tensor crate's own
//! op profiler. Nothing inside the program changes.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpgnn_core::{GraphClassifier, IncrementalScorer, SessionState, TpGnn};
use tpgnn_graph::stream::{CtdnBuilder, StreamConfig};
use tpgnn_graph::{Ctdn, NodeFeatures, TemporalEdge};
use tpgnn_obs::metrics;
use tpgnn_obs::vfs::{Vfs, VfsError, VfsFile};
use tpgnn_tensor::{profile, Tape};

use crate::report::Metrics;
use crate::traffic::Traffic;

/// Calls, busy nanoseconds and a work count for one layer operation. The
/// counters are statistics only, so relaxed ordering suffices.
#[derive(Debug, Default)]
pub struct Meter {
    calls: AtomicU64,
    ns: AtomicU64,
    units: AtomicU64,
}

impl Meter {
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.record(t0.elapsed());
        out
    }

    pub fn record(&self, busy: Duration) {
        self.ns.fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_units(&self, n: u64) {
        self.units.fetch_add(n, Ordering::Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn busy_ms(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    pub fn units(&self) -> u64 {
        self.units.load(Ordering::Relaxed)
    }

    /// `<prefix>.calls`, `<prefix>.busy_ms` and `<prefix>.mean_us`.
    pub fn report(&self, m: &mut Metrics, prefix: &str) {
        let calls = self.calls();
        m.count(&format!("{prefix}.calls"), calls as f64);
        m.ms(&format!("{prefix}.busy_ms"), self.busy_ms());
        let mean = if calls == 0 {
            0.0
        } else {
            self.busy_ms() * 1e3 / calls as f64
        };
        m.put(&format!("{prefix}.mean_us"), mean, "us");
    }
}

/// The `core` layer as the serving path sees it.
pub struct TimedScorer<'m, M> {
    inner: &'m M,
    pub open: Meter,
    pub advance: Meter,
    /// `units` counts edges replayed by the extractor at score time.
    pub score: Meter,
}

impl<'m, M> TimedScorer<'m, M> {
    pub fn new(inner: &'m M) -> Self {
        Self {
            inner,
            open: Meter::default(),
            advance: Meter::default(),
            score: Meter::default(),
        }
    }

    pub fn busy_ms(&self) -> f64 {
        self.open.busy_ms() + self.advance.busy_ms() + self.score.busy_ms()
    }

    pub fn report(&self, m: &mut Metrics) {
        self.open.report(m, "core.open");
        self.advance.report(m, "core.advance");
        self.score.report(m, "core.score");
        m.count("core.score.edges_replayed", self.score.units() as f64);
    }
}

impl<M: IncrementalScorer> IncrementalScorer for TimedScorer<'_, M> {
    fn open_session(
        &self,
        tape: &mut Tape,
        features: &NodeFeatures,
    ) -> Result<SessionState, String> {
        self.open.time(|| self.inner.open_session(tape, features))
    }

    fn advance_session(&self, tape: &mut Tape, state: &mut SessionState, edge: TemporalEdge) {
        self.advance
            .time(|| self.inner.advance_session(tape, state, edge))
    }

    fn score_session(&self, tape: &mut Tape, state: &SessionState) -> f32 {
        self.score.add_units(state.num_edges() as u64);
        self.score.time(|| self.inner.score_session(tape, state))
    }
}

/// The `core` layer as training sees it. `fit_epoch` steps graph by graph
/// through the public `TpGnn::train_on`, which is exactly what
/// `TpGnn::fit_epoch` does, so training is unchanged bit for bit.
pub struct TimedClassifier {
    pub inner: TpGnn,
    pub train_step: Meter,
    pub forward: Meter,
    /// Duration of every train step, in milliseconds (the closed-loop
    /// service times of the training workload).
    pub step_ms: Vec<f64>,
}

impl TimedClassifier {
    pub fn new(inner: TpGnn) -> Self {
        Self {
            inner,
            train_step: Meter::default(),
            forward: Meter::default(),
            step_ms: Vec::new(),
        }
    }

    pub fn report(&self, m: &mut Metrics) {
        self.train_step.report(m, "core.train_step");
        self.forward.report(m, "core.forward");
    }
}

impl GraphClassifier for TimedClassifier {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn fit_epoch(&mut self, train: &mut [(Ctdn, f32)]) -> f32 {
        if train.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for (g, target) in train.iter_mut() {
            let t0 = Instant::now();
            total += self.inner.train_on(g, *target);
            let busy = t0.elapsed();
            self.train_step.record(busy);
            self.step_ms.push(busy.as_secs_f64() * 1e3);
        }
        total / train.len() as f32
    }

    fn predict_proba(&mut self, g: &mut Ctdn) -> f32 {
        let inner = &mut self.inner;
        self.forward.time(|| inner.predict_proba(g))
    }

    fn predict_proba_batch(&mut self, graphs: &mut [Ctdn]) -> Vec<f32> {
        self.inner.predict_proba_batch(graphs)
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.inner.set_learning_rate(lr)
    }

    fn learning_rate(&self) -> Option<f32> {
        self.inner.learning_rate()
    }

    fn save_state(&self) -> Option<String> {
        self.inner.save_state()
    }

    fn load_state(&mut self, state: &str) -> Result<(), String> {
        self.inner.load_state(state)
    }

    fn check_finite(&self) -> Result<(), String> {
        self.inner.check_finite()
    }

    fn param_norm(&self) -> Option<f32> {
        self.inner.param_norm()
    }

    fn grad_norm(&self) -> Option<f32> {
        self.inner.grad_norm()
    }
}

/// Per-operation meters of the storage layer (`units` counts bytes).
#[derive(Debug, Default)]
pub struct VfsMeters {
    pub append: Meter,
    pub sync: Meter,
    pub create_atomic: Meter,
    pub read: Meter,
    pub rename: Meter,
    /// open_append, write, remove, list and create_dir_all.
    pub other: Meter,
    pub errors: AtomicU64,
}

impl VfsMeters {
    pub fn busy_ms(&self) -> f64 {
        [
            &self.append,
            &self.sync,
            &self.create_atomic,
            &self.read,
            &self.rename,
            &self.other,
        ]
        .iter()
        .map(|m| m.busy_ms())
        .sum()
    }

    fn note<T>(&self, r: Result<T, VfsError>) -> Result<T, VfsError> {
        if r.is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    pub fn report(&self, m: &mut Metrics) {
        for (name, meter, bytes) in [
            ("append", &self.append, true),
            ("sync", &self.sync, false),
            ("create_atomic", &self.create_atomic, true),
            ("read", &self.read, true),
            ("rename", &self.rename, false),
            ("other", &self.other, false),
        ] {
            m.count(&format!("vfs.{name}.calls"), meter.calls() as f64);
            m.ms(&format!("vfs.{name}.busy_ms"), meter.busy_ms());
            if bytes {
                m.put(&format!("vfs.{name}.bytes"), meter.units() as f64, "B");
            }
        }
        m.count("vfs.errors", self.errors.load(Ordering::Relaxed) as f64);
    }
}

/// The storage layer wrapper passed as `ServeConfig::vfs`.
#[derive(Debug)]
pub struct TimedVfs {
    inner: Arc<dyn Vfs>,
    pub meters: Arc<VfsMeters>,
}

impl TimedVfs {
    pub fn new(inner: Arc<dyn Vfs>) -> Self {
        Self {
            inner,
            meters: Arc::default(),
        }
    }
}

struct TimedFile {
    inner: Box<dyn VfsFile>,
    meters: Arc<VfsMeters>,
}

impl VfsFile for TimedFile {
    fn append(&mut self, buf: &[u8]) -> Result<(), VfsError> {
        self.meters.append.add_units(buf.len() as u64);
        let r = self.meters.append.time(|| self.inner.append(buf));
        self.meters.note(r)
    }

    fn sync(&mut self) -> Result<(), VfsError> {
        let r = self.meters.sync.time(|| self.inner.sync());
        self.meters.note(r)
    }
}

impl Vfs for TimedVfs {
    fn open_append(&self, path: &Path) -> Result<Box<dyn VfsFile>, VfsError> {
        let r = self.meters.other.time(|| self.inner.open_append(path));
        let file = self.meters.note(r)?;
        Ok(Box::new(TimedFile {
            inner: file,
            meters: Arc::clone(&self.meters),
        }))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError> {
        let r = self.meters.other.time(|| self.inner.write(path, bytes));
        self.meters.note(r)
    }

    fn create_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError> {
        self.meters.create_atomic.add_units(bytes.len() as u64);
        let r = self
            .meters
            .create_atomic
            .time(|| self.inner.create_atomic(path, bytes));
        self.meters.note(r)
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, VfsError> {
        let r = self.meters.read.time(|| self.inner.read(path));
        if let Ok(bytes) = &r {
            self.meters.read.add_units(bytes.len() as u64);
        }
        self.meters.note(r)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), VfsError> {
        let r = self.meters.rename.time(|| self.inner.rename(from, to));
        self.meters.note(r)
    }

    fn remove(&self, path: &Path) -> Result<(), VfsError> {
        let r = self.meters.other.time(|| self.inner.remove(path));
        self.meters.note(r)
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>, VfsError> {
        let r = self.meters.other.time(|| self.inner.list(dir));
        self.meters.note(r)
    }

    fn create_dir_all(&self, dir: &Path) -> Result<(), VfsError> {
        let r = self.meters.other.time(|| self.inner.create_dir_all(dir));
        self.meters.note(r)
    }
}

/// The `graph.stream` layer: every session's offered arrival sequence
/// replayed through a standalone builder with the server's stream config,
/// draining releases after each push as the server does.
#[derive(Debug, Default)]
pub struct StreamReplay {
    pub push: Meter,
    pub released: u64,
    pub quarantined: u64,
    pub depth_max: u64,
}

impl StreamReplay {
    pub fn run(traffic: &Traffic, cfg: &StreamConfig) -> Self {
        let mut per_session: Vec<Vec<_>> = vec![Vec::new(); traffic.features.len()];
        for se in traffic.batches.iter().flatten() {
            per_session[se.session as usize].push(se.event);
        }
        let cfg = StreamConfig {
            track_releases: true,
            ..cfg.clone()
        };
        let mut out = Self::default();
        for (events, features) in per_session.iter().zip(&traffic.features) {
            let mut builder = CtdnBuilder::new(features.clone(), cfg.clone());
            for ev in events {
                out.push.time(|| {
                    builder.push(*ev);
                    builder.drain_released()
                });
            }
            builder.flush_buffer();
            builder.drain_released();
            let stats = builder.finish().stats;
            out.released += stats.released as u64;
            out.quarantined += stats.quarantined as u64;
            out.depth_max = out.depth_max.max(stats.max_buffer_depth as u64);
        }
        out
    }

    pub fn report(&self, m: &mut Metrics) {
        self.push.report(m, "stream.push");
        m.count("stream.released", self.released as f64);
        m.count("stream.quarantined", self.quarantined as f64);
        m.count("stream.reorder_depth_max", self.depth_max as f64);
    }
}

/// Op kinds reported one by one. Fixed so every run reports the same
/// metric names; `tensor.top_ops_share` says how much of the tape time
/// they cover.
pub const TOP_OPS: [&str; 8] = [
    "matmul", "param", "tanh", "add", "sigmoid", "mul", "add_row", "input",
];

/// Tasks the worker pool has run and their summed busy milliseconds so
/// far (the pool times tasks only when it fans out).
pub fn pool_totals() -> (u64, f64) {
    let tasks = metrics::counter("pool.tasks").get();
    let task_ms = metrics::histogram("pool.task_ms", &metrics::exponential_buckets(0.25, 4.0, 12));
    (tasks, task_ms.snapshot().sum)
}

/// Start a fresh tape-profile window.
pub fn tensor_profile_start() {
    profile::reset();
    profile::set_enabled(true);
}

/// Close the tape-profile window and report it.
pub fn tensor_profile_report(m: &mut Metrics) {
    profile::set_enabled(false);
    let snap = profile::snapshot();
    let ms = |ns: u64| ns as f64 / 1e6;
    let fwd: u64 = snap.iter().map(|p| p.fwd_ns).sum();
    let bwd: u64 = snap.iter().map(|p| p.bwd_ns).sum();
    m.ms("tensor.fwd_ms", ms(fwd));
    m.ms("tensor.bwd_ms", ms(bwd));
    m.count(
        "tensor.ops",
        snap.iter().map(|p| p.calls).sum::<u64>() as f64,
    );
    m.put(
        "tensor.out_bytes",
        snap.iter().map(|p| p.elems).sum::<u64>() as f64 * 4.0,
        "B",
    );
    let mut covered = 0u64;
    for name in TOP_OPS {
        let p = snap.iter().find(|p| p.name == name);
        let (calls, f, b) = p.map_or((0, 0, 0), |p| (p.calls, p.fwd_ns, p.bwd_ns));
        covered += f + b;
        m.count(&format!("tensor.{name}.calls"), calls as f64);
        m.ms(&format!("tensor.{name}.fwd_ms"), ms(f));
        m.ms(&format!("tensor.{name}.bwd_ms"), ms(b));
    }
    let total = fwd + bwd;
    m.put(
        "tensor.top_ops_share",
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        },
        "share",
    );
}
