//! The three serving workloads: seeded forum-java sessions driven through a
//! `SessionServer`, first in a closed loop (back-to-back requests) and then
//! in an open loop at a fixed offered rate.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpgnn_core::{GraphClassifier, IncrementalScorer, TpGnn, TpGnnConfig};
use tpgnn_data::chaos::FaultPlan;
use tpgnn_graph::stream::CtdnBuilder;
use tpgnn_obs::vfs::Vfs;
use tpgnn_serve::{ScoreKind, ScoreRecord, ServeConfig, ServeError, ServeStats, SessionServer};

use crate::layers::{self, StreamReplay, TimedScorer, TimedVfs};
use crate::report::{
    median, peak_rss_mb, percentile, reset_peak_rss, typical, Fnv, Metrics, RunResult,
};
use crate::store::MemVfs;
use crate::traffic::{self, Traffic, TrafficPlan};
use crate::{Ctx, FANOUT_WIDTH, SETUP_FIRST};

/// Global-clock distance between session starts.
const SPACING: f64 = 0.05;
/// Watermark gap: a session closes once the clock is this far past it.
const SESSION_GAP: f64 = 10.0;
/// Events per `ingest` request.
const BATCH: usize = 64;
/// Open-loop requests slower than this miss the latency objective.
const SLO_MS: f64 = 20.0;
/// Fewest rounds (one closed-loop and one open-loop pass each) in an
/// untraced run.
const MIN_ROUNDS: usize = 5;
/// Every `CHECK_EVERY`-th session's final score is checked against batch
/// `predict_proba` on the graph its events build.
const CHECK_EVERY: u64 = 8;

/// One serving regime.
pub struct ServeSpec {
    pub gru: bool,
    pub early_warning_every: usize,
    pub journal: bool,
    pub max_resident: usize,
    pub spill: bool,
    /// Sessions per closed-loop repetition (and per open-loop cycle).
    pub sessions: usize,
    /// Open-loop offered rate, events per second.
    pub rate_eps: f64,
}

fn fault_plan() -> FaultPlan {
    FaultPlan {
        delay_rate: 0.02,
        delay_margin: 3.0,
        ..FaultPlan::mixed(0.05)
    }
}

/// A server configuration for `spec` over `vfs`. The journal and spill
/// paths live inside `vfs`, which is fresh for every server.
fn config(spec: &ServeSpec, vfs: Arc<dyn Vfs>) -> ServeConfig {
    ServeConfig {
        stream: fault_plan().stream_config(),
        session_gap: SESSION_GAP,
        early_warning_every: spec.early_warning_every,
        max_resident_sessions: spec.max_resident,
        spill_dir: spec.spill.then(|| PathBuf::from("spill")),
        journal_dir: spec.journal.then(|| PathBuf::from("journal")),
        vfs: Some(vfs),
        ..ServeConfig::default()
    }
}

/// A fresh server configuration with its own empty store.
fn fresh(spec: &ServeSpec) -> ServeConfig {
    config(spec, Arc::new(MemVfs::default()))
}

/// Checks one full pass of the traffic through a fresh server and folds
/// its records into a digest.
struct PassCheck<'t> {
    traffic: &'t Traffic,
    digest: Fnv,
    received: usize,
    /// Final probabilities of the sessions picked for the batch check.
    finals: Vec<(u64, f32, usize)>,
    problems: Vec<String>,
}

impl<'t> PassCheck<'t> {
    fn new(traffic: &'t Traffic) -> Self {
        Self {
            traffic,
            digest: Fnv::default(),
            received: 0,
            finals: Vec::new(),
            problems: Vec::new(),
        }
    }

    fn absorb(&mut self, records: &[ScoreRecord]) {
        for r in records {
            let kind = match r.kind {
                ScoreKind::Early => 0u8,
                ScoreKind::Final => 1u8,
            };
            self.digest.feed(&r.session.to_le_bytes());
            self.digest.feed(&[kind]);
            self.digest.feed(&r.proba.to_bits().to_le_bytes());
            self.digest.feed(&(r.edges as u64).to_le_bytes());
            if let (ScoreKind::Final, Some(s)) = (r.kind, r.stats) {
                self.received += s.received;
                if s.received != s.released + s.quarantined {
                    self.problems.push(format!(
                        "session {}: received {} != released {} + quarantined {}",
                        r.session, s.received, s.released, s.quarantined
                    ));
                }
                if r.session % CHECK_EVERY == 0 {
                    self.finals.push((r.session, r.proba, s.received));
                }
            }
        }
    }

    fn finish(mut self, stats: &ServeStats) -> (Fnv, Vec<(u64, f32, usize)>, Vec<String>) {
        let lost = stats.dropped_closed
            + stats.dropped_poisoned
            + stats.dropped_refused
            + stats.shed_refused_events;
        if self.traffic.total_events != self.received + lost {
            self.problems.push(format!(
                "events offered {} != received {} + dropped/shed {}",
                self.traffic.total_events, self.received, lost
            ));
        }
        if stats.opened != stats.closed {
            self.problems.push(format!(
                "opened {} != closed {} after close_all",
                stats.opened, stats.closed
            ));
        }
        (self.digest, self.finals, self.problems)
    }
}

/// One closed-loop repetition: back-to-back requests on a fresh server.
struct Rep {
    wall_s: f64,
    request_ms: Vec<f64>,
    stats: ServeStats,
    resident_max: usize,
    digest: Fnv,
    finals: Vec<(u64, f32, usize)>,
    problems: Vec<String>,
    failed: u64,
    /// One span per request when child times are measured: start, duration
    /// and events, then the core and storage milliseconds inside it.
    spans: Vec<(f64, f64, usize, f64, f64)>,
}

/// Run one pass of `traffic` back to back. `children`, when given, reads
/// the running core and storage busy milliseconds, so each request's span
/// carries its child totals.
fn closed_rep<M: IncrementalScorer + Sync>(
    model: &M,
    cfg: ServeConfig,
    traffic: &Traffic,
    children: Option<&dyn Fn() -> (f64, f64)>,
) -> Result<Rep, ServeError> {
    let mut server = SessionServer::new(model, cfg)?;
    let mut check = PassCheck::new(traffic);
    let mut request_ms = Vec::with_capacity(traffic.batches.len() + 1);
    let mut spans = Vec::new();
    let mut resident_max = 0;
    let mut failed = 0;
    let t0 = Instant::now();
    for b in 0..=traffic.batches.len() {
        let before = children.map(|c| c());
        let r0 = Instant::now();
        let out = if let Some(batch) = traffic.batches.get(b) {
            for &sid in &traffic.starts[b] {
                server.register(sid, traffic.features[sid as usize].clone());
            }
            server.ingest(batch)
        } else {
            server.close_all()
        };
        let dur = r0.elapsed().as_secs_f64() * 1e3;
        request_ms.push(dur);
        if let (Some(c), Some((core0, vfs0))) = (children, before) {
            let (core1, vfs1) = c();
            let events = traffic.batches.get(b).map_or(0, Vec::len);
            let start = (r0 - t0).as_secs_f64() * 1e3;
            spans.push((start, dur, events, core1 - core0, vfs1 - vfs0));
        }
        resident_max = resident_max.max(server.resident());
        match out {
            Ok(records) => check.absorb(&records),
            Err(_) => failed += 1,
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = *server.stats();
    let (digest, finals, problems) = check.finish(&stats);
    Ok(Rep {
        wall_s,
        request_ms,
        stats,
        resident_max,
        digest,
        finals,
        problems,
        failed,
        spans,
    })
}

/// Sleep until 200 µs before `due`, then spin. Returns how late the
/// generator itself was, in microseconds.
pub fn wait_until(due: Instant) -> f64 {
    loop {
        let now = Instant::now();
        if now >= due {
            return (now - due).as_secs_f64() * 1e6;
        }
        let left = due - now;
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Whole passes of the traffic that fill about `seconds` at `rate_eps`.
fn open_passes(traffic: &Traffic, rate_eps: f64, seconds: f64) -> usize {
    let pass_s = traffic.total_events as f64 / rate_eps;
    ((seconds / pass_s).round() as usize).max(1)
}

/// Open-loop measurements, accumulated over one or more segments.
#[derive(Default)]
struct OpenLoop {
    /// Latency of every `ingest` request sent, one list per pass.
    passes: Vec<Vec<f64>>,
    oversleep_us: Vec<f64>,
    sent: u64,
    failed: u64,
    digests: Vec<Fnv>,
    problems: Vec<String>,
}

impl OpenLoop {
    /// Replay the traffic's `ingest` requests at `rate_eps`, `passes` whole
    /// times, one fresh server per pass, timing each request from when it
    /// was due. Between passes the generator closes the finished pass with
    /// `close_all` and builds the next server off the clock (the schedule
    /// pauses), so the latencies describe steady ingest, not end-of-stream
    /// flushes.
    fn run<M: IncrementalScorer + Sync>(
        &mut self,
        model: &M,
        mut mk_cfg: impl FnMut() -> ServeConfig,
        traffic: &Traffic,
        rate_eps: f64,
        passes: usize,
    ) {
        // A generator that falls this far behind stops sending; the requests
        // it never sent count as failed.
        let schedule_s = passes as f64 * traffic.total_events as f64 / rate_eps;
        let give_up = Duration::from_secs_f64(2.0 * schedule_s + 5.0);
        let wall = Instant::now();
        let mut origin = wall;
        let mut due_s = 0.0f64;
        for _ in 0..passes {
            let pause = Instant::now();
            let mut server = match SessionServer::new(model, mk_cfg()) {
                Ok(s) => s,
                Err(e) => {
                    self.problems
                        .push(format!("open loop: server construction failed: {e}"));
                    return;
                }
            };
            origin += pause.elapsed();
            let mut check = PassCheck::new(traffic);
            let mut latency_ms = Vec::with_capacity(traffic.batches.len());
            for (batch, starts) in traffic.batches.iter().zip(&traffic.starts) {
                let due = origin + Duration::from_secs_f64(due_s);
                due_s += batch.len() as f64 / rate_eps;
                if wall.elapsed() > give_up {
                    self.failed += 1;
                    continue;
                }
                if Instant::now() < due {
                    self.oversleep_us.push(wait_until(due));
                }
                self.sent += 1;
                for &sid in starts {
                    server.register(sid, traffic.features[sid as usize].clone());
                }
                let result = server.ingest(batch);
                latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
                match result {
                    Ok(records) => check.absorb(&records),
                    Err(_) => self.failed += 1,
                }
            }
            let pause = Instant::now();
            self.sent += 1;
            match server.close_all() {
                Ok(records) => check.absorb(&records),
                Err(_) => self.failed += 1,
            }
            let (digest, _, problems) = check.finish(server.stats());
            drop(server);
            origin += pause.elapsed();
            self.digests.push(digest);
            self.problems.extend(problems);
            self.passes.push(latency_ms);
        }
    }
}

/// Final scores of the picked sessions must equal batch `predict_proba`
/// on the graph a standalone builder makes of the same events, for every
/// session that lost none of its events.
fn check_against_batch(
    model: &mut TpGnn,
    traffic: &Traffic,
    finals: &[(u64, f32, usize)],
    res: &mut RunResult,
) {
    let cfg = fault_plan().stream_config();
    let mut checked = 0;
    for &(sid, proba, received) in finals {
        if received != traffic.offered[sid as usize] {
            continue;
        }
        let mut builder = CtdnBuilder::new(traffic.features[sid as usize].clone(), cfg.clone());
        builder.extend(
            traffic
                .batches
                .iter()
                .flatten()
                .filter(|se| se.session == sid)
                .map(|se| se.event),
        );
        let mut g = builder.finish().graph;
        let want = model.predict_proba(&mut g);
        res.check(want.to_bits() == proba.to_bits(), || {
            format!("session {sid}: served score {proba} != batch predict_proba {want}")
        });
        checked += 1;
    }
    res.check(checked > 0, || {
        "no session was eligible for the batch check".into()
    });
    res.fact("batch_checked_sessions", checked);
}

pub fn run(spec: &ServeSpec, ctx: &Ctx) -> RunResult {
    let mut res = RunResult::default();
    let plan = TrafficPlan {
        sessions: spec.sessions,
        seed: ctx.seed,
        fault: fault_plan(),
        spacing: SPACING,
        batch_size: BATCH,
    };
    let build_model = || {
        let cfg = if spec.gru {
            TpGnnConfig::gru(3)
        } else {
            TpGnnConfig::sum(3)
        };
        TpGnn::new(cfg.with_seed(7))
    };

    // Set-up: generate the traffic and build the model.
    let mut setup_s = Vec::new();
    let set_up = |setup_s: &mut Vec<f64>| {
        let t0 = Instant::now();
        let t = traffic::generate(&plan);
        let m = build_model();
        setup_s.push(t0.elapsed().as_secs_f64());
        (t, m)
    };
    let mut built = None;
    for _ in 0..SETUP_FIRST {
        drop(built.take());
        built = Some(set_up(&mut setup_s));
    }
    let (traffic, mut model) = built.expect("at least one set-up");
    eprintln!(
        "  traffic: {} sessions, {} events in {} requests",
        spec.sessions,
        traffic.total_events,
        traffic.batches.len() + 1
    );

    let warm = match closed_rep(&model, fresh(spec), &traffic, None) {
        Ok(rep) => rep,
        Err(e) => {
            res.problems.push(format!("warm-up failed: {e}"));
            return res;
        }
    };
    let reference = warm.digest;
    let lost = warm.stats.dropped_closed
        + warm.stats.dropped_poisoned
        + warm.stats.dropped_refused
        + warm.stats.shed_refused_events;
    let event_loss_share = lost as f64 / traffic.total_events as f64;
    res.problems.extend(warm.problems);
    res.fact("digest", format!("{:016x}", reference.0));
    res.fact("events_per_rep", traffic.total_events);
    res.fact("event_loss_share", event_loss_share);
    let l = traffic.ledger;
    res.fact(
        "faults_injected",
        format!(
            "duplicated {} corrupted {} dropped {} delayed {} shuffled_windows {}",
            l.duplicated, l.corrupted, l.dropped, l.delayed, l.shuffled_windows
        ),
    );

    // Every measured pass must reproduce the warm-up's records exactly.
    let accept = |res: &mut RunResult, what: &str, rep: Result<Rep, ServeError>| match rep {
        Ok(rep) => {
            res.check(rep.digest == reference, || {
                format!(
                    "{what}: digest {:016x} != {:016x}",
                    rep.digest.0, reference.0
                )
            });
            res.problems.extend(rep.problems.iter().cloned());
            res.attempted += rep.request_ms.len() as u64;
            res.failed += rep.failed;
            Some(rep)
        }
        Err(e) => {
            res.problems.push(format!("{what}: {e}"));
            None
        }
    };

    let mut m = Metrics::default();
    if !ctx.trace {
        // Rounds of one set-up, one closed-loop pass and one open-loop pass
        // fill `--seconds`. Interleaving spreads every kind of sample over
        // the whole run, so a slow stretch of a shared machine (whose speed
        // drifts over seconds) lands on few passes of either loop. The
        // set-ups run off the clock. The peak resident size is taken per
        // closed-loop pass.
        let round_s = warm.wall_s + traffic.total_events as f64 / spec.rate_eps;
        let rounds = ((ctx.seconds / round_s).round() as usize).max(MIN_ROUNDS);
        let mut reps = Vec::new();
        let mut rss_mb = Vec::new();
        let mut open = OpenLoop::default();
        for i in 0..rounds {
            drop(set_up(&mut setup_s));
            reset_peak_rss();
            let rep = closed_rep(&model, fresh(spec), &traffic, None);
            rss_mb.push(peak_rss_mb());
            reps.extend(accept(&mut res, &format!("closed-loop pass {i}"), rep));
            open.run(&model, || fresh(spec), &traffic, spec.rate_eps, 1);
        }
        absorb_open(&mut res, &open, reference);
        let caps_text: Vec<String> = reps
            .iter()
            .map(|r| format!("{:.0}", traffic.total_events as f64 / r.wall_s))
            .collect();
        res.fact("rep_capacity_per_s", caps_text.join(" "));
        let rss_text: Vec<String> = rss_mb.iter().map(|r| format!("{r:.1}")).collect();
        res.fact("rep_peak_rss_mb", rss_text.join(" "));
        let service = typical(
            &reps
                .iter()
                .map(|r| r.request_ms.as_slice())
                .collect::<Vec<_>>(),
        );
        res.fact("setups", setup_s.len());
        m.put("setup_s", median(&setup_s), "s");
        m.put("peak_rss_mb", median(&rss_mb), "MB");
        m.put(
            "capacity_per_s",
            traffic.total_events as f64 / (service.iter().sum::<f64>() / 1e3),
            "1/s",
        );
        m.ms("service_p50_ms", percentile(&service, 50.0));
        m.ms("service_p99_ms", percentile(&service, 99.0));
        let latency: Vec<&[f64]> = open.passes.iter().map(Vec::as_slice).collect();
        let typical_latency = typical(&latency);
        m.ms("latency_p50_ms", percentile(&typical_latency, 50.0));
        m.ms("latency_p99_ms", percentile(&typical_latency, 99.0));
        res.fact(
            "latency_p99_whole_run_ms",
            percentile(&latency.concat(), 99.0),
        );
        res.fact("requests_per_pass", service.len());
        res.fact("closed_loop_passes", reps.len());
        res.fact("open_loop_passes", latency.len());
        let per_pass: Vec<String> = latency
            .iter()
            .map(|l| format!("{:.3}", percentile(l, 99.0)))
            .collect();
        res.fact("pass_latency_p99_ms", per_pass.join(" "));
    } else {
        // One pass fanned out at `FANOUT_WIDTH`, then three at width 1:
        // untraced, through the layer wrappers, and under the tape profiler.
        let (tasks0, task_ms0) = layers::pool_totals();
        let wide = tpgnn_par::with_thread_override(FANOUT_WIDTH, || {
            closed_rep(&model, fresh(spec), &traffic, None)
        });
        let (tasks, task_ms) = layers::pool_totals();
        let scorer = TimedScorer::new(&model);
        let timed_vfs = Arc::new(TimedVfs::new(Arc::new(MemVfs::default())));
        let meters = Arc::clone(&timed_vfs.meters);
        let children = || (scorer.busy_ms(), meters.busy_ms());
        let (narrow, traced, profiled) = tpgnn_par::with_thread_override(1, || {
            let narrow = closed_rep(&model, fresh(spec), &traffic, None);
            let traced = closed_rep(&scorer, config(spec, timed_vfs), &traffic, Some(&children));
            layers::tensor_profile_start();
            let profiled = closed_rep(&model, fresh(spec), &traffic, None);
            layers::tensor_profile_report(&mut m);
            (narrow, traced, profiled)
        });
        let stream = StreamReplay::run(&traffic, &fault_plan().stream_config());
        let mut open = OpenLoop::default();
        let passes = open_passes(&traffic, spec.rate_eps, ctx.seconds);
        open.run(&model, || fresh(spec), &traffic, spec.rate_eps, passes);
        absorb_open(&mut res, &open, reference);
        let wide = accept(&mut res, "fan-out pass", wide);
        let narrow = accept(&mut res, "width-1 pass", narrow);
        let traced = accept(&mut res, "traced pass", traced);
        accept(&mut res, "profiled pass", profiled);
        if let (Some(wide), Some(narrow), Some(traced)) = (wide, narrow, traced) {
            scorer.report(&mut m);
            meters.report(&mut m);
            stream.report(&mut m);
            let busy: f64 = traced.request_ms.iter().sum();
            let self_ms = busy - scorer.busy_ms() - meters.busy_ms() - stream.push.busy_ms();
            m.count("serve.requests", traced.request_ms.len() as f64);
            m.ms("serve.busy_ms", busy);
            m.ms("serve.self_ms", self_ms);
            m.put("serve.self_share", self_ms / busy, "share");
            let s = traced.stats;
            m.count("serve.resident_max", traced.resident_max as f64);
            m.count("serve.evicted", s.evicted as f64);
            m.count("serve.restored", s.restored as f64);
            m.count("serve.early_suspensions", s.early_suspensions as f64);
            m.count("serve.dropped_closed", s.dropped_closed as f64);
            m.count("serve.early_scores", s.early_scores as f64);
            m.count("serve.final_scores", s.final_scores as f64);
            m.put("par.fanout_speedup", narrow.wall_s / wide.wall_s, "ratio");
            m.count("pool.tasks", (tasks - tasks0) as f64);
            m.ms("pool.task_ms", task_ms - task_ms0);
            m.put(
                "trace.overhead",
                traced.wall_s / narrow.wall_s - 1.0,
                "share",
            );
            eprintln!(
                "  requests {busy:.1} ms = core {:.1} + vfs {:.1} + stream {:.1} + serve self {self_ms:.1} (residual {:.1}%)",
                scorer.busy_ms(),
                meters.busy_ms(),
                stream.push.busy_ms(),
                100.0 * self_ms / busy
            );
            write_spans(ctx, &traced.spans);
        }
        m.put("serve.event_loss_share", event_loss_share, "share");
        m.put("serve.slo_miss_share", slo_miss_share(&open), "share");
        m.put(
            "loadgen.oversleep_p99_us",
            percentile(&open.oversleep_us, 99.0),
            "us",
        );
    }
    check_against_batch(&mut model, &traffic, &warm.finals, &mut res);
    res.metrics = m;
    res
}

fn slo_miss_share(open: &OpenLoop) -> f64 {
    let attempted = open.sent + open.failed;
    let slow = open
        .passes
        .iter()
        .flatten()
        .filter(|&&l| l > SLO_MS)
        .count() as u64;
    if attempted == 0 {
        0.0
    } else {
        (slow + open.failed) as f64 / attempted as f64
    }
}

fn absorb_open(res: &mut RunResult, open: &OpenLoop, reference: Fnv) {
    res.check(!open.passes.is_empty(), || {
        "open loop completed no pass of the traffic".into()
    });
    for (i, d) in open.digests.iter().enumerate() {
        res.check(*d == reference, || {
            format!(
                "open-loop pass {i}: digest {:016x} != {:016x}",
                d.0, reference.0
            )
        });
    }
    res.problems.extend(open.problems.iter().cloned());
    res.attempted += open.sent + open.failed;
    res.failed += open.failed;
    res.fact("slo_miss_share", slo_miss_share(open));
    res.fact("oversleep_p99_us", percentile(&open.oversleep_us, 99.0));
}

fn write_spans(ctx: &Ctx, spans: &[(f64, f64, usize, f64, f64)]) {
    use std::fmt::Write as _;
    let mut text = String::new();
    for (i, (start, dur, events, core, vfs)) in spans.iter().enumerate() {
        let _ = writeln!(
            text,
            "{{\"span\":\"serve.request\",\"id\":{i},\"start_ms\":{start:.4},\"dur_ms\":{dur:.4},\"events\":{events},\"children\":{{\"core_ms\":{core:.4},\"vfs_ms\":{vfs:.4}}}}}"
        );
    }
    let path = ctx
        .out_dir
        .join(format!("spans-{}-s{}.jsonl", ctx.workload, ctx.seed));
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir).and_then(|()| std::fs::write(&path, text))
    {
        eprintln!("  cannot write {}: {e}", path.display());
    }
}
