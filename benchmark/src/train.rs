//! The training workload: Table II's path for TP-GNN-GRU on Forum-java.
//! Train with `train_guarded`, classify the test split in batch passes,
//! then classify single test graphs at a fixed offered rate.

use std::time::{Duration, Instant};

use tpgnn_core::{train_guarded, GraphClassifier, GuardConfig, TpGnn, TpGnnConfig, TrainConfig};
use tpgnn_data::DatasetKind;
use tpgnn_eval::{to_pairs, Metrics as Scores};
use tpgnn_graph::Ctdn;

use crate::layers::{self, TimedClassifier};
use crate::report::{median, peak_rss_mb, percentile, reset_peak_rss, typical, Metrics, RunResult};
use crate::{Ctx, FANOUT_WIDTH, SETUP_FIRST};

/// Requests slower than this miss the latency objective.
const SLO_MS: f64 = 20.0;
/// Rounds of an untraced run: each trains a fresh model, then runs a
/// segment of the open loop.
const ROUNDS: usize = 5;

pub struct TrainSpec {
    /// Graphs generated; the first 30 % train, the rest test.
    pub graphs: usize,
    pub epochs: usize,
    /// Batch inference passes over the test split.
    pub passes: usize,
    /// Open-loop offered rate, graphs per second.
    pub rate_gps: f64,
}

struct Setup {
    train: Vec<(Ctdn, f32)>,
    test: Vec<Ctdn>,
    truth: Vec<bool>,
    model: TpGnn,
}

fn fresh_model() -> TpGnn {
    let mut model = TpGnn::new(TpGnnConfig::gru(3).with_seed(7));
    model.set_learning_rate(3e-3);
    model
}

fn setup(spec: &TrainSpec, seed: u64) -> Setup {
    let ds = DatasetKind::ForumJava.generate(spec.graphs, seed);
    let (train, test) = ds.split(0.3);
    Setup {
        train: to_pairs(train),
        test: test.iter().map(|lg| lg.graph.clone()).collect(),
        truth: test.iter().map(|lg| lg.label).collect(),
        model: fresh_model(),
    }
}

/// One batch pass over the test split; returns probabilities and seconds.
fn pass(model: &mut dyn GraphClassifier, test: &[Ctdn]) -> (Vec<f32>, f64) {
    let mut graphs = test.to_vec();
    let t0 = Instant::now();
    let probs = model.predict_proba_batch(&mut graphs);
    (probs, t0.elapsed().as_secs_f64())
}

/// The open loop: one test graph per request at a fixed rate, in whole
/// cycles over the test split, run in segments.
#[derive(Default)]
struct OpenLoop {
    /// Latency of every request, one list per cycle.
    cycles: Vec<Vec<f64>>,
    oversleep_us: Vec<f64>,
    requests: u64,
    failed: u64,
}

impl OpenLoop {
    /// `cycles` more cycles at `rate_gps`, each request timed from when it
    /// was due. Every answer must equal `reference`.
    fn segment(
        &mut self,
        model: &mut TpGnn,
        test: &mut [Ctdn],
        reference: &[f32],
        cycles: usize,
        rate_gps: f64,
        res: &mut RunResult,
    ) {
        // A generator that falls this far behind stops sending; the
        // requests it never sent count as failed.
        let schedule_s = (cycles * test.len()) as f64 / rate_gps;
        let give_up = Duration::from_secs_f64(2.0 * schedule_s + 5.0);
        let start = Instant::now();
        let mut due_s = 0.0f64;
        for _ in 0..cycles {
            let c = self.cycles.len();
            let mut cycle = Vec::with_capacity(test.len());
            for (k, g) in test.iter_mut().enumerate() {
                let due = start + Duration::from_secs_f64(due_s);
                due_s += 1.0 / rate_gps;
                self.requests += 1;
                if start.elapsed() > give_up {
                    self.failed += 1;
                    continue;
                }
                if Instant::now() < due {
                    self.oversleep_us.push(crate::serve::wait_until(due));
                }
                let p = model.predict_proba(g);
                cycle.push(due.elapsed().as_secs_f64() * 1e3);
                res.check(p.to_bits() == reference[k].to_bits(), || {
                    format!("open-loop cycle {c}: graph {k} scored {p}")
                });
            }
            self.cycles.push(cycle);
        }
    }
}

pub fn run(spec: &TrainSpec, ctx: &Ctx) -> RunResult {
    let mut res = RunResult::default();
    let mut setup_s = Vec::new();
    let set_up = |setup_s: &mut Vec<f64>| {
        let t0 = Instant::now();
        let s = setup(spec, ctx.seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        s
    };
    let mut built = None;
    for _ in 0..SETUP_FIRST {
        drop(built.take());
        built = Some(set_up(&mut setup_s));
    }
    let Setup {
        train,
        mut test,
        truth,
        model,
    } = built.expect("at least one set-up");
    eprintln!(
        "  dataset: {} train / {} test graphs",
        train.len(),
        test.len()
    );

    // Warm-up on a throwaway model of the same shape.
    let mut warm = fresh_model();
    warm.fit_epoch(&mut train[..train.len().min(30)].to_vec());
    pass(&mut warm, &test[..test.len().min(50)]);
    drop(warm);

    let mut m = Metrics::default();
    let cfg = TrainConfig {
        epochs: spec.epochs,
        shuffle_ties: true,
        seed: ctx.seed,
    };
    // Rounds: a fresh model (the first from the initial set-up, the others
    // from a set-up made off the clock) is trained, then serves a segment
    // of the open loop. Every training must end at the first one's loss bit
    // for bit and answer every request as the first one's batch pass did.
    // A traced run makes one round and fills `--seconds` with its open loop.
    let rounds = if ctx.trace { 1 } else { ROUNDS };
    let mut model = Some(model);
    let mut steps: Vec<Vec<f64>> = Vec::with_capacity(rounds);
    let mut overhead_ms = Vec::with_capacity(rounds);
    let mut rss_mb = Vec::with_capacity(rounds);
    let mut first_loss = None;
    let mut reference = Vec::new();
    let mut open = OpenLoop::default();
    let mut cycles_left = 0;
    for r in 0..rounds {
        let fresh = model.take().unwrap_or_else(|| set_up(&mut setup_s).model);
        reset_peak_rss();
        let mut wrapped = TimedClassifier::new(fresh);
        let t0 = Instant::now();
        let report = train_guarded(&mut wrapped, &train, &cfg, &GuardConfig::default());
        let train_ms = t0.elapsed().as_secs_f64() * 1e3;
        res.attempted += wrapped.step_ms.len() as u64;
        res.check(!report.aborted, || {
            format!("training {r} abandoned: {:?}", report.recoveries)
        });
        let loss = report.final_loss();
        res.check(loss.is_some_and(f32::is_finite), || {
            format!("training {r}: final loss {loss:?}")
        });
        let bits = loss.map(f32::to_bits);
        match first_loss {
            None => {
                first_loss = Some(bits);
                res.fact(
                    "final_loss",
                    loss.map_or("none".into(), |l| format!("{l} (bits {:08x})", l.to_bits())),
                );
                res.fact("recoveries", report.recoveries.len());
            }
            Some(first) => res.check(bits == first, || {
                format!("training {r} ended at loss {loss:?}, not the first training's")
            }),
        }
        overhead_ms.push(train_ms - wrapped.step_ms.iter().sum::<f64>());
        if ctx.trace {
            // The tape profile comes from a second training of a fresh
            // model under the profiler, which must end at the same loss.
            let mut again = fresh_model();
            layers::tensor_profile_start();
            let second = train_guarded(&mut again, &train, &cfg, &GuardConfig::default());
            layers::tensor_profile_report(&mut m);
            res.check(second.final_loss().map(f32::to_bits) == bits, || {
                "profiled training ended at a different loss".into()
            });
        }

        if r == 0 {
            reference = batch_passes(
                spec,
                &mut wrapped,
                &test,
                &truth,
                ctx.trace,
                &mut m,
                &mut res,
            );
            // The open loop fills what the trainings leave of `--seconds`.
            let open_s = (ctx.seconds - rounds as f64 * train_ms / 1e3).max(0.0);
            cycles_left =
                ((open_s * spec.rate_gps / test.len() as f64).round() as usize).max(rounds);
        }
        let cycles = cycles_left / (rounds - r);
        cycles_left -= cycles;
        open.segment(
            &mut wrapped.inner,
            &mut test,
            &reference,
            cycles,
            spec.rate_gps,
            &mut res,
        );
        rss_mb.push(peak_rss_mb());
        steps.push(std::mem::take(&mut wrapped.step_ms));
    }
    res.attempted += open.requests;
    res.failed += open.failed;
    let slow = open
        .cycles
        .iter()
        .flatten()
        .filter(|&&l| l > SLO_MS)
        .count() as u64;
    let slo_miss = (slow + open.failed) as f64 / open.requests as f64;
    res.fact("slo_miss_share", slo_miss);
    res.fact("open_loop_cycles", open.cycles.len());
    res.fact("setups", setup_s.len());
    res.fact(
        "latency_p99_whole_run_ms",
        percentile(&open.cycles.concat(), 99.0),
    );
    let rss_text: Vec<String> = rss_mb.iter().map(|r| format!("{r:.1}")).collect();
    res.fact("round_peak_rss_mb", rss_text.join(" "));

    if ctx.trace {
        m.put("serve.slo_miss_share", slo_miss, "share");
        m.put(
            "loadgen.oversleep_p99_us",
            percentile(&open.oversleep_us, 99.0),
            "us",
        );
    } else {
        // Every training steps through the same graphs in the same order,
        // and every open-loop cycle through the test graphs, so each step
        // and each request has one time per round or cycle; see `typical`.
        let step_ms = typical(&steps.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let latency_ms = typical(&open.cycles.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let train_s = (step_ms.iter().sum::<f64>() + median(&overhead_ms)) / 1e3;
        m.put("setup_s", median(&setup_s), "s");
        m.put("peak_rss_mb", median(&rss_mb), "MB");
        m.put("capacity_per_s", step_ms.len() as f64 / train_s, "1/s");
        m.ms("service_p50_ms", percentile(&step_ms, 50.0));
        m.ms("service_p99_ms", percentile(&step_ms, 99.0));
        m.ms("latency_p50_ms", percentile(&latency_ms, 50.0));
        m.ms("latency_p99_ms", percentile(&latency_ms, 99.0));
    }
    res.metrics = m;
    res
}

/// The batch passes after the first training: every pass must reproduce
/// the first bit for bit. Records `test_f1`, and in a traced run the
/// inference layers. Returns the first pass's probabilities.
fn batch_passes(
    spec: &TrainSpec,
    wrapped: &mut TimedClassifier,
    test: &[Ctdn],
    truth: &[bool],
    trace: bool,
    m: &mut Metrics,
    res: &mut RunResult,
) -> Vec<f32> {
    let (reference, first_s) = pass(&mut wrapped.inner, test);
    let mut pass_times = vec![first_s];
    for i in 1..spec.passes {
        let (probs, s) = pass(&mut wrapped.inner, test);
        res.check(bits(&probs) == bits(&reference), || {
            format!("inference pass {i} differs from pass 0")
        });
        pass_times.push(s);
    }
    res.attempted += (spec.passes * test.len()) as u64;
    let pass_s = median(&pass_times);
    let preds: Vec<(f32, bool)> = reference
        .iter()
        .copied()
        .zip(truth.iter().copied())
        .collect();
    let f1 = Scores::from_predictions(&preds, 0.5).f1;
    res.fact("test_f1", f1);

    if trace {
        let (tasks0, task_ms0) = layers::pool_totals();
        let (wide, wide_s) =
            tpgnn_par::with_thread_override(FANOUT_WIDTH, || pass(&mut wrapped.inner, test));
        let (tasks, task_ms) = layers::pool_totals();
        res.check(bits(&wide) == bits(&reference), || {
            "fan-out pass differs".into()
        });
        let mut graphs = test.to_vec();
        let t0 = Instant::now();
        let traced: Vec<f32> = graphs
            .iter_mut()
            .map(|g| wrapped.predict_proba(g))
            .collect();
        let traced_s = t0.elapsed().as_secs_f64();
        res.check(bits(&traced) == bits(&reference), || {
            "traced per-graph pass differs".into()
        });
        wrapped.report(m);
        m.put("par.fanout_speedup", pass_s / wide_s, "ratio");
        m.count("pool.tasks", (tasks - tasks0) as f64);
        m.ms("pool.task_ms", task_ms - task_ms0);
        m.put("trace.overhead", traced_s / pass_s - 1.0, "share");
        m.put("train.test_f1", f1, "ratio");
        m.put(
            "train.infer_graphs_per_s",
            test.len() as f64 / pass_s,
            "1/s",
        );
    }
    reference
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}
