//! Seeded serving traffic: forum-java sessions under a fault plan, merged
//! into one arrival stream in the order the events would reach a server.
//!
//! Session `i` starts at `i * spacing` on the global clock. Each of its
//! events gets an arrival key: the session's offset plus the running
//! maximum of the session's finite event times so far. Keys never
//! decrease within a session, so a stable sort by key keeps every session's
//! own arrival order (the one ordering the server relies on), and a
//! session's traffic stays inside its own stretch of the clock. The server
//! therefore sees sessions open and close at a steady rate, and the number
//! resident at once settles instead of growing with the run.
//!
//! The stream is cut where the next session would start. Past that point no
//! session opens and the server would only wind down, closing everything
//! resident in a burst; instead the sessions still in flight at the cut end
//! with the request stream and are closed by `close_all`.

use tpgnn_data::chaos::{events_of, inject, FaultLedger, FaultPlan};
use tpgnn_data::forum_java::{generate_session, ForumJavaConfig};
use tpgnn_graph::NodeFeatures;
use tpgnn_par::task_seed;
use tpgnn_rng::rngs::StdRng;
use tpgnn_rng::SeedableRng;
use tpgnn_serve::SessionEvent;

/// What to generate.
#[derive(Clone, Debug)]
pub struct TrafficPlan {
    pub sessions: usize,
    pub seed: u64,
    pub fault: FaultPlan,
    /// Global-clock distance between consecutive session starts.
    pub spacing: f64,
    /// Events per `ingest` request.
    pub batch_size: usize,
}

/// The generated arrival stream, cut into requests.
#[derive(Clone, Debug)]
pub struct Traffic {
    /// Node features of every session, indexed by session id.
    pub features: Vec<NodeFeatures>,
    /// Arrival batches, each at most `batch_size` events.
    pub batches: Vec<Vec<SessionEvent>>,
    /// Sessions whose first event is in batch `b` (registered just before
    /// that batch is sent).
    pub starts: Vec<Vec<u64>>,
    /// Events offered per session (before the cut), indexed by session id.
    pub offered: Vec<usize>,
    /// Summed ledger of the faults injected into the generated sessions
    /// (including events past the cut).
    pub ledger: FaultLedger,
    pub total_events: usize,
}

/// Synthesize the traffic for `plan`. A pure function of the plan.
pub fn generate(plan: &TrafficPlan) -> Traffic {
    let cfg = ForumJavaConfig::default();
    let mut features = Vec::with_capacity(plan.sessions);
    let mut ledger = FaultLedger::default();
    let mut keyed: Vec<(f64, SessionEvent)> = Vec::new();
    for i in 0..plan.sessions {
        let sid = i as u64;
        let mut rng = StdRng::seed_from_u64(task_seed(plan.seed, sid));
        let g = generate_session(&cfg, &mut rng);
        let offset = plan.spacing * i as f64;
        let mut clean = events_of(&g, plan.fault.num_origins);
        for ev in &mut clean {
            ev.time += offset;
        }
        let outcome = inject(&clean, g.num_nodes(), &plan.fault, &mut rng);
        ledger.absorb(&outcome.ledger);
        let mut key = offset;
        for ev in &outcome.events {
            if ev.time.is_finite() {
                key = key.max(ev.time);
            }
            keyed.push((key, SessionEvent::new(sid, *ev)));
        }
        features.push(g.features().clone());
    }
    // Stable: equal keys keep push order, which is per-session arrival order.
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.session.cmp(&b.1.session)));
    let cut = plan.spacing * plan.sessions as f64;
    keyed.retain(|(key, _)| *key < cut);
    let mut offered = vec![0; plan.sessions];
    for (_, se) in &keyed {
        offered[se.session as usize] += 1;
    }

    let total_events = keyed.len();
    let batch_size = plan.batch_size.max(1);
    let mut batches: Vec<Vec<SessionEvent>> = Vec::with_capacity(total_events.div_ceil(batch_size));
    let mut starts: Vec<Vec<u64>> = Vec::with_capacity(batches.capacity());
    let mut seen = vec![false; plan.sessions];
    for chunk in keyed.chunks(batch_size) {
        let mut fresh = Vec::new();
        for (_, se) in chunk {
            let slot = &mut seen[se.session as usize];
            if !*slot {
                *slot = true;
                fresh.push(se.session);
            }
        }
        starts.push(fresh);
        batches.push(chunk.iter().map(|(_, se)| *se).collect());
    }
    Traffic {
        features,
        batches,
        starts,
        offered,
        ledger,
        total_events,
    }
}

/// Arrival key of every event of `traffic`, in stream order (tests only).
#[cfg(test)]
fn keys(plan: &TrafficPlan, traffic: &Traffic) -> Vec<f64> {
    let mut running: Vec<f64> = (0..plan.sessions)
        .map(|i| plan.spacing * i as f64)
        .collect();
    traffic
        .batches
        .iter()
        .flatten()
        .map(|se| {
            let k = &mut running[se.session as usize];
            if se.event.time.is_finite() {
                *k = k.max(se.event.time);
            }
            *k
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpgnn_core::{TpGnn, TpGnnConfig};
    use tpgnn_graph::stream::StreamEvent;
    use tpgnn_serve::{ServeConfig, SessionServer};

    fn plan(corrupt: bool) -> TrafficPlan {
        let mixed = FaultPlan::mixed(0.05);
        let fault = FaultPlan {
            delay_rate: 0.02,
            delay_margin: 3.0,
            corrupt_rate: if corrupt { mixed.corrupt_rate } else { 0.0 },
            ..mixed
        };
        TrafficPlan {
            sessions: 1500,
            seed: 11,
            fault,
            spacing: 0.05,
            batch_size: 64,
        }
    }

    fn bits(e: &StreamEvent) -> (usize, usize, u64, u32) {
        (e.src, e.dst, e.time.to_bits(), e.origin)
    }

    #[test]
    fn per_session_order_is_preserved() {
        let p = plan(true);
        let t = generate(&p);
        for sid in 0..p.sessions as u64 {
            let mut rng = StdRng::seed_from_u64(task_seed(p.seed, sid));
            let g = generate_session(&ForumJavaConfig::default(), &mut rng);
            let mut clean = events_of(&g, p.fault.num_origins);
            for ev in &mut clean {
                ev.time += p.spacing * sid as f64;
            }
            let want = inject(&clean, g.num_nodes(), &p.fault, &mut rng).events;
            let got: Vec<_> = t
                .batches
                .iter()
                .flatten()
                .filter(|se| se.session == sid)
                .map(|se| bits(&se.event))
                .collect();
            let want: Vec<_> = want.iter().map(bits).collect();
            assert_eq!(got, want[..got.len()], "session {sid}");
            assert_eq!(t.offered[sid as usize], got.len());
            // Sessions that end well before the cut arrive whole.
            if p.spacing * sid as f64 + 40.0 < p.spacing * p.sessions as f64 {
                assert_eq!(got.len(), want.len(), "session {sid} was cut");
            }
        }
        assert!(
            t.total_events < t.ledger.emitted,
            "the tail past the cut is dropped"
        );
        let started: usize = t.starts.iter().map(Vec::len).sum();
        assert_eq!(started, t.offered.iter().filter(|&&n| n > 0).count());
        assert!(
            started * 100 > p.sessions * 95,
            "{started} sessions started"
        );
    }

    #[test]
    fn arrival_keys_never_decrease() {
        let p = plan(true);
        let k = keys(&p, &generate(&p));
        assert!(k.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn same_seed_gives_a_bitwise_identical_stream() {
        let p = plan(true);
        let flat = |t: &Traffic| -> Vec<(u64, (usize, usize, u64, u32))> {
            t.batches
                .iter()
                .flatten()
                .map(|se| (se.session, bits(&se.event)))
                .collect()
        };
        let (a, b) = (generate(&p), generate(&p));
        assert_eq!(flat(&a), flat(&b));
        let other = generate(&TrafficPlan {
            seed: p.seed + 1,
            ..p
        });
        assert_ne!(flat(&a), flat(&other));
    }

    /// With corruption off, the traffic model itself loses nothing: every
    /// session whose arrival keys never jump by more than the gap (less a
    /// little slack for batch granularity) gets all its events scored. A
    /// session can still fall silent for longer than the gap when a drop
    /// burst and a shuffled window meet; the server then rightly closes it.
    #[test]
    fn without_corruption_serving_at_gap_10_drops_no_event() {
        let p = plan(false);
        let t = generate(&p);
        let mut max_jump = vec![0.0f64; p.sessions];
        let mut last: Vec<Option<f64>> = vec![None; p.sessions];
        for (se, k) in t.batches.iter().flatten().zip(keys(&p, &t)) {
            let s = se.session as usize;
            if let Some(prev) = last[s] {
                max_jump[s] = max_jump[s].max(k - prev);
            }
            last[s] = Some(k);
        }
        let model = TpGnn::new(TpGnnConfig::sum(3).with_seed(7));
        let cfg = ServeConfig {
            stream: p.fault.stream_config(),
            session_gap: 10.0,
            ..ServeConfig::default()
        };
        let mut server = SessionServer::new(&model, cfg).expect("SUM serves incrementally");
        let mut received = vec![0usize; p.sessions];
        let mut absorb = |records: Vec<tpgnn_serve::ScoreRecord>| {
            for r in records {
                received[r.session as usize] += r.stats.map_or(0, |s| s.received);
            }
        };
        for (batch, starts) in t.batches.iter().zip(&t.starts) {
            for &sid in starts {
                server.register(sid, t.features[sid as usize].clone());
            }
            absorb(server.ingest(batch).expect("no storage configured"));
        }
        absorb(server.close_all().expect("no storage configured"));
        let mut quiet = 0;
        for s in 0..p.sessions {
            if max_jump[s] < 9.0 {
                quiet += 1;
                assert_eq!(
                    received[s], t.offered[s],
                    "session {s} lost events (max key jump {})",
                    max_jump[s]
                );
            }
        }
        assert!(
            quiet * 100 >= p.sessions * 95,
            "only {quiet} of {} sessions stay within the gap",
            p.sessions
        );
        let lost = server.stats().dropped_closed;
        assert!(
            lost * 200 < t.total_events,
            "{lost} of {} events lost",
            t.total_events
        );
    }
}
