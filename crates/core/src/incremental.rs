//! Incremental per-session scoring — the serving-path counterpart of the
//! batch forward pass.
//!
//! TP-GNN's temporal propagation (Algorithm 1) folds edges left-to-right in
//! chronological order, so a session's propagation state can be advanced
//! one step per arriving edge with no replay of the prefix. Scoring then
//! materializes the final node embeddings `H = tanh(Ĥ)` from the stored
//! accumulators and runs the global extractor + classifier over the
//! session's released edge log — the same arithmetic, op for op, as
//! [`GraphClassifier::predict_proba`] on the equivalent batch graph, which
//! makes the two paths **bitwise identical**. The replay-equivalence
//! property suite in `crates/serve/tests/replay_props.rs` pins that
//! contract across seeds, interleavings, and pool widths.
//!
//! The contract requires edges to arrive in the chronological order the
//! batch sweep would use; the streaming `CtdnBuilder` releases events in
//! exactly that order (time-sorted, arrival order for ties), so the serving
//! layer feeds `advance_session` straight from its release log.

use tpgnn_graph::{NodeFeatures, TemporalEdge};
use tpgnn_obs::codec::{fmt_f64, parse_f64, parse_num, LineReader};
use tpgnn_tensor::Tape;

use crate::model::TpGnn;
use crate::propagation::PropState;

/// Everything one live session carries between requests: the per-node
/// propagation accumulators (plain values — no tape references, so the
/// state survives across request tapes) plus the released edge log the
/// global extractor replays at score time.
///
/// Memory is `O(nodes × embed_dim + edges)` per session; the extractor
/// replay at score time is `O(edges)`, while each advance is `O(1)` in the
/// session length.
#[derive(Clone, Debug)]
pub struct SessionState {
    prop: PropState,
    edges: Vec<TemporalEdge>,
}

impl SessionState {
    /// Number of edges advanced into this state so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of nodes the session covers.
    pub fn num_nodes(&self) -> usize {
        self.prop.num_nodes()
    }

    /// The edges advanced so far, in advance (= chronological) order.
    pub fn edges(&self) -> &[TemporalEdge] {
        &self.edges
    }

    /// Serialize the full session — propagation accumulators plus the
    /// released edge log — to deterministic text. Floats are IEEE-754 bit
    /// patterns, so [`restore`](Self::restore) reproduces the state bitwise
    /// and a spilled-and-restored session scores identically to one that
    /// never left memory.
    pub fn snapshot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("session-state v1\n");
        let _ = writeln!(out, "edges {}", self.edges.len());
        for e in &self.edges {
            let _ = writeln!(out, "e {} {} {}", e.src, e.dst, fmt_f64(e.time));
        }
        out.push_str(&self.prop.snapshot());
        out
    }

    /// Rebuild a session from [`snapshot`](Self::snapshot) output, bitwise.
    pub fn restore(text: &str) -> Result<Self, String> {
        Self::decode(text).map_err(|e| format!("session state: {e}"))
    }

    fn decode(text: &str) -> Result<Self, String> {
        let mut lines = LineReader::new(text);
        let header = lines.next().ok_or("empty text")?;
        if header != "session-state v1" {
            return Err(format!("bad header `{header}`"));
        }
        let n: usize = parse_num(lines.tagged_n("edges", 1)?[0])?;
        let edges = (0..n)
            .map(|_| {
                let t = lines.tagged_n("e", 3)?;
                Ok(TemporalEdge::new(parse_num(t[0])?, parse_num(t[1])?, parse_f64(t[2])?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        // The propagation state is the rest of the text, borrowed as is.
        let prop = PropState::restore(lines.rest())?;
        Ok(Self { prop, edges })
    }
}

/// Models that can score a session incrementally, one edge at a time,
/// reproducing their batch prediction bitwise.
///
/// All methods take `&self`: like the batch forward pass, incremental
/// scoring is read-only on the model, so one model instance serves many
/// sessions from many worker threads concurrently (one [`Tape`] per
/// worker).
pub trait IncrementalScorer {
    /// Open a session over the nodes described by `features`.
    ///
    /// Fails when the model configuration has no well-defined incremental
    /// form (the `rand` ablation) or `features` does not match the model's
    /// input dimension. Never panics: the serving layer treats an error as
    /// a refused session, not a crash.
    fn open_session(&self, tape: &mut Tape, features: &NodeFeatures)
        -> Result<SessionState, String>;

    /// Advance the session one step for `edge` (Algorithm 1 loop body).
    ///
    /// Edges must be fed in the chronological order the batch sweep would
    /// use, and endpoints must be valid node indices of the session (the
    /// streaming builder validates both before releasing an event).
    fn advance_session(&self, tape: &mut Tape, state: &mut SessionState, edge: TemporalEdge);

    /// Probability that the session-so-far is a positive graph — bitwise
    /// equal to [`GraphClassifier::predict_proba`] on the batch graph
    /// holding exactly the advanced edges.
    ///
    /// [`GraphClassifier::predict_proba`]: crate::GraphClassifier::predict_proba
    fn score_session(&self, tape: &mut Tape, state: &SessionState) -> f32;
}

impl IncrementalScorer for TpGnn {
    fn open_session(
        &self,
        tape: &mut Tape,
        features: &NodeFeatures,
    ) -> Result<SessionState, String> {
        let prop = self.propagation.init_state(tape, &self.store, features)?;
        Ok(SessionState { prop, edges: Vec::new() })
    }

    fn advance_session(&self, tape: &mut Tape, state: &mut SessionState, edge: TemporalEdge) {
        self.propagation.advance_state(tape, &self.store, &mut state.prop, &edge);
        state.edges.push(edge);
    }

    fn score_session(&self, tape: &mut Tape, state: &SessionState) -> f32 {
        let node_embeds = self.propagation.finalize_state(tape, &state.prop);
        let graph_embed = self.extractor.forward(tape, &self.store, &node_embeds, &state.edges);
        let logit = self.classifier.forward(tape, &self.store, graph_embed);
        crate::model::probability(tape, logit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AblationVariant, PropagationKind, Readout, TpGnnConfig};
    use crate::model::GraphClassifier;
    use tpgnn_graph::Ctdn;

    fn session_graph(n: usize, seed: u64) -> Ctdn {
        let mut feats = NodeFeatures::zeros(n, 3);
        for v in 0..n {
            let s = (seed as f32 + v as f32) * 0.37;
            feats.row_mut(v).copy_from_slice(&[s.sin(), s.cos(), 0.5]);
        }
        let mut g = Ctdn::new(feats);
        for i in 0..2 * n {
            let src = (i * 7 + seed as usize) % n;
            let dst = (src + 1 + i % (n - 1)) % n;
            g.try_add_edge(src, dst, (i + 1) as f64 * 1.25).unwrap();
        }
        g
    }

    /// The core contract: advancing per edge then scoring reproduces the
    /// batch forward pass bitwise, for every incremental-capable config.
    #[test]
    fn incremental_score_is_bitwise_equal_to_batch() {
        let configs = [
            ("sum", TpGnnConfig::sum(3).with_seed(5)),
            ("gru", TpGnnConfig::gru(3).with_seed(5)),
            ("temp (no f(t))", AblationVariant::Temp.apply(TpGnnConfig::sum(3))),
            ("w/o tem", {
                let mut c = TpGnnConfig::sum(3);
                c.propagation = PropagationKind::None;
                c
            }),
            ("transformer readout", {
                let mut c = TpGnnConfig::sum(3);
                c.readout = Readout::TransformerExtractor;
                c
            }),
            ("meanpool readout", {
                let mut c = TpGnnConfig::gru(3);
                c.readout = Readout::MeanPool;
                c
            }),
        ];
        for (label, cfg) in configs {
            let mut model = TpGnn::new(cfg);
            for seed in 0..4u64 {
                let mut g = session_graph(5, seed);
                let batch = model.predict_proba(&mut g);

                let mut tape = Tape::new();
                let mut state = model.open_session(&mut tape, g.features()).expect(label);
                for e in g.edges_chronological().to_vec() {
                    tape.reset();
                    model.advance_session(&mut tape, &mut state, e);
                }
                tape.reset();
                let inc = model.score_session(&mut tape, &state);
                assert_eq!(
                    batch.to_bits(),
                    inc.to_bits(),
                    "{label}, seed {seed}: batch {batch} vs incremental {inc}"
                );
            }
        }
    }

    /// Mid-session scores equal the batch prediction on the prefix graph —
    /// the early-warning contract of the serving layer.
    #[test]
    fn prefix_scores_match_prefix_batch() {
        let mut model = TpGnn::new(TpGnnConfig::gru(3).with_seed(9));
        let mut g = session_graph(4, 2);
        let edges = g.edges_chronological().to_vec();

        let mut tape = Tape::new();
        let mut state = model.open_session(&mut tape, g.features()).unwrap();
        for (i, e) in edges.iter().enumerate() {
            tape.reset();
            model.advance_session(&mut tape, &mut state, *e);
            tape.reset();
            let inc = model.score_session(&mut tape, &state);

            let mut prefix = Ctdn::new(g.features().clone());
            for p in &edges[..=i] {
                prefix.try_add_edge(p.src, p.dst, p.time).unwrap();
            }
            let batch = model.predict_proba(&mut prefix);
            assert_eq!(batch.to_bits(), inc.to_bits(), "prefix of {} edges", i + 1);
        }
    }

    /// An opened, never-advanced session scores like the edgeless graph.
    #[test]
    fn empty_session_scores_like_edgeless_graph() {
        let mut model = TpGnn::new(TpGnnConfig::sum(3).with_seed(3));
        let g = session_graph(4, 0);
        let mut empty = Ctdn::new(g.features().clone());
        let batch = model.predict_proba(&mut empty);
        let mut tape = Tape::new();
        let state = model.open_session(&mut tape, g.features()).unwrap();
        let inc = model.score_session(&mut tape, &state);
        assert_eq!(batch.to_bits(), inc.to_bits());
    }

    /// The `rand` ablation has no incremental form and must be refused,
    /// not mis-served.
    #[test]
    fn rand_ablation_is_rejected() {
        let model = TpGnn::new(AblationVariant::Rand.apply(TpGnnConfig::sum(3)));
        let mut tape = Tape::new();
        let err = model.open_session(&mut tape, &NodeFeatures::zeros(3, 3)).unwrap_err();
        assert!(err.contains("rand"), "unhelpful error: {err}");
    }

    /// Mismatched feature width is a typed refusal, not a shape panic deep
    /// in a matmul.
    #[test]
    fn feature_dim_mismatch_is_rejected() {
        let model = TpGnn::new(TpGnnConfig::sum(3));
        let mut tape = Tape::new();
        let err = model.open_session(&mut tape, &NodeFeatures::zeros(3, 5)).unwrap_err();
        assert!(err.contains("feature dim 5"), "unhelpful error: {err}");
    }

    /// Spilling a session to text mid-stream and restoring it is bitwise
    /// invisible: the restored session advances the same suffix to the
    /// identical score as one that never left memory. This is the contract
    /// the serving layer's eviction/recovery path is built on.
    #[test]
    fn snapshot_restore_mid_session_is_bitwise_invisible() {
        let configs = [
            ("sum", TpGnnConfig::sum(3).with_seed(11)),
            ("gru", TpGnnConfig::gru(3).with_seed(11)),
            ("temp (no f(t))", AblationVariant::Temp.apply(TpGnnConfig::sum(3))),
            ("w/o tem", {
                let mut c = TpGnnConfig::sum(3);
                c.propagation = PropagationKind::None;
                c
            }),
        ];
        for (label, cfg) in configs {
            let model = TpGnn::new(cfg);
            let mut g = session_graph(5, 3);
            let edges = g.edges_chronological().to_vec();
            let cut = edges.len() / 2;

            let mut tape = Tape::new();
            let mut live = model.open_session(&mut tape, g.features()).expect(label);
            for e in &edges[..cut] {
                tape.reset();
                model.advance_session(&mut tape, &mut live, *e);
            }
            let text = live.snapshot();
            let mut restored = SessionState::restore(&text).expect(label);
            assert_eq!(restored.snapshot(), text, "{label}: re-snapshot is bitwise-stable");
            assert_eq!(restored.num_edges(), cut);

            for e in &edges[cut..] {
                tape.reset();
                model.advance_session(&mut tape, &mut live, *e);
                model.advance_session(&mut tape, &mut restored, *e);
            }
            tape.reset();
            let a = model.score_session(&mut tape, &live);
            tape.reset();
            let b = model.score_session(&mut tape, &restored);
            assert_eq!(a.to_bits(), b.to_bits(), "{label}: spill changed the score");
        }
    }

    /// Corrupt or truncated session snapshots are typed errors, not panics.
    #[test]
    fn session_restore_rejects_corruption() {
        let model = TpGnn::new(TpGnnConfig::sum(3).with_seed(1));
        let mut g = session_graph(4, 1);
        let mut tape = Tape::new();
        let mut state = model.open_session(&mut tape, g.features()).unwrap();
        for e in g.edges_chronological().to_vec() {
            tape.reset();
            model.advance_session(&mut tape, &mut state, e);
        }
        let text = state.snapshot();
        assert!(SessionState::restore("").is_err());
        assert!(SessionState::restore("wrong v9\n").is_err());
        assert!(SessionState::restore(&text[..text.len() / 3]).is_err());
        let tampered = text.replacen("prop-state v1", "prop-state v9", 1);
        assert!(SessionState::restore(&tampered).is_err());
    }

    /// `as_incremental` exposes the capability through the shared trait.
    #[test]
    fn as_incremental_is_some_for_tpgnn() {
        let model = TpGnn::new(TpGnnConfig::sum(3));
        assert!(model.as_incremental().is_some());
    }
}
