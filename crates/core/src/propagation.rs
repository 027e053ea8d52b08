//! Temporal Propagation — Algorithm 1 / Sec. IV-B of the paper.
//!
//! Messages pass along each temporal edge in chronological order, following
//! the direction of information flow. Two node-feature updaters are
//! provided: SUM (eqs. 3–5) and GRU (eq. 6). The output is the local node
//! embedding matrix `H = tanh(Ĥ)` (line 19 of Algorithm 1), materialized as
//! one `Var` per node so downstream readouts can address endpoints directly.
//!
//! Algorithm 1 is written once, as three phases over tape `Var`s:
//! [`init`](TemporalPropagation::init), [`step`](TemporalPropagation::step)
//! and [`readout`](TemporalPropagation::readout). The batch
//! [`forward`](TemporalPropagation::forward) drives them over a whole edge
//! list; the incremental session functions load a stored state onto the
//! tape, drive the same phases, and store the results back. Both paths
//! therefore run the same arithmetic by construction.

use tpgnn_rng::rngs::StdRng;
use tpgnn_rng::seq::SliceRandom;
use tpgnn_rng::SeedableRng;
use tpgnn_graph::{NodeFeatures, TemporalEdge};
use tpgnn_nn::{GruCell, Linear, Time2Vec};
use tpgnn_obs::codec::{fmt_f32, parse_f32, parse_num, LineReader};
use tpgnn_tensor::{ParamStore, Tape, Tensor, Var};

use crate::config::{PropagationKind, TpGnnConfig, UpdaterKind};

enum Updater {
    Sum,
    Gru(GruCell),
}

/// The temporal propagation module: node-feature embedding layer (eq. 1),
/// time encoding layer (eq. 2), and the propagation sweep.
pub struct TemporalPropagation {
    embed: Linear,
    t2v: Option<Time2Vec>,
    updater: Updater,
    kind: PropagationKind,
    time_dim: usize,
    /// Deterministic seed stream for the `rand` ablation's random edge
    /// order. Atomic (not `Cell`) so a shared model can run forward passes
    /// from several threads; the `rand` variant is per-call stochastic by
    /// design, so tick handout order does not need to be schedule-stable.
    rand_counter: std::sync::atomic::AtomicU64,
    rand_seed: u64,
    /// Constant pre-scaling of the SUM updater's inputs (see `init`).
    sum_scale: f32,
}

impl TemporalPropagation {
    /// Register the module's parameters per `cfg`.
    pub fn new(store: &mut ParamStore, cfg: &TpGnnConfig, rng: &mut StdRng) -> Self {
        let embed = Linear::new(store, "tp.embed", cfg.feature_dim, cfg.embed_dim, rng);
        let t2v = cfg
            .use_time_encoding
            .then(|| Time2Vec::new(store, "tp.t2v", cfg.time_dim, rng));
        let updater = match cfg.updater {
            UpdaterKind::Sum => Updater::Sum,
            UpdaterKind::Gru => {
                let in_dim = cfg.embed_dim + if cfg.use_time_encoding { cfg.time_dim } else { 0 };
                Updater::Gru(GruCell::new(store, "tp.gru", in_dim, cfg.embed_dim, rng))
            }
        };
        Self {
            embed,
            t2v,
            updater,
            kind: cfg.propagation,
            time_dim: cfg.time_dim,
            rand_counter: std::sync::atomic::AtomicU64::new(0),
            rand_seed: cfg.seed,
            sum_scale: cfg.sum_scale,
        }
    }

    /// Embed every node's raw features (eq. 1) and return one `(1, q)` `Var`
    /// per node: one matmul over the full feature matrix, then per-node row
    /// extraction.
    fn embed_nodes(&self, tape: &mut Tape, store: &ParamStore, features: &NodeFeatures) -> Vec<Var> {
        let n = features.num_nodes();
        let q = features.dim();
        let raw = Tensor::from_vec(n, q, features.data().to_vec());
        let raw_var = tape.input(raw);
        let embedded = self.embed.forward(tape, store, raw_var); // (n, embed)
        (0..n).map(|v| tape.row(embedded, v)).collect()
    }

    /// Run Algorithm 1 over `features` and `edges` (already in chronological
    /// order, line 1), returning the local node embedding vectors `h(v)`
    /// (already passed through `tanh`, line 19).
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        features: &NodeFeatures,
        edges: &[TemporalEdge],
    ) -> Vec<Var> {
        let rows = self.embed_nodes(tape, store, features);
        let (mut x, mut m) = self.init(tape, rows);
        let shuffled: Vec<TemporalEdge>;
        let edges = match self.kind {
            // `w/o tem`: the embedded raw features are the node states.
            PropagationKind::None => &[],
            PropagationKind::Temporal => edges,
            PropagationKind::Random => {
                // `rand` ablation: neighbors aggregated in a random order;
                // timestamps carry no meaning, so the edge list is permuted.
                let mut order = edges.to_vec();
                let tick = self.rand_counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let mut rng = StdRng::seed_from_u64(self.rand_seed ^ (tick.wrapping_mul(0x9e37_79b9)));
                order.shuffle(&mut rng);
                shuffled = order;
                &shuffled
            }
        };
        for e in edges {
            let m_dst = m.as_ref().map(|m| m[e.dst]);
            let (x_dst, m_dst) = self.step(tape, store, x[e.src], x[e.dst], m_dst, e.time);
            x[e.dst] = x_dst;
            if let (Some(m), Some(m_dst)) = (m.as_mut(), m_dst) {
                m[e.dst] = m_dst;
            }
        }
        (0..x.len()).map(|v| self.readout(tape, x[v], m.as_ref().map(|m| m[v]))).collect()
    }

    /// Initialization of Algorithm 1 from the embedded rows `X`: per-node
    /// `X̂` and, for SUM with time encoding, `M̂`.
    fn init(&self, tape: &mut Tape, rows: Vec<Var>) -> (Vec<Var>, Option<Vec<Var>>) {
        if matches!(self.kind, PropagationKind::None) || matches!(self.updater, Updater::Gru(_)) {
            // `w/o tem` keeps the rows; GRU: ĥ_{t_0}(v) := X(v) (line 13).
            return (rows, None);
        }
        // X̂_{t_0} := X (line 5); M̂_{t_0} := 0 (line 4).
        // Numerical stability at laptop scale: eqs. 3–4 accumulate
        // unboundedly, and with the repeated-interaction density of
        // HDFS/Brightkite the accumulated sums leave tanh's active range
        // within a few edges, freezing gradients. Scaling the (learnable)
        // embedding and time-encoding outputs by a constant folds into
        // their initialization — same model family, usable conditioning.
        // See DESIGN.md §2.
        let x: Vec<Var> = rows.iter().map(|&r| tape.scale(r, self.sum_scale)).collect();
        let m = self
            .t2v
            .as_ref()
            .map(|_| (0..x.len()).map(|_| tape.input(Tensor::zeros(1, self.time_dim))).collect());
        (x, m)
    }

    /// The loop body of Algorithm 1 for one edge `u → v` at time `t`: from
    /// the source state `src` and the destination's `dst` (plus `m_dst` for
    /// SUM with time encoding), the destination's new state.
    fn step(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        src: Var,
        dst: Var,
        m_dst: Option<Var>,
        t: f64,
    ) -> (Var, Option<Var>) {
        match &self.updater {
            Updater::Sum => {
                // X̂(v) := X̂(u) + X̂(v)                                  (eq. 3)
                let x = tape.add(src, dst);
                let m = match (self.t2v.as_ref(), m_dst) {
                    (Some(t2v), Some(m_dst)) => {
                        // M̂(v) := f(t) + M̂(v)                           (eq. 4)
                        let ft_raw = t2v.encode(tape, store, t);
                        let ft = tape.scale(ft_raw, self.sum_scale);
                        Some(tape.add(ft, m_dst))
                    }
                    _ => None,
                };
                (x, m)
            }
            Updater::Gru(cell) => {
                // ĥ(v) := GRU(ĥ(v), [ĥ(u) ⊕ f(t)])                       (eq. 6)
                let msg = match self.t2v.as_ref() {
                    Some(t2v) => {
                        let ft = t2v.encode(tape, store, t);
                        tape.concat_cols(src, ft)
                    }
                    None => src,
                };
                (cell.forward(tape, store, dst, msg), None)
            }
        }
    }

    /// Ĥ(v) := X̂(v) ⊕ M̂(v) (eq. 5), then H(v) := tanh(Ĥ(v)) (line 19).
    fn readout(&self, tape: &mut Tape, x: Var, m: Option<Var>) -> Var {
        let h = match m {
            Some(m) => tape.concat_cols(x, m),
            None => x,
        };
        tape.tanh(h)
    }

    /// Open incremental per-node propagation state for one session: embed
    /// the features (eq. 1), run [`init`](Self::init), and store the
    /// values. The `rand` ablation re-permutes the edge order on every
    /// forward call, so it has no well-defined incremental form and is
    /// rejected.
    pub(crate) fn init_state(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        features: &NodeFeatures,
    ) -> Result<PropState, String> {
        if matches!(self.kind, PropagationKind::Random) {
            return Err("the `rand` ablation re-shuffles edges per call and cannot be \
                        advanced incrementally"
                .to_string());
        }
        if features.dim() != self.embed.in_dim() {
            return Err(format!(
                "feature dim {} does not match the model's input dim {}",
                features.dim(),
                self.embed.in_dim()
            ));
        }
        let rows = self.embed_nodes(tape, store, features);
        let (x, m) = self.init(tape, rows);
        let frozen = matches!(self.kind, PropagationKind::None);
        let values =
            |tape: &Tape, vars: Vec<Var>| vars.iter().map(|&v| tape.value(v).clone()).collect();
        Ok(PropState {
            frozen,
            sum: !frozen && matches!(self.updater, Updater::Sum),
            x: values(tape, x),
            m: m.map(|m| values(tape, m)),
        })
    }

    /// Advance the incremental state one [`step`](Self::step) for edge `e`.
    /// Edges must arrive in the chronological order the batch forward pass
    /// would use; the streaming builder's release order guarantees this.
    pub(crate) fn advance_state(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        state: &mut PropState,
        e: &TemporalEdge,
    ) {
        if state.frozen {
            return; // `w/o tem`: node states ignore edges.
        }
        let src = tape.input(state.x[e.src].clone());
        let dst = tape.input(state.x[e.dst].clone());
        let m_dst = state.m.as_ref().map(|m| tape.input(m[e.dst].clone()));
        let (x_dst, m_dst) = self.step(tape, store, src, dst, m_dst, e.time);
        state.x[e.dst] = tape.value(x_dst).clone();
        if let (Some(m), Some(m_dst)) = (state.m.as_mut(), m_dst) {
            m[e.dst] = tape.value(m_dst).clone();
        }
    }

    /// The final node embeddings from the incremental state: one
    /// [`readout`](Self::readout) per node, in node-index order.
    pub(crate) fn finalize_state(&self, tape: &mut Tape, state: &PropState) -> Vec<Var> {
        (0..state.x.len())
            .map(|v| {
                let x = tape.input(state.x[v].clone());
                let m = state.m.as_ref().map(|m| tape.input(m[v].clone()));
                self.readout(tape, x, m)
            })
            .collect()
    }
}

/// Incremental per-session propagation state: the pre-activation node
/// accumulators of Algorithm 1 as plain values (no tape references), so a
/// session can live across thousands of request tapes.
///
/// For SUM this is `X̂` plus (with time encoding) `M̂`; for GRU the hidden
/// states `ĥ`; for the `w/o tem` ablation the embedded features, frozen.
#[derive(Clone, Debug)]
pub struct PropState {
    /// `w/o tem`: edges never modify the state.
    frozen: bool,
    /// SUM updater (eqs. 3–5) vs GRU (eq. 6).
    sum: bool,
    x: Vec<Tensor>,
    m: Option<Vec<Tensor>>,
}

impl PropState {
    /// Number of nodes the state covers.
    pub fn num_nodes(&self) -> usize {
        self.x.len()
    }

    /// Serialize the accumulators to deterministic text: every `f32` as its
    /// IEEE-754 bit pattern, so [`restore`](Self::restore) is bitwise — the
    /// contract the serving layer's spill/recovery path needs to keep
    /// evicted sessions indistinguishable from resident ones.
    pub fn snapshot(&self) -> String {
        use std::fmt::Write as _;
        let xd = self.x.first().map_or(0, |t| t.shape().1);
        let md = self.m.as_ref().and_then(|m| m.first()).map(|t| t.shape().1);
        let mut out = String::from("prop-state v1\n");
        let _ = writeln!(
            out,
            "meta {} {} {} {} {}",
            u8::from(self.frozen),
            u8::from(self.sum),
            self.x.len(),
            xd,
            md.map_or("-".to_string(), |d| d.to_string())
        );
        let m_rows = self.m.iter().flatten().map(|row| ('m', row));
        for (tag, row) in self.x.iter().map(|row| ('x', row)).chain(m_rows) {
            out.push(tag);
            for v in row.data() {
                out.push(' ');
                out.push_str(&fmt_f32(*v));
            }
            out.push('\n');
        }
        out
    }

    /// Rebuild a state from [`snapshot`](Self::snapshot) output, bitwise.
    pub fn restore(text: &str) -> Result<Self, String> {
        Self::decode(text).map_err(|e| format!("prop state: {e}"))
    }

    fn decode(text: &str) -> Result<Self, String> {
        let mut lines = LineReader::new(text);
        let header = lines.next().ok_or("empty text")?;
        if header != "prop-state v1" {
            return Err(format!("bad header `{header}`"));
        }
        let meta = lines.tagged_n("meta", 5)?;
        let flag = |tok: &str| match tok {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(format!("bad flag `{other}`")),
        };
        let (frozen, sum) = (flag(meta[0])?, flag(meta[1])?);
        let (n, xd): (usize, usize) = (parse_num(meta[2])?, parse_num(meta[3])?);
        let md: Option<usize> = if meta[4] == "-" { None } else { Some(parse_num(meta[4])?) };
        let mut read_rows = |tag: &str, dim: usize| -> Result<Vec<Tensor>, String> {
            (0..n)
                .map(|_| {
                    let toks = lines.tagged_n(tag, dim)?;
                    let vals = toks.iter().map(|t| parse_f32(t)).collect::<Result<_, _>>()?;
                    Ok(Tensor::from_vec(1, dim, vals))
                })
                .collect()
        };
        let x = read_rows("x", xd)?;
        let m = md.map(|d| read_rows("m", d)).transpose()?;
        Ok(Self { frozen, sum, x, m })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpgnn_graph::{Ctdn, NodeFeatures};

    fn make(cfg: &TpGnnConfig) -> (ParamStore, TemporalPropagation) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let tp = TemporalPropagation::new(&mut store, cfg, &mut rng);
        (store, tp)
    }

    fn forward(
        tp: &TemporalPropagation,
        tape: &mut Tape,
        store: &ParamStore,
        g: &mut Ctdn,
    ) -> Vec<Var> {
        let edges = g.edges_chronological().to_vec();
        tp.forward(tape, store, g.features(), &edges)
    }

    fn chain_graph(n: usize) -> Ctdn {
        let mut feats = NodeFeatures::zeros(n, 3);
        for v in 0..n {
            feats.row_mut(v).copy_from_slice(&[v as f32 / n as f32, 0.5, 0.0]);
        }
        let mut g = Ctdn::new(feats);
        for i in 0..n - 1 {
            g.try_add_edge(i, i + 1, (i + 1) as f64).unwrap();
        }
        g
    }

    #[test]
    fn sum_output_dims() {
        let cfg = TpGnnConfig::sum(3);
        let (store, tp) = make(&cfg);
        let mut g = chain_graph(5);
        let mut tape = Tape::new();
        let h = forward(&tp, &mut tape, &store, &mut g);
        assert_eq!(h.len(), 5);
        for hv in &h {
            assert_eq!(hv.shape(), (1, 38)); // embed 32 + time 6
            assert!(tape.value(*hv).data().iter().all(|&x| x.abs() <= 1.0));
        }
    }

    #[test]
    fn gru_output_dims() {
        let cfg = TpGnnConfig::gru(3);
        let (store, tp) = make(&cfg);
        let mut g = chain_graph(4);
        let mut tape = Tape::new();
        let h = forward(&tp, &mut tape, &store, &mut g);
        assert_eq!(h.len(), 4);
        for hv in &h {
            assert_eq!(hv.shape(), (1, 32));
        }
    }

    /// The operational half of Theorem 1: perturbing X(u) changes h(v) iff
    /// u is influential to v.
    #[test]
    fn theorem1_influence_iff_dependence() {
        for cfg in [TpGnnConfig::sum(3), TpGnnConfig::gru(3)] {
            let (mut store, tp) = make(&cfg);
            // Fig. 1-like graph: influence is partial.
            let mut feats = NodeFeatures::zeros(6, 3);
            for v in 0..6 {
                feats.row_mut(v).copy_from_slice(&[0.1 * v as f32, 0.3, 0.7]);
            }
            let mut g = Ctdn::new(feats);
            g.try_add_edge(0, 1, 1.0).unwrap();
            g.try_add_edge(1, 2, 2.0).unwrap();
            g.try_add_edge(3, 4, 3.0).unwrap();
            // Node 5 is isolated; nodes 3,4 form a separate component.
            let inf = tpgnn_graph::InfluenceAnalysis::compute(&mut g);

            let run = |store: &ParamStore, g: &mut Ctdn| -> Vec<Tensor> {
                let mut tape = Tape::new();
                let h = forward(&tp, &mut tape, store, g);
                h.iter().map(|&hv| tape.value(hv).clone()).collect()
            };
            let base = run(&store, &mut g);

            for u in 0..6 {
                // Perturb X(u) strongly.
                let mut g2 = g.clone();
                for f in g2.features_mut().row_mut(u) {
                    *f += 2.5;
                }
                let pert = run(&store, &mut g2);
                for v in 0..6 {
                    let changed = base[v].sub(&pert[v]).max_abs() > 1e-6;
                    let expected = u == v || inf.is_influential(u, v);
                    assert_eq!(
                        changed, expected,
                        "updater {:?}: perturbing {u} {} h({v})",
                        cfg.updater,
                        if changed { "changed" } else { "did not change" }
                    );
                }
            }
            // Keep store "used" for both configs.
            store.zero_grads();
        }
    }

    #[test]
    fn edge_order_changes_embeddings() {
        // The Fig. 1 motivation: same static topology, different edge order,
        // different node embeddings.
        let cfg = TpGnnConfig::sum(3);
        let (store, tp) = make(&cfg);
        let mut feats = NodeFeatures::zeros(4, 3);
        for v in 0..4 {
            feats.row_mut(v).copy_from_slice(&[0.2 * v as f32 + 0.1, 0.5, 0.9]);
        }
        // Order A: 0->1 (t1), 1->2 (t2), 2->3 (t3): chain influence flows.
        let mut ga = Ctdn::new(feats.clone());
        ga.try_add_edge(0, 1, 1.0).unwrap();
        ga.try_add_edge(1, 2, 2.0).unwrap();
        ga.try_add_edge(2, 3, 3.0).unwrap();
        // Order B: same static edges, reversed times: no transitive flow.
        let mut gb = Ctdn::new(feats);
        gb.try_add_edge(2, 3, 1.0).unwrap();
        gb.try_add_edge(1, 2, 2.0).unwrap();
        gb.try_add_edge(0, 1, 3.0).unwrap();

        let run = |g: &mut Ctdn| -> Vec<Tensor> {
            let mut tape = Tape::new();
            let h = forward(&tp, &mut tape, &store, g);
            h.iter().map(|&hv| tape.value(hv).clone()).collect()
        };
        let ha = run(&mut ga);
        let hb = run(&mut gb);
        // Node 3's embedding must differ: in A it aggregates 0,1,2; in B only 2.
        assert!(ha[3].sub(&hb[3]).max_abs() > 1e-5);
    }

    #[test]
    fn random_propagation_varies_between_calls() {
        let mut cfg = TpGnnConfig::sum(3);
        cfg.propagation = PropagationKind::Random;
        cfg.use_time_encoding = false;
        let (store, tp) = make(&cfg);
        let mut g = chain_graph(8);
        let run = |g: &mut Ctdn| -> Tensor {
            let mut tape = Tape::new();
            let h = forward(&tp, &mut tape, &store, g);
            let vals: Vec<Tensor> = h.iter().map(|&hv| tape.value(hv).clone()).collect();
            Tensor::stack_rows(&vals)
        };
        let a = run(&mut g);
        let b = run(&mut g);
        // The random edge order is re-drawn per call (train-time stochasticity).
        assert!(a.sub(&b).max_abs() > 1e-7, "random aggregation should vary across calls");
    }

    #[test]
    fn no_propagation_ignores_edges() {
        let mut cfg = TpGnnConfig::sum(3);
        cfg.propagation = PropagationKind::None;
        let (store, tp) = make(&cfg);
        let mut g1 = chain_graph(5);
        let mut g2 = chain_graph(5);
        // Same features, extra edge in g2: `w/o tem` node states must match.
        g2.try_add_edge(0, 4, 10.0).unwrap();
        let run = |g: &mut Ctdn| -> Tensor {
            let mut tape = Tape::new();
            let h = forward(&tp, &mut tape, &store, g);
            let vals: Vec<Tensor> = h.iter().map(|&hv| tape.value(hv).clone()).collect();
            Tensor::stack_rows(&vals)
        };
        assert_eq!(run(&mut g1), run(&mut g2));
    }

    #[test]
    fn repeated_edges_accumulate_in_sum() {
        let cfg = TpGnnConfig::sum(3);
        let (store, tp) = make(&cfg);
        let mut feats = NodeFeatures::zeros(2, 3);
        feats.row_mut(0).copy_from_slice(&[0.5, 0.5, 0.5]);
        let mut g1 = Ctdn::new(feats.clone());
        g1.try_add_edge(0, 1, 1.0).unwrap();
        let mut g2 = Ctdn::new(feats);
        g2.try_add_edge(0, 1, 1.0).unwrap();
        g2.try_add_edge(0, 1, 2.0).unwrap();
        let run = |g: &mut Ctdn| -> Tensor {
            let mut tape = Tape::new();
            let h = forward(&tp, &mut tape, &store, g);
            tape.value(h[1]).clone()
        };
        assert!(run(&mut g1).sub(&run(&mut g2)).max_abs() > 1e-6);
    }

    /// The builder and propagation-state snapshot formats are spilled,
    /// journaled and recovered, so their bytes are pinned here literally.
    #[test]
    fn snapshot_formats_are_pinned() {
        use tpgnn_graph::stream::{CtdnBuilder, StreamConfig, StreamEvent};

        let cfg = StreamConfig { lateness: 1.0, track_releases: true, ..StreamConfig::default() };
        let mut b = CtdnBuilder::with_zero_features(3, 2, cfg.clone());
        for ev in [
            StreamEvent::new(0, 1, 1.0),
            StreamEvent::new(0, 1, 1.0),
            StreamEvent::new(0, 9, 2.0),
            StreamEvent::from_origin(1, 2, 3.5, 4),
        ] {
            b.push(ev);
        }
        let text = b.snapshot();
        assert_eq!(
            text,
            concat!(
                "ctdn-builder v1\n",
                "meta 4 400c000000000000 3ff0000000000000\n",
                "stats 4 1 2 0 2\n",
                "edges 1\n",
                "e 0 1 3ff0000000000000\n",
                "buffer 1\n",
                "b 4 1 2 4615063718147915776 4\n",
                "seen 2\n",
                "s 4607182418800017408 0 1\n",
                "s 4615063718147915776 1 2\n",
                "origins 2\n",
                "o 0 3ff0000000000000\n",
                "o 4 400c000000000000\n",
                "pending 1\n",
                "p 0 1 3ff0000000000000 0\n",
                "quarantine 2\n",
                "q 2 0 1 3ff0000000000000 0 dup\n",
                "q 3 0 9 4000000000000000 0 mal-dst 9 3\n",
            )
        );
        let back = CtdnBuilder::restore(b.features().clone(), cfg, &text).unwrap();
        assert_eq!(back.snapshot(), text);

        let state = PropState {
            frozen: false,
            sum: true,
            x: vec![
                Tensor::from_vec(1, 2, vec![1.0, -0.0]),
                Tensor::from_vec(1, 2, vec![0.5, f32::NAN]),
            ],
            m: Some(vec![Tensor::from_vec(1, 1, vec![2.0]), Tensor::from_vec(1, 1, vec![-1.5])]),
        };
        let text = state.snapshot();
        assert_eq!(
            text,
            concat!(
                "prop-state v1\n",
                "meta 0 1 2 2 1\n",
                "x 3f800000 80000000\n",
                "x 3f000000 7fc00000\n",
                "m 40000000\n",
                "m bfc00000\n",
            )
        );
        assert_eq!(PropState::restore(&text).unwrap().snapshot(), text);
    }
}
