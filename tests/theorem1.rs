//! Integration test of **Theorem 1**: for any nodes `u, v`, `u` is
//! influential to `v` **iff** `v` is not independent of `u` in temporal
//! propagation — checked operationally across crates by perturbing `X(u)`
//! and observing `h(v)`, against the combinatorial influence analysis.

use tpgnn_core::{TemporalPropagation, TpGnnConfig, UpdaterKind};
use tpgnn_rng::rngs::StdRng;
use tpgnn_rng::{check, Rng, SeedableRng};
use tpgnn_graph::{Ctdn, InfluenceAnalysis, NodeFeatures};
use tpgnn_tensor::{ParamStore, Tape, Tensor};

fn random_ctdn(n: usize, edges: &[(usize, usize, u32)]) -> Ctdn {
    let mut feats = NodeFeatures::zeros(n, 3);
    for v in 0..n {
        feats.row_mut(v).copy_from_slice(&[
            (v as f32 * 0.37).sin() * 0.5,
            (v as f32 * 0.11).cos() * 0.5,
            v as f32 / n as f32,
        ]);
    }
    let mut g = Ctdn::new(feats);
    for &(s, d, t) in edges {
        g.try_add_edge(s % n, d % n, f64::from(t % 50 + 1)).unwrap();
    }
    g
}

fn node_embeddings(tp: &TemporalPropagation, store: &ParamStore, g: &mut Ctdn) -> Vec<Tensor> {
    let mut tape = Tape::new();
    let edges = g.edges_chronological().to_vec();
    let h = tp.forward(&mut tape, store, g.features(), &edges);
    h.iter().map(|&hv| tape.value(hv).clone()).collect()
}

fn check_theorem1(updater: UpdaterKind, n: usize, edges: &[(usize, usize, u32)]) {
    let mut cfg = TpGnnConfig::sum(3);
    cfg.updater = updater;
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(17);
    let tp = TemporalPropagation::new(&mut store, &cfg, &mut rng);

    let mut g = random_ctdn(n, edges);
    let inf = InfluenceAnalysis::compute(&mut g);
    let base = node_embeddings(&tp, &store, &mut g);

    for u in 0..n {
        let mut g2 = g.clone();
        for f in g2.features_mut().row_mut(u) {
            *f += 3.0;
        }
        let pert = node_embeddings(&tp, &store, &mut g2);
        for v in 0..n {
            let changed = base[v].sub(&pert[v]).max_abs() > 1e-6;
            let expected = u == v || inf.is_influential(u, v);
            assert_eq!(
                changed, expected,
                "{updater:?}: X({u}) perturbation {} h({v}), influence analysis says {}",
                if changed { "changed" } else { "did not change" },
                if expected { "it should" } else { "it should not" },
            );
        }
    }
}

#[test]
fn theorem1_on_fig1_graph() {
    // The Fig. 1 session networks: chain with a late repeat edge.
    let edges = [
        (3, 1, 1),
        (2, 1, 2),
        (1, 0, 3),
        (7, 6, 5),
        (8, 7, 6),
        (9, 8, 7),
        (7, 6, 8),
    ];
    check_theorem1(UpdaterKind::Sum, 10, &edges);
    check_theorem1(UpdaterKind::Gru, 10, &edges);
}

#[test]
fn theorem1_on_dense_multigraph() {
    let edges = [
        (0, 1, 1),
        (0, 1, 2),
        (1, 2, 2),
        (2, 0, 3),
        (3, 2, 4),
        (1, 3, 5),
        (4, 4, 6), // self-loop
        (4, 0, 7),
    ];
    check_theorem1(UpdaterKind::Sum, 5, &edges);
    check_theorem1(UpdaterKind::Gru, 5, &edges);
}

/// Generator: a random edge list over `n` nodes with timestamps in [1, 40).
fn gen_edges(rng: &mut StdRng, n: usize, max_edges: usize) -> Vec<(usize, usize, u32)> {
    (0..rng.random_range(1usize..max_edges))
        .map(|_| (rng.random_range(0..n), rng.random_range(0..n), rng.random_range(1u32..40)))
        .collect()
}

/// Randomized Theorem 1 check over small CTDNs for the SUM updater.
#[test]
fn theorem1_random_graphs_sum() {
    check::cases(
        "theorem1_random_graphs_sum",
        12,
        |rng| gen_edges(rng, 6, 14),
        |edges| check_theorem1(UpdaterKind::Sum, 6, edges),
    );
}

/// Randomized Theorem 1 check for the GRU updater.
#[test]
fn theorem1_random_graphs_gru() {
    check::cases(
        "theorem1_random_graphs_gru",
        12,
        |rng| gen_edges(rng, 5, 10),
        |edges| check_theorem1(UpdaterKind::Gru, 5, edges),
    );
}
