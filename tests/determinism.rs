//! Cross-run determinism guard for the in-repo RNG (`tpgnn-rng`).
//!
//! The hermetic-build PR replaced `rand`'s ChaCha12-backed `StdRng` with an
//! in-repo xoshiro256++ generator. Its stream is pure wrapping-integer
//! arithmetic plus IEEE-754 multiplications by powers of two, so the same
//! seed must yield **bitwise-identical** behavior on every platform and in
//! every future session. This test pins that end to end: dataset
//! simulation → Xavier init → training → per-epoch losses.

use tpgnn_core::{GraphClassifier, TpGnn, TpGnnConfig, TrainConfig};
use tpgnn_data::forum_java::{generate_session, ForumJavaConfig};
use tpgnn_data::negative;
use tpgnn_graph::Ctdn;
use tpgnn_rng::rngs::StdRng;
use tpgnn_rng::SeedableRng;

/// A small labeled Forum-java corpus: positives straight from the
/// simulator, negatives via the paper's perturbation sampler.
fn forum_java_corpus(seed: u64, sessions: usize) -> Vec<(Ctdn, f32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = ForumJavaConfig::default();
    let mut out = Vec::with_capacity(sessions * 2);
    for _ in 0..sessions {
        let g = generate_session(&cfg, &mut rng);
        let neg = negative::make_negative(&g, 0.3, &mut rng);
        out.push((g, 1.0));
        out.push((neg, 0.0));
    }
    out
}

/// Training TP-GNN twice from the same seed on the Forum-java simulator
/// must produce bitwise-identical losses for 5 epochs.
#[test]
fn same_seed_training_is_bitwise_identical() {
    let run = || {
        let train = forum_java_corpus(2024, 8);
        let mut model = TpGnn::new(TpGnnConfig::gru(3).with_seed(11));
        tpgnn_core::train(
            &mut model,
            &train,
            &TrainConfig { epochs: 5, shuffle_ties: true, seed: 11 },
        )
        .epoch_losses
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), 5);
    for (epoch, (x, y)) in a.iter().zip(&b).enumerate() {
        assert!(x.is_finite(), "epoch {epoch}: non-finite loss {x}");
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "epoch {epoch}: losses differ across identically-seeded runs ({x} vs {y}) — \
             the RNG stream or a float reduction is non-deterministic"
        );
    }
}

/// Checkpoint determinism: interrupting training at the halfway point,
/// serializing the full training state (weights + Adam moments + step
/// count), restoring it into a **differently-seeded fresh model**, and
/// running the remaining epochs must produce bitwise-identical losses to
/// the uninterrupted run. This is the property the guarded trainer's
/// rollback machinery depends on: a restored checkpoint resumes the exact
/// trajectory. Tie shuffling is disabled so both runs see identical data
/// order without having to thread one RNG through two `train()` calls.
#[test]
fn mid_training_checkpoint_resumes_bitwise_identically() {
    let train = forum_java_corpus(2024, 6);
    let cfg = |epochs| TrainConfig { epochs, shuffle_ties: false, seed: 11 };

    // Uninterrupted: 6 epochs straight.
    let mut full = TpGnn::new(TpGnnConfig::gru(3).with_seed(11));
    let full_losses = tpgnn_core::train(&mut full, &train, &cfg(6)).epoch_losses;

    // Interrupted: 3 epochs, checkpoint, restore into a fresh model with a
    // different init seed, 3 more epochs.
    let mut first_half = TpGnn::new(TpGnnConfig::gru(3).with_seed(11));
    let head = tpgnn_core::train(&mut first_half, &train, &cfg(3)).epoch_losses;
    let state = first_half.save_state().expect("TP-GNN checkpoints");

    let mut resumed = TpGnn::new(TpGnnConfig::gru(3).with_seed(999));
    resumed.load_state(&state).expect("restore");
    let tail = tpgnn_core::train(&mut resumed, &train, &cfg(3)).epoch_losses;

    let stitched: Vec<f32> = head.iter().chain(&tail).copied().collect();
    assert_eq!(full_losses.len(), stitched.len());
    for (epoch, (x, y)) in full_losses.iter().zip(&stitched).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "epoch {epoch}: resumed run diverged from uninterrupted run ({x} vs {y}) — \
             the training-state checkpoint does not capture the full optimizer state"
        );
    }
}

/// The parallel execution layer must not change a single bit: training
/// losses under `TPGNN_THREADS=1` (pure sequential, no worker threads) and
/// under a 4-wide pool must be identical. Parallel prediction fans out per
/// graph and the matmul kernels split by output row, but every per-element
/// accumulation order is unchanged — this test pins that contract.
#[test]
fn training_losses_identical_across_thread_counts() {
    let run = |threads: usize| {
        tpgnn_par::with_thread_override(threads, || {
            let train = forum_java_corpus(2024, 8);
            let mut model = TpGnn::new(TpGnnConfig::gru(3).with_seed(11));
            tpgnn_core::train(
                &mut model,
                &train,
                &TrainConfig { epochs: 3, shuffle_ties: true, seed: 11 },
            )
            .epoch_losses
        })
    };
    let seq = run(1);
    let par = run(4);
    for (epoch, (x, y)) in seq.iter().zip(&par).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "epoch {epoch}: loss differs between 1 and 4 threads ({x} vs {y}) — \
             a parallel path changed an accumulation order"
        );
    }
}

/// A full eval-grid cell (dataset generation → guarded training → parallel
/// test-set inference → metric aggregation) must also be bitwise-identical
/// across thread counts, including when several cells share the pool.
#[test]
fn eval_cell_metrics_identical_across_thread_counts() {
    use tpgnn_data::DatasetKind;
    use tpgnn_eval::{run_cells, CellSpec, ExperimentConfig};

    let cfg = ExperimentConfig {
        num_graphs: 16,
        runs: 2,
        epochs: 1,
        train_frac: 0.5,
        learning_rate: 3e-3,
        base_seed: 3,
    };
    let run = |threads: usize| {
        tpgnn_par::with_thread_override(threads, || {
            let specs = [
                CellSpec::zoo("TP-GNN-SUM", DatasetKind::Hdfs),
                CellSpec::zoo("GCN", DatasetKind::Hdfs),
            ];
            run_cells(&specs, &cfg)
        })
    };
    let seq = run(1);
    let par = run(4);
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.model, b.model);
        for (label, x, y) in [
            ("f1.mean", a.f1.mean, b.f1.mean),
            ("f1.std", a.f1.std, b.f1.std),
            ("precision.mean", a.precision.mean, b.precision.mean),
            ("recall.mean", a.recall.mean, b.recall.mean),
        ] {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{}: {label} differs between 1 and 4 threads ({x} vs {y})",
                a.model
            );
        }
    }
}

/// The online serving path is bitwise-identical across pool widths: the
/// same seeded chaos-traffic load plan, driven through a `SessionServer`
/// at `TPGNN_THREADS=1` and at a 4-wide pool, must emit identical score
/// records (session, kind, probability bits, edge counts) and identical
/// deterministic counters — exactly what `bench_serve.json` records (its
/// latency fields are the one explicitly wall-clock, non-pinned part).
/// `scripts/ci.sh` additionally runs this whole test binary under both
/// `TPGNN_THREADS` settings, so the override and the env path are each
/// exercised.
#[test]
fn serve_scores_and_counters_identical_across_thread_counts() {
    use tpgnn_data::chaos::FaultPlan;
    use tpgnn_serve::loadgen::{run, LoadPlan};

    let model = TpGnn::new(TpGnnConfig::sum(3).with_seed(17));
    // The delay component gives the plan's matched stream config a finite
    // lateness horizon, so edges release (and early warnings fire) while
    // sessions are still open rather than only at close.
    let fault = FaultPlan { delay_rate: 0.1, delay_margin: 3.0, ..FaultPlan::mixed(0.15) };
    let plan = LoadPlan {
        sessions: 24,
        seed: 2024,
        fault,
        batch_size: 48,
        early_warning_every: 8,
        ..LoadPlan::default()
    };
    let go = |threads: usize| {
        tpgnn_par::with_thread_override(threads, || run(&model, &plan).expect("model serves"))
    };
    let seq = go(1);
    let par = go(4);
    assert_eq!(seq.records.len(), par.records.len(), "record counts differ");
    for (i, (a, b)) in seq.records.iter().zip(&par.records).enumerate() {
        assert_eq!(
            (a.session, a.kind, a.proba.to_bits(), a.edges),
            (b.session, b.kind, b.proba.to_bits(), b.edges),
            "record {i} differs between 1 and 4 threads — \
             a serving path depends on pool width"
        );
    }
    assert_eq!(seq.stats, par.stats, "serve counters differ across thread counts");
    assert_eq!(seq.ledger, par.ledger, "fault ledgers differ across thread counts");
    assert_eq!(seq.stats.final_scores, plan.sessions, "one final score per session");
    assert!(seq.stats.early_scores > 0, "plan produced no early warnings");
}

/// Different training seeds must actually change the trajectory —
/// otherwise the test above passes vacuously (e.g. if seeding were
/// ignored and everything ran from a fixed state).
#[test]
fn different_seed_training_differs() {
    let run = |seed: u64| {
        let train = forum_java_corpus(seed, 8);
        let mut model = TpGnn::new(TpGnnConfig::gru(3).with_seed(seed));
        tpgnn_core::train(
            &mut model,
            &train,
            &TrainConfig { epochs: 2, shuffle_ties: true, seed },
        )
        .epoch_losses
    };
    assert_ne!(run(7), run(8), "distinct seeds produced identical loss curves");
}

/// The simulator itself is seed-deterministic: identical seeds give
/// identical edge streams, features, and timestamps.
#[test]
fn forum_java_simulator_is_seed_deterministic() {
    let gen = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        generate_session(&ForumJavaConfig::default(), &mut rng)
    };
    let (a, b) = (gen(5), gen(5));
    assert_eq!(a.num_edges(), b.num_edges());
    for (ea, eb) in a.edges().iter().zip(b.edges()) {
        assert_eq!((ea.src, ea.dst, ea.time.to_bits()), (eb.src, eb.dst, eb.time.to_bits()));
    }
    assert_ne!(
        gen(5).edges().iter().map(|e| (e.src, e.dst)).collect::<Vec<_>>(),
        gen(6).edges().iter().map(|e| (e.src, e.dst)).collect::<Vec<_>>(),
        "distinct seeds produced identical sessions"
    );
}

/// Small fixed graphs for the golden-bits test: a chain, a revisit cycle
/// with a timestamp tie, and an edgeless graph.
fn golden_graphs() -> Vec<Ctdn> {
    let mut graphs = Vec::new();
    for (n, edges) in [
        (4, vec![(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.5)]),
        (5, vec![(0, 1, 0.5), (1, 0, 1.5), (2, 3, 1.5), (3, 4, 2.0), (4, 0, 7.25), (0, 1, 9.0)]),
        (3, vec![]),
    ] {
        let mut feats = tpgnn_graph::NodeFeatures::zeros(n, 3);
        for v in 0..n {
            let s = 0.37 * (v + n) as f32;
            feats.row_mut(v).copy_from_slice(&[s.sin(), s.cos(), 0.25 * v as f32]);
        }
        let mut g = Ctdn::new(feats);
        for (src, dst, time) in edges {
            g.try_add_edge(src, dst, time).unwrap();
        }
        graphs.push(g);
    }
    graphs
}

/// Golden bits: fixed `predict_proba` outputs and per-epoch training losses,
/// pinned as IEEE-754 bit patterns. Every other contract in this file
/// compares one run against another run of the same build, so a change
/// that moved the batch and incremental arithmetic together would pass
/// them all; this one compares against recorded values. The bits are
/// those of x86-64 Linux builds (`tanh`/`exp` come from the platform
/// libm). A change that alters the model's outputs on purpose must update
/// these constants and say why.
#[test]
fn golden_output_and_loss_bits_are_pinned() {
    use tpgnn_core::{AblationVariant, PropagationKind, Readout};

    let configs: [(&str, TpGnnConfig, [u32; 3]); 6] = [
        ("sum", TpGnnConfig::sum(3).with_seed(5), [0x3ef6_a901, 0x3ef1_3687, 0x3f00_0000]),
        ("gru", TpGnnConfig::gru(3).with_seed(5), [0x3ece_6d05, 0x3ebb_f1d4, 0x3f00_0000]),
        (
            "temp",
            AblationVariant::Temp.apply(TpGnnConfig::sum(3).with_seed(5)),
            [0x3ef3_b71a, 0x3ee9_fcc6, 0x3efc_d1ce],
        ),
        (
            "gru temp",
            AblationVariant::Temp.apply(TpGnnConfig::gru(3).with_seed(5)),
            [0x3eda_c90a, 0x3edb_27fd, 0x3ed8_15aa],
        ),
        (
            "w/o tem",
            {
                let mut c = TpGnnConfig::sum(3).with_seed(5);
                c.propagation = PropagationKind::None;
                c
            },
            [0x3f08_5abf, 0x3f02_ee5b, 0x3f00_0000],
        ),
        (
            "transformer readout",
            {
                let mut c = TpGnnConfig::sum(3).with_seed(5);
                c.readout = Readout::TransformerExtractor;
                c
            },
            [0x3f10_ea4f, 0x3f0e_d0e0, 0x3f00_0000],
        ),
    ];
    for (label, cfg, want) in configs {
        let mut model = TpGnn::new(cfg);
        let got: Vec<u32> =
            golden_graphs().iter_mut().map(|g| model.predict_proba(g).to_bits()).collect();
        assert_eq!(got, want, "{label}: predict_proba bits moved");
    }

    let train = forum_java_corpus(2024, 2);
    for (label, cfg, want) in [
        ("sum", TpGnnConfig::sum(3).with_seed(11), [0x3f44_1ea2, 0x3f42_052a, 0x3f37_1e30]),
        ("gru", TpGnnConfig::gru(3).with_seed(11), [0x3f39_efc2, 0x3f34_1a1a, 0x3f33_5690]),
    ] {
        let mut model = TpGnn::new(cfg);
        let losses = tpgnn_core::train(
            &mut model,
            &train,
            &TrainConfig { epochs: 3, shuffle_ties: true, seed: 11 },
        )
        .epoch_losses;
        let got: Vec<u32> = losses.iter().map(|l| l.to_bits()).collect();
        assert_eq!(got, want, "{label}: training loss bits moved");
    }
}
