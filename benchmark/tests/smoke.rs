//! Runs every workload at tiny sizes, untraced and traced, then compares
//! two run sets, all through the real command line.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = [
    "train-forum-gru",
    "serve-steady",
    "serve-alerts-durable",
    "serve-overload",
];

fn bench(args: &[&str], out: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tpgnn-benchmark"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("benchmark binary runs")
}

fn stdout_lines(o: &Output) -> Vec<String> {
    String::from_utf8_lossy(&o.stdout)
        .lines()
        .map(String::from)
        .collect()
}

fn fresh(name: &str) -> PathBuf {
    let dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_ok(o: &Output, what: &str) {
    assert!(
        o.status.success(),
        "{what} failed:\n{}",
        String::from_utf8_lossy(&o.stderr)
    );
}

#[test]
fn all_workloads_traced_and_compared() {
    let (set_a, set_b) = (fresh("a"), fresh("b"));
    let tiny = ["--smoke", "--seconds", "0.3", "--seed", "5"];

    let untraced = bench(&tiny, &set_a);
    assert_ok(&untraced, "untraced run");
    let lines = stdout_lines(&untraced);
    for w in WORKLOADS {
        for m in ["setup_s", "capacity_per_s", "latency_p99_ms"] {
            assert!(
                lines.iter().any(|l| l.starts_with(&format!("{w} {m} "))),
                "{w} {m} missing"
            );
        }
    }
    let last = lines.last().expect("result line");
    assert!(last.starts_with("{\"correct\":true,"), "{last}");

    let traced = bench(&[&tiny[..], &["--traced"]].concat(), &set_a);
    assert_ok(&traced, "traced run");
    let lines = stdout_lines(&traced);
    assert!(lines
        .iter()
        .any(|l| l.starts_with("serve-steady core.advance.calls ")));
    assert!(lines
        .iter()
        .any(|l| l.starts_with("serve-alerts-durable vfs.sync.calls ")));
    assert!(lines
        .iter()
        .any(|l| l.starts_with("train-forum-gru core.train_step.calls ")));
    let steady_syncs = lines
        .iter()
        .find(|l| l.starts_with("serve-steady vfs.sync.calls "))
        .expect("listed");
    assert!(
        steady_syncs.ends_with(" 0 count"),
        "steady must do no I/O: {steady_syncs}"
    );

    let again = bench(
        &[&tiny[..], &["--workload", "serve-steady"]].concat(),
        &set_b,
    );
    assert_ok(&again, "single-workload run");
    let last = stdout_lines(&again).pop().expect("result line");
    assert!(last.contains("\"capacity_per_s\":{\"value\":"), "{last}");

    let bench_json = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let cmp = Command::new(env!("CARGO_BIN_EXE_tpgnn-benchmark"))
        .args(["compare"])
        .arg(&set_a)
        .arg(&set_b)
        .args(["--bench", bench_json])
        .output()
        .expect("compare runs");
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert!(
        !table.contains("OUTPUT DIFFERS") && !table.contains("INCORRECT"),
        "{table}"
    );
    assert!(
        table
            .lines()
            .any(|l| l.starts_with("serve-steady") && l.contains("capacity_per_s")),
        "{table}"
    );

    for d in [set_a, set_b] {
        let _ = std::fs::remove_dir_all(d);
    }
}
