//! `tpgnn-benchmark`: one benchmark for the TP-GNN workspace.
//!
//! ```text
//! tpgnn-benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1 | --traced]
//!                 [--smoke] [--out DIR]
//! tpgnn-benchmark compare <set A dir> <set B dir> [--bench BENCHMARK.json]
//! ```
//!
//! Each workload runs in its own child process with `TPGNN_THREADS=1`.
//! The parent prints every metric as `workload metric value unit`, writes
//! each run's record under `--out` (default `$CARGO_TARGET_DIR/benchmark`,
//! else `target/benchmark`), ends its output with one JSON result line and
//! exits non-zero if any correctness check failed. `--trace 1` (or
//! `--traced`) reports the per-layer metrics instead of the end-to-end ones.
//! See README.md for the metrics, the workloads and why each exists.

mod compare;
mod layers;
mod report;
mod serve;
mod store;
mod traffic;
mod train;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use report::{Metrics, RunResult};
use tpgnn_obs::Json;

/// Set-ups at the start of a run. More follow at pauses spread over the
/// measured phases, off the clock, so that `setup_s`, the median of all of
/// them, samples the machine over the whole run and not only its first
/// tens of milliseconds.
pub const SETUP_FIRST: usize = 3;

/// Pool width of the workload processes. The pool spawns its workers for
/// every call that fans out, and on the 2-vCPU measurement machine width 2
/// made every timing noisier: over eight serve-steady runs alternating
/// between the widths, the quartile spread of `service_p99_ms` was 0.11 at
/// width 2 and 0.04 at width 1, and that of `peak_rss_mb` 0.17 and 0.01.
/// The traced run measures the fan-out at [`FANOUT_WIDTH`] separately.
const POOL_WIDTH: &str = "1";

/// Width of the traced run's fan-out pass (`par.fanout_speedup`).
pub const FANOUT_WIDTH: usize = 2;

/// glibc malloc settings for the workload processes: the mmap threshold
/// pinned at its initial 128 KiB, so every larger block is mapped on
/// allocation and unmapped on free. With glibc's default the threshold
/// rises to the largest mapped block freed so far, and larger blocks are
/// then carved from the heap and kept there when freed. A serve-steady
/// pass then peaked at 33.1 MB resident in some runs and 36.0 MB in others.
const MALLOC_TUNABLES: &str = "glibc.malloc.mmap_threshold=131072";

pub const WORKLOADS: [&str; 4] = [
    "train-forum-gru",
    "serve-steady",
    "serve-alerts-durable",
    "serve-overload",
];

/// End-to-end metrics, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("capacity_per_s", "1/s"),
    ("service_p50_ms", "ms"),
    ("service_p99_ms", "ms"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// Per-layer metrics, reported with `--trace 1`. A workload that does not
/// exercise a layer reports zero for it.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut timed = |prefix: &str| {
        out.push((format!("{prefix}.calls"), "count"));
        out.push((format!("{prefix}.busy_ms"), "ms"));
        out.push((format!("{prefix}.mean_us"), "us"));
    };
    for op in ["open", "advance", "score", "train_step", "forward"] {
        timed(&format!("core.{op}"));
    }
    timed("stream.push");
    out.push(("core.score.edges_replayed".into(), "count"));
    for (op, bytes) in [
        ("append", true),
        ("sync", false),
        ("create_atomic", true),
        ("read", true),
        ("rename", false),
        ("other", false),
    ] {
        out.push((format!("vfs.{op}.calls"), "count"));
        out.push((format!("vfs.{op}.busy_ms"), "ms"));
        if bytes {
            out.push((format!("vfs.{op}.bytes"), "B"));
        }
    }
    let fixed: [(&str, &str); 26] = [
        ("vfs.errors", "count"),
        ("stream.released", "count"),
        ("stream.quarantined", "count"),
        ("stream.reorder_depth_max", "count"),
        ("serve.requests", "count"),
        ("serve.busy_ms", "ms"),
        ("serve.self_ms", "ms"),
        ("serve.self_share", "share"),
        ("serve.resident_max", "count"),
        ("serve.evicted", "count"),
        ("serve.restored", "count"),
        ("serve.early_suspensions", "count"),
        ("serve.dropped_closed", "count"),
        ("serve.early_scores", "count"),
        ("serve.final_scores", "count"),
        ("serve.event_loss_share", "share"),
        ("serve.slo_miss_share", "share"),
        ("tensor.fwd_ms", "ms"),
        ("tensor.bwd_ms", "ms"),
        ("tensor.ops", "count"),
        ("tensor.out_bytes", "B"),
        ("tensor.top_ops_share", "share"),
        ("par.fanout_speedup", "ratio"),
        ("pool.tasks", "count"),
        ("pool.task_ms", "ms"),
        ("loadgen.oversleep_p99_us", "us"),
    ];
    out.extend(fixed.iter().map(|(n, u)| (n.to_string(), *u)));
    for op in layers::TOP_OPS {
        out.push((format!("tensor.{op}.calls"), "count"));
        out.push((format!("tensor.{op}.fwd_ms"), "ms"));
        out.push((format!("tensor.{op}.bwd_ms"), "ms"));
    }
    out.push(("trace.overhead".into(), "share"));
    out.push(("train.test_f1".into(), "ratio"));
    out.push(("train.infer_graphs_per_s".into(), "1/s"));
    out
}

/// Settings of one workload run.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

fn run_workload(ctx: &Ctx) -> RunResult {
    let smoke = ctx.smoke;
    let mut res = match ctx.workload.as_str() {
        "train-forum-gru" => train::run(
            &if smoke {
                train::TrainSpec {
                    graphs: 30,
                    epochs: 1,
                    passes: 2,
                    rate_gps: 100.0,
                }
            } else {
                train::TrainSpec {
                    graphs: 1000,
                    epochs: 10,
                    passes: 3,
                    rate_gps: 3000.0,
                }
            },
            ctx,
        ),
        name => {
            let base = serve::ServeSpec {
                gru: false,
                early_warning_every: 0,
                journal: false,
                max_resident: 0,
                spill: false,
                sessions: 0,
                rate_eps: 0.0,
            };
            let spec = match name {
                "serve-steady" => serve::ServeSpec {
                    gru: true,
                    sessions: 5000,
                    rate_eps: 60_000.0,
                    ..base
                },
                "serve-alerts-durable" => serve::ServeSpec {
                    early_warning_every: 2,
                    journal: true,
                    sessions: 3000,
                    rate_eps: 30_000.0,
                    ..base
                },
                "serve-overload" => serve::ServeSpec {
                    early_warning_every: 8,
                    max_resident: 350,
                    spill: true,
                    sessions: 4000,
                    rate_eps: 40_000.0,
                    ..base
                },
                other => unreachable!("workload `{other}` passed argument parsing"),
            };
            let spec = if smoke {
                serve::ServeSpec {
                    sessions: 40,
                    max_resident: spec.max_resident.min(30),
                    rate_eps: spec.rate_eps.min(10_000.0),
                    ..spec
                }
            } else {
                spec
            };
            serve::run(&spec, ctx)
        }
    };
    res.metrics = canonical(&res.metrics, ctx.trace, &mut res.problems);
    res.correct = res.problems.is_empty();
    res
}

/// Order the metrics as the catalog lists them, fill layers the workload
/// does not exercise with zero, and flag any name or unit off the catalog.
fn canonical(got: &Metrics, trace: bool, problems: &mut Vec<String>) -> Metrics {
    let catalog: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    for (name, _, unit) in &got.0 {
        match catalog.iter().find(|(n, _)| n == name) {
            Some((_, u)) if u == unit => {}
            _ => problems.push(format!("metric `{name}` ({unit}) is not in the catalog")),
        }
    }
    let mut out = Metrics::default();
    for (name, unit) in &catalog {
        match got.get(name) {
            Some(v) => out.put(name, v, unit),
            None if trace => out.put(name, 0.0, unit),
            None => {
                problems.push(format!("end-to-end metric `{name}` was not measured"));
                out.put(name, 0.0, unit);
            }
        }
    }
    out
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    child: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: 25.0,
        trace: false,
        smoke: false,
        out: None,
        child: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workloads.push(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--traced" => a.trace = true,
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--child" => a.child = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    if let Some(w) = a
        .workloads
        .iter()
        .find(|w| !WORKLOADS.contains(&w.as_str()))
    {
        return Err(format!(
            "unknown workload `{w}`; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

fn default_out() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("benchmark")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tpgnn-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = args.out.clone().unwrap_or_else(default_out);
    if args.child {
        let workload = args.workloads[0].clone();
        let ctx = Ctx {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            smoke: args.smoke,
            out_dir,
        };
        let res = run_workload(&ctx);
        println!(
            "{}",
            res.record(&ctx.workload, ctx.seed, ctx.trace).render()
        );
        return ExitCode::SUCCESS;
    }
    parent(&args, &out_dir)
}

/// Run each workload in a child process and report.
fn parent(args: &Args, out_dir: &std::path::Path) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("tpgnn-benchmark: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut results: Vec<(String, RunResult)> = Vec::new();
    for w in &args.workloads {
        eprintln!(
            "== {w} (seed {}, {} s, {})",
            args.seed,
            args.seconds,
            if args.trace { "traced" } else { "untraced" }
        );
        let mut cmd = Command::new(&exe);
        cmd.args(["--child", "--workload", w, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .arg("--out")
            .arg(out_dir)
            .env("TPGNN_THREADS", POOL_WIDTH)
            .env("GLIBC_TUNABLES", MALLOC_TUNABLES)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if args.smoke {
            cmd.arg("--smoke");
        }
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("tpgnn-benchmark: cannot run {w}: {e}");
                return ExitCode::from(2);
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let record = stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .map(tpgnn_obs::json::parse);
        let (Some(Ok(record)), true) = (record, output.status.success()) else {
            eprintln!("tpgnn-benchmark: {w} failed ({})", output.status);
            return ExitCode::from(2);
        };
        let Some(mut res) = RunResult::from_line(&record) else {
            eprintln!("tpgnn-benchmark: {w} printed a malformed result");
            return ExitCode::from(2);
        };
        if let Some(Json::Obj(facts)) = record.get("facts") {
            for (k, v) in facts {
                eprintln!("  {k}: {}", v.as_str().unwrap_or_default());
            }
        }
        if let Some(Json::Arr(problems)) = record.get("problems") {
            res.problems = problems
                .iter()
                .filter_map(|p| p.as_str().map(String::from))
                .collect();
            for p in &res.problems {
                eprintln!("  FAILED CHECK: {p}");
            }
        }
        save(out_dir, w, args, &record);
        for (name, value, unit) in &res.metrics.0 {
            println!("{w} {name} {value} {unit}");
        }
        results.push((w.clone(), res));
    }
    let all_correct = results.iter().all(|(_, r)| r.correct);
    let line = if let [(_, only)] = results.as_slice() {
        only.line()
    } else {
        let mut metrics = Metrics::default();
        for (w, r) in &results {
            for (n, v, u) in &r.metrics.0 {
                metrics.put(&format!("{w}.{n}"), *v, u);
            }
        }
        RunResult {
            correct: all_correct,
            attempted: results.iter().map(|(_, r)| r.attempted).sum(),
            failed: results.iter().map(|(_, r)| r.failed).sum(),
            metrics,
            ..RunResult::default()
        }
        .line()
    };
    println!("{}", line.render());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn save(out_dir: &std::path::Path, workload: &str, args: &Args, record: &Json) {
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let kind = if args.trace { "traced" } else { "untraced" };
    let path = out_dir.join(format!("{workload}-s{}-{kind}-{stamp}.json", args.seed));
    if let Err(e) = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, record.render() + "\n"))
    {
        eprintln!("tpgnn-benchmark: cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json must list exactly the workloads and metrics the
    /// binary reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory");
        let j = tpgnn_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(items)) = j.get(key) else {
                panic!("{key} is not a list")
            };
            items
                .iter()
                .map(|m| {
                    let name = m
                        .get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string();
                    (
                        name,
                        m.get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string(),
                    )
                })
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(total <= 128);
    }
}
