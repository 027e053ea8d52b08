//! `tpgnn-benchmark compare <set A> <set B>`: compare two sets of runs.
//!
//! A set is a directory of run records written by the benchmark (only
//! untraced records count). For every workload and end-to-end metric it
//! prints both medians and quartiles and a verdict under BENCHMARK.json's
//! bounds:
//!
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `better` — B wins at least 9 of every 10 pairs of runs (paired in
//!   run order, so alternate A and B when producing them, at least 10
//!   pairs) and B's median beats A's by more than A's quartile distance;
//! * `unresolved` — either set's spread (quartile distance over median)
//!   exceeds the bound, unless every B run beats every A run;
//! * `same` — otherwise.
//!
//! It also flags records that failed a correctness check, and seeds whose
//! output digest or test F1 differs between runs.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use tpgnn_obs::Json;

use crate::report::{median, quartiles};

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

struct Record {
    file: String,
    workload: String,
    seed: i64,
    correct: bool,
    metrics: BTreeMap<String, f64>,
    facts: BTreeMap<String, String>,
}

fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let j = tpgnn_obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Arr(items)) = j.get("end_to_end") else {
        return Err(format!("{}: no end_to_end list", path.display()));
    };
    items
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{}: malformed end_to_end entry", path.display()))
}

fn load_set(dir: &Path) -> Result<Vec<Record>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let Ok(j) = tpgnn_obs::json::parse(text.trim()) else {
            continue;
        };
        if j.get("trace").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let (Some(workload), Some(seed), Some(correct), Some(Json::Obj(metrics))) = (
            j.get("workload").and_then(Json::as_str),
            j.get("seed").and_then(Json::as_i64),
            j.get("correct").and_then(Json::as_bool),
            j.get("metrics"),
        ) else {
            continue;
        };
        let facts = match j.get("facts") {
            Some(Json::Obj(f)) => f
                .iter()
                .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
                .collect(),
            _ => BTreeMap::new(),
        };
        out.push(Record {
            file: path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default(),
            workload: workload.to_string(),
            seed,
            correct,
            metrics: metrics
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect(),
            facts,
        });
    }
    Ok(out)
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let d = if lower_is_better { b - a } else { a - b };
    d / a.abs().max(f64::MIN_POSITIVE)
}

fn spread(xs: &[f64]) -> (f64, f64, f64) {
    let (q1, q3) = if xs.len() >= 2 {
        quartiles(xs)
    } else {
        (xs[0], xs[0])
    };
    (q1, q3, (q3 - q1) / median(xs).abs().max(f64::MIN_POSITIVE))
}

fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> (String, usize, usize) {
    let lower = bound.lower_is_better;
    let beats = |x: f64, y: f64| if lower { x < y } else { x > y };
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| beats(**y, **x)).count();
    let (ma, mb) = (median(a), median(b));
    let (qa1, qa3, sa) = spread(a);
    let (_, _, sb) = spread(b);
    let all_better = b.iter().all(|y| a.iter().all(|x| beats(*y, *x)));
    let v = if worse_by(ma, mb, lower) > bound.bound {
        "worse"
    } else if pairs >= 10 && wins * 10 >= pairs * 9 && beats(mb, ma) && (mb - ma).abs() > qa3 - qa1
    {
        "better"
    } else if sa.max(sb) > bound.bound && !all_better {
        "unresolved"
    } else {
        "same"
    };
    (v.to_string(), wins, pairs)
}

pub fn main(args: &[String]) -> ExitCode {
    let mut dirs = Vec::new();
    let mut bench = std::path::PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            match it.next() {
                Some(p) => bench = p.into(),
                None => {
                    eprintln!("compare: --bench needs a path");
                    return ExitCode::from(2);
                }
            }
        } else {
            dirs.push(std::path::PathBuf::from(a));
        }
    }
    let [a_dir, b_dir] = dirs.as_slice() else {
        eprintln!(
            "usage: tpgnn-benchmark compare <set A dir> <set B dir> [--bench BENCHMARK.json]"
        );
        return ExitCode::from(2);
    };
    let loaded = load_bounds(&bench).and_then(|b| Ok((b, load_set(a_dir)?, load_set(b_dir)?)));
    let (bounds, set_a, set_b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };

    let mut bad = false;
    for r in set_a.iter().chain(&set_b) {
        if !r.correct {
            println!("INCORRECT run: {}", r.file);
            bad = true;
        }
    }
    // Same workload and seed must give the same outputs in every run.
    let mut seen: BTreeMap<(String, i64, String), (String, String)> = BTreeMap::new();
    for r in set_a.iter().chain(&set_b) {
        for fact in ["digest", "test_f1", "final_loss"] {
            let Some(v) = r.facts.get(fact) else { continue };
            let key = (r.workload.clone(), r.seed, fact.to_string());
            match seen.get(&key) {
                Some((first, file)) if first != v => {
                    println!(
                        "OUTPUT DIFFERS: {} seed {} {fact}: {first} ({file}) vs {v} ({})",
                        r.workload, r.seed, r.file
                    );
                    bad = true;
                }
                Some(_) => {}
                None => {
                    seen.insert(key, (v.clone(), r.file.clone()));
                }
            }
        }
    }

    let workloads: Vec<String> = {
        let mut w: Vec<String> = set_a.iter().map(|r| r.workload.clone()).collect();
        w.sort();
        w.dedup();
        w.retain(|w| set_b.iter().any(|r| &r.workload == w));
        w
    };
    println!(
        "{:<22} {:<15} {:>5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>6} {:>7} verdict",
        "workload",
        "metric",
        "bound",
        "A median",
        "A q1",
        "A q3",
        "B median",
        "B q1",
        "B q3",
        "B/A",
        "wins"
    );
    for w in &workloads {
        for bound in &bounds {
            let values = |set: &[Record]| -> Vec<f64> {
                set.iter()
                    .filter(|r| &r.workload == w)
                    .filter_map(|r| r.metrics.get(&bound.name).copied())
                    .collect()
            };
            let (a, b) = (values(&set_a), values(&set_b));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let (v, wins, pairs) = verdict(&a, &b, bound);
            bad |= v == "worse";
            let (qa1, qa3, _) = spread(&a);
            let (qb1, qb3, _) = spread(&b);
            println!(
                "{w:<22} {:<15} {:>5} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>6.3} {:>7} {v}",
                bound.name,
                bound.bound,
                median(&a),
                qa1,
                qa3,
                median(&b),
                qb1,
                qb3,
                median(&b) / median(&a),
                format!("{wins}/{pairs}"),
            );
        }
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower: bool, b: f64) -> Bound {
        Bound {
            name: "m".into(),
            lower_is_better: lower,
            bound: b,
        }
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let same: Vec<f64> = a.iter().map(|x| x + 0.05).collect();
        assert_eq!(verdict(&a, &same, &bound(true, 0.1)).0, "same");
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &slower, &bound(true, 0.1)).0, "worse");
        assert_eq!(verdict(&a, &slower, &bound(false, 0.1)).0, "better");
        let noisy = vec![50.0, 150.0, 80.0, 120.0, 100.0];
        assert_eq!(verdict(&a, &noisy, &bound(true, 0.1)).0, "unresolved");
    }

    #[test]
    fn a_gain_needs_nine_wins_in_ten_pairs() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + (i % 3) as f64).collect();
        // B is faster in 9 of 10 pairs by more than A's quartile spread.
        let mut b: Vec<f64> = a.iter().map(|x| x - 5.0).collect();
        b[3] = 110.0;
        let (v, wins, pairs) = verdict(&a, &b, &bound(true, 0.1));
        assert_eq!((v.as_str(), wins, pairs), ("better", 9, 10));
        b[4] = 110.0;
        assert_eq!(verdict(&a, &b, &bound(true, 0.1)).0, "same");
    }
}
