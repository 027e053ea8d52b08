//! Metric sets, summary statistics and the result line.

use tpgnn_obs::Json;

/// Named metrics with units, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, String)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    pub fn count(&mut self, name: &str, value: f64) {
        self.put(name, value, "count");
    }

    pub fn ms(&mut self, name: &str, value: f64) {
        self.put(name, value, "ms");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(n, v, u)| {
                    let value = Json::Num(*v);
                    (
                        n.clone(),
                        Json::Obj(vec![
                            ("value".into(), value),
                            ("unit".into(), Json::Str(u.clone())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    pub fn from_json(j: &Json) -> Option<Self> {
        let Json::Obj(members) = j else { return None };
        let mut out = Self::default();
        for (name, m) in members {
            out.put(name, m.get("value")?.as_f64()?, m.get("unit")?.as_str()?);
        }
        Some(out)
    }
}

/// The outcome of one workload run: the contract's result object plus
/// facts printed for the reader (digests, F1, loss bits).
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub facts: Vec<(String, String)>,
    pub problems: Vec<String>,
}

impl RunResult {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn fact(&mut self, name: &str, value: impl ToString) {
        self.facts.push((name.to_string(), value.to_string()));
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn line(&self) -> Json {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Int(self.attempted as i64)),
            ("failed".into(), Json::Int(self.failed as i64)),
            ("metrics".into(), self.metrics.to_json()),
        ])
    }

    /// The result line plus facts and problems, as written to disk.
    pub fn record(&self, workload: &str, seed: u64, trace: bool) -> Json {
        let Json::Obj(mut members) = self.line() else {
            unreachable!("line is an object")
        };
        members.insert(0, ("workload".into(), Json::Str(workload.into())));
        members.insert(1, ("seed".into(), Json::Int(seed as i64)));
        members.insert(2, ("trace".into(), Json::Bool(trace)));
        members.push((
            "facts".into(),
            Json::Obj(
                self.facts
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ));
        members.push((
            "problems".into(),
            Json::Arr(self.problems.iter().map(|p| Json::Str(p.clone())).collect()),
        ));
        Json::Obj(members)
    }

    pub fn from_line(j: &Json) -> Option<Self> {
        Some(Self {
            correct: j.get("correct")?.as_bool()?,
            attempted: j.get("attempted")?.as_i64()? as u64,
            failed: j.get("failed")?.as_i64()? as u64,
            metrics: Metrics::from_json(j.get("metrics")?)?,
            facts: Vec::new(),
            problems: Vec::new(),
        })
    }
}

/// Nearest-rank percentile (`p` in 0..=100); 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    tpgnn_serve::loadgen::percentile(samples, p)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Each request's median time across `passes`, which replay the same
/// requests in the same order. When the process stalls for 10 to 45 ms (on
/// a shared 2-vCPU virtual machine, mostly while both pool workers are
/// busy), every open-loop request due during the stall waits it out, and
/// one stall can set a pass's p99; a slow stretch of the machine slows
/// every request of a pass or two. Either delays a request in few passes,
/// so the median across passes drops it, while a request the program makes
/// slow is slow in every pass. A pass cut short limits the requests kept.
pub fn typical(passes: &[&[f64]]) -> Vec<f64> {
    let n = passes.iter().map(|s| s.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| median(&passes.iter().map(|s| s[i]).collect::<Vec<f64>>()))
        .collect()
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(data, n=4)`, so spreads read the same here as in
/// any tool that uses it. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut d = samples.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Restart the peak-RSS count from the current resident size, so set-up
/// and warm-up do not decide `peak_rss_mb`. Where the kernel refuses, the
/// peak keeps counting from process start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Streaming 64-bit FNV-1a.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn feed(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn typical_times_keep_slow_requests_and_drop_stalls() {
        // Five passes of 200 requests: three requests are slow in every
        // pass, and each pass has a stall over 20 requests of its own.
        let passes: Vec<Vec<f64>> = (0..5)
            .map(|k| {
                let mut pass = vec![1.0; 200];
                for i in [10, 20, 30] {
                    pass[i] = 5.0;
                }
                for x in &mut pass[60 + 20 * k..80 + 20 * k] {
                    *x = 30.0;
                }
                pass
            })
            .collect();
        let slices: Vec<&[f64]> = passes.iter().map(Vec::as_slice).collect();
        assert_eq!(percentile(&slices.concat(), 99.0), 30.0);
        let t = typical(&slices);
        assert_eq!(percentile(&t, 99.0), 5.0);
        assert_eq!(percentile(&t, 50.0), 1.0);
        assert_eq!(t.iter().sum::<f64>(), 197.0 + 15.0);
        assert_eq!(percentile(&typical(&slices[..1]), 99.0), 30.0);
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = Fnv::default();
        h.feed(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }
}
