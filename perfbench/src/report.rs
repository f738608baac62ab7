//! Sample summaries, the host stamp, and the JSON lines the benchmark
//! prints.

use std::fmt::Write as _;

/// One reported metric: its samples (one per pass, or a single value) and
/// unit. The reported value is the median of the samples.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Self {
        Metric { name, unit, samples }
    }

    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric::new(name, unit, vec![value])
    }

    pub fn summary(&self) -> Summary {
        Summary::of(&self.samples)
    }
}

/// n, min, quartiles, median and max of a sample set. Quartiles use the
/// "exclusive" method of Python's `statistics.quantiles(values, n=4)`, so
/// the numbers match what a reader recomputes from the raw samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        let Some((&min, &max)) = sorted.first().zip(sorted.last()) else {
            return Summary {
                n: 0,
                min: 0.0,
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
                max: 0.0,
            };
        };
        Summary {
            n: sorted.len(),
            min,
            q1: quantile(&sorted, 1, 4),
            median: quantile(&sorted, 2, 4),
            q3: quantile(&sorted, 3, 4),
            max,
        }
    }
}

/// The `i`-th of the `n`-quantiles of `sorted`: Python's exclusive method,
/// which extrapolates past the ends of very small samples. With a single
/// sample every quantile is that sample.
fn quantile(sorted: &[f64], i: usize, n: usize) -> f64 {
    let len = sorted.len();
    if len == 1 {
        return sorted[0];
    }
    let m = len + 1;
    let j = (i * m / n).clamp(1, len - 1);
    let delta = (i * m) as f64 / n as f64 - j as f64;
    sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
}

/// The median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Where and with what the numbers were taken, so two reports can be
/// checked for comparability before they are compared.
#[derive(Clone, Debug)]
pub struct HostStamp {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub commit: String,
}

impl HostStamp {
    pub fn collect() -> HostStamp {
        HostStamp {
            nproc: nproc(),
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|text| {
                    text.lines()
                        .find(|line| line.starts_with("model name"))
                        .and_then(|line| line.split_once(':'))
                        .map(|(_, model)| model.trim().to_string())
                })
                .unwrap_or_else(|| "unknown".to_string()),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            commit: git_commit().unwrap_or_else(|| "unknown (not a git checkout)".to_string()),
        }
    }
}

/// Worker threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the working directory, read from `.git`
/// directly so no process outside the checkout is consulted.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        line.strip_suffix(reference)
            .map(|commit| commit.trim().to_string())
    })
}

/// User + system CPU seconds of this process so far, all threads
/// included (`/proc/self/stat`, in clock ticks of 10 ms).
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_SECOND
}

/// Resets the resident-set high-water mark to the current resident set,
/// so a later [`peak_rss_mb`] covers only what follows. Returns `false`
/// where the kernel offers no reset (the mark then covers the whole
/// process lifetime).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one invocation found out, ready to print.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub scale: u64,
    pub seconds: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn mismatch_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable table, one row per metric.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} (scale {}, seed {}, {} s, trace {}): mismatch_frac {} ({} of {} runs failed)\n",
            self.workload,
            self.scale,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.mismatch_frac(),
            self.failed,
            self.attempted
        );
        let _ = writeln!(
            out,
            "{:<36} {:>14} {:<10} {:>4} {:>12} {:>12} {:>12} {:>12}",
            "metric", "value", "unit", "n", "min", "q1", "q3", "max"
        );
        for metric in &self.metrics {
            let s = metric.summary();
            let _ = writeln!(
                out,
                "{:<36} {:>14.6} {:<10} {:>4} {:>12.6} {:>12.6} {:>12.6} {:>12.6}",
                metric.name, s.median, metric.unit, s.n, s.min, s.q1, s.q3, s.max
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }

    /// The full report: host stamp, run settings and the sample summary of
    /// every metric.
    pub fn report_json(&self, host: &HostStamp) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|metric| {
                let s = metric.summary();
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"n\": {}, \"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}}}",
                    string(metric.name),
                    number(s.median),
                    string(metric.unit),
                    s.n,
                    number(s.min),
                    number(s.q1),
                    number(s.median),
                    number(s.q3),
                    number(s.max)
                )
            })
            .collect();
        let notes: Vec<String> = self.notes.iter().map(|note| string(note)).collect();
        format!(
            "{{\"report\": \"kg-perfbench\", \"workload\": {}, \"seed\": {}, \"scale\": {}, \"seconds\": {}, \"trace\": {}, \
             \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}}}, \
             \"mismatch_frac\": {}, \"attempted\": {}, \"failed\": {}, \"notes\": [{}], \"metrics\": {{{}}}}}",
            string(self.workload),
            self.seed,
            self.scale,
            self.seconds,
            u8::from(self.trace),
            host.nproc,
            string(&host.cpu_model),
            string(host.rustc),
            string(&host.commit),
            number(self.mismatch_frac()),
            self.attempted,
            self.failed,
            notes.join(", "),
            metrics.join(", ")
        )
    }

    /// The result line: `correct`, `attempted`, `failed` and each metric's
    /// median with its unit.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|metric| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    string(metric.name),
                    number(metric.summary().median),
                    string(metric.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip rendering
/// gives; non-finite values (never expected) render as 0.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

fn string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(Summary::of(&[4.0]).median, 4.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            workload: "live-gc",
            seed: 1,
            scale: 32,
            seconds: 1,
            trace: false,
            attempted: 4,
            failed: 1,
            notes: vec!["a \"quoted\" note".to_string()],
            metrics: vec![Metric::new("cpu_s", "s", vec![1.5, 0.5, 1.0])],
        };
        assert_eq!(
            outcome.result_json(),
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": {\"cpu_s\": {\"value\": 1.0, \"unit\": \"s\"}}}"
        );
        assert_eq!(outcome.mismatch_frac(), 0.25);
        let host = HostStamp {
            nproc: 2,
            cpu_model: "cpu".to_string(),
            rustc: "rustc",
            commit: "abc".to_string(),
        };
        let report = outcome.report_json(&host);
        assert!(report.contains("\"q1\": 0.5,") && report.contains("a \\\"quoted\\\" note"));
    }
}
