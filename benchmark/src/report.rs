//! What a run reports: metrics with their sample counts and quartiles,
//! the checks it made, and the envelope every output file shares.

use std::path::Path;
use std::process::Command;

use serde::Value;

use crate::stats;
use crate::BenchResult;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples the value summarizes.
    pub samples: usize,
    /// Quartiles of the pooled samples, for timings.
    pub quartiles: Option<(f64, f64, f64)>,
    /// The percentile actually reported when the sample is too small for
    /// the one the metric is named after.
    pub note: Option<String>,
}

impl Metric {
    /// A count, ratio or rate computed over `samples` observations.
    pub fn scalar(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric { name, unit, value, samples, quartiles: None, note: None }
    }

    /// The median of a timing sample, with its quartiles.
    pub fn median(name: &'static str, unit: &'static str, values: &[f64]) -> Metric {
        Metric {
            name,
            unit,
            value: stats::median(values).unwrap_or(0.0),
            samples: values.len(),
            quartiles: stats::quartiles(values),
            note: None,
        }
    }

    /// The `wanted` percentile of a timing sample, or the highest one the
    /// sample supports with ten samples beyond it (noted when it differs).
    pub fn tail(name: &'static str, unit: &'static str, values: &[f64], wanted: f64) -> Metric {
        let used = stats::supported_tail(values.len(), wanted);
        let p = used.unwrap_or(50.0);
        Metric {
            name,
            unit,
            value: stats::percentile(values, p).unwrap_or(0.0),
            samples: values.len(),
            quartiles: stats::quartiles(values),
            note: (used != Some(wanted)).then(|| {
                format!("p{p} reported: {} samples cannot support p{wanted}", values.len())
            }),
        }
    }

    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("value".to_string(), Value::Float(self.value)),
            ("unit".to_string(), Value::Str(self.unit.to_string())),
            ("samples".to_string(), Value::UInt(self.samples as u64)),
        ];
        if let Some((q1, q2, q3)) = self.quartiles {
            fields.push(("q1".into(), Value::Float(q1)));
            fields.push(("median".into(), Value::Float(q2)));
            fields.push(("q3".into(), Value::Float(q3)));
        }
        if let Some(note) = &self.note {
            fields.push(("note".into(), Value::Str(note.clone())));
        }
        Value::Object(fields)
    }
}

/// One correctness check of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, passed: bool, detail: impl Into<String>) -> Check {
        Check { name, passed, detail: detail.into() }
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    pub workload: &'static str,
    pub params: Vec<(String, Value)>,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// What the driver reads: every end-to-end metric of an untraced run,
    /// every per-layer metric of a traced one.
    pub metrics: Vec<Metric>,
    /// Shown and recorded, but outside the driver's result line.
    pub also: Vec<Metric>,
    pub checks: Vec<Check>,
    /// `[client][session]` fingerprints of the (row id, label) sequence.
    pub label_fingerprints: Vec<Vec<u64>>,
    /// Same, over (row id, label, bytes_read, seeks, points_rescored).
    pub io_fingerprints: Vec<Vec<u64>>,
    /// Spans of the traced run, one array per client.
    pub spans: Vec<Value>,
}

impl WorkloadReport {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics` (value and unit of each).
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let fields = vec![
                    ("value".to_string(), Value::Float(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ];
                (m.name.to_string(), Value::Object(fields))
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("a Value tree always serializes")
    }

    /// Every metric by name with its unit and sample count, then the checks.
    pub fn print_table(&self) {
        let mode = if self.traced { "traced" } else { "untraced" };
        println!("== {} ({mode}) ==", self.workload);
        for m in self.metrics.iter().chain(&self.also) {
            let spread = match m.quartiles {
                Some((q1, _, q3)) => format!("  [q1 {q1:.4}, q3 {q3:.4}]"),
                None => String::new(),
            };
            let note = m.note.as_deref().map(|n| format!("  ({n})")).unwrap_or_default();
            println!(
                "{:<36} {:>16.4} {:<7} n={}{spread}{note}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for c in &self.checks {
            let verdict = if c.passed { "pass" } else { "FAIL" };
            println!("check {:<36} {verdict}  {}", c.name, c.detail);
        }
    }

    pub fn to_value(&self) -> Value {
        let hex = |rows: &Vec<Vec<u64>>| {
            Value::Array(
                rows.iter()
                    .map(|r| {
                        Value::Array(r.iter().map(|f| Value::Str(format!("{f:016x}"))).collect())
                    })
                    .collect(),
            )
        };
        Value::Object(vec![
            ("workload".into(), Value::Str(self.workload.into())),
            ("traced".into(), Value::Bool(self.traced)),
            ("params".into(), Value::Object(self.params.clone())),
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            (
                "metrics".into(),
                Value::Object(
                    self.metrics
                        .iter()
                        .chain(&self.also)
                        .map(|m| (m.name.to_string(), m.to_value()))
                        .collect(),
                ),
            ),
            (
                "checks".into(),
                Value::Array(
                    self.checks
                        .iter()
                        .map(|c| {
                            Value::Object(vec![
                                ("name".into(), Value::Str(c.name.into())),
                                ("passed".into(), Value::Bool(c.passed)),
                                ("detail".into(), Value::Str(c.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("label_fingerprints".into(), hex(&self.label_fingerprints)),
            ("io_fingerprints".into(), hex(&self.io_fingerprints)),
            ("spans".into(), Value::Array(self.spans.clone())),
        ])
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The envelope every output file shares: where and how the run was made.
pub fn envelope(seed: u64, scale: &str, traced: bool, seconds: u64) -> Value {
    let text = |s: Option<String>| Value::Str(s.unwrap_or_else(|| "unknown".into()));
    Value::Object(vec![
        ("git_sha".into(), text(command_line("git", &["rev-parse", "HEAD"]))),
        (
            "nproc".into(),
            Value::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "rayon_num_threads".into(),
            Value::Str(std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "default".into())),
        ),
        ("rustc".into(), text(command_line("rustc", &["--version"]))),
        ("seed".into(), Value::UInt(seed)),
        ("scale".into(), Value::Str(scale.into())),
        ("traced".into(), Value::Bool(traced)),
        ("seconds".into(), Value::UInt(seconds)),
        ("engine_telemetry".into(), Value::Str("off".into())),
        (
            "latency_note".into(),
            Value::Str("chunk files are served from the operating system's cache: latencies are this sandbox's, not a device's".into()),
        ),
    ])
}

/// Appends one run (envelope + workload reports) to the set in `path`,
/// creating the file when it does not exist.
pub fn append_run(path: &Path, envelope: Value, reports: &[WorkloadReport]) -> BenchResult<()> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => match serde_json::from_str::<Value>(&text)?.get("runs") {
            Some(Value::Array(runs)) => runs.clone(),
            _ => {
                return Err(format!("{}: not a run set (no \"runs\" array)", path.display()).into())
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", path.display()).into()),
    };
    runs.push(Value::Object(vec![
        ("envelope".into(), envelope),
        ("workloads".into(), Value::Array(reports.iter().map(WorkloadReport::to_value).collect())),
    ]));
    let doc = Value::Object(vec![("runs".into(), Value::Array(runs))]);
    std::fs::write(path, serde_json::to_string_pretty(&doc)?)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_metric_reports_the_sample_count_and_any_downgrade() {
        let full: Vec<f64> = (1..=240).map(f64::from).collect();
        let m = Metric::tail("response_wall_ms_p95", "ms", &full, 95.0);
        assert_eq!((m.value, m.samples, m.note.as_deref()), (228.0, 240, None));
        let short: Vec<f64> = (1..=20).map(f64::from).collect();
        let m = Metric::tail("response_wall_ms_p95", "ms", &short, 95.0);
        assert_eq!((m.value, m.samples), (10.0, 20));
        assert!(m.note.unwrap().contains("p50 reported"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = WorkloadReport {
            workload: "paper_cold",
            params: Vec::new(),
            traced: false,
            attempted: 240,
            failed: 0,
            metrics: vec![Metric::scalar("setup_s", "s", 0.8127, 3)],
            also: vec![Metric::scalar("explore.final_f", "ratio", 0.5, 4)],
            checks: vec![Check::new("labels_complete", true, "")],
            label_fingerprints: Vec::new(),
            io_fingerprints: Vec::new(),
            spans: Vec::new(),
        };
        assert_eq!(
            report.result_line(),
            r#"{"correct":true,"attempted":240,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
    }
}
