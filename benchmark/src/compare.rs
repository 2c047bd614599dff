//! `compare <a.json> <b.json>`: holds the second set of runs against the
//! first, one row per (workload, end-to-end metric), by the bound the
//! benchmark fixed for that metric.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Value;

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats;
use crate::workload::WORKLOADS;
use crate::BenchResult;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The second median is worse than the first by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, and the second set
    /// does not read better than the first on every run.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    /// Share of `median_a` by which `median_b` is worse (negative: better).
    pub worse_by: f64,
    /// The wider of the two sets' interquartile spreads, as a share of
    /// the set's median.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Judges one metric on one workload from the values of both sets.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Option<Row> {
    let (median_a, median_b) = (stats::median(a)?, stats::median(b)?);
    let change = if median_a == 0.0 { 0.0 } else { (median_b - median_a) / median_a.abs() };
    let worse_by = match metric.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let spread = stats::relative_spread(a).max(stats::relative_spread(b));
    let better = |x: f64, y: f64| match metric.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let b_always_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let verdict = if spread > metric.bound && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Some(Row { median_a, median_b, worse_by, spread, verdict })
}

/// workload → metric → one value per untraced run of the set.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_set(path: &Path) -> BenchResult<RunSet> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Value::Array(runs)) = doc.get("runs") else {
        return Err(format!("{}: not a run set (no \"runs\" array)", path.display()).into());
    };
    let mut set = RunSet::new();
    for run in runs {
        let Some(Value::Array(workloads)) = run.get("workloads") else { continue };
        for w in workloads {
            let (Some(Value::Str(name)), Some(Value::Object(metrics))) =
                (w.get("workload"), w.get("metrics"))
            else {
                continue;
            };
            if w.get("traced") == Some(&Value::Bool(true)) {
                continue;
            }
            let per_metric = set.entry(name.clone()).or_default();
            for (metric, fields) in metrics {
                let value = match fields.get("value") {
                    Some(Value::Float(v)) => *v,
                    Some(Value::UInt(v)) => *v as f64,
                    Some(Value::Int(v)) => *v as f64,
                    _ => continue,
                };
                per_metric.entry(metric.clone()).or_default().push(value);
            }
        }
    }
    Ok(set)
}

/// Prints the comparison and returns how many rows regressed.
pub fn compare(a: &Path, b: &Path) -> BenchResult<usize> {
    let (set_a, set_b) = (load_set(a)?, load_set(b)?);
    println!(
        "{:<16} {:<28} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "median a", "median b", "worse by", "spread", "bound"
    );
    let mut regressed = 0;
    let mut rows = 0;
    for w in &WORKLOADS {
        let (Some(metrics_a), Some(metrics_b)) = (set_a.get(w.name), set_b.get(w.name)) else {
            continue;
        };
        for metric in &END_TO_END {
            let (Some(values_a), Some(values_b)) =
                (metrics_a.get(metric.name), metrics_b.get(metric.name))
            else {
                continue;
            };
            let Some(row) = judge(metric, values_a, values_b) else { continue };
            rows += 1;
            regressed += usize::from(row.verdict == Verdict::Regressed);
            println!(
                "{:<16} {:<28} {:>14.4} {:>14.4} {:>8.2}% {:>7.2}% {:>6.1}%  {} (n={}/{})",
                w.name,
                metric.name,
                row.median_a,
                row.median_b,
                row.worse_by * 100.0,
                row.spread * 100.0,
                metric.bound * 100.0,
                row.verdict.name(),
                values_a.len(),
                values_b.len(),
            );
        }
    }
    if rows == 0 {
        return Err("the two sets share no untraced (workload, metric) pair".into());
    }
    println!("{rows} rows, {regressed} regressed");
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
        END_TO_END.iter().find(|m| m.name == name)
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let wall = end_to_end("response_wall_ms_p50").unwrap(); // lower is better
        let rate = end_to_end("iterations_per_s").unwrap(); // higher is better
        let tight = [100.0, 101.0, 99.0, 100.5, 99.5];

        let same = judge(wall, &tight, &tight).unwrap();
        assert_eq!((same.verdict, same.worse_by), (Verdict::Ok, 0.0));

        let within = judge(wall, &tight, &tight.map(|v| v * (1.0 + wall.bound * 0.5))).unwrap();
        assert_eq!(within.verdict, Verdict::Ok);

        let slower = judge(wall, &tight, &tight.map(|v| v * (1.0 + wall.bound * 2.0))).unwrap();
        assert_eq!(slower.verdict, Verdict::Regressed);
        assert!((slower.worse_by - wall.bound * 2.0).abs() < 1e-9);

        // The same numbers on a higher-is-better metric: a rise is a gain,
        // a fall is the regression.
        assert_eq!(judge(rate, &tight, &tight.map(|v| v * 2.0)).unwrap().verdict, Verdict::Ok);
        assert_eq!(
            judge(rate, &tight, &tight.map(|v| v * 0.5)).unwrap().verdict,
            Verdict::Regressed
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let wall = end_to_end("response_wall_ms_p50").unwrap();
        let noisy = [60.0, 80.0, 100.0, 120.0, 140.0];
        // Medians equal, but the sets cannot resolve a change of the bound.
        let row = judge(wall, &noisy, &noisy).unwrap();
        assert_eq!(row.verdict, Verdict::Unresolved);
        assert!(row.spread > wall.bound);
        // Even a large worsening is unresolved, not regressed, at that noise.
        assert_eq!(
            judge(wall, &noisy, &noisy.map(|v| v * 1.3)).unwrap().verdict,
            Verdict::Unresolved
        );
        // Every run of b beats every run of a: resolved in b's favour.
        assert_eq!(judge(wall, &noisy, &noisy.map(|v| v * 0.25)).unwrap().verdict, Verdict::Ok);
        // One run per set has no spread to speak of.
        assert_eq!(judge(wall, &[100.0], &[150.0]).unwrap().verdict, Verdict::Regressed);
        assert!(judge(wall, &[], &[1.0]).is_none());
    }
}
