//! The UEI exploration benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! uei-benchmark list
//! uei-benchmark run (--workload <name> | --all) [--seed <u64>] [--traced | --trace <0|1>]
//!                   [--seconds <n>] [--smoke] [--out <file>]
//! uei-benchmark compare <a.json> <b.json>
//! ```

mod compare;
mod derive;
mod metrics;
mod report;
mod run;
mod span;
mod stats;
mod traced;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use report::WorkloadReport;
use workload::{Scale, Workload, WORKLOADS};

pub type BenchResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

const USAGE: &str = "usage:
  uei-benchmark list
  uei-benchmark run (--workload <name> | --all) [--seed <u64>] [--traced | --trace <0|1>]
                    [--seconds <1..60>] [--smoke] [--out <file>]
  uei-benchmark compare <a.json> <b.json>";

/// Nominal length of one run's measured phase, `run_seconds` in
/// `BENCHMARK.json`. The workloads do a fixed amount of work (so counts
/// repeat exactly for one seed); `--seconds` is checked and recorded.
const RUN_SECONDS: u64 = 10;

struct RunArgs {
    workloads: Vec<&'static Workload>,
    seed: u64,
    traced: bool,
    seconds: u64,
    scale: Scale,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> BenchResult<RunArgs> {
    let mut parsed = RunArgs {
        workloads: Vec::new(),
        seed: 1,
        traced: false,
        seconds: RUN_SECONDS,
        scale: Scale::Full,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
                parsed.workloads.push(w);
            }
            "--all" => parsed.workloads = WORKLOADS.iter().collect(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}").into()),
                }
            }
            "--traced" => parsed.traced = true,
            "--smoke" => parsed.scale = Scale::Smoke,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("run needs --workload <name> or --all".into());
    }
    Ok(parsed)
}

/// Check (3): cache size and prefetching must not change what the user is
/// shown, so client 0 of every `paper_*` workload sees the same examples
/// in the sessions it shares with `paper_cold` (its first four).
fn same_examples_across_paper_workloads(reports: &[WorkloadReport]) -> Option<report::Check> {
    let prints = |name: &str| {
        reports.iter().find(|r| r.workload == name).and_then(|r| r.label_fingerprints.first())
    };
    let cold = prints("paper_cold")?;
    let others = ["paper_prefetch", "paper_shared_x2"];
    let differing: Vec<&str> = others
        .into_iter()
        .filter(|name| prints(name).is_some_and(|p| !p.starts_with(cold)))
        .collect();
    let compared = others.into_iter().filter(|name| prints(name).is_some()).count();
    (compared > 0).then(|| {
        report::Check::new(
            "same_examples_across_paper_workloads",
            differing.is_empty(),
            if differing.is_empty() {
                format!(
                    "client 0 of {compared} workloads shows paper_cold's (row id, label) sequences"
                )
            } else {
                format!("{} show other examples than paper_cold", differing.join(", "))
            },
        )
    })
}

fn run(args: &[String]) -> BenchResult<bool> {
    let args = parse_run_args(args)?;
    let mut reports = Vec::new();
    for w in &args.workloads {
        run::reset_peak_rss();
        // Dropped, and its directories removed, before the next workload.
        let scratch = run::Scratch::new()?;
        let obs = run::observe(w, args.scale, args.seed, args.traced, &scratch)?;
        let report = derive::report(w, args.scale, args.seed, args.seconds, &obs);
        report.print_table();
        println!("{}", report.result_line());
        reports.push(report);
    }
    let mut correct = reports.iter().all(WorkloadReport::correct);
    if let Some(check) = same_examples_across_paper_workloads(&reports) {
        let verdict = if check.passed { "pass" } else { "FAIL" };
        println!("check {:<36} {verdict}  {}", check.name, check.detail);
        correct &= check.passed;
    }
    if let Some(path) = &args.out {
        let envelope = report::envelope(args.seed, args.scale.name(), args.traced, args.seconds);
        report::append_run(path, envelope, &reports)?;
    }
    Ok(correct)
}

fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!(
            "  {:<16} rows {:>7}  cells/dim {:>2}  {:<10} cache {:<26} clients {}  prefetch {:<5}  {}",
            w.name,
            w.rows,
            w.cells_per_dim,
            w.estimator.name(),
            w.cache.describe(),
            w.clients,
            w.prefetch,
            w.why
        );
    }
    println!("end-to-end metrics (untraced run):");
    for m in &metrics::END_TO_END {
        println!(
            "  {:<28} {:<7} better {:<6} bound {:>4.0}%  {}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound * 100.0,
            m.definition
        );
    }
    println!("per-layer metrics (traced run):");
    for m in &metrics::PER_LAYER {
        println!("  {:<36} {:<7} better {:<6} moves {}", m.name, m.unit, m.better.name(), m.moves);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome: BenchResult<bool> = match args.first().map(String::as_str) {
        Some("list") => {
            list();
            Ok(true)
        }
        Some("run") => run(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()).map(|regressed| regressed == 0),
            _ => Err("compare takes two run-set files".into()),
        },
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("uei-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
