//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload synth|yield|serve --seed N --seconds S --trace 0|1
//! perfbench --write-reference
//! ```
//!
//! Runs one workload (see README.md) for about `S` seconds on inputs
//! drawn from seed `N`, checks its outputs against the committed
//! references, and prints as the last line of standard output one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics with tracing off; `--trace 1` is a
//! separate traced run reporting the per-layer metrics. A summary goes to
//! standard error. Exit code 1 means an op failed or an output disagreed
//! with its reference; 2 means bad usage.
//!
//! `--write-reference` recomputes the canary outputs and rewrites
//! `perfbench/reference/` (run it from the repository root).

mod canary;
mod inputs;
mod measure;
mod serve;
mod synth;
mod trace;
mod yields;

use losac_obs::json::{number, Object};
use measure::Report;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
usage: perfbench --workload synth|yield|serve --seed N --seconds S --trace 0|1
       perfbench --write-reference";

/// One run's settings.
pub struct Config {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

enum Command {
    Run(String, Config),
    WriteReference,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = args.peekable();
    if args.peek().map(String::as_str) == Some("--write-reference") {
        return Ok(Command::WriteReference);
    }
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["synth", "yield", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Command::Run(
        workload,
        Config {
            seed: seed.ok_or("--seed is required")?,
            seconds: Duration::from_secs(seconds.ok_or("--seconds is required")?),
            trace: trace.ok_or("--trace is required")?,
        },
    ))
}

fn result_line(report: &Report, correct: bool) -> String {
    let metrics = report
        .metrics
        .iter()
        .fold(Object::new(), |o, m| {
            o.raw(
                m.name,
                Object::new()
                    .raw("value", number(m.value))
                    .str("unit", m.unit)
                    .build(),
            )
        })
        .build();
    Object::new()
        .bool("correct", correct)
        .u64("attempted", report.attempted)
        .u64("failed", report.failed)
        .raw("metrics", metrics)
        .build()
}

fn write_reference() -> Result<(), String> {
    let setup = inputs::Setup::new();
    let table1: Vec<canary::Row> = synth::table1(&setup)
        .into_iter()
        .collect::<Result<_, _>>()?;
    let batch = yields::new_engine().run_batch(yields::batch_jobs(&setup, yields::CANARY_SEED, 0));
    let files = [
        (
            "perfbench/reference/table1.txt",
            canary::render(
                "The 12 unjittered Table-1 points (topology/case): layout calls, then the\n\
                 synthesized and extracted performance rows in wire field order.\n\
                 Cells are f64 bit patterns; regenerate with `perfbench --write-reference`.",
                &table1,
            ),
        ),
        (
            "perfbench/reference/yield.txt",
            canary::render(
                &format!(
                    "Batch 0 of seed {}: per design point scenarios, measured, passed,\n\
                     GBW mean/sigma/worst, PM mean/sigma/worst, Cpk; then every job's status\n\
                     in submission order. Regenerate with `perfbench --write-reference`.",
                    yields::CANARY_SEED
                ),
                &yields::batch_rows(&batch),
            ),
        ),
    ];
    for (path, text) in files {
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args(std::env::args().skip(1)) {
        Ok(Command::Run(workload, cfg)) => (workload, cfg),
        Ok(Command::WriteReference) => {
            return match write_reference() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match workload.as_str() {
        "synth" => synth::run(&cfg),
        "yield" => yields::run(&cfg),
        _ => serve::run(&cfg),
    };
    for note in &report.notes {
        eprintln!("{note}");
    }
    for problem in &report.problems {
        eprintln!("FAILED: {problem}");
    }
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("FAILED: a metric is not a finite number");
    }
    for m in &report.metrics {
        eprintln!("{:<24} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let correct = report.failed == 0 && finite;
    println!("{}", result_line(&report, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
