//! Repository benchmark: one command, three workloads, every output checked.
//!
//! ```text
//! cargo run --release --manifest-path repobench/Cargo.toml -- \
//!     --workload <atpg_flow|table_ea|service_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) records spans around every call into a layer and
//! prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Human-readable detail (sample counts, the output digest, the self-time
//! table) goes on the lines before it.

mod atpg_flow;
mod common;
mod flow;
mod metrics;
mod replay;
mod service_mix;
mod stats;
mod table_ea;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Outcome, RunArgs};
use trace::Tracer;

const USAGE: &str =
    "usage: repobench --workload <atpg_flow|table_ea|service_mix> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(String, RunArgs), String> {
    let mut workload = None;
    let mut run = RunArgs {
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => run.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                run.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !metrics::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok((workload, run))
}

/// Writes the spans of a traced run under `repobench/out/`.
pub(crate) fn write_trace(tracer: &Tracer, workload: &str, seed: u64, out: &mut Outcome) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}-seed{seed}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => out.note(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => out.note(format!("could not write spans to {}: {e}", path.display())),
    }
}

/// Renders the result line: every declared metric of the run's mode, a
/// layer the workload never called reading 0.
fn result_json(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let declared = if trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let mut entries = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let value = match outcome.metrics.get(name) {
            Some(&value) => value,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric `{name}` was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite: {value}"));
        }
        entries.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        entries.join(", ")
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, run) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("repobench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workload.as_str() {
        "atpg_flow" => atpg_flow::run(&run),
        "table_ea" => table_ea::run(&run),
        _ => service_mix::run(&run),
    };
    println!(
        "workload = {workload}, seed = {}, trace = {}, available parallelism = {}",
        run.seed,
        u8::from(run.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for line in &outcome.notes {
        println!("{line}");
    }
    let declared = if run.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    for &(name, unit) in declared {
        if let Some(value) = outcome.metrics.get(name) {
            println!("{name} = {value} {unit}");
        }
    }
    println!(
        "fail_ratio = {} ({} of {} operations failed)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    match result_json(&outcome, run.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("repobench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let (workload, run) = parse_args(&strings(&[
            "--workload",
            "table_ea",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(workload, "table_ea");
        assert_eq!(run.seed, 7);
        assert_eq!(run.seconds, 10.0);
        assert!(run.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "atpg_flow", "--trace", "2"],
            &["--workload", "atpg_flow", "--seconds", "0"],
            &["--workload", "atpg_flow", "--bogus", "1"],
            &["--workload"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_has_every_declared_metric() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in metrics::END_TO_END {
            outcome.set(name, 1.5);
        }
        let line = result_json(&outcome, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        // Per-layer metrics default to 0 for layers the workload skips.
        let traced = result_json(&outcome, true).unwrap();
        assert!(traced.contains("\"service.sheds\": {\"value\": 0.0, \"unit\": \"count\"}"));
        outcome.metrics.remove("pass_s");
        assert!(result_json(&outcome, false).is_err());
    }
}
