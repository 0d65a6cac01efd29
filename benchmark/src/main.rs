//! Benchmark of record for the ArrayTrack location service.
//!
//! ```text
//! at-benchmark --workload <fix_storm|ap_uplink|mixed_ingest> --seed <n>
//!              --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against an in-process `at_serve` server on loopback
//! and prints, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A run that
//! fails any correctness check prints no metrics and exits non-zero.

mod inputs;
mod ledger;
mod load;
mod scrape;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use workload::{Args, Workload};

const USAGE: &str = "usage: at-benchmark --workload <fix_storm|ap_uplink|mixed_ingest> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line: a run, or one set-up probe in a fresh process.
enum Command {
    Run(Args),
    SetupProbe(Workload),
}

fn parse(argv: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut probe = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if probe {
        return Ok(Command::SetupProbe(workload));
    }
    Ok(Command::Run(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(Command::SetupProbe(w)) => {
            return match workload::setup_probe(w) {
                Ok(secs) => {
                    println!("setup_s {secs}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("setup probe failed: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Ok(Command::Run(args)) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match workload::run(&args) {
        Ok(report) => {
            let metrics: Vec<String> = report
                .metrics
                .iter()
                .map(|(name, value, unit)| {
                    format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                        json_number(*value)
                    )
                })
                .collect();
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                report.attempted,
                report.failed,
                metrics.join(", ")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark run invalid: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A JSON number with every digit of the value (JSON has no NaN or
/// infinity; those become 0 and the run's own checks reject them first).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}
