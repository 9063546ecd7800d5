//! The repository benchmark.
//!
//! Drives a real in-process `hvac_core::Cluster` over TCP from closed-loop
//! training ranks that follow `hvac_dl`'s `DistributedSampler` order and
//! read through the public `HvacClient` API, checks every delivered byte
//! and the counter ledger, and prints the metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     [--workload imagenet_warm|imagenet_cold|cosmo_oversub|all] \
//!     [--seed N] [--seconds N] [--trace 0|1] [--trace-dir DIR]
//! ```
//!
//! One workload per process (so peak RSS is that workload's own); `all`
//! runs each workload in a child process. The last line of a single
//! workload's output is a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics, or with `--trace 1` the
//! per-layer metrics, whose spans go to `DIR/trace-<workload>-seed<N>.tsv`.
//! The exit code is non-zero when any sample fails or any ledger check
//! does not hold.

mod runner;
mod stats;
mod trace;
mod usage;
mod workload;

use runner::{Report, RunConfig};
use std::path::PathBuf;
use std::process::ExitCode;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Measured seconds per run when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 30;

struct Args {
    workload: String,
    config: RunConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        config: RunConfig {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS as f64,
            trace: false,
            trace_dir: PathBuf::from("perfbench-out"),
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.config.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                let secs: u64 = value
                    .parse()
                    .map_err(|_| bad("expected a whole number of seconds"))?;
                if secs == 0 {
                    return Err(bad("expected at least 1"));
                }
                args.config.seconds = secs as f64;
            }
            "--trace" => {
                args.config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--trace-dir" => args.config.trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// The result line: `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
fn result_json(report: &Report, correct: bool) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn run_one(workload: &workload::Workload, config: &RunConfig) -> ExitCode {
    let report = match runner::run(workload, config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", workload.name);
            return ExitCode::FAILURE;
        }
    };
    for line in &report.notes {
        println!("{line}");
    }
    let width = report
        .metrics
        .iter()
        .map(|m| m.name.len())
        .max()
        .unwrap_or(0);
    for m in &report.metrics {
        println!("{:width$}  {:.4} {}", m.name, m.value, m.unit);
    }
    for v in &report.violations {
        println!("LEDGER VIOLATION: {v}");
    }
    let correct = report.failed == 0 && report.violations.is_empty();
    println!("{}", result_json(&report, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, each in a child process of this binary.
fn run_all(config: &RunConfig) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: locating this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in &workload::WORKLOADS {
        println!("== {} ==", w.name);
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &config.seed.to_string()])
            .args(["--seconds", &config.seconds.to_string()])
            .args(["--trace", if config.trace { "1" } else { "0" }])
            .arg("--trace-dir")
            .arg(&config.trace_dir)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: {} failed ({s})", w.name);
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: starting {}: {e}", w.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args.config);
    }
    match workload::by_name(&args.workload) {
        Some(w) => run_one(w, &args.config),
        None => {
            let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "perfbench: unknown workload {:?} (expected one of {} or all)",
                args.workload,
                names.join(", ")
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documented_defaults_match() {
        let doc = include_str!("../workloads.json");
        assert!(doc.contains(&format!("\"default_seed\": {DEFAULT_SEED},")));
        assert!(doc.contains(&format!("\"default_seconds\": {DEFAULT_SECONDS},")));
    }
}
