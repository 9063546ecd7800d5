//! `cargo run -p tidy` — run the repo lints and exit non-zero on failure.
//!
//! `cargo run -p tidy -- lockgraph` dumps the static lock graph (declared
//! hierarchy, per-class acquisition sites, extracted edges with witness
//! file:line pairs) and exits non-zero if the lockgraph pass found
//! violations. CI archives this dump next to the runtime-coverage report.
//!
//! `cargo run -p tidy -- loc` prints one number: the program's non-test
//! Rust lines (`crates/*/src` and `tools/*/src`, `#[cfg(test)]` items
//! excluded), the figure each change reports its net line change in.

use std::process::ExitCode;

fn main() -> ExitCode {
    let root = tidy::workspace_root();
    let command = std::env::args().nth(1);
    if command.as_deref() == Some("loc") {
        println!("{}", tidy::count_loc(&tidy::collect_sources(&root)));
        return ExitCode::SUCCESS;
    }
    if command.as_deref() == Some("lockgraph") {
        let analysis = tidy::lockgraph::analyze_workspace(&root);
        print!("{}", tidy::lockgraph::render(&analysis));
        return if analysis.violations.is_empty() {
            ExitCode::SUCCESS
        } else {
            for v in &analysis.violations {
                eprintln!("tidy error: {v}");
            }
            eprintln!("tidy: {} lockgraph error(s)", analysis.violations.len());
            ExitCode::FAILURE
        };
    }
    let report = match tidy::check_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tidy: failed to read workspace: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        println!("tidy note: {note}");
    }
    if report.is_clean() {
        println!("tidy: all checks passed");
        ExitCode::SUCCESS
    } else {
        for err in &report.errors {
            eprintln!("tidy error: {err}");
        }
        eprintln!("tidy: {} error(s)", report.errors.len());
        ExitCode::FAILURE
    }
}
