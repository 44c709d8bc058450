//! `perfbench` — the end-to-end and per-layer benchmark for routing and
//! ranking. See README.md for the workloads and metrics.
//!
//! ```text
//! perfbench --workload <hub_burst|tcp_live|pathrank_pipeline> --seed N
//!           --seconds S --trace <0|1> [--quick] [--inject-mismatch]
//!           [--trace-dir DIR]
//! ```
//!
//! The last line of standard output is the result object; progress and
//! the span summary go to standard error. A wrong answer or an invalid
//! phase prints `"correct": false` and exits with status 1; a run that
//! fails before measuring prints no result.

mod hub_burst;
mod layers;
mod pipeline;
mod report;
mod tcp_live;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Run options shared by the workloads.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smaller sizes for the benchmark's own tests.
    pub quick: bool,
    /// Corrupt one expected answer, to show the exactness gate fires.
    pub inject_mismatch: bool,
    /// The `serve` binary built next to this one.
    pub serve_bin: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <hub_burst|tcp_live|pathrank_pipeline> \
--seed N --seconds S --trace <0|1> [--quick] [--inject-mismatch] [--trace-dir DIR]";

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut quick = false;
    let mut inject_mismatch = false;
    let mut trace_dir = PathBuf::from("perfbench/out");
    let serve_bin = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("serve")))
        .unwrap_or_else(|| PathBuf::from("serve"));
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next();
        match arg.as_str() {
            "--workload" => workload = value(),
            "--seed" => seed = value().and_then(|v| v.parse::<u64>().ok()),
            "--seconds" => seconds = value().and_then(|v| v.parse::<f64>().ok()),
            "--trace" => {
                trace = match value().as_deref() {
                    Some("0") => Some(false),
                    Some("1") => Some(true),
                    _ => None,
                }
            }
            "--trace-dir" => trace_dir = value().map(PathBuf::from).unwrap_or(trace_dir),
            "--quick" => quick = true,
            "--inject-mismatch" => inject_mismatch = true,
            other => {
                eprintln!("unknown argument: {other}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        eprintln!("--seconds must be in (0, 600]");
        return ExitCode::from(2);
    }
    let opts = Opts {
        seed,
        seconds,
        trace,
        quick,
        inject_mismatch,
        serve_bin,
    };
    let (outcome, spans) = match workload.as_str() {
        "hub_burst" => hub_burst::run(&opts),
        "tcp_live" => tcp_live::run(&opts),
        "pathrank_pipeline" => pipeline::run(&opts),
        other => {
            eprintln!("unknown workload: {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(spans) = spans {
        eprint!("{}", spans.summary());
        let path = trace_dir.join(format!("trace-{workload}-seed{seed}.csv"));
        match std::fs::create_dir_all(&trace_dir).and_then(|()| spans.write_csv(&path)) {
            Ok(()) => eprintln!("wrote {} spans to {}", spans.spans.len(), path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    for e in &outcome.errors {
        eprintln!("FAILED: {e}");
    }
    match outcome.result_line(trace) {
        Some(line) => println!("{line}"),
        None => eprintln!("no result: the run failed before measuring"),
    }
    if outcome.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
