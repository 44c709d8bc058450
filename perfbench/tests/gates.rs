//! The benchmark's own gates: every metric named in `BENCHMARK.json`
//! is emitted by a quick run of every workload, and a corrupted
//! expected answer fails the run.

use std::process::Command;
use std::sync::Mutex;

/// Runs take the machine's cores; one at a time keeps the open loops on
/// schedule.
static MACHINE: Mutex<()> = Mutex::new(());

const WORKLOADS: &[&str] = &["hub_burst", "tcp_live", "pathrank_pipeline"];

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

/// Runs a quick workload; returns its exit status and last stdout line.
fn quick_run(workload: &str, trace: bool, extra: &[&str]) -> (bool, String) {
    let _machine = MACHINE.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--quick"])
        .args(["--trace-dir", env!("CARGO_TARGET_TMPDIR")])
        .args(extra)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success(), last)
}

/// `(name, unit)` pairs of a result line.
fn emitted(line: &str) -> Vec<(String, String)> {
    const VALUE: &str = "\": {\"value\": ";
    const UNIT: &str = "\"unit\": \"";
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find(VALUE) {
        let name = &rest[rest[..at].rfind('"').expect("quoted name") + 1..at];
        let after = &rest[at..];
        let unit = after.find(UNIT).expect("metric unit") + UNIT.len();
        let end = unit + after[unit..].find('"').expect("closed unit");
        out.push((name.to_string(), after[unit..end].to_string()));
        rest = &after[end..];
    }
    out
}

#[test]
fn quick_runs_emit_every_declared_metric() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let mut want = declared(section);
        want.sort();
        for w in WORKLOADS {
            let (ok, line) = quick_run(w, trace, &[]);
            assert!(ok, "{w} (trace {trace}) failed: {line}");
            assert!(line.starts_with("{\"correct\": true"), "{w}: {line}");
            let mut got = emitted(&line);
            got.sort();
            assert_eq!(
                got, want,
                "{w} (trace {trace}) metrics differ from BENCHMARK.json"
            );
        }
    }
}

#[test]
fn an_injected_wrong_expected_cost_fails_the_run() {
    for w in WORKLOADS {
        let (ok, line) = quick_run(w, false, &["--inject-mismatch"]);
        assert!(!ok, "{w} passed with a corrupted expected answer");
        assert!(line.starts_with("{\"correct\": false"), "{w}: {line}");
    }
}
