//! Runs every workload at its seconds-long smoke size, with the same output
//! checks as a full run, and checks the result line against the contract in
//! `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn manifest() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `"name"` → `"unit"` pairs of one metric list in `BENCHMARK.json`, read
/// without a JSON parser: entries are one object per `{ ... }`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(manifest().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{list}\""))
        .expect("metric list present");
    let body = &text[start..];
    let body = &body[body.find('[').expect("list opens")..body.find(']').expect("list closes")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
                let rest = &entry[at..];
                let open = rest.find('"').expect("string value") + 1;
                let close = open + rest[open..].find('"').expect("string end");
                rest[open..close].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark and returns its last stdout line.
fn run(workload: &str, seed: u64, trace: bool, out: &Path) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_sabench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "2",
            "--quick",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--out"])
        .arg(out)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn check_line(line: &str, expected: &[(String, String)]) {
    assert!(
        line.starts_with("{\"correct\":true,\"attempted\":"),
        "{line}"
    );
    assert!(line.contains(",\"failed\":0,\"metrics\":{"), "{line}");
    for (name, unit) in expected {
        let entry = format!("\"{name}\":{{\"value\":");
        let at = line
            .find(&entry)
            .unwrap_or_else(|| panic!("{name} missing from {line}"));
        let rest = &line[at + entry.len()..];
        let value: f64 = rest[..rest.find(',').expect("value ends")]
            .parse()
            .expect("numeric value");
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            rest.contains(&format!("\"unit\":\"{unit}\"")),
            "{name} unit {unit}: {line}"
        );
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let e2e = declared("end_to_end");
    assert!(e2e
        .iter()
        .any(|(name, unit)| name == "setup_s" && unit == "s"));
    for workload in ["pipeline_voter", "serve_read", "serve_write"] {
        let line = run(workload, 0, false, &scratch("e2e"));
        check_line(&line, &e2e);
        // End-to-end metrics are never 0.
        assert!(!line.contains("\"value\":0,"), "{line}");
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    let layers = declared("per_layer");
    for workload in ["pipeline_voter", "serve_read", "serve_write"] {
        let out = scratch("traced");
        let line = run(workload, 0, true, &out);
        check_line(&line, &layers);
        let spans = std::fs::read_to_string(out.join(format!("{workload}-seed0-spans.jsonl")))
            .expect("spans written");
        assert!(spans.lines().count() > 0 && spans.contains("\"self_s\":"));
    }
}

#[test]
fn a_held_out_seed_passes_the_same_checks() {
    let e2e = declared("end_to_end");
    for workload in ["pipeline_voter", "serve_write"] {
        check_line(&run(workload, 7_919, false, &scratch("held-out")), &e2e);
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "serve_read", "--trace", "2"][..],
        &[][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_sabench"))
            .args(args)
            .output()
            .expect("benchmark runs");
        assert!(!output.status.success());
        assert!(output.stdout.is_empty());
    }
}
