//! `sabench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path sabench/Cargo.toml -- \
//!     --workload <pipeline_voter|serve_read|serve_write> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! Every workload generates its inputs from `--seed`, measures for
//! `--seconds`, checks the program's outputs against a second code path,
//! prints a human-readable table, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones ([`E2E`]); with `--trace 1` they are the
//! per-layer ones ([`LAYERS`]) derived from in-memory spans. The process exits
//! non-zero when any output check fails. See `sabench/NOTES.md`.

mod loadgen;
mod pipeline;
mod report;
mod serve_read;
mod serve_write;
mod server;
mod trace;

use std::error::Error;
use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// Workload parameters shared by every workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Seconds-long smoke sizes that run the same checks.
    pub quick: bool,
    /// Where results, span dumps and server state go.
    pub out_dir: PathBuf,
}

/// The end-to-end metrics every workload reports with tracing off: name,
/// unit. What each means per workload is in `NOTES.md`.
pub const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// The per-layer metrics of the traced run. A workload that leaves a layer
/// idle reports 0 for it.
pub const LAYERS: [(&str, &str); 42] = [
    // pipeline_voter
    ("datasets.generate_s", "s"),
    ("pipeline.block_s", "s"),
    ("pipeline.gamma_count_s", "s"),
    ("minhash.shingle_s", "s"),
    ("minhash.signature_s", "s"),
    ("semantic.interpret_s", "s"),
    ("semhash.signature_s", "s"),
    ("lsh.band_keys_s", "s"),
    ("lsh.bucket_residual_s", "s"),
    ("lsh.blocks", "count"),
    ("lsh.max_block_size", "count"),
    ("blocking.redundant_pairs", "count"),
    ("blocking.distinct_pairs", "count"),
    ("blocking.true_positives", "count"),
    ("blocking.dedup_ratio", "ratio"),
    ("blocking.merge_pairs_per_s", "1/s"),
    // reads (serve_read, and the reads in serve_write)
    ("protocol.parse_us", "us"),
    ("service.probe_record_us", "us"),
    ("service.query_us", "us"),
    ("protocol.render_us", "us"),
    ("service.query_top_k_us", "us"),
    ("service.candidates_per_query", "count"),
    ("frontend.gap_us", "us"),
    ("frontend.shed", "count"),
    ("frontend.reaped", "count"),
    ("loadgen.late_ms", "ms"),
    ("client.error_rate", "ratio"),
    // writes (serve_write)
    ("wal.append_us", "us"),
    ("incremental.insert_us", "us"),
    ("incremental.delta_pairs_per_insert", "count"),
    ("incremental.publish_view_us", "us"),
    ("incremental.remove_us", "us"),
    ("service.apply_us", "us"),
    ("service.apply_residual_us", "us"),
    ("persist.checkpoint_s", "s"),
    ("persist.snapshot_bytes", "bytes"),
    ("wal.recover_s", "s"),
    ("wal.replayed_ops", "count"),
    ("wal.bytes_per_op", "bytes"),
    ("frontend.recovery_s", "s"),
    // the traced run's own cost
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

pub const WORKLOADS: [&str; 3] = ["pipeline_voter", "serve_read", "serve_write"];

fn usage() -> String {
    format!(
        "usage: sabench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out <dir>]\n       \
         sabench server --schema <a,b,..> --wal <dir> --fsync <always|never> [--corpus <file>]",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut config = RunConfig {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        quick: false,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => config.workload = value()?,
            "--seed" => config.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                config.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(config.seconds > 0.0 && config.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                config.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--quick" => config.quick = true,
            "--out" => config.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&config.workload.as_str()) {
        return Err(format!(
            "unknown or missing --workload '{}'",
            config.workload
        ));
    }
    Ok(config)
}

fn run(config: &RunConfig) -> Result<Report, Box<dyn Error>> {
    std::fs::create_dir_all(&config.out_dir)?;
    let before = report::cpu_ticks();
    let mut report = match config.workload.as_str() {
        "pipeline_voter" => pipeline::run(config),
        "serve_read" => serve_read::run(config),
        "serve_write" => serve_write::run(config),
        other => Err(format!("unknown workload {other}").into()),
    }?;
    // On a shared host every timing moves with the CPU the host takes away,
    // so each run records how much that was.
    if let (Some((steal0, total0)), Some((steal1, total1))) = (before, report::cpu_ticks()) {
        let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        report.detail("host_steal_pct", 100.0 * share, "%");
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("server") {
        return match server::server_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(error) => {
                eprintln!("sabench server: {error}");
                ExitCode::FAILURE
            }
        };
    }
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("sabench: {message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&config).and_then(|report| report.finish(&config)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("sabench: an output check failed (see the lines above); no result is valid");
            ExitCode::FAILURE
        }
        Err(error) => {
            eprintln!("sabench: {error}");
            ExitCode::FAILURE
        }
    }
}
