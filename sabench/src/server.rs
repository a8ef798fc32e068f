//! The system under test of the service workloads: a separate process built
//! from the library (`CandidateService::open_durable` + `serve_tcp`), and the
//! handle the benchmark drives it through.
//!
//! The server preloads the corpus file it is given in batches, binds an
//! ephemeral localhost port, prints `READY <addr>` on stdout and serves. On
//! stdin it answers `metrics` with its front-end counters; when stdin closes
//! (the benchmark ended or died) it exits.

use std::error::Error;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sablock::core::incremental::{IncrementalBlocker, IncrementalSaLshBlocker};
use sablock::core::lsh::semantic_hash::SemanticMode;
use sablock::core::lsh::SemanticConfig;
use sablock::core::prelude::{
    SaLshBlocker, SemanticFunction, SemhashFamily, VoterSemanticFunction,
};
use sablock::datasets::{Record, RecordId, Schema};
use sablock::eval::experiments::{VOTER_BLOCKING_ATTRIBUTES, VOTER_SEMANTIC_BITS};
use sablock::serve::{serve_tcp, CandidateService, FrontendOptions, FsyncPolicy, WalOptions};

use crate::report::peak_rss_mb;

/// Front-end worker threads.
pub const WORKERS: usize = 2;
/// Rows per preload batch (`CandidateService::insert_rows`).
pub const PRELOAD_BATCH: usize = 2_048;

pub type Row = Vec<Option<String>>;

/// The SA-LSH operating point of `examples/mixed_load.rs`: k = 9, l = 15,
/// w = 12, OR, the semhash family pinned to every taxonomy leaf. The server,
/// the offline mirrors and the in-process layer passes all derive from it.
pub fn salsh_blocker() -> Result<SaLshBlocker, Box<dyn Error>> {
    let zeta = VoterSemanticFunction::default_voter();
    let tree = zeta.taxonomy().clone();
    let family = SemhashFamily::from_all_leaves(&tree)?;
    let semantic = SemanticConfig::new(tree, zeta)
        .with_w(VOTER_SEMANTIC_BITS)
        .with_mode(SemanticMode::Or)
        .with_seed(0x5eed)
        .with_pinned_family(family);
    Ok(SaLshBlocker::builder()
        .attributes(VOTER_BLOCKING_ATTRIBUTES)
        .qgram(2)
        .rows_per_band(9)
        .bands(15)
        .seed(0x7013)
        .semantic(semantic)
        .build()?)
}

/// The service's index: [`salsh_blocker`] as an incremental blocker.
pub fn incremental_blocker() -> Result<IncrementalSaLshBlocker, Box<dyn Error>> {
    Ok(salsh_blocker()?.into_incremental()?)
}

/// Records for `rows`, with dense ids from `base`.
pub fn records_of(
    schema: &Arc<Schema>,
    base: usize,
    rows: &[Row],
) -> Result<Vec<Record>, Box<dyn Error>> {
    rows.iter()
        .enumerate()
        .map(|(offset, row)| {
            Ok(Record::new(
                RecordId::try_from_index(base + offset)?,
                Arc::clone(schema),
                row.clone(),
            )?)
        })
        .collect()
}

/// The offline mirror of a preloaded server: the bare incremental index,
/// fed the corpus in the server's preload batches.
pub fn build_mirror(
    schema: &Arc<Schema>,
    corpus: &[Row],
) -> Result<IncrementalSaLshBlocker, Box<dyn Error>> {
    let mut mirror = incremental_blocker()?;
    for (index, batch) in corpus.chunks(PRELOAD_BATCH).enumerate() {
        mirror.insert_batch(&records_of(schema, index * PRELOAD_BATCH, batch)?)?;
    }
    Ok(mirror)
}

/// One row as tab-separated fields, an empty field for a missing value.
pub fn row_fields(row: &Row) -> String {
    row.iter()
        .map(|value| value.as_deref().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\t")
}

fn parse_row(line: &str, width: usize) -> Row {
    let mut row: Row = line
        .split('\t')
        .map(|field| {
            if field.is_empty() {
                None
            } else {
                Some(field.to_string())
            }
        })
        .collect();
    row.resize(width, None);
    row
}

pub fn write_corpus(path: &Path, rows: &[Row]) -> std::io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for row in rows {
        writeln!(out, "{}", row_fields(row))?;
    }
    out.flush()
}

/// `sabench server --schema <a,b,..> --wal <dir> --fsync <always|never> [--corpus <file>]`
pub fn server_main(args: &[String]) -> Result<(), Box<dyn Error>> {
    let mut corpus: Option<PathBuf> = None;
    let mut wal: Option<PathBuf> = None;
    let mut fsync = FsyncPolicy::Always;
    let mut schema: Option<Arc<Schema>> = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--corpus" => corpus = Some(PathBuf::from(value)),
            "--wal" => wal = Some(PathBuf::from(value)),
            "--schema" => schema = Some(Schema::shared(value.split(','))?),
            "--fsync" => {
                fsync = match value.as_str() {
                    "always" => FsyncPolicy::Always,
                    "never" => FsyncPolicy::Never,
                    other => return Err(format!("unknown fsync policy {other}").into()),
                }
            }
            other => return Err(format!("unknown server argument {other}").into()),
        }
    }
    let schema = schema.ok_or("--schema is required")?;
    let wal = wal.ok_or("--wal is required")?;
    let options = WalOptions {
        fsync,
        ..WalOptions::default()
    };
    let (service, _report) =
        CandidateService::open_durable(incremental_blocker()?, Arc::clone(&schema), &wal, options)?;
    if let (Some(corpus), 0) = (corpus, service.current().view().num_records()) {
        let text = std::fs::read_to_string(corpus)?;
        let rows: Vec<Row> = text
            .lines()
            .map(|line| parse_row(line, schema.len()))
            .collect();
        for batch in rows.chunks(PRELOAD_BATCH) {
            service.insert_rows(batch.to_vec())?;
        }
    }
    let listener = TcpListener::bind("127.0.0.1:0")?;
    println!("READY {}", listener.local_addr()?);
    std::io::stdout().flush()?;

    let service = Arc::new(service);
    let control = Arc::clone(&service);
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if line.trim() == "metrics" {
                let metrics = control.metrics();
                println!(
                    "METRICS shed {} reaped {} degraded {} peak_rss_mb {}",
                    metrics.shed(),
                    metrics.reaped(),
                    metrics.degraded(),
                    peak_rss_mb(None).unwrap_or(0.0)
                );
                let _ = std::io::stdout().flush();
            }
        }
        // The benchmark closed stdin: it is done with this server.
        std::process::exit(0);
    });
    let options = FrontendOptions {
        workers: WORKERS,
        ..FrontendOptions::default()
    };
    serve_tcp(&service, &listener, &options)?;
    Ok(())
}

/// Counters reported by a running server.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerMetrics {
    pub reaped: u64,
    pub peak_rss_mb: f64,
}

/// A running server process.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Spawns `sabench server` on a WAL directory, preloading `corpus` when
    /// the directory holds no state, and waits for it to listen.
    pub fn spawn(
        schema: &Schema,
        wal: &Path,
        fsync: &str,
        corpus: Option<&Path>,
    ) -> Result<Self, Box<dyn Error>> {
        let mut command = Command::new(std::env::current_exe()?);
        command
            .arg("server")
            .arg("--schema")
            .arg(schema.names().join(","))
            .arg("--wal")
            .arg(wal)
            .arg("--fsync")
            .arg(fsync)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(corpus) = corpus {
            command.arg("--corpus").arg(corpus);
        }
        let mut child = command.spawn()?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().ok_or("server stdout")?);
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(addr) = line.trim().strip_prefix("READY ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not start (said {line:?})").into());
        };
        let addr = addr.to_string();
        Ok(Self {
            child,
            stdin,
            stdout,
            addr,
        })
    }

    /// Asks the server for its front-end counters and peak RSS.
    pub fn metrics(&mut self) -> Result<ServerMetrics, Box<dyn Error>> {
        let stdin = self.stdin.as_mut().ok_or("server stdin closed")?;
        writeln!(stdin, "metrics")?;
        stdin.flush()?;
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        let fields: Vec<&str> = line.split_whitespace().collect();
        let field = |name: &str| -> Result<&str, Box<dyn Error>> {
            let at = fields
                .iter()
                .position(|f| *f == name)
                .ok_or_else(|| format!("no {name} in {line:?}"))?;
            Ok(fields.get(at + 1).copied().ok_or("truncated METRICS")?)
        };
        Ok(ServerMetrics {
            reaped: field("reaped")?.parse()?,
            peak_rss_mb: field("peak_rss_mb")?.parse()?,
        })
    }

    /// `SIGKILL`: the process gets no chance to flush anything.
    pub fn kill(mut self) -> Result<(), Box<dyn Error>> {
        self.child.kill()?;
        self.child.wait()?;
        Ok(())
    }

    /// Closes stdin, which makes the server exit, and waits for it.
    pub fn stop(mut self) -> Result<(), Box<dyn Error>> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.child.kill()?;
        self.child.wait()?;
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Never leave a server behind, whatever path ended the run.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
