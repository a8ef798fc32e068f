//! `serve_read`: a read-only open-loop load on the candidate service over
//! TCP — 90 % `QUERY`, 10 % `QUERYK 10` over two connections, probes drawn
//! from held-out rows of the same generator — at a nominal rate and then up a
//! ladder of fixed rates. Also the read-side helpers `serve_write` shares.

use std::collections::BTreeSet;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sablock::core::incremental::{IncrementalBlocker, IncrementalSaLshBlocker};
use sablock::core::minhash::shingle::RecordShingler;
use sablock::core::minhash::MinHasher;
use sablock::datasets::generators::ncvoter::{NcVoterConfig, NcVoterGenerator};
use sablock::datasets::{RecordId, Schema};
use sablock::eval::experiments::VOTER_BLOCKING_ATTRIBUTES;
use sablock::serve::protocol::{handle_line_with, parse_request, RequestLimits};
use sablock::serve::CandidateService;

use crate::loadgen::{self, Kind, Load, Outcome, Request};
use crate::pipeline::voter_seed;
use crate::report::{median, Report};
use crate::server::{
    build_mirror, incremental_blocker, records_of, row_fields, salsh_blocker, write_corpus, Row,
    Server, PRELOAD_BATCH,
};
use crate::trace::Tracer;
use crate::RunConfig;

/// Corpus rows preloaded into the server.
const CORPUS: usize = 100_000;
const QUICK_CORPUS: usize = 4_000;
/// Held-out probe rows.
pub const PROBES: usize = 4_096;
/// The nominal rate (requests/s over both connections) for `read_p50/p99`.
const NOMINAL_RATE: f64 = 1_000.0;
/// Tail window: the reported p99 is the median of the per-second p99s.
const TAIL_WINDOW: Duration = Duration::from_secs(1);
/// The saturated rate counts only when its p99 stays within this.
pub const READ_P99_LIMIT: Duration = Duration::from_millis(50);
/// Requests in each connection's closed-loop cycle.
pub const SATURATION_CYCLE: usize = 4_096;
/// Requests each connection keeps in flight in the closed loop, so the
/// server reads pipelined lines instead of waking for each one.
const SATURATION_DEPTH: usize = 8;
const CONNECTIONS: usize = 2;
const SETUP_REPEATS: usize = 3;
/// Rank depth of the `QUERYK` requests.
const TOP_K: usize = 10;

/// A small deterministic generator for the request mix (splitmix64).
pub struct Mix(u64);

impl Mix {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `count` seed-generated NC-Voter rows.
pub fn voter_rows(count: usize, seed: u64) -> Result<(Arc<Schema>, Vec<Row>), Box<dyn Error>> {
    let generator = NcVoterGenerator::new(NcVoterConfig {
        num_records: count,
        seed: voter_seed(seed),
        ..NcVoterConfig::default()
    });
    let mut stream = generator.stream()?;
    let schema = Arc::clone(stream.schema());
    let mut rows = Vec::with_capacity(count);
    while let Some(chunk) = stream.next_chunk(8_192) {
        rows.extend(chunk.into_iter().map(|(values, _entity)| values));
    }
    Ok((schema, rows))
}

/// A fresh scratch directory for this run under the output directory.
pub fn scratch_dir(config: &RunConfig, name: &str) -> Result<PathBuf, Box<dyn Error>> {
    let dir = config.out_dir.join("tmp").join(format!(
        "{}-{}-{name}",
        config.workload,
        std::process::id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Set-up, timed as a whole: generate the rows, write the corpus file,
/// spawn a server on a fresh WAL directory (which preloads in batches), and
/// get its first reply. Repeated; the median is `setup_s`. Returns the last
/// server and the rows.
pub struct Prepared {
    pub schema: Arc<Schema>,
    pub corpus: Vec<Row>,
    pub held_out: Vec<Row>,
    pub server: Server,
    pub wal: PathBuf,
    pub setup_s: Vec<f64>,
    pub generate_s: Vec<f64>,
}

pub fn prepare(
    config: &RunConfig,
    scratch: &Path,
    corpus_size: usize,
    held_out: usize,
    fsync: &str,
    repeats: usize,
) -> Result<Prepared, Box<dyn Error>> {
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut last = None;
    for attempt in 0..repeats {
        let started = Instant::now();
        let (schema, mut corpus) = voter_rows(corpus_size + held_out, config.seed)?;
        let held = corpus.split_off(corpus_size);
        generate_s.push(started.elapsed().as_secs_f64());
        let corpus_path = scratch.join("corpus.tsv");
        write_corpus(&corpus_path, &corpus)?;
        let wal = scratch.join(format!("wal-{attempt}"));
        std::fs::create_dir_all(&wal)?;
        let server = Server::spawn(&schema, &wal, fsync, Some(&corpus_path))?;
        let first = loadgen::request(&server.addr, "STATS")?;
        setup_s.push(started.elapsed().as_secs_f64());
        if !first.starts_with("OK") {
            return Err(format!("server's first reply was {first:?}").into());
        }
        if let Some((previous, previous_wal, ..)) =
            last.replace((server, wal, schema, corpus, held))
        {
            previous.stop()?;
            std::fs::remove_dir_all(previous_wal)?;
        }
    }
    let (server, wal, schema, corpus, held_out) = last.ok_or("no set-up ran")?;
    Ok(Prepared {
        schema,
        corpus,
        held_out,
        server,
        wal,
        setup_s,
        generate_s,
    })
}

/// The request line of a read.
pub fn read_line(kind: Kind, row: &Row) -> String {
    match kind {
        Kind::QueryK => format!("QUERYK\t{TOP_K}\t{}", row_fields(row)),
        _ => format!("QUERY\t{}", row_fields(row)),
    }
}

/// The read mix: 90 % `QUERY`, 10 % `QUERYK`, seeded probe choice.
pub fn read_schedule(rate: f64, seconds: f64, probes: &[Row], mix: &mut Mix) -> Vec<Request> {
    loadgen::evenly(rate, seconds, || {
        let probe = mix.below(probes.len());
        let kind = if mix.below(10) == 0 {
            Kind::QueryK
        } else {
            Kind::Query
        };
        (kind, read_line(kind, &probes[probe]), probe)
    })
}

/// The open-loop connections: `QUERY` on one, `QUERYK` on the other, so a
/// cheap lookup never waits behind a ranked one on its connection and the
/// tail is the ranked path's own.
fn by_kind(schedule: Vec<Request>) -> Vec<Vec<Request>> {
    let (ranked, cheap): (Vec<Request>, Vec<Request>) = schedule
        .into_iter()
        .partition(|request| request.kind == Kind::QueryK);
    vec![cheap, ranked]
}

/// Deals a schedule round-robin over `connections` connections.
pub fn deal(schedule: Vec<Request>, connections: usize) -> Vec<Vec<Request>> {
    let mut dealt = vec![Vec::new(); connections];
    for (index, request) in schedule.into_iter().enumerate() {
        dealt[index % connections].push(request);
    }
    dealt
}

/// The expected `QUERY` answer of every probe row, from an offline mirror:
/// each probe carries the id the mirror would assign next.
pub fn expected_candidates(
    mirror: &IncrementalSaLshBlocker,
    schema: &Arc<Schema>,
    probes: &[Row],
) -> Result<Vec<Vec<RecordId>>, Box<dyn Error>> {
    probes
        .iter()
        .map(|row| {
            Ok(mirror.query_candidates(
                &records_of(schema, mirror.num_records(), std::slice::from_ref(row))?[0],
            )?)
        })
        .collect()
}

fn parse_ids(reply: &str) -> Option<Vec<RecordId>> {
    let mut fields = reply.split_whitespace();
    (fields.next()? == "OK").then_some(())?;
    let count: usize = fields.next()?.parse().ok()?;
    let ids: Option<Vec<RecordId>> = fields
        .map(|field| field.parse().ok().map(RecordId))
        .collect();
    ids.filter(|ids| ids.len() == count)
}

fn parse_scored(reply: &str) -> Option<Vec<(RecordId, f64)>> {
    let mut fields = reply.split_whitespace();
    (fields.next()? == "OK").then_some(())?;
    let count: usize = fields.next()?.parse().ok()?;
    let scored: Option<Vec<(RecordId, f64)>> = fields
        .map(|field| {
            let (id, score) = field.split_once(':')?;
            Some((RecordId(id.parse().ok()?), score.parse().ok()?))
        })
        .collect();
    scored.filter(|scored| scored.len() == count)
}

/// Checks every successful read reply against the mirror's answers: a
/// `QUERY` must equal the expected candidates, a `QUERYK` must rank
/// `min(k, |candidates|)` of them with non-increasing scores. Returns the
/// number of replies checked and the first mismatch.
pub fn check_reads<'a>(
    outcomes: impl IntoIterator<Item = &'a Outcome>,
    expected: &[Vec<RecordId>],
) -> (usize, Option<String>) {
    let mut checked = 0;
    for outcome in outcomes
        .into_iter()
        .filter(|outcome| outcome.kind.is_read() && outcome.ok())
    {
        checked += 1;
        let want = &expected[outcome.item];
        let fine = match outcome.kind {
            Kind::Query => parse_ids(&outcome.reply).is_some_and(|ids| &ids == want),
            _ => parse_scored(&outcome.reply).is_some_and(|scored| {
                let allowed: BTreeSet<RecordId> = want.iter().copied().collect();
                scored.len() == want.len().min(TOP_K)
                    && scored.iter().all(|(id, _)| allowed.contains(id))
                    && scored.windows(2).all(|pair| pair[0].1 >= pair[1].1)
            }),
        };
        if !fine {
            return (
                checked,
                Some(format!(
                    "probe {} got {:?}, expected {:?}",
                    outcome.item, outcome.reply, want
                )),
            );
        }
    }
    (checked, None)
}

/// Replays read requests in process against `service`, one span per public
/// call, and derives the read-path layer metrics. `client_p50_s` is the
/// client-observed median of the same mix over TCP.
pub fn trace_reads(
    tracer: &mut Tracer,
    service: &CandidateService,
    requests: &[Request],
    probes: &[Row],
    client_p50_s: f64,
    report: &mut Report,
) -> Result<(), Box<dyn Error>> {
    // The same pass untraced and traced: the difference is the tracing cost.
    let untraced = Instant::now();
    read_pass(&mut Tracer::new(false), service, requests, probes)?;
    let untraced_s = untraced.elapsed().as_secs_f64();
    let traced = Instant::now();
    let layers = read_pass(tracer, service, requests, probes)?;
    let traced_s = traced.elapsed().as_secs_f64();

    let us = |values: &[f64]| median(values) * 1e6;
    report.layer("protocol.parse_us", us(&layers.parse));
    report.layer("service.probe_record_us", us(&layers.signature));
    report.layer("service.query_us", us(&layers.query));
    report.layer("service.query_top_k_us", us(&layers.query_top_k));
    report.layer("protocol.render_us", us(&layers.render));
    report.layer(
        "service.candidates_per_query",
        layers.candidates.iter().sum::<f64>() / layers.candidates.len().max(1) as f64,
    );
    report.layer(
        "frontend.gap_us",
        (client_p50_s - median(&layers.handle)) * 1e6,
    );
    report.layer(
        "trace.overhead_pct",
        (traced_s - untraced_s) / untraced_s * 100.0,
    );
    Ok(())
}

/// Timed repetitions of each in-process call; the per-request figure is the
/// fastest, so sub-microsecond differences are not lost in timer noise.
const REPS: usize = 3;

/// Per-request layer times of one in-process pass (empty when untraced).
#[derive(Default)]
struct ReadLayers {
    parse: Vec<f64>,
    signature: Vec<f64>,
    query: Vec<f64>,
    query_top_k: Vec<f64>,
    render: Vec<f64>,
    handle: Vec<f64>,
    candidates: Vec<f64>,
}

/// One in-process pass over the requests: each public call `REPS` times in a
/// span of its own, under one root span per request.
fn read_pass(
    tracer: &mut Tracer,
    service: &CandidateService,
    requests: &[Request],
    probes: &[Row],
) -> Result<ReadLayers, Box<dyn Error>> {
    // The shingler, hasher and family of the server's own blocker.
    let blocker = salsh_blocker()?;
    let semantic = blocker
        .semantic_config()
        .ok_or("the service blocker is semantic")?;
    let family = semantic
        .pinned_family
        .as_ref()
        .ok_or("the service blocker pins its semhash family")?;
    let shingler = RecordShingler::new(VOTER_BLOCKING_ATTRIBUTES, blocker.minhash_config().qgram)?;
    let hasher = MinHasher::from_config(blocker.minhash_config());
    let limits = RequestLimits::default();
    let width = service.schema().len();
    let state = service.current();

    let mut layers = ReadLayers::default();
    for (index, request) in requests.iter().enumerate() {
        let id = index as u64;
        let root = tracer.begin("request", None, id);
        let probe = service.probe_record(&state, probes[request.item].clone())?;
        // Runs `call` REPS times, each in a span; the fastest duration.
        let fastest = |tracer: &mut Tracer, name: &'static str, call: &mut dyn FnMut()| {
            let mut best = f64::INFINITY;
            for _ in 0..REPS {
                let span = tracer.begin(name, root, id);
                call();
                tracer.end(span);
                best = best.min(
                    tracer
                        .get(span)
                        .map_or(f64::INFINITY, |span| span.duration_s()),
                );
            }
            best
        };
        let parse = fastest(tracer, "protocol.parse_request", &mut || {
            std::hint::black_box(parse_request(&request.line, width).is_ok());
        });
        let signature = fastest(tracer, "service.probe_signature", &mut || {
            let shingles = shingler.shingles(&probe);
            std::hint::black_box((
                hasher.signature(&shingles),
                family.signature(&semantic.taxonomy, &semantic.function.interpret(&probe)),
            ));
        });
        let mut found = 0;
        let query = match request.kind {
            Kind::QueryK => fastest(tracer, "service.query_top_k", &mut || {
                std::hint::black_box(
                    state
                        .query_top_k(&probe, TOP_K)
                        .map(|ranked| ranked.len())
                        .unwrap_or(0),
                );
            }),
            _ => fastest(tracer, "service.query", &mut || {
                found = state
                    .query(&probe)
                    .map(|candidates| candidates.len())
                    .unwrap_or(0);
            }),
        };
        let handle = fastest(tracer, "protocol.handle_line_with", &mut || {
            std::hint::black_box(handle_line_with(service, &limits, &request.line));
        });
        tracer.end(root);
        if tracer.enabled() {
            layers.parse.push(parse);
            layers.signature.push(signature);
            layers.handle.push(handle);
            if request.kind == Kind::QueryK {
                layers.query_top_k.push(query);
            } else {
                layers.query.push(query);
                layers.candidates.push(found as f64);
                layers.render.push(handle - parse - query);
            }
        }
    }
    Ok(layers)
}

/// An in-process service holding the same corpus, batched like the server's
/// preload.
pub fn in_process_service(
    schema: &Arc<Schema>,
    corpus: &[Row],
) -> Result<CandidateService, Box<dyn Error>> {
    let service = CandidateService::new(incremental_blocker()?, Arc::clone(schema))?;
    for batch in corpus.chunks(PRELOAD_BATCH) {
        service.insert_rows(batch.to_vec())?;
    }
    Ok(service)
}

pub fn run(config: &RunConfig) -> Result<Report, Box<dyn Error>> {
    let corpus_size = if config.quick { QUICK_CORPUS } else { CORPUS };
    let mut report = Report::default();
    report.param("corpus", corpus_size);
    report.param("probes", PROBES);
    report.param("nominal_rate", NOMINAL_RATE);
    report.param("saturation", "closed loop, all connections");
    report.param("read_p99_limit_ms", READ_P99_LIMIT.as_millis());
    report.param("connections", CONNECTIONS);
    report.param("workers", crate::server::WORKERS);

    let scratch = scratch_dir(config, "state")?;
    let repeats = if config.trace { 1 } else { SETUP_REPEATS };
    let Prepared {
        schema,
        corpus,
        held_out: probes,
        mut server,
        setup_s,
        generate_s,
        ..
    } = prepare(config, &scratch, corpus_size, PROBES, "never", repeats)?;
    let epoch_before = loadgen::stat(&loadgen::request(&server.addr, "STATS")?, "epoch");

    let mirror = build_mirror(&schema, &corpus)?;
    let expected = expected_candidates(&mirror, &schema, &probes)?;

    // --- Timed window -------------------------------------------------------
    let mut mix = Mix::new(config.seed);
    let mut tracer = Tracer::new(config.trace);
    let warm = read_schedule(NOMINAL_RATE, 0.5, &probes, &mut mix);
    loadgen::run(&server.addr, &by_kind(warm));

    let nominal_s = config.seconds * 0.5;
    let nominal_requests = read_schedule(NOMINAL_RATE, nominal_s, &probes, &mut mix);
    let window = Instant::now();
    let nominal: Vec<Outcome> =
        loadgen::run(&server.addr, &by_kind(nominal_requests.clone())).concat();
    let nominal_summary = loadgen::summarize(&nominal, Kind::is_read, TAIL_WINDOW);
    let cycles: Vec<Load> = deal(
        read_schedule(1.0, SATURATION_CYCLE as f64, &probes, &mut mix),
        CONNECTIONS,
    )
    .into_iter()
    .map(|requests| Load::Saturate {
        requests,
        seconds: config.seconds - nominal_s,
        depth: SATURATION_DEPTH,
    })
    .collect();
    let saturated: Vec<Outcome> = loadgen::run_loads(&server.addr, &cycles).concat();
    let saturated_summary = loadgen::summarize(&saturated, Kind::is_read, TAIL_WINDOW);
    let max_rps = if saturated_summary.failed == 0
        && saturated_summary.p99_s <= READ_P99_LIMIT.as_secs_f64()
    {
        saturated_summary.achieved_per_s
    } else {
        0.0
    };
    let late_max = nominal_summary.late_max_s;
    let mut all = nominal.clone();
    all.extend(saturated);
    let window_s = window.elapsed().as_secs_f64();
    let stats = loadgen::request(&server.addr, "STATS")?;
    let metrics = server.metrics()?;

    // --- Output checks ------------------------------------------------------
    let (checked, mismatch) = check_reads(&all, &expected);
    report.check(
        format!(
            "{checked} read replies equal the offline mirror's query_candidates / ranked subsets{}",
            mismatch.map_or(String::new(), |m| format!(": {m}"))
        ),
        mismatch_free(&all, checked),
    );
    report.check(
        format!(
            "read-only load left the epoch unchanged ({epoch_before:?} -> {:?})",
            loadgen::stat(&stats, "epoch")
        ),
        epoch_before.is_some() && loadgen::stat(&stats, "epoch") == epoch_before,
    );
    let overall = loadgen::summarize(&all, Kind::is_read, TAIL_WINDOW);
    report.attempted = overall.attempted as u64;
    report.failed = overall.failed as u64;

    report.detail("corpus", corpus_size as f64, "count");
    report.detail("window_s", window_s, "s");
    report.detail("read_p50_us", nominal_summary.p50_s * 1e6, "us");
    report.detail("read_p95_us", nominal_summary.p95_s * 1e6, "us");
    report.detail("read_p99_us", nominal_summary.p99_s * 1e6, "us");
    report.detail("read_samples", nominal_summary.attempted as f64, "count");
    report.detail("read_max_rps", max_rps, "1/s");
    report.detail("saturated_p99_us", saturated_summary.p99_s * 1e6, "us");
    report.detail(
        "error_rate",
        overall.failed as f64 / overall.attempted.max(1) as f64,
        "ratio",
    );
    report.e2e("setup_s", median(&setup_s));
    report.e2e("peak_rss_mb", metrics.peak_rss_mb);
    report.e2e("latency_p50_ms", nominal_summary.p50_s * 1e3);
    report.e2e("latency_p99_ms", nominal_summary.p99_s * 1e3);
    report.e2e("throughput_per_s", max_rps);

    if config.trace {
        for outcome in &nominal {
            if let Some(done) = outcome.done {
                tracer.record("client.request", outcome.due, done, None, 0);
            }
        }
        let service = in_process_service(&schema, &corpus)?;
        trace_reads(
            &mut tracer,
            &service,
            &nominal_requests,
            &probes,
            nominal_summary.p50_s,
            &mut report,
        )?;
        report.layer("datasets.generate_s", median(&generate_s));
        report.layer(
            "frontend.shed",
            loadgen::stat(&stats, "shed").unwrap_or(0) as f64,
        );
        report.layer("frontend.reaped", metrics.reaped as f64);
        report.layer("loadgen.late_ms", late_max * 1e3);
        report.layer(
            "client.error_rate",
            overall.failed as f64 / overall.attempted.max(1) as f64,
        );
        report.layer("trace.spans", tracer.spans().len() as f64);
        tracer.write_jsonl(
            &config
                .out_dir
                .join(format!("serve_read-seed{}-spans.jsonl", config.seed)),
        )?;
    }
    server.stop()?;
    std::fs::remove_dir_all(&scratch)?;
    Ok(report)
}

/// Every successful read was checked and none mismatched.
fn mismatch_free(outcomes: &[Outcome], checked: usize) -> bool {
    let ok_reads = outcomes
        .iter()
        .filter(|outcome| outcome.kind.is_read() && outcome.ok())
        .count();
    checked == ok_reads && ok_reads > 0
}
