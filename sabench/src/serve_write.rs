//! `serve_write`: durable single-row writes over TCP (`--fsync always`) with
//! reads beside them, then a `SIGKILL` and a restart on the same WAL.
//!
//! One write connection sends `INSERT`s of new rows, in blocks that
//! alternate between a nominal rate and back to back; every 10th write is a
//! `REMOVE` and a `CHECKPOINT` goes out periodically. One read connection
//! sends `QUERY` at a fixed rate throughout. Reads and writes use separate
//! connections because one connection is served sequentially by one worker.

use std::error::Error;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sablock::core::incremental::{IncrementalBlocker, IncrementalSaLshBlocker};
use sablock::datasets::{RecordId, Schema};
use sablock::serve::wal::{snapshot_path, LoggedOp, Wal};
use sablock::serve::{CandidateService, FsyncPolicy, WalOptions, WriteOp};

use crate::loadgen::{self, Kind, Load, Outcome, Request};
use crate::report::{median, Report};
use crate::serve_read::{
    check_reads, deal, expected_candidates, in_process_service, prepare, read_line, read_schedule,
    scratch_dir, trace_reads, Mix, Prepared, PROBES,
};
use crate::server::{
    build_mirror, incremental_blocker, records_of, row_fields, Row, Server, PRELOAD_BATCH,
};
use crate::trace::Tracer;
use crate::RunConfig;

const CORPUS: usize = 50_000;
const QUICK_CORPUS: usize = 3_000;
/// New rows available to `INSERT`.
const INSERT_POOL: usize = 4_000;
/// The nominal write rate (writes/s) for `write_p50/p99`.
const NOMINAL_WRITES: f64 = 12.0;
/// Requests built per second of a closed-loop block: many times what one
/// connection sustains back to back, so the cycle never wraps.
const SATURATION_CAP: f64 = 1_000.0;
/// The window alternates open-loop and closed-loop blocks of about this
/// length, so both halves sample the whole run of the shared machine.
const BLOCK: Duration = Duration::from_secs(4);
/// The fixed read rate beside the writes.
const READ_RATE: f64 = 200.0;
/// The saturated write rate counts only when its p99 stays within this.
const WRITE_P99_LIMIT: Duration = Duration::from_millis(250);
/// One `CHECKPOINT` per this much of the write schedule.
const CHECKPOINT_EVERY: Duration = Duration::from_secs(2);
/// Tail window: one checkpoint in each, so the median of the windows' p99s
/// is the write tail with one checkpoint stall.
const TAIL_WINDOW: Duration = CHECKPOINT_EVERY;
/// In the closed loop, one `CHECKPOINT` per this many writes (about
/// [`CHECKPOINT_EVERY`] at the saturated rate).
const CHECKPOINT_EVERY_WRITES: usize = 90;
/// Every `REMOVE_EVERY`-th write is a `REMOVE`.
const REMOVE_EVERY: usize = 10;
const SETUP_REPEATS: usize = 3;
/// `QUERY`s sent before the write phase, checked against the mirror.
const PRE_WRITE_READS: usize = 64;
/// In-process samples per write-path layer in the traced run.
const LAYER_SAMPLES: usize = 60;

/// The write script: which rows are inserted and which ids removed, in
/// order. Writes are numbered globally across phases.
struct Script {
    pool: Vec<Row>,
    victims: Vec<u32>,
    at: Cursor,
}

/// How far the script has been sent.
#[derive(Clone, Copy, Default)]
struct Cursor {
    write: usize,
    insert: usize,
    victim: usize,
}

impl Script {
    fn new(pool: Vec<Row>, corpus: usize, seed: u64) -> Self {
        // A seeded shuffle of the corpus ids: each removal hits a live row.
        let mut victims: Vec<u32> = (0..corpus as u32).collect();
        let mut mix = Mix::new(seed ^ 0x7717e);
        for i in (1..victims.len()).rev() {
            victims.swap(i, mix.below(i + 1));
        }
        Self {
            pool,
            victims,
            at: Cursor::default(),
        }
    }

    /// The next write: its kind, line, and item (pool row or victim id).
    fn next(&mut self) -> (Kind, String, usize) {
        self.at.write += 1;
        if self.at.write.is_multiple_of(REMOVE_EVERY) {
            let victim = self.victims[self.at.victim % self.victims.len()];
            self.at.victim += 1;
            (Kind::Remove, format!("REMOVE\t{victim}"), victim as usize)
        } else {
            let item = self.at.insert % self.pool.len();
            self.at.insert += 1;
            (
                Kind::Insert,
                format!("INSERT\t{}", row_fields(&self.pool[item])),
                item,
            )
        }
    }

    /// Writes at `rate` for `seconds`, with a `CHECKPOINT` in the middle of
    /// every whole [`CHECKPOINT_EVERY`] (at least one), so each tail window
    /// of the load generator holds exactly one. Each goes out 1 ms before
    /// the next write is due: that write waits out the whole checkpoint, so
    /// the tail is checkpoint plus write, not a fraction of the checkpoint
    /// that depends on the write spacing.
    fn schedule(&mut self, rate: f64, seconds: f64) -> Vec<Request> {
        let mut requests = loadgen::evenly(rate, seconds, || self.next());
        let period = CHECKPOINT_EVERY.as_secs_f64();
        let middles: Vec<f64> = match (seconds / period).floor() as usize {
            0 => vec![seconds / 2.0],
            whole => (0..whole)
                .map(|index| (index as f64 + 0.5) * period)
                .collect(),
        };
        for middle in middles {
            let next_write = (middle * rate).ceil() / rate;
            requests.push(Request {
                due: Duration::from_secs_f64((next_write - 0.001).max(0.0)),
                kind: Kind::Checkpoint,
                line: "CHECKPOINT".into(),
                item: 0,
            });
        }
        requests.sort_by_key(|request| request.due);
        requests
    }
}

impl Script {
    /// The write cycle of a closed-loop block of `seconds`, a `CHECKPOINT`
    /// every [`CHECKPOINT_EVERY_WRITES`] writes. The script stays where it
    /// was: the block moves it on by the writes it sent ([`Script::skip`]).
    fn saturation(&mut self, seconds: f64) -> Vec<Request> {
        let start = self.at;
        let cycle = (1..=(SATURATION_CAP * seconds).ceil() as usize)
            .map(|index| {
                let (kind, line, item) = if index.is_multiple_of(CHECKPOINT_EVERY_WRITES) {
                    (Kind::Checkpoint, "CHECKPOINT".to_string(), 0)
                } else {
                    self.next()
                };
                Request {
                    due: Duration::ZERO,
                    kind,
                    line,
                    item,
                }
            })
            .collect();
        self.at = start;
        cycle
    }

    /// Moves past `writes` writes that went out.
    fn skip(&mut self, writes: usize) {
        for _ in 0..writes {
            self.next();
        }
    }
}

fn is_write(kind: Kind) -> bool {
    matches!(kind, Kind::Insert | Kind::Remove)
}

/// One phase: the write load on one connection, `QUERY`s at the read rate
/// on the other. Returns (writes and checkpoints, reads).
fn phase(
    addr: &str,
    writes: Load,
    seconds: f64,
    probes: &[Row],
    mix: &mut Mix,
) -> (Vec<Outcome>, Vec<Outcome>) {
    let reads = loadgen::evenly(READ_RATE, seconds, || {
        let probe = mix.below(probes.len());
        (Kind::Query, read_line(Kind::Query, &probes[probe]), probe)
    });
    let mut results = loadgen::run_loads(addr, &[writes, Load::Schedule(reads)]).into_iter();
    let writes = results.next().unwrap_or_default();
    let reads = results.next().unwrap_or_default();
    (writes, reads)
}

/// Replays the acknowledged writes, in acknowledgement order (one write
/// connection, so send order), into the op-by-op mirror. Returns a mismatch
/// between a reply and the mirror, if any.
fn replay(
    mirror: &mut IncrementalSaLshBlocker,
    schema: &Arc<Schema>,
    pool: &[Row],
    writes: &[Outcome],
) -> Result<Option<String>, Box<dyn Error>> {
    for outcome in writes.iter().filter(|outcome| is_write(outcome.kind)) {
        if !outcome.ok() {
            return Ok(Some(format!(
                "write {:?} was not acknowledged: {:?}",
                outcome.kind, outcome.reply
            )));
        }
        let fields: Vec<&str> = outcome.reply.split_whitespace().collect();
        match outcome.kind {
            Kind::Insert => {
                let id = mirror.num_records();
                mirror.insert_batch(&records_of(
                    schema,
                    id,
                    &pool[outcome.item..=outcome.item],
                )?)?;
                if fields.get(1) != Some(&id.to_string().as_str()) {
                    return Ok(Some(format!(
                        "INSERT acked as {:?}, the mirror assigned {id}",
                        outcome.reply
                    )));
                }
            }
            _ => {
                let removed = mirror.remove(RecordId(outcome.item as u32))?;
                let word = if removed { "removed" } else { "absent" };
                if fields.get(1) != Some(&word) {
                    return Ok(Some(format!(
                        "REMOVE acked as {:?}, the mirror says {word}",
                        outcome.reply
                    )));
                }
            }
        }
    }
    Ok(None)
}

/// `records`, `live` and `pairs` of a `STATS` reply equal the mirror's.
fn stats_match(stats: &str, mirror: &IncrementalSaLshBlocker) -> bool {
    loadgen::stat(stats, "records") == Some(mirror.num_records() as u64)
        && loadgen::stat(stats, "live") == Some(mirror.num_live_records() as u64)
        && loadgen::stat(stats, "pairs") == Some(mirror.running_counts().pairs)
}

pub fn run(config: &RunConfig) -> Result<Report, Box<dyn Error>> {
    let corpus_size = if config.quick { QUICK_CORPUS } else { CORPUS };
    let mut report = Report::default();
    report.param("corpus", corpus_size);
    report.param("fsync", "always");
    report.param("nominal_writes", NOMINAL_WRITES);
    report.param("saturation_cap", SATURATION_CAP);
    report.param("block_s", BLOCK.as_secs_f64());
    report.param("checkpoint_every_writes", CHECKPOINT_EVERY_WRITES);
    report.param("read_rate", READ_RATE);
    report.param("write_p99_limit_ms", WRITE_P99_LIMIT.as_millis());
    report.param("checkpoint_every_s", CHECKPOINT_EVERY.as_secs_f64());

    let scratch = scratch_dir(config, "state")?;
    let repeats = if config.trace { 1 } else { SETUP_REPEATS };
    let Prepared {
        schema,
        corpus,
        held_out,
        mut server,
        wal,
        setup_s,
        generate_s,
    } = prepare(
        config,
        &scratch,
        corpus_size,
        INSERT_POOL + PROBES,
        "always",
        repeats,
    )?;
    let (pool, probes) = held_out.split_at(INSERT_POOL);
    let mut script = Script::new(pool.to_vec(), corpus_size, config.seed);
    let mut mirror = build_mirror(&schema, &corpus)?;
    let expected_before = expected_candidates(&mirror, &schema, probes)?;
    // Reads at the preloaded epoch, before any write: they must equal the
    // mirror exactly (the reads beside the writes see a moving epoch).
    let before: Vec<Request> = probes
        .iter()
        .take(PRE_WRITE_READS)
        .enumerate()
        .map(|(item, row)| Request {
            due: Duration::ZERO,
            kind: Kind::Query,
            line: read_line(Kind::Query, row),
            item,
        })
        .collect();
    let before = loadgen::run(&server.addr, &[before]).concat();

    // --- Timed window -------------------------------------------------------
    let mut mix = Mix::new(config.seed);
    let mut tracer = Tracer::new(config.trace);
    // Open-loop and closed-loop blocks alternate, so a slow spell of the
    // shared machine lands in both halves instead of in one of them.
    let cycles = (config.seconds / (2.0 * BLOCK.as_secs_f64()))
        .round()
        .max(1.0);
    let block_s = config.seconds / (2.0 * cycles);
    report.param("cycles", cycles);
    let window = Instant::now();
    let (mut nominal_writes, mut nominal_reads) = (Vec::new(), Vec::new());
    let (mut saturated_writes, mut saturated_reads) = (Vec::new(), Vec::new());
    let mut nominal_rss_mb = 0.0;
    for cycle in 0..cycles as usize {
        let writes = script.schedule(NOMINAL_WRITES, block_s);
        let (writes, reads) = phase(
            &server.addr,
            Load::Schedule(writes),
            block_s,
            probes,
            &mut mix,
        );
        nominal_writes.push(writes);
        nominal_reads.push(reads);
        if cycle == 0 {
            // Peak RSS through set-up and the first open-loop block. The
            // closed loop's peak follows allocator fragmentation under
            // back-to-back copy-on-write publishes: on one seed and 2 vCPUs
            // it read 201–253 MB from run to run.
            nominal_rss_mb = server.metrics()?.peak_rss_mb;
        }
        let (writes, reads) = phase(
            &server.addr,
            Load::Saturate {
                requests: script.saturation(block_s),
                seconds: block_s,
                depth: 1,
            },
            block_s,
            probes,
            &mut mix,
        );
        script.skip(
            writes
                .iter()
                .filter(|outcome| is_write(outcome.kind))
                .count(),
        );
        saturated_writes.push(writes);
        saturated_reads.push(reads);
    }
    let write_summary = loadgen::summarize_blocks(&nominal_writes, is_write, TAIL_WINDOW);
    let read_summary = loadgen::summarize_blocks(&nominal_reads, Kind::is_read, TAIL_WINDOW);
    let saturated = loadgen::summarize_blocks(&saturated_writes, is_write, TAIL_WINDOW);
    // Each closed-loop block's write rate, from its first send to its last
    // reply, counts only if the block had no failure and met the write
    // limit; the median over blocks is reported.
    let block_rates: Vec<f64> = saturated_writes
        .iter()
        .map(|block| {
            let summary = loadgen::summarize(block, is_write, TAIL_WINDOW);
            if summary.failed == 0 && summary.p99_s <= WRITE_P99_LIMIT.as_secs_f64() {
                summary.achieved_per_s
            } else {
                0.0
            }
        })
        .collect();
    let max_rps = median(&block_rates);
    // Acknowledgement order: the blocks ran one after another on one write
    // connection at a time.
    let mut all_writes = Vec::new();
    let mut all_reads = Vec::new();
    for (nominal, saturated) in nominal_writes.into_iter().zip(saturated_writes) {
        all_writes.extend(nominal);
        all_writes.extend(saturated);
    }
    for (nominal, saturated) in nominal_reads.into_iter().zip(saturated_reads) {
        all_reads.extend(nominal);
        all_reads.extend(saturated);
    }
    let window_s = window.elapsed().as_secs_f64();
    let stats = loadgen::request(&server.addr, "STATS")?;
    let metrics = server.metrics()?;

    // --- Kill, restart on the same WAL, and check what survived -------------
    server.kill()?;
    let restarted_at = Instant::now();
    let restarted = Server::spawn(&schema, &wal, "always", None)?;
    let stats_after = loadgen::request(&restarted.addr, "STATS")?;
    let recovery_s = restarted_at.elapsed().as_secs_f64();

    let mismatch = replay(&mut mirror, &schema, pool, &all_writes)?;
    report.check(
        format!(
            "every acknowledged write matches the op-by-op mirror{}",
            mismatch.clone().map_or(String::new(), |m| format!(": {m}"))
        ),
        mismatch.is_none(),
    );
    report.check(
        format!("final STATS records/live/pairs equal the mirror ({stats})"),
        stats_match(&stats, &mirror),
    );
    let (epoch_before, epoch_after) = (
        loadgen::stat(&stats, "epoch"),
        loadgen::stat(&stats_after, "epoch"),
    );
    report.check(
        format!("restart did not move the epoch backwards ({epoch_before:?} -> {epoch_after:?})"),
        epoch_before.is_some() && epoch_after >= epoch_before,
    );
    report.check(
        format!("after SIGKILL + restart, STATS equals the mirror ({stats_after})"),
        stats_match(&stats_after, &mirror),
    );
    // Acked inserts are queryable after the restart: a sample of inserted rows
    // probed through the restarted server answer exactly as the mirror does.
    let inserted: Vec<usize> = all_writes
        .iter()
        .filter(|o| o.kind == Kind::Insert)
        .map(|o| o.item)
        .take(64)
        .collect();
    let probe_rows: Vec<Row> = inserted.iter().map(|&item| pool[item].clone()).collect();
    let expected_after = expected_candidates(&mirror, &schema, &probe_rows)?;
    let schedule: Vec<Request> = probe_rows
        .iter()
        .enumerate()
        .map(|(item, row)| Request {
            due: Duration::ZERO,
            kind: Kind::Query,
            line: read_line(Kind::Query, row),
            item,
        })
        .collect();
    let after = loadgen::run(&restarted.addr, &deal(schedule, 1)).concat();
    let (checked, wrong) = check_reads(&after, &expected_after);
    report.check(
        format!(
            "{checked} acked inserts probed after the restart answer as the mirror{}",
            wrong.map_or(String::new(), |m| format!(": {m}"))
        ),
        checked == probe_rows.len() && !probe_rows.is_empty(),
    );
    let (checked, wrong) = check_reads(&before, &expected_before);
    report.check(
        format!(
            "{checked} reads before the first write equal the mirror{}",
            wrong.map_or(String::new(), |m| format!(": {m}"))
        ),
        checked == PRE_WRITE_READS && before.iter().all(Outcome::ok),
    );
    // Reads beside the writes see a moving epoch, so they are only required
    // to succeed.
    report.check(
        format!(
            "all {} reads beside the writes were answered OK",
            all_reads.len()
        ),
        !all_reads.is_empty() && all_reads.iter().all(Outcome::ok),
    );
    let checkpoints: Vec<&Outcome> = all_writes
        .iter()
        .filter(|o| o.kind == Kind::Checkpoint)
        .collect();
    report.check(
        format!("all {} CHECKPOINTs were answered OK", checkpoints.len()),
        !checkpoints.is_empty() && checkpoints.iter().all(|o| o.ok()),
    );

    let writes_all = loadgen::summarize(
        &all_writes,
        |kind| is_write(kind) || kind == Kind::Checkpoint,
        TAIL_WINDOW,
    );
    let reads_all = loadgen::summarize(&all_reads, Kind::is_read, TAIL_WINDOW);
    report.attempted = (writes_all.attempted + reads_all.attempted) as u64;
    report.failed = (writes_all.failed + reads_all.failed) as u64;

    report.detail("corpus", corpus_size as f64, "count");
    report.detail("window_s", window_s, "s");
    report.detail("write_p50_ms", write_summary.p50_s * 1e3, "ms");
    report.detail("write_p95_ms", write_summary.p95_s * 1e3, "ms");
    report.detail("write_p99_ms", write_summary.p99_s * 1e3, "ms");
    report.detail("write_samples", write_summary.attempted as f64, "count");
    report.detail("write_max_rps", max_rps, "1/s");
    report.detail("saturated_write_p99_ms", saturated.p99_s * 1e3, "ms");
    report.detail("read_p50_us", read_summary.p50_s * 1e6, "us");
    report.detail("read_p99_us", read_summary.p99_s * 1e6, "us");
    report.detail("read_samples", read_summary.attempted as f64, "count");
    report.detail("recovery_s", recovery_s, "s");
    report.detail(
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    report.e2e("setup_s", median(&setup_s));
    report.detail("window_peak_rss_mb", metrics.peak_rss_mb, "MB");
    report.e2e("peak_rss_mb", nominal_rss_mb);
    report.e2e("latency_p50_ms", write_summary.p50_s * 1e3);
    report.e2e("latency_p99_ms", write_summary.p99_s * 1e3);
    report.e2e("throughput_per_s", max_rps);

    if config.trace {
        for outcome in all_writes.iter().chain(&all_reads) {
            if let Some(done) = outcome.done {
                tracer.record(
                    if outcome.kind.is_read() {
                        "client.read"
                    } else {
                        "client.write"
                    },
                    outcome.due,
                    done,
                    None,
                    0,
                );
            }
        }
        let service = in_process_service(&schema, &corpus)?;
        // The in-process pass uses serve_read's 90/10 mix, so the ranked
        // path's layers are measured too; the TCP read stream stays `QUERY`.
        let reads = read_schedule(1_000.0, 2.0, probes, &mut mix);
        trace_reads(
            &mut tracer,
            &service,
            &reads,
            probes,
            read_summary.p50_s,
            &mut report,
        )?;
        drop(service);
        trace_writes(
            &mut tracer,
            &scratch,
            &schema,
            &corpus,
            pool,
            &mut mirror,
            &mut report,
        )?;
        report.layer("datasets.generate_s", median(&generate_s));
        report.layer(
            "frontend.shed",
            loadgen::stat(&stats, "shed").unwrap_or(0) as f64,
        );
        report.layer("frontend.reaped", metrics.reaped as f64);
        report.layer(
            "loadgen.late_ms",
            all_writes
                .iter()
                .chain(&all_reads)
                .map(|o| o.late.as_secs_f64())
                .fold(0.0, f64::max)
                * 1e3,
        );
        report.layer(
            "client.error_rate",
            report.failed as f64 / report.attempted.max(1) as f64,
        );
        report.layer("frontend.recovery_s", recovery_s);
        report.layer("trace.spans", tracer.spans().len() as f64);
        tracer.write_jsonl(
            &config
                .out_dir
                .join(format!("serve_write-seed{}-spans.jsonl", config.seed)),
        )?;
    }
    restarted.stop()?;
    std::fs::remove_dir_all(&scratch)?;
    Ok(report)
}

/// The write path in process, one span per public call: WAL append, the
/// incremental insert fold with a published view held, view publication,
/// removal, the service's whole apply, checkpoint, and recovery.
fn trace_writes(
    tracer: &mut Tracer,
    scratch: &Path,
    schema: &Arc<Schema>,
    corpus: &[Row],
    pool: &[Row],
    mirror: &mut IncrementalSaLshBlocker,
    report: &mut Report,
) -> Result<(), Box<dyn Error>> {
    let options = WalOptions {
        fsync: FsyncPolicy::Always,
        ..WalOptions::default()
    };
    let rows = &pool[pool.len() - LAYER_SAMPLES..];

    // Wal::append of one logged row on a scratch directory.
    let mut wal = Wal::create(&scratch.join("trace-wal"), options.clone())?;
    for (index, row) in rows.iter().enumerate() {
        let op = [LoggedOp::Insert(vec![(index as u32, row.clone())])];
        tracer.time("wal.append", None, index as u64, || wal.append(&op))?;
    }
    drop(wal);

    // The incremental index: insert one row while a published view is held,
    // as the service holds its current epoch; then publish; then remove.
    let mut delta_pairs = Vec::new();
    for (index, row) in rows.iter().enumerate() {
        let id = index as u64;
        let held = tracer.time("incremental.publish_view", None, id, || {
            mirror.publish_view()
        });
        let records = records_of(schema, mirror.num_records(), std::slice::from_ref(row))?;
        let span = tracer.begin("incremental.insert_batch", None, id);
        let delta = mirror.insert_batch(&records)?.num_pairs();
        tracer.end(span);
        delta_pairs.push(delta as f64);
        drop(held);
    }
    let view = mirror.publish_view();
    let victims: Vec<RecordId> = (0..corpus.len() as u32)
        .rev()
        .map(RecordId)
        .filter(|&id| view.is_live(id))
        .take(LAYER_SAMPLES)
        .collect();
    drop(view);
    for (index, victim) in victims.into_iter().enumerate() {
        tracer.time("incremental.remove", None, index as u64, || {
            mirror.remove(victim)
        })?;
    }

    // The durable service: preload, checkpoint, single-row applies, recovery.
    let dir = scratch.join("trace-service");
    let (service, _) = CandidateService::open_durable(
        incremental_blocker()?,
        Arc::clone(schema),
        &dir,
        options.clone(),
    )?;
    for batch in corpus.chunks(PRELOAD_BATCH) {
        service.insert_rows(batch.to_vec())?;
    }
    let epoch = tracer.time("persist.checkpoint", None, 0, || service.checkpoint())?;
    let snapshot_bytes = std::fs::metadata(snapshot_path(&dir, epoch))?.len();
    for (index, row) in rows.iter().enumerate() {
        let records = records_of(
            schema,
            service.current().view().num_records(),
            std::slice::from_ref(row),
        )?;
        tracer.time("service.apply", None, index as u64, || {
            service.apply(vec![WriteOp::Insert(records)])
        })?;
    }
    drop(service);
    let wal_bytes: u64 = std::fs::read_dir(&dir)?
        .filter_map(|entry| entry.ok())
        .filter(|entry| entry.file_name().to_string_lossy().ends_with(".log"))
        .filter_map(|entry| entry.metadata().ok())
        .map(|metadata| metadata.len())
        .sum();
    let recover = tracer.begin("wal.recover", None, 0);
    let (recovered, recovery) =
        CandidateService::open_durable(incremental_blocker()?, Arc::clone(schema), &dir, options)?;
    tracer.end(recover);
    drop(recovered);
    report.check(
        format!(
            "in-process recovery replayed exactly the {LAYER_SAMPLES} applies past the checkpoint"
        ),
        recovery.replayed_records == LAYER_SAMPLES as u64,
    );

    let us = |name: &str| median(&tracer.durations_of(name)) * 1e6;
    let (append, insert, publish, apply) = (
        us("wal.append"),
        us("incremental.insert_batch"),
        us("incremental.publish_view"),
        us("service.apply"),
    );
    report.layer("wal.append_us", append);
    report.layer("incremental.insert_us", insert);
    report.layer(
        "incremental.delta_pairs_per_insert",
        delta_pairs.iter().sum::<f64>() / delta_pairs.len().max(1) as f64,
    );
    report.layer("incremental.publish_view_us", publish);
    report.layer("incremental.remove_us", us("incremental.remove"));
    report.layer("service.apply_us", apply);
    report.layer(
        "service.apply_residual_us",
        apply - append - insert - publish,
    );
    report.layer(
        "persist.checkpoint_s",
        median(&tracer.durations_of("persist.checkpoint")),
    );
    report.layer("persist.snapshot_bytes", snapshot_bytes as f64);
    report.layer("wal.recover_s", median(&tracer.durations_of("wal.recover")));
    report.layer("wal.replayed_ops", recovery.replayed_records as f64);
    report.layer(
        "wal.bytes_per_op",
        wal_bytes as f64 / recovery.replayed_records.max(1) as f64,
    );
    Ok(())
}
