//! `pipeline_voter`: the paper's Fig. 13 point. A seed-generated NC-Voter
//! roll is blocked by SA-LSH (k = 9, l = 15, w = 12, OR), then Γ is counted
//! by the streamed packed merge with the dense ground-truth probe.

use std::error::Error;
use std::time::Instant;

use sablock::core::blocking::{Blocker, EntityTableProbe, PairCounts};
use sablock::core::lsh::semantic_hash::SemanticMode;
use sablock::core::lsh::BandingScheme;
use sablock::core::minhash::shingle::RecordShingler;
use sablock::core::minhash::MinHasher;
use sablock::core::parallel::{parallel_map, resolve_threads};
use sablock::core::semantic::semhash::SemhashFamily;
use sablock::datasets::generators::ncvoter::{NcVoterConfig, NcVoterGenerator};
use sablock::datasets::Dataset;
use sablock::eval::experiments::{voter_salsh, VOTER_BLOCKING_ATTRIBUTES, VOTER_SEMANTIC_BITS};

use crate::report::{median, peak_rss_mb, Report};
use crate::trace::Tracer;
use crate::RunConfig;

/// Records in the roll. The paper's 292,892 takes ~40 s per pipeline on two
/// cores; this size keeps several pipelines inside one run.
pub const RECORDS: usize = 75_000;
const QUICK_RECORDS: usize = 5_000;
/// Set-up repetitions whose median is `setup_s`. One set-up takes ~0.1 s,
/// so seven cost little and steady the median.
const SETUP_REPEATS: usize = 7;
/// The SA-LSH operating point.
const ROWS_PER_BAND: usize = 9;
const BANDS: usize = 15;

/// The generator seed of a workload seed: seed 0 is the repository's default
/// roll, the one the committed goldens were computed on.
pub fn voter_seed(seed: u64) -> u64 {
    NcVoterConfig::default().seed.wrapping_add(seed)
}

pub fn generate(records: usize, seed: u64) -> Result<Dataset, Box<dyn Error>> {
    Ok(NcVoterGenerator::new(NcVoterConfig {
        num_records: records,
        seed: voter_seed(seed),
        ..NcVoterConfig::default()
    })
    .generate()?)
}

pub fn run(config: &RunConfig) -> Result<Report, Box<dyn Error>> {
    let records = if config.quick { QUICK_RECORDS } else { RECORDS };
    let mut report = Report::default();
    report.param("records", records);
    report.param("k", ROWS_PER_BAND);
    report.param("l", BANDS);
    report.param("w", VOTER_SEMANTIC_BITS);
    report.param("mode", "or");

    // --- Set-up: generate the roll and build the blocker, several times ----
    let mut setup_times = Vec::new();
    let mut generate_times = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let dataset = generate(records, config.seed)?;
        generate_times.push(started.elapsed().as_secs_f64());
        let blocker = voter_salsh(ROWS_PER_BAND, BANDS, VOTER_SEMANTIC_BITS, SemanticMode::Or)?;
        setup_times.push(started.elapsed().as_secs_f64());
        prepared = Some((dataset, blocker));
    }
    let (dataset, blocker) = prepared.expect("at least one set-up");
    let truth = dataset.ground_truth();

    // One untimed pipeline first, so allocator and page-cache warm-up is not
    // charged to the first timed one.
    std::hint::black_box(
        blocker
            .block(&dataset)?
            .stream_packed_counts(EntityTableProbe::new(truth.entity_table())),
    );

    // --- Timed window: whole pipelines, block then streamed Γ count --------
    // The traced run alternates traced and untraced pipelines so it can state
    // its own overhead.
    let mut tracer = Tracer::new(config.trace);
    let mut block_s = Vec::new();
    let mut gamma_s = Vec::new();
    let mut untraced_total = Vec::new();
    let mut observed: Option<(PairCounts, usize, usize, u64)> = None;
    let mut consistent = true;
    let mut last_blocks = None;
    let window = Instant::now();
    let mut iteration = 0u64;
    while iteration < 2 || window.elapsed().as_secs_f64() < config.seconds {
        let traced = config.trace && iteration.is_multiple_of(2);
        let root = if traced {
            tracer.begin("pipeline", None, iteration)
        } else {
            None
        };
        let started = Instant::now();
        let child = if traced {
            tracer.begin("pipeline.block", root, iteration)
        } else {
            None
        };
        let blocks = blocker.block(&dataset)?;
        tracer.end(child);
        let blocked = Instant::now();
        let child = if traced {
            tracer.begin("pipeline.gamma_count", root, iteration)
        } else {
            None
        };
        let counts = blocks.stream_packed_counts(EntityTableProbe::new(truth.entity_table()));
        tracer.end(child);
        let done = Instant::now();
        tracer.end(root);
        report.attempted += 1;
        if traced || !config.trace {
            block_s.push((blocked - started).as_secs_f64());
            gamma_s.push((done - blocked).as_secs_f64());
        } else {
            untraced_total.push((done - started).as_secs_f64());
        }
        let shape = (
            counts,
            blocks.num_blocks(),
            blocks.max_block_size(),
            blocks.redundant_pair_count(),
        );
        match &observed {
            Some(first) if *first != shape => consistent = false,
            Some(_) => {}
            None => observed = Some(shape),
        }
        last_blocks = Some(blocks);
        iteration += 1;
    }
    let window_s = window.elapsed().as_secs_f64();
    let rss = peak_rss_mb(None).unwrap_or(0.0);
    let (counts, num_blocks, max_block, redundant) = observed.expect("at least one pipeline");
    let blocks = last_blocks.expect("at least one pipeline");

    // --- Output checks (outside the timed window) --------------------------
    report.check(
        format!(
            "every pipeline of the window produced the same blocks and counts ({iteration} runs)"
        ),
        consistent,
    );
    let distinct = blocks.distinct_pairs();
    let matching = distinct
        .iter()
        .filter(|pair| truth.is_match_pair(pair))
        .count() as u64;
    let reference = PairCounts {
        distinct: distinct.len() as u64,
        matching,
    };
    report.check(
        format!(
            "streamed |Γ| = {} / |Γ_tp| = {} equal the materialised enumeration {} / {}",
            counts.distinct, counts.matching, reference.distinct, reference.matching
        ),
        counts == reference,
    );
    let pc = counts.matching as f64 / truth.num_true_matches().max(1) as f64;
    report.check(
        format!("pair completeness {pc:.4} is at least 0.9"),
        pc >= 0.9,
    );
    if !report.correct() {
        report.failed = report.attempted;
    }

    let pipeline_s: Vec<f64> = block_s.iter().zip(&gamma_s).map(|(b, g)| b + g).collect();
    let pipeline_median = median(&pipeline_s);
    report.detail("records", records as f64, "count");
    report.detail("pipelines", pipeline_s.len() as f64, "count");
    report.detail("window_s", window_s, "s");
    report.detail("pipeline_s", pipeline_median, "s");
    report.detail("block_s", median(&block_s), "s");
    report.detail("gamma_count_s", median(&gamma_s), "s");
    report.detail("pair_completeness", pc, "ratio");
    report.detail(
        "reduction_ratio",
        1.0 - counts.distinct as f64 / (records as f64 * (records as f64 - 1.0) / 2.0),
        "ratio",
    );

    report.e2e("setup_s", median(&setup_times));
    report.e2e("peak_rss_mb", rss);
    report.e2e("latency_p50_ms", pipeline_median * 1e3);
    report.e2e(
        "latency_p99_ms",
        pipeline_s.iter().copied().fold(0.0, f64::max) * 1e3,
    );
    // Every pipeline the window completed, slow ones included, over the
    // window's wall time.
    report.e2e("throughput_per_s", (iteration * records as u64) as f64 / window_s);

    if config.trace {
        decompose(&mut tracer, &dataset, &mut report)?;
        let block_median = median(&tracer.durations_of("pipeline.block"));
        let gamma_median = median(&tracer.durations_of("pipeline.gamma_count"));
        let stages: f64 = [
            "minhash.shingle_s",
            "minhash.signature_s",
            "semantic.interpret_s",
            "semhash.signature_s",
            "lsh.band_keys_s",
        ]
        .iter()
        .map(|name| {
            report
                .layers
                .iter()
                .find(|(have, _)| have == name)
                .map_or(0.0, |(_, v)| *v)
        })
        .sum();
        report.layer("datasets.generate_s", median(&generate_times));
        report.layer("pipeline.block_s", block_median);
        report.layer("pipeline.gamma_count_s", gamma_median);
        report.layer("lsh.bucket_residual_s", block_median - stages);
        report.layer("lsh.blocks", num_blocks as f64);
        report.layer("lsh.max_block_size", max_block as f64);
        report.layer("blocking.redundant_pairs", redundant as f64);
        report.layer("blocking.distinct_pairs", counts.distinct as f64);
        report.layer("blocking.true_positives", counts.matching as f64);
        report.layer(
            "blocking.dedup_ratio",
            counts.distinct as f64 / redundant.max(1) as f64,
        );
        report.layer(
            "blocking.merge_pairs_per_s",
            redundant as f64 / gamma_median,
        );
        report.layer("trace.spans", tracer.spans().len() as f64);
        let traced_total = median(&tracer.durations_of("pipeline"));
        let untraced = median(&untraced_total);
        report.layer(
            "trace.overhead_pct",
            if untraced > 0.0 {
                (traced_total - untraced) / untraced * 100.0
            } else {
                0.0
            },
        );
        tracer.write_jsonl(
            &config
                .out_dir
                .join(format!("pipeline_voter-seed{}-spans.jsonl", config.seed)),
        )?;
    }
    Ok(report)
}

/// Calls each signature stage's public function over the whole roll, with
/// the blocker's worker count, one span per stage. `block_s` minus these is
/// the bucket phase (bucket maps, semantic sub-blocks, block assembly).
fn decompose(
    tracer: &mut Tracer,
    dataset: &Dataset,
    report: &mut Report,
) -> Result<(), Box<dyn Error>> {
    let blocker = voter_salsh(ROWS_PER_BAND, BANDS, VOTER_SEMANTIC_BITS, SemanticMode::Or)?;
    let semantic = blocker
        .semantic_config()
        .ok_or("the voter blocker is semantic")?;
    let shingler = RecordShingler::new(VOTER_BLOCKING_ATTRIBUTES, blocker.minhash_config().qgram)?;
    let hasher = MinHasher::from_config(blocker.minhash_config());
    let banding = BandingScheme::new(BANDS, ROWS_PER_BAND)?;
    let threads = resolve_threads(None, dataset.len());
    let records = dataset.records();

    let root = tracer.begin("block.stages", None, 0);
    let shingles = tracer.time("minhash.shingle", root, 0, || {
        parallel_map(records, threads, |r| shingler.shingles(r))
    });
    let signatures = tracer.time("minhash.signature", root, 0, || {
        parallel_map(&shingles, threads, |s| hasher.signature(s))
    });
    let interpretations = tracer.time("semantic.interpret", root, 0, || {
        parallel_map(records, threads, |r| semantic.function.interpret(r))
    });
    let family = SemhashFamily::build(&semantic.taxonomy, interpretations.iter())?;
    let semhash = tracer.time("semhash.signature", root, 0, || {
        parallel_map(&interpretations, threads, |i| {
            family.signature(&semantic.taxonomy, i)
        })
    });
    let keys = tracer.time("lsh.band_keys", root, 0, || {
        parallel_map(&signatures, threads, |s| banding.band_keys(s))
    });
    tracer.end(root);
    std::hint::black_box((&semhash, &keys));
    report.check(
        "stage outputs cover every record with one signature, semhash and l band keys",
        signatures.len() == records.len()
            && semhash.len() == records.len()
            && keys.iter().all(|band_keys| band_keys.len() == BANDS),
    );
    for (span, metric) in [
        ("minhash.shingle", "minhash.shingle_s"),
        ("minhash.signature", "minhash.signature_s"),
        ("semantic.interpret", "semantic.interpret_s"),
        ("semhash.signature", "semhash.signature_s"),
        ("lsh.band_keys", "lsh.band_keys_s"),
    ] {
        report.layer(metric, tracer.durations_of(span).iter().sum());
    }
    Ok(())
}
