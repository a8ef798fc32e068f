//! Micro-benchmark of incremental ingest vs from-scratch rebuild: the
//! operational question behind the streaming-ingest subsystem is "what does
//! absorbing one batch cost, against re-blocking everything?". The bench
//! pre-loads an incremental SA-LSH index with all but the final batch, then
//! measures (a) inserting that batch — cloning the pre-loaded index per
//! iteration, so the clone cost is reported separately as a baseline — and
//! (b) one-shot blocking of the full dataset, which is what a non-
//! incremental deployment would re-run per batch.
//!
//! A second group pits the O(1) running-counter metrics read against the
//! O(corpus) snapshot re-count it replaces, and measures the removal path
//! (back-reference walk + counter subtraction + threshold compaction).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use sablock_core::blocking::{Blocker, EntityTableProbe};
use sablock_core::incremental::IncrementalBlocker;
use sablock_core::lsh::semantic_hash::SemanticMode;
use sablock_datasets::{Record, RecordId};
use sablock_eval::experiments::{voter_dataset_of_size, voter_salsh, VOTER_SEMANTIC_BITS};

const DATASET_RECORDS: usize = 4_096;
const BATCH_RECORDS: usize = 256;

fn bench(c: &mut Criterion) {
    let dataset = voter_dataset_of_size(DATASET_RECORDS).expect("voter dataset");
    let blocker = voter_salsh(9, 15, VOTER_SEMANTIC_BITS, SemanticMode::Or).expect("salsh blocker");

    // Pre-load everything but the last batch.
    let split = DATASET_RECORDS - BATCH_RECORDS;
    let (prefix, batch): (&[Record], &[Record]) = dataset.records().split_at(split);
    let mut preloaded = blocker.clone().into_incremental().expect("incremental blocker");
    preloaded.insert_batch(prefix).expect("pre-load ingest");

    let mut group = c.benchmark_group("incremental/insert_vs_rebuild");
    group.sample_size(10);
    group.bench_function(format!("clone_index_{split}r"), |b| {
        b.iter(|| black_box(preloaded.clone()))
    });
    group.bench_function(format!("insert_batch_{BATCH_RECORDS}r_into_{split}r"), |b| {
        b.iter(|| {
            let mut index = preloaded.clone();
            let delta = index.insert_batch(black_box(batch)).expect("insert");
            black_box(delta.num_pairs())
        })
    });
    group.bench_function(format!("rebuild_block_{DATASET_RECORDS}r"), |b| {
        b.iter(|| {
            let blocks = blocker.block(black_box(&dataset)).expect("rebuild");
            black_box(blocks.num_blocks())
        })
    });
    group.finish();

    // Running-counter metrics (O(1)) vs a full snapshot re-count (O(corpus)),
    // plus the removal path, on a fully-loaded annotated index.
    let truth = dataset.ground_truth();
    let mut loaded = blocker.into_incremental().expect("incremental blocker");
    let mut offset = 0usize;
    for chunk in dataset.records().chunks(512) {
        loaded
            .insert_batch_with_entities(chunk, &truth.entity_table()[offset..offset + chunk.len()])
            .expect("annotated ingest");
        offset += chunk.len();
    }

    let mut group = c.benchmark_group("incremental/metrics_and_removal");
    group.sample_size(10);
    group.bench_function(format!("running_counts_read_{DATASET_RECORDS}r"), |b| {
        b.iter(|| black_box(loaded.running_counts()))
    });
    group.bench_function(format!("snapshot_recount_{DATASET_RECORDS}r"), |b| {
        b.iter(|| {
            let counts = loaded
                .snapshot()
                .stream_packed_counts(EntityTableProbe::new(loaded.entity_table()));
            black_box(counts.distinct)
        })
    });
    group.bench_function(format!("remove_one_record_from_{DATASET_RECORDS}r"), |b| {
        b.iter(|| {
            let mut index = loaded.clone();
            black_box(index.remove(black_box(RecordId(7))).expect("remove"))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
