//! Read-only published views of an incremental index.
//!
//! [`IndexView`] is the reader half of a single-writer/many-reader split:
//! [`IncrementalSaLshBlocker::publish_view`] freezes the current index state
//! by cloning the `Arc` of every band sub-shard — no bucket is copied — and
//! the view then answers candidate lookups ([`IndexView::candidates`]) and
//! snapshots without ever touching the writer again. The writer's next
//! mutation copies only the sub-shards it writes to
//! ([`Arc::make_mut`](std::sync::Arc::make_mut)) instead of mutating the
//! shared ones. Views
//! are `Send + Sync` (the semantic function is `Send + Sync` by trait
//! bound), so a service layer can hand clones of one view to any number of
//! query threads, lock-free.
//!
//! # Query/one-shot equivalence
//!
//! [`IndexView::candidates`] places the probe record through the same
//! placement kernel as ingest and one-shot blocking — same shingler, same
//! minhash permutations, same pinned semhash family and per-band w-way
//! functions — and unions the live members of every cell the probe would
//! land in. The result is
//! therefore precisely the set of records one-shot
//! [`SaLshBlocker::block`](crate::lsh::salsh::SaLshBlocker::block) over
//! `corpus ∪ {probe}` would pair the probe with (property-tested in
//! `tests/service_equivalence.rs`): sharing a bucket with the probe is the
//! same predicate in both directions.

use sablock_datasets::ground_truth::EntityId;
use sablock_datasets::{Record, RecordId};
use sablock_textual::hashing::StableHashSet;

use crate::blocking::BlockCollection;
use crate::error::{CoreError, Result};
use crate::lsh::salsh::Placer;

use super::{snapshot_bands, BandIndex, IncrementalBlocker, IncrementalSaLshBlocker, RunningCounts};

/// An immutable view of an [`IncrementalSaLshBlocker`] frozen at a
/// publication point (see the module docs). Capturing or cloning a view
/// clones one `Arc` per band sub-shard and copies the per-record bookkeeping
/// vectors; the buckets themselves stay shared.
#[derive(Debug, Clone)]
pub struct IndexView {
    name: String,
    placer: Placer,
    bands: Vec<BandIndex>,
    removed: Vec<bool>,
    entity_of: Vec<EntityId>,
    running: RunningCounts,
    next_id: u32,
    removed_count: usize,
    compactions: u64,
}

impl IndexView {
    /// Freezes the blocker's current state (the implementation behind
    /// [`IncrementalSaLshBlocker::publish_view`]).
    pub(super) fn capture(blocker: &IncrementalSaLshBlocker) -> Self {
        Self {
            name: blocker.name(),
            placer: blocker.placer.clone(),
            bands: blocker.bands.clone(),
            removed: blocker.removed.clone(),
            entity_of: blocker.entity_of.clone(),
            running: blocker.running,
            next_id: blocker.next_id,
            removed_count: blocker.removed_count,
            compactions: blocker.compactions,
        }
    }

    /// The configuration fingerprint of the index this view was published
    /// from ([`IncrementalBlocker::name`] at publication time).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The candidate partners the probe record collides with in this view —
    /// union of the live members of every `(band, bucket, sub-key)` the
    /// probe's signatures select, sorted by id, deduplicated across bands,
    /// and with the probe's own id excluded (a record is never its own
    /// candidate). Equivalent to the probe's one-shot partner set; see the
    /// module docs.
    pub fn candidates(&self, record: &Record) -> Result<Vec<RecordId>> {
        probe_candidates(&self.placer, &self.bands, &self.removed, record)
    }

    /// The view's blocking as a [`BlockCollection`] — byte-identical to the
    /// blocker's [`IncrementalBlocker::snapshot`] at the publication point.
    pub fn snapshot(&self) -> BlockCollection {
        snapshot_bands(&self.placer, &self.bands, &self.removed)
    }

    /// The probe-side shingle set of a record under this view's shingler —
    /// what a service layer feeds a Jaccard scorer to rank candidates.
    pub fn shingle_set(&self, record: &Record) -> StableHashSet<u64> {
        self.placer.shingler.shingles(record)
    }

    /// Number of records ingested at the publication point (including
    /// tombstoned ones).
    pub fn num_records(&self) -> usize {
        self.next_id as usize
    }

    /// Number of live (non-removed) records at the publication point.
    pub fn num_live_records(&self) -> usize {
        self.next_id as usize - self.removed_count
    }

    /// Whether the id was ingested and not tombstoned at the publication
    /// point.
    pub fn is_live(&self, id: RecordId) -> bool {
        self.removed.get(id.index()).is_some_and(|&removed| !removed)
    }

    /// The id the next ingested record would have carried at the
    /// publication point — the id a not-yet-ingested probe record should use.
    pub fn next_record_id(&self) -> RecordId {
        RecordId(self.next_id)
    }

    /// The running `|Γ|` / `|Γ_tp|` counters at the publication point.
    pub fn running_counts(&self) -> RunningCounts {
        self.running
    }

    /// The entity annotations at the publication point (dense by record id;
    /// may be shorter than [`IndexView::num_records`]).
    pub fn entity_table(&self) -> &[EntityId] {
        &self.entity_of
    }

    /// Number of tombstoned records at the publication point.
    pub fn num_removed(&self) -> usize {
        self.removed_count
    }

    /// Number of bucket compactions the index had performed at the
    /// publication point (threshold-driven and forced).
    pub fn num_compactions(&self) -> u64 {
        self.compactions
    }
}

/// The shared probe-lookup implementation of [`IndexView::candidates`] and
/// [`IncrementalSaLshBlocker::query_candidates`]: places the probe through
/// the ingest kernel and unions the live bucket members of its cells.
pub(super) fn probe_candidates(
    placer: &Placer,
    bands: &[BandIndex],
    removed: &[bool],
    record: &Record,
) -> Result<Vec<RecordId>> {
    for attribute in placer.shingler.attributes() {
        if record.schema().index_of(attribute).is_none() {
            return Err(CoreError::Config(format!(
                "attribute '{attribute}' selected for blocking does not exist in the schema of the probe record"
            )));
        }
    }
    // A text-free probe gets no placements, so it collides with nothing —
    // exactly like the ingest path never indexing such records.
    let probe = placer.signatures(std::slice::from_ref(record), None, 1);
    let mut candidates: Vec<RecordId> = Vec::new();
    for (band_index, band) in bands.iter().enumerate() {
        for (key, _) in placer.place(&probe, band_index) {
            if let Some(bucket) = band.get(&key) {
                candidates.extend(
                    bucket
                        .members
                        .iter()
                        .copied()
                        .filter(|member| *member != record.id() && !removed[member.index()]),
                );
            }
        }
    }
    candidates.sort_unstable();
    candidates.dedup();
    Ok(candidates)
}

#[cfg(test)]
mod tests {
    use super::super::tests::{lsh_builder, salsh_pair, sample_dataset, titles_dataset};
    use super::*;
    use crate::blocking::Blocker;
    use sablock_datasets::Schema;

    /// The reference lookup: the partners one-shot blocking pairs a probe
    /// with are exactly the records sharing a block with it.
    fn one_shot_partners(blocks: &BlockCollection, probe: RecordId) -> Vec<RecordId> {
        let mut partners: Vec<RecordId> = Vec::new();
        for block in blocks.blocks() {
            if block.members().contains(&probe) {
                partners.extend(block.members().iter().copied().filter(|&id| id != probe));
            }
        }
        partners.sort_unstable();
        partners.dedup();
        partners
    }

    #[test]
    fn view_candidates_match_one_shot_partners() {
        let dataset = sample_dataset();
        let (one_shot, mut incremental) = salsh_pair();
        let corpus = &dataset.records()[..7];
        incremental.insert_batch(corpus).unwrap();
        let view = incremental.publish_view();
        let reference = one_shot.block(&dataset).unwrap();

        // Probe with the last record, re-identified as the next dense id so
        // it plays the role of a new arrival over the 7-record corpus.
        let probe_source = &dataset.records()[7];
        let probe = Record::new(
            view.next_record_id(),
            std::sync::Arc::clone(probe_source.schema()),
            probe_source.values().to_vec(),
        )
        .unwrap();
        let expected = one_shot_partners(&reference, RecordId(7));
        assert_eq!(view.candidates(&probe).unwrap(), expected);
        assert_eq!(incremental.query_candidates(&probe).unwrap(), expected);
        assert!(!expected.is_empty(), "the sample corpus collides with the probe");
        assert!(view.name().starts_with("Incremental-SA-LSH("));
    }

    #[test]
    fn views_are_frozen_at_the_publication_point() {
        let dataset = sample_dataset();
        let mut incremental = lsh_builder().into_incremental().unwrap();
        incremental.insert_batch(&dataset.records()[..4]).unwrap();
        let early = incremental.publish_view();
        let early_blocks = early.snapshot();

        incremental.insert_batch(&dataset.records()[4..]).unwrap();
        incremental.remove(RecordId(1)).unwrap();
        let late = incremental.publish_view();

        // The early view still renders the 4-record state, byte for byte,
        // even though the writer has since mutated (and compacted) shards.
        assert_eq!(early.snapshot().blocks(), early_blocks.blocks());
        assert_eq!(early.num_records(), 4);
        assert_eq!(early.num_live_records(), 4);
        assert!(early.is_live(RecordId(1)), "the early view predates the removal");
        assert!(!late.is_live(RecordId(1)));
        assert!(!late.is_live(RecordId(99)), "never-ingested ids are not live");
        assert_eq!(late.num_records(), dataset.len());
        assert_eq!(late.snapshot().blocks(), incremental.snapshot().blocks());
        assert_eq!(late.running_counts(), incremental.running_counts());
        assert_eq!(early.next_record_id(), RecordId(4));
    }

    /// Sub-shards the blocker no longer shares with the view.
    fn unshared(view: &IndexView, blocker: &IncrementalSaLshBlocker) -> usize {
        view.bands
            .iter()
            .zip(&blocker.bands)
            .flat_map(|(frozen, head)| frozen.shards.iter().zip(&head.shards))
            .filter(|(frozen, head)| !std::sync::Arc::ptr_eq(frozen, head))
            .count()
    }

    #[test]
    fn writes_copy_only_the_sub_shards_they_touch() {
        let dataset = sample_dataset();
        let (_, mut incremental) = salsh_pair();
        incremental.insert_batch(&dataset.records()[..7]).unwrap();
        let total: usize = incremental.bands.iter().map(|band| band.shards.len()).sum();

        // One insert: at most one copied sub-shard per (band, sub-key)
        // placement of the new record.
        let view = incremental.publish_view();
        incremental.insert_batch(&dataset.records()[7..]).unwrap();
        let placements = incremental.bucket_refs[7].len();
        let copied = unshared(&view, &incremental);
        assert!(placements > 0, "the new record is indexed");
        assert!((1..=placements).contains(&copied), "{copied} sub-shards copied for {placements} placements");
        assert!(copied < total / 16, "{copied} of {total} sub-shards copied");

        // One removal: at most the removed record's placements.
        let view = incremental.publish_view();
        let placements = incremental.bucket_refs[1].len();
        assert!(incremental.remove(RecordId(1)).unwrap());
        let copied = unshared(&view, &incremental);
        assert!((1..=placements).contains(&copied), "{copied} sub-shards copied for {placements} placements");

        // An empty batch and a repeated removal unshare nothing.
        let view = incremental.publish_view();
        incremental.insert_batch(&[]).unwrap();
        assert!(!incremental.remove(RecordId(1)).unwrap());
        assert_eq!(unshared(&view, &incremental), 0);
    }

    #[test]
    fn probe_validation_and_empty_probes() {
        let dataset = sample_dataset();
        let mut incremental = lsh_builder().into_incremental().unwrap();
        incremental.insert_batch(dataset.records()).unwrap();
        let view = incremental.publish_view();

        // A probe whose schema lacks the blocking attribute is rejected.
        let other = Schema::shared(["name"]).unwrap();
        let wrong = Record::new(RecordId(50), other, vec![Some("x".into())]).unwrap();
        assert!(view.candidates(&wrong).is_err());

        // A text-free probe collides with nothing.
        let empty = titles_dataset(&[""]);
        assert!(view.candidates(&empty.records()[0]).unwrap().is_empty());

        // Probing with an indexed record's own id excludes the record itself.
        let own = view.candidates(&dataset.records()[0]).unwrap();
        assert!(!own.contains(&RecordId(0)));
        assert_eq!(own, one_shot_partners(&view.snapshot(), RecordId(0)));

        // The view's shingle set matches the shingler's.
        assert!(!view.shingle_set(&dataset.records()[0]).is_empty());
        assert_eq!(view.entity_table().len(), 0, "unannotated ingest leaves the table empty");
    }
}
