//! The LSH and SA-LSH blockers (paper §5.2, Fig. 4).
//!
//! [`SaLshBlocker`] implements the full pipeline of Fig. 4(a):
//!
//! 1. **Shingling + minhashing** — each record's selected attributes are
//!    q-gram shingled and minhashed into an `l · k` signature.
//! 2. **Banding** — the signature is split into `l` bands of `k` rows; each
//!    band hashes the record into a bucket (plain LSH blocking would stop
//!    here and emit every bucket as a block).
//! 3. **Semantic augmentation** — when a [`SemanticConfig`] is present, each
//!    band is additionally equipped with an independently drawn w-way AND/OR
//!    semantic hash function over the records' semhash signatures; a textual
//!    bucket is split into the sub-blocks induced by that function, so two
//!    records end up in a common block iff they collide textually *and* the
//!    semantic predicate holds for the pair — exactly the collision model
//!    `1 − (1 − s^k · p)^l` of §5.2.
//!
//! Omitting the semantic component yields the plain textual LSH blocker used
//! as the "LSH" comparison point throughout the paper's evaluation
//! ([`LshBlocker`] is an alias for that configuration).
//!
//! One crate-private placement kernel (`Placer`) maps records to their
//! `(band, bucket, sub-key)` cells for every path that places records: the
//! one-shot [`SaLshBlocker::block`](crate::blocking::Blocker::block), the
//! incremental ingest of [`crate::incremental`] and its query probe. It
//! computes a batch's signatures once, per record in parallel, and returns
//! one band's placements sorted by cell; one-shot blocking shards the bands
//! over the workers and turns each cell holding two or more records into a
//! block, stitching the bands back in ascending order. Every phase stitches
//! results in a fixed order, so blocking output is byte-identical for any
//! worker count — a property `tests/determinism.rs` enforces by diffing
//! 1-thread and 4-thread runs.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sablock_datasets::{Dataset, Record, RecordId};

use crate::blocking::{Block, BlockCollection, Blocker};
use crate::error::Result;
use crate::lsh::semantic_hash::WWaySemanticHash;
use crate::lsh::{BandingScheme, SemanticConfig};
use crate::minhash::shingle::RecordShingler;
use crate::minhash::{MinHasher, MinhashConfig, MinhashSignature};
use crate::parallel::{parallel_map, resolve_threads};
use crate::semantic::semhash::{SemanticSignature, SemhashFamily};
use crate::semantic::Interpretation;
use crate::taxonomy::TaxonomyTree;

/// The semantic-aware LSH blocker (and, without a semantic component, the
/// plain textual LSH blocker).
#[derive(Debug, Clone)]
pub struct SaLshBlocker {
    shingler: RecordShingler,
    minhash: MinhashConfig,
    banding: BandingScheme,
    semantic: Option<SemanticConfig>,
    threads: Option<usize>,
}

/// The paper's plain textual LSH blocker: an [`SaLshBlocker`] without a
/// semantic component (build one via [`SaLshBlocker::builder`] by simply not
/// calling `semantic`).
pub type LshBlocker = SaLshBlocker;

impl SaLshBlocker {
    /// Starts a builder.
    pub fn builder() -> SaLshBlockerBuilder {
        SaLshBlockerBuilder::default()
    }

    /// Convenience constructor for a textual-only LSH blocker.
    pub fn textual<I, S>(attributes: I, minhash: MinhashConfig) -> Result<Self>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self::builder().attributes(attributes).minhash(minhash).build()
    }

    /// The minhash configuration in use.
    pub fn minhash_config(&self) -> &MinhashConfig {
        &self.minhash
    }

    /// The semantic configuration, if any.
    pub fn semantic_config(&self) -> Option<&SemanticConfig> {
        self.semantic.as_ref()
    }

    /// Whether this blocker uses semantic augmentation (SA-LSH) or not (LSH).
    pub fn is_semantic(&self) -> bool {
        self.semantic.is_some()
    }

    fn threads_for(&self, dataset: &Dataset) -> usize {
        resolve_threads(self.threads, dataset.len())
    }

    /// Converts this blocker into an incremental (online) index for
    /// streaming ingest — see [`crate::incremental`]. The configuration
    /// (attributes, minhash, banding, semantic component, thread knob) is
    /// carried over unchanged. For SA-LSH the semhash family is pinned for
    /// the index's lifetime: the explicitly pinned one when
    /// [`SemanticConfig::with_pinned_family`] was used, all taxonomy leaves
    /// otherwise. The index maintains running `|Γ|`/`|Γ_tp|` counters in
    /// O(delta) per batch (O(1) snapshot metrics) and compacts tombstoned
    /// bucket members in place once a bucket's dead fraction crosses
    /// [`crate::incremental::DEFAULT_COMPACTION_THRESHOLD`].
    pub fn into_incremental(self) -> Result<crate::incremental::IncrementalSaLshBlocker> {
        let placer =
            Placer::new(self.shingler, &self.minhash, self.banding, self.semantic, SemhashFamily::from_all_leaves)?;
        Ok(crate::incremental::IncrementalSaLshBlocker::new(placer, self.threads))
    }
}

impl Blocker for SaLshBlocker {
    fn name(&self) -> String {
        let base = format!(
            "k={},l={},q={}",
            self.minhash.rows_per_band, self.minhash.bands, self.minhash.qgram
        );
        match &self.semantic {
            Some(semantic) => format!("SA-LSH({base},{})", semantic.describe()),
            None => format!("LSH({base})"),
        }
    }

    fn block(&self, dataset: &Dataset) -> Result<BlockCollection> {
        self.shingler.validate_against(dataset)?;
        let threads = self.threads_for(dataset);
        let records = dataset.records();

        // Algorithm 1: unless a family is pinned, the semhash family is the
        // set of leaves under this dataset's interpretations.
        let interpretations = self
            .semantic
            .as_ref()
            .map(|semantic| parallel_map(records, threads, |record| semantic.function.interpret(record)));
        let placer = Placer::new(self.shingler.clone(), &self.minhash, self.banding, self.semantic.clone(), |taxonomy| {
            SemhashFamily::build(taxonomy, interpretations.iter().flatten())
        })?;
        let batch = placer.signatures(records, interpretations, threads);

        // Each band's cells are independent of every other band's, so the
        // bands shard over the workers and are stitched back in ascending
        // band order: the output is byte-identical for any worker count.
        let bands: Vec<usize> = (0..self.banding.bands()).collect();
        let per_band: Vec<Vec<Block>> = parallel_map(&bands, threads, |&band| {
            key_groups(&placer.place(&batch, band))
                .filter(|cell| cell.len() >= 2)
                .map(|cell| Block::new(placer.block_key(band, cell[0].0), cell.iter().map(|&(_, id)| id).collect()))
                .collect()
        });
        BlockCollection::try_from_blocks(per_band.into_iter().flatten().collect())
    }
}

/// One record placed in one cell of a band: `((textual bucket key, semantic
/// sub-key), record)`. Plain LSH places every record under sub-key 0.
pub(crate) type Placement = ((u64, u64), RecordId);

/// Splits cell-sorted placements into the runs that share one cell.
pub(crate) fn key_groups(placements: &[Placement]) -> impl Iterator<Item = &[Placement]> {
    let mut rest = placements;
    std::iter::from_fn(move || {
        let &(key, _) = rest.first()?;
        let (group, tail) = rest.split_at(rest.iter().take_while(|placement| placement.0 == key).count());
        rest = tail;
        Some(group)
    })
}

/// The semantic half of the kernel: the semhash family and one w-way
/// semantic hash function per band, drawn from `config.seed`.
#[derive(Debug, Clone)]
pub(crate) struct SemanticBands {
    pub(crate) config: SemanticConfig,
    pub(crate) family: SemhashFamily,
    band_hashes: Vec<WWaySemanticHash>,
}

/// A batch's signatures, computed once and read by every band.
pub(crate) struct Signatures {
    ids: Vec<RecordId>,
    /// `None` for a record without text: it carries no textual evidence and
    /// is never placed (text-free records would otherwise all collide on the
    /// all-sentinel signature).
    minhash: Vec<Option<MinhashSignature>>,
    /// One per record under SA-LSH, empty under plain LSH.
    semhash: Vec<SemanticSignature>,
}

/// The SA-LSH placement kernel (paper §5.2, Fig. 4): shingle → minhash →
/// band key, then the band's w-way semantic sub-keys. A record lands in
/// every `(band, bucket, sub-key)` cell this function picks for it; two
/// records share a block iff they share a cell.
#[derive(Debug, Clone)]
pub(crate) struct Placer {
    pub(crate) shingler: RecordShingler,
    hasher: MinHasher,
    pub(crate) banding: BandingScheme,
    pub(crate) semantic: Option<SemanticBands>,
}

impl Placer {
    /// Builds the kernel. A semantic component that pins no family takes
    /// the one `unpinned` chooses from the taxonomy.
    pub(crate) fn new(
        shingler: RecordShingler,
        minhash: &MinhashConfig,
        banding: BandingScheme,
        semantic: Option<SemanticConfig>,
        unpinned: impl FnOnce(&TaxonomyTree) -> Result<SemhashFamily>,
    ) -> Result<Self> {
        let semantic = match semantic {
            Some(config) => {
                config.validate()?;
                let family = match &config.pinned_family {
                    Some(family) => family.clone(),
                    None => unpinned(&config.taxonomy)?,
                };
                let mut rng = StdRng::seed_from_u64(config.seed);
                let band_hashes = (0..banding.bands())
                    .map(|_| WWaySemanticHash::sample(family.len(), config.w, config.mode, &mut rng))
                    .collect::<Result<Vec<_>>>()?;
                Some(SemanticBands { config, family, band_hashes })
            }
            None => None,
        };
        Ok(Self { shingler, hasher: MinHasher::from_config(minhash), banding, semantic })
    }

    /// Shingles, minhashes, interprets and semhashes a batch, each stage a
    /// [`parallel_map`] over the records. `interpretations` are ζ of the
    /// records when the caller already has them (one-shot blocking derives
    /// its family from them); they are computed here otherwise.
    pub(crate) fn signatures(
        &self,
        records: &[Record],
        interpretations: Option<Vec<Interpretation>>,
        threads: usize,
    ) -> Signatures {
        let shingles = parallel_map(records, threads, |record| self.shingler.shingles(record));
        let minhash = parallel_map(&shingles, threads, |set| (!set.is_empty()).then(|| self.hasher.signature(set)));
        let semhash = match &self.semantic {
            Some(semantic) => {
                let interpretations = interpretations.unwrap_or_else(|| {
                    parallel_map(records, threads, |record| semantic.config.function.interpret(record))
                });
                parallel_map(&interpretations, threads, |interpretation| {
                    semantic.family.signature(&semantic.config.taxonomy, interpretation)
                })
            }
            None => Vec::new(),
        };
        Signatures { ids: records.iter().map(Record::id).collect(), minhash, semhash }
    }

    /// One band's placements of a batch, sorted by cell with ids ascending
    /// within a cell (batches arrive in id order and the sort key ends on
    /// the id).
    pub(crate) fn place(&self, batch: &Signatures, band: usize) -> Vec<Placement> {
        let mut placements: Vec<Placement> = Vec::with_capacity(batch.ids.len());
        for (offset, (&id, minhash)) in batch.ids.iter().zip(&batch.minhash).enumerate() {
            let Some(minhash) = minhash else {
                continue;
            };
            let bucket = self.banding.band_key(minhash, band);
            match &self.semantic {
                Some(semantic) => {
                    for sub in semantic.band_hashes[band].sub_keys(&batch.semhash[offset]) {
                        placements.push(((bucket, sub as u64), id)); // sablock-lint: allow(lossy-id-cast): usize sub-key index → u64 widens losslessly
                    }
                }
                None => placements.push(((bucket, 0), id)),
            }
        }
        placements.sort_unstable();
        placements
    }

    /// The block key of a cell: `b{band}:{bucket:016x}`, plus `:g{sub}`
    /// under SA-LSH.
    pub(crate) fn block_key(&self, band: usize, (bucket, sub): (u64, u64)) -> String {
        if self.semantic.is_some() {
            format!("b{band}:{bucket:016x}:g{sub}")
        } else {
            format!("b{band}:{bucket:016x}")
        }
    }
}

/// Builder for [`SaLshBlocker`].
#[derive(Debug, Clone, Default)]
pub struct SaLshBlockerBuilder {
    attributes: Vec<String>,
    minhash: MinhashConfig,
    semantic: Option<SemanticConfig>,
    threads: Option<usize>,
}

impl SaLshBlockerBuilder {
    /// Sets the attributes whose values are shingled for textual similarity.
    pub fn attributes<I, S>(mut self, attributes: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.attributes = attributes.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the whole minhash configuration at once.
    pub fn minhash(mut self, config: MinhashConfig) -> Self {
        self.minhash = config;
        self
    }

    /// Sets the q-gram size.
    pub fn qgram(mut self, q: usize) -> Self {
        self.minhash.qgram = q;
        self
    }

    /// Sets the number of bands (`l`).
    pub fn bands(mut self, l: usize) -> Self {
        self.minhash.bands = l;
        self
    }

    /// Sets the number of rows per band (`k`).
    pub fn rows_per_band(mut self, k: usize) -> Self {
        self.minhash.rows_per_band = k;
        self
    }

    /// Sets the minhash seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.minhash.seed = seed;
        self
    }

    /// Adds the semantic component, turning the blocker into SA-LSH.
    pub fn semantic(mut self, config: SemanticConfig) -> Self {
        self.semantic = Some(config);
        self
    }

    /// Pins the worker-thread count for the signature and bucket phases
    /// (clamped to at least 1). Without this, the blocker picks a count from
    /// the dataset size and the machine's parallelism. Output is identical
    /// for every thread count; the knob exists for benchmarking and for the
    /// determinism tests that compare 1-thread and 4-thread runs.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Builds the blocker and converts it straight into an incremental
    /// (online) index — the streaming-ingest counterpart of
    /// [`SaLshBlockerBuilder::build`].
    pub fn into_incremental(self) -> Result<crate::incremental::IncrementalSaLshBlocker> {
        self.build()?.into_incremental()
    }

    /// Builds the blocker, validating every component.
    pub fn build(self) -> Result<SaLshBlocker> {
        self.minhash.validate()?;
        if let Some(semantic) = &self.semantic {
            semantic.validate()?;
        }
        let shingler = RecordShingler::new(self.attributes, self.minhash.qgram)?;
        let banding = BandingScheme::new(self.minhash.bands, self.minhash.rows_per_band)?;
        Ok(SaLshBlocker {
            shingler,
            minhash: self.minhash,
            banding,
            semantic: self.semantic,
            threads: self.threads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsh::semantic_hash::SemanticMode;
    use crate::semantic::pattern::PatternSemanticFunction;
    use crate::taxonomy::bib::bibliographic_taxonomy;
    use sablock_datasets::dataset::DatasetBuilder;
    use sablock_datasets::ground_truth::EntityId;
    use sablock_datasets::{CoraConfig, CoraGenerator, Schema};

    /// The running example of Fig. 1, reduced to its essence: six records
    /// whose titles are all near-identical, three conference articles (r1, r2,
    /// r3), two technical reports (r4, r5) and one ambiguous record (r6).
    fn running_example() -> Dataset {
        let schema = Schema::shared(["title", "authors", "journal", "booktitle", "institution"]).unwrap();
        let mut builder = DatasetBuilder::new("fig1", schema);
        let rows: Vec<(&str, &str, Option<&str>, Option<&str>)> = vec![
            // (title, authors, booktitle, institution)
            ("The cascade-correlation learning architecture", "E. Fahlman and C. Lebiere", Some("nisps proceedings"), None),
            ("Cascade correlation learning architecture", "E. Fahlman & C. Lebiere", Some("neural information systems"), None),
            ("The cascade correlation learning architecture", "Fahlman and Lebiere", Some("proceedings on neural ntw"), None),
            ("The cascade corelation learning architecture", "Fahlman, S., & Lebiere, C.", None, Some("tr")),
            ("The cascade correlation learning architectures", "S. Fahlman, C. Lebiere", None, Some("technical report")),
            ("The cascade-correlation learn architecture", "Lebiere, C. and Fahlman, S.", None, None),
        ];
        for (i, (title, authors, booktitle, institution)) in rows.into_iter().enumerate() {
            builder
                .push_values(
                    vec![
                        Some(title.to_string()),
                        Some(authors.to_string()),
                        None,
                        booktitle.map(str::to_string),
                        institution.map(str::to_string),
                    ],
                    // r1, r2, r3, r6 cite the same paper; r4, r5 are the TR version.
                    if i == 3 || i == 4 { EntityId(1) } else { EntityId(0) },
                )
                .unwrap();
        }
        builder.build().unwrap()
    }

    fn lsh_blocker(bands: usize, rows: usize) -> SaLshBlocker {
        SaLshBlocker::builder()
            .attributes(["title", "authors"])
            .qgram(2)
            .bands(bands)
            .rows_per_band(rows)
            .seed(7)
            .build()
            .unwrap()
    }

    fn salsh_blocker(bands: usize, rows: usize, w: usize, mode: SemanticMode) -> SaLshBlocker {
        let tree = bibliographic_taxonomy();
        let zeta = PatternSemanticFunction::cora_default(&tree).unwrap();
        SaLshBlocker::builder()
            .attributes(["title", "authors"])
            .qgram(2)
            .bands(bands)
            .rows_per_band(rows)
            .seed(7)
            .semantic(SemanticConfig::new(tree, zeta).with_w(w).with_mode(mode).with_seed(11))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validation() {
        assert!(SaLshBlocker::builder().build().is_err(), "no attributes selected");
        assert!(SaLshBlocker::builder().attributes(["title"]).bands(0).build().is_err());
        assert!(SaLshBlocker::builder().attributes(["title"]).qgram(0).build().is_err());
        let tree = bibliographic_taxonomy();
        let zeta = PatternSemanticFunction::cora_default(&tree).unwrap();
        let bad_semantic = SemanticConfig::new(tree, zeta).with_w(0);
        assert!(SaLshBlocker::builder().attributes(["title"]).semantic(bad_semantic).build().is_err());

        let lsh = lsh_blocker(4, 2);
        assert!(!lsh.is_semantic());
        assert!(lsh.name().starts_with("LSH("));
        let sa = salsh_blocker(4, 2, 1, SemanticMode::Or);
        assert!(sa.is_semantic());
        assert!(sa.name().starts_with("SA-LSH("));
        assert!(sa.semantic_config().is_some());
        assert_eq!(sa.minhash_config().rows_per_band, 2);
    }

    #[test]
    fn unknown_attribute_fails_at_block_time() {
        let blocker = SaLshBlocker::builder().attributes(["no_such_attr"]).build().unwrap();
        let err = blocker.block(&running_example()).unwrap_err();
        assert!(err.to_string().contains("no_such_attr"));
    }

    #[test]
    fn textually_similar_records_are_blocked_together() {
        let dataset = running_example();
        let blocks = lsh_blocker(16, 2).block(&dataset).unwrap();
        assert!(blocks.num_blocks() > 0);
        // The near-identical titles of r1 and r2 must collide in some band.
        assert!(blocks.theta(RecordId(0), RecordId(1)));
        // Plain LSH also lumps the technical report r4 in with them: this is
        // the false candidate the semantic filter is designed to remove.
        assert!(blocks.theta(RecordId(0), RecordId(3)));
    }

    #[test]
    fn semantic_filter_removes_cross_type_pairs() {
        let dataset = running_example();
        let blocks = salsh_blocker(16, 2, 4, SemanticMode::Or).block(&dataset).unwrap();
        // Conference articles still pair up…
        assert!(blocks.theta(RecordId(0), RecordId(1)));
        assert!(blocks.theta(RecordId(0), RecordId(2)));
        // …and so do the two technical reports…
        assert!(blocks.theta(RecordId(3), RecordId(4)));
        // …but a proceedings record and a technical report have semantic
        // similarity 0 and must never share a block (Proposition 5.3 (1)).
        assert!(!blocks.theta(RecordId(0), RecordId(3)));
        assert!(!blocks.theta(RecordId(1), RecordId(4)));
        // The ambiguous record r6 (interpreted as "publication") is related to
        // both sides and may pair with either.
        assert!(blocks.theta(RecordId(0), RecordId(5)) || blocks.theta(RecordId(3), RecordId(5)));
    }

    #[test]
    fn salsh_produces_no_more_pairs_than_lsh() {
        let dataset = running_example();
        let lsh_pairs = lsh_blocker(16, 2).block(&dataset).unwrap().num_distinct_pairs();
        for (w, mode) in [(1, SemanticMode::Or), (2, SemanticMode::Or), (1, SemanticMode::And), (2, SemanticMode::And)] {
            let sa_pairs = salsh_blocker(16, 2, w, mode).block(&dataset).unwrap().num_distinct_pairs();
            assert!(
                sa_pairs <= lsh_pairs,
                "SA-LSH (w={w}, {mode:?}) produced {sa_pairs} pairs, more than LSH's {lsh_pairs}"
            );
        }
    }

    #[test]
    fn blocking_is_deterministic() {
        let dataset = running_example();
        let blocker = salsh_blocker(8, 2, 2, SemanticMode::Or);
        let a = blocker.block(&dataset).unwrap();
        let b = blocker.block(&dataset).unwrap();
        assert_eq!(a.num_blocks(), b.num_blocks());
        let pa = a.distinct_pairs();
        let pb = b.distinct_pairs();
        assert_eq!(pa, pb);
    }

    #[test]
    fn bucket_phase_is_thread_count_invariant() {
        // The sharded bucket phase must merge to byte-identical blocks no
        // matter how many workers built it.
        let dataset = running_example();
        for (w, mode) in [(0, SemanticMode::Or), (2, SemanticMode::Or), (2, SemanticMode::And)] {
            let build = |threads: usize| {
                let mut builder = SaLshBlocker::builder()
                    .attributes(["title", "authors"])
                    .qgram(2)
                    .bands(16)
                    .rows_per_band(2)
                    .seed(7)
                    .threads(threads);
                if w > 0 {
                    let tree = bibliographic_taxonomy();
                    let zeta = PatternSemanticFunction::cora_default(&tree).unwrap();
                    builder = builder.semantic(SemanticConfig::new(tree, zeta).with_w(w).with_mode(mode).with_seed(11));
                }
                builder.build().unwrap().block(&dataset).unwrap()
            };
            let single = build(1);
            let quad = build(4);
            assert_eq!(single.blocks(), quad.blocks(), "w={w} {mode:?}");
        }
    }

    #[test]
    fn identical_records_always_collide() {
        // Proposition 5.2 (1): textual similarity 1 ⇒ collision probability 1,
        // for any (k, l).
        let schema = Schema::shared(["title"]).unwrap();
        let mut builder = DatasetBuilder::new("dup", schema);
        builder.push_values(vec![Some("identical record text".into())], EntityId(0)).unwrap();
        builder.push_values(vec![Some("identical record text".into())], EntityId(0)).unwrap();
        builder.push_values(vec![Some("something totally different xyz".into())], EntityId(1)).unwrap();
        let dataset = builder.build().unwrap();
        let blocker = SaLshBlocker::builder().attributes(["title"]).qgram(3).bands(5).rows_per_band(6).build().unwrap();
        let blocks = blocker.block(&dataset).unwrap();
        assert!(blocks.theta(RecordId(0), RecordId(1)));
    }

    #[test]
    fn records_without_text_are_not_indexed() {
        let schema = Schema::shared(["title"]).unwrap();
        let mut builder = DatasetBuilder::new("empties", schema);
        builder.push_values(vec![None], EntityId(0)).unwrap();
        builder.push_values(vec![None], EntityId(0)).unwrap();
        builder.push_values(vec![Some("real text".into())], EntityId(1)).unwrap();
        let dataset = builder.build().unwrap();
        let blocker = SaLshBlocker::builder().attributes(["title"]).qgram(2).bands(4).rows_per_band(2).build().unwrap();
        let blocks = blocker.block(&dataset).unwrap();
        assert_eq!(blocks.num_distinct_pairs(), 0, "empty records must not form blocks");
    }

    #[test]
    fn works_on_a_generated_cora_dataset() {
        let dataset = CoraGenerator::new(CoraConfig { num_records: 150, ..CoraConfig::small() }).generate().unwrap();
        let tree = bibliographic_taxonomy();
        let zeta = PatternSemanticFunction::cora_default(&tree).unwrap();
        let blocker = SaLshBlocker::builder()
            .attributes(["title", "authors"])
            .qgram(4)
            .bands(20)
            .rows_per_band(4)
            .semantic(SemanticConfig::new(tree, zeta).with_w(2).with_mode(SemanticMode::Or))
            .build()
            .unwrap();
        let blocks = blocker.block(&dataset).unwrap();
        assert!(blocks.num_blocks() > 0);
        assert!(blocks.num_distinct_pairs() > 0);
        // Blocking must reduce the comparison space drastically.
        assert!(blocks.num_distinct_pairs() < dataset.num_total_pairs() / 2);
    }

    /// FNV-1a 64 over every block's key and members, in collection order.
    fn fingerprint(blocks: &BlockCollection) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut feed = |bytes: &[u8]| {
            for &byte in bytes {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for block in blocks.blocks() {
            feed(block.key().as_bytes());
            feed(&[0xff]);
            for member in block.members() {
                feed(&member.0.to_le_bytes());
            }
            feed(&[0xfe]);
        }
        hash
    }

    #[test]
    fn one_shot_output_is_pinned_on_the_quick_cora_roll() {
        // The Fig. 11/12 Cora operating points (k = 4, l = 63, q = 4, w = 5)
        // with data-derived semhash families; the values were recorded before
        // the three placement paths were merged into one kernel.
        let dataset = CoraGenerator::new(CoraConfig { num_records: 400, ..CoraConfig::default() }).generate().unwrap();
        let blocker = |mode: Option<SemanticMode>| {
            let mut builder = SaLshBlocker::builder()
                .attributes(["title", "authors"])
                .qgram(4)
                .rows_per_band(4)
                .bands(63)
                .seed(0xC04A);
            if let Some(mode) = mode {
                let tree = bibliographic_taxonomy();
                let zeta = PatternSemanticFunction::cora_default(&tree).unwrap();
                builder = builder.semantic(SemanticConfig::new(tree, zeta).with_w(5).with_mode(mode).with_seed(0x1212));
            }
            builder.build().unwrap()
        };
        for (name, mode, expected) in [
            ("LSH", None, 0x6b0b_aa34_79bf_1d78u64),
            ("SA-LSH OR", Some(SemanticMode::Or), 0xd900_9a9f_64f7_2295),
            ("SA-LSH AND", Some(SemanticMode::And), 0x94e7_e783_d36d_fd79),
        ] {
            let actual = fingerprint(&blocker(mode).block(&dataset).unwrap());
            assert!(actual == expected, "{name}: fingerprint {actual:#018x}, pinned {expected:#018x}");
        }
    }

    #[test]
    fn textual_convenience_constructor() {
        let blocker = SaLshBlocker::textual(["title"], MinhashConfig::cora_paper()).unwrap();
        assert!(!blocker.is_semantic());
        assert_eq!(blocker.minhash_config().bands, 63);
    }
}
