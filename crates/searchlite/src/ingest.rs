//! Live ingestion: a mutable buffer in front of immutable segments.
//!
//! [`SegmentedIndex`] is the only mutable piece of the segmented
//! architecture. `add_document` feeds an in-memory [`IndexBuilder`]
//! buffer; [`SegmentedIndex::seal`] freezes the buffer into a new
//! [`Segment`] — existing segments are never touched — and bumps the
//! **segment-set epoch** exactly once (auto-merges triggered by the
//! seal ride the same bump, so downstream caches invalidate once per
//! seal, not once per merge). [`SegmentedIndex::searcher`] publishes an
//! immutable [`Searcher`] over the sealed segments; buffered documents
//! are invisible until sealed.
//!
//! The [`TieredMergePolicy`] is deterministic and order-preserving: it
//! only ever merges *adjacent* runs of segments whose sizes fall in the
//! same power-of-two tier, so global doc ids (segment base + local id)
//! never change, and the merged segment is byte-identical to the index
//! a monolithic builder would have produced over the same stream.

use std::sync::Arc;

use rustc_hash::FxHashSet;

use crate::analysis::Analyzer;
use crate::index::{DocId, Index, IndexBuilder};
use crate::searcher::Searcher;
use crate::segment::Segment;

/// Rejected ingestion. Mirrors [`crate::IndexBuildError`] but is checked
/// across the *whole* segmented corpus (sealed segments and the live
/// buffer), not just the current builder.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint:allow(persist-types-derive-serde) — ingest error, never persisted
pub enum IngestError {
    /// The external id already exists in a sealed segment or the buffer.
    DuplicateExternalId {
        /// The offending external id.
        external_id: String,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::DuplicateExternalId { external_id } => {
                write!(
                    f,
                    "external id `{external_id}` already exists in the segmented index"
                )
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Deterministic merge policy: whenever `merge_factor` *adjacent*
/// segments fall in the same size tier (`floor(log2(num_docs))`), they
/// are compacted into one segment; cascades until no such run exists.
/// Scanning is left-to-right and restarts after every merge, so the
/// result is a pure function of the seal sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// lint:allow(persist-types-derive-serde) — configuration, never persisted
pub struct TieredMergePolicy {
    /// How many same-tier adjacent segments trigger a merge (≥ 2).
    pub merge_factor: usize,
}

impl Default for TieredMergePolicy {
    fn default() -> Self {
        TieredMergePolicy { merge_factor: 4 }
    }
}

impl TieredMergePolicy {
    /// Size tier of a segment: `floor(log2(max(docs, 1)))`.
    fn tier(docs: usize) -> u32 {
        usize::BITS - 1 - docs.max(1).leading_zeros()
    }

    /// Applies the policy in place; returns the number of merge
    /// operations performed. `next_id` supplies fresh segment ids.
    fn apply(&self, segments: &mut Vec<Arc<Segment>>, next_id: &mut u64) -> usize {
        let factor = self.merge_factor.max(2);
        let mut merges = 0;
        'outer: loop {
            for start in 0..segments.len() {
                let end = start + factor;
                if end > segments.len() {
                    break;
                }
                let t = Self::tier(segments[start].num_docs());
                if segments[start + 1..end]
                    .iter()
                    .all(|s| Self::tier(s.num_docs()) == t)
                {
                    let merged = Segment::merge(*next_id, &segments[start..end]).expect(
                        "invariant: merging audited adjacent segments preserves index shape",
                    );
                    *next_id += 1;
                    segments.splice(start..end, std::iter::once(Arc::new(merged)));
                    merges += 1;
                    continue 'outer;
                }
            }
            return merges;
        }
    }
}

/// Outcome of a successful [`SegmentedIndex::seal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// lint:allow(persist-types-derive-serde) — transient report, never persisted
pub struct SealReport {
    /// Id of the newly sealed segment.
    pub segment_id: u64,
    /// Merge operations the seal triggered under the policy.
    pub merges: usize,
    /// The epoch the segment set moved to.
    pub epoch: u64,
}

/// A detached ingest buffer waiting to be built into a segment — the
/// output of [`SegmentedIndex::begin_seal`]. Holding one reserves a
/// segment id; the id is burnt (never reused) if the pending seal is
/// dropped without [`SegmentedIndex::commit_seal`].
///
/// The point of the three-phase `begin_seal` → [`PendingSeal::build`] →
/// `commit_seal` protocol is that the expensive build runs **without**
/// whatever lock guards the [`SegmentedIndex`]: a serving layer takes the
/// lock only for the cheap begin/commit phases, so queries and ingestion
/// are never stalled behind segment construction.
#[derive(Debug)]
// lint:allow(persist-types-derive-serde) — transient seal phase, never persisted
pub struct PendingSeal {
    builder: IndexBuilder,
    segment_id: u64,
    docs: usize,
}

impl PendingSeal {
    /// Builds the detached buffer into an immutable segment. This is the
    /// expensive phase — run it outside any lock guarding the index.
    pub fn build(self) -> BuiltSegment {
        let index = IndexBuilder::build(self.builder);
        #[cfg(all(debug_assertions, feature = "validate"))]
        {
            let audit = crate::audit::IndexAudit::run(&index);
            debug_assert!(audit.is_clean(), "sealed buffer failed audit: {audit:?}");
        }
        BuiltSegment {
            segment: Segment::new(self.segment_id, index),
            docs: self.docs,
        }
    }
}

/// An immutable segment built from a [`PendingSeal`], ready for
/// [`SegmentedIndex::commit_seal`].
#[derive(Debug)]
// lint:allow(persist-types-derive-serde) — transient seal phase, never persisted
pub struct BuiltSegment {
    segment: Segment,
    docs: usize,
}

/// A point-in-time snapshot of the segment set, detached for merging —
/// the output of [`SegmentedIndex::merge_task`]. Run the expensive
/// [`MergeTask::run_policy`] / [`MergeTask::run_full`] phase outside any
/// lock, then hand the [`MergeOutcome`] back to
/// [`SegmentedIndex::install_merge`].
#[derive(Debug)]
// lint:allow(persist-types-derive-serde) — transient merge phase, never persisted
pub struct MergeTask {
    segments: Vec<Arc<Segment>>,
    next_segment_id: u64,
    based_on_epoch: u64,
    policy: TieredMergePolicy,
}

impl MergeTask {
    /// Applies the tiered merge policy to the snapshot. `merges` may be
    /// zero (no same-tier run existed); installing a zero-merge outcome
    /// is a no-op.
    pub fn run_policy(mut self) -> MergeOutcome {
        let merges = self
            .policy
            .apply(&mut self.segments, &mut self.next_segment_id);
        MergeOutcome {
            segments: self.segments,
            next_segment_id: self.next_segment_id,
            based_on_epoch: self.based_on_epoch,
            merges,
            bump_epoch: false,
        }
    }

    /// Compacts the whole snapshot into one segment. Returns `None` when
    /// there is nothing to merge (fewer than two segments). The outcome
    /// bumps the epoch on install, mirroring the
    /// [`SegmentedIndex::force_merge`] contract.
    pub fn run_full(mut self) -> Option<MergeOutcome> {
        if self.segments.len() < 2 {
            return None;
        }
        let merged = Segment::merge(self.next_segment_id, &self.segments)
            .expect("invariant: merging audited adjacent segments preserves index shape");
        self.next_segment_id += 1;
        self.segments.clear();
        self.segments.push(Arc::new(merged));
        Some(MergeOutcome {
            segments: self.segments,
            next_segment_id: self.next_segment_id,
            based_on_epoch: self.based_on_epoch,
            merges: 1,
            bump_epoch: true,
        })
    }
}

/// A merged segment set produced by a [`MergeTask`], tagged with the
/// epoch it was based on so a stale outcome is rejected instead of
/// clobbering newer seals.
#[derive(Debug)]
// lint:allow(persist-types-derive-serde) — transient merge phase, never persisted
pub struct MergeOutcome {
    segments: Vec<Arc<Segment>>,
    next_segment_id: u64,
    based_on_epoch: u64,
    merges: usize,
    bump_epoch: bool,
}

/// A growing corpus: immutable sealed segments plus one mutable buffer.
#[derive(Debug)]
// lint:allow(persist-types-derive-serde) — persisted per-segment via sqe-store
pub struct SegmentedIndex {
    analyzer: Analyzer,
    segments: Vec<Arc<Segment>>,
    buffer: IndexBuilder,
    /// External ids across sealed segments *and* the buffer.
    seen: FxHashSet<String>,
    /// Documents detached into a [`PendingSeal`] that has not committed
    /// yet. They occupy the global doc-id range right after the sealed
    /// docs, so ids handed out by [`SegmentedIndex::add_document`] during
    /// an out-of-lock build stay correct.
    pending_docs: usize,
    next_segment_id: u64,
    epoch: u64,
    policy: TieredMergePolicy,
}

impl SegmentedIndex {
    /// An empty corpus with the default merge policy.
    pub fn new(analyzer: Analyzer) -> SegmentedIndex {
        SegmentedIndex::with_policy(analyzer, TieredMergePolicy::default())
    }

    /// An empty corpus with an explicit merge policy.
    pub fn with_policy(analyzer: Analyzer, policy: TieredMergePolicy) -> SegmentedIndex {
        let buffer = IndexBuilder::new(analyzer.clone());
        SegmentedIndex {
            analyzer,
            segments: Vec::new(),
            buffer,
            seen: FxHashSet::default(),
            pending_docs: 0,
            next_segment_id: 0,
            epoch: 0,
            policy,
        }
    }

    /// Wraps an existing monolithic index as segment 0 at epoch 0 —
    /// the migration path for callers that build an [`Index`] up front
    /// and want live ingestion afterwards.
    pub fn from_index(index: Index) -> SegmentedIndex {
        let mut s = SegmentedIndex::new(index.analyzer().clone());
        s.seen.extend(index.external_ids().iter().cloned());
        if index.num_docs() > 0 {
            s.segments.push(Arc::new(Segment::new(0, index)));
            s.next_segment_id = 1;
        }
        s
    }

    /// Wraps already-sealed segments (e.g. decoded from a snapshot) at
    /// epoch 0 — the cold-start path for a segmented snapshot. Segment
    /// order is preserved; ids keep counting past the largest existing id.
    pub fn from_segments(analyzer: Analyzer, segments: Vec<Arc<Segment>>) -> SegmentedIndex {
        let mut s = SegmentedIndex::new(analyzer);
        for seg in &segments {
            s.seen.extend(seg.index().external_ids().iter().cloned());
        }
        s.next_segment_id = segments.iter().map(|g| g.id() + 1).max().unwrap_or(0);
        s.segments = segments;
        s
    }

    /// The analyzer every segment and the buffer share.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// Current segment-set epoch; bumps exactly once per successful
    /// [`SegmentedIndex::seal`] or effective [`SegmentedIndex::force_merge`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of sealed segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Documents in sealed segments (visible to searchers).
    pub fn num_sealed_docs(&self) -> usize {
        self.segments.iter().map(|s| s.num_docs()).sum()
    }

    /// Documents waiting in the buffer or detached in an uncommitted
    /// [`PendingSeal`] (invisible until sealed/committed).
    pub fn num_buffered_docs(&self) -> usize {
        self.buffer.num_docs() + self.pending_docs
    }

    /// True when `external_id` already exists anywhere in this corpus —
    /// sealed segments, pending seals and the live buffer alike. Sharded
    /// deployments route each id to one shard, but a re-routed id (for
    /// example after a shard-count change) could land on a different
    /// shard than its original copy; this probe lets the shard layer
    /// extend the duplicate check across every sibling corpus.
    pub fn contains_external_id(&self, external_id: &str) -> bool {
        self.seen.contains(external_id)
    }

    /// Adds a document to the live buffer; returns the **global** doc id
    /// it will occupy once sealed. Duplicate external ids are rejected
    /// against the entire corpus, sealed and buffered alike.
    pub fn add_document(&mut self, external_id: &str, text: &str) -> Result<DocId, IngestError> {
        if !self.seen.insert(external_id.to_owned()) {
            return Err(IngestError::DuplicateExternalId {
                external_id: external_id.to_owned(),
            });
        }
        let sealed = u32::try_from(self.num_sealed_docs() + self.pending_docs)
            .expect("invariant: doc count fits in u32 ids");
        let local = self
            .buffer
            .add_document(external_id, text)
            .expect("invariant: corpus-wide seen set subsumes the buffer's duplicate check");
        Ok(DocId(sealed + local.0))
    }

    /// Detaches the ingest buffer for an out-of-lock build, reserving a
    /// segment id. Returns `None` when the buffer is empty. Cheap: no
    /// index construction happens here. New documents keep arriving in a
    /// fresh buffer and are assigned ids *after* the detached docs.
    pub fn begin_seal(&mut self) -> Option<PendingSeal> {
        let docs = self.buffer.num_docs();
        if docs == 0 {
            return None;
        }
        let builder = std::mem::replace(&mut self.buffer, IndexBuilder::new(self.analyzer.clone()));
        let segment_id = self.next_segment_id;
        self.next_segment_id += 1;
        self.pending_docs += docs;
        Some(PendingSeal {
            builder,
            segment_id,
            docs,
        })
    }

    /// Appends a segment built from [`PendingSeal::build`] and bumps the
    /// epoch once. Cheap: the expensive build already happened. The merge
    /// policy is *not* applied here — follow up with
    /// [`SegmentedIndex::merge_task`] / [`SegmentedIndex::install_merge`]
    /// (or use the all-in-one [`SegmentedIndex::seal`]).
    pub fn commit_seal(&mut self, built: BuiltSegment) -> SealReport {
        let segment_id = built.segment.id();
        self.pending_docs -= built.docs;
        self.segments.push(Arc::new(built.segment));
        self.epoch += 1;
        SealReport {
            segment_id,
            merges: 0,
            epoch: self.epoch,
        }
    }

    /// Snapshots the segment set for an out-of-lock merge. Cheap: clones
    /// `Arc`s only.
    pub fn merge_task(&self) -> MergeTask {
        MergeTask {
            segments: self.segments.clone(),
            next_segment_id: self.next_segment_id,
            based_on_epoch: self.epoch,
            policy: self.policy,
        }
    }

    /// Installs a merge outcome, returning how many merge operations it
    /// carried. Returns `None` (discarding the outcome) when the epoch
    /// moved since [`SegmentedIndex::merge_task`] — the segment set the
    /// merge was computed from no longer exists, and merges are an
    /// optimisation that can always be redone later. Policy merges keep
    /// the epoch (they ride the seal that triggered them); a
    /// [`MergeTask::run_full`] outcome bumps it.
    pub fn install_merge(&mut self, outcome: MergeOutcome) -> Option<usize> {
        if outcome.based_on_epoch != self.epoch {
            return None;
        }
        if outcome.merges > 0 {
            self.segments = outcome.segments;
            self.next_segment_id = outcome.next_segment_id;
            if outcome.bump_epoch {
                self.epoch += 1;
            }
        }
        Some(outcome.merges)
    }

    /// Seals the buffer into a new immutable segment, applies the merge
    /// policy, and bumps the epoch once. Returns `None` (and leaves the
    /// epoch untouched) when the buffer is empty. Synchronous convenience
    /// over the `begin_seal` → `build` → `commit_seal` → merge phases.
    pub fn seal(&mut self) -> Option<SealReport> {
        let pending = self.begin_seal()?;
        // lint:allow(must-audit-after-mutation) — IndexAudit runs inside PendingSeal::build
        let built = pending.build();
        let mut report = self.commit_seal(built);
        let outcome = self.merge_task().run_policy();
        report.merges = self
            .install_merge(outcome)
            .expect("invariant: no interleaved epoch bump through &mut self");
        Some(report)
    }

    /// Compacts every sealed segment into one. Returns `true` (with one
    /// epoch bump) if the segment set changed. Buffered docs stay put.
    pub fn force_merge(&mut self) -> bool {
        let Some(outcome) = self.merge_task().run_full() else {
            return false;
        };
        self.install_merge(outcome)
            .expect("invariant: no interleaved epoch bump through &mut self");
        true
    }

    /// Publishes an immutable view over the sealed segments at the
    /// current epoch.
    pub fn searcher(&self) -> Searcher {
        Searcher::new(self.analyzer.clone(), self.segments.clone(), self.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs(n: usize) -> Vec<(String, String)> {
        (0..n)
            .map(|i| {
                (
                    format!("doc{i}"),
                    format!("cable car number {i} climbs hill {}", i % 3),
                )
            })
            .collect()
    }

    fn monolithic(all: &[(String, String)]) -> Index {
        let mut b = IndexBuilder::new(Analyzer::plain());
        for (id, text) in all {
            b.add_document(id, text).expect("unique test ids");
        }
        b.build()
    }

    #[test]
    fn duplicate_ids_rejected_across_seals() {
        let mut s = SegmentedIndex::new(Analyzer::plain());
        s.add_document("a", "one").expect("fresh id");
        s.seal().expect("non-empty buffer seals");
        let err = s.add_document("a", "two").unwrap_err();
        assert_eq!(
            err,
            IngestError::DuplicateExternalId {
                external_id: "a".to_owned()
            }
        );
        // Buffer-level duplicates too.
        s.add_document("b", "three").expect("fresh id");
        assert!(s.add_document("b", "four").is_err());
    }

    #[test]
    fn seal_bumps_epoch_exactly_once_and_empty_seal_is_noop() {
        let mut s = SegmentedIndex::new(Analyzer::plain());
        assert_eq!(s.epoch(), 0);
        assert!(s.seal().is_none(), "empty buffer must not seal");
        assert_eq!(s.epoch(), 0);
        s.add_document("a", "cable car").expect("fresh id");
        let r = s.seal().expect("non-empty buffer seals");
        assert_eq!((r.epoch, s.epoch()), (1, 1));
        assert!(s.seal().is_none());
        assert_eq!(s.epoch(), 1, "no-op seal must not bump the epoch");
    }

    #[test]
    fn global_doc_ids_are_assigned_in_ingest_order() {
        let mut s = SegmentedIndex::new(Analyzer::plain());
        assert_eq!(s.add_document("a", "x").expect("fresh"), DocId(0));
        assert_eq!(s.add_document("b", "y").expect("fresh"), DocId(1));
        s.seal().expect("seals");
        assert_eq!(s.add_document("c", "z").expect("fresh"), DocId(2));
        s.seal().expect("seals");
        let view = s.searcher();
        assert_eq!(view.external_id(DocId(2)), "c");
    }

    #[test]
    fn buffered_docs_invisible_until_sealed() {
        let mut s = SegmentedIndex::new(Analyzer::plain());
        s.add_document("a", "cable").expect("fresh");
        assert_eq!(s.searcher().num_docs(), 0);
        s.seal().expect("seals");
        assert_eq!(s.searcher().num_docs(), 1);
    }

    #[test]
    fn tiered_policy_merges_same_tier_runs_deterministically() {
        let policy = TieredMergePolicy { merge_factor: 2 };
        let mut s = SegmentedIndex::with_policy(Analyzer::plain(), policy);
        let all = docs(4);
        // Seal four 1-doc segments: each pair merges, then the pair of
        // merged 2-doc segments merges again — cascading to 1 segment.
        for (i, (id, text)) in all.iter().enumerate() {
            s.add_document(id, text).expect("fresh");
            let r = s.seal().expect("seals");
            if i % 2 == 1 {
                assert!(r.merges >= 1, "seal {i} should trigger a merge");
            }
        }
        assert_eq!(s.num_segments(), 1);
        assert_eq!(
            s.searcher().segments()[0].index().to_json().expect("json"),
            monolithic(&all).to_json().expect("json"),
            "cascaded merges must reproduce the monolithic index"
        );
    }

    #[test]
    fn force_merge_compacts_to_monolithic() {
        // Large merge factor => no auto merges; then force.
        let mut s =
            SegmentedIndex::with_policy(Analyzer::plain(), TieredMergePolicy { merge_factor: 64 });
        let all = docs(5);
        for (id, text) in &all {
            s.add_document(id, text).expect("fresh");
            s.seal().expect("seals");
        }
        assert_eq!(s.num_segments(), 5);
        let before = s.epoch();
        assert!(s.force_merge());
        assert_eq!(s.epoch(), before + 1);
        assert_eq!(s.num_segments(), 1);
        assert!(!s.force_merge(), "single segment: nothing to merge");
        assert_eq!(s.epoch(), before + 1);
        assert_eq!(
            s.searcher().segments()[0].index().to_json().expect("json"),
            monolithic(&all).to_json().expect("json")
        );
    }

    #[test]
    fn phased_seal_assigns_ids_across_pending_build() {
        let mut s = SegmentedIndex::new(Analyzer::plain());
        assert_eq!(s.add_document("a", "x").expect("fresh"), DocId(0));
        let pending = s.begin_seal().expect("non-empty buffer detaches");
        // Docs arriving while the detached build runs (out of lock in a
        // serving layer) must slot in after the pending docs.
        assert_eq!(s.add_document("b", "y").expect("fresh"), DocId(1));
        assert_eq!(s.num_buffered_docs(), 2, "pending + fresh buffer");
        let report = s.commit_seal(pending.build());
        assert_eq!((report.epoch, report.merges), (1, 0));
        assert_eq!(s.num_buffered_docs(), 1, "pending docs committed");
        assert_eq!(s.searcher().external_id(DocId(0)), "a");
        s.seal().expect("seals the fresh buffer");
        assert_eq!(s.searcher().external_id(DocId(1)), "b");
    }

    #[test]
    fn stale_merge_outcome_is_discarded() {
        let mut s =
            SegmentedIndex::with_policy(Analyzer::plain(), TieredMergePolicy { merge_factor: 64 });
        for (id, text) in &docs(3) {
            s.add_document(id, text).expect("fresh");
            s.seal().expect("seals");
        }
        let task = s.merge_task();
        // Epoch moves under the snapshot: the outcome must be rejected.
        s.add_document("late", "late doc").expect("fresh");
        s.seal().expect("seals");
        let outcome = task.run_full().expect("three segments are mergeable");
        assert_eq!(s.install_merge(outcome), None, "stale outcome discarded");
        assert_eq!(s.num_segments(), 4, "segment set untouched");
        assert!(s.force_merge(), "a fresh merge still works");
        assert_eq!(s.num_segments(), 1);
    }

    #[test]
    fn from_index_preserves_ids_and_rejects_known_duplicates() {
        let all = docs(3);
        let mut s = SegmentedIndex::from_index(monolithic(&all));
        assert_eq!(s.num_segments(), 1);
        assert_eq!(s.num_sealed_docs(), 3);
        assert!(s.add_document("doc1", "again").is_err());
        assert_eq!(s.add_document("fresh", "new doc").expect("fresh"), DocId(3));
    }
}
