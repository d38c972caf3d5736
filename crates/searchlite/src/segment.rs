//! Immutable index segments and their deterministic merge.
//!
//! A [`Segment`] wraps one sealed [`Index`] covering a contiguous range of
//! the global document space. Segments are never mutated after sealing:
//! live ingestion (`ingest`) appends new segments, the [`crate::Searcher`]
//! merges statistics across them at query time, and [`Segment::merge`]
//! compacts adjacent segments back into one. Because segments cover
//! contiguous, in-order document ranges, merging is pure concatenation —
//! the merged index is byte-for-byte the index a monolithic
//! [`crate::IndexBuilder`] would have produced over the same document
//! stream, which is what keeps run files identical across any partition.

use std::sync::Arc;

use rustc_hash::FxHashMap;

use crate::index::{DocId, Index, IndexShapeError, TermPostings};

/// One immutable, individually auditable slice of the corpus.
#[derive(Debug)]
// lint:allow(persist-types-derive-serde) — persisted via sqe-store sections
pub struct Segment {
    id: u64,
    index: Index,
}

impl Segment {
    /// Wraps a sealed index as a segment. `id` is the monotonically
    /// increasing sequence number assigned at seal time; it orders
    /// segments deterministically and names snapshot sections.
    pub fn new(id: u64, index: Index) -> Segment {
        Segment { id, index }
    }

    /// The seal-time sequence number.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The segment's local index (doc and term ids are segment-local).
    pub fn index(&self) -> &Index {
        &self.index
    }

    /// Number of documents in this segment.
    pub fn num_docs(&self) -> usize {
        self.index.num_docs()
    }

    /// Total analyzed tokens in this segment.
    pub fn collection_len(&self) -> u64 {
        self.index.collection_len()
    }

    /// Concatenates adjacent segments (ascending, contiguous global doc
    /// ranges, in order) into one segment with sequence number `id`.
    ///
    /// Local term ids of the merged index are assigned by first occurrence
    /// across the inputs in order — exactly the order a monolithic builder
    /// assigns them when the same documents are added in the same
    /// sequence — so every derived structure (postings, forward index,
    /// collection statistics) reproduces the monolithic index.
    pub fn merge(id: u64, segments: &[Arc<Segment>]) -> Result<Segment, IndexShapeError> {
        let analyzer = segments
            .first()
            .expect("invariant: merge callers pass at least one segment")
            .index
            .analyzer()
            .clone();
        // Pass 1: the merged term table, first-occurrence ordered, with a
        // local→merged id remap per input segment.
        let mut dict: FxHashMap<&str, u32> = FxHashMap::default();
        let mut terms: Vec<String> = Vec::new();
        let mut remaps: Vec<Vec<u32>> = Vec::with_capacity(segments.len());
        for seg in segments {
            let idx = &seg.index;
            let mut remap = Vec::with_capacity(idx.num_terms());
            for token in idx.terms() {
                let next = u32::try_from(terms.len())
                    .expect("invariant: merged term count fits in u32 ids");
                let g = *dict.entry(token.as_str()).or_insert(next);
                if g == next && terms.len() == next as usize {
                    terms.push(token.clone());
                }
                remap.push(g);
            }
            remaps.push(remap);
        }
        // Size every merged term from its inputs: its df, positions and
        // collection frequency are the sums of theirs.
        let mut sizes = vec![(0usize, 0usize, 0u64); terms.len()];
        for (seg, remap) in segments.iter().zip(&remaps) {
            let per_term = seg.index.all_postings().iter().zip(seg.index.coll_tfs());
            for ((p, &tf), &g) in per_term.zip(remap) {
                let (df, cf, coll_tf) = sizes
                    .get_mut(g as usize)
                    .expect("invariant: remap targets merged term ids");
                *df += p.doc_freq();
                *cf += p.positions_flat().len();
                *coll_tf += tf;
            }
        }
        let num_docs: usize = segments.iter().map(|s| s.num_docs()).sum();
        let num_fwd: usize = segments.iter().map(|s| s.index.fwd_terms().len()).sum();
        // Pass 2: concatenate every per-document structure with rebased
        // doc ids, and every per-term structure through the remap.
        let mut postings: Vec<TermPostings> = sizes
            .iter()
            .map(|&(df, cf, _)| TermPostings::with_capacity(df, cf))
            .collect();
        let coll_tf = sizes.into_iter().map(|(_, _, tf)| tf).collect();
        let mut external_ids: Vec<String> = Vec::with_capacity(num_docs);
        let mut doc_lens: Vec<u32> = Vec::with_capacity(num_docs);
        let mut collection_len = 0u64;
        let mut fwd_offsets: Vec<u32> = Vec::with_capacity(num_docs + 1);
        fwd_offsets.push(0);
        let mut fwd_terms: Vec<u32> = Vec::with_capacity(num_fwd);
        let mut fwd_tfs: Vec<u32> = Vec::with_capacity(num_fwd);
        let mut fwd_doc: Vec<(u32, u32)> = Vec::new();
        let mut base = 0u32;
        for (seg, remap) in segments.iter().zip(&remaps) {
            let idx = &seg.index;
            for (p, &g) in idx.all_postings().iter().zip(remap) {
                postings
                    .get_mut(g as usize)
                    .expect("invariant: remap targets merged term ids")
                    .append(p, base);
            }
            external_ids.extend(idx.external_ids().iter().cloned());
            doc_lens.extend_from_slice(idx.doc_lens());
            collection_len += idx.collection_len();
            // Forward lists stay per-document but must be re-sorted by the
            // *merged* term id (local first-occurrence order differs).
            for d in 0..idx.num_docs() {
                fwd_doc.clear();
                fwd_doc.extend(
                    idx.doc_terms(DocId(
                        u32::try_from(d).expect("invariant: doc count fits in u32 ids"),
                    ))
                    .map(|(t, f)| (remap[t.index()], f)),
                );
                fwd_doc.sort_unstable();
                fwd_terms.extend(fwd_doc.iter().map(|&(t, _)| t));
                fwd_tfs.extend(fwd_doc.iter().map(|&(_, f)| f));
                fwd_offsets.push(
                    u32::try_from(fwd_terms.len())
                        .expect("invariant: forward index length fits in u32"),
                );
            }
            base += u32::try_from(idx.num_docs()).expect("invariant: doc count fits in u32 ids");
        }
        let index = Index::from_raw_parts(
            analyzer,
            terms,
            postings,
            external_ids,
            doc_lens,
            collection_len,
            coll_tf,
            fwd_offsets,
            fwd_terms,
            fwd_tfs,
        )?;
        #[cfg(all(debug_assertions, feature = "validate"))]
        {
            let audit = crate::audit::IndexAudit::run(&index);
            debug_assert!(
                audit.is_clean(),
                "segment merge produced a corrupt index: {audit:?}"
            );
        }
        Ok(Segment { id, index })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analyzer;
    use crate::index::IndexBuilder;

    const DOCS: [(&str, &str); 5] = [
        ("d0", "cable car climbs the hill"),
        ("d1", "cable car cable car"),
        ("d2", "the hill of graffiti"),
        ("d3", "funicular railway on the hill"),
        ("d4", "graffiti covers the cable"),
    ];

    fn monolithic() -> Index {
        let mut b = IndexBuilder::new(Analyzer::plain());
        for (id, text) in DOCS {
            b.add_document(id, text).expect("unique test ids");
        }
        b.build()
    }

    fn segment_of(id: u64, docs: &[(&str, &str)]) -> Arc<Segment> {
        let mut b = IndexBuilder::new(Analyzer::plain());
        for (ext, text) in docs {
            b.add_document(ext, text).expect("unique test ids");
        }
        Arc::new(Segment::new(id, b.build()))
    }

    #[test]
    fn merge_of_contiguous_partition_equals_monolithic() {
        let mono = monolithic();
        for split in 1..DOCS.len() {
            let merged = Segment::merge(
                7,
                &[segment_of(0, &DOCS[..split]), segment_of(1, &DOCS[split..])],
            )
            .expect("merge succeeds");
            let m = merged.index();
            assert_eq!(
                m.to_json().expect("json"),
                mono.to_json().expect("json"),
                "split at {split} must reproduce the monolithic index exactly"
            );
        }
    }

    #[test]
    fn merge_of_three_way_partition_equals_monolithic() {
        let mono = monolithic();
        let merged = Segment::merge(
            3,
            &[
                segment_of(0, &DOCS[..2]),
                segment_of(1, &DOCS[2..3]),
                segment_of(2, &DOCS[3..]),
            ],
        )
        .expect("merge succeeds");
        assert_eq!(
            merged.index().to_json().expect("json"),
            mono.to_json().expect("json")
        );
        assert_eq!(merged.id(), 3);
    }

    #[test]
    fn merge_single_segment_is_identity() {
        let merged = Segment::merge(1, &[segment_of(0, &DOCS)]).expect("merge succeeds");
        assert_eq!(
            merged.index().to_json().expect("json"),
            monolithic().to_json().expect("json")
        );
    }

    #[test]
    fn merged_segment_passes_audit() {
        let merged = Segment::merge(2, &[segment_of(0, &DOCS[..3]), segment_of(1, &DOCS[3..])])
            .expect("merge succeeds");
        assert!(crate::audit::IndexAudit::run(merged.index()).is_clean());
    }
}
