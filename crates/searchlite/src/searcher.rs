//! Cross-segment read view with merged corpus statistics.
//!
//! A [`Searcher`] presents any set of [`Segment`]s as one logical corpus:
//! global doc ids are segment-local ids offset by the segment's base,
//! global term ids are assigned by first occurrence across segments in
//! segment order, and `collection_len` / `collection_tf` / `doc_freq` are
//! exact integer sums over the segments. Because every statistic the
//! Dirichlet-QL and BM25 scorers consume is *identical* to what a
//! monolithic [`Index`] over the same document stream would report, and
//! the tie-breaking ids (doc and term) coincide too, ranking through a
//! `Searcher` is byte-identical regardless of how the corpus is
//! partitioned — the property the serve-determinism wall pins.
//!
//! The view is immutable and cheap to clone (one `Arc`); live ingestion
//! (`crate::SegmentedIndex`) publishes a fresh `Searcher` per epoch.

use std::sync::Arc;

use rustc_hash::FxHashMap;

use crate::analysis::Analyzer;
use crate::index::{DocId, Index, PositionalScratch, TermId, TermPostings};
use crate::segment::Segment;

/// Local term id marking "term absent from this segment".
const ABSENT: u32 = u32::MAX;

#[derive(Debug)]
// lint:allow(persist-types-derive-serde) — derived view, rebuilt from segments
struct SearcherInner {
    analyzer: Analyzer,
    segments: Vec<Arc<Segment>>,
    /// `bases[i]` = global doc id of segment `i`'s first document.
    bases: Vec<u32>,
    num_docs: u32,
    collection_len: u64,
    /// Analyzed token → global term id.
    dict: FxHashMap<String, u32>,
    /// Global term id → (first segment containing it, local id there);
    /// the surface form is read from that segment's term table.
    locators: Vec<(u32, u32)>,
    /// Global term id → summed collection frequency.
    coll_tf: Vec<u64>,
    /// Global term id → summed document frequency (segments hold
    /// disjoint documents, so the sum is exact).
    doc_freq: Vec<u32>,
    /// `seg_local[s][g]` = segment `s`'s local id for global term `g`,
    /// or [`ABSENT`].
    seg_local: Vec<Vec<u32>>,
    /// `seg_global[s][l]` = global id of segment `s`'s local term `l`.
    seg_global: Vec<Vec<u32>>,
    /// Segment-set epoch this view was published at (see
    /// `crate::SegmentedIndex`); caches key invalidation off it.
    epoch: u64,
}

/// Immutable, cheaply clonable read view over a set of segments. Mirrors
/// the read API of [`Index`] with global doc/term ids; all scoring
/// modules (`ql`, `bm25`, `prf`, `stats`) consume this type.
#[derive(Debug, Clone)]
// lint:allow(persist-types-derive-serde) — derived view, rebuilt from segments
pub struct Searcher {
    inner: Arc<SearcherInner>,
}

impl Searcher {
    /// Builds the merged view over `segments` (in segment order, which is
    /// global document order). `epoch` identifies the segment set for
    /// cache invalidation. An empty segment list is a valid empty corpus.
    pub fn new(analyzer: Analyzer, segments: Vec<Arc<Segment>>, epoch: u64) -> Searcher {
        // Pass 1: global term table by first occurrence, merged statistics.
        let mut dict: FxHashMap<String, u32> = FxHashMap::default();
        let mut locators: Vec<(u32, u32)> = Vec::new();
        let mut coll_tf: Vec<u64> = Vec::new();
        let mut doc_freq: Vec<u32> = Vec::new();
        let mut seg_global: Vec<Vec<u32>> = Vec::with_capacity(segments.len());
        let mut bases: Vec<u32> = Vec::with_capacity(segments.len());
        let mut num_docs = 0u32;
        let mut collection_len = 0u64;
        for (s, seg) in segments.iter().enumerate() {
            let s32 = u32::try_from(s).expect("invariant: segment count fits in u32");
            bases.push(num_docs);
            let idx = seg.index();
            let mut globals = Vec::with_capacity(idx.num_terms());
            for (local, token) in idx.terms().iter().enumerate() {
                let local32 =
                    u32::try_from(local).expect("invariant: term count fits in u32 ids");
                let g = *dict.entry(token.clone()).or_insert_with(|| {
                    let g = u32::try_from(locators.len())
                        .expect("invariant: merged term count fits in u32 ids");
                    locators.push((s32, local32));
                    coll_tf.push(0);
                    doc_freq.push(0);
                    g
                });
                coll_tf[g as usize] += idx.collection_tf(TermId(local32));
                doc_freq[g as usize] += u32::try_from(idx.postings(TermId(local32)).doc_freq())
                    .expect("invariant: doc freq bounded by u32 doc count");
                globals.push(g);
            }
            seg_global.push(globals);
            num_docs += u32::try_from(idx.num_docs()).expect("invariant: doc count fits in u32");
            collection_len += idx.collection_len();
        }
        // Pass 2: the inverse maps, one dense row per segment.
        let num_terms = locators.len();
        let mut seg_local: Vec<Vec<u32>> = Vec::with_capacity(segments.len());
        for globals in &seg_global {
            let mut row = vec![ABSENT; num_terms];
            for (local, &g) in globals.iter().enumerate() {
                row[g as usize] =
                    u32::try_from(local).expect("invariant: term count fits in u32 ids");
            }
            seg_local.push(row);
        }
        Searcher {
            inner: Arc::new(SearcherInner {
                analyzer,
                segments,
                bases,
                num_docs,
                collection_len,
                dict,
                locators,
                coll_tf,
                doc_freq,
                seg_local,
                seg_global,
                epoch,
            }),
        }
    }

    /// Wraps a monolithic index as a single-segment view at epoch 0.
    pub fn from_index(index: Index) -> Searcher {
        let analyzer = index.analyzer().clone();
        Searcher::new(analyzer, vec![Arc::new(Segment::new(0, index))], 0)
    }

    /// The analyzer shared by every segment; queries must use the same.
    pub fn analyzer(&self) -> &Analyzer {
        &self.inner.analyzer
    }

    /// The segments under this view, in global document order.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.inner.segments
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.inner.segments.len()
    }

    /// The segment-set epoch this view was published at.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// Total number of documents across segments.
    pub fn num_docs(&self) -> usize {
        self.inner.num_docs as usize
    }

    /// Number of distinct terms across segments.
    pub fn num_terms(&self) -> usize {
        self.inner.locators.len()
    }

    /// Total token count of the logical collection (`|C|`).
    pub fn collection_len(&self) -> u64 {
        self.inner.collection_len
    }

    /// Segment owning global doc `d`, as (segment index, local doc id).
    fn seg_of(&self, d: DocId) -> (usize, DocId) {
        let s = self.inner.bases.partition_point(|&b| b <= d.0) - 1;
        (s, DocId(d.0 - self.inner.bases[s]))
    }

    /// Looks up the global id of an *analyzed* token.
    pub fn term_id(&self, token: &str) -> Option<TermId> {
        self.inner.dict.get(token).copied().map(TermId)
    }

    /// The surface (analyzed) form of a global term.
    pub fn term(&self, t: TermId) -> &str {
        let (s, local) = self.inner.locators[t.index()];
        self.inner.segments[s as usize].index().term(TermId(local))
    }

    /// Summed collection frequency of a global term.
    pub fn collection_tf(&self, t: TermId) -> u64 {
        self.inner.coll_tf[t.index()]
    }

    /// Summed document frequency of a global term.
    pub fn doc_freq(&self, t: TermId) -> usize {
        self.inner.doc_freq[t.index()] as usize
    }

    /// Collection language-model probability `P(w|C)` with the same
    /// 0.5-count floor as [`Index::collection_prob`].
    pub fn collection_prob(&self, t: Option<TermId>) -> f64 {
        let c = self.inner.collection_len.max(1) as f64;
        match t {
            Some(t) => (self.inner.coll_tf[t.index()] as f64).max(0.5) / c,
            None => 0.5 / c,
        }
    }

    /// Document length in analyzed tokens (`|D|`).
    pub fn doc_len(&self, d: DocId) -> u32 {
        let (s, local) = self.seg_of(d);
        self.inner.segments[s].index().doc_len(local)
    }

    /// The external id of a document.
    pub fn external_id(&self, d: DocId) -> &str {
        let (s, local) = self.seg_of(d);
        self.inner.segments[s].index().external_id(local)
    }

    /// Term frequency of global term `t` in global doc `d`.
    pub fn tf(&self, t: TermId, d: DocId) -> u32 {
        let (s, local) = self.seg_of(d);
        match self.inner.seg_local[s][t.index()] {
            ABSENT => 0,
            l => self.inner.segments[s].index().tf(TermId(l), local),
        }
    }

    /// The segments with the global doc id of each one's first document,
    /// in global document order — the per-segment walk of the QL kernel.
    pub(crate) fn segment_bases(&self) -> impl Iterator<Item = (usize, u32, &Index)> + '_ {
        self.inner
            .segments
            .iter()
            .zip(&self.inner.bases)
            .enumerate()
            .map(|(s, (seg, &base))| (s, base, seg.index()))
    }

    /// Segment `s`'s postings of global term `t` (segment-local doc
    /// ids), or `None` when the segment lacks the term.
    pub(crate) fn segment_postings(&self, s: usize, t: TermId) -> Option<&TermPostings> {
        let local = *self.inner.seg_local.get(s)?.get(t.index())?;
        let seg = self.inner.segments.get(s)?;
        (local != ABSENT).then(|| seg.index().postings(TermId(local)))
    }

    /// All `(doc, tf)` postings of a global term, in global doc order.
    pub fn term_postings(&self, t: TermId) -> Vec<(DocId, u32)> {
        let mut out = Vec::with_capacity(self.doc_freq(t));
        for (s, seg) in self.inner.segments.iter().enumerate() {
            let l = self.inner.seg_local[s][t.index()];
            if l == ABSENT {
                continue;
            }
            let base = self.inner.bases[s];
            out.extend(
                seg.index()
                    .postings(TermId(l))
                    .iter()
                    .map(|(d, f)| (DocId(d.0 + base), f)),
            );
        }
        out
    }

    /// All documents containing the exact phrase, with phrase
    /// frequencies, in global doc order. `scratch.terms` is reused as
    /// the global→local translation buffer, the rest of the scratch
    /// feeds the per-segment positional kernels.
    pub fn phrase_postings_with(
        &self,
        terms: &[TermId],
        scratch: &mut PositionalScratch,
    ) -> Vec<(DocId, u32)> {
        if terms.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut local = std::mem::take(&mut scratch.terms);
        'segments: for (s, seg) in self.inner.segments.iter().enumerate() {
            local.clear();
            for &t in terms {
                match self.inner.seg_local[s][t.index()] {
                    ABSENT => continue 'segments,
                    l => local.push(TermId(l)),
                }
            }
            let base = self.inner.bases[s];
            for (d, f) in seg.index().phrase_postings_with(&local, scratch) {
                out.push((DocId(d.0 + base), f));
            }
        }
        scratch.terms = local;
        out
    }

    /// Iterates the distinct terms of a document with their frequencies,
    /// as global term ids (order follows the owning segment's local
    /// term order; consumers aggregate into maps).
    pub fn doc_terms(&self, d: DocId) -> impl Iterator<Item = (TermId, u32)> + '_ {
        let (s, local) = self.seg_of(d);
        let globals = &self.inner.seg_global[s];
        self.inner.segments[s]
            .index()
            .doc_terms(local)
            .map(move |(t, f)| (TermId(globals[t.index()]), f))
    }

    /// Analyzes raw text and maps the tokens to global term ids
    /// (`None` for out-of-vocabulary tokens).
    pub fn analyze_to_terms(&self, text: &str) -> Vec<Option<TermId>> {
        self.inner
            .analyzer
            .analyze(text)
            .iter()
            .map(|t| self.term_id(t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexBuilder;

    const DOCS: [(&str, &str); 6] = [
        ("d0", "cable car climbs the hill"),
        ("d1", "cable car cable car"),
        ("d2", "the hill of graffiti"),
        ("d3", "funicular railway on the hill"),
        ("d4", "graffiti covers the cable"),
        ("d5", "car on the funicular railway"),
    ];

    fn monolithic() -> Index {
        let mut b = IndexBuilder::new(Analyzer::plain());
        for (id, text) in DOCS {
            b.add_document(id, text).expect("unique test ids");
        }
        b.build()
    }

    fn segmented(splits: &[usize]) -> Searcher {
        let mut segs = Vec::new();
        let mut start = 0;
        for (i, &end) in splits.iter().chain(std::iter::once(&DOCS.len())).enumerate() {
            let mut b = IndexBuilder::new(Analyzer::plain());
            for (id, text) in &DOCS[start..end] {
                b.add_document(id, text).expect("unique test ids");
            }
            segs.push(Arc::new(Segment::new(i as u64, b.build())));
            start = end;
        }
        Searcher::new(Analyzer::plain(), segs, 0)
    }

    #[test]
    fn merged_statistics_equal_monolithic() {
        let mono = monolithic();
        for splits in [vec![], vec![3], vec![2, 4], vec![1, 2, 3, 4, 5]] {
            let s = segmented(&splits);
            assert_eq!(s.num_docs(), mono.num_docs(), "splits {splits:?}");
            assert_eq!(s.num_terms(), mono.num_terms(), "splits {splits:?}");
            assert_eq!(s.collection_len(), mono.collection_len());
            for d in 0..mono.num_docs() {
                let d = DocId(u32::try_from(d).expect("small test corpus"));
                assert_eq!(s.doc_len(d), mono.doc_len(d));
                assert_eq!(s.external_id(d), mono.external_id(d));
            }
            for t in 0..mono.num_terms() {
                let t = TermId(u32::try_from(t).expect("small test corpus"));
                assert_eq!(s.term(t), mono.term(t), "term ids must coincide");
                assert_eq!(s.collection_tf(t), mono.collection_tf(t));
                assert_eq!(s.doc_freq(t), mono.postings(t).doc_freq());
                assert_eq!(
                    s.term_postings(t),
                    mono.postings(t).iter().collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn term_ids_match_monolithic_assignment_order() {
        let mono = monolithic();
        let s = segmented(&[2, 4]);
        for (token, want) in [("cable", 0u32), ("car", 1), ("climbs", 2)] {
            assert_eq!(mono.term_id(token), Some(TermId(want)));
            assert_eq!(s.term_id(token), Some(TermId(want)));
        }
        assert_eq!(s.term_id("spaceship"), None);
    }

    #[test]
    fn tf_and_segment_postings_cross_segment() {
        let mono = monolithic();
        let s = segmented(&[2, 4]);
        let cable = s.term_id("cable").expect("indexed");
        for d in 0..DOCS.len() {
            let d = DocId(u32::try_from(d).expect("small test corpus"));
            assert_eq!(s.tf(cable, d), mono.tf(cable, d));
        }
        let mut docs = Vec::new();
        for (seg, base, _) in s.segment_bases() {
            if let Some(p) = s.segment_postings(seg, cable) {
                docs.extend(p.docs().iter().map(|&d| d + base));
            }
        }
        assert_eq!(docs, mono.postings(cable).docs());
        let spaceship = TermId(u32::try_from(s.num_terms()).expect("small test corpus"));
        assert!(s.segment_postings(0, spaceship).is_none(), "unknown term ids have no postings");
    }

    #[test]
    fn phrase_postings_cross_segment() {
        let mono = monolithic();
        let mut scratch = PositionalScratch::new();
        for splits in [vec![3], vec![1, 2, 3, 4, 5]] {
            let s = segmented(&splits);
            let cable = s.term_id("cable").expect("indexed");
            let car = s.term_id("car").expect("indexed");
            assert_eq!(
                s.phrase_postings_with(&[cable, car], &mut scratch),
                mono.phrase_postings(&[cable, car]),
                "splits {splits:?}"
            );
        }
    }

    #[test]
    fn doc_terms_translates_to_global_ids() {
        let mono = monolithic();
        let s = segmented(&[2, 4]);
        for d in 0..DOCS.len() {
            let d = DocId(u32::try_from(d).expect("small test corpus"));
            let mut got: Vec<(TermId, u32)> = s.doc_terms(d).collect();
            let mut want: Vec<(TermId, u32)> = mono.doc_terms(d).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn empty_searcher_is_a_valid_empty_corpus() {
        let s = Searcher::new(Analyzer::plain(), Vec::new(), 0);
        assert_eq!(s.num_docs(), 0);
        assert_eq!(s.num_terms(), 0);
        assert_eq!(s.collection_len(), 0);
        assert_eq!(s.term_id("anything"), None);
        assert!(s.collection_prob(None) > 0.0);
    }

    #[test]
    fn from_index_wraps_one_segment() {
        let s = Searcher::from_index(monolithic());
        assert_eq!(s.num_segments(), 1);
        assert_eq!(s.epoch(), 0);
        assert_eq!(s.num_docs(), DOCS.len());
    }
}
