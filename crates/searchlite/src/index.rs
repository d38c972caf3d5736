//! Positional inverted index.
//!
//! The index stores, per term, the sorted list of documents containing it,
//! per-document term frequencies, and in-document positions (needed for the
//! exact n-gram phrase matching that the paper's query builder uses for
//! article titles). Collection-level statistics back the Dirichlet
//! smoothing of the query-likelihood model.

use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};

use crate::analysis::{tokenize, Analyzer, TokenScratch};

/// Dense identifier of an indexed term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
// lint:allow(persist-types-derive-serde) — transient handle; persisted as raw u32
pub struct TermId(pub u32);

/// Dense identifier of an indexed document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
// lint:allow(persist-types-derive-serde) — transient handle; persisted as raw u32
pub struct DocId(pub u32);

impl DocId {
    /// Index into parallel per-document arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl TermId {
    /// Index into parallel per-term arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Postings of one term: parallel arrays of documents, frequencies and
/// flat position lists.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TermPostings {
    docs: Vec<u32>,
    tfs: Vec<u32>,
    /// `pos_offsets[i]..pos_offsets[i+1]` slices `positions` for `docs[i]`.
    pos_offsets: Vec<u32>,
    positions: Vec<u32>,
}

impl TermPostings {
    /// Number of documents containing the term.
    #[inline]
    pub fn doc_freq(&self) -> usize {
        self.docs.len()
    }

    /// Sorted document list.
    #[inline]
    pub fn docs(&self) -> &[u32] {
        &self.docs
    }

    /// Term frequencies parallel to [`Self::docs`].
    #[inline]
    pub fn tfs(&self) -> &[u32] {
        &self.tfs
    }

    /// Term frequency in `doc`, 0 if absent.
    pub fn tf(&self, doc: DocId) -> u32 {
        match self.docs.binary_search(&doc.0) {
            Ok(i) => self.tfs[i],
            Err(_) => 0,
        }
    }

    /// In-document positions of the term in `doc` (sorted), empty if absent.
    pub fn positions(&self, doc: DocId) -> &[u32] {
        match self.docs.binary_search(&doc.0) {
            Ok(i) => {
                let lo = self.pos_offsets[i] as usize;
                let hi = self.pos_offsets[i + 1] as usize;
                &self.positions[lo..hi]
            }
            Err(_) => &[],
        }
    }

    /// Iterates `(doc, tf)` pairs in document order.
    pub fn iter(&self) -> impl Iterator<Item = (DocId, u32)> + '_ {
        self.docs
            .iter()
            .zip(self.tfs.iter())
            .map(|(&d, &t)| (DocId(d), t))
    }

    /// Raw position-slice offsets (`docs.len() + 1` entries); read-only
    /// access for binary persistence.
    #[inline]
    pub fn pos_offsets(&self) -> &[u32] {
        &self.pos_offsets
    }

    /// Raw flat position array; read-only access for binary persistence.
    #[inline]
    pub fn positions_flat(&self) -> &[u32] {
        &self.positions
    }

    /// Empty postings with room for `df` documents and `cf` positions.
    pub(crate) fn with_capacity(df: usize, cf: usize) -> TermPostings {
        let mut pos_offsets = Vec::with_capacity(df + 1);
        pos_offsets.push(0);
        TermPostings {
            docs: Vec::with_capacity(df),
            tfs: Vec::with_capacity(df),
            pos_offsets,
            positions: Vec::with_capacity(cf),
        }
    }

    /// Appends `doc` with the term's sorted positions in it.
    fn push(&mut self, doc: u32, positions: &[u32]) {
        self.docs.push(doc);
        self.tfs
            .push(u32::try_from(positions.len()).expect("invariant: term frequency fits in u32"));
        self.positions.extend_from_slice(positions);
        self.pos_offsets.push(
            u32::try_from(self.positions.len()).expect("invariant: positions length fits in u32"),
        );
    }

    /// Appends every posting of `other` with its doc ids shifted by
    /// `base` (the merge of adjacent segments).
    pub(crate) fn append(&mut self, other: &TermPostings, base: u32) {
        let rebase =
            u32::try_from(self.positions.len()).expect("invariant: positions length fits in u32");
        self.docs.extend(other.docs.iter().map(|&d| d + base));
        self.tfs.extend_from_slice(&other.tfs);
        self.positions.extend_from_slice(&other.positions);
        self.pos_offsets
            .extend(other.pos_offsets.iter().skip(1).map(|&o| o + rebase));
    }

    /// Reassembles postings from raw arrays. Shape is NOT validated here;
    /// callers must pass the resulting [`Index`] through
    /// [`Index::from_raw_parts`], which checks every per-term invariant.
    pub fn from_raw_parts(
        docs: Vec<u32>,
        tfs: Vec<u32>,
        pos_offsets: Vec<u32>,
        positions: Vec<u32>,
    ) -> TermPostings {
        TermPostings {
            docs,
            tfs,
            pos_offsets,
            positions,
        }
    }
}

/// Reusable buffers for the phrase match kernel ([`Index::phrase_tf_with`]
/// and the postings scan built on it). Staging the (short) position
/// lists here, instead of allocating a list of slices per candidate
/// document, makes a scan over thousands of candidates allocation-free
/// after warm-up. One scratch serves any number of sequential calls; it is
/// plumbed through `QlScratch`/`SqeScratch` by the serving layer.
#[derive(Debug, Default)]
// lint:allow(persist-types-derive-serde) — transient scratch, never persisted
pub struct PositionalScratch {
    /// Staged position lists, concatenated.
    pub(crate) pos: Vec<u32>,
    /// `(lo, hi)` spans slicing `pos` per staged term.
    pub(crate) bounds: Vec<(u32, u32)>,
    /// Term-id translation buffer for the segmented `Searcher`.
    pub(crate) terms: Vec<TermId>,
}

impl PositionalScratch {
    /// A fresh scratch (equivalent to `Default`).
    pub fn new() -> Self {
        PositionalScratch::default()
    }

    /// Stages the position lists of `terms` in `doc`; returns `false`
    /// (with unspecified scratch contents) when any term is absent.
    fn stage(&mut self, index: &Index, terms: &[TermId], doc: DocId) -> bool {
        self.pos.clear();
        self.bounds.clear();
        for &t in terms {
            let ps = index.postings(t).positions(doc);
            if ps.is_empty() {
                return false;
            }
            let lo = u32::try_from(self.pos.len())
                .expect("invariant: staged positions fit in u32 (bounded by one document)");
            self.pos.extend_from_slice(ps);
            let hi = u32::try_from(self.pos.len())
                .expect("invariant: staged positions fit in u32 (bounded by one document)");
            self.bounds.push((lo, hi));
        }
        true
    }
}

/// Rejected document insertion: the builder enforces the invariants that
/// the rest of the system (external-id lookups, qrels joins, the
/// `IndexAudit`) silently assumes.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint:allow(persist-types-derive-serde) — build error, never persisted
pub enum IndexBuildError {
    /// The external id was already used by an earlier document. Accepting
    /// it would produce two dense doc ids for one article title, which
    /// breaks run-file joins and the audit's uniqueness invariant.
    DuplicateExternalId {
        /// The offending external id.
        external_id: String,
    },
}

impl std::fmt::Display for IndexBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexBuildError::DuplicateExternalId { external_id } => {
                write!(f, "external id `{external_id}` was already indexed")
            }
        }
    }
}

impl std::error::Error for IndexBuildError {}

/// Builds an [`Index`] incrementally, one document at a time.
///
/// Adding a document allocates nothing per token or per term once the
/// buffers have grown: each distinct raw token is analyzed once per
/// builder (the memo), and the document's (term, position) pairs are
/// sorted in a reused buffer and appended to a forward index and a flat
/// positions arena. [`IndexBuilder::build`] inverts that forward index
/// into per-term postings of exact size (DESIGN.md, "Ingest path").
#[derive(Debug)]
// lint:allow(persist-types-derive-serde) — builder state is never persisted
pub struct IndexBuilder {
    analyzer: Analyzer,
    /// Raw token → its term id, or `None` when analysis drops it.
    /// Analysis is a pure function of the raw token, so the memo is
    /// bounded by the distinct raw tokens added to this builder.
    memo: FxHashMap<Box<str>, Option<u32>>,
    /// Raw tokens analyzed so far (memo misses).
    analyzed: usize,
    token: TokenScratch,
    dict: FxHashMap<String, u32>,
    terms: Vec<String>,
    /// External id → dense doc id; [`IndexBuilder::build`] moves the ids
    /// into doc order, so each id is copied once.
    ids: FxHashMap<String, u32>,
    doc_lens: Vec<u32>,
    collection_len: u64,
    /// The (term, position) pairs of the document being added.
    pairs: Vec<(u32, u32)>,
    fwd_offsets: Vec<u32>,
    fwd_terms: Vec<u32>,
    fwd_tfs: Vec<u32>,
    /// Every forward entry's positions, in forward-index order: entry
    /// `i` owns the `fwd_tfs[i]` values after those of entry `i - 1`.
    fwd_positions: Vec<u32>,
}

impl IndexBuilder {
    /// Creates a builder using `analyzer` for every added document.
    pub fn new(analyzer: Analyzer) -> Self {
        IndexBuilder {
            analyzer,
            memo: FxHashMap::default(),
            analyzed: 0,
            token: TokenScratch::default(),
            dict: FxHashMap::default(),
            terms: Vec::new(),
            ids: FxHashMap::default(),
            doc_lens: Vec::new(),
            collection_len: 0,
            pairs: Vec::new(),
            fwd_offsets: vec![0],
            fwd_terms: Vec::new(),
            fwd_tfs: Vec::new(),
            fwd_positions: Vec::new(),
        }
    }

    /// The term id of one raw token, or `None` when analysis drops it.
    /// Term ids are assigned in first-occurrence order.
    fn term_of(&mut self, raw: &str) -> Option<u32> {
        if let Some(&term) = self.memo.get(raw) {
            return term;
        }
        self.analyzed += 1;
        let term = self
            .analyzer
            .analyze_token(raw, &mut self.token)
            .map(|token| match self.dict.get(token) {
                Some(&id) => id,
                None => {
                    let id = u32::try_from(self.terms.len())
                        .expect("invariant: term count fits in u32 ids");
                    self.terms.push(token.to_owned());
                    self.dict.insert(token.to_owned(), id);
                    id
                }
            });
        self.memo.insert(raw.into(), term);
        term
    }

    /// Adds a document with an external (string) identifier; returns its
    /// dense [`DocId`]. Documents must be added in final order. A repeated
    /// external id is rejected with a typed error and leaves the builder
    /// unchanged.
    pub fn add_document(
        &mut self,
        external_id: &str,
        text: &str,
    ) -> Result<DocId, IndexBuildError> {
        if self.ids.contains_key(external_id) {
            return Err(IndexBuildError::DuplicateExternalId {
                external_id: external_id.to_owned(),
            });
        }
        let doc = u32::try_from(self.doc_lens.len()).expect("invariant: doc count fits in u32 ids");
        self.ids.insert(external_id.to_owned(), doc);
        self.pairs.clear();
        for raw in tokenize(text) {
            if let Some(term) = self.term_of(raw) {
                let pos =
                    u32::try_from(self.pairs.len()).expect("invariant: token position fits in u32");
                self.pairs.push((term, pos));
            }
        }
        let len = u32::try_from(self.pairs.len()).expect("invariant: document length fits in u32");
        self.doc_lens.push(len);
        self.collection_len += u64::from(len);
        // Term order within the document, positions ascending per term.
        self.pairs.sort_unstable();
        for run in self.pairs.chunk_by(|a, b| a.0 == b.0) {
            let (term, _) = run
                .first()
                .expect("invariant: chunk_by yields non-empty runs");
            self.fwd_terms.push(*term);
            self.fwd_tfs
                .push(u32::try_from(run.len()).expect("invariant: term frequency fits in u32"));
            self.fwd_positions.extend(run.iter().map(|&(_, pos)| pos));
        }
        self.fwd_offsets.push(
            u32::try_from(self.fwd_terms.len())
                .expect("invariant: forward index length fits in u32"),
        );
        Ok(DocId(doc))
    }

    /// Number of documents added so far.
    pub fn num_docs(&self) -> usize {
        self.doc_lens.len()
    }

    /// Raw tokens this builder has analyzed: one per distinct raw token
    /// added, however often it occurs.
    pub fn raw_tokens_analyzed(&self) -> usize {
        self.analyzed
    }

    /// Finalizes the index: inverts the forward index into per-term
    /// postings. Each term's df and cf are counted first, so its four
    /// arrays are allocated at their exact size and filled in one pass
    /// over the documents in id order.
    pub fn build(self) -> Index {
        let IndexBuilder {
            analyzer,
            memo,
            dict,
            terms,
            ids,
            doc_lens,
            collection_len,
            fwd_offsets,
            fwd_terms,
            fwd_tfs,
            fwd_positions,
            ..
        } = self;
        drop(memo);
        let mut counts = vec![(0usize, 0u64); terms.len()];
        for (&t, &tf) in fwd_terms.iter().zip(&fwd_tfs) {
            let (df, cf) = counts
                .get_mut(t as usize)
                .expect("invariant: forward entries name dictionary terms");
            *df += 1;
            *cf += u64::from(tf);
        }
        let mut postings: Vec<TermPostings> = counts
            .iter()
            .map(|&(df, cf)| {
                let cf = usize::try_from(cf).expect("invariant: positions fit in memory");
                TermPostings::with_capacity(df, cf)
            })
            .collect();
        let coll_tf = counts.into_iter().map(|(_, cf)| cf).collect();
        let mut entries = fwd_terms.iter().zip(&fwd_tfs);
        let mut arena = fwd_positions.as_slice();
        for (doc, (&lo, &hi)) in fwd_offsets
            .iter()
            .zip(fwd_offsets.iter().skip(1))
            .enumerate()
        {
            let doc = u32::try_from(doc).expect("invariant: doc count fits in u32 ids");
            for (&t, &tf) in entries.by_ref().take((hi - lo) as usize) {
                let (positions, rest) = arena.split_at(tf as usize);
                arena = rest;
                postings
                    .get_mut(t as usize)
                    .expect("invariant: forward entries name dictionary terms")
                    .push(doc, positions);
            }
        }
        drop(fwd_positions);
        let mut external_ids = vec![String::new(); doc_lens.len()];
        // Order-free: every id lands at its own doc slot.
        for (id, doc) in ids {
            *external_ids
                .get_mut(doc as usize)
                .expect("invariant: doc ids are dense") = id;
        }
        Index {
            analyzer,
            dict,
            terms,
            postings,
            external_ids,
            doc_lens,
            collection_len,
            coll_tf,
            fwd_offsets,
            fwd_terms,
            fwd_tfs,
        }
    }
}

/// Structural defect found while reassembling an [`Index`] from decoded
/// sections. Shape checks are cheap (lengths, offset monotonicity, id
/// bounds) and run on every decode path, unlike the exhaustive
/// debug-only `IndexAudit`.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint:allow(persist-types-derive-serde) — decode error, never persisted
pub enum IndexShapeError {
    /// A parallel section has the wrong length.
    SectionLenMismatch {
        /// Which section is inconsistent.
        section: &'static str,
        /// Observed length.
        len: usize,
        /// Length implied by the rest of the index.
        expected: usize,
    },
    /// Two terms normalize to the same dictionary key.
    DuplicateTerm {
        /// Offending term id.
        term: u32,
    },
    /// A term's posting arrays disagree on the document count.
    PostingArraysMismatch {
        /// Offending term id.
        term: u32,
        /// `docs` length.
        docs: usize,
        /// `tfs` length.
        tfs: usize,
        /// `pos_offsets` length (must be `docs + 1`).
        pos_offsets: usize,
    },
    /// A term's position offsets are not a monotone prefix-sum over its
    /// flat position array.
    PosOffsetsMalformed {
        /// Offending term id.
        term: u32,
    },
    /// A posting references a document outside the collection.
    DocOutOfBounds {
        /// Offending term id.
        term: u32,
        /// Referenced document.
        doc: u32,
        /// Number of documents in the collection.
        num_docs: usize,
    },
    /// The forward-index offsets are not a monotone prefix-sum.
    FwdOffsetsMalformed {
        /// Number of documents.
        docs: usize,
        /// `fwd_offsets` length (must be `docs + 1`).
        offsets_len: usize,
    },
    /// A forward-index entry references a term outside the dictionary.
    FwdTermOutOfBounds {
        /// Referenced term id.
        term: u32,
        /// Number of terms in the dictionary.
        num_terms: usize,
    },
}

impl std::fmt::Display for IndexShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexShapeError::SectionLenMismatch {
                section,
                len,
                expected,
            } => write!(
                f,
                "index section `{section}` has length {len}, expected {expected}"
            ),
            IndexShapeError::DuplicateTerm { term } => {
                write!(f, "term {term} duplicates an earlier dictionary entry")
            }
            IndexShapeError::PostingArraysMismatch {
                term,
                docs,
                tfs,
                pos_offsets,
            } => write!(
                f,
                "term {term} postings misaligned: docs={docs}, tfs={tfs}, pos_offsets={pos_offsets}"
            ),
            IndexShapeError::PosOffsetsMalformed { term } => {
                write!(
                    f,
                    "term {term} position offsets are not a prefix-sum of its positions"
                )
            }
            IndexShapeError::DocOutOfBounds {
                term,
                doc,
                num_docs,
            } => write!(
                f,
                "term {term} references document {doc} outside the {num_docs}-document collection"
            ),
            IndexShapeError::FwdOffsetsMalformed { docs, offsets_len } => write!(
                f,
                "forward offsets have length {offsets_len}, not a prefix-sum over {docs} documents"
            ),
            IndexShapeError::FwdTermOutOfBounds { term, num_terms } => write!(
                f,
                "forward index references term {term} outside the {num_terms}-term dictionary"
            ),
        }
    }
}

impl std::error::Error for IndexShapeError {}

/// Failure to restore an [`Index`] from its JSON persistence form: either
/// the payload is not valid JSON for the schema, or it decodes to
/// structurally inconsistent sections.
#[derive(Debug)]
// lint:allow(persist-types-derive-serde) — decode error, never persisted
pub enum IndexDecodeError {
    /// The payload failed JSON deserialization.
    Json(serde_json::Error),
    /// The payload decoded but its sections are inconsistent.
    Shape(IndexShapeError),
}

impl std::fmt::Display for IndexDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexDecodeError::Json(e) => write!(f, "index JSON decode failed: {e}"),
            IndexDecodeError::Shape(e) => write!(f, "index payload is inconsistent: {e}"),
        }
    }
}

impl std::error::Error for IndexDecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexDecodeError::Json(e) => Some(e),
            IndexDecodeError::Shape(e) => Some(e),
        }
    }
}

impl From<IndexShapeError> for IndexDecodeError {
    fn from(e: IndexShapeError) -> Self {
        IndexDecodeError::Shape(e)
    }
}

/// An immutable positional inverted index over a document collection.
/// Serializable for persistence; see [`Index::to_json`] / [`Index::from_json`].
/// `Clone` is cheap relative to a rebuild and lets callers wrap an existing
/// monolithic index as the first segment of a [`crate::SegmentedIndex`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Index {
    analyzer: Analyzer,
    dict: FxHashMap<String, u32>,
    terms: Vec<String>,
    postings: Vec<TermPostings>,
    external_ids: Vec<String>,
    doc_lens: Vec<u32>,
    collection_len: u64,
    coll_tf: Vec<u64>,
    fwd_offsets: Vec<u32>,
    fwd_terms: Vec<u32>,
    fwd_tfs: Vec<u32>,
}

impl Index {
    /// The analyzer documents were indexed with; queries must use the same.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        self.external_ids.len()
    }

    /// Number of distinct terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Total token count of the collection (`|C|`).
    pub fn collection_len(&self) -> u64 {
        self.collection_len
    }

    /// Looks up the id of an *analyzed* token.
    pub fn term_id(&self, token: &str) -> Option<TermId> {
        self.dict.get(token).copied().map(TermId)
    }

    /// The surface (analyzed) form of a term.
    pub fn term(&self, t: TermId) -> &str {
        &self.terms[t.index()]
    }

    /// The postings of a term.
    pub fn postings(&self, t: TermId) -> &TermPostings {
        &self.postings[t.index()]
    }

    /// Document length in analyzed tokens (`|D|`).
    pub fn doc_len(&self, d: DocId) -> u32 {
        self.doc_lens[d.index()]
    }

    /// The external id of a document.
    pub fn external_id(&self, d: DocId) -> &str {
        &self.external_ids[d.index()]
    }

    /// Collection frequency of a term.
    pub fn collection_tf(&self, t: TermId) -> u64 {
        self.coll_tf[t.index()]
    }

    /// Collection language-model probability `P(w|C)` with a 0.5-count
    /// floor so that out-of-vocabulary features never produce `log 0`.
    pub fn collection_prob(&self, t: Option<TermId>) -> f64 {
        let c = self.collection_len.max(1) as f64;
        match t {
            Some(t) => (self.coll_tf[t.index()] as f64).max(0.5) / c,
            None => 0.5 / c,
        }
    }

    /// Term frequency of `t` in `d`.
    pub fn tf(&self, t: TermId, d: DocId) -> u32 {
        self.postings[t.index()].tf(d)
    }

    /// Counts exact consecutive occurrences of the term sequence in `doc`
    /// (ordered window 1 — Indri's `#1(...)`). Convenience wrapper over
    /// [`Index::phrase_tf_with`] for callers without a scratch.
    pub fn phrase_tf(&self, terms: &[TermId], doc: DocId) -> u32 {
        self.phrase_tf_with(terms, doc, &mut PositionalScratch::default())
    }

    /// [`Index::phrase_tf`] with caller-provided scratch buffers: the
    /// position lists of the non-leading terms are staged in `scratch`
    /// instead of a per-call allocation, so a postings driver scanning
    /// thousands of candidate documents allocates nothing after warm-up.
    pub fn phrase_tf_with(
        &self,
        terms: &[TermId],
        doc: DocId,
        scratch: &mut PositionalScratch,
    ) -> u32 {
        match terms.len() {
            0 => 0,
            1 => self.tf(terms[0], doc),
            _ => {
                let first = self.postings(terms[0]).positions(doc);
                if first.is_empty() {
                    return 0;
                }
                if !scratch.stage(self, &terms[1..], doc) {
                    return 0;
                }
                let mut count = 0;
                for &p in first {
                    if scratch.bounds.iter().enumerate().all(|(i, &(lo, hi))| {
                        let offset =
                            u32::try_from(i + 1).expect("invariant: phrase length fits in u32");
                        scratch.pos[lo as usize..hi as usize]
                            .binary_search(&(p + offset))
                            .is_ok()
                    }) {
                        count += 1;
                    }
                }
                count
            }
        }
    }

    /// All documents containing the exact phrase, with phrase frequencies.
    /// Documents come out in id order.
    pub fn phrase_postings(&self, terms: &[TermId]) -> Vec<(DocId, u32)> {
        let mut out = Vec::new();
        self.phrase_postings_with(terms, &mut PositionalScratch::default(), &mut out);
        out
    }

    /// [`Index::phrase_postings`] with reusable buffers: the
    /// per-candidate-document phrase scans stage their position lists in
    /// `scratch`, and the postings are appended to `out`.
    pub fn phrase_postings_with(
        &self,
        terms: &[TermId],
        scratch: &mut PositionalScratch,
        out: &mut Vec<(DocId, u32)>,
    ) {
        if terms.is_empty() {
            return;
        }
        if let [t] = terms {
            out.extend(self.postings(*t).iter());
            return;
        }
        // Drive from the rarest term to keep the intersection small.
        let rarest = terms
            .iter()
            .min_by_key(|&&t| self.postings(t).doc_freq())
            .copied()
            .expect("invariant: terms checked non-empty above, so a rarest term exists");
        for (doc, _) in self.postings(rarest).iter() {
            let tf = self.phrase_tf_with(terms, doc, scratch);
            if tf > 0 {
                out.push((doc, tf));
            }
        }
    }

    /// Iterates the distinct terms of a document with their frequencies
    /// (the forward index used by relevance-model feedback).
    pub fn doc_terms(&self, d: DocId) -> impl Iterator<Item = (TermId, u32)> + '_ {
        let lo = self.fwd_offsets[d.index()] as usize;
        let hi = self.fwd_offsets[d.index() + 1] as usize;
        self.fwd_terms[lo..hi]
            .iter()
            .zip(self.fwd_tfs[lo..hi].iter())
            .map(|(&t, &f)| (TermId(t), f))
    }

    /// Serializes the index to JSON (human-diffable persistence; binary
    /// persistence lives in `sqe-store`).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Restores an index from [`Index::to_json`] output. The decoded
    /// sections are shape-validated before the index is returned, so a
    /// structurally inconsistent payload is a typed error here rather
    /// than a latent fault for the debug-only audit to catch.
    pub fn from_json(json: &str) -> Result<Index, IndexDecodeError> {
        let index: Index = serde_json::from_str(json).map_err(IndexDecodeError::Json)?;
        index.validate_shape()?;
        Ok(index)
    }

    /// Dictionary terms in id order; read-only access for binary
    /// persistence.
    #[inline]
    pub fn terms(&self) -> &[String] {
        &self.terms
    }

    /// External document ids in [`DocId`] order.
    #[inline]
    pub fn external_ids(&self) -> &[String] {
        &self.external_ids
    }

    /// Per-document token counts.
    #[inline]
    pub fn doc_lens(&self) -> &[u32] {
        &self.doc_lens
    }

    /// Per-term collection frequencies.
    #[inline]
    pub fn coll_tfs(&self) -> &[u64] {
        &self.coll_tf
    }

    /// All per-term postings in [`TermId`] order.
    #[inline]
    pub fn all_postings(&self) -> &[TermPostings] {
        &self.postings
    }

    /// Forward-index offsets (`num_docs + 1` entries).
    #[inline]
    pub fn fwd_offsets(&self) -> &[u32] {
        &self.fwd_offsets
    }

    /// Forward-index term ids, sliced per document by
    /// [`Index::fwd_offsets`].
    #[inline]
    pub fn fwd_terms(&self) -> &[u32] {
        &self.fwd_terms
    }

    /// Forward-index term frequencies parallel to [`Index::fwd_terms`].
    #[inline]
    pub fn fwd_tfs(&self) -> &[u32] {
        &self.fwd_tfs
    }

    /// Reassembles an index from decoded sections, deriving the term
    /// dictionary from `terms` and shape-validating the result. This is
    /// the only way to construct an [`Index`] from untrusted bytes;
    /// callers are expected to follow up with an `IndexAudit` when the
    /// bytes cross a trust boundary (the snapshot store does).
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        analyzer: Analyzer,
        terms: Vec<String>,
        postings: Vec<TermPostings>,
        external_ids: Vec<String>,
        doc_lens: Vec<u32>,
        collection_len: u64,
        coll_tf: Vec<u64>,
        fwd_offsets: Vec<u32>,
        fwd_terms: Vec<u32>,
        fwd_tfs: Vec<u32>,
    ) -> Result<Index, IndexShapeError> {
        let mut dict = FxHashMap::default();
        dict.reserve(terms.len());
        for (id, term) in terms.iter().enumerate() {
            let id = u32::try_from(id).map_err(|_| IndexShapeError::SectionLenMismatch {
                section: "terms",
                len: terms.len(),
                expected: u32::MAX as usize,
            })?;
            if dict.insert(term.clone(), id).is_some() {
                return Err(IndexShapeError::DuplicateTerm { term: id });
            }
        }
        let index = Index {
            analyzer,
            dict,
            terms,
            postings,
            external_ids,
            doc_lens,
            collection_len,
            coll_tf,
            fwd_offsets,
            fwd_terms,
            fwd_tfs,
        };
        index.validate_shape()?;
        Ok(index)
    }

    /// Like [`Index::from_raw_parts`], but validates with one full
    /// [`crate::audit::IndexAudit`] pass instead of `validate_shape`
    /// followed by a separate audit: the audit checks a strict superset
    /// of the shape invariants (it tolerates malformed shapes and
    /// reports them as violations), so snapshot loaders get identical
    /// coverage from a single scan over the postings. Duplicate terms
    /// surface as a `DictNotBijective` violation. On failure the audit
    /// is returned so callers can attach its report to their error.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts_audited(
        analyzer: Analyzer,
        terms: Vec<String>,
        postings: Vec<TermPostings>,
        external_ids: Vec<String>,
        doc_lens: Vec<u32>,
        collection_len: u64,
        coll_tf: Vec<u64>,
        fwd_offsets: Vec<u32>,
        fwd_terms: Vec<u32>,
        fwd_tfs: Vec<u32>,
    ) -> Result<Index, crate::audit::IndexAudit> {
        let mut dict = FxHashMap::default();
        dict.reserve(terms.len());
        for (id, term) in terms.iter().enumerate() {
            // Duplicate or overflowing ids leave the dict smaller than
            // the term table; the audit reports that as DictNotBijective.
            if let Ok(id) = u32::try_from(id) {
                dict.entry(term.clone()).or_insert(id);
            }
        }
        let index = Index {
            analyzer,
            dict,
            terms,
            postings,
            external_ids,
            doc_lens,
            collection_len,
            coll_tf,
            fwd_offsets,
            fwd_terms,
            fwd_tfs,
        };
        let audit = crate::audit::IndexAudit::run(&index);
        if audit.is_clean() {
            Ok(index)
        } else {
            Err(audit)
        }
    }

    /// Cheap structural validation of the section shapes: parallel-array
    /// lengths, offset monotonicity and prefix-sum terminals, and id
    /// bounds. Runs on every decode path; deeper semantic invariants
    /// (sortedness, derived statistics) remain the `IndexAudit`'s job.
    pub fn validate_shape(&self) -> Result<(), IndexShapeError> {
        let num_docs = self.external_ids.len();
        let num_terms = self.terms.len();
        if self.doc_lens.len() != num_docs {
            return Err(IndexShapeError::SectionLenMismatch {
                section: "doc_lens",
                len: self.doc_lens.len(),
                expected: num_docs,
            });
        }
        if self.coll_tf.len() != num_terms {
            return Err(IndexShapeError::SectionLenMismatch {
                section: "coll_tf",
                len: self.coll_tf.len(),
                expected: num_terms,
            });
        }
        if self.postings.len() != num_terms {
            return Err(IndexShapeError::SectionLenMismatch {
                section: "postings",
                len: self.postings.len(),
                expected: num_terms,
            });
        }
        if self.dict.len() != num_terms {
            return Err(IndexShapeError::SectionLenMismatch {
                section: "dict",
                len: self.dict.len(),
                expected: num_terms,
            });
        }
        for (tid, p) in self.postings.iter().enumerate() {
            let term = u32::try_from(tid).map_err(|_| IndexShapeError::SectionLenMismatch {
                section: "postings",
                len: self.postings.len(),
                expected: u32::MAX as usize,
            })?;
            if p.tfs.len() != p.docs.len() || p.pos_offsets.len() != p.docs.len() + 1 {
                return Err(IndexShapeError::PostingArraysMismatch {
                    term,
                    docs: p.docs.len(),
                    tfs: p.tfs.len(),
                    pos_offsets: p.pos_offsets.len(),
                });
            }
            let pos_ok = p.pos_offsets.first() == Some(&0)
                && p.pos_offsets.windows(2).all(|w| w[0] <= w[1])
                && p.pos_offsets.last().map(|&l| l as usize) == Some(p.positions.len());
            if !pos_ok {
                return Err(IndexShapeError::PosOffsetsMalformed { term });
            }
            if let Some(&doc) = p.docs.iter().find(|&&d| d as usize >= num_docs) {
                return Err(IndexShapeError::DocOutOfBounds {
                    term,
                    doc,
                    num_docs,
                });
            }
        }
        let fwd_shape_ok = self.fwd_offsets.len() == num_docs + 1
            && self.fwd_offsets.first() == Some(&0)
            && self.fwd_offsets.windows(2).all(|w| w[0] <= w[1])
            && self.fwd_offsets.last().map(|&l| l as usize) == Some(self.fwd_terms.len());
        if !fwd_shape_ok {
            return Err(IndexShapeError::FwdOffsetsMalformed {
                docs: num_docs,
                offsets_len: self.fwd_offsets.len(),
            });
        }
        if self.fwd_tfs.len() != self.fwd_terms.len() {
            return Err(IndexShapeError::SectionLenMismatch {
                section: "fwd_tfs",
                len: self.fwd_tfs.len(),
                expected: self.fwd_terms.len(),
            });
        }
        if let Some(&term) = self.fwd_terms.iter().find(|&&t| t as usize >= num_terms) {
            return Err(IndexShapeError::FwdTermOutOfBounds { term, num_terms });
        }
        Ok(())
    }

    /// Analyzes raw text with the index's analyzer and maps the tokens to
    /// term ids (`None` for out-of-vocabulary tokens).
    pub fn analyze_to_terms(&self, text: &str) -> Vec<Option<TermId>> {
        self.analyzer
            .analyze(text)
            .iter()
            .map(|t| self.term_id(t))
            .collect()
    }
}

/// Mutable views of a term's raw posting arrays, exposed only under the
/// `validate` feature for the auditor's corruption tests.
#[cfg(feature = "validate")]
// lint:allow(persist-types-derive-serde) — borrowed test-only view, never persisted
pub struct TermPostingsRawMut<'a> {
    /// Sorted document list.
    pub docs: &'a mut Vec<u32>,
    /// Term frequencies parallel to `docs`.
    pub tfs: &'a mut Vec<u32>,
    /// Position-slice offsets (`docs.len() + 1` entries).
    pub pos_offsets: &'a mut Vec<u32>,
    /// Flat position array.
    pub positions: &'a mut Vec<u32>,
}

#[cfg(feature = "validate")]
impl TermPostings {
    /// Mutable access to the raw posting arrays. Mutating through this view
    /// can break every invariant the query layer relies on; it exists so
    /// the auditor's tests can seed specific corruption classes.
    pub fn raw_mut(&mut self) -> TermPostingsRawMut<'_> {
        TermPostingsRawMut {
            docs: &mut self.docs,
            tfs: &mut self.tfs,
            pos_offsets: &mut self.pos_offsets,
            positions: &mut self.positions,
        }
    }
}

/// Mutable views of every raw index component, exposed only under the
/// `validate` feature for the auditor's corruption tests.
#[cfg(feature = "validate")]
// lint:allow(persist-types-derive-serde) — borrowed test-only view, never persisted
pub struct IndexRawMut<'a> {
    /// Per-term postings.
    pub postings: &'a mut Vec<TermPostings>,
    /// Per-document token counts.
    pub doc_lens: &'a mut Vec<u32>,
    /// Total collection token count.
    pub collection_len: &'a mut u64,
    /// Per-term collection frequencies.
    pub coll_tf: &'a mut Vec<u64>,
    /// Forward-index offsets (`num_docs + 1` entries).
    pub fwd_offsets: &'a mut Vec<u32>,
    /// Forward-index term ids.
    pub fwd_terms: &'a mut Vec<u32>,
    /// Forward-index frequencies parallel to `fwd_terms`.
    pub fwd_tfs: &'a mut Vec<u32>,
    /// External document ids.
    pub external_ids: &'a mut Vec<String>,
}

#[cfg(feature = "validate")]
impl Index {
    /// Mutable access to the raw index components. Same caveat as
    /// [`TermPostings::raw_mut`]: for corruption tests only.
    pub fn raw_mut(&mut self) -> IndexRawMut<'_> {
        IndexRawMut {
            postings: &mut self.postings,
            doc_lens: &mut self.doc_lens,
            collection_len: &mut self.collection_len,
            coll_tf: &mut self.coll_tf,
            fwd_offsets: &mut self.fwd_offsets,
            fwd_terms: &mut self.fwd_terms,
            fwd_tfs: &mut self.fwd_tfs,
            external_ids: &mut self.external_ids,
        }
    }

    /// Re-derives every index invariant from the raw arrays; called by
    /// [`crate::audit::IndexAudit::run`]. Lives here because the fields are
    /// module-private.
    pub(crate) fn audit_violations(&self) -> Vec<crate::audit::IndexViolation> {
        use crate::audit::IndexViolation as V;
        let mut v = Vec::new();
        let num_docs = self.external_ids.len();
        let num_terms = self.terms.len();

        if self.doc_lens.len() != num_docs {
            v.push(V::DocLensLenMismatch {
                docs: num_docs,
                doc_lens: self.doc_lens.len(),
            });
        }
        let derived_coll: u64 = self.doc_lens.iter().map(|&l| l as u64).sum();
        if derived_coll != self.collection_len {
            v.push(V::CollectionLenMismatch {
                stored: self.collection_len,
                derived: derived_coll,
            });
        }
        if self.postings.len() != num_terms {
            v.push(V::PostingsLenMismatch {
                terms: num_terms,
                postings: self.postings.len(),
            });
        }
        if self.coll_tf.len() != num_terms {
            v.push(V::CollTfLenMismatch {
                terms: num_terms,
                coll_tf: self.coll_tf.len(),
            });
        }

        let dict_ok = self.dict.len() == num_terms
            && self
                .terms
                .iter()
                .enumerate()
                .all(|(i, t)| self.dict.get(t) == Some(&(i as u32)));
        if !dict_ok {
            v.push(V::DictNotBijective {
                dict: self.dict.len(),
                terms: num_terms,
            });
        }

        let mut seen = rustc_hash::FxHashSet::default();
        for id in &self.external_ids {
            if !seen.insert(id.as_str()) {
                v.push(V::DuplicateExternalId {
                    external_id: id.clone(),
                });
            }
        }

        // Postings: per-term structure plus the derived statistics that
        // the stored summaries must agree with.
        let mut derived_doc_len = vec![0u64; num_docs];
        for (tid, p) in self.postings.iter().enumerate() {
            let term = u32::try_from(tid).expect("invariant: term count fits in u32 ids");
            if p.tfs.len() != p.docs.len() || p.pos_offsets.len() != p.docs.len() + 1 {
                v.push(V::PostingArraysMismatch {
                    term,
                    docs: p.docs.len(),
                    tfs: p.tfs.len(),
                    pos_offsets: p.pos_offsets.len(),
                });
                continue; // parallel iteration below would misalign
            }
            if !p.docs.windows(2).all(|w| w[0] < w[1]) {
                v.push(V::PostingsNotSorted { term });
            }
            let pos_ok = p.pos_offsets.first() == Some(&0)
                && p.pos_offsets.windows(2).all(|w| w[0] <= w[1])
                && p.pos_offsets.last().map(|&l| l as usize) == Some(p.positions.len());
            if !pos_ok {
                v.push(V::PosOffsetsMalformed { term });
            }
            let mut derived_ctf = 0u64;
            for (i, (&doc, &tf)) in p.docs.iter().zip(p.tfs.iter()).enumerate() {
                derived_ctf += tf as u64;
                if (doc as usize) < num_docs {
                    derived_doc_len[doc as usize] += tf as u64;
                } else {
                    v.push(V::DocOutOfBounds {
                        term,
                        doc,
                        num_docs,
                    });
                }
                if tf == 0 {
                    v.push(V::ZeroTf { term, doc });
                }
                if pos_ok {
                    let lo = p.pos_offsets[i] as usize;
                    let hi = p.pos_offsets[i + 1] as usize;
                    let slice = &p.positions[lo..hi];
                    if slice.len() != tf as usize || !slice.windows(2).all(|w| w[0] < w[1]) {
                        v.push(V::PositionsTfMismatch {
                            term,
                            doc,
                            tf,
                            positions: slice.len(),
                        });
                    }
                    if let Some(&doc_len) = self.doc_lens.get(doc as usize) {
                        for &pos in slice {
                            if pos >= doc_len {
                                v.push(V::PositionOutOfDoc {
                                    term,
                                    doc,
                                    pos,
                                    doc_len,
                                });
                            }
                        }
                    }
                }
            }
            if let Some(&stored) = self.coll_tf.get(tid) {
                if stored != derived_ctf {
                    v.push(V::CollTfMismatch {
                        term,
                        stored,
                        derived: derived_ctf,
                    });
                }
            }
        }
        if self.doc_lens.len() == num_docs {
            for (d, (&stored, &derived)) in
                self.doc_lens.iter().zip(derived_doc_len.iter()).enumerate()
            {
                if stored as u64 != derived {
                    v.push(V::DocLenMismatch {
                        doc: d as u32,
                        stored,
                        derived,
                    });
                }
            }
        }

        // Forward index: shape, then exact agreement with the postings.
        let fwd_shape_ok = self.fwd_offsets.len() == num_docs + 1
            && self.fwd_offsets.first() == Some(&0)
            && self.fwd_offsets.windows(2).all(|w| w[0] <= w[1])
            && self.fwd_offsets.last().map(|&l| l as usize) == Some(self.fwd_terms.len());
        if !fwd_shape_ok {
            v.push(V::FwdOffsetsMalformed {
                docs: num_docs,
                offsets_len: self.fwd_offsets.len(),
            });
        }
        if self.fwd_terms.len() != self.fwd_tfs.len() {
            v.push(V::FwdArraysMismatch {
                fwd_terms: self.fwd_terms.len(),
                fwd_tfs: self.fwd_tfs.len(),
            });
        } else if fwd_shape_ok {
            // Docs are visited in ascending order and each term's posting
            // docs are ascending too, so a per-term cursor replaces a
            // per-entry binary search: total work is O(entries + terms)
            // instead of O(entries · log postings), which keeps the full
            // audit cheap enough to run on every snapshot load. When a
            // posting list is unsorted the cursor can misread the tf, but
            // that index was already reported via `PostingsNotSorted`.
            let mut cursors = vec![0usize; self.postings.len()];
            for d in 0..num_docs {
                let lo = self.fwd_offsets[d] as usize;
                let hi = self.fwd_offsets[d + 1] as usize;
                for (&t, &f) in self.fwd_terms[lo..hi]
                    .iter()
                    .zip(self.fwd_tfs[lo..hi].iter())
                {
                    match self.postings.get(t as usize) {
                        None => v.push(V::FwdTermOutOfBounds {
                            doc: d as u32,
                            term: t,
                            num_terms: self.postings.len(),
                        }),
                        // Skip tf cross-check when the postings arrays are
                        // misaligned (already reported above).
                        Some(p) if p.tfs.len() == p.docs.len() => {
                            let c = &mut cursors[t as usize];
                            while *c < p.docs.len() && (p.docs[*c] as usize) < d {
                                *c += 1;
                            }
                            let inverted = match p.docs.get(*c) {
                                Some(&doc) if doc as usize == d => p.tfs[*c],
                                _ => 0,
                            };
                            if inverted != f {
                                v.push(V::FwdTfMismatch {
                                    doc: d as u32,
                                    term: t,
                                    forward: f,
                                    inverted,
                                });
                            }
                        }
                        Some(_) => {}
                    }
                }
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_distinct_raw_token_is_analyzed_once_per_builder() {
        let mut b = IndexBuilder::new(Analyzer::english());
        b.add_document("d0", "The cable cars; the CABLE cars")
            .expect("unique external ids");
        // The, cable, cars, the, CABLE: 5 distinct raw tokens.
        assert_eq!(b.raw_tokens_analyzed(), 5);
        b.add_document("d1", "cable cars of the cable")
            .expect("unique external ids");
        assert_eq!(b.raw_tokens_analyzed(), 6, "only `of` is new");
        assert!(b.add_document("d1", "funicular").is_err());
        assert_eq!(
            b.raw_tokens_analyzed(),
            6,
            "a rejected document is not analyzed"
        );
        let index = b.build();
        assert_eq!(index.terms(), ["cabl", "car"]);
        assert_eq!(index.doc_lens(), [4, 3]);
        // A fresh builder starts with an empty memo.
        let mut b = IndexBuilder::new(Analyzer::english());
        b.add_document("d0", "cable cable")
            .expect("unique external ids");
        assert_eq!(b.raw_tokens_analyzed(), 1);
    }

    fn tiny() -> Index {
        let mut b = IndexBuilder::new(Analyzer::plain());
        b.add_document("d0", "cable car climbs the hill")
            .expect("unique external ids");
        b.add_document("d1", "cable car cable car")
            .expect("unique external ids");
        b.add_document("d2", "the hill of graffiti")
            .expect("unique external ids");
        b.build()
    }

    #[test]
    fn duplicate_external_id_is_rejected() {
        let mut b = IndexBuilder::new(Analyzer::plain());
        let d0 = b.add_document("dup", "first body").expect("fresh id");
        let err = b.add_document("dup", "second body").unwrap_err();
        assert_eq!(
            err,
            IndexBuildError::DuplicateExternalId {
                external_id: "dup".to_owned()
            }
        );
        assert!(err.to_string().contains("dup"), "{err}");
        // The rejected call must leave the builder unchanged.
        assert_eq!(b.num_docs(), 1);
        let idx = b.build();
        assert_eq!(idx.num_docs(), 1);
        assert_eq!(idx.external_id(d0), "dup");
        assert_eq!(idx.collection_len(), 2);
    }

    #[test]
    fn basic_counts() {
        let idx = tiny();
        assert_eq!(idx.num_docs(), 3);
        assert_eq!(idx.collection_len(), 5 + 4 + 4);
        assert_eq!(idx.doc_len(DocId(1)), 4);
        assert_eq!(idx.external_id(DocId(2)), "d2");
    }

    #[test]
    fn term_stats() {
        let idx = tiny();
        let cable = idx.term_id("cable").unwrap();
        assert_eq!(idx.collection_tf(cable), 3);
        assert_eq!(idx.postings(cable).doc_freq(), 2);
        assert_eq!(idx.tf(cable, DocId(1)), 2);
        assert_eq!(idx.tf(cable, DocId(2)), 0);
    }

    #[test]
    fn positions_are_recorded() {
        let idx = tiny();
        let car = idx.term_id("car").unwrap();
        assert_eq!(idx.postings(car).positions(DocId(1)), &[1, 3]);
        assert_eq!(idx.postings(car).positions(DocId(2)), &[0u32; 0]);
    }

    #[test]
    fn phrase_tf_counts_adjacent_pairs() {
        let idx = tiny();
        let cable = idx.term_id("cable").unwrap();
        let car = idx.term_id("car").unwrap();
        assert_eq!(idx.phrase_tf(&[cable, car], DocId(0)), 1);
        assert_eq!(idx.phrase_tf(&[cable, car], DocId(1)), 2);
        assert_eq!(idx.phrase_tf(&[car, cable], DocId(0)), 0);
        assert_eq!(idx.phrase_tf(&[cable, car], DocId(2)), 0);
    }

    #[test]
    fn phrase_postings_intersects() {
        let idx = tiny();
        let cable = idx.term_id("cable").unwrap();
        let car = idx.term_id("car").unwrap();
        let posts = idx.phrase_postings(&[cable, car]);
        assert_eq!(posts, vec![(DocId(0), 1), (DocId(1), 2)]);
    }

    #[test]
    fn single_term_phrase_equals_term_postings() {
        let idx = tiny();
        let hill = idx.term_id("hill").unwrap();
        let posts = idx.phrase_postings(&[hill]);
        assert_eq!(posts, vec![(DocId(0), 1), (DocId(2), 1)]);
    }

    #[test]
    fn collection_prob_floors_oov() {
        let idx = tiny();
        let p = idx.collection_prob(None);
        assert!(p > 0.0);
        assert!(p < idx.collection_prob(idx.term_id("cable")));
    }

    #[test]
    fn empty_document_is_allowed() {
        let mut b = IndexBuilder::new(Analyzer::english());
        let d = b
            .add_document("empty", "the of and")
            .expect("unique external ids");
        let idx = b.build();
        assert_eq!(idx.doc_len(d), 0);
        assert_eq!(idx.num_docs(), 1);
    }

    #[test]
    fn analyze_to_terms_maps_oov_to_none() {
        let idx = tiny();
        let ids = idx.analyze_to_terms("cable spaceship");
        assert!(ids[0].is_some());
        assert!(ids[1].is_none());
    }

    #[test]
    fn forward_index_matches_postings() {
        let idx = tiny();
        let terms: Vec<(String, u32)> = idx
            .doc_terms(DocId(1))
            .map(|(t, f)| (idx.term(t).to_owned(), f))
            .collect();
        assert_eq!(terms, vec![("cable".to_owned(), 2), ("car".to_owned(), 2)]);
        // Forward tf must agree with inverted tf for every (doc, term).
        for d in 0..idx.num_docs() as u32 {
            for (t, f) in idx.doc_terms(DocId(d)) {
                assert_eq!(idx.tf(t, DocId(d)), f);
            }
        }
    }

    #[test]
    fn index_json_roundtrip_preserves_retrieval() {
        use crate::ql::{self, QlParams};
        use crate::structured::Query;
        let idx = tiny();
        let restored = Index::from_json(&idx.to_json().unwrap()).unwrap();
        assert_eq!(restored.num_docs(), idx.num_docs());
        assert_eq!(restored.collection_len(), idx.collection_len());
        let q = Query::parse_text("cable car", &Analyzer::plain());
        let h1 = ql::rank(
            &crate::Searcher::from_index(idx),
            &q,
            QlParams { mu: 10.0 },
            5,
        );
        let h2 = ql::rank(
            &crate::Searcher::from_index(restored),
            &q,
            QlParams { mu: 10.0 },
            5,
        );
        assert_eq!(h1, h2, "retrieval must be identical after reload");
    }

    #[test]
    fn from_json_rejects_inconsistent_sections() {
        let idx = tiny();
        // Reassemble with a truncated doc_lens section: valid JSON for the
        // schema, structurally inconsistent as an index.
        let err = Index::from_raw_parts(
            idx.analyzer().clone(),
            idx.terms().to_vec(),
            idx.all_postings().to_vec(),
            idx.external_ids().to_vec(),
            idx.doc_lens()[..idx.num_docs() - 1].to_vec(),
            idx.collection_len(),
            idx.coll_tfs().to_vec(),
            idx.fwd_offsets().to_vec(),
            idx.fwd_terms().to_vec(),
            idx.fwd_tfs().to_vec(),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                IndexShapeError::SectionLenMismatch {
                    section: "doc_lens",
                    ..
                }
            ),
            "{err}"
        );
        // The same inconsistency smuggled through JSON is caught at decode.
        let bad = Index {
            analyzer: idx.analyzer().clone(),
            dict: idx.dict.clone(),
            terms: idx.terms().to_vec(),
            postings: idx.all_postings().to_vec(),
            external_ids: idx.external_ids().to_vec(),
            doc_lens: idx.doc_lens()[..idx.num_docs() - 1].to_vec(),
            collection_len: idx.collection_len(),
            coll_tf: idx.coll_tfs().to_vec(),
            fwd_offsets: idx.fwd_offsets().to_vec(),
            fwd_terms: idx.fwd_terms().to_vec(),
            fwd_tfs: idx.fwd_tfs().to_vec(),
        };
        let err = Index::from_json(&bad.to_json().unwrap()).unwrap_err();
        assert!(matches!(err, IndexDecodeError::Shape(_)), "{err}");
        assert!(matches!(
            Index::from_json("not json").unwrap_err(),
            IndexDecodeError::Json(_)
        ));
    }

    #[test]
    fn raw_parts_roundtrip_reconstructs_identical_index() {
        let idx = tiny();
        let restored = Index::from_raw_parts(
            idx.analyzer().clone(),
            idx.terms().to_vec(),
            idx.all_postings().to_vec(),
            idx.external_ids().to_vec(),
            idx.doc_lens().to_vec(),
            idx.collection_len(),
            idx.coll_tfs().to_vec(),
            idx.fwd_offsets().to_vec(),
            idx.fwd_terms().to_vec(),
            idx.fwd_tfs().to_vec(),
        )
        .unwrap();
        assert_eq!(restored.num_docs(), idx.num_docs());
        assert_eq!(restored.num_terms(), idx.num_terms());
        let cable = restored.term_id("cable").unwrap();
        assert_eq!(restored.tf(cable, DocId(1)), 2);
        assert!(crate::audit::IndexAudit::run(&restored).is_clean());
    }

    #[test]
    fn stemming_analyzer_normalizes_documents_and_queries_alike() {
        let mut b = IndexBuilder::new(Analyzer::english());
        b.add_document("d", "funiculars climbing hills")
            .expect("unique external ids");
        let idx = b.build();
        let ids = idx.analyze_to_terms("funicular climbs hill");
        assert!(ids.iter().all(|t| t.is_some()));
    }
}
