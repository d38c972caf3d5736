//! Structural invariant auditor for [`Index`] (feature `validate`).
//!
//! Retrieval assumes far more about the index than the type system can
//! express: binary-search `tf`/`positions` lookups need sorted postings,
//! Dirichlet smoothing needs `collection_len`, `coll_tf` and `doc_lens` to
//! agree with the postings they summarize, and relevance-model feedback
//! needs the forward index to mirror the inverted one exactly. An index
//! deserialized from JSON can violate any of these silently — scores come
//! out plausible but wrong. [`IndexAudit`] re-derives every derived
//! statistic from the postings and cross-checks all parallel structures,
//! reporting each mismatch as a typed [`IndexViolation`].

use std::fmt;

use crate::index::Index;

/// One violated index invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexViolation {
    /// A term's posting list is not strictly ascending by document id
    /// (unsorted or duplicated), which breaks binary-search lookups.
    PostingsNotSorted {
        /// The offending term.
        term: u32,
    },
    /// A posting names a document outside the collection.
    DocOutOfBounds {
        /// The term whose postings contain the bad entry.
        term: u32,
        /// The out-of-range document id.
        doc: u32,
        /// Number of documents in the collection.
        num_docs: usize,
    },
    /// `docs`, `tfs` and `pos_offsets` disagree about how many postings
    /// the term has.
    PostingArraysMismatch {
        /// The offending term.
        term: u32,
        /// `docs.len()`.
        docs: usize,
        /// `tfs.len()`.
        tfs: usize,
        /// `pos_offsets.len()` (must be `docs + 1`).
        pos_offsets: usize,
    },
    /// A posting records a zero term frequency (a term cannot occur zero
    /// times in a document it has a posting for).
    ZeroTf {
        /// The offending term.
        term: u32,
        /// The document with the zero count.
        doc: u32,
    },
    /// `pos_offsets` is not monotonic or does not end at `positions.len()`.
    PosOffsetsMalformed {
        /// The offending term.
        term: u32,
    },
    /// The position slice of one posting is unsorted, or its length
    /// disagrees with the recorded term frequency.
    PositionsTfMismatch {
        /// The offending term.
        term: u32,
        /// The offending document.
        doc: u32,
        /// Recorded term frequency.
        tf: u32,
        /// Actual number of recorded positions.
        positions: usize,
    },
    /// A recorded position is at or past the document's length.
    PositionOutOfDoc {
        /// The offending term.
        term: u32,
        /// The offending document.
        doc: u32,
        /// The out-of-range position.
        pos: u32,
        /// The document's stored length.
        doc_len: u32,
    },
    /// The postings table has a different length than the term table
    /// (some terms would have no posting list, or lists no term).
    PostingsLenMismatch {
        /// Number of terms.
        terms: usize,
        /// `postings.len()`.
        postings: usize,
    },
    /// `coll_tf` has a different length than the term table.
    CollTfLenMismatch {
        /// Number of terms.
        terms: usize,
        /// `coll_tf.len()`.
        coll_tf: usize,
    },
    /// A term's stored collection frequency disagrees with the sum of its
    /// posting frequencies.
    CollTfMismatch {
        /// The offending term.
        term: u32,
        /// Stored collection frequency.
        stored: u64,
        /// Frequency derived from the postings.
        derived: u64,
    },
    /// `collection_len` disagrees with the sum of document lengths.
    CollectionLenMismatch {
        /// Stored collection length.
        stored: u64,
        /// Length derived from `doc_lens`.
        derived: u64,
    },
    /// `doc_lens` has a different length than the document table.
    DocLensLenMismatch {
        /// Number of documents.
        docs: usize,
        /// `doc_lens.len()`.
        doc_lens: usize,
    },
    /// A document's stored length disagrees with the sum of its term
    /// frequencies across all postings.
    DocLenMismatch {
        /// The offending document.
        doc: u32,
        /// Stored length.
        stored: u32,
        /// Length derived from the postings.
        derived: u64,
    },
    /// The term dictionary is not a bijection onto the term table
    /// (wrong size, unknown string, or id mismatch).
    DictNotBijective {
        /// Dictionary size.
        dict: usize,
        /// Term table size.
        terms: usize,
    },
    /// Two documents share an external id, breaking the external↔dense
    /// id bijection.
    DuplicateExternalId {
        /// The ambiguous external id.
        external_id: String,
    },
    /// The forward index offsets are malformed (wrong length, not
    /// monotonic, or not ending at the forward array length).
    FwdOffsetsMalformed {
        /// Number of documents.
        docs: usize,
        /// `fwd_offsets.len()`.
        offsets_len: usize,
    },
    /// `fwd_terms` and `fwd_tfs` have different lengths.
    FwdArraysMismatch {
        /// `fwd_terms.len()`.
        fwd_terms: usize,
        /// `fwd_tfs.len()`.
        fwd_tfs: usize,
    },
    /// A forward-index entry names a term outside the term table.
    FwdTermOutOfBounds {
        /// The document whose forward list is bad.
        doc: u32,
        /// The out-of-range term id.
        term: u32,
        /// Number of terms.
        num_terms: usize,
    },
    /// A forward-index frequency disagrees with the inverted index.
    FwdTfMismatch {
        /// The offending document.
        doc: u32,
        /// The offending term.
        term: u32,
        /// Frequency recorded in the forward index.
        forward: u32,
        /// Frequency recorded in the inverted postings.
        inverted: u32,
    },
}

impl fmt::Display for IndexViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexViolation::PostingsNotSorted { term } => {
                write!(f, "term {term}: postings not sorted+deduplicated")
            }
            IndexViolation::DocOutOfBounds {
                term,
                doc,
                num_docs,
            } => write!(
                f,
                "term {term}: posting names doc {doc} outside collection of {num_docs}"
            ),
            IndexViolation::PostingArraysMismatch {
                term,
                docs,
                tfs,
                pos_offsets,
            } => write!(
                f,
                "term {term}: parallel postings arrays disagree \
                 (docs={docs}, tfs={tfs}, pos_offsets={pos_offsets})"
            ),
            IndexViolation::ZeroTf { term, doc } => {
                write!(f, "term {term}: zero tf recorded for doc {doc}")
            }
            IndexViolation::PosOffsetsMalformed { term } => {
                write!(f, "term {term}: pos_offsets not monotonic over positions")
            }
            IndexViolation::PositionsTfMismatch {
                term,
                doc,
                tf,
                positions,
            } => write!(
                f,
                "term {term} doc {doc}: tf {tf} but {positions} positions recorded"
            ),
            IndexViolation::PositionOutOfDoc {
                term,
                doc,
                pos,
                doc_len,
            } => write!(
                f,
                "term {term} doc {doc}: position {pos} >= doc length {doc_len}"
            ),
            IndexViolation::PostingsLenMismatch { terms, postings } => {
                write!(f, "postings table has {postings} entries for {terms} terms")
            }
            IndexViolation::CollTfLenMismatch { terms, coll_tf } => {
                write!(f, "coll_tf has {coll_tf} entries for {terms} terms")
            }
            IndexViolation::CollTfMismatch {
                term,
                stored,
                derived,
            } => write!(
                f,
                "term {term}: stored collection tf {stored} != derived {derived}"
            ),
            IndexViolation::CollectionLenMismatch { stored, derived } => {
                write!(f, "collection_len {stored} != sum of doc lengths {derived}")
            }
            IndexViolation::DocLensLenMismatch { docs, doc_lens } => {
                write!(f, "doc_lens has {doc_lens} entries for {docs} docs")
            }
            IndexViolation::DocLenMismatch {
                doc,
                stored,
                derived,
            } => write!(f, "doc {doc}: stored length {stored} != derived {derived}"),
            IndexViolation::DictNotBijective { dict, terms } => write!(
                f,
                "term dictionary ({dict} entries) is not a bijection onto {terms} terms"
            ),
            IndexViolation::DuplicateExternalId { external_id } => {
                write!(f, "external id {external_id:?} maps to multiple documents")
            }
            IndexViolation::FwdOffsetsMalformed { docs, offsets_len } => write!(
                f,
                "fwd_offsets malformed: {offsets_len} entries for {docs} docs"
            ),
            IndexViolation::FwdArraysMismatch { fwd_terms, fwd_tfs } => write!(
                f,
                "forward index arrays disagree (terms={fwd_terms}, tfs={fwd_tfs})"
            ),
            IndexViolation::FwdTermOutOfBounds {
                doc,
                term,
                num_terms,
            } => write!(
                f,
                "doc {doc}: forward entry names term {term} outside table of {num_terms}"
            ),
            IndexViolation::FwdTfMismatch {
                doc,
                term,
                forward,
                inverted,
            } => write!(
                f,
                "doc {doc} term {term}: forward tf {forward} != inverted tf {inverted}"
            ),
        }
    }
}

/// The result of auditing one [`Index`].
#[derive(Debug, Clone)]
pub struct IndexAudit {
    violations: Vec<IndexViolation>,
}

impl IndexAudit {
    /// Audits every structural invariant of `index`.
    pub fn run(index: &Index) -> Self {
        IndexAudit {
            violations: index.audit_violations(),
        }
    }

    /// All violations found (empty means the index is sound).
    pub fn violations(&self) -> &[IndexViolation] {
        &self.violations
    }

    /// True when no invariant is violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with a full report if any invariant is violated. `context`
    /// names the call site.
    pub fn assert_clean(&self, context: &str) {
        assert!(
            self.is_clean(),
            "index audit failed at {context}:\n{}",
            self.report()
        );
    }

    /// Human-readable multi-line report, one violation per line.
    pub fn report(&self) -> String {
        self.violations
            .iter()
            .map(|v| format!("  - {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    }
}
