//! An Indri-like search-engine substrate for Structural Query Expansion.
//!
//! The paper (Section 2.3 and Section 3) runs its experiments on the Indri
//! engine with a query-likelihood retrieval model. This crate implements
//! the pieces the paper actually uses, from the published formulas:
//!
//! * [`analysis`] — tokenizer, stopword filter and Porter stemmer,
//! * [`index`] — a positional inverted index over a document collection,
//! * [`ql`] — Dirichlet-smoothed query likelihood scoring
//!   (`P(w|D) = (tf + μ·P(w|C)) / (|D| + μ)`, Ponte & Croft / Indri),
//! * [`structured`] — weighted structured queries (terms, exact n-gram
//!   phrases, weighted combination — the `#weight`/`#1` operators the
//!   expanded query of Section 2.3 needs),
//! * [`prf`] — Lavrenko's relevance model (RM1/RM3) pseudo-relevance
//!   feedback used as the PRF comparator in Section 4.3,
//! * [`bm25`] — Okapi BM25 as an alternative ranking function for
//!   retrieval-model sensitivity checks,
//! * [`topk`] — bounded top-k selection with deterministic tie-breaking.
//!
//! The corpus itself is **segmented** (LSM-style): immutable [`Segment`]s
//! behind a stats-merging [`Searcher`] view, with live ingestion through
//! [`SegmentedIndex`] (`add_document` → `seal` → deterministic tiered
//! merges). Scoring is byte-identical however the corpus is partitioned;
//! see [`segment`], [`searcher`] and [`ingest`].
//!
//! # Example
//!
//! ```
//! use searchlite::{Analyzer, SegmentedIndex, ql::QlParams, structured::Query};
//!
//! let analyzer = Analyzer::english();
//! let mut corpus = SegmentedIndex::new(analyzer.clone());
//! corpus
//!     .add_document("d1", "a funicular railway climbing the hillside")
//!     .expect("fresh id");
//! corpus.seal().expect("non-empty buffer");
//! // Later documents land in new segments; existing ones are immutable.
//! corpus
//!     .add_document("d2", "street art painted on city walls")
//!     .expect("fresh id");
//! corpus.seal().expect("non-empty buffer");
//!
//! let searcher = corpus.searcher();
//! let query = Query::parse_text("funicular railway", &analyzer);
//! let hits = searchlite::ql::rank(&searcher, &query, QlParams::default(), 10);
//! assert_eq!(searcher.external_id(hits[0].doc), "d1");
//! ```

pub mod analysis;
#[cfg(feature = "validate")]
pub mod audit;
pub mod bm25;
pub mod index;
pub mod ingest;
pub mod prf;
pub mod ql;
pub mod searcher;
pub mod segment;
pub mod shard;
pub mod stats;
pub mod structured;
pub mod topk;

pub use analysis::Analyzer;
pub use index::{
    DocId, Index, IndexBuildError, IndexBuilder, IndexDecodeError, IndexShapeError,
    PositionalScratch, TermId, TermPostings,
};
pub use ingest::{
    BuiltSegment, IngestError, MergeOutcome, MergeTask, PendingSeal, SealReport, SegmentedIndex,
    TieredMergePolicy,
};
pub use ql::{QlParams, SearchHit};
pub use searcher::Searcher;
pub use segment::Segment;
pub use shard::ShardRouter;
pub use stats::CollectionStats;
pub use structured::{Query, StagedQuery};
