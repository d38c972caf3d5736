//! Dirichlet-smoothed query-likelihood retrieval.
//!
//! Implements the paper's retrieval model (Section 2.3): the query
//! likelihood `P(Q|D) = Π_i P(w_i|D)` with the Dirichlet-smoothed feature
//! function `P(w|D) = (tf_{w,D} + μ·P(w|C)) / (|D| + μ)`, generalized to
//! n-gram (exact phrase) features and per-feature weights:
//!
//! `score(D) = Σ_f (λ_f / Σλ) · log P(f|D)`.
//!
//! Documents are ranked among the candidates that match at least one query
//! feature (standard OR-mode evaluation). Scoring runs against a
//! [`Searcher`], whose merged statistics are exact integer sums over its
//! segments — so the scores (and therefore the ranking) are identical for
//! any partition of the same corpus.
//!
//! There is one scoring kernel for the single-searcher and the sharded
//! paths: resolve the query ([`crate::shard::ql_resolve_shard`]), derive
//! the collection probabilities from exact integer counts
//! ([`crate::shard::ql_global_pcs`]), then walk per-segment postings
//! cursors document at a time. A single searcher is the one-shard case.
//! The kernel computes each feature's `λ/Σλ`, `μ·P(f|C)` and absent-feature
//! term `ln(0 + μ·P(f|C))` once per query and adds the per-feature terms
//! of every document in query order, so each score has the bits the
//! plain formula gives.

use crate::index::{DocId, PositionalScratch};
use crate::searcher::Searcher;
use crate::shard::{self, QlShardResolve, ShardFeature, ShardFeatureKind};
use crate::structured::Query;
use crate::topk::TopK;

/// Parameters of the Dirichlet query-likelihood scorer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QlParams {
    /// Dirichlet smoothing mass μ. Indri's default is 2500; the paper's
    /// short caption-like documents favour a smaller value, configured by
    /// the experiment harness.
    pub mu: f64,
}

impl Default for QlParams {
    fn default() -> Self {
        QlParams { mu: 2500.0 }
    }
}

/// One ranked search result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// The matched document.
    pub doc: DocId,
    /// Weighted log query likelihood.
    pub score: f64,
}

/// Per-query constants of one feature's Dirichlet term.
#[derive(Debug, Clone, Copy)]
struct FeatureConst {
    /// `λ_f / Σλ`.
    coef: f64,
    /// `μ · P(f|C)`.
    mpc: f64,
    /// `ln(0 + μ·P(f|C))`: the log-numerator of a document without `f`.
    absent: f64,
}

/// The per-feature constants for `features` under the gathered `pcs`.
/// Returns `false` when the weights do not sum to a positive total, in
/// which case every candidate scores `-inf`.
fn feature_consts(
    features: &[ShardFeature],
    pcs: &[f64],
    mu: f64,
    out: &mut Vec<FeatureConst>,
) -> bool {
    let total: f64 = features.iter().map(|f| f.weight).sum();
    out.clear();
    out.extend(features.iter().zip(pcs).map(|(f, &pc)| {
        let mpc = mu * pc;
        FeatureConst {
            coef: f.weight / total,
            mpc,
            absent: (0.0 + mpc).ln(),
        }
    }));
    total > 0.0
}

/// Document-length part of the formula, `ln(|D| + μ)`.
fn log_denom(doc_len: u32, mu: f64) -> f64 {
    (f64::from(doc_len) + mu).ln()
}

/// Doc id of an exhausted cursor; real ids are below the doc count.
const END: u32 = u32::MAX;

/// A feature's position in the kernel's postings arena: the current
/// document and its frequency, and the next unread entry of its run.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    doc: u32,
    tf: u32,
    next: usize,
    end: usize,
}

impl Cursor {
    fn advance(&mut self, postings: &[(u32, u32)]) {
        match postings.get(self.next).filter(|_| self.next < self.end) {
            Some(&(doc, tf)) => {
                self.doc = doc;
                self.tf = tf;
                self.next += 1;
            }
            None => self.doc = END,
        }
    }
}

/// Scores a single document, matching or not (used by tests that check
/// the formula against hand calculations).
pub fn score_document(searcher: &Searcher, query: &Query, doc: DocId, params: QlParams) -> f64 {
    let partial = shard::ql_resolve_shard(searcher, query, &mut PositionalScratch::default());
    let pcs = shard::ql_global_pcs(std::slice::from_ref(&partial));
    let mut consts = Vec::new();
    if !feature_consts(&partial.features, &pcs, params.mu, &mut consts) {
        return f64::NEG_INFINITY;
    }
    let denom = log_denom(searcher.doc_len(doc), params.mu);
    let mut score = 0.0;
    for (f, fc) in partial.features.iter().zip(&consts) {
        let tf = match &f.kind {
            ShardFeatureKind::Term(Some(t)) => searcher.tf(*t, doc),
            ShardFeatureKind::Term(None) => 0,
            ShardFeatureKind::Positional(list) => list
                .binary_search_by_key(&doc, |&(d, _)| d)
                .ok()
                .and_then(|i| list.get(i))
                .map_or(0, |&(_, tf)| tf),
        };
        score += fc.coef * ((f64::from(tf) + fc.mpc).ln() - denom);
    }
    score
}

/// Reusable buffers for [`rank_with_scratch`]: the positional staging
/// buffers and the kernel's per-feature constants, cursors, postings
/// arena and top-k heap survive across queries so batch serving does
/// not reallocate them per query.
#[derive(Debug)]
pub struct QlScratch {
    pos: PositionalScratch,
    consts: Vec<FeatureConst>,
    cursors: Vec<Cursor>,
    /// One segment's `(local doc, tf)` postings of every feature,
    /// concatenated in feature order; each run is sorted by doc.
    postings: Vec<(u32, u32)>,
    top: TopK,
}

impl QlScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        QlScratch {
            pos: PositionalScratch::new(),
            consts: Vec::new(),
            cursors: Vec::new(),
            postings: Vec::new(),
            top: TopK::new(0),
        }
    }

    /// The positional staging buffers, for callers that run phrase
    /// intersections outside [`rank_with_scratch`] (the expansion
    /// layer's entity-phrase statistics do).
    pub fn positional(&mut self) -> &mut PositionalScratch {
        &mut self.pos
    }

    /// Phase 2 of QL scoring on one searcher (a shard, or the whole
    /// corpus), the document-at-a-time kernel: scores every document
    /// that matches at least one feature under the gathered `pcs` and
    /// returns the best `k` as `(searcher doc id, score)`, ranked.
    /// Segments are walked in doc order, and within a segment all
    /// cursors advance together over the union of their documents.
    pub(crate) fn rank_partial(
        &mut self,
        searcher: &Searcher,
        partial: &QlShardResolve,
        pcs: &[f64],
        mu: f64,
        k: usize,
    ) -> Vec<(u32, f64)> {
        let features = &partial.features;
        if features.is_empty() {
            return Vec::new();
        }
        let QlScratch {
            consts,
            cursors,
            postings,
            top,
            ..
        } = self;
        let live = feature_consts(features, pcs, mu, consts);
        top.reset(k);
        for (s, base, index) in searcher.segment_bases() {
            let docs = u32::try_from(index.num_docs())
                .expect("invariant: segment doc count fits in u32");
            postings.clear();
            cursors.clear();
            for f in features {
                let start = postings.len();
                match &f.kind {
                    ShardFeatureKind::Term(Some(t)) => {
                        if let Some(p) = searcher.segment_postings(s, *t) {
                            postings.extend(p.docs().iter().copied().zip(p.tfs().iter().copied()));
                        }
                    }
                    ShardFeatureKind::Term(None) => {}
                    ShardFeatureKind::Positional(list) => {
                        // The list is sorted by searcher doc id: this
                        // segment's run starts at the first id ≥ `base`.
                        let lo = list.partition_point(|&(d, _)| d.0 < base);
                        let rest = list.get(lo..).unwrap_or_default();
                        let len = rest.partition_point(|&(d, _)| d.0 - base < docs);
                        let run = rest.get(..len).unwrap_or_default();
                        postings.extend(run.iter().map(|&(d, tf)| (d.0 - base, tf)));
                    }
                }
                let mut cursor = Cursor {
                    doc: END,
                    tf: 0,
                    next: start,
                    end: postings.len(),
                };
                cursor.advance(postings);
                cursors.push(cursor);
            }
            let doc_lens = index.doc_lens();
            let mut doc = cursors.iter().map(|c| c.doc).min().unwrap_or(END);
            while doc != END {
                let len = doc_lens
                    .get(doc as usize)
                    .copied()
                    .expect("invariant: postings reference documents of their segment");
                let denom = log_denom(len, mu);
                let mut score = 0.0;
                let mut next = END;
                for (c, fc) in cursors.iter_mut().zip(consts.iter()) {
                    let log_num = if c.doc == doc {
                        let log_num = (f64::from(c.tf) + fc.mpc).ln();
                        c.advance(postings);
                        log_num
                    } else {
                        fc.absent
                    };
                    score += fc.coef * (log_num - denom);
                    next = next.min(c.doc);
                }
                top.push(base + doc, if live { score } else { f64::NEG_INFINITY });
                doc = next;
            }
        }
        top.drain_sorted()
    }
}

impl Default for QlScratch {
    fn default() -> Self {
        QlScratch::new()
    }
}

/// Ranks the top `k` documents for `query`. Candidates are the documents
/// matching at least one in-vocabulary feature; they are scored with the
/// full weighted log-likelihood (absent features contribute their
/// background-smoothing mass).
pub fn rank(searcher: &Searcher, query: &Query, params: QlParams, k: usize) -> Vec<SearchHit> {
    rank_with_scratch(searcher, query, params, k, &mut QlScratch::new())
}

/// [`rank`] with caller-owned scratch buffers; identical output.
pub fn rank_with_scratch(
    searcher: &Searcher,
    query: &Query,
    params: QlParams,
    k: usize,
    scratch: &mut QlScratch,
) -> Vec<SearchHit> {
    let partial = shard::ql_resolve_shard(searcher, query, &mut scratch.pos);
    let pcs = shard::ql_global_pcs(std::slice::from_ref(&partial));
    scratch
        .rank_partial(searcher, &partial, &pcs, params.mu, k)
        .into_iter()
        .map(|(doc, score)| SearchHit {
            doc: DocId(doc),
            score,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analyzer;
    use crate::index::IndexBuilder;
    use crate::ingest::SegmentedIndex;

    fn build(docs: &[(&str, &str)]) -> Searcher {
        let mut b = IndexBuilder::new(Analyzer::plain());
        for (id, text) in docs {
            b.add_document(id, text).expect("unique test ids");
        }
        Searcher::from_index(b.build())
    }

    const TINY: [(&str, &str); 3] = [
        ("d0", "cable car climbs the hill"), // len 5
        ("d1", "cable car cable car"),       // len 4
        ("d2", "graffiti on the wall"),      // len 4
    ];

    fn tiny() -> Searcher {
        build(&TINY)
    }

    #[test]
    fn dirichlet_formula_matches_hand_calculation() {
        let idx = tiny();
        let q = Query::parse_text("cable", &Analyzer::plain());
        let params = QlParams { mu: 10.0 };
        // P(cable|C) = 3/13; doc d0: tf=1, |D|=5.
        let expected = (1.0f64 + 10.0 * (3.0 / 13.0)).ln() - (5.0f64 + 10.0).ln();
        let got = score_document(&idx, &q, DocId(0), params);
        assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
    }

    #[test]
    fn higher_tf_scores_higher() {
        let idx = tiny();
        let q = Query::parse_text("cable car", &Analyzer::plain());
        let hits = rank(&idx, &q, QlParams { mu: 10.0 }, 10);
        assert_eq!(hits[0].doc, DocId(1), "doc with tf=2 per term wins");
        assert_eq!(hits.len(), 2, "only matching docs are candidates");
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn phrase_feature_rewards_adjacency() {
        let idx = build(&[
            ("adj", "cable car network"),
            ("sep", "cable network of the car"),
        ]);
        let mut q = Query::new();
        q.push_phrase_tokens(vec!["cable".into(), "car".into()], 1.0);
        let hits = rank(&idx, &q, QlParams { mu: 10.0 }, 10);
        assert_eq!(idx.external_id(hits[0].doc), "adj");
        // The separated doc still appears via background smoothing of the
        // phrase? No: it has phrase tf 0 and is not a candidate.
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn oov_query_returns_empty() {
        let idx = tiny();
        let q = Query::parse_text("zeppelin", &Analyzer::plain());
        assert!(rank(&idx, &q, QlParams::default(), 10).is_empty());
    }

    #[test]
    fn empty_query_returns_empty() {
        let idx = tiny();
        let q = Query::new();
        assert!(rank(&idx, &q, QlParams::default(), 10).is_empty());
    }

    #[test]
    fn weights_shift_ranking() {
        let idx = build(&[
            ("c", "cable cable cable"),
            ("g", "graffiti graffiti graffiti"),
        ]);
        let mut q = Query::new();
        q.push_term("cable".into(), 0.1);
        q.push_term("graffiti".into(), 0.9);
        let hits = rank(&idx, &q, QlParams { mu: 5.0 }, 10);
        assert_eq!(idx.external_id(hits[0].doc), "g");
        let mut q2 = Query::new();
        q2.push_term("cable".into(), 0.9);
        q2.push_term("graffiti".into(), 0.1);
        let hits2 = rank(&idx, &q2, QlParams { mu: 5.0 }, 10);
        assert_eq!(idx.external_id(hits2[0].doc), "c");
    }

    #[test]
    fn score_is_weight_normalized() {
        // Scaling all weights by a constant must not change scores.
        let idx = tiny();
        let mut q1 = Query::new();
        q1.push_term("cable".into(), 1.0);
        q1.push_term("hill".into(), 2.0);
        let mut q2 = Query::new();
        q2.push_term("cable".into(), 10.0);
        q2.push_term("hill".into(), 20.0);
        let s1 = score_document(&idx, &q1, DocId(0), QlParams::default());
        let s2 = score_document(&idx, &q2, DocId(0), QlParams::default());
        assert!((s1 - s2).abs() < 1e-12);
    }

    #[test]
    fn k_limits_results() {
        let idx = tiny();
        let q = Query::parse_text("the", &Analyzer::plain());
        let hits = rank(&idx, &q, QlParams::default(), 1);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn scratch_reuse_matches_fresh_rank() {
        let idx = tiny();
        let mut scratch = QlScratch::new();
        for text in ["cable car", "the hill", "graffiti", "cable"] {
            let q = Query::parse_text(text, &Analyzer::plain());
            let fresh = rank(&idx, &q, QlParams { mu: 10.0 }, 5);
            let reused = rank_with_scratch(&idx, &q, QlParams { mu: 10.0 }, 5, &mut scratch);
            assert_eq!(fresh, reused, "query {text:?}");
        }
    }

    #[test]
    fn shorter_doc_wins_at_equal_tf() {
        // Same tf, shorter document ⇒ higher P(w|D).
        let idx = build(&[
            ("short", "cable hill"),
            ("long", "cable hill extra words here padding"),
        ]);
        let q = Query::parse_text("cable", &Analyzer::plain());
        let hits = rank(&idx, &q, QlParams { mu: 10.0 }, 10);
        assert_eq!(idx.external_id(hits[0].doc), "short");
    }

    #[test]
    fn segmented_scores_are_bit_identical_to_monolithic() {
        let mono = tiny();
        let mut seg = SegmentedIndex::new(Analyzer::plain());
        for (id, text) in TINY {
            seg.add_document(id, text).expect("unique test ids");
            seg.seal().expect("non-empty buffer seals");
        }
        let segd = seg.searcher();
        assert!(segd.num_segments() > 1, "test must exercise >1 segment");
        for text in ["cable car", "the hill", "cable", "graffiti wall"] {
            let q = Query::parse_text(text, &Analyzer::plain());
            let a = rank(&mono, &q, QlParams { mu: 10.0 }, 10);
            let b = rank(&segd, &q, QlParams { mu: 10.0 }, 10);
            assert_eq!(a, b, "query {text:?}: scores and order must be bit-identical");
        }
        let mut q = Query::new();
        q.push_phrase_tokens(vec!["cable".into(), "car".into()], 1.0);
        assert_eq!(
            rank(&mono, &q, QlParams { mu: 10.0 }, 10),
            rank(&segd, &q, QlParams { mu: 10.0 }, 10)
        );
    }
}
