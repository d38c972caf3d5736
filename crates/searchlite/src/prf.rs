//! Pseudo-relevance feedback via Lavrenko's relevance model.
//!
//! Section 4.3 of the paper compares SQE against PRF "as an adaptation of
//! Lavrenko's relevance model": the original query retrieves a ranked list
//! of documents ordered by `P(Q|D)`, the concepts of the top documents are
//! sorted by `P(w|Q) = Σ_D P(w|D)·P(Q|D)·P(D) / P(Q)` and the top *n*
//! become the expansion features. This module implements RM1 (the pure
//! relevance model) and RM3 (interpolation with the original query, which
//! is what "SQE_C/PRF" — feeding the SQE-expanded query into PRF — uses).

use rustc_hash::FxHashMap;

use crate::index::{DocId, TermId};
use crate::ql::{self, QlParams, SearchHit};
use crate::searcher::Searcher;
use crate::structured::Query;

/// Parameters of the relevance-model feedback loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrfParams {
    /// Number of feedback documents (Indri `fbDocs`).
    pub fb_docs: usize,
    /// Number of expansion terms kept (Indri `fbTerms`).
    pub fb_terms: usize,
    /// Interpolation weight of the original query in the reformulated one
    /// (Indri `fbOrigWeight`). `0.0` yields pure RM1 expansion.
    pub orig_weight: f64,
    /// Drop the base query's own terms from the relevance model, keeping
    /// only *new* concepts (the paper's PRF comparator reformulates the
    /// query from the top feedback concepts alone).
    pub exclude_base_terms: bool,
    /// Query-likelihood parameters of both retrieval passes.
    pub ql: QlParams,
}

impl Default for PrfParams {
    fn default() -> Self {
        PrfParams {
            fb_docs: 10,
            fb_terms: 20,
            orig_weight: 0.5,
            exclude_base_terms: false,
            ql: QlParams::default(),
        }
    }
}

/// Computes the relevance model over the feedback documents of `query`:
/// the top `fb_terms` terms with their normalized `P(w|Q)` estimates.
/// Returns an empty vector when the initial retrieval finds nothing.
pub fn relevance_model(index: &Searcher, query: &Query, params: PrfParams) -> Vec<(TermId, f64)> {
    let feedback = ql::rank(index, query, params.ql, params.fb_docs);
    let base_terms: rustc_hash::FxHashSet<TermId> = if params.exclude_base_terms {
        query
            .features()
            .iter()
            .flat_map(|f| f.feature.tokens())
            .filter_map(|t| index.term_id(t))
            .collect()
    } else {
        rustc_hash::FxHashSet::default()
    };
    relevance_model_from_hits(index, &feedback)
        .into_iter()
        .filter(|(t, _)| !base_terms.contains(t))
        .take(params.fb_terms)
        .collect()
}

/// Relevance model from an explicit feedback set (exposed so tests and the
/// experiment harness can inspect the full distribution).
pub fn relevance_model_from_hits(index: &Searcher, feedback: &[SearchHit]) -> Vec<(TermId, f64)> {
    if feedback.is_empty() {
        return Vec::new();
    }
    // P(Q|D) ∝ exp(logscore − max) with uniform P(D); normalized below.
    let max_score = feedback
        .iter()
        .map(|h| h.score)
        .fold(f64::NEG_INFINITY, f64::max);
    let mut doc_weights: Vec<(DocId, f64)> = feedback
        .iter()
        .map(|h| (h.doc, (h.score - max_score).exp()))
        .collect();
    let z: f64 = doc_weights.iter().map(|&(_, w)| w).sum();
    if z <= 0.0 {
        return Vec::new();
    }
    for dw in &mut doc_weights {
        dw.1 /= z;
    }
    // P(w|Q) = Σ_D P(w|D)·P(Q|D) with maximum-likelihood P(w|D).
    let mut rel: FxHashMap<u32, f64> = FxHashMap::default();
    for &(doc, dw) in &doc_weights {
        let dl = index.doc_len(doc) as f64;
        if dl == 0.0 {
            continue;
        }
        for (term, tf) in index.doc_terms(doc) {
            *rel.entry(term.0).or_insert(0.0) += dw * tf as f64 / dl;
        }
    }
    let mut scored: Vec<(TermId, f64)> = rel.into_iter().map(|(t, p)| (TermId(t), p)).collect();
    scored.sort_by(|a, b| scorecmp::by_score_desc_then_id(a.1, b.1, a.0 .0, b.0 .0));
    scored
}

/// Builds the RM3-reformulated query: original query interpolated at
/// `orig_weight` with the relevance-model expansion terms.
pub fn expand_query(index: &Searcher, query: &Query, params: PrfParams) -> Query {
    let model = relevance_model(index, query, params);
    if model.is_empty() {
        return query.clone();
    }
    let mut expansion = Query::new();
    for (term, p) in model {
        expansion.push_term(index.term(term).to_owned(), p);
    }
    Query::combine(&[
        (query.clone(), params.orig_weight),
        (expansion, 1.0 - params.orig_weight),
    ])
}

/// Full PRF retrieval: expand with the relevance model, then rank with the
/// reformulated query.
pub fn rank_with_prf(
    index: &Searcher,
    query: &Query,
    params: PrfParams,
    k: usize,
) -> Vec<SearchHit> {
    let expanded = expand_query(index, query, params);
    ql::rank(index, &expanded, params.ql, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analyzer;
    use crate::index::IndexBuilder;
    use crate::ingest::SegmentedIndex;

    const CORPUS: [(&str, &str); 5] = [
        ("d0", "cable car funicular mountain"),
        ("d1", "cable car funicular village"),
        ("d2", "cable television news network"),
        ("d3", "funicular railway alpine"),
        ("d4", "political news network debate"),
    ];

    /// Corpus where "cable" co-occurs with "funicular" in the top docs, so
    /// feedback should surface "funicular" as an expansion term.
    fn corpus() -> Searcher {
        let mut b = IndexBuilder::new(Analyzer::plain());
        for (id, text) in CORPUS {
            b.add_document(id, text).expect("unique test ids");
        }
        Searcher::from_index(b.build())
    }

    fn params() -> PrfParams {
        PrfParams {
            fb_docs: 3,
            fb_terms: 5,
            orig_weight: 0.5,
            exclude_base_terms: false,
            ql: QlParams { mu: 10.0 },
        }
    }

    #[test]
    fn exclude_base_terms_drops_query_vocabulary() {
        let idx = corpus();
        let q = Query::parse_text("cable car", &Analyzer::plain());
        let p = PrfParams {
            exclude_base_terms: true,
            ..params()
        };
        let model = relevance_model(&idx, &q, p);
        let terms: Vec<&str> = model.iter().map(|&(t, _)| idx.term(t)).collect();
        assert!(!terms.contains(&"cable"));
        assert!(!terms.contains(&"car"));
        assert!(terms.contains(&"funicular"), "new concepts kept: {terms:?}");
    }

    #[test]
    fn relevance_model_surfaces_cooccurring_terms() {
        let idx = corpus();
        let q = Query::parse_text("cable car", &Analyzer::plain());
        let model = relevance_model(&idx, &q, params());
        let terms: Vec<&str> = model.iter().map(|&(t, _)| idx.term(t)).collect();
        assert!(terms.contains(&"funicular"), "terms: {terms:?}");
    }

    #[test]
    fn relevance_model_probabilities_are_normalized_per_doc() {
        let idx = corpus();
        let q = Query::parse_text("cable car", &Analyzer::plain());
        let feedback = ql::rank(&idx, &q, params().ql, 3);
        let model = relevance_model_from_hits(&idx, &feedback);
        let total: f64 = model.iter().map(|&(_, p)| p).sum();
        // Σ_w P(w|Q) = Σ_D P(Q|D) Σ_w P(w|D) = Σ_D P(Q|D) = 1.
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
        assert!(model.iter().all(|&(_, p)| p > 0.0));
    }

    #[test]
    fn rm3_keeps_original_terms() {
        let idx = corpus();
        let q = Query::parse_text("cable car", &Analyzer::plain());
        let expanded = expand_query(&idx, &q, params());
        let toks: Vec<&str> = expanded
            .features()
            .iter()
            .flat_map(|f| f.feature.tokens())
            .map(|s| s.as_str())
            .collect();
        assert!(toks.contains(&"cable"));
        assert!(toks.contains(&"car"));
        assert!(toks.len() > 2, "expansion terms added");
        assert!((expanded.total_weight() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_feedback_returns_original_query() {
        let idx = corpus();
        let q = Query::parse_text("zeppelin", &Analyzer::plain());
        let expanded = expand_query(&idx, &q, params());
        assert_eq!(expanded, q);
    }

    #[test]
    fn prf_retrieves_docs_missing_original_terms() {
        let idx = corpus();
        let q = Query::parse_text("cable car", &Analyzer::plain());
        let plain = ql::rank(&idx, &q, params().ql, 10);
        let plain_ids: Vec<&str> = plain.iter().map(|h| idx.external_id(h.doc)).collect();
        // d3 has neither "cable" nor "car"; only feedback can reach it.
        assert!(!plain_ids.contains(&"d3"));
        let fed = rank_with_prf(&idx, &q, params(), 10);
        let fed_ids: Vec<&str> = fed.iter().map(|h| idx.external_id(h.doc)).collect();
        assert!(fed_ids.contains(&"d3"), "PRF reaches d3 via 'funicular'");
    }

    #[test]
    fn orig_weight_one_roughly_preserves_ranking() {
        let idx = corpus();
        let q = Query::parse_text("cable car", &Analyzer::plain());
        let p = PrfParams {
            orig_weight: 1.0,
            ..params()
        };
        let plain = ql::rank(&idx, &q, p.ql, 3);
        let fed = rank_with_prf(&idx, &q, p, 3);
        let a: Vec<DocId> = plain.iter().map(|h| h.doc).collect();
        let b: Vec<DocId> = fed.iter().map(|h| h.doc).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn fb_terms_caps_model_size() {
        let idx = corpus();
        let q = Query::parse_text("cable car", &Analyzer::plain());
        let p = PrfParams {
            fb_terms: 2,
            ..params()
        };
        assert!(relevance_model(&idx, &q, p).len() <= 2);
    }

    #[test]
    fn segmented_prf_is_bit_identical_to_monolithic() {
        let mono = corpus();
        let mut seg = SegmentedIndex::new(Analyzer::plain());
        for (id, text) in CORPUS {
            seg.add_document(id, text).expect("unique test ids");
            seg.seal().expect("non-empty buffer seals");
        }
        let segd = seg.searcher();
        assert!(segd.num_segments() > 1, "test must exercise >1 segment");
        let q = Query::parse_text("cable car", &Analyzer::plain());
        assert_eq!(
            relevance_model(&mono, &q, params()),
            relevance_model(&segd, &q, params())
        );
        assert_eq!(
            rank_with_prf(&mono, &q, params(), 10),
            rank_with_prf(&segd, &q, params(), 10)
        );
    }
}
