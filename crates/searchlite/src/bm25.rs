//! Okapi BM25 scoring — an alternative to the paper's query-likelihood
//! model, used by the harness's retrieval-model sensitivity check: SQE's
//! improvements should not hinge on Dirichlet smoothing specifically.
//!
//! `score(D) = Σ_f w_f · idf(f) · tf·(k1+1) / (tf + k1·(1−b+b·|D|/avgdl))`
//! with `idf(f) = ln(1 + (N − df + 0.5)/(df + 0.5))`.
//!
//! Like [`crate::ql`], scoring runs against a [`Searcher`]; `N`, `df`,
//! `avgdl` and every tf are exact merged statistics, so BM25 rankings are
//! partition-independent too.

use rustc_hash::FxHashMap;

use crate::index::{DocId, PositionalScratch, TermId};
use crate::searcher::Searcher;
use crate::structured::{Feature, Query};
use crate::topk::TopK;

/// BM25 parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bm25Params {
    /// Term-frequency saturation (typical 1.2–2.0).
    pub k1: f64,
    /// Length normalization strength (typical 0.75).
    pub b: f64,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Bm25Params { k1: 1.2, b: 0.75 }
    }
}

/// A feature with precomputed per-document frequencies and idf.
struct Bm25Feature {
    tfs: FxHashMap<u32, u32>,
    weight: f64,
    idf: f64,
}

pub(crate) fn idf(num_docs: usize, df: usize) -> f64 {
    let n = num_docs as f64;
    let d = df as f64;
    (1.0 + (n - d + 0.5) / (d + 0.5)).ln()
}

fn resolve(searcher: &Searcher, query: &Query) -> Vec<Bm25Feature> {
    let n = searcher.num_docs();
    let mut pos = PositionalScratch::new();
    let mut out = Vec::with_capacity(query.len());
    for wf in query.features() {
        let postings: Option<Vec<(DocId, u32)>> = match &wf.feature {
            Feature::Term(tok) => searcher.term_id(tok).map(|t| searcher.term_postings(t)),
            Feature::Phrase(tokens) => {
                let ids: Option<Vec<TermId>> = tokens.iter().map(|t| searcher.term_id(t)).collect();
                ids.map(|ids| {
                    let mut postings = Vec::new();
                    searcher.phrase_postings_with(&ids, &mut pos, &mut postings);
                    postings
                })
            }
        };
        if let Some(postings) = postings {
            let df = postings.len();
            if df == 0 {
                continue;
            }
            out.push(Bm25Feature {
                tfs: postings.into_iter().map(|(d, tf)| (d.0, tf)).collect(),
                weight: wf.weight,
                idf: idf(n, df),
            });
        }
    }
    out
}

/// Scores one document.
fn score_doc(searcher: &Searcher, features: &[Bm25Feature], doc: u32, params: Bm25Params) -> f64 {
    let avgdl =
        (searcher.collection_len() as f64 / searcher.num_docs().max(1) as f64).max(f64::EPSILON);
    let dl = searcher.doc_len(DocId(doc)) as f64;
    let norm = params.k1 * (1.0 - params.b + params.b * dl / avgdl);
    let mut score = 0.0;
    for f in features {
        if let Some(&tf) = f.tfs.get(&doc) {
            let tf = tf as f64;
            score += f.weight * f.idf * tf * (params.k1 + 1.0) / (tf + norm);
        }
    }
    score
}

/// Ranks the top `k` documents for `query` under BM25. Hits carry the
/// BM25 score (higher is better); candidates are documents matching at
/// least one feature, as in [`crate::ql::rank`].
pub fn rank(
    searcher: &Searcher,
    query: &Query,
    params: Bm25Params,
    k: usize,
) -> Vec<crate::ql::SearchHit> {
    let features = resolve(searcher, query);
    if features.is_empty() {
        return Vec::new();
    }
    let mut candidates: Vec<u32> = features
        .iter()
        .flat_map(|f| f.tfs.keys().copied())
        .collect();
    candidates.sort_unstable();
    candidates.dedup();
    let mut top = TopK::new(k);
    for &doc in &candidates {
        top.push(doc, score_doc(searcher, &features, doc, params));
    }
    top.into_sorted()
        .into_iter()
        .map(|(doc, score)| crate::ql::SearchHit {
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
        ("d0", "cable car climbs the hill"),
        ("d1", "cable car cable car"),
        ("d2", "graffiti on the wall"),
    ];

    fn tiny() -> Searcher {
        build(&TINY)
    }

    #[test]
    fn idf_decreases_with_df() {
        assert!(idf(100, 1) > idf(100, 10));
        assert!(idf(100, 10) > idf(100, 90));
        assert!(idf(100, 100) > 0.0, "the +1 keeps idf positive");
    }

    #[test]
    fn bm25_formula_matches_hand_calculation() {
        let idx = tiny();
        let q = Query::parse_text("cable", &Analyzer::plain());
        let params = Bm25Params { k1: 1.2, b: 0.75 };
        let hits = rank(&idx, &q, params, 10);
        // d1: tf=2, |D|=4, avgdl=13/3; d0: tf=1, |D|=5.
        let avgdl = 13.0 / 3.0;
        let idf_cable = (1.0f64 + (3.0 - 2.0 + 0.5) / (2.0 + 0.5)).ln();
        let norm1 = 1.2 * (1.0 - 0.75 + 0.75 * 4.0 / avgdl);
        let expected1 = idf_cable * 2.0 * 2.2 / (2.0 + norm1);
        let top = hits
            .iter()
            .find(|h| idx.external_id(h.doc) == "d1")
            .unwrap();
        assert!(
            (top.score - expected1).abs() < 1e-12,
            "{} vs {expected1}",
            top.score
        );
    }

    #[test]
    fn higher_tf_ranks_higher() {
        let idx = tiny();
        let q = Query::parse_text("cable car", &Analyzer::plain());
        let hits = rank(&idx, &q, Bm25Params::default(), 10);
        assert_eq!(idx.external_id(hits[0].doc), "d1");
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn phrase_features_supported() {
        let idx = tiny();
        let mut q = Query::new();
        q.push_phrase_tokens(vec!["cable".into(), "car".into()], 1.0);
        let hits = rank(&idx, &q, Bm25Params::default(), 10);
        assert_eq!(hits.len(), 2, "both docs contain the phrase");
        assert_eq!(idx.external_id(hits[0].doc), "d1", "tf 2 beats tf 1");
    }

    #[test]
    fn weights_scale_contributions() {
        let idx = tiny();
        let mut q1 = Query::new();
        q1.push_term("cable".into(), 1.0);
        let mut q2 = Query::new();
        q2.push_term("cable".into(), 2.0);
        let h1 = rank(&idx, &q1, Bm25Params::default(), 1);
        let h2 = rank(&idx, &q2, Bm25Params::default(), 1);
        assert!((h2[0].score - 2.0 * h1[0].score).abs() < 1e-12);
    }

    #[test]
    fn empty_and_oov_queries() {
        let idx = tiny();
        assert!(rank(&idx, &Query::new(), Bm25Params::default(), 10).is_empty());
        let q = Query::parse_text("zeppelin", &Analyzer::plain());
        assert!(rank(&idx, &q, Bm25Params::default(), 10).is_empty());
    }

    #[test]
    fn b_zero_disables_length_normalization() {
        // With b=0, two docs with equal tf score equally despite lengths.
        let idx = build(&[
            ("short", "cable x"),
            ("long", "cable one two three four five six"),
        ]);
        let q = Query::parse_text("cable", &Analyzer::plain());
        let hits = rank(&idx, &q, Bm25Params { k1: 1.2, b: 0.0 }, 10);
        assert!((hits[0].score - hits[1].score).abs() < 1e-12);
    }

    #[test]
    fn segmented_bm25_is_bit_identical_to_monolithic() {
        let mono = tiny();
        let mut seg = SegmentedIndex::new(Analyzer::plain());
        for (id, text) in TINY {
            seg.add_document(id, text).expect("unique test ids");
            seg.seal().expect("non-empty buffer seals");
        }
        let segd = seg.searcher();
        assert!(segd.num_segments() > 1, "test must exercise >1 segment");
        for text in ["cable car", "the wall", "cable"] {
            let q = Query::parse_text(text, &Analyzer::plain());
            assert_eq!(
                rank(&mono, &q, Bm25Params::default(), 10),
                rank(&segd, &q, Bm25Params::default(), 10),
                "query {text:?}"
            );
        }
    }
}
