//! Property-based tests for the retrieval substrate.

use proptest::prelude::*;
use searchlite::prf::{self, PrfParams};
use searchlite::ql::{self, QlParams};
use searchlite::topk::TopK;
use searchlite::{analysis, Analyzer, DocId, IndexBuilder, Query, Searcher, SegmentedIndex};

/// A small random corpus: words drawn from a tiny alphabet so term
/// collisions and phrase repetitions actually happen.
fn corpus() -> impl Strategy<Value = Vec<Vec<String>>> {
    let word = prop::sample::select(vec![
        "alpha", "beta", "gamma", "delta", "omega", "cable", "car", "wall",
    ]);
    prop::collection::vec(prop::collection::vec(word, 1..12), 1..12)
        .prop_map(|docs| docs.into_iter().map(|d| d.into_iter().map(str::to_owned).collect()).collect())
}

fn build_index(docs: &[Vec<String>]) -> searchlite::Index {
    let mut b = IndexBuilder::new(Analyzer::plain());
    for (i, d) in docs.iter().enumerate() {
        b.add_document(&format!("d{i}"), &d.join(" "))
            .expect("generated ids are unique");
    }
    b.build()
}

/// The same corpus partitioned into one sealed segment per `true` run
/// boundary in `cuts` (always at least one segment).
fn build_segmented(docs: &[Vec<String>], cuts: &[bool]) -> Searcher {
    let mut s = SegmentedIndex::new(Analyzer::plain());
    for (i, d) in docs.iter().enumerate() {
        s.add_document(&format!("d{i}"), &d.join(" "))
            .expect("generated ids are unique");
        if cuts.get(i).copied().unwrap_or(false) {
            s.seal().expect("non-empty buffer seals");
        }
    }
    s.seal();
    s.searcher()
}

proptest! {
    /// Collection statistics are consistent: Σ doc_len = collection_len,
    /// Σ collection_tf = collection_len, forward and inverted tf agree.
    #[test]
    fn index_statistics_consistent(docs in corpus()) {
        let idx = build_index(&docs);
        let total_len: u64 = (0..idx.num_docs()).map(|d| idx.doc_len(DocId(d as u32)) as u64).sum();
        prop_assert_eq!(total_len, idx.collection_len());
        let total_tf: u64 = (0..idx.num_terms())
            .map(|t| idx.collection_tf(searchlite::TermId(t as u32)))
            .sum();
        prop_assert_eq!(total_tf, idx.collection_len());
        for d in 0..idx.num_docs() as u32 {
            let mut fwd_sum = 0u32;
            for (t, tf) in idx.doc_terms(DocId(d)) {
                prop_assert_eq!(idx.tf(t, DocId(d)), tf);
                fwd_sum += tf;
            }
            prop_assert_eq!(fwd_sum, idx.doc_len(DocId(d)));
        }
    }

    /// Phrase tf never exceeds the minimum member-term tf, and a
    /// single-term "phrase" equals the term tf.
    #[test]
    fn phrase_tf_bounds(docs in corpus()) {
        let idx = build_index(&docs);
        let terms: Vec<_> = (0..idx.num_terms().min(3)).map(|t| searchlite::TermId(t as u32)).collect();
        if terms.len() >= 2 {
            for d in 0..idx.num_docs() as u32 {
                let p = idx.phrase_tf(&terms[..2], DocId(d));
                let min = idx.tf(terms[0], DocId(d)).min(idx.tf(terms[1], DocId(d)));
                prop_assert!(p <= min, "phrase tf {p} > min member tf {min}");
            }
        }
        if let Some(&t) = terms.first() {
            for d in 0..idx.num_docs() as u32 {
                prop_assert_eq!(idx.phrase_tf(&[t], DocId(d)), idx.tf(t, DocId(d)));
            }
        }
    }

    /// Ranking returns scores in non-increasing order, unique docs, and
    /// never more than k.
    #[test]
    fn ranking_sorted_unique_bounded(docs in corpus(), k in 1usize..20) {
        let idx = Searcher::from_index(build_index(&docs));
        let q = Query::parse_text("alpha cable wall", &Analyzer::plain());
        let hits = ql::rank(&idx, &q, QlParams { mu: 10.0 }, k);
        prop_assert!(hits.len() <= k);
        for w in hits.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
        let mut ids: Vec<u32> = hits.iter().map(|h| h.doc.0).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), hits.len());
    }

    /// Scaling all query weights by a positive constant leaves scores
    /// unchanged (the scorer normalizes).
    #[test]
    fn score_scale_invariant(docs in corpus(), scale in 0.1f64..50.0) {
        let idx = Searcher::from_index(build_index(&docs));
        let mut q1 = Query::new();
        q1.push_term("alpha".into(), 1.0);
        q1.push_term("cable".into(), 2.0);
        let mut q2 = Query::new();
        q2.push_term("alpha".into(), scale);
        q2.push_term("cable".into(), 2.0 * scale);
        for d in 0..idx.num_docs() as u32 {
            let s1 = ql::score_document(&idx, &q1, DocId(d), QlParams { mu: 10.0 });
            let s2 = ql::score_document(&idx, &q2, DocId(d), QlParams { mu: 10.0 });
            prop_assert!((s1 - s2).abs() < 1e-9);
        }
    }

    /// The relevance model is a (sub-)distribution: weights positive,
    /// summing to ≤ 1 + ε (exactly 1 when untruncated).
    #[test]
    fn relevance_model_subdistribution(docs in corpus()) {
        let idx = Searcher::from_index(build_index(&docs));
        let q = Query::parse_text("alpha beta", &Analyzer::plain());
        let params = PrfParams {
            fb_docs: 5,
            fb_terms: 100,
            orig_weight: 0.0,
            exclude_base_terms: false,
            ql: QlParams { mu: 10.0 },
        };
        let model = prf::relevance_model(&idx, &q, params);
        let total: f64 = model.iter().map(|&(_, p)| p).sum();
        prop_assert!(total <= 1.0 + 1e-9, "total {total}");
        prop_assert!(model.iter().all(|&(_, p)| p > 0.0));
    }

    /// Any partition of a corpus into sealed segments ranks bit-identically
    /// to the monolithic index, for term and phrase queries alike.
    #[test]
    fn segmented_ranking_equals_monolithic(
        docs in corpus(),
        cuts in prop::collection::vec(prop::sample::select(vec![true, false]), 0..12),
    ) {
        let mono = Searcher::from_index(build_index(&docs));
        let seg = build_segmented(&docs, &cuts);
        prop_assert_eq!(seg.num_docs(), mono.num_docs());
        let params = QlParams { mu: 10.0 };
        for text in ["alpha", "cable car", "alpha beta gamma", "wall omega"] {
            let q = Query::parse_text(text, &Analyzer::plain());
            prop_assert_eq!(
                ql::rank(&mono, &q, params, 10),
                ql::rank(&seg, &q, params, 10),
                "query {:?} with cuts {:?}", text, &cuts
            );
        }
        let mut pq = Query::new();
        pq.push_phrase_tokens(vec!["cable".into(), "car".into()], 1.0);
        prop_assert_eq!(ql::rank(&mono, &pq, params, 10), ql::rank(&seg, &pq, params, 10));
    }

    /// TopK returns exactly the k best entries of a full sort.
    #[test]
    fn topk_matches_full_sort(scores in prop::collection::vec(-100.0f64..100.0, 0..60), k in 0usize..20) {
        let mut topk = TopK::new(k);
        for (i, &s) in scores.iter().enumerate() {
            topk.push(i as u32, s);
        }
        let got = topk.into_sorted();
        let mut full: Vec<(u32, f64)> = scores.iter().enumerate().map(|(i, &s)| (i as u32, s)).collect();
        full.sort_by(|a, b| scorecmp::by_score_desc_then_id(a.1, b.1, a.0, b.0));
        full.truncate(k);
        prop_assert_eq!(got, full);
    }

    /// Porter stemming never grows a word and keeps ASCII-ness.
    #[test]
    fn stemmer_shrinks(word in "[a-z]{1,15}") {
        let stem = analysis::porter_stem(&word);
        prop_assert!(stem.len() <= word.len() + 1, "{word} → {stem}");
        prop_assert!(stem.is_ascii());
        prop_assert!(!stem.is_empty());
    }

    /// The analyzer is deterministic and produces no empty tokens.
    #[test]
    fn analyzer_clean_tokens(text in ".{0,80}") {
        let a = Analyzer::english();
        let t1 = a.analyze(&text);
        let t2 = a.analyze(&text);
        prop_assert_eq!(&t1, &t2);
        prop_assert!(t1.iter().all(|t| !t.is_empty()));
    }
}
