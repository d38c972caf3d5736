//! An oracle for Dirichlet query-likelihood ranking that shares no code
//! with the scorer it checks.
//!
//! The oracle keeps each document as a plain token list. It has no
//! postings, no term ids and no scratch buffers. It counts term and
//! exact phrase occurrences by scanning tokens, and evaluates
//! `Σ_f (λ_f/Σλ)·(ln(tf_f + μ·P(f|C)) − ln(|D| + μ))` term by term in
//! query order. Over random corpora and queries, three production paths
//! must return the oracle's `(doc, score bits)` ranking exactly:
//! `ql::rank` on one index, `ql::rank` on a randomly sealed
//! `SegmentedIndex`, and `ShardedService::rank_ql` over 1–4 shards.

mod oracle;

use kbgraph::GraphBuilder;
use oracle::oracle;
use proptest::prelude::*;
use searchlite::ql::{self, QlParams};
use searchlite::{Analyzer, IndexBuilder, Query, SearchHit, Searcher, SegmentedIndex, ShardRouter};
use sqe::{ServeConfig, ShardedService, SqeConfig};

/// Words the documents are drawn from: few, so that terms and phrases
/// match often and many documents tie.
const VOCAB: [&str; 5] = ["alpha", "beta", "gamma", "delta", "cable"];

/// Query tokens: the vocabulary plus words no document contains.
const QUERY_WORDS: [&str; 7] = [
    "alpha", "beta", "gamma", "delta", "cable", "omega", "zeppelin",
];

const WEIGHTS: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 3.0];

const MUS: [f64; 4] = [0.5, 10.0, 15.0, 2500.0];

fn bits(hits: &[SearchHit]) -> Vec<(u32, u64)> {
    hits.iter().map(|h| (h.doc.0, h.score.to_bits())).collect()
}

fn corpus() -> impl Strategy<Value = Vec<Vec<String>>> {
    let word = prop::sample::select(VOCAB.to_vec());
    prop::collection::vec(prop::collection::vec(word, 1..10), 1..14).prop_map(|docs| {
        docs.into_iter()
            .map(|d| d.into_iter().map(str::to_owned).collect())
            .collect()
    })
}

/// Raw features: (kind, tokens, weight index). Kind 0 is a term (first
/// token), 1 a phrase.
fn raw_features() -> impl Strategy<Value = Vec<(usize, Vec<&'static str>, usize)>> {
    let token = prop::sample::select(QUERY_WORDS.to_vec());
    prop::collection::vec(
        (0usize..2, prop::collection::vec(token, 1..4), 0usize..5),
        1..7,
    )
}

/// Builds the query; `unit` forces every weight to 1.
fn build_query(raw: &[(usize, Vec<&'static str>, usize)], unit: bool) -> Query {
    let mut q = Query::new();
    for (kind, tokens, w) in raw {
        let weight = if unit { 1.0 } else { WEIGHTS[*w] };
        let tokens: Vec<String> = tokens.iter().map(|t| (*t).to_owned()).collect();
        match kind {
            0 => q.push_term(tokens[0].clone(), weight),
            _ => q.push_phrase_tokens(tokens, weight),
        }
    }
    q
}

fn single_index(docs: &[Vec<String>]) -> Searcher {
    let mut b = IndexBuilder::new(Analyzer::plain());
    for (i, d) in docs.iter().enumerate() {
        b.add_document(&format!("d{i}"), &d.join(" "))
            .expect("generated ids are unique");
    }
    Searcher::from_index(b.build())
}

fn segmented(docs: &[Vec<String>], cuts: &[usize]) -> Searcher {
    let mut s = SegmentedIndex::new(Analyzer::plain());
    for (i, d) in docs.iter().enumerate() {
        s.add_document(&format!("d{i}"), &d.join(" "))
            .expect("generated ids are unique");
        if cuts.get(i) == Some(&0) {
            s.seal().expect("non-empty buffer seals");
        }
    }
    s.seal();
    s.searcher()
}

proptest! {
    /// The single-index, segmented and sharded scorers all reproduce the
    /// token-scanning oracle bit for bit. Covered on purpose: query
    /// tokens no document holds (also inside phrases), repeated
    /// features, all-zero weights (every candidate scores `-inf`), `k`
    /// below the candidate count, and tied scores.
    #[test]
    fn every_ql_path_matches_the_token_scanning_oracle(
        docs in corpus(),
        raw in raw_features(),
        shape in (0usize..4, 0usize..8, 1usize..16, 0usize..4),
        cuts in prop::collection::vec(0usize..3, 0..14),
        sharding in (1usize..5, 0u64..u64::MAX),
    ) {
        let (repeat, zero, k, mu_idx) = shape;
        let mu = MUS[mu_idx];
        let mut raw = raw;
        if repeat == 0 {
            // A repeated feature: the first one again, at the end.
            raw.push(raw[0].clone());
        }
        let query = if zero == 0 {
            // Unit weights scaled by the smallest subnormal: every
            // feature weight underflows to 0 once there are two.
            let unit = build_query(&raw, true);
            prop_assume!(unit.len() >= 2);
            let q = Query::combine(&[(unit, f64::from_bits(1))]);
            prop_assert!(q.features().iter().all(|f| f.weight == 0.0));
            q
        } else {
            build_query(&raw, false)
        };
        let want = oracle(&docs, &query, mu, k);
        let params = QlParams { mu };

        let got = bits(&ql::rank(&single_index(&docs), &query, params, k));
        prop_assert_eq!(&got, &want, "single index");

        let seg = segmented(&docs, &cuts);
        let got = bits(&ql::rank(&seg, &query, params, k));
        prop_assert_eq!(&got, &want, "{} segments", seg.num_segments());

        let (shards, salt) = sharding;
        let graph = GraphBuilder::new().build();
        let cfg = SqeConfig { ql: params, ..SqeConfig::default() };
        let service = ShardedService::new(
            &graph,
            Analyzer::plain(),
            ShardRouter::with_salt(shards, salt),
            cfg,
            ServeConfig::default(),
        );
        for (i, d) in docs.iter().enumerate() {
            service.add_document(&format!("d{i}"), &d.join(" ")).expect("generated ids are unique");
        }
        service.seal_all();
        let got = bits(&service.rank_ql(&query, k));
        prop_assert_eq!(&got, &want, "{} shards, salt {:#x}", shards, salt);
    }
}
