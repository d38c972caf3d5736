//! An oracle for `SQE_C` that shares no code with the QL kernel.
//!
//! Over random token corpora and small random KBs (titles are vocabulary
//! words and phrases), the three stage queries are built the reference
//! way — `QueryGraphBuilder::from_set` and `expand::build_query` per
//! motif set — ranked one by one with the token-scanning oracle, and
//! combined with `combine::sqe_c`. The service's fused path (one staged
//! query, each stage ranked only as deep as the combine reads it) must
//! give the same list through `QueryService::rank_sqe_c` on one index
//! and through `ShardedService::rank_sqe_c`/`run_batch_sqe_c` over 1–4
//! shards with random salts, for every request of a random sequence
//! served by the same two services.

mod oracle;

use kbgraph::{ArticleId, GraphBuilder, KbGraph};
use oracle::oracle;
use proptest::prelude::*;
use searchlite::ql::QlParams;
use searchlite::{Analyzer, IndexBuilder, Query, ShardRouter};
use sqe::{
    combine, expand, MotifSet, QueryGraphBuilder, QueryService, ServeConfig, ShardedService,
    SqeConfig,
};

/// Words the documents are drawn from.
const VOCAB: [&str; 5] = ["alpha", "beta", "gamma", "delta", "cable"];

/// Query tokens: the vocabulary plus words no document contains.
const QUERY_WORDS: [&str; 7] = [
    "alpha", "beta", "gamma", "delta", "cable", "omega", "zeppelin",
];

/// Article titles: vocabulary words and phrases, and one phrase no
/// document holds.
const TITLES: [&str; 10] = [
    "alpha",
    "beta",
    "gamma",
    "cable",
    "alpha beta",
    "gamma delta",
    "cable alpha",
    "delta delta",
    "beta gamma alpha",
    "omega cable",
];

/// Depths below 5 and below 200 clamp the stage depths of the fused
/// path; 1000 is the experiments' depth.
const DEPTHS: [usize; 10] = [1, 2, 4, 5, 7, 12, 40, 199, 200, 1000];

const MUS: [f64; 3] = [0.5, 10.0, 2500.0];

/// Random KB: articles (title indexes), links `(from, to, mutual)`,
/// memberships `(article, category)` and sub-category edges
/// `(child, parent)`, with article indexes taken modulo the article
/// count.
type RawKb = (
    Vec<usize>,
    Vec<(usize, usize, bool)>,
    Vec<(usize, usize)>,
    Vec<(usize, usize)>,
);

const CATEGORIES: usize = 3;

fn kb() -> impl Strategy<Value = RawKb> {
    (
        prop::collection::vec(0..TITLES.len(), 2..8),
        prop::collection::vec((0usize..8, 0usize..8, 0usize..4), 1..14)
            .prop_map(|links| links.into_iter().map(|(a, b, m)| (a, b, m > 0)).collect()),
        prop::collection::vec((0usize..8, 0..CATEGORIES), 2..16),
        prop::collection::vec((0..CATEGORIES, 0..CATEGORIES), 0..4),
    )
}

/// The graph and its articles (titles may repeat, which finds the
/// existing article).
fn build_kb(raw: &RawKb) -> (KbGraph, Vec<ArticleId>) {
    let (titles, links, memberships, subcategories) = raw;
    let mut b = GraphBuilder::new();
    let articles: Vec<ArticleId> = titles.iter().map(|&t| b.add_article(TITLES[t])).collect();
    let categories: Vec<_> = (0..CATEGORIES)
        .map(|c| b.add_category(&format!("category {c}")))
        .collect();
    let article = |i: usize| articles[i % articles.len()];
    for &(from, to, mutual) in links {
        if mutual {
            b.add_mutual_link(article(from), article(to));
        } else {
            b.add_article_link(article(from), article(to));
        }
    }
    for &(a, c) in memberships {
        b.add_membership(article(a), categories[c]);
    }
    // Only downward edges: the category hierarchy must stay acyclic.
    for &(child, parent) in subcategories
        .iter()
        .filter(|(child, parent)| child > parent)
    {
        b.add_subcategory(categories[child], categories[parent]);
    }
    (b.build(), articles)
}

/// Documents: short token lists; when `big`, the list is repeated up
/// to 230 documents, so a stage can have more than 200 candidates and
/// many scores tie.
fn build_docs(raw: Vec<Vec<&str>>, big: bool) -> Vec<Vec<String>> {
    let docs: Vec<Vec<String>> = raw
        .into_iter()
        .map(|d| d.into_iter().map(str::to_owned).collect())
        .collect();
    if big {
        docs.iter().cycle().take(230).cloned().collect()
    } else {
        docs
    }
}

/// The three stage queries of a request, built the reference way.
fn stage_queries(graph: &KbGraph, text: &str, nodes: &[ArticleId], cfg: &SqeConfig) -> Vec<Query> {
    [
        MotifSet::triangular(),
        MotifSet::t_and_s(),
        MotifSet::square(),
    ]
    .iter()
    .map(|motifs| {
        let qg = QueryGraphBuilder::from_set(graph, motifs).build(nodes);
        expand::build_query(
            graph,
            text,
            nodes,
            &qg.expansions,
            &Analyzer::plain(),
            &cfg.expand,
        )
    })
    .collect()
}

/// The reference: each stage ranked alone by the oracle to `depth`,
/// then combined.
fn reference(docs: &[Vec<String>], stages: &[Query], cfg: &SqeConfig) -> Vec<String> {
    let runs: Vec<Vec<String>> = stages
        .iter()
        .map(|query| {
            oracle(docs, query, cfg.ql.mu, cfg.depth)
                .into_iter()
                .map(|(d, _)| format!("d{d}"))
                .collect()
        })
        .collect();
    combine::sqe_c(&runs[0], &runs[1], &runs[2], cfg.depth)
}

/// A request: query words and indexes of its linked articles.
fn request() -> impl Strategy<Value = (Vec<&'static str>, Vec<usize>)> {
    (
        prop::collection::vec(prop::sample::select(QUERY_WORDS.to_vec()), 0..4),
        prop::collection::vec(0usize..8, 1..3),
    )
}

proptest! {
    /// A sequence of requests through one single-index service and one
    /// sharded service: the pooled scratch and the per-service title
    /// table carry over from request to request, and a plain QL ranking
    /// at another depth is mixed in, so stale scratch state or a title
    /// entry filled for the wrong article would change an answer.
    #[test]
    fn fused_sqe_c_matches_three_oracle_rankings_combined(
        raw_docs in prop::collection::vec(
            prop::collection::vec(prop::sample::select(VOCAB.to_vec()), 1..10),
            1..40,
        ),
        raw_kb in kb(),
        requests in prop::collection::vec(request(), 3..6),
        ql in (0usize..DEPTHS.len(), 0usize..3),
        shape in (0usize..DEPTHS.len(), 0usize..MUS.len(), 0usize..4),
        sharding in (1usize..5, 0u64..u64::MAX),
    ) {
        let (depth_idx, mu_idx, big) = shape;
        let docs = build_docs(raw_docs, big == 0);
        let (graph, articles) = build_kb(&raw_kb);
        let cfg = SqeConfig {
            ql: QlParams { mu: MUS[mu_idx] },
            depth: DEPTHS[depth_idx],
            ..SqeConfig::default()
        };
        let requests: Vec<(String, Vec<ArticleId>)> = requests
            .iter()
            .map(|(words, node_idx)| {
                let nodes = node_idx.iter().map(|&i| articles[i % articles.len()]).collect();
                (words.join(" "), nodes)
            })
            .collect();
        // The QL ranking's depth differs from the SQE_C depth.
        let (ql_depth, ql_at) = ql;
        let ql_k = DEPTHS[if ql_depth == depth_idx { (ql_depth + 1) % DEPTHS.len() } else { ql_depth }];

        let mut b = IndexBuilder::new(Analyzer::plain());
        for (i, d) in docs.iter().enumerate() {
            b.add_document(&format!("d{i}"), &d.join(" ")).expect("generated ids are unique");
        }
        let single = QueryService::new(&graph, &b.build(), cfg, ServeConfig::default());
        let (shards, salt) = sharding;
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

        let mut wants = Vec::new();
        for (i, (text, nodes)) in requests.iter().enumerate() {
            let stages = stage_queries(&graph, text, nodes, &cfg);
            if i == ql_at {
                // SQE_T&S's query ranked alone; hit ids are ingest
                // ordinals, which are the document numbers.
                let query = &stages[1];
                let want = oracle(&docs, query, cfg.ql.mu, ql_k);
                let bits = |hits: Vec<searchlite::SearchHit>| -> Vec<(u32, u64)> {
                    hits.iter().map(|h| (h.doc.0, h.score.to_bits())).collect()
                };
                prop_assert_eq!(&bits(single.rank_ql(query, ql_k)), &want, "QL, one index");
                prop_assert_eq!(&bits(service.rank_ql(query, ql_k)), &want, "QL, {} shards", shards);
            }
            let want = reference(&docs, &stages, &cfg);
            prop_assert_eq!(&single.rank_sqe_c(text, nodes), &want, "request {}, one index", i);
            prop_assert_eq!(
                &service.rank_sqe_c(text, nodes),
                &want,
                "request {}, {} shards, salt {:#x}",
                i,
                shards,
                salt
            );
            wants.push(want);
        }
        prop_assert_eq!(&service.run_batch_sqe_c(&requests), &wants, "batch, {} shards", shards);
    }
}
