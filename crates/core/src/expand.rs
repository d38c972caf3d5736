//! Expanded-query construction (the paper's query builder, Section 2.3).
//!
//! "We build the expanded query as a three-part combination: i) the user's
//! query, ii) the titles of the query nodes, and iii) the titles of the
//! articles expansion nodes. Titles are taken as a n-gram of consecutive
//! terms for phrase matching. In the expanded query, the expansion
//! features are weighted proportionally to the number of motifs in which
//! they have appeared."

use kbgraph::{ArticleId, KbGraph};
use searchlite::structured::Feature;
use searchlite::{Analyzer, Query, StagedQuery};

use crate::query_graph::QueryGraph;

/// Weights of the three query parts. Parts with no features are skipped
/// and the remaining weights renormalize implicitly through
/// [`Query::combine`]'s per-part normalization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpandConfig {
    /// Weight of the user's original keywords.
    pub w_user: f64,
    /// Weight of the query-node titles.
    pub w_entities: f64,
    /// Weight of the expansion-node titles.
    pub w_expansion: f64,
    /// Keep only the `max_expansions` highest-multiplicity expansion
    /// features (0 = unlimited).
    pub max_expansions: usize,
}

impl Default for ExpandConfig {
    fn default() -> Self {
        ExpandConfig {
            w_user: 0.25,
            w_entities: 0.35,
            w_expansion: 0.40,
            max_expansions: 0,
        }
    }
}

/// The result of query expansion: the final structured query plus the
/// query graph it came from (for inspection and experiments).
#[derive(Debug, Clone)]
pub struct ExpandedQuery {
    /// The weighted structured query ready for retrieval.
    pub query: Query,
    /// The query graph that produced the expansion features.
    pub query_graph: QueryGraph,
}

/// Builds the user-query part: plain analyzed keywords, unit weights.
pub fn user_part(text: &str, analyzer: &Analyzer) -> Query {
    Query::parse_text(text, analyzer)
}

/// Builds the query-entities part: one phrase feature per query-node
/// title (the form used inside the expanded query, Section 2.3).
pub fn entities_part(graph: &KbGraph, nodes: &[ArticleId], analyzer: &Analyzer) -> Query {
    let mut q = Query::new();
    for &n in nodes {
        q.push_phrase_text(graph.article_title(n), analyzer, 1.0);
    }
    q
}

/// Builds the query-entities part as a bag of title *terms* — the form
/// the `QL_E` baseline uses (running titles through Indri's default
/// query-likelihood treats them as keywords, not `#1` phrases).
pub fn entities_bag_part(graph: &KbGraph, nodes: &[ArticleId], analyzer: &Analyzer) -> Query {
    let mut q = Query::new();
    for &n in nodes {
        for tok in analyzer.analyze(graph.article_title(n)) {
            q.push_term(tok, 1.0);
        }
    }
    q
}

/// Builds the expansion-features part: one phrase feature per expansion
/// article title, weighted by its motif multiplicity `|m_a|`.
pub fn expansion_part(
    graph: &KbGraph,
    qg: &QueryGraph,
    analyzer: &Analyzer,
    max_expansions: usize,
) -> Query {
    expansion_part_from(graph, &qg.expansions, analyzer, max_expansions)
}

/// [`expansion_part`] over a raw `(article, |m_a|)` slice — the form the
/// serving layer uses on cached expansions (no [`QueryGraph`] needed).
pub fn expansion_part_from(
    graph: &KbGraph,
    expansions: &[(ArticleId, u32)],
    analyzer: &Analyzer,
    max_expansions: usize,
) -> Query {
    let mut q = Query::new();
    for (a, weight) in expansion_weights(expansions, max_expansions) {
        q.push_phrase_text(graph.article_title(a), analyzer, weight);
    }
    q
}

/// The articles of the expansion part and their weights: the first
/// `max_expansions` expansions (0 = all), each weighted by its motif
/// multiplicity `|m_a|`.
pub fn expansion_weights(
    expansions: &[(ArticleId, u32)],
    max_expansions: usize,
) -> impl Iterator<Item = (ArticleId, f64)> + '_ {
    let take = if max_expansions == 0 {
        usize::MAX
    } else {
        max_expansions
    };
    expansions
        .iter()
        .take(take)
        .map(|&(a, m)| (a, f64::from(m)))
}

/// The feature a KB-article title adds to a query part: what
/// [`Query::push_phrase_text`] adds for `title` at any positive weight,
/// or `None` when the title analyzes to nothing. The serving layer
/// keeps one per article instead of analyzing the title per request.
pub fn title_feature(title: &str, analyzer: &Analyzer) -> Option<Feature> {
    let mut q = Query::new();
    q.push_phrase_text(title, analyzer, 1.0);
    q.features().first().map(|f| f.feature.clone())
}

/// Assembles the three-part structured query from its raw ingredients:
/// the user's text, the query-node ids, and the weighted expansion slice.
/// This is the allocation-light entry point the serving layer uses with
/// cached expansions; [`build_expanded_query`] wraps it.
pub fn build_query(
    graph: &KbGraph,
    user_text: &str,
    query_nodes: &[ArticleId],
    expansions: &[(ArticleId, u32)],
    analyzer: &Analyzer,
    cfg: &ExpandConfig,
) -> Query {
    let user = user_part(user_text, analyzer);
    let entities = entities_part(graph, query_nodes, analyzer);
    let expansion = expansion_part_from(graph, expansions, analyzer, cfg.max_expansions);
    Query::combine(&[
        (user, cfg.w_user),
        (entities, cfg.w_entities),
        (expansion, cfg.w_expansion),
    ])
}

/// Adds to `staged` the stage [`build_query`] would assemble from the
/// same three parts, with the same weights; each part is its `(feature,
/// weight)` pairs. The serving layer builds the user and query-entity
/// parts once per request and one expansion part per motif set, from
/// title features it analyzed once ([`title_feature`]).
pub fn push_stage<'q>(
    staged: &mut StagedQuery<'q>,
    user: &[(&'q Feature, f64)],
    entities: &[(&'q Feature, f64)],
    expansion: &[(&'q Feature, f64)],
    cfg: &ExpandConfig,
) {
    staged.push_combined(&[
        (user, cfg.w_user),
        (entities, cfg.w_entities),
        (expansion, cfg.w_expansion),
    ]);
}

/// Assembles the full three-part expanded query.
pub fn build_expanded_query(
    graph: &KbGraph,
    user_text: &str,
    qg: &QueryGraph,
    analyzer: &Analyzer,
    cfg: &ExpandConfig,
) -> ExpandedQuery {
    let query = build_query(
        graph,
        user_text,
        &qg.query_nodes,
        &qg.expansions,
        analyzer,
        cfg,
    );
    ExpandedQuery {
        query,
        query_graph: qg.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbgraph::GraphBuilder;

    fn toy() -> (KbGraph, ArticleId, ArticleId, ArticleId) {
        let mut b = GraphBuilder::new();
        let q = b.add_article("cable car");
        let e1 = b.add_article("funicular");
        let e2 = b.add_article("rack railway");
        (b.build(), q, e1, e2)
    }

    fn analyzer() -> Analyzer {
        Analyzer::plain()
    }

    #[test]
    fn entities_part_uses_titles_as_phrases() {
        let (g, q, _, _) = toy();
        let part = entities_part(&g, &[q], &analyzer());
        assert_eq!(part.len(), 1);
        assert!(matches!(
            &part.features()[0].feature,
            Feature::Phrase(ts) if ts == &vec!["cable".to_owned(), "car".to_owned()]
        ));
    }

    #[test]
    fn expansion_part_weights_by_multiplicity() {
        let (g, q, e1, e2) = toy();
        let qg = QueryGraph {
            query_nodes: vec![q],
            expansions: vec![(e1, 3), (e2, 1)],
        };
        let part = expansion_part(&g, &qg, &analyzer(), 0);
        assert_eq!(part.len(), 2);
        assert_eq!(part.features()[0].weight, 3.0);
        assert_eq!(part.features()[1].weight, 1.0);
    }

    #[test]
    fn max_expansions_caps_features() {
        let (g, q, e1, e2) = toy();
        let qg = QueryGraph {
            query_nodes: vec![q],
            expansions: vec![(e1, 3), (e2, 1)],
        };
        let part = expansion_part(&g, &qg, &analyzer(), 1);
        assert_eq!(part.len(), 1, "only the top expansion kept");
    }

    #[test]
    fn full_query_has_three_parts() {
        let (g, q, e1, _) = toy();
        let qg = QueryGraph {
            query_nodes: vec![q],
            expansions: vec![(e1, 2)],
        };
        let eq = build_expanded_query(
            &g,
            "mountain transport",
            &qg,
            &analyzer(),
            &ExpandConfig::default(),
        );
        // 2 user terms + 1 entity phrase + 1 expansion feature.
        assert_eq!(eq.query.len(), 4);
        assert!((eq.query.total_weight() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_expansion_leaves_user_and_entities() {
        let (g, q, _, _) = toy();
        let qg = QueryGraph {
            query_nodes: vec![q],
            expansions: vec![],
        };
        let eq = build_expanded_query(&g, "mountain", &qg, &analyzer(), &ExpandConfig::default());
        assert_eq!(eq.query.len(), 2);
        assert!(!eq.query.is_empty());
    }

    #[test]
    fn no_query_nodes_still_yields_user_query() {
        let (g, _, _, _) = toy();
        let qg = QueryGraph::default();
        let eq = build_expanded_query(
            &g,
            "mountain trains",
            &qg,
            &analyzer(),
            &ExpandConfig::default(),
        );
        assert_eq!(eq.query.len(), 2);
    }

    #[test]
    fn weight_ratio_reflects_config() {
        let (g, q, e1, _) = toy();
        let qg = QueryGraph {
            query_nodes: vec![q],
            expansions: vec![(e1, 1)],
        };
        let cfg = ExpandConfig {
            w_user: 0.5,
            w_entities: 0.25,
            w_expansion: 0.25,
            max_expansions: 0,
        };
        let eq = build_expanded_query(&g, "alps", &qg, &analyzer(), &cfg);
        // One user term (weight 0.5), one entity phrase (0.25), one
        // expansion phrase (0.25).
        let weights: Vec<f64> = eq.query.features().iter().map(|f| f.weight).collect();
        assert_eq!(weights.len(), 3);
        assert!((weights[0] - 0.5).abs() < 1e-12);
        assert!((weights[1] - 0.25).abs() < 1e-12);
        assert!((weights[2] - 0.25).abs() < 1e-12);
    }
}
