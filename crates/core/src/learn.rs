//! Automatic motif identification (the paper's future work).
//!
//! Given ground-truth examples — query nodes paired with their *optimal*
//! expansion articles, exactly the resource the paper's Section 2.1
//! analysis consumes — the learner scores every counted [`MotifSpec`] by
//! how well its expansions match the optimal sets, and ranks them by F1
//! (or precision / recall). The weight rule never changes which articles
//! a spec proposes, so the grid is the 15 counted specs (link × category
//! scope). Running it on the synthetic Wikipedia recovers the paper's
//! hand-crafted choice: mutual linking with category superset/adjacency
//! conditions dominates link-only and one-way specs.

use kbgraph::{ArticleId, KbGraph};
use rustc_hash::FxHashSet;

use crate::spec::{MotifSpec, WeightRule};

/// One training example: a query's nodes and its optimal expansions.
#[derive(Debug, Clone)]
pub struct Example {
    /// The query nodes.
    pub query_nodes: Vec<ArticleId>,
    /// The ground-truth optimal expansion articles.
    pub optimal: Vec<ArticleId>,
}

/// A scored spec.
#[derive(Debug, Clone)]
pub struct LearnedMotif {
    /// The spec (always [`WeightRule::Counted`]).
    pub spec: MotifSpec,
    /// Micro-averaged precision of its expansions against the optima.
    pub precision: f64,
    /// Micro-averaged recall.
    pub recall: f64,
    /// Harmonic mean of the two.
    pub f1: f64,
    /// Mean number of expansions per example (the feature-budget axis the
    /// paper discusses: T ≈ 0.76 features, S ≈ 20).
    pub avg_expansions: f64,
}

/// Scoring mode for ranking specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Rank by F1 (balanced; the default).
    F1,
    /// Rank by precision (yields triangular-like specs — best for small
    /// tops).
    Precision,
    /// Rank by recall (yields square-like specs — best for large tops).
    Recall,
}

/// Scores one spec over the examples.
pub fn score_spec(graph: &KbGraph, spec: MotifSpec, examples: &[Example]) -> LearnedMotif {
    let mut tp = 0usize;
    let mut proposed = 0usize;
    let mut optimal_total = 0usize;
    for ex in examples {
        let optimal: FxHashSet<ArticleId> = ex.optimal.iter().copied().collect();
        optimal_total += optimal.len();
        let mut seen: FxHashSet<ArticleId> = FxHashSet::default();
        for &qn in &ex.query_nodes {
            for (a, _) in spec.expansions(graph, qn) {
                if !ex.query_nodes.contains(&a) {
                    seen.insert(a);
                }
            }
        }
        proposed += seen.len();
        tp += seen.iter().filter(|a| optimal.contains(a)).count();
    }
    let precision = if proposed == 0 {
        0.0
    } else {
        tp as f64 / proposed as f64
    };
    let recall = if optimal_total == 0 {
        0.0
    } else {
        tp as f64 / optimal_total as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    LearnedMotif {
        spec,
        precision,
        recall,
        f1,
        avg_expansions: if examples.is_empty() {
            0.0
        } else {
            proposed as f64 / examples.len() as f64
        },
    }
}

/// Scores every counted spec and returns them ranked by the objective
/// (best first; ties by spec name for determinism).
pub fn learn_motifs(
    graph: &KbGraph,
    examples: &[Example],
    objective: Objective,
) -> Vec<LearnedMotif> {
    let mut scored: Vec<LearnedMotif> = MotifSpec::all()
        .into_iter()
        .filter(|s| s.weight == WeightRule::Counted)
        .map(|s| score_spec(graph, s, examples))
        .collect();
    scored.sort_by(|a, b| {
        let key = |m: &LearnedMotif| match objective {
            Objective::F1 => m.f1,
            Objective::Precision => m.precision,
            Objective::Recall => m.recall,
        };
        scorecmp::by_score_desc_then_id(key(a), key(b), a.spec.name(), b.spec.name())
    });
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CategoryScope, LinkCondition};
    use kbgraph::GraphBuilder;

    /// A world where optimal expansions are exactly the mutual+shared-cat
    /// partners; one-way neighbours and cat-free mutual partners are not
    /// optimal.
    fn world() -> (KbGraph, Vec<Example>) {
        let mut b = GraphBuilder::new();
        let c = b.add_category("c");
        let mut examples = Vec::new();
        for i in 0..6 {
            let q = b.add_article(&format!("q{i}"));
            let good = b.add_article(&format!("good{i}"));
            let oneway = b.add_article(&format!("oneway{i}"));
            let linkonly = b.add_article(&format!("linkonly{i}"));
            b.add_membership(q, c);
            b.add_membership(good, c);
            b.add_membership(oneway, c);
            b.add_mutual_link(q, good);
            b.add_article_link(q, oneway);
            b.add_mutual_link(q, linkonly); // mutual but no categories
            examples.push((q, good));
        }
        let g = b.build();
        let examples = examples
            .into_iter()
            .map(|(q, good)| Example {
                query_nodes: vec![q],
                optimal: vec![good],
            })
            .collect();
        (g, examples)
    }

    #[test]
    fn learner_recovers_the_papers_choice() {
        let (g, examples) = world();
        let ranked = learn_motifs(&g, &examples, Objective::F1);
        let best = &ranked[0];
        assert_eq!(
            best.spec.link,
            LinkCondition::Mutual,
            "best: {}",
            best.spec.name()
        );
        assert!(
            matches!(
                best.spec.category,
                CategoryScope::Superset | CategoryScope::SharedAny
            ),
            "best: {}",
            best.spec.name()
        );
        assert!((best.f1 - 1.0).abs() < 1e-9, "perfect on this toy world");
    }

    #[test]
    fn link_only_patterns_score_lower() {
        let (g, examples) = world();
        let ranked = learn_motifs(&g, &examples, Objective::Precision);
        let mutual_free = ranked
            .iter()
            .find(|m| {
                m.spec.link == LinkCondition::Mutual
                    && m.spec.category == CategoryScope::Unconstrained
            })
            .unwrap();
        // Link-only proposes `linkonly*` too: precision 0.5.
        assert!((mutual_free.precision - 0.5).abs() < 1e-9);
        assert!(ranked[0].precision > mutual_free.precision);
    }

    #[test]
    fn precision_recall_bounds() {
        let (g, examples) = world();
        for m in learn_motifs(&g, &examples, Objective::F1) {
            assert!((0.0..=1.0).contains(&m.precision), "{}", m.spec.name());
            assert!((0.0..=1.0).contains(&m.recall));
            assert!((0.0..=1.0).contains(&m.f1));
            assert!(m.f1 <= m.precision.max(m.recall) + 1e-12);
        }
    }

    #[test]
    fn empty_examples_are_harmless() {
        let (g, _) = world();
        let ranked = learn_motifs(&g, &[], Objective::F1);
        assert_eq!(ranked.len(), 15);
        assert!(ranked.iter().all(|m| m.f1 == 0.0));
    }

    #[test]
    fn recall_objective_prefers_broader_patterns() {
        let (g, examples) = world();
        let by_recall = learn_motifs(&g, &examples, Objective::Recall);
        // Any top-recall spec must reach every optimal node here.
        assert!((by_recall[0].recall - 1.0).abs() < 1e-9);
    }

    #[test]
    fn avg_expansions_reports_feature_budget() {
        let (g, examples) = world();
        let scored = score_spec(
            &g,
            MotifSpec {
                link: LinkCondition::Mutual,
                category: CategoryScope::Unconstrained,
                weight: WeightRule::Counted,
            },
            &examples,
        );
        // Two mutual partners per query node.
        assert!((scored.avg_expansions - 2.0).abs() < 1e-9);
    }
}
