//! Ground-truth optimal query graphs.
//!
//! The paper's structural analysis (Section 2.1) and its upper bound
//! `SQE^UB` (Table 1) rely on a published ground truth (the paper's
//! reference \[10\]) that maps each
//! Image CLEF query to its *optimal query graph* — the expansion nodes
//! that maximize precision. In the synthetic world that ground truth is
//! available by construction: the optimal expansion nodes of a query are
//! the articles of its relevance neighbourhood (documents about them are
//! exactly the relevant documents).

use std::collections::BTreeMap;

use kbgraph::ArticleId;

use crate::concepts::ConceptSpace;
use crate::kb::SynthKb;
use crate::queries::QuerySpec;

/// Weight of a same-subtopic expansion node in the optimal query graph.
pub const CLOSE_WEIGHT: u32 = 2;
/// Weight of any other optimal expansion node.
pub const FAR_WEIGHT: u32 = 1;

/// The optimal query graph of one query.
#[derive(Debug, Clone)]
pub struct OptimalQueryGraph {
    /// Query id.
    pub query_id: String,
    /// The query nodes (articles of the target entities).
    pub query_nodes: Vec<ArticleId>,
    /// The optimal expansion nodes (articles of the relevance
    /// neighbourhood, excluding the query nodes themselves).
    pub expansion_nodes: Vec<ArticleId>,
    /// Expansion weights parallel to `expansion_nodes` (same-subtopic
    /// nodes count double — they carry most of the precision, which is
    /// what makes the ground truth an *upper bound*).
    pub weights: Vec<u32>,
}

impl OptimalQueryGraph {
    /// `(article, weight)` pairs ready for
    /// `SqePipeline::rank_with_expansions`.
    pub fn weighted_expansions(&self) -> Vec<(ArticleId, u32)> {
        self.expansion_nodes
            .iter()
            .copied()
            .zip(self.weights.iter().copied())
            .collect()
    }
}

/// Ground truth for a whole query set.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    // BTreeMap (not FxHashMap) so any traversal of the ground truth —
    // averaging, serialization, debug dumps — is deterministic by
    // construction.
    graphs: BTreeMap<String, OptimalQueryGraph>,
}

impl GroundTruth {
    /// Derives the ground truth of a query set from the generator's
    /// relevance neighbourhoods. Same-subtopic peers of a target weigh
    /// [`CLOSE_WEIGHT`], other neighbourhood entities [`FAR_WEIGHT`].
    pub fn derive(kb: &SynthKb, space: &ConceptSpace, queries: &[QuerySpec]) -> GroundTruth {
        let mut graphs = BTreeMap::new();
        for q in queries {
            let query_nodes: Vec<ArticleId> = q.targets.iter().map(|&e| kb.article_of[e]).collect();
            let target_subtopics: Vec<usize> = q
                .targets
                .iter()
                .map(|&e| space.entities[e].subtopic)
                .collect();
            let mut expansion_nodes = Vec::new();
            let mut weights = Vec::new();
            for &e in q
                .relevant_entities
                .iter()
                .filter(|e| !q.targets.contains(e))
            {
                expansion_nodes.push(kb.article_of[e]);
                let close = target_subtopics.contains(&space.entities[e].subtopic);
                weights.push(if close { CLOSE_WEIGHT } else { FAR_WEIGHT });
            }
            graphs.insert(
                q.id.clone(),
                OptimalQueryGraph {
                    query_id: q.id.clone(),
                    query_nodes,
                    expansion_nodes,
                    weights,
                },
            );
        }
        GroundTruth { graphs }
    }

    /// The optimal graph of a query, if known.
    pub fn graph(&self, query_id: &str) -> Option<&OptimalQueryGraph> {
        self.graphs.get(query_id)
    }

    /// Number of queries covered.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// True when no query is covered.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// Mean number of expansion nodes per query.
    pub fn avg_expansion_nodes(&self) -> f64 {
        if self.graphs.is_empty() {
            return 0.0;
        }
        let total: usize = self.graphs.values().map(|g| g.expansion_nodes.len()).sum();
        total as f64 / self.graphs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TestBedConfig;
    use crate::dataset::TestBed;

    #[test]
    fn ground_truth_covers_all_queries() {
        let bed = TestBed::generate(&TestBedConfig::small());
        let d = bed.dataset("imageclef");
        let gt = GroundTruth::derive(&bed.kb, &bed.space, &d.queries);
        assert_eq!(gt.len(), d.queries.len());
        for q in &d.queries {
            let g = gt.graph(&q.id).unwrap();
            assert_eq!(g.query_nodes.len(), q.targets.len());
            assert!(!g.expansion_nodes.is_empty());
            for qn in &g.query_nodes {
                assert!(!g.expansion_nodes.contains(qn));
            }
        }
        assert!(gt.avg_expansion_nodes() > 1.0);
    }

    #[test]
    fn unknown_query_is_none() {
        let gt = GroundTruth::default();
        assert!(gt.graph("nope").is_none());
        assert!(gt.is_empty());
    }
}
