//! Query graph construction.
//!
//! "SQE consists in, given the query nodes as a starting point, identify
//! all the nodes of the Wikipedia graph that are part of a motif and add
//! them to the query graph. At the same time, while the motifs are being
//! traversed, we build a set of pairs ⟨a, |m_a|⟩, where a is an article
//! that has appeared among the expansion nodes, and |m_a| is the number of
//! motifs in which it has appeared." (Section 2.2)

use kbgraph::{ArticleId, KbGraph};
use rustc_hash::FxHashMap;

use crate::spec::{MotifSet, MotifSpec};

/// The query graph: query nodes plus weighted expansion nodes.
#[derive(Debug, Clone, Default)]
pub struct QueryGraph {
    /// The articles the user's query was linked to.
    pub query_nodes: Vec<ArticleId>,
    /// Expansion articles with their motif multiplicities `|m_a|`,
    /// sorted by descending multiplicity then article id.
    pub expansions: Vec<(ArticleId, u32)>,
}

impl QueryGraph {
    /// Number of expansion nodes.
    pub fn num_expansions(&self) -> usize {
        self.expansions.len()
    }

    /// The multiplicity of an expansion article, 0 if absent.
    pub fn multiplicity(&self, a: ArticleId) -> u32 {
        self.expansions
            .iter()
            .find(|&&(x, _)| x == a)
            .map_or(0, |&(_, m)| m)
    }

    /// Keeps only the `n` highest-multiplicity expansions.
    pub fn truncate(&mut self, n: usize) {
        self.expansions.truncate(n);
    }

    /// Renders the query graph (query nodes, expansion nodes, and their
    /// categories) as Graphviz DOT in the style of the paper's Figures
    /// 3–4: black round query nodes, white round expansion nodes, square
    /// categories.
    pub fn to_dot(&self, graph: &KbGraph, name: &str) -> String {
        use kbgraph::dot::{to_dot, NodeRole};
        use kbgraph::{CategoryId, Node};
        let mut nodes: Vec<(Node, NodeRole)> = Vec::new();
        let mut cats: Vec<u32> = Vec::new();
        for &qn in &self.query_nodes {
            nodes.push((Node::Article(qn), NodeRole::Query));
            cats.extend_from_slice(graph.categories_of(qn));
        }
        for &(a, _) in &self.expansions {
            nodes.push((Node::Article(a), NodeRole::Expansion));
            cats.extend_from_slice(graph.categories_of(a));
        }
        cats.sort_unstable();
        cats.dedup();
        for c in cats {
            nodes.push((Node::Category(CategoryId::new(c)), NodeRole::Context));
        }
        to_dot(graph, &nodes, name)
    }
}

/// Reusable buffers for [`QueryGraphBuilder::build_with_scratch`]: the
/// multiplicity map and the per-motif traversal buffer survive across
/// queries so batch serving does not reallocate per query.
#[derive(Debug, Default)]
pub struct QueryGraphScratch {
    counts: FxHashMap<ArticleId, u32>,
    motif_buf: Vec<(ArticleId, u32)>,
}

impl QueryGraphScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        QueryGraphScratch::default()
    }
}

/// Builds query graphs by running a motif set from every query node.
pub struct QueryGraphBuilder<'g> {
    graph: &'g KbGraph,
    specs: &'g [MotifSpec],
}

impl<'g> QueryGraphBuilder<'g> {
    /// Creates a builder over the KB that runs every spec of a canonical
    /// [`MotifSet`]. The paper's configurations are
    /// [`MotifSet::triangular`] (`SQE_T`), [`MotifSet::square`]
    /// (`SQE_S`) and [`MotifSet::t_and_s`] (`SQE_T&S`).
    pub fn from_set(graph: &'g KbGraph, motifs: &'g MotifSet) -> Self {
        QueryGraphBuilder {
            graph,
            specs: motifs.specs(),
        }
    }

    /// The underlying KB graph.
    pub fn graph(&self) -> &KbGraph {
        self.graph
    }

    /// Builds the query graph of a set of query nodes: the union of all
    /// motif expansions over all query nodes, with `|m_a|` summed across
    /// motifs *and* query nodes. Query nodes never appear among their own
    /// expansions.
    pub fn build(&self, query_nodes: &[ArticleId]) -> QueryGraph {
        self.build_with_scratch(query_nodes, &mut QueryGraphScratch::new())
    }

    /// [`QueryGraphBuilder::build`] with caller-owned scratch buffers;
    /// identical output (the multiplicity map is drained and the result
    /// fully sorted, so map iteration order never leaks).
    pub fn build_with_scratch(
        &self,
        query_nodes: &[ArticleId],
        scratch: &mut QueryGraphScratch,
    ) -> QueryGraph {
        scratch.counts.clear();
        for &qn in query_nodes {
            for spec in self.specs {
                scratch.motif_buf.clear();
                spec.expansions_into(self.graph, qn, &mut scratch.motif_buf);
                for &(a, m) in &scratch.motif_buf {
                    if !query_nodes.contains(&a) {
                        *scratch.counts.entry(a).or_insert(0) += m;
                    }
                }
            }
        }
        let mut expansions: Vec<(ArticleId, u32)> = scratch.counts.drain().collect();
        expansions.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        QueryGraph {
            query_nodes: query_nodes.to_vec(),
            expansions,
        }
    }

    /// Builds query graphs for many queries, spreading whole-query work
    /// items over `threads` workers via the work-stealing executor (the
    /// parallelization the paper's Section 4.4 suggests). Results keep
    /// input order.
    pub fn build_many(&self, queries: &[Vec<ArticleId>], threads: usize) -> Vec<QueryGraph> {
        crate::serve::run_indexed(queries, threads, QueryGraphScratch::new, |q, scratch| {
            self.build_with_scratch(q, scratch)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbgraph::GraphBuilder;

    /// Two query nodes sharing one expansion partner (via triangles) and
    /// each having a private square partner.
    fn toy() -> (KbGraph, Vec<ArticleId>, ArticleId) {
        let mut b = GraphBuilder::new();
        let q1 = b.add_article("q1");
        let q2 = b.add_article("q2");
        let shared = b.add_article("shared");
        let c = b.add_category("c");
        b.add_membership(q1, c);
        b.add_membership(q2, c);
        b.add_membership(shared, c);
        b.add_mutual_link(q1, shared);
        b.add_mutual_link(q2, shared);
        (b.build(), vec![q1, q2], shared)
    }

    #[test]
    fn multiplicity_sums_over_query_nodes() {
        let (g, qns, shared) = toy();
        let set = MotifSet::triangular();
        let builder = QueryGraphBuilder::from_set(&g, &set);
        let qg = builder.build(&qns);
        assert_eq!(qg.num_expansions(), 1);
        // One triangle from q1 and one from q2.
        assert_eq!(qg.multiplicity(shared), 2);
    }

    #[test]
    fn query_nodes_excluded_from_expansions() {
        let mut b = GraphBuilder::new();
        let q1 = b.add_article("q1");
        let q2 = b.add_article("q2");
        let c = b.add_category("c");
        b.add_membership(q1, c);
        b.add_membership(q2, c);
        b.add_mutual_link(q1, q2);
        let g = b.build();
        let set = MotifSet::t_and_s();
        let builder = QueryGraphBuilder::from_set(&g, &set);
        let qg = builder.build(&[q1, q2]);
        assert_eq!(
            qg.num_expansions(),
            0,
            "query nodes expand each other but must not be expansion nodes"
        );
    }

    #[test]
    fn empty_motif_set_builds_empty_graph() {
        let (g, qns, _) = toy();
        let empty = MotifSet::empty();
        let builder = QueryGraphBuilder::from_set(&g, &empty);
        let qg = builder.build(&qns);
        assert!(qg.expansions.is_empty());
        assert_eq!(qg.query_nodes, qns);
    }

    #[test]
    fn both_motifs_sum_multiplicities() {
        // A pair that closes one triangle AND one square.
        let mut b = GraphBuilder::new();
        let q = b.add_article("q");
        let x = b.add_article("x");
        let c = b.add_category("c");
        let sub = b.add_category("sub");
        b.add_membership(q, c);
        b.add_membership(x, c);
        b.add_membership(x, sub);
        b.add_subcategory(sub, c);
        b.add_mutual_link(q, x);
        let g = b.build();
        let t = QueryGraphBuilder::from_set(&g, &MotifSet::triangular()).build(&[q]);
        let s = QueryGraphBuilder::from_set(&g, &MotifSet::square()).build(&[q]);
        let ts = QueryGraphBuilder::from_set(&g, &MotifSet::t_and_s()).build(&[q]);
        assert_eq!(ts.multiplicity(x), t.multiplicity(x) + s.multiplicity(x));
    }

    #[test]
    fn expansions_sorted_by_multiplicity() {
        let (g, qns, _) = toy();
        let set = MotifSet::t_and_s();
        let builder = QueryGraphBuilder::from_set(&g, &set);
        let qg = builder.build(&qns);
        for w in qg.expansions.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn truncate_keeps_top() {
        let mut qg = QueryGraph {
            query_nodes: vec![],
            expansions: vec![
                (ArticleId::new(1), 5),
                (ArticleId::new(2), 3),
                (ArticleId::new(3), 1),
            ],
        };
        qg.truncate(2);
        assert_eq!(qg.num_expansions(), 2);
        assert_eq!(qg.multiplicity(ArticleId::new(3)), 0);
    }

    #[test]
    fn dot_rendering_includes_roles() {
        let (g, qns, shared) = toy();
        let qg = QueryGraphBuilder::from_set(&g, &MotifSet::triangular()).build(&qns);
        let dot = qg.to_dot(&g, "test");
        assert!(dot.contains("fillcolor=black"), "query nodes black");
        assert!(dot.contains("fillcolor=white"), "expansion nodes white");
        assert!(dot.contains("shape=box"), "categories as boxes");
        let _ = shared;
    }

    #[test]
    fn build_many_matches_sequential() {
        let (g, qns, _) = toy();
        let set = MotifSet::t_and_s();
        let builder = QueryGraphBuilder::from_set(&g, &set);
        let queries: Vec<Vec<ArticleId>> = vec![qns.clone(), vec![qns[0]], vec![qns[1]]];
        let seq = builder.build_many(&queries, 1);
        let par = builder.build_many(&queries, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.expansions, b.expansions);
        }
    }
}
