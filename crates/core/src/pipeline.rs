//! End-to-end SQE retrieval pipeline.
//!
//! Binds a KB graph and a document index and exposes every retrieval
//! configuration of the paper's evaluation: the `QL` baselines, the three
//! motif configurations, the combined `SQE_C`, and the ground-truth upper
//! bound `SQE^UB`.

use kbgraph::{ArticleId, KbGraph};
use searchlite::ql::{self, QlParams, QlScratch, SearchHit};
use searchlite::{Index, Query, Searcher};

use crate::combine;
use crate::expand::{self, ExpandConfig, ExpandedQuery};
use crate::query_graph::{QueryGraph, QueryGraphBuilder, QueryGraphScratch};
use crate::spec::MotifSet;

/// Reusable per-worker buffers for batch SQE serving: motif-traversal
/// scratch plus retrieval scratch. One instance per worker thread.
#[derive(Debug, Default)]
pub struct SqeScratch {
    pub(crate) qg: QueryGraphScratch,
    pub(crate) ql: QlScratch,
}

impl SqeScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        SqeScratch::default()
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SqeConfig {
    /// Query-part weights.
    pub expand: ExpandConfig,
    /// Retrieval-model parameters.
    pub ql: QlParams,
    /// Ranked-list depth (trec_eval evaluates down to P@1000).
    pub depth: usize,
}

impl Default for SqeConfig {
    fn default() -> Self {
        SqeConfig {
            expand: ExpandConfig::default(),
            ql: QlParams::default(),
            depth: 1000,
        }
    }
}

/// The SQE pipeline over one KB and one collection view.
///
/// Retrieval goes through a [`Searcher`] — a merged read view over one
/// or more immutable segments — so a pipeline built from a monolithic
/// index and one built from any partition of the same documents score
/// byte-identically.
pub struct SqePipeline<'a> {
    graph: &'a KbGraph,
    searcher: Searcher,
    cfg: SqeConfig,
}

impl<'a> SqePipeline<'a> {
    /// Creates a pipeline over a segmented searcher view.
    ///
    /// In debug builds with the default `validate` feature, the graph and
    /// every segment are run through their structural auditors first, so a
    /// graph or index corrupted in persistence fails loudly here instead
    /// of producing silently wrong rankings downstream.
    pub fn new(graph: &'a KbGraph, searcher: Searcher, cfg: SqeConfig) -> Self {
        #[cfg(all(debug_assertions, feature = "validate"))]
        {
            kbgraph::audit::GraphAudit::run(graph).assert_clean("SqePipeline::new");
            for seg in searcher.segments() {
                searchlite::audit::IndexAudit::run(seg.index()).assert_clean("SqePipeline::new");
            }
        }
        SqePipeline {
            graph,
            searcher,
            cfg,
        }
    }

    /// Convenience constructor over a single monolithic index: wraps it in
    /// a one-segment [`Searcher`] (the index is cloned into the segment).
    pub fn from_index(graph: &'a KbGraph, index: &Index, cfg: SqeConfig) -> Self {
        SqePipeline::new(graph, Searcher::from_index(index.clone()), cfg)
    }

    /// Creates a pipeline over a loaded binary snapshot — the cold-start
    /// path. The snapshot's structures were already checksum-verified,
    /// shape-validated and audited at decode, so this only resolves the
    /// collection into a searcher view (over however many segments the
    /// snapshot holds); no JSON and no regeneration is involved.
    pub fn from_snapshot(
        snapshot: &'a sqe_store::Snapshot,
        collection: &str,
        cfg: SqeConfig,
    ) -> Result<Self, sqe_store::StoreError> {
        let searcher = snapshot.searcher(collection)?;
        Ok(SqePipeline::new(snapshot.graph(), searcher, cfg))
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &SqeConfig {
        &self.cfg
    }

    /// The KB graph.
    pub fn graph(&self) -> &KbGraph {
        self.graph
    }

    /// The merged searcher view over the collection's segments.
    pub fn searcher(&self) -> &Searcher {
        &self.searcher
    }

    fn rank(&self, query: &Query) -> Vec<SearchHit> {
        ql::rank(&self.searcher, query, self.cfg.ql, self.cfg.depth)
    }

    /// Converts hits to external document ids.
    pub fn external_ids(&self, hits: &[SearchHit]) -> Vec<String> {
        hits.iter()
            .map(|h| self.searcher.external_id(h.doc).to_owned())
            .collect()
    }

    // ------------------------------------------------------ baselines --

    /// `QL_Q`: the user's keywords only.
    pub fn rank_user(&self, text: &str) -> Vec<SearchHit> {
        let q = expand::user_part(text, self.searcher.analyzer());
        self.rank(&q)
    }

    /// [`SqePipeline::rank_user`] against a caller-owned scratch — the
    /// sequential reference for the serving layer's unexpanded
    /// degraded-mode rung.
    pub fn rank_user_with_scratch(&self, text: &str, scratch: &mut SqeScratch) -> Vec<SearchHit> {
        let q = expand::user_part(text, self.searcher.analyzer());
        ql::rank_with_scratch(
            &self.searcher,
            &q,
            self.cfg.ql,
            self.cfg.depth,
            &mut scratch.ql,
        )
    }

    /// `QL_E`: the query-entity titles only, as a keyword bag (the
    /// baseline runs titles through plain query likelihood).
    pub fn rank_entities(&self, nodes: &[ArticleId]) -> Vec<SearchHit> {
        let q = expand::entities_bag_part(self.graph, nodes, self.searcher.analyzer());
        self.rank(&q)
    }

    /// `QL_Q&E`: user keywords and entity-title keywords, equally
    /// weighted.
    pub fn rank_user_entities(&self, text: &str, nodes: &[ArticleId]) -> Vec<SearchHit> {
        let user = expand::user_part(text, self.searcher.analyzer());
        let ents = expand::entities_bag_part(self.graph, nodes, self.searcher.analyzer());
        let q = Query::combine(&[(user, 0.5), (ents, 0.5)]);
        self.rank(&q)
    }

    /// `QL_X`: the expansion features alone (used in Figure 6 to show
    /// that isolated expansion features *hurt*).
    pub fn rank_expansion_only(&self, qg: &QueryGraph) -> Vec<SearchHit> {
        let q = expand::expansion_part(
            self.graph,
            qg,
            self.searcher.analyzer(),
            self.cfg.expand.max_expansions,
        );
        self.rank(&q)
    }

    // ------------------------------------------------------------ SQE --

    /// Builds the query graph for the given motif set.
    pub fn build_query_graph(&self, nodes: &[ArticleId], motifs: &MotifSet) -> QueryGraph {
        QueryGraphBuilder::from_set(self.graph, motifs).build(nodes)
    }

    /// Expands a query with the given motif set.
    pub fn expand(&self, text: &str, nodes: &[ArticleId], motifs: &MotifSet) -> ExpandedQuery {
        let qg = self.build_query_graph(nodes, motifs);
        expand::build_expanded_query(
            self.graph,
            text,
            &qg,
            self.searcher.analyzer(),
            &self.cfg.expand,
        )
    }

    /// `SQE` retrieval under any motif set — the paper's `SQE_T`,
    /// `SQE_S` and `SQE_T&S` are [`MotifSet::triangular`],
    /// [`MotifSet::square`] and [`MotifSet::t_and_s`].
    pub fn rank_sqe(
        &self,
        text: &str,
        nodes: &[ArticleId],
        motifs: &MotifSet,
    ) -> (Vec<SearchHit>, QueryGraph) {
        self.rank_sqe_with_scratch(text, nodes, motifs, &mut SqeScratch::new())
    }

    /// [`SqePipeline::rank_sqe`] with caller-owned scratch buffers;
    /// identical output.
    pub fn rank_sqe_with_scratch(
        &self,
        text: &str,
        nodes: &[ArticleId],
        motifs: &MotifSet,
        scratch: &mut SqeScratch,
    ) -> (Vec<SearchHit>, QueryGraph) {
        let qg = QueryGraphBuilder::from_set(self.graph, motifs)
            .build_with_scratch(nodes, &mut scratch.qg);
        let query = expand::build_query(
            self.graph,
            text,
            &qg.query_nodes,
            &qg.expansions,
            self.searcher.analyzer(),
            &self.cfg.expand,
        );
        let hits = ql::rank_with_scratch(
            &self.searcher,
            &query,
            self.cfg.ql,
            self.cfg.depth,
            &mut scratch.ql,
        );
        (hits, qg)
    }

    /// `SQE^UB`: expansion from externally supplied (ground-truth)
    /// expansion nodes instead of motif traversal.
    pub fn rank_with_expansions(
        &self,
        text: &str,
        nodes: &[ArticleId],
        expansions: &[(ArticleId, u32)],
    ) -> Vec<SearchHit> {
        let qg = QueryGraph {
            query_nodes: nodes.to_vec(),
            expansions: expansions.to_vec(),
        };
        let eq = expand::build_expanded_query(
            self.graph,
            text,
            &qg,
            self.searcher.analyzer(),
            &self.cfg.expand,
        );
        self.rank(&eq.query)
    }

    /// Batch `SQE` retrieval over many queries, spread across `threads`
    /// workers via the work-stealing executor (the parallelization the
    /// paper's Section 4.4 suggests would trivially reduce its expansion
    /// times). Results keep input order; each entry is the ranked hit
    /// list of the corresponding `(text, nodes)` pair.
    pub fn rank_sqe_many(
        &self,
        queries: &[(String, Vec<ArticleId>)],
        motifs: &MotifSet,
        threads: usize,
    ) -> Vec<Vec<SearchHit>> {
        crate::serve::run_indexed(
            queries,
            threads,
            SqeScratch::new,
            |(text, nodes), scratch| self.rank_sqe_with_scratch(text, nodes, motifs, scratch).0,
        )
    }

    /// `SQE_C`: the paper's rank-range combination — ranks 1–5 from
    /// `SQE_T`, 6–200 from `SQE_T&S`, the rest from `SQE_S`. Returns
    /// external document ids (the form trec_eval consumes).
    pub fn rank_sqe_c(&self, text: &str, nodes: &[ArticleId]) -> Vec<String> {
        let (t, _) = self.rank_sqe(text, nodes, &MotifSet::triangular());
        let (ts, _) = self.rank_sqe(text, nodes, &MotifSet::t_and_s());
        let (s, _) = self.rank_sqe(text, nodes, &MotifSet::square());
        combine::sqe_c(
            &self.external_ids(&t),
            &self.external_ids(&ts),
            &self.external_ids(&s),
            self.cfg.depth,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbgraph::GraphBuilder;
    use searchlite::{Analyzer, IndexBuilder};

    /// A miniature world: two doubly-linked articles in one category;
    /// documents about each; the expansion should pull in funicular docs
    /// for a cable-car query.
    fn world() -> (KbGraph, Index, ArticleId) {
        let mut b = GraphBuilder::new();
        let cable = b.add_article("cable car");
        let funi = b.add_article("funicular");
        let cat = b.add_category("mountain railways");
        b.add_mutual_link(cable, funi);
        b.add_membership(cable, cat);
        b.add_membership(funi, cat);
        let graph = b.build();

        let mut ib = IndexBuilder::new(Analyzer::plain());
        ib.add_document("d-cable-0", "cable car climbing the peak")
            .expect("unique test ids");
        ib.add_document("d-funi-0", "old funicular near the village")
            .expect("unique test ids");
        ib.add_document("d-funi-1", "the funicular station entrance")
            .expect("unique test ids");
        ib.add_document("d-noise-0", "a market square with fruit")
            .expect("unique test ids");
        let index = ib.build();
        (graph, index, cable)
    }

    #[test]
    fn baseline_misses_expansion_docs() {
        let (graph, index, cable) = world();
        let p = SqePipeline::from_index(&graph, &index, SqeConfig::default());
        let hits = p.rank_user("cable car");
        let ids = p.external_ids(&hits);
        assert!(ids.contains(&"d-cable-0".to_owned()));
        assert!(!ids.contains(&"d-funi-0".to_owned()));
        let _ = cable;
    }

    #[test]
    fn sqe_t_reaches_funicular_documents() {
        let (graph, index, cable) = world();
        let p = SqePipeline::from_index(&graph, &index, SqeConfig::default());
        let (hits, qg) = p.rank_sqe("cable car", &[cable], &MotifSet::triangular());
        assert_eq!(qg.num_expansions(), 1);
        let ids = p.external_ids(&hits);
        assert!(ids.contains(&"d-funi-0".to_owned()));
        assert!(ids.contains(&"d-funi-1".to_owned()));
        assert!(!ids.contains(&"d-noise-0".to_owned()));
    }

    #[test]
    fn square_motif_finds_nothing_here() {
        let (graph, index, cable) = world();
        let p = SqePipeline::from_index(&graph, &index, SqeConfig::default());
        let qg = p.build_query_graph(&[cable], &MotifSet::square());
        assert_eq!(qg.num_expansions(), 0, "shared category is not a square");
    }

    #[test]
    fn expansion_only_ranks_only_expansion_docs_on_top() {
        let (graph, index, cable) = world();
        let p = SqePipeline::from_index(&graph, &index, SqeConfig::default());
        let qg = p.build_query_graph(&[cable], &MotifSet::triangular());
        let hits = p.rank_expansion_only(&qg);
        let ids = p.external_ids(&hits);
        assert!(ids[0].starts_with("d-funi"));
    }

    #[test]
    fn ground_truth_expansion_api() {
        let (graph, index, cable) = world();
        let p = SqePipeline::from_index(&graph, &index, SqeConfig::default());
        let funi = graph.find_article_by_title("funicular").unwrap();
        let hits = p.rank_with_expansions("cable car", &[cable], &[(funi, 2)]);
        let ids = p.external_ids(&hits);
        assert!(ids.contains(&"d-funi-0".to_owned()));
    }

    #[test]
    fn sqe_c_combines_and_dedups() {
        let (graph, index, cable) = world();
        let p = SqePipeline::from_index(&graph, &index, SqeConfig::default());
        let ids = p.rank_sqe_c("cable car", &[cable]);
        let set: std::collections::HashSet<&String> = ids.iter().collect();
        assert_eq!(set.len(), ids.len(), "no duplicates");
        assert!(!ids.is_empty());
    }

    #[test]
    fn parallel_batch_matches_sequential() {
        let (graph, index, cable) = world();
        let p = SqePipeline::from_index(&graph, &index, SqeConfig::default());
        let queries: Vec<(String, Vec<ArticleId>)> = vec![
            ("cable car".into(), vec![cable]),
            ("funicular station".into(), vec![cable]),
            ("market fruit".into(), vec![]),
        ];
        let seq = p.rank_sqe_many(&queries, &MotifSet::t_and_s(), 1);
        let par = p.rank_sqe_many(&queries, &MotifSet::t_and_s(), 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn pipeline_from_snapshot_matches_fresh() {
        let (graph, index, cable) = world();
        let dict = entitylink::Dictionary::new();
        let segments = [&index];
        let named = [("world", &segments[..])];
        let bytes = sqe_store::encode_snapshot(&sqe_store::SnapshotContents {
            graph: &graph,
            collections: &named,
            dict: &dict,
        })
        .unwrap();
        let snap = sqe_store::Snapshot::from_bytes(&bytes).unwrap();
        let fresh = SqePipeline::from_index(&graph, &index, SqeConfig::default());
        let loaded = SqePipeline::from_snapshot(&snap, "world", SqeConfig::default()).unwrap();
        let (h1, qg1) = fresh.rank_sqe("cable car", &[cable], &MotifSet::triangular());
        let (h2, qg2) = loaded.rank_sqe("cable car", &[cable], &MotifSet::triangular());
        assert_eq!(h1, h2);
        assert_eq!(qg1.expansions, qg2.expansions);
        assert!(matches!(
            SqePipeline::from_snapshot(&snap, "missing", SqeConfig::default()),
            Err(sqe_store::StoreError::NoSuchCollection { .. })
        ));
    }

    #[test]
    fn segmented_pipeline_matches_monolithic() {
        use searchlite::Segment;
        use std::sync::Arc;
        let (graph, index, cable) = world();
        // The same four documents, split across two segments.
        let mut a = IndexBuilder::new(Analyzer::plain());
        a.add_document("d-cable-0", "cable car climbing the peak")
            .expect("unique test ids");
        a.add_document("d-funi-0", "old funicular near the village")
            .expect("unique test ids");
        let mut b = IndexBuilder::new(Analyzer::plain());
        b.add_document("d-funi-1", "the funicular station entrance")
            .expect("unique test ids");
        b.add_document("d-noise-0", "a market square with fruit")
            .expect("unique test ids");
        let searcher = Searcher::new(
            Analyzer::plain(),
            vec![
                Arc::new(Segment::new(0, a.build())),
                Arc::new(Segment::new(1, b.build())),
            ],
            0,
        );
        let mono = SqePipeline::from_index(&graph, &index, SqeConfig::default());
        let segp = SqePipeline::new(&graph, searcher, SqeConfig::default());
        let (h1, qg1) = mono.rank_sqe("cable car", &[cable], &MotifSet::triangular());
        let (h2, qg2) = segp.rank_sqe("cable car", &[cable], &MotifSet::triangular());
        assert_eq!(qg1.expansions, qg2.expansions);
        assert_eq!(mono.external_ids(&h1), segp.external_ids(&h2));
        for (x, y) in h1.iter().zip(h2.iter()) {
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "scores must be bit-identical"
            );
        }
    }

    #[test]
    fn entities_baseline_uses_phrase() {
        let (graph, index, cable) = world();
        let p = SqePipeline::from_index(&graph, &index, SqeConfig::default());
        let hits = p.rank_entities(&[cable]);
        let ids = p.external_ids(&hits);
        assert_eq!(ids[0], "d-cable-0");
    }

    #[test]
    fn user_entities_baseline_combines() {
        let (graph, index, cable) = world();
        let p = SqePipeline::from_index(&graph, &index, SqeConfig::default());
        let hits = p.rank_user_entities("peak climbing", &[cable]);
        assert!(!hits.is_empty());
        let ids = p.external_ids(&hits);
        assert_eq!(ids[0], "d-cable-0");
    }
}
