//! The traced request path: one SQE request rebuilt from the public
//! calls of each layer, each call recorded as a span. It mirrors what
//! `QueryService`/`ShardedService` do inside one call, so a traced
//! response must equal the service's response for the same request.

use std::sync::Arc;

use entitylink::EntityLinker;
use kbgraph::{ArticleId, KbGraph};
use searchlite::ql::{self, QlScratch};
use searchlite::{Analyzer, Query, SearchHit, Searcher};
use sqe::cache::CachedExpansions;
use sqe::{
    combine, expand, CacheKey, ExpansionCache, MotifSet, QueryGraphBuilder, QueryGraphScratch,
    ShardedService, SqeConfig,
};

use crate::bed;
use crate::trace::{Trace, ROOT};

/// Where a stage's structured query is ranked.
pub enum Backend<'a, 's> {
    /// One searcher view (`QueryService`'s path).
    Single(&'a Searcher),
    /// Scatter-gather over a sharded service (`ShardedService`'s path).
    Sharded(&'a ShardedService<'s>, &'a Analyzer),
}

/// Times of the set-up publish a traced run takes per view, where a
/// workload publishes only once.
pub const PUBLISH_REPS: usize = 5;

/// Times `Searcher::new` over the segments of a published view: the
/// publish step a service runs after each seal or at set-up.
pub fn publish(tr: &mut Trace, view: &Searcher) {
    tr.span("searchlite.searcher.publish", ROOT, || {
        Searcher::new(
            view.analyzer().clone(),
            view.segments().to_vec(),
            view.epoch(),
        )
    });
}

/// Work counts of the traced path: integers that depend only on the
/// inputs, never on timing.
#[derive(Default, Clone, Copy, PartialEq, Eq, Debug)]
pub struct Counts {
    pub stages: u64,
    pub cache_hits: u64,
    pub expansions: u64,
    pub features: u64,
}

impl Counts {
    pub fn hit_share(&self) -> f64 {
        self.cache_hits as f64 / self.stages.max(1) as f64
    }

    pub fn expansions_per_stage(&self) -> f64 {
        self.expansions as f64 / self.stages.max(1) as f64
    }

    pub fn features_per_stage(&self) -> f64 {
        self.features as f64 / self.stages.max(1) as f64
    }
}

/// The traced composition with its own expansion cache and scratch.
pub struct TracedPath<'g> {
    graph: &'g KbGraph,
    cfg: SqeConfig,
    cache: ExpansionCache,
    qg: QueryGraphScratch,
    ql: QlScratch,
    pub counts: Counts,
}

impl<'g> TracedPath<'g> {
    /// A path whose cache has the services' capacity and starts cold.
    pub fn new(graph: &'g KbGraph, cfg: SqeConfig, cache_capacity: usize) -> Self {
        TracedPath {
            graph,
            cfg,
            cache: ExpansionCache::new(cache_capacity),
            qg: QueryGraphScratch::new(),
            ql: QlScratch::new(),
            counts: Counts::default(),
        }
    }

    /// Drops every cached expansion, as a service does when it publishes
    /// a new view.
    pub fn invalidate(&self) {
        self.cache.invalidate();
    }

    pub fn link(
        &self,
        tr: &mut Trace,
        parent: u32,
        linker: &EntityLinker,
        text: &str,
    ) -> Vec<ArticleId> {
        tr.span("entitylink.link", parent, || bed::link_nodes(linker, text))
    }

    fn expansions(
        &mut self,
        tr: &mut Trace,
        parent: u32,
        nodes: &[ArticleId],
        motifs: &MotifSet,
    ) -> CachedExpansions {
        let key = CacheKey::new(nodes, motifs.fingerprint());
        let cache = &self.cache;
        let cached = tr.span("sqe.cache.get", parent, || cache.get(&key));
        let expansions = match cached {
            Some(hit) => {
                self.counts.cache_hits += 1;
                hit
            }
            None => {
                let (graph, scratch) = (self.graph, &mut self.qg);
                let qg = tr.span("sqe.query_graph.expand", parent, || {
                    QueryGraphBuilder::from_set(graph, motifs).build_with_scratch(nodes, scratch)
                });
                let fresh: CachedExpansions = Arc::new(qg.expansions);
                let value = Arc::clone(&fresh);
                tr.span("sqe.cache.insert", parent, || cache.insert(key, value));
                fresh
            }
        };
        self.counts.expansions += expansions.len() as u64;
        expansions
    }

    /// Expansions (cache or traversal), then the structured query.
    fn query(
        &mut self,
        tr: &mut Trace,
        parent: u32,
        analyzer: &Analyzer,
        text: &str,
        nodes: &[ArticleId],
        motifs: &MotifSet,
    ) -> Query {
        self.counts.stages += 1;
        let expansions = self.expansions(tr, parent, nodes, motifs);
        let (graph, cfg) = (self.graph, &self.cfg);
        let query = tr.span("sqe.expand.build_query", parent, || {
            expand::build_query(graph, text, nodes, &expansions, analyzer, &cfg.expand)
        });
        self.counts.features += query.len() as u64;
        query
    }

    /// One stage ranked on one searcher view, as hits.
    pub fn rank(
        &mut self,
        tr: &mut Trace,
        parent: u32,
        searcher: &Searcher,
        text: &str,
        nodes: &[ArticleId],
        motifs: &MotifSet,
    ) -> Vec<SearchHit> {
        let query = self.query(tr, parent, searcher.analyzer(), text, nodes, motifs);
        let (cfg, scratch) = (&self.cfg, &mut self.ql);
        tr.span("searchlite.ql.rank", parent, || {
            ql::rank_with_scratch(searcher, &query, cfg.ql, cfg.depth, scratch)
        })
    }

    /// One stage, as external ids.
    pub fn stage(
        &mut self,
        tr: &mut Trace,
        parent: u32,
        backend: &Backend<'_, '_>,
        text: &str,
        nodes: &[ArticleId],
        motifs: &MotifSet,
    ) -> Vec<String> {
        match backend {
            Backend::Single(searcher) => {
                let hits = self.rank(tr, parent, searcher, text, nodes, motifs);
                tr.span("searchlite.searcher.external_ids", parent, || {
                    hits.iter()
                        .map(|h| searcher.external_id(h.doc).to_owned())
                        .collect()
                })
            }
            Backend::Sharded(svc, analyzer) => {
                let query = self.query(tr, parent, analyzer, text, nodes, motifs);
                let depth = self.cfg.depth;
                let hits = tr.span("sqe.sharded.rank_ql", parent, || svc.rank_ql(&query, depth));
                tr.span("sqe.sharded.external_ids", parent, || {
                    svc.external_ids(&hits)
                })
            }
        }
    }

    /// `SQE_C`: the three stages and the rank-range combination.
    pub fn sqe_c(
        &mut self,
        tr: &mut Trace,
        parent: u32,
        backend: &Backend<'_, '_>,
        text: &str,
        nodes: &[ArticleId],
    ) -> Vec<String> {
        let t = self.stage(tr, parent, backend, text, nodes, &MotifSet::triangular());
        let ts = self.stage(tr, parent, backend, text, nodes, &MotifSet::t_and_s());
        let s = self.stage(tr, parent, backend, text, nodes, &MotifSet::square());
        let depth = self.cfg.depth;
        // The stage lists are dropped inside the span, where the
        // service drops them too.
        tr.span("sqe.combine.sqe_c", parent, move || {
            combine::sqe_c(&t, &ts, &s, depth)
        })
    }
}
