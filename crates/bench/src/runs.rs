//! Run builders: every retrieval configuration of the paper's evaluation.

use ireval::Run;
use kbgraph::ArticleId;
use searchlite::prf::{self, PrfParams};
use searchlite::ql::SearchHit;
use searchlite::{Index, Query, Searcher};
use sqe::{combine, expand, MotifSet, SqePipeline};
use synthwiki::queries::QuerySpec;
use synthwiki::Dataset;

use crate::context::ExperimentContext;

/// Which query parts feed a PRF run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrfBase {
    /// The user's keywords (`PRF_Q`).
    UserQuery,
    /// The query-entity titles (`PRF_E`).
    Entities,
    /// Both (`PRF_Q&E`).
    Both,
}

/// Builds runs for one dataset.
pub struct DatasetRunner<'a> {
    ctx: &'a ExperimentContext,
    dataset: &'a Dataset,
    index: &'a Index,
    /// One-segment searcher view over `index`, built once so every
    /// [`DatasetRunner::pipeline`] call is a cheap `Arc` clone.
    searcher: Searcher,
}

impl<'a> DatasetRunner<'a> {
    /// Creates a runner.
    pub fn new(ctx: &'a ExperimentContext, dataset: &'a Dataset, index: &'a Index) -> Self {
        DatasetRunner {
            ctx,
            dataset,
            index,
            searcher: Searcher::from_index(index.clone()),
        }
    }

    /// The dataset this runner evaluates.
    pub fn dataset(&self) -> &Dataset {
        self.dataset
    }

    /// The pipeline bound to this dataset's collection.
    pub fn pipeline(&self) -> SqePipeline<'_> {
        SqePipeline::new(
            &self.ctx.bed.kb.graph,
            self.searcher.clone(),
            self.ctx.sqe_config,
        )
    }

    /// Manually selected query nodes (the generator's true targets).
    pub fn manual_nodes(&self, q: &QuerySpec) -> Vec<ArticleId> {
        q.targets
            .iter()
            .map(|&e| self.ctx.bed.kb.article_of[e])
            .collect()
    }

    /// Automatically linked query nodes (Dexter/Alchemy stage).
    pub fn auto_nodes(&self, q: &QuerySpec) -> Vec<ArticleId> {
        self.ctx
            .linker
            .link(&q.text)
            .into_iter()
            .take(3)
            .map(|l| l.article)
            .collect()
    }

    fn nodes(&self, q: &QuerySpec, auto: bool) -> Vec<ArticleId> {
        if auto {
            self.auto_nodes(q)
        } else {
            self.manual_nodes(q)
        }
    }

    fn collect(&self, name: &str, f: impl Fn(&QuerySpec, &SqePipeline<'_>) -> Vec<String>) -> Run {
        let pipeline = self.pipeline();
        let mut run = Run::new(name);
        for q in &self.dataset.queries {
            run.set_ranking(&q.id, f(q, &pipeline));
        }
        run
    }

    fn ids(&self, pipeline: &SqePipeline<'_>, hits: &[SearchHit]) -> Vec<String> {
        pipeline.external_ids(hits)
    }

    // -------------------------------------------------------- baselines --

    /// `QL_Q`: the user's keywords.
    pub fn run_ql_q(&self) -> Run {
        self.collect("QL_Q", |q, p| self.ids(p, &p.rank_user(&q.text)))
    }

    /// `QL_E`: the query-entity titles (manual or automatic selection).
    pub fn run_ql_e(&self, auto: bool) -> Run {
        let name = if auto { "QL_E (A)" } else { "QL_E (M)" };
        self.collect(name, |q, p| {
            self.ids(p, &p.rank_entities(&self.nodes(q, auto)))
        })
    }

    /// `QL_Q&E`: user keywords + entity titles.
    pub fn run_ql_qe(&self, auto: bool) -> Run {
        let name = if auto { "QL_Q&E (A)" } else { "QL_Q&E (M)" };
        self.collect(name, |q, p| {
            self.ids(p, &p.rank_user_entities(&q.text, &self.nodes(q, auto)))
        })
    }

    /// `QL_X`: expansion features alone (from the T&S query graph over
    /// manually selected nodes).
    pub fn run_ql_x(&self) -> Run {
        self.collect("QL_X", |q, p| {
            let qg = p.build_query_graph(&self.manual_nodes(q), &MotifSet::t_and_s());
            self.ids(p, &p.rank_expansion_only(&qg))
        })
    }

    // -------------------------------------------------------------- SQE --

    /// The paper's display name for a motif set, falling back to the
    /// set's own stable name for configurations outside the T/S family.
    pub fn sqe_run_name(motifs: &MotifSet) -> String {
        if *motifs == MotifSet::triangular() {
            "SQE_T".to_owned()
        } else if *motifs == MotifSet::square() {
            "SQE_S".to_owned()
        } else if *motifs == MotifSet::t_and_s() {
            "SQE_T&S".to_owned()
        } else if motifs.is_empty() {
            "SQE_none".to_owned()
        } else {
            format!("SQE[{}]", motifs.name())
        }
    }

    /// An SQE run over any motif set — `SQE_T`, `SQE_S`, `SQE_T&S` or an
    /// arbitrary configuration (manual/automatic entity selection).
    pub fn run_sqe(&self, motifs: &MotifSet, auto: bool) -> Run {
        let name = Self::sqe_run_name(motifs);
        let name = if auto { format!("{name} (A)") } else { name };
        self.collect(&name, |q, p| {
            let (hits, _) = p.rank_sqe(&q.text, &self.nodes(q, auto), motifs);
            self.ids(p, &hits)
        })
    }

    /// `SQE^UB`: expansion from the ground-truth optimal query graphs.
    pub fn run_sqe_ub(&self) -> Run {
        let gt = self.ctx.ground_truth(&self.dataset.name);
        self.collect("SQE_UB", |q, p| {
            let g = gt.graph(&q.id).expect("ground truth covers all queries");
            let hits = p.rank_with_expansions(&q.text, &g.query_nodes, &g.weighted_expansions());
            self.ids(p, &hits)
        })
    }

    /// `SQE_C`: the rank-range combination (1–5 T, 6–200 T&S, rest S).
    pub fn run_sqe_c(&self, auto: bool) -> Run {
        let name = if auto { "SQE_C (A)" } else { "SQE_C (M)" };
        self.collect(name, |q, p| p.rank_sqe_c(&q.text, &self.nodes(q, auto)))
    }

    // -------------------------------------------------------------- PRF --

    /// The paper's PRF parameters: pure Lavrenko relevance model (the
    /// reformulated query is the top-n feedback concepts).
    pub fn prf_params(&self) -> PrfParams {
        PrfParams {
            fb_docs: 10,
            fb_terms: 20,
            orig_weight: 0.0,
            exclude_base_terms: true,
            ql: self.ctx.sqe_config.ql,
        }
    }

    fn prf_base_query(&self, q: &QuerySpec, base: PrfBase, p: &SqePipeline<'_>) -> Query {
        let analyzer = self.index.analyzer();
        let nodes = self.manual_nodes(q);
        match base {
            PrfBase::UserQuery => expand::user_part(&q.text, analyzer),
            PrfBase::Entities => expand::entities_bag_part(p.graph(), &nodes, analyzer),
            PrfBase::Both => {
                let user = expand::user_part(&q.text, analyzer);
                let ents = expand::entities_bag_part(p.graph(), &nodes, analyzer);
                Query::combine(&[(user, 0.5), (ents, 0.5)])
            }
        }
    }

    /// `PRF_Q` / `PRF_E` / `PRF_Q&E`: relevance-model feedback from the
    /// given base query.
    pub fn run_prf(&self, base: PrfBase) -> Run {
        let name = match base {
            PrfBase::UserQuery => "PRF_Q",
            PrfBase::Entities => "PRF_E",
            PrfBase::Both => "PRF_Q&E",
        };
        let params = self.prf_params();
        self.collect(name, |q, p| {
            let query = self.prf_base_query(q, base, p);
            let hits =
                prf::rank_with_prf(&self.searcher, &query, params, self.ctx.sqe_config.depth);
            self.ids(p, &hits)
        })
    }

    /// `SQE_C/PRF`: SQE generates the expanded query, PRF reformulates it
    /// (RM3 interpolation keeps the SQE features), lists combined as in
    /// `SQE_C`.
    pub fn run_sqe_c_prf(&self) -> Run {
        let params = PrfParams {
            orig_weight: 0.5,
            exclude_base_terms: false,
            ..self.prf_params()
        };
        let depth = self.ctx.sqe_config.depth;
        self.collect("SQE_C/PRF", |q, p| {
            let nodes = self.manual_nodes(q);
            let mut lists: Vec<Vec<String>> = Vec::with_capacity(3);
            for motifs in [
                MotifSet::triangular(),
                MotifSet::t_and_s(),
                MotifSet::square(),
            ] {
                let eq = p.expand(&q.text, &nodes, &motifs);
                let hits = prf::rank_with_prf(&self.searcher, &eq.query, params, depth);
                lists.push(self.ids(p, &hits));
            }
            combine::sqe_c(&lists[0], &lists[1], &lists[2], depth)
        })
    }

    /// Mean number of expansion features per query for a motif config
    /// (the paper reports 0.76 / 20.96 / 20.48 for T / T&S / S).
    pub fn avg_expansion_features(&self, motifs: &MotifSet) -> f64 {
        let p = self.pipeline();
        if self.dataset.queries.is_empty() {
            return 0.0;
        }
        let total: usize = self
            .dataset
            .queries
            .iter()
            .map(|q| {
                p.build_query_graph(&self.manual_nodes(q), motifs)
                    .num_expansions()
            })
            .sum();
        total as f64 / self.dataset.queries.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ireval::precision::mean_precision;

    fn ctx() -> ExperimentContext {
        ExperimentContext::small()
    }

    #[test]
    fn all_runs_build_and_cover_queries() {
        let ctx = ctx();
        let r = ctx.runner("imageclef");
        let n = r.dataset().queries.len();
        for run in [
            r.run_ql_q(),
            r.run_ql_e(false),
            r.run_ql_e(true),
            r.run_ql_qe(false),
            r.run_ql_x(),
            r.run_sqe(&MotifSet::triangular(), false),
            r.run_sqe(&MotifSet::square(), false),
            r.run_sqe(&MotifSet::t_and_s(), false),
            r.run_sqe_ub(),
            r.run_sqe_c(false),
            r.run_sqe_c(true),
        ] {
            assert_eq!(run.num_queries(), n, "run {} incomplete", run.name());
        }
    }

    #[test]
    fn sqe_beats_user_query_baseline() {
        let ctx = ctx();
        let r = ctx.runner("imageclef");
        let qrels = ctx.qrels("imageclef");
        let base = mean_precision(&r.run_ql_q(), &qrels, 10);
        let sqe = mean_precision(&r.run_sqe(&MotifSet::t_and_s(), false), &qrels, 10);
        assert!(sqe > base, "SQE_T&S P@10 {sqe} must beat QL_Q P@10 {base}");
    }

    #[test]
    fn upper_bound_is_strong() {
        let ctx = ctx();
        let r = ctx.runner("imageclef");
        let qrels = ctx.qrels("imageclef");
        let ub = mean_precision(&r.run_sqe_ub(), &qrels, 10);
        let base = mean_precision(&r.run_ql_q(), &qrels, 10);
        assert!(ub > base, "UB {ub} vs QL_Q {base}");
    }

    #[test]
    fn expansion_feature_counts_ordered() {
        let ctx = ctx();
        let r = ctx.runner("imageclef");
        let t = r.avg_expansion_features(&MotifSet::triangular());
        let s = r.avg_expansion_features(&MotifSet::square());
        let ts = r.avg_expansion_features(&MotifSet::t_and_s());
        assert!(t < s, "triangular ({t}) must be rarer than square ({s})");
        assert!(ts >= s, "union at least as large as square");
    }

    #[test]
    fn prf_runs_build() {
        let ctx = ctx();
        let r = ctx.runner("imageclef");
        let n = r.dataset().queries.len();
        assert_eq!(r.run_prf(PrfBase::UserQuery).num_queries(), n);
        assert_eq!(r.run_sqe_c_prf().num_queries(), n);
    }
}
