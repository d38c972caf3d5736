//! Regeneration of the paper's Tables 1–3.

use ireval::precision::{PrecisionTable, TREC_CUTOFFS};
use sqe::MotifSet;

use crate::context::ExperimentContext;
use crate::report::{eval_row, fmt_pct, format_precision_table, pct_gain, EvalRow};
use crate::runs::PrfBase;

/// Table 1: ImageCLEF, manual entity selection — the QL baselines, the
/// three motif configurations, and the ground-truth upper bound.
pub fn table1(ctx: &ExperimentContext) -> String {
    let r = ctx.runner("imageclef");
    let qrels = ctx.qrels("imageclef");
    let ql_q = r.run_ql_q();
    let ql_e = r.run_ql_e(false);
    let ql_qe = r.run_ql_qe(false);
    let baselines = [&ql_q, &ql_e, &ql_qe];
    let rows = vec![
        eval_row(&ql_q, &qrels, &[]),
        eval_row(&ql_e, &qrels, &[]),
        eval_row(&ql_qe, &qrels, &[]),
        eval_row(
            &r.run_sqe(&MotifSet::triangular(), false),
            &qrels,
            &baselines,
        ),
        eval_row(&r.run_sqe(&MotifSet::t_and_s(), false), &qrels, &baselines),
        eval_row(&r.run_sqe(&MotifSet::square(), false), &qrels, &baselines),
        eval_row(&r.run_sqe_ub(), &qrels, &[]),
    ];
    let mut out = format_precision_table("Table 1: Image CLEF configuration comparison", &rows);
    // The paper's companion statistic: fraction of the upper bound that
    // blind motif traversal achieves.
    let ub = rows.last().expect("ub row");
    let mut ratios = Vec::new();
    for row in &rows[3..6] {
        for i in 0..TREC_CUTOFFS.len() {
            if ub.values[i] > 0.0 {
                ratios.push(row.values[i] / ub.values[i]);
            }
        }
    }
    if !ratios.is_empty() {
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        out.push_str(&format!(
            "SQE achieves on average {:.2}% of SQE_UB (paper: 85.86%)\n",
            avg * 100.0
        ));
    }
    out.push_str(&format!(
        "avg expansion features/query: T={:.2} T&S={:.2} S={:.2} (paper: 0.76 / 20.96 / 20.48)\n",
        r.avg_expansion_features(&MotifSet::triangular()),
        r.avg_expansion_features(&MotifSet::t_and_s()),
        r.avg_expansion_features(&MotifSet::square()),
    ));
    out
}

/// One sub-table of Table 2 (a: imageclef, b: chic2012, c: chic2013).
pub fn table2(ctx: &ExperimentContext, dataset: &str) -> String {
    let r = ctx.runner(dataset);
    let qrels = ctx.qrels(dataset);
    let ql_q = r.run_ql_q();
    let ql_e_m = r.run_ql_e(false);
    let ql_e_a = r.run_ql_e(true);
    let ql_qe_m = r.run_ql_qe(false);
    let ql_qe_a = r.run_ql_qe(true);
    let baselines = [&ql_q, &ql_e_m, &ql_e_a, &ql_qe_m, &ql_qe_a];
    let rows = vec![
        eval_row(&ql_q, &qrels, &[]),
        eval_row(&ql_e_m, &qrels, &[]),
        eval_row(&ql_e_a, &qrels, &[]),
        eval_row(&ql_qe_m, &qrels, &[]),
        eval_row(&ql_qe_a, &qrels, &[]),
        eval_row(&r.run_ql_x(), &qrels, &baselines),
        eval_row(&r.run_sqe_c(false), &qrels, &baselines),
        eval_row(&r.run_sqe_c(true), &qrels, &baselines),
    ];
    format_precision_table(&format!("Table 2 ({dataset}): SQE_C evaluation"), &rows)
}

/// One sub-table of Table 3: PRF rows with %G against their Table-2
/// counterparts, and the SQE_C/PRF combination.
pub fn table3(ctx: &ExperimentContext, dataset: &str) -> String {
    let r = ctx.runner(dataset);
    let qrels = ctx.qrels(dataset);
    // References from Table 2.
    let ref_q = PrecisionTable::evaluate(&r.run_ql_q(), &qrels);
    let ref_e = PrecisionTable::evaluate(&r.run_ql_e(false), &qrels);
    let ref_qe = PrecisionTable::evaluate(&r.run_ql_qe(false), &qrels);
    let ref_sqe_c = PrecisionTable::evaluate(&r.run_sqe_c(false), &qrels);
    let prf_q = PrecisionTable::evaluate(&r.run_prf(PrfBase::UserQuery), &qrels);
    let prf_e = PrecisionTable::evaluate(&r.run_prf(PrfBase::Entities), &qrels);
    let prf_qe = PrecisionTable::evaluate(&r.run_prf(PrfBase::Both), &qrels);
    let sqe_prf = PrecisionTable::evaluate(&r.run_sqe_c_prf(), &qrels);

    let cutoffs = [5usize, 10, 15, 20, 30];
    let mut s = format!("=== Table 3 ({dataset}): PRF comparison ===\n");
    s.push_str(&format!("{:<12}", ""));
    for k in cutoffs {
        s.push_str(&format!("{:>8}{:>9}", format!("P@{k}"), "%G"));
    }
    s.push('\n');
    let mut row = |name: &str, got: &PrecisionTable, reference: &PrecisionTable| {
        s.push_str(&format!("{name:<12}"));
        for k in cutoffs {
            let g = pct_gain(got.at(k), reference.at(k));
            s.push_str(&format!("{:>8.3}{:>9}", got.at(k), fmt_pct(g)));
        }
        s.push('\n');
    };
    row("PRF_Q", &prf_q, &ref_q);
    row("PRF_E", &prf_e, &ref_e);
    row("PRF_Q&E", &prf_qe, &ref_qe);
    row("SQE_C/PRF", &sqe_prf, &ref_sqe_c);
    s
}

/// All three Table 2 sub-tables.
pub fn table2_all(ctx: &ExperimentContext) -> String {
    let mut s = String::new();
    for d in ["imageclef", "chic2012", "chic2013"] {
        s.push_str(&table2(ctx, d));
        s.push('\n');
    }
    s
}

/// All three Table 3 sub-tables.
pub fn table3_all(ctx: &ExperimentContext) -> String {
    let mut s = String::new();
    for d in ["imageclef", "chic2012", "chic2013"] {
        s.push_str(&table3(ctx, d));
        s.push('\n');
    }
    s
}

/// Rows of a table as `EvalRow`s, for integration tests that assert on
/// values rather than formatting.
pub fn table1_rows(ctx: &ExperimentContext) -> Vec<EvalRow> {
    let r = ctx.runner("imageclef");
    let qrels = ctx.qrels("imageclef");
    let ql_q = r.run_ql_q();
    let ql_e = r.run_ql_e(false);
    let ql_qe = r.run_ql_qe(false);
    let baselines = [&ql_q, &ql_e, &ql_qe];
    vec![
        eval_row(&ql_q, &qrels, &[]),
        eval_row(&ql_e, &qrels, &[]),
        eval_row(&ql_qe, &qrels, &[]),
        eval_row(
            &r.run_sqe(&MotifSet::triangular(), false),
            &qrels,
            &baselines,
        ),
        eval_row(&r.run_sqe(&MotifSet::t_and_s(), false), &qrels, &baselines),
        eval_row(&r.run_sqe(&MotifSet::square(), false), &qrels, &baselines),
        eval_row(&r.run_sqe_ub(), &qrels, &[]),
    ]
}

/// Ablation table: the design choices Section 2.2 fixes by hand,
/// each removed in turn from the `SQE_T&S` configuration (ImageCLEF,
/// manual entities).
pub fn ablation(ctx: &ExperimentContext) -> String {
    use ireval::Run;
    use kbgraph::KbGraph;
    use sqe::{expand, CategoryScope, LinkCondition, MotifSpec, WeightRule};

    let r = ctx.runner("imageclef");
    let qrels = ctx.qrels("imageclef");
    let pipeline = r.pipeline();
    let graph: &KbGraph = pipeline.graph();
    let counted = |link, category| MotifSpec {
        link,
        category,
        weight: WeightRule::Counted,
    };
    let one_way = MotifSet::new(vec![
        counted(LinkCondition::OutLink, CategoryScope::Superset),
        counted(LinkCondition::OutLink, CategoryScope::Adjacent),
    ]);
    let no_category =
        MotifSet::single(counted(LinkCondition::Mutual, CategoryScope::Unconstrained));

    // Each variant builds its own query graph / expansion config.
    #[allow(clippy::type_complexity)]
    let variants: Vec<(
        &str,
        Box<dyn Fn(&synthwiki::QuerySpec) -> searchlite::Query>,
    )> = vec![
        (
            "full (T&S)",
            Box::new(|q: &synthwiki::QuerySpec| {
                let nodes = r.manual_nodes(q);
                pipeline.expand(&q.text, &nodes, &MotifSet::t_and_s()).query
            }),
        ),
        (
            "no |m_a| weighting",
            Box::new(|q: &synthwiki::QuerySpec| {
                let nodes = r.manual_nodes(q);
                let mut qg = pipeline.build_query_graph(&nodes, &MotifSet::t_and_s());
                for e in &mut qg.expansions {
                    e.1 = 1;
                }
                expand::build_expanded_query(
                    graph,
                    &q.text,
                    &qg,
                    pipeline.searcher().analyzer(),
                    &ctx.sqe_config.expand,
                )
                .query
            }),
        ),
        (
            "one-way links",
            Box::new(|q: &synthwiki::QuerySpec| {
                let nodes = r.manual_nodes(q);
                let qg = pipeline.build_query_graph(&nodes, &one_way);
                expand::build_expanded_query(
                    graph,
                    &q.text,
                    &qg,
                    pipeline.searcher().analyzer(),
                    &ctx.sqe_config.expand,
                )
                .query
            }),
        ),
        (
            "no user part",
            Box::new(|q: &synthwiki::QuerySpec| {
                let nodes = r.manual_nodes(q);
                let qg = pipeline.build_query_graph(&nodes, &MotifSet::t_and_s());
                let cfg = sqe::ExpandConfig {
                    w_user: 0.0,
                    ..ctx.sqe_config.expand
                };
                expand::build_expanded_query(
                    graph,
                    &q.text,
                    &qg,
                    pipeline.searcher().analyzer(),
                    &cfg,
                )
                .query
            }),
        ),
        (
            "no category conds",
            Box::new(|q: &synthwiki::QuerySpec| {
                let nodes = r.manual_nodes(q);
                let qg = pipeline.build_query_graph(&nodes, &no_category);
                expand::build_expanded_query(
                    graph,
                    &q.text,
                    &qg,
                    pipeline.searcher().analyzer(),
                    &ctx.sqe_config.expand,
                )
                .query
            }),
        ),
    ];

    let mut rows = Vec::new();
    for (name, make_query) in &variants {
        let mut run = Run::new(name);
        for q in &r.dataset().queries {
            let query = make_query(q);
            let hits = searchlite::ql::rank(pipeline.searcher(), &query, ctx.sqe_config.ql, 1000);
            run.set_ranking(&q.id, pipeline.external_ids(&hits));
        }
        rows.push(eval_row(&run, &qrels, &[]));
    }
    format_precision_table(
        "Ablations: SQE_T&S design choices removed in turn (Image CLEF)",
        &rows,
    )
}

/// Dirichlet μ sweep: SQE_T&S's improvement over the unexpanded query
/// at several smoothing masses (robustness of the headline to the one
/// retrieval hyper-parameter the harness sets).
pub fn mu_sweep(ctx: &ExperimentContext) -> String {
    use ireval::precision::mean_precision;
    use ireval::Run;
    use sqe::{SqeConfig, SqePipeline};

    let r = ctx.runner("imageclef");
    let qrels = ctx.qrels("imageclef");
    let dataset = r.dataset();
    let runner_pipeline = r.pipeline();
    let searcher = runner_pipeline.searcher();
    let mut s = String::from("=== Dirichlet μ sweep (Image CLEF, P@10) ===\n");
    s.push_str(&format!(
        "{:<8}{:>10}{:>12}{:>14}\n",
        "μ", "QL_Q", "SQE_T&S", "improvement"
    ));
    for mu in [5.0, 15.0, 50.0, 150.0, 500.0] {
        let cfg = SqeConfig {
            ql: searchlite::QlParams { mu },
            ..ctx.sqe_config
        };
        let pipeline = SqePipeline::new(&ctx.bed.kb.graph, searcher.clone(), cfg);
        let mut base = Run::new("QL_Q");
        let mut sqe_run = Run::new("SQE");
        for q in &dataset.queries {
            let nodes = r.manual_nodes(q);
            base.set_ranking(&q.id, pipeline.external_ids(&pipeline.rank_user(&q.text)));
            let (hits, _) = pipeline.rank_sqe(&q.text, &nodes, &MotifSet::t_and_s());
            sqe_run.set_ranking(&q.id, pipeline.external_ids(&hits));
        }
        let b = mean_precision(&base, &qrels, 10);
        let x = mean_precision(&sqe_run, &qrels, 10);
        s.push_str(&format!(
            "{mu:<8}{b:>10.3}{x:>12.3}{:>13}%\n",
            crate::report::fmt_pct(crate::report::pct_gain(x, b))
        ));
    }
    s
}

/// Retrieval-model sensitivity: rerun the unexpanded baseline and
/// `SQE_T&S` under Okapi BM25 instead of Dirichlet query likelihood.
/// SQE's advantage must survive the change of ranking function —
/// otherwise the "improvement" would be a smoothing artifact.
pub fn sensitivity(ctx: &ExperimentContext) -> String {
    use ireval::Run;
    use searchlite::bm25::{self, Bm25Params};

    let r = ctx.runner("imageclef");
    let qrels = ctx.qrels("imageclef");
    let pipeline = r.pipeline();
    let params = Bm25Params::default();

    let mut base = Run::new("BM25_Q");
    let mut sqe_run = Run::new("BM25 SQE_T&S");
    for q in &r.dataset().queries {
        let nodes = r.manual_nodes(q);
        let user = sqe::expand::user_part(&q.text, pipeline.searcher().analyzer());
        let hits = bm25::rank(pipeline.searcher(), &user, params, 1000);
        base.set_ranking(&q.id, pipeline.external_ids(&hits));
        let expanded = pipeline.expand(&q.text, &nodes, &MotifSet::t_and_s());
        let hits = bm25::rank(pipeline.searcher(), &expanded.query, params, 1000);
        sqe_run.set_ranking(&q.id, pipeline.external_ids(&hits));
    }
    let rows = vec![
        eval_row(&base, &qrels, &[]),
        eval_row(&sqe_run, &qrels, &[&base]),
    ];
    format_precision_table(
        "Sensitivity: SQE under BM25 instead of query likelihood (Image CLEF)",
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_on_small_world() {
        let ctx = ExperimentContext::small();
        let t1 = table1(&ctx);
        assert!(t1.contains("SQE_T&S"));
        assert!(t1.contains("SQE_UB"));
        let t2 = table2(&ctx, "chic2012");
        assert!(t2.contains("SQE_C (A)"));
        let t3 = table3(&ctx, "chic2013");
        assert!(t3.contains("SQE_C/PRF"));
        assert!(t3.contains("%G"));
        let ablation = ablation(&ctx);
        for variant in [
            "full (T&S)",
            "no |m_a| weighting",
            "one-way links",
            "no user part",
            "no category conds",
        ] {
            assert!(
                ablation.lines().any(|l| l.starts_with(variant)),
                "{variant} row missing"
            );
        }
    }
}
