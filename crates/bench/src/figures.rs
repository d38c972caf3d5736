//! Regeneration of the paper's Figures 2, 5 and 6 (as text series).

use ireval::precision::{mean_precision, PrecisionTable, TREC_CUTOFFS};
use kbgraph::{ArticleId, CycleLimits};
use sqe::analysis::{analyze_query_graph, average_analyses, CycleAnalysis};

use crate::context::ExperimentContext;
use crate::report::{fmt_pct, pct_gain};

/// Figure 2: structural analysis of the ground-truth query graphs —
/// (a) contribution, (b) category ratio, (c) extra-edge density, per
/// cycle length 3/4/5.
pub fn figure2(ctx: &ExperimentContext) -> String {
    let dataset = "imageclef";
    let r = ctx.runner(dataset);
    let qrels = ctx.qrels(dataset);
    let gt = ctx.ground_truth(dataset);
    let graph = &ctx.bed.kb.graph;
    let limits = CycleLimits {
        max_len: 5,
        max_expand_degree: 96,
        max_cycles: 20_000,
    };
    // Full ground-truth precision (the denominator of the contribution).
    let full = PrecisionTable::evaluate(&r.run_sqe_ub(), &qrels);

    let ds = r.dataset();
    let mut analyses: Vec<CycleAnalysis> = Vec::new();
    for q in &ds.queries {
        let g = gt.graph(&q.id).expect("covered");
        analyses.push(analyze_query_graph(
            graph,
            &g.query_nodes,
            &g.expansion_nodes,
            limits,
        ));
    }
    let stats = average_analyses(&analyses);

    // Contribution per length: retrieval with only the expansion nodes
    // reached by cycles of that length, relative to the full query graph.
    let pipeline = r.pipeline();
    let mut contribution: Vec<(usize, f64)> = Vec::new();
    for length in [3usize, 4, 5] {
        let mut run = ireval::Run::new(&format!("gt-len{length}"));
        for (q, a) in ds.queries.iter().zip(analyses.iter()) {
            let g = gt.graph(&q.id).expect("covered");
            let reached: Vec<(ArticleId, u32)> =
                a.reached_by(length).iter().map(|&x| (x, 1)).collect();
            let hits = pipeline.rank_with_expansions(&q.text, &g.query_nodes, &reached);
            run.set_ranking(&q.id, pipeline.external_ids(&hits));
        }
        // Average P@k ratio over the small cutoffs the paper's figure uses.
        let mut ratios = Vec::new();
        for &k in &[5usize, 10, 15, 20, 30] {
            let p = mean_precision(&run, &qrels, k);
            if full.at(k) > 0.0 {
                ratios.push(p / full.at(k));
            }
        }
        let c = if ratios.is_empty() {
            0.0
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        };
        contribution.push((length, c.min(1.0)));
    }

    let mut s = String::from("=== Figure 2: ground-truth cycle analysis (Image CLEF) ===\n");
    s.push_str("len   cycles  (a) contribution  (b) category ratio  (c) extra-edge density\n");
    for length in [3usize, 4, 5] {
        let st = stats.iter().find(|x| x.length == length);
        let c = contribution
            .iter()
            .find(|&&(l, _)| l == length)
            .map_or(0.0, |&(_, c)| c);
        match st {
            Some(st) => s.push_str(&format!(
                "{length:<6}{:<8}{c:<18.3}{:<20.3}{:.3}\n",
                st.cycles, st.category_ratio, st.extra_edge_density
            )),
            None => s.push_str(&format!(
                "{length:<6}0       {c:<18.3}-                   -\n"
            )),
        }
    }

    // Companion statistic: how far the optimal expansion nodes sit from
    // the query nodes (cycles of length 3–5 imply hop distances 1–2).
    let mut hist_total = [0usize; 4];
    let mut unreachable_total = 0usize;
    for q in &ds.queries {
        let g = gt.graph(&q.id).expect("covered");
        let sources: Vec<kbgraph::Node> = g
            .query_nodes
            .iter()
            .map(|&a| kbgraph::Node::Article(a))
            .collect();
        let targets: Vec<kbgraph::Node> = g
            .expansion_nodes
            .iter()
            .map(|&a| kbgraph::Node::Article(a))
            .collect();
        let (hist, unreachable) = kbgraph::distance_histogram(graph, &sources, &targets, 3);
        for (i, h) in hist.iter().enumerate() {
            hist_total[i] += h;
        }
        unreachable_total += unreachable;
    }
    s.push_str(&format!(
        "optimal expansion nodes by hop distance from the query nodes: \
         1 hop: {}, 2 hops: {}, 3 hops: {}, farther: {}\n",
        hist_total[1], hist_total[2], hist_total[3], unreachable_total
    ));
    s
}

/// Figure 5: % improvement of SQE_T / SQE_T&S / SQE_S over the best QL
/// baseline at each cutoff (ImageCLEF, manual entities).
pub fn figure5(ctx: &ExperimentContext) -> String {
    let r = ctx.runner("imageclef");
    let qrels = ctx.qrels("imageclef");
    let baselines = [
        PrecisionTable::evaluate(&r.run_ql_q(), &qrels),
        PrecisionTable::evaluate(&r.run_ql_e(false), &qrels),
        PrecisionTable::evaluate(&r.run_ql_qe(false), &qrels),
    ];
    let configs = [
        ("SQE_T", r.run_sqe(&sqe::MotifSet::triangular(), false)),
        ("SQE_T&S", r.run_sqe(&sqe::MotifSet::t_and_s(), false)),
        ("SQE_S", r.run_sqe(&sqe::MotifSet::square(), false)),
    ];
    let mut s =
        String::from("=== Figure 5: % improvement over best QL baseline (Image CLEF) ===\n");
    s.push_str(&format!("{:<10}", ""));
    for k in TREC_CUTOFFS {
        s.push_str(&format!("{:>10}", format!("P@{k}")));
    }
    s.push('\n');
    for (name, run) in &configs {
        let table = PrecisionTable::evaluate(run, &qrels);
        s.push_str(&format!("{name:<10}"));
        for &k in &TREC_CUTOFFS {
            let best = baselines
                .iter()
                .map(|b| b.at(k))
                .fold(f64::NEG_INFINITY, f64::max);
            s.push_str(&format!("{:>10}", fmt_pct(pct_gain(table.at(k), best))));
        }
        s.push('\n');
    }
    s
}

/// One panel of Figure 6: % improvement of SQE_C (M), SQE_C (A) and QL_X
/// over the best baseline at each cutoff.
pub fn figure6(ctx: &ExperimentContext, dataset: &str) -> String {
    let r = ctx.runner(dataset);
    let qrels = ctx.qrels(dataset);
    let baselines = [
        PrecisionTable::evaluate(&r.run_ql_q(), &qrels),
        PrecisionTable::evaluate(&r.run_ql_e(false), &qrels),
        PrecisionTable::evaluate(&r.run_ql_e(true), &qrels),
        PrecisionTable::evaluate(&r.run_ql_qe(false), &qrels),
        PrecisionTable::evaluate(&r.run_ql_qe(true), &qrels),
    ];
    let series = [
        (
            "SQE_C (M)",
            PrecisionTable::evaluate(&r.run_sqe_c(false), &qrels),
        ),
        (
            "SQE_C (A)",
            PrecisionTable::evaluate(&r.run_sqe_c(true), &qrels),
        ),
        ("QL_X", PrecisionTable::evaluate(&r.run_ql_x(), &qrels)),
    ];
    let mut s = format!("=== Figure 6 ({dataset}): % improvement over best baseline ===\n");
    s.push_str(&format!("{:<12}", ""));
    for k in TREC_CUTOFFS {
        s.push_str(&format!("{:>10}", format!("P@{k}")));
    }
    s.push('\n');
    for (name, table) in &series {
        s.push_str(&format!("{name:<12}"));
        for &k in &TREC_CUTOFFS {
            let best = baselines
                .iter()
                .map(|b| b.at(k))
                .fold(f64::NEG_INFINITY, f64::max);
            s.push_str(&format!("{:>10}", fmt_pct(pct_gain(table.at(k), best))));
        }
        s.push('\n');
    }
    s
}

/// All three Figure 6 panels.
pub fn figure6_all(ctx: &ExperimentContext) -> String {
    let mut s = String::new();
    for d in ["imageclef", "chic2012", "chic2013"] {
        s.push_str(&figure6(ctx, d));
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_render_on_small_world() {
        let ctx = ExperimentContext::small();
        let f2 = figure2(&ctx);
        assert!(f2.contains("category ratio"));
        let f5 = figure5(&ctx);
        assert!(f5.contains("SQE_T&S"));
        let f6 = figure6(&ctx, "imageclef");
        assert!(f6.contains("QL_X"));
    }
}
