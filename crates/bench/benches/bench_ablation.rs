//! Ablation benchmarks for the design choices DESIGN.md calls out: the
//! |m_a| weighting, the reciprocal-link requirement, the category
//! conditions, and parallel query-graph construction. These measure
//! *quality* deltas (mean P@10) per iteration so Criterion's timing also
//! doubles as a cost comparison of the variants.

use criterion::{criterion_group, criterion_main, Criterion};
use ireval::precision::mean_precision;
use ireval::{Qrels, Run};
use kbgraph::{ArticleId, KbGraph};
use sqe::{Motif, MotifKind, MotifSet, MotifSpec, QueryGraphBuilder};
use sqe_bench::ExperimentContext;

/// Square motif variant without the reciprocal-link requirement
/// (ablation: is "doubly linked" load-bearing?).
struct OneWaySquare;

impl Motif for OneWaySquare {
    fn kind(&self) -> MotifKind {
        MotifKind::Square
    }

    fn expansions_into(
        &self,
        graph: &KbGraph,
        query_node: ArticleId,
        out: &mut Vec<(ArticleId, u32)>,
    ) {
        let query_cats = graph.categories_of(query_node);
        if query_cats.is_empty() {
            return;
        }
        // One-way out-links instead of mutual links.
        for &cand_raw in graph.out_links(query_node) {
            let cand = ArticleId::new(cand_raw);
            let cand_cats = graph.categories_of(cand);
            let mut squares = 0u32;
            for &cq in query_cats {
                for &cc in cand_cats {
                    if cq != cc
                        && graph.category_adjacent(
                            kbgraph::CategoryId::new(cq),
                            kbgraph::CategoryId::new(cc),
                        )
                    {
                        squares += 1;
                    }
                }
            }
            if squares > 0 {
                out.push((cand, squares));
            }
        }
    }
}

fn eval_p10(ctx: &ExperimentContext, weighted: bool, one_way: bool) -> f64 {
    let runner = ctx.runner("imageclef");
    let pipeline = runner.pipeline();
    let dataset = runner.dataset();
    let mut qrels = Qrels::new();
    for q in &dataset.queries {
        qrels.add_query(&q.id);
        for d in &dataset.relevant[&q.id] {
            qrels.add_judgment(&q.id, d);
        }
    }
    let graph = &ctx.bed.kb.graph;
    let builder = if one_way {
        QueryGraphBuilder::new(
            graph,
            vec![Box::new(MotifSpec::triangular()), Box::new(OneWaySquare)],
        )
    } else {
        QueryGraphBuilder::from_set(graph, &MotifSet::t_and_s())
    };
    let mut run = Run::new("ablation");
    for q in &dataset.queries {
        let nodes = runner.manual_nodes(q);
        let mut qg = builder.build(&nodes);
        if !weighted {
            // Flatten |m_a| to 1: ablate the motif-count weighting.
            for e in &mut qg.expansions {
                e.1 = 1;
            }
        }
        let eq = sqe::expand::build_expanded_query(
            graph,
            &q.text,
            &qg,
            pipeline.searcher().analyzer(),
            &ctx.sqe_config.expand,
        );
        let hits = searchlite::ql::rank(pipeline.searcher(), &eq.query, ctx.sqe_config.ql, 1000);
        run.set_ranking(&q.id, pipeline.external_ids(&hits));
    }
    mean_precision(&run, &qrels, 10)
}

fn bench_ablations(c: &mut Criterion) {
    let ctx = ExperimentContext::small();
    // Print the quality ablation once (the interesting output).
    let full = eval_p10(&ctx, true, false);
    let unweighted = eval_p10(&ctx, false, false);
    let one_way = eval_p10(&ctx, true, true);
    println!(
        "ablation P@10: full={full:.3} unweighted|m_a|={unweighted:.3} one-way-links={one_way:.3}"
    );

    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    group.bench_function("weighted_mutual", |b| {
        b.iter(|| eval_p10(std::hint::black_box(&ctx), true, false))
    });
    group.bench_function("unweighted", |b| {
        b.iter(|| eval_p10(std::hint::black_box(&ctx), false, false))
    });
    group.bench_function("one_way_links", |b| {
        b.iter(|| eval_p10(std::hint::black_box(&ctx), true, true))
    });
    group.finish();

    // Parallel query-graph construction (the paper's Section 4.4 remark).
    let runner = ctx.runner("imageclef");
    let graph = &ctx.bed.kb.graph;
    let queries: Vec<Vec<ArticleId>> = runner
        .dataset()
        .queries
        .iter()
        .map(|q| runner.manual_nodes(q))
        .collect();
    let builder = QueryGraphBuilder::from_set(graph, &MotifSet::t_and_s());
    let mut pg = c.benchmark_group("parallel_expansion");
    for threads in [1usize, 4] {
        pg.bench_function(format!("threads_{threads}"), |b| {
            b.iter(|| {
                builder
                    .build_many(std::hint::black_box(&queries), threads)
                    .len()
            })
        });
    }
    pg.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
