//! Ablation benchmarks for two design choices DESIGN.md calls out — the
//! |m_a| weighting and the reciprocal-link requirement of the square —
//! and for parallel query-graph construction. The ablations measure
//! *quality* deltas (mean P@10) per iteration so Criterion's timing also
//! doubles as a cost comparison of the variants.

use criterion::{criterion_group, criterion_main, Criterion};
use ireval::precision::mean_precision;
use ireval::{Qrels, Run};
use kbgraph::ArticleId;
use sqe::{CategoryScope, LinkCondition, MotifSet, MotifSpec, QueryGraphBuilder, WeightRule};
use sqe_bench::ExperimentContext;

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
    let motifs = if one_way {
        // The square without the reciprocal-link requirement (ablation:
        // is "doubly linked" load-bearing?).
        let one_way_square = MotifSpec {
            link: LinkCondition::OutLink,
            category: CategoryScope::Adjacent,
            weight: WeightRule::Counted,
        };
        MotifSet::new(vec![MotifSpec::triangular(), one_way_square])
    } else {
        MotifSet::t_and_s()
    };
    let builder = QueryGraphBuilder::from_set(graph, &motifs);
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
    let motifs = MotifSet::t_and_s();
    let builder = QueryGraphBuilder::from_set(graph, &motifs);
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
