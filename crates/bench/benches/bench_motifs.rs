//! Table 4 microbenchmark: query-graph construction time per motif
//! configuration (the paper's SQE_T / SQE_T&S / SQE_S rows), per dataset.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqe_bench::ExperimentContext;

fn bench_motif_configs(c: &mut Criterion) {
    let ctx = ExperimentContext::small();
    let mut group = c.benchmark_group("query_graph_build");
    for dataset in ["imageclef", "chic2012", "chic2013"] {
        let runner = ctx.runner(dataset);
        let pipeline = runner.pipeline();
        let queries: Vec<Vec<kbgraph::ArticleId>> = runner
            .dataset()
            .queries
            .iter()
            .map(|q| runner.manual_nodes(q))
            .collect();
        for (name, motifs) in [
            ("SQE_T", sqe::MotifSet::triangular()),
            ("SQE_T&S", sqe::MotifSet::t_and_s()),
            ("SQE_S", sqe::MotifSet::square()),
        ] {
            group.bench_with_input(BenchmarkId::new(name, dataset), &queries, |b, queries| {
                b.iter(|| {
                    let mut total = 0usize;
                    for nodes in queries {
                        total += pipeline
                            .build_query_graph(std::hint::black_box(nodes), &motifs)
                            .num_expansions();
                    }
                    total
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_motif_configs);
criterion_main!(benches);
