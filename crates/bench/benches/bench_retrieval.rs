//! Retrieval-path benchmarks: Dirichlet QL ranking for the baseline, the
//! expanded query, and the full SQE_C combination (Tables 1–2's inner
//! loop).

use criterion::{criterion_group, criterion_main, Criterion};
use sqe_bench::ExperimentContext;

fn bench_retrieval(c: &mut Criterion) {
    let ctx = ExperimentContext::small();
    let runner = ctx.runner("imageclef");
    let pipeline = runner.pipeline();
    let q = &runner.dataset().queries[0];
    let nodes = runner.manual_nodes(q);

    c.bench_function("rank/QL_Q", |b| {
        b.iter(|| pipeline.rank_user(std::hint::black_box(&q.text)).len())
    });
    c.bench_function("rank/QL_E", |b| {
        b.iter(|| pipeline.rank_entities(std::hint::black_box(&nodes)).len())
    });
    let motifs = sqe::MotifSet::t_and_s();
    c.bench_function("rank/SQE_T&S", |b| {
        b.iter(|| {
            pipeline
                .rank_sqe(std::hint::black_box(&q.text), &nodes, &motifs)
                .0
                .len()
        })
    });
    c.bench_function("rank/SQE_C", |b| {
        b.iter(|| {
            pipeline
                .rank_sqe_c(std::hint::black_box(&q.text), &nodes)
                .len()
        })
    });
}

criterion_group!(benches, bench_retrieval);
criterion_main!(benches);
