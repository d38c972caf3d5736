//! Pseudo-relevance-feedback benchmarks (Table 3's inner loop): relevance
//! model estimation and the full feedback retrieval pass.

use criterion::{criterion_group, criterion_main, Criterion};
use searchlite::prf::{self, PrfParams};
use searchlite::Query;
use sqe::expand;
use sqe_bench::ExperimentContext;

fn bench_prf(c: &mut Criterion) {
    let ctx = ExperimentContext::small();
    let runner = ctx.runner("chic2013");
    let pipeline = runner.pipeline();
    let searcher = pipeline.searcher();
    let q = &runner.dataset().queries[2];
    let user: Query = expand::user_part(&q.text, searcher.analyzer());
    let params = PrfParams {
        fb_docs: 10,
        fb_terms: 20,
        orig_weight: 0.0,
        exclude_base_terms: true,
        ql: ctx.sqe_config.ql,
    };

    c.bench_function("prf/relevance_model", |b| {
        b.iter(|| prf::relevance_model(searcher, std::hint::black_box(&user), params).len())
    });
    c.bench_function("prf/rank_with_prf", |b| {
        b.iter(|| prf::rank_with_prf(searcher, std::hint::black_box(&user), params, 1000).len())
    });

    // The SQE→PRF combination (the paper's SQE_C/PRF row).
    let nodes = runner.manual_nodes(q);
    let expanded = pipeline.expand(&q.text, &nodes, &sqe::MotifSet::t_and_s());
    let rm3 = PrfParams {
        orig_weight: 0.5,
        exclude_base_terms: false,
        ..params
    };
    c.bench_function("prf/sqe_then_prf", |b| {
        b.iter(|| {
            prf::rank_with_prf(searcher, std::hint::black_box(&expanded.query), rm3, 1000).len()
        })
    });
}

criterion_group!(benches, bench_prf);
criterion_main!(benches);
