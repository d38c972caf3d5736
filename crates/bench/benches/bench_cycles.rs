//! Figure 2 microbenchmark: anchored cycle enumeration over the KB (the
//! offline structural-analysis cost of Section 2.1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kbgraph::{CycleFinder, CycleLimits, Node};
use synthwiki::{TestBed, TestBedConfig};

fn bench_cycles(c: &mut Criterion) {
    let bed = TestBed::generate(&TestBedConfig::small());
    let graph = &bed.kb.graph;
    let anchor = Node::Article(bed.kb.article_of[0]);

    let mut group = c.benchmark_group("cycle_enumeration");
    for max_len in [3usize, 4, 5] {
        let limits = CycleLimits {
            max_len,
            max_expand_degree: 64,
            max_cycles: 100_000,
        };
        group.bench_with_input(
            BenchmarkId::new("max_len", max_len),
            &limits,
            |b, &limits| {
                b.iter(|| {
                    let mut finder = CycleFinder::new(graph, limits);
                    let mut count = 0usize;
                    finder.visit_cycles(std::hint::black_box(anchor), |_| count += 1);
                    count
                })
            },
        );
    }
    group.finish();

    c.bench_function("undirected_neighbors", |b| {
        let mut buf = Vec::new();
        b.iter(|| {
            graph.undirected_neighbors(std::hint::black_box(anchor), &mut buf);
            buf.len()
        })
    });
}

criterion_group!(benches, bench_cycles);
criterion_main!(benches);
