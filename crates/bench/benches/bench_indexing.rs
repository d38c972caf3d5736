//! Index-construction benchmarks: analyzer throughput and inverted-index
//! building over the synthetic collections.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use searchlite::{Analyzer, IndexBuilder};
use synthwiki::{TestBed, TestBedConfig};

fn bench_indexing(c: &mut Criterion) {
    let bed = TestBed::generate(&TestBedConfig::small());
    let docs: Vec<(String, String)> = bed.collections[0]
        .docs
        .iter()
        .take(2000)
        .map(|d| (d.id.clone(), d.text.clone()))
        .collect();
    let total_bytes: u64 = docs.iter().map(|(_, t)| t.len() as u64).sum();

    let mut group = c.benchmark_group("indexing");
    group.throughput(Throughput::Bytes(total_bytes));
    group.bench_function("build_index_2k_docs", |b| {
        b.iter(|| {
            let mut builder = IndexBuilder::new(Analyzer::english());
            for (id, text) in &docs {
                builder
                    .add_document(id, text)
                    .expect("generated ids are unique");
            }
            builder.build().num_terms()
        })
    });
    group.finish();

    let analyzer = Analyzer::english();
    let sample = &docs[0].1;
    c.bench_function("analyze_one_caption", |b| {
        let mut buf = Vec::new();
        b.iter(|| {
            analyzer.analyze_into(std::hint::black_box(sample), &mut buf);
            buf.len()
        })
    });

    c.bench_function("porter_stem", |b| {
        b.iter(|| searchlite::analysis::porter_stem(std::hint::black_box("relational")))
    });
}

criterion_group!(benches, bench_indexing);
criterion_main!(benches);
