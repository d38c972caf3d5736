//! Full evaluation pipeline on the synthetic Image CLEF-like dataset:
//! generate the world, index the collection, run the QL baselines and
//! every SQE configuration, and print a Table-1-style comparison with
//! paired-t-test significance markers.
//!
//! ```text
//! cargo run --release --example imageclef_eval            # full scale
//! cargo run --example imageclef_eval -- --small           # seconds
//! ```

use ireval::precision::per_query_precision;
use ireval::precision::{mean_precision, PrecisionTable, TREC_CUTOFFS};
use ireval::{paired_t_test, Qrels, Run};
use searchlite::{Analyzer, IndexBuilder, QlParams};
use sqe::{ExpandConfig, MotifSet, SqeConfig, SqePipeline};
use synthwiki::{TestBed, TestBedConfig};

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let cfg = if small {
        TestBedConfig::small()
    } else {
        TestBedConfig::full()
    };
    eprintln!("generating test bed...");
    let bed = TestBed::generate(&cfg);
    let dataset = bed.dataset("imageclef");
    let collection = bed.collection_of(dataset);

    eprintln!("indexing {} documents...", collection.docs.len());
    let mut builder = IndexBuilder::new(Analyzer::english());
    for d in &collection.docs {
        builder
            .add_document(&d.id, &d.text)
            .expect("generated ids are unique");
    }
    let index = builder.build();

    let pipeline = SqePipeline::from_index(
        &bed.kb.graph,
        &index,
        SqeConfig {
            expand: ExpandConfig::default(),
            ql: QlParams { mu: 15.0 },
            depth: 1000,
        },
    );

    // qrels from the generator's judgments.
    let mut qrels = Qrels::new();
    for q in &dataset.queries {
        qrels.add_query(&q.id);
        for d in &dataset.relevant[&q.id] {
            qrels.add_judgment(&q.id, d);
        }
    }

    // Build a run per configuration.
    let mut runs: Vec<Run> = Vec::new();
    for (name, motifs) in [
        ("SQE_T", MotifSet::triangular()),
        ("SQE_T&S", MotifSet::t_and_s()),
        ("SQE_S", MotifSet::square()),
    ] {
        let mut run = Run::new(name);
        for q in &dataset.queries {
            let nodes: Vec<_> = q.targets.iter().map(|&e| bed.kb.article_of[e]).collect();
            let (hits, _) = pipeline.rank_sqe(&q.text, &nodes, &motifs);
            run.set_ranking(&q.id, pipeline.external_ids(&hits));
        }
        runs.push(run);
    }
    let mut baseline = Run::new("QL_Q");
    for q in &dataset.queries {
        let hits = pipeline.rank_user(&q.text);
        baseline.set_ranking(&q.id, pipeline.external_ids(&hits));
    }

    // Report.
    println!("{:<10}", "run");
    print!("{:<10}", "");
    for k in TREC_CUTOFFS {
        print!("{:>9}", format!("P@{k}"));
    }
    println!();
    print!("{:<10}", baseline.name());
    for k in TREC_CUTOFFS {
        print!("{:>9.3}", mean_precision(&baseline, &qrels, k));
    }
    println!();
    for run in &runs {
        print!("{:<10}", run.name());
        for k in TREC_CUTOFFS {
            let p = mean_precision(run, &qrels, k);
            let sig = paired_t_test(
                &per_query_precision(run, &qrels, k),
                &per_query_precision(&baseline, &qrels, k),
            )
            .is_some_and(|t| t.significant_improvement(0.05));
            print!("{:>8.3}{}", p, if sig { "†" } else { " " });
        }
        println!();
    }
    let best = PrecisionTable::evaluate(&runs[1], &qrels);
    println!(
        "\nSQE_T&S improves P@10 by {:+.1}% over the unexpanded query",
        (best.at(10) / mean_precision(&baseline, &qrels, 10) - 1.0) * 100.0
    );
}
