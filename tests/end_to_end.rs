//! End-to-end integration: generate a world, index it, expand, retrieve,
//! evaluate — across all six crates.

use ireval::precision::{mean_precision, per_query_precision};
use ireval::{paired_t_test, Qrels, Run};
use searchlite::{Analyzer, Index, IndexBuilder, QlParams};
use sqe::{MotifSet, SqeConfig, SqePipeline};
use synthwiki::{Dataset, TestBed, TestBedConfig};

fn build_world() -> (TestBed, Vec<Index>) {
    let bed = TestBed::generate(&TestBedConfig::small());
    let indexes = bed
        .collections
        .iter()
        .map(|coll| {
            let mut b = IndexBuilder::new(Analyzer::english());
            for d in &coll.docs {
                b.add_document(&d.id, &d.text)
                    .expect("generated ids are unique");
            }
            b.build()
        })
        .collect();
    (bed, indexes)
}

fn qrels_of(dataset: &Dataset) -> Qrels {
    let mut q = Qrels::new();
    for spec in &dataset.queries {
        q.add_query(&spec.id);
        for d in &dataset.relevant[&spec.id] {
            q.add_judgment(&spec.id, d);
        }
    }
    q
}

fn config() -> SqeConfig {
    SqeConfig {
        ql: QlParams { mu: 15.0 },
        ..SqeConfig::default()
    }
}

fn run_config(
    bed: &TestBed,
    dataset: &Dataset,
    index: &Index,
    name: &str,
    f: impl Fn(&SqePipeline<'_>, &synthwiki::QuerySpec, &[kbgraph::ArticleId]) -> Vec<String>,
) -> Run {
    let pipeline = SqePipeline::from_index(&bed.kb.graph, index, config());
    let mut run = Run::new(name);
    for q in &dataset.queries {
        let nodes: Vec<_> = q.targets.iter().map(|&e| bed.kb.article_of[e]).collect();
        run.set_ranking(&q.id, f(&pipeline, q, &nodes));
    }
    run
}

#[test]
fn sqe_significantly_beats_unexpanded_queries() {
    let (bed, indexes) = build_world();
    let dataset = bed.dataset("imageclef");
    let index = &indexes[dataset.collection];
    let qrels = qrels_of(dataset);

    let baseline = run_config(&bed, dataset, index, "QL_Q", |p, q, _| {
        p.external_ids(&p.rank_user(&q.text))
    });
    let sqe = run_config(&bed, dataset, index, "SQE_T&S", |p, q, nodes| {
        let (hits, _) = p.rank_sqe(&q.text, nodes, &MotifSet::t_and_s());
        p.external_ids(&hits)
    });

    for k in [10, 30, 100] {
        let b = mean_precision(&baseline, &qrels, k);
        let s = mean_precision(&sqe, &qrels, k);
        assert!(s > b, "P@{k}: SQE {s:.3} must beat QL_Q {b:.3}");
    }
    let t = paired_t_test(
        &per_query_precision(&sqe, &qrels, 30),
        &per_query_precision(&baseline, &qrels, 30),
    )
    .expect("non-degenerate");
    assert!(
        t.significant_improvement(0.05),
        "improvement must be significant: p = {}",
        t.p_value
    );
}

#[test]
fn ground_truth_upper_bound_dominates_at_depth() {
    let (bed, indexes) = build_world();
    let dataset = bed.dataset("imageclef");
    let index = &indexes[dataset.collection];
    let qrels = qrels_of(dataset);
    let gt = synthwiki::GroundTruth::derive(&bed.kb, &bed.space, &dataset.queries);

    let ub = run_config(&bed, dataset, index, "UB", |p, q, _| {
        let g = gt.graph(&q.id).unwrap();
        let hits = p.rank_with_expansions(&q.text, &g.query_nodes, &g.weighted_expansions());
        p.external_ids(&hits)
    });
    let sqe = run_config(&bed, dataset, index, "SQE", |p, q, nodes| {
        let (hits, _) = p.rank_sqe(&q.text, nodes, &MotifSet::t_and_s());
        p.external_ids(&hits)
    });
    for k in [100, 500, 1000] {
        assert!(
            mean_precision(&ub, &qrels, k) + 1e-9 >= mean_precision(&sqe, &qrels, k),
            "UB must dominate blind traversal at P@{k}"
        );
    }
}

#[test]
fn sqe_c_stitches_three_configurations() {
    let (bed, indexes) = build_world();
    let dataset = bed.dataset("imageclef");
    let index = &indexes[dataset.collection];
    let pipeline = SqePipeline::from_index(&bed.kb.graph, index, config());

    let q = &dataset.queries[0];
    let nodes: Vec<_> = q.targets.iter().map(|&e| bed.kb.article_of[e]).collect();
    let combined = pipeline.rank_sqe_c(&q.text, &nodes);
    let (t_hits, _) = pipeline.rank_sqe(&q.text, &nodes, &MotifSet::triangular());
    let t_ids = pipeline.external_ids(&t_hits);
    // Prefix comes from SQE_T.
    for i in 0..combined.len().min(t_ids.len()).min(5) {
        assert_eq!(combined[i], t_ids[i]);
    }
    // No duplicates and bounded depth.
    let set: std::collections::HashSet<&String> = combined.iter().collect();
    assert_eq!(set.len(), combined.len());
    assert!(combined.len() <= 1000);
}

#[test]
fn zero_relevant_queries_never_score() {
    let (bed, indexes) = build_world();
    let dataset = bed.dataset("chic2012");
    let index = &indexes[dataset.collection];
    let qrels = qrels_of(dataset);
    let sqe = run_config(&bed, dataset, index, "SQE", |p, q, nodes| {
        let (hits, _) = p.rank_sqe(&q.text, nodes, &MotifSet::t_and_s());
        p.external_ids(&hits)
    });
    for q in dataset.queries.iter().filter(|q| q.zero_relevant) {
        let scores = per_query_precision(&sqe, &qrels, 1000);
        // The zero-relevant query contributes exactly zero precision.
        let idx = qrels.queries().iter().position(|id| *id == q.id).unwrap();
        assert_eq!(
            scores[idx], 0.0,
            "query {} should have no relevant docs",
            q.id
        );
    }
}

#[test]
fn pipeline_is_deterministic_across_rebuilds() {
    let (bed1, idx1) = build_world();
    let (bed2, idx2) = build_world();
    let d1 = bed1.dataset("imageclef");
    let d2 = bed2.dataset("imageclef");
    let p1 = SqePipeline::from_index(&bed1.kb.graph, &idx1[0], config());
    let p2 = SqePipeline::from_index(&bed2.kb.graph, &idx2[0], config());
    for (q1, q2) in d1.queries.iter().zip(d2.queries.iter()).take(4) {
        assert_eq!(q1.text, q2.text);
        let n1: Vec<_> = q1.targets.iter().map(|&e| bed1.kb.article_of[e]).collect();
        let n2: Vec<_> = q2.targets.iter().map(|&e| bed2.kb.article_of[e]).collect();
        let r1 = p1.rank_sqe_c(&q1.text, &n1);
        let r2 = p2.rank_sqe_c(&q2.text, &n2);
        assert_eq!(r1, r2, "ranking for {} must be reproducible", q1.id);
    }
}

#[test]
fn expansion_features_come_from_the_query_topic_neighborhood() {
    let (bed, indexes) = build_world();
    let dataset = bed.dataset("imageclef");
    let index = &indexes[dataset.collection];
    let pipeline = SqePipeline::from_index(&bed.kb.graph, index, config());
    let mut in_topic = 0usize;
    let mut total = 0usize;
    for q in &dataset.queries {
        let nodes: Vec<_> = q.targets.iter().map(|&e| bed.kb.article_of[e]).collect();
        let qg = pipeline.build_query_graph(&nodes, &MotifSet::t_and_s());
        for &(a, _) in &qg.expansions {
            total += 1;
            if let Some(e) = bed.kb.entity_of_article(a) {
                if bed.space.entities[e].topic == q.topic {
                    in_topic += 1;
                }
            }
        }
    }
    assert!(total > 0, "motifs must fire on the synthetic KB");
    let frac = in_topic as f64 / total as f64;
    assert!(
        frac > 0.6,
        "motifs should mostly stay in the query topic: {frac:.2}"
    );
}
