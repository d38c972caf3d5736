//! The learning extension must recover the paper's hand-crafted motifs
//! from the planted ground truth.

use sqe::{learn_motifs, CategoryScope, Example, LinkCondition, Objective};
use synthwiki::{GroundTruth, TestBed, TestBedConfig};

fn examples() -> (TestBed, Vec<Example>) {
    let bed = TestBed::generate(&TestBedConfig::small());
    let dataset = bed.dataset("imageclef");
    let gt = GroundTruth::derive(&bed.kb, &bed.space, &dataset.queries);
    let examples = dataset
        .queries
        .iter()
        .map(|q| {
            let g = gt.graph(&q.id).expect("covered");
            Example {
                query_nodes: g.query_nodes.clone(),
                optimal: g.expansion_nodes.clone(),
            }
        })
        .collect();
    (bed, examples)
}

#[test]
fn precision_objective_recovers_triangular_condition() {
    let (bed, examples) = examples();
    let ranked = learn_motifs(&bed.kb.graph, &examples, Objective::Precision);
    let best = &ranked[0];
    assert_eq!(
        best.spec.category,
        CategoryScope::Superset,
        "the triangular category condition must top the precision ranking: got {}",
        best.spec.name()
    );
    assert!(best.precision > 0.9, "precision {}", best.precision);
    assert!(
        best.avg_expansions < 5.0,
        "triangular-like patterns are feature-scarce: {}",
        best.avg_expansions
    );
}

#[test]
fn balanced_objective_recovers_square_like_condition() {
    let (bed, examples) = examples();
    let ranked = learn_motifs(&bed.kb.graph, &examples, Objective::F1);
    let best = &ranked[0];
    assert!(
        matches!(
            best.spec.category,
            CategoryScope::Adjacent | CategoryScope::SharedAny
        ),
        "a square-like category condition must top F1: got {}",
        best.spec.name()
    );
    assert!(
        best.recall
            > ranked
                .iter()
                .find(|m| m.spec.category == CategoryScope::Superset)
                .unwrap()
                .recall,
        "square-like patterns out-recall triangular ones"
    );
}

#[test]
fn category_free_patterns_never_win_on_precision() {
    let (bed, examples) = examples();
    let ranked = learn_motifs(&bed.kb.graph, &examples, Objective::Precision);
    let best_free = ranked
        .iter()
        .position(|m| m.spec.category == CategoryScope::Unconstrained)
        .unwrap();
    assert!(
        best_free >= ranked.len() / 2,
        "link-only motifs must rank in the bottom half: position {best_free} of {}",
        ranked.len()
    );
}

#[test]
fn mutual_links_beat_one_way_links_on_precision() {
    let (bed, examples) = examples();
    let ranked = learn_motifs(&bed.kb.graph, &examples, Objective::F1);
    let prec = |link: LinkCondition, cat: CategoryScope| -> f64 {
        ranked
            .iter()
            .find(|m| m.spec.link == link && m.spec.category == cat)
            .unwrap()
            .precision
    };
    // With the category condition fixed to unconstrained, requiring
    // reciprocity filters noise links: the paper's "doubly linked".
    assert!(
        prec(LinkCondition::Mutual, CategoryScope::Unconstrained)
            >= prec(LinkCondition::OutLink, CategoryScope::Unconstrained),
        "reciprocity must not hurt precision"
    );
}
