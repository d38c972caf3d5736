//! Automatic motif identification (the paper's future work, Section 6):
//! score every counted motif spec against the ground-truth optimal query
//! graphs and see the paper's hand-crafted motifs emerge.
//!
//! ```text
//! cargo run --release --example motif_learning
//! ```

use sqe::{learn_motifs, Example, Objective};
use synthwiki::{GroundTruth, TestBed, TestBedConfig};

fn main() {
    let bed = TestBed::generate(&TestBedConfig::small());
    let dataset = bed.dataset("imageclef");
    let gt = GroundTruth::derive(&bed.kb, &bed.space, &dataset.queries);

    let examples: Vec<Example> = dataset
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

    for objective in [Objective::Precision, Objective::F1, Objective::Recall] {
        println!("=== ranked by {objective:?} ===");
        println!(
            "{:<20}{:>10}{:>10}{:>8}{:>12}",
            "spec", "precision", "recall", "F1", "avg feats"
        );
        for m in learn_motifs(&bed.kb.graph, &examples, objective) {
            println!(
                "{:<20}{:>10.3}{:>10.3}{:>8.3}{:>12.2}",
                m.spec.name(),
                m.precision,
                m.recall,
                m.f1,
                m.avg_expansions
            );
        }
        println!();
    }
    println!(
        "The paper's hand-crafted motifs are mutual+superset (triangular)\n\
         and mutual+adjacent (square): the precision objective should rank\n\
         a triangular-like spec first (few, reliable features), the\n\
         recall objective a square-like one (broad coverage) — exactly the\n\
         small-top / large-top split of Section 4.1."
    );
}
