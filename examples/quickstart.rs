//! Quickstart: expand a query with the triangular and square motifs and
//! retrieve against a small caption collection.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Reproduces the paper's Figure 4 on a hand-written miniature of its two
//! examples: query #93 "cable cars" pulls in *funicular* through the
//! triangular motif; query #73 "graffiti street art on walls" pulls in
//! *Banksy* through the square motif.

use sqe::{MotifSet, SqeConfig, SqePipeline};
use sqe_repro::demo_world;

fn main() {
    let world = demo_world();
    let pipeline = SqePipeline::from_index(&world.graph, &world.index, SqeConfig::default());

    for (query, nodes, label) in [
        (
            "cable cars",
            vec![world.cable_car],
            "Figure 4a (triangular)",
        ),
        (
            "graffiti street art on walls",
            vec![world.graffiti],
            "Figure 4b (square)",
        ),
    ] {
        println!("=== {label}: \"{query}\" ===");
        let expanded = pipeline.expand(query, &nodes, &MotifSet::t_and_s());
        println!("query graph expansions:");
        for &(article, m) in &expanded.query_graph.expansions {
            println!("  {} (|m_a| = {m})", world.graph.article_title(article));
        }
        println!("expanded query: {}", expanded.query.render());
        let (hits, _) = pipeline.rank_sqe(query, &nodes, &MotifSet::t_and_s());
        println!("top results:");
        for hit in hits.iter().take(5) {
            println!("  {:>8.3}  {}", hit.score, world.index.external_id(hit.doc));
        }
        println!();
    }
}
