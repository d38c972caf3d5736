//! Motif explorer: generate the synthetic Wikipedia, pick an article, and
//! show everything the motifs see — mutual links, categories, triangular
//! and square expansions with their multiplicities, and the short cycles
//! through the article (the paper's Section 2.1 structures).
//!
//! ```text
//! cargo run --release --example motif_explorer [article-index]
//! ```

use kbgraph::{ArticleId, CycleFinder, CycleLimits, Node};
use sqe::{MotifSet, MotifSpec};
use synthwiki::{TestBed, TestBedConfig};

fn main() {
    let bed = TestBed::generate(&TestBedConfig::small());
    let graph = &bed.kb.graph;
    let arg: Option<usize> = std::env::args().nth(1).and_then(|a| a.parse().ok());
    let article = ArticleId::new(arg.unwrap_or(0) as u32);
    if article.index() >= graph.num_articles() {
        eprintln!("article index out of range (0..{})", graph.num_articles());
        std::process::exit(2);
    }

    println!("article: \"{}\"", graph.article_title(article));
    println!(
        "out-links: {}   in-links: {}",
        graph.out_links(article).len(),
        graph.in_links(article).len()
    );
    let mutual = graph.mutual_links(article);
    println!("doubly linked with {} articles:", mutual.len());
    for &m in mutual.iter().take(10) {
        println!("  ↔ {}", graph.article_title(m));
    }
    println!("categories:");
    for &c in graph.categories_of(article) {
        println!("  ∈ {}", graph.category_title(kbgraph::CategoryId::new(c)));
    }

    for (name, expansions) in [
        (
            "triangular",
            MotifSpec::triangular().expansions(graph, article),
        ),
        ("square", MotifSpec::square().expansions(graph, article)),
    ] {
        println!("\n{name} motif expansions ({}):", expansions.len());
        for (a, m) in expansions.iter().take(12) {
            println!("  {} (|m_a| = {m})", graph.article_title(*a));
        }
    }

    let mut finder = CycleFinder::new(
        graph,
        CycleLimits {
            max_len: 4,
            max_expand_degree: 48,
            max_cycles: 2000,
        },
    );
    let cycles = finder.cycles_through(Node::Article(article));
    let tri = cycles.iter().filter(|c| c.len() == 3).count();
    let sq = cycles.iter().filter(|c| c.len() == 4).count();
    let cat_ratio = if cycles.is_empty() {
        0.0
    } else {
        cycles.iter().map(|c| c.category_ratio()).sum::<f64>() / cycles.len() as f64
    };
    println!(
        "\ncycles through the article: {} of length 3, {} of length 4; mean category ratio {:.3}",
        tri, sq, cat_ratio
    );

    // Figure-3-style drawing of the query graph (pipe into `dot -Tsvg`).
    let qg = sqe::QueryGraphBuilder::from_set(graph, &MotifSet::t_and_s()).build(&[article]);
    println!(
        "\nGraphviz DOT of the query graph:\n{}",
        qg.to_dot(graph, "query graph")
    );
}
