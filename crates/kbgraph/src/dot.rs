//! Graphviz DOT export of KB neighbourhoods.
//!
//! Query graphs are the paper's central visual (Figures 3 and 4 are
//! exactly such drawings: square category nodes, round article nodes,
//! black query nodes, white expansion nodes). This module renders any
//! node subset of a [`KbGraph`] in that style.

use std::fmt::Write as _;

use rustc_hash::FxHashSet;

use crate::graph::KbGraph;
use crate::ids::Node;

/// Rendering roles, matching the paper's Figure 3 conventions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// Black round node: a query node.
    Query,
    /// White round node: an expansion node.
    Expansion,
    /// Plain node: anything else included for context.
    Context,
}

/// Renders the induced subgraph over `nodes` as Graphviz DOT. Articles
/// are drawn as ellipses (filled black for query nodes), categories as
/// boxes; every KB edge between included nodes appears once, with
/// reciprocal article links drawn as a single double-arrow edge.
pub fn to_dot(graph: &KbGraph, nodes: &[(Node, NodeRole)], name: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "digraph \"{}\" {{", escape(name));
    let _ = writeln!(s, "  rankdir=LR;");
    let included: FxHashSet<Node> = nodes.iter().map(|&(n, _)| n).collect();
    // Nodes.
    for &(node, role) in nodes {
        let (label, shape) = match node {
            Node::Article(a) => (graph.article_title(a).to_owned(), "ellipse"),
            Node::Category(c) => (graph.category_title(c).to_owned(), "box"),
        };
        let style = match role {
            NodeRole::Query => ", style=filled, fillcolor=black, fontcolor=white",
            NodeRole::Expansion => ", style=filled, fillcolor=white",
            NodeRole::Context => ", style=dashed",
        };
        let _ = writeln!(
            s,
            "  \"{}\" [label=\"{}\", shape={shape}{style}];",
            id_of(node),
            escape(&label)
        );
    }
    // Edges (each unordered pair once).
    let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
    let num_articles = graph.num_articles() as u32;
    for &(x, _) in nodes {
        for &(y, _) in nodes {
            let (px, py) = (x.packed(num_articles), y.packed(num_articles));
            if px >= py || !included.contains(&y) {
                continue;
            }
            if !seen.insert((px, py)) {
                continue;
            }
            let mult = graph.edge_multiplicity(x, y);
            if mult == 0 {
                continue;
            }
            let attrs = if mult == 2 {
                " [dir=both]"
            } else {
                " [dir=none]"
            };
            let _ = writeln!(s, "  \"{}\" -> \"{}\"{attrs};", id_of(x), id_of(y));
        }
    }
    s.push_str("}\n");
    s
}

fn id_of(node: Node) -> String {
    match node {
        Node::Article(a) => format!("a{}", a.raw()),
        Node::Category(c) => format!("c{}", c.raw()),
    }
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn figure_4a() -> (KbGraph, Vec<(Node, NodeRole)>) {
        let mut b = GraphBuilder::new();
        let cable = b.add_article("cable car");
        let funi = b.add_article("funicular");
        let rail = b.add_category("rail transport");
        b.add_mutual_link(cable, funi);
        b.add_membership(cable, rail);
        b.add_membership(funi, rail);
        let g = b.build();
        let nodes = vec![
            (Node::Article(cable), NodeRole::Query),
            (Node::Article(funi), NodeRole::Expansion),
            (Node::Category(rail), NodeRole::Context),
        ];
        (g, nodes)
    }

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let (g, nodes) = figure_4a();
        let dot = to_dot(&g, &nodes, "fig4a");
        assert!(dot.starts_with("digraph \"fig4a\""));
        assert!(dot.contains("label=\"cable car\""));
        assert!(dot.contains("label=\"funicular\""));
        assert!(dot.contains("shape=box"), "category drawn as a box");
        assert!(dot.contains("fillcolor=black"), "query node filled black");
        // The reciprocal pair renders as one double-arrow edge.
        assert_eq!(dot.matches("dir=both").count(), 1);
        // Two membership edges.
        assert_eq!(dot.matches("dir=none").count(), 2);
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn excluded_nodes_produce_no_edges() {
        let (g, mut nodes) = figure_4a();
        nodes.pop(); // drop the category
        let dot = to_dot(&g, &nodes, "partial");
        assert!(!dot.contains("rail transport"));
        assert_eq!(dot.matches("dir=none").count(), 0);
        assert_eq!(dot.matches("dir=both").count(), 1);
    }

    #[test]
    fn labels_are_escaped() {
        let mut b = GraphBuilder::new();
        let a = b.add_article("he said \"hi\"");
        let g = b.build();
        let dot = to_dot(&g, &[(Node::Article(a), NodeRole::Query)], "q");
        assert!(dot.contains("he said \\\"hi\\\""));
    }

    #[test]
    fn empty_selection_is_valid_dot() {
        let (g, _) = figure_4a();
        let dot = to_dot(&g, &[], "empty");
        assert!(dot.contains("digraph"));
        assert!(dot.trim_end().ends_with('}'));
    }
}
