//! Breadth-first distances in the mixed graph.
//!
//! Used to characterize query graphs: the paper's optimal expansion nodes
//! sit within 1–2 undirected hops of the query nodes (they share cycles
//! of length 3–5), and downstream users of the library frequently need
//! "how far is article X from article Y through the KB".

use std::collections::VecDeque;

use rustc_hash::FxHashMap;

use crate::graph::KbGraph;
use crate::ids::Node;

/// Undirected BFS from `source`, up to `max_depth` hops. Returns the
/// distance of every reached node (including the source at distance 0).
pub fn bfs_distances(graph: &KbGraph, source: Node, max_depth: u32) -> FxHashMap<Node, u32> {
    let mut dist: FxHashMap<Node, u32> = FxHashMap::default();
    dist.insert(source, 0);
    let mut queue: VecDeque<Node> = VecDeque::new();
    queue.push_back(source);
    let mut neighbors = Vec::new();
    while let Some(node) = queue.pop_front() {
        let d = dist[&node];
        if d == max_depth {
            continue;
        }
        graph.undirected_neighbors(node, &mut neighbors);
        for &next in &neighbors {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(next) {
                e.insert(d + 1);
                queue.push_back(next);
            }
        }
    }
    dist
}

/// Shortest undirected distance between two nodes, if within `max_depth`.
pub fn distance(graph: &KbGraph, from: Node, to: Node, max_depth: u32) -> Option<u32> {
    if from == to {
        return Some(0);
    }
    // Early-exit BFS.
    let mut dist: FxHashMap<Node, u32> = FxHashMap::default();
    dist.insert(from, 0);
    let mut queue: VecDeque<Node> = VecDeque::new();
    queue.push_back(from);
    let mut neighbors = Vec::new();
    while let Some(node) = queue.pop_front() {
        let d = dist[&node];
        if d == max_depth {
            continue;
        }
        graph.undirected_neighbors(node, &mut neighbors);
        for &next in &neighbors {
            if next == to {
                return Some(d + 1);
            }
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(next) {
                e.insert(d + 1);
                queue.push_back(next);
            }
        }
    }
    None
}

/// Histogram of the distances from any of `sources` to each of `targets`
/// (minimum over sources): `hist[d]` counts targets at distance `d`;
/// unreachable targets (within `max_depth`) are counted in the returned
/// `unreachable`.
pub fn distance_histogram(
    graph: &KbGraph,
    sources: &[Node],
    targets: &[Node],
    max_depth: u32,
) -> (Vec<usize>, usize) {
    let mut best: FxHashMap<Node, u32> = FxHashMap::default();
    for &s in sources {
        for (node, d) in bfs_distances(graph, s, max_depth) {
            best.entry(node)
                .and_modify(|cur| *cur = (*cur).min(d))
                .or_insert(d);
        }
    }
    let mut hist = vec![0usize; max_depth as usize + 1];
    let mut unreachable = 0usize;
    for t in targets {
        match best.get(t) {
            Some(&d) => hist[d as usize] += 1,
            None => unreachable += 1,
        }
    }
    (hist, unreachable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::ids::ArticleId;

    /// Chain: a — b (mutual), b ∈ c, x ∈ c  ⇒  a→b 1 hop, a→c 2, a→x 3.
    fn chain() -> (KbGraph, Node, Node, Node, Node) {
        let mut b = GraphBuilder::new();
        let a = b.add_article("a");
        let m = b.add_article("m");
        let x = b.add_article("x");
        let c = b.add_category("c");
        b.add_mutual_link(a, m);
        b.add_membership(m, c);
        b.add_membership(x, c);
        let g = b.build();
        (
            g,
            Node::Article(a),
            Node::Article(m),
            Node::Category(c),
            Node::Article(x),
        )
    }

    #[test]
    fn bfs_distances_by_hop() {
        let (g, a, m, c, x) = chain();
        let d = bfs_distances(&g, a, 5);
        assert_eq!(d[&a], 0);
        assert_eq!(d[&m], 1);
        assert_eq!(d[&c], 2);
        assert_eq!(d[&x], 3);
    }

    #[test]
    fn max_depth_cuts_search() {
        let (g, a, _, _, x) = chain();
        let d = bfs_distances(&g, a, 2);
        assert!(!d.contains_key(&x));
        assert_eq!(distance(&g, a, x, 2), None);
        assert_eq!(distance(&g, a, x, 3), Some(3));
    }

    #[test]
    fn distance_is_symmetric() {
        let (g, a, _, _, x) = chain();
        assert_eq!(distance(&g, a, x, 5), distance(&g, x, a, 5));
        assert_eq!(distance(&g, a, a, 5), Some(0));
    }

    #[test]
    fn isolated_nodes_unreachable() {
        let mut b = GraphBuilder::new();
        let a = b.add_article("a");
        let lone = b.add_article("lone");
        let g = b.build();
        assert_eq!(distance(&g, Node::Article(a), Node::Article(lone), 4), None);
        let _ = ArticleId::new(0);
    }

    #[test]
    fn histogram_counts_min_over_sources() {
        let (g, a, m, c, x) = chain();
        let (hist, unreachable) = distance_histogram(&g, &[a, x], &[m, c], 5);
        // m: min(1 from a, 2 from x) = 1; c: min(2 from a, 1 from x) = 1.
        assert_eq!(hist[1], 2);
        assert_eq!(unreachable, 0);
        let (_, unreachable) = distance_histogram(&g, &[a], &[x], 1);
        assert_eq!(unreachable, 1);
    }
}
