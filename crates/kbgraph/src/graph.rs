//! The immutable knowledge-base graph.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::csr::{Csr, CsrShapeError};
use crate::ids::{ArticleId, CategoryId, Node};
use crate::stats::GraphStats;

/// A structural inconsistency found while shape-checking a decoded
/// graph: one of the six adjacencies disagrees with the title arrays
/// about the id spaces. Checked on every snapshot decode, so a corrupted
/// persisted graph is rejected with a typed error instead of deferring
/// to the debug-only auditor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// lint:allow(persist-types-derive-serde) — decode error, never persisted
pub struct GraphShapeError {
    /// Which adjacency is malformed (`article_links`, `memberships`, ...).
    pub csr: &'static str,
    /// The defect.
    pub error: CsrShapeError,
}

impl fmt::Display for GraphShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "graph adjacency `{}`: {}", self.csr, self.error)
    }
}

impl std::error::Error for GraphShapeError {}

/// An immutable knowledge-base graph in CSR form.
///
/// Construct one through [`crate::GraphBuilder`]. All adjacency queries
/// return sorted slices of raw `u32` indices in the appropriate id space
/// (article indices for article lists, category indices for category
/// lists); wrap them back into [`ArticleId`]/[`CategoryId`] as needed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KbGraph {
    article_titles: Vec<String>,
    category_titles: Vec<String>,
    /// article → article hyperlinks.
    article_links: Csr,
    /// Reverse of `article_links` (who links to me).
    article_links_rev: Csr,
    /// article → category membership.
    memberships: Csr,
    /// category → article (reverse membership).
    members: Csr,
    /// child category → parent category.
    subcats: Csr,
    /// parent category → child category.
    subcats_rev: Csr,
}

impl KbGraph {
    /// Assembles a graph from prebuilt parts. Intended for
    /// [`crate::GraphBuilder::build`]; kept `pub(crate)`-ish but exposed for
    /// serialization round-trips.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        article_titles: Vec<String>,
        category_titles: Vec<String>,
        article_links: Csr,
        article_links_rev: Csr,
        memberships: Csr,
        members: Csr,
        subcats: Csr,
        subcats_rev: Csr,
    ) -> Self {
        debug_assert_eq!(article_links.num_rows(), article_titles.len());
        debug_assert_eq!(memberships.num_rows(), article_titles.len());
        debug_assert_eq!(members.num_rows(), category_titles.len());
        debug_assert_eq!(subcats.num_rows(), category_titles.len());
        KbGraph {
            article_titles,
            category_titles,
            article_links,
            article_links_rev,
            memberships,
            members,
            subcats,
            subcats_rev,
        }
    }

    /// Number of articles.
    #[inline]
    pub fn num_articles(&self) -> usize {
        self.article_titles.len()
    }

    /// Number of categories.
    #[inline]
    pub fn num_categories(&self) -> usize {
        self.category_titles.len()
    }

    /// Title of an article.
    #[inline]
    pub fn article_title(&self, a: ArticleId) -> &str {
        &self.article_titles[a.index()]
    }

    /// Title of a category.
    #[inline]
    pub fn category_title(&self, c: CategoryId) -> &str {
        &self.category_titles[c.index()]
    }

    /// All article ids.
    pub fn articles(&self) -> impl Iterator<Item = ArticleId> + '_ {
        (0..self.num_articles() as u32).map(ArticleId::new)
    }

    /// All category ids.
    pub fn categories(&self) -> impl Iterator<Item = CategoryId> + '_ {
        (0..self.num_categories() as u32).map(CategoryId::new)
    }

    /// Outgoing hyperlinks of `a` (sorted article indices).
    #[inline]
    pub fn out_links(&self, a: ArticleId) -> &[u32] {
        self.article_links.neighbors(a.raw())
    }

    /// Incoming hyperlinks of `a` (sorted article indices).
    #[inline]
    pub fn in_links(&self, a: ArticleId) -> &[u32] {
        self.article_links_rev.neighbors(a.raw())
    }

    /// Categories `a` belongs to (sorted category indices).
    #[inline]
    pub fn categories_of(&self, a: ArticleId) -> &[u32] {
        self.memberships.neighbors(a.raw())
    }

    /// Articles belonging to `c` (sorted article indices).
    #[inline]
    pub fn members_of(&self, c: CategoryId) -> &[u32] {
        self.members.neighbors(c.raw())
    }

    /// Parent categories of `c` (sorted category indices).
    #[inline]
    pub fn parents_of(&self, c: CategoryId) -> &[u32] {
        self.subcats.neighbors(c.raw())
    }

    /// Child categories of `c` (sorted category indices).
    #[inline]
    pub fn children_of(&self, c: CategoryId) -> &[u32] {
        self.subcats_rev.neighbors(c.raw())
    }

    /// True if `from` hyperlinks to `to`.
    #[inline]
    pub fn links_to(&self, from: ArticleId, to: ArticleId) -> bool {
        self.article_links.contains(from.raw(), to.raw())
    }

    /// True if the two articles link to each other ("doubly linked" in the
    /// paper's motif definitions).
    #[inline]
    pub fn doubly_linked(&self, a: ArticleId, b: ArticleId) -> bool {
        self.links_to(a, b) && self.links_to(b, a)
    }

    /// True if `a` belongs to category `c`.
    #[inline]
    pub fn belongs_to(&self, a: ArticleId, c: CategoryId) -> bool {
        self.memberships.contains(a.raw(), c.raw())
    }

    /// True if there is a category edge between `x` and `y` in either
    /// direction (sub-category or parent).
    #[inline]
    pub fn category_adjacent(&self, x: CategoryId, y: CategoryId) -> bool {
        self.subcats.contains(x.raw(), y.raw()) || self.subcats.contains(y.raw(), x.raw())
    }

    /// True if every category of `a` is also a category of `b`
    /// (`cats(b) ⊇ cats(a)`), the triangular motif's category condition.
    /// Returns `false` when `a` has no categories: an article outside the
    /// category system gives no structural evidence.
    pub fn categories_superset(&self, a: ArticleId, b: ArticleId) -> bool {
        let ca = self.categories_of(a);
        if ca.is_empty() {
            return false;
        }
        let cb = self.categories_of(b);
        if cb.len() < ca.len() {
            return false;
        }
        // Sorted-merge containment scan.
        let mut i = 0;
        for &c in cb {
            if i == ca.len() {
                break;
            }
            if c == ca[i] {
                i += 1;
            } else if c > ca[i] {
                return false;
            }
        }
        i == ca.len()
    }

    /// Articles that are doubly linked with `a` (computed by intersecting
    /// the sorted out- and in-link lists).
    pub fn mutual_links(&self, a: ArticleId) -> Vec<ArticleId> {
        let out = self.out_links(a);
        let inn = self.in_links(a);
        let mut res = Vec::with_capacity(out.len().min(inn.len()));
        let (mut i, mut j) = (0, 0);
        while i < out.len() && j < inn.len() {
            match out[i].cmp(&inn[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    res.push(ArticleId::new(out[i]));
                    i += 1;
                    j += 1;
                }
            }
        }
        res
    }

    /// Undirected mixed-graph neighbours of `node`, written into `out`
    /// (cleared first). Used by cycle enumeration, which per the paper
    /// treats any edge between two nodes — whatever its direction or type —
    /// as connecting them.
    pub fn undirected_neighbors(&self, node: Node, out: &mut Vec<Node>) {
        out.clear();
        match node {
            Node::Article(a) => {
                out.extend(
                    self.out_links(a)
                        .iter()
                        .map(|&x| Node::Article(ArticleId::new(x))),
                );
                out.extend(
                    self.in_links(a)
                        .iter()
                        .map(|&x| Node::Article(ArticleId::new(x))),
                );
                out.extend(
                    self.categories_of(a)
                        .iter()
                        .map(|&x| Node::Category(CategoryId::new(x))),
                );
            }
            Node::Category(c) => {
                out.extend(
                    self.members_of(c)
                        .iter()
                        .map(|&x| Node::Article(ArticleId::new(x))),
                );
                out.extend(
                    self.parents_of(c)
                        .iter()
                        .map(|&x| Node::Category(CategoryId::new(x))),
                );
                out.extend(
                    self.children_of(c)
                        .iter()
                        .map(|&x| Node::Category(CategoryId::new(x))),
                );
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Number of directed edges between `x` and `y` in the mixed graph
    /// (0, 1 or 2; membership counts once, as does each hyperlink or
    /// category-link direction). Drives the paper's "density of extra
    /// edges" statistic (Figure 2c), where two consecutive cycle nodes can
    /// be connected by up to two edges.
    pub fn edge_multiplicity(&self, x: Node, y: Node) -> u32 {
        match (x, y) {
            (Node::Article(a), Node::Article(b)) => {
                self.links_to(a, b) as u32 + self.links_to(b, a) as u32
            }
            (Node::Article(a), Node::Category(c)) | (Node::Category(c), Node::Article(a)) => {
                // Membership is a single undirected association in the
                // Wikipedia model (article page lists its categories).
                self.belongs_to(a, c) as u32
            }
            (Node::Category(c), Node::Category(d)) => {
                self.subcats.contains(c.raw(), d.raw()) as u32
                    + self.subcats.contains(d.raw(), c.raw()) as u32
            }
        }
    }

    /// True if the two nodes are connected by at least one edge.
    #[inline]
    pub fn connected(&self, x: Node, y: Node) -> bool {
        self.edge_multiplicity(x, y) > 0
    }

    /// Access to the raw article-link CSR (for stats and benches).
    pub fn article_links(&self) -> &Csr {
        &self.article_links
    }

    /// Access to the raw membership CSR.
    pub fn memberships(&self) -> &Csr {
        &self.memberships
    }

    /// Access to the raw category-hierarchy CSR (child → parent).
    pub fn subcategories(&self) -> &Csr {
        &self.subcats
    }

    /// Access to the raw reverse article-link CSR (who links to me).
    pub fn article_links_rev(&self) -> &Csr {
        &self.article_links_rev
    }

    /// Access to the raw reverse-membership CSR (category → article).
    pub fn members(&self) -> &Csr {
        &self.members
    }

    /// Access to the raw reverse category-hierarchy CSR (parent → child).
    pub fn subcats_rev(&self) -> &Csr {
        &self.subcats_rev
    }

    /// The full article-title array (index = dense article id).
    #[inline]
    pub fn article_titles(&self) -> &[String] {
        &self.article_titles
    }

    /// The full category-title array (index = dense category id).
    #[inline]
    pub fn category_titles(&self) -> &[String] {
        &self.category_titles
    }

    /// Shape-checks every adjacency against the title arrays: correct row
    /// counts, monotonic offsets terminating at the edge counts, in-bounds
    /// targets. This is the always-on decode gate; the deeper semantic
    /// audit ([`crate::audit::GraphAudit`] under feature `validate`) also
    /// re-derives sortedness, reciprocity and DAG-ness.
    pub fn validate_shape(&self) -> Result<(), GraphShapeError> {
        let arts = self.article_titles.len();
        let cats = self.category_titles.len();
        let specs: [(&'static str, &Csr, usize, usize); 6] = [
            ("article_links", &self.article_links, arts, arts),
            ("article_links_rev", &self.article_links_rev, arts, arts),
            ("memberships", &self.memberships, arts, cats),
            ("members", &self.members, cats, arts),
            ("subcats", &self.subcats, cats, cats),
            ("subcats_rev", &self.subcats_rev, cats, cats),
        ];
        for (csr, adj, rows, bound) in specs {
            adj.validate_shape(rows, bound)
                .map_err(|error| GraphShapeError { csr, error })?;
        }
        Ok(())
    }

    /// Whole-graph statistics (the counts the paper reports in Section 3).
    pub fn stats(&self) -> GraphStats {
        GraphStats::compute(self)
    }

    /// Finds an article by exact title (linear scan; intended for tests and
    /// small examples — production lookup goes through the entity linker's
    /// dictionary).
    pub fn find_article_by_title(&self, title: &str) -> Option<ArticleId> {
        self.article_titles
            .iter()
            .position(|t| t == title)
            .map(|i| ArticleId::new(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// cable-car ↔ funicular, both in "rail transport"; tram links to
    /// cable-car one-way.
    fn toy() -> (KbGraph, ArticleId, ArticleId, ArticleId, CategoryId) {
        let mut b = GraphBuilder::new();
        let cable = b.add_article("cable car");
        let funi = b.add_article("funicular");
        let tram = b.add_article("tram");
        let rail = b.add_category("rail transport");
        b.add_mutual_link(cable, funi);
        b.add_article_link(tram, cable);
        b.add_membership(cable, rail);
        b.add_membership(funi, rail);
        (b.build(), cable, funi, tram, rail)
    }

    #[test]
    fn double_link_detection() {
        let (g, cable, funi, tram, _) = toy();
        assert!(g.doubly_linked(cable, funi));
        assert!(!g.doubly_linked(tram, cable));
    }

    #[test]
    fn mutual_links_intersection() {
        let (g, cable, funi, _, _) = toy();
        assert_eq!(g.mutual_links(cable), vec![funi]);
        assert_eq!(g.mutual_links(funi), vec![cable]);
    }

    #[test]
    fn categories_superset_holds_for_equal_sets() {
        let (g, cable, funi, tram, _) = toy();
        assert!(g.categories_superset(cable, funi));
        assert!(g.categories_superset(funi, cable));
        // tram has no categories → no structural evidence.
        assert!(!g.categories_superset(tram, cable));
    }

    #[test]
    fn categories_superset_strict_subset() {
        let mut b = GraphBuilder::new();
        let a = b.add_article("a");
        let x = b.add_article("x");
        let c1 = b.add_category("c1");
        let c2 = b.add_category("c2");
        b.add_membership(a, c1);
        b.add_membership(x, c1);
        b.add_membership(x, c2);
        let g = b.build();
        // cats(x) = {c1,c2} ⊇ cats(a) = {c1}: superset holds one way only.
        assert!(g.categories_superset(a, x));
        assert!(!g.categories_superset(x, a));
        let _ = c2;
    }

    #[test]
    fn undirected_neighbors_article() {
        let (g, cable, funi, tram, rail) = toy();
        let mut out = Vec::new();
        g.undirected_neighbors(Node::Article(cable), &mut out);
        // funicular (mutual), tram (in-link), rail (category).
        assert!(out.contains(&Node::Article(funi)));
        assert!(out.contains(&Node::Article(tram)));
        assert!(out.contains(&Node::Category(rail)));
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn undirected_neighbors_category() {
        let (g, cable, funi, _, rail) = toy();
        let mut out = Vec::new();
        g.undirected_neighbors(Node::Category(rail), &mut out);
        assert!(out.contains(&Node::Article(cable)));
        assert!(out.contains(&Node::Article(funi)));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn edge_multiplicity_counts_directions() {
        let (g, cable, funi, tram, rail) = toy();
        assert_eq!(
            g.edge_multiplicity(Node::Article(cable), Node::Article(funi)),
            2
        );
        assert_eq!(
            g.edge_multiplicity(Node::Article(tram), Node::Article(cable)),
            1
        );
        assert_eq!(
            g.edge_multiplicity(Node::Article(cable), Node::Category(rail)),
            1
        );
        assert_eq!(
            g.edge_multiplicity(Node::Article(tram), Node::Category(rail)),
            0
        );
    }

    #[test]
    fn category_adjacency_either_direction() {
        let mut b = GraphBuilder::new();
        let child = b.add_category("funiculars");
        let parent = b.add_category("rail transport");
        b.add_subcategory(child, parent);
        let g = b.build();
        assert!(g.category_adjacent(child, parent));
        assert!(g.category_adjacent(parent, child));
        assert_eq!(g.parents_of(child), &[parent.raw()]);
        assert_eq!(g.children_of(parent), &[child.raw()]);
    }

    #[test]
    fn shape_validation_rejects_inconsistent_sections() {
        let (g, ..) = toy();
        // Rebuild with a membership CSR whose terminal offset lies about
        // the edge count: structurally inconsistent, semantically silent.
        let bad_members = Csr::from_raw_parts(
            {
                let mut o = g.memberships().offsets().to_vec();
                if let Some(last) = o.last_mut() {
                    *last += 1;
                }
                o
            },
            g.memberships().targets().to_vec(),
        );
        let bad = KbGraph::from_parts(
            g.article_titles().to_vec(),
            g.category_titles().to_vec(),
            g.article_links().clone(),
            g.article_links_rev().clone(),
            bad_members,
            g.members().clone(),
            g.subcategories().clone(),
            g.subcats_rev().clone(),
        );
        let err = bad.validate_shape().unwrap_err();
        assert_eq!(err.csr, "memberships", "{err}");
        assert!(g.validate_shape().is_ok());
    }

    #[test]
    fn find_article_by_title_works() {
        let (g, cable, _, _, _) = toy();
        assert_eq!(g.find_article_by_title("cable car"), Some(cable));
        assert_eq!(g.find_article_by_title("nope"), None);
    }
}
