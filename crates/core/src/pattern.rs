//! Declarative motif patterns.
//!
//! The paper crafts its two motifs by hand and closes with: "We need to
//! expand our understanding of KBs, and study what other motifs may be
//! relevant for other KBs … we are already working on a learning
//! algorithm that is capable of identifying such motifs automatically."
//!
//! [`PatternMotif`] factors every motif in this family into two
//! orthogonal conditions — how the expansion article must be *linked* to
//! the query node, and how their *categories* must relate — making the
//! space enumerable for the learner in [`crate::learn`]. The paper's
//! motifs are two points of this space:
//!
//! * triangular ≡ `Mutual` link + `Superset` categories,
//! * square ≡ `Mutual` link + `Adjacent` categories.

use kbgraph::{ArticleId, CategoryId, KbGraph};

use crate::motif::{Motif, MotifKind};

/// How the candidate article must be hyperlinked with the query node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkCondition {
    /// Reciprocal links in both directions (the paper's "doubly linked").
    Mutual,
    /// A link from the query node to the candidate suffices.
    OutLink,
    /// A link in either direction suffices.
    AnyDirection,
}

/// How the candidate's categories must relate to the query node's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CategoryCondition {
    /// `cats(candidate) ⊇ cats(query)` — the triangular condition.
    /// Instance count: one per category of the query node.
    Superset,
    /// At least one category in common. Instance count: number of shared
    /// categories.
    SharedAny,
    /// Some category of one is a direct sub-/super-category of some
    /// category of the other — the square condition. Instance count:
    /// number of adjacent category pairs.
    Adjacent,
    /// No category requirement (pure link motif). Instance count 1.
    Unconstrained,
}

/// A motif defined by a link condition and a category condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatternMotif {
    /// Link requirement.
    pub link: LinkCondition,
    /// Category requirement.
    pub category: CategoryCondition,
}

impl PatternMotif {
    /// The paper's triangular motif as a pattern.
    pub fn triangular() -> Self {
        PatternMotif {
            link: LinkCondition::Mutual,
            category: CategoryCondition::Superset,
        }
    }

    /// The paper's square motif as a pattern.
    pub fn square() -> Self {
        PatternMotif {
            link: LinkCondition::Mutual,
            category: CategoryCondition::Adjacent,
        }
    }

    /// Every pattern in the space (the learner's search grid).
    pub fn all() -> Vec<PatternMotif> {
        let links = [
            LinkCondition::Mutual,
            LinkCondition::OutLink,
            LinkCondition::AnyDirection,
        ];
        let cats = [
            CategoryCondition::Superset,
            CategoryCondition::SharedAny,
            CategoryCondition::Adjacent,
            CategoryCondition::Unconstrained,
        ];
        let mut out = Vec::with_capacity(links.len() * cats.len());
        for &link in &links {
            for &category in &cats {
                out.push(PatternMotif { link, category });
            }
        }
        out
    }

    /// Short display form, e.g. `mutual+superset`.
    pub fn name(&self) -> String {
        let l = match self.link {
            LinkCondition::Mutual => "mutual",
            LinkCondition::OutLink => "outlink",
            LinkCondition::AnyDirection => "anylink",
        };
        let c = match self.category {
            CategoryCondition::Superset => "superset",
            CategoryCondition::SharedAny => "shared",
            CategoryCondition::Adjacent => "adjacent",
            CategoryCondition::Unconstrained => "free",
        };
        format!("{l}+{c}")
    }
}

/// Candidate articles satisfying the link condition — the shared CSR
/// traversal behind both [`PatternMotif`] and [`crate::spec::MotifSpec`].
pub(crate) fn link_candidates(
    graph: &KbGraph,
    link: LinkCondition,
    query_node: ArticleId,
) -> Vec<ArticleId> {
    match link {
        LinkCondition::Mutual => graph.mutual_links(query_node),
        LinkCondition::OutLink => graph
            .out_links(query_node)
            .iter()
            .map(|&x| ArticleId::new(x))
            .collect(),
        LinkCondition::AnyDirection => {
            let mut v: Vec<u32> = graph
                .out_links(query_node)
                .iter()
                .chain(graph.in_links(query_node).iter())
                .copied()
                .collect();
            v.sort_unstable();
            v.dedup();
            v.into_iter().map(ArticleId::new).collect()
        }
    }
}

/// Number of motif instances the candidate closes under a category
/// condition (0 = no match) — shared by [`PatternMotif`] and
/// [`crate::spec::MotifSpec`].
pub(crate) fn category_instances(
    graph: &KbGraph,
    cond: CategoryCondition,
    query_node: ArticleId,
    cand: ArticleId,
) -> u32 {
    let qc = graph.categories_of(query_node);
    let cc = graph.categories_of(cand);
    match cond {
        CategoryCondition::Superset => {
            if !qc.is_empty() && graph.categories_superset(query_node, cand) {
                qc.len() as u32
            } else {
                0
            }
        }
        CategoryCondition::SharedAny => {
            // Sorted intersection size.
            let (mut i, mut j, mut shared) = (0, 0, 0u32);
            while i < qc.len() && j < cc.len() {
                match qc[i].cmp(&cc[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        shared += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
            shared
        }
        CategoryCondition::Adjacent => {
            let mut squares = 0u32;
            for &a in qc {
                for &b in cc {
                    if a != b && graph.category_adjacent(CategoryId::new(a), CategoryId::new(b)) {
                        squares += 1;
                    }
                }
            }
            squares
        }
        CategoryCondition::Unconstrained => 1,
    }
}

impl Motif for PatternMotif {
    fn kind(&self) -> MotifKind {
        // Patterns generalize both; report the closest classical kind.
        match self.category {
            CategoryCondition::Superset | CategoryCondition::SharedAny => MotifKind::Triangular,
            _ => MotifKind::Square,
        }
    }

    fn expansions_into(
        &self,
        graph: &KbGraph,
        query_node: ArticleId,
        out: &mut Vec<(ArticleId, u32)>,
    ) {
        for cand in link_candidates(graph, self.link, query_node) {
            if cand == query_node {
                continue;
            }
            let m = category_instances(graph, self.category, query_node, cand);
            if m > 0 {
                out.push((cand, m));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MotifSpec;
    use kbgraph::GraphBuilder;

    /// A graph exercising every condition: mutual pair with shared cats,
    /// one-way link, hierarchy-adjacent cats.
    fn world() -> (KbGraph, ArticleId) {
        let mut b = GraphBuilder::new();
        let q = b.add_article("q");
        let tri = b.add_article("tri");
        let sq = b.add_article("sq");
        let out = b.add_article("out");
        let c = b.add_category("c");
        let sub = b.add_category("sub");
        b.add_membership(q, c);
        b.add_membership(tri, c);
        b.add_membership(sq, sub);
        b.add_subcategory(sub, c);
        b.add_mutual_link(q, tri);
        b.add_mutual_link(q, sq);
        b.add_article_link(q, out);
        b.add_membership(out, c);
        (b.build(), q)
    }

    #[test]
    fn pattern_reproduces_triangular() {
        let (g, q) = world();
        let tri = g.find_article_by_title("tri").unwrap();
        let got = PatternMotif::triangular().expansions(&g, q);
        // "tri" shares q's single category; "sq" does not (only sub).
        assert_eq!(got, vec![(tri, 1)]);
        assert_eq!(got, MotifSpec::triangular().expansions(&g, q));
    }

    #[test]
    fn pattern_reproduces_square() {
        let (g, q) = world();
        let sq = g.find_article_by_title("sq").unwrap();
        let got = PatternMotif::square().expansions(&g, q);
        // "sq" is in sub, which is directly inside q's category c.
        assert_eq!(got, vec![(sq, 1)]);
        assert_eq!(got, MotifSpec::square().expansions(&g, q));
    }

    #[test]
    fn outlink_pattern_reaches_one_way_neighbors() {
        let (g, q) = world();
        let p = PatternMotif {
            link: LinkCondition::OutLink,
            category: CategoryCondition::SharedAny,
        };
        let names: Vec<u32> = p.expansions(&g, q).iter().map(|&(a, _)| a.raw()).collect();
        // "out" shares category c and is out-linked.
        let out = g.find_article_by_title("out").unwrap();
        assert!(names.contains(&out.raw()));
    }

    #[test]
    fn unconstrained_pattern_counts_one_per_candidate() {
        let (g, q) = world();
        let p = PatternMotif {
            link: LinkCondition::Mutual,
            category: CategoryCondition::Unconstrained,
        };
        let exps = p.expansions(&g, q);
        assert_eq!(exps.len(), 2, "both mutual partners");
        assert!(exps.iter().all(|&(_, m)| m == 1));
    }

    #[test]
    fn shared_any_counts_intersection() {
        let mut b = GraphBuilder::new();
        let q = b.add_article("q");
        let x = b.add_article("x");
        let c1 = b.add_category("c1");
        let c2 = b.add_category("c2");
        let c3 = b.add_category("c3");
        for c in [c1, c2] {
            b.add_membership(q, c);
            b.add_membership(x, c);
        }
        b.add_membership(x, c3);
        b.add_mutual_link(q, x);
        let g = b.build();
        let p = PatternMotif {
            link: LinkCondition::Mutual,
            category: CategoryCondition::SharedAny,
        };
        assert_eq!(p.expansions(&g, q), vec![(x, 2)]);
    }

    #[test]
    fn pattern_space_is_complete() {
        let all = PatternMotif::all();
        assert_eq!(all.len(), 12);
        assert!(all.contains(&PatternMotif::triangular()));
        assert!(all.contains(&PatternMotif::square()));
        let names: std::collections::HashSet<String> = all.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 12, "names must be distinct");
    }

    #[test]
    fn any_direction_superset_of_outlink() {
        let (g, q) = world();
        for cat in [
            CategoryCondition::Superset,
            CategoryCondition::SharedAny,
            CategoryCondition::Adjacent,
            CategoryCondition::Unconstrained,
        ] {
            let out: Vec<_> = PatternMotif {
                link: LinkCondition::OutLink,
                category: cat,
            }
            .expansions(&g, q);
            let any: Vec<_> = PatternMotif {
                link: LinkCondition::AnyDirection,
                category: cat,
            }
            .expansions(&g, q);
            for (a, _) in &out {
                assert!(any.iter().any(|(x, _)| x == a), "{cat:?}");
            }
        }
    }
}
