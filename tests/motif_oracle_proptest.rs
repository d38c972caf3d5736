//! Oracle for motif traversal.
//!
//! 1. Every one of the 30 [`MotifSpec::all`] must equal a reference that
//!    applies the motif definitions directly to the raw edge lists, held
//!    in `BTreeSet`s — never through the graph's CSR helpers
//!    (`mutual_links`, `categories_superset`, `category_adjacent`,
//!    `parents_of`, `children_of`):
//!    - the link set is mutual (`q→x` and `x→q`), out (`q→x`) or any
//!      (either), and never contains `q` itself;
//!    - Superset gives `|cats(q)|` when `∅ ≠ cats(q) ⊆ cats(x)`;
//!    - Shared gives `|cats(q) ∩ cats(x)|`;
//!    - Adjacent counts pairs `a ∈ cats(q)`, `b ∈ cats(x)`, `a ≠ b`,
//!      joined by a sub-category edge in either direction;
//!    - Cousin counts pairs `a ≠ b` that are not adjacent but share an
//!      adjacent category `z`;
//!    - Free gives 1, and the `Unit` weight flattens any count to 1.
//!
//!    Articles come out in ascending id order.
//! 2. [`QueryGraphBuilder::from_set`] over a random [`MotifSet`] and 1–3
//!    query nodes must equal those reference counts summed over the specs
//!    and the query nodes, with the query nodes excluded, sorted by
//!    descending multiplicity then article id.
//!
//! Every random KB repeats some of its edges, reverses some sub-category
//! edges into 2-cycles and leaves one article uncategorized; it may also
//! hold self-links and sub-category self-loops, which the graph builder
//! drops. Every article is an anchor. Superset is a set condition and Cousin counts category pairs,
//! not paths, so the reference is written from the definitions rather
//! than from cycle enumeration.

use std::collections::{BTreeMap, BTreeSet};

use kbgraph::{ArticleId, GraphBuilder, KbGraph};
use proptest::prelude::*;
use sqe::{CategoryScope, LinkCondition, MotifSet, MotifSpec, QueryGraphBuilder, WeightRule};

const ARTICLES: u32 = 8;
const CATEGORIES: u32 = 6;

/// A random KB as raw edge lists, duplicates and self-edges included.
#[derive(Debug, Clone)]
struct RawKb {
    links: Vec<(u32, u32)>,
    memberships: Vec<(u32, u32)>,
    subcats: Vec<(u32, u32)>,
}

fn raw_kb() -> impl Strategy<Value = RawKb> {
    (
        prop::collection::vec((0..ARTICLES, 0..ARTICLES), 1..40),
        prop::collection::vec((0..ARTICLES, 0..CATEGORIES), 1..24),
        prop::collection::vec((0..CATEGORIES, 0..CATEGORIES), 1..12),
        (1usize..4, 1usize..3),
        0..ARTICLES,
    )
        .prop_map(|(links, memberships, subcats, (dups, cycles), bare)| {
            let mut kb = RawKb {
                links,
                memberships,
                subcats,
            };
            // Repeat the first few edges of every list.
            for list in [&mut kb.links, &mut kb.memberships, &mut kb.subcats] {
                let repeated: Vec<(u32, u32)> = list.iter().take(dups).copied().collect();
                list.extend(repeated);
            }
            // Close 2-cycles in the category hierarchy.
            let reversed: Vec<(u32, u32)> = kb
                .subcats
                .iter()
                .take(cycles)
                .map(|&(c, p)| (p, c))
                .collect();
            kb.subcats.extend(reversed);
            // One article stays outside the category system.
            kb.memberships.retain(|&(a, _)| a != bare);
            kb
        })
}

fn build(kb: &RawKb) -> KbGraph {
    let mut b = GraphBuilder::new();
    let arts: Vec<ArticleId> = (0..ARTICLES)
        .map(|i| b.add_article(&format!("a{i}")))
        .collect();
    let cats: Vec<_> = (0..CATEGORIES)
        .map(|i| b.add_category(&format!("c{i}")))
        .collect();
    for &(s, d) in &kb.links {
        b.add_article_link(arts[s as usize], arts[d as usize]);
    }
    for &(a, c) in &kb.memberships {
        b.add_membership(arts[a as usize], cats[c as usize]);
    }
    for &(c, p) in &kb.subcats {
        b.add_subcategory(cats[c as usize], cats[p as usize]);
    }
    b.build()
}

/// The motif definitions over the raw edge sets.
struct Reference {
    links: BTreeSet<(u32, u32)>,
    cats: Vec<BTreeSet<u32>>,
    subcats: BTreeSet<(u32, u32)>,
}

impl Reference {
    fn new(kb: &RawKb) -> Self {
        let mut cats = vec![BTreeSet::new(); ARTICLES as usize];
        for &(a, c) in &kb.memberships {
            cats[a as usize].insert(c);
        }
        Reference {
            links: kb.links.iter().copied().collect(),
            cats,
            subcats: kb.subcats.iter().copied().collect(),
        }
    }

    fn linked(&self, link: LinkCondition, q: u32, x: u32) -> bool {
        let out = self.links.contains(&(q, x));
        let back = self.links.contains(&(x, q));
        match link {
            LinkCondition::Mutual => out && back,
            LinkCondition::OutLink => out,
            LinkCondition::AnyDirection => out || back,
        }
    }

    fn adjacent(&self, a: u32, b: u32) -> bool {
        self.subcats.contains(&(a, b)) || self.subcats.contains(&(b, a))
    }

    /// Pairs `a ∈ cats(q)`, `b ∈ cats(x)`, `a ≠ b`, satisfying `related`.
    fn pairs(&self, q: u32, x: u32, related: impl Fn(u32, u32) -> bool) -> u32 {
        let mut n = 0;
        for &a in &self.cats[q as usize] {
            for &b in &self.cats[x as usize] {
                if a != b && related(a, b) {
                    n += 1;
                }
            }
        }
        n
    }

    fn instances(&self, scope: CategoryScope, q: u32, x: u32) -> u32 {
        let (cq, cx) = (&self.cats[q as usize], &self.cats[x as usize]);
        match scope {
            CategoryScope::Superset => {
                if !cq.is_empty() && cq.is_subset(cx) {
                    cq.len() as u32
                } else {
                    0
                }
            }
            CategoryScope::SharedAny => cq.intersection(cx).count() as u32,
            CategoryScope::Adjacent => self.pairs(q, x, |a, b| self.adjacent(a, b)),
            CategoryScope::Cousin => self.pairs(q, x, |a, b| {
                !self.adjacent(a, b)
                    && (0..CATEGORIES).any(|z| self.adjacent(a, z) && self.adjacent(z, b))
            }),
            CategoryScope::Unconstrained => 1,
        }
    }

    fn expansions(&self, spec: MotifSpec, q: u32) -> Vec<(ArticleId, u32)> {
        (0..ARTICLES)
            .filter(|&x| x != q && self.linked(spec.link, q, x))
            .filter_map(|x| {
                let m = self.instances(spec.category, q, x);
                let weighted = match spec.weight {
                    WeightRule::Counted => m,
                    WeightRule::Unit => 1,
                };
                (m > 0).then_some((ArticleId::new(x), weighted))
            })
            .collect()
    }
}

proptest! {
    /// Every spec, from every anchor, matches the definitions.
    #[test]
    fn every_spec_matches_the_definitions(kb in raw_kb()) {
        let graph = build(&kb);
        let reference = Reference::new(&kb);
        let specs = MotifSpec::all();
        prop_assert_eq!(specs.len(), 30);
        for spec in specs {
            for q in 0..ARTICLES {
                prop_assert_eq!(
                    spec.expansions(&graph, ArticleId::new(q)),
                    reference.expansions(spec, q),
                    "{} from a{}",
                    spec.name(),
                    q
                );
            }
        }
    }

    /// Query graphs sum the reference counts over specs and query nodes.
    #[test]
    fn query_graphs_sum_the_definitions(
        kb in raw_kb(),
        indices in prop::collection::vec(0..MotifSpec::COUNT, 0..6),
        nodes in prop::collection::vec(0..ARTICLES, 1..4),
    ) {
        let graph = build(&kb);
        let reference = Reference::new(&kb);
        let set = MotifSet::new(
            indices
                .iter()
                .map(|&i| MotifSpec::from_index(i).expect("index is in range"))
                .collect(),
        );
        let query_nodes: Vec<ArticleId> = nodes.iter().map(|&q| ArticleId::new(q)).collect();

        let mut sums: BTreeMap<ArticleId, u32> = BTreeMap::new();
        for &q in &nodes {
            for &spec in set.specs() {
                for (a, m) in reference.expansions(spec, q) {
                    if !query_nodes.contains(&a) {
                        *sums.entry(a).or_insert(0) += m;
                    }
                }
            }
        }
        let mut expected: Vec<(ArticleId, u32)> = sums.into_iter().collect();
        expected.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        let qg = QueryGraphBuilder::from_set(&graph, &set).build(&query_nodes);
        prop_assert_eq!(&qg.query_nodes, &query_nodes);
        prop_assert_eq!(qg.expansions, expected, "set {}", set.name());
    }
}
