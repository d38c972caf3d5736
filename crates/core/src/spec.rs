//! Motif specifications: the one motif vocabulary.
//!
//! A motif is a short cycle through the query node in the KB graph. The
//! paper hand-crafts two of them:
//!
//! * **Triangular** (length-3 cycle, Figure 3a): the query node and the
//!   expansion node are *doubly linked* (each hyperlinks the other) and
//!   the expansion node belongs to **at least the same categories** as the
//!   query node. Every category shared this way closes one triangle.
//! * **Square** (length-4 cycle, Figure 3b): the pair is doubly linked and
//!   **some category of one is inside some category of the other** (a
//!   direct sub-category edge, in either direction). Every such category
//!   pair closes one square.
//!
//! It closes by asking "what other motifs may be relevant for other KBs".
//! [`MotifSpec`] makes the answer a *value* instead of a code change:
//! every motif in the family is a point in a three-axis space —
//!
//! * **link reciprocity** ([`LinkCondition`]): mutual, out-link only, or
//!   either direction;
//! * **category containment depth** ([`CategoryScope`]): same category
//!   set ([`CategoryScope::Superset`], the triangular condition, cycle
//!   length 3), any shared category ([`CategoryScope::SharedAny`], cycle
//!   length 3), hierarchy-adjacent categories
//!   ([`CategoryScope::Adjacent`], the square condition, cycle length 4),
//!   categories two hierarchy steps apart ([`CategoryScope::Cousin`],
//!   cycle length 5 — the length the paper skipped for performance), or
//!   no category requirement ([`CategoryScope::Unconstrained`], the bare
//!   link 2-cycle);
//! * **multiplicity weighting** ([`WeightRule`]): count every motif
//!   instance (`|m_a|`, the paper's weighting) or flatten to 1 per
//!   expansion article.
//!
//! The paper's motifs are [`MotifSpec::triangular`] and
//! [`MotifSpec::square`]; the learner in [`crate::learn`] ranks the
//! counted specs against ground-truth query graphs.
//!
//! A [`MotifSet`] is a canonical (sorted, deduplicated) set of specs with
//! a stable [`MotifFingerprint`] — a bitmask over the enumeration order —
//! used as the expansion-cache key and as the identity of a set in
//! reports and benchmarks. The paper's configurations are
//! [`MotifSet::triangular`], [`MotifSet::square`] and
//! [`MotifSet::t_and_s`].
//!
//! [`MotifLadder`] generalizes the serving layer's degraded-mode ladder:
//! an ordered list of named rungs, each either a motif set or the
//! unexpanded query, walked top-down by the admission layer's
//! `select_rung` against per-rung cost histograms.

use std::fmt;
use std::sync::Arc;

use kbgraph::{ArticleId, CategoryId, KbGraph};

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

impl LinkCondition {
    const ALL: [LinkCondition; 3] = [
        LinkCondition::Mutual,
        LinkCondition::OutLink,
        LinkCondition::AnyDirection,
    ];

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            LinkCondition::Mutual => "mutual",
            LinkCondition::OutLink => "outlink",
            LinkCondition::AnyDirection => "anylink",
        }
    }

    /// Candidate articles satisfying the link condition, ascending and
    /// distinct.
    fn candidates(self, graph: &KbGraph, query_node: ArticleId) -> Vec<ArticleId> {
        match self {
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
}

/// How the candidate's categories must relate to the query node's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CategoryScope {
    /// `cats(candidate) ⊇ cats(query)` — the triangular condition
    /// (3-cycle). Instance count: one per category of the query node.
    Superset,
    /// At least one category in common (3-cycle). Instance count: number
    /// of shared categories.
    SharedAny,
    /// Some category of one is a direct sub-/super-category of some
    /// category of the other — the square condition (4-cycle). Instance
    /// count: number of adjacent category pairs.
    Adjacent,
    /// Some category of one is exactly **two** hierarchy steps from some
    /// category of the other (grandparent, grandchild, or sibling) — the
    /// 5-cycle the paper declined to traverse. Instance count: number of
    /// such distinct, non-adjacent category pairs.
    Cousin,
    /// No category requirement (pure link motif, 2-cycle). Instance
    /// count 1.
    Unconstrained,
}

impl CategoryScope {
    const ALL: [CategoryScope; 5] = [
        CategoryScope::Superset,
        CategoryScope::SharedAny,
        CategoryScope::Adjacent,
        CategoryScope::Cousin,
        CategoryScope::Unconstrained,
    ];

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            CategoryScope::Superset => "superset",
            CategoryScope::SharedAny => "shared",
            CategoryScope::Adjacent => "adjacent",
            CategoryScope::Cousin => "cousin",
            CategoryScope::Unconstrained => "free",
        }
    }
}

/// How motif instance counts become expansion multiplicities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightRule {
    /// `|m_a|` = the number of motif instances the article closes (the
    /// paper's weighting).
    Counted,
    /// Every matched article gets multiplicity 1 (the ablation that
    /// flattens `|m_a|`).
    Unit,
}

impl WeightRule {
    const ALL: [WeightRule; 2] = [WeightRule::Counted, WeightRule::Unit];

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            WeightRule::Counted => "counted",
            WeightRule::Unit => "unit",
        }
    }
}

/// One motif, fully specified: link reciprocity × category containment
/// depth × multiplicity weighting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MotifSpec {
    /// Link requirement between query node and expansion candidate.
    pub link: LinkCondition,
    /// Category requirement between their category sets.
    pub category: CategoryScope,
    /// How instance counts become multiplicities.
    pub weight: WeightRule,
}

impl MotifSpec {
    /// The paper's triangular motif: mutual link, category superset,
    /// counted multiplicities.
    pub fn triangular() -> Self {
        MotifSpec {
            link: LinkCondition::Mutual,
            category: CategoryScope::Superset,
            weight: WeightRule::Counted,
        }
    }

    /// The paper's square motif: mutual link, hierarchy-adjacent
    /// categories, counted multiplicities.
    pub fn square() -> Self {
        MotifSpec {
            link: LinkCondition::Mutual,
            category: CategoryScope::Adjacent,
            weight: WeightRule::Counted,
        }
    }

    /// Number of specs in the enumerable space
    /// (`LinkCondition × CategoryScope × WeightRule`).
    pub const COUNT: usize =
        LinkCondition::ALL.len() * CategoryScope::ALL.len() * WeightRule::ALL.len();

    /// Every spec in the space, in canonical enumeration order
    /// (link-major, then category scope, then weight rule). Indexes into
    /// this list are the bit positions of [`MotifFingerprint`].
    pub fn all() -> Vec<MotifSpec> {
        (0..MotifSpec::COUNT)
            .filter_map(MotifSpec::from_index)
            .collect()
    }

    /// The canonical enumeration index of this spec (the fingerprint bit
    /// it occupies).
    pub fn index(self) -> usize {
        let l = match self.link {
            LinkCondition::Mutual => 0,
            LinkCondition::OutLink => 1,
            LinkCondition::AnyDirection => 2,
        };
        let c = match self.category {
            CategoryScope::Superset => 0,
            CategoryScope::SharedAny => 1,
            CategoryScope::Adjacent => 2,
            CategoryScope::Cousin => 3,
            CategoryScope::Unconstrained => 4,
        };
        let w = match self.weight {
            WeightRule::Counted => 0,
            WeightRule::Unit => 1,
        };
        (l * CategoryScope::ALL.len() + c) * WeightRule::ALL.len() + w
    }

    /// The spec at canonical index `i`, if in range.
    pub fn from_index(i: usize) -> Option<MotifSpec> {
        let w = i % WeightRule::ALL.len();
        let rest = i / WeightRule::ALL.len();
        let c = rest % CategoryScope::ALL.len();
        let l = rest / CategoryScope::ALL.len();
        Some(MotifSpec {
            link: *LinkCondition::ALL.get(l)?,
            category: *CategoryScope::ALL.get(c)?,
            weight: *WeightRule::ALL.get(w)?,
        })
    }

    /// The cycle length this spec's motif instances close in the KB
    /// graph (2 for a bare link, 3 for triangles, 4 for squares, 5 for
    /// cousins).
    pub fn cycle_length(self) -> usize {
        match self.category {
            CategoryScope::Unconstrained => 2,
            CategoryScope::Superset | CategoryScope::SharedAny => 3,
            CategoryScope::Adjacent => 4,
            CategoryScope::Cousin => 5,
        }
    }

    /// Stable display form, e.g. `mutual+superset` (counted) or
    /// `mutual+superset+unit`. Parseable by [`MotifSpec::from_name`].
    pub fn name(self) -> String {
        let (link, category) = (self.link.name(), self.category.name());
        match self.weight {
            WeightRule::Counted => format!("{link}+{category}"),
            WeightRule::Unit => format!("{link}+{category}+unit"),
        }
    }

    /// Parses a [`MotifSpec::name`] back into a spec.
    pub fn from_name(name: &str) -> Option<MotifSpec> {
        let mut parts = name.split('+');
        let (link, category) = (parts.next()?, parts.next()?);
        let link = LinkCondition::ALL.into_iter().find(|l| l.name() == link)?;
        let category = CategoryScope::ALL
            .into_iter()
            .find(|c| c.name() == category)?;
        let weight = match parts.next() {
            None => WeightRule::Counted,
            Some("unit") => WeightRule::Unit,
            Some(_) => return None,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(MotifSpec {
            link,
            category,
            weight,
        })
    }

    /// Appends `(expansion article, multiplicity)` pairs for
    /// `query_node` to `out` (which is *not* cleared — callers batch
    /// several traversals into one buffer), in ascending article order.
    /// Multiplicities are ≥ 1; articles absent from the result close no
    /// instance of this motif with the query node.
    pub fn expansions_into(
        self,
        graph: &KbGraph,
        query_node: ArticleId,
        out: &mut Vec<(ArticleId, u32)>,
    ) {
        for cand in self.link.candidates(graph, query_node) {
            if cand == query_node {
                continue;
            }
            let m = self.instances(graph, query_node, cand);
            if m > 0 {
                let weighted = match self.weight {
                    WeightRule::Counted => m,
                    WeightRule::Unit => 1,
                };
                out.push((cand, weighted));
            }
        }
    }

    /// [`MotifSpec::expansions_into`] into a fresh vector.
    pub fn expansions(self, graph: &KbGraph, query_node: ArticleId) -> Vec<(ArticleId, u32)> {
        let mut out = Vec::new();
        self.expansions_into(graph, query_node, &mut out);
        out
    }

    /// Number of motif instances the candidate closes (0 = no match),
    /// before the weight rule is applied.
    fn instances(self, graph: &KbGraph, query_node: ArticleId, cand: ArticleId) -> u32 {
        let qc = graph.categories_of(query_node);
        let cc = graph.categories_of(cand);
        match self.category {
            CategoryScope::Superset => {
                // False when the query node has no categories.
                if graph.categories_superset(query_node, cand) {
                    qc.len() as u32
                } else {
                    0
                }
            }
            // Both category lists are sorted and distinct.
            CategoryScope::SharedAny => {
                qc.iter().filter(|c| cc.binary_search(c).is_ok()).count() as u32
            }
            CategoryScope::Adjacent => count_pairs(qc, cc, |a, b| graph.category_adjacent(a, b)),
            // Distinct, non-adjacent pairs exactly two hierarchy steps
            // apart; distance 1 is the square scope's territory.
            CategoryScope::Cousin => count_pairs(qc, cc, |a, b| {
                !graph.category_adjacent(a, b)
                    && graph
                        .parents_of(a)
                        .iter()
                        .chain(graph.children_of(a).iter())
                        .any(|&z| graph.category_adjacent(CategoryId::new(z), b))
            }),
            CategoryScope::Unconstrained => 1,
        }
    }
}

/// Number of distinct category pairs `(a, b)`, `a` from `qc` and `b`
/// from `cc`, that satisfy `related` — each closes one motif instance.
fn count_pairs(qc: &[u32], cc: &[u32], related: impl Fn(CategoryId, CategoryId) -> bool) -> u32 {
    let mut pairs = 0u32;
    for &a in qc {
        for &b in cc {
            if a != b && related(CategoryId::new(a), CategoryId::new(b)) {
                pairs += 1;
            }
        }
    }
    pairs
}

/// The canonical, stable identity of a [`MotifSet`]: a bitmask over the
/// enumeration order of [`MotifSpec::all`]. Equal sets — regardless of
/// construction order or duplicates — have equal fingerprints, so the
/// fingerprint is the cache key and the report identity of a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MotifFingerprint(u64);

impl MotifFingerprint {
    /// The raw bitmask (bit *i* = spec at canonical index *i*).
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Parses the [`fmt::Display`] rendering (`m<hex bits>`) back.
    pub fn parse(s: &str) -> Option<MotifFingerprint> {
        let hex = s.strip_prefix('m')?;
        u64::from_str_radix(hex, 16).ok().map(MotifFingerprint)
    }
}

impl fmt::Display for MotifFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{:x}", self.0)
    }
}

/// A canonical set of motif specs: sorted by enumeration index with
/// duplicates removed, so two sets built from the same specs in any
/// order compare equal and fingerprint identically.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MotifSet {
    specs: Vec<MotifSpec>,
}

impl MotifSet {
    /// Canonicalizes `specs` (sort by [`MotifSpec::index`], dedup).
    pub fn new(specs: Vec<MotifSpec>) -> Self {
        let mut specs = specs;
        specs.sort_by_key(|s| s.index());
        specs.dedup();
        MotifSet { specs }
    }

    /// The empty set (no expansion at all).
    pub fn empty() -> Self {
        MotifSet { specs: Vec::new() }
    }

    /// A one-spec set.
    pub fn single(spec: MotifSpec) -> Self {
        MotifSet { specs: vec![spec] }
    }

    /// The paper's `SQE_T` configuration.
    pub fn triangular() -> Self {
        MotifSet::single(MotifSpec::triangular())
    }

    /// The paper's `SQE_S` configuration.
    pub fn square() -> Self {
        MotifSet::single(MotifSpec::square())
    }

    /// The paper's `SQE_T&S` configuration.
    pub fn t_and_s() -> Self {
        MotifSet::new(vec![MotifSpec::triangular(), MotifSpec::square()])
    }

    /// The specs, in canonical order.
    pub fn specs(&self) -> &[MotifSpec] {
        &self.specs
    }

    /// Number of specs in the set.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True for the empty (unexpanded) set.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The canonical, stable fingerprint of this set.
    pub fn fingerprint(&self) -> MotifFingerprint {
        let mut bits = 0u64;
        for spec in &self.specs {
            bits |= 1u64 << spec.index();
        }
        MotifFingerprint(bits)
    }

    /// Reconstructs the set a fingerprint identifies. Bits beyond the
    /// spec space are ignored.
    pub fn from_fingerprint(fp: MotifFingerprint) -> MotifSet {
        let specs = MotifSpec::all()
            .into_iter()
            .filter(|s| fp.bits() & (1u64 << s.index()) != 0)
            .collect();
        // `all()` enumerates in index order, so the result is canonical.
        MotifSet { specs }
    }

    /// Stable display form: spec names joined by `&` (`none` when
    /// empty), e.g. `mutual+superset&mutual+adjacent` for `SQE_T&S`.
    pub fn name(&self) -> String {
        if self.specs.is_empty() {
            return "none".to_owned();
        }
        let names: Vec<String> = self.specs.iter().map(|s| s.name()).collect();
        names.join("&")
    }
}

/// One rung of a degraded-mode ladder: a stable name plus either a motif
/// set to expand with, or `None` for the unexpanded query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MotifRung {
    name: Arc<str>,
    motifs: Option<MotifSet>,
}

impl MotifRung {
    /// A rung that expands with `motifs`.
    pub fn expanded(name: &str, motifs: MotifSet) -> Self {
        MotifRung {
            name: Arc::from(name),
            motifs: Some(motifs),
        }
    }

    /// A rung that ranks the unexpanded user query.
    pub fn unexpanded(name: &str) -> Self {
        MotifRung {
            name: Arc::from(name),
            motifs: None,
        }
    }

    /// The rung's stable name (shared, so outcome labels clone an `Arc`).
    pub fn name(&self) -> &Arc<str> {
        &self.name
    }

    /// The motif set this rung expands with, or `None` for the
    /// unexpanded query.
    pub fn motifs(&self) -> Option<&MotifSet> {
        self.motifs.as_ref()
    }
}

/// An ordered degraded-mode ladder: rung 0 is full quality, later rungs
/// are progressively cheaper. The serving layer sizes its per-rung cost
/// histograms from [`MotifLadder::len`] and the admission layer's
/// `select_rung` walks the rungs top-down against the remaining deadline
/// budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MotifLadder {
    rungs: Vec<MotifRung>,
}

impl MotifLadder {
    /// Builds a ladder from ordered rungs. An empty list falls back to
    /// [`MotifLadder::default_sqe`] — a service always has at least one
    /// rung to serve at.
    pub fn new(rungs: Vec<MotifRung>) -> Self {
        if rungs.is_empty() {
            return MotifLadder::default_sqe();
        }
        MotifLadder { rungs }
    }

    /// The paper-shaped default: `full` (SQE_T&S) → `triangular` (SQE_T)
    /// → `unexpanded`.
    pub fn default_sqe() -> Self {
        MotifLadder {
            rungs: vec![
                MotifRung::expanded("full", MotifSet::t_and_s()),
                MotifRung::expanded("triangular", MotifSet::triangular()),
                MotifRung::unexpanded("unexpanded"),
            ],
        }
    }

    /// The rungs, quality-descending.
    pub fn rungs(&self) -> &[MotifRung] {
        &self.rungs
    }

    /// Number of rungs (≥ 1).
    pub fn len(&self) -> usize {
        self.rungs.len()
    }

    /// Always false — construction guarantees at least one rung.
    pub fn is_empty(&self) -> bool {
        self.rungs.is_empty()
    }

    /// The rung at `index`, if in range.
    pub fn rung(&self, index: usize) -> Option<&MotifRung> {
        self.rungs.get(index)
    }

    /// The stable rung names, in ladder order.
    pub fn names(&self) -> Vec<&str> {
        self.rungs.iter().map(|r| r.name().as_ref()).collect()
    }
}

impl Default for MotifLadder {
    fn default() -> Self {
        MotifLadder::default_sqe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbgraph::GraphBuilder;

    /// Paper's Figure 4a example: "cable car" ↔ "funicular", both in the
    /// same categories ⇒ triangular expansion. Pinned against the exact
    /// output the hand-written `Triangular` motif produced before the
    /// generalized engine replaced it.
    #[test]
    fn triangular_spec_fires_on_figure_4a() {
        let mut b = GraphBuilder::new();
        let cable = b.add_article("cable car");
        let funi = b.add_article("funicular");
        let rail = b.add_category("rail transport");
        let mountain = b.add_category("mountain transport");
        b.add_mutual_link(cable, funi);
        b.add_membership(cable, rail);
        b.add_membership(funi, rail);
        b.add_membership(cable, mountain);
        b.add_membership(funi, mountain);
        let g = b.build();
        let exp = MotifSpec::triangular().expansions(&g, cable);
        assert_eq!(exp, vec![(funi, 2)], "two shared categories, two triangles");
    }

    /// Paper's Figure 4b example: "graffiti" ↔ "Banksy", one category
    /// inside the other ⇒ square expansion (symmetric), pinned against
    /// the legacy `Square` output.
    #[test]
    fn square_spec_fires_on_figure_4b() {
        let mut b = GraphBuilder::new();
        let graffiti = b.add_article("graffiti");
        let banksy = b.add_article("banksy");
        let street_art = b.add_category("street art");
        let artists = b.add_category("graffiti artists");
        b.add_mutual_link(graffiti, banksy);
        b.add_membership(graffiti, street_art);
        b.add_membership(banksy, artists);
        b.add_subcategory(artists, street_art);
        let g = b.build();
        assert_eq!(
            MotifSpec::square().expansions(&g, graffiti),
            vec![(banksy, 1)]
        );
        assert_eq!(
            MotifSpec::square().expansions(&g, banksy),
            vec![(graffiti, 1)]
        );
    }

    #[test]
    fn triangular_spec_requires_double_link_and_superset() {
        let mut b = GraphBuilder::new();
        let a = b.add_article("a");
        let x = b.add_article("x");
        let y = b.add_article("y");
        let c1 = b.add_category("c1");
        let c2 = b.add_category("c2");
        b.add_article_link(a, x); // one-way only
        b.add_membership(a, c1);
        b.add_membership(x, c1);
        b.add_mutual_link(a, y);
        b.add_membership(y, c2); // not a superset of {c1}
        let g = b.build();
        assert!(MotifSpec::triangular().expansions(&g, a).is_empty());
    }

    #[test]
    fn uncategorized_query_node_yields_nothing() {
        let mut b = GraphBuilder::new();
        let a = b.add_article("a");
        let x = b.add_article("x");
        b.add_mutual_link(a, x);
        let g = b.build();
        assert!(MotifSpec::triangular().expansions(&g, a).is_empty());
        assert!(MotifSpec::square().expansions(&g, a).is_empty());
    }

    #[test]
    fn square_spec_counts_each_category_pair() {
        let mut b = GraphBuilder::new();
        let a = b.add_article("a");
        let x = b.add_article("x");
        let c1 = b.add_category("c1");
        let c2 = b.add_category("c2");
        let d1 = b.add_category("d1");
        let d2 = b.add_category("d2");
        b.add_mutual_link(a, x);
        b.add_membership(a, c1);
        b.add_membership(a, d1);
        b.add_membership(x, c2);
        b.add_membership(x, d2);
        b.add_subcategory(c2, c1);
        b.add_subcategory(d1, d2);
        let g = b.build();
        assert_eq!(MotifSpec::square().expansions(&g, a), vec![(x, 2)]);
    }

    #[test]
    fn unit_weight_flattens_multiplicities() {
        let mut b = GraphBuilder::new();
        let cable = b.add_article("cable car");
        let funi = b.add_article("funicular");
        let rail = b.add_category("rail");
        let mountain = b.add_category("mountain");
        b.add_mutual_link(cable, funi);
        for c in [rail, mountain] {
            b.add_membership(cable, c);
            b.add_membership(funi, c);
        }
        let g = b.build();
        let unit = MotifSpec {
            weight: WeightRule::Unit,
            ..MotifSpec::triangular()
        };
        assert_eq!(unit.expansions(&g, cable), vec![(funi, 1)]);
        assert_eq!(
            MotifSpec::triangular().expansions(&g, cable),
            vec![(funi, 2)]
        );
    }

    /// A category chain c_q → mid → c_x: the categories of the linked
    /// pair are two steps apart, closing a 5-cycle — invisible to the
    /// square (distance-1) scope.
    #[test]
    fn cousin_scope_finds_depth_two_category_pairs() {
        let mut b = GraphBuilder::new();
        let q = b.add_article("q");
        let x = b.add_article("x");
        let cq = b.add_category("cq");
        let mid = b.add_category("mid");
        let cx = b.add_category("cx");
        b.add_mutual_link(q, x);
        b.add_membership(q, cq);
        b.add_membership(x, cx);
        b.add_subcategory(cq, mid);
        b.add_subcategory(cx, mid);
        let g = b.build();
        let cousin = MotifSpec {
            link: LinkCondition::Mutual,
            category: CategoryScope::Cousin,
            weight: WeightRule::Counted,
        };
        assert_eq!(cousin.expansions(&g, q), vec![(x, 1)]);
        assert_eq!(
            cousin.expansions(&g, x),
            vec![(q, 1)],
            "cousin scope is symmetric"
        );
        assert!(
            MotifSpec::square().expansions(&g, q).is_empty(),
            "not adjacent"
        );
    }

    #[test]
    fn cousin_scope_excludes_adjacent_pairs() {
        let mut b = GraphBuilder::new();
        let q = b.add_article("q");
        let x = b.add_article("x");
        let cq = b.add_category("cq");
        let cx = b.add_category("cx");
        b.add_mutual_link(q, x);
        b.add_membership(q, cq);
        b.add_membership(x, cx);
        b.add_subcategory(cx, cq);
        let g = b.build();
        let cousin = MotifSpec {
            link: LinkCondition::Mutual,
            category: CategoryScope::Cousin,
            weight: WeightRule::Counted,
        };
        assert!(
            cousin.expansions(&g, q).is_empty(),
            "distance-1 pairs are squares"
        );
    }

    #[test]
    fn spec_space_is_complete_and_indexed() {
        let all = MotifSpec::all();
        assert_eq!(all.len(), 30);
        assert!(all.contains(&MotifSpec::triangular()));
        assert!(all.contains(&MotifSpec::square()));
        for (i, spec) in all.iter().enumerate() {
            assert_eq!(spec.index(), i, "enumeration order is the index order");
            assert_eq!(MotifSpec::from_index(i), Some(*spec));
            assert_eq!(
                MotifSpec::from_name(&spec.name()),
                Some(*spec),
                "{}",
                spec.name()
            );
        }
        assert_eq!(MotifSpec::from_index(all.len()), None);
        let names: std::collections::HashSet<String> = all.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 30, "names must be distinct");
    }

    #[test]
    fn cycle_lengths_cover_two_through_five() {
        let lengths: std::collections::BTreeSet<usize> =
            MotifSpec::all().iter().map(|s| s.cycle_length()).collect();
        assert_eq!(lengths.into_iter().collect::<Vec<_>>(), vec![2, 3, 4, 5]);
        assert_eq!(MotifSpec::triangular().cycle_length(), 3);
        assert_eq!(MotifSpec::square().cycle_length(), 4);
    }

    #[test]
    fn motif_sets_canonicalize_order_and_duplicates() {
        let forward = MotifSet::new(vec![MotifSpec::triangular(), MotifSpec::square()]);
        let backward = MotifSet::new(vec![
            MotifSpec::square(),
            MotifSpec::triangular(),
            MotifSpec::square(),
        ]);
        assert_eq!(forward, backward);
        assert_eq!(forward.fingerprint(), backward.fingerprint());
        assert_eq!(forward, MotifSet::t_and_s());
        assert_eq!(forward.len(), 2);
    }

    #[test]
    fn fingerprints_are_distinct_and_reversible() {
        let t = MotifSet::triangular();
        let s = MotifSet::square();
        let ts = MotifSet::t_and_s();
        let none = MotifSet::empty();
        let prints = [
            t.fingerprint(),
            s.fingerprint(),
            ts.fingerprint(),
            none.fingerprint(),
        ];
        let distinct: std::collections::HashSet<_> = prints.iter().collect();
        assert_eq!(distinct.len(), 4);
        for set in [t, s, ts, none] {
            assert_eq!(MotifSet::from_fingerprint(set.fingerprint()), set);
            let rendered = set.fingerprint().to_string();
            assert_eq!(MotifFingerprint::parse(&rendered), Some(set.fingerprint()));
        }
    }

    #[test]
    fn set_names_are_stable() {
        assert_eq!(MotifSet::empty().name(), "none");
        assert_eq!(MotifSet::triangular().name(), "mutual+superset");
        assert_eq!(
            MotifSet::t_and_s().name(),
            "mutual+superset&mutual+adjacent"
        );
    }

    #[test]
    fn set_specs_run_every_traversal() {
        let mut b = GraphBuilder::new();
        let q = b.add_article("q");
        let x = b.add_article("x");
        let c = b.add_category("c");
        let sub = b.add_category("sub");
        b.add_membership(q, c);
        b.add_membership(x, c);
        b.add_membership(x, sub);
        b.add_subcategory(sub, c);
        b.add_mutual_link(q, x);
        let g = b.build();
        let set = MotifSet::t_and_s();
        assert_eq!(set.specs().len(), 2);
        let mut out = Vec::new();
        for spec in set.specs() {
            spec.expansions_into(&g, q, &mut out);
        }
        // One triangle (shared c) and one square (sub inside c).
        assert_eq!(out, vec![(x, 1), (x, 1)]);
    }

    #[test]
    fn triangular_expansion_may_have_extra_categories() {
        let mut b = GraphBuilder::new();
        let a = b.add_article("a");
        let x = b.add_article("x");
        let c1 = b.add_category("c1");
        let c2 = b.add_category("c2");
        b.add_mutual_link(a, x);
        b.add_membership(a, c1);
        b.add_membership(x, c1);
        b.add_membership(x, c2);
        let g = b.build();
        assert_eq!(MotifSpec::triangular().expansions(&g, a), vec![(x, 1)]);
    }

    #[test]
    fn triangular_superset_is_directional() {
        let mut b = GraphBuilder::new();
        let a = b.add_article("a");
        let x = b.add_article("x");
        let c1 = b.add_category("c1");
        let c2 = b.add_category("c2");
        b.add_mutual_link(a, x);
        b.add_membership(a, c1);
        b.add_membership(a, c2);
        b.add_membership(x, c1); // missing c2 ⇒ not a superset
        let g = b.build();
        assert!(MotifSpec::triangular().expansions(&g, a).is_empty());
        // From x's perspective a IS a superset partner.
        assert_eq!(MotifSpec::triangular().expansions(&g, x), vec![(a, 1)]);
    }

    #[test]
    fn square_requires_category_adjacency() {
        let mut b = GraphBuilder::new();
        let a = b.add_article("a");
        let x = b.add_article("x");
        let c1 = b.add_category("c1");
        let c2 = b.add_category("c2");
        b.add_mutual_link(a, x);
        b.add_membership(a, c1);
        b.add_membership(x, c2);
        // c1 and c2 unrelated ⇒ no square.
        let g = b.build();
        assert!(MotifSpec::square().expansions(&g, a).is_empty());
    }

    #[test]
    fn square_ignores_shared_identical_category() {
        // A shared category is the *triangular* pattern, not a square:
        // the square needs two distinct, hierarchy-adjacent categories.
        let mut b = GraphBuilder::new();
        let a = b.add_article("a");
        let x = b.add_article("x");
        let c = b.add_category("c");
        b.add_mutual_link(a, x);
        b.add_membership(a, c);
        b.add_membership(x, c);
        let g = b.build();
        assert!(MotifSpec::square().expansions(&g, a).is_empty());
        assert_eq!(MotifSpec::triangular().expansions(&g, a), vec![(x, 1)]);
    }

    #[test]
    fn expansions_into_appends_without_clearing() {
        let mut b = GraphBuilder::new();
        let a = b.add_article("a");
        let x = b.add_article("x");
        let c = b.add_category("c");
        b.add_mutual_link(a, x);
        b.add_membership(a, c);
        b.add_membership(x, c);
        let g = b.build();
        let sentinel = (ArticleId::new(99), 7);
        let mut out = vec![sentinel];
        MotifSpec::triangular().expansions_into(&g, a, &mut out);
        assert_eq!(out, vec![sentinel, (x, 1)]);
    }

    #[test]
    fn default_ladder_matches_the_paper() {
        let ladder = MotifLadder::default_sqe();
        assert_eq!(ladder.len(), 3);
        assert_eq!(ladder.names(), vec!["full", "triangular", "unexpanded"]);
        assert_eq!(
            ladder.rung(0).and_then(MotifRung::motifs),
            Some(&MotifSet::t_and_s())
        );
        assert_eq!(
            ladder.rung(1).and_then(MotifRung::motifs),
            Some(&MotifSet::triangular())
        );
        assert_eq!(ladder.rung(2).and_then(MotifRung::motifs), None);
        assert_eq!(ladder.rung(3), None);
        assert!(!ladder.is_empty());
    }

    #[test]
    fn empty_ladder_falls_back_to_default() {
        assert_eq!(MotifLadder::new(Vec::new()), MotifLadder::default_sqe());
        assert_eq!(MotifLadder::default(), MotifLadder::default_sqe());
    }
}
