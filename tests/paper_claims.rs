//! The paper's qualitative claims, asserted end-to-end on the small
//! preset. Each test names the claim it guards; the full-scale versions
//! are the tables in EXPERIMENTS.md.

use ireval::precision::mean_precision;
use ireval::{Qrels, Run};
use searchlite::{Analyzer, Index, IndexBuilder, QlParams};
use sqe::{MotifSet, SqeConfig, SqePipeline};
use synthwiki::{Dataset, TestBed, TestBedConfig};

struct World {
    bed: TestBed,
    indexes: Vec<Index>,
}

impl World {
    fn new() -> Self {
        let bed = TestBed::generate(&TestBedConfig::small());
        let indexes = bed
            .collections
            .iter()
            .map(|coll| {
                let mut b = IndexBuilder::new(Analyzer::english());
                for d in &coll.docs {
                    b.add_document(&d.id, &d.text)
                        .expect("generated ids are unique");
                }
                b.build()
            })
            .collect();
        World { bed, indexes }
    }

    fn qrels(&self, dataset: &Dataset) -> Qrels {
        let mut q = Qrels::new();
        for spec in &dataset.queries {
            q.add_query(&spec.id);
            for d in &dataset.relevant[&spec.id] {
                q.add_judgment(&spec.id, d);
            }
        }
        q
    }

    fn pipeline<'a>(&'a self, dataset: &Dataset) -> SqePipeline<'a> {
        SqePipeline::from_index(
            &self.bed.kb.graph,
            &self.indexes[dataset.collection],
            SqeConfig {
                ql: QlParams { mu: 15.0 },
                ..SqeConfig::default()
            },
        )
    }

    fn run(&self, dataset: &Dataset, name: &str, motifs: &MotifSet) -> Run {
        let p = self.pipeline(dataset);
        let mut run = Run::new(name);
        for q in &dataset.queries {
            let nodes: Vec<_> = q
                .targets
                .iter()
                .map(|&e| self.bed.kb.article_of[e])
                .collect();
            let (hits, _) = p.rank_sqe(&q.text, &nodes, motifs);
            run.set_ranking(&q.id, p.external_ids(&hits));
        }
        run
    }
}

/// Section 2.2: "the triangular motif allows achieving better precision in
/// small tops … the square motif allows achieving precision in large tops"
/// — asserted as: T&S/S beat T at depth (the crossover direction).
#[test]
fn square_motifs_win_at_depth() {
    let w = World::new();
    let ds = w.bed.dataset("imageclef");
    let qrels = w.qrels(ds);
    let t = w.run(ds, "T", &MotifSet::triangular());
    let s = w.run(ds, "S", &MotifSet::square());
    let deep_t = mean_precision(&t, &qrels, 1000);
    let deep_s = mean_precision(&s, &qrels, 1000);
    assert!(
        deep_s > deep_t,
        "square must out-recall triangular at depth: S {deep_s:.4} vs T {deep_t:.4}"
    );
}

/// Section 4.1: the triangular motif introduces far fewer expansion
/// features than the square motif (paper: 0.76 vs ~20).
#[test]
fn triangular_features_are_scarce() {
    let w = World::new();
    let ds = w.bed.dataset("imageclef");
    let p = w.pipeline(ds);
    let (mut t_total, mut s_total) = (0usize, 0usize);
    for q in &ds.queries {
        let nodes: Vec<_> = q.targets.iter().map(|&e| w.bed.kb.article_of[e]).collect();
        t_total += p
            .build_query_graph(&nodes, &MotifSet::triangular())
            .num_expansions();
        s_total += p
            .build_query_graph(&nodes, &MotifSet::square())
            .num_expansions();
    }
    assert!(
        s_total >= t_total * 3,
        "square ({s_total}) must dwarf triangular ({t_total})"
    );
    assert!(t_total > 0, "triangular must fire at all");
}

/// Section 4.2 / Figure 6: manual entity selection upper-bounds automatic
/// linking.
#[test]
fn manual_selection_bounds_automatic() {
    let w = World::new();
    let ds = w.bed.dataset("imageclef");
    let qrels = w.qrels(ds);
    let p = w.pipeline(ds);
    let mut dict = entitylink::Dictionary::new();
    dict.extend(w.bed.kb.linker_entries(&w.bed.space));
    let linker = entitylink::EntityLinker::new(dict, entitylink::LinkerConfig::default());

    let mut manual = Run::new("M");
    let mut auto = Run::new("A");
    for q in &ds.queries {
        let m_nodes: Vec<_> = q.targets.iter().map(|&e| w.bed.kb.article_of[e]).collect();
        let a_nodes: Vec<_> = linker
            .link(&q.text)
            .into_iter()
            .take(3)
            .map(|l| l.article)
            .collect();
        manual.set_ranking(&q.id, p.rank_sqe_c(&q.text, &m_nodes));
        auto.set_ranking(&q.id, p.rank_sqe_c(&q.text, &a_nodes));
    }
    // Averaged over several cutoffs, manual must not lose to automatic.
    let avg = |run: &Run| -> f64 {
        [5usize, 10, 20, 100]
            .iter()
            .map(|&k| mean_precision(run, &qrels, k))
            .sum::<f64>()
    };
    assert!(
        avg(&manual) + 1e-9 >= avg(&auto),
        "manual {m:.3} must be ≥ automatic {a:.3}",
        m = avg(&manual),
        a = avg(&auto)
    );
}

/// Section 4.4: query-graph construction is fast — milliseconds per query
/// set even in a debug-friendly test environment.
#[test]
fn expansion_is_subsecond() {
    let w = World::new();
    let ds = w.bed.dataset("imageclef");
    let p = w.pipeline(ds);
    let start = std::time::Instant::now();
    for q in &ds.queries {
        let nodes: Vec<_> = q.targets.iter().map(|&e| w.bed.kb.article_of[e]).collect();
        let _ = p.build_query_graph(&nodes, &MotifSet::t_and_s());
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_millis() < 1000,
        "expansion over the whole query set took {elapsed:?}"
    );
}

/// Table 4's ordering: building T&S costs at least as much as T alone
/// (asserted on work, not wall-clock: expansion counts).
#[test]
fn union_config_does_more_work() {
    let w = World::new();
    let ds = w.bed.dataset("imageclef");
    let p = w.pipeline(ds);
    for q in ds.queries.iter().take(6) {
        let nodes: Vec<_> = q.targets.iter().map(|&e| w.bed.kb.article_of[e]).collect();
        let t = p
            .build_query_graph(&nodes, &MotifSet::triangular())
            .num_expansions();
        let ts = p
            .build_query_graph(&nodes, &MotifSet::t_and_s())
            .num_expansions();
        assert!(ts >= t);
    }
}
