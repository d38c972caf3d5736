//! Seeded inputs: the request list, its perturbation variants and the
//! linker over the synthwiki bed.
//!
//! The bed itself (KB, collections, query sets) is generated at its
//! preset seeds in every run: it is the data the system serves, and a
//! re-seeded bed moves P@10 and the cost per query by more than any
//! bound a run-to-run comparison could use (see README.md). The
//! workload seed reaches every generator of the traffic instead: the
//! perturbation variants, the request order, the arrival schedule and
//! the shard routing salt.

use entitylink::{perturb_query, Dictionary, EntityLinker, LinkerConfig, PerturbationModel};
use kbgraph::ArticleId;
use rustc_hash::FxHashSet;
use searchlite::QlParams;
use sqe::{ExpandConfig, SqeConfig};
use synthwiki::kb::SynthKb;
use synthwiki::{ConceptSpace, Dataset};

/// Perturbed variants per query, the original included.
pub const VARIANTS: u64 = 4;

/// Linked entities kept per query, as the experiment harness does.
pub const MAX_NODES: usize = 3;

/// SplitMix64: the benchmark's own seeded stream (schedules, orders).
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// A sub-seed of `seed` for the generator named by `tag`.
pub fn derive(seed: u64, tag: u64) -> u64 {
    SplitMix::new(seed ^ tag.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// The paper's pipeline settings, as the experiment harness uses them.
pub fn sqe_config() -> SqeConfig {
    SqeConfig {
        expand: ExpandConfig::default(),
        ql: QlParams { mu: 15.0 },
        depth: 1000,
    }
}

/// Builds the entity linker over the KB titles and aliases.
pub fn build_linker(kb: &SynthKb, space: &ConceptSpace) -> EntityLinker {
    let mut dict = Dictionary::new();
    dict.extend(kb.linker_entries(space));
    EntityLinker::new(dict, LinkerConfig::default())
}

/// The linked KB nodes of `text`.
pub fn link_nodes(linker: &EntityLinker, text: &str) -> Vec<ArticleId> {
    linker
        .link(text)
        .into_iter()
        .take(MAX_NODES)
        .map(|l| l.article)
        .collect()
}

/// One distinct request: a query text variant against one collection.
#[derive(Clone)]
pub struct Request {
    /// Collection index (`0` imageclef, `1` chic).
    pub collection: usize,
    /// Query id in its dataset's qrels.
    pub qid: String,
    /// Dataset index in the bed's dataset list.
    pub dataset: usize,
    /// Perturbation variant index (0: the original text).
    pub variant: u64,
    /// The (possibly perturbed) query text.
    pub text: String,
}

/// Every query of every dataset in `VARIANTS` seeded variants: the
/// original text plus perturbations whose variant indices derive from
/// `seed`.
pub fn requests(datasets: &[Dataset], seed: u64) -> Vec<Request> {
    let model = PerturbationModel::light();
    let base = derive(seed, 7) % (1 << 40);
    let mut out = Vec::new();
    for (di, ds) in datasets.iter().enumerate() {
        for q in &ds.queries {
            for v in 0..VARIANTS {
                let variant = if v == 0 { 0 } else { base * VARIANTS + v };
                out.push(Request {
                    collection: ds.collection,
                    qid: q.id.clone(),
                    dataset: di,
                    variant,
                    text: perturb_query(&q.text, variant, &model),
                });
            }
        }
    }
    out
}

/// Mean P@10 over the qrels, accumulated from the answers to the
/// original query texts only, so it does not depend on the seed.
#[derive(Default)]
pub struct PAt10 {
    values: Vec<f64>,
}

impl PAt10 {
    pub fn add(&mut self, datasets: &[Dataset], req: &Request, ranking: &[String]) {
        if req.variant != 0 {
            return;
        }
        let empty = FxHashSet::default();
        let relevant = datasets
            .get(req.dataset)
            .and_then(|d| d.relevant.get(&req.qid))
            .unwrap_or(&empty);
        self.values
            .push(ireval::precision::precision_at(ranking, relevant, 10));
    }

    /// The mean, summed in sorted order so that it is the same to the
    /// last digit whatever order the answers came in.
    pub fn mean(&self) -> f64 {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }
}
