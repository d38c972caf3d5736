//! The golden digest: pins the exact output of the serving paths on the
//! small bed to one constant.
//!
//! Every other wall compares one optimized path with another, so a
//! change that moved all of them in lockstep (a new scoring kernel, say)
//! would pass them all. This test does not compare paths: it hashes the
//! TREC run lines and every hit's `score.to_bits()` for `QL_Q`, `SQE_T`,
//! `SQE_S`, `SQE_T&S` and `SQE_C` on all three datasets, through
//! `QueryService` and through a 3-shard `ShardedService`, and requires
//! the FNV-1a digest to equal a constant recorded from a known-good
//! build. A ranking change of any kind, down to the last bit of one
//! score, changes the digest.

use ireval::trec;
use ireval::Run;
use kbgraph::ArticleId;
use searchlite::{Analyzer, IndexBuilder, QlParams, SearchHit, ShardRouter};
use sqe::{MotifSet, QueryService, ServeConfig, ShardedService, SqeConfig};
use synthwiki::{Dataset, TestBed, TestBedConfig};

const DATASETS: [&str; 3] = ["imageclef", "chic2012", "chic2013"];

/// The digest recorded from the seed's term-at-a-time scorer. Both
/// services must reproduce it.
const GOLDEN: u64 = 0xeda5_e157_02d8_2f0f;

/// Index of the default ladder's unexpanded rung (`QL_Q`).
const QL_Q_RUNG: usize = 2;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn config() -> SqeConfig {
    SqeConfig {
        ql: QlParams { mu: 15.0 },
        ..SqeConfig::default()
    }
}

fn batch_of(bed: &TestBed, dataset: &Dataset) -> Vec<(String, Vec<ArticleId>)> {
    dataset
        .queries
        .iter()
        .map(|q| {
            let nodes = q.targets.iter().map(|&e| bed.kb.article_of[e]).collect();
            (q.text.clone(), nodes)
        })
        .collect()
}

fn run_file(name: &str, dataset: &Dataset, rankings: &[Vec<String>]) -> String {
    let mut run = Run::new(name);
    for (q, ids) in dataset.queries.iter().zip(rankings) {
        run.set_ranking(&q.id, ids.clone());
    }
    trec::write_run(&run)
}

/// The two services behind one interface: ranked hits with scores for
/// one motif set (or the unexpanded rung), external ids, and `SQE_C`.
trait Served {
    fn hits(&self, text: &str, nodes: &[ArticleId], motifs: Option<&MotifSet>) -> Vec<SearchHit>;
    fn ids(&self, hits: &[SearchHit]) -> Vec<String>;
    fn sqe_c(&self, text: &str, nodes: &[ArticleId]) -> Vec<String>;
}

impl Served for QueryService<'_> {
    fn hits(&self, text: &str, nodes: &[ArticleId], motifs: Option<&MotifSet>) -> Vec<SearchHit> {
        match motifs {
            Some(m) => self.rank_sqe(text, nodes, m),
            None => self.serve_at_rung(QL_Q_RUNG, text, nodes),
        }
    }
    fn ids(&self, hits: &[SearchHit]) -> Vec<String> {
        self.external_ids(hits)
    }
    fn sqe_c(&self, text: &str, nodes: &[ArticleId]) -> Vec<String> {
        self.rank_sqe_c(text, nodes)
    }
}

impl Served for ShardedService<'_> {
    fn hits(&self, text: &str, nodes: &[ArticleId], motifs: Option<&MotifSet>) -> Vec<SearchHit> {
        match motifs {
            Some(m) => self.rank_sqe(text, nodes, m),
            None => self.serve_at_rung(QL_Q_RUNG, text, nodes),
        }
    }
    fn ids(&self, hits: &[SearchHit]) -> Vec<String> {
        self.external_ids(hits)
    }
    fn sqe_c(&self, text: &str, nodes: &[ArticleId]) -> Vec<String> {
        self.rank_sqe_c(text, nodes)
    }
}

/// Folds one dataset's five runs into `h`: run lines, then the score
/// bits of every hit in rank order.
fn digest_dataset(
    h: &mut Fnv,
    service: &dyn Served,
    dataset: &Dataset,
    batch: &[(String, Vec<ArticleId>)],
) {
    let configs = [
        ("QL_Q", None),
        ("SQE_T", Some(MotifSet::triangular())),
        ("SQE_S", Some(MotifSet::square())),
        ("SQE_TS", Some(MotifSet::t_and_s())),
    ];
    for (name, motifs) in &configs {
        let hits: Vec<Vec<SearchHit>> = batch
            .iter()
            .map(|(text, nodes)| service.hits(text, nodes, motifs.as_ref()))
            .collect();
        let ids: Vec<Vec<String>> = hits.iter().map(|h| service.ids(h)).collect();
        h.bytes(run_file(name, dataset, &ids).as_bytes());
        for hit in hits.iter().flatten() {
            h.bytes(&hit.score.to_bits().to_le_bytes());
        }
    }
    let combined: Vec<Vec<String>> = batch
        .iter()
        .map(|(text, nodes)| service.sqe_c(text, nodes))
        .collect();
    h.bytes(run_file("SQE_C", dataset, &combined).as_bytes());
}

#[test]
fn small_bed_runs_match_the_golden_digest() {
    let bed = TestBed::generate(&TestBedConfig::small());
    let mut single = Fnv::new();
    let mut sharded = Fnv::new();
    for ds_name in DATASETS {
        let dataset = bed.dataset(ds_name);
        let coll = bed.collection_of(dataset);
        let batch = batch_of(&bed, dataset);

        let mut b = IndexBuilder::new(Analyzer::english());
        for d in &coll.docs {
            b.add_document(&d.id, &d.text)
                .expect("generated ids are unique");
        }
        let service =
            QueryService::new(&bed.kb.graph, &b.build(), config(), ServeConfig::default());
        digest_dataset(&mut single, &service, dataset, &batch);

        let shards = ShardedService::new(
            &bed.kb.graph,
            Analyzer::english(),
            ShardRouter::new(3),
            config(),
            ServeConfig::default(),
        );
        for d in &coll.docs {
            shards
                .add_document(&d.id, &d.text)
                .expect("generated ids are unique");
        }
        shards.seal_all();
        digest_dataset(&mut sharded, &shards, dataset, &batch);
    }
    assert_eq!(
        single.0, sharded.0,
        "3 shards must reproduce the single-searcher bytes"
    );
    assert_eq!(
        single.0, GOLDEN,
        "digest {:#018x} differs from the golden constant",
        single.0
    );
}
