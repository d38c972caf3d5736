//! Property wall for the segmented architecture's core guarantee: *any*
//! partition of a collection into contiguous segments produces run files
//! byte-identical to the monolithic index — for every dataset and every
//! motif configuration (SQE_T, SQE_S, SQE_T&S, SQE_C).
//!
//! Byte-identity holds because the [`searchlite::Searcher`] merges
//! corpus-wide statistics as exact integers before any floating-point
//! scoring happens; there is no per-segment score that gets combined
//! after the fact.
//!
//! The second wall extends the guarantee across *shards*: any hash
//! routing of the collection over 1–8 shards (each shard its own
//! segmented index) served through [`sqe::ShardedService`]'s
//! scatter-gather must reproduce the same run files, because global
//! corpus statistics are gathered as exact integer sums before any
//! shard scores a document.

use std::sync::OnceLock;

use kbgraph::ArticleId;
use proptest::prelude::*;
use searchlite::{Analyzer, Index, IndexBuilder, QlParams, Searcher, Segment, ShardRouter};
use sqe::{MotifSet, ServeConfig, ShardedService, SqeConfig, SqePipeline};
use synthwiki::{TestBed, TestBedConfig};

const DATASETS: [&str; 3] = ["imageclef", "chic2012", "chic2013"];
const NUM_CONFIGS: usize = 4;

/// The motif configuration under test: a named [`MotifSet`] for the
/// plain SQE variants, or `None` for SQE_C (rank_sqe_c fixes its own
/// stages).
fn motif_config(cfg_idx: usize) -> (&'static str, Option<MotifSet>) {
    match cfg_idx {
        0 => ("SQE_T", Some(MotifSet::triangular())),
        1 => ("SQE_S", Some(MotifSet::square())),
        2 => ("SQE_TS", Some(MotifSet::t_and_s())),
        _ => ("SQE_C", None),
    }
}

fn config() -> SqeConfig {
    SqeConfig {
        ql: QlParams { mu: 15.0 },
        ..SqeConfig::default()
    }
}

struct World {
    bed: TestBed,
    indexes: Vec<Index>,
    /// `references[ds][cfg]` = the monolithic run file for that pair.
    references: Vec<Vec<String>>,
    /// `batches[ds]` = (query text, linked nodes) for every query.
    batches: Vec<Vec<(String, Vec<ArticleId>)>>,
}

fn rank_ids(
    pipeline: &SqePipeline<'_>,
    batch: &[(String, Vec<ArticleId>)],
    cfg_idx: usize,
) -> Vec<Vec<String>> {
    let (_, motifs) = motif_config(cfg_idx);
    batch
        .iter()
        .map(|(text, nodes)| match &motifs {
            None => pipeline.rank_sqe_c(text, nodes),
            Some(motifs) => pipeline.external_ids(&pipeline.rank_sqe(text, nodes, motifs).0),
        })
        .collect()
}

fn run_file(bed: &TestBed, ds_idx: usize, cfg_idx: usize, rankings: &[Vec<String>]) -> String {
    let dataset = bed.dataset(DATASETS[ds_idx]);
    let mut run = ireval::Run::new(motif_config(cfg_idx).0);
    for (q, ids) in dataset.queries.iter().zip(rankings) {
        run.set_ranking(&q.id, ids.clone());
    }
    ireval::trec::write_run(&run)
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let bed = TestBed::generate(&TestBedConfig::small());
        let indexes: Vec<Index> = bed
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
        let batches: Vec<Vec<(String, Vec<ArticleId>)>> = DATASETS
            .iter()
            .map(|name| {
                bed.dataset(name)
                    .queries
                    .iter()
                    .map(|q| {
                        let nodes = q.targets.iter().map(|&e| bed.kb.article_of[e]).collect();
                        (q.text.clone(), nodes)
                    })
                    .collect()
            })
            .collect();
        let references: Vec<Vec<String>> = DATASETS
            .iter()
            .enumerate()
            .map(|(ds_idx, name)| {
                let dataset = bed.dataset(name);
                let pipeline =
                    SqePipeline::from_index(&bed.kb.graph, &indexes[dataset.collection], config());
                (0..NUM_CONFIGS)
                    .map(|cfg_idx| {
                        let ids = rank_ids(&pipeline, &batches[ds_idx], cfg_idx);
                        run_file(&bed, ds_idx, cfg_idx, &ids)
                    })
                    .collect()
            })
            .collect();
        World {
            bed,
            indexes,
            references,
            batches,
        }
    })
}

/// Splits a collection at the (deduplicated, sorted) cut positions and
/// indexes each non-empty contiguous chunk as its own segment.
fn partitioned_searcher(w: &World, ds_idx: usize, raw_cuts: &[usize]) -> Searcher {
    let dataset = w.bed.dataset(DATASETS[ds_idx]);
    let coll = w.bed.collection_of(dataset);
    let n = coll.docs.len();
    let mut cuts: Vec<usize> = raw_cuts.iter().map(|c| c % n).collect();
    cuts.push(0);
    cuts.push(n);
    cuts.sort_unstable();
    cuts.dedup();

    let analyzer = w.indexes[dataset.collection].analyzer().clone();
    let mut segments = Vec::new();
    for (seg_id, bounds) in cuts.windows(2).enumerate() {
        let (start, end) = (bounds[0], bounds[1]);
        if start == end {
            continue;
        }
        let mut b = IndexBuilder::new(analyzer.clone());
        for d in &coll.docs[start..end] {
            b.add_document(&d.id, &d.text)
                .expect("generated ids are unique");
        }
        segments.push(std::sync::Arc::new(Segment::new(seg_id as u64, b.build())));
    }
    Searcher::new(analyzer, segments, 0)
}

/// Builds the dataset's collection as a sharded service under the given
/// routing (shard count + salt), sealing every shard once at the end.
fn sharded_service<'a>(
    w: &'a World,
    ds_idx: usize,
    shards: usize,
    salt: u64,
) -> ShardedService<'a> {
    let dataset = w.bed.dataset(DATASETS[ds_idx]);
    let coll = w.bed.collection_of(dataset);
    let analyzer = w.indexes[dataset.collection].analyzer().clone();
    let service = ShardedService::new(
        &w.bed.kb.graph,
        analyzer,
        ShardRouter::with_salt(shards, salt),
        config(),
        ServeConfig {
            workers: 1,
            cache_capacity: 256,
            ..ServeConfig::default()
        },
    );
    for d in &coll.docs {
        service
            .add_document(&d.id, &d.text)
            .expect("generated ids are unique");
    }
    service.seal_all();
    service
}

fn rank_ids_sharded(
    service: &ShardedService<'_>,
    batch: &[(String, Vec<ArticleId>)],
    cfg_idx: usize,
) -> Vec<Vec<String>> {
    let (_, motifs) = motif_config(cfg_idx);
    batch
        .iter()
        .map(|(text, nodes)| match &motifs {
            None => service.rank_sqe_c(text, nodes),
            Some(motifs) => service.external_ids(&service.rank_sqe(text, nodes, motifs)),
        })
        .collect()
}

proptest! {
    /// Any contiguous partition into up to ~6 segments reproduces the
    /// monolithic run file byte for byte, on a random (dataset, motif
    /// config) pair each case.
    #[test]
    fn any_partition_reproduces_monolithic_run_files(
        ds_idx in 0usize..3,
        cfg_idx in 0usize..4,
        raw_cuts in prop::collection::vec(0usize..1 << 24, 0..6),
    ) {
        let w = world();
        let searcher = partitioned_searcher(w, ds_idx, &raw_cuts);
        let pipeline = SqePipeline::new(&w.bed.kb.graph, searcher, config());
        let ids = rank_ids(&pipeline, &w.batches[ds_idx], cfg_idx);
        let got = run_file(&w.bed, ds_idx, cfg_idx, &ids);
        prop_assert_eq!(
            &got,
            &w.references[ds_idx][cfg_idx],
            "{} segments over {} diverged from the monolithic {} run",
            pipeline.searcher().num_segments(),
            DATASETS[ds_idx],
            motif_config(cfg_idx).0
        );
    }
}

proptest! {
    /// Any hash routing over 1–8 shards reproduces the monolithic run
    /// file byte for byte, on a random (dataset, motif config, shard
    /// count, salt) tuple each case. The salt permutes the routing, so
    /// every case exercises a different document-to-shard assignment.
    #[test]
    fn any_shard_routing_reproduces_monolithic_run_files(
        ds_idx in 0usize..3,
        cfg_idx in 0usize..4,
        shards in 1usize..=8,
        salt in 0u64..u64::MAX,
    ) {
        let w = world();
        let service = sharded_service(w, ds_idx, shards, salt);
        let ids = rank_ids_sharded(&service, &w.batches[ds_idx], cfg_idx);
        let got = run_file(&w.bed, ds_idx, cfg_idx, &ids);
        prop_assert_eq!(
            &got,
            &w.references[ds_idx][cfg_idx],
            "{} shards (salt {:#x}) over {} diverged from the monolithic {} run",
            shards,
            salt,
            DATASETS[ds_idx],
            motif_config(cfg_idx).0
        );
    }
}
