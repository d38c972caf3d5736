//! Persistence and interchange: everything the reproduction materializes
//! must round-trip losslessly — datasets through the JSONL/TREC
//! interchange writers, the graph and indexes through the binary snapshot
//! store.

use entitylink::Dictionary;
use searchlite::{Analyzer, Index, IndexBuilder, QlParams};
use sqe_store::{encode_snapshot, Snapshot, SnapshotContents};
use synthwiki::persist;
use synthwiki::{TestBed, TestBedConfig};

/// Encodes a one-collection snapshot (empty dictionary unless given).
fn snapshot_of(graph: &kbgraph::KbGraph, named: &[(&str, &Index)], dict: &Dictionary) -> Vec<u8> {
    let segment_slices: Vec<Vec<&Index>> = named.iter().map(|(_, i)| vec![*i]).collect();
    let collections: Vec<(&str, &[&Index])> = named
        .iter()
        .map(|(n, _)| *n)
        .zip(segment_slices.iter().map(Vec::as_slice))
        .collect();
    encode_snapshot(&SnapshotContents {
        graph,
        collections: &collections,
        dict,
    })
    .expect("world encodes to a snapshot")
}

#[test]
fn dataset_export_roundtrips() {
    let bed = TestBed::generate(&TestBedConfig::small());
    let ds = bed.dataset("chic2013");
    let coll = bed.collection_of(ds);

    let docs = persist::collection_from_jsonl(&persist::collection_to_jsonl(coll)).unwrap();
    assert_eq!(docs.len(), coll.docs.len());
    let queries = persist::queries_from_json(&persist::queries_to_json(ds)).unwrap();
    assert_eq!(queries.len(), ds.queries.len());

    // The exported qrels agree with ireval's parser.
    let qrels_text = persist::qrels_to_trec(ds);
    let qrels = ireval::trec::parse_qrels(&qrels_text).unwrap();
    for q in &ds.queries {
        let expected = ds.relevant[&q.id].len();
        if expected > 0 {
            assert_eq!(qrels.num_relevant(&q.id), expected, "query {}", q.id);
        }
    }
}

#[test]
fn index_persistence_preserves_full_retrieval() {
    let bed = TestBed::generate(&TestBedConfig::small());
    let coll = &bed.collections[0];
    let mut b = IndexBuilder::new(Analyzer::english());
    for d in coll.docs.iter().take(800) {
        b.add_document(&d.id, &d.text)
            .expect("generated ids are unique");
    }
    let index = b.build();

    // The index through the binary snapshot: decode must agree with the
    // original hit for hit.
    let bytes = snapshot_of(&bed.kb.graph, &[("interop", &index)], &Dictionary::new());
    let snap = Snapshot::from_bytes(&bytes).unwrap();
    let from_snap = snap.index("interop").unwrap();

    let s1 = searchlite::Searcher::from_index(index.clone());
    let s2 = searchlite::Searcher::from_index(from_snap.clone());
    let ds = bed.dataset("imageclef");
    for q in ds.queries.iter().take(5) {
        let query = searchlite::Query::parse_text(&q.text, index.analyzer());
        let h1 = searchlite::ql::rank(&s1, &query, QlParams { mu: 15.0 }, 50);
        let h2 = searchlite::ql::rank(&s2, &query, QlParams { mu: 15.0 }, 50);
        assert_eq!(h1, h2, "snapshot round-trip changed query {}", q.id);
    }
}

#[test]
fn graph_persistence_preserves_motifs() {
    use sqe::{Motif, MotifSpec};
    let bed = TestBed::generate(&TestBedConfig::small());
    let g = &bed.kb.graph;

    // The graph through the binary snapshot (a snapshot always
    // carries at least the graph and dictionary; indexes may be absent).
    let bytes = snapshot_of(g, &[], &Dictionary::new());
    let snap = Snapshot::from_bytes(&bytes).unwrap();

    let tri = MotifSpec::triangular();
    let sq = MotifSpec::square();
    for e in bed.space.entities.iter().step_by(61).take(12) {
        let a = bed.kb.article_of[e.id];
        assert_eq!(
            tri.expansions(g, a),
            tri.expansions(snap.graph(), a),
            "snapshot round-trip changed triangular expansions"
        );
        assert_eq!(
            sq.expansions(g, a),
            sq.expansions(snap.graph(), a),
            "snapshot round-trip changed square expansions"
        );
    }
}

/// The sharded cold-start contract: a sharded service restored from one
/// snapshot file per shard must produce byte-identical run files to the
/// monolithic pipeline over the same corpus.
#[test]
fn per_shard_snapshots_restore_an_identical_sharded_service() {
    use ireval::{trec, Run};
    use searchlite::ShardRouter;
    use sqe::{ServeConfig, ShardedService, SqeConfig, SqePipeline};

    let bed = TestBed::generate(&TestBedConfig::small());
    let dataset = bed.dataset("imageclef");
    let coll = &bed.collections[dataset.collection];
    let shards = 3;
    let router = ShardRouter::with_salt(shards, 0x5eed);

    // Route every document to its shard, remembering the global ingest
    // ordinal each shard-local id corresponds to.
    let mut builders: Vec<IndexBuilder> = (0..shards)
        .map(|_| IndexBuilder::new(Analyzer::english()))
        .collect();
    let mut ordinals: Vec<Vec<u32>> = vec![Vec::new(); shards];
    for (i, d) in coll.docs.iter().enumerate() {
        let s = router.route(&d.id);
        builders[s]
            .add_document(&d.id, &d.text)
            .expect("generated ids are unique");
        ordinals[s].push(i as u32);
    }

    // One snapshot file per shard (store v2), then restore the service
    // from the decoded snapshots alone.
    let snaps: Vec<Snapshot> = builders
        .into_iter()
        .map(|b| {
            let index = b.build();
            let bytes = snapshot_of(&bed.kb.graph, &[("imageclef", &index)], &Dictionary::new());
            Snapshot::from_bytes(&bytes).expect("per-shard snapshot decodes")
        })
        .collect();
    let cfg = SqeConfig {
        ql: QlParams { mu: 15.0 },
        ..SqeConfig::default()
    };
    let restored = ShardedService::from_shard_snapshots(
        &bed.kb.graph,
        &snaps,
        "imageclef",
        router,
        ordinals,
        cfg,
        ServeConfig::default(),
    )
    .expect("per-shard snapshots restore a sharded service");
    assert_eq!(restored.num_shards(), shards);
    assert_eq!(restored.num_docs(), coll.docs.len());

    let batch: Vec<(String, Vec<kbgraph::ArticleId>)> = dataset
        .queries
        .iter()
        .map(|q| {
            let nodes = q.targets.iter().map(|&e| bed.kb.article_of[e]).collect();
            (q.text.clone(), nodes)
        })
        .collect();
    let mut b = IndexBuilder::new(Analyzer::english());
    for d in &coll.docs {
        b.add_document(&d.id, &d.text)
            .expect("generated ids are unique");
    }
    let index = b.build();
    let pipeline = SqePipeline::from_index(&bed.kb.graph, &index, cfg);
    let run_file = |rankings: &[Vec<String>]| {
        let mut run = Run::new("SQE_C");
        for (q, ids) in dataset.queries.iter().zip(rankings) {
            run.set_ranking(&q.id, ids.clone());
        }
        trec::write_run(&run)
    };
    let want: Vec<Vec<String>> = batch
        .iter()
        .map(|(text, nodes)| pipeline.rank_sqe_c(text, nodes))
        .collect();
    assert_eq!(
        run_file(&restored.run_batch_sqe_c(&batch)),
        run_file(&want),
        "snapshot-restored sharded service diverged from the monolithic pipeline"
    );
}

/// The cold-start contract: a pipeline over a snapshot-loaded world must
/// produce byte-identical trec run files to a pipeline over the freshly
/// built world — for every dataset and every motif configuration.
#[test]
fn snapshot_loaded_pipeline_reproduces_fresh_run_files() {
    use ireval::{trec, Run};
    use sqe::{MotifSet, SqeConfig, SqePipeline};

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
    let named: Vec<(&str, &Index)> = bed
        .collections
        .iter()
        .map(|c| c.name.as_str())
        .zip(indexes.iter())
        .collect();
    let mut dict = Dictionary::new();
    dict.extend(bed.kb.linker_entries(&bed.space));
    let bytes = snapshot_of(&bed.kb.graph, &named, &dict);
    let snap = Snapshot::from_bytes(&bytes).unwrap();

    let cfg = || SqeConfig {
        ql: QlParams { mu: 15.0 },
        ..SqeConfig::default()
    };
    let run_file = |name: &str, ds: &synthwiki::Dataset, rankings: &[Vec<String>]| {
        let mut run = Run::new(name);
        for (q, ids) in ds.queries.iter().zip(rankings) {
            run.set_ranking(&q.id, ids.clone());
        }
        trec::write_run(&run)
    };

    for ds_name in ["imageclef", "chic2012", "chic2013"] {
        let dataset = bed.dataset(ds_name);
        let coll_name = &bed.collections[dataset.collection].name;
        let fresh = SqePipeline::from_index(&bed.kb.graph, &indexes[dataset.collection], cfg());
        let loaded = SqePipeline::from_snapshot(&snap, coll_name, cfg()).unwrap();
        let batch: Vec<(String, Vec<kbgraph::ArticleId>)> = dataset
            .queries
            .iter()
            .map(|q| {
                let nodes = q.targets.iter().map(|&e| bed.kb.article_of[e]).collect();
                (q.text.clone(), nodes)
            })
            .collect();

        for (cfg_name, motifs) in [
            ("SQE_T", MotifSet::triangular()),
            ("SQE_S", MotifSet::square()),
            ("SQE_TS", MotifSet::t_and_s()),
        ] {
            let rank = |p: &SqePipeline| -> Vec<Vec<String>> {
                batch
                    .iter()
                    .map(|(text, nodes)| p.external_ids(&p.rank_sqe(text, nodes, &motifs).0))
                    .collect()
            };
            assert_eq!(
                run_file(cfg_name, dataset, &rank(&fresh)),
                run_file(cfg_name, dataset, &rank(&loaded)),
                "{ds_name}/{cfg_name}: snapshot-loaded run file differs from fresh"
            );
        }
        let rank_c = |p: &SqePipeline| -> Vec<Vec<String>> {
            batch
                .iter()
                .map(|(text, nodes)| p.rank_sqe_c(text, nodes))
                .collect()
        };
        assert_eq!(
            run_file("SQE_C", dataset, &rank_c(&fresh)),
            run_file("SQE_C", dataset, &rank_c(&loaded)),
            "{ds_name}/SQE_C: snapshot-loaded run file differs from fresh"
        );
    }
}
