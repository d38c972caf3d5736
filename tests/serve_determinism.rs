//! The determinism wall: the concurrent query service must produce
//! byte-identical trec run files to the sequential, uncached pipeline —
//! for every dataset, every motif configuration, every worker count, and
//! both cold and warm expansion caches.
//!
//! This is the contract that makes the serving layer (work stealing +
//! LRU caching + scratch reuse) adoptable at all: parallelism and caching
//! are pure speed, never a ranking change.

use std::sync::Arc;

use entitylink::NoiseRng;
use ireval::trec;
use ireval::Run;
use kbgraph::ArticleId;
use searchlite::{Analyzer, Index, IndexBuilder, QlParams, SegmentedIndex, ShardRouter};
use sqe::{
    AdmissionConfig, Deadline, ManualClock, MotifSet, QueryService, ServeConfig, ServeRequest,
    ShardedService, SqeConfig, SqePipeline,
};
use synthwiki::{Collection, Dataset, TestBed, TestBedConfig};

const DATASETS: [&str; 3] = ["imageclef", "chic2012", "chic2013"];
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn build_world() -> (TestBed, Vec<Index>) {
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
    (bed, indexes)
}

fn config() -> SqeConfig {
    SqeConfig {
        ql: QlParams { mu: 15.0 },
        ..SqeConfig::default()
    }
}

/// The batch input: every query's text plus its manually linked nodes.
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

/// Packs per-query rankings into a trec run file (the byte-comparison
/// currency of this wall).
fn run_file(name: &str, dataset: &Dataset, rankings: &[Vec<String>]) -> String {
    let mut run = Run::new(name);
    for (q, ids) in dataset.queries.iter().zip(rankings) {
        run.set_ranking(&q.id, ids.clone());
    }
    trec::write_run(&run)
}

#[test]
fn service_run_files_are_byte_identical_for_every_motif_config() {
    let (bed, indexes) = build_world();
    for ds_name in DATASETS {
        let dataset = bed.dataset(ds_name);
        let index = &indexes[dataset.collection];
        let batch = batch_of(&bed, dataset);
        let pipeline = SqePipeline::from_index(&bed.kb.graph, index, config());
        for (cfg_name, motifs) in [
            ("SQE_T", MotifSet::triangular()),
            ("SQE_S", MotifSet::square()),
            ("SQE_TS", MotifSet::t_and_s()),
        ] {
            // Reference: the sequential, uncached pipeline.
            let reference: Vec<Vec<String>> = batch
                .iter()
                .map(|(text, nodes)| {
                    pipeline.external_ids(&pipeline.rank_sqe(text, nodes, &motifs).0)
                })
                .collect();
            let want = run_file(cfg_name, dataset, &reference);
            for workers in WORKER_COUNTS {
                let serve_cfg = ServeConfig {
                    workers,
                    ..ServeConfig::default()
                };
                let service = QueryService::new(&bed.kb.graph, index, config(), serve_cfg);
                for replay in ["cold", "warm"] {
                    let served: Vec<Vec<String>> = service
                        .run_batch(&batch, &motifs)
                        .iter()
                        .map(|hits| service.external_ids(hits))
                        .collect();
                    let got = run_file(cfg_name, dataset, &served);
                    assert_eq!(
                        got, want,
                        "{ds_name}/{cfg_name}: {replay} service run at {workers} workers \
                         must be byte-identical to the sequential pipeline"
                    );
                }
            }
        }
    }
}

#[test]
fn service_sqe_c_run_files_are_byte_identical() {
    let (bed, indexes) = build_world();
    for ds_name in DATASETS {
        let dataset = bed.dataset(ds_name);
        let index = &indexes[dataset.collection];
        let batch = batch_of(&bed, dataset);
        let pipeline = SqePipeline::from_index(&bed.kb.graph, index, config());
        let reference: Vec<Vec<String>> = batch
            .iter()
            .map(|(text, nodes)| pipeline.rank_sqe_c(text, nodes))
            .collect();
        let want = run_file("SQE_C", dataset, &reference);
        for workers in WORKER_COUNTS {
            let serve_cfg = ServeConfig {
                workers,
                ..ServeConfig::default()
            };
            let service = QueryService::new(&bed.kb.graph, index, config(), serve_cfg);
            for replay in ["cold", "warm"] {
                let served = service.run_batch_sqe_c(&batch);
                let got = run_file("SQE_C", dataset, &served);
                assert_eq!(
                    got, want,
                    "{ds_name}/SQE_C: {replay} service run at {workers} workers \
                     must be byte-identical to the sequential pipeline"
                );
            }
        }
        // The warm replays actually exercised the cache (not a no-op wall).
        let serve_cfg = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let service = QueryService::new(&bed.kb.graph, index, config(), serve_cfg);
        service.run_batch_sqe_c(&batch);
        service.run_batch_sqe_c(&batch);
        let snap = service.metrics_snapshot();
        assert!(
            snap.cache_hits > 0,
            "{ds_name}: the warm replay must hit the expansion cache"
        );
    }
}

/// Ingests a collection through the live path, sealing every
/// `seal_every` documents so the corpus ends up split over several
/// immutable segments (plus possibly a sealed tail).
fn segmented_index_of(coll: &Collection, seal_every: usize) -> SegmentedIndex {
    let mut seg = SegmentedIndex::new(Analyzer::english());
    for (i, d) in coll.docs.iter().enumerate() {
        seg.add_document(&d.id, &d.text)
            .expect("generated ids are unique");
        if (i + 1) % seal_every == 0 {
            seg.seal();
        }
    }
    seg.seal();
    seg
}

#[test]
fn segmented_service_is_byte_identical_pre_and_post_merge() {
    // The tentpole contract: scoring merges corpus-wide statistics
    // exactly, so the number of segments — and a later compaction —
    // never changes a single byte of any run file.
    let (bed, indexes) = build_world();
    for ds_name in DATASETS {
        let dataset = bed.dataset(ds_name);
        let index = &indexes[dataset.collection];
        let coll = bed.collection_of(dataset);
        let batch = batch_of(&bed, dataset);
        let pipeline = SqePipeline::from_index(&bed.kb.graph, index, config());
        let want = run_file(
            "SQE_C",
            dataset,
            &batch
                .iter()
                .map(|(text, nodes)| pipeline.rank_sqe_c(text, nodes))
                .collect::<Vec<_>>(),
        );

        // Three chunks stay under the default merge factor (4), so the
        // pre-merge service really serves from multiple segments.
        let seal_every = coll.docs.len().div_ceil(3).max(1);
        let service = QueryService::from_segmented(
            &bed.kb.graph,
            segmented_index_of(coll, seal_every),
            config(),
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
        );
        assert!(
            service.num_segments() > 1,
            "{ds_name}: the pre-merge wall needs a genuinely partitioned corpus"
        );
        let pre = run_file("SQE_C", dataset, &service.run_batch_sqe_c(&batch));
        assert_eq!(
            pre,
            want,
            "{ds_name}: a {}-segment service must be byte-identical to the monolithic pipeline",
            service.num_segments()
        );

        assert!(service.force_merge(), "{ds_name}: compaction must happen");
        assert_eq!(service.num_segments(), 1);
        let post = run_file("SQE_C", dataset, &service.run_batch_sqe_c(&batch));
        assert_eq!(post, want, "{ds_name}: force_merge changed run-file bytes");
    }
}

#[test]
fn mid_run_seal_invalidates_cache_exactly_once_with_observable_epoch() {
    // A seal between two batches must flush the expansion cache exactly
    // once (auto-merges ride the same epoch bump), advance the epoch
    // visibly in the metrics snapshot, and make the new document
    // retrievable — while the replayed batch stays byte-identical
    // because the graph (and thus every expansion) is unchanged.
    let (bed, indexes) = build_world();
    let dataset = bed.dataset("imageclef");
    let index = &indexes[dataset.collection];
    let batch = batch_of(&bed, dataset);
    let service = QueryService::new(
        &bed.kb.graph,
        index,
        config(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let before_docs = service.searcher().num_docs();
    service.run_batch_sqe_c(&batch);
    let snap0 = service.metrics_snapshot();
    assert_eq!(snap0.epoch, 0);
    assert_eq!(snap0.invalidations, 0);

    service
        .add_document(
            "mid-run-doc",
            "a late-breaking caption about nothing relevant",
        )
        .expect("fresh external id");
    let report = service.seal().expect("non-empty buffer seals");
    assert_eq!(report.epoch, 1);
    // Sealing an empty buffer is a no-op: no second epoch, no second flush.
    assert!(service.seal().is_none());

    let snap1 = service.metrics_snapshot();
    assert_eq!(
        snap1.epoch, 1,
        "the seal's epoch must be observable in metrics"
    );
    assert_eq!(
        snap1.invalidations, 1,
        "one seal must invalidate the expansion cache exactly once"
    );
    assert_eq!(snap1.seals, 1);
    assert_eq!(service.searcher().num_docs(), before_docs + 1);

    // Replay: same graph, same expansions, same bytes — via recomputation.
    let replay = service.run_batch_sqe_c(&batch);
    let fresh = QueryService::from_segmented(
        &bed.kb.graph,
        {
            let mut seg = SegmentedIndex::from_index(index.clone());
            seg.add_document(
                "mid-run-doc",
                "a late-breaking caption about nothing relevant",
            )
            .expect("fresh external id");
            seg.seal();
            seg
        },
        config(),
        ServeConfig::default(),
    );
    let got = run_file("SQE_C", dataset, &replay);
    let want = run_file("SQE_C", dataset, &fresh.run_batch_sqe_c(&batch));
    assert_eq!(got, want, "post-seal replay diverged from a fresh service");
    assert_eq!(
        service.metrics_snapshot().invalidations,
        1,
        "the replay itself must not invalidate again"
    );
}

/// Routes a collection into a fresh sharded service and seals every
/// shard once, so the corpus is live-searchable across all shards.
fn sharded_service_of<'a>(
    bed: &'a TestBed,
    coll: &Collection,
    shards: usize,
    workers: usize,
) -> ShardedService<'a> {
    let service = ShardedService::new(
        &bed.kb.graph,
        Analyzer::english(),
        ShardRouter::new(shards),
        config(),
        ServeConfig {
            workers,
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

#[test]
fn sharded_service_run_files_are_byte_identical_at_every_shard_and_worker_count() {
    // The scatter-gather contract: hash-routing the corpus over any
    // number of shards and replaying on any number of workers, cold or
    // warm, never changes a byte of any run file.
    let (bed, indexes) = build_world();
    for ds_name in DATASETS {
        let dataset = bed.dataset(ds_name);
        let index = &indexes[dataset.collection];
        let coll = bed.collection_of(dataset);
        let batch = batch_of(&bed, dataset);
        let pipeline = SqePipeline::from_index(&bed.kb.graph, index, config());
        let reference: Vec<Vec<String>> = batch
            .iter()
            .map(|(text, nodes)| pipeline.rank_sqe_c(text, nodes))
            .collect();
        let want = run_file("SQE_C", dataset, &reference);
        for shards in [1usize, 2, 4] {
            for workers in WORKER_COUNTS {
                let service = sharded_service_of(&bed, coll, shards, workers);
                for replay in ["cold", "warm"] {
                    let served = service.run_batch_sqe_c(&batch);
                    let got = run_file("SQE_C", dataset, &served);
                    assert_eq!(
                        got, want,
                        "{ds_name}/SQE_C: {replay} run over {shards} shards at \
                         {workers} workers must be byte-identical to the \
                         sequential pipeline"
                    );
                }
                let snap = service.metrics_snapshot();
                assert!(
                    snap.cache_hits > 0,
                    "{ds_name}: the warm sharded replay must hit the expansion cache"
                );
            }
        }
    }
}

#[test]
fn mid_run_shard_seal_bumps_one_epoch_entry_and_invalidates_once() {
    // Sealing one shard between two batches must advance exactly that
    // shard's entry of the epoch vector, flush the shared expansion
    // cache exactly once, and leave the replay byte-identical to a
    // fresh build that includes the late document.
    let (bed, indexes) = build_world();
    let dataset = bed.dataset("imageclef");
    let index = &indexes[dataset.collection];
    let coll = bed.collection_of(dataset);
    let batch = batch_of(&bed, dataset);
    let service = sharded_service_of(&bed, coll, 4, 2);
    service.run_batch_sqe_c(&batch);
    let epochs0 = service.epoch_vector();
    let inv0 = service.metrics_snapshot().invalidations;
    let docs0 = service.num_docs();

    let late_id = "mid-run-doc";
    let target = service.router().route(late_id);
    service
        .add_document(late_id, "a late-breaking caption about nothing relevant")
        .expect("fresh external id");
    let report = service
        .seal_shard(target)
        .expect("non-empty shard buffer seals");
    assert_eq!(report.epoch, epochs0[target] + 1);
    // Sealing the same (now empty) shard again is a no-op.
    assert!(service.seal_shard(target).is_none());

    let epochs1 = service.epoch_vector();
    for (s, (&before, &after)) in epochs0.iter().zip(&epochs1).enumerate() {
        if s == target {
            assert_eq!(
                after,
                before + 1,
                "sealed shard must advance its epoch entry"
            );
        } else {
            assert_eq!(
                after, before,
                "shard {s} was not sealed; its epoch must hold"
            );
        }
    }
    let snap = service.metrics_snapshot();
    assert_eq!(
        snap.invalidations,
        inv0 + 1,
        "one shard seal must invalidate the shared cache exactly once"
    );
    assert_eq!(service.num_docs(), docs0 + 1);

    // Replay vs a fresh monolithic service over the same corpus + doc.
    let replay = service.run_batch_sqe_c(&batch);
    let fresh = QueryService::from_segmented(
        &bed.kb.graph,
        {
            let mut seg = SegmentedIndex::from_index(index.clone());
            seg.add_document(late_id, "a late-breaking caption about nothing relevant")
                .expect("fresh external id");
            seg.seal();
            seg
        },
        config(),
        ServeConfig::default(),
    );
    let got = run_file("SQE_C", dataset, &replay);
    let want = run_file("SQE_C", dataset, &fresh.run_batch_sqe_c(&batch));
    assert_eq!(
        got, want,
        "post-seal sharded replay diverged from a fresh service"
    );
    assert_eq!(
        service.metrics_snapshot().invalidations,
        inv0 + 1,
        "the replay itself must not invalidate again"
    );
}

/// Admission settings for the deadline/degraded wall: small enough that
/// one 12-request batch overflows the pending queue, a refill slow
/// enough that later batches run out of tokens before slots.
fn wall_admission() -> AdmissionConfig {
    AdmissionConfig {
        queue_capacity: 5,
        rate_per_sec: 60,
        burst: 6,
        codel_target_nanos: 0,
        codel_interval_nanos: 0,
        default_deadline_nanos: 0,
    }
}

/// Primes the degraded-mode ladder with fixed per-rung costs. Under a
/// frozen [`ManualClock`] every real execution records a zero-duration
/// cost, which the histograms skip — so these stay the authoritative
/// estimates for the whole replay.
fn prime_wall_ladder(record: impl Fn(usize, u64)) {
    record(0, 200_000); // full (SQE_T&S)
    record(1, 80_000); // triangular
    record(2, 20_000); // unexpanded
}

/// Per-request deadline budgets spanning the whole ladder. Five residue
/// classes are pinned to one rung each (with the primed costs, the p95
/// estimates are the power-of-two bucket uppers 262143 / 131071 / 32767
/// ns), so every outcome kind is guaranteed to occur among the admitted
/// prefix of each batch; the rest draw from a seeded RNG.
fn wall_budgets(n: usize) -> Vec<u64> {
    let mut rng = NoiseRng::new(0xD15E_A5E0_0B57_AC1E);
    (0..n)
        .map(|i| {
            let draw = (rng.next_f64() * 400_000.0) as u64;
            match i % 7 {
                0 => 300_000, // ≥ 262143 → full (ok)
                1 => 150_000, // → degraded:triangular
                2 => 50_000,  // → degraded:unexpanded
                3 => 0,       // → deadline:queue
                5 => 10_000,  // < 32767 → shed:budget_exhausted
                _ => draw,
            }
        })
        .collect()
}

/// Replays the batch through `serve_batch` under a scripted clock
/// schedule (one 50 ms tick per 12-request batch, driving token-bucket
/// refills) and serializes every outcome — including which requests
/// shed, degraded, or blew their deadline — into one comparable blob.
fn outcome_blob(
    serve: impl Fn(&[ServeRequest]) -> Vec<(String, Vec<String>)>,
    clock: &ManualClock,
    batch: &[(String, Vec<ArticleId>)],
    budgets: &[u64],
) -> String {
    let mut lines = String::new();
    for (k, chunk) in batch.chunks(12).enumerate() {
        let now = (k as u64 + 1) * 50_000_000;
        clock.set(now);
        let requests: Vec<ServeRequest> = chunk
            .iter()
            .enumerate()
            .map(|(j, (text, nodes))| {
                let i = k * 12 + j;
                ServeRequest {
                    text: text.clone(),
                    nodes: nodes.clone(),
                    deadline: Deadline::within(now, budgets.get(i).copied().unwrap_or(0)),
                }
            })
            .collect();
        for (j, (label, ids)) in serve(&requests).into_iter().enumerate() {
            let i = k * 12 + j;
            lines.push_str(&format!("{i}:{label}:{}\n", ids.join(",")));
        }
    }
    lines
}

#[test]
fn deadline_and_degraded_outcomes_are_byte_identical_across_workers_and_shards() {
    // The wall extended to the admission layer: with the same seed and
    // the same ManualClock schedule, the full outcome sequence — which
    // requests shed (and why), which degrade (and to which rung), which
    // blow their deadline, and every surviving ranking — is
    // byte-identical at every worker count and every shard count.
    let (bed, indexes) = build_world();
    let dataset = bed.dataset("imageclef");
    let index = &indexes[dataset.collection];
    let coll = bed.collection_of(dataset);
    // Repeat the query set so the replay spans several batches (several
    // clock ticks, several token-bucket refills).
    let mut batch = Vec::new();
    for _ in 0..3 {
        batch.extend(batch_of(&bed, dataset));
    }
    let budgets = wall_budgets(batch.len());

    let mut blobs: Vec<(String, String)> = Vec::new();
    for workers in WORKER_COUNTS {
        let clock = Arc::new(ManualClock::new());
        let service = QueryService::with_clock(
            &bed.kb.graph,
            index,
            config(),
            ServeConfig {
                workers,
                admission: wall_admission(),
                ..ServeConfig::default()
            },
            clock.clone(),
        );
        prime_wall_ladder(|rung, nanos| service.record_ladder_cost(rung, nanos));
        let blob = outcome_blob(
            |reqs| {
                service
                    .serve_batch(reqs)
                    .into_iter()
                    .map(|o| {
                        let label = o.label();
                        let ids = o
                            .into_value()
                            .map(|hits| service.external_ids(&hits))
                            .unwrap_or_default();
                        (label, ids)
                    })
                    .collect()
            },
            &clock,
            &batch,
            &budgets,
        );
        blobs.push((format!("mono/{workers}w"), blob));
    }
    for shards in [1usize, 2, 4] {
        let clock = Arc::new(ManualClock::new());
        let service = ShardedService::with_clock(
            &bed.kb.graph,
            Analyzer::english(),
            ShardRouter::new(shards),
            config(),
            ServeConfig {
                workers: 2,
                admission: wall_admission(),
                ..ServeConfig::default()
            },
            clock.clone(),
        );
        for d in &coll.docs {
            service
                .add_document(&d.id, &d.text)
                .expect("generated ids are unique");
        }
        service.seal_all();
        prime_wall_ladder(|rung, nanos| service.record_ladder_cost(rung, nanos));
        let blob = outcome_blob(
            |reqs| {
                service
                    .serve_batch(reqs)
                    .into_iter()
                    .map(|o| {
                        let label = o.label();
                        let ids = o
                            .into_value()
                            .map(|hits| service.external_ids(&hits))
                            .unwrap_or_default();
                        (label, ids)
                    })
                    .collect()
            },
            &clock,
            &batch,
            &budgets,
        );
        blobs.push((format!("sharded/{shards}s"), blob));
    }

    let (ref_name, reference) = blobs.first().expect("at least one configuration ran");
    // The schedule is not a no-op wall: every outcome kind occurs.
    for kind in [
        ":ok:",
        ":degraded:triangular:",
        ":degraded:unexpanded:",
        ":shed:queue_full:",
        ":shed:rate_limited:",
        ":shed:budget_exhausted:",
        ":deadline:queue:",
    ] {
        assert!(
            reference.contains(kind),
            "the wall schedule must produce a {kind} outcome; blob:\n{reference}"
        );
    }
    for (name, blob) in &blobs {
        assert_eq!(
            blob, reference,
            "{name} outcome sequence diverged from {ref_name}"
        );
    }
}

#[test]
fn duplicate_external_ids_are_rejected_across_shards() {
    // Regression: duplicate detection must span all shards, not just the
    // one the second copy routes to.
    let (bed, indexes) = build_world();
    let dataset = bed.dataset("imageclef");
    let coll = bed.collection_of(dataset);
    let _ = indexes;
    let service = sharded_service_of(&bed, coll, 4, 1);
    let first = &coll.docs[0];
    let err = service
        .add_document(&first.id, "a second body under an already-ingested id")
        .expect_err("re-adding an ingested id must fail on every shard");
    let msg = format!("{err:?}");
    assert!(
        msg.contains(&first.id),
        "error must carry the offending id: {msg}"
    );
}

#[test]
fn invalidated_cache_still_reproduces_the_same_bytes() {
    // Generation bumps force recomputation; on an unchanged graph the
    // recomputed expansions — and therefore the run files — are identical.
    let (bed, indexes) = build_world();
    let dataset = bed.dataset("imageclef");
    let index = &indexes[dataset.collection];
    let batch = batch_of(&bed, dataset);
    let service = QueryService::new(
        &bed.kb.graph,
        index,
        config(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let before = run_file("SQE_C", dataset, &service.run_batch_sqe_c(&batch));
    service.invalidate_cache();
    let after = run_file("SQE_C", dataset, &service.run_batch_sqe_c(&batch));
    assert_eq!(before, after);
    let snap = service.metrics_snapshot();
    assert_eq!(snap.invalidations, 1);
}
