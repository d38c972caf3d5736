//! `ingest_sharded`: documents of a streaming bed go through
//! `ShardedService::add_document` into 4 shards per collection; every
//! `SEAL_EVERY` documents a `seal_all` publishes a new view, and one
//! single-client `SQE_C` round runs on it. Single-threaded, so every
//! answer and count repeats. The seed picks the request order and the
//! shard routing salt: answers do not depend on the routing, the
//! per-shard layout does.

use std::time::Instant;

use rustc_hash::FxHasher;
use searchlite::{Analyzer, ShardRouter};
use sqe::{QueryService, ShardedService};
use synthwiki::{TestBed, TestBedConfig};

use crate::bed::{self, link_nodes, PAt10, Request, SplitMix};
use crate::calib::{self, Pacer};
use crate::layers::{self, Backend, Counts, TracedPath};
use crate::replay::{serve_config, SLO_MS};
use crate::report::{LayerExtras, Outcome};
use crate::stats::{self, nanos_since, Scaled};
use crate::trace::{Trace, ROOT};
use crate::Args;

/// Documents in the streaming bed (both collections).
const STREAM_DOCS: usize = 40_000;

/// Shards per collection.
const SHARDS: usize = 4;

/// Documents added between two `seal_all` calls.
const SEAL_EVERY: usize = 4_000;

/// Set-up repetitions; the median is reported. Set-up here is only the
/// linker and empty shard sets, a few milliseconds, so it is repeated
/// often enough for the median to settle.
const SETUP_REPS: usize = 15;

/// One generated document.
struct Doc {
    collection: usize,
    id: String,
    text: String,
}

/// What one pass over the document stream measured.
#[derive(Default)]
struct Pass {
    /// `add_document` and `seal_all` time in seconds, per interval of the
    /// pacer (one seal and its round).
    ingest_s: Vec<(f64, usize)>,
    /// The rounds' requests, one interval per seal.
    rounds: Scaled,
    /// Round requests answered within the latency limit.
    within_slo: usize,
    /// Digest of every round answer, in order: later passes must match
    /// the first.
    digests: Vec<u64>,
    /// Answers of the last round of each collection, by request index.
    final_answers: Vec<(usize, Vec<String>)>,
    ingest_errors: u64,
    merges: u64,
    segments_per_shard: f64,
    docs_skew: f64,
    counts: Counts,
}

fn digest(ids: &[String]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = FxHasher::default();
    ids.hash(&mut h);
    h.finish()
}

/// The traced side of a pass: the span recorder, the traced path, and
/// the untraced service time of the requests it also traced.
struct Tracing<'g> {
    tr: Trace,
    path: TracedPath<'g>,
    untraced_ns: u64,
    mismatches: u64,
}

/// What every pass replays: the document stream and the rounds.
struct Stream<'a, 'g> {
    graph: &'g kbgraph::KbGraph,
    linker: &'a entitylink::EntityLinker,
    docs: &'a [Doc],
    reqs: &'a [Request],
    /// Request indices of each collection's round, in seeded order.
    rounds: &'a [Vec<usize>; 2],
    salt: u64,
}

fn pass<'g>(
    input: &Stream<'_, 'g>,
    pacer: &mut Pacer,
    mut tracing: Option<&mut Tracing<'g>>,
) -> Pass {
    let Stream {
        graph,
        linker,
        docs,
        reqs,
        rounds,
        salt,
    } = *input;
    let services = shard_sets(graph, salt);
    let analyzer = Analyzer::english();
    let mut p = Pass::default();
    let mut since_seal = 0usize;
    // The interval since the last calibration: its ingest time, round
    // latencies and round time.
    let (mut ingest_ns, mut round_lat, mut round_ns) = (0u64, Vec::new(), 0u64);
    for (k, d) in docs.iter().enumerate() {
        let svc = &services[d.collection];
        let t0 = Instant::now();
        let added = match tracing.as_deref_mut() {
            Some(t) => t.tr.span("searchlite.ingest.add", ROOT, || {
                svc.add_document(&d.id, &d.text)
            }),
            None => svc.add_document(&d.id, &d.text),
        };
        ingest_ns += nanos_since(t0);
        if added.is_err() {
            p.ingest_errors += 1;
        }
        since_seal += 1;
        let last_of_collection = docs.get(k + 1).is_none_or(|n| n.collection != d.collection);
        if since_seal < SEAL_EVERY && !last_of_collection {
            continue;
        }
        since_seal = 0;
        let t0 = Instant::now();
        match tracing.as_deref_mut() {
            Some(t) => {
                t.tr.span("sqe.sharded.seal_all", ROOT, || svc.seal_all());
                for shard in 0..svc.num_shards() {
                    if let Some(view) = svc.shard_searcher(shard) {
                        layers::publish(&mut t.tr, &view);
                    }
                }
                t.path.invalidate();
            }
            None => {
                svc.seal_all();
            }
        }
        ingest_ns += nanos_since(t0);
        for &i in &rounds[d.collection] {
            let r = &reqs[i];
            let got = match tracing.as_deref_mut() {
                Some(t) => {
                    // Alternate which side runs first, so neither always
                    // finds the caches warm.
                    let mut serve = || {
                        let t0 = Instant::now();
                        let served = svc.rank_sqe_c(&r.text, &link_nodes(linker, &r.text));
                        (served, nanos_since(t0))
                    };
                    let served_first = (p.digests.len() % 2 == 1).then(&mut serve);
                    let root = t.tr.begin("request");
                    let nodes = t.path.link(&mut t.tr, root, linker, &r.text);
                    let backend = Backend::Sharded(svc, &analyzer);
                    let traced = t.path.sqe_c(&mut t.tr, root, &backend, &r.text, &nodes);
                    t.tr.end(root);
                    let (served, ns) = served_first.unwrap_or_else(serve);
                    t.untraced_ns += ns;
                    if traced != served {
                        t.mismatches += 1;
                    }
                    served
                }
                None => {
                    let t0 = Instant::now();
                    let served = svc.rank_sqe_c(&r.text, &link_nodes(linker, &r.text));
                    let ns = nanos_since(t0);
                    round_lat.push(ns);
                    round_ns += ns;
                    if ns as f64 <= SLO_MS * 1e6 {
                        p.within_slo += 1;
                    }
                    served
                }
            };
            p.digests.push(digest(&got));
            if last_of_collection {
                p.final_answers.push((i, got));
            }
        }
        let interval = pacer.end_interval();
        p.ingest_s.push((ingest_ns as f64 / 1e9, interval));
        p.rounds.add(&round_lat, round_ns as f64 / 1e9, interval);
        (ingest_ns, round_ns) = (0, 0);
        round_lat.clear();
    }
    for svc in &services {
        p.merges += svc.metrics_snapshot().merges;
        let docs: Vec<usize> = (0..svc.num_shards())
            .map(|s| svc.shard_searcher(s).map_or(0, |v| v.num_docs()))
            .collect();
        let segments: usize = (0..svc.num_shards())
            .map(|s| svc.shard_searcher(s).map_or(0, |v| v.num_segments()))
            .sum();
        p.segments_per_shard += segments as f64 / (2 * svc.num_shards()) as f64;
        let mean = docs.iter().sum::<usize>() as f64 / docs.len() as f64;
        let max = docs.iter().copied().max().unwrap_or(0) as f64;
        p.docs_skew = p.docs_skew.max(max / mean);
    }
    if let Some(t) = tracing {
        p.counts = t.path.counts;
    }
    p
}

/// One empty `SHARDS`-shard service per collection.
fn shard_sets(graph: &kbgraph::KbGraph, salt: u64) -> Vec<ShardedService<'_>> {
    (0..2)
        .map(|_| {
            let router = ShardRouter::with_salt(SHARDS, salt);
            ShardedService::new(
                graph,
                Analyzer::english(),
                router,
                bed::sqe_config(),
                serve_config(),
            )
        })
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    let cfg = TestBedConfig::streaming(STREAM_DOCS);
    let mut docs = Vec::with_capacity(STREAM_DOCS);
    let sb = TestBed::stream(&cfg, &mut |collection, d| {
        docs.push(Doc {
            collection,
            id: d.id.clone(),
            text: d.text.clone(),
        });
    });
    let reqs = bed::requests(&sb.datasets, args.seed);
    let mut order: Vec<usize> = (0..reqs.len()).collect();
    SplitMix::new(bed::derive(args.seed, 8)).shuffle(&mut order);
    let rounds: [Vec<usize>; 2] = [0, 1].map(|c| {
        order
            .iter()
            .copied()
            .filter(|&i| reqs[i].collection == c)
            .collect()
    });
    let graph = &sb.kb.graph;
    let salt = bed::derive(args.seed, 10);

    // Set-up: the linker and the empty shard sets it feeds.
    let mut pacer = Pacer::new(1, calib::SETUP_KERNEL_RUNS);
    let setup = stats::repeat(SETUP_REPS, &mut pacer, |clock| {
        clock.timed("setup", || {
            let linker = bed::build_linker(&sb.kb, &sb.space);
            drop(shard_sets(graph, salt));
            linker
        })
    });
    let (setup_s, raw_setup_s) = setup.median_secs(&pacer, &[]);
    let linker = &setup.last;
    let mut pacer = Pacer::new(1, 1);

    let mut out = Outcome::default();
    out.detail(
        "bed",
        format!(
            "{{\"preset\": \"streaming({STREAM_DOCS})\", \"docs\": {}, \"shards\": {SHARDS}, \"router_salt\": {salt}, \"seal_every\": {SEAL_EVERY}, \"requests\": {}}}",
            docs.len(),
            reqs.len()
        ),
    );

    let mut tracing = args.trace.then(|| Tracing {
        tr: Trace::new(),
        path: TracedPath::new(graph, bed::sqe_config(), serve_config().cache_capacity),
        untraced_ns: 0,
        mismatches: 0,
    });
    // Whole passes, each on fresh services, until the run time is spent,
    // at least two. An untraced run first makes one more that warms up:
    // it is checked like the others but not timed.
    let input = Stream {
        graph,
        linker,
        docs: &docs,
        reqs: &reqs,
        rounds: &rounds,
        salt,
    };
    let mut passes: Vec<Pass> = Vec::new();
    if !args.trace {
        passes.push(pass(&input, &mut pacer, None));
    }
    let min_passes = passes.len() + 2;
    // Peak memory is read after the second pass, so that it covers the
    // same work in every run: later passes repeat it on fresh services,
    // and the allocator's reuse of their memory varies from run to run.
    let mut peak_rss = 0.0;
    let t_start = Instant::now();
    loop {
        let t_pass = Instant::now();
        passes.push(pass(&input, &mut pacer, tracing.as_mut()));
        let pass_s = t_pass.elapsed().as_secs_f64();
        if passes.len() == 2 {
            peak_rss = stats::peak_rss_mb();
        }
        let left = args.run.as_secs_f64() - t_start.elapsed().as_secs_f64();
        if passes.len() >= min_passes && left < pass_s / 2.0 {
            break;
        }
    }
    // Every pass answers every round the way the first did.
    let first = &passes[0];
    for p in &passes {
        for (a, b) in p.digests.iter().zip(&first.digests) {
            out.request(a == b);
        }
        out.attempted += docs.len() as u64;
        out.failed += p.ingest_errors;
    }
    // The final-state rounds against a single-shard service over the
    // same documents, built after peak memory was read.
    let mut p10 = PAt10::default();
    // A traced run also answers the final rounds through the traced path
    // on the single-shard searcher: the workload's only
    // `ql::rank_with_scratch` calls, under roots of their own.
    let mut oracle = TracedPath::new(graph, bed::sqe_config(), serve_config().cache_capacity);
    for c in 0..2 {
        let idx = crate::replay::build_index_from(
            docs.iter()
                .filter(|d| d.collection == c)
                .map(|d| (&*d.id, &*d.text)),
        );
        let single = QueryService::new(graph, &idx, bed::sqe_config(), serve_config());
        let searcher = single.searcher();
        for (i, got) in first
            .final_answers
            .iter()
            .filter(|(i, _)| reqs[*i].collection == c)
        {
            let r = &reqs[*i];
            let want = single.rank_sqe_c(&r.text, &link_nodes(linker, &r.text));
            out.request(*got == want);
            p10.add(&sb.datasets, r, got);
            if let Some(t) = tracing.as_mut() {
                let root = t.tr.begin("oracle");
                let nodes = oracle.link(&mut t.tr, root, linker, &r.text);
                let backend = Backend::Single(&searcher);
                let traced = oracle.sqe_c(&mut t.tr, root, &backend, &r.text, &nodes);
                t.tr.end(root);
                out.request(traced == want);
            }
        }
    }
    out.detail("passes", passes.len().to_string());

    if let Some(t) = tracing {
        out.failed += t.mismatches;
        let (a, b) = (passes[0].counts, passes[1].counts);
        out.check(
            "counts_repeat_across_passes",
            b.features - a.features == a.features
                && b.expansions - a.expansions == a.expansions
                && passes[1].merges == passes[0].merges,
        );
        let overhead = t.tr.root_nanos("request") as f64 / t.untraced_ns.max(1) as f64 - 1.0;
        crate::replay::write_spans(args, &t.tr);
        out.layer_metrics(
            &t.tr,
            &LayerExtras {
                segments_per_shard: first.segments_per_shard,
                docs_skew: first.docs_skew,
                merges: Some(first.merges as f64),
                ..LayerExtras::single_shard(a, overhead)
            },
        );
        return out;
    }

    // The timed passes, pooled.
    let (mut ingest_s, mut scaled_ingest_s) = (0.0, 0.0);
    let mut run = Scaled::default();
    let timed_docs = (docs.len() * (passes.len() - 1)) as f64;
    let mut within = 0usize;
    // A pass is one group: it holds the rounds of both collections, whose
    // requests differ in cost.
    for p in passes.into_iter().skip(1) {
        for (secs, i) in p.ingest_s {
            ingest_s += secs;
            scaled_ingest_s += secs * pacer.factor(i);
        }
        within += p.within_slo;
        run.absorb(p.rounds);
    }
    out.check("p99_has_ten_samples_beyond", run.supports_p99());
    let within_share = within as f64 / run.samples() as f64;
    let sum = run.summary(&pacer);
    out.detail("latency", sum.describe());
    out.detail("setup_reps", SETUP_REPS.to_string());
    out.detail(
        "raw",
        format!(
            "{{\"setup_s\": {}, \"docs_per_s\": {}, \"kernel_s\": {}}}",
            raw_setup_s,
            timed_docs / ingest_s,
            pacer.median_kernel_s()
        ),
    );
    out.metric("qps", sum.qps, "1/s");
    out.metric("latency_p50_ms", sum.p50_ms, "ms");
    out.metric("latency_p99_ms", sum.p99_ms, "ms");
    out.metric("ok_share", out.ok_share(), "share");
    out.metric("p_at_10", p10.mean(), "share");
    out.metric("docs_per_s", timed_docs / scaled_ingest_s, "1/s");
    out.metric("max_qps_under_slo", sum.qps * within_share, "1/s");
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss, "MB");
    out
}
