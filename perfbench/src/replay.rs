//! `replay_sqe_c`: a closed loop of `min(nproc, 2)` clients replaying
//! the full bed's queries in seeded perturbation variants through
//! `EntityLinker::link` and `QueryService::rank_sqe_c`, cache warm.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use kbgraph::ArticleId;
use searchlite::{Analyzer, Index, IndexBuilder, Searcher};
use sqe::{QueryService, ServeConfig, SqePipeline};
use synthwiki::{Collection, TestBed, TestBedConfig};

use crate::bed::{self, link_nodes, PAt10, SplitMix};
use crate::calib::{self, Pacer};
use crate::layers::{self, Backend, TracedPath};
use crate::report::{LayerExtras, Outcome};
use crate::stats::{self, nanos_since, Scaled, SetupClock};
use crate::trace::Trace;
use crate::Args;

/// Set-up repetitions; the median is reported.
const SETUP_REPS: usize = 5;

/// Documents added to an index between two calibrations of the set-up.
const BUILD_CHUNK: usize = 5_000;

/// Latency limit on a request, in ms: generous, so that it binds only
/// when a queue builds.
pub const SLO_MS: f64 = 10.0;

/// Serving configuration of every service the benchmark builds.
pub fn serve_config() -> ServeConfig {
    ServeConfig::default()
}

/// Builds one index over `(external id, text)` documents.
pub fn build_index_from<'d>(docs: impl Iterator<Item = (&'d str, &'d str)>) -> Index {
    let mut b = IndexBuilder::new(Analyzer::english());
    for (id, text) in docs {
        b.add_document(id, text)
            .expect("generated collection ids are unique");
    }
    b.build()
}

pub fn build_index(coll: &Collection) -> Index {
    build_index_from(coll.docs.iter().map(|d| (&*d.id, &*d.text)))
}

/// Builds one index as [`build_index`] does, one `"build"` step of
/// `clock` per `BUILD_CHUNK` documents and one for the final build, so
/// that each part of it is scaled by calibrations next to it.
fn build_index_timed(coll: &Collection, clock: &mut SetupClock<'_>) -> Index {
    let mut b = IndexBuilder::new(Analyzer::english());
    for chunk in coll.docs.chunks(BUILD_CHUNK) {
        clock.timed("build", || {
            for d in chunk {
                b.add_document(&d.id, &d.text)
                    .expect("generated collection ids are unique");
            }
        });
    }
    clock.timed("build", || b.build())
}

pub fn run(args: &Args) -> Outcome {
    let tb = TestBed::generate(&TestBedConfig::full());
    let reqs = bed::requests(&tb.datasets, args.seed);
    let mut order: Vec<usize> = (0..reqs.len()).collect();
    SplitMix::new(bed::derive(args.seed, 8)).shuffle(&mut order);
    let graph = &tb.kb.graph;
    let sqe_cfg = bed::sqe_config();
    let docs: usize = tb.collections.iter().map(|c| c.docs.len()).sum();

    // Set-up: the linker, one index per collection, one service each,
    // with a calibration after each step.
    let mut pacer = Pacer::new(1, 1);
    let setup = stats::repeat(SETUP_REPS, &mut pacer, |clock| {
        let linker = clock.timed("linker", || bed::build_linker(&tb.kb, &tb.space));
        let indexes: Vec<Index> = tb
            .collections
            .iter()
            .map(|c| build_index_timed(c, clock))
            .collect();
        let services = clock.timed("services", || {
            indexes
                .iter()
                .map(|i| QueryService::new(graph, i, sqe_cfg, serve_config()))
                .collect::<Vec<QueryService<'_>>>()
        });
        (linker, services)
    });
    let (setup_s, raw_setup_s) = setup.median_secs(&pacer, &[]);
    let (build_s, raw_build_s) = setup.median_secs(&pacer, &["build"]);
    let (linker, services) = &setup.last;

    // References from the sequential pipeline, outside any timing.
    let refs: Vec<Vec<String>> = {
        let pipelines: Vec<SqePipeline<'_>> = services
            .iter()
            .map(|s| SqePipeline::new(graph, s.searcher(), sqe_cfg))
            .collect();
        reqs.iter()
            .map(|r| pipelines[r.collection].rank_sqe_c(&r.text, &link_nodes(linker, &r.text)))
            .collect()
    };

    // Warm-up pass: fills the expansion caches; its answers give P@10.
    let mut out = Outcome::default();
    let mut p10 = PAt10::default();
    for (r, want) in reqs.iter().zip(&refs) {
        let got = services[r.collection].rank_sqe_c(&r.text, &link_nodes(linker, &r.text));
        out.request(&got == want);
        p10.add(&tb.datasets, r, &got);
    }
    out.detail(
        "bed",
        format!(
            "{{\"preset\": \"full\", \"docs\": {docs}, \"queries\": {}, \"requests\": {}}}",
            tb.datasets.iter().map(|d| d.queries.len()).sum::<usize>(),
            reqs.len()
        ),
    );

    if args.trace {
        let searchers: Vec<Searcher> = services.iter().map(QueryService::searcher).collect();
        traced(
            args,
            &mut out,
            &order,
            graph,
            |tr, path, i, root| {
                let r = &reqs[i];
                let nodes = path.link(tr, root, linker, &r.text);
                let backend = Backend::Single(&searchers[r.collection]);
                path.sqe_c(tr, root, &backend, &r.text, &nodes)
            },
            |i| {
                let r = &reqs[i];
                let served =
                    services[r.collection].rank_sqe_c(&r.text, &link_nodes(linker, &r.text));
                let matches_reference = served == refs[i];
                (served, matches_reference)
            },
            &searchers,
        );
        return out;
    }

    // The timed phase: closed-loop load in short intervals, each
    // followed by a calibration, after an untimed warm-up.
    let clients = crate::clients();
    let next = AtomicUsize::new(0);
    let load = |span: Duration| {
        let t_start = Instant::now();
        let per_client: Vec<(Vec<u64>, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    s.spawn(|| {
                        let (mut lat, mut failed) = (Vec::new(), 0u64);
                        while t_start.elapsed() < span {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            let i = order[k % order.len()];
                            let r = &reqs[i];
                            let t0 = Instant::now();
                            let nodes: Vec<ArticleId> = link_nodes(linker, &r.text);
                            let got = services[r.collection].rank_sqe_c(&r.text, &nodes);
                            lat.push(nanos_since(t0));
                            if got != refs[i] {
                                failed += 1;
                            }
                        }
                        (lat, failed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let secs = t_start.elapsed().as_secs_f64();
        let mut all = Vec::new();
        let mut failed = 0;
        for (lat, f) in per_client {
            all.extend(lat);
            failed += f;
        }
        (all, failed, secs)
    };
    let (warm, warm_failed, _) = load(args.run.mul_f64(crate::WARMUP_SHARE));
    out.attempted += warm.len() as u64;
    out.failed += warm_failed;
    let mut pacer = Pacer::new(clients, 1);
    let mut run = Scaled::default();
    let mut within = 0usize;
    let t_start = Instant::now();
    while t_start.elapsed() < args.run || !run.supports_p99() {
        let (lat, failed, secs) = load(calib::INTERVAL);
        let interval = pacer.end_interval();
        out.attempted += lat.len() as u64;
        out.failed += failed;
        within += lat.iter().filter(|&&ns| ns as f64 <= SLO_MS * 1e6).count();
        run.add(&lat, secs, interval);
    }
    let peak_rss = stats::peak_rss_mb();
    let within_share = within as f64 / run.samples() as f64;
    out.check("p99_has_ten_samples_beyond", run.supports_p99());
    let sum = run.summary(&pacer);
    out.detail("latency", sum.describe());
    out.detail("clients", clients.to_string());
    out.detail("setup_reps", SETUP_REPS.to_string());
    out.detail(
        "raw",
        format!(
            "{{\"setup_s\": {}, \"docs_per_s\": {}, \"kernel_s\": {}}}",
            raw_setup_s,
            docs as f64 / raw_build_s,
            pacer.median_kernel_s()
        ),
    );
    out.metric("qps", sum.qps, "1/s");
    out.metric("latency_p50_ms", sum.p50_ms, "ms");
    out.metric("latency_p99_ms", sum.p99_ms, "ms");
    out.metric("ok_share", out.ok_share(), "share");
    out.metric("p_at_10", p10.mean(), "share");
    out.metric("docs_per_s", docs as f64 / build_s, "1/s");
    out.metric("max_qps_under_slo", sum.qps * within_share, "1/s");
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss, "MB");
    out
}

/// The traced run: whole single-client passes over `order` until the
/// run time is spent, at least two. Each request runs on the traced
/// path (`trace_step`) and through the untraced service (`serve_step`,
/// which also says whether the service's answer equals the reference),
/// in alternating order so neither side always finds the caches warm.
fn traced<'g>(
    args: &Args,
    out: &mut Outcome,
    order: &[usize],
    graph: &'g kbgraph::KbGraph,
    mut trace_step: impl FnMut(&mut Trace, &mut TracedPath<'g>, usize, u32) -> Vec<String>,
    mut serve_step: impl FnMut(usize) -> (Vec<String>, bool),
    views: &[Searcher],
) {
    let mut tr = Trace::new();
    for view in views
        .iter()
        .cycle()
        .take(layers::PUBLISH_REPS * views.len())
    {
        layers::publish(&mut tr, view);
    }
    let mut path = TracedPath::new(graph, bed::sqe_config(), serve_config().cache_capacity);
    let mut untraced_ns = 0u64;
    let mut pass_counts = Vec::new();
    let t_start = Instant::now();
    while pass_counts.len() < 2 || t_start.elapsed() < args.run {
        for (k, &i) in order.iter().enumerate() {
            let mut serve = || {
                let t0 = Instant::now();
                let served = serve_step(i);
                untraced_ns += nanos_since(t0);
                served
            };
            let served_first = (k % 2 == 1).then(&mut serve);
            let root = tr.begin("request");
            let traced = trace_step(&mut tr, &mut path, i, root);
            tr.end(root);
            let (served, matches_reference) = served_first.unwrap_or_else(serve);
            out.request(traced == served && matches_reference);
        }
        pass_counts.push(path.counts);
    }
    let (first, second) = (pass_counts[0], pass_counts[1]);
    out.check(
        "counts_repeat_across_passes",
        second.features - first.features == first.features
            && second.expansions - first.expansions == first.expansions,
    );
    let (coverage, _) = tr.coverage("request");
    out.check("coverage_at_least_0.95", coverage >= 0.95);
    out.detail("passes", pass_counts.len().to_string());
    write_spans(args, &tr);
    out.layer_metrics(
        &tr,
        &LayerExtras::single_shard(
            first,
            tr.root_nanos("request") as f64 / untraced_ns.max(1) as f64 - 1.0,
        ),
    );
}

/// Writes the run's spans next to the build output.
pub fn write_spans(args: &Args, tr: &Trace) {
    let path = args
        .out_dir
        .join(format!("spans-{}-{}.tsv", args.workload, args.seed));
    if let Err(e) = tr.write_tsv(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
