//! `open_loop`: a cold start from a snapshot, then arrivals on a seeded
//! Poisson schedule. One thread spin-waits to each due time and serves
//! the request inline (link, `admit`, `serve_admitted` with no deadline
//! and unlimited admission, so every request is served at rung 0,
//! `SQE_T&S`). Latency runs from the due time, so a stall also delays
//! every request queued behind it.

use std::time::{Duration, Instant};

use entitylink::EntityLinker;
use searchlite::SearchHit;
use sqe::{Deadline, MotifSet, QueryService, ServeOutcome, SqePipeline};
use sqe_store::{write_snapshot, Snapshot, SnapshotContents};
use synthwiki::{TestBed, TestBedConfig};

use crate::bed::{self, link_nodes, PAt10, Request, SplitMix};
use crate::calib::{self, Pacer};
use crate::layers::{self, Counts, TracedPath};
use crate::replay::{build_index, serve_config, write_spans, SLO_MS};
use crate::report::{LayerExtras, Outcome};
use crate::stats::{self, median, nanos_since, nanos_u64, Scaled};
use crate::trace::{Trace, ROOT};
use crate::Args;

/// Set-up repetitions; the median is reported.
const SETUP_REPS: usize = 5;

/// The fixed arrival rate, well below the knee: the ladder crosses the
/// latency limit at 6,000–10,000/s on the reference host. A lower rate
/// leaves the server idle longer between arrivals and measured slower
/// and no steadier (see README.md).
const FIXED_RATE: f64 = 2_000.0;

/// Share of the run spent at the fixed rate; the rest goes to the sweep.
const FIXED_SHARE: f64 = 0.4;

/// Kernel runs at each calibration of the sweep, which has fewer
/// calibrations than the fixed-rate phase.
const SWEEP_CALIB_REPS: usize = 2;

/// The sweep's ladder: `LADDER_START * LADDER_STEP^i`, 4% steps.
const LADDER_START: f64 = 2_000.0;
const LADDER_STEP: f64 = 1.04;
const LADDER_RUNGS: usize = 60;

/// The sweep climbs the ladder this many rungs at a time until a rung
/// misses the limit.
const COARSE_STRIDE: usize = 4;

/// Then a staircase of this many rungs runs near the knee: one rung up
/// after a rung that meets the limit, one down after one that misses.
/// Near the knee a rung's outcome turns on chance (the arrivals, and
/// whether the host stalled during it), so the sweep reports where the
/// staircase settles (the rate a rung meets the limit at half the time),
/// not the first miss.
const STAIR_RUNGS: usize = 16;

/// Share of the run one ladder rung lasts, at least `MIN_RUNG_REQUESTS`.
const COARSE_RUNG_SHARE: f64 = 0.02;
const STAIR_RUNG_SHARE: f64 = 0.025;
const MIN_RUNG_REQUESTS: usize = 1_000;

/// A rung's backlog grows when the median wait of its last quarter of
/// arrivals exceeds that of its first quarter by this much.
const GROWTH_LIMIT_MS: f64 = 1.0;

/// What one phase of arrivals measured.
#[derive(Default)]
struct Phase {
    /// Due time to completion, per request.
    latencies: Vec<u64>,
    /// Due time since the phase began, per request.
    dues: Vec<u64>,
    /// Dispatch minus due time of requests that arrived while the server
    /// was busy (queue wait), in arrival order; 0 for the others.
    waits: Vec<u64>,
    /// Spin overshoot past the due time of requests that arrived while
    /// the server was idle (generator lag).
    lags: Vec<u64>,
    ok: u64,
    failed: u64,
    wall_s: f64,
}

impl Phase {
    /// Median queue wait of the last quarter of the arrivals minus that of
    /// the first quarter, ms. Medians, so that one stall of the host does
    /// not read as a growing backlog.
    fn wait_growth_ms(&self) -> f64 {
        let q = self.waits.len() / 4;
        if q == 0 {
            return 0.0;
        }
        let median_ms =
            |s: &[u64]| median(&s.iter().map(|&w| w as f64 / 1e6).collect::<Vec<f64>>());
        median_ms(&self.waits[self.waits.len() - q..]) - median_ms(&self.waits[..q])
    }
}

/// Runs arrivals at `rate` for `span` (and at least `min_requests`),
/// cycling through `order` from `*cursor`. `serve` handles one request
/// and says whether its answer was right.
fn phase(
    rate: f64,
    span: Duration,
    min_requests: usize,
    rng: &mut SplitMix,
    order: &[usize],
    cursor: &mut usize,
    mut serve: impl FnMut(usize) -> bool,
) -> Phase {
    let mut p = Phase::default();
    let span_ns = span.as_nanos() as f64;
    let start = Instant::now();
    let mut due_ns = 0.0f64;
    loop {
        due_ns += -(1.0 - rng.next_f64()).ln() / rate * 1e9;
        if due_ns > span_ns && p.latencies.len() >= min_requests {
            break;
        }
        let due = start + Duration::from_nanos(due_ns as u64);
        let mut now = Instant::now();
        if now < due {
            while now < due {
                std::hint::spin_loop();
                now = Instant::now();
            }
            p.lags.push(nanos_u64(now - due));
            p.waits.push(0);
        } else {
            p.waits.push(nanos_u64(now - due));
        }
        let i = order[*cursor % order.len()];
        *cursor += 1;
        let ok = serve(i);
        p.latencies.push(nanos_u64(due.elapsed()));
        p.dues.push(due_ns as u64);
        if ok {
            p.ok += 1;
        } else {
            p.failed += 1;
        }
    }
    p.wall_s = start.elapsed().as_secs_f64();
    p
}

/// One untraced request: link, admit, serve at rung 0 with no deadline.
fn serve_one(
    tr: Option<&mut Trace>,
    svc: &QueryService<'_>,
    linker: &EntityLinker,
    r: &Request,
) -> Option<Vec<SearchHit>> {
    let nodes = link_nodes(linker, &r.text);
    let outcome = match tr {
        Some(tr) => {
            let ticket = tr.span("sqe_admission.admit", ROOT, || svc.admit()).ok()?;
            tr.span("sqe.serve.serve_admitted", ROOT, || {
                svc.serve_admitted(ticket, &r.text, &nodes, Deadline::NONE)
            })
        }
        None => svc.serve_admitted(svc.admit().ok()?, &r.text, &nodes, Deadline::NONE),
    };
    match outcome {
        ServeOutcome::Ok(hits) => Some(hits),
        _ => None,
    }
}

pub fn run(args: &Args) -> Outcome {
    let tb = TestBed::generate(&TestBedConfig::full());
    let reqs = bed::requests(&tb.datasets, args.seed);
    let mut order: Vec<usize> = (0..reqs.len()).collect();
    SplitMix::new(bed::derive(args.seed, 8)).shuffle(&mut order);
    let sqe_cfg = bed::sqe_config();
    let names: Vec<&str> = tb.collections.iter().map(|c| c.name.as_str()).collect();
    let docs: usize = tb.collections.iter().map(|c| c.docs.len()).sum();

    // Untimed prep: the snapshot the cold start opens.
    let snap_path = args.out_dir.join(format!(
        "open_loop-{}-{}.snap",
        args.seed,
        std::process::id()
    ));
    let snapshot_bytes = {
        let linker = bed::build_linker(&tb.kb, &tb.space);
        let indexes: Vec<_> = tb.collections.iter().map(build_index).collect();
        let segments: Vec<[&searchlite::Index; 1]> = indexes.iter().map(|i| [i]).collect();
        let collections: Vec<(&str, &[&searchlite::Index])> = names
            .iter()
            .copied()
            .zip(segments.iter().map(|s| &s[..]))
            .collect();
        let contents = SnapshotContents {
            graph: &tb.kb.graph,
            collections: &collections,
            dict: linker.dictionary(),
        };
        write_snapshot(&snap_path, &contents).expect("snapshot writes into the output directory")
    };

    let mut tr = Trace::new();
    // Set-up: the linker, the snapshot load and one service per
    // collection over it, repeated; one more opening serves.
    let mut pacer = Pacer::new(1, calib::SETUP_KERNEL_RUNS);
    let setup = stats::repeat(SETUP_REPS, &mut pacer, |clock| {
        clock.timed("linker", || bed::build_linker(&tb.kb, &tb.space));
        let snap = clock.timed("open", || {
            tr.span("sqe_store.snapshot_load", ROOT, || {
                Snapshot::load(&snap_path)
            })
            .expect("snapshot written above loads")
        });
        let services = clock.timed("open", || {
            tr.span("sqe.serve.from_snapshot", ROOT, || {
                open_services(&snap, &names)
            })
        });
        drop(services);
    });
    let (setup_s, raw_setup_s) = setup.median_secs(&pacer, &[]);
    let (open_s, raw_open_s) = setup.median_secs(&pacer, &["open"]);
    let linker = bed::build_linker(&tb.kb, &tb.space);
    let snap = Snapshot::load(&snap_path).expect("snapshot written above loads");
    let services = open_services(&snap, &names);
    if let Err(e) = std::fs::remove_file(&snap_path) {
        eprintln!("perfbench: could not remove {}: {e}", snap_path.display());
    }

    // References from the sequential pipeline, outside any timing.
    let ts = MotifSet::t_and_s();
    let refs: Vec<Vec<SearchHit>> = {
        let pipelines: Vec<SqePipeline<'_>> = services
            .iter()
            .map(|s| SqePipeline::new(snap.graph(), s.searcher(), sqe_cfg))
            .collect();
        reqs.iter()
            .map(|r| {
                pipelines[r.collection]
                    .rank_sqe(&r.text, &link_nodes(&linker, &r.text), &ts)
                    .0
            })
            .collect()
    };

    // Warm-up pass: fills the expansion caches; its answers give P@10.
    let mut out = Outcome::default();
    let mut p10 = PAt10::default();
    for (r, want) in reqs.iter().zip(&refs) {
        let svc = &services[r.collection];
        let got = serve_one(None, svc, &linker, r);
        out.request(got.as_ref() == Some(want));
        p10.add(&tb.datasets, r, &svc.external_ids(&got.unwrap_or_default()));
    }
    out.detail(
        "bed",
        format!(
            "{{\"preset\": \"full\", \"docs\": {docs}, \"requests\": {}, \"snapshot_bytes\": {snapshot_bytes}}}",
            reqs.len()
        ),
    );

    let mut rng = SplitMix::new(bed::derive(args.seed, 9));
    let mut cursor = 0usize;
    let run_span = args.run;

    if args.trace {
        let mut path = TracedPath::new(snap.graph(), sqe_cfg, serve_config().cache_capacity);
        let searchers: Vec<_> = services.iter().map(QueryService::searcher).collect();
        for view in searchers
            .iter()
            .cycle()
            .take(layers::PUBLISH_REPS * searchers.len())
        {
            layers::publish(&mut tr, view);
        }
        let mut untraced_ns = 0u64;
        let mut counts: Vec<Counts> = Vec::new();
        let mut served_requests = 0usize;
        let trace = &mut tr;
        let p = phase(
            FIXED_RATE,
            run_span,
            2 * reqs.len(),
            &mut rng,
            &order,
            &mut cursor,
            |i| {
                let r = &reqs[i];
                let svc = &services[r.collection];
                // Alternate which side runs first, so neither always finds
                // the caches warm.
                let mut serve = |tr: &mut Trace| {
                    let t0 = Instant::now();
                    let hits = serve_one(Some(tr), svc, &linker, r);
                    untraced_ns += nanos_since(t0);
                    hits
                };
                let served_first = (served_requests % 2 == 1).then(|| serve(trace));
                let root = trace.begin("request");
                let nodes = path.link(trace, root, &linker, &r.text);
                let ticket = trace.span("sqe_admission.admit", root, || svc.admit());
                let started = ticket.map(|t| {
                    trace.span("sqe_admission.on_start", root, || {
                        svc.admission().on_start(t, 0)
                    })
                });
                let traced = path.rank(trace, root, &searchers[r.collection], &r.text, &nodes, &ts);
                trace.end(root);
                let served = served_first.unwrap_or_else(|| serve(trace));
                served_requests += 1;
                if served_requests.is_multiple_of(reqs.len()) {
                    counts.push(path.counts);
                }
                matches!(started, Ok(Ok(())))
                    && traced == refs[i]
                    && served.as_ref() == Some(&refs[i])
            },
        );
        out.attempted += p.ok + p.failed;
        out.failed += p.failed;
        let (a, b) = (counts[0], counts[1]);
        out.check(
            "counts_repeat_across_passes",
            b.features - a.features == a.features && b.stages - a.stages == a.stages,
        );
        write_spans(args, &tr);
        let overhead = tr.root_nanos("request") as f64 / untraced_ns.max(1) as f64 - 1.0;
        let mean_ms = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64 / 1e6;
        out.layer_metrics(
            &tr,
            &LayerExtras {
                snapshot_mb: Some(snapshot_bytes as f64 / (1024.0 * 1024.0)),
                generator_lag_ms: Some(mean_ms(&p.lags)),
                queue_wait_ms: Some(mean_ms(&p.waits)),
                ..LayerExtras::single_shard(a, overhead)
            },
        );
        return out;
    }

    let mut serve = |i: usize| {
        let r = &reqs[i];
        serve_one(None, &services[r.collection], &linker, r).as_ref() == Some(&refs[i])
    };
    let warm = phase(
        FIXED_RATE,
        run_span.mul_f64(crate::WARMUP_SHARE),
        0,
        &mut rng,
        &order,
        &mut cursor,
        &mut serve,
    );
    out.attempted += warm.ok + warm.failed;
    out.failed += warm.failed;
    // The fixed-rate phase: arrivals in short intervals, each followed
    // by a calibration.
    let mut pacer = Pacer::new(1, 1);
    let mut fixed = Scaled::default();
    let t_fixed = Instant::now();
    while t_fixed.elapsed() < run_span.mul_f64(FIXED_SHARE) || !fixed.supports_p99() {
        let p = phase(
            FIXED_RATE,
            calib::INTERVAL,
            0,
            &mut rng,
            &order,
            &mut cursor,
            &mut serve,
        );
        let interval = pacer.end_interval();
        out.attempted += p.ok + p.failed;
        out.failed += p.failed;
        fixed.add(&p.latencies, p.wall_s, interval);
    }
    // The sweep: coarse strides up the ladder until a rung misses, then
    // the staircase from between the last two coarse rungs.
    // Rate, whether it met the limit, and pacer interval of each rung run.
    let mut rungs_run: Vec<(f64, bool, usize)> = Vec::new();
    let mut sweep_pacer = Pacer::new(1, SWEEP_CALIB_REPS);
    let mut rung_ok = |k: usize, share: f64, rng: &mut SplitMix, cursor: &mut usize| {
        let rate = LADDER_START * LADDER_STEP.powi(k as i32);
        let p = phase(
            rate,
            run_span.mul_f64(share),
            MIN_RUNG_REQUESTS,
            rng,
            &order,
            cursor,
            &mut serve,
        );
        let interval = sweep_pacer.end_interval();
        let p99_ms = stats::grouped_percentile(&p.latencies, 99.0);
        let ok = p99_ms <= SLO_MS && p.wait_growth_ms() <= GROWTH_LIMIT_MS;
        rungs_run.push((rate, ok, interval));
        (ok, p)
    };
    let mut sweep = Vec::new();
    let mut k = 0;
    loop {
        let (ok, p) = rung_ok(k, COARSE_RUNG_SHARE, &mut rng, &mut cursor);
        sweep.push(p);
        if !ok || k + COARSE_STRIDE >= LADDER_RUNGS {
            break;
        }
        k += COARSE_STRIDE;
    }
    let stair_start = sweep.len();
    // Two rungs a step until the first reversal, then one.
    let (mut k, mut step) = (k.saturating_sub(COARSE_STRIDE / 2), 2);
    let mut last_ok = None;
    for _ in 0..STAIR_RUNGS {
        let (ok, p) = rung_ok(k, STAIR_RUNG_SHARE, &mut rng, &mut cursor);
        sweep.push(p);
        if last_ok.is_some_and(|l| l != ok) {
            step = 1;
        }
        last_ok = Some(ok);
        k = if ok {
            (k + step).min(LADDER_RUNGS - 1)
        } else {
            k.saturating_sub(step)
        };
    }
    for p in &sweep {
        out.attempted += p.ok + p.failed;
        out.failed += p.failed;
    }
    let peak_rss = stats::peak_rss_mb();

    out.check("p99_has_ten_samples_beyond", fixed.supports_p99());
    let fixed = fixed.summary(&pacer);
    // Where the staircase settled: the mean rate of its rungs from its
    // first reversal on, each rate at reference speed by the factor of
    // its own run.
    let stair = &rungs_run[stair_start..];
    let settled = (1..stair.len())
        .find(|&i| stair[i].1 != stair[i - 1].1)
        .map_or(stair, |i| &stair[i..]);
    let max_rate = settled
        .iter()
        .map(|&(rate, _, i)| rate / sweep_pacer.factor(i))
        .sum::<f64>()
        / settled.len() as f64;
    let met_any = rungs_run.iter().any(|r| r.1);
    out.check("fixed_rate_meets_limit", fixed.raw_p99_ms <= SLO_MS);
    out.check("sweep_passed_a_rung", met_any);
    out.detail("latency", fixed.describe());
    out.detail("setup_reps", SETUP_REPS.to_string());
    out.detail(
        "sweep",
        format!(
            "[{}]",
            rungs_run
                .iter()
                .map(|&(r, ok, i)| format!("[{r:.1}, {ok}, {:.4}]", sweep_pacer.factor(i)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    out.detail(
        "raw",
        format!(
            "{{\"setup_s\": {}, \"docs_per_s\": {}, \"kernel_s\": {}}}",
            raw_setup_s,
            docs as f64 / raw_open_s,
            pacer.median_kernel_s()
        ),
    );
    // Arrivals keep to the schedule whatever the host's speed, so the
    // fixed-rate throughput is not scaled.
    out.metric("qps", fixed.raw_qps, "1/s");
    out.metric("latency_p50_ms", fixed.p50_ms, "ms");
    out.metric("latency_p99_ms", fixed.p99_ms, "ms");
    out.metric("ok_share", out.ok_share(), "share");
    out.metric("p_at_10", p10.mean(), "share");
    out.metric("docs_per_s", docs as f64 / open_s, "1/s");
    out.metric("max_qps_under_slo", max_rate, "1/s");
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss, "MB");
    out
}

fn open_services<'s>(snap: &'s Snapshot, names: &[&str]) -> Vec<QueryService<'s>> {
    names
        .iter()
        .map(|n| {
            QueryService::from_snapshot(snap, n, bed::sqe_config(), serve_config())
                .expect("the snapshot holds every collection")
        })
        .collect()
}
