//! `experiments load-bench`: an **open-loop** load generator for the
//! admission-controlled serving path.
//!
//! Unlike [`crate::serve_bench`] — which is closed-loop (each worker
//! issues its next query only when the previous one finishes, so the
//! offered load can never exceed capacity) — this bench dispatches
//! requests on a fixed Poisson-ish schedule that does not slow down when
//! the service does. Past saturation the closed loop saturates
//! gracefully; the open loop exposes queueing collapse: unbounded
//! waiting, unbounded p99. The sweep runs every offered-load level twice:
//!
//! * **unprotected**: every request runs the full SQE_T&S pipeline with
//!   no admission and no deadline — the latency tail collapses past
//!   capacity;
//! * **protected**: requests are admitted at arrival time (bounded
//!   pending queue, deterministic token bucket, CoDel-style queue-delay
//!   shedding) and served under a per-request deadline through the
//!   degraded-mode ladder SQE_T&S → SQE_T → unexpanded.
//!
//! The workload is the dataset's query replay expanded with seeded
//! [`entitylink::perturb_query`] variants, re-linked per variant, so the
//! expansion cache sees realistic partial hit-rates instead of a fixed
//! loop. The report is written to `BENCH_load.json`; CI runs `--smoke`
//! on the small bed and archives the file as an artifact.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use entitylink::{perturb_query, NoiseRng, PerturbationModel};
use kbgraph::ArticleId;
use searchlite::{Analyzer, SegmentedIndex, ShardRouter};
use serde::Serialize;
use sqe::{
    AdmissionConfig, Clock, Deadline, MetricsSnapshot, MonotonicClock, QueryService, ServeConfig,
    ServeOutcome, Ticket,
};

use crate::context::ExperimentContext;

/// Open-loop load-generator options.
#[derive(Debug, Clone)]
pub struct LoadBenchOptions {
    /// Worker threads pulling admitted requests off the arrival queue.
    pub workers: usize,
    /// Shards to scatter over; 1 = the single-shard [`QueryService`].
    pub shards: usize,
    /// Offered-load levels as multiples of the calibrated capacity
    /// (ignored when `explicit_rates` is non-empty).
    pub multipliers: Vec<f64>,
    /// Absolute offered rates in queries/second; overrides `multipliers`.
    pub explicit_rates: Vec<f64>,
    /// Arrivals dispatched per (mode, level) run.
    pub arrivals: usize,
    /// Per-request deadline budget as a multiple of the calibrated full
    /// (SQE_T&S) p95 cost.
    pub deadline_mult: f64,
    /// Perturbation variants per replay query (variant 0 = the original).
    pub variants: u64,
    /// Expansion-cache capacity handed to every service.
    pub cache_capacity: usize,
    /// Seed for arrival times and workload shuffling.
    pub seed: u64,
}

impl Default for LoadBenchOptions {
    fn default() -> Self {
        LoadBenchOptions {
            workers: 4,
            shards: 1,
            multipliers: vec![0.5, 0.9, 1.2, 2.0, 4.0],
            explicit_rates: Vec::new(),
            arrivals: 2000,
            deadline_mult: 4.0,
            variants: 4,
            cache_capacity: 4096,
            seed: 42,
        }
    }
}

impl LoadBenchOptions {
    /// The CI smoke preset: two levels, two workers, a short run.
    pub fn smoke() -> Self {
        LoadBenchOptions {
            workers: 2,
            multipliers: vec![0.5, 2.0],
            arrivals: 160,
            variants: 2,
            ..LoadBenchOptions::default()
        }
    }
}

/// One (mode, offered-load) cell of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct LoadLevelReport {
    /// `"unprotected"` or `"protected"`.
    pub mode: String,
    /// Offered load as a multiple of calibrated capacity (0 when the
    /// rate was given explicitly).
    pub multiplier: f64,
    /// Offered arrival rate (queries/second).
    pub offered_qps: f64,
    /// Requests dispatched.
    pub arrivals: u64,
    /// Requests that produced a ranking (full or degraded).
    pub completed: u64,
    /// Requests rejected by admission control.
    pub shed: u64,
    /// Shed counts keyed by [`ShedReason::name`].
    pub shed_by_reason: BTreeMap<String, u64>,
    /// Requests abandoned at a stage boundary after their deadline.
    pub deadline_exceeded: u64,
    /// Completions per ladder rung, ordered as the service's motif
    /// ladder (full → triangular → unexpanded by default).
    pub degraded_mix: Vec<u64>,
    /// Completions per second of wall time.
    pub achieved_qps: f64,
    /// Completions that finished within the deadline budget, per second
    /// (the same budget is applied to both modes so they compare).
    pub goodput_qps: f64,
    /// shed / arrivals.
    pub shed_rate: f64,
    /// Exact median of arrival→completion latency (ms).
    pub p50_ms: f64,
    /// Exact 99th percentile (ms).
    pub p99_ms: f64,
    /// Exact 99.9th percentile (ms).
    pub p999_ms: f64,
    /// Σ in-service execution time / wall time — the concurrency the
    /// run actually achieved (comparable with `BENCH_serve.json`).
    pub achieved_concurrency: f64,
    /// Dispatch of the first arrival → last completion (ms).
    pub wall_ms: f64,
}

/// The whole open-loop report (`BENCH_load.json`).
#[derive(Debug, Clone, Serialize)]
pub struct LoadBenchReport {
    /// `"small"` or `"full"` test bed.
    pub context: String,
    /// Dataset whose replay (plus variants) forms the workload.
    pub dataset: String,
    /// Worker threads serving admitted requests.
    pub workers: usize,
    /// Shards per service (1 = monolithic).
    pub shards: usize,
    /// Perturbation variants per replay query.
    pub variants: u64,
    /// Distinct (text, nodes) workload items after perturbation.
    pub workload_size: usize,
    /// Arrival/shuffle seed.
    pub seed: u64,
    /// Calibrated per-rung p95 costs (ms), full → unexpanded.
    pub calibrated_cost_ms: Vec<f64>,
    /// Estimated capacity of the full rung (queries/second).
    pub capacity_qps_est: f64,
    /// Per-request deadline budget (ms).
    pub deadline_budget_ms: f64,
    /// One cell per (mode, offered-load level).
    pub levels: Vec<LoadLevelReport>,
}

/// What one request contributed to the run.
enum Obs {
    /// A ranking came back, at the given ladder rung index.
    Served {
        level: usize,
        arrival: u64,
        done: u64,
    },
    /// Admission (or the on-start CoDel check) rejected it.
    Shed { reason: &'static str },
    /// The deadline blew at a stage boundary mid-run.
    Deadline { arrival: u64, done: u64 },
}

/// One dispatched unit of work.
struct Job {
    idx: usize,
    ticket: Option<Ticket>,
    arrival: u64,
    deadline: Deadline,
}

/// Builds the perturbed replay workload: every dataset query expanded
/// into `variants` deterministic paraphrase/typo variants, each
/// re-linked through the automatic entity linker (the perturbed text
/// can link to a different node set — exactly the cache stress the
/// fixed replay of `serve-bench` never produces).
fn build_workload(
    ctx: &ExperimentContext,
    dataset: &str,
    variants: u64,
) -> Vec<(String, Vec<ArticleId>)> {
    let ds = ctx.bed.dataset(dataset);
    let model = PerturbationModel::light();
    let mut out = Vec::with_capacity(ds.queries.len() * variants.max(1) as usize);
    for q in &ds.queries {
        for v in 0..variants.max(1) {
            let text = perturb_query(&q.text, v, &model);
            let nodes: Vec<ArticleId> = ctx
                .linker
                .link(&text)
                .iter()
                .take(3)
                .map(|l| l.article)
                .collect();
            out.push((text, nodes));
        }
    }
    out
}

/// Builds one service with the given admission configuration, sharing
/// the bench's clock so arrival stamps and deadlines live in the same
/// timebase as the controller's decisions.
fn build_service<'a>(
    ctx: &'a ExperimentContext,
    opts: &LoadBenchOptions,
    admission: AdmissionConfig,
    clock: &Arc<MonotonicClock>,
) -> QueryService<'a> {
    let serve_cfg = ServeConfig {
        workers: opts.workers,
        cache_capacity: opts.cache_capacity,
        admission,
        ..ServeConfig::default()
    };
    let ds = ctx.bed.dataset("imageclef");
    if opts.shards > 1 {
        let shards = (0..opts.shards)
            .map(|_| SegmentedIndex::new(Analyzer::english()))
            .collect();
        let service = QueryService::from_shards_with_clock(
            &ctx.bed.kb.graph,
            ShardRouter::new(opts.shards),
            shards,
            Vec::new(),
            ctx.sqe_config,
            serve_cfg,
            Arc::clone(clock) as Arc<dyn sqe::Clock>,
        );
        if let Some(coll) = ctx.bed.collections.get(ds.collection) {
            for doc in &coll.docs {
                service
                    .add_document(&doc.id, &doc.text)
                    .expect("invariant: test-bed document ids are unique");
            }
        }
        service.seal_all();
        service.reset_metrics(); // drop the ingest-phase counters
        service
    } else {
        let index = ctx
            .indexes
            .get(ds.collection)
            .expect("invariant: every dataset's collection is indexed");
        QueryService::with_clock(
            &ctx.bed.kb.graph,
            index,
            ctx.sqe_config,
            serve_cfg,
            Arc::clone(clock) as Arc<dyn sqe::Clock>,
        )
    }
}

/// Runs every workload item once per ladder rung, which both measures
/// the per-rung cost distributions and warms the expansion cache. The
/// service records each run into its ladder histograms, so afterwards
/// the metrics snapshot *is* the calibration.
fn calibrate(service: &QueryService<'_>, workload: &[(String, Vec<ArticleId>)]) -> Vec<u64> {
    let rungs = service.metrics_snapshot().ladder_cost.len();
    for rung in 0..rungs {
        for (text, nodes) in workload {
            let hits = service.serve_at_rung(rung, text, nodes);
            std::hint::black_box(hits.len());
        }
    }
    let snap = service.metrics_snapshot();
    snap.ladder_cost.iter().map(|h| h.p95_nanos).collect()
}

/// Re-seeds the degraded-mode ladder after a metrics reset so the first
/// protected request already selects rungs from calibrated costs.
fn prime_ladder(service: &QueryService<'_>, costs: &[u64]) {
    for (rung, &cost) in costs.iter().enumerate() {
        service.record_ladder_cost(rung, cost);
    }
}

/// Exact (not bucketed) percentile over a sorted latency vector; the
/// rank convention matches `LatencyHistogram::quantile_upper_nanos`.
fn exact_percentile_ms(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted.get(rank - 1).copied().unwrap_or(0) as f64 / 1e6
}

fn bump(mix: &mut [u64], idx: usize) {
    if let Some(slot) = mix.get_mut(idx) {
        *slot += 1;
    }
}

/// Dispatches `opts.arrivals` requests at `rate_qps` in an open loop and
/// drains them through `opts.workers` pool threads. The dispatcher
/// compensates for sleep overshoot by sending immediately when behind
/// schedule, so the *average* offered rate holds even when inter-arrival
/// gaps undershoot the OS timer resolution.
#[allow(clippy::too_many_arguments)]
fn run_one_level(
    service: &QueryService<'_>,
    clock: &MonotonicClock,
    workload: &[(String, Vec<ArticleId>)],
    opts: &LoadBenchOptions,
    rate_qps: f64,
    protected: bool,
    budget_nanos: u64,
    run_seed: u64,
) -> (Vec<Obs>, u64) {
    let (tx, rx) = crossbeam::channel::unbounded::<Job>();
    let mut rng = NoiseRng::new(run_seed);
    let mut observations: Vec<Obs> = Vec::with_capacity(opts.arrivals);
    let start = clock.now_nanos();
    let worker_obs = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..opts.workers.max(1))
            .map(|_| {
                let rx = rx.clone();
                s.spawn(move |_| {
                    let mut local: Vec<Obs> = Vec::new();
                    while let Ok(job) = rx.recv() {
                        let Some((text, nodes)) = workload.get(job.idx) else {
                            continue;
                        };
                        match job.ticket {
                            Some(ticket) => {
                                let outcome =
                                    service.serve_admitted(ticket, text, nodes, job.deadline);
                                let done = clock.now_nanos();
                                local.push(match outcome {
                                    ServeOutcome::Ok(hits) => {
                                        std::hint::black_box(hits.len());
                                        Obs::Served {
                                            level: 0,
                                            arrival: job.arrival,
                                            done,
                                        }
                                    }
                                    ServeOutcome::Degraded(rung, hits) => {
                                        std::hint::black_box(hits.len());
                                        Obs::Served {
                                            level: rung.index(),
                                            arrival: job.arrival,
                                            done,
                                        }
                                    }
                                    ServeOutcome::Shed(reason) => Obs::Shed {
                                        reason: reason.name(),
                                    },
                                    ServeOutcome::DeadlineExceeded(_) => Obs::Deadline {
                                        arrival: job.arrival,
                                        done,
                                    },
                                });
                            }
                            None => {
                                let hits = service.serve_at_rung(0, text, nodes);
                                std::hint::black_box(hits.len());
                                let done = clock.now_nanos();
                                local.push(Obs::Served {
                                    level: 0,
                                    arrival: job.arrival,
                                    done,
                                });
                            }
                        }
                    }
                    local
                })
            })
            .collect();
        drop(rx);

        // The open loop: arrival k is scheduled at the cumulative sum of
        // seeded exponential inter-arrival gaps, independent of how the
        // service is doing.
        let mut cum_nanos = 0.0f64;
        for _ in 0..opts.arrivals {
            let u = rng.next_f64();
            cum_nanos += -(1.0 - u).ln() / rate_qps.max(1e-9) * 1e9;
            let target = start.saturating_add(cum_nanos as u64);
            let now = clock.now_nanos();
            if target > now {
                std::thread::sleep(Duration::from_nanos(target - now));
            }
            let idx = ((rng.next_f64() * workload.len() as f64) as usize)
                .min(workload.len().saturating_sub(1));
            let arrival = clock.now_nanos();
            if protected {
                match service.admit() {
                    Ok(ticket) => {
                        let deadline = Deadline::within(arrival, budget_nanos);
                        let _ = tx.send(Job {
                            idx,
                            ticket: Some(ticket),
                            arrival,
                            deadline,
                        });
                    }
                    Err(reason) => observations.push(Obs::Shed {
                        reason: reason.name(),
                    }),
                }
            } else {
                let _ = tx.send(Job {
                    idx,
                    ticket: None,
                    arrival,
                    deadline: Deadline::NONE,
                });
            }
        }
        drop(tx);
        let mut merged: Vec<Obs> = Vec::new();
        for h in handles {
            merged.extend(
                h.join()
                    .expect("invariant: load-bench worker threads never panic"),
            );
        }
        merged
    })
    .expect("invariant: load-bench scope threads never panic");
    observations.extend(worker_obs);
    (observations, start)
}

/// Folds one run's observations plus the post-run metrics snapshot into
/// a [`LoadLevelReport`].
#[allow(clippy::too_many_arguments)]
fn summarize(
    observations: &[Obs],
    snap: &MetricsSnapshot,
    mode: &str,
    multiplier: f64,
    offered_qps: f64,
    arrivals: u64,
    budget_nanos: u64,
    run_start: u64,
) -> LoadLevelReport {
    let mut completed = 0u64;
    let mut shed = 0u64;
    let mut shed_by_reason: BTreeMap<String, u64> = BTreeMap::new();
    let mut deadline_exceeded = 0u64;
    let mut degraded_mix = vec![0u64; snap.ladder_cost.len()];
    let mut latencies: Vec<u64> = Vec::with_capacity(observations.len());
    let mut last_done = run_start;
    for obs in observations {
        match obs {
            Obs::Served {
                level,
                arrival,
                done,
            } => {
                completed += 1;
                bump(&mut degraded_mix, *level);
                latencies.push(done.saturating_sub(*arrival));
                last_done = last_done.max(*done);
            }
            Obs::Shed { reason } => {
                shed += 1;
                *shed_by_reason.entry((*reason).to_owned()).or_insert(0) += 1;
            }
            Obs::Deadline { arrival, done } => {
                deadline_exceeded += 1;
                latencies.push(done.saturating_sub(*arrival));
                last_done = last_done.max(*done);
            }
        }
    }
    let wall_nanos = last_done.saturating_sub(run_start).max(1);
    let wall_secs = wall_nanos as f64 / 1e9;
    // Goodput counts requests answered within the budget. A
    // deadline-blown attempt's latency necessarily exceeds the budget
    // (the deadline is arrival + budget), so the filter keeps only
    // completions.
    let good = latencies.iter().filter(|&&l| l <= budget_nanos).count() as u64;
    let busy_nanos: u64 = snap.stages.last().map(|h| h.sum_nanos).unwrap_or(0);
    latencies.sort_unstable();
    LoadLevelReport {
        mode: mode.to_owned(),
        multiplier,
        offered_qps,
        arrivals,
        completed,
        shed,
        shed_by_reason,
        deadline_exceeded,
        degraded_mix,
        achieved_qps: completed as f64 / wall_secs,
        goodput_qps: good as f64 / wall_secs,
        shed_rate: shed as f64 / arrivals.max(1) as f64,
        p50_ms: exact_percentile_ms(&latencies, 0.50),
        p99_ms: exact_percentile_ms(&latencies, 0.99),
        p999_ms: exact_percentile_ms(&latencies, 0.999),
        achieved_concurrency: busy_nanos as f64 / wall_nanos as f64,
        wall_ms: wall_nanos as f64 / 1e6,
    }
}

/// Runs the whole sweep: calibrate, derive the level rates, then run
/// every level unprotected and protected.
pub fn run_load_bench(
    ctx: &ExperimentContext,
    context_name: &str,
    opts: &LoadBenchOptions,
) -> LoadBenchReport {
    let dataset = "imageclef";
    let workload = build_workload(ctx, dataset, opts.variants);
    let clock = Arc::new(MonotonicClock::new());

    // The unprotected service doubles as the calibration target; the
    // calibration pass warms its cache exactly like a cold+warm replay.
    let unprotected = build_service(ctx, opts, AdmissionConfig::unlimited(), &clock);
    let costs = calibrate(&unprotected, &workload);
    let cal_snap = unprotected.metrics_snapshot();
    let mean_full_nanos = cal_snap
        .ladder_cost
        .first()
        .map(|h| h.mean_nanos)
        .unwrap_or(0.0)
        .max(1.0);
    let capacity_qps = opts.workers.max(1) as f64 / (mean_full_nanos / 1e9);
    let budget_nanos =
        (opts.deadline_mult * costs.first().copied().unwrap_or(1_000_000) as f64).max(1.0) as u64;

    // Token rate 2× capacity is a deliberate backstop, not the primary
    // valve: queue-delay shedding and deadline-driven degradation are
    // what bound the tail; the bucket only caps pathological bursts.
    let admission = AdmissionConfig {
        queue_capacity: (opts.workers.max(1) * 16) as u64,
        rate_per_sec: (capacity_qps * 2.0).ceil().max(1.0) as u64,
        burst: (opts.workers.max(1) * 4) as u64,
        codel_target_nanos: costs.first().copied().unwrap_or(1_000_000),
        codel_interval_nanos: costs
            .first()
            .copied()
            .unwrap_or(1_000_000)
            .saturating_mul(4),
        default_deadline_nanos: 0,
    };
    let protected = build_service(ctx, opts, admission, &clock);
    // Warm the protected service's cache the same way so the two modes
    // differ only in policy, then restart its metrics from calibration.
    let _ = calibrate(&protected, &workload);

    let rates: Vec<(f64, f64)> = if opts.explicit_rates.is_empty() {
        opts.multipliers
            .iter()
            .map(|&m| (m, m * capacity_qps))
            .collect()
    } else {
        opts.explicit_rates.iter().map(|&r| (0.0, r)).collect()
    };

    let mut levels = Vec::with_capacity(rates.len() * 2);
    for (i, &(multiplier, rate_qps)) in rates.iter().enumerate() {
        let run_seed = opts
            .seed
            .wrapping_add(i as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for (svc, mode, is_protected) in [
            (&unprotected, "unprotected", false),
            (&protected, "protected", true),
        ] {
            svc.reset_metrics();
            prime_ladder(svc, &costs);
            let (obs, run_start) = run_one_level(
                svc,
                &clock,
                &workload,
                opts,
                rate_qps,
                is_protected,
                budget_nanos,
                run_seed ^ (is_protected as u64),
            );
            levels.push(summarize(
                &obs,
                &svc.metrics_snapshot(),
                mode,
                multiplier,
                rate_qps,
                opts.arrivals as u64,
                budget_nanos,
                run_start,
            ));
        }
    }

    let calibrated_cost_ms: Vec<f64> = costs.iter().map(|&c| c as f64 / 1e6).collect();
    LoadBenchReport {
        context: context_name.to_owned(),
        dataset: dataset.to_owned(),
        workers: opts.workers,
        shards: opts.shards.max(1),
        variants: opts.variants,
        workload_size: workload.len(),
        seed: opts.seed,
        calibrated_cost_ms,
        capacity_qps_est: capacity_qps,
        deadline_budget_ms: budget_nanos as f64 / 1e6,
        levels,
    }
}

/// Serializes the report to pretty JSON.
pub fn report_json(report: &LoadBenchReport) -> String {
    serde_json::to_string_pretty(report).unwrap_or_else(|_| "{}".to_owned())
}

/// Writes `BENCH_load.json` (or any other path).
pub fn write_report(report: &LoadBenchReport, path: &Path) -> io::Result<()> {
    std::fs::write(path, report_json(report))
}

/// A human-readable summary table of the report.
pub fn format_report(report: &LoadBenchReport) -> String {
    let mut s = format!(
        "=== load-bench ({} bed, {} workers, {} shard(s), budget {:.2} ms, capacity ~{:.0} qps) ===\n{:<13}{:>6}{:>9}{:>7}{:>6}{:>6}  {:>13}{:>9}{:>9}{:>9}\n",
        report.context,
        report.workers,
        report.shards,
        report.deadline_budget_ms,
        report.capacity_qps_est,
        "mode",
        "x cap",
        "offered",
        "done",
        "shed",
        "ddl",
        "mix f/t/u",
        "p50 ms",
        "p99 ms",
        "goodput"
    );
    for l in &report.levels {
        s.push_str(&format!(
            "{:<13}{:>6.1}{:>9.0}{:>7}{:>6}{:>6}  {:>4}/{:>3}/{:>3}{:>9.2}{:>9.2}{:>9.0}\n",
            l.mode,
            l.multiplier,
            l.offered_qps,
            l.completed,
            l.shed,
            l.deadline_exceeded,
            l.degraded_mix.first().copied().unwrap_or(0),
            l.degraded_mix.get(1).copied().unwrap_or(0),
            l.degraded_mix.get(2).copied().unwrap_or(0),
            l.p50_ms,
            l.p99_ms,
            l.goodput_qps
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_reports_every_level_in_both_modes() {
        let ctx = ExperimentContext::small();
        let opts = LoadBenchOptions::smoke();
        let report = run_load_bench(&ctx, "small", &opts);
        assert_eq!(report.levels.len(), 2 * opts.multipliers.len());
        assert_eq!(report.workload_size, 12 * opts.variants as usize);
        assert!(report.capacity_qps_est > 0.0);
        assert!(report.deadline_budget_ms > 0.0);
        // Calibration observed every rung.
        for &c in &report.calibrated_cost_ms {
            assert!(c > 0.0, "calibrated cost must be positive, got {c}");
        }
        for l in &report.levels {
            assert_eq!(l.arrivals, opts.arrivals as u64);
            // Every arrival is accounted for exactly once.
            assert_eq!(
                l.completed + l.shed + l.deadline_exceeded,
                l.arrivals,
                "{} x{} loses requests",
                l.mode,
                l.multiplier
            );
            assert_eq!(l.degraded_mix.iter().sum::<u64>(), l.completed);
            assert_eq!(l.shed_by_reason.values().sum::<u64>(), l.shed);
            assert!(l.p999_ms >= l.p99_ms && l.p99_ms >= l.p50_ms);
            assert!(l.wall_ms > 0.0);
            if l.mode == "unprotected" {
                // No admission, no deadline: everything completes at the
                // full rung.
                assert_eq!(l.completed, l.arrivals);
                assert_eq!(l.shed, 0);
                assert_eq!(l.deadline_exceeded, 0);
                assert_eq!(l.degraded_mix.iter().skip(1).sum::<u64>(), 0);
            }
        }
        // The JSON round-trips through the vendored serde.
        let parsed: serde_json::Value =
            serde_json::from_str(&report_json(&report)).expect("report JSON parses");
        let mode = parsed
            .get("levels")
            .and_then(|l| l.as_array())
            .and_then(|l| l.first())
            .and_then(|l| l.get("mode"))
            .and_then(|m| m.as_str());
        assert_eq!(mode, Some("unprotected"));
        let table = format_report(&report);
        assert!(table.contains("protected"));
        assert!(table.contains("goodput"));
    }

    #[test]
    fn perturbed_workload_varies_but_keeps_originals() {
        let ctx = ExperimentContext::small();
        let workload = build_workload(&ctx, "imageclef", 3);
        let ds = ctx.bed.dataset("imageclef");
        assert_eq!(workload.len(), ds.queries.len() * 3);
        // Variant 0 of every query is the original text.
        for (q, chunk) in ds.queries.iter().zip(workload.chunks(3)) {
            let original = chunk.first().map(|(t, _)| t.as_str());
            assert_eq!(original, Some(q.text.as_str()));
        }
        // Perturbation produces at least one variant text differing from
        // its original (deterministically, given the fixed seed chain).
        let varied = ds
            .queries
            .iter()
            .zip(workload.chunks(3))
            .any(|(q, chunk)| chunk.iter().skip(1).any(|(t, _)| t != &q.text));
        assert!(varied, "perturbation must vary some variant");
    }
}
