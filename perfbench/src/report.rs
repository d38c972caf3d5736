//! The result of one run and its JSON rendering.

use crate::layers::Counts;
use crate::trace::Trace;

/// Everything one workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named self-checks; any `false` makes the run incorrect.
    pub checks: Vec<(&'static str, bool)>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra provenance and sample details, as JSON values.
    pub details: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn check(&mut self, name: &'static str, ok: bool) {
        self.checks.push((name, ok));
    }

    pub fn detail(&mut self, name: &'static str, json: impl Into<String>) {
        self.details.push((name, json.into()));
    }

    /// Counts one request: attempted, and failed unless `ok`.
    pub fn request(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn ok_share(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.checks.iter().all(|(_, ok)| *ok)
            && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// Per-layer metrics of a traced run, named after the layer call
    /// they time; timed layers report the mean duration of one call.
    /// Every layer this workload calls goes into the `layers` detail;
    /// the result line carries [`COMMON_LAYERS`], which every workload
    /// calls, so none of its values is a structural zero.
    pub fn layer_metrics(&mut self, tr: &Trace, x: &LayerExtras) {
        let mut all: Vec<(&'static str, f64, &'static str)> = Vec::new();
        let mut timed = |pairs: &[(&'static str, &str)], per_us: f64, unit| {
            for &(metric, span) in pairs {
                if let Some(us) = tr.mean_us(span) {
                    all.push((metric, us * per_us, unit));
                }
            }
        };
        timed(
            &[
                ("searchlite.ql.rank_us", "searchlite.ql.rank"),
                ("sqe.sharded.rank_ql_us", "sqe.sharded.rank_ql"),
                ("sqe.combine.sqe_c_us", "sqe.combine.sqe_c"),
                ("sqe.expand.build_query_us", "sqe.expand.build_query"),
                ("sqe.query_graph.expand_us", "sqe.query_graph.expand"),
                ("entitylink.link_us", "entitylink.link"),
                ("searchlite.ingest.add_us", "searchlite.ingest.add"),
                ("sqe_admission.admit_us", "sqe_admission.admit"),
                ("sqe.serve.serve_admitted_us", "sqe.serve.serve_admitted"),
            ],
            1.0,
            "us",
        );
        timed(
            &[
                ("sqe.sharded.seal_ms", "sqe.sharded.seal_all"),
                (
                    "searchlite.searcher.publish_ms",
                    "searchlite.searcher.publish",
                ),
                ("sqe_store.snapshot_load_ms", "sqe_store.snapshot_load"),
                ("sqe.serve.from_snapshot_ms", "sqe.serve.from_snapshot"),
            ],
            1e-3,
            "ms",
        );
        let (coverage, self_us) = tr.coverage("request");
        all.push(("sqe.serve.self_us", self_us, "us"));
        all.push(("trace.coverage_share", coverage, "share"));
        all.push(("trace.overhead_share", x.overhead_share, "share"));
        all.push((
            "searchlite.query.features",
            x.counts.features_per_stage(),
            "count",
        ));
        all.push((
            "sqe.query_graph.expansions",
            x.counts.expansions_per_stage(),
            "count",
        ));
        all.push(("sqe.cache.hit_share", x.counts.hit_share(), "share"));
        all.push((
            "searchlite.ingest.segments_per_shard",
            x.segments_per_shard,
            "count",
        ));
        all.push(("sqe.sharded.docs_skew", x.docs_skew, "ratio"));
        for (metric, value, unit) in [
            ("searchlite.ingest.merges", x.merges, "count"),
            ("sqe_store.snapshot_mb", x.snapshot_mb, "MB"),
            ("open_loop.queue_wait_ms", x.queue_wait_ms, "ms"),
            ("open_loop.generator_lag_ms", x.generator_lag_ms, "ms"),
        ] {
            if let Some(v) = value {
                all.push((metric, v, unit));
            }
        }
        self.detail("layers", render_metrics(&all));
        for name in COMMON_LAYERS {
            match all.iter().find(|m| m.0 == name) {
                Some(&m) => self.metrics.push(m),
                None => self.check("every_common_layer_called", false),
            }
        }
    }

    /// Prints the detail line, then the result line last.
    pub fn print(&self) {
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(k, ok)| format!("\"{k}\": {ok}"))
            .collect();
        let checks = format!("{{{}}}", checks.join(", "));
        let details: Vec<String> = self
            .details
            .iter()
            .map(|(k, v)| (*k, v))
            .chain([("checks", &checks)])
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        println!("{{\"details\": {{{}}}}}", details.join(", "));
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            render_metrics(&self.metrics)
        );
    }
}

/// The per-layer metrics every workload's traced run measures, in the
/// order `BENCHMARK.json` lists them.
pub const COMMON_LAYERS: [&str; 13] = [
    "searchlite.ql.rank_us",
    "sqe.expand.build_query_us",
    "searchlite.query.features",
    "sqe.query_graph.expand_us",
    "sqe.query_graph.expansions",
    "sqe.cache.hit_share",
    "entitylink.link_us",
    "searchlite.searcher.publish_ms",
    "searchlite.ingest.segments_per_shard",
    "sqe.sharded.docs_skew",
    "sqe.serve.self_us",
    "trace.coverage_share",
    "trace.overhead_share",
];

/// Per-layer values a traced run takes from outside its spans; `None`
/// where the workload has no such layer.
pub struct LayerExtras {
    /// Work counts of the first whole pass over the inputs.
    pub counts: Counts,
    /// Traced request time over untraced request time, minus one.
    pub overhead_share: f64,
    pub segments_per_shard: f64,
    /// Most documents on one shard over the mean per shard.
    pub docs_skew: f64,
    pub merges: Option<f64>,
    pub snapshot_mb: Option<f64>,
    /// Mean wait of an arrival for the busy server (0 when it was idle).
    pub queue_wait_ms: Option<f64>,
    /// Mean lateness of the generator for arrivals to an idle server.
    pub generator_lag_ms: Option<f64>,
}

impl LayerExtras {
    /// The values of a service over one single-segment index per
    /// collection: one shard, nothing ingested, no snapshot, no schedule.
    pub fn single_shard(counts: Counts, overhead_share: f64) -> Self {
        LayerExtras {
            counts,
            overhead_share,
            segments_per_shard: 1.0,
            docs_skew: 1.0,
            merges: None,
            snapshot_mb: None,
            queue_wait_ms: None,
            generator_lag_ms: None,
        }
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`; a non-finite value, a
/// bug that `Outcome::correct` already reports, renders as 0.
fn render_metrics(metrics: &[(&'static str, f64, &'static str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{k}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// JSON string literal (the inputs here are plain ASCII names).
pub fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}
