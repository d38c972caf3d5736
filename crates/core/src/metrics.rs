//! Serving-layer observability: atomic counters and fixed-bucket latency
//! histograms.
//!
//! Everything here is lock-free (plain `AtomicU64`s) so recording on the
//! query hot path costs a handful of relaxed stores. No library code path
//! reads a wall clock: durations come from an injected [`Clock`], so tests
//! drive a [`ManualClock`] and get bit-exact, timing-independent metrics,
//! while the bench harness injects a [`MonotonicClock`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond source injected into the serving layer.
///
/// Implementations must be monotone non-decreasing per instance; the
/// absolute origin is arbitrary (only differences are recorded).
pub trait Clock: Send + Sync {
    /// Nanoseconds since this clock's arbitrary origin.
    fn now_nanos(&self) -> u64;
}

/// The default clock: always reads zero, so all recorded durations are
/// zero and the histograms stay empty of signal. Use it when only the
/// cache/throughput counters matter and the timing overhead is unwanted.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullClock;

impl Clock for NullClock {
    fn now_nanos(&self) -> u64 {
        0
    }
}

/// A real monotonic clock anchored at construction (`std::time::Instant`,
/// not wall-clock time — immune to system clock adjustments).
#[derive(Debug, Clone)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// Creates a clock whose origin is "now".
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        // Saturates far beyond any process lifetime worth measuring.
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A deterministic, hand-driven clock for tests: reads an atomic counter
/// that the test advances explicitly.
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// Creates a clock reading zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the reading by `delta` nanoseconds.
    pub fn advance(&self, delta: u64) {
        self.nanos.fetch_add(delta, Ordering::Relaxed);
    }

    /// Sets the reading to an absolute value.
    pub fn set(&self, nanos: u64) {
        self.nanos.store(nanos, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }
}

/// A relaxed atomic event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Zeroes the counter.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Number of histogram buckets. Bucket `i` holds durations whose bit
/// length is `i` — i.e. the power-of-two range `[2^(i-1), 2^i)` nanoseconds
/// (bucket 0 holds exactly 0). The last bucket absorbs everything from
/// `2^(BUCKETS-2)` ns (~69 seconds) upward.
pub const HISTOGRAM_BUCKETS: usize = 38;

/// A fixed power-of-two-bucket latency histogram over nanosecond
/// durations. Recording is a single relaxed `fetch_add`; percentiles are
/// resolved to the upper bound of the covering bucket, so they are exact
/// to within a factor of two — plenty for p50/p95/p99 latency trending,
/// and fully deterministic given deterministic inputs.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Bucket index of a duration: its bit length, capped to the last bucket.
fn bucket_of(nanos: u64) -> usize {
    let bits = (u64::BITS - nanos.leading_zeros()) as usize;
    bits.min(HISTOGRAM_BUCKETS - 1)
}

/// Upper bound (inclusive) in nanoseconds of bucket `i`.
fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration.
    pub fn record(&self, nanos: u64) {
        if let Some(b) = self.buckets.get(bucket_of(nanos)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded durations in nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean duration in nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_nanos() as f64 / n as f64
        }
    }

    /// The `q`-quantile (`0 < q <= 1`) as the upper bound of the covering
    /// bucket, in nanoseconds. Returns 0 for an empty histogram.
    pub fn quantile_upper_nanos(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let clamped = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based, at least 1.
        let rank = ((clamped * n as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cumulative += b.load(Ordering::Relaxed);
            if cumulative >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Exact 99.9th percentile upper bound in nanoseconds: the bucket
    /// covering the observation of rank `ceil(0.999 · n)`. "Exact" in
    /// the same sense as the other quantiles — the rank is exact, the
    /// value is resolved to the covering power-of-two bucket.
    pub fn p999_nanos(&self) -> u64 {
        self.quantile_upper_nanos(0.999)
    }

    /// Zeroes every bucket and the running count/sum. Not atomic with
    /// respect to concurrent `record` calls — reset between measurement
    /// phases, not during one.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }

    /// Immutable copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum_nanos: self.sum_nanos(),
            mean_nanos: self.mean_nanos(),
            p50_nanos: self.quantile_upper_nanos(0.50),
            p95_nanos: self.quantile_upper_nanos(0.95),
            p99_nanos: self.quantile_upper_nanos(0.99),
            p999_nanos: self.p999_nanos(),
        }
    }
}

/// Point-in-time copy of one histogram's headline statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Recorded durations.
    pub count: u64,
    /// Total recorded nanoseconds.
    pub sum_nanos: u64,
    /// Mean nanoseconds.
    pub mean_nanos: f64,
    /// Median upper bound (ns).
    pub p50_nanos: u64,
    /// 95th percentile upper bound (ns).
    pub p95_nanos: u64,
    /// 99th percentile upper bound (ns).
    pub p99_nanos: u64,
    /// 99.9th percentile upper bound (ns).
    pub p999_nanos: u64,
}

/// The pipeline stages the serving layer times separately.
pub const STAGE_NAMES: [&str; 4] = ["expand", "rank", "combine", "total"];

/// Per-ladder-rung admission metrics: a completion counter and a cost
/// histogram per rung, indexed by ladder position (0 = full quality).
/// Sized at construction from the service's `MotifLadder` length.
#[derive(Debug)]
pub struct LadderMetrics {
    /// Requests served to completion at each rung.
    pub served: Vec<Counter>,
    /// Observed service cost at each rung, recorded for every attempt
    /// (including deadline-exceeded ones — a blown attempt is still a
    /// cost observation). Zero-nanosecond observations are skipped: a
    /// `NullClock` or frozen `ManualClock` measures nothing, and feeding
    /// zeros here would collapse the cost estimates the degraded-mode
    /// ladder selects against.
    pub cost: Vec<LatencyHistogram>,
}

impl LadderMetrics {
    /// Creates zeroed metrics for a ladder of `rungs` rungs.
    pub fn new(rungs: usize) -> Self {
        LadderMetrics {
            served: (0..rungs).map(|_| Counter::new()).collect(),
            cost: (0..rungs).map(|_| LatencyHistogram::new()).collect(),
        }
    }

    /// Number of rungs these metrics cover.
    pub fn rungs(&self) -> usize {
        self.cost.len()
    }

    /// Records one cost observation for rung `index` (no-op for zero
    /// durations and out-of-range indexes).
    pub fn record_cost(&self, index: usize, nanos: u64) {
        if nanos == 0 {
            return;
        }
        if let Some(h) = self.cost.get(index) {
            h.record(nanos);
        }
    }

    /// Conservative per-rung cost estimates for ladder selection: the
    /// p95 upper bound of observed costs (0 for an unobserved rung,
    /// which keeps the selector optimistic until data arrives).
    pub fn cost_estimates(&self) -> Vec<u64> {
        self.cost
            .iter()
            .map(|h| h.quantile_upper_nanos(0.95))
            .collect()
    }

    /// Snapshots per-rung completion counts, in ladder order.
    pub fn served_snapshot(&self) -> Vec<u64> {
        self.served.iter().map(Counter::get).collect()
    }

    /// Snapshots per-rung cost histograms, in ladder order.
    pub fn cost_snapshot(&self) -> Vec<HistogramSnapshot> {
        self.cost.iter().map(LatencyHistogram::snapshot).collect()
    }

    /// Zeroes every rung's counter and histogram.
    pub fn reset(&self) {
        for c in &self.served {
            c.reset();
        }
        for h in &self.cost {
            h.reset();
        }
    }
}

/// The ingestion stages the serving layer times separately. A seal is
/// three of them: `build`, `commit` and `publish`.
pub const INGEST_STAGE_NAMES: [&str; 5] = ["add", "build", "commit", "publish", "merge"];

/// Per-stage latency histograms for the live-ingestion path.
#[derive(Debug, Default)]
pub struct IngestHistograms {
    /// Buffer insertion (duplicate check, memoized analysis, forward-list
    /// append), under the `live` lock.
    pub add: LatencyHistogram,
    /// Seal, first phase: detaching the buffer and inverting it into a
    /// segment (the expensive part, run off the `live` lock).
    pub build: LatencyHistogram,
    /// Seal, second phase: appending the segment and running the
    /// policy-driven merges it triggers.
    pub commit: LatencyHistogram,
    /// Seal, last phase: building and installing the refreshed searcher
    /// view.
    pub publish: LatencyHistogram,
    /// Explicit full compaction (`force_merge`).
    pub merge: LatencyHistogram,
}

impl IngestHistograms {
    /// Snapshots every stage, ordered as [`INGEST_STAGE_NAMES`].
    pub fn snapshot(&self) -> [HistogramSnapshot; 5] {
        [
            self.add.snapshot(),
            self.build.snapshot(),
            self.commit.snapshot(),
            self.publish.snapshot(),
            self.merge.snapshot(),
        ]
    }

    /// Zeroes every ingest histogram.
    pub fn reset(&self) {
        self.add.reset();
        self.build.reset();
        self.commit.reset();
        self.publish.reset();
        self.merge.reset();
    }
}

/// Per-stage latency histograms for the serving pipeline.
#[derive(Debug, Default)]
pub struct StageHistograms {
    /// Query-graph construction (including cache lookup).
    pub expand: LatencyHistogram,
    /// Retrieval-model scoring + top-k.
    pub rank: LatencyHistogram,
    /// SQE_C rank-range stitching.
    pub combine: LatencyHistogram,
    /// Whole per-query service time.
    pub total: LatencyHistogram,
}

impl StageHistograms {
    /// Snapshots every stage, ordered as [`STAGE_NAMES`].
    pub fn snapshot(&self) -> [HistogramSnapshot; 4] {
        [
            self.expand.snapshot(),
            self.rank.snapshot(),
            self.combine.snapshot(),
            self.total.snapshot(),
        ]
    }

    /// Zeroes every stage histogram.
    pub fn reset(&self) {
        self.expand.reset();
        self.rank.reset();
        self.combine.reset();
        self.total.reset();
    }
}

/// All counters and histograms of one [`crate::serve::QueryService`].
#[derive(Debug)]
pub struct ServeMetrics {
    /// Queries fully served.
    pub queries: Counter,
    /// Expansion-cache hits.
    pub cache_hits: Counter,
    /// Expansion-cache misses (each implies one motif traversal).
    pub cache_misses: Counter,
    /// Generation bumps (index/graph swaps observed by the cache).
    pub invalidations: Counter,
    /// Documents accepted into the live ingest buffer.
    pub docs_ingested: Counter,
    /// Successful seals (each bumps the segment-set epoch once).
    pub seals: Counter,
    /// Merge operations (policy-driven during seals plus forced).
    pub merges: Counter,
    /// Requests rejected by admission control (queue bound, rate limit,
    /// queue-delay shedding, or budget exhaustion).
    pub sheds: Counter,
    /// Requests whose deadline expired at a stage boundary.
    pub deadline_exceeded: Counter,
    /// Distinct query features resolved by QL ranking, once per shard
    /// (an `SQE_C` request resolves the union of its three stages once).
    pub ql_features_resolved: Counter,
    /// `(document, stage)` pairs the QL kernel scored, over all shards.
    pub ql_candidates_scored: Counter,
    /// KB-article titles analyzed into query features: each article
    /// once per service, on its first use.
    pub titles_analyzed: Counter,
    /// Per-stage latency histograms.
    pub stages: StageHistograms,
    /// Ingestion-path latency histograms.
    pub ingest: IngestHistograms,
    /// Degraded-mode ladder counters and cost histograms.
    pub ladder: LadderMetrics,
}

impl ServeMetrics {
    /// Creates zeroed metrics for a service whose degraded-mode ladder
    /// has `ladder_rungs` rungs.
    pub fn new(ladder_rungs: usize) -> Self {
        ServeMetrics {
            queries: Counter::new(),
            cache_hits: Counter::new(),
            cache_misses: Counter::new(),
            invalidations: Counter::new(),
            docs_ingested: Counter::new(),
            seals: Counter::new(),
            merges: Counter::new(),
            sheds: Counter::new(),
            deadline_exceeded: Counter::new(),
            ql_features_resolved: Counter::new(),
            ql_candidates_scored: Counter::new(),
            titles_analyzed: Counter::new(),
            stages: StageHistograms::default(),
            ingest: IngestHistograms::default(),
            ladder: LadderMetrics::new(ladder_rungs),
        }
    }

    /// Fraction of cache lookups that hit (0 when no lookups yet).
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.cache_hits.get();
        let total = hits + self.cache_misses.get();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Zeroes every counter and histogram, starting a fresh measurement
    /// phase (cache contents are untouched — that is the point: the warm
    /// phase of a benchmark keeps the cache and drops the cold numbers).
    pub fn reset(&self) {
        self.queries.reset();
        self.cache_hits.reset();
        self.cache_misses.reset();
        self.invalidations.reset();
        self.docs_ingested.reset();
        self.seals.reset();
        self.merges.reset();
        self.sheds.reset();
        self.deadline_exceeded.reset();
        self.ql_features_resolved.reset();
        self.ql_candidates_scored.reset();
        self.titles_analyzed.reset();
        self.stages.reset();
        self.ingest.reset();
        self.ladder.reset();
    }

    /// Point-in-time copy of every metric (evictions are tracked by the
    /// cache itself, and the epoch by the segment set; both are supplied
    /// by the caller).
    pub fn snapshot(&self, cache_evictions: u64, epoch: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            queries: self.queries.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            cache_evictions,
            invalidations: self.invalidations.get(),
            docs_ingested: self.docs_ingested.get(),
            seals: self.seals.get(),
            merges: self.merges.get(),
            sheds: self.sheds.get(),
            deadline_exceeded: self.deadline_exceeded.get(),
            ql_features_resolved: self.ql_features_resolved.get(),
            ql_candidates_scored: self.ql_candidates_scored.get(),
            titles_analyzed: self.titles_analyzed.get(),
            epoch,
            cache_hit_rate: self.cache_hit_rate(),
            stages: self.stages.snapshot(),
            ingest: self.ingest.snapshot(),
            ladder_served: self.ladder.served_snapshot(),
            ladder_cost: self.ladder.cost_snapshot(),
        }
    }
}

/// Immutable copy of a service's metrics, safe to move across threads and
/// cheap to diff (all plain values; the per-rung vectors are sized by the
/// service's ladder).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Queries fully served.
    pub queries: u64,
    /// Expansion-cache hits.
    pub cache_hits: u64,
    /// Expansion-cache misses.
    pub cache_misses: u64,
    /// Entries evicted by the LRU policy.
    pub cache_evictions: u64,
    /// Cache generation bumps.
    pub invalidations: u64,
    /// Documents accepted into the live ingest buffer.
    pub docs_ingested: u64,
    /// Successful seals.
    pub seals: u64,
    /// Merge operations (policy-driven plus forced).
    pub merges: u64,
    /// Requests rejected by admission control.
    pub sheds: u64,
    /// Requests whose deadline expired at a stage boundary.
    pub deadline_exceeded: u64,
    /// Distinct query features resolved by QL ranking, summed over shards.
    pub ql_features_resolved: u64,
    /// `(document, stage)` pairs the QL kernel scored, summed over shards.
    pub ql_candidates_scored: u64,
    /// KB-article titles analyzed into query features (each at most once
    /// per service).
    pub titles_analyzed: u64,
    /// Segment-set epoch of the published searcher view.
    pub epoch: u64,
    /// hits / (hits + misses), 0 when no lookups.
    pub cache_hit_rate: f64,
    /// Per-stage histograms, ordered as [`STAGE_NAMES`].
    pub stages: [HistogramSnapshot; 4],
    /// Ingest histograms, ordered as [`INGEST_STAGE_NAMES`].
    pub ingest: [HistogramSnapshot; 5],
    /// Completions per degraded-mode rung, in ladder order.
    pub ladder_served: Vec<u64>,
    /// Cost histograms per degraded-mode rung, in ladder order.
    pub ladder_cost: Vec<HistogramSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn quantiles_resolve_to_bucket_upper_bounds() {
        let h = LatencyHistogram::new();
        // 90 fast (≤ 1023ns bucket), 10 slow (~1µs bucket).
        for _ in 0..90 {
            h.record(1000);
        }
        for _ in 0..10 {
            h.record(2000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_upper_nanos(0.50), 1023);
        assert_eq!(h.quantile_upper_nanos(0.90), 1023);
        assert_eq!(h.quantile_upper_nanos(0.95), 2047);
        assert_eq!(h.quantile_upper_nanos(0.99), 2047);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_nanos, 0);
        assert_eq!(s.mean_nanos, 0.0);
    }

    #[test]
    fn mean_is_exact_not_bucketed() {
        let h = LatencyHistogram::new();
        h.record(100);
        h.record(300);
        assert_eq!(h.mean_nanos(), 200.0);
        assert_eq!(h.sum_nanos(), 400);
    }

    #[test]
    fn manual_clock_is_deterministic() {
        let c = ManualClock::new();
        assert_eq!(c.now_nanos(), 0);
        c.advance(5);
        c.advance(7);
        assert_eq!(c.now_nanos(), 12);
        c.set(3);
        assert_eq!(c.now_nanos(), 3);
    }

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let c = MonotonicClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn hit_rate_and_snapshot() {
        let m = ServeMetrics::new(3);
        m.cache_hits.add(3);
        m.cache_misses.inc();
        m.queries.add(4);
        assert!((m.cache_hit_rate() - 0.75).abs() < 1e-12);
        let s = m.snapshot(2, 0);
        assert_eq!(s.cache_evictions, 2);
        assert_eq!(s.queries, 4);
        assert_eq!(s.stages[0].count, 0);
    }

    #[test]
    fn reset_zeroes_counters_and_histograms() {
        let m = ServeMetrics::new(3);
        m.queries.add(7);
        m.cache_hits.inc();
        m.stages.rank.record(1000);
        m.reset();
        let s = m.snapshot(0, 0);
        assert_eq!(s.queries, 0);
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.stages[1].count, 0);
        assert_eq!(s.stages[1].sum_nanos, 0);
        assert_eq!(s.stages[1].p99_nanos, 0);
    }

    #[test]
    fn single_record_drives_every_quantile() {
        let h = LatencyHistogram::new();
        h.record(500);
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_upper_nanos(q), 511);
        }
    }

    #[test]
    fn p999_separates_from_p99_at_the_tail() {
        let h = LatencyHistogram::new();
        // 989 fast, 9 medium, 2 very slow: p99 (rank 990) lands in the
        // medium bucket, p99.9 (rank 999) in the slow one.
        for _ in 0..989 {
            h.record(1_000);
        }
        for _ in 0..9 {
            h.record(4_000);
        }
        h.record(1_000_000);
        h.record(1_000_000);
        assert_eq!(h.count(), 1_000);
        assert_eq!(h.quantile_upper_nanos(0.99), 4_095);
        assert_eq!(h.p999_nanos(), 1_048_575);
        let s = h.snapshot();
        assert_eq!(s.p999_nanos, 1_048_575);
        assert!(s.p999_nanos >= s.p99_nanos);
    }

    #[test]
    fn ladder_metrics_skip_zero_cost_observations() {
        let l = LadderMetrics::new(3);
        l.record_cost(0, 0);
        assert_eq!(
            l.cost_snapshot()[0].count,
            0,
            "zero-duration costs carry no signal"
        );
        l.record_cost(0, 10_000);
        l.record_cost(1, 4_000);
        l.record_cost(2, 1_000);
        l.record_cost(9, 5_000); // out of range: ignored
        let est = l.cost_estimates();
        assert!(est[0] >= 10_000 && est[1] >= 4_000 && est[2] >= 1_000);
        assert!(est[0] > est[1] && est[1] > est[2]);
        l.served[1].inc();
        assert_eq!(l.served_snapshot(), [0, 1, 0]);
        l.reset();
        assert_eq!(l.served_snapshot(), [0, 0, 0]);
        assert_eq!(l.cost_estimates(), [0, 0, 0]);
    }

    #[test]
    fn snapshot_carries_admission_counters() {
        let m = ServeMetrics::new(3);
        m.sheds.add(3);
        m.deadline_exceeded.inc();
        m.ladder.served[0].add(5);
        m.ladder.record_cost(0, 2_000);
        let s = m.snapshot(0, 0);
        assert_eq!(s.sheds, 3);
        assert_eq!(s.deadline_exceeded, 1);
        assert_eq!(s.ladder_served, [5, 0, 0]);
        assert_eq!(s.ladder_cost[0].count, 1);
        m.reset();
        let s = m.snapshot(0, 0);
        assert_eq!(s.sheds, 0);
        assert_eq!(s.ladder_served, [0, 0, 0]);
    }
}
