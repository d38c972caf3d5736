//! Exact statistics over raw samples, and process memory.

use std::time::{Duration, Instant};

use crate::calib::Pacer;

/// Exact percentile of `sorted` (ascending) by the nearest-rank rule:
/// the smallest sample with at least `p`% of all samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles a report may carry, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Latency summary of raw per-request nanosecond samples.
pub struct Latency {
    pub samples: usize,
    /// The p99 of all samples together.
    pub p99_ms: f64,
    /// The highest percentile of `LADDER` with at least ten samples
    /// beyond it, and its value.
    pub top_percentile: f64,
    pub top_ms: f64,
}

impl Latency {
    pub fn of(mut nanos: Vec<u64>) -> Latency {
        nanos.sort_unstable();
        let n = nanos.len();
        let top = LADDER
            .iter()
            .copied()
            .rfind(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0)
            .unwrap_or(50.0);
        let ms = |p: f64| percentile(&nanos, p) as f64 / 1e6;
        Latency {
            samples: n,
            p99_ms: ms(99.0),
            top_percentile: top,
            top_ms: ms(top),
        }
    }
}

/// Fewest samples in one group of consecutive intervals whose
/// percentiles [`Scaled::summary`] takes: the p99 of a group has at least
/// twenty samples beyond it.
pub const GROUP_SAMPLES: usize = 1_000;

/// Cuts samples `[0, ends.last())` at some of `ends` into consecutive
/// groups of at least [`GROUP_SAMPLES`]; a short last group joins the one
/// before.
fn groups(ends: &[usize]) -> Vec<(usize, usize)> {
    let len = ends.last().copied().unwrap_or(0);
    let mut out: Vec<(usize, usize)> = Vec::new();
    let mut start = 0;
    for &end in ends {
        if end - start >= GROUP_SAMPLES {
            out.push((start, end));
            start = end;
        }
    }
    match out.last_mut() {
        Some(last) => last.1 = len,
        None => out.push((0, len)),
    }
    out
}

/// The exact `p` percentile of each group of `samples`, in ms.
fn group_percentiles(samples: &[u64], groups: &[(usize, usize)], p: f64) -> Vec<f64> {
    groups
        .iter()
        .map(|&(a, b)| {
            let mut g = samples[a..b].to_vec();
            g.sort_unstable();
            percentile(&g, p) as f64 / 1e6
        })
        .collect()
}

/// The lower quartile of `values` (nearest rank).
fn lower_quartile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "quartile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 4]
}

/// The lower quartile, over consecutive groups of at least
/// [`GROUP_SAMPLES`] of `samples`, of each group's exact `p` percentile,
/// in ms.
pub fn grouped_percentile(samples: &[u64], p: f64) -> f64 {
    let ends: Vec<usize> = (GROUP_SAMPLES..samples.len())
        .step_by(GROUP_SAMPLES)
        .chain([samples.len()])
        .collect();
    lower_quartile(&group_percentiles(samples, &groups(&ends), p))
}

/// The requests of a timed phase, measured in short intervals that a
/// [`Pacer`] brackets. Every latency sample and every interval's length
/// is kept as measured; [`Scaled::summary`] scales them to reference host
/// speed by their interval's factor (see `calib`).
#[derive(Default)]
pub struct Scaled {
    raw_ns: Vec<u64>,
    /// Per interval: the end of its samples in `raw_ns`, its length in s
    /// and its index in the pacer.
    intervals: Vec<(usize, f64, usize)>,
    /// Sample positions at which groups may be cut.
    cuts: Vec<usize>,
}

impl Scaled {
    /// Adds interval `interval` of the pacer: its latency samples in ns
    /// and its length in s. Groups may be cut after it.
    pub fn add(&mut self, latencies: &[u64], secs: f64, interval: usize) {
        self.raw_ns.extend_from_slice(latencies);
        self.intervals.push((self.raw_ns.len(), secs, interval));
        self.cuts.push(self.raw_ns.len());
    }

    /// Adds every interval of `other` (of the same pacer). Groups may be
    /// cut after the last of them, not between them.
    pub fn absorb(&mut self, other: Scaled) {
        let base = self.raw_ns.len();
        self.raw_ns.extend(other.raw_ns);
        self.intervals.extend(
            other
                .intervals
                .iter()
                .map(|&(end, secs, i)| (end + base, secs, i)),
        );
        self.cuts.push(self.raw_ns.len());
    }

    pub fn samples(&self) -> usize {
        self.raw_ns.len()
    }

    /// True when there is at least one whole group.
    pub fn supports_p99(&self) -> bool {
        self.samples() >= GROUP_SAMPLES
    }

    /// Summarises the phase, with the factors of `pacer`. Throughput is
    /// all requests over all time. Percentiles are exact within each
    /// group of consecutive intervals holding at least [`GROUP_SAMPLES`]
    /// samples (a short last group joins the one before), and the lower
    /// quartile over groups is reported. The host stalls the process for
    /// milliseconds at a time, at times in most half-seconds of a run; a
    /// group that holds a stall reads high, and up to three quarters of
    /// the groups may hold one before the result moves.
    pub fn summary(self, pacer: &Pacer) -> Summary {
        let mut scaled_ns = Vec::with_capacity(self.raw_ns.len());
        let (mut secs, mut scaled_secs, mut start) = (0.0, 0.0, 0);
        for &(end, s, i) in &self.intervals {
            let factor = pacer.factor(i);
            scaled_ns.extend(
                self.raw_ns[start..end]
                    .iter()
                    .map(|&ns| (ns as f64 * factor) as u64),
            );
            secs += s;
            scaled_secs += s * factor;
            start = end;
        }
        let groups = groups(&self.cuts);
        let per_group = |v: &[u64], p: f64| lower_quartile(&group_percentiles(v, &groups, p));
        let n = self.raw_ns.len() as f64;
        Summary {
            qps: n / scaled_secs,
            p50_ms: per_group(&scaled_ns, 50.0),
            p99_ms: per_group(&scaled_ns, 99.0),
            raw_qps: n / secs,
            raw_p50_ms: per_group(&self.raw_ns, 50.0),
            raw_p99_ms: per_group(&self.raw_ns, 99.0),
            intervals: self.intervals.len(),
            groups: groups.len(),
            group_p99_ms: group_percentiles(&scaled_ns, &groups, 99.0),
            latency: Latency::of(self.raw_ns),
        }
    }
}

/// Throughput and latency of a timed phase, at reference host speed and
/// as measured.
pub struct Summary {
    pub qps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub raw_qps: f64,
    pub raw_p50_ms: f64,
    pub raw_p99_ms: f64,
    pub intervals: usize,
    pub groups: usize,
    /// The p99 of each group, at reference speed.
    pub group_p99_ms: Vec<f64>,
    /// All samples as measured.
    pub latency: Latency,
}

impl Summary {
    /// The detail-line record: sample count, top percentile and the
    /// figures as measured.
    pub fn describe(&self) -> String {
        format!(
            "{{\"samples\": {}, \"intervals\": {}, \"groups\": {}, \"top_percentile\": {}, \"top_ms\": {}, \"all_p99_ms\": {}, \"raw_qps\": {}, \"raw_p50_ms\": {}, \"raw_p99_ms\": {}, \"group_p99_ms\": {:?}}}",
            self.latency.samples,
            self.intervals,
            self.groups,
            self.latency.top_percentile,
            self.latency.top_ms,
            self.latency.p99_ms,
            self.raw_qps,
            self.raw_p50_ms,
            self.raw_p99_ms,
            self.group_p99_ms
        )
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds elapsed since `t0`.
pub fn nanos_since(t0: Instant) -> u64 {
    nanos_u64(t0.elapsed())
}

pub fn nanos_u64(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One timed step of a set-up: its label, its duration as measured in
/// seconds, and its interval in the pacer.
type Step = (&'static str, f64, usize);

/// Times the steps of one set-up repetition, each followed by a
/// calibration.
pub struct SetupClock<'p> {
    pacer: &'p mut Pacer,
    steps: Vec<Step>,
}

impl SetupClock<'_> {
    /// Runs and times one step, under `label`.
    pub fn timed<T>(&mut self, label: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        let interval = self.pacer.end_interval();
        self.steps.push((label, secs, interval));
        out
    }
}

/// What [`repeat`] measured.
pub struct Repeated<T> {
    /// The steps of each repetition.
    reps: Vec<Vec<Step>>,
    /// Output of the last repetition.
    pub last: T,
}

impl<T> Repeated<T> {
    /// The median over repetitions of the summed duration of the steps
    /// under `labels` (every step when empty), at reference speed by the
    /// factors of `pacer` and as measured, in seconds.
    pub fn median_secs(&self, pacer: &Pacer, labels: &[&str]) -> (f64, f64) {
        let (mut scaled, mut raw) = (Vec::new(), Vec::new());
        for steps in &self.reps {
            let chosen = steps
                .iter()
                .filter(|(label, ..)| labels.is_empty() || labels.contains(label));
            let (mut s, mut r) = (0.0, 0.0);
            for &(_, secs, i) in chosen {
                s += secs * pacer.factor(i);
                r += secs;
            }
            scaled.push(s);
            raw.push(r);
        }
        (median(&scaled), median(&raw))
    }
}

/// Runs the set-up `f` `reps` times, timing its steps.
pub fn repeat<T>(
    reps: usize,
    pacer: &mut Pacer,
    mut f: impl FnMut(&mut SetupClock<'_>) -> T,
) -> Repeated<T> {
    let mut all = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let mut clock = SetupClock {
            pacer: &mut *pacer,
            steps: Vec::new(),
        };
        last = Some(f(&mut clock));
        all.push(clock.steps);
    }
    Repeated {
        reps: all,
        last: last.expect("at least one repetition ran"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn top_percentile_keeps_ten_samples_beyond() {
        let l = Latency::of((0..1000).collect());
        assert_eq!(l.top_percentile, 99.0);
        let l = Latency::of((0..999).collect());
        assert_eq!(l.top_percentile, 90.0);
    }

    #[test]
    fn intervals_scale_by_their_factor() {
        let lat: Vec<u64> = (1..=1000).map(|i| i * 1_000).collect();
        // Every kernel run took half the reference time: factor 2.
        let pacer = Pacer::with_kernel_s(vec![crate::calib::REFERENCE_S / 2.0; 4]);
        let mut run = Scaled::default();
        run.add(&lat, 0.5, 0);
        run.add(&lat, 0.5, 1);
        run.add(&[500_000; 10], 0.01, 2);
        assert!(run.supports_p99());
        let s = run.summary(&pacer);
        assert_eq!(s.intervals, 3);
        assert_eq!(s.groups, 2);
        assert_eq!(s.raw_qps, 2010.0 / 1.01);
        assert_eq!(s.qps, s.raw_qps / 2.0);
        assert_eq!(s.raw_p50_ms, 0.5);
        assert_eq!(s.p50_ms, 1.0);
    }

    #[test]
    fn grouped_percentile_skips_a_stalled_group() {
        // Four groups of 1,000; one holds a stall of 20 samples at 5 ms.
        let mut v: Vec<u64> = (0..4_000).map(|i| 100_000 + i % 1_000).collect();
        v[2_000..2_020].fill(5_000_000);
        assert_eq!(grouped_percentile(&v, 99.0), 0.100_989);
        assert_eq!(lower_quartile(&[4.0, 1.0, 3.0, 2.0, 5.0]), 2.0);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
