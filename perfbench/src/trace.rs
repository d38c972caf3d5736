//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing here reaches into the program: a span is the wall time
//! of one public call, taken from outside.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent of a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed call.
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub request: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A single-threaded span recorder.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    request: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            request: 0,
        }
    }

    pub fn now(&self) -> u64 {
        crate::stats::nanos_since(self.epoch)
    }

    /// Opens the root span of a new request; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &'static str) -> u32 {
        self.request += 1;
        self.open(name, ROOT)
    }

    /// Opens a span under `parent` in the current request.
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("invariant: fewer than 2^32 spans per run");
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request: self.request,
        });
        id
    }

    pub fn end(&mut self, id: u32) {
        let now = self.now();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end = now;
        }
    }

    /// Times `f` as a span under `parent`.
    pub fn span<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Total duration of the root spans named `name`, in ns.
    pub fn root_nanos(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == ROOT && s.name == name)
            .map(Span::nanos)
            .sum()
    }

    /// Mean duration of the spans named `name`, in µs (`None` when the
    /// workload never made that call).
    pub fn mean_us(&self, name: &str) -> Option<f64> {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(sum, n), s| (sum + s.nanos(), n + 1));
        (n > 0).then(|| sum as f64 / n as f64 / 1e3)
    }

    /// Over the root spans named `root`: the share of their time that
    /// child spans cover, and their mean self time in µs.
    pub fn coverage(&self, root: &str) -> (f64, f64) {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                children[s.parent as usize].push((s.start, s.end));
            }
        }
        let (mut total, mut covered, mut roots) = (0u64, 0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent != ROOT || s.name != root {
                continue;
            }
            let kids = &mut children[i];
            kids.sort_unstable();
            let mut cursor = s.start;
            let mut cov = 0u64;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    cov += b - a;
                    cursor = b;
                }
            }
            total += s.nanos();
            covered += cov;
            roots += 1;
        }
        if total == 0 {
            return (0.0, 0.0);
        }
        let share = covered as f64 / total as f64;
        let self_us = (total - covered) as f64 / roots as f64 / 1e3;
        (share, self_us)
    }

    /// Writes every span as a tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                String::from("-")
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn coverage_merges_overlapping_children() {
        let mut t = Trace::new();
        t.spans = vec![
            span("request", 0, 100, ROOT),
            span("a", 10, 50, 0),
            span("b", 40, 80, 0),
            span("c", 90, 120, 0),
        ];
        let (share, self_us) = t.coverage("request");
        assert!((share - 0.8).abs() < 1e-12);
        assert!((self_us - 0.02).abs() < 1e-12);
        assert_eq!(t.mean_us("a"), Some(0.04));
        assert_eq!(t.mean_us("z"), None);
    }
}
