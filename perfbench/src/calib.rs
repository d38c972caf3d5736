//! Host-speed calibration.
//!
//! A shared virtual machine changes speed by itself: on a 2-vCPU VM, by
//! up to 1.5× for seconds to minutes at a time. A plain integer loop does
//! not see it; work that lives in the caches and the memory allocator
//! does. So every timed interval of a workload is bracketed by runs of a
//! fixed kernel of that kind (a hash map filled and probed, then a
//! sort), which calls no code of the program. A time measured in an
//! interval is scaled by `REFERENCE_S` over the kernel's time around
//! that interval, which gives the time it would have taken with the
//! host at its reference speed. A change to the program moves the
//! interval and not the kernel, so it shows in full; a change of host
//! speed moves both, and cancels. The unscaled figures go to the detail
//! line.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::{Duration, Instant};

/// The kernel's usual time on a 2-vCPU VM, the reference. Scaled
/// figures read as if measured at that speed.
pub const REFERENCE_S: f64 = 0.010;

/// Length of one timed interval between two calibrations. Short
/// enough that the host's speed seldom changes within one, long enough
/// that the calibrations take about a tenth of the run.
pub const INTERVAL: Duration = Duration::from_millis(100);

/// Kernel runs at each calibration of a set-up. A set-up has few steps,
/// each scaled by its own factor, so each factor is measured with more
/// than one run.
pub const SETUP_KERNEL_RUNS: usize = 3;

/// Keys the kernel inserts, probes and sorts: about 3 MB of table
/// and keys, more than a core's private caches hold.
const KERNEL_KEYS: u64 = 100_000;

/// The calibration kernel; returns a value that depends on all its work
/// so that none of it is optimised away.
fn kernel() -> u64 {
    // Fixed SipHash keys: the same table layout in every run.
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut keys = Vec::with_capacity(KERNEL_KEYS as usize);
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for i in 0..KERNEL_KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x, i);
        keys.push(x);
    }
    let mut acc = 0u64;
    for k in &keys {
        acc = acc.wrapping_add(map.get(k).copied().unwrap_or(0));
    }
    keys.sort_unstable();
    acc.wrapping_add(keys[keys.len() / 2])
}

/// Median time of `reps` kernel runs on each of `threads` threads at
/// once, in seconds. One thread runs them on the caller's thread.
fn time_kernel(threads: usize, reps: usize) -> f64 {
    let runs = || {
        (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(kernel());
                t0.elapsed().as_secs_f64()
            })
            .collect::<Vec<f64>>()
    };
    if threads <= 1 {
        return crate::stats::median(&runs());
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(runs)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("calibration thread panicked"))
            .collect()
    });
    crate::stats::median(&times)
}

/// Calibrates between the short intervals a workload is timed in:
/// once at creation, then after each interval. Interval `i` lies
/// between calibrations `i` and `i + 1`.
pub struct Pacer {
    threads: usize,
    reps: usize,
    /// Kernel time of every calibration so far, in order.
    kernel_s: Vec<f64>,
}

impl Pacer {
    /// A pacer that runs the kernel `reps` times on `threads` threads
    /// (as many as the workload uses) at each calibration.
    pub fn new(threads: usize, reps: usize) -> Pacer {
        Pacer {
            threads,
            reps,
            kernel_s: vec![time_kernel(threads, reps)],
        }
    }

    /// Ends an interval: calibrates, and returns the interval's index.
    pub fn end_interval(&mut self) -> usize {
        self.kernel_s.push(time_kernel(self.threads, self.reps));
        self.kernel_s.len() - 2
    }

    /// The speed factor of interval `i`: `REFERENCE_S` over the median
    /// kernel time of the two calibrations before it and the two after
    /// it, so that a stall of the host during one kernel run does not
    /// move it. A time measured in the interval times this factor is the
    /// time at reference speed; a rate divided by it is the rate at
    /// reference speed.
    pub fn factor(&self, i: usize) -> f64 {
        let near = &self.kernel_s[i.saturating_sub(1)..(i + 3).min(self.kernel_s.len())];
        REFERENCE_S / crate::stats::median(near)
    }

    /// A pacer whose calibrations read `kernel_s`.
    #[cfg(test)]
    pub fn with_kernel_s(kernel_s: Vec<f64>) -> Pacer {
        Pacer {
            threads: 1,
            reps: 1,
            kernel_s,
        }
    }

    /// Median kernel time over every calibration, in seconds.
    pub fn median_kernel_s(&self) -> f64 {
        crate::stats::median(&self.kernel_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_slow_kernel_run_does_not_move_a_factor() {
        let p = Pacer::with_kernel_s(vec![0.01, 0.01, 0.05, 0.01, 0.01]);
        assert_eq!(p.factor(1), 1.0);
        assert_eq!(p.factor(2), 1.0);
        let p = Pacer::with_kernel_s(vec![0.02; 3]);
        assert_eq!(p.factor(0), 0.5);
        assert_eq!(p.factor(1), 0.5);
    }
}
