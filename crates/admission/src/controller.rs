//! The admission controller: bounded pending queue, deterministic token
//! bucket, and CoDel-style queue-delay shedding.
//!
//! The controller never reads a clock. Every decision takes `now` (the
//! caller's injected-clock reading, in nanoseconds) as a parameter, so
//! outcomes are pure functions of `(config, call order, now values)` —
//! replaying the same schedule against a `ManualClock` reproduces the
//! same admit/shed sequence byte for byte.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::outcome::ShedReason;

/// Tokens are tracked in fixed-point "token-nanos": one admission costs
/// `TOKEN_SCALE` units, and a bucket refills at `rate_per_sec` units per
/// wall nanosecond — integer arithmetic throughout, no drift.
const TOKEN_SCALE: u64 = 1_000_000_000;

/// Admission policy. The default ([`AdmissionConfig::unlimited`]) turns
/// every mechanism off, so existing callers see no behaviour change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdmissionConfig {
    /// Maximum requests admitted but not yet started. `0` = unbounded.
    pub queue_capacity: u64,
    /// Token-bucket refill rate, requests per second. `0` = unlimited.
    pub rate_per_sec: u64,
    /// Token-bucket capacity, requests. Clamped to at least 1 when a
    /// rate is set.
    pub burst: u64,
    /// CoDel target: the acceptable standing queue delay. `0` disables
    /// queue-delay shedding.
    pub codel_target_nanos: u64,
    /// CoDel interval: how long delay must stay above target before the
    /// first shed.
    pub codel_interval_nanos: u64,
    /// Deadline budget applied when a request arrives without one.
    /// `0` = unbounded (no default deadline).
    pub default_deadline_nanos: u64,
}

impl AdmissionConfig {
    /// No queue bound, no rate limit, no queue-delay shedding, no
    /// default deadline: admission always succeeds.
    pub fn unlimited() -> Self {
        AdmissionConfig {
            queue_capacity: 0,
            rate_per_sec: 0,
            burst: 0,
            codel_target_nanos: 0,
            codel_interval_nanos: 0,
            default_deadline_nanos: 0,
        }
    }

    /// True when every mechanism is disabled.
    pub fn is_unlimited(&self) -> bool {
        *self == AdmissionConfig::unlimited()
    }
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig::unlimited()
    }
}

/// Proof of admission, carried from [`AdmissionController::try_admit`]
/// to [`AdmissionController::on_start`]. Records the enqueue time so
/// queue delay can be measured at dequeue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    enqueued_nanos: u64,
}

impl Ticket {
    /// The clock reading at which the request was admitted.
    pub fn enqueued_nanos(self) -> u64 {
        self.enqueued_nanos
    }
}

/// Mutable controller state, guarded by one mutex. Only integer
/// arithmetic happens under the lock.
#[derive(Debug)]
struct ControllerState {
    /// Token bucket level, in token-nanos (fixed point, see TOKEN_SCALE).
    tokens: u64,
    /// Clock reading of the last refill.
    last_refill_nanos: u64,
    /// CoDel: when sustained above-target delay first becomes sheddable.
    /// `0` = delay is not currently above target.
    first_above_nanos: u64,
    /// CoDel: sheds in the current above-target episode (drives the
    /// inverse-sqrt control law).
    shed_count: u64,
}

/// Rejects requests *before* ranking work is enqueued.
///
/// Three mechanisms, all optional and all deterministic:
/// 1. a bounded pending-work queue (checked at [`try_admit`]);
/// 2. an integer token bucket (checked at [`try_admit`]);
/// 3. CoDel-style queue-delay shedding (checked at [`on_start`], when
///    the queue delay the request actually experienced is known).
///
/// [`try_admit`]: AdmissionController::try_admit
/// [`on_start`]: AdmissionController::on_start
#[derive(Debug)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    /// Requests admitted but not yet started.
    pending: AtomicU64,
    state: Mutex<ControllerState>,
}

impl AdmissionController {
    pub fn new(cfg: AdmissionConfig) -> Self {
        let burst = if cfg.rate_per_sec == 0 {
            0
        } else {
            cfg.burst.max(1)
        };
        AdmissionController {
            cfg,
            pending: AtomicU64::new(0),
            state: Mutex::new(ControllerState {
                tokens: burst.saturating_mul(TOKEN_SCALE),
                last_refill_nanos: 0,
                first_above_nanos: 0,
                shed_count: 0,
            }),
        }
    }

    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Requests currently admitted but not yet started.
    pub fn pending(&self) -> u64 {
        self.pending.load(Ordering::Relaxed)
    }

    /// Apply the configured default deadline budget at `now`: the
    /// absolute expiry in nanos, or `u64::MAX` when no default is set.
    pub fn default_deadline_at(&self, now: u64) -> u64 {
        if self.cfg.default_deadline_nanos == 0 {
            u64::MAX
        } else {
            now.saturating_add(self.cfg.default_deadline_nanos)
        }
    }

    /// Decide admission at arrival time, before any work is enqueued.
    /// Checks the queue bound first, then the token bucket; a request
    /// rejected by the bucket does not hold a queue slot.
    pub fn try_admit(&self, now: u64) -> Result<Ticket, ShedReason> {
        if !self.try_reserve_slot() {
            return Err(ShedReason::QueueFull);
        }
        if !self.take_token(now) {
            self.release_slot();
            return Err(ShedReason::RateLimited);
        }
        Ok(Ticket {
            enqueued_nanos: now,
        })
    }

    /// Called when an admitted request is dequeued to start work. Always
    /// releases the pending-queue slot; returns `Err(QueueDelay)` when
    /// the CoDel control law says this request should be shed to drain a
    /// standing queue.
    pub fn on_start(&self, ticket: Ticket, now: u64) -> Result<(), ShedReason> {
        self.release_slot();
        let target = self.cfg.codel_target_nanos;
        if target == 0 {
            return Ok(());
        }
        let delay = now.saturating_sub(ticket.enqueued_nanos);
        let mut st = self.state_lock();
        if delay < target {
            // Queue drained below target: leave the shedding episode.
            st.first_above_nanos = 0;
            st.shed_count = 0;
            return Ok(());
        }
        let interval = self.cfg.codel_interval_nanos.max(1);
        if st.first_above_nanos == 0 {
            // Delay just crossed the target; arm the first shed one
            // interval out.
            st.first_above_nanos = now.saturating_add(interval).max(1);
            return Ok(());
        }
        if now < st.first_above_nanos {
            return Ok(());
        }
        // Sustained above target: shed, and arm the next shed sooner
        // (interval / sqrt(n+1), in fixed point so the divisor actually
        // grows between integer square roots) while the episode persists.
        st.shed_count = st.shed_count.saturating_add(1);
        let scaled_root = isqrt(st.shed_count.saturating_add(1).saturating_mul(10_000)).max(1);
        let next = u64::try_from(
            (u128::from(interval).saturating_mul(100) / u128::from(scaled_root)).max(1),
        )
        .expect("invariant: interval*100/sqrt is at most interval*100/100");
        st.first_above_nanos = now.saturating_add(next);
        Err(ShedReason::QueueDelay)
    }

    /// Release an admitted request's queue slot without starting it
    /// (e.g. the caller dropped the request after `try_admit`).
    pub fn cancel(&self, _ticket: Ticket) {
        self.release_slot();
    }

    fn try_reserve_slot(&self) -> bool {
        let cap = self.cfg.queue_capacity;
        if cap == 0 {
            self.pending.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        let mut cur = self.pending.load(Ordering::Relaxed);
        loop {
            if cur >= cap {
                return false;
            }
            match self.pending.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(observed) => cur = observed,
            }
        }
    }

    fn release_slot(&self) {
        // Saturating decrement: a stray release must not wrap pending.
        let mut cur = self.pending.load(Ordering::Relaxed);
        while cur > 0 {
            match self.pending.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => cur = observed,
            }
        }
    }

    fn take_token(&self, now: u64) -> bool {
        let rate = self.cfg.rate_per_sec;
        if rate == 0 {
            return true;
        }
        let mut st = self.state_lock();
        if now > st.last_refill_nanos {
            let elapsed = now - st.last_refill_nanos;
            let cap = u128::from(self.cfg.burst.max(1))
                .saturating_mul(u128::from(TOKEN_SCALE))
                .min(u128::from(u64::MAX));
            let refilled = u128::from(st.tokens)
                .saturating_add(u128::from(elapsed).saturating_mul(u128::from(rate)))
                .min(cap);
            st.tokens =
                u64::try_from(refilled).expect("invariant: bucket level is clamped to fit in u64");
            st.last_refill_nanos = now;
        }
        if st.tokens >= TOKEN_SCALE {
            st.tokens -= TOKEN_SCALE;
            true
        } else {
            false
        }
    }

    fn state_lock(&self) -> std::sync::MutexGuard<'_, ControllerState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Integer square root (Newton's method); used by the CoDel control law
/// to shorten the shed interval while delay stays above target.
fn isqrt(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let mut x = n;
    let mut y = x.div_ceil(2);
    while y < x {
        x = y;
        y = (x + n / x) / 2;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admit_n(ctl: &AdmissionController, n: usize, now: u64) -> Vec<Result<Ticket, ShedReason>> {
        (0..n).map(|_| ctl.try_admit(now)).collect()
    }

    #[test]
    fn unlimited_config_admits_everything() {
        let ctl = AdmissionController::new(AdmissionConfig::unlimited());
        for now in [0, 1, u64::MAX] {
            let ticket = ctl.try_admit(now).expect("invariant: unlimited admission");
            assert_eq!(ctl.on_start(ticket, now), Ok(()));
        }
        assert_eq!(ctl.pending(), 0);
        assert_eq!(ctl.default_deadline_at(123), u64::MAX);
    }

    #[test]
    fn queue_bound_rejects_when_full_and_recovers_on_start() {
        let cfg = AdmissionConfig {
            queue_capacity: 2,
            ..AdmissionConfig::unlimited()
        };
        let ctl = AdmissionController::new(cfg);
        let a = ctl.try_admit(0).expect("invariant: slot 1 free");
        let _b = ctl.try_admit(0).expect("invariant: slot 2 free");
        assert_eq!(ctl.try_admit(0), Err(ShedReason::QueueFull));
        assert_eq!(ctl.pending(), 2);
        assert_eq!(ctl.on_start(a, 0), Ok(()));
        assert!(ctl.try_admit(0).is_ok(), "slot freed by on_start");
    }

    #[test]
    fn cancel_releases_the_slot() {
        let cfg = AdmissionConfig {
            queue_capacity: 1,
            ..AdmissionConfig::unlimited()
        };
        let ctl = AdmissionController::new(cfg);
        let t = ctl.try_admit(0).expect("invariant: slot free");
        assert_eq!(ctl.try_admit(0), Err(ShedReason::QueueFull));
        ctl.cancel(t);
        assert!(ctl.try_admit(0).is_ok());
    }

    #[test]
    fn token_bucket_is_deterministic_in_call_order_and_time() {
        // 2 req/s, burst 3: at t=0 exactly three admissions succeed.
        let cfg = AdmissionConfig {
            rate_per_sec: 2,
            burst: 3,
            ..AdmissionConfig::unlimited()
        };
        let ctl = AdmissionController::new(cfg);
        let first: Vec<bool> = admit_n(&ctl, 5, 0).iter().map(|r| r.is_ok()).collect();
        assert_eq!(first, [true, true, true, false, false]);
        // After 500ms one token (2/s * 0.5s) has refilled.
        let half_sec = 500_000_000;
        let second: Vec<bool> = admit_n(&ctl, 2, half_sec)
            .iter()
            .map(|r| r.is_ok())
            .collect();
        assert_eq!(second, [true, false]);
        for r in admit_n(&ctl, 2, half_sec) {
            assert_eq!(r, Err(ShedReason::RateLimited));
        }
        // Refill is capped at burst: after a long idle stretch, exactly
        // three tokens again.
        let much_later = half_sec + 100_000_000_000;
        let third: Vec<bool> = admit_n(&ctl, 4, much_later)
            .iter()
            .map(|r| r.is_ok())
            .collect();
        assert_eq!(third, [true, true, true, false]);
    }

    #[test]
    fn rate_rejection_does_not_leak_queue_slots() {
        let cfg = AdmissionConfig {
            queue_capacity: 10,
            rate_per_sec: 1,
            burst: 1,
            ..AdmissionConfig::unlimited()
        };
        let ctl = AdmissionController::new(cfg);
        assert!(ctl.try_admit(0).is_ok());
        for _ in 0..5 {
            assert_eq!(ctl.try_admit(0), Err(ShedReason::RateLimited));
        }
        assert_eq!(ctl.pending(), 1, "rejected admissions must not hold slots");
    }

    #[test]
    fn codel_sheds_after_sustained_delay_and_resets_when_drained() {
        let cfg = AdmissionConfig {
            codel_target_nanos: 1_000,
            codel_interval_nanos: 10_000,
            ..AdmissionConfig::unlimited()
        };
        let ctl = AdmissionController::new(cfg);
        let enq = |at: u64| -> Ticket {
            ctl.try_admit(at)
                .expect("invariant: admission is unlimited here")
        };
        // Below target: never sheds.
        let t = enq(0);
        assert_eq!(ctl.on_start(t, 500), Ok(()));
        // Crossing target arms the law but does not shed within the
        // first interval.
        let t = enq(1_000);
        assert_eq!(
            ctl.on_start(t, 3_000),
            Ok(()),
            "delay 2000 >= target arms the law"
        );
        let t = enq(4_000);
        assert_eq!(
            ctl.on_start(t, 9_000),
            Ok(()),
            "still inside the first interval"
        );
        // Past the armed point with delay still above target: shed.
        let t = enq(10_000);
        assert_eq!(ctl.on_start(t, 13_500), Err(ShedReason::QueueDelay));
        // The next shed arms sooner (interval / sqrt(2) ≈ 7092ns out).
        let t = enq(14_000);
        assert_eq!(
            ctl.on_start(t, 16_000),
            Ok(()),
            "inside the shortened interval"
        );
        let t = enq(15_000);
        assert_eq!(ctl.on_start(t, 20_600), Err(ShedReason::QueueDelay));
        // One below-target dequeue ends the episode entirely.
        let t = enq(21_000);
        assert_eq!(ctl.on_start(t, 21_100), Ok(()));
        let t = enq(22_000);
        assert_eq!(
            ctl.on_start(t, 25_000),
            Ok(()),
            "episode reset: re-arming from scratch"
        );
    }

    #[test]
    fn default_deadline_applies_budget() {
        let cfg = AdmissionConfig {
            default_deadline_nanos: 5_000,
            ..AdmissionConfig::unlimited()
        };
        let ctl = AdmissionController::new(cfg);
        assert_eq!(ctl.default_deadline_at(1_000), 6_000);
        assert_eq!(ctl.default_deadline_at(u64::MAX - 10), u64::MAX);
    }

    #[test]
    fn isqrt_matches_floor_sqrt() {
        for (n, root) in [
            (0u64, 0u64),
            (1, 1),
            (2, 1),
            (3, 1),
            (4, 2),
            (8, 2),
            (9, 3),
            (99, 9),
            (100, 10),
            (10_000, 100),
        ] {
            assert_eq!(isqrt(n), root, "isqrt({n})");
        }
    }
}
