//! Multi-tenant serving primitives: admission rate limiting and SLO control.
//!
//! A consolidated Type-2 device serves many tenants through *shared*
//! resources — DCOH slice tables, DRAM channels, the CXL link — so one
//! misbehaving tenant can blow every neighbour's tail. This module holds
//! the simulation-time QoS mechanisms a fleet layer composes around those
//! resources:
//!
//! * [`TokenBucket`] — a deterministic GCRA-style rate limiter. Given an
//!   op's arrival time it answers *when* the op may proceed; excess load
//!   is visible as a growing release lag that an admission layer can
//!   convert into sheds.
//! * [`SloController`] — a windowed p999-budget tracker. It watches a
//!   tenant's completed sojourns and, at each window boundary, votes to
//!   tighten (the budget is blown) or relax (the window was clean) that
//!   tenant's admission rate.
//! * [`weighted_caps`] — converts per-tenant QoS weights into per-tenant
//!   entry quotas for a shared, fixed-size table (the DCOH slice request
//!   tables in `cxl-type2`).
//!
//! Everything here is pure arithmetic on [`Time`]/[`Duration`]: no clocks,
//! no randomness, so fleet runs stay byte-identical across worker counts.

use crate::time::{Duration, Time};

/// A deterministic token bucket in simulated time.
///
/// The bucket sustains one op per `interval` with `burst` ops of depth:
/// after an idle period, up to `burst` ops pass back-to-back before the
/// sustained rate binds. Internally this is the GCRA ("virtual
/// scheduling") formulation — a theoretical arrival time (TAT) advances
/// by `interval` per accepted op, and an op may proceed once it is within
/// `interval * (burst - 1)` of the TAT.
///
/// # Examples
///
/// ```
/// use sim_core::serving::TokenBucket;
/// use sim_core::time::{Duration, Time};
///
/// let mut b = TokenBucket::new(Duration::from_nanos(100), 2);
/// let t0 = Time::ZERO;
/// assert_eq!(b.take(t0), t0); // burst token 1
/// assert_eq!(b.take(t0), t0); // burst token 2
/// assert_eq!(b.take(t0), t0 + Duration::from_nanos(100)); // rate binds
/// ```
#[derive(Debug, Clone)]
pub struct TokenBucket {
    interval: Duration,
    burst: u32,
    tat: Time,
}

impl TokenBucket {
    /// A bucket sustaining one op per `interval` with `burst` depth.
    ///
    /// # Panics
    ///
    /// Panics if `burst` is zero — a zero-depth bucket admits nothing.
    pub fn new(interval: Duration, burst: u32) -> Self {
        assert!(burst >= 1, "token bucket needs at least one token of depth");
        TokenBucket {
            interval,
            burst,
            tat: Time::ZERO,
        }
    }

    /// The allowed lag between an arrival and the TAT: `burst - 1`
    /// intervals (the classic GCRA limit).
    fn slack(&self) -> Duration {
        self.interval * u64::from(self.burst - 1)
    }

    /// The earliest time an op arriving at `at` may proceed, *without*
    /// consuming a token. An admission layer sheds when
    /// `would_release(at) - at` exceeds its queueing bound, leaving the
    /// bucket untouched for the next op.
    pub fn would_release(&self, at: Time) -> Time {
        let lag = self.tat.saturating_duration_since(at);
        let slack = self.slack();
        if lag > slack {
            at + (lag - slack)
        } else {
            at
        }
    }

    /// Consumes a token for an op arriving at `at` and returns the time
    /// it may proceed (`>= at`).
    pub fn take(&mut self, at: Time) -> Time {
        let release = self.would_release(at);
        self.tat = self.tat.max(release) + self.interval;
        release
    }

    /// The sustained per-op interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Retunes the sustained rate (the SLO controller's actuator). The
    /// TAT is preserved, so already-granted credit is not revoked.
    pub fn set_interval(&mut self, interval: Duration) {
        self.interval = interval;
    }
}

/// The verdict an [`SloController`] returns at a window boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloAction {
    /// The tenant blew its p999 budget this window: tighten admission.
    Throttle,
    /// The window was entirely under budget: admission may relax.
    Relax,
}

/// A windowed p999-budget tracker for one tenant.
///
/// Every completed op's sojourn is [`observed`](SloController::observe);
/// after `window` observations the controller compares the count of
/// over-budget sojourns against the p999 allowance (`window / 1000`,
/// i.e. one op per thousand may exceed the budget) and emits a verdict.
/// The caller maps [`SloAction::Throttle`] onto its admission actuator —
/// typically doubling the tenant's [`TokenBucket`] interval — and
/// [`SloAction::Relax`] onto restoring it toward the configured rate.
///
/// Determinism: the controller is a pure fold over the sojourn sequence;
/// two runs observing the same sojourns in the same order emit the same
/// verdicts at the same ops.
#[derive(Debug, Clone)]
pub struct SloController {
    budget: Duration,
    window: u32,
    seen: u32,
    over: u32,
}

impl SloController {
    /// A controller enforcing `p999 <= budget` over windows of `window`
    /// completed ops.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(budget: Duration, window: u32) -> Self {
        assert!(window > 0, "SLO window must be at least one op");
        SloController {
            budget,
            window,
            seen: 0,
            over: 0,
        }
    }

    /// Feeds one completed sojourn; returns a verdict at window ends.
    pub fn observe(&mut self, sojourn: Duration) -> Option<SloAction> {
        self.seen += 1;
        if sojourn > self.budget {
            self.over += 1;
        }
        if self.seen < self.window {
            return None;
        }
        // p999: one over-budget op per thousand is within spec.
        let allowed = self.window / 1000;
        let action = if self.over > allowed {
            Some(SloAction::Throttle)
        } else if self.over == 0 {
            Some(SloAction::Relax)
        } else {
            None
        };
        self.seen = 0;
        self.over = 0;
        action
    }
}

/// Per-class entry quotas for a shared table of `entries` slots, split
/// proportionally to `weights`. Every class gets at least one entry and
/// at most the whole table; rounding is up, so quotas may mildly
/// oversubscribe (they are ceilings, not a partition — the table's
/// global capacity still binds).
///
/// # Panics
///
/// Panics if `weights` is empty, all-zero, or `entries` is zero.
///
/// # Examples
///
/// ```
/// use sim_core::serving::weighted_caps;
///
/// assert_eq!(weighted_caps(64, &[4, 4, 1]), vec![29, 29, 8]);
/// ```
pub fn weighted_caps(entries: usize, weights: &[u32]) -> Vec<usize> {
    assert!(entries > 0, "shared table must have entries");
    assert!(!weights.is_empty(), "need at least one class weight");
    let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
    assert!(total > 0, "class weights must not all be zero");
    weights
        .iter()
        .map(|&w| {
            let cap = (entries as u64 * u64::from(w)).div_ceil(total);
            cap.clamp(1, entries as u64) as usize
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const NS100: Duration = Duration::from_nanos(100);

    #[test]
    fn bucket_sustains_configured_rate() {
        let mut b = TokenBucket::new(NS100, 1);
        let mut t = Time::ZERO;
        for i in 0..10u64 {
            let r = b.take(Time::ZERO);
            assert_eq!(r, t, "op {i} release");
            t += NS100;
        }
    }

    #[test]
    fn bucket_burst_depth_passes_back_to_back() {
        let mut b = TokenBucket::new(NS100, 4);
        for _ in 0..4 {
            assert_eq!(b.take(Time::ZERO), Time::ZERO);
        }
        assert_eq!(b.take(Time::ZERO), Time::ZERO + NS100);
    }

    #[test]
    fn bucket_refills_while_idle() {
        let mut b = TokenBucket::new(NS100, 2);
        for _ in 0..4 {
            b.take(Time::ZERO);
        }
        // After a long idle gap the full burst is available again.
        let later = Time::ZERO + Duration::from_micros(10);
        assert_eq!(b.take(later), later);
        assert_eq!(b.take(later), later);
        assert_eq!(b.take(later), later + NS100);
    }

    #[test]
    fn would_release_does_not_consume() {
        let mut b = TokenBucket::new(NS100, 1);
        b.take(Time::ZERO);
        let peek = b.would_release(Time::ZERO);
        assert_eq!(peek, b.would_release(Time::ZERO));
        assert_eq!(b.take(Time::ZERO), peek);
    }

    #[test]
    fn zero_interval_bucket_never_gates() {
        let mut b = TokenBucket::new(Duration::ZERO, 1);
        for i in 0..100u64 {
            let at = Time::ZERO + NS100 * i;
            assert_eq!(b.take(at), at);
        }
    }

    #[test]
    fn slo_throttles_when_budget_blown() {
        let mut c = SloController::new(Duration::from_micros(1), 10);
        let mut actions = Vec::new();
        for i in 0..20 {
            let s = if i % 10 < 2 {
                Duration::from_micros(5) // 2 of 10 over budget
            } else {
                Duration::from_nanos(200)
            };
            if let Some(a) = c.observe(s) {
                actions.push(a);
            }
        }
        assert_eq!(actions, vec![SloAction::Throttle, SloAction::Throttle]);
    }

    #[test]
    fn slo_relaxes_on_clean_window() {
        let mut c = SloController::new(Duration::from_micros(1), 4);
        let mut last = None;
        for _ in 0..4 {
            last = c.observe(Duration::from_nanos(100)).or(last);
        }
        assert_eq!(last, Some(SloAction::Relax));
    }

    #[test]
    fn slo_large_window_uses_p999_allowance() {
        // window 2000 → one over-budget op per window is within p999.
        let mut c = SloController::new(Duration::from_micros(1), 2000);
        let mut action = None;
        for i in 0..2000 {
            let s = if i == 7 {
                Duration::from_micros(9)
            } else {
                Duration::from_nanos(100)
            };
            action = c.observe(s).or(action);
        }
        assert_eq!(action, None, "1/2000 over budget is within p999");
    }

    #[test]
    fn caps_cover_table_and_respect_floors() {
        let caps = weighted_caps(64, &[4, 4, 1]);
        assert_eq!(caps, vec![29, 29, 8]);
        // A starving weight still gets one entry.
        assert_eq!(weighted_caps(4, &[1000, 1])[1], 1);
        // A lone class owns the table.
        assert_eq!(weighted_caps(16, &[3]), vec![16]);
    }
}
