//! Per-slice request timeouts.
//!
//! The DCOH facades ([`crate::device::CxlDevice`]) model the healthy
//! pipeline; real slices also carry a watchdog per request-table entry.
//! A transaction that overruns its deadline — a stalled memory channel,
//! a lost snoop response — is timed out, backed off exponentially, and
//! reissued.
//!
//! Like [`crate::occupancy::SharedSliceTables`], this is an **opt-in
//! layer** a harness wraps around the untouched facade calls, so every
//! existing golden trace stays byte-identical. Stall faults come from a
//! [`FaultProcess::Stall`](sim_core::fault::FaultProcess) bound to the
//! injection point the harness registered (conventionally
//! `"dcoh.slice"`); an inert injector makes [`SliceTimeouts::supervise`]
//! an exact pass-through with zero RNG draws.
//!
//! Usage, per op, inside a traffic backend:
//!
//! ```text
//! let slice = dev.slice_of(addr) as u32;
//! let (done, outcome) = timeouts.supervise(slice, issue, |t| {
//!     dev.h2d(op, addr, t, &mut socket).completion
//! });
//! ```

use sim_core::fault::Injector;
use sim_core::port::OpOutcome;
use sim_core::time::{Duration, Time};
use sim_core::trace::{self, TraceEvent};

/// Watchdog parameters for supervised slice transactions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeoutPolicy {
    /// Per-attempt completion deadline.
    pub deadline: Duration,
    /// Backoff before the first reissue; doubles every further attempt.
    pub backoff_base: Duration,
    /// Attempts (first issue + reissues) before the request is failed.
    pub max_attempts: u32,
}

impl Default for TimeoutPolicy {
    fn default() -> Self {
        TimeoutPolicy {
            // Generous against the ~share-of-µs healthy pipeline: only a
            // genuine stall trips it.
            deadline: Duration::from_micros(2),
            backoff_base: Duration::from_nanos(200),
            max_attempts: 4,
        }
    }
}

impl TimeoutPolicy {
    /// Backoff after the `attempt`-th timeout (1-based): exponential,
    /// `backoff_base << (attempt - 1)`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        Duration::from_picos(self.backoff_base.as_picos() << (attempt - 1).min(32))
    }
}

/// Timeout supervision over DCOH slice transactions.
///
/// # Examples
///
/// ```
/// use cxl_type2::reliability::{SliceTimeouts, TimeoutPolicy};
/// use sim_core::fault::{FaultPlan, FaultProcess};
/// use sim_core::port::OpOutcome;
/// use sim_core::time::{Duration, Time};
///
/// // Every op stalls 10 µs past the 2 µs deadline: the watchdog fires,
/// // backs off, and the reissue (drawn independently) may succeed.
/// let plan = FaultPlan::new(4)
///     .with("dcoh.slice", FaultProcess::stall(0.5, Duration::from_micros(10)));
/// let mut st = SliceTimeouts::new(TimeoutPolicy::default(), plan.injector("dcoh.slice"));
/// let (done, outcome) = st.supervise(0, Time::ZERO, |t| t + Duration::from_nanos(600));
/// assert!(done > Time::ZERO);
/// assert_ne!(outcome, OpOutcome::Clean, "a 0.5 stall rate rarely passes clean");
/// ```
#[derive(Debug, Clone)]
pub struct SliceTimeouts {
    policy: TimeoutPolicy,
    injector: Injector,
    timeouts: u64,
    failures: u64,
}

impl SliceTimeouts {
    /// Supervision with faults drawn from `injector`.
    pub fn new(policy: TimeoutPolicy, injector: Injector) -> Self {
        SliceTimeouts {
            policy,
            injector,
            timeouts: 0,
            failures: 0,
        }
    }

    /// Supervision that never fires: exact pass-through of the service.
    pub fn healthy() -> Self {
        SliceTimeouts::new(TimeoutPolicy::default(), Injector::none("dcoh.slice"))
    }

    /// The policy in force.
    pub fn policy(&self) -> &TimeoutPolicy {
        &self.policy
    }

    /// The fault injector (fired-fault counters).
    pub fn injector(&self) -> &Injector {
        &self.injector
    }

    /// Runs one slice transaction under the watchdog.
    ///
    /// `service(start)` is the facade path: given the (re)issue time, it
    /// returns the healthy completion. Each attempt additionally draws a
    /// stall fault; a stalled attempt that overruns
    /// [`TimeoutPolicy::deadline`] times out (emitting
    /// [`TraceEvent::Timeout`]), waits the exponential backoff, and
    /// reissues. After [`TimeoutPolicy::max_attempts`] the request is
    /// abandoned ([`OpOutcome::Failed`]) at its last deadline expiry.
    ///
    /// With an inert injector this is `(service(issue),
    /// OpOutcome::Clean)` — no draws, no events.
    pub fn supervise(
        &mut self,
        slice: u32,
        issue: Time,
        mut service: impl FnMut(Time) -> Time,
    ) -> (Time, OpOutcome) {
        let _ = slice;
        if !self.injector.enabled() {
            return (service(issue), OpOutcome::Clean);
        }
        let mut start = issue;
        for attempt in 1..=self.policy.max_attempts {
            let mut done = service(start);
            if let Some(delay) = self.injector.stall(start) {
                done += delay;
            }
            if done.duration_since(start) <= self.policy.deadline {
                let outcome = if attempt == 1 {
                    OpOutcome::Clean
                } else {
                    OpOutcome::Retried
                };
                return (done, outcome);
            }
            // Watchdog expiry: the slice drops the entry and reissues
            // after an exponentially growing backoff.
            self.timeouts += 1;
            let expiry = start + self.policy.deadline;
            let backoff = self.policy.backoff(attempt);
            trace::emit(
                expiry,
                TraceEvent::Timeout {
                    point: self.injector.point(),
                    attempt,
                    backoff_ps: backoff.as_picos(),
                },
            );
            start = expiry + backoff;
        }
        self.failures += 1;
        (start, OpOutcome::Failed)
    }

    /// Watchdog expiries observed (timed-out attempts, not requests).
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Requests abandoned after `max_attempts`.
    pub fn failures(&self) -> u64 {
        self.failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::fault::{FaultPlan, FaultProcess};

    fn ns(n: u64) -> Duration {
        Duration::from_nanos(n)
    }

    #[test]
    fn healthy_supervision_is_a_pass_through() {
        let mut st = SliceTimeouts::healthy();
        let issue = Time::from_nanos(100);
        let (done, outcome) = st.supervise(3, issue, |t| t + ns(750));
        assert_eq!(done, issue + ns(750));
        assert_eq!(outcome, OpOutcome::Clean);
        assert_eq!(st.timeouts(), 0);
    }

    #[test]
    fn stalled_attempt_times_out_and_reissue_succeeds() {
        // Stall probability 1 on a point queried once per attempt would
        // never succeed; bind 1.0 and cap attempts to watch the fail
        // path, then use the always-slow service for the timeout path.
        let plan = FaultPlan::new(8).with(
            "dcoh.slice",
            FaultProcess::stall(1.0, Duration::from_micros(50)),
        );
        let policy = TimeoutPolicy {
            deadline: ns(2_000),
            backoff_base: ns(100),
            max_attempts: 3,
        };
        let mut st = SliceTimeouts::new(policy, plan.injector("dcoh.slice"));
        let (done, outcome) = st.supervise(0, Time::ZERO, |t| t + ns(500));
        assert_eq!(outcome, OpOutcome::Failed);
        assert_eq!(st.failures(), 1);
        assert_eq!(st.timeouts(), 3);
        // Three deadlines plus backoffs 100, 200 ns (the third expiry's
        // backoff lands after the give-up point).
        assert_eq!(
            done,
            Time::ZERO + ns(2_000 + 100 + 2_000 + 200 + 2_000 + 400)
        );
    }

    #[test]
    fn intermittent_stalls_retry_then_complete() {
        let plan = FaultPlan::new(21).with(
            "dcoh.slice",
            FaultProcess::stall(0.5, Duration::from_micros(50)),
        );
        let policy = TimeoutPolicy {
            deadline: ns(2_000),
            backoff_base: ns(100),
            max_attempts: 8,
        };
        let mut st = SliceTimeouts::new(policy, plan.injector("dcoh.slice"));
        let mut outcomes = [0u64; 3];
        let mut t = Time::ZERO;
        for _ in 0..200 {
            let (done, outcome) = st.supervise(0, t, |s| s + ns(400));
            outcomes[match outcome {
                OpOutcome::Clean => 0,
                OpOutcome::Retried => 1,
                OpOutcome::Failed => 2,
            }] += 1;
            t = done.max(t + ns(10));
        }
        assert!(outcomes[0] > 0, "some ops pass clean");
        assert!(outcomes[1] > 0, "some ops retry past a stall");
        assert!(st.timeouts() > 0);
    }

    #[test]
    fn timeout_events_carry_attempt_and_backoff() {
        trace::install(256);
        let plan = FaultPlan::new(8).with(
            "dcoh.slice",
            FaultProcess::stall(1.0, Duration::from_micros(50)),
        );
        let policy = TimeoutPolicy {
            deadline: ns(1_000),
            backoff_base: ns(50),
            max_attempts: 2,
        };
        let mut st = SliceTimeouts::new(policy, plan.injector("dcoh.slice"));
        let _ = st.supervise(0, Time::ZERO, |t| t + ns(100));
        let events = trace::uninstall();
        let timeouts: Vec<_> = events
            .iter()
            .filter_map(|e| match e.event {
                TraceEvent::Timeout {
                    attempt,
                    backoff_ps,
                    ..
                } => Some((attempt, backoff_ps)),
                _ => None,
            })
            .collect();
        assert_eq!(
            timeouts,
            vec![(1, ns(50).as_picos()), (2, ns(100).as_picos())],
            "exponential backoff doubles per attempt"
        );
    }
}
