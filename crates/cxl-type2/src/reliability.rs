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
//! an exact pass-through with zero RNG draws. The watchdog's timing is
//! fixed: `DEADLINE`, `BACKOFF_BASE` and `MAX_ATTEMPTS`.
//!
//! Usage, per op, inside a traffic backend:
//!
//! ```text
//! let (done, outcome) = timeouts.supervise(issue, |t| {
//!     dev.h2d(op, addr, t, &mut socket).completion
//! });
//! ```

use sim_core::fault::Injector;
use sim_core::port::OpOutcome;
use sim_core::time::{Duration, Time};
use sim_core::trace::{self, TraceEvent};

/// Per-attempt completion deadline. Generous against the
/// ~share-of-µs healthy pipeline: only a genuine stall trips it.
pub(crate) const DEADLINE: Duration = Duration::from_micros(2);

/// Backoff before the first reissue; doubles every further attempt.
pub(crate) const BACKOFF_BASE: Duration = Duration::from_nanos(200);

/// Attempts (first issue + reissues) before a request is failed.
pub(crate) const MAX_ATTEMPTS: u32 = 4;

/// Backoff after the `attempt`-th timeout (1-based): exponential,
/// `BACKOFF_BASE << (attempt - 1)`.
fn backoff(attempt: u32) -> Duration {
    Duration::from_picos(BACKOFF_BASE.as_picos() << (attempt - 1).min(32))
}

/// Timeout supervision over DCOH slice transactions.
///
/// # Examples
///
/// ```
/// use cxl_type2::reliability::SliceTimeouts;
/// use sim_core::fault::{FaultPlan, FaultProcess};
/// use sim_core::port::OpOutcome;
/// use sim_core::time::{Duration, Time};
///
/// // Every op stalls 10 µs past the 2 µs deadline: the watchdog fires,
/// // backs off, and the reissue (drawn independently) may succeed.
/// let plan = FaultPlan::new(4)
///     .with("dcoh.slice", FaultProcess::stall(0.5, Duration::from_micros(10)));
/// let mut st = SliceTimeouts::new(plan.injector("dcoh.slice"));
/// let (done, outcome) = st.supervise(Time::ZERO, |t| t + Duration::from_nanos(600));
/// assert!(done > Time::ZERO);
/// assert_ne!(outcome, OpOutcome::Clean, "a 0.5 stall rate rarely passes clean");
/// ```
#[derive(Debug, Clone)]
pub struct SliceTimeouts {
    injector: Injector,
    timeouts: u64,
}

impl SliceTimeouts {
    /// Supervision with faults drawn from `injector`.
    pub fn new(injector: Injector) -> Self {
        SliceTimeouts {
            injector,
            timeouts: 0,
        }
    }

    /// Runs one slice transaction under the watchdog.
    ///
    /// `service(start)` is the facade path: given the (re)issue time, it
    /// returns the healthy completion. Each attempt additionally draws a
    /// stall fault; a stalled attempt that overruns `DEADLINE` times
    /// out (emitting [`TraceEvent::Timeout`]), waits the exponential
    /// backoff, and reissues. After `MAX_ATTEMPTS` the request is
    /// abandoned ([`OpOutcome::Failed`]) at its last deadline expiry.
    ///
    /// With an inert injector this is `(service(issue),
    /// OpOutcome::Clean)` — no draws, no events.
    pub fn supervise(
        &mut self,
        issue: Time,
        mut service: impl FnMut(Time) -> Time,
    ) -> (Time, OpOutcome) {
        if !self.injector.enabled() {
            return (service(issue), OpOutcome::Clean);
        }
        let mut start = issue;
        for attempt in 1..=MAX_ATTEMPTS {
            let mut done = service(start);
            if let Some(delay) = self.injector.stall(start) {
                done += delay;
            }
            if done.duration_since(start) <= DEADLINE {
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
            let expiry = start + DEADLINE;
            let backoff = backoff(attempt);
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
        (start, OpOutcome::Failed)
    }

    /// Watchdog expiries observed (timed-out attempts, not requests).
    pub fn timeouts(&self) -> u64 {
        self.timeouts
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
        let mut st = SliceTimeouts::new(FaultPlan::disabled().injector("dcoh.slice"));
        let issue = Time::from_nanos(100);
        let (done, outcome) = st.supervise(issue, |t| t + ns(750));
        assert_eq!(done, issue + ns(750));
        assert_eq!(outcome, OpOutcome::Clean);
        assert_eq!(st.timeouts(), 0);
    }

    #[test]
    fn always_stalled_request_fails_after_max_attempts() {
        // Stall probability 1: every attempt overruns the deadline, so
        // the request walks the whole backoff ladder and is failed.
        let plan = FaultPlan::new(8).with(
            "dcoh.slice",
            FaultProcess::stall(1.0, Duration::from_micros(50)),
        );
        let mut st = SliceTimeouts::new(plan.injector("dcoh.slice"));
        let (done, outcome) = st.supervise(Time::ZERO, |t| t + ns(500));
        assert_eq!(outcome, OpOutcome::Failed);
        assert_eq!(st.timeouts(), u64::from(MAX_ATTEMPTS));
        // Four deadlines plus backoffs 200, 400, 800, 1600 ns (the last
        // expiry's backoff lands after the give-up point).
        assert_eq!(
            done,
            Time::ZERO + DEADLINE * 4 + ns(200 + 400 + 800 + 1_600)
        );
    }

    #[test]
    fn intermittent_stalls_retry_then_complete() {
        let plan = FaultPlan::new(21).with(
            "dcoh.slice",
            FaultProcess::stall(0.5, Duration::from_micros(50)),
        );
        let mut st = SliceTimeouts::new(plan.injector("dcoh.slice"));
        let mut outcomes = [0u64; 3];
        let mut t = Time::ZERO;
        for _ in 0..200 {
            let (done, outcome) = st.supervise(t, |s| s + ns(400));
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
        let mut st = SliceTimeouts::new(plan.injector("dcoh.slice"));
        let _ = st.supervise(Time::ZERO, |t| t + ns(100));
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
            vec![
                (1, ns(200).as_picos()),
                (2, ns(400).as_picos()),
                (3, ns(800).as_picos()),
                (4, ns(1_600).as_picos()),
            ],
            "exponential backoff doubles per attempt"
        );
    }
}
