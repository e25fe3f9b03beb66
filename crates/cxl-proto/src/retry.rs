//! CXL link-layer retry: CRC detect → NAK → replay, in simulated time.
//!
//! CXL inherits the PCIe-style ack/nak replay protocol at the flit
//! level: the receiver checks each flit's CRC, NAKs a corrupt one, and
//! the transmitter replays it from its retry buffer, so the protocol
//! layers above see an error-free, in-order stream at a latency cost.
//!
//! [`RetryLink`] is the simulator's one link-error model: a lossless
//! [`Link`] plus a [`sim_core::fault::Injector`] that draws CRC hits at
//! the bound BER over the message's flit footprint. A hit charges one
//! replay round trip (NAK turnaround + propagation + replay latency)
//! and redelivers the message; after [`MAX_REPLAYS`] consecutive hits
//! the delivery fails (viral containment). Only the corrupt message
//! replays: flits queued behind it are not discarded and resent
//! (no go-back-N ghost flits), and poison is tracked per line by the
//! host's `PoisonSet`, not on a flit-header bit. With a
//! disabled injector it is an exact pass-through of [`Link::deliver`]
//! — zero extra draws, zero extra latency — so fault-off runs are
//! byte-identical to plain links.

use crate::link::Link;
use sim_core::fault::Injector;
use sim_core::port::OpOutcome;
use sim_core::time::{Duration, Time};
use sim_core::trace::{self, TraceEvent};

/// Bits one flit puts on the wire: the CXL 1.1/2.0 68-byte flit (2 B
/// protocol ID, four 16 B slots, 2 B CRC). A message occupies one flit
/// per started 64 B of payload, and at least one.
const FLIT_BITS: u64 = 544;

/// Receiver-side time from CRC detection to the NAK leaving.
/// Assumption: the paper measures no link errors.
const NAK_TURNAROUND: Duration = Duration::from_nanos(10);

/// Time to re-serialize from the retry buffer once a NAK lands.
/// Assumption: the paper measures no link errors.
const REPLAY_LATENCY: Duration = Duration::from_nanos(20);

/// Replays of one message before the link gives up (goes viral).
/// Assumption: the paper measures no link errors.
pub const MAX_REPLAYS: u32 = 8;

/// Link-retry settings: none. The replay timing is this module's named
/// constants. The type remains only because `perfbench/src/serving.rs`
/// names `RetryConfig::default()`; ROADMAP item 3(b) deletes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryConfig;

/// A [`Link`] with link-layer retry: every delivery attempt draws CRC
/// corruption from the injector, and every hit emits
/// [`TraceEvent::LinkRetry`] and replays. A delivery that exhausts
/// [`MAX_REPLAYS`] returns [`OpOutcome::Failed`]; the consumer decides
/// whether that means poison, abort, or fallback.
///
/// # Examples
///
/// ```
/// use cxl_proto::link;
/// use cxl_proto::retry::{RetryConfig, RetryLink};
/// use sim_core::fault::{FaultPlan, FaultProcess};
/// use sim_core::port::OpOutcome;
/// use sim_core::time::Time;
///
/// let plan = FaultPlan::new(1).with("link.cxl", FaultProcess::bit_error(1e-5));
/// let mut rl = RetryLink::new(link::cxl_x16(), RetryConfig, plan.injector("link.cxl"));
/// let (arrival, outcome) = rl.deliver(Time::ZERO, 64);
/// assert!(arrival > Time::ZERO);
/// assert_ne!(outcome, OpOutcome::Failed, "1e-5 BER cannot fail 8 replays");
/// ```
#[derive(Debug, Clone)]
pub struct RetryLink {
    link: Link,
    injector: Injector,
    replays: u64,
}

impl RetryLink {
    /// Wraps `link` with retry behaviour drawn from `injector`.
    pub fn new(link: Link, _cfg: RetryConfig, injector: Injector) -> Self {
        RetryLink {
            link,
            injector,
            replays: 0,
        }
    }

    /// Delivers `bytes`, returning the arrival time and whether the
    /// delivery was clean, retried, or abandoned.
    ///
    /// With a disabled injector this is byte-for-byte
    /// [`Link::deliver`]: no RNG draws, no added latency, always
    /// [`OpOutcome::Clean`].
    pub fn deliver(&mut self, now: Time, bytes: u64) -> (Time, OpOutcome) {
        if !self.injector.enabled() {
            return (self.link.deliver(now, bytes), OpOutcome::Clean);
        }
        let mut arrival = self.link.deliver(now, bytes);
        // One CRC draw per delivery attempt over the message's flit
        // footprint.
        let bits = (bytes.div_ceil(64).max(1) * FLIT_BITS).min(u64::from(u32::MAX)) as u32;
        let mut attempt = 0u32;
        while self.injector.corrupt_flit(arrival, bits) {
            attempt += 1;
            if attempt > MAX_REPLAYS {
                return (arrival, OpOutcome::Failed);
            }
            trace::emit(
                arrival,
                TraceEvent::LinkRetry {
                    point: self.injector.point(),
                    attempt,
                },
            );
            self.replays += 1;
            let resume = arrival + NAK_TURNAROUND + self.link.propagation() + REPLAY_LATENCY;
            arrival = self.link.deliver(resume, bytes);
        }
        if attempt > 0 {
            (arrival, OpOutcome::Retried)
        } else {
            (arrival, OpOutcome::Clean)
        }
    }

    /// Total replay round-trips charged.
    pub fn replays(&self) -> u64 {
        self.replays
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link;
    use sim_core::fault::{FaultPlan, FaultProcess};

    #[test]
    fn healthy_retry_link_matches_bare_link_exactly() {
        let mut bare = link::cxl_x16();
        let mut wrapped = RetryLink::new(
            link::cxl_x16(),
            RetryConfig,
            FaultPlan::disabled().injector("link"),
        );
        let mut now = Time::ZERO;
        for i in 0..50u64 {
            now += Duration::from_nanos(i * 3);
            let plain = bare.deliver(now, 64 + i * 8);
            let (arrival, outcome) = wrapped.deliver(now, 64 + i * 8);
            assert_eq!(arrival, plain);
            assert_eq!(outcome, OpOutcome::Clean);
        }
        assert_eq!(wrapped.replays(), 0);
    }

    #[test]
    fn high_ber_link_retries_and_charges_latency() {
        let plan = FaultPlan::new(7).with("l", FaultProcess::bit_error(1e-3));
        let mut rl = RetryLink::new(link::cxl_x16(), RetryConfig, plan.injector("l"));
        let mut bare = link::cxl_x16();
        let mut retried = 0u64;
        let mut now = Time::ZERO;
        for i in 0..200u64 {
            now += Duration::from_nanos(100 * i);
            let plain = bare.deliver(now, 64);
            let (arrival, outcome) = rl.deliver(now, 64);
            match outcome {
                OpOutcome::Clean => assert!(arrival >= plain),
                OpOutcome::Retried => {
                    retried += 1;
                    assert!(arrival > plain, "replay must cost time");
                }
                OpOutcome::Failed => panic!("1e-3 BER cannot burn {MAX_REPLAYS} replays"),
            }
        }
        assert!(retried > 0, "1e-3 BER over 200 flits must retry");
        assert!(rl.replays() >= retried);
    }

    #[test]
    fn impossible_ber_fails_after_max_replays() {
        // BER so high every flit attempt is corrupt.
        let plan = FaultPlan::new(1).with("l", FaultProcess::bit_error(0.999));
        let mut rl = RetryLink::new(link::cxl_x16(), RetryConfig, plan.injector("l"));
        for _ in 0..20 {
            assert_eq!(rl.deliver(Time::ZERO, 64).1, OpOutcome::Failed);
        }
        assert_eq!(rl.replays(), 20 * u64::from(MAX_REPLAYS));
    }

    /// `corrupt_flit` has exact per-bit semantics, so each attempt of a
    /// `flits`-flit message fails independently with probability
    /// q = 1 − (1 − BER)^(544·flits). A message then replays
    /// `min(k, MAX_REPLAYS)` times for geometric k, with
    /// P(replays ≥ j) = q^j: mean Σ q^j (→ q/(1 − q) uncapped) and
    /// E[replays²] = Σ (2j − 1) q^j, for j in 1..=MAX_REPLAYS. The
    /// total over `n` messages must lie within 4σ of n times the mean.
    #[test]
    fn replay_count_matches_the_geometric_oracle() {
        for (ber, bytes, n) in [
            (1e-4, 64, 20_000u64),
            (1e-5, 256, 20_000),
            (1e-3, 64, 4_000),
        ] {
            let plan = FaultPlan::new(11).with("l", FaultProcess::bit_error(ber));
            let mut rl = RetryLink::new(link::cxl_x16(), RetryConfig, plan.injector("l"));
            let mut now = Time::ZERO;
            for _ in 0..n {
                now = rl.deliver(now, bytes).0;
            }
            // The spec's 68-byte flit, not `FLIT_BITS`: the oracle stays
            // independent of the model it checks.
            let bits = bytes.div_ceil(64) * 544;
            let q = 1.0 - (1.0 - ber).powf(bits as f64);
            let (mut mean, mut second) = (0.0, 0.0);
            for j in 1..=MAX_REPLAYS {
                mean += q.powi(j as i32);
                second += f64::from(2 * j - 1) * q.powi(j as i32);
            }
            let expect = n as f64 * mean;
            let sigma = (n as f64 * (second - mean * mean)).sqrt();
            let got = rl.replays() as f64;
            assert!(
                (got - expect).abs() <= 4.0 * sigma,
                "BER {ber}, {bytes} B: {got} replays, expected {expect:.0} ± {:.0}",
                4.0 * sigma
            );
        }
    }

    #[test]
    fn retries_emit_trace_events() {
        trace::install(1024);
        let plan = FaultPlan::new(3).with("l", FaultProcess::bit_error(0.9));
        let mut rl = RetryLink::new(link::cxl_x16(), RetryConfig, plan.injector("l"));
        for _ in 0..5 {
            rl.deliver(Time::ZERO, 64);
        }
        let events = trace::uninstall();
        assert!(
            events
                .iter()
                .any(|e| matches!(e.event, TraceEvent::LinkRetry { point: "l", .. })),
            "LinkRetry events must reach the tracer"
        );
    }
}
