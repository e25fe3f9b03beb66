//! CXL link-layer retry (LRSM): CRC detect → NAK → replay.
//!
//! CXL inherits the PCIe-style ack/nak replay protocol at the flit
//! level: the transmitter keeps every un-acknowledged flit in a *retry
//! buffer* (bounding how far it may run ahead of the receiver), the
//! receiver checks each flit's CRC and tracks an *expected sequence
//! number* (ESN). On a CRC hit the receiver's link retry state machine
//! (LRSM) enters `RETRY_LOCAL`: it discards everything still in flight
//! (*ghost flits*), NAKs with its ESN, and the transmitter rewinds to
//! that sequence number and replays from the buffer. The protocol
//! layers above see an error-free, in-order flit stream — at a latency
//! cost this module makes visible.
//!
//! Two layers are provided:
//!
//! * [`deliver_stream`] — the pure sequence-level LRSM. No clocks, no
//!   RNG: corruption is an oracle the caller supplies, which makes the
//!   replay algebra property-testable (the delivered stream must equal
//!   the sent stream, in order, loss-free and duplicate-free, for *any*
//!   corruption pattern).
//! * [`RetryLink`] — the timing wrapper: a [`Link`] plus a
//!   [`sim_core::fault::Injector`] drawing CRC hits at the bound BER,
//!   charging `NAK turnaround + propagation + replay latency` per
//!   replay and giving up (viral containment) after
//!   [`RetryConfig::max_replays`]. With a disabled injector it is an
//!   exact pass-through of [`Link::deliver`] — zero extra draws, zero
//!   extra latency — so fault-off runs are byte-identical to plain
//!   links.
//!
//! # Examples
//!
//! ```
//! use cxl_proto::retry::{deliver_stream, RetryConfig};
//!
//! // Corrupt flit 3's first attempt; everything still arrives in order.
//! let out = deliver_stream(8, &RetryConfig::default(), |seq, attempt| {
//!     seq == 3 && attempt == 1
//! });
//! assert_eq!(out.delivered, (0..8).collect::<Vec<u64>>());
//! assert_eq!(out.replays, 1);
//! assert!(out.failed.is_none());
//! ```

use crate::link::Link;
use sim_core::fault::Injector;
use sim_core::port::OpOutcome;
use sim_core::time::{Duration, Time};
use sim_core::trace::{self, TraceEvent};

/// Link-retry parameters: buffer sizing and replay timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryConfig {
    /// Retry-buffer depth in flits: how far the transmitter may run
    /// ahead of the receiver's ESN before stalling for acks.
    pub buffer_depth: u64,
    /// Time to re-serialize from the retry buffer once a NAK lands.
    pub replay_latency: Duration,
    /// Receiver-side time from CRC detection to the NAK leaving.
    pub nak_turnaround: Duration,
    /// Replays of one flit before the link gives up (goes viral).
    pub max_replays: u32,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            buffer_depth: 16,
            replay_latency: Duration::from_nanos(20),
            nak_turnaround: Duration::from_nanos(10),
            max_replays: 8,
        }
    }
}

/// What a [`deliver_stream`] run did, attempt by attempt.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplayOutcome {
    /// Sequence numbers in receiver delivery order. Equals `0..flits`
    /// whenever the stream completes (`failed.is_none()`).
    pub delivered: Vec<u64>,
    /// Total flit transmissions, including ghosts and replays.
    pub transmissions: u64,
    /// NAK-triggered rewinds of the transmitter.
    pub replays: u64,
    /// In-flight flits the receiver discarded while in `RETRY_LOCAL`.
    pub ghost_flits: u64,
    /// Sequence number that exhausted [`RetryConfig::max_replays`], if
    /// the link gave up; delivery stops at that point.
    pub failed: Option<u64>,
}

/// Runs the sequence-level LRSM over a stream of `flits` flits.
///
/// `corrupt(seq, attempt)` is the corruption oracle: it is asked once
/// per *delivery attempt* of each flit (`attempt` starts at 1) and
/// returns whether that attempt's CRC check fails at the receiver.
/// Ghost flits — in-flight when a NAK fires, discarded unexamined — do
/// not consult the oracle.
///
/// The transmitter sends bursts of up to [`RetryConfig::buffer_depth`]
/// flits past the receiver's ESN. A corrupt flit NAKs the burst: the
/// remainder already on the wire arrives as ghosts, the transmitter
/// rewinds to the ESN and replays. A flit corrupted more than
/// `max_replays` times aborts the stream (`failed = Some(seq)`).
pub fn deliver_stream(
    flits: u64,
    cfg: &RetryConfig,
    mut corrupt: impl FnMut(u64, u32) -> bool,
) -> ReplayOutcome {
    let mut out = ReplayOutcome::default();
    let mut attempts = vec![0u32; flits as usize];
    let mut esn = 0u64; // receiver's expected sequence number
    while esn < flits {
        // One burst: the transmitter streams the window, the receiver
        // checks each flit in wire order.
        let window_end = (esn + cfg.buffer_depth.max(1)).min(flits);
        let mut naked = None;
        for seq in esn..window_end {
            out.transmissions += 1;
            attempts[seq as usize] += 1;
            if corrupt(seq, attempts[seq as usize]) {
                naked = Some(seq);
                break;
            }
            out.delivered.push(seq);
        }
        let Some(seq) = naked else {
            esn = window_end;
            continue;
        };
        // RETRY_LOCAL: everything the transmitter had already pushed
        // behind the corrupt flit arrives as ghosts and is discarded.
        let ghosts = window_end - seq - 1;
        out.ghost_flits += ghosts;
        out.transmissions += ghosts;
        if attempts[seq as usize] > cfg.max_replays {
            out.failed = Some(seq);
            return out;
        }
        out.replays += 1;
        // NAK carries the ESN; the transmitter rewinds there, so the
        // next burst replays `seq` from the retry buffer.
        esn = seq;
    }
    out
}

/// A [`Link`] wrapped with LRSM retry timing driven by a fault injector.
///
/// Each delivery draws CRC corruption from the injector's BER process
/// over the message's flit footprint; a hit charges one replay
/// round-trip (`NAK turnaround + propagation + replay latency`) and
/// redelivers, emitting [`TraceEvent::LinkRetry`]. After
/// [`RetryConfig::max_replays`] consecutive hits the delivery fails
/// ([`OpOutcome::Failed`]) — the consumer decides whether that means
/// poison, abort, or fallback.
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
/// let mut rl = RetryLink::new(link::cxl_x16(), RetryConfig::default(), plan.injector("link.cxl"));
/// let (arrival, outcome) = rl.deliver(Time::ZERO, 64);
/// assert!(arrival > Time::ZERO);
/// assert_ne!(outcome, OpOutcome::Failed, "1e-5 BER cannot fail 8 replays");
/// ```
#[derive(Debug, Clone)]
pub struct RetryLink {
    link: Link,
    cfg: RetryConfig,
    injector: Injector,
    replays: u64,
}

impl RetryLink {
    /// Wraps `link` with retry behaviour drawn from `injector`.
    pub fn new(link: Link, cfg: RetryConfig, injector: Injector) -> Self {
        RetryLink {
            link,
            cfg,
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
        // footprint (a 64 B line plus header spans one 544-bit flit).
        let flit_count = (bytes.div_ceil(64)).max(1);
        let bits = (flit_count * 544).min(u64::from(u32::MAX)) as u32;
        let mut attempt = 0u32;
        while self.injector.corrupt_flit(arrival, bits) {
            attempt += 1;
            if attempt > self.cfg.max_replays {
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
            let resume = arrival
                + self.cfg.nak_turnaround
                + self.link.propagation()
                + self.cfg.replay_latency;
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
    fn clean_stream_delivers_everything_once() {
        let out = deliver_stream(100, &RetryConfig::default(), |_, _| false);
        assert_eq!(out.delivered, (0..100).collect::<Vec<u64>>());
        assert_eq!(out.transmissions, 100);
        assert_eq!(out.replays, 0);
        assert_eq!(out.ghost_flits, 0);
        assert!(out.failed.is_none());
    }

    #[test]
    fn single_corruption_replays_and_discards_ghosts() {
        let cfg = RetryConfig {
            buffer_depth: 8,
            ..RetryConfig::default()
        };
        // Corrupt flit 2's first attempt in a window of 8: flits 3..8
        // were already on the wire and become ghosts.
        let out = deliver_stream(8, &cfg, |seq, attempt| seq == 2 && attempt == 1);
        assert_eq!(out.delivered, (0..8).collect::<Vec<u64>>());
        assert_eq!(out.replays, 1);
        assert_eq!(out.ghost_flits, 5);
        // 8 sent (2 clean + 1 corrupt + 5 ghosts) then replay of 2..8.
        assert_eq!(out.transmissions, 8 + 6);
        assert!(out.failed.is_none());
    }

    #[test]
    fn exhausting_max_replays_fails_the_stream() {
        let cfg = RetryConfig {
            max_replays: 3,
            ..RetryConfig::default()
        };
        let out = deliver_stream(4, &cfg, |seq, _| seq == 1);
        assert_eq!(out.failed, Some(1));
        assert_eq!(out.delivered, vec![0], "delivery stops at the dead flit");
        assert_eq!(out.replays, 3);
    }

    #[test]
    fn healthy_retry_link_matches_bare_link_exactly() {
        let mut bare = link::cxl_x16();
        let mut wrapped = RetryLink::new(
            link::cxl_x16(),
            RetryConfig::default(),
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
        let mut rl = RetryLink::new(link::cxl_x16(), RetryConfig::default(), plan.injector("l"));
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
                OpOutcome::Failed => panic!("1e-3 BER cannot burn 8 replays"),
            }
        }
        assert!(retried > 0, "1e-3 BER over 200 flits must retry");
        assert!(rl.replays() >= retried);
    }

    #[test]
    fn impossible_ber_fails_after_max_replays() {
        // BER so high every flit attempt is corrupt.
        let plan = FaultPlan::new(1).with("l", FaultProcess::bit_error(0.999));
        let cfg = RetryConfig {
            max_replays: 2,
            ..RetryConfig::default()
        };
        let mut rl = RetryLink::new(link::cxl_x16(), cfg, plan.injector("l"));
        let mut failed = 0;
        for _ in 0..20 {
            if rl.deliver(Time::ZERO, 64).1 == OpOutcome::Failed {
                failed += 1;
            }
        }
        assert!(failed > 0, "0.999 per-bit BER must exhaust 2 replays");
    }

    #[test]
    fn retries_emit_trace_events() {
        trace::install(1024);
        let plan = FaultPlan::new(3).with("l", FaultProcess::bit_error(0.9));
        let mut rl = RetryLink::new(link::cxl_x16(), RetryConfig::default(), plan.injector("l"));
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
