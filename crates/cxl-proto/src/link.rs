//! Point-to-point interconnect link timing.
//!
//! CXL, UPI, and PCIe all share the same first-order timing structure: a
//! fixed propagation/port latency per direction plus serialization at the
//! link's effective bandwidth, with a per-message framing overhead
//! (flit/TLP headers). [`Link`] models one direction; the constants below
//! capture the three fabrics of the paper's testbed.
//!
//! The bandwidth relationship the paper leans on (§V-A): CXL over PCIe 5.0
//! ×16 (32 GT/s per lane) offers ~40% more raw bandwidth than UPI's 18
//! lanes at 20 GT/s.

use sim_core::rng::SimRng;
use sim_core::time::{Duration, Time};

/// Payload of a data message: one 64 B cache line.
const LINE_PAYLOAD: u64 = 64;

/// One direction of a serial interconnect link.
///
/// # Examples
///
/// ```
/// use cxl_proto::link::Link;
/// use sim_core::time::{Duration, Time};
///
/// let mut link = Link::new(Duration::from_nanos(35), 56.0, 16);
/// let arrival = link.deliver(Time::ZERO, 64);
/// assert!(arrival > Time::ZERO + Duration::from_nanos(35));
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    propagation: Duration,
    gbps: f64,
    header_bytes: u64,
    /// Serialization time of a header-only message (0 B payload).
    ser_header_only: Duration,
    /// Serialization time of a one-line message (64 B payload).
    ser_line: Duration,
    /// Serialization: when the transmitter frees up.
    tx_free_at: Time,
    /// Per-message flit-error probability (CRC failure → LLR retry).
    error_rate: f64,
    rng: SimRng,
    messages: u64,
    bytes: u64,
    retries: u64,
}

impl Link {
    /// Creates a link with `propagation` latency, `gbps` effective payload
    /// bandwidth, and `header_bytes` of framing per message.
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is not positive.
    pub fn new(propagation: Duration, gbps: f64, header_bytes: u64) -> Self {
        assert!(gbps > 0.0, "link bandwidth must be positive");
        Link {
            propagation,
            gbps,
            header_bytes,
            ser_header_only: serialize(0, header_bytes, gbps),
            ser_line: serialize(LINE_PAYLOAD, header_bytes, gbps),
            tx_free_at: Time::ZERO,
            error_rate: 0.0,
            rng: SimRng::seed_from(0x11A7),
            messages: 0,
            bytes: 0,
            retries: 0,
        }
    }

    /// Enables flit-error injection: each message independently suffers a
    /// CRC failure with probability `rate`, costing a link-layer retry
    /// (one extra round trip + reserialization), as CXL's LLR recovery
    /// does. Deterministic per seed.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1)`.
    pub fn with_error_rate(mut self, rate: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&rate), "error rate must be in [0, 1)");
        self.error_rate = rate;
        self.rng = SimRng::seed_from(seed);
        self
    }

    /// Link-layer retries performed so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// The propagation latency per message.
    pub fn propagation(&self) -> Duration {
        self.propagation
    }

    /// The effective bandwidth in GB/s.
    pub fn bandwidth_gbps(&self) -> f64 {
        self.gbps
    }

    /// Time to serialize `bytes` of payload (plus framing) onto the wire.
    ///
    /// The two sizes the model sends, header-only and one line, were
    /// computed by [`Link::new`]; any other size is converted here.
    pub fn serialization_time(&self, bytes: u64) -> Duration {
        match bytes {
            0 => self.ser_header_only,
            LINE_PAYLOAD => self.ser_line,
            _ => serialize(bytes, self.header_bytes, self.gbps),
        }
    }

    /// Delivers a message of `bytes` payload entering the link at `now`;
    /// returns its arrival time at the far end, accounting for transmitter
    /// occupancy from earlier messages.
    pub fn deliver(&mut self, now: Time, bytes: u64) -> Time {
        let start = self.tx_free_at.max(now);
        let ser = self.serialization_time(bytes);
        let mut arrival = start + ser + self.propagation;
        self.tx_free_at = start + ser;
        // Link-layer retry (LLR): a NAK returns after the propagation
        // delay and the flit retransmits.
        while self.error_rate > 0.0 && self.rng.gen_bool(self.error_rate) {
            self.retries += 1;
            let retx_start = self.tx_free_at.max(arrival + self.propagation);
            self.tx_free_at = retx_start + ser;
            arrival = self.tx_free_at + self.propagation;
        }
        self.messages += 1;
        self.bytes += bytes;
        arrival
    }

    /// Latency of an unloaded one-way trip for `bytes` (no queueing).
    pub fn unloaded_latency(&self, bytes: u64) -> Duration {
        self.propagation + self.serialization_time(bytes)
    }

    /// (messages delivered, payload bytes delivered).
    pub fn traffic(&self) -> (u64, u64) {
        (self.messages, self.bytes)
    }
}

fn serialize(bytes: u64, header_bytes: u64, gbps: f64) -> Duration {
    Duration::from_ns_f64((bytes + header_bytes) as f64 / gbps)
}

/// Builds the CXL 1.1-over-PCIe-5.0 ×16 link of the paper's Agilex-7
/// (per direction). 64 GB/s raw; ~87% flit efficiency.
pub fn cxl_x16() -> Link {
    Link::new(Duration::from_nanos(35), 56.0, 4)
}

/// Builds one direction of the UPI link between the two sockets (18 lanes
/// at 20 GT/s; ~40 GB/s effective).
pub fn upi() -> Link {
    Link::new(Duration::from_nanos(22), 40.0, 4)
}

/// Builds a PCIe 5.0 ×16 link (64 GB/s raw, TLP efficiency ~85%, and a
/// longer port latency than CXL's optimized stack).
pub fn pcie5_x16() -> Link {
    Link::new(Duration::from_nanos(150), 54.0, 24)
}

/// Builds a PCIe 5.0 ×32 link (the BlueField-3's doubled lanes).
pub fn pcie5_x32() -> Link {
    Link::new(Duration::from_nanos(150), 108.0, 24)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_latency_is_prop_plus_serialization() {
        let l = Link::new(Duration::from_nanos(10), 64.0, 0);
        // 64B at 64GB/s = 1ns.
        assert_eq!(l.unloaded_latency(64), Duration::from_nanos(11));
    }

    #[test]
    fn consecutive_messages_queue_on_transmitter() {
        let mut l = Link::new(Duration::from_nanos(10), 64.0, 0);
        let a1 = l.deliver(Time::ZERO, 64);
        let a2 = l.deliver(Time::ZERO, 64);
        assert_eq!(a2.duration_since(a1), Duration::from_nanos(1));
    }

    #[test]
    fn idle_link_does_not_queue() {
        let mut l = Link::new(Duration::from_nanos(10), 64.0, 0);
        l.deliver(Time::ZERO, 64);
        let later = Time::from_nanos(100);
        let a = l.deliver(later, 64);
        assert_eq!(a, later + l.unloaded_latency(64));
    }

    #[test]
    fn header_overhead_charged_per_message() {
        let l = Link::new(Duration::ZERO, 64.0, 64);
        // 64B payload + 64B header at 64 GB/s = 2ns.
        assert_eq!(l.serialization_time(64), Duration::from_nanos(2));
    }

    #[test]
    fn serialization_time_matches_the_formula_at_every_size() {
        for link in [cxl_x16(), upi()] {
            for b in [0, 1, 63, 64, 65, 4096] {
                assert_eq!(
                    link.serialization_time(b),
                    Duration::from_ns_f64((b + link.header_bytes) as f64 / link.bandwidth_gbps()),
                    "{b} B"
                );
            }
        }
    }

    #[test]
    fn cxl_outpaces_upi_by_about_40_percent() {
        let ratio = cxl_x16().bandwidth_gbps() / upi().bandwidth_gbps();
        assert!(
            (1.3..1.5).contains(&ratio),
            "CXL/UPI bandwidth ratio {ratio}"
        );
    }

    #[test]
    fn pcie_port_latency_exceeds_cxl() {
        assert!(pcie5_x16().propagation() > cxl_x16().propagation());
        assert!((pcie5_x32().bandwidth_gbps() / pcie5_x16().bandwidth_gbps() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn error_injection_adds_retry_latency() {
        let mut clean = Link::new(Duration::from_nanos(30), 56.0, 4);
        let mut lossy = Link::new(Duration::from_nanos(30), 56.0, 4).with_error_rate(0.2, 7);
        let n = 2_000u64;
        let mut t_clean = Time::ZERO;
        let mut t_lossy = Time::ZERO;
        for _ in 0..n {
            t_clean = clean.deliver(t_clean, 64);
            t_lossy = lossy.deliver(t_lossy, 64);
        }
        assert!(
            lossy.retries() > n / 10,
            "retries happened: {}",
            lossy.retries()
        );
        assert!(
            t_lossy > t_clean,
            "lossy link is slower: {t_lossy} vs {t_clean}"
        );
        // Deterministic per seed.
        let mut again = Link::new(Duration::from_nanos(30), 56.0, 4).with_error_rate(0.2, 7);
        let mut t_again = Time::ZERO;
        for _ in 0..n {
            t_again = again.deliver(t_again, 64);
        }
        assert_eq!(t_again, t_lossy);
    }

    #[test]
    fn traffic_counters() {
        let mut l = cxl_x16();
        l.deliver(Time::ZERO, 64);
        l.deliver(Time::ZERO, 128);
        assert_eq!(l.traffic(), (2, 192));
    }
}
