//! MMIO over PCIe: host `ld`/`st` to device BAR regions.
//!
//! §II-A: each MMIO `ld` becomes an uncacheable PCIe read paying a full
//! round trip (~1 µs for 64 B), and only one access may be in flight due to
//! PCIe's strict ordering. `st` incurs one-way latency; write-combining
//! merges up to 64 B per transaction but still obeys the ordering rule.
//! This is the slowest mechanism of Fig. 6 — and the CPU is busy for the
//! entire transfer, which is what makes MMIO-based offload pollute the
//! host in Fig. 8.

use sim_core::time::{Duration, Time};

/// An MMIO window over a PCIe link.
///
/// # Examples
///
/// ```
/// use pcie::mmio::PcieMmio;
/// use sim_core::time::Time;
///
/// let mut mmio = PcieMmio::pcie5();
/// let read_done = mmio.read(Time::ZERO, 256);
/// // 4 serialized round trips: several microseconds.
/// assert!(read_done.duration_since(Time::ZERO).as_micros_f64() > 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct PcieMmio {
    /// One-way TLP latency (host ↔ device port).
    one_way: Duration,
    /// Device-side BAR access cost per transaction.
    device_access: Duration,
    /// Transaction granularity (write-combining buffer size).
    chunk: u64,
    busy_until: Time,
}

impl PcieMmio {
    /// A PCIe 5.0 endpoint with ~500 ns one-way TLP latency (yielding the
    /// paper's ~1 µs 64 B read round trip).
    pub fn pcie5() -> Self {
        PcieMmio {
            one_way: Duration::from_nanos(460),
            device_access: Duration::from_nanos(80),
            chunk: 64,
            busy_until: Time::ZERO,
        }
    }

    fn chunks(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.chunk)
    }

    /// Uncacheable read of `bytes`: serialized 64 B round trips.
    pub fn read(&mut self, now: Time, bytes: u64) -> Time {
        let mut t = self.busy_until.max(now);
        for _ in 0..self.chunks(bytes) {
            t = t + self.one_way + self.device_access + self.one_way;
        }
        self.busy_until = t;
        t
    }

    /// Write-combining write of `bytes`: ordered one-way transactions; the
    /// next write may not leave until the previous is accepted.
    pub fn write(&mut self, now: Time, bytes: u64) -> Time {
        let mut t = self.busy_until.max(now);
        for _ in 0..self.chunks(bytes) {
            // Strict ordering: one in flight; acceptance is one-way + BAR.
            t = t + self.one_way + self.device_access;
        }
        self.busy_until = t;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_64b_round_trip_near_1us() {
        let mut m = PcieMmio::pcie5();
        let t = m.read(Time::ZERO, 64);
        let lat = t.duration_since(Time::ZERO).as_micros_f64();
        assert!((0.8..1.2).contains(&lat), "64B MMIO read {lat}us");
    }

    #[test]
    fn read_256b_exceeds_4us_like_the_paper() {
        let mut m = PcieMmio::pcie5();
        let t = m.read(Time::ZERO, 256);
        assert!(t.duration_since(Time::ZERO).as_micros_f64() > 3.9);
    }

    #[test]
    fn writes_pay_one_way_only() {
        let mut r = PcieMmio::pcie5();
        let mut w = PcieMmio::pcie5();
        let read = r.read(Time::ZERO, 64).duration_since(Time::ZERO);
        let write = w.write(Time::ZERO, 64).duration_since(Time::ZERO);
        assert!(write < read, "write {write} < read {read}");
    }

    #[test]
    fn ordering_serializes_back_to_back() {
        let mut m = PcieMmio::pcie5();
        let t1 = m.write(Time::ZERO, 64);
        let t2 = m.write(Time::ZERO, 64);
        assert_eq!(t2.duration_since(t1), t1.duration_since(Time::ZERO));
    }

    #[test]
    fn partial_chunks_round_up() {
        let mut m = PcieMmio::pcie5();
        let a = m.write(Time::ZERO, 1);
        let mut m2 = PcieMmio::pcie5();
        let b = m2.write(Time::ZERO, 64);
        assert_eq!(a, b, "sub-chunk writes cost a full transaction");
    }
}
