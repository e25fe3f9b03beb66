//! Dual-socket NUMA system and the emulated-CXL baseline.
//!
//! The paper's footnote 1: since a CXL device is exposed as a NUMA node, a
//! remote socket accessing a local socket's memory *emulates* D2H accesses.
//! [`NumaSystem`] models a core on socket 1 reaching memory homed on
//! socket 0 over UPI — the `nt-ld`/`ld`/`nt-st`/`st` baselines of Fig. 3 —
//! and Insight 1 is about where this emulation diverges from true CXL.

use cxl_proto::link::{upi, Link};
use mem_subsys::line::LineAddr;
use sim_core::time::{Duration, Time};
use sim_core::trace::{self, TraceEvent};

use crate::socket::{HomeAccess, Socket};

/// Request-message payload on UPI (header-only; the link adds framing).
const REQ_BYTES: u64 = 0;
/// Data-message payload (one cache line).
const DATA_BYTES: u64 = 64;

/// A remote core accessing memory homed on another socket over UPI.
///
/// # Examples
///
/// ```
/// use host::numa::NumaSystem;
/// use mem_subsys::line::LineAddr;
/// use sim_core::time::Time;
///
/// let mut numa = NumaSystem::xeon_dual_socket();
/// let a = LineAddr::new(0x1);
/// let acc = numa.remote_load(a, Time::ZERO);
/// assert!(acc.completion > Time::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct NumaSystem {
    /// The home socket whose memory is accessed (and whose LLC holds the
    /// lines in the LLC-hit cases).
    pub home: Socket,
    /// UPI request direction (remote core → home agent).
    req: Link,
    /// UPI response direction (home agent → remote core).
    resp: Link,
}

impl NumaSystem {
    /// Builds the paper's dual-socket testbed (Table II) with default UPI
    /// links.
    pub fn xeon_dual_socket() -> Self {
        NumaSystem {
            home: Socket::xeon_6538y(),
            req: upi(),
            resp: upi(),
        }
    }

    fn issue(&self, now: Time) -> Time {
        now + self.home.timing.issue
    }

    /// Remote temporal load (`ld`): RdShared at the home agent, data back.
    pub fn remote_load(&mut self, addr: LineAddr, now: Time) -> HomeAccess {
        let arrive = self.req.deliver(self.issue(now), REQ_BYTES);
        trace::emit(
            arrive,
            TraceEvent::UpiTransfer {
                bytes: REQ_BYTES,
                write: false,
            },
        );
        let served = self.home.home_read_shared(addr, arrive, Duration::ZERO);
        let completion = self.resp.deliver(served.completion, DATA_BYTES);
        trace::emit(
            completion,
            TraceEvent::UpiTransfer {
                bytes: DATA_BYTES,
                write: false,
            },
        );
        HomeAccess {
            completion,
            llc_hit: served.llc_hit,
        }
    }

    /// Remote non-temporal load (`nt-ld`): RdCurr semantics.
    pub fn remote_nt_load(&mut self, addr: LineAddr, now: Time) -> HomeAccess {
        let arrive = self.req.deliver(self.issue(now), REQ_BYTES);
        trace::emit(
            arrive,
            TraceEvent::UpiTransfer {
                bytes: REQ_BYTES,
                write: false,
            },
        );
        let served = self.home.home_read_current(addr, arrive, Duration::ZERO);
        let completion = self.resp.deliver(served.completion, DATA_BYTES);
        trace::emit(
            completion,
            TraceEvent::UpiTransfer {
                bytes: DATA_BYTES,
                write: false,
            },
        );
        HomeAccess {
            completion,
            llc_hit: served.llc_hit,
        }
    }

    /// Remote temporal store (`st`): RFO (ownership read) then local
    /// commit; globally visible once the data response returns.
    pub fn remote_store(&mut self, addr: LineAddr, now: Time) -> HomeAccess {
        let arrive = self.req.deliver(self.issue(now), REQ_BYTES);
        trace::emit(
            arrive,
            TraceEvent::UpiTransfer {
                bytes: REQ_BYTES,
                write: true,
            },
        );
        let served = self.home.home_read_own(addr, arrive, Duration::ZERO);
        let owned = self.resp.deliver(served.completion, DATA_BYTES);
        trace::emit(
            owned,
            TraceEvent::UpiTransfer {
                bytes: DATA_BYTES,
                write: true,
            },
        );
        HomeAccess {
            completion: owned + self.home.timing.store_commit,
            llc_hit: served.llc_hit,
        }
    }

    /// Remote non-temporal store (`nt-st`): data travels with the request
    /// and completes on the home write-queue admission.
    pub fn remote_nt_store(&mut self, addr: LineAddr, now: Time) -> HomeAccess {
        let arrive = self.req.deliver(self.issue(now), DATA_BYTES);
        trace::emit(
            arrive,
            TraceEvent::UpiTransfer {
                bytes: DATA_BYTES,
                write: true,
            },
        );
        self.home.home_write_memory(addr, arrive, Duration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(i: u64) -> LineAddr {
        LineAddr::new(i)
    }

    /// Prepare the LLC-hit case of the methodology: the home core touches
    /// the line, then CLDEMOTEs it into the LLC.
    fn stage_llc(numa: &mut NumaSystem, addr: LineAddr) {
        numa.home.load(addr, Time::ZERO);
        numa.home.cldemote(addr, Time::ZERO);
    }

    #[test]
    fn remote_load_llc_hit_vs_miss() {
        let mut numa = NumaSystem::xeon_dual_socket();
        stage_llc(&mut numa, line(1));
        let t0 = Time::from_nanos(1_000);
        let hit = numa.remote_load(line(1), t0);
        assert!(hit.llc_hit);
        let miss = numa.remote_load(line(2), hit.completion);
        assert!(!miss.llc_hit);
        let hit_lat = hit.completion.duration_since(t0);
        let miss_lat = miss.completion.duration_since(hit.completion);
        assert!(miss_lat > hit_lat, "LLC miss slower than hit");
        // Remote LLC hit should land in the 60–130 ns ballpark.
        assert!(
            hit_lat > Duration::from_nanos(60) && hit_lat < Duration::from_nanos(130),
            "remote LLC hit {hit_lat}"
        );
    }

    #[test]
    fn remote_nt_store_is_fast() {
        let mut numa = NumaSystem::xeon_dual_socket();
        let t0 = Time::ZERO;
        let a = numa.remote_nt_store(line(3), t0);
        let lat = a.completion.duration_since(t0);
        // One-way trip + admission: far below a round trip + memory read.
        assert!(lat < Duration::from_nanos(80), "nt-st {lat}");
    }

    #[test]
    fn remote_store_includes_round_trip() {
        let mut numa = NumaSystem::xeon_dual_socket();
        let t0 = Time::ZERO;
        let st = numa.remote_store(line(4), t0);
        let nt = numa.remote_nt_store(line(5), t0 + Duration::from_micros(1));
        let st_lat = st.completion.duration_since(t0);
        let nt_lat = nt.completion.duration_since(t0 + Duration::from_micros(1));
        assert!(st_lat > nt_lat * 2, "st {st_lat} vs nt-st {nt_lat}");
    }

    #[test]
    fn remote_load_leaves_home_line_shared() {
        let mut numa = NumaSystem::xeon_dual_socket();
        numa.home.store(line(6), Time::ZERO);
        numa.home.cldemote(line(6), Time::ZERO);
        numa.remote_load(line(6), Time::from_nanos(500));
        assert_eq!(
            numa.home.caches.llc_state(line(6)),
            Some(mem_subsys::coherence::MesiState::Shared)
        );
    }
}
