//! One host socket: cache hierarchy + memory channels + timing.
//!
//! Two kinds of operations are exposed:
//!
//! * **Core-side** ops (`load`, `nt_load`, `store`, `nt_store`, `clflush`,
//!   `cldemote`) model a CPU core of this socket accessing its local
//!   memory, including the LD/ST-queue limits that matter for burst
//!   bandwidth.
//! * **Home-side** ops (`home_*`) model requests arriving at this socket's
//!   coherence agent from *elsewhere* — a remote socket over UPI, or the
//!   CXL Type-2 device's DCOH over CXL.cache. Figs. 3 and 6 are entirely
//!   about the latency difference between these two arrival paths.

use mem_subsys::dram::{DramTech, MemorySystem};
use mem_subsys::line::LineAddr;
use sim_core::port::PortSpec;
use sim_core::time::{Duration, Time};
use sim_core::trace::{self, CacheId, MemId, SnoopKind, TraceEvent};
use sim_core::traffic::FlowSpec;

use crate::hierarchy::{CacheHierarchy, HitLevel};
use crate::timing::HostTiming;

/// Outcome of a core-side memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// When the operation completed from the core's perspective.
    pub completion: Time,
    /// Which level served it.
    pub level: HitLevel,
}

/// Outcome of a home-side (externally originated) operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomeAccess {
    /// When the home agent finished serving the request (data ready to
    /// send back / write acknowledged).
    pub completion: Time,
    /// True if the LLC held the line.
    pub llc_hit: bool,
}

/// A host socket.
///
/// # Examples
///
/// ```
/// use host::socket::Socket;
/// use mem_subsys::line::LineAddr;
/// use sim_core::time::Time;
///
/// let mut s = Socket::xeon_6538y();
/// let a = LineAddr::new(0x4);
/// let miss = s.load(a, Time::ZERO);
/// let hit = s.load(a, miss.completion);
/// assert!(hit.completion.duration_since(miss.completion)
///     < miss.completion.duration_since(Time::ZERO));
/// ```
#[derive(Debug, Clone)]
pub struct Socket {
    /// Cache hierarchy (LLC is the coherence point).
    pub caches: CacheHierarchy,
    /// Local DRAM channels.
    pub mem: MemorySystem,
    /// Timing constants.
    pub timing: HostTiming,
}

impl Socket {
    /// Builds a socket with explicit parts.
    pub(crate) fn new(caches: CacheHierarchy, mem: MemorySystem, timing: HostTiming) -> Self {
        Socket {
            caches,
            mem,
            timing,
        }
    }

    /// The paper's socket: Xeon 6538Y+ hierarchy with 8 × DDR5-4800
    /// channels and 32-entry write queues (Table II).
    pub fn xeon_6538y() -> Self {
        Socket::new(
            CacheHierarchy::xeon_6538y(),
            MemorySystem::new(DramTech::Ddr5_4800, 8, 32),
            HostTiming::default(),
        )
    }

    /// A half-socket configuration: the §VII methodology enables sub-NUMA
    /// clustering to use 16 cores and 4 memory channels.
    pub fn xeon_6538y_snc_half() -> Self {
        Socket::new(
            CacheHierarchy::new(48 * 1024, 12, 2 * 1024 * 1024, 16, 30 * 1024 * 1024, 12),
            MemorySystem::new(DramTech::Ddr5_4800, 4, 32),
            HostTiming::default(),
        )
    }

    // ---------------------------------------------------------------
    // Transaction ports: LD/ST queue occupancy as admission limits
    // ---------------------------------------------------------------

    /// The core's load port: LD-queue occupancy (fill buffers) bounds
    /// outstanding loads, issued at the core's burst cadence. In-order
    /// windowed retirement reproduces the sliding-window burst of §V.
    pub fn load_port(&self) -> PortSpec {
        PortSpec::in_order(
            self.timing.max_outstanding_loads,
            self.timing.core_issue_interval,
        )
    }

    /// The core's remote-load port: UPI/CXL occupancy credits bind well
    /// before the local fill buffers do (the Fig. 4 remote plateau).
    pub fn remote_load_port(&self) -> PortSpec {
        PortSpec::in_order(
            self.timing.max_outstanding_remote,
            self.timing.core_issue_interval,
        )
    }

    /// The core's store port: store-buffer entries bound outstanding
    /// stores.
    pub fn store_port(&self) -> PortSpec {
        PortSpec::in_order(
            self.timing.max_outstanding_stores,
            self.timing.core_issue_interval,
        )
    }

    /// A flow issuing through the core's store buffer — the H2D write
    /// (ST/NT-ST) initiator.
    pub fn store_flow(&self, name: &'static str) -> FlowSpec {
        FlowSpec::bound(name, self.store_port())
    }

    fn level_latency(&self, level: HitLevel) -> Duration {
        match level {
            HitLevel::L1 => self.timing.l1,
            HitLevel::L2 => self.timing.l2,
            HitLevel::Llc => self.timing.llc,
            HitLevel::Memory => unreachable!("memory path is timed via MemorySystem"),
        }
    }

    fn writeback_victims(&mut self, victims: &[mem_subsys::cache::Evicted], now: Time) {
        for v in victims {
            // Background write-back; producer is not blocked.
            trace::emit(
                now,
                TraceEvent::CacheWriteback {
                    cache: CacheId::HostLlc,
                    addr: v.addr.index(),
                },
            );
            trace::emit(
                now,
                TraceEvent::MemWrite {
                    mem: MemId::HostDram,
                    addr: v.addr.index(),
                },
            );
            let _ = self.mem.write(v.addr, now);
        }
    }

    // ---------------------------------------------------------------
    // Core-side operations
    // ---------------------------------------------------------------

    /// Temporal load (`ld`).
    pub fn load(&mut self, addr: LineAddr, now: Time) -> Access {
        let issue = now + self.timing.issue;
        let (level, victims) = self.caches.touch_load_with_victims(addr);
        self.writeback_victims(&victims, now);
        let completion = match level {
            HitLevel::Memory => self.mem.read(addr, issue + self.timing.llc_lookup),
            l => issue + self.level_latency(l),
        };
        Access { completion, level }
    }

    /// Non-temporal load (`nt-ld`): does not allocate in the hierarchy.
    pub fn nt_load(&mut self, addr: LineAddr, now: Time) -> Access {
        let issue = now + self.timing.issue;
        let level = self.caches.probe_level(addr);
        let completion = match level {
            HitLevel::Memory => self.mem.read(addr, issue + self.timing.llc_lookup),
            l => issue + self.level_latency(l),
        };
        Access { completion, level }
    }

    /// Temporal store (`st`): acquires ownership, leaves the line Modified.
    pub fn store(&mut self, addr: LineAddr, now: Time) -> Access {
        let issue = now + self.timing.issue;
        let (level, victims) = self.caches.touch_store(addr);
        self.writeback_victims(&victims, now);
        let completion = match level {
            // Write-allocate: fetch the line, then commit the store.
            HitLevel::Memory => {
                self.mem.read(addr, issue + self.timing.llc_lookup) + self.timing.store_commit
            }
            l => issue + self.level_latency(l) + self.timing.store_commit,
        };
        Access { completion, level }
    }

    /// Non-temporal store (`nt-st`): bypasses the hierarchy, invalidating
    /// any cached copy, and completes on write-queue admission.
    pub fn nt_store(&mut self, addr: LineAddr, now: Time) -> Access {
        let issue = now + self.timing.issue;
        let level = self.caches.probe_level(addr);
        // Full-line overwrite: stale copies are dropped without write-back.
        self.caches.invalidate(addr);
        let completion = self.mem.write(addr, issue);
        Access { completion, level }
    }

    /// CLFLUSH: invalidates the line everywhere, writing back if dirty.
    pub fn clflush(&mut self, addr: LineAddr, now: Time) -> Time {
        let issue = now + self.timing.issue + self.timing.cacheline_op;
        if self.caches.flush_line(addr) {
            self.mem.write(addr, issue)
        } else {
            issue
        }
    }

    /// CLDEMOTE: pushes the line down to the LLC (methodology §V).
    pub fn cldemote(&mut self, addr: LineAddr, now: Time) -> Time {
        let victims = self.caches.demote(addr);
        self.writeback_victims(&victims, now);
        now + self.timing.issue + self.timing.cacheline_op
    }

    // ---------------------------------------------------------------
    // Home-side operations (UPI- or CXL-originated)
    // ---------------------------------------------------------------
    //
    // The `extra` penalty (the CXL.cache agent's less mature coherence
    // handling, §V-A) applies to cache interactions: misses dispatch to
    // memory on the same path as UPI requests, which is why the paper
    // measures near-parity for D2H reads that miss the LLC.

    fn home_arrival(&self, now: Time) -> Time {
        now + self.timing.home_agent
    }

    /// Serves a read of the *current* data without changing coherence state
    /// (CXL RdCurr; used by NC-read and by `nt-ld` from a remote socket).
    pub fn home_read_current(&mut self, addr: LineAddr, now: Time, extra: Duration) -> HomeAccess {
        let t = self.home_arrival(now);
        match self.caches.llc_state(addr) {
            // RdCurr mutates no coherence state: only half the agent
            // penalty applies (the paper's NC-rd premium is the smallest).
            Some(_) => {
                trace::emit(
                    t,
                    TraceEvent::CacheAccess {
                        cache: CacheId::HostLlc,
                        addr: addr.index(),
                        hit: true,
                    },
                );
                HomeAccess {
                    completion: t + extra / 2 + self.timing.llc,
                    llc_hit: true,
                }
            }
            None => {
                trace::emit(
                    t,
                    TraceEvent::CacheAccess {
                        cache: CacheId::HostLlc,
                        addr: addr.index(),
                        hit: false,
                    },
                );
                trace::emit(
                    t,
                    TraceEvent::MemRead {
                        mem: MemId::HostDram,
                        addr: addr.index(),
                    },
                );
                HomeAccess {
                    completion: self.mem.read(addr, t + self.timing.llc_lookup),
                    llc_hit: false,
                }
            }
        }
    }

    /// Serves a shared-state read (CXL RdShared; `ld` from a remote
    /// socket): M/E copies degrade to Shared with a background write-back.
    pub fn home_read_shared(&mut self, addr: LineAddr, now: Time, extra: Duration) -> HomeAccess {
        let t = self.home_arrival(now);
        match self.caches.llc_state(addr) {
            Some(_) => {
                trace::emit(
                    t,
                    TraceEvent::CacheAccess {
                        cache: CacheId::HostLlc,
                        addr: addr.index(),
                        hit: true,
                    },
                );
                if self.caches.degrade_to_shared(addr) {
                    trace::emit(
                        t,
                        TraceEvent::MemWrite {
                            mem: MemId::HostDram,
                            addr: addr.index(),
                        },
                    );
                    let _ = self.mem.write(addr, t);
                }
                trace::emit(
                    t,
                    TraceEvent::CacheState {
                        cache: CacheId::HostLlc,
                        addr: addr.index(),
                        state: trace::LineState::Shared,
                    },
                );
                HomeAccess {
                    completion: t + extra + self.timing.llc,
                    llc_hit: true,
                }
            }
            None => {
                trace::emit(
                    t,
                    TraceEvent::CacheAccess {
                        cache: CacheId::HostLlc,
                        addr: addr.index(),
                        hit: false,
                    },
                );
                trace::emit(
                    t,
                    TraceEvent::MemRead {
                        mem: MemId::HostDram,
                        addr: addr.index(),
                    },
                );
                HomeAccess {
                    completion: self.mem.read(addr, t + self.timing.llc_lookup),
                    llc_hit: false,
                }
            }
        }
    }

    /// Serves an ownership read (CXL RdOwn; CO-read, or the RFO of a remote
    /// `st`): host copies are invalidated; data comes from LLC or memory.
    pub fn home_read_own(&mut self, addr: LineAddr, now: Time, extra: Duration) -> HomeAccess {
        let t = self.home_arrival(now);
        match self.caches.llc_state(addr) {
            Some(_) => {
                trace::emit(
                    t,
                    TraceEvent::CacheAccess {
                        cache: CacheId::HostLlc,
                        addr: addr.index(),
                        hit: true,
                    },
                );
                // Dirty data transfers to the new owner; no memory
                // write-back needed (ownership moves with the data).
                self.caches.invalidate(addr);
                trace::emit(
                    t,
                    TraceEvent::CacheInvalidate {
                        cache: CacheId::HostLlc,
                        addr: addr.index(),
                    },
                );
                // Invalidating transfers are directory-like; half penalty.
                HomeAccess {
                    completion: t + extra / 2 + self.timing.llc + self.timing.snoop_invalidate,
                    llc_hit: true,
                }
            }
            None => {
                trace::emit(
                    t,
                    TraceEvent::CacheAccess {
                        cache: CacheId::HostLlc,
                        addr: addr.index(),
                        hit: false,
                    },
                );
                trace::emit(
                    t,
                    TraceEvent::MemRead {
                        mem: MemId::HostDram,
                        addr: addr.index(),
                    },
                );
                // Ownership reads still pay a directory update on the miss
                // path, so a reduced share of the penalty applies.
                let t = t + extra / 2;
                HomeAccess {
                    completion: self.mem.read(addr, t + self.timing.llc_lookup),
                    llc_hit: false,
                }
            }
        }
    }

    /// Serves a non-allocating write to memory (CXL WrCur; NC-write, or a
    /// remote `nt-st`): invalidates host copies, then writes DRAM directly.
    /// Completion is write-queue admission.
    pub fn home_write_memory(&mut self, addr: LineAddr, now: Time, extra: Duration) -> HomeAccess {
        let t = self.home_arrival(now);
        let had = self.caches.llc_state(addr).is_some();
        trace::emit(
            t,
            TraceEvent::CacheAccess {
                cache: CacheId::HostLlc,
                addr: addr.index(),
                hit: had,
            },
        );
        let t = if had {
            self.caches.invalidate(addr);
            trace::emit(
                t,
                TraceEvent::CacheInvalidate {
                    cache: CacheId::HostLlc,
                    addr: addr.index(),
                },
            );
            t + extra / 2 + self.timing.snoop_invalidate
        } else {
            // Non-allocating writes still pass the coherence engine before
            // the write queue; half the penalty applies.
            t + extra / 2 + self.timing.llc_lookup
        };
        trace::emit(
            t,
            TraceEvent::MemWrite {
                mem: MemId::HostDram,
                addr: addr.index(),
            },
        );
        HomeAccess {
            completion: self.mem.write(addr, t),
            llc_hit: had,
        }
    }

    /// Pushes a full line into the LLC in Modified state (CXL ItoMWr as
    /// used by NC-P, and DDIO-style DMA writes).
    pub fn home_push_llc(&mut self, addr: LineAddr, now: Time, extra: Duration) -> HomeAccess {
        let t = self.home_arrival(now) + extra;
        trace::emit(t, TraceEvent::LlcPush { addr: addr.index() });
        let victims = self.caches.push_llc_modified(addr);
        self.writeback_victims(&victims, t);
        HomeAccess {
            completion: t + self.timing.llc,
            llc_hit: true,
        }
    }

    // ---------------------------------------------------------------
    // Snoop-only operations (no host-memory fallback)
    // ---------------------------------------------------------------
    //
    // Used for device-memory addresses in host-bias D2D checks: on an LLC
    // miss the data comes from *device* memory, so these only interrogate
    // and mutate LLC state.

    /// Snoops for the current value without a state change (SnpCur).
    pub fn snoop_current(&mut self, addr: LineAddr, now: Time, extra: Duration) -> SnoopResult {
        let t = self.home_arrival(now);
        let r = match self.caches.llc_state(addr) {
            Some(s) => SnoopResult {
                completion: t + extra + self.timing.llc,
                hit: true,
                was_dirty: s.is_dirty(),
            },
            None => SnoopResult {
                completion: t + self.timing.llc_lookup,
                hit: false,
                was_dirty: false,
            },
        };
        trace::emit(
            t,
            TraceEvent::Snoop {
                snoop: SnoopKind::Current,
                addr: addr.index(),
                hit: r.hit,
                dirty: r.was_dirty,
            },
        );
        r
    }

    /// Snoops and degrades host copies to Shared (SnpData).
    pub fn snoop_shared(&mut self, addr: LineAddr, now: Time, extra: Duration) -> SnoopResult {
        let t = self.home_arrival(now);
        let r = match self.caches.llc_state(addr) {
            Some(s) => {
                self.caches.degrade_to_shared(addr);
                SnoopResult {
                    completion: t + extra + self.timing.llc,
                    hit: true,
                    was_dirty: s.is_dirty(),
                }
            }
            None => SnoopResult {
                completion: t + self.timing.llc_lookup,
                hit: false,
                was_dirty: false,
            },
        };
        trace::emit(
            t,
            TraceEvent::Snoop {
                snoop: SnoopKind::Shared,
                addr: addr.index(),
                hit: r.hit,
                dirty: r.was_dirty,
            },
        );
        r
    }

    /// Snoops and invalidates host copies (SnpInv); the dirty data, if any,
    /// is forwarded to the requester rather than written back here.
    pub fn snoop_invalidate(&mut self, addr: LineAddr, now: Time, extra: Duration) -> SnoopResult {
        let t = self.home_arrival(now);
        let r = match self.caches.llc_state(addr) {
            Some(s) => {
                self.caches.invalidate(addr);
                SnoopResult {
                    completion: t + extra + self.timing.llc + self.timing.snoop_invalidate,
                    hit: true,
                    was_dirty: s.is_dirty(),
                }
            }
            None => SnoopResult {
                completion: t + self.timing.llc_lookup,
                hit: false,
                was_dirty: false,
            },
        };
        trace::emit(
            t,
            TraceEvent::Snoop {
                snoop: SnoopKind::Invalidate,
                addr: addr.index(),
                hit: r.hit,
                dirty: r.was_dirty,
            },
        );
        r
    }
}

/// Outcome of a snoop-only operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnoopResult {
    /// When the snoop response is ready.
    pub completion: Time,
    /// True if the LLC held the line.
    pub hit: bool,
    /// True if the line was Modified (the snooper receives dirty data).
    pub was_dirty: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_subsys::coherence::MesiState;

    fn line(i: u64) -> LineAddr {
        LineAddr::new(i)
    }

    #[test]
    fn load_miss_then_hit_latencies() {
        let mut s = Socket::xeon_6538y();
        let miss = s.load(line(1), Time::ZERO);
        assert_eq!(miss.level, HitLevel::Memory);
        let hit = s.load(line(1), Time::from_nanos(1000));
        assert_eq!(hit.level, HitLevel::L1);
        let hit_latency = hit.completion.duration_since(Time::from_nanos(1000));
        let miss_latency = miss.completion.duration_since(Time::ZERO);
        assert!(hit_latency < miss_latency / 10);
    }

    #[test]
    fn llc_hit_after_cldemote() {
        let mut s = Socket::xeon_6538y();
        s.load(line(2), Time::ZERO);
        s.cldemote(line(2), Time::from_nanos(100));
        let a = s.load(line(2), Time::from_nanos(200));
        assert_eq!(a.level, HitLevel::Llc);
        let lat = a.completion.duration_since(Time::from_nanos(200));
        assert!(lat >= s.timing.llc && lat < s.timing.llc * 2);
    }

    #[test]
    fn nt_store_completes_on_admission_and_invalidates() {
        let mut s = Socket::xeon_6538y();
        s.load(line(3), Time::ZERO);
        let a = s.nt_store(line(3), Time::from_nanos(500));
        assert!(!s.caches.contains(line(3)));
        // Admission is fast relative to a memory read.
        let lat = a.completion.duration_since(Time::from_nanos(500));
        assert!(lat < Duration::from_nanos(10), "nt-st latency {lat}");
    }

    #[test]
    fn store_write_allocates() {
        let mut s = Socket::xeon_6538y();
        let a = s.store(line(4), Time::ZERO);
        assert_eq!(a.level, HitLevel::Memory);
        assert_eq!(s.caches.llc_state(line(4)), Some(MesiState::Modified));
    }

    #[test]
    fn clflush_writes_back_dirty_lines() {
        let mut s = Socket::xeon_6538y();
        s.store(line(5), Time::ZERO);
        let (_, w_before) = s.mem.op_counts();
        s.clflush(line(5), Time::from_nanos(300));
        let (_, w_after) = s.mem.op_counts();
        assert_eq!(w_after, w_before + 1);
        assert!(!s.caches.contains(line(5)));
    }

    #[test]
    fn home_read_current_preserves_state() {
        let mut s = Socket::xeon_6538y();
        s.store(line(6), Time::ZERO);
        s.cldemote(line(6), Time::from_nanos(100));
        let h = s.home_read_current(line(6), Time::from_nanos(200), Duration::ZERO);
        assert!(h.llc_hit);
        assert_eq!(s.caches.llc_state(line(6)), Some(MesiState::Modified));
    }

    #[test]
    fn home_read_shared_degrades_and_writes_back() {
        let mut s = Socket::xeon_6538y();
        s.store(line(7), Time::ZERO);
        let (_, w0) = s.mem.op_counts();
        let h = s.home_read_shared(line(7), Time::from_nanos(100), Duration::ZERO);
        assert!(h.llc_hit);
        assert_eq!(s.caches.llc_state(line(7)), Some(MesiState::Shared));
        assert_eq!(s.mem.op_counts().1, w0 + 1);
    }

    #[test]
    fn home_read_own_invalidates() {
        let mut s = Socket::xeon_6538y();
        s.load(line(8), Time::ZERO);
        let h = s.home_read_own(line(8), Time::from_nanos(100), Duration::ZERO);
        assert!(h.llc_hit);
        assert!(!s.caches.contains(line(8)));
    }

    #[test]
    fn home_write_memory_misses_are_cheap_writes() {
        let mut s = Socket::xeon_6538y();
        let h = s.home_write_memory(line(9), Time::ZERO, Duration::ZERO);
        assert!(!h.llc_hit);
        let lat = h.completion.duration_since(Time::ZERO);
        // home_agent + llc_lookup + instant write-queue admission.
        assert!(lat < Duration::from_nanos(30), "{lat}");
    }

    #[test]
    fn home_push_llc_lands_modified() {
        let mut s = Socket::xeon_6538y();
        let h = s.home_push_llc(line(10), Time::ZERO, Duration::ZERO);
        assert!(h.llc_hit);
        assert_eq!(s.caches.llc_state(line(10)), Some(MesiState::Modified));
    }

    #[test]
    fn cxl_penalty_applies_to_cache_interactions() {
        // Hit path: full penalty.
        let mut a = Socket::xeon_6538y();
        let mut b = Socket::xeon_6538y();
        for s in [&mut a, &mut b] {
            s.load(line(11), Time::ZERO);
            s.cldemote(line(11), Time::ZERO);
        }
        let penalty = a.timing.cxl_agent_penalty;
        let upi = a.home_read_current(line(11), Time::from_nanos(100), Duration::ZERO);
        let cxl = b.home_read_current(line(11), Time::from_nanos(100), penalty);
        // RdCurr mutates no state: half the agent penalty applies.
        assert_eq!(cxl.completion.duration_since(upi.completion), penalty / 2);
        // Miss path: reads dispatch to memory with no penalty.
        let mut c = Socket::xeon_6538y();
        let mut d = Socket::xeon_6538y();
        let upi = c.home_read_current(line(12), Time::ZERO, Duration::ZERO);
        let cxl = d.home_read_current(line(12), Time::ZERO, penalty);
        assert_eq!(upi.completion, cxl.completion, "miss path is penalty-free");
    }

    #[test]
    fn llc_miss_home_read_uses_memory() {
        let mut s = Socket::xeon_6538y();
        let h = s.home_read_shared(line(12), Time::ZERO, Duration::ZERO);
        assert!(!h.llc_hit);
        let lat = h.completion.duration_since(Time::ZERO);
        assert!(lat > Duration::from_nanos(50), "memory path is slow: {lat}");
    }

    #[test]
    fn snoops_interrogate_llc_without_memory() {
        let mut s = Socket::xeon_6538y();
        s.store(line(20), Time::ZERO);
        s.cldemote(line(20), Time::ZERO);
        let (r0, _) = s.mem.op_counts();
        let cur = s.snoop_current(line(20), Time::from_nanos(100), Duration::ZERO);
        assert!(cur.hit && cur.was_dirty);
        assert_eq!(
            s.caches.llc_state(line(20)),
            Some(MesiState::Modified),
            "SnpCur no change"
        );
        let sh = s.snoop_shared(line(20), cur.completion, Duration::ZERO);
        assert!(sh.hit && sh.was_dirty);
        assert_eq!(s.caches.llc_state(line(20)), Some(MesiState::Shared));
        let inv = s.snoop_invalidate(line(20), sh.completion, Duration::ZERO);
        assert!(inv.hit && !inv.was_dirty);
        assert_eq!(s.caches.llc_state(line(20)), None);
        // Snoop misses never touch host memory reads.
        let miss = s.snoop_shared(line(21), inv.completion, Duration::ZERO);
        assert!(!miss.hit);
        assert_eq!(s.mem.op_counts().0, r0, "no memory reads issued by snoops");
    }
}
