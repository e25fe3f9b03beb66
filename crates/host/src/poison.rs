//! Poisoned-line tracking: how corrupt data surfaces on host reads.
//!
//! CXL RAS marks known-corrupt data with a *poison* bit instead of
//! killing the link: a line written with poison stays resident (cache or
//! DRAM) and the error surfaces only when a consumer reads it, as an
//! [`RasMeta`] with `poison` set (on real hardware, a machine check).
//!
//! [`PoisonSet`] tracks that directory as an **opt-in layer** beside the
//! untouched [`crate::socket::Socket`] facades — the harness consults it
//! around memory operations, so fault-off runs stay byte-identical:
//!
//! ```text
//! poison.on_write(addr, t);                  // writes may inject (BER-style)
//! let meta = poison.check_read(addr, done);  // reads surface it
//! if meta.poison { /* fallback / abort path */ }
//! ```
//!
//! Injection comes from a
//! [`FaultProcess::Poison`](sim_core::fault::FaultProcess) bound to the
//! harness's injection point (conventionally `"host.mem"`); devices
//! propagating poison (a failed offload write-back) call
//! `PoisonSet::mark` directly.

use std::collections::HashSet;

use cxl_proto::request::RasMeta;
use mem_subsys::line::LineAddr;
use sim_core::fault::Injector;
use sim_core::time::Time;
use sim_core::trace::{self, TraceEvent};

/// The set of currently poisoned lines, with injection and surfacing.
///
/// # Examples
///
/// ```
/// use host::poison::PoisonSet;
/// use mem_subsys::line::LineAddr;
/// use sim_core::fault::{FaultPlan, FaultProcess};
/// use sim_core::time::Time;
///
/// // Every write is poisoned at its home.
/// let plan = FaultPlan::new(1).with("host.mem", FaultProcess::poison(1.0));
/// let mut p = PoisonSet::new(plan.injector("host.mem"));
/// assert!(p.on_write(LineAddr::new(7), Time::ZERO));
/// let meta = p.check_read(LineAddr::new(7), Time::ZERO);
/// assert!(meta.poison);
/// assert!(!p.check_read(LineAddr::new(8), Time::ZERO).poison);
/// ```
#[derive(Debug, Clone)]
pub struct PoisonSet {
    injector: Injector,
    lines: HashSet<u64>,
    surfaced: u64,
}

impl PoisonSet {
    /// Tracking with write-time injection drawn from `injector`.
    pub fn new(injector: Injector) -> Self {
        PoisonSet {
            injector,
            lines: HashSet::new(),
            surfaced: 0,
        }
    }

    /// Draws whether the line written at `at` is poisoned by the bound
    /// process; marks it if so. Inert injector → no draw, `false`.
    pub fn on_write(&mut self, addr: LineAddr, at: Time) -> bool {
        if self.injector.poison_line(at) {
            self.mark(addr);
            true
        } else {
            false
        }
    }

    /// Marks a line poisoned without a draw (poison propagated from a
    /// device completion, not injected here).
    pub(crate) fn mark(&mut self, addr: LineAddr) {
        self.lines.insert(addr.index());
    }

    /// Checks a read of `addr` completing at `at`: a poisoned line
    /// surfaces as [`RasMeta`] with `poison` set and emits
    /// [`TraceEvent::PoisonSurface`]. The line stays poisoned until
    /// [`scrub`](Self::scrub)bed — every reader sees it.
    pub fn check_read(&mut self, addr: LineAddr, at: Time) -> RasMeta {
        if self.lines.contains(&addr.index()) {
            self.surfaced += 1;
            trace::emit(at, TraceEvent::PoisonSurface { addr: addr.index() });
            RasMeta::CLEAN.with_poison()
        } else {
            RasMeta::CLEAN
        }
    }

    /// Clears a line's poison (a full-line overwrite or a memory scrub);
    /// true if it was poisoned.
    pub fn scrub(&mut self, addr: LineAddr) -> bool {
        self.lines.remove(&addr.index())
    }

    /// Reads that observed poison (one line can surface repeatedly).
    pub fn surfaced(&self) -> u64 {
        self.surfaced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::fault::{FaultPlan, FaultProcess};

    #[test]
    fn marked_lines_surface_until_scrubbed() {
        let mut p = PoisonSet::new(FaultPlan::disabled().injector("host.mem"));
        let a = LineAddr::new(3);
        p.mark(a);
        assert!(p.check_read(a, Time::ZERO).poison);
        assert!(p.check_read(a, Time::ZERO).poison, "poison is sticky");
        assert_eq!(p.surfaced(), 2);
        assert!(p.scrub(a));
        assert!(!p.check_read(a, Time::ZERO).poison);
        assert!(p.lines.is_empty());
    }

    #[test]
    fn injection_draws_only_when_bound() {
        let plan = FaultPlan::new(13).with("host.mem", FaultProcess::poison(0.2));
        let mut p = PoisonSet::new(plan.injector("host.mem"));
        let mut hits = 0;
        for i in 0..500 {
            if p.on_write(LineAddr::new(i), Time::ZERO) {
                hits += 1;
            }
        }
        assert!(hits > 0, "0.2 poison rate over 500 writes fires");
        assert_eq!(p.lines.len(), hits);
        // Healthy set never injects regardless of write volume.
        let mut h = PoisonSet::new(FaultPlan::disabled().injector("host.mem"));
        for i in 0..500 {
            assert!(!h.on_write(LineAddr::new(i), Time::ZERO));
        }
        assert!(h.lines.is_empty());
    }

    #[test]
    fn surfacing_emits_trace_events() {
        trace::install(16);
        let mut p = PoisonSet::new(FaultPlan::disabled().injector("host.mem"));
        p.mark(LineAddr::new(9));
        let _ = p.check_read(LineAddr::new(9), Time::from_nanos(40));
        let events = trace::uninstall();
        assert_eq!(
            events[0].event,
            TraceEvent::PoisonSurface {
                addr: LineAddr::new(9).index()
            }
        );
    }
}
