//! Host-side timing parameters.
//!
//! All host latency constants live here so that calibration (matching the
//! shape of the paper's Figs. 3–6) and ablation benches adjust one struct.
//! Defaults approximate the paper's fixed-2.2 GHz Xeon 6538Y+.

use sim_core::time::Duration;

/// Latency constants for one host socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostTiming {
    /// Core issue/AGU overhead charged to every memory instruction.
    pub issue: Duration,
    /// L1D hit latency.
    pub l1: Duration,
    /// L2 hit latency (from issue).
    pub l2: Duration,
    /// LLC hit latency (from issue).
    pub llc: Duration,
    /// LLC tag lookup cost charged on the miss path before memory access.
    pub llc_lookup: Duration,
    /// Home-agent/CHA processing per remote or device request.
    pub(crate) home_agent: Duration,
    /// Extra processing charged to device-originated (CXL.cache) requests:
    /// the paper attributes the D2H latency gap to a "more generic and/or
    /// less mature" coherence mechanism than UPI's (§V-A).
    pub cxl_agent_penalty: Duration,
    /// Cost of invalidating a line in the core caches on a snoop.
    pub(crate) core_invalidate: Duration,
    /// CLFLUSH/CLDEMOTE instruction cost.
    pub cacheline_op: Duration,
    /// Store-buffer admission cost for a temporal store hit.
    pub store_commit: Duration,
    /// Maximum loads in flight per core (limits burst bandwidth).
    pub(crate) max_outstanding_loads: usize,
    /// Maximum *remote* (cross-UPI) loads in flight per core — UPI
    /// occupancy credits bind well before the local fill buffers do.
    pub(crate) max_outstanding_remote: usize,
    /// Maximum stores in flight per core (store-buffer entries).
    pub(crate) max_outstanding_stores: usize,
    /// Core issue interval between consecutive memory ops in a burst.
    pub core_issue_interval: Duration,
}

impl Default for HostTiming {
    fn default() -> Self {
        HostTiming {
            issue: Duration::from_ns_f64(1.0),
            l1: Duration::from_ns_f64(2.3),
            l2: Duration::from_ns_f64(7.0),
            llc: Duration::from_ns_f64(22.0),
            llc_lookup: Duration::from_ns_f64(8.0),
            home_agent: Duration::from_ns_f64(15.0),
            cxl_agent_penalty: Duration::from_ns_f64(45.0),
            core_invalidate: Duration::from_ns_f64(12.0),
            cacheline_op: Duration::from_ns_f64(4.0),
            store_commit: Duration::from_ns_f64(1.5),
            max_outstanding_loads: 10,
            max_outstanding_remote: 6,
            max_outstanding_stores: 48,
            core_issue_interval: Duration::from_ns_f64(0.91), // 2 cycles @2.2GHz
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_ordered_sensibly() {
        let t = HostTiming::default();
        assert!(t.l1 < t.l2 && t.l2 < t.llc);
        assert!(t.issue < t.l1);
        assert!(t.max_outstanding_loads > 1);
        assert!(t.cxl_agent_penalty > Duration::ZERO);
    }
}
