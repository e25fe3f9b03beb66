//! Device-side timing parameters.
//!
//! Every latency constant of the CXL Type-2 device model lives here so the
//! calibration against the paper's figure shapes — and the ablation benches
//! — adjust a single struct. The device fabric runs at 400 MHz (2.5 ns per
//! cycle), so constants are expressed in fabric cycles where that is the
//! physical origin of the cost.

use sim_core::time::{Duration, DEVICE_CLOCK};

/// Timing constants for the CXL Type-2 device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceTiming {
    /// LSU request issue interval (one request per fabric cycle).
    pub lsu_issue_interval: Duration,
    /// Maximum outstanding LSU requests (FPGA request window).
    pub lsu_max_outstanding: usize,
    /// DCOH tag lookup (HMC or DMC).
    pub(crate) dcoh_lookup: Duration,
    /// Data access into HMC on a hit.
    pub(crate) hmc_access: Duration,
    /// Data access into DMC on a hit (direct-mapped, faster).
    pub(crate) dmc_access: Duration,
    /// Filling a line into HMC/DMC after a miss response.
    pub(crate) dcoh_fill: Duration,
    /// Soft-logic processing on the H2D path (R-Tile wrapper + support
    /// logic) charged to every H2D request, Type-2 and Type-3 alike.
    pub(crate) h2d_processing: Duration,
    /// Additional DMC coherence check charged to Type-2 H2D requests (the
    /// Fig. 5 T2-vs-T3 delta: ~2–5%).
    pub(crate) h2d_dmc_check: Duration,
    /// Extra cost when an H2D request finds the DMC line Owned/Exclusive
    /// and must downgrade it to Shared (Fig. 5: 4–17% over DMC-miss).
    pub(crate) h2d_state_downgrade: Duration,
    /// Cost of writing back a Modified DMC line before serving an H2D
    /// request (Fig. 5: 36–40% over DMC-miss).
    pub(crate) h2d_dirty_writeback: Duration,
    /// H2D ingress-buffer entries: requests admitted at link rate while
    /// slots remain, then at the pipeline's service rate.
    pub(crate) h2d_ingress_entries: usize,
    /// Pipeline occupancy per H2D request (the issue slot, not the
    /// latency); DMC maintenance work extends it.
    pub(crate) h2d_ingress_occupancy: Duration,
    /// Transactions one DCOH slice tracks concurrently (its request
    /// table); H2D and D2H requests to the same slice share these
    /// entries, so overlapping traffic serializes once they are full.
    pub dcoh_slice_outstanding: usize,
}

impl Default for DeviceTiming {
    fn default() -> Self {
        let cyc = |n: u64| DEVICE_CLOCK.period() * n;
        DeviceTiming {
            lsu_issue_interval: cyc(1),
            lsu_max_outstanding: 32,
            dcoh_lookup: cyc(2),
            // Full LSU->DCOH->cache->LSU round trips through the soft
            // fabric: ~12 cycles at 400 MHz.
            hmc_access: cyc(12),
            dmc_access: cyc(11),
            dcoh_fill: cyc(2),
            h2d_processing: cyc(40), // 100 ns of soft-logic traversal
            h2d_dmc_check: cyc(4),
            h2d_state_downgrade: cyc(8),
            h2d_dirty_writeback: cyc(32),
            h2d_ingress_entries: 12,
            h2d_ingress_occupancy: cyc(1),
            // Deep enough to cover the device-DRAM round trip (~165 ns /
            // 2.5 ns fabric cycle): a shallower table leaves the channel
            // bus idle and D2D bandwidth window-bound instead of
            // drain-bound.
            dcoh_slice_outstanding: 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsu_peak_matches_paper() {
        // 64 B per fabric cycle: §V-A's 25.6 GB/s at 400 MHz.
        let t = DeviceTiming::default();
        assert!((64.0 / t.lsu_issue_interval.as_nanos_f64() - 25.6).abs() < 1e-9);
    }

    #[test]
    fn hierarchy_of_costs() {
        let t = DeviceTiming::default();
        assert!(
            t.dmc_access <= t.hmc_access,
            "direct-mapped DMC is not slower than HMC"
        );
        assert!(t.h2d_dirty_writeback > t.h2d_state_downgrade);
        assert!(t.h2d_dmc_check < t.h2d_processing);
    }
}
