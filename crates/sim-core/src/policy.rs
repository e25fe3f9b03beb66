//! Feedback-controlled bias policy: hot-region tracking plus a
//! cost/benefit flip controller with fault-aware degradation.
//!
//! The paper's §IV-B shows that the right coherence bias depends on who
//! touches a region: device-originated traffic wants device bias (skip
//! the DCOH→host snoop), host-originated traffic wants host bias (a
//! host access to a device-bias region forces an expensive flip). This
//! module is the hardware-agnostic half of the adaptive daemon — it
//! counts accesses per fixed-size region over epochs, maintains a
//! decayed EWMA temperature, and at each epoch boundary emits a batched,
//! hysteretic set of [`BiasDecision`]s. The `cxl-type2` crate owns the
//! other half (actually flushing caches and rewriting the bias table).
//! The bias state itself lives only in the device's bias table:
//! [`BiasPolicy::end_epoch`] asks its caller for each region's current
//! bias instead of keeping a copy.
//!
//! Everything here is plain sequential arithmetic over fixed-size
//! vectors: decisions depend only on the call sequence, never on wall
//! clock or thread count, so a sweep that embeds one policy instance
//! per point stays byte-identical under the parallel runner.
//!
//! # Controller model
//!
//! The controller scores on *smoothed* per-epoch access rates — a convex
//! EWMA (`rate' = DECAY × rate + (1 − DECAY) × count`) whose steady
//! state is the true mean — rather than raw single-epoch counts: with a
//! handful of ops per region per epoch, one all-device noise epoch would
//! otherwise masquerade as a device-heavy region and churn the bias
//! table near the crossover. For a region currently in **host bias**,
//! flipping to device bias is worth it when the projected snoop
//! round-trips saved exceed the transition cost:
//!
//! ```text
//! benefit = H × dev_rate × SNOOP_SAVED_NS
//! cost    = H × host_rate × H2D_PENALTY_NS
//!         + dirty_lines × FLUSH_COST_NS + TRANSITION_NS
//! flip to device  iff  benefit − cost ≥ ENTER_MARGIN_NS
//! ```
//!
//! where `H = HORIZON_EPOCHS` amortizes the recurring per-epoch terms
//! over the flip's expected residency; the flush and the transition are
//! paid once. For a region in **device bias**, the controller watches
//! the ongoing penalty host accesses pay (each one is a forced bias flip
//! on real hardware) and flips back when:
//!
//! ```text
//! H × (host_rate × H2D_PENALTY_NS − dev_rate × SNOOP_SAVED_NS)
//!     − TRANSITION_NS ≥ EXIT_MARGIN_NS
//! ```
//!
//! Because both margins are strictly positive, the same epoch counts can
//! never justify A→B and then B→A: the controller is hysteretic by
//! construction (see the tinyprop property in `tests/policy_props.rs`).
//! Flips are additionally rate-limited by a per-region cooldown and a
//! per-epoch batch cap, so flip storms are impossible.
//!
//! # Fault-aware degradation
//!
//! Sustained faults (link bit errors) make the device-bias retry path
//! expensive: recovery happens in software and re-enters the coherent
//! path. Each region keeps a fault EWMA; when it crosses [`FAULT_ENTER`]
//! the region degrades — pinned to host bias (a [`FlipCause::Degrade`]
//! decision if it was in device bias) and ineligible for device-bias
//! flips — until the EWMA decays below [`FAULT_EXIT`] (again
//! hysteretic: `FAULT_EXIT < FAULT_ENTER`).
//!
//! # Constants
//!
//! The controller has no knobs: every constant below is the one value
//! the adaptive-bias ablation (`cxl_bench::bias`) runs with, calibrated
//! to the device facade's *measured* per-op costs rather than to round
//! numbers. All costs are modeled nanoseconds.

use crate::trace::{BiasKind, FlipCause};

/// Region granularity: a region spans `1 << GRAIN_SHIFT` lines (64
/// lines = 4 KiB, the host page the bias table and the daemon manage).
pub const GRAIN_SHIFT: u32 = 6;

/// Temperature and rate-estimator EWMA decay per epoch. The epoch
/// access count is added on top of the temperature (`temp' = DECAY ×
/// temp + accesses`) and convexly mixed into the rate estimates
/// (`rate' = DECAY × rate + (1 − DECAY) × count`). At 0.8 the rates
/// average over about five epochs, so a single noisy epoch of a few ops
/// cannot carry a region across a margin.
pub const DECAY: f64 = 0.8;

/// Benefit per device-origin access of being in device bias: the
/// DCOH→host snoop round-trip skipped (§IV-B). A host-bias NC scan pays
/// ~162 ns/op against ~78 under device bias; this is the measured gap.
pub const SNOOP_SAVED_NS: f64 = 85.0;

/// Penalty per host-origin access to a device-bias region: the forced
/// flip plus the region-wide flush to re-enter device bias.
pub const H2D_PENALTY_NS: f64 = 400.0;

/// CO_WR flush cost per dirty line when entering device bias.
pub const FLUSH_COST_NS: f64 = 30.0;

/// Fixed latency of any bias transition.
pub const TRANSITION_NS: f64 = 500.0;

/// Epochs over which a flip's recurring benefit is amortized against
/// its one-time cost. Crediting a flip with a 16-epoch residency keeps
/// a one-time transition cost from permanently vetoing a flip that
/// keeps paying off: at a few scans per region per epoch, a myopic
/// (one-epoch) controller could never pay for the transition.
pub const HORIZON_EPOCHS: f64 = 16.0;

/// Margin the net benefit must clear to enter device bias.
pub const ENTER_MARGIN_NS: f64 = 200.0;

/// Margin the net penalty must clear to exit device bias. A wide dead
/// band: a device-biased region near the crossover should stay put
/// unless the host-access rate is decisively (not just noisily) above
/// break-even — a wrong exit pays the writeback, slow scans, and the
/// re-entry flush.
pub const EXIT_MARGIN_NS: f64 = 3000.0;

/// Regions cooler than this never flip (temperature units are decayed
/// accesses per epoch).
pub const MIN_TEMPERATURE: f64 = 4.0;

/// Epochs a region must wait between flips.
pub const COOLDOWN_EPOCHS: u64 = 1;

/// Cap on transitions ordered in one epoch (batching).
pub const MAX_FLIPS_PER_EPOCH: usize = 8;

/// Fault-EWMA decay per epoch. Slow, and [`FAULT_ENTER`] and
/// [`FAULT_EXIT`] low, to match per-region fault arrival rates: the hot
/// 4 KiB region on a 1e-5 link draws a fault every few epochs, and each
/// device-bias recovery stalls the op chain across several empty
/// epochs, so a fast-decay EWMA would oscillate across the thresholds
/// between arrivals instead of integrating them.
pub const FAULT_DECAY: f64 = 0.9;

/// Fault EWMA at or above which a region degrades to host bias.
pub const FAULT_ENTER: f64 = 1.5;

/// Fault EWMA at or below which a degraded region recovers.
pub const FAULT_EXIT: f64 = 0.25;

// The hysteresis argument above rests on these.
const _: () = assert!(
    ENTER_MARGIN_NS > 0.0
        && EXIT_MARGIN_NS > 0.0
        && FAULT_EXIT < FAULT_ENTER
        && DECAY >= 0.0
        && DECAY < 1.0
        && FAULT_DECAY >= 0.0
        && FAULT_DECAY < 1.0
);

/// Where an access originated, as seen by the tracker.
///
/// Host stores are tracked separately because they both penalise device
/// bias (forced flip) *and* create dirty lines the next device-bias
/// entry must flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOrigin {
    /// Host-initiated read of device memory (H2D load).
    HostLoad,
    /// Host-initiated write of device memory (H2D store); dirties a line.
    HostStore,
    /// Device-initiated access (LSU / D2D), the bias-mode beneficiary.
    Device,
}

/// One batched transition ordered at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiasDecision {
    /// Region index (line index >> [`GRAIN_SHIFT`]).
    pub region: u32,
    /// Bias the region should transition to.
    pub to: BiasKind,
    /// What triggered the transition.
    pub reason: FlipCause,
    /// Signed net score in nanoseconds (positive = projected win).
    pub score_ns: f64,
}

#[derive(Debug, Clone, Copy, Default)]
struct RegionState {
    // Per-epoch counters, reset at every epoch boundary.
    host_loads: u64,
    host_stores: u64,
    dev_accesses: u64,
    faults: u64,
    // Carried across epochs.
    temperature: f64,
    fault_ewma: f64,
    // Smoothed per-epoch access-rate estimates (EWMA with weight
    // `1 − DECAY` on the newest epoch). The controller scores on these,
    // not the raw single-epoch counts: with only a handful of ops per
    // region per epoch, raw counts make an all-device noise epoch look
    // like a device-heavy region and cause churn near the crossover.
    dev_rate: f64,
    host_rate: f64,
    store_rate: f64,
    degraded: bool,
    last_flip_epoch: u64,
    ever_flipped: bool,
    // The controller's standing target: true after a flip-to-device
    // decision, false after any flip to host it ordered. Hardware H2D
    // exits and fault recovery leave it untouched, so the daemon can
    // promptly restore device bias the controller still wants.
    wants_device: bool,
}

impl RegionState {
    fn epoch_accesses(&self) -> u64 {
        self.host_loads + self.host_stores + self.dev_accesses
    }
}

/// Counters the daemon exposes for reporting and gating.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// Epochs completed.
    pub epochs: u64,
    /// Transitions ordered with [`FlipCause::Policy`]: epoch decisions
    /// plus prompt re-entries ([`BiasPolicy::record_reentry`]).
    pub policy_flips: u64,
    /// Transitions ordered with [`FlipCause::Degrade`].
    pub degrade_flips: u64,
    /// Candidate flips suppressed by the per-epoch batch cap.
    pub batched_out: u64,
}

/// Epoch-based hot-region tracker plus the feedback flip controller.
///
/// One instance covers a contiguous span of device memory split into
/// `1 << GRAIN_SHIFT`-line regions. Feed it accesses and faults as they
/// happen (cheap integer bumps), then call [`end_epoch`] at a fixed
/// simulated-time cadence to collect the transitions to apply.
///
/// [`end_epoch`]: BiasPolicy::end_epoch
#[derive(Debug, Clone)]
pub struct BiasPolicy {
    regions: Vec<RegionState>,
    epoch: u64,
    stats: PolicyStats,
}

impl BiasPolicy {
    /// Build a policy over `lines` lines of device memory, every region
    /// at zero temperature.
    pub fn new(lines: u64) -> Self {
        let n = lines.div_ceil(1 << GRAIN_SHIFT).max(1) as usize;
        Self {
            regions: vec![RegionState::default(); n],
            epoch: 0,
            stats: PolicyStats::default(),
        }
    }

    /// Region index covering `line` (a device-local line index).
    /// Out-of-range lines clamp to the last region so callers never
    /// have to bounds-check the hot path.
    pub fn region_of(&self, line: u64) -> u32 {
        ((line >> GRAIN_SHIFT) as usize).min(self.regions.len() - 1) as u32
    }

    /// Record one access to `region`. Constant-time counter bump —
    /// safe to call from LSU/H2D/fabric hot paths.
    #[inline]
    pub fn note_access(&mut self, region: u32, origin: AccessOrigin) {
        let r = &mut self.regions[region as usize];
        match origin {
            AccessOrigin::HostLoad => r.host_loads += 1,
            AccessOrigin::HostStore => r.host_stores += 1,
            AccessOrigin::Device => r.dev_accesses += 1,
        }
    }

    /// Record a fault (link retry, poison, watchdog timeout) attributed
    /// to `region`.
    #[inline]
    pub fn note_fault(&mut self, region: u32) {
        self.regions[region as usize].faults += 1;
    }

    /// Decayed EWMA temperature of `region`.
    pub fn temperature(&self, region: u32) -> f64 {
        self.regions[region as usize].temperature
    }

    /// Whether `region` is currently degraded (pinned to host bias).
    pub fn is_degraded(&self, region: u32) -> bool {
        self.regions[region as usize].degraded
    }

    /// Whether the controller's standing decision for `region` is device
    /// bias. Stays true when hardware or fault recovery takes the region
    /// out of device bias, so the daemon can promptly restore it instead
    /// of waiting out the epoch; degraded regions never want device bias.
    pub fn wants_device(&self, region: u32) -> bool {
        let r = &self.regions[region as usize];
        r.wants_device && !r.degraded
    }

    /// Counters for reporting.
    pub fn stats(&self) -> PolicyStats {
        self.stats
    }

    /// Acknowledge a prompt re-entry into device bias: the daemon
    /// restores the controller's standing decision after an H2D access
    /// revoked it. Counts as a [`FlipCause::Policy`] flip but leaves the
    /// cooldown alone — the re-entry is not a new decision, and
    /// restarting the cooldown here would forever postpone the exit
    /// decision for a region the host keeps touching.
    pub fn record_reentry(&mut self) {
        self.stats.policy_flips += 1;
    }

    /// Close the current epoch: decay temperatures and fault EWMAs,
    /// update degradation state, and return the batched transitions the
    /// caller must apply. `bias_of(region)` is the bias `region` runs
    /// under now (the device's bias table). Decisions are emitted in
    /// ascending region order and capped at [`MAX_FLIPS_PER_EPOCH`],
    /// strongest scores first.
    pub fn end_epoch(&mut self, bias_of: impl Fn(u32) -> BiasKind) -> Vec<BiasDecision> {
        self.epoch += 1;
        self.stats.epochs += 1;
        let epoch = self.epoch;
        let mut candidates: Vec<BiasDecision> = Vec::new();

        for (idx, r) in self.regions.iter_mut().enumerate() {
            let region = idx as u32;
            // Temperature: decayed EWMA of accesses per epoch.
            r.temperature = DECAY * r.temperature + r.epoch_accesses() as f64;
            // Rate estimates: convex EWMA (weights sum to 1), so the
            // steady state equals the true per-epoch mean.
            let alpha = 1.0 - DECAY;
            r.dev_rate = DECAY * r.dev_rate + alpha * r.dev_accesses as f64;
            r.host_rate = DECAY * r.host_rate + alpha * (r.host_loads + r.host_stores) as f64;
            r.store_rate = DECAY * r.store_rate + alpha * r.host_stores as f64;
            // Fault process EWMA with hysteretic degradation.
            r.fault_ewma = FAULT_DECAY * r.fault_ewma + r.faults as f64;
            if !r.degraded && r.fault_ewma >= FAULT_ENTER {
                r.degraded = true;
            } else if r.degraded && r.fault_ewma <= FAULT_EXIT {
                r.degraded = false;
            }

            if r.degraded {
                // Degradation overrides the feedback loop: device-bias
                // regions fall back to host bias to shorten the retry
                // path, and nothing flips toward device bias.
                if bias_of(region) == BiasKind::DeviceBias {
                    candidates.push(BiasDecision {
                        region,
                        to: BiasKind::HostBias,
                        reason: FlipCause::Degrade,
                        score_ns: f64::INFINITY,
                    });
                }
            } else if r.temperature >= MIN_TEMPERATURE
                && (!r.ever_flipped || epoch - r.last_flip_epoch > COOLDOWN_EPOCHS)
            {
                // Recurring per-epoch terms (smoothed rates) are
                // amortized over the horizon; the flush and transition
                // are one-time.
                let dev_gain = r.dev_rate * SNOOP_SAVED_NS * HORIZON_EPOCHS;
                let host_pain = r.host_rate * H2D_PENALTY_NS * HORIZON_EPOCHS;
                match bias_of(region) {
                    BiasKind::HostBias => {
                        // Dirty-line estimate: recent host stores left
                        // lines the CO_WR flush must write back
                        // (bounded by the region size).
                        let dirty = r.store_rate.min((1u64 << GRAIN_SHIFT) as f64);
                        let score = dev_gain - host_pain - dirty * FLUSH_COST_NS - TRANSITION_NS;
                        if score >= ENTER_MARGIN_NS {
                            candidates.push(BiasDecision {
                                region,
                                to: BiasKind::DeviceBias,
                                reason: FlipCause::Policy,
                                score_ns: score,
                            });
                        }
                    }
                    BiasKind::DeviceBias => {
                        let score = host_pain - dev_gain - TRANSITION_NS;
                        if score >= EXIT_MARGIN_NS {
                            candidates.push(BiasDecision {
                                region,
                                to: BiasKind::HostBias,
                                reason: FlipCause::Policy,
                                score_ns: score,
                            });
                        }
                    }
                }
            }

            r.host_loads = 0;
            r.host_stores = 0;
            r.dev_accesses = 0;
            r.faults = 0;
        }

        // Batch: strongest scores win the per-epoch budget; ties break
        // by region id so the ordering is total and deterministic.
        candidates.sort_by(|a, b| {
            b.score_ns
                .partial_cmp(&a.score_ns)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.region.cmp(&b.region))
        });
        if candidates.len() > MAX_FLIPS_PER_EPOCH {
            self.stats.batched_out += (candidates.len() - MAX_FLIPS_PER_EPOCH) as u64;
            candidates.truncate(MAX_FLIPS_PER_EPOCH);
        }
        candidates.sort_by_key(|d| d.region);

        for d in &candidates {
            let r = &mut self.regions[d.region as usize];
            r.wants_device = d.to == BiasKind::DeviceBias;
            r.last_flip_epoch = epoch;
            r.ever_flipped = true;
            match d.reason {
                FlipCause::Policy => self.stats.policy_flips += 1,
                FlipCause::Degrade => self.stats.degrade_flips += 1,
            }
        }
        candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A policy plus the bias table it steers: `epoch` closes one epoch
    /// against the table and applies the decisions to it.
    struct Steered {
        p: BiasPolicy,
        table: Vec<BiasKind>,
    }

    impl Steered {
        fn new(regions: u64) -> Self {
            Steered {
                p: BiasPolicy::new(regions << GRAIN_SHIFT),
                table: vec![BiasKind::HostBias; regions as usize],
            }
        }

        fn feed(&mut self, region: u32, origin: AccessOrigin, n: u32) {
            for _ in 0..n {
                self.p.note_access(region, origin);
            }
        }

        fn epoch(&mut self) -> Vec<BiasDecision> {
            let table = &self.table;
            let decisions = self.p.end_epoch(|r| table[r as usize]);
            for d in &decisions {
                self.table[d.region as usize] = d.to;
            }
            decisions
        }
    }

    #[test]
    fn device_heavy_region_flips_to_device_bias() {
        let mut s = Steered::new(16);
        s.feed(3, AccessOrigin::Device, 256);
        let decisions = s.epoch();
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].region, 3);
        assert_eq!(decisions[0].to, BiasKind::DeviceBias);
        assert_eq!(decisions[0].reason, FlipCause::Policy);
        assert!(s.p.wants_device(3));
        // A region below MIN_TEMPERATURE never flips, however one-sided.
        s.feed(5, AccessOrigin::Device, 3);
        assert!(s.epoch().is_empty());
    }

    #[test]
    fn host_heavy_region_stays_host_biased() {
        let mut s = Steered::new(16);
        for _ in 0..32 {
            s.feed(0, AccessOrigin::HostStore, 256);
            s.feed(0, AccessOrigin::Device, 32);
            assert!(s.epoch().is_empty());
        }
        assert_eq!(s.table[0], BiasKind::HostBias);
    }

    #[test]
    fn mixed_traffic_flips_back_under_host_pressure() {
        let mut s = Steered::new(16);
        s.feed(0, AccessOrigin::Device, 256);
        s.epoch();
        assert_eq!(s.table[0], BiasKind::DeviceBias);
        // Idle epochs outlast the cooldown.
        for _ in 0..4 {
            assert!(s.epoch().is_empty());
        }
        s.feed(0, AccessOrigin::HostLoad, 128);
        let decisions = s.epoch();
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].to, BiasKind::HostBias);
        assert_eq!(decisions[0].reason, FlipCause::Policy);
        assert!(!s.p.wants_device(0));
        assert_eq!(s.p.stats().policy_flips, 2);
    }

    #[test]
    fn cooldown_holds_a_fresh_flip_for_one_epoch() {
        let mut s = Steered::new(16);
        s.feed(0, AccessOrigin::Device, 256);
        assert_eq!(s.epoch().len(), 1);
        // The very next epoch is inside the cooldown: even a host flood
        // cannot flip the region straight back.
        s.feed(0, AccessOrigin::HostLoad, 512);
        assert!(s.epoch().is_empty());
        assert_eq!(s.table[0], BiasKind::DeviceBias);
        // One epoch later the exit goes through.
        s.feed(0, AccessOrigin::HostLoad, 512);
        let decisions = s.epoch();
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].to, BiasKind::HostBias);
    }

    #[test]
    fn dead_band_keeps_either_bias_in_place() {
        // Steady state per epoch: 80 scans and 17 host loads, so
        // 80 × SNOOP_SAVED_NS = 17 × H2D_PENALTY_NS. Entry needs
        // 16 × (80×85 − 17×400) − 500 ≥ 200 and exit needs
        // 16 × (17×400 − 80×85) − 500 ≥ 3000: neither holds, so the
        // region that starts host-biased and the one that starts
        // device-biased both keep their bias.
        let mut s = Steered::new(16);
        s.feed(1, AccessOrigin::Device, 256);
        s.epoch();
        assert_eq!(s.table[1], BiasKind::DeviceBias);
        for _ in 0..64 {
            for region in 0..2 {
                s.feed(region, AccessOrigin::Device, 80);
                s.feed(region, AccessOrigin::HostLoad, 17);
            }
            assert!(s.epoch().is_empty());
        }
        assert_eq!(s.table[..2], [BiasKind::HostBias, BiasKind::DeviceBias]);
    }

    #[test]
    fn sustained_faults_degrade_then_recover() {
        let mut s = Steered::new(16);
        s.feed(0, AccessOrigin::Device, 256);
        s.epoch();
        assert_eq!(s.table[0], BiasKind::DeviceBias);
        for _ in 0..8 {
            s.p.note_fault(0);
        }
        s.feed(0, AccessOrigin::Device, 256);
        let decisions = s.epoch();
        assert!(s.p.is_degraded(0));
        assert!(!s.p.wants_device(0));
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].reason, FlipCause::Degrade);
        assert_eq!(s.table[0], BiasKind::HostBias);
        assert_eq!(s.p.stats().degrade_flips, 1);
        // While degraded, device-heavy traffic cannot flip it back; once
        // the fault EWMA decays below FAULT_EXIT the region re-earns
        // device bias on the same traffic.
        let mut recovered_at = None;
        for epoch in 0..128 {
            s.feed(0, AccessOrigin::Device, 256);
            let decisions = s.epoch();
            if s.p.is_degraded(0) {
                assert!(decisions.is_empty(), "degraded region flipped");
            } else if !decisions.is_empty() {
                assert_eq!(decisions[0].to, BiasKind::DeviceBias);
                recovered_at = Some(epoch);
                break;
            }
        }
        // 8 × 0.9^n ≤ 0.25 first holds at n = 33.
        assert_eq!(recovered_at, Some(32));
    }

    #[test]
    fn batch_cap_limits_flips_per_epoch() {
        let mut s = Steered::new(64);
        // Hotter regions score higher and win the budget.
        for region in 0..12 {
            s.feed(region, AccessOrigin::Device, 64 + 8 * region);
        }
        let decisions = s.epoch();
        assert_eq!(decisions.len(), MAX_FLIPS_PER_EPOCH);
        assert_eq!(s.p.stats().batched_out, 4);
        let won: Vec<u32> = decisions.iter().map(|d| d.region).collect();
        assert_eq!(won, (4..12).collect::<Vec<u32>>());
        // The batched-out regions flip the next epoch.
        for region in 0..4 {
            s.feed(region, AccessOrigin::Device, 64);
        }
        assert_eq!(s.epoch().len(), 4);
    }

    #[test]
    fn reentry_counts_a_flip_and_leaves_the_cooldown_alone() {
        let mut s = Steered::new(16);
        s.feed(0, AccessOrigin::Device, 256);
        s.epoch();
        s.epoch();
        s.epoch();
        // Hardware takes the region out of device bias (an H2D access);
        // the controller still wants it, and the daemon re-enters.
        s.table[0] = BiasKind::HostBias;
        assert!(s.p.wants_device(0));
        s.p.record_reentry();
        s.table[0] = BiasKind::DeviceBias;
        assert_eq!(s.p.stats().policy_flips, 2);
        // The re-entry is not a new decision: a host flood right after
        // it exits at once instead of waiting out a fresh cooldown.
        s.feed(0, AccessOrigin::HostLoad, 512);
        assert_eq!(s.epoch()[0].to, BiasKind::HostBias);
        assert_eq!(s.p.stats().policy_flips, 3);
    }
}
