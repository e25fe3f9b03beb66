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
//!
//! Everything here is plain sequential arithmetic over fixed-size
//! vectors: decisions depend only on the call sequence, never on wall
//! clock or thread count, so a sweep that embeds one policy instance
//! per point stays byte-identical under the parallel runner.
//!
//! # Controller model
//!
//! The controller scores on *smoothed* per-epoch access rates — a convex
//! EWMA (`rate' = decay × rate + (1 − decay) × count`) whose steady
//! state is the true mean — rather than raw single-epoch counts: with a
//! handful of ops per region per epoch, one all-device noise epoch would
//! otherwise masquerade as a device-heavy region and churn the bias
//! table near the crossover. For a region currently in **host bias**,
//! flipping to device bias is worth it when the projected snoop
//! round-trips saved exceed the transition cost:
//!
//! ```text
//! benefit = H × dev_rate × snoop_saved_ns
//! cost    = H × host_rate × h2d_penalty_ns
//!         + dirty_lines × flush_cost_ns + transition_ns
//! flip to device  iff  benefit − cost ≥ enter_margin_ns
//! ```
//!
//! where `H = horizon_epochs` amortizes the recurring per-epoch terms
//! over the flip's expected residency; the flush and the transition are
//! paid once. For a region in **device bias**, the controller watches
//! the ongoing penalty host accesses pay (each one is a forced bias flip
//! on real hardware) and flips back when:
//!
//! ```text
//! H × (host_rate × h2d_penalty_ns − dev_rate × snoop_saved_ns)
//!     − transition_ns ≥ exit_margin_ns
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
//! Sustained faults (link bit errors, watchdog conflict-aborts) make the
//! device-bias retry path expensive: recovery happens in software and
//! re-enters the coherent path. Each region keeps a fault EWMA; when it
//! crosses `fault_enter` the region degrades — pinned to host bias (a
//! [`FlipCause::Degrade`] decision if it was in device bias) and
//! ineligible for device-bias flips — until the EWMA decays below
//! `fault_exit` (again hysteretic: `fault_exit < fault_enter`).

use crate::trace::{BiasKind, FlipCause};

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
    /// Region index (line index >> `grain_shift`).
    pub region: u32,
    /// Bias the region should transition to.
    pub to: BiasKind,
    /// What triggered the transition.
    pub reason: FlipCause,
    /// Signed net score in nanoseconds (positive = projected win).
    pub score_ns: f64,
}

/// Tuning knobs for [`BiasPolicy`]. All costs are modeled nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct PolicyConfig {
    /// Region granularity: a region spans `1 << grain_shift` lines.
    pub grain_shift: u32,
    /// Temperature and rate-estimator EWMA decay per epoch, in `[0, 1)`.
    /// The epoch access count is added on top of the temperature
    /// (`temp' = decay × temp + accesses`) and convexly mixed into the
    /// rate estimates (`rate' = decay × rate + (1 − decay) × count`).
    pub decay: f64,
    /// Benefit per device-origin access of being in device bias: the
    /// DCOH→host snoop round-trip skipped (§IV-B).
    pub snoop_saved_ns: f64,
    /// Penalty per host-origin access to a device-bias region (the
    /// forced flip / software-coherence detour).
    pub h2d_penalty_ns: f64,
    /// CO_WR flush cost per dirty line when entering device bias.
    pub flush_cost_ns: f64,
    /// Fixed latency of any bias transition.
    pub transition_ns: f64,
    /// Epochs over which a flip's recurring benefit is amortized against
    /// its one-time cost (> 0). At `1.0` the controller is myopic — one
    /// epoch's net gain must pay the whole transition; larger horizons
    /// credit a flip with its expected residency, letting moderately
    /// device-heavy regions flip instead of stalling just under the
    /// transition cost forever.
    pub horizon_epochs: f64,
    /// Margin the net benefit must clear to enter device bias (> 0).
    pub enter_margin_ns: f64,
    /// Margin the net penalty must clear to exit device bias (> 0).
    pub exit_margin_ns: f64,
    /// Regions cooler than this never flip (temperature units are
    /// decayed accesses-per-epoch).
    pub min_temperature: f64,
    /// Epochs a region must wait between flips.
    pub cooldown_epochs: u64,
    /// Cap on transitions ordered in one epoch (batching).
    pub max_flips_per_epoch: usize,
    /// Fault-EWMA decay per epoch, in `[0, 1)`.
    pub fault_decay: f64,
    /// Fault EWMA at or above which a region degrades to host bias.
    pub fault_enter: f64,
    /// Fault EWMA at or below which a degraded region recovers
    /// (must be `< fault_enter` for hysteresis).
    pub fault_exit: f64,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        Self {
            grain_shift: 6, // 64 lines = 4 KiB regions
            decay: 0.5,
            snoop_saved_ns: 80.0,
            h2d_penalty_ns: 400.0,
            flush_cost_ns: 30.0,
            transition_ns: 500.0,
            horizon_epochs: 1.0,
            enter_margin_ns: 200.0,
            exit_margin_ns: 200.0,
            min_temperature: 4.0,
            cooldown_epochs: 1,
            max_flips_per_epoch: 8,
            fault_decay: 0.5,
            fault_enter: 4.0,
            fault_exit: 1.0,
        }
    }
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
    // `1 − decay` on the newest epoch). The controller scores on these,
    // not the raw single-epoch counts: with only a handful of ops per
    // region per epoch, raw counts make an all-device noise epoch look
    // like a device-heavy region and cause churn near the crossover.
    dev_rate: f64,
    host_rate: f64,
    store_rate: f64,
    bias: BiasKind,
    degraded: bool,
    last_flip_epoch: u64,
    ever_flipped: bool,
    // The controller's standing target: true after a flip-to-device
    // decision, false after any flip to host it ordered or acknowledged.
    // Hardware H2D flips (sync_bias) leave it untouched, so the daemon
    // can promptly restore device bias the controller still wants.
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
    /// Transitions recorded with [`FlipCause::Conflict`] (applied
    /// externally by the watchdog path, acknowledged here).
    pub conflict_flips: u64,
    /// Candidate flips suppressed by the per-epoch batch cap.
    pub batched_out: u64,
}

/// Epoch-based hot-region tracker plus the feedback flip controller.
///
/// One instance covers a contiguous span of device memory split into
/// `1 << grain_shift`-line regions. Feed it accesses and faults as they
/// happen (cheap integer bumps), then call [`end_epoch`] at a fixed
/// simulated-time cadence to collect the transitions to apply.
///
/// [`end_epoch`]: BiasPolicy::end_epoch
#[derive(Debug, Clone)]
pub struct BiasPolicy {
    cfg: PolicyConfig,
    regions: Vec<RegionState>,
    epoch: u64,
    stats: PolicyStats,
}

impl BiasPolicy {
    /// Build a policy over `lines` lines of device memory. Every region
    /// starts in host bias (the hardware default) with zero temperature.
    pub fn new(cfg: PolicyConfig, lines: u64) -> Self {
        assert!(cfg.decay >= 0.0 && cfg.decay < 1.0, "decay in [0,1)");
        assert!(cfg.fault_decay >= 0.0 && cfg.fault_decay < 1.0);
        assert!(
            cfg.enter_margin_ns > 0.0,
            "hysteresis needs a positive enter margin"
        );
        assert!(
            cfg.exit_margin_ns > 0.0,
            "hysteresis needs a positive exit margin"
        );
        assert!(
            cfg.fault_exit < cfg.fault_enter,
            "fault hysteresis inverted"
        );
        assert!(cfg.horizon_epochs > 0.0, "horizon must be positive");
        let n = lines.div_ceil(1 << cfg.grain_shift).max(1) as usize;
        Self {
            cfg,
            regions: vec![RegionState::default(); n],
            epoch: 0,
            stats: PolicyStats::default(),
        }
    }

    /// Number of tracked regions.
    pub fn region_count(&self) -> u32 {
        self.regions.len() as u32
    }

    /// Region index covering `line` (a device-local line index).
    /// Out-of-range lines clamp to the last region so callers never
    /// have to bounds-check the hot path.
    pub fn region_of(&self, line: u64) -> u32 {
        ((line >> self.cfg.grain_shift) as usize).min(self.regions.len() - 1) as u32
    }

    /// Lines per region.
    pub fn lines_per_region(&self) -> u64 {
        1 << self.cfg.grain_shift
    }

    /// First device-local line of `region`.
    pub fn region_base_line(&self, region: u32) -> u64 {
        u64::from(region) << self.cfg.grain_shift
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

    /// Bias the policy currently believes `region` runs under.
    pub fn bias_of(&self, region: u32) -> BiasKind {
        self.regions[region as usize].bias
    }

    /// Decayed EWMA temperature of `region`.
    pub fn temperature(&self, region: u32) -> f64 {
        self.regions[region as usize].temperature
    }

    /// Whether `region` is currently degraded (pinned to host bias).
    pub fn is_degraded(&self, region: u32) -> bool {
        self.regions[region as usize].degraded
    }

    /// Whether any region is currently degraded.
    pub fn any_degraded(&self) -> bool {
        self.regions.iter().any(|r| r.degraded)
    }

    /// Whether the controller's standing decision for `region` is device
    /// bias. Stays true across silent hardware H2D exits ([`Self::sync_bias`])
    /// so the daemon can promptly restore device bias instead of waiting
    /// out the epoch; degraded regions never want device bias.
    pub fn wants_device(&self, region: u32) -> bool {
        let r = &self.regions[region as usize];
        r.wants_device && !r.degraded
    }

    /// Counters for reporting.
    pub fn stats(&self) -> PolicyStats {
        self.stats
    }

    /// Temperatures of all regions, hottest-first ordering left to the
    /// caller. The `bias` harness reports them.
    pub fn temperatures(&self) -> Vec<f64> {
        self.regions.iter().map(|r| r.temperature).collect()
    }

    /// Mirror a silent hardware flip (the implicit device→host exit an
    /// H2D access performs, §IV-B) without attributing a transition to
    /// the daemon: no cooldown, no stats — the controller just sees the
    /// true bias state at the next decision.
    pub fn sync_bias(&mut self, region: u32, to: BiasKind) {
        self.regions[region as usize].bias = to;
    }

    /// Acknowledge a prompt re-entry into device bias: the daemon
    /// restores the controller's standing decision after an H2D access
    /// revoked it. Counts as a [`FlipCause::Policy`] flip but leaves the
    /// cooldown alone — the re-entry is not a new decision, and
    /// restarting the cooldown here would forever postpone the exit
    /// decision for a region the host keeps touching.
    pub fn record_reentry(&mut self, region: u32) {
        self.regions[region as usize].bias = BiasKind::DeviceBias;
        self.stats.policy_flips += 1;
    }

    /// Acknowledge an externally applied transition (e.g. the slice
    /// watchdog's conflict-abort flip): update the mirrored bias state,
    /// start the region's cooldown so the feedback loop doesn't
    /// immediately fight the watchdog, and count it toward
    /// [`PolicyStats`].
    pub fn record_external_flip(&mut self, region: u32, to: BiasKind, reason: FlipCause) {
        let epoch = self.epoch;
        let r = &mut self.regions[region as usize];
        r.bias = to;
        r.wants_device = to == BiasKind::DeviceBias;
        r.last_flip_epoch = epoch;
        r.ever_flipped = true;
        match reason {
            FlipCause::Conflict => self.stats.conflict_flips += 1,
            FlipCause::Degrade => self.stats.degrade_flips += 1,
            FlipCause::Policy => self.stats.policy_flips += 1,
        }
    }

    /// Close the current epoch: decay temperatures and fault EWMAs,
    /// update degradation state, and return the batched transitions the
    /// caller must apply (then mirror back via the `bias` updates done
    /// here). Decisions are emitted in ascending region order and
    /// capped at `max_flips_per_epoch`, strongest scores first.
    pub fn end_epoch(&mut self) -> Vec<BiasDecision> {
        self.epoch += 1;
        self.stats.epochs += 1;
        let cfg = self.cfg;
        let epoch = self.epoch;
        let mut candidates: Vec<BiasDecision> = Vec::new();

        for (idx, r) in self.regions.iter_mut().enumerate() {
            let region = idx as u32;
            // Temperature: decayed EWMA of accesses per epoch.
            r.temperature = cfg.decay * r.temperature + r.epoch_accesses() as f64;
            // Rate estimates: convex EWMA (weights sum to 1), so the
            // steady state equals the true per-epoch mean.
            let alpha = 1.0 - cfg.decay;
            r.dev_rate = cfg.decay * r.dev_rate + alpha * r.dev_accesses as f64;
            r.host_rate = cfg.decay * r.host_rate + alpha * (r.host_loads + r.host_stores) as f64;
            r.store_rate = cfg.decay * r.store_rate + alpha * r.host_stores as f64;
            // Fault process EWMA with hysteretic degradation.
            r.fault_ewma = cfg.fault_decay * r.fault_ewma + r.faults as f64;
            if !r.degraded && r.fault_ewma >= cfg.fault_enter {
                r.degraded = true;
            } else if r.degraded && r.fault_ewma <= cfg.fault_exit {
                r.degraded = false;
            }

            if r.degraded {
                // Degradation overrides the feedback loop: device-bias
                // regions fall back to host bias to shorten the retry
                // path, and nothing flips toward device bias.
                if r.bias == BiasKind::DeviceBias {
                    candidates.push(BiasDecision {
                        region,
                        to: BiasKind::HostBias,
                        reason: FlipCause::Degrade,
                        score_ns: f64::INFINITY,
                    });
                }
            } else if r.temperature >= cfg.min_temperature
                && (!r.ever_flipped || epoch - r.last_flip_epoch > cfg.cooldown_epochs)
            {
                // Recurring per-epoch terms (smoothed rates) are
                // amortized over the horizon; the flush and transition
                // are one-time.
                let dev_gain = r.dev_rate * cfg.snoop_saved_ns * cfg.horizon_epochs;
                let host_pain = r.host_rate * cfg.h2d_penalty_ns * cfg.horizon_epochs;
                match r.bias {
                    BiasKind::HostBias => {
                        // Dirty-line estimate: recent host stores left
                        // lines the CO_WR flush must write back
                        // (bounded by the region size).
                        let dirty = r.store_rate.min((1u64 << cfg.grain_shift) as f64);
                        let score =
                            dev_gain - host_pain - dirty * cfg.flush_cost_ns - cfg.transition_ns;
                        if score >= cfg.enter_margin_ns {
                            candidates.push(BiasDecision {
                                region,
                                to: BiasKind::DeviceBias,
                                reason: FlipCause::Policy,
                                score_ns: score,
                            });
                        }
                    }
                    BiasKind::DeviceBias => {
                        let score = host_pain - dev_gain - cfg.transition_ns;
                        if score >= cfg.exit_margin_ns {
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
        if candidates.len() > cfg.max_flips_per_epoch {
            self.stats.batched_out += (candidates.len() - cfg.max_flips_per_epoch) as u64;
            candidates.truncate(cfg.max_flips_per_epoch);
        }
        candidates.sort_by_key(|d| d.region);

        for d in &candidates {
            let r = &mut self.regions[d.region as usize];
            r.bias = d.to;
            r.wants_device = d.to == BiasKind::DeviceBias;
            r.last_flip_epoch = epoch;
            r.ever_flipped = true;
            match d.reason {
                FlipCause::Policy => self.stats.policy_flips += 1,
                FlipCause::Degrade => self.stats.degrade_flips += 1,
                FlipCause::Conflict => self.stats.conflict_flips += 1,
            }
        }
        candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot_cfg() -> PolicyConfig {
        PolicyConfig {
            min_temperature: 1.0,
            ..PolicyConfig::default()
        }
    }

    #[test]
    fn device_heavy_region_flips_to_device_bias() {
        let mut p = BiasPolicy::new(hot_cfg(), 1024);
        let region = p.region_of(0);
        for _ in 0..64 {
            p.note_access(region, AccessOrigin::Device);
        }
        let decisions = p.end_epoch();
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].to, BiasKind::DeviceBias);
        assert_eq!(decisions[0].reason, FlipCause::Policy);
        assert_eq!(p.bias_of(region), BiasKind::DeviceBias);
    }

    #[test]
    fn host_heavy_region_stays_host_biased() {
        let mut p = BiasPolicy::new(hot_cfg(), 1024);
        let region = p.region_of(0);
        for _ in 0..64 {
            p.note_access(region, AccessOrigin::HostStore);
        }
        assert!(p.end_epoch().is_empty());
        assert_eq!(p.bias_of(region), BiasKind::HostBias);
    }

    #[test]
    fn mixed_traffic_flips_back_under_host_pressure() {
        let mut p = BiasPolicy::new(hot_cfg(), 1024);
        let region = p.region_of(0);
        for _ in 0..64 {
            p.note_access(region, AccessOrigin::Device);
        }
        p.end_epoch();
        assert_eq!(p.bias_of(region), BiasKind::DeviceBias);
        // Cooldown epoch with idle traffic.
        for _ in 0..2 {
            p.end_epoch();
        }
        for _ in 0..32 {
            p.note_access(region, AccessOrigin::HostLoad);
        }
        let decisions = p.end_epoch();
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].to, BiasKind::HostBias);
        assert_eq!(p.bias_of(region), BiasKind::HostBias);
    }

    #[test]
    fn sustained_faults_degrade_then_recover() {
        let mut p = BiasPolicy::new(hot_cfg(), 1024);
        let region = p.region_of(0);
        for _ in 0..64 {
            p.note_access(region, AccessOrigin::Device);
        }
        p.end_epoch();
        assert_eq!(p.bias_of(region), BiasKind::DeviceBias);
        for _ in 0..8 {
            p.note_fault(region);
        }
        let decisions = p.end_epoch();
        assert!(p.is_degraded(region));
        assert_eq!(decisions[0].reason, FlipCause::Degrade);
        assert_eq!(p.bias_of(region), BiasKind::HostBias);
        // While degraded, device-heavy traffic cannot flip it back.
        for _ in 0..64 {
            p.note_access(region, AccessOrigin::Device);
        }
        assert!(p.end_epoch().is_empty());
        // Quiesce: the EWMA decays below fault_exit and the region
        // becomes eligible again.
        let mut recovered = false;
        for _ in 0..16 {
            p.end_epoch();
            if !p.is_degraded(region) {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "fault EWMA must decay below fault_exit");
    }

    #[test]
    fn batch_cap_limits_flips_per_epoch() {
        let cfg = PolicyConfig {
            max_flips_per_epoch: 2,
            min_temperature: 1.0,
            ..PolicyConfig::default()
        };
        let mut p = BiasPolicy::new(cfg, 1 << 12);
        for region in 0..8 {
            for _ in 0..64 {
                p.note_access(region, AccessOrigin::Device);
            }
        }
        let decisions = p.end_epoch();
        assert_eq!(decisions.len(), 2);
        assert_eq!(p.stats().batched_out, 6);
    }

    #[test]
    fn external_conflict_flip_starts_cooldown() {
        let mut p = BiasPolicy::new(hot_cfg(), 1024);
        let region = p.region_of(0);
        for _ in 0..64 {
            p.note_access(region, AccessOrigin::Device);
        }
        p.end_epoch();
        p.record_external_flip(region, BiasKind::HostBias, FlipCause::Conflict);
        assert_eq!(p.bias_of(region), BiasKind::HostBias);
        assert_eq!(p.stats().conflict_flips, 1);
        // The very next epoch is inside the cooldown: even device-heavy
        // traffic cannot flip the region straight back.
        for _ in 0..64 {
            p.note_access(region, AccessOrigin::Device);
        }
        assert!(p.end_epoch().is_empty());
    }
}
