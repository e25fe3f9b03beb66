//! The adaptive bias daemon: feedback-controlled host/device bias over
//! one device's memory, with fault-aware degradation.
//!
//! The paper's §IV-B shows that the right coherence bias depends on who
//! touches a region: device-originated traffic wants device bias (skip
//! the DCOH→host snoop), host-originated traffic wants host bias (a
//! host access to a device-bias region forces an expensive flip).
//! [`BiasDaemon`] steers one [`CxlDevice`] between the two. The harness
//! feeds it accesses and faults from its LSU/H2D paths (cheap counter
//! bumps on fixed-size regions), and [`poll`] closes epochs every
//! `EPOCH` of simulated time. Closing an epoch updates each region's
//! decayed EWMA temperature and rate estimates and picks a batched,
//! hysteretic set of transitions. The daemon applies them through one
//! code path, which emits a `bias-flip` trace event (region id +
//! reason) and performs the §IV-B software obligation on the device
//! (host-cache CO_WR flush on the way into device bias, dirty-DMC
//! write-back on the way out).
//!
//! A region's bias lives in one place, the device's
//! [`BiasTable`](cxl_proto::bias::BiasTable): the daemon reads it when it
//! closes an epoch and when it notes an H2D access, so a hardware exit
//! (any H2D access to a device-biased region) or a fault-recovery flip
//! made outside the daemon needs no bookkeeping here.
//!
//! # Controller model
//!
//! The daemon scores on *smoothed* per-epoch access rates — a convex
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
//! paid once. For a region in **device bias**, the daemon watches the
//! ongoing penalty host accesses pay (each one is a forced bias flip on
//! real hardware) and flips back when:
//!
//! ```text
//! H × (host_rate × H2D_PENALTY_NS − dev_rate × SNOOP_SAVED_NS)
//!     − TRANSITION_NS ≥ EXIT_MARGIN_NS
//! ```
//!
//! Because both margins are strictly positive, the same epoch counts can
//! never justify A→B and then B→A: the controller is hysteretic by
//! construction (see the `flips_are_hysteretic_never_a_b_a` property in
//! this module's tests). Flips are additionally rate-limited by a
//! per-region cooldown and a per-epoch batch cap, so flip storms are
//! impossible.
//!
//! # Fault-aware degradation
//!
//! Sustained faults (link bit errors) make the device-bias retry path
//! expensive: recovery happens in software and re-enters the coherent
//! path. Each region keeps a fault EWMA; when it crosses `FAULT_ENTER`
//! the region degrades — pinned to host bias (a [`FlipCause::Degrade`]
//! transition if it was in device bias) and ineligible for device-bias
//! flips — until the EWMA decays below `FAULT_EXIT` (again
//! hysteretic: `FAULT_EXIT < FAULT_ENTER`).
//!
//! # Constants
//!
//! The daemon has no knobs: every constant below is the one value the
//! adaptive-bias ablation (`cxl_bench::bias`) runs with, calibrated to
//! the device facade's *measured* per-op costs rather than to round
//! numbers. All costs are modeled nanoseconds.
//!
//! Like [`SharedSliceTables`](crate::occupancy::SharedSliceTables) and
//! [`SliceTimeouts`](crate::reliability::SliceTimeouts), this is an
//! **opt-in layer**: nothing in the healthy facades calls it, so every
//! existing golden trace is untouched. All state is per-instance and
//! all arithmetic sequential over fixed-size vectors — decisions depend
//! only on the call sequence, never on wall clock or thread count, so a
//! sweep embedding one daemon per point is thread-invariant.
//!
//! [`poll`]: BiasDaemon::poll

use host::socket::Socket;
use mem_subsys::line::LineAddr;
use sim_core::time::{Duration, Time};
use sim_core::trace::{self, BiasKind, FlipCause, TraceEvent};

use crate::addr::{device_byte_offset, device_line, device_local_index};
use crate::device::CxlDevice;

/// Epoch length: [`BiasDaemon::poll`] closes every boundary `now` has
/// passed. 5 µs holds tens of ops at the bias crossover's rates, so the
/// daemon converges within a small fraction of a run.
pub(crate) const EPOCH: Duration = Duration::from_micros(5);

/// Region granularity: a region spans `1 << GRAIN_SHIFT` lines (64
/// lines = 4 KiB, the host page the bias table and the daemon manage).
pub const GRAIN_SHIFT: u32 = 6;

/// Temperature and rate-estimator EWMA decay per epoch. The epoch
/// access count is added on top of the temperature (`temp' = DECAY ×
/// temp + accesses`) and convexly mixed into the rate estimates
/// (`rate' = DECAY × rate + (1 − DECAY) × count`). At 0.8 the rates
/// average over about five epochs, so a single noisy epoch of a few ops
/// cannot carry a region across a margin.
const DECAY: f64 = 0.8;

/// Benefit per device-origin access of being in device bias: the
/// DCOH→host snoop round-trip skipped (§IV-B). A host-bias NC scan pays
/// ~162 ns/op against ~78 under device bias; this is the measured gap.
const SNOOP_SAVED_NS: f64 = 85.0;

/// Penalty per host-origin access to a device-bias region: the forced
/// flip plus the region-wide flush to re-enter device bias.
const H2D_PENALTY_NS: f64 = 400.0;

/// CO_WR flush cost per dirty line when entering device bias.
const FLUSH_COST_NS: f64 = 30.0;

/// Fixed latency of any bias transition.
const TRANSITION_NS: f64 = 500.0;

/// Epochs over which a flip's recurring benefit is amortized against
/// its one-time cost. Crediting a flip with a 16-epoch residency keeps
/// a one-time transition cost from permanently vetoing a flip that
/// keeps paying off: at a few scans per region per epoch, a myopic
/// (one-epoch) controller could never pay for the transition.
const HORIZON_EPOCHS: f64 = 16.0;

/// Margin the net benefit must clear to enter device bias.
const ENTER_MARGIN_NS: f64 = 200.0;

/// Margin the net penalty must clear to exit device bias. A wide dead
/// band: a device-biased region near the crossover should stay put
/// unless the host-access rate is decisively (not just noisily) above
/// break-even — a wrong exit pays the writeback, slow scans, and the
/// re-entry flush.
const EXIT_MARGIN_NS: f64 = 3000.0;

/// Regions cooler than this never flip (temperature units are decayed
/// accesses per epoch).
const MIN_TEMPERATURE: f64 = 4.0;

/// Epochs a region must wait between flips.
const COOLDOWN_EPOCHS: u64 = 1;

/// Cap on transitions ordered in one epoch (batching).
const MAX_FLIPS_PER_EPOCH: usize = 8;

/// Fault-EWMA decay per epoch. Slow, and [`FAULT_ENTER`] and
/// [`FAULT_EXIT`] low, to match per-region fault arrival rates: the hot
/// 4 KiB region on a 1e-5 link draws a fault every few epochs, and each
/// device-bias recovery stalls the op chain across several empty
/// epochs, so a fast-decay EWMA would oscillate across the thresholds
/// between arrivals instead of integrating them.
const FAULT_DECAY: f64 = 0.9;

/// Fault EWMA at or above which a region degrades to host bias.
const FAULT_ENTER: f64 = 1.5;

/// Fault EWMA at or below which a degraded region recovers.
const FAULT_EXIT: f64 = 0.25;

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

/// One batched transition ordered at an epoch boundary.
#[derive(Debug, Clone, Copy)]
struct BiasDecision {
    /// Region index (device-local line index >> [`GRAIN_SHIFT`]).
    region: u32,
    /// Bias the region should transition to.
    to: BiasKind,
    /// What triggered the transition.
    reason: FlipCause,
    /// Signed net score in nanoseconds (positive = projected win).
    score_ns: f64,
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
    // `1 − DECAY` on the newest epoch). The daemon scores on these,
    // not the raw single-epoch counts: with only a handful of ops per
    // region per epoch, raw counts make an all-device noise epoch look
    // like a device-heavy region and cause churn near the crossover.
    dev_rate: f64,
    host_rate: f64,
    store_rate: f64,
    degraded: bool,
    last_flip_epoch: u64,
    ever_flipped: bool,
    // The standing target: true after a flip-to-device decision, false
    // after any flip to host the daemon ordered. Hardware H2D exits and
    // fault recovery leave it untouched, so the daemon can promptly
    // restore device bias it still wants.
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
    /// plus prompt re-entries after an H2D access.
    pub policy_flips: u64,
    /// Transitions ordered with [`FlipCause::Degrade`].
    pub degrade_flips: u64,
    /// Candidate flips suppressed by the per-epoch batch cap.
    pub(crate) batched_out: u64,
}

/// The adaptive bias & hot-page management daemon for one device.
///
/// It covers a contiguous span of device memory split into
/// `1 << GRAIN_SHIFT`-line regions, each with its access counters,
/// temperature, rate estimates and fault EWMA.
#[derive(Debug, Clone)]
pub struct BiasDaemon {
    regions: Vec<RegionState>,
    epoch: u64,
    stats: PolicyStats,
    next_epoch: Time,
    // Regions whose device bias a hardware H2D access silently revoked
    // while the daemon still wants them device-biased; the next poll()
    // re-enters promptly instead of waiting out the epoch.
    reentry: Vec<u32>,
}

/// First line of region `region`.
fn region_first(region: u32) -> LineAddr {
    device_line(u64::from(region) << GRAIN_SHIFT)
}

/// The bias `region` runs under, from the device's bias table.
fn bias_of(dev: &CxlDevice, region: u32) -> BiasKind {
    dev.bias.mode_of(device_byte_offset(region_first(region)))
}

/// The single code path every bias transition takes: emits the
/// `bias-flip` event (region id + reason), then performs the
/// device-side work — CO_WR flush of the host's cached lines on the way
/// into device bias, dirty-DMC write-back on the way back to host bias.
/// Returns the transition's completion time.
fn transition(
    region: u32,
    to: BiasKind,
    reason: FlipCause,
    now: Time,
    dev: &mut CxlDevice,
    host: &mut Socket,
) -> Time {
    trace::emit(now, TraceEvent::BiasFlip { region, to, reason });
    let first = region_first(region);
    let lines = 1 << GRAIN_SHIFT;
    match to {
        BiasKind::DeviceBias => dev.enter_device_bias(first, lines, now, host),
        BiasKind::HostBias => dev.enter_host_bias(first, lines, now),
    }
}

impl BiasDaemon {
    /// A daemon over `lines` device-local lines, every region at zero
    /// temperature, first epoch boundary one `EPOCH` after `start`.
    pub fn new(lines: u64, start: Time) -> Self {
        let n = lines.div_ceil(1 << GRAIN_SHIFT).max(1) as usize;
        BiasDaemon {
            regions: vec![RegionState::default(); n],
            epoch: 0,
            stats: PolicyStats::default(),
            next_epoch: start + EPOCH,
            reentry: Vec::new(),
        }
    }

    /// Whether `region` is currently degraded (pinned to host bias).
    pub fn is_degraded(&self, region: u32) -> bool {
        self.regions[region as usize].degraded
    }

    /// Whether the standing decision for `region` is device bias. Stays
    /// true when hardware or fault recovery takes the region out of
    /// device bias, so the daemon can promptly restore it instead of
    /// waiting out the epoch; degraded regions never want device bias.
    fn wants_device(&self, region: u32) -> bool {
        let r = &self.regions[region as usize];
        r.wants_device && !r.degraded
    }

    /// Total transitions the daemon applied: the sum of the policy and
    /// degrade flip counts in [`stats`](Self::stats).
    pub fn transitions(&self) -> u64 {
        self.stats.policy_flips + self.stats.degrade_flips
    }

    /// Daemon statistics (flip counts by reason, epochs, batching).
    pub fn stats(&self) -> PolicyStats {
        self.stats
    }

    /// The region covering a device-memory address. Addresses past the
    /// daemon's span clamp to the last region, so callers never have to
    /// bounds-check the hot path.
    pub fn region_of(&self, addr: LineAddr) -> u32 {
        let line = device_local_index(addr);
        ((line >> GRAIN_SHIFT) as usize).min(self.regions.len() - 1) as u32
    }

    /// Record a host-originated access (H2D load/store) to device
    /// memory. Cheap counter bump; call it just *before* the facade
    /// call, while `dev`'s bias table still holds the region's bias.
    ///
    /// An H2D access to a device-biased region exits device bias in
    /// hardware (§IV-B). If the table says device bias now and the
    /// daemon still wants it, the next [`poll`](Self::poll) re-enters
    /// promptly. A region already in host bias queues nothing more: an
    /// earlier H2D access has queued it, or a flip outside the daemon
    /// (fault recovery) put it there and only an epoch decision brings
    /// it back.
    #[inline]
    pub fn note_h2d(&mut self, addr: LineAddr, write: bool, dev: &CxlDevice) {
        let region = self.region_of(addr);
        let r = &mut self.regions[region as usize];
        if write {
            r.host_stores += 1;
        } else {
            r.host_loads += 1;
        }
        if bias_of(dev, region) == BiasKind::DeviceBias
            && self.wants_device(region)
            && !self.reentry.contains(&region)
        {
            self.reentry.push(region);
        }
    }

    /// Record a device-originated access (LSU / D2D) to device memory.
    #[inline]
    pub fn note_d2d(&mut self, addr: LineAddr) {
        let region = self.region_of(addr);
        self.regions[region as usize].dev_accesses += 1;
    }

    /// Record a fault (link retry, poison, watchdog timeout) attributed
    /// to a device-memory address.
    #[inline]
    pub fn note_fault(&mut self, addr: LineAddr) {
        let region = self.region_of(addr);
        self.regions[region as usize].faults += 1;
    }

    /// Closes every epoch boundary `now` has passed and applies the
    /// batched decisions to `dev`, flushing through `host` (the owning
    /// socket). Returns the completion time of the last transition
    /// (`now` if nothing flipped).
    pub fn poll(&mut self, now: Time, dev: &mut CxlDevice, host: &mut Socket) -> Time {
        let mut t = now;
        // Prompt re-entry: regions whose device bias an H2D access
        // revoked mid-epoch go back to device bias now — static-device
        // restores immediately after every host touch, and the adaptive
        // daemon must not concede a whole epoch each time. The re-entry
        // restores a standing decision, so it counts as a policy flip
        // but leaves the cooldown alone: restarting it here would
        // forever postpone the exit decision for a region the host
        // keeps touching.
        for region in std::mem::take(&mut self.reentry) {
            if self.wants_device(region) && bias_of(dev, region) == BiasKind::HostBias {
                self.stats.policy_flips += 1;
                t = transition(
                    region,
                    BiasKind::DeviceBias,
                    FlipCause::Policy,
                    t,
                    dev,
                    host,
                );
            }
        }
        while now >= self.next_epoch {
            self.next_epoch += EPOCH;
            let decisions = self.end_epoch(|region| bias_of(dev, region));
            for d in decisions {
                t = transition(d.region, d.to, d.reason, t, dev, host);
            }
        }
        t
    }

    /// Close the current epoch: decay temperatures and fault EWMAs,
    /// update degradation state, and return the batched transitions to
    /// apply. `bias_of(region)` is the bias `region` runs under now (the
    /// device's bias table). Decisions come in ascending region order,
    /// capped at `MAX_FLIPS_PER_EPOCH`, strongest scores first.
    fn end_epoch(&mut self, bias_of: impl Fn(u32) -> BiasKind) -> Vec<BiasDecision> {
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
    use proptest::prelude::*;

    // ---------------------------------------------------------------
    // The epoch controller against a stand-in bias table
    // ---------------------------------------------------------------

    /// A daemon plus a plain bias table it steers, with no device
    /// behind it: `epoch` closes one epoch against the table and
    /// applies the decisions to it.
    struct Steered {
        d: BiasDaemon,
        table: Vec<BiasKind>,
    }

    impl Steered {
        fn new(regions: u64) -> Self {
            Steered {
                d: BiasDaemon::new(regions << GRAIN_SHIFT, Time::ZERO),
                table: vec![BiasKind::HostBias; regions as usize],
            }
        }

        fn region(&mut self, region: u32) -> &mut RegionState {
            &mut self.d.regions[region as usize]
        }

        /// `n` device scans of `region` this epoch.
        fn scan(&mut self, region: u32, n: u64) {
            self.region(region).dev_accesses += n;
        }

        /// `n` host loads of `region` this epoch.
        fn load(&mut self, region: u32, n: u64) {
            self.region(region).host_loads += n;
        }

        /// `n` host stores to `region` this epoch.
        fn store(&mut self, region: u32, n: u64) {
            self.region(region).host_stores += n;
        }

        fn epoch(&mut self) -> Vec<BiasDecision> {
            let table = &self.table;
            let decisions = self.d.end_epoch(|r| table[r as usize]);
            for d in &decisions {
                self.table[d.region as usize] = d.to;
            }
            decisions
        }
    }

    #[test]
    fn device_heavy_region_flips_to_device_bias() {
        let mut s = Steered::new(16);
        s.scan(3, 256);
        let decisions = s.epoch();
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].region, 3);
        assert_eq!(decisions[0].to, BiasKind::DeviceBias);
        assert_eq!(decisions[0].reason, FlipCause::Policy);
        assert!(s.d.wants_device(3));
        // A region below MIN_TEMPERATURE never flips, however one-sided.
        s.scan(5, 3);
        assert!(s.epoch().is_empty());
    }

    #[test]
    fn host_heavy_region_stays_host_biased() {
        let mut s = Steered::new(16);
        for _ in 0..32 {
            s.store(0, 256);
            s.scan(0, 32);
            assert!(s.epoch().is_empty());
        }
        assert_eq!(s.table[0], BiasKind::HostBias);
    }

    #[test]
    fn mixed_traffic_flips_back_under_host_pressure() {
        let mut s = Steered::new(16);
        s.scan(0, 256);
        s.epoch();
        assert_eq!(s.table[0], BiasKind::DeviceBias);
        // Idle epochs outlast the cooldown.
        for _ in 0..4 {
            assert!(s.epoch().is_empty());
        }
        s.load(0, 128);
        let decisions = s.epoch();
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].to, BiasKind::HostBias);
        assert_eq!(decisions[0].reason, FlipCause::Policy);
        assert!(!s.d.wants_device(0));
        assert_eq!(s.d.stats().policy_flips, 2);
    }

    #[test]
    fn cooldown_holds_a_fresh_flip_for_one_epoch() {
        let mut s = Steered::new(16);
        s.scan(0, 256);
        assert_eq!(s.epoch().len(), 1);
        // The very next epoch is inside the cooldown: even a host flood
        // cannot flip the region straight back.
        s.load(0, 512);
        assert!(s.epoch().is_empty());
        assert_eq!(s.table[0], BiasKind::DeviceBias);
        // One epoch later the exit goes through.
        s.load(0, 512);
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
        s.scan(1, 256);
        s.epoch();
        assert_eq!(s.table[1], BiasKind::DeviceBias);
        for _ in 0..64 {
            for region in 0..2 {
                s.scan(region, 80);
                s.load(region, 17);
            }
            assert!(s.epoch().is_empty());
        }
        assert_eq!(s.table[..2], [BiasKind::HostBias, BiasKind::DeviceBias]);
    }

    #[test]
    fn sustained_faults_degrade_then_recover() {
        let mut s = Steered::new(16);
        s.scan(0, 256);
        s.epoch();
        assert_eq!(s.table[0], BiasKind::DeviceBias);
        s.region(0).faults += 8;
        s.scan(0, 256);
        let decisions = s.epoch();
        assert!(s.d.is_degraded(0));
        assert!(!s.d.wants_device(0));
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].reason, FlipCause::Degrade);
        assert_eq!(s.table[0], BiasKind::HostBias);
        assert_eq!(s.d.stats().degrade_flips, 1);
        // While degraded, device-heavy traffic cannot flip it back; once
        // the fault EWMA decays below FAULT_EXIT the region re-earns
        // device bias on the same traffic.
        let mut recovered_at = None;
        for epoch in 0..128 {
            s.scan(0, 256);
            let decisions = s.epoch();
            if s.d.is_degraded(0) {
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
            s.scan(region, 64 + 8 * u64::from(region));
        }
        let decisions = s.epoch();
        assert_eq!(decisions.len(), MAX_FLIPS_PER_EPOCH);
        assert_eq!(s.d.stats().batched_out, 4);
        let won: Vec<u32> = decisions.iter().map(|d| d.region).collect();
        assert_eq!(won, (4..12).collect::<Vec<u32>>());
        // The batched-out regions flip the next epoch.
        for region in 0..4 {
            s.scan(region, 64);
        }
        assert_eq!(s.epoch().len(), 4);
    }

    // ---------------------------------------------------------------
    // Controller properties
    // ---------------------------------------------------------------

    /// A one-region daemon.
    fn one_region() -> BiasDaemon {
        BiasDaemon::new(64, Time::ZERO)
    }

    /// Closes an epoch for a region the bias table has in host bias.
    fn end_host_epoch(d: &mut BiasDaemon) {
        d.end_epoch(|_| BiasKind::HostBias);
    }

    /// One epoch's worth of per-region access counts, as (host_loads,
    /// host_stores, dev_accesses) triples.
    fn epochs() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
        proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..24)
    }

    fn drive(d: &mut BiasDaemon, loads: u8, stores: u8, devs: u8) {
        let r = &mut d.regions[0];
        r.host_loads += u64::from(loads);
        r.host_stores += u64::from(stores);
        r.dev_accesses += u64::from(devs);
    }

    proptest! {
        /// Temperature is monotone in the epoch's access count: running
        /// the same history with every epoch's counts bumped by one extra
        /// access never lowers any epoch's closing temperature.
        #[test]
        fn temperature_is_monotone_in_access_count(seq in epochs(), extra in 1u8..16) {
            let mut base = one_region();
            let mut more = one_region();
            for &(l, s, d) in &seq {
                drive(&mut base, l, s, d);
                drive(&mut more, l, s, d);
                more.regions[0].dev_accesses += u64::from(extra);
                end_host_epoch(&mut base);
                end_host_epoch(&mut more);
                let (b, m) = (base.regions[0].temperature, more.regions[0].temperature);
                prop_assert!(
                    m >= b + f64::from(extra) - 1e-9,
                    "extra accesses lowered the temperature: {m} < {b}"
                );
            }
        }

        /// With the load removed, the decayed EWMA temperature converges
        /// to zero: after enough idle epochs it drops below any
        /// threshold, and it decreases monotonically on the way down.
        #[test]
        fn temperature_decays_to_zero_when_idle(burst in 1u16..2048, idle in 1u32..64) {
            let mut d = one_region();
            d.regions[0].dev_accesses += u64::from(burst);
            end_host_epoch(&mut d);
            let mut last = d.regions[0].temperature;
            prop_assert!(last > 0.0);
            for _ in 0..idle {
                end_host_epoch(&mut d);
                let t = d.regions[0].temperature;
                prop_assert!(t <= last, "idle temperature rose: {t} > {last}");
                prop_assert!(t >= 0.0);
                last = t;
            }
            // DECAY^150 × u16::MAX < 1e-9: 150 idle epochs kill any u16 burst.
            prop_assert!(DECAY.powi(150) * f64::from(u16::MAX) < 1e-9);
            let mut q = one_region();
            q.regions[0].dev_accesses += u64::from(burst);
            end_host_epoch(&mut q);
            for _ in 0..150 {
                end_host_epoch(&mut q);
            }
            let t = q.regions[0].temperature;
            prop_assert!(t < 1e-9, "temperature stuck at {t}");
        }

        /// Hysteresis: under arbitrary access mixes, one epoch never
        /// orders two transitions for the same region, and two
        /// *adjacent* epochs never flip the same region back and forth
        /// (the cooldown keeps a freshly flipped region ineligible in the
        /// next epoch).
        #[test]
        fn flips_are_hysteretic_never_a_b_a(seq in epochs()) {
            let mut d = one_region();
            let mut bias = BiasKind::HostBias;
            let mut last_flip: Option<(u64, BiasKind)> = None;
            for (epoch, &(l, s, n)) in seq.iter().enumerate() {
                drive(&mut d, l, s, n);
                let decisions = d.end_epoch(|_| bias);
                let mine: Vec<_> = decisions.iter().filter(|dc| dc.region == 0).collect();
                prop_assert!(
                    mine.len() <= 1,
                    "epoch ordered {} transitions for one region",
                    mine.len()
                );
                if let Some(dc) = mine.first() {
                    if let Some((at, to)) = last_flip {
                        prop_assert!(
                            epoch as u64 - at >= 2,
                            "region flipped in adjacent epochs {at} and {epoch}"
                        );
                        prop_assert!(
                            dc.to != to,
                            "two consecutive flips to the same bias {to:?}"
                        );
                    }
                    last_flip = Some((epoch as u64, dc.to));
                    bias = dc.to;
                }
            }
        }
    }

    // ---------------------------------------------------------------
    // The daemon on a device
    // ---------------------------------------------------------------

    fn setup() -> (Socket, CxlDevice, BiasDaemon) {
        (
            Socket::xeon_6538y(),
            CxlDevice::agilex7(),
            BiasDaemon::new(1 << 12, Time::ZERO),
        )
    }

    fn table(dev: &CxlDevice, addr: LineAddr) -> BiasKind {
        dev.bias.mode_of(device_byte_offset(addr))
    }

    /// Scans `addr` through one epoch and polls just past its boundary:
    /// the region enters device bias. Returns when the entry completed.
    fn flip_to_device(
        daemon: &mut BiasDaemon,
        dev: &mut CxlDevice,
        host: &mut Socket,
        addr: LineAddr,
    ) -> Time {
        for _ in 0..256 {
            daemon.note_d2d(addr);
        }
        assert_eq!(table(dev, addr), BiasKind::HostBias);
        let at = Time::ZERO + EPOCH + Duration::from_nanos(1_000);
        let done = daemon.poll(at, dev, host);
        assert!(done > at, "the entry flush takes time");
        assert_eq!(table(dev, addr), BiasKind::DeviceBias);
        done
    }

    fn bias_flips(events: &[trace::TimedEvent]) -> u64 {
        events
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::BiasFlip { .. }))
            .count() as u64
    }

    #[test]
    fn device_heavy_region_flips_and_the_table_follows() {
        trace::install(1 << 12);
        let (mut host, mut dev, mut daemon) = setup();
        let addr = device_line(3 << GRAIN_SHIFT);
        flip_to_device(&mut daemon, &mut dev, &mut host, addr);
        assert_eq!(daemon.transitions(), 1);
        assert_eq!(daemon.stats().policy_flips, 1);
        // Neighbouring regions saw no traffic and stay host-biased.
        assert_eq!(
            table(&dev, device_line(4 << GRAIN_SHIFT)),
            BiasKind::HostBias
        );
        assert_eq!(bias_flips(&trace::uninstall()), 1);
    }

    #[test]
    fn sustained_faults_degrade_hot_region_to_host_bias() {
        let (mut host, mut dev, mut daemon) = setup();
        let addr = device_line(9);
        flip_to_device(&mut daemon, &mut dev, &mut host, addr);
        for _ in 0..8 {
            daemon.note_fault(addr);
        }
        daemon.poll(
            Time::ZERO + EPOCH * 2 + Duration::from_nanos(1_000),
            &mut dev,
            &mut host,
        );
        assert_eq!(table(&dev, addr), BiasKind::HostBias);
        assert!(daemon.is_degraded(daemon.region_of(addr)));
        assert_eq!(daemon.stats().degrade_flips, 1);
        assert_eq!(daemon.transitions(), 2);
    }

    #[test]
    fn prompt_reentry_is_one_policy_flip_in_every_tally() {
        trace::install(1 << 12);
        let (mut host, mut dev, mut daemon) = setup();
        let addr = device_line(7);
        let t = flip_to_device(&mut daemon, &mut dev, &mut host, addr);
        // An H2D store exits device bias in hardware; the next poll,
        // still inside the epoch, re-enters it promptly.
        daemon.note_h2d(addr, true, &dev);
        let t = dev.h2d_store(addr, t, &mut host).completion;
        assert!(t < Time::ZERO + EPOCH * 2);
        assert_eq!(table(&dev, addr), BiasKind::HostBias);
        daemon.poll(t, &mut dev, &mut host);
        assert_eq!(table(&dev, addr), BiasKind::DeviceBias);
        let flips = bias_flips(&trace::uninstall());
        assert_eq!(flips, 2);
        assert_eq!(daemon.stats().policy_flips, flips);
        assert_eq!(daemon.transitions(), flips);
    }

    #[test]
    fn reentry_counts_a_flip_and_leaves_the_cooldown_alone() {
        let (mut host, mut dev, mut daemon) = setup();
        let addr = device_line(7);
        // Epoch 1 flips the region; epochs 2 and 3 pass idle.
        let t = flip_to_device(&mut daemon, &mut dev, &mut host, addr);
        let t = daemon.poll(t.max(Time::ZERO + EPOCH * 3), &mut dev, &mut host);
        assert_eq!(daemon.stats().epochs, 3);
        // An H2D store exits device bias in hardware; the daemon, which
        // still wants the region, re-enters it within epoch 4.
        daemon.note_h2d(addr, true, &dev);
        let t = dev.h2d_store(addr, t, &mut host).completion;
        let t = daemon.poll(t, &mut dev, &mut host);
        assert!(t < Time::ZERO + EPOCH * 4);
        assert_eq!(table(&dev, addr), BiasKind::DeviceBias);
        assert_eq!(daemon.stats().policy_flips, 2);
        // The re-entry is not a new decision: a host flood right after
        // it exits at the end of epoch 4 instead of waiting out a fresh
        // cooldown.
        for _ in 0..512 {
            daemon.note_h2d(addr, false, &dev);
        }
        daemon.poll(Time::ZERO + EPOCH * 4, &mut dev, &mut host);
        assert_eq!(table(&dev, addr), BiasKind::HostBias);
        assert_eq!(daemon.stats().policy_flips, 3);
    }

    #[test]
    fn region_sent_to_host_bias_elsewhere_gets_no_prompt_reentry() {
        let (mut host, mut dev, mut daemon) = setup();
        let addr = device_line(5);
        let t = flip_to_device(&mut daemon, &mut dev, &mut host, addr);
        // Fault recovery aborts the region to host bias outside the
        // daemon; its standing decision is still device.
        let t = dev.enter_host_bias(region_first(daemon.region_of(addr)), 1 << GRAIN_SHIFT, t);
        assert!(daemon.wants_device(daemon.region_of(addr)));
        // Its next H2D access finds it host-biased: nothing to re-enter.
        daemon.note_h2d(addr, false, &dev);
        let t = dev.h2d_load(addr, t, &mut host).completion;
        assert_eq!(daemon.poll(t, &mut dev, &mut host), t);
        assert_eq!(table(&dev, addr), BiasKind::HostBias);
        assert_eq!(daemon.transitions(), 1);
    }
}
