//! The adaptive bias daemon: feedback-controlled host/device bias over
//! one device's memory, with fault-aware degradation.
//!
//! [`BiasDaemon`] marries the hardware-agnostic controller of
//! [`sim_core::policy`] to one [`CxlDevice`]: the harness feeds it
//! accesses and faults from its LSU/H2D paths (cheap per-region counter
//! bumps), and [`poll`] closes epochs at a fixed simulated-time cadence,
//! applying the controller's batched decisions through **one**
//! transition code path — [`transition`] — which emits a `bias-flip`
//! trace event (region id + reason) and performs the §IV-B software
//! obligation on the device (host-cache CO_WR flush on the way into
//! device bias, dirty-DMC write-back on the way out).
//!
//! The watchdog's conflict-abort flip goes through the *same* path:
//! [`on_conflict_abort`] wraps [`SliceTimeouts::conflict_abort`]
//! (emitting the identical `conflict-abort` event, so existing goldens
//! stay byte-identical) and then routes the region's forced host-bias
//! transition through [`transition`] with [`FlipCause::Conflict`].
//!
//! Like [`SharedSliceTables`](crate::occupancy::SharedSliceTables) and
//! [`SliceTimeouts`], this is an **opt-in layer**: nothing in the
//! healthy facades calls it, so every existing golden trace is
//! untouched. All state is per-instance and all arithmetic sequential —
//! a sweep embedding one daemon per point is thread-invariant.
//!
//! [`poll`]: BiasDaemon::poll
//! [`transition`]: BiasDaemon::transition
//! [`on_conflict_abort`]: BiasDaemon::on_conflict_abort

use host::socket::Socket;
use mem_subsys::line::LineAddr;
use sim_core::policy::{AccessOrigin, BiasPolicy, PolicyConfig, PolicyStats};
use sim_core::time::{Duration, Time};
use sim_core::trace::{self, BiasKind, FlipCause, TraceEvent};

use crate::addr::{device_line, device_local_index};
use crate::device::CxlDevice;
use crate::reliability::SliceTimeouts;

/// One ordered bias transition: the unified currency of every flip,
/// whether the feedback controller, the degradation monitor, or the
/// slice watchdog asked for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BiasTransition {
    /// Policy region index.
    pub region: u32,
    /// The bias the region moves to.
    pub to: BiasKind,
    /// Who ordered it.
    pub reason: FlipCause,
}

/// Configuration of the daemon: the controller knobs plus the epoch
/// cadence in simulated time.
#[derive(Debug, Clone, Copy)]
pub struct DaemonConfig {
    /// Controller and tracker knobs.
    pub policy: PolicyConfig,
    /// Epoch length; [`BiasDaemon::poll`] closes every boundary `now`
    /// has passed.
    pub epoch: Duration,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            policy: PolicyConfig::default(),
            epoch: Duration::from_micros(5),
        }
    }
}

/// The adaptive bias & hot-page management daemon for one device.
#[derive(Debug, Clone)]
pub struct BiasDaemon {
    policy: BiasPolicy,
    epoch: Duration,
    next_epoch: Time,
    // Regions whose device bias a hardware H2D access silently revoked
    // while the controller still wants them device-biased; the next
    // poll() re-enters promptly instead of waiting out the epoch.
    reentry: Vec<u32>,
}

impl BiasDaemon {
    /// A daemon over `lines` device-local lines, first epoch boundary
    /// one epoch after `start`.
    pub fn new(cfg: DaemonConfig, lines: u64, start: Time) -> Self {
        BiasDaemon {
            policy: BiasPolicy::new(cfg.policy, lines),
            epoch: cfg.epoch,
            next_epoch: start + cfg.epoch,
            reentry: Vec::new(),
        }
    }

    /// The underlying controller (temperatures, degradation state).
    pub fn policy(&self) -> &BiasPolicy {
        &self.policy
    }

    /// Total transitions applied through the unified path: the sum of
    /// the policy, degrade and conflict flip counts in
    /// [`stats`](Self::stats).
    pub fn transitions(&self) -> u64 {
        let s = self.policy.stats();
        s.policy_flips + s.degrade_flips + s.conflict_flips
    }

    /// Controller statistics (flip counts by reason, epochs, batching).
    pub fn stats(&self) -> PolicyStats {
        self.policy.stats()
    }

    /// The policy region covering a device-memory address.
    pub fn region_of(&self, addr: LineAddr) -> u32 {
        self.policy.region_of(device_local_index(addr))
    }

    /// Record a host-originated access (H2D load/store) to device
    /// memory. Cheap counter bump; call next to the facade call.
    ///
    /// Also mirrors the §IV-B hardware rule: an H2D access to a
    /// device-biased region silently exits device bias, so the daemon's
    /// mirror follows the [`BiasTable`](cxl_proto::bias::BiasTable)
    /// without a transition of its own.
    #[inline]
    pub fn note_h2d(&mut self, addr: LineAddr, write: bool) {
        let region = self.region_of(addr);
        let origin = if write {
            AccessOrigin::HostStore
        } else {
            AccessOrigin::HostLoad
        };
        self.policy.note_access(region, origin);
        if self.policy.bias_of(region) == BiasKind::DeviceBias {
            self.policy.sync_bias(region, BiasKind::HostBias);
            // The controller's standing decision survives the hardware
            // revocation — queue a prompt re-entry for the next poll.
            if self.policy.wants_device(region) && !self.reentry.contains(&region) {
                self.reentry.push(region);
            }
        }
    }

    /// Record a device-originated access (LSU / D2D) to device memory.
    #[inline]
    pub fn note_d2d(&mut self, addr: LineAddr) {
        let region = self.region_of(addr);
        self.policy.note_access(region, AccessOrigin::Device);
    }

    /// Record a fault (link retry, poison, watchdog timeout) attributed
    /// to a device-memory address.
    #[inline]
    pub fn note_fault(&mut self, addr: LineAddr) {
        let region = self.region_of(addr);
        self.policy.note_fault(region);
    }

    /// Mirror a bias change some other layer performed on the device
    /// (e.g. a fault-recovery path that forced a region back to host
    /// bias) without attributing a daemon transition.
    pub fn sync_external_flip(&mut self, addr: LineAddr, to: BiasKind) {
        let region = self.region_of(addr);
        self.policy.sync_bias(region, to);
    }

    /// Whether the region covering `addr` currently runs device-biased,
    /// in the daemon's mirror of the bias table.
    pub fn is_device_biased(&self, addr: LineAddr) -> bool {
        self.policy.bias_of(self.region_of(addr)) == BiasKind::DeviceBias
    }

    /// Closes every epoch boundary `now` has passed and applies the
    /// controller's batched decisions to `dev`, flushing through
    /// `host` (the owning socket). Returns the completion time of the
    /// last transition (`now` if nothing flipped).
    pub fn poll(&mut self, now: Time, dev: &mut CxlDevice, host: &mut Socket) -> Time {
        let mut t = now;
        // Prompt re-entry: regions whose device bias an H2D access
        // revoked mid-epoch go back to device bias now — static-device
        // restores immediately after every host touch, and the adaptive
        // daemon must not concede a whole epoch each time.
        if !self.reentry.is_empty() {
            let queued = std::mem::take(&mut self.reentry);
            for region in queued {
                if self.policy.wants_device(region)
                    && self.policy.bias_of(region) == BiasKind::HostBias
                {
                    self.policy.record_reentry(region);
                    t = self.transition(
                        BiasTransition {
                            region,
                            to: BiasKind::DeviceBias,
                            reason: FlipCause::Policy,
                        },
                        t,
                        dev,
                        host,
                    );
                }
            }
        }
        while now >= self.next_epoch {
            self.next_epoch += self.epoch;
            for d in self.policy.end_epoch() {
                let tr = BiasTransition {
                    region: d.region,
                    to: d.to,
                    reason: d.reason,
                };
                t = self.transition(tr, t, dev, host);
            }
        }
        t
    }

    /// The single code path every bias transition takes: emits the
    /// `bias-flip` event (region id + reason), then performs the
    /// device-side work — CO_WR flush of the host's cached lines
    /// on the way into device bias, dirty-DMC write-back on the way back
    /// to host bias. Returns the transition's completion time.
    pub fn transition(
        &mut self,
        tr: BiasTransition,
        now: Time,
        dev: &mut CxlDevice,
        host: &mut Socket,
    ) -> Time {
        trace::emit(
            now,
            TraceEvent::BiasFlip {
                region: tr.region,
                to: tr.to,
                reason: tr.reason,
            },
        );
        let first = device_line(self.policy.region_base_line(tr.region));
        let lines = self.policy.lines_per_region();
        match tr.to {
            BiasKind::DeviceBias => dev.enter_device_bias(first, lines, now, host),
            BiasKind::HostBias => dev.enter_host_bias(first, lines, now),
        }
    }

    /// The watchdog collision path, unified with the policy layer: a
    /// supervised transaction to `addr` collided with an in-flight bias
    /// flip. Emits the exact `conflict-abort` event the bare
    /// [`SliceTimeouts::conflict_abort`] emits (goldens unchanged), then
    /// — if the region was device-biased — routes its forced host-bias
    /// flip through [`transition`] with [`FlipCause::Conflict`] and
    /// starts the controller's cooldown so the feedback loop cannot
    /// immediately fight the watchdog. Returns when the requester may
    /// reissue (no earlier than the bare path's backoff).
    ///
    /// [`transition`]: BiasDaemon::transition
    pub fn on_conflict_abort(
        &mut self,
        timeouts: &mut SliceTimeouts,
        slice: u32,
        addr: LineAddr,
        at: Time,
        dev: &mut CxlDevice,
        host: &mut Socket,
    ) -> Time {
        let retry_at = timeouts.conflict_abort(slice, addr.index(), at);
        let region = self.region_of(addr);
        if self.policy.bias_of(region) != BiasKind::HostBias {
            self.policy
                .record_external_flip(region, BiasKind::HostBias, FlipCause::Conflict);
            let done = self.transition(
                BiasTransition {
                    region,
                    to: BiasKind::HostBias,
                    reason: FlipCause::Conflict,
                },
                at,
                dev,
                host,
            );
            return done.max(retry_at);
        }
        retry_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::device_line;

    fn setup() -> (Socket, CxlDevice) {
        (Socket::xeon_6538y(), CxlDevice::agilex7())
    }

    fn cfg() -> DaemonConfig {
        DaemonConfig {
            policy: PolicyConfig {
                min_temperature: 1.0,
                ..PolicyConfig::default()
            },
            epoch: Duration::from_micros(1),
        }
    }

    #[test]
    fn device_heavy_region_flips_and_accelerates_d2d() {
        let (mut host, mut dev) = setup();
        let mut daemon = BiasDaemon::new(cfg(), 1 << 12, Time::ZERO);
        let addr = device_line(3);
        for _ in 0..64 {
            daemon.note_d2d(addr);
        }
        assert!(!daemon.is_device_biased(addr));
        let t = daemon.poll(Time::from_nanos(2_000), &mut dev, &mut host);
        assert!(t >= Time::from_nanos(2_000));
        assert!(daemon.is_device_biased(addr));
        assert_eq!(daemon.transitions(), 1);
        assert_eq!(daemon.stats().policy_flips, 1);
        // The device's own bias table agrees with the daemon's mirror.
        use crate::addr::device_byte_offset;
        assert_eq!(
            dev.bias.mode_of(device_byte_offset(addr)),
            BiasKind::DeviceBias
        );
    }

    #[test]
    fn conflict_abort_unifies_with_policy_flip() {
        trace::install(64);
        let (mut host, mut dev) = setup();
        let mut daemon = BiasDaemon::new(cfg(), 1 << 12, Time::ZERO);
        let mut st = SliceTimeouts::healthy();
        let addr = device_line(5);
        for _ in 0..64 {
            daemon.note_d2d(addr);
        }
        daemon.poll(Time::from_nanos(2_000), &mut dev, &mut host);
        assert!(daemon.is_device_biased(addr));

        let at = Time::from_nanos(3_000);
        let retry = daemon.on_conflict_abort(&mut st, 0, addr, at, &mut dev, &mut host);
        assert!(retry >= at + st.policy().backoff_base);
        assert_eq!(st.aborts(), 1);
        assert!(!daemon.is_device_biased(addr));
        assert_eq!(daemon.stats().conflict_flips, 1);

        let events = trace::uninstall();
        let kinds: Vec<_> = events
            .iter()
            .filter_map(|e| match e.event {
                TraceEvent::ConflictAbort { slice, .. } => Some(format!("abort{slice}")),
                TraceEvent::BiasFlip { to, reason, .. } => Some(format!("flip:{to}:{reason}")),
                _ => None,
            })
            .collect();
        // The bare conflict-abort event is preserved verbatim and the
        // unified bias-flip event follows with the conflict reason.
        assert!(kinds.contains(&"abort0".to_string()));
        assert!(kinds.contains(&"flip:device:policy".to_string()));
        assert!(kinds.contains(&"flip:host:conflict".to_string()));

        // A conflict on an already host-biased region is just the bare
        // backoff — no transition, no extra flip.
        let t2 = daemon.on_conflict_abort(
            &mut st,
            0,
            addr,
            Time::from_nanos(4_000),
            &mut dev,
            &mut host,
        );
        assert_eq!(t2, Time::from_nanos(4_000) + st.policy().backoff_base);
        assert_eq!(daemon.transitions(), 2);
    }

    #[test]
    fn sustained_faults_degrade_hot_region_to_host_bias() {
        let (mut host, mut dev) = setup();
        let mut daemon = BiasDaemon::new(cfg(), 1 << 12, Time::ZERO);
        let addr = device_line(9);
        for _ in 0..64 {
            daemon.note_d2d(addr);
        }
        daemon.poll(Time::from_nanos(2_000), &mut dev, &mut host);
        assert!(daemon.is_device_biased(addr));
        for _ in 0..8 {
            daemon.note_fault(addr);
        }
        daemon.poll(Time::from_nanos(4_000), &mut dev, &mut host);
        assert!(!daemon.is_device_biased(addr));
        assert!(daemon.policy().is_degraded(daemon.region_of(addr)));
        assert_eq!(daemon.stats().degrade_flips, 1);
    }

    #[test]
    fn prompt_reentry_is_one_policy_flip_in_every_tally() {
        trace::install(64);
        let (mut host, mut dev) = setup();
        let mut daemon = BiasDaemon::new(cfg(), 1 << 12, Time::ZERO);
        let addr = device_line(7);
        for _ in 0..64 {
            daemon.note_d2d(addr);
        }
        daemon.poll(Time::from_nanos(2_000), &mut dev, &mut host);
        assert!(daemon.is_device_biased(addr));
        // An H2D store revokes device bias; the next poll, still inside
        // the epoch, re-enters it promptly.
        daemon.note_h2d(addr, true);
        assert!(!daemon.is_device_biased(addr));
        daemon.poll(Time::from_nanos(2_500), &mut dev, &mut host);
        assert!(daemon.is_device_biased(addr));
        let flips = trace::uninstall()
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::BiasFlip { .. }))
            .count() as u64;
        assert_eq!(flips, 2);
        assert_eq!(daemon.stats().policy_flips, flips);
        assert_eq!(daemon.transitions(), flips);
    }
}
