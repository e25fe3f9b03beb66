//! The adaptive bias daemon: feedback-controlled host/device bias over
//! one device's memory, with fault-aware degradation.
//!
//! [`BiasDaemon`] marries the hardware-agnostic controller of
//! [`sim_core::policy`] to one [`CxlDevice`]: the harness feeds it
//! accesses and faults from its LSU/H2D paths (cheap per-region counter
//! bumps), and [`poll`] closes epochs every [`EPOCH`] of simulated
//! time, applying the controller's batched decisions through one
//! transition code path, which emits a `bias-flip` trace event (region
//! id + reason) and performs the §IV-B software obligation on the
//! device (host-cache CO_WR flush on the way into device bias,
//! dirty-DMC write-back on the way out).
//!
//! A region's bias lives in one place, the device's
//! [`BiasTable`](cxl_proto::bias::BiasTable): the daemon reads it when it
//! closes an epoch and when it notes an H2D access, so a hardware exit
//! (any H2D access to a device-biased region) or a fault-recovery flip
//! made outside the daemon needs no bookkeeping here.
//!
//! Like [`SharedSliceTables`](crate::occupancy::SharedSliceTables) and
//! [`SliceTimeouts`](crate::reliability::SliceTimeouts), this is an
//! **opt-in layer**: nothing in the healthy facades calls it, so every
//! existing golden trace is untouched. All state is per-instance and
//! all arithmetic sequential — a sweep embedding one daemon per point
//! is thread-invariant.
//!
//! [`poll`]: BiasDaemon::poll

use host::socket::Socket;
use mem_subsys::line::LineAddr;
use sim_core::policy::{AccessOrigin, BiasPolicy, PolicyStats, GRAIN_SHIFT};
use sim_core::time::{Duration, Time};
use sim_core::trace::{self, BiasKind, FlipCause, TraceEvent};

use crate::addr::{device_byte_offset, device_line, device_local_index};
use crate::device::CxlDevice;

/// Epoch length: [`BiasDaemon::poll`] closes every boundary `now` has
/// passed. 5 µs holds tens of ops at the bias crossover's rates, so the
/// controller converges within a small fraction of a run.
pub const EPOCH: Duration = Duration::from_micros(5);

/// The adaptive bias & hot-page management daemon for one device.
#[derive(Debug, Clone)]
pub struct BiasDaemon {
    policy: BiasPolicy,
    next_epoch: Time,
    // Regions whose device bias a hardware H2D access silently revoked
    // while the controller still wants them device-biased; the next
    // poll() re-enters promptly instead of waiting out the epoch.
    reentry: Vec<u32>,
}

/// First line of policy region `region`.
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
    /// A daemon over `lines` device-local lines, first epoch boundary
    /// one [`EPOCH`] after `start`.
    pub fn new(lines: u64, start: Time) -> Self {
        BiasDaemon {
            policy: BiasPolicy::new(lines),
            next_epoch: start + EPOCH,
            reentry: Vec::new(),
        }
    }

    /// The underlying controller (temperatures, degradation state).
    pub fn policy(&self) -> &BiasPolicy {
        &self.policy
    }

    /// Total transitions the daemon applied: the sum of the policy and
    /// degrade flip counts in [`stats`](Self::stats).
    pub fn transitions(&self) -> u64 {
        let s = self.policy.stats();
        s.policy_flips + s.degrade_flips
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
    /// memory. Cheap counter bump; call it just *before* the facade
    /// call, while `dev`'s bias table still holds the region's bias.
    ///
    /// An H2D access to a device-biased region exits device bias in
    /// hardware (§IV-B). If the table says device bias now and the
    /// controller still wants it, the next [`poll`](Self::poll)
    /// re-enters promptly. A region already in host bias queues nothing
    /// more: an earlier H2D access has queued it, or a flip outside the
    /// daemon (fault recovery) put it there and only an epoch decision
    /// brings it back.
    #[inline]
    pub fn note_h2d(&mut self, addr: LineAddr, write: bool, dev: &CxlDevice) {
        let region = self.region_of(addr);
        let origin = if write {
            AccessOrigin::HostStore
        } else {
            AccessOrigin::HostLoad
        };
        self.policy.note_access(region, origin);
        if bias_of(dev, region) == BiasKind::DeviceBias
            && self.policy.wants_device(region)
            && !self.reentry.contains(&region)
        {
            self.reentry.push(region);
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
        for region in std::mem::take(&mut self.reentry) {
            if self.policy.wants_device(region) && bias_of(dev, region) == BiasKind::HostBias {
                self.policy.record_reentry();
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
            let decisions = self.policy.end_epoch(|region| bias_of(dev, region));
            for d in decisions {
                t = transition(d.region, d.to, d.reason, t, dev, host);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(daemon.policy().is_degraded(daemon.region_of(addr)));
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
    fn region_sent_to_host_bias_elsewhere_gets_no_prompt_reentry() {
        let (mut host, mut dev, mut daemon) = setup();
        let addr = device_line(5);
        let t = flip_to_device(&mut daemon, &mut dev, &mut host, addr);
        // Fault recovery aborts the region to host bias outside the
        // daemon; the controller's standing decision is still device.
        let t = dev.enter_host_bias(region_first(daemon.region_of(addr)), 1 << GRAIN_SHIFT, t);
        assert!(daemon.policy().wants_device(daemon.region_of(addr)));
        // Its next H2D access finds it host-biased: nothing to re-enter.
        daemon.note_h2d(addr, false, &dev);
        let t = dev.h2d_load(addr, t, &mut host).completion;
        assert_eq!(daemon.poll(t, &mut dev, &mut host), t);
        assert_eq!(table(&dev, addr), BiasKind::HostBias);
        assert_eq!(daemon.transitions(), 1);
    }
}
