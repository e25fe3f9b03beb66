//! Property-based tests for the protocol layer.

use cxl_proto::bias::BiasTable;
use cxl_proto::link::{cxl_x16, Link};
use cxl_proto::retry::{RetryConfig, RetryLink, MAX_REPLAYS};
use proptest::prelude::*;
use sim_core::fault::{FaultPlan, FaultProcess};
use sim_core::port::OpOutcome;
use sim_core::time::{Duration, Time};
use sim_core::trace::{self, BiasKind, FaultKind, TraceEvent};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The linear-scan bias table `BiasTable` must agree with: regions in
/// definition order, each lookup a scan.
#[derive(Default)]
struct BiasModel {
    regions: Vec<(Range<u64>, BiasKind)>,
    flips_to_host: u64,
    switches_to_device: u64,
}

impl BiasModel {
    fn region_mut(&mut self, addr: u64) -> Option<&mut (Range<u64>, BiasKind)> {
        self.regions.iter_mut().find(|(r, _)| r.contains(&addr))
    }

    fn mode_of(&self, addr: u64) -> BiasKind {
        self.regions
            .iter()
            .find(|(r, _)| r.contains(&addr))
            .map_or(BiasKind::HostBias, |&(_, m)| m)
    }

    fn switch_to_device_bias(&mut self, addr: u64) -> bool {
        let Some((_, mode)) = self.region_mut(addr) else {
            return false;
        };
        if *mode != BiasKind::DeviceBias {
            *mode = BiasKind::DeviceBias;
            self.switches_to_device += 1;
        }
        true
    }

    fn switch_to_host_bias(&mut self, addr: u64) -> bool {
        match self.region_mut(addr) {
            Some((_, mode)) if *mode == BiasKind::DeviceBias => {
                *mode = BiasKind::HostBias;
                self.flips_to_host += 1;
                true
            }
            _ => false,
        }
    }

    fn on_h2d_access(&mut self, addr: u64) -> BiasKind {
        self.switch_to_host_bias(addr);
        self.mode_of(addr)
    }
}

proptest! {
    /// Link deliveries are causal and FIFO regardless of sizes and gaps.
    #[test]
    fn link_is_causal_fifo(
        msgs in proptest::collection::vec((0u64..5_000, 0u64..4_096), 1..100),
    ) {
        let mut link = Link::new(Duration::from_nanos(30), 56.0, 4);
        let mut now = Time::ZERO;
        let mut last_arrival = Time::ZERO;
        for (gap, bytes) in msgs {
            now += Duration::from_nanos(gap);
            let arrival = link.deliver(now, bytes);
            prop_assert!(arrival >= now + link.propagation());
            prop_assert!(arrival >= last_arrival, "FIFO delivery");
            last_arrival = arrival;
        }
    }

    /// `RetryLink` keeps its books for any sizes, gaps, BER rung and plan
    /// seed. Deliveries are causal and FIFO. Per call, `Clean` replays
    /// 0 times, `Retried` at least once and `Failed` exactly
    /// `MAX_REPLAYS` times, and `replays()` grows by the call's
    /// `link-retry` events. Every `flit-corrupt` injection is either a
    /// replay or the hit that failed the call. At BER 0 the timing is a
    /// bare `Link`'s.
    #[test]
    fn retry_link_accounts_for_every_corrupt_flit(
        msgs in proptest::collection::vec((0u64..5_000, 0u64..4_096), 1..100),
        ber in prop_oneof![Just(0.0), Just(1e-6), Just(1e-4), Just(1e-3)],
        seed in any::<u64>(),
    ) {
        let plan = FaultPlan::new(seed).with("l", FaultProcess::bit_error(ber));
        let mut rl = RetryLink::new(cxl_x16(), RetryConfig, plan.injector("l"));
        let mut bare = cxl_x16();
        let mut now = Time::ZERO;
        let mut last_arrival = Time::ZERO;
        for (gap, bytes) in msgs {
            now += Duration::from_nanos(gap);
            let before = rl.replays();
            trace::install(64);
            let (arrival, outcome) = rl.deliver(now, bytes);
            let events = trace::uninstall();
            let count = |want: fn(&TraceEvent) -> bool| {
                events.iter().filter(|e| want(&e.event)).count() as u64
            };
            let retries = count(|e| matches!(e, TraceEvent::LinkRetry { point: "l", .. }));
            let corrupt = count(|e| {
                matches!(e, TraceEvent::FaultInject { point: "l", fault: FaultKind::FlitCorrupt })
            });
            prop_assert!(arrival >= now + bare.propagation());
            prop_assert!(arrival >= last_arrival, "FIFO delivery");
            last_arrival = arrival;
            match outcome {
                OpOutcome::Clean => prop_assert_eq!(retries, 0),
                OpOutcome::Retried => prop_assert!(retries >= 1),
                OpOutcome::Failed => prop_assert_eq!(retries, u64::from(MAX_REPLAYS)),
            }
            prop_assert_eq!(rl.replays() - before, retries);
            prop_assert_eq!(corrupt, retries + u64::from(outcome == OpOutcome::Failed));
            if ber == 0.0 {
                prop_assert_eq!(arrival, bare.deliver(now, bytes));
                prop_assert_eq!(outcome, OpOutcome::Clean);
            }
        }
    }

    /// Bias-table state machine: after any interleaving of switches and
    /// H2D accesses, a region is in device bias iff its last transition
    /// was a switch (not an access).
    #[test]
    fn bias_table_tracks_last_transition(events in proptest::collection::vec(any::<bool>(), 1..60)) {
        let mut t = BiasTable::new();
        t.define_region(0..4096, BiasKind::HostBias);
        for switch in events {
            let want = if switch {
                t.switch_to_device_bias(0);
                BiasKind::DeviceBias
            } else {
                t.on_h2d_access(0);
                BiasKind::HostBias
            };
            prop_assert_eq!(t.mode_of(0), want);
        }
    }

    /// `BiasTable` against the linear-scan model: regions laid out with
    /// gaps, defined in random order, then a random mix of H2D accesses,
    /// explicit switches and lookups over covered and uncovered addresses.
    /// An overlapping define still panics and leaves the table unchanged.
    #[test]
    fn bias_table_matches_a_linear_scan_model(
        layout in proptest::collection::vec((0u64..3, 1u64..4, any::<bool>()), 1..24),
        order in proptest::collection::vec(any::<u64>(), 24),
        overlaps in proptest::collection::vec((any::<prop::sample::Index>(), any::<u64>(), 0u64..128, 0u64..128), 0..4),
        ops in proptest::collection::vec((0u8..4, any::<u64>()), 0..200),
    ) {
        const LINE: u64 = 64;
        let mut regions = Vec::new();
        let mut at = 0;
        for &(gap, lines, device) in &layout {
            let start = at + gap * LINE;
            let mode = if device { BiasKind::DeviceBias } else { BiasKind::HostBias };
            regions.push((start..start + lines * LINE, mode));
            at = start + lines * LINE;
        }
        let span = at + 2 * LINE;
        let mut keyed: Vec<_> = regions.iter().cloned().zip(&order).collect();
        keyed.sort_by_key(|&(_, &k)| k);

        let mut table = BiasTable::new();
        let mut model = BiasModel::default();
        for ((range, mode), _) in keyed {
            table.define_region(range.clone(), mode);
            model.regions.push((range, mode));
        }
        for (pick, within, back, extra) in overlaps {
            let (r, _) = &regions[pick.index(regions.len())];
            let addr = r.start + within % (r.end - r.start);
            let clash = addr.saturating_sub(back)..addr + 1 + extra;
            let mut probe = table.clone();
            let defined = catch_unwind(AssertUnwindSafe(|| {
                probe.define_region(clash.clone(), BiasKind::HostBias)
            }));
            prop_assert!(defined.is_err(), "{:?} overlaps {:?}", clash, r);
        }
        for (op, a) in ops {
            let addr = a % span;
            match op {
                0 => prop_assert_eq!(table.on_h2d_access(addr), model.on_h2d_access(addr)),
                1 => prop_assert_eq!(
                    table.switch_to_device_bias(addr),
                    model.switch_to_device_bias(addr)
                ),
                2 => prop_assert_eq!(
                    table.switch_to_host_bias(addr),
                    model.switch_to_host_bias(addr)
                ),
                _ => {}
            }
            prop_assert_eq!(table.mode_of(addr), model.mode_of(addr));
            prop_assert_eq!(
                table.transition_counts(),
                (model.flips_to_host, model.switches_to_device)
            );
        }
        // The final layout: every byte's mode, and each region's extent.
        // `mode_of` reads a gap as host bias, so defined-ness is probed
        // with a switch, and flipping a region must move exactly its own
        // bytes: a dropped, misplaced or merged region fails here.
        for addr in 0..span {
            prop_assert_eq!(table.mode_of(addr), model.mode_of(addr), "at {}", addr);
        }
        for (r, mode) in &model.regions {
            let edges = r.start.saturating_sub(1)..r.end + 1;
            for addr in [edges.start, r.start, r.end - 1, r.end] {
                let defined = model.regions.iter().any(|(q, _)| q.contains(&addr));
                prop_assert_eq!(table.clone().switch_to_device_bias(addr), defined, "at {}", addr);
            }
            let mut probe = table.clone();
            let flipped = match mode {
                BiasKind::DeviceBias => {
                    prop_assert!(probe.switch_to_host_bias(r.start));
                    BiasKind::HostBias
                }
                BiasKind::HostBias => {
                    prop_assert!(probe.switch_to_device_bias(r.start));
                    BiasKind::DeviceBias
                }
            };
            for addr in edges {
                let want = if r.contains(&addr) { flipped } else { table.mode_of(addr) };
                prop_assert_eq!(probe.mode_of(addr), want, "at {} after flipping {:?}", addr, r);
            }
        }
    }
}
