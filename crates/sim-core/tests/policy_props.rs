//! Property-based tests for the adaptive bias controller: temperature
//! tracking must be monotone in load and decay to zero when load stops,
//! and the flip controller must be hysteretic — a region never
//! ping-pongs A→B→A within an epoch (or across adjacent epochs, thanks
//! to the cooldown).

use proptest::prelude::*;
use sim_core::policy::{AccessOrigin, BiasPolicy, PolicyConfig};
use sim_core::trace::BiasKind;

fn cfg() -> PolicyConfig {
    PolicyConfig {
        min_temperature: 1.0,
        ..PolicyConfig::default()
    }
}

/// One epoch's worth of per-region access counts, as (host_loads,
/// host_stores, dev_accesses) triples over a handful of regions.
fn epochs() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..24)
}

fn drive(p: &mut BiasPolicy, region: u32, loads: u8, stores: u8, devs: u8) {
    for _ in 0..loads {
        p.note_access(region, AccessOrigin::HostLoad);
    }
    for _ in 0..stores {
        p.note_access(region, AccessOrigin::HostStore);
    }
    for _ in 0..devs {
        p.note_access(region, AccessOrigin::Device);
    }
}

proptest! {
    /// Temperature is monotone in the epoch's access count: running the
    /// same history with every epoch's counts bumped by one extra access
    /// never lowers any epoch's closing temperature.
    #[test]
    fn temperature_is_monotone_in_access_count(seq in epochs(), extra in 1u8..16) {
        let mut base = BiasPolicy::new(cfg(), 64);
        let mut more = BiasPolicy::new(cfg(), 64);
        for &(l, s, d) in &seq {
            drive(&mut base, 0, l, s, d);
            drive(&mut more, 0, l, s, d);
            for _ in 0..extra {
                more.note_access(0, AccessOrigin::Device);
            }
            base.end_epoch();
            more.end_epoch();
            prop_assert!(
                more.temperature(0) >= base.temperature(0) + f64::from(extra) - 1e-9,
                "extra accesses lowered the temperature: {} < {}",
                more.temperature(0),
                base.temperature(0)
            );
        }
    }

    /// With the load removed, the decayed EWMA temperature converges to
    /// zero: after enough idle epochs it drops below any threshold, and
    /// it decreases monotonically on the way down.
    #[test]
    fn temperature_decays_to_zero_when_idle(burst in 1u16..2048, idle in 1u32..64) {
        let mut p = BiasPolicy::new(cfg(), 64);
        for _ in 0..burst {
            p.note_access(0, AccessOrigin::Device);
        }
        p.end_epoch();
        let mut last = p.temperature(0);
        prop_assert!(last > 0.0);
        for _ in 0..idle {
            p.end_epoch();
            let t = p.temperature(0);
            prop_assert!(t <= last, "idle temperature rose: {t} > {last}");
            prop_assert!(t >= 0.0);
            last = t;
        }
        // decay = 0.5 by default, so 60 idle epochs kill any u16 burst.
        let mut q = BiasPolicy::new(cfg(), 64);
        for _ in 0..burst {
            q.note_access(0, AccessOrigin::Device);
        }
        q.end_epoch();
        for _ in 0..60 {
            q.end_epoch();
        }
        prop_assert!(q.temperature(0) < 1e-9, "temperature stuck at {}", q.temperature(0));
    }

    /// Hysteresis: under arbitrary access mixes, one epoch never orders
    /// two transitions for the same region, and two *adjacent* epochs
    /// never flip the same region back and forth (the cooldown keeps a
    /// freshly flipped region ineligible in the next epoch).
    #[test]
    fn flips_are_hysteretic_never_a_b_a(seq in epochs()) {
        let mut p = BiasPolicy::new(cfg(), 64);
        let mut last_flip: Option<(u64, BiasKind)> = None;
        for (epoch, &(l, s, d)) in seq.iter().enumerate() {
            drive(&mut p, 0, l, s, d);
            let decisions = p.end_epoch();
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
            }
        }
    }
}
