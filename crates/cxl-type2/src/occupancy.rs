//! DCOH slice request-table occupancy for multi-initiator harnesses.
//!
//! The synchronous device facades ([`CxlDevice::d2h`], [`CxlDevice::h2d`],
//! …) charge each transaction its pipeline latency but — by design — hold
//! no inter-transaction state for the DCOH request tables: each call
//! models one transaction in isolation, which is what the single-stream
//! golden traces (Table III, Fig. 7) pin down.
//!
//! When several initiators drive one device concurrently (the
//! [`sim_core::traffic`] scheduler), the slices' bounded request tables
//! become a real resource: H2D and D2H transactions that interleave onto
//! the same slice occupy entries for their whole lifetime and serialize on
//! the slice's non-pipelined lookup cadence. [`SharedSliceTables`] models
//! exactly that, as an *opt-in* layer a harness backend applies around the
//! facade calls — the facades themselves stay untouched, so every
//! single-stream golden trace is byte-identical. A harness without
//! tenants uses one admission class (class `0`) whose quota is the whole
//! table.
//!
//! Usage, per op, inside a traffic backend:
//!
//! ```text
//! let slice = dev.slice_of(addr);
//! let start = occ.admit(slice, 0, issue_time); // may stall: table full
//! let done  = dev.h2d(op, addr, start, &mut socket).completion;
//! occ.retire(slice, 0, done);                  // entry held until done
//! ```

use sim_core::time::{Duration, Time};

use crate::device::CxlDevice;

/// Bounded per-slice request tables with a non-pipelined lookup cadence,
/// shared by several admission *classes* (tenants), each holding at most
/// a per-class quota of every slice's entries.
///
/// An entry is allocated at [`admit`](Self::admit) and held until the
/// completion passed to [`retire`](Self::retire); a full table stalls the
/// next admission until its earliest outstanding completion, like an MSHR
/// file, and holds the lookup port while it waits. A class that has its
/// quota outstanding stalls *itself* until one of its own transactions
/// retires, without holding the port, instead of starving every other
/// class out of the table. This is the mechanism behind weighted QoS
/// admission. Quotas are ceilings, not reservations: the global capacity
/// still binds first when the table as a whole is full.
///
/// Calls must be made in nondecreasing `at` order per table (the order a
/// [`TrafficScheduler`](sim_core::traffic::TrafficScheduler) backend sees
/// issues).
#[derive(Debug, Clone)]
pub struct SharedSliceTables {
    entries: usize,
    lookup: Duration,
    /// Per-class entry quotas (ceilings), applied per slice.
    caps: Vec<usize>,
    slices: Vec<SharedSlice>,
    /// Admissions stalled on their *class* quota, per class.
    class_stalls: Vec<u64>,
}

#[derive(Debug, Clone, Default)]
struct SharedSlice {
    /// `(completion, class)` of occupied entries, sorted by completion.
    inflight: Vec<(Time, u16)>,
    next_lookup: Time,
    stalls: u64,
}

impl SharedSliceTables {
    /// A shared table of `slices` slices, `entries` deep, with one
    /// lookup per `lookup` interval, split across `caps.len()` classes
    /// whose per-slice entry ceilings are `caps`
    /// (see [`sim_core::serving::weighted_caps`]).
    ///
    /// # Panics
    ///
    /// Panics if `slices`, `entries`, or any cap is zero, or `caps` is
    /// empty.
    pub fn new(slices: usize, entries: usize, lookup: Duration, caps: Vec<usize>) -> Self {
        assert!(slices > 0, "need at least one slice");
        assert!(entries > 0, "request table needs at least one entry");
        assert!(!caps.is_empty(), "need at least one admission class");
        assert!(
            caps.iter().all(|&c| c > 0),
            "every class needs at least one entry of quota"
        );
        SharedSliceTables {
            entries,
            lookup,
            class_stalls: vec![0; caps.len()],
            caps,
            slices: vec![SharedSlice::default(); slices],
        }
    }

    /// The shared-table model matching `dev`'s geometry with the given
    /// per-class quotas.
    pub fn for_device(dev: &CxlDevice, caps: Vec<usize>) -> Self {
        SharedSliceTables::new(
            dev.slice_count(),
            dev.timing.dcoh_slice_outstanding,
            dev.timing.dcoh_lookup,
            caps,
        )
    }

    /// Admits one transaction of `class` to `slice` at `at`: returns
    /// when its DCOH lookup may start, after any class-quota stall,
    /// table-full stall, and the slice's lookup cadence. Allocates the
    /// entry; pair with [`retire`](Self::retire).
    ///
    /// # Panics
    ///
    /// Panics if `slice` or `class` is out of range.
    pub fn admit(&mut self, slice: usize, class: u16, at: Time) -> Time {
        let cap = self.caps[class as usize].min(self.entries);
        let s = &mut self.slices[slice];
        let mut start = at.max(s.next_lookup);
        s.inflight.retain(|&(c, _)| c > start);
        // The lookup port is normally released one cadence after the
        // lookup itself; a table-full stall back-pressures the port
        // (MSHR-full), but a class-quota wait must not — the waiting
        // transaction holds its lookup result while other classes keep
        // flowing. That asymmetry is what makes quotas isolate.
        let mut port_release = start;
        // Global capacity: wait for the table's earliest completion,
        // holding the port.
        if s.inflight.len() >= self.entries {
            let (earliest, _) = s.inflight.remove(0);
            start = start.max(earliest);
            s.inflight.retain(|&(c, _)| c > start);
            s.stalls += 1;
            port_release = start;
        }
        // Class quota: wait for this class's own earliest completion,
        // without holding the port.
        while s.inflight.iter().filter(|&&(_, k)| k == class).count() >= cap {
            let (earliest, _) = s
                .inflight
                .iter()
                .copied()
                .find(|&(_, k)| k == class)
                .expect("count >= cap > 0 implies a class entry exists");
            start = start.max(earliest);
            s.inflight.retain(|&(c, _)| c > start);
            self.class_stalls[class as usize] += 1;
        }
        s.next_lookup = port_release + self.lookup;
        start
    }

    /// Records that the `class` transaction admitted to `slice` holds
    /// its entry until `completion`.
    ///
    /// # Panics
    ///
    /// Panics if `slice` is out of range.
    pub fn retire(&mut self, slice: usize, class: u16, completion: Time) {
        let s = &mut self.slices[slice];
        let pos = s.inflight.partition_point(|&(c, _)| c <= completion);
        s.inflight.insert(pos, (completion, class));
    }

    /// Admissions that found the whole table full, summed over slices.
    pub fn stalls(&self) -> u64 {
        self.slices.iter().map(|s| s.stalls).sum()
    }

    /// Admissions of `class` that stalled on the class quota.
    pub fn class_stalls(&self, class: u16) -> u64 {
        self.class_stalls[class as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> Duration {
        Duration::from_nanos(n)
    }

    /// A single-class table: the one class may fill every entry.
    fn single_class(slices: usize, entries: usize, lookup: Duration) -> SharedSliceTables {
        SharedSliceTables::new(slices, entries, lookup, vec![entries])
    }

    #[test]
    fn empty_table_admits_at_arrival() {
        let mut occ = single_class(4, 8, ns(5));
        assert_eq!(
            occ.admit(0, 0, Time::from_nanos(100)),
            Time::from_nanos(100)
        );
        assert_eq!(occ.stalls(), 0);
    }

    #[test]
    fn lookup_cadence_serializes_back_to_back_admissions() {
        let mut occ = single_class(1, 64, ns(5));
        assert_eq!(occ.admit(0, 0, Time::ZERO), Time::ZERO);
        // Same-cycle arrival waits for the lookup port.
        assert_eq!(occ.admit(0, 0, Time::ZERO), Time::from_nanos(5));
        assert_eq!(occ.admit(0, 0, Time::ZERO), Time::from_nanos(10));
    }

    #[test]
    fn full_table_stalls_until_earliest_retire() {
        let mut occ = single_class(1, 2, ns(0));
        let a = occ.admit(0, 0, Time::ZERO);
        occ.retire(0, 0, a + ns(100));
        let b = occ.admit(0, 0, Time::ZERO);
        occ.retire(0, 0, b + ns(300));
        // Both entries held; the third admission waits for the 100 ns
        // completion.
        let c = occ.admit(0, 0, Time::ZERO);
        assert_eq!(c, Time::from_nanos(100));
        assert_eq!(occ.stalls(), 1);
        assert_eq!(
            occ.class_stalls(0),
            0,
            "a table-full stall is not a quota stall"
        );
    }

    #[test]
    fn slices_are_independent() {
        let mut occ = single_class(2, 1, ns(0));
        let a = occ.admit(0, 0, Time::ZERO);
        occ.retire(0, 0, a + ns(500));
        // Slice 1's table is empty regardless of slice 0's occupancy.
        assert_eq!(occ.admit(1, 0, Time::ZERO), Time::ZERO);
        assert_eq!(occ.stalls(), 0);
    }

    #[test]
    fn matches_device_geometry() {
        let dev = CxlDevice::agilex7_with_slices(4);
        let occ = SharedSliceTables::for_device(&dev, vec![dev.timing.dcoh_slice_outstanding]);
        assert_eq!(occ.slices.len(), 4);
        assert_eq!(occ.entries, dev.timing.dcoh_slice_outstanding);
        assert_eq!(occ.lookup, dev.timing.dcoh_lookup);
        assert_eq!(occ.caps.len(), 1);
    }

    #[test]
    fn class_quota_stalls_only_the_offending_class() {
        // Class 0 may hold 1 of 8 entries; class 1 may hold 7.
        let mut shared = SharedSliceTables::new(1, 8, ns(0), vec![1, 7]);
        let a = shared.admit(0, 0, Time::ZERO);
        shared.retire(0, 0, a + ns(1000));
        // Class 0 is at quota: its next admission waits 1000 ns...
        let b = shared.admit(0, 0, Time::ZERO);
        assert_eq!(b, Time::from_nanos(1000));
        assert_eq!(shared.class_stalls(0), 1);
        shared.retire(0, 0, b + ns(1000));
        // ...but class 1 sails straight in: the table itself has room.
        assert_eq!(shared.admit(0, 1, Time::from_nanos(1)), Time::from_nanos(1));
        assert_eq!(shared.stalls(), 0);
        assert_eq!(shared.class_stalls(1), 0);
    }

    #[test]
    fn global_capacity_still_binds_before_quotas() {
        // Two classes, quotas 2 each, but only 2 entries in total.
        let mut shared = SharedSliceTables::new(1, 2, ns(0), vec![2, 2]);
        let a = shared.admit(0, 0, Time::ZERO);
        shared.retire(0, 0, a + ns(100));
        let b = shared.admit(0, 1, Time::ZERO);
        shared.retire(0, 1, b + ns(300));
        // Table full: class 1 (under its quota) still waits for the
        // table's earliest completion.
        let c = shared.admit(0, 1, Time::ZERO);
        assert_eq!(c, Time::from_nanos(100));
        assert_eq!(shared.stalls(), 1);
        assert_eq!(shared.caps.len(), 2);
    }
}
