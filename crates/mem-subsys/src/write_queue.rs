//! Memory-controller write-queue model.
//!
//! §V-A of the paper explains why 16 cache-line writes (1 KiB) show higher
//! bandwidth than reads: the host's 8 memory controllers each have a 32-entry
//! × 64 B write queue (16 KiB total), and a store is *complete* from the
//! issuer's perspective as soon as it enters the queue. Once the burst
//! exceeds queue capacity, write bandwidth collapses to DRAM drain rate.
//! [`WriteQueue`] reproduces exactly that admission/drain behaviour.

use std::collections::VecDeque;

use sim_core::time::{Duration, Time};

/// A bounded write queue that admits writes instantly while space remains
/// and otherwise stalls the producer until the head entry drains to DRAM.
///
/// # Examples
///
/// ```
/// use mem_subsys::write_queue::WriteQueue;
/// use sim_core::time::{Duration, Time};
///
/// let mut q = WriteQueue::new(2, Duration::from_nanos(10));
/// let t0 = Time::ZERO;
/// assert_eq!(q.push(t0), t0);            // space free: instant
/// assert_eq!(q.push(t0), t0);            // still space
/// let stall = q.push(t0);                // full: wait for head drain
/// assert_eq!(stall, t0 + Duration::from_nanos(10));
/// ```
#[derive(Debug, Clone)]
pub struct WriteQueue {
    capacity: usize,
    drain_per_entry: Duration,
    /// Drain-completion times of queued entries, oldest first.
    entries: VecDeque<Time>,
    /// When the drain engine last became free.
    drain_free_at: Time,
}

impl WriteQueue {
    /// Creates a queue of `capacity` entries that drains one entry every
    /// `drain_per_entry`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, drain_per_entry: Duration) -> Self {
        assert!(capacity > 0, "write queue capacity must be non-zero");
        WriteQueue {
            capacity,
            drain_per_entry,
            entries: VecDeque::with_capacity(capacity),
            drain_free_at: Time::ZERO,
        }
    }

    fn retire(&mut self, now: Time) {
        while let Some(&head) = self.entries.front() {
            if head <= now {
                self.entries.pop_front();
            } else {
                break;
            }
        }
    }

    /// Offers one entry at `now`; returns the time the write is accepted
    /// (= considered complete by the producer).
    pub fn push(&mut self, now: Time) -> Time {
        self.retire(now);
        let accepted = if self.entries.len() < self.capacity {
            now
        } else {
            // Wait until the head drains, freeing one slot.
            let head = *self.entries.front().expect("full queue has a head");
            self.retire(head);
            head
        };
        let drain_done = self.drain_free_at.max(accepted) + self.drain_per_entry;
        self.drain_free_at = drain_done;
        self.entries.push_back(drain_done);
        accepted
    }

    /// Time at which all currently queued entries will have drained.
    pub fn drained_at(&self) -> Time {
        self.entries.back().copied().unwrap_or(self.drain_free_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> Duration {
        Duration::from_nanos(n)
    }

    /// Entries still waiting to drain at `now`.
    fn occupancy(q: &mut WriteQueue, now: Time) -> usize {
        q.retire(now);
        q.entries.len()
    }

    #[test]
    fn admits_instantly_until_full() {
        let mut q = WriteQueue::new(4, ns(100));
        for _ in 0..4 {
            assert_eq!(q.push(Time::ZERO), Time::ZERO);
        }
        assert_eq!(occupancy(&mut q, Time::ZERO), 4);
    }

    #[test]
    fn stalls_at_drain_rate_once_full() {
        let mut q = WriteQueue::new(2, ns(10));
        q.push(Time::ZERO);
        q.push(Time::ZERO);
        // Head drains at 10ns, second at 20ns, so back-to-back pushes are
        // accepted at 10, 20, 30...
        assert_eq!(q.push(Time::ZERO), Time::from_nanos(10));
        assert_eq!(q.push(Time::from_nanos(10)), Time::from_nanos(20));
        assert_eq!(q.push(Time::from_nanos(20)), Time::from_nanos(30));
    }

    #[test]
    fn drains_over_time() {
        let mut q = WriteQueue::new(8, ns(5));
        for _ in 0..8 {
            q.push(Time::ZERO);
        }
        assert_eq!(occupancy(&mut q, Time::from_nanos(12)), 6); // 2 drained at 5,10
        assert_eq!(occupancy(&mut q, Time::from_nanos(40)), 0);
        assert_eq!(q.drained_at(), Time::from_nanos(40));
    }

    #[test]
    fn burst_throughput_collapses_past_capacity() {
        // Reproduce the Fig. 3 mechanism: first `cap` writes complete at
        // time zero; the rest complete at drain cadence.
        let cap = 32;
        let mut q = WriteQueue::new(cap, ns(2));
        let mut last = Time::ZERO;
        for i in 0..cap {
            last = q.push(Time::ZERO);
            assert_eq!(last, Time::ZERO, "write {i} should be absorbed");
        }
        let t33 = q.push(last);
        assert!(t33 > Time::ZERO, "write past capacity stalls");
    }

    #[test]
    fn empty_queue_after_idle_accepts_instantly() {
        let mut q = WriteQueue::new(1, ns(10));
        q.push(Time::ZERO);
        let later = Time::from_nanos(100);
        assert_eq!(q.push(later), later);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        let _ = WriteQueue::new(0, ns(1));
    }
}
