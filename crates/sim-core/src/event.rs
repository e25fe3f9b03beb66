//! A minimal discrete-event simulation core.
//!
//! [`EventQueue`] delivers typed events in timestamp order with a stable
//! FIFO tiebreak for simultaneous events, which keeps multi-actor
//! simulations (Redis servers, clients, kswapd, the antagonist) fully
//! deterministic.
//!
//! # Implementation
//!
//! The queue is a binary min-heap keyed on `(timestamp, sequence)`: the
//! sequence number is the order in which events were scheduled, so two
//! events at the same picosecond deliver first-scheduled first. Its only
//! users are the [`PortEngine`](crate::port::PortEngine)s, which hold a
//! few dozen events at a time (one issue per port plus the in-flight
//! completions), so an `O(log n)` push and pop is all the structure the
//! simulation needs.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Time;

/// An event scheduled for delivery at a given simulated time.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want earliest first;
        // seq breaks ties FIFO.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A timestamp-ordered event queue driving a simulation.
///
/// # Examples
///
/// ```
/// use sim_core::event::EventQueue;
/// use sim_core::time::{Duration, Time};
///
/// let mut q = EventQueue::new();
/// q.schedule(Time::from_nanos(20), "late");
/// q.schedule(Time::from_nanos(10), "early");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (Time::from_nanos(10), "early"));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: Time,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Time::ZERO,
        }
    }

    /// The time of the most recently popped event (simulation "now").
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `event` for delivery at absolute time `at`.
    ///
    /// `at` must not be before [`EventQueue::now`]: delivering into the
    /// past would break causality, and a time-travelling completion
    /// silently corrupts downstream busy-interval accounting (channel
    /// utilization, port windows) instead of failing loudly. The
    /// invariant is checked with a `debug_assert!` so the schedule/pop
    /// hot path pays nothing for it in release builds while every debug
    /// test run still enforces it.
    ///
    /// # Panics
    ///
    /// Panics in builds with debug assertions if `at` is before the
    /// current simulation time.
    pub fn schedule(&mut self, at: Time, event: E) {
        debug_assert!(
            at >= self.now,
            "cannot schedule event in the past ({at} < {})",
            self.now
        );
        self.heap.push(Scheduled {
            at,
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
    }

    /// Empties the queue and rewinds it to time zero while *keeping* the
    /// heap's backing storage, so a driver that runs one simulation per
    /// sweep point can hold a single queue and `reset` it between points
    /// instead of re-growing it each time (see `sim_core::port`).
    pub fn reset(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
        self.now = Time::ZERO;
    }

    /// Removes and returns the earliest event, advancing simulation time.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.at >= self.now);
        self.now = s.at;
        Some((s.at, s.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::Duration;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_nanos(30), 3);
        q.schedule(Time::from_nanos(10), 1);
        q.schedule(Time::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_nanos(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_nanos(7), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::from_nanos(7));
    }

    // The causality check is a `debug_assert!`, compiled out in release,
    // so the test exists only where the check does.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_nanos(10), ());
        q.pop();
        q.schedule(Time::from_nanos(5), ());
    }

    #[test]
    fn far_future_events_come_back_ordered() {
        // Events microseconds apart, scheduled out of order, must still
        // deliver in exact (time, seq) order.
        let window = Duration::from_picos(2_097_152);
        let mut q = EventQueue::new();
        q.schedule(Time::ZERO + window * 4, 'd');
        q.schedule(Time::from_nanos(1), 'a');
        q.schedule(Time::ZERO + window * 2, 'c');
        q.schedule(Time::from_nanos(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn far_future_ties_stay_fifo() {
        let window = Duration::from_picos(2_097_152);
        let far = Time::ZERO + window * 3;
        let mut q = EventQueue::new();
        for i in 0..8 {
            q.schedule(far, i); // same timestamp
        }
        q.schedule(Time::from_nanos(1), -1);
        assert_eq!(q.pop(), Some((Time::from_nanos(1), -1)));
        // After the near event, the far batch delivers in FIFO order.
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_near_and_far_scheduling_keeps_global_order() {
        // Schedule relative to `now` with gaps of up to three 2.1 µs
        // spans, so near and far events interleave as time advances.
        let mut rng = SimRng::seed_from(23);
        let mut q = EventQueue::new();
        let mut last = Time::ZERO;
        let mut pending = 0u32;
        let spread = 2_097_152 * 3;
        for _ in 0..4000 {
            if pending == 0 || rng.gen_bool(0.55) {
                let at = q.now() + Duration::from_picos(rng.gen_range(spread));
                q.schedule(at, ());
                pending += 1;
            } else {
                let (t, ()) = q.pop().unwrap();
                assert!(t >= last);
                last = t;
                pending -= 1;
            }
        }
    }

    #[test]
    fn random_interleaving_is_globally_sorted() {
        let mut rng = SimRng::seed_from(11);
        let mut q = EventQueue::new();
        // Interleave scheduling and popping; popped times must never
        // decrease.
        let mut last = Time::ZERO;
        let mut pending = 0u32;
        for _ in 0..2000 {
            if pending == 0 || rng.gen_bool(0.6) {
                let at = q.now() + Duration::from_picos(rng.gen_range(1_000_000));
                q.schedule(at, ());
                pending += 1;
            } else {
                let (t, ()) = q.pop().unwrap();
                assert!(t >= last);
                last = t;
                pending -= 1;
            }
        }
    }

    #[test]
    fn dense_schedule_with_mid_drain_inserts_stays_ordered() {
        // Pack 500 events into 8 ns, drain half, then schedule more into
        // the same span mid-drain: exact (time, seq) order must hold.
        let mut q = EventQueue::new();
        for i in 0..500u32 {
            q.schedule(Time::from_picos(1 + u64::from(i * 16) % 8000), i);
        }
        let mut got = Vec::new();
        for _ in 0..250 {
            got.push(q.pop().unwrap());
        }
        for i in 500..600u32 {
            let at = q.now() + Duration::from_picos(u64::from(i) % 97);
            q.schedule(at, i);
        }
        while let Some(p) = q.pop() {
            got.push(p);
        }
        assert_eq!(got.len(), 600);
        for w in got.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order: {:?} then {:?}", w[0], w[1]);
            if w[0].0 == w[1].0 && w[0].1 < 500 && w[1].1 < 500 {
                assert!(w[0].1 < w[1].1, "FIFO at {:?}", w[0].0);
            }
        }
    }

    #[test]
    fn reset_rewinds_but_queue_still_orders_correctly() {
        let mut q = EventQueue::new();
        let window = Duration::from_picos(2_097_152);
        q.schedule(Time::from_nanos(5), 'x');
        q.schedule(Time::ZERO + window * 3, 'y');
        q.pop();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), Time::ZERO);
        // Post-reset behaviour is indistinguishable from a fresh queue.
        q.schedule(Time::from_nanos(20), 'b');
        q.schedule(Time::from_nanos(10), 'a');
        q.schedule(Time::ZERO + window * 2, 'c');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn matches_reference_heap_on_random_workload() {
        // Differential test: the queue must deliver the exact
        // (time, seq) stream a plain sorted reference produces.
        let mut rng = SimRng::seed_from(97);
        let mut q = EventQueue::new();
        let mut reference: Vec<(Time, u32)> = Vec::new();
        let mut id = 0u32;
        let spread = 2_097_152 * 2;
        for _ in 0..3000 {
            if reference.is_empty() || rng.gen_bool(0.6) {
                let at = q.now() + Duration::from_picos(rng.gen_range(spread));
                q.schedule(at, id);
                reference.push((at, id));
                id += 1;
            } else {
                // Reference order: min by (time, insertion id).
                let (i, _) = reference
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (t, id))| (*t, *id))
                    .unwrap();
                let expect = reference.remove(i);
                let got = q.pop().unwrap();
                assert_eq!((got.0, got.1), expect);
            }
        }
        while let Some((t, e)) = q.pop() {
            let (i, _) = reference
                .iter()
                .enumerate()
                .min_by_key(|(_, (t, id))| (*t, *id))
                .unwrap();
            assert_eq!((t, e), reference.remove(i));
        }
        assert!(reference.is_empty());
    }
}
