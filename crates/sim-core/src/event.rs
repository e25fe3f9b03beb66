//! A minimal discrete-event simulation core.
//!
//! [`EventQueue`] delivers typed events in timestamp order with a stable
//! FIFO tiebreak for simultaneous events, which keeps multi-actor
//! simulations (Redis servers, clients, kswapd, the antagonist) fully
//! deterministic.
//!
//! # Implementation
//!
//! The queue is a two-level *calendar queue* keyed on picosecond time
//! rather than a binary heap. Near-future events — within a fixed window
//! of [`BUCKET_COUNT`] buckets of [`BUCKET_WIDTH_PS`] picoseconds each —
//! live in per-bucket vectors indexed by `(t / width) % BUCKET_COUNT`;
//! far-future events fall back to a sorted overflow heap and migrate into
//! buckets lazily as the window slides forward with simulation time.
//! Scheduling into the window is O(1) (a push), and the bucket currently
//! being drained is sorted once, on first pop, into descending
//! `(timestamp, sequence)` order so subsequent pops are O(1) `Vec::pop`
//! calls from the back — even a pathologically dense bucket costs
//! O(k log k) total rather than O(k²) of repeated min-scans. The exact
//! `(timestamp, sequence)` delivery order of the old heap is preserved:
//! pops take the minimum by that key, and overflow events always lie
//! beyond every in-window event.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Time;

/// Width of one calendar bucket in picoseconds (8.192 ns; a power of two
/// so the slot computation is a shift).
const BUCKET_WIDTH_PS: u64 = 8192;
/// log2 of [`BUCKET_WIDTH_PS`].
const BUCKET_SHIFT: u32 = BUCKET_WIDTH_PS.trailing_zeros();
/// Buckets in the near-future window (~2.1 µs of simulated time).
const BUCKET_COUNT: u64 = 256;

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

/// The absolute (non-wrapped) bucket index of an instant.
fn abs_bucket(t: Time) -> u64 {
    t.as_picos() >> BUCKET_SHIFT
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
    /// Near-future events, bucketed by `abs_bucket % BUCKET_COUNT`.
    buckets: Vec<Vec<Scheduled<E>>>,
    /// Absolute bucket index where the near-future window starts. Every
    /// bucketed event satisfies
    /// `window_start <= abs_bucket < window_start + BUCKET_COUNT`.
    window_start: u64,
    /// Events currently held in `buckets`.
    in_window: usize,
    /// Events at or beyond the window end, ordered earliest-first.
    overflow: BinaryHeap<Scheduled<E>>,
    /// Absolute index of the bucket currently kept sorted in descending
    /// `(at, seq)` order (the one being drained), if any. Pops from it
    /// are O(1) `Vec::pop` calls; schedules into it insert in place.
    sorted_bucket: Option<u64>,
    next_seq: u64,
    now: Time,
}

/// Descending `(at, seq)` comparator: the delivery-order minimum sorts
/// to the *back*, where `Vec::pop` removes it for free.
fn descending<E>(a: &Scheduled<E>, b: &Scheduled<E>) -> Ordering {
    (b.at, b.seq).cmp(&(a.at, a.seq))
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..BUCKET_COUNT).map(|_| Vec::new()).collect(),
            window_start: 0,
            in_window: 0,
            overflow: BinaryHeap::new(),
            sorted_bucket: None,
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
    /// invariant is checked with a `debug_assert!` so the dense
    /// schedule/pop hot path pays nothing for it in release builds while
    /// every debug test run still enforces it.
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
        let s = Scheduled {
            at,
            seq: self.next_seq,
            event,
        };
        self.next_seq += 1;
        // `max` keeps release builds memory-safe even if the debug-only
        // causality assert above was violated.
        let ab = abs_bucket(at).max(self.window_start);
        if ab < self.window_start + BUCKET_COUNT {
            let bucket = &mut self.buckets[(ab % BUCKET_COUNT) as usize];
            if self.sorted_bucket == Some(ab) {
                // Keep the drain bucket's descending order intact.
                let pos = bucket.partition_point(|e| descending(e, &s) == Ordering::Less);
                bucket.insert(pos, s);
            } else {
                bucket.push(s);
            }
            self.in_window += 1;
        } else {
            self.overflow.push(s);
        }
    }

    /// Schedules a whole batch of `(time, event)` pairs, binning them
    /// into calendar buckets in one pass.
    ///
    /// Observationally identical to calling [`EventQueue::schedule`] once
    /// per pair in slice order (sequence numbers are assigned in that
    /// order, so FIFO tiebreaks match exactly — a property pinned by the
    /// batch-vs-single equivalence tests), but the window bounds and
    /// drain-bucket check are hoisted out of the loop, so dense fan-outs
    /// (write-drain scheduling, arrival pre-fill) pay one bounds
    /// computation per batch instead of one per event.
    ///
    /// # Panics
    ///
    /// Panics in builds with debug assertions if any pair's time is
    /// before the current simulation time.
    pub fn schedule_batch(&mut self, events: impl IntoIterator<Item = (Time, E)>) {
        let window_end = self.window_start + BUCKET_COUNT;
        for (at, event) in events {
            debug_assert!(
                at >= self.now,
                "cannot schedule event in the past ({at} < {})",
                self.now
            );
            let s = Scheduled {
                at,
                seq: self.next_seq,
                event,
            };
            self.next_seq += 1;
            let ab = abs_bucket(at).max(self.window_start);
            if ab < window_end {
                let bucket = &mut self.buckets[(ab % BUCKET_COUNT) as usize];
                if self.sorted_bucket == Some(ab) {
                    let pos = bucket.partition_point(|e| descending(e, &s) == Ordering::Less);
                    bucket.insert(pos, s);
                } else {
                    bucket.push(s);
                }
                self.in_window += 1;
            } else {
                self.overflow.push(s);
            }
        }
    }

    /// Empties the queue and rewinds it to time zero while *keeping* its
    /// allocations: every calendar bucket retains its grown capacity and
    /// the overflow heap keeps its backing storage. A driver that builds
    /// one simulation per sweep point can hold a single queue and
    /// `reset` it between points instead of re-growing 256 bucket
    /// vectors from nothing each time — the arena discipline the
    /// port engine relies on (see `sim_core::port`).
    pub fn reset(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.overflow.clear();
        self.window_start = 0;
        self.in_window = 0;
        self.sorted_bucket = None;
        self.next_seq = 0;
        self.now = Time::ZERO;
    }

    /// Slides the window start forward to absolute bucket `to`, pulling
    /// overflow events that now fit into their buckets. Callers must
    /// guarantee no bucketed event lives before bucket `to`.
    fn advance_window(&mut self, to: u64) {
        if to <= self.window_start {
            return;
        }
        self.window_start = to;
        // A drain bucket that slid out of the window is stale: its slot
        // now aliases a different absolute bucket. One still in-window
        // keeps its mark — migrated events land in other slots (their
        // absolute indices differ within one window span).
        if self.sorted_bucket.is_some_and(|ab| ab < to) {
            self.sorted_bucket = None;
        }
        let end = to + BUCKET_COUNT;
        while self.overflow.peek().is_some_and(|s| abs_bucket(s.at) < end) {
            let s = self.overflow.pop().expect("peeked overflow event exists");
            self.buckets[(abs_bucket(s.at) % BUCKET_COUNT) as usize].push(s);
            self.in_window += 1;
        }
    }

    /// Removes the earliest `(at, seq)` event without touching `now`.
    fn take_earliest(&mut self) -> Option<Scheduled<E>> {
        if self.in_window == 0 {
            let s = self.overflow.pop()?;
            // Nothing was in the window, so it can jump straight to the
            // popped event's bucket; trailing overflow events migrate in.
            self.advance_window(abs_bucket(s.at));
            return Some(s);
        }
        // The first non-empty bucket holds the global minimum: bucket
        // index is monotone in time and overflow lies beyond the window.
        let mut ab = self.window_start;
        let slot = loop {
            let slot = (ab % BUCKET_COUNT) as usize;
            if !self.buckets[slot].is_empty() {
                break slot;
            }
            ab += 1;
        };
        let bucket = &mut self.buckets[slot];
        if self.sorted_bucket != Some(ab) {
            // First pop from this bucket: one descending sort makes every
            // following pop (and peek) an O(1) look at the back.
            bucket.sort_unstable_by(descending);
            self.sorted_bucket = Some(ab);
        }
        let s = bucket.pop().expect("bucket is non-empty");
        self.in_window -= 1;
        Some(s)
    }

    /// Removes and returns the earliest event, advancing simulation time.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let s = self.take_earliest()?;
        debug_assert!(s.at >= self.now);
        self.now = s.at;
        // All remaining events are at or after `now`, so the window can
        // follow it; this keeps newly scheduled near-future events in
        // buckets instead of churning through the overflow heap.
        self.advance_window(abs_bucket(s.at));
        Some((s.at, s.event))
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        if self.in_window > 0 {
            let mut ab = self.window_start;
            loop {
                let slot = (ab % BUCKET_COUNT) as usize;
                if !self.buckets[slot].is_empty() {
                    let t = if self.sorted_bucket == Some(ab) {
                        self.buckets[slot].last().expect("non-empty").at
                    } else {
                        self.buckets[slot]
                            .iter()
                            .map(|s| s.at)
                            .min()
                            .expect("non-empty")
                    };
                    return Some(t);
                }
                ab += 1;
            }
        }
        self.overflow.peek().map(|s| s.at)
    }

    /// Removes and returns every event scheduled at or before `until`, in
    /// delivery order (timestamp order, FIFO at equal timestamps), leaving
    /// simulation time at the last delivered event (or unchanged if none
    /// qualified). Later events stay queued.
    ///
    /// This is the batch-stepping primitive of the port engine: a caller
    /// advancing to time `t` collects exactly the completions that are due.
    /// Steady-state callers should prefer [`EventQueue::drain_until_into`],
    /// which reuses one buffer across steps instead of allocating a fresh
    /// `Vec` per call.
    pub fn drain_until(&mut self, until: Time) -> Vec<(Time, E)> {
        let mut out = Vec::new();
        self.drain_until_into(until, &mut out);
        out
    }

    /// [`EventQueue::drain_until`] into a caller-provided buffer: `out` is
    /// cleared and then filled with the due events in delivery order, so a
    /// driver loop can reuse one allocation for every step.
    pub fn drain_until_into(&mut self, until: Time, out: &mut Vec<(Time, E)>) {
        out.clear();
        while self.peek_time().is_some_and(|t| t <= until) {
            out.push(self.pop().expect("peeked event exists"));
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.in_window + self.overflow.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(Time::from_nanos(4), 'a');
        q.schedule(Time::from_nanos(2), 'b');
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Time::from_nanos(2)));
    }

    #[test]
    fn drain_until_returns_due_events_in_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_nanos(30), 'd');
        q.schedule(Time::from_nanos(10), 'a');
        q.schedule(Time::from_nanos(20), 'b');
        q.schedule(Time::from_nanos(20), 'c');
        let due = q.drain_until(Time::from_nanos(20));
        assert_eq!(
            due,
            vec![
                (Time::from_nanos(10), 'a'),
                (Time::from_nanos(20), 'b'),
                (Time::from_nanos(20), 'c'),
            ]
        );
        assert_eq!(q.now(), Time::from_nanos(20));
        assert_eq!(q.len(), 1, "later event stays queued");
        assert_eq!(q.peek_time(), Some(Time::from_nanos(30)));
    }

    #[test]
    fn drain_until_is_fifo_at_equal_timestamps() {
        let mut q = EventQueue::new();
        let t = Time::from_nanos(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let due: Vec<i32> = q.drain_until(t).into_iter().map(|(_, e)| e).collect();
        assert_eq!(due, (0..10).collect::<Vec<_>>(), "tiebreak is FIFO");
        assert!(q.is_empty());
    }

    #[test]
    fn drain_until_before_first_event_is_empty() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_nanos(50), ());
        assert!(q.drain_until(Time::from_nanos(49)).is_empty());
        assert_eq!(q.now(), Time::ZERO, "time unchanged when nothing is due");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn drain_until_into_reuses_and_clears_the_buffer() {
        let mut q = EventQueue::new();
        let mut buf = vec![(Time::ZERO, 'x')]; // stale contents must go
        q.schedule(Time::from_nanos(10), 'a');
        q.schedule(Time::from_nanos(30), 'b');
        q.drain_until_into(Time::from_nanos(20), &mut buf);
        assert_eq!(buf, vec![(Time::from_nanos(10), 'a')]);
        q.drain_until_into(Time::from_nanos(40), &mut buf);
        assert_eq!(buf, vec![(Time::from_nanos(30), 'b')]);
    }

    #[test]
    fn far_future_events_overflow_and_come_back_ordered() {
        // Events beyond the bucket window land in the overflow heap and
        // must still deliver in exact (time, seq) order.
        let window = Duration::from_picos(BUCKET_WIDTH_PS * BUCKET_COUNT);
        let mut q = EventQueue::new();
        q.schedule(Time::ZERO + window * 4, 'd');
        q.schedule(Time::from_nanos(1), 'a');
        q.schedule(Time::ZERO + window * 2, 'c');
        q.schedule(Time::from_nanos(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn window_slides_and_overflow_ties_stay_fifo() {
        let window = Duration::from_picos(BUCKET_WIDTH_PS * BUCKET_COUNT);
        let far = Time::ZERO + window * 3;
        let mut q = EventQueue::new();
        for i in 0..8 {
            q.schedule(far, i); // all overflow, same timestamp
        }
        q.schedule(Time::from_nanos(1), -1);
        assert_eq!(q.pop(), Some((Time::from_nanos(1), -1)));
        // After the near event, the far batch migrates in; FIFO holds.
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_near_and_far_scheduling_keeps_global_order() {
        // Schedule relative to `now` with gaps straddling the window edge
        // so events bounce between buckets and overflow as time advances.
        let mut rng = SimRng::seed_from(23);
        let mut q = EventQueue::new();
        let mut last = Time::ZERO;
        let mut pending = 0u32;
        let spread = BUCKET_WIDTH_PS * BUCKET_COUNT * 3;
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
    fn dense_bucket_with_mid_drain_inserts_stays_ordered() {
        // Pack one bucket, drain half (triggering the one-time sort),
        // then schedule more events into the same bucket mid-drain: the
        // sorted-insert path must keep exact (time, seq) order.
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
    fn schedule_batch_matches_single_inserts_exactly() {
        // Same pairs, batched vs one-at-a-time: identical delivery stream
        // (times, payloads, FIFO tiebreaks) — including overflow events
        // beyond the window and inserts into the sorted drain bucket.
        let spread = BUCKET_WIDTH_PS * BUCKET_COUNT * 2;
        let mut rng = SimRng::seed_from(41);
        let pairs: Vec<(Time, u32)> = (0..700u32)
            .map(|i| (Time::from_picos(1 + rng.gen_range(spread)), i))
            .collect();
        let mut single = EventQueue::new();
        let mut batched = EventQueue::new();
        for &(at, e) in &pairs {
            single.schedule(at, e);
        }
        batched.schedule_batch(pairs.iter().copied());
        // Drain half, then batch more into both mid-drain (sorted-bucket
        // insert path), then compare the full streams.
        let mut got_s = Vec::new();
        let mut got_b = Vec::new();
        for _ in 0..350 {
            got_s.push(single.pop().unwrap());
            got_b.push(batched.pop().unwrap());
        }
        let more: Vec<(Time, u32)> = (0..90u32)
            .map(|i| {
                (
                    single.now() + Duration::from_picos(1 + u64::from(i) % 611),
                    1000 + i,
                )
            })
            .collect();
        for &(at, e) in &more {
            single.schedule(at, e);
        }
        batched.schedule_batch(more.iter().copied());
        while let Some(p) = single.pop() {
            got_s.push(p);
            got_b.push(batched.pop().unwrap());
        }
        assert!(batched.pop().is_none());
        assert_eq!(got_s, got_b);
    }

    #[test]
    fn reset_rewinds_but_queue_still_orders_correctly() {
        let mut q = EventQueue::new();
        let window = Duration::from_picos(BUCKET_WIDTH_PS * BUCKET_COUNT);
        q.schedule(Time::from_nanos(5), 'x');
        q.schedule(Time::ZERO + window * 3, 'y'); // overflow
        q.pop();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), Time::ZERO);
        assert_eq!(q.peek_time(), None);
        // Post-reset behaviour is indistinguishable from a fresh queue.
        q.schedule(Time::from_nanos(20), 'b');
        q.schedule(Time::from_nanos(10), 'a');
        q.schedule(Time::ZERO + window * 2, 'c');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn matches_reference_heap_on_random_workload() {
        // Differential test: the calendar queue must deliver the exact
        // (time, seq) stream a plain sorted reference produces.
        let mut rng = SimRng::seed_from(97);
        let mut q = EventQueue::new();
        let mut reference: Vec<(Time, u32)> = Vec::new();
        let mut id = 0u32;
        let spread = BUCKET_WIDTH_PS * BUCKET_COUNT * 2;
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
