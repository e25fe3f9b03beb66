//! Differential tests for the calendar-queue `EventQueue`.
//!
//! The queue's hot path (bucket binning, drain-bucket sorting, lazy
//! overflow migration, batch scheduling, allocation-retaining reset) is
//! an optimisation over a trivially correct structure: a sorted list
//! delivering the minimum `(time, insertion-seq)` first. These tests
//! record randomized op traces — schedule / schedule_batch / pop /
//! drain_until / reset, with time offsets spanning in-window, dense
//! same-bucket, and far-overflow regimes — and replay each trace against
//! both implementations, asserting the *entire* observable stream
//! (delivered pairs, `now`, `len`, emptiness) matches pop for pop.
//!
//! The `#[ignore]`d cases are the heavy sweeps (hundreds of traces,
//! hundreds of thousands of events); CI runs them in release mode in the
//! `checks` job (`cargo test --release -- --ignored`).

use sim_core::event::EventQueue;
use sim_core::rng::SimRng;
use sim_core::time::{Duration, Time};

/// One recorded operation of a queue usage trace. Offsets are relative
/// to the queue's clock at replay time, which keeps recorded traces
/// valid (never scheduling into the past) across both implementations.
#[derive(Debug, Clone)]
enum Op {
    /// `schedule(now + dt)`.
    Schedule { dt: u64 },
    /// `schedule_batch` of `now + dt` for each offset, in order.
    Batch { dts: Vec<u64> },
    /// One `pop`.
    Pop,
    /// `drain_until(now + dt)`.
    DrainUntil { dt: u64 },
    /// `reset` — rewind to an empty queue at time zero.
    Reset,
}

/// The trivially correct model: an unordered list popped by minimum
/// `(time, seq)`, with the same insertion-sequence FIFO tiebreak the
/// calendar queue guarantees.
#[derive(Debug, Default)]
struct ReferenceQueue {
    pending: Vec<(Time, u64)>,
    next_seq: u64,
    now: Time,
}

impl ReferenceQueue {
    fn schedule(&mut self, at: Time) -> u64 {
        let id = self.next_seq;
        self.next_seq += 1;
        self.pending.push((at, id));
        id
    }

    fn pop(&mut self) -> Option<(Time, u64)> {
        let min = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|&(_, &(at, id))| (at, id))
            .map(|(i, _)| i)?;
        let (at, id) = self.pending.remove(min);
        self.now = at;
        Some((at, id))
    }

    fn drain_until(&mut self, until: Time) -> Vec<(Time, u64)> {
        let mut out = Vec::new();
        while self
            .pending
            .iter()
            .map(|&(at, _)| at)
            .min()
            .is_some_and(|t| t <= until)
        {
            out.push(self.pop().expect("a due event exists"));
        }
        out
    }

    fn reset(&mut self) {
        self.pending.clear();
        self.next_seq = 0;
        self.now = Time::ZERO;
    }
}

/// Records one op trace. `spread` controls how far offsets reach: small
/// spreads stress dense same-bucket traffic, large spreads stress the
/// overflow heap and window advancement.
fn record_trace(rng: &mut SimRng, ops: usize, spread: u64, with_reset: bool) -> Vec<Op> {
    (0..ops)
        .map(|_| match rng.gen_range(if with_reset { 20 } else { 19 }) {
            0..=6 => Op::Schedule {
                dt: rng.gen_range(spread),
            },
            7..=10 => {
                let n = 1 + rng.gen_range(48) as usize;
                Op::Batch {
                    dts: (0..n).map(|_| rng.gen_range(spread)).collect(),
                }
            }
            11..=16 => Op::Pop,
            17 | 18 => Op::DrainUntil {
                dt: rng.gen_range(spread / 2 + 1),
            },
            _ => Op::Reset,
        })
        .collect()
}

/// Replays one trace through both implementations, comparing every
/// observable after every op. Payloads are insertion sequence numbers,
/// so `(time, payload)` equality pins the FIFO tiebreak exactly.
fn replay_differential(trace: &[Op]) {
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut reference = ReferenceQueue::default();
    let mut scheduled = 0u64;
    for (step, op) in trace.iter().enumerate() {
        match op {
            Op::Schedule { dt } => {
                let at = queue.now() + Duration::from_picos(*dt);
                let id = reference.schedule(at);
                queue.schedule(at, id);
                scheduled += 1;
            }
            Op::Batch { dts } => {
                let now = queue.now();
                let pairs: Vec<(Time, u64)> = dts
                    .iter()
                    .map(|&dt| {
                        let at = now + Duration::from_picos(dt);
                        (at, reference.schedule(at))
                    })
                    .collect();
                scheduled += pairs.len() as u64;
                queue.schedule_batch(pairs);
            }
            Op::Pop => {
                assert_eq!(queue.pop(), reference.pop(), "pop diverged at op {step}");
            }
            Op::DrainUntil { dt } => {
                let until = queue.now() + Duration::from_picos(*dt);
                assert_eq!(
                    queue.drain_until(until),
                    reference.drain_until(until),
                    "drain_until diverged at op {step}"
                );
            }
            Op::Reset => {
                queue.reset();
                reference.reset();
            }
        }
        assert_eq!(queue.len(), reference.pending.len(), "len at op {step}");
        assert_eq!(queue.is_empty(), reference.pending.is_empty());
        assert_eq!(queue.now(), reference.now, "clock at op {step}");
        assert_eq!(queue.peek_time(), {
            reference.pending.iter().map(|&(at, _)| at).min()
        });
    }
    // Final drain: the full remaining streams must agree.
    while let Some(got) = queue.pop() {
        assert_eq!(Some(got), reference.pop(), "final drain diverged");
    }
    assert!(reference.pop().is_none());
    assert!(scheduled > 0, "trace exercised nothing");
}

/// In-window offsets only (≪ one 2.1 µs window): dense buckets, the
/// sorted drain-bucket insert path, no overflow traffic.
#[test]
fn differential_dense_in_window_traces() {
    let mut rng = SimRng::seed_from(0x5eed_0001);
    for _ in 0..12 {
        let trace = record_trace(&mut rng, 300, 60_000, false);
        replay_differential(&trace);
    }
}

/// Offsets spanning many windows: overflow scheduling, lazy migration on
/// window advance, and batch inserts straddling the boundary.
#[test]
fn differential_overflow_heavy_traces() {
    let mut rng = SimRng::seed_from(0x5eed_0002);
    for _ in 0..12 {
        // ~8 windows of reach: most events land in the overflow heap.
        let trace = record_trace(&mut rng, 300, 8 * 256 * 8192, false);
        replay_differential(&trace);
    }
}

/// Reset interleaved with everything else: an allocation-retaining reset
/// must be indistinguishable from a fresh queue.
#[test]
fn differential_traces_with_reset() {
    let mut rng = SimRng::seed_from(0x5eed_0003);
    for _ in 0..12 {
        let trace = record_trace(&mut rng, 400, 2 * 256 * 8192, true);
        replay_differential(&trace);
    }
}

/// Degenerate timestamps: everything lands in a handful of picosecond
/// slots, so delivery order is decided almost entirely by the FIFO
/// sequence tiebreak.
#[test]
fn differential_tiebreak_saturated_traces() {
    let mut rng = SimRng::seed_from(0x5eed_0004);
    for _ in 0..12 {
        let trace = record_trace(&mut rng, 300, 3, false);
        replay_differential(&trace);
    }
}

/// The heavy sweep: hundreds of recorded traces across the full spread
/// ladder. Quadratic reference pops make this debug-slow, so it is
/// `#[ignore]`d here and run in release mode by CI's `checks` job.
#[test]
#[ignore = "heavy differential sweep; CI runs it via cargo test --release -- --ignored"]
fn differential_full_spread_ladder() {
    let mut rng = SimRng::seed_from(0x5eed_0005);
    for spread in [1, 7, 500, 8_192, 70_000, 256 * 8192, 20 * 256 * 8192] {
        for _ in 0..40 {
            let trace = record_trace(&mut rng, 600, spread, true);
            replay_differential(&trace);
        }
    }
}
