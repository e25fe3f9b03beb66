//! Differential tests for `EventQueue`.
//!
//! The queue (a binary heap with a sequence-number tiebreak and an
//! allocation-retaining reset) must behave exactly like a trivially
//! correct structure: a list delivering the minimum `(time,
//! insertion-seq)` first. These tests record randomized op traces —
//! schedule / pop / reset, with time offsets from a few picoseconds
//! (ties everywhere) to tens of microseconds — and replay each trace
//! against both implementations, asserting the *entire* observable
//! stream (delivered pairs, `now`, `len`, emptiness) matches pop for pop.
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
    /// `schedule(now + dt)` for each offset, in order, with no pop in
    /// between.
    Burst { dts: Vec<u64> },
    /// One `pop`.
    Pop,
    /// `reset` — rewind to an empty queue at time zero.
    Reset,
}

/// The trivially correct model: an unordered list popped by minimum
/// `(time, seq)`, with the same insertion-sequence FIFO tiebreak the
/// queue guarantees.
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

    fn reset(&mut self) {
        self.pending.clear();
        self.next_seq = 0;
        self.now = Time::ZERO;
    }
}

/// Records one op trace. `spread` controls how far offsets reach: small
/// spreads pile many events onto the same few timestamps, large spreads
/// make pops advance time in long jumps.
fn record_trace(rng: &mut SimRng, ops: usize, spread: u64, with_reset: bool) -> Vec<Op> {
    (0..ops)
        .map(|_| match rng.gen_range(if with_reset { 20 } else { 19 }) {
            0..=6 => Op::Schedule {
                dt: rng.gen_range(spread),
            },
            7..=10 => {
                let n = 1 + rng.gen_range(48) as usize;
                Op::Burst {
                    dts: (0..n).map(|_| rng.gen_range(spread)).collect(),
                }
            }
            11..=18 => Op::Pop,
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
            Op::Burst { dts } => {
                let now = queue.now();
                for &dt in dts {
                    let at = now + Duration::from_picos(dt);
                    queue.schedule(at, reference.schedule(at));
                }
                scheduled += dts.len() as u64;
            }
            Op::Pop => {
                assert_eq!(queue.pop(), reference.pop(), "pop diverged at op {step}");
            }
            Op::Reset => {
                queue.reset();
                reference.reset();
            }
        }
        assert_eq!(queue.len(), reference.pending.len(), "len at op {step}");
        assert_eq!(queue.is_empty(), reference.pending.is_empty());
        assert_eq!(queue.now(), reference.now, "clock at op {step}");
    }
    // Final drain: the full remaining streams must agree.
    while let Some(got) = queue.pop() {
        assert_eq!(Some(got), reference.pop(), "final drain diverged");
    }
    assert!(reference.pop().is_none());
    assert!(scheduled > 0, "trace exercised nothing");
}

/// Offsets within a 60 ns window: dense traffic, where new events keep
/// landing among (and before) the ones already pending.
#[test]
fn differential_dense_in_window_traces() {
    let mut rng = SimRng::seed_from(0x5eed_0001);
    for _ in 0..12 {
        let trace = record_trace(&mut rng, 300, 60_000, false);
        replay_differential(&trace);
    }
}

/// Offsets reaching ~17 µs, far past most pending events: schedules land
/// behind long tails of queued work and pops jump time forward.
#[test]
fn differential_overflow_heavy_traces() {
    let mut rng = SimRng::seed_from(0x5eed_0002);
    for _ in 0..12 {
        let trace = record_trace(&mut rng, 300, 16_777_216, false);
        replay_differential(&trace);
    }
}

/// Reset interleaved with everything else: an allocation-retaining reset
/// must be indistinguishable from a fresh queue.
#[test]
fn differential_traces_with_reset() {
    let mut rng = SimRng::seed_from(0x5eed_0003);
    for _ in 0..12 {
        let trace = record_trace(&mut rng, 400, 4_194_304, true);
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
/// ladder, from 1 ps to ~42 µs. Quadratic reference pops make this
/// debug-slow, so it is
/// `#[ignore]`d here and run in release mode by CI's `checks` job.
#[test]
#[ignore = "heavy differential sweep; CI runs it via cargo test --release -- --ignored"]
fn differential_full_spread_ladder() {
    let mut rng = SimRng::seed_from(0x5eed_0005);
    for spread in [1, 7, 500, 8_192, 70_000, 2_097_152, 41_943_040] {
        for _ in 0..40 {
            let trace = record_trace(&mut rng, 600, spread, true);
            replay_differential(&trace);
        }
    }
}
