//! Deterministic transaction tracing and counters — the workspace-wide
//! observability substrate.
//!
//! The paper's §IV–§V insights are protocol-level: *which* caches are
//! checked, *which* snoops fire, *which* Table III state transitions
//! occur. This module captures those events as a typed, allocation-free
//! stream so they can be exported, diffed, and used as a test oracle
//! (golden-trace conformance tests lock the protocol event sequences).
//!
//! Two pieces:
//!
//! * [`TraceEvent`] + a fixed-capacity ring buffer of [`TimedEvent`]s,
//!   installed per thread via [`install`]. Emission ([`emit`]) is a
//!   no-op unless a tracer is installed, and never allocates once the
//!   ring exists — hot simulation paths stay hot. Events carry
//!   *simulated* time only (no wall clock anywhere — same seed, same
//!   trace, byte for byte).
//! * [`CounterRegistry`]: hierarchical dot-separated named counters
//!   (`device.d2h.requests`) with deterministic iteration and additive
//!   [`CounterRegistry::merge`], replacing ad-hoc per-component counter
//!   structs.
//!
//! The event-type definitions (the wire-named enums and [`TraceEvent`],
//! declared once as the table that drives encode and decode) live in
//! `events` and are re-exported here, so `sim_core::trace::TraceEvent`
//! remains the public path.
//!
//! Export is JSON-lines ([`to_jsonl`] / [`from_jsonl`] round-trip) or
//! aligned human-readable text ([`to_human`]).
//!
//! # Examples
//!
//! ```
//! use sim_core::time::Time;
//! use sim_core::trace::{self, CacheId, TraceEvent};
//!
//! trace::install(1024);
//! trace::emit(Time::ZERO, TraceEvent::CacheAccess {
//!     cache: CacheId::Hmc,
//!     addr: 0x40,
//!     hit: false,
//! });
//! let events = trace::uninstall();
//! assert_eq!(events.len(), 1);
//! let jsonl = trace::to_jsonl(&events);
//! assert_eq!(trace::from_jsonl(&jsonl).unwrap(), events);
//! ```

use core::cell::{Cell, RefCell};
use core::fmt::Write as _;
use core::sync::atomic::{AtomicU32, Ordering};
use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

use crate::time::Time;

pub(crate) mod events;

pub use events::*;

// =====================================================================
// Ring buffer + thread-local tracer
// =====================================================================

/// Fixed-capacity event ring: keeps the newest `capacity` events,
/// overwriting the oldest on wrap. Allocation happens once, at
/// construction.
#[derive(Debug, Clone)]
pub struct TraceRing {
    buf: Vec<TimedEvent>,
    capacity: usize,
    head: usize,
    len: usize,
    next_seq: u64,
    dropped: u64,
}

impl TraceRing {
    /// Creates a ring holding up to `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring capacity must be non-zero");
        TraceRing {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            len: 0,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Records an event; evicts the oldest if full. Never allocates once
    /// the ring has filled.
    pub fn push(&mut self, at: Time, event: TraceEvent) {
        let ev = TimedEvent {
            seq: self.next_seq,
            at,
            event,
        };
        self.next_seq += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
            self.len += 1;
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events evicted by wrap-around since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The ring's fixed capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Moves this ring's retained events out as an owned
    /// [`PointCapture`] — oldest first, with this ring's own sequence
    /// numbering and eviction count — and rewinds the ring for the next
    /// capture without tearing it down. The backing buffer is handed off
    /// by ownership (no per-event copy); a ring that recorded nothing
    /// hands off an empty capture without touching its allocation.
    pub fn take_point(&mut self) -> PointCapture {
        let dropped = self.dropped;
        let events = if self.buf.is_empty() {
            Vec::new()
        } else {
            self.buf.rotate_left(self.head);
            std::mem::replace(&mut self.buf, Vec::with_capacity(self.capacity))
        };
        self.head = 0;
        self.len = 0;
        self.next_seq = 0;
        self.dropped = 0;
        PointCapture { events, dropped }
    }

    /// Merges a sequence of point captures into this ring exactly as if
    /// every capture's whole emission stream had been replayed through it
    /// in order.
    ///
    /// Instead of pushing events one at a time, the final retained window
    /// is computed up front: captures that lie entirely before the window
    /// contribute only to sequence numbering and the eviction count, and
    /// whenever the window is covered by a single capture (the common
    /// case once per-point rings wrap) its buffer is adopted wholesale —
    /// zero event copies. Sequence numbers are rebased per capture, so
    /// the resulting ring state (retained events, numbering, drop
    /// accounting) is byte-identical to serial emission.
    pub fn absorb(&mut self, captures: Vec<PointCapture>) {
        // Normalize the current window to a linear, head-at-zero buffer.
        if self.head != 0 {
            self.buf.rotate_left(self.head);
            self.head = 0;
        }
        let cap = self.capacity;
        let total_new: usize = captures.iter().map(|c| c.events.len()).sum();
        let old_len = self.len;
        let final_len = (old_len + total_new).min(cap);
        let surviving_new = total_new.min(final_len);
        let from_old = final_len - surviving_new;
        // Old events pushed out by the incoming stream are evictions.
        if from_old < old_len {
            self.buf.drain(..old_len - from_old);
            self.dropped += (old_len - from_old) as u64;
        }
        // Locate the first (capture, offset) inside the final window.
        let mut start = captures.len();
        let mut start_off = 0usize;
        let mut need = surviving_new;
        for (i, c) in captures.iter().enumerate().rev() {
            if need == 0 {
                break;
            }
            start = i;
            if c.events.len() >= need {
                start_off = c.events.len() - need;
                need = 0;
            } else {
                need -= c.events.len();
                start_off = 0;
            }
        }
        debug_assert_eq!(need, 0, "window selection must be satisfiable");
        let mut seq_base = self.next_seq;
        for (i, c) in captures.into_iter().enumerate() {
            let chunk_span = c.events.len() as u64 + c.dropped;
            self.dropped += c.dropped;
            if i >= start {
                let skipped = if i == start { start_off } else { 0 };
                // Events before the window were pushed and then evicted
                // in the serial replay.
                self.dropped += skipped as u64;
                if i == start && self.buf.is_empty() {
                    // Adopt the capture's buffer outright: the window
                    // starts here and nothing retained precedes it.
                    let mut v = c.events;
                    v.drain(..skipped);
                    for e in &mut v {
                        e.seq += seq_base;
                    }
                    self.buf = v;
                } else {
                    self.buf
                        .extend(c.events[skipped..].iter().map(|e| TimedEvent {
                            seq: seq_base + e.seq,
                            ..*e
                        }));
                }
            } else {
                // Entirely outside the window: every event was evicted.
                self.dropped += c.events.len() as u64;
            }
            seq_base += chunk_span;
        }
        self.next_seq = seq_base;
        self.len = self.buf.len();
        debug_assert_eq!(self.len, final_len);
    }

    /// The retained events, oldest first.
    pub fn to_vec(&self) -> Vec<TimedEvent> {
        let mut out = Vec::with_capacity(self.len);
        for i in 0..self.len {
            out.push(self.buf[(self.head + i) % self.buf.len().max(1)]);
        }
        out
    }

    /// Clears retained events, keeping capacity and sequence numbering.
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.len = 0;
    }
}

/// One sweep point's captured trace, moved out of a worker ring by
/// ownership transfer ([`TraceRing::take_point`] / `take_point`):
/// the retained events oldest-first with the worker ring's own sequence
/// numbering, plus how many earlier events that ring evicted. Feed a
/// point-ordered sequence of these to `splice_owned` to reassemble the
/// exact serial trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointCapture {
    /// Retained events, oldest first, worker-local sequence numbers.
    pub(crate) events: Vec<TimedEvent>,
    /// Events the capturing ring evicted by wrap-around.
    pub(crate) dropped: u64,
}

thread_local! {
    static TRACER: RefCell<Option<TraceRing>> = const { RefCell::new(None) };
    /// Mirror of `TRACER.is_some()`. [`emit`] reads this plain `Cell`
    /// first so the untraced hot path is one thread-local load and a
    /// branch — no `RefCell` borrow bookkeeping.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Installs a fresh tracer (ring of `capacity` events) on this thread,
/// replacing any previous one. Emission is per-thread, which keeps
/// parallel test runs isolated and traces deterministic.
pub fn install(capacity: usize) {
    TRACER.with(|t| *t.borrow_mut() = Some(TraceRing::new(capacity)));
    ACTIVE.set(true);
}

/// Removes this thread's tracer, returning the retained events.
pub fn uninstall() -> Vec<TimedEvent> {
    ACTIVE.set(false);
    TRACER.with(|t| {
        t.borrow_mut()
            .take()
            .map(|r| r.to_vec())
            .unwrap_or_default()
    })
}

/// True if a tracer is installed on this thread.
pub fn is_active() -> bool {
    ACTIVE.get()
}

/// The capacity of this thread's installed ring, if any. Sweep workers
/// use it to clone the caller's tracer configuration.
pub(crate) fn installed_capacity() -> Option<usize> {
    TRACER.with(|t| t.borrow().as_ref().map(|r| r.capacity()))
}

/// Removes this thread's tracer, returning the retained events *and* the
/// count of events it evicted by wrap-around.
pub fn take_captured() -> (Vec<TimedEvent>, u64) {
    ACTIVE.set(false);
    TRACER.with(|t| {
        t.borrow_mut()
            .take()
            .map(|r| (r.to_vec(), r.dropped()))
            .unwrap_or_default()
    })
}

/// Moves the current point's capture out of this thread's tracer by
/// ownership transfer and rewinds the ring for the next point, leaving
/// the tracer installed. Sweep workers call this between points so one
/// ring (and its seq/drop bookkeeping) is reused for a whole worker
/// lifetime instead of being torn down and reallocated per point.
/// Returns an empty capture when no tracer is installed.
pub(crate) fn take_point() -> PointCapture {
    TRACER.with(|t| {
        t.borrow_mut()
            .as_mut()
            .map(|r| r.take_point())
            .unwrap_or_default()
    })
}

/// Merges point captures (from [`take_point`] on same-capacity rings)
/// into this thread's tracer in order, exactly as if every capture's
/// emission stream had passed through it, built on
/// [`TraceRing::absorb`]. A no-op without an installed tracer.
pub(crate) fn splice_owned(captures: Vec<PointCapture>) {
    TRACER.with(|t| {
        if let Some(ring) = t.borrow_mut().as_mut() {
            ring.absorb(captures);
        }
    });
}

/// Records `event` at simulated time `at`; a no-op without a tracer.
#[inline]
pub fn emit(at: Time, event: TraceEvent) {
    if !ACTIVE.get() {
        return;
    }
    TRACER.with(|t| {
        if let Some(ring) = t.borrow_mut().as_mut() {
            ring.push(at, event);
        }
    });
}

/// Copies out the retained events without uninstalling.
pub fn snapshot() -> Vec<TimedEvent> {
    TRACER.with(|t| t.borrow().as_ref().map(|r| r.to_vec()).unwrap_or_default())
}

/// Drops retained events (sequence numbering continues).
pub fn clear() {
    TRACER.with(|t| {
        if let Some(r) = t.borrow_mut().as_mut() {
            r.clear();
        }
    });
}

/// Strips timestamps/sequence numbers: the pure protocol event sequence,
/// which is what golden-trace conformance compares.
pub fn protocol_of(events: &[TimedEvent]) -> Vec<TraceEvent> {
    events.iter().map(|e| e.event).collect()
}

// =====================================================================
// Counter interning
// =====================================================================

/// Process-wide counter-name interner: one dense `u32` per distinct
/// name, handed out in first-intern order. Snapshot rendering sorts by
/// *name*, so the id order never leaks into any output — it only has to
/// be stable within one process so every [`CounterRegistry`] indexes the
/// same slot for the same name.
struct Interner {
    ids: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            ids: HashMap::new(),
            names: Vec::new(),
        })
    })
}

/// Dense process-wide id of an interned counter name.
///
/// Obtained from [`CounterId::intern`] (dynamic keys, interned once at
/// build time) or cached in a [`CounterSlot`] static (fixed keys at bump
/// sites). Bumping through an id is a single `Vec` index — no string
/// compare, no tree walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(u32);

impl CounterId {
    /// Interns `name`, returning its dense id (idempotent).
    pub fn intern(name: &'static str) -> CounterId {
        if let Some(&id) = interner().read().unwrap().ids.get(name) {
            return CounterId(id);
        }
        let mut w = interner().write().unwrap();
        if let Some(&id) = w.ids.get(name) {
            return CounterId(id);
        }
        let id = u32::try_from(w.names.len()).expect("more than u32::MAX counter names");
        w.ids.insert(name, id);
        w.names.push(name);
        INTERNED_HERE.with(|n| n.set(n.get() + 1));
        CounterId(id)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

thread_local! {
    /// Counter names first interned by this thread.
    static INTERNED_HERE: Cell<usize> = const { Cell::new(0) };
}

/// Number of counter names interned so far, process-wide.
pub fn interned_counters() -> usize {
    interner().read().unwrap().names.len()
}

/// Number of counter names this thread has interned so far.
///
/// Harnesses that must not intern in their hot path (dynamic per-tenant
/// or per-device keys belong at build time) snapshot this before a sweep
/// point and assert it is unchanged after — growth mid-point means a key
/// slipped into the op path. It is per-thread because a sweep point runs
/// on one worker while its siblings build (and intern) on others.
pub fn interned_on_this_thread() -> usize {
    INTERNED_HERE.with(Cell::get)
}

/// A lazily-resolved [`CounterId`] cache for a fixed counter name,
/// usable in a `static`:
///
/// ```
/// use sim_core::trace::{CounterRegistry, CounterSlot};
///
/// static WRITEBACKS: CounterSlot = CounterSlot::new("device.hmc.writebacks");
/// let mut c = CounterRegistry::new();
/// c.bump(&WRITEBACKS);
/// assert_eq!(c.get("device.hmc.writebacks"), 1);
/// ```
///
/// The first bump interns the name; every later bump through the same
/// slot is a relaxed atomic load plus a `Vec` index.
pub struct CounterSlot {
    name: &'static str,
    id: AtomicU32,
}

/// Sentinel for a [`CounterSlot`] whose name has not been interned yet.
const SLOT_UNRESOLVED: u32 = u32::MAX;

impl CounterSlot {
    /// A slot for `name`, resolvable in a `static` context.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            id: AtomicU32::new(SLOT_UNRESOLVED),
        }
    }

    /// The slot's dense id, interning the name on first use.
    pub(crate) fn id(&self) -> CounterId {
        let cached = self.id.load(Ordering::Relaxed);
        if cached != SLOT_UNRESOLVED {
            return CounterId(cached);
        }
        let id = CounterId::intern(self.name);
        self.id.store(id.0, Ordering::Relaxed);
        id
    }
}

// =====================================================================
// CounterRegistry
// =====================================================================

/// Hierarchical named counters with deterministic iteration.
///
/// Names are dot-separated static paths (`device.hmc.writebacks`); the
/// hierarchy is expressed by [`CounterRegistry::sum_prefix`], which sums
/// a whole subtree. Merging registries adds matching counters, so
/// per-shard registries can be reduced without order sensitivity.
///
/// Storage is a dense `Vec<u64>` indexed by interned [`CounterId`] — a
/// bump is an array index, not a string-keyed tree walk. A parallel
/// `touched` bitmap preserves the distinction between "never bumped" and
/// "bumped with zero" (a counter added with `n == 0` still appears in
/// snapshots, exactly as the former `BTreeMap` storage behaved).
/// Name-sorted order is recovered only at snapshot time ([`Self::iter`],
/// [`Self::to_jsonl`], [`Self::to_human`]), so rendered output is
/// byte-identical to the legacy lexicographic rendering.
///
/// # Examples
///
/// ```
/// use sim_core::trace::CounterRegistry;
///
/// let mut c = CounterRegistry::new();
/// c.incr("device.d2h.requests");
/// c.add("device.hmc.writebacks", 3);
/// assert_eq!(c.get("device.hmc.writebacks"), 3);
/// assert_eq!(c.sum_prefix("device"), 4);
/// ```
#[derive(Clone, Default)]
pub struct CounterRegistry {
    values: Vec<u64>,
    touched: Vec<bool>,
}

impl CounterRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter with interned id `id` (hot path: two
    /// `Vec` indexes once the registry has seen an id at least as
    /// large).
    #[inline]
    pub fn add_id(&mut self, id: CounterId, n: u64) {
        let i = id.index();
        if i >= self.values.len() {
            self.values.resize(i + 1, 0);
            self.touched.resize(i + 1, false);
        }
        self.values[i] += n;
        self.touched[i] = true;
    }

    /// Increments the slot's counter by one.
    #[inline]
    pub fn bump(&mut self, slot: &CounterSlot) {
        self.add_id(slot.id(), 1);
    }

    /// Adds `n` to the slot's counter.
    #[inline]
    pub(crate) fn bump_by(&mut self, slot: &CounterSlot, n: u64) {
        self.add_id(slot.id(), n);
    }

    /// Adds `n` to the named counter, creating it at zero if absent.
    ///
    /// Interns `name` on every call — cold-path convenience. Hot loops
    /// should pre-intern via [`CounterSlot`] or [`CounterId::intern`].
    pub fn add(&mut self, name: &'static str, n: u64) {
        self.add_id(CounterId::intern(name), n);
    }

    /// Increments the named counter by one (interns `name`; see
    /// [`Self::add`]).
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// The counter's value (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        let Some(&id) = interner().read().unwrap().ids.get(name) else {
            return 0;
        };
        self.values.get(id as usize).copied().unwrap_or(0)
    }

    /// Touched `(id, value)` pairs in id order (not name order).
    fn entries(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.touched
            .iter()
            .enumerate()
            .filter(|(_, t)| **t)
            .map(|(i, _)| (i as u32, self.values[i]))
    }

    /// Sums the counter subtree rooted at `prefix`: the counter named
    /// exactly `prefix` plus every counter under `prefix.`.
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        let interner = interner().read().unwrap();
        self.entries()
            .filter(|&(i, _)| {
                let k = interner.names[i as usize];
                k == prefix
                    || (k.len() > prefix.len()
                        && k.starts_with(prefix)
                        && k.as_bytes()[prefix.len()] == b'.')
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// Adds every counter of `other` into `self` (additive, commutative
    /// and associative across merges).
    pub fn merge(&mut self, other: &CounterRegistry) {
        if self.values.len() < other.values.len() {
            self.values.resize(other.values.len(), 0);
            self.touched.resize(other.touched.len(), false);
        }
        for (i, v) in other.entries() {
            self.values[i as usize] += v;
            self.touched[i as usize] = true;
        }
    }

    /// Iterates counters in lexicographic (deterministic) order.
    ///
    /// Sorting by name happens here, at snapshot time — the bump path
    /// never pays for ordering.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let interner = interner().read().unwrap();
        let mut out: Vec<(&'static str, u64)> = self
            .entries()
            .map(|(i, v)| (interner.names[i as usize], v))
            .collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out.into_iter()
    }

    /// JSON-lines export, one counter per line, lexicographic order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (k, v) in self.iter() {
            let _ = writeln!(out, "{{\"counter\":\"{k}\",\"value\":{v}}}");
        }
        out
    }

    /// Aligned human-readable dump.
    pub fn to_human(&self) -> String {
        let width = self.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (k, v) in self.iter() {
            let _ = writeln!(out, "{k:<width$}  {v}");
        }
        out
    }
}

impl PartialEq for CounterRegistry {
    /// Equality over touched `(name, value)` pairs — trailing untouched
    /// slots (an artifact of which ids a registry happened to see) never
    /// distinguish two registries.
    fn eq(&self, other: &Self) -> bool {
        let n = self.touched.len().max(other.touched.len());
        (0..n).all(|i| {
            let a = self.touched.get(i).copied().unwrap_or(false);
            let b = other.touched.get(i).copied().unwrap_or(false);
            a == b && (!a || self.values[i] == other.values[i])
        })
    }
}

impl Eq for CounterRegistry {}

impl core::fmt::Debug for CounterRegistry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

// =====================================================================
// JSON-lines + human export
// =====================================================================

fn json_event(out: &mut String, e: &TimedEvent) {
    let _ = write!(
        out,
        "{{\"seq\":{},\"at_ps\":{}",
        e.seq,
        e.at.duration_since(Time::ZERO).as_picos()
    );
    events::write_json_fields(out, &e.event);
    out.push_str("}\n");
}

/// Serializes events as JSON-lines (one object per line, stable field
/// order — byte-identical for identical event streams).
pub fn to_jsonl(events: &[TimedEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        json_event(&mut out, e);
    }
    out
}

/// Renders events as aligned human-readable text.
pub fn to_human(events: &[TimedEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let ns = e.at.duration_since(Time::ZERO).as_nanos_f64();
        let _ = write!(out, "[{:>6}] {:>14.3} ns  ", e.seq, ns);
        events::write_human_event(&mut out, &e.event);
    }
    out
}

// =====================================================================
// JSON-lines parsing (fixtures + round-trip tests; cold path)
// =====================================================================

/// Error from [`from_jsonl`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub(crate) message: String,
}

impl core::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for TraceParseError {}

/// Parses [`to_jsonl`] output back into events. Inverse of `to_jsonl`
/// for every [`TraceEvent`] variant.
pub fn from_jsonl(s: &str) -> Result<Vec<TimedEvent>, TraceParseError> {
    s.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            parse_timed_event(line).map_err(|message| TraceParseError {
                line: i + 1,
                message,
            })
        })
        .collect()
}

fn parse_timed_event(line: &str) -> Result<TimedEvent, String> {
    let r = events::FieldReader::parse(line)?;
    let event = events::parse_event(&r)?;
    Ok(TimedEvent {
        seq: r.num("seq")?,
        at: Time::ZERO + crate::time::Duration::from_picos(r.num("at_ps")?),
        event,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn at(ns: u64) -> Time {
        Time::ZERO + Duration::from_nanos(ns)
    }

    #[test]
    fn ring_keeps_newest_in_order() {
        let mut r = TraceRing::new(4);
        for i in 0..10u64 {
            r.push(at(i), TraceEvent::LlcPush { addr: i });
        }
        let v = r.to_vec();
        assert_eq!(v.len(), 4);
        assert_eq!(r.dropped(), 6);
        let addrs: Vec<u64> = v
            .iter()
            .map(|e| match e.event {
                TraceEvent::LlcPush { addr } => addr,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(addrs, vec![6, 7, 8, 9]);
        assert_eq!(v[0].seq, 6);
    }

    #[test]
    fn emit_without_tracer_is_noop() {
        assert!(!is_active());
        emit(at(1), TraceEvent::LlcPush { addr: 1 });
        assert!(uninstall().is_empty());
    }

    #[test]
    fn install_capture_uninstall() {
        install(8);
        emit(at(1), TraceEvent::LlcPush { addr: 1 });
        emit(
            at(2),
            TraceEvent::CacheInvalidate {
                cache: CacheId::Hmc,
                addr: 2,
            },
        );
        assert_eq!(snapshot().len(), 2);
        let v = uninstall();
        assert_eq!(v.len(), 2);
        assert!(!is_active());
    }

    #[test]
    fn jsonl_roundtrips_a_mixed_stream() {
        let events = vec![
            TimedEvent {
                seq: 0,
                at: at(1),
                event: TraceEvent::Request {
                    lane: Lane::D2h,
                    op: OpKind::CsRd,
                    addr: 0x40,
                },
            },
            TimedEvent {
                seq: 1,
                at: at(2),
                event: TraceEvent::Snoop {
                    snoop: SnoopKind::Shared,
                    addr: 0x40,
                    hit: true,
                    dirty: false,
                },
            },
            TimedEvent {
                seq: 2,
                at: at(3),
                event: TraceEvent::FlowOp {
                    flow: 3,
                    line: 0x40,
                    sojourn_ps: 2_000,
                },
            },
        ];
        let s = to_jsonl(&events);
        assert_eq!(from_jsonl(&s).unwrap(), events);
    }

    #[test]
    fn jsonl_roundtrips_fault_events() {
        let events = vec![
            TimedEvent {
                seq: 0,
                at: at(1),
                event: TraceEvent::FaultInject {
                    point: "link.cxl",
                    fault: FaultKind::FlitCorrupt,
                },
            },
            TimedEvent {
                seq: 1,
                at: at(2),
                event: TraceEvent::LinkRetry {
                    point: "link.cxl",
                    attempt: 2,
                },
            },
            TimedEvent {
                seq: 2,
                at: at(3),
                event: TraceEvent::PoisonSurface { addr: 0x1c0 },
            },
            TimedEvent {
                seq: 3,
                at: at(4),
                event: TraceEvent::Timeout {
                    point: "dcoh.slice",
                    attempt: 1,
                    backoff_ps: 64_000,
                },
            },
            TimedEvent {
                seq: 4,
                at: at(5),
                event: TraceEvent::Zswap {
                    step: ZswapStep::StoreRejected,
                    key: 7,
                    bytes: 4096,
                },
            },
        ];
        let s = to_jsonl(&events);
        assert_eq!(from_jsonl(&s).unwrap(), events);
        // Human rendering covers the new variants without panicking.
        assert!(to_human(&events).contains("link retry #2"));
    }

    #[test]
    fn parse_reports_line_numbers() {
        let err = from_jsonl("{\"seq\":0,\"at_ps\":0,\"kind\":\"request\"}\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("lane"));
    }

    #[test]
    fn parsed_names_are_interned_once() {
        let line = "{\"seq\":0,\"at_ps\":0,\"kind\":\"link-retry\",\
                    \"point\":\"link.parse-test\",\"attempt\":1}\n";
        let point = |events: Vec<TimedEvent>| match events[0].event {
            TraceEvent::LinkRetry { point, .. } => point,
            other => panic!("unexpected {other:?}"),
        };
        let a = point(from_jsonl(line).unwrap());
        let b = point(from_jsonl(line).unwrap());
        assert_eq!(a, "link.parse-test");
        assert!(core::ptr::eq(a, b), "one leaked copy per distinct name");
    }

    #[test]
    fn parse_rejects_values_too_wide_for_their_field() {
        let line = "{\"seq\":0,\"at_ps\":0,\"kind\":\"fabric-route\",\
                    \"device\":65536,\"hpa\":1,\"dpa\":2,\"way\":1}";
        let err = from_jsonl(line).unwrap_err();
        assert!(err.message.contains("\"device\" out of range"), "{err}");
    }

    #[test]
    fn registry_hierarchy_and_merge() {
        let mut a = CounterRegistry::new();
        a.incr("device.d2h.requests");
        a.add("device.hmc.writebacks", 2);
        let mut b = CounterRegistry::new();
        b.add("device.d2h.requests", 4);
        b.incr("host.llc.hits");
        a.merge(&b);
        assert_eq!(a.get("device.d2h.requests"), 5);
        assert_eq!(a.sum_prefix("device"), 7);
        assert_eq!(a.sum_prefix("device.hmc"), 2);
        assert_eq!(a.get("absent"), 0);
        // `sum_prefix` respects segment boundaries.
        let mut c = CounterRegistry::new();
        c.incr("dev.x");
        c.incr("device.y");
        assert_eq!(c.sum_prefix("dev"), 1);
    }

    #[test]
    fn take_point_rewinds_ring_for_reuse() {
        let mut r = TraceRing::new(4);
        for i in 0..6u64 {
            r.push(at(i), TraceEvent::LlcPush { addr: i });
        }
        let first = r.take_point();
        assert_eq!(first.events.len(), 4);
        assert_eq!(first.dropped, 2);
        assert_eq!(first.events[0].seq, 2, "worker-local numbering survives");
        // The ring is rewound, not torn down: the next point starts from
        // a clean seq/drop state.
        assert_eq!(r.len, 0);
        assert_eq!(r.dropped(), 0);
        r.push(at(100), TraceEvent::LlcPush { addr: 100 });
        let second = r.take_point();
        assert_eq!(second.events.len(), 1);
        assert_eq!(second.events[0].seq, 0);
        assert_eq!(second.dropped, 0);
        // An untouched ring hands off an empty capture.
        assert_eq!(r.take_point(), PointCapture::default());
    }

    #[test]
    fn absorb_reproduces_serial_ring_state() {
        // Serial reference: one capacity-4 ring sees 3 points x 6 events.
        install(4);
        for i in 0..18u64 {
            emit(at(i), TraceEvent::LlcPush { addr: i });
        }
        let (serial_events, serial_dropped) = take_captured();

        // "Parallel": one reused worker ring, one owned capture per
        // point, absorbed back in point order.
        install(4);
        let mut worker = TraceRing::new(4);
        let mut captures = Vec::new();
        for p in 0..3u64 {
            for i in 0..6u64 {
                worker.push(at(p * 6 + i), TraceEvent::LlcPush { addr: p * 6 + i });
            }
            captures.push(worker.take_point());
        }
        splice_owned(captures);
        let (merged_events, merged_dropped) = take_captured();
        assert_eq!(merged_events, serial_events, "retained window + seqs");
        assert_eq!(merged_dropped, serial_dropped, "eviction accounting");
    }

    /// `absorb` must agree with serial emission on every chunk shape:
    /// empty points, partial points, exactly-full points, wrapped points,
    /// and a non-empty (already wrapped) target ring.
    #[test]
    fn absorb_matches_serial_chunk_for_chunk() {
        let cap = 5usize;
        let point_sizes: [u64; 7] = [0, 2, 5, 9, 0, 1, 13];
        let emit_point = |ring: &mut TraceRing, p: usize, n: u64| {
            for i in 0..n {
                let addr = (p as u64) * 100 + i;
                ring.push(at(addr), TraceEvent::LlcPush { addr });
            }
        };
        // Both rings start already wrapped (head != 0, dropped != 0).
        let prime = |ring: &mut TraceRing| {
            for i in 0..7u64 {
                ring.push(at(i), TraceEvent::LlcPush { addr: 1_000 + i });
            }
        };

        // Reference: every point's whole stream emitted into one ring.
        let mut reference = TraceRing::new(cap);
        prime(&mut reference);
        for (p, &n) in point_sizes.iter().enumerate() {
            emit_point(&mut reference, p, n);
        }

        let mut worker = TraceRing::new(cap);
        let mut captures = Vec::new();
        for (p, &n) in point_sizes.iter().enumerate() {
            emit_point(&mut worker, p, n);
            captures.push(worker.take_point());
        }
        let mut absorbed = TraceRing::new(cap);
        prime(&mut absorbed);
        absorbed.absorb(captures);

        assert_eq!(absorbed.to_vec(), reference.to_vec());
        assert_eq!(absorbed.dropped(), reference.dropped());
        assert_eq!(absorbed.len, reference.len);
        // Post-merge emission continues the same numbering stream.
        absorbed.push(at(999), TraceEvent::LlcPush { addr: 999 });
        reference.push(at(999), TraceEvent::LlcPush { addr: 999 });
        assert_eq!(absorbed.to_vec(), reference.to_vec());
    }

    #[test]
    fn absorb_with_partial_points_matches_serial() {
        // Points smaller than capacity must absorb without phantom drops.
        install(8);
        for i in 0..5u64 {
            emit(at(i), TraceEvent::LlcPush { addr: i });
        }
        let (serial_events, serial_dropped) = take_captured();

        install(8);
        let mut worker = TraceRing::new(8);
        let mut captures = Vec::new();
        for (start, n) in [(0u64, 2u64), (2, 3)] {
            for i in 0..n {
                worker.push(at(start + i), TraceEvent::LlcPush { addr: start + i });
            }
            captures.push(worker.take_point());
        }
        splice_owned(captures);
        let (merged_events, merged_dropped) = take_captured();
        assert_eq!(merged_events, serial_events);
        assert_eq!(merged_dropped, serial_dropped);
        assert_eq!(merged_dropped, 0);
    }
}
