//! Deterministic fault-injection plans — the reliability subsystem's
//! substrate.
//!
//! Real CXL Type-2 deployments live or die by the reliability machinery
//! the paper assumes away: flit CRC + link retry, poison propagation,
//! and host fallback when the device misbehaves. This module supplies
//! the *fault side* of that story as data, not behaviour: a
//! [`FaultPlan`] binds fault processes — fixed-BER flit corruption,
//! per-port stall/timeout, poisoned-line injection — to **named
//! injection points**, and each consumer crate derives an [`Injector`]
//! for the points it registers (`"fault.link.h2d"`,
//! `"fault.dcoh.slice"`, `"fault.host.mem"`, …).
//!
//! Determinism is the design constraint everything bends around:
//!
//! * Each injector's RNG is derived as
//!   `splitmix64(plan_seed ^ fnv1a(point_name))`, so the decision stream
//!   at a point depends only on the plan seed and the point name —
//!   never on the order injectors are created or which thread runs the
//!   sweep point. Seed the plan from [`crate::sweep::point_seed`] and
//!   fault-event traces are byte-identical at any thread count.
//! * A point carries at most one process, and a query of any other kind
//!   answers without consuming a single RNG draw; a
//!   [`FaultPlan::disabled`] plan yields inert injectors — runs with
//!   faults off are byte-identical to runs built before this module
//!   existed.
//!
//! Every fired fault emits [`TraceEvent::FaultInject`] so golden-trace
//! tooling sees injections in the same stream as protocol events.
//!
//! # Examples
//!
//! ```
//! use sim_core::fault::{FaultPlan, FaultProcess};
//! use sim_core::time::Time;
//!
//! let plan = FaultPlan::new(7).with("link.cxl", FaultProcess::bit_error(1e-6));
//! let mut inj = plan.injector("link.cxl");
//! let mut hits = 0;
//! for _ in 0..100_000 {
//!     if inj.corrupt_flit(Time::ZERO, 544) {
//!         hits += 1;
//!     }
//! }
//! assert!(hits > 0, "544-bit flits at 1e-6 BER corrupt sometimes");
//! let silent = plan.injector("other.point");
//! assert!(!silent.enabled());
//! ```

use crate::rng::{splitmix64, SimRng};
use crate::time::{Duration, Time};
use crate::trace::{self, FaultKind, TraceEvent};

/// One fault process, bindable to a named injection point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultProcess {
    /// Fixed bit-error rate: each transferred bit flips independently
    /// with probability `ber`; a unit (flit) is corrupt if any of its
    /// bits flipped.
    BitError {
        /// Per-bit error probability.
        ber: f64,
    },
    /// Per-op stall: with probability `probability`, an op is delayed by
    /// `delay` (pushing it past a consumer's timeout deadline).
    Stall {
        /// Per-op stall probability.
        probability: f64,
        /// Added delay when stalled.
        delay: Duration,
    },
    /// Poisoned-line injection: with probability `probability`, a line
    /// is marked poisoned at its home.
    Poison {
        /// Per-line poison probability.
        probability: f64,
    },
}

impl FaultProcess {
    /// Fixed-BER flit corruption.
    pub fn bit_error(ber: f64) -> Self {
        assert!((0.0..1.0).contains(&ber), "ber must be in [0, 1)");
        FaultProcess::BitError { ber }
    }

    /// Per-op stall of `delay` with probability `probability`.
    pub fn stall(probability: f64, delay: Duration) -> Self {
        assert!((0.0..=1.0).contains(&probability));
        FaultProcess::Stall { probability, delay }
    }

    /// Poisoned-line injection with probability `probability`.
    pub fn poison(probability: f64) -> Self {
        assert!((0.0..=1.0).contains(&probability));
        FaultProcess::Poison { probability }
    }
}

/// A seeded plan binding one fault process to each of its named injection
/// points.
///
/// Cheap to build per sweep point; seed it from
/// [`crate::sweep::point_seed`] so parallel sweeps stay byte-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// `(point, fnv1a(point), process)`: the point-name hash is memoized
    /// at bind time, so deriving an injector — which fault sweeps do for
    /// every registered point of every sweep point — never re-hashes the
    /// name string.
    bindings: Vec<(&'static str, u64, FaultProcess)>,
}

impl FaultPlan {
    /// An empty plan with the given seed; bind processes with
    /// [`FaultPlan::with`].
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            bindings: Vec::new(),
        }
    }

    /// The all-healthy plan: every injector it yields is inert.
    pub fn disabled() -> Self {
        FaultPlan::default()
    }

    /// Binds `process` to the injection point `point` (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `point` already carries a process.
    pub fn with(mut self, point: &'static str, process: FaultProcess) -> Self {
        assert!(
            self.bindings.iter().all(|&(p, _, _)| p != point),
            "fault point {point} already carries a process"
        );
        self.bindings.push((point, fnv1a(point), process));
        self
    }

    /// Derives the injector for `point`: its RNG depends only on the
    /// plan seed and the point name, so creation order is irrelevant.
    pub fn injector(&self, point: &'static str) -> Injector {
        match self.bindings.iter().find(|&&(p, _, _)| p == point) {
            Some(&(_, key, process)) => Injector::with_key(point, self.seed, key, Some(process)),
            // An unbound point falls back to hashing here; its injector is
            // inert either way, but the derivation stays uniform.
            None => Injector::with_key(point, self.seed, fnv1a(point), None),
        }
    }
}

/// FNV-1a over the point name: stable, order-free point → seed mixing.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Remaining healthy units before the next fire of a gap-sampled
/// process; `GAP_NEVER` means the process can never fire (`p == 0`).
const GAP_NEVER: u64 = u64::MAX;

/// One geometric inter-arrival gap: the number of healthy units (bits
/// for `BitError`, ops for `Stall`/`Poison`) before the next fire of an
/// independent per-unit Bernoulli(`p`) process. Consumes exactly one
/// uniform variate for every `p > 0`, so a BER ladder sharing one RNG
/// stream keeps the common-random-numbers coupling: the same `u` yields
/// a gap that shrinks monotonically as `p` rises, so the k-th fire of a
/// higher-rate point never lands later.
fn geometric_gap(rng: &mut SimRng, p: f64) -> u64 {
    if p <= 0.0 {
        return GAP_NEVER;
    }
    let u = rng.gen_f64();
    if p >= 1.0 {
        return 0;
    }
    // Inversion: floor(ln(1-u) / ln(1-p)) is Geometric(p) on {0,1,...}.
    // u ∈ [0,1) keeps ln(1-u) finite; ln(1-p) < 0 keeps the ratio ≥ 0.
    let g = ((1.0 - u).ln() / (1.0 - p).ln()).floor();
    if g >= GAP_NEVER as f64 {
        GAP_NEVER
    } else {
        g as u64
    }
}

/// The per-point stateful fault handle a consumer owns.
///
/// Querying a fault kind other than the bound process's returns
/// immediately without consuming RNG draws — a disabled injector is
/// behaviourally invisible.
///
/// The bound Bernoulli process (`BitError`, `Stall` or `Poison`) is
/// executed by *gap sampling*: instead of one uniform draw per unit
/// (which made a BER-1e-9 sweep pay the full RNG cost of a BER-1e-4
/// one), the injector samples the geometric inter-arrival distance to
/// the next fire once, then skips whole flits/ops by plain integer
/// arithmetic until the counter crosses zero. The per-unit semantics
/// are unchanged — a bulk query over `bits` bits fires exactly when a
/// bit-by-bit walk of the same stream would (pinned by the
/// skip-ahead-vs-stepping test below).
#[derive(Debug, Clone)]
pub struct Injector {
    point: &'static str,
    rng: SimRng,
    /// The bound process and its gap: healthy units remaining before its
    /// next fire (bits for `BitError`, ops for `Stall`/`Poison`).
    process: Option<(FaultProcess, u64)>,
}

impl Injector {
    /// The injector for `point` under the plan seed `seed`, with the
    /// point-name hash supplied by the caller (the plan memoizes it at
    /// bind time). `key` must equal `fnv1a(point)` — the RNG stream
    /// contract `splitmix64(seed ^ fnv1a(point))` is pinned by the
    /// injector-stream regression test.
    fn with_key(point: &'static str, seed: u64, key: u64, process: Option<FaultProcess>) -> Self {
        debug_assert_eq!(key, fnv1a(point), "memoized key must match the name hash");
        let (_, derived) = splitmix64(seed ^ key);
        let mut rng = SimRng::seed_from(derived);
        // The initial gap. A process with p == 0 draws nothing and can
        // never fire.
        let process = process.map(|p| {
            let gap = match p {
                FaultProcess::BitError { ber } => geometric_gap(&mut rng, ber),
                FaultProcess::Stall { probability, .. } | FaultProcess::Poison { probability } => {
                    geometric_gap(&mut rng, probability)
                }
            };
            (p, gap)
        });
        Injector {
            point,
            rng,
            process,
        }
    }

    /// The injection-point name this injector serves.
    pub fn point(&self) -> &'static str {
        self.point
    }

    /// True if a fault process is bound to this point.
    pub fn enabled(&self) -> bool {
        self.process.is_some()
    }

    fn record(&self, at: Time, kind: FaultKind) {
        trace::emit(
            at,
            TraceEvent::FaultInject {
                point: self.point,
                fault: kind,
            },
        );
    }

    /// Whether a `bits`-wide unit transferred at `at` is corrupt under
    /// the bound BER process. No such process → `false`, no draw.
    ///
    /// Gap-sampled: the common case — the whole unit lies inside the
    /// current inter-fire gap — is a single subtraction; the RNG is
    /// touched only when a fire actually lands inside the unit.
    pub fn corrupt_flit(&mut self, at: Time, bits: u32) -> bool {
        let Some((FaultProcess::BitError { ber }, gap)) = &mut self.process else {
            return false;
        };
        let mut hit = false;
        let mut rem = bits as u64;
        while *gap < rem {
            hit = true;
            rem -= *gap + 1;
            *gap = geometric_gap(&mut self.rng, *ber);
        }
        if *gap != GAP_NEVER {
            *gap -= rem;
        }
        if hit {
            self.record(at, FaultKind::FlitCorrupt);
        }
        hit
    }

    /// Whether an op issued at `at` stalls, returning the bound delay.
    /// No stall process → `None`, no draw.
    pub fn stall(&mut self, at: Time) -> Option<Duration> {
        let Some((FaultProcess::Stall { probability, delay }, gap)) = &mut self.process else {
            return None;
        };
        let delay = *delay;
        if !op_fires(&mut self.rng, gap, *probability) {
            return None;
        }
        self.record(at, FaultKind::PortStall);
        Some(delay)
    }

    /// Whether a line written at `at` is poisoned. No poison process →
    /// `false`, no draw.
    pub fn poison_line(&mut self, at: Time) -> bool {
        let Some((FaultProcess::Poison { probability }, gap)) = &mut self.process else {
            return false;
        };
        let hit = op_fires(&mut self.rng, gap, *probability);
        if hit {
            self.record(at, FaultKind::Poison);
        }
        hit
    }
}

/// Advances an op-space `gap` by one op; returns true when this op fires
/// (the gap hit zero), resampling the next gap at rate `p`.
#[inline]
fn op_fires(rng: &mut SimRng, gap: &mut u64, p: f64) -> bool {
    if *gap == 0 {
        *gap = geometric_gap(rng, p);
        true
    } else {
        if *gap != GAP_NEVER {
            *gap -= 1;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: u64) -> Time {
        Time::ZERO + Duration::from_nanos(ns)
    }

    #[test]
    fn injector_depends_only_on_seed_and_point_name() {
        let plan_a = FaultPlan::new(42)
            .with("link.cxl", FaultProcess::bit_error(1e-4))
            .with(
                "dcoh.slice",
                FaultProcess::stall(0.5, Duration::from_nanos(100)),
            );
        // Same seed, different binding order and extra unrelated points.
        let plan_b = FaultPlan::new(42)
            .with(
                "dcoh.slice",
                FaultProcess::stall(0.5, Duration::from_nanos(100)),
            )
            .with("zswap.offload", FaultProcess::poison(0.1))
            .with("link.cxl", FaultProcess::bit_error(1e-4));

        // Creating injectors in different orders must not change draws.
        let mut link_b = plan_b.injector("link.cxl");
        let _ = plan_b.injector("zswap.offload");
        let mut link_a = plan_a.injector("link.cxl");
        let draws_a: Vec<bool> = (0..256).map(|i| link_a.corrupt_flit(at(i), 544)).collect();
        let draws_b: Vec<bool> = (0..256).map(|i| link_b.corrupt_flit(at(i), 544)).collect();
        assert_eq!(draws_a, draws_b);
        assert!(draws_a.iter().any(|&c| c), "1e-4 BER over 544 bits fires");
    }

    #[test]
    fn memoized_point_keys_reproduce_direct_hash_streams() {
        // The plan hashes each point name once, at bind time. The
        // injector it derives must draw the exact stream of one built by
        // hashing the name at creation time (the pre-memoization path),
        // regardless of how many other bindings surround it.
        let link = FaultProcess::bit_error(2e-4);
        let slice = FaultProcess::stall(0.25, Duration::from_nanos(40));
        let plan = FaultPlan::new(77)
            .with("zswap.offload", FaultProcess::poison(0.05))
            .with("link.cxl", link)
            .with("dcoh.slice", slice);
        let direct = |point, process| Injector::with_key(point, 77, fnv1a(point), Some(process));
        let mut memoized = (plan.injector("link.cxl"), plan.injector("dcoh.slice"));
        let mut direct = (direct("link.cxl", link), direct("dcoh.slice", slice));
        let mut fires = 0;
        for i in 0..512 {
            let corrupt = memoized.0.corrupt_flit(at(i), 544);
            assert_eq!(
                corrupt,
                direct.0.corrupt_flit(at(i), 544),
                "corrupt draw diverged at {i}"
            );
            let stall = memoized.1.stall(at(i));
            assert_eq!(stall, direct.1.stall(at(i)), "stall at {i}");
            fires += corrupt as u32 + stall.is_some() as u32;
        }
        assert!(fires > 0, "the stream must exercise fires");
        // Unbound points take the fallback hash and stay inert.
        assert!(!plan.injector("never.bound").enabled());
    }

    #[test]
    fn unbound_kind_consumes_no_draws() {
        let plan = FaultPlan::new(9).with("p", FaultProcess::bit_error(0.5));
        let mut with_queries = plan.injector("p");
        let mut without_queries = plan.injector("p");
        // Interleave no-op queries on one injector only.
        let mut a = Vec::new();
        for i in 0..64 {
            assert_eq!(with_queries.stall(at(i)), None);
            assert!(!with_queries.poison_line(at(i)));
            a.push(with_queries.corrupt_flit(at(i), 16));
        }
        let b: Vec<bool> = (0..64)
            .map(|i| without_queries.corrupt_flit(at(i), 16))
            .collect();
        assert_eq!(a, b, "unbound queries must not advance the RNG");
    }

    #[test]
    fn disabled_plan_is_inert() {
        let mut inj = FaultPlan::disabled().injector("anything");
        assert!(!inj.enabled());
        assert!(!inj.corrupt_flit(at(0), 544));
        assert_eq!(inj.stall(at(0)), None);
        assert!(!inj.poison_line(at(0)));
    }

    #[test]
    fn stall_returns_bound_delay() {
        let plan = FaultPlan::new(5).with("s", FaultProcess::stall(1.0, Duration::from_nanos(250)));
        let mut inj = plan.injector("s");
        assert_eq!(inj.stall(at(1)), Some(Duration::from_nanos(250)));
    }

    #[test]
    fn fired_faults_emit_trace_events() {
        trace::install(64);
        let plan = FaultPlan::new(5).with("s", FaultProcess::poison(1.0));
        let mut inj = plan.injector("s");
        assert!(inj.poison_line(at(2)));
        let events = trace::uninstall();
        assert_eq!(
            events[0].event,
            TraceEvent::FaultInject {
                point: "s",
                fault: FaultKind::Poison
            }
        );
    }

    #[test]
    fn zero_ber_never_fires_and_consumes_no_draws() {
        let plan = FaultPlan::new(11).with("l", FaultProcess::bit_error(0.0));
        let mut inj = plan.injector("l");
        for i in 0..1000 {
            assert!(!inj.corrupt_flit(at(i), 544));
        }
        // A p == 0 process draws nothing, even at construction: the
        // stream is where the unbound point's starts.
        let mut unbound = FaultPlan::new(11).injector("l");
        assert_eq!(inj.rng.gen_f64(), unbound.rng.gen_f64());
    }

    #[test]
    #[should_panic(expected = "already carries a process")]
    fn a_point_takes_one_process() {
        let _ = FaultPlan::new(1)
            .with("l", FaultProcess::bit_error(1e-3))
            .with("l", FaultProcess::stall(0.5, Duration::from_nanos(10)));
    }

    /// The gap-sampling skip-ahead contract: a bulk query over an
    /// n-bit unit must fire exactly when a bit-by-bit walk of the same
    /// stream fires somewhere inside the unit, flit after flit. Run at
    /// high BER so fires are dense and the equality exercises multiple
    /// fires per flit, resampling, and gap-carry across flits.
    #[test]
    fn bulk_skip_ahead_matches_per_bit_stepping() {
        for &(seed, ber, bits) in &[(42u64, 1e-2f64, 544u32), (7, 5e-2, 68), (13, 2e-3, 544)] {
            let plan = FaultPlan::new(seed).with("l", FaultProcess::bit_error(ber));
            let mut bulk = plan.injector("l");
            let mut stepped = plan.injector("l");
            let mut bulk_hits = 0u64;
            for f in 0..2_000u64 {
                let hit = bulk.corrupt_flit(at(f), bits);
                let mut any = false;
                for b in 0..bits {
                    any |= stepped.corrupt_flit(at(f * bits as u64 + b as u64), 1);
                }
                assert_eq!(
                    hit, any,
                    "flit {f} diverged (seed {seed}, ber {ber}, bits {bits})"
                );
                bulk_hits += hit as u64;
            }
            assert!(bulk_hits > 0, "high-BER stream must fire");
        }
    }

    /// Common-random-numbers coupling across a BER ladder: with one
    /// shared uniform stream, the k-th geometric gap shrinks as the
    /// rate rises, so the fire count over any fixed horizon is
    /// non-decreasing in BER — the property the fault sweep's
    /// goodput/p999 monotonicity gates stand on.
    #[test]
    fn gap_fires_dominate_across_ber_ladder() {
        let ladder = [1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2];
        for seed in [3u64, 17, 91] {
            let mut prev = 0u64;
            for &ber in &ladder {
                let plan = FaultPlan::new(seed).with("l", FaultProcess::bit_error(ber));
                let mut inj = plan.injector("l");
                let mut fires = 0u64;
                for f in 0..20_000u64 {
                    fires += inj.corrupt_flit(at(f), 544) as u64;
                }
                assert!(
                    fires >= prev,
                    "seed {seed}: {fires} fires at ber {ber} < {prev} at the lower rung"
                );
                prev = fires;
            }
            assert!(prev > 0, "seed {seed}: top rung must fire");
        }
    }

    /// Gap sampling preserves the per-unit Bernoulli rate: the corrupt
    /// fraction over many flits matches 1 - (1-ber)^bits.
    #[test]
    fn corruption_rate_matches_bernoulli_expectation() {
        let ber = 1e-4;
        let bits = 544u32;
        let plan = FaultPlan::new(1234).with("l", FaultProcess::bit_error(ber));
        let mut inj = plan.injector("l");
        let n = 200_000u64;
        let mut hits = 0u64;
        for f in 0..n {
            hits += inj.corrupt_flit(at(f), bits) as u64;
        }
        let expected = (1.0 - (1.0f64 - ber).powi(bits as i32)) * n as f64;
        let ratio = hits as f64 / expected;
        assert!(
            (0.9..1.1).contains(&ratio),
            "{hits} hits vs {expected:.0} expected (ratio {ratio:.3})"
        );
    }

    /// Pinned stream regression: the exact first fire positions of a
    /// fixed (seed, point, process) triple. Any change to the gap
    /// derivation — draw order, inversion formula, state carry — moves
    /// these and must be a conscious re-pin.
    #[test]
    fn fire_positions_are_pinned() {
        let plan = FaultPlan::new(42)
            .with("link.cxl", FaultProcess::bit_error(1e-3))
            .with(
                "dcoh.slice",
                FaultProcess::stall(0.05, Duration::from_nanos(100)),
            );
        let mut link = plan.injector("link.cxl");
        let corrupt: Vec<u64> = (0..4_000u64)
            .filter(|&f| link.corrupt_flit(at(f), 544))
            .take(6)
            .collect();
        let mut slice = plan.injector("dcoh.slice");
        let stalls: Vec<u64> = (0..4_000u64)
            .filter(|&o| slice.stall(at(o)).is_some())
            .take(6)
            .collect();
        assert_eq!(corrupt, pinned::CORRUPT_FLITS, "corrupt flit positions");
        assert_eq!(stalls, pinned::STALL_OPS, "stall op positions");
    }

    /// Expected values for [`fire_positions_are_pinned`], captured from
    /// the gap-sampling implementation at introduction time.
    mod pinned {
        pub const CORRUPT_FLITS: [u64; 6] = [4, 6, 7, 14, 17, 20];
        pub const STALL_OPS: [u64; 6] = [17, 35, 51, 55, 58, 65];
    }
}
