//! YCSB core workloads (§VII benchmark).
//!
//! The paper drives Redis with YCSB workloads A–D under a uniform key
//! distribution: A = 50% read / 50% update, B = 95/5, C = read-only,
//! D = 95% read / 5% insert.

use sim_core::rng::SimRng;

/// Key-popularity distribution for request generation.
///
/// The paper's §VII methodology uses a uniform distribution; the Zipfian
/// option (YCSB's default elsewhere) is provided as an extension for
/// skewed-popularity studies — hot keys stay LRU-protected, so zswap
/// interference shifts almost entirely to the antagonist's pages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDistribution {
    /// Every key equally likely (the paper's setting).
    Uniform,
    /// Zipfian with the given exponent (YCSB uses ~0.99).
    Zipfian(f64),
}

impl KeyDistribution {
    /// Samples a key in `[0, key_space)`.
    ///
    /// # Panics
    ///
    /// Panics if `key_space` is zero.
    pub(crate) fn sample(self, key_space: u64, rng: &mut SimRng) -> u64 {
        assert!(key_space > 0, "key space must be non-empty");
        match self {
            KeyDistribution::Uniform => rng.gen_range(key_space),
            KeyDistribution::Zipfian(theta) => {
                // Rejection-free approximation via the inverse-CDF of a
                // bounded Pareto (adequate for workload generation).
                let u = rng.gen_f64().max(1e-12);
                let n = key_space as f64;
                let s = 1.0 - theta;
                let rank = if s.abs() < 1e-9 {
                    n.powf(u)
                } else {
                    ((n.powf(s) - 1.0) * u + 1.0).powf(1.0 / s)
                };
                (rank as u64).min(key_space - 1)
            }
        }
    }
}

/// A YCSB operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// GET an existing key.
    Read,
    /// SET an existing key to a new value.
    Update,
    /// SET a brand-new key.
    Insert,
}

/// One of the four YCSB core workloads used by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum YcsbWorkload {
    /// Update heavy: 50% read, 50% update.
    A,
    /// Read heavy: 95% read, 5% update.
    B,
    /// Read only.
    C,
    /// Read latest: 95% read, 5% insert.
    D,
}

impl YcsbWorkload {
    /// All four workloads in Fig. 8 order.
    pub const ALL: [YcsbWorkload; 4] = [
        YcsbWorkload::A,
        YcsbWorkload::B,
        YcsbWorkload::C,
        YcsbWorkload::D,
    ];

    /// The (read, update, insert) fractions.
    pub(crate) fn mix(self) -> (f64, f64, f64) {
        match self {
            YcsbWorkload::A => (0.50, 0.50, 0.0),
            YcsbWorkload::B => (0.95, 0.05, 0.0),
            YcsbWorkload::C => (1.0, 0.0, 0.0),
            YcsbWorkload::D => (0.95, 0.0, 0.05),
        }
    }

    /// Short display name ("A".."D").
    pub fn name(self) -> &'static str {
        match self {
            YcsbWorkload::A => "A",
            YcsbWorkload::B => "B",
            YcsbWorkload::C => "C",
            YcsbWorkload::D => "D",
        }
    }

    /// Samples an operation.
    pub fn sample_op(self, rng: &mut SimRng) -> Op {
        let (read, update, _) = self.mix();
        let x = rng.gen_f64();
        if x < read {
            Op::Read
        } else if x < read + update {
            Op::Update
        } else {
            Op::Insert
        }
    }

    /// Samples a key under an explicit popularity distribution.
    pub fn sample_key_with(
        self,
        op: Op,
        key_space: u64,
        next_insert: u64,
        dist: KeyDistribution,
        rng: &mut SimRng,
    ) -> u64 {
        match op {
            Op::Insert => next_insert,
            _ => dist.sample(key_space, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_sum_to_one() {
        for w in YcsbWorkload::ALL {
            let (r, u, i) = w.mix();
            assert!((r + u + i - 1.0).abs() < 1e-12, "{}", w.name());
        }
    }

    #[test]
    fn workload_c_is_read_only() {
        let mut rng = SimRng::seed_from(1);
        for _ in 0..1000 {
            assert_eq!(YcsbWorkload::C.sample_op(&mut rng), Op::Read);
        }
    }

    #[test]
    fn workload_a_is_balanced() {
        let mut rng = SimRng::seed_from(2);
        let n = 10_000;
        let reads = (0..n)
            .filter(|_| YcsbWorkload::A.sample_op(&mut rng) == Op::Read)
            .count();
        let frac = reads as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.03, "A read fraction {frac}");
    }

    #[test]
    fn workload_d_inserts() {
        let mut rng = SimRng::seed_from(3);
        let inserts = (0..10_000)
            .filter(|_| YcsbWorkload::D.sample_op(&mut rng) == Op::Insert)
            .count();
        assert!(inserts > 300 && inserts < 700, "D insert count {inserts}");
    }

    #[test]
    fn zipfian_keys_are_skewed() {
        let mut rng = SimRng::seed_from(9);
        let dist = KeyDistribution::Zipfian(0.99);
        let n = 20_000;
        let hot = (0..n).filter(|_| dist.sample(1000, &mut rng) < 10).count();
        let frac = hot as f64 / n as f64;
        // The hottest 1% of keys draw far more than 1% of traffic.
        assert!(frac > 0.15, "zipf hot fraction {frac}");
        // Still covers the space.
        let mut max_seen = 0;
        for _ in 0..20_000 {
            max_seen = max_seen.max(dist.sample(1000, &mut rng));
        }
        assert!(max_seen > 900, "tail keys reachable: {max_seen}");
    }

    #[test]
    fn uniform_keys_cover_space() {
        let mut rng = SimRng::seed_from(4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            let k = YcsbWorkload::B.sample_key_with(
                Op::Read,
                100,
                0,
                KeyDistribution::Uniform,
                &mut rng,
            );
            assert!(k < 100);
            seen.insert(k);
        }
        assert!(seen.len() > 95, "uniform keys cover the space");
        assert_eq!(
            YcsbWorkload::D.sample_key_with(
                Op::Insert,
                100,
                100,
                KeyDistribution::Uniform,
                &mut rng
            ),
            100
        );
    }
}
