//! Workload generation.
//!
//! The evaluation runs sequences of random range queries with a fixed
//! selectivity over a domain of unique integers (Section 6). The generator
//! reproduces that, plus two extra access patterns (sequential sweep and
//! skewed) used by the wider test suite; the sequential sweep is the
//! input the core's pivot policy exists for.

use crate::query::{selectivity_to_width, Operation, QuerySpec};
use aidx_core::Aggregate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed perturbation separating the write-decision stream from the select
/// stream, so `generate_mixed(n, 0.0)` replays exactly `generate(n)`.
const MIXED_SEED_SALT: u64 = 0x57A7_1C5E;

/// Spatial pattern of the generated query ranges.
// No `Eq`: the zipfian exponent is a float.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Uniformly random range positions (the paper's workload).
    Random,
    /// Ranges sweep the domain left to right (adversarial for plain
    /// cracking).
    Sequential,
    /// Range positions concentrated in the lowest 10% of the domain
    /// (the paper's 90%-selectivity discussion notes this focusing effect).
    SkewedLow,
    /// Zipfian range positions: the domain is carved into
    /// [`ZIPF_BUCKETS`] equal buckets and bucket `i` is drawn with
    /// probability proportional to `1 / (i + 1)^theta`, uniform within
    /// the bucket. `theta` is the skew exponent (`0` = uniform, `~1` =
    /// classic zipfian, larger = hotter head). The join workload's skewed
    /// foreign keys use the same bucket distribution.
    Zipfian(f64),
}

/// Bucket count for [`AccessPattern::Zipfian`]'s rank distribution.
pub const ZIPF_BUCKETS: usize = 256;

/// Generator of query workloads over a key domain `[0, domain_size)`.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    domain_size: u64,
    selectivity: f64,
    aggregate: Aggregate,
    pattern: AccessPattern,
    seed: u64,
}

impl WorkloadGenerator {
    /// Creates a generator for random queries of the given selectivity.
    pub fn new(domain_size: u64, selectivity: f64, aggregate: Aggregate, seed: u64) -> Self {
        WorkloadGenerator {
            domain_size,
            selectivity,
            aggregate,
            pattern: AccessPattern::Random,
            seed,
        }
    }

    /// Sets the access pattern (builder style).
    pub fn with_pattern(mut self, pattern: AccessPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// The width each generated range will have.
    pub fn range_width(&self) -> u64 {
        selectivity_to_width(self.selectivity, self.domain_size)
    }

    /// Generates `n` queries. The same generator configuration and seed
    /// always produce the same sequence, so every experiment arm (scan,
    /// sort, crack; every client count) replays identical queries, as the
    /// paper's methodology requires ("for every run we use exactly the same
    /// queries and in the same order").
    pub fn generate(&self, n: usize) -> Vec<QuerySpec> {
        let width = self.range_width().min(self.domain_size.max(1));
        let mut rng = StdRng::seed_from_u64(self.seed);
        let max_low = self.domain_size.saturating_sub(width);
        let zipf_cdf = match self.pattern {
            AccessPattern::Zipfian(theta) => zipf_cdf(ZIPF_BUCKETS, theta),
            _ => Vec::new(),
        };
        (0..n)
            .map(|i| {
                let low = match self.pattern {
                    AccessPattern::Random => {
                        if max_low == 0 {
                            0
                        } else {
                            rng.gen_range(0..=max_low)
                        }
                    }
                    AccessPattern::Sequential => {
                        if n <= 1 || max_low == 0 {
                            0
                        } else {
                            (max_low as u128 * i as u128 / (n as u128 - 1)) as u64
                        }
                    }
                    AccessPattern::SkewedLow => {
                        let cap = (self.domain_size / 10).max(1).min(max_low.max(1));
                        rng.gen_range(0..cap)
                    }
                    AccessPattern::Zipfian(_) => {
                        // Bucket by inverted CDF, uniform within the
                        // bucket, clamped to keep the range in-domain.
                        // (The rand shim has no float sampling, so the
                        // uniform comes from a 32-bit integer draw.)
                        let u = rng.gen_range(0..=u32::MAX as u64) as f64 / (u32::MAX as f64 + 1.0);
                        let bucket = zipf_cdf.partition_point(|&c| c < u);
                        let span = (max_low.max(1)).div_ceil(ZIPF_BUCKETS as u64).max(1);
                        let base = (bucket as u64 * span).min(max_low);
                        let cap = (base + span).min(max_low.max(1));
                        if base >= cap {
                            base
                        } else {
                            rng.gen_range(base..cap)
                        }
                    }
                };
                let high = low + width;
                QuerySpec {
                    low: low as i64,
                    high: high as i64,
                    aggregate: self.aggregate,
                }
            })
            .collect()
    }

    /// Generates `n` operations of which roughly `write_ratio` are writes
    /// (half inserts, half deletes, keys uniform over the domain) and the
    /// rest are the same deterministic select sequence [`Self::generate`]
    /// produces. The write decisions come from an independent seeded
    /// stream, so every arm replays the identical operation sequence and a
    /// ratio of `0.0` degenerates to exactly the read-only workload.
    pub fn generate_mixed(&self, n: usize, write_ratio: f64) -> Vec<Operation> {
        let threshold = (write_ratio.clamp(0.0, 1.0) * 10_000.0).round() as u64;
        let mut rng = StdRng::seed_from_u64(self.seed ^ MIXED_SEED_SALT);
        self.generate(n)
            .into_iter()
            .map(|query| {
                if rng.gen_range(0..10_000u64) < threshold {
                    let key = if self.domain_size == 0 {
                        0
                    } else {
                        rng.gen_range(0..self.domain_size) as i64
                    };
                    if rng.gen_range(0..2u64) == 0 {
                        Operation::Insert(key)
                    } else {
                        Operation::Delete(key)
                    }
                } else {
                    Operation::Select(query)
                }
            })
            .collect()
    }
}

/// Cumulative distribution of a zipfian over `buckets` ranks:
/// `P(rank = i) ∝ 1 / (i + 1)^theta`. Monotone non-decreasing, ends at
/// 1.0 (the final entry is forced so float rounding can't lose the tail).
/// Shared with the join workload's skewed foreign-key generator.
pub(crate) fn zipf_cdf(buckets: usize, theta: f64) -> Vec<f64> {
    let theta = theta.max(0.0);
    let weights: Vec<f64> = (0..buckets.max(1))
        .map(|i| 1.0 / ((i + 1) as f64).powf(theta))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    if let Some(last) = cdf.last_mut() {
        *last = 1.0;
    }
    cdf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count_and_width() {
        let g = WorkloadGenerator::new(1_000_000, 0.01, Aggregate::Count, 1);
        let queries = g.generate(100);
        assert_eq!(queries.len(), 100);
        assert_eq!(g.range_width(), 10_000);
        for q in &queries {
            assert_eq!(q.width(), 10_000);
            assert!(q.low >= 0);
            assert!(q.high <= 1_000_000);
            assert_eq!(q.aggregate, Aggregate::Count);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = WorkloadGenerator::new(10_000, 0.1, Aggregate::Sum, 7).generate(50);
        let b = WorkloadGenerator::new(10_000, 0.1, Aggregate::Sum, 7).generate(50);
        let c = WorkloadGenerator::new(10_000, 0.1, Aggregate::Sum, 8).generate(50);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sequential_pattern_sweeps_left_to_right() {
        let g = WorkloadGenerator::new(10_000, 0.01, Aggregate::Count, 3)
            .with_pattern(AccessPattern::Sequential);
        let queries = g.generate(20);
        assert!(queries.windows(2).all(|w| w[0].low <= w[1].low));
        assert_eq!(queries.first().unwrap().low, 0);
        assert_eq!(queries.last().unwrap().high, 10_000);
    }

    #[test]
    fn skewed_pattern_stays_in_low_decile() {
        let g = WorkloadGenerator::new(100_000, 0.0001, Aggregate::Sum, 5)
            .with_pattern(AccessPattern::SkewedLow);
        for q in g.generate(200) {
            assert!(q.low < 10_000, "low {} outside the first decile", q.low);
        }
    }

    #[test]
    fn very_high_selectivity_clamps_to_domain() {
        let g = WorkloadGenerator::new(1000, 0.9, Aggregate::Count, 2);
        for q in g.generate(20) {
            assert_eq!(q.width(), 900);
            assert!(q.high <= 1000);
        }
        let g = WorkloadGenerator::new(1000, 5.0, Aggregate::Count, 2);
        for q in g.generate(5) {
            assert_eq!(q.width(), 1000);
            assert_eq!(q.low, 0);
        }
    }

    #[test]
    fn mixed_workloads_hit_the_requested_write_ratio() {
        let g = WorkloadGenerator::new(100_000, 0.001, Aggregate::Sum, 13);
        let ops = g.generate_mixed(1000, 0.1);
        assert_eq!(ops.len(), 1000);
        let writes = ops.iter().filter(|op| op.is_write()).count();
        assert!(
            (60..=140).contains(&writes),
            "10% of 1000 ops should be ~100 writes, got {writes}"
        );
        let inserts = ops
            .iter()
            .filter(|op| matches!(op, Operation::Insert(_)))
            .count();
        assert!(inserts > 0 && inserts < writes, "both write kinds appear");
        // Deterministic per seed.
        assert_eq!(ops, g.generate_mixed(1000, 0.1));
        assert_ne!(
            ops,
            WorkloadGenerator::new(100_000, 0.001, Aggregate::Sum, 14).generate_mixed(1000, 0.1)
        );
    }

    #[test]
    fn zero_write_ratio_is_exactly_the_read_only_workload() {
        let g = WorkloadGenerator::new(10_000, 0.01, Aggregate::Count, 5);
        let selects: Vec<Operation> = g.generate(50).into_iter().map(Operation::Select).collect();
        assert_eq!(g.generate_mixed(50, 0.0), selects);
        // Full-write workloads are all writes.
        assert!(g.generate_mixed(50, 1.0).iter().all(Operation::is_write));
    }

    #[test]
    fn tiny_domains_do_not_panic() {
        let g = WorkloadGenerator::new(1, 0.5, Aggregate::Count, 0);
        let qs = g.generate(3);
        assert_eq!(qs.len(), 3);
        let g = WorkloadGenerator::new(0, 0.5, Aggregate::Count, 0);
        let qs = g.generate(3);
        assert_eq!(qs.len(), 3);
        let g = WorkloadGenerator::new(1, 0.5, Aggregate::Count, 0)
            .with_pattern(AccessPattern::Zipfian(1.0));
        assert_eq!(g.generate(3).len(), 3);
    }

    #[test]
    fn zipfian_skews_toward_the_head_of_the_domain() {
        let domain = 1_000_000u64;
        let g = WorkloadGenerator::new(domain, 0.0001, Aggregate::Count, 11)
            .with_pattern(AccessPattern::Zipfian(1.0));
        let queries = g.generate(4000);
        assert_eq!(queries.len(), 4000);
        let head = queries
            .iter()
            .filter(|q| (q.low as u64) < domain / 10)
            .count();
        let tail = queries
            .iter()
            .filter(|q| (q.low as u64) >= domain * 9 / 10)
            .count();
        // theta = 1 over 256 buckets puts ~66% of the mass in the first
        // decile and ~2% in the last; assert the shape with slack.
        assert!(
            head > 4000 / 2,
            "zipfian head must dominate: {head}/4000 in the first decile"
        );
        assert!(
            head > 10 * tail.max(1),
            "head ({head}) must dwarf tail ({tail})"
        );
        for q in &queries {
            assert!(q.low >= 0 && q.high as u64 <= domain);
        }
        // Deterministic per seed; a flatter exponent spreads the mass.
        assert_eq!(queries, g.generate(4000));
        let flat = WorkloadGenerator::new(domain, 0.0001, Aggregate::Count, 11)
            .with_pattern(AccessPattern::Zipfian(0.0))
            .generate(4000);
        let flat_head = flat.iter().filter(|q| (q.low as u64) < domain / 10).count();
        assert!(
            flat_head < head / 2,
            "theta = 0 must be near-uniform: {flat_head} vs {head}"
        );
    }
}
