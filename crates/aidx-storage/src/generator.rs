//! Experiment data generation.
//!
//! The paper's evaluation uses "a table of 100 million tuples populated with
//! unique randomly distributed integers" (Section 6). [`generate_unique_shuffled`]
//! reproduces that: the keys `0..n` in a uniformly random order, so that every
//! range predicate's selectivity maps directly to a range width. A variant
//! with duplicates and a couple of skewed distributions are provided for the
//! wider test suite.

use crate::column::Column;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Key distribution shapes supported by [`generate_column`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataDistribution {
    /// A random permutation of `0..n` — the paper's experimental data.
    UniqueShuffled,
    /// Uniformly random keys in `[0, n)`, duplicates allowed.
    UniformWithDuplicates,
    /// Keys clustered towards zero (approximately Zipf-like via squaring).
    SkewedLow,
    /// Already sorted ascending keys `0..n` (worst case for cracking benefit).
    SortedAscending,
}

/// Generates a column of `n` unique integers `0..n` in random order.
///
/// Determinism: the same `seed` always yields the same permutation, so every
/// figure harness can be re-run reproducibly.
pub fn generate_unique_shuffled(n: usize, seed: u64) -> Vec<i64> {
    let mut data: Vec<i64> = (0..n as i64).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    data.shuffle(&mut rng);
    data
}

/// Generates `n` uniformly random keys in `[0, n)` with duplicates allowed.
pub fn generate_with_duplicates(n: usize, seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..n as i64)).collect()
}

/// Generates a column under the requested distribution.
pub fn generate_column(name: &str, n: usize, dist: DataDistribution, seed: u64) -> Column {
    let data = match dist {
        DataDistribution::UniqueShuffled => generate_unique_shuffled(n, seed),
        DataDistribution::UniformWithDuplicates => generate_with_duplicates(n, seed),
        DataDistribution::SkewedLow => {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..n)
                .map(|_| {
                    let u: f64 = rng.gen();
                    ((u * u) * n as f64) as i64
                })
                .collect()
        }
        DataDistribution::SortedAscending => (0..n as i64).collect(),
    };
    Column::from_values(name, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn unique_shuffled_is_a_permutation() {
        let data = generate_unique_shuffled(1000, 42);
        assert_eq!(data.len(), 1000);
        let set: HashSet<i64> = data.iter().copied().collect();
        assert_eq!(set.len(), 1000);
        assert_eq!(*data.iter().min().unwrap(), 0);
        assert_eq!(*data.iter().max().unwrap(), 999);
    }

    #[test]
    fn unique_shuffled_is_deterministic_per_seed() {
        assert_eq!(
            generate_unique_shuffled(100, 7),
            generate_unique_shuffled(100, 7)
        );
        assert_ne!(
            generate_unique_shuffled(100, 7),
            generate_unique_shuffled(100, 8)
        );
    }

    #[test]
    fn unique_shuffled_is_actually_shuffled() {
        let data = generate_unique_shuffled(10_000, 1);
        let sorted: Vec<i64> = (0..10_000).collect();
        assert_ne!(data, sorted);
    }

    #[test]
    fn duplicates_generator_stays_in_range() {
        let data = generate_with_duplicates(500, 3);
        assert_eq!(data.len(), 500);
        assert!(data.iter().all(|&v| (0..500).contains(&v)));
    }

    #[test]
    fn generate_column_all_distributions() {
        for dist in [
            DataDistribution::UniqueShuffled,
            DataDistribution::UniformWithDuplicates,
            DataDistribution::SkewedLow,
            DataDistribution::SortedAscending,
        ] {
            let col = generate_column("a", 256, dist, 5);
            assert_eq!(col.len(), 256);
            assert!(col.values().iter().all(|&v| v >= 0));
        }
    }

    #[test]
    fn sorted_ascending_is_sorted() {
        let col = generate_column("a", 100, DataDistribution::SortedAscending, 0);
        let v = col.values();
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn skewed_low_is_biased_towards_small_keys() {
        let col = generate_column("a", 10_000, DataDistribution::SkewedLow, 11);
        let below_half = col.values().iter().filter(|&&v| v < 5_000).count();
        // Squaring a uniform [0,1) variable puts ~70% of the mass below 0.5.
        assert!(below_half > 6_000, "expected skew, got {below_half}");
    }
}
