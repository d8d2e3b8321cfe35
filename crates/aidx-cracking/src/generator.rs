//! Experiment data generation.
//!
//! The paper's evaluation uses "a table of 100 million tuples populated with
//! unique randomly distributed integers" (Section 6). [`generate_unique_shuffled`]
//! reproduces that: the keys `0..n` in a uniformly random order, so that every
//! range predicate's selectivity maps directly to a range width.

use rand::prelude::*;
use rand::rngs::StdRng;

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
}
