//! The benchmark's own seeded load generator.
//!
//! Every column and every operation comes from a splitmix64 stream derived
//! from `--seed`, and nothing here depends on the repo's generators
//! (`aidx-workload`, `aidx-storage::generator`, `shims/rand`): a later PR
//! cannot change the load by editing them. The FNV-1a hash of each op
//! stream goes into the ledger so two commits can prove they ran the same
//! load.

/// splitmix64 (Steele, Lea, Flood 2014): one 64-bit state, full period,
/// passes BigCrush — and ten lines, so it can live here.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// An independent stream for one purpose (`tag`), so adding a draw to
    /// one generator never shifts the values another one sees.
    pub fn stream(seed: u64, tag: &str) -> Self {
        let mut h = Fnv1a::new();
        h.write_bytes(tag.as_bytes());
        let mut rng = SplitMix64::new(seed ^ h.finish());
        // One step decorrelates seeds that differ in few bits.
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (multiply-shift; the bias is below 2^-32 for
    /// every `n` used here). `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates), so range counts and sums
/// have closed forms.
pub fn permutation(n: usize, rng: &mut SplitMix64) -> Vec<i64> {
    let mut values: Vec<i64> = (0..n as i64).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        values.swap(i, j);
    }
    values
}

/// `n` keys uniform in `[0, domain)`, duplicates included.
pub fn uniform_column(n: usize, domain: u64, rng: &mut SplitMix64) -> Vec<i64> {
    (0..n).map(|_| rng.below(domain) as i64).collect()
}

/// Zipfian bucket chooser: bucket `k` (0-based) has weight `1/(k+1)^theta`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(buckets: usize, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(buckets);
        let mut acc = 0.0;
        for k in 0..buckets {
            acc += 1.0 / ((k + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    pub fn new() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub fn write_i64(&mut self, v: i64) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs for seed 1234567 from the public-domain reference
        // implementation (Vigna, splitmix64.c).
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
    }

    #[test]
    fn permutation_is_a_permutation_and_seeded() {
        let a = permutation(1000, &mut SplitMix64::new(7));
        let b = permutation(1000, &mut SplitMix64::new(7));
        let c = permutation(1000, &mut SplitMix64::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().enumerate().all(|(i, &v)| v == i as i64));
    }

    #[test]
    fn zipf_prefers_low_buckets_and_stays_in_range() {
        let zipf = Zipf::new(256, 1.0);
        let mut rng = SplitMix64::new(3);
        let mut hits = vec![0u32; 256];
        for _ in 0..100_000 {
            hits[zipf.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[7] && hits[7] > hits[200]);
        // Bucket 0 carries 1/H_256 ≈ 16.3 % of the mass.
        assert!((14_000..19_000).contains(&hits[0]), "{}", hits[0]);
    }

    #[test]
    fn fnv_matches_known_vectors() {
        let mut h = Fnv1a::new();
        assert_eq!(h.finish(), 0xcbf29ce484222325);
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
        let mut h = Fnv1a::new();
        h.write_bytes(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }
}
