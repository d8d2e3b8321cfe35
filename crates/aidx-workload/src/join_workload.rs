//! Join workload generation: a dimension/fact ("star") table pair with
//! key/foreign-key structure, plus deterministic join-query sequences
//! for the `aidx-table` equi-join benchmarks.
//!
//! Three knobs shape the workload:
//!
//! * **FK skew** — foreign keys drawn zipfian over the dimension ranks
//!   (the same bucketed rank distribution the skew benchmarks use), so a
//!   hot head of dimension rows collects most fact matches.
//! * **Key stride** — dimension keys spaced `stride` apart in a
//!   `stride`-times-wider domain while fact FKs stay uniform over the
//!   whole domain: only ~`1/stride` of fact rows match anything, and the
//!   two key sets interleave instead of aligning (the low-overlap case:
//!   most probe rows find nothing in the small build).
//! * **Query placement** — key-window queries (a range filter on the
//!   dimension's join column, which the join engine converts into a
//!   cracked window on the fact FK column) or attribute filters (which
//!   leave the key envelope wide).

use crate::generator::{zipf_cdf, ZIPF_BUCKETS};
use aidx_table::ColumnPredicate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Column index of the dimension table's join key.
pub const DIM_KEY_COL: usize = 0;
/// Column index of the dimension table's filterable attribute.
pub const DIM_ATTR_COL: usize = 1;
/// Column index of the fact table's foreign key.
pub const FACT_FK_COL: usize = 0;
/// Column index of the fact table's payload value.
pub const FACT_VAL_COL: usize = 1;

/// One join query: conjunctive filters for each side of the equi-join
/// `dim[key] == fact[fk]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinQuery {
    /// Filters on the dimension (left) table.
    pub dim_filters: Vec<ColumnPredicate>,
    /// Filters on the fact (right) table.
    pub fact_filters: Vec<ColumnPredicate>,
}

/// Deterministic generator of a dimension/fact table pair and join-query
/// sequences over them.
#[derive(Debug, Clone)]
pub struct JoinWorkload {
    dim_rows: usize,
    fact_rows: usize,
    key_stride: i64,
    fk_theta: Option<f64>,
    seed: u64,
}

impl JoinWorkload {
    /// A workload of `dim_rows` dimension tuples with dense unique keys
    /// and `fact_rows` fact tuples with uniform foreign keys (every fact
    /// row matches exactly one dimension row).
    pub fn new(dim_rows: usize, fact_rows: usize, seed: u64) -> Self {
        JoinWorkload {
            dim_rows,
            fact_rows,
            key_stride: 1,
            fk_theta: None,
            seed,
        }
    }

    /// Spaces dimension keys `stride` apart (builder style). Fact FKs
    /// stay uniform over the widened domain, so only ~`1/stride` of them
    /// match and the key sets interleave — the low-overlap shape.
    pub fn with_key_stride(mut self, stride: i64) -> Self {
        self.key_stride = stride.max(1);
        self
    }

    /// Draws fact FKs zipfian over the dimension ranks with exponent
    /// `theta` (builder style): every FK still matches, but a hot head
    /// of dimension keys collects most of them.
    pub fn with_fk_skew(mut self, theta: f64) -> Self {
        self.fk_theta = Some(theta);
        self
    }

    /// Width of the key domain `[0, dim_rows * stride)`.
    pub fn key_domain(&self) -> i64 {
        (self.dim_rows as i64).saturating_mul(self.key_stride)
    }

    /// The dimension table's columns: unique join keys (multiples of the
    /// stride, in shuffled row order) and a uniform attribute in
    /// `[0, dim_rows)`.
    pub fn dimension_columns(&self) -> Vec<(String, Vec<i64>)> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut keys: Vec<i64> = (0..self.dim_rows as i64)
            .map(|rank| rank * self.key_stride)
            .collect();
        // Fisher–Yates: key order must not correlate with row order, or
        // the crackers start out accidentally converged.
        for i in (1..keys.len()).rev() {
            let j = rng.gen_range(0..=i as u64) as usize;
            keys.swap(i, j);
        }
        let attrs: Vec<i64> = (0..self.dim_rows)
            .map(|_| rng.gen_range(0..self.dim_rows.max(1) as u64) as i64)
            .collect();
        vec![("key".to_string(), keys), ("attr".to_string(), attrs)]
    }

    /// The fact table's columns: foreign keys (uniform over the key
    /// domain, or zipfian over the dimension ranks) and a sequential
    /// payload.
    pub fn fact_columns(&self) -> Vec<(String, Vec<i64>)> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x0FAC_75EED);
        let domain = self.key_domain().max(1);
        let cdf = self.fk_theta.map(|theta| zipf_cdf(ZIPF_BUCKETS, theta));
        let fks: Vec<i64> = (0..self.fact_rows)
            .map(|_| match &cdf {
                None => rng.gen_range(0..domain as u64) as i64,
                Some(cdf) => {
                    // Bucket the dimension *ranks* zipfian, uniform
                    // within the bucket, then map the rank to its key —
                    // a skewed FK always matches a real dimension key.
                    let u = rng.gen_range(0..=u32::MAX as u64) as f64 / (u32::MAX as f64 + 1.0);
                    let bucket = cdf.partition_point(|&c| c < u);
                    let span = self.dim_rows.div_ceil(ZIPF_BUCKETS).max(1);
                    let base = (bucket * span).min(self.dim_rows.saturating_sub(1));
                    let cap = (base + span).min(self.dim_rows.max(1));
                    let rank = if base >= cap {
                        base as u64
                    } else {
                        rng.gen_range(base as u64..cap as u64)
                    };
                    rank as i64 * self.key_stride
                }
            })
            .collect();
        let vals: Vec<i64> = (0..self.fact_rows as i64).collect();
        vec![("fk".to_string(), fks), ("val".to_string(), vals)]
    }

    /// `n` join queries whose dimension filter is a key-range window of
    /// the given selectivity (fraction of the key domain), placed
    /// uniformly at random. The join engine clips the fact side to the
    /// window, cracking the FK column query by query.
    pub fn key_window_queries(&self, n: usize, selectivity: f64) -> Vec<JoinQuery> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9E37_79B9);
        let domain = self.key_domain().max(1);
        let width = ((selectivity.clamp(0.0, 1.0) * domain as f64) as i64).clamp(1, domain);
        let max_low = (domain - width).max(0);
        (0..n)
            .map(|_| {
                let low = if max_low == 0 {
                    0
                } else {
                    rng.gen_range(0..=max_low as u64) as i64
                };
                JoinQuery {
                    dim_filters: vec![ColumnPredicate::new(DIM_KEY_COL, low, low + width)],
                    fact_filters: Vec::new(),
                }
            })
            .collect()
    }

    /// `n` join queries whose dimension filter is an *attribute* range
    /// of the given selectivity: the surviving dimension rows scatter
    /// over the whole key domain, so the join's key window stays open and
    /// the dimension side filters its key runs through a candidate set.
    pub fn attr_filter_queries(&self, n: usize, selectivity: f64) -> Vec<JoinQuery> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xA77F_117E);
        let attr_domain = self.dim_rows.max(1) as i64;
        let width =
            ((selectivity.clamp(0.0, 1.0) * attr_domain as f64) as i64).clamp(1, attr_domain);
        let max_low = (attr_domain - width).max(0);
        (0..n)
            .map(|_| {
                let low = if max_low == 0 {
                    0
                } else {
                    rng.gen_range(0..=max_low as u64) as i64
                };
                JoinQuery {
                    dim_filters: vec![ColumnPredicate::new(DIM_ATTR_COL, low, low + width)],
                    fact_filters: Vec::new(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn dimension_keys_are_unique_strided_and_shuffled() {
        let w = JoinWorkload::new(500, 100, 7).with_key_stride(8);
        let cols = w.dimension_columns();
        assert_eq!(cols[DIM_KEY_COL].0, "key");
        let keys = &cols[DIM_KEY_COL].1;
        assert_eq!(keys.len(), 500);
        let unique: BTreeSet<i64> = keys.iter().copied().collect();
        assert_eq!(unique.len(), 500, "keys are unique");
        assert!(unique.iter().all(|k| k % 8 == 0 && (0..4000).contains(k)));
        let sorted: Vec<i64> = unique.into_iter().collect();
        assert_ne!(&sorted, keys, "row order is shuffled");
        // Deterministic across calls.
        assert_eq!(w.dimension_columns(), w.dimension_columns());
    }

    #[test]
    fn uniform_fks_cover_the_domain_and_skewed_fks_concentrate() {
        let uniform = JoinWorkload::new(256, 20_000, 11);
        let fk_u = &uniform.fact_columns()[FACT_FK_COL].1;
        assert!(fk_u.iter().all(|&k| (0..256).contains(&k)));
        let head_u = fk_u.iter().filter(|&&k| k < 26).count();

        let skewed = JoinWorkload::new(256, 20_000, 11).with_fk_skew(1.0);
        let fk_z = &skewed.fact_columns()[FACT_FK_COL].1;
        // Skewed FKs always land on real dimension keys.
        assert!(fk_z.iter().all(|&k| (0..256).contains(&k)));
        let head_z = fk_z.iter().filter(|&&k| k < 26).count();
        assert!(
            head_z > head_u * 2,
            "zipfian head ({head_z}) should dominate the uniform head ({head_u})"
        );
    }

    #[test]
    fn query_generators_respect_selectivity_and_columns() {
        let w = JoinWorkload::new(1000, 5000, 3).with_key_stride(4);
        for q in w.key_window_queries(64, 0.02) {
            assert_eq!(q.dim_filters.len(), 1);
            let p = q.dim_filters[0];
            assert_eq!(p.column, DIM_KEY_COL);
            assert_eq!(p.width(), 80, "2% of the 4000-wide key domain");
            assert!(p.low >= 0 && p.high <= 4000);
            assert!(q.fact_filters.is_empty());
        }
        for q in w.attr_filter_queries(64, 0.05) {
            let p = q.dim_filters[0];
            assert_eq!(p.column, DIM_ATTR_COL);
            assert_eq!(p.width(), 50, "5% of the 1000-wide attr domain");
        }
    }
}
