//! Checks of the seeded op stream the integration tests replay: its
//! length, range widths, write share and determinism.

mod tests {
    use crate::common::{ops, Op};
    use crate::prelude::*;

    fn width(op: &Op) -> i64 {
        match *op {
            Op::Count(low, high) | Op::Sum(low, high) => high - low,
            Op::Insert(_) | Op::Delete(_) => panic!("{op:?} is a write"),
        }
    }

    #[test]
    fn generates_requested_count_and_width() {
        let ops = ops(1_000_000, 100, 0.01, Aggregate::Count, 0.0, 1);
        assert_eq!(ops.len(), 100);
        for op in &ops {
            let Op::Count(low, high) = *op else {
                panic!("{op:?} is not a count");
            };
            assert_eq!(high - low, 10_000);
            assert!(low >= 0 && high <= 1_000_000);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ops(10_000, 50, 0.1, Aggregate::Sum, 0.2, 7);
        assert_eq!(a, ops(10_000, 50, 0.1, Aggregate::Sum, 0.2, 7));
        assert_ne!(a, ops(10_000, 50, 0.1, Aggregate::Sum, 0.2, 8));
    }

    #[test]
    fn very_high_selectivity_clamps_to_domain() {
        for op in ops(1000, 20, 0.9, Aggregate::Count, 0.0, 2) {
            assert_eq!(width(&op), 900);
            assert!(matches!(op, Op::Count(_, high) if high <= 1000));
        }
        for op in ops(1000, 5, 5.0, Aggregate::Count, 0.0, 2) {
            assert_eq!(op, Op::Count(0, 1000));
        }
    }

    #[test]
    fn mixed_workloads_hit_the_requested_write_ratio() {
        let mixed = ops(100_000, 1000, 0.001, Aggregate::Sum, 0.1, 13);
        assert_eq!(mixed.len(), 1000);
        let writes = mixed.iter().filter(|op| op.is_write()).count();
        assert!(
            (60..=140).contains(&writes),
            "10% of 1000 ops should be ~100 writes, got {writes}"
        );
        let inserts = mixed
            .iter()
            .filter(|op| matches!(op, Op::Insert(_)))
            .count();
        assert!(inserts > 0 && inserts < writes, "both write kinds appear");
        assert_eq!(mixed, ops(100_000, 1000, 0.001, Aggregate::Sum, 0.1, 13));
        assert_ne!(mixed, ops(100_000, 1000, 0.001, Aggregate::Sum, 0.1, 14));
    }

    #[test]
    fn zero_write_ratio_is_exactly_the_read_only_workload() {
        let reads = ops(10_000, 50, 0.01, Aggregate::Count, 0.0, 5);
        assert!(reads.iter().all(|op| width(op) == 100));
        assert!(ops(10_000, 50, 0.01, Aggregate::Count, 1.0, 5)
            .iter()
            .all(Op::is_write));
    }

    #[test]
    fn tiny_domains_do_not_panic() {
        for domain in [0, 1] {
            let ops = ops(domain, 30, 0.5, Aggregate::Count, 0.5, 0);
            assert_eq!(ops.len(), 30);
            for op in ops {
                match op {
                    Op::Insert(key) | Op::Delete(key) => assert_eq!(key, 0),
                    read => assert_eq!(read, Op::Count(0, 1)),
                }
            }
        }
    }
}
