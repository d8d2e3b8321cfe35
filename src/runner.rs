//! Checks of the scoped-thread clients the integration tests run ops on:
//! every op is answered once, at its index, however the ops split across
//! the clients, and several clients on one cracker stay exact.

mod tests {
    use crate::common::{answers, expected, ops, run_checked, run_clients, Op};
    use crate::prelude::*;

    fn shuffled(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| (i * 48271) % n as i64).collect()
    }

    fn crack(values: &[i64]) -> ConcurrentCracker {
        ConcurrentCracker::from_values(values.to_vec(), LatchProtocol::Piece)
    }

    /// `n` read-only counts over the keys of `values`, and their oracle answers.
    fn reads(values: &[i64], n: usize, selectivity: f64, seed: u64) -> (Vec<Op>, Vec<i128>) {
        let ops = ops(
            values.len() as u64,
            n,
            selectivity,
            Aggregate::Count,
            0.0,
            seed,
        );
        let expected = expected(values, &ops);
        (ops, expected)
    }

    #[test]
    fn sequential_run_collects_one_metric_per_query() {
        let values = shuffled(1000);
        let (ops, expected) = reads(&values, 20, 0.05, 1);
        let run = run_clients(&crack(&values), &ops, 1);
        assert_eq!(answers(&run), expected);
        let rows: u64 = run.iter().map(|(_, m)| m.result_count).sum();
        assert_eq!(rows as i128, expected.iter().sum::<i128>());
    }

    #[test]
    fn empty_query_list_yields_empty_run() {
        assert!(run_clients(&crack(&shuffled(10)), &[], 4).is_empty());
    }

    #[test]
    fn zero_clients_is_clamped_to_one() {
        let values = shuffled(300);
        let (ops, expected) = reads(&values, 5, 0.1, 3);
        assert_eq!(answers(&run_clients(&crack(&values), &ops, 0)), expected);
    }

    #[test]
    fn concurrent_clients_execute_every_query_correctly() {
        let values = shuffled(5000);
        let ops = ops(5000, 64, 0.02, Aggregate::Sum, 0.0, 9);
        for clients in [2, 4, 8] {
            let mismatches = run_checked(&crack(&values), &values, &ops, clients);
            assert_eq!(mismatches, vec![], "{clients} clients");
        }
    }

    #[test]
    fn concurrent_clients_execute_mixed_ops_correctly() {
        let values = shuffled(4000);
        let ops = ops(4000, 64, 0.02, Aggregate::Sum, 0.25, 11);
        assert!(ops.iter().any(Op::is_write), "the stream has writes");
        for clients in [1, 4] {
            let cracker = crack(&values);
            let mismatches = run_checked(&cracker, &values, &ops, clients);
            assert_eq!(mismatches, vec![], "{clients} clients");
            let written = cracker.delta_rows() + cracker.hole_count() as u64;
            assert!(written > 0, "the writes left rows in the delta or holes");
        }
    }

    #[test]
    fn uneven_splits_cover_all_queries() {
        // 10 ops across 3 clients: slices of 4, 3 and 3.
        let values = shuffled(300);
        let (ops, expected) = reads(&values, 10, 0.1, 4);
        assert_eq!(answers(&run_clients(&crack(&values), &ops, 3)), expected);
    }

    #[test]
    fn more_clients_than_queries_still_works() {
        let values = shuffled(100);
        let (ops, expected) = reads(&values, 3, 0.1, 4);
        assert_eq!(answers(&run_clients(&crack(&values), &ops, 8)), expected);
    }
}
