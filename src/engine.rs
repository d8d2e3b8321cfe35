//! Single-column engine checks: the cracker under the column and piece
//! protocols, the range-cracked cracker and adaptive merging, read now or
//! through a pin, against the scan and sort baselines and the oracle.

mod tests {
    use crate::common::{merging, ranged, run_checked, Column, Op, Pinned, RANGE_COMPACTION};
    use crate::prelude::*;
    use aidx_core::CompactionPolicy;

    /// The latch-attribution key of the column latch (after every piece's).
    const COLUMN_LATCH: u64 = u64::MAX;

    fn shuffled(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| (i * 48271) % n as i64).collect()
    }

    fn crack(values: &[i64], protocol: LatchProtocol) -> ConcurrentCracker {
        ConcurrentCracker::from_values(values.to_vec(), protocol)
    }

    /// Every cracker arm, named: both latch protocols and 3 key ranges.
    fn crackers(values: &[i64]) -> Vec<(&'static str, ConcurrentCracker)> {
        vec![
            ("crack-piece", crack(values, LatchProtocol::Piece)),
            ("crack-column", crack(values, LatchProtocol::Column)),
            ("range-3", ranged(values, 3, RANGE_COMPACTION)),
        ]
    }

    #[test]
    fn all_engines_agree_on_results() {
        let values = shuffled(2000);
        let scan = ScanBaseline::from_values(values.clone());
        let sort = SortIndex::build_from_values(values.clone());
        let merge = merging(&values, 256);
        let crackers = crackers(&values);
        for (low, high) in [(100, 700), (0, 2000), (1999, 2000), (500, 100)] {
            let (count, sum) = (scan.count(low, high), scan.sum(low, high));
            assert_eq!((sort.count(low, high), sort.sum(low, high)), (count, sum));
            assert_eq!(merge.count(low, high).0, count, "adaptive-merge");
            assert_eq!(merge.sum(low, high).0, sum, "adaptive-merge");
            for (label, cracker) in &crackers {
                let (got, metrics) = cracker.count(low, high);
                assert_eq!(got, count, "{label} count [{low}, {high})");
                assert_eq!(metrics.result_count, count, "{label}");
                assert_eq!(cracker.sum(low, high).0, sum, "{label} sum");
            }
        }
    }

    /// A fixed interleaving of reads, duplicate inserts, deletes of present
    /// and absent keys, on every concurrent arm.
    #[test]
    fn all_engines_agree_under_interleaved_writes() {
        let values = shuffled(1000);
        let ops = [
            Op::Sum(100, 600),
            Op::Insert(250),
            Op::Insert(250),
            Op::Delete(500),
            Op::Count(200, 600),
            Op::Insert(5000),
            Op::Delete(250),
            Op::Sum(0, 6000),
            Op::Delete(123_456),
            Op::Count(0, 6000),
        ];
        let merge = merging(&values, 256);
        assert_eq!(
            run_checked(&merge, &values, &ops, 1),
            vec![],
            "adaptive-merge"
        );
        for (label, cracker) in crackers(&values) {
            assert_eq!(run_checked(&cracker, &values, &ops, 1), vec![], "{label}");
        }
    }

    #[test]
    fn checked_engine_detects_a_wrong_answer() {
        /// A column that answers 7 to everything.
        struct Broken;
        impl Column for Broken {
            fn apply(&self, _: Op) -> (i128, QueryMetrics) {
                (7, QueryMetrics::default())
            }
        }
        let op = Op::Count(0, 10);
        assert_eq!(run_checked(&Broken, &[1, 2, 3], &[op], 1), vec![(op, 7, 3)]);
    }

    #[test]
    fn checked_engine_flags_no_mismatches_for_correct_engines() {
        let values = shuffled(300);
        let cracker = crack(&values, LatchProtocol::Piece);
        let ops = [Op::Count(10, 200), Op::Sum(50, 290)];
        assert_eq!(run_checked(&cracker, &values, &ops, 1), vec![]);
    }

    /// Pinned reads between writes that merge the delta piece by piece.
    #[test]
    fn checked_engine_verifies_the_snapshot_path() {
        let values = shuffled(1000);
        let cracker = crack(&values, LatchProtocol::Piece)
            .with_compaction(CompactionPolicy::rows(8).incremental(2));
        let ops = [
            Op::Sum(100, 600),
            Op::Insert(250),
            Op::Delete(500),
            Op::Count(200, 600),
            Op::Delete(250),
            Op::Sum(0, 6000),
            Op::Count(0, 1000),
        ];
        let mismatches = run_checked(&Pinned(cracker), &values, &ops, 1);
        assert_eq!(mismatches, vec![], "snapshot scans diverged");
    }

    #[test]
    fn crack_engine_exposes_its_cracker() {
        // Above the read path's 1 024-row crack floor, so the select cracks.
        let cracker = crack(&shuffled(8_192), LatchProtocol::Piece);
        cracker.sum(1_600, 6_400);
        assert!(cracker.crack_count() >= 2);
        assert!(cracker.check_invariants());
        let range = ranged(&shuffled(1000), 2, RANGE_COMPACTION);
        range.sum(100, 900);
        assert_eq!(range.range_splits().len(), 1);
        assert!(range.check_invariants());
    }

    #[test]
    fn merge_engine_exposes_progress() {
        let merge = merging(&shuffled(500), 100);
        merge.count(0, 500);
        assert!(merge.is_fully_merged());
    }

    /// A range-cracked column merging incrementally past 10 % of the column
    /// keeps a sustained insert stream from piling up pending rows.
    #[test]
    fn default_range_engine_keeps_the_delta_bounded() {
        let range = ranged(&shuffled(2000), 2, RANGE_COMPACTION);
        range.sum(0, 2000);
        for i in 0..2000 {
            range.insert(10_000 + i);
        }
        let probe = range.structure_probe();
        let pending = probe.pending_inserts + probe.tombstoned_rows;
        assert!(pending < 2000, "the delta stays bounded, saw {pending}");
        assert!(probe.compactions + probe.compaction_steps > 0, "merges ran");
        assert_eq!(range.count(10_000, 12_000).0, 2000);
        assert_eq!(probe.partition_load.len(), 2);
    }

    /// With no concurrent writers, a read through its own pin and a plain
    /// read are indistinguishable, on every cracker arm.
    #[test]
    fn snapshot_selects_agree_with_plain_selects_when_serialized() {
        let values = shuffled(1500);
        let pinned = crackers(&values).into_iter().map(|(_, c)| Pinned(c));
        for ((label, plain), pinned) in crackers(&values).into_iter().zip(pinned) {
            for op in [Op::Count(100, 700), Op::Sum(0, 1500), Op::Count(500, 100)] {
                assert_eq!(pinned.apply(op).0, plain.apply(op).0, "{label} {op:?}");
            }
        }
    }

    #[test]
    fn crack_engine_snapshot_select_releases_its_registration() {
        let pinned = Pinned(crack(&shuffled(800), LatchProtocol::Piece));
        pinned.apply(Op::Sum(100, 700));
        assert_eq!(
            pinned.0.live_snapshots(),
            0,
            "the per-read pin is transient"
        );
    }

    #[test]
    fn snapshot_scan_engine_routes_selects_through_snapshots() {
        let values = shuffled(600);
        let expected = ScanBaseline::from_values(values.clone()).count(50, 400) as i128;
        let pinned = Pinned(crack(&values, LatchProtocol::Piece));
        assert_eq!(pinned.apply(Op::Count(50, 400)).0, expected);
        assert_eq!(pinned.apply(Op::Insert(60)).0, 1);
        // Each read pins afresh, at the epoch it starts at.
        assert_eq!(pinned.apply(Op::Count(50, 400)).0, expected + 1);
        assert_eq!(pinned.0.live_snapshots(), 0);
    }

    #[test]
    fn crack_engine_reports_structure_and_latch_attribution() {
        // Above the read path's 1 024-row crack floor, so reads crack.
        let values = shuffled(16_384);
        let cracker = crack(&values, LatchProtocol::Piece);
        cracker.count(1_600, 6_400);
        cracker.sum(8_000, 14_400);
        let probe = cracker.structure_probe();
        assert_eq!(probe.rows, 16_384);
        assert!(probe.piece_count() >= 3, "two reads crack >= 3 pieces");

        let latches = cracker.latch_attribution();
        assert_eq!(latches.last().map(|(k, _)| *k), Some(COLUMN_LATCH));
        let acquisitions: u64 = latches
            .iter()
            .map(|(_, s)| s.read_acquisitions + s.write_acquisitions)
            .sum();
        assert!(acquisitions > 0, "reads acquire latches");

        // Every cracker arm reports its structure.
        for (label, cracker) in crackers(&values) {
            cracker.sum(1_600, 14_400);
            let probe = cracker.structure_probe();
            assert_eq!(probe.rows, 16_384, "{label}");
            assert!(probe.piece_count() >= 3, "{label}");
        }
        // A range arm reports its per-range load and, piece-latched,
        // attributes waits to its pieces and its column latch.
        let range = ranged(&values, 4, RANGE_COMPACTION);
        range.sum(1_600, 14_400);
        let load = range.structure_probe().partition_load;
        assert_eq!(load.len(), 4);
        assert!(load.iter().any(|&ops| ops > 0), "per-range ops counted");
        let latches = range.latch_attribution();
        assert!(latches.len() > 4, "a latch per piece plus the column latch");
        assert!(latches.iter().any(|(k, _)| *k == COLUMN_LATCH));
    }
}
