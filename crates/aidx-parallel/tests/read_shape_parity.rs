//! Cross-shape parity: every [`ReadShape`] of one range must describe the
//! same logical rows — on every backend, now and through a snapshot, and
//! across the range arm's straddle merges while partitions split.
//!
//! `Count == RowIds.len() == RowIdSet.len() == KeyRuns.total_rows()`,
//! `Sum ==` Σ keys of the runs, `RowIdSet.to_vec() == RowIds ==` sorted
//! rowids of the runs — all equal to a scan oracle over the logical rows.

use aidx_core::{
    CompactionPolicy, ConcurrentCracker, LatchProtocol, QueryMetrics, ReadAnswer, ReadShape,
    RefinementPolicy,
};
use aidx_parallel::{AdaptiveConfig, ChunkBackend, ChunkedCracker, RangePartitionedCracker};
use aidx_storage::RowId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

type Reader<'a> = Box<dyn Fn(i64, i64, ReadShape) -> (ReadAnswer, QueryMetrics) + 'a>;

/// The slice of each backend the parity body drives.
trait Engine {
    fn reader(&self) -> Reader<'_>;
    /// A reader frozen at a snapshot opened by this call.
    fn snapshot_reader(&self) -> Reader<'_>;
    fn insert_row(&self, value: i64, rowid: RowId);
    fn delete(&self, value: i64) -> u64;
    fn check_invariants(&self) -> bool;
}

impl Engine for ConcurrentCracker {
    fn reader(&self) -> Reader<'_> {
        Box::new(|low, high, shape| self.read(low, high, None, shape))
    }
    fn snapshot_reader(&self) -> Reader<'_> {
        let snap = self.snapshot();
        Box::new(move |low, high, shape| snap.read(low, high, shape))
    }
    fn insert_row(&self, value: i64, rowid: RowId) {
        ConcurrentCracker::insert_row(self, value, rowid);
    }
    fn delete(&self, value: i64) -> u64 {
        ConcurrentCracker::delete(self, value).0
    }
    fn check_invariants(&self) -> bool {
        ConcurrentCracker::check_invariants(self)
    }
}

impl Engine for ChunkedCracker {
    fn reader(&self) -> Reader<'_> {
        Box::new(|low, high, shape| self.read(low, high, shape).expect("concurrent chunks"))
    }
    fn snapshot_reader(&self) -> Reader<'_> {
        let snap = self.snapshot().expect("concurrent chunks");
        Box::new(move |low, high, shape| snap.read(low, high, shape))
    }
    fn insert_row(&self, value: i64, rowid: RowId) {
        ChunkedCracker::insert_row(self, value, rowid);
    }
    fn delete(&self, value: i64) -> u64 {
        ChunkedCracker::delete(self, value).0
    }
    fn check_invariants(&self) -> bool {
        ChunkedCracker::check_invariants(self)
    }
}

impl Engine for RangePartitionedCracker {
    fn reader(&self) -> Reader<'_> {
        Box::new(|low, high, shape| self.read(low, high, shape))
    }
    fn snapshot_reader(&self) -> Reader<'_> {
        let snap = self.snapshot();
        Box::new(move |low, high, shape| snap.read(low, high, shape))
    }
    fn insert_row(&self, value: i64, rowid: RowId) {
        RangePartitionedCracker::insert_row(self, value, rowid);
    }
    fn delete(&self, value: i64) -> u64 {
        RangePartitionedCracker::delete(self, value).0
    }
    fn check_invariants(&self) -> bool {
        RangePartitionedCracker::check_invariants(self)
    }
}

/// Duplicate-bearing keys in `0..n/2`, decorrelated from the positional
/// row ids.
fn keys(n: usize) -> Vec<i64> {
    (0..n as i64)
        .map(|i| (i * 48271) % (n as i64 / 2))
        .collect()
}

/// Reads `[low, high)` in every shape through `read` and checks the five
/// answers — and the sizes their metrics report — against each other and
/// against a scan of `rows` (rowid → key).
fn assert_shapes_agree(
    label: &str,
    read: &Reader<'_>,
    rows: &BTreeMap<RowId, i64>,
    ranges: &[(i64, i64)],
) {
    for &(low, high) in ranges {
        let at = format!("{label} [{low},{high})");
        let expected: Vec<RowId> = rows
            .iter()
            .filter(|&(_, &key)| key >= low && key < high)
            .map(|(&rowid, _)| rowid)
            .collect();
        let expected_sum: i128 = expected.iter().map(|rowid| rows[rowid] as i128).sum();
        let n = expected.len() as u64;

        let (count, m) = read(low, high, ReadShape::Count);
        assert_eq!(count.into_agg(), n as i128, "{at} count");
        assert_eq!(m.result_count, n, "{at} count metrics");

        let (sum, m) = read(low, high, ReadShape::Sum);
        assert_eq!(sum.into_agg(), expected_sum, "{at} sum");
        assert_eq!(m.result_count, n, "{at} sum metrics");

        let (flat, m) = read(low, high, ReadShape::RowIds);
        assert_eq!(flat.rows(), Some(n), "{at} flat rows()");
        assert_eq!(flat.into_rowids(), expected, "{at} flat rowids");
        assert_eq!(m.result_count, n, "{at} flat metrics");

        let (set, m) = read(low, high, ReadShape::RowIdSet);
        let set = set.into_set();
        assert_eq!(set.len() as u64, n, "{at} set len");
        assert_eq!(set.to_vec(), expected, "{at} set contents");
        assert_eq!(m.result_count, n, "{at} set metrics");
        assert_eq!(
            m.candidate_set_bytes,
            set.heap_bytes() as u64,
            "{at} set footprint"
        );

        let (runs, m) = read(low, high, ReadShape::KeyRuns);
        let runs = runs.into_runs();
        assert_eq!(runs.total_rows() as u64, n, "{at} runs total_rows");
        assert_eq!(m.result_count, n, "{at} runs metrics");
        let pairs = runs.into_sorted_pairs();
        assert_eq!(
            pairs.iter().map(|&(key, _)| key as i128).sum::<i128>(),
            expected_sum,
            "{at} runs keys"
        );
        assert!(
            pairs
                .iter()
                .all(|(key, rowid)| rows.get(rowid) == Some(key)),
            "{at} runs pair keys"
        );
        let mut run_ids: Vec<RowId> = pairs.iter().map(|&(_, rowid)| rowid).collect();
        run_ids.sort_unstable();
        assert_eq!(run_ids, expected, "{at} runs rowids");
    }
}

/// The one parity body: warm the index, pin a snapshot, churn (inserts,
/// deletes, re-inserts — with the policy's incremental compaction steps
/// and rebuilds firing underneath), then check every shape both now and
/// through the snapshot.
fn check_engine(label: &str, engine: &dyn Engine, n: usize) {
    let mut rows: BTreeMap<RowId, i64> = keys(n)
        .into_iter()
        .enumerate()
        .map(|(i, k)| (i as RowId, k))
        .collect();
    let half = n as i64 / 2;
    let ranges = [
        (i64::MIN, i64::MAX),
        (0, half),
        (half / 4, half / 2),
        (half / 3, half / 3 + 1),
        (half - 1, half + 50),
        (7, 7),
        (half, 0),
    ];
    let now = engine.reader();
    assert_shapes_agree(&format!("{label} fresh"), &now, &rows, &ranges);

    let pinned = engine.snapshot_reader();
    let before = rows.clone();
    let mut next_rowid = 10 * n as RowId;
    for step in 0..120i64 {
        let key = (step * 37) % half;
        let doomed = rows.values().filter(|&&k| k == key).count() as u64;
        assert_eq!(engine.delete(key), doomed, "{label} delete {key}");
        rows.retain(|_, k| *k != key);
        // Re-insert some deleted keys, add some fresh ones past the domain.
        for value in [key, half + step] {
            if step % 3 != 0 {
                engine.insert_row(value, next_rowid);
                rows.insert(next_rowid, value);
                next_rowid += 1;
            }
        }
    }
    assert_shapes_agree(&format!("{label} churned"), &now, &rows, &ranges);
    assert_shapes_agree(&format!("{label} pinned"), &pinned, &before, &ranges);
    drop(pinned);
    assert_shapes_agree(&format!("{label} released"), &now, &rows, &ranges);
    assert!(engine.check_invariants(), "{label}");
}

#[test]
fn every_shape_agrees_on_every_backend_now_and_pinned() {
    let n = 3000;
    let policy = CompactionPolicy::rows(16).incremental(4);
    for protocol in [
        LatchProtocol::Piece,
        LatchProtocol::Column,
        LatchProtocol::None,
    ] {
        let idx = ConcurrentCracker::from_values(keys(n), protocol).with_compaction(policy);
        check_engine(&format!("serial/{protocol:?}"), &idx, n);
    }
    let skipping = ConcurrentCracker::from_values(keys(n), LatchProtocol::Piece)
        .with_policy(RefinementPolicy::SkipOnContention)
        .with_compaction(policy);
    check_engine("serial/Piece/skip", &skipping, n);
    let chunked = ChunkedCracker::new(
        keys(n),
        3,
        ChunkBackend::Concurrent(LatchProtocol::Piece, RefinementPolicy::Always),
    )
    .with_compaction(policy);
    check_engine("chunked", &chunked, n);
    let range = RangePartitionedCracker::with_compaction(keys(n), 4, policy);
    check_engine("range", &range, n);
}

#[test]
fn every_shape_survives_straddle_merges_while_partitions_split() {
    // Clients race full-range reads of every shape against splits: a read
    // routed by the old generation reaches the splitting owner, which
    // answers its half, forwards the rest and merges the two partial
    // answers — the straddle arm, per shape. (Now-reads only: snapshots
    // fence re-partitioning.) The redirect window of one split is a few
    // queue slots wide, so the index is kept small (fast reads, many in
    // flight) and the loop runs to 60 splits — at the partition cap every
    // split is preceded by a merge — which puts each shape through the
    // straddle arm several times per run.
    let n = 4_000usize;
    let rows: Arc<BTreeMap<RowId, i64>> = Arc::new(
        keys(n)
            .into_iter()
            .enumerate()
            .map(|(i, k)| (i as RowId, k))
            .collect(),
    );
    let config = AdaptiveConfig {
        check_interval: None,
        imbalance_threshold: 1.05,
        min_partition_rows: 64,
        min_window_ops: 1,
        max_partitions: 6,
        steal: false,
        ..AdaptiveConfig::default()
    };
    let idx = Arc::new(RangePartitionedCracker::adaptive(keys(n), 3, config));
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..3)
        .map(|_| {
            let (idx, rows, stop) = (Arc::clone(&idx), Arc::clone(&rows), Arc::clone(&stop));
            thread::spawn(move || {
                let read: Reader<'_> = Box::new(|low, high, shape| idx.read(low, high, shape));
                let mut rounds = 0u32;
                while !stop.load(Ordering::Acquire) || rounds == 0 {
                    assert_shapes_agree("racing", &read, &rows, &[(i64::MIN, i64::MAX)]);
                    rounds += 1;
                }
            })
        })
        .collect();
    for round in 0..400 {
        for i in 0..150i64 {
            let low = (round * 37 + i) % 600;
            idx.count(low, low + 40);
        }
        idx.try_rebalance();
        if idx.splits_performed() >= 60 {
            break;
        }
    }
    stop.store(true, Ordering::Release);
    for client in clients {
        client.join().unwrap();
    }
    assert!(
        idx.splits_performed() >= 1,
        "the race must exercise at least one split"
    );
    let read: Reader<'_> = Box::new(|low, high, shape| idx.read(low, high, shape));
    assert_shapes_agree(
        "settled",
        &read,
        &rows,
        &[(i64::MIN, i64::MAX), (100, 1500)],
    );
    assert!(idx.check_invariants());
}
