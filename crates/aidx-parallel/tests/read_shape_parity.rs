//! Backend parity, reads and writes.
//!
//! **Cross-shape reads**: every [`ReadShape`] of one range must describe
//! the same logical rows — on every backend, now and through a snapshot,
//! and across the range arm's straddle merges while partitions split.
//! `Count == RowIds.len() == RowIdSet.len() == KeyRuns.total_rows()`,
//! `Sum ==` Σ keys of the runs, `RowIdSet.to_vec() == RowIds ==` sorted
//! rowids of the runs — all equal to a scan oracle over the logical rows.
//!
//! **One write stream**: one seeded [`WriteOp`] sequence must report the
//! same rows affected, op for op, and leave the same rows behind on every
//! backend — the tuple oracle's.

use aidx_core::{
    ColumnRead, CompactionPolicy, ConcurrentCracker, Index, LatchProtocol, ReadShape,
    RefinementPolicy, WriteOp,
};
use aidx_parallel::{AdaptiveConfig, RangePartitionedCracker};
use aidx_storage::RowId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

/// The two counters the write body needs that [`Index`] does not expose.
trait Counted: Index {
    /// The backend's own logical row count.
    fn len(&self) -> usize;
    /// Compaction rebuilds plus incremental steps so far.
    fn merges(&self) -> u64;
}

impl Counted for ConcurrentCracker {
    fn len(&self) -> usize {
        self.logical_len() as usize
    }
    fn merges(&self) -> u64 {
        self.compactions_performed() + self.compaction_steps_performed()
    }
}

impl Counted for RangePartitionedCracker {
    fn len(&self) -> usize {
        RangePartitionedCracker::len(self)
    }
    fn merges(&self) -> u64 {
        self.delta_stats().1
    }
}

/// Duplicate-bearing keys in `0..n/2`, decorrelated from the positional
/// row ids.
fn keys(n: usize) -> Vec<i64> {
    (0..n as i64)
        .map(|i| (i * 48271) % (n as i64 / 2))
        .collect()
}

/// The rows of `keys(n)` under positional row ids: the scan oracle.
fn keyed_rows(n: usize) -> BTreeMap<RowId, i64> {
    let rows = keys(n).into_iter().enumerate();
    rows.map(|(i, key)| (i as RowId, key)).collect()
}

/// Reads `[low, high)` in every shape through `reader` and checks the
/// five answers — and the sizes their metrics report — against each other
/// and against a scan of `rows` (rowid → key).
fn assert_shapes_agree(
    label: &str,
    reader: &dyn ColumnRead,
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

        let read = |shape| reader.read(low, high, shape);
        let (count, m) = read(ReadShape::Count);
        assert_eq!(count.into_agg(), n as i128, "{at} count");
        assert_eq!(m.result_count, n, "{at} count metrics");

        let (sum, m) = read(ReadShape::Sum);
        assert_eq!(sum.into_agg(), expected_sum, "{at} sum");
        assert_eq!(m.result_count, n, "{at} sum metrics");

        let (flat, m) = read(ReadShape::RowIds);
        assert_eq!(flat.rows(), Some(n), "{at} flat rows()");
        assert_eq!(flat.into_rowids(), expected, "{at} flat rowids");
        assert_eq!(m.result_count, n, "{at} flat metrics");

        let (set, m) = read(ReadShape::RowIdSet);
        let set = set.into_set();
        assert_eq!(set.len() as u64, n, "{at} set len");
        assert_eq!(set.to_vec(), expected, "{at} set contents");
        assert_eq!(m.result_count, n, "{at} set metrics");
        assert_eq!(
            m.candidate_set_bytes,
            set.heap_bytes() as u64,
            "{at} set footprint"
        );

        let (runs, m) = read(ReadShape::KeyRuns);
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
fn check_engine(label: &str, engine: &dyn Index, n: usize) {
    let mut rows = keyed_rows(n);
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
    let now: &dyn ColumnRead = engine;
    assert_shapes_agree(&format!("{label} fresh"), now, &rows, &ranges);

    let pinned = engine.pin();
    let before = rows.clone();
    let mut next_rowid = 10 * n as RowId;
    for step in 0..120i64 {
        let key = (step * 37) % half;
        let doomed = rows.values().filter(|&&k| k == key).count() as u64;
        let removed = engine.delete(key).0;
        assert_eq!(removed, doomed, "{label} delete {key}");
        rows.retain(|_, k| *k != key);
        // Re-insert some deleted keys, add some fresh ones past the domain.
        for value in [key, half + step] {
            if step % 3 != 0 {
                let rowid = next_rowid;
                engine.insert_row(value, rowid);
                rows.insert(next_rowid, value);
                next_rowid += 1;
            }
        }
    }
    assert_shapes_agree(&format!("{label} churned"), now, &rows, &ranges);
    assert_shapes_agree(&format!("{label} pinned"), &*pinned, &before, &ranges);
    drop(pinned);
    assert_shapes_agree(&format!("{label} released"), now, &rows, &ranges);
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
    let range = RangePartitionedCracker::with_compaction(keys(n), 4, policy);
    check_engine("range", &range, n);
}

/// One column above the pivot policy's floor (256 Ki live rows in a
/// piece): all five shapes, now and pinned, over pieces that a crack body
/// publishing two cracks at a time produced (the first read's bounds
/// land in the one oversized piece), then across a delete and an insert
/// next to each range.
#[test]
fn every_shape_agrees_across_pivot_cracks_now_and_pinned() {
    let n = 300_000usize;
    let mut rows = keyed_rows(n);
    let idx = ConcurrentCracker::from_values(keys(n), LatchProtocol::Piece)
        .with_compaction(CompactionPolicy::rows(16).incremental(4));
    let half = n as i64 / 2;
    let ranges = [
        (half / 8, half / 8 + 900),
        (half / 2 - 5, half / 2 + 5),
        (half - 400, half + 50),
    ];
    let (_, first) = idx.read(ranges[0].0, ranges[0].1, None, ReadShape::Count);
    assert!(first.cracks_performed > 2, "the pivot policy fired");
    assert_shapes_agree("above-floor fresh", &idx, &rows, &ranges);
    let pinned = idx.pin();
    let before = rows.clone();
    for (step, &(low, _)) in ranges.iter().enumerate() {
        let key = low + 1;
        assert_eq!(idx.delete(key).0, 2, "every key occurs twice");
        rows.retain(|_, k| *k != key);
        let rowid = (10 * n + step) as RowId;
        idx.insert_row(key + 1, rowid);
        rows.insert(rowid, key + 1);
    }
    assert_shapes_agree("above-floor churned", &idx, &rows, &ranges);
    assert_shapes_agree("above-floor pinned", &*pinned, &before, &ranges);
    drop(pinned);
    assert!(idx.check_invariants());
}

/// The adversarial input of plain cracking — bounds sweeping the domain
/// left to right, each query's both bounds in the never-cracked tail — on
/// a column that puts every index of every backend above the pivot
/// policy's floor: exact answers, intact invariants, and pivot cracks
/// riding along with the bound cracks.
#[test]
fn a_sequential_sweep_is_exact_on_every_backend_above_the_pivot_floor() {
    let n = 640_000usize; // two partitions of 320 k rows
    let column = || -> Vec<i64> { (0..n as i64).map(|i| (i * 48271) % n as i64).collect() };
    let queries = 40i64;
    let stride = n as i64 / queries;
    // `parts`: indexes that resolve the first query's bounds.
    let sweep = |label: &str, engine: &dyn Index, parts: u32| {
        for k in 0..queries {
            let low = k * stride + stride / 4;
            let high = low + stride / 2;
            let (count, metrics) = engine.count(low, high);
            assert_eq!(count, (high - low) as u64, "{label} count {k}");
            if k == 0 {
                assert!(
                    metrics.cracks_performed > 2 * parts,
                    "{label}: no pivot crack beside the {} bound cracks",
                    2 * parts
                );
            }
            let (sum, _) = engine.sum(low, high);
            let expected = (low + high - 1) as i128 * (high - low) as i128 / 2;
            assert_eq!(sum, expected, "{label} sum {k}");
        }
        assert!(engine.check_invariants(), "{label}");
    };
    for protocol in [
        LatchProtocol::Piece,
        LatchProtocol::Column,
        LatchProtocol::None,
    ] {
        let idx = ConcurrentCracker::from_values(column(), protocol);
        sweep(&format!("serial/{protocol:?}"), &idx, 1);
        // Every crack is one of the 80 bounds or a pivot crack, and the
        // sweep added far fewer of those than it resolved bounds.
        let cracks = idx.crack_count();
        assert!((81..120).contains(&cracks), "{protocol:?}: {cracks} cracks");
    }
    let range = RangePartitionedCracker::new(column(), 2);
    sweep("range", &range, 1);
}

/// Splitmix64: the write stream must be the same on every backend.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> Option<T> {
        (!from.is_empty()).then(|| from[self.below(from.len() as u64) as usize])
    }
}

const WRITE_ROWS: usize = 1000;
const WRITE_KEYS: i64 = 200;

/// The seed column of the write body: `WRITE_ROWS` rows over
/// `WRITE_KEYS` keys (five duplicates each) plus a row at either edge of
/// the key domain.
fn write_seed() -> Vec<i64> {
    let mut values: Vec<i64> = (0..WRITE_ROWS as i64)
        .map(|i| (i * 48271) % WRITE_KEYS)
        .collect();
    values.extend([i64::MIN, i64::MAX]);
    values
}

/// One seeded write stream with, per op, the rows the tuple oracle says
/// it affects, and the rows left at the end. Half the ops insert (keys
/// repeat, so every key has duplicates in the seed column *and* in the
/// delta; the domain edges are written too), enough of them to push any
/// backend's delta across a `rows(64)` threshold several times; the rest
/// delete a key (present, absent, or a domain edge) or one row: a seed
/// row, a row inserted a few ops ago, a row that is already gone, or a
/// live row under the wrong key.
fn write_stream() -> (Vec<(WriteOp, u64)>, BTreeMap<RowId, i64>) {
    let mut rng = Rng(0x5EED_0016);
    let mut rows: BTreeMap<RowId, i64> = write_seed()
        .into_iter()
        .enumerate()
        .map(|(i, k)| (i as RowId, k))
        .collect();
    let seed_rows = rows.len() as RowId;
    let mut next_rowid = 10 * seed_rows;
    let mut recent: Vec<RowId> = Vec::new();
    let mut gone: Vec<(RowId, i64)> = Vec::new();
    let mut ops = Vec::new();
    let key = |rng: &mut Rng| match rng.below(16) {
        0 => i64::MIN,
        1 => i64::MAX,
        // A tenth of the plain keys lie past the seeded domain.
        _ => rng.below(WRITE_KEYS as u64 * 11 / 10) as i64,
    };
    for _ in 0..1600 {
        let op = match rng.below(10) {
            0..=4 => {
                let rowid = next_rowid;
                next_rowid += 1;
                recent.push(rowid);
                WriteOp::Insert {
                    value: key(&mut rng),
                    rowid,
                }
            }
            5 => WriteOp::Delete {
                value: key(&mut rng),
            },
            kind => {
                let live: Vec<RowId> = rows.keys().copied().collect();
                let target = match kind {
                    6 => rng
                        .pick(&live[..live.partition_point(|&r| r < seed_rows)])
                        .map(|r| (r, rows[&r])),
                    7 => recent.pop().and_then(|r| Some((r, *rows.get(&r)?))),
                    8 => rng.pick(&gone),
                    _ => rng.pick(&live).map(|r| (r, rows[&r] ^ 1)),
                };
                let Some((rowid, value)) = target else {
                    continue;
                };
                WriteOp::DeleteRow { value, rowid }
            }
        };
        let affected = match op {
            WriteOp::Insert { value, rowid } => {
                rows.insert(rowid, value);
                1
            }
            WriteOp::Delete { value } => {
                let before = rows.len();
                rows.retain(|&rowid, k| {
                    let doomed = *k == value;
                    if doomed {
                        gone.push((rowid, value));
                    }
                    !doomed
                });
                (before - rows.len()) as u64
            }
            WriteOp::DeleteRow { value, rowid } => {
                let doomed = rows.get(&rowid) == Some(&value);
                if doomed {
                    rows.remove(&rowid);
                    gone.push((rowid, value));
                }
                doomed as u64
            }
        };
        ops.push((op, affected));
    }
    (ops, rows)
}

/// The one write body: apply the stream, checking the rows affected op
/// by op, then the surviving rows, the backend's own row count, and its
/// invariants.
fn check_writes(label: &str, engine: &dyn Counted) {
    let (ops, rows) = write_stream();
    for (i, &(op, expected)) in ops.iter().enumerate() {
        assert_eq!(engine.write(op).0, expected, "{label} op {i}: {op:?}");
    }
    let survivors: Vec<RowId> = rows
        .iter()
        .filter(|&(_, &key)| key < i64::MAX)
        .map(|(&rowid, _)| rowid)
        .collect();
    let (all, _) = engine.select_rowids(i64::MIN, i64::MAX);
    assert_eq!(all, survivors, "{label} surviving rows");
    assert_eq!(engine.len(), rows.len(), "{label} row count");
    assert!(engine.check_invariants(), "{label}");
}

#[test]
fn the_write_stream_hits_every_corner() {
    let (ops, _) = write_stream();
    let seed_rows = write_seed().len() as RowId;
    let hits = |wanted: &dyn Fn(WriteOp, u64) -> bool| {
        ops.iter().filter(|&&(op, rows)| wanted(op, rows)).count()
    };
    let edge = |value: i64| value == i64::MIN || value == i64::MAX;
    for (corner, seen) in [
        (
            "edge inserts",
            hits(&|op, _| matches!(op, WriteOp::Insert { value, .. } if edge(value))),
        ),
        (
            "edge deletes that remove rows",
            hits(&|op, rows| matches!(op, WriteOp::Delete { value } if edge(value)) && rows > 0),
        ),
        (
            "deletes of several rows",
            hits(&|op, rows| matches!(op, WriteOp::Delete { .. }) && rows > 1),
        ),
        (
            "deletes of an absent key",
            hits(&|op, rows| matches!(op, WriteOp::Delete { .. }) && rows == 0),
        ),
        (
            "row deletes of seed rows",
            hits(&|op, rows| {
                matches!(op, WriteOp::DeleteRow { rowid, .. } if rowid < seed_rows) && rows == 1
            }),
        ),
        (
            "row deletes of inserted rows",
            hits(&|op, rows| {
                matches!(op, WriteOp::DeleteRow { rowid, .. } if rowid >= seed_rows) && rows == 1
            }),
        ),
        (
            "row deletes that miss",
            hits(&|op, rows| matches!(op, WriteOp::DeleteRow { .. }) && rows == 0),
        ),
    ] {
        assert!(seen >= 10, "only {seen} {corner}");
    }
}

#[test]
fn one_write_stream_gives_the_same_answers_on_every_backend() {
    let policy = CompactionPolicy::rows(64);
    let merged = |label: &str, engine: &dyn Counted| {
        check_writes(label, engine);
        assert!(engine.merges() > 0, "{label} never crossed rows(64)");
    };
    for protocol in [
        LatchProtocol::Piece,
        LatchProtocol::Column,
        LatchProtocol::None,
    ] {
        let idx = ConcurrentCracker::from_values(write_seed(), protocol).with_compaction(policy);
        merged(&format!("serial/{protocol:?}"), &idx);
    }
    let skipping = ConcurrentCracker::from_values(write_seed(), LatchProtocol::Piece)
        .with_policy(RefinementPolicy::SkipOnContention)
        .with_compaction(policy.incremental(4));
    merged("serial/Piece/skip/incremental", &skipping);
    let range = RangePartitionedCracker::with_compaction(write_seed(), 4, policy);
    merged("range", &range);
}

#[test]
fn the_write_stream_gives_the_same_answers_while_partitions_split() {
    // The adaptive range arm, with partitions splitting and merging under
    // the stream: writes routed by a stale table reach the owner of the
    // key through the redirects.
    let config = AdaptiveConfig {
        check_interval: None,
        imbalance_threshold: 1.05,
        min_partition_rows: 16,
        min_window_ops: 1,
        max_partitions: 5,
        steal: false,
        ..AdaptiveConfig::default()
    };
    let adaptive = RangePartitionedCracker::adaptive(write_seed(), 3, config);
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        scope.spawn(|| {
            let mut round = 0i64;
            while !stop.load(Ordering::Acquire) {
                for i in 0..40 {
                    let low = (round * 7 + i) % 60;
                    adaptive.count(low, low + 10);
                }
                adaptive.try_rebalance();
                round += 1;
            }
        });
        check_writes("range/adaptive", &adaptive);
        stop.store(true, Ordering::Release);
    });
    assert!(
        adaptive.splits_performed() >= 1,
        "the stream must race at least one split"
    );
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
    let rows = Arc::new(keyed_rows(n));
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
                let mut rounds = 0u32;
                while !stop.load(Ordering::Acquire) || rounds == 0 {
                    assert_shapes_agree("racing", &*idx, &rows, &[(i64::MIN, i64::MAX)]);
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
    assert_shapes_agree(
        "settled",
        &*idx,
        &rows,
        &[(i64::MIN, i64::MAX), (100, 1500)],
    );
    assert!(idx.check_invariants());
}

/// A pin answers at its epoch on every backend, whatever writes land
/// after it, and holds exactly its registrations while it lives; a plain
/// insert then self-assigns a row id past the largest external one.
#[test]
fn a_pin_answers_at_its_epoch_on_every_backend() {
    let values = vec![3, 1, 4, 1, 5, 9, 2, 6];
    let rowids: Vec<RowId> = (0..values.len() as RowId).collect();
    let backends: Vec<Box<dyn Index>> = vec![
        Box::new(ConcurrentCracker::from_rows(
            values.clone(),
            rowids.clone(),
            LatchProtocol::Piece,
        )),
        Box::new(RangePartitionedCracker::from_rows(
            values.clone(),
            rowids.clone(),
            2,
            CompactionPolicy::disabled(),
        )),
    ];
    for index in &backends {
        assert_eq!(index.structure_probe().live_snapshots, 0);
        let pin = index.pin();
        assert!(
            index.structure_probe().live_snapshots > 0,
            "the pin registered"
        );
        index.insert_row(4, 100);
        index.delete_row(1, 1);
        assert_eq!(pin.select_rowids(0, 10).0, [0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(index.select_rowids(0, 5).0, [0, 2, 3, 6, 100]);
        drop(pin);
        assert_eq!(
            index.structure_probe().live_snapshots,
            0,
            "the drop released it"
        );
        assert_eq!(index.count(0, 10).0, 8);
        index.insert(7);
        assert_eq!(
            index.select_rowids(7, 8).0,
            [101],
            "a plain insert lands past the largest external row id"
        );
    }
}
