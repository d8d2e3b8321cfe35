//! Backend parity, reads and writes. A backend is one latch protocol on
//! a column built plain or range-cracked (cracked at its range splits
//! when it is built, [`ConcurrentCracker::with_ranges`]).
//!
//! **Cross-shape reads**: every [`ReadShape`] of one range must describe
//! the same logical rows — on every backend, now and through a snapshot,
//! and across the range-cracked columns' build cracks.
//! `Count == RowIds.len() == select_rowid_set.len() ==
//! KeyRuns.total_rows()`, `Sum ==` Σ keys of the runs,
//! `select_rowid_set.to_vec() == RowIds ==` sorted rowids of the runs —
//! all equal to a scan oracle over the logical rows. The planner-form
//! `Candidates` set holds the same rows, and compacting it gives
//! `select_rowid_set`'s container and footprint. A `Within` read holds
//! exactly the `Candidates` rows its filter holds, for filters in both
//! containers, filters holding ids of no row, and the empty filter —
//! with pending inserts and tombstones in the delta.
//!
//! **One write stream**: one seeded [`WriteOp`] sequence must report the
//! same rows affected, op for op, and leave the same rows behind on every
//! backend — the tuple oracle's.

use aidx_core::{
    ColumnRead, CompactionPolicy, ConcurrentCracker, LatchProtocol, ReadShape, RefinementPolicy,
    RowIdSet, WriteOp,
};
use aidx_cracking::RowId;
use std::collections::{BTreeMap, HashSet};

const PROTOCOLS: [LatchProtocol; 3] = [
    LatchProtocol::Piece,
    LatchProtocol::Column,
    LatchProtocol::None,
];

/// Every backend, labelled: each protocol's column from `build`, plain
/// and range-cracked at each of `ranges` build ranges.
fn backends(
    ranges: &[usize],
    build: impl Fn(LatchProtocol) -> ConcurrentCracker,
) -> Vec<(String, ConcurrentCracker)> {
    let mut out = Vec::new();
    for protocol in PROTOCOLS {
        out.push((format!("{protocol:?}"), build(protocol)));
        for &n in ranges {
            let ranged = build(protocol).with_ranges(n);
            out.push((format!("{protocol:?}/ranges-{n}"), ranged));
        }
    }
    out
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
    rows_of(&keys(n))
}

/// The rows of `column` under positional row ids.
fn rows_of(column: &[i64]) -> BTreeMap<RowId, i64> {
    let rows = column.iter().enumerate();
    rows.map(|(i, &key)| (i as RowId, key)).collect()
}

/// The filters a [`ReadShape::Within`] read is checked with: a bitmap of
/// every third id up to past the largest row id (so it holds ids of no
/// row too), a sorted set of every 40th row id, and the empty set.
fn within_filters(rows: &BTreeMap<RowId, i64>) -> [RowIdSet; 3] {
    let top = rows.keys().last().map_or(0, |&max| max + 64);
    let every_third: Vec<RowId> = (0..top).step_by(3).collect();
    let bitmap = RowIdSet::from_runs(&[every_third], &HashSet::new(), &[]);
    let every_40th: Vec<RowId> = rows.keys().copied().step_by(40).collect();
    let sorted = RowIdSet::from_sorted(&every_40th);
    assert!(bitmap.is_bitmap() && !sorted.is_bitmap());
    [bitmap, sorted, RowIdSet::default()]
}

/// Reads `[low, high)` in every shape and through `select_rowid_set` via
/// `reader` and checks the seven answers — and the sizes their metrics
/// report — against each other and against a scan of `rows` (rowid →
/// key). Returns how many non-empty compacted sets came back as bitmaps
/// and how many as sorted vectors.
fn assert_shapes_agree(
    label: &str,
    reader: &dyn ColumnRead,
    rows: &BTreeMap<RowId, i64>,
    ranges: &[(i64, i64)],
) -> (usize, usize) {
    let (mut bitmaps, mut sorted) = (0, 0);
    let filters = within_filters(rows);
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

        let (set, m) = reader.select_rowid_set(low, high);
        assert_eq!(set.len() as u64, n, "{at} set len");
        assert_eq!(set.to_vec(), expected, "{at} set contents");
        assert_eq!(m.result_count, n, "{at} set metrics");
        assert_eq!(
            m.candidate_set_bytes,
            set.heap_bytes() as u64,
            "{at} set footprint"
        );
        match (set.is_empty(), set.is_bitmap()) {
            (true, _) => {}
            (false, true) => bitmaps += 1,
            (false, false) => sorted += 1,
        }

        let (candidates, m) = read(ReadShape::Candidates);
        let candidates = candidates.into_set();
        let candidate_ids = candidates.to_vec();
        assert_eq!(candidate_ids, expected, "{at} candidates contents");
        assert_eq!(m.result_count, n, "{at} candidates metrics");
        assert_eq!(
            m.candidate_set_bytes,
            candidates.heap_bytes() as u64,
            "{at} candidates footprint"
        );
        let compacted = candidates.compact();
        assert_eq!(
            (compacted.is_bitmap(), compacted.heap_bytes()),
            (set.is_bitmap(), set.heap_bytes()),
            "{at} compacted candidates"
        );

        for filter in &filters {
            let kept: Vec<RowId> = candidate_ids
                .iter()
                .copied()
                .filter(|&id| filter.contains(id))
                .collect();
            let (within, m) = read(ReadShape::Within(filter));
            let within = within.into_set();
            let form = if filter.is_bitmap() {
                "bitmap"
            } else {
                "sorted"
            };
            let at = format!("{at} within {} {form}", filter.len());
            assert_eq!(within.to_vec(), kept, "{at} contents");
            assert_eq!(m.result_count, kept.len() as u64, "{at} metrics");
            assert_eq!(
                m.candidate_set_bytes,
                within.heap_bytes() as u64,
                "{at} footprint"
            );
        }

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
    (bitmaps, sorted)
}

/// The one parity body over an index built from `column`: warm the
/// index, pin a snapshot, churn (inserts, deletes, re-inserts — with the
/// policy's incremental compaction steps and rebuilds firing underneath),
/// then check every shape both now and through the snapshot.
fn check_engine(label: &str, engine: &ConcurrentCracker, column: &[i64]) {
    let mut rows = rows_of(column);
    let n = column.len();
    let half = column.iter().max().map_or(1, |&max| max + 1);
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
    assert_shapes_agree(&format!("{label} pinned"), &pinned, &before, &ranges);
    drop(pinned);
    assert_shapes_agree(&format!("{label} released"), now, &rows, &ranges);
    assert!(engine.check_invariants(), "{label}");
}

#[test]
fn every_shape_agrees_on_every_backend_now_and_pinned() {
    let n = 3000;
    let policy = CompactionPolicy::rows(16).incremental(4);
    let build =
        |protocol| ConcurrentCracker::from_values(keys(n), protocol).with_compaction(policy);
    for (label, idx) in backends(&[4], build) {
        check_engine(&label, &idx, &keys(n));
    }
    let skipping = ConcurrentCracker::from_values(keys(n), LatchProtocol::Piece)
        .with_policy(RefinementPolicy::SkipOnContention)
        .with_compaction(policy);
    check_engine("Piece/skip", &skipping, &keys(n));
}

/// A range-cracked column of duplicate-heavy keys: three rows in four
/// share one key, so the sampled quantiles collapse and the build makes
/// fewer cracks than ranges were asked for. Every shape stays exact, now,
/// churned and pinned, under every protocol, and the probe reports one
/// load entry per range the column has, each charged.
#[test]
fn a_duplicate_heavy_column_gets_fewer_ranges_and_one_load_entry_each() {
    let column: Vec<i64> = (0..3000i64)
        .map(|i| if i % 4 == 0 { (i * 7) % 50 } else { 25 })
        .collect();
    let policy = CompactionPolicy::rows(16).incremental(4);
    for protocol in PROTOCOLS {
        let range = ConcurrentCracker::from_values(column.clone(), protocol)
            .with_compaction(policy)
            .with_ranges(4);
        let ranges = range.range_splits().len() + 1;
        assert!(
            ranges < 4,
            "the quantiles collapsed: {:?}",
            range.range_splits()
        );
        check_engine(&format!("{protocol:?}/duplicates"), &range, &column);
        let load = range.structure_probe().partition_load;
        assert_eq!(load.len(), ranges, "one load entry per range");
        assert!(load.iter().all(|&ops| ops > 0), "{load:?}");
    }
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
    assert_shapes_agree("above-floor pinned", &pinned, &before, &ranges);
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
    let n = 640_000usize; // two build ranges of 320 k rows
    let column = || -> Vec<i64> { (0..n as i64).map(|i| (i * 48271) % n as i64).collect() };
    let queries = 40i64;
    let stride = n as i64 / queries;
    let sweep = |label: &str, engine: &ConcurrentCracker| {
        for k in 0..queries {
            let low = k * stride + stride / 4;
            let high = low + stride / 2;
            let (count, metrics) = engine.count(low, high);
            assert_eq!(count, (high - low) as u64, "{label} count {k}");
            if k == 0 {
                assert!(
                    metrics.cracks_performed > 2,
                    "{label}: no pivot crack beside the 2 bound cracks"
                );
            }
            let (sum, _) = engine.sum(low, high);
            let expected = (low + high - 1) as i128 * (high - low) as i128 / 2;
            assert_eq!(sum, expected, "{label} sum {k}");
        }
        assert!(engine.check_invariants(), "{label}");
    };
    for (label, idx) in backends(&[2], |protocol| {
        ConcurrentCracker::from_values(column(), protocol)
    }) {
        sweep(&label, &idx);
        // On a plain column every crack is one of the 80 bounds or a
        // pivot crack, and the sweep added far fewer of those than it
        // resolved bounds.
        let cracks = idx.crack_count();
        if idx.range_splits().is_empty() {
            assert!((81..120).contains(&cracks), "{label}: {cracks} cracks");
        }
    }
}

/// Compacted row-id sets in both containers — dense ones as bitmaps,
/// sparse ones as sorted vectors — equal the flat `RowIds` shape on every
/// backend, now and pinned, with the delta folded in: pending inserts
/// (extra rows) now, and through the pin the rows deleted since (ghosts)
/// and the inserts compaction placed in the main array since (hidden).
#[test]
fn rowid_sets_equal_the_flat_shape_in_both_containers() {
    let n = 4096usize;
    let half = n as i64 / 2;
    let ranges = [
        (i64::MIN, i64::MAX),
        (0, half),
        (half / 4, half / 2),
        (100, 103),
        (700, 701),
        (half - 3, half + 40),
    ];
    // Incremental steps place inserts into the main array after the pin,
    // which the pin must then hide; the last few inserts stay pending.
    let policy = CompactionPolicy::rows(64).incremental(4);
    let build =
        |protocol| ConcurrentCracker::from_values(keys(n), protocol).with_compaction(policy);
    for (label, engine) in &backends(&[2, 4], build) {
        let both = |phase: &str, reader: &dyn ColumnRead, rows: &BTreeMap<RowId, i64>| {
            let (bitmaps, sorted) =
                assert_shapes_agree(&format!("{label} {phase}"), reader, rows, &ranges);
            assert!(
                bitmaps > 0 && sorted > 0,
                "{label} {phase}: {bitmaps} bitmap and {sorted} sorted sets"
            );
        };
        let mut rows = keyed_rows(n);
        both("fresh", engine, &rows);
        let pinned = engine.pin();
        let before = rows.clone();
        // Deletes of every 16th key and a read that cracks next to them,
        // then inserts: a dense batch right past the seed row ids (most of
        // it placed in the main array, the rest left pending) and one far
        // beyond them.
        for key in (0..half).step_by(16) {
            assert_eq!(engine.delete(key).0, 2, "{label} every key occurs twice");
            rows.retain(|_, k| *k != key);
        }
        engine.count(half / 8, half / 8 + 300);
        for i in 0..200 {
            let (rowid, value) = ((n + i) as RowId, (i as i64 * 7) % half);
            engine.insert_row(value, rowid);
            rows.insert(rowid, value);
        }
        engine.insert_row(half + 10, 50 * n as RowId);
        rows.insert(50 * n as RowId, half + 10);
        both("churned", engine, &rows);
        both("pinned", &pinned, &before);
        drop(pinned);
        both("released", engine, &rows);
        assert!(engine.check_invariants(), "{label}");
    }
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
fn check_writes(label: &str, engine: &ConcurrentCracker) {
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
    assert_eq!(
        engine.logical_len() as usize,
        rows.len(),
        "{label} row count"
    );
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
    let merged = |label: &str, engine: &ConcurrentCracker| {
        check_writes(label, engine);
        let merges = engine.compactions_performed() + engine.compaction_steps_performed();
        assert!(merges > 0, "{label} never crossed rows(64)");
    };
    let build =
        |protocol| ConcurrentCracker::from_values(write_seed(), protocol).with_compaction(policy);
    for (label, idx) in backends(&[4], build) {
        merged(&label, &idx);
    }
    let skipping = ConcurrentCracker::from_values(write_seed(), LatchProtocol::Piece)
        .with_policy(RefinementPolicy::SkipOnContention)
        .with_compaction(policy.incremental(4));
    merged("Piece/skip/incremental", &skipping);
}

/// A pin answers at its epoch on every backend, whatever writes land
/// after it, and holds exactly one registration while it lives; a plain
/// insert then self-assigns a row id past the largest external one.
#[test]
fn a_pin_answers_at_its_epoch_on_every_backend() {
    let values = vec![3, 1, 4, 1, 5, 9, 2, 6];
    let rowids: Vec<RowId> = (0..values.len() as RowId).collect();
    let build = |protocol| ConcurrentCracker::from_rows(values.clone(), rowids.clone(), protocol);
    for (_, index) in &backends(&[2], build) {
        assert_eq!(index.structure_probe().live_snapshots, 0);
        let pin = index.pin();
        assert_eq!(
            index.structure_probe().live_snapshots,
            1,
            "the pin registered one epoch"
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
