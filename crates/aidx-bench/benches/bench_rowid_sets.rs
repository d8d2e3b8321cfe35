//! Posting-list rowid-set benchmark: block-compressed candidate sets and
//! galloping intersection versus the seed flat-`Vec` path.
//!
//! A four-column table (c0 = the identity column, so its selections
//! yield dense rowid ranges; c1–c3 decorrelated permutations) serves
//! conjunctive selections on every table backend (serial /
//! range-partitioned column crackers). Two experiments per backend:
//!
//! 1. **Engine sweep, oracle-verified**: 1–4 predicate conjunctive
//!    selects at driver:other selectivity ratios 1:1, 1:100 and
//!    1:10000 run through `TableEngine::execute` (compressed sets +
//!    adaptive intersection); every answer is checked rowid-for-rowid
//!    against a scan of the column data.
//! 2. **Converged intersection comparison**: both columns are cracked to
//!    convergence first, then the *same* candidate ids are intersected
//!    three ways — the seed path (flat `Vec<RowId>` + element-at-a-time
//!    two-cursor merge, what the planner did before this layer), linear
//!    merge over compressed sets, and galloping (leapfrog seeks that
//!    skip whole blocks of the larger side). Min-of-N timing.
//!
//! Asserted: every engine answer equals the scan oracle; at 1:100 skew
//! the galloping walk is strictly faster than the seed flat-Vec path on
//! every backend; a dense-range candidate set encodes below 4 bytes/row
//! (a flat `Vec<RowId>` costs exactly 4); and a sparse one (under one id
//! per 32 of span) is held as blocks, also below flat.
//!
//! Environment overrides: `AIDX_ROWS` (default 2 000 000),
//! `AIDX_QUERIES` (timing repetitions, default 7, min 5),
//! `AIDX_TABLE_ARMS` (comma-separated backend labels). Add
//! `-- --json <path>` or set `AIDX_JSON_OUT` for the JSON report, which
//! carries a `candidate_set_bytes` series (one point per set: its
//! compressed and flat footprint per backend and ratio, and the
//! `container` it was held in, `bitmap` or `blocks`) and an
//! `intersection_ns` series (the converged walks' timings per backend and
//! ratio).
//!
//! Run with `cargo bench -p aidx-bench --bench bench_rowid_sets`.

use aidx_bench::{ms, scaled_params, Report};
use aidx_core::{intersect_sets, CompactionPolicy, IntersectStrategy, RowIdSet};
use aidx_cracking::RowId;
use aidx_obs::Json;
use aidx_table::{ColumnPredicate, TableBackend, TableEngine, TableOp};
use std::time::{Duration, Instant};

const COLUMNS: usize = 4;

/// Driver:other selectivity skews (1:1 — comparable sides, linear merge
/// territory — through 1:10000, where galloping skips almost everything).
const RATIOS: [usize; 3] = [1, 100, 10_000];

/// Fraction of the table the wide (non-driver) predicates select.
const OTHER_FRAC: f64 = 0.2;

/// c0 is the identity column (value == rowid, so range selections yield
/// dense rowid runs — the best case for delta encoding and the shape the
/// bytes-per-row gate measures); c1–c3 are decorrelated permutations.
fn column_data(rows: usize) -> Vec<Vec<i64>> {
    let mut columns = vec![(0..rows as i64).collect::<Vec<i64>>()];
    for salt in 1..COLUMNS as i64 {
        columns.push(
            (0..rows as i64)
                .map(|i| ((i + salt * 1013) * 48271 + salt * 7) % rows as i64)
                .collect(),
        );
    }
    columns
}

/// Scan-and-filter evaluation of one conjunctive select — the oracle.
fn scan_select(columns: &[Vec<i64>], predicates: &[ColumnPredicate]) -> Vec<RowId> {
    let rows = columns[0].len();
    (0..rows as RowId)
        .filter(|&rowid| {
            predicates
                .iter()
                .all(|p| p.matches(columns[p.column][rowid as usize]))
        })
        .collect()
}

/// The seed intersection path this PR replaces: two flat ascending id
/// vectors, element-at-a-time two-cursor merge.
fn vec_intersect(a: &[RowId], b: &[RowId]) -> Vec<RowId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// The fields of one `candidate_set_bytes` point: `set`'s footprint
/// against a flat vector's, labelled with the container it is held in.
fn set_point(backend: &str, ratio: Json, role: &str, set: &RowIdSet) -> Vec<(&'static str, Json)> {
    vec![
        ("backend", Json::str(backend)),
        ("ratio", ratio),
        ("set", Json::str(role)),
        ("ids", Json::UInt(set.len() as u64)),
        ("candidate_set_bytes", Json::UInt(set.heap_bytes() as u64)),
        (
            "flat_bytes",
            Json::UInt((set.len() * std::mem::size_of::<RowId>()) as u64),
        ),
        (
            "container",
            Json::str(if set.is_bitmap() { "bitmap" } else { "blocks" }),
        ),
    ]
}

/// Min-of-N timing (converged, read-only work: min is the right summary
/// for a deterministic computation under scheduler noise).
fn min_time<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        let r = f();
        let elapsed = t.elapsed();
        std::hint::black_box(r);
        best = best.min(elapsed);
    }
    best
}

/// A deterministic predicate window of `width` values, salted so every
/// (backend, predicate-count, ratio) combination cracks fresh ranges.
fn window(rows: usize, width: i64, salt: i64) -> (i64, i64) {
    let span = (rows as i64 - width).max(1);
    let lo = (salt * 48271 + 11) % span;
    (lo, lo + width)
}

fn table_arms() -> Vec<TableBackend> {
    let spec = std::env::var("AIDX_TABLE_ARMS")
        .unwrap_or_else(|_| "table-serial-piece,table-range-3".to_string());
    spec.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| {
            s.parse()
                .unwrap_or_else(|e| panic!("bad backend in AIDX_TABLE_ARMS: {e}"))
        })
        .collect()
}

fn main() {
    let (rows, reps) = scaled_params(2_000_000, 7);
    let reps = reps.max(5);
    let arms = table_arms();
    let columns = column_data(rows);
    let other_w = ((rows as f64 * OTHER_FRAC) as i64).max(1);

    println!("# bench_rowid_sets: rows={rows} reps={reps} other_frac={OTHER_FRAC}");
    println!();

    let mut report = Report::new("bench_rowid_sets");
    report
        .param("rows", Json::UInt(rows as u64))
        .param("reps", Json::UInt(reps as u64))
        .param("other_frac", Json::Num(OTHER_FRAC));

    let mut series: Vec<Json> = Vec::new();
    let mut timings: Vec<Json> = Vec::new();
    let mut timing_rows = Vec::new();
    for &backend in &arms {
        let engine = TableEngine::new(
            "bench",
            columns
                .iter()
                .enumerate()
                .map(|(i, values)| (format!("c{i}"), values.clone()))
                .collect(),
            backend,
            CompactionPolicy::disabled(),
        );
        let label = backend.label();

        // Engine sweep: 1-4 predicates x every ratio, each answer checked
        // rowid-for-rowid against the scan oracle.
        for predicates in 1..=COLUMNS {
            for (ri, &ratio) in RATIOS.iter().enumerate() {
                let driver_w = (other_w / ratio as i64).max(1);
                let salt0 = (predicates * 31 + ri * 7) as i64;
                let (dlo, dhi) = window(rows, driver_w, salt0);
                let mut preds = vec![ColumnPredicate::new(0, dlo, dhi)];
                for c in 1..predicates {
                    let (lo, hi) = window(rows, other_w, salt0 + c as i64 * 13);
                    preds.push(ColumnPredicate::new(c, lo, hi));
                }
                let result = engine.execute(&TableOp::SelectMulti(preds.clone()));
                let expected = scan_select(&columns, &preds);
                assert_eq!(
                    result.rowids, expected,
                    "{label} diverged from the scan oracle ({predicates} predicates, 1:{ratio})"
                );
            }
        }

        // Converged two-sided intersection: seed flat-Vec path vs linear
        // and galloping walks over compressed sets, identical inputs.
        for (ri, &ratio) in RATIOS.iter().enumerate() {
            let driver_w = (other_w / ratio as i64).max(1);
            let (dlo, dhi) = window(rows, driver_w, 101 + ri as i64);
            let (olo, ohi) = window(rows, other_w, 211 + ri as i64);
            let driver_col = engine.column_index(0);
            let other_col = engine.column_index(1);
            // Crack to convergence, then take the inputs once.
            for _ in 0..2 {
                let _ = driver_col.select_rowids(dlo, dhi);
                let _ = other_col.select_rowids(olo, ohi);
            }
            let (va, _) = driver_col.select_rowids(dlo, dhi);
            let (vb, _) = other_col.select_rowids(olo, ohi);
            let (sa, ma) = driver_col.select_rowid_set(dlo, dhi);
            let (sb, mb) = other_col.select_rowid_set(olo, ohi);
            assert_eq!(sa.to_vec(), va, "{label} compressed driver read diverged");
            assert_eq!(sb.to_vec(), vb, "{label} compressed other read diverged");
            assert_eq!(ma.candidate_set_bytes, sa.heap_bytes() as u64);
            assert_eq!(mb.candidate_set_bytes, sb.heap_bytes() as u64);

            let expected = vec_intersect(&va, &vb);
            let seed_t = min_time(reps, || vec_intersect(&va, &vb));
            let linear_t = min_time(reps, || {
                intersect_sets(&sa, &sb, IntersectStrategy::Linear).0
            });
            let gallop_t = min_time(reps, || {
                intersect_sets(&sa, &sb, IntersectStrategy::Gallop).0
            });
            let (gallop_set, stats) = intersect_sets(&sa, &sb, IntersectStrategy::Gallop);
            assert_eq!(gallop_set.to_vec(), expected, "{label} gallop diverged");

            let flat_bytes = (va.len() + vb.len()) * std::mem::size_of::<RowId>();
            let set_bytes = sa.heap_bytes() + sb.heap_bytes();
            timing_rows.push(vec![
                label.clone(),
                format!("1:{ratio}"),
                format!("{}", va.len()),
                format!("{}", vb.len()),
                ms(seed_t),
                ms(linear_t),
                ms(gallop_t),
                format!("{}", flat_bytes / 1024),
                format!("{}", set_bytes / 1024),
                format!("{}", stats.blocks_skipped),
            ]);
            for (role, set) in [("driver", &sa), ("other", &sb)] {
                series.push(Json::obj(set_point(
                    &label,
                    Json::UInt(ratio as u64),
                    role,
                    set,
                )));
            }
            timings.push(Json::obj(vec![
                ("backend", Json::str(&label)),
                ("ratio", Json::UInt(ratio as u64)),
                ("blocks_skipped", Json::UInt(stats.blocks_skipped)),
                (
                    "seed_vec_ns",
                    Json::UInt(u64::try_from(seed_t.as_nanos()).unwrap_or(u64::MAX)),
                ),
                (
                    "set_gallop_ns",
                    Json::UInt(u64::try_from(gallop_t.as_nanos()).unwrap_or(u64::MAX)),
                ),
            ]));
            // The headline gate: at 1:100 skew the galloping walk beats
            // the seed flat-Vec linear merge on every backend.
            if ratio == 100 {
                assert!(
                    gallop_t < seed_t,
                    "{label}: 1:100 gallop ({gallop_t:?}) must beat the seed \
                     flat-Vec merge ({seed_t:?})"
                );
            }
        }

        // Dense-range footprint gate: a selection on the identity column
        // yields a dense rowid run, which must land well under the flat
        // representation's 4 bytes/row (a bitmap costs 1/8).
        let (dense, m) = engine
            .column_index(0)
            .select_rowid_set(rows as i64 / 4, rows as i64 / 4 + rows as i64 / 2);
        assert_eq!(m.candidate_set_bytes, dense.heap_bytes() as u64);
        let bytes_per_row = dense.heap_bytes() as f64 / dense.len().max(1) as f64;
        assert!(
            bytes_per_row < 4.0,
            "{label}: dense candidate set at {bytes_per_row:.2} B/row (flat = 4)"
        );
        let mut point = set_point(&label, Json::str("dense-half-table"), "dense", &dense);
        point.push(("bytes_per_row", Json::Num(bytes_per_row)));
        series.push(Json::obj(point));
        println!("{label}: dense half-table set at {bytes_per_row:.2} B/row");

        // Sparse footprint: c1 is a permutation, so a window of 1/256 of
        // the keys scatters its ids over the whole table, one per ~256 of
        // span: too sparse for a bitmap to beat the flat vector.
        let (sparse, m) = engine.column_index(1).select_rowid_set(
            rows as i64 / 3,
            rows as i64 / 3 + (rows as i64 / 256).max(1),
        );
        assert_eq!(m.candidate_set_bytes, sparse.heap_bytes() as u64);
        let ids = sparse.to_vec();
        let span = match (ids.first(), ids.last()) {
            (Some(&first), Some(&last)) => (last - first) as usize,
            _ => 0,
        };
        assert!(
            sparse.len() * 32 < span,
            "{label}: the sparse set is not under one id per 32 of span"
        );
        assert!(
            !sparse.is_bitmap(),
            "{label}: a sparse set held as a bitmap"
        );
        let sparse_bytes_per_row = sparse.heap_bytes() as f64 / sparse.len().max(1) as f64;
        assert!(
            sparse_bytes_per_row < 4.0,
            "{label}: sparse candidate set at {sparse_bytes_per_row:.2} B/row (flat = 4)"
        );
        series.push(Json::obj(set_point(
            &label,
            Json::str("sparse"),
            "sparse",
            &sparse,
        )));
        println!("{label}: sparse set at {sparse_bytes_per_row:.2} B/row");

        assert!(engine.check_invariants(), "{}", engine.name());
    }

    report.table(
        "converged intersection: seed flat-Vec merge vs compressed linear vs gallop",
        &[
            "arm",
            "ratio",
            "driver_ids",
            "other_ids",
            "seed_vec_ms",
            "set_linear_ms",
            "set_gallop_ms",
            "flat_KiB",
            "set_KiB",
            "blocks_skipped",
        ],
        &timing_rows,
    );
    report.section("series", "candidate_set_bytes", Json::Arr(series));
    report.section("series", "intersection_ns", Json::Arr(timings));
    report.finish();
    println!(
        "every answer matched the scan oracle; 1:100 gallop beat the seed \
         flat-Vec merge on every arm; dense and sparse sets stayed under 4 B/row"
    );
}
