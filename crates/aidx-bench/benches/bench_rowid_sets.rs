//! Rowid-set benchmark: conjunctive selects checked against a scan, and
//! the footprint of the candidate sets a column read hands out.
//!
//! A four-column table (c0 = the identity column, so its selections
//! yield dense rowid ranges; c1–c3 decorrelated permutations) serves
//! conjunctive selections on every table backend (serial /
//! range-partitioned column crackers). Per backend:
//!
//! 1. **Engine sweep, oracle-verified**: 1–4 predicate conjunctive
//!    selects at driver:other selectivity ratios 1:1, 1:100 and
//!    1:10000 run through `TableEngine::execute`; every answer is
//!    checked rowid-for-rowid against a scan of the column data.
//! 2. **Footprint**: `select_rowid_set` over half of the identity column
//!    (a dense rowid run, held as a bitmap) and over a 1/256 window of
//!    a permuted column (one id per ~256 of span, held as a sorted
//!    vector), each checked against `select_rowids`.
//!
//! Asserted: every engine answer equals the scan oracle; the dense set
//! costs under 4 bytes/row (a bitmap costs 1/8); the sparse set is a
//! sorted vector at exactly 4 bytes/row.
//!
//! Environment overrides: `AIDX_ROWS` (default 2 000 000),
//! `AIDX_TABLE_ARMS` (comma-separated backend labels). Add
//! `-- --json <path>` or set `AIDX_JSON_OUT` for the JSON report, which
//! carries a `candidate_set_bytes` series: one point per set, with its
//! footprint, a flat vector's, and the `container` it was held in,
//! `bitmap` or `sorted`.
//!
//! Run with `cargo bench -p aidx-bench --bench bench_rowid_sets`.

use aidx_bench::{scaled_params, Report};
use aidx_core::{ColumnRead, CompactionPolicy};
use aidx_cracking::RowId;
use aidx_obs::Json;
use aidx_table::{ColumnPredicate, TableBackend, TableEngine, TableOp};

const COLUMNS: usize = 4;

/// Driver:other selectivity skews, from comparable sides to a driver
/// 10 000× narrower than the other predicates.
const RATIOS: [usize; 3] = [1, 100, 10_000];

/// Fraction of the table the wide (non-driver) predicates select.
const OTHER_FRAC: f64 = 0.2;

/// c0 is the identity column (value == rowid, so range selections yield
/// dense rowid runs — the shape the bytes-per-row gate measures); c1–c3
/// are decorrelated permutations.
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
    let (rows, _) = scaled_params(2_000_000, 0);
    let arms = table_arms();
    let columns = column_data(rows);
    let other_w = ((rows as f64 * OTHER_FRAC) as i64).max(1);

    println!("# bench_rowid_sets: rows={rows} other_frac={OTHER_FRAC}");
    println!();

    let mut report = Report::new("bench_rowid_sets");
    report
        .param("rows", Json::UInt(rows as u64))
        .param("other_frac", Json::Num(OTHER_FRAC));

    let mut series: Vec<Json> = Vec::new();
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

        // Footprint: a selection on the identity column yields a dense
        // rowid run, held as a bitmap well under a flat vector's 4
        // bytes/row. c1 is a permutation, so a window of 1/256 of its
        // keys scatters its ids over the whole table, one per ~256 of
        // span: too sparse for a bitmap, so a sorted vector at 4 bytes/row.
        let (low, high) = (rows as i64 / 4, rows as i64 / 4 + rows as i64 / 2);
        let (sparse_low, sparse_high) = (
            rows as i64 / 3,
            rows as i64 / 3 + (rows as i64 / 256).max(1),
        );
        for (role, column, low, high) in [
            ("dense", 0, low, high),
            ("sparse", 1, sparse_low, sparse_high),
        ] {
            let index = engine.column_index(column);
            let (set, m) = index.select_rowid_set(low, high);
            assert_eq!(
                set.to_vec(),
                index.select_rowids(low, high).0,
                "{label} {role} set"
            );
            assert_eq!(m.candidate_set_bytes, set.heap_bytes() as u64);
            let bytes_per_row = set.heap_bytes() as f64 / set.len().max(1) as f64;
            let container = if set.is_bitmap() { "bitmap" } else { "sorted" };
            let mut point = vec![
                ("backend", Json::str(&label)),
                ("set", Json::str(role)),
                ("ids", Json::UInt(set.len() as u64)),
                ("candidate_set_bytes", Json::UInt(set.heap_bytes() as u64)),
                (
                    "flat_bytes",
                    Json::UInt((set.len() * std::mem::size_of::<RowId>()) as u64),
                ),
                ("container", Json::str(container)),
            ];
            if role == "dense" {
                assert_eq!(container, "bitmap", "{label}: a dense set");
                assert!(
                    bytes_per_row < 4.0,
                    "{label}: dense candidate set at {bytes_per_row:.2} B/row (flat = 4)"
                );
                point.push(("bytes_per_row", Json::Num(bytes_per_row)));
            } else {
                assert_eq!(container, "sorted", "{label}: a sparse set");
                assert_eq!(bytes_per_row, 4.0, "{label}: a sorted set costs 4 B/row");
            }
            series.push(Json::obj(point));
            println!(
                "{label}: {role} set of {} ids at {bytes_per_row:.2} B/row",
                set.len()
            );
        }

        assert!(engine.check_invariants(), "{}", engine.name());
    }

    report.section("series", "candidate_set_bytes", Json::Arr(series));
    report.finish();
    println!(
        "every answer matched the scan oracle; dense sets stayed under 4 B/row \
         and sparse sets were sorted vectors at 4 B/row"
    );
}
