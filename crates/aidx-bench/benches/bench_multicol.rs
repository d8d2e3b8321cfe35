//! Multi-column conjunctive selection benchmark: rowid intersection over
//! per-column crackers versus the scan-and-filter baseline.
//!
//! A four-column table (decorrelated permutations of `[0, rows)`) serves
//! conjunctive selections with 1–4 predicates of graded per-column
//! selectivity. The **scan baseline** evaluates each query by one pass
//! over the column-major data; its answers double as the oracle every
//! indexed arm is checked against, row-id set for row-id set. Each
//! **table-engine arm** (serial / range-partitioned column crackers) replays the identical query sequence: early queries pay
//! per-column cracking, converged queries are piece lookups plus
//! rowid-set intersection.
//!
//! Reported per predicate count and arm: first-query cost (the cracking
//! investment), mean select time before and after convergence, and wall
//! clock. Asserted: every answer matches the scan oracle exactly, and —
//! the headline — the **2-predicate conjunctive select is strictly
//! faster than scan-and-filter after convergence on every arm**.
//!
//! Environment overrides: `AIDX_ROWS` (default 200 000), `AIDX_QUERIES`
//! (per predicate count, default 128), `AIDX_TABLE_ARMS`
//! (comma-separated [`TableBackend`] labels, default
//! `table-serial-piece,table-range-3`).
//!
//! Run with `cargo bench -p aidx-bench --bench bench_multicol`.

use aidx_bench::{ms, print_table, scaled_params};
use aidx_core::CompactionPolicy;
use aidx_storage::RowId;
use aidx_workload::{ColumnPredicate, MultiColumnWorkload, TableBackend, TableEngine, TableOp};
use std::time::{Duration, Instant};

/// Graded per-column selectivities: the driver column is narrow, later
/// predicates widen (the planner must pick the driver itself — the
/// generator emits predicates in column order, not selectivity order).
const SELECTIVITIES: [f64; 4] = [0.005, 0.02, 0.1, 0.3];

const COLUMNS: usize = 4;

fn mean(times: &[Duration]) -> Duration {
    if times.is_empty() {
        return Duration::ZERO;
    }
    times.iter().sum::<Duration>() / u32::try_from(times.len()).unwrap_or(u32::MAX)
}

/// Decorrelated pseudo-random permutation streams, one per column.
fn column_data(rows: usize) -> Vec<Vec<i64>> {
    (0..COLUMNS as i64)
        .map(|salt| {
            (0..rows as i64)
                .map(|i| ((i + salt * 1013) * 48271 + salt * 7) % rows as i64)
                .collect()
        })
        .collect()
}

/// Scan-and-filter evaluation of one conjunctive select (the baseline
/// *and* the oracle): one pass over the column-major data.
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
    let (rows, queries) = scaled_params(200_000, 128);
    let arms = table_arms();
    let columns = column_data(rows);
    let warmup = (queries / 4).max(8).min(queries.saturating_sub(1).max(1));

    println!("# bench_multicol: rows={rows} columns={COLUMNS} queries={queries} (warmup {warmup})");
    println!();

    let mut table = Vec::new();
    for predicates in 1..=COLUMNS {
        let workload = MultiColumnWorkload::new(
            rows as u64,
            COLUMNS,
            SELECTIVITIES[..predicates].to_vec(),
            0xC0FFEE + predicates as u64,
        );
        let ops = workload.generate(queries);

        // Scan baseline — and the oracle row-id sets.
        let mut scan_times = Vec::with_capacity(ops.len());
        let mut expected: Vec<Vec<RowId>> = Vec::with_capacity(ops.len());
        let scan_start = Instant::now();
        for op in &ops {
            let TableOp::SelectMulti(preds) = op else {
                unreachable!("read-only workload");
            };
            let t = Instant::now();
            let result = scan_select(&columns, preds);
            scan_times.push(t.elapsed());
            expected.push(result);
        }
        let scan_wall = scan_start.elapsed();
        let scan_converged = mean(&scan_times[warmup..]);
        table.push(vec![
            format!("{predicates}"),
            "scan-filter".to_string(),
            ms(scan_times.first().copied().unwrap_or_default()),
            ms(mean(&scan_times[..warmup])),
            ms(scan_converged),
            ms(scan_wall),
        ]);

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
            let mut times = Vec::with_capacity(ops.len());
            let start = Instant::now();
            for (i, op) in ops.iter().enumerate() {
                let t = Instant::now();
                let result = engine.execute(op);
                times.push(t.elapsed());
                assert_eq!(
                    result.rowids,
                    expected[i],
                    "{} diverged from the scan oracle at query {i} ({predicates} predicates)",
                    engine.name()
                );
            }
            let wall = start.elapsed();
            let converged = mean(&times[warmup..]);
            table.push(vec![
                format!("{predicates}"),
                backend.label(),
                ms(times.first().copied().unwrap_or_default()),
                ms(mean(&times[..warmup])),
                ms(converged),
                ms(wall),
            ]);
            // The acceptance gate: a 2-predicate conjunctive select
            // answered by rowid intersection beats scan-and-filter once
            // the per-column indexes have converged.
            if predicates == 2 {
                assert!(
                    converged < scan_converged,
                    "{}: converged 2-predicate select ({converged:?}) must beat \
                     the scan baseline ({scan_converged:?})",
                    backend.label()
                );
            }
            assert!(engine.check_invariants(), "{}", engine.name());
        }
    }
    print_table(
        "conjunctive selects: scan-and-filter vs rowid intersection (oracle-verified)",
        &[
            "predicates",
            "arm",
            "first_query_ms",
            "warmup_mean_ms",
            "converged_mean_ms",
            "wall_clock_ms",
        ],
        &table,
    );
    println!(
        "every arm matched the scan oracle row-id set for row-id set; \
         2-predicate conjunctions beat the scan baseline after convergence on every arm"
    );
}
