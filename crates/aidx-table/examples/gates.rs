//! Timing gates: three claims about the engine's speed that no test can
//! check, measured at fixed sizes and asserted, every answer checked on
//! the way. On the serial piece-latched and the 3-range table backend:
//!
//! 1. **Select.** Once the columns have converged, a 2-predicate
//!    conjunctive select over four 150 k-row columns is faster than a
//!    scan-and-filter pass over the same data.
//! 2. **Join.** Once converged, the equi-join of a 60 k-row fact table
//!    with a 937-row dimension beats the nested loop in three scenarios:
//!    aligned keys, zipfian foreign keys (key-window filters), and keys
//!    strided 16 apart (attribute filters).
//!
//! And on one piece-latched column:
//!
//! 3. **Compaction stall.** Over a delete/re-insert churn stream at a
//!    256-row delta threshold, the largest compaction time one write
//!    absorbs is smaller under incremental compaction (4 pieces a step)
//!    than under the quiescing rebuild.
//!
//! Run with `cargo run --release -p aidx-table --example gates`; it exits
//! non-zero when a gate or an answer fails. Debug builds are too slow for
//! the gates to mean anything.

use aidx_core::{CompactionPolicy, ConcurrentCracker, LatchProtocol};
use aidx_cracking::{generate_unique_shuffled, RowId};
use aidx_table::{ColumnPredicate, JoinStrategy, TableBackend, TableEngine, TableOp};
use rand::prelude::*;
use std::collections::HashMap;
use std::time::{Duration, Instant};

const BACKENDS: [TableBackend; 2] = [
    TableBackend::Serial(LatchProtocol::Piece),
    TableBackend::Range { partitions: 3 },
];

fn mean(times: &[Duration]) -> Duration {
    times.iter().sum::<Duration>() / times.len().max(1) as u32
}

fn ms(d: Duration) -> String {
    format!("{:.3} ms", d.as_secs_f64() * 1e3)
}

fn engine(name: &str, columns: &[Vec<i64>], backend: TableBackend) -> TableEngine {
    let named = columns
        .iter()
        .enumerate()
        .map(|(i, values)| (format!("{name}{i}"), values.clone()))
        .collect();
    TableEngine::new(name, named, backend, CompactionPolicy::disabled())
}

/// Gate 1: 64 two-predicate selects, 0.5 % and 2 % of the keys, over four
/// decorrelated permutations of 150 k keys. The scan-and-filter pass is
/// the oracle too. Both sides are averaged over the selects after the
/// first 16, when the engine's columns have converged.
fn select_gate() {
    const ROWS: i64 = 150_000;
    const QUERIES: usize = 64;
    const WARMUP: usize = 16;
    let columns: Vec<Vec<i64>> = (0..4)
        .map(|salt| {
            (0..ROWS)
                .map(|i| ((i + salt * 1013) * 48271 + salt * 7) % ROWS)
                .collect()
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let queries: Vec<Vec<ColumnPredicate>> = (0..QUERIES)
        .map(|_| {
            [ROWS / 200, ROWS / 50]
                .iter()
                .enumerate()
                .map(|(column, &width)| {
                    let low = rng.gen_range(0..=ROWS - width);
                    ColumnPredicate::new(column, low, low + width)
                })
                .collect()
        })
        .collect();
    let mut scan_times = Vec::new();
    let expected: Vec<Vec<RowId>> = queries
        .iter()
        .map(|predicates| {
            let start = Instant::now();
            let rows = (0..ROWS as RowId).filter(|&rowid| {
                let value = |p: &ColumnPredicate| columns[p.column][rowid as usize];
                predicates.iter().all(|p| p.matches(value(p)))
            });
            let rows = rows.collect();
            scan_times.push(start.elapsed());
            rows
        })
        .collect();
    let scan = mean(&scan_times[WARMUP..]);
    for backend in BACKENDS {
        let engine = engine("c", &columns, backend);
        let mut times = Vec::new();
        for (predicates, expected) in queries.iter().zip(&expected) {
            let start = Instant::now();
            let result = engine.execute(&TableOp::SelectMulti(predicates.clone()));
            times.push(start.elapsed());
            assert_eq!(
                &result.rowids,
                expected,
                "{}: a select's answer",
                backend.label()
            );
        }
        let converged = mean(&times[WARMUP..]);
        println!(
            "select {}: {} against scan {}",
            backend.label(),
            ms(converged),
            ms(scan)
        );
        assert!(
            converged < scan,
            "{}: the converged 2-predicate select ({converged:?}) must beat the scan ({scan:?})",
            backend.label()
        );
    }
}

/// One join scenario: a dimension of `DIM` rows with unique keys
/// `rank × stride` in shuffled row order and attributes in `[0, DIM)`; a
/// fact of `FACT` rows whose foreign keys are uniform over the key domain
/// or, when `skewed`, log-uniform over the dimension's ranks (zipfian).
/// Each query filters the dimension on 2 % of its keys, or of its
/// attributes when `stride > 1`.
struct Scenario {
    name: &'static str,
    dim: Vec<Vec<i64>>,
    fact: Vec<Vec<i64>>,
    filters: Vec<ColumnPredicate>,
    expected: Vec<Vec<(RowId, RowId)>>,
}

const DIM: i64 = 937;
const FACT: i64 = 60_000;
const JOINS: usize = 24;

fn scenario(name: &'static str, stride: i64, skewed: bool, seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys: Vec<i64> = (0..DIM).map(|rank| rank * stride).collect();
    keys.shuffle(&mut rng);
    let attrs: Vec<i64> = (0..DIM).map(|_| rng.gen_range(0..DIM)).collect();
    let fks: Vec<i64> = (0..FACT)
        .map(|_| match skewed {
            true => ((DIM as f64).powf(rng.gen::<f64>()) as i64 - 1) * stride,
            false => rng.gen_range(0..DIM * stride),
        })
        .collect();
    let column = usize::from(stride > 1);
    let width = DIM / 50;
    let filters: Vec<ColumnPredicate> = (0..JOINS)
        .map(|_| {
            let low = rng.gen_range(0..=DIM - width);
            ColumnPredicate::new(column, low, low + width)
        })
        .collect();
    let dim = vec![keys, attrs];
    let expected = reference(&dim, &fks, &filters);
    Scenario {
        name,
        dim,
        fact: vec![fks, (0..FACT).collect()],
        filters,
        expected,
    }
}

/// The reference join of each filter: `(dimension row, fact row)` pairs
/// in order.
fn reference(
    dim: &[Vec<i64>],
    fks: &[i64],
    filters: &[ColumnPredicate],
) -> Vec<Vec<(RowId, RowId)>> {
    let mut fact_by_key: HashMap<i64, Vec<RowId>> = HashMap::new();
    for (rowid, &fk) in fks.iter().enumerate() {
        fact_by_key.entry(fk).or_default().push(rowid as RowId);
    }
    let join = |filter: &ColumnPredicate| {
        let dim_rows = (0..dim[0].len()).filter(|&row| filter.matches(dim[filter.column][row]));
        let pairs = dim_rows.flat_map(|row| {
            let matches = fact_by_key.get(&dim[0][row]).map_or(&[][..], Vec::as_slice);
            matches.iter().map(move |&fact| (row as RowId, fact))
        });
        pairs.collect()
    };
    filters.iter().map(join).collect()
}

/// Times `strategy` on fresh engines over the joins `from..`, checking
/// each answer.
fn time_joins(
    s: &Scenario,
    backend: TableBackend,
    strategy: JoinStrategy,
    from: usize,
) -> Vec<Duration> {
    let (dim, fact) = (engine("d", &s.dim, backend), engine("f", &s.fact, backend));
    let joins = s.filters.iter().zip(&s.expected).skip(from);
    joins
        .map(|(filter, expected)| {
            let start = Instant::now();
            let result = dim.execute_join(&fact, 0, 0, std::slice::from_ref(filter), &[], strategy);
            let elapsed = start.elapsed();
            let label = format!("{} {} {strategy:?}", s.name, backend.label());
            assert_eq!(&result.pairs, expected, "{label}: a join's answer");
            elapsed
        })
        .collect()
}

/// Gate 2: the engine's join, averaged over the joins after the first 6,
/// against the nested loop, timed on the last 3 (it is quadratic).
fn join_gate() {
    const WARMUP: usize = 6;
    const NESTED_FROM: usize = JOINS - 3;
    for s in [
        scenario("aligned", 1, false, 0xA11E),
        scenario("zipf", 1, true, 0x21FF),
        scenario("strided", 16, false, 0x57A1),
    ] {
        for backend in BACKENDS {
            let join = mean(&time_joins(&s, backend, JoinStrategy::Auto, 0)[WARMUP..]);
            let nested = mean(&time_joins(
                &s,
                backend,
                JoinStrategy::NestedLoop,
                NESTED_FROM,
            ));
            println!(
                "join {} {}: {} against nested loop {}",
                s.name,
                backend.label(),
                ms(join),
                ms(nested)
            );
            assert!(
                join < nested,
                "{} {}: the converged join ({join:?}) must beat the nested loop ({nested:?})",
                s.name,
                backend.label()
            );
        }
    }
}

/// The largest compaction time one write absorbs over 8 000 churn pairs
/// on 50 k keys: each pair deletes a distinct seeded key, whose row its
/// own crack reclaims, and re-inserts it into the delta, which therefore
/// grows a row a pair until the 256-row threshold trips compaction.
fn max_stall(policy: CompactionPolicy) -> Duration {
    const ROWS: i64 = 50_000;
    let values = generate_unique_shuffled(ROWS as usize, 0xA1D1);
    let sum: i128 = values.iter().map(|&v| v as i128).sum();
    let index =
        ConcurrentCracker::from_values(values, LatchProtocol::Piece).with_compaction(policy);
    index.sum(0, ROWS / 2);
    index.sum(ROWS / 4, ROWS);
    let mut stall = Duration::ZERO;
    for key in 0..8_000 {
        let (removed, deleted) = index.delete(key);
        assert_eq!(removed, 1, "churned keys are distinct");
        let inserted = index.insert(key);
        stall = stall
            .max(deleted.compaction_time)
            .max(inserted.compaction_time);
    }
    assert_eq!(
        index.sum(i64::MIN, i64::MAX).0,
        sum,
        "{policy:?}: the churned column"
    );
    assert!(index.compactions_performed() + index.compaction_steps_performed() > 0);
    stall
}

/// Gate 3: incremental compaction bounds the worst single-write stall
/// below the quiescing rebuild's pause at the same threshold.
fn stall_gate() {
    let quiesce = max_stall(CompactionPolicy::rows(256));
    let incremental = max_stall(CompactionPolicy::rows(256).incremental(4));
    println!(
        "compaction stall: incremental {} against quiescing {}",
        ms(incremental),
        ms(quiesce)
    );
    assert!(
        incremental < quiesce,
        "incremental compaction's largest stall ({incremental:?}) must stay below the \
         quiescing rebuild's ({quiesce:?})"
    );
}

fn main() {
    select_gate();
    join_gate();
    stall_gate();
    println!("all gates passed");
}
