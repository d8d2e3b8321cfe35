//! Equi-join benchmark: the engine's join over cracked columns versus
//! the nested-loop baseline.
//!
//! A dimension/fact pair ([`JoinWorkload`]) is joined on key = FK under
//! three scenarios:
//!
//! * **aligned** — dense dimension keys, uniform foreign keys, key-window
//!   queries (a range filter on the dimension's join column, which the
//!   join turns into the window both join columns are read and cracked
//!   over, with no candidate set on either side).
//! * **zipf** — same queries, foreign keys zipfian-skewed over the
//!   dimension ranks (hot-head fan-out).
//! * **sparse** — dimension keys strided 16 apart (low key overlap) and
//!   *attribute* filters, so the key window stays open: the dimension
//!   side filters its key runs through its candidate set and the whole
//!   fact side probes the small build.
//!
//! Per scenario and backend (serial / range table engines), two arms on
//! fresh engine pairs: the engine's join ([`JoinStrategy::Auto`]) and the
//! nested-loop baseline (sampled on the converged tail of the query
//! sequence — it is quadratic). **Every** join result from every arm is
//! verified tuple-for-tuple against a host-side reference join of the
//! raw column data.
//!
//! Asserted: the converged join mean strictly beats the nested-loop mean
//! on every backend in every scenario.
//!
//! Environment overrides: `AIDX_ROWS` (fact rows, default 500 000; the
//! dimension is 1/64 of that), `AIDX_QUERIES` (per arm, default 48),
//! `AIDX_TABLE_ARMS` (comma-separated backend labels). Add
//! `-- --json <path>` or set `AIDX_JSON_OUT` for the JSON report, which
//! carries a `join_summary` section (per-arm timings per scenario and
//! backend).
//!
//! Run with `cargo bench -p aidx-bench --bench bench_join`.

use aidx_bench::{ms, scaled_params, Report};
use aidx_core::CompactionPolicy;
use aidx_cracking::RowId;
use aidx_obs::Json;
use aidx_table::{JoinStrategy, TableBackend, TableEngine};
use aidx_workload::{JoinQuery, JoinWorkload, DIM_KEY_COL, FACT_FK_COL};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Fraction of the key (or attribute) domain each query's filter selects.
const SELECTIVITY: f64 = 0.02;

/// Key stride of the sparse scenario: dimension keys cover 1/16 of the
/// fact FK domain, so most fact rows match nothing.
const SPARSE_STRIDE: i64 = 16;

struct Scenario {
    name: &'static str,
    queries: Vec<JoinQuery>,
    dim_cols: Vec<(String, Vec<i64>)>,
    fact_cols: Vec<(String, Vec<i64>)>,
    /// Reference answer per query, sorted (dim rowid, fact rowid).
    expected: Vec<Vec<(RowId, RowId)>>,
}

impl Scenario {
    fn new(name: &'static str, w: &JoinWorkload, queries: Vec<JoinQuery>) -> Self {
        let dim_cols = w.dimension_columns();
        let fact_cols = w.fact_columns();
        // Fact rowids grouped by FK, each group ascending: the reference
        // join emits pairs already in the engine's lexicographic order.
        let mut fact_by_key: HashMap<i64, Vec<RowId>> = HashMap::new();
        for (rowid, &fk) in fact_cols[FACT_FK_COL].1.iter().enumerate() {
            fact_by_key.entry(fk).or_default().push(rowid as RowId);
        }
        let expected = queries
            .iter()
            .map(|q| reference_join(&dim_cols, &fact_by_key, q))
            .collect();
        Scenario {
            name,
            queries,
            dim_cols,
            fact_cols,
            expected,
        }
    }
}

/// Host-side reference join — the tuple-for-tuple oracle every arm
/// (including the nested-loop baseline) is checked against.
fn reference_join(
    dim_cols: &[(String, Vec<i64>)],
    fact_by_key: &HashMap<i64, Vec<RowId>>,
    q: &JoinQuery,
) -> Vec<(RowId, RowId)> {
    assert!(q.fact_filters.is_empty(), "generators filter the dim side");
    let rows = dim_cols[0].1.len();
    let mut pairs = Vec::new();
    for rowid in 0..rows {
        let survives = q
            .dim_filters
            .iter()
            .all(|p| p.matches(dim_cols[p.column].1[rowid]));
        if survives {
            if let Some(matches) = fact_by_key.get(&dim_cols[DIM_KEY_COL].1[rowid]) {
                pairs.extend(matches.iter().map(|&f| (rowid as RowId, f)));
            }
        }
    }
    pairs
}

/// A fresh (dimension, fact) engine pair — every arm starts uncracked so
/// its timings include its own convergence, uncontaminated by other arms.
fn engine_pair(backend: TableBackend, s: &Scenario) -> (TableEngine, TableEngine) {
    (
        TableEngine::new(
            "dim",
            s.dim_cols.clone(),
            backend,
            CompactionPolicy::disabled(),
        ),
        TableEngine::new(
            "fact",
            s.fact_cols.clone(),
            backend,
            CompactionPolicy::disabled(),
        ),
    )
}

/// Runs the query slice `[from..]` under one strategy on fresh engines,
/// verifying every answer; returns the per-query times.
fn run_arm(
    backend: TableBackend,
    s: &Scenario,
    strategy: JoinStrategy,
    from: usize,
) -> Vec<Duration> {
    let (dim, fact) = engine_pair(backend, s);
    let mut times = Vec::with_capacity(s.queries.len() - from);
    for (q, expected) in s.queries[from..].iter().zip(&s.expected[from..]) {
        let t = Instant::now();
        let result = dim.execute_join(
            &fact,
            DIM_KEY_COL,
            FACT_FK_COL,
            &q.dim_filters,
            &q.fact_filters,
            strategy,
        );
        times.push(t.elapsed());
        assert_eq!(
            result.pairs.len() as i128,
            result.value,
            "{} {strategy:?}: value disagrees with the pair list",
            backend.label()
        );
        assert_eq!(
            &result.pairs,
            expected,
            "{} {strategy:?} diverged from the reference join ({})",
            backend.label(),
            s.name
        );
    }
    assert!(dim.check_invariants() && fact.check_invariants());
    times
}

fn mean(times: &[Duration]) -> Duration {
    if times.is_empty() {
        return Duration::ZERO;
    }
    times.iter().sum::<Duration>() / u32::try_from(times.len()).unwrap_or(u32::MAX)
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
    let (fact_rows, queries) = scaled_params(500_000, 48);
    let dim_rows = (fact_rows / 64).max(64);
    let arms = table_arms();
    let warmup = (queries / 4).max(4).min(queries.saturating_sub(1).max(1));
    // The nested-loop baseline is quadratic; sample it on the tail of the
    // sequence (the converged region of the join arm's comparison).
    let nl_from = queries.saturating_sub((queries / 12).clamp(3, queries));

    println!(
        "# bench_join: fact_rows={fact_rows} dim_rows={dim_rows} queries={queries} \
         (warmup {warmup}, nested-loop sampled on the last {})",
        queries - nl_from
    );
    println!();

    let scenarios = [
        Scenario::new(
            "aligned",
            &JoinWorkload::new(dim_rows, fact_rows, 0xA11E),
            JoinWorkload::new(dim_rows, fact_rows, 0xA11E).key_window_queries(queries, SELECTIVITY),
        ),
        Scenario::new(
            "zipf",
            &JoinWorkload::new(dim_rows, fact_rows, 0x21FF).with_fk_skew(1.0),
            JoinWorkload::new(dim_rows, fact_rows, 0x21FF).key_window_queries(queries, SELECTIVITY),
        ),
        Scenario::new(
            "sparse",
            &JoinWorkload::new(dim_rows, fact_rows, 0x57A1).with_key_stride(SPARSE_STRIDE),
            JoinWorkload::new(dim_rows, fact_rows, 0x57A1)
                .with_key_stride(SPARSE_STRIDE)
                .attr_filter_queries(queries, SELECTIVITY),
        ),
    ];

    let mut report = Report::new("bench_join");
    report
        .param("fact_rows", Json::UInt(fact_rows as u64))
        .param("dim_rows", Json::UInt(dim_rows as u64))
        .param("queries", Json::UInt(queries as u64))
        .param("selectivity", Json::Num(SELECTIVITY));

    let mut table = Vec::new();
    let mut summary: Vec<Json> = Vec::new();
    for s in &scenarios {
        let pairs_mean =
            s.expected.iter().map(Vec::len).sum::<usize>() as u64 / s.queries.len().max(1) as u64;
        for &backend in &arms {
            let label = backend.label();
            let join_times = run_arm(backend, s, JoinStrategy::Auto, 0);
            let nl_times = run_arm(backend, s, JoinStrategy::NestedLoop, nl_from);
            let join_conv = mean(&join_times[warmup..]);
            let nl_mean = mean(&nl_times);

            // The headline gate: the join beats the nested-loop baseline
            // once converged, on every backend.
            assert!(
                join_conv < nl_mean,
                "{label}/{}: converged join ({join_conv:?}) must beat \
                 nested-loop ({nl_mean:?})",
                s.name
            );

            table.push(vec![
                s.name.to_string(),
                label.clone(),
                format!("{pairs_mean}"),
                ms(join_conv),
                ms(nl_mean),
            ]);
            summary.push(Json::obj(vec![
                ("scenario", Json::str(s.name)),
                ("backend", Json::str(&label)),
                ("pairs_per_query", Json::UInt(pairs_mean)),
                ("join_ms", Json::Num(join_conv.as_secs_f64() * 1e3)),
                ("nested_loop_ms", Json::Num(nl_mean.as_secs_f64() * 1e3)),
            ]));
        }
    }

    report.table(
        "equi-join vs nested-loop (converged means, reference-verified)",
        &[
            "scenario",
            "arm",
            "pairs_per_query",
            "join_ms",
            "nested_loop_ms",
        ],
        &table,
    );
    report.section("join_summary", "join_summary", Json::Arr(summary));
    report.finish();
    println!(
        "every join answer matched the reference tuple-for-tuple; the converged \
         join beat nested-loop on every arm"
    );
}
