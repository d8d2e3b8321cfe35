//! Equi-join benchmark: rowid-set join strategies over cracked columns
//! versus the nested-loop baseline, with the cost model's picks asserted.
//!
//! A dimension/fact pair ([`JoinWorkload`]) is joined on key = FK under
//! three scenarios:
//!
//! * **aligned** — dense dimension keys, uniform foreign keys, key-window
//!   queries (a range filter on the dimension's join column, which the
//!   planner converts into a cracked window on the fact FK column). The
//!   gallop merge walks only the window and should win — and be picked.
//! * **zipf** — same queries, foreign keys zipfian-skewed over the
//!   dimension ranks (hot-head fan-out). Gallop again.
//! * **sparse** — dimension keys strided 16 apart (low key overlap) and
//!   *attribute* filters, so the key envelope stays wide: the gallop walk
//!   would sort the whole fact side per query, and the hash build/probe
//!   should win — and be picked.
//!
//! Per scenario and backend (serial / range table engines),
//! four arms on fresh engine pairs: forced gallop, forced hash, Auto
//! (the measured cost model), and the nested-loop baseline (sampled on
//! the converged tail of the query sequence — it is quadratic). **Every**
//! join result from every arm is verified tuple-for-tuple against a
//! host-side reference join of the raw column data.
//!
//! Asserted: converged gallop and hash means each strictly beat the
//! nested-loop mean on every backend in every scenario; Auto never runs
//! nested-loop and, after bootstrapping both rowid strategies, picks
//! gallop on aligned/zipf and hash on sparse (majority of queries).
//!
//! Environment overrides: `AIDX_ROWS` (fact rows, default 500 000; the
//! dimension is 1/64 of that), `AIDX_QUERIES` (per arm, default 48),
//! `AIDX_TABLE_ARMS` (comma-separated backend labels). Add
//! `-- --json <path>` or set `AIDX_JSON_OUT` for the JSON report, which
//! carries a `join_summary` section (per-arm timings and Auto's strategy
//! picks per scenario and backend).
//!
//! Run with `cargo bench -p aidx-bench --bench bench_join`.

use aidx_bench::{ms, scaled_params, Report};
use aidx_core::CompactionPolicy;
use aidx_obs::Json;
use aidx_storage::RowId;
use aidx_workload::{
    JoinQuery, JoinStrategy, JoinWorkload, TableBackend, TableEngine, DIM_KEY_COL, FACT_FK_COL,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Fraction of the key (or attribute) domain each query's filter selects.
const SELECTIVITY: f64 = 0.02;

/// Key stride of the sparse scenario: dimension keys cover 1/16 of the
/// fact FK domain, so most fact rows match nothing.
const SPARSE_STRIDE: i64 = 16;

struct Scenario {
    name: &'static str,
    /// The strategy the cost model must settle on after bootstrap.
    expected_pick: JoinStrategy,
    queries: Vec<JoinQuery>,
    dim_cols: Vec<(String, Vec<i64>)>,
    fact_cols: Vec<(String, Vec<i64>)>,
    /// Reference answer per query, sorted (dim rowid, fact rowid).
    expected: Vec<Vec<(RowId, RowId)>>,
}

impl Scenario {
    fn new(
        name: &'static str,
        expected_pick: JoinStrategy,
        w: &JoinWorkload,
        queries: Vec<JoinQuery>,
    ) -> Self {
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
            expected_pick,
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

/// Runs the query slice `[from..]` under one forced (or Auto) strategy on
/// fresh engines, verifying every answer; returns per-query times and the
/// dimension engine's `(gallop, hash, nested)` strategy counters.
fn run_arm(
    backend: TableBackend,
    s: &Scenario,
    strategy: JoinStrategy,
    from: usize,
) -> (Vec<Duration>, (u64, u64, u64)) {
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
    (times, dim.join_strategy_counts())
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
    // sequence (the converged region of the rowid arms' comparison).
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
            JoinStrategy::Gallop,
            &JoinWorkload::new(dim_rows, fact_rows, 0xA11E),
            JoinWorkload::new(dim_rows, fact_rows, 0xA11E).key_window_queries(queries, SELECTIVITY),
        ),
        Scenario::new(
            "zipf",
            JoinStrategy::Gallop,
            &JoinWorkload::new(dim_rows, fact_rows, 0x21FF).with_fk_skew(1.0),
            JoinWorkload::new(dim_rows, fact_rows, 0x21FF).key_window_queries(queries, SELECTIVITY),
        ),
        Scenario::new(
            "sparse",
            JoinStrategy::Hash,
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
            let (gallop_times, _) = run_arm(backend, s, JoinStrategy::Gallop, 0);
            let (hash_times, _) = run_arm(backend, s, JoinStrategy::Hash, 0);
            let (auto_times, (auto_gallop, auto_hash, auto_nested)) =
                run_arm(backend, s, JoinStrategy::Auto, 0);
            let (nl_times, _) = run_arm(backend, s, JoinStrategy::NestedLoop, nl_from);

            let gallop_conv = mean(&gallop_times[warmup..]);
            let hash_conv = mean(&hash_times[warmup..]);
            let auto_conv = mean(&auto_times[warmup..]);
            let nl_mean = mean(&nl_times);

            // The headline gates: both rowid-set strategies beat the
            // nested-loop baseline once converged, on every backend.
            assert!(
                gallop_conv < nl_mean,
                "{label}/{}: converged gallop ({gallop_conv:?}) must beat \
                 nested-loop ({nl_mean:?})",
                s.name
            );
            assert!(
                hash_conv < nl_mean,
                "{label}/{}: converged hash ({hash_conv:?}) must beat \
                 nested-loop ({nl_mean:?})",
                s.name
            );
            // The cost-model gates: nested-loop is never auto-picked, and
            // after bootstrapping both strategies the measured model
            // settles on the scenario's winner.
            assert_eq!(auto_nested, 0, "{label}/{}: auto ran nested-loop", s.name);
            let picks_ok = match s.expected_pick {
                JoinStrategy::Gallop => auto_gallop > auto_hash,
                _ => auto_hash > auto_gallop,
            };
            assert!(
                picks_ok,
                "{label}/{}: auto picked gallop {auto_gallop}x / hash {auto_hash}x, \
                 expected a {:?} majority",
                s.name, s.expected_pick
            );

            table.push(vec![
                s.name.to_string(),
                label.clone(),
                format!("{pairs_mean}"),
                ms(gallop_conv),
                ms(hash_conv),
                ms(auto_conv),
                ms(nl_mean),
                format!("{auto_gallop}"),
                format!("{auto_hash}"),
            ]);
            summary.push(Json::obj(vec![
                ("scenario", Json::str(s.name)),
                ("backend", Json::str(&label)),
                ("pairs_per_query", Json::UInt(pairs_mean)),
                ("gallop_ms", Json::Num(gallop_conv.as_secs_f64() * 1e3)),
                ("hash_ms", Json::Num(hash_conv.as_secs_f64() * 1e3)),
                ("auto_ms", Json::Num(auto_conv.as_secs_f64() * 1e3)),
                ("nested_loop_ms", Json::Num(nl_mean.as_secs_f64() * 1e3)),
                ("auto_gallop", Json::UInt(auto_gallop)),
                ("auto_hash", Json::UInt(auto_hash)),
                ("auto_nested", Json::UInt(auto_nested)),
                ("expected_pick", Json::str(s.expected_pick.label())),
            ]));
        }
    }

    report.table(
        "equi-join strategies vs nested-loop (converged means, reference-verified)",
        &[
            "scenario",
            "arm",
            "pairs_per_query",
            "gallop_ms",
            "hash_ms",
            "auto_ms",
            "nested_loop_ms",
            "auto_gallop_picks",
            "auto_hash_picks",
        ],
        &table,
    );
    report.section("join_summary", "join_summary", Json::Arr(summary));
    report.finish();
    println!(
        "every join answer matched the reference tuple-for-tuple; converged gallop \
         and hash each beat nested-loop on every arm; the cost model picked gallop \
         on aligned/zipf and hash on sparse"
    );
}
