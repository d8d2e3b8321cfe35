//! Cross-engine parity: every `AdaptiveEngine` arm — scan, sort, crack
//! (column and piece latches, with and without conflict avoidance),
//! adaptive merging, and the range-partitioned arm — replays
//! the same workload through `MultiClientRunner` and must produce
//! identical per-operation results, for read-only *and* mixed read/write
//! sequences (checked against a `BTreeMap` multiset oracle).

use adaptive_indexing::prelude::*;
use aidx_core::Aggregate;
use aidx_workload::{CheckedEngine, OpResult};
use std::sync::Arc;

const ROWS: usize = 8_000;
const QUERIES: usize = 64;

fn values() -> Vec<i64> {
    generate_unique_shuffled(ROWS, 7)
}

fn approaches() -> Vec<Approach> {
    let mut arms = Approach::all();
    // `all()` uses per-core worker counts; pin a few explicit shapes so the
    // parity run exercises several build-cracked ranges even on small CI
    // machines.
    arms.push(Approach::ParallelRange { partitions: 4 });
    arms
}

fn config(approach: Approach, aggregate: Aggregate, clients: usize) -> ExperimentConfig {
    ExperimentConfig::new(approach)
        .rows(ROWS)
        .queries(QUERIES)
        .clients(clients)
        .selectivity(0.02)
        .aggregate(aggregate)
}

/// An engine wrapper that records every (query, answer) pair so the runs
/// of different engines can be compared query by query afterwards.
struct RecordingEngine {
    inner: Arc<dyn AdaptiveEngine>,
    log: std::sync::Mutex<Vec<(QuerySpec, i128)>>,
}

impl RecordingEngine {
    fn new(inner: Arc<dyn AdaptiveEngine>) -> Self {
        RecordingEngine {
            inner,
            log: std::sync::Mutex::new(Vec::new()),
        }
    }

    fn answers_in_query_order(&self, queries: &[QuerySpec]) -> Vec<i128> {
        // Concurrent clients complete out of order; re-key by query. The
        // workload generator may repeat a query spec, so consume matches.
        let mut log = self.log.lock().unwrap().clone();
        queries
            .iter()
            .map(|q| {
                let pos = log
                    .iter()
                    .position(|(lq, _)| lq == q)
                    .expect("query executed but not logged");
                log.swap_remove(pos).1
            })
            .collect()
    }
}

impl AdaptiveEngine for RecordingEngine {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute(&self, op: Operation) -> OpResult {
        let result = self.inner.execute(op);
        if let Operation::Select(q) = op {
            self.log.lock().unwrap().push((q, result.value));
        }
        result
    }
}

fn parity_run(aggregate: Aggregate, clients: usize) {
    let shared_values = values();
    let queries = config(Approach::Scan, aggregate, clients).generate_queries();

    let mut reference: Option<(String, Vec<i128>)> = None;
    for approach in approaches() {
        let engine = config(approach, aggregate, clients).build_engine_with(shared_values.clone());
        let label = engine.name().to_string();
        let recording = Arc::new(RecordingEngine::new(engine));
        let run = MultiClientRunner::new(clients).run(recording.clone(), &queries);
        assert_eq!(run.query_count(), QUERIES, "{label}: lost queries");

        let answers = recording.answers_in_query_order(&queries);
        match &reference {
            None => reference = Some((label, answers)),
            Some((ref_label, expected)) => {
                assert_eq!(
                    &answers, expected,
                    "{label} disagrees with {ref_label} ({aggregate:?}, {clients} clients)"
                );
            }
        }
    }
}

#[test]
fn all_engines_agree_sequentially_on_counts() {
    parity_run(Aggregate::Count, 1);
}

#[test]
fn all_engines_agree_sequentially_on_sums() {
    parity_run(Aggregate::Sum, 1);
}

#[test]
fn all_engines_agree_with_four_concurrent_clients() {
    parity_run(Aggregate::Sum, 4);
    parity_run(Aggregate::Count, 4);
}

/// The acceptance workload: a 10%-write interleaved operation sequence,
/// every arm checked op by op against the `BTreeMap` oracle. The checked
/// wrapper holds the oracle across each engine call, so the oracle replays
/// the engine's linearization order even with concurrent clients.
fn oracle_parity_run(write_ratio: f64, clients: usize) {
    let shared_values = values();
    for approach in approaches() {
        let cfg = config(approach, Aggregate::Sum, clients).write_ratio(write_ratio);
        let ops = cfg.generate_operations();
        assert!(
            write_ratio == 0.0 || ops.iter().any(Operation::is_write),
            "workload must actually contain writes"
        );
        let engine = cfg.build_engine_with(shared_values.clone());
        let label = engine.name().to_string();
        let checked = Arc::new(CheckedEngine::new(engine, shared_values.clone()));
        let run = MultiClientRunner::new(clients).run_ops(checked.clone(), &ops);
        assert_eq!(run.query_count(), QUERIES, "{label}: lost operations");
        assert_eq!(
            checked.mismatches(),
            vec![],
            "{label} diverged from the oracle ({}% writes, {clients} clients)",
            write_ratio * 100.0
        );
    }
}

#[test]
fn all_arms_pass_oracle_parity_with_ten_percent_writes() {
    oracle_parity_run(0.1, 1);
}

#[test]
fn all_arms_pass_oracle_parity_with_ten_percent_writes_and_four_clients() {
    oracle_parity_run(0.1, 4);
}

#[test]
fn all_arms_pass_oracle_parity_with_heavy_writes() {
    oracle_parity_run(0.5, 2);
}

/// Unserialized concurrency: writers run truly in parallel with readers
/// (no oracle lock). Writes use domains disjoint from each other and from
/// the initial data, so the final state is interleaving-independent and
/// can be compared exactly across every arm.
#[test]
fn concurrent_writers_reach_the_same_final_state_on_every_arm() {
    let shared_values = values();
    let queries = config(Approach::Scan, Aggregate::Sum, 4).generate_queries();
    let mut ops: Vec<Operation> = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        ops.push(Operation::Select(*q));
        // Every 4th op-pair adds one unique insert and one unique delete.
        if i % 4 == 0 {
            ops.push(Operation::Insert((ROWS + i) as i64));
            ops.push(Operation::Delete(i as i64));
        }
    }
    let inserted = queries
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 4 == 0)
        .count() as i128;
    let expected_count = ROWS as i128; // one insert per delete, all hit
    let expected_sum: i128 = shared_values.iter().map(|&v| v as i128).sum::<i128>()
        + (0..QUERIES)
            .step_by(4)
            .map(|i| (ROWS + i) as i128 - i as i128)
            .sum::<i128>();

    for approach in approaches() {
        let engine = config(approach, Aggregate::Sum, 4).build_engine_with(shared_values.clone());
        let label = engine.name().to_string();
        let run = MultiClientRunner::new(4).run_ops(engine.clone(), &ops);
        assert_eq!(run.query_count(), ops.len(), "{label}: lost operations");
        let totals = run.totals();
        assert_eq!(totals.inserts_applied as i128, inserted, "{label}");
        assert_eq!(totals.deletes_applied as i128, inserted, "{label}");
        let (final_count, _) = engine.select(&QuerySpec::count(i64::MIN, i64::MAX));
        let (final_sum, _) = engine.select(&QuerySpec::sum(i64::MIN, i64::MAX));
        assert_eq!(final_count, expected_count, "{label}: final count");
        assert_eq!(final_sum, expected_sum, "{label}: final sum");
    }
}

#[test]
fn checked_engine_confirms_parallel_arms_under_concurrency() {
    let shared_values = values();
    let queries = WorkloadGenerator::new(ROWS as u64, 0.05, Aggregate::Sum, 21).generate(QUERIES);
    let range_engine = Arc::new(CheckedEngine::new(
        ExperimentConfig::new(Approach::ParallelRange { partitions: 4 })
            .build_engine_with(shared_values.clone()),
        shared_values,
    ));
    let run = MultiClientRunner::new(8).run(range_engine.clone(), &queries);
    assert_eq!(run.query_count(), QUERIES);
    assert!(range_engine.mismatches().is_empty(), "range mismatches");
}
