//! The multi-client experiment runner.
//!
//! The paper's concurrency experiments fix a sequence of 1024 random queries
//! and replay it with 1, 2, 4, 8, 16, and 32 concurrent clients; with `c`
//! clients each client fires `1024 / c` of the queries, all clients start at
//! the same time, and the reported time is "the time perceived by the last
//! client to receive all answers for all its queries" (Section 6.2–6.3).
//! [`MultiClientRunner`] reproduces exactly that protocol against any
//! [`AdaptiveEngine`] — and generalises it to mixed read/write sequences
//! ([`MultiClientRunner::run_ops`]), where some clients' operations are
//! inserts or deletes mutating the index the other clients are querying.

use crate::engine::AdaptiveEngine;
use crate::query::{Operation, QuerySpec};
use aidx_core::{Completion, RunMetrics};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Replays a fixed operation sequence with a configurable number of
/// concurrent clients against a shared engine.
#[derive(Debug, Clone)]
pub struct MultiClientRunner {
    clients: usize,
}

impl MultiClientRunner {
    /// Creates a runner with `clients` concurrent clients (minimum 1).
    pub fn new(clients: usize) -> Self {
        MultiClientRunner {
            clients: clients.max(1),
        }
    }

    /// Number of concurrent clients.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// Runs a read-only query sequence to completion and collects metrics
    /// (convenience wrapper over [`MultiClientRunner::run_ops`]).
    pub fn run(&self, engine: Arc<dyn AdaptiveEngine>, queries: &[QuerySpec]) -> RunMetrics {
        let ops: Vec<Operation> = queries.iter().map(|q| Operation::Select(*q)).collect();
        self.run_ops(engine, &ops)
    }

    /// Runs the operation sequence to completion and collects metrics.
    ///
    /// The sequence is split round-robin into `clients` slices (client `i`
    /// executes operations `i, i + c, i + 2c, ...`), each client runs its
    /// slice serially on its own thread, and the wall-clock time is
    /// measured from the common start to the completion of the last
    /// client.
    pub fn run_ops(&self, engine: Arc<dyn AdaptiveEngine>, ops: &[Operation]) -> RunMetrics {
        if ops.is_empty() {
            return RunMetrics::new();
        }
        if self.clients == 1 {
            return self.run_sequential(engine.as_ref(), ops);
        }

        let start = Instant::now();
        let mut handles = Vec::with_capacity(self.clients);
        for client in 0..self.clients {
            let engine = Arc::clone(&engine);
            let slice: Vec<Operation> = ops
                .iter()
                .skip(client)
                .step_by(self.clients)
                .copied()
                .collect();
            handles.push(thread::spawn(move || {
                let mut collected = Vec::with_capacity(slice.len());
                let mut completions = Vec::with_capacity(slice.len());
                for op in &slice {
                    let result = engine.execute(*op);
                    collected.push(result.metrics);
                    // Stamped against the common start, so per-client
                    // completion series from different threads share one
                    // time axis.
                    completions.push(Completion {
                        client: client as u32,
                        at: start.elapsed(),
                    });
                }
                (collected, completions)
            }));
        }
        let mut run = RunMetrics::new();
        for handle in handles {
            let (metrics, completions) = handle.join().expect("client thread panicked");
            run.per_query.extend(metrics);
            run.completions.extend(completions);
        }
        run.wall_clock = start.elapsed();
        run
    }

    fn run_sequential(&self, engine: &dyn AdaptiveEngine, ops: &[Operation]) -> RunMetrics {
        let start = Instant::now();
        let mut run = RunMetrics::new();
        for op in ops {
            let result = engine.execute(*op);
            run.per_query.push(result.metrics);
            run.completions.push(Completion {
                client: 0,
                at: start.elapsed(),
            });
        }
        run.wall_clock = start.elapsed();
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CheckedEngine, IndexEngine, ScanEngine};
    use crate::generator::WorkloadGenerator;
    use aidx_core::{Aggregate, ConcurrentCracker, LatchProtocol};

    fn crack(values: &[i64]) -> IndexEngine {
        let index = ConcurrentCracker::from_values(values.to_vec(), LatchProtocol::Piece);
        IndexEngine::new("crack-piece", index)
    }

    fn shuffled(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| (i * 48271) % n as i64).collect()
    }

    #[test]
    fn sequential_run_collects_one_metric_per_query() {
        let values = shuffled(1000);
        let queries = WorkloadGenerator::new(1000, 0.05, Aggregate::Count, 1).generate(20);
        let runner = MultiClientRunner::new(1);
        assert_eq!(runner.clients(), 1);
        let run = runner.run(Arc::new(ScanEngine::new(values)), &queries);
        assert_eq!(run.query_count(), 20);
        assert!(run.wall_clock > std::time::Duration::ZERO);
        assert!(run.throughput_qps() > 0.0);
    }

    #[test]
    fn empty_query_list_yields_empty_run() {
        let runner = MultiClientRunner::new(4);
        let run = runner.run(Arc::new(ScanEngine::new(shuffled(10))), &[]);
        assert_eq!(run.query_count(), 0);
    }

    #[test]
    fn zero_clients_is_clamped_to_one() {
        assert_eq!(MultiClientRunner::new(0).clients(), 1);
    }

    #[test]
    fn concurrent_clients_execute_every_query_correctly() {
        let values = shuffled(5000);
        let queries = WorkloadGenerator::new(5000, 0.02, Aggregate::Sum, 9).generate(64);
        for clients in [2, 4, 8] {
            let engine = Arc::new(CheckedEngine::new(crack(&values), values.clone()));
            let run = MultiClientRunner::new(clients).run(engine.clone(), &queries);
            assert_eq!(run.query_count(), 64, "{clients} clients");
            assert!(
                engine.mismatches().is_empty(),
                "{clients} clients produced wrong answers"
            );
        }
    }

    #[test]
    fn concurrent_clients_execute_mixed_ops_correctly() {
        let values = shuffled(4000);
        let ops = WorkloadGenerator::new(4000, 0.02, Aggregate::Sum, 11).generate_mixed(64, 0.25);
        assert!(ops.iter().any(Operation::is_write), "workload has writes");
        for clients in [1, 4] {
            let engine = Arc::new(CheckedEngine::new(crack(&values), values.clone()));
            let run = MultiClientRunner::new(clients).run_ops(engine.clone(), &ops);
            assert_eq!(run.query_count(), 64, "{clients} clients");
            assert_eq!(
                engine.mismatches(),
                vec![],
                "{clients} clients diverged from the oracle"
            );
            let totals = run.totals();
            assert!(totals.inserts_applied + totals.deletes_applied > 0);
        }
    }

    #[test]
    fn completions_are_stamped_per_client_and_feed_throughput_windows() {
        let values = shuffled(2000);
        let queries = WorkloadGenerator::new(2000, 0.03, Aggregate::Count, 7).generate(40);
        for clients in [1usize, 4] {
            let run = MultiClientRunner::new(clients)
                .run(Arc::new(ScanEngine::new(values.clone())), &queries);
            assert_eq!(run.completions.len(), 40, "{clients} clients");
            let max_client = run.completions.iter().map(|c| c.client).max().unwrap();
            assert_eq!(max_client as usize, clients - 1, "{clients} clients");
            assert!(run.completions.iter().all(|c| c.at <= run.wall_clock));
            let windows = run.throughput_windows(std::time::Duration::from_micros(50));
            let total: u64 = windows
                .iter()
                .map(|w| w.per_client.iter().sum::<u64>())
                .sum();
            assert_eq!(total, 40, "every completion lands in a window");
        }
    }

    #[test]
    fn uneven_splits_cover_all_queries() {
        let values = shuffled(300);
        let queries = WorkloadGenerator::new(300, 0.1, Aggregate::Count, 4).generate(10);
        // 10 queries across 3 clients: slices of 4, 3, 3.
        let run = MultiClientRunner::new(3).run(Arc::new(ScanEngine::new(values)), &queries);
        assert_eq!(run.query_count(), 10);
    }

    #[test]
    fn more_clients_than_queries_still_works() {
        let values = shuffled(100);
        let queries = WorkloadGenerator::new(100, 0.1, Aggregate::Count, 4).generate(3);
        let run = MultiClientRunner::new(8).run(Arc::new(ScanEngine::new(values)), &queries);
        assert_eq!(run.query_count(), 3);
    }
}
