//! The closed-loop runner every workload shares.
//!
//! The engine is an embedded library whose callers block on each answer,
//! so load is closed-loop: client `i` executes ops `i, i + clients, …` of
//! the stream (the paper's protocol), each as soon as its previous one
//! returned. Ops `[0, cold_ops)` run on the uncracked index, a barrier
//! follows, then the rest. The cold phase is not discarded warm-up —
//! paying for the index while querying is what adaptive indexing sells —
//! so it is timed as its own metric.

use aidx_core::QueryMetrics;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Read,
    Write,
    Join,
}

impl OpKind {
    pub const ALL: [OpKind; 3] = [OpKind::Read, OpKind::Write, OpKind::Join];

    pub fn span_name(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Join => "join",
        }
    }
}

/// What a client keeps of an answer, to be checked after the timed window:
/// the op's value (count, sum, rows written, pairs) and an additive
/// checksum of the row ids it returned (0 where there are none).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Answer {
    pub value: i128,
    pub check: u64,
}

/// Additive row-id checksum: the oracle can build it from prefix sums.
pub fn rowid_check(rowid: u32) -> u64 {
    (rowid as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One executed op. `start_ns`/`end_ns` are relative to the run's epoch:
/// the pair is both the latency sample and, in a traced run, the span
/// around the call into the layer.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub index: u32,
    pub kind: OpKind,
    /// `None` when the op panicked.
    pub answer: Option<Answer>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl OpRecord {
    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Clone, Default)]
pub struct ClientLog {
    pub start_ns: u64,
    pub end_ns: u64,
    pub records: Vec<OpRecord>,
    /// Sums of the component times and counters the calls returned, per
    /// op kind (indexed by `OpKind as usize`); only a traced run
    /// accumulates them.
    pub components: [QueryMetrics; 3],
}

#[derive(Debug, Clone, Default)]
pub struct PhaseLog {
    pub clients: Vec<ClientLog>,
}

impl PhaseLog {
    /// First client to start until last client to finish.
    pub fn wall_s(&self) -> f64 {
        let start = self.clients.iter().map(|c| c.start_ns).min().unwrap_or(0);
        let end = self.clients.iter().map(|c| c.end_ns).max().unwrap_or(0);
        (end - start) as f64 / 1e9
    }

    pub fn ops(&self) -> usize {
        self.clients.iter().map(|c| c.records.len()).sum()
    }

    pub fn records(&self) -> impl Iterator<Item = &OpRecord> {
        self.clients.iter().flat_map(|c| c.records.iter())
    }

    /// Components summed over the clients, for the given op kinds.
    pub fn components(&self, kinds: &[OpKind]) -> QueryMetrics {
        let mut total = QueryMetrics::default();
        for client in &self.clients {
            for &kind in kinds {
                total.accumulate(&client.components[kind as usize]);
            }
        }
        total
    }

    pub fn ops_of(&self, kind: OpKind) -> usize {
        self.records().filter(|r| r.kind == kind).count()
    }

    pub fn latencies_ns(&self, kinds: &[OpKind]) -> Vec<u64> {
        self.records()
            .filter(|r| kinds.contains(&r.kind))
            .map(OpRecord::latency_ns)
            .collect()
    }

    /// Time the clients spent inside calls.
    pub fn busy_s(&self) -> f64 {
        self.records().map(OpRecord::latency_ns).sum::<u64>() as f64 / 1e9
    }
}

#[derive(Debug, Clone, Default)]
pub struct RunLog {
    pub cold: PhaseLog,
    pub steady: PhaseLog,
}

/// Runs ops `0..total_ops` through `exec` with `clients` closed-loop
/// client threads. `exec(i)` executes op `i` and returns the answer to keep
/// and the metrics the call returned; a panic inside it is caught and
/// recorded as a failed op, so one bad op cannot abort the ledger.
pub fn run_phases<F>(
    clients: usize,
    total_ops: usize,
    cold_ops: usize,
    trace: bool,
    kind_of: impl Fn(usize) -> OpKind + Sync,
    exec: F,
) -> RunLog
where
    F: Fn(usize) -> (Answer, QueryMetrics) + Sync,
{
    let epoch = Instant::now();
    let barrier = Barrier::new(clients);
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let run_phase = |client: usize, from: usize, to: usize| -> ClientLog {
        let mut log = ClientLog {
            records: Vec::with_capacity((to - from) / clients + 1),
            ..ClientLog::default()
        };
        barrier.wait();
        log.start_ns = now_ns();
        let mut index = from + client;
        while index < to {
            let start_ns = now_ns();
            let outcome = catch_unwind(AssertUnwindSafe(|| exec(index)));
            let end_ns = now_ns();
            let kind = kind_of(index);
            let answer = match outcome {
                Ok((answer, metrics)) => {
                    if trace {
                        log.components[kind as usize].accumulate(&metrics);
                    }
                    Some(answer)
                }
                Err(_) => None,
            };
            log.records.push(OpRecord {
                index: index as u32,
                kind,
                answer,
                start_ns,
                end_ns,
            });
            index += clients;
        }
        log.end_ns = now_ns();
        log
    };
    let per_client: Vec<(ClientLog, ClientLog)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let run_phase = &run_phase;
                scope.spawn(move || {
                    let cold = run_phase(client, 0, cold_ops.min(total_ops));
                    let steady = run_phase(client, cold_ops.min(total_ops), total_ops);
                    (cold, steady)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads catch op panics"))
            .collect()
    });
    let mut log = RunLog::default();
    for (cold, steady) in per_client {
        log.cold.clients.push(cold);
        log.steady.clients.push(steady);
    }
    log
}
