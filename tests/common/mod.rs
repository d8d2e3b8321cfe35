//! What the root integration tests and the facade's unit tests share: a
//! seeded single-column op stream, a `BTreeMap` multiset oracle, one
//! `Column` surface over the indexes under test, and clients on scoped
//! threads.

// Each test binary compiles this module and uses a different part of it.
#![allow(dead_code)]

use adaptive_indexing::prelude::*;
use aidx_core::CompactionPolicy;
use rand::prelude::*;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// One operation on a single column: a Q1 count or a Q2 sum over
/// `[low, high)`, or a write of one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Count(i64, i64),
    Sum(i64, i64),
    Insert(i64),
    Delete(i64),
}

impl Op {
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Insert(_) | Op::Delete(_))
    }
}

/// `n` ops over keys `[0, domain)`: a `write_ratio` share of writes, half
/// inserts and half deletes of uniform keys, and otherwise `aggregate`
/// reads of `selectivity × domain` keys at uniform positions.
pub fn ops(
    domain: u64,
    n: usize,
    selectivity: f64,
    aggregate: Aggregate,
    write_ratio: f64,
    seed: u64,
) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    // An empty domain still yields ops: writes of key 0, reads of [0, 1).
    let keys = domain.max(1);
    let width = ((selectivity * domain as f64) as u64).clamp(1, keys);
    (0..n)
        .map(|_| {
            if rng.gen_bool(write_ratio) {
                let key = rng.gen_range(0..keys) as i64;
                return match rng.gen_bool(0.5) {
                    true => Op::Insert(key),
                    false => Op::Delete(key),
                };
            }
            let low = rng.gen_range(0..=keys - width) as i64;
            let high = low + width as i64;
            match aggregate {
                Aggregate::Count => Op::Count(low, high),
                Aggregate::Sum => Op::Sum(low, high),
            }
        })
        .collect()
}

/// The `value → multiplicity` multiset every answer is checked against.
pub struct Oracle(BTreeMap<i64, u64>);

impl Oracle {
    pub fn new(values: &[i64]) -> Self {
        let mut oracle = BTreeMap::new();
        for &v in values {
            *oracle.entry(v).or_insert(0) += 1;
        }
        Oracle(oracle)
    }

    /// Applies `op` and returns what a correct index answers: the count
    /// or sum of a read, 1 for an insert, the rows a delete removes.
    pub fn apply(&mut self, op: Op) -> i128 {
        match op {
            Op::Count(low, high) | Op::Sum(low, high) if low >= high => 0,
            Op::Count(low, high) => self.0.range(low..high).map(|(_, &n)| n as i128).sum(),
            Op::Sum(low, high) => self
                .0
                .range(low..high)
                .map(|(&v, &n)| v as i128 * n as i128)
                .sum(),
            Op::Insert(v) => {
                *self.0.entry(v).or_insert(0) += 1;
                1
            }
            Op::Delete(v) => self.0.remove(&v).unwrap_or(0) as i128,
        }
    }
}

/// The oracle's answers to `ops`, applied in order to `values`.
pub fn expected(values: &[i64], ops: &[Op]) -> Vec<i128> {
    let mut oracle = Oracle::new(values);
    ops.iter().map(|&op| oracle.apply(op)).collect()
}

/// The answers of a run, in op order.
pub fn answers(run: &[(i128, QueryMetrics)]) -> Vec<i128> {
    run.iter().map(|&(answer, _)| answer).collect()
}

/// A column index under test.
pub trait Column: Sync {
    /// Executes `op`: the answer (rows written for a write) and its metrics.
    fn apply(&self, op: Op) -> (i128, QueryMetrics);
}

impl Column for ConcurrentCracker {
    fn apply(&self, op: Op) -> (i128, QueryMetrics) {
        match op {
            Op::Count(low, high) => {
                let (count, metrics) = self.count(low, high);
                (count as i128, metrics)
            }
            Op::Sum(low, high) => self.sum(low, high),
            Op::Insert(v) => (1, self.insert(v)),
            Op::Delete(v) => {
                let (removed, metrics) = self.delete(v);
                (removed as i128, metrics)
            }
        }
    }
}

impl Column for ConcurrentAdaptiveMerge {
    fn apply(&self, op: Op) -> (i128, QueryMetrics) {
        match op {
            Op::Count(low, high) => {
                let (count, metrics) = self.count(low, high);
                (count as i128, metrics)
            }
            Op::Sum(low, high) => self.sum(low, high),
            Op::Insert(v) => (1, self.insert(v)),
            Op::Delete(v) => {
                let (removed, metrics) = self.delete(v);
                (removed as i128, metrics)
            }
        }
    }
}

/// A cracker whose every read answers through a pin opened for it alone.
pub struct Pinned(pub ConcurrentCracker);

impl Column for Pinned {
    fn apply(&self, op: Op) -> (i128, QueryMetrics) {
        match op {
            Op::Count(low, high) => {
                let (count, metrics) = self.0.pin().count(low, high);
                (count as i128, metrics)
            }
            Op::Sum(low, high) => self.0.pin().sum(low, high),
            write => self.0.apply(write),
        }
    }
}

/// The range arms' usual compaction: incremental merges once the delta
/// holds 10 % of the column.
pub const RANGE_COMPACTION: CompactionPolicy = CompactionPolicy::fraction(0.1).incremental(8);

/// A piece-latched cracker cracked at the splits of `ranges` key ranges.
pub fn ranged(values: &[i64], ranges: usize, compaction: CompactionPolicy) -> ConcurrentCracker {
    ConcurrentCracker::from_values(values.to_vec(), LatchProtocol::Piece)
        .with_compaction(compaction)
        .with_ranges(ranges)
}

/// The adaptive-merging arm over `values`, in runs of `run_size`.
pub fn merging(values: &[i64], run_size: usize) -> ConcurrentAdaptiveMerge {
    ConcurrentAdaptiveMerge::build_from_values(values, run_size, Default::default())
}

/// Runs `ops` on `column` from `clients` scoped threads, client `c` taking
/// ops `c, c + clients, …` in order. Returns each op's answer and metrics
/// at the op's index.
pub fn run_clients(
    column: &(impl Column + ?Sized),
    ops: &[Op],
    clients: usize,
) -> Vec<(i128, QueryMetrics)> {
    let clients = clients.clamp(1, ops.len().max(1));
    let slices: Vec<Vec<(i128, QueryMetrics)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mine = ops.iter().skip(c).step_by(clients);
                    mine.map(|&op| column.apply(op)).collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut out = vec![(0, QueryMetrics::default()); ops.len()];
    for (c, slice) in slices.into_iter().enumerate() {
        for (k, answer) in slice.into_iter().enumerate() {
            out[c + k * clients] = answer;
        }
    }
    out
}

/// Runs `ops` on `column` from `clients` scoped threads with the oracle
/// seeded from `values` locked across each call, so the clients' one
/// linear order is the order the oracle replays. Returns every op whose
/// answer disagreed, with the answer and the oracle's.
pub fn run_checked(
    column: &(impl Column + ?Sized),
    values: &[i64],
    ops: &[Op],
    clients: usize,
) -> Vec<(Op, i128, i128)> {
    let oracle = Mutex::new(Oracle::new(values));
    let mismatches = Mutex::new(Vec::new());
    let checked = Checked {
        column,
        oracle: &oracle,
        mismatches: &mismatches,
    };
    run_clients(&checked, ops, clients);
    mismatches.into_inner().unwrap()
}

struct Checked<'a, C: ?Sized> {
    column: &'a C,
    oracle: &'a Mutex<Oracle>,
    mismatches: &'a Mutex<Vec<(Op, i128, i128)>>,
}

impl<C: Column + ?Sized> Column for Checked<'_, C> {
    fn apply(&self, op: Op) -> (i128, QueryMetrics) {
        let mut oracle = self.oracle.lock().unwrap();
        let (got, metrics) = self.column.apply(op);
        let expected = oracle.apply(op);
        drop(oracle);
        if got != expected {
            self.mismatches.lock().unwrap().push((op, got, expected));
        }
        (got, metrics)
    }
}
