//! The table workloads: `table_mixed` and `table_range_zipf`.
//!
//! Both run a 4-column fact table of decorrelated uniform keys (domain
//! `rows / 4`, so keys repeat) through `TableEngine`. `table_mixed` uses
//! the serial piece-latched backend with incremental compaction and mixes
//! selects, inserts, deletes and joins against a small dimension table;
//! `table_range_zipf` sends the same select generator, with zipfian range
//! positions, through the latch-free range backend, read-only.

use crate::gen::{permutation, uniform_column, Fnv1a, SplitMix64, Zipf};
use crate::outcome::{rep_plan, PostStats, RepOutcome, WorkloadOutcome};
use crate::run::{rowid_check, run_phases, Answer, OpKind};
use crate::spec::{Sizing, FACT_COLUMNS, PARTITIONS};
use aidx_core::{CompactionPolicy, LatchProtocol, QueryMetrics};
use aidx_table::{ColumnPredicate, JoinStrategy, TableBackend, TableEngine, TableOp};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Per-predicate selectivity range: wide enough that cracking the most
/// selective column first, and intersecting from its side, matters.
const MIN_SELECTIVITY: f64 = 0.005;
const MAX_SELECTIVITY: f64 = 0.20;
/// Key window of a join, as a share of the key domain.
const JOIN_WINDOW: f64 = 0.02;
/// Slices per column of the final-state sweep.
const SWEEP_SLICES: i64 = 64;
/// Residue classes (mod 4) of column 0: dimension keys, deleted keys and
/// inserted keys never meet, so delete counts, join answers and the final
/// state do not depend on how the clients interleave.
const DIM_CLASS: i64 = 0;
const DELETE_CLASS: i64 = 1;
const INSERT_CLASS: i64 = 3;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Select(Vec<ColumnPredicate>),
    Insert([i64; FACT_COLUMNS]),
    /// `DELETE WHERE col0 = key`.
    Delete(i64),
    /// Fact ⋈ dimension on column 0, both sides filtered to the window.
    Join(i64, i64),
}

impl Op {
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Select(_) => OpKind::Read,
            Op::Insert(_) | Op::Delete(_) => OpKind::Write,
            Op::Join(..) => OpKind::Join,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 75 % select, 10 % insert, 10 % delete, 5 % join; uniform positions.
    Mixed,
    /// Selects only; zipfian positions (θ = 1.0 over 256 buckets).
    ReadOnlyZipf,
}

/// Compaction policy of every table engine: small enough a threshold that
/// a write-heavy stream would trip it, incremental so no write stalls on a
/// whole-array rebuild.
pub const COMPACTION: CompactionPolicy = CompactionPolicy::rows(8192).incremental(4);

/// Op mix and column backend of a table workload.
pub fn config(workload: &str) -> (Mix, TableBackend) {
    match workload {
        "table_mixed" => (Mix::Mixed, TableBackend::Serial(LatchProtocol::Piece)),
        "table_range_zipf" => (
            Mix::ReadOnlyZipf,
            TableBackend::Range {
                partitions: PARTITIONS,
            },
        ),
        other => panic!("not a table workload: {other}"),
    }
}

pub fn key_domain(rows: usize) -> i64 {
    (rows / 4) as i64
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// The predicate selectivities of `selects` selects: a third each carry
/// one, two and three predicates, and over each predicate slot the
/// selectivities form an even log-scale grid from `MIN_SELECTIVITY` to
/// `MAX_SELECTIVITY`, shuffled. The composition is exact, not sampled:
/// two seeds differ in pairing and order but hold the same rows to select.
fn select_shapes(selects: usize, rng: &mut SplitMix64) -> Vec<Vec<f64>> {
    let mut shapes: Vec<Vec<f64>> = vec![Vec::new(); selects];
    for slot in 0..3 {
        let mut holders: Vec<usize> = (0..selects).filter(|i| i % 3 >= slot).collect();
        shuffle(&mut holders, rng);
        let n = holders.len() as f64;
        for (t, select) in holders.into_iter().enumerate() {
            let u = (t as f64 + 0.5) / n;
            shapes[select].push(MIN_SELECTIVITY * (MAX_SELECTIVITY / MIN_SELECTIVITY).powf(u));
        }
    }
    shapes
}

fn select_op(shape: &[f64], domain: i64, zipf: Option<&Zipf>, rng: &mut SplitMix64) -> Op {
    let mut columns: [usize; FACT_COLUMNS] = std::array::from_fn(|c| c);
    let mut out = Vec::with_capacity(shape.len());
    for (slot, selectivity) in shape.iter().enumerate() {
        let pick = slot + rng.below((FACT_COLUMNS - slot) as u64) as usize;
        columns.swap(slot, pick);
        let width = ((domain as f64 * selectivity) as i64).max(1);
        let low = match zipf {
            None => rng.below((domain - width + 1) as u64) as i64,
            Some(zipf) => {
                let bucket_width = (domain / 256).max(1);
                let low =
                    zipf.sample(rng) as i64 * bucket_width + rng.below(bucket_width as u64) as i64;
                low.min(domain - width)
            }
        };
        out.push(ColumnPredicate::new(columns[slot], low, low + width));
    }
    Op::Select(out)
}

/// One phase's ops. The composition is exact, not sampled — the op-kind
/// shares and the select shapes — so two seeds differ in order, columns
/// and positions but not in how much heavy work the stream holds; only
/// then can runs on different seeds be compared.
fn phase_ops(
    mix: Mix,
    rows: usize,
    ops: usize,
    delete_slots: &mut impl Iterator<Item = i64>,
    rng: &mut SplitMix64,
) -> Vec<Op> {
    let domain = key_domain(rows);
    let zipf = (mix == Mix::ReadOnlyZipf).then(|| Zipf::new(256, 1.0));
    let (writes, joins) = match mix {
        Mix::Mixed => (ops / 10, ops / 20),
        Mix::ReadOnlyZipf => (0, 0),
    };
    let mut out: Vec<Op> = select_shapes(ops - 2 * writes - joins, rng)
        .iter()
        .map(|shape| select_op(shape, domain, zipf.as_ref(), rng))
        .collect();
    for slot in delete_slots.take(writes) {
        out.push(Op::Delete(slot * 4 + DELETE_CLASS));
        let mut tuple = [0i64; FACT_COLUMNS];
        tuple[0] = rng.below(domain as u64 / 4) as i64 * 4 + INSERT_CLASS;
        for value in &mut tuple[1..] {
            *value = rng.below(domain as u64) as i64;
        }
        out.push(Op::Insert(tuple));
    }
    let width = ((domain as f64 * JOIN_WINDOW) as i64).max(1);
    for _ in 0..joins {
        let low = rng.below((domain - width + 1) as u64) as i64;
        out.push(Op::Join(low, low + width));
    }
    shuffle(&mut out, rng);
    out
}

/// One repetition's op stream: a cold phase and a steady phase, each with
/// the exact composition. Delete keys are distinct over the whole stream,
/// so each delete's row count is known exactly.
pub fn generate_ops(
    mix: Mix,
    rows: usize,
    cold: usize,
    steady: usize,
    rng: &mut SplitMix64,
) -> Vec<Op> {
    let slots = if mix == Mix::Mixed {
        key_domain(rows) / 4
    } else {
        0
    };
    let mut delete_slots = permutation(slots as usize, rng).into_iter();
    let mut ops = phase_ops(mix, rows, cold, &mut delete_slots, rng);
    ops.extend(phase_ops(mix, rows, steady, &mut delete_slots, rng));
    ops
}

/// FNV-1a over every op of every repetition, in order.
pub fn hash_streams(streams: &[Vec<Op>]) -> u64 {
    let mut hash = Fnv1a::new();
    for op in streams.iter().flatten() {
        match op {
            Op::Select(predicates) => {
                hash.write_u64(predicates.len() as u64);
                for p in predicates {
                    hash.write_u64(p.column as u64);
                    hash.write_i64(p.low);
                    hash.write_i64(p.high);
                }
            }
            Op::Insert(tuple) => {
                hash.write_u64(10);
                tuple.iter().for_each(|&v| hash.write_i64(v));
            }
            Op::Delete(key) => {
                hash.write_u64(11);
                hash.write_i64(*key);
            }
            Op::Join(low, high) => {
                hash.write_u64(12);
                hash.write_i64(*low);
                hash.write_i64(*high);
            }
        }
    }
    hash.finish()
}

pub struct TableInputs {
    /// Column-major fact table.
    pub fact: Vec<Vec<i64>>,
    /// Column-major dimension table: unique keys in `DIM_CLASS`, spread
    /// over the fact key domain, and one attribute.
    pub dim: Vec<Vec<i64>>,
    pub streams: Vec<Vec<Op>>,
}

pub fn generate(workload: &str, mix: Mix, sizing: &Sizing, seed: u64) -> TableInputs {
    let domain = key_domain(sizing.rows);
    let fact = (0..FACT_COLUMNS)
        .map(|c| {
            let mut rng = SplitMix64::stream(seed, &format!("table.fact.{c}"));
            uniform_column(sizing.rows, domain as u64, &mut rng)
        })
        .collect();
    let spacing = domain / sizing.dim_rows as i64;
    assert!(
        spacing >= 4 && spacing % 4 == 0,
        "dimension keys must stay in their residue class"
    );
    let mut rng = SplitMix64::stream(seed, "table.dim");
    let keys = permutation(sizing.dim_rows, &mut rng)
        .into_iter()
        .map(|k| k * spacing + DIM_CLASS)
        .collect();
    let dim = vec![keys, uniform_column(sizing.dim_rows, 1000, &mut rng)];
    let streams = (0..sizing.reps)
        .map(|rep| {
            let mut rng = SplitMix64::stream(seed, &format!("{workload}.ops.{rep}"));
            generate_ops(
                mix,
                sizing.rows,
                sizing.cold_ops,
                sizing.steady_ops,
                &mut rng,
            )
        })
        .collect();
    TableInputs { fact, dim, streams }
}

pub fn named(columns: &[Vec<i64>]) -> Vec<(String, Vec<i64>)> {
    columns
        .iter()
        .enumerate()
        .map(|(c, values)| (format!("c{c}"), values.clone()))
        .collect()
}

pub fn pair_check(left: u32, right: u32) -> u64 {
    rowid_check(left).wrapping_add(rowid_check(right).rotate_left(32))
}

fn rowids_check(rowids: &[u32]) -> u64 {
    rowids
        .iter()
        .fold(0u64, |acc, &r| acc.wrapping_add(rowid_check(r)))
}

/// Binds an op to the engines of one repetition.
pub fn bind(op: &Op, dim: &Arc<TableEngine>) -> TableOp {
    match op {
        Op::Select(predicates) => TableOp::SelectMulti(predicates.clone()),
        Op::Insert(tuple) => TableOp::InsertTuple(tuple.to_vec()),
        Op::Delete(key) => TableOp::DeleteWhere {
            column: 0,
            value: *key,
        },
        Op::Join(low, high) => TableOp::Join {
            other: Arc::clone(dim),
            left_col: 0,
            right_col: 0,
            filters_left: vec![ColumnPredicate::new(0, *low, *high)],
            filters_right: vec![ColumnPredicate::new(0, *low, *high)],
            strategy: JoinStrategy::Auto,
        },
    }
}

/// Executes one bound op and reduces its answer to what the oracle checks.
/// An insert keeps the row id it was assigned: the final-state oracle
/// needs it, and it is the one thing that depends on interleaving.
pub fn execute(engine: &TableEngine, op: &TableOp) -> (Answer, QueryMetrics) {
    let result = engine.execute(op);
    let check = match op {
        TableOp::InsertTuple(_) => result.rowids[0] as u64,
        TableOp::Join { .. } => result
            .pairs
            .iter()
            .fold(0u64, |acc, &(l, r)| acc.wrapping_add(pair_check(l, r))),
        _ => rowids_check(&result.rowids),
    };
    (
        Answer {
            value: result.value,
            check,
        },
        result.metrics,
    )
}

/// Host-side oracle over the base fact table: per column the row ids in
/// `(value, rowid)` order and prefix sums of their checksums, so a
/// one-predicate select is two binary searches. Smaller than the engine it
/// checks and built only after the engines are gone, so `peak_rss_mb`
/// stays the engine's.
pub struct FactOracle<'a> {
    columns: &'a [Vec<i64>],
    order: Vec<Vec<u32>>,
    prefix: Vec<Vec<u64>>,
}

impl<'a> FactOracle<'a> {
    pub fn new(columns: &'a [Vec<i64>]) -> Self {
        let mut order = Vec::new();
        let mut prefix = Vec::new();
        for values in columns {
            let mut ids: Vec<u32> = (0..values.len() as u32).collect();
            ids.sort_unstable_by_key(|&r| (values[r as usize], r));
            let mut sums = Vec::with_capacity(ids.len() + 1);
            let mut acc = 0u64;
            sums.push(acc);
            for &r in &ids {
                acc = acc.wrapping_add(rowid_check(r));
                sums.push(acc);
            }
            order.push(ids);
            prefix.push(sums);
        }
        FactOracle {
            columns,
            order,
            prefix,
        }
    }

    /// Positions in column `c`'s sorted order holding `[low, high)`.
    fn span(&self, c: usize, low: i64, high: i64) -> (usize, usize) {
        let values = &self.columns[c];
        let ids = &self.order[c];
        let from = ids.partition_point(|&r| values[r as usize] < low);
        let to = ids.partition_point(|&r| values[r as usize] < high);
        (from, to.max(from))
    }

    /// Row ids of base rows with column `c` in `[low, high)`.
    pub fn rows(&self, c: usize, low: i64, high: i64) -> &[u32] {
        let (from, to) = self.span(c, low, high);
        &self.order[c][from..to]
    }

    /// Count and checksum of base rows with column `c` in `[low, high)`.
    pub fn slice(&self, c: usize, low: i64, high: i64) -> Answer {
        let (from, to) = self.span(c, low, high);
        Answer {
            value: (to - from) as i128,
            check: self.prefix[c][to].wrapping_sub(self.prefix[c][from]),
        }
    }

    /// A conjunctive select over the base table: walk the narrowest
    /// predicate's rows and test the others against the columns.
    pub fn select(&self, predicates: &[ColumnPredicate]) -> Answer {
        if let [p] = predicates {
            return self.slice(p.column, p.low, p.high);
        }
        let driver = predicates
            .iter()
            .min_by_key(|p| {
                let (from, to) = self.span(p.column, p.low, p.high);
                to - from
            })
            .expect("selects carry at least one predicate");
        let mut answer = Answer::default();
        for &r in self.rows(driver.column, driver.low, driver.high) {
            if predicates
                .iter()
                .all(|p| p.matches(self.columns[p.column][r as usize]))
            {
                answer.value += 1;
                answer.check = answer.check.wrapping_add(rowid_check(r));
            }
        }
        answer
    }

    /// Fact ⋈ dimension on column 0 inside `[low, high)`.
    pub fn join(&self, dim_keys: &[i64], low: i64, high: i64) -> Answer {
        let mut answer = Answer::default();
        for (dim_row, &key) in dim_keys.iter().enumerate() {
            if key >= low && key < high {
                for &fact_row in self.rows(0, key, key + 1) {
                    answer.value += 1;
                    answer.check = answer
                        .check
                        .wrapping_add(pair_check(fact_row, dim_row as u32));
                }
            }
        }
        answer
    }
}

/// One repetition, kept until the oracle exists: `rep.failed` so far counts
/// only the invariant check.
struct Kept {
    stream: usize,
    rep: RepOutcome,
    /// Engine answers of the final-state sweep, `[column][slice]`.
    sweep: Vec<Vec<Answer>>,
}

fn sweep_bounds(domain: i64, slice: i64) -> (i64, i64) {
    (
        domain * slice / SWEEP_SLICES,
        domain * (slice + 1) / SWEEP_SLICES,
    )
}

/// Counts the answers of one repetition that the oracle rejects.
fn verify(mix: Mix, inputs: &TableInputs, oracle: &FactOracle, ops: &[Op], kept: &Kept) -> u64 {
    let domain = key_domain(inputs.fact[0].len());
    let log = &kept.rep.log;
    let mut failed = 0;
    // What the writes did to the base table, for the final-state sweep.
    let mut deleted: HashSet<u32> = HashSet::new();
    let mut inserted: Vec<(u32, [i64; FACT_COLUMNS])> = Vec::new();
    for record in log.cold.records().chain(log.steady.records()) {
        let op = &ops[record.index as usize];
        let Some(answer) = record.answer else {
            failed += 1;
            continue;
        };
        let ok = match op {
            // Concurrent writes make a select's exact answer depend on the
            // interleaving; the final-state sweep covers them instead.
            Op::Select(_) if mix == Mix::Mixed => true,
            Op::Select(predicates) => answer == oracle.select(predicates),
            Op::Insert(tuple) => {
                inserted.push((answer.check as u32, *tuple));
                answer.value == 1
            }
            Op::Delete(key) => {
                deleted.extend(oracle.rows(0, *key, key + 1));
                answer == oracle.slice(0, *key, key + 1)
            }
            Op::Join(low, high) => answer == oracle.join(&inputs.dim[0], *low, *high),
        };
        failed += !ok as u64;
    }
    for (c, engine_slices) in kept.sweep.iter().enumerate() {
        let mut expected: Vec<Answer> = (0..SWEEP_SLICES)
            .map(|s| {
                let (low, high) = sweep_bounds(domain, s);
                oracle.slice(c, low, high)
            })
            .collect();
        let slice_of = |value: i64| (value * SWEEP_SLICES / domain) as usize;
        for &r in &deleted {
            let slot = &mut expected[slice_of(inputs.fact[c][r as usize])];
            slot.value -= 1;
            slot.check = slot.check.wrapping_sub(rowid_check(r));
        }
        for (r, tuple) in &inserted {
            let slot = &mut expected[slice_of(tuple[c])];
            slot.value += 1;
            slot.check = slot.check.wrapping_add(rowid_check(*r));
        }
        failed += engine_slices
            .iter()
            .zip(&expected)
            .filter(|(got, want)| got != want)
            .count() as u64;
    }
    failed
}

pub fn run(workload: &str, sizing: &Sizing, seed: u64, trace: bool) -> WorkloadOutcome {
    let (mix, backend) = config(workload);
    let inputs = generate(workload, mix, sizing, seed);
    let domain = key_domain(sizing.rows);
    assert_eq!(
        domain % SWEEP_SLICES,
        0,
        "sweep slices must tile the domain"
    );
    // Construction from columns the caller keeps: the copies handed over
    // are part of the cost.
    let build = || {
        let start = Instant::now();
        let fact = TableEngine::new("fact", named(&inputs.fact), backend, COMPACTION);
        let dim = TableEngine::new("dim", named(&inputs.dim), backend, COMPACTION);
        (fact, Arc::new(dim), start.elapsed().as_secs_f64())
    };
    let mut kept = Vec::new();
    for (stream, traced) in rep_plan(sizing.reps, trace) {
        let ops = &inputs.streams[stream];
        let (fact, dim, _) = build();
        let bound: Vec<TableOp> = ops.iter().map(|op| bind(op, &dim)).collect();
        let log = run_phases(
            sizing.clients,
            ops.len(),
            sizing.cold_ops,
            traced,
            |i| ops[i].kind(),
            |i| execute(&fact, &bound[i]),
        );
        let probe = fact.structure_probe();
        let (gallop, hash_joins, _) = fact.join_strategy_counts();
        let sweep = (0..FACT_COLUMNS)
            .map(|c| {
                (0..SWEEP_SLICES)
                    .map(|s| {
                        let (low, high) = sweep_bounds(domain, s);
                        let op = TableOp::SelectMulti(vec![ColumnPredicate::new(c, low, high)]);
                        execute(&fact, &op).0
                    })
                    .collect()
            })
            .collect();
        let invariants_ok = fact.check_invariants() && dim.check_invariants();
        kept.push(Kept {
            stream,
            sweep,
            rep: RepOutcome {
                traced,
                failed: !invariants_ok as u64,
                attempted: ops.len() as u64 + 1 + (FACT_COLUMNS as i64 * SWEEP_SLICES) as u64,
                post: PostStats {
                    delta_rows: probe.pending_inserts + probe.tombstoned_rows,
                    piece_sizes: probe.piece_sizes,
                    partition_load: probe.partition_load,
                    joins: (gallop, hash_joins),
                    ..PostStats::default()
                },
                log,
            },
        });
    }
    // Only an untraced run reports `setup_s`.
    let setup_s = if trace {
        Vec::new()
    } else {
        (0..sizing.setup_samples).map(|_| build().2).collect()
    };
    // The correctness gate, after every timed window and with the engines
    // dropped.
    let oracle = FactOracle::new(&inputs.fact);
    let reps = kept
        .into_iter()
        .map(|mut kept| {
            kept.rep.failed += verify(mix, &inputs, &oracle, &inputs.streams[kept.stream], &kept);
            kept.rep
        })
        .collect();
    WorkloadOutcome {
        op_hash: hash_streams(&inputs.streams),
        setup_s,
        reps,
        through_table: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_delete_and_dimension_key_classes_are_disjoint() {
        let ops = generate_ops(Mix::Mixed, 64 << 10, 400, 3600, &mut SplitMix64::new(9));
        let mut inserts = 0;
        let mut deletes = HashSet::new();
        for op in &ops {
            match op {
                Op::Insert(tuple) => {
                    inserts += 1;
                    assert_eq!(tuple[0] % 4, INSERT_CLASS);
                }
                Op::Delete(key) => {
                    assert_eq!(key % 4, DELETE_CLASS);
                    assert!(deletes.insert(*key), "delete keys are distinct");
                }
                _ => {}
            }
        }
        assert!(inserts > 300 && deletes.len() > 300);
        let sizing = crate::spec::sizing("table_mixed", crate::spec::Scale::Smoke, 1);
        let inputs = generate("table_mixed", Mix::Mixed, &sizing, 9);
        assert!(inputs.dim[0].iter().all(|k| k % 4 == DIM_CLASS));
        assert!(inputs.dim[0].iter().all(|&k| k < key_domain(sizing.rows)));
    }

    #[test]
    fn same_seed_same_load_different_seed_different_load() {
        let sizing = crate::spec::sizing("table_mixed", crate::spec::Scale::Smoke, 1);
        for (workload, mix) in [
            ("table_mixed", Mix::Mixed),
            ("table_range_zipf", Mix::ReadOnlyZipf),
        ] {
            let hash = |seed| hash_streams(&generate(workload, mix, &sizing, seed).streams);
            assert_eq!(hash(5), hash(5));
            assert_ne!(hash(5), hash(6));
        }
    }

    #[test]
    fn op_mix_has_the_stated_shares() {
        let ops = generate_ops(Mix::Mixed, 64 << 10, 2_000, 18_000, &mut SplitMix64::new(1));
        let share = |kind| ops.iter().filter(|op| op.kind() == kind).count() as f64 / 20_000.0;
        assert_eq!(share(OpKind::Read), 0.75);
        assert_eq!(share(OpKind::Write), 0.20);
        assert_eq!(share(OpKind::Join), 0.05);
        let zipf = generate_ops(
            Mix::ReadOnlyZipf,
            64 << 10,
            100,
            900,
            &mut SplitMix64::new(1),
        );
        assert!(zipf.iter().all(|op| op.kind() == OpKind::Read));
    }

    #[test]
    fn oracle_select_agrees_with_a_scan() {
        let sizing = crate::spec::sizing("table_range_zipf", crate::spec::Scale::Smoke, 1);
        let inputs = generate("table_range_zipf", Mix::ReadOnlyZipf, &sizing, 4);
        let oracle = FactOracle::new(&inputs.fact);
        for op in inputs.streams[0].iter().take(40) {
            let Op::Select(predicates) = op else {
                unreachable!()
            };
            let mut want = Answer::default();
            for r in 0..sizing.rows {
                if predicates
                    .iter()
                    .all(|p| p.matches(inputs.fact[p.column][r]))
                {
                    want.value += 1;
                    want.check = want.check.wrapping_add(rowid_check(r as u32));
                }
            }
            assert_eq!(oracle.select(predicates), want, "{predicates:?}");
        }
    }
}
