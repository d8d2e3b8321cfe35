//! The table engine: N rowid-preserving column crackers over one row-id
//! space, a planner for conjunctive multi-column selections, and
//! positionally aligned writes.
//!
//! # Planning a `SelectMulti`
//!
//! Predicates are ordered by estimated selectivity (ascending range
//! width — the generated experiment data is a uniform key domain, so
//! width *is* the estimate, and estimating never touches data). The most
//! selective column is cracked first and yields the candidate set — a
//! [`RowIdSet`] in the planner form ([`ReadShape::Candidates`]): the
//! bitmap the read scattered, or a sorted vector when the ids are
//! sparser than one per 1 024 of span (no predicates yield every live
//! row as the same dense set). The plan never compacts it: every set it
//! builds stays in the planner form, the join filter tests membership in
//! them, and the select's result decodes the last one once. Every further predicate either
//!
//! * **reads its own column `Within` the candidates**
//!   ([`ReadShape::Within`]): the read cracks the column at the
//!   predicate's bounds like any other — the adaptive-indexing bet:
//!   later queries get ever cheaper — and its piece walk tests each row
//!   id against the candidates' bitmap, so only the candidates among the
//!   predicate's rows are scattered into the next candidate set. No
//!   second full set is built and no intersection runs; or
//! * **projects**: probes the row store (`tuple[col]` per candidate, 64
//!   candidates per batch) instead, at the cost of refining nothing.
//!
//! The switch weighs counts, not clocks: a probe is taken to cost 8 rows
//! of a `Within` read (`PROJECTION_WEIGHTS`), so the predicate projects
//! when `candidates × 8 < rows`, where `rows` is its estimated result: the
//! driver's result scaled by the two predicates' widths (the same
//! uniform-domain assumption as the ordering).
//!
//! A join plans each side's filter stack the same way and hashes the side
//! whose key-run read returned fewer rows (see
//! [`TableEngine::execute_join`]). Every plan is therefore a function of
//! the op stream and the data, never of host load: two runs of one op
//! stream crack the same columns at the same bounds.
//!
//! # Write atomicity
//!
//! A tuple write touches every column index. Writers never wait for
//! readers: `InsertTuple` and `DeleteWhere` hold the table's **writer
//! mutex** for their whole (sub-millisecond) duration and stamp the
//! table's next commit sequence, and a read operation holds the mutex only
//! while it pins a **cut** — one snapshot handle on every column its plan
//! will read. No table write is in flight while the mutex is held, so the
//! per-column epochs of a cut are one consistent state of the table: every
//! write up to the cut's sequence and none after. The select or join then
//! drops the mutex and runs its whole plan against the cut, while later
//! writes land freely; they are invisible to it. A deleted inserted
//! tuple's row-store entry outlives the delete until no cut older than it
//! is left, so a projection or nested-loop probe of a pinned row id still
//! finds its values. *Within* a column, the existing latch protocols govern
//! exactly as in the single-column engines (concurrent reads still crack
//! all columns in parallel under piece/column latches, pinned or not).

use crate::ops::{ColumnPredicate, JoinStrategy, TableOp, TableOpResult};
use aidx_core::facade::{Mutex, MutexGuard, RwLock};
use aidx_core::{
    dcheck, resolve_ranges, ColumnRead, CompactionPolicy, ConcurrentCracker, KeyRuns,
    LatchProtocol, QueryMetrics, ReadShape, RowIdSet, Snapshot,
};
use aidx_cracking::RowId;
use aidx_obs::{emit, StructureProbe, TraceEvent};
use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Projection vs. a [`ReadShape::Within`] read, as `(probe, read)`
/// weights per row: one row-store probe of a candidate (a column load by
/// row id, a cache miss once the candidates are sparse; an inserted row
/// adds a hash-overlay lookup) costs about 8 rows of the predicate's own
/// column read `Within` the candidates (crack, walk, bit test, scatter
/// and delta fold together). Measured on the benchmark's `table_mixed`
/// (2 vCPUs, seed 7) with the weights set to 5, 8, 12 and 16 to 1: 42–64
/// ns per projected candidate against 6.4–7.9 ns per expected row of a
/// `Within` read (sweep in CHANGES.md).
const PROJECTION_WEIGHTS: (u128, u128) = (8, 1);

/// How every column's [`ConcurrentCracker`] is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableBackend {
    /// Under the given latch protocol (concurrent clients, one shared
    /// index).
    Serial(LatchProtocol),
    /// Under piece latches, cracked at balanced key-range splits when it
    /// is built ([`ConcurrentCracker::with_ranges`]).
    Range {
        /// Partitions per column (0 = one per available core).
        partitions: usize,
    },
}

impl TableBackend {
    /// Stable label used in reports, e.g. `table-serial-piece`,
    /// `table-range-4`.
    pub fn label(&self) -> String {
        match self {
            TableBackend::Serial(protocol) => format!("table-serial-{protocol}"),
            TableBackend::Range { partitions } => {
                format!("table-range-{}", resolve_ranges(*partitions))
            }
        }
    }
}

fn parse_protocol(s: &str) -> Option<LatchProtocol> {
    match s {
        "none" => Some(LatchProtocol::None),
        "column" => Some(LatchProtocol::Column),
        "piece" => Some(LatchProtocol::Piece),
        _ => None,
    }
}

impl FromStr for TableBackend {
    type Err = String;

    /// Parses the labels [`TableBackend::label`] produces (worker count
    /// omitted = one per core).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim().to_ascii_lowercase();
        let err = || format!("unknown table backend '{s}'");
        if let Some(proto) = s.strip_prefix("table-serial-") {
            return Ok(TableBackend::Serial(parse_protocol(proto).ok_or_else(err)?));
        }
        if s == "table-range" {
            return Ok(TableBackend::Range { partitions: 0 });
        }
        if let Some(rest) = s.strip_prefix("table-range-") {
            let partitions: usize = rest.parse().map_err(|_| err())?;
            return Ok(TableBackend::Range { partitions });
        }
        Err(err())
    }
}

/// A table engine: one rowid-preserving cracker per column over a shared
/// row-id space, plus a row store for tuple reconstruction.
pub struct TableEngine {
    name: String,
    column_names: Vec<String>,
    indexes: Vec<ConcurrentCracker>,
    /// Column-major seed data: `base[col][rowid]` for `rowid < base_rows`.
    /// Kept verbatim (including later-deleted rows — dead entries are
    /// unreachable because no select returns their row ids).
    base: Vec<Vec<i64>>,
    base_rows: usize,
    /// Tuples inserted after load, keyed by their assigned row id.
    overlay: RwLock<HashMap<RowId, Vec<i64>>>,
    /// Next row id for inserted tuples.
    next_rowid: AtomicU64,
    /// The writer mutex: held by every write for its whole duration and
    /// by a read operation only while it pins its cut (dcheck
    /// [`dcheck::Level::TableWriter`]).
    writer: Mutex<()>,
    writer_instance: usize,
    /// The commit sequence, the live cuts, and the row-store entries
    /// waiting for them.
    pins: Mutex<PinLedger>,
    /// Seeded defect for the concurrency tests: a read takes no writer
    /// mutex and pins each column at its first read (see
    /// [`TableEngine::with_lazy_pins`]).
    lazy_pins: bool,
    /// Cumulative candidate-set bytes over all selects.
    candidate_set_bytes_total: AtomicU64,
    /// Joins executed: the engine's join / the nested-loop baseline.
    joins: AtomicU64,
    joins_nested: AtomicU64,
}

impl TableEngine {
    /// Builds a table engine over `(column name, values)` pairs (all the
    /// same length), indexing every column with the given backend and
    /// per-column compaction policy. Row ids are the tuple positions.
    ///
    /// Keys must be `< i64::MAX`: the engine's whole query model is
    /// half-open ranges (like every single-column engine in the
    /// workspace), and `i64::MAX` is the one key no `[low, high)` can
    /// address. Enforcing the domain here keeps every later operation —
    /// including the empty-predicate "all tuples" select — exact.
    ///
    /// # Panics
    /// Panics on zero columns, misaligned column lengths, or an
    /// `i64::MAX` key.
    pub fn new(
        name: impl Into<String>,
        columns: Vec<(String, Vec<i64>)>,
        backend: TableBackend,
        compaction: CompactionPolicy,
    ) -> Self {
        assert!(!columns.is_empty(), "a table engine needs >= 1 column");
        let base_rows = columns[0].1.len();
        assert!(
            columns.iter().all(|(_, v)| v.len() == base_rows),
            "columns must be positionally aligned"
        );
        assert!(
            columns.iter().all(|(_, v)| v.iter().all(|&x| x < i64::MAX)),
            "table keys must be < i64::MAX (half-open range model)"
        );
        let mut column_names = Vec::with_capacity(columns.len());
        let mut indexes = Vec::with_capacity(columns.len());
        let mut base = Vec::with_capacity(columns.len());
        for (col_name, values) in columns {
            let rowids: Vec<RowId> = (0..base_rows as RowId).collect();
            let built = |protocol| {
                ConcurrentCracker::from_rows(values.clone(), rowids, protocol)
                    .with_compaction(compaction)
            };
            let index = match backend {
                TableBackend::Serial(protocol) => built(protocol),
                TableBackend::Range { partitions } => {
                    built(LatchProtocol::Piece).with_ranges(resolve_ranges(partitions))
                }
            };
            column_names.push(col_name);
            indexes.push(index);
            base.push(values);
        }
        TableEngine {
            name: format!("{}:{}", backend.label(), name.into()),
            column_names,
            indexes,
            base,
            base_rows,
            overlay: RwLock::new(HashMap::new()),
            next_rowid: AtomicU64::new(base_rows as u64),
            writer: Mutex::new(()),
            writer_instance: dcheck::instance_id(),
            pins: Mutex::new(PinLedger::default()),
            lazy_pins: false,
            candidate_set_bytes_total: AtomicU64::new(0),
            joins: AtomicU64::new(0),
            joins_nested: AtomicU64::new(0),
        }
    }

    /// Seeded defect for the concurrency tests, never for use: every read
    /// operation pins each column at its first read, without the writer
    /// mutex, instead of its whole cut under it, so a write can land
    /// between two columns' pins or halfway through one. The multi-writer
    /// proptest and the model-checked torn-tuple scenario must both catch
    /// it.
    #[doc(hidden)]
    pub fn with_lazy_pins(mut self) -> Self {
        self.lazy_pins = true;
        self
    }

    /// Engine label: backend + table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of indexed columns.
    pub fn column_count(&self) -> usize {
        self.indexes.len()
    }

    /// The indexed columns' names, in column-index order.
    pub fn column_names(&self) -> &[String] {
        &self.column_names
    }

    /// The column's index (post-run inspection).
    pub fn column_index(&self, column: usize) -> &ConcurrentCracker {
        &self.indexes[column]
    }

    /// Executes one table operation.
    pub fn execute(&self, op: &TableOp) -> TableOpResult {
        match op {
            TableOp::SelectMulti(predicates) => self.select_multi(predicates),
            TableOp::InsertTuple(tuple) => self.insert_tuple(tuple),
            TableOp::DeleteWhere { column, value } => self.delete_where(*column, *value),
            TableOp::Join {
                other,
                left_col,
                right_col,
                filters_left,
                filters_right,
                strategy,
            } => self.execute_join(
                other,
                *left_col,
                *right_col,
                filters_left,
                filters_right,
                *strategy,
            ),
        }
    }

    /// The full tuple of a row id, one value per column. `None` for
    /// unknown ids. Base rows keep their columnar slot even after a
    /// delete (their ids are never handed out by selects again), so this
    /// resolves any base id; a deleted *inserted* tuple is reclaimed from
    /// the overlay once no read pinned before its delete is still running,
    /// and returns `None` from then on.
    pub fn tuple(&self, rowid: RowId) -> Option<Vec<i64>> {
        if (rowid as usize) < self.base_rows {
            return Some(self.base.iter().map(|col| col[rowid as usize]).collect());
        }
        self.overlay.read().get(&rowid).cloned()
    }

    /// One column's value of a row id (row-store probe).
    fn value_at(&self, column: usize, rowid: RowId) -> Option<i64> {
        if (rowid as usize) < self.base_rows {
            return Some(self.base[column][rowid as usize]);
        }
        self.overlay.read().get(&rowid).map(|t| t[column])
    }

    /// Takes the writer mutex.
    fn lock_writer(&self) -> WriterGuard<'_> {
        dcheck::Tracked::new(
            dcheck::Level::TableWriter,
            self.writer_instance,
            "table-writer",
            self.writer.lock(),
        )
    }

    /// The writer mutex a read operation pins its cut under (`None` only
    /// for the seeded lazy-pin defect).
    fn pin_fence(&self) -> Option<WriterGuard<'_>> {
        (!self.lazy_pins).then(|| self.lock_writer())
    }

    /// Pins a cut over `columns` — call under [`TableEngine::pin_fence`]:
    /// one snapshot handle per column, all at the state the last commit
    /// left, and one entry in the pin ledger holding back the reclaim of
    /// row-store entries the cut can still reach.
    fn pin_cut(&self, columns: impl IntoIterator<Item = usize>) -> Cut<'_> {
        let seq = {
            let mut pins = self.pins.lock();
            let seq = pins.committed;
            *pins.live.entry(seq).or_insert(0) += 1;
            seq
        };
        let cut = Cut {
            engine: self,
            seq,
            columns: self.indexes.iter().map(|_| OnceCell::new()).collect(),
        };
        for column in columns {
            assert!(column < self.indexes.len(), "predicate column out of range");
            if !self.lazy_pins {
                cut.columns[column].get_or_init(|| self.indexes[column].pin());
            }
        }
        cut
    }

    /// Releases one cut's ledger entry and reclaims the row-store entries
    /// of deleted inserted tuples that no live cut can reach any more: a
    /// cut at sequence `s` reaches a tuple deleted at `d` iff `s < d`.
    fn unpin(&self, seq: u64) {
        let mut pins = self.pins.lock();
        match pins.live.get_mut(&seq) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                pins.live.remove(&seq);
            }
        }
        let oldest = pins.live.keys().next().copied();
        let reclaimable = pins
            .retired
            .iter()
            .take_while(|&&(deleted, _)| oldest.is_none_or(|s| s >= deleted))
            .count();
        if reclaimable > 0 {
            let mut overlay = self.overlay.write();
            for (_, rowid) in pins.retired.drain(..reclaimable) {
                overlay.remove(&rowid);
            }
        }
    }

    /// Commits the write in flight under the writer mutex: takes the next
    /// commit sequence and reclaims the row-store entries of the inserted
    /// tuples it deleted — at once when no cut is live, else once every
    /// cut older than it has closed.
    fn commit(&self, deleted_inserted: impl Iterator<Item = RowId>) -> u64 {
        let mut pins = self.pins.lock();
        pins.committed += 1;
        let seq = pins.committed;
        if pins.live.is_empty() {
            let mut overlay = self.overlay.write();
            for rowid in deleted_inserted {
                overlay.remove(&rowid);
            }
        } else {
            pins.retired
                .extend(deleted_inserted.map(|rowid| (seq, rowid)));
        }
        seq
    }

    fn select_multi(&self, predicates: &[ColumnPredicate]) -> TableOpResult {
        let cut = {
            let _writer = self.pin_fence();
            // No predicates reads column 0 (the full scan below).
            let columns = predicates.iter().map(|p| p.column);
            self.pin_cut(columns.chain(predicates.is_empty().then_some(0)))
        };
        let mut metrics = QueryMetrics::default();
        let candidates = cut
            .candidates_for(predicates, &mut metrics)
            .unwrap_or_else(|| cut.every_row(0, &mut metrics));
        metrics.result_count = candidates.len() as u64;
        self.candidate_set_bytes_total
            .fetch_add(metrics.candidate_set_bytes, Ordering::Relaxed);
        TableOpResult {
            value: candidates.len() as i128,
            rowids: candidates.into_vec(),
            pairs: Vec::new(),
            epoch: cut.seq,
            metrics,
        }
    }

    /// Aligned projection: probes the row store for every candidate, 64
    /// at a time ([`RowIdSet::filter_batches`]). A batch of base rows is
    /// 64 independent column loads and a branch-free range test into the
    /// keep mask; a batch that reaches an inserted row probes each id
    /// through [`TableEngine::value_at`].
    fn project_filter(&self, candidates: &RowIdSet, predicate: &ColumnPredicate) -> RowIdSet {
        let column = &self.base[predicate.column][..self.base_rows];
        let (low, high) = (predicate.low, predicate.high);
        candidates.filter_batches(|ids| {
            let mut keep = 0;
            if ids.last().is_some_and(|&id| id as usize >= self.base_rows) {
                for (i, &id) in ids.iter().enumerate() {
                    let hit = self
                        .value_at(predicate.column, id)
                        .is_some_and(|v| predicate.matches(v));
                    keep |= u64::from(hit) << i;
                }
            } else {
                for (i, &id) in ids.iter().enumerate() {
                    let v = column[id as usize];
                    keep |= u64::from((v >= low) & (v < high)) << i;
                }
            }
            keep
        })
    }

    fn insert_tuple(&self, tuple: &[i64]) -> TableOpResult {
        assert_eq!(
            tuple.len(),
            self.indexes.len(),
            "tuple arity must match the column count"
        );
        assert!(
            tuple.iter().all(|&v| v < i64::MAX),
            "table keys must be < i64::MAX (half-open range model)"
        );
        let _writer = self.lock_writer();
        let rowid = aidx_cracking::rowid(self.next_rowid.fetch_add(1, Ordering::Relaxed));
        self.overlay.write().insert(rowid, tuple.to_vec());
        let mut metrics = QueryMetrics::default();
        for (column, &value) in tuple.iter().enumerate() {
            let m = self.indexes[column].insert_row(value, rowid);
            metrics.accumulate(&m);
        }
        metrics.inserts_applied = 1;
        metrics.result_count = 1;
        TableOpResult {
            value: 1,
            rowids: vec![rowid],
            pairs: Vec::new(),
            epoch: self.commit(std::iter::empty()),
            metrics,
        }
    }

    fn delete_where(&self, column: usize, value: i64) -> TableOpResult {
        assert!(column < self.indexes.len(), "predicate column out of range");
        let _writer = self.lock_writer();
        let mut metrics = QueryMetrics::default();
        // Find the doomed tuples through the predicate column's index.
        // `value == i64::MAX` cannot exist in the table (the key-domain
        // contract enforced at construction and insert), so its delete
        // removes nothing.
        let Some(next) = value.checked_add(1) else {
            metrics.deletes_applied = 1;
            return TableOpResult {
                value: 0,
                rowids: Vec::new(),
                pairs: Vec::new(),
                epoch: self.commit(std::iter::empty()),
                metrics,
            };
        };
        // The one read "now" rather than at a cut: it runs under the
        // writer mutex, so now is this write's own state.
        let (doomed, m) = self.indexes[column].select_rowids(value, next);
        metrics.accumulate(&m);
        for &rowid in &doomed {
            let tuple = self
                .tuple(rowid)
                .expect("selected row ids always have tuples");
            for (col, &col_value) in tuple.iter().enumerate() {
                let (removed, m) = self.indexes[col].delete_row(col_value, rowid);
                metrics.accumulate(&m);
                assert_eq!(
                    removed, 1,
                    "live tuples are live in every column: column {col} ({}) \
                     does not hold ({col_value}, row {rowid})",
                    self.column_names[col]
                );
            }
        }
        // Base rows keep their columnar slots (their ids are never
        // returned by selects again, so the stale values are unreachable);
        // the doomed inserted tuples' row-store entries are reclaimed.
        let inserted = doomed
            .iter()
            .filter(|&&rowid| rowid as usize >= self.base_rows);
        let epoch = self.commit(inserted.copied());
        metrics.deletes_applied = 1;
        metrics.result_count = doomed.len() as u64;
        TableOpResult {
            value: doomed.len() as i128,
            rowids: doomed,
            pairs: Vec::new(),
            epoch,
            metrics,
        }
    }

    /// Executes one key/FK equi-join against `other`:
    /// `self[left_col] == other[right_col]` over the tuples surviving
    /// each side's conjunctive filters, returning sorted
    /// `(left rowid, right rowid)` pairs.
    ///
    /// Each table is pinned on the columns its side reads while both
    /// writer mutexes are held — taken in address order, one for a
    /// self-join, so two joins over the same pair of tables cannot
    /// deadlock. The mutexes are dropped before any column is read: the
    /// whole join runs against the two cuts, sees one consistent state of
    /// each table, and holds up writers only while it pins. The result's
    /// `epoch` is the executing (left) table's cut.
    ///
    /// [`JoinStrategy::Auto`] runs the engine's join: both sides read
    /// their `(key, rowid)` runs through their own join column at the
    /// joint key window — cracking it there, so repeated joins converge —
    /// and the side that returned fewer rows builds a `key -> rowids`
    /// table that the other side's pairs probe. A side whose filters all
    /// constrain the join column builds no candidate set: those filters
    /// are its window. A side with filters on other columns runs its
    /// filter stack like a `SelectMulti` and keeps only its candidates'
    /// pairs. [`JoinStrategy::NestedLoop`] is the quadratic baseline.
    pub fn execute_join(
        &self,
        other: &TableEngine,
        left_col: usize,
        right_col: usize,
        filters_left: &[ColumnPredicate],
        filters_right: &[ColumnPredicate],
        strategy: JoinStrategy,
    ) -> TableOpResult {
        assert!(left_col < self.indexes.len(), "join column out of range");
        assert!(
            right_col < other.indexes.len(),
            "join column out of range (right table)"
        );
        let left_columns = filters_left.iter().map(|p| p.column).chain([left_col]);
        let right_columns = filters_right.iter().map(|p| p.column).chain([right_col]);
        let (left_cut, right_cut) = if std::ptr::eq(self, other) {
            let _writer = self.pin_fence();
            (self.pin_cut(left_columns.chain(right_columns)), None)
        } else {
            let (first, second) = if (self as *const TableEngine) < (other as *const TableEngine) {
                (self, other)
            } else {
                (other, self)
            };
            let _writers = (first.pin_fence(), second.pin_fence());
            (
                self.pin_cut(left_columns),
                Some(other.pin_cut(right_columns)),
            )
        };
        let right_cut = right_cut.as_ref().unwrap_or(&left_cut);
        let mut metrics = QueryMetrics::default();
        let left = left_cut.join_side(left_col, filters_left, &mut metrics);
        let right = right_cut.join_side(right_col, filters_right, &mut metrics);
        // The joint key window: keys outside it cannot match. Derived
        // from whatever filters constrain the join columns directly.
        let window = (
            left.window.0.max(right.window.0),
            left.window.1.min(right.window.1),
        );
        let filtered_empty = left.candidates.as_ref().is_some_and(RowIdSet::is_empty)
            || right.candidates.as_ref().is_some_and(RowIdSet::is_empty);
        if filtered_empty || window.0 >= window.1 {
            self.candidate_set_bytes_total
                .fetch_add(metrics.candidate_set_bytes, Ordering::Relaxed);
            return TableOpResult {
                value: 0,
                rowids: Vec::new(),
                pairs: Vec::new(),
                epoch: left_cut.seq,
                metrics,
            };
        }
        let counter = match strategy {
            JoinStrategy::Auto => &self.joins,
            JoinStrategy::NestedLoop => &self.joins_nested,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let traced = aidx_obs::enabled().then(Instant::now);
        let mut pairs = match strategy {
            JoinStrategy::Auto => hash_join(
                &left.keyed_runs(window, &mut metrics),
                &right.keyed_runs(window, &mut metrics),
            ),
            JoinStrategy::NestedLoop => nested_loop_join(&left, &right, &mut metrics),
        };
        // Deterministic output order regardless of strategy, so every
        // result is comparable tuple-for-tuple against the oracle.
        pairs.sort_unstable();
        metrics.join_pairs = pairs.len() as u64;
        metrics.result_count = pairs.len() as u64;
        self.candidate_set_bytes_total
            .fetch_add(metrics.candidate_set_bytes, Ordering::Relaxed);
        if let Some(start) = traced {
            emit(TraceEvent::Join {
                strategy: strategy.label(),
                pairs: pairs.len() as u64,
                ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            });
        }
        TableOpResult {
            value: pairs.len() as i128,
            rowids: Vec::new(),
            pairs,
            epoch: left_cut.seq,
            metrics,
        }
    }

    /// Joins executed so far as `(0, joins, nested_loop)`: the engine's
    /// join, then the nested-loop baseline. The leading 0 is pinned
    /// surface: the engine has one join and no gallop count, but the
    /// benchmark's table workloads (`benchmark/src/table.rs`) still read
    /// one there.
    pub fn join_strategy_counts(&self) -> (u64, u64, u64) {
        (
            0,
            self.joins.load(Ordering::Relaxed),
            self.joins_nested.load(Ordering::Relaxed),
        )
    }

    /// One merged structure probe across every column index: "piece
    /// count" means total pieces over all columns, delta pressure is
    /// summed, and range-partitioned columns contribute their per-range
    /// load.
    /// The candidate-set footprint is engine-level (column indexes report
    /// 0 for it): cumulative over every select so far.
    pub fn structure_probe(&self) -> StructureProbe {
        let mut probe = StructureProbe::default();
        for index in &self.indexes {
            probe.merge(&index.structure_probe());
        }
        probe.candidate_set_bytes = self.candidate_set_bytes_total.load(Ordering::Relaxed);
        probe
    }

    /// Quiescent structural self-check across every column index.
    pub fn check_invariants(&self) -> bool {
        self.indexes.iter().all(|index| index.check_invariants())
    }
}

/// A held writer mutex.
type WriterGuard<'e> = dcheck::Tracked<MutexGuard<'e, ()>>;

/// The table's commit sequence, the live cuts by the sequence they
/// reflect, and the deleted inserted tuples whose row-store entries wait
/// for them.
#[derive(Debug, Default)]
struct PinLedger {
    /// The last committed write's sequence (0 = none yet). Advanced only
    /// under the writer mutex, so a cut pinned under it reflects exactly
    /// the writes up to the sequence it reads here.
    committed: u64,
    /// commit sequence → number of live cuts pinned at it.
    live: BTreeMap<u64, usize>,
    /// `(delete's commit sequence, row id)` of deleted inserted tuples a
    /// live cut can still reach, ascending by sequence (deletes commit in
    /// order under the writer mutex).
    retired: VecDeque<(u64, RowId)>,
}

/// One read operation's consistent view of a table: a pinned handle on
/// every column its plan reads, all opened while the writer mutex was
/// held, so they reflect exactly the writes up to `seq` and none after.
/// Every index read of a select or join goes through one; dropping it
/// releases the pins.
struct Cut<'e> {
    engine: &'e TableEngine,
    /// The commit sequence the cut reflects.
    seq: u64,
    /// Per column: its pinned handle, if the plan reads it.
    columns: Vec<OnceCell<Snapshot<'e>>>,
}

impl<'e> Cut<'e> {
    /// The pinned handle of `column`.
    fn column(&self, column: usize) -> &Snapshot<'e> {
        let cell = &self.columns[column];
        if self.engine.lazy_pins {
            cell.get_or_init(|| self.engine.indexes[column].pin())
        } else {
            cell.get()
                .expect("a plan reads only the columns its cut pinned")
        }
    }

    /// Plans and executes one conjunctive filter stack — most-selective
    /// predicate cracks first and drives, the rest intersect or project
    /// — returning the candidate set. `None` means "no filters": a select
    /// reads every live tuple ([`Cut::every_row`]), a join side skips
    /// filtering its key runs.
    fn candidates_for(
        &self,
        predicates: &[ColumnPredicate],
        metrics: &mut QueryMetrics,
    ) -> Option<RowIdSet> {
        let engine = self.engine;
        // Order by estimated selectivity: narrowest predicate first.
        let mut ordered: Vec<ColumnPredicate> = predicates.to_vec();
        ordered.sort_by_key(ColumnPredicate::width);
        let driver = ordered.first().copied()?;
        let mut candidates = self.column_read(&driver, ReadShape::Candidates, metrics);
        // Rows per unit of width, as the driver's read found them.
        let (driver_rows, driver_width) = (candidates.len() as u128, driver.width().max(1));
        for predicate in &ordered[1..] {
            if candidates.is_empty() {
                break;
            }
            let rows = driver_rows * u128::from(predicate.width()) / u128::from(driver_width);
            let rows = u64::try_from(rows).unwrap_or(u64::MAX);
            candidates = if prefer_projection(candidates.len(), rows) {
                engine.project_filter(&candidates, predicate)
            } else {
                // Crack the predicate's own column and keep the
                // candidates among its rows inside the walk.
                self.column_read(predicate, ReadShape::Within(&candidates), metrics)
            };
        }
        Some(candidates)
    }

    /// Every live tuple, read through `column`: the answer of an empty
    /// filter stack. The full-domain range is exact because keys are
    /// `< i64::MAX` by the engine's key-domain contract.
    fn every_row(&self, column: usize, metrics: &mut QueryMetrics) -> RowIdSet {
        let everything = ColumnPredicate::new(column, i64::MIN, i64::MAX);
        self.column_read(&everything, ReadShape::Candidates, metrics)
    }

    /// One predicate's rows as a set in the planner form —
    /// [`ReadShape::Candidates`], or [`ReadShape::Within`] a candidate set:
    /// used and dropped within this plan, so never compacted.
    fn column_read(
        &self,
        predicate: &ColumnPredicate,
        shape: ReadShape<'_>,
        metrics: &mut QueryMetrics,
    ) -> RowIdSet {
        let (answer, m) = self
            .column(predicate.column)
            .read(predicate.low, predicate.high, shape);
        metrics.accumulate(&m);
        answer.into_set()
    }

    /// Plans one join side: extracts the key window its filters on the
    /// join column imply and, when it has filters on other columns, runs
    /// its whole filter stack into a candidate set. A side whose filters
    /// all sit on the join column builds none: its key-run read at the
    /// window cracks the bounds its filter read would have cracked.
    fn join_side(
        &self,
        col: usize,
        filters: &[ColumnPredicate],
        metrics: &mut QueryMetrics,
    ) -> JoinSide<'_, 'e> {
        let mut window = (i64::MIN, i64::MAX);
        for p in filters.iter().filter(|p| p.column == col) {
            window.0 = window.0.max(p.low);
            window.1 = window.1.min(p.high);
        }
        let candidates = if filters.iter().all(|p| p.column == col) {
            None
        } else {
            self.candidates_for(filters, metrics)
        };
        JoinSide {
            cut: self,
            col,
            candidates,
            window,
        }
    }
}

impl Drop for Cut<'_> {
    fn drop(&mut self) {
        self.engine.unpin(self.seq);
    }
}

/// One planned join side: the cut it reads, its join column, its
/// filtered candidate set (`None` = no filters off the join column), and
/// the key window its join-column filters imply.
struct JoinSide<'c, 'e> {
    cut: &'c Cut<'e>,
    col: usize,
    candidates: Option<RowIdSet>,
    window: (i64, i64),
}

impl JoinSide<'_, '_> {
    /// The side's `(key, rowid)` runs over `window`, restricted to its
    /// filtered candidates. Cracks the join column at the window bounds —
    /// the adaptive-indexing bet applied to joins.
    fn keyed_runs(&self, window: (i64, i64), metrics: &mut QueryMetrics) -> KeyRuns {
        let (mut runs, m) = self
            .cut
            .column(self.col)
            .select_key_runs(window.0, window.1);
        metrics.accumulate(&m);
        if let Some(cand) = &self.candidates {
            runs.retain_rowids(|rowid| cand.contains(rowid));
        }
        runs
    }

    /// The side's surviving rowids as a flat sorted vector: its candidates,
    /// or its join column's rows inside its own window.
    fn rowids(&self, metrics: &mut QueryMetrics) -> Vec<RowId> {
        match &self.candidates {
            Some(set) => set.to_vec(),
            None => {
                let (low, high) = self.window;
                let window = ColumnPredicate::new(self.col, low, high);
                let shape = ReadShape::Candidates;
                self.cut.column_read(&window, shape, metrics).into_vec()
            }
        }
    }

    /// The join-column value of one of the side's row ids (row-store
    /// probe).
    fn key_of(&self, rowid: RowId) -> Option<i64> {
        self.cut.engine.value_at(self.col, rowid)
    }
}

/// True when probing the row store once per candidate is estimated
/// cheaper than reading the `rows` rows the predicate's own column read
/// is expected to return: `candidates × 8 < rows × 1`
/// ([`PROJECTION_WEIGHTS`]).
fn prefer_projection(candidates: usize, rows: u64) -> bool {
    let (probe, read) = PROJECTION_WEIGHTS;
    candidates as u128 * probe < u128::from(rows) * read
}

/// The engine's join over two sides' key runs: the side with fewer rows
/// (the left on a tie) builds a `key -> rowids` table, and the other
/// side's pairs probe it in run order. Returns `(left rowid, right
/// rowid)` pairs, unsorted.
fn hash_join(left: &KeyRuns, right: &KeyRuns) -> Vec<(RowId, RowId)> {
    let build_left = left.total_rows() <= right.total_rows();
    let (build, probe) = if build_left {
        (left, right)
    } else {
        (right, left)
    };
    let mut table: HashMap<i64, Vec<RowId>> = HashMap::new();
    for (key, rowid) in build.iter_pairs() {
        table.entry(key).or_default().push(rowid);
    }
    let mut out = Vec::new();
    for (key, rowid) in probe.iter_pairs() {
        if let Some(matches) = table.get(&key) {
            out.extend(matches.iter().map(|&built| {
                if build_left {
                    (built, rowid)
                } else {
                    (rowid, built)
                }
            }));
        }
    }
    out
}

/// Nested-loop join: every surviving left row against every surviving
/// right row through the row store. Quadratic on purpose — the baseline
/// the engine's join is verified against and measured over.
fn nested_loop_join(
    left: &JoinSide,
    right: &JoinSide,
    metrics: &mut QueryMetrics,
) -> Vec<(RowId, RowId)> {
    let left_rowids = left.rowids(metrics);
    let right_rowids = right.rowids(metrics);
    let mut out = Vec::new();
    for &l in &left_rowids {
        let Some(lv) = left.key_of(l) else {
            continue;
        };
        for &r in &right_rowids {
            if right.key_of(r) == Some(lv) {
                out.push((l, r));
            }
        }
    }
    out
}

impl std::fmt::Debug for TableEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableEngine")
            .field("name", &self.name)
            .field("columns", &self.column_names)
            .field("base_rows", &self.base_rows)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_labels_round_trip() {
        for backend in [
            TableBackend::Serial(LatchProtocol::Piece),
            TableBackend::Serial(LatchProtocol::Column),
            TableBackend::Range { partitions: 3 },
        ] {
            let parsed: TableBackend = backend.label().parse().unwrap();
            assert_eq!(parsed.label(), backend.label());
        }
        assert!("table-serial-row".parse::<TableBackend>().is_err());
        assert!("table-chunked-piece-3".parse::<TableBackend>().is_err());
        assert!("scan".parse::<TableBackend>().is_err());
        assert_eq!(
            "table-range".parse::<TableBackend>().unwrap(),
            TableBackend::Range { partitions: 0 }
        );
    }

    /// The switch is the pure inequality `candidates × 8 < rows × 1`: at
    /// equality the predicate reads `Within` the candidates, and one more
    /// expected row makes it project.
    #[test]
    fn the_projection_switch_scales_the_read_cost_by_the_expected_rows() {
        assert!(!prefer_projection(100, 800), "equal cost reads the column");
        assert!(prefer_projection(100, 801));
        assert!(!prefer_projection(2, 16));
        assert!(prefer_projection(2, 17));
        assert!(!prefer_projection(1, 0));
        assert!(prefer_projection(0, 1));
        assert!(
            !prefer_projection(usize::MAX, u64::MAX),
            "u128 arithmetic cannot overflow"
        );
    }

    /// The batched projection keeps exactly the candidates a per-id
    /// row-store probe keeps, from bitmap and sorted candidates alike:
    /// with batches that straddle the base rows, inserted rows, an
    /// inserted row deleted and reclaimed (no value), keys at both ends
    /// of the domain and no candidates at all.
    #[test]
    fn batched_projection_equals_a_per_id_probe() {
        // 100 base rows: the word and the batch of ids 64..127 straddle
        // the end of the base.
        let mut b: Vec<i64> = (0..100).map(|i| (i * 37) % 50).collect();
        b[3] = i64::MIN;
        b[70] = i64::MAX - 1;
        let a: Vec<i64> = (0..100).collect();
        let engine = TableEngine::new(
            "p",
            vec![("a".into(), a), ("b".into(), b)],
            TableBackend::Serial(LatchProtocol::Piece),
            CompactionPolicy::disabled(),
        );
        for i in 0..40 {
            let key = match i {
                5 => i64::MIN,
                6 => i64::MAX - 1,
                _ => (i * 13) % 50,
            };
            engine.execute(&TableOp::InsertTuple(vec![1000 + i, key]));
        }
        let gone = engine
            .execute(&TableOp::DeleteWhere {
                column: 0,
                value: 1007,
            })
            .rowids;
        assert_eq!(gone, [107]);
        assert_eq!(engine.value_at(1, 107), None, "reclaimed: no cut was live");

        let predicates = [
            ColumnPredicate::new(1, 0, 25),
            ColumnPredicate::new(1, i64::MIN, i64::MIN + 1),
            ColumnPredicate::new(1, i64::MAX - 1, i64::MAX),
            ColumnPredicate::new(1, i64::MIN, i64::MAX),
            ColumnPredicate::new(1, 10, 10),
        ];
        let every: Vec<RowId> = (0..140).collect();
        let candidate_lists = [
            every.clone(),
            every.iter().copied().filter(|id| id % 3 != 1).collect(),
            (60..110).collect(),
            vec![3, 70, 105, 106, 107],
            vec![3, 105, 139],
            Vec::new(),
        ];
        let mut sorted = 0;
        for ids in &candidate_lists {
            let compact = RowIdSet::from_sorted(ids);
            let bitmap = compact.as_bitmap().into_owned();
            assert!(ids.is_empty() || bitmap.is_bitmap());
            sorted += usize::from(!ids.is_empty() && !compact.is_bitmap());
            for predicate in &predicates {
                let want: Vec<RowId> = ids
                    .iter()
                    .copied()
                    .filter(|&id| {
                        engine
                            .value_at(predicate.column, id)
                            .is_some_and(|v| predicate.matches(v))
                    })
                    .collect();
                for set in [&bitmap, &compact] {
                    let got = engine.project_filter(set, predicate);
                    assert_eq!(got.to_vec(), want, "{predicate:?} over {ids:?}");
                    assert_eq!(got.len(), want.len());
                }
            }
        }
        assert!(sorted > 0, "a candidate list too sparse for a bitmap");
        // The extreme keys are found among base and inserted rows alike.
        let all = RowIdSet::from_sorted(&every);
        assert_eq!(
            engine.project_filter(&all, &predicates[1]).to_vec(),
            [3, 105]
        );
        assert_eq!(
            engine.project_filter(&all, &predicates[2]).to_vec(),
            [70, 106]
        );
    }

    /// The side with fewer rows builds the hash table wherever it sits.
    /// The probe side's run order survives into the unsorted output, so
    /// the order shows which side built.
    #[test]
    fn the_side_with_fewer_rows_builds_on_either_side() {
        let runs = |pairs: &[(i64, RowId)]| {
            let mut runs = KeyRuns::new();
            runs.push_run(pairs.to_vec());
            runs
        };
        let small = runs(&[(1, 100), (2, 101)]);
        let large = runs(&[(2, 7), (1, 3), (2, 9)]);
        // Probed in the large side's order: 7, 3, 9.
        assert_eq!(hash_join(&small, &large), [(101, 7), (100, 3), (101, 9)]);
        assert_eq!(hash_join(&large, &small), [(7, 101), (3, 100), (9, 101)]);
    }

    /// Inserts a tuple into a two-row table, pins a cut, deletes the
    /// tuple from another thread and plans `predicates` (the driver on
    /// column a finds all three rows) at the cut: the pinned select still
    /// returns the tuple, and its row-store entry is reclaimed only when
    /// the cut closes. Returns the rows the plan's column reads returned:
    /// the driver's 3, plus what column b returned if it was read.
    fn plan_at_a_cut_across_a_delete(predicates: [ColumnPredicate; 2]) -> u64 {
        let engine = TableEngine::new(
            "r",
            vec![("a".into(), vec![1, 2]), ("b".into(), vec![10, 70])],
            TableBackend::Serial(LatchProtocol::Piece),
            CompactionPolicy::disabled(),
        );
        let rowid = engine.execute(&TableOp::InsertTuple(vec![5, 50])).rowids[0];
        let cut = engine.pin_cut([0, 1]);
        let delete = TableOp::DeleteWhere {
            column: 0,
            value: 5,
        };
        let deleted = std::thread::scope(|s| s.spawn(|| engine.execute(&delete)).join().unwrap());
        assert_eq!(deleted.rowids, [rowid]);
        assert!(deleted.epoch > cut.seq);
        assert_eq!(
            engine.tuple(rowid),
            Some(vec![5, 50]),
            "a live cut reaches it"
        );
        let mut metrics = QueryMetrics::default();
        let got = cut.candidates_for(&predicates, &mut metrics).unwrap();
        assert_eq!(got.to_vec(), [rowid], "the pinned select still returns it");
        let now = engine.execute(&TableOp::SelectMulti(predicates.to_vec()));
        assert!(now.rowids.is_empty() && now.epoch == deleted.epoch);
        drop(cut);
        assert_eq!(engine.tuple(rowid), None, "reclaimed once the cut closed");
        metrics.result_count
    }

    /// A select pinned before a delete of an inserted tuple still resolves
    /// the tuple through the row store. The driver a ∈ [1, 6) finds 3
    /// candidates, so b ∈ [11, 69) is expected to return 3 × 58 / 5 = 34
    /// rows: 3 × 8 < 34, and b projects.
    #[test]
    fn a_live_cut_keeps_a_deleted_inserted_tuple_in_the_row_store() {
        assert!(prefer_projection(3, 34));
        let predicates = [
            ColumnPredicate::new(0, 1, 6),
            ColumnPredicate::new(1, 11, 69),
        ];
        let rows = plan_at_a_cut_across_a_delete(predicates);
        assert_eq!(rows, 3, "only the driver read its column: b was projected");
    }

    /// The same tuple found by reading its column `Within` the candidates
    /// at the cut, where the delete is not yet visible: b ∈ [40, 60) is
    /// expected to return 6 rows, 3 × 8 ≥ 6, and the pinned read keeps the
    /// tuple's pending insert because the candidates hold its row id.
    #[test]
    fn a_live_cut_finds_a_deleted_inserted_tuple_within_its_candidates() {
        assert!(!prefer_projection(3, 6));
        let predicates = [
            ColumnPredicate::new(0, 0, 10),
            ColumnPredicate::new(1, 40, 60),
        ];
        let rows = plan_at_a_cut_across_a_delete(predicates);
        assert_eq!(rows, 3 + 1, "b was read Within the candidates");
    }
}
