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
//! block-compressed [`RowIdSet`] that stays compressed through the whole
//! plan; every further predicate either
//!
//! * **intersects** its own column's rowid set (cracking that column as
//!   a side effect — the adaptive-indexing bet: later queries get ever
//!   cheaper). The intersection is adaptive: when one side is much
//!   smaller it gallops — leapfrog seeks that skip whole compressed
//!   blocks of the larger side — and falls back to linear merge when
//!   the sides are comparable; or
//! * **projects**: probes the row store (`tuple[col]` per candidate)
//!   instead, at the cost of refining nothing. The switch is cost-based,
//!   not a fixed cutoff: the engine keeps a per-column EMA of measured
//!   set-read latency and an EMA of per-tuple probe latency, and
//!   projects when `candidates × probe_ns < select_ns(column)`. An
//!   unmeasured column always intersects once — that both bootstraps
//!   its cost estimate and cracks it.
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
//! is left, so a projection or hash probe of a pinned row id still finds
//! its values. *Within* a column, the existing latch protocols govern
//! exactly as in the single-column engines (concurrent reads still crack
//! all columns in parallel under piece/column latches, pinned or not).

use crate::ops::{ColumnPredicate, JoinStrategy, TableOp, TableOpResult};
use aidx_core::facade::{Mutex, MutexGuard, RwLock};
use aidx_core::{
    dcheck, intersect_sets, merge_join_pairs, note_merge_join, ColumnRead, CompactionPolicy, Index,
    IntersectStrategy, KeyRuns, LatchProtocol, QueryMetrics, RowIdSet, RowIdSetBuilder,
    SeekingIterator,
};
use aidx_obs::{emit, StructureProbe, StructureStats, TraceEvent};
use aidx_parallel::RangePartitionedCracker;
use aidx_storage::{Catalog, RowId, StorageResult, Table};
use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Starting estimate for one aligned row-store probe, in nanoseconds,
/// used until the first projection pass measures the real figure (a
/// hash-overlay lookup plus a column access lands in this ballpark on
/// current hardware; being wrong only delays the first projection).
const PROBE_NS_SEED: u64 = 200;

/// Folds one latency sample into an EMA cell. `0` means unmeasured
/// (first sample is adopted verbatim); thereafter `(3·old + sample)/4`.
/// The racy load/store is deliberate: the cell steers a heuristic, and a
/// lost update costs one slightly staler estimate, nothing more.
fn ema_update(cell: &AtomicU64, sample_ns: u64) {
    let old = cell.load(Ordering::Relaxed);
    let new = if old == 0 {
        sample_ns
    } else {
        (old.saturating_mul(3).saturating_add(sample_ns)) / 4
    };
    cell.store(new.max(1), Ordering::Relaxed);
}

/// Which single-column concurrency design backs every column index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableBackend {
    /// One serial [`aidx_core::ConcurrentCracker`] per column under the
    /// given latch protocol (concurrent clients, one shared index).
    Serial(LatchProtocol),
    /// One [`RangePartitionedCracker`] per column (latch-free partition
    /// owners).
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
                format!("table-range-{}", effective_workers(*partitions))
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

/// Resolves a worker-count knob: `0` means one worker per available core.
fn effective_workers(requested: usize) -> usize {
    if requested == 0 {
        aidx_parallel::available_cores()
    } else {
        requested
    }
}

/// A table engine: one rowid-preserving cracker per column over a shared
/// row-id space, plus a row store for tuple reconstruction.
pub struct TableEngine {
    name: String,
    column_names: Vec<String>,
    indexes: Vec<Box<dyn Index>>,
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
    /// Measured cost of a compressed set read per column, EMA in ns
    /// (0 = unmeasured). Drives the projection-vs-intersection switch.
    column_select_ns: Vec<AtomicU64>,
    /// Measured cost of one row-store probe, EMA in ns.
    probe_ns: AtomicU64,
    /// Cumulative compressed candidate-set bytes over all selects.
    candidate_set_bytes_total: AtomicU64,
    /// Cumulative compressed blocks bypassed by galloping intersections.
    blocks_skipped_total: AtomicU64,
    /// Measured per-row cost of a gallop join — run production plus lazy
    /// merge, divided by the rows walked — EMA in ns (0 = unmeasured).
    /// Self-tuning: run skipping and shrinking lazy sorts pull it down as
    /// the join columns converge.
    gallop_row_ns: AtomicU64,
    /// Measured per-row cost of a hash-join build, EMA in ns.
    hash_build_ns: AtomicU64,
    /// Measured per-row cost of a hash-join row-store probe, EMA in ns.
    hash_probe_ns: AtomicU64,
    /// Joins executed per physical strategy: gallop / hash / nested-loop.
    joins_gallop: AtomicU64,
    joins_hash: AtomicU64,
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
        let mut indexes: Vec<Box<dyn Index>> = Vec::with_capacity(columns.len());
        let mut base = Vec::with_capacity(columns.len());
        for (col_name, values) in columns {
            let rowids: Vec<RowId> = (0..base_rows as RowId).collect();
            let index: Box<dyn Index> = match backend {
                TableBackend::Serial(protocol) => Box::new(
                    aidx_core::ConcurrentCracker::from_rows(values.clone(), rowids, protocol)
                        .with_compaction(compaction),
                ),
                TableBackend::Range { partitions } => Box::new(RangePartitionedCracker::from_rows(
                    values.clone(),
                    rowids,
                    effective_workers(partitions),
                    compaction,
                )),
            };
            column_names.push(col_name);
            indexes.push(index);
            base.push(values);
        }
        let columns = indexes.len();
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
            column_select_ns: (0..columns).map(|_| AtomicU64::new(0)).collect(),
            probe_ns: AtomicU64::new(PROBE_NS_SEED),
            candidate_set_bytes_total: AtomicU64::new(0),
            blocks_skipped_total: AtomicU64::new(0),
            gallop_row_ns: AtomicU64::new(0),
            hash_build_ns: AtomicU64::new(0),
            hash_probe_ns: AtomicU64::new(0),
            joins_gallop: AtomicU64::new(0),
            joins_hash: AtomicU64::new(0),
            joins_nested: AtomicU64::new(0),
        }
    }

    /// Builds a table engine over every column of a storage-layer
    /// [`Table`] (columns in the table's sorted name order).
    pub fn from_table(
        table: &Table,
        backend: TableBackend,
        compaction: CompactionPolicy,
    ) -> StorageResult<Self> {
        let mut columns = Vec::with_capacity(table.column_count());
        for name in table.column_names() {
            columns.push((name.to_string(), table.column(name)?.values().to_vec()));
        }
        Ok(Self::new(table.name(), columns, backend, compaction))
    }

    /// Builds a table engine for a table registered in a [`Catalog`] —
    /// the paper's "global data structure" discovery step: latch the
    /// catalog briefly, find the table, build (or in a full system, find)
    /// its cracker indexes, release.
    pub fn from_catalog(
        catalog: &Catalog,
        table_name: &str,
        backend: TableBackend,
        compaction: CompactionPolicy,
    ) -> StorageResult<Self> {
        Self::from_table(&catalog.table(table_name)?.clone(), backend, compaction)
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
    pub fn column_index(&self, column: usize) -> &dyn Index {
        self.indexes[column].as_ref()
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
        let Some(candidates) = cut.candidates_for(predicates, &mut metrics) else {
            // No predicates: every live tuple qualifies. The full-domain
            // range is exact because keys are `< i64::MAX` by the
            // engine's key-domain contract. Flat read: a full scan's
            // result is the answer itself, not a candidate set worth
            // compressing.
            let (rowids, m) = cut.column(0).select_rowids(i64::MIN, i64::MAX);
            metrics.accumulate(&m);
            return TableOpResult {
                value: rowids.len() as i128,
                rowids,
                pairs: Vec::new(),
                epoch: cut.seq,
                metrics,
            };
        };
        metrics.result_count = candidates.len() as u64;
        self.candidate_set_bytes_total
            .fetch_add(metrics.candidate_set_bytes, Ordering::Relaxed);
        TableOpResult {
            value: candidates.len() as i128,
            rowids: candidates.to_vec(),
            pairs: Vec::new(),
            epoch: cut.seq,
            metrics,
        }
    }

    /// True when probing the row store per candidate is estimated cheaper
    /// than reading the predicate column. An unmeasured column always
    /// intersects: that bootstraps its cost estimate and cracks it.
    fn prefer_projection(&self, column: usize, candidate_len: usize) -> bool {
        let select_ns = self.column_select_ns[column].load(Ordering::Relaxed);
        if select_ns == 0 {
            return false;
        }
        let probe_ns = self.probe_ns.load(Ordering::Relaxed).max(1);
        (candidate_len as u64).saturating_mul(probe_ns) < select_ns
    }

    /// Aligned projection: probes the row store for every candidate and
    /// re-encodes the survivors (candidates arrive ascending, so the
    /// builder streams). Feeds the per-probe cost EMA.
    fn project_filter(&self, candidates: &RowIdSet, predicate: &ColumnPredicate) -> RowIdSet {
        let start = Instant::now();
        let mut survivors = RowIdSetBuilder::new();
        let mut it = candidates.iter();
        while let Some(rowid) = it.next() {
            if self
                .value_at(predicate.column, rowid)
                .is_some_and(|v| predicate.matches(v))
            {
                survivors.push(rowid);
            }
        }
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(per_probe) = elapsed.checked_div(candidates.len() as u64) {
            ema_update(&self.probe_ns, per_probe.max(1));
        }
        survivors.finish()
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
        let rowid = self.next_rowid.fetch_add(1, Ordering::Relaxed) as RowId;
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
    /// `strategy` [`JoinStrategy::Auto`] picks gallop or hash from the
    /// measured per-row cost EMAs (each unmeasured strategy gets one
    /// bootstrap run first; nested-loop is never auto-picked).
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
        // from whatever filters constrain the join columns directly;
        // gallop tightens it further from the first side's actual
        // envelope.
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
        let chosen = match strategy {
            JoinStrategy::Auto => self.choose_join_strategy(&left, &right, window),
            forced => forced,
        };
        let counter = match chosen {
            JoinStrategy::Gallop => &self.joins_gallop,
            JoinStrategy::Hash => &self.joins_hash,
            JoinStrategy::NestedLoop => &self.joins_nested,
            JoinStrategy::Auto => unreachable!("Auto always resolves to a physical strategy"),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let (mut pairs, rows_skipped) = match chosen {
            JoinStrategy::Gallop => self.gallop_join(&left, &right, window, &mut metrics),
            JoinStrategy::Hash => self.hash_join(&left, &right, window, &mut metrics),
            _ => nested_loop_join(&left, &right, &mut metrics),
        };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Deterministic output order regardless of strategy, so every
        // result is comparable tuple-for-tuple against the oracle.
        pairs.sort_unstable();
        if chosen != JoinStrategy::Gallop {
            // The gallop path's `note_merge_join` already counted these.
            metrics.join_pairs = metrics.join_pairs.saturating_add(pairs.len() as u64);
        }
        metrics.result_count = pairs.len() as u64;
        self.candidate_set_bytes_total
            .fetch_add(metrics.candidate_set_bytes, Ordering::Relaxed);
        if aidx_obs::enabled() {
            emit(TraceEvent::Join {
                strategy: chosen.label(),
                pairs: pairs.len() as u64,
                rows_skipped,
                ns,
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

    /// Joins executed so far per physical strategy:
    /// `(gallop, hash, nested_loop)` — what the cost model (or a forced
    /// strategy) actually ran.
    pub fn join_strategy_counts(&self) -> (u64, u64, u64) {
        (
            self.joins_gallop.load(Ordering::Relaxed),
            self.joins_hash.load(Ordering::Relaxed),
            self.joins_nested.load(Ordering::Relaxed),
        )
    }

    /// Cost-based gallop-vs-hash choice. Each strategy's per-row EMA is
    /// multiplied by the rows it would touch: gallop walks both sides
    /// clipped to the joint key window (that fraction is estimated from
    /// the window widths), hash builds the smaller side and probes every
    /// larger-side candidate through the row store. An unmeasured
    /// strategy is picked outright — one bootstrap run measures it.
    fn choose_join_strategy(
        &self,
        left: &JoinSide,
        right: &JoinSide,
        window: (i64, i64),
    ) -> JoinStrategy {
        let gallop_ns = self.gallop_row_ns.load(Ordering::Relaxed);
        if gallop_ns == 0 {
            return JoinStrategy::Gallop;
        }
        let build_ns = self.hash_build_ns.load(Ordering::Relaxed);
        let probe_ns = self.hash_probe_ns.load(Ordering::Relaxed);
        if build_ns == 0 || probe_ns == 0 {
            return JoinStrategy::Hash;
        }
        let gallop_rows = windowed_estimate(left.est, left.window, window)
            + windowed_estimate(right.est, right.window, window);
        let (small, large) = if left.est <= right.est {
            (left.est, right.est)
        } else {
            (right.est, left.est)
        };
        let cost_gallop = gallop_rows.saturating_mul(gallop_ns as u128);
        let cost_hash = (small as u128).saturating_mul(build_ns as u128)
            + (large as u128).saturating_mul(probe_ns as u128);
        if cost_gallop <= cost_hash {
            JoinStrategy::Gallop
        } else {
            JoinStrategy::Hash
        }
    }

    /// Gallop join: leapfrog merge over both sides' lazily-sorted key
    /// runs. The estimated-smaller side is produced first; its actual
    /// key envelope then clips the larger side's production window, so
    /// the larger column is cracked — and walked — only inside the
    /// overlap.
    fn gallop_join(
        &self,
        left: &JoinSide,
        right: &JoinSide,
        window: (i64, i64),
        metrics: &mut QueryMetrics,
    ) -> (Vec<(RowId, RowId)>, u64) {
        let start = Instant::now();
        let (left_runs, right_runs) = if left.est <= right.est {
            let first = left.keyed_runs(window, metrics);
            let second = match envelope_clip(&first, window) {
                Some(clipped) => right.keyed_runs(clipped, metrics),
                None => KeyRuns::new(),
            };
            (first, second)
        } else {
            let first = right.keyed_runs(window, metrics);
            let second = match envelope_clip(&first, window) {
                Some(clipped) => left.keyed_runs(clipped, metrics),
                None => KeyRuns::new(),
            };
            (second, first)
        };
        let walked = (left_runs.total_rows() + right_runs.total_rows()) as u64;
        let mut out = Vec::new();
        let stats = merge_join_pairs(
            left_runs.into_merge_iter(),
            right_runs.into_merge_iter(),
            &mut out,
        );
        note_merge_join(metrics, &stats);
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(per_row) = elapsed.checked_div(walked) {
            ema_update(&self.gallop_row_ns, per_row.max(1));
        }
        (out, stats.rows_skipped)
    }

    /// Hash join: builds a `key -> rowids` table on the estimated-smaller
    /// side (read through its index, restricted to the joint window),
    /// then streams the larger side's candidates in rowid order through
    /// the row store — no index read, no refinement, O(1) per probe.
    fn hash_join<'e>(
        &self,
        left: &JoinSide<'_, 'e>,
        right: &JoinSide<'_, 'e>,
        window: (i64, i64),
        metrics: &mut QueryMetrics,
    ) -> (Vec<(RowId, RowId)>, u64) {
        let build_left = left.est <= right.est;
        let (build, probe) = if build_left {
            (left, right)
        } else {
            (right, left)
        };
        let build_runs = build.keyed_runs(window, metrics);
        let build_rows = build_runs.total_rows() as u64;
        let t_build = Instant::now();
        let mut table: HashMap<i64, Vec<RowId>> = HashMap::new();
        for (key, rowid) in build_runs.iter_pairs() {
            table.entry(key).or_default().push(rowid);
        }
        let build_ns = u64::try_from(t_build.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(per_row) = build_ns.checked_div(build_rows) {
            ema_update(&self.hash_build_ns, per_row.max(1));
        }
        let probe_rowids = probe.rowids(metrics);
        let t_probe = Instant::now();
        let mut out = Vec::new();
        for &rowid in &probe_rowids {
            let Some(value) = probe.key_of(rowid) else {
                continue;
            };
            if value < window.0 || value >= window.1 {
                continue;
            }
            if let Some(matches) = table.get(&value) {
                for &built in matches {
                    out.push(if build_left {
                        (built, rowid)
                    } else {
                        (rowid, built)
                    });
                }
            }
        }
        let probe_ns = u64::try_from(t_probe.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if !probe_rowids.is_empty() {
            ema_update(
                &self.hash_probe_ns,
                (probe_ns / probe_rowids.len() as u64).max(1),
            );
        }
        (out, 0)
    }

    /// One merged structure probe across every column index: "piece
    /// count" means total pieces over all columns, delta pressure is
    /// summed, and partitioned backends contribute their routed load.
    /// The candidate-set counters are engine-level (column indexes
    /// report 0 for them): cumulative compressed footprint and
    /// galloping block skips over every select so far.
    pub fn structure_probe(&self) -> StructureProbe {
        let mut probe = StructureProbe::default();
        for index in &self.indexes {
            probe.merge(&index.structure_probe());
        }
        probe.candidate_set_bytes = self.candidate_set_bytes_total.load(Ordering::Relaxed);
        probe.blocks_skipped = self.blocks_skipped_total.load(Ordering::Relaxed);
        probe
    }

    /// Per-column structure summaries, in column order — which columns
    /// the workload actually refined, and how far each has converged.
    pub fn column_structure_stats(&self) -> Vec<(String, StructureStats)> {
        self.column_names
            .iter()
            .zip(&self.indexes)
            .map(|(name, index)| (name.clone(), index.structure_probe().summarize()))
            .collect()
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
    columns: Vec<OnceCell<Box<dyn ColumnRead + 'e>>>,
}

impl<'e> Cut<'e> {
    /// The pinned handle of `column`.
    fn column(&self, column: usize) -> &(dyn ColumnRead + 'e) {
        let cell = &self.columns[column];
        let handle = if self.engine.lazy_pins {
            cell.get_or_init(|| self.engine.indexes[column].pin())
        } else {
            cell.get()
                .expect("a plan reads only the columns its cut pinned")
        };
        handle.as_ref()
    }

    /// Plans and executes one conjunctive filter stack — most-selective
    /// predicate cracks first and drives, the rest intersect or project
    /// — returning the compressed candidate set. `None` means "no
    /// filters" (every live tuple; the caller decides whether
    /// materialising that is worth it).
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
        let mut candidates =
            self.timed_column_read(driver.column, driver.low, driver.high, metrics);
        for predicate in &ordered[1..] {
            if candidates.is_empty() {
                break;
            }
            if engine.prefer_projection(predicate.column, candidates.len()) {
                candidates = engine.project_filter(&candidates, predicate);
            } else {
                // Rowid-set intersection: crack the predicate's own
                // column and intersect the two compressed sets, galloping
                // from the smaller side when the skew warrants it.
                let rows = self.timed_column_read(
                    predicate.column,
                    predicate.low,
                    predicate.high,
                    metrics,
                );
                let (merged, stats) =
                    intersect_sets(&candidates, &rows, IntersectStrategy::Adaptive);
                metrics.blocks_skipped =
                    metrics.blocks_skipped.saturating_add(stats.blocks_skipped);
                engine
                    .blocks_skipped_total
                    .fetch_add(stats.blocks_skipped, Ordering::Relaxed);
                candidates = merged;
            }
        }
        Some(candidates)
    }

    /// One compressed column read, timed into the column's read-cost EMA
    /// (the projection-vs-intersection switch consults it).
    fn timed_column_read(
        &self,
        column: usize,
        low: i64,
        high: i64,
        metrics: &mut QueryMetrics,
    ) -> RowIdSet {
        let start = Instant::now();
        let (set, m) = self.column(column).select_rowid_set(low, high);
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        metrics.accumulate(&m);
        ema_update(&self.engine.column_select_ns[column], elapsed.max(1));
        set
    }

    /// Plans one join side: runs its filter stack, estimates its
    /// surviving cardinality, and extracts the key window any filters on
    /// the join column itself imply.
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
        let candidates = self.candidates_for(filters, metrics);
        let est = match &candidates {
            Some(set) => set.len() as u64,
            None => {
                // Unfiltered: estimate from a full-domain count, which
                // resolves to existing piece bounds and never cracks.
                let (n, m) = self.column(col).count(i64::MIN, i64::MAX);
                metrics.accumulate(&m);
                n
            }
        };
        JoinSide {
            cut: self,
            col,
            candidates,
            est,
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
/// filtered candidate set (`None` = unfiltered), estimated surviving
/// cardinality, and the key window its join-column filters imply.
struct JoinSide<'c, 'e> {
    cut: &'c Cut<'e>,
    col: usize,
    candidates: Option<RowIdSet>,
    est: u64,
    window: (i64, i64),
}

impl JoinSide<'_, '_> {
    /// The side's `(key, rowid)` runs over `window`, restricted to its
    /// filtered candidates. Cracks the join column at the window bounds —
    /// the adaptive-indexing bet applied to joins.
    fn keyed_runs(&self, window: (i64, i64), metrics: &mut QueryMetrics) -> KeyRuns {
        if window.0 >= window.1 {
            return KeyRuns::new();
        }
        let (mut runs, m) = self
            .cut
            .column(self.col)
            .select_key_runs(window.0, window.1);
        metrics.accumulate(&m);
        if let Some(cand) = &self.candidates {
            let keep: HashSet<RowId> = cand.to_vec().into_iter().collect();
            runs.retain_rowids(|rowid| keep.contains(&rowid));
        }
        runs
    }

    /// The side's surviving rowids as a flat sorted vector.
    fn rowids(&self, metrics: &mut QueryMetrics) -> Vec<RowId> {
        match &self.candidates {
            Some(set) => set.to_vec(),
            None => {
                let (rowids, m) = self.cut.column(self.col).select_rowids(i64::MIN, i64::MAX);
                metrics.accumulate(&m);
                rowids
            }
        }
    }

    /// The join-column value of one of the side's row ids (row-store
    /// probe).
    fn key_of(&self, rowid: RowId) -> Option<i64> {
        self.cut.engine.value_at(self.col, rowid)
    }
}

/// Nested-loop join: every surviving left row against every surviving
/// right row through the row store. Quadratic on purpose — the baseline
/// the rowid-set strategies are verified against and measured over; the
/// planner never picks it.
fn nested_loop_join(
    left: &JoinSide,
    right: &JoinSide,
    metrics: &mut QueryMetrics,
) -> (Vec<(RowId, RowId)>, u64) {
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
    (out, 0)
}

/// Width of a half-open window as a `u128` (the full `i64` domain does
/// not fit a `u64`), at least 1.
fn window_width(window: (i64, i64)) -> u128 {
    if window.1 <= window.0 {
        1
    } else {
        ((window.1 as i128 - window.0 as i128) as u128).max(1)
    }
}

/// Scales a side's cardinality estimate by the fraction of its own key
/// window the joint window covers (uniform-domain assumption, like the
/// select planner's width-as-selectivity estimate).
fn windowed_estimate(est: u64, side_window: (i64, i64), joint: (i64, i64)) -> u128 {
    let overlap = (joint.0.max(side_window.0), joint.1.min(side_window.1));
    if overlap.1 <= overlap.0 {
        return 0;
    }
    (est as u128).saturating_mul(window_width(overlap)) / window_width(side_window)
}

/// Tightens `window` to the produced runs' actual key envelope (`None`
/// when the runs are empty — nothing can match). `max_key + 1` cannot
/// overflow: table keys are `< i64::MAX` by the engine contract.
fn envelope_clip(runs: &KeyRuns, window: (i64, i64)) -> Option<(i64, i64)> {
    let lo = runs.min_key()?;
    let hi = runs.max_key()?;
    Some((lo.max(window.0), (hi + 1).min(window.1)))
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

    /// A select pinned before a delete of an inserted tuple still resolves
    /// the tuple through the row store: its projection must keep the row,
    /// and the entry is reclaimed only when the cut closes.
    #[test]
    fn a_live_cut_keeps_a_deleted_inserted_tuple_in_the_row_store() {
        let engine = TableEngine::new(
            "r",
            vec![("a".into(), vec![1, 2]), ("b".into(), vec![10, 20])],
            TableBackend::Serial(LatchProtocol::Piece),
            CompactionPolicy::disabled(),
        );
        let rowid = engine.execute(&TableOp::InsertTuple(vec![5, 50])).rowids[0];
        // Column b reads as ruinously slow: its predicate projects.
        let slow = u64::MAX / 4;
        engine.column_select_ns[1].store(slow, Ordering::Relaxed);
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
        let predicates = [
            ColumnPredicate::new(0, 0, 10),
            ColumnPredicate::new(1, 40, 60),
        ];
        let mut metrics = QueryMetrics::default();
        let got = cut.candidates_for(&predicates, &mut metrics).unwrap();
        assert_eq!(got.to_vec(), [rowid], "the pinned select still returns it");
        assert_eq!(
            engine.column_select_ns[1].load(Ordering::Relaxed),
            slow,
            "column b was projected, not read"
        );
        let now = engine.execute(&TableOp::SelectMulti(predicates.to_vec()));
        assert!(now.rowids.is_empty() && now.epoch == deleted.epoch);
        drop(cut);
        assert_eq!(engine.tuple(rowid), None, "reclaimed once the cut closed");
    }
}
