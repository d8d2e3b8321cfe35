//! The pending-update side structure for concurrent adaptive indexes.
//!
//! Section 4 of the paper extends the latch protocols from read-only
//! queries to workloads that *mutate* the indexed column: updates are
//! collected in a pending side structure and reconciled with the adaptive
//! index as queries touch the affected key ranges. [`PendingDelta`]
//! implements that side structure for the cracker family:
//!
//! * **Inserts** stay in the delta, each row carrying the **row id** its
//!   table assigned (tuple identity, kept through every later physical
//!   move). The cracker array is allocated once and never grows (that
//!   fixed footprint is what makes the piece-latch `unsafe` contract of
//!   [`SharedCrackerArray`](crate::SharedCrackerArray) sound), so every
//!   query folds the qualifying pending rows into its answer with an
//!   `O(log n + k)` range probe.
//! * **Deletes** are resolved against the *cracked* main structure: a
//!   delete first refines the index at the deleted key's bounds under the
//!   normal latch protocol (merge-on-crack — the delete pays for the
//!   refinement exactly like a query would), learns precisely *which*
//!   main-array rows carry the key, and records each doomed row id as a
//!   *tombstone*. Because cracking never changes the array's multiset of
//!   (value, row id) pairs, the tombstoned set stays exact forever after —
//!   and a physical sweep removes exactly the doomed rows, never a
//!   same-valued row inserted later.
//!
//! # One record per row
//!
//! Every row the delta knows about is **one record** — `{ rowid, born,
//! died, place }` — in **one** `value → records` map. `place` says where
//! the row *physically* is (in the main array, or only here); `[born,
//! died)` says when it is *logically* visible, in **column epochs**: every
//! write advances the epoch and stamps the records it touches. A reader
//! asks either for *now* (`at = None`: visible means not dead) or for a
//! registered snapshot epoch `e` (visible means `born <= e < died`), and a
//! record's contribution to the answer on top of a main-array scan is read
//! off this table:
//!
//! | place   | visible at the read epoch | not visible         |
//! |---------|---------------------------|---------------------|
//! | `Delta` | **extra** row (+1)        | nothing             |
//! | `Main`  | nothing                   | **hidden** row (−1) |
//!
//! [`PendingDelta::adjust`] (counts and sums) and
//! [`PendingDelta::pair_view`] (row ids and keys) are two folds of that
//! one rule over the same key range, so `answer(e) = main@now + extra(e) −
//! hidden(e)` for every read shape, and the counts of one are the set
//! sizes of the other by construction. A record is kept exactly while it
//! contributes *now* or at some live snapshot epoch; with no snapshot
//! registered that leaves the pending inserts and the tombstones, nothing
//! else. Every mutation is a field update on the record:
//!
//! | transition | physically                              | record                                 |
//! |------------|-----------------------------------------|----------------------------------------|
//! | insert     | nothing: the row waits here             | new `{Delta, now, alive}`              |
//! | delete     | nothing: the row is only marked         | `died = now` (base row: new `{Main, 0, now}`) |
//! | placement  | a hole-fill or a rebuild copies it in   | `Delta → Main`, `born` kept            |
//! | retirement | a piece shrink or a rebuild drops it    | `Main → Delta`, `[born, died)` kept    |
//!
//! A pending insert is `{Delta, alive}`, a tombstone `{Main, dead}`; a
//! placed row a pre-insert snapshot must not see is `{Main, alive, born >
//! e}`, a reclaimed row a pre-delete snapshot must still see `{Delta,
//! dead, died > e}` — the four combinations of the two fields, not four
//! structures.
//!
//! The main multiset changes only through epoch-guarded reclamations, so a
//! query needs one consistent view of the delta (a single short mutex)
//! plus the shrink-epoch validation to be linearizable. An empty delta —
//! the whole life of a read-only column — needs not even the mutex: its
//! record count is mirrored in an atomic, and a view whose mirror reads 0
//! inside the read's seqlock window is the empty view at that instant.

use aidx_cracking::RowId;
use aidx_latch::dcheck;
use aidx_latch::facade::{self, Mutex, MutexGuard};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::{Bound, RangeBounds};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Aggregate adjustments the delta contributes to one range query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaAdjust {
    /// Extra rows (pending inserts; for snapshot reads also rows reclaimed
    /// after the epoch) with values in the queried range.
    pub insert_count: u64,
    /// Sum of the extra rows' values.
    pub insert_sum: i128,
    /// Hidden main-array rows (tombstones; for snapshot reads also rows
    /// placed after the epoch) in the range.
    pub tombstone_count: u64,
    /// Sum of the hidden rows' values.
    pub tombstone_sum: i128,
}

/// The delta's contribution to one row-carrying range read: main-array
/// rows to hide plus delta-resident `(key, rowid)` pairs to add. Produced
/// in one consistent snapshot of the delta state
/// ([`PendingDelta::pair_view`]); row-id reads simply drop the keys.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairView {
    /// Row ids the main-array scan must suppress: tombstoned rows (already
    /// deleted at the read epoch) and — for snapshot reads — rows placed
    /// into the main array after the snapshot epoch.
    pub hidden: HashSet<RowId>,
    /// `(key, rowid)` pairs the scan must add: pending inserted rows
    /// (alive at the read epoch) and — for snapshot reads — rows
    /// physically reclaimed after the snapshot epoch. Keyed because the
    /// delta indexes by value — no main-array probe needed.
    pub extra: Vec<(i64, RowId)>,
}

/// `died` of a row no delete has reached.
const ALIVE: u64 = u64::MAX;

/// Where a recorded row physically is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// Only in the delta: a main-array scan does not find it.
    Delta,
    /// In a live slot of the main array: a scan finds it.
    Main,
}

/// One row the delta knows about (see the module docs for the table this
/// record is read through).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DeltaRow {
    rowid: RowId,
    /// Insert epoch (0 for a row of the base column).
    born: u64,
    /// Delete epoch, [`ALIVE`] until a delete reaches the row.
    died: u64,
    place: Place,
}

impl DeltaRow {
    fn alive(&self) -> bool {
        self.died == ALIVE
    }

    /// The contribution rule, written once: at read epoch `at` (`None` =
    /// now) a row outside the main array counts iff it is visible (an
    /// *extra*), a row inside it iff it is not (a *hidden*).
    fn contributes(&self, at: Option<u64>) -> bool {
        let visible = match at {
            None => self.alive(),
            Some(epoch) => self.born <= epoch && epoch < self.died,
        };
        visible != (self.place == Place::Main)
    }

    /// True while some reader that can still ask — now, or at a live
    /// snapshot epoch — gets a contribution from this record.
    fn observable(&self, live_snapshots: &BTreeMap<u64, usize>) -> bool {
        self.contributes(None) || live_snapshots.keys().any(|&e| self.contributes(Some(e)))
    }
}

#[derive(Debug, Default)]
struct DeltaState {
    /// Epoch of the most recent write (0 = nothing written yet).
    epoch: u64,
    /// value → the recorded rows carrying it, in arrival order (appended,
    /// filtered with `retain`, never reordered: placement hands rows out
    /// in insertion order, so rebuilt arrays are reproducible).
    rows: BTreeMap<i64, Vec<DeltaRow>>,
    /// Rows waiting for placement: `{Delta, alive}` records.
    pending_inserts: u64,
    /// Main-array rows logically deleted: `{Main, dead}` records.
    tombstoned_rows: u64,
    /// Records in `rows`, of every kind.
    records: u64,
    /// snapshot epoch → number of live snapshot handles registered at it.
    live_snapshots: BTreeMap<u64, usize>,
}

/// Map range of a piece key interval: `low = None` unbounded below, `high
/// = None` unbounded above, matching [`aidx_cracking::Piece`] bounds.
fn piece_keys(low: Option<i64>, high: Option<i64>) -> (Bound<i64>, Bound<i64>) {
    (
        low.map_or(Bound::Unbounded, Bound::Included),
        high.map_or(Bound::Unbounded, Bound::Excluded),
    )
}

impl DeltaState {
    /// The read side: every `(value, record)` of the key range that
    /// contributes at read epoch `at`, ascending by value, arrival order
    /// within a value.
    fn contributing(
        &self,
        keys: impl RangeBounds<i64>,
        at: Option<u64>,
    ) -> impl Iterator<Item = (i64, &DeltaRow)> {
        self.rows
            .range(keys)
            .flat_map(|(&value, rows)| rows.iter().map(move |row| (value, row)))
            .filter(move |(_, row)| row.contributes(at))
    }

    /// The write side: lets `change` update every record of the key range
    /// in place (same order as [`DeltaState::contributing`]), then drops
    /// the records no reader can observe any more.
    fn update(&mut self, keys: impl RangeBounds<i64>, mut change: impl FnMut(i64, &mut DeltaRow)) {
        let mut emptied = Vec::new();
        for (&value, rows) in self.rows.range_mut(keys) {
            rows.iter_mut().for_each(|row| change(value, row));
            let before = rows.len();
            rows.retain(|row| row.observable(&self.live_snapshots));
            self.records -= (before - rows.len()) as u64;
            if rows.is_empty() {
                emptied.push(value);
            }
        }
        for value in emptied {
            self.rows.remove(&value);
        }
    }

    /// Drops every record that stopped being observable because a
    /// snapshot epoch left `live_snapshots`.
    fn gc(&mut self) {
        self.update(.., |_, _| {});
    }
}

/// Everything a [`PendingDelta`] held, taken in one atomic step by a
/// compaction (see [`PendingDelta::drain`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrainedDelta {
    /// Pending inserted rows as `(value, rowid)` pairs, ascending by
    /// value (insertion order within a value).
    pub inserts: Vec<(i64, RowId)>,
    /// Row ids of the tombstoned main-array rows to drop.
    pub doomed: HashSet<RowId>,
    /// Total pending inserted rows (== `inserts.len()`).
    pub pending_inserts: u64,
    /// Total tombstoned rows (== `doomed.len()`).
    pub tombstoned_rows: u64,
}

impl DrainedDelta {
    /// True when the drained delta held no pending work at all.
    pub fn is_empty(&self) -> bool {
        self.pending_inserts == 0 && self.tombstoned_rows == 0
    }
}

/// Latch-protected pending inserts and tombstones for one shared index,
/// epoch-stamped so snapshot readers can reconstruct earlier states and
/// rowid-stamped so physical reorganisation never loses tuple identity.
#[derive(Debug, Default)]
pub struct PendingDelta {
    state: Mutex<DeltaState>,
    /// Lock-free mirror of `tombstoned_rows` (always updated while the
    /// state lock is held): lets the crack hot path skip the delta lock
    /// entirely when there is nothing to shrink, which is the steady state
    /// of read-only workloads. A stale read only makes a shrink
    /// opportunistic — it can never corrupt the exact counts inside.
    tombstoned_hint: AtomicU64,
    /// Lock-free mirror of the record count, stored (`Release`) under the
    /// state lock by every change to the records: lets
    /// [`PendingDelta::adjust`] and [`PendingDelta::pair_view`] answer an
    /// empty delta without the lock. A facade atomic, so that `aidx-check`
    /// explores every access to it.
    records: facade::AtomicU64,
    /// Process-unique id tagging the state lock in `dcheck`'s witness
    /// graph, assigned lazily on first lock (0 = unassigned, so the
    /// derived `Default` stays usable).
    instance: AtomicUsize,
}

impl PendingDelta {
    /// Creates an empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the delta state, tracked at dcheck level `Delta` (between the
    /// shrink-serial mutex and the TOC in the global latch order).
    fn lock_state(&self) -> dcheck::Tracked<MutexGuard<'_, DeltaState>> {
        let mut id = self.instance.load(Ordering::Relaxed);
        if id == 0 {
            // `instance_id` starts at 1, so 0 is a safe "unassigned" mark;
            // a lost race just burns one id.
            let fresh = dcheck::instance_id();
            id =
                match self
                    .instance
                    .compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => fresh,
                    Err(winner) => winner,
                };
        }
        dcheck::Tracked::new(dcheck::Level::Delta, id, "delta-state", self.state.lock())
    }

    /// Publishes `state`'s record count to the lock-free mirror; called
    /// under the state lock after every change to the records.
    fn publish(&self, state: &DeltaState) {
        self.records.store(state.records, Ordering::Release);
    }

    /// True if the delta held no record at all at the instant of the
    /// (`Acquire`) load, so that every view of it, at any epoch, is empty.
    fn holds_nothing(&self) -> bool {
        self.records.load(Ordering::Acquire) == 0
    }

    /// The epoch of the most recent write (the epoch a snapshot registered
    /// *now* would read at).
    pub fn current_epoch(&self) -> u64 {
        self.lock_state().epoch
    }

    /// Registers a snapshot at the current epoch and returns that epoch.
    /// While registered, every record the epoch can observe is kept, so
    /// [`PendingDelta::adjust`] and [`PendingDelta::pair_view`] at the
    /// epoch stay answerable across any physical reorganisation; every
    /// registration must be paired with a
    /// [`PendingDelta::release_snapshot`].
    pub fn register_snapshot(&self) -> u64 {
        let mut state = self.lock_state();
        let epoch = state.epoch;
        *state.live_snapshots.entry(epoch).or_insert(0) += 1;
        epoch
    }

    /// Releases one snapshot registration at `epoch`; when it was the
    /// epoch's last, drops the records only that epoch could observe.
    pub fn release_snapshot(&self, epoch: u64) {
        let mut state = self.lock_state();
        match state.live_snapshots.get_mut(&epoch) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                state.live_snapshots.remove(&epoch);
                state.gc();
                self.publish(&state);
            }
            None => debug_assert!(false, "released an unregistered snapshot epoch"),
        }
    }

    /// Number of live snapshot registrations (diagnostics/tests).
    pub fn live_snapshots(&self) -> usize {
        self.lock_state().live_snapshots.values().sum()
    }

    /// Records kept only for live snapshots — everything that does not
    /// contribute now (pending inserts and tombstones are state, not
    /// history). A dead record is dropped as soon as no live epoch falls
    /// in its window, so a hot key churning under a pinned snapshot leaves
    /// nothing behind; 0 whenever no snapshot is live.
    pub fn history_len(&self) -> usize {
        let state = self.lock_state();
        let rows = state.rows.values().flatten();
        rows.filter(|row| !row.contributes(None)).count()
    }

    /// Records one pending inserted row `(value, rowid)`, returning the
    /// delta's total row count (pending inserts plus tombstones) after the
    /// insert — the caller's compaction trigger can use it without a
    /// second lock acquisition.
    pub fn insert_row(&self, value: i64, rowid: RowId) -> u64 {
        let mut state = self.lock_state();
        state.epoch += 1;
        let born = state.epoch;
        state.rows.entry(value).or_default().push(DeltaRow {
            rowid,
            born,
            died: ALIVE,
            place: Place::Delta,
        });
        state.pending_inserts += 1;
        state.records += 1;
        self.publish(&state);
        state.pending_inserts + state.tombstoned_rows
    }

    /// Applies one delete against key `value` to the delta in a single
    /// atomic step, or nothing at all. `only` is the delete's target:
    /// `None` dooms every row carrying the key, `Some(rowid)` exactly that
    /// row (the positional delete a table engine issues against every
    /// column of a doomed tuple). The doomed alive pending rows die, and
    /// the doomed rows among `main_rowids` — the live main-array rows the
    /// caller collected for the target under its latch protocol — are
    /// tombstoned unless they already are. Returns `(pending rows removed,
    /// main rows newly tombstoned)`.
    ///
    /// The delete only applies if `validate` returns true *while the delta
    /// lock is held*; otherwise nothing changes and `None` is returned.
    /// This is the hook for the piece-shrinking seqlock: a physical
    /// reclamation (which moves rows between the main multiset and the
    /// delta domain) bumps the index's shrink epoch before touching the
    /// delta, so a delete whose `main_rowids` were collected against a
    /// since-reclaimed main state validates the epoch under this lock and
    /// retries instead of tombstoning stale rows.
    pub fn apply_delete(
        &self,
        value: i64,
        only: Option<RowId>,
        main_rowids: &[RowId],
        validate: impl FnOnce() -> bool,
    ) -> Option<(u64, u64)> {
        let mut state = self.lock_state();
        if !validate() {
            return None;
        }
        state.epoch += 1;
        let now = state.epoch;
        let doomed = |rowid: RowId| only.is_none_or(|o| o == rowid);
        // The doomed main rows; the recorded ones leave the set below, so
        // what remains are rows of the base column.
        let mut base: HashSet<RowId> = main_rowids.iter().copied().filter(|&r| doomed(r)).collect();
        let (mut from_pending, mut newly) = (0u64, 0u64);
        state.update(value..=value, |_, row| {
            let in_main = row.place == Place::Main && base.remove(&row.rowid);
            if !row.alive() || !doomed(row.rowid) {
                return;
            }
            match row.place {
                Place::Delta => from_pending += 1,
                Place::Main if in_main => newly += 1,
                Place::Main => return,
            }
            row.died = now;
        });
        if !base.is_empty() {
            let state = &mut *state;
            let rows = state.rows.entry(value).or_default();
            for &rowid in main_rowids {
                if base.remove(&rowid) {
                    newly += 1;
                    state.records += 1;
                    rows.push(DeltaRow {
                        rowid,
                        born: 0,
                        died: now,
                        place: Place::Main,
                    });
                }
            }
        }
        state.pending_inserts -= from_pending;
        state.tombstoned_rows += newly;
        self.tombstoned_hint
            .store(state.tombstoned_rows, Ordering::Release);
        self.publish(&state);
        Some((from_pending, newly))
    }

    /// Takes the delta's entire *current* contents in one atomic step,
    /// leaving it logically empty. Compaction calls this while holding the
    /// index's quiesce gate, folds the result into the rebuilt main array,
    /// and any insert that lands after the drain simply waits for the next
    /// compaction. Every record that contributes now changes place — the
    /// pending inserts are placed, the tombstoned rows retired — so
    /// nothing contributes now afterwards, and what pre-drain snapshots
    /// can still observe stays answerable against the rebuilt array.
    pub fn drain(&self) -> DrainedDelta {
        let mut state = self.lock_state();
        let mut drained = DrainedDelta {
            pending_inserts: state.pending_inserts,
            tombstoned_rows: state.tombstoned_rows,
            ..DrainedDelta::default()
        };
        state.update(.., |value, row| {
            if !row.contributes(None) {
                return;
            }
            row.place = match row.place {
                Place::Delta => {
                    drained.inserts.push((value, row.rowid));
                    Place::Main
                }
                Place::Main => {
                    drained.doomed.insert(row.rowid);
                    Place::Delta
                }
            };
        });
        state.pending_inserts = 0;
        state.tombstoned_rows = 0;
        self.tombstoned_hint.store(0, Ordering::Release);
        self.publish(&state);
        drained
    }

    /// Snapshot of the tombstoned rows whose values fall inside a piece's
    /// key interval (`low = None` means unbounded below, `high = None`
    /// unbounded above — matching [`aidx_cracking::Piece`] bounds):
    /// `value → doomed row ids`. Used by delete-aware piece shrinking to
    /// find the exact rows a crack can physically reclaim while it already
    /// holds the piece's write latch.
    pub fn tombstone_rows_in(
        &self,
        low: Option<i64>,
        high: Option<i64>,
    ) -> BTreeMap<i64, Vec<RowId>> {
        let state = self.lock_state();
        let mut doomed: BTreeMap<i64, Vec<RowId>> = BTreeMap::new();
        for (value, row) in state.contributing(piece_keys(low, high), None) {
            if row.place == Place::Main {
                doomed.entry(value).or_default().push(row.rowid);
            }
        }
        doomed
    }

    /// Retires tombstones whose rows were physically removed from the
    /// main array: every tombstoned `(value, rowid)` pair in `removed`
    /// moves `Main → Delta`, so it stops hiding anything now while a
    /// snapshot that predates the delete still *sees* the physically
    /// removed row. Returns the number of rows retired.
    pub fn retire_tombstones(&self, removed: &[(i64, RowId)]) -> u64 {
        let mut state = self.lock_state();
        // Group per value so each value's records are visited in one
        // pass: a sweep that reclaims k duplicates of one hot key costs
        // O(k), not O(k²) under the delta lock.
        let mut by_value: BTreeMap<i64, HashSet<RowId>> = BTreeMap::new();
        for &(value, rowid) in removed {
            by_value.entry(value).or_default().insert(rowid);
        }
        let mut retired = 0u64;
        for (value, ids) in by_value {
            state.update(value..=value, |_, row| {
                if row.place == Place::Main && !row.alive() && ids.contains(&row.rowid) {
                    row.place = Place::Delta;
                    retired += 1;
                }
            });
        }
        state.tombstoned_rows -= retired;
        self.tombstoned_hint
            .store(state.tombstoned_rows, Ordering::Release);
        self.publish(&state);
        retired
    }

    /// Takes up to `max_rows` currently-pending inserted rows whose values
    /// fall in the piece key interval `[low, high)` (bounds as in
    /// [`PendingDelta::tombstone_rows_in`]) out of the delta, for physical
    /// placement into that piece's holes by incremental compaction.
    /// Returns the taken `(value, rowid)` pairs, ascending by value,
    /// insertion order within a value. The taken records move `Delta →
    /// Main`, so a snapshot that predates an insert does not double-count
    /// its row once it sits in the main array.
    pub fn take_inserts_in(
        &self,
        low: Option<i64>,
        high: Option<i64>,
        max_rows: u64,
    ) -> Vec<(i64, RowId)> {
        let mut state = self.lock_state();
        let mut taken = Vec::new();
        state.update(piece_keys(low, high), |value, row| {
            if row.place == Place::Delta && row.alive() && (taken.len() as u64) < max_rows {
                row.place = Place::Main;
                taken.push((value, row.rowid));
            }
        });
        state.pending_inserts -= taken.len() as u64;
        self.publish(&state);
        taken
    }

    /// Lock-free probe: could any tombstoned rows exist right now? A
    /// `false` may be momentarily stale against a concurrent delete (its
    /// caller treats reclamation as opportunistic); a `true` only sends
    /// the caller to the exact, locked snapshot.
    pub fn has_tombstones(&self) -> bool {
        self.tombstoned_hint.load(Ordering::Acquire) != 0
    }

    /// Every distinct value currently in the delta with its row count
    /// (pending inserts plus tombstones), ascending by value. The
    /// incremental compactor's watermark-driven steering groups these by
    /// piece — `O(delta)` work against the *bounded* delta, instead of
    /// `O(pieces)` probes against the unbounded piece count.
    pub fn value_counts(&self) -> Vec<(i64, u64)> {
        let state = self.lock_state();
        let mut counts: Vec<(i64, u64)> = Vec::new();
        for (value, _) in state.contributing(.., None) {
            match counts.last_mut() {
                Some((last, n)) if *last == value => *n += 1,
                _ => counts.push((value, 1)),
            }
        }
        counts
    }

    /// Current delta rows (pending inserts plus tombstones) whose values
    /// fall inside the piece key interval `[low, high)` (bounds as in
    /// [`PendingDelta::tombstone_rows_in`]). The incremental compactor
    /// uses this to decide whether a piece is fully reconciled before
    /// advancing its watermark.
    pub fn rows_in(&self, low: Option<i64>, high: Option<i64>) -> u64 {
        let state = self.lock_state();
        state.contributing(piece_keys(low, high), None).count() as u64
    }

    /// One consistent snapshot of the delta's contribution to an aggregate
    /// over `[low, high)`: the current one when `at` is `None`, or the one
    /// *as of* snapshot epoch `at` (which must be registered). Extra rows
    /// land on the insert side of the returned [`DeltaAdjust`], hidden
    /// rows on the tombstone side — the counts of exactly the rows
    /// [`PendingDelta::pair_view`] lists. An empty delta answers without
    /// the lock: a reader that folds this view into a main-array scan
    /// must take it inside the scan's shrink-epoch window, which is what
    /// makes the instant the mirror read 0 a point the scan's main array
    /// was current at.
    pub fn adjust(&self, low: i64, high: i64, at: Option<u64>) -> DeltaAdjust {
        let mut adjust = DeltaAdjust::default();
        if low >= high || self.holds_nothing() {
            return adjust;
        }
        let state = self.lock_state();
        for (value, row) in state.contributing(low..high, at) {
            let (count, sum) = match row.place {
                Place::Delta => (&mut adjust.insert_count, &mut adjust.insert_sum),
                Place::Main => (&mut adjust.tombstone_count, &mut adjust.tombstone_sum),
            };
            *count += 1;
            *sum += value as i128;
        }
        adjust
    }

    /// The delta's contribution to a row-carrying read over `[low, high)`,
    /// one consistent snapshot under a single lock acquisition. With `at`
    /// `None` (current epoch): tombstoned main rows are hidden, alive
    /// pending rows added. As of snapshot epoch `at` (which must be
    /// registered): main rows deleted at or before the epoch — or placed
    /// after it — are hidden; rows outside the main array whose `[born,
    /// died)` contains the epoch are added. An empty delta answers without
    /// the lock, under the same seqlock-window rule as
    /// [`PendingDelta::adjust`].
    pub fn pair_view(&self, low: i64, high: i64, at: Option<u64>) -> PairView {
        let mut view = PairView::default();
        if low >= high || self.holds_nothing() {
            return view;
        }
        let state = self.lock_state();
        for (value, row) in state.contributing(low..high, at) {
            match row.place {
                Place::Delta => view.extra.push((value, row.rowid)),
                Place::Main => {
                    view.hidden.insert(row.rowid);
                }
            }
        }
        view
    }

    /// One consistent snapshot of both counters — `(pending inserts,
    /// tombstoned rows)` — under a single lock acquisition, so a logical
    /// row count derived from them can never tear against a concurrent
    /// [`PendingDelta::apply_delete`] (which moves both at once).
    pub fn counters(&self) -> (u64, u64) {
        let state = self.lock_state();
        (state.pending_inserts, state.tombstoned_rows)
    }

    /// Number of rows currently pending insertion.
    pub fn pending_inserts(&self) -> u64 {
        self.counters().0
    }

    /// Number of main-array rows currently tombstoned.
    pub fn tombstoned_rows(&self) -> u64 {
        self.counters().1
    }

    /// True when the delta holds no pending work at all.
    pub fn is_empty(&self) -> bool {
        self.counters() == (0, 0)
    }

    /// Consistency check against the physical array, exact in quiescence:
    /// `main` yields the `(value, rowid)` of every *live* main-array slot
    /// (consumed only when the delta holds records at all). Verifies that
    /// both counters, the record count and their lock-free mirrors equal
    /// the counts derived from the records, that no unobservable record lingers, that row ids are
    /// unique within the delta, that every `Main` record's `(value,
    /// rowid)` sits in a live slot, and that no `Delta` record's row id
    /// does. (The caller checks that every live slot's value lies in its
    /// piece's key range, so a `Main` record found at all is found in the
    /// right piece.)
    pub fn check_invariants(&self, main: impl IntoIterator<Item = (i64, RowId)>) -> bool {
        let state = self.lock_state();
        let (mut pending, mut tombstoned) = (0u64, 0u64);
        let mut recorded: HashMap<RowId, (i64, Place)> = HashMap::new();
        for (&value, rows) in &state.rows {
            if rows.is_empty() {
                return false;
            }
            for row in rows {
                match row.place {
                    Place::Delta if row.alive() => pending += 1,
                    Place::Main if !row.alive() => tombstoned += 1,
                    _ => {}
                }
                if !row.observable(&state.live_snapshots)
                    || recorded.insert(row.rowid, (value, row.place)).is_some()
                {
                    return false;
                }
            }
        }
        let records = state
            .rows
            .values()
            .map(|rows| rows.len() as u64)
            .sum::<u64>();
        if (pending, tombstoned) != (state.pending_inserts, state.tombstoned_rows)
            || self.tombstoned_hint.load(Ordering::Acquire) != tombstoned
            || (state.records, self.records.load(Ordering::Acquire)) != (records, records)
        {
            return false;
        }
        if recorded.is_empty() {
            return true;
        }
        for (value, rowid) in main {
            match recorded.get(&rowid) {
                None => {}
                Some(&(recorded_value, Place::Main)) if recorded_value == value => {
                    recorded.remove(&rowid);
                }
                Some(_) => return false,
            }
        }
        recorded.values().all(|&(_, place)| place == Place::Delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A [`PairView`] with the keys dropped — what a row-id read folds.
    struct RowidView {
        hidden: HashSet<RowId>,
        extra: Vec<RowId>,
    }

    fn rowid_view(delta: &PendingDelta, low: i64, high: i64, at: Option<u64>) -> RowidView {
        let view = delta.pair_view(low, high, at);
        RowidView {
            hidden: view.hidden,
            extra: view.extra.into_iter().map(|(_, rowid)| rowid).collect(),
        }
    }

    /// True when the delta is consistent with a main array whose live
    /// slots hold exactly `main`.
    fn consistent(delta: &PendingDelta, main: &[(i64, RowId)]) -> bool {
        delta.check_invariants(main.iter().copied())
    }

    /// Test shorthand for one pending insert.
    fn ins(delta: &PendingDelta, value: i64, rowid: RowId) {
        delta.insert_row(value, rowid);
    }

    /// Test shorthand for an unconditional delete of every row of `value`.
    fn del(delta: &PendingDelta, value: i64, main_rowids: &[RowId]) -> (u64, u64) {
        delta
            .apply_delete(value, None, main_rowids, || true)
            .expect("validation closure always passes")
    }

    #[test]
    fn fresh_delta_adjusts_nothing() {
        let delta = PendingDelta::new();
        assert!(delta.is_empty());
        assert_eq!(
            delta.adjust(i64::MIN, i64::MAX, None),
            DeltaAdjust::default()
        );
        assert_eq!(delta.pending_inserts(), 0);
        assert_eq!(delta.tombstoned_rows(), 0);
        assert_eq!(delta.current_epoch(), 0);
        assert!(consistent(&delta, &[]));
    }

    #[test]
    fn inserts_accumulate_and_range_probe_respects_bounds() {
        let delta = PendingDelta::new();
        ins(&delta, 5, 100);
        ins(&delta, 5, 101);
        ins(&delta, 10, 102);
        assert_eq!(delta.pending_inserts(), 3);
        let a = delta.adjust(5, 6, None);
        assert_eq!(a.insert_count, 2);
        assert_eq!(a.insert_sum, 10);
        let a = delta.adjust(0, 11, None);
        assert_eq!(a.insert_count, 3);
        assert_eq!(a.insert_sum, 20);
        // Exclusive upper bound: value 10 is outside [5, 10).
        assert_eq!(delta.adjust(5, 10, None).insert_count, 2);
        // Inverted range contributes nothing.
        assert_eq!(delta.adjust(10, 5, None), DeltaAdjust::default());
        // Rowid view returns the pending rows.
        let view = rowid_view(&delta, 0, 11, None);
        assert!(view.hidden.is_empty());
        let mut extra = view.extra;
        extra.sort_unstable();
        assert_eq!(extra, vec![100, 101, 102]);
        assert!(consistent(&delta, &[]));
    }

    #[test]
    fn tombstones_are_idempotent_per_row() {
        let delta = PendingDelta::new();
        assert_eq!(del(&delta, 7, &[1, 2, 3]), (0, 3));
        assert_eq!(
            del(&delta, 7, &[1, 2, 3]),
            (0, 0),
            "repeat delete suppresses 0"
        );
        assert_eq!(delta.tombstoned_rows(), 3);
        let a = delta.adjust(7, 8, None);
        assert_eq!(a.tombstone_count, 3);
        assert_eq!(a.tombstone_sum, 21);
        // The tombstoned rowids are hidden from rowid reads.
        let view = rowid_view(&delta, 0, 10, None);
        assert_eq!(view.hidden.len(), 3);
        assert!(view.hidden.contains(&2));
        assert!(consistent(&delta, &[(7, 1), (7, 2), (7, 3)]));
    }

    #[test]
    fn delete_reclaims_pending_inserts_and_tombstones_atomically() {
        let delta = PendingDelta::new();
        ins(&delta, 4, 10);
        ins(&delta, 4, 11);
        assert_eq!(del(&delta, 4, &[0]), (2, 1));
        assert_eq!(del(&delta, 4, &[0]), (0, 0));
        assert!(delta.pending_inserts() == 0);
        let a = delta.adjust(0, 10, None);
        assert_eq!(a.insert_count, 0);
        assert_eq!(a.tombstone_count, 1);
        let view = rowid_view(&delta, 0, 10, None);
        assert!(view.extra.is_empty(), "pending rows died");
        assert!(view.hidden.contains(&0));
        assert!(consistent(&delta, &[(4, 0)]));
    }

    #[test]
    fn targeted_row_delete_kills_exactly_one_row() {
        let delta = PendingDelta::new();
        ins(&delta, 4, 10);
        ins(&delta, 4, 11);
        // Kill the pending row 11 only.
        assert_eq!(delta.apply_delete(4, Some(11), &[], || true), Some((1, 0)));
        assert_eq!(delta.pending_inserts(), 1);
        let view = rowid_view(&delta, 0, 10, None);
        assert_eq!(view.extra, vec![10]);
        // Tombstone main row 3 among the key's main rows; repeating is a
        // no-op, and the untargeted main row 5 and pending row 10 survive.
        assert_eq!(
            delta.apply_delete(4, Some(3), &[3, 5], || true),
            Some((0, 1))
        );
        assert_eq!(
            delta.apply_delete(4, Some(3), &[3, 5], || true),
            Some((0, 0))
        );
        assert_eq!(delta.tombstoned_rows(), 1);
        assert_eq!(delta.pending_inserts(), 1);
        // A failed validation changes nothing.
        assert_eq!(delta.apply_delete(4, Some(9), &[9], || false), None);
        assert_eq!(delta.tombstoned_rows(), 1);
        assert!(consistent(&delta, &[(4, 3), (4, 5)]));
    }

    #[test]
    fn drain_takes_everything_atomically() {
        let delta = PendingDelta::new();
        ins(&delta, 1, 20);
        ins(&delta, 1, 21);
        ins(&delta, 9, 22);
        del(&delta, 5, &[7, 8]);
        let drained = delta.drain();
        assert!(!drained.is_empty());
        assert_eq!(drained.pending_inserts, 3);
        assert_eq!(drained.tombstoned_rows, 2);
        assert_eq!(drained.inserts, vec![(1, 20), (1, 21), (9, 22)]);
        assert_eq!(drained.doomed, HashSet::from([7, 8]));
        assert!(delta.is_empty(), "the delta is empty after a drain");
        assert!(delta.drain().is_empty());
        assert!(consistent(&delta, &[]));
    }

    #[test]
    fn tombstone_rows_in_respects_piece_bounds() {
        let delta = PendingDelta::new();
        del(&delta, 5, &[50]);
        del(&delta, 10, &[60, 61]);
        del(&delta, 20, &[70, 71, 72]);
        assert_eq!(delta.tombstone_rows_in(None, None).len(), 3);
        let mid = delta.tombstone_rows_in(Some(10), Some(20));
        assert_eq!(mid.len(), 1);
        assert_eq!(mid.get(&10), Some(&vec![60, 61]));
        assert_eq!(delta.tombstone_rows_in(Some(6), None).len(), 2);
        assert_eq!(delta.tombstone_rows_in(None, Some(10)).len(), 1);
    }

    #[test]
    fn retire_tombstones_drops_reclaimed_rows() {
        let delta = PendingDelta::new();
        del(&delta, 7, &[1, 2, 3]);
        del(&delta, 8, &[4]);
        assert_eq!(delta.retire_tombstones(&[(7, 1), (7, 3), (99, 5)]), 2);
        assert_eq!(delta.tombstoned_rows(), 2);
        assert_eq!(delta.adjust(7, 8, None).tombstone_count, 1);
        let view = rowid_view(&delta, 0, 10, None);
        assert!(view.hidden.contains(&2), "unretired tombstone still hides");
        assert!(!view.hidden.contains(&1), "retired rows are gone from main");
        // Retiring an already-retired row is a no-op.
        assert_eq!(delta.retire_tombstones(&[(7, 1)]), 0);
        assert_eq!(delta.retire_tombstones(&[(7, 2)]), 1);
        assert_eq!(delta.adjust(7, 8, None).tombstone_count, 0);
        assert!(consistent(&delta, &[(8, 4)]));
    }

    #[test]
    fn apply_delete_refuses_on_failed_validation() {
        let delta = PendingDelta::new();
        ins(&delta, 3, 30);
        assert_eq!(delta.apply_delete(3, None, &[0], || false), None);
        assert_eq!(delta.pending_inserts(), 1, "nothing changed");
        assert_eq!(delta.apply_delete(3, None, &[0], || true), Some((1, 1)));
        assert_eq!(delta.pending_inserts(), 0);
    }

    #[test]
    fn insert_after_delete_of_same_value_survives() {
        let delta = PendingDelta::new();
        del(&delta, 9, &[5]);
        ins(&delta, 9, 90);
        let a = delta.adjust(9, 10, None);
        assert_eq!(a.insert_count, 1);
        assert_eq!(a.tombstone_count, 1);
        // The new row is visible, the doomed main row hidden.
        let view = rowid_view(&delta, 9, 10, None);
        assert_eq!(view.extra, vec![90]);
        assert!(view.hidden.contains(&5));
        assert!(consistent(&delta, &[(9, 5)]));
    }

    // ----- epochs, snapshots, and physical reconciliation -------------------

    #[test]
    fn epochs_advance_with_every_write() {
        let delta = PendingDelta::new();
        assert_eq!(delta.current_epoch(), 0);
        ins(&delta, 5, 1);
        assert_eq!(delta.current_epoch(), 1);
        del(&delta, 5, &[]);
        assert_eq!(delta.current_epoch(), 2);
        ins(&delta, 6, 2);
        assert_eq!(delta.current_epoch(), 3);
    }

    #[test]
    fn snapshot_sees_only_writes_at_or_before_its_epoch() {
        let delta = PendingDelta::new();
        ins(&delta, 5, 1);
        let epoch = delta.register_snapshot();
        ins(&delta, 5, 2);
        ins(&delta, 7, 3);
        // Current view: three pending rows.
        assert_eq!(delta.adjust(0, 10, None).insert_count, 3);
        // Snapshot view: only the pre-snapshot insert.
        let at = delta.adjust(0, 10, Some(epoch));
        assert_eq!(at.insert_count, 1);
        assert_eq!(at.insert_sum, 5);
        let view = rowid_view(&delta, 0, 10, Some(epoch));
        assert_eq!(view.extra, vec![1], "only the pre-snapshot row");
        delta.release_snapshot(epoch);
        assert_eq!(delta.live_snapshots(), 0);
    }

    #[test]
    fn snapshot_ignores_later_deletes_of_earlier_inserts() {
        let delta = PendingDelta::new();
        ins(&delta, 4, 1);
        ins(&delta, 4, 2);
        let epoch = delta.register_snapshot();
        del(&delta, 4, &[9]); // negates the pending rows + tombstones main
        assert_eq!(delta.adjust(0, 10, None).insert_count, 0);
        assert_eq!(delta.adjust(0, 10, None).tombstone_count, 1);
        // The snapshot still sees both pending rows and no tombstone.
        let at = delta.adjust(0, 10, Some(epoch));
        assert_eq!(at.insert_count, 2);
        assert_eq!(at.tombstone_count, 0);
        let view = rowid_view(&delta, 0, 10, Some(epoch));
        let mut extra = view.extra;
        extra.sort_unstable();
        assert_eq!(extra, vec![1, 2]);
        assert!(!view.hidden.contains(&9), "delete is after the snapshot");
        delta.release_snapshot(epoch);
    }

    #[test]
    fn retired_tombstones_compensate_older_snapshots() {
        let delta = PendingDelta::new();
        let before = delta.register_snapshot();
        del(&delta, 7, &[1, 2]);
        let after = delta.register_snapshot();
        // Physically reclaim both rows (as a piece shrink would).
        assert_eq!(delta.retire_tombstones(&[(7, 1), (7, 2)]), 2);
        assert_eq!(delta.tombstoned_rows(), 0);
        // The pre-delete snapshot must count the two removed rows as
        // ghosts; the post-delete snapshot must not.
        let at = delta.adjust(0, 10, Some(before));
        assert_eq!(at.insert_count, 2, "ghost rows restored");
        assert_eq!(at.insert_sum, 14);
        let view = rowid_view(&delta, 0, 10, Some(before));
        let mut extra = view.extra;
        extra.sort_unstable();
        assert_eq!(extra, vec![1, 2], "ghost rowids restored");
        let at = delta.adjust(0, 10, Some(after));
        assert_eq!(at.insert_count, 0);
        assert_eq!(at.tombstone_count, 0);
        assert!(rowid_view(&delta, 0, 10, Some(after)).extra.is_empty());
        delta.release_snapshot(before);
        delta.release_snapshot(after);
    }

    #[test]
    fn taken_inserts_compensate_older_snapshots() {
        let delta = PendingDelta::new();
        let before = delta.register_snapshot();
        ins(&delta, 5, 1);
        ins(&delta, 5, 2);
        ins(&delta, 9, 3);
        // Incremental compaction moves the value-5 rows into main.
        let taken = delta.take_inserts_in(Some(0), Some(6), 10);
        assert_eq!(taken, vec![(5, 1), (5, 2)]);
        assert_eq!(delta.pending_inserts(), 1);
        // Current view: one pending row (9). A pre-insert snapshot must
        // subtract the two physically placed rows it never saw.
        assert_eq!(delta.adjust(0, 10, None).insert_count, 1);
        let at = delta.adjust(0, 10, Some(before));
        assert_eq!(at.insert_count, 0);
        assert_eq!(at.tombstone_count, 2, "merged rows suppressed");
        assert_eq!(at.tombstone_sum, 10);
        // And the rowid view hides the physically placed rows.
        let view = rowid_view(&delta, 0, 10, Some(before));
        assert!(view.hidden.contains(&1));
        assert!(view.hidden.contains(&2));
        assert!(view.extra.is_empty());
        delta.release_snapshot(before);
    }

    #[test]
    fn take_inserts_respects_bounds_and_budget() {
        let delta = PendingDelta::new();
        for (i, v) in [1, 3, 3, 5, 8].into_iter().enumerate() {
            ins(&delta, v, i as RowId);
        }
        assert_eq!(
            delta.take_inserts_in(Some(2), Some(6), 2),
            vec![(3, 1), (3, 2)]
        );
        assert_eq!(delta.take_inserts_in(Some(2), Some(6), 10), vec![(5, 3)]);
        assert_eq!(delta.take_inserts_in(None, Some(2), 10), vec![(1, 0)]);
        assert_eq!(delta.take_inserts_in(Some(6), None, 0), Vec::new());
        assert_eq!(delta.pending_inserts(), 1, "8 remains");
        assert!(consistent(&delta, &[(3, 1), (3, 2), (5, 3), (1, 0)]));
    }

    #[test]
    fn drain_keeps_pre_drain_snapshots_answerable() {
        let delta = PendingDelta::new();
        ins(&delta, 5, 1);
        let epoch = delta.register_snapshot();
        ins(&delta, 5, 2);
        del(&delta, 7, &[9]);
        // Full compaction drains everything into the main array.
        let drained = delta.drain();
        assert_eq!(drained.pending_inserts, 2);
        assert_eq!(drained.tombstoned_rows, 1);
        assert!(delta.is_empty());
        // After the rebuild, main holds both 5s and no 7. The snapshot
        // (epoch between the two inserts, before the delete) must net:
        // one 5 fewer than main, one 7 more.
        let at = delta.adjust(0, 10, Some(epoch));
        assert_eq!(at.insert_count, 1, "the ghost 7");
        assert_eq!(at.insert_sum, 7);
        assert_eq!(at.tombstone_count, 1, "the unseen second 5");
        assert_eq!(at.tombstone_sum, 5);
        // Rowid view: row 2 (placed after the snapshot) hidden, ghost 9
        // restored; row 1 is just a main row now (placed before the
        // snapshot — no entry needed).
        let view = rowid_view(&delta, 0, 10, Some(epoch));
        assert!(view.hidden.contains(&2));
        assert!(!view.hidden.contains(&1));
        assert_eq!(view.extra, vec![9]);
        delta.release_snapshot(epoch);
    }

    #[test]
    fn history_is_collapsed_without_live_snapshots() {
        let delta = PendingDelta::new();
        for i in 0..100 {
            ins(&delta, 5, i);
        }
        assert_eq!(delta.pending_inserts(), 100);
        assert_eq!(delta.history_len(), 0, "no snapshots: state, no history");
        // With a snapshot live, history stays answerable; releasing GCs.
        let epoch = delta.register_snapshot();
        for i in 100..110 {
            ins(&delta, 5, i);
        }
        assert_eq!(delta.adjust(0, 10, Some(epoch)).insert_count, 100);
        // Placing everything leaves exactly the ten post-snapshot rows on
        // record: the snapshot must keep hiding them in the main array.
        assert_eq!(delta.take_inserts_in(None, None, 200).len(), 110);
        assert_eq!(delta.history_len(), 10);
        assert_eq!(delta.adjust(0, 10, Some(epoch)).tombstone_count, 10);
        delta.release_snapshot(epoch);
        assert_eq!(delta.history_len(), 0);
    }

    #[test]
    fn release_gc_respects_the_oldest_live_snapshot() {
        let delta = PendingDelta::new();
        ins(&delta, 5, 1);
        let old = delta.register_snapshot();
        ins(&delta, 5, 2);
        let young = delta.register_snapshot();
        ins(&delta, 5, 3);
        delta.release_snapshot(young);
        // The old snapshot still distinguishes write 1 from writes 2-3.
        assert_eq!(delta.adjust(0, 10, Some(old)).insert_count, 1);
        assert_eq!(delta.adjust(0, 10, None).insert_count, 3);
        delta.release_snapshot(old);
        assert_eq!(delta.adjust(0, 10, None).insert_count, 3);
    }

    #[test]
    fn stacked_snapshots_at_the_same_epoch_refcount() {
        let delta = PendingDelta::new();
        ins(&delta, 1, 1);
        let a = delta.register_snapshot();
        let b = delta.register_snapshot();
        assert_eq!(a, b);
        assert_eq!(delta.live_snapshots(), 2);
        delta.release_snapshot(a);
        assert_eq!(delta.live_snapshots(), 1);
        ins(&delta, 1, 2);
        assert_eq!(delta.adjust(0, 10, Some(b)).insert_count, 1);
        delta.release_snapshot(b);
        assert_eq!(delta.live_snapshots(), 0);
    }

    // ----- bounded history under a pinned snapshot --------------------------

    #[test]
    fn hot_key_churn_under_a_live_snapshot_keeps_history_bounded() {
        // A long-lived snapshot pins epoch e; a hot key then churns
        // (insert + delete) thousands of times. Every dead pending row's
        // visibility window misses e — so the retained history must stay
        // O(1), not O(writes).
        let delta = PendingDelta::new();
        ins(&delta, 42, 0);
        let epoch = delta.register_snapshot();
        for i in 1..2000u32 {
            ins(&delta, 42, i);
            del(&delta, 42, &[]);
        }
        let history = delta.history_len();
        assert!(
            history <= 8,
            "hot-key churn must stay bounded under a live snapshot, got {history}"
        );
        // The snapshot still answers exactly: one pending row (rowid 0).
        assert_eq!(delta.adjust(0, 100, Some(epoch)).insert_count, 1);
        assert_eq!(rowid_view(&delta, 0, 100, Some(epoch)).extra, vec![0]);
        // Current view: the last churn iteration's delete killed all.
        assert_eq!(delta.adjust(0, 100, None).insert_count, 0);
        delta.release_snapshot(epoch);
        assert!(consistent(&delta, &[]));
    }

    #[test]
    fn churn_with_retirement_keeps_the_compensation_ledger_bounded() {
        // Physical-reconciliation pressure: tombstone + retire in a loop
        // while a snapshot is pinned. The retired records are *real*
        // state here (the pinned snapshot must still see each removed
        // row), so exactly one record per removed row may remain — and
        // nothing more.
        let delta = PendingDelta::new();
        let epoch = delta.register_snapshot();
        for i in 0..1000u32 {
            del(&delta, 7, &[i]);
            assert_eq!(delta.retire_tombstones(&[(7, i)]), 1);
        }
        let history = delta.history_len();
        assert!(
            history <= 1000 + 4,
            "one record per removed row, got {history}"
        );
        // The snapshot predates every delete: the removed rows were main
        // rows at its epoch, so both folds restore all 1000.
        assert_eq!(delta.adjust(0, 100, Some(epoch)).insert_count, 1000);
        assert_eq!(rowid_view(&delta, 0, 100, Some(epoch)).extra.len(), 1000);
        delta.release_snapshot(epoch);
        assert_eq!(delta.history_len(), 0, "release drops everything");
        assert!(consistent(&delta, &[]));
    }

    #[test]
    fn ghost_rows_visible_to_a_pinned_snapshot_survive_compression() {
        let delta = PendingDelta::new();
        let epoch = delta.register_snapshot();
        // Rows 1..=3 existed at the snapshot; delete + retire them after.
        del(&delta, 7, &[1, 2, 3]);
        assert_eq!(delta.retire_tombstones(&[(7, 1), (7, 2), (7, 3)]), 3);
        let view = rowid_view(&delta, 0, 10, Some(epoch));
        let mut extra = view.extra;
        extra.sort_unstable();
        assert_eq!(extra, vec![1, 2, 3], "ghosts the snapshot must still see");
        delta.release_snapshot(epoch);
        // With the snapshot gone the ghosts are garbage.
        assert_eq!(delta.history_len(), 0);
    }

    // ----- the delta against a naive model ---------------------------------

    /// One row of the naive model: every row ever written keeps its
    /// lifetime and whether it physically sits in the main array.
    #[derive(Debug, Clone, Copy)]
    struct ModelRow {
        value: i64,
        rowid: RowId,
        born: u64,
        died: u64,
        in_main: bool,
    }

    impl ModelRow {
        fn visible(&self, at: Option<u64>) -> bool {
            match at {
                None => self.died == ALIVE,
                Some(epoch) => self.born <= epoch && epoch < self.died,
            }
        }

        fn pending(&self) -> bool {
            !self.in_main && self.died == ALIVE
        }

        fn tombstoned(&self) -> bool {
            self.in_main && self.died != ALIVE
        }
    }

    /// Key domain of the model: values `0..KEYS`, two base rows each.
    const KEYS: i64 = 4;

    /// The naive model: rows in arrival order (never forgotten), the epoch
    /// counter, and the registered snapshot epochs with repeats.
    #[derive(Debug)]
    struct Model {
        rows: Vec<ModelRow>,
        epoch: u64,
        live: Vec<u64>,
    }

    impl Model {
        fn new() -> Self {
            let base = (0..2 * KEYS).map(|i| ModelRow {
                value: i / 2,
                rowid: i as RowId,
                born: 0,
                died: ALIVE,
                in_main: true,
            });
            Model {
                rows: base.collect(),
                epoch: 0,
                live: Vec::new(),
            }
        }

        /// The `pick`-selected subset of the main-array rows carrying `value`.
        fn main_rowids(&self, value: i64, pick: usize) -> Vec<RowId> {
            let of_value = self.rows.iter().filter(|r| r.in_main && r.value == value);
            let chosen = of_value
                .enumerate()
                .filter(|(i, _)| pick >> (i % 16) & 1 == 1);
            chosen.map(|(_, r)| r.rowid).collect()
        }

        /// Rows selected by `keep`, ascending by value, arrival order within.
        fn pairs(&self, keep: impl Fn(&ModelRow) -> bool) -> Vec<(i64, RowId)> {
            let mut pairs: Vec<_> = self.rows.iter().filter(|r| keep(r)).collect();
            pairs.sort_by_key(|r| r.value);
            pairs.iter().map(|r| (r.value, r.rowid)).collect()
        }
    }

    fn in_piece(value: i64, low: Option<i64>, high: Option<i64>) -> bool {
        low.is_none_or(|lo| value >= lo) && high.is_none_or(|hi| value < hi)
    }

    fn assert_agrees(delta: &PendingDelta, model: &Model) {
        assert_eq!(delta.current_epoch(), model.epoch);
        assert_eq!(delta.live_snapshots(), model.live.len());
        let main = model.pairs(|r| r.in_main);
        assert!(consistent(delta, &main), "check_invariants");
        if model.live.is_empty() {
            assert_eq!(delta.history_len(), 0, "history without a live snapshot");
        }
        let pending = model.pairs(ModelRow::pending);
        let tombstoned = model.pairs(ModelRow::tombstoned);
        assert_eq!(
            delta.counters(),
            (pending.len() as u64, tombstoned.len() as u64)
        );
        assert_eq!(delta.has_tombstones(), !tombstoned.is_empty());
        let mut counts: BTreeMap<i64, u64> = BTreeMap::new();
        for (value, _) in pending.iter().chain(&tombstoned) {
            *counts.entry(*value).or_default() += 1;
        }
        assert_eq!(delta.value_counts(), counts.into_iter().collect::<Vec<_>>());
        let reads = std::iter::once(None).chain(model.live.iter().copied().map(Some));
        let reads: Vec<Option<u64>> = reads.collect();
        for low in -1..=KEYS {
            for high in low..=KEYS + 1 {
                let (lo, hi) = ((low >= 0).then_some(low), (high <= KEYS).then_some(high));
                let in_range = |r: &ModelRow| in_piece(r.value, lo, hi);
                let now = model.pairs(|r| in_range(r) && (r.pending() || r.tombstoned()));
                assert_eq!(delta.rows_in(lo, hi), now.len() as u64, "rows_in");
                let mut doomed: BTreeMap<i64, Vec<RowId>> = BTreeMap::new();
                for (value, rowid) in model.pairs(|r| in_range(r) && r.tombstoned()) {
                    doomed.entry(value).or_default().push(rowid);
                }
                let mut listed = delta.tombstone_rows_in(lo, hi);
                listed.values_mut().for_each(|ids| ids.sort_unstable());
                doomed.values_mut().for_each(|ids| ids.sort_unstable());
                assert_eq!(listed, doomed, "tombstone_rows_in");
                for &at in &reads {
                    let in_range = |r: &ModelRow| r.value >= low && r.value < high;
                    let mut extra = model.pairs(|r| in_range(r) && !r.in_main && r.visible(at));
                    let hidden = model.pairs(|r| in_range(r) && r.in_main && !r.visible(at));
                    // Within a value the view lists records in the order
                    // they were *recorded*, which readers never rely on.
                    let mut view = delta.pair_view(low, high, at);
                    view.extra.sort_unstable();
                    extra.sort_unstable();
                    assert_eq!(view.extra, extra, "extra of [{low}, {high}) at {at:?}");
                    let hidden_ids: HashSet<RowId> = hidden.iter().map(|p| p.1).collect();
                    assert_eq!(
                        view.hidden, hidden_ids,
                        "hidden of [{low}, {high}) at {at:?}"
                    );
                    let sum = |pairs: &[(i64, RowId)]| pairs.iter().map(|p| p.0 as i128).sum();
                    let adjust = DeltaAdjust {
                        insert_count: extra.len() as u64,
                        insert_sum: sum(&extra),
                        tombstone_count: hidden.len() as u64,
                        tombstone_sum: sum(&hidden),
                    };
                    assert_eq!(delta.adjust(low, high, at), adjust, "adjust at {at:?}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every write the cracker issues against the delta, in random
        /// order, against the naive model: inserts, deletes by value and
        /// by row id over arbitrary subsets of the key's main rows (with
        /// and without a passing validation), tombstone retirement,
        /// bounded placement, drains, and snapshot registration and
        /// release including stacked epochs. After every step both read
        /// folds — now and at every live epoch, over every key interval —
        /// and every derived count must equal the model's.
        #[test]
        fn delta_agrees_with_a_row_lifetime_model(
            ops in prop::collection::vec((0u8..10, 0i64..KEYS, 0usize..1 << 16), 1..48),
        ) {
            let delta = PendingDelta::new();
            let mut model = Model::new();
            assert_agrees(&delta, &model);
            for &(kind, value, pick) in &ops {
                match kind {
                    0 | 1 => {
                        let rowid = model.rows.len() as RowId;
                        model.epoch += 1;
                        model.rows.push(ModelRow {
                            value,
                            rowid,
                            born: model.epoch,
                            died: ALIVE,
                            in_main: false,
                        });
                        let total = delta.insert_row(value, rowid);
                        let (pending, tombstoned) = delta.counters();
                        prop_assert_eq!(total, pending + tombstoned);
                    }
                    2 | 3 => {
                        // By value, or by the row id of any row ever written
                        // (dead and retired ones included).
                        let target = model.rows[pick % model.rows.len()];
                        let (value, only) = match kind {
                            2 => (value, None),
                            _ => (target.value, Some(target.rowid)),
                        };
                        let main = model.main_rowids(value, pick >> 4);
                        if pick % 7 == 0 {
                            prop_assert_eq!(delta.apply_delete(value, only, &main, || false), None);
                        } else {
                            model.epoch += 1;
                            let (mut from_pending, mut newly) = (0, 0);
                            for row in model.rows.iter_mut().filter(|r| r.value == value) {
                                let doomed = only.is_none_or(|o| o == row.rowid)
                                    && row.died == ALIVE
                                    && (!row.in_main || main.contains(&row.rowid));
                                if doomed {
                                    row.died = model.epoch;
                                    *(if row.in_main { &mut newly } else { &mut from_pending }) += 1;
                                }
                            }
                            let applied = delta.apply_delete(value, only, &main, || true);
                            prop_assert_eq!(applied, Some((from_pending, newly)));
                        }
                    }
                    4 | 5 => {
                        // A sweep names some main rows; only the tombstoned
                        // ones among them retire.
                        let mut removed = Vec::new();
                        let mut retired = 0;
                        for (i, row) in model.rows.iter_mut().enumerate() {
                            if row.in_main && pick >> (i % 16) & 1 == 1 {
                                removed.push((row.value, row.rowid));
                                if row.tombstoned() {
                                    row.in_main = false;
                                    retired += 1;
                                }
                            }
                        }
                        prop_assert_eq!(delta.retire_tombstones(&removed), retired);
                    }
                    6 => {
                        let (low, high) = (value, value + 1 + (pick % 3) as i64);
                        let (lo, hi) = ((pick & 8 == 0).then_some(low), (pick & 16 == 0).then_some(high));
                        let budget = (pick >> 5) % 4;
                        let mut taken = model.pairs(|r| r.pending() && in_piece(r.value, lo, hi));
                        taken.truncate(budget);
                        for row in model.rows.iter_mut() {
                            row.in_main |= taken.contains(&(row.value, row.rowid));
                        }
                        prop_assert_eq!(delta.take_inserts_in(lo, hi, budget as u64), taken);
                    }
                    7 => {
                        let drained = delta.drain();
                        prop_assert_eq!(&drained.inserts, &model.pairs(ModelRow::pending));
                        let doomed = model.pairs(ModelRow::tombstoned);
                        prop_assert_eq!(&drained.doomed, &doomed.iter().map(|p| p.1).collect());
                        prop_assert_eq!(drained.pending_inserts, drained.inserts.len() as u64);
                        prop_assert_eq!(drained.tombstoned_rows, drained.doomed.len() as u64);
                        for row in model.rows.iter_mut() {
                            row.in_main = (row.in_main || row.pending()) && !row.tombstoned();
                        }
                    }
                    8 => {
                        prop_assert_eq!(delta.register_snapshot(), model.epoch);
                        model.live.push(model.epoch);
                    }
                    _ => {
                        if !model.live.is_empty() {
                            delta.release_snapshot(model.live.swap_remove(pick % model.live.len()));
                        }
                    }
                }
                assert_agrees(&delta, &model);
            }
        }
    }
}
