//! The pending-update side structure for concurrent adaptive indexes.
//!
//! Section 4 of the paper extends the latch protocols from read-only
//! queries to workloads that *mutate* the indexed column: updates are
//! collected in a pending side structure and reconciled with the adaptive
//! index as queries touch the affected key ranges. [`PendingDelta`]
//! implements that side structure for the cracker family:
//!
//! * **Inserts** accumulate as a `value → multiplicity` map, each inserted
//!   row carrying the **row id** its table assigned (tuple identity, kept
//!   through every later physical move). The cracker array is allocated
//!   once and never grows (that fixed footprint is what makes the
//!   piece-latch `unsafe` contract of
//!   [`SharedCrackerArray`](crate::SharedCrackerArray) sound), so pending
//!   inserts stay in the delta and every query folds the qualifying ones
//!   into its answer with an `O(log n + k)` range probe.
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
//! # Epoch stamps and snapshot reads
//!
//! Every write is stamped with a monotonically increasing **column
//! epoch**. A reader that wants a frozen view registers a snapshot at the
//! current epoch `e` and asks the delta for the adjustment *as of* `e`
//! ([`PendingDelta::adjust`] with `at = Some(e)`): stamps with epoch `> e` are
//! invisible.
//! Because the main array is reconciled physically over time (piece
//! shrinking reclaims tombstoned rows, incremental compaction merges
//! pending inserts into holes, full compaction rebuilds the array), the
//! delta also keeps a **compensation ledger**: whenever stamped rows move
//! between the delta domain and the main array, the moved stamps land in
//! the ledger — tombstone stamps positively (the row is physically gone
//! but was logically alive before its delete epoch), insert stamps negated
//! (the row is physically in main but logically absent before its insert
//! epoch). A snapshot at epoch `e` folds ledger entries with epoch `> e`
//! on top of `main@now`, which restores exactly `main@e + delta≤e`:
//!
//! ```text
//! answer(e) = main@now + stamps(≤ e) + compensation(> e)
//! ```
//!
//! Current-epoch readers skip both stamp histories and the ledger
//! entirely (net counters answer them), so the read-only fast path is
//! unchanged. Ledger entries and stamp histories are garbage-collected as
//! snapshots retire, and **compressed while snapshots are live**: two
//! stamps with no live snapshot epoch between them are indistinguishable
//! to every reader that can ever ask (snapshot epochs only move forward),
//! so they merge into one on arrival. A long-lived snapshot over a hot
//! key therefore keeps O(live snapshots) history per value instead of
//! O(writes).
//!
//! # The row ledger
//!
//! Counts answer Q1/Q2; *row id* reads (multi-column selection via rowid
//! intersection) need to know which tuples qualify. Alongside the count
//! stamps the delta keeps a per-value row ledger:
//!
//! * **pending rows** — inserted rows not yet physically placed, with
//!   `born` (insert epoch) and `died` (delete epoch, or alive),
//! * **tombstone rows** — main-array rows logically deleted but still
//!   physically present, with their delete epoch,
//! * **ghost rows** — rows physically removed from the main array that a
//!   pre-delete snapshot must still see,
//! * **placed rows** — rows physically merged into the main array that a
//!   pre-insert snapshot must *not* see.
//!
//! [`PendingDelta::pair_view`] folds the ledger into a `(hidden main rows,
//! extra rows)` pair a main-array scan combines with. Entries invisible to every live snapshot are dropped
//! eagerly, so the row ledger obeys the same boundedness as the stamps.
//!
//! The logical content of the index is therefore always
//! `main multiset + pending inserts − tombstones`, and since the main
//! multiset changes only through epoch-guarded reclamations, a query needs
//! one consistent snapshot of the delta (a single short mutex) plus the
//! shrink-epoch validation to be linearizable.

use aidx_latch::dcheck;
use aidx_latch::facade::{Mutex, MutexGuard};
use aidx_storage::RowId;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Aggregate adjustments the delta contributes to one range query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaAdjust {
    /// Pending inserted rows with values in the queried range.
    pub insert_count: u64,
    /// Sum of the pending inserted values in the queried range.
    pub insert_sum: i128,
    /// Tombstoned (logically deleted) main-array rows in the range.
    pub tombstone_count: u64,
    /// Sum of the tombstoned values in the range.
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
    /// (alive at the read epoch) and — for snapshot reads — ghost rows
    /// physically reclaimed after the snapshot epoch. Keyed because the
    /// delta's BTreeMaps index by value — no main-array probe needed.
    pub extra: Vec<(i64, RowId)>,
}

/// Sentinel for "row still alive" in the row ledger.
const ALIVE: u64 = u64::MAX;

/// One epoch-stamped adjustment to a value's multiplicity. Insert stamps
/// are signed (a delete negates the pending rows it found); tombstone
/// stamps are always positive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stamp {
    epoch: u64,
    count: i64,
}

/// A pending inserted row: born at its insert epoch, dead once a delete
/// negates it ([`ALIVE`] until then).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingRow {
    rowid: RowId,
    born: u64,
    died: u64,
}

/// A logically deleted main-array row, still physically present.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TombRow {
    rowid: RowId,
    epoch: u64,
}

/// A row physically removed from the main array (swept or dropped by a
/// rebuild): visible exactly to snapshots with `born <= e < died`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GhostRow {
    rowid: RowId,
    born: u64,
    died: u64,
}

/// A row physically merged into the main array: a snapshot with
/// `e < born` must not see it even though the scan finds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlacedRow {
    rowid: RowId,
    born: u64,
}

/// Per-value stamped multiplicity: the net *current* count plus the epoch
/// history that lets snapshots reconstruct earlier prefixes. With no live
/// snapshot the history is collapsed to a single stamp; with live
/// snapshots, stamps in the same inter-snapshot gap merge on arrival.
#[derive(Debug, Default)]
struct StampCell {
    /// Current visible count (sum of all stamps; never negative).
    net: u64,
    /// Epoch history, ascending by epoch (epochs are assigned under the
    /// delta lock, so append order is epoch order).
    stamps: Vec<Stamp>,
}

impl StampCell {
    /// Sum of the stamps visible at snapshot epoch `epoch` (may be
    /// negative mid-history; the caller's main-array term compensates).
    fn prefix(&self, epoch: u64) -> i128 {
        self.stamps
            .iter()
            .take_while(|s| s.epoch <= epoch)
            .map(|s| s.count as i128)
            .sum()
    }

    /// Collapses the whole history into one stamp at `epoch` (correct
    /// whenever no live snapshot predates `epoch`).
    fn collapse(&mut self, epoch: u64) {
        self.stamps.clear();
        if self.net > 0 {
            self.stamps.push(Stamp {
                epoch,
                count: self.net as i64,
            });
        }
    }

    /// Pushes a stamp, merging it into the previous one when no live
    /// snapshot epoch separates them (snapshot-bounded compression: no
    /// reader that can ever exist distinguishes the two, because snapshot
    /// epochs only move forward).
    fn push(&mut self, stamp: Stamp, live: &BTreeMap<u64, usize>) {
        if let Some(last) = self.stamps.last_mut() {
            if live.range(last.epoch..stamp.epoch).next().is_none() {
                last.count += stamp.count;
                last.epoch = stamp.epoch;
                if last.count == 0 {
                    self.stamps.pop();
                }
                return;
            }
        }
        self.stamps.push(stamp);
    }
}

#[derive(Debug, Default)]
struct DeltaState {
    /// Epoch of the most recent stamped write (0 = nothing written yet).
    epoch: u64,
    /// value → stamped pending-insert multiplicity.
    inserts: BTreeMap<i64, StampCell>,
    /// value → stamped tombstone multiplicity. The net never exceeds the
    /// value's multiplicity in the main array (enforced by the delete
    /// path), and all stamps are positive.
    tombstones: BTreeMap<i64, StampCell>,
    /// The compensation ledger: stamps whose rows were physically
    /// reconciled with the main array. Positive entries are retired
    /// tombstones (ghost rows a pre-delete snapshot must still count),
    /// negative entries are merged-in inserts (rows a pre-insert snapshot
    /// must not count). An entry at epoch `t` affects only snapshots with
    /// epoch `< t`.
    compensation: BTreeMap<i64, Vec<Stamp>>,
    /// value → pending inserted rows (the row ledger twin of `inserts`;
    /// alive rows are the net, dead rows linger only while a live
    /// snapshot can see them).
    pending_rows: BTreeMap<i64, Vec<PendingRow>>,
    /// value → tombstoned main-array row ids (the row ledger twin of
    /// `tombstones`; exactly `net` entries per value).
    tomb_rows: BTreeMap<i64, Vec<TombRow>>,
    /// value → ghost rows (physically reclaimed; row-level compensation).
    ghost_rows: BTreeMap<i64, Vec<GhostRow>>,
    /// value → placed rows (physically merged; row-level compensation).
    placed_rows: BTreeMap<i64, Vec<PlacedRow>>,
    /// Net current pending inserted rows (sum of insert-cell nets).
    pending_inserts: u64,
    /// Net current tombstoned rows (sum of tombstone-cell nets).
    tombstoned_rows: u64,
    /// snapshot epoch → number of live snapshot handles registered at it.
    live_snapshots: BTreeMap<u64, usize>,
}

impl DeltaState {
    /// Smallest live snapshot epoch, if any snapshot is registered.
    fn min_live_snapshot(&self) -> Option<u64> {
        self.live_snapshots.keys().next().copied()
    }

    /// True when at least one snapshot handle is live (cells must keep
    /// their stamp histories and reconciliations must write the ledger).
    fn snapshots_live(&self) -> bool {
        !self.live_snapshots.is_empty()
    }

    /// True when some live snapshot can see a row alive on `[born, died)`.
    fn row_relevant(&self, born: u64, died: u64) -> bool {
        self.live_snapshots.range(born..died).next().is_some()
    }

    /// True when some live snapshot predates `born` (a placed row must
    /// stay hidden from it).
    fn placed_relevant(&self, born: u64) -> bool {
        self.live_snapshots.range(..born).next().is_some()
    }

    /// Removes the placed-ledger entry for a row (it is about to become a
    /// ghost, which carries the born epoch itself). Returns the born
    /// epoch (0 when the row was a base row).
    fn take_placed(&mut self, value: i64, rowid: RowId) -> u64 {
        if let Some(rows) = self.placed_rows.get_mut(&value) {
            if let Some(pos) = rows.iter().position(|p| p.rowid == rowid) {
                let born = rows.swap_remove(pos).born;
                if rows.is_empty() {
                    self.placed_rows.remove(&value);
                }
                return born;
            }
        }
        0
    }

    /// Records a ghost row if any live snapshot can still see it.
    fn add_ghost(&mut self, value: i64, rowid: RowId, born: u64, died: u64) {
        if self.row_relevant(born, died) {
            self.ghost_rows
                .entry(value)
                .or_default()
                .push(GhostRow { rowid, born, died });
        }
    }

    /// Garbage-collects history no live snapshot can observe: ledger
    /// entries at epochs `<=` the oldest live snapshot, stamp prefixes the
    /// oldest live snapshot already sees in full, row-ledger entries whose
    /// visibility window contains no live snapshot epoch, and empty cells.
    fn gc(&mut self) {
        match self.min_live_snapshot() {
            None => {
                self.compensation.clear();
                self.ghost_rows.clear();
                self.placed_rows.clear();
                let epoch = self.epoch;
                self.inserts.retain(|_, cell| {
                    cell.collapse(epoch);
                    cell.net > 0
                });
                self.tombstones.retain(|_, cell| {
                    cell.collapse(epoch);
                    cell.net > 0
                });
                self.pending_rows.retain(|_, rows| {
                    rows.retain(|r| r.died == ALIVE);
                    !rows.is_empty()
                });
            }
            Some(min_live) => {
                self.compensation.retain(|_, stamps| {
                    stamps.retain(|s| s.epoch > min_live);
                    !stamps.is_empty()
                });
                for cells in [&mut self.inserts, &mut self.tombstones] {
                    cells.retain(|_, cell| {
                        // Merge the prefix every live snapshot sees in full
                        // into one stamp (at the prefix's own last epoch).
                        let split = cell
                            .stamps
                            .iter()
                            .take_while(|s| s.epoch <= min_live)
                            .count();
                        if split > 1 {
                            let merged: i128 =
                                cell.stamps[..split].iter().map(|s| s.count as i128).sum();
                            let epoch = cell.stamps[split - 1].epoch;
                            cell.stamps.drain(..split - 1);
                            cell.stamps[0] = Stamp {
                                epoch,
                                count: merged as i64,
                            };
                            if cell.stamps[0].count == 0 {
                                cell.stamps.remove(0);
                            }
                        }
                        cell.net > 0 || !cell.stamps.is_empty()
                    });
                }
                let live = std::mem::take(&mut self.live_snapshots);
                self.pending_rows.retain(|_, rows| {
                    rows.retain(|r| r.died == ALIVE || live.range(r.born..r.died).next().is_some());
                    !rows.is_empty()
                });
                self.ghost_rows.retain(|_, rows| {
                    rows.retain(|r| live.range(r.born..r.died).next().is_some());
                    !rows.is_empty()
                });
                self.placed_rows.retain(|_, rows| {
                    rows.retain(|r| live.range(..r.born).next().is_some());
                    !rows.is_empty()
                });
                self.live_snapshots = live;
            }
        }
    }

    /// Moves `mass` rows of stamp weight out of `cell` (oldest positive
    /// stamps first) and records each moved piece in the compensation
    /// ledger for `value` with the given `sign` — `+1` for retired
    /// tombstones, `-1` for merged-in inserts. Skipped entirely when no
    /// snapshot is live (`record` false). Adjacent ledger entries with no
    /// live snapshot epoch between them merge (snapshot-bounded
    /// compression).
    fn reconcile_mass(
        compensation: &mut BTreeMap<i64, Vec<Stamp>>,
        live_snapshots: &BTreeMap<u64, usize>,
        cell: &mut StampCell,
        value: i64,
        mut mass: u64,
        sign: i64,
        record: bool,
    ) {
        let mut idx = 0;
        while mass > 0 && idx < cell.stamps.len() {
            if cell.stamps[idx].count <= 0 {
                idx += 1;
                continue;
            }
            let take = (cell.stamps[idx].count as u64).min(mass);
            cell.stamps[idx].count -= take as i64;
            mass -= take;
            if record {
                let entry = compensation.entry(value).or_default();
                // Ledger entries for one value arrive in epoch order too
                // (mass moves oldest-first), but a later reconciliation
                // may move an older stamp than a previous one recorded —
                // keep the vec sorted by epoch for deterministic folds.
                let stamp = Stamp {
                    epoch: cell.stamps[idx].epoch,
                    count: sign * take as i64,
                };
                match entry.iter().rposition(|s| s.epoch <= stamp.epoch) {
                    Some(p) if entry[p].epoch == stamp.epoch => entry[p].count += stamp.count,
                    Some(p)
                        if live_snapshots
                            .range(entry[p].epoch..stamp.epoch)
                            .next()
                            .is_none() =>
                    {
                        // No live snapshot separates the entries: merge
                        // (an entry at `t` affects epochs `< t`, and no
                        // askable epoch falls between the two).
                        entry[p].count += stamp.count;
                        entry[p].epoch = stamp.epoch;
                    }
                    Some(p) => entry.insert(p + 1, stamp),
                    None => entry.insert(0, stamp),
                }
                entry.retain(|s| s.count != 0);
                if entry.is_empty() {
                    compensation.remove(&value);
                }
            }
            if cell.stamps[idx].count == 0 {
                cell.stamps.remove(idx);
            } else {
                idx += 1;
            }
        }
        debug_assert_eq!(mass, 0, "stamp mass covers every reconciled row");
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

    /// The epoch of the most recent stamped write (the epoch a snapshot
    /// registered *now* would read at).
    pub fn current_epoch(&self) -> u64 {
        self.lock_state().epoch
    }

    /// Registers a snapshot at the current epoch and returns that epoch.
    /// While registered, reconciliations keep enough history for
    /// [`PendingDelta::adjust`] at the epoch to stay answerable; every
    /// registration must be paired with a
    /// [`PendingDelta::release_snapshot`].
    pub fn register_snapshot(&self) -> u64 {
        let mut state = self.lock_state();
        let epoch = state.epoch;
        *state.live_snapshots.entry(epoch).or_insert(0) += 1;
        epoch
    }

    /// Releases one snapshot registration at `epoch` and garbage-collects
    /// whatever history no remaining snapshot can observe.
    pub fn release_snapshot(&self, epoch: u64) {
        let mut state = self.lock_state();
        match state.live_snapshots.get_mut(&epoch) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                state.live_snapshots.remove(&epoch);
            }
            None => debug_assert!(false, "released an unregistered snapshot epoch"),
        }
        state.gc();
    }

    /// Number of live snapshot registrations (diagnostics/tests).
    pub fn live_snapshots(&self) -> usize {
        self.lock_state().live_snapshots.values().sum()
    }

    /// Total retained history entries — count stamps, compensation
    /// entries, dead pending rows, ghosts, and placed rows (alive pending
    /// rows and live tombstones are real state, not history). With the
    /// snapshot-bounded compression this stays O(values × live snapshots)
    /// no matter how hot a key churns under a pinned snapshot.
    pub fn history_len(&self) -> usize {
        let state = self.lock_state();
        let stamps: usize = state
            .inserts
            .values()
            .chain(state.tombstones.values())
            .map(|c| c.stamps.len())
            .sum();
        let comp: usize = state.compensation.values().map(Vec::len).sum();
        let dead: usize = state
            .pending_rows
            .values()
            .map(|rows| rows.iter().filter(|r| r.died != ALIVE).count())
            .sum();
        let ghosts: usize = state.ghost_rows.values().map(Vec::len).sum();
        let placed: usize = state.placed_rows.values().map(Vec::len).sum();
        stamps + comp + dead + ghosts + placed
    }

    /// Records one pending inserted row `(value, rowid)`, returning the
    /// delta's total row count (pending inserts plus tombstones) after the
    /// insert — the caller's compaction trigger can use it without a
    /// second lock acquisition.
    pub fn insert_row(&self, value: i64, rowid: RowId) -> u64 {
        let mut state = self.lock_state();
        state.epoch += 1;
        let epoch = state.epoch;
        let snapshots_live = state.snapshots_live();
        let live = std::mem::take(&mut state.live_snapshots);
        let cell = state.inserts.entry(value).or_default();
        cell.net += 1;
        cell.push(Stamp { epoch, count: 1 }, &live);
        if !snapshots_live {
            cell.collapse(epoch);
        }
        state.live_snapshots = live;
        state
            .pending_rows
            .entry(value)
            .or_default()
            .push(PendingRow {
                rowid,
                born: epoch,
                died: ALIVE,
            });
        state.pending_inserts += 1;
        state.pending_inserts + state.tombstoned_rows
    }

    /// Applies one delete against key `value` to the delta in a single
    /// atomic step, or nothing at all. `only` is the delete's target:
    /// `None` dooms every row carrying the key, `Some(rowid)` exactly that
    /// row (the positional delete a table engine issues against every
    /// column of a doomed tuple). The doomed alive pending rows are negated
    /// and the doomed rows among `main_rowids` — the live main-array rows
    /// the caller collected for the target under its latch protocol — are
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
        let epoch = state.epoch;
        let from_pending = Self::kill_pending_locked(&mut state, value, only, epoch);

        // Tombstone exactly the main rows not already tombstoned.
        let already: HashSet<RowId> = state
            .tomb_rows
            .get(&value)
            .map(|rows| rows.iter().map(|t| t.rowid).collect())
            .unwrap_or_default();
        let fresh: Vec<RowId> = main_rowids
            .iter()
            .copied()
            .filter(|r| only.is_none_or(|o| o == *r) && !already.contains(r))
            .collect();
        let newly = fresh.len() as u64;
        Self::raise_tombstones_locked(&mut state, value, &fresh, epoch);
        self.tombstoned_hint
            .store(state.tombstoned_rows, Ordering::Release);
        Some((from_pending, newly))
    }

    /// Negates alive pending rows of `value` at `epoch`: all of them, or
    /// just the one with `rowid`. Returns how many died.
    fn kill_pending_locked(
        state: &mut DeltaState,
        value: i64,
        rowid: Option<RowId>,
        epoch: u64,
    ) -> u64 {
        let snapshots_live = state.snapshots_live();
        let live = std::mem::take(&mut state.live_snapshots);
        let mut killed = 0u64;
        if let Some(rows) = state.pending_rows.get_mut(&value) {
            for row in rows.iter_mut() {
                if row.died == ALIVE && rowid.is_none_or(|r| r == row.rowid) {
                    row.died = epoch;
                    killed += 1;
                }
            }
            rows.retain(|r| r.died == ALIVE || live.range(r.born..r.died).next().is_some());
            if rows.is_empty() {
                state.pending_rows.remove(&value);
            }
        }
        if killed > 0 {
            let cell = state
                .inserts
                .get_mut(&value)
                .expect("alive pending rows imply an insert cell");
            cell.net -= killed;
            cell.push(
                Stamp {
                    epoch,
                    count: -(killed as i64),
                },
                &live,
            );
            if !snapshots_live {
                cell.collapse(epoch);
            }
            if cell.net == 0 && cell.stamps.is_empty() {
                state.inserts.remove(&value);
            }
            state.pending_inserts -= killed;
        }
        state.live_snapshots = live;
        killed
    }

    /// Raises tombstones for `fresh` (not-yet-tombstoned) main rows of
    /// `value` at `epoch`, updating the count cell and the row ledger.
    fn raise_tombstones_locked(state: &mut DeltaState, value: i64, fresh: &[RowId], epoch: u64) {
        let snapshots_live = state.snapshots_live();
        if fresh.is_empty() {
            // Keep the "remove empty husk" behaviour of the old path.
            if state
                .tombstones
                .get(&value)
                .is_some_and(|cell| cell.net == 0 && cell.stamps.is_empty())
            {
                state.tombstones.remove(&value);
            }
            return;
        }
        let live = std::mem::take(&mut state.live_snapshots);
        let cell = state.tombstones.entry(value).or_default();
        cell.net += fresh.len() as u64;
        cell.push(
            Stamp {
                epoch,
                count: fresh.len() as i64,
            },
            &live,
        );
        if !snapshots_live {
            cell.collapse(epoch);
        }
        state.live_snapshots = live;
        let rows = state.tomb_rows.entry(value).or_default();
        rows.extend(fresh.iter().map(|&rowid| TombRow { rowid, epoch }));
        state.tombstoned_rows += fresh.len() as u64;
    }

    /// Takes the delta's entire *current* contents in one atomic step,
    /// leaving it logically empty. Compaction calls this while holding the
    /// index's quiesce gate, folds the result into the rebuilt main array,
    /// and any insert that lands after the drain simply waits for the next
    /// compaction. If snapshots are live, every drained stamp moves into
    /// the compensation ledger (inserts negated, tombstones positive) and
    /// every drained row into the placed/ghost row ledgers, so pre-drain
    /// snapshots stay answerable against the rebuilt array.
    pub fn drain(&self) -> DrainedDelta {
        let mut state = self.lock_state();
        let record = state.snapshots_live();
        let inserts = std::mem::take(&mut state.inserts);
        let tombstones = std::mem::take(&mut state.tombstones);
        let pending_rows = std::mem::take(&mut state.pending_rows);
        let tomb_rows = std::mem::take(&mut state.tomb_rows);
        let mut drained = DrainedDelta {
            pending_inserts: state.pending_inserts,
            tombstoned_rows: state.tombstoned_rows,
            ..DrainedDelta::default()
        };
        for (value, mut cell) in inserts {
            if record {
                let net = cell.net;
                let live = std::mem::take(&mut state.live_snapshots);
                DeltaState::reconcile_mass(
                    &mut state.compensation,
                    &live,
                    &mut cell,
                    value,
                    net,
                    -1,
                    true,
                );
                // Residual stamp history (negated pending rows a delete
                // already consumed) still matters to old snapshots: move
                // it wholesale, negated.
                let entry = state.compensation.entry(value).or_default();
                for stamp in cell.stamps {
                    if stamp.count != 0 {
                        entry.push(Stamp {
                            epoch: stamp.epoch,
                            count: -stamp.count,
                        });
                    }
                }
                entry.sort_by_key(|s| s.epoch);
                if entry.is_empty() {
                    state.compensation.remove(&value);
                }
                state.live_snapshots = live;
            }
        }
        for (value, rows) in pending_rows {
            for row in rows {
                if row.died == ALIVE {
                    drained.inserts.push((value, row.rowid));
                    if record && state.placed_relevant(row.born) {
                        state.placed_rows.entry(value).or_default().push(PlacedRow {
                            rowid: row.rowid,
                            born: row.born,
                        });
                    }
                }
                // Dead pending rows never reach main, but a snapshot whose
                // epoch falls inside their visibility window must still
                // see them in rowid reads: keep them as ghosts.
                else if record {
                    state.add_ghost(value, row.rowid, row.born, row.died);
                }
            }
        }
        for (value, mut cell) in tombstones {
            if record {
                let net = cell.net;
                let live = std::mem::take(&mut state.live_snapshots);
                DeltaState::reconcile_mass(
                    &mut state.compensation,
                    &live,
                    &mut cell,
                    value,
                    net,
                    1,
                    true,
                );
                state.live_snapshots = live;
            }
        }
        for (value, rows) in tomb_rows {
            for row in rows {
                drained.doomed.insert(row.rowid);
                if record {
                    let born = state.take_placed(value, row.rowid);
                    state.add_ghost(value, row.rowid, born, row.epoch);
                }
            }
        }
        state.pending_inserts = 0;
        state.tombstoned_rows = 0;
        state.gc();
        self.tombstoned_hint.store(0, Ordering::Release);
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
        range_iter(&state.tomb_rows, low, high)
            .filter(|(_, rows)| !rows.is_empty())
            .map(|(&v, rows)| (v, rows.iter().map(|t| t.rowid).collect()))
            .collect()
    }

    /// Retires tombstones whose rows were physically removed from the
    /// main array: every `(value, rowid)` pair in `removed` drops out of
    /// the tombstone row ledger and its count stamp moves into the
    /// compensation ledger (positively) while snapshots are live, with a
    /// matching ghost row so a snapshot that predates the delete still
    /// *sees* the physically removed row. Returns the number of rows
    /// retired.
    pub fn retire_tombstones(&self, removed: &[(i64, RowId)]) -> u64 {
        let mut state = self.lock_state();
        let record = state.snapshots_live();
        let mut retired = 0u64;
        // Group per value so each value's row vector is drained in one
        // pass: a sweep that reclaims k duplicates of one hot key costs
        // O(k), not O(k²) under the delta lock.
        let mut by_value: BTreeMap<i64, HashSet<RowId>> = BTreeMap::new();
        for &(value, rowid) in removed {
            by_value.entry(value).or_default().insert(rowid);
        }
        for (value, ids) in by_value {
            let Some(mut rows) = state.tomb_rows.remove(&value) else {
                continue;
            };
            let mut kept = Vec::with_capacity(rows.len());
            let mut hit = Vec::new();
            for row in rows.drain(..) {
                if ids.contains(&row.rowid) {
                    hit.push(row);
                } else {
                    kept.push(row);
                }
            }
            if !kept.is_empty() {
                state.tomb_rows.insert(value, kept);
            }
            if hit.is_empty() {
                continue;
            }
            let Some(mut cell) = state.tombstones.remove(&value) else {
                debug_assert!(false, "tomb rows without a count cell");
                continue;
            };
            let live = std::mem::take(&mut state.live_snapshots);
            DeltaState::reconcile_mass(
                &mut state.compensation,
                &live,
                &mut cell,
                value,
                hit.len() as u64,
                1,
                record,
            );
            state.live_snapshots = live;
            cell.net -= hit.len() as u64;
            retired += hit.len() as u64;
            if cell.net > 0 || (record && !cell.stamps.is_empty()) {
                state.tombstones.insert(value, cell);
            }
            if record {
                for row in hit {
                    let born = state.take_placed(value, row.rowid);
                    state.add_ghost(value, row.rowid, born, row.epoch);
                }
            }
        }
        state.tombstoned_rows -= retired;
        self.tombstoned_hint
            .store(state.tombstoned_rows, Ordering::Release);
        retired
    }

    /// Takes up to `max_rows` currently-pending inserted rows whose values
    /// fall in the piece key interval `[low, high)` (bounds as in
    /// [`PendingDelta::tombstone_rows_in`]) out of the delta, for physical
    /// placement into that piece's holes by incremental compaction.
    /// Returns the taken `(value, rowid)` pairs. The taken stamps move
    /// into the compensation ledger negated — and the rows into the
    /// placed ledger — while snapshots are live, so a snapshot that
    /// predates an insert does not double-count its row once it sits in
    /// the main array.
    pub fn take_inserts_in(
        &self,
        low: Option<i64>,
        high: Option<i64>,
        max_rows: u64,
    ) -> Vec<(i64, RowId)> {
        if max_rows == 0 {
            return Vec::new();
        }
        let mut state = self.lock_state();
        let record = state.snapshots_live();
        let mut budget = max_rows;
        let mut taken = Vec::new();
        let candidates: Vec<i64> = range_iter(&state.pending_rows, low, high)
            .filter(|(_, rows)| rows.iter().any(|r| r.died == ALIVE))
            .map(|(&v, _)| v)
            .collect();
        for value in candidates {
            if budget == 0 {
                break;
            }
            let Some(mut rows) = state.pending_rows.remove(&value) else {
                continue;
            };
            let mut moved = 0u64;
            let mut kept = Vec::with_capacity(rows.len());
            for row in rows.drain(..) {
                if row.died == ALIVE && moved < budget {
                    moved += 1;
                    taken.push((value, row.rowid));
                    if record && state.placed_relevant(row.born) {
                        state.placed_rows.entry(value).or_default().push(PlacedRow {
                            rowid: row.rowid,
                            born: row.born,
                        });
                    }
                } else {
                    kept.push(row);
                }
            }
            if !kept.is_empty() {
                state.pending_rows.insert(value, kept);
            }
            if moved > 0 {
                let Some(mut cell) = state.inserts.remove(&value) else {
                    debug_assert!(false, "alive pending rows without a count cell");
                    continue;
                };
                let live = std::mem::take(&mut state.live_snapshots);
                DeltaState::reconcile_mass(
                    &mut state.compensation,
                    &live,
                    &mut cell,
                    value,
                    moved,
                    -1,
                    record,
                );
                state.live_snapshots = live;
                cell.net -= moved;
                budget -= moved;
                state.pending_inserts -= moved;
                if cell.net > 0 || (record && !cell.stamps.is_empty()) {
                    state.inserts.insert(value, cell);
                }
            }
        }
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
        let mut counts: BTreeMap<i64, u64> = BTreeMap::new();
        for (&v, cell) in &state.inserts {
            if cell.net > 0 {
                *counts.entry(v).or_insert(0) += cell.net;
            }
        }
        for (&v, cell) in &state.tombstones {
            if cell.net > 0 {
                *counts.entry(v).or_insert(0) += cell.net;
            }
        }
        counts.into_iter().collect()
    }

    /// Current delta rows (pending inserts plus tombstones) whose values
    /// fall inside the piece key interval `[low, high)` (bounds as in
    /// [`PendingDelta::tombstone_rows_in`]). The incremental compactor
    /// uses this to decide whether a piece is fully reconciled before
    /// advancing its watermark.
    pub fn rows_in(&self, low: Option<i64>, high: Option<i64>) -> u64 {
        let state = self.lock_state();
        let pending: u64 = range_iter(&state.inserts, low, high)
            .map(|(_, cell)| cell.net)
            .sum();
        let tombstoned: u64 = range_iter(&state.tombstones, low, high)
            .map(|(_, cell)| cell.net)
            .sum();
        pending + tombstoned
    }

    /// One consistent snapshot of the delta's contribution to an aggregate
    /// over `[low, high)` — the *current* contribution when `at` is `None`
    /// (net counters answer it; stamp histories and the ledger are never
    /// touched), or the contribution *as of* snapshot epoch `at`: stamps
    /// newer than the epoch are invisible, and compensation-ledger entries
    /// newer than the epoch are folded back in (restoring rows the
    /// physical array has since reconciled). The per-value snapshot net is
    /// signed; positive nets land on the insert side of the returned
    /// [`DeltaAdjust`] and negative nets on the tombstone side, so callers
    /// combine it exactly like a current-epoch adjustment.
    pub fn adjust(&self, low: i64, high: i64, at: Option<u64>) -> DeltaAdjust {
        if low >= high {
            return DeltaAdjust::default();
        }
        let state = self.lock_state();
        let mut adjust = DeltaAdjust::default();
        let Some(epoch) = at else {
            for (&v, cell) in state.inserts.range(low..high) {
                adjust.insert_count += cell.net;
                adjust.insert_sum += v as i128 * cell.net as i128;
            }
            for (&v, cell) in state.tombstones.range(low..high) {
                adjust.tombstone_count += cell.net;
                adjust.tombstone_sum += v as i128 * cell.net as i128;
            }
            return adjust;
        };
        let mut per_value: BTreeMap<i64, i128> = BTreeMap::new();
        for (&v, cell) in state.inserts.range(low..high) {
            *per_value.entry(v).or_insert(0) += cell.prefix(epoch);
        }
        for (&v, cell) in state.tombstones.range(low..high) {
            *per_value.entry(v).or_insert(0) -= cell.prefix(epoch);
        }
        for (&v, stamps) in state.compensation.range(low..high) {
            let late: i128 = stamps
                .iter()
                .filter(|s| s.epoch > epoch)
                .map(|s| s.count as i128)
                .sum();
            *per_value.entry(v).or_insert(0) += late;
        }
        for (v, net) in per_value {
            if net >= 0 {
                adjust.insert_count += net as u64;
                adjust.insert_sum += v as i128 * net;
            } else {
                adjust.tombstone_count += (-net) as u64;
                adjust.tombstone_sum += v as i128 * -net;
            }
        }
        adjust
    }

    /// The delta's contribution to a row-carrying read over `[low, high)`,
    /// one consistent snapshot under a single lock acquisition. With `at`
    /// `None` (current epoch): tombstoned main rows are hidden, alive
    /// pending rows added. As of snapshot epoch `at` (which must be
    /// registered): main rows tombstoned at or before the epoch — or
    /// placed after it — are hidden; pending rows alive at the epoch and
    /// ghost rows whose visibility window contains it are added.
    pub fn pair_view(&self, low: i64, high: i64, at: Option<u64>) -> PairView {
        if low >= high {
            return PairView::default();
        }
        let state = self.lock_state();
        let mut view = PairView::default();
        let visible = |born: u64, died: u64| match at {
            None => died == ALIVE,
            Some(epoch) => born <= epoch && epoch < died,
        };
        for (_, rows) in state.tomb_rows.range(low..high) {
            view.hidden.extend(
                rows.iter()
                    .filter(|t| at.is_none_or(|epoch| t.epoch <= epoch))
                    .map(|t| t.rowid),
            );
        }
        for (&value, rows) in state.pending_rows.range(low..high) {
            view.extra.extend(
                rows.iter()
                    .filter(|r| visible(r.born, r.died))
                    .map(|r| (value, r.rowid)),
            );
        }
        if let Some(epoch) = at {
            for (_, rows) in state.placed_rows.range(low..high) {
                view.hidden
                    .extend(rows.iter().filter(|p| p.born > epoch).map(|p| p.rowid));
            }
            for (&value, rows) in state.ghost_rows.range(low..high) {
                view.extra.extend(
                    rows.iter()
                        .filter(|g| visible(g.born, g.died))
                        .map(|g| (value, g.rowid)),
                );
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

    /// Debug-only consistency check: count cells and the row ledger agree
    /// (alive pending rows == insert nets, tomb rows == tombstone nets).
    /// Only meaningful in quiescence.
    pub fn check_ledger_invariants(&self) -> bool {
        let state = self.lock_state();
        let alive: u64 = state
            .pending_rows
            .values()
            .map(|rows| rows.iter().filter(|r| r.died == ALIVE).count() as u64)
            .sum();
        if alive != state.pending_inserts {
            return false;
        }
        let tombs: u64 = state.tomb_rows.values().map(|rows| rows.len() as u64).sum();
        if tombs != state.tombstoned_rows {
            return false;
        }
        for (v, cell) in &state.inserts {
            let rows = state
                .pending_rows
                .get(v)
                .map(|rows| rows.iter().filter(|r| r.died == ALIVE).count() as u64)
                .unwrap_or(0);
            if rows != cell.net {
                return false;
            }
        }
        for (v, cell) in &state.tombstones {
            let rows = state.tomb_rows.get(v).map(|r| r.len() as u64).unwrap_or(0);
            if rows != cell.net {
                return false;
            }
        }
        true
    }
}

/// Range iterator over a per-value map with optional piece bounds.
fn range_iter<'a, T>(
    map: &'a BTreeMap<i64, T>,
    low: Option<i64>,
    high: Option<i64>,
) -> Box<dyn Iterator<Item = (&'a i64, &'a T)> + 'a> {
    match (low, high) {
        (None, None) => Box::new(map.range(..)),
        (Some(lo), None) => Box::new(map.range(lo..)),
        (None, Some(hi)) => Box::new(map.range(..hi)),
        (Some(lo), Some(hi)) => Box::new(map.range(lo..hi)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(delta.check_ledger_invariants());
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
        assert!(delta.check_ledger_invariants());
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
        assert!(delta.check_ledger_invariants());
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
        assert!(delta.check_ledger_invariants());
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
        assert!(delta.check_ledger_invariants());
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
        assert!(delta.check_ledger_invariants());
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
        assert!(delta.check_ledger_invariants());
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
        assert!(delta.check_ledger_invariants());
    }

    // ----- epochs, snapshots, and the compensation ledger ------------------

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
        assert!(delta.check_ledger_invariants());
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
        {
            let state = delta.state.lock();
            let cell = state.inserts.get(&5).unwrap();
            assert_eq!(cell.net, 100);
            assert_eq!(cell.stamps.len(), 1, "no snapshots: one stamp suffices");
            assert!(state.compensation.is_empty());
        }
        // With a snapshot live, history stays answerable; releasing GCs.
        let epoch = delta.register_snapshot();
        for i in 100..110 {
            ins(&delta, 5, i);
        }
        assert_eq!(delta.adjust(0, 10, Some(epoch)).insert_count, 100);
        delta.release_snapshot(epoch);
        assert_eq!(delta.state.lock().inserts.get(&5).unwrap().stamps.len(), 1);
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

    // ----- snapshot-bounded ledger compression -----------------------------

    #[test]
    fn hot_key_churn_under_a_live_snapshot_keeps_history_bounded() {
        // A long-lived snapshot pins epoch e; a hot key then churns
        // (insert + delete) thousands of times. Every post-snapshot stamp
        // pair falls in the same inter-snapshot gap and merges on arrival,
        // and every dead pending row's visibility window misses e — so
        // the retained history must stay O(1), not O(writes).
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
        assert!(delta.check_ledger_invariants());
    }

    #[test]
    fn churn_with_retirement_keeps_the_compensation_ledger_bounded() {
        // Physical-reconciliation pressure: tombstone + retire in a loop
        // while a snapshot is pinned. Every retirement lands a
        // compensation stamp, and all of them fall in the same
        // inter-snapshot gap — they must merge into O(1) count entries.
        // The per-row ghosts are *real* state here (the pinned snapshot
        // must still see each removed row in rowid reads), so exactly
        // one ghost per removed row may remain — and nothing more.
        let delta = PendingDelta::new();
        let epoch = delta.register_snapshot();
        for i in 0..1000u32 {
            del(&delta, 7, &[i]);
            assert_eq!(delta.retire_tombstones(&[(7, i)]), 1);
        }
        let history = delta.history_len();
        assert!(
            history <= 1000 + 4,
            "count-side ledger must merge to O(1) entries, got {history}"
        );
        // The snapshot predates every delete: the removed rows were main
        // rows at its epoch, so the count compensation restores all 1000
        // and the ghosts restore their rowids.
        assert_eq!(delta.adjust(0, 100, Some(epoch)).insert_count, 1000);
        assert_eq!(rowid_view(&delta, 0, 100, Some(epoch)).extra.len(), 1000);
        delta.release_snapshot(epoch);
        assert_eq!(delta.history_len(), 0, "release drops everything");
        assert!(delta.check_ledger_invariants());
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
}
