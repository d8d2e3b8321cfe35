//! Re-partition support for [`ConcurrentCracker`]: handing rows and cracks
//! between range partitions.

use super::*;

impl ConcurrentCracker {
    /// Builds a concurrent cracker from rows plus an existing crack
    /// structure: ascending `(crack value, position)` boundaries, exactly
    /// the shape [`ConcurrentCracker::split_off`] returns — the receiving
    /// half of a repartition split, where the donor's refinement work
    /// survives the handoff instead of being rediscovered query by query.
    pub fn from_rows_with_cracks(
        values: Vec<i64>,
        rowids: Vec<RowId>,
        cracks: &[(i64, usize)],
        protocol: LatchProtocol,
    ) -> Self {
        let idx = Self::from_rows(values, rowids, protocol);
        idx.dir.install(idx.data.len(), cracks.iter().copied(), 0);
        idx
    }

    /// The crack boundary nearest the middle of the main array — the split
    /// key a repartition hands off at, chosen so the handoff itself needs
    /// no cracking. Returns `None` when the index has no interior crack
    /// (single piece, or every boundary at position 0 / len). Advisory:
    /// positions include dead hole tails and ignore delta rows, which is
    /// fine for load balancing.
    pub fn median_crack_key(&self) -> Option<i64> {
        let len = self.data.len();
        if len < 2 {
            return None;
        }
        let mid = len / 2;
        let mut best: Option<(usize, i64)> = None;
        for (piece, _) in self.dir.live_pieces() {
            let Some(hv) = piece.high_value else { continue };
            if piece.end == 0 || piece.end >= len {
                continue;
            }
            let dist = piece.end.abs_diff(mid);
            if best.is_none_or(|(d, _)| dist < d) {
                best = Some((dist, hv));
            }
        }
        best.map(|(_, key)| key)
    }

    /// Physically extracts every row with value `>= at` — plus the crack
    /// structure above `at` — out of this index, reconciling the pending
    /// delta first so the handoff carries no side state. `at == i64::MIN`
    /// extracts everything (the merge-away path). The index quiesces for
    /// the duration, committing as one system transaction; the caller
    /// must guarantee no epoch-pinned snapshot is live, because rows
    /// physically leave the column. Returns `(values, rowids, cracks)`
    /// with crack positions relative to the extracted vectors — ready for
    /// [`ConcurrentCracker::from_rows_with_cracks`] or
    /// [`ConcurrentCracker::absorb_upper`].
    pub fn split_off(&self, at: i64) -> (Vec<i64>, Vec<RowId>, Vec<(i64, usize)>) {
        let quiesce = self.dir.quiesce();
        debug_assert_eq!(self.live_snapshots(), 0, "split_off with a live snapshot");
        let column_guard = (self.protocol == LatchProtocol::Column)
            .then(|| self.column_latch.acquire_write(i64::MIN));
        let mut txn = self.systxn.begin(1);
        let drained = self.delta.drain();
        let pieces = self.dir.live_pieces();
        let mut inserts = drained.inserts.iter().copied().peekable();
        let (mut kept_values, mut kept_rowids) = (Vec::new(), Vec::<RowId>::new());
        let mut kept_cracks: Vec<(i64, usize)> = Vec::new();
        let (mut moved_values, mut moved_rowids) = (Vec::new(), Vec::<RowId>::new());
        let mut moved_cracks: Vec<(i64, usize)> = Vec::new();
        for &(piece, live_end) in &pieces {
            for (v, rid) in self.data.pairs_in_range(piece.start, live_end) {
                if drained.doomed.contains(&rid) {
                    continue;
                }
                if v >= at {
                    moved_values.push(v);
                    moved_rowids.push(rid);
                } else {
                    kept_values.push(v);
                    kept_rowids.push(rid);
                }
            }
            while let Some(&(v, rid)) = inserts.peek() {
                if piece.high_value.is_none_or(|hv| v < hv) {
                    if v >= at {
                        moved_values.push(v);
                        moved_rowids.push(rid);
                    } else {
                        kept_values.push(v);
                        kept_rowids.push(rid);
                    }
                    inserts.next();
                } else {
                    break;
                }
            }
            if let Some(hv) = piece.high_value {
                match hv.cmp(&at) {
                    std::cmp::Ordering::Less => kept_cracks.push((hv, kept_values.len())),
                    // The crack *at* the split key becomes the partition
                    // boundary itself.
                    std::cmp::Ordering::Equal => {}
                    std::cmp::Ordering::Greater => moved_cracks.push((hv, moved_values.len())),
                }
            }
        }
        debug_assert!(inserts.peek().is_none(), "every pending insert placed");
        let kept_len = kept_values.len();
        self.data.replace(kept_values, kept_rowids);
        self.dir
            .install(kept_len, kept_cracks, self.delta.current_epoch());
        txn.complete_step();
        txn.commit();
        drop(column_guard);
        drop(quiesce);
        (moved_values, moved_rowids, moved_cracks)
    }

    /// Absorbs rows handed off by the neighbouring partition directly
    /// above: every absorbed value must be `>= boundary` and every value
    /// already here `< boundary`. Reconciles the local delta, appends the
    /// absorbed rows with their crack structure intact (positions relative
    /// to the absorbed vectors), and records `boundary` itself as a crack
    /// — the receiving half of a repartition merge, after which this index
    /// covers both key ranges. Quiesces; the caller must guarantee no live
    /// epoch-pinned snapshot.
    pub fn absorb_upper(
        &self,
        values: Vec<i64>,
        rowids: Vec<RowId>,
        cracks: &[(i64, usize)],
        boundary: i64,
    ) {
        debug_assert!(values.iter().all(|&v| v >= boundary));
        let quiesce = self.dir.quiesce();
        debug_assert_eq!(self.live_snapshots(), 0, "absorb with a live snapshot");
        let column_guard = (self.protocol == LatchProtocol::Column)
            .then(|| self.column_latch.acquire_write(i64::MIN));
        let mut txn = self.systxn.begin(1);
        self.rebuild_from_delta();
        let (mut all_values, mut all_rowids) = self.data.snapshot();
        let base_len = all_values.len();
        let pieces = self.dir.live_pieces();
        let mut all_cracks: Vec<(i64, usize)> = pieces
            .iter()
            .filter_map(|(p, _)| p.high_value.map(|hv| (hv, p.end)))
            .collect();
        if base_len > 0 && !values.is_empty() {
            all_cracks.push((boundary, base_len));
        }
        for &(v, pos) in cracks {
            all_cracks.push((v, base_len + pos));
        }
        let max_rid = rowids.iter().copied().max();
        all_values.extend_from_slice(&values);
        all_rowids.extend_from_slice(&rowids);
        let new_len = all_values.len();
        self.data.replace(all_values, all_rowids);
        self.dir
            .install(new_len, all_cracks, self.delta.current_epoch());
        if let Some(m) = max_rid {
            self.next_rowid.fetch_max(m as u64 + 1, Ordering::Relaxed);
        }
        txn.complete_step();
        txn.commit();
        drop(column_guard);
        drop(quiesce);
    }
}
