//! Delta compaction for [`ConcurrentCracker`]: the policy trigger, the
//! incremental piece-at-a-time walk, and the quiescing rebuild.

use super::*;

impl ConcurrentCracker {
    /// Forces a compaction now (regardless of policy): rebuilds the main
    /// array from `live main + pending inserts − tombstones` under full
    /// quiescence. Returns true if a rebuild happened (false when there
    /// was nothing to reclaim). Ordinary operation goes through the policy
    /// trigger instead; this entry point serves tests and administrative
    /// maintenance.
    ///
    /// With the compaction policy *disabled*, ordinary operations do not
    /// register with the quiesce gate (see
    /// [`ConcurrentCracker::enter_if_compactable`]), so a forced
    /// compaction then requires the caller to guarantee quiescence — no
    /// concurrent operations — exactly like
    /// [`ConcurrentCracker::check_invariants`].
    pub fn compact(&self) -> bool {
        let mut metrics = QueryMetrics::default();
        self.compact_now(&mut metrics, None)
    }

    /// Policy trigger: compact if the delta outgrew the configured
    /// threshold. Called at the end of every write, after the write's own
    /// quiesce-gate guard (if any) is released.
    pub(super) fn maybe_compact(&self, metrics: &mut QueryMetrics) {
        if !self.compaction.is_enabled() {
            return;
        }
        self.maybe_compact_with(self.delta_rows(), metrics);
    }

    /// As [`ConcurrentCracker::maybe_compact`], with the delta row count
    /// already in hand (inserts get it back from the delta update itself,
    /// saving a second delta-lock acquisition per write).
    pub(super) fn maybe_compact_with(&self, delta_rows: u64, metrics: &mut QueryMetrics) {
        if !self.compaction.is_enabled() {
            return;
        }
        if !self.compaction.should_compact(delta_rows, self.data.len()) {
            return;
        }
        match self.compaction.mode {
            CompactionMode::Quiesce => {
                self.compact_now(metrics, Some(self.compaction));
            }
            CompactionMode::Incremental { pieces_per_step } => {
                self.compact_incremental(pieces_per_step, metrics);
            }
        }
    }

    /// The incremental trigger path: walk the pieces (at most one full lap)
    /// merging deltas in place until the delta is back under the
    /// threshold. Only if a whole lap cannot get there — no holes to fill,
    /// e.g. an insert-only stream — does the exclusive quiesce gate
    /// come out for the final fixup: the quiescing rebuild.
    fn compact_incremental(&self, pieces_per_step: usize, metrics: &mut QueryMetrics) {
        let len = self.data.len();
        let policy = self.compaction;
        if len > 0 {
            let mut covered = 0usize;
            while policy.should_compact(self.delta_rows(), len) && covered < len {
                // In-place progress needs either existing holes to fill or
                // tombstones to sweep into new ones; with neither, go
                // straight to the fallback.
                if !self.dir.has_holes() && !self.delta.has_tombstones() {
                    break;
                }
                let span = self.compact_step_with(pieces_per_step, metrics);
                if span == 0 {
                    break;
                }
                covered += span;
            }
        }
        if policy.should_compact(self.delta_rows(), len) {
            self.compact_now(metrics, Some(policy));
        }
    }

    /// Forces one incremental compaction walk step over up to `max_pieces`
    /// pieces, regardless of the trigger policy: each visited piece's
    /// tombstoned rows are swept into its dead tail and its pending
    /// inserts placed into that tail's holes, one piece write latch at a
    /// time — readers never block. Returns the number of rows physically
    /// reconciled (swept plus merged). Ordinary operation goes through the
    /// policy trigger instead; this entry point serves tests, benches, and
    /// administrative maintenance.
    pub fn compact_step(&self, max_pieces: usize) -> u64 {
        let mut metrics = QueryMetrics::default();
        self.compact_step_with(max_pieces, &mut metrics);
        metrics.rows_reclaimed
    }

    /// One bounded walk step: visits up to `max_pieces` pieces starting at
    /// the persistent walk cursor (wrapping at the array end). Holds the
    /// quiesce gate in *shared* mode for the walk — full rebuilds
    /// are excluded, ordinary operations are not. Returns the number of
    /// positions covered (the trigger loop's lap accounting).
    fn compact_step_with(&self, max_pieces: usize, metrics: &mut QueryMetrics) -> usize {
        let len = self.data.len();
        if len == 0 {
            return 0;
        }
        let start = Instant::now();
        let _op = self.dir.enter();
        self.dir.steer_walk(&self.delta.value_counts());
        let step_start = self.dir.walk_cursor() % len;
        let reclaimed_before = metrics.rows_reclaimed;
        let mut covered = 0usize;
        for _ in 0..max_pieces.max(1) {
            let span = self.compact_piece_at(self.dir.walk_cursor() % len, metrics);
            covered += span;
            if covered >= len {
                break;
            }
        }
        self.incremental_steps.fetch_add(1, Ordering::Relaxed);
        metrics.compaction_steps = metrics.compaction_steps.saturating_add(1);
        let step_time = start.elapsed();
        metrics.compaction_time += step_time;
        emit(TraceEvent::CompactionStep {
            piece: step_start as u64,
            rows: metrics.rows_reclaimed.saturating_sub(reclaimed_before),
            ns: u64::try_from(step_time.as_nanos()).unwrap_or(u64::MAX),
        });
        covered
    }

    /// Merges the delta of the piece containing position `cursor` in
    /// place, under write access to that piece, then advances the walk
    /// cursor past it. Returns the piece's span in positions.
    fn compact_piece_at(&self, cursor: usize, metrics: &mut QueryMetrics) -> usize {
        let merge = |piece: &Piece, m: &mut QueryMetrics| {
            self.merge_piece_locked(piece, m);
            *piece
        };
        let always = RefinementPolicy::Always;
        let piece = self
            .write_piece(Target::Position(cursor), always, metrics, merge)
            .done();
        let next = if piece.end >= self.data.len() {
            0
        } else {
            piece.end
        };
        self.dir.set_walk_cursor(next);
        piece.end.saturating_sub(cursor.min(piece.start)).max(1)
    }

    /// The per-piece merge (caller holds the write latch — or exclusive
    /// column access — covering `piece`): sweep the piece's tombstoned
    /// rows into its dead tail, then fill that tail's holes with the
    /// piece's pending inserts; the delta flips each moved row's record so
    /// current readers and snapshots both stay exact. Advances the piece's
    /// `compacted_through` watermark — but only when the merge actually
    /// left nothing of the piece's key range in the delta (a deferred
    /// sweep or an over-full hole budget keeps the old watermark, so
    /// [`ConcurrentCracker::compacted_through`] never overstates).
    fn merge_piece_locked(&self, piece: &Piece, metrics: &mut QueryMetrics) {
        // Watermark candidate first: if the piece's key range ends up
        // fully reconciled, everything stamped up to here is merged (later
        // writes may also be; a lagging watermark is fine, a leading one
        // is not).
        let through = self.delta.current_epoch();
        let traced = aidx_obs::enabled().then(Instant::now);
        let (live_end, swept) = self.shrink_piece_locked(piece);
        let mut merged = 0usize;
        let holes = piece.end - live_end;
        if holes > 0 && self.delta.pending_inserts() > 0 {
            let _serial = self.lock_shrink_serial();
            if self.reclaim_pause.load(Ordering::Acquire) == 0 {
                self.shrink_epoch.fetch_add(1, Ordering::AcqRel); // odd: in flight
                let rows =
                    self.delta
                        .take_inserts_in(piece.low_value, piece.high_value, holes as u64);
                if !rows.is_empty() {
                    merged = rows.len();
                    // Every row keeps the id its insert assigned: physical
                    // placement never renames a tuple.
                    let values: Vec<i64> = rows.iter().map(|&(v, _)| v).collect();
                    let rowids: Vec<RowId> = rows.iter().map(|&(_, r)| r).collect();
                    self.data.write_rows(live_end, &values, &rowids);
                    self.dir.fill_holes(piece.start, merged);
                    self.pending_compacted
                        .fetch_add(merged as u64, Ordering::Relaxed);
                }
                self.shrink_epoch.fetch_add(1, Ordering::AcqRel); // even: done
            }
        }
        // Only a fully reconciled piece advances its watermark: rows of
        // this key range still in the delta (sweep deferred by a paused
        // reader, or more pending inserts than the hole budget could
        // place) mean epochs up to `through` are *not* all merged here.
        if self.delta.rows_in(piece.low_value, piece.high_value) == 0 {
            self.dir.mark_compacted(piece.start, through);
        }
        metrics.rows_reclaimed = metrics
            .rows_reclaimed
            .saturating_add(swept as u64 + merged as u64);
        if let Some(t0) = traced {
            if swept + merged > 0 {
                emit(TraceEvent::DeltaMerge {
                    rows: (swept + merged) as u64,
                    ns: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    rebuild: false,
                });
            }
        }
    }

    /// Quiesces the index and rebuilds the main array. When `recheck` is
    /// set, the trigger condition is re-evaluated under the quiesce guard:
    /// racing writes all observe the same overgrown delta, but only the
    /// first one through the gate pays for the rebuild.
    fn compact_now(&self, metrics: &mut QueryMetrics, recheck: Option<CompactionPolicy>) -> bool {
        let start = Instant::now();
        let quiesce = self.dir.quiesce();
        let delta_rows = self.delta_rows();
        if let Some(policy) = recheck {
            if !policy.should_compact(delta_rows, self.data.len()) {
                return false;
            }
        } else if delta_rows == 0 && !self.dir.has_holes() {
            return false;
        }
        // Column-latch regime: the quiesce is also expressed through the
        // protocol's own latch, so the exclusive window shows up in the
        // column latch statistics like any other structural change.
        let column_guard = (self.protocol == LatchProtocol::Column)
            .then(|| self.column_latch.acquire_write(i64::MIN));
        // The rebuild is one instantly-committing system transaction.
        let mut txn = self.systxn.begin(1);
        let (merged, reclaimed) = self.rebuild_from_delta();
        txn.complete_step();
        txn.commit();
        drop(column_guard);
        drop(quiesce);
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.pending_compacted.fetch_add(merged, Ordering::Relaxed);
        self.tombstones_reclaimed
            .fetch_add(reclaimed, Ordering::Relaxed);
        metrics.compactions_performed += 1;
        let rebuild_time = start.elapsed();
        metrics.compaction_time += rebuild_time;
        emit(TraceEvent::DeltaMerge {
            rows: merged.saturating_add(reclaimed),
            ns: u64::try_from(rebuild_time.as_nanos()).unwrap_or(u64::MAX),
            rebuild: true,
        });
        true
    }

    /// The rebuild pass (caller holds the quiesce guard): drains the
    /// delta, then walks the pieces in position order copying live rows
    /// (skipping dead tails), dropping each piece's tombstoned rows, and
    /// appending each pending insert to the piece whose key interval
    /// contains it — so every existing crack value survives, its position
    /// shifted by the net row movement below it, exactly the boundary
    /// fixup `PieceMap::apply_insert_batch`/`apply_delete` perform for the
    /// single-threaded cracker's delta merge — and the rebuilt structure is
    /// installed with everything stamped so far merged. Returns `(pending
    /// rows merged, tombstoned rows dropped)`.
    pub(super) fn rebuild_from_delta(&self) -> (u64, u64) {
        let drained = self.delta.drain();
        let pieces = self.dir.live_pieces();
        let old_len = self.data.len();
        let new_len = (old_len - self.dir.total_holes() + drained.pending_inserts as usize)
            .saturating_sub(drained.tombstoned_rows as usize);
        let mut inserts = drained.inserts.iter().copied().peekable();
        let mut values = Vec::with_capacity(new_len);
        let mut rowids = Vec::with_capacity(new_len);
        let mut cracks: Vec<(i64, usize)> = Vec::with_capacity(pieces.len().saturating_sub(1));
        for &(piece, live_end) in &pieces {
            for (v, rid) in self.data.pairs_in_range(piece.start, live_end) {
                if drained.doomed.contains(&rid) {
                    continue;
                }
                values.push(v);
                rowids.push(rid);
            }
            while let Some(&(v, rid)) = inserts.peek() {
                if piece.high_value.is_none_or(|hv| v < hv) {
                    values.push(v);
                    rowids.push(rid);
                    inserts.next();
                } else {
                    break;
                }
            }
            if let Some(high_value) = piece.high_value {
                cracks.push((high_value, values.len()));
            }
        }
        debug_assert!(inserts.peek().is_none(), "every pending insert placed");
        debug_assert_eq!(
            values.len(),
            new_len,
            "tombstoned row ids are exact, so every one finds its row"
        );
        let rebuilt_len = values.len();
        self.data.replace(values, rowids);
        self.dir
            .install(rebuilt_len, cracks, self.delta.current_epoch());
        (drained.pending_inserts, drained.tombstoned_rows)
    }
}
