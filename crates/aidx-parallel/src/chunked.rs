//! Parallel-chunked cracking.
//!
//! The column is split into `chunks` contiguous chunks, each with its own
//! fully independent cracker — its own cracker array, table of contents,
//! and latch hierarchy. A query fans out to one task per chunk on the
//! shared [`WorkerPool`]; every task answers the predicate over its chunk
//! (cracking that chunk as a side effect) and the partial aggregates are
//! summed. This is the "parallel-chunked" design of *Main Memory Adaptive
//! Indexing for Multi-core Systems* (Alvarez et al.): because the chunks
//! partition the *positions* (not the key domain), every chunk holds keys
//! from the whole domain and every query touches every chunk — but each
//! chunk's refinement work, the dominant cost of early queries, runs on a
//! different core.
//!
//! Concurrency control composes with the paper's protocols per chunk: a
//! chunk is itself a [`ConcurrentCracker`] under a chosen
//! [`LatchProtocol`], so multiple in-flight queries may fan out to the
//! same chunk concurrently and are coordinated exactly as Graefe et al.
//! prescribe — just over a chunk-sized column.

use crate::pool::WorkerPool;
use aidx_core::facade::RwLock;
use aidx_core::{
    CompactionPolicy, ConcurrentCracker, KeyRuns, LatchProtocol, QueryMetrics, ReadAnswer,
    ReadShape, RefinementPolicy, RowIdSet, WriteOp,
};
use aidx_obs::StructureProbe;
use aidx_storage::RowId;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Instant;

/// A column cracked in parallel, one chunk per core.
#[derive(Debug)]
pub struct ChunkedCracker {
    chunks: Arc<Vec<ConcurrentCracker>>,
    pool: WorkerPool,
    /// Logical row count across all chunks (kept current by writes).
    len: AtomicUsize,
    /// Per-chunk logical sizes (kept current by writes).
    chunk_sizes: Vec<AtomicUsize>,
    /// The chunk inserts currently append to.
    designated: AtomicUsize,
    /// Once the designated chunk outgrows the mean chunk size by this many
    /// rows, the designation moves to the currently smallest chunk.
    rebalance_slack: usize,
    /// Snapshot-vs-delete fence. A delete is the one operation that
    /// mutates *several* chunks for one logical op (it fans out to every
    /// chunk), so a snapshot registering per-chunk epochs mid-fan-out
    /// would capture a torn half-delete no serial order produced. Deletes
    /// hold this shared for their whole fan-out; snapshot opens hold it
    /// exclusive while registering. Inserts touch one chunk and need no
    /// fence.
    snapshot_fence: RwLock<()>,
    /// Next self-assigned row id. Chunks share one id space (rowids are
    /// tuple identity across the whole column), so the index — not the
    /// chunk — assigns ids for plain inserts.
    next_rowid: AtomicU64,
}

impl ChunkedCracker {
    /// Splits `values` into `chunks` contiguous chunks (clamped to
    /// `1..=len.max(1)`), each a [`ConcurrentCracker`] under `protocol`
    /// and `policy`, and spawns one pool worker per chunk. Row ids are
    /// positional over the *whole* column (chunks share one id space), so
    /// rowid reads across chunks never collide.
    pub fn new(
        values: Vec<i64>,
        chunks: usize,
        protocol: LatchProtocol,
        policy: RefinementPolicy,
    ) -> Self {
        let rowids: Vec<RowId> = (0..values.len() as RowId).collect();
        Self::from_rows(values, rowids, chunks, protocol, policy)
    }

    /// As [`ChunkedCracker::new`] with explicit, aligned row ids — the
    /// table-engine path, where one tuple's id is shared by every indexed
    /// column.
    ///
    /// # Panics
    /// Panics if the vectors differ in length.
    pub fn from_rows(
        values: Vec<i64>,
        rowids: Vec<RowId>,
        chunks: usize,
        protocol: LatchProtocol,
        policy: RefinementPolicy,
    ) -> Self {
        assert_eq!(values.len(), rowids.len(), "misaligned rowid column");
        let len = values.len();
        let next_rowid = rowids.iter().max().map(|&r| r as u64 + 1).unwrap_or(0);
        let chunk_count = chunks.clamp(1, len.max(1));
        let rebalance_slack = (len / chunk_count / 4).max(16);
        let mut remaining = values;
        let mut remaining_ids = rowids;
        let mut built = Vec::with_capacity(chunk_count);
        let mut chunk_sizes = Vec::with_capacity(chunk_count);
        for i in 0..chunk_count {
            // Balanced split: the first `len % chunk_count` chunks take one
            // extra row, so no chunk is ever empty (each worker always has
            // real work).
            let take = len / chunk_count + usize::from(i < len % chunk_count);
            let rest = remaining.split_off(take);
            let chunk_values = std::mem::replace(&mut remaining, rest);
            let rest_ids = remaining_ids.split_off(take);
            let chunk_ids = std::mem::replace(&mut remaining_ids, rest_ids);
            chunk_sizes.push(AtomicUsize::new(chunk_values.len()));
            built.push(
                ConcurrentCracker::from_rows(chunk_values, chunk_ids, protocol).with_policy(policy),
            );
        }
        ChunkedCracker {
            pool: WorkerPool::new(built.len()),
            chunks: Arc::new(built),
            len: AtomicUsize::new(len),
            chunk_sizes,
            designated: AtomicUsize::new(0),
            rebalance_slack,
            snapshot_fence: RwLock::new(()),
            next_rowid: AtomicU64::new(next_rowid),
        }
    }

    /// Number of indexed entries (kept current across inserts/deletes).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current logical size of every chunk (diagnostic: write balance).
    pub fn chunk_sizes(&self) -> Vec<usize> {
        self.chunk_sizes
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect()
    }

    /// The chunk inserts currently append to (diagnostic).
    pub fn designated_chunk(&self) -> usize {
        self.designated.load(Ordering::Relaxed)
    }

    /// Number of chunks (== pool workers).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Total cracks performed across all chunks.
    pub fn crack_count(&self) -> u64 {
        self.chunks.iter().map(ConcurrentCracker::crack_count).sum()
    }

    /// Sets the per-chunk delta compaction policy (builder style): each
    /// chunk compacts independently once *its* delta outgrows the
    /// threshold, so reclamation work spreads across cores with the
    /// writes. Must be called before the index is shared.
    pub fn with_compaction(mut self, policy: CompactionPolicy) -> Self {
        self.set_compaction(policy);
        self
    }

    /// As [`ChunkedCracker::with_compaction`], on an exclusively owned
    /// index.
    pub fn set_compaction(&mut self, policy: CompactionPolicy) {
        // `&mut self` proves no new chunk references can be created, but a
        // pool worker that just replied to an earlier query may not have
        // dropped its transient `Arc` clone yet — wait that benign race
        // out (bounded: a clone that survives this long is a bug, and a
        // clear panic beats a silent hang).
        let mut patience = 1_000_000u32;
        while Arc::strong_count(&self.chunks) > 1 {
            patience -= 1;
            assert!(patience > 0, "a long-lived chunk reference exists; set the compaction policy before sharing the index");
            std::thread::yield_now();
        }
        let chunks = Arc::get_mut(&mut self.chunks)
            .expect("&mut self: no new chunk references can appear once workers drain");
        for chunk in chunks.iter_mut() {
            chunk.set_compaction(policy);
        }
    }

    /// Rows currently in the chunks' pending deltas (pending inserts plus
    /// tombstones, summed across chunks) — the quantity the compaction
    /// policy bounds per chunk.
    pub fn delta_rows(&self) -> u64 {
        self.chunks.iter().map(ConcurrentCracker::delta_rows).sum()
    }

    /// Delta compactions performed across all chunks.
    pub fn compactions_performed(&self) -> u64 {
        self.chunks
            .iter()
            .map(ConcurrentCracker::compactions_performed)
            .sum()
    }

    /// The one write path. Chunks partition *positions*, not keys, so any
    /// chunk can host any value: an insert appends to the designated write
    /// chunk, and once that chunk outgrows the mean chunk size by the
    /// rebalance slack, the designation moves to the currently smallest
    /// chunk so sustained insert streams stay balanced across cores. A
    /// delete's rows may live in any chunk, so it fans out to all of them.
    /// Returns `(rows affected, metrics)`.
    pub fn write(&self, op: WriteOp) -> (u64, QueryMetrics) {
        let WriteOp::Insert { rowid, .. } = op else {
            return self.fan_out_write(op);
        };
        self.next_rowid
            .fetch_max(rowid as u64 + 1, Ordering::Relaxed);
        let target = self.designated.load(Ordering::Relaxed);
        let (rows, metrics) = self.chunks[target].write(op);
        let new_size = self.chunk_sizes[target].fetch_add(1, Ordering::Relaxed) + 1;
        let total = self.len.fetch_add(1, Ordering::Relaxed) + 1;
        let mean = total / self.chunks.len();
        if new_size > mean + self.rebalance_slack {
            let smallest = self
                .chunk_sizes
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.load(Ordering::Relaxed))
                .map(|(i, _)| i)
                .unwrap_or(0);
            self.designated.store(smallest, Ordering::Relaxed);
        }
        (rows, metrics)
    }

    /// Inserts one row with the given key, self-assigning a fresh row id.
    pub fn insert(&self, value: i64) -> QueryMetrics {
        let rowid = self.next_rowid.fetch_add(1, Ordering::Relaxed) as RowId;
        self.insert_row(value, rowid)
    }

    /// [`WriteOp::Insert`]: inserts one row with an externally assigned row
    /// id (the table-engine path).
    pub fn insert_row(&self, value: i64, rowid: RowId) -> QueryMetrics {
        self.write(WriteOp::Insert { value, rowid }).1
    }

    /// [`WriteOp::Delete`]: deletes every row whose key equals `value`.
    pub fn delete(&self, value: i64) -> (u64, QueryMetrics) {
        self.write(WriteOp::Delete { value })
    }

    /// [`WriteOp::DeleteRow`]: deletes the row `(value, rowid)`; exactly
    /// one chunk (at most) holds it. Returns how many rows were removed (0
    /// or 1).
    pub fn delete_row(&self, value: i64, rowid: RowId) -> (u64, QueryMetrics) {
        self.write(WriteOp::DeleteRow { value, rowid })
    }

    /// Fans one delete out to every chunk and sums the removal counts.
    fn fan_out_write(&self, op: WriteOp) -> (u64, QueryMetrics) {
        let start = Instant::now();
        // Shared fence: a concurrent snapshot open (exclusive) either sees
        // the whole multi-chunk delete or none of it.
        let _fence = self.snapshot_fence.read();
        let mut removed = 0u64;
        let mut parts = Vec::with_capacity(self.chunks.len());
        for (chunk_id, (chunk_removed, part_metrics)) in self.scatter(move |_, c| c.write(op)) {
            removed += chunk_removed;
            self.chunk_sizes[chunk_id].fetch_sub(chunk_removed as usize, Ordering::Relaxed);
            parts.push(part_metrics);
        }
        debug_assert!(
            removed <= 1 || matches!(op, WriteOp::Delete { .. }),
            "a rowid lives in at most one chunk"
        );
        self.len.fetch_sub(removed as usize, Ordering::Relaxed);
        let mut metrics = QueryMetrics::merge_parallel(parts);
        metrics.deletes_applied = 1;
        metrics.result_count = removed;
        metrics.total = start.elapsed();
        (removed, metrics)
    }

    /// Runs `job(chunk id, chunk)` for every chunk on the worker pool and
    /// yields `(chunk id, result)` in completion order.
    fn scatter<T: Send + 'static>(
        &self,
        job: impl Fn(usize, &ConcurrentCracker) -> T + Send + Sync + 'static,
    ) -> impl Iterator<Item = (usize, T)> {
        let job = Arc::new(job);
        let (tx, rx) = channel();
        for chunk_id in 0..self.chunks.len() {
            let (chunks, job, tx) = (Arc::clone(&self.chunks), Arc::clone(&job), tx.clone());
            self.pool.execute(move || {
                // A send error means the caller gave up (it never does: it
                // blocks on all replies); ignore rather than panic a pool
                // worker.
                let _ = tx.send((chunk_id, job(chunk_id, &chunks[chunk_id])));
            });
        }
        (0..self.chunks.len()).map(move |_| rx.recv().expect("chunk worker died"))
    }

    /// Opens a snapshot across every chunk: one chunk-local epoch per
    /// chunk, registered in chunk order. Reads through the handle are
    /// frozen at those epochs while writers, per-chunk compactions
    /// (incremental or quiescing), and other queries race on.
    pub fn snapshot(&self) -> ChunkedSnapshot<'_> {
        // Exclusive fence: no multi-chunk delete is mid-fan-out while the
        // per-chunk epochs are registered, so the cut cannot tear a
        // single logical op. (Inserts touch exactly one chunk; their
        // epoch bump is atomic with respect to that chunk's registration.)
        let _fence = self.snapshot_fence.write();
        let epochs = self
            .chunks
            .iter()
            .map(ConcurrentCracker::register_snapshot_epoch)
            .collect();
        ChunkedSnapshot { idx: self, epochs }
    }

    /// One `shape` read over `[low, high)`, fanned out to every chunk and
    /// merged ([`ReadAnswer::merge`]).
    pub fn read(&self, low: i64, high: i64, shape: ReadShape) -> (ReadAnswer, QueryMetrics) {
        self.fan_out(low, high, shape, None)
    }

    /// Q1: count of values in `[low, high)` across all chunks.
    pub fn count(&self, low: i64, high: i64) -> (u64, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::Count);
        (answer.into_agg() as u64, metrics)
    }

    /// Q2: sum of values in `[low, high)` across all chunks.
    pub fn sum(&self, low: i64, high: i64) -> (i128, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::Sum);
        (answer.into_agg(), metrics)
    }

    /// Row ids of every live row with a value in `[low, high)`, unioned
    /// across all chunks (sorted ascending; chunks share one id space).
    pub fn select_rowids(&self, low: i64, high: i64) -> (Vec<RowId>, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::RowIds);
        (answer.into_rowids(), metrics)
    }

    /// As [`ChunkedCracker::select_rowids`], but each chunk builds a
    /// block-compressed [`RowIdSet`] from its own per-piece sorted runs
    /// and the per-chunk sets (chunks partition positions, so the sets
    /// are rowid-disjoint) are k-way merged without decoding to a flat
    /// vector.
    pub fn select_rowid_set(&self, low: i64, high: i64) -> (RowIdSet, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::RowIdSet);
        (answer.into_set(), metrics)
    }

    /// Lazily-merged `(key, rowid)` runs of every live row with a value
    /// in `[low, high)`, absorbed across all chunks (chunks partition
    /// positions, so the runs are rowid-disjoint and each keeps its raw,
    /// unsorted physical order — sorting stays deferred to the consuming
    /// [`KeyRunsIter`](aidx_core::KeyRunsIter)).
    pub fn select_key_runs(&self, low: i64, high: i64) -> (KeyRuns, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::KeyRuns);
        (answer.into_runs(), metrics)
    }

    /// Fans one read out to every chunk and merges the partial answers,
    /// optionally pinned at per-chunk snapshot epochs.
    fn fan_out(
        &self,
        low: i64,
        high: i64,
        shape: ReadShape,
        epochs: Option<&[u64]>,
    ) -> (ReadAnswer, QueryMetrics) {
        let start = Instant::now();
        if low >= high {
            let metrics = QueryMetrics {
                total: start.elapsed(),
                ..QueryMetrics::default()
            };
            return (ReadAnswer::empty(shape), metrics);
        }
        let epochs = epochs.map(<[u64]>::to_vec);
        let parts = self
            .scatter(move |id, c| c.read(low, high, epochs.as_ref().map(|e| e[id]), shape))
            .map(|(_, part)| part);
        let (answer, mut metrics) = ReadAnswer::merge(shape, parts);
        metrics.total = start.elapsed();
        (answer, metrics)
    }

    /// One merged structure probe across every chunk: total pieces, the
    /// piece-size distribution spanning all chunks, and the summed delta
    /// pressure. A diagnostic, not a snapshot — chunks are probed one
    /// after another while queries race on.
    pub fn structure_probe(&self) -> StructureProbe {
        let mut probe = StructureProbe::default();
        for chunk in self.chunks.iter() {
            probe.merge(&chunk.structure_probe());
        }
        probe
    }

    /// Verifies every chunk's piece/array consistency (quiescent only).
    pub fn check_invariants(&self) -> bool {
        self.chunks.iter().all(ConcurrentCracker::check_invariants)
    }
}

/// A snapshot pinned across every chunk of a [`ChunkedCracker`]: reads
/// fan out like ordinary queries but each chunk answers at the epoch
/// registered when the snapshot was opened. Dropping the handle releases
/// every chunk's registration.
#[derive(Debug)]
pub struct ChunkedSnapshot<'a> {
    idx: &'a ChunkedCracker,
    epochs: Vec<u64>,
}

impl ChunkedSnapshot<'_> {
    /// The per-chunk epochs this snapshot reads at (diagnostics).
    pub fn epochs(&self) -> &[u64] {
        &self.epochs
    }

    /// [`ChunkedCracker::read`] with every chunk answering at its pinned
    /// epoch.
    pub fn read(&self, low: i64, high: i64, shape: ReadShape) -> (ReadAnswer, QueryMetrics) {
        self.idx.fan_out(low, high, shape, Some(&self.epochs))
    }

    /// Q1 at the snapshot: count of values in `[low, high)`.
    pub fn count(&self, low: i64, high: i64) -> (u64, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::Count);
        (answer.into_agg() as u64, metrics)
    }

    /// Q2 at the snapshot: sum of values in `[low, high)`.
    pub fn sum(&self, low: i64, high: i64) -> (i128, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::Sum);
        (answer.into_agg(), metrics)
    }

    /// Row ids of the rows with values in `[low, high)` as of the
    /// snapshot (sorted ascending).
    pub fn rowids(&self, low: i64, high: i64) -> (Vec<RowId>, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::RowIds);
        (answer.into_rowids(), metrics)
    }

    /// As [`ChunkedSnapshot::rowids`], materialised as a compressed
    /// [`RowIdSet`] merged across the chunks' pinned epochs.
    pub fn rowid_set(&self, low: i64, high: i64) -> (RowIdSet, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::RowIdSet);
        (answer.into_set(), metrics)
    }

    /// Lazily-merged `(key, rowid)` runs of the rows with values in
    /// `[low, high)` as of the snapshot, absorbed across the chunks'
    /// pinned epochs.
    pub fn key_runs(&self, low: i64, high: i64) -> (KeyRuns, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::KeyRuns);
        (answer.into_runs(), metrics)
    }
}

impl Drop for ChunkedSnapshot<'_> {
    fn drop(&mut self) {
        for (chunk, &epoch) in self.idx.chunks.iter().zip(&self.epochs) {
            chunk.release_snapshot_epoch(epoch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aidx_storage::ops;
    use std::thread;

    fn shuffled(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| (i * 48271) % n as i64).collect()
    }

    fn backends() -> Vec<(LatchProtocol, RefinementPolicy)> {
        vec![
            (LatchProtocol::Piece, RefinementPolicy::Always),
            (LatchProtocol::Column, RefinementPolicy::Always),
            (LatchProtocol::Piece, RefinementPolicy::SkipOnContention),
        ]
    }

    fn piece_chunks(values: Vec<i64>, chunks: usize) -> ChunkedCracker {
        ChunkedCracker::new(
            values,
            chunks,
            LatchProtocol::Piece,
            RefinementPolicy::Always,
        )
    }

    #[test]
    fn results_match_scan_for_every_backend_and_chunk_count() {
        let values = shuffled(5000);
        for backend in backends() {
            for chunks in [1, 2, 4, 7] {
                let idx = ChunkedCracker::new(values.clone(), chunks, backend.0, backend.1);
                assert_eq!(idx.chunk_count(), chunks);
                assert_eq!(idx.len(), 5000);
                for (low, high) in [(10, 4000), (100, 200), (0, 5000), (4999, 5000), (300, 100)] {
                    let (c, _) = idx.count(low, high);
                    assert_eq!(
                        c,
                        ops::count(&values, low, high),
                        "{backend:?}/{chunks} count"
                    );
                    let (s, _) = idx.sum(low, high);
                    assert_eq!(s, ops::sum(&values, low, high), "{backend:?}/{chunks} sum");
                }
                assert!(idx.check_invariants(), "{backend:?}/{chunks}");
            }
        }
    }

    #[test]
    fn chunk_count_is_clamped_to_len() {
        let idx = piece_chunks(shuffled(3), 16);
        assert_eq!(idx.chunk_count(), 3);
        assert_eq!(idx.count(0, 3).0, 3);
        let empty = piece_chunks(vec![], 4);
        assert!(empty.is_empty());
        assert_eq!(empty.chunk_count(), 1);
        assert_eq!(empty.count(0, 10).0, 0);
        assert_eq!(empty.sum(0, 10).0, 0);
    }

    #[test]
    fn empty_and_inverted_ranges_are_zero() {
        let idx = piece_chunks(shuffled(100), 4);
        assert_eq!(idx.count(50, 50).0, 0);
        assert_eq!(idx.count(70, 20).0, 0);
        assert_eq!(idx.sum(70, 20).0, 0);
    }

    #[test]
    fn metrics_aggregate_across_chunks() {
        let values = shuffled(4000);
        let idx = piece_chunks(values.clone(), 4);
        let (_, m) = idx.sum(500, 3500);
        // Every chunk spans the whole key domain, so every chunk cracks at
        // both bounds on a fresh index: 2 cracks x 4 chunks.
        assert_eq!(m.cracks_performed, 8);
        assert_eq!(m.result_count, 3000);
        assert_eq!(idx.crack_count(), 8);
        // A repeat query refines nothing anywhere.
        let (_, m2) = idx.sum(500, 3500);
        assert_eq!(m2.cracks_performed, 0);
    }

    #[test]
    fn concurrent_clients_get_correct_answers() {
        let n = 20_000usize;
        let values = shuffled(n);
        let idx = Arc::new(piece_chunks(values.clone(), 4));
        let values = Arc::new(values);
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let idx = Arc::clone(&idx);
            let values = Arc::clone(&values);
            handles.push(thread::spawn(move || {
                let mut seed = t * 7919 + 13;
                for _ in 0..30 {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let a = (seed >> 17) as i64 % n as i64;
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let b = (seed >> 17) as i64 % n as i64;
                    let (low, high) = if a <= b { (a, b) } else { (b, a) };
                    let (c, _) = idx.count(low, high);
                    assert_eq!(c, ops::count(&values, low, high), "[{low},{high})");
                    let (s, _) = idx.sum(low, high);
                    assert_eq!(s, ops::sum(&values, low, high), "[{low},{high})");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(idx.check_invariants());
    }

    #[test]
    fn sustained_inserts_rebalance_across_chunks() {
        let idx = piece_chunks(shuffled(400), 4);
        // Initial chunks hold 100 rows each; slack is max(16, 100/4) = 25.
        // A long insert stream must rotate the designated chunk instead of
        // piling everything onto chunk 0.
        for i in 0..400 {
            idx.insert(10_000 + i);
        }
        let sizes = idx.chunk_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 800);
        assert_eq!(idx.len(), 800);
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(
            max - min <= 2 * idx.rebalance_slack + 1,
            "write stream left chunks unbalanced: {sizes:?}"
        );
        // The inserted rows are all queryable.
        assert_eq!(idx.count(10_000, 10_400).0, 400);
    }

    #[test]
    fn concurrent_inserts_racing_the_designation_handoff_never_lose_rows() {
        // The designated-chunk handoff is a Relaxed load/store: several
        // writers may read the same designation, or a stale one, while
        // another moves it. That is benign by design — chunks partition
        // positions, not keys — but it must never lose a row, and the
        // designation must still migrate off an oversized chunk.
        let idx = Arc::new(piece_chunks(shuffled(400), 4));
        let writers = 8u64;
        let per_writer = 250u64;
        let mut handles = Vec::new();
        for t in 0..writers {
            let idx = Arc::clone(&idx);
            handles.push(thread::spawn(move || {
                for i in 0..per_writer {
                    // Distinct keys per writer: conservation is checkable
                    // exactly regardless of interleaving.
                    idx.insert((10_000 + t * per_writer + i) as i64);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let inserted = (writers * per_writer) as usize;
        let sizes = idx.chunk_sizes();
        assert_eq!(
            sizes.iter().sum::<usize>(),
            400 + inserted,
            "size accounting lost rows: {sizes:?}"
        );
        assert_eq!(idx.len(), 400 + inserted);
        // Every inserted row is queryable exactly once.
        assert_eq!(
            idx.count(10_000, 10_000 + inserted as i64).0,
            inserted as u64
        );
        assert_eq!(idx.count(i64::MIN, i64::MAX).0, (400 + inserted) as u64);
        // The handoff kept rotating: no chunk kept the designation for the
        // whole stream (each started at 100 rows; a stuck designation
        // would leave three chunks at exactly 100).
        assert!(
            sizes.iter().all(|&s| s > 100),
            "designation never moved: {sizes:?}"
        );
        // Relaxed racing admits overshoot of about one in-flight insert
        // per writer past the slack before the handoff lands.
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(
            max - min <= 2 * idx.rebalance_slack + writers as usize + 1,
            "write stream left chunks unbalanced: {sizes:?}"
        );
        assert!(idx.check_invariants());
    }

    #[test]
    fn concurrent_inserts_with_per_chunk_compaction_conserve_rows() {
        // Same race, with every chunk compacting aggressively: rebuilds
        // must not drop pending rows that land mid-compaction.
        let idx =
            Arc::new(piece_chunks(shuffled(200), 3).with_compaction(CompactionPolicy::rows(8)));
        let mut handles = Vec::new();
        for t in 0..6u64 {
            let idx = Arc::clone(&idx);
            handles.push(thread::spawn(move || {
                for i in 0..100u64 {
                    idx.insert((5000 + t * 100 + i) as i64);
                    if i % 10 == 3 {
                        idx.count(5000, 6000);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(idx.count(5000, 5600).0, 600);
        assert_eq!(idx.len(), 800);
        assert!(idx.compactions_performed() > 0, "threshold 8 must trip");
        assert!(idx.check_invariants());
    }

    #[test]
    fn per_chunk_compaction_bounds_each_chunks_delta() {
        let values = shuffled(2000);
        let idx = piece_chunks(values.clone(), 4).with_compaction(CompactionPolicy::rows(32));
        idx.sum(100, 1500); // warm the chunk indexes
        let mut oracle = values.clone();
        let mut max_delta = 0;
        for i in 0..1000 {
            let key = 10_000 + i;
            idx.insert(key);
            oracle.push(key);
            max_delta = max_delta.max(idx.delta_rows());
        }
        // The designation rotates across chunks as they fill, so each of
        // the 4 chunks can hold up to one threshold of pending rows; the
        // total stays bounded by chunks × threshold instead of growing
        // with the insert stream.
        assert!(
            max_delta <= 4 * 32,
            "per-chunk compaction must bound the delta, saw {max_delta}"
        );
        // ~1000/32 rebuilds minus up to one sub-threshold residue per
        // chunk that never trips.
        assert!(
            idx.compactions_performed() >= (1000 - 4 * 32) / 32,
            "expected regular per-chunk rebuilds, got {}",
            idx.compactions_performed()
        );
        for (low, high) in [(0, 2000), (10_000, 11_000), (500, 10_500)] {
            assert_eq!(idx.count(low, high).0, ops::count(&oracle, low, high));
            assert_eq!(idx.sum(low, high).0, ops::sum(&oracle, low, high));
        }
        assert!(idx.check_invariants());
    }

    #[test]
    fn snapshot_pins_all_chunks_across_writes_and_compaction() {
        let values = shuffled(3000);
        let idx = piece_chunks(values.clone(), 3)
            .with_compaction(CompactionPolicy::rows(8).incremental(4));
        idx.sum(0, 3000);
        let snap = idx.snapshot();
        assert_eq!(snap.epochs().len(), 3);
        // Churn across the designated-chunk rotation; the per-chunk
        // incremental policy merges piece by piece while the snapshot is
        // pinned.
        for i in 0..120 {
            let key = (i * 7) % 3000;
            assert_eq!(idx.delete(key).0, 1);
            idx.insert(key);
        }
        for (low, high) in [(0, 3000), (100, 200), (2500, 3000)] {
            assert_eq!(
                snap.count(low, high).0,
                ops::count(&values, low, high),
                "pinned count [{low},{high})"
            );
            assert_eq!(
                snap.sum(low, high).0,
                ops::sum(&values, low, high),
                "pinned sum [{low},{high})"
            );
        }
        assert_eq!(idx.count(0, 3000).0, 3000, "live view converged");
        drop(snap);
        assert!(idx.check_invariants());
    }

    #[test]
    fn rowid_reads_union_chunks_and_inserts_self_assign_past_external_ids() {
        let values = shuffled(2000);
        let idx = piece_chunks(values.clone(), 4);
        // Row ids are positional over the whole column.
        let oracle = |low: i64, high: i64| -> Vec<RowId> {
            let mut out: Vec<RowId> = values
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v >= low && v < high)
                .map(|(i, _)| i as RowId)
                .collect();
            out.sort_unstable();
            out
        };
        for (low, high) in [(0, 2000), (100, 300), (1999, 2000)] {
            let (rows, m) = idx.select_rowids(low, high);
            assert_eq!(rows, oracle(low, high), "[{low},{high})");
            assert_eq!(m.result_count, rows.len() as u64);
        }
        // Plain inserts self-assign past the largest external id.
        idx.insert_row(500, 9000);
        idx.insert(777);
        let (rows, _) = idx.select_rowids(777, 778);
        assert!(rows.contains(&9001));
        assert!(idx.check_invariants());
    }

    #[test]
    fn chunked_snapshot_rowid_reads_are_frozen() {
        let values = shuffled(1200);
        let idx = piece_chunks(values.clone(), 3);
        idx.sum(0, 1200);
        let before = idx.select_rowids(100, 200).0;
        let snap = idx.snapshot();
        for key in [100, 150, 199] {
            assert_eq!(idx.delete(key).0, 1);
            idx.insert(key);
        }
        assert_eq!(snap.rowids(100, 200).0, before, "pinned rowid view");
        drop(snap);
        let after = idx.select_rowids(100, 200).0;
        assert_eq!(after.len(), before.len());
        assert_ne!(after, before, "replacement rows have fresh ids");
        assert!(idx.check_invariants());
    }

    #[test]
    fn structure_probe_merges_across_chunks() {
        let values = shuffled(4000);
        let idx = piece_chunks(values.clone(), 4);
        let fresh = idx.structure_probe();
        assert_eq!(fresh.rows, 4000);
        // One piece per chunk before any query cracks anything.
        assert_eq!(fresh.piece_count(), 4);
        idx.sum(500, 3500);
        let warmed = idx.structure_probe();
        assert_eq!(warmed.rows, 4000);
        // Every chunk cracked at both bounds: 3 pieces per chunk.
        assert_eq!(warmed.piece_count(), 12);
        assert_eq!(warmed.piece_sizes.iter().sum::<u64>(), 4000);
    }
}
