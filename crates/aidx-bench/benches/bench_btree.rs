//! Micro-benchmarks of the partitioned B-tree and adaptive merging: merge
//! steps, run creation, and query sequences of adaptive merging and the
//! hybrid crack-sort.

use aidx_cracking::{
    generate_unique_shuffled, AdaptiveMergeIndex, HybridCrackSort, PartitionedBTree,
};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

const ROWS: usize = 100_000;

fn bench_btree(c: &mut Criterion) {
    let values = generate_unique_shuffled(ROWS, 11);
    let mut group = c.benchmark_group("btree");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));
    group.bench_function("partitioned_move_range", |b| {
        b.iter_batched(
            || {
                let mut tree = PartitionedBTree::new();
                for (i, &v) in values.iter().enumerate() {
                    tree.insert(1 + (i % 8) as u32, v, i as u32);
                }
                tree
            },
            |mut tree| {
                let mut moved = 0;
                for p in 1..=8u32 {
                    moved += tree.move_range(p, 0, 10_000, 20_000);
                }
                moved
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_adaptive_indexes(c: &mut Criterion) {
    let values = generate_unique_shuffled(ROWS, 13);
    let mut group = c.benchmark_group("adaptive_merge_and_hybrid");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));
    group.bench_function("adaptive_merge_build_runs", |b| {
        b.iter(|| {
            AdaptiveMergeIndex::build_from_values(&values, 8_192)
                .stats()
                .initial_runs
        })
    });
    group.bench_function("adaptive_merge_query_sequence_32", |b| {
        b.iter_batched(
            || AdaptiveMergeIndex::build_from_values(&values, 8_192),
            |mut idx| {
                for i in 0..32i64 {
                    idx.count(i * 3_000, i * 3_000 + 500);
                }
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("hybrid_crack_sort_query_sequence_32", |b| {
        b.iter_batched(
            || HybridCrackSort::build_from_values(&values, 8_192),
            |mut idx| {
                for i in 0..32i64 {
                    idx.count(i * 3_000, i * 3_000 + 500);
                }
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_btree, bench_adaptive_indexes);
criterion_main!(benches);
