//! Micro-benchmarks of the cracking primitives: crack-in-two/three on a
//! large array and a sequence of crack selects.

use aidx_cracking::{generate_unique_shuffled, CrackerArray, CrackerIndex};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

const ROWS: usize = 1_000_000;

fn bench_crack_primitives(c: &mut Criterion) {
    let values = generate_unique_shuffled(ROWS, 5);
    let mut group = c.benchmark_group("cracking_primitives");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));
    group.bench_function("crack_in_two_1M", |b| {
        b.iter_batched(
            || CrackerArray::from_values(values.clone()),
            |mut arr| arr.crack_in_two(0, ROWS, (ROWS / 2) as i64),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("crack_in_three_1M", |b| {
        b.iter_batched(
            || CrackerArray::from_values(values.clone()),
            |mut arr| arr.crack_in_three(0, ROWS, (ROWS / 4) as i64, (3 * ROWS / 4) as i64),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("crack_select_sequence_64", |b| {
        b.iter_batched(
            || CrackerIndex::from_values(values.clone()),
            |mut idx| {
                for i in 0..64i64 {
                    idx.count(i * 15_000, i * 15_000 + 1000);
                }
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_crack_primitives);
criterion_main!(benches);
