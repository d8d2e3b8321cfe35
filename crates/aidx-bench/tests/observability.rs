//! End-to-end observability: a traced run across the engine arms must
//! produce a parseable JSONL trace containing every event type, and the
//! structure sampler must yield at least one sample per cadence window.

use aidx_core::{Aggregate, CompactionPolicy, ConcurrentCracker, LatchProtocol};
use aidx_cracking::generate_unique_shuffled;
use aidx_obs::{Json, StructureSampler, TraceEvent};
use aidx_table::{JoinStrategy, TableBackend, TableEngine};
use aidx_workload::{AdaptiveEngine, IndexEngine, MultiClientRunner, Operation, WorkloadGenerator};
use std::collections::BTreeSet;
use std::sync::Arc;

const ROWS: usize = 60_000;
const OPS: usize = 512;

fn mixed_ops(write_ratio: f64, seed: u64) -> Vec<Operation> {
    WorkloadGenerator::new(ROWS as u64, 0.05, Aggregate::Sum, seed).generate_mixed(OPS, write_ratio)
}

fn crack_engine(values: &[i64]) -> IndexEngine {
    let index = ConcurrentCracker::from_values(values.to_vec(), LatchProtocol::Piece)
        .with_compaction(CompactionPolicy::rows(64).incremental(4));
    IndexEngine::new("crack-piece", index)
}

/// Tags present in the JSONL accumulated so far.
fn tags_in(jsonl: &[u8]) -> BTreeSet<String> {
    std::str::from_utf8(jsonl)
        .expect("trace is UTF-8")
        .lines()
        .map(|line| {
            let record =
                Json::parse(line).unwrap_or_else(|e| panic!("unparseable line {line}: {e}"));
            assert!(record.get("t_ns").is_some(), "record has a timestamp");
            assert!(record.get("thread").is_some(), "record has a thread id");
            record
                .get("ev")
                .and_then(Json::as_str)
                .expect("record has an event tag")
                .to_string()
        })
        .collect()
}

#[test]
fn traced_run_emits_every_event_type_as_parseable_jsonl() {
    let values = generate_unique_shuffled(ROWS, 11);
    aidx_obs::drain(); // clear any residue from other in-process activity
    aidx_obs::enable();
    let mut jsonl = Vec::<u8>::new();

    // Serial cracker under piece latches, concurrent mixed clients, with
    // aggressive incremental compaction: latch_wait (contended pieces),
    // crack, compaction_step, delta_merge.
    let engine = Arc::new(crack_engine(&values));
    MultiClientRunner::new(8).run_ops(engine.clone(), &mixed_ops(0.4, 3));

    // Table-level equi-join: join.
    let dim = TableEngine::new(
        "dim",
        vec![("key".into(), (0..64).collect())],
        TableBackend::Serial(LatchProtocol::Piece),
        CompactionPolicy::disabled(),
    );
    let fact = TableEngine::new(
        "fact",
        vec![("fk".into(), (0..512).map(|i| i % 64).collect())],
        TableBackend::Serial(LatchProtocol::Piece),
        CompactionPolicy::disabled(),
    );
    let joined = dim.execute_join(&fact, 0, 0, &[], &[], JoinStrategy::Auto);
    assert_eq!(joined.value, 512);

    aidx_obs::drain_jsonl(&mut jsonl);

    // snapshot_retry needs a reclamation racing a read: churn delete-heavy
    // rounds against fresh engines until one shows up (each round is
    // cheap; contention makes a retry overwhelmingly likely long before
    // the bound).
    let mut rounds = 0;
    while !tags_in(&jsonl).contains("snapshot_retry") {
        rounds += 1;
        assert!(
            rounds <= 60,
            "no snapshot retry observed after {rounds} churn rounds"
        );
        let engine = Arc::new(crack_engine(&values));
        MultiClientRunner::new(8).run_ops(engine.clone(), &mixed_ops(0.6, 100 + rounds));
        aidx_obs::drain_jsonl(&mut jsonl);
    }
    aidx_obs::disable();

    // Exactly the event vocabulary: every type shows up, and nothing
    // emits a tag outside it.
    let seen = tags_in(&jsonl);
    let expected: BTreeSet<String> = TraceEvent::all_tags().map(String::from).into();
    assert_eq!(seen, expected, "traced event types");
}

#[test]
fn structure_sampler_takes_at_least_one_sample_per_window() {
    let values = generate_unique_shuffled(ROWS, 13);
    let engine = crack_engine(&values);
    let cadence = (OPS / 8) as u64;
    let mut sampler = StructureSampler::new(cadence);
    for (i, &op) in mixed_ops(0.2, 17).iter().enumerate() {
        engine.execute(op);
        sampler.maybe_sample(i as u64 + 1, || {
            engine.structure_stats().expect("cracker has structure")
        });
    }
    let samples = sampler.samples();
    assert_eq!(samples.len(), 8, "one sample per cadence window");
    for (w, pair) in samples.windows(2).enumerate() {
        assert_eq!(
            pair[1].query_index - pair[0].query_index,
            cadence,
            "window {w} skipped"
        );
    }
    // The curve is a real convergence series: pieces accumulate and rows
    // stay near the base cardinality.
    assert!(samples[0].stats.piece_count < samples[7].stats.piece_count);
    assert!(samples[7].stats.rows > (ROWS / 2) as u64);
}
