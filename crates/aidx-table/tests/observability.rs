//! End-to-end tracing: a traced run of concurrent mixed clients on a
//! piece-latched cracker, plus a table join, emits every event type the
//! vocabulary names, each record parseable JSONL.

mod common;

use aidx_core::{CompactionPolicy, ConcurrentCracker, LatchProtocol};
use aidx_cracking::generate_unique_shuffled;
use aidx_obs::{Json, TraceEvent};
use aidx_table::{JoinStrategy, TableBackend, TableEngine};
use common::draws;
use std::collections::BTreeSet;

const ROWS: i64 = 60_000;
const OPS: usize = 512;

/// Eight clients share `OPS` ops on a cracker compacting incrementally
/// every 64 delta rows: `write_percent` of them inserts or deletes of
/// uniform keys, the rest sums over 5 % of the keys.
fn churn(values: &[i64], write_percent: i64, seed: u64) {
    let index = ConcurrentCracker::from_values(values.to_vec(), LatchProtocol::Piece)
        .with_compaction(CompactionPolicy::rows(64).incremental(4));
    std::thread::scope(|s| {
        for client in 0..8 {
            let index = &index;
            s.spawn(move || {
                let mut draw = draws(seed + client);
                for _ in 0..OPS / 8 {
                    let key = draw(ROWS);
                    if draw(100) >= write_percent {
                        index.sum(key, key + ROWS / 20);
                    } else if draw(2) == 0 {
                        index.insert(key);
                    } else {
                        index.delete(key);
                    }
                }
            });
        }
    });
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
    let values = generate_unique_shuffled(ROWS as usize, 11);
    aidx_obs::drain(); // clear any residue from other in-process activity
    aidx_obs::enable();
    let mut jsonl = Vec::<u8>::new();

    // Contended pieces, cracks, compaction steps and delta merges.
    churn(&values, 40, 3);

    // A table-level equi-join.
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

    aidx_obs::drain_jsonl(&mut jsonl).expect("a Vec takes every line");

    // A snapshot retry needs a reclamation racing a read: churn
    // delete-heavy rounds on fresh crackers until one shows up (each
    // round is cheap; contention makes a retry overwhelmingly likely long
    // before the bound).
    let mut rounds = 0;
    while !tags_in(&jsonl).contains("snapshot_retry") {
        rounds += 1;
        assert!(
            rounds <= 60,
            "no snapshot retry observed after {rounds} churn rounds"
        );
        churn(&values, 60, 100 + rounds);
        aidx_obs::drain_jsonl(&mut jsonl).expect("a Vec takes every line");
    }
    aidx_obs::disable();

    // Exactly the event vocabulary: every type shows up, and nothing
    // emits a tag outside it.
    let seen = tags_in(&jsonl);
    let expected: BTreeSet<String> = TraceEvent::all_tags().map(String::from).into();
    assert_eq!(seen, expected, "traced event types");
}
