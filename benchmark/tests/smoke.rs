//! The one command at `--scale smoke`, checked against `BENCHMARK.json`.

use aidx_benchmark::ledger::{self, Ledger, WorkloadEntry};
use aidx_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use aidx_obs::Json;
use std::path::Path;
use std::process::Command;

fn read_json(path: &Path) -> Json {
    ledger::read_json(path).unwrap_or_else(|e| panic!("{e}"))
}

fn names(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|entry| {
            let text = |k: &str| {
                entry
                    .get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (text("name"), text("unit"))
        })
        .collect()
}

fn layer(entry: &WorkloadEntry, name: &str) -> f64 {
    entry
        .per_layer
        .iter()
        .find(|(n, _, _)| n == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .2
}

#[test]
fn smoke_ledger_matches_benchmark_json() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let spec = read_json(&manifest.join("../BENCHMARK.json"));

    // BENCHMARK.json and the code name the same workloads and metrics.
    let workloads: Vec<String> = names(&spec, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names(&spec, "end_to_end"), owned(&END_TO_END));
    assert_eq!(names(&spec, "per_layer"), owned(&PER_LAYER));
    for (name, unit) in names(&spec, "end_to_end")
        .iter()
        .chain(&names(&spec, "per_layer"))
    {
        let legal = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(!name.is_empty() && name.chars().all(legal), "{name}");
        assert!(!unit.is_empty(), "{name} has no unit");
    }

    // One command: replay against the independent oracles, every workload
    // untraced and traced, one ledger.
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke_ledger.json");
    let status = Command::new(env!("CARGO_BIN_EXE_aidx-benchmark"))
        .args([
            "--scale", "smoke", "--seed", "11", "--verify", "--trace", "--out",
        ])
        .arg(&out)
        .status()
        .expect("the benchmark binary starts");
    assert!(
        status.success(),
        "the one command failed its correctness gate"
    );
    let ledger = Ledger::from_json(&read_json(&out)).expect("a well-formed ledger");
    assert!(ledger.nproc >= 1);

    for workload in WORKLOADS {
        let entry = &ledger
            .workloads
            .iter()
            .find(|(name, _)| name == workload)
            .unwrap_or_else(|| panic!("{workload} missing from the ledger"))
            .1;
        assert_eq!(entry.failed, 0, "{workload}");
        assert!(entry.attempted >= 2_000 || workload == "col_sequential");
        assert_eq!(entry.op_hashes.len(), 1);
        let emitted: Vec<(String, String)> = entry
            .end_to_end
            .iter()
            .map(|(n, u, _)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(emitted, owned(&END_TO_END), "{workload}");
        for (name, _, values) in &entry.end_to_end {
            assert!(
                values.iter().all(|&v| v > 0.0),
                "{workload} {name} is never 0"
            );
        }
        let emitted: Vec<(String, String)> = entry
            .per_layer
            .iter()
            .map(|(n, u, _)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(emitted, owned(&PER_LAYER), "{workload}");

        // The components a layer's callee reports fit inside the spans
        // around the calls, within 2 %.
        let slack = |busy: f64| -0.02 * busy;
        let core_busy = layer(entry, "core.busy_s");
        assert!(core_busy > 0.0, "{workload}");
        assert!(
            layer(entry, "core.self_s") >= slack(core_busy),
            "{workload}"
        );
        let table_busy = layer(entry, "table.busy_s");
        assert_eq!(
            table_busy > 0.0,
            workload.starts_with("table_"),
            "{workload}"
        );
        assert!(
            layer(entry, "table.self_s") >= slack(table_busy),
            "{workload}"
        );

        if workload != "table_mixed" {
            assert_eq!(layer(entry, "core.compaction_steps"), 0.0, "{workload}");
            assert_eq!(layer(entry, "core.delta_rows_final"), 0.0, "{workload}");
        }
        if workload == "col_sequential" {
            for name in [
                "core.conflicts.cold",
                "core.conflicts.steady",
                "latch.read_conflicts",
                "latch.write_conflicts",
            ] {
                assert_eq!(layer(entry, name), 0.0, "{name}");
            }
            assert!(layer(entry, "latch.write_acquisitions") > 0.0);
        }
        if workload == "table_mixed" {
            assert!(layer(entry, "table.join_gallop") + layer(entry, "table.join_hash") > 0.0);
            assert!(layer(entry, "table.write_p50_us") > 0.0);
        }
        if workload == "table_range_zipf" {
            let share = layer(entry, "parallel.range.partition_load_max_share");
            assert!((0.5..=1.0).contains(&share), "{share}");
        }
    }

    // A traced run leaves its spans as JSONL beside the executable.
    let spans = Path::new(env!("CARGO_BIN_EXE_aidx-benchmark"))
        .parent()
        .expect("the binary sits in a directory")
        .join("table_mixed.spans.jsonl");
    let text = std::fs::read_to_string(&spans).expect("spans were written");
    assert!(text.lines().count() > 2_000);
    for line in text.lines().take(50) {
        let span = Json::parse(line).expect("each span is one JSON object");
        for key in ["id", "parent", "op", "client", "name", "start_ns", "end_ns"] {
            assert!(span.get(key).is_some(), "span lacks {key}: {line}");
        }
    }

    // A ledger agrees with itself; the compare binary says so.
    let status = Command::new(env!("CARGO_BIN_EXE_compare"))
        .arg(&out)
        .arg(&out)
        .status()
        .expect("the compare binary starts");
    assert!(status.success());
}
