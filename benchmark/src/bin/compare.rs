//! `compare A.json B.json` — one row per (workload, end-to-end metric) of
//! two ledgers: both medians, the change, the metric's bound from
//! `BENCHMARK.json`, and a verdict. Exits non-zero on a regression or when
//! the two ledgers did not run the same op streams.
//!
//! `compare --self-check [--runs N]` measures the current tree twice (N ≥ 5
//! runs per workload each, same seeds) and applies the same rule, also
//! failing on any pair it cannot resolve: two sets of runs of one commit
//! must agree within the benchmark's own bounds.

use aidx_benchmark::ledger::{read_json, Ledger, WorkloadEntry};
use aidx_benchmark::report::output_dir;
use aidx_benchmark::stats::{median, spread};
use aidx_obs::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const DEFAULT_SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn read_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let spec = read_json(path)?;
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lacks end_to_end")?;
    metrics
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .ok_or(format!("metric lacks {key}"))
            };
            Ok(Bound {
                name: text("name")?.to_string(),
                higher_is_better: text("better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric lacks bound")?,
            })
        })
        .collect()
}

/// Prints the table; returns `(regressed, unresolved)` counts.
fn compare(a: &Ledger, b: &Ledger, bounds: &[Bound]) -> (usize, usize) {
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>8} {:>6} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound", "spread"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for (workload, entry_a) in &a.workloads {
        let Some((_, entry_b)) = b.workloads.iter().find(|(name, _)| name == workload) else {
            println!("{workload:<18} missing from B");
            regressed += 1;
            continue;
        };
        if entry_a.op_hashes != entry_b.op_hashes {
            println!("{workload:<18} op streams differ: the ledgers did not run the same load");
            regressed += 1;
        }
        for bound in bounds {
            let values = |entry: &WorkloadEntry| {
                entry
                    .end_to_end
                    .iter()
                    .find(|(name, _, _)| *name == bound.name)
                    .map(|(_, _, values)| values.clone())
                    .unwrap_or_default()
            };
            let (va, vb) = (values(entry_a), values(entry_b));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<18} {:<18} missing", bound.name);
                regressed += 1;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let change = (mb - ma) / ma;
            let worse_by = if bound.higher_is_better {
                -change
            } else {
                change
            };
            // One run per side gives no spread: the verdict is then the
            // bare difference of two numbers.
            let widest = [&va, &vb]
                .iter()
                .filter(|v| v.len() >= 2)
                .map(|v| spread(v))
                .fold(0.0, f64::max);
            // `setup_s` is milliseconds of allocation-bound work whose level
            // shifts from process to process while its medians agree; like
            // the benchmark driver, hold it to the median rule only.
            let verdict = if widest > bound.bound && bound.name != "setup_s" {
                unresolved += 1;
                "unresolved"
            } else if worse_by > bound.bound {
                regressed += 1;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{workload:<18} {:<18} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>5.0}% {:>7.1}%  {verdict}",
                bound.name,
                change * 100.0,
                bound.bound * 100.0,
                widest * 100.0
            );
        }
    }
    if a.nproc != b.nproc {
        println!("note: A ran on {} cores, B on {}", a.nproc, b.nproc);
    }
    (regressed, unresolved)
}

fn measure(runs: u64, extra: &[String], out: &Path) -> Result<Ledger, String> {
    let status = Command::new(output_dir().join("aidx-benchmark"))
        .args(["--runs", &runs.to_string(), "--out"])
        .arg(out)
        .args(extra)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("could not start aidx-benchmark: {e}"))?;
    if !status.success() {
        return Err("a benchmark run failed its correctness gate".into());
    }
    Ledger::from_json(&read_json(out)?)
}

fn run() -> Result<bool, String> {
    let mut spec = PathBuf::from(DEFAULT_SPEC);
    let mut self_check = false;
    let mut runs = 5u64;
    let mut ledgers = Vec::new();
    let mut extra = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--spec" => spec = PathBuf::from(value("--spec")?),
            "--self-check" => self_check = true,
            "--runs" => {
                runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            // Passed through to the runs of a self-check.
            "--scale" | "--seconds" | "--seed" => {
                extra.push(arg.clone());
                extra.push(value(&arg)?);
            }
            path => ledgers.push(PathBuf::from(path)),
        }
    }
    let bounds = read_bounds(&spec)?;
    let (a, b) = if self_check {
        if runs < 5 {
            return Err("--self-check needs --runs of at least 5".into());
        }
        let dir = output_dir();
        (
            measure(runs, &extra, &dir.join("self_check_a.json"))?,
            measure(runs, &extra, &dir.join("self_check_b.json"))?,
        )
    } else {
        let [a, b] = ledgers.as_slice() else {
            return Err("usage: compare A.json B.json [--spec BENCHMARK.json] | compare --self-check [--runs N]".into());
        };
        (
            Ledger::from_json(&read_json(a)?)?,
            Ledger::from_json(&read_json(b)?)?,
        )
    };
    let (regressed, unresolved) = compare(&a, &b, &bounds);
    println!("{regressed} regressed, {unresolved} unresolved");
    Ok(regressed == 0 && (!self_check || unresolved == 0))
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!("{err}");
            ExitCode::from(2)
        }
    }
}
