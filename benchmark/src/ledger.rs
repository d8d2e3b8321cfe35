//! The JSON ledger: every workload's metrics over one or more runs, with
//! what is needed to prove two ledgers measured the same load on
//! comparable machines (seeds, op-stream hashes, `nproc`).

use crate::report::output_dir;
use crate::spec::{Scale, CLIENTS};
use crate::stats::median;
use aidx_obs::Json;
use std::path::Path;
use std::process::{Command, Stdio};

#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadEntry {
    /// `(seed, FNV-1a of the op streams)` per untraced run.
    pub op_hashes: Vec<(u64, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, one value per untraced run)`.
    pub end_to_end: Vec<(String, String, Vec<f64>)>,
    /// `(name, unit, value)` from the traced run, if one was made.
    pub per_layer: Vec<(String, String, f64)>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    pub scale: String,
    pub seconds: u64,
    pub nproc: u64,
    pub clients: u64,
    pub workloads: Vec<(String, WorkloadEntry)>,
}

impl Ledger {
    pub fn new(scale: Scale, seconds: u64) -> Self {
        Ledger {
            scale: match scale {
                Scale::Full => "full",
                Scale::Smoke => "smoke",
            }
            .to_string(),
            seconds,
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            clients: CLIENTS as u64,
            workloads: Vec::new(),
        }
    }

    pub fn entry(&mut self, workload: &str) -> &mut WorkloadEntry {
        if let Some(at) = self.workloads.iter().position(|(name, _)| name == workload) {
            return &mut self.workloads[at].1;
        }
        self.workloads
            .push((workload.to_string(), WorkloadEntry::default()));
        &mut self.workloads.last_mut().expect("just pushed").1
    }

    /// Every metric as `workload metric value unit`; end-to-end metrics
    /// print the median over the runs.
    pub fn print(&self) {
        for (workload, entry) in &self.workloads {
            for (name, unit, values) in &entry.end_to_end {
                println!("{workload} {name} {} {unit}", median(values));
            }
            let ratio = entry.failed as f64 / entry.attempted.max(1) as f64;
            println!("{workload} failed_ops_ratio {ratio} ratio");
            for (name, unit, value) in &entry.per_layer {
                println!("{workload} {name} {value} {unit}");
            }
        }
    }

    pub fn to_json(&self) -> Json {
        let workloads = self
            .workloads
            .iter()
            .map(|(name, entry)| {
                let hashes = entry
                    .op_hashes
                    .iter()
                    .map(|(seed, hash)| (seed.to_string(), Json::str(hash.clone())))
                    .collect();
                let end_to_end = entry
                    .end_to_end
                    .iter()
                    .map(|(name, unit, values)| {
                        let metric = Json::obj(vec![
                            ("unit", Json::str(unit.clone())),
                            ("median", Json::Num(median(values))),
                            (
                                "values",
                                Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                            ),
                        ]);
                        (name.clone(), metric)
                    })
                    .collect();
                let per_layer = entry
                    .per_layer
                    .iter()
                    .map(|(name, unit, value)| {
                        let metric = Json::obj(vec![
                            ("unit", Json::str(unit.clone())),
                            ("value", Json::Num(*value)),
                        ]);
                        (name.clone(), metric)
                    })
                    .collect();
                let entry = Json::obj(vec![
                    ("op_stream_fnv1a", Json::Obj(hashes)),
                    ("attempted", Json::UInt(entry.attempted)),
                    ("failed", Json::UInt(entry.failed)),
                    ("end_to_end", Json::Obj(end_to_end)),
                    ("per_layer", Json::Obj(per_layer)),
                ]);
                (name.clone(), entry)
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::str("aidx-benchmark-ledger/1")),
            ("scale", Json::str(self.scale.clone())),
            ("seconds", Json::UInt(self.seconds)),
            ("nproc", Json::UInt(self.nproc)),
            ("clients", Json::UInt(self.clients)),
            ("workloads", Json::Obj(workloads)),
        ])
    }

    pub fn from_json(json: &Json) -> Result<Ledger, String> {
        let field = |key: &str| json.get(key).ok_or(format!("ledger lacks {key}"));
        let pairs = |json: &Json| match json {
            Json::Obj(pairs) => Ok(pairs.clone()),
            _ => Err("expected an object".to_string()),
        };
        let unit = |metric: &Json| {
            metric
                .get("unit")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or("metric lacks unit".to_string())
        };
        let mut workloads = Vec::new();
        for (name, entry) in pairs(field("workloads")?)? {
            let part = |key: &str| entry.get(key).ok_or(format!("{name} lacks {key}"));
            let mut parsed = WorkloadEntry {
                attempted: part("attempted")?.as_u64().unwrap_or(0),
                failed: part("failed")?.as_u64().unwrap_or(0),
                ..WorkloadEntry::default()
            };
            for (seed, hash) in pairs(part("op_stream_fnv1a")?)? {
                let seed = seed.parse().map_err(|e| format!("seed {seed}: {e}"))?;
                parsed
                    .op_hashes
                    .push((seed, hash.as_str().unwrap_or_default().to_string()));
            }
            for (metric, body) in pairs(part("end_to_end")?)? {
                let values = body
                    .get("values")
                    .and_then(Json::as_arr)
                    .ok_or(format!("{name}.{metric} lacks values"))?
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect();
                parsed.end_to_end.push((metric, unit(&body)?, values));
            }
            for (metric, body) in pairs(part("per_layer")?)? {
                let value = body.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                parsed.per_layer.push((metric, unit(&body)?, value));
            }
            workloads.push((name, parsed));
        }
        Ok(Ledger {
            scale: field("scale")?.as_str().unwrap_or_default().to_string(),
            seconds: field("seconds")?.as_u64().unwrap_or(0),
            nproc: field("nproc")?.as_u64().unwrap_or(0),
            clients: field("clients")?.as_u64().unwrap_or(0),
            workloads,
        })
    }
}

/// Reads a JSON file: a ledger, or `BENCHMARK.json`.
pub fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parses the output of one workload run — the `# op_stream_fnv1a` line
/// and the result object on the last line — into the ledger. Returns
/// whether the run reported itself correct.
pub fn absorb(
    ledger: &mut Ledger,
    workload: &str,
    seed: u64,
    trace: bool,
    stdout: &str,
) -> Result<bool, String> {
    let last = stdout.lines().last().ok_or("the run printed nothing")?;
    let result = Json::parse(last)?;
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return Err("the result object lacks metrics".into());
    };
    let entry = ledger.entry(workload);
    for (name, body) in metrics {
        let value = body.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        let unit = body.get("unit").and_then(Json::as_str).unwrap_or_default();
        if trace {
            entry
                .per_layer
                .push((name.clone(), unit.to_string(), value));
        } else if let Some(at) = entry.end_to_end.iter().position(|(n, _, _)| n == name) {
            entry.end_to_end[at].2.push(value);
        } else {
            entry
                .end_to_end
                .push((name.clone(), unit.to_string(), vec![value]));
        }
    }
    entry.attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
    entry.failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
    if !trace {
        let hash = stdout
            .lines()
            .find_map(|line| line.strip_prefix("# op_stream_fnv1a "))
            .unwrap_or_default();
        entry.op_hashes.push((seed, hash.to_string()));
    }
    Ok(result.get("correct") == Some(&Json::Bool(true)))
}

/// Runs one workload in a child process of its own — so its `peak_rss_mb`
/// and its allocator state are its own — and absorbs the result.
pub fn collect(ledger: &mut Ledger, workload: &str, seed: u64, trace: bool) -> bool {
    let exe = output_dir().join("aidx-benchmark");
    eprintln!("running {workload} seed {seed} trace {}", trace as u8);
    let output = Command::new(exe)
        .args(["--workload", workload, "--scale", &ledger.scale])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &ledger.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let output = match output {
        Ok(output) => output,
        Err(err) => {
            eprintln!("could not start {workload}: {err}");
            return false;
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    match absorb(ledger, workload, seed, trace, &stdout) {
        Ok(correct) => correct && output.status.success(),
        Err(err) => {
            eprintln!("{workload}: {err}");
            false
        }
    }
}

/// Two-space-indented rendering, for ledgers that are committed and read.
pub fn pretty(json: &Json) -> String {
    fn walk(json: &Json, depth: usize, out: &mut String) {
        let pad = |depth: usize, out: &mut String| out.push_str(&"  ".repeat(depth));
        match json {
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in pairs.iter().enumerate() {
                    pad(depth + 1, out);
                    out.push_str(&Json::str(key.clone()).render());
                    out.push_str(": ");
                    walk(value, depth + 1, out);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                pad(depth, out);
                out.push('}');
            }
            // Arrays here hold numbers only: keep them on one line.
            other => out.push_str(&other.render()),
        }
    }
    let mut out = String::new();
    walk(json, 0, &mut out);
    out.push('\n');
    out
}
