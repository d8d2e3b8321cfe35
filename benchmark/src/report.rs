//! Running one workload and reporting it.

use crate::measure::{end_to_end, per_layer, write_spans, Metrics};
use crate::run::OpKind;
use crate::spec::{sizing, Scale, END_TO_END, PER_LAYER};
use crate::stats::percentile_ns;
use crate::{col, probes, table};
use aidx_obs::Json;
use std::path::PathBuf;

/// One workload run, as the one command reports it.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: String,
    /// Checks made (one per op plus the end-of-run checks) and failed.
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a of the op streams the run was generated with.
    pub op_hash: u64,
    /// `(name, value, unit)` of every end-to-end metric (untraced run) or
    /// every per-layer metric (traced run).
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// The build directory of this executable — inside the checkout, ignored
/// by git — is where a run may leave files.
pub fn output_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."))
}

fn with_units(
    metrics: &Metrics,
    spec: &[(&'static str, &'static str)],
) -> Vec<(&'static str, f64, &'static str)> {
    spec.iter()
        .map(|&(name, unit)| {
            let value = metrics
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
                .1;
            (name, value, unit)
        })
        .collect()
}

pub fn run_workload(workload: &str, scale: Scale, seconds: u64, seed: u64, trace: bool) -> Report {
    let sizing = sizing(workload, scale, seconds);
    let outcome = match workload {
        "col_uniform" | "col_sequential" => col::run(workload, &sizing, seed, trace),
        _ => table::run(workload, &sizing, seed, trace),
    };
    for (rep, outcome) in outcome.reps.iter().enumerate() {
        let mut reads = outcome.log.steady.latencies_ns(&[OpKind::Read]);
        eprintln!(
            "{workload} rep {rep}{}: cold {:.4} s, steady {:.1} ops/s, read p50 {:.1} us, p99 {:.1} us",
            if outcome.traced { " (traced)" } else { "" },
            outcome.log.cold.wall_s(),
            outcome.log.steady.ops() as f64 / outcome.log.steady.wall_s(),
            percentile_ns(&mut reads, 0.50) as f64 / 1e3,
            percentile_ns(&mut reads, 0.99) as f64 / 1e3,
        );
    }
    let metrics = if trace {
        let path = output_dir().join(format!("{workload}.spans.jsonl"));
        match write_spans(&path, &outcome) {
            Ok(()) => eprintln!("spans: {}", path.display()),
            Err(err) => eprintln!("could not write {}: {err}", path.display()),
        }
        let mut metrics = per_layer(&outcome);
        metrics.extend(probes::run(scale, seed));
        with_units(&metrics, &PER_LAYER)
    } else {
        with_units(&end_to_end(&outcome), &END_TO_END)
    };
    Report {
        workload: workload.to_string(),
        attempted: outcome.reps.iter().map(|rep| rep.attempted).sum(),
        failed: outcome.reps.iter().map(|rep| rep.failed).sum(),
        op_hash: outcome.op_hash,
        metrics,
    }
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// One line per metric: `workload metric value unit`.
    pub fn print_metrics(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{} {name} {value} {unit}", self.workload);
        }
    }

    /// The result object a run prints as its last line.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let entry = Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]);
                (name.to_string(), entry)
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}
