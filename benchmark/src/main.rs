//! The one command.
//!
//! `--workload W --seed N --seconds S --trace 0|1` runs one workload in
//! this process and prints its result object as the last line. Without
//! `--workload`, every workload runs in a child process of its own and the
//! results are collected into one JSON ledger.

use aidx_benchmark::ledger::{collect, pretty, Ledger};
use aidx_benchmark::report::run_workload;
use aidx_benchmark::spec::{Scale, WORKLOADS};
use aidx_benchmark::verify;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: aidx-benchmark [--workload NAME] [--seed N] [--seconds N] \
[--trace [0|1]] [--scale full|smoke] [--runs N] [--verify] [--out LEDGER.json]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    runs: u64,
    verify: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        scale: Scale::Full,
        runs: 1,
        verify: false,
        out: None,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--scale" => {
                args.scale = match value("--scale")?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("unknown scale {other}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--verify" => args.verify = true,
            // `--trace` alone, or followed by 0 or 1.
            "--trace" => {
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    if args.verify {
        for workload in WORKLOADS {
            let mismatches = verify::replay(workload, args.seed);
            println!("{workload} verify_mismatches {mismatches} count");
            ok &= mismatches == 0;
        }
    }
    if let Some(workload) = &args.workload {
        let report = run_workload(workload, args.scale, args.seconds, args.seed, args.trace);
        report.print_metrics();
        println!("# op_stream_fnv1a {:016x}", report.op_hash);
        println!("{}", report.result_json().render());
        ok &= report.correct();
    } else {
        let mut ledger = Ledger::new(args.scale, args.seconds);
        for run in 0..args.runs {
            for workload in WORKLOADS {
                ok &= collect(&mut ledger, workload, args.seed + run, false);
            }
        }
        if args.trace {
            for workload in WORKLOADS {
                ok &= collect(&mut ledger, workload, args.seed, true);
            }
        }
        ledger.print();
        if let Some(path) = &args.out {
            if let Err(err) = std::fs::write(path, pretty(&ledger.to_json())) {
                eprintln!("could not write {}: {err}", path.display());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
