//! `aabench --workload <name> --seconds <s> [--seed <n>] [--trace 0|1]
//! [--trace-out <path>]`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics, or with `--trace 1` the per-layer metrics. Exits 1 if an
//! output check failed, 2 on bad arguments, 3 if a step outlived its
//! deadline.

use aabench::run::{run, Config, Report};
use aabench::workloads::{Kind, Scale, KINDS};
use std::process::exit;

const USAGE: &str = "usage: aabench --workload <seven-pair|rmat-graph|stream-ingest|d4m-pipeline> \
--seconds <s> [--seed <n>] [--trace 0|1] [--trace-out <path>]";

fn bad(msg: &str) -> ! {
    eprintln!("aabench: {msg}\n{USAGE}");
    exit(2)
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| bad(&format!("bad value {value:?} for {flag}")))
}

fn on_stuck(report: Report) {
    println!("{}", report.to_json());
    exit(3)
}

fn main() {
    let mut kind = None;
    let mut seed = 1u64;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| bad(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).unwrap_or_else(|| {
                    let names: Vec<_> = KINDS.iter().map(|k| k.name()).collect();
                    bad(&format!(
                        "unknown workload {value:?}; one of {}",
                        names.join(", ")
                    ))
                }))
            }
            "--seed" => seed = number(&flag, &value),
            "--seconds" => seconds = Some(number::<f64>(&flag, &value)),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad("--trace takes 0 or 1"),
                }
            }
            "--trace-out" => trace_out = Some(value),
            _ => bad(&format!("unknown flag {flag}")),
        }
    }
    let kind = kind.unwrap_or_else(|| bad("--workload is required"));
    let seconds = seconds.unwrap_or_else(|| bad("--seconds is required"));
    if !(seconds > 0.0 && seconds.is_finite()) {
        bad("--seconds must be positive");
    }
    if trace_out.is_some() && !trace {
        bad("--trace-out needs --trace 1");
    }

    let cfg = Config {
        kind,
        scale: Scale::Full,
        seed,
        seconds,
        trace,
    };
    let out = run(&cfg, on_stuck);
    eprint!("{}", out.summary);
    if let (Some(path), Some(json)) = (trace_out, &out.trace_json) {
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("aabench: cannot write {path}: {e}");
            exit(1);
        }
    }
    println!("{}", out.report.to_json());
    if !out.report.correct {
        exit(1);
    }
}
