//! The paired benchmark gate behind `obsctl gate`.
//!
//! `BENCHMARK.json` declares the repo's benchmark: the `command` that
//! runs it, the `run_seconds` each run lasts, the `workloads`, and the
//! `end_to_end` metrics, each with the direction that is better and a
//! relative `bound`. The gate runs that command in a parent and a
//! change checkout, [`PAIRS`] pairs per workload with seeds
//! `1..=PAIRS`, alternating which side runs first, and [`judge`]s the
//! medians of each metric.
//!
//! A metric is **REGRESSED** when the change median is worse than the
//! parent median by more than the bound *and* every change run reads
//! worse than every parent run. A median past the bound whose runs
//! overlap is **unresolved**: an unchanged commit's `seven-pair`
//! `setup_s` has moved 32.5% between two sets of runs on one host
//! (`aabench/README.md`), so three runs a side cannot tell a move of
//! that size from a regression unless the runs separate.
//!
//! A run that crashes before it prints its report is a failed run, like
//! one whose outputs miss their oracle: the change broke the benchmark.
//! Only a command that cannot be started, or a report that lacks a
//! declared metric, is bad input ([`RunError`]).

use crate::json::{parse, Value};
use std::path::Path;
use std::process::Command;

/// Pairs of runs per workload. A constant, not a knob: the verdict
/// rule above is calibrated on this count.
pub const PAIRS: u64 = 3;

/// One end-to-end metric the gate judges.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Key in the run report's `metrics` object.
    pub name: String,
    /// `"better": "higher"` in `BENCHMARK.json`.
    pub higher_is_better: bool,
    /// Largest tolerated relative worsening of the median (0.25 = 25%).
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the gate reads.
#[derive(Clone, Debug, PartialEq)]
pub struct Bench {
    /// Program and arguments; each run appends
    /// `--workload W --seed S --seconds run_seconds --trace 0`.
    pub command: Vec<String>,
    /// Seconds each run measures for.
    pub run_seconds: f64,
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// The end-to-end metrics, in file order.
    pub metrics: Vec<Metric>,
}

impl Bench {
    /// Parse a `BENCHMARK.json` document.
    pub fn parse(text: &str) -> Result<Bench, String> {
        let doc = parse(text).map_err(|e| e.to_string())?;
        let strings = |v: &Value| v.as_str().map(str::to_string);
        let command: Vec<String> = doc
            .get("command")
            .and_then(Value::as_arr)
            .and_then(|a| a.iter().map(strings).collect::<Option<_>>())
            .filter(|c: &Vec<String>| !c.is_empty())
            .ok_or("\"command\" must be a non-empty array of strings")?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .filter(|s| *s > 0.0)
            .ok_or("\"run_seconds\" must be a positive number")?;
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .and_then(|a| a.iter().map(|w| w.get("name").and_then(strings)).collect())
            .filter(|w: &Vec<String>| !w.is_empty())
            .ok_or("\"workloads\" must be a non-empty array of objects with a \"name\"")?;
        let metric = |m: &Value| -> Option<Metric> {
            let higher_is_better = match m.get("better")?.as_str()? {
                "higher" => true,
                "lower" => false,
                _ => return None,
            };
            Some(Metric {
                name: m.get("name").and_then(strings)?,
                higher_is_better,
                bound: m.get("bound")?.as_f64().filter(|b| *b >= 0.0)?,
            })
        };
        let metrics: Vec<Metric> = doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .and_then(|a| a.iter().map(metric).collect())
            .filter(|m: &Vec<Metric>| !m.is_empty())
            .ok_or(
                "\"end_to_end\" must be a non-empty array of {name, better: higher|lower, bound}",
            )?;
        Ok(Bench {
            command,
            run_seconds,
            workloads,
            metrics,
        })
    }
}

/// One benchmark run, read from the last line of its standard output.
#[derive(Clone, Debug, PartialEq)]
pub struct Run {
    /// The run's exit status was zero.
    pub exited_ok: bool,
    /// Every output matched its oracle.
    pub correct: bool,
    /// Operations whose check failed.
    pub failed: u64,
    /// One value per [`Bench::metrics`] entry, in the same order.
    pub values: Vec<f64>,
}

impl Run {
    /// The run finished, and every check passed.
    pub fn passed(&self) -> bool {
        self.exited_ok && self.correct && self.failed == 0
    }
}

/// Why a run gave the gate no values.
#[derive(Clone, Debug, PartialEq)]
pub enum RunError {
    /// The run started but left no readable report: it crashed, or
    /// printed something else. It counts as a failed run.
    NoReport(String),
    /// The command cannot be started, or the report lacks a metric the
    /// declaration names: the input is bad, not the change.
    BadInput(String),
}

/// Read a run report (`{"correct", "failed", "metrics": {name: {"value"}}}`)
/// from the last non-empty line of `stdout`.
pub fn read_report(bench: &Bench, stdout: &str, exited_ok: bool) -> Result<Run, RunError> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| RunError::NoReport("no report on standard output".into()))?;
    let doc = parse(line).map_err(|e| RunError::NoReport(format!("report is not JSON: {}", e)))?;
    let correct = match doc.get("correct") {
        Some(Value::Bool(b)) => *b,
        _ => {
            return Err(RunError::NoReport(
                "report has no boolean \"correct\"".into(),
            ))
        }
    };
    let failed = doc
        .get("failed")
        .and_then(Value::as_u64)
        .ok_or_else(|| RunError::NoReport("report has no count \"failed\"".into()))?;
    let values = bench
        .metrics
        .iter()
        .map(|m| {
            doc.path(&["metrics", m.name.as_str(), "value"])
                .and_then(Value::as_f64)
                .ok_or_else(|| {
                    RunError::BadInput(format!(
                        "the report has no metric {:?}, which the declaration names",
                        m.name
                    ))
                })
        })
        .collect::<Result<_, _>>()?;
    Ok(Run {
        exited_ok,
        correct,
        failed,
        values,
    })
}

/// Run the benchmark command once with `checkout` as the working
/// directory. The child inherits no `CARGO_TARGET_DIR`, so each
/// checkout builds into its own target directory instead of both
/// rebuilding a shared one before every run. A run that left no
/// readable report comes back as [`RunError::NoReport`] with its exit
/// status and the tail of its standard error.
pub fn run_once(
    bench: &Bench,
    checkout: &Path,
    workload: &str,
    seed: u64,
) -> Result<Run, RunError> {
    let mut cmd = Command::new(&bench.command[0]);
    cmd.args(&bench.command[1..])
        .args(["--workload", workload, "--seed"])
        .arg(seed.to_string())
        .arg("--seconds")
        .arg(bench.run_seconds.to_string())
        .args(["--trace", "0"])
        .current_dir(checkout)
        .env_remove("CARGO_TARGET_DIR");
    let out = cmd
        .output()
        .map_err(|e| RunError::BadInput(format!("cannot run {:?}: {}", bench.command[0], e)))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    read_report(bench, &stdout, out.status.success()).map_err(|e| match e {
        RunError::NoReport(why) => {
            let stderr = String::from_utf8_lossy(&out.stderr);
            let tail: Vec<&str> = stderr.lines().rev().take(10).collect();
            RunError::NoReport(format!(
                "{} ({}); stderr ends:\n{}",
                why,
                out.status,
                tail.into_iter().rev().collect::<Vec<_>>().join("\n")
            ))
        }
        bad => bad,
    })
}

/// The gate's reading of one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change median is within the bound.
    Ok,
    /// The change median is past the bound, but the runs overlap.
    Unresolved,
    /// Past the bound, and every change run is worse than every parent run.
    Regressed,
}

impl Verdict {
    /// The word the gate prints.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
        }
    }
}

/// Medians, relative worsening and verdict of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Judgement {
    /// Median of the parent runs.
    pub parent: f64,
    /// Median of the change runs.
    pub change: f64,
    /// How much worse the change median is, relative to the parent
    /// median (negative when it is better).
    pub worse: f64,
    /// The verdict.
    pub verdict: Verdict,
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Judge one metric from its parent and change runs (both non-empty).
pub fn judge(metric: &Metric, parent: &[f64], change: &[f64]) -> Judgement {
    let (p, c) = (median(parent), median(change));
    // Orient every value so that larger is worse.
    let sign = if metric.higher_is_better { -1.0 } else { 1.0 };
    // Equal medians are no change even at zero, where the ratio is 0/0.
    let worse = if c == p {
        0.0
    } else {
        sign * (c - p) / p.abs()
    };
    let best_change = change
        .iter()
        .map(|x| sign * x)
        .fold(f64::INFINITY, f64::min);
    let worst_parent = parent
        .iter()
        .map(|x| sign * x)
        .fold(f64::NEG_INFINITY, f64::max);
    let verdict = if worse <= metric.bound {
        Verdict::Ok
    } else if best_change > worst_parent {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    };
    Judgement {
        parent: p,
        change: c,
        worse,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool) -> Metric {
        Metric {
            name: "m".into(),
            higher_is_better,
            bound: 0.25,
        }
    }

    #[test]
    fn bound_is_inclusive_and_direction_matters() {
        // Exactly at the bound passes; just past it does not.
        let lower = metric(false);
        let at = judge(&lower, &[100.0; 3], &[125.0; 3]);
        assert_eq!(at.verdict, Verdict::Ok);
        assert!((at.worse - 0.25).abs() < 1e-12);
        assert_eq!(
            judge(&lower, &[100.0; 3], &[125.1; 3]).verdict,
            Verdict::Regressed
        );
        // A lower-is-better metric that drops has improved.
        let better = judge(&lower, &[100.0; 3], &[50.0; 3]);
        assert_eq!(better.verdict, Verdict::Ok);
        assert!(better.worse < 0.0);

        // For a throughput the same move reads the other way.
        let higher = metric(true);
        assert_eq!(judge(&higher, &[100.0; 3], &[75.0; 3]).verdict, Verdict::Ok);
        assert_eq!(
            judge(&higher, &[100.0; 3], &[74.0; 3]).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&higher, &[100.0; 3], &[200.0; 3]).verdict,
            Verdict::Ok
        );

        // A zero parent median: equal is no change, anything worse is
        // infinitely worse.
        assert_eq!(judge(&lower, &[0.0; 3], &[0.0; 3]).worse, 0.0);
        assert_eq!(
            judge(&lower, &[0.0; 3], &[1.0; 3]).verdict,
            Verdict::Regressed
        );
        assert_eq!(judge(&higher, &[0.0; 3], &[1.0; 3]).verdict, Verdict::Ok);
    }

    #[test]
    fn overlapping_runs_past_the_bound_are_unresolved() {
        let higher = metric(true);
        // Median 50 is 50% below 100, but one change run beats a parent
        // run, so the sets are not separated.
        let j = judge(&higher, &[100.0, 90.0, 110.0], &[50.0, 50.0, 95.0]);
        assert_eq!((j.parent, j.change), (100.0, 50.0));
        assert_eq!(j.verdict, Verdict::Unresolved);
        // Once every change run is worse than every parent run, it is a
        // regression.
        let j = judge(&higher, &[100.0, 90.0, 110.0], &[50.0, 50.0, 89.0]);
        assert_eq!(j.verdict, Verdict::Regressed);
        // Ties between the sets do not separate them.
        let lower = metric(false);
        let j = judge(&lower, &[1.0, 1.0, 2.0], &[2.0, 2.0, 2.0]);
        assert_eq!(j.verdict, Verdict::Unresolved);
    }

    #[test]
    fn reads_the_committed_benchmark_declaration() {
        let bench = Bench::parse(include_str!("../../../BENCHMARK.json")).unwrap();
        assert!(bench.command.len() > 1);
        assert!(bench.run_seconds > 0.0);
        assert!(bench.workloads.iter().any(|w| w == "seven-pair"));
        let edges = bench
            .metrics
            .iter()
            .find(|m| m.name == "edges_per_s")
            .expect("edges_per_s is an end-to-end metric");
        assert!(edges.higher_is_better && edges.bound > 0.0);

        for bad in [
            "[]",
            r#"{"command": [], "run_seconds": 1, "workloads": [{"name": "w"}],
                "end_to_end": [{"name": "m", "better": "lower", "bound": 0.1}]}"#,
            r#"{"command": ["x"], "run_seconds": 0, "workloads": [{"name": "w"}],
                "end_to_end": [{"name": "m", "better": "lower", "bound": 0.1}]}"#,
            r#"{"command": ["x"], "run_seconds": 1, "workloads": [{"name": "w"}],
                "end_to_end": [{"name": "m", "better": "sideways", "bound": 0.1}]}"#,
        ] {
            assert!(Bench::parse(bad).is_err(), "{}", bad);
        }
    }

    #[test]
    fn reports_need_every_declared_metric() {
        let bench = Bench::parse(
            r#"{"command": ["x"], "run_seconds": 1, "workloads": [{"name": "w"}],
                "end_to_end": [{"name": "m", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let good = "building...\n{\"correct\": true, \"failed\": 0, \
                    \"metrics\": {\"m\": {\"value\": 2.5}}}\n";
        let run = read_report(&bench, good, true).unwrap();
        assert!(run.passed());
        assert_eq!(run.values, vec![2.5]);
        assert!(!read_report(&bench, good, false).unwrap().passed());

        let incorrect = "{\"correct\": false, \"failed\": 3, \"metrics\": {\"m\": {\"value\": 1}}}";
        let run = read_report(&bench, incorrect, false).unwrap();
        assert!(!run.passed() && run.failed == 3);

        // No readable report: the run failed.
        for crashed in [
            "",
            "thread 'main' panicked",
            "{\"failed\": 0, \"metrics\": {\"m\": {\"value\": 1}}}",
        ] {
            assert!(
                matches!(
                    read_report(&bench, crashed, false),
                    Err(RunError::NoReport(_))
                ),
                "{:?}",
                crashed
            );
        }
        // A readable report without a declared metric: the declaration
        // does not fit the benchmark.
        assert!(matches!(
            read_report(
                &bench,
                "{\"correct\": true, \"failed\": 0, \"metrics\": {}}",
                true
            ),
            Err(RunError::BadInput(_))
        ));
    }
}
