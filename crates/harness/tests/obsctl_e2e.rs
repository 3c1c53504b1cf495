//! End-to-end exercise of the `obsctl` binary: `trace` and its counter
//! audit, unparsable env knobs, `ops`, `watch`'s terminal view, bad
//! invocations, and `gate` driven by a canned benchmark command.

use aarray_harness::json::{parse, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn obsctl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_obsctl"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("obsctl-e2e-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// `(journal, counter)` from the `obsctl trace` counter-audit row `name`.
fn audit_row(stdout: &str, name: &str) -> (u64, u64) {
    let line = stdout
        .lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .unwrap_or_else(|| panic!("no audit row {:?} in:\n{}", name, stdout));
    let f: Vec<&str> = line.split_whitespace().collect();
    assert_eq!(f[2], "/", "{}", line);
    (f[1].parse().unwrap(), f[3].parse().unwrap())
}

#[test]
fn unparsable_env_knobs_warn_once_and_fall_back() {
    let dir = tmpdir("envwarn");
    let out = dir.join("fig3.trace.json");
    let o = obsctl()
        .args(["trace", "fig3", "--rows", "300", "--reps", "2", "--out"])
        .arg(&out)
        .env(aarray_obs::JOURNAL_EVENTS_ENV, "lots")
        .env(aarray_core::PAR_FLOPS_THRESHOLD_ENV, "128k")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert!(o.status.success(), "{}", stderr);

    // Each unparsable knob warns exactly once per process, naming the
    // variable, the rejected value, and the fallback.
    let events_warn = format!(
        "ignoring unparsable {}=\"lots\"; using the default capacity",
        aarray_obs::JOURNAL_EVENTS_ENV
    );
    let thresh_warn = format!(
        "ignoring unparsable {}=\"128k\"; using the default threshold",
        aarray_core::PAR_FLOPS_THRESHOLD_ENV
    );
    for warn in [&events_warn, &thresh_warn] {
        assert_eq!(
            stderr.matches(warn.as_str()).count(),
            1,
            "expected exactly one {:?} in:\n{}",
            warn,
            stderr
        );
    }

    // Fallbacks hold: the journal rings at its default capacity, and
    // the trace is whole.
    let text = std::fs::read_to_string(&out).unwrap();
    let doc = parse(&text).unwrap();
    assert_eq!(
        doc.path(&["otherData", "capacity"]).and_then(Value::as_u64),
        Some(aarray_obs::DEFAULT_JOURNAL_EVENTS as u64)
    );
    aarray_harness::chrome_trace::validate(&doc).expect("trace must validate");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_rejects_bad_invocations() {
    for args in [
        &["frobnicate"][..],
        &[][..],
        &["trace", "--rows", "abc"][..],
        &["ops", "--reps"][..],
        &["watch", "--interval-ms", "much"][..],
        &["watch", "--port-file", "x"][..],
        &["fetch"][..],
        &["gate"][..],
        &["gate", "only-one"][..],
        &["gate", "a", "b", "c"][..],
    ] {
        let o = obsctl().args(args).output().unwrap();
        assert_eq!(o.status.code(), Some(2), "args {:?}", args);
    }
    // The lineage subcommands are gone, not hidden.
    for removed in [
        "run", "stream", "parbench", "check", "--check", "diff", "history", "top",
    ] {
        let o = obsctl().arg(removed).output().unwrap();
        assert_eq!(o.status.code(), Some(2), "{} still runs", removed);
    }
    let o = obsctl().arg("--help").output().unwrap();
    assert!(o.status.success());
    let usage = String::from_utf8_lossy(&o.stdout);
    for sub in ["trace", "ops", "watch", "fetch", "gate"] {
        assert!(usage.contains(&format!("obsctl {}", sub)), "{}", usage);
    }
}

#[test]
fn trace_writes_a_validated_chrome_trace() {
    let dir = tmpdir("trace");
    let out = dir.join("fig3.trace.json");
    let o = obsctl()
        .args(["trace", "fig3", "--rows", "400", "--out"])
        .arg(&out)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&o.stdout);
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert!(o.status.success(), "{}{}", stdout, stderr);
    // The human summaries: timeline, decision audit, drop accounting.
    assert!(stdout.contains("stage timeline"), "{}", stdout);
    assert!(stdout.contains("decision audit"), "{}", stdout);
    assert!(stdout.contains("dropped by wraparound"), "{}", stdout);
    // The counter audit covers every decision the workload makes, and
    // the journal reproduced the registry on each row.
    assert!(stdout.contains("counter audit"), "{}", stdout);
    assert!(!stdout.contains("MISMATCH"), "{}", stdout);
    let fused = audit_row(&stdout, "fused.traversals");
    assert!(fused.0 > 0 && fused.0 == fused.1, "{:?}\n{}", fused, stdout);
    for row in [
        "kernel.spa",
        "dispatch.serial",
        "dispatch.parallel",
        "plan.symbolic-hit",
        "plan.symbolic-miss",
        "incremental.apply",
        "incremental.fallback",
    ] {
        let (journal, counter) = audit_row(&stdout, row);
        assert_eq!(journal, counter, "{}\n{}", row, stdout);
    }
    assert!(stderr.is_empty(), "{}", stderr);

    // The artifact parses with the workspace's own JSON parser and
    // passes the structural chrome-trace validator: required fields,
    // known phases, per-thread balanced B/E.
    let text = std::fs::read_to_string(&out).unwrap();
    let doc = aarray_harness::json::parse(&text).expect("trace must be valid JSON");
    let stats = aarray_harness::chrome_trace::validate(&doc).expect("trace must validate");
    assert!(stats.begins >= 4, "expected stage spans, got {:?}", stats);
    assert_eq!(stats.begins, stats.ends);
    assert!(stats.instants >= 1, "expected explain instants");
    assert!(stats.threads >= 1);

    // Explain payloads are decoded into args, and the drop accounting
    // rides along in otherData.
    assert!(text.contains("\"verdict\": \"serial\"") || text.contains("\"verdict\": \"parallel\""));
    assert!(text.contains("\"lanes\""));
    assert!(doc.path(&["otherData", "recorded"]).is_some());
    assert!(doc.path(&["otherData", "dropped"]).is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_covers_the_streaming_workload_too() {
    let dir = tmpdir("trace-stream");
    let out = dir.join("stream.trace.json");
    let o = obsctl()
        .args(["trace", "stream", "--rows", "400", "--out"])
        .arg(&out)
        .output()
        .unwrap();
    assert!(
        o.status.success(),
        "{}{}",
        String::from_utf8_lossy(&o.stdout),
        String::from_utf8_lossy(&o.stderr)
    );
    let stdout = String::from_utf8_lossy(&o.stdout);
    // The streaming run takes the delta path, so its timeline shows
    // delta-apply spans and the audit shows delta-applied lanes.
    assert!(stdout.contains("delta-apply"), "{}", stdout);
    assert!(stdout.contains("delta-applied lanes"), "{}", stdout);
    // The audit counts those lanes on both sides, and no lane of these
    // associative lanes fell back to a rebuild.
    let applied = audit_row(&stdout, "incremental.apply");
    assert!(
        applied.0 > 0 && applied.0 == applied.1,
        "{:?}\n{}",
        applied,
        stdout
    );
    assert_eq!(audit_row(&stdout, "incremental.fallback"), (0, 0));
    assert!(!stdout.contains("MISMATCH"), "{}", stdout);
    let doc = aarray_harness::json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    aarray_harness::chrome_trace::validate(&doc).expect("stream trace must validate");
    std::fs::remove_dir_all(&dir).ok();

    // Bad invocations exit 2 without writing anything.
    for args in [
        &["trace", "fig9"][..],
        &["trace", "--rows", "none"][..],
        &["trace", "--reps", "0"][..],
    ] {
        let o = obsctl().args(args).output().unwrap();
        assert_eq!(o.status.code(), Some(2), "args {:?}", args);
    }
}

#[test]
fn ops_shows_tails_and_writes_a_per_op_trace() {
    let dir = tmpdir("ops");
    let trace_out = dir.join("stream.optrace.json");
    let o = obsctl()
        .args([
            "ops",
            "stream",
            "--rows",
            "400",
            "--reps",
            "2",
            "--slowest",
            "3",
            "--trace-out",
        ])
        .arg(&trace_out)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&o.stdout);
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert!(o.status.success(), "{}{}", stdout, stderr);

    // Per-kind tail table with the quantile columns, covering at least
    // the plan and delta kinds the streaming workload exercises.
    for needle in ["p50_ns", "p95_ns", "p99_ns", "plan-execute", "delta-apply"] {
        assert!(
            stdout.contains(needle),
            "missing {:?} in:\n{}",
            needle,
            stdout
        );
    }
    assert!(stdout.contains("slowest"), "{}", stdout);
    assert!(stdout.contains("label stream"), "{}", stdout);

    // At least one exemplar's stage breakdown accounts for its wall
    // time to within 10% — the attribution acceptance bar.
    let pcts: Vec<f64> = stdout
        .lines()
        .filter_map(|l| {
            let head = l.split("% of wall").next()?;
            if head.len() == l.len() {
                return None;
            }
            head.rsplit('(').next()?.parse().ok()
        })
        .collect();
    assert!(!pcts.is_empty(), "no stage-sum lines in:\n{}", stdout);
    assert!(
        pcts.iter().any(|&p| (90.0..=110.0).contains(&p)),
        "no exemplar within 10% of wall: {:?}\n{}",
        pcts,
        stdout
    );

    // The slowest op's journal window cuts into a non-empty, validated
    // per-op Chrome trace grouped by operation.
    let text = std::fs::read_to_string(&trace_out).unwrap();
    let doc = aarray_harness::json::parse(&text).expect("per-op trace must parse");
    let stats = aarray_harness::chrome_trace::validate(&doc).expect("per-op trace must validate");
    assert!(
        stats.begins + stats.instants >= 1,
        "per-op trace is empty: {:?}",
        stats
    );
    assert_eq!(stats.begins, stats.ends);
    assert!(
        text.contains("\"op-"),
        "missing op process track:\n{}",
        text
    );
    std::fs::remove_dir_all(&dir).ok();

    // Bad invocations exit 2.
    for args in [
        &["ops", "fig9"][..],
        &["ops", "--slowest", "0"][..],
        &["ops", "--rows", "many"][..],
    ] {
        let o = obsctl().args(args).output().unwrap();
        assert_eq!(o.status.code(), Some(2), "args {:?}", args);
    }
}

#[test]
fn watch_ticks_while_the_workload_runs_and_prints_a_final_table() {
    let o = obsctl()
        .args(["watch", "fig3", "--rows", "600", "--reps", "6"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&o.stdout);
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert!(o.status.success(), "{}{}", stdout, stderr);
    // One diff line per tick, and one when the workload ends.
    assert!(stdout.lines().any(|l| l.starts_with("tick ")), "{}", stdout);
    assert!(stdout.contains("workload finished"), "{}", stdout);
    // Final table aggregates the whole run per kind.
    for needle in ["p50_ns", "p95_ns", "p99_ns", "plan-execute"] {
        assert!(
            stdout.contains(needle),
            "missing {:?} in:\n{}",
            needle,
            stdout
        );
    }

    // The terminal view's tick is fixed, so `--interval-ms` is an
    // unknown flag; zero reps is a bad invocation.
    for args in [
        &["watch", "--interval-ms", "25"][..],
        &["watch", "--reps", "0"],
    ] {
        let o = obsctl().args(args).output().unwrap();
        assert_eq!(o.status.code(), Some(2), "args {:?}", args);
    }
}

/// A report line as the benchmark prints it.
fn report(correct: bool, failed: u64, edges_per_s: u64, op_p50_ms: f64) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": 10, \"failed\": {}, \"metrics\": {{\
         \"edges_per_s\": {{\"value\": {}, \"unit\": \"1/s\"}}, \
         \"op_p50_ms\": {{\"value\": {}, \"unit\": \"ms\"}}}}}}",
        correct, failed, edges_per_s, op_p50_ms
    )
}

/// A checkout whose benchmark is `sh bench.sh`: it logs its side,
/// arguments and inherited `CARGO_TARGET_DIR` to `../calls.log`, then
/// runs `body`, which sees the appended arguments as `$1`..`$8`
/// (`--workload W --seed S --seconds T --trace 0`).
fn checkout(root: &Path, side: &str, body: &str) -> PathBuf {
    let dir = root.join(side);
    std::fs::create_dir_all(&dir).unwrap();
    let script = format!(
        "echo \"{} $* target=${{CARGO_TARGET_DIR-unset}}\" >> ../calls.log\n\
         echo 'compiling aabench' >&2\n{}\n",
        side, body
    );
    std::fs::write(dir.join("bench.sh"), script).unwrap();
    dir
}

fn declare(change: &Path, workloads: &[&str]) {
    let names: Vec<String> = workloads
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"test\"}}", w))
        .collect();
    let doc = format!(
        "{{\"command\": [\"sh\", \"bench.sh\"], \"paths\": [\"bench.sh\"], \
         \"run_seconds\": 0.5, \"workloads\": [{}], \"end_to_end\": [\
         {{\"name\": \"edges_per_s\", \"unit\": \"1/s\", \"better\": \"higher\", \"bound\": 0.25}}, \
         {{\"name\": \"op_p50_ms\", \"unit\": \"ms\", \"better\": \"lower\", \"bound\": 0.25}}]}}",
        names.join(", ")
    );
    std::fs::write(change.join("BENCHMARK.json"), doc).unwrap();
}

fn gate(parent: &Path, change: &Path) -> Output {
    obsctl()
        .arg("gate")
        .arg(parent)
        .arg(change)
        .env("CARGO_TARGET_DIR", "/shared/target")
        .output()
        .unwrap()
}

/// The verdict printed for `workload` / `metric` in the gate's table.
fn verdict<'a>(stdout: &'a str, workload: &str, metric: &str) -> &'a str {
    stdout
        .lines()
        .find_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            if f.len() == 7 && f[0] == workload && f[1] == metric {
                Some(f[6])
            } else {
                None
            }
        })
        .unwrap_or_else(|| panic!("no row {} {} in:\n{}", workload, metric, stdout))
}

#[test]
fn gate_passes_alternating_pairs_without_a_shared_target_dir() {
    let root = tmpdir("gate-pass");
    let same = format!("echo '{}'", report(true, 0, 1000, 2.0));
    let parent = checkout(&root, "parent", &same);
    let change = checkout(&root, "change", &same);
    declare(&change, &["w"]);
    let o = gate(&parent, &change);
    let stdout = String::from_utf8_lossy(&o.stdout);
    assert_eq!(o.status.code(), Some(0), "{}", stdout);
    assert_eq!(verdict(&stdout, "w", "edges_per_s"), "ok");
    assert_eq!(verdict(&stdout, "w", "op_p50_ms"), "ok");
    assert!(stdout.contains("gate: pass"), "{}", stdout);

    // Three pairs with seeds 1-3, the side that goes first alternating,
    // each run given the declared arguments and no CARGO_TARGET_DIR.
    let calls = std::fs::read_to_string(root.join("calls.log")).unwrap();
    let expected: Vec<String> = [
        ("parent", 1),
        ("change", 1),
        ("change", 2),
        ("parent", 2),
        ("parent", 3),
        ("change", 3),
    ]
    .iter()
    .map(|(side, seed)| {
        format!(
            "{} --workload w --seed {} --seconds 0.5 --trace 0 target=unset",
            side, seed
        )
    })
    .collect();
    assert_eq!(calls.lines().collect::<Vec<_>>(), expected);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn gate_flags_a_separated_regression_and_leaves_overlap_unresolved() {
    let root = tmpdir("gate-regress");
    let parent = checkout(
        &root,
        "parent",
        &format!("echo '{}'", report(true, 0, 1000, 2.0)),
    );
    // Workload `slow`: every change run loses half its throughput.
    // Workload `noisy`: the median loses half, but seed 3 beats the
    // parent, so the runs overlap.
    let change = checkout(
        &root,
        "change",
        &format!(
            "case \"$2/$4\" in\n  noisy/3) echo '{}' ;;\n  *) echo '{}' ;;\nesac",
            report(true, 0, 1500, 2.0),
            report(true, 0, 500, 2.0)
        ),
    );

    declare(&change, &["noisy"]);
    let o = gate(&parent, &change);
    let stdout = String::from_utf8_lossy(&o.stdout);
    assert_eq!(o.status.code(), Some(0), "{}", stdout);
    assert_eq!(verdict(&stdout, "noisy", "edges_per_s"), "unresolved");
    assert_eq!(verdict(&stdout, "noisy", "op_p50_ms"), "ok");

    declare(&change, &["slow", "noisy"]);
    let o = gate(&parent, &change);
    let stdout = String::from_utf8_lossy(&o.stdout);
    assert_eq!(o.status.code(), Some(1), "{}", stdout);
    assert_eq!(verdict(&stdout, "slow", "edges_per_s"), "REGRESSED");
    assert_eq!(verdict(&stdout, "slow", "op_p50_ms"), "ok");
    assert_eq!(verdict(&stdout, "noisy", "edges_per_s"), "unresolved");
    assert!(stdout.contains("gate: FAIL: 1 regressed"), "{}", stdout);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn gate_fails_on_an_incorrect_or_crashed_run() {
    let root = tmpdir("gate-incorrect");
    let parent = checkout(
        &root,
        "parent",
        &format!("echo '{}'", report(true, 0, 1000, 2.0)),
    );
    // Same numbers, but one seed's outputs miss their oracle.
    let change = checkout(
        &root,
        "change",
        &format!(
            "if [ \"$4\" = 2 ]; then echo '{}'; exit 1; fi\necho '{}'",
            report(false, 2, 1000, 2.0),
            report(true, 0, 1000, 2.0)
        ),
    );
    declare(&change, &["w"]);
    let o = gate(&parent, &change);
    let stdout = String::from_utf8_lossy(&o.stdout);
    assert_eq!(o.status.code(), Some(1), "{}", stdout);
    assert_eq!(verdict(&stdout, "w", "edges_per_s"), "ok");
    assert!(stdout.contains("FAILED"), "{}", stdout);
    assert!(stdout.contains("1 failed run(s)"), "{}", stdout);

    // A run that panics before it prints its report is a failed run
    // too, not bad input. Its stderr tail is shown, the workload's
    // other runs are skipped, and the next workload is still judged.
    checkout(
        &root,
        "change",
        &format!(
            "if [ \"$2\" = crash ]; then echo 'thread main panicked at the oracle' >&2; exit 101; fi\n\
             echo '{}'",
            report(true, 0, 1000, 2.0)
        ),
    );
    declare(&change, &["crash", "w"]);
    std::fs::remove_file(root.join("calls.log")).unwrap();
    let o = gate(&parent, &change);
    let stdout = String::from_utf8_lossy(&o.stdout);
    assert_eq!(o.status.code(), Some(1), "{}", stdout);
    assert!(
        stdout.contains("FAILED: no report on standard output"),
        "{}",
        stdout
    );
    assert!(stdout.contains("panicked at the oracle"), "{}", stdout);
    assert!(stdout.contains("1 failed run(s)"), "{}", stdout);
    assert!(
        !stdout.lines().any(|l| l.starts_with("crash ")),
        "{}",
        stdout
    );
    assert_eq!(verdict(&stdout, "w", "edges_per_s"), "ok");
    let calls = std::fs::read_to_string(root.join("calls.log")).unwrap();
    let crash_runs = calls.lines().filter(|l| l.contains("--workload crash"));
    assert_eq!(crash_runs.count(), 2, "{}", calls);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn gate_rejects_missing_or_malformed_input() {
    let root = tmpdir("gate-bad");
    let good = format!("echo '{}'", report(true, 0, 1000, 2.0));
    let parent = checkout(&root, "parent", &good);
    let change = checkout(&root, "change", &good);

    // No BENCHMARK.json in the change checkout.
    assert_eq!(gate(&parent, &change).status.code(), Some(2));
    // A checkout that does not exist.
    declare(&change, &["w"]);
    assert_eq!(gate(&root.join("missing"), &change).status.code(), Some(2));
    // A declaration that is not JSON.
    std::fs::write(change.join("BENCHMARK.json"), "{\"command\": [").unwrap();
    assert_eq!(gate(&parent, &change).status.code(), Some(2));

    // A command that cannot be started.
    declare(&change, &["w"]);
    let decl = std::fs::read_to_string(change.join("BENCHMARK.json")).unwrap();
    let missing = decl.replace("[\"sh\", \"bench.sh\"]", "[\"no-such-benchmark\"]");
    assert_ne!(missing, decl);
    std::fs::write(change.join("BENCHMARK.json"), missing).unwrap();
    assert_eq!(gate(&parent, &change).status.code(), Some(2));
    // A report without a metric the declaration names.
    declare(&change, &["w"]);
    checkout(
        &root,
        "change",
        "echo '{\"correct\": true, \"failed\": 0, \"metrics\": {}}'",
    );
    let o = gate(&parent, &change);
    assert_eq!(
        o.status.code(),
        Some(2),
        "{}{}",
        String::from_utf8_lossy(&o.stdout),
        String::from_utf8_lossy(&o.stderr)
    );
    std::fs::remove_dir_all(&root).ok();
}
