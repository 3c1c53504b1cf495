//! End-to-end exercise of the `obsctl` binary: a real (tiny-scale)
//! observatory run, the regression verdict against healthy / regressed
//! / malformed baselines, and the `AARRAY_OBS_HISTOGRAMS` env branch.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn obsctl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_obsctl"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("obsctl-e2e-{}-{}", tag, std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn run_observatory(dir: &Path) -> PathBuf {
    let out = dir.join("BENCH_pr3.json");
    let o = obsctl()
        .args(["run", "--scales", "400", "--reps", "2", "--out"])
        .arg(&out)
        .output()
        .unwrap();
    assert!(
        o.status.success(),
        "obsctl run failed:\n{}{}",
        String::from_utf8_lossy(&o.stdout),
        String::from_utf8_lossy(&o.stderr)
    );
    out
}

fn check(current: &Path, against: &Path) -> Output {
    obsctl()
        .args(["check", "--current"])
        .arg(current)
        .arg("--against")
        .arg(against)
        .output()
        .unwrap()
}

#[test]
fn run_produces_schema_valid_observatory_file() {
    let dir = tmpdir("run");
    let out = run_observatory(&dir);
    let text = std::fs::read_to_string(&out).unwrap();
    let doc = aarray_harness::json::parse(&text).expect("BENCH_pr3.json must parse");
    assert_eq!(
        aarray_harness::schema::classify(&doc).unwrap(),
        aarray_harness::schema::BenchKind::V3
    );

    // ≥ 4 distinct non-empty histograms (row shapes + dispatch flops).
    let hists = doc
        .path(&["report", "histograms"])
        .unwrap()
        .as_obj()
        .unwrap();
    let live: Vec<&String> = hists
        .iter()
        .filter(|(_, h)| h.get("count").unwrap().as_u64().unwrap() > 0)
        .map(|(k, _)| k)
        .collect();
    assert!(live.len() >= 4, "live histograms: {:?}", live);

    // Peak-memory figures are present and non-zero somewhere.
    let mem = doc.path(&["report", "mem"]).unwrap().as_obj().unwrap();
    assert!(mem
        .values()
        .any(|e| e.get("peak").unwrap().as_u64().unwrap() > 0));

    // Counters recorded the fused traversals of fig3 + fig5 runs.
    let fused = doc
        .path(&["report", "counters", "fused.traversals"])
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(fused >= 2, "fused.traversals = {}", fused);

    // Self-comparison is a clean pass (identical numbers, 0% growth).
    let o = check(&out, &out);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stdout));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_flags_synthetic_regression_and_rejects_bad_schema() {
    let dir = tmpdir("check");
    let current = run_observatory(&dir);
    let text = std::fs::read_to_string(&current).unwrap();

    // Baseline whose wall median is far below the current run's: the
    // current run regresses against it. Halving every median (they are
    // emitted as "median_ns": N) guarantees > 15% apparent growth for
    // every stage above the noise floor; the wall stage of a real run
    // is always above 50 µs in a debug binary.
    let mut regressed = String::with_capacity(text.len());
    for piece in text.split("\"median_ns\": ") {
        if regressed.is_empty() {
            regressed.push_str(piece);
            continue;
        }
        regressed.push_str("\"median_ns\": ");
        let digits: String = piece.chars().take_while(char::is_ascii_digit).collect();
        let rest = &piece[digits.len()..];
        let halved: u64 = digits.parse::<u64>().unwrap() / 2;
        regressed.push_str(&halved.to_string());
        regressed.push_str(rest);
    }
    let baseline = dir.join("BENCH_fast_baseline.json");
    std::fs::write(&baseline, &regressed).unwrap();
    let o = check(&current, &baseline);
    assert_eq!(
        o.status.code(),
        Some(1),
        "halved baseline must trip the 15% gate:\n{}",
        String::from_utf8_lossy(&o.stdout)
    );
    assert!(String::from_utf8_lossy(&o.stdout).contains("REGRESSED"));

    // Legacy-format regressed baseline: tiny fused_ms at our scale.
    let legacy = dir.join("BENCH_legacy_fast.json");
    std::fs::write(
        &legacy,
        r#"{"bench":"fused_vs_sequential","workload":{"tracks":400},"fused_ms":0.051,"reps":1}"#,
    )
    .unwrap();
    let o = check(&current, &legacy);
    // Either the gate trips (debug totals are well above 0.051 ms) or —
    // never — it passes; pin the regression.
    assert_eq!(
        o.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&o.stdout)
    );

    // Schema-invalid baseline: exit 2, not a silent pass.
    let bad = dir.join("BENCH_bad.json");
    std::fs::write(&bad, r#"{"schema_version": 42, "bench": "??"}"#).unwrap();
    let o = check(&current, &bad);
    assert_eq!(
        o.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&o.stderr)
    );
    assert!(String::from_utf8_lossy(&o.stderr).contains("schema_version"));

    // Unparseable baseline: also exit 2.
    let garbage = dir.join("BENCH_garbage.json");
    std::fs::write(&garbage, "{ not json").unwrap();
    let o = check(&current, &garbage);
    assert_eq!(o.status.code(), Some(2));

    // Missing current file: exit 2.
    let o = check(&dir.join("nope.json"), &baseline);
    assert_eq!(o.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn histogram_env_knob_controls_capture() {
    let dir = tmpdir("env");

    // Disabled: the run still succeeds (with a warning), the file is
    // schema-valid, and every histogram is empty.
    let off = dir.join("BENCH_off.json");
    let o = obsctl()
        .args(["run", "--scales", "300", "--reps", "1", "--out"])
        .arg(&off)
        .env(aarray_obs::HISTOGRAMS_ENV, "0")
        .output()
        .unwrap();
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    assert!(
        String::from_utf8_lossy(&o.stderr).contains("histograms will be empty"),
        "{}",
        String::from_utf8_lossy(&o.stderr)
    );
    let doc = aarray_harness::json::parse(&std::fs::read_to_string(&off).unwrap()).unwrap();
    assert_eq!(
        aarray_harness::schema::classify(&doc).unwrap(),
        aarray_harness::schema::BenchKind::V3
    );
    assert_eq!(
        doc.get("histograms_enabled"),
        Some(&aarray_harness::json::Value::Bool(false))
    );
    let hists = doc
        .path(&["report", "histograms"])
        .unwrap()
        .as_obj()
        .unwrap();
    assert!(
        hists
            .values()
            .all(|h| h.get("count").unwrap().as_u64() == Some(0)),
        "histograms must be empty with {}=0",
        aarray_obs::HISTOGRAMS_ENV
    );
    // Counters and memory accounting stay on regardless of the knob.
    assert!(
        doc.path(&["report", "counters", "fused.traversals"])
            .unwrap()
            .as_u64()
            .unwrap()
            >= 2
    );

    // Enabled (any other value): histograms fill in.
    let on = dir.join("BENCH_on.json");
    let o = obsctl()
        .args(["run", "--scales", "300", "--reps", "1", "--out"])
        .arg(&on)
        .env(aarray_obs::HISTOGRAMS_ENV, "1")
        .output()
        .unwrap();
    assert!(o.status.success());
    let doc = aarray_harness::json::parse(&std::fs::read_to_string(&on).unwrap()).unwrap();
    let hists = doc
        .path(&["report", "histograms"])
        .unwrap()
        .as_obj()
        .unwrap();
    let live = hists
        .values()
        .filter(|h| h.get("count").unwrap().as_u64().unwrap() > 0)
        .count();
    assert!(live >= 4, "expected ≥4 live histograms, got {}", live);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streaming_workload_emits_bench_pr4() {
    let dir = tmpdir("stream");
    let out = dir.join("BENCH_pr4.json");
    let o = obsctl()
        .args(["stream", "--scales", "400", "--reps", "2", "--out"])
        .arg(&out)
        .output()
        .unwrap();
    assert!(
        o.status.success(),
        "obsctl stream failed:\n{}{}",
        String::from_utf8_lossy(&o.stdout),
        String::from_utf8_lossy(&o.stderr)
    );
    assert!(
        String::from_utf8_lossy(&o.stdout).contains("% of rebuild)"),
        "{}",
        String::from_utf8_lossy(&o.stdout)
    );

    let doc = aarray_harness::json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(
        aarray_harness::schema::classify(&doc).unwrap(),
        aarray_harness::schema::BenchKind::V3
    );
    let names: Vec<&str> = doc
        .get("workloads")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|w| w.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(names, vec!["stream-incr", "stream-rebuild"]);

    // The incremental layer's counters are live in the embedded report:
    // batches were appended and the delta kernel traversed them.
    for counter in [
        "incremental.batches",
        "incremental.apply",
        "delta.traversals",
    ] {
        let v = doc
            .path(&["report", "counters", counter])
            .and_then(aarray_harness::json::Value::as_u64)
            .unwrap_or(0);
        assert!(v >= 1, "counter {} must be live, got {}", counter, v);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_reports_new_metrics_with_own_exit_code() {
    let dir = tmpdir("newmetric");
    let current = run_observatory(&dir);
    let text = std::fs::read_to_string(&current).unwrap();

    // Baseline that has never seen the fig3 workload: every fig3 stage
    // above the noise floor in the current run is a *new metric* — not
    // a silent 0%-growth pass (the zero-baseline bug this pins down).
    assert!(text.contains("\"name\": \"fig3\""), "emitter shape changed");
    let baseline = dir.join("BENCH_no_fig3.json");
    std::fs::write(
        &baseline,
        text.replace("\"name\": \"fig3\"", "\"name\": \"zzz3\""),
    )
    .unwrap();

    let o = check(&current, &baseline);
    let stdout = String::from_utf8_lossy(&o.stdout);
    assert_eq!(o.status.code(), Some(3), "{}", stdout);
    assert!(stdout.contains("NEW"), "{}", stdout);
    assert!(stdout.contains("new metric"), "{}", stdout);
    assert!(!stdout.contains("REGRESSED"), "{}", stdout);

    // Same comparison with --allow-new: informational, exit 0.
    let o = obsctl()
        .args(["check", "--allow-new", "--current"])
        .arg(&current)
        .arg("--against")
        .arg(&baseline)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&o.stdout);
    assert_eq!(o.status.code(), Some(0), "{}", stdout);
    assert!(stdout.contains("accepted via --allow-new"), "{}", stdout);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unparsable_env_knobs_warn_once_and_fall_back() {
    let dir = tmpdir("envwarn");
    let out = dir.join("BENCH_envwarn.json");
    let o = obsctl()
        .args(["run", "--scales", "300", "--reps", "2", "--out"])
        .arg(&out)
        .env(aarray_obs::HISTOGRAMS_ENV, "yes")
        .env(aarray_core::PAR_FLOPS_THRESHOLD_ENV, "128k")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert!(o.status.success(), "{}", stderr);

    // Each unparsable knob warns exactly once per process, naming the
    // variable, the rejected value, and the fallback.
    let hist_warn = format!(
        "ignoring unparsable {}=\"yes\"; using the default (histograms enabled)",
        aarray_obs::HISTOGRAMS_ENV
    );
    let thresh_warn = format!(
        "ignoring unparsable {}=\"128k\"; using the default threshold",
        aarray_core::PAR_FLOPS_THRESHOLD_ENV
    );
    for warn in [&hist_warn, &thresh_warn] {
        assert_eq!(
            stderr.matches(warn.as_str()).count(),
            1,
            "expected exactly one {:?} in:\n{}",
            warn,
            stderr
        );
    }

    // Fallbacks hold: histograms default to enabled, and the run
    // completes as a valid capture.
    let doc = aarray_harness::json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(
        doc.get("histograms_enabled"),
        Some(&aarray_harness::json::Value::Bool(true))
    );
    assert_eq!(
        aarray_harness::schema::classify(&doc).unwrap(),
        aarray_harness::schema::BenchKind::V3
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_rejects_bad_invocations() {
    for args in [
        &["frobnicate"][..],
        &["run", "--scales", "abc"][..],
        &["run", "--reps"][..],
        &["check", "--lat-tol", "much"][..],
    ] {
        let o = obsctl().args(args).output().unwrap();
        assert_eq!(o.status.code(), Some(2), "args {:?}", args);
    }
    let o = obsctl().arg("--help").output().unwrap();
    assert!(o.status.success());
    assert!(String::from_utf8_lossy(&o.stdout).contains("obsctl run"));
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
    // No counter-parity warnings: the journal reproduced the registry.
    assert!(
        !stderr.contains("but the counter says"),
        "audit mismatch:\n{}",
        stderr
    );

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
    assert!(text.contains("\"accumulator\""));
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
fn check_json_emits_schema_versioned_verdicts() {
    let dir = tmpdir("check-json");
    let current = run_observatory(&dir);
    let text = std::fs::read_to_string(&current).unwrap();

    // Passing verdict: self-comparison, exit 0, every finding "ok".
    let verdict_path = dir.join("verdict-pass.json");
    let o = obsctl()
        .args(["check", "--current"])
        .arg(&current)
        .arg("--against")
        .arg(&current)
        .arg("--json")
        .arg(&verdict_path)
        .output()
        .unwrap();
    assert!(o.status.success());
    let doc = aarray_harness::json::parse(&std::fs::read_to_string(&verdict_path).unwrap())
        .expect("verdict must be valid JSON");
    assert_eq!(doc.get("schema_version").unwrap().as_u64(), Some(1));
    assert_eq!(doc.get("tool").unwrap().as_str(), Some("obsctl-check"));
    assert_eq!(doc.get("exit_code").unwrap().as_u64(), Some(0));
    // A clean run carries its drop accounting into the verdict.
    assert_eq!(doc.get("journal_dropped").unwrap().as_u64(), Some(0));
    let comps = doc.get("comparisons").unwrap().as_arr().unwrap();
    assert_eq!(comps.len(), 1);
    let findings = comps[0].get("findings").unwrap().as_arr().unwrap();
    assert!(!findings.is_empty());
    for f in findings {
        assert_eq!(f.get("status").unwrap().as_str(), Some("ok"), "{:?}", f);
        assert!(f.get("metric").unwrap().as_str().is_some());
        assert!(f.get("pct").unwrap().as_f64().is_some());
    }

    // Regressed verdict: halve every baseline median, exit 1, at least
    // one finding flagged "regressed".
    let mut regressed = String::with_capacity(text.len());
    for piece in text.split("\"median_ns\": ") {
        if regressed.is_empty() {
            regressed.push_str(piece);
            continue;
        }
        regressed.push_str("\"median_ns\": ");
        let digits: String = piece.chars().take_while(char::is_ascii_digit).collect();
        let rest = &piece[digits.len()..];
        let halved: u64 = digits.parse::<u64>().unwrap() / 2;
        regressed.push_str(&halved.to_string());
        regressed.push_str(rest);
    }
    let baseline = dir.join("halved.json");
    std::fs::write(&baseline, &regressed).unwrap();
    let verdict_path = dir.join("verdict-regressed.json");
    let o = obsctl()
        .args(["check", "--current"])
        .arg(&current)
        .arg("--against")
        .arg(&baseline)
        .arg("--json")
        .arg(&verdict_path)
        .output()
        .unwrap();
    assert_eq!(o.status.code(), Some(1));
    let doc =
        aarray_harness::json::parse(&std::fs::read_to_string(&verdict_path).unwrap()).unwrap();
    assert_eq!(doc.get("exit_code").unwrap().as_u64(), Some(1));
    let comps = doc.get("comparisons").unwrap().as_arr().unwrap();
    assert!(comps[0].get("regressions").unwrap().as_u64().unwrap() >= 1);
    let findings = comps[0].get("findings").unwrap().as_arr().unwrap();
    assert!(findings
        .iter()
        .any(|f| f.get("status").unwrap().as_str() == Some("regressed")));

    // New-metric verdict: rename fig3 so the current run has workloads
    // the baseline lacks — exit 3 and "new" findings; --allow-new
    // downgrades to exit 0 while the findings stay marked "new".
    let renamed = text.replace("\"name\": \"fig3\"", "\"name\": \"zzz3\"");
    let baseline = dir.join("renamed.json");
    std::fs::write(&baseline, &renamed).unwrap();
    let verdict_path = dir.join("verdict-new.json");
    let o = obsctl()
        .args(["check", "--current"])
        .arg(&current)
        .arg("--against")
        .arg(&baseline)
        .arg("--json")
        .arg(&verdict_path)
        .output()
        .unwrap();
    assert_eq!(o.status.code(), Some(3));
    let doc =
        aarray_harness::json::parse(&std::fs::read_to_string(&verdict_path).unwrap()).unwrap();
    assert_eq!(doc.get("exit_code").unwrap().as_u64(), Some(3));
    let comps = doc.get("comparisons").unwrap().as_arr().unwrap();
    assert!(comps[0].get("new_metrics").unwrap().as_u64().unwrap() >= 1);
    let findings = comps[0].get("findings").unwrap().as_arr().unwrap();
    assert!(findings
        .iter()
        .any(|f| f.get("status").unwrap().as_str() == Some("new")));

    let verdict_path = dir.join("verdict-allow-new.json");
    let o = obsctl()
        .args(["check", "--current"])
        .arg(&current)
        .arg("--against")
        .arg(&baseline)
        .arg("--allow-new")
        .arg("--json")
        .arg(&verdict_path)
        .output()
        .unwrap();
    assert!(o.status.success());
    let doc =
        aarray_harness::json::parse(&std::fs::read_to_string(&verdict_path).unwrap()).unwrap();
    assert_eq!(doc.get("exit_code").unwrap().as_u64(), Some(0));
    assert_eq!(
        doc.get("allow_new"),
        Some(&aarray_harness::json::Value::Bool(true))
    );
    std::fs::remove_dir_all(&dir).ok();
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
fn top_ticks_while_the_workload_runs_and_prints_a_final_table() {
    let o = obsctl()
        .args([
            "top",
            "fig3",
            "--rows",
            "600",
            "--reps",
            "6",
            "--interval-ms",
            "25",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&o.stdout);
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert!(o.status.success(), "{}{}", stdout, stderr);
    assert!(stdout.contains("tick"), "{}", stdout);
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

    let o = obsctl()
        .args(["top", "--interval-ms", "0"])
        .output()
        .unwrap();
    assert_eq!(o.status.code(), Some(2));
}

/// Hand-crafted v3 document whose four component stages sum exactly to
/// its wall figure, so diff attribution over it is deterministic.
fn synthetic_v3(dir: &Path, file: &str, numeric_ns: u64, serial: u64, parallel: u64) -> PathBuf {
    let wall = 100_000 + 300_000 + 600_000 + numeric_ns;
    let doc = format!(
        r#"{{
          "schema_version": 3, "bench": "perf-observatory", "reps": 3,
          "histograms_enabled": false,
          "workloads": [{{"name":"fig3","rows":20000,"product_nnz":7,"stages":{{
            "align":{{"median_ns":100000}},"transpose":{{"median_ns":300000}},
            "symbolic":{{"median_ns":600000}},"numeric":{{"median_ns":{numeric}}},
            "total":{{"median_ns":{wall}}},"wall":{{"median_ns":{wall}}}}}}}],
          "report": {{"schema_version": 3,
            "counters": {{"dispatch.serial": {serial}, "dispatch.parallel": {parallel}}},
            "histograms": {{}},
            "mem": {{"spa-scratch":{{"current":0,"peak":2097152}}}}}}
        }}"#,
        numeric = numeric_ns,
        wall = wall,
        serial = serial,
        parallel = parallel,
    );
    let path = dir.join(file);
    std::fs::write(&path, doc).unwrap();
    path
}

#[test]
fn diff_attributes_synthetic_regression_above_ninety_percent() {
    let dir = tmpdir("diff");
    // B's numeric doubles (+2 ms on a 3 ms wall) and its dispatch goes
    // all-serial → all-parallel; every other stage is flat.
    let a = synthetic_v3(&dir, "a.json", 2_000_000, 12, 0);
    let b = synthetic_v3(&dir, "b.json", 4_000_000, 0, 12);
    let verdict = dir.join("diff.json");

    let o = obsctl()
        .arg("diff")
        .arg(&a)
        .arg(&b)
        .arg("--json")
        .arg(&verdict)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&o.stdout);
    assert!(
        o.status.success(),
        "{}{}",
        stdout,
        String::from_utf8_lossy(&o.stderr)
    );
    assert!(stdout.contains("wall delta"), "{}", stdout);
    assert!(stdout.contains("fig3@20000/numeric"), "{}", stdout);
    assert!(stdout.contains("dispatch serial↔parallel"), "{}", stdout);

    let doc = aarray_harness::json::parse(&std::fs::read_to_string(&verdict).unwrap())
        .expect("diff verdict must parse");
    assert_eq!(doc.get("tool").unwrap().as_str(), Some("obsctl-diff"));
    assert_eq!(doc.get("wall_delta_ns").unwrap().as_u64(), Some(2_000_000));
    // The attribution acceptance bar: ≥ 90% of the delta explained.
    let explained = doc.get("explained_pct").unwrap().as_f64().unwrap();
    assert!(explained >= 90.0, "explained only {:.1}%", explained);
    let contributors = doc.get("contributors").unwrap().as_arr().unwrap();
    let top = &contributors[0];
    assert_eq!(
        top.get("metric").unwrap().as_str(),
        Some("fig3@20000/numeric")
    );
    assert_eq!(
        top.get("included").unwrap(),
        &aarray_harness::json::Value::Bool(true)
    );
    let flips = doc.get("flips").unwrap().as_arr().unwrap();
    assert_eq!(flips.len(), 1, "one dispatch flip expected");
    assert_eq!(flips[0].get("stage").unwrap().as_str(), Some("numeric"));

    // Identical inputs: zero delta, nothing included, clean exit.
    let o = obsctl().arg("diff").arg(&a).arg(&a).output().unwrap();
    assert!(o.status.success());
    assert!(
        String::from_utf8_lossy(&o.stdout).contains("wall delta +0 ns"),
        "{}",
        String::from_utf8_lossy(&o.stdout)
    );

    // Bad invocations exit 2: wrong arity, unreadable file.
    let o = obsctl().arg("diff").arg(&a).output().unwrap();
    assert_eq!(o.status.code(), Some(2));
    let o = obsctl()
        .args(["diff", "no-such-a.json", "no-such-b.json"])
        .output()
        .unwrap();
    assert_eq!(o.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn history_ingests_every_committed_baseline_lineage() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files: Vec<PathBuf> = (1..=6)
        .map(|i| root.join(format!("BENCH_pr{}.json", i)))
        .collect();
    files.retain(|f| f.exists());
    assert!(
        files.len() >= 6,
        "expected the six committed baselines, found {:?}",
        files
    );

    let dir = tmpdir("history");
    let out = dir.join("history.json");
    let mut cmd = obsctl();
    cmd.arg("history");
    for f in &files {
        cmd.arg(f);
    }
    let o = cmd.arg("--out").arg(&out).output().unwrap();
    let stdout = String::from_utf8_lossy(&o.stdout);
    assert!(
        o.status.success(),
        "{}{}",
        stdout,
        String::from_utf8_lossy(&o.stderr)
    );
    // Every lineage shape lands in one table: the legacy fused figure,
    // the v3/v4 stage medians, and the parbench 1-thread cells share
    // the fig3@20000 / stream-incr metric space.
    assert!(stdout.contains("fig3@20000/total"), "{}", stdout);
    assert!(stdout.contains("stream-incr@"), "{}", stdout);
    assert!(stdout.contains("slope"), "{}", stdout);

    // The machine document round-trips through the hand-rolled parser.
    let doc = aarray_harness::json::parse(&std::fs::read_to_string(&out).unwrap())
        .expect("history output must round-trip");
    assert_eq!(doc.get("tool").unwrap().as_str(), Some("obsctl-history"));
    let listed = doc.get("files").unwrap().as_arr().unwrap();
    assert_eq!(listed.len(), files.len());
    let trends = doc.get("trends").unwrap().as_arr().unwrap();
    assert!(!trends.is_empty());
    // fig3@20000/total spans the PR1 legacy figure and the PR3
    // observatory file: at least two present points in its row.
    let fig3_total = trends
        .iter()
        .find(|t| t.get("metric").unwrap().as_str() == Some("fig3@20000/total"))
        .expect("fig3@20000/total must be trended");
    let present = fig3_total
        .get("values")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter(|v| v.as_u64().is_some())
        .count();
    assert!(present >= 2, "fig3@20000/total spans {} file(s)", present);

    // A malformed file poisons the run with exit 2, never silence.
    let junk = dir.join("junk.json");
    std::fs::write(&junk, "{\"bench\": \"mystery\"}").unwrap();
    let o = obsctl().arg("history").arg(&junk).output().unwrap();
    assert_eq!(o.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_out_captures_decisions_and_diffs_against_bench_files() {
    let dir = tmpdir("profile");
    let bench = dir.join("BENCH_pr3.json");
    let profile = dir.join("profile.json");
    let o = obsctl()
        .args(["run", "--scales", "400", "--reps", "2", "--out"])
        .arg(&bench)
        .arg("--profile-out")
        .arg(&profile)
        .output()
        .unwrap();
    assert!(
        o.status.success(),
        "{}{}",
        String::from_utf8_lossy(&o.stdout),
        String::from_utf8_lossy(&o.stderr)
    );

    let doc = aarray_harness::json::parse(&std::fs::read_to_string(&profile).unwrap())
        .expect("profile must parse");
    assert_eq!(doc.get("tool").unwrap().as_str(), Some("obsctl-profile"));
    // The run's decisions are tallied with their stage assignment, the
    // pool section reflects the host, and the op-kind stage totals
    // cover the plan executions the workloads performed.
    let serial = doc
        .path(&["decisions", "dispatch.serial", "count"])
        .unwrap()
        .as_u64()
        .unwrap();
    let parallel = doc
        .path(&["decisions", "dispatch.parallel", "count"])
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(serial + parallel >= 1, "no dispatch decisions recorded");
    assert!(doc.get("pool").is_some());
    let kinds = doc.get("op_kinds").unwrap().as_obj().unwrap();
    assert!(
        kinds.contains_key("plan-execute"),
        "op kinds: {:?}",
        kinds.keys().collect::<Vec<_>>()
    );

    // A profile diffs cleanly against itself and against the bench
    // file written by the same run (both normalize to the same stage
    // space; identical numbers → zero delta for the self-pair).
    let o = obsctl()
        .arg("diff")
        .arg(&profile)
        .arg(&profile)
        .output()
        .unwrap();
    assert!(o.status.success());
    assert!(
        String::from_utf8_lossy(&o.stdout).contains("wall delta +0 ns"),
        "{}",
        String::from_utf8_lossy(&o.stdout)
    );
    let o = obsctl()
        .arg("diff")
        .arg(&profile)
        .arg(&bench)
        .output()
        .unwrap();
    assert!(
        o.status.success(),
        "{}{}",
        String::from_utf8_lossy(&o.stdout),
        String::from_utf8_lossy(&o.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_json_attribution_names_stage_contributors() {
    let dir = tmpdir("check-attr");
    // A synthetic pair in the same stage space: the "current" run's
    // numeric stage doubled against the baseline, so checking current
    // against baseline regresses and the attribution must say why.
    let baseline = synthetic_v3(&dir, "baseline.json", 2_000_000, 6, 6);
    let current = synthetic_v3(&dir, "current.json", 4_000_000, 6, 6);
    let verdict = dir.join("check.json");

    let o = obsctl()
        .args(["check", "--current"])
        .arg(&current)
        .arg("--against")
        .arg(&baseline)
        .arg("--json")
        .arg(&verdict)
        .output()
        .unwrap();
    assert_eq!(
        o.status.code(),
        Some(1),
        "doubled numeric must regress:\n{}",
        String::from_utf8_lossy(&o.stdout)
    );

    let doc = aarray_harness::json::parse(&std::fs::read_to_string(&verdict).unwrap())
        .expect("check verdict must parse");
    let comparisons = doc.get("comparisons").unwrap().as_arr().unwrap();
    let attribution = comparisons[0]
        .get("attribution")
        .expect("attribution field must exist")
        .as_obj()
        .unwrap();
    assert!(!attribution.is_empty(), "no attribution for regressions");
    for (metric, top) in attribution {
        let top = top.as_arr().unwrap();
        assert!(
            top.len() <= 3,
            "{}: top-3 cap violated ({} entries)",
            metric,
            top.len()
        );
        assert!(!top.is_empty(), "{}: empty attribution", metric);
        // The dominant contributor to every regressed fig3 metric is
        // the numeric stage — that is where the synthetic delta lives.
        assert_eq!(
            top[0].get("metric").unwrap().as_str(),
            Some("fig3@20000/numeric"),
            "{}",
            metric
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
