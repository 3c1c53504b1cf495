//! `obsctl` — run the perf observatory and check for regressions.
//!
//! ```text
//! obsctl run    [--out BENCH_pr3.json] [--scales 2000,8000,20000]
//!               [--reps 5] [--prometheus <path>] [--profile-out <path>]
//! obsctl stream [--out BENCH_pr4.json] [--scales 2000,8000,20000]
//!               [--reps 5] [--profile-out <path>]
//! obsctl parbench [--out BENCH_pr6.json] [--scales 2000,8000,20000]
//!               [--reps 5] [--threads 1,2,4]
//! obsctl check  [--current BENCH_pr3.json] [--against <file>]...
//!               [--lat-tol 15] [--mem-tol 20] [--allow-new]
//!               [--stages align,numeric,total]
//! obsctl --check          # check with the defaults above
//! ```
//!
//! `run` replays the Figure 3/5 workloads at each scale, captures the
//! observability delta (counters, histograms, memory peaks) and
//! per-stage medians, and writes a schema-versioned observatory file.
//! With `--prometheus` the same capture is also written in Prometheus
//! text exposition format for the node-exporter textfile collector.
//!
//! `stream` replays the streaming-ingest workload: at each scale the
//! last 10% of edges arrive as an appended batch, and the five
//! associative-`⊕` adjacency lanes are brought current both
//! incrementally (delta SpGEMM) and by full rebuild, cross-checked
//! bit-identical. The per-scale medians land in `BENCH_pr4.json` as
//! `stream-incr` / `stream-rebuild` workload pairs.
//!
//! `parbench` sweeps the fig3/fig5/stream workloads across forced
//! rayon pool sizes (the flops dispatch gate is dropped to zero above
//! one thread so every numeric pass takes the row-parallel kernel),
//! records per-cell medians, pool task tallies, and numeric-pass
//! speedups against the 1-thread cell, and writes `BENCH_pr6.json`
//! with the host's core count — the scaling numbers are only
//! meaningful next to `host_threads`.
//!
//! `trace --expect-parallel` exits nonzero unless the exported
//! timeline proves real concurrency: leaf numeric spans on two or
//! more thread tracks with temporally overlapping windows.
//!
//! `ops` replays one workload against a reset op ledger and prints the
//! per-op-kind tail table (count / p50 / p95 / p99 wall ns), the
//! slowest-N exemplar records with their per-stage breakdown, and cuts
//! the slowest op's journal window into a per-op Chrome trace.
//!
//! `top` runs one workload on a background thread and prints a live
//! snapshot/diff line per sampling interval — ops completed per kind
//! with interval p95s, plus journal growth — then a final tail table.
//!
//! `watch` is the live half of the observatory: it runs one workload
//! while a background [`aarray_obs::Collector`] samples full reports
//! into a bounded frame ring. With `--listen` an embedded `std::net`
//! HTTP/1.0 server serves `GET /metrics` (Prometheus exposition from
//! the latest frame), `/report.json`, `/series.json` (the ring as
//! sparkline columns), and `/healthz` (sampler liveness + drop
//! counts); without it, the terminal shows `top`-style interval diffs
//! derived from frame pairs. `fetch` is the matching dependency-free
//! HTTP client so CI needs no `curl`.
//!
//! `check` validates every file's schema (exit 2 on a malformed or
//! unknown-schema file), compares the current run against each
//! baseline — v3 files stage-by-stage and region-by-region, legacy
//! PR1/PR2 files via their single figure — and exits 1 if any median
//! stage latency regressed beyond `--lat-tol` percent or any peak
//! memory beyond `--mem-tol` percent (noise floors: 50 µs, 1 MiB).
//! Metrics with no (nonzero) baseline but real current signal are
//! reported as **NEW** and exit 3 — distinct from both "ok" (0) and
//! "regressed" (1) so CI can choose its policy; `--allow-new`
//! downgrades them to informational. With `--json`, each regressed
//! metric additionally carries an `attribution` field naming the top
//! same-workload stage deltas between the two documents.
//!
//! `diff` normalizes two run documents — `--profile-out` profiles,
//! v3/v4 observatory files, or legacy single-figure baselines — and
//! attributes their wall-time delta to ranked per-stage contributors
//! (until ≥ 90% is explained) annotated with decision flips
//! (serial↔parallel dispatch, plan-cache hit rates, Spa↔Hash
//! accumulator selection, delta-apply↔rebuild fallback).
//!
//! `history` ingests every committed `BENCH_pr*.json` lineage shape —
//! legacy PR1/PR2, v3/v4 observatory, the parbench matrix (1-thread
//! cells) — and prints a metric×file trend table with noise-floored
//! slope flags.

use aarray_harness::chrome_trace;
use aarray_harness::compare::{compare, CheckConfig};
use aarray_harness::httpd::{http_get, telemetry_handler, Httpd};
use aarray_harness::json::parse;
use aarray_harness::schema::{classify, BenchKind};
use aarray_harness::workloads::{
    bench_json, measure_journal_note, run_streaming, run_workload, Figure,
};
use aarray_obs::{journal, ObsReport};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("stream") => cmd_stream(&args[1..]),
        Some("parbench") => cmd_parbench(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("ops") => cmd_ops(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("fetch") => cmd_fetch(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("history") => cmd_history(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("--check") => cmd_check(&args[1..]),
        Some("--help" | "-h" | "help") => {
            print!("{}", USAGE);
            ExitCode::SUCCESS
        }
        other => {
            eprintln!(
                "obsctl: expected a subcommand, got {:?}\n{}",
                other.unwrap_or("<none>"),
                USAGE
            );
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage:
  obsctl run    [--out BENCH_pr3.json] [--scales 2000,8000,20000] [--reps 5]
                [--prometheus <path>]
  obsctl stream [--out BENCH_pr4.json] [--scales 2000,8000,20000] [--reps 5]
  obsctl parbench [--out BENCH_pr6.json] [--scales 2000,8000,20000] [--reps 5]
                [--threads 1,2,4]
  obsctl trace  [fig3|fig5|stream] [--rows 2000] [--reps 1]
                [--out <workload>.trace.json] [--expect-parallel]
  obsctl ops    [fig3|fig5|stream] [--rows 2000] [--reps 3] [--slowest 5]
                [--trace-out <workload>.optrace.json]
  obsctl top    [fig3|fig5|stream] [--rows 4000] [--reps 20]
                [--interval-ms 200]
  obsctl watch  [fig3|fig5|stream] [--rows 4000] [--reps 20]
                [--interval-ms <AARRAY_OBS_SAMPLE_MS>] [--listen 127.0.0.1:PORT]
                [--port-file <path>]
  obsctl fetch  <http://host:port/path> [--out <path>] [--timeout-ms 5000]
  obsctl check  [--current BENCH_pr3.json] [--against <file>]...
                [--lat-tol 15] [--mem-tol 20] [--allow-new] [--json <path>]
                [--stages align,numeric,total]
  obsctl diff   <A.json> <B.json> [--json <path>]
  obsctl history <BENCH_*.json>... [--out <path>]
  obsctl --check
";

fn take_value(it: &mut std::slice::Iter<String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{} needs a value", flag))
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut out_path = "BENCH_pr3.json".to_string();
    let mut prom_path: Option<String> = None;
    let mut profile_path: Option<String> = None;
    let mut scales: Vec<usize> = vec![2_000, 8_000, 20_000];
    let mut reps = 5usize;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let r = match a.as_str() {
            "--out" => take_value(&mut it, a).map(|v| out_path = v),
            "--prometheus" => take_value(&mut it, a).map(|v| prom_path = Some(v)),
            "--profile-out" => take_value(&mut it, a).map(|v| profile_path = Some(v)),
            "--reps" => take_value(&mut it, a).and_then(|v| {
                v.parse()
                    .map(|n| reps = n)
                    .map_err(|_| format!("--reps: bad count {:?}", v))
            }),
            "--scales" => take_value(&mut it, a).and_then(|v| {
                v.split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()
                    .map(|v| scales = v)
                    .map_err(|_| format!("--scales: bad list {:?}", v))
            }),
            _ => Err(format!("unknown flag {:?}", a)),
        };
        if let Err(e) = r {
            eprintln!("obsctl run: {}\n{}", e, USAGE);
            return ExitCode::from(2);
        }
    }
    if scales.is_empty() || reps == 0 {
        eprintln!("obsctl run: need at least one scale and one rep");
        return ExitCode::from(2);
    }

    let hist_on = aarray_obs::histograms_enabled();
    if !hist_on {
        eprintln!(
            "obsctl run: warning: {}=0 — shape/dispatch histograms will be empty in this capture",
            aarray_obs::HISTOGRAMS_ENV
        );
    }

    let before = ObsReport::capture();
    let ops_cursor = aarray_obs::oplog().cursor();
    let mut runs = Vec::new();
    for &rows in &scales {
        for figure in [Figure::Fig3, Figure::Fig5] {
            let run = run_workload(figure, rows, reps);
            println!(
                "{:>5}@{:<6} total {:>9.3} ms  wall {:>9.3} ms  product nnz {}",
                run.name,
                run.rows,
                run.stages.total_ns as f64 / 1e6,
                run.stages.wall_ns as f64 / 1e6,
                run.product_nnz
            );
            runs.push(run);
        }
    }
    let report = ObsReport::capture().since(&before);
    let note = measure_journal_note(
        &report,
        runs.iter().map(|r| r.stages.wall_ns * r.reps as u64).sum(),
    );

    let doc = bench_json(&runs, &report, reps, hist_on, Some(&note));
    // Self-check before writing: a run that emits an invalid file is a
    // bug here, not in the checker that trips over it later.
    match parse(&doc)
        .map_err(|e| e.to_string())
        .and_then(|v| classify(&v).map(|_| ()))
    {
        Ok(()) => {}
        Err(e) => {
            eprintln!(
                "obsctl run: internal error: emitted document fails validation: {}",
                e
            );
            return ExitCode::from(2);
        }
    }
    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("obsctl run: cannot write {:?}: {}", out_path, e);
        return ExitCode::from(2);
    }
    println!("observatory file written to {}", out_path);

    if let Some(p) = prom_path {
        if let Err(e) = std::fs::write(&p, report.to_prometheus()) {
            eprintln!("obsctl run: cannot write {:?}: {}", p, e);
            return ExitCode::from(2);
        }
        println!("prometheus metrics written to {}", p);
    }
    if let Some(p) = profile_path {
        if let Err(code) = write_profile("run", &p, &runs, &report, ops_cursor) {
            return code;
        }
    }
    ExitCode::SUCCESS
}

/// Emit a `--profile-out` document covering the op-ledger window that
/// opened at `ops_cursor`; shared by `run` and `stream`.
fn write_profile(
    cmd: &str,
    path: &str,
    runs: &[aarray_harness::workloads::WorkloadRun],
    report: &ObsReport,
    ops_cursor: u64,
) -> Result<(), ExitCode> {
    let totals = aarray_obs::oplog().snapshot().stage_totals(ops_cursor);
    let doc = aarray_harness::profile::profile_json(runs, report, &totals);
    if let Err(e) = parse(&doc) {
        eprintln!(
            "obsctl {}: internal error: emitted profile is not valid JSON: {}",
            cmd, e
        );
        return Err(ExitCode::from(2));
    }
    if let Err(e) = std::fs::write(path, &doc) {
        eprintln!("obsctl {}: cannot write {:?}: {}", cmd, path, e);
        return Err(ExitCode::from(2));
    }
    println!("profile written to {}", path);
    Ok(())
}

fn cmd_stream(args: &[String]) -> ExitCode {
    let mut out_path = "BENCH_pr4.json".to_string();
    let mut profile_path: Option<String> = None;
    let mut scales: Vec<usize> = vec![2_000, 8_000, 20_000];
    let mut reps = 5usize;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let r = match a.as_str() {
            "--out" => take_value(&mut it, a).map(|v| out_path = v),
            "--profile-out" => take_value(&mut it, a).map(|v| profile_path = Some(v)),
            "--reps" => take_value(&mut it, a).and_then(|v| {
                v.parse()
                    .map(|n| reps = n)
                    .map_err(|_| format!("--reps: bad count {:?}", v))
            }),
            "--scales" => take_value(&mut it, a).and_then(|v| {
                v.split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()
                    .map(|v| scales = v)
                    .map_err(|_| format!("--scales: bad list {:?}", v))
            }),
            _ => Err(format!("unknown flag {:?}", a)),
        };
        if let Err(e) = r {
            eprintln!("obsctl stream: {}\n{}", e, USAGE);
            return ExitCode::from(2);
        }
    }
    if scales.is_empty() || reps == 0 {
        eprintln!("obsctl stream: need at least one scale and one rep");
        return ExitCode::from(2);
    }
    let hist_on = aarray_obs::histograms_enabled();
    if !hist_on {
        eprintln!(
            "obsctl stream: warning: {}=0 — shape/dispatch histograms will be empty in this capture",
            aarray_obs::HISTOGRAMS_ENV
        );
    }

    let before = ObsReport::capture();
    let ops_cursor = aarray_obs::oplog().cursor();
    let mut runs = Vec::new();
    for &rows in &scales {
        let (incr, rebuild) = run_streaming(rows, reps);
        let ratio = incr.stages.total_ns as f64 / rebuild.stages.total_ns.max(1) as f64;
        println!(
            "stream@{:<6} incremental {:>9.3} ms  rebuild {:>9.3} ms  ({:.0}% of rebuild)",
            rows,
            incr.stages.total_ns as f64 / 1e6,
            rebuild.stages.total_ns as f64 / 1e6,
            ratio * 100.0
        );
        runs.push(incr);
        runs.push(rebuild);
    }
    let report = ObsReport::capture().since(&before);
    let note = measure_journal_note(
        &report,
        runs.iter().map(|r| r.stages.wall_ns * r.reps as u64).sum(),
    );
    println!(
        "journal: {} event(s), {} dropped, {:.1} ns/record, est overhead {:.3}%",
        note.recorded, note.dropped, note.ns_per_record, note.est_overhead_pct
    );

    let doc = bench_json(&runs, &report, reps, hist_on, Some(&note));
    match parse(&doc)
        .map_err(|e| e.to_string())
        .and_then(|v| classify(&v).map(|_| ()))
    {
        Ok(()) => {}
        Err(e) => {
            eprintln!(
                "obsctl stream: internal error: emitted document fails validation: {}",
                e
            );
            return ExitCode::from(2);
        }
    }
    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("obsctl stream: cannot write {:?}: {}", out_path, e);
        return ExitCode::from(2);
    }
    println!("streaming observatory file written to {}", out_path);
    if let Some(p) = profile_path {
        if let Err(code) = write_profile("stream", &p, &runs, &report, ops_cursor) {
            return code;
        }
    }
    ExitCode::SUCCESS
}

/// Schema version stamped into `obsctl parbench` scaling files.
const PARBENCH_SCHEMA_VERSION: u64 = 1;

fn cmd_parbench(args: &[String]) -> ExitCode {
    let mut out_path = "BENCH_pr6.json".to_string();
    let mut scales: Vec<usize> = vec![2_000, 8_000, 20_000];
    let mut threads: Vec<usize> = vec![1, 2, 4];
    let mut reps = 5usize;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let r = match a.as_str() {
            "--out" => take_value(&mut it, a).map(|v| out_path = v),
            "--reps" => take_value(&mut it, a).and_then(|v| {
                v.parse()
                    .map(|n| reps = n)
                    .map_err(|_| format!("--reps: bad count {:?}", v))
            }),
            "--scales" => take_value(&mut it, a).and_then(|v| {
                v.split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()
                    .map(|v| scales = v)
                    .map_err(|_| format!("--scales: bad list {:?}", v))
            }),
            "--threads" => take_value(&mut it, a).and_then(|v| {
                v.split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()
                    .map(|v| threads = v)
                    .map_err(|_| format!("--threads: bad list {:?}", v))
            }),
            _ => Err(format!("unknown flag {:?}", a)),
        };
        if let Err(e) = r {
            eprintln!("obsctl parbench: {}\n{}", e, USAGE);
            return ExitCode::from(2);
        }
    }
    if scales.is_empty() || threads.is_empty() || reps == 0 || threads.contains(&0) {
        eprintln!("obsctl parbench: need nonzero scales, threads, and reps");
        return ExitCode::from(2);
    }

    use aarray_core::{parallel_flops_threshold, set_parallel_flops_threshold};
    use aarray_obs::{snapshot, Counter};

    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let saved_threshold = parallel_flops_threshold();

    struct Cell {
        name: &'static str,
        rows: usize,
        threads: usize,
        numeric_ns: u64,
        total_ns: u64,
        wall_ns: u64,
        tasks_local: u64,
        tasks_stolen: u64,
        tasks_inline: u64,
    }
    let mut cells: Vec<Cell> = Vec::new();

    println!(
        "parbench: host has {} hardware thread(s); sweeping pool sizes {:?}",
        host_threads, threads
    );
    for &rows in &scales {
        for &t in &threads {
            let pool = match rayon::ThreadPoolBuilder::new().num_threads(t).build() {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("obsctl parbench: cannot build {}-thread pool: {}", t, e);
                    set_parallel_flops_threshold(Some(saved_threshold));
                    return ExitCode::from(2);
                }
            };
            // Above one thread, drop the flops gate so every numeric
            // pass takes the row-parallel kernel: this sweep measures
            // the pool, not the dispatch heuristic. The 1-thread cells
            // keep the production threshold and are the baseline.
            set_parallel_flops_threshold(if t > 1 {
                Some(0)
            } else {
                Some(saved_threshold)
            });

            let mut push =
                |name: &'static str, n_ns: u64, t_ns: u64, w_ns: u64, d: &aarray_obs::Snapshot| {
                    cells.push(Cell {
                        name,
                        rows,
                        threads: t,
                        numeric_ns: n_ns,
                        total_ns: t_ns,
                        wall_ns: w_ns,
                        tasks_local: d.get(Counter::PoolTasksLocal),
                        tasks_stolen: d.get(Counter::PoolTasksStolen),
                        tasks_inline: d.get(Counter::PoolTasksInline),
                    });
                };
            for figure in [Figure::Fig3, Figure::Fig5] {
                let before = snapshot();
                let run = pool.install(|| run_workload(figure, rows, reps));
                let d = snapshot().since(&before);
                println!(
                    "{:>5}@{:<6} x{} thread(s)  numeric {:>9.3} ms  wall {:>9.3} ms  \
                     tasks {}/{}/{} local/stolen/inline",
                    run.name,
                    rows,
                    t,
                    run.stages.numeric_ns as f64 / 1e6,
                    run.stages.wall_ns as f64 / 1e6,
                    d.get(Counter::PoolTasksLocal),
                    d.get(Counter::PoolTasksStolen),
                    d.get(Counter::PoolTasksInline),
                );
                push(
                    run.name,
                    run.stages.numeric_ns,
                    run.stages.total_ns,
                    run.stages.wall_ns,
                    &d,
                );
            }
            let before = snapshot();
            let (incr, rebuild) = pool.install(|| run_streaming(rows, reps));
            let d = snapshot().since(&before);
            println!(
                "stream@{:<6} x{} thread(s)  refresh {:>9.3} ms  rebuild {:>9.3} ms  \
                 tasks {}/{}/{} local/stolen/inline",
                rows,
                t,
                incr.stages.numeric_ns as f64 / 1e6,
                rebuild.stages.numeric_ns as f64 / 1e6,
                d.get(Counter::PoolTasksLocal),
                d.get(Counter::PoolTasksStolen),
                d.get(Counter::PoolTasksInline),
            );
            push(
                incr.name,
                incr.stages.numeric_ns,
                incr.stages.total_ns,
                incr.stages.wall_ns,
                &d,
            );
            push(
                rebuild.name,
                rebuild.stages.numeric_ns,
                rebuild.stages.total_ns,
                rebuild.stages.wall_ns,
                &d,
            );
        }
    }
    set_parallel_flops_threshold(Some(saved_threshold));

    // Numeric-pass speedups against the 1-thread cell of the same
    // workload and scale (only emitted when that baseline was swept).
    let speedup = |c: &Cell| -> Option<f64> {
        cells
            .iter()
            .find(|b| b.threads == 1 && b.name == c.name && b.rows == c.rows)
            .map(|b| b.numeric_ns as f64 / c.numeric_ns.max(1) as f64)
    };
    if let Some(&tmax) = threads.iter().max() {
        if tmax > 1 && threads.contains(&1) {
            println!();
            for c in cells.iter().filter(|c| c.threads == tmax) {
                if let Some(s) = speedup(c) {
                    println!(
                        "  {:>14}@{:<6} numeric speedup at {} thread(s): {:.2}x",
                        c.name, c.rows, tmax, s
                    );
                }
            }
        }
    }

    let mut doc = String::with_capacity(4096);
    doc.push_str(&format!(
        "{{\n  \"schema_version\": {},\n  \"bench\": \"parbench\",\n  \"tool\": \"obsctl\",\n  \
         \"host_threads\": {},\n  \"reps\": {},\n  \"pool_sizes\": {:?},\n  \
         \"flops_gate_zeroed_above_one_thread\": true,\n  \"cells\": [",
        PARBENCH_SCHEMA_VERSION, host_threads, reps, threads
    ));
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        doc.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"rows\": {}, \"threads\": {}, \"numeric_ns\": {}, \
             \"total_ns\": {}, \"wall_ns\": {}, \"tasks_local\": {}, \"tasks_stolen\": {}, \
             \"tasks_inline\": {}",
            c.name,
            c.rows,
            c.threads,
            c.numeric_ns,
            c.total_ns,
            c.wall_ns,
            c.tasks_local,
            c.tasks_stolen,
            c.tasks_inline
        ));
        match speedup(c) {
            Some(s) if c.threads > 1 => doc.push_str(&format!(", \"numeric_speedup\": {:.4}}}", s)),
            _ => doc.push('}'),
        }
    }
    doc.push_str("\n  ]\n}\n");
    if let Err(e) = parse(&doc) {
        eprintln!(
            "obsctl parbench: internal error: emitted document is not valid JSON: {}",
            e
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("obsctl parbench: cannot write {:?}: {}", out_path, e);
        return ExitCode::from(2);
    }
    println!("scaling file written to {}", out_path);
    ExitCode::SUCCESS
}

fn cmd_trace(args: &[String]) -> ExitCode {
    let mut workload = "fig3".to_string();
    let mut out_path: Option<String> = None;
    let mut rows = 2_000usize;
    let mut reps = 1usize;
    let mut expect_parallel = false;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let r = match a.as_str() {
            "fig3" | "fig5" | "stream" => {
                workload = a.clone();
                Ok(())
            }
            "--expect-parallel" => {
                expect_parallel = true;
                Ok(())
            }
            "--out" => take_value(&mut it, a).map(|v| out_path = Some(v)),
            "--rows" => take_value(&mut it, a).and_then(|v| {
                v.parse()
                    .map(|n| rows = n)
                    .map_err(|_| format!("--rows: bad count {:?}", v))
            }),
            "--reps" => take_value(&mut it, a).and_then(|v| {
                v.parse()
                    .map(|n| reps = n)
                    .map_err(|_| format!("--reps: bad count {:?}", v))
            }),
            _ => Err(format!("unknown workload or flag {:?}", a)),
        };
        if let Err(e) = r {
            eprintln!("obsctl trace: {}\n{}", e, USAGE);
            return ExitCode::from(2);
        }
    }
    if rows == 0 || reps == 0 {
        eprintln!("obsctl trace: need at least one row and one rep");
        return ExitCode::from(2);
    }
    let out_path = out_path.unwrap_or_else(|| format!("{}.trace.json", workload));

    // Start the timeline clean: the journal survives from process start,
    // and the trace should cover exactly this workload. The counter
    // registry is left untouched — a drained journal must reproduce the
    // same decision totals the counters accumulate over the window.
    journal().reset();
    let before = ObsReport::capture();
    match workload.as_str() {
        "fig3" => {
            let run = run_workload(Figure::Fig3, rows, reps);
            println!(
                "fig3@{}: total {:.3} ms, product nnz {}",
                rows,
                run.stages.total_ns as f64 / 1e6,
                run.product_nnz
            );
        }
        "fig5" => {
            let run = run_workload(Figure::Fig5, rows, reps);
            println!(
                "fig5@{}: total {:.3} ms, product nnz {}",
                rows,
                run.stages.total_ns as f64 / 1e6,
                run.product_nnz
            );
        }
        _ => {
            let (incr, rebuild) = run_streaming(rows, reps);
            println!(
                "stream@{}: incremental {:.3} ms, rebuild {:.3} ms",
                rows,
                incr.stages.total_ns as f64 / 1e6,
                rebuild.stages.total_ns as f64 / 1e6
            );
        }
    }
    let report = ObsReport::capture().since(&before);

    let snap = journal().snapshot();
    if snap.dropped > 0 {
        eprintln!(
            "obsctl trace: WARNING: ring wraparound dropped {} of {} journal event(s) \
             (capacity {}) — the exported timeline is missing its earliest spans; \
             raise {} to capture the full run",
            snap.dropped,
            snap.recorded,
            snap.capacity,
            aarray_obs::JOURNAL_EVENTS_ENV
        );
    }
    // Self-check before writing, like run/stream: an export the
    // workspace's own validator rejects is a bug here.
    let stats = match chrome_trace::self_check(&snap) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "obsctl trace: internal error: export fails validation: {}",
                e
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::write(&out_path, snap.to_chrome_trace()) {
        eprintln!("obsctl trace: cannot write {:?}: {}", out_path, e);
        return ExitCode::from(2);
    }

    println!();
    print!("{}", chrome_trace::timeline_summary(&snap.events).render());
    println!();
    let tallies = chrome_trace::decision_tallies(&snap.events);
    print!("{}", tallies.render());

    // Journal explain events and the counter registry observe the same
    // decisions; diverging totals mean an emit site is missing a side.
    use aarray_obs::Counter;
    let c = &report.counters;
    let audit = [
        ("kernel.spa", tallies.kernel[0], c.get(Counter::KernelSpa)),
        ("kernel.hash", tallies.kernel[1], c.get(Counter::KernelHash)),
        (
            "dispatch.serial",
            tallies.dispatch_serial,
            c.get(Counter::DispatchSerial),
        ),
        (
            "dispatch.parallel",
            tallies.dispatch_parallel,
            c.get(Counter::DispatchParallel),
        ),
        (
            "plan.symbolic-hit",
            tallies.plan_hits,
            c.get(Counter::PlanSymbolicHit),
        ),
        (
            "plan.symbolic-miss",
            tallies.plan_misses,
            c.get(Counter::PlanSymbolicMiss),
        ),
    ];
    for (name, from_journal, from_counter) in audit {
        if from_counter != from_journal && snap.dropped == 0 {
            eprintln!(
                "obsctl trace: warning: journal tallies {} for {} but the counter says {}",
                from_journal, name, from_counter
            );
        }
    }

    println!();
    println!(
        "trace written to {} ({} event(s) on {} thread track(s), {} span pair(s); \
         {} recorded, {} dropped by wraparound)",
        out_path, stats.events, stats.threads, stats.begins, snap.recorded, snap.dropped
    );

    let ov = chrome_trace::numeric_overlap(&snap.events);
    println!(
        "numeric concurrency: {} leaf span(s) on {} track(s){}",
        ov.leaf_spans,
        ov.tracks,
        if ov.overlap {
            ", temporally overlapping"
        } else {
            ""
        }
    );
    if expect_parallel && !(ov.tracks >= 2 && ov.overlap) {
        eprintln!(
            "obsctl trace: --expect-parallel: no overlapping numeric work on distinct threads \
             (pool size {}; is AARRAY_NUM_THREADS >= 2 and AARRAY_PAR_FLOPS_THRESHOLD low \
             enough for this workload?)",
            rayon::current_num_threads()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Render the per-kind tail table shared by `ops` and `top`: one row
/// per op kind that completed at least once, with wall-time p50/p95/p99
/// from the ledger's log2 histograms.
fn ops_table(ops: &aarray_obs::OpsReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "  {:<14} {:>7} {:>14} {:>14} {:>14}\n",
        "kind", "count", "p50_ns", "p95_ns", "p99_ns"
    ));
    let mut any = false;
    for (i, &(_, name)) in aarray_obs::OP_KIND_NAMES.iter().enumerate() {
        let t = &ops.tails[i];
        if t.count() == 0 {
            continue;
        }
        any = true;
        out.push_str(&format!(
            "  {:<14} {:>7} {:>14} {:>14} {:>14}\n",
            name,
            t.count(),
            t.quantile(0.5),
            t.quantile(0.95),
            t.quantile(0.99)
        ));
    }
    if !any {
        out.push_str("  (no operations recorded)\n");
    }
    out
}

fn run_named_workload(workload: &str, rows: usize, reps: usize) {
    match workload {
        "fig3" => {
            run_workload(Figure::Fig3, rows, reps);
        }
        "fig5" => {
            run_workload(Figure::Fig5, rows, reps);
        }
        _ => {
            run_streaming(rows, reps);
        }
    }
}

fn cmd_ops(args: &[String]) -> ExitCode {
    let mut workload = "fig3".to_string();
    let mut rows = 2_000usize;
    let mut reps = 3usize;
    let mut slowest_n = 5usize;
    let mut trace_out: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let r = match a.as_str() {
            "fig3" | "fig5" | "stream" => {
                workload = a.clone();
                Ok(())
            }
            "--trace-out" => take_value(&mut it, a).map(|v| trace_out = Some(v)),
            "--rows" => take_value(&mut it, a).and_then(|v| {
                v.parse()
                    .map(|n| rows = n)
                    .map_err(|_| format!("--rows: bad count {:?}", v))
            }),
            "--reps" => take_value(&mut it, a).and_then(|v| {
                v.parse()
                    .map(|n| reps = n)
                    .map_err(|_| format!("--reps: bad count {:?}", v))
            }),
            "--slowest" => take_value(&mut it, a).and_then(|v| {
                v.parse()
                    .map(|n| slowest_n = n)
                    .map_err(|_| format!("--slowest: bad count {:?}", v))
            }),
            _ => Err(format!("unknown workload or flag {:?}", a)),
        };
        if let Err(e) = r {
            eprintln!("obsctl ops: {}\n{}", e, USAGE);
            return ExitCode::from(2);
        }
    }
    if rows == 0 || reps == 0 || slowest_n == 0 {
        eprintln!("obsctl ops: need nonzero rows, reps, and --slowest");
        return ExitCode::from(2);
    }
    let trace_out = trace_out.unwrap_or_else(|| format!("{}.optrace.json", workload));

    // Reset both rings so op seq windows and exemplars cover exactly
    // this run (cursor 0 below relies on this).
    journal().reset();
    aarray_obs::oplog().reset();
    let before = ObsReport::capture();
    run_named_workload(&workload, rows, reps);
    let report = ObsReport::capture().since(&before);

    if report.journal.dropped > 0 {
        eprintln!(
            "obsctl ops: WARNING: ring wraparound dropped {} journal event(s) (capacity {}) — \
             stage breakdowns of early ops may undercount; raise {}",
            report.journal.dropped,
            report.journal.capacity,
            aarray_obs::JOURNAL_EVENTS_ENV
        );
    }

    println!(
        "op ledger for {}@{} x{} rep(s): {} op(s) recorded, {} dropped (capacity {})",
        workload, rows, reps, report.ops.recorded, report.ops.dropped, report.ops.capacity
    );
    print!("{}", ops_table(&report.ops));

    let snap = aarray_obs::oplog().snapshot();
    let slow = snap.slowest(slowest_n, 0);
    if slow.is_empty() {
        eprintln!("obsctl ops: internal error: workload completed without recording any op");
        return ExitCode::from(2);
    }
    println!();
    println!("slowest {} op(s):", slow.len());
    for r in &slow {
        let sum = r.stage_sum_ns();
        let pct = if r.wall_ns == 0 {
            0.0
        } else {
            sum as f64 * 100.0 / r.wall_ns as f64
        };
        let label = snap.label_name(r.label);
        println!(
            "  op {:<5} {:<13} label {:<8} wall {:>10.3} ms  {}  lanes {}  flops {}  \
             out_nnz {}  fallback {}  scratch {} B",
            r.id,
            r.kind.name(),
            if label.is_empty() { "-" } else { label },
            r.wall_ns as f64 / 1e6,
            if r.parallel {
                format!("parallel x{}", r.pool_threads)
            } else {
                "serial".to_string()
            },
            r.lanes,
            r.flops,
            r.out_nnz,
            r.fallback_name(),
            r.scratch_peak
        );
        println!(
            "    stages: align {} + transpose {} + symbolic {} + numeric {} + delta-apply {} \
             = {} ns ({:.1}% of wall); journal window [{}, {})",
            r.align_ns,
            r.transpose_ns,
            r.symbolic_ns,
            r.numeric_ns,
            r.delta_ns,
            sum,
            pct,
            r.seq_start,
            r.seq_end
        );
    }

    // Cut the slowest op's journal window into its own Chrome trace so
    // the one bad operation can be inspected on a timeline.
    let top = slow[0];
    let cut = journal()
        .snapshot()
        .cut_op(top.id, top.seq_start, top.seq_end);
    let text = cut.to_chrome_trace_by_op();
    let valid = parse(&text)
        .map_err(|e| e.to_string())
        .and_then(|d| chrome_trace::validate(&d));
    if let Err(e) = valid {
        eprintln!(
            "obsctl ops: internal error: per-op export fails validation: {}",
            e
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::write(&trace_out, &text) {
        eprintln!("obsctl ops: cannot write {:?}: {}", trace_out, e);
        return ExitCode::from(2);
    }
    println!();
    println!(
        "per-op trace of op {} ({} journal event(s)) written to {}",
        top.id,
        cut.events.len(),
        trace_out
    );
    ExitCode::SUCCESS
}

fn cmd_top(args: &[String]) -> ExitCode {
    let mut workload = "fig3".to_string();
    let mut rows = 4_000usize;
    let mut reps = 20usize;
    let mut interval_ms = 200u64;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let r = match a.as_str() {
            "fig3" | "fig5" | "stream" => {
                workload = a.clone();
                Ok(())
            }
            "--rows" => take_value(&mut it, a).and_then(|v| {
                v.parse()
                    .map(|n| rows = n)
                    .map_err(|_| format!("--rows: bad count {:?}", v))
            }),
            "--reps" => take_value(&mut it, a).and_then(|v| {
                v.parse()
                    .map(|n| reps = n)
                    .map_err(|_| format!("--reps: bad count {:?}", v))
            }),
            "--interval-ms" => take_value(&mut it, a).and_then(|v| {
                v.parse()
                    .map(|n| interval_ms = n)
                    .map_err(|_| format!("--interval-ms: bad count {:?}", v))
            }),
            _ => Err(format!("unknown workload or flag {:?}", a)),
        };
        if let Err(e) = r {
            eprintln!("obsctl top: {}\n{}", e, USAGE);
            return ExitCode::from(2);
        }
    }
    if rows == 0 || reps == 0 || interval_ms == 0 {
        eprintln!("obsctl top: need nonzero rows, reps, and interval");
        return ExitCode::from(2);
    }

    println!(
        "obsctl top: sampling every {} ms while {}@{} x{} rep(s) runs",
        interval_ms, workload, rows, reps
    );
    let start = ObsReport::capture();
    let wl = workload.clone();
    let handle = std::thread::spawn(move || run_named_workload(&wl, rows, reps));

    let mut last = start.clone();
    let mut tick = 0u64;
    loop {
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        let now = ObsReport::capture();
        let d = now.since(&last);
        tick += 1;
        let mut parts = Vec::new();
        for (i, &(_, name)) in aarray_obs::OP_KIND_NAMES.iter().enumerate() {
            let t = &d.ops.tails[i];
            if t.count() > 0 {
                parts.push(format!(
                    "{} +{} p95 {} ns",
                    name,
                    t.count(),
                    t.quantile(0.95)
                ));
            }
        }
        println!(
            "tick {:>3}: ops +{}{}  journal +{} event(s){}",
            tick,
            d.ops.recorded,
            if parts.is_empty() {
                String::new()
            } else {
                format!("  [{}]", parts.join(", "))
            },
            d.journal.recorded,
            if d.ops.dropped > 0 || d.journal.dropped > 0 {
                format!(
                    "  ({} op / {} journal record(s) dropped)",
                    d.ops.dropped, d.journal.dropped
                )
            } else {
                String::new()
            }
        );
        last = now;
        if handle.is_finished() {
            break;
        }
    }
    if handle.join().is_err() {
        eprintln!("obsctl top: workload thread panicked");
        return ExitCode::from(2);
    }

    let total = ObsReport::capture().since(&start);
    println!();
    println!(
        "workload finished after {} tick(s): {} op(s) recorded, {} dropped",
        tick, total.ops.recorded, total.ops.dropped
    );
    print!("{}", ops_table(&total.ops));
    ExitCode::SUCCESS
}

fn cmd_watch(args: &[String]) -> ExitCode {
    let mut workload = "fig3".to_string();
    let mut rows = 4_000usize;
    let mut reps = 20usize;
    let mut interval_ms: Option<u64> = None;
    let mut listen: Option<String> = None;
    let mut port_file: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let r = match a.as_str() {
            "fig3" | "fig5" | "stream" => {
                workload = a.clone();
                Ok(())
            }
            "--listen" => take_value(&mut it, a).map(|v| listen = Some(v)),
            "--port-file" => take_value(&mut it, a).map(|v| port_file = Some(v)),
            "--rows" => take_value(&mut it, a).and_then(|v| {
                v.parse()
                    .map(|n| rows = n)
                    .map_err(|_| format!("--rows: bad count {:?}", v))
            }),
            "--reps" => take_value(&mut it, a).and_then(|v| {
                v.parse()
                    .map(|n| reps = n)
                    .map_err(|_| format!("--reps: bad count {:?}", v))
            }),
            "--interval-ms" => take_value(&mut it, a).and_then(|v| {
                v.parse()
                    .map(|n| interval_ms = Some(n))
                    .map_err(|_| format!("--interval-ms: bad count {:?}", v))
            }),
            _ => Err(format!("unknown workload or flag {:?}", a)),
        };
        if let Err(e) = r {
            eprintln!("obsctl watch: {}\n{}", e, USAGE);
            return ExitCode::from(2);
        }
    }
    if rows == 0 || reps == 0 || interval_ms == Some(0) {
        eprintln!("obsctl watch: need nonzero rows, reps, and interval");
        return ExitCode::from(2);
    }
    if port_file.is_some() && listen.is_none() {
        eprintln!("obsctl watch: --port-file only makes sense with --listen");
        return ExitCode::from(2);
    }

    let start = ObsReport::capture();
    // The pre-sample hook bridges pending thread-pool tallies into the
    // shared registry so every frame sees pool.tasks-* mid-workload.
    let collector = aarray_obs::Collector::start_with(aarray_obs::CollectorConfig {
        interval_ms,
        capacity: None,
        pre_sample: Some(Box::new(aarray_core::publish_pool_stats)),
    });
    let ring = std::sync::Arc::clone(collector.ring());
    let tick_ms = collector.interval_ms();

    let server = match &listen {
        Some(addr) => {
            let handler = telemetry_handler(std::sync::Arc::clone(&ring), collector.probe());
            match Httpd::serve(addr, handler) {
                Ok(s) => {
                    println!(
                        "obsctl watch: serving /metrics /report.json /series.json /healthz \
                         on http://{}",
                        s.addr()
                    );
                    if let Some(pf) = &port_file {
                        // Write-then-rename so a poller never reads a
                        // truncated address.
                        let tmp = format!("{}.tmp", pf);
                        let w = std::fs::write(&tmp, format!("{}\n", s.addr()))
                            .and_then(|()| std::fs::rename(&tmp, pf));
                        if let Err(e) = w {
                            eprintln!("obsctl watch: cannot write {:?}: {}", pf, e);
                            return ExitCode::from(2);
                        }
                    }
                    Some(s)
                }
                Err(e) => {
                    eprintln!("obsctl watch: cannot bind {:?}: {}", addr, e);
                    return ExitCode::from(2);
                }
            }
        }
        None => None,
    };

    println!(
        "obsctl watch: sampling every {} ms while {}@{} x{} rep(s) runs",
        tick_ms, workload, rows, reps
    );
    let wl = workload.clone();
    let handle = std::thread::spawn(move || run_named_workload(&wl, rows, reps));

    // Tick loop: with a server the frames speak for themselves; without
    // one, render top-style interval diffs derived from frame *pairs*
    // (never by mutating the live registries).
    let mut prev: Option<aarray_obs::Frame> = None;
    let mut tick = 0u64;
    loop {
        std::thread::sleep(std::time::Duration::from_millis(tick_ms));
        if server.is_none() {
            if let Some(cur) = ring.latest() {
                if prev.as_ref().is_none_or(|p| p.seq != cur.seq) {
                    tick += 1;
                    let d = match &prev {
                        Some(p) => cur.delta(p),
                        None => cur.report.since(&start),
                    };
                    let mut parts = Vec::new();
                    for (i, &(_, name)) in aarray_obs::OP_KIND_NAMES.iter().enumerate() {
                        let t = &d.ops.tails[i];
                        if t.count() > 0 {
                            parts.push(format!(
                                "{} +{} p95 {} ns",
                                name,
                                t.count(),
                                t.quantile(0.95)
                            ));
                        }
                    }
                    println!(
                        "frame {:>3}: ops +{}{}  journal +{} event(s)",
                        cur.seq,
                        d.ops.recorded,
                        if parts.is_empty() {
                            String::new()
                        } else {
                            format!("  [{}]", parts.join(", "))
                        },
                        d.journal.recorded
                    );
                    prev = Some(cur);
                }
            }
        }
        if handle.is_finished() {
            break;
        }
    }
    let panicked = handle.join().is_err();
    // One last frame so the series covers the workload's end.
    ring.sample_now();
    let stats = ring.stats();
    if let Some(s) = server {
        s.stop();
    }
    collector.stop();
    if panicked {
        eprintln!("obsctl watch: workload thread panicked");
        return ExitCode::from(2);
    }

    let total = ObsReport::capture().since(&start);
    println!();
    println!(
        "workload finished after {} rendered tick(s): {} frame(s) sampled ({} dropped, \
         capacity {}), {} op(s) recorded",
        tick, stats.recorded, stats.dropped, stats.capacity, total.ops.recorded
    );
    print!("{}", ops_table(&total.ops));
    ExitCode::SUCCESS
}

fn cmd_fetch(args: &[String]) -> ExitCode {
    let mut url: Option<String> = None;
    let mut out: Option<String> = None;
    let mut timeout_ms = 5_000u64;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let r = match a.as_str() {
            "--out" => take_value(&mut it, a).map(|v| out = Some(v)),
            "--timeout-ms" => take_value(&mut it, a).and_then(|v| {
                v.parse()
                    .map(|n| timeout_ms = n)
                    .map_err(|_| format!("--timeout-ms: bad count {:?}", v))
            }),
            _ if !a.starts_with("--") && url.is_none() => {
                url = Some(a.clone());
                Ok(())
            }
            _ => Err(format!("unknown flag {:?}", a)),
        };
        if let Err(e) = r {
            eprintln!("obsctl fetch: {}\n{}", e, USAGE);
            return ExitCode::from(2);
        }
    }
    let url = match url {
        Some(u) => u,
        None => {
            eprintln!("obsctl fetch: need a URL\n{}", USAGE);
            return ExitCode::from(2);
        }
    };
    if timeout_ms == 0 {
        eprintln!("obsctl fetch: need a nonzero timeout");
        return ExitCode::from(2);
    }
    let rest = url.strip_prefix("http://").unwrap_or(&url);
    let (addr, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/"),
    };

    match http_get(addr, path, std::time::Duration::from_millis(timeout_ms)) {
        Ok((status, body)) => {
            if let Some(p) = &out {
                if let Err(e) = std::fs::write(p, &body) {
                    eprintln!("obsctl fetch: cannot write {:?}: {}", p, e);
                    return ExitCode::from(2);
                }
            } else {
                print!("{}", body);
            }
            if status == 200 {
                ExitCode::SUCCESS
            } else {
                eprintln!("obsctl fetch: {} answered HTTP {}", url, status);
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("obsctl fetch: {}: {}", url, e);
            ExitCode::from(1)
        }
    }
}

fn load_classified(path: &str) -> Result<(aarray_harness::json::Value, BenchKind), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {}", path, e))?;
    let doc = parse(&text).map_err(|e| format!("{}: {}", path, e))?;
    let kind = classify(&doc).map_err(|e| format!("{}: {}", path, e))?;
    Ok((doc, kind))
}

fn cmd_check(args: &[String]) -> ExitCode {
    let mut current_path = "BENCH_pr3.json".to_string();
    let mut against: Vec<String> = Vec::new();
    let mut cfg = CheckConfig::default();
    let mut allow_new = false;
    let mut json_path: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let r = match a.as_str() {
            "--current" => take_value(&mut it, a).map(|v| current_path = v),
            "--against" => take_value(&mut it, a).map(|v| against.push(v)),
            "--json" => take_value(&mut it, a).map(|v| json_path = Some(v)),
            "--allow-new" => {
                allow_new = true;
                Ok(())
            }
            "--lat-tol" => take_value(&mut it, a).and_then(|v| {
                v.parse()
                    .map(|n| cfg.lat_tol_pct = n)
                    .map_err(|_| format!("--lat-tol: bad percent {:?}", v))
            }),
            "--mem-tol" => take_value(&mut it, a).and_then(|v| {
                v.parse()
                    .map(|n| cfg.mem_tol_pct = n)
                    .map_err(|_| format!("--mem-tol: bad percent {:?}", v))
            }),
            "--stages" => take_value(&mut it, a)
                .and_then(|v| CheckConfig::parse_stage_mask(&v).map(|m| cfg.stage_mask = m)),
            _ => Err(format!("unknown flag {:?}", a)),
        };
        if let Err(e) = r {
            eprintln!("obsctl check: {}\n{}", e, USAGE);
            return ExitCode::from(2);
        }
    }
    if against.is_empty() {
        against = vec!["BENCH_pr1.json".into(), "BENCH_pr2.json".into()];
    }

    let (current, current_kind) = match load_classified(&current_path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("obsctl check: {}", e);
            return ExitCode::from(2);
        }
    };
    if current_kind != BenchKind::V3 {
        eprintln!(
            "obsctl check: {} is a legacy file; the current run must be a v3 observatory file",
            current_path
        );
        return ExitCode::from(2);
    }

    // A run that dropped journal events may have mis-attributed stage
    // time, so its numbers deserve suspicion even when they pass.
    let journal_dropped = current
        .get("report")
        .and_then(|r| r.get("journal"))
        .and_then(|j| j.get("dropped"))
        .and_then(|d| d.as_u64())
        .unwrap_or(0);
    if journal_dropped > 0 {
        eprintln!(
            "obsctl check: WARNING: current run dropped {} journal event(s) to ring \
             wraparound; its stage attribution may undercount (raise {})",
            journal_dropped,
            aarray_obs::JOURNAL_EVENTS_ENV
        );
    }

    let mut regressions = 0usize;
    let mut new_metrics = 0usize;
    // Current-run summary for per-regression attribution in the JSON
    // verdict (the current doc is already validated v3, so this
    // normalization cannot fail).
    let cur_summary = aarray_harness::diff::summarize(&current).ok();
    let mut comparisons: Vec<Comparison> = Vec::new();
    for path in &against {
        let (doc, kind) = match load_classified(path) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("obsctl check: {}", e);
                return ExitCode::from(2);
            }
        };
        let verdict = compare(&current, &doc, &kind, &cfg);
        println!("== {} vs {} ==", current_path, path);
        for f in &verdict.findings {
            if f.new_metric {
                println!(
                    "  NEW       {:<40} {:>14} -> {:>14.0}  (no baseline)",
                    f.metric, "-", f.current
                );
                continue;
            }
            println!(
                "  {} {:<40} {:>14.0} -> {:>14.0}  {:>+7.1}% (limit +{:.0}%)",
                if f.regressed {
                    "REGRESSED"
                } else {
                    "ok       "
                },
                f.metric,
                f.baseline,
                f.current,
                f.pct,
                f.limit_pct
            );
        }
        for s in &verdict.skipped {
            println!("  skipped   {}", s);
        }
        regressions += verdict.regressions().count();
        new_metrics += verdict.new_metrics().count();
        // Satellite attribution: for each regressed metric, the top
        // same-workload stage deltas between this baseline pair (empty
        // for legacy baselines, which carry no stage breakdown).
        let mut attribution: Vec<(String, Vec<aarray_harness::diff::Contributor>)> = Vec::new();
        if let (Some(cs), Ok(bs)) = (&cur_summary, aarray_harness::diff::summarize(&doc)) {
            for f in verdict.regressions() {
                attribution.push((
                    f.metric.clone(),
                    aarray_harness::diff::attribute_metric(&f.metric, &bs, cs, 3),
                ));
            }
        }
        comparisons.push(Comparison {
            against: path.clone(),
            verdict,
            attribution,
        });
    }

    let exit_code: u8 = if regressions > 0 {
        1
    } else if new_metrics > 0 && !allow_new {
        3
    } else {
        0
    };

    if let Some(p) = &json_path {
        let doc = check_json(
            &current_path,
            &comparisons,
            allow_new,
            journal_dropped,
            exit_code,
        );
        if let Err(e) = std::fs::write(p, doc) {
            eprintln!("obsctl check: cannot write {:?}: {}", p, e);
            return ExitCode::from(2);
        }
        println!("verdict written to {}", p);
    }

    if regressions > 0 {
        println!(
            "perf observatory: {} regression(s) beyond tolerance",
            regressions
        );
        ExitCode::FAILURE
    } else if new_metrics > 0 && !allow_new {
        println!(
            "perf observatory: no regressions, but {} new metric(s) without a baseline \
             (pass --allow-new to accept)",
            new_metrics
        );
        ExitCode::from(3)
    } else {
        if new_metrics > 0 {
            println!(
                "perf observatory: {} new metric(s) accepted via --allow-new",
                new_metrics
            );
        }
        println!("perf observatory: no regressions beyond tolerance");
        ExitCode::SUCCESS
    }
}

/// Schema version stamped into `obsctl check --json` verdict files.
const CHECK_SCHEMA_VERSION: u64 = 1;

/// One baseline's verdict plus the attribution of its regressions,
/// carried from the comparison loop into the JSON rendering.
struct Comparison {
    against: String,
    verdict: aarray_harness::compare::Verdict,
    /// `(regressed metric, top same-workload stage contributors)`.
    attribution: Vec<(String, Vec<aarray_harness::diff::Contributor>)>,
}

/// Render the machine-readable verdict document for `check --json`.
/// Per finding: `status` is `"ok"`, `"regressed"`, or `"new"`; numeric
/// fields mirror the human table. `journal_dropped` surfaces ring
/// wraparound in the current run (0 when its report recorded no
/// drops). `exit_code` records the process verdict (0 ok, 1 regressed,
/// 3 new metrics without `--allow-new`).
fn check_json(
    current_path: &str,
    comparisons: &[Comparison],
    allow_new: bool,
    journal_dropped: u64,
    exit_code: u8,
) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"schema_version\": {},\n  \"tool\": \"obsctl-check\",\n  \"current\": \"{}\",\n  \"allow_new\": {},\n  \"journal_dropped\": {},\n",
        CHECK_SCHEMA_VERSION, current_path, allow_new, journal_dropped
    ));
    out.push_str("  \"comparisons\": [");
    for (i, cmp) in comparisons.iter().enumerate() {
        let (path, verdict) = (&cmp.against, &cmp.verdict);
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"against\": \"{}\",\n     \"findings\": [",
            path
        ));
        for (j, f) in verdict.findings.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let status = if f.new_metric {
                "new"
            } else if f.regressed {
                "regressed"
            } else {
                "ok"
            };
            out.push_str(&format!(
                "\n      {{\"metric\": \"{}\", \"status\": \"{}\", \"baseline\": {}, \
                 \"current\": {}, \"pct\": {:.2}, \"limit_pct\": {}}}",
                f.metric, status, f.baseline, f.current, f.pct, f.limit_pct
            ));
        }
        out.push_str("\n     ],\n     \"skipped\": [");
        for (j, s) in verdict.skipped.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", s.replace('"', "'")));
        }
        out.push_str("],\n     \"attribution\": {");
        for (j, (metric, contributors)) in cmp.attribution.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n      \"{}\": [", metric));
            for (k, c) in contributors.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"metric\": \"{}\", \"delta_ns\": {}, \"share_pct\": {:.2}}}",
                    c.metric, c.delta_ns, c.share_pct
                ));
            }
            out.push(']');
        }
        if !cmp.attribution.is_empty() {
            out.push_str("\n     ");
        }
        out.push_str(&format!(
            "}},\n     \"regressions\": {}, \"new_metrics\": {}}}",
            verdict.regressions().count(),
            verdict.new_metrics().count()
        ));
    }
    out.push_str(&format!("\n  ],\n  \"exit_code\": {}\n}}\n", exit_code));
    out
}

fn load_doc(path: &str) -> Result<aarray_harness::json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {}", path, e))?;
    parse(&text).map_err(|e| format!("{}: {}", path, e))
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let mut files: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let r = match a.as_str() {
            "--json" => take_value(&mut it, a).map(|v| json_path = Some(v)),
            _ if a.starts_with('-') => Err(format!("unknown flag {:?}", a)),
            _ => {
                files.push(a.clone());
                Ok(())
            }
        };
        if let Err(e) = r {
            eprintln!("obsctl diff: {}\n{}", e, USAGE);
            return ExitCode::from(2);
        }
    }
    if files.len() != 2 {
        eprintln!(
            "obsctl diff: need exactly two run documents (profile or bench files), got {}\n{}",
            files.len(),
            USAGE
        );
        return ExitCode::from(2);
    }

    let mut summaries = Vec::new();
    for path in &files {
        let summary = load_doc(path).and_then(|doc| {
            aarray_harness::diff::summarize(&doc).map_err(|e| format!("{}: {}", path, e))
        });
        match summary {
            Ok(s) => summaries.push(s),
            Err(e) => {
                eprintln!("obsctl diff: {}", e);
                return ExitCode::from(2);
            }
        }
    }

    let report = aarray_harness::diff::diff(&summaries[0], &summaries[1]);
    print!(
        "{}",
        aarray_harness::diff::render_text(&files[0], &files[1], &report)
    );
    if let Some(p) = json_path {
        let doc = aarray_harness::diff::render_json(&files[0], &files[1], &report);
        if let Err(e) = parse(&doc) {
            eprintln!(
                "obsctl diff: internal error: emitted verdict is not valid JSON: {}",
                e
            );
            return ExitCode::from(2);
        }
        if let Err(e) = std::fs::write(&p, &doc) {
            eprintln!("obsctl diff: cannot write {:?}: {}", p, e);
            return ExitCode::from(2);
        }
        println!("diff verdict written to {}", p);
    }
    ExitCode::SUCCESS
}

fn cmd_history(args: &[String]) -> ExitCode {
    let mut files: Vec<String> = Vec::new();
    let mut out_path: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let r = match a.as_str() {
            "--out" => take_value(&mut it, a).map(|v| out_path = Some(v)),
            _ if a.starts_with('-') => Err(format!("unknown flag {:?}", a)),
            _ => {
                files.push(a.clone());
                Ok(())
            }
        };
        if let Err(e) = r {
            eprintln!("obsctl history: {}\n{}", e, USAGE);
            return ExitCode::from(2);
        }
    }
    if files.is_empty() {
        eprintln!("obsctl history: need at least one baseline file\n{}", USAGE);
        return ExitCode::from(2);
    }

    let mut entries = Vec::new();
    for path in &files {
        let label = path.rsplit('/').next().unwrap_or(path).to_string();
        let entry = load_doc(path).and_then(|doc| aarray_harness::history::ingest(&label, &doc));
        match entry {
            Ok(e) => entries.push(e),
            Err(e) => {
                eprintln!("obsctl history: {}", e);
                return ExitCode::from(2);
            }
        }
    }

    let cfg = CheckConfig::default();
    let rows = aarray_harness::history::trends(&entries, &cfg);
    print!("{}", aarray_harness::history::render_text(&entries, &rows));
    if let Some(p) = out_path {
        let doc = aarray_harness::history::render_json(&entries, &rows);
        if let Err(e) = parse(&doc) {
            eprintln!(
                "obsctl history: internal error: emitted trend table is not valid JSON: {}",
                e
            );
            return ExitCode::from(2);
        }
        if let Err(e) = std::fs::write(&p, &doc) {
            eprintln!("obsctl history: cannot write {:?}: {}", p, e);
            return ExitCode::from(2);
        }
        println!("trend table written to {}", p);
    }
    ExitCode::SUCCESS
}
