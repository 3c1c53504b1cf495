//! `obsctl` — trace, inspect and gate the `aarray` workloads.
//!
//! ```text
//! obsctl trace [fig3|fig5|stream] [--rows 2000] [--reps 2]
//!              [--out <workload>.trace.json] [--expect-parallel]
//! obsctl ops   [fig3|fig5|stream] [--rows 2000] [--reps 3] [--slowest 5]
//!              [--trace-out <workload>.optrace.json]
//! obsctl watch [fig3|fig5|stream] [--rows 4000] [--reps 20]
//!              [--interval-ms <AARRAY_OBS_SAMPLE_MS>] [--listen 127.0.0.1:PORT]
//!              [--port-file <path>]
//! obsctl fetch <http://host:port/path> [--out <path>] [--timeout-ms 5000]
//! obsctl gate  <parent-checkout> <change-checkout>
//! ```
//!
//! `trace` runs one workload, exports the flight recorder's journal as a
//! Chrome trace (validated before it is written), prints the stage
//! timeline and the decisions the workload made, and audits those
//! decisions against the counter registry: on a journal that dropped no
//! events, any mismatch exits 1. `--expect-parallel` also exits 1 unless
//! leaf numeric spans on two or more thread tracks overlap in time.
//!
//! `ops` replays one workload against a reset op ledger and prints the
//! per-op-kind tail table (count / p50 / p95 / p99 wall ns), the
//! slowest-N exemplar records with their per-stage breakdown, and cuts
//! the slowest op's journal window into a per-op Chrome trace.
//!
//! `watch` runs one workload while a background
//! [`aarray_obs::Collector`] samples full reports into a bounded frame
//! ring. Without `--listen` it prints one line per sampled frame (ops
//! completed per kind with interval p95s, journal growth), derived from
//! frame pairs, then a final tail table. With `--listen` an embedded
//! `std::net` HTTP/1.0 server serves `GET /metrics` (Prometheus
//! exposition from the latest frame), `/report.json`, `/series.json`
//! (the ring as sparkline columns) and `/healthz` (sampler liveness +
//! drop counts). `fetch` is the matching dependency-free HTTP client.
//!
//! `gate` is the paired benchmark gate ([`aarray_harness::gate`]): it
//! runs `BENCHMARK.json`'s command in both checkouts, three alternating
//! pairs per workload, and prints each end-to-end metric's medians and
//! verdict. It exits 0 on a pass; 1 on any REGRESSED metric or any run
//! that failed its checks or crashed before its report; and 2 on
//! missing or malformed input.
//!
//! Every subcommand exits 2 on a bad invocation.

use aarray_harness::chrome_trace;
use aarray_harness::gate::{self, Bench, RunError, Verdict};
use aarray_harness::httpd::{http_get, telemetry_handler, Httpd};
use aarray_harness::json::parse;
use aarray_harness::workloads::{run_streaming, run_workload, Figure, WorkloadRun};
use aarray_obs::{journal, ObsReport};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("trace") => cmd_trace(&args[1..]),
        Some("ops") => cmd_ops(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("fetch") => cmd_fetch(&args[1..]),
        Some("gate") => cmd_gate(&args[1..]),
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
  obsctl trace  [fig3|fig5|stream] [--rows 2000] [--reps 2]
                [--out <workload>.trace.json] [--expect-parallel]
  obsctl ops    [fig3|fig5|stream] [--rows 2000] [--reps 3] [--slowest 5]
                [--trace-out <workload>.optrace.json]
  obsctl watch  [fig3|fig5|stream] [--rows 4000] [--reps 20]
                [--interval-ms <AARRAY_OBS_SAMPLE_MS>] [--listen 127.0.0.1:PORT]
                [--port-file <path>]
  obsctl fetch  <http://host:port/path> [--out <path>] [--timeout-ms 5000]
  obsctl gate   <parent-checkout> <change-checkout>
";

fn take_value(it: &mut std::slice::Iter<String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{} needs a value", flag))
}

fn cmd_trace(args: &[String]) -> ExitCode {
    let mut workload = "fig3".to_string();
    let mut out_path: Option<String> = None;
    let mut rows = 2_000usize;
    // Two reps by default: the second runs on a pool whose workers are
    // already awake, which gives `--expect-parallel` more overlap to see.
    let mut reps = 2usize;
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
    let run = run_named_workload(&workload, rows, reps);
    println!(
        "{}@{} x{} rep(s): product nnz {}",
        workload, rows, reps, run.product_nnz
    );
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
    // Self-check before writing: an export the workspace's own
    // validator rejects is a bug here.
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
    println!();
    println!("counter audit (journal / counter):");
    let mut mismatches = 0;
    for (name, from_journal, from_counter) in tallies.audit(&report.counters) {
        let agree = from_journal == from_counter;
        mismatches += usize::from(!agree);
        println!(
            "  {:<22} {:>8} / {:<8} {}",
            name,
            from_journal,
            from_counter,
            if agree { "ok" } else { "MISMATCH" }
        );
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
    // A dropped event leaves the journal short of the counters, so only
    // a complete journal can prove an emit site lost its other half.
    if mismatches > 0 && snap.dropped == 0 {
        eprintln!(
            "obsctl trace: {} decision count(s) differ between the journal and the counters",
            mismatches
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Render the per-kind tail table shared by `ops` and `watch`: one row
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

fn run_named_workload(workload: &str, rows: usize, reps: usize) -> WorkloadRun {
    match workload {
        "fig3" => run_workload(Figure::Fig3, rows, reps),
        "fig5" => run_workload(Figure::Fig5, rows, reps),
        _ => run_streaming(rows, reps),
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
    // one, print one line per new frame: the interval's diff derived
    // from a frame *pair* (never by mutating the live registries).
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

/// Four significant-ish digits for the gate's tables.
fn num(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{:.0}", v)
    } else {
        format!("{:.4}", v)
    }
}

fn cmd_gate(args: &[String]) -> ExitCode {
    let [parent, change] = args else {
        eprintln!(
            "obsctl gate: need a parent and a change checkout\n{}",
            USAGE
        );
        return ExitCode::from(2);
    };
    let sides = [("parent", Path::new(parent)), ("change", Path::new(change))];
    for (side, dir) in sides {
        if !dir.is_dir() {
            eprintln!(
                "obsctl gate: {} checkout {:?} is not a directory",
                side, dir
            );
            return ExitCode::from(2);
        }
    }
    let decl = sides[1].1.join("BENCHMARK.json");
    let bench = match std::fs::read_to_string(&decl)
        .map_err(|e| e.to_string())
        .and_then(|text| Bench::parse(&text))
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("obsctl gate: {}: {}", decl.display(), e);
            return ExitCode::from(2);
        }
    };
    println!(
        "obsctl gate: {} pair(s) per workload, {} s per run\n  parent {}\n  change {}",
        gate::PAIRS,
        bench.run_seconds,
        parent,
        change
    );

    let mut failed_runs = 0;
    let mut table = Vec::new();
    'workloads: for workload in &bench.workloads {
        // values[side][run][metric]
        let mut values: [Vec<Vec<f64>>; 2] = Default::default();
        for seed in 1..=gate::PAIRS {
            // Alternate which side goes first, so a slow spell on the
            // host does not always land on the same side.
            let order = if seed % 2 == 1 { [0, 1] } else { [1, 0] };
            for side in order {
                let (name, dir) = sides[side];
                let run = match gate::run_once(&bench, dir, workload, seed) {
                    Ok(run) => run,
                    // A crashed run fails the gate and leaves nothing to
                    // compare, so the workload's other runs are skipped.
                    Err(RunError::NoReport(e)) => {
                        println!("  {:<14} seed {} {}  FAILED: {}", workload, seed, name, e);
                        failed_runs += 1;
                        continue 'workloads;
                    }
                    Err(RunError::BadInput(e)) => {
                        eprintln!("obsctl gate: {} {} seed {}: {}", name, workload, seed, e);
                        return ExitCode::from(2);
                    }
                };
                let shown: Vec<String> = bench
                    .metrics
                    .iter()
                    .zip(&run.values)
                    .map(|(m, v)| format!("{}={}", m.name, num(*v)))
                    .collect();
                println!(
                    "  {:<14} seed {} {}  {}{}",
                    workload,
                    seed,
                    name,
                    shown.join(" "),
                    if run.passed() {
                        String::new()
                    } else {
                        format!(
                            "  FAILED (exit ok {}, correct {}, failed {})",
                            run.exited_ok, run.correct, run.failed
                        )
                    }
                );
                failed_runs += usize::from(!run.passed());
                values[side].push(run.values);
            }
        }
        for (i, metric) in bench.metrics.iter().enumerate() {
            let column = |side: usize| -> Vec<f64> { values[side].iter().map(|v| v[i]).collect() };
            table.push((
                workload,
                metric,
                gate::judge(metric, &column(0), &column(1)),
            ));
        }
    }

    println!();
    println!(
        "{:<14} {:<14} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "parent", "change", "worse", "bound"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for (workload, metric, j) in &table {
        regressed += usize::from(j.verdict == Verdict::Regressed);
        unresolved += usize::from(j.verdict == Verdict::Unresolved);
        println!(
            "{:<14} {:<14} {:>12} {:>12} {:>+7.1}% {:>5.0}%  {}",
            workload,
            metric.name,
            num(j.parent),
            num(j.change),
            j.worse * 100.0,
            metric.bound * 100.0,
            j.verdict.label()
        );
    }
    let pass = regressed == 0 && failed_runs == 0;
    println!();
    println!(
        "gate: {}: {} regressed, {} unresolved, {} failed run(s)",
        if pass { "pass" } else { "FAIL" },
        regressed,
        unresolved,
        failed_runs
    );
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
