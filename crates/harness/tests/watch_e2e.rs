//! End-to-end exercise of the live telemetry stack: an in-process
//! `Httpd` serving `telemetry_handler`, wired exactly as `obsctl watch
//! --listen` wires it, polled with raw `TcpStream` clients while a real
//! (tiny-scale) workload runs — plus a binary-level run of
//! `obsctl watch --listen 127.0.0.1:0 --port-file` fetched through
//! the harness HTTP client after its workload has finished.

use aarray_harness::httpd::{http_get, telemetry_handler, Httpd};
use aarray_harness::json::{parse, Value};
use aarray_obs::{counters::COUNTER_NAMES, Counter, ObsReport};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

fn obsctl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_obsctl"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("watch-e2e-{}-{}", tag, std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn get_json(addr: &str, path: &str) -> Value {
    let (status, body) = http_get(addr, path, Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200, "{}: {}", path, body);
    parse(&body).unwrap_or_else(|e| panic!("{} is not JSON ({}): {}", path, e, body))
}

/// The whole live stack in one process: server on an OS-assigned port,
/// workload on a background thread, raw-socket clients doing the
/// asserting.
#[test]
fn watch_stack_serves_all_endpoints_while_workload_runs() {
    let server = Httpd::serve("127.0.0.1:0", telemetry_handler).unwrap();
    let addr = server.addr().to_string();

    let workload = std::thread::spawn(|| {
        aarray_harness::workloads::run_workload(aarray_harness::workloads::Figure::Fig3, 400, 3);
    });

    // No response is older than its request: bump a counter, capture,
    // then fetch. Counters are monotone, so every served counter is at
    // least the capture's, whatever the workload adds in between.
    for _ in 0..3 {
        aarray_obs::counters().incr(Counter::IntersectMerge);
        let captured = ObsReport::capture();
        let report = get_json(&addr, "/report.json");
        for &(c, name) in COUNTER_NAMES.iter() {
            let served = report
                .path(&["counters", name])
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("/report.json lacks counter {}", name));
            assert!(
                served >= captured.counters.get(c),
                "{} served {} after a capture read {}",
                name,
                served,
                captured.counters.get(c)
            );
        }
    }

    // /metrics parses as Prometheus exposition text: every line is a
    // comment (`# HELP`/`# TYPE`) or `name{labels} value`.
    let (status, metrics) = http_get(&addr, "/metrics", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    assert!(!metrics.is_empty());
    let mut families = 0;
    for line in metrics.lines() {
        assert!(!line.is_empty(), "blank line in exposition output");
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                "bad comment: {}",
                line
            );
            if line.starts_with("# TYPE ") {
                families += 1;
            }
            continue;
        }
        let (metric, value) = line.rsplit_once(' ').expect(line);
        assert!(metric.starts_with("aarray_"), "unprefixed: {}", line);
        assert!(value.parse::<u64>().is_ok(), "bad value: {}", line);
    }
    assert!(families >= 5, "suspiciously few families: {}", families);

    // /report.json is the schema-versioned report, and its live
    // histograms fill in: every plan build records its flops estimate
    // into `dispatch.flops`.
    let deadline = Instant::now() + Duration::from_secs(10);
    let dispatch_flops = loop {
        let report = get_json(&addr, "/report.json");
        assert_eq!(
            report.get("schema_version").and_then(Value::as_u64),
            Some(aarray_obs::REPORT_SCHEMA_VERSION)
        );
        let count = report
            .path(&["histograms", "dispatch.flops", "count"])
            .and_then(Value::as_u64)
            .expect("report has a dispatch.flops histogram");
        if count > 0 || Instant::now() >= deadline {
            break count;
        }
        std::thread::sleep(Duration::from_millis(15));
    };
    assert!(dispatch_flops > 0, "dispatch.flops stayed empty");

    // /healthz: status plus the drop counts of its own capture.
    let health = get_json(&addr, "/healthz");
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));
    for key in ["journal_dropped", "ops_dropped"] {
        assert!(
            health.get(key).and_then(Value::as_u64).is_some(),
            "{:?}",
            health
        );
    }

    // A malformed request gets 400 and the server keeps serving.
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.write_all(b"COMPLETELY BOGUS\r\n\r\n").unwrap();
    let mut raw = String::new();
    let _ = s.read_to_string(&mut raw);
    assert!(raw.starts_with("HTTP/1.0 400"), "got: {}", raw);
    drop(s);
    let (status, _) = http_get(&addr, "/metrics", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200, "server died after malformed request");

    // Unknown paths 404 without killing anything either.
    let (status, _) = http_get(&addr, "/nope", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 404);

    workload.join().unwrap();
    server.stop();
}

/// Kills the child when the test ends, passing or panicking: a watch
/// with `--listen` serves until it is killed.
struct KillOnDrop(Child);

impl KillOnDrop {
    fn exited(&mut self) -> Option<ExitStatus> {
        self.0.try_wait().unwrap()
    }
}

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Binary-level smoke: `obsctl watch --listen 127.0.0.1:0 --port-file`
/// publishes its real address, prints its final table when the
/// workload ends, and still serves after that, until it is killed.
#[test]
fn obsctl_watch_listen_serves_via_port_file() {
    let dir = tmpdir("watch");
    let port_file = dir.join("watch.addr");
    let _ = std::fs::remove_file(&port_file);

    let mut child = KillOnDrop(
        obsctl()
            .args([
                "watch",
                "fig3",
                "--rows",
                "400",
                "--reps",
                "8",
                "--listen",
                "127.0.0.1:0",
                "--port-file",
            ])
            .arg(&port_file)
            .stdout(Stdio::piped())
            .spawn()
            .unwrap(),
    );

    // Poll for the published address.
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            let s = s.trim().to_string();
            if !s.is_empty() {
                break s;
            }
        }
        assert!(Instant::now() < deadline, "watch never published");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(addr.starts_with("127.0.0.1:"), "odd address: {}", addr);
    assert!(!addr.ends_with(":0"), "port 0 was not resolved: {}", addr);

    // Read stdout up to the final table: the workload has ended. The
    // reader stays open, so the child never writes to a closed pipe.
    let mut lines = BufReader::new(child.0.stdout.take().unwrap()).lines();
    let mut out = String::new();
    for line in lines.by_ref().map_while(Result::ok) {
        out.push_str(&line);
        out.push('\n');
        if line.contains("still serving") {
            break;
        }
    }
    assert!(
        out.contains("still serving"),
        "stdout closed early:\n{}",
        out
    );
    assert!(out.contains("workload finished"), "{}", out);
    assert!(out.contains("plan-execute"), "{}", out);

    // The workload is over and the server still serves.
    let (status, metrics) = http_get(&addr, "/metrics", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    assert!(metrics.contains("aarray_events_total"), "{}", metrics);
    let (status, health) = http_get(&addr, "/healthz", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    assert!(health.contains("\"status\": \"ok\""), "{}", health);
    assert_eq!(child.exited(), None, "watch exited by itself");
    std::fs::remove_dir_all(&dir).ok();
}
