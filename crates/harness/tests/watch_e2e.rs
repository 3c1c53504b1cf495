//! End-to-end exercise of the live telemetry stack: an in-process
//! `Collector` + `Httpd` wired exactly as `obsctl watch --listen`
//! wires them, polled with raw `TcpStream` clients while a real
//! (tiny-scale) workload runs — plus a binary-level run of
//! `obsctl watch --listen 127.0.0.1:0 --port-file` fetched through
//! the harness HTTP client after its workload has finished.

use aarray_harness::httpd::{http_get, telemetry_handler, Httpd};
use aarray_harness::json::{parse, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn obsctl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_obsctl"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("watch-e2e-{}-{}", tag, std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Extract `"key": <uint>` from the hand-rolled healthz/series JSON.
fn json_uint(body: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{}\": ", key);
    let i = body.find(&tag)? + tag.len();
    let rest = &body[i..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The whole live stack in one process: sampler at a test-friendly
/// interval, server on an OS-assigned port, workload on a background
/// thread, raw-socket clients doing the asserting.
#[test]
fn watch_stack_serves_all_endpoints_while_workload_runs() {
    let collector = aarray_obs::Collector::start_with(aarray_obs::CollectorConfig {
        interval_ms: Some(10),
        capacity: Some(256),
        pre_sample: Some(Box::new(aarray_core::publish_pool_stats)),
    });
    let ring = Arc::clone(collector.ring());
    let server = Httpd::serve(
        "127.0.0.1:0",
        telemetry_handler(Arc::clone(&ring), collector.probe()),
    )
    .unwrap();
    let addr = server.addr().to_string();

    let workload = std::thread::spawn(|| {
        aarray_harness::workloads::run_workload(aarray_harness::workloads::Figure::Fig3, 400, 3);
    });

    // Wait for the first frame so /metrics and /report.json are live.
    let deadline = Instant::now() + Duration::from_secs(10);
    while ring.latest().is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
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

    // /report.json is the schema-versioned report.
    let (status, report) = http_get(&addr, "/report.json", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        json_uint(&report, "schema_version"),
        Some(aarray_obs::REPORT_SCHEMA_VERSION)
    );

    // Its live histograms fill in: every plan build records its flops
    // estimate into `dispatch.flops`.
    let deadline = Instant::now() + Duration::from_secs(10);
    let dispatch_flops = loop {
        let (status, report) = http_get(&addr, "/report.json", Duration::from_secs(5)).unwrap();
        assert_eq!(status, 200);
        let doc = parse(&report).expect("/report.json must be JSON");
        let count = doc
            .path(&["histograms", "dispatch.flops", "count"])
            .and_then(Value::as_u64)
            .expect("report has a dispatch.flops histogram");
        if count > 0 || Instant::now() >= deadline {
            break count;
        }
        std::thread::sleep(Duration::from_millis(15));
    };
    assert!(dispatch_flops > 0, "dispatch.flops stayed empty");

    // /series.json frame count grows between two polls.
    let (status, series_a) = http_get(&addr, "/series.json", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    let frames_a = json_uint(&series_a, "recorded").expect("series has frames.recorded");
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut frames_b = frames_a;
    while frames_b <= frames_a && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(15));
        let (status, series_b) = http_get(&addr, "/series.json", Duration::from_secs(5)).unwrap();
        assert_eq!(status, 200);
        frames_b = json_uint(&series_b, "recorded").unwrap();
    }
    assert!(
        frames_b > frames_a,
        "frame count did not grow: {} -> {}",
        frames_a,
        frames_b
    );

    // /healthz: live sampler, zero sampler drops (capacity 256 is far
    // more than this test's runtime can fill at 10 ms per frame).
    let (status, health) = http_get(&addr, "/healthz", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    assert!(health.contains("\"status\": \"ok\""), "{}", health);
    assert_eq!(json_uint(&health, "dropped"), Some(0), "{}", health);

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
    collector.stop();
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
                "--interval-ms",
                "25",
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
