//! One benchmark run: set-up, warm-up, a timed closed loop, metrics.
//!
//! An untraced run (`trace = false`) times every op on the benchmark's
//! pool and reports the end-to-end metrics. A traced run cycles its ops
//! through three modes: traced on the pool, untraced on the pool, and
//! untraced on one thread. Traced ops give the layer shares and counts;
//! comparing them with the untraced ops gives the tracing overhead, and
//! the one-thread ops give the parallel speed-up. Cycling op by op,
//! rather than running the modes one after the other, puts every mode
//! under the same host conditions.

use crate::trace::{Layer, Tracer, LAYERS};
use crate::watchdog::Watchdog;
use crate::workloads::{setup, BatchInfo, Kind, OpInfo, Scale, Workload};
use aarray_obs::{memstats, Counter, MemRegion, Snapshot};
use rayon::{ThreadPool, ThreadPoolBuilder};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Threads in the pool every op runs on (fewer on a smaller host).
pub const THREADS: usize = 2;
/// `setup_s` is the median of at least `MIN_SETUPS` set-ups, repeated
/// until `SETUP_BUDGET_S` is spent so that short set-ups get a steady
/// median, and at most `MAX_SETUPS`.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;
/// Deadline of each set-up and of building the oracle.
const SETUP_DEADLINE: Duration = Duration::from_secs(60);
/// Deadline of the warm-up op, and the least deadline of any op.
const OP_DEADLINE_FLOOR: Duration = Duration::from_secs(5);
/// An op's deadline is this many times the warm-up op.
const OP_DEADLINE_FACTOR: u32 = 50;
/// The timing metrics are medians over about this many blocks of
/// consecutive ops, so that a host hiccup shorter than half a run
/// leaves them unchanged.
const BLOCKS: usize = 10;
/// Spans a traced run can hold.
const SPAN_CAPACITY: usize = 1 << 18;
/// At most this many failure messages are kept for the summary.
const KEEP_ERRORS: usize = 5;

pub struct Config {
    pub kind: Kind,
    pub scale: Scale,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

pub struct Outcome {
    pub report: Report,
    /// Human-readable lines for standard error.
    pub summary: String,
    /// Chrome-trace JSON of the traced ops.
    pub trace_json: Option<String>,
}

/// How one op is run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// On the pool, untraced: the end-to-end sample.
    Plain,
    /// On the pool, with layer spans, counter deltas and memory peaks.
    Traced,
    /// On one thread, untraced.
    OneThread,
}

/// One timed op of the end-to-end sample.
#[derive(Clone, Copy)]
struct Sample {
    ns: u64,
    edges: u64,
    /// The op ended a pass, so a block may end after it.
    pass_end: bool,
}

/// Consecutive runs of samples, about [`BLOCKS`] of them, each ending
/// at the end of a pass so that every `stream-ingest` block covers
/// whole passes.
fn blocks(samples: &[Sample]) -> Vec<&[Sample]> {
    let target = samples.len().div_ceil(BLOCKS);
    let mut out = Vec::new();
    let mut start = 0;
    for (i, s) in samples.iter().enumerate() {
        if s.pass_end && i + 1 - start >= target {
            out.push(&samples[start..=i]);
            start = i + 1;
        }
    }
    if start < samples.len() {
        out.push(&samples[start..]);
    }
    out
}

/// What the watchdog needs to report a stuck step: the counts so far
/// and the end-to-end sample.
#[derive(Default)]
struct Progress {
    setup_s: f64,
    attempted: u64,
    failed: u64,
    samples: Vec<Sample>,
}

impl Progress {
    /// Each timing metric is the median over [`blocks`] of that block's
    /// throughput or percentile.
    fn end_to_end(&self) -> Vec<Metric> {
        let (mut rate, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new());
        for b in blocks(&self.samples) {
            let lat = sorted(&b.iter().map(|s| s.ns).collect::<Vec<_>>());
            let edges = b.iter().map(|s| s.edges).sum::<u64>() as f64;
            rate.push(ratio(edges, lat.iter().sum::<u64>() as f64 / 1e9));
            p50.push(percentile(&lat, 0.50) / 1e6);
            p90.push(percentile(&lat, 0.90) / 1e6);
        }
        vec![
            metric("setup_s", "s", self.setup_s),
            metric("edges_per_s", "1/s", median_f64(&mut rate)),
            metric("op_p50_ms", "ms", median_f64(&mut p50)),
            metric("op_p90_ms", "ms", median_f64(&mut p90)),
            metric("peak_rss_mib", "MiB", peak_rss_kib() as f64 / 1024.0),
        ]
    }

    fn latencies(&self) -> Vec<u64> {
        self.samples.iter().map(|s| s.ns).collect()
    }
}

/// The regions reported as `mem.peak_bytes.*`.
const MEM_REGIONS: [(MemRegion, &str); 5] = [
    (MemRegion::PlanTranspose, "plan-transpose"),
    (MemRegion::PlanSymbolic, "plan-symbolic"),
    (MemRegion::FusedAccumulator, "fused-accumulator"),
    (MemRegion::DeltaScratch, "delta-scratch"),
    (MemRegion::KeySetInterned, "keyset-interned"),
];

/// The most accounted bytes any traced op held at once, per region.
/// The accounting is reset before each traced op, so set-up, the
/// oracle and the checks between ops are left out, as is memory that
/// was live before the op started.
#[derive(Default)]
struct MemPeaks([u64; MEM_REGIONS.len()]);

impl MemPeaks {
    /// Call right before a traced op.
    fn start_op() {
        memstats().reset();
    }

    /// Call right after a traced op.
    fn end_op(&mut self) {
        for (peak, (region, _)) in self.0.iter_mut().zip(MEM_REGIONS) {
            *peak = (*peak).max(memstats().peak(region));
        }
    }
}

/// Library counters summed over the traced ops only, so that the
/// oracle's own calls between ops are left out.
#[derive(Default)]
struct Counts {
    intern_hit: u64,
    intern_miss: u64,
    flops: u64,
    fallback: u64,
    incremental: u64,
    parallel: u64,
    serial: u64,
    tasks_local: u64,
    tasks_stolen: u64,
    tasks_inline: u64,
}

impl Counts {
    fn add(&mut self, d: &Snapshot) {
        self.intern_hit += d.get(Counter::InternHit);
        self.intern_miss += d.get(Counter::InternMiss);
        self.flops += d.get(Counter::FlopsTotal);
        self.fallback += d.get(Counter::IncrementalFallback);
        self.incremental += d.get(Counter::IncrementalApply);
        self.parallel += d.get(Counter::DispatchParallel);
        self.serial += d.get(Counter::DispatchSerial);
        self.tasks_local += d.get(Counter::PoolTasksLocal);
        self.tasks_stolen += d.get(Counter::PoolTasksStolen);
        self.tasks_inline += d.get(Counter::PoolTasksInline);
    }
}

fn counters_now() -> Snapshot {
    aarray_core::publish_pool_stats();
    aarray_obs::snapshot()
}

/// The traced and one-thread ops of a traced run.
#[derive(Default)]
struct TraceSample {
    lat_ns: Vec<u64>,
    ops: Vec<(u32, OpInfo)>,
    counts: Counts,
    mem: MemPeaks,
    one_thread_lat_ns: Vec<u64>,
}

struct Runner {
    w: Box<dyn Workload>,
    tracer: Tracer,
    serial: Arc<ThreadPool>,
    progress: Arc<Mutex<Progress>>,
    dog: Watchdog,
    /// Deadline of one op, from its preparation to its check.
    deadline: Duration,
    next_op: u32,
    traced: TraceSample,
    errors: Vec<String>,
}

impl Runner {
    fn progress(&self) -> std::sync::MutexGuard<'_, Progress> {
        self.progress
            .lock()
            .expect("progress lock poisoned by a panic")
    }

    /// Prepare, run, time, check and record one op. Returns how long
    /// all of that took.
    fn one_op(&mut self, pool: &ThreadPool, mode: Mode) -> Duration {
        let step = Instant::now();
        self.dog.arm(self.deadline);
        self.w.prepare();
        let id = self.next_op;
        self.next_op += 1;
        let traced = mode == Mode::Traced;
        self.tracer.set_enabled(traced);
        let serial = self.serial.clone();
        let pool = if mode == Mode::OneThread {
            &serial
        } else {
            pool
        };
        let before = traced.then(counters_now);
        if traced {
            MemPeaks::start_op();
        }
        self.tracer.begin_op(id);
        let t0 = Instant::now();
        let (w, tracer) = (&mut self.w, &mut self.tracer);
        let result = pool.install(|| w.op(tracer));
        let ns = t0.elapsed().as_nanos() as u64;
        self.tracer.end_op();
        if let Some(b) = before {
            self.traced.mem.end_op();
            self.traced.counts.add(&counters_now().since(&b));
        }
        let pass_end = self.w.pass_done();
        let checked = result.and_then(|info| self.w.check(&serial).map(|()| info));
        self.dog.disarm();
        let mut p = self
            .progress
            .lock()
            .expect("progress lock poisoned by a panic");
        p.attempted += 1;
        let info = checked
            .map_err(|e| {
                p.failed += 1;
                if self.errors.len() < KEEP_ERRORS {
                    self.errors.push(e);
                }
            })
            .ok();
        match mode {
            Mode::Plain => p.samples.push(Sample {
                ns,
                edges: info.map_or(0, |i| i.edges),
                pass_end,
            }),
            Mode::Traced => {
                self.traced.lat_ns.push(ns);
                self.traced.ops.extend(info.map(|i| (id, i)));
            }
            Mode::OneThread => self.traced.one_thread_lat_ns.push(ns),
        }
        step.elapsed()
    }

    /// Closed loop, one op at a time, cycling through `modes`, until
    /// `seconds` have passed and no pass is half done.
    fn run_loop(&mut self, pool: &ThreadPool, seconds: f64, modes: &[Mode]) {
        self.w.restart();
        let start = Instant::now();
        for i in 0.. {
            self.one_op(pool, modes[i % modes.len()]);
            if start.elapsed().as_secs_f64() >= seconds && self.w.pass_done() {
                break;
            }
        }
    }
}

/// Run one workload on a pool of [`THREADS`] threads, or as many as
/// the host has if that is fewer. If a step outlives its deadline,
/// `on_stuck` receives the partial report, with the stuck op counted
/// as failed.
pub fn run(cfg: &Config, on_stuck: fn(Report)) -> Outcome {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = ThreadPoolBuilder::new()
        .num_threads(THREADS.min(cores))
        .build()
        .expect("thread pool");
    let serial = Arc::new(
        ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("thread pool"),
    );
    pool.install(|| run_in(cfg, &pool, serial, on_stuck))
}

fn run_in(
    cfg: &Config,
    pool: &ThreadPool,
    serial: Arc<ThreadPool>,
    on_stuck: fn(Report),
) -> Outcome {
    let progress = Arc::new(Mutex::new(Progress::default()));
    let dog = {
        let progress = progress.clone();
        Watchdog::start(move |ran, deadline| {
            let p = progress.lock().unwrap_or_else(|e| e.into_inner());
            eprintln!("aabench: a step ran for {ran:?}, past its {deadline:?} deadline");
            on_stuck(Report {
                correct: false,
                attempted: p.attempted + 1,
                failed: p.failed + 1,
                metrics: p.end_to_end(),
            });
        })
    };

    let mut setup_s = Vec::new();
    let mut w = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && setup_s.len() < MAX_SETUPS)
    {
        drop(w.take());
        dog.arm(SETUP_DEADLINE);
        let t0 = Instant::now();
        w = Some(setup(cfg.kind, cfg.scale, cfg.seed));
        setup_s.push(t0.elapsed().as_secs_f64());
        dog.disarm();
    }
    let mut w = w.expect("at least one set-up");
    dog.arm(SETUP_DEADLINE);
    w.build_oracle(&serial);
    dog.disarm();
    progress
        .lock()
        .expect("progress lock poisoned by a panic")
        .setup_s = median_f64(&mut setup_s);

    let mut r = Runner {
        w,
        tracer: Tracer::new(if cfg.trace { SPAN_CAPACITY } else { 0 }),
        serial,
        progress,
        dog,
        deadline: OP_DEADLINE_FLOOR,
        next_op: 0,
        traced: TraceSample::default(),
        errors: Vec::new(),
    };
    let warm_up = r.one_op(pool, Mode::Plain);
    r.deadline = OP_DEADLINE_FLOOR.max(warm_up * OP_DEADLINE_FACTOR);
    r.progress().samples.clear();

    let mut summary = format!(
        "aabench {} seed {} threads {} ({} available): set-up {:.3} s (median of {}), op deadline {:?}\n",
        cfg.kind.name(),
        cfg.seed,
        pool.current_num_threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        r.progress().setup_s,
        setup_s.len(),
        r.deadline,
    );
    let modes: &[Mode] = if cfg.trace {
        &[Mode::Traced, Mode::Plain, Mode::OneThread]
    } else {
        &[Mode::Plain]
    };
    r.run_loop(pool, cfg.seconds, modes);
    let (metrics, trace_json) = if cfg.trace {
        let plain = r.progress().latencies();
        let m = per_layer(&r.tracer, &r.traced, &plain, &mut summary);
        (m, Some(r.tracer.to_chrome_trace()))
    } else {
        let p = r.progress();
        let _ = writeln!(
            summary,
            "{} ops timed in {} blocks",
            p.samples.len(),
            blocks(&p.samples).len()
        );
        (p.end_to_end(), None)
    };
    for e in &r.errors {
        let _ = writeln!(summary, "check failed: {e}");
    }
    let p = r.progress();
    Outcome {
        report: Report {
            correct: p.failed == 0,
            attempted: p.attempted,
            failed: p.failed,
            metrics,
        },
        summary,
        trace_json,
    }
}

fn per_layer(
    tracer: &Tracer,
    traced: &TraceSample,
    plain_lat_ns: &[u64],
    summary: &mut String,
) -> Vec<Metric> {
    let (layer_ns, residual_ns) = tracer.self_times();
    let op_ns = (layer_ns.iter().sum::<u64>() + residual_ns) as f64;
    let n_ops = traced.lat_ns.len() as f64;
    let _ = writeln!(
        summary,
        "traced ops: {}, {} spans ({} dropped)",
        n_ops,
        tracer.spans().len(),
        tracer.dropped()
    );
    let mut m = Vec::new();
    for l in LAYERS {
        let ns = layer_ns[l.index()] as f64;
        let _ = writeln!(
            summary,
            "  {:<26} {:>10.3} ms/op {:>6.1}%",
            l.name(),
            ns / 1e6 / n_ops,
            100.0 * ratio(ns, op_ns)
        );
        m.push(metric(
            format!("{}_share", l.name()),
            "ratio",
            ratio(ns, op_ns),
        ));
    }
    let _ = writeln!(
        summary,
        "  {:<26} {:>10.3} ms/op",
        "(outside layers)",
        residual_ns as f64 / 1e6 / n_ops
    );

    // Stream ops: which batch each op appended.
    let batches: HashMap<u32, BatchInfo> = traced
        .ops
        .iter()
        .filter_map(|&(id, i)| Some((id, i.batch?)))
        .collect();
    let (mut refresh_ns, mut barrier_ns) = (0u64, 0u64);
    let (mut first, mut last) = (Vec::new(), Vec::new());
    for s in tracer.spans() {
        let (Some(layer), Some(b)) = (s.layer, batches.get(&s.op)) else {
            continue;
        };
        let d = s.end_ns - s.start_ns;
        match layer {
            Layer::Refresh => {
                refresh_ns += d;
                if b.interleaved {
                    barrier_ns += d;
                }
            }
            Layer::Append if b.index < b.of / 10 => first.push(d),
            Layer::Append if b.index >= b.of - b.of / 10 => last.push(d),
            _ => {}
        }
    }
    let growth = ratio(
        percentile(&sorted(&last), 0.5),
        percentile(&sorted(&first), 0.5),
    );
    m.push(metric(
        "core.incremental.barrier_refresh_share",
        "ratio",
        ratio(barrier_ns as f64, refresh_ns as f64),
    ));
    m.push(metric("core.incremental.append_growth", "ratio", growth));

    let c = &traced.counts;
    let out_nnz: u64 = traced.ops.iter().map(|(_, i)| i.out_nnz).sum();
    let numeric_ns = layer_ns[Layer::Numeric.index()] as f64;
    // Modelled traffic of the numeric pass: per multiply-add one
    // right-operand column index and value, per output entry the same.
    let entry_bytes = (std::mem::size_of::<u32>() + std::mem::size_of::<f64>()) as f64;
    m.extend([
        metric(
            "core.incremental.fallback_ratio",
            "ratio",
            ratio(c.fallback as f64, (c.fallback + c.incremental) as f64),
        ),
        metric(
            "core.keys.intern_hit_ratio",
            "ratio",
            ratio(c.intern_hit as f64, (c.intern_hit + c.intern_miss) as f64),
        ),
        metric("sparse.out_nnz", "count", ratio(out_nnz as f64, n_ops)),
        metric(
            "sparse.numeric.flops",
            "count",
            ratio(c.flops as f64, n_ops),
        ),
        metric(
            "sparse.numeric.gflops",
            "GFLOP/s",
            ratio(c.flops as f64, numeric_ns),
        ),
        metric(
            "sparse.numeric.bytes_computed",
            "bytes",
            ratio((c.flops + out_nnz) as f64 * entry_bytes, n_ops),
        ),
        metric(
            "pool.parallel_dispatch_ratio",
            "ratio",
            ratio(c.parallel as f64, (c.parallel + c.serial) as f64),
        ),
        metric(
            "pool.stolen_ratio",
            "ratio",
            ratio(
                c.tasks_stolen as f64,
                (c.tasks_local + c.tasks_stolen + c.tasks_inline) as f64,
            ),
        ),
    ]);

    let p50 = |lat: &[u64]| percentile(&sorted(lat), 0.5);
    let (t50, u50, s50) = (
        p50(&traced.lat_ns),
        p50(plain_lat_ns),
        p50(&traced.one_thread_lat_ns),
    );
    let _ = writeln!(
        summary,
        "op p50: traced {:.3} ms, untraced {:.3} ms, one thread {:.3} ms",
        t50 / 1e6,
        u50 / 1e6,
        s50 / 1e6
    );
    // One-thread over pool median op; the pool has `THREADS` = 2.
    m.push(metric("pool.speedup_2v1", "ratio", ratio(s50, u50)));
    for (&peak, (_, name)) in traced.mem.0.iter().zip(MEM_REGIONS) {
        m.push(metric(
            format!("mem.peak_bytes.{name}"),
            "bytes",
            peak as f64,
        ));
    }
    m.push(metric(
        "trace.residual_ratio",
        "ratio",
        ratio(residual_ns as f64, op_ns),
    ));
    m.push(metric(
        "trace.overhead_ratio",
        "ratio",
        ratio(t50 - u50, u50),
    ));
    m
}

fn sorted(v: &[u64]) -> Vec<u64> {
    let mut v = v.to_vec();
    v.sort_unstable();
    v
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Linear-interpolated percentile of sorted samples (0 when empty).
fn percentile(sorted: &[u64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let x = q * (n - 1) as f64;
            let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
            sorted[lo] as f64 + (sorted[hi] as f64 - sorted[lo] as f64) * (x - lo as f64)
        }
    }
}

/// Median (0 when empty).
fn median_f64(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The process's peak resident set (`VmHWM`) in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("peak RSS is read from /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::KINDS;
    use aarray_harness::{chrome_trace, json};
    use std::sync::MutexGuard;

    /// Held by every test that runs a workload or reads the
    /// process-wide memory accounting, so that tests running side by
    /// side leave each other's peaks alone.
    fn memstats_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn stuck(_: Report) {
        panic!("an op outlived its deadline");
    }

    fn small(kind: Kind, trace: bool) -> Outcome {
        let cfg = Config {
            kind,
            scale: Scale::Small,
            seed: 11,
            seconds: 0.3,
            trace,
        };
        run(&cfg, stuck)
    }

    fn value(r: &Report, name: &str) -> f64 {
        r.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .value
    }

    fn samples(pass_ends: &[bool]) -> Vec<Sample> {
        pass_ends
            .iter()
            .map(|&pass_end| Sample {
                ns: 1,
                edges: 1,
                pass_end,
            })
            .collect()
    }

    #[test]
    fn blocks_cover_every_sample_and_end_only_at_pass_ends() {
        let one_op_passes = samples(&[true; 215]);
        let sizes: Vec<usize> = blocks(&one_op_passes).iter().map(|b| b.len()).collect();
        assert_eq!(sizes, [22, 22, 22, 22, 22, 22, 22, 22, 22, 17]);

        // Four passes of 100 ops: one block per pass.
        let mut ends = [false; 400];
        for i in (99..400).step_by(100) {
            ends[i] = true;
        }
        let passes = samples(&ends);
        let b = blocks(&passes);
        assert_eq!(b.len(), 4);
        assert!(b.iter().all(|b| b.len() == 100 && b[99].pass_end));

        assert!(blocks(&[]).is_empty());
        assert_eq!(blocks(&samples(&[false; 7])).len(), 1, "a cut-short pass");
    }

    #[test]
    fn memory_peaks_count_only_what_an_op_holds() {
        let _g = memstats_lock();
        let region = MemRegion::PlanTranspose;
        let mut peaks = MemPeaks::default();
        // Held from set-up on, across the op.
        let before = memstats().track(region, 1 << 30);
        MemPeaks::start_op();
        drop(memstats().track(region, 4096));
        peaks.end_op();
        drop(before);
        // A check between ops.
        drop(memstats().track(region, 1 << 29));
        MemPeaks::start_op();
        drop(memstats().track(region, 1024));
        peaks.end_op();
        assert_eq!(peaks.0[0], 4096);
    }

    /// `stream-ingest`'s barrier ops rebuild the view through a plan,
    /// so they account plan-transpose bytes. The full rebuild its check
    /// runs at the end of a pass covers more tracks than any op's, so
    /// the reported peak must be below that rebuild's.
    #[test]
    fn stream_memory_peaks_come_from_ops_not_checks() {
        let _g = memstats_lock();
        let out = small(Kind::StreamIngest, true);
        assert!(out.report.correct, "{}", out.summary);
        let from_ops = value(&out.report, "mem.peak_bytes.plan-transpose");

        let serial = ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("thread pool");
        let mut w = setup(Kind::StreamIngest, Scale::Small, 11);
        let mut t = Tracer::new(0);
        w.restart();
        loop {
            w.prepare();
            w.op(&mut t).expect("stream op");
            if w.pass_done() {
                break;
            }
        }
        memstats().reset();
        w.check(&serial).expect("pass-end check");
        let check = memstats().peak(MemRegion::PlanTranspose) as f64;
        assert!(
            0.0 < from_ops && from_ops < check,
            "ops {from_ops} B, pass-end check {check} B"
        );
    }

    /// The metric names in `BENCHMARK.json` under `key`, in order.
    fn declared(key: &str) -> Vec<String> {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let list = doc
            .get(key)
            .and_then(json::Value::as_arr)
            .expect("metric list");
        list.iter()
            .map(|m| {
                m.get("name")
                    .and_then(json::Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    fn names(r: &Report) -> Vec<String> {
        r.metrics.iter().map(|m| m.name.clone()).collect()
    }

    #[test]
    fn untraced_run_reports_the_declared_end_to_end_metrics() {
        let _g = memstats_lock();
        let out = small(Kind::SevenPair, false);
        assert!(
            out.report.correct && out.report.failed == 0,
            "{}",
            out.summary
        );
        assert_eq!(names(&out.report), declared("end_to_end"));
        assert!(
            out.report.metrics.iter().all(|m| m.value > 0.0),
            "{}",
            out.report.to_json()
        );
        assert!(json::parse(&out.report.to_json()).is_ok());
        assert!(out.trace_json.is_none());
    }

    #[test]
    fn traced_runs_are_balanced_reconciled_and_well_formed() {
        let _g = memstats_lock();
        for kind in KINDS {
            let out = small(kind, true);
            let r = &out.report;
            assert!(
                r.correct && r.failed == 0,
                "{}: {}",
                kind.name(),
                out.summary
            );
            assert_eq!(names(r), declared("per_layer"), "{}", kind.name());
            let residual = value(r, "trace.residual_ratio");
            assert!(
                (0.0..=0.05).contains(&residual),
                "{}: residual {residual}\n{}",
                kind.name(),
                out.summary
            );

            let trace = out.trace_json.expect("traced run exports a trace");
            let doc = json::parse(&trace)
                .unwrap_or_else(|e| panic!("{}: trace is not JSON: {e:?}", kind.name()));
            let stats =
                chrome_trace::validate(&doc).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            assert!(
                stats.begins > 0 && stats.begins == stats.ends,
                "{}: {stats:?}",
                kind.name()
            );
            let self_ms = doc
                .get("selfTimesMs")
                .and_then(json::Value::as_obj)
                .expect("self times");
            assert!(
                self_ms
                    .values()
                    .filter_map(json::Value::as_f64)
                    .sum::<f64>()
                    > 0.0
            );
        }
    }
}
