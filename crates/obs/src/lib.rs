//! # aarray-obs
//!
//! Observability primitives for the aarray workspace:
//!
//! * an **always-on histogram registry** ([`histograms`]) — lock-free
//!   log2-bucketed distributions of per-row nnz/flops, accumulator
//!   occupancy, dispatch flops, and appended batch sizes; recording can
//!   be disabled at runtime with `AARRAY_OBS_HISTOGRAMS=0`;
//!
//! * a **memory accounting layer** ([`mod@memstats`]) — current/peak bytes
//!   per working-set region (SPA and hash accumulators, fused
//!   accumulator blocks, plan-owned transposes and symbolic patterns,
//!   interned key sets), fed by explicit instrumentation at the
//!   allocation sites;
//!
//! * an **always-on flight recorder** ([`mod@journal`]) — a lock-free,
//!   bounded ring-buffer journal of fixed-size structured events
//!   (monotonic timestamp, thread id, kind, two payload slots) that
//!   overwrites oldest entries when full and counts the drops. Hot
//!   decision points append *explain events* (accumulator choice,
//!   dispatch verdicts, plan-cache hits, incremental fallbacks) and
//!   stage boundaries append begin/end pairs, so a drained journal
//!   exports as a Chrome-trace/Perfetto timeline
//!   ([`JournalSnapshot::to_chrome_trace`]). Ring capacity is tunable
//!   via `AARRAY_OBS_EVENTS`;
//!
//! * a **per-operation ledger** ([`mod@oplog`]) — every root operation
//!   (plan build/execute, one-shot matmul or kernel, incremental
//!   delta-apply or rebuild) allocates an `OpId` that journal records
//!   carry in a payload slot, and completion publishes one fixed-size
//!   record (kind, workload label, per-stage ns breakdown, flops,
//!   output nnz, lanes, dispatch decision, fallback reason, scratch
//!   peak, journal seq window) into a lock-free bounded ring with
//!   per-kind wall-time tail histograms on top. Ring capacity is
//!   tunable via `AARRAY_OBS_OPS`;
//!
//! * **exporters** ([`ObsReport`]) — one capture of all layers with
//!   stable JSON ([`ObsReport::to_json`]) and Prometheus text format
//!   ([`ObsReport::to_prometheus`]) renderings;
//!
//! * a **live telemetry layer** ([`timeseries`] + [`collector`]) — a
//!   background sampler thread ([`Collector::start`], interval via
//!   `AARRAY_OBS_SAMPLE_MS`, join-on-drop shutdown) captures one full
//!   report per tick into a bounded frame ring ([`TimeSeriesRing`],
//!   capacity via `AARRAY_OBS_FRAMES`, exact drop accounting like the
//!   journal); windowed rates and deltas are derived read-side from
//!   frame pairs, never by mutating the live registries. This is what
//!   a `/metrics`-style endpoint or terminal live view reads while a
//!   workload runs;
//!
//! * an **always-on counter registry** ([`mod@counters`]) — one process-wide
//!   set of relaxed atomic counters recording every kernel decision the
//!   plan/SpGEMM execution layer makes: which `KeySet::intersect` fast
//!   path fired, whether a plan's memoized symbolic pattern was reused,
//!   how the serial-vs-parallel dispatch went and at what flops, which
//!   accumulator each kernel selected, and cumulative flops. A relaxed
//!   `fetch_add` costs a few nanoseconds against kernels that do
//!   microseconds-to-milliseconds of work per call, so the registry
//!   stays on in release builds (quantified by the `obs_overhead`
//!   bench, budget ≤ 2% on the seven-pair fused workload).
//!
//! Stage time has one recording path: the journal's stage begin/end
//! pairs. The ledger derives each op's breakdown from them, and
//! [`StageReport`] sums one workload label's window of ledger records
//! into the per-stage table; the Chrome-trace export shows the same spans.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collector;
pub mod counters;
pub mod histogram;
pub mod journal;
pub mod memstats;
pub mod oplog;
pub mod profile;
pub mod report;
pub mod timeseries;

pub use collector::{
    sample_ms_from_env, Collector, CollectorConfig, CollectorProbe, DEFAULT_SAMPLE_MS,
    SAMPLE_MS_ENV,
};

pub use counters::{counters, env_parse_error, snapshot, Counter, Gauge, Snapshot, SnapshotDiff};
pub use histogram::{
    histograms, histograms_enabled, set_histograms_enabled, Hist, Histogram, HistogramSnapshot,
    HISTOGRAMS_ENV,
};
pub use journal::{
    journal, Event, EventKind, Journal, JournalSnapshot, JournalStats, Stage,
    DEFAULT_JOURNAL_EVENTS, JOURNAL_EVENTS_ENV,
};
pub use memstats::{memstats, MemRegion, MemReservation, MemSnapshot, MemStats};
pub use oplog::{
    current_op, enter_op, intern_label, oplog, workload_label, OpId, OpKind, OpLog, OpLogSnapshot,
    OpLogStats, OpRecord, OpToken, OpsReport, RecordsLost, DEFAULT_OP_RECORDS, OPS_ENV,
    OP_KIND_NAMES,
};
pub use profile::StageReport;
pub use report::{ObsReport, REPORT_SCHEMA_VERSION};
pub use timeseries::{
    frames_from_env, Frame, SeriesStats, TimeSeriesRing, TimeSeriesSnapshot, DEFAULT_FRAMES,
    FRAMES_ENV,
};
