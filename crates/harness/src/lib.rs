//! # aarray-harness
//!
//! The perf-regression observatory around the `aarray` workspace:
//! the [`obsctl`](../obsctl/index.html) binary runs the canonical
//! Figure 3/5 workloads at several scales, captures the full
//! [`aarray_obs::ObsReport`] (counters, histograms, memory peaks) plus
//! per-plan stage medians, writes a schema-versioned `BENCH_pr3.json`,
//! and renders a regression verdict against earlier `BENCH_*.json`
//! baselines (both the v3 observatory format and the legacy PR1/PR2
//! single-figure files).
//!
//! `obsctl diff` attributes the wall-time delta between two captured
//! runs ([`diff`]) to ranked stage contributors and decision flips;
//! `obsctl run/stream --profile-out` writes the rich per-run documents
//! ([`profile`]) it consumes, and `obsctl history` trends every
//! committed baseline lineage shape ([`history`]).
//!
//! `obsctl trace` additionally drains the always-on flight recorder
//! ([`aarray_obs::journal()`]) after one workload and exports it as a
//! Chrome-trace/Perfetto timeline, validated structurally by
//! [`chrome_trace`] before it is written.
//!
//! `obsctl watch` runs a workload while a background
//! [`aarray_obs::Collector`] samples frames and an embedded
//! hand-rolled HTTP/1.0 server ([`httpd`], `std::net` only) serves
//! `/metrics`, `/report.json`, `/series.json`, and `/healthz` — the
//! live half of the observatory.
//!
//! Everything here is dependency-free: the offline `serde_json` stub
//! is empty, so [`json`] is a small hand-rolled parser scoped to the
//! bench schemas.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome_trace;
pub mod compare;
pub mod diff;
pub mod history;
pub mod httpd;
pub mod json;
pub mod profile;
pub mod schema;
pub mod workloads;
