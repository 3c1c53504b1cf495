//! # aarray-harness
//!
//! The tooling around the `aarray` workspace, shipped as the
//! [`obsctl`](../obsctl/index.html) binary:
//!
//! - `obsctl gate` runs the repo's benchmark (`aabench`, declared by
//!   `BENCHMARK.json`) on a parent and a change checkout in alternating
//!   pairs and judges the end-to-end medians against the declared
//!   bounds ([`gate`]).
//! - `obsctl trace` drains the always-on flight recorder
//!   ([`aarray_obs::journal()`]) after one workload, audits its decision
//!   events against the counter registry, and exports the run as a
//!   Chrome-trace/Perfetto timeline validated by [`chrome_trace`].
//! - `obsctl ops` prints the op ledger's per-kind tails and cuts the
//!   slowest op's window into its own trace.
//! - `obsctl watch` runs a workload while a background
//!   [`aarray_obs::Collector`] samples frames; with `--listen` an
//!   embedded HTTP/1.0 server ([`httpd`], `std::net` only) serves
//!   `/metrics`, `/report.json`, `/series.json` and `/healthz`, and
//!   `obsctl fetch` is the matching client.
//!
//! The workloads these drive live in [`workloads`]. Everything here is
//! dependency-free: the offline `serde_json` stub is empty, so [`json`]
//! is a small hand-rolled parser.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome_trace;
pub mod gate;
pub mod httpd;
pub mod json;
pub mod workloads;
