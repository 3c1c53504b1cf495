//! Pluggable export of the full observability state.
//!
//! [`ObsReport::capture`] snapshots all three always-on layers —
//! counters + gauges, histograms, memory accounting — into one value
//! with two textual exporters:
//!
//! * [`ObsReport::to_json`] — a stable, diffable JSON object (keys
//!   sorted by metric name, zero-count histogram buckets elided),
//!   served as `obsctl watch`'s `/report.json`;
//! * [`ObsReport::to_prometheus`] — Prometheus text exposition format
//!   (`# TYPE` comments, cumulative `_bucket{le=...}` histogram
//!   series), ready to serve from a `/metrics` endpoint or scrape via
//!   the node-exporter textfile collector.
//!
//! Both formats are produced without any serialization dependency —
//! the offline `serde_json` stub is empty, and hand-emission keeps the
//! obs crate dependency-free.

use crate::counters::{Counter, Gauge, Snapshot, COUNTER_NAMES, GAUGE_NAMES};
use crate::histogram::{bucket_upper, histograms, HistogramSnapshot, HIST_NAMES};
use crate::journal::JournalStats;
use crate::memstats::{memstats, MemSnapshot, MEM_REGION_NAMES};
use crate::oplog::{OpsReport, OP_KIND_NAMES};

/// Schema version stamped into every JSON export; bumped whenever the
/// shape of the report changes incompatibly. v4 added the `ops`
/// section (per-operation ledger summary + per-kind tail percentiles).
pub const REPORT_SCHEMA_VERSION: u64 = 4;

/// A point-in-time capture of counters, gauges, histograms, and memory
/// accounting. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct ObsReport {
    /// Counter + gauge snapshot.
    pub counters: Snapshot,
    /// One snapshot per registry histogram, in [`HIST_NAMES`] order.
    pub histograms: Vec<HistogramSnapshot>,
    /// Memory accounting snapshot.
    pub mem: MemSnapshot,
    /// Flight-recorder summary (recorded/dropped/capacity).
    pub journal: JournalStats,
    /// Operation-ledger summary (per-kind wall-time tails and
    /// per-label completion counts).
    pub ops: OpsReport,
}

impl ObsReport {
    /// Capture the current state of every layer.
    pub fn capture() -> Self {
        ObsReport {
            counters: crate::counters::snapshot(),
            histograms: histograms().snapshot_all(),
            mem: memstats().snapshot(),
            journal: crate::journal::journal().stats(),
            ops: crate::oplog::oplog().report(),
        }
    }

    /// Report containing the *difference* since an earlier capture:
    /// counters, histogram buckets, and ledger tails diff; gauges,
    /// watermarks, and memory figures carry over from `self` (they are
    /// last-values).
    pub fn since(&self, earlier: &ObsReport) -> ObsReport {
        ObsReport {
            counters: self.counters.since(&earlier.counters),
            histograms: self
                .histograms
                .iter()
                .zip(earlier.histograms.iter())
                .map(|(a, b)| a.since(b))
                .collect(),
            mem: self.mem.clone(),
            journal: JournalStats {
                recorded: self
                    .journal
                    .recorded
                    .saturating_sub(earlier.journal.recorded),
                dropped: self.journal.dropped.saturating_sub(earlier.journal.dropped),
                capacity: self.journal.capacity,
            },
            ops: self.ops.since(&earlier.ops),
        }
    }

    /// Stable JSON object: metric names sorted within each section,
    /// zero-count buckets elided, `min` reported as 0 when empty.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"schema_version\": {},\n",
            REPORT_SCHEMA_VERSION
        ));

        out.push_str("  \"counters\": {");
        append_sorted_u64(
            &mut out,
            COUNTER_NAMES
                .iter()
                .map(|&(c, name)| (name, self.counters.get(c))),
        );
        out.push_str("},\n");

        out.push_str("  \"gauges\": {");
        append_sorted_u64(
            &mut out,
            GAUGE_NAMES
                .iter()
                .map(|&(g, name)| (name, self.counters.gauge(g))),
        );
        out.push_str("},\n");

        out.push_str("  \"histograms\": {");
        let mut hists: Vec<(&str, &HistogramSnapshot)> = HIST_NAMES
            .iter()
            .zip(self.histograms.iter())
            .map(|(&(_, name), s)| (name, s))
            .collect();
        hists.sort_by_key(|&(name, _)| name);
        for (i, (name, s)) in hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&format!("\"{}\": {}", name, histogram_json(s)));
        }
        out.push_str("\n  },\n");

        out.push_str("  \"mem\": {");
        let mut regions: Vec<(&str, u64, u64)> = MEM_REGION_NAMES
            .iter()
            .map(|&(r, name)| (name, self.mem.current(r), self.mem.peak(r)))
            .collect();
        regions.sort_by_key(|&(name, _, _)| name);
        for (i, (name, cur, peak)) in regions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"current\": {}, \"peak\": {}}}",
                name, cur, peak
            ));
        }
        out.push_str("\n  },\n");

        out.push_str(&format!(
            "  \"ops\": {{\"recorded\": {}, \"dropped\": {}, \"capacity\": {},\n    \
             \"pool\": {{\"tasks_local\": {}, \"tasks_stolen\": {}, \"tasks_inline\": {}, \
             \"threads\": {}}},\n    \"kinds\": {{",
            self.ops.recorded,
            self.ops.dropped,
            self.ops.capacity,
            self.counters.get(Counter::PoolTasksLocal),
            self.counters.get(Counter::PoolTasksStolen),
            self.counters.get(Counter::PoolTasksInline),
            self.counters.gauge(Gauge::PoolThreads)
        ));
        let mut kinds: Vec<(&str, &HistogramSnapshot)> = OP_KIND_NAMES
            .iter()
            .zip(self.ops.tails.iter())
            .map(|(&(_, name), s)| (name, s))
            .collect();
        kinds.sort_by_key(|&(name, _)| name);
        for (i, (name, s)) in kinds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}}}",
                name,
                s.count(),
                s.median(),
                s.quantile(0.95),
                s.quantile(0.99)
            ));
        }
        out.push_str("\n  }},\n");

        out.push_str(&format!(
            "  \"journal\": {{\"recorded\": {}, \"dropped\": {}, \"capacity\": {}}}\n}}\n",
            self.journal.recorded, self.journal.dropped, self.journal.capacity
        ));
        out
    }

    /// Prometheus text exposition format. Metric names are the report
    /// labels with `.`/`-` mapped to `_` and an `aarray_` prefix;
    /// histogram series are cumulative with a `+Inf` bucket, as the
    /// format requires. Every metric family is announced by exactly
    /// one `# HELP` + `# TYPE` pair before its first sample.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);

        let mut counters: Vec<(&str, u64)> = COUNTER_NAMES
            .iter()
            .map(|&(c, name)| (name, self.counters.get(c)))
            .collect();
        counters.sort_by_key(|&(name, _)| name);
        family(
            &mut out,
            "aarray_events_total",
            "Monotone kernel-decision event counters, one series per event kind.",
            "counter",
        );
        for (name, v) in counters {
            out.push_str(&format!(
                "aarray_events_total{{event=\"{}\"}} {}\n",
                escape_label_value(name),
                v
            ));
        }

        let mut gauges: Vec<(&str, u64)> = GAUGE_NAMES
            .iter()
            .map(|&(g, name)| (name, self.counters.gauge(g)))
            .collect();
        gauges.sort_by_key(|&(name, _)| name);
        for (name, v) in gauges {
            let pname = format!("aarray_{}", prom_name(name));
            family(
                &mut out,
                &pname,
                &format!("Last-value gauge `{}`.", name),
                "gauge",
            );
            out.push_str(&format!("{} {}\n", pname, v));
        }

        let mut regions: Vec<(&str, u64, u64)> = MEM_REGION_NAMES
            .iter()
            .map(|&(r, name)| (name, self.mem.current(r), self.mem.peak(r)))
            .collect();
        regions.sort_by_key(|&(name, _, _)| name);
        family(
            &mut out,
            "aarray_mem_current_bytes",
            "Currently accounted bytes per working-set region.",
            "gauge",
        );
        for &(name, cur, _) in &regions {
            out.push_str(&format!(
                "aarray_mem_current_bytes{{region=\"{}\"}} {}\n",
                escape_label_value(name),
                cur
            ));
        }
        family(
            &mut out,
            "aarray_mem_peak_bytes",
            "Peak accounted bytes per working-set region.",
            "gauge",
        );
        for &(name, _, peak) in &regions {
            out.push_str(&format!(
                "aarray_mem_peak_bytes{{region=\"{}\"}} {}\n",
                escape_label_value(name),
                peak
            ));
        }

        family(
            &mut out,
            "aarray_journal_recorded_total",
            "Flight-recorder events ever recorded (including overwritten ones).",
            "counter",
        );
        out.push_str(&format!(
            "aarray_journal_recorded_total {}\n",
            self.journal.recorded
        ));
        family(
            &mut out,
            "aarray_journal_dropped_total",
            "Flight-recorder events overwritten by ring wraparound.",
            "counter",
        );
        out.push_str(&format!(
            "aarray_journal_dropped_total {}\n",
            self.journal.dropped
        ));

        family(
            &mut out,
            "aarray_ops_recorded_total",
            "Operations ever completed into the per-operation ledger.",
            "counter",
        );
        out.push_str(&format!(
            "aarray_ops_recorded_total {}\n",
            self.ops.recorded
        ));
        family(
            &mut out,
            "aarray_ops_dropped_total",
            "Ledger records overwritten by ring wraparound.",
            "counter",
        );
        out.push_str(&format!("aarray_ops_dropped_total {}\n", self.ops.dropped));

        // Per-(kind, label) completion counts. Workload labels are
        // user-influenced strings and must be escaped per the
        // exposition format; kind names are static but go through the
        // same escaper so the invariant holds by construction.
        let mut cells: Vec<(&str, &str, u64)> = Vec::new();
        for (k, &(_, kname)) in OP_KIND_NAMES.iter().enumerate() {
            if let Some(row) = self.ops.label_counts.get(k) {
                for (l, &v) in row.iter().enumerate() {
                    if v == 0 {
                        continue;
                    }
                    cells.push((kname, self.ops.labels.get(l).map_or("", String::as_str), v));
                }
            }
        }
        cells.sort();
        family(
            &mut out,
            "aarray_ops_total",
            "Completed root operations, one series per (kind, workload label).",
            "counter",
        );
        for (kname, label, v) in cells {
            out.push_str(&format!(
                "aarray_ops_total{{kind=\"{}\",label=\"{}\"}} {}\n",
                escape_label_value(kname),
                escape_label_value(label),
                v
            ));
        }

        // Per-kind wall-time tails. Each kind gets its own metric name
        // (rather than a shared name with a `kind` label) because the
        // cumulative bucket series would restart at each kind boundary
        // under one name.
        let mut kinds: Vec<(&str, &HistogramSnapshot)> = OP_KIND_NAMES
            .iter()
            .zip(self.ops.tails.iter())
            .map(|(&(_, name), s)| (name, s))
            .collect();
        kinds.sort_by_key(|&(name, _)| name);
        for (name, s) in kinds {
            let pname = format!("aarray_ops_wall_ns_{}", prom_name(name));
            family(
                &mut out,
                &pname,
                &format!("Wall-clock ns distribution for `{}` operations.", name),
                "histogram",
            );
            let mut cumulative = 0u64;
            for (i, &c) in s.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cumulative += c;
                out.push_str(&format!(
                    "{}_bucket{{le=\"{}\"}} {}\n",
                    pname,
                    bucket_upper(i),
                    cumulative
                ));
            }
            out.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {}\n", pname, cumulative));
            out.push_str(&format!("{}_sum {}\n", pname, s.sum));
            out.push_str(&format!("{}_count {}\n", pname, cumulative));
        }

        let mut hists: Vec<(&str, &HistogramSnapshot)> = HIST_NAMES
            .iter()
            .zip(self.histograms.iter())
            .map(|(&(_, name), s)| (name, s))
            .collect();
        hists.sort_by_key(|&(name, _)| name);
        for (name, s) in hists {
            let pname = format!("aarray_{}", prom_name(name));
            family(
                &mut out,
                &pname,
                &format!("Log2-bucketed distribution `{}`.", name),
                "histogram",
            );
            let mut cumulative = 0u64;
            for (i, &c) in s.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cumulative += c;
                out.push_str(&format!(
                    "{}_bucket{{le=\"{}\"}} {}\n",
                    pname,
                    bucket_upper(i),
                    cumulative
                ));
            }
            out.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {}\n", pname, cumulative));
            out.push_str(&format!("{}_sum {}\n", pname, s.sum));
            out.push_str(&format!("{}_count {}\n", pname, cumulative));
        }
        out
    }
}

/// Escape a label *value* per the Prometheus text exposition format:
/// backslash, double-quote, and newline must be written as `\\`, `\"`,
/// and `\n`. Everything that lands between `label="…"` quotes —
/// user-influenced workload labels in particular — must pass through
/// here.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Announce one metric family: `# HELP` then `# TYPE`, in that order,
/// exactly once per family (callers emit each family in one place).
/// HELP text follows the exposition-format escaping rule for comments:
/// backslash and newline only.
fn family(out: &mut String, name: &str, help: &str, ty: &str) {
    let mut escaped = String::with_capacity(help.len());
    for c in help.chars() {
        match c {
            '\\' => escaped.push_str("\\\\"),
            '\n' => escaped.push_str("\\n"),
            _ => escaped.push(c),
        }
    }
    out.push_str(&format!("# HELP {} {}\n", name, escaped));
    out.push_str(&format!("# TYPE {} {}\n", name, ty));
}

/// `accumulator.occupancy` → `accumulator_occupancy`.
fn prom_name(label: &str) -> String {
    label
        .chars()
        .map(|c| if c == '.' || c == '-' { '_' } else { c })
        .collect()
}

fn histogram_json(s: &HistogramSnapshot) -> String {
    let count = s.count();
    let min = if count == 0 { 0 } else { s.min };
    let mut buckets = String::new();
    let mut first = true;
    for (i, &c) in s.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if !first {
            buckets.push_str(", ");
        }
        first = false;
        buckets.push_str(&format!("[{}, {}]", bucket_upper(i), c));
    }
    format!(
        "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p99\": {}, \"buckets\": [{}]}}",
        count,
        s.sum,
        min,
        s.max,
        s.median(),
        s.quantile(0.99),
        buckets
    )
}

fn append_sorted_u64<'a>(out: &mut String, entries: impl Iterator<Item = (&'a str, u64)>) {
    let mut v: Vec<(&str, u64)> = entries.collect();
    v.sort_by_key(|&(name, _)| name);
    for (i, (name, val)) in v.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\": {}", name, val));
    }
    out.push('\n');
    out.push_str("  ");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    fn sample_report() -> ObsReport {
        let h = Histogram::new();
        h.record(0);
        h.record(5);
        h.record(900);
        let mut r = ObsReport::capture();
        // Pin one known histogram so format assertions are stable.
        r.histograms[0] = h.snapshot();
        r
    }

    #[test]
    fn json_is_sorted_and_parsable_shape() {
        let j = sample_report().to_json();
        assert!(j.contains("\"schema_version\": 4"));
        // The ops section precedes the journal section and carries a
        // percentile entry per op kind.
        let ops = j.find("\"ops\"").unwrap();
        let journal = j.find("\"journal\"").unwrap();
        assert!(ops < journal, "ops section must precede journal");
        assert!(j.contains("\"plan-execute\": {\"count\": "));
        assert!(j.contains("\"p95_ns\": "));
        // Sorted counters: dispatch.parallel before dispatch.serial,
        // both before fused.*.
        let dp = j.find("\"dispatch.parallel\"").unwrap();
        let ds = j.find("\"dispatch.serial\"").unwrap();
        let ft = j.find("\"fused.traversals\"").unwrap();
        assert!(dp < ds && ds < ft, "counters must be name-sorted");
        // Braces balance (cheap well-formedness check; full parsing is
        // exercised by the harness crate's JSON round-trip test).
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced braces:\n{}",
            j
        );
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains("\"mem\""));
        assert!(j.contains("\"peak\""));
    }

    #[test]
    fn json_histogram_section_elides_empty_buckets() {
        let j = sample_report().to_json();
        // The pinned histogram: 0 → bucket 0 (upper 0), 5 → [4,7]
        // (upper 7), 900 → [512,1023] (upper 1023).
        assert!(
            j.contains("\"buckets\": [[0, 1], [7, 1], [1023, 1]]"),
            "{}",
            j
        );
        assert!(j.contains("\"count\": 3"));
        assert!(j.contains("\"sum\": 905"));
    }

    #[test]
    fn prometheus_format_invariants() {
        let p = sample_report().to_prometheus();
        let mut last_cumulative: Option<u64> = None;
        let mut in_hist = false;
        let mut pending_help: Option<String> = None;
        for line in p.lines() {
            assert!(!line.is_empty());
            if line.starts_with('#') {
                if let Some(rest) = line.strip_prefix("# HELP ") {
                    // HELP opens a family; the matching TYPE must come
                    // next, before any sample.
                    assert!(pending_help.is_none(), "HELP without TYPE before {}", line);
                    let name = rest.split(' ').next().unwrap().to_string();
                    pending_help = Some(name);
                } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                    let name = rest.split(' ').next().unwrap();
                    assert_eq!(
                        pending_help.take().as_deref(),
                        Some(name),
                        "TYPE not preceded by its HELP: {}",
                        line
                    );
                    in_hist = line.ends_with(" histogram");
                    last_cumulative = None;
                } else {
                    panic!("bad comment: {}", line);
                }
                continue;
            }
            assert!(pending_help.is_none(), "sample between HELP and TYPE");
            // Every sample line is `name{labels} value` or `name value`.
            let (metric, value) = line.rsplit_once(' ').expect(line);
            assert!(
                value.parse::<u64>().is_ok(),
                "non-numeric value in {}",
                line
            );
            assert!(metric.starts_with("aarray_"), "unprefixed metric: {}", line);
            if in_hist && metric.contains("_bucket{") {
                let v: u64 = value.parse().unwrap();
                if let Some(prev) = last_cumulative {
                    assert!(v >= prev, "bucket series must be cumulative: {}", line);
                }
                last_cumulative = Some(v);
            }
        }
        // The +Inf bucket and _count agree for the pinned histogram.
        let hist_name = format!("aarray_{}", prom_name(HIST_NAMES[0].1));
        let inf = p
            .lines()
            .find(|l| l.starts_with(&format!("{}_bucket{{le=\"+Inf\"}}", hist_name)))
            .expect("+Inf bucket present");
        let count = p
            .lines()
            .find(|l| l.starts_with(&format!("{}_count", hist_name)))
            .expect("_count present");
        assert_eq!(
            inf.rsplit_once(' ').unwrap().1,
            count.rsplit_once(' ').unwrap().1
        );
    }

    #[test]
    fn prometheus_every_family_has_help_and_type_exactly_once() {
        // Round trip over a full v4 report: collect the declared
        // families, then check every sample line resolves to exactly
        // one declared family with the right type class.
        let p = sample_report().to_prometheus();
        let mut help_counts: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        let mut types: std::collections::HashMap<String, &str> = std::collections::HashMap::new();
        let mut type_counts: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        for line in p.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap().to_string();
                *help_counts.entry(name).or_insert(0) += 1;
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split(' ');
                let name = it.next().unwrap().to_string();
                let ty = it.next().expect("TYPE line has a type");
                assert!(
                    matches!(ty, "counter" | "gauge" | "histogram"),
                    "unknown type: {}",
                    line
                );
                *type_counts.entry(name.clone()).or_insert(0) += 1;
                types.insert(
                    name,
                    match ty {
                        "counter" => "counter",
                        "gauge" => "gauge",
                        _ => "histogram",
                    },
                );
            }
        }
        for (name, n) in &help_counts {
            assert_eq!(*n, 1, "family {} declared HELP {} times", name, n);
        }
        for (name, n) in &type_counts {
            assert_eq!(*n, 1, "family {} declared TYPE {} times", name, n);
            assert!(
                help_counts.contains_key(name),
                "{} has TYPE but no HELP",
                name
            );
        }
        assert_eq!(help_counts.len(), types.len(), "HELP/TYPE sets differ");
        // Counters are monotone `_total` families; gauges never are.
        for (name, ty) in &types {
            match *ty {
                "counter" => assert!(
                    name.ends_with("_total"),
                    "counter family {} must end in _total",
                    name
                ),
                "gauge" => assert!(
                    !name.ends_with("_total"),
                    "gauge family {} must not end in _total",
                    name
                ),
                _ => {}
            }
        }
        // Every sample belongs to a declared family: either its bare
        // name, or — for histogram series — the name minus the
        // `_bucket`/`_sum`/`_count` suffix.
        for line in p.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (metric, _) = line.rsplit_once(' ').unwrap();
            let name = metric.split('{').next().unwrap();
            let fam = if types.contains_key(name) {
                name.to_string()
            } else {
                let base = name
                    .strip_suffix("_bucket")
                    .or_else(|| name.strip_suffix("_sum"))
                    .or_else(|| name.strip_suffix("_count"))
                    .unwrap_or(name);
                assert!(
                    types.contains_key(base),
                    "sample {} has no declared family",
                    line
                );
                assert_eq!(
                    types[base], "histogram",
                    "suffixed sample {} under non-histogram family",
                    line
                );
                base.to_string()
            };
            let _ = fam;
        }
    }

    #[test]
    fn prometheus_escapes_user_influenced_labels_round_trip() {
        // A workload label exercising every escapable character the
        // exposition format defines (no spaces, so the line-shape
        // invariant test stays valid even though this label lands in
        // the process-global table).
        let nasty = "evil\"label\\with\nnewline";
        assert_eq!(escape_label_value(nasty), "evil\\\"label\\\\with\\nnewline");
        // Round trip through an exposition-format unescape.
        fn unescape(v: &str) -> String {
            let mut out = String::new();
            let mut it = v.chars();
            while let Some(c) = it.next() {
                if c != '\\' {
                    out.push(c);
                    continue;
                }
                match it.next() {
                    Some('\\') => out.push('\\'),
                    Some('"') => out.push('"'),
                    Some('n') => out.push('\n'),
                    other => panic!("invalid escape \\{:?}", other),
                }
            }
            out
        }
        assert_eq!(unescape(&escape_label_value(nasty)), nasty);

        // End to end: a ledger record under that label renders as one
        // well-formed, parseable sample line.
        let id = crate::oplog::intern_label(nasty);
        let mut d = crate::oplog::OpDraft::new(crate::oplog::OpKind::Matmul);
        d.label = id;
        d.wall_ns = 10;
        crate::oplog::oplog().record(&d);
        let p = ObsReport::capture().to_prometheus();
        let line = p
            .lines()
            .find(|l| l.starts_with("aarray_ops_total{kind=\"matmul\"") && l.contains("evil"))
            .expect("escaped ops sample present");
        let (metric, value) = line.rsplit_once(' ').unwrap();
        assert!(value.parse::<u64>().is_ok());
        assert!(metric.contains("label=\"evil\\\"label\\\\with\\nnewline\""));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn since_diffs_counters_and_buckets() {
        let before = ObsReport::capture();
        crate::counters().incr(crate::Counter::IntersectMerge);
        histograms().get(crate::Hist::RowNnz).record(3);
        let delta = ObsReport::capture().since(&before);
        assert!(delta.counters.get(crate::Counter::IntersectMerge) >= 1);
        let idx = crate::Hist::RowNnz as usize;
        assert!(delta.histograms[idx].count() >= 1);
    }
}
