//! Chrome-trace validation and flight-recorder summaries.
//!
//! `obsctl trace` exports the journal as Chrome Trace Event Format
//! JSON ([`aarray_obs::JournalSnapshot::to_chrome_trace`]). Before
//! writing the file — and again in the tests against the written
//! artifact — the document is validated here with the hand-rolled
//! [`crate::json`] parser: the shape Perfetto and `chrome://tracing`
//! require (`name`/`ph`/`ts`/`pid`/`tid` fields, known phase letters,
//! per-thread balanced `B`/`E` nesting) is checked structurally, not by
//! eyeballing a viewer.
//!
//! The module also renders the human summaries `obsctl trace` prints:
//! the per-stage timeline rollup and the decision audit table, whose
//! tallies are, by construction, the same figures the counter registry
//! accumulates ([`DecisionTallies::audit`] pairs them up; the
//! `journal_audit` test in `aarray-core` asserts the parity).

use crate::json::Value;
use aarray_obs::counters::COUNTER_NAMES;
use aarray_obs::journal::{fallback_reason, STAGE_NAMES};
use aarray_obs::{Counter, Event, EventKind, JournalSnapshot, Snapshot, Stage};
use std::collections::BTreeMap;

/// Figures extracted while validating a chrome-trace document.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total entries in `traceEvents`.
    pub events: usize,
    /// `ph: "B"` span-begin records.
    pub begins: usize,
    /// `ph: "E"` span-end records.
    pub ends: usize,
    /// `ph: "i"` instant (explain) records.
    pub instants: usize,
    /// `ph: "M"` metadata records (thread names).
    pub meta: usize,
    /// Distinct `tid` tracks carrying events.
    pub threads: usize,
}

/// Validate one parsed chrome-trace document.
///
/// Requirements, per the Trace Event Format every Chrome-trace
/// consumer expects:
///
/// * top level is an object with a `traceEvents` array;
/// * every event is an object with a string `name`, a string `ph`
///   drawn from `B`/`E`/`X`/`i`/`M`, and integer `pid`/`tid`;
/// * every non-metadata event carries a numeric `ts`;
/// * within each `(pid, tid)` track, `B`/`E` records nest: every `E`
///   closes the most recent open `B` with the same name, and nothing
///   stays open. Tracks are keyed by the pid/tid *pair* because the
///   op-grouped export reuses tids across per-op pids — one OS thread
///   interleaving two ops is balanced per op-track, not per thread.
pub fn validate(doc: &Value) -> Result<TraceStats, String> {
    let events = doc
        .get("traceEvents")
        .ok_or("chrome trace: missing \"traceEvents\"")?
        .as_arr()
        .ok_or("chrome trace: \"traceEvents\" must be an array")?;

    let mut stats = TraceStats {
        events: events.len(),
        ..TraceStats::default()
    };
    let mut stacks: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    let mut threads: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();

    for (i, e) in events.iter().enumerate() {
        let what = format!("traceEvents[{}]", i);
        if e.as_obj().is_none() {
            return Err(format!("{}: must be an object", what));
        }
        let name = e
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}: missing string \"name\"", what))?;
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}: missing string \"ph\"", what))?;
        let tid = e
            .get("tid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{}: missing integer \"tid\"", what))?;
        let pid = e
            .get("pid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{}: missing integer \"pid\"", what))?;
        if ph != "M" {
            e.get("ts")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{}: missing numeric \"ts\"", what))?;
            threads.insert(tid);
        }
        match ph {
            "B" => {
                stats.begins += 1;
                stacks.entry((pid, tid)).or_default().push(name.to_string());
            }
            "E" => {
                stats.ends += 1;
                match stacks.entry((pid, tid)).or_default().pop() {
                    Some(open) if open == name => {}
                    Some(open) => {
                        return Err(format!(
                            "{}: \"E\" for {:?} closes open span {:?} on pid {} tid {}",
                            what, name, open, pid, tid
                        ));
                    }
                    None => {
                        return Err(format!(
                            "{}: \"E\" for {:?} with no open span on pid {} tid {}",
                            what, name, pid, tid
                        ));
                    }
                }
            }
            "X" => {}
            "i" => stats.instants += 1,
            "M" => stats.meta += 1,
            other => {
                return Err(format!("{}: unknown phase {:?}", what, other));
            }
        }
    }
    for ((pid, tid), stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!(
                "chrome trace: span {:?} on pid {} tid {} is never closed",
                open, pid, tid
            ));
        }
    }
    stats.threads = threads.len();
    Ok(stats)
}

/// Per-stage rollup of matched begin/end pairs in one journal slice:
/// how many spans each stage contributed and their summed duration.
#[derive(Clone, Debug, Default)]
pub struct TimelineSummary {
    /// `(stage label, span count, total nanoseconds)` in stage order,
    /// stages with no spans omitted.
    pub stages: Vec<(&'static str, u64, u64)>,
    /// Begin/end records that could not be paired (wraparound losses).
    pub unpaired: u64,
}

/// Pair up `StageBegin`/`StageEnd` records per thread (same LIFO
/// discipline as the chrome-trace exporter) and roll the matched spans
/// up per stage.
pub fn timeline_summary(events: &[Event]) -> TimelineSummary {
    let mut stacks: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    let mut count = [0u64; STAGE_NAMES.len()];
    let mut total_ns = [0u64; STAGE_NAMES.len()];
    let mut unpaired = 0u64;
    for e in events {
        match e.kind {
            EventKind::StageBegin => stacks.entry(e.tid).or_default().push(e),
            EventKind::StageEnd => match stacks.entry(e.tid).or_default().pop() {
                Some(b) if b.a == e.a => {
                    if let Some(stage) = Stage::from_u64(e.a) {
                        count[stage as usize] += 1;
                        total_ns[stage as usize] += e.ts_ns.saturating_sub(b.ts_ns);
                    }
                }
                Some(_) => unpaired += 2,
                None => unpaired += 1,
            },
            _ => {}
        }
    }
    unpaired += stacks.values().map(|s| s.len() as u64).sum::<u64>();
    let stages = STAGE_NAMES
        .iter()
        .enumerate()
        .filter(|&(i, _)| count[i] > 0)
        .map(|(i, &(_, label))| (label, count[i], total_ns[i]))
        .collect();
    TimelineSummary { stages, unpaired }
}

impl TimelineSummary {
    /// Render the rollup as the table `obsctl trace` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("stage timeline (matched spans):\n");
        if self.stages.is_empty() {
            out.push_str("  (no stage spans recorded)\n");
        }
        for &(label, count, ns) in &self.stages {
            out.push_str(&format!(
                "  {:<12} {:>6} span(s)  {:>12.3} ms total\n",
                label,
                count,
                ns as f64 / 1e6
            ));
        }
        if self.unpaired > 0 {
            out.push_str(&format!(
                "  ({} unpaired begin/end record(s) lost to wraparound)\n",
                self.unpaired
            ));
        }
        out
    }
}

/// Decision tallies extracted from one journal slice. Each field
/// corresponds one-to-one to a counter in the registry, so a capture
/// that covers the same window must agree exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecisionTallies {
    /// One-pair kernel runs.
    pub kernel: u64,
    /// Fused traversals.
    pub fused: u64,
    /// Serial dispatch verdicts.
    pub dispatch_serial: u64,
    /// Parallel dispatch verdicts.
    pub dispatch_parallel: u64,
    /// Plan symbolic-cache hits.
    pub plan_hits: u64,
    /// Plan symbolic-cache misses.
    pub plan_misses: u64,
    /// Lanes brought current via delta apply (sum of `a` payloads).
    pub delta_lanes: u64,
    /// Batches folded by delta applies (sum of `b` payloads).
    pub delta_batches: u64,
    /// Lanes rebuilt by fallback, per reason: `[non-associative, barrier]`.
    pub fallback_lanes: [u64; 2],
}

/// Tally every explain event in one journal slice.
pub fn decision_tallies(events: &[Event]) -> DecisionTallies {
    let mut t = DecisionTallies::default();
    for e in events {
        match e.kind {
            EventKind::KernelChoice => t.kernel += 1,
            EventKind::FusedChoice => t.fused += 1,
            EventKind::DispatchSerial => t.dispatch_serial += 1,
            EventKind::DispatchParallel => t.dispatch_parallel += 1,
            EventKind::PlanCacheHit => t.plan_hits += 1,
            EventKind::PlanCacheMiss => t.plan_misses += 1,
            EventKind::DeltaApply => {
                t.delta_lanes += e.a;
                t.delta_batches += e.b;
            }
            EventKind::IncrementalFallback => {
                if let Some(f) = t.fallback_lanes.get_mut(e.b as usize) {
                    *f += e.a;
                }
            }
            EventKind::StageBegin | EventKind::StageEnd => {}
        }
    }
    t
}

impl DecisionTallies {
    /// Render the decision audit table `obsctl trace` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("decision audit (explain events):\n");
        for (label, n) in [
            ("one-pair kernel runs", self.kernel),
            ("fused traversals", self.fused),
        ] {
            if n > 0 {
                out.push_str(&format!("  {:<36}{:>8}\n", label, n));
            }
        }
        out.push_str(&format!(
            "  dispatch serial / parallel          {:>8} / {}\n",
            self.dispatch_serial, self.dispatch_parallel
        ));
        out.push_str(&format!(
            "  plan cache hit / miss               {:>8} / {}\n",
            self.plan_hits, self.plan_misses
        ));
        if self.delta_lanes > 0 {
            out.push_str(&format!(
                "  delta-applied lanes ({} batch(es))   {:>8}\n",
                self.delta_batches, self.delta_lanes
            ));
        }
        for (code, &n) in self.fallback_lanes.iter().enumerate() {
            if n > 0 {
                out.push_str(&format!(
                    "  rebuilt lanes ({:<22}) {:>8}\n",
                    fallback_reason(code as u64),
                    n
                ));
            }
        }
        out
    }

    /// Pair every audited decision's journal tally with the counter that
    /// records the same decision, as `(counter name, journal, counter)`.
    /// Over a window that dropped no journal events the two must agree.
    pub fn audit(&self, counters: &Snapshot) -> [(&'static str, u64, u64); 8] {
        [
            (Counter::KernelSpa, self.kernel),
            (Counter::FusedTraversals, self.fused),
            (Counter::DispatchSerial, self.dispatch_serial),
            (Counter::DispatchParallel, self.dispatch_parallel),
            (Counter::PlanSymbolicHit, self.plan_hits),
            (Counter::PlanSymbolicMiss, self.plan_misses),
            (Counter::IncrementalApply, self.delta_lanes),
            (
                Counter::IncrementalFallback,
                self.fallback_lanes.iter().sum(),
            ),
        ]
        .map(|(c, n)| (COUNTER_NAMES[c as usize].1, n, counters.get(c)))
    }
}

/// Concurrency evidence extracted from the numeric spans of one
/// journal slice.
///
/// With a real worker pool behind the rayon stub, a parallel numeric
/// pass splits into per-chunk spans recorded from whichever thread ran
/// each chunk. Genuine multi-core execution therefore shows up as
/// **leaf** numeric spans (spans with no nested numeric span inside
/// them on the same thread — chunk work, not the enclosing plan-level
/// pass) on two or more threads whose `[start, end)` windows overlap
/// in time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NumericOverlap {
    /// Distinct threads carrying at least one leaf numeric span.
    pub tracks: usize,
    /// Leaf numeric spans found.
    pub leaf_spans: usize,
    /// Whether some pair of leaf spans on different threads overlapped
    /// in time (strict: shared endpoints do not count).
    pub overlap: bool,
}

/// Scan one journal slice for temporally overlapping leaf numeric
/// spans on distinct threads (same per-thread LIFO pairing as the
/// exporter).
pub fn numeric_overlap(events: &[Event]) -> NumericOverlap {
    struct Open {
        start: u64,
        has_child: bool,
    }
    let mut stacks: BTreeMap<u64, Vec<Open>> = BTreeMap::new();
    let mut leaves: Vec<(u64, u64, u64)> = Vec::new(); // (tid, start, end)
    for e in events {
        match e.kind {
            EventKind::StageBegin if e.a == Stage::Numeric as u64 => {
                let stack = stacks.entry(e.tid).or_default();
                if let Some(top) = stack.last_mut() {
                    top.has_child = true;
                }
                stack.push(Open {
                    start: e.ts_ns,
                    has_child: false,
                });
            }
            EventKind::StageEnd if e.a == Stage::Numeric as u64 => {
                if let Some(open) = stacks.entry(e.tid).or_default().pop() {
                    if !open.has_child {
                        leaves.push((e.tid, open.start, e.ts_ns));
                    }
                }
            }
            _ => {}
        }
    }
    let mut tracks: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for &(tid, _, _) in &leaves {
        tracks.insert(tid);
    }
    let overlap = leaves.iter().enumerate().any(|(i, &(ta, sa, ea))| {
        leaves[i + 1..]
            .iter()
            .any(|&(tb, sb, eb)| ta != tb && sa < eb && sb < ea)
    });
    NumericOverlap {
        tracks: tracks.len(),
        leaf_spans: leaves.len(),
        overlap,
    }
}

/// Validate the chrome-trace export of a snapshot end to end: render,
/// reparse with [`crate::json::parse`], and structurally [`validate`].
pub fn self_check(snapshot: &JournalSnapshot) -> Result<TraceStats, String> {
    let text = snapshot.to_chrome_trace();
    let doc = crate::json::parse(&text).map_err(|e| format!("export is not valid JSON: {}", e))?;
    validate(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use aarray_obs::Journal;

    fn sample_journal() -> Journal {
        let j = Journal::with_capacity(256);
        j.begin(Stage::Align, 10);
        j.end(Stage::Align, 10);
        j.begin(Stage::Numeric, 99);
        j.record(EventKind::KernelChoice, 0, 0);
        j.record(EventKind::FusedChoice, 0, (6 << 1) | 1);
        j.record(EventKind::DispatchParallel, 200_000, 131_072);
        j.record(EventKind::DispatchSerial, 0, 131_072);
        j.record(EventKind::PlanCacheMiss, 42, 7);
        j.record(EventKind::PlanCacheHit, 42, 7);
        j.record(EventKind::DeltaApply, 5, 2);
        j.record(EventKind::IncrementalFallback, 1, 0);
        j.record(EventKind::IncrementalFallback, 2, 1);
        j.end(Stage::Numeric, 99);
        j
    }

    #[test]
    fn exported_trace_validates() {
        let j = sample_journal();
        let snap = j.snapshot();
        let stats = self_check(&snap).expect("export must validate");
        assert_eq!(stats.begins, 2);
        assert_eq!(stats.ends, 2);
        assert_eq!(stats.instants, 9);
        assert!(stats.meta >= 1);
        assert_eq!(stats.threads, 1);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for (doc, needle) in [
            (r#"{"foo": 1}"#, "missing \"traceEvents\""),
            (r#"{"traceEvents": 3}"#, "must be an array"),
            (
                r#"{"traceEvents": [{"ph": "B"}]}"#,
                "missing string \"name\"",
            ),
            (
                r#"{"traceEvents": [{"name":"x","ph":"Q","ts":1,"pid":1,"tid":1}]}"#,
                "unknown phase",
            ),
            (
                r#"{"traceEvents": [{"name":"x","ph":"B","pid":1,"tid":1}]}"#,
                "missing numeric \"ts\"",
            ),
            (
                r#"{"traceEvents": [{"name":"x","ph":"B","ts":1,"pid":1,"tid":1}]}"#,
                "never closed",
            ),
            (
                r#"{"traceEvents": [{"name":"x","ph":"E","ts":1,"pid":1,"tid":1}]}"#,
                "no open span",
            ),
            (
                r#"{"traceEvents": [
                    {"name":"a","ph":"B","ts":1,"pid":1,"tid":1},
                    {"name":"b","ph":"E","ts":2,"pid":1,"tid":1}]}"#,
                "closes open span",
            ),
        ] {
            let err = validate(&parse(doc).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{:?} → {:?}", doc, err);
        }
    }

    #[test]
    fn validator_accepts_interleaved_threads() {
        // Spans that would be unbalanced on one track are fine on two.
        let doc = parse(
            r#"{"traceEvents": [
                {"name":"numeric","ph":"B","ts":1,"pid":1,"tid":1},
                {"name":"numeric","ph":"B","ts":2,"pid":1,"tid":2},
                {"name":"numeric","ph":"E","ts":3,"pid":1,"tid":1},
                {"name":"numeric","ph":"E","ts":4,"pid":1,"tid":2},
                {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"t1"}}]}"#,
        )
        .unwrap();
        let stats = validate(&doc).unwrap();
        assert_eq!(stats.threads, 2);
        assert_eq!(stats.meta, 1);
    }

    #[test]
    fn timeline_pairs_spans_per_stage() {
        let j = sample_journal();
        let snap = j.snapshot();
        let tl = timeline_summary(&snap.events);
        assert_eq!(tl.unpaired, 0);
        let labels: Vec<&str> = tl.stages.iter().map(|&(l, _, _)| l).collect();
        assert_eq!(labels, ["align", "numeric"]);
        assert!(tl.render().contains("align"));
    }

    fn ev(seq: u64, ts_ns: u64, tid: u64, kind: EventKind, a: u64) -> Event {
        Event {
            seq,
            ts_ns,
            tid,
            kind,
            a,
            b: 0,
            op: 0,
        }
    }

    #[test]
    fn numeric_overlap_requires_distinct_threads_in_time() {
        use EventKind::{StageBegin, StageEnd};
        let num = Stage::Numeric as u64;

        // One thread, nested plan-level + chunk span: the chunk is the
        // only leaf, and a single track can never overlap.
        let nested = [
            ev(0, 10, 1, StageBegin, num),
            ev(1, 20, 1, StageBegin, num),
            ev(2, 30, 1, StageEnd, num),
            ev(3, 40, 1, StageEnd, num),
        ];
        let ov = numeric_overlap(&nested);
        assert_eq!((ov.tracks, ov.leaf_spans, ov.overlap), (1, 1, false));

        // Two threads, interleaved in time: [10,30) on tid 1 overlaps
        // [20,40) on tid 2.
        let overlapping = [
            ev(0, 10, 1, StageBegin, num),
            ev(1, 20, 2, StageBegin, num),
            ev(2, 30, 1, StageEnd, num),
            ev(3, 40, 2, StageEnd, num),
        ];
        let ov = numeric_overlap(&overlapping);
        assert_eq!((ov.tracks, ov.leaf_spans, ov.overlap), (2, 2, true));

        // Two threads but strictly sequential (shared endpoint): no
        // temporal overlap.
        let sequential = [
            ev(0, 10, 1, StageBegin, num),
            ev(1, 20, 1, StageEnd, num),
            ev(2, 20, 2, StageBegin, num),
            ev(3, 30, 2, StageEnd, num),
        ];
        let ov = numeric_overlap(&sequential);
        assert_eq!((ov.tracks, ov.leaf_spans, ov.overlap), (2, 2, false));

        // Non-numeric stages never count.
        let align = [
            ev(0, 10, 1, StageBegin, Stage::Align as u64),
            ev(1, 20, 1, StageEnd, Stage::Align as u64),
        ];
        assert_eq!(numeric_overlap(&align), NumericOverlap::default());
    }

    fn evo(seq: u64, ts_ns: u64, tid: u64, kind: EventKind, a: u64, op: u64) -> Event {
        Event {
            seq,
            ts_ns,
            tid,
            kind,
            a,
            b: 0,
            op,
        }
    }

    fn snap_of(events: Vec<Event>) -> JournalSnapshot {
        JournalSnapshot {
            recorded: events.len() as u64,
            dropped: 0,
            capacity: 256,
            torn: 0,
            events,
        }
    }

    #[test]
    fn ring_wrap_truncated_span_still_exports_balanced_trace() {
        // A begin recorded long ago is overwritten by ring wraparound;
        // its end survives. The exporter must drop the orphan half
        // (counted in otherData) and still emit a validating document.
        let j = Journal::with_capacity(8);
        j.begin(Stage::Numeric, 7);
        for i in 0..9 {
            j.record(EventKind::DispatchSerial, i, 1);
        }
        j.end(Stage::Numeric, 7);
        let snap = j.snapshot();
        assert!(snap.dropped > 0, "wraparound must have dropped events");
        let stats = self_check(&snap).expect("truncated export must validate");
        assert_eq!((stats.begins, stats.ends), (0, 0), "orphan E dropped");
        assert!(j
            .snapshot()
            .to_chrome_trace()
            .contains("\"truncated_spans\": 1"));
    }

    #[test]
    fn op_grouped_export_untangles_interleaved_ops_on_one_tid() {
        use EventKind::{StageBegin, StageEnd};
        let sym = Stage::Symbolic as u64;
        let num = Stage::Numeric as u64;
        // One OS thread interleaves two ops non-LIFO: op 1's symbolic
        // span closes while op 2's numeric span is still open.
        let snap = snap_of(vec![
            evo(0, 10, 5, StageBegin, sym, 1),
            evo(1, 20, 5, StageBegin, num, 2),
            evo(2, 30, 5, StageEnd, sym, 1),
            evo(3, 40, 5, StageEnd, num, 2),
        ]);

        // The flat export cannot pair across the interleave: all four
        // halves are truncated, but the document still validates.
        let flat = snap.to_chrome_trace();
        assert!(flat.contains("\"truncated_spans\": 4"), "{}", flat);
        let stats = validate(&parse(&flat).unwrap()).unwrap();
        assert_eq!((stats.begins, stats.ends), (0, 0));

        // The op-grouped export separates the ops onto pid 1 and pid 2
        // tracks where both spans pair cleanly.
        let by_op = snap.to_chrome_trace_by_op();
        assert!(by_op.contains("\"truncated_spans\": 0"), "{}", by_op);
        let stats = validate(&parse(&by_op).unwrap()).unwrap();
        assert_eq!((stats.begins, stats.ends), (2, 2));
        assert!(by_op.contains("\"name\": \"op-1\""));
        assert!(by_op.contains("\"name\": \"op-2\""));
    }

    #[test]
    fn empty_journal_exports_validate() {
        let snap = Journal::with_capacity(8).snapshot();
        assert!(snap.events.is_empty());
        for text in [snap.to_chrome_trace(), snap.to_chrome_trace_by_op()] {
            let stats = validate(&parse(&text).expect("empty export parses")).unwrap();
            assert_eq!(stats.events, 0);
            assert!(text.contains("\"truncated_spans\": 0"));
        }
    }

    #[test]
    fn tallies_fold_every_explain_kind() {
        let j = sample_journal();
        let snap = j.snapshot();
        let t = decision_tallies(&snap.events);
        assert_eq!((t.kernel, t.fused), (1, 1));
        assert_eq!((t.dispatch_serial, t.dispatch_parallel), (1, 1));
        assert_eq!((t.plan_hits, t.plan_misses), (1, 1));
        assert_eq!((t.delta_lanes, t.delta_batches), (5, 2));
        assert_eq!(t.fallback_lanes, [1, 2]);
        let table = t.render();
        assert!(table.contains("one-pair kernel runs"));
        assert!(table.contains("fused traversals"));
        assert!(table.contains("non-associative"));
        assert!(table.contains("barrier"));
    }

    #[test]
    fn audit_pairs_each_tally_with_its_counter() {
        let t = decision_tallies(&sample_journal().snapshot().events);
        let zero = aarray_obs::Snapshot::default();
        let rows = t.audit(&zero);
        let row = |name: &str| *rows.iter().find(|r| r.0 == name).unwrap();
        assert_eq!(row("kernel.spa"), ("kernel.spa", 1, 0));
        assert_eq!(row("fused.traversals"), ("fused.traversals", 1, 0));
        assert_eq!(row("dispatch.parallel"), ("dispatch.parallel", 1, 0));
        assert_eq!(row("plan.symbolic-hit"), ("plan.symbolic-hit", 1, 0));
        assert_eq!(row("incremental.apply"), ("incremental.apply", 5, 0));
        // Rebuilt lanes sum over every fallback reason.
        assert_eq!(row("incremental.fallback"), ("incremental.fallback", 3, 0));
        // An empty journal agrees with an empty registry on every row.
        let empty = DecisionTallies::default().audit(&zero);
        assert!(empty.iter().all(|&(_, j, c)| j == 0 && c == 0));
    }
}
