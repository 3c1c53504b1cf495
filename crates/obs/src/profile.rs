//! Per-stage timing of a thread's operations, read from the op ledger.
//!
//! The journal's stage begin/end pairs are the only recording of stage
//! time. When an operation completes, its ledger record carries the
//! align / transpose / symbolic / numeric breakdown derived from its
//! own spans ([`OpRecord`]). A [`StageReport`] is a view over the records
//! a thread opened under its workload label within a ledger window:
//! `Display` renders the per-stage table
//! `repro --profile` prints, and [`StageReport::to_json`] the object
//! `repro --profile-json` writes.
//!
//! ```
//! use aarray_obs::{oplog, workload_label, OpKind, OpToken, StageReport};
//!
//! let _label = workload_label("doc-example");
//! let start = oplog().cursor();
//! OpToken::begin(OpKind::PlanBuild).finish();
//! let report = StageReport::from_window(oplog(), start, oplog().cursor()).unwrap();
//! assert!(report.numeric.is_empty(), "no numeric span ran");
//! ```

use crate::oplog::{OpLog, OpRecord, RecordsLost};
use std::fmt;

/// Per-stage timing summed over a window of ledger records. See the
/// [module docs](self).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageReport {
    /// Records that spent time aligning keys.
    pub align_calls: u64,
    /// Total alignment nanoseconds.
    pub align_ns: u64,
    /// Records that laid out a plan's gather (the `transpose` stage).
    pub transpose_calls: u64,
    /// Total `transpose`-stage nanoseconds.
    pub transpose_ns: u64,
    /// Records that ran a symbolic pass.
    pub symbolic_calls: u64,
    /// Total symbolic nanoseconds.
    pub symbolic_ns: u64,
    /// Records that ran a numeric pass, in completion order; each
    /// carries its lanes, dispatch verdict, flops, and `numeric_ns`.
    pub numeric: Vec<OpRecord>,
}

impl StageReport {
    /// Sum `records` stage by stage. A record counts as one call of
    /// each stage it spent time in.
    pub fn from_records<'a>(records: impl IntoIterator<Item = &'a OpRecord>) -> StageReport {
        let mut report = StageReport::default();
        for r in records {
            for (calls, ns, v) in [
                (&mut report.align_calls, &mut report.align_ns, r.align_ns),
                (
                    &mut report.transpose_calls,
                    &mut report.transpose_ns,
                    r.transpose_ns,
                ),
                (
                    &mut report.symbolic_calls,
                    &mut report.symbolic_ns,
                    r.symbolic_ns,
                ),
            ] {
                *calls += u64::from(v > 0);
                *ns += v;
            }
            if r.numeric_ns > 0 {
                report.numeric.push(*r);
            }
        }
        report
    }

    /// The operations the calling thread opened under its workload label
    /// and completed in the ledger window `[start, end)` (two [`OpLog::cursor`]
    /// reads), summed. Fails rather than under-count when wraparound
    /// overwrote part of the window (see [`OpLog::labeled_window`]).
    pub fn from_window(log: &OpLog, start: u64, end: u64) -> Result<StageReport, RecordsLost> {
        Ok(StageReport::from_records(&log.labeled_window(start, end)?))
    }

    /// Total recorded nanoseconds across all stages.
    pub fn total_ns(&self) -> u64 {
        self.align_ns
            + self.transpose_ns
            + self.symbolic_ns
            + self.numeric.iter().map(|r| r.numeric_ns).sum::<u64>()
    }

    /// `(name, calls, ns)` of the three single-cell stages.
    fn cells(&self) -> [(&'static str, u64, u64); 3] {
        [
            ("align", self.align_calls, self.align_ns),
            ("transpose", self.transpose_calls, self.transpose_ns),
            ("symbolic", self.symbolic_calls, self.symbolic_ns),
        ]
    }

    /// The report as a stable JSON object (hand-emitted: the workspace
    /// builds against an empty `serde_json` stub). Consumed by
    /// `repro --profile-json`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + 80 * self.numeric.len());
        s.push('{');
        for (name, calls, ns) in self.cells() {
            s.push_str(&format!(
                "\"{}\":{{\"calls\":{},\"ns\":{}}},",
                name, calls, ns
            ));
        }
        s.push_str("\"numeric\":[");
        for (i, r) in self.numeric.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"lanes\":{},\"parallel\":{},\"flops\":{},\"ns\":{}}}",
                r.lanes, r.parallel, r.flops, r.numeric_ns
            ));
        }
        s.push_str(&format!("],\"total_ns\":{}}}", self.total_ns()));
        s
    }
}

/// `12.3 µs`-style human duration.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{} ns", ns)
    }
}

impl fmt::Display for StageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<12} {:>6} {:>12}  detail", "stage", "calls", "time")?;
        for (name, calls, ns) in self.cells() {
            writeln!(f, "{:<12} {:>6} {:>12}", name, calls, fmt_ns(ns))?;
        }
        for (i, r) in self.numeric.iter().enumerate() {
            writeln!(
                f,
                "{:<12} {:>6} {:>12}  {} lane{} · {} · {} flops",
                format!("numeric[{}]", i),
                1,
                fmt_ns(r.numeric_ns),
                r.lanes,
                if r.lanes == 1 { "" } else { "s" },
                if r.parallel { "parallel" } else { "serial" },
                r.flops,
            )?;
        }
        writeln!(
            f,
            "{:<12} {:>6} {:>12}",
            "total",
            "",
            fmt_ns(self.total_ns())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oplog::{intern_label, workload_label, OpDraft, OpKind};

    /// Publish one record with the given align / transpose / symbolic /
    /// numeric nanoseconds under workload label `label`.
    fn record_as(log: &OpLog, label: &str, kind: OpKind, stages: [u64; 4], lanes: u64) {
        let mut d = OpDraft::new(kind);
        d.label = intern_label(label);
        [d.align_ns, d.transpose_ns, d.symbolic_ns, d.numeric_ns] = stages;
        d.lanes = lanes;
        d.flops = 120;
        log.record(&d);
    }

    /// [`record_as`] under the unlabeled id the test threads run with.
    fn record(log: &OpLog, kind: OpKind, stages: [u64; 4], lanes: u64) {
        record_as(log, "", kind, stages, lanes);
    }

    #[test]
    fn report_accumulates_stages() {
        let log = OpLog::with_capacity(8);
        record(&log, OpKind::PlanBuild, [5_000, 2_000, 0, 0], 0);
        record(&log, OpKind::PlanExecute, [0, 0, 3_000, 7_000], 6);
        record(&log, OpKind::PlanExecute, [0, 0, 0, 4_000], 1);
        let r = StageReport::from_window(&log, 0, log.cursor()).unwrap();
        assert_eq!(
            (r.align_calls, r.transpose_calls, r.symbolic_calls),
            (1, 1, 1),
            "a memoized symbolic pass is no call"
        );
        assert_eq!(r.numeric.len(), 2);
        assert_eq!(r.total_ns(), 5_000 + 2_000 + 3_000 + 7_000 + 4_000);
        let table = r.to_string();
        assert!(table.contains("align"), "{}", table);
        assert!(table.contains("6 lanes · serial · 120 flops"), "{}", table);
        assert!(table.contains("1 lane · serial"), "{}", table);
        assert!(table.contains("total"), "{}", table);
    }

    #[test]
    fn json_report_is_well_formed_and_complete() {
        let log = OpLog::with_capacity(8);
        record(&log, OpKind::PlanBuild, [5_000, 0, 0, 0], 0);
        let mut d = OpDraft::new(OpKind::PlanExecute);
        d.numeric_ns = 9_000;
        d.lanes = 2;
        d.parallel = true;
        d.flops = 42;
        log.record(&d);
        let j = StageReport::from_window(&log, 0, log.cursor())
            .unwrap()
            .to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{}", j);
        assert!(j.contains("\"align\":{\"calls\":1,\"ns\":5000}"), "{}", j);
        assert!(j.contains("\"transpose\":{\"calls\":0,\"ns\":0}"), "{}", j);
        assert!(
            j.contains("{\"lanes\":2,\"parallel\":true,\"flops\":42,\"ns\":9000}"),
            "{}",
            j
        );
        assert!(j.contains("\"total_ns\":14000"), "{}", j);
        // Balanced braces/brackets — the cheap structural check every
        // hand-emitter in this workspace gets.
        let opens = j.matches('{').count() + j.matches('[').count();
        let closes = j.matches('}').count() + j.matches(']').count();
        assert_eq!(opens, closes, "{}", j);
    }

    #[test]
    fn window_keeps_to_its_label_and_refuses_to_under_count() {
        let me = "profile-window-test";
        let _label = workload_label(me);
        let log = OpLog::with_capacity(4);
        let start = log.cursor();
        record_as(&log, me, OpKind::PlanBuild, [1_000, 0, 0, 0], 0);
        // Another workload's op inside the window stays out of the view.
        record_as(&log, "other", OpKind::PlanBuild, [50_000, 0, 0, 0], 0);
        record_as(&log, me, OpKind::PlanExecute, [0, 0, 0, 2_000], 1);
        let end = log.cursor();
        let r = StageReport::from_window(&log, start, end).unwrap();
        assert_eq!((r.align_ns, r.total_ns()), (1_000, 3_000));

        // Three more completions wrap the 4-slot ring past the first two
        // records of the window: the view reports the loss instead of
        // quietly returning smaller numbers.
        for _ in 0..3 {
            record(&log, OpKind::PlanExecute, [0, 0, 0, 1], 1);
        }
        let lost = StageReport::from_window(&log, start, end).unwrap_err();
        assert_eq!(
            lost,
            RecordsLost {
                lost: 2,
                capacity: 4
            }
        );
        assert!(lost.to_string().contains("AARRAY_OBS_OPS"), "{}", lost);
    }

    #[test]
    fn concurrent_windows_under_one_label_keep_to_their_thread() {
        let log = OpLog::with_capacity(64);
        let barrier = std::sync::Barrier::new(2);
        let reports: Vec<StageReport> = std::thread::scope(|s| {
            let workers: Vec<_> = [1u64, 1_000]
                .into_iter()
                .map(|align| {
                    let (log, barrier) = (&log, &barrier);
                    s.spawn(move || {
                        let label = "profile-shared-label";
                        let _label = workload_label(label);
                        let start = log.cursor();
                        // Both windows open before either thread records
                        // and close after both are done, so each spans
                        // every record of the other thread.
                        barrier.wait();
                        for _ in 0..5 {
                            record_as(log, label, OpKind::PlanBuild, [align, 0, 0, 0], 0);
                        }
                        barrier.wait();
                        StageReport::from_window(log, start, log.cursor()).unwrap()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(
            (reports[0].align_calls, reports[0].align_ns),
            (5, 5),
            "thread A sees only its own ops"
        );
        assert_eq!(
            (reports[1].align_calls, reports[1].align_ns),
            (5, 5_000),
            "thread B sees only its own ops"
        );
    }

    #[test]
    fn duration_formatting_picks_unit() {
        assert_eq!(fmt_ns(17), "17 ns");
        assert_eq!(fmt_ns(2_500), "2.5 µs");
        assert_eq!(fmt_ns(3_000_000), "3.000 ms");
        assert_eq!(fmt_ns(1_500_000_000), "1.500 s");
    }
}
