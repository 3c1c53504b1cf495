//! Canonical figure workloads at bench scale.
//!
//! `obsctl run` replays the paper's Figure 3 pipeline (six fused NN
//! adjacency lanes plus the tropical max.+ lane on its own plan) and
//! the Figure 5 variant (same shape over a re-weighted E1) against
//! [`aarray_bench::synthetic_e1_e2`] tables at several scales. Stage
//! timings are the op ledger's per-op breakdowns (derived from the
//! journal's stage spans) read through [`StageReport`], the same view
//! `repro --profile` prints; each rep's wall is timed around the same
//! ops, and both are reported as medians over the reps.

use aarray_algebra::pairs::{MaxMin, MaxPlus, MaxTimes, MinMax, MinPlus, MinTimes, PlusTimes};
use aarray_algebra::values::nn::{nn, NN};
use aarray_algebra::values::tropical::{trop, Tropical};
use aarray_algebra::DynOpPair;
use aarray_bench::synthetic_e1_e2;
use aarray_core::incremental::{AdjacencyView, IncidenceBuilder};
use aarray_core::{adjacency_plan, AArray};
use aarray_obs::{oplog, StageReport};
use std::time::Instant;

/// Which canonical figure a workload replays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Figure {
    /// Unit-weight adjacency construction (paper Figure 3).
    Fig3,
    /// Re-weighted E1 (paper Figures 4–5): every E1 value doubled
    /// before the traversal, exercising the weighted numeric path.
    Fig5,
}

impl Figure {
    /// The workload name recorded in bench files.
    pub fn name(self) -> &'static str {
        match self {
            Figure::Fig3 => "fig3",
            Figure::Fig5 => "fig5",
        }
    }
}

/// Median nanoseconds per stage across the reps of one workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageMedians {
    /// Key-alignment stage of the NN plan.
    pub align_ns: u64,
    /// Transpose construction (plan build) of the NN plan.
    pub transpose_ns: u64,
    /// Symbolic (pattern) pass of the NN plan.
    pub symbolic_ns: u64,
    /// Sum of numeric passes of the NN plan (the 6 fused lanes).
    pub numeric_ns: u64,
    /// NN-plan total (align + transpose + symbolic + numeric) — the
    /// figure comparable to legacy `fused_ms`.
    pub total_ns: u64,
    /// Wall time of one whole rep (both plans), timed around the same
    /// ops the stage cells cover.
    pub wall_ns: u64,
}

impl StageMedians {
    /// One rep's cells: the stages of the ops `r` covers, and the rep's
    /// wall.
    fn from_report(r: &StageReport, wall_ns: u64) -> StageMedians {
        StageMedians {
            align_ns: r.align_ns,
            transpose_ns: r.transpose_ns,
            symbolic_ns: r.symbolic_ns,
            numeric_ns: r.numeric.iter().map(|p| p.numeric_ns).sum(),
            total_ns: r.total_ns(),
            wall_ns,
        }
    }

    /// Cell-by-cell medians across reps.
    fn median_of(samples: &[StageMedians]) -> StageMedians {
        let cell = |f: fn(&StageMedians) -> u64| median(samples.iter().map(f).collect());
        StageMedians {
            align_ns: cell(|s| s.align_ns),
            transpose_ns: cell(|s| s.transpose_ns),
            symbolic_ns: cell(|s| s.symbolic_ns),
            numeric_ns: cell(|s| s.numeric_ns),
            total_ns: cell(|s| s.total_ns),
            wall_ns: cell(|s| s.wall_ns),
        }
    }
}

/// One workload's measurements, ready for JSON emission.
#[derive(Clone, Debug)]
pub struct WorkloadRun {
    /// `fig3` or `fig5`.
    pub name: &'static str,
    /// Track count fed to the synthetic generator.
    pub rows: usize,
    /// Nonzeros in the (possibly re-weighted) E1 operand.
    pub e1_nnz: usize,
    /// Nonzeros in the E2 operand.
    pub e2_nnz: usize,
    /// Nonzeros of the +.× adjacency product.
    pub product_nnz: usize,
    /// Reps actually timed.
    pub reps: usize,
    /// Per-stage medians across reps.
    pub stages: StageMedians,
}

fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    if xs.is_empty() {
        0
    } else {
        xs[xs.len() / 2]
    }
}

/// Run one figure workload at one scale, `reps` timed iterations after
/// one warmup. Each rep rebuilds both plans so plan construction
/// (transpose, symbolic) is measured, not amortised away. A rep's wall
/// covers both plans; its stage cells are the NN plan's ops, read from
/// the ledger after the clock stops.
pub fn run_workload(figure: Figure, rows: usize, reps: usize) -> WorkloadRun {
    // Every op the reps record carries this workload label in the
    // ledger, so `obsctl ops` can attribute tails per workload.
    let _label = aarray_obs::workload_label(figure.name());
    let (e1_raw, e2) = synthetic_e1_e2(rows, 8, 100, 7);
    let e1 = match figure {
        Figure::Fig3 => e1_raw,
        Figure::Fig5 => e1_raw.map_prune(&PlusTimes::<NN>::new(), |v| nn(v.get() * 2.0)),
    };
    let mp = MaxPlus::<Tropical>::new();
    let e1t = e1.map_prune(&mp, |v| trop(v.get()));
    let e2t = e2.map_prune(&mp, |v| trop(v.get()));

    let plus_times = PlusTimes::<NN>::new();
    let max_times = MaxTimes::<NN>::new();
    let min_times = MinTimes::<NN>::new();
    let min_plus = MinPlus::<NN>::new();
    let max_min = MaxMin::<NN>::new();
    let min_max = MinMax::<NN>::new();
    let pairs: [&dyn DynOpPair<NN>; 6] = [
        &plus_times,
        &max_times,
        &min_times,
        &min_plus,
        &max_min,
        &min_max,
    ];

    let rep_once = || -> (StageMedians, usize) {
        let start = oplog().cursor();
        let t0 = Instant::now();
        let plan = adjacency_plan(&e1, &e2);
        let outs = plan.execute_all(&pairs);
        let nn_end = oplog().cursor();
        let _trop = adjacency_plan(&e1t, &e2t).execute(&mp);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let nn = StageReport::from_window(oplog(), start, nn_end)
            .unwrap_or_else(|e| panic!("{}: NN plan stages: {}", figure.name(), e));
        (StageMedians::from_report(&nn, wall_ns), outs[0].nnz())
    };

    rep_once(); // warmup
    let reps = reps.max(1);
    let mut samples = Vec::with_capacity(reps);
    let mut product_nnz = 0;
    for _ in 0..reps {
        let (sample, nnz) = rep_once();
        samples.push(sample);
        product_nnz = nnz;
    }

    WorkloadRun {
        name: figure.name(),
        rows,
        e1_nnz: e1.nnz(),
        e2_nnz: e2.nnz(),
        product_nnz,
        reps,
        stages: StageMedians::median_of(&samples),
    }
}

/// One streaming-ingest measurement at one scale: the last 10% of the
/// synthetic edge rows arrive as an appended batch, and the same five
/// associative-`⊕` NN lanes (`max.×`, `min.×`, `min.+`, `max.min`,
/// `min.max`) are brought current twice — once incrementally
/// (`IncidenceBuilder::append_batch` + `AdjacencyView::refresh`, the
/// delta-SpGEMM path) and once by a full fused rebuild of the
/// cumulative incidence. Both are returned as workload entries
/// (`stream-incr`, `stream-rebuild`); the acceptance figure is the
/// ratio of their `total` medians.
///
/// Stage mapping for `stream-incr`: `align` = batch append (a push
/// onto the builder's batch log) plus any alignment the refresh ops
/// recorded;
/// `transpose`/`symbolic`/`numeric` come from the op ledger's
/// union-of-interval stage slots summed over the refresh's own ops
/// (delta-apply time folds into `numeric` — it is numeric work on the
/// delta product); `total` = the refresh stopwatch; `wall` = append +
/// refresh. For `stream-rebuild` the stages are the [`StageReport`] of
/// the rebuild plan's ledger records (`total` = its stage sum,
/// `wall` = the rebuild stopwatch), so `numeric`, `total`, and `wall`
/// are each independently measured rather than aliases of one number.
/// The builder stacks its cumulative incidence on first read; that
/// read happens between the append and rebuild stopwatches, so neither
/// times it and the rebuild wall stays plan + execute.
/// Every rep cross-checks that the incremental lanes are
/// **bit-identical** to the rebuilt ones — the latency comparison is
/// only meaningful because the results agree exactly.
pub fn run_streaming(rows: usize, reps: usize) -> (WorkloadRun, WorkloadRun) {
    let _label = aarray_obs::workload_label("stream");
    let pair = PlusTimes::<NN>::new();
    let (e1, e2) = synthetic_e1_e2(rows, 8, 100, 7);
    let n = e1.row_keys().len();
    let batch_rows = (n / 10).max(1);
    let cut_key = e1.row_keys().key(n - batch_rows).to_string();
    let split = |a: &AArray<NN>| -> (AArray<NN>, AArray<NN>) {
        let (mut base, mut batch) = (Vec::new(), Vec::new());
        for (r, c, v) in a.iter() {
            let t = (r.to_string(), c.to_string(), *v);
            if r < cut_key.as_str() {
                base.push(t);
            } else {
                batch.push(t);
            }
        }
        (
            AArray::from_triples(&pair, base),
            AArray::from_triples(&pair, batch),
        )
    };
    let (base_e1, batch_e1) = split(&e1);
    let (base_e2, batch_e2) = split(&e2);

    let max_times = MaxTimes::<NN>::new();
    let min_times = MinTimes::<NN>::new();
    let min_plus = MinPlus::<NN>::new();
    let max_min = MaxMin::<NN>::new();
    let min_max = MinMax::<NN>::new();
    let lanes: Vec<&dyn DynOpPair<NN>> =
        vec![&max_times, &min_times, &min_plus, &max_min, &min_max];

    let reps = reps.max(1);
    let mut incr_samples: Vec<StageMedians> = Vec::with_capacity(reps);
    let mut rebuild_samples: Vec<StageMedians> = Vec::with_capacity(reps);
    let mut product_nnz = 0usize;

    for rep in 0..=reps {
        let warmup = rep == 0;
        let mut builder = IncidenceBuilder::new(base_e1.clone(), base_e2.clone())
            .expect("synthetic incidence blocks share edge rows");
        let mut view = AdjacencyView::new(&builder, lanes.clone());

        let t0 = Instant::now();
        builder
            .append_batch(batch_e1.clone(), batch_e2.clone())
            .expect("row-split batch has fresh, ordered edge keys");
        let append_ns = t0.elapsed().as_nanos() as u64;

        // The refresh's stage breakdown comes from the op ledger: every
        // op it records lands in this cursor window, with
        // union-of-interval stage slots derived from its journal spans.
        let refresh_start = oplog().cursor();
        let t1 = Instant::now();
        let report = view.refresh(&builder);
        let refresh_ns = t1.elapsed().as_nanos() as u64;
        let refresh_end = oplog().cursor();
        assert_eq!(
            (report.incremental_lanes, report.rebuilt_lanes),
            (lanes.len(), 0),
            "all five streaming lanes are associative-⊕ and must take the delta path"
        );
        let refresh_ops = oplog()
            .labeled_window(refresh_start, refresh_end)
            .unwrap_or_else(|e| panic!("stream refresh stages: {}", e));
        let (mut r_align, mut r_transpose, mut r_symbolic, mut r_numeric) =
            (0u64, 0u64, 0u64, 0u64);
        for r in &refresh_ops {
            r_align += r.align_ns;
            r_transpose += r.transpose_ns;
            r_symbolic += r.symbolic_ns;
            // Delta-apply is the numeric work of the incremental path.
            r_numeric += r.numeric_ns + r.delta_ns;
        }

        // Stack the cumulative pair outside both stopwatches.
        let (eout, ein) = (builder.eout(), builder.ein());
        let rebuild_start = oplog().cursor();
        let t2 = Instant::now();
        let plan = adjacency_plan(eout, ein);
        let full = plan.execute_all(&lanes);
        let rebuild_ns = t2.elapsed().as_nanos() as u64;
        let rb = StageReport::from_window(oplog(), rebuild_start, oplog().cursor())
            .unwrap_or_else(|e| panic!("stream rebuild stages: {}", e));

        for (i, lane) in full.iter().enumerate() {
            assert_eq!(
                view.lane(i),
                lane,
                "incremental lane {} must be bit-identical to the rebuild",
                i
            );
        }
        if warmup {
            continue;
        }
        product_nnz = full[0].nnz();
        incr_samples.push(StageMedians {
            align_ns: append_ns + r_align,
            transpose_ns: r_transpose,
            symbolic_ns: r_symbolic,
            numeric_ns: r_numeric,
            total_ns: refresh_ns,
            wall_ns: append_ns + refresh_ns,
        });
        rebuild_samples.push(StageMedians::from_report(&rb, rebuild_ns));
    }

    // Both maintenance strategies pay the same incidence accumulation
    // (`append_batch`), so the totals compare only the maintenance
    // work itself: delta apply (refresh) vs full rebuild. The shared
    // append cost is still visible in stream-incr's `align` and `wall`.
    let mk = |name: &'static str, stages: StageMedians| WorkloadRun {
        name,
        rows,
        e1_nnz: e1.nnz(),
        e2_nnz: e2.nnz(),
        product_nnz,
        reps,
        stages,
    };
    (
        mk("stream-incr", StageMedians::median_of(&incr_samples)),
        mk("stream-rebuild", StageMedians::median_of(&rebuild_samples)),
    )
}

/// The flight recorder's cost figure for one observatory run: how many
/// events the workloads journaled, what one record costs (measured
/// in-process right after the workloads), and the resulting estimated
/// overhead against the workloads' wall time. Recorded in the bench
/// file (`"journal"` key) so the ≤ 2% always-on budget has a committed
/// figure next to the numbers it protects.
#[derive(Clone, Copy, Debug)]
pub struct JournalNote {
    /// Journal records appended during the measured workloads.
    pub recorded: u64,
    /// Records overwritten by ring wraparound in the same window.
    pub dropped: u64,
    /// Measured nanoseconds per [`aarray_obs::Journal::record`] call.
    pub ns_per_record: f64,
    /// `recorded × ns_per_record` against the workloads' summed wall
    /// time, as a percentage.
    pub est_overhead_pct: f64,
}

/// Microbenchmark one journal record and convert the run's journal
/// delta into a [`JournalNote`]. `total_wall_ns` should be the summed
/// wall time of every measured rep.
pub fn measure_journal_note(report: &aarray_obs::ObsReport, total_wall_ns: u64) -> JournalNote {
    use aarray_obs::{EventKind, Journal};
    let scratch = Journal::with_capacity(1 << 14);
    let n = 100_000u64;
    let t0 = Instant::now();
    for i in 0..n {
        scratch.record(EventKind::RowShape, i, i);
    }
    let ns_per_record = t0.elapsed().as_nanos() as f64 / n as f64;
    let recorded = report.journal.recorded;
    JournalNote {
        recorded,
        dropped: report.journal.dropped,
        ns_per_record,
        est_overhead_pct: if total_wall_ns == 0 {
            0.0
        } else {
            recorded as f64 * ns_per_record / total_wall_ns as f64 * 100.0
        },
    }
}

/// Emit the schema-versioned observatory document for one `obsctl run`.
/// `report` should be the [`aarray_obs::ObsReport`] delta covering all
/// the runs (counters/histograms since the first warmup; memory peaks
/// are process-lifetime last-values). `journal_note`, when present, is
/// recorded as an informational `"journal"` block (v3 validators
/// ignore unknown top-level keys).
pub fn bench_json(
    runs: &[WorkloadRun],
    report: &aarray_obs::ObsReport,
    reps: usize,
    histograms_enabled: bool,
    journal_note: Option<&JournalNote>,
) -> String {
    let mut out = String::with_capacity(8192);
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"schema_version\": {},\n  \"bench\": \"perf-observatory\",\n  \"tool\": \"obsctl\",\n  \"reps\": {},\n  \"histograms_enabled\": {},\n",
        crate::schema::BENCH_SCHEMA_VERSION,
        reps,
        histograms_enabled
    ));
    out.push_str("  \"workloads\": [");
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"rows\": {}, \"reps\": {}, \"e1_nnz\": {}, \"e2_nnz\": {}, \"product_nnz\": {},\n     \"stages\": {{",
            r.name, r.rows, r.reps, r.e1_nnz, r.e2_nnz, r.product_nnz
        ));
        for (j, (key, ns)) in [
            ("align", r.stages.align_ns),
            ("transpose", r.stages.transpose_ns),
            ("symbolic", r.stages.symbolic_ns),
            ("numeric", r.stages.numeric_ns),
            ("total", r.stages.total_ns),
            ("wall", r.stages.wall_ns),
        ]
        .iter()
        .enumerate()
        {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {{\"median_ns\": {}}}", key, ns));
        }
        out.push_str("}}");
    }
    out.push_str("\n  ],\n");

    if let Some(n) = journal_note {
        out.push_str(&format!(
            "  \"journal\": {{\"recorded\": {}, \"dropped\": {}, \"ns_per_record\": {:.2}, \
             \"est_overhead_pct\": {:.4}}},\n",
            n.recorded, n.dropped, n.ns_per_record, n.est_overhead_pct
        ));
    }

    // Embed the ObsReport verbatim, re-indented two spaces.
    out.push_str("  \"report\": ");
    let report_json = report.to_json();
    for (i, line) in report_json.trim_end().lines().enumerate() {
        if i > 0 {
            out.push_str("\n  ");
        }
        out.push_str(line);
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::schema::{classify, BenchKind};

    #[test]
    fn tiny_run_emits_schema_valid_document() {
        let runs = [
            run_workload(Figure::Fig3, 300, 2),
            run_workload(Figure::Fig5, 300, 2),
        ];
        assert!(runs[0].product_nnz > 0);
        assert!(runs[0].e1_nnz > 0 && runs[0].e2_nnz > 0);
        // Stage medians are live (numeric covers 6 lanes of real work),
        // and each rep's wall encloses the ops its stages come from, so
        // the wall median covers the total median.
        for run in &runs {
            let s = run.stages;
            assert!(s.numeric_ns > 0, "{}: {:?}", run.name, s);
            assert!(s.wall_ns >= s.total_ns, "{}: {:?}", run.name, s);
        }

        let report = aarray_obs::ObsReport::capture();
        let note = measure_journal_note(&report, runs.iter().map(|r| r.stages.wall_ns).sum());
        assert!(note.ns_per_record > 0.0);
        let doc = bench_json(
            &runs,
            &report,
            2,
            aarray_obs::histograms_enabled(),
            Some(&note),
        );
        let parsed = parse(&doc).expect("bench_json must emit valid JSON");
        let jn = parsed
            .get("journal")
            .expect("journal note must be embedded");
        assert_eq!(jn.get("recorded").unwrap().as_u64(), Some(note.recorded));
        assert_eq!(classify(&parsed).unwrap(), BenchKind::V3);
        // Both figures present with their stage tables.
        let wl = parsed.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(wl.len(), 2);
        assert_eq!(wl[0].get("name").unwrap().as_str(), Some("fig3"));
        assert_eq!(wl[1].get("name").unwrap().as_str(), Some("fig5"));
    }

    #[test]
    fn streaming_run_is_schema_valid_and_cross_checked() {
        // run_streaming itself asserts per-rep bit-identity between the
        // incremental and rebuilt lanes; here we check the emitted shape.
        let (incr, rebuild) = run_streaming(300, 2);
        assert_eq!(incr.name, "stream-incr");
        assert_eq!(rebuild.name, "stream-rebuild");
        assert_eq!(incr.product_nnz, rebuild.product_nnz);
        assert!(incr.product_nnz > 0);
        assert!(incr.stages.numeric_ns > 0 && rebuild.stages.numeric_ns > 0);
        assert!(incr.stages.total_ns >= incr.stages.numeric_ns);

        let report = aarray_obs::ObsReport::capture();
        let doc = bench_json(
            &[incr, rebuild],
            &report,
            2,
            aarray_obs::histograms_enabled(),
            None,
        );
        let parsed = parse(&doc).expect("valid JSON");
        assert_eq!(classify(&parsed).unwrap(), BenchKind::V3);
    }

    #[test]
    fn fig5_reweighting_changes_values_not_pattern() {
        let a = run_workload(Figure::Fig3, 200, 1);
        let b = run_workload(Figure::Fig5, 200, 1);
        // Doubling strictly positive weights prunes nothing.
        assert_eq!(a.e1_nnz, b.e1_nnz);
        assert_eq!(a.product_nnz, b.product_nnz);
    }
}
