//! Canonical figure workloads for `obsctl trace`, `ops` and `watch`.
//!
//! [`run_workload`] replays the paper's Figure 3 pipeline (six fused NN
//! adjacency lanes plus the tropical max.+ lane on its own plan) or the
//! Figure 5 variant (same shape over a re-weighted E1) against
//! [`aarray_bench::synthetic_e1_e2`] tables; [`run_streaming`] appends a
//! batch to a growing incidence and refreshes five incremental lanes.
//! They only drive the library: what a run cost is read afterwards
//! from the journal, the op ledger and the counters it left behind.

use aarray_algebra::pairs::{MaxMin, MaxPlus, MaxTimes, MinMax, MinPlus, MinTimes, PlusTimes};
use aarray_algebra::values::nn::{nn, NN};
use aarray_algebra::values::tropical::{trop, Tropical};
use aarray_algebra::DynOpPair;
use aarray_bench::synthetic_e1_e2;
use aarray_core::incremental::{AdjacencyView, IncidenceBuilder};
use aarray_core::{adjacency_plan, AArray};

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
    /// The workload label the runs record in the op ledger.
    pub fn name(self) -> &'static str {
        match self {
            Figure::Fig3 => "fig3",
            Figure::Fig5 => "fig5",
        }
    }
}

/// The shape of one workload's operands and output.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadRun {
    /// Nonzeros in the (possibly re-weighted) E1 operand.
    pub e1_nnz: usize,
    /// Nonzeros of the adjacency product (the same pattern on every lane).
    pub product_nnz: usize,
}

/// Run one figure workload `reps` times at one scale. Each rep builds
/// both plans afresh, so plan construction (gather, symbolic) runs
/// every time instead of being served from a cached plan.
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

    let mut product_nnz = 0;
    for _ in 0..reps.max(1) {
        let outs = adjacency_plan(&e1, &e2).execute_all(&pairs);
        adjacency_plan(&e1t, &e2t).execute(&mp);
        product_nnz = outs[0].nnz();
    }
    WorkloadRun {
        e1_nnz: e1.nnz(),
        product_nnz,
    }
}

/// Streaming ingest at one scale, `reps` times: the last 10% of the
/// synthetic edge rows arrive as an appended batch, and five
/// associative-`⊕` NN lanes (`max.×`, `min.×`, `min.+`, `max.min`,
/// `min.max`) are brought current incrementally
/// (`IncidenceBuilder::append_batch` + `AdjacencyView::refresh`, the
/// delta-SpGEMM path). Every rep asserts that all five lanes took the
/// delta path and are **bit-identical** to a full rebuild of the
/// cumulative incidence.
pub fn run_streaming(rows: usize, reps: usize) -> WorkloadRun {
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

    let mut product_nnz = 0;
    for _ in 0..reps.max(1) {
        let mut builder = IncidenceBuilder::new(base_e1.clone(), base_e2.clone())
            .expect("synthetic incidence blocks share edge rows");
        let mut view = AdjacencyView::new(&builder, lanes.clone());
        builder
            .append_batch(batch_e1.clone(), batch_e2.clone())
            .expect("row-split batch has fresh, ordered edge keys");
        let report = view.refresh(&builder);
        assert_eq!(
            (report.incremental_lanes, report.rebuilt_lanes),
            (lanes.len(), 0),
            "all five streaming lanes are associative-⊕ and must take the delta path"
        );

        let full = adjacency_plan(builder.eout(), builder.ein()).execute_all(&lanes);
        for (i, lane) in full.iter().enumerate() {
            assert_eq!(
                view.lane(i),
                lane,
                "incremental lane {} must be bit-identical to the rebuild",
                i
            );
        }
        product_nnz = full[0].nnz();
    }
    WorkloadRun {
        e1_nnz: e1.nnz(),
        product_nnz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_run_is_cross_checked() {
        // run_streaming asserts per-rep bit-identity between the
        // incremental and rebuilt lanes; the streamed lanes also end on
        // the one-shot construction's pattern.
        let streamed = run_streaming(300, 2);
        assert!(streamed.product_nnz > 0);
        let one_shot = run_workload(Figure::Fig3, 300, 1);
        assert_eq!(streamed.product_nnz, one_shot.product_nnz);
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
