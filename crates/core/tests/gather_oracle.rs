//! An oracle for the construction plan that shares none of its code:
//! every output of `adjacency_plan(&eout, &ein).execute_all(pairs)`
//! must equal the one-pass `spgemm(&eoutᵀ, &ein, pair)` over the edges
//! both operands list, bit for bit.
//!
//! The operands are incidence arrays whose edges have no head, one
//! head (the gather resolves these) or several, and one tail or
//! several (hyperedges); most cases list different edge keys on the
//! two sides, so the plan aligns them. The pairs are `+.×` over `NN`
//! (float `+`: re-association shows in the low bits), `max.min` and
//! the non-associative `|−|.×` (fold order shows in the value). Plans
//! are built and run on pools of 1, 2, 4 and 8 threads with the
//! dispatch threshold at 0, so every pool of two or more threads lays
//! the gather out in blocks and runs both passes row-parallel.

use aarray_algebra::ops::{AbsDiff, Times};
use aarray_algebra::pairs::{MaxMin, PlusTimes};
use aarray_algebra::values::nn::{nn, NN};
use aarray_algebra::{DynOpPair, OpPair};
use aarray_core::{adjacency_plan, set_parallel_flops_threshold, AArray, KeySet};
use aarray_sparse::{spgemm, Coo, Csr};
use proptest::prelude::*;

const POOL_SIZES: [usize; 4] = [1, 2, 4, 8];

/// Heads per edge, by draw: none, one (twice as likely), or several.
const HEADS: [usize; 6] = [0, 1, 1, 2, 3, 4];

/// One edge: listed by `Eout`?, listed by `Ein`?, tail count, head
/// draw, and up to four (tail vertex, head vertex, tail value, head
/// value) picks.
type Edge = (bool, bool, usize, usize, Vec<(usize, usize, u64, u64)>);

/// `(out-vertices, in-vertices, edges)`.
type Spec = (usize, usize, Vec<Edge>);

fn arb_spec() -> impl Strategy<Value = Spec> {
    (1..=24usize, 1..=6usize, 1..=6usize, 0..3u8).prop_flat_map(|(e, m, n, mode)| {
        // Mode 0 lists every edge on both sides (no alignment needed);
        // otherwise each side drops about one edge in five.
        let listed = move |draw: u8| mode == 0 || draw > 0;
        let edge = (
            0..5u8,
            0..5u8,
            1..=4usize,
            0..HEADS.len(),
            prop::collection::vec((0..m, 0..n, 1u64..1000, 1u64..1000), 4),
        )
            .prop_map(move |(o, i, tails, heads, picks)| {
                (listed(o), listed(i), tails, heads, picks)
            });
        (Just(m), Just(n), prop::collection::vec(edge, e))
    })
}

fn tail_value(v: u64) -> NN {
    nn(v as f64 * 0.1 + 0.003)
}

fn head_value(v: u64) -> NN {
    nn(v as f64 * 0.07 + 0.001)
}

fn keys(prefix: &str, n: usize) -> KeySet {
    KeySet::from_sorted_unique((0..n).map(|i| format!("{prefix}{i:02}")).collect())
}

/// The edges `keep` admits, as an incidence array over all `nverts`
/// vertices; `side` picks tails (0) or heads (1). An edge without a
/// head stays a row of its own: an empty one.
fn incidence(spec: &Spec, side: usize, keep: impl Fn(&Edge) -> bool) -> AArray<NN> {
    let (m, n, edges) = spec;
    let (prefix, nverts) = if side == 0 { ("a", *m) } else { ("b", *n) };
    let kept: Vec<(usize, &Edge)> = edges.iter().enumerate().filter(|(_, e)| keep(e)).collect();
    let mut coo = Coo::new(kept.len(), nverts);
    for (row, (_, (_, _, tails, heads, picks))) in kept.iter().enumerate() {
        if side == 0 {
            for &(i, _, v, _) in &picks[..*tails] {
                coo.push(row, i, tail_value(v));
            }
        } else {
            for &(_, j, _, w) in &picks[..HEADS[*heads]] {
                coo.push(row, j, head_value(w));
            }
        }
    }
    let edge_keys = kept.iter().map(|(k, _)| format!("e{k:03}")).collect();
    AArray::from_parts(
        KeySet::from_sorted_unique(edge_keys),
        keys(prefix, nverts),
        coo.into_csr(&PlusTimes::<NN>::new()),
    )
}

proptest! {
    #[test]
    fn plan_matches_one_pass_spgemm_at_all_pool_sizes(spec in arb_spec()) {
        set_parallel_flops_threshold(Some(0));
        let eout = incidence(&spec, 0, |e| e.0);
        let ein = incidence(&spec, 1, |e| e.1);
        // The oracle's operands: the shared edges only, row for row.
        let shared_out = incidence(&spec, 0, |e| e.0 && e.1);
        let shared_in = incidence(&spec, 1, |e| e.0 && e.1);
        let eout_t: Csr<NN> = shared_out.csr().transpose();

        let plus_times = PlusTimes::<NN>::new();
        let max_min = MaxMin::<NN>::new();
        let abs_diff: OpPair<NN, AbsDiff, Times> = OpPair::new();
        let pairs: [&dyn DynOpPair<NN>; 3] = [&plus_times, &max_min, &abs_diff];
        let want = [
            spgemm(&eout_t, shared_in.csr(), &plus_times),
            spgemm(&eout_t, shared_in.csr(), &max_min),
            spgemm(&eout_t, shared_in.csr(), &abs_diff),
        ];
        for threads in POOL_SIZES {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let got = pool.install(|| adjacency_plan(&eout, &ein).execute_all(&pairs));
            for (p, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(g.row_keys(), eout.col_keys());
                prop_assert_eq!(g.col_keys(), ein.col_keys());
                prop_assert_eq!(g.csr(), w, "pair {}, {} threads", p, threads);
            }
        }
    }
}
