//! The fused kernel's two passes and the operand strategies shared by
//! its test suites.

use aarray_algebra::pairs::PlusTimes;
use aarray_algebra::values::nn::{nn, NN};
use aarray_algebra::{DynOpPair, Value};
use aarray_sparse::spgemm_multi::{spgemm_multi_numeric, FOLD_BLOCK};
use aarray_sparse::symbolic::spgemm_symbolic;
use aarray_sparse::{Coo, Csr, EdgeGather};
use proptest::prelude::*;

/// `A ⊕.⊗ B` as plans and `spgemm_delta` run it: the edge-major
/// gather of `Eout = Aᵀ` against `Ein = B`, the symbolic pass, then
/// the numeric pass, all under one dispatch decision.
pub fn fused<V: Value>(
    a: &Csr<V>,
    b: &Csr<V>,
    pairs: &[&dyn DynOpPair<V>],
    parallel: bool,
) -> Vec<Csr<V>> {
    let eout = a.transpose();
    let gather = EdgeGather::new(&eout, b, None, parallel);
    spgemm_multi_numeric(
        &spgemm_symbolic(&gather, parallel),
        &gather,
        pairs,
        parallel,
    )
}

/// Awkward `A`-side floats: sums of these re-associate visibly.
fn a_value(v: u64) -> NN {
    nn(v as f64 * 0.1 + 0.003)
}

/// Awkward `B`-side floats.
fn b_value(v: u64) -> NN {
    nn(v as f64 * 0.07 + 0.001)
}

/// A conforming pair of small NN matrices with random patterns.
pub fn arb_nn_pair(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = (Csr<NN>, Csr<NN>)> {
    (1..=max_dim, 1..=max_dim, 1..=max_dim).prop_flat_map(move |(m, k, n)| {
        let a =
            prop::collection::vec((0..m, 0..k, 1u64..1000), 0..=max_nnz).prop_map(move |trips| {
                let mut coo = Coo::new(m, k);
                for (i, j, v) in trips {
                    coo.push(i, j, a_value(v));
                }
                coo.into_csr(&PlusTimes::<NN>::new())
            });
        let b =
            prop::collection::vec((0..k, 0..n, 1u64..1000), 0..=max_nnz).prop_map(move |trips| {
                let mut coo = Coo::new(k, n);
                for (i, j, v) in trips {
                    coo.push(i, j, b_value(v));
                }
                coo.into_csr(&PlusTimes::<NN>::new())
            });
        (a, b)
    })
}

// Row 0 of `arb_long_rows` must fold more than two blocks.
const _: () = assert!(72 * 8 > 2 * FOLD_BLOCK);

/// Operands whose output rows cross the fused kernel's fold-block
/// boundaries. At most 6 output rows, fewer than the row chunks of any
/// pool of two or more threads. Row 0 folds at least 72 × 8 terms, more
/// than two blocks; every other row is, at random, empty, sparse or
/// dense like row 0, so empty rows and rows ending in a partial block
/// are common. Each `B` row stores at least half of the 16–20 columns,
/// so a block hits every slot many times.
pub fn arb_long_rows() -> impl Strategy<Value = (Csr<NN>, Csr<NN>)> {
    (1..=6usize, 72..=80usize, 16..=20usize).prop_flat_map(|(m, k, n)| {
        let a = (
            prop::collection::vec(0u8..3, m),
            prop::collection::vec(1u64..1000, m * k),
        )
            .prop_map(move |(kinds, vals)| {
                let mut coo = Coo::new(m, k);
                for i in 0..m {
                    // 0 empty, 1 every ninth inner key, 2 dense.
                    let kind = if i == 0 { 2 } else { kinds[i] };
                    for kk in 0..k {
                        if kind == 2 || (kind == 1 && (kk + i) % 9 == 0) {
                            coo.push(i, kk, a_value(vals[i * k + kk]));
                        }
                    }
                }
                coo.into_csr(&PlusTimes::<NN>::new())
            });
        let b = (
            prop::collection::vec(1u64..1000, k * n),
            prop::collection::vec((0..k, 0..n, 1u64..1000), 0..=k),
        )
            .prop_map(move |(vals, extra)| {
                let mut coo = Coo::new(k, n);
                for r in 0..k {
                    for c in (r % 2..n).step_by(2) {
                        coo.push(r, c, b_value(vals[r * n + c]));
                    }
                }
                for (r, c, v) in extra {
                    coo.push(r, c, b_value(v));
                }
                coo.into_csr(&PlusTimes::<NN>::new())
            });
        (a, b)
    })
}

/// Heads per edge, by draw: none, one (twice as likely: a graph's
/// edge), or several (a hyperedge's).
const HEADS: [usize; 6] = [0, 1, 1, 2, 3, 4];

/// Incidence-shaped operands `(A, B) = (Eoutᵀ, Ein)` over at most
/// `max_edges` edges: each edge has one to four tails and, by
/// [`HEADS`], no head, one head or several, so the gather both
/// resolves edges to their one head and leaves edges in place, often
/// in the same output row.
pub fn arb_hyperedges(
    max_edges: usize,
    max_vertices: usize,
) -> impl Strategy<Value = (Csr<NN>, Csr<NN>)> {
    (1..=max_edges, 1..=max_vertices, 1..=max_vertices).prop_flat_map(move |(e, m, n)| {
        let edge = (
            1..=4usize,
            0..HEADS.len(),
            prop::collection::vec((0..m, 0..n, 1u64..1000, 1u64..1000), 4),
        );
        prop::collection::vec(edge, e).prop_map(move |edges| {
            let mut eout = Coo::new(e, m);
            let mut ein = Coo::new(e, n);
            for (k, (tails, heads, picks)) in edges.into_iter().enumerate() {
                for &(i, _, v, _) in &picks[..tails] {
                    eout.push(k, i, a_value(v));
                }
                for &(_, j, _, w) in &picks[..HEADS[heads]] {
                    ein.push(k, j, b_value(w));
                }
            }
            let pt = PlusTimes::<NN>::new();
            (eout.into_csr(&pt).transpose(), ein.into_csr(&pt))
        })
    })
}

/// Small random operands, long rows or hyperedges, evenly.
pub fn arb_nn_operands(
    max_dim: usize,
    max_nnz: usize,
) -> impl Strategy<Value = (Csr<NN>, Csr<NN>)> {
    prop_oneof![
        arb_nn_pair(max_dim, max_nnz),
        arb_long_rows(),
        arb_hyperedges(3 * max_dim, max_dim)
    ]
}
