//! Property-based tests of the sparse kernels against their algebraic
//! specifications and the dense reference implementation.

use aarray_algebra::ops::{AbsDiff, Max, Min, Plus, Times};
use aarray_algebra::values::nat::Nat;
use aarray_algebra::OpPair;
use aarray_sparse::dense::Dense;
use aarray_sparse::elementwise::{ewise_add, ewise_mul};
use aarray_sparse::spmv::spmv;
use aarray_sparse::{spgemm, spgemm_parallel, Coo, Csr};
use proptest::prelude::*;

type PT = OpPair<Nat, Plus, Times>;
type MM = OpPair<Nat, Max, Min>;

fn pt() -> PT {
    OpPair::new()
}

/// Stored entries per row.
fn row_degrees(a: &Csr<Nat>) -> Vec<usize> {
    (0..a.nrows()).map(|r| a.row_nnz(r)).collect()
}

/// Stored entries per column.
fn col_degrees(a: &Csr<Nat>) -> Vec<usize> {
    let mut deg = vec![0; a.ncols()];
    for (_, c, _) in a.iter() {
        deg[c] += 1;
    }
    deg
}

/// Strategy: a random sparse matrix as (nrows, ncols, triplets).
fn arb_csr(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Csr<Nat>> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(move |(r, c)| {
        prop::collection::vec((0..r, 0..c, 0u64..50), 0..=max_nnz).prop_map(move |trips| {
            let mut coo = Coo::new(r, c);
            for (i, j, v) in trips {
                coo.push(i, j, Nat(v));
            }
            coo.into_csr(&pt())
        })
    })
}

/// Two matrices with identical dimensions (for element-wise ops).
fn arb_same_dims(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = (Csr<Nat>, Csr<Nat>)> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(move |(r, c)| {
        let gen = move || {
            prop::collection::vec((0..r, 0..c, 0u64..50), 0..=max_nnz).prop_map(move |trips| {
                let mut coo = Coo::new(r, c);
                for (i, j, v) in trips {
                    coo.push(i, j, Nat(v));
                }
                coo.into_csr(&pt())
            })
        };
        (gen(), gen())
    })
}

/// A conforming pair of matrices for multiplication.
fn arb_pair(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = (Csr<Nat>, Csr<Nat>)> {
    (1..=max_dim, 1..=max_dim, 1..=max_dim).prop_flat_map(move |(m, k, n)| {
        let a = prop::collection::vec((0..m, 0..k, 1u64..20), 0..=max_nnz).prop_map(move |trips| {
            let mut coo = Coo::new(m, k);
            for (i, j, v) in trips {
                coo.push(i, j, Nat(v));
            }
            coo.into_csr(&pt())
        });
        let b = prop::collection::vec((0..k, 0..n, 1u64..20), 0..=max_nnz).prop_map(move |trips| {
            let mut coo = Coo::new(k, n);
            for (i, j, v) in trips {
                coo.push(i, j, Nat(v));
            }
            coo.into_csr(&pt())
        });
        (a, b)
    })
}

proptest! {
    #[test]
    fn transpose_is_an_involution(a in arb_csr(12, 40)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_preserves_nnz_and_swaps_degrees(a in arb_csr(12, 40)) {
        let t = a.transpose();
        prop_assert_eq!(t.nnz(), a.nnz());
        prop_assert_eq!(row_degrees(&t), col_degrees(&a));
        prop_assert_eq!(col_degrees(&t), row_degrees(&a));
    }

    #[test]
    fn spgemm_matches_dense_reference((a, b) in arb_pair(8, 24)) {
        let pair = pt();
        let sparse = spgemm(&a, &b, &pair);
        let dense = Dense::from_csr(&a, pair.zero())
            .matmul(&Dense::from_csr(&b, pair.zero()), &pair)
            .to_csr(&pair);
        prop_assert_eq!(sparse, dense);
    }

    #[test]
    fn spgemm_max_min_matches_dense_reference((a, b) in arb_pair(8, 24)) {
        // Same pattern inputs reinterpreted under max.min. Stored
        // values stay valid (no u64::MAX values generated, and zero for
        // max.min is 0, same as +.×).
        let pair: MM = OpPair::new();
        let sparse = spgemm(&a, &b, &pair);
        let dense = Dense::from_csr(&a, pair.zero())
            .matmul(&Dense::from_csr(&b, pair.zero()), &pair)
            .to_csr(&pair);
        prop_assert_eq!(sparse, dense);
    }

    #[test]
    fn spgemm_nonassociative_plus_matches_dense_left_fold((a, b) in arb_pair(8, 24)) {
        // ⊕ = |−| is not associative, so this pins the fold order: the
        // dense reference folds every k left to right, and on ℕ the
        // skipped k are no-ops (0 is |−|'s identity and annihilates ×).
        let pair: OpPair<Nat, AbsDiff, Times> = OpPair::new();
        let sparse = spgemm(&a, &b, &pair);
        let dense = Dense::from_csr(&a, pair.zero())
            .matmul(&Dense::from_csr(&b, pair.zero()), &pair)
            .to_csr(&pair);
        prop_assert_eq!(sparse, dense);
    }

    #[test]
    fn parallel_agrees_even_for_nonassociative_plus((a, b) in arb_pair(10, 40)) {
        // ⊕ = |−| makes fold order observable.
        let pair: OpPair<Nat, AbsDiff, Times> = OpPair::new();
        let serial = spgemm(&a, &b, &pair);
        prop_assert_eq!(spgemm_parallel(&a, &b, &pair), serial);
    }

    #[test]
    fn ewise_add_is_commutative_for_commutative_plus((a, b) in arb_same_dims(10, 30)) {
        let pair = pt();
        prop_assert_eq!(ewise_add(&a, &b, &pair), ewise_add(&b, &a, &pair));
    }

    #[test]
    fn ewise_add_with_empty_is_identity(a in arb_csr(10, 30)) {
        let pair = pt();
        let empty = Csr::<Nat>::empty(a.nrows(), a.ncols());
        prop_assert_eq!(ewise_add(&a, &empty, &pair), a.clone());
        prop_assert_eq!(ewise_mul(&a, &empty, &pair).nnz(), 0);
    }

    #[test]
    fn spmv_matches_single_column_spgemm((a, _) in arb_pair(8, 24), seed in 0u64..50) {
        let pair = pt();
        // Build x as both a dense vector and a k×1 matrix.
        let k = a.ncols();
        let mut x: Vec<Option<Nat>> = vec![None; k];
        let mut coo = Coo::new(k, 1);
        let mut s = seed.wrapping_add(7);
        for (i, xi) in x.iter_mut().enumerate() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if s % 3 == 0 {
                let v = Nat(s % 10 + 1);
                *xi = Some(v);
                coo.push(i, 0, v);
            }
        }
        let xm = coo.into_csr(&pair);
        let y = spmv(&a, &x, &pair);
        let ym = spgemm(&a, &xm, &pair);
        for (r, yv) in y.iter().enumerate() {
            prop_assert_eq!(yv.as_ref(), ym.get(r, 0));
        }
    }

    #[test]
    fn dcsr_roundtrip_and_spgemm(( a, b) in arb_pair(10, 40)) {
        use aarray_sparse::dcsr::{spgemm_dcsr, Dcsr};
        let d = Dcsr::from_csr(&a);
        prop_assert_eq!(d.to_csr(), a.clone());
        prop_assert!(d.populated_rows() <= a.nrows());
        let pair = pt();
        prop_assert_eq!(spgemm_dcsr(&d, &b, &pair).to_csr(), spgemm(&a, &b, &pair));
    }

    #[test]
    fn symbolic_pattern_superset_of_numeric(( a, b) in arb_pair(10, 40)) {
        use aarray_sparse::symbolic::spgemm_symbolic;
        use aarray_sparse::EdgeGather;
        let at = a.transpose();
        let sym = spgemm_symbolic(&EdgeGather::new(&at, &b, None, true), true);
        let c = spgemm(&a, &b, &pt());
        // For +.× on positive Nats nothing cancels: patterns agree.
        prop_assert_eq!(sym.nnz(), c.nnz());
    }

    #[test]
    fn select_all_columns_is_identity(a in arb_csr(10, 30)) {
        let all: Vec<usize> = (0..a.ncols()).collect();
        prop_assert_eq!(a.select_cols(&all), a.clone());
        let rows: Vec<usize> = (0..a.nrows()).collect();
        prop_assert_eq!(a.select_rows(&rows), a);
    }
}
