//! Sparse array × vector products — the workhorse of the semiring
//! graph algorithms layered on constructed adjacency arrays (BFS,
//! min-plus SSSP).

use crate::csr::Csr;
use aarray_algebra::{BinaryOp, OpPair, Value};

/// `y = A ⊕.⊗ x` where `x` is dense (`Option<V>` cells, `None` = zero).
/// Folds each row in ascending column order, left-associated.
pub fn spmv<V, A, M>(a: &Csr<V>, x: &[Option<V>], pair: &OpPair<V, A, M>) -> Vec<Option<V>>
where
    V: Value,
    A: BinaryOp<V>,
    M: BinaryOp<V>,
{
    assert_eq!(a.ncols(), x.len(), "vector length must equal ncols");
    (0..a.nrows())
        .map(|r| {
            let (cols, vals) = a.row(r);
            let mut acc: Option<V> = None;
            for (&c, v) in cols.iter().zip(vals.iter()) {
                if let Some(xv) = &x[c as usize] {
                    let term = pair.times(v, xv);
                    acc = Some(match acc {
                        None => term,
                        Some(prev) => pair.plus(&prev, &term),
                    });
                }
            }
            acc.filter(|v| !pair.is_zero(v))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use aarray_algebra::ops::{Min, Plus, Times};
    use aarray_algebra::values::nat::Nat;
    use aarray_algebra::values::nn::{nn, NN};

    fn pt() -> OpPair<Nat, Plus, Times> {
        OpPair::new()
    }

    fn matrix() -> Csr<Nat> {
        // [1 2 0]
        // [0 0 3]
        let mut coo = Coo::new(2, 3);
        coo.push(0, 0, Nat(1));
        coo.push(0, 1, Nat(2));
        coo.push(1, 2, Nat(3));
        coo.into_csr(&pt())
    }

    #[test]
    fn dense_spmv() {
        let a = matrix();
        let x = vec![Some(Nat(10)), Some(Nat(20)), None];
        let y = spmv(&a, &x, &pt());
        assert_eq!(y, vec![Some(Nat(50)), None]);
    }

    #[test]
    fn min_plus_relaxation_step() {
        // One SSSP relaxation: dist' = Aᵀ min.+ dist.
        let pair: OpPair<NN, Min, Plus> = OpPair::new();
        let mut coo = Coo::new(2, 2);
        coo.push(0, 1, nn(4.0)); // edge 0→1 weight 4
        coo.push(1, 0, nn(1.0)); // edge 1→0 weight 1
        let a = coo.into_csr(&pair);
        let dist = vec![Some(nn(0.0)), None];
        let next = spmv(&a.transpose(), &dist, &pair);
        assert_eq!(next, vec![None, Some(nn(4.0))]);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn spmv_length_mismatch() {
        let a = matrix();
        let _ = spmv(&a, &[None], &pt());
    }
}
