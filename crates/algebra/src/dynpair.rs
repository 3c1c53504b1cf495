//! Object-safe `⊕.⊗` pairs, for kernels that execute **several**
//! algebras in one traversal.
//!
//! [`crate::OpPair`] is a zero-sized, fully monomorphized type: ideal
//! for a kernel specialized to one algebra, but unusable for a *fused*
//! kernel that needs a runtime collection of heterogeneous pairs (each
//! `OpPair<V, A, M>` is a distinct type). [`DynOpPair`] is the
//! object-safe face of the same contract — the fused multi-semiring
//! SpGEMM in `aarray-sparse` holds `&[&dyn DynOpPair<V>]` and feeds
//! every accumulator during a single pass over the operands.
//!
//! The semiring is a parameter of the whole multiply, not of each
//! element operation: the fused kernel gathers a block of terms and
//! hands it to each lane's [`DynOpPair::fold_terms`], whose body is the
//! pair's monomorphized `⊕`/`⊗` loop. Dynamic dispatch is therefore
//! paid once per lane per block, not once per `⊕`/`⊗` application. As
//! everywhere in this workspace, **no law beyond closure and identity
//! is assumed** — callers must fold left-associated over ascending
//! inner keys so that results stay bit-identical to the monomorphized
//! kernels for arbitrary non-associative, non-commutative operations.

use crate::op::{BinaryOp, OpPair};
use crate::value::Value;

/// Object-safe view of an `⊕.⊗` operator pair over `V`.
///
/// Blanket-implemented for every [`OpPair`], so any statically-typed
/// pair can be borrowed as `&dyn DynOpPair<V>`:
///
/// ```
/// use aarray_algebra::dynpair::DynOpPair;
/// use aarray_algebra::pairs::{MaxTimes, PlusTimes};
/// use aarray_algebra::values::nat::Nat;
///
/// let plus_times = PlusTimes::<Nat>::new();
/// let max_times = MaxTimes::<Nat>::new();
/// let pairs: [&dyn DynOpPair<Nat>; 2] = [&plus_times, &max_times];
/// assert_eq!(pairs[0].name(), "+.×");
/// assert_eq!(pairs[1].plus(&Nat(2), &Nat(3)), Nat(3));
/// ```
pub trait DynOpPair<V: Value>: Send + Sync {
    /// `a ⊕ b`.
    fn plus(&self, a: &V, b: &V) -> V;

    /// `a ⊗ b`.
    fn times(&self, a: &V, b: &V) -> V;

    /// The identity of `⊕` — the paper's `0`, the implicit value of
    /// unstored entries.
    fn zero(&self) -> V;

    /// The identity of `⊗` — the paper's `1`.
    fn one(&self) -> V;

    /// Whether `v` is the pair's zero. Kernels must prune entries for
    /// which this holds, preserving the implicit-zero invariant.
    fn is_zero(&self, v: &V) -> bool;

    /// The pair's display name in `⊕.⊗` notation, e.g. `"max.min"`.
    fn name(&self) -> String;

    /// Fold a block of terms into an accumulator lane, in block order:
    /// for each `(slot, a, b)`, `acc[slot]` becomes `acc[slot] ⊕ (a ⊗ b)`,
    /// or `a ⊗ b` when the slot is still empty. Exactly the per-term
    /// [`DynOpPair::times`]/[`DynOpPair::plus`] fold, with one dynamic
    /// call for the whole block. Panics if a slot is out of range.
    fn fold_terms(&self, acc: &mut [Option<V>], terms: &[(usize, &V, &V)]);

    /// Whether the pair's `⊕` is verified associative on `V`.
    ///
    /// `false` by default through [`crate::op::BinaryOp::ASSOCIATIVE`];
    /// the incremental adjacency layer uses this to decide per lane
    /// whether blocked `A ⊕= ΔEᵀ·ΔE` accumulation is exact or must
    /// fall back to a full rebuild.
    fn plus_associative(&self) -> bool;

    /// Whether the pair's `⊕` is verified commutative bit for bit on
    /// `V`.
    ///
    /// `false` by default through [`crate::op::BinaryOp::COMMUTATIVE`];
    /// the incremental adjacency layer replays a batch that interleaves
    /// with older edge keys only on lanes whose `⊕` is associative and
    /// commutative, and rebuilds the rest.
    fn plus_commutative(&self) -> bool;
}

impl<V: Value, A: BinaryOp<V>, M: BinaryOp<V>> DynOpPair<V> for OpPair<V, A, M> {
    fn plus(&self, a: &V, b: &V) -> V {
        OpPair::plus(self, a, b)
    }

    fn times(&self, a: &V, b: &V) -> V {
        OpPair::times(self, a, b)
    }

    fn zero(&self) -> V {
        OpPair::zero(self)
    }

    fn one(&self) -> V {
        OpPair::one(self)
    }

    fn is_zero(&self, v: &V) -> bool {
        OpPair::is_zero(self, v)
    }

    fn name(&self) -> String {
        OpPair::name(self)
    }

    fn fold_terms(&self, acc: &mut [Option<V>], terms: &[(usize, &V, &V)]) {
        for &(slot, a, b) in terms {
            let term = OpPair::times(self, a, b);
            let cell = &mut acc[slot];
            match cell {
                Some(prev) => *prev = OpPair::plus(self, prev, &term),
                None => *cell = Some(term),
            }
        }
    }

    fn plus_associative(&self) -> bool {
        A::ASSOCIATIVE
    }

    fn plus_commutative(&self) -> bool {
        A::COMMUTATIVE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{AbsDiff, Times};
    use crate::pairs::{MaxMin, MaxPlus, PlusTimes};
    use crate::values::nat::Nat;
    use crate::values::tropical::Tropical;

    #[test]
    fn dyn_pair_agrees_with_static_pair() {
        let stat = PlusTimes::<Nat>::new();
        let dyn_pair: &dyn DynOpPair<Nat> = &stat;
        for a in [0u64, 1, 2, 7] {
            for b in [0u64, 1, 3, 9] {
                let (a, b) = (Nat(a), Nat(b));
                assert_eq!(dyn_pair.plus(&a, &b), stat.plus(&a, &b));
                assert_eq!(dyn_pair.times(&a, &b), stat.times(&a, &b));
                assert_eq!(dyn_pair.is_zero(&a), stat.is_zero(&a));
            }
        }
        assert_eq!(dyn_pair.zero(), stat.zero());
        assert_eq!(dyn_pair.one(), stat.one());
        assert_eq!(dyn_pair.name(), stat.name());

        // One block fold equals the per-term ⊗-then-⊕ fold, in order,
        // with repeated slots, a pre-filled slot and an empty block —
        // also for |−|, whose ⊕ is order-sensitive.
        let abs_diff: OpPair<Nat, AbsDiff, Times> = OpPair::new();
        let vals: Vec<Nat> = [3u64, 8, 1, 5, 2, 9, 4].map(Nat).to_vec();
        let slots = [2usize, 0, 2, 1, 2, 0, 2];
        let terms: Vec<(usize, &Nat, &Nat)> = slots
            .iter()
            .enumerate()
            .map(|(t, &slot)| (slot, &vals[t], &vals[(t * 3 + 1) % vals.len()]))
            .collect();
        for pair in [dyn_pair, &abs_diff as &dyn DynOpPair<Nat>] {
            let start = vec![None, Some(Nat(6)), None, None];
            let mut expected = start.clone();
            for &(slot, a, b) in &terms {
                let term = pair.times(a, b);
                expected[slot] = Some(match expected[slot].take() {
                    None => term,
                    Some(prev) => pair.plus(&prev, &term),
                });
            }
            let mut folded = start.clone();
            pair.fold_terms(&mut folded, &terms);
            assert_eq!(folded, expected, "{}", pair.name());
            pair.fold_terms(&mut folded, &[]);
            assert_eq!(folded, expected, "empty block is a no-op");
        }
    }

    #[test]
    fn heterogeneous_pairs_share_one_slice() {
        let max_min = MaxMin::<Nat>::new();
        let plus_times = PlusTimes::<Nat>::new();
        let pairs: Vec<&dyn DynOpPair<Nat>> = vec![&max_min, &plus_times];
        assert_eq!(pairs[0].name(), "max.min");
        assert_eq!(pairs[1].name(), "+.×");
        // Same operands, different algebras, one slice.
        let (a, b) = (Nat(4), Nat(6));
        assert_eq!(pairs[0].times(&a, &b), Nat(4));
        assert_eq!(pairs[1].times(&a, &b), Nat(24));
    }

    #[test]
    fn plus_associative_is_per_carrier() {
        use crate::ops::{Concat, Max};
        use crate::values::bstr::BStr;
        use crate::values::nn::NN;
        let pt_nat = PlusTimes::<Nat>::new();
        let pt_nn = PlusTimes::<NN>::new();
        let mm = MaxMin::<NN>::new();
        let mp = MaxPlus::<Tropical>::new();
        // Saturating Nat addition is associative; float addition is not;
        // max is associative on every carrier it is implemented for.
        assert!((&pt_nat as &dyn DynOpPair<Nat>).plus_associative());
        assert!(!(&pt_nn as &dyn DynOpPair<NN>).plus_associative());
        assert!((&mm as &dyn DynOpPair<NN>).plus_associative());
        assert!((&mp as &dyn DynOpPair<Tropical>).plus_associative());
        // Commutative bit for bit: Nat addition, NN max (NN has no
        // -0.0); tropical max is not, since its domain has -0.0 and a
        // tie returns the right operand.
        assert!((&pt_nat as &dyn DynOpPair<Nat>).plus_commutative());
        assert!((&mm as &dyn DynOpPair<NN>).plus_commutative());
        assert!(!(&mp as &dyn DynOpPair<Tropical>).plus_commutative());
        // Associative but never commutative: string concatenation.
        let concat: OpPair<BStr, Concat, Max> = OpPair::new();
        let concat: &dyn DynOpPair<BStr> = &concat;
        assert!(concat.plus_associative() && !concat.plus_commutative());
    }

    #[test]
    fn tropical_zero_is_negative_infinity() {
        let mp = MaxPlus::<Tropical>::new();
        let dyn_pair: &dyn DynOpPair<Tropical> = &mp;
        assert!(dyn_pair.is_zero(&Tropical::NEG_INF));
        assert!(!dyn_pair.is_zero(&Tropical::new(0.0).unwrap()));
    }
}
