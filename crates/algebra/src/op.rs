//! Binary operations with identities, operator pairs, and the
//! compile-time encoding of Theorem II.1's conditions.

use crate::value::Value;
use std::fmt;
use std::marker::PhantomData;

/// A closed binary operation on a value set `V` with a two-sided
/// identity element.
///
/// Implementations are zero-sized strategy types (e.g. [`crate::ops::Plus`],
/// [`crate::ops::Max`]), so a fully monomorphized kernel pays nothing for
/// the abstraction.
///
/// Per the paper, **no law beyond closure and the identity is assumed**:
/// an operation need not be associative or commutative. Kernels in
/// `aarray-sparse` therefore always fold in a documented, deterministic
/// order (ascending inner key, left-associated).
pub trait BinaryOp<V: Value>: Copy + Default + fmt::Debug + Send + Sync + 'static {
    /// Human-readable operator symbol, used to render pair names such as
    /// `max.min` or `+.×` exactly as the paper's figures do.
    const NAME: &'static str;

    /// Whether the operation is associative **on this value set**.
    ///
    /// Defaults to `false`: associativity is an opt-in capability that an
    /// implementation asserts only when verified by the law machinery
    /// (each `true` override carries a matching [`AssociativeOp`] marker,
    /// and the pairing is pinned by tests against
    /// [`crate::laws::check_associative`]). The same operator
    /// symbol can differ per carrier — `Plus` is associative on `Nat`
    /// but **not** on IEEE-754 `NN` — which is why this is a per-impl
    /// constant rather than a property of the strategy type.
    ///
    /// Consumed at runtime through [`crate::dynpair::DynOpPair::plus_associative`]
    /// to gate incremental (blocked) accumulation, which re-associates
    /// the `⊕` fold and is only exact when `⊕` is associative.
    const ASSOCIATIVE: bool = false;

    /// Whether `a ∘ b` and `b ∘ a` are equal **bit for bit** on this
    /// value set.
    ///
    /// Defaults to `false`, and like [`BinaryOp::ASSOCIATIVE`] it is
    /// asserted only where verified: each `true` override carries a
    /// matching [`CommutativeOp`] marker and is pinned by a bitwise law
    /// test. Bitwise is stricter than the marker's `==`: the float
    /// `Max`/`Min` of `Tropical` and `Unit` are commutative up to `==`
    /// but not in their bits, because their domains admit `-0.0` and a
    /// tie returns one operand, so `max(-0.0, +0.0)` and
    /// `max(+0.0, -0.0)` differ in sign. They stay `false`.
    ///
    /// Consumed at runtime through
    /// [`crate::dynpair::DynOpPair::plus_commutative`]: an incremental
    /// refresh may fold a batch whose edge keys interleave with older
    /// ones only into lanes whose `⊕` is associative *and* commutative.
    /// Nothing reads it on a non-associative op, so it is set only
    /// where [`BinaryOp::ASSOCIATIVE`] is too.
    const COMMUTATIVE: bool = false;

    /// Apply the operation: `a ∘ b`.
    fn apply(&self, a: &V, b: &V) -> V;

    /// The two-sided identity element of the operation.
    fn identity(&self) -> V;

    /// Whether `v` equals the identity. Override if a cheaper test than
    /// construction + comparison exists.
    fn is_identity(&self, v: &V) -> bool {
        *v == self.identity()
    }
}

/// Marker: the operation is associative on this value set.
///
/// Required by tree/parallel *reductions* (not by the row-parallel
/// SpGEMM, whose per-element fold order is identical to the serial
/// kernel). Every implementation is validated by an exhaustive or
/// randomized law check in its module's tests.
pub trait AssociativeOp<V: Value>: BinaryOp<V> {}

/// Marker: the operation is commutative on this value set.
pub trait CommutativeOp<V: Value>: BinaryOp<V> {}

/// Capability marker: the pair's `⊕` is associative on its value set.
///
/// This is the static gate for *incremental* adjacency maintenance:
/// folding `A ⊕= ΔEᵀ·ΔE` batch-by-batch re-associates the `⊕`
/// reduction relative to a from-scratch rebuild, so the result is only
/// guaranteed bit-identical when `⊕` is associative (Theorem II.1
/// deliberately assumes no such law). Blanket-implemented for every
/// [`OpPair`] whose `⊕` carries the [`AssociativeOp`] marker; pairs
/// without it must take the full-rebuild path.
pub trait AssociativePlus {}

impl<V: Value, A: AssociativeOp<V>, M: BinaryOp<V>> AssociativePlus for OpPair<V, A, M> {}

/// An `⊕.⊗` operator pair over a value set `V` — the object the paper's
/// array multiplication `C = A ⊕.⊗ B` is parameterized by.
///
/// `zero` denotes the identity of `⊕` (the paper's `0`, i.e. the value
/// that sparse arrays leave unstored), and `one` the identity of `⊗`.
///
/// The pair makes **no** semiring assumptions. Whether it satisfies the
/// three conditions of Theorem II.1 is encoded separately, either at
/// compile time ([`AdjacencyCompatible`]) or at runtime
/// ([`crate::properties`]).
pub struct OpPair<V: Value, A: BinaryOp<V>, M: BinaryOp<V>> {
    /// The `⊕` (addition-like) operation.
    pub add: A,
    /// The `⊗` (multiplication-like) operation.
    pub mul: M,
    _v: PhantomData<fn() -> V>,
}

impl<V: Value, A: BinaryOp<V>, M: BinaryOp<V>> OpPair<V, A, M> {
    /// Construct the pair (both ops are zero-sized, so this is free).
    pub fn new() -> Self {
        OpPair {
            add: A::default(),
            mul: M::default(),
            _v: PhantomData,
        }
    }

    /// The paper's `0`: identity of `⊕`, the implicit value of unstored
    /// entries.
    pub fn zero(&self) -> V {
        self.add.identity()
    }

    /// The paper's `1`: identity of `⊗`.
    pub fn one(&self) -> V {
        self.mul.identity()
    }

    /// `a ⊕ b`.
    pub fn plus(&self, a: &V, b: &V) -> V {
        self.add.apply(a, b)
    }

    /// `a ⊗ b`.
    pub fn times(&self, a: &V, b: &V) -> V {
        self.mul.apply(a, b)
    }

    /// Whether `v` is the pair's zero element.
    pub fn is_zero(&self, v: &V) -> bool {
        self.add.is_identity(v)
    }

    /// The pair's display name in the paper's `⊕.⊗` notation, e.g.
    /// `"+.×"` or `"max.min"`.
    pub fn name(&self) -> String {
        format!("{}.{}", A::NAME, M::NAME)
    }

    /// Whether this pair's `⊕` is verified associative on `V` — the
    /// runtime face of the [`AssociativePlus`] capability.
    pub fn plus_associative(&self) -> bool {
        A::ASSOCIATIVE
    }
}

impl<V: Value, A: BinaryOp<V>, M: BinaryOp<V>> Default for OpPair<V, A, M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Value, A: BinaryOp<V>, M: BinaryOp<V>> Clone for OpPair<V, A, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<V: Value, A: BinaryOp<V>, M: BinaryOp<V>> Copy for OpPair<V, A, M> {}

impl<V: Value, A: BinaryOp<V>, M: BinaryOp<V>> fmt::Debug for OpPair<V, A, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OpPair({})", self.name())
    }
}

/// Condition (a) of Theorem II.1: `a ⊕ b = 0  ⇔  a = b = 0`
/// (the value set is **zero-sum-free** under this pair's `⊕`).
///
/// Implemented for concrete `OpPair` instantiations only after the
/// property has been verified (exhaustively for finite value sets,
/// by proof + randomized check otherwise). See `crate::pairs`.
pub trait ZeroSumFreePair {}

/// Condition (b) of Theorem II.1: `a ⊗ b = 0  ⇔  a = 0 ∨ b = 0`
/// (no zero divisors, and the product of zeros is zero).
pub trait NoZeroDivisorsPair {}

/// Condition (c) of Theorem II.1: `a ⊗ 0 = 0 ⊗ a = 0`
/// (the pair's zero annihilates under `⊗`).
pub trait AnnihilatingZeroPair {}

/// The conjunction of Theorem II.1's three conditions.
///
/// `aarray_core::adjacency_array` requires this bound, so the compiler
/// itself enforces the theorem's sufficiency direction: you can only ask
/// for `Eᵀout ⊕.⊗ Ein` *as an adjacency array* with a pair whose
/// nonzero structure is guaranteed to equal the graph's edge pattern.
///
/// Blanket-implemented for anything carrying all three marker traits.
pub trait AdjacencyCompatible: ZeroSumFreePair + NoZeroDivisorsPair + AnnihilatingZeroPair {}

impl<T: ZeroSumFreePair + NoZeroDivisorsPair + AnnihilatingZeroPair> AdjacencyCompatible for T {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Max, Min, Plus, Times};
    use crate::values::nat::Nat;

    #[test]
    fn pair_name_matches_paper_notation() {
        let p: OpPair<Nat, Plus, Times> = OpPair::new();
        assert_eq!(p.name(), "+.×");
        let q: OpPair<Nat, Max, Min> = OpPair::new();
        assert_eq!(q.name(), "max.min");
    }

    #[test]
    fn zero_and_one_come_from_the_right_ops() {
        let p: OpPair<Nat, Plus, Times> = OpPair::new();
        assert_eq!(p.zero(), Nat(0));
        assert_eq!(p.one(), Nat(1));
        assert!(p.is_zero(&Nat(0)));
        assert!(!p.is_zero(&Nat(3)));
    }

    #[test]
    fn pair_is_copy_and_debug() {
        let p: OpPair<Nat, Max, Min> = OpPair::new();
        let q = p;
        assert_eq!(format!("{:?}", q), "OpPair(max.min)");
        // `p` still usable: Copy.
        assert_eq!(p.name(), "max.min");
    }

    #[test]
    fn plus_times_apply() {
        let p: OpPair<Nat, Plus, Times> = OpPair::new();
        assert_eq!(p.plus(&Nat(2), &Nat(3)), Nat(5));
        assert_eq!(p.times(&Nat(2), &Nat(3)), Nat(6));
    }

    #[test]
    fn associative_const_tracks_the_marker_and_the_carrier() {
        use crate::values::nn::NN;
        // Same strategy type, different carrier: `Plus` is associative
        // on saturating `Nat` but not on IEEE-754 `NN`.
        const {
            assert!(<Plus as BinaryOp<Nat>>::ASSOCIATIVE);
            assert!(!<Plus as BinaryOp<NN>>::ASSOCIATIVE);
            assert!(<Max as BinaryOp<NN>>::ASSOCIATIVE);
        }
        let p: OpPair<Nat, Plus, Times> = OpPair::new();
        assert!(p.plus_associative());
        let q: OpPair<NN, Plus, Times> = OpPair::new();
        assert!(!q.plus_associative());
    }

    #[test]
    fn associative_plus_marker_is_implemented_for_associative_pairs() {
        fn takes_assoc<P: AssociativePlus>(_: &P) {}
        takes_assoc(&OpPair::<Nat, Plus, Times>::new());
        takes_assoc(&OpPair::<Nat, Max, Min>::new());
        // OpPair<NN, Plus, Times> must NOT compile here — pinned by the
        // ASSOCIATIVE consts above and the law machinery (float Plus has
        // an associativity witness in the nn module tests).
    }

    #[test]
    fn associative_const_agrees_with_the_law_checker() {
        use crate::laws::check_associative;
        use crate::values::nn::NN;
        let nats: Vec<Nat> = [0u64, 1, 2, 3, 7, 1 << 40, u64::MAX - 1, u64::MAX]
            .into_iter()
            .map(Nat)
            .collect();
        assert!(check_associative(&Plus, &nats).is_none());
        assert!(check_associative(&Max, &nats).is_none());
        // The negative direction: NN's `Plus` opts out because the law
        // genuinely fails under rounding.
        let nns: Vec<NN> = [0.1f64, 0.2, 0.3, 1e16, 1.0, 3.0]
            .into_iter()
            .map(|x| NN::new(x).unwrap())
            .collect();
        assert!(check_associative(&Plus, &nns).is_some());
    }
}
