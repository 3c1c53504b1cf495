//! `Zn<N>` — the ring ℤ/N of integers modulo `N`.
//!
//! The paper's ring non-example: "rings, which except for the zero ring
//! are not zero-sum-free". For N ≥ 2, `1 ⊕ (N−1) = 0` violates
//! condition (a); for composite `N` there are additionally zero
//! divisors (`2 ⊗ 3 = 0` in ℤ/6) violating condition (b). Both
//! witnesses are found *exhaustively* by the property checker.

use super::RandomValue;
use crate::finite::FiniteValueSet;
use crate::op::{AssociativeOp, BinaryOp, CommutativeOp};
use crate::ops::{Plus, Times};
use rand::Rng;
use std::fmt;

/// A residue modulo `N`. `N ≥ 1` required.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Zn<const N: u64>(u64);

impl<const N: u64> Zn<N> {
    /// Construct, reducing modulo `N`.
    pub fn new(v: u64) -> Self {
        Zn(v % N)
    }

    /// The residue in `[0, N)`.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl<const N: u64> fmt::Display for Zn<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl<const N: u64> BinaryOp<Zn<N>> for Plus {
    const NAME: &'static str = "+";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &Zn<N>, b: &Zn<N>) -> Zn<N> {
        Zn((a.0 + b.0) % N)
    }
    fn identity(&self) -> Zn<N> {
        Zn(0)
    }
}

impl<const N: u64> BinaryOp<Zn<N>> for Times {
    const NAME: &'static str = "×";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &Zn<N>, b: &Zn<N>) -> Zn<N> {
        Zn((a.0 * b.0) % N)
    }
    fn identity(&self) -> Zn<N> {
        Zn(1 % N)
    }
}

impl<const N: u64> AssociativeOp<Zn<N>> for Plus {}
impl<const N: u64> AssociativeOp<Zn<N>> for Times {}
impl<const N: u64> CommutativeOp<Zn<N>> for Plus {}
impl<const N: u64> CommutativeOp<Zn<N>> for Times {}

impl<const N: u64> FiniteValueSet for Zn<N> {
    fn enumerate_all() -> Vec<Self> {
        (0..N).map(Zn).collect()
    }
}

impl<const N: u64> RandomValue for Zn<N> {
    fn random(rng: &mut dyn rand::RngCore) -> Self {
        Zn(rng.gen_range(0..N))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_arithmetic() {
        let a = Zn::<6>::new(4);
        let b = Zn::<6>::new(5);
        assert_eq!(Plus.apply(&a, &b).get(), 3);
        assert_eq!(Times.apply(&a, &b).get(), 2);
    }

    #[test]
    fn additive_inverse_exists_the_fatal_property() {
        // 2 + 4 ≡ 0 (mod 6): nonzero values summing to zero.
        let two = Zn::<6>::new(2);
        let four = Zn::<6>::new(4);
        assert_eq!(Plus.apply(&two, &four), Zn::<6>::new(0));
    }

    #[test]
    fn zero_divisors_in_composite_moduli() {
        let two = Zn::<6>::new(2);
        let three = Zn::<6>::new(3);
        assert_eq!(Times.apply(&two, &three), Zn::<6>::new(0));
    }

    #[test]
    fn enumeration() {
        assert_eq!(Zn::<5>::cardinality(), 5);
    }
}
