//! `PowerSet<N>` — subsets of a finite universe `{0, …, N−1}` as a
//! bitmask: the "non-trivial Boolean algebra" non-example.
//!
//! With `⊕ = ∪` and `⊗ = ∩`, any two disjoint non-empty subsets are
//! zero divisors (`{0} ∩ {1} = ∅`), violating condition (b) for every
//! `N ≥ 2`. Conditions (a) and (c) *do* hold — making this a precise
//! probe that the checker separates the three axioms.

use super::RandomValue;
use crate::finite::FiniteValueSet;
use crate::op::{AssociativeOp, BinaryOp, CommutativeOp};
use crate::ops::{Intersect, SymDiff, Union};
use rand::Rng;
use std::fmt;

/// A subset of `{0, …, N−1}`, `N ≤ 16`, stored as a bitmask.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PowerSet<const N: u8>(u16);

impl<const N: u8> PowerSet<N> {
    /// The empty set.
    pub const EMPTY: PowerSet<N> = PowerSet(0);

    /// Construct from a bitmask (masked into the universe).
    pub fn from_bits(bits: u16) -> Self {
        PowerSet(bits & Self::universe_bits())
    }

    /// Construct from element indices (indices ≥ N are ignored).
    pub fn from_elems(elems: &[u8]) -> Self {
        let mut bits = 0u16;
        for &e in elems {
            if e < N {
                bits |= 1 << e;
            }
        }
        PowerSet(bits)
    }

    /// The full universe.
    pub fn universe() -> Self {
        PowerSet(Self::universe_bits())
    }

    fn universe_bits() -> u16 {
        if N >= 16 {
            u16::MAX
        } else {
            (1u16 << N) - 1
        }
    }

    /// The bitmask.
    pub fn bits(self) -> u16 {
        self.0
    }

    /// Number of elements.
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// Is this the empty set?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Membership test.
    pub fn contains(self, e: u8) -> bool {
        e < N && (self.0 >> e) & 1 == 1
    }
}

impl<const N: u8> fmt::Display for PowerSet<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for e in 0..N {
            if self.contains(e) {
                if !first {
                    write!(f, ",")?;
                }
                write!(f, "{}", e)?;
                first = false;
            }
        }
        write!(f, "}}")
    }
}

impl<const N: u8> BinaryOp<PowerSet<N>> for Union {
    const NAME: &'static str = "∪";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &PowerSet<N>, b: &PowerSet<N>) -> PowerSet<N> {
        PowerSet(a.0 | b.0)
    }
    fn identity(&self) -> PowerSet<N> {
        PowerSet::EMPTY
    }
}

impl<const N: u8> BinaryOp<PowerSet<N>> for Intersect {
    const NAME: &'static str = "∩";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &PowerSet<N>, b: &PowerSet<N>) -> PowerSet<N> {
        PowerSet(a.0 & b.0)
    }
    fn identity(&self) -> PowerSet<N> {
        PowerSet::universe()
    }
}

impl<const N: u8> BinaryOp<PowerSet<N>> for SymDiff {
    const NAME: &'static str = "Δ";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &PowerSet<N>, b: &PowerSet<N>) -> PowerSet<N> {
        PowerSet(a.0 ^ b.0)
    }
    fn identity(&self) -> PowerSet<N> {
        PowerSet::EMPTY
    }
}

impl<const N: u8> AssociativeOp<PowerSet<N>> for Union {}
impl<const N: u8> AssociativeOp<PowerSet<N>> for Intersect {}
impl<const N: u8> AssociativeOp<PowerSet<N>> for SymDiff {}
impl<const N: u8> CommutativeOp<PowerSet<N>> for Union {}
impl<const N: u8> CommutativeOp<PowerSet<N>> for Intersect {}
impl<const N: u8> CommutativeOp<PowerSet<N>> for SymDiff {}

impl<const N: u8> FiniteValueSet for PowerSet<N> {
    fn enumerate_all() -> Vec<Self> {
        let card = 1usize << N.min(15);
        (0..card as u16).map(PowerSet).collect()
    }
}

impl<const N: u8> RandomValue for PowerSet<N> {
    fn random(rng: &mut dyn rand::RngCore) -> Self {
        PowerSet::from_bits(rng.gen())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type P = PowerSet<4>;

    #[test]
    fn set_construction_and_display() {
        let s = P::from_elems(&[0, 2]);
        assert_eq!(s.to_string(), "{0,2}");
        assert!(s.contains(0));
        assert!(!s.contains(1));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn union_intersect() {
        let a = P::from_elems(&[0, 1]);
        let b = P::from_elems(&[1, 2]);
        assert_eq!(Union.apply(&a, &b), P::from_elems(&[0, 1, 2]));
        assert_eq!(Intersect.apply(&a, &b), P::from_elems(&[1]));
    }

    #[test]
    fn disjoint_nonempty_sets_are_zero_divisors() {
        let a = P::from_elems(&[0]);
        let b = P::from_elems(&[1]);
        assert!(!a.is_empty() && !b.is_empty());
        assert_eq!(Intersect.apply(&a, &b), P::EMPTY);
    }

    #[test]
    fn intersect_identity_is_universe() {
        let a = P::from_elems(&[1, 3]);
        assert_eq!(Intersect.apply(&a, &P::universe()), a);
    }

    #[test]
    fn enumeration_cardinality() {
        assert_eq!(P::cardinality(), 16);
        assert_eq!(PowerSet::<2>::cardinality(), 4);
    }

    #[test]
    fn out_of_universe_bits_masked() {
        let s = PowerSet::<2>::from_bits(0b1111);
        assert_eq!(s.bits(), 0b11);
    }
}
