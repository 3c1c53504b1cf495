//! `Chain<N>` — the finite total order `{0, 1, …, N−1}`.
//!
//! The paper: "any linearly ordered set with ⊕ and ⊗ given by max and
//! min" complies with the criteria. `Chain` is the canonical finite
//! witness, and being finite it is *exhaustively* checkable — the
//! compliance tests enumerate all of `V × V`.

use super::RandomValue;
use crate::finite::FiniteValueSet;
use crate::op::{AssociativeOp, BinaryOp, CommutativeOp};
use crate::ops::{Max, Min};
use rand::Rng;
use std::fmt;

/// An element of the chain `0 < 1 < … < N−1`. `N ≥ 1` required.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Chain<const N: u32>(u32);

impl<const N: u32> Chain<N> {
    /// The bottom element `0`.
    pub const BOTTOM: Chain<N> = Chain(0);

    /// Construct, clamping into range — `None` if `v ≥ N`.
    pub fn new(v: u32) -> Option<Self> {
        if v < N {
            Some(Chain(v))
        } else {
            None
        }
    }

    /// The top element `N − 1`.
    pub fn top() -> Self {
        Chain(N - 1)
    }

    /// The wrapped rank.
    pub fn get(self) -> u32 {
        self.0
    }
}

impl<const N: u32> fmt::Display for Chain<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl<const N: u32> BinaryOp<Chain<N>> for Max {
    const NAME: &'static str = "max";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &Chain<N>, b: &Chain<N>) -> Chain<N> {
        *a.max(b)
    }
    fn identity(&self) -> Chain<N> {
        Chain::BOTTOM
    }
}

impl<const N: u32> BinaryOp<Chain<N>> for Min {
    const NAME: &'static str = "min";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &Chain<N>, b: &Chain<N>) -> Chain<N> {
        *a.min(b)
    }
    fn identity(&self) -> Chain<N> {
        Chain::top()
    }
}

impl<const N: u32> AssociativeOp<Chain<N>> for Max {}
impl<const N: u32> AssociativeOp<Chain<N>> for Min {}
impl<const N: u32> CommutativeOp<Chain<N>> for Max {}
impl<const N: u32> CommutativeOp<Chain<N>> for Min {}

impl<const N: u32> FiniteValueSet for Chain<N> {
    fn enumerate_all() -> Vec<Self> {
        (0..N).map(Chain).collect()
    }
}

impl<const N: u32> RandomValue for Chain<N> {
    fn random(rng: &mut dyn rand::RngCore) -> Self {
        Chain(rng.gen_range(0..N))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_bounds() {
        assert_eq!(Chain::<5>::new(4), Some(Chain(4)));
        assert_eq!(Chain::<5>::new(5), None);
        assert_eq!(Chain::<5>::top().get(), 4);
    }

    #[test]
    fn lattice_ops() {
        let a = Chain::<8>::new(3).unwrap();
        let b = Chain::<8>::new(6).unwrap();
        assert_eq!(Max.apply(&a, &b).get(), 6);
        assert_eq!(Min.apply(&a, &b).get(), 3);
    }

    #[test]
    fn enumeration_is_complete_and_ordered() {
        let all = Chain::<4>::enumerate_all();
        assert_eq!(all.len(), 4);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(Chain::<4>::cardinality(), 4);
    }
}
