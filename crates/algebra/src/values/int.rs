//! ℤ as `i64` — the signed-ring non-example.
//!
//! `+.×` over ℤ fails zero-sum-freeness spectacularly: `v ⊕ (−v) = 0`,
//! which is exactly the Lemma II.2 counterexample (two parallel edges
//! whose weights cancel, erasing the edge from `EᵀoutEin`). The
//! `semiring_gallery` example and the theorem tests construct that
//! gadget with these values.

use super::RandomValue;
use crate::op::{AssociativeOp, BinaryOp, CommutativeOp};
use crate::ops::{Max, Min, Plus, Times};
use rand::Rng;

impl BinaryOp<i64> for Plus {
    const NAME: &'static str = "+";
    fn apply(&self, a: &i64, b: &i64) -> i64 {
        a.saturating_add(*b)
    }
    fn identity(&self) -> i64 {
        0
    }
}

impl BinaryOp<i64> for Times {
    const NAME: &'static str = "×";
    fn apply(&self, a: &i64, b: &i64) -> i64 {
        a.saturating_mul(*b)
    }
    fn identity(&self) -> i64 {
        1
    }
}

impl BinaryOp<i64> for Max {
    const NAME: &'static str = "max";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &i64, b: &i64) -> i64 {
        *a.max(b)
    }
    fn identity(&self) -> i64 {
        i64::MIN
    }
}

impl BinaryOp<i64> for Min {
    const NAME: &'static str = "min";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &i64, b: &i64) -> i64 {
        *a.min(b)
    }
    fn identity(&self) -> i64 {
        i64::MAX
    }
}

impl AssociativeOp<i64> for Max {}
impl AssociativeOp<i64> for Min {}
impl CommutativeOp<i64> for Plus {}
impl CommutativeOp<i64> for Times {}
impl CommutativeOp<i64> for Max {}
impl CommutativeOp<i64> for Min {}

impl RandomValue for i64 {
    fn random(rng: &mut dyn rand::RngCore) -> Self {
        match rng.gen_range(0..8u8) {
            0..=1 => 0,
            2..=5 => rng.gen_range(-8..8),
            _ => rng.gen_range(-1_000_000..1_000_000),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn additive_inverses_exist() {
        assert_eq!(Plus.apply(&5i64, &-5i64), 0);
    }

    #[test]
    fn max_min_lattice_on_integers() {
        assert_eq!(Max.apply(&-3i64, &7i64), 7);
        assert_eq!(Min.apply(&-3i64, &7i64), -3);
    }
}
