//! The two-element Boolean semiring `{false, true}` with `∨.∧` —
//! compliant (it is a zero-sum-free semiring with no zero divisors) —
//! plus `⊻` as the minimal non-zero-sum-free `⊕`.
//!
//! Note the contrast the paper draws: the Boolean *semiring* `{0, 1}`
//! is fine, but *non-trivial* Boolean algebras (power sets,
//! [`crate::values::powerset::PowerSet`]) have zero divisors and fail
//! condition (b).

use super::RandomValue;
use crate::op::{AssociativeOp, BinaryOp, CommutativeOp};
use crate::ops::{And, Or, Xor};
use rand::Rng;

impl BinaryOp<bool> for Or {
    const NAME: &'static str = "∨";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &bool, b: &bool) -> bool {
        *a || *b
    }
    fn identity(&self) -> bool {
        false
    }
}

impl BinaryOp<bool> for And {
    const NAME: &'static str = "∧";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &bool, b: &bool) -> bool {
        *a && *b
    }
    fn identity(&self) -> bool {
        true
    }
}

impl BinaryOp<bool> for Xor {
    const NAME: &'static str = "⊻";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &bool, b: &bool) -> bool {
        *a ^ *b
    }
    fn identity(&self) -> bool {
        false
    }
}

impl AssociativeOp<bool> for Or {}
impl AssociativeOp<bool> for And {}
impl AssociativeOp<bool> for Xor {}
impl CommutativeOp<bool> for Or {}
impl CommutativeOp<bool> for And {}
impl CommutativeOp<bool> for Xor {}

impl RandomValue for bool {
    fn random(rng: &mut dyn rand::RngCore) -> Self {
        rng.gen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn or_and_identities() {
        assert!(!BinaryOp::<bool>::identity(&Or));
        assert!(BinaryOp::<bool>::identity(&And));
    }

    #[test]
    fn xor_kills_zero_sum_freeness() {
        // true ⊻ true = false = 0 with both operands nonzero: the
        // smallest possible Lemma II.2 witness.
        assert!(!Xor.apply(&true, &true));
    }
}
