//! `Unit` — the interval `[0, 1]`: probabilities and fuzzy truth
//! values.
//!
//! Two compliant pairs live here beyond the usual lattice ones:
//!
//! * `max.×` — the *Viterbi* pair: most-probable-path weight;
//! * `probor.×` — the *noisy-or* pair (`a ⊕ b = a + b − ab`):
//!   probability that at least one of two independent connections
//!   fires.
//!
//! Both satisfy Theorem II.1 on `[0, 1]`: sums/maxes of values in
//! `[0, 1]` vanish only when both operands do, products only when a
//! factor does, and `0` absorbs multiplication.

use super::RandomValue;
use crate::op::{AssociativeOp, BinaryOp, CommutativeOp};
use crate::ops::{Max, Min, ProbOr, Times};
use rand::Rng;
use std::cmp::Ordering;
use std::fmt;

/// A value in `[0, 1]`, never `NaN`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Unit(f64);

/// Shorthand constructor; panics outside `[0, 1]` or on `NaN`.
pub fn unit(x: f64) -> Unit {
    Unit::new(x).expect("unit() requires a value in [0, 1]")
}

impl Unit {
    /// Zero probability / false.
    pub const ZERO: Unit = Unit(0.0);
    /// Certainty / true.
    pub const ONE: Unit = Unit(1.0);

    /// Checked constructor.
    pub fn new(x: f64) -> Option<Unit> {
        if x.is_nan() || !(0.0..=1.0).contains(&x) {
            None
        } else {
            Some(Unit(x))
        }
    }

    /// The wrapped probability.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for Unit {}

impl PartialOrd for Unit {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Unit {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("Unit is NaN-free")
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Probabilities render to 4 decimals (trailing zeros trimmed) —
        // grid output stays readable; equality always uses exact bits.
        let s = format!("{:.4}", self.0);
        let s = s.trim_end_matches('0').trim_end_matches('.');
        write!(f, "{}", if s.is_empty() { "0" } else { s })
    }
}

impl BinaryOp<Unit> for Max {
    const NAME: &'static str = "max";
    const ASSOCIATIVE: bool = true;
    fn apply(&self, a: &Unit, b: &Unit) -> Unit {
        // `Ord::max` (ties give `b`) as one float compare, as NN's `Max`:
        // it compiles to a branch-free `max` with no NaN-panic path.
        if a.0 > b.0 {
            *a
        } else {
            *b
        }
    }
    fn identity(&self) -> Unit {
        Unit::ZERO
    }
}

impl BinaryOp<Unit> for Min {
    const NAME: &'static str = "min";
    const ASSOCIATIVE: bool = true;
    fn apply(&self, a: &Unit, b: &Unit) -> Unit {
        // `Ord::min` (ties give `a`) as one float compare.
        if b.0 < a.0 {
            *b
        } else {
            *a
        }
    }
    fn identity(&self) -> Unit {
        Unit::ONE
    }
}

impl BinaryOp<Unit> for Times {
    const NAME: &'static str = "×";
    fn apply(&self, a: &Unit, b: &Unit) -> Unit {
        Unit(a.0 * b.0)
    }
    fn identity(&self) -> Unit {
        Unit::ONE
    }
}

impl BinaryOp<Unit> for ProbOr {
    const NAME: &'static str = "⊕ₚ";
    fn apply(&self, a: &Unit, b: &Unit) -> Unit {
        // a + b − ab ∈ [0, 1] for a, b ∈ [0, 1]; clamp guards rounding.
        Unit((a.0 + b.0 - a.0 * b.0).clamp(0.0, 1.0))
    }
    fn identity(&self) -> Unit {
        Unit::ZERO
    }
}

impl AssociativeOp<Unit> for Max {}
impl AssociativeOp<Unit> for Min {}
// Max and Min are commutative up to `==` only: `Unit::new` accepts
// `-0.0` and a tie returns one operand, so their `COMMUTATIVE` stays
// false (see `Tropical`'s `Max`).
impl CommutativeOp<Unit> for Max {}
impl CommutativeOp<Unit> for Min {}
impl CommutativeOp<Unit> for Times {}
impl CommutativeOp<Unit> for ProbOr {}
// Times and ProbOr are left unmarked associative: floating-point
// rounding breaks exact reassociation.

impl RandomValue for Unit {
    fn random(rng: &mut dyn rand::RngCore) -> Self {
        match rng.gen_range(0..10u8) {
            0..=2 => Unit::ZERO,
            3 => Unit::ONE,
            _ => Unit(rng.gen::<f64>()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_bounds() {
        assert!(Unit::new(-0.1).is_none());
        assert!(Unit::new(1.1).is_none());
        assert!(Unit::new(f64::NAN).is_none());
        assert_eq!(unit(0.5).get(), 0.5);
    }

    #[test]
    fn probor_is_noisy_or() {
        let p = ProbOr;
        assert_eq!(p.apply(&unit(0.5), &unit(0.5)), unit(0.75));
        assert_eq!(p.apply(&unit(0.0), &unit(0.3)), unit(0.3));
        assert_eq!(p.apply(&unit(1.0), &unit(0.3)), unit(1.0));
    }

    #[test]
    fn viterbi_ops() {
        assert_eq!(Max.apply(&unit(0.2), &unit(0.9)), unit(0.9));
        assert_eq!(Times.apply(&unit(0.5), &unit(0.5)), unit(0.25));
        assert_eq!(BinaryOp::<Unit>::identity(&Times), Unit::ONE);
    }

    #[test]
    fn max_and_min_keep_ord_tie_rule_bit_for_bit() {
        // Ties give `b` for max and `a` for min, as `Ord` does.
        // `Unit::new` accepts `-0.0`, which ties with `0.0` in other bits.
        let neg_zero = Unit::new(-0.0).unwrap();
        let vals = [Unit::ZERO, neg_zero, Unit::ONE, unit(0.25)];
        for (a, b) in vals.iter().flat_map(|a| vals.iter().map(move |b| (a, b))) {
            assert_eq!(Max.apply(a, b).0.to_bits(), a.max(b).0.to_bits());
            assert_eq!(Min.apply(a, b).0.to_bits(), a.min(b).0.to_bits());
        }
        assert_eq!(
            Max.apply(&Unit::ZERO, &neg_zero).0.to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(Min.apply(&Unit::ZERO, &neg_zero).0.to_bits(), 0);
    }

    #[test]
    fn min_identity_is_one() {
        assert_eq!(Min.apply(&Unit::ONE, &unit(0.4)), unit(0.4));
    }
}
