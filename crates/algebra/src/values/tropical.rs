//! `Tropical` — ℝ ∪ {−∞}, the carrier of the paper's `max.+` pair.
//!
//! The zero element of `max.+` is `-∞` (the identity of `max` over the
//! whole real line): Figure 3's footnote lists the per-pair zeros as
//! "0, -∞, or ∞". IEEE arithmetic already gives `x + (-∞) = -∞`, so the
//! annihilation law holds natively; `+∞` is excluded from the domain so
//! `∞ + (-∞) = NaN` can never occur.

use super::RandomValue;
use crate::op::{AssociativeOp, BinaryOp, CommutativeOp};
use crate::ops::{Max, Min, Plus};
use rand::Rng;
use std::cmp::Ordering;
use std::fmt;

/// An element of ℝ ∪ {−∞} (never `NaN`, never `+∞`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tropical(f64);

/// Shorthand constructor; panics on `NaN` or `+∞`.
pub fn trop(x: f64) -> Tropical {
    Tropical::new(x).expect("trop() requires a finite or -∞ value")
}

impl Tropical {
    /// The bottom element `-∞` — the zero of `max.+`.
    pub const NEG_INF: Tropical = Tropical(f64::NEG_INFINITY);
    /// The `one` of `max.+` (identity of `+`).
    pub const ZERO: Tropical = Tropical(0.0);

    /// Checked constructor: rejects `NaN` and `+∞`.
    pub fn new(x: f64) -> Option<Tropical> {
        if x.is_nan() || x == f64::INFINITY {
            None
        } else {
            Some(Tropical(x))
        }
    }

    /// The wrapped float.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Default for Tropical {
    fn default() -> Self {
        Tropical::NEG_INF
    }
}

impl Eq for Tropical {}

impl PartialOrd for Tropical {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tropical {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("Tropical is NaN-free")
    }
}

impl fmt::Display for Tropical {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == f64::NEG_INFINITY {
            write!(f, "-∞")
        } else if self.0.fract() == 0.0 && self.0.abs() < 1e15 {
            write!(f, "{}", self.0 as i64)
        } else {
            write!(f, "{}", self.0)
        }
    }
}

impl BinaryOp<Tropical> for Max {
    const NAME: &'static str = "max";
    const ASSOCIATIVE: bool = true;
    fn apply(&self, a: &Tropical, b: &Tropical) -> Tropical {
        // `Ord::max` (ties give `b`) as one float compare, as NN's `Max`:
        // it compiles to a branch-free `max` with no NaN-panic path.
        if a.0 > b.0 {
            *a
        } else {
            *b
        }
    }
    fn identity(&self) -> Tropical {
        Tropical::NEG_INF
    }
}

impl BinaryOp<Tropical> for Plus {
    const NAME: &'static str = "+";
    fn apply(&self, a: &Tropical, b: &Tropical) -> Tropical {
        // finite + finite, or anything + -∞ = -∞; +∞ excluded, no NaN.
        Tropical(a.0 + b.0)
    }
    fn identity(&self) -> Tropical {
        Tropical::ZERO
    }
}

impl BinaryOp<Tropical> for Min {
    const NAME: &'static str = "min";
    fn apply(&self, a: &Tropical, b: &Tropical) -> Tropical {
        // `Ord::min` (ties give `a`) as one float compare.
        if b.0 < a.0 {
            *b
        } else {
            *a
        }
    }
    // `min` over ℝ∪{-∞} has no identity inside the domain; we expose it
    // only for completeness of experiments that stay on finite data.
    // Using `min`-pairs on Tropical is a deliberate *non-example*: the
    // runtime checker reports the missing-identity/annihilator failures.
    fn identity(&self) -> Tropical {
        Tropical(f64::MAX)
    }
}

impl AssociativeOp<Tropical> for Max {}
// Commutative up to `==`, but `COMMUTATIVE` stays false: the domain
// admits `-0.0` and a tie returns `b`, so `max(-0.0, +0.0)` and
// `max(+0.0, -0.0)` differ in their sign bit.
impl CommutativeOp<Tropical> for Max {}
impl CommutativeOp<Tropical> for Plus {}

impl RandomValue for Tropical {
    fn random(rng: &mut dyn rand::RngCore) -> Self {
        match rng.gen_range(0..10u8) {
            0..=2 => Tropical::NEG_INF,
            3..=4 => Tropical::ZERO,
            5..=7 => Tropical(rng.gen_range(-8..8) as f64),
            _ => Tropical(rng.gen::<f64>() * 100.0 - 50.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neg_inf_annihilates_plus() {
        let p = Plus;
        assert_eq!(p.apply(&trop(5.0), &Tropical::NEG_INF), Tropical::NEG_INF);
        assert_eq!(p.apply(&Tropical::NEG_INF, &trop(-3.0)), Tropical::NEG_INF);
    }

    #[test]
    fn max_identity_is_neg_inf() {
        let m = Max;
        assert_eq!(m.apply(&Tropical::NEG_INF, &trop(-7.0)), trop(-7.0));
    }

    #[test]
    fn max_and_min_keep_ord_tie_rule_bit_for_bit() {
        // Ties give `b` for max and `a` for min, as `Ord` does. The
        // signed zeros tie in value, not in bits, so they show which
        // operand came back; `-∞` ties with itself.
        let neg_zero = Tropical::new(-0.0).unwrap();
        let vals = [Tropical::ZERO, neg_zero, Tropical::NEG_INF, trop(2.0)];
        for (a, b) in vals.iter().flat_map(|a| vals.iter().map(move |b| (a, b))) {
            assert_eq!(Max.apply(a, b).0.to_bits(), a.max(b).0.to_bits());
            assert_eq!(Min.apply(a, b).0.to_bits(), a.min(b).0.to_bits());
        }
        assert_eq!(
            Max.apply(&Tropical::ZERO, &neg_zero).0.to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(Min.apply(&Tropical::ZERO, &neg_zero).0.to_bits(), 0);
    }

    #[test]
    fn rejects_nan_and_pos_inf() {
        assert!(Tropical::new(f64::NAN).is_none());
        assert!(Tropical::new(f64::INFINITY).is_none());
        assert!(Tropical::new(f64::NEG_INFINITY).is_some());
    }

    #[test]
    fn display() {
        assert_eq!(Tropical::NEG_INF.to_string(), "-∞");
        assert_eq!(trop(4.0).to_string(), "4");
        assert_eq!(trop(-2.0).to_string(), "-2");
    }
}
