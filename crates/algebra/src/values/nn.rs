//! `NN` — the extended non-negative reals `[0, +∞]`.
//!
//! This is the value set behind six of the paper's seven operator pairs
//! (`+.×`, `max.×`, `min.×`, `min.+`, `max.min`, `min.max`); only
//! `max.+` needs `-∞` and lives on [`crate::values::tropical::Tropical`].
//!
//! Invariants enforced by construction: the wrapped `f64` is never `NaN`
//! and never negative, so `PartialEq` is a genuine equivalence and a
//! total order exists ([`Ord`] is implemented).
//!
//! ## Fidelity note
//!
//! `NN` models ℝ≥0 up to IEEE-754: denormal underflow can multiply two
//! tiny nonzero values to exactly `0.0`, which is a zero-divisor pair
//! the idealized ℝ≥0 does not have. The compile-time compliance markers
//! encode the *idealized* semantics the paper uses; the randomized
//! property checker can surface the underflow witness when fed
//! subnormal samples (see `properties::tests`). Graph data at realistic
//! magnitudes never hits it.

use super::RandomValue;
use crate::op::{AssociativeOp, BinaryOp, CommutativeOp};
use crate::ops::{AbsDiff, Max, Min, Plus, Times, TimesTop};
use rand::Rng;
use std::cmp::Ordering;
use std::fmt;

/// A non-negative extended real: `0 ≤ x ≤ +∞`, never `NaN`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NN(f64);

/// Shorthand constructor; panics on negative or `NaN` input.
///
/// ```
/// use aarray_algebra::values::nn::nn;
/// assert_eq!(nn(2.0) , nn(1.0) + nn(1.0));
/// ```
pub fn nn(x: f64) -> NN {
    NN::new(x).expect("nn() requires a non-negative, non-NaN value")
}

impl NN {
    /// Zero.
    pub const ZERO: NN = NN(0.0);
    /// One.
    pub const ONE: NN = NN(1.0);
    /// The top element `+∞` (the zero of `min`-pairs).
    pub const INF: NN = NN(f64::INFINITY);

    /// Checked constructor: `None` for negatives and `NaN`. `-0.0`
    /// becomes `+0.0`, so equal values are equal bit for bit and
    /// `max`/`min` cannot pick a zero's sign by argument order.
    pub fn new(x: f64) -> Option<NN> {
        if x >= 0.0 {
            // `-0.0 + 0.0` is `+0.0`; every other value is unchanged.
            Some(NN(x + 0.0))
        } else {
            None
        }
    }

    /// The wrapped float.
    pub fn get(self) -> f64 {
        self.0
    }

    /// True for `+∞`.
    pub fn is_infinite(self) -> bool {
        self.0.is_infinite()
    }
}

// NaN excluded by construction, so equality is total.
impl Eq for NN {}

impl PartialOrd for NN {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NN {
    fn cmp(&self, other: &Self) -> Ordering {
        // Safe: no NaN in the domain.
        self.0.partial_cmp(&other.0).expect("NN is NaN-free")
    }
}

impl fmt::Display for NN {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_infinite() {
            write!(f, "∞")
        } else if self.0.fract() == 0.0 && self.0.abs() < 1e15 {
            write!(f, "{}", self.0 as i64)
        } else {
            write!(f, "{}", self.0)
        }
    }
}

impl std::ops::Add for NN {
    type Output = NN;
    fn add(self, rhs: NN) -> NN {
        NN(self.0 + rhs.0)
    }
}

impl From<u32> for NN {
    fn from(v: u32) -> Self {
        NN(v as f64)
    }
}

impl BinaryOp<NN> for Plus {
    const NAME: &'static str = "+";
    fn apply(&self, a: &NN, b: &NN) -> NN {
        // Both operands ≥ 0, so no ∞ + -∞ and no NaN.
        NN(a.0 + b.0)
    }
    fn identity(&self) -> NN {
        NN::ZERO
    }
}

impl BinaryOp<NN> for Times {
    const NAME: &'static str = "×";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &NN, b: &NN) -> NN {
        // Bottom absorbs: 0 × ∞ = 0 here, keeping 0 an annihilator as
        // Theorem II.1(c) requires for the pairs whose zero is 0.
        if a.0 == 0.0 || b.0 == 0.0 {
            NN::ZERO
        } else {
            NN(a.0 * b.0)
        }
    }
    fn identity(&self) -> NN {
        NN::ONE
    }
}

impl BinaryOp<NN> for TimesTop {
    const NAME: &'static str = "×";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &NN, b: &NN) -> NN {
        // Top absorbs: x × ∞ = ∞ (including x = 0), keeping ∞ an
        // annihilator for the min-pairs whose zero is ∞.
        if a.is_infinite() || b.is_infinite() {
            NN::INF
        } else if a.0 == 0.0 || b.0 == 0.0 {
            NN::ZERO
        } else {
            NN(a.0 * b.0)
        }
    }
    fn identity(&self) -> NN {
        NN::ONE
    }
}

impl BinaryOp<NN> for Max {
    const NAME: &'static str = "max";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &NN, b: &NN) -> NN {
        // `Ord::max` (ties give `b`) written as one float compare. This
        // form always compiles to a branch-free `max`; through
        // `Ord::max` that depended on how this crate was inlined.
        if a.0 > b.0 {
            *a
        } else {
            *b
        }
    }
    fn identity(&self) -> NN {
        NN::ZERO
    }
}

impl BinaryOp<NN> for Min {
    const NAME: &'static str = "min";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &NN, b: &NN) -> NN {
        // `Ord::min` (ties give `a`) as one float compare, as for `Max`.
        if b.0 < a.0 {
            *b
        } else {
            *a
        }
    }
    fn identity(&self) -> NN {
        NN::INF
    }
}

impl BinaryOp<NN> for AbsDiff {
    const NAME: &'static str = "|−|";
    fn apply(&self, a: &NN, b: &NN) -> NN {
        if a.is_infinite() && b.is_infinite() {
            NN::ZERO // |∞ − ∞| := 0 keeps the op closed and NaN-free.
        } else {
            NN((a.0 - b.0).abs())
        }
    }
    fn identity(&self) -> NN {
        NN::ZERO
    }
}

impl AssociativeOp<NN> for Max {}
impl AssociativeOp<NN> for Min {}
impl AssociativeOp<NN> for Times {}
impl AssociativeOp<NN> for TimesTop {}
// f64 `+` is not exactly associative (rounding); Max/Min/the absorbing
// products are. `Plus` is deliberately left unmarked so tree-parallel
// reductions cannot silently reorder float sums.
impl CommutativeOp<NN> for Plus {}
impl CommutativeOp<NN> for Times {}
impl CommutativeOp<NN> for TimesTop {}
impl CommutativeOp<NN> for Max {}
impl CommutativeOp<NN> for Min {}
impl CommutativeOp<NN> for AbsDiff {}

impl RandomValue for NN {
    fn random(rng: &mut dyn rand::RngCore) -> Self {
        match rng.gen_range(0..12u8) {
            0..=2 => NN::ZERO,
            3 => NN::INF,
            4..=7 => NN(rng.gen_range(1..10) as f64),
            8..=9 => NN(rng.gen::<f64>() * 1e3),
            // No subnormals here: the default sampler models realistic
            // graph weights. The documented underflow zero-divisor is
            // demonstrated by an explicit-sample test instead.
            _ => NN(rng.gen::<f64>()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_rejects_invalid() {
        assert!(NN::new(-1.0).is_none());
        assert!(NN::new(f64::NAN).is_none());
        assert!(NN::new(0.0).is_some());
        assert!(NN::new(f64::INFINITY).is_some());
    }

    #[test]
    fn negative_zero_folds_into_positive_zero() {
        let neg = NN::new(-0.0).unwrap();
        assert_eq!(neg.get().to_bits(), 0);
        assert_eq!(Max.apply(&NN::ZERO, &neg).get().to_bits(), 0);
        assert_eq!(Max.apply(&neg, &NN::ZERO).get().to_bits(), 0);
    }

    #[test]
    #[should_panic]
    fn nn_helper_panics_on_negative() {
        let _ = nn(-0.5);
    }

    #[test]
    fn times_zero_absorbs_even_infinity() {
        let t = Times;
        assert_eq!(t.apply(&NN::ZERO, &NN::INF), NN::ZERO);
        assert_eq!(t.apply(&NN::INF, &NN::ZERO), NN::ZERO);
        assert_eq!(t.apply(&nn(2.0), &nn(3.0)), nn(6.0));
    }

    #[test]
    fn times_top_infinity_absorbs_even_zero() {
        let t = TimesTop;
        assert_eq!(t.apply(&NN::ZERO, &NN::INF), NN::INF);
        assert_eq!(t.apply(&NN::INF, &NN::ZERO), NN::INF);
        assert_eq!(t.apply(&nn(2.0), &nn(3.0)), nn(6.0));
        assert_eq!(t.apply(&nn(2.0), &NN::ZERO), NN::ZERO);
    }

    #[test]
    fn min_identity_is_infinity() {
        let m = Min;
        assert_eq!(m.apply(&BinaryOp::<NN>::identity(&m), &nn(7.0)), nn(7.0));
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![NN::INF, nn(1.0), NN::ZERO, nn(3.5)];
        v.sort();
        assert_eq!(v, vec![NN::ZERO, nn(1.0), nn(3.5), NN::INF]);
    }

    #[test]
    fn display_formats_like_the_paper() {
        assert_eq!(nn(13.0).to_string(), "13");
        assert_eq!(nn(2.5).to_string(), "2.5");
        assert_eq!(NN::INF.to_string(), "∞");
    }

    #[test]
    fn abs_diff_closed_at_infinity() {
        let d = AbsDiff;
        assert_eq!(d.apply(&NN::INF, &NN::INF), NN::ZERO);
        assert_eq!(d.apply(&NN::INF, &nn(3.0)), NN::INF);
    }
}
