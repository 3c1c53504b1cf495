//! ℕ as saturating `u64` — the most common value set for counting
//! graphs (Figure 1 stores `1` for existence; `+.×` sums edge
//! multiplicities).
//!
//! Saturation keeps the set closed (the paper requires closure, and
//! `u64` overflow would otherwise wrap through the zero element, which
//! would be catastrophic for the nonzero-pattern guarantee). It has one
//! consequence worth knowing: `u64::MAX` acts as the top element `⊤`,
//! so pairs whose **zero** is `⊤` (`min.+`, `min.×`) are *not*
//! compliant over `Nat` — two huge finite values can saturate to `⊤`,
//! which is a zero-divisor-style violation. The runtime checker finds
//! that witness; use [`crate::values::nn::NN`] (with a genuine `+∞`)
//! for those pairs. `Nat`'s compliant pairs are `+.×`, `max.×`,
//! `max.min`, `min.max`, and `gcd.lcm`.

use super::RandomValue;
use crate::op::{AssociativeOp, BinaryOp, CommutativeOp};
use crate::ops::{AbsDiff, Gcd, Lcm, Max, Min, Plus, Times, TimesTop};
use rand::Rng;
use std::fmt;

/// A natural number with saturating arithmetic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Nat(pub u64);

impl Nat {
    /// The top element `⊤ = u64::MAX`, which `min`-pairs use as zero.
    pub const TOP: Nat = Nat(u64::MAX);
}

impl fmt::Display for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Nat::TOP {
            write!(f, "⊤")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

impl From<u64> for Nat {
    fn from(v: u64) -> Self {
        Nat(v)
    }
}

fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl BinaryOp<Nat> for Plus {
    const NAME: &'static str = "+";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &Nat, b: &Nat) -> Nat {
        Nat(a.0.saturating_add(b.0))
    }
    fn identity(&self) -> Nat {
        Nat(0)
    }
}

impl BinaryOp<Nat> for Times {
    const NAME: &'static str = "×";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &Nat, b: &Nat) -> Nat {
        Nat(a.0.saturating_mul(b.0))
    }
    fn identity(&self) -> Nat {
        Nat(1)
    }
}

impl BinaryOp<Nat> for TimesTop {
    const NAME: &'static str = "×";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &Nat, b: &Nat) -> Nat {
        // ⊤ absorbs first (it plays the role of +∞ for min-pairs),
        // then ordinary saturating multiplication.
        if *a == Nat::TOP || *b == Nat::TOP {
            Nat::TOP
        } else {
            Nat(a.0.saturating_mul(b.0))
        }
    }
    fn identity(&self) -> Nat {
        Nat(1)
    }
}

impl BinaryOp<Nat> for Max {
    const NAME: &'static str = "max";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &Nat, b: &Nat) -> Nat {
        *a.max(b)
    }
    fn identity(&self) -> Nat {
        Nat(0)
    }
}

impl BinaryOp<Nat> for Min {
    const NAME: &'static str = "min";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &Nat, b: &Nat) -> Nat {
        *a.min(b)
    }
    fn identity(&self) -> Nat {
        Nat::TOP
    }
}

impl BinaryOp<Nat> for AbsDiff {
    const NAME: &'static str = "|−|";
    fn apply(&self, a: &Nat, b: &Nat) -> Nat {
        Nat(a.0.abs_diff(b.0))
    }
    fn identity(&self) -> Nat {
        Nat(0)
    }
}

impl BinaryOp<Nat> for Gcd {
    const NAME: &'static str = "gcd";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &Nat, b: &Nat) -> Nat {
        Nat(gcd_u64(a.0, b.0))
    }
    fn identity(&self) -> Nat {
        Nat(0)
    }
}

impl BinaryOp<Nat> for Lcm {
    const NAME: &'static str = "lcm";
    fn apply(&self, a: &Nat, b: &Nat) -> Nat {
        if a.0 == 0 || b.0 == 0 {
            Nat(0)
        } else {
            let g = gcd_u64(a.0, b.0);
            Nat((a.0 / g).saturating_mul(b.0))
        }
    }
    fn identity(&self) -> Nat {
        Nat(1)
    }
}

impl AssociativeOp<Nat> for Max {}
impl AssociativeOp<Nat> for Min {}
impl AssociativeOp<Nat> for Gcd {}
// Saturating unsigned `+`/`×` equal `min(exact result, u64::MAX)` under
// every association (saturation is monotone and absorbing upward), so
// both are genuinely associative — unlike their float counterparts.
impl AssociativeOp<Nat> for Plus {}
impl AssociativeOp<Nat> for Times {}
impl AssociativeOp<Nat> for TimesTop {}
impl CommutativeOp<Nat> for Plus {}
impl CommutativeOp<Nat> for Times {}
impl CommutativeOp<Nat> for TimesTop {}
impl CommutativeOp<Nat> for Max {}
impl CommutativeOp<Nat> for Min {}
impl CommutativeOp<Nat> for AbsDiff {}
impl CommutativeOp<Nat> for Gcd {}
impl CommutativeOp<Nat> for Lcm {}
// `lcm` stays unmarked: its internal `a/g × b` saturation makes a
// boundary-associativity proof delicate, and no kernel needs it.
impl CommutativeOp<Nat> for crate::ops::Xor {}

impl BinaryOp<Nat> for crate::ops::Xor {
    const NAME: &'static str = "⊻";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &Nat, b: &Nat) -> Nat {
        Nat(a.0 ^ b.0)
    }
    fn identity(&self) -> Nat {
        Nat(0)
    }
}
impl AssociativeOp<Nat> for crate::ops::Xor {}

impl RandomValue for Nat {
    fn random(rng: &mut dyn rand::RngCore) -> Self {
        // Bias toward the boundary: zeros, tiny values, and near-⊤.
        match rng.gen_range(0..10u8) {
            0..=1 => Nat(0),
            2..=5 => Nat(rng.gen_range(1..8)),
            6..=7 => Nat(rng.gen_range(1..1_000_000)),
            8 => Nat(u64::MAX - rng.gen_range(0..4u64)),
            _ => Nat(rng.gen()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plus_saturates_instead_of_wrapping() {
        let p = Plus;
        assert_eq!(p.apply(&Nat::TOP, &Nat(5)), Nat::TOP);
        // Wrapping (MAX + 1 = 0) would silently erase an edge by landing
        // on the zero element; saturation stays at ⊤.
        assert_eq!(p.apply(&Nat(u64::MAX - 1), &Nat(2)), Nat::TOP);
        assert_eq!(p.apply(&Nat::TOP, &Nat::TOP), Nat::TOP);
    }

    #[test]
    fn identities() {
        assert_eq!(BinaryOp::<Nat>::identity(&Plus), Nat(0));
        assert_eq!(BinaryOp::<Nat>::identity(&Times), Nat(1));
        assert_eq!(BinaryOp::<Nat>::identity(&Max), Nat(0));
        assert_eq!(BinaryOp::<Nat>::identity(&Min), Nat::TOP);
        assert_eq!(BinaryOp::<Nat>::identity(&Gcd), Nat(0));
        assert_eq!(BinaryOp::<Nat>::identity(&Lcm), Nat(1));
    }

    #[test]
    fn times_top_absorbs_top() {
        let t = TimesTop;
        assert_eq!(t.apply(&Nat::TOP, &Nat(0)), Nat::TOP);
        assert_eq!(t.apply(&Nat(0), &Nat::TOP), Nat::TOP);
        assert_eq!(t.apply(&Nat(3), &Nat(4)), Nat(12));
    }

    #[test]
    fn gcd_lcm_basics() {
        let g = Gcd;
        let l = Lcm;
        assert_eq!(g.apply(&Nat(12), &Nat(18)), Nat(6));
        assert_eq!(g.apply(&Nat(7), &Nat(0)), Nat(7));
        assert_eq!(l.apply(&Nat(4), &Nat(6)), Nat(12));
        assert_eq!(l.apply(&Nat(4), &Nat(0)), Nat(0));
        assert_eq!(l.apply(&Nat(0), &Nat(0)), Nat(0));
    }

    #[test]
    fn abs_diff_is_not_associative_witness() {
        let d = AbsDiff;
        let lhs = d.apply(&d.apply(&Nat(1), &Nat(2)), &Nat(3));
        let rhs = d.apply(&Nat(1), &d.apply(&Nat(2), &Nat(3)));
        assert_ne!(lhs, rhs);
    }

    #[test]
    fn display_renders_top_symbolically() {
        assert_eq!(Nat(42).to_string(), "42");
        assert_eq!(Nat::TOP.to_string(), "⊤");
    }
}
