//! `BStr` — alphanumeric strings completed with a bottom `⊥` and top
//! `⊤`, ordered lexicographically.
//!
//! The paper's introduction asks about exactly this value set: "for the
//! value of all alphanumeric strings, with ⊕ = max(), ⊗ = min(), it is
//! not immediately apparent whether EᵀoutEin is an adjacency array".
//! The answer (via Theorem II.1) is **yes**: a chain under max/min is
//! zero-sum-free, has no zero divisors, and its bottom annihilates
//! under `min`. The bottom `⊥` plays `0` and the top `⊤` plays `1`
//! (the identity of `min` must sit above every string, hence the
//! explicit top completion).

use super::RandomValue;
use crate::op::{AssociativeOp, BinaryOp, CommutativeOp};
use crate::ops::{Concat, Max, Min};
use rand::Rng;
use std::fmt;

/// A string value completed with `⊥` (the zero of `max.min`) and `⊤`
/// (the one). Ordering: `⊥ < any word < ⊤`, words lexicographic.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BStr {
    /// The bottom element — the pair's zero ("no value").
    #[default]
    Bot,
    /// An ordinary string.
    Word(String),
    /// The top element — identity of `min`.
    Top,
}

impl BStr {
    /// Convenience constructor for a word.
    pub fn word(s: impl Into<String>) -> Self {
        BStr::Word(s.into())
    }

    /// The inner string, if this is a word.
    pub fn as_word(&self) -> Option<&str> {
        match self {
            BStr::Word(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for BStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BStr::Bot => write!(f, "⊥"),
            BStr::Word(s) => write!(f, "{}", s),
            BStr::Top => write!(f, "⊤"),
        }
    }
}

impl From<&str> for BStr {
    fn from(s: &str) -> Self {
        BStr::Word(s.to_string())
    }
}

impl BinaryOp<BStr> for Max {
    const NAME: &'static str = "max";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &BStr, b: &BStr) -> BStr {
        if a >= b {
            a.clone()
        } else {
            b.clone()
        }
    }
    fn identity(&self) -> BStr {
        BStr::Bot
    }
}

impl BinaryOp<BStr> for Min {
    const NAME: &'static str = "min";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &BStr, b: &BStr) -> BStr {
        if a <= b {
            a.clone()
        } else {
            b.clone()
        }
    }
    fn identity(&self) -> BStr {
        BStr::Top
    }
}

impl BinaryOp<BStr> for Concat {
    const NAME: &'static str = "·";
    const ASSOCIATIVE: bool = true;
    fn apply(&self, a: &BStr, b: &BStr) -> BStr {
        // ⊥ and ⊤ behave as absorbing markers under concatenation so the
        // op stays closed; word·word concatenates.
        match (a, b) {
            (BStr::Bot, _) | (_, BStr::Bot) => BStr::Bot,
            (BStr::Top, _) | (_, BStr::Top) => BStr::Top,
            (BStr::Word(x), BStr::Word(y)) => {
                let mut s = String::with_capacity(x.len() + y.len());
                s.push_str(x);
                s.push_str(y);
                BStr::Word(s)
            }
        }
    }
    fn identity(&self) -> BStr {
        BStr::Word(String::new())
    }
}

impl AssociativeOp<BStr> for Max {}
impl AssociativeOp<BStr> for Min {}
impl AssociativeOp<BStr> for Concat {}
impl CommutativeOp<BStr> for Max {}
impl CommutativeOp<BStr> for Min {}
// Concat is intentionally NOT CommutativeOp: it exists to demonstrate
// Section III's (AB)ᵀ ≠ BᵀAᵀ phenomenon.

const SAMPLE_WORDS: &[&str] = &["alpha", "beta", "gamma", "delta", "pop", "rock", "zz9"];

impl RandomValue for BStr {
    fn random(rng: &mut dyn rand::RngCore) -> Self {
        match rng.gen_range(0..8u8) {
            0 => BStr::Bot,
            1 => BStr::Top,
            _ => BStr::word(SAMPLE_WORDS[rng.gen_range(0..SAMPLE_WORDS.len())]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_bot_word_top() {
        assert!(BStr::Bot < BStr::word("a"));
        assert!(BStr::word("a") < BStr::word("b"));
        assert!(BStr::word("zzz") < BStr::Top);
    }

    #[test]
    fn max_min_are_lattice_ops() {
        let a = BStr::word("electronic");
        let b = BStr::word("pop");
        assert_eq!(Max.apply(&a, &b), b);
        assert_eq!(Min.apply(&a, &b), a);
    }

    #[test]
    fn bot_annihilates_min() {
        assert_eq!(Min.apply(&BStr::word("x"), &BStr::Bot), BStr::Bot);
        assert_eq!(Min.apply(&BStr::Bot, &BStr::Top), BStr::Bot);
    }

    #[test]
    fn concat_is_not_commutative() {
        let c = Concat;
        let ab = c.apply(&BStr::word("ab"), &BStr::word("cd"));
        let ba = c.apply(&BStr::word("cd"), &BStr::word("ab"));
        assert_ne!(ab, ba);
        assert_eq!(ab, BStr::word("abcd"));
    }

    #[test]
    fn concat_identity_is_empty_word() {
        let c = Concat;
        let e = BinaryOp::<BStr>::identity(&c);
        assert_eq!(c.apply(&e, &BStr::word("x")), BStr::word("x"));
        assert_eq!(c.apply(&BStr::word("x"), &e), BStr::word("x"));
    }
}
