//! `WordSet` — sets of words with `⊕ = ∪`, `⊗ = ∩`, the value system of
//! Section III's document×word example.
//!
//! In general this pair is **not** adjacency-compatible (disjoint
//! non-empty sets are zero divisors, like any non-trivial Boolean
//! algebra). The paper's point is that *structured* incidence arrays
//! escape the criteria anyway: if `E(i, j)` holds the words shared by
//! document pairs, a word appearing in `E(i, j)` and `E(m, n)` must
//! also appear in `E(i, n)` and `E(m, j)`, so a non-empty set is never
//! intersected with a disjoint non-empty set during `EᵀE`. The
//! structured generator for that scenario lives in `aarray-graph`.
//!
//! Because `⊗ = ∩` needs an identity (the universe of all words, which
//! is infinite), the type is completed with an explicit [`WordSet::All`]
//! top element.

use super::RandomValue;
use crate::op::{AssociativeOp, BinaryOp, CommutativeOp};
use crate::ops::{Intersect, Union};
use rand::Rng;
use std::collections::BTreeSet;
use std::fmt;

/// A set of words, or the universe marker `All` (identity of `∩`).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WordSet {
    /// The universe of all words — identity of intersection.
    All,
    /// A finite set of words. The empty set is the pair's zero.
    Some(BTreeSet<String>),
}

impl Default for WordSet {
    fn default() -> Self {
        WordSet::empty()
    }
}

impl WordSet {
    /// The empty set — the zero of `∪.∩`.
    pub fn empty() -> Self {
        WordSet::Some(BTreeSet::new())
    }

    /// Build from words.
    pub fn of<I: IntoIterator<Item = S>, S: Into<String>>(words: I) -> Self {
        WordSet::Some(words.into_iter().map(Into::into).collect())
    }

    /// Number of words (`None` for the universe).
    pub fn len(&self) -> Option<usize> {
        match self {
            WordSet::All => None,
            WordSet::Some(s) => Some(s.len()),
        }
    }

    /// Is this the empty set?
    pub fn is_empty(&self) -> bool {
        matches!(self, WordSet::Some(s) if s.is_empty())
    }

    /// Membership test (always true for the universe).
    pub fn contains(&self, w: &str) -> bool {
        match self {
            WordSet::All => true,
            WordSet::Some(s) => s.contains(w),
        }
    }
}

impl fmt::Display for WordSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WordSet::All => write!(f, "⊤"),
            WordSet::Some(s) => {
                write!(f, "{{")?;
                for (i, w) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}", w)?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl BinaryOp<WordSet> for Union {
    const NAME: &'static str = "∪";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &WordSet, b: &WordSet) -> WordSet {
        match (a, b) {
            (WordSet::All, _) | (_, WordSet::All) => WordSet::All,
            (WordSet::Some(x), WordSet::Some(y)) => WordSet::Some(x.union(y).cloned().collect()),
        }
    }
    fn identity(&self) -> WordSet {
        WordSet::empty()
    }
}

impl BinaryOp<WordSet> for Intersect {
    const NAME: &'static str = "∩";
    const ASSOCIATIVE: bool = true;
    const COMMUTATIVE: bool = true;
    fn apply(&self, a: &WordSet, b: &WordSet) -> WordSet {
        match (a, b) {
            (WordSet::All, other) | (other, WordSet::All) => other.clone(),
            (WordSet::Some(x), WordSet::Some(y)) => {
                WordSet::Some(x.intersection(y).cloned().collect())
            }
        }
    }
    fn identity(&self) -> WordSet {
        WordSet::All
    }
}

impl AssociativeOp<WordSet> for Union {}
impl AssociativeOp<WordSet> for Intersect {}
impl CommutativeOp<WordSet> for Union {}
impl CommutativeOp<WordSet> for Intersect {}

const VOCAB: &[&str] = &[
    "graph", "array", "matrix", "edge", "vertex", "sparse", "music",
];

impl RandomValue for WordSet {
    fn random(rng: &mut dyn rand::RngCore) -> Self {
        if rng.gen_range(0..16u8) == 0 {
            return WordSet::All;
        }
        let k = rng.gen_range(0..4usize);
        WordSet::of((0..k).map(|_| VOCAB[rng.gen_range(0..VOCAB.len())]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_and_intersection() {
        let a = WordSet::of(["x", "y"]);
        let b = WordSet::of(["y", "z"]);
        assert_eq!(Union.apply(&a, &b), WordSet::of(["x", "y", "z"]));
        assert_eq!(Intersect.apply(&a, &b), WordSet::of(["y"]));
    }

    #[test]
    fn universe_is_intersection_identity() {
        let a = WordSet::of(["w"]);
        assert_eq!(Intersect.apply(&a, &WordSet::All), a);
        assert_eq!(Intersect.apply(&WordSet::All, &a), a);
    }

    #[test]
    fn empty_is_union_identity() {
        let a = WordSet::of(["w"]);
        assert_eq!(Union.apply(&a, &WordSet::empty()), a);
    }

    #[test]
    fn disjoint_sets_are_zero_divisors() {
        let a = WordSet::of(["x"]);
        let b = WordSet::of(["y"]);
        assert!(Intersect.apply(&a, &b).is_empty());
    }

    #[test]
    fn display() {
        assert_eq!(WordSet::of(["b", "a"]).to_string(), "{a,b}");
        assert_eq!(WordSet::All.to_string(), "⊤");
        assert_eq!(WordSet::empty().to_string(), "{}");
    }
}
