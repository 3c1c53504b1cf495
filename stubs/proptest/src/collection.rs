//! Collection strategies: `vec` and `btree_set` with a [`SizeRange`]
//! accepted from `usize`, `Range<usize>`, or `RangeInclusive<usize>`.

use crate::strategy::Strategy;
use crate::TestRng;
use std::collections::BTreeSet;

/// Inclusive bounds for a generated collection's length.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        if self.lo == self.hi {
            self.lo
        } else {
            self.lo + rng.next_index(self.hi - self.lo + 1)
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(r: core::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: core::ops::RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty collection size range");
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// Strategy for `Vec<E>` with length drawn from `size`.
pub fn vec<E: Strategy>(element: E, size: impl Into<SizeRange>) -> VecStrategy<E> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy produced by [`vec()`].
pub struct VecStrategy<E> {
    element: E,
    size: SizeRange,
}

impl<E: Strategy> Strategy for VecStrategy<E> {
    type Value = Vec<E::Value>;
    fn sample(&self, rng: &mut TestRng) -> Vec<E::Value> {
        let n = self.size.pick(rng);
        (0..n).map(|_| self.element.sample(rng)).collect()
    }
}

/// Strategy for `BTreeSet<E>` with target size drawn from `size`.
///
/// Like the real proptest, the set may come out smaller than the drawn
/// size when the element strategy's domain is too narrow to produce
/// enough distinct values; a bounded number of redraws is attempted.
pub fn btree_set<E>(element: E, size: impl Into<SizeRange>) -> BTreeSetStrategy<E>
where
    E: Strategy,
    E::Value: Ord,
{
    BTreeSetStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy produced by [`btree_set`].
pub struct BTreeSetStrategy<E> {
    element: E,
    size: SizeRange,
}

impl<E> Strategy for BTreeSetStrategy<E>
where
    E: Strategy,
    E::Value: Ord,
{
    type Value = BTreeSet<E::Value>;
    fn sample(&self, rng: &mut TestRng) -> BTreeSet<E::Value> {
        let n = self.size.pick(rng);
        let mut out = BTreeSet::new();
        let mut attempts = 0usize;
        let max_attempts = 4 * n.max(1);
        while out.len() < n && attempts < max_attempts {
            out.insert(self.element.sample(rng));
            attempts += 1;
        }
        out
    }
}
