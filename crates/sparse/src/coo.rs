//! Triplet (COO) representation — the natural construction format for
//! incidence arrays coming off edge lists or exploded tables.

use aarray_algebra::{BinaryOp, OpPair, Value};

/// A sparse array under construction: unordered `(row, col, value)`
/// triplets with fixed dimensions.
#[derive(Clone, Debug, PartialEq)]
pub struct Coo<V: Value> {
    nrows: usize,
    ncols: usize,
    entries: Vec<(u32, u32, V)>,
}

impl<V: Value> Coo<V> {
    /// New empty triplet list with the given dimensions.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        assert!(
            nrows <= u32::MAX as usize && ncols <= u32::MAX as usize,
            "dimension exceeds u32 index space"
        );
        Coo {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Append one entry. Panics if out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: V) {
        assert!(
            row < self.nrows,
            "row {} out of bounds ({})",
            row,
            self.nrows
        );
        assert!(
            col < self.ncols,
            "col {} out of bounds ({})",
            col,
            self.ncols
        );
        self.entries.push((row as u32, col as u32, value));
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of triplets (before deduplication).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no triplets have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The raw triplets.
    pub fn triplets(&self) -> &[(u32, u32, V)] {
        &self.entries
    }

    /// Finalize into CSR, combining duplicate coordinates with the
    /// pair's `⊕` (left-associated, in **insertion order** — the stable
    /// sort preserves it) and dropping entries equal to the pair's zero.
    pub fn into_csr<A, M>(mut self, pair: &OpPair<V, A, M>) -> crate::Csr<V>
    where
        A: BinaryOp<V>,
        M: BinaryOp<V>,
    {
        // Stable sort keeps duplicate runs in insertion order so the
        // ⊕-fold below is well defined for non-commutative ⊕.
        self.entries.sort_by_key(|&(r, c, _)| (r, c));

        let mut rows: Vec<u32> = Vec::with_capacity(self.entries.len());
        let mut cols: Vec<u32> = Vec::with_capacity(self.entries.len());
        let mut vals: Vec<V> = Vec::with_capacity(self.entries.len());

        for (r, c, v) in self.entries {
            if rows.last() == Some(&r) && cols.last() == Some(&c) {
                let last = vals.last_mut().expect("parallel arrays in sync");
                *last = pair.plus(last, &v);
            } else {
                rows.push(r);
                cols.push(c);
                vals.push(v);
            }
        }

        // Drop zeros (either pushed explicitly or produced by the fold).
        let mut indptr = vec![0usize; self.nrows + 1];
        let mut indices = Vec::with_capacity(cols.len());
        let mut values = Vec::with_capacity(vals.len());
        let mut it = rows.iter().zip(cols.iter()).zip(vals);
        let mut counts = vec![0usize; self.nrows];
        let mut kept: Vec<(u32, u32, V)> = Vec::new();
        for ((&r, &c), v) in &mut it {
            if !pair.is_zero(&v) {
                counts[r as usize] += 1;
                kept.push((r, c, v));
            }
        }
        for (i, n) in counts.iter().enumerate() {
            indptr[i + 1] = indptr[i] + n;
        }
        for (_, c, v) in kept {
            indices.push(c);
            values.push(v);
        }

        crate::Csr::from_parts(self.nrows, self.ncols, indptr, indices, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aarray_algebra::ops::{Max, Min, Plus, Times};
    use aarray_algebra::values::bstr::BStr;
    use aarray_algebra::values::nat::Nat;

    fn pt() -> OpPair<Nat, Plus, Times> {
        OpPair::new()
    }

    #[test]
    fn build_and_finalize() {
        let mut coo = Coo::new(3, 4);
        assert!(coo.is_empty());
        coo.push(0, 1, Nat(5));
        coo.push(2, 3, Nat(7));
        coo.push(0, 0, Nat(1));
        assert_eq!((coo.nrows(), coo.ncols(), coo.len()), (3, 4, 3));
        assert!(!coo.is_empty());
        let csr = coo.into_csr(&pt());
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.get(0, 1), Some(&Nat(5)));
        assert_eq!(csr.get(2, 3), Some(&Nat(7)));
        assert_eq!(csr.get(1, 0), None);
    }

    #[test]
    fn duplicates_combine_with_plus() {
        let mut coo = Coo::new(2, 2);
        coo.push(1, 1, Nat(3));
        coo.push(1, 1, Nat(4));
        let csr = coo.into_csr(&pt());
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.get(1, 1), Some(&Nat(7)));
    }

    #[test]
    fn duplicates_fold_in_insertion_order_for_noncommutative_plus() {
        // ⊕ = max on BStr is commutative, so use a fold-order probe:
        // with ⊕ = min over BStr the result is order-independent too;
        // instead verify insertion order via ⊕ = max.min pair names:
        // simplest direct probe is Nat with AbsDiff (commutative but
        // non-associative): |(|3−5|)−10| = 8 vs other orders differ.
        use aarray_algebra::ops::AbsDiff;
        let pair: OpPair<Nat, AbsDiff, Times> = OpPair::new();
        let mut coo = Coo::new(1, 1);
        coo.push(0, 0, Nat(3));
        coo.push(0, 0, Nat(5));
        coo.push(0, 0, Nat(10));
        let csr = coo.into_csr(&pair);
        // left-fold insertion order: ||3-5|-10| = |2-10| = 8
        assert_eq!(csr.get(0, 0), Some(&Nat(8)));
    }

    #[test]
    fn explicit_zeros_are_dropped() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, Nat(0));
        coo.push(0, 1, Nat(2));
        let csr = coo.into_csr(&pt());
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.get(0, 0), None);
    }

    #[test]
    fn zero_depends_on_the_pair() {
        // Under max.min on BStr the zero is ⊥, so ⊥ entries vanish but
        // empty-string words do not.
        let pair: OpPair<BStr, Max, Min> = OpPair::new();
        let mut coo = Coo::new(1, 2);
        coo.push(0, 0, BStr::Bot);
        coo.push(0, 1, BStr::word(""));
        let csr = coo.into_csr(&pair);
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.get(0, 1), Some(&BStr::word("")));
    }

    #[test]
    fn cancellation_during_combine_is_pruned() {
        // ℤ (i64) ring: +3 and -3 at the same coordinate cancel to the
        // zero element and the entry must disappear — the sparse-level
        // echo of Lemma II.2.
        let pair: OpPair<i64, Plus, Times> = OpPair::new();
        let mut coo = Coo::new(1, 1);
        coo.push(0, 0, 3i64);
        coo.push(0, 0, -3i64);
        let csr = coo.into_csr(&pair);
        assert_eq!(csr.nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bounds_checked() {
        let mut coo = Coo::<Nat>::new(2, 2);
        coo.push(2, 0, Nat(1));
    }
}
