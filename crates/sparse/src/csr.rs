//! Compressed sparse row storage, generic over the value type.

use aarray_algebra::{BinaryOp, OpPair, Value};

/// A sparse array in CSR form: `indptr` of length `nrows + 1`, and
/// per-row column indices (strictly ascending within a row) with
/// parallel values.
///
/// Invariants (checked by [`Csr::from_parts`] in debug builds):
/// * `indptr` is non-decreasing, `indptr[0] == 0`,
///   `indptr[nrows] == indices.len() == values.len()`;
/// * within each row, `indices` are strictly increasing and `< ncols`.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr<V: Value> {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<V>,
}

impl<V: Value> Csr<V> {
    /// An empty array of the given dimensions.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        Csr {
            nrows,
            ncols,
            indptr: vec![0; nrows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Assemble from raw parts. Debug-asserts the CSR invariants.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<V>,
    ) -> Self {
        debug_assert_eq!(indptr.len(), nrows + 1);
        debug_assert_eq!(*indptr.first().unwrap_or(&0), 0);
        debug_assert_eq!(*indptr.last().unwrap_or(&0), indices.len());
        debug_assert_eq!(indices.len(), values.len());
        #[cfg(debug_assertions)]
        for r in 0..nrows {
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                debug_assert!(w[0] < w[1], "row {} indices not strictly ascending", r);
            }
            if let Some(&last) = row.last() {
                debug_assert!(
                    (last as usize) < ncols,
                    "row {} col {} ≥ ncols {}",
                    r,
                    last,
                    ncols
                );
            }
        }
        Csr {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored (nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The row-pointer array.
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// The column-index array.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The value array.
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// The value array, writable. Only values can change through it,
    /// never the pattern; the caller keeps them free of the zero of
    /// whichever pair the array is read under.
    pub fn values_mut(&mut self) -> &mut [V] {
        &mut self.values
    }

    /// One row as parallel slices `(columns, values)`.
    pub fn row(&self, r: usize) -> (&[u32], &[V]) {
        let span = self.indptr[r]..self.indptr[r + 1];
        (&self.indices[span.clone()], &self.values[span])
    }

    /// Number of stored entries in row `r`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Heap bytes held by the index and value arrays (for memory
    /// accounting; counts `size_of::<V>()` per stored value, so heap
    /// owned *by* the values — e.g. `String` payloads — is excluded).
    pub fn heap_bytes(&self) -> u64 {
        (self.indptr.capacity() * std::mem::size_of::<usize>()
            + self.indices.capacity() * std::mem::size_of::<u32>()
            + self.values.capacity() * std::mem::size_of::<V>()) as u64
    }

    /// Stored value at `(r, c)`, or `None` (meaning the pair's zero).
    pub fn get(&self, r: usize, c: usize) -> Option<&V> {
        let (cols, vals) = self.row(r);
        cols.binary_search(&(c as u32)).ok().map(|i| &vals[i])
    }

    /// Iterate all stored entries as `(row, col, &value)` in row-major
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &V)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter()
                .zip(vals.iter())
                .map(move |(&c, v)| (r, c as usize, v))
        })
    }

    /// The transpose `Aᵀ` (Definition I.2), via counting sort: `O(nnz +
    /// nrows + ncols)`. Within each output row the former row indices
    /// appear in ascending order, preserving the canonical fold order.
    /// The scatter records each transposed entry's source position;
    /// values are then gathered once, in output order.
    pub fn transpose(&self) -> Csr<V> {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let indptr_t = counts.clone();

        let mut indices_t = vec![0u32; self.nnz()];
        let mut source = vec![0usize; self.nnz()];
        let mut next = counts;
        for r in 0..self.nrows {
            for p in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[p] as usize;
                indices_t[next[c]] = r as u32;
                source[next[c]] = p;
                next[c] += 1;
            }
        }
        let values_t: Vec<V> = source.iter().map(|&p| self.values[p].clone()).collect();
        Csr::from_parts(self.ncols, self.nrows, indptr_t, indices_t, values_t)
    }

    /// Map all stored values to a (possibly different) value type.
    /// Pattern is preserved; the caller is responsible for the new
    /// type's zero not colliding with mapped values (use
    /// [`Csr::map_prune`] when it might).
    pub fn map<W: Value>(&self, f: impl Fn(&V) -> W) -> Csr<W> {
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            values: self.values.iter().map(f).collect(),
        }
    }

    /// Map stored values and drop any that land on the target pair's
    /// zero.
    pub fn map_prune<W, A, M>(&self, pair: &OpPair<W, A, M>, f: impl Fn(&V) -> W) -> Csr<W>
    where
        W: Value,
        A: BinaryOp<W>,
        M: BinaryOp<W>,
    {
        let mut indptr = vec![0usize; self.nrows + 1];
        let mut indices = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, v) in cols.iter().zip(vals.iter()) {
                let w = f(v);
                if !pair.is_zero(&w) {
                    indices.push(c);
                    values.push(w);
                }
            }
            indptr[r + 1] = indices.len();
        }
        Csr::from_parts(self.nrows, self.ncols, indptr, indices, values)
    }

    /// Drop stored entries equal to the pair's zero (e.g. after an
    /// in-place value edit).
    pub fn prune<A, M>(&self, pair: &OpPair<V, A, M>) -> Csr<V>
    where
        A: BinaryOp<V>,
        M: BinaryOp<V>,
    {
        self.map_prune(pair, |v| v.clone())
    }

    /// Select an arbitrary (sorted, deduplicated) set of columns,
    /// renumbering to `0..cols.len()`.
    pub fn select_cols(&self, cols: &[usize]) -> Csr<V> {
        debug_assert!(
            cols.windows(2).all(|w| w[0] < w[1]),
            "column list must be sorted unique"
        );
        let mut remap = vec![u32::MAX; self.ncols];
        for (new, &old) in cols.iter().enumerate() {
            assert!(old < self.ncols, "column {} out of bounds", old);
            remap[old] = new as u32;
        }
        let mut indptr = vec![0usize; self.nrows + 1];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for r in 0..self.nrows {
            let (rcols, vals) = self.row(r);
            for (&c, v) in rcols.iter().zip(vals.iter()) {
                let m = remap[c as usize];
                if m != u32::MAX {
                    indices.push(m);
                    values.push(v.clone());
                }
            }
            indptr[r + 1] = indices.len();
        }
        Csr::from_parts(self.nrows, cols.len(), indptr, indices, values)
    }

    /// Select a (sorted, deduplicated) set of rows, renumbering to
    /// `0..rows.len()`.
    pub fn select_rows(&self, rows: &[usize]) -> Csr<V> {
        debug_assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "row list must be sorted unique"
        );
        let mut indptr = vec![0usize; rows.len() + 1];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (new_r, &r) in rows.iter().enumerate() {
            assert!(r < self.nrows, "row {} out of bounds", r);
            let (cols, vals) = self.row(r);
            indices.extend_from_slice(cols);
            values.extend(vals.iter().cloned());
            indptr[new_r + 1] = indices.len();
        }
        Csr::from_parts(rows.len(), self.ncols, indptr, indices, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;
    use aarray_algebra::ops::{Plus, Times};
    use aarray_algebra::values::nat::Nat;
    use aarray_algebra::values::nn::{nn, NN};

    fn pt() -> OpPair<Nat, Plus, Times> {
        OpPair::new()
    }

    fn sample() -> Csr<Nat> {
        // [1 . 2]
        // [. . .]
        // [3 4 .]
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, Nat(1));
        coo.push(0, 2, Nat(2));
        coo.push(2, 0, Nat(3));
        coo.push(2, 1, Nat(4));
        coo.into_csr(&pt())
    }

    #[test]
    fn accessors() {
        let m = sample();
        assert_eq!((m.nrows(), m.ncols(), m.nnz()), (3, 3, 4));
        assert_eq!(m.row_nnz(0), 2);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.get(2, 1), Some(&Nat(4)));
        assert_eq!(m.get(1, 1), None);
        let entries: Vec<_> = m.iter().map(|(r, c, v)| (r, c, v.0)).collect();
        assert_eq!(entries, vec![(0, 0, 1), (0, 2, 2), (2, 0, 3), (2, 1, 4)]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!((t.nrows(), t.ncols()), (3, 3));
        assert_eq!(t.get(0, 2), Some(&Nat(3)));
        assert_eq!(t.get(1, 2), Some(&Nat(4)));
        assert_eq!(t.get(2, 0), Some(&Nat(2)));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_rectangular() {
        let mut coo = Coo::new(2, 4);
        coo.push(0, 3, Nat(9));
        coo.push(1, 0, Nat(8));
        let m = coo.into_csr(&pt());
        let t = m.transpose();
        assert_eq!((t.nrows(), t.ncols()), (4, 2));
        assert_eq!(t.get(3, 0), Some(&Nat(9)));
        assert_eq!(t.get(0, 1), Some(&Nat(8)));
    }

    #[test]
    fn map_changes_value_type() {
        let m = sample();
        let f: Csr<NN> = m.map(|v| nn(v.0 as f64));
        assert_eq!(f.get(2, 0), Some(&nn(3.0)));
        assert_eq!(f.nnz(), m.nnz());
    }

    #[test]
    fn map_prune_drops_new_zeros() {
        let m = sample();
        // Map everything ≤ 2 to zero.
        let g = m.map_prune(&pt(), |v| if v.0 <= 2 { Nat(0) } else { *v });
        assert_eq!(g.nnz(), 2);
        assert_eq!(g.get(0, 0), None);
        assert_eq!(g.get(2, 0), Some(&Nat(3)));
    }

    #[test]
    fn select_cols_arbitrary() {
        let m = sample();
        let s = m.select_cols(&[0, 2]);
        assert_eq!(s.ncols(), 2);
        assert_eq!(s.get(0, 1), Some(&Nat(2)));
        assert_eq!(s.get(2, 0), Some(&Nat(3)));
        assert_eq!(s.nnz(), 3);
    }

    #[test]
    fn select_rows_subset() {
        let m = sample();
        let s = m.select_rows(&[0, 2]);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.get(1, 1), Some(&Nat(4)));
        assert_eq!(s.nnz(), 4);
    }

    #[test]
    fn empty_array() {
        let e = Csr::<Nat>::empty(5, 7);
        assert_eq!(e.nnz(), 0);
        assert_eq!(e.transpose().nrows(), 7);
        assert_eq!(e.iter().count(), 0);
    }
}
