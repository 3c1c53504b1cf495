//! The symbolic pass of two-phase SpGEMM.
//!
//! The one-pass kernel in [`mod@crate::spgemm`] grows output vectors as
//! it goes. The classic HPC alternative runs a **symbolic** pass first
//! — computing the exact output pattern with no value arithmetic —
//! then a **numeric** pass that fills preallocated storage. This wins
//! when the symbolic pattern is reused across several numeric
//! multiplies with different `⊕.⊗` pairs — exactly Figure 3's
//! workload, where the same `E1ᵀ`, `E2` pattern is multiplied under
//! seven algebras. The numeric pass is the fused kernel
//! [`crate::spgemm_multi::spgemm_multi_numeric`], which fills every
//! lane from one traversal; with one lane it is the plain two-phase
//! product.
//!
//! Both passes read the construction product `Eoutᵀ ⊕.⊗ Ein` from an
//! [`EdgeGather`]: each output row's terms in ascending edge order,
//! single-head edges already resolved to their column.
//!
//! The symbolic pass runs serially or row-parallel as its caller
//! decides (the planner and the delta kernel pass the same
//! flops-gated decision as their numeric pass). Like the fused
//! numeric pass, it runs rows in chunks that each append to one flat
//! index buffer, concatenated in row order.
//!
//! Caveat: the symbolic pattern is the *structural* product (every
//! coordinate with at least one contributing term). The numeric pass
//! can still produce zeros for non-compliant pairs; it prunes them, so
//! results match the one-pass kernel exactly.

use crate::chunks::{assemble_rows, RowsBuf};
use crate::gather::EdgeGather;
use aarray_algebra::Value;

/// The reusable output pattern of `A ⊕.⊗ B` (structural only).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SymbolicProduct {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
}

impl SymbolicProduct {
    /// Number of structurally-possible output entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Output dimensions.
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// The sorted column indices structurally present in output row
    /// `i`. This is what lets downstream numeric passes (including the
    /// fused multi-pair kernel in [`crate::spgemm_multi`]) preallocate
    /// exact per-row slots.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.indices[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Structural nonzero count of output row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Heap bytes held by the pattern's index arrays (for memory
    /// accounting; excludes the struct header).
    pub fn heap_bytes(&self) -> u64 {
        (self.indptr.capacity() * std::mem::size_of::<usize>()
            + self.indices.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

/// Symbolic pass: the output pattern of the gathered product.
/// `parallel` runs row chunks on the current pool, otherwise one
/// serial pass. Each chunk appends its rows' sorted columns to one flat
/// index buffer (one `seen` scratch per chunk, nothing allocated per
/// row), and the chunks are concatenated in row order, so both give
/// the same pattern.
pub fn spgemm_symbolic<V: Value>(gather: &EdgeGather<'_, V>, parallel: bool) -> SymbolicProduct {
    let RowsBuf {
        indptr, indices, ..
    } = assemble_rows::<(), _>(
        gather.nrows(),
        1,
        parallel,
        None,
        || vec![false; gather.ncols()],
        |seen, i, outs| {
            let cols = &mut outs[0].indices;
            let start = cols.len();
            gather.for_each_col(i, |j| {
                if !seen[j as usize] {
                    seen[j as usize] = true;
                    cols.push(j);
                }
            });
            let row = &mut cols[start..];
            row.sort_unstable();
            for &j in row.iter() {
                seen[j as usize] = false;
            }
        },
    )
    .pop()
    .expect("one output");
    SymbolicProduct {
        nrows: gather.nrows(),
        ncols: gather.ncols(),
        indptr,
        indices,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::csr::Csr;
    use crate::spgemm::spgemm;
    use crate::spgemm_multi::spgemm_multi_numeric;
    use aarray_algebra::ops::{Max, Min, Plus, Times};
    use aarray_algebra::values::nat::Nat;
    use aarray_algebra::OpPair;

    fn pt() -> OpPair<Nat, Plus, Times> {
        OpPair::new()
    }

    fn build(nrows: usize, ncols: usize, t: &[(usize, usize, u64)]) -> Csr<Nat> {
        let mut coo = Coo::new(nrows, ncols);
        for &(r, c, v) in t {
            coo.push(r, c, Nat(v));
        }
        coo.into_csr(&pt())
    }

    // The numeric pass is the fused kernel; with one lane it is the
    // plain two-phase product.
    #[test]
    fn two_phase_matches_one_phase() {
        let a = build(3, 4, &[(0, 0, 1), (0, 3, 2), (1, 1, 3), (2, 2, 5)]);
        let b = build(4, 3, &[(0, 1, 2), (1, 0, 1), (2, 2, 3), (3, 1, 4)]);
        let at = a.transpose();
        let g = EdgeGather::new(&at, &b, None, false);
        let sym = spgemm_symbolic(&g, false);
        let two = spgemm_multi_numeric(&sym, &g, &[&pt()], false).remove(0);
        assert_eq!(two, spgemm(&a, &b, &pt()));
        assert_eq!(sym.nnz(), two.nnz()); // compliant pair: no pruning
    }

    #[test]
    fn symbolic_pattern_reused_across_pairs() {
        // Figure 3's workload shape: one symbolic pass, many algebras.
        let a = build(2, 3, &[(0, 0, 2), (0, 1, 3), (1, 2, 4)]);
        let b = build(3, 2, &[(0, 0, 5), (1, 0, 1), (2, 1, 7)]);
        let at = a.transpose();
        let g = EdgeGather::new(&at, &b, None, false);
        let sym = spgemm_symbolic(&g, true);

        let plus_times = spgemm_multi_numeric(&sym, &g, &[&pt()], false).remove(0);
        assert_eq!(plus_times, spgemm(&a, &b, &pt()));

        let mm: OpPair<Nat, Max, Min> = OpPair::new();
        let max_min = spgemm_multi_numeric(&sym, &g, &[&mm], false).remove(0);
        assert_eq!(max_min, spgemm(&a, &b, &mm));
        // Same pattern, different values.
        assert_eq!(plus_times.indices(), max_min.indices());
        assert_ne!(plus_times.values(), max_min.values());
    }

    #[test]
    fn numeric_prunes_arithmetic_zeros() {
        let pair: OpPair<i64, Plus, Times> = OpPair::new();
        let mut ca = Coo::new(1, 2);
        ca.push(0, 0, 1i64);
        ca.push(0, 1, 1i64);
        let at = ca.into_csr(&pair).transpose();
        let mut cb = Coo::new(2, 1);
        cb.push(0, 0, 1i64);
        cb.push(1, 0, -1i64);
        let b = cb.into_csr(&pair);
        let g = EdgeGather::new(&at, &b, None, false);
        let sym = spgemm_symbolic(&g, false);
        assert_eq!(sym.nnz(), 1); // structurally present
        let c = spgemm_multi_numeric(&sym, &g, &[&pair], false).remove(0);
        assert_eq!(c.nnz(), 0); // numerically cancelled, pruned
    }

    #[test]
    fn symbolic_shape_accessors() {
        let a = build(2, 3, &[(0, 0, 1)]);
        let g = EdgeGather::new(&a, &a, None, false);
        assert_eq!(spgemm_symbolic(&g, false).shape(), (3, 3));
    }
}
