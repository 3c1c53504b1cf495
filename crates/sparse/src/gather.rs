//! The edge-major gather: `Eoutᵀ` laid out for the construction product
//! `A = Eoutᵀ ⊕.⊗ Ein`.
//!
//! Theorem II.1's product is a sum over edges,
//! `A(i,j) = ⊕ₖ Eout(k,i) ⊗ Ein(k,j)`. An [`EdgeGather`] lists, for
//! every output row `i`, the edges `k` with a tail at `i`, in
//! ascending `k` — the rows of `Eoutᵀ` — but resolves each edge with
//! exactly one head `j` on the spot: its entry carries `j`,
//! `Eout(k,i)` and `Ein(k,j)`, so the passes that read it never look
//! `Ein`'s row `k` up. Every other edge stays a `(k, Eout(k,i))` entry,
//! and the passes read `Ein`'s row `k` in place (an edge with no head
//! reads an empty row and adds no term). On a graph every edge has one
//! head, so every term is resolved; a hypergraph's multi-head edges
//! cost what a transposed entry costs. Edges `Ein` does not list are
//! left out.
//!
//! The gather walks a row's terms in ascending `k`, the canonical fold
//! order, so the symbolic pass
//! ([`crate::symbolic::spgemm_symbolic`]) and the fused numeric pass
//! ([`crate::spgemm_multi::spgemm_multi_numeric`]) fold exactly what
//! `spgemm(&eout.transpose(), &ein, pair)` folds, in the same order.
//!
//! **Layout.** One counting sort over the edges. Run in parallel, the
//! edges split into contiguous blocks, one per pool thread, and each
//! block lays out its own CSR over all output rows; a row's entries
//! are its blocks' pieces in block order, which is ascending `k`. An
//! entry is a `u32` key and its tail value — the column `j` of a
//! resolved edge, or `k` with the key's top bit set — and a resolved
//! entry adds its head value, so the entry of an edge that stays
//! unresolved is as big as its transposed entry.

use crate::csr::Csr;
use aarray_algebra::Value;
use rayon::prelude::*;
use std::mem::size_of;
use std::ops::Range;

/// Key flag of an entry that stays unresolved: its low 31 bits hold the
/// `Ein` row `k`. A resolved entry's key is its head column `j`.
const EDGE: u32 = 1 << 31;

/// Most entries either operand may hold: value sources are `u32`
/// positions, and a head source is stored plus one (0: no head).
const MAX_NNZ: usize = u32::MAX as usize - 1;

/// `Eoutᵀ` gathered against `Ein` for the product `Eoutᵀ ⊕.⊗ Ein`. See
/// the [module docs](self).
pub struct EdgeGather<'a, V: Value> {
    ein: &'a Csr<V>,
    nrows: usize,
    flops: u64,
    pieces: Vec<Piece<V>>,
}

/// One edge block's entries, as a CSR over all output rows.
struct Piece<V> {
    /// Row `i`'s entries are `indptr[i]..indptr[i + 1]`.
    indptr: Vec<u32>,
    /// Row `i`'s resolved entries' heads start at `heads[head_ptr[i]]`.
    head_ptr: Vec<u32>,
    /// Per entry: the head column `j`, or `EDGE | k`.
    keys: Vec<u32>,
    /// Per entry: `Eout(k, i)`.
    tails: Vec<V>,
    /// Per resolved entry, in entry order: `Ein(k, j)`.
    heads: Vec<V>,
}

/// The edges the two operands share: `Eout` row `out_rows[t]` is
/// `Ein` row `in_rows[t]`, or row `t` of both when not aligned.
#[derive(Clone, Copy)]
struct Edges<'e> {
    aligned: Option<(&'e [usize], &'e [usize])>,
}

impl Edges<'_> {
    #[inline]
    fn at(&self, t: usize) -> (usize, usize) {
        match self.aligned {
            None => (t, t),
            Some((out_rows, in_rows)) => (out_rows[t], in_rows[t]),
        }
    }
}

impl<'a, V: Value> EdgeGather<'a, V> {
    /// Gather `eout` (edges × out-vertices) against `ein` (edges ×
    /// in-vertices). `aligned` lists the shared edges as parallel
    /// ascending row lists `(eout rows, ein rows)`; `None` means both
    /// operands hold the same edges row for row. `parallel` lays the
    /// edge blocks out on the current pool, one per thread; the result
    /// reads the same either way.
    ///
    /// Panics if `None` is given for operands with different edge
    /// counts, or if an operand outgrows the `u32` layout (more than
    /// 2³¹ in-edges or in-vertices, or 2³² − 2 stored entries).
    pub fn new(
        eout: &Csr<V>,
        ein: &'a Csr<V>,
        aligned: Option<(&[usize], &[usize])>,
        parallel: bool,
    ) -> Self {
        let nedges = match aligned {
            None => {
                assert_eq!(
                    eout.nrows(),
                    ein.nrows(),
                    "unaligned operands must list the same edges: Eout has {}, Ein has {}",
                    eout.nrows(),
                    ein.nrows()
                );
                eout.nrows()
            }
            Some((out_rows, in_rows)) => {
                assert_eq!(out_rows.len(), in_rows.len(), "alignment lists differ");
                out_rows.len()
            }
        };
        assert!(
            ein.nrows() <= EDGE as usize && ein.ncols() <= EDGE as usize,
            "Ein is {}×{}: the gather's keys hold at most 2^31 edges and vertices",
            ein.nrows(),
            ein.ncols()
        );
        assert!(
            eout.nnz() <= MAX_NNZ && ein.nnz() <= MAX_NNZ,
            "the gather's sources hold at most 2^32 - 2 entries"
        );
        let edges = Edges { aligned };
        let nblocks = if parallel {
            rayon::current_num_threads().clamp(1, nedges.max(1))
        } else {
            1
        };
        // Every buffer is allocated here, on the calling thread, and only
        // filled on the pool: a pool worker's allocator arena would keep
        // the blocks' high-water mark after the gather drops.
        let nrows = eout.ncols();
        let blocks: Vec<(Range<usize>, Vec<u32>)> = (0..nblocks)
            .map(|b| {
                let block = nedges * b / nblocks..nedges * (b + 1) / nblocks;
                (block, vec![0u32; nrows + 1])
            })
            .collect();
        let counted = on_blocks(blocks, |(block, indptr)| {
            Counted::new(eout, ein, edges, block, indptr)
        });
        let jobs: Vec<Fill<V>> = counted.into_iter().map(Fill::new).collect();
        let built = on_blocks(jobs, |job| job.run(eout, ein, edges));
        let flops = built.iter().map(|(_, f)| f).sum();
        EdgeGather {
            ein,
            nrows,
            flops,
            pieces: built.into_iter().map(|(p, _)| p).collect(),
        }
    }

    /// Output rows (`Eout`'s columns).
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Output columns (`Ein`'s columns).
    pub fn ncols(&self) -> usize {
        self.ein.ncols()
    }

    /// Terms of the product: `Σₖ |Eout(k,:)| · |Ein(k,:)|` over the
    /// shared edges, one `⊗` each — the dispatch estimate.
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Heap bytes held by the gathered rows (for memory accounting;
    /// excludes `Ein`, which the gather borrows).
    pub fn heap_bytes(&self) -> u64 {
        self.pieces
            .iter()
            .map(|p| {
                (p.indptr.capacity() + p.head_ptr.capacity() + p.keys.capacity()) * size_of::<u32>()
                    + (p.tails.capacity() + p.heads.capacity()) * size_of::<V>()
            })
            .sum::<usize>() as u64
    }

    /// Call `f(j)` for the column of every term of output row `i`, in
    /// the order of [`EdgeGather::for_each_term`]: the symbolic pass's
    /// walk, which reads no value.
    #[inline]
    pub(crate) fn for_each_col(&self, i: usize, mut f: impl FnMut(u32)) {
        let (in_ptr, in_cols) = (self.ein.indptr(), self.ein.indices());
        for p in &self.pieces {
            for key in &p.keys[p.indptr[i] as usize..p.indptr[i + 1] as usize] {
                // One call site, so `f` inlines once.
                let js = if key & EDGE == 0 {
                    std::slice::from_ref(key)
                } else {
                    let k = (key & !EDGE) as usize;
                    &in_cols[in_ptr[k]..in_ptr[k + 1]]
                };
                for &j in js {
                    f(j);
                }
            }
        }
    }

    /// Call `f(j, Eout(k,i), Ein(k,j))` for every term of output row
    /// `i`, in ascending `k` (and ascending `j` within one edge).
    #[inline]
    pub(crate) fn for_each_term<'s>(&'s self, i: usize, mut f: impl FnMut(u32, &'s V, &'s V)) {
        for p in &self.pieces {
            let span = p.indptr[i] as usize..p.indptr[i + 1] as usize;
            let mut heads = p.heads[p.head_ptr[i] as usize..].iter();
            for (key, tail) in p.keys[span.clone()].iter().zip(&p.tails[span]) {
                // One call site, so `f` inlines once.
                let (js, bvs) = if key & EDGE == 0 {
                    let head = heads.next().expect("one head per resolved entry");
                    (std::slice::from_ref(key), std::slice::from_ref(head))
                } else {
                    self.ein.row((key & !EDGE) as usize)
                };
                for (&j, head) in js.iter().zip(bvs) {
                    f(j, tail, head);
                }
            }
        }
    }
}

/// Run `f` on each block: on the current pool when there are several.
fn on_blocks<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync + Send) -> Vec<R> {
    if items.len() == 1 {
        items.into_iter().map(f).collect()
    } else {
        items.into_par_iter().map(f).collect()
    }
}

/// One counted edge block.
struct Counted {
    block: Range<usize>,
    /// Row `i`'s entries will be `indptr[i]..indptr[i + 1]`.
    indptr: Vec<u32>,
    /// Entries whose edge has exactly one head.
    resolved: usize,
}

impl Counted {
    /// Count the entries of the edges `block` (indices into `edges`)
    /// per output row into `indptr` (zeroed, one longer than the row
    /// count), as offsets, and count the resolved ones.
    fn new<V: Value>(
        eout: &Csr<V>,
        ein: &Csr<V>,
        edges: Edges<'_>,
        block: Range<usize>,
        mut indptr: Vec<u32>,
    ) -> Counted {
        let (out_ptr, out_cols) = (eout.indptr(), eout.indices());
        let in_ptr = ein.indptr();
        // One entry per tail of a shared edge.
        let mut count = |tails: &[u32]| {
            for &i in tails {
                indptr[i as usize + 1] += 1;
            }
        };
        match edges.aligned {
            // The block's tails are contiguous in `Eout`.
            None => count(&out_cols[out_ptr[block.start]..out_ptr[block.end]]),
            Some(_) => {
                for t in block.clone() {
                    let (ko, _) = edges.at(t);
                    count(&out_cols[out_ptr[ko]..out_ptr[ko + 1]]);
                }
            }
        }
        for i in 1..indptr.len() {
            indptr[i] += indptr[i - 1];
        }
        let resolved = block
            .clone()
            .map(|t| {
                let (ko, ki) = edges.at(t);
                usize::from(in_ptr[ki + 1] - in_ptr[ki] == 1) * (out_ptr[ko + 1] - out_ptr[ko])
            })
            .sum();
        Counted {
            block,
            indptr,
            resolved,
        }
    }
}

/// A counted block with every buffer its layout needs, sized exactly.
struct Fill<V> {
    block: Range<usize>,
    piece: Piece<V>,
    /// Each row's next free entry.
    next: Vec<u32>,
    /// Per entry: its `Eout` position and its head's `Ein` position
    /// plus one (0 when the edge is not resolved).
    src: Vec<[u32; 2]>,
}

impl<V: Value> Fill<V> {
    fn new(counted: Counted) -> Self {
        let Counted {
            block,
            indptr,
            resolved,
        } = counted;
        let nrows = indptr.len() - 1;
        let n = indptr[nrows] as usize;
        Fill {
            block,
            next: indptr[..nrows].to_vec(),
            src: vec![[0; 2]; n],
            piece: Piece {
                head_ptr: Vec::with_capacity(nrows + 1),
                keys: vec![0; n],
                tails: Vec::with_capacity(n),
                heads: Vec::with_capacity(resolved),
                indptr,
            },
        }
    }

    /// Lay the block out and count its terms.
    fn run(self, eout: &Csr<V>, ein: &Csr<V>, edges: Edges<'_>) -> (Piece<V>, u64) {
        let Fill {
            block,
            mut piece,
            mut next,
            mut src,
        } = self;
        let (out_ptr, out_cols) = (eout.indptr(), eout.indices());
        let (in_ptr, in_cols) = (ein.indptr(), ein.indices());

        // Scatter each entry's key and value sources, edges ascending,
        // so every row lists its edges in ascending `k`. The key and
        // head source are selected without a branch: the mix of one-
        // and many-head edges is data, not a pattern to predict.
        let mut flops = 0u64;
        for t in block {
            let (ko, ki) = edges.at(t);
            let (first, nheads) = (in_ptr[ki], in_ptr[ki + 1] - in_ptr[ki]);
            let tails = out_ptr[ko]..out_ptr[ko + 1];
            flops += (tails.len() * nheads) as u64;
            let one = nheads == 1;
            let key = if one {
                in_cols.get(first).copied().unwrap_or(0)
            } else {
                EDGE | ki as u32
            };
            let head = if one { first as u32 + 1 } else { 0 };
            for p in tails {
                let slot = &mut next[out_cols[p] as usize];
                piece.keys[*slot as usize] = key;
                src[*slot as usize] = [p as u32, head];
                *slot += 1;
            }
        }
        drop(next);

        // Values in entry order; then the heads' sources compacted in
        // place, row by row, so each row's heads start at `head_ptr`.
        let (out_vals, in_vals) = (eout.values(), ein.values());
        piece
            .tails
            .extend(src.iter().map(|&[p, _]| out_vals[p as usize].clone()));
        piece.head_ptr.push(0);
        let mut nres = 0usize;
        for w in piece.indptr.windows(2) {
            for e in w[0] as usize..w[1] as usize {
                let q = src[e][1];
                src[nres][1] = q;
                nres += usize::from(q != 0);
            }
            piece.head_ptr.push(nres as u32);
        }
        debug_assert_eq!(nres, piece.heads.capacity(), "resolved count");
        piece.heads.extend(
            src[..nres]
                .iter()
                .map(|&[_, q]| in_vals[q as usize - 1].clone()),
        );
        (piece, flops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use aarray_algebra::pairs::PlusTimes;
    use aarray_algebra::values::nat::Nat;

    fn build(nrows: usize, ncols: usize, t: &[(usize, usize, u64)]) -> Csr<Nat> {
        let mut coo = Coo::new(nrows, ncols);
        for &(r, c, v) in t {
            coo.push(r, c, Nat(v));
        }
        coo.into_csr(&PlusTimes::<Nat>::new())
    }

    /// Row `i`'s terms as `(j, tail, head)` triples.
    fn terms(g: &EdgeGather<'_, Nat>, i: usize) -> Vec<(u32, u64, u64)> {
        let mut out = Vec::new();
        g.for_each_term(i, |j, a, b| out.push((j, a.0, b.0)));
        let mut cols = Vec::new();
        g.for_each_col(i, |j| cols.push(j));
        assert!(cols.iter().eq(out.iter().map(|t| &t.0)), "same walk");
        out
    }

    /// Edges 0..4 over 2 tail and 3 head vertices: edge 0 has one head,
    /// edge 1 two, edge 2 none, edge 3 one head and two tails.
    fn incidence() -> (Csr<Nat>, Csr<Nat>) {
        let eout = build(
            4,
            2,
            &[(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 0, 4), (3, 1, 5)],
        );
        let ein = build(4, 3, &[(0, 2, 10), (1, 0, 20), (1, 1, 30), (3, 1, 40)]);
        (eout, ein)
    }

    #[test]
    fn rows_list_terms_in_ascending_edge_order() {
        let (eout, ein) = incidence();
        for parallel in [false, true] {
            let g = EdgeGather::new(&eout, &ein, None, parallel);
            assert_eq!(
                terms(&g, 0),
                [(2, 1, 10), (0, 2, 20), (1, 2, 30), (1, 4, 40)]
            );
            assert_eq!(terms(&g, 1), [(1, 5, 40)], "edge 2 has no head");
            assert_eq!((g.nrows(), g.ncols(), g.flops()), (2, 3, 5));
            // Edge 2's tail stays an entry that reads an empty row.
            let count = |f: fn(&Piece<Nat>) -> usize| g.pieces.iter().map(f).sum::<usize>();
            assert_eq!((count(|p| p.keys.len()), count(|p| p.heads.len())), (5, 3));
            assert!(g.heap_bytes() > 0);
        }
    }

    #[test]
    fn blocks_keep_edge_order_across_pieces() {
        let (eout, ein) = incidence();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .expect("3-thread pool");
        let serial = EdgeGather::new(&eout, &ein, None, false);
        let blocked = pool.install(|| EdgeGather::new(&eout, &ein, None, true));
        assert_eq!(blocked.pieces.len(), 3);
        for i in 0..2 {
            assert_eq!(terms(&blocked, i), terms(&serial, i));
        }
        assert_eq!(blocked.flops(), serial.flops());
    }

    #[test]
    fn aligned_edges_meet_their_ein_rows() {
        let (eout, ein) = incidence();
        // Eout edge 3 meets Ein row 0; Eout edge 1 meets Ein row 1.
        let g = EdgeGather::new(&eout, &ein, Some((&[1, 3], &[0, 1])), false);
        assert_eq!(terms(&g, 0), [(2, 2, 10), (0, 4, 20), (1, 4, 30)]);
        assert_eq!(terms(&g, 1), [(0, 5, 20), (1, 5, 30)]);
        assert_eq!(g.flops(), 5);
    }

    #[test]
    #[should_panic(expected = "same edges")]
    fn unaligned_edge_counts_must_agree() {
        let (eout, _) = incidence();
        let ein = Csr::<Nat>::empty(3, 3);
        let _ = EdgeGather::new(&eout, &ein, None, false);
    }
}
