//! Fused multi-semiring SpGEMM: `K` construction products
//! `C_p = Eoutᵀ ⊕_p.⊗_p Ein` from **one** traversal of the operands.
//!
//! The paper's Figure 3 workload multiplies the *same* incidence
//! pattern under seven different `⊕.⊗` pairs. Running seven
//! independent [`crate::spgemm::spgemm`] calls re-reads both operands'
//! index structure seven times; the sparsity pattern work is
//! identical every time and only the value arithmetic differs. This
//! module hoists that redundancy:
//!
//! 1. the **edge-major gather** ([`crate::gather::EdgeGather`]) lays
//!    out each output row's terms once, in ascending edge order, with
//!    every single-head edge resolved to its column;
//! 2. the **symbolic** pass ([`crate::symbolic::spgemm_symbolic`])
//!    runs once — the structural pattern depends only on the operand
//!    patterns, never on the algebra;
//! 3. a single **numeric** traversal ([`spgemm_multi_numeric`]) reads
//!    the gathered rows once. Each output row's terms are collected
//!    into a block of up to [`FOLD_BLOCK`]
//!    `(slot, &Eout(k,i), &Ein(k,j))` triples, and every lane folds the
//!    block into its own accumulators with one
//!    [`DynOpPair::fold_terms`] call. The lanes are laid out
//!    structure-of-arrays (`accs[p * nslots + slot]`, one contiguous
//!    lane per pair).
//!
//! Callers run the steps themselves: `aarray-core`'s `MatmulPlan`
//! keeps one gather and one pattern across executes, and
//! [`crate::spgemm_delta`] builds both per batch.
//!
//! Heterogeneous pairs are handled through the object-safe
//! [`DynOpPair`] adapter, so one call can mix `+.×`, `max.min`,
//! `min.+`, … over the same value set. The adapter is called once per
//! lane per block, and each call runs the pair's monomorphized loop.
//!
//! **One driver.** [`spgemm_multi_numeric`] runs serially or
//! row-parallel by its `parallel` flag, through the same code: rows run
//! in contiguous chunks (a single chunk when serial), each chunk writes
//! flat per-lane index/value/row-length buffers, and the chunks'
//! buffers are concatenated in chunk order. No heap allocation is made
//! per row, and no thread reassembles rows.
//!
//! **Bit-identity.** Terms are folded left-associated in ascending
//! edge order — the gather lists them so, blocks are flushed in order,
//! and each block is folded in order — the same canonical order as
//! every other kernel in this crate. Each lane prunes its own
//! `⊕`-produced zeros with its own `is_zero`. Output `p` is therefore
//! bit-identical to the sequential
//! `spgemm(&eout.transpose(), &ein, pairs[p])` for arbitrary
//! non-associative, non-commutative operations, serial or parallel
//! (property-tested in `tests/proptest_multi.rs`,
//! `tests/pool_identity.rs` and `tests/gather_oracle.rs`).

use crate::chunks::{assemble_rows, RowsBuf};
use crate::csr::Csr;
use crate::gather::EdgeGather;
use crate::symbolic::SymbolicProduct;
use aarray_algebra::dynpair::DynOpPair;
use aarray_algebra::Value;
use aarray_obs::{
    counters, journal, memstats, Counter, EventKind, MemRegion, MemReservation, Stage,
};
use std::mem::size_of;

/// Terms gathered per row before every lane folds them: one
/// [`DynOpPair::fold_terms`] call per lane per block. A row with more
/// terms flushes a full block each time it fills, then the rest.
pub const FOLD_BLOCK: usize = 256;

/// Record one fused numeric traversal in the global counter registry:
/// the traversal itself, how many lanes it fed, and whether the
/// row-parallel driver ran — plus the matching explain event (payload
/// `b` packs `lanes << 1 | parallel`).
fn record_fused(nlanes: usize, parallel: bool) {
    let c = counters();
    c.incr(Counter::FusedTraversals);
    c.add(Counter::FusedLanes, nlanes as u64);
    if parallel {
        c.incr(Counter::FusedParallel);
    } else {
        // A serial traversal bypasses the pool entirely; count it as
        // one inline task so 1-thread runs don't read as "no work ran"
        // next to a zero `pool.tasks-local`.
        c.incr(Counter::PoolTasksInline);
    }
    journal().record(
        EventKind::FusedChoice,
        0,
        ((nlanes as u64) << 1) | parallel as u64,
    );
}

/// Numeric phase of the fused product against a precomputed symbolic
/// pattern of the same gather (reuse both across calls when the
/// operands are fixed — e.g. a plan that multiplies under new algebras
/// later).
///
/// `parallel` runs row chunks on the current pool (the caller makes
/// the dispatch decision); otherwise one serial pass. Both produce the
/// same bits.
pub fn spgemm_multi_numeric<V: Value>(
    sym: &SymbolicProduct,
    gather: &EdgeGather<'_, V>,
    pairs: &[&dyn DynOpPair<V>],
    parallel: bool,
) -> Vec<Csr<V>> {
    assert_eq!(
        sym.shape(),
        (gather.nrows(), gather.ncols()),
        "symbolic pattern built for a different gather"
    );
    record_fused(pairs.len(), parallel);
    assemble_rows(
        gather.nrows(),
        pairs.len(),
        parallel,
        Some(Stage::Numeric),
        || MultiScratch::new(gather.ncols()),
        |scratch, i, outs| multiply_row_multi(gather, pairs, i, sym.row(i), scratch, outs),
    )
    .into_iter()
    .map(|out| out.into_csr(gather.ncols()))
    .collect()
}

/// One gathered term: accumulator slot, `Eout(k,i)`, `Ein(k,j)`.
type Term<'a, V> = (usize, &'a V, &'a V);

/// Reusable per-chunk scratch: the dense column→slot map,
/// the K-lane structure-of-arrays accumulator block, and the term
/// block. Reported to [`MemRegion::FusedAccumulator`] at its high-water
/// capacity (the slot map and term block are fixed-size; the SoA block
/// grows with the widest `K × nslots` row seen).
struct MultiScratch<'a, V> {
    slot_of: Vec<usize>,
    accs: Vec<Option<V>>,
    block: Vec<Term<'a, V>>,
    mem: MemReservation,
}

impl<V: Value> MultiScratch<'_, V> {
    fn new(ncols: usize) -> Self {
        let mut scratch = MultiScratch {
            slot_of: vec![usize::MAX; ncols],
            accs: Vec::new(),
            block: Vec::with_capacity(FOLD_BLOCK),
            mem: memstats().track(MemRegion::FusedAccumulator, 0),
        };
        scratch.report_capacity();
        scratch
    }

    /// Report the scratch's bytes; called again after the accumulator
    /// block (possibly) grew.
    fn report_capacity(&mut self) {
        self.mem.grow_to(
            (self.slot_of.len() * size_of::<usize>()
                + self.block.capacity() * size_of::<Term<'_, V>>()
                + self.accs.capacity() * size_of::<Option<V>>()) as u64,
        );
    }
}

/// One fused output row: a single sweep over the row's gathered terms,
/// folding every term into all `K` lanes, then each lane's row appended
/// to its output buffer.
fn multiply_row_multi<'g, V: Value>(
    gather: &'g EdgeGather<'_, V>,
    pairs: &[&dyn DynOpPair<V>],
    i: usize,
    srow: &[u32],
    scratch: &mut MultiScratch<'g, V>,
    outs: &mut [RowsBuf<V>],
) {
    let npairs = pairs.len();
    let nslots = srow.len();
    scratch.accs.clear();
    scratch.accs.resize(npairs * nslots, None);
    scratch.report_capacity();
    let MultiScratch {
        slot_of,
        accs,
        block,
        ..
    } = scratch;

    for (slot, &j) in srow.iter().enumerate() {
        slot_of[j as usize] = slot;
    }
    fold_row(gather, pairs, i, nslots, accs, block, slot_of);
    for &j in srow {
        slot_of[j as usize] = usize::MAX;
    }

    // Emit each lane in slot (= ascending column) order, pruning the
    // lane's own ⊕-produced zeros: the implicit-zero invariant is
    // per-algebra, so lanes may legitimately emit different patterns.
    for (p, (pair, out)) in pairs.iter().zip(outs.iter_mut()).enumerate() {
        let lane = &mut accs[p * nslots..(p + 1) * nslots];
        for (cell, &j) in lane.iter_mut().zip(srow) {
            if let Some(v) = cell.take() {
                if !pair.is_zero(&v) {
                    out.push(j, v);
                }
            }
        }
    }
}

/// The shared traversal: collect every term of row `i`, in ascending
/// edge order, into `block`, and flush the block to all `K` lanes
/// whenever it fills and once at the end of the row. `slot_of` maps
/// each of the row's output columns to its slot.
fn fold_row<'g, V: Value>(
    gather: &'g EdgeGather<'_, V>,
    pairs: &[&dyn DynOpPair<V>],
    i: usize,
    nslots: usize,
    accs: &mut [Option<V>],
    block: &mut Vec<Term<'g, V>>,
    slot_of: &[usize],
) {
    gather.for_each_term(i, |j, tail, head| {
        let slot = slot_of[j as usize];
        debug_assert!(slot < nslots, "numeric term outside symbolic pattern");
        block.push((slot, tail, head));
        if block.len() == FOLD_BLOCK {
            flush(pairs, nslots, accs, block);
        }
    });
    flush(pairs, nslots, accs, block);
}

/// Fold the gathered terms into every lane (lane `p` is
/// `accs[p * nslots..][..nslots]`) and empty the block.
fn flush<V: Value>(
    pairs: &[&dyn DynOpPair<V>],
    nslots: usize,
    accs: &mut [Option<V>],
    block: &mut Vec<Term<'_, V>>,
) {
    if block.is_empty() {
        return;
    }
    for (p, pair) in pairs.iter().enumerate() {
        pair.fold_terms(&mut accs[p * nslots..(p + 1) * nslots], block);
    }
    block.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::spgemm::spgemm;
    use crate::symbolic::spgemm_symbolic;
    use aarray_algebra::ops::{AbsDiff, Plus, Times};
    use aarray_algebra::pairs::{MaxMin, MaxPlus, MinPlus, PlusTimes};
    use aarray_algebra::values::nat::Nat;
    use aarray_algebra::values::zn::Zn;
    use aarray_algebra::OpPair;

    fn pt() -> PlusTimes<Nat> {
        PlusTimes::new()
    }

    /// `A ⊕.⊗ B` through the gather of `Aᵀ` and both passes, under one
    /// dispatch decision, as plans and `spgemm_delta` run them.
    fn fused<V: Value>(
        a: &Csr<V>,
        b: &Csr<V>,
        pairs: &[&dyn DynOpPair<V>],
        parallel: bool,
    ) -> Vec<Csr<V>> {
        let at = a.transpose();
        let g = EdgeGather::new(&at, b, None, parallel);
        spgemm_multi_numeric(&spgemm_symbolic(&g, parallel), &g, pairs, parallel)
    }

    fn build(nrows: usize, ncols: usize, t: &[(usize, usize, u64)]) -> Csr<Nat> {
        let mut coo = Coo::new(nrows, ncols);
        for &(r, c, v) in t {
            coo.push(r, c, Nat(v));
        }
        coo.into_csr(&pt())
    }

    fn operands() -> (Csr<Nat>, Csr<Nat>) {
        let a = build(
            4,
            5,
            &[
                (0, 0, 1),
                (0, 3, 2),
                (1, 1, 3),
                (1, 4, 1),
                (2, 2, 2),
                (3, 0, 5),
                (3, 4, 7),
            ],
        );
        let b = build(
            5,
            3,
            &[
                (0, 1, 2),
                (1, 0, 1),
                (2, 2, 3),
                (3, 1, 4),
                (4, 0, 6),
                (4, 2, 1),
            ],
        );
        (a, b)
    }

    #[test]
    fn fused_matches_sequential_per_pair() {
        let (a, b) = operands();
        let pt = PlusTimes::<Nat>::new();
        let mm = MaxMin::<Nat>::new();
        let mp = MaxPlus::<Nat>::new();
        let np = MinPlus::<Nat>::new();
        let pairs: Vec<&dyn DynOpPair<Nat>> = vec![&pt, &mm, &mp, &np];
        let outs = fused(&a, &b, &pairs, false);
        assert_eq!(outs.len(), 4);
        assert_eq!(outs[0], spgemm(&a, &b, &pt));
        assert_eq!(outs[1], spgemm(&a, &b, &mm));
        assert_eq!(outs[2], spgemm(&a, &b, &mp));
        assert_eq!(outs[3], spgemm(&a, &b, &np));
    }

    #[test]
    fn parallel_fused_is_bit_identical_for_nonassociative_plus() {
        // ⊕ = |−| is not associative: fold order is observable.
        let ad: OpPair<Nat, AbsDiff, Times> = OpPair::new();
        let pt = PlusTimes::<Nat>::new();
        let pairs: Vec<&dyn DynOpPair<Nat>> = vec![&ad, &pt];
        let mut ca = Coo::new(3, 40);
        let mut cb = Coo::new(40, 3);
        let mut x = 9u64;
        for k in 0..40usize {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ca.push(x as usize % 3, k, Nat(x % 17 + 1));
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            cb.push(k, x as usize % 3, Nat(x % 13 + 1));
        }
        let a = ca.into_csr(&pt);
        let b = cb.into_csr(&pt);
        let serial = fused(&a, &b, &pairs, false);
        let parallel = fused(&a, &b, &pairs, true);
        assert_eq!(serial, parallel);
        assert_eq!(serial[0], spgemm(&a, &b, &ad));
        assert_eq!(serial[1], spgemm(&a, &b, &pt));
    }

    #[test]
    fn lanes_prune_their_own_zeros_zn_wraparound() {
        // In Z6, 2×1 ⊕ 2×2 = 2 + 4 ≡ 0: the +.× lane must drop the
        // wrapped-to-zero entry while a lane with a different zero
        // element (same slot, different algebra) keeps its entry —
        // the implicit-zero invariant is per-lane. Regression test for the fused kernel
        // and the one-pass kernel agreeing on ⊕-produced zeros.
        type Z6 = Zn<6>;
        let pt6 = PlusTimes::<Z6>::new();
        // ×.+ is also closed on Z6 with identity-of-⊕ = 1: a lane
        // whose "zero" differs, so it must keep what +.× prunes.
        let tp6: OpPair<Z6, Times, Plus> = OpPair::new();
        let mut ca = Coo::new(1, 2);
        ca.push(0, 0, Z6::new(2));
        ca.push(0, 1, Z6::new(2));
        let mut cb = Coo::new(2, 1);
        cb.push(0, 0, Z6::new(1));
        cb.push(1, 0, Z6::new(2));
        let a = ca.into_csr(&pt6);
        let b = cb.into_csr(&pt6);

        let pairs: Vec<&dyn DynOpPair<Z6>> = vec![&pt6, &tp6];
        let outs = fused(&a, &b, &pairs, false);
        assert_eq!(outs[0].nnz(), 0, "wrapped sum must be pruned");
        assert_eq!(outs[1].nnz(), 1, "×.+ lane unaffected");
        // And identically to the one-pass kernel.
        assert_eq!(outs[0], spgemm(&a, &b, &pt6));
        assert_eq!(outs[1], spgemm(&a, &b, &tp6));
    }

    #[test]
    fn symbolic_pattern_reuse_across_numeric_calls() {
        let (a, b) = operands();
        let at = a.transpose();
        let g = EdgeGather::new(&at, &b, None, true);
        let sym = spgemm_symbolic(&g, true);
        let pt = PlusTimes::<Nat>::new();
        let mm = MaxMin::<Nat>::new();
        let first = spgemm_multi_numeric(&sym, &g, &[&pt as &dyn DynOpPair<Nat>], false);
        let second = spgemm_multi_numeric(&sym, &g, &[&mm as &dyn DynOpPair<Nat>], true);
        assert_eq!(first[0], spgemm(&a, &b, &pt));
        assert_eq!(second[0], spgemm(&a, &b, &mm));
    }

    #[test]
    fn empty_pair_list_and_empty_operands() {
        let (a, b) = operands();
        let none: Vec<&dyn DynOpPair<Nat>> = Vec::new();
        assert!(fused(&a, &b, &none, false).is_empty());

        let ea = Csr::<Nat>::empty(3, 4);
        let eb = Csr::<Nat>::empty(4, 2);
        let pt = PlusTimes::<Nat>::new();
        let pairs: Vec<&dyn DynOpPair<Nat>> = vec![&pt];
        let out = fused(&ea, &eb, &pairs, false);
        assert_eq!((out[0].nrows(), out[0].ncols(), out[0].nnz()), (3, 2, 0));
    }

    #[test]
    #[should_panic(expected = "different gather")]
    fn dimension_mismatch_panics() {
        let eout = build(3, 2, &[(0, 0, 1)]);
        let ein = build(3, 2, &[(0, 0, 1)]);
        let sym = spgemm_symbolic(&EdgeGather::new(&eout, &ein, None, false), false);
        let wide = build(3, 4, &[(0, 0, 1)]);
        let g = EdgeGather::new(&eout, &wide, None, false);
        let pt = PlusTimes::<Nat>::new();
        let pairs: Vec<&dyn DynOpPair<Nat>> = vec![&pt];
        let _ = spgemm_multi_numeric(&sym, &g, &pairs, false);
    }

    #[test]
    fn fused_traversals_and_lanes_are_counted() {
        use aarray_obs::snapshot;
        let (a, b) = operands();
        let pt = PlusTimes::<Nat>::new();
        let mm = MaxMin::<Nat>::new();
        let pairs: Vec<&dyn DynOpPair<Nat>> = vec![&pt, &mm];
        let before = snapshot();
        let _ = fused(&a, &b, &pairs, false);
        let _ = fused(&a, &b, &pairs, true);
        let delta = snapshot().since(&before);
        // ≥: the registry is process-global, tests run concurrently.
        assert!(delta.get(Counter::FusedTraversals) >= 2, "{}", delta);
        assert!(delta.get(Counter::FusedLanes) >= 4, "{}", delta);
        assert!(delta.get(Counter::FusedParallel) >= 1, "{}", delta);
    }

    #[test]
    fn fused_scratch_memory_recorded() {
        let (a, b) = operands();
        let pt = PlusTimes::<Nat>::new();
        let mm = MaxMin::<Nat>::new();
        let pairs: Vec<&dyn DynOpPair<Nat>> = vec![&pt, &mm];
        let _ = fused(&a, &b, &pairs, false);
        // Slot map alone is ncols × 8 bytes; the SoA block adds more.
        assert!(
            memstats().peak(MemRegion::FusedAccumulator) >= (b.ncols() * size_of::<usize>()) as u64
        );
    }
}
