//! Sparse × sparse multiplication `C = A ⊕.⊗ B` (Definition I.3).
//!
//! Gustavson's row-wise algorithm with a dense sparse-accumulator
//! (SPA) scratchpad: for each row `i` of `A`, scan its stored entries
//! `(k, A(i,k))` in **ascending `k`**, and for each stored
//! `(j, B(k,j))` fold `A(i,k) ⊗ B(k,j)` into slot `j`. Because `k`
//! ascends and each slot folds left-to-right, every output entry is the
//! left-associated `⊕`-fold over ascending inner keys — the canonical
//! order that makes the result well defined without assuming `⊕`
//! associativity or commutativity (see the crate docs).

use crate::chunks::{assemble_rows, RowsBuf};
use crate::csr::Csr;
use aarray_algebra::{BinaryOp, OpPair, Value};
use aarray_obs::{
    counters, journal, memstats, Counter, EventKind, MemRegion, MemReservation, OpKind, OpToken,
    Stage,
};
use std::mem::size_of;

/// Record one one-shot kernel invocation in the global counter
/// registry (and whether the row-parallel driver ran), and append the
/// matching explain event to the flight recorder.
fn record_kernel(parallel: bool) {
    let c = counters();
    c.incr(Counter::KernelSpa);
    if parallel {
        c.incr(Counter::KernelParallel);
    } else {
        // Serial one-pair kernels never touch the pool; see the fused
        // path's identical accounting in `spgemm_multi::record_fused`.
        c.incr(Counter::PoolTasksInline);
    }
    journal().record(EventKind::KernelChoice, 0, parallel as u64);
}

/// Count the `⊗` operations `A ⊕.⊗ B` will perform:
/// `Σ over stored A(i,k) of nnz(B row k)` — the standard SpGEMM "flop"
/// measure, used by the benches to report normalized throughput and to
/// predict output density.
pub fn spgemm_flops<V: Value, W: Value>(a: &Csr<V>, b: &Csr<W>) -> u64 {
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
    let mut flops = 0u64;
    for &k in a.indices() {
        flops += b.row_nnz(k as usize) as u64;
    }
    flops
}

/// `C = A ⊕.⊗ B`, serially.
///
/// Panics if `A.ncols() != B.nrows()`.
pub fn spgemm<V, A, M>(a: &Csr<V>, b: &Csr<V>, pair: &OpPair<V, A, M>) -> Csr<V>
where
    V: Value,
    A: BinaryOp<V>,
    M: BinaryOp<V>,
{
    spgemm_rows(a, b, pair, false)
}

/// Row-parallel `C = A ⊕.⊗ B` using rayon.
///
/// Output rows are independent, and each row's fold order is identical
/// to the serial kernel's, so the result is **bit-identical to
/// [`spgemm`] for any operations** — parallelism here needs no
/// associativity or commutativity.
pub fn spgemm_parallel<V, A, M>(a: &Csr<V>, b: &Csr<V>, pair: &OpPair<V, A, M>) -> Csr<V>
where
    V: Value,
    A: BinaryOp<V>,
    M: BinaryOp<V>,
{
    spgemm_rows(a, b, pair, true)
}

/// The one driver behind [`spgemm`] and [`spgemm_parallel`]: rows
/// run through [`assemble_rows`], one serial range or row chunks on the
/// pool, each chunk reusing one scratch across its rows.
fn spgemm_rows<V, A, M>(a: &Csr<V>, b: &Csr<V>, pair: &OpPair<V, A, M>, parallel: bool) -> Csr<V>
where
    V: Value,
    A: BinaryOp<V>,
    M: BinaryOp<V>,
{
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "inner dimensions must agree: A is {}×{}, B is {}×{}",
        a.nrows(),
        a.ncols(),
        b.nrows(),
        b.ncols()
    );
    let mut op = OpToken::begin_if_root(OpKind::Kernel);
    if let Some(t) = op.as_mut() {
        t.set_flops(spgemm_flops(a, b));
        t.set_lanes(1);
        let threads = if parallel {
            rayon::current_num_threads()
        } else {
            1
        };
        t.set_dispatch(parallel, threads as u64);
    }
    record_kernel(parallel);

    let c = assemble_rows(
        a.nrows(),
        1,
        parallel,
        Some(Stage::Numeric),
        || RowScratch::new(b.ncols()),
        |scratch, i, outs| multiply_row(a, b, pair, i, scratch, &mut outs[0]),
    )
    .pop()
    .expect("one output")
    .into_csr(b.ncols());
    if let Some(mut t) = op {
        t.set_out_nnz(c.nnz() as u64);
        t.finish();
    }
    c
}

/// Per-thread scratch reused across rows (SPA slots + touched list).
/// Its dominant allocation — the `O(ncols)` slot array — is reported
/// to the [`MemRegion::SpaScratch`] accounting region for the scratch
/// lifetime (the guard frees it on drop).
struct RowScratch<V> {
    slots: Vec<Option<V>>,
    touched: Vec<u32>,
    _mem: MemReservation,
}

impl<V: Value> RowScratch<V> {
    fn new(ncols: usize) -> Self {
        RowScratch {
            slots: vec![None; ncols],
            touched: Vec::new(),
            _mem: memstats().track(
                MemRegion::SpaScratch,
                (ncols * size_of::<Option<V>>()) as u64,
            ),
        }
    }
}

/// Append one output row to `out` (sorted by column), dropping zeros
/// after accumulation.
fn multiply_row<V, A, M>(
    a: &Csr<V>,
    b: &Csr<V>,
    pair: &OpPair<V, A, M>,
    i: usize,
    scratch: &mut RowScratch<V>,
    out: &mut RowsBuf<V>,
) where
    V: Value,
    A: BinaryOp<V>,
    M: BinaryOp<V>,
{
    let (ks, avs) = a.row(i);
    for (&k, av) in ks.iter().zip(avs.iter()) {
        let (js, bvs) = b.row(k as usize);
        for (&j, bv) in js.iter().zip(bvs.iter()) {
            let term = pair.times(av, bv);
            let slot = &mut scratch.slots[j as usize];
            match slot {
                None => {
                    *slot = Some(term);
                    scratch.touched.push(j);
                }
                Some(prev) => *prev = pair.plus(prev, &term),
            }
        }
    }
    scratch.touched.sort_unstable();
    for &j in &scratch.touched {
        let v = scratch.slots[j as usize]
            .take()
            .expect("touched slot filled");
        if !pair.is_zero(&v) {
            out.push(j, v);
        }
    }
    scratch.touched.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use aarray_algebra::ops::{AbsDiff, Max, Min, Plus, Times};
    use aarray_algebra::values::nat::Nat;
    use aarray_algebra::values::nn::{nn, NN};

    fn pt() -> OpPair<Nat, Plus, Times> {
        OpPair::new()
    }

    fn from_triples(nrows: usize, ncols: usize, t: &[(usize, usize, u64)]) -> Csr<Nat> {
        let mut coo = Coo::new(nrows, ncols);
        for &(r, c, v) in t {
            coo.push(r, c, Nat(v));
        }
        coo.into_csr(&pt())
    }

    #[test]
    fn small_plus_times_product() {
        // A = [1 2; 0 3], B = [4 0; 5 6]  ⇒  AB = [14 12; 15 18]
        let a = from_triples(2, 2, &[(0, 0, 1), (0, 1, 2), (1, 1, 3)]);
        let b = from_triples(2, 2, &[(0, 0, 4), (1, 0, 5), (1, 1, 6)]);
        let c = spgemm(&a, &b, &pt());
        assert_eq!(c.get(0, 0), Some(&Nat(14)));
        assert_eq!(c.get(0, 1), Some(&Nat(12)));
        assert_eq!(c.get(1, 0), Some(&Nat(15)));
        assert_eq!(c.get(1, 1), Some(&Nat(18)));
    }

    #[test]
    fn parallel_is_bit_identical_even_for_nonassociative_plus() {
        // ⊕ = |−| is commutative but NOT associative, so fold order is
        // observable; parallel must still agree with serial.
        let pair: OpPair<Nat, AbsDiff, Times> = OpPair::new();
        let mut ca = Coo::new(3, 50);
        let mut cb = Coo::new(50, 3);
        let mut x = 1u64;
        for k in 0..50usize {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ca.push(x as usize % 3, k, Nat(x % 17 + 1));
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            cb.push(k, x as usize % 3, Nat(x % 13 + 1));
        }
        let a = ca.into_csr(&pair);
        let b = cb.into_csr(&pair);
        assert_eq!(spgemm(&a, &b, &pair), spgemm_parallel(&a, &b, &pair));
    }

    #[test]
    fn max_min_product_selects_extremal_edges() {
        // Two length-1 "edges" connect row 0 to col 0 via inner keys
        // 0 and 1 with min-weights 3 and 5; max.min keeps 5... careful:
        // entry = max over k of min(A(0,k), B(k,0)).
        let pair: OpPair<Nat, Max, Min> = OpPair::new();
        let mut ca = Coo::new(1, 2);
        ca.push(0, 0, Nat(3));
        ca.push(0, 1, Nat(7));
        let mut cb = Coo::new(2, 1);
        cb.push(0, 0, Nat(9));
        cb.push(1, 0, Nat(5));
        let a = ca.into_csr(&pair);
        let b = cb.into_csr(&pair);
        let c = spgemm(&a, &b, &pair);
        // min(3,9)=3, min(7,5)=5, max(3,5)=5.
        assert_eq!(c.get(0, 0), Some(&Nat(5)));
    }

    #[test]
    fn produced_zeros_are_pruned() {
        // i64 ring: 1×1 + 1×(−1) = 0 must vanish from the output.
        let pair: OpPair<i64, Plus, Times> = OpPair::new();
        let mut ca = Coo::new(1, 2);
        ca.push(0, 0, 1i64);
        ca.push(0, 1, 1i64);
        let mut cb = Coo::new(2, 1);
        cb.push(0, 0, 1i64);
        cb.push(1, 0, -1i64);
        let a = ca.into_csr(&pair);
        let b = cb.into_csr(&pair);
        assert_eq!(spgemm(&a, &b, &pair).nnz(), 0);
    }

    #[test]
    fn min_plus_shortest_path_semantics() {
        // min.+ on NN: path weights compose by +, alternatives by min.
        let pair: OpPair<NN, Min, Plus> = OpPair::new();
        let mut ca = Coo::new(1, 2);
        ca.push(0, 0, nn(1.0));
        ca.push(0, 1, nn(10.0));
        let mut cb = Coo::new(2, 1);
        cb.push(0, 0, nn(5.0));
        cb.push(1, 0, nn(2.0));
        let a = ca.into_csr(&pair);
        let b = cb.into_csr(&pair);
        let c = spgemm(&a, &b, &pair);
        // min(1+5, 10+2) = 6.
        assert_eq!(c.get(0, 0), Some(&nn(6.0)));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = from_triples(2, 3, &[(0, 0, 1)]);
        let b = from_triples(2, 2, &[(0, 0, 1)]);
        let _ = spgemm(&a, &b, &pt());
    }

    #[test]
    fn flop_count() {
        // A row 0 hits B rows 0 (2 entries) and 1 (1 entry): 3 flops;
        // A row 1 hits B row 1: 1 flop.
        let a = from_triples(2, 2, &[(0, 0, 1), (0, 1, 1), (1, 1, 1)]);
        let b = from_triples(2, 2, &[(0, 0, 1), (0, 1, 1), (1, 0, 1)]);
        assert_eq!(spgemm_flops(&a, &b), 4);
        // Flops upper-bound output nnz.
        let c = spgemm(&a, &b, &pt());
        assert!(c.nnz() as u64 <= spgemm_flops(&a, &b));
    }

    #[test]
    fn empty_operands() {
        let a = Csr::<Nat>::empty(3, 4);
        let b = Csr::<Nat>::empty(4, 2);
        let c = spgemm(&a, &b, &pt());
        assert_eq!((c.nrows(), c.ncols(), c.nnz()), (3, 2, 0));
    }

    #[test]
    fn kernel_selection_is_counted() {
        use aarray_obs::snapshot;
        let a = from_triples(2, 2, &[(0, 0, 1), (0, 1, 2), (1, 1, 3)]);
        let b = from_triples(2, 2, &[(0, 0, 4), (1, 0, 5), (1, 1, 6)]);
        let before = snapshot();
        let _ = spgemm(&a, &b, &pt());
        let _ = spgemm_parallel(&a, &b, &pt());
        let delta = snapshot().since(&before);
        // ≥ rather than ==: the registry is process-global and other
        // tests in this binary run concurrently.
        assert!(delta.get(Counter::KernelSpa) >= 2, "{}", delta);
        assert!(delta.get(Counter::KernelParallel) >= 1, "{}", delta);
    }

    #[test]
    fn spa_scratch_memory_is_accounted() {
        use aarray_obs::{memstats, MemRegion};
        let a = from_triples(2, 2, &[(0, 0, 1), (0, 1, 2), (1, 1, 3)]);
        let b = from_triples(2, 2, &[(0, 0, 4), (1, 0, 5), (1, 1, 6)]);
        let spa_peak = memstats().peak(MemRegion::SpaScratch);
        let _ = spgemm(&a, &b, &pt());
        assert!(
            memstats().peak(MemRegion::SpaScratch) >= spa_peak.max(1),
            "slot array was reported"
        );
        // No exact `current == 0` assertion: sibling tests in this
        // binary run concurrently and may hold live scratch.
    }
}
