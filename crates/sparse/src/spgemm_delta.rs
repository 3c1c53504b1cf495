//! Delta SpGEMM: the batch product `ΔA = ΔEoutᵀ ⊕.⊗ ΔEin` of the
//! incremental adjacency layer, for all `K` lanes in one traversal.
//!
//! For an append-only edge batch `ΔE` whose edge keys are **fresh**
//! (disjoint from every existing edge key), the full update formula
//! `A' = A ⊕ (ΔEᵀ·E ⊕ Eᵀ·ΔE ⊕ ΔEᵀ·ΔE)` collapses: the cross terms
//! `ΔEᵀ·E` and `Eᵀ·ΔE` contract over the *edge-key* dimension, and a
//! fresh batch shares no edge key with the prior incidence, so both
//! cross products are structurally empty. What remains is the
//! batch-local product this kernel computes — the caller then folds it
//! into the cached adjacency with one union `⊕`-merge per lane
//! ([`crate::elementwise::ewise_add_dyn`]).
//!
//! The kernel is a thin orchestration over the fused machinery — the
//! batch's [`EdgeGather`], then [`crate::symbolic::spgemm_symbolic`]
//! and [`crate::spgemm_multi::spgemm_multi_numeric`] feeding every
//! lane, both serial or both row-parallel by the caller's gate on the
//! gather's flops — so each lane's `ΔA` is bit-identical to a
//! standalone `spgemm(ΔEoutᵀ, ΔEin, pair)`. Whether folding those
//! deltas into a *cumulative* adjacency is exact is the caller's
//! obligation: it re-associates the `⊕` reduction relative to a
//! from-scratch rebuild and therefore requires `⊕` associative
//! ([`aarray_algebra::AssociativePlus`] /
//! [`aarray_algebra::dynpair::DynOpPair::plus_associative`]).
//!
//! Scratch specific to the delta path — the batch's gathered rows and
//! symbolic pattern — is reported to [`MemRegion::DeltaScratch`]; the
//! fused traversal's own accumulator block still lands in
//! `MemRegion::FusedAccumulator` as usual.

use crate::csr::Csr;
use crate::gather::EdgeGather;
use crate::spgemm_multi::spgemm_multi_numeric;
use crate::symbolic::spgemm_symbolic;
use aarray_algebra::dynpair::DynOpPair;
use aarray_algebra::Value;
use aarray_obs::{counters, journal, memstats, Counter, MemRegion, Stage};

/// All-lanes batch product `[ΔEoutᵀ ⊕_p.⊗_p ΔEin for p in pairs]`.
///
/// `delta_eout` and `delta_ein` are the batch's incidence blocks, both
/// `Δedges × vertices` (the paper's orientation); the batch is
/// gathered serially, edge by edge, into delta scratch. Panics if the
/// two blocks disagree on the edge-row count.
///
/// `parallel` is the caller's dispatch gate: given the batch
/// product's flops (counted by the gather), it says whether the
/// symbolic and numeric passes run row-parallel — the same gate the
/// planner applies, so a small batch does not pay pool dispatch. Both
/// are bit-identical.
///
/// Returns one `Csr` per pair (vertices × vertices), in order, each
/// bit-identical to the corresponding standalone sequential product of
/// the same operands.
pub fn spgemm_delta<V: Value>(
    delta_eout: &Csr<V>,
    delta_ein: &Csr<V>,
    pairs: &[&dyn DynOpPair<V>],
    parallel: impl FnOnce(u64) -> bool,
) -> Vec<Csr<V>> {
    assert_eq!(
        delta_eout.nrows(),
        delta_ein.nrows(),
        "delta blocks must share the batch edge rows: ΔEout has {}, ΔEin has {}",
        delta_eout.nrows(),
        delta_ein.nrows()
    );
    counters().incr(Counter::DeltaTraversals);
    journal().begin(Stage::DeltaApply, pairs.len() as u64);

    let gather = EdgeGather::new(delta_eout, delta_ein, None, false);
    let mut scratch = memstats().track(MemRegion::DeltaScratch, gather.heap_bytes());
    let parallel = parallel(gather.flops());
    let sym = spgemm_symbolic(&gather, parallel);
    scratch.grow_to(gather.heap_bytes() + sym.heap_bytes());
    // No dispatch counters here: the dispatch audit covers the
    // planner's own decisions.
    let outs = spgemm_multi_numeric(&sym, &gather, pairs, parallel);
    journal().end(Stage::DeltaApply, pairs.len() as u64);
    outs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::spgemm::spgemm;
    use aarray_algebra::pairs::{MaxMin, PlusTimes};
    use aarray_algebra::values::nat::Nat;

    fn pt() -> PlusTimes<Nat> {
        PlusTimes::new()
    }

    fn batch() -> (Csr<Nat>, Csr<Nat>) {
        // 3 batch edges over 4 vertices.
        let mut out = Coo::new(3, 4);
        out.push(0, 0, Nat(2));
        out.push(1, 1, Nat(3));
        out.push(2, 0, Nat(1));
        out.push(2, 3, Nat(5));
        let mut inn = Coo::new(3, 4);
        inn.push(0, 1, Nat(7));
        inn.push(1, 2, Nat(1));
        inn.push(2, 2, Nat(4));
        (out.into_csr(&pt()), inn.into_csr(&pt()))
    }

    #[test]
    fn delta_product_matches_standalone_transpose_product() {
        let (out, inn) = batch();
        let pt = pt();
        let mm = MaxMin::<Nat>::new();
        let pairs: Vec<&dyn DynOpPair<Nat>> = vec![&pt, &mm];
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .expect("2-thread pool");
        for parallel in [false, true] {
            let deltas = pool.install(|| spgemm_delta(&out, &inn, &pairs, |_| parallel));
            let eout_t = out.transpose();
            assert_eq!(deltas[0], spgemm(&eout_t, &inn, &pt));
            assert_eq!(deltas[1], spgemm(&eout_t, &inn, &mm));
        }
    }

    #[test]
    fn delta_traversals_and_scratch_are_recorded() {
        let (out, inn) = batch();
        let pt = pt();
        let pairs: Vec<&dyn DynOpPair<Nat>> = vec![&pt];
        let before = aarray_obs::snapshot();
        let mut flops = 0;
        let _ = spgemm_delta(&out, &inn, &pairs, |f| {
            flops = f;
            false
        });
        let delta = aarray_obs::snapshot().since(&before);
        // Edges 0 and 1 pair one tail with one head, edge 2 two tails.
        assert_eq!(flops, 4, "the gate sees the batch product's flops");
        assert!(delta.get(Counter::DeltaTraversals) >= 1);
        assert!(
            memstats().peak(MemRegion::DeltaScratch) > 0,
            "gather + symbolic scratch must be accounted"
        );
    }

    #[test]
    #[should_panic(expected = "batch edge rows")]
    fn mismatched_batch_rows_panic() {
        let (out, _) = batch();
        let inn = Csr::<Nat>::empty(5, 4);
        let pt = pt();
        let pairs: Vec<&dyn DynOpPair<Nat>> = vec![&pt];
        let _ = spgemm_delta(&out, &inn, &pairs, |_| false);
    }
}
