//! Reusable multiplication plans: align once, multiply many times.
//!
//! [`AArray::matmul`] re-derives everything on every call: it aligns
//! the inner key sets (an `O(k)` merge walk plus `O(nnz)` column/row
//! selection when they differ) and then runs a one-shot kernel. The
//! paper's evaluation (Figure 3/5) multiplies the **same** `E1ᵀ`, `E2`
//! operands under seven different `⊕.⊗` pairs — re-running alignment,
//! transposition, and sparsity discovery seven times for one reused
//! structure.
//!
//! A [`MatmulPlan`] for the construction product `Eᵀout ⊕.⊗ Ein` hoists
//! all pair-independent work out of the loop:
//!
//! * the **key alignment** — which `Eout` edge rows meet which `Ein`
//!   edge rows — is computed once;
//! * the **edge-major gather** ([`aarray_sparse::gather`]) of `Eout`
//!   against `Ein` replaces the transpose of `Eout`: each output row's
//!   terms in ascending edge order, every single-head edge already
//!   resolved to its column, owned by the plan;
//! * the **flops estimate** driving the parallel/serial dispatch is the
//!   gather's own count;
//! * the **symbolic sparsity pattern** of the product — which depends
//!   only on the operand patterns, never on the algebra — is computed
//!   lazily on first use and memoized.
//!
//! [`MatmulPlan::execute`] then runs one numeric pass per pair, and
//! [`MatmulPlan::execute_all`] runs a *fused* numeric pass feeding all
//! `K` algebras' accumulators during a single traversal of the
//! gathered rows (`aarray_sparse::spgemm_multi`). Results are
//! bit-identical to the corresponding [`AArray::matmul`] calls for
//! arbitrary non-associative, non-commutative operations, because
//! every kernel in this workspace folds left-associated over ascending
//! inner keys.
//!
//! ```
//! use aarray_core::prelude::*;
//!
//! let pt = PlusTimes::<Nat>::new();
//! let mm = MaxMin::<Nat>::new();
//! let e1 = AArray::from_triples(&pt, [("t1", "g1", Nat(2)), ("t2", "g1", Nat(3))]);
//! let e2 = AArray::from_triples(&pt, [("t1", "w1", Nat(5)), ("t2", "w1", Nat(7))]);
//!
//! // One plan: alignment + gather + symbolic pattern, shared.
//! let plan = e1.transpose_matmul_plan(&e2);
//! let results = plan.execute_all(&[&pt, &mm]);
//! assert_eq!(results[0], e1.transpose().matmul(&e2, &pt));
//! assert_eq!(results[1], e1.transpose().matmul(&e2, &mm));
//! ```

use crate::array::AArray;
use crate::keys::KeySet;
use crate::matmul::{parallel_flops_threshold, should_parallelize, would_parallelize};
use aarray_algebra::{BinaryOp, DynOpPair, OpPair, Value};
use aarray_obs::{
    counters, histograms, journal, memstats, Counter, EventKind, Hist, MemRegion, MemReservation,
    OpKind, OpToken, Stage,
};
use aarray_sparse::spgemm_multi::spgemm_multi_numeric;
use aarray_sparse::symbolic::{spgemm_symbolic, SymbolicProduct};
use aarray_sparse::EdgeGather;
use std::sync::OnceLock;

/// A prepared construction product `C = Eᵀout ⊕.⊗ Ein`: operands
/// aligned and gathered, ready to execute under any number of operator
/// pairs.
///
/// Built by [`AArray::transpose_matmul_plan`]. See the
/// [module docs](self) for what is cached.
pub struct MatmulPlan<'a, V: Value> {
    row_keys: KeySet,
    col_keys: KeySet,
    gather: EdgeGather<'a, V>,
    sym: OnceLock<SymbolicProduct>,
    /// Accounting guard for the memoized pattern's bytes, set together
    /// with `sym` and released when the plan drops.
    sym_mem: OnceLock<MemReservation>,
    /// Accounting guard for the gathered rows' bytes.
    _gather_mem: MemReservation,
}

impl<'a, V: Value> MatmulPlan<'a, V> {
    /// The result's row key set.
    pub fn row_keys(&self) -> &KeySet {
        &self.row_keys
    }

    /// The result's column key set.
    pub fn col_keys(&self) -> &KeySet {
        &self.col_keys
    }

    /// The result shape `(|K1|, |K2|)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.row_keys.len(), self.col_keys.len())
    }

    /// The exact multiply-add count a numeric pass will perform —
    /// the dispatch estimate shared with [`AArray::matmul`].
    pub fn flops(&self) -> u64 {
        self.gather.flops()
    }

    /// The memoized symbolic (structural) product pattern, computed on
    /// first use. Algebra-independent, so one pattern serves every
    /// subsequent [`MatmulPlan::execute`] / [`MatmulPlan::execute_all`].
    /// The pass runs row-parallel under the numeric pass's flops gate
    /// ([`would_parallelize`]), so a small product never enters the pool;
    /// the gate is evaluated without a dispatch-audit record.
    ///
    /// A call that computes the pattern outside any other operation is
    /// a [`OpKind::PlanBuild`] ledger op of its own, so its time is
    /// billed to the plan; a warm call opens none.
    pub fn symbolic(&self) -> &SymbolicProduct {
        if let Some(sym) = self.sym.get() {
            counters().incr(Counter::PlanSymbolicHit);
            journal().record(EventKind::PlanCacheHit, self.flops(), sym.nnz() as u64);
            return sym;
        }
        self.sym.get_or_init(|| {
            let op = OpToken::begin_if_root(OpKind::PlanBuild);
            counters().incr(Counter::PlanSymbolicMiss);
            let flops = self.flops();
            journal().begin(Stage::Symbolic, flops);
            let parallel = would_parallelize(
                flops,
                parallel_flops_threshold(),
                rayon::current_num_threads(),
            );
            let sym = spgemm_symbolic(&self.gather, parallel);
            journal().end(Stage::Symbolic, flops);
            journal().record(EventKind::PlanCacheMiss, flops, sym.nnz() as u64);
            let _ = self
                .sym_mem
                .set(memstats().track(MemRegion::PlanSymbolic, sym.heap_bytes()));
            if let Some(mut t) = op {
                t.set_flops(flops);
                t.finish();
            }
            sym
        })
    }

    /// Whether the memoized symbolic pattern has been computed yet.
    /// A fresh plan starts cold; any execute warms it.
    pub fn symbolic_computed(&self) -> bool {
        self.sym.get().is_some()
    }

    /// Execute the plan under one statically-typed pair. Bit-identical
    /// to the equivalent [`AArray::matmul`] call.
    pub fn execute<A, M>(&self, pair: &OpPair<V, A, M>) -> AArray<V>
    where
        A: BinaryOp<V>,
        M: BinaryOp<V>,
    {
        let dyn_pair: &dyn DynOpPair<V> = pair;
        self.execute_all(&[dyn_pair])
            .pop()
            .expect("one pair in, one result out")
    }

    /// Execute the plan under `K` heterogeneous pairs with **one**
    /// fused numeric traversal of the gathered rows (row-parallel when
    /// the flops estimate warrants it). Output `p` is bit-identical to
    /// `execute(pairs[p])` — and to the equivalent [`AArray::matmul`] —
    /// for arbitrary operations.
    pub fn execute_all(&self, pairs: &[&dyn DynOpPair<V>]) -> Vec<AArray<V>> {
        // Open the ledger op before the symbolic pass so a cold plan's
        // symbolic span lands inside the op's journal window.
        let mut op = OpToken::begin_if_root(OpKind::PlanExecute);
        let sym = self.symbolic();
        let flops = self.flops();
        let parallel = should_parallelize(flops);
        let c = counters();
        c.add(Counter::FlopsTotal, flops);
        c.incr(Counter::PlanTransposeReused);
        journal().begin(Stage::Numeric, flops);
        let data = spgemm_multi_numeric(sym, &self.gather, pairs, parallel);
        journal().end(Stage::Numeric, flops);
        crate::publish_pool_stats();
        if let Some(t) = op.as_mut() {
            t.set_flops(flops);
            t.set_lanes(pairs.len() as u64);
            t.set_out_nnz(data.iter().map(|c| c.nnz() as u64).sum());
            t.set_dispatch(parallel, rayon::current_num_threads() as u64);
        }
        let results = data
            .into_iter()
            .map(|csr| AArray::from_parts(self.row_keys.clone(), self.col_keys.clone(), csr))
            .collect();
        if let Some(t) = op {
            t.finish();
        }
        results
    }
}

impl<V: Value> AArray<V> {
    /// Prepare `selfᵀ ⊕.⊗ other` — the adjacency-construction shape
    /// `Eᵀout ⊕.⊗ Ein` — for repeated execution: key alignment and the
    /// edge-major gather of `self` against `other` run now, the
    /// symbolic pattern on first use; none is redone per pair. See
    /// [`MatmulPlan`].
    pub fn transpose_matmul_plan<'a>(&self, other: &'a AArray<V>) -> MatmulPlan<'a, V> {
        let op = OpToken::begin_if_root(OpKind::PlanBuild);
        let nnz_in = self.nnz() as u64 + other.nnz() as u64;
        journal().begin(Stage::Align, nnz_in);
        // The edges both operands list, as (self row, other row) pairs.
        let aligned = (self.row_keys() != other.row_keys()).then(|| {
            let (_, out_rows, in_rows) = self.row_keys().intersect(other.row_keys());
            (out_rows, in_rows)
        });
        journal().end(Stage::Align, nnz_in);
        // The gather is laid out edge block by edge block on the pool
        // when the entries it lays out pass the dispatch threshold.
        let parallel = would_parallelize(
            self.nnz() as u64,
            parallel_flops_threshold(),
            rayon::current_num_threads(),
        );
        journal().begin(Stage::Transpose, self.nnz() as u64);
        let gather = EdgeGather::new(
            self.csr(),
            other.csr(),
            aligned.as_ref().map(|(o, i)| (&o[..], &i[..])),
            parallel,
        );
        journal().end(Stage::Transpose, self.nnz() as u64);
        counters().incr(Counter::PlanTransposeBuilt);
        let gather_mem = memstats().track(MemRegion::PlanTranspose, gather.heap_bytes());
        // One `dispatch.flops` record per plan, on any pool size: its
        // executes reuse the estimate and record nothing.
        histograms().record(Hist::DispatchFlops, gather.flops());
        if let Some(mut t) = op {
            t.set_flops(gather.flops());
            t.finish();
        }
        MatmulPlan {
            row_keys: self.col_keys().clone(),
            col_keys: other.col_keys().clone(),
            gather,
            sym: OnceLock::new(),
            sym_mem: OnceLock::new(),
            _gather_mem: gather_mem,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aarray_algebra::ops::{AbsDiff, Times};
    use aarray_algebra::pairs::{MaxMin, MinPlus, PlusTimes};
    use aarray_algebra::values::nat::Nat;
    use aarray_obs::{oplog, workload_label, OpRecord, StageReport};

    fn pt() -> PlusTimes<Nat> {
        PlusTimes::new()
    }

    /// The plan of the general product `a ⊕.⊗ b`: `aᵀ`'s gather
    /// against `b`.
    fn plan_of<'b>(a: &AArray<Nat>, b: &'b AArray<Nat>) -> MatmulPlan<'b, Nat> {
        a.transpose().transpose_matmul_plan(b)
    }

    fn operands() -> (AArray<Nat>, AArray<Nat>) {
        let pair = pt();
        let a = AArray::from_triples(
            &pair,
            [
                ("r1", "k1", Nat(2)),
                ("r1", "k2", Nat(3)),
                ("r2", "k2", Nat(5)),
                ("r2", "k3", Nat(1)),
            ],
        );
        let b = AArray::from_triples(
            &pair,
            [
                ("k1", "c1", Nat(7)),
                ("k2", "c1", Nat(1)),
                ("k2", "c2", Nat(4)),
                ("k3", "c2", Nat(9)),
            ],
        );
        (a, b)
    }

    #[test]
    fn plan_execute_matches_matmul_shared_keys() {
        let (a, b) = operands();
        let plan = plan_of(&a, &b);
        assert_eq!(plan.shape(), (2, 2));
        for_each_pair_check(&plan, &a, &b);
    }

    fn for_each_pair_check(plan: &MatmulPlan<'_, Nat>, a: &AArray<Nat>, b: &AArray<Nat>) {
        let p1 = pt();
        let p2 = MaxMin::<Nat>::new();
        let p3 = MinPlus::<Nat>::new();
        assert_eq!(plan.execute(&p1), a.matmul(b, &p1));
        assert_eq!(plan.execute(&p2), a.matmul(b, &p2));
        assert_eq!(plan.execute(&p3), a.matmul(b, &p3));
    }

    #[test]
    fn plan_execute_matches_matmul_misaligned_keys() {
        let pair = pt();
        // a's columns {k1, k2, k3}; b's rows {k2, k3, k4}: align {k2, k3}.
        let a = AArray::from_triples(
            &pair,
            [
                ("r", "k1", Nat(100)),
                ("r", "k2", Nat(2)),
                ("r", "k3", Nat(3)),
            ],
        );
        let b = AArray::from_triples(
            &pair,
            [
                ("k2", "c", Nat(10)),
                ("k3", "c", Nat(10)),
                ("k4", "c", Nat(100)),
            ],
        );
        let plan = plan_of(&a, &b);
        let c = plan.execute(&pair);
        assert_eq!(c, a.matmul(&b, &pair));
        assert_eq!(c.get("r", "c"), Some(&Nat(50)));
    }

    #[test]
    fn execute_all_is_bit_identical_per_lane() {
        let (a, b) = operands();
        let plan = plan_of(&a, &b);
        let p1 = pt();
        let p2 = MaxMin::<Nat>::new();
        let ad: OpPair<Nat, AbsDiff, Times> = OpPair::new(); // non-associative ⊕
        let pairs: [&dyn DynOpPair<Nat>; 3] = [&p1, &p2, &ad];
        let all = plan.execute_all(&pairs);
        assert_eq!(all.len(), 3);
        assert_eq!(all[0], a.matmul(&b, &p1));
        assert_eq!(all[1], a.matmul(&b, &p2));
        assert_eq!(all[2], a.matmul(&b, &ad));
    }

    #[test]
    fn transpose_plan_matches_explicit_transpose() {
        let pair = pt();
        // Incidence shape: edges × vertices.
        let eout = AArray::from_triples(&pair, [("e1", "a", Nat(1)), ("e2", "a", Nat(1))]);
        let ein = AArray::from_triples(&pair, [("e1", "b", Nat(1)), ("e2", "c", Nat(1))]);
        let plan = eout.transpose_matmul_plan(&ein);
        let adj = plan.execute(&pair);
        assert_eq!(adj, eout.transpose().matmul(&ein, &pair));
        assert_eq!(adj.get("a", "b"), Some(&Nat(1)));
        assert_eq!(adj.get("a", "c"), Some(&Nat(1)));
    }

    #[test]
    fn symbolic_pattern_is_memoized() {
        let (a, b) = operands();
        let plan = plan_of(&a, &b);
        let first = plan.symbolic() as *const SymbolicProduct;
        let _ = plan.execute(&pt());
        let second = plan.symbolic() as *const SymbolicProduct;
        assert_eq!(first, second, "symbolic pass must run at most once");
    }

    #[test]
    fn empty_pair_list_yields_no_arrays() {
        let (a, b) = operands();
        let plan = plan_of(&a, &b);
        assert!(plan.execute_all(&[]).is_empty());
    }

    #[test]
    fn flops_counts_aligned_terms() {
        let (a, b) = operands();
        let plan = plan_of(&a, &b);
        // r1: k1 (1 b-entry) + k2 (2) = 3; r2: k2 (2) + k3 (1) = 3.
        assert_eq!(plan.flops(), 6);
    }

    #[test]
    fn fresh_plan_starts_symbolically_cold() {
        let (a, b) = operands();
        let plan = plan_of(&a, &b);
        assert!(!plan.symbolic_computed(), "no execute yet: must be cold");
        let _ = plan.execute(&pt());
        assert!(plan.symbolic_computed(), "execute must warm the pattern");
    }

    #[test]
    fn symbolic_counters_record_miss_then_hits() {
        use aarray_obs::snapshot;
        let (a, b) = operands();
        let plan = plan_of(&a, &b);
        let cold = snapshot();
        let _ = plan.execute(&pt());
        let warm = snapshot().since(&cold);
        // First traversal computes the pattern: ≥ because other tests
        // share the process-global registry.
        assert!(warm.get(Counter::PlanSymbolicMiss) >= 1, "{}", warm);

        let after_first = snapshot();
        let _ = plan.execute(&pt());
        let p2 = MaxMin::<Nat>::new();
        let _ = plan.execute_all(&[&pt() as &dyn DynOpPair<Nat>, &p2]);
        let reused = snapshot().since(&after_first);
        assert!(
            reused.get(Counter::PlanSymbolicHit) >= 2,
            "both repeat traversals must hit the memoized pattern: {}",
            reused
        );
    }

    /// The ledger records since `start` carrying this thread's workload
    /// label. Each test installs a label of its own, so exact counts
    /// hold under the parallel test runner.
    fn ops_since(start: u64) -> Vec<OpRecord> {
        oplog()
            .labeled_window(start, oplog().cursor())
            .expect("ledger window intact")
    }

    #[test]
    fn profile_records_each_stage_per_plan() {
        let _label = workload_label("plan::tests::profile_records_each_stage_per_plan");
        let pair = pt();
        let eout = AArray::from_triples(&pair, [("e1", "a", Nat(1)), ("e2", "a", Nat(1))]);
        let ein = AArray::from_triples(&pair, [("e1", "b", Nat(1)), ("e2", "c", Nat(1))]);
        let start = oplog().cursor();
        let plan = eout.transpose_matmul_plan(&ein);
        let built = ops_since(start);
        assert_eq!(built.len(), 1);
        assert_eq!(built[0].kind, OpKind::PlanBuild);
        assert!(built[0].align_ns + built[0].transpose_ns > 0);
        assert_eq!(built[0].symbolic_ns, 0, "symbolic is lazy");

        let _ = plan.execute(&pair);
        let p2 = MaxMin::<Nat>::new();
        let _ = plan.execute_all(&[&pair as &dyn DynOpPair<Nat>, &p2]);
        let ran = ops_since(start);
        let execs = &ran[1..];
        assert_eq!(execs.len(), 2);
        assert!(execs.iter().all(|r| r.kind == OpKind::PlanExecute));
        assert!(
            execs[0].symbolic_ns > 0,
            "the first execute fills the pattern"
        );
        assert_eq!(execs[1].symbolic_ns, 0, "the second hits the memo");
        assert_eq!((execs[0].lanes, execs[1].lanes), (1, 2));
        assert_eq!(execs[0].flops, plan.flops());
        let report = StageReport::from_records(&ran);
        assert_eq!(report.numeric.len(), 2);
        assert!(report.total_ns() > 0);
    }

    #[test]
    fn cold_symbolic_call_is_a_plan_build_op() {
        let _label = workload_label("plan::tests::cold_symbolic_call_is_a_plan_build_op");
        let (a, b) = operands();
        let plan = plan_of(&a, &b);
        let start = oplog().cursor();
        let _ = plan.symbolic();
        let cold = ops_since(start);
        assert_eq!(cold.len(), 1, "a cold call is one op");
        assert_eq!(cold[0].kind, OpKind::PlanBuild);
        assert!(cold[0].symbolic_ns > 0, "its symbolic span is billed to it");
        assert_eq!(cold[0].flops, plan.flops());
        let warm = oplog().cursor();
        let _ = plan.symbolic();
        assert!(ops_since(warm).is_empty(), "a warm call opens no op");
    }

    #[test]
    fn plan_latency_histograms_and_memory_recorded() {
        let _label = workload_label("plan::tests::plan_latency_histograms_and_memory_recorded");
        let (a, b) = operands();
        let start = oplog().cursor();
        let tails_before = oplog().report();
        let flops_before = histograms().get(Hist::DispatchFlops).snapshot();
        let plan = plan_of(&a, &b);
        let _ = plan.execute(&pt());
        let kinds: Vec<OpKind> = ops_since(start).iter().map(|r| r.kind).collect();
        assert_eq!(kinds, [OpKind::PlanBuild, OpKind::PlanExecute]);
        // The ledger's per-kind wall-time tails are the plan latencies
        // (≥: sibling tests record plan ops concurrently).
        let tails = oplog().report().since(&tails_before);
        assert!(tails.count(OpKind::PlanBuild) >= 1);
        assert!(tails.count(OpKind::PlanExecute) >= 1);
        let flops = histograms()
            .get(Hist::DispatchFlops)
            .snapshot()
            .since(&flops_before);
        assert!(flops.count() >= 1);
        assert!(flops.max >= 6, "this plan's estimate is exactly 6 flops");
        // The memoized pattern's bytes stay accounted while the plan
        // lives (≥: sibling tests hold their own plans concurrently).
        assert!(memstats().current(MemRegion::PlanSymbolic) >= 1);
        drop(plan);
        assert!(memstats().peak(MemRegion::PlanSymbolic) >= 1);
    }

    #[test]
    fn transpose_plan_memory_is_accounted() {
        let pair = pt();
        let eout = AArray::from_triples(&pair, [("e1", "a", Nat(1)), ("e2", "a", Nat(1))]);
        let ein = AArray::from_triples(&pair, [("e1", "b", Nat(1)), ("e2", "c", Nat(1))]);
        let _plan = eout.transpose_matmul_plan(&ein);
        assert!(
            memstats().peak(MemRegion::PlanTranspose) >= 1,
            "plan-owned transpose reported its heap bytes"
        );
    }

    #[test]
    fn transpose_plan_counts_build_and_reuse() {
        use aarray_obs::snapshot;
        let pair = pt();
        let eout = AArray::from_triples(&pair, [("e1", "a", Nat(1)), ("e2", "a", Nat(1))]);
        let ein = AArray::from_triples(&pair, [("e1", "b", Nat(1)), ("e2", "c", Nat(1))]);
        let before = snapshot();
        let plan = eout.transpose_matmul_plan(&ein);
        let _ = plan.execute(&pair);
        let _ = plan.execute(&pair);
        let delta = snapshot().since(&before);
        assert!(delta.get(Counter::PlanTransposeBuilt) >= 1, "{}", delta);
        assert!(
            delta.get(Counter::PlanTransposeReused) >= 2,
            "each traversal reuses the plan-owned transpose: {}",
            delta
        );
    }
}
