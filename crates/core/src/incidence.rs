//! Adjacency-array construction from incidence arrays — the paper's
//! primary operation, in three trust levels:
//!
//! * [`adjacency_array`] — compile-time proof: requires the operator
//!   pair to carry the [`AdjacencyCompatible`] marker (Theorem II.1's
//!   three conditions), so the nonzero pattern of the result is
//!   *guaranteed* to be the graph's edge pattern.
//! * [`adjacency_array_checked`] — runtime validation: checks the
//!   conditions over the values actually present in the incidence
//!   arrays (plus zero), and refuses with a witness if any fails. This
//!   also accommodates the paper's Section III observation that
//!   *structured* data can be safe under non-compliant pairs — the
//!   check is against the data's value population, not all of `V`.
//! * [`adjacency_array_unchecked`] — no guarantee: for experiments on
//!   the necessity direction (watch the pattern break).

use crate::array::AArray;
use crate::plan::MatmulPlan;
use aarray_algebra::properties::{check_pair_on, PropertyReport, Witness};
use aarray_algebra::{AdjacencyCompatible, BinaryOp, DynOpPair, OpPair, Value};
use std::fmt;

/// `A = Eᵀout ⊕.⊗ Ein` under a pair satisfying Theorem II.1.
///
/// `eout` and `ein` are incidence arrays `K × Kout` and `K × Kin`
/// (edge keys in rows, vertex keys in columns — Definition I.4). The
/// result maps `Kout × Kin`, and `A(a, b) ≠ 0` iff some edge runs
/// `a → b`.
///
/// Non-compliant pairs are rejected **at compile time**. `+.×` over ℤ
/// is not zero-sum-free (Lemma II.2's counterexample), so this does not
/// build:
///
/// ```compile_fail
/// use aarray_core::prelude::*;
/// let pair: PlusTimes<i64> = PlusTimes::new();
/// let eout = AArray::from_triples(&pair, [("e1", "a", 1i64)]);
/// let ein = AArray::from_triples(&pair, [("e1", "b", 1i64)]);
/// let _ = adjacency_array(&eout, &ein, &pair); // ERROR: not AdjacencyCompatible
/// ```
pub fn adjacency_array<V, A, M>(
    eout: &AArray<V>,
    ein: &AArray<V>,
    pair: &OpPair<V, A, M>,
) -> AArray<V>
where
    V: Value,
    A: BinaryOp<V>,
    M: BinaryOp<V>,
    OpPair<V, A, M>: AdjacencyCompatible,
{
    adjacency_plan(eout, ein).execute(pair)
}

/// The reusable [`MatmulPlan`] for `Eᵀout ⊕.⊗ Ein`: the edge-key
/// alignment, the edge-major gather of `eout` against `ein`, and
/// (lazily) the symbolic product pattern are computed once, after which the plan can be executed
/// under any number of `⊕.⊗` pairs — Figure 3's "one pattern, seven
/// algebras" workload as a first-class object. Every `adjacency_array*`
/// entry point in this module routes through such a plan.
///
/// Compliance is *not* checked here — the plan is algebra-agnostic.
/// Check each pair at its trust level ([`AdjacencyCompatible`] bound,
/// [`adjacency_array_checked`], …) or use the result pattern verifier.
pub fn adjacency_plan<'a, V: Value>(eout: &AArray<V>, ein: &'a AArray<V>) -> MatmulPlan<'a, V> {
    eout.transpose_matmul_plan(ein)
}

/// `Eᵀout ⊕.⊗ Ein` under `K` heterogeneous pairs at once, via one plan
/// and one fused numeric traversal (`aarray_sparse::spgemm_multi`).
/// Output `p` is bit-identical to
/// `adjacency_array_unchecked(eout, ein, pairs[p])` — and carries the
/// same **no-guarantee** caveat: each pair's compliance with Theorem
/// II.1 is the caller's business.
pub fn adjacency_arrays_multi<V: Value>(
    eout: &AArray<V>,
    ein: &AArray<V>,
    pairs: &[&dyn DynOpPair<V>],
) -> Vec<AArray<V>> {
    adjacency_plan(eout, ein).execute_all(pairs)
}

/// `Eᵀin ⊕.⊗ Eout` — by Corollary III.1, the adjacency array of the
/// **reverse** graph, under the same conditions.
pub fn reverse_adjacency_array<V, A, M>(
    eout: &AArray<V>,
    ein: &AArray<V>,
    pair: &OpPair<V, A, M>,
) -> AArray<V>
where
    V: Value,
    A: BinaryOp<V>,
    M: BinaryOp<V>,
    OpPair<V, A, M>: AdjacencyCompatible,
{
    adjacency_plan(ein, eout).execute(pair)
}

/// The same product with **no** compliance guarantee. The returned
/// array's nonzero pattern may under- or over-report edges if the pair
/// violates Theorem II.1 — that is the point of the necessity
/// experiments.
pub fn adjacency_array_unchecked<V, A, M>(
    eout: &AArray<V>,
    ein: &AArray<V>,
    pair: &OpPair<V, A, M>,
) -> AArray<V>
where
    V: Value,
    A: BinaryOp<V>,
    M: BinaryOp<V>,
{
    adjacency_plan(eout, ein).execute(pair)
}

/// Why [`adjacency_array_checked`] refused to build.
#[derive(Clone, Debug)]
pub struct ComplianceError<V: Value> {
    /// The full property report, including witnesses.
    pub report: PropertyReport<V>,
}

impl<V: Value + fmt::Display> fmt::Display for ComplianceError<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "operator pair {} violates Theorem II.1 on the data's values: ",
            self.report.pair_name
        )?;
        for w in self.report.witnesses() {
            write!(f, "[{}] ", w)?;
        }
        Ok(())
    }
}

impl<V: Value + fmt::Display> std::error::Error for ComplianceError<V> {}

impl<V: Value> ComplianceError<V> {
    /// The witnesses that refuted compliance.
    pub fn witnesses(&self) -> Vec<&Witness<V>> {
        self.report.witnesses()
    }
}

/// Runtime-validated construction: verifies the three conditions over
/// the closure-ish population `{values of Eout} ∪ {values of Ein} ∪
/// {their pairwise ⊗ products} ∪ {0, 1}` before multiplying.
///
/// This is the paper's Section III escape hatch made precise: a pair
/// with zero divisors in general (e.g. `∪.∩` on word sets) passes when
/// the *data* never multiplies disjoint non-empty sets.
pub fn adjacency_array_checked<V, A, M>(
    eout: &AArray<V>,
    ein: &AArray<V>,
    pair: &OpPair<V, A, M>,
) -> Result<AArray<V>, ComplianceError<V>>
where
    V: Value,
    A: BinaryOp<V>,
    M: BinaryOp<V>,
{
    let mut population: Vec<V> = Vec::new();
    let push_unique = |v: V, pop: &mut Vec<V>| {
        if !pop.contains(&v) {
            pop.push(v);
        }
    };
    for (_, _, v) in eout.iter() {
        push_unique(v.clone(), &mut population);
    }
    for (_, _, v) in ein.iter() {
        push_unique(v.clone(), &mut population);
    }
    // Products that the multiplication will actually form (and a layer
    // of their ⊕-sums arises in check_pair_on's pairwise scan).
    let snapshot = population.clone();
    for a in &snapshot {
        for b in &snapshot {
            push_unique(pair.times(a, b), &mut population);
        }
    }
    push_unique(pair.zero(), &mut population);
    push_unique(pair.one(), &mut population);

    let report = check_pair_on(pair, &population);
    if report.adjacency_compatible() {
        Ok(adjacency_array_unchecked(eout, ein, pair))
    } else {
        Err(ComplianceError { report })
    }
}

/// Why [`adjacency_array_verified`] rejected a product.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PatternError {
    /// `(out, in)` pairs connected by an edge but zero in the product.
    pub missing: Vec<(String, String)>,
    /// Nonzero product entries with no connecting edge.
    pub phantom: Vec<(String, String)>,
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "product is not an adjacency array: {} edges missing, {} phantom entries",
            self.missing.len(),
            self.phantom.len()
        )
    }
}

impl std::error::Error for PatternError {}

/// Exact post-hoc verification: computes `Eᵀout ⊕.⊗ Ein` and compares
/// its nonzero pattern against the ground truth `∃k: Eout(k,a) ≠ 0 ∧
/// Ein(k,b) ≠ 0` (the paper's Equation 1), evaluated via the Boolean
/// `∨.∧` pair on the stored patterns.
///
/// Unlike [`adjacency_array_checked`] — which conservatively requires
/// the three conditions on the data's value population — this accepts
/// every case where the product *happens* to be correct, including
/// Section III's structured `∪.∩` corpora, where disjoint non-empty
/// sets *are* intersected (a zero product of nonzeros!) but `⊕ = ∪`
/// redundancy restores the pattern.
pub fn adjacency_array_verified<V, A, M>(
    eout: &AArray<V>,
    ein: &AArray<V>,
    pair: &OpPair<V, A, M>,
) -> Result<AArray<V>, PatternError>
where
    V: Value,
    A: BinaryOp<V>,
    M: BinaryOp<V>,
{
    let product = adjacency_array_unchecked(eout, ein, pair);

    let bpair = aarray_algebra::pairs::OrAnd::new();
    let eout_pat = eout.map(|_| true);
    let ein_pat = ein.map(|_| true);
    let truth = eout_pat.transpose().matmul(&ein_pat, &bpair);

    let mut err = PatternError::default();
    for (r, c, _) in truth.iter() {
        if product.get(r, c).is_none() {
            err.missing.push((r.to_string(), c.to_string()));
        }
    }
    for (r, c, _) in product.iter() {
        if truth.get(r, c).is_none() {
            err.phantom.push((r.to_string(), c.to_string()));
        }
    }
    if err.missing.is_empty() && err.phantom.is_empty() {
        Ok(product)
    } else {
        Err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aarray_algebra::pairs::{MaxMin, PlusTimes, UnionIntersect};
    use aarray_algebra::values::nat::Nat;
    use aarray_algebra::values::wordset::WordSet;

    fn simple_incidence() -> (AArray<Nat>, AArray<Nat>, PlusTimes<Nat>) {
        let pair = PlusTimes::<Nat>::new();
        // e1: a→b, e2: a→c, e3: b→c.
        let eout = AArray::from_triples(
            &pair,
            [
                ("e1", "a", Nat(1)),
                ("e2", "a", Nat(1)),
                ("e3", "b", Nat(1)),
            ],
        );
        let ein = AArray::from_triples(
            &pair,
            [
                ("e1", "b", Nat(1)),
                ("e2", "c", Nat(1)),
                ("e3", "c", Nat(1)),
            ],
        );
        (eout, ein, pair)
    }

    #[test]
    fn adjacency_matches_edges() {
        let (eout, ein, pair) = simple_incidence();
        let a = adjacency_array(&eout, &ein, &pair);
        assert_eq!(a.get("a", "b"), Some(&Nat(1)));
        assert_eq!(a.get("a", "c"), Some(&Nat(1)));
        assert_eq!(a.get("b", "c"), Some(&Nat(1)));
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn reverse_adjacency_is_reverse_graph() {
        let (eout, ein, pair) = simple_incidence();
        let rev = reverse_adjacency_array(&eout, &ein, &pair);
        assert_eq!(rev.get("b", "a"), Some(&Nat(1)));
        assert_eq!(rev.get("c", "a"), Some(&Nat(1)));
        assert_eq!(rev.get("c", "b"), Some(&Nat(1)));
        assert_eq!(rev.nnz(), 3);
        // And it equals the transpose of the forward array here, since
        // +.× is commutative (Section III's caveat does not bite).
        let fwd = adjacency_array(&eout, &ein, &pair);
        assert_eq!(rev, fwd.transpose());
    }

    #[test]
    fn parallel_edges_aggregate_under_plus_times() {
        let pair = PlusTimes::<Nat>::new();
        let eout = AArray::from_triples(&pair, [("e1", "a", Nat(2)), ("e2", "a", Nat(3))]);
        let ein = AArray::from_triples(&pair, [("e1", "b", Nat(1)), ("e2", "b", Nat(1))]);
        let a = adjacency_array(&eout, &ein, &pair);
        assert_eq!(a.get("a", "b"), Some(&Nat(5)));
    }

    #[test]
    fn checked_accepts_compliant_pair() {
        let (eout, ein, pair) = simple_incidence();
        let a = adjacency_array_checked(&eout, &ein, &pair).expect("compliant");
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn checked_rejects_ring_cancellation() {
        let pair: PlusTimes<i64> = OpPair::new();
        let eout = AArray::from_triples(&pair, [("e1", "a", 1i64), ("e2", "a", -1i64)]);
        let ein = AArray::from_triples(&pair, [("e1", "b", 1i64), ("e2", "b", 1i64)]);
        let err = adjacency_array_checked(&eout, &ein, &pair).unwrap_err();
        assert!(!err.witnesses().is_empty());
        let msg = err.to_string();
        assert!(msg.contains("violates Theorem II.1"), "{}", msg);
        // And indeed the unchecked product under-reports the edge.
        let a = adjacency_array_unchecked(&eout, &ein, &pair);
        assert_eq!(a.get("a", "b"), None);
    }

    #[test]
    fn checked_union_intersect_rejects_disjoint_data() {
        let pair = UnionIntersect::<WordSet>::new();
        let eout = AArray::from_triples(&pair, [("e1", "d1", WordSet::of(["x"]))]);
        let ein = AArray::from_triples(&pair, [("e1", "d2", WordSet::of(["y"]))]);
        // {x} ∩ {y} = ∅ is in the product population ⇒ zero divisors.
        assert!(adjacency_array_checked(&eout, &ein, &pair).is_err());
    }

    #[test]
    fn checked_union_intersect_accepts_structured_data() {
        // Section III: arrays whose value sets always share words pass
        // the data-population check even though ∪.∩ is non-compliant in
        // general.
        let pair = UnionIntersect::<WordSet>::new();
        let shared = WordSet::of(["common"]);
        let eout = AArray::from_triples(
            &pair,
            [
                ("e1", "d1", shared.clone()),
                ("e2", "d1", WordSet::of(["common", "extra"])),
            ],
        );
        let ein = AArray::from_triples(&pair, [("e1", "d2", shared.clone()), ("e2", "d3", shared)]);
        let a = adjacency_array_checked(&eout, &ein, &pair).expect("structured data is safe");
        assert_eq!(a.get("d1", "d2"), Some(&WordSet::of(["common"])));
    }

    #[test]
    fn verified_accepts_what_checked_conservatively_rejects() {
        // Disjoint non-empty sets appear among the products, so the
        // conservative check refuses — but ∪-redundancy keeps the
        // pattern exact, which the post-hoc verifier certifies.
        let pair = UnionIntersect::<WordSet>::new();
        let eout = AArray::from_triples(
            &pair,
            [
                ("e1", "x", WordSet::of(["a"])),
                ("e2", "x", WordSet::of(["b"])),
            ],
        );
        let ein = AArray::from_triples(
            &pair,
            [
                ("e1", "y", WordSet::of(["b"])), // {a} ∩ {b} = ∅: zero product
                ("e2", "y", WordSet::of(["b"])), // {b} ∩ {b} rescues the entry
            ],
        );
        assert!(adjacency_array_checked(&eout, &ein, &pair).is_err());
        let a = adjacency_array_verified(&eout, &ein, &pair).expect("pattern is exact");
        assert_eq!(a.get("x", "y"), Some(&WordSet::of(["b"])));
    }

    #[test]
    fn verified_reports_missing_edges() {
        let pair: PlusTimes<i64> = OpPair::new();
        let eout = AArray::from_triples(&pair, [("e1", "a", 1i64), ("e2", "a", -1i64)]);
        let ein = AArray::from_triples(&pair, [("e1", "b", 1i64), ("e2", "b", 1i64)]);
        let err = adjacency_array_verified(&eout, &ein, &pair).unwrap_err();
        assert_eq!(err.missing, vec![("a".to_string(), "b".to_string())]);
        assert!(err.phantom.is_empty());
        assert!(err.to_string().contains("1 edges missing"));
    }

    #[test]
    fn multi_pair_adjacency_matches_per_pair_calls() {
        use aarray_algebra::pairs::MinPlus;
        let (eout, ein, pt) = simple_incidence();
        let mm = MaxMin::<Nat>::new();
        let mp = MinPlus::<Nat>::new();
        let pairs: [&dyn aarray_algebra::DynOpPair<Nat>; 3] = [&pt, &mm, &mp];
        let fused = adjacency_arrays_multi(&eout, &ein, &pairs);
        assert_eq!(fused.len(), 3);
        assert_eq!(fused[0], adjacency_array_unchecked(&eout, &ein, &pt));
        assert_eq!(fused[1], adjacency_array_unchecked(&eout, &ein, &mm));
        assert_eq!(fused[2], adjacency_array_unchecked(&eout, &ein, &mp));
    }

    #[test]
    fn plan_reused_across_trust_levels() {
        let (eout, ein, pair) = simple_incidence();
        let plan = adjacency_plan(&eout, &ein);
        let via_plan = plan.execute(&pair);
        assert_eq!(via_plan, adjacency_array(&eout, &ein, &pair));
        // Second execution reuses alignment + gather + pattern.
        assert_eq!(plan.execute(&pair), via_plan);
    }

    #[test]
    fn max_min_adjacency() {
        let pair = MaxMin::<Nat>::new();
        let eout = AArray::from_triples(&pair, [("e1", "a", Nat(5)), ("e2", "a", Nat(2))]);
        let ein = AArray::from_triples(&pair, [("e1", "b", Nat(3)), ("e2", "b", Nat(9))]);
        let a = adjacency_array(&eout, &ein, &pair);
        // max(min(5,3), min(2,9)) = max(3, 2) = 3.
        assert_eq!(a.get("a", "b"), Some(&Nat(3)));
    }
}
