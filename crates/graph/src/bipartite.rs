//! Bipartite projection — the general form of the paper's evaluation.
//!
//! Figures 3/5 correlate genres with writers through shared tracks:
//! `A = E1ᵀ ⊕.⊗ E2` where `E1`, `E2` slice one incidence array by
//! attribute family. This module packages that pattern: given an
//! entity×attribute incidence array and two attribute selections,
//! produce the attribute×attribute co-occurrence graph under any pair.

use aarray_algebra::{BinaryOp, DynOpPair, OpPair, Value};
use aarray_core::{AArray, KeySelect};

/// Project an entity×attribute incidence array onto
/// `left_attrs × right_attrs`, correlating through shared entities:
/// `E(:, left)ᵀ ⊕.⊗ E(:, right)`.
pub fn project<V, A, M>(
    incidence: &AArray<V>,
    left_attrs: &KeySelect,
    right_attrs: &KeySelect,
    pair: &OpPair<V, A, M>,
) -> AArray<V>
where
    V: Value,
    A: BinaryOp<V>,
    M: BinaryOp<V>,
{
    let e1 = incidence.select(&KeySelect::All, left_attrs);
    let e2 = incidence.select(&KeySelect::All, right_attrs);
    e1.transpose_matmul_plan(&e2).execute(pair)
}

/// [`project`] under `K` heterogeneous pairs at once: the slicing, key
/// alignment, edge-major gather, and sparsity pattern are computed once,
/// and a single fused traversal feeds every algebra's accumulator
/// (`MatmulPlan::execute_all`). Output `p` is bit-identical to
/// `project(incidence, left_attrs, right_attrs, pairs[p])`.
pub fn project_multi<V: Value>(
    incidence: &AArray<V>,
    left_attrs: &KeySelect,
    right_attrs: &KeySelect,
    pairs: &[&dyn DynOpPair<V>],
) -> Vec<AArray<V>> {
    let e1 = incidence.select(&KeySelect::All, left_attrs);
    let e2 = incidence.select(&KeySelect::All, right_attrs);
    e1.transpose_matmul_plan(&e2).execute_all(pairs)
}

/// Self-projection: `E(:, attrs)ᵀ ⊕.⊗ E(:, attrs)` — the co-occurrence
/// graph within one attribute family (writers co-crediting tracks,
/// genres co-assigned, …). The diagonal carries each attribute's
/// self-correlation (its degree under `+.×`).
pub fn co_occurrence<V, A, M>(
    incidence: &AArray<V>,
    attrs: &KeySelect,
    pair: &OpPair<V, A, M>,
) -> AArray<V>
where
    V: Value,
    A: BinaryOp<V>,
    M: BinaryOp<V>,
{
    project(incidence, attrs, attrs, pair)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aarray_algebra::pairs::PlusTimes;
    use aarray_algebra::values::nat::Nat;

    fn incidence() -> AArray<Nat> {
        AArray::from_triples(
            &PlusTimes::<Nat>::new(),
            [
                ("t1", "Genre|Pop", Nat(1)),
                ("t1", "Writer|Ann", Nat(1)),
                ("t1", "Writer|Bob", Nat(1)),
                ("t2", "Genre|Pop", Nat(1)),
                ("t2", "Writer|Ann", Nat(1)),
                ("t3", "Genre|Rock", Nat(1)),
                ("t3", "Writer|Bob", Nat(1)),
            ],
        )
    }

    #[test]
    fn genre_writer_projection() {
        let pair = PlusTimes::<Nat>::new();
        let a = project(
            &incidence(),
            &KeySelect::Prefix("Genre|".into()),
            &KeySelect::Prefix("Writer|".into()),
            &pair,
        );
        assert_eq!(a.get("Genre|Pop", "Writer|Ann"), Some(&Nat(2)));
        assert_eq!(a.get("Genre|Pop", "Writer|Bob"), Some(&Nat(1)));
        assert_eq!(a.get("Genre|Rock", "Writer|Bob"), Some(&Nat(1)));
        assert_eq!(a.get("Genre|Rock", "Writer|Ann"), None);
    }

    #[test]
    fn writer_co_occurrence() {
        let pair = PlusTimes::<Nat>::new();
        let a = co_occurrence(&incidence(), &KeySelect::Prefix("Writer|".into()), &pair);
        // Ann and Bob co-credit t1 only.
        assert_eq!(a.get("Writer|Ann", "Writer|Bob"), Some(&Nat(1)));
        assert_eq!(a.get("Writer|Bob", "Writer|Ann"), Some(&Nat(1)));
        // Diagonal = degree.
        assert_eq!(a.get("Writer|Ann", "Writer|Ann"), Some(&Nat(2)));
        assert_eq!(a.get("Writer|Bob", "Writer|Bob"), Some(&Nat(2)));
    }

    #[test]
    fn project_multi_matches_per_pair_projections() {
        use aarray_algebra::pairs::{MaxMin, MinPlus};
        let pt = PlusTimes::<Nat>::new();
        let mm = MaxMin::<Nat>::new();
        let mp = MinPlus::<Nat>::new();
        let left = KeySelect::Prefix("Genre|".into());
        let right = KeySelect::Prefix("Writer|".into());
        let inc = incidence();
        let pairs: [&dyn DynOpPair<Nat>; 3] = [&pt, &mm, &mp];
        let fused = project_multi(&inc, &left, &right, &pairs);
        assert_eq!(fused.len(), 3);
        assert_eq!(fused[0], project(&inc, &left, &right, &pt));
        assert_eq!(fused[1], project(&inc, &left, &right, &mm));
        assert_eq!(fused[2], project(&inc, &left, &right, &mp));
    }

    #[test]
    fn projection_is_symmetric_for_commutative_times() {
        let pair = PlusTimes::<Nat>::new();
        let a = co_occurrence(&incidence(), &KeySelect::Prefix("Writer|".into()), &pair);
        assert_eq!(a, a.transpose());
    }

    #[test]
    fn matches_paper_workload_shape() {
        // Same computation as Figure 3 via the generic projector.
        use aarray_algebra::values::nn::{nn, NN};
        use aarray_d4m::music::{music_e1, music_e2, music_incidence};
        let pair = PlusTimes::<NN>::new();
        let a = project(
            &music_incidence(),
            &KeySelect::Range {
                lo: "Genre|A".into(),
                hi: "Genre|Z".into(),
            },
            &KeySelect::Range {
                lo: "Writer|A".into(),
                hi: "Writer|Z".into(),
            },
            &pair,
        );
        let direct = music_e1().transpose().matmul(&music_e2(), &pair);
        assert_eq!(a, direct);
        assert_eq!(a.get("Genre|Pop", "Writer|Chad Anderson"), Some(&nn(13.0)));
    }
}
