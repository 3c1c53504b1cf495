//! Adversarial and failure-injection tests: malformed inputs, boundary
//! dimensions, hostile values — the library must fail loudly and
//! precisely, never silently corrupt a pattern.

use aarray_algebra::pairs::{MaxPlus, MinPlus, PlusTimes};
use aarray_algebra::values::nat::Nat;
use aarray_algebra::values::nn::NN;
use aarray_algebra::values::tropical::Tropical;
use aarray_core::{AArray, KeySet};
use aarray_d4m::tsv;
use aarray_sparse::{Coo, Csr};

// --- hostile floats are unrepresentable by construction ---

#[test]
fn nan_and_out_of_domain_floats_cannot_enter() {
    assert!(NN::new(f64::NAN).is_none());
    assert!(NN::new(-1e-300).is_none());
    assert!(Tropical::new(f64::NAN).is_none());
    assert!(Tropical::new(f64::INFINITY).is_none());
    assert!(aarray_algebra::values::unit::Unit::new(f64::NAN).is_none());
    assert!(aarray_algebra::values::unit::Unit::new(1.0 + 1e-9).is_none());
}

#[test]
fn infinity_weights_are_zero_for_min_pairs_and_rejected_as_incidence() {
    // ∞ IS the zero of min.+ on NN; an edge carrying it would be a
    // stored zero, which incidence extraction must reject.
    let pair = MinPlus::<NN>::new();
    let mut g = aarray_graph::MultiGraph::new();
    g.add_edge("e", "a", "b", NN::INF, NN::new(1.0).unwrap());
    let res = std::panic::catch_unwind(|| g.incidence_arrays(&pair));
    assert!(res.is_err(), "∞ incidence under min.+ must panic");

    // The same weight is perfectly legal under max.+ semantics on the
    // tropical carrier (finite there means anything above -∞).
    let tp = MaxPlus::<Tropical>::new();
    let mut g2 = aarray_graph::MultiGraph::new();
    g2.add_edge(
        "e",
        "a",
        "b",
        Tropical::new(0.0).unwrap(),
        Tropical::new(-7.0).unwrap(),
    );
    let (eout, _) = g2.incidence_arrays(&tp);
    assert_eq!(eout.nnz(), 1);
}

// --- malformed serialized inputs ---

#[test]
fn tsv_rejects_malformed_documents() {
    assert!(tsv::from_tsv("").is_none());
    assert!(tsv::from_tsv("notkey\tA\nr\t1\n").is_none());
    assert!(tsv::from_tsv("key\tA\tB\nr\tonly\n").is_none());
}

// --- corrupt raw parts are caught by validation ---

#[test]
fn validate_catches_out_of_sync_keys() {
    let rows = KeySet::from_iter(["r1", "r2"]);
    let cols = KeySet::from_iter(["c1"]);
    // Storage says 3 rows; key set says 2.
    let csr = Csr::<Nat>::empty(3, 1);
    let res = std::panic::catch_unwind(|| AArray::from_parts(rows, cols, csr));
    assert!(res.is_err(), "from_parts must reject mismatched shapes");
}

#[test]
fn validate_for_pair_catches_smuggled_zeros() {
    // Build under min.+ (zero = ∞), where 0.0 is a legitimate value…
    let mp = MinPlus::<NN>::new();
    let a = AArray::from_triples(&mp, [("r", "c", NN::ZERO)]);
    assert!(a.validate_for_pair(&mp).is_ok());
    // …then audit under +.× (zero = 0): the stored 0 is now an
    // implicit-zero violation.
    let pt = PlusTimes::<NN>::new();
    assert!(a.validate_for_pair(&pt).is_err());
}

// --- boundary dimensions ---

#[test]
fn zero_sized_arrays_flow_through_every_operation() {
    let pair = PlusTimes::<Nat>::new();
    let empty = AArray::<Nat>::empty(KeySet::empty(), KeySet::empty());
    assert_eq!(empty.nnz(), 0);
    assert_eq!(empty.transpose().shape(), (0, 0));
    let sel = empty.select_cols_str(":");
    assert_eq!(sel.shape(), (0, 0));
    let sum = empty.ewise_add(&empty, &pair);
    assert_eq!(sum.nnz(), 0);
    let prod = empty.matmul(&empty, &pair);
    assert_eq!(prod.shape(), (0, 0));
    assert!(empty.validate().is_ok());
    assert_eq!(empty.stats().nnz, 0);
}

#[test]
fn single_cell_universe() {
    let pair = PlusTimes::<Nat>::new();
    let a = AArray::from_triples(&pair, [("k", "k", Nat(1))]);
    let sq = a.transpose().matmul(&a, &pair);
    assert_eq!(sq.get("k", "k"), Some(&Nat(1)));
}

// --- saturation boundaries ---

#[test]
fn saturating_arithmetic_cannot_wrap_onto_zero() {
    // The catastrophic failure mode would be MAX+1 → 0, silently
    // deleting an edge. Saturation pins at ⊤ instead; the entry
    // survives.
    let pair = PlusTimes::<Nat>::new();
    let eout = AArray::from_triples(
        &pair,
        [("e1", "a", Nat(u64::MAX)), ("e2", "a", Nat(u64::MAX))],
    );
    let ein = AArray::from_triples(&pair, [("e1", "b", Nat(1)), ("e2", "b", Nat(1))]);
    let a = aarray_core::adjacency_array(&eout, &ein, &pair);
    assert_eq!(a.get("a", "b"), Some(&Nat::TOP));
}

// --- hostile keys ---

#[test]
fn keys_with_separators_and_unicode_survive() {
    let pair = PlusTimes::<Nat>::new();
    let weird = [
        ("key with spaces", "col|with|pipes", Nat(1)),
        ("ключ", "colonne:à:deux-points", Nat(2)),
        ("", "empty-row-key-is-legal", Nat(3)),
    ];
    let a = AArray::from_triples(&pair, weird);
    assert_eq!(a.get("ключ", "colonne:à:deux-points"), Some(&Nat(2)));
    assert_eq!(a.get("", "empty-row-key-is-legal"), Some(&Nat(3)));
    assert!(a.validate().is_ok());
    // Range selection treats them as plain strings.
    let sel = a.select_cols_str("col|a : col|z");
    assert_eq!(sel.col_keys().len(), 1);
}

// --- COO bounds are the first line of defence ---

#[test]
fn coo_rejects_out_of_bounds_immediately() {
    let mut coo = Coo::<Nat>::new(2, 2);
    assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        coo.push(0, 2, Nat(1));
    }))
    .is_err());
}
