//! Property-based tests for associative arrays: key handling,
//! selection, transpose, multiplication, concatenation, and I/O.

use aarray_algebra::ops::{AbsDiff, Times};
use aarray_algebra::pairs::{MaxMin, PlusTimes};
use aarray_algebra::values::nat::Nat;
use aarray_algebra::{BinaryOp, OpPair};
use aarray_core::io::{read_keyed_triples, write_keyed_triples};
use aarray_core::{AArray, KeySelect, KeySet};
use aarray_sparse::Coo;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn key(prefix: &str, i: usize) -> String {
    format!("{}{:03}", prefix, i)
}

fn arb_triples(
    rows: usize,
    cols: usize,
    max_n: usize,
) -> impl Strategy<Value = Vec<(String, String, Nat)>> {
    prop::collection::vec((0..rows, 0..cols, 1u64..50), 1..=max_n).prop_map(|v| {
        v.into_iter()
            .map(|(r, c, w)| (key("r", r), key("c", c), Nat(w)))
            .collect()
    })
}

/// Triples over few coordinates, so duplicates are common, with values
/// `0..4`, so explicit zeros are too.
fn arb_dup_triples() -> impl Strategy<Value = Vec<(String, String, Nat)>> {
    prop::collection::vec((0..5usize, 0..5usize, 0u64..4), 0..40).prop_map(|v| {
        v.into_iter()
            .map(|(r, c, w)| (key("r", r), key("c", c), Nat(w)))
            .collect()
    })
}

/// The reference construction: positions found by key lookup, then
/// `Coo::into_csr` folds duplicates and drops zeros.
fn coo_reference<A, M>(
    pair: &OpPair<Nat, A, M>,
    rows: KeySet,
    cols: KeySet,
    triples: &[(String, String, Nat)],
) -> AArray<Nat>
where
    A: BinaryOp<Nat>,
    M: BinaryOp<Nat>,
{
    let mut coo = Coo::new(rows.len(), cols.len());
    for (r, c, v) in triples {
        coo.push(rows.index_of(r).unwrap(), cols.index_of(c).unwrap(), *v);
    }
    AArray::from_parts(rows, cols, coo.into_csr(pair))
}

/// `from_triples`, `from_triples_with_keys` (over key sets with extra
/// keys) and `from_positions` all equal the `Coo` reference.
fn assert_constructors_match_coo<A, M>(pair: &OpPair<Nat, A, M>, triples: &[(String, String, Nat)])
where
    A: BinaryOp<Nat>,
    M: BinaryOp<Nat>,
{
    let rows = KeySet::from_iter(triples.iter().map(|t| t.0.clone()));
    let cols = KeySet::from_iter(triples.iter().map(|t| t.1.clone()));
    let expected = coo_reference(pair, rows.clone(), cols.clone(), triples);
    assert_eq!(AArray::from_triples(pair, triples.to_vec()), expected);

    let wide_rows = KeySet::from_iter((0..6).map(|i| key("r", i)));
    let wide_cols = KeySet::from_iter((0..6).map(|i| key("c", i)));
    assert_eq!(
        AArray::from_triples_with_keys(
            pair,
            wide_rows.clone(),
            wide_cols.clone(),
            triples.to_vec()
        ),
        coo_reference(pair, wide_rows, wide_cols, triples)
    );

    let entries = triples.iter().map(|(r, c, v)| {
        (
            rows.index_of(r).unwrap() as u32,
            cols.index_of(c).unwrap() as u32,
            *v,
        )
    });
    assert_eq!(
        AArray::from_positions(pair, rows.clone(), cols.clone(), entries),
        expected
    );
}

proptest! {
    #[test]
    fn constructors_match_coo_reference(triples in arb_dup_triples()) {
        // `|−|` is not associative: three duplicates of one coordinate
        // folded in another order give another value.
        let abs_diff: OpPair<Nat, AbsDiff, Times> = OpPair::new();
        assert_constructors_match_coo(&PlusTimes::<Nat>::new(), &triples);
        assert_constructors_match_coo(&abs_diff, &triples);
        // Row keys in ascending order, each repeated: the path that
        // needs no hashing until a key arrives out of order.
        let mut by_row = triples.clone();
        by_row.sort_by(|a, b| a.0.cmp(&b.0));
        assert_constructors_match_coo(&abs_diff, &by_row);
    }

    #[test]
    fn with_positions_locates_every_key(keys in prop::collection::vec(0..12usize, 0..30)) {
        let keys: Vec<String> = keys.into_iter().map(|i| key("k", i)).collect();
        let (set, pos) = KeySet::with_positions(keys.clone());
        prop_assert_eq!(&set, &KeySet::from_iter(keys.clone()));
        for (k, p) in keys.iter().zip(pos) {
            prop_assert_eq!(set.key(p as usize), k.as_str());
        }
    }

    #[test]
    fn construction_matches_reference_map(triples in arb_triples(8, 8, 40)) {
        // Reference semantics: left-fold duplicates with + in insertion
        // order (here: plain sum since + is commutative and no zeros).
        let pair = PlusTimes::<Nat>::new();
        let a = AArray::from_triples(&pair, triples.clone());
        let mut reference: BTreeMap<(String, String), u64> = BTreeMap::new();
        for (r, c, v) in &triples {
            *reference.entry((r.clone(), c.clone())).or_insert(0) += v.0;
        }
        prop_assert_eq!(a.nnz(), reference.len());
        for ((r, c), v) in reference {
            prop_assert_eq!(a.get(&r, &c), Some(&Nat(v)));
        }
    }

    #[test]
    fn transpose_involution_and_get_symmetry(triples in arb_triples(8, 8, 40)) {
        let pair = PlusTimes::<Nat>::new();
        let a = AArray::from_triples(&pair, triples);
        let t = a.transpose();
        prop_assert_eq!(&t.transpose(), &a);
        for (r, c, v) in a.iter() {
            prop_assert_eq!(t.get(c, r), Some(v));
        }
    }

    #[test]
    fn select_all_is_identity(triples in arb_triples(8, 8, 40)) {
        let pair = PlusTimes::<Nat>::new();
        let a = AArray::from_triples(&pair, triples);
        prop_assert_eq!(&a.select(&KeySelect::All, &KeySelect::All), &a);
    }

    #[test]
    fn range_and_prefix_selection_agree_when_equivalent(triples in arb_triples(8, 8, 40)) {
        // All column keys are "cNNN": the full range equals the prefix.
        let pair = PlusTimes::<Nat>::new();
        let a = AArray::from_triples(&pair, triples);
        let by_range = a.select_cols_str("c : d");
        let by_prefix = a.select_cols_str("c*");
        prop_assert_eq!(by_range, by_prefix);
    }

    #[test]
    fn selection_partitions_nnz(triples in arb_triples(8, 8, 40), split in 0usize..8) {
        let pair = PlusTimes::<Nat>::new();
        let a = AArray::from_triples(&pair, triples);
        let lo = a.select(&KeySelect::All, &KeySelect::Range {
            lo: key("c", 0),
            hi: key("c", split),
        });
        let hi = a.select(&KeySelect::All, &KeySelect::Range {
            lo: format!("{}!", key("c", split)), // just past the split key
            hi: key("c", 999),
        });
        prop_assert_eq!(lo.nnz() + hi.nnz(), a.nnz());
    }

    #[test]
    fn matmul_mass_conservation(
        left in arb_triples(6, 6, 30),
        right in arb_triples(6, 6, 30),
    ) {
        // For +.× with all-ones values, total output mass equals
        // Σ_k (nnz of column k of A) × (nnz of row k of B), computed
        // against aligned keys.
        let pair = PlusTimes::<Nat>::new();
        // Deduplicate coordinates: duplicates would ⊕-combine to values
        // above 1 and break the all-ones mass formula.
        let ones = |t: Vec<(String, String, Nat)>| -> Vec<(String, String, Nat)> {
            let coords: std::collections::BTreeSet<(String, String)> =
                t.into_iter().map(|(r, c, _)| (r, c)).collect();
            coords.into_iter().map(|(r, c)| (r, c, Nat(1))).collect()
        };
        let a = AArray::from_triples(&pair, ones(left));
        let b = AArray::from_triples(&pair, ones(right));
        // Rename: multiply aᵀ (cols become rows) against b rows — use
        // a.transpose() so inner keys are a's row keys vs b's row keys.
        let at = a.transpose();
        let product = at.matmul(&b, &pair);
        let mut expect = 0u64;
        for k in a.row_keys().keys() {
            if let Some(bk) = b.row_keys().index_of(k) {
                let ak = a.row_keys().index_of(k).unwrap();
                expect += (a.csr().row_nnz(ak) * b.csr().row_nnz(bk)) as u64;
            }
        }
        let mass: u64 = product.csr().values().iter().map(|v| v.0).sum();
        prop_assert_eq!(mass, expect);
    }

    #[test]
    fn matmul_matches_bruteforce_reference(
        left in arb_triples(6, 6, 25),
        right in arb_triples(6, 6, 25),
    ) {
        // Independent oracle: for every (row of A, col of B) pair, fold
        // A(r,k)·B(k,c) over the ascending union of inner keys, using
        // BTreeMap lookups — no sparse machinery involved.
        let pair = PlusTimes::<Nat>::new();
        let a = AArray::from_triples(&pair, left);
        // Rename right's rows into a's column-key space partially, so
        // alignment is a genuine intersection: map "rXXX" → "cXXX" for
        // even indices only.
        let right_renamed: Vec<(String, String, Nat)> = right
            .into_iter()
            .map(|(r, c, v)| {
                let n: usize = r[1..].parse().unwrap();
                let nr = if n.is_multiple_of(2) { r.replace('r', "c") } else { r };
                (nr, c.replace('c', "d"), v)
            })
            .collect();
        let b = AArray::from_triples(&pair, right_renamed);
        let product = a.matmul(&b, &pair);

        let amap: BTreeMap<(String, String), u64> = a
            .iter()
            .map(|(r, c, v)| ((r.to_string(), c.to_string()), v.0))
            .collect();
        let bmap: BTreeMap<(String, String), u64> = b
            .iter()
            .map(|(r, c, v)| ((r.to_string(), c.to_string()), v.0))
            .collect();
        let inner: Vec<String> = a
            .col_keys()
            .keys()
            .iter()
            .filter(|k| b.row_keys().contains(k))
            .cloned()
            .collect();
        for r in a.row_keys().keys() {
            for c in b.col_keys().keys() {
                let mut sum = 0u64;
                for k in &inner {
                    let x = amap.get(&(r.clone(), k.clone())).copied().unwrap_or(0);
                    let y = bmap.get(&(k.clone(), c.clone())).copied().unwrap_or(0);
                    sum += x * y;
                }
                let got = product.get(r, c).map(|v| v.0).unwrap_or(0);
                prop_assert_eq!(got, sum, "at ({}, {})", r, c);
            }
        }
    }

    #[test]
    fn ewise_add_mass_additivity(
        left in arb_triples(8, 8, 30),
        right in arb_triples(8, 8, 30),
    ) {
        let pair = PlusTimes::<Nat>::new();
        let a = AArray::from_triples(&pair, left);
        let b = AArray::from_triples(&pair, right);
        let sum = a.ewise_add(&b, &pair);
        let mass = |x: &AArray<Nat>| -> u64 { x.csr().values().iter().map(|v| v.0).sum() };
        prop_assert_eq!(mass(&sum), mass(&a) + mass(&b));
    }

    #[test]
    fn ewise_mul_bounded_by_min_nnz(
        left in arb_triples(8, 8, 30),
        right in arb_triples(8, 8, 30),
    ) {
        let pair = PlusTimes::<Nat>::new();
        let a = AArray::from_triples(&pair, left);
        let b = AArray::from_triples(&pair, right);
        let prod = a.ewise_mul(&b, &pair);
        prop_assert!(prod.nnz() <= a.nnz().min(b.nnz()));
    }

    #[test]
    fn io_roundtrip(triples in arb_triples(8, 8, 40)) {
        let pair = PlusTimes::<Nat>::new();
        let a = AArray::from_triples(&pair, triples);
        let text = write_keyed_triples(&a, |v| v.0.to_string());
        let b = read_keyed_triples(&text, &pair, |s| s.parse().ok().map(Nat)).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn concat_rows_preserves_entries(
        top in arb_triples(4, 8, 20),
        bottom in arb_triples(4, 8, 20),
    ) {
        let pair = PlusTimes::<Nat>::new();
        let a = AArray::from_triples(&pair, top);
        // Shift the bottom's row keys into a disjoint namespace.
        let shifted: Vec<(String, String, Nat)> = bottom
            .into_iter()
            .map(|(r, c, v)| (format!("z{}", r), c, v))
            .collect();
        let b = AArray::from_triples(&pair, shifted);
        let both = a.concat_rows(&b, &pair);
        prop_assert_eq!(both.nnz(), a.nnz() + b.nnz());
        for (r, c, v) in a.iter() {
            prop_assert_eq!(both.get(r, c), Some(v));
        }
        for (r, c, v) in b.iter() {
            prop_assert_eq!(both.get(r, c), Some(v));
        }
    }

    #[test]
    fn row_argmax_is_really_the_max(triples in arb_triples(8, 8, 40)) {
        let pair = MaxMin::<Nat>::new();
        let a = AArray::from_triples(&pair, triples);
        for (rk, ck, v) in a.row_argmax() {
            for (r2, _, v2) in a.iter() {
                if r2 == rk {
                    prop_assert!(v2 <= &v, "row {} has {} > argmax {}", rk, v2, v);
                }
            }
            prop_assert_eq!(a.get(&rk, &ck), Some(&v));
        }
    }
}
