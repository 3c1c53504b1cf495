//! Property-based tests for the table layer: TSV round-trips, explode
//! invariants, and explode against the string-triple reference.

use aarray_algebra::ops::{AbsDiff, Times};
use aarray_algebra::pairs::PlusTimes;
use aarray_algebra::values::nat::Nat;
use aarray_algebra::{BinaryOp, OpPair, Value};
use aarray_core::{AArray, KeySet};
use aarray_d4m::tsv::{from_tsv, to_tsv};
use aarray_d4m::Table;
use proptest::prelude::*;
use std::cell::Cell;

/// Random tables with safe cell content (no tabs/semicolons/newlines —
/// the format's reserved characters). Row keys come in random order
/// and may repeat. Values come partly from a three-letter alphabet, so
/// one cell often holds the same value twice.
fn arb_table() -> impl Strategy<Value = Table> {
    (1usize..5).prop_flat_map(move |nfields| {
        let fields: Vec<String> = (0..nfields).map(|f| format!("F{}", f)).collect();
        let cell_value = prop_oneof!["[a-c]", "[a-z]{1,6}"];
        let cells =
            prop::collection::vec(prop::collection::vec(cell_value, 0..4), nfields..=nfields);
        prop::collection::vec((0usize..8, cells), 1..10).prop_map(move |rows| {
            let mut t = Table::new(fields.clone());
            for (k, cells) in rows {
                t.push_row(format!("row{:04}", k), cells);
            }
            t
        })
    })
}

/// Explode as it was built before id-native ingest: one `field|value`
/// string per cell value, every column key sorted with its duplicates,
/// and string triples probed against the key sets.
fn reference_explode<V, A, M>(
    t: &Table,
    pair: &OpPair<V, A, M>,
    value_fn: impl Fn(&str, &str, &str) -> V,
) -> AArray<V>
where
    V: Value,
    A: BinaryOp<V>,
    M: BinaryOp<V>,
{
    let row_keys = KeySet::from_iter(t.rows().iter().map(|r| r.key.clone()));
    let mut col_keys: Vec<String> = Vec::new();
    let mut triples: Vec<(String, String, V)> = Vec::new();
    for row in t.rows() {
        for (fi, field) in t.fields().iter().enumerate() {
            for value in &row.cells[fi] {
                let col = format!("{}|{}", field, value);
                triples.push((
                    row.key.clone(),
                    col.clone(),
                    value_fn(&row.key, field, value),
                ));
                col_keys.push(col);
            }
        }
    }
    AArray::from_triples_with_keys(pair, row_keys, KeySet::from_iter(col_keys), triples)
}

/// A value function that numbers its calls `1, 2, …` modulo 5, so one
/// value in five is zero and duplicates of a coordinate differ.
fn counter() -> impl Fn(&str, &str, &str) -> Nat {
    let n = Cell::new(0u64);
    move |_, _, _| {
        n.set(n.get() + 1);
        Nat(n.get() % 5)
    }
}

/// Explode, and the reference, under `+.×` with some zero values and
/// under `|−|.×`, whose `⊕` is not associative: a changed fold order
/// for three duplicates of one coordinate changes the result.
fn assert_explode_matches_reference(t: &Table) {
    assert_eq!(
        t.explode(),
        reference_explode(t, &PlusTimes::new(), |_, _, _| {
            aarray_algebra::values::nn::nn(1.0)
        })
    );
    let pt = PlusTimes::<Nat>::new();
    assert_eq!(
        t.explode_with(&pt, counter()),
        reference_explode(t, &pt, counter())
    );
    let abs_diff: OpPair<Nat, AbsDiff, Times> = OpPair::new();
    assert_eq!(
        t.explode_with(&abs_diff, counter()),
        reference_explode(t, &abs_diff, counter())
    );
}

proptest! {
    #[test]
    fn tsv_roundtrip(t in arb_table()) {
        let text = to_tsv(&t);
        let back = from_tsv(&text).expect("own output must parse");
        prop_assert_eq!(back, t);
    }

    #[test]
    fn explode_nnz_counts_incidences_without_duplicates(t in arb_table()) {
        // Duplicate (row, field|value) incidences combine into one
        // stored entry; distinct incidences each get one.
        let e = t.explode();
        let mut distinct = std::collections::BTreeSet::new();
        for row in t.rows() {
            for (fi, field) in t.fields().iter().enumerate() {
                for v in &row.cells[fi] {
                    distinct.insert((row.key.clone(), format!("{}|{}", field, v)));
                }
            }
        }
        prop_assert_eq!(e.nnz(), distinct.len());
        let rows: std::collections::BTreeSet<&str> =
            t.rows().iter().map(|r| r.key.as_str()).collect();
        prop_assert_eq!(e.row_keys().len(), rows.len());
    }

    #[test]
    fn explode_entries_locate_their_cells(t in arb_table()) {
        let e = t.explode();
        for row in t.rows() {
            for (fi, field) in t.fields().iter().enumerate() {
                for v in &row.cells[fi] {
                    let col = format!("{}|{}", field, v);
                    prop_assert!(
                        e.get(&row.key, &col).is_some(),
                        "missing {} / {}",
                        row.key,
                        col
                    );
                }
            }
        }
    }

    #[test]
    fn field_values_cover_exploded_columns(t in arb_table()) {
        let e = t.explode();
        let mut expected_cols = std::collections::BTreeSet::new();
        for f in t.fields() {
            for v in t.field_values(f) {
                expected_cols.insert(format!("{}|{}", f, v));
            }
        }
        let actual: std::collections::BTreeSet<String> =
            e.col_keys().keys().iter().cloned().collect();
        prop_assert_eq!(actual, expected_cols);
    }

    #[test]
    fn explode_equals_string_triple_reference(t in arb_table()) {
        assert_explode_matches_reference(&t);
    }
}

#[test]
fn three_duplicates_fold_left_in_table_order() {
    // Values 1, 2, 3 at one coordinate: ||1−2|−3| = 2, while a right
    // fold gives |1−|2−3|| = 0 and the reverse order ||3−2|−1| = 0.
    let mut t = Table::new(["F"]);
    t.push_row("r", vec![vec!["x".into(), "x".into()]]);
    t.push_row("r", vec![vec!["x".into()]]);
    let abs_diff: OpPair<Nat, AbsDiff, Times> = OpPair::new();
    let e = t.explode_with(&abs_diff, counter());
    assert_eq!(e.get("r", "F|x"), Some(&Nat(2)));
    assert_eq!(e, reference_explode(&t, &abs_diff, counter()));
}

#[test]
fn large_shuffled_table_with_duplicate_keys_matches_reference() {
    // 20,000 rows over 15,000 keys in SplitMix order; four fields with
    // one to three values each from small alphabets.
    let mut state = 7u64;
    let mut next = |n: u64| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    };
    let mut t = Table::new(["Artist", "Genre", "Type", "Writer"]);
    for _ in 0..20_000 {
        let key = format!("t{:05}", next(15_000));
        let cells = [40, 8, 2, 100]
            .iter()
            .map(|&n| {
                (0..1 + next(3))
                    .map(|_| format!("v{:03}", next(n)))
                    .collect()
            })
            .collect();
        t.push_row(key, cells);
    }
    assert_explode_matches_reference(&t);
}
