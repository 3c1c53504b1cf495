//! The exploded sparse view of Figure 1: "the column key and the value
//! are concatenated with a separator symbol (in this case `|`)
//! resulting in every unique pair of column and value having its own
//! column in the sparse view. The new value is usually 1 to denote the
//! existence of an entry."

use crate::table::Table;
use aarray_algebra::values::nn::{nn, NN};
use aarray_algebra::{BinaryOp, OpPair, Value};
use aarray_core::{AArray, KeySet};
use std::collections::HashMap;

/// The separator between field name and value in exploded column keys.
pub const SEPARATOR: char = '|';

impl Table {
    /// Explode into a sparse associative array with value `1` at each
    /// `(row, field|value)` incidence — exactly Figure 1's `E`.
    ///
    /// Row keys: every table row (even all-empty ones). Column keys:
    /// every `field|value` pair that occurs.
    ///
    /// ```
    /// use aarray_d4m::Table;
    /// let mut t = Table::new(["Genre"]);
    /// t.push_row("track1", vec![vec!["Pop".into(), "Rock".into()]]);
    /// let e = t.explode();
    /// assert_eq!(e.col_keys().keys(), &["Genre|Pop", "Genre|Rock"]);
    /// assert_eq!(e.nnz(), 2);
    /// ```
    pub fn explode(&self) -> AArray<NN> {
        let pair: OpPair<NN, aarray_algebra::ops::Plus, aarray_algebra::ops::Times> = OpPair::new();
        self.explode_with(&pair, |_, _, _| nn(1.0))
    }

    /// Generalized explode: choose the operator pair (for zero pruning
    /// and duplicate combination) and a value function
    /// `(row_key, field, value) → V`, called once per cell value.
    ///
    /// Each distinct `field|value` pair gets a local id through a
    /// per-field map over the table's own strings, so its key is
    /// formatted once, and only the distinct keys are sorted. Row keys
    /// map to positions once (the identity when the rows are already
    /// sorted and unique). Duplicate `(row, column)` cells combine with
    /// `⊕` in table order.
    pub fn explode_with<V, A, M>(
        &self,
        pair: &OpPair<V, A, M>,
        value_fn: impl Fn(&str, &str, &str) -> V,
    ) -> AArray<V>
    where
        V: Value,
        A: BinaryOp<V>,
        M: BinaryOp<V>,
    {
        let (row_keys, row_pos) =
            KeySet::with_positions(self.rows().iter().map(|r| r.key.clone()).collect());
        let mut local: Vec<HashMap<&str, u32>> = vec![HashMap::new(); self.fields().len()];
        let mut col_names: Vec<String> = Vec::new();
        let mut entries: Vec<(u32, u32, V)> = Vec::with_capacity(self.incidence_count());
        for (row, &r) in self.rows().iter().zip(&row_pos) {
            for ((field, cell), ids) in self.fields().iter().zip(&row.cells).zip(&mut local) {
                for value in cell {
                    let c = *ids.entry(value.as_str()).or_insert_with(|| {
                        col_names.push(format!("{}{}{}", field, SEPARATOR, value));
                        (col_names.len() - 1) as u32
                    });
                    entries.push((r, c, value_fn(&row.key, field, value)));
                }
            }
        }
        // Two distinct pairs can still name one column ("A|b" + "c" and
        // "A" + "b|c"); `with_positions` gives them one position.
        let (col_keys, col_pos) = KeySet::with_positions(col_names);
        let entries = entries
            .into_iter()
            .map(|(r, c, v)| (r, col_pos[c as usize], v));
        AArray::from_positions(pair, row_keys, col_keys, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aarray_algebra::pairs::MaxMin;
    use aarray_algebra::values::nat::Nat;

    fn sample() -> Table {
        let mut t = Table::new(["Genre", "Writer"]);
        t.push_row(
            "t1",
            vec![vec!["Pop".into()], vec!["Ann".into(), "Bob".into()]],
        );
        t.push_row("t2", vec![vec!["Rock".into()], vec![]]);
        t
    }

    #[test]
    fn explode_shapes_and_values() {
        let e = sample().explode();
        assert_eq!(e.shape(), (2, 4));
        assert_eq!(e.nnz(), 4);
        assert_eq!(e.get("t1", "Genre|Pop"), Some(&nn(1.0)));
        assert_eq!(e.get("t1", "Writer|Bob"), Some(&nn(1.0)));
        assert_eq!(e.get("t2", "Genre|Rock"), Some(&nn(1.0)));
        assert_eq!(e.get("t2", "Writer|Ann"), None);
    }

    #[test]
    fn column_keys_are_sorted_field_value_pairs() {
        let e = sample().explode();
        assert_eq!(
            e.col_keys().keys(),
            &["Genre|Pop", "Genre|Rock", "Writer|Ann", "Writer|Bob"]
        );
    }

    #[test]
    fn explode_with_custom_values() {
        let pair = MaxMin::<Nat>::new();
        let e = sample().explode_with(
            &pair,
            |_, field, _| {
                if field == "Genre" {
                    Nat(3)
                } else {
                    Nat(1)
                }
            },
        );
        assert_eq!(e.get("t1", "Genre|Pop"), Some(&Nat(3)));
        assert_eq!(e.get("t1", "Writer|Ann"), Some(&Nat(1)));
    }

    #[test]
    fn pairs_that_format_alike_share_one_column() {
        // ("A", "b|c") and ("A|b", "c") both name column "A|b|c".
        let mut t = Table::new(["A", "A|b"]);
        t.push_row("r", vec![vec!["b|c".into()], vec!["c".into()]]);
        let pair = aarray_algebra::pairs::PlusTimes::<Nat>::new();
        let e = t.explode_with(&pair, |_, _, _| Nat(1));
        assert_eq!(e.col_keys().keys(), &["A|b|c"]);
        assert_eq!(e.get("r", "A|b|c"), Some(&Nat(2)));
    }

    #[test]
    fn empty_rows_are_kept() {
        let mut t = Table::new(["F"]);
        t.push_row("empty", vec![vec![]]);
        t.push_row("full", vec![vec!["x".into()]]);
        let e = t.explode();
        assert_eq!(e.shape(), (2, 1));
        assert_eq!(e.nnz(), 1);
        assert!(e.row_keys().contains("empty"));
    }
}
