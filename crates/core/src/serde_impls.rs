//! Serde support (feature `serde`) for associative arrays.
//!
//! An [`AArray`] cannot implement `Deserialize` directly: rebuilding
//! the sparse storage needs an operator pair (for duplicate folding and
//! implicit-zero pruning), and validating invariants needs it too. So
//! serialization goes through [`ArrayData`] — a plain
//! keys-plus-entries document — and deserialization finishes with
//! [`ArrayData::into_array`], which re-validates everything against
//! the pair you supply.

use crate::array::AArray;
use crate::keys::KeySet;
use aarray_algebra::{BinaryOp, OpPair, Value};
use serde::{Deserialize, Serialize};

/// The wire form of an associative array.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArrayData<V> {
    /// Row keys, ascending.
    pub row_keys: Vec<String>,
    /// Column keys, ascending.
    pub col_keys: Vec<String>,
    /// Entries as `(row index, col index, value)`.
    pub entries: Vec<(u32, u32, V)>,
}

/// Errors from [`ArrayData::into_array`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArrayDataError {
    /// A key vector is not sorted/unique.
    KeysNotSorted,
    /// An entry's index exceeds the key vectors.
    IndexOutOfBounds,
}

impl std::fmt::Display for ArrayDataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArrayDataError::KeysNotSorted => write!(f, "key vector not sorted/unique"),
            ArrayDataError::IndexOutOfBounds => write!(f, "entry index out of bounds"),
        }
    }
}

impl std::error::Error for ArrayDataError {}

impl<V: Value> ArrayData<V> {
    /// Capture an array's contents.
    pub fn from_array(a: &AArray<V>) -> Self {
        ArrayData {
            row_keys: a.row_keys().keys().to_vec(),
            col_keys: a.col_keys().keys().to_vec(),
            entries: a
                .csr()
                .iter()
                .map(|(r, c, v)| (r as u32, c as u32, v.clone()))
                .collect(),
        }
    }

    /// Rebuild an array, folding duplicates with `⊕` in document order
    /// and pruning the pair's zeros — i.e. untrusted documents get the
    /// same normalization as fresh construction.
    pub fn into_array<A, M>(self, pair: &OpPair<V, A, M>) -> Result<AArray<V>, ArrayDataError>
    where
        A: BinaryOp<V>,
        M: BinaryOp<V>,
    {
        if !self.row_keys.windows(2).all(|w| w[0] < w[1])
            || !self.col_keys.windows(2).all(|w| w[0] < w[1])
        {
            return Err(ArrayDataError::KeysNotSorted);
        }
        let nrows = self.row_keys.len();
        let ncols = self.col_keys.len();
        for &(r, c, _) in &self.entries {
            if r as usize >= nrows || c as usize >= ncols {
                return Err(ArrayDataError::IndexOutOfBounds);
            }
        }
        let rows = KeySet::from_sorted_unique(self.row_keys);
        let cols = KeySet::from_sorted_unique(self.col_keys);
        Ok(AArray::from_positions(pair, rows, cols, self.entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aarray_algebra::pairs::PlusTimes;
    use aarray_algebra::values::nat::Nat;
    use aarray_algebra::values::nn::{nn, NN};

    fn sample() -> AArray<Nat> {
        AArray::from_triples(
            &PlusTimes::<Nat>::new(),
            [("r1", "cA", Nat(1)), ("r2", "cB", Nat(5))],
        )
    }

    #[test]
    fn json_roundtrip() {
        let a = sample();
        let data = ArrayData::from_array(&a);
        let text = serde_json::to_string(&data).unwrap();
        let back: ArrayData<Nat> = serde_json::from_str(&text).unwrap();
        let b = back.into_array(&PlusTimes::<Nat>::new()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn float_arrays_roundtrip_including_infinity() {
        let pair = aarray_algebra::pairs::MinPlus::<NN>::new();
        let a = AArray::from_triples(&pair, [("r", "c", nn(0.0)), ("r", "d", nn(2.5))]);
        let text = serde_json::to_string(&ArrayData::from_array(&a)).unwrap();
        let back: ArrayData<NN> = serde_json::from_str(&text).unwrap();
        assert_eq!(back.into_array(&pair).unwrap(), a);
    }

    #[test]
    fn corrupt_documents_are_rejected() {
        let bad_keys: ArrayData<Nat> = ArrayData {
            row_keys: vec!["b".into(), "a".into()],
            col_keys: vec!["c".into()],
            entries: vec![],
        };
        assert_eq!(
            bad_keys.into_array(&PlusTimes::<Nat>::new()).unwrap_err(),
            ArrayDataError::KeysNotSorted
        );
        let bad_idx: ArrayData<Nat> = ArrayData {
            row_keys: vec!["a".into()],
            col_keys: vec!["c".into()],
            entries: vec![(0, 9, Nat(1))],
        };
        assert_eq!(
            bad_idx.into_array(&PlusTimes::<Nat>::new()).unwrap_err(),
            ArrayDataError::IndexOutOfBounds
        );
    }

    #[test]
    fn documents_are_renormalized_like_fresh_construction() {
        // Duplicates fold, zeros prune — a document cannot bypass the
        // implicit-zero invariant.
        let data: ArrayData<Nat> = ArrayData {
            row_keys: vec!["a".into()],
            col_keys: vec!["c".into(), "d".into()],
            entries: vec![(0, 0, Nat(2)), (0, 0, Nat(3)), (0, 1, Nat(0))],
        };
        let a = data.into_array(&PlusTimes::<Nat>::new()).unwrap();
        assert_eq!(a.get("a", "c"), Some(&Nat(5)));
        assert_eq!(a.nnz(), 1);
        assert!(a.validate_for_pair(&PlusTimes::<Nat>::new()).is_ok());
    }

    #[test]
    fn hostile_float_payload_rejected_at_value_level() {
        let text = r#"{"row_keys":["a"],"col_keys":["c"],"entries":[[0,0,-3.0]]}"#;
        assert!(serde_json::from_str::<ArrayData<NN>>(text).is_err());
    }
}
