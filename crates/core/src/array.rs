//! The associative array type (Definition I.1) and its basic
//! operations: construction, lookup, transpose, value mapping.

use crate::keys::KeySet;
use aarray_algebra::{BinaryOp, OpPair, Value};
use aarray_sparse::Csr;
use std::cmp::Ordering;
use std::collections::HashMap;

/// An associative array `A : K1 × K2 → V` with sparse storage.
///
/// Unstored entries denote the zero of whichever operator pair an
/// operation is performed with — the array itself is *pair-agnostic*,
/// exactly like a D4M array: Figure 3 multiplies the same `E1`, `E2`
/// under seven different `⊕.⊗` pairs.
#[derive(Clone, Debug, PartialEq)]
pub struct AArray<V: Value> {
    row_keys: KeySet,
    col_keys: KeySet,
    data: Csr<V>,
}

/// Dense local ids for the distinct keys of a triple stream, in
/// first-seen order, each distinct key stored once.
///
/// While keys arrive in ascending order (repeats allowed), as the rows
/// of generated triples do, each costs one comparison. The first key
/// out of order moves the keys seen so far into a hash map, and every
/// later key costs one hash probe.
#[derive(Default)]
struct LocalIds {
    /// The distinct keys, while they have arrived in ascending order.
    ascending: Vec<String>,
    /// Key → local id, once a key has arrived out of order.
    index: Option<HashMap<String, u32>>,
}

impl LocalIds {
    fn id(&mut self, key: String) -> u32 {
        if let Some(index) = &mut self.index {
            let next = index.len() as u32;
            return *index.entry(key).or_insert(next);
        }
        match self.ascending.last().map(|last| last.cmp(&key)) {
            Some(Ordering::Equal) => {}
            Some(Ordering::Greater) => {
                let seen = std::mem::take(&mut self.ascending);
                self.index = Some(seen.into_iter().zip(0..).collect());
                return self.id(key);
            }
            _ => self.ascending.push(key),
        }
        (self.ascending.len() - 1) as u32
    }

    /// The distinct keys, local id `i` at index `i`.
    fn into_keys(self) -> Vec<String> {
        let Some(index) = self.index else {
            return self.ascending;
        };
        let mut keys = vec![String::new(); index.len()];
        for (key, id) in index {
            keys[id as usize] = key;
        }
        keys
    }
}

/// Key → position map for probing string triples against a key set.
fn position_map(keys: &KeySet) -> HashMap<&str, u32> {
    keys.keys()
        .iter()
        .enumerate()
        .map(|(i, k)| (k.as_str(), i as u32))
        .collect()
}

impl<V: Value> AArray<V> {
    /// Build from `(row_key, col_key, value)` triples. Keys are
    /// collected, sorted, and deduplicated; duplicate coordinates are
    /// combined with the pair's `⊕` in insertion order; values equal to
    /// the pair's zero are dropped.
    ///
    /// One pass gives each distinct key a local id, with one hash probe
    /// per key (or one comparison, while keys arrive in ascending
    /// order). Only the distinct keys are sorted and interned, and the
    /// entries reach [`AArray::from_positions`] as positions.
    pub fn from_triples<A, M, I, R, C>(pair: &OpPair<V, A, M>, triples: I) -> Self
    where
        A: BinaryOp<V>,
        M: BinaryOp<V>,
        I: IntoIterator<Item = (R, C, V)>,
        R: Into<String>,
        C: Into<String>,
    {
        let (mut rows, mut cols) = (LocalIds::default(), LocalIds::default());
        let entries: Vec<(u32, u32, V)> = triples
            .into_iter()
            .map(|(r, c, v)| (rows.id(r.into()), cols.id(c.into()), v))
            .collect();
        let (row_keys, row_pos) = KeySet::with_positions(rows.into_keys());
        let (col_keys, col_pos) = KeySet::with_positions(cols.into_keys());
        let entries = entries
            .into_iter()
            .map(|(r, c, v)| (row_pos[r as usize], col_pos[c as usize], v));
        AArray::from_positions(pair, row_keys, col_keys, entries)
    }

    /// Build from explicit key sets and triples (keys not present in
    /// the sets panic). Use when empty rows/columns must be preserved —
    /// e.g. incidence arrays of graphs with isolated vertices.
    pub fn from_triples_with_keys<A, M>(
        pair: &OpPair<V, A, M>,
        row_keys: KeySet,
        col_keys: KeySet,
        triples: impl IntoIterator<Item = (String, String, V)>,
    ) -> Self
    where
        A: BinaryOp<V>,
        M: BinaryOp<V>,
    {
        let entries: Vec<(u32, u32, V)> = {
            let (rpos, cpos) = (position_map(&row_keys), position_map(&col_keys));
            triples
                .into_iter()
                .map(|(r, c, v)| {
                    let ri = *rpos
                        .get(r.as_str())
                        .unwrap_or_else(|| panic!("unknown row key {:?}", r));
                    let ci = *cpos
                        .get(c.as_str())
                        .unwrap_or_else(|| panic!("unknown col key {:?}", c));
                    (ri, ci, v)
                })
                .collect()
        };
        AArray::from_positions(pair, row_keys, col_keys, entries)
    }

    /// Build from `(row position, column position, value)` entries over
    /// the given key sets. [`AArray::from_triples`],
    /// [`AArray::from_triples_with_keys`] and D4M's explode build
    /// through it.
    ///
    /// Entries are bucketed by row with a stable counting sort, then
    /// each row is stably sorted by column. Duplicate coordinates
    /// combine with the pair's `⊕`, left-associated in insertion order,
    /// and values equal to the pair's zero are dropped after the fold —
    /// the rule `aarray_sparse::Coo::into_csr` applies. Input already in
    /// row order skips the counting sort, and rows already in column
    /// order skip their sort. Panics on a position outside the key sets.
    pub fn from_positions<A, M>(
        pair: &OpPair<V, A, M>,
        row_keys: KeySet,
        col_keys: KeySet,
        entries: impl IntoIterator<Item = (u32, u32, V)>,
    ) -> Self
    where
        A: BinaryOp<V>,
        M: BinaryOp<V>,
    {
        let (nrows, ncols) = (row_keys.len(), col_keys.len());
        // Row counts shifted by one, so the prefix sum gives row starts.
        let mut start = vec![0usize; nrows + 1];
        let (mut in_row_order, mut last_row) = (true, 0u32);
        let mut entries: Vec<(u32, u32, V)> = entries
            .into_iter()
            .inspect(|&(r, c, _)| {
                assert!(
                    (r as usize) < nrows && (c as usize) < ncols,
                    "entry ({}, {}) outside a {}×{} array",
                    r,
                    c,
                    nrows,
                    ncols
                );
                start[r as usize + 1] += 1;
                in_row_order &= r >= last_row;
                last_row = r;
            })
            .collect();
        for r in 0..nrows {
            start[r + 1] += start[r];
        }
        if !in_row_order {
            // Each entry goes to the next free slot of its row, which
            // keeps insertion order within the row; the permutation is
            // applied in place by following its cycles.
            let mut next = start.clone();
            let mut dest: Vec<usize> = entries
                .iter()
                .map(|&(r, _, _)| {
                    next[r as usize] += 1;
                    next[r as usize] - 1
                })
                .collect();
            for i in 0..entries.len() {
                while dest[i] != i {
                    let d = dest[i];
                    entries.swap(i, d);
                    dest.swap(i, d);
                }
            }
        }
        for r in 0..nrows {
            let row = &mut entries[start[r]..start[r + 1]];
            if !row.windows(2).all(|w| w[0].1 <= w[1].1) {
                row.sort_by_key(|&(_, c, _)| c);
            }
        }

        let mut indptr = vec![0usize; nrows + 1];
        let mut indices = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        let mut emit = |(r, c, v): (u32, u32, V)| {
            if !pair.is_zero(&v) {
                indptr[r as usize + 1] += 1;
                indices.push(c);
                values.push(v);
            }
        };
        let mut run: Option<(u32, u32, V)> = None;
        for (r, c, v) in entries {
            if let Some((rr, rc, acc)) = &mut run {
                if (*rr, *rc) == (r, c) {
                    *acc = pair.plus(acc, &v);
                    continue;
                }
            }
            if let Some(done) = run.replace((r, c, v)) {
                emit(done);
            }
        }
        if let Some(done) = run {
            emit(done);
        }
        for r in 0..nrows {
            indptr[r + 1] += indptr[r];
        }
        AArray {
            data: Csr::from_parts(nrows, ncols, indptr, indices, values),
            row_keys,
            col_keys,
        }
    }

    /// Assemble from parts (dimensions must agree).
    pub fn from_parts(row_keys: KeySet, col_keys: KeySet, data: Csr<V>) -> Self {
        assert_eq!(row_keys.len(), data.nrows(), "row keys vs data rows");
        assert_eq!(col_keys.len(), data.ncols(), "col keys vs data cols");
        AArray {
            row_keys,
            col_keys,
            data,
        }
    }

    /// An array with the given keys and no stored entries.
    pub fn empty(row_keys: KeySet, col_keys: KeySet) -> Self {
        let data = Csr::empty(row_keys.len(), col_keys.len());
        AArray {
            row_keys,
            col_keys,
            data,
        }
    }

    /// The row key set `K1`.
    pub fn row_keys(&self) -> &KeySet {
        &self.row_keys
    }

    /// The column key set `K2`.
    pub fn col_keys(&self) -> &KeySet {
        &self.col_keys
    }

    /// The underlying sparse storage.
    pub fn csr(&self) -> &Csr<V> {
        &self.data
    }

    /// Number of stored (nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.data.nnz()
    }

    /// Shape as `(|K1|, |K2|)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.row_keys.len(), self.col_keys.len())
    }

    /// Stored value at `(row_key, col_key)`; `None` means the zero of
    /// whatever pair you are working with (or an unknown key).
    pub fn get(&self, row_key: &str, col_key: &str) -> Option<&V> {
        let r = self.row_keys.index_of(row_key)?;
        let c = self.col_keys.index_of(col_key)?;
        self.data.get(r, c)
    }

    /// Iterate stored entries as `(row_key, col_key, &value)` in
    /// row-major key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, &V)> + '_ {
        self.data
            .iter()
            .map(move |(r, c, v)| (self.row_keys.key(r), self.col_keys.key(c), v))
    }

    /// The stored entries of one row, as `(col_key, &value)` in
    /// ascending key order. Empty for unknown keys.
    pub fn row_entries(&self, row_key: &str) -> Vec<(&str, &V)> {
        match self.row_keys.index_of(row_key) {
            None => Vec::new(),
            Some(r) => {
                let (cols, vals) = self.data.row(r);
                cols.iter()
                    .zip(vals.iter())
                    .map(|(&c, v)| (self.col_keys.key(c as usize), v))
                    .collect()
            }
        }
    }

    /// The stored entries of one column, as `(row_key, &value)` in
    /// ascending key order. Empty for unknown keys. `O(nnz)` (column
    /// access on CSR is a scan; transpose first if you need many).
    pub fn col_entries(&self, col_key: &str) -> Vec<(&str, &V)> {
        match self.col_keys.index_of(col_key) {
            None => Vec::new(),
            Some(c) => self
                .data
                .iter()
                .filter(|&(_, cc, _)| cc == c)
                .map(|(r, _, v)| (self.row_keys.key(r), v))
                .collect(),
        }
    }

    /// The transpose `Aᵀ : K2 × K1 → V` (Definition I.2).
    pub fn transpose(&self) -> AArray<V> {
        AArray {
            row_keys: self.col_keys.clone(),
            col_keys: self.row_keys.clone(),
            data: self.data.transpose(),
        }
    }

    /// Map stored values into another value type, preserving keys and
    /// pattern. Use [`AArray::map_prune`] if the mapping can produce
    /// zeros of the target pair.
    pub fn map<W: Value>(&self, f: impl Fn(&V) -> W) -> AArray<W> {
        AArray {
            row_keys: self.row_keys.clone(),
            col_keys: self.col_keys.clone(),
            data: self.data.map(f),
        }
    }

    /// Map stored values and drop results equal to the target pair's
    /// zero.
    pub fn map_prune<W, A, M>(&self, pair: &OpPair<W, A, M>, f: impl Fn(&V) -> W) -> AArray<W>
    where
        W: Value,
        A: BinaryOp<W>,
        M: BinaryOp<W>,
    {
        AArray {
            row_keys: self.row_keys.clone(),
            col_keys: self.col_keys.clone(),
            data: self.data.map_prune(pair, f),
        }
    }

    /// Map stored values *with access to their keys* — e.g. Figure 4's
    /// "give Genre|Pop entries the value 2".
    pub fn map_with_keys<A, M>(
        &self,
        pair: &OpPair<V, A, M>,
        f: impl Fn(&str, &str, &V) -> V,
    ) -> AArray<V>
    where
        A: BinaryOp<V>,
        M: BinaryOp<V>,
    {
        let (rk, ck) = (&self.row_keys, &self.col_keys);
        let entries = self
            .data
            .iter()
            .map(|(r, c, v)| (r as u32, c as u32, f(rk.key(r), ck.key(c), v)));
        AArray::from_positions(pair, rk.clone(), ck.clone(), entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aarray_algebra::pairs::{MaxMin, PlusTimes};
    use aarray_algebra::values::nat::Nat;
    use aarray_algebra::values::nn::{nn, NN};

    fn pt() -> PlusTimes<Nat> {
        PlusTimes::new()
    }

    fn sample() -> AArray<Nat> {
        AArray::from_triples(
            &pt(),
            [
                ("r2", "cB", Nat(4)),
                ("r1", "cA", Nat(1)),
                ("r1", "cB", Nat(2)),
            ],
        )
    }

    #[test]
    fn construction_sorts_keys() {
        let a = sample();
        assert_eq!(a.row_keys().keys(), &["r1", "r2"]);
        assert_eq!(a.col_keys().keys(), &["cA", "cB"]);
        assert_eq!(a.shape(), (2, 2));
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.get("r1", "cB"), Some(&Nat(2)));
        assert_eq!(a.get("r2", "cA"), None);
        assert_eq!(a.get("nope", "cA"), None);
    }

    #[test]
    fn duplicate_triples_combine() {
        let a = AArray::from_triples(&pt(), [("r", "c", Nat(1)), ("r", "c", Nat(2))]);
        assert_eq!(a.get("r", "c"), Some(&Nat(3)));
        assert_eq!(a.nnz(), 1);
    }

    #[test]
    fn transpose_swaps_keys() {
        let t = sample().transpose();
        assert_eq!(t.row_keys().keys(), &["cA", "cB"]);
        assert_eq!(t.get("cB", "r2"), Some(&Nat(4)));
        assert_eq!(t.transpose(), sample());
    }

    #[test]
    fn iteration_in_key_order() {
        let a = sample();
        let items: Vec<_> = a
            .iter()
            .map(|(r, c, v)| (r.to_string(), c.to_string(), v.0))
            .collect();
        assert_eq!(
            items,
            vec![
                ("r1".to_string(), "cA".to_string(), 1),
                ("r1".to_string(), "cB".to_string(), 2),
                ("r2".to_string(), "cB".to_string(), 4),
            ]
        );
    }

    #[test]
    fn row_and_col_entry_accessors() {
        let a = sample();
        let r1: Vec<(String, u64)> = a
            .row_entries("r1")
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.0))
            .collect();
        assert_eq!(r1, vec![("cA".to_string(), 1), ("cB".to_string(), 2)]);
        let cb: Vec<(String, u64)> = a
            .col_entries("cB")
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.0))
            .collect();
        assert_eq!(cb, vec![("r1".to_string(), 2), ("r2".to_string(), 4)]);
        assert!(a.row_entries("nope").is_empty());
        assert!(a.col_entries("nope").is_empty());
    }

    #[test]
    fn explicit_keys_preserve_empty_rows() {
        let rows = KeySet::from_iter(["e1", "e2", "e3"]);
        let cols = KeySet::from_iter(["v1"]);
        let a = AArray::from_triples_with_keys(
            &pt(),
            rows,
            cols,
            vec![("e1".to_string(), "v1".to_string(), Nat(1))],
        );
        assert_eq!(a.shape(), (3, 1));
        assert_eq!(a.nnz(), 1);
    }

    #[test]
    fn map_to_other_value_type() {
        let a = sample();
        let b: AArray<NN> = a.map(|v| nn(v.0 as f64));
        assert_eq!(b.get("r2", "cB"), Some(&nn(4.0)));
    }

    #[test]
    fn map_with_keys_reweights_columns() {
        // The Figure 4 operation in miniature.
        let pair = MaxMin::<Nat>::new();
        let a = AArray::from_triples(
            &pair,
            [("t1", "Genre|Pop", Nat(1)), ("t1", "Genre|Rock", Nat(1))],
        );
        let b = a.map_with_keys(&pair, |_, c, v| if c == "Genre|Pop" { Nat(2) } else { *v });
        assert_eq!(b.get("t1", "Genre|Pop"), Some(&Nat(2)));
        assert_eq!(b.get("t1", "Genre|Rock"), Some(&Nat(1)));
    }

    #[test]
    #[should_panic(expected = "unknown row key")]
    fn unknown_key_panics() {
        let rows = KeySet::from_iter(["a"]);
        let cols = KeySet::from_iter(["b"]);
        let _ = AArray::from_triples_with_keys(
            &pt(),
            rows,
            cols,
            vec![("zzz".to_string(), "b".to_string(), Nat(1))],
        );
    }
}
