//! Query helpers over associative arrays: per-row extrema, top-k,
//! predicate scans — the post-construction questions an analyst asks of
//! an adjacency array ("which writer is most associated with each
//! genre?").

use crate::array::AArray;
use aarray_algebra::Value;

impl<V: Value + Ord> AArray<V> {
    /// For each row with entries: the column key holding the row's
    /// maximal value (ties: first in column-key order), with the value.
    pub fn row_argmax(&self) -> Vec<(String, String, V)> {
        self.row_extremum(|a, b| a > b)
    }

    /// For each row with entries: the column key holding the row's
    /// minimal value.
    pub fn row_argmin(&self) -> Vec<(String, String, V)> {
        self.row_extremum(|a, b| a < b)
    }

    fn row_extremum(&self, better: impl Fn(&V, &V) -> bool) -> Vec<(String, String, V)> {
        let mut out = Vec::new();
        for r in 0..self.row_keys().len() {
            let (cols, vals) = self.csr().row(r);
            let mut best: Option<(u32, &V)> = None;
            for (&c, v) in cols.iter().zip(vals.iter()) {
                match best {
                    None => best = Some((c, v)),
                    Some((_, bv)) if better(v, bv) => best = Some((c, v)),
                    _ => {}
                }
            }
            if let Some((c, v)) = best {
                out.push((
                    self.row_keys().key(r).to_string(),
                    self.col_keys().key(c as usize).to_string(),
                    v.clone(),
                ));
            }
        }
        out
    }

    /// The `k` largest entries of each row, descending (ties broken by
    /// column-key order).
    pub fn row_top_k(&self, k: usize) -> Vec<(String, Vec<(String, V)>)> {
        let mut out = Vec::new();
        for r in 0..self.row_keys().len() {
            let (cols, vals) = self.csr().row(r);
            if cols.is_empty() {
                continue;
            }
            let mut entries: Vec<(u32, &V)> = cols.iter().copied().zip(vals.iter()).collect();
            entries.sort_by(|(c1, v1), (c2, v2)| v2.cmp(v1).then(c1.cmp(c2)));
            entries.truncate(k);
            out.push((
                self.row_keys().key(r).to_string(),
                entries
                    .into_iter()
                    .map(|(c, v)| (self.col_keys().key(c as usize).to_string(), v.clone()))
                    .collect(),
            ));
        }
        out
    }
}

impl<V: Value> AArray<V> {
    /// Keep only entries matching a predicate; key sets are preserved
    /// (rows/columns may become empty, as with D4M's `A > thresh`
    /// filtering idiom).
    pub fn filter<A, M>(
        &self,
        pair: &aarray_algebra::OpPair<V, A, M>,
        pred: impl Fn(&str, &str, &V) -> bool,
    ) -> AArray<V>
    where
        A: aarray_algebra::BinaryOp<V>,
        M: aarray_algebra::BinaryOp<V>,
    {
        let (rk, ck) = (self.row_keys(), self.col_keys());
        let entries = self
            .csr()
            .iter()
            .filter(|&(r, c, v)| pred(rk.key(r), ck.key(c), v))
            .map(|(r, c, v)| (r as u32, c as u32, v.clone()));
        AArray::from_positions(pair, rk.clone(), ck.clone(), entries)
    }

    /// All entries matching a predicate, as keyed triples.
    pub fn find(&self, pred: impl Fn(&str, &str, &V) -> bool) -> Vec<(String, String, V)> {
        self.iter()
            .filter(|(r, c, v)| pred(r, c, v))
            .map(|(r, c, v)| (r.to_string(), c.to_string(), v.clone()))
            .collect()
    }

    /// Count entries matching a predicate.
    pub fn count_where(&self, pred: impl Fn(&str, &str, &V) -> bool) -> usize {
        self.iter().filter(|(r, c, v)| pred(r, c, v)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aarray_algebra::pairs::PlusTimes;
    use aarray_algebra::values::nat::Nat;

    fn sample() -> AArray<Nat> {
        AArray::from_triples(
            &PlusTimes::<Nat>::new(),
            [
                ("g1", "w1", Nat(5)),
                ("g1", "w2", Nat(9)),
                ("g1", "w3", Nat(2)),
                ("g2", "w2", Nat(4)),
            ],
        )
    }

    #[test]
    fn argmax_argmin() {
        let a = sample();
        let maxes = a.row_argmax();
        assert_eq!(maxes[0], ("g1".to_string(), "w2".to_string(), Nat(9)));
        assert_eq!(maxes[1], ("g2".to_string(), "w2".to_string(), Nat(4)));
        let mins = a.row_argmin();
        assert_eq!(mins[0].1, "w3");
    }

    #[test]
    fn argmax_tie_breaks_by_column_order() {
        let a = AArray::from_triples(
            &PlusTimes::<Nat>::new(),
            [("r", "cB", Nat(3)), ("r", "cA", Nat(3))],
        );
        assert_eq!(a.row_argmax()[0].1, "cA");
    }

    #[test]
    fn top_k() {
        let a = sample();
        let top = a.row_top_k(2);
        assert_eq!(top[0].1.len(), 2);
        assert_eq!(top[0].1[0], ("w2".to_string(), Nat(9)));
        assert_eq!(top[0].1[1], ("w1".to_string(), Nat(5)));
        assert_eq!(top[1].1.len(), 1);
    }

    #[test]
    fn filter_preserves_keys_and_drops_entries() {
        let pair = PlusTimes::<Nat>::new();
        let a = sample();
        let big = a.filter(&pair, |_, _, v| v.0 >= 5);
        assert_eq!(big.nnz(), 2);
        assert_eq!(big.shape(), a.shape(), "key sets preserved");
        assert_eq!(big.get("g1", "w3"), None);
        assert_eq!(big.get("g1", "w2"), Some(&Nat(9)));
    }

    #[test]
    fn find_and_count() {
        let a = sample();
        let big = a.find(|_, _, v| v.0 >= 5);
        assert_eq!(big.len(), 2);
        assert_eq!(a.count_where(|_, c, _| c == "w2"), 2);
    }

    #[test]
    fn empty_rows_skipped() {
        let a = AArray::from_triples(&PlusTimes::<Nat>::new(), [("r", "c", Nat(1))]);
        assert_eq!(a.row_top_k(3).len(), 1);
    }
}
