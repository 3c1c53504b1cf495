//! Property-based tests for incremental adjacency maintenance and the
//! `KeySet::intersect` fast paths.
//!
//! Random incidence pairs are cut at random row points and replayed
//! through [`IncidenceBuilder`] / [`AdjacencyView`]; for every one of
//! the paper's seven `⊕.⊗` pairs the refreshed lanes must equal the
//! one-shot batch rebuild — bit-identically on the ⊕-associative
//! pairs' delta path (for out-of-order batches, the ⊕-associative and
//! commutative pairs'), and via the counted full-rebuild fallback for
//! `+.×` over NN (float `+` is not associative). Saturated streams,
//! whose lanes store every vertex pair from the first block on, must
//! fold every batch into the lanes in place, never merging.

use aarray_algebra::pairs::{MaxMin, MaxPlus, MaxTimes, MinMax, MinPlus, MinTimes, PlusTimes};
use aarray_algebra::values::nn::{nn, NN};
use aarray_algebra::values::tropical::{trop, Tropical};
use aarray_algebra::DynOpPair;
use aarray_core::incremental::{AdjacencyView, BatchKind, IncidenceBuilder};
use aarray_core::{adjacency_plan, AArray, KeySet};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn edge_key(i: usize) -> String {
    format!("e{:03}", i)
}

fn vert_key(i: usize) -> String {
    format!("v{:03}", i)
}

/// A random incidence pair over `n` edges plus random interior row
/// cuts: `(n, eout_triples, ein_triples, cuts)`.
type Spec = (
    usize,
    Vec<(usize, usize, u32)>,
    Vec<(usize, usize, u32)>,
    Vec<usize>,
);

fn arb_spec() -> impl Strategy<Value = Spec> {
    (4usize..16).prop_flat_map(|n| {
        (
            Just(n),
            prop::collection::vec((0..n, 0..6usize, 1u32..9), 1..48),
            prop::collection::vec((0..n, 0..6usize, 1u32..9), 1..48),
            prop::collection::vec(1..n, 0..4),
        )
    })
}

/// The rows `lo..hi` of an incidence side, with the row range kept as
/// explicit keys (a row may have entries on one side only — both
/// blocks of a pair must still agree on their edge keys).
fn block(triples: &[(usize, usize, u32)], lo: usize, hi: usize, n_cols: usize) -> AArray<NN> {
    rows_block(triples, &(lo..hi).collect::<Vec<_>>(), n_cols)
}

/// [`block`] over an arbitrary set of rows.
fn rows_block(triples: &[(usize, usize, u32)], rows: &[usize], n_cols: usize) -> AArray<NN> {
    let pt = PlusTimes::<NN>::new();
    AArray::from_triples_with_keys(
        &pt,
        KeySet::from_iter(rows.iter().map(|&r| edge_key(r))),
        KeySet::from_iter((0..n_cols).map(vert_key)),
        triples
            .iter()
            .filter(|(r, _, _)| rows.contains(r))
            .map(|&(r, c, w)| (edge_key(r), vert_key(c), nn(f64::from(w) * 0.5))),
    )
}

/// Sorted, deduplicated interior cut points → the chunk boundaries
/// `[0, c1, .., n]`.
fn bounds(n: usize, cuts: &[usize]) -> Vec<usize> {
    let mut b: Vec<usize> = cuts
        .iter()
        .copied()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    b.insert(0, 0);
    b.push(n);
    b
}

/// Every stored entry of an NN array as `(row, col, value bits)`, so
/// two arrays compare bit for bit rather than under float `==`.
fn entry_bits(a: &AArray<NN>) -> Vec<(String, String, u64)> {
    a.iter()
        .map(|(r, c, v)| (r.to_string(), c.to_string(), v.get().to_bits()))
        .collect()
}

/// One edge: `(edge key number, out-vertex, in-vertex, out-weight,
/// in-weight)`.
type Row = (usize, usize, usize, u32, u32);

/// An incidence pair with one out- and one in-entry per edge.
fn edge_block(rows: &[Row]) -> (AArray<NN>, AArray<NN>) {
    let pt = PlusTimes::<NN>::new();
    let side = |vertex: fn(&Row) -> (usize, u32)| {
        let triples = rows.iter().map(|row| {
            let (v, w) = vertex(row);
            (
                format!("e{:05}", row.0),
                vert_key(v),
                nn(f64::from(w) * 0.5),
            )
        });
        AArray::from_triples(&pt, triples)
    };
    (side(|r| (r.1, r.3)), side(|r| (r.2, r.4)))
}

fn to_tropical(a: &AArray<NN>) -> AArray<Tropical> {
    a.map_prune(&MaxPlus::<Tropical>::new(), |v: &NN| trop(v.get()))
}

proptest! {
    /// Ordered row splits: the five ⊕-associative NN lanes and the
    /// tropical max.+ lane all take the delta path and land
    /// bit-identically on the one-shot rebuild; +.× over NN degrades
    /// to the counted fallback but must still agree.
    #[test]
    fn ordered_splits_match_one_shot_rebuild(spec in arb_spec()) {
        let (n, out_t, in_t, cuts) = spec;
        let b = bounds(n, &cuts);

        let plus_times = PlusTimes::<NN>::new();
        let max_times = MaxTimes::<NN>::new();
        let min_times = MinTimes::<NN>::new();
        let min_plus = MinPlus::<NN>::new();
        let max_min = MaxMin::<NN>::new();
        let min_max = MinMax::<NN>::new();
        let pairs: [&dyn DynOpPair<NN>; 6] = [
            &plus_times, &max_times, &min_times, &min_plus, &max_min, &min_max,
        ];

        let fallback_before =
            aarray_obs::snapshot().get(aarray_obs::Counter::IncrementalFallback);

        let mut builder = IncidenceBuilder::new(
            block(&out_t, b[0], b[1], 6),
            block(&in_t, b[0], b[1], 6),
        ).unwrap();
        let mut view = AdjacencyView::new(&builder, pairs.to_vec());
        for w in b.windows(2).skip(1) {
            let kind = builder
                .append_batch(block(&out_t, w[0], w[1], 6), block(&in_t, w[0], w[1], 6))
                .unwrap();
            prop_assert_eq!(kind, BatchKind::Ordered);
        }
        let report = view.refresh(&builder);

        let n_batches = b.len() - 2;
        if n_batches > 0 {
            prop_assert_eq!(
                (report.incremental_lanes, report.rebuilt_lanes, report.batches_applied),
                (5, 1, n_batches)
            );
            // The +.× fallback is counted (global counter: monotone,
            // so ≥ is safe under concurrent tests).
            let fallback_now =
                aarray_obs::snapshot().get(aarray_obs::Counter::IncrementalFallback);
            prop_assert!(fallback_now > fallback_before);
        } else {
            prop_assert!(!report.did_work());
        }

        let full_out = block(&out_t, 0, n, 6);
        let full_in = block(&in_t, 0, n, 6);
        prop_assert_eq!(builder.eout(), &full_out);
        prop_assert_eq!(builder.ein(), &full_in);
        let rebuilt = adjacency_plan(&full_out, &full_in).execute_all(&pairs);
        for (i, full) in rebuilt.iter().enumerate() {
            prop_assert_eq!(view.lane(i), full, "NN lane {} diverged", i);
        }

        // The seventh paper pair, max.+ on the tropical carrier: ⊕ is
        // max, associative, so its lane goes incremental too.
        let mp = MaxPlus::<Tropical>::new();
        let mut t_builder = IncidenceBuilder::new(
            to_tropical(&block(&out_t, b[0], b[1], 6)),
            to_tropical(&block(&in_t, b[0], b[1], 6)),
        ).unwrap();
        let mut t_view =
            AdjacencyView::new(&t_builder, vec![&mp as &dyn DynOpPair<Tropical>]);
        for w in b.windows(2).skip(1) {
            t_builder
                .append_batch(
                    to_tropical(&block(&out_t, w[0], w[1], 6)),
                    to_tropical(&block(&in_t, w[0], w[1], 6)),
                )
                .unwrap();
        }
        let t_report = t_view.refresh(&t_builder);
        if n_batches > 0 {
            prop_assert_eq!((t_report.incremental_lanes, t_report.rebuilt_lanes), (1, 0));
        }
        let t_full = adjacency_plan(&to_tropical(&full_out), &to_tropical(&full_in))
            .execute(&mp);
        prop_assert_eq!(t_view.lane(0), &t_full);
    }

    /// Appending chunks newest-first interleaves edge keys: every
    /// append after the first is out of order, and the log holds
    /// barriers. The max.min and min.+ lanes (⊕ associative and
    /// commutative) still replay every batch, +.× rebuilds, and all
    /// three agree bit for bit with the one-shot rebuild.
    #[test]
    fn out_of_order_appends_rebuild_and_still_agree(spec in arb_spec()) {
        let (n, out_t, in_t, cuts) = spec;
        let b = bounds(n, &cuts);
        if b.len() < 3 {
            return Ok(()); // no interior cut: nothing to interleave
        }

        let max_min = MaxMin::<NN>::new();
        let min_plus = MinPlus::<NN>::new();
        let plus_times = PlusTimes::<NN>::new();
        let pairs: [&dyn DynOpPair<NN>; 3] = [&max_min, &min_plus, &plus_times];

        // Seed with the *last* chunk, then append earlier ones.
        let last = b.len() - 2;
        let mut builder = IncidenceBuilder::new(
            block(&out_t, b[last], b[last + 1], 6),
            block(&in_t, b[last], b[last + 1], 6),
        ).unwrap();
        let mut view = AdjacencyView::new(&builder, pairs.to_vec());
        for w in b.windows(2).take(last).rev() {
            let kind = builder
                .append_batch(block(&out_t, w[0], w[1], 6), block(&in_t, w[0], w[1], 6))
                .unwrap();
            prop_assert_eq!(kind, BatchKind::OutOfOrder);
        }
        let report = view.refresh(&builder);
        prop_assert_eq!(
            (report.incremental_lanes, report.rebuilt_lanes, report.batches_applied),
            (2, 1, last)
        );

        let full_out = block(&out_t, 0, n, 6);
        let full_in = block(&in_t, 0, n, 6);
        prop_assert_eq!(builder.eout(), &full_out);
        prop_assert_eq!(builder.ein(), &full_in);
        let rebuilt = adjacency_plan(&full_out, &full_in).execute_all(&pairs);
        for (i, full) in rebuilt.iter().enumerate() {
            prop_assert_eq!(view.lane(i).row_keys(), full.row_keys());
            prop_assert_eq!(view.lane(i).col_keys(), full.col_keys());
            prop_assert_eq!(entry_bits(view.lane(i)), entry_bits(full), "lane {} diverged", i);
        }
    }

    /// Chunks appended in random order — some ordered, some out of
    /// order — with cumulative reads and view refreshes at random
    /// points, so a batch arrives sometimes onto a stacked pair and
    /// sometimes onto pending blocks. Every read must see exactly the
    /// rows appended so far, every lane must match a rebuild from it,
    /// and the final pair must equal the one-shot incidence.
    #[test]
    fn lazy_stacking_agrees_under_mixed_appends_and_reads(
        spec in arb_spec(),
        order in prop::collection::vec(0u32..1000, 5),
        steps in prop::collection::vec(0u8..4, 5),
    ) {
        let (n, out_t, in_t, cuts) = spec;
        let b = bounds(n, &cuts);
        let mut chunks: Vec<(usize, usize)> = b.windows(2).map(|w| (w[0], w[1])).collect();
        let mut keys = order.iter();
        chunks.sort_by_cached_key(|_| keys.next().copied());

        let max_times = MaxTimes::<NN>::new();
        let min_plus = MinPlus::<NN>::new();
        let max_min = MaxMin::<NN>::new();
        let pairs: [&dyn DynOpPair<NN>; 3] = [&max_times, &min_plus, &max_min];

        let (lo, hi) = chunks[0];
        let mut rows: Vec<usize> = (lo..hi).collect();
        let mut builder = IncidenceBuilder::new(
            block(&out_t, lo, hi, 6),
            block(&in_t, lo, hi, 6),
        ).unwrap();
        let mut view = AdjacencyView::new(&builder, pairs.to_vec());
        for (g, (&(lo, hi), &step)) in chunks[1..].iter().zip(&steps).enumerate() {
            let (read, refresh) = (step & 1 == 1, step & 2 == 2);
            let ordered = rows.iter().all(|&r| r < lo);
            let kind = builder
                .append_batch(block(&out_t, lo, hi, 6), block(&in_t, lo, hi, 6))
                .unwrap();
            prop_assert_eq!(kind == BatchKind::Ordered, ordered);
            rows.extend(lo..hi);
            rows.sort_unstable();
            prop_assert_eq!(builder.generation(), g as u64 + 1);
            prop_assert_eq!(builder.n_edges(), rows.len());
            if refresh {
                view.refresh(&builder);
            }
            if read {
                prop_assert_eq!(builder.eout(), &rows_block(&out_t, &rows, 6));
                prop_assert_eq!(builder.ein(), &rows_block(&in_t, &rows, 6));
                view.refresh(&builder);
                let rebuilt =
                    adjacency_plan(builder.eout(), builder.ein()).execute_all(&pairs);
                for (i, full) in rebuilt.iter().enumerate() {
                    prop_assert_eq!(view.lane(i), full, "lane {} diverged after batch {}", i, g);
                }
            }
        }

        view.refresh(&builder);
        let full_out = block(&out_t, 0, n, 6);
        let full_in = block(&in_t, 0, n, 6);
        prop_assert_eq!(builder.eout(), &full_out);
        prop_assert_eq!(builder.ein(), &full_in);
        let rebuilt = adjacency_plan(&full_out, &full_in).execute_all(&pairs);
        for (i, full) in rebuilt.iter().enumerate() {
            prop_assert_eq!(view.lane(i), full, "lane {} diverged", i);
        }
    }

    /// Saturated streams: the initial block holds an edge for every
    /// (out-vertex, in-vertex) pair, so each lane stores all 36 entries
    /// from the start, and the random batches after it, some ordered and
    /// some interleaved with older edge keys, bring no key and no entry.
    /// The five max/min lanes (`⊕` associative and commutative) must fold
    /// every batch in place, never merge, and land bit for bit on the
    /// one-shot rebuild.
    #[test]
    fn saturated_streams_fold_in_place(
        initial in prop::collection::vec((1u32..9, 1u32..9), 36),
        batches in prop::collection::vec(
            (
                prop::collection::vec((0..6usize, 0..6usize, 1u32..9, 1u32..9), 1..8),
                0u8..2,
                0u8..2,
            ),
            1..8,
        ),
    ) {
        let max_times = MaxTimes::<NN>::new();
        let min_times = MinTimes::<NN>::new();
        let min_plus = MinPlus::<NN>::new();
        let max_min = MaxMin::<NN>::new();
        let min_max = MinMax::<NN>::new();
        let pairs: [&dyn DynOpPair<NN>; 5] =
            [&max_times, &min_times, &min_plus, &max_min, &min_max];

        // Initial edge `i·6 + j` runs v_i → v_j under key 100·(i·6 + j).
        // An ordered batch's keys count up from 10000; an interleaved
        // one's sort between initial keys, and below the largest.
        let all_pairs = (0..6).flat_map(|i| (0..6).map(move |j| (i, j)));
        let first: Vec<Row> = all_pairs
            .zip(&initial)
            .enumerate()
            .map(|(k, ((i, j), &(w_out, w_in)))| (k * 100, i, j, w_out, w_in))
            .collect();
        let (e0, i0) = edge_block(&first);
        let mut builder = IncidenceBuilder::new(e0, i0).unwrap();
        let mut view = AdjacencyView::new(&builder, pairs.to_vec());
        let (mut next_ordered, mut next_interleaved) = (10_000, 0);
        let mut merged = 0;
        let mut refresh = |view: &mut AdjacencyView<'_, NN>, builder: &IncidenceBuilder<NN>| {
            let report = view.refresh(builder);
            prop_assert_eq!(report.rebuilt_lanes, 0);
            merged += report.merged_folds;
            Ok(())
        };
        for (edges, interleaved, refresh_now) in &batches {
            let (interleaved, refresh_now) = (*interleaved == 1, *refresh_now == 1);
            let rows: Vec<Row> = edges
                .iter()
                .map(|&(i, j, w_out, w_in)| {
                    let key = if interleaved {
                        next_interleaved += 1;
                        (next_interleaved % 35) * 100 + 1 + next_interleaved / 35
                    } else {
                        next_ordered += 1;
                        next_ordered
                    };
                    (key, i, j, w_out, w_in)
                })
                .collect();
            let (d_out, d_in) = edge_block(&rows);
            let kind = builder.append_batch(d_out, d_in).unwrap();
            let want = if interleaved { BatchKind::OutOfOrder } else { BatchKind::Ordered };
            prop_assert_eq!(kind, want);
            if refresh_now {
                refresh(&mut view, &builder)?;
            }
        }
        refresh(&mut view, &builder)?;
        prop_assert_eq!(merged, 0, "a batch inside every lane's pattern merged");

        let rebuilt = adjacency_plan(builder.eout(), builder.ein()).execute_all(&pairs);
        for (i, full) in rebuilt.iter().enumerate() {
            prop_assert_eq!(full.nnz(), 36);
            prop_assert_eq!(view.lane(i).row_keys(), full.row_keys());
            prop_assert_eq!(view.lane(i).col_keys(), full.col_keys());
            prop_assert_eq!(entry_bits(view.lane(i)), entry_bits(full), "lane {} diverged", i);
        }
    }

    /// `KeySet::intersect` against an independent `BTreeSet` oracle:
    /// sorted, duplicate-free keys and index maps that point back at
    /// the right positions in both operands.
    #[test]
    fn intersect_matches_set_oracle(
        a_idx in prop::collection::vec(0usize..24, 0..16),
        b_idx in prop::collection::vec(0usize..24, 0..16),
    ) {
        let a = KeySet::from_iter(a_idx.iter().map(|&i| vert_key(i)));
        let bset = KeySet::from_iter(b_idx.iter().map(|&i| vert_key(i)));
        let (both, ia, ib) = a.intersect(&bset);

        let oracle: BTreeSet<String> = a_idx
            .iter()
            .copied()
            .filter(|i| b_idx.contains(i))
            .map(vert_key)
            .collect();
        let got: Vec<&String> = both.keys().iter().collect();
        prop_assert_eq!(got, oracle.iter().collect::<Vec<_>>());
        prop_assert!(both.keys().windows(2).all(|w| w[0] < w[1]), "sorted, duplicate-free");

        prop_assert_eq!(ia.len(), both.len());
        prop_assert_eq!(ib.len(), both.len());
        for (k, (&i, &j)) in both.keys().iter().zip(ia.iter().zip(&ib)) {
            prop_assert_eq!(a.key(i), k.as_str());
            prop_assert_eq!(bset.key(j), k.as_str());
        }
    }

    /// The three non-merge fast paths — shared storage, empty /
    /// prefix-extended sets, and disjoint key ranges — must agree with
    /// the general merge result and be visibly counted.
    #[test]
    fn intersect_fast_paths_agree_and_are_counted(
        idx in prop::collection::vec(0usize..24, 1..16),
        extra in prop::collection::vec(0usize..8, 0..6),
    ) {
        use aarray_obs::Counter::{
            IntersectArcIdentity, IntersectDisjointRange, IntersectPrefix,
        };
        let count = |c: aarray_obs::Counter| aarray_obs::snapshot().get(c);

        // Shared storage: a clone intersects via pointer identity.
        let a = KeySet::from_iter(idx.iter().map(|&i| vert_key(i)));
        let before = count(IntersectArcIdentity);
        let (same, ia, ib) = a.intersect(&a.clone());
        prop_assert_eq!(&same, &a);
        prop_assert_eq!(&ia, &ib);
        prop_assert_eq!(ia, (0..a.len()).collect::<Vec<_>>());
        prop_assert!(count(IntersectArcIdentity) > before);

        // Empty and extended sets take the prefix probe: the overlap
        // is exactly the shorter set, in both argument orders.
        let empty = KeySet::empty();
        let before = count(IntersectPrefix);
        prop_assert!(a.intersect(&empty).0.is_empty());
        prop_assert!(empty.intersect(&a).0.is_empty());
        let extended = KeySet::from_iter(
            a.keys()
                .iter()
                .cloned()
                .chain(extra.iter().map(|&i| format!("w{:03}", i))),
        );
        let (common, ia, ib) = a.intersect(&extended);
        prop_assert_eq!(&common, &a);
        prop_assert_eq!(&ia, &ib);
        prop_assert!(count(IntersectPrefix) >= before + 3);

        // Disjoint key ranges short-circuit to the empty overlap.
        let shifted = KeySet::from_iter(idx.iter().map(|&i| format!("x{:03}", i)));
        let before = count(IntersectDisjointRange);
        let (none, _, _) = a.intersect(&shifted);
        prop_assert!(none.is_empty());
        prop_assert!(count(IntersectDisjointRange) > before);
    }
}
