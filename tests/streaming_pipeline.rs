//! End-to-end streaming scenario: edges arrive in batches, each batch
//! is appended to an `IncidenceBuilder`, an `AdjacencyView` keeps the
//! adjacency array current, and the analysis layer (metrics,
//! components, PageRank, export) consumes the refreshed lane — the
//! "data processing pipeline" of the paper's abstract, at system level.

use aarray_algebra::pairs::{MaxMin, PlusTimes};
use aarray_algebra::values::nat::Nat;
use aarray_algebra::DynOpPair;
use aarray_core::adjacency_array;
use aarray_core::incremental::{AdjacencyView, BatchKind, IncidenceBuilder};
use aarray_core::AArray;
use aarray_graph::components::component_count;
use aarray_graph::export::{to_dot, DotOptions};
use aarray_graph::generators::erdos_renyi;
use aarray_graph::metrics::graph_metrics;
use aarray_graph::pagerank::{pagerank, PageRankOptions};
use aarray_graph::{Edge, MultiGraph};

/// Incidence arrays of `edges` over every vertex of `g`. Each batch
/// then spans the stream's full vertex set, so every lane stays square
/// however the edges are split.
fn batch_incidence(g: &MultiGraph<Nat>, edges: &[Edge<Nat>]) -> (AArray<Nat>, AArray<Nat>) {
    let mut batch = MultiGraph::new();
    for v in g.vertices() {
        batch.add_vertex(v);
    }
    for e in edges {
        batch.add_edge(e.key.clone(), e.src.clone(), e.dst.clone(), e.wout, e.win);
    }
    batch.incidence_arrays(&PlusTimes::<Nat>::new())
}

/// Stream `g`'s edges in batches of `size`: the first batch starts the
/// builder, each later one is appended and the view refreshed by delta
/// replay. Returns the final lanes.
fn stream(g: &MultiGraph<Nat>, size: usize, pairs: Vec<&dyn DynOpPair<Nat>>) -> Vec<AArray<Nat>> {
    let mut batches = g.edges().chunks(size);
    let (eout, ein) = batch_incidence(g, batches.next().unwrap_or_default());
    let mut builder = IncidenceBuilder::new(eout, ein).unwrap();
    let mut view = AdjacencyView::new(&builder, pairs);
    for batch in batches {
        let (d_out, d_in) = batch_incidence(g, batch);
        assert_eq!(builder.append_batch(d_out, d_in), Ok(BatchKind::Ordered));
        let report = view.refresh(&builder);
        assert_eq!(report.incremental_lanes, view.n_lanes(), "delta replay");
    }
    (0..view.n_lanes()).map(|i| view.lane(i).clone()).collect()
}

#[test]
fn streamed_construction_feeds_the_analysis_stack() {
    let pair = PlusTimes::<Nat>::new();

    // Ground truth: one-shot construction from the full edge list.
    let g = erdos_renyi(80, 400, 123);
    let (eout, ein) = g.incidence_arrays(&pair);
    let reference = adjacency_array(&eout, &ein, &pair);

    // Stream the same edges in odd-sized batches.
    let streamed = stream(&g, 17, vec![&pair]).remove(0);
    assert_eq!(streamed, reference);

    // Analysis stack runs on the refreshed lane.
    let m = graph_metrics(&streamed);
    assert_eq!(m.vertices, 80);
    assert!(m.edges <= 400);
    assert_eq!(m.edges, streamed.nnz());

    let comps = component_count(&streamed);
    assert!((1..=80).contains(&comps));

    let pr = pagerank(&streamed, |v| v.0 as f64, PageRankOptions::default());
    let total: f64 = pr.values().sum();
    assert!((total - 1.0).abs() < 1e-8);

    let dot = to_dot(
        &streamed,
        &DotOptions {
            edge_labels: false,
            ..Default::default()
        },
    );
    assert_eq!(dot.matches(" -> ").count(), streamed.nnz());
}

#[test]
fn streaming_batch_size_is_semantically_invisible() {
    let plus_times = PlusTimes::<Nat>::new();
    let max_min = MaxMin::<Nat>::new();
    let g = erdos_renyi(30, 150, 7);
    let mut results = Vec::new();
    for size in [1usize, 7, 64, 1000] {
        results.push(stream(&g, size, vec![&plus_times, &max_min]));
    }
    for w in results.windows(2) {
        assert_eq!(w[0], w[1]);
    }
    let (eout, ein) = g.incidence_arrays(&plus_times);
    assert_eq!(results[0][1], adjacency_array(&eout, &ein, &max_min));
}

#[test]
fn incremental_updates_compose_with_queries() {
    // A growing graph queried between batches — the operational mode
    // the paper's "database table → graph" pipeline implies.
    let pair = PlusTimes::<Nat>::new();
    let mut g = MultiGraph::new();
    g.add_edge("e1", "alice", "bob", Nat(1), Nat(1));
    g.add_edge("e2", "bob", "carol", Nat(1), Nat(1));
    g.add_edge("e3", "carol", "alice", Nat(1), Nat(1));
    g.add_edge("e4", "alice", "bob", Nat(1), Nat(1)); // repeat: aggregates
    let (first, second) = g.edges().split_at(2);

    let (eout, ein) = batch_incidence(&g, first);
    let mut builder = IncidenceBuilder::new(eout, ein).unwrap();
    let mut view = AdjacencyView::new(&builder, vec![&pair]);
    assert_eq!(view.lane(0).get("alice", "bob"), Some(&Nat(1)));
    assert_eq!(component_count(view.lane(0)), 1);

    let (d_out, d_in) = batch_incidence(&g, second);
    builder.append_batch(d_out, d_in).unwrap();
    view.refresh(&builder);
    let a = view.lane(0);

    assert_eq!(a.get("alice", "bob"), Some(&Nat(2)));
    assert_eq!(graph_metrics(a).vertices, 3);
    assert_eq!(component_count(a), 1);
    // Strongest link via query API.
    let top = a.row_argmax();
    assert_eq!(top[0].0, "alice");
    assert_eq!(top[0].2, Nat(2));
}
