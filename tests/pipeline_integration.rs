//! Cross-crate pipeline tests: generators → incidence → adjacency →
//! algorithms; kernel-variant agreement; baseline agreement; element-
//! wise composition.

use aarray_algebra::pairs::{MaxMin, OrAnd, PlusTimes};
use aarray_algebra::values::nat::Nat;
use aarray_core::{adjacency_array, theorem::pattern_diff};
use aarray_graph::algorithms::{bfs_levels, out_degrees};
use aarray_graph::direct_adjacency;
use aarray_graph::generators::{complete, cycle, erdos_renyi, music_like, path, rmat};
use aarray_sparse::{spgemm, spgemm_parallel};

#[test]
fn random_graphs_construct_exact_patterns() {
    let pair = PlusTimes::<Nat>::new();
    for seed in 0..5 {
        let g = erdos_renyi(60, 300, seed);
        let (eout, ein) = g.incidence_arrays(&pair);
        let a = adjacency_array(&eout, &ein, &pair);
        assert!(
            pattern_diff(&a, g.edge_pattern()).is_exact(),
            "seed {}",
            seed
        );
        // Baseline agreement.
        assert_eq!(a, direct_adjacency(&g, &pair), "seed {}", seed);
    }
}

#[test]
fn rmat_pipeline_with_lattice_pair() {
    let pair = MaxMin::<Nat>::new();
    let g = rmat(8, 2_000, (0.57, 0.19, 0.19, 0.05), 11);
    let (eout, ein) = g.incidence_arrays(&pair);
    let a = adjacency_array(&eout, &ein, &pair);
    assert!(pattern_diff(&a, g.edge_pattern()).is_exact());
    assert_eq!(a, direct_adjacency(&g, &pair));
}

#[test]
fn serial_parallel_and_fused_agree_on_real_workload() {
    let pair = PlusTimes::<Nat>::new();
    let g = erdos_renyi(200, 2_000, 77);
    let (eout, ein) = g.incidence_arrays(&pair);
    let at = eout.csr().transpose();
    let reference = spgemm(&at, ein.csr(), &pair);
    assert_eq!(spgemm_parallel(&at, ein.csr(), &pair), reference);
    // The plan path runs the fused two-phase kernel.
    assert_eq!(adjacency_array(&eout, &ein, &pair).csr(), &reference);
}

#[test]
fn music_like_bipartite_correlation() {
    // The Figure 3 computation shape on generated data: genre×writer
    // correlation through shared tracks.
    let pair = PlusTimes::<Nat>::new();
    let g = music_like(500, 4, 30, 5);
    let (eout, _) = g.incidence_arrays(&pair);
    let e1 = eout.select_cols_str("Genre|*");
    let e2 = eout.select_cols_str("Writer|*");
    let a = e1.transpose().matmul(&e2, &pair);
    assert_eq!(a.shape().0, e1.shape().1);
    assert_eq!(a.shape().1, e2.shape().1);
    // Total correlation mass = Σ (genre_deg(track) × writer_deg(track)).
    let mass: u64 = a.csr().values().iter().map(|v| v.0).sum();
    let mut expect = 0u64;
    for r in 0..e1.shape().0 {
        expect += (e1.csr().row_nnz(r) * e2.csr().row_nnz(r)) as u64;
    }
    assert_eq!(mass, expect);
}

#[test]
fn bfs_agrees_with_classic_families() {
    let pair = PlusTimes::<Nat>::new();
    let bpair = OrAnd::new();
    for (g, diameter) in [(path(10), 9usize), (cycle(8), 7)] {
        let (eout, ein) = g.incidence_arrays(&pair);
        let ab = adjacency_array(
            &eout.map_prune(&bpair, |v| v.0 > 0),
            &ein.map_prune(&bpair, |v| v.0 > 0),
            &bpair,
        );
        let src = ab.row_keys().key(0).to_string();
        let levels = bfs_levels(&ab, &src);
        assert_eq!(levels.values().max().copied().unwrap(), diameter);
    }
}

#[test]
fn complete_graph_degrees() {
    let pair = PlusTimes::<Nat>::new();
    let g = complete(6);
    let (eout, ein) = g.incidence_arrays(&pair);
    let a = adjacency_array(&eout, &ein, &pair);
    for (_, d) in out_degrees(&a) {
        assert_eq!(d, 5);
    }
}

#[test]
fn elementwise_composes_with_construction() {
    // Build adjacency from two edge batches separately, then ⊕ them —
    // must equal building from the union batch.
    let pair = PlusTimes::<Nat>::new();
    let mut g_all = aarray_graph::MultiGraph::new();
    let mut g1 = aarray_graph::MultiGraph::new();
    let mut g2 = aarray_graph::MultiGraph::new();
    let edges = [
        ("e1", "a", "b"),
        ("e2", "b", "c"),
        ("e3", "a", "b"),
        ("e4", "c", "a"),
    ];
    for (i, (k, s, d)) in edges.iter().enumerate() {
        g_all.add_edge(*k, *s, *d, Nat(1), Nat(1));
        if i % 2 == 0 {
            g1.add_edge(*k, *s, *d, Nat(1), Nat(1));
        } else {
            g2.add_edge(*k, *s, *d, Nat(1), Nat(1));
        }
    }
    // Ensure identical vertex sets so shapes align.
    for v in ["a", "b", "c"] {
        g1.add_vertex(v);
        g2.add_vertex(v);
    }
    let (eo, ei) = g_all.incidence_arrays(&pair);
    let whole = adjacency_array(&eo, &ei, &pair);
    let (eo1, ei1) = g1.incidence_arrays(&pair);
    let (eo2, ei2) = g2.incidence_arrays(&pair);
    let parts =
        adjacency_array(&eo1, &ei1, &pair).ewise_add(&adjacency_array(&eo2, &ei2, &pair), &pair);
    assert_eq!(whole, parts);
}

#[test]
fn transpose_of_product_vs_reverse_product() {
    // Section III: (AB)ᵀ = BᵀAᵀ requires ⊗ commutativity. For the
    // commutative pairs used here the identity holds on real data.
    let pair = PlusTimes::<Nat>::new();
    let g = erdos_renyi(30, 120, 9);
    let (eout, ein) = g.incidence_arrays(&pair);
    let forward_t = adjacency_array(&eout, &ein, &pair).transpose();
    let reverse = aarray_core::reverse_adjacency_array(&eout, &ein, &pair);
    assert_eq!(forward_t, reverse);
}
