//! Downstream cost: semiring vector products and BFS on a constructed
//! adjacency array — the algorithms the paper's pipeline feeds.

use aarray_algebra::pairs::{OrAnd, PlusTimes};
use aarray_algebra::values::nat::Nat;
use aarray_core::adjacency_array;
use aarray_graph::algorithms::bfs_levels;
use aarray_graph::generators::rmat;
use aarray_sparse::spmv::spmv;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_spmv_bfs(c: &mut Criterion) {
    let pair = PlusTimes::<Nat>::new();
    let bpair = OrAnd::new();
    let mut group = c.benchmark_group("spmv_bfs");
    group.sample_size(20);

    for scale in [10u32, 12] {
        let m = 16 * (1usize << scale);
        let g = rmat(scale, m, (0.57, 0.19, 0.19, 0.05), 8);
        let (eout, ein) = g.incidence_arrays(&pair);
        let adj = adjacency_array(&eout, &ein, &pair);
        let adj_bool = adjacency_array(
            &eout.map_prune(&bpair, |v| v.0 > 0),
            &ein.map_prune(&bpair, |v| v.0 > 0),
            &bpair,
        );

        let n = adj.shape().1;
        let x: Vec<Option<Nat>> = (0..n).map(|i| (i % 3 == 0).then_some(Nat(1))).collect();
        group.bench_with_input(BenchmarkId::new("spmv_serial", scale), &adj, |b, adj| {
            b.iter(|| spmv(adj.csr(), &x, &pair))
        });

        let src = adj_bool.row_keys().key(0).to_string();
        group.bench_with_input(BenchmarkId::new("bfs", scale), &adj_bool, |b, adj| {
            b.iter(|| bfs_levels(adj, &src))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_spmv_bfs);
criterion_main!(benches);
