//! Baseline comparison: adjacency construction via array
//! multiplication (`EᵀoutEin`) vs direct hash-aggregation over the edge
//! list. Both produce identical arrays; the question is who wins and
//! where the crossover falls as graphs grow.

use aarray_algebra::pairs::{MaxMin, PlusTimes};
use aarray_algebra::values::nat::Nat;
use aarray_core::adjacency_array;
use aarray_graph::direct_adjacency;
use aarray_graph::generators::{erdos_renyi, rmat};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_baseline(c: &mut Criterion) {
    let pair = PlusTimes::<Nat>::new();
    let mut group = c.benchmark_group("baseline_direct");
    group.sample_size(20);

    for &(n, m) in &[(1_000usize, 8_000usize), (10_000, 80_000)] {
        let g = erdos_renyi(n, m, 13);
        let (eout, ein) = g.incidence_arrays(&pair);

        group.bench_with_input(
            BenchmarkId::new("spgemm_construction", format!("er_n{}_m{}", n, m)),
            &(&eout, &ein),
            |b, (eout, ein)| b.iter(|| adjacency_array(eout, ein, &pair)),
        );
        group.bench_with_input(
            BenchmarkId::new("spgemm_and_incidence_build", format!("er_n{}_m{}", n, m)),
            &g,
            |b, g| {
                b.iter(|| {
                    let (eout, ein) = g.incidence_arrays(&pair);
                    adjacency_array(&eout, &ein, &pair)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("direct_aggregation", format!("er_n{}_m{}", n, m)),
            &g,
            |b, g| b.iter(|| direct_adjacency(g, &pair)),
        );
    }

    // Skewed-degree graph under a lattice pair.
    let mm = MaxMin::<Nat>::new();
    let g = rmat(12, 65_536, (0.57, 0.19, 0.19, 0.05), 17);
    let (eout, ein) = g.incidence_arrays(&mm);
    group.bench_function("spgemm_rmat12_max_min", |b| {
        b.iter(|| adjacency_array(&eout, &ein, &mm))
    });
    group.bench_function("direct_rmat12_max_min", |b| {
        b.iter(|| direct_adjacency(&g, &mm))
    });

    group.finish();

    // Equality cross-check outside timing.
    let g = erdos_renyi(500, 4_000, 23);
    let (eout, ein) = g.incidence_arrays(&pair);
    assert_eq!(
        adjacency_array(&eout, &ein, &pair),
        direct_adjacency(&g, &pair)
    );
}

criterion_group!(benches, bench_baseline);
criterion_main!(benches);
