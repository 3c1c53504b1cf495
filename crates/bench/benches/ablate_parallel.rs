//! Ablation: serial vs rayon row-parallel SpGEMM across sizes — where
//! does parallelism start paying? (This calibrates the
//! `PARALLEL_NNZ_THRESHOLD` in `aarray-core::matmul`.)

use aarray_algebra::pairs::PlusTimes;
use aarray_algebra::values::nat::Nat;
use aarray_graph::generators::erdos_renyi;
use aarray_sparse::{spgemm, spgemm_parallel};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_parallel(c: &mut Criterion) {
    let pair = PlusTimes::<Nat>::new();
    let mut group = c.benchmark_group("ablate_parallel");
    group.sample_size(20);

    for &(n, m) in &[
        (1_000usize, 8_000usize),
        (10_000, 80_000),
        (50_000, 400_000),
    ] {
        let g = erdos_renyi(n, m, 21);
        let (eout, ein) = g.incidence_arrays(&pair);
        let a = eout.csr().transpose();
        let b = ein.csr().clone();

        group.bench_with_input(
            BenchmarkId::new("serial_spa", format!("n{}_m{}", n, m)),
            &(&a, &b),
            |bch, (a, b)| bch.iter(|| spgemm(a, b, &pair)),
        );
        group.bench_with_input(
            BenchmarkId::new("parallel_spa", format!("n{}_m{}", n, m)),
            &(&a, &b),
            |bch, (a, b)| bch.iter(|| spgemm_parallel(a, b, &pair)),
        );
    }
    group.finish();

    // Determinism cross-check outside timing.
    let g = erdos_renyi(2_000, 16_000, 3);
    let (eout, ein) = g.incidence_arrays(&pair);
    let a = eout.csr().transpose();
    let serial = spgemm(&a, ein.csr(), &pair);
    let parallel = spgemm_parallel(&a, ein.csr(), &pair);
    assert_eq!(serial, parallel, "parallel kernel must be bit-identical");
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
