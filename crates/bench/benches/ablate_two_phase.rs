//! Ablation: one-phase SpGEMM vs two-phase (symbolic + numeric), and
//! the Figure 3 reuse scenario — one symbolic pass amortized over all
//! seven numeric multiplies. The two-phase numeric pass is the fused
//! kernel with one lane. Every arm runs serially, symbolic pass
//! included, so the arms compare like for like on any core count.

use aarray_algebra::pairs::{MaxMin, MaxTimes, MinMax, MinPlus, MinTimes, PlusTimes};
use aarray_algebra::values::nat::Nat;
use aarray_algebra::values::nn::NN;
use aarray_algebra::{DynOpPair, Value};
use aarray_graph::generators::erdos_renyi;
use aarray_sparse::spgemm_multi::spgemm_multi_numeric;
use aarray_sparse::symbolic::{spgemm_symbolic_with, SymbolicProduct};
use aarray_sparse::{spgemm, Csr};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// The serial numeric pass under one pair.
fn numeric_one_lane<V: Value>(
    sym: &SymbolicProduct,
    a: &Csr<V>,
    b: &Csr<V>,
    pair: &dyn DynOpPair<V>,
) -> Csr<V> {
    spgemm_multi_numeric(sym, a, b, &[pair], false)
        .pop()
        .expect("one lane")
}

fn nn_pairs_inputs(tracks: usize) -> (Csr<NN>, Csr<NN>) {
    let (e1, e2) = aarray_bench::synthetic_e1_e2(tracks, 8, 100, 3);
    // Track-indexed inputs: E1ᵀ rows are genres, columns are tracks,
    // shared with E2's rows — a non-degenerate correlation.
    (e1.csr().transpose(), e2.csr().clone())
}

fn bench_two_phase(c: &mut Criterion) {
    let pair = PlusTimes::<Nat>::new();
    let mut group = c.benchmark_group("ablate_two_phase");

    for &(n, m) in &[(2_000usize, 10_000usize), (10_000, 80_000)] {
        let g = erdos_renyi(n, m, 55);
        let (eout, ein) = g.incidence_arrays(&pair);
        let a = eout.csr().transpose();
        let b = ein.csr().clone();

        group.bench_with_input(
            BenchmarkId::new("one_phase", format!("n{}_m{}", n, m)),
            &(&a, &b),
            |bch, (a, b)| bch.iter(|| spgemm(a, b, &pair)),
        );
        group.bench_with_input(
            BenchmarkId::new("two_phase_full", format!("n{}_m{}", n, m)),
            &(&a, &b),
            |bch, (a, b)| {
                bch.iter(|| {
                    let sym = spgemm_symbolic_with(a, b, false);
                    numeric_one_lane(&sym, a, b, &pair)
                })
            },
        );
        let sym = spgemm_symbolic_with(&a, &b, false);
        group.bench_with_input(
            BenchmarkId::new("numeric_only", format!("n{}_m{}", n, m)),
            &(&a, &b),
            |bch, (a, b)| bch.iter(|| numeric_one_lane(&sym, a, b, &pair)),
        );
    }

    // The Figure 3 reuse scenario: seven multiplies of the same pattern.
    let (e1t, e2) = nn_pairs_inputs(5_000);
    group.bench_function("fig3_seven_pairs_one_phase", |b| {
        b.iter(|| {
            let mut total = 0usize;
            total += spgemm(&e1t, &e2, &PlusTimes::<NN>::new()).nnz();
            total += spgemm(&e1t, &e2, &MaxTimes::<NN>::new()).nnz();
            total += spgemm(&e1t, &e2, &MinTimes::<NN>::new()).nnz();
            total += spgemm(&e1t, &e2, &MinPlus::<NN>::new()).nnz();
            total += spgemm(&e1t, &e2, &MaxMin::<NN>::new()).nnz();
            total += spgemm(&e1t, &e2, &MinMax::<NN>::new()).nnz();
            total += spgemm(&e1t, &e2, &PlusTimes::<NN>::new()).nnz();
            total
        })
    });
    group.bench_function("fig3_seven_pairs_shared_symbolic", |b| {
        b.iter(|| {
            let sym = spgemm_symbolic_with(&e1t, &e2, false);
            let mut total = 0usize;
            total += numeric_one_lane(&sym, &e1t, &e2, &PlusTimes::<NN>::new()).nnz();
            total += numeric_one_lane(&sym, &e1t, &e2, &MaxTimes::<NN>::new()).nnz();
            total += numeric_one_lane(&sym, &e1t, &e2, &MinTimes::<NN>::new()).nnz();
            total += numeric_one_lane(&sym, &e1t, &e2, &MinPlus::<NN>::new()).nnz();
            total += numeric_one_lane(&sym, &e1t, &e2, &MaxMin::<NN>::new()).nnz();
            total += numeric_one_lane(&sym, &e1t, &e2, &MinMax::<NN>::new()).nnz();
            total += numeric_one_lane(&sym, &e1t, &e2, &PlusTimes::<NN>::new()).nnz();
            total
        })
    });

    group.finish();
}

criterion_group!(benches, bench_two_phase);
criterion_main!(benches);
