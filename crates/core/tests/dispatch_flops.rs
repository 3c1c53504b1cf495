//! `dispatch.flops` records one value per plan build and one per
//! one-pass `AArray::matmul`, whatever the pool size. The histogram is
//! process-global, so this binary holds this test alone: nothing else
//! records while it counts.

use aarray_algebra::pairs::PlusTimes;
use aarray_algebra::values::nat::Nat;
use aarray_core::AArray;
use aarray_obs::{histograms, Hist};

fn records() -> u64 {
    histograms().get(Hist::DispatchFlops).snapshot().count()
}

#[test]
fn dispatch_flops_counts_each_plan_and_matmul_once_on_any_pool() {
    let pair = PlusTimes::<Nat>::new();
    let eout = AArray::from_triples(
        &pair,
        [
            ("e1", "a", Nat(1)),
            ("e2", "a", Nat(2)),
            ("e2", "b", Nat(1)),
        ],
    );
    let ein = AArray::from_triples(&pair, [("e1", "c", Nat(1)), ("e2", "c", Nat(3))]);
    let eout_t = AArray::from_triples(
        &pair,
        [
            ("a", "e1", Nat(1)),
            ("a", "e2", Nat(2)),
            ("b", "e2", Nat(1)),
        ],
    );
    for threads in [1, 2] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool");
        pool.install(|| {
            let before = records();
            let plan = eout.transpose_matmul_plan(&ein);
            let via_plan = plan.execute(&pair);
            assert_eq!(plan.execute(&pair), via_plan);
            assert_eq!(
                records() - before,
                1,
                "one plan built and executed twice on {threads} thread(s)"
            );

            let before = records();
            assert_eq!(eout_t.matmul(&ein, &pair), via_plan);
            assert_eq!(records() - before, 1, "one matmul on {threads} thread(s)");
        });
    }
}
