//! Bit-identity of the row-parallel fused kernel under a **real**
//! thread pool, across all seven paper op pairs and several forced
//! pool sizes.
//!
//! The paper's Figure 3 workload runs six `⊕.⊗` pairs over non-negative
//! reals plus `max.+` over the tropical extension; the kernels promise
//! every one of them the serial fold order per row regardless of which
//! worker claims the row's chunk. This suite drives the promise through
//! actual thread fan-out: pool sizes 1 (inline), 2, 4, and 8 (more
//! workers than cores on most hosts, so chunks genuinely interleave),
//! with random operands from a proptest strategy.
//!
//! NN's `+` is float addition — non-associative, so any fold-order
//! deviation across chunk or fold-block boundaries would change low
//! bits and fail the exact equality below. A third of the cases are
//! long rows (`common::arb_long_rows`): rows of more than two fold
//! blocks, empty rows, and fewer rows than the pool has chunks. A third
//! are incidence-shaped (`common::arb_hyperedges`): edges with no
//! head, one head or several, and tails with several entries.

mod common;

use aarray_algebra::pairs::{MaxMin, MaxPlus, MaxTimes, MinMax, MinPlus, MinTimes, PlusTimes};
use aarray_algebra::values::nn::NN;
use aarray_algebra::values::tropical::{trop, Tropical};
use aarray_algebra::DynOpPair;
use aarray_sparse::{spgemm, spgemm_parallel, Coo, Csr};
use common::{arb_nn_operands, fused};
use proptest::prelude::*;

const POOL_SIZES: [usize; 4] = [1, 2, 4, 8];

/// The tropical views of the same pattern (the paper's seventh pair
/// runs on `Tropical`, a different value set, so it gets its own
/// single-lane product).
fn tropicalize(a: &Csr<NN>) -> Csr<Tropical> {
    let mp = MaxPlus::<Tropical>::new();
    let mut coo = Coo::new(a.nrows(), a.ncols());
    for (i, j, v) in a.iter() {
        coo.push(i, j, trop(v.get()));
    }
    coo.into_csr(&mp)
}

proptest! {
    #[test]
    fn seven_paper_pairs_bit_identical_at_all_pool_sizes((a, b) in arb_nn_operands(12, 60)) {
        let plus_times = PlusTimes::<NN>::new();
        let max_times = MaxTimes::<NN>::new();
        let min_times = MinTimes::<NN>::new();
        let min_plus = MinPlus::<NN>::new();
        let max_min = MaxMin::<NN>::new();
        let min_max = MinMax::<NN>::new();
        let nn_pairs: [&dyn DynOpPair<NN>; 6] = [
            &plus_times, &max_times, &min_times, &min_plus, &max_min, &min_max,
        ];
        let mp = MaxPlus::<Tropical>::new();
        let trop_pairs: [&dyn DynOpPair<Tropical>; 1] = [&mp];
        let (at, bt) = (tropicalize(&a), tropicalize(&b));

        let serial = fused(&a, &b, &nn_pairs, false);
        let serial_t = fused(&at, &bt, &trop_pairs, false);
        for threads in POOL_SIZES {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let parallel = pool.install(|| fused(&a, &b, &nn_pairs, true));
            prop_assert_eq!(&serial, &parallel, "NN lanes, {} threads", threads);
            let parallel_t = pool.install(|| fused(&at, &bt, &trop_pairs, true));
            prop_assert_eq!(&serial_t, &parallel_t, "tropical max.+ lane, {} threads", threads);
        }
    }

    #[test]
    fn one_shot_parallel_kernel_matches_serial_under_real_pools((a, b) in arb_nn_operands(10, 40)) {
        // The one-pair row-parallel driver (matmul's dispatch target)
        // under the same pool sizes — float ⊕ again makes fold order
        // observable.
        let plus_times = PlusTimes::<NN>::new();
        let serial = spgemm(&a, &b, &plus_times);
        for threads in POOL_SIZES {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let parallel = pool.install(|| spgemm_parallel(&a, &b, &plus_times));
            prop_assert_eq!(&serial, &parallel, "{} threads", threads);
        }
    }
}

/// Building and dropping pools must never hang. A worker that is about
/// to park just as its pool is dropped must still see the shutdown, or
/// the drop's join waits forever. Runs many short-lived pools of sizes
/// 2–8 under a watchdog, so a lost wakeup fails the test instead of
/// hanging the suite.
#[test]
fn pool_teardown_never_loses_the_shutdown_wakeup() {
    use rayon::prelude::*;
    use std::sync::mpsc;
    use std::time::Duration;

    const ROUNDS: usize = 2000;
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for round in 0..ROUNDS {
            let threads = 2 + round % 7;
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let v: Vec<usize> =
                pool.install(|| (0..64usize).into_par_iter().map(|x| x + round).collect());
            assert_eq!(v[63], 63 + round);
            drop(pool);
            if tx.send(round).is_err() {
                return;
            }
        }
    });
    let mut done = 0;
    while done < ROUNDS {
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(round) => done = round + 1,
            Err(mpsc::RecvTimeoutError::Timeout) => panic!(
                "pool of {} threads hung after round {}: teardown lost a wakeup",
                2 + done % 7,
                done
            ),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                panic!("stress thread panicked at round {done}")
            }
        }
    }
}
