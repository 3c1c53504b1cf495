//! Property-based bit-identity of the fused multi-semiring kernel:
//! for random operands, every lane of the symbolic + numeric passes
//! must equal the corresponding independent one-pass `spgemm` call —
//! serially, row-parallel, and for order-sensitive `⊕`s: float `+` on
//! `NN` and the non-associative `|−|` (so fold order is observable, not
//! just the folded multiset). A third of the cases are long rows that
//! cross the kernel's fold-block boundaries (`common::arb_long_rows`),
//! and a third are incidence-shaped, mixing edges the gather resolves
//! to their one head with hyperedges it leaves in place
//! (`common::arb_hyperedges`).

mod common;

use aarray_algebra::ops::{AbsDiff, Times};
use aarray_algebra::pairs::{MaxMin, MinPlus, PlusTimes};
use aarray_algebra::values::nn::NN;
use aarray_algebra::{DynOpPair, OpPair};
use aarray_sparse::spgemm;
use common::{arb_nn_operands, arb_nn_pair, fused};
use proptest::prelude::*;

proptest! {
    #[test]
    fn fused_lanes_match_independent_kernels((a, b) in arb_nn_operands(10, 40)) {
        let plus_times = PlusTimes::<NN>::new();
        let max_min = MaxMin::<NN>::new();
        let min_plus = MinPlus::<NN>::new();
        // ⊕ = |−| is non-associative and non-commutative in effect:
        // any deviation in fold order changes the value.
        let abs_diff: OpPair<NN, AbsDiff, Times> = OpPair::new();
        let pairs: [&dyn DynOpPair<NN>; 4] = [&plus_times, &max_min, &min_plus, &abs_diff];

        let outs = fused(&a, &b, &pairs, false);
        prop_assert_eq!(outs.len(), 4);
        prop_assert_eq!(&outs[0], &spgemm(&a, &b, &plus_times));
        prop_assert_eq!(&outs[1], &spgemm(&a, &b, &max_min));
        prop_assert_eq!(&outs[2], &spgemm(&a, &b, &min_plus));
        prop_assert_eq!(&outs[3], &spgemm(&a, &b, &abs_diff));
    }

    #[test]
    fn parallel_fused_matches_serial_fused((a, b) in arb_nn_operands(10, 40)) {
        let plus_times = PlusTimes::<NN>::new();
        let max_min = MaxMin::<NN>::new();
        let abs_diff: OpPair<NN, AbsDiff, Times> = OpPair::new();
        let pairs: [&dyn DynOpPair<NN>; 3] = [&plus_times, &max_min, &abs_diff];
        let serial = fused(&a, &b, &pairs, false);
        let parallel = fused(&a, &b, &pairs, true);
        prop_assert_eq!(serial, parallel);
    }

    #[test]
    fn single_lane_fusion_is_the_identity_case((a, b) in arb_nn_pair(8, 24)) {
        // K = 1 degenerates to plain two-phase SpGEMM.
        let abs_diff: OpPair<NN, AbsDiff, Times> = OpPair::new();
        let pairs: [&dyn DynOpPair<NN>; 1] = [&abs_diff];
        let outs = fused(&a, &b, &pairs, false);
        prop_assert_eq!(&outs[0], &spgemm(&a, &b, &abs_diff));
    }
}
