//! Counter-registry acceptance check for the Figure 3 workload.
//!
//! This file deliberately holds a single `#[test]`: cargo gives each
//! integration-test file its own process, so with one test the
//! process-global registry sees only this workload and the expected
//! traversal and dispatch counts can be asserted exactly.

use aarray_obs::{snapshot, Counter};
use aarray_repro::figures;

#[test]
fn figure3_counter_deltas_match_the_planned_workload() {
    let before = snapshot();
    figures::figure3().expect("figure 3 must verify");
    let delta = snapshot().since(&before);

    // Three numeric traversals: the fused six-lane pass, the +.×
    // cross-check, and the tropical max.+ pass — 6 + 1 + 1 lanes.
    assert_eq!(delta.get(Counter::FusedTraversals), 3, "{}", delta);
    assert_eq!(delta.get(Counter::FusedLanes), 8, "{}", delta);

    // Two plans (NN and tropical) ⇒ two symbolic misses; the
    // cross-check re-executes the warm NN plan ⇒ at least one hit.
    assert_eq!(delta.get(Counter::PlanSymbolicMiss), 2, "{}", delta);
    assert!(delta.get(Counter::PlanSymbolicHit) >= 1, "{}", delta);

    // Both plans own a transpose built exactly once; every traversal
    // of a transpose-plan reuses it (2 on the NN plan + 1 tropical).
    assert_eq!(delta.get(Counter::PlanTransposeBuilt), 2, "{}", delta);
    assert_eq!(delta.get(Counter::PlanTransposeReused), 3, "{}", delta);

    // The music arrays are tiny: every dispatch must stay serial.
    assert_eq!(delta.get(Counter::DispatchSerial), 3, "{}", delta);
    assert_eq!(delta.get(Counter::DispatchParallel), 0, "{}", delta);

    assert!(delta.get(Counter::FlopsTotal) > 0, "{}", delta);
}
