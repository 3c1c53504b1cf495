//! Counter-parity audit of the flight recorder.
//!
//! The journal's explain events and the counter registry observe the
//! exact same decision points, so over any window in which no journal
//! record was dropped, tallying the drained events must reproduce the
//! counter deltas *exactly* — not approximately. This is the invariant
//! that makes `obsctl trace`'s decision audit trustworthy.
//!
//! The journal records per decision, never per output row, so a warm
//! plan's execute appends the same number of events whatever its
//! output's row count.
//!
//! One test function on purpose: integration-test binaries get their
//! own process, and a single `#[test]` keeps the global journal and
//! counter registry free of concurrent writers for the whole window.

use aarray_algebra::pairs::{MaxMin, MaxTimes, PlusTimes};
use aarray_algebra::values::nat::Nat;
use aarray_algebra::values::nn::{nn, NN};
use aarray_algebra::DynOpPair;
use aarray_core::incremental::{AdjacencyView, IncidenceBuilder};
use aarray_core::{adjacency_plan, AArray};
use aarray_obs::{journal, Counter, Event, EventKind};
use aarray_sparse::{spgemm, Coo};

fn chain<V: Copy>(lo: usize, hi: usize, w: impl Fn(usize) -> V) -> Vec<(String, String, V)> {
    (lo..hi)
        .map(|i| (format!("e{:04}", i), format!("v{:04}", i), w(i)))
        .collect()
}

fn chain_in<V: Copy>(lo: usize, hi: usize, w: impl Fn(usize) -> V) -> Vec<(String, String, V)> {
    (lo..hi)
        .map(|i| (format!("e{:04}", i), format!("v{:04}", i + 1), w(i)))
        .collect()
}

#[test]
fn journal_tallies_reproduce_counter_deltas() {
    let cursor = journal().cursor();
    let before = aarray_obs::snapshot();

    // --- Workload part 1: plan build + fused execute (miss), then a
    // second execute on the same plan (hit). ---
    let pair = PlusTimes::<Nat>::new();
    let e1 = AArray::from_triples(&pair, chain(0, 40, |i| Nat(1 + i as u64 % 3)));
    let e2 = AArray::from_triples(&pair, chain_in(0, 40, |i| Nat(1 + i as u64 % 2)));
    let mt = MaxTimes::<Nat>::new();
    let lanes: [&dyn DynOpPair<Nat>; 2] = [&pair, &mt];
    let plan = adjacency_plan(&e1, &e2);
    let outs = plan.execute_all(&lanes);
    assert!(outs[0].nnz() > 0);
    let again = plan.execute(&pair);
    assert_eq!(&again, &outs[0]);

    // --- Workload part 2: two one-shot kernels. ---
    let mut a = Coo::new(4, 4);
    a.push(0, 1, Nat(2));
    a.push(1, 2, Nat(3));
    a.push(3, 0, Nat(1));
    let a = a.into_csr(&pair);
    let _ = spgemm(&a, &a, &pair);
    let _ = spgemm(&a, &a, &pair);

    // --- Workload part 3: incremental refresh, both paths. The
    // Max.Min lane replays deltas (associative ⊕); the +.× NN lane
    // must rebuild (float addition is not associative). ---
    let mm = MaxMin::<Nat>::new();
    let mut builder = IncidenceBuilder::new(
        AArray::from_triples(&pair, chain(0, 6, |i| Nat(1 + i as u64 % 3))),
        AArray::from_triples(&pair, chain_in(0, 6, |_| Nat(2))),
    )
    .unwrap();
    let mut view = AdjacencyView::new(&builder, vec![&mm]);
    builder
        .append_batch(
            AArray::from_triples(&pair, chain(6, 9, |_| Nat(1))),
            AArray::from_triples(&pair, chain_in(6, 9, |_| Nat(3))),
        )
        .unwrap();
    let report = view.refresh(&builder);
    assert_eq!(report.incremental_lanes, 1);

    let nn_pair = PlusTimes::<NN>::new();
    let mut nb = IncidenceBuilder::new(
        AArray::from_triples(&nn_pair, chain(0, 5, |i| nn(0.1 + i as f64))),
        AArray::from_triples(&nn_pair, chain_in(0, 5, |_| nn(1.5))),
    )
    .unwrap();
    let mut nview = AdjacencyView::new(&nb, vec![&nn_pair]);
    nb.append_batch(
        AArray::from_triples(&nn_pair, chain(5, 8, |_| nn(0.25))),
        AArray::from_triples(&nn_pair, chain_in(5, 8, |_| nn(2.0))),
    )
    .unwrap();
    let nreport = nview.refresh(&nb);
    assert_eq!(nreport.rebuilt_lanes, 1);

    // --- Drain and audit. ---
    let d = aarray_obs::snapshot().since(&before);
    let snap = journal().snapshot();
    assert_eq!(
        snap.dropped, 0,
        "audit window must fit the ring; shrink the workload"
    );
    assert_eq!(snap.torn, 0);
    let events: &[Event] = snap.since(cursor);
    assert!(!events.is_empty());

    let (mut kernel, mut fused) = (0u64, 0u64);
    let (mut ser, mut par) = (0u64, 0u64);
    let (mut hits, mut misses) = (0u64, 0u64);
    let (mut delta_lanes, mut fallback_lanes) = (0u64, 0u64);
    let (mut begins, mut ends) = (0u64, 0u64);
    for e in events {
        match e.kind {
            EventKind::KernelChoice => kernel += 1,
            EventKind::FusedChoice => fused += 1,
            EventKind::DispatchSerial => ser += 1,
            EventKind::DispatchParallel => par += 1,
            EventKind::PlanCacheHit => hits += 1,
            EventKind::PlanCacheMiss => misses += 1,
            EventKind::DeltaApply => delta_lanes += e.a,
            EventKind::IncrementalFallback => {
                assert_eq!(e.b, 0, "this workload's fallback is non-associative ⊕");
                fallback_lanes += e.a;
            }
            EventKind::StageBegin => begins += 1,
            EventKind::StageEnd => ends += 1,
        }
    }

    // Exact parity, decision by decision.
    assert_eq!(kernel, d.get(Counter::KernelSpa), "one-pair kernels");
    assert_eq!(fused, d.get(Counter::FusedTraversals), "fused traversals");
    assert_eq!(ser, d.get(Counter::DispatchSerial), "serial dispatches");
    assert_eq!(par, d.get(Counter::DispatchParallel), "parallel dispatches");
    assert_eq!(hits, d.get(Counter::PlanSymbolicHit), "plan cache hits");
    assert_eq!(
        misses,
        d.get(Counter::PlanSymbolicMiss),
        "plan cache misses"
    );
    assert_eq!(
        delta_lanes,
        d.get(Counter::IncrementalApply),
        "delta-applied lanes"
    );
    assert_eq!(
        fallback_lanes,
        d.get(Counter::IncrementalFallback),
        "rebuilt lanes"
    );

    // The workload drove every audited path at least once.
    assert!(kernel >= 2);
    assert!(fused >= 1);
    assert!(ser + par >= 1);
    assert!(hits >= 1 && misses >= 1);
    assert!(delta_lanes >= 1 && fallback_lanes >= 1);

    // Stage boundaries arrive in begin/end pairs when nothing dropped.
    assert_eq!(begins, ends, "stage begin/end records must pair up");
    assert!(begins >= 1);

    // And the chrome-trace export of the same snapshot is balanced.
    let trace = snap.to_chrome_trace();
    assert_eq!(
        trace.matches("\"ph\": \"B\"").count(),
        trace.matches("\"ph\": \"E\"").count()
    );
    assert!(trace.contains("\"truncated_spans\": 0"));

    // --- Journal growth per execute does not depend on output rows.
    // One pool thread keeps the numeric pass to one serial range. ---
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread pool");
    let events_per_execute = |n: usize| {
        let e = AArray::from_triples(&pair, chain(0, n, |_| Nat(1)));
        let plan = adjacency_plan(&e, &e);
        pool.install(|| {
            plan.execute_all(&lanes); // warm: the symbolic pass runs here
            let from = journal().cursor();
            let outs = plan.execute_all(&lanes);
            assert_eq!(outs[0].shape(), (n, n));
            journal().cursor() - from
        })
    };
    let (small, wide) = (events_per_execute(10), events_per_execute(10_000));
    assert_eq!(small, wide, "events for a 10-row vs a 10,000-row output");
}
