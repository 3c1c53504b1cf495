//! Concurrency audit of the operation ledger.
//!
//! Four threads hammer the instrumented entry points — row-parallel
//! `spgemm_parallel` and `plan.execute_all` with the parallel
//! dispatch threshold forced to zero — while the process-global ledger
//! records every completion. The drained snapshot must show unique
//! `OpId`s, zero torn records, and per-kind counts that exactly match
//! the number of root calls each thread made (nested kernels inside a
//! plan execute must NOT mint their own records). A second, private
//! ring then pins the wraparound arithmetic exactly.
//!
//! One test function on purpose: integration-test binaries get their
//! own process, so the global ledger sees no writers besides the
//! threads this test spawns.

use std::collections::HashSet;

use aarray_algebra::pairs::{MaxTimes, PlusTimes};
use aarray_algebra::values::nat::Nat;
use aarray_algebra::DynOpPair;
use aarray_core::{adjacency_plan, set_parallel_flops_threshold, AArray};
use aarray_obs::{oplog, ObsReport, OpKind, OpToken};
use aarray_sparse::{spgemm_parallel, Coo};

const THREADS: usize = 4;
const PLAN_EXECS: usize = 6;
const KERNEL_CALLS: usize = 8;

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

fn hammer(seed: usize) {
    let pair = PlusTimes::<Nat>::new();
    let mt = MaxTimes::<Nat>::new();

    // Root kernels: each call is exactly one Kernel record.
    let mut c = Coo::new(24, 24);
    for i in 0..40 {
        c.push(
            (i * (seed + 3)) % 24,
            (i * 7 + seed) % 24,
            Nat(1 + i as u64 % 3),
        );
    }
    let a = c.into_csr(&pair);
    for _ in 0..KERNEL_CALLS {
        assert!(spgemm_parallel(&a, &a, &pair).nnz() > 0);
    }

    // Root plan executes: one PlanExecute record per call, regardless
    // of how many kernels run inside.
    let e_out = AArray::from_triples(&pair, chain(0, 30 + seed, |i| Nat(1 + i as u64 % 3)));
    let e_in = AArray::from_triples(&pair, chain_in(0, 30 + seed, |_| Nat(2)));
    let plan = adjacency_plan(&e_out, &e_in);
    let lanes: [&dyn DynOpPair<Nat>; 2] = [&pair, &mt];
    for _ in 0..PLAN_EXECS {
        let outs = plan.execute_all(&lanes);
        assert!(outs[0].nnz() > 0);
    }
}

#[test]
fn concurrent_ops_record_uniquely_and_tally_exactly() {
    // Force every dispatch parallel so pool workers must carry the
    // submitting thread's op into their closures.
    set_parallel_flops_threshold(Some(0));

    oplog().reset();
    let cursor = oplog().cursor();
    let before = ObsReport::capture();

    let handles: Vec<_> = (0..THREADS)
        .map(|t| std::thread::spawn(move || hammer(t)))
        .collect();
    for h in handles {
        h.join().expect("hammer thread panicked");
    }

    set_parallel_flops_threshold(None);

    let snap = oplog().snapshot();
    assert_eq!(snap.torn, 0, "drain must never observe a torn record");
    assert_eq!(
        snap.dropped, 0,
        "workload must fit the ring (capacity {}); shrink it",
        snap.capacity
    );
    let records = snap.since(cursor);
    assert_eq!(records.len() as u64, snap.recorded);

    // Every completion minted a distinct OpId.
    let ids: HashSet<u64> = records.iter().map(|r| r.id).collect();
    assert_eq!(ids.len(), records.len(), "duplicate OpIds in the ledger");

    // Exact per-kind parity with the calls the threads made. Root-only
    // accounting: the kernels inside each plan execute are nested and
    // must not inflate the Kernel count.
    let count = |k: OpKind| records.iter().filter(|r| r.kind == k).count();
    assert_eq!(
        count(OpKind::Kernel),
        THREADS * KERNEL_CALLS,
        "kernel records"
    );
    assert_eq!(
        count(OpKind::PlanExecute),
        THREADS * PLAN_EXECS,
        "plan-execute records"
    );
    assert_eq!(count(OpKind::PlanBuild), THREADS, "plan-build records");
    assert_eq!(count(OpKind::DeltaApply) + count(OpKind::Rebuild), 0);

    // No torn fields: every record carries a complete story.
    for r in records {
        assert!(r.id > 0, "ids start at 1; 0 is the unattributed sentinel");
        assert!(r.wall_ns > 0, "op {} has no wall time", r.id);
        assert!(r.seq_end >= r.seq_start, "op {} window inverted", r.id);
        if r.kind == OpKind::Kernel {
            assert!(r.parallel, "root kernels run row-parallel");
            assert!(r.pool_threads >= 1);
            assert_eq!(r.lanes, 1);
            assert!(r.out_nnz > 0);
        }
    }

    // The report layer sees the same totals through its histograms.
    let d = ObsReport::capture().since(&before);
    assert_eq!(d.ops.recorded, snap.recorded);
    assert_eq!(d.ops.count(OpKind::Kernel), (THREADS * KERNEL_CALLS) as u64);
    assert_eq!(
        d.ops.count(OpKind::PlanExecute),
        (THREADS * PLAN_EXECS) as u64
    );

    // --- Wraparound arithmetic, pinned on a private ring. ---
    let small = aarray_obs::OpLog::with_capacity(8);
    let total = 20u64;
    for _ in 0..total {
        OpToken::begin(OpKind::Matmul).finish_into(&small);
    }
    let s = small.snapshot();
    assert_eq!(s.recorded, total);
    assert_eq!(s.capacity, 8);
    assert_eq!(s.dropped, total - s.capacity, "exact ring-drop accounting");
    assert_eq!(s.records.len() as u64, s.capacity);
    assert_eq!(s.torn, 0);
    // Survivors are exactly the newest `capacity` completions, in
    // order.
    for w in s.records.windows(2) {
        assert!(w[0].seq < w[1].seq);
    }
    assert_eq!(
        s.records.last().unwrap().seq - s.records.first().unwrap().seq,
        s.capacity - 1
    );
}
