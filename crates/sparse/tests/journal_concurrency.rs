//! Flight-recorder concurrency: worker threads hammering the global
//! journal through the row-parallel fused kernel must never surface a
//! torn record, and drop accounting must stay exact.
//!
//! The offline rayon stub runs a real thread pool, but its worker
//! count tracks the host; to make contention deterministic this
//! suite drives the parallel code path from its own `std::thread`
//! workers, each installing a private pool, so journal writes always
//! race regardless of how many cores the host exposes.

// Only the two-pass helper; the operand strategies go unused here.
#[allow(dead_code)]
mod common;

use aarray_algebra::dynpair::DynOpPair;
use aarray_algebra::pairs::{MaxMin, PlusTimes};
use aarray_algebra::values::nat::Nat;
use aarray_sparse::{Coo, Csr};
use common::fused;
use std::collections::BTreeMap;

fn operand() -> Csr<Nat> {
    let pair = PlusTimes::<Nat>::new();
    let mut coo = Coo::new(6, 6);
    for i in 0..6u32 {
        coo.push(
            i as usize,
            ((i + 1) % 6) as usize,
            Nat(1 + u64::from(i) % 3),
        );
        coo.push(i as usize, ((i + 3) % 6) as usize, Nat(2));
    }
    coo.into_csr(&pair)
}

#[test]
fn parallel_workers_record_cleanly_into_the_global_journal() {
    use aarray_obs::{journal, EventKind};

    const WORKERS: usize = 4;
    const REPS: u64 = 50;
    let cursor = journal().cursor();

    let workers: Vec<_> = (0..WORKERS)
        .map(|_| {
            std::thread::spawn(move || {
                let a = operand();
                let pt = PlusTimes::<Nat>::new();
                let mm = MaxMin::<Nat>::new();
                let pairs: Vec<&dyn DynOpPair<Nat>> = vec![&pt, &mm];
                // A 2-thread stub pool makes the fused kernel take its
                // row-parallel branch deterministically.
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(2)
                    .build()
                    .unwrap();
                pool.install(|| {
                    for _ in 0..REPS {
                        let outs = fused(&a, &a, &pairs, true);
                        assert_eq!(outs.len(), 2);
                    }
                });
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    let snap = journal().snapshot();
    assert_eq!(snap.torn, 0, "no torn records may ever be surfaced");
    let events = snap.since(cursor);

    // Nothing wrapped (default capacity is 65536 and this workload is
    // far smaller), so the slice must be complete: every record
    // claimed since the cursor is present exactly once.
    assert_eq!(snap.dropped, 0);
    assert_eq!(events.len() as u64, journal().cursor() - cursor);
    assert_eq!(
        snap.recorded.saturating_sub(snap.capacity),
        snap.dropped,
        "drop accounting is recorded − capacity, clamped at zero"
    );

    // Every traversal logged its fused-choice explain event: 2 lanes,
    // parallel bit set, spa accumulator.
    let fused: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::FusedChoice)
        .collect();
    assert_eq!(fused.len() as u64, (WORKERS as u64) * REPS);
    for e in &fused {
        assert_eq!(e.a, 0, "spa accumulator code");
        assert_eq!(e.b, (2 << 1) | 1, "2 lanes, parallel");
    }

    // The four workers show up as distinct journal thread ids, and
    // timestamps are monotone within each of them.
    let mut last_ts: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events {
        let prev = last_ts.insert(e.tid, e.ts_ns).unwrap_or(0);
        assert!(e.ts_ns >= prev, "non-monotone timestamp on tid {}", e.tid);
    }
    let worker_tids = fused
        .iter()
        .map(|e| e.tid)
        .collect::<std::collections::BTreeSet<_>>();
    assert_eq!(worker_tids.len(), WORKERS);
}

#[test]
fn wraparound_under_contention_keeps_exact_drop_accounting() {
    use aarray_obs::{EventKind, Journal};
    use std::sync::Arc;

    // A deliberately tiny private ring wraps many times over while
    // four threads race; the accounting must still be exact and every
    // surviving record intact.
    const CAP: usize = 32;
    const WORKERS: u64 = 4;
    const REPS: u64 = 2_000;
    let j = Arc::new(Journal::with_capacity(CAP));
    let workers: Vec<_> = (0..WORKERS)
        .map(|t| {
            let j = Arc::clone(&j);
            std::thread::spawn(move || {
                for i in 0..REPS {
                    let v = (t << 32) | i;
                    j.record(EventKind::DispatchSerial, v, v);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    let snap = j.snapshot();
    assert_eq!(snap.recorded, WORKERS * REPS);
    assert_eq!(snap.dropped, WORKERS * REPS - CAP as u64);
    // Quiescent drain: every slot holds a fully published record.
    assert_eq!(snap.torn, 0);
    assert_eq!(snap.events.len(), CAP);
    for e in &snap.events {
        assert_eq!(e.a, e.b, "cross-record field mix at seq {}", e.seq);
    }
}
