//! A ledger record whose op wrote more journal events than the ring
//! holds must say so: the stage breakdown derived from the surviving
//! events under-counts, and the record carries how many of its window's
//! events could not be read. Its own test binary, so the journal's
//! capacity can be set before anything touches the ring.

use aarray_obs::{journal, EventKind, OpKind, OpLog, OpToken, Stage, JOURNAL_EVENTS_ENV};

#[test]
fn op_window_longer_than_the_ring_flags_lost_events() {
    // The journal reads its capacity once, at first use.
    std::env::set_var(JOURNAL_EVENTS_ENV, "64");
    assert_eq!(journal().capacity(), 64);
    let log = OpLog::with_capacity(4);

    // A window that fits the ring loses nothing.
    let tok = OpToken::begin(OpKind::Kernel);
    journal().begin(Stage::Numeric, 1);
    journal().end(Stage::Numeric, 1);
    tok.finish_into(&log);

    // 202 events through a 64-record ring: the oldest 138, the numeric
    // span's begin among them, are overwritten before the op finishes.
    let tok = OpToken::begin(OpKind::Kernel);
    journal().begin(Stage::Numeric, 1);
    for i in 0..200 {
        journal().record(EventKind::DispatchSerial, i, 0);
    }
    journal().end(Stage::Numeric, 1);
    tok.finish_into(&log);

    let snap = log.snapshot();
    let (fits, long) = (&snap.records[0], &snap.records[1]);
    assert_eq!(fits.events_lost, 0);
    assert_eq!(long.seq_end - long.seq_start, 202);
    assert_eq!(long.events_lost, 202 - 64);
    assert_eq!(
        long.numeric_ns, 0,
        "the span lost its begin: an under-count"
    );
    let report = log.report();
    assert_eq!((report.lossy, report.events_lost), (1, 138));
    let prom = aarray_obs::ObsReport {
        ops: report,
        ..aarray_obs::ObsReport::capture()
    }
    .to_prometheus();
    assert!(prom.contains("aarray_ops_lossy_total 1\n"), "{prom}");
    assert!(prom.contains("aarray_ops_events_lost_total 138\n"));
}
