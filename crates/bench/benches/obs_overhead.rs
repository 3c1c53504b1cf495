//! Overhead bound for the always-on observability layers.
//!
//! The counter registry and the histogram registry instrument hot
//! paths (kernel entry, dispatch, plan caches, per-row shape metrics)
//! with relaxed-atomic updates that cannot be compiled out. This bench
//! bounds their combined cost on the seven-pair fused workload:
//!
//! 1. run the workload and time it;
//! 2. count the counter-registry updates it performed (one relaxed RMW
//!    each — `add` is one RMW regardless of the amount, so
//!    value-carrying counters like `flops.total` and `fused.lanes`
//!    count once per update, not per unit), the histogram records
//!    (a few RMWs each: bucket + sum + watermarks), and the
//!    flight-recorder journal records (one head claim, a timestamp
//!    read, and five relaxed slot stores under the seqlock), and the
//!    op-ledger completions (token begin + finish: id allocation,
//!    stage derivation over the op's journal window, one seqlocked
//!    16-word record, tail-histogram and label-count RMWs);
//! 3. microbenchmark one counter update, one histogram record, one
//!    journal record, and one ledger completion;
//! 4. bound total overhead as `(counter_updates × ns_per_update +
//!    hist_records × ns_per_record + journal_records ×
//!    ns_per_journal_record + ops × ns_per_op_record) / workload_ns`,
//!    with a 2× safety factor
//!    covering the non-registry instrumentation of the same order
//!    (gauges, memory-accounting adds, the per-row flop sums computed
//!    only for histogram recording).
//!
//! Asserts the total bound stays ≤ 2% and writes the figures to
//! `target/bench/obs_overhead.json` (a build output, never a tracked
//! file), which CI keeps as an artifact.
//!
//! A second phase repeats the measurement inside a forced 4-thread
//! pool with the flops gate dropped to zero, so every numeric pass
//! takes the row-parallel kernel and the registries are hammered from
//! several threads at once: the ≤ 2% budget must hold under real
//! contention too, and the journal's drop accounting (`recorded`,
//! `dropped`, claimed slots) must stay exact with concurrent writers.
//!
//! A third phase prices the live sampler (`obsctl watch`): one full
//! report capture + frame-ring push, converted to its steady-state
//! cost at the default `AARRAY_OBS_SAMPLE_MS` interval, asserted to
//! keep *total* obs overhead inside the same ≤ 2% budget — and the
//! frame ring's wraparound drop accounting must stay exact.

use aarray_algebra::pairs::{MaxMin, MaxPlus, MaxTimes, MinMax, MinPlus, MinTimes, PlusTimes};
use aarray_algebra::values::nn::NN;
use aarray_algebra::values::tropical::{trop, Tropical};
use aarray_algebra::DynOpPair;
use aarray_bench::synthetic_e1_e2;
use aarray_core::{adjacency_plan, parallel_flops_threshold, set_parallel_flops_threshold, AArray};
use aarray_obs::{
    counters, histograms, journal, oplog, snapshot, Counter, EventKind, Hist, Journal, OpKind,
    OpLog, OpToken, TimeSeriesRing,
};
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// The seven-pair workload: one plan with six fused NN lanes plus the
/// tropical max.+ on its own plan — the Figure 3 shape at bench scale.
fn seven_pairs(e1: &AArray<NN>, e2: &AArray<NN>, e1t: &AArray<Tropical>, e2t: &AArray<Tropical>) {
    let plus_times = PlusTimes::<NN>::new();
    let max_times = MaxTimes::<NN>::new();
    let min_times = MinTimes::<NN>::new();
    let min_plus = MinPlus::<NN>::new();
    let max_min = MaxMin::<NN>::new();
    let min_max = MinMax::<NN>::new();
    let pairs: [&dyn DynOpPair<NN>; 6] = [
        &plus_times,
        &max_times,
        &min_times,
        &min_plus,
        &max_min,
        &min_max,
    ];
    black_box(adjacency_plan(e1, e2).execute_all(&pairs));
    black_box(adjacency_plan(e1t, e2t).execute(&MaxPlus::<Tropical>::new()));
}

fn main() {
    let tracks = 20_000usize;
    let (e1, e2) = synthetic_e1_e2(tracks, 8, 100, 7);
    let mp = MaxPlus::<Tropical>::new();
    let e1t = e1.map_prune(&mp, |v| trop(v.get()));
    let e2t = e2.map_prune(&mp, |v| trop(v.get()));

    let reps = std::env::var("OBS_BENCH_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10usize);

    // Warmup, then time the workload while counting registry updates.
    seven_pairs(&e1, &e2, &e1t, &e2t);
    let before = snapshot();
    let hists_before = histograms().snapshot_all();
    let journal_cursor = journal().cursor();
    let ops_cursor = oplog().cursor();
    let start = Instant::now();
    for _ in 0..reps {
        seven_pairs(&e1, &e2, &e1t, &e2t);
    }
    let workload_ns = start.elapsed().as_nanos() as f64 / reps as f64;
    let delta = snapshot().since(&before);
    let hist_records: u64 = histograms()
        .snapshot_all()
        .iter()
        .zip(hists_before.iter())
        .map(|(a, b)| a.since(b).count())
        .sum();
    let journal_records = journal().cursor() - journal_cursor;
    let op_records = oplog().cursor() - ops_cursor;

    // Registry RMWs: every counter delta is one update per call except
    // the two value-carrying counters, updated once per traversal.
    let updates =
        delta.total_events() - delta.get(Counter::FlopsTotal) - delta.get(Counter::FusedLanes)
            + 2 * delta.get(Counter::FusedTraversals);
    let updates_per_rep = updates as f64 / reps as f64;
    let hist_records_per_rep = hist_records as f64 / reps as f64;
    let journal_records_per_rep = journal_records as f64 / reps as f64;
    let op_records_per_rep = op_records as f64 / reps as f64;

    // Cost of one relaxed-atomic registry update.
    let iters = 2_000_000u64;
    let t = Instant::now();
    for i in 0..iters {
        counters().add(Counter::FlopsTotal, black_box(i & 1));
    }
    let ns_per_update = t.elapsed().as_nanos() as f64 / iters as f64;

    // Cost of one histogram record (bucket RMW + sum add + watermark
    // CASes against the real registry; varied values so branch
    // prediction doesn't flatter the watermark path).
    let t = Instant::now();
    for i in 0..iters {
        histograms().record(Hist::DispatchFlops, black_box(i & 1023));
    }
    let ns_per_record = t.elapsed().as_nanos() as f64 / iters as f64;

    // Cost of one flight-recorder journal record (head claim +
    // monotonic timestamp + five relaxed stores), measured against a
    // private ring so the drained global journal keeps its workload
    // events; wraparound is the steady state being bounded.
    let ring = Journal::with_capacity(1 << 14);
    let t = Instant::now();
    for i in 0..iters {
        ring.record(EventKind::RowShape, black_box(i), black_box(i & 1023));
    }
    let ns_per_journal_record = t.elapsed().as_nanos() as f64 / iters as f64;

    // Cost of one full op-ledger completion: token begin (id claim,
    // op-scope install, clock read) through finish into a private ring
    // (stage derivation over the op's journal window, seqlocked
    // 16-word record, tail histogram + label count). Ops are ~100×
    // rarer than journal records, so fewer iterations suffice.
    let op_iters = iters / 10;
    let ring = OpLog::with_capacity(1 << 12);
    let t = Instant::now();
    for _ in 0..op_iters {
        black_box(OpToken::begin(OpKind::Matmul).finish_into(&ring));
    }
    let ns_per_op_record = t.elapsed().as_nanos() as f64 / op_iters as f64;

    // 2× safety factor: stage cells, gauges, memory-accounting adds,
    // and the per-execution mutex push are not counted above but cost
    // the same order.
    let overhead_ns = (updates_per_rep * ns_per_update
        + hist_records_per_rep * ns_per_record
        + journal_records_per_rep * ns_per_journal_record
        + op_records_per_rep * ns_per_op_record)
        * 2.0;
    let overhead_pct = overhead_ns / workload_ns * 100.0;

    println!(
        "obs_overhead: {} tracks, 7 pairs, {} reps\n  workload:        {:10.3} ms/rep\n  registry updates:{:10.1} /rep\n  ns/update:       {:10.3} ns\n  hist records:    {:10.1} /rep\n  ns/record:       {:10.3} ns\n  journal records: {:10.1} /rep\n  ns/journal rec:  {:10.3} ns\n  ledger ops:      {:10.1} /rep\n  ns/op record:    {:10.3} ns\n  overhead bound:  {:10.5} % (limit 2%)",
        tracks,
        reps,
        workload_ns / 1e6,
        updates_per_rep,
        ns_per_update,
        hist_records_per_rep,
        ns_per_record,
        journal_records_per_rep,
        ns_per_journal_record,
        op_records_per_rep,
        ns_per_op_record,
        overhead_pct
    );

    assert!(
        overhead_pct <= 2.0,
        "total observability overhead bound {overhead_pct:.5}% exceeds the 2% budget"
    );

    // ── Phase 2: the same bound under real multi-thread contention ──
    //
    // Force a 4-thread pool and drop the flops gate to zero so every
    // numeric pass runs row-parallel: counters, histograms, and the
    // journal now take concurrent relaxed RMWs from several workers.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .expect("4-thread pool");
    let saved_threshold = parallel_flops_threshold();
    set_parallel_flops_threshold(Some(0));

    pool.install(|| seven_pairs(&e1, &e2, &e1t, &e2t)); // warmup
    let before = snapshot();
    let hists_before = histograms().snapshot_all();
    let journal_cursor = journal().cursor();
    let ops_cursor = oplog().cursor();
    let start = Instant::now();
    pool.install(|| {
        for _ in 0..reps {
            seven_pairs(&e1, &e2, &e1t, &e2t);
        }
    });
    let workload_mt_ns = start.elapsed().as_nanos() as f64 / reps as f64;
    let delta = snapshot().since(&before);
    let hist_records_mt: u64 = histograms()
        .snapshot_all()
        .iter()
        .zip(hists_before.iter())
        .map(|(a, b)| a.since(b).count())
        .sum();
    let journal_records_mt = journal().cursor() - journal_cursor;
    let op_records_mt = oplog().cursor() - ops_cursor;
    // Same RMW accounting as phase 1, plus two more value-carrying
    // counters: the pool task tallies are drained into the registry
    // once per plan execution (≤ 2 RMWs each), not once per task, so
    // subtract the task amounts; the handful of real drain RMWs is
    // covered by the 2× safety factor like the gauges.
    let updates_mt =
        delta.total_events() - delta.get(Counter::FlopsTotal) - delta.get(Counter::FusedLanes)
            + 2 * delta.get(Counter::FusedTraversals)
            - delta.get(Counter::PoolTasksLocal)
            - delta.get(Counter::PoolTasksStolen)
            - delta.get(Counter::PoolTasksInline);

    // Contended per-op costs: four workers hammering the same counter
    // cell / histogram / ring. Wall time over total ops is the
    // amortized cost a contended workload actually pays.
    let t = Instant::now();
    pool.install(|| {
        (0..4u64).collect::<Vec<_>>().into_par_iter().for_each(|w| {
            for i in 0..iters / 4 {
                counters().add(Counter::FlopsTotal, black_box((i ^ w) & 1));
            }
        })
    });
    let ns_per_update_mt = t.elapsed().as_nanos() as f64 / iters as f64;

    let t = Instant::now();
    pool.install(|| {
        (0..4u64).collect::<Vec<_>>().into_par_iter().for_each(|_| {
            for i in 0..iters / 4 {
                histograms().record(Hist::DispatchFlops, black_box(i & 1023));
            }
        })
    });
    let ns_per_record_mt = t.elapsed().as_nanos() as f64 / iters as f64;

    // Journal contention doubles as the drop-accounting check: a
    // private ring takes exactly `iters` records from four concurrent
    // writers, so every claim must be accounted as either a live slot
    // or a wraparound drop — nothing lost, nothing double-counted.
    let ring = Journal::with_capacity(1 << 10);
    let t = Instant::now();
    pool.install(|| {
        (0..4u64).collect::<Vec<_>>().into_par_iter().for_each(|w| {
            for i in 0..iters / 4 {
                ring.record(EventKind::RowShape, black_box(i), black_box(w));
            }
        })
    });
    let ns_per_journal_record_mt = t.elapsed().as_nanos() as f64 / iters as f64;
    let snap = ring.snapshot();
    assert_eq!(
        snap.recorded,
        (iters / 4) * 4,
        "journal lost or double-counted a concurrent claim"
    );
    assert_eq!(
        snap.dropped,
        snap.recorded.saturating_sub(snap.capacity),
        "journal drop accounting drifted under contention"
    );
    assert!(
        snap.events.len() as u64 + snap.torn <= snap.capacity,
        "journal surfaced more slots than the ring holds"
    );

    // Ledger contention: four workers completing ops into one private
    // ring. Each completion claims a global id, installs/clears the op
    // scope, and publishes a seqlocked record, so this is the full
    // contended per-op price.
    let ring = OpLog::with_capacity(1 << 10);
    let t = Instant::now();
    pool.install(|| {
        (0..4u64).collect::<Vec<_>>().into_par_iter().for_each(|_| {
            for _ in 0..op_iters / 4 {
                black_box(OpToken::begin(OpKind::Matmul).finish_into(&ring));
            }
        })
    });
    let ns_per_op_record_mt = t.elapsed().as_nanos() as f64 / op_iters as f64;
    let osnap = ring.snapshot();
    assert_eq!(
        osnap.recorded,
        (op_iters / 4) * 4,
        "op ledger lost or double-counted a concurrent completion"
    );
    assert_eq!(
        osnap.dropped,
        osnap.recorded.saturating_sub(osnap.capacity),
        "op ledger drop accounting drifted under contention"
    );

    set_parallel_flops_threshold(Some(saved_threshold));

    let overhead_mt_ns = ((updates_mt as f64 / reps as f64) * ns_per_update_mt
        + (hist_records_mt as f64 / reps as f64) * ns_per_record_mt
        + (journal_records_mt as f64 / reps as f64) * ns_per_journal_record_mt
        + (op_records_mt as f64 / reps as f64) * ns_per_op_record_mt)
        * 2.0;
    let overhead_mt_pct = overhead_mt_ns / workload_mt_ns * 100.0;

    println!(
        "obs_overhead (4-thread pool, flops gate 0):\n  workload:        {:10.3} ms/rep\n  registry updates:{:10.1} /rep\n  ns/update:       {:10.3} ns\n  hist records:    {:10.1} /rep\n  ns/record:       {:10.3} ns\n  journal records: {:10.1} /rep\n  ns/journal rec:  {:10.3} ns\n  ledger ops:      {:10.1} /rep\n  ns/op record:    {:10.3} ns\n  overhead bound:  {:10.5} % (limit 2%)",
        workload_mt_ns / 1e6,
        updates_mt as f64 / reps as f64,
        ns_per_update_mt,
        hist_records_mt as f64 / reps as f64,
        ns_per_record_mt,
        journal_records_mt as f64 / reps as f64,
        ns_per_journal_record_mt,
        op_records_mt as f64 / reps as f64,
        ns_per_op_record_mt,
        overhead_mt_pct
    );
    assert!(
        overhead_mt_pct <= 2.0,
        "contended observability overhead bound {overhead_mt_pct:.5}% exceeds the 2% budget"
    );

    // ── Phase 3: the live sampler stays inside the same budget ──
    //
    // `obsctl watch` runs a background collector that captures one
    // full ObsReport into a frame ring every AARRAY_OBS_SAMPLE_MS.
    // Price one frame (capture + ring push) against a private ring,
    // convert to a steady-state cost at the default interval, and
    // assert the *total* obs overhead — registries + sampler — still
    // fits the ≤ 2% budget. The deliberately tiny ring doubles as the
    // wraparound drop-accounting check.
    let frame_iters = 512u64;
    let ring = TimeSeriesRing::with_capacity(64);
    let t = Instant::now();
    for _ in 0..frame_iters {
        black_box(ring.push_report(aarray_obs::ObsReport::capture()));
    }
    let ns_per_frame = t.elapsed().as_nanos() as f64 / frame_iters as f64;
    // Exact accounting, like the journal: dropped = recorded − capacity.
    let fstats = ring.stats();
    assert_eq!(fstats.recorded, frame_iters, "sampler ring lost a push");
    assert_eq!(
        fstats.dropped,
        fstats.recorded.saturating_sub(fstats.capacity),
        "sampler ring drop accounting drifted under wraparound"
    );
    assert_eq!(
        ring.snapshot().frames.len() as u64,
        fstats.capacity,
        "sampler ring surfaced more frames than its capacity"
    );

    // At the default interval the sampler costs a fixed ns/second no
    // matter what the workload does; express that against one rep's
    // wall time (concurrent with the workload, so this is the upper
    // bound where the sampler steals the workload's only core).
    let samples_per_sec = 1_000.0 / aarray_obs::DEFAULT_SAMPLE_MS as f64;
    let sampler_pct = ns_per_frame * samples_per_sec / 1e9 * 100.0;
    let total_with_sampler_pct = overhead_pct + sampler_pct;
    println!(
        "obs_overhead (sampler at {} ms default interval):\n  ns/frame:        {:10.3} ns\n  sampler cost:    {:10.5} %\n  total w/ sampler:{:10.5} % (limit 2%)",
        aarray_obs::DEFAULT_SAMPLE_MS,
        ns_per_frame,
        sampler_pct,
        total_with_sampler_pct
    );
    assert!(
        total_with_sampler_pct <= 2.0,
        "registries + live sampler bound {total_with_sampler_pct:.5}% exceeds the 2% budget"
    );

    let json = format!(
        "{{\n  \"bench\": \"obs_overhead\",\n  \"workload\": {{\"tracks\": {}, \"pairs\": 7, \"e1_nnz\": {}, \"e2_nnz\": {}}},\n  \"reps\": {},\n  \"workload_ms\": {:.3},\n  \"registry_updates_per_rep\": {:.1},\n  \"ns_per_update\": {:.3},\n  \"hist_records_per_rep\": {:.1},\n  \"ns_per_hist_record\": {:.3},\n  \"journal_records_per_rep\": {:.1},\n  \"ns_per_journal_record\": {:.3},\n  \"op_records_per_rep\": {:.1},\n  \"ns_per_op_record\": {:.3},\n  \"overhead_pct\": {:.5},\n  \"overhead_limit_pct\": 2.0,\n  \"contended\": {{\"pool_threads\": 4, \"workload_ms\": {:.3}, \"ns_per_update\": {:.3}, \"ns_per_hist_record\": {:.3}, \"ns_per_journal_record\": {:.3}, \"ns_per_op_record\": {:.3}, \"overhead_pct\": {:.5}}},\n  \"sampler\": {{\"interval_ms\": {}, \"ns_per_frame\": {:.3}, \"sampler_pct\": {:.5}, \"total_with_sampler_pct\": {:.5}}}\n}}\n",
        tracks,
        e1.nnz(),
        e2.nnz(),
        reps,
        workload_ns / 1e6,
        updates_per_rep,
        ns_per_update,
        hist_records_per_rep,
        ns_per_record,
        journal_records_per_rep,
        ns_per_journal_record,
        op_records_per_rep,
        ns_per_op_record,
        overhead_pct,
        workload_mt_ns / 1e6,
        ns_per_update_mt,
        ns_per_record_mt,
        ns_per_journal_record_mt,
        ns_per_op_record_mt,
        overhead_mt_pct,
        aarray_obs::DEFAULT_SAMPLE_MS,
        ns_per_frame,
        sampler_pct,
        total_with_sampler_pct
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/bench");
    std::fs::create_dir_all(dir).expect("create target/bench");
    let out = format!("{}/obs_overhead.json", dir);
    std::fs::write(&out, json).expect("write obs_overhead.json");
    println!("wrote {}", out);
}
