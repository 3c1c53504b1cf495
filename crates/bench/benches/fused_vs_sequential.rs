//! The tentpole measurement: Figure 3's seven-pair workload executed
//! as seven independent multiplications vs one `MatmulPlan` with a
//! fused multi-semiring numeric pass.
//!
//! Sequential arm: seven `adjacency_array_unchecked` calls (six NN
//! algebras + tropical max.+), each re-running transpose, key
//! alignment, and sparsity discovery. Fused arm: one plan per carrier
//! (transpose + alignment + symbolic pattern once), six NN lanes fed
//! by a single traversal, tropical executed on its own plan. Both arms
//! produce bit-identical arrays — asserted before timing.
//!
//! Writes the measured speedup to `target/bench/fused_vs_sequential.json`
//! (a build output, never a tracked file), which CI keeps as an
//! artifact.

use aarray_algebra::pairs::{MaxMin, MaxPlus, MaxTimes, MinMax, MinPlus, MinTimes, PlusTimes};
use aarray_algebra::values::nn::NN;
use aarray_algebra::values::tropical::{trop, Tropical};
use aarray_algebra::DynOpPair;
use aarray_bench::synthetic_e1_e2;
use aarray_core::{adjacency_array_unchecked, adjacency_plan, AArray};
use std::time::Instant;

struct SevenPairs {
    plus_times: PlusTimes<NN>,
    max_times: MaxTimes<NN>,
    min_times: MinTimes<NN>,
    min_plus: MinPlus<NN>,
    max_min: MaxMin<NN>,
    min_max: MinMax<NN>,
    max_plus: MaxPlus<Tropical>,
}

impl SevenPairs {
    fn new() -> Self {
        SevenPairs {
            plus_times: PlusTimes::new(),
            max_times: MaxTimes::new(),
            min_times: MinTimes::new(),
            min_plus: MinPlus::new(),
            max_min: MaxMin::new(),
            min_max: MinMax::new(),
            max_plus: MaxPlus::new(),
        }
    }
}

/// Seven independent products, exactly as `run_seven_pairs` worked
/// before the plan layer existed.
fn sequential(
    e1: &AArray<NN>,
    e2: &AArray<NN>,
    e1t: &AArray<Tropical>,
    e2t: &AArray<Tropical>,
    p: &SevenPairs,
) -> (Vec<AArray<NN>>, AArray<Tropical>) {
    let nn = vec![
        adjacency_array_unchecked(e1, e2, &p.plus_times),
        adjacency_array_unchecked(e1, e2, &p.max_times),
        adjacency_array_unchecked(e1, e2, &p.min_times),
        adjacency_array_unchecked(e1, e2, &p.min_plus),
        adjacency_array_unchecked(e1, e2, &p.max_min),
        adjacency_array_unchecked(e1, e2, &p.min_max),
    ];
    let tropical = adjacency_array_unchecked(e1t, e2t, &p.max_plus);
    (nn, tropical)
}

/// One plan per carrier, six NN lanes in one fused traversal.
fn fused(
    e1: &AArray<NN>,
    e2: &AArray<NN>,
    e1t: &AArray<Tropical>,
    e2t: &AArray<Tropical>,
    p: &SevenPairs,
) -> (Vec<AArray<NN>>, AArray<Tropical>) {
    let pairs: [&dyn DynOpPair<NN>; 6] = [
        &p.plus_times,
        &p.max_times,
        &p.min_times,
        &p.min_plus,
        &p.max_min,
        &p.min_max,
    ];
    let nn = adjacency_plan(e1, e2).execute_all(&pairs);
    let tropical = adjacency_plan(e1t, e2t).execute(&p.max_plus);
    (nn, tropical)
}

fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e3 / reps as f64
}

fn main() {
    let tracks = 20_000usize;
    let (e1, e2) = synthetic_e1_e2(tracks, 8, 100, 7);
    let p = SevenPairs::new();
    let e1t = e1.map_prune(&p.max_plus, |v| trop(v.get()));
    let e2t = e2.map_prune(&p.max_plus, |v| trop(v.get()));

    // Bit-identity sanity before timing anything.
    let (seq_nn, seq_trop) = sequential(&e1, &e2, &e1t, &e2t, &p);
    let (fus_nn, fus_trop) = fused(&e1, &e2, &e1t, &e2t, &p);
    assert_eq!(seq_nn, fus_nn, "fused NN lanes must be bit-identical");
    assert_eq!(seq_trop, fus_trop, "tropical lane must be bit-identical");

    let reps = std::env::var("FUSED_BENCH_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10usize);
    // Warmup once each, then measure.
    let _ = sequential(&e1, &e2, &e1t, &e2t, &p);
    let _ = fused(&e1, &e2, &e1t, &e2t, &p);
    let sequential_ms = time_ms(reps, || sequential(&e1, &e2, &e1t, &e2t, &p));
    let fused_ms = time_ms(reps, || fused(&e1, &e2, &e1t, &e2t, &p));
    let speedup = sequential_ms / fused_ms;

    println!(
        "fused_vs_sequential: {} tracks, 7 pairs, {} reps\n  sequential: {:8.3} ms\n  fused:      {:8.3} ms\n  speedup:    {:.2}x",
        tracks, reps, sequential_ms, fused_ms, speedup
    );

    let json = format!(
        "{{\n  \"bench\": \"fused_vs_sequential\",\n  \"workload\": {{\"tracks\": {}, \"pairs\": 7, \"e1_nnz\": {}, \"e2_nnz\": {}}},\n  \"reps\": {},\n  \"sequential_ms\": {:.3},\n  \"fused_ms\": {:.3},\n  \"speedup\": {:.3}\n}}\n",
        tracks,
        e1.nnz(),
        e2.nnz(),
        reps,
        sequential_ms,
        fused_ms,
        speedup
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/bench");
    std::fs::create_dir_all(dir).expect("create target/bench");
    let out = format!("{}/fused_vs_sequential.json", dir);
    std::fs::write(&out, json).expect("write fused_vs_sequential.json");
    println!("wrote {}", out);
}
