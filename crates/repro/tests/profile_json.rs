//! `--profile-json` capture for the Figure 3/5 workloads.
//!
//! Single `#[test]` on purpose: the capture buffer is process-global
//! (like the counter registry), so an isolated integration-test
//! process keeps the fragment count exact.

use aarray_repro::figures;

#[test]
fn profile_json_captures_stage_tables_and_counter_deltas() {
    figures::set_profile_json_capture(true);
    figures::figure3().expect("figure 3 must verify");
    figures::figure5().expect("figure 5 must verify");
    let doc = figures::take_profile_json().expect("capture was enabled");

    // Schema envelope.
    assert!(
        doc.starts_with(&format!(
            "{{\"schema_version\":{}",
            aarray_obs::REPORT_SCHEMA_VERSION
        )),
        "{}",
        doc
    );
    assert!(doc.contains("\"kind\":\"repro-profile\""), "{}", doc);

    // One fragment per profiled figure, each with both plans' stage
    // tables and the figure's counter delta.
    assert!(doc.contains("\"figure\":\"fig3\""), "{}", doc);
    assert!(doc.contains("\"figure\":\"fig5\""), "{}", doc);
    assert_eq!(doc.matches("\"maxplus_plan\":{").count(), 2, "{}", doc);
    assert_eq!(
        doc.matches("\"transpose\":{\"calls\":1").count(),
        4,
        "{}",
        doc
    );
    // Each figure runs 3 fused traversals; deltas elide zero counters.
    assert!(doc.contains("\"fused.traversals\":3"), "{}", doc);
    // The figures' arrays are tiny, so no dispatch goes parallel.
    assert!(
        !doc.contains("\"dispatch.parallel\""),
        "zero deltas elided: {}",
        doc
    );

    // Structural sanity: balanced braces/brackets (the emitters are
    // hand-rolled against the empty serde_json stub).
    let opens = doc.matches('{').count() + doc.matches('[').count();
    let closes = doc.matches('}').count() + doc.matches(']').count();
    assert_eq!(opens, closes, "{}", doc);

    // The buffer drains on take; a second take yields an empty list.
    let empty = figures::take_profile_json().expect("capture still on");
    assert!(empty.contains("\"profiles\":[]"), "{}", empty);
    figures::set_profile_json_capture(false);
    assert!(figures::take_profile_json().is_none());
}
