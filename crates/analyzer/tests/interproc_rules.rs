//! Fixture-pair tests for the interprocedural rules. The bad fixtures
//! are designed so the defect is invisible to any single-function
//! analysis — a helper mutates the field, a forwarding chain stores the
//! guard, a laundering call separates the hash iteration from the
//! writer — and only the summary/entry-context machinery connects the
//! dots.

use analyzer::{lint_sources, Diagnostic, LintConfig, Severity};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn lint(files: &[(&str, String)]) -> Vec<Diagnostic> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(rel, src)| (rel.to_string(), src.clone()))
        .collect();
    lint_sources(&owned, &LintConfig::default())
}

fn of_rule<'a>(diags: &'a [Diagnostic], rule: &str) -> Vec<&'a Diagnostic> {
    diags.iter().filter(|d| d.rule == rule).collect()
}

#[test]
fn unguarded_field_bad_fixture_flags_only_the_raceful_access() {
    let diags = lint(&[("crates/x/src/state.rs", fixture("unguarded_field_bad.rs"))]);
    let hits = of_rule(&diags, "unguarded-shared-field");
    assert_eq!(
        hits.len(),
        1,
        "exactly the lock-free write in sneak: {diags:?}"
    );
    assert_eq!(hits[0].severity, Severity::Error);
    assert!(
        hits[0].message.contains("sneak") && hits[0].message.contains("state"),
        "message names the function and the inferred guard: {}",
        hits[0].message
    );
    assert!(
        hits[0].message.contains("pending"),
        "message names the field: {}",
        hits[0].message
    );
}

#[test]
fn unguarded_field_guard_inference_needs_entry_contexts() {
    // The helpers `bump` and `read_pending` never lock anything
    // themselves; they are guarded only because every caller holds
    // `state`. If the entry-lock contexts were dropped, only 1 of 4
    // accesses would look guarded and no guard would be inferred at all
    // — so the single finding above doubles as a pin on the
    // interprocedural half of the analysis.
    let diags = lint(&[("crates/x/src/state.rs", fixture("unguarded_field_good.rs"))]);
    assert!(
        of_rule(&diags, "unguarded-shared-field").is_empty(),
        "every access path holds the guard: {diags:?}"
    );
}

#[test]
fn taint_output_bad_fixture_flagged_despite_laundering() {
    let diags = lint(&[("crates/bench/src/emit.rs", fixture("taint_output_bad.rs"))]);
    let hits = of_rule(&diags, "determinism-taint-to-output");
    assert_eq!(hits.len(), 1, "the write_report call in emit: {diags:?}");
    assert_eq!(hits[0].severity, Severity::Error);
    assert!(
        hits[0].message.contains("write_report"),
        "message names the sink: {}",
        hits[0].message
    );
    assert!(
        hits[0].message.contains("hash-iteration order"),
        "message names the source: {}",
        hits[0].message
    );
    // The defect spans three functions; the single-function hash rule
    // must NOT be what catches it (that would make the fixture useless
    // as an interprocedural pin).
    assert!(
        of_rule(&diags, "hash-iteration-determinism").is_empty(),
        "intraprocedural rule must not see this: {diags:?}"
    );
}

#[test]
fn taint_output_good_fixture_clean() {
    let diags = lint(&[("crates/bench/src/emit.rs", fixture("taint_output_good.rs"))]);
    assert!(
        of_rule(&diags, "determinism-taint-to-output").is_empty(),
        "BTreeMap iteration is deterministic: {diags:?}"
    );
}

#[test]
fn guard_escape_transitive_bad_fixture_flagged_at_the_handoff() {
    let diags = lint(&[(
        "crates/x/src/hold.rs",
        fixture("guard_escape_transitive_bad.rs"),
    )]);
    let hits = of_rule(&diags, "guard-escape");
    assert_eq!(hits.len(), 1, "the stash(g) handoff in pin: {diags:?}");
    assert_eq!(hits[0].severity, Severity::Error);
    assert!(
        hits[0].message.contains("live") && hits[0].message.contains("stash"),
        "message names the lock and the storing callee: {}",
        hits[0].message
    );
}

#[test]
fn guard_escape_transitive_good_fixture_clean() {
    let diags = lint(&[(
        "crates/x/src/hold.rs",
        fixture("guard_escape_transitive_good.rs"),
    )]);
    assert!(
        of_rule(&diags, "guard-escape").is_empty(),
        "data passed after an explicit drop is fine: {diags:?}"
    );
}

#[test]
fn every_rule_has_an_explanation() {
    for (name, ..) in analyzer::rules::rule_table() {
        let e = analyzer::rules::explanation(name)
            .unwrap_or_else(|| panic!("rule `{name}` has no explanation"));
        assert_eq!(e.name, name);
        assert!(!e.rationale.is_empty(), "`{name}` rationale empty");
    }
    assert!(analyzer::rules::explanation("no-such-rule").is_none());
}
