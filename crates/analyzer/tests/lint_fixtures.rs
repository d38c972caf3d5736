//! Drives each lint rule over its bad/good fixture pair. Fixtures live in
//! `tests/fixtures/` as data files (never compiled); path-scoped rules are
//! exercised by linting the fixture text under the hot/persisted path it
//! stands in for.

use analyzer::{lint_source, lint_workspace, LintConfig, Severity};

fn diags(rel: &str, src: &str) -> Vec<analyzer::Diagnostic> {
    lint_source(rel, src, &LintConfig::default())
}

fn rule_count(rel: &str, src: &str, rule: &str) -> usize {
    diags(rel, src).iter().filter(|d| d.rule == rule).count()
}

#[test]
fn nan_sort_bad_fires_per_call_site() {
    let src = include_str!("fixtures/nan_sort_bad.rs");
    assert_eq!(
        rule_count("crates/x/src/lib.rs", src, "no-nan-unsafe-sort"),
        3,
        "sort_by, max_by, and binary_search_by call sites must each fire"
    );
}

#[test]
fn nan_sort_good_is_clean() {
    let src = include_str!("fixtures/nan_sort_good.rs");
    assert_eq!(
        rule_count("crates/x/src/lib.rs", src, "no-nan-unsafe-sort"),
        0
    );
}

#[test]
fn rng_bad_fires_for_both_sources() {
    let src = include_str!("fixtures/rng_bad.rs");
    assert_eq!(
        rule_count("crates/x/src/lib.rs", src, "no-nondeterministic-rng"),
        2,
        "thread_rng and SystemTime::now must each fire"
    );
}

#[test]
fn rng_bad_is_exempt_under_benches() {
    let src = include_str!("fixtures/rng_bad.rs");
    assert_eq!(
        rule_count(
            "crates/bench/benches/e2e.rs",
            src,
            "no-nondeterministic-rng"
        ),
        0
    );
}

#[test]
fn rng_good_is_clean() {
    let src = include_str!("fixtures/rng_good.rs");
    assert_eq!(
        rule_count("crates/x/src/lib.rs", src, "no-nondeterministic-rng"),
        0
    );
}

#[test]
fn hot_path_bad_fires_only_on_hot_files() {
    let src = include_str!("fixtures/hot_path_bad.rs");
    let hot = diags("crates/searchlite/src/topk.rs", src);
    let unwraps: Vec<_> = hot
        .iter()
        .filter(|d| d.rule == "no-panicking-hot-path" && d.severity == Severity::Error)
        .collect();
    assert_eq!(unwraps.len(), 1, "one .unwrap() at error severity");
    let indexing: Vec<_> = hot
        .iter()
        .filter(|d| d.rule == "no-panicking-hot-path" && d.severity == Severity::Warn)
        .collect();
    assert_eq!(indexing.len(), 1, "one slice index at demoted severity");
    // The same text outside the hot list is not this rule's business.
    assert_eq!(
        rule_count("crates/x/src/lib.rs", src, "no-panicking-hot-path"),
        0
    );
}

#[test]
fn hot_path_good_is_clean() {
    let src = include_str!("fixtures/hot_path_good.rs");
    assert_eq!(
        rule_count(
            "crates/searchlite/src/topk.rs",
            src,
            "no-panicking-hot-path"
        ),
        0,
        "expect with invariant message, get(), and test-module unwraps are all fine"
    );
}

#[test]
fn persist_bad_fires_per_type() {
    let src = include_str!("fixtures/persist_bad.rs");
    assert_eq!(
        rule_count(
            "crates/kbgraph/src/graph.rs",
            src,
            "persist-types-derive-serde"
        ),
        2,
        "struct and enum without serde derives must each fire"
    );
    assert_eq!(
        rule_count("crates/x/src/lib.rs", src, "persist-types-derive-serde"),
        0
    );
}

#[test]
fn persist_good_is_clean() {
    let src = include_str!("fixtures/persist_good.rs");
    assert_eq!(
        rule_count(
            "crates/kbgraph/src/graph.rs",
            src,
            "persist-types-derive-serde"
        ),
        0,
        "derived types pass and the lint:allow opt-out holds"
    );
}

/// End-to-end: a workspace tree seeded with a bad fixture produces
/// error-severity findings via the directory walker, and vendor/ is
/// skipped.
#[test]
fn workspace_walk_finds_bad_fixture_and_skips_vendor() {
    let root = std::env::temp_dir().join(format!("sqe-lint-fixture-{}", std::process::id()));
    let src_dir = root.join("crates/x/src");
    let vendor_dir = root.join("vendor/dep/src");
    std::fs::create_dir_all(&src_dir).unwrap();
    std::fs::create_dir_all(&vendor_dir).unwrap();
    std::fs::write(
        src_dir.join("lib.rs"),
        include_str!("fixtures/nan_sort_bad.rs"),
    )
    .unwrap();
    std::fs::write(
        vendor_dir.join("lib.rs"),
        include_str!("fixtures/nan_sort_bad.rs"),
    )
    .unwrap();

    let diags = lint_workspace(&root, &LintConfig::default()).unwrap();
    std::fs::remove_dir_all(&root).unwrap();

    assert!(diags.iter().any(|d| d.severity == Severity::Error));
    assert!(
        diags.iter().all(|d| !d.path.starts_with("vendor/")),
        "vendored sources must not be linted"
    );
}
