//! Fixture-pair tests for the v2 cross-file rules: every rule's bad
//! fixture must produce at least one finding and its good fixture none,
//! plus suppression-scoping tests for `lint:allow-file`.

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

/// An entry file whose `rank` reaches into the fixture helper cross-file.
const ENTRY: &str = "pub fn rank(xs: &[u32]) -> u32 { kbgraph::lookup(xs, 0) }";

#[test]
fn panic_reachability_bad_fixture_flagged_cross_file() {
    let diags = lint(&[
        ("crates/searchlite/src/ql.rs", ENTRY.to_string()),
        (
            "crates/kbgraph/src/lookup.rs",
            fixture("panic_reach_bad.rs"),
        ),
    ]);
    let hits = of_rule(&diags, "panic-reachability");
    assert!(!hits.is_empty(), "bad fixture must be flagged: {diags:?}");
    assert!(
        hits.iter()
            .all(|d| d.path == "crates/kbgraph/src/lookup.rs" && d.severity == Severity::Error),
        "the finding sits at the panic site, in the callee's file: {hits:?}"
    );
    assert!(
        hits[0].message.contains("rank"),
        "message must carry the entry trace: {}",
        hits[0].message
    );
}

#[test]
fn panic_reachability_good_fixture_clean() {
    let diags = lint(&[
        ("crates/searchlite/src/ql.rs", ENTRY.to_string()),
        (
            "crates/kbgraph/src/lookup.rs",
            fixture("panic_reach_good.rs"),
        ),
    ]);
    assert!(
        of_rule(&diags, "panic-reachability").is_empty(),
        "{diags:?}"
    );
}

#[test]
fn hash_iteration_bad_fixture_flagged() {
    let diags = lint(&[(
        "crates/synthwiki/src/report.rs",
        fixture("hash_iter_bad.rs"),
    )]);
    let hits = of_rule(&diags, "hash-iteration-determinism");
    assert_eq!(hits.len(), 2, "collect chain AND for loop: {diags:?}");
    assert!(hits.iter().all(|d| d.severity == Severity::Error));
}

#[test]
fn hash_iteration_good_fixture_clean() {
    let diags = lint(&[(
        "crates/synthwiki/src/report.rs",
        fixture("hash_iter_good.rs"),
    )]);
    assert!(
        of_rule(&diags, "hash-iteration-determinism").is_empty(),
        "{diags:?}"
    );
}

#[test]
fn lossy_cast_bad_fixture_flagged() {
    let diags = lint(&[("crates/kbgraph/src/seal.rs", fixture("lossy_cast_bad.rs"))]);
    let hits = of_rule(&diags, "lossy-id-cast");
    assert_eq!(hits.len(), 2, "len cast AND pos cast: {diags:?}");
    assert!(hits.iter().all(|d| d.severity == Severity::Error));
}

#[test]
fn lossy_cast_good_fixture_clean() {
    let diags = lint(&[("crates/kbgraph/src/seal.rs", fixture("lossy_cast_good.rs"))]);
    assert!(of_rule(&diags, "lossy-id-cast").is_empty(), "{diags:?}");
}

#[test]
fn lossy_cast_out_of_scope_path_ignored() {
    let diags = lint(&[("crates/bench/src/seal.rs", fixture("lossy_cast_bad.rs"))]);
    assert!(of_rule(&diags, "lossy-id-cast").is_empty(), "{diags:?}");
}

#[test]
fn audit_mutation_bad_fixture_flagged() {
    let diags = lint(&[(
        "crates/kbgraph/src/patch.rs",
        fixture("audit_mutation_bad.rs"),
    )]);
    let hits = of_rule(&diags, "must-audit-after-mutation");
    assert_eq!(hits.len(), 2, "raw_mut AND from_raw_parts: {diags:?}");
    assert!(hits.iter().all(|d| d.severity == Severity::Error));
}

#[test]
fn audit_mutation_good_fixture_clean() {
    let diags = lint(&[(
        "crates/kbgraph/src/patch.rs",
        fixture("audit_mutation_good.rs"),
    )]);
    assert!(
        of_rule(&diags, "must-audit-after-mutation").is_empty(),
        "{diags:?}"
    );
}

#[test]
fn seal_merge_bad_fixture_flagged() {
    let diags = lint(&[(
        "crates/searchlite/src/ingest.rs",
        fixture("seal_merge_bad.rs"),
    )]);
    let hits = of_rule(&diags, "must-audit-after-mutation");
    assert_eq!(
        hits.len(),
        2,
        "build() in seal AND in merge, but not in freeze: {diags:?}"
    );
    assert!(hits.iter().all(|d| d.severity == Severity::Error));
}

#[test]
fn typed_build_in_seal_prefixed_fn_is_a_site() {
    let src = "impl S { \
               pub fn seal_shard(&self, p: PendingSeal) { let b = PendingSeal::build(p); self.commit(b); } \
               pub fn seal_all(&self) { self.seal_shard(self.pending()); } \
               pub fn sealant(&self, b: Builder) { b.build(); } \
               pub fn merge_top_k(&self) { Plan::build(); } }";
    let diags = lint(&[("crates/core/src/serve.rs", src.to_owned())]);
    let hits = of_rule(&diags, "must-audit-after-mutation");
    assert_eq!(hits.len(), 2, "seal_shard and merge_top_k only: {diags:?}");
}

#[test]
fn seal_merge_good_fixture_clean() {
    let diags = lint(&[(
        "crates/searchlite/src/ingest.rs",
        fixture("seal_merge_good.rs"),
    )]);
    assert!(
        of_rule(&diags, "must-audit-after-mutation").is_empty(),
        "{diags:?}"
    );
}

#[test]
fn snapshot_load_bad_fixture_flagged() {
    let diags = lint(&[(
        "crates/store/src/loader.rs",
        fixture("snapshot_load_bad.rs"),
    )]);
    let hits = of_rule(&diags, "must-audit-after-mutation");
    assert_eq!(
        hits.len(),
        3,
        "two from_raw_parts AND one from_parts: {diags:?}"
    );
    assert!(hits.iter().all(|d| d.severity == Severity::Error));
}

#[test]
fn snapshot_load_good_fixture_clean() {
    let diags = lint(&[(
        "crates/store/src/loader.rs",
        fixture("snapshot_load_good.rs"),
    )]);
    assert!(
        of_rule(&diags, "must-audit-after-mutation").is_empty(),
        "{diags:?}"
    );
}

#[test]
fn audit_mutation_test_code_exempt() {
    let src = format!(
        "#[cfg(test)]\nmod tests {{\n{}\n}}",
        fixture("audit_mutation_bad.rs")
    );
    let diags = lint(&[("crates/kbgraph/src/patch.rs", src)]);
    assert!(
        of_rule(&diags, "must-audit-after-mutation").is_empty(),
        "{diags:?}"
    );
}

#[test]
fn lock_order_bad_fixture_flagged_both_directions() {
    let diags = lint(&[("crates/x/src/lib.rs", fixture("lock_order_bad.rs"))]);
    let hits = of_rule(&diags, "lock-order-consistency");
    assert_eq!(
        hits.len(),
        2,
        "one finding per conflicting function: {diags:?}"
    );
    assert!(hits.iter().all(|d| d.severity == Severity::Error));
}

#[test]
fn lock_order_good_fixture_clean() {
    let diags = lint(&[("crates/x/src/lib.rs", fixture("lock_order_good.rs"))]);
    assert!(
        of_rule(&diags, "lock-order-consistency").is_empty(),
        "{diags:?}"
    );
}

#[test]
fn lock_blocking_bad_fixture_flagged() {
    let diags = lint(&[("crates/x/src/lib.rs", fixture("lock_blocking_bad.rs"))]);
    let hits = of_rule(&diags, "no-blocking-while-locked");
    assert_eq!(hits.len(), 1, "seal under the live guard: {diags:?}");
    assert!(hits[0].severity == Severity::Error);
    assert!(hits[0].message.contains("live"), "{}", hits[0].message);
}

#[test]
fn lock_blocking_good_fixture_clean() {
    let diags = lint(&[("crates/x/src/lib.rs", fixture("lock_blocking_good.rs"))]);
    assert!(
        of_rule(&diags, "no-blocking-while-locked").is_empty(),
        "{diags:?}"
    );
}

#[test]
fn lock_blocking_reaches_through_helpers_cross_file() {
    // The expensive name sits two hops away: tick holds the guard and
    // calls refresh, which calls force_merge.
    let helper = "pub fn refresh(idx: &mut Index) { idx.force_merge(); }";
    let entry = "pub fn tick(&self) { let g = self.live.lock(); refresh(&mut g); }";
    let diags = lint(&[
        ("crates/x/src/lib.rs", entry.to_string()),
        ("crates/y/src/lib.rs", helper.to_string()),
    ]);
    let hits = of_rule(&diags, "no-blocking-while-locked");
    assert_eq!(hits.len(), 1, "{diags:?}");
    assert!(
        hits[0].message.contains("refresh"),
        "message names the call that reaches the slow work: {}",
        hits[0].message
    );
}

#[test]
fn lock_blocking_maint_lock_is_allowlisted() {
    let src = "pub fn maintain(&self) { let g = self.maint.lock(); self.task.seal(); }";
    let diags = lint(&[("crates/x/src/lib.rs", src.to_string())]);
    assert!(
        of_rule(&diags, "no-blocking-while-locked").is_empty(),
        "the maint lock exists to be held across slow work: {diags:?}"
    );
}

#[test]
fn guard_escape_bad_fixture_flagged_for_return_and_store() {
    let diags = lint(&[("crates/x/src/lib.rs", fixture("guard_escape_bad.rs"))]);
    let hits = of_rule(&diags, "guard-escape");
    assert_eq!(hits.len(), 2, "returned AND stored guard: {diags:?}");
    assert!(hits.iter().all(|d| d.severity == Severity::Error));
}

#[test]
fn guard_escape_good_fixture_clean() {
    let diags = lint(&[("crates/x/src/lib.rs", fixture("guard_escape_good.rs"))]);
    assert!(of_rule(&diags, "guard-escape").is_empty(), "{diags:?}");
}

#[test]
fn float_taint_bad_fixture_flagged() {
    let diags = lint(&[("crates/x/src/lib.rs", fixture("float_taint_bad.rs"))]);
    let hits = of_rule(&diags, "float-taint-before-merge");
    assert!(
        !hits.is_empty(),
        "float round-trip in a stat merge: {diags:?}"
    );
    assert!(hits.iter().all(|d| d.severity == Severity::Error));
}

#[test]
fn float_taint_good_fixture_clean() {
    let diags = lint(&[("crates/x/src/lib.rs", fixture("float_taint_good.rs"))]);
    assert!(
        of_rule(&diags, "float-taint-before-merge").is_empty(),
        "integer merges and read-only float accessors are fine: {diags:?}"
    );
}

#[test]
fn allow_file_suppresses_whole_file() {
    let src = format!(
        "// lint:allow-file(hash-iteration-determinism)\n{}",
        fixture("hash_iter_bad.rs")
    );
    let diags = lint(&[("crates/synthwiki/src/report.rs", src)]);
    assert!(
        of_rule(&diags, "hash-iteration-determinism").is_empty(),
        "{diags:?}"
    );
}

#[test]
fn allow_file_does_not_leak_across_files() {
    let suppressed = format!(
        "// lint:allow-file(hash-iteration-determinism)\n{}",
        fixture("hash_iter_bad.rs")
    );
    let diags = lint(&[
        ("crates/synthwiki/src/report.rs", suppressed),
        ("crates/synthwiki/src/other.rs", fixture("hash_iter_bad.rs")),
    ]);
    let hits = of_rule(&diags, "hash-iteration-determinism");
    assert_eq!(hits.len(), 2, "only the unsuppressed file: {diags:?}");
    assert!(hits
        .iter()
        .all(|d| d.path == "crates/synthwiki/src/other.rs"));
}

#[test]
fn allow_file_must_be_in_header() {
    // The marker after the first code token is a line-allow misuse, not a
    // file-wide suppression.
    let src = format!(
        "{}\n// lint:allow-file(hash-iteration-determinism)\n",
        fixture("hash_iter_bad.rs")
    );
    let diags = lint(&[("crates/synthwiki/src/report.rs", src)]);
    assert!(
        !of_rule(&diags, "hash-iteration-determinism").is_empty(),
        "trailing allow-file must not suppress: {diags:?}"
    );
}
