//! `sqe-lint`: CLI driver for the workspace lint engine and the
//! structural invariant auditor.
//!
//! Subcommands:
//!
//! - `check [--root DIR] [--format human|json|github] [--config FILE]
//!   [--baseline FILE] [--out FILE]` — lint every workspace `.rs` file;
//!   exit 1 on any error-severity finding not covered by the baseline,
//!   and on stale baseline entries (the baseline may only shrink). With
//!   no `--baseline`, `<root>/sqe-lint.baseline.json` is used when it
//!   exists. `--out` additionally writes all findings as JSON (for CI
//!   artifacts) regardless of `--format`. `--format github` prints
//!   `::warning`/`::error` workflow commands so findings surface as
//!   inline PR annotations.
//! - `baseline [--root DIR] [--config FILE] [--baseline FILE]` —
//!   snapshot the current error-severity findings to the baseline file
//!   (default `<root>/sqe-lint.baseline.json`).
//! - `bench [--root DIR] [--reference FILE] [--out FILE]` — time a full
//!   workspace lint and compare against the committed reference wall
//!   time (default `<root>/sqe-lint.bench.json`); exit 1 when the run
//!   regresses more than 2× over the reference. `--out` writes a
//!   timings artifact for CI.
//! - `rules` — print the rule table (token/ast/flow/inter layers) with
//!   default severities.
//! - `explain <rule>` — print one rule's full story: what it checks, why
//!   it exists in this codebase, the bad/good fixture pair that pins its
//!   behaviour, and the suppression syntax. Exit 2 on an unknown rule
//!   (with the list of valid names).
//! - `audit [--selftest]` — build a synthetic testbed, run the graph and
//!   index auditors, and (with `--selftest`) seed known corruption
//!   classes to prove each is still detected. Exit 1 on any violation or
//!   missed seeding.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use analyzer::baseline::{self, Baseline};
use analyzer::{
    diagnostics_to_json, lint_workspace, rules, workspace_files, Diagnostic, LintConfig, Severity,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("baseline") => cmd_baseline(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("rules") => cmd_rules(),
        Some("explain") => cmd_explain(&args[1..]),
        Some("audit") => cmd_audit(&args[1..]),
        _ => {
            eprintln!(
                "usage: sqe-lint <check [--root DIR] [--format human|json|github] [--config FILE] \
                 [--baseline FILE] [--out FILE] | baseline [--root DIR] [--baseline FILE] \
                 | bench [--root DIR] [--reference FILE] [--out FILE] \
                 | rules | explain <rule> | audit [--selftest]>"
            );
            ExitCode::from(2)
        }
    }
}

/// Looks up `--name value` or `--name=value`.
fn flag_value(args: &[String], name: &str) -> Option<String> {
    let prefix = format!("{name}=");
    args.iter().enumerate().find_map(|(i, a)| {
        if a == name {
            args.get(i + 1).cloned()
        } else {
            a.strip_prefix(&prefix).map(str::to_string)
        }
    })
}

/// The baseline file for this invocation: `--baseline FILE`, else the
/// root default. Returns `None` when the default does not exist.
fn baseline_path(args: &[String], root: &Path) -> Option<PathBuf> {
    match flag_value(args, "--baseline") {
        Some(p) => Some(PathBuf::from(p)),
        None => {
            let default = root.join("sqe-lint.baseline.json");
            default.is_file().then_some(default)
        }
    }
}

/// Lints the workspace with the configured severities. Shared by `check`
/// and `baseline`.
fn run_lint(args: &[String], root: &Path) -> Result<Vec<Diagnostic>, String> {
    let cfg = load_config(args, root)?;
    lint_workspace(root, &cfg).map_err(|e| format!("walking {}: {e}", root.display()))
}

/// Escapes a GitHub workflow-command *message* (data after `::`).
fn gh_escape(text: &str) -> String {
    text.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escapes a GitHub workflow-command *property* (file=, line=): message
/// escapes plus the property delimiters.
fn gh_escape_prop(text: &str) -> String {
    gh_escape(text).replace(':', "%3A").replace(',', "%2C")
}

/// One finding as a GitHub annotation: `::warning file=…,line=…::msg`.
fn gh_annotation(d: &Diagnostic) -> String {
    let level = match d.severity {
        Severity::Error => "error",
        _ => "warning",
    };
    format!(
        "::{level} file={},line={}::[{}] {}",
        gh_escape_prop(&d.path),
        d.line,
        d.rule,
        gh_escape(&d.message)
    )
}

fn cmd_check(args: &[String]) -> ExitCode {
    let root = PathBuf::from(flag_value(args, "--root").unwrap_or_else(|| ".".to_string()));
    let format = flag_value(args, "--format").unwrap_or_else(|| "human".to_string());
    let diags = match run_lint(args, &root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("sqe-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(out_path) = flag_value(args, "--out") {
        if let Err(e) = std::fs::write(&out_path, diagnostics_to_json(&diags)) {
            eprintln!("sqe-lint: writing {out_path}: {e}");
            return ExitCode::from(2);
        }
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warns = diags.len() - errors;
    match format.as_str() {
        "json" => println!("{}", diagnostics_to_json(&diags)),
        "github" => {
            for d in &diags {
                println!("{}", gh_annotation(d));
            }
            println!("sqe-lint: {errors} error(s), {warns} warning(s)");
        }
        _ => {
            for d in &diags {
                println!("{d}");
            }
            println!("sqe-lint: {errors} error(s), {warns} warning(s)");
        }
    }

    // Ratchet against the baseline when one is present: only findings
    // beyond the snapshot fail, and snapshot entries that no longer occur
    // fail too (regenerate with `sqe-lint baseline` so it only shrinks).
    let failing = match baseline_path(args, &root) {
        Some(path) => {
            let base = match std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))
                .and_then(|t| Baseline::from_json(&t))
            {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("sqe-lint: {e}");
                    return ExitCode::from(2);
                }
            };
            let ratchet = base.compare(&diags);
            for d in &ratchet.new {
                println!("new (not in baseline): {d}");
            }
            for k in &ratchet.stale {
                println!("stale baseline entry (fixed — regenerate with `sqe-lint baseline`): {k}");
                // A stale entry often means the finding *moved* (message
                // reword, file rename) rather than died: point at the
                // closest survivor so the fix is obvious.
                if let Some(d) = baseline::nearest_surviving(k, &diags) {
                    println!(
                        "  hint: nearest surviving finding is [{}] at {}:{} \
                         (see `sqe-lint explain {}`)",
                        d.rule, d.path, d.line, d.rule
                    );
                }
            }
            !ratchet.new.is_empty() || !ratchet.stale.is_empty()
        }
        None => errors > 0,
    };
    if failing {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_baseline(args: &[String]) -> ExitCode {
    let root = PathBuf::from(flag_value(args, "--root").unwrap_or_else(|| ".".to_string()));
    let diags = match run_lint(args, &root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("sqe-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let base = Baseline::from_diags(&diags);
    let path = flag_value(args, "--baseline")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("sqe-lint.baseline.json"));
    if let Err(e) = std::fs::write(&path, base.to_json()) {
        eprintln!("sqe-lint: writing {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!(
        "sqe-lint: baselined {} finding group(s) to {}",
        base.len(),
        path.display()
    );
    ExitCode::SUCCESS
}

/// Times a full workspace lint and gates it against the committed
/// reference wall time: a >2× regression fails. Wall-clock use is
/// deliberate and CI-only — the gate is coarse (2×) precisely because
/// absolute lint speed varies across runners; what it catches is the
/// analyzer accidentally going quadratic, not millisecond noise.
fn cmd_bench(args: &[String]) -> ExitCode {
    let root = PathBuf::from(flag_value(args, "--root").unwrap_or_else(|| ".".to_string()));
    let cfg = match load_config(args, &root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("sqe-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let files = match workspace_files(&root) {
        Ok(f) => f.len(),
        Err(e) => {
            eprintln!("sqe-lint: walking {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let t0 = std::time::Instant::now();
    let diags = match lint_workspace(&root, &cfg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("sqe-lint: walking {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let ref_path = flag_value(args, "--reference")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("sqe-lint.bench.json"));
    let reference_ms: Option<f64> = match std::fs::read_to_string(&ref_path) {
        Ok(text) => match serde_json::from_str::<serde_json::Value>(&text) {
            Ok(v) => v.get("lint_wall_ms").and_then(serde_json::Value::as_f64),
            Err(e) => {
                eprintln!("sqe-lint: parsing {}: {e}", ref_path.display());
                return ExitCode::from(2);
            }
        },
        Err(_) => None,
    };

    let ratio = reference_ms.map(|r| if r > 0.0 { wall_ms / r } else { 0.0 });
    println!(
        "sqe-lint bench: {files} file(s), {} finding(s), {wall_ms:.1} ms wall",
        diags.len()
    );
    match (reference_ms, ratio) {
        (Some(r), Some(x)) => println!("sqe-lint bench: reference {r:.1} ms, ratio {x:.2}x"),
        _ => println!(
            "sqe-lint bench: no reference at {} — measuring only",
            ref_path.display()
        ),
    }

    if let Some(out_path) = flag_value(args, "--out") {
        let mut m = serde_json::Map::new();
        m.insert("files".into(), serde_json::Value::from(files as u64));
        m.insert(
            "findings".into(),
            serde_json::Value::from(diags.len() as u64),
        );
        m.insert("lint_wall_ms".into(), serde_json::Value::from(wall_ms));
        if let Some(r) = reference_ms {
            m.insert("reference_ms".into(), serde_json::Value::from(r));
        }
        if let Some(x) = ratio {
            m.insert("ratio".into(), serde_json::Value::from(x));
        }
        let text = serde_json::to_string_pretty(&serde_json::Value::Object(m))
            .expect("bench report serializes");
        if let Err(e) = std::fs::write(&out_path, text) {
            eprintln!("sqe-lint: writing {out_path}: {e}");
            return ExitCode::from(2);
        }
    }

    if let Some(x) = ratio {
        if x > 2.0 {
            eprintln!("sqe-lint bench: FAIL — lint wall time regressed {x:.2}x over the reference");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn load_config(args: &[String], root: &Path) -> Result<LintConfig, String> {
    let path = match flag_value(args, "--config") {
        Some(p) => PathBuf::from(p),
        None => {
            let default = root.join("sqe-lint.json");
            if !default.is_file() {
                return Ok(LintConfig::default());
            }
            default
        }
    };
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    LintConfig::from_json(&text)
}

fn cmd_rules() -> ExitCode {
    for (name, description, severity, layer) in rules::rule_table() {
        println!(
            "{name:<28} {:<6} {layer:<6} {description}",
            severity.as_str()
        );
    }
    ExitCode::SUCCESS
}

/// Prints one rule's full story: description, rationale, the fixture
/// pair pinning its behaviour, and how to suppress it.
fn cmd_explain(args: &[String]) -> ExitCode {
    let Some(name) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("usage: sqe-lint explain <rule>");
        return ExitCode::from(2);
    };
    let Some(e) = rules::explanation(name) else {
        eprintln!("sqe-lint: unknown rule `{name}`; valid rules are:");
        for (n, ..) in rules::rule_table() {
            eprintln!("  {n}");
        }
        return ExitCode::from(2);
    };
    println!(
        "{} ({} layer, default severity {})",
        e.name,
        e.layer,
        e.severity.as_str()
    );
    println!();
    println!("  {}", e.summary);
    println!();
    println!("why:");
    for line in wrap(e.rationale, 72) {
        println!("  {line}");
    }
    if let Some(stem) = e.fixture {
        println!();
        println!("fixtures (pinned by the rule tests):");
        println!("  bad:  crates/analyzer/tests/fixtures/{stem}_bad.rs");
        println!("  good: crates/analyzer/tests/fixtures/{stem}_good.rs");
    }
    println!();
    println!("suppress (requires a written justification in review):");
    println!(
        "  // lint:allow({})       — this line or the line below",
        e.name
    );
    println!(
        "  // lint:allow-file({})  — whole file, in the header comment",
        e.name
    );
    ExitCode::SUCCESS
}

/// Greedy word-wrap for terminal output.
fn wrap(text: &str, width: usize) -> Vec<String> {
    let mut lines = Vec::new();
    let mut cur = String::new();
    for word in text.split_whitespace() {
        if !cur.is_empty() && cur.len() + 1 + word.len() > width {
            lines.push(std::mem::take(&mut cur));
        }
        if !cur.is_empty() {
            cur.push(' ');
        }
        cur.push_str(word);
    }
    if !cur.is_empty() {
        lines.push(cur);
    }
    lines
}

fn cmd_audit(args: &[String]) -> ExitCode {
    let selftest = args.iter().any(|a| a == "--selftest");

    // Audit a realistic synthetic testbed: the generated knowledge graph
    // and an index built over its first document collection.
    let bed = synthwiki::TestBed::generate(&synthwiki::TestBedConfig::small());
    let graph_audit = kbgraph::audit::GraphAudit::run(&bed.kb.graph);
    let mut builder = searchlite::IndexBuilder::new(searchlite::Analyzer::english());
    if let Some(coll) = bed.collections.first() {
        for doc in &coll.docs {
            builder
                .add_document(&doc.id, &doc.text)
                .expect("generated testbed ids are unique");
        }
    }
    let index = builder.build();
    let index_audit = searchlite::audit::IndexAudit::run(&index);

    println!(
        "graph audit: {} articles, {} categories — {}",
        bed.kb.graph.num_articles(),
        bed.kb.graph.num_categories(),
        if graph_audit.is_clean() {
            "clean"
        } else {
            "VIOLATIONS"
        }
    );
    if !graph_audit.is_clean() {
        println!("{}", graph_audit.report());
    }
    println!(
        "index audit: {} docs — {}",
        index.num_docs(),
        if index_audit.is_clean() {
            "clean"
        } else {
            "VIOLATIONS"
        }
    );
    if !index_audit.is_clean() {
        println!("{}", index_audit.report());
    }

    let mut failed = !graph_audit.is_clean() || !index_audit.is_clean();
    if selftest {
        for (name, detected) in selftest_results() {
            println!(
                "selftest {:<24} {}",
                name,
                if detected { "detected" } else { "MISSED" }
            );
            failed |= !detected;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Seeds one corruption per known mutation class into freshly built
/// structures and reports whether the auditor flags it with the expected
/// violation kind.
fn selftest_results() -> Vec<(&'static str, bool)> {
    use kbgraph::audit::{GraphAudit, GraphViolation};
    use kbgraph::{Csr, GraphBuilder, KbGraph};
    use searchlite::audit::{IndexAudit, IndexViolation};
    use searchlite::{Analyzer, Index, IndexBuilder};

    // A small hand-built graph with every structure populated: mutual
    // article links, memberships, and a one-edge category DAG.
    fn fresh_graph() -> KbGraph {
        let mut b = GraphBuilder::new();
        let a0 = b.add_article("A0");
        let a1 = b.add_article("A1");
        let a2 = b.add_article("A2");
        let a3 = b.add_article("A3");
        let c0 = b.add_category("C0");
        let c1 = b.add_category("C1");
        b.add_mutual_link(a0, a1);
        b.add_mutual_link(a0, a2);
        b.add_article_link(a2, a3);
        b.add_membership(a0, c0);
        b.add_membership(a1, c1);
        b.add_subcategory(c1, c0);
        b.build()
    }

    /// Reassembles `g` with one CSR slot replaced.
    /// Slots: 0 article_links, 1 article_links_rev, 4 subcats, 5 subcats_rev.
    fn with_part(g: &KbGraph, slot: usize, part: Csr) -> KbGraph {
        let titles_a: Vec<String> = g
            .articles()
            .map(|a| g.article_title(a).to_string())
            .collect();
        let titles_c: Vec<String> = g
            .categories()
            .map(|c| g.category_title(c).to_string())
            .collect();
        let mut parts = [
            g.article_links().clone(),
            g.article_links_rev().clone(),
            g.memberships().clone(),
            g.members().clone(),
            g.subcategories().clone(),
            g.subcats_rev().clone(),
        ];
        parts[slot] = part;
        let [al, alr, mem, mbr, sc, scr] = parts;
        // Deliberately unaudited: this helper manufactures *corrupt*
        // graphs so the selftest can prove the auditor flags them; every
        // caller runs GraphAudit on the result.
        // lint:allow(must-audit-after-mutation)
        KbGraph::from_parts(titles_a, titles_c, al, alr, mem, mbr, sc, scr)
    }

    fn graph_case(
        slot: usize,
        mutate: impl Fn(&mut Vec<u32>, &mut Vec<u32>),
        expect: impl Fn(&GraphViolation) -> bool,
    ) -> bool {
        let g = fresh_graph();
        let src = match slot {
            0 => g.article_links(),
            1 => g.article_links_rev(),
            4 => g.subcategories(),
            _ => g.subcats_rev(),
        };
        let mut offsets = src.offsets().to_vec();
        let mut targets = src.targets().to_vec();
        mutate(&mut offsets, &mut targets);
        let bad = with_part(&g, slot, Csr::from_raw_parts(offsets, targets));
        GraphAudit::run(&bad).violations().iter().any(expect)
    }

    fn fresh_index() -> Index {
        let mut b = IndexBuilder::new(Analyzer::plain());
        b.add_document("d0", "alpha beta alpha").expect("unique id");
        b.add_document("d1", "beta gamma").expect("unique id");
        b.build()
    }

    let mut results = Vec::new();

    results.push((
        "graph:swapped-offsets",
        graph_case(
            0,
            |offsets, _| offsets.swap(1, 2),
            |v| {
                matches!(
                    v,
                    GraphViolation::OffsetsNotMonotonic { .. }
                        | GraphViolation::OffsetsShape { .. }
                )
            },
        ),
    ));
    results.push((
        "graph:oob-target",
        graph_case(
            0,
            |_, targets| targets[0] = 99,
            |v| matches!(v, GraphViolation::TargetOutOfBounds { .. }),
        ),
    ));
    results.push((
        "graph:unsorted-row",
        graph_case(
            0,
            |_, targets| targets.swap(0, 1), // row 0 holds [a1, a2]
            |v| matches!(v, GraphViolation::RowNotStrictlySorted { .. }),
        ),
    ));
    results.push(("graph:dropped-reciprocal", {
        let g = fresh_graph();
        let rows = g.num_articles();
        let empty = Csr::from_raw_parts(vec![0; rows + 1], Vec::new());
        let bad = with_part(&g, 1, empty);
        GraphAudit::run(&bad)
            .violations()
            .iter()
            .any(|v| matches!(v, GraphViolation::MissingReciprocal { .. }))
    }));
    results.push(("graph:category-cycle", {
        let g = fresh_graph();
        // Two categories referencing each other: c0 → c1 and c1 → c0.
        let cycle = Csr::from_raw_parts(vec![0, 1, 2], vec![1, 0]);
        let bad = with_part(&with_part(&g, 4, cycle.clone()), 5, cycle);
        GraphAudit::run(&bad)
            .violations()
            .iter()
            .any(|v| matches!(v, GraphViolation::CategoryCycle { .. }))
    }));

    fn index_case(
        mutate: impl Fn(searchlite::index::IndexRawMut<'_>),
        expect: impl Fn(&IndexViolation) -> bool,
    ) -> bool {
        let mut idx = fresh_index();
        mutate(idx.raw_mut());
        IndexAudit::run(&idx).violations().iter().any(expect)
    }

    results.push((
        "index:unsorted-postings",
        index_case(
            |raw| {
                for p in raw.postings.iter_mut() {
                    let pr = p.raw_mut();
                    if pr.docs.len() >= 2 {
                        pr.docs.swap(0, 1);
                        break;
                    }
                }
            },
            |v| matches!(v, IndexViolation::PostingsNotSorted { .. }),
        ),
    ));
    results.push((
        "index:wrong-doc-len",
        index_case(
            |raw| raw.doc_lens[0] += 5,
            |v| matches!(v, IndexViolation::DocLenMismatch { .. }),
        ),
    ));
    results.push((
        "index:wrong-collection-len",
        index_case(
            |raw| *raw.collection_len += 7,
            |v| matches!(v, IndexViolation::CollectionLenMismatch { .. }),
        ),
    ));
    results.push((
        "index:duplicate-external-id",
        index_case(
            |raw| raw.external_ids[1] = raw.external_ids[0].clone(),
            |v| matches!(v, IndexViolation::DuplicateExternalId { .. }),
        ),
    ));

    results
}
