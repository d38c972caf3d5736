//! Lint rules, in two layers.
//!
//! **Token rules** ([`Rule`], registered in [`registry`]) walk the raw
//! token stream of one file — cheap pattern checks that need no structure.
//! **Ast rules** ([`AstRule`], registered in [`ast_registry`]) run once
//! over the whole parsed workspace ([`crate::symbols::WorkspaceModel`])
//! and its call graph ([`crate::callgraph::CallGraph`]), so they can
//! reason across files: panic reachability from hot-path entries,
//! hash-iteration determinism through struct fields, narrowing casts at
//! construction boundaries, and audit coverage after raw mutations. The
//! dataflow rules (lock ordering, guard hold duration, guard escape,
//! float taint) additionally run the CFG-based analyses in
//! [`crate::dataflow`] over every function body.
//!
//! `sqe-lint rules` prints [`rule_table`]. Suppression
//! (`// lint:allow(rule)`, `// lint:allow-file(rule)`) and severity
//! overrides are applied by the engine, not by the rules themselves.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::ast::Expr;
use crate::callgraph::{CallGraph, PanicKind};
use crate::dataflow;
use crate::diag::{Diagnostic, Severity};
use crate::lexer::{Tok, TokKind};
use crate::symbols::WorkspaceModel;

/// Per-file context shared by all rules.
pub struct FileCtx<'a> {
    /// Workspace-relative path, forward slashes.
    pub rel: &'a str,
    /// Code tokens only (comments stripped).
    pub code: Vec<&'a Tok>,
    /// First line of a `#[cfg(test)]` attribute, if any. Test modules sit
    /// at the end of files in this workspace, so everything at or after
    /// this line is treated as test code.
    pub cfg_test_line: Option<u32>,
}

impl<'a> FileCtx<'a> {
    /// Builds the context from a full token stream.
    pub fn new(rel: &'a str, toks: &'a [Tok]) -> Self {
        let code: Vec<&Tok> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        let mut cfg_test_line = None;
        for w in code.windows(7) {
            if w[0].is_punct('#')
                && w[1].is_punct('[')
                && w[2].is_ident("cfg")
                && w[3].is_punct('(')
                && w[4].is_ident("test")
                && w[5].is_punct(')')
                && w[6].is_punct(']')
            {
                cfg_test_line = Some(w[0].line);
                break;
            }
        }
        FileCtx {
            rel,
            code,
            cfg_test_line,
        }
    }

    /// True when `line` falls inside the file's trailing test module.
    fn in_tests(&self, line: u32) -> bool {
        self.cfg_test_line.is_some_and(|t| line >= t)
    }
}

/// A lint rule: a named check over one file's token stream.
pub trait Rule {
    /// Stable kebab-case rule name used in diagnostics, config, and
    /// `lint:allow(...)` comments.
    fn name(&self) -> &'static str;
    /// One-line description for `sqe-lint rules`.
    fn description(&self) -> &'static str;
    /// Severity when the config does not override it.
    fn default_severity(&self) -> Severity;
    /// Emits diagnostics for `ctx` at effective severity `sev`.
    fn check(&self, ctx: &FileCtx<'_>, sev: Severity, out: &mut Vec<Diagnostic>);
}

/// A workspace-level rule over the parsed model and call graph.
pub trait AstRule {
    /// Stable kebab-case rule name.
    fn name(&self) -> &'static str;
    /// One-line description for `sqe-lint rules`.
    fn description(&self) -> &'static str;
    /// Severity when the config does not override it.
    fn default_severity(&self) -> Severity;
    /// Emits diagnostics over the whole workspace at severity `sev`.
    fn check(
        &self,
        model: &WorkspaceModel,
        graph: &CallGraph,
        sev: Severity,
        out: &mut Vec<Diagnostic>,
    );
}

/// All registered token rules, in reporting order.
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NanUnsafeSort),
        Box::new(NondeterministicRng),
        Box::new(PanickingHotPath),
        Box::new(PersistTypesDeriveSerde),
    ]
}

/// All registered ast rules, in reporting order.
pub fn ast_registry() -> Vec<Box<dyn AstRule>> {
    vec![
        Box::new(PanicReachability),
        Box::new(HashIterationDeterminism),
        Box::new(LossyIdCast),
        Box::new(MustAuditAfterMutation),
        Box::new(LockOrderConsistency),
        Box::new(NoBlockingWhileLocked),
        Box::new(GuardEscape),
        Box::new(FloatTaintBeforeMerge),
        Box::new(UnguardedSharedField),
        Box::new(DeterminismTaintToOutput),
    ]
}

/// Analysis layer of a rule: `token` (lexical), `ast` (workspace
/// symbols/call graph), `flow` (intraprocedural CFG dataflow), or
/// `inter` (summary-based interprocedural).
fn layer_of(name: &str) -> &'static str {
    match name {
        "lock-order-consistency" | "float-taint-before-merge" => "flow",
        "no-blocking-while-locked"
        | "guard-escape"
        | "unguarded-shared-field"
        | "determinism-taint-to-output" => "inter",
        _ => "ast",
    }
}

/// `(name, description, default severity, layer)` for every rule, token
/// rules first — the source of truth for `sqe-lint rules`.
pub fn rule_table() -> Vec<(&'static str, &'static str, Severity, &'static str)> {
    let mut out: Vec<_> = registry()
        .iter()
        .map(|r| (r.name(), r.description(), r.default_severity(), "token"))
        .collect();
    out.extend(ast_registry().iter().map(|r| {
        (
            r.name(),
            r.description(),
            r.default_severity(),
            layer_of(r.name()),
        )
    }));
    out
}

/// Everything `sqe-lint explain <rule>` prints about one rule.
pub struct Explanation {
    /// Stable kebab-case rule name.
    pub name: &'static str,
    /// Analysis layer (token/ast/flow/inter).
    pub layer: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line description (same as `sqe-lint rules`).
    pub summary: &'static str,
    /// Why the rule exists in *this* codebase.
    pub rationale: &'static str,
    /// `(bad, good)` fixture stems under `crates/analyzer/tests/fixtures/`.
    pub fixture: Option<&'static str>,
}

/// Full explanation of a rule by name, or `None` if unknown.
pub fn explanation(name: &str) -> Option<Explanation> {
    let (rationale, fixture): (&'static str, Option<&'static str>) = match name {
        "no-nan-unsafe-sort" => (
            "Ranking ties are broken by score comparisons; `partial_cmp` on floats \
             panics or misorders on NaN. The scorecmp crate provides NaN-safe \
             total-order comparators — every sort over scores must use them so run \
             files are reproducible.",
            Some("nan_sort"),
        ),
        "no-nondeterministic-rng" => (
            "Unseeded RNGs make experiment runs unreproducible. Every stochastic \
             choice must flow from an explicit seed recorded with the run.",
            Some("rng"),
        ),
        "no-panicking-hot-path" => (
            "Files on the query serving path must not contain bare `unwrap`/panics; \
             a poisoned worker deadlocks the executor. Use `expect(\"invariant: ..\")` \
             naming the violated invariant, or handle the case.",
            Some("hot_path"),
        ),
        "persist-types-derive-serde" => (
            "Types written to disk must round-trip; a missing derive turns a \
             snapshot into a one-way artifact.",
            Some("persist"),
        ),
        "panic-reachability" => (
            "A panic N calls below `topk`/`ql`/`bm25` is still a serving panic. The \
             call graph is walked from every hot-path entry; the invariant-expect \
             allowlist and assert-guarded indexing keep intentional checks legal.",
            Some("panic_reach"),
        ),
        "hash-iteration-determinism" => (
            "HashMap/HashSet iteration order varies across runs and platforms; \
             feeding it into an ordered sink (Vec, String, writer) makes run files \
             irreproducible. Sort with a total order or use BTree containers.",
            Some("hash_iter"),
        ),
        "lossy-id-cast" => (
            "`as u32`-style casts silently truncate doc/node ids at scale \
             boundaries; constructors must use `try_from` with an invariant expect.",
            Some("lossy_cast"),
        ),
        "must-audit-after-mutation" => (
            "Raw constructors (`from_raw_parts`, `from_parts`, `.build()` in \
             seal/merge) bypass the incremental invariants; every such site must be \
             followed by a GraphAudit/IndexAudit before the structure is served.",
            Some("audit_mutation"),
        ),
        "lock-order-consistency" => (
            "Two functions taking the same pair of locks in opposite orders can \
             deadlock under concurrency. The workspace fixes one global order \
             (maint -> live -> view); every acquisition pair is checked against \
             every other.",
            Some("lock_order"),
        ),
        "no-blocking-while-locked" => (
            "A lock held across a segment build, snapshot codec, or file I/O makes \
             that work the latency floor of every reader. The interprocedural \
             summaries propagate may-block bottom-up over the call graph, so \
             blocking buried N calls deep under a guard is still found; do the \
             slow work outside and swap results in under the lock (as split-phase \
             seal does). The maint mutex is allowlisted — serializing slow \
             maintenance is its purpose.",
            Some("lock_blocking"),
        ),
        "guard-escape" => (
            "A guard that outlives its acquiring function makes the critical \
             section unbounded and invisible at the acquisition site. Returns, \
             field stores, and (transitively) handing the guard to a callee whose \
             parameter escapes into a field are all flagged; the audited exception \
             is an explicit `-> ..Guard<..>` accessor.",
            Some("guard_escape"),
        ),
        "float-taint-before-merge" => (
            "Segmented corpus statistics must merge as exact integers or ranking \
             becomes partition-dependent. Float conversion belongs after the merge, \
             in scoring accessors.",
            Some("float_taint"),
        ),
        "unguarded-shared-field" => (
            "Lockset-style race detector: for each struct owning locks and plain \
             fields, the lock held at >=75% of all workspace accesses of a field \
             (minimum two) is inferred as its guard; any access without it is a \
             candidate data race. Lock context flows down the call graph — the \
             intersection of locks held at every call site is a function's entry \
             context — so helpers called only under the lock count as guarded, and \
             a local-only analysis could neither infer the guard nor flag the \
             stray access.",
            Some("unguarded_field"),
        ),
        "determinism-taint-to-output" => (
            "Run files, snapshots, and BENCH json must be byte-reproducible — the \
             whole experimental protocol rests on it. Taint sources (hash-container \
             iteration order, thread ids, wall-clock time, float accumulation over \
             hash order) flow through function summaries (return taint + forwarded \
             parameters), so a nondeterministic value laundered through helper \
             functions is still caught at the writer. Sort into a total order, use \
             BTree containers, or inject the clock.",
            Some("taint_output"),
        ),
        _ => return None,
    };
    let (name, summary, severity, layer) = rule_table().into_iter().find(|(n, ..)| *n == name)?;
    Some(Explanation {
        name,
        layer,
        severity,
        summary,
        rationale,
        fixture,
    })
}

/// Index of the code token closing the paren group opened at `open`
/// (which must be `(`), or `None` if unbalanced.
fn matching_paren(code: &[&Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in code.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// `no-nan-unsafe-sort`: comparator closures passed to sort-family
/// functions must not rank floats with `partial_cmp`, which is not a total
/// order (NaN compares `None` and silently collapses to `Equal` in the
/// usual `unwrap_or` idiom, corrupting ranking determinism). Use the
/// shared `scorecmp` helpers or `f64::total_cmp`.
pub struct NanUnsafeSort;

/// Sort-family methods whose closure argument is a comparator.
const SORT_FNS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "min_by",
    "max_by",
    "binary_search_by",
];

impl Rule for NanUnsafeSort {
    fn name(&self) -> &'static str {
        "no-nan-unsafe-sort"
    }

    fn description(&self) -> &'static str {
        "comparators passed to sort_by/min_by/max_by must use scorecmp or total_cmp, not partial_cmp"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, ctx: &FileCtx<'_>, sev: Severity, out: &mut Vec<Diagnostic>) {
        let code = &ctx.code;
        for i in 0..code.len() {
            let t = code[i];
            if t.kind != TokKind::Ident || !SORT_FNS.contains(&t.text.as_str()) {
                continue;
            }
            if i + 1 >= code.len() || !code[i + 1].is_punct('(') {
                continue;
            }
            let Some(close) = matching_paren(code, i + 1) else {
                continue;
            };
            for arg in &code[i + 2..close] {
                if arg.is_ident("partial_cmp") {
                    out.push(Diagnostic {
                        rule: self.name(),
                        severity: sev,
                        path: ctx.rel.to_string(),
                        line: arg.line,
                        message: format!(
                            "`partial_cmp` inside a `{}` comparator is not a total order \
                             over floats; use `scorecmp::cmp_scores`/`by_score_desc_then_id` \
                             or `f64::total_cmp`",
                            t.text
                        ),
                    });
                }
            }
        }
    }
}

/// `no-nondeterministic-rng`: experiment code must stay reproducible.
/// `thread_rng` (OS-seeded) and `SystemTime::now` (wall clock) are banned
/// outside `benches/` and test modules; seed explicitly instead.
pub struct NondeterministicRng;

impl Rule for NondeterministicRng {
    fn name(&self) -> &'static str {
        "no-nondeterministic-rng"
    }

    fn description(&self) -> &'static str {
        "thread_rng/SystemTime::now are banned outside benches; seed RNGs explicitly"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, ctx: &FileCtx<'_>, sev: Severity, out: &mut Vec<Diagnostic>) {
        if ctx.rel.starts_with("benches/") || ctx.rel.contains("/benches/") {
            return;
        }
        let code = &ctx.code;
        for i in 0..code.len() {
            let t = code[i];
            if ctx.in_tests(t.line) {
                continue;
            }
            if t.is_ident("thread_rng") {
                out.push(Diagnostic {
                    rule: self.name(),
                    severity: sev,
                    path: ctx.rel.to_string(),
                    line: t.line,
                    message: "`thread_rng` is OS-seeded and breaks run-to-run \
                              reproducibility; construct a seeded RNG instead"
                        .to_string(),
                });
            }
            // `SystemTime :: now`
            if t.is_ident("SystemTime")
                && i + 3 < code.len()
                && code[i + 1].is_punct(':')
                && code[i + 2].is_punct(':')
                && code[i + 3].is_ident("now")
            {
                out.push(Diagnostic {
                    rule: self.name(),
                    severity: sev,
                    path: ctx.rel.to_string(),
                    line: t.line,
                    message: "`SystemTime::now` injects wall-clock nondeterminism; \
                              thread timing state through explicitly"
                        .to_string(),
                });
            }
        }
    }
}

/// `no-panicking-hot-path`: inner-loop files must not contain `.unwrap()`
/// (use `expect` with a message naming the violated invariant, or handle
/// the case). Bare slice indexing in the same files is reported one
/// severity step lower, since bounds are often locally provable.
pub struct PanickingHotPath;

/// Files on the query/expansion hot path.
const HOT_FILES: &[&str] = &[
    "crates/kbgraph/src/csr.rs",
    "crates/searchlite/src/topk.rs",
    "crates/searchlite/src/ql.rs",
    "crates/searchlite/src/index.rs",
    "crates/searchlite/src/ingest.rs",
    "crates/searchlite/src/searcher.rs",
    "crates/searchlite/src/segment.rs",
    "crates/searchlite/src/shard.rs",
    "crates/core/src/motif.rs",
    "crates/core/src/spec.rs",
    "crates/core/src/cache.rs",
    "crates/core/src/serve.rs",
    "crates/admission/src/controller.rs",
    "crates/admission/src/deadline.rs",
    "crates/admission/src/ladder.rs",
    "crates/admission/src/outcome.rs",
    "crates/store/src/buf.rs",
    "crates/store/src/codec.rs",
    "crates/store/src/crc32.rs",
    "crates/store/src/error.rs",
    "crates/store/src/format.rs",
    "crates/store/src/lib.rs",
    "crates/store/src/snapshot.rs",
];

/// Keywords that may directly precede an array *literal* `[...]`, which is
/// not indexing.
const PRE_LITERAL_KEYWORDS: &[&str] = &[
    "return", "break", "in", "if", "while", "match", "else", "let", "mut", "ref", "move", "as",
    "box", "yield",
];

impl Rule for PanickingHotPath {
    fn name(&self) -> &'static str {
        "no-panicking-hot-path"
    }

    fn description(&self) -> &'static str {
        "unwrap() (and, at demoted severity, slice indexing) is banned in hot-path files"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, ctx: &FileCtx<'_>, sev: Severity, out: &mut Vec<Diagnostic>) {
        if !HOT_FILES.contains(&ctx.rel) {
            return;
        }
        let code = &ctx.code;
        for i in 0..code.len() {
            let t = code[i];
            if ctx.in_tests(t.line) {
                continue;
            }
            // `. unwrap ( )`
            if t.is_punct('.')
                && i + 3 < code.len()
                && code[i + 1].is_ident("unwrap")
                && code[i + 2].is_punct('(')
                && code[i + 3].is_punct(')')
            {
                out.push(Diagnostic {
                    rule: self.name(),
                    severity: sev,
                    path: ctx.rel.to_string(),
                    line: code[i + 1].line,
                    message: "`.unwrap()` on the query hot path panics without context; \
                              use `expect(\"invariant: ...\")` naming the violated \
                              invariant, or handle the case"
                        .to_string(),
                });
            }
            // Expression-position `[`: previous code token is an identifier
            // (not a keyword that starts an array literal) or a closing
            // bracket. Attribute `#[...]`, types `&[T]`/`: [T; N]`, and
            // `vec![...]` are excluded by their preceding token.
            if t.is_punct('[') && i > 0 {
                let prev = code[i - 1];
                let indexing = match prev.kind {
                    TokKind::Ident => {
                        !PRE_LITERAL_KEYWORDS.contains(&prev.text.as_str())
                            && !prev.text.starts_with('\'')
                    }
                    TokKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
                    _ => false,
                };
                let demoted = sev.demoted();
                if indexing && demoted > Severity::Allow {
                    out.push(Diagnostic {
                        rule: self.name(),
                        severity: demoted,
                        path: ctx.rel.to_string(),
                        line: t.line,
                        message: "bare slice indexing on the hot path can panic; prefer \
                                  `get`, iterators, or a comment-proved bound"
                            .to_string(),
                    });
                }
            }
        }
    }
}

/// `persist-types-derive-serde`: types in persisted-state files (the CSR
/// graph and the inverted index) must derive `Serialize` and
/// `Deserialize` so persistence cannot silently lose fields. No
/// persistence path reads the derives: `sqe-store` encodes these types
/// section by section. Transient helpers opt out with
/// `// lint:allow(persist-types-derive-serde)`.
pub struct PersistTypesDeriveSerde;

/// Files holding persisted state.
const PERSIST_FILES: &[&str] = &[
    "crates/kbgraph/src/csr.rs",
    "crates/kbgraph/src/graph.rs",
    "crates/searchlite/src/index.rs",
];

impl Rule for PersistTypesDeriveSerde {
    fn name(&self) -> &'static str {
        "persist-types-derive-serde"
    }

    fn description(&self) -> &'static str {
        "top-level types in persisted-state files must derive Serialize and Deserialize"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, ctx: &FileCtx<'_>, sev: Severity, out: &mut Vec<Diagnostic>) {
        if !PERSIST_FILES.contains(&ctx.rel) {
            return;
        }
        let code = &ctx.code;
        let mut depth = 0i32;
        let mut pending_derives: Vec<String> = Vec::new();
        let mut i = 0usize;
        while i < code.len() {
            let t = code[i];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    pending_derives.clear();
                }
            } else if depth == 0 {
                if t.is_punct(';') {
                    pending_derives.clear();
                } else if t.is_punct('#') && i + 1 < code.len() && code[i + 1].is_punct('[') {
                    // Attribute: collect idents; record derive contents.
                    let mut brackets = 0i32;
                    let mut idents = Vec::new();
                    let mut j = i + 1;
                    while j < code.len() {
                        if code[j].is_punct('[') {
                            brackets += 1;
                        } else if code[j].is_punct(']') {
                            brackets -= 1;
                            if brackets == 0 {
                                break;
                            }
                        } else if code[j].kind == TokKind::Ident {
                            idents.push(code[j].text.clone());
                        }
                        j += 1;
                    }
                    if idents.first().is_some_and(|f| f == "derive") {
                        pending_derives.extend(idents.into_iter().skip(1));
                    }
                    i = j + 1;
                    continue;
                } else if (t.is_ident("struct") || t.is_ident("enum"))
                    && i + 1 < code.len()
                    && code[i + 1].kind == TokKind::Ident
                {
                    let name = &code[i + 1].text;
                    let has = |d: &str| pending_derives.iter().any(|p| p == d);
                    if !has("Serialize") || !has("Deserialize") {
                        out.push(Diagnostic {
                            rule: self.name(),
                            severity: sev,
                            path: ctx.rel.to_string(),
                            line: t.line,
                            message: format!(
                                "`{name}` lives in a persisted-state file but does not \
                                 derive both Serialize and Deserialize; derive them or \
                                 mark the type transient with lint:allow"
                            ),
                        });
                    }
                    pending_derives.clear();
                }
            }
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Ast rules (workspace-level)
// ---------------------------------------------------------------------------

/// `panic-reachability`: no panic source may be transitively reachable
/// from a hot-path entry point. Entries are every non-test function in the
/// query-scoring and serving files (`topk.rs`, `ql.rs`, `bm25.rs`,
/// `motif.rs`, `cache.rs`, `serve.rs`) plus
/// `Csr::neighbors`. Panic sources are `.unwrap()`, `.expect(..)` whose
/// message does not name an invariant, the panicking macros, and (one
/// severity step lower) bare indexing with no covering assert.
pub struct PanicReachability;

/// Files whose non-test functions are hot-path entry points.
const ENTRY_FILES: &[&str] = &[
    "crates/searchlite/src/topk.rs",
    "crates/searchlite/src/ql.rs",
    "crates/searchlite/src/bm25.rs",
    "crates/searchlite/src/searcher.rs",
    "crates/searchlite/src/shard.rs",
    "crates/core/src/motif.rs",
    "crates/core/src/spec.rs",
    "crates/core/src/cache.rs",
    "crates/core/src/serve.rs",
    "crates/admission/src/controller.rs",
    "crates/admission/src/deadline.rs",
    "crates/admission/src/ladder.rs",
    "crates/admission/src/outcome.rs",
    "crates/store/src/buf.rs",
    "crates/store/src/codec.rs",
    "crates/store/src/crc32.rs",
    "crates/store/src/error.rs",
    "crates/store/src/format.rs",
    "crates/store/src/lib.rs",
    "crates/store/src/snapshot.rs",
];

impl AstRule for PanicReachability {
    fn name(&self) -> &'static str {
        "panic-reachability"
    }

    fn description(&self) -> &'static str {
        "no unwrap/expect/panic!/unguarded indexing reachable from hot-path entries (topk, ql, bm25, motif, Csr::neighbors)"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(
        &self,
        _model: &WorkspaceModel,
        graph: &CallGraph,
        sev: Severity,
        out: &mut Vec<Diagnostic>,
    ) {
        let entries: Vec<usize> = graph
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                !n.is_test && (ENTRY_FILES.contains(&n.file.as_str()) || n.qual == "Csr::neighbors")
            })
            .map(|(i, _)| i)
            .collect();
        let parent = graph.reachable_from(&entries);
        for (i, node) in graph.nodes.iter().enumerate() {
            if node.is_test || parent[i].is_none() || node.panics.is_empty() {
                continue;
            }
            let trace = graph.trace(&parent, i).join(" -> ");
            for site in &node.panics {
                let (eff, what) = match &site.kind {
                    PanicKind::Unwrap => (sev, "`.unwrap()`".to_string()),
                    PanicKind::NonInvariantExpect => (
                        sev,
                        "`.expect(..)` without an invariant-naming message".to_string(),
                    ),
                    PanicKind::PanicMacro(m) => (sev, format!("`{m}!`")),
                    PanicKind::Indexing => (sev.demoted(), "bare indexing".to_string()),
                };
                if eff == Severity::Allow {
                    continue;
                }
                out.push(Diagnostic {
                    rule: self.name(),
                    severity: eff,
                    path: node.file.clone(),
                    line: site.line,
                    message: format!(
                        "{what} in `{}` is reachable from a hot-path entry ({trace}); \
                         handle the case or use `expect(\"invariant: ...\")` naming the \
                         violated invariant",
                        node.qual
                    ),
                });
            }
        }
    }
}

/// `hash-iteration-determinism`: iterating a `HashMap`/`HashSet` (or the
/// Fx variants) in arbitrary order must not feed an order-sensitive sink —
/// a collected `Vec`/`String`, pushes inside the loop body, or writer
/// macros — unless a total-order sort is applied in the same function.
pub struct HashIterationDeterminism;

use crate::dataflow::{is_hash_ty, HASH_ITER_METHODS};

/// Splits a method chain into `(methods outermost-first, base expr)`.
fn chain_parts(mut e: &Expr) -> (Vec<&str>, &Expr) {
    let mut methods = Vec::new();
    loop {
        match e {
            Expr::MethodCall { recv, method, .. } => {
                methods.push(method.as_str());
                e = recv;
            }
            _ => return (methods, e),
        }
    }
}

/// True when `e` *is* a hash container: a binding from `roots` or a
/// `self.field` whose declared type is a hash container.
fn base_is_hash(
    e: &Expr,
    roots: &BTreeSet<String>,
    model: &WorkspaceModel,
    impl_ty: Option<&str>,
) -> bool {
    match e {
        Expr::Path { segs, .. } if segs.len() == 1 => roots.contains(&segs[0]),
        Expr::Field { recv, name, .. } => {
            matches!(
                recv.as_ref(),
                Expr::Path { segs, .. } if segs.len() == 1 && segs[0] == "self"
            ) && impl_ty
                .and_then(|t| model.field_type(t, name))
                .is_some_and(is_hash_ty)
        }
        _ => false,
    }
}

/// True when any node of `e` is a hash container reference.
fn subtree_touches_hash(
    e: &Expr,
    roots: &BTreeSet<String>,
    model: &WorkspaceModel,
    impl_ty: Option<&str>,
) -> bool {
    let mut found = false;
    e.walk(&mut |n| {
        if base_is_hash(n, roots, model, impl_ty) {
            found = true;
        }
    });
    found
}

impl HashIterationDeterminism {
    /// Checks one `collect` chain. `dest_ty` is the binding's ascribed
    /// type when known. Returns true when the chain linearizes hash
    /// iteration order into a Vec/String.
    fn collect_is_bad(
        collect_node: &Expr,
        dest_ty: Option<&str>,
        roots: &BTreeSet<String>,
        model: &WorkspaceModel,
        impl_ty: Option<&str>,
    ) -> bool {
        let Expr::MethodCall {
            recv, turbofish, ..
        } = collect_node
        else {
            return false;
        };
        let (methods, base) = chain_parts(recv);
        if !methods.iter().any(|m| HASH_ITER_METHODS.contains(m)) {
            return false;
        }
        if !base_is_hash(base, roots, model, impl_ty) {
            return false;
        }
        // Only flag when the destination is demonstrably order-sensitive:
        // collecting back into a map/set (or a BTree) is order-free.
        let target = if !turbofish.is_empty() {
            turbofish.as_str()
        } else {
            dest_ty.unwrap_or("")
        };
        target.contains("Vec") || target.contains("String")
    }
}

impl AstRule for HashIterationDeterminism {
    fn name(&self) -> &'static str {
        "hash-iteration-determinism"
    }

    fn description(&self) -> &'static str {
        "HashMap/HashSet iteration must not feed ordered output without a total-order sort; use BTreeMap or sort (scorecmp)"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(
        &self,
        model: &WorkspaceModel,
        _graph: &CallGraph,
        sev: Severity,
        out: &mut Vec<Diagnostic>,
    ) {
        model.for_each_fn(&mut |file, impl_ty, is_test, def| {
            if is_test {
                return;
            }
            let Some(body) = &def.body else { return };
            // Pass 1: hash-typed bindings and sorted destinations.
            let mut roots: BTreeSet<String> = def
                .params
                .iter()
                .filter(|(_, t)| is_hash_ty(t))
                .map(|(n, _)| n.clone())
                .collect();
            let mut sorted: BTreeSet<String> = BTreeSet::new();
            for s in &body.stmts {
                s.walk(&mut |e| match e {
                    Expr::Let {
                        name: Some(n),
                        ty,
                        init,
                        ..
                    } => {
                        let hashy = ty.as_deref().is_some_and(is_hash_ty)
                            || (ty.is_none()
                                && init.as_deref().is_some_and(|i| is_hash_ty(&i.text())));
                        if hashy {
                            roots.insert(n.clone());
                        }
                    }
                    Expr::MethodCall { recv, method, .. } if method.starts_with("sort") => {
                        sorted.insert(recv.text());
                    }
                    _ => {}
                });
            }
            // Pass 2: order-sensitive sinks fed by hash iteration.
            let mut flagged: BTreeSet<u32> = BTreeSet::new();
            let mut handled_collects: BTreeSet<u32> = BTreeSet::new();
            let mut flag = |line: u32, what: &str, out: &mut Vec<Diagnostic>| {
                if flagged.insert(line) {
                    out.push(Diagnostic {
                        rule: "hash-iteration-determinism",
                        severity: sev,
                        path: file.rel.to_string(),
                        line,
                        message: format!(
                            "{what} in `{}` depends on hash-iteration order; switch the \
                             container to BTreeMap/BTreeSet or apply a total-order sort \
                             (scorecmp for float keys) before emitting",
                            def.name
                        ),
                    });
                }
            };
            for s in &body.stmts {
                s.walk(&mut |e| match e {
                    Expr::For {
                        iter, body, line, ..
                    } => {
                        if !subtree_touches_hash(iter, &roots, model, impl_ty) {
                            return;
                        }
                        let mut sink = false;
                        for bs in &body.stmts {
                            bs.walk(&mut |b| match b {
                                Expr::MethodCall { recv, method, .. }
                                    if (method == "push" || method == "push_str")
                                        && !sorted.contains(&recv.text()) =>
                                {
                                    sink = true;
                                }
                                Expr::Macro { name, .. }
                                    if name.ends_with("write") || name.ends_with("writeln") =>
                                {
                                    sink = true;
                                }
                                _ => {}
                            });
                        }
                        if sink {
                            flag(*line, "a `for` loop over a hash container", out);
                        }
                    }
                    Expr::Let {
                        name,
                        init: Some(i),
                        ty,
                        ..
                    } => {
                        i.walk(&mut |n| {
                            if let Expr::MethodCall { method, line, .. } = n {
                                if method == "collect" {
                                    handled_collects.insert(*line);
                                    let sorted_later =
                                        name.as_deref().is_some_and(|b| sorted.contains(b));
                                    if !sorted_later
                                        && Self::collect_is_bad(
                                            n,
                                            ty.as_deref(),
                                            &roots,
                                            model,
                                            impl_ty,
                                        )
                                    {
                                        flag(*line, "`collect()` from hash iteration", out);
                                    }
                                }
                            }
                        });
                    }
                    Expr::MethodCall { method, line, .. }
                        if method == "collect"
                            && !handled_collects.contains(line)
                            && Self::collect_is_bad(e, None, &roots, model, impl_ty) =>
                    {
                        flag(*line, "`collect()` from hash iteration", out);
                    }
                    Expr::MethodCall {
                        recv,
                        method,
                        args,
                        line,
                        ..
                    } if method == "extend"
                        && args
                            .iter()
                            .any(|a| subtree_touches_hash(a, &roots, model, impl_ty))
                        && !sorted.contains(&recv.text()) =>
                    {
                        flag(*line, "`extend(..)` from hash iteration", out);
                    }
                    _ => {}
                });
            }
        });
    }
}

/// `lossy-id-cast`: `as u8`/`u16`/`u32` on id-, offset-, or length-valued
/// expressions silently truncates once the graph or index outgrows the
/// target width. In the persisted-structure crates these casts must go
/// through `try_from` with an invariant-naming `expect`, or be dominated
/// by an assert on the same operand.
pub struct LossyIdCast;

/// Path prefixes (and one file) in scope for `lossy-id-cast`.
const CAST_SCOPE: &[&str] = &["crates/kbgraph/", "crates/searchlite/"];

/// Narrowing cast targets worth guarding.
const NARROW_TYPES: &[&str] = &["u8", "u16", "u32"];

/// True for identifiers that carry id/offset/position/count semantics.
fn idish(s: &str) -> bool {
    let s = s.to_ascii_lowercase();
    s == "id"
        || s.ends_with("id")
        || s.ends_with("ids")
        || s.starts_with("id")
        || s.contains("offset")
        || s.starts_with("pos")
        || s.contains("count")
}

impl AstRule for LossyIdCast {
    fn name(&self) -> &'static str {
        "lossy-id-cast"
    }

    fn description(&self) -> &'static str {
        "as u32/u16/u8 on id/offset/len expressions in kbgraph/searchlite/persist must be try_from or assert-dominated"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(
        &self,
        model: &WorkspaceModel,
        _graph: &CallGraph,
        sev: Severity,
        out: &mut Vec<Diagnostic>,
    ) {
        model.for_each_fn(&mut |file, _impl_ty, is_test, def| {
            let in_scope = CAST_SCOPE.iter().any(|p| file.rel.starts_with(p))
                || file.rel == "crates/synthwiki/src/persist.rs";
            if !in_scope || is_test {
                return;
            }
            let Some(body) = &def.body else { return };
            // Asserts anywhere in the function dominate (this analysis has
            // no real control-flow ordering; an assert on the operand is
            // taken as the author proving the bound).
            let mut guard_text = String::new();
            for s in &body.stmts {
                s.walk(&mut |e| {
                    if let Expr::Macro { name, inner, .. } = e {
                        let base = name.rsplit("::").next().unwrap_or(name);
                        if base.starts_with("assert") || base.starts_with("debug_assert") {
                            for i in inner {
                                guard_text.push_str(&i.text());
                                guard_text.push(' ');
                            }
                        }
                    }
                });
            }
            for s in &body.stmts {
                s.walk(&mut |e| {
                    let Expr::Cast { expr, ty, line } = e else {
                        return;
                    };
                    if !NARROW_TYPES.contains(&ty.trim()) {
                        return;
                    }
                    // Trigger only on id/offset/len-valued operands.
                    let mut risky = false;
                    expr.walk(&mut |n| match n {
                        Expr::MethodCall { method, .. } if method == "len" => risky = true,
                        Expr::Path { segs, .. } if segs.iter().any(|s| idish(s)) => risky = true,
                        Expr::Field { name, .. } if idish(name) => risky = true,
                        _ => {}
                    });
                    if !risky {
                        return;
                    }
                    if expr
                        .root_ident()
                        .is_some_and(|root| guard_text.contains(root))
                    {
                        return;
                    }
                    out.push(Diagnostic {
                        rule: self.name(),
                        severity: sev,
                        path: file.rel.to_string(),
                        line: *line,
                        message: format!(
                            "narrowing cast `{} as {}` in `{}` can silently truncate \
                             ids/offsets; use `{}::try_from(..).expect(\"invariant: ...\")` \
                             or assert the bound on the operand first",
                            expr.text(),
                            ty.trim(),
                            def.name,
                            ty.trim()
                        ),
                    });
                });
            }
        });
    }
}

/// `must-audit-after-mutation`: `Index::raw_mut`, `*::from_raw_parts` and
/// `*::from_parts` bypass checked constructors, so any non-test function
/// using them must also invoke a structural audit
/// (`GraphAudit`/`IndexAudit`/`audit*`) before returning the mutated
/// structure to the rest of the system. This covers snapshot decoding: a
/// loader that reassembles a graph or index from raw section bytes and
/// skips the audit is a lint error, not a code-review judgement call.
///
/// Segment lifecycle functions get the same treatment: inside a function
/// named `seal` or `merge` (or `seal_*`/`merge_*`), a `build` call —
/// `.build()` or a typed `T::build(..)` — freezes buffered documents
/// into an immutable segment that the rest of the system will trust
/// forever, so the function must audit what it built.
pub struct MustAuditAfterMutation;

impl AstRule for MustAuditAfterMutation {
    fn name(&self) -> &'static str {
        "must-audit-after-mutation"
    }

    fn description(&self) -> &'static str {
        "non-test callers of raw_mut/from_raw_parts/from_parts (and build calls inside seal/merge) must run a structural audit in the same function"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(
        &self,
        model: &WorkspaceModel,
        _graph: &CallGraph,
        sev: Severity,
        out: &mut Vec<Diagnostic>,
    ) {
        model.for_each_fn(&mut |file, _impl_ty, is_test, def| {
            if is_test
                || def.name == "raw_mut"
                || def.name == "from_raw_parts"
                || def.name == "from_parts"
            {
                return;
            }
            let Some(body) = &def.body else { return };
            // Sealing or merging freezes buffered state into an immutable
            // segment, so `.build()` there is a mutation site too.
            let seals_segment = ["seal", "merge"].iter().any(|op| {
                def.name
                    .strip_prefix(op)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('_'))
            });
            let mut sites: Vec<(u32, &'static str)> = Vec::new();
            let mut has_audit = false;
            for s in &body.stmts {
                s.walk(&mut |e| match e {
                    Expr::MethodCall { method, line, .. } => {
                        if method == "raw_mut" {
                            sites.push((*line, "raw_mut"));
                        } else if seals_segment && method == "build" {
                            sites.push((*line, "build"));
                        } else if method.to_ascii_lowercase().contains("audit") {
                            has_audit = true;
                        }
                    }
                    Expr::Call { callee, line, .. } => {
                        if let Expr::Path { segs, .. } = callee.as_ref() {
                            if segs.last().is_some_and(|s| s == "from_raw_parts") {
                                sites.push((*line, "from_raw_parts"));
                            } else if segs.last().is_some_and(|s| s == "from_parts") {
                                sites.push((*line, "from_parts"));
                            } else if seals_segment
                                && segs.len() > 1
                                && segs.last().is_some_and(|s| s == "build")
                            {
                                sites.push((*line, "build"));
                            }
                        }
                    }
                    Expr::Path { segs, .. }
                        if segs
                            .iter()
                            .any(|s| s.to_ascii_lowercase().contains("audit")) =>
                    {
                        has_audit = true;
                    }
                    Expr::Macro { name, .. } if name.to_ascii_lowercase().contains("audit") => {
                        has_audit = true;
                    }
                    _ => {}
                });
            }
            if has_audit {
                return;
            }
            for (line, which) in sites {
                out.push(Diagnostic {
                    rule: self.name(),
                    severity: sev,
                    path: file.rel.to_string(),
                    line,
                    message: format!(
                        "`{which}` in `{}` mutates raw graph/index state with no structural \
                         audit in the same function; run GraphAudit/IndexAudit on the result \
                         or construct through a checked constructor",
                        def.name
                    ),
                });
            }
        });
    }
}

/// `lock-order-consistency`: every pair of locks must be acquired in one
/// global order. Built on [`crate::dataflow::lock_model`]: each function
/// contributes (held → acquired) pairs from the CFG held-set fixpoint;
/// two functions acquiring the same two locks in opposite orders is a
/// deadlock waiting for the right interleaving.
pub struct LockOrderConsistency;

/// One function's first acquisition of a lock pair: `(fn display name,
/// workspace-relative file, line)`.
type LockSite = (String, String, u32);

impl AstRule for LockOrderConsistency {
    fn name(&self) -> &'static str {
        "lock-order-consistency"
    }

    fn description(&self) -> &'static str {
        "two locks must be acquired in the same order everywhere; opposite-order pairs across functions can deadlock"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(
        &self,
        model: &WorkspaceModel,
        _graph: &CallGraph,
        sev: Severity,
        out: &mut Vec<Diagnostic>,
    ) {
        let lm = dataflow::lock_model(model);
        // (held, acquired) → first acquisition site per function.
        let mut edges: BTreeMap<(String, String), Vec<LockSite>> = BTreeMap::new();
        for f in &lm.fns {
            if f.is_test {
                continue;
            }
            for p in &f.order_pairs {
                let sites = edges
                    .entry((p.held.clone(), p.acquired.clone()))
                    .or_default();
                if !sites.iter().any(|(q, _, _)| *q == f.qual) {
                    sites.push((f.qual.clone(), f.file.clone(), p.line));
                }
            }
        }
        for ((a, b), sites) in &edges {
            let Some(reverse) = edges.get(&(b.clone(), a.clone())) else {
                continue;
            };
            // Both orders exist: flag every function on this side; the
            // (b, a) iteration flags the other side.
            let (rq, rf, rl) = &reverse[0];
            for (qual, file, line) in sites {
                out.push(Diagnostic {
                    rule: self.name(),
                    severity: sev,
                    path: file.clone(),
                    line: *line,
                    message: format!(
                        "`{qual}` acquires `{b}` while holding `{a}`, but `{rq}` \
                         ({rf}:{rl}) acquires them in the opposite order; pick one \
                         global lock order and stick to it"
                    ),
                });
            }
        }
    }
}

use crate::summaries::{is_expensive_name, Summaries};

/// Locks that exist to serialize slow maintenance work; holding them
/// across expensive calls is their whole purpose.
const ALLOWED_SLOW_LOCKS: &[&str] = &["maint"];

/// `no-blocking-while-locked`: a guard live-range (from the CFG held-set
/// analysis) must not span a call that reaches expensive work through
/// the call graph. Transitive: the may-block fact comes from the
/// interprocedural summaries ([`crate::summaries`]), so blocking buried
/// N calls deep is found, and the message names the chain. The service's
/// lock-held windows are the latency floor of every concurrent query;
/// sealing or file I/O belongs outside them.
pub struct NoBlockingWhileLocked;

impl AstRule for NoBlockingWhileLocked {
    fn name(&self) -> &'static str {
        "no-blocking-while-locked"
    }

    fn description(&self) -> &'static str {
        "no segment build/merge, snapshot codec, or file I/O while holding a lock guard; narrow the critical section"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(
        &self,
        model: &WorkspaceModel,
        graph: &CallGraph,
        sev: Severity,
        out: &mut Vec<Diagnostic>,
    ) {
        // The may-block fact is interprocedural: summaries carry it
        // bottom-up over the call graph (SCC fixpoint), with the chain
        // of workspace hops to the expensive work.
        let sums = Summaries::build(model, graph);
        let lm = dataflow::lock_model(model);
        let mut seen: BTreeSet<(String, u32, String, String)> = BTreeSet::new();
        for f in &lm.fns {
            if f.is_test {
                continue;
            }
            for call in &f.locked_calls {
                let locks: Vec<&(String, u32)> = call
                    .locks
                    .iter()
                    .filter(|(l, _)| !ALLOWED_SLOW_LOCKS.contains(&l.as_str()))
                    .collect();
                let Some((lock, acq_line)) = locks.first() else {
                    continue;
                };
                let why = if is_expensive_name(&call.callee) {
                    Some(format!("`{}` is expensive/blocking work", call.callee))
                } else {
                    graph
                        .find(&call.callee)
                        .into_iter()
                        .find_map(|id| {
                            if graph.nodes[id].is_test {
                                return None;
                            }
                            sums.fns[id].blocks.as_ref().map(|b| (id, b))
                        })
                        .map(|(id, b)| {
                            let mut chain = vec![graph.nodes[id].qual.clone()];
                            chain.extend(b.via.iter().cloned());
                            format!(
                                "`{}` reaches expensive/blocking work (`{}` via `{}`)",
                                graph.nodes[id].qual,
                                b.what,
                                chain.join(" -> ")
                            )
                        })
                };
                let Some(why) = why else { continue };
                if !seen.insert((f.file.clone(), call.line, call.callee.clone(), lock.clone())) {
                    continue;
                }
                out.push(Diagnostic {
                    rule: self.name(),
                    severity: sev,
                    path: f.file.clone(),
                    line: call.line,
                    message: format!(
                        "{why} but runs while `{}` holds lock `{lock}` (acquired \
                         line {acq_line}); do the slow work outside the guard and \
                         swap results in under the lock",
                        f.qual
                    ),
                });
            }
        }
    }
}

/// `guard-escape`: a lock guard must die in its acquiring function —
/// returned or field-stored guards make the critical section unbounded
/// and invisible at the acquisition site. Transitive: passing a live
/// guard into a callee that stores it (directly or through further
/// forwarding — an escaping-parameter chain in the summaries) is the
/// same bug one call removed. The one audited exception is the accessor
/// pattern: a function whose return type names a guard
/// (`-> MutexGuard<..>`), which callers treat as an acquisition.
pub struct GuardEscape;

impl AstRule for GuardEscape {
    fn name(&self) -> &'static str {
        "guard-escape"
    }

    fn description(&self) -> &'static str {
        "lock guards must not be returned, stored, or handed to storing callees beyond the acquiring function, except via guard-returning accessors"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(
        &self,
        model: &WorkspaceModel,
        graph: &CallGraph,
        sev: Severity,
        out: &mut Vec<Diagnostic>,
    ) {
        let lm = dataflow::lock_model(model);
        for f in &lm.fns {
            if f.is_test || f.returns_guard {
                continue;
            }
            for e in &f.escapes {
                out.push(Diagnostic {
                    rule: self.name(),
                    severity: sev,
                    path: f.file.clone(),
                    line: e.line,
                    message: format!(
                        "guard for lock `{}` is {} from `{}` whose return type does \
                         not name a guard; keep guards inside their acquiring \
                         function or use an explicit `-> ..Guard<..>` accessor",
                        e.lock, e.how, f.qual
                    ),
                });
            }
        }
        // Transitive escapes: a held guard passed into an escaping
        // parameter position (the callee — possibly through further
        // hops — stores it into a field).
        let sums = Summaries::build(model, graph);
        for h in crate::summaries::guard_handoffs(model, graph, &sums) {
            out.push(Diagnostic {
                rule: self.name(),
                severity: sev,
                path: h.file.clone(),
                line: h.line,
                message: format!(
                    "guard for lock `{}` is handed from `{}` to `{}`, which stores \
                     it beyond the call; drop the guard first or pass the data, \
                     not the guard",
                    h.lock, h.qual, h.callee_qual
                ),
            });
        }
    }
}

/// `float-taint-before-merge`: corpus-statistic merging must stay in
/// exact integer arithmetic. Built on the [`crate::dataflow`] provenance
/// lattice: inside any function that accumulates into a stat-named
/// target (`coll_tf`, `doc_freq`, `collection_len`, ...), casting a
/// stat-derived value to float or accumulating a float-tainted value is
/// flagged. This pins statically what the partition proptest checks
/// dynamically: `Searcher`'s merged statistics are byte-identical to a
/// monolithic index, so ranking is partition-invariant.
pub struct FloatTaintBeforeMerge;

impl AstRule for FloatTaintBeforeMerge {
    fn name(&self) -> &'static str {
        "float-taint-before-merge"
    }

    fn description(&self) -> &'static str {
        "corpus-stat merging must use exact integer arithmetic; float conversion belongs after the merge, in scoring"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(
        &self,
        model: &WorkspaceModel,
        _graph: &CallGraph,
        sev: Severity,
        out: &mut Vec<Diagnostic>,
    ) {
        for t in dataflow::float_taint(model) {
            out.push(Diagnostic {
                rule: self.name(),
                severity: sev,
                path: t.file.clone(),
                line: t.line,
                message: format!(
                    "{} in `{}`; merge statistics as integers and convert to f64 \
                     only in post-merge scoring (collection_prob and friends)",
                    t.what, t.qual
                ),
            });
        }
    }
}

/// Interprocedural lockset race detector. For every struct owning both
/// lock fields and plain fields, [`crate::summaries::protection`] infers
/// which lock guards each plain field by majority vote over all
/// workspace accesses (entry-lock context flows down the call graph, so
/// helpers reached only under the lock count as guarded). Accesses
/// outside the inferred guard are candidate data races.
pub struct UnguardedSharedField;

impl AstRule for UnguardedSharedField {
    fn name(&self) -> &'static str {
        "unguarded-shared-field"
    }

    fn description(&self) -> &'static str {
        "every access of a shared-struct field must hold the lock that guards it (inferred by majority vote over all accesses)"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(
        &self,
        model: &WorkspaceModel,
        graph: &CallGraph,
        sev: Severity,
        out: &mut Vec<Diagnostic>,
    ) {
        let prot = crate::summaries::protection(model, graph);
        for r in &prot.races {
            out.push(Diagnostic {
                rule: self.name(),
                severity: sev,
                path: r.file.clone(),
                line: r.line,
                message: format!(
                    "field `{}` of `{}` is accessed in `{}` without holding `{}`, \
                     which guards {} of {} accesses of this field; take the lock \
                     (or move the field into it)",
                    r.field, r.struct_name, r.qual, r.guard, r.guarded, r.total
                ),
            });
        }
    }
}

/// Interprocedural determinism-taint pass: nondeterministic sources
/// (hash-container iteration order, thread ids, wall-clock time, float
/// accumulation over hash order) must not reach run-file writers,
/// snapshot encoders, or BENCH json emitters. Taint flows through
/// [`Summaries`] (return taint + forwarded parameters), so values
/// laundered through helper functions are still caught at the sink.
pub struct DeterminismTaintToOutput;

impl AstRule for DeterminismTaintToOutput {
    fn name(&self) -> &'static str {
        "determinism-taint-to-output"
    }

    fn description(&self) -> &'static str {
        "nondeterministic values (hash order, thread ids, wall-clock time) must not reach run-file or snapshot writers"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(
        &self,
        model: &WorkspaceModel,
        graph: &CallGraph,
        sev: Severity,
        out: &mut Vec<Diagnostic>,
    ) {
        let sums = Summaries::build(model, graph);
        for f in crate::summaries::taint_to_output(model, graph, &sums) {
            out.push(Diagnostic {
                rule: self.name(),
                severity: sev,
                path: f.file.clone(),
                line: f.line,
                message: format!(
                    "nondeterministic value ({}) reaches run-file/snapshot writer \
                     `{}` in `{}`; sort into a total order, use a BTree container, \
                     or inject the clock",
                    f.sources.join(", "),
                    f.sink,
                    f.qual
                ),
            });
        }
    }
}
