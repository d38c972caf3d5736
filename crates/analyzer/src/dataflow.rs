//! Dataflow facts for the concurrency and determinism rule pack.
//!
//! Two analyses run over the per-function CFGs ([`crate::cfg`]):
//!
//! **Lock analysis** ([`lock_model`]). A guard acquisition is a
//! zero-argument `lock()`/`read()`/`write()` (or `try_` variant) method
//! call on a plain path/field receiver — `self.live.lock()`,
//! `view.read()` — or a call to an *accessor* function that itself
//! acquires a lock and returns a guard type (return type text contains
//! `Guard`). The lock's identity is the last field/path identifier of
//! the receiver (`live` for `self.live`). A may-held set of guards flows
//! forward through the CFG; guards die at `drop(g)` calls and at the
//! [`crate::cfg::Stmt::ScopeEnd`] of their binding scope. From the
//! fixpoint, each function exports:
//! - acquisition order pairs (lock held → lock acquired) for
//!   `lock-order-consistency`,
//! - calls made while holding guards for `no-blocking-while-locked`,
//! - guards that are returned or stored into fields for `guard-escape`.
//!
//! **Value provenance** ([`Prov`], [`eval_prov`]). A tiny two-bit lattice
//! tracking whether a value derives from a corpus-statistic integer
//! ([`STAT_NAMES`]: `coll_tf`, `doc_freq`, `collection_len`, ...) and
//! whether it has passed through `as f64`/`as f32`, a float literal, or
//! float-only arithmetic. `float-taint-before-merge` uses it to keep
//! statistic *merging* (compound assignment onto a stat field, as in
//! `Searcher::new`) exactly integral: float math belongs after the merge,
//! in the scoring accessors.
//!
//! Everything here is heuristic and name-based, in line with the rest of
//! the analyzer: precision comes from the workspace's own conventions,
//! escape hatches from `lint:allow`.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::ast::Expr;
use crate::cfg::{for_each_state, Cfg, Lattice, Stmt};
use crate::symbols::WorkspaceModel;

/// Zero-argument guard-producing methods on sync primitives.
pub const LOCK_METHODS: [&str; 6] = ["lock", "read", "write", "try_lock", "try_read", "try_write"];

/// Type text that denotes an unordered hash container.
pub fn is_hash_ty(t: &str) -> bool {
    t.contains("HashMap") || t.contains("HashSet")
}

/// Iterator-producing methods whose order is the container's.
pub const HASH_ITER_METHODS: &[&str] = &["iter", "iter_mut", "into_iter", "keys", "values", "drain"];

/// Corpus-statistic integer names (fields, accessors, locals) whose
/// merge must stay in exact integer arithmetic.
pub const STAT_NAMES: [&str; 7] = [
    "coll_tf",
    "collection_tf",
    "doc_freq",
    "collection_len",
    "num_docs",
    "doc_len",
    "total_tf",
];

/// One direct lock acquisition inside a function.
#[derive(Debug, Clone)]
pub struct Acquire {
    /// Lock identity (last receiver identifier, or the accessor's lock).
    pub lock: String,
    /// Binding the guard lives in; `None` for statement temporaries.
    pub binding: Option<String>,
    /// 1-based line.
    pub line: u32,
}

/// An acquisition performed while another lock was already held.
#[derive(Debug, Clone)]
pub struct OrderPair {
    /// Lock already held.
    pub held: String,
    /// Lock acquired under it.
    pub acquired: String,
    /// 1-based line of the inner acquisition.
    pub line: u32,
}

/// A call made while at least one guard was live.
#[derive(Debug, Clone)]
pub struct LockedCall {
    /// Locks held at the call, with their acquisition lines.
    pub locks: Vec<(String, u32)>,
    /// Callee name (method name or last path segment).
    pub callee: String,
    /// 1-based line of the call.
    pub line: u32,
}

/// A guard leaving its acquiring function.
#[derive(Debug, Clone)]
pub struct Escape {
    /// The escaping guard's lock.
    pub lock: String,
    /// 1-based line of the escape point.
    pub line: u32,
    /// `"returned"` or `"stored"`.
    pub how: &'static str,
}

/// Per-function lock facts exported to the rules.
#[derive(Debug)]
pub struct FnLockFacts {
    /// Display name (`Type::name` inside an impl).
    pub qual: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the `fn`.
    pub line: u32,
    /// Effective test-ness (attribute- or location-derived).
    pub is_test: bool,
    /// Return type text contains `Guard` — the audited accessor pattern.
    pub returns_guard: bool,
    /// Direct acquisitions in source order.
    pub acquires: Vec<Acquire>,
    /// (held → acquired) pairs observed at inner acquisitions.
    pub order_pairs: Vec<OrderPair>,
    /// Calls made under at least one held lock.
    pub locked_calls: Vec<LockedCall>,
    /// Guards returned or stored beyond the function.
    pub escapes: Vec<Escape>,
}

/// Workspace-wide lock facts.
#[derive(Debug)]
pub struct LockModel {
    /// One entry per function that touches a lock (directly or through
    /// an accessor); functions with no lock activity are omitted.
    pub fns: Vec<FnLockFacts>,
}

/// May-held guard set: binding name → (lock, acquisition line).
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct HeldSet {
    pub(crate) guards: BTreeMap<String, (String, u32)>,
}

impl Lattice for HeldSet {
    fn bottom() -> Self {
        HeldSet::default()
    }
    fn join_from(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (k, v) in &other.guards {
            if !self.guards.contains_key(k) {
                self.guards.insert(k.clone(), v.clone());
                changed = true;
            }
        }
        changed
    }
}

/// Last identifier of a path/field receiver chain (`live` for
/// `self.live`, `view` for `self.inner.view`); `None` when the receiver
/// is not a plain chain (calls, indexing).
pub(crate) fn chain_last_ident(e: &Expr) -> Option<String> {
    fn is_plain_chain(e: &Expr) -> bool {
        match e {
            Expr::Path { .. } => true,
            Expr::Field { recv, .. } => is_plain_chain(recv),
            _ => false,
        }
    }
    match e {
        Expr::Path { segs, .. } => {
            let last = segs.last()?;
            if last == "self" {
                // `self.lock()` locks the *object*, not a named lock; the
                // accessor summary covers that shape.
                return None;
            }
            Some(last.clone())
        }
        Expr::Field { name, recv, .. } if is_plain_chain(recv) => Some(name.clone()),
        _ => None,
    }
}

/// Direct acquisitions syntactically inside `e`: zero-argument lock
/// methods on plain chains, plus calls to known accessor functions
/// (`accessors` maps accessor fn name → lock it acquires).
pub(crate) fn find_acquires(e: &Expr, accessors: &BTreeMap<String, String>) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    e.walk(&mut |n| match n {
        Expr::MethodCall {
            recv,
            method,
            args,
            line,
            ..
        } => {
            if args.is_empty() && LOCK_METHODS.contains(&method.as_str()) {
                if let Some(lock) = chain_last_ident(recv) {
                    out.push((lock, *line));
                    return;
                }
            }
            if let Some(lock) = accessors.get(method.as_str()) {
                out.push((lock.clone(), *line));
            }
        }
        Expr::Call { callee, line, .. } => {
            if let Expr::Path { segs, .. } = callee.as_ref() {
                if let Some(last) = segs.last() {
                    if let Some(lock) = accessors.get(last.as_str()) {
                        out.push((lock.clone(), *line));
                    }
                }
            }
        }
        _ => {}
    });
    out
}

/// Callee names invoked inside `e` (method names and last path segments
/// of direct calls), with lines. Lock methods themselves and the
/// ubiquitous `Result`/`Option` plumbing are excluded.
pub(crate) fn find_calls(e: &Expr) -> Vec<(String, u32)> {
    const PLUMBING: [&str; 10] = [
        "unwrap", "expect", "ok", "err", "map_err", "clone", "as_ref", "as_deref", "into", "len",
    ];
    let mut out = Vec::new();
    e.walk(&mut |n| match n {
        Expr::MethodCall { method, line, .. }
            if !LOCK_METHODS.contains(&method.as_str()) && !PLUMBING.contains(&method.as_str()) =>
        {
            out.push((method.clone(), *line));
        }
        Expr::Call { callee, line, .. } => {
            if let Expr::Path { segs, .. } = callee.as_ref() {
                if let Some(last) = segs.last() {
                    if !PLUMBING.contains(&last.as_str()) {
                        out.push((last.clone(), *line));
                    }
                }
            }
        }
        _ => {}
    });
    out
}

/// The acquisition whose guard is the *value* of `e`, if any: the lock
/// or accessor call itself, possibly wrapped in `unwrap`/`expect`/`?`.
/// An acquisition buried deeper (as a receiver of a further method call,
/// or an argument) produces a statement temporary, not a binding.
pub(crate) fn value_acquire(
    e: &Expr,
    accessors: &BTreeMap<String, String>,
) -> Option<(String, u32)> {
    match e {
        Expr::MethodCall {
            recv,
            method,
            args,
            line,
            ..
        } => {
            if (method == "unwrap" || method == "expect") && {
                // `.expect(msg)` takes the message, `.unwrap()` nothing.
                method == "expect" || args.is_empty()
            } {
                if let Some(a) = value_acquire(recv, accessors) {
                    return Some(a);
                }
            }
            if args.is_empty() && LOCK_METHODS.contains(&method.as_str()) {
                if let Some(lock) = chain_last_ident(recv) {
                    return Some((lock, *line));
                }
            }
            accessors.get(method.as_str()).map(|l| (l.clone(), *line))
        }
        Expr::Try { expr, .. } => value_acquire(expr, accessors),
        Expr::Call { callee, line, .. } => {
            if let Expr::Path { segs, .. } = callee.as_ref() {
                if let Some(last) = segs.last() {
                    return accessors.get(last.as_str()).map(|l| (l.clone(), *line));
                }
            }
            None
        }
        _ => None,
    }
}

/// `drop(x)` / `std::mem::drop(x)` argument binding, if `e` is one.
pub(crate) fn dropped_binding(e: &Expr) -> Option<String> {
    if let Expr::Call { callee, args, .. } = e {
        if let Expr::Path { segs, .. } = callee.as_ref() {
            if segs.last().is_some_and(|s| s == "drop") && args.len() == 1 {
                if let Expr::Path { segs, .. } = &args[0] {
                    if segs.len() == 1 {
                        return Some(segs[0].clone());
                    }
                }
            }
        }
    }
    None
}

/// Accessor summaries — `fn view_guard(&self) -> RwLockReadGuard<..>`
/// acquiring exactly one lock exports that lock to its callers. Maps
/// accessor fn name → the lock its guard protects.
pub(crate) fn guard_accessors(model: &WorkspaceModel) -> BTreeMap<String, String> {
    let empty: BTreeMap<String, String> = BTreeMap::new();
    let mut accessors: BTreeMap<String, String> = BTreeMap::new();
    model.for_each_fn(&mut |_file, _ty, _is_test, def| {
        if !def.ret.contains("Guard") {
            return;
        }
        let Some(body) = &def.body else { return };
        let mut locks: BTreeSet<String> = BTreeSet::new();
        for s in &body.stmts {
            for (lock, _) in find_acquires(s, &empty) {
                locks.insert(lock);
            }
        }
        if locks.len() == 1 {
            let lock = locks
                .into_iter()
                .next()
                .expect("invariant: len == 1 checked on the line above");
            accessors.insert(def.name.clone(), lock);
        }
    });
    accessors
}

/// The held-set transfer function shared by every lockset analysis:
/// `drop(g)` kills, `let g = <acquire>` binds, rebinding and scope end
/// kill.
pub(crate) fn held_step(stmt: &Stmt<'_>, held: &mut HeldSet, accessors: &BTreeMap<String, String>) {
    match stmt {
        Stmt::Expr(e) => {
            if let Some(b) = dropped_binding(e) {
                held.guards.remove(&b);
            }
            if let Expr::Let {
                name: Some(n),
                init: Some(init),
                ..
            } = e
            {
                if let Some((lock, line)) = value_acquire(init, accessors) {
                    held.guards.insert(n.clone(), (lock, line));
                    return;
                }
                // Rebinding a name to a non-guard kills the old guard.
                held.guards.remove(n.as_str());
            }
        }
        Stmt::ScopeEnd(names) => {
            for n in names {
                held.guards.remove(n.as_str());
            }
        }
    }
}

/// Builds workspace-wide lock facts. Two passes: the first collects
/// per-function direct acquisitions and guard-returning accessors, the
/// second runs the held-set dataflow with accessor calls resolved.
pub fn lock_model(model: &WorkspaceModel) -> LockModel {
    let accessors = guard_accessors(model);

    // Pass 2: per-function dataflow.
    let mut fns: Vec<FnLockFacts> = Vec::new();
    model.for_each_fn(&mut |file, ty, is_test, def| {
        let Some(cfg) = Cfg::build(def) else { return };
        let qual = match ty {
            Some(t) => format!("{t}::{}", def.name),
            None => def.name.clone(),
        };
        let mut facts = FnLockFacts {
            qual,
            file: file.rel.clone(),
            line: def.line,
            is_test,
            returns_guard: def.ret.contains("Guard"),
            acquires: Vec::new(),
            order_pairs: Vec::new(),
            locked_calls: Vec::new(),
            escapes: Vec::new(),
        };
        let trailing = def
            .body
            .as_ref()
            .and_then(|b| b.stmts.last())
            .map(|s| s as *const Expr);
        let mut transfer =
            |stmt: &Stmt<'_>, held: &mut HeldSet| held_step(stmt, held, &accessors);
        let mut visit = |stmt: &Stmt<'_>, held: &HeldSet| {
            let Stmt::Expr(e) = stmt else { return };
            let acq = find_acquires(e, &accessors);
            for (lock, line) in &acq {
                let binding = match e {
                    Expr::Let {
                        name: Some(n),
                        init: Some(init),
                        ..
                    } if value_acquire(init, &accessors)
                        .is_some_and(|(l, ln)| l == *lock && ln == *line) =>
                    {
                        Some(n.clone())
                    }
                    _ => None,
                };
                facts.acquires.push(Acquire {
                    lock: lock.clone(),
                    binding,
                    line: *line,
                });
                for (held_lock, _) in held.guards.values() {
                    if held_lock != lock {
                        facts.order_pairs.push(OrderPair {
                            held: held_lock.clone(),
                            acquired: lock.clone(),
                            line: *line,
                        });
                    }
                }
            }
            // Locks relevant to calls in this statement: everything held
            // coming in, plus this statement's own acquisitions (the
            // guard is live for the rest of the statement).
            let mut locks: Vec<(String, u32)> = held
                .guards
                .values()
                .map(|(l, ln)| (l.clone(), *ln))
                .collect();
            for (lock, line) in &acq {
                if !locks.iter().any(|(l, _)| l == lock) {
                    locks.push((lock.clone(), *line));
                }
            }
            if !locks.is_empty() {
                for (callee, line) in find_calls(e) {
                    facts.locked_calls.push(LockedCall {
                        locks: locks.clone(),
                        callee,
                        line,
                    });
                }
            }
            // Escapes: guards returned or stored into fields.
            let escaping_root = |v: &Expr| -> Option<(String, u32)> {
                let root = v.root_ident()?;
                let (lock, _) = held.guards.get(root)?;
                Some((lock.clone(), v.line()))
            };
            match e {
                Expr::Return { value: Some(v), .. } => {
                    if let Some((lock, line)) = escaping_root(v) {
                        facts.escapes.push(Escape {
                            lock,
                            line,
                            how: "returned",
                        });
                    }
                }
                Expr::Assign { op, lhs, rhs, .. } if op == "=" => {
                    if matches!(lhs.as_ref(), Expr::Field { .. }) {
                        if let Some((lock, line)) = escaping_root(rhs) {
                            facts.escapes.push(Escape {
                                lock,
                                line,
                                how: "stored",
                            });
                        }
                    }
                }
                // A trailing `g` expression is an implicit return.
                Expr::Path { segs, line, .. }
                    if segs.len() == 1 && trailing == Some(*e as *const Expr) =>
                {
                    if let Some((lock, _)) = held.guards.get(segs[0].as_str()) {
                        facts.escapes.push(Escape {
                            lock: lock.clone(),
                            line: *line,
                            how: "returned",
                        });
                    }
                }
                _ => {}
            }
        };
        for_each_state(&cfg, HeldSet::default(), &mut transfer, &mut visit);
        if !facts.acquires.is_empty() || !facts.locked_calls.is_empty() {
            fns.push(facts);
        }
    });
    LockModel { fns }
}

/// Value provenance: does a value derive from a corpus-stat integer, and
/// has it passed through float territory?
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Prov {
    /// Derives from a [`STAT_NAMES`] field/accessor/local.
    pub stat: bool,
    /// Has float type or passed through float arithmetic.
    pub float: bool,
}

impl Prov {
    fn or(self, o: Prov) -> Prov {
        Prov {
            stat: self.stat || o.stat,
            float: self.float || o.float,
        }
    }
}

/// Per-binding provenance environment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProvEnv {
    vars: BTreeMap<String, Prov>,
}

impl ProvEnv {
    /// Provenance of binding `name` (unknown → default).
    pub fn get(&self, name: &str) -> Prov {
        self.vars.get(name).copied().unwrap_or_default()
    }

    /// Joins `p` into binding `name`.
    pub fn set(&mut self, name: &str, p: Prov) {
        let cur = self.get(name);
        self.vars.insert(name.to_string(), cur.or(p));
    }
}

impl Lattice for ProvEnv {
    fn bottom() -> Self {
        ProvEnv::default()
    }
    fn join_from(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (k, &p) in &other.vars {
            let cur = self.get(k);
            let joined = cur.or(p);
            if joined != cur || !self.vars.contains_key(k) {
                self.vars.insert(k.clone(), joined);
                changed = true;
            }
        }
        changed
    }
}

/// True for `f32`/`f64` cast targets (including `&f64` oddities).
pub fn is_float_ty(ty: &str) -> bool {
    let t = ty.trim_start_matches(['&', ' ']);
    t.starts_with("f32") || t.starts_with("f64")
}

fn is_float_lit(text: &str) -> bool {
    let t = text.trim_end_matches(['f', '3', '2', '6', '4']);
    t.chars().next().is_some_and(|c| c.is_ascii_digit()) && t.contains('.')
}

/// Float-producing methods (beyond casts and literals).
const FLOAT_METHODS: [&str; 9] = [
    "ln", "ln_1p", "log2", "log10", "powf", "powi", "sqrt", "exp", "recip",
];

/// Evaluates the provenance of an expression under `env`.
pub fn eval_prov(e: &Expr, env: &ProvEnv) -> Prov {
    let mut p = Prov::default();
    e.walk(&mut |n| match n {
        Expr::Path { segs, .. } => {
            if segs.len() == 1 {
                p = p.or(env.get(&segs[0]));
            }
            if segs.iter().any(|s| STAT_NAMES.contains(&s.as_str())) {
                p.stat = true;
            }
        }
        Expr::Field { name, .. } if STAT_NAMES.contains(&name.as_str()) => {
            p.stat = true;
        }
        Expr::MethodCall { method, .. } => {
            if STAT_NAMES.contains(&method.as_str()) {
                p.stat = true;
            }
            if FLOAT_METHODS.contains(&method.as_str()) {
                p.float = true;
            }
        }
        Expr::Cast { ty, .. } if is_float_ty(ty) => {
            p.float = true;
        }
        Expr::Lit { text, .. } if is_float_lit(text) => {
            p.float = true;
        }
        _ => {}
    });
    p
}

/// One float-taint violation inside a stat-merging function.
#[derive(Debug)]
pub struct TaintFinding {
    /// Function display name.
    pub qual: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the violation.
    pub line: u32,
    /// Human-readable description of the violation.
    pub what: String,
}

/// True when the assignment target names a corpus statistic
/// (`coll_tf[g] += ..`, `self.collection_len += ..`).
fn stat_target(lhs: &Expr) -> bool {
    let mut hit = false;
    lhs.walk(&mut |n| match n {
        Expr::Path { segs, .. } if segs.iter().any(|s| STAT_NAMES.contains(&s.as_str())) => {
            hit = true;
        }
        Expr::Field { name, .. } if STAT_NAMES.contains(&name.as_str()) => {
            hit = true;
        }
        _ => {}
    });
    hit
}

/// Scans the workspace for float taint crossing the exact-integer stat
/// merge boundary. Scope: non-test functions that *accumulate* into a
/// stat-named target via compound assignment (the merge functions). In
/// those, both float-tainted accumulation and float casts of
/// stat-derived values are violations; float math in non-merging
/// accessors (`collection_prob`) is legal.
pub fn float_taint(model: &WorkspaceModel) -> Vec<TaintFinding> {
    let mut out = Vec::new();
    model.for_each_fn(&mut |file, ty, is_test, def| {
        if is_test {
            return;
        }
        let Some(cfg) = Cfg::build(def) else { return };
        // Is this a merge function? (any compound assignment onto a
        // stat-named target anywhere in the body)
        let mut merges = false;
        if let Some(body) = &def.body {
            for s in &body.stmts {
                s.walk(&mut |n| {
                    if let Expr::Assign { op, lhs, .. } = n {
                        if op != "=" && stat_target(lhs) {
                            merges = true;
                        }
                    }
                });
            }
        }
        if !merges {
            return;
        }
        let qual = match ty {
            Some(t) => format!("{t}::{}", def.name),
            None => def.name.clone(),
        };
        let mut transfer = |stmt: &Stmt<'_>, env: &mut ProvEnv| {
            let Stmt::Expr(e) = stmt else { return };
            e.walk(&mut |n| match n {
                Expr::Let {
                    name: Some(nm),
                    init: Some(init),
                    ..
                } => env.set(nm, eval_prov(init, env)),
                Expr::Assign { lhs, rhs, .. } => {
                    if let Expr::Path { segs, .. } = lhs.as_ref() {
                        if segs.len() == 1 {
                            env.set(&segs[0], eval_prov(rhs, env));
                        }
                    }
                }
                _ => {}
            });
        };
        let mut visit = |stmt: &Stmt<'_>, env: &ProvEnv| {
            let Stmt::Expr(e) = stmt else { return };
            e.walk(&mut |n| match n {
                Expr::Assign { op, lhs, rhs, line }
                    if op != "=" && stat_target(lhs) && eval_prov(rhs, env).float =>
                {
                    out.push(TaintFinding {
                        qual: qual.clone(),
                        file: file.rel.clone(),
                        line: *line,
                        what: format!(
                            "float-tainted value accumulated into corpus stat `{}`",
                            lhs.text()
                        ),
                    });
                }
                Expr::Cast { expr, ty, line } if is_float_ty(ty) && eval_prov(expr, env).stat => {
                    out.push(TaintFinding {
                        qual: qual.clone(),
                        file: file.rel.clone(),
                        line: *line,
                        what: format!(
                            "corpus stat `{}` cast to `{}` before the exact-integer merge",
                            expr.text(),
                            ty
                        ),
                    });
                }
                _ => {}
            });
        };
        for_each_state(&cfg, ProvEnv::default(), &mut transfer, &mut visit);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses sources into a model for unit tests.
    fn model_of(files: &[(&str, &str)]) -> WorkspaceModel {
        let parsed: Vec<crate::ast::SourceFile> = files
            .iter()
            .map(|(rel, src)| crate::parser::parse_file(rel, src))
            .collect();
        WorkspaceModel::new(parsed)
    }

    #[test]
    fn direct_acquisition_and_scope_drop() {
        let m = model_of(&[(
            "crates/x/src/lib.rs",
            "impl S { fn f(&self) { let g = self.live.lock().unwrap(); g.push(1); } \
             fn after(&self) { tail(); } }",
        )]);
        let lm = lock_model(&m);
        assert_eq!(lm.fns.len(), 1);
        let f = &lm.fns[0];
        assert_eq!(f.qual, "S::f");
        assert_eq!(f.acquires.len(), 1);
        assert_eq!(f.acquires[0].lock, "live");
        assert_eq!(f.acquires[0].binding.as_deref(), Some("g"));
        // push happens under the lock.
        assert!(f.locked_calls.iter().any(|c| c.callee == "push"));
    }

    #[test]
    fn drop_releases_before_call() {
        let m = model_of(&[(
            "crates/x/src/lib.rs",
            "fn f(live: L) { let g = live.lock().unwrap(); let n = g.len(); drop(g); \
             publish(n); }",
        )]);
        let lm = lock_model(&m);
        let f = &lm.fns[0];
        assert!(
            !f.locked_calls.iter().any(|c| c.callee == "publish"),
            "publish runs after drop(g): {:?}",
            f.locked_calls
        );
    }

    #[test]
    fn order_pairs_recorded() {
        let m = model_of(&[(
            "crates/x/src/lib.rs",
            "impl S { fn ab(&self) { let a = self.alpha.lock().unwrap(); \
             let b = self.beta.lock().unwrap(); touch(a, b); } }",
        )]);
        let lm = lock_model(&m);
        let f = &lm.fns[0];
        assert_eq!(f.order_pairs.len(), 1);
        assert_eq!(f.order_pairs[0].held, "alpha");
        assert_eq!(f.order_pairs[0].acquired, "beta");
    }

    #[test]
    fn accessor_export_and_branch_merge() {
        let m = model_of(&[(
            "crates/x/src/lib.rs",
            "impl S { fn view_guard(&self) -> RwLockReadGuard<V> { self.view.read().unwrap() } \
             fn f(&self, c: bool) { if c { let g = self.view_guard(); work(g); } done(); } }",
        )]);
        let lm = lock_model(&m);
        let f = lm.fns.iter().find(|f| f.qual == "S::f").expect("facts");
        assert_eq!(f.acquires.len(), 1);
        assert_eq!(f.acquires[0].lock, "view");
        assert!(f.locked_calls.iter().any(|c| c.callee == "work"));
        // done() is after the branch scope closed: guard dead.
        assert!(
            !f.locked_calls.iter().any(|c| c.callee == "done"),
            "{:?}",
            f.locked_calls
        );
    }

    #[test]
    fn guard_escape_detected_and_accessor_exempt_shape() {
        let m = model_of(&[(
            "crates/x/src/lib.rs",
            "impl S { fn leak(&self) -> G { let g = self.live.lock().unwrap(); return g; } }",
        )]);
        let lm = lock_model(&m);
        let f = &lm.fns[0];
        assert!(!f.returns_guard, "ret `G` does not look like a guard");
        assert_eq!(f.escapes.len(), 1);
        assert_eq!(f.escapes[0].lock, "live");
        assert_eq!(f.escapes[0].how, "returned");
    }

    #[test]
    fn float_taint_flags_merge_and_spares_accessor() {
        let m = model_of(&[(
            "crates/x/src/lib.rs",
            "impl S {\n\
             fn merge(&mut self, o: &S) { let add = o.coll_tf as f64; \
              self.coll_tf += add as u64; }\n\
             fn collection_prob(&self) -> f64 { self.coll_tf as f64 / self.n as f64 }\n\
             }",
        )]);
        let findings = float_taint(&m);
        assert_eq!(findings.len(), 2, "{findings:?}");
        // Both the cast and the tainted accumulation are inside `merge`;
        // `collection_prob` (no compound stat assignment) is clean.
        assert!(findings.iter().all(|f| f.qual == "S::merge"));
    }

    #[test]
    fn integer_merge_is_clean() {
        let m = model_of(&[(
            "crates/x/src/lib.rs",
            "impl S { fn merge(&mut self, o: &S) { self.coll_tf += o.coll_tf; \
             self.num_docs += o.num_docs; } }",
        )]);
        let findings = float_taint(&m);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
