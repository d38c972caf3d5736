//! Summary-based interprocedural dataflow.
//!
//! The intraprocedural analyses in [`crate::dataflow`] stop at call
//! boundaries: a guard dropped two calls up the stack, or a `HashMap`
//! iteration order laundered through three helpers into a run file, is
//! invisible to them. This module closes that gap with per-function
//! **effect summaries** computed bottom-up over the call graph:
//!
//! - [`Summaries::build`] walks the strongly connected components of
//!   [`crate::callgraph::CallGraph`] in reverse topological order
//!   (callees first) and runs a fixpoint *inside* each component, so
//!   recursion converges. Each [`FnSummary`] records the locks a
//!   function may acquire, whether it returns a guard (the audited
//!   accessor pattern), whether it may reach expensive/blocking work
//!   (with the call chain), which parameters escape into fields, and
//!   the determinism taint of its return value.
//! - [`protection`] infers a **field → guard protection map**: for each
//!   struct that owns both locks and plain fields, the lock held at a
//!   ≥75% majority of all workspace accesses of a field is its inferred
//!   guard, and the minority accesses without it are lockset-style race
//!   findings. Lock context flows *down* the call graph: the locks held
//!   at every call site of a function are intersected into its entry
//!   context, so `self.bump()` called only under `state` counts as a
//!   guarded access inside `bump`.
//! - [`taint_to_output`] is the interprocedural **determinism taint**
//!   pass. Sources: hash-container iteration (Order taint — a
//!   total-order sort or order-free destination removes it), thread
//!   ids, wall-clock time, and float accumulation over hash order
//!   (Value taint — no sort can remove it). Sinks: run-file writers,
//!   snapshot encoders, and BENCH json emitters. Taint crosses calls
//!   through [`FnSummary::ret_taint`], which carries both the callee's
//!   own sources and the parameter positions it forwards, so multi-hop
//!   laundering is caught.
//!
//! Like everything in this analyzer, the analyses are name-based and
//! heuristic; precision comes from the workspace's own conventions and
//! `lint:allow` is the escape hatch.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{Expr, FnDef};
use crate::callgraph::{CallGraph, STD_METHOD_NAMES};
use crate::cfg::{for_each_state, Cfg, Lattice, Stmt};
use crate::dataflow::{
    find_acquires, guard_accessors, held_step, is_hash_ty, HeldSet, HASH_ITER_METHODS,
};
use crate::symbols::WorkspaceModel;

/// Function names that denote expensive or blocking work: segment
/// sealing/merging, snapshot codec, file I/O. Exact names, so e.g. a
/// `begin_seal` that only moves buffers out of the critical section does
/// not inherit `seal`'s weight.
pub const EXPENSIVE_FNS: &[&str] = &[
    "build",
    "merge",
    "seal",
    "force_merge",
    "run_policy",
    "run_full",
    "encode",
    "decode",
    "write_snapshot",
    "read_snapshot",
    "open",
    "create",
    "read_to_string",
    "write_all",
    "sync_all",
    "persist",
    "copy",
    "rename",
    "remove_file",
];

/// True for names denoting expensive/blocking work.
pub fn is_expensive_name(name: &str) -> bool {
    EXPENSIVE_FNS.contains(&name) || name.starts_with("encode_") || name.starts_with("decode_")
}

/// Serialization sinks: run-file writers, snapshot encoders, BENCH json
/// emitters. Nondeterministic values must never reach their arguments.
pub const SINK_FNS: &[&str] = &[
    "write_run",
    "write_qrels",
    "write_report",
    "write_snapshot",
    "write_snapshot_bytes",
    "append_segment",
    "encode_snapshot",
    "encode_snapshot_v1",
];

/// Determinism taint of one value, split by what can remove it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Taint {
    /// Order-nondeterminism sources (hash-container iteration). Killed
    /// by a total-order sort, an order-insensitive terminal, or an
    /// order-free collect destination.
    pub order: BTreeSet<String>,
    /// Value-nondeterminism sources (thread ids, wall-clock time, float
    /// accumulation over hash order). No reordering can remove these.
    pub value: BTreeSet<String>,
    /// Parameter indices of the *enclosing* function whose taint flows
    /// into this value; resolved at call sites via the callee summary.
    pub from_params: BTreeSet<usize>,
}

impl Taint {
    /// True when any concrete source (not just a parameter) taints it.
    pub fn is_tainted(&self) -> bool {
        !self.order.is_empty() || !self.value.is_empty()
    }

    /// All concrete sources, order then value, deterministic.
    pub fn sources(&self) -> Vec<String> {
        self.order
            .iter()
            .chain(self.value.iter())
            .cloned()
            .collect()
    }

    fn join(&mut self, other: &Taint) -> bool {
        let before = (self.order.len(), self.value.len(), self.from_params.len());
        self.order.extend(other.order.iter().cloned());
        self.value.extend(other.value.iter().cloned());
        self.from_params.extend(other.from_params.iter().copied());
        before != (self.order.len(), self.value.len(), self.from_params.len())
    }
}

/// Why a function may block, with the workspace call chain to the work.
#[derive(Debug, Clone, PartialEq)]
pub struct Blocking {
    /// The expensive callee name (`seal`, `write_all`, ...).
    pub what: String,
    /// Workspace hops from this function to the work (nearest callee
    /// first, capped at 5); empty when the body calls it directly.
    pub via: Vec<String>,
}

/// One function's interprocedural effect summary.
#[derive(Debug)]
pub struct FnSummary {
    /// Display name (`Type::name` inside an impl).
    pub qual: String,
    /// Bare name.
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the `fn`.
    pub line: u32,
    /// Effective test-ness.
    pub is_test: bool,
    /// Locks the body may acquire (directly or via accessors).
    pub acquires: BTreeSet<String>,
    /// Accessor pattern: the single lock whose guard this returns.
    pub returns_guard_of: Option<String>,
    /// May reach expensive/blocking work (transitively).
    pub blocks: Option<Blocking>,
    /// Per parameter: true when a value passed in that position escapes
    /// into a field (directly or through a callee with the same effect).
    pub escaping_params: Vec<bool>,
    /// Determinism taint of the return value.
    pub ret_taint: Taint,
}

/// Workspace-wide summaries, indexed like [`CallGraph::nodes`].
pub struct Summaries {
    /// One summary per call-graph node, same order.
    pub fns: Vec<FnSummary>,
}

/// One call site inside a body: callee name and, per argument, the
/// caller parameter indices passed *directly* in that position.
struct CallSite {
    name: String,
    /// True for `recv.name(..)`; method-call names shadowed by std are
    /// never resolved.
    is_method: bool,
    arg_params: Vec<BTreeSet<usize>>,
}

/// True when `e` passes the binding `name` itself (possibly wrapped in
/// tuple/`Some(..)`/`&`/`?`/cast constructors) — as opposed to a value
/// *derived* from it (`g.len()`, `g.field`).
fn passes_binding_directly(e: &Expr, name: &str) -> bool {
    match e {
        Expr::Path { segs, .. } => segs.len() == 1 && segs[0] == name,
        Expr::Call { args, .. } => args.iter().any(|a| passes_binding_directly(a, name)),
        Expr::Try { expr, .. } | Expr::Cast { expr, .. } => passes_binding_directly(expr, name),
        Expr::Other { children, .. } => children.iter().any(|c| passes_binding_directly(c, name)),
        _ => false,
    }
}

/// Collects every call site in a body with direct-pass parameter flow.
fn call_sites(def: &FnDef) -> Vec<CallSite> {
    let mut out = Vec::new();
    let Some(body) = &def.body else { return out };
    let params: Vec<&str> = def.params.iter().map(|(n, _)| n.as_str()).collect();
    let mut record = |name: &str, is_method: bool, args: &[Expr]| {
        let arg_params = args
            .iter()
            .map(|a| {
                params
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| passes_binding_directly(a, p))
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();
        out.push(CallSite {
            name: name.to_string(),
            is_method,
            arg_params,
        });
    };
    for s in &body.stmts {
        s.walk(&mut |e| match e {
            Expr::MethodCall { method, args, .. } => record(method, true, args),
            Expr::Call { callee, args, .. } => {
                if let Expr::Path { segs, .. } = callee.as_ref() {
                    if let Some(last) = segs.last() {
                        record(last, false, args);
                    }
                }
            }
            _ => {}
        });
    }
    out
}

/// Workspace candidates for a call-site name: non-test nodes, with
/// method-call names shadowed by ubiquitous std methods excluded (same
/// discipline as the call graph).
fn resolve<'a>(
    by_name: &'a BTreeMap<String, Vec<usize>>,
    name: &str,
    is_method: bool,
) -> &'a [usize] {
    if is_method && STD_METHOD_NAMES.contains(&name) {
        return &[];
    }
    by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
}

/// Per-binding determinism-taint environment.
#[derive(Debug, Clone, PartialEq, Default)]
struct TaintEnv {
    vars: BTreeMap<String, Taint>,
}

impl Lattice for TaintEnv {
    fn bottom() -> Self {
        TaintEnv::default()
    }
    fn join_from(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (k, t) in &other.vars {
            match self.vars.get_mut(k) {
                Some(cur) => changed |= cur.join(t),
                None => {
                    self.vars.insert(k.clone(), t.clone());
                    changed = true;
                }
            }
        }
        changed
    }
}

/// Shared context for taint evaluation inside one function.
struct TaintCx<'a> {
    /// The enclosing function's parameters.
    params: &'a [(String, String)],
    /// Bindings (params and lets) known to hold hash containers.
    hash_roots: &'a BTreeSet<String>,
    impl_ty: Option<&'a str>,
    model: &'a WorkspaceModel,
    /// Current summaries (mid-fixpoint values are fine: monotone).
    sums: &'a [FnSummary],
    by_name: &'a BTreeMap<String, Vec<usize>>,
}

/// Terminal methods whose result does not depend on iteration order.
const ORDER_INSENSITIVE: &[&str] = &[
    "count", "len", "min", "max", "any", "all", "contains", "is_empty",
];

/// True when `e` *is* a hash container: a known hash binding or a
/// `self.field` with a hash-container type.
fn base_is_hash(e: &Expr, cx: &TaintCx<'_>) -> bool {
    match e {
        Expr::Path { segs, .. } if segs.len() == 1 => cx.hash_roots.contains(&segs[0]),
        Expr::Field { recv, name, .. } => {
            matches!(
                recv.as_ref(),
                Expr::Path { segs, .. } if segs.len() == 1 && segs[0] == "self"
            ) && cx
                .impl_ty
                .and_then(|t| cx.model.field_type(t, name))
                .is_some_and(is_hash_ty)
        }
        _ => false,
    }
}

/// Evaluates the determinism taint of `e` under `env`.
fn eval_taint(e: &Expr, env: &TaintEnv, cx: &TaintCx<'_>) -> Taint {
    let mut t = Taint::default();
    match e {
        Expr::Path { segs, .. } if segs.len() == 1 => {
            if let Some(v) = env.vars.get(&segs[0]) {
                t.join(v);
            }
            if let Some(i) = cx.params.iter().position(|(n, _)| *n == segs[0]) {
                t.from_params.insert(i);
            }
        }
        Expr::MethodCall {
            recv,
            method,
            turbofish,
            args,
            ..
        } => {
            // Source: iterating a hash container in arbitrary order.
            if HASH_ITER_METHODS.contains(&method.as_str()) && base_is_hash(recv, cx) {
                t.order
                    .insert(format!("hash-iteration order of `{}`", recv.text()));
                return t;
            }
            // A sort in a chain produces unit / a sorted copy: clean.
            if method.starts_with("sort") {
                return t;
            }
            // Accumulation terminals: integer folds erase order; float
            // folds over hash order convert Order → Value (reassociation
            // changes the result, and no later sort can fix it).
            if method == "sum" || method == "product" || method == "fold" {
                let rt = eval_taint(recv, env, cx);
                for a in args {
                    t.join(&eval_taint(a, env, cx));
                }
                t.value.extend(rt.value.iter().cloned());
                t.from_params.extend(rt.from_params.iter().copied());
                if !rt.order.is_empty() {
                    let floaty =
                        turbofish.contains("f64") || turbofish.contains("f32") || method == "fold";
                    if floaty {
                        t.value
                            .insert("float accumulation in hash-iteration order".to_string());
                    }
                }
                return t;
            }
            if ORDER_INSENSITIVE.contains(&method.as_str()) {
                let rt = eval_taint(recv, env, cx);
                t.value.extend(rt.value.iter().cloned());
                t.from_params.extend(rt.from_params.iter().copied());
                return t;
            }
            // Collecting into an ordered-by-key or unordered container
            // erases iteration order; Vec/String keep it.
            if method == "collect" {
                let rt = eval_taint(recv, env, cx);
                t.join(&rt);
                if turbofish.contains("BTree")
                    || turbofish.contains("HashMap")
                    || turbofish.contains("HashSet")
                {
                    t.order.clear();
                }
                return t;
            }
            // A workspace callee: apply its summary — own sources plus
            // whatever flows through its forwarded parameters. The
            // receiver's taint is deliberately *not* joined: the callee
            // declares what it forwards.
            let cands = resolve(cx.by_name, method, true);
            if !cands.is_empty() {
                for &c in cands {
                    let rt = &cx.sums[c].ret_taint;
                    t.order.extend(rt.order.iter().cloned());
                    t.value.extend(rt.value.iter().cloned());
                    for &p in &rt.from_params {
                        if let Some(a) = args.get(p) {
                            t.join(&eval_taint(a, env, cx));
                        }
                    }
                }
                return t;
            }
            // Unresolved (std/iterator plumbing): propagate everything.
            t.join(&eval_taint(recv, env, cx));
            for a in args {
                t.join(&eval_taint(a, env, cx));
            }
        }
        Expr::Call { callee, args, .. } => {
            if let Expr::Path { segs, .. } = callee.as_ref() {
                let last = segs.last().map(String::as_str).unwrap_or("");
                // Sources: wall-clock time and thread identity.
                if last == "now" && segs.iter().any(|s| s == "SystemTime") {
                    t.value
                        .insert("wall-clock time (SystemTime::now)".to_string());
                    return t;
                }
                if last == "current" && segs.iter().any(|s| s == "thread") {
                    t.value.insert("thread id (thread::current)".to_string());
                    return t;
                }
                let cands = resolve(cx.by_name, last, false);
                if !cands.is_empty() {
                    for &c in cands {
                        let rt = &cx.sums[c].ret_taint;
                        t.order.extend(rt.order.iter().cloned());
                        t.value.extend(rt.value.iter().cloned());
                        for &p in &rt.from_params {
                            if let Some(a) = args.get(p) {
                                t.join(&eval_taint(a, env, cx));
                            }
                        }
                    }
                    return t;
                }
            }
            for a in args {
                t.join(&eval_taint(a, env, cx));
            }
        }
        Expr::Field { recv, .. } => {
            t.join(&eval_taint(recv, env, cx));
        }
        Expr::Cast { expr, .. } | Expr::Try { expr, .. } => {
            t.join(&eval_taint(expr, env, cx));
        }
        Expr::Index { recv, index, .. } => {
            t.join(&eval_taint(recv, env, cx));
            t.join(&eval_taint(index, env, cx));
        }
        Expr::Closure { body, .. } => {
            t.join(&eval_taint(body, env, cx));
        }
        Expr::Block(b) => {
            if let Some(last) = b.stmts.last() {
                t.join(&eval_taint(last, env, cx));
            }
        }
        Expr::If { then, else_, .. } => {
            if let Some(last) = then.stmts.last() {
                t.join(&eval_taint(last, env, cx));
            }
            if let Some(e2) = else_ {
                t.join(&eval_taint(e2, env, cx));
            }
        }
        Expr::Match { arms, .. } => {
            for a in arms {
                t.join(&eval_taint(a, env, cx));
            }
        }
        Expr::Macro { inner, .. } => {
            for i in inner {
                t.join(&eval_taint(i, env, cx));
            }
        }
        Expr::Other { children, .. } => {
            for c in children {
                t.join(&eval_taint(c, env, cx));
            }
        }
        // Statements and control flow yield no value worth tracking.
        _ => {}
    }
    t
}

/// Bindings (params and lets) holding hash containers in `def`.
fn hash_roots_of(def: &FnDef) -> BTreeSet<String> {
    let mut roots: BTreeSet<String> = def
        .params
        .iter()
        .filter(|(_, t)| is_hash_ty(t))
        .map(|(n, _)| n.clone())
        .collect();
    if let Some(body) = &def.body {
        for s in &body.stmts {
            s.walk(&mut |e| {
                if let Expr::Let {
                    name: Some(n),
                    ty,
                    init,
                    ..
                } = e
                {
                    let hashy = ty.as_deref().is_some_and(is_hash_ty)
                        || (ty.is_none() && init.as_deref().is_some_and(|i| is_hash_ty(&i.text())));
                    if hashy {
                        roots.insert(n.clone());
                    }
                }
            });
        }
    }
    roots
}

/// The taint transfer function: `let` binds, assignment joins or
/// replaces, a statement-level `sort` launders Order taint out of its
/// receiver, scope end kills.
fn taint_step(stmt: &Stmt<'_>, env: &mut TaintEnv, cx: &TaintCx<'_>) {
    match stmt {
        Stmt::Expr(e) => match e {
            Expr::Let {
                name: Some(n),
                init: Some(init),
                ..
            } => {
                let t = eval_taint(init, env, cx);
                env.vars.insert(n.clone(), t);
            }
            Expr::Assign { op, lhs, rhs, .. } => {
                if let Expr::Path { segs, .. } = lhs.as_ref() {
                    if segs.len() == 1 {
                        let t = eval_taint(rhs, env, cx);
                        if op == "=" {
                            env.vars.insert(segs[0].clone(), t);
                        } else if let Some(cur) = env.vars.get_mut(&segs[0]) {
                            cur.join(&t);
                        } else {
                            env.vars.insert(segs[0].clone(), t);
                        }
                    }
                }
            }
            Expr::MethodCall { recv, method, .. } if method.starts_with("sort") => {
                if let Some(root) = recv.root_ident() {
                    if let Some(t) = env.vars.get_mut(root) {
                        t.order.clear();
                    }
                }
            }
            _ => {}
        },
        Stmt::ScopeEnd(names) => {
            for n in names {
                env.vars.remove(n.as_str());
            }
        }
    }
}

/// The value-producing leaves of a trailing expression. Structured
/// statements (`if`/`match`/blocks) are lowered into header + branch
/// statements by the CFG, so the whole expression never appears as one
/// `Stmt` — the branch *tails* do, and those are where the return value
/// is born.
fn trailing_leaves(e: &Expr, out: &mut BTreeSet<usize>) {
    match e {
        Expr::If { then, else_, .. } => {
            if let Some(last) = then.stmts.last() {
                trailing_leaves(last, out);
            }
            if let Some(e2) = else_ {
                trailing_leaves(e2, out);
            }
        }
        Expr::Block(b) => {
            if let Some(last) = b.stmts.last() {
                trailing_leaves(last, out);
            }
        }
        Expr::Match { arms, .. } => {
            for a in arms {
                trailing_leaves(a, out);
            }
        }
        _ => {
            out.insert(e as *const Expr as usize);
        }
    }
}

/// Return-value taint of one function under the current summaries: the
/// join over every `return v` and the trailing expression's leaves.
fn compute_ret_taint(def: &FnDef, cx: &TaintCx<'_>) -> Taint {
    let Some(cfg) = Cfg::build(def) else {
        return Taint::default();
    };
    let mut leaves: BTreeSet<usize> = BTreeSet::new();
    if let Some(last) = def.body.as_ref().and_then(|b| b.stmts.last()) {
        trailing_leaves(last, &mut leaves);
    }
    let mut ret = Taint::default();
    for_each_state(
        &cfg,
        TaintEnv::default(),
        &mut |stmt, env| taint_step(stmt, env, cx),
        &mut |stmt, env| {
            let Stmt::Expr(e) = stmt else { return };
            if let Expr::Return { value: Some(v), .. } = e {
                ret.join(&eval_taint(v, env, cx));
            } else if leaves.contains(&(*e as *const Expr as usize)) {
                ret.join(&eval_taint(e, env, cx));
            }
        },
    );
    ret
}

impl Summaries {
    /// Builds all summaries bottom-up over the call-graph SCCs, with a
    /// fixpoint inside each component for recursion.
    pub fn build(model: &WorkspaceModel, graph: &CallGraph) -> Summaries {
        let accessors = guard_accessors(model);
        let mut defs: Vec<&FnDef> = Vec::new();
        let mut impl_tys: Vec<Option<&str>> = Vec::new();
        model.for_each_fn(&mut |_file, ty, _is_test, def| {
            defs.push(def);
            impl_tys.push(ty);
        });
        debug_assert_eq!(
            defs.len(),
            graph.nodes.len(),
            "model iteration order must match call-graph nodes"
        );

        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, n) in graph.nodes.iter().enumerate() {
            if !n.is_test {
                by_name.entry(n.name.clone()).or_default().push(i);
            }
        }

        // Local facts.
        let mut fns: Vec<FnSummary> = Vec::with_capacity(defs.len());
        for (i, def) in defs.iter().enumerate() {
            let node = &graph.nodes[i];
            let mut acquires: BTreeSet<String> = BTreeSet::new();
            if let Some(body) = &def.body {
                for s in &body.stmts {
                    for (lock, _) in find_acquires(s, &accessors) {
                        acquires.insert(lock);
                    }
                }
            }
            let returns_guard_of = if def.ret.contains("Guard") {
                accessors.get(&def.name).cloned()
            } else {
                None
            };
            // Direct may-block seeds: the function *is* expensive work
            // by name, or its body calls an expensive name (which also
            // catches callees resolving outside the workspace: std fs/io).
            let mut blocks = None;
            if is_expensive_name(&node.name) {
                blocks = Some(Blocking {
                    what: node.name.clone(),
                    via: Vec::new(),
                });
            } else if let Some(body) = &def.body {
                for s in &body.stmts {
                    s.walk(&mut |e| {
                        if blocks.is_some() {
                            return;
                        }
                        let callee = match e {
                            Expr::MethodCall { method, .. } => Some(method.as_str()),
                            Expr::Call { callee, .. } => match callee.as_ref() {
                                Expr::Path { segs, .. } => segs.last().map(String::as_str),
                                _ => None,
                            },
                            _ => None,
                        };
                        if let Some(c) = callee {
                            if is_expensive_name(c) {
                                blocks = Some(Blocking {
                                    what: c.to_string(),
                                    via: Vec::new(),
                                });
                            }
                        }
                    });
                }
            }
            // Direct escaping params: a field store of the parameter
            // value itself.
            let mut escaping_params = vec![false; def.params.len()];
            if let Some(body) = &def.body {
                for s in &body.stmts {
                    s.walk(&mut |e| {
                        if let Expr::Assign { op, lhs, rhs, .. } = e {
                            if op == "=" && matches!(lhs.as_ref(), Expr::Field { .. }) {
                                for (k, (p, _)) in def.params.iter().enumerate() {
                                    if passes_binding_directly(rhs, p) {
                                        escaping_params[k] = true;
                                    }
                                }
                            }
                        }
                    });
                }
            }
            fns.push(FnSummary {
                qual: node.qual.clone(),
                name: node.name.clone(),
                file: node.file.clone(),
                line: node.line,
                is_test: node.is_test,
                acquires,
                returns_guard_of,
                blocks,
                escaping_params,
                ret_taint: Taint::default(),
            });
        }

        // Call sites with direct parameter flow, per function.
        let sites: Vec<Vec<CallSite>> = defs.iter().map(|d| call_sites(d)).collect();

        // Bottom-up over SCCs; fixpoint inside each component. Every
        // derived fact is monotone (sets only grow, `blocks` only flips
        // None → Some), so each inner loop terminates.
        for comp in graph.sccs() {
            let cyclic =
                comp.len() > 1 || comp.first().is_some_and(|&v| graph.callees(v).contains(&v));
            loop {
                let mut changed = false;
                for &v in &comp {
                    // May-block inheritance from callees.
                    if fns[v].blocks.is_none() {
                        let inherited = graph.callees(v).iter().find_map(|&c| {
                            fns[c].blocks.as_ref().map(|b| {
                                let mut via = Vec::with_capacity(b.via.len() + 1);
                                via.push(graph.nodes[c].qual.clone());
                                via.extend(b.via.iter().take(4).cloned());
                                Blocking {
                                    what: b.what.clone(),
                                    via,
                                }
                            })
                        });
                        if inherited.is_some() {
                            fns[v].blocks = inherited;
                            changed = true;
                        }
                    }
                    // Lock-acquisition closure over callees.
                    let mut acq: Vec<String> = Vec::new();
                    for &c in graph.callees(v) {
                        for l in &fns[c].acquires {
                            if !fns[v].acquires.contains(l) {
                                acq.push(l.clone());
                            }
                        }
                    }
                    if !acq.is_empty() {
                        fns[v].acquires.extend(acq);
                        changed = true;
                    }
                    // Transitive escaping params: forwarding a parameter
                    // into an escaping position of a callee.
                    let mut newly: Vec<usize> = Vec::new();
                    for site in &sites[v] {
                        for &c in resolve(&by_name, &site.name, site.is_method) {
                            for (k, ps) in site.arg_params.iter().enumerate() {
                                if fns[c].escaping_params.get(k).copied().unwrap_or(false) {
                                    for &p in ps {
                                        if !fns[v].escaping_params[p] {
                                            newly.push(p);
                                        }
                                    }
                                }
                            }
                        }
                    }
                    for p in newly {
                        fns[v].escaping_params[p] = true;
                        changed = true;
                    }
                    // Return taint under current summaries.
                    let hash_roots = hash_roots_of(defs[v]);
                    let cx = TaintCx {
                        params: &defs[v].params,
                        hash_roots: &hash_roots,
                        impl_ty: impl_tys[v],
                        model,
                        sums: &fns,
                        by_name: &by_name,
                    };
                    let rt = compute_ret_taint(defs[v], &cx);
                    if fns[v].ret_taint != rt {
                        let mut joined = fns[v].ret_taint.clone();
                        joined.join(&rt);
                        fns[v].ret_taint = joined;
                        changed = true;
                    }
                }
                if !changed || !cyclic {
                    break;
                }
            }
        }
        Summaries { fns }
    }
}

/// One nondeterministic value reaching a serialization sink.
#[derive(Debug)]
pub struct TaintFlow {
    /// Function containing the sink call.
    pub qual: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the sink call.
    pub line: u32,
    /// Sink function name.
    pub sink: String,
    /// Concrete taint sources of the offending argument.
    pub sources: Vec<String>,
}

/// The interprocedural determinism-taint pass: flags every sink call
/// with a tainted argument, with taint flowing through summaries.
pub fn taint_to_output(
    model: &WorkspaceModel,
    graph: &CallGraph,
    sums: &Summaries,
) -> Vec<TaintFlow> {
    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, n) in graph.nodes.iter().enumerate() {
        if !n.is_test {
            by_name.entry(n.name.clone()).or_default().push(i);
        }
    }
    let mut out: Vec<TaintFlow> = Vec::new();
    let mut seen: BTreeSet<(String, u32, String)> = BTreeSet::new();
    let mut idx = 0usize;
    model.for_each_fn(&mut |file, ty, is_test, def| {
        let i = idx;
        idx += 1;
        if is_test {
            return;
        }
        let Some(cfg) = Cfg::build(def) else { return };
        let hash_roots = hash_roots_of(def);
        let cx = TaintCx {
            params: &def.params,
            hash_roots: &hash_roots,
            impl_ty: ty,
            model,
            sums: &sums.fns,
            by_name: &by_name,
        };
        let qual = &sums.fns[i].qual;
        for_each_state(
            &cfg,
            TaintEnv::default(),
            &mut |stmt, env| taint_step(stmt, env, &cx),
            &mut |stmt, env| {
                let Stmt::Expr(e) = stmt else { return };
                e.walk(&mut |n| {
                    let (name, args, line) = match n {
                        Expr::MethodCall {
                            method, args, line, ..
                        } => (method.as_str(), args, *line),
                        Expr::Call {
                            callee, args, line, ..
                        } => match callee.as_ref() {
                            Expr::Path { segs, .. } => {
                                let Some(last) = segs.last() else { return };
                                (last.as_str(), args, *line)
                            }
                            _ => return,
                        },
                        _ => return,
                    };
                    if !SINK_FNS.contains(&name) {
                        return;
                    }
                    let mut sources: BTreeSet<String> = BTreeSet::new();
                    for a in args {
                        let t = eval_taint(a, env, &cx);
                        sources.extend(t.sources());
                    }
                    if sources.is_empty() {
                        return;
                    }
                    if seen.insert((file.rel.clone(), line, name.to_string())) {
                        out.push(TaintFlow {
                            qual: qual.clone(),
                            file: file.rel.clone(),
                            line,
                            sink: name.to_string(),
                            sources: sources.into_iter().collect(),
                        });
                    }
                });
            },
        );
    });
    out
}

/// One access of a shared field outside its inferred guard.
#[derive(Debug)]
pub struct RaceFinding {
    /// Owning struct.
    pub struct_name: String,
    /// Field accessed.
    pub field: String,
    /// The inferred guard lock.
    pub guard: String,
    /// Function performing the unguarded access.
    pub qual: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the access.
    pub line: u32,
    /// Accesses holding the guard.
    pub guarded: usize,
    /// All accesses of this field.
    pub total: usize,
}

/// The field → guard protection map with its race findings.
#[derive(Debug)]
pub struct Protection {
    /// `(struct, field)` → inferred guard lock.
    pub guards: BTreeMap<(String, String), String>,
    /// Accesses outside the inferred guard.
    pub races: Vec<RaceFinding>,
}

/// One recorded field access, with the locks held *locally*.
struct Access {
    fn_idx: usize,
    struct_name: String,
    field: String,
    line: u32,
    held: BTreeSet<String>,
}

/// Infers which lock guards each plain field of every lock-owning
/// struct, then flags accesses outside the inferred guard. Lock context
/// is interprocedural: a function's entry context is the intersection,
/// over all its call sites, of the locks held there (so helpers called
/// only under a lock count as guarded).
pub fn protection(model: &WorkspaceModel, graph: &CallGraph) -> Protection {
    let accessors = guard_accessors(model);
    // Structs owning both locks and plain fields; their plain fields
    // are the protection-map candidates.
    // Type text is token-spaced (`Mutex < Vec < u32 > >`), so match on
    // whole type-name tokens; `MutexGuard` must not count as a lock.
    fn is_lock_ty(t: &str) -> bool {
        t.split(|c: char| !c.is_alphanumeric() && c != '_')
            .any(|w| w == "Mutex" || w == "RwLock")
    }
    let mut owners: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut has_lock: BTreeSet<String> = BTreeSet::new();
    for (ty, field, fty) in model.fields() {
        if is_lock_ty(fty) {
            has_lock.insert(ty.to_string());
        } else {
            owners
                .entry(ty.to_string())
                .or_default()
                .insert(field.to_string());
        }
    }
    owners.retain(|ty, _| has_lock.contains(ty));

    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, n) in graph.nodes.iter().enumerate() {
        if !n.is_test {
            by_name.entry(n.name.clone()).or_default().push(i);
        }
    }

    // One lockset pass per function: record call sites (callee, locks
    // held there) and `self.<plain field>` accesses with local locks.
    let n = graph.nodes.len();
    let mut call_ctx: Vec<Vec<(usize, BTreeSet<String>)>> = vec![Vec::new(); n];
    let mut accesses: Vec<Access> = Vec::new();
    let mut idx = 0usize;
    model.for_each_fn(&mut |_file, ty, is_test, def| {
        let i = idx;
        idx += 1;
        if is_test {
            return;
        }
        let Some(cfg) = Cfg::build(def) else { return };
        let plain = ty.and_then(|t| owners.get(t));
        for_each_state(
            &cfg,
            HeldSet::default(),
            &mut |stmt, held| held_step(stmt, held, &accessors),
            &mut |stmt, held| {
                let Stmt::Expr(e) = stmt else { return };
                // Locks relevant to this statement: held coming in plus
                // its own acquisitions (live for the rest of the stmt).
                let mut locks: BTreeSet<String> =
                    held.guards.values().map(|(l, _)| l.clone()).collect();
                for (l, _) in find_acquires(e, &accessors) {
                    locks.insert(l);
                }
                e.walk(&mut |node| {
                    let callee = match node {
                        Expr::MethodCall { method, .. } => Some((method.as_str(), true)),
                        Expr::Call { callee, .. } => match callee.as_ref() {
                            Expr::Path { segs, .. } => segs.last().map(|s| (s.as_str(), false)),
                            _ => None,
                        },
                        _ => None,
                    };
                    if let Some((name, is_method)) = callee {
                        for &c in resolve(&by_name, name, is_method) {
                            call_ctx[c].push((i, locks.clone()));
                        }
                    }
                    if let (Some(fields), Some(t)) = (plain, ty) {
                        if let Expr::Field { recv, name, .. } = node {
                            let on_self = matches!(
                                recv.as_ref(),
                                Expr::Path { segs, .. }
                                    if segs.len() == 1 && segs[0] == "self"
                            );
                            if on_self && fields.contains(name) {
                                accesses.push(Access {
                                    fn_idx: i,
                                    struct_name: t.to_string(),
                                    field: name.clone(),
                                    line: node.line(),
                                    held: locks.clone(),
                                });
                            }
                        }
                    }
                });
            },
        );
    });

    // Entry-lock contexts: entry(f) = ∩ over call sites of
    // (locks held at the site ∪ entry(caller)). Pessimistic ∅ start;
    // the recomputed intersection only grows round over round (sites
    // are fixed, caller entries only grow), so this converges to the
    // least fixpoint: locks held on *every* static call chain.
    let mut entry: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    for _ in 0..100 {
        let mut changed = false;
        for (f, sites) in call_ctx.iter().enumerate() {
            let mut incoming: Option<BTreeSet<String>> = None;
            for (caller, held) in sites {
                let mut ctx = held.clone();
                ctx.extend(entry[*caller].iter().cloned());
                incoming = Some(match incoming {
                    None => ctx,
                    Some(acc) => acc.intersection(&ctx).cloned().collect(),
                });
            }
            let inc = incoming.unwrap_or_default();
            if inc != entry[f] {
                entry[f] = inc;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Majority-vote guard inference per (struct, field): the dominant
    // lock over all accesses is the guard when it covers ≥75% of them
    // (and at least two); the rest are race findings.
    let mut by_field: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    for (ai, a) in accesses.iter().enumerate() {
        by_field
            .entry((a.struct_name.clone(), a.field.clone()))
            .or_default()
            .push(ai);
    }
    let mut guards: BTreeMap<(String, String), String> = BTreeMap::new();
    let mut races: Vec<RaceFinding> = Vec::new();
    for (key, idxs) in &by_field {
        let total = idxs.len();
        let mut votes: BTreeMap<&str, usize> = BTreeMap::new();
        for &ai in idxs {
            let a = &accesses[ai];
            let mut eff: BTreeSet<&str> = a.held.iter().map(String::as_str).collect();
            eff.extend(entry[a.fn_idx].iter().map(String::as_str));
            for l in eff {
                *votes.entry(l).or_default() += 1;
            }
        }
        let mut best: Option<(&str, usize)> = None;
        for (&l, &c) in &votes {
            let better = match best {
                None => true,
                Some((bl, bc)) => c > bc || (c == bc && l < bl),
            };
            if better {
                best = Some((l, c));
            }
        }
        let Some((lock, count)) = best else { continue };
        if count < 2 || 4 * count < 3 * total {
            continue;
        }
        guards.insert(key.clone(), lock.to_string());
        for &ai in idxs {
            let a = &accesses[ai];
            let covered = a.held.contains(lock) || entry[a.fn_idx].contains(lock);
            if !covered {
                races.push(RaceFinding {
                    struct_name: key.0.clone(),
                    field: key.1.clone(),
                    guard: lock.to_string(),
                    qual: graph.nodes[a.fn_idx].qual.clone(),
                    file: graph.nodes[a.fn_idx].file.clone(),
                    line: a.line,
                    guarded: count,
                    total,
                });
            }
        }
    }
    races.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Protection { guards, races }
}

/// One held guard handed to a callee that stores it beyond the call.
#[derive(Debug)]
pub struct Handoff {
    /// Function passing the guard.
    pub qual: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the call.
    pub line: u32,
    /// The lock whose guard escapes.
    pub lock: String,
    /// The callee that stores it.
    pub callee_qual: String,
}

/// Transitive guard escapes: a live guard passed, directly, into an
/// escaping parameter position of a workspace callee. The local
/// guard-escape pass cannot see these — the store happens one or more
/// calls away.
pub fn guard_handoffs(model: &WorkspaceModel, graph: &CallGraph, sums: &Summaries) -> Vec<Handoff> {
    let accessors = guard_accessors(model);
    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, n) in graph.nodes.iter().enumerate() {
        if !n.is_test {
            by_name.entry(n.name.clone()).or_default().push(i);
        }
    }
    let mut out: Vec<Handoff> = Vec::new();
    let mut seen: BTreeSet<(String, u32, String)> = BTreeSet::new();
    model.for_each_fn(&mut |file, ty, is_test, def| {
        if is_test {
            return;
        }
        let Some(cfg) = Cfg::build(def) else { return };
        let qual = match ty {
            Some(t) => format!("{t}::{}", def.name),
            None => def.name.clone(),
        };
        for_each_state(
            &cfg,
            HeldSet::default(),
            &mut |stmt, held| held_step(stmt, held, &accessors),
            &mut |stmt, held| {
                let Stmt::Expr(e) = stmt else { return };
                if held.guards.is_empty() {
                    return;
                }
                e.walk(&mut |node| {
                    let (name, is_method, args, line) = match node {
                        Expr::MethodCall {
                            method, args, line, ..
                        } => (method.as_str(), true, args, *line),
                        Expr::Call {
                            callee, args, line, ..
                        } => match callee.as_ref() {
                            Expr::Path { segs, .. } => {
                                let Some(last) = segs.last() else { return };
                                (last.as_str(), false, args, *line)
                            }
                            _ => return,
                        },
                        _ => return,
                    };
                    for &c in resolve(&by_name, name, is_method) {
                        for (k, a) in args.iter().enumerate() {
                            if !sums.fns[c].escaping_params.get(k).copied().unwrap_or(false) {
                                continue;
                            }
                            for (binding, (lock, _)) in &held.guards {
                                if passes_binding_directly(a, binding)
                                    && seen.insert((file.rel.clone(), line, lock.clone()))
                                {
                                    out.push(Handoff {
                                        qual: qual.clone(),
                                        file: file.rel.clone(),
                                        line,
                                        lock: lock.clone(),
                                        callee_qual: sums.fns[c].qual.clone(),
                                    });
                                }
                            }
                        }
                    }
                });
            },
        );
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_of(files: &[(&str, &str)]) -> WorkspaceModel {
        let parsed: Vec<crate::ast::SourceFile> = files
            .iter()
            .map(|(rel, src)| crate::parser::parse_file(rel, src))
            .collect();
        WorkspaceModel::new(parsed)
    }

    fn built(files: &[(&str, &str)]) -> (WorkspaceModel, CallGraph) {
        let m = model_of(files);
        let g = CallGraph::build(&m);
        (m, g)
    }

    fn summary<'a>(s: &'a Summaries, g: &CallGraph, name: &str) -> &'a FnSummary {
        let id = g.find(name)[0];
        &s.fns[id]
    }

    #[test]
    fn blocks_propagates_with_via_chain() {
        let (m, g) = built(&[(
            "crates/a/src/lib.rs",
            "pub fn deep() { std::fs::rename(a, b); } \
             pub fn mid() { deep(); } \
             pub fn top() { mid(); }",
        )]);
        let s = Summaries::build(&m, &g);
        let deep = summary(&s, &g, "deep")
            .blocks
            .as_ref()
            .expect("deep blocks");
        assert_eq!(deep.what, "rename");
        assert!(deep.via.is_empty());
        let top = summary(&s, &g, "top").blocks.as_ref().expect("top blocks");
        assert_eq!(top.what, "rename");
        assert_eq!(top.via, vec!["mid", "deep"]);
    }

    #[test]
    fn recursion_reaches_fixpoint() {
        let (m, g) = built(&[(
            "crates/a/src/lib.rs",
            "pub fn ping(n: u32) -> u32 { pong(n) } \
             pub fn pong(n: u32) -> u32 { if n > 0 { ping(n) } else { open(n) } }",
        )]);
        let s = Summaries::build(&m, &g);
        assert!(summary(&s, &g, "ping").blocks.is_some());
        assert!(summary(&s, &g, "pong").blocks.is_some());
        // Param flow survives the cycle: both return values carry n.
        assert!(summary(&s, &g, "ping").ret_taint.from_params.contains(&0));
    }

    #[test]
    fn accessor_summary_and_acquire_closure() {
        let (m, g) = built(&[(
            "crates/a/src/lib.rs",
            "impl S { \
             fn live_lock(&self) -> MutexGuard<V> { self.live.lock().unwrap() } \
             fn uses(&self) { let g = self.live_lock(); g.push(1); } }",
        )]);
        let s = Summaries::build(&m, &g);
        assert_eq!(
            summary(&s, &g, "S::live_lock").returns_guard_of.as_deref(),
            Some("live")
        );
        assert!(summary(&s, &g, "S::uses").acquires.contains("live"));
    }

    #[test]
    fn taint_transfers_through_params_multi_hop() {
        let (m, g) = built(&[(
            "crates/a/src/lib.rs",
            "pub fn total(w: &HashMap<String, f64>) -> f64 { w.values().sum::<f64>() } \
             pub fn scale(t: f64) -> f64 { t / 2.0 } \
             pub fn emit(w: &HashMap<String, f64>) -> f64 { scale(total(w)) }",
        )]);
        let s = Summaries::build(&m, &g);
        let total = &summary(&s, &g, "total").ret_taint;
        assert!(
            total.value.iter().any(|v| v.contains("float accumulation")),
            "{total:?}"
        );
        let scale = &summary(&s, &g, "scale").ret_taint;
        assert!(scale.from_params.contains(&0), "{scale:?}");
        assert!(!scale.is_tainted());
        // emit launders through both hops.
        let emit = &summary(&s, &g, "emit").ret_taint;
        assert!(emit.is_tainted(), "{emit:?}");
    }

    #[test]
    fn sort_and_order_free_destinations_launder_order_taint() {
        let (m, g) = built(&[(
            "crates/a/src/lib.rs",
            "pub fn sorted(m: &HashMap<u32, u32>) -> Vec<u32> { \
               let mut v = m.keys().collect::<Vec<_>>(); v.sort(); v } \
             pub fn counted(m: &HashMap<u32, u32>) -> usize { m.keys().count() } \
             pub fn raw(m: &HashMap<u32, u32>) -> Vec<u32> { m.keys().collect::<Vec<_>>() }",
        )]);
        let s = Summaries::build(&m, &g);
        assert!(!summary(&s, &g, "sorted").ret_taint.is_tainted());
        assert!(!summary(&s, &g, "counted").ret_taint.is_tainted());
        assert!(summary(&s, &g, "raw").ret_taint.is_tainted());
    }

    #[test]
    fn wall_clock_and_thread_id_are_value_sources() {
        let (m, g) = built(&[(
            "crates/a/src/lib.rs",
            "pub fn stamp() -> u64 { SystemTime::now().elapsed() } \
             pub fn who() -> ThreadId { std::thread::current().id() }",
        )]);
        let s = Summaries::build(&m, &g);
        assert!(summary(&s, &g, "stamp").ret_taint.is_tainted());
        assert!(summary(&s, &g, "who").ret_taint.is_tainted());
    }

    #[test]
    fn taint_to_output_catches_multi_hop_laundering() {
        let (m, g) = built(&[(
            "crates/a/src/lib.rs",
            "pub fn total(w: &HashMap<String, f64>) -> f64 { w.values().sum::<f64>() } \
             pub fn emit(w: &HashMap<String, f64>, out: &str) { \
               let score = total(w); write_report(out, score); } \
             pub fn write_report(path: &str, v: f64) { io(path, v); }",
        )]);
        let s = Summaries::build(&m, &g);
        let flows = taint_to_output(&m, &g, &s);
        assert_eq!(flows.len(), 1, "{flows:?}");
        assert_eq!(flows[0].sink, "write_report");
        assert!(flows[0].qual.contains("emit"));
    }

    #[test]
    fn protection_infers_guard_and_flags_minority_access() {
        let (m, g) = built(&[(
            "crates/a/src/lib.rs",
            "struct Svc { state: Mutex<Vec<u32>>, pending: usize } \
             impl Svc { \
             fn bump(&mut self) { self.pending += 1; } \
             fn add(&mut self) { let s = self.state.lock().unwrap(); self.bump(); drop(s); } \
             fn drain(&mut self) { let s = self.state.lock().unwrap(); self.bump(); drop(s); } \
             fn tally(&self) -> usize { let s = self.state.lock().unwrap(); self.pending } \
             fn report(&self) -> usize { let s = self.state.lock().unwrap(); self.pending } \
             fn sneak(&mut self) { self.pending += 99; } }",
        )]);
        let p = protection(&m, &g);
        assert_eq!(
            p.guards
                .get(&("Svc".to_string(), "pending".to_string()))
                .map(String::as_str),
            Some("state"),
            "{:?}",
            p.guards
        );
        assert_eq!(p.races.len(), 1, "{:?}", p.races);
        assert!(p.races[0].qual.contains("sneak"));
    }

    #[test]
    fn guard_handoff_through_forwarding_chain() {
        let (m, g) = built(&[(
            "crates/a/src/lib.rs",
            "struct Svc { live: Mutex<Vec<u32>>, parked: Option<G> } \
             impl Svc { \
             fn keep(&mut self, g: G) { self.parked = Some(g); } \
             fn stash(&mut self, g: G) { self.keep(g); } \
             fn pin(&mut self) { let g = self.live.lock().unwrap(); self.stash(g); } }",
        )]);
        let s = Summaries::build(&m, &g);
        assert_eq!(
            summary(&s, &g, "Svc::keep").escaping_params,
            vec![true],
            "direct field store"
        );
        assert_eq!(
            summary(&s, &g, "Svc::stash").escaping_params,
            vec![true],
            "escape is transitive"
        );
        let hs = guard_handoffs(&m, &g, &s);
        assert_eq!(hs.len(), 1, "{hs:?}");
        assert_eq!(hs[0].lock, "live");
        assert!(hs[0].qual.contains("pin"));
    }

    #[test]
    fn derived_values_do_not_count_as_handoffs() {
        let (m, g) = built(&[(
            "crates/a/src/lib.rs",
            "struct Svc { live: Mutex<Vec<u32>>, n: usize } \
             impl Svc { \
             fn set_n(&mut self, n: usize) { self.n = n; } \
             fn ok(&mut self) { let g = self.live.lock().unwrap(); \
               let k = g.len(); drop(g); self.set_n(k); } }",
        )]);
        let s = Summaries::build(&m, &g);
        let hs = guard_handoffs(&m, &g, &s);
        assert!(hs.is_empty(), "{hs:?}");
    }
}
