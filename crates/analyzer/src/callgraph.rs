//! Workspace call graph over the [`crate::symbols::WorkspaceModel`].
//!
//! Nodes are function definitions; edges are call sites resolved by a
//! two-tier scheme:
//!
//! 1. **Qualified resolution**: `Csr::from_raw_parts(..)` links to a
//!    function named `from_raw_parts` defined in `impl Csr` (the last two
//!    path segments must match `Type::name`).
//! 2. **Name fallback**: unqualified calls and method calls (`x.rank(..)`)
//!    link to *every* workspace function with that name — except that
//!    `self.method(..)` prefers same-impl candidates when they exist.
//!    This is deliberately conservative: trait-object dispatch cannot be
//!    resolved statically here, and
//!    over-approximating keeps panic-reachability sound.
//!
//! Calls that match no workspace function (std, vendored deps) produce no
//! edge. Test functions are never edge *targets*, so name collisions with
//! test helpers cannot create false reachability.

use std::collections::BTreeMap;

use crate::ast::{Expr, FnDef};
use crate::symbols::{crate_of, WorkspaceModel};

/// How a function can panic directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap()`.
    Unwrap,
    /// `.expect("...")` whose message does not name an invariant.
    NonInvariantExpect,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    PanicMacro(String),
    /// Bare indexing (`x[i]`) with no assert in the function mentioning
    /// the indexed binding.
    Indexing,
}

/// One direct panic source inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// 1-based line.
    pub line: u32,
    /// What panics.
    pub kind: PanicKind,
}

/// One function node.
#[derive(Debug)]
pub struct FnNode {
    /// Display name: `Csr::neighbors` inside `impl Csr`, bare otherwise.
    pub qual: String,
    /// Bare function name.
    pub name: String,
    /// Impl-type qualifier, if any.
    pub ty: Option<String>,
    /// Workspace-relative file path.
    pub file: String,
    /// Owning crate.
    pub crate_name: String,
    /// 1-based line of the definition.
    pub line: u32,
    /// True for test code (attribute- or location-derived).
    pub is_test: bool,
    /// Direct panic sources in the body.
    pub panics: Vec<PanicSite>,
}

/// Method names shadowed by ubiquitous std-library methods. Bare
/// `.name(..)` calls with these names never use name fallback — they are
/// overwhelmingly std calls, and resolving them would connect nearly every
/// function to every workspace impl of `push`/`len`/`get`/...
pub(crate) const STD_METHOD_NAMES: &[&str] = &[
    "new",
    "push",
    "pop",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "insert",
    "remove",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "clone",
    "clear",
    "extend",
    "entry",
    "keys",
    "values",
    "drain",
    "sort",
    "sort_by",
    "sort_unstable",
    "sort_unstable_by",
    "sort_by_key",
    "map",
    "and_then",
    "filter",
    "collect",
    "fold",
    "sum",
    "count",
    "min",
    "max",
    "rev",
    "enumerate",
    "zip",
    "take",
    "skip",
    "chain",
    "flat_map",
    "flatten",
    "cmp",
    "partial_cmp",
    "eq",
    "hash",
    "fmt",
    "write",
    "read",
    "push_str",
    "chars",
    "bytes",
    "split",
    "trim",
    "parse",
    "to_string",
    "to_owned",
    "as_str",
    "as_ref",
    "as_slice",
    "as_bytes",
    "join",
    "last",
    "first",
    "retain",
    "dedup",
    "windows",
    "chunks",
    "copied",
    "cloned",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "ok",
    "err",
    "any",
    "all",
    "find",
    "position",
    "resize",
    "truncate",
    "swap",
    "abs",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "to_vec",
    "starts_with",
    "ends_with",
    "lines",
    "floor",
    "ceil",
    "sqrt",
    "ln",
    "log2",
    "powi",
    "powf",
    "exp",
    "default",
    "with_capacity",
    "reserve",
    "load",
    "store",
    "fetch_add",
    "compare_exchange",
    "lock",
    "try_lock",
];

/// Second-to-last path segment — the qualifier of `Ty::name` / `krate::name`.
fn quali(segs: &[String]) -> &String {
    &segs[segs.len() - 2]
}

/// A call site awaiting resolution.
enum CallDesc {
    /// `a::b::c(..)` — full path segments.
    Path(Vec<String>),
    /// `recv.name(..)`; `self_recv` is true when the receiver is `self`.
    Method { name: String, self_recv: bool },
}

/// The resolved workspace call graph.
pub struct CallGraph {
    /// All function nodes, in deterministic file/definition order.
    pub nodes: Vec<FnNode>,
    edges: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph from every function in the model.
    pub fn build(model: &WorkspaceModel) -> CallGraph {
        let mut nodes: Vec<FnNode> = Vec::new();
        let mut descs: Vec<Vec<CallDesc>> = Vec::new();
        model.for_each_fn(&mut |file, ty, is_test, def| {
            let (panics, calls) = scan_body(def);
            let qual = match ty {
                Some(t) => format!("{t}::{}", def.name),
                None => def.name.clone(),
            };
            nodes.push(FnNode {
                qual,
                name: def.name.clone(),
                ty: ty.map(str::to_string),
                file: file.rel.clone(),
                crate_name: crate_of(&file.rel).to_string(),
                line: def.line,
                is_test,
                panics,
            });
            descs.push(calls);
        });

        // Name index over non-test nodes (tests are never call targets).
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            if !n.is_test {
                by_name.entry(&n.name).or_default().push(i);
            }
        }

        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (src, calls) in descs.iter().enumerate() {
            let src_ty = nodes[src].ty.clone();
            for call in calls {
                let targets: Vec<usize> = match call {
                    CallDesc::Path(segs) => {
                        let Some(name) = segs.last() else { continue };
                        let Some(cands) = by_name.get(name.as_str()) else {
                            continue;
                        };
                        if segs.len() >= 2 {
                            // The qualifier is informative: `Vec::new` must
                            // never resolve to an unrelated workspace `new`.
                            cands
                                .iter()
                                .copied()
                                .filter(|&c| {
                                    nodes[c].ty.as_deref() == Some(quali(segs).as_str())
                                        || nodes[c].crate_name == *quali(segs)
                                })
                                .collect()
                        } else {
                            cands.clone()
                        }
                    }
                    CallDesc::Method { name, self_recv } => {
                        let Some(cands) = by_name.get(name.as_str()) else {
                            continue;
                        };
                        let same_ty: Vec<usize> = if *self_recv {
                            cands
                                .iter()
                                .copied()
                                .filter(|&c| nodes[c].ty == src_ty)
                                .collect()
                        } else {
                            Vec::new()
                        };
                        if !same_ty.is_empty() {
                            same_ty
                        } else if STD_METHOD_NAMES.contains(&name.as_str()) {
                            // Names that shadow ubiquitous std methods would
                            // link nearly everything to everything under name
                            // fallback; the workspace impls of these names are
                            // hot-path entry points checked directly anyway.
                            continue;
                        } else {
                            cands.clone()
                        }
                    }
                };
                edges[src].extend(targets);
            }
            edges[src].sort_unstable();
            edges[src].dedup();
        }
        CallGraph { nodes, edges }
    }

    /// Outgoing call edges of a node.
    pub fn callees(&self, id: usize) -> &[usize] {
        &self.edges[id]
    }

    /// Node ids whose `qual` or `name` equals `name`.
    pub fn find(&self, name: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.qual == name || n.name == name)
            .map(|(i, _)| i)
            .collect()
    }

    /// BFS from `entries`. Returns a parent map: `parent[i] = Some(p)`
    /// when `i` is reachable (`p == i` for the entries themselves),
    /// `None` otherwise. Cycles are handled by the visited set.
    pub fn reachable_from(&self, entries: &[usize]) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut queue: Vec<usize> = Vec::new();
        for &e in entries {
            if parent[e].is_none() {
                parent[e] = Some(e);
                queue.push(e);
            }
        }
        let mut head = 0usize;
        while head < queue.len() {
            let cur = queue[head];
            head += 1;
            for &next in &self.edges[cur] {
                if parent[next].is_none() {
                    parent[next] = Some(cur);
                    queue.push(next);
                }
            }
        }
        parent
    }

    /// Strongly connected components of the call graph in reverse
    /// topological order (callees before callers) — the bottom-up order
    /// a summary-based interprocedural analysis wants. Iterative Tarjan;
    /// each component's member ids are sorted for determinism.
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        let n = self.nodes.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut out: Vec<Vec<usize>> = Vec::new();
        // Explicit DFS frames: (node, next child cursor).
        let mut frames: Vec<(usize, usize)> = Vec::new();
        for root in 0..n {
            if index[root] != usize::MAX {
                continue;
            }
            frames.push((root, 0));
            while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
                if *ci == 0 {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if *ci < self.edges[v].len() {
                    let w = self.edges[v][*ci];
                    *ci += 1;
                    if index[w] == usize::MAX {
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    frames.pop();
                    if let Some(&(p, _)) = frames.last() {
                        low[p] = low[p].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        out.push(comp);
                    }
                }
            }
        }
        out
    }

    /// The entry→node call path implied by a parent map, as `qual` names
    /// (entry first). Truncated in the middle when longer than 6 hops.
    pub fn trace(&self, parent: &[Option<usize>], id: usize) -> Vec<String> {
        let mut path = vec![id];
        let mut cur = id;
        while let Some(p) = parent[cur] {
            if p == cur {
                break;
            }
            path.push(p);
            cur = p;
        }
        path.reverse();
        let names: Vec<String> = path.iter().map(|&i| self.nodes[i].qual.clone()).collect();
        if names.len() <= 6 {
            names
        } else {
            let mut out = names[..3].to_vec();
            out.push("...".to_string());
            out.extend_from_slice(&names[names.len() - 2..]);
            out
        }
    }
}

/// Walks one body, collecting panic sites and call descriptors.
fn scan_body(def: &FnDef) -> (Vec<PanicSite>, Vec<CallDesc>) {
    let mut panics = Vec::new();
    let mut calls = Vec::new();
    let Some(body) = &def.body else {
        return (panics, calls);
    };
    // Pass 1: assert-style macros guard indexing on the bindings they
    // mention anywhere in the function.
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
        s.walk(&mut |e| match e {
            Expr::MethodCall {
                method,
                args,
                line,
                recv,
                ..
            } => {
                match method.as_str() {
                    "unwrap" if args.is_empty() => panics.push(PanicSite {
                        line: *line,
                        kind: PanicKind::Unwrap,
                    }),
                    "expect" => {
                        let invariant = args.iter().any(
                            |a| matches!(a, Expr::Lit { text, .. } if text.contains("invariant")),
                        );
                        if !invariant {
                            panics.push(PanicSite {
                                line: *line,
                                kind: PanicKind::NonInvariantExpect,
                            });
                        }
                    }
                    _ => {}
                }
                let self_recv = matches!(
                    recv.as_ref(),
                    Expr::Path { segs, .. } if segs.len() == 1 && segs[0] == "self"
                );
                calls.push(CallDesc::Method {
                    name: method.clone(),
                    self_recv,
                });
            }
            Expr::Call {
                callee, line: _, ..
            } => {
                if let Expr::Path { segs, .. } = callee.as_ref() {
                    calls.push(CallDesc::Path(segs.clone()));
                }
            }
            Expr::Macro { name, line, .. } => {
                let base = name.rsplit("::").next().unwrap_or(name);
                if matches!(base, "panic" | "unreachable" | "todo" | "unimplemented") {
                    panics.push(PanicSite {
                        line: *line,
                        kind: PanicKind::PanicMacro(base.to_string()),
                    });
                }
            }
            Expr::Index { recv, line, .. } => {
                let guarded = recv
                    .root_ident()
                    .is_some_and(|root| guard_text.contains(root));
                if !guarded {
                    panics.push(PanicSite {
                        line: *line,
                        kind: PanicKind::Indexing,
                    });
                }
            }
            _ => {}
        });
    }
    (panics, calls)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;
    use crate::symbols::WorkspaceModel;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let parsed = files
            .iter()
            .map(|(rel, src)| parse_file(rel, src))
            .collect();
        CallGraph::build(&WorkspaceModel::new(parsed))
    }

    #[test]
    fn cycle_in_call_graph_terminates() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "pub fn ping() { pong(); } pub fn pong() { ping(); }",
        )]);
        let entry = g.find("ping");
        let parent = g.reachable_from(&entry);
        let pong = g.find("pong")[0];
        assert!(parent[pong].is_some(), "cycle must still be traversed");
        assert_eq!(g.trace(&parent, pong), vec!["ping", "pong"]);
    }

    #[test]
    fn cross_crate_edge_resolves() {
        let g = graph(&[
            (
                "crates/searchlite/src/ql.rs",
                "pub fn rank() { kbgraph::helper(); }",
            ),
            (
                "crates/kbgraph/src/lib.rs",
                "pub fn helper() { boom(); } pub fn boom() { panic!(\"x\"); }",
            ),
        ]);
        let parent = g.reachable_from(&g.find("rank"));
        let boom = g.find("boom")[0];
        assert!(parent[boom].is_some());
        assert_eq!(g.trace(&parent, boom), vec!["rank", "helper", "boom"]);
        assert_eq!(
            g.nodes[boom].panics.first().map(|p| p.kind.clone()),
            Some(PanicKind::PanicMacro("panic".into()))
        );
    }

    #[test]
    fn qualified_call_prefers_typed_match() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "struct A; struct B; \
             impl A { pub fn go(&self) {} } \
             impl B { pub fn go(&self) { x.unwrap(); } } \
             pub fn entry() { A::go(); }",
        )]);
        let parent = g.reachable_from(&g.find("entry"));
        let a_go = g.find("A::go")[0];
        let b_go = g.find("B::go")[0];
        assert!(parent[a_go].is_some(), "typed match links");
        assert!(parent[b_go].is_none(), "other impls must not link");
    }

    #[test]
    fn trait_method_falls_back_to_name_resolution() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "trait M { fn expansions(&self); } \
             struct T; impl M for T { fn expansions(&self) { helper(); } } \
             pub fn entry(m: &dyn M) { m.expansions(); } \
             fn helper() {}",
        )]);
        let parent = g.reachable_from(&g.find("entry"));
        let imp = g.find("T::expansions")[0];
        assert!(
            parent[imp].is_some(),
            "dynamic dispatch over-approximates to all impls"
        );
        let helper = g.find("helper")[0];
        assert!(parent[helper].is_some());
    }

    #[test]
    fn test_fns_are_not_targets() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "pub fn entry() { helper(); } \
             #[cfg(test)] mod tests { pub fn helper() { x.unwrap(); } }",
        )]);
        let parent = g.reachable_from(&g.find("entry"));
        let helper = g.find("helper")[0];
        assert!(parent[helper].is_none(), "test helpers never resolve");
    }

    #[test]
    fn panic_sites_classified() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "pub fn f(v: &[u32], o: Option<u32>) -> u32 {\n\
             let a = o.unwrap();\n\
             let b = o.expect(\"no context\");\n\
             let c = o.expect(\"invariant: offsets are monotonic\");\n\
             v[0] + a + b + c\n}",
        )]);
        let f = g.find("f")[0];
        let kinds: Vec<&PanicKind> = g.nodes[f].panics.iter().map(|p| &p.kind).collect();
        assert!(kinds.contains(&&PanicKind::Unwrap));
        assert!(kinds.contains(&&PanicKind::NonInvariantExpect));
        assert!(kinds.contains(&&PanicKind::Indexing));
        assert_eq!(kinds.len(), 3, "invariant expect is allowlisted: {kinds:?}");
    }

    #[test]
    fn sccs_group_cycles_and_order_bottom_up() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "pub fn ping() { pong(); } pub fn pong() { ping(); } \
             pub fn entry() { ping(); leaf(); } pub fn leaf() {}",
        )]);
        let comps = g.sccs();
        // Every node in exactly one component.
        let mut seen: Vec<usize> = comps.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..g.nodes.len()).collect::<Vec<_>>());
        // ping/pong form one two-node component.
        let ping = g.find("ping")[0];
        let pong = g.find("pong")[0];
        let cycle = comps
            .iter()
            .find(|c| c.contains(&ping))
            .expect("ping in some comp");
        assert!(cycle.contains(&pong), "mutual recursion shares a component");
        assert_eq!(cycle.len(), 2);
        // Reverse topological: every callee's component appears no later
        // than its caller's (callees first = bottom-up).
        let mut comp_of = vec![0usize; g.nodes.len()];
        for (ci, c) in comps.iter().enumerate() {
            for &m in c {
                comp_of[m] = ci;
            }
        }
        for v in 0..g.nodes.len() {
            for &w in g.callees(v) {
                assert!(
                    comp_of[w] <= comp_of[v],
                    "callee component must come first: {} -> {}",
                    g.nodes[v].qual,
                    g.nodes[w].qual
                );
            }
        }
    }

    #[test]
    fn assert_guards_indexing() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "pub fn f(v: &[u32], i: usize) -> u32 { assert!(i < v.len()); v[i] }",
        )]);
        let f = g.find("f")[0];
        assert!(g.nodes[f].panics.is_empty(), "{:?}", g.nodes[f].panics);
    }
}
