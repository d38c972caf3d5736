//! Intraprocedural control-flow graphs over the lossy AST.
//!
//! [`Cfg::build`] lowers a function body ([`crate::ast::FnDef`]) into
//! statement-level basic blocks: straight-line statement runs connected by
//! branch/join edges for `if`/`match`, back edges for `while`/`loop`/`for`,
//! and early-exit edges for `return`, `break`, `continue`, and the postfix
//! `?` operator. Two properties matter to the dataflow rules built on top:
//!
//! - **Coverage**: every source statement is placed in exactly one block
//!   (structured statements contribute their header expression — the `if`
//!   condition, `match` scrutinee, `for` iterable — and their nested
//!   statements recursively). `cfg_roundtrip.rs` pins this against an
//!   independent count for every function in the workspace.
//! - **Drop points**: when a lexical block closes, a synthetic
//!   [`Stmt::ScopeEnd`] listing the block's `let`-bound names is emitted,
//!   so analyses tracking RAII values (lock guards) see where they die.
//!
//! Early exits nested *inside* a linear statement (`let x = f()?;`,
//! `let y = if c { return 0 } else { 1 };`) are modelled as *may* edges
//! out of the containing block; jumps inside closures stay local to the
//! closure, and `break`/`continue` inside a nested loop expression bind
//! to that loop, not the enclosing one.
//!
//! [`solve_forward`] is a generic worklist solver over any join-semilattice
//! ([`Lattice`]); [`for_each_state`] replays the fixpoint to hand rules the
//! state immediately before each statement.

use std::collections::HashSet;
use std::collections::VecDeque;

use crate::ast::{Block, Expr, FnDef};

/// One entry in a basic block: a source statement or a synthetic marker.
#[derive(Debug)]
pub enum Stmt<'a> {
    /// A source statement, or the header expression of a structured
    /// statement (`if` condition, `match` scrutinee, `for` iterable).
    Expr(&'a Expr),
    /// A lexical scope closed here; the listed `let`-bound names go out
    /// of scope (RAII drop point for guards bound in that scope).
    ScopeEnd(Vec<String>),
}

/// A run of statements with no internal control transfer.
#[derive(Debug, Default)]
pub struct BasicBlock<'a> {
    /// Statements in execution order.
    pub stmts: Vec<Stmt<'a>>,
    /// Successor block indices (deduplicated, in creation order).
    pub succs: Vec<usize>,
}

/// The control-flow graph of one function body.
#[derive(Debug)]
pub struct Cfg<'a> {
    /// All blocks; indices are stable ids.
    pub blocks: Vec<BasicBlock<'a>>,
    /// Function entry block.
    pub entry: usize,
    /// Synthetic exit block (always empty); `return`, `?`, and normal
    /// fallthrough all edge here.
    pub exit: usize,
}

impl<'a> Cfg<'a> {
    /// Builds the CFG for `def`'s body; `None` when the function has no
    /// body (trait method declarations).
    pub fn build(def: &'a FnDef) -> Option<Cfg<'a>> {
        let body = def.body.as_ref()?;
        let mut b = Builder {
            blocks: vec![BasicBlock::default(), BasicBlock::default()],
            exit: 1,
            loops: Vec::new(),
        };
        let entry = 0;
        if let Some(end) = b.lower_block(body, entry) {
            b.edge(end, b.exit);
        }
        Some(Cfg {
            blocks: b.blocks,
            entry,
            exit: 1,
        })
    }

    /// Number of [`Stmt::Expr`] entries across all blocks (the coverage
    /// metric pinned by `cfg_roundtrip.rs`).
    pub fn placed_stmts(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| {
                b.stmts
                    .iter()
                    .filter(|s| matches!(s, Stmt::Expr(_)))
                    .count()
            })
            .sum()
    }

    /// Block indices reachable from `entry` (including `entry` itself).
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![self.entry];
        seen[self.entry] = true;
        while let Some(b) = stack.pop() {
            for &s in &self.blocks[b].succs {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }
}

/// Where a jump nested inside a linear statement can transfer control.
struct Jumps {
    /// Contains `return` or `?` (function exit).
    exit: bool,
    /// Contains `break` binding to the *enclosing* loop.
    brk: bool,
    /// Contains `continue` binding to the *enclosing* loop.
    cont: bool,
}

struct Builder<'a> {
    blocks: Vec<BasicBlock<'a>>,
    exit: usize,
    /// Innermost-last stack of `(continue target, break target)`.
    loops: Vec<(usize, usize)>,
}

impl<'a> Builder<'a> {
    fn new_block(&mut self) -> usize {
        self.blocks.push(BasicBlock::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        let succs = &mut self.blocks[from].succs;
        if !succs.contains(&to) {
            succs.push(to);
        }
    }

    fn push(&mut self, block: usize, stmt: Stmt<'a>) {
        self.blocks[block].stmts.push(stmt);
    }

    /// Lowers a lexical block starting in `cur`. Returns the block where
    /// control falls out the bottom, or `None` when every path diverges.
    /// Emits a [`Stmt::ScopeEnd`] for the block's `let` bindings at the
    /// fallthrough point.
    fn lower_block(&mut self, b: &'a Block, cur: usize) -> Option<usize> {
        let mut cur = Some(cur);
        for s in &b.stmts {
            let c = match cur {
                Some(c) => c,
                // Dead code after a diverging statement still gets placed
                // (coverage invariant); the block is simply unreachable.
                None => self.new_block(),
            };
            cur = self.lower_stmt(s, c);
        }
        let names: Vec<String> = b
            .stmts
            .iter()
            .filter_map(|s| match s {
                Expr::Let { name: Some(n), .. } => Some(n.clone()),
                _ => None,
            })
            .collect();
        if let Some(c) = cur {
            if !names.is_empty() {
                self.push(c, Stmt::ScopeEnd(names));
            }
        }
        cur
    }

    /// Lowers one statement (or branch expression); returns the block
    /// where control continues, or `None` when the statement diverges.
    fn lower_stmt(&mut self, s: &'a Expr, cur: usize) -> Option<usize> {
        match s {
            Expr::If {
                cond, then, else_, ..
            } => {
                let cur = self.lower_linear(cond, cur);
                let then_entry = self.new_block();
                self.edge(cur, then_entry);
                let then_end = self.lower_block(then, then_entry);
                let else_end = match else_ {
                    Some(e) => {
                        let else_entry = self.new_block();
                        self.edge(cur, else_entry);
                        self.lower_stmt(e, else_entry)
                    }
                    // No else: condition-false falls through.
                    None => Some(cur),
                };
                match (then_end, else_end) {
                    (None, None) => None,
                    (t, e) => {
                        let join = self.new_block();
                        if let Some(t) = t {
                            self.edge(t, join);
                        }
                        if let Some(e) = e {
                            self.edge(e, join);
                        }
                        Some(join)
                    }
                }
            }
            Expr::While { cond, body, .. } => {
                let header = self.new_block();
                self.edge(cur, header);
                self.lower_linear(cond, header);
                let body_entry = self.new_block();
                self.edge(header, body_entry);
                let after = self.new_block();
                self.edge(header, after);
                self.loops.push((header, after));
                if let Some(end) = self.lower_block(body, body_entry) {
                    self.edge(end, header);
                }
                self.loops.pop();
                Some(after)
            }
            Expr::Loop { body, .. } => {
                let header = self.new_block();
                self.edge(cur, header);
                let after = self.new_block();
                self.loops.push((header, after));
                if let Some(end) = self.lower_block(body, header) {
                    self.edge(end, header);
                }
                self.loops.pop();
                // `after` is reachable only through `break` edges; with no
                // break it stays an (empty) unreachable sink.
                Some(after)
            }
            Expr::For { iter, body, .. } => {
                let cur = self.lower_linear(iter, cur);
                let header = self.new_block();
                self.edge(cur, header);
                let body_entry = self.new_block();
                self.edge(header, body_entry);
                let after = self.new_block();
                self.edge(header, after);
                self.loops.push((header, after));
                if let Some(end) = self.lower_block(body, body_entry) {
                    self.edge(end, header);
                }
                self.loops.pop();
                Some(after)
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                let cur = self.lower_linear(scrutinee, cur);
                if arms.is_empty() {
                    return Some(cur);
                }
                let mut ends: Vec<usize> = Vec::new();
                for arm in arms {
                    let arm_entry = self.new_block();
                    self.edge(cur, arm_entry);
                    if let Some(end) = self.lower_stmt(arm, arm_entry) {
                        ends.push(end);
                    }
                }
                if ends.is_empty() {
                    return None;
                }
                let join = self.new_block();
                for e in ends {
                    self.edge(e, join);
                }
                Some(join)
            }
            Expr::Block(b) => {
                let entry = self.new_block();
                self.edge(cur, entry);
                self.lower_block(b, entry)
            }
            Expr::Return { .. } => {
                self.push(cur, Stmt::Expr(s));
                self.edge(cur, self.exit);
                None
            }
            Expr::Break { .. } => {
                self.push(cur, Stmt::Expr(s));
                let target = self.loops.last().map_or(self.exit, |&(_, brk)| brk);
                self.edge(cur, target);
                None
            }
            Expr::Continue { .. } => {
                self.push(cur, Stmt::Expr(s));
                let target = self.loops.last().map_or(self.exit, |&(hdr, _)| hdr);
                self.edge(cur, target);
                None
            }
            _ => Some(self.lower_linear(s, cur)),
        }
    }

    /// Places a linear statement in `cur` and adds *may* edges for any
    /// early exits nested inside it. Always falls through.
    fn lower_linear(&mut self, s: &'a Expr, cur: usize) -> usize {
        self.push(cur, Stmt::Expr(s));
        let j = scan_jumps(s);
        if j.exit {
            self.edge(cur, self.exit);
        }
        if j.brk {
            let target = self.loops.last().map_or(self.exit, |&(_, brk)| brk);
            self.edge(cur, target);
        }
        if j.cont {
            let target = self.loops.last().map_or(self.exit, |&(hdr, _)| hdr);
            self.edge(cur, target);
        }
        cur
    }
}

/// Scans a linear statement for control transfers that escape it.
/// `return`/`?` anywhere outside a closure exit the function; `break`/
/// `continue` count only when they bind to the loop *enclosing* the
/// statement — occurrences inside nested loop or closure subtrees are
/// local and ignored.
fn scan_jumps(s: &Expr) -> Jumps {
    // Mark subtrees whose jumps do not escape: closure bodies (all jumps)
    // and nested loop bodies (break/continue). Pointer identity is stable
    // for the duration of the scan.
    let mut closed: HashSet<*const Expr> = HashSet::new();
    let mut looped: HashSet<*const Expr> = HashSet::new();
    s.walk(&mut |e| match e {
        Expr::Closure { body, .. } => {
            body.walk(&mut |c| {
                closed.insert(c as *const Expr);
            });
        }
        Expr::For { body, .. } | Expr::While { body, .. } | Expr::Loop { body, .. } => {
            for st in &body.stmts {
                st.walk(&mut |c| {
                    looped.insert(c as *const Expr);
                });
            }
        }
        _ => {}
    });
    let mut j = Jumps {
        exit: false,
        brk: false,
        cont: false,
    };
    s.walk(&mut |e| {
        if closed.contains(&(e as *const Expr)) {
            return;
        }
        match e {
            Expr::Return { .. } | Expr::Try { .. } => j.exit = true,
            Expr::Break { .. } if !looped.contains(&(e as *const Expr)) => j.brk = true,
            Expr::Continue { .. } if !looped.contains(&(e as *const Expr)) => j.cont = true,
            _ => {}
        }
    });
    j
}

/// A join-semilattice domain for forward dataflow.
pub trait Lattice: Clone {
    /// The ⊥ element — the state of code not yet reached.
    fn bottom() -> Self;
    /// Least upper bound with `other`, in place; returns `true` when
    /// `self` changed (drives the worklist to fixpoint).
    fn join_from(&mut self, other: &Self) -> bool;
}

/// Runs a forward dataflow analysis to fixpoint over `cfg`. `transfer`
/// mutates the state across one statement. Returns the state at the
/// *entry* of every block; unreached blocks keep [`Lattice::bottom`].
pub fn solve_forward<'a, D: Lattice>(
    cfg: &Cfg<'a>,
    entry_state: D,
    transfer: &mut impl FnMut(&Stmt<'a>, &mut D),
) -> Vec<D> {
    let mut states: Vec<D> = (0..cfg.blocks.len()).map(|_| D::bottom()).collect();
    states[cfg.entry] = entry_state;
    let mut queued = vec![false; cfg.blocks.len()];
    let mut work: VecDeque<usize> = VecDeque::new();
    work.push_back(cfg.entry);
    queued[cfg.entry] = true;
    while let Some(b) = work.pop_front() {
        queued[b] = false;
        let mut s = states[b].clone();
        for stmt in &cfg.blocks[b].stmts {
            transfer(stmt, &mut s);
        }
        for &succ in &cfg.blocks[b].succs {
            if states[succ].join_from(&s) && !queued[succ] {
                queued[succ] = true;
                work.push_back(succ);
            }
        }
    }
    states
}

/// Solves the analysis, then replays every block to hand `visit` the
/// state immediately *before* each statement.
pub fn for_each_state<'a, D: Lattice>(
    cfg: &Cfg<'a>,
    entry_state: D,
    transfer: &mut impl FnMut(&Stmt<'a>, &mut D),
    visit: &mut impl FnMut(&Stmt<'a>, &D),
) {
    let states = solve_forward(cfg, entry_state, transfer);
    for (i, block) in cfg.blocks.iter().enumerate() {
        let mut s = states[i].clone();
        for stmt in &block.stmts {
            visit(stmt, &s);
            transfer(stmt, &mut s);
        }
    }
}

/// Solves the analysis and returns the state at the function's single
/// exit block — the effect of the whole body on `entry_state`.
pub fn exit_state<'a, D: Lattice>(
    cfg: &Cfg<'a>,
    entry_state: D,
    transfer: &mut impl FnMut(&Stmt<'a>, &mut D),
) -> D {
    let states = solve_forward(cfg, entry_state, transfer);
    let mut s = states[cfg.exit].clone();
    for stmt in &cfg.blocks[cfg.exit].stmts {
        transfer(stmt, &mut s);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn first_cfg(src: &str) -> (crate::ast::SourceFile, usize) {
        let f = parse_file("crates/x/src/lib.rs", src);
        assert!(f.errors.is_empty(), "parse errors: {:?}", f.errors);
        (f, 0)
    }

    fn build<'a>(f: &'a crate::ast::SourceFile, name: &str) -> Cfg<'a> {
        let mut found = None;
        f.for_each_fn(&mut |_, _, def| {
            if def.name == name && found.is_none() {
                found = Some(def);
            }
        });
        Cfg::build(found.expect("fn present")).expect("fn has body")
    }

    #[test]
    fn straight_line_single_block() {
        let (f, _) = first_cfg("fn f() { let a = 1; let b = a; touch(b); }");
        let cfg = build(&f, "f");
        assert_eq!(cfg.placed_stmts(), 3);
        // Entry holds everything and falls through to exit.
        assert_eq!(cfg.blocks[cfg.entry].succs, vec![cfg.exit]);
        // ScopeEnd lists both bindings.
        let last = cfg.blocks[cfg.entry].stmts.last().expect("stmts");
        match last {
            Stmt::ScopeEnd(names) => assert_eq!(names, &["a", "b"]),
            other => panic!("expected ScopeEnd, got {other:?}"),
        }
    }

    #[test]
    fn if_else_branches_and_join() {
        let (f, _) = first_cfg("fn f(c: bool) { if c { one(); } else { two(); } done(); }");
        let cfg = build(&f, "f");
        // cond + one + two + done
        assert_eq!(cfg.placed_stmts(), 4);
        // Entry (holding the condition) branches two ways.
        assert_eq!(cfg.blocks[cfg.entry].succs.len(), 2);
        let reach = cfg.reachable();
        for (i, b) in cfg.blocks.iter().enumerate() {
            if b.stmts.iter().any(|s| matches!(s, Stmt::Expr(_))) {
                assert!(reach[i], "stmt-bearing block {i} unreachable");
            }
        }
    }

    #[test]
    fn while_has_back_edge_and_exit() {
        let (f, _) = first_cfg("fn f() { while cond() { step(); } after(); }");
        let cfg = build(&f, "f");
        assert_eq!(cfg.placed_stmts(), 3);
        // Find the block holding the condition: it has two successors
        // (body, after) and the body eventually edges back to it.
        let header = cfg
            .blocks
            .iter()
            .position(|b| b.succs.len() == 2 && !b.stmts.is_empty())
            .expect("loop header");
        assert!(
            cfg.blocks.iter().any(|b| b.succs.contains(&header)),
            "no back edge to header"
        );
    }

    #[test]
    fn return_edges_to_exit_and_divergence_tracked() {
        let (f, _) = first_cfg("fn f(c: bool) -> u32 { if c { return 1; } 2 }");
        let cfg = build(&f, "f");
        assert_eq!(cfg.placed_stmts(), 3);
        let ret_block = cfg
            .blocks
            .iter()
            .position(|b| {
                b.stmts
                    .iter()
                    .any(|s| matches!(s, Stmt::Expr(Expr::Return { .. })))
            })
            .expect("return placed");
        assert_eq!(cfg.blocks[ret_block].succs, vec![cfg.exit]);
    }

    #[test]
    fn try_operator_adds_may_exit_edge() {
        let (f, _) = first_cfg("fn f() -> R { let x = open()?; use_it(x); Ok(()) }");
        let cfg = build(&f, "f");
        assert!(
            cfg.blocks[cfg.entry].succs.contains(&cfg.exit),
            "`?` must add a may-exit edge from its block"
        );
    }

    #[test]
    fn break_and_continue_target_enclosing_loop() {
        let (f, _) = first_cfg(
            "fn f() { loop { if done() { break; } if skip() { continue; } work(); } tail(); }",
        );
        let cfg = build(&f, "f");
        // tail() must be reachable (via the break edge).
        let reach = cfg.reachable();
        let tail = cfg
            .blocks
            .iter()
            .position(|b| {
                b.stmts
                    .iter()
                    .any(|s| matches!(s, Stmt::Expr(e) if e.text().contains("tail")))
            })
            .expect("tail placed");
        assert!(reach[tail], "code after loop-with-break must be reachable");
    }

    #[test]
    fn nested_loop_break_stays_local() {
        let (f, _) = first_cfg("fn f() { let x = loop { break 1; }; touch(x); }");
        let cfg = build(&f, "f");
        // The statement-level `let` contains a nested loop whose break is
        // local: no edge out of the entry block except fallthrough.
        assert_eq!(cfg.blocks[cfg.entry].succs, vec![cfg.exit]);
    }

    #[test]
    fn closure_jumps_do_not_escape() {
        let (f, _) = first_cfg("fn f(v: V) { v.retain(|x| { return x > 0; }); after(); }");
        let cfg = build(&f, "f");
        assert_eq!(
            cfg.blocks[cfg.entry].succs,
            vec![cfg.exit],
            "closure-internal return must not add a function exit edge"
        );
    }

    #[test]
    fn match_arms_branch_and_join() {
        let (f, _) = first_cfg(
            "fn f(x: u8) { match x { 0 => zero(), 1 => { one(); } _ => other(), } tail(); }",
        );
        let cfg = build(&f, "f");
        // scrutinee + 3 arm bodies + tail
        assert_eq!(cfg.placed_stmts(), 5);
        assert_eq!(cfg.blocks[cfg.entry].succs.len(), 3);
    }

    #[derive(Clone, PartialEq, Debug)]
    struct Count(u32);
    impl Lattice for Count {
        fn bottom() -> Self {
            Count(0)
        }
        fn join_from(&mut self, other: &Self) -> bool {
            if other.0 > self.0 {
                self.0 = other.0;
                true
            } else {
                false
            }
        }
    }

    #[test]
    fn solver_reaches_fixpoint_on_loops() {
        let (f, _) = first_cfg("fn f() { while c() { step(); } done(); }");
        let cfg = build(&f, "f");
        // Max-count lattice saturates: transfer capped keeps it finite.
        let states = solve_forward(&cfg, Count(0), &mut |_, d: &mut Count| {
            d.0 = (d.0 + 1).min(10);
        });
        // Exit state is derivable; no infinite loop, all states bounded.
        assert!(states.iter().all(|s| s.0 <= 10));
        let mut visited = 0;
        for_each_state(
            &cfg,
            Count(0),
            &mut |_, d: &mut Count| d.0 = (d.0 + 1).min(10),
            &mut |_, _| visited += 1,
        );
        assert_eq!(visited as usize, cfg.placed_stmts());
    }

    #[test]
    fn exit_state_summarizes_whole_body() {
        // Branches join at exit: max over both paths; the loop saturates.
        let (f, _) = first_cfg("fn f(c: bool) { if c { one(); } else { two(); three(); } }");
        let cfg = build(&f, "f");
        let out = exit_state(&cfg, Count(0), &mut |_, d: &mut Count| {
            d.0 = (d.0 + 1).min(10);
        });
        // Longest path through the body: cond + two + three + ScopeEnd ≥ 3.
        assert!(
            out.0 >= 3,
            "exit state must reflect the longest path, got {}",
            out.0
        );
    }
}
