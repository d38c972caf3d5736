//! Lightweight AST for the v2 analysis layer.
//!
//! The parser ([`crate::parser`]) produces one [`SourceFile`] per workspace
//! file: a tree of items (functions, impls, modules, structs) whose function
//! bodies are lowered into a deliberately small expression language. The AST
//! is *lossy by design* — operator precedence, patterns, and type structure
//! are flattened — but it preserves exactly what the cross-file rules need:
//! call sites, method chains, casts, indexing, macro invocations, `for`
//! loops, and `let` bindings with their type ascriptions.
//!
//! Everything a rule cannot interpret parses into [`Expr::Other`] with its
//! children preserved, so traversal ([`Expr::walk`]) still reaches every
//! nested call site. Parse *errors* are reserved for structural damage
//! (unbalanced delimiters); ordinary unfamiliar syntax must never error.

/// A parse error. The parser is total over well-delimited input; errors
/// only arise from unbalanced `(`/`[`/`{` nesting.
#[derive(Debug, Clone)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// One parsed workspace file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// Top-level items.
    pub items: Vec<Item>,
    /// Structural parse errors (empty for all well-formed Rust).
    pub errors: Vec<ParseError>,
}

/// A top-level or nested item.
#[derive(Debug)]
pub enum Item {
    /// A function definition.
    Fn(FnDef),
    /// An inline module: `mod name { ... }`.
    Mod {
        /// Module name.
        name: String,
        /// 1-based line of the `mod` keyword.
        line: u32,
        /// Items inside the module body.
        items: Vec<Item>,
        /// True when the module carries `#[cfg(test)]`.
        is_test: bool,
    },
    /// An `impl` block; `ty` is the head identifier of the self type
    /// (`Csr` for `impl Csr`, `NanUnsafeSort` for `impl Rule for NanUnsafeSort`).
    Impl {
        /// Head identifier of the implemented-on type.
        ty: String,
        /// 1-based line of the `impl` keyword.
        line: u32,
        /// Items (mostly functions) inside the block.
        items: Vec<Item>,
    },
    /// A struct definition with named fields (tuple structs keep numeric
    /// field names "0", "1", ...).
    Struct {
        /// Type name.
        name: String,
        /// 1-based line.
        line: u32,
        /// `(field name, type text)` pairs.
        fields: Vec<(String, String)>,
    },
    /// Anything else (enums, traits without bodies we track, uses, consts).
    Other,
}

/// A function definition.
#[derive(Debug)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// `(param name, type text)` pairs; `self` receivers are skipped.
    pub params: Vec<(String, String)>,
    /// Return type text after `->`, empty for `()`.
    pub ret: String,
    /// Body block; `None` for trait method declarations.
    pub body: Option<Block>,
    /// True when the function carries `#[test]` or lives under
    /// `#[cfg(test)]` (set by the parser from enclosing context).
    pub is_test: bool,
}

/// A `{ ... }` block lowered to a statement list.
#[derive(Debug)]
pub struct Block {
    /// Statements (and the trailing expression, if any) in order.
    pub stmts: Vec<Expr>,
    /// Items nested inside the block (e.g. helper `fn`s).
    pub items: Vec<Item>,
    /// 1-based line of the opening brace.
    pub line: u32,
}

/// A lowered expression.
#[derive(Debug)]
pub enum Expr {
    /// A path: `foo`, `Csr::from_raw_parts`, `self`.
    Path {
        /// `::`-separated segments (turbofish generics dropped).
        segs: Vec<String>,
        /// 1-based line.
        line: u32,
    },
    /// A literal token (string, char, number).
    Lit {
        /// Literal source text, quotes included.
        text: String,
        /// 1-based line.
        line: u32,
    },
    /// A call through a path or arbitrary callee: `f(a)`, `Csr::new(x)`.
    Call {
        /// Callee expression (usually `Expr::Path`).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
        /// 1-based line of the opening paren.
        line: u32,
    },
    /// A method call: `recv.name::<T>(args)`.
    MethodCall {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Method name.
        method: String,
        /// Turbofish text (`Vec<_>` for `collect::<Vec<_>>()`), empty if none.
        turbofish: String,
        /// Arguments.
        args: Vec<Expr>,
        /// 1-based line of the method name.
        line: u32,
    },
    /// Field access or tuple index: `recv.name`, `recv.0`.
    Field {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Field name ("0" for tuple fields).
        name: String,
        /// 1-based line.
        line: u32,
    },
    /// A macro invocation: `name!(...)` / `name![...]` / `name!{...}`.
    Macro {
        /// Macro path joined with `::` (usually one segment).
        name: String,
        /// Loosely parsed interior expressions.
        inner: Vec<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// An `expr as Type` cast.
    Cast {
        /// The cast operand.
        expr: Box<Expr>,
        /// Target type text (`u32`, `&[u8]`, ...).
        ty: String,
        /// 1-based line of the `as`.
        line: u32,
    },
    /// Indexing: `recv[index]`.
    Index {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
        /// 1-based line of the opening bracket.
        line: u32,
    },
    /// A `for pat in iter { body }` loop.
    For {
        /// The iterated expression.
        iter: Box<Expr>,
        /// Loop body.
        body: Block,
        /// 1-based line of the `for`.
        line: u32,
    },
    /// A `let` statement.
    Let {
        /// Bound name when the pattern is a single identifier.
        name: Option<String>,
        /// Type ascription text, if any.
        ty: Option<String>,
        /// Initializer.
        init: Option<Box<Expr>>,
        /// 1-based line of the `let`.
        line: u32,
    },
    /// A closure; parameters are dropped, the body is kept.
    Closure {
        /// Closure body expression.
        body: Box<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// A nested block expression.
    Block(Block),
    /// An `if cond { then } [else ...]` expression. `else_` holds the
    /// else branch: another [`Expr::If`] for `else if`, an
    /// [`Expr::Block`] for a plain `else { ... }`.
    If {
        /// Condition (`if let` keeps the binding inside as an `Expr::Let`).
        cond: Box<Expr>,
        /// Then branch.
        then: Block,
        /// Else branch, if any.
        else_: Option<Box<Expr>>,
        /// 1-based line of the `if`.
        line: u32,
    },
    /// A `while cond { body }` loop (`while let` keeps its binding in
    /// `cond`).
    While {
        /// Loop condition.
        cond: Box<Expr>,
        /// Loop body.
        body: Block,
        /// 1-based line of the `while`.
        line: u32,
    },
    /// A bare `loop { body }`.
    Loop {
        /// Loop body.
        body: Block,
        /// 1-based line of the `loop`.
        line: u32,
    },
    /// A `match scrutinee { ... }`. Arms hold guard and body expressions
    /// in source order; patterns are dropped.
    Match {
        /// Matched expression.
        scrutinee: Box<Expr>,
        /// Arm guards and bodies.
        arms: Vec<Expr>,
        /// 1-based line of the `match`.
        line: u32,
    },
    /// `return [value]` (also covers `yield`).
    Return {
        /// Returned value, if any.
        value: Option<Box<Expr>>,
        /// 1-based line.
        line: u32,
    },
    /// `break [value]` (loop labels are dropped).
    Break {
        /// Break value, if any.
        value: Option<Box<Expr>>,
        /// 1-based line.
        line: u32,
    },
    /// `continue` (loop labels are dropped).
    Continue {
        /// 1-based line.
        line: u32,
    },
    /// The postfix `?` operator: `expr?`.
    Try {
        /// Operand.
        expr: Box<Expr>,
        /// 1-based line of the `?`.
        line: u32,
    },
    /// An assignment or compound assignment: `lhs = rhs`, `lhs += rhs`,
    /// `lhs <<= rhs`, ...
    Assign {
        /// Operator text (`=`, `+=`, `<<=`, ...).
        op: String,
        /// Assignment target.
        lhs: Box<Expr>,
        /// Assigned value.
        rhs: Box<Expr>,
        /// 1-based line of the operator.
        line: u32,
    },
    /// Any structured node the rules don't interpret directly (binary
    /// operator chains, tuples, array literals). Children are preserved
    /// for traversal.
    Other {
        /// Child expressions in source order.
        children: Vec<Expr>,
        /// 1-based line of the first token.
        line: u32,
    },
}

impl Expr {
    /// 1-based line of the node.
    pub fn line(&self) -> u32 {
        match self {
            Expr::Path { line, .. }
            | Expr::Lit { line, .. }
            | Expr::Call { line, .. }
            | Expr::MethodCall { line, .. }
            | Expr::Field { line, .. }
            | Expr::Macro { line, .. }
            | Expr::Cast { line, .. }
            | Expr::Index { line, .. }
            | Expr::For { line, .. }
            | Expr::Let { line, .. }
            | Expr::Closure { line, .. }
            | Expr::If { line, .. }
            | Expr::While { line, .. }
            | Expr::Loop { line, .. }
            | Expr::Match { line, .. }
            | Expr::Return { line, .. }
            | Expr::Break { line, .. }
            | Expr::Continue { line, .. }
            | Expr::Try { line, .. }
            | Expr::Assign { line, .. }
            | Expr::Other { line, .. } => *line,
            Expr::Block(b) => b.line,
        }
    }

    /// Preorder walk over this expression and every nested child,
    /// including blocks of `for` loops and nested block expressions.
    /// Items nested inside blocks are *not* entered (they are separate
    /// definitions, walked via their own `FnDef`).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Path { .. } | Expr::Lit { .. } => {}
            Expr::Call { callee, args, .. } => {
                callee.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            Expr::MethodCall { recv, args, .. } => {
                recv.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Field { recv, .. } => recv.walk(f),
            Expr::Macro { inner, .. } => {
                for e in inner {
                    e.walk(f);
                }
            }
            Expr::Cast { expr, .. } => expr.walk(f),
            Expr::Index { recv, index, .. } => {
                recv.walk(f);
                index.walk(f);
            }
            Expr::For { iter, body, .. } => {
                iter.walk(f);
                for s in &body.stmts {
                    s.walk(f);
                }
            }
            Expr::Let { init, .. } => {
                if let Some(e) = init {
                    e.walk(f);
                }
            }
            Expr::Closure { body, .. } => body.walk(f),
            Expr::Block(b) => {
                for s in &b.stmts {
                    s.walk(f);
                }
            }
            Expr::If {
                cond, then, else_, ..
            } => {
                cond.walk(f);
                for s in &then.stmts {
                    s.walk(f);
                }
                if let Some(e) = else_ {
                    e.walk(f);
                }
            }
            Expr::While { cond, body, .. } => {
                cond.walk(f);
                for s in &body.stmts {
                    s.walk(f);
                }
            }
            Expr::Loop { body, .. } => {
                for s in &body.stmts {
                    s.walk(f);
                }
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                scrutinee.walk(f);
                for a in arms {
                    a.walk(f);
                }
            }
            Expr::Return { value, .. } | Expr::Break { value, .. } => {
                if let Some(e) = value {
                    e.walk(f);
                }
            }
            Expr::Continue { .. } => {}
            Expr::Try { expr, .. } => expr.walk(f),
            Expr::Assign { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            Expr::Other { children, .. } => {
                for c in children {
                    c.walk(f);
                }
            }
        }
    }

    /// Flattens the node back to approximate source text (identifier and
    /// punctuation soup). Used by heuristic rules to name operands in
    /// messages and to match guard expressions.
    pub fn text(&self) -> String {
        let mut out = String::new();
        self.write_text(&mut out);
        out
    }

    fn write_text(&self, out: &mut String) {
        match self {
            Expr::Path { segs, .. } => out.push_str(&segs.join("::")),
            Expr::Lit { text, .. } => out.push_str(text),
            Expr::Call { callee, args, .. } => {
                callee.write_text(out);
                out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    a.write_text(out);
                }
                out.push(')');
            }
            Expr::MethodCall {
                recv, method, args, ..
            } => {
                recv.write_text(out);
                out.push('.');
                out.push_str(method);
                out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    a.write_text(out);
                }
                out.push(')');
            }
            Expr::Field { recv, name, .. } => {
                recv.write_text(out);
                out.push('.');
                out.push_str(name);
            }
            Expr::Macro { name, .. } => {
                out.push_str(name);
                out.push_str("!(..)");
            }
            Expr::Cast { expr, ty, .. } => {
                expr.write_text(out);
                out.push_str(" as ");
                out.push_str(ty);
            }
            Expr::Index { recv, index, .. } => {
                recv.write_text(out);
                out.push('[');
                index.write_text(out);
                out.push(']');
            }
            Expr::For { .. } => out.push_str("for .. {}"),
            Expr::Let { name, .. } => {
                out.push_str("let ");
                if let Some(n) = name {
                    out.push_str(n);
                }
            }
            Expr::Closure { .. } => out.push_str("|..| .."),
            Expr::Block(_) => out.push_str("{..}"),
            Expr::If { cond, .. } => {
                out.push_str("if ");
                cond.write_text(out);
                out.push_str(" {..}");
            }
            Expr::While { cond, .. } => {
                out.push_str("while ");
                cond.write_text(out);
                out.push_str(" {..}");
            }
            Expr::Loop { .. } => out.push_str("loop {..}"),
            Expr::Match { scrutinee, .. } => {
                out.push_str("match ");
                scrutinee.write_text(out);
                out.push_str(" {..}");
            }
            Expr::Return { value, .. } => {
                out.push_str("return");
                if let Some(v) = value {
                    out.push(' ');
                    v.write_text(out);
                }
            }
            Expr::Break { .. } => out.push_str("break"),
            Expr::Continue { .. } => out.push_str("continue"),
            Expr::Try { expr, .. } => {
                expr.write_text(out);
                out.push('?');
            }
            Expr::Assign { op, lhs, rhs, .. } => {
                lhs.write_text(out);
                out.push(' ');
                out.push_str(op);
                out.push(' ');
                rhs.write_text(out);
            }
            Expr::Other { children, .. } => {
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    c.write_text(out);
                }
            }
        }
    }

    /// The leftmost identifier of the expression (`out` for
    /// `out.targets.len()`), used to correlate guards with operands.
    pub fn root_ident(&self) -> Option<&str> {
        match self {
            Expr::Path { segs, .. } => segs.first().map(String::as_str),
            Expr::Call { callee, .. } => callee.root_ident(),
            Expr::MethodCall { recv, .. } => recv.root_ident(),
            Expr::Field { recv, .. } => recv.root_ident(),
            Expr::Cast { expr, .. } => expr.root_ident(),
            Expr::Index { recv, .. } => recv.root_ident(),
            Expr::If { cond, .. } | Expr::While { cond, .. } => cond.root_ident(),
            Expr::Match { scrutinee, .. } => scrutinee.root_ident(),
            Expr::Try { expr, .. } => expr.root_ident(),
            Expr::Assign { lhs, .. } => lhs.root_ident(),
            Expr::Return { value, .. } | Expr::Break { value, .. } => {
                value.as_deref().and_then(Expr::root_ident)
            }
            Expr::Other { children, .. } => children.iter().find_map(|c| c.root_ident()),
            _ => None,
        }
    }
}

impl SourceFile {
    /// Preorder walk over every function in the file (module- and
    /// impl-nested included, plus helper fns nested inside bodies).
    /// The callback receives the impl-type qualifier (`Some("Csr")` inside
    /// `impl Csr`) and whether the function is test code.
    pub fn for_each_fn<'a>(&'a self, f: &mut impl FnMut(Option<&'a str>, bool, &'a FnDef)) {
        fn rec<'a>(
            items: &'a [Item],
            ty: Option<&'a str>,
            in_test: bool,
            f: &mut impl FnMut(Option<&'a str>, bool, &'a FnDef),
        ) {
            for item in items {
                match item {
                    Item::Fn(def) => {
                        let is_test = in_test || def.is_test;
                        f(ty, is_test, def);
                        if let Some(body) = &def.body {
                            rec_block(body, ty, is_test, f);
                        }
                    }
                    Item::Mod { items, is_test, .. } => {
                        rec(items, None, in_test || *is_test, f);
                    }
                    Item::Impl { ty: t, items, .. } => {
                        rec(items, Some(t.as_str()), in_test, f);
                    }
                    Item::Struct { .. } | Item::Other => {}
                }
            }
        }
        fn rec_block<'a>(
            b: &'a Block,
            ty: Option<&'a str>,
            in_test: bool,
            f: &mut impl FnMut(Option<&'a str>, bool, &'a FnDef),
        ) {
            rec(&b.items, ty, in_test, f);
            // Blocks nested in statements may themselves hold items; the
            // statement walk does not enter items, so descend explicitly.
            for s in &b.stmts {
                s.walk(&mut |e| match e {
                    Expr::Block(inner) => rec(&inner.items, ty, in_test, f),
                    Expr::For { body, .. } | Expr::While { body, .. } | Expr::Loop { body, .. } => {
                        rec(&body.items, ty, in_test, f)
                    }
                    Expr::If { then, .. } => rec(&then.items, ty, in_test, f),
                    _ => {}
                });
            }
        }
        rec(&self.items, None, false, f)
    }
}
