//! Hand-written recursive-descent parser over the [`crate::lexer`] token
//! stream, producing the lightweight AST in [`crate::ast`].
//!
//! Two stages:
//!
//! 1. **Token trees**: the flat token stream is grouped by balanced
//!    `(`/`[`/`{` delimiters. This is the only stage that can produce
//!    [`ParseError`]s — everything downstream is total.
//! 2. **Items and expressions**: items (fns, impls, mods, structs) are
//!    parsed structurally; function bodies are lowered chain-by-chain.
//!    Operator precedence is deliberately ignored — a statement is parsed
//!    as a sequence of postfix *chains* separated by operator tokens and
//!    wrapped in [`Expr::Other`], which preserves every nested call,
//!    cast, index, and macro for rule traversal.
//!
//! The parser must accept all real workspace code with zero errors (the
//! round-trip test enforces this); unfamiliar syntax degrades to
//! [`Expr::Other`], never to an error.

use crate::ast::{Block, Expr, FnDef, Item, ParseError, SourceFile};
use crate::lexer::{lex, Tok, TokKind};

/// A delimiter-grouped token.
#[derive(Debug)]
enum Tree {
    Leaf(Tok),
    Group {
        delim: char,
        line: u32,
        trees: Vec<Tree>,
    },
}

impl Tree {
    fn line(&self) -> u32 {
        match self {
            Tree::Leaf(t) => t.line,
            Tree::Group { line, .. } => *line,
        }
    }

    fn is_punct(&self, c: char) -> bool {
        matches!(self, Tree::Leaf(t) if t.is_punct(c))
    }

    fn is_ident(&self, s: &str) -> bool {
        matches!(self, Tree::Leaf(t) if t.is_ident(s))
    }

    fn ident(&self) -> Option<&str> {
        match self {
            Tree::Leaf(t) if t.kind == TokKind::Ident => Some(&t.text),
            _ => None,
        }
    }

    fn group(&self, d: char) -> Option<&[Tree]> {
        match self {
            Tree::Group { delim, trees, .. } if *delim == d => Some(trees),
            _ => None,
        }
    }
}

/// Groups tokens into balanced-delimiter trees. Comments are dropped.
fn build_trees(toks: &[Tok], errors: &mut Vec<ParseError>) -> Vec<Tree> {
    // Each stack frame: (delimiter char, open line, children).
    let mut stack: Vec<(char, u32, Vec<Tree>)> = Vec::new();
    let mut top: Vec<Tree> = Vec::new();
    for t in toks {
        if t.kind == TokKind::Comment {
            continue;
        }
        let c = if t.kind == TokKind::Punct {
            t.text.chars().next().unwrap_or(' ')
        } else {
            ' '
        };
        match c {
            '(' | '[' | '{' => stack.push((c, t.line, Vec::new())),
            ')' | ']' | '}' => {
                let want = match c {
                    ')' => '(',
                    ']' => '[',
                    _ => '{',
                };
                match stack.pop() {
                    Some((delim, line, trees)) if delim == want => {
                        let g = Tree::Group { delim, line, trees };
                        match stack.last_mut() {
                            Some((_, _, parent)) => parent.push(g),
                            None => top.push(g),
                        }
                    }
                    Some((delim, line, trees)) => {
                        errors.push(ParseError {
                            line: t.line,
                            message: format!(
                                "mismatched `{c}` closing `{delim}` opened on line {line}"
                            ),
                        });
                        // Recover: close the open group anyway.
                        let g = Tree::Group { delim, line, trees };
                        match stack.last_mut() {
                            Some((_, _, parent)) => parent.push(g),
                            None => top.push(g),
                        }
                    }
                    None => errors.push(ParseError {
                        line: t.line,
                        message: format!("unmatched closing `{c}`"),
                    }),
                }
            }
            _ => {
                let leaf = Tree::Leaf(t.clone());
                match stack.last_mut() {
                    Some((_, _, parent)) => parent.push(leaf),
                    None => top.push(leaf),
                }
            }
        }
    }
    while let Some((delim, line, trees)) = stack.pop() {
        errors.push(ParseError {
            line,
            message: format!("unclosed `{delim}`"),
        });
        let g = Tree::Group { delim, line, trees };
        match stack.last_mut() {
            Some((_, _, parent)) => parent.push(g),
            None => top.push(g),
        }
    }
    top
}

/// Renders a tree slice back to flat text (single-space separated). Used
/// for type ascriptions and other text the rules match by substring.
fn render(trees: &[Tree]) -> String {
    let mut out = String::new();
    render_into(trees, &mut out);
    out
}

fn render_into(trees: &[Tree], out: &mut String) {
    for t in trees {
        if !out.is_empty() && !out.ends_with(' ') {
            out.push(' ');
        }
        match t {
            Tree::Leaf(tok) => out.push_str(&tok.text),
            Tree::Group { delim, trees, .. } => {
                let (open, close) = match delim {
                    '(' => ('(', ')'),
                    '[' => ('[', ']'),
                    _ => ('{', '}'),
                };
                out.push(open);
                render_into(trees, out);
                out.push(close);
            }
        }
    }
}

/// Parses one source file.
pub fn parse_file(rel: &str, src: &str) -> SourceFile {
    let toks = lex(src);
    parse_tokens(rel, &toks)
}

/// Parses an already-lexed token stream (lets the engine lex once and
/// share the stream with the token rules).
pub fn parse_tokens(rel: &str, toks: &[Tok]) -> SourceFile {
    let mut errors = Vec::new();
    let trees = build_trees(toks, &mut errors);
    let items = parse_items(&trees);
    SourceFile {
        rel: rel.to_string(),
        items,
        errors,
    }
}

/// Cursor over a tree slice.
struct P<'a> {
    t: &'a [Tree],
    i: usize,
}

impl<'a> P<'a> {
    fn new(t: &'a [Tree]) -> Self {
        P { t, i: 0 }
    }

    fn peek(&self) -> Option<&'a Tree> {
        self.t.get(self.i)
    }

    fn peek_at(&self, off: usize) -> Option<&'a Tree> {
        self.t.get(self.i + off)
    }

    fn bump(&mut self) -> Option<&'a Tree> {
        let t = self.t.get(self.i);
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn done(&self) -> bool {
        self.i >= self.t.len()
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.peek().is_some_and(|t| t.is_punct(c)) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, s: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_ident(s)) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    /// True when the next two leaves are `::`.
    fn at_path_sep(&self) -> bool {
        self.peek().is_some_and(|t| t.is_punct(':'))
            && self.peek_at(1).is_some_and(|t| t.is_punct(':'))
    }

    /// Skips a balanced `<...>` run starting at the current `<`. `>`
    /// preceded by `-` (i.e. `->` arrows inside generic bounds) does not
    /// close. Returns the rendered interior text.
    fn skip_angles(&mut self) -> String {
        let start = self.i;
        if !self.eat_punct('<') {
            return String::new();
        }
        let mut depth = 1usize;
        let mut prev_minus = false;
        while let Some(t) = self.peek() {
            if t.is_punct('<') {
                depth += 1;
                prev_minus = false;
            } else if t.is_punct('>') && !prev_minus {
                depth -= 1;
                if depth == 0 {
                    self.i += 1;
                    break;
                }
            } else {
                prev_minus = t.is_punct('-');
            }
            self.i += 1;
        }
        let inner = &self.t[start + 1..self.i.saturating_sub(1).max(start + 1)];
        render(inner)
    }

    /// Collects trees until a predicate matches at the current level (the
    /// matching tree is not consumed). Returns the collected range.
    fn take_until(&mut self, stop: impl Fn(&Tree) -> bool) -> &'a [Tree] {
        let start = self.i;
        while let Some(t) = self.peek() {
            if stop(t) {
                break;
            }
            self.i += 1;
        }
        &self.t[start..self.i]
    }
}

/// Attribute facts gathered ahead of an item.
#[derive(Default, Clone, Copy)]
struct Attrs {
    is_test: bool,
    is_cfg_test: bool,
}

/// Consumes `#[...]` / `#![...]` runs, recording `#[test]` and
/// `#[cfg(test)]`.
fn eat_attrs(p: &mut P<'_>) -> Attrs {
    let mut out = Attrs::default();
    loop {
        if !p.peek().is_some_and(|t| t.is_punct('#')) {
            return out;
        }
        // `#` [`!`] `[...]`
        let mut off = 1usize;
        if p.peek_at(off).is_some_and(|t| t.is_punct('!')) {
            off += 1;
        }
        let Some(group) = p.peek_at(off).and_then(|t| t.group('[')) else {
            return out;
        };
        let idents: Vec<&str> = group.iter().filter_map(Tree::ident).collect();
        if idents.first() == Some(&"test") && idents.len() == 1 {
            out.is_test = true;
        }
        if idents.first() == Some(&"cfg") {
            // Look inside cfg(...) for a bare `test`.
            if let Some(inner) = group.get(1).and_then(|t| t.group('(')) {
                if inner.iter().any(|t| t.is_ident("test")) {
                    out.is_cfg_test = true;
                }
            }
        }
        p.i += off + 1;
    }
}

/// Item-introducing keywords (after visibility/modifiers).
const ITEM_KEYWORDS: &[&str] = &[
    "fn",
    "mod",
    "impl",
    "struct",
    "enum",
    "trait",
    "use",
    "const",
    "static",
    "type",
    "macro_rules",
    "extern",
    "union",
];

/// Parses a run of items.
fn parse_items(trees: &[Tree]) -> Vec<Item> {
    let mut p = P::new(trees);
    let mut items = Vec::new();
    while !p.done() {
        let before = p.i;
        if let Some(item) = parse_item(&mut p) {
            items.push(item);
        }
        if p.i == before {
            p.i += 1; // always make progress
        }
    }
    items
}

/// Parses one item, or skips one uninteresting tree.
fn parse_item(p: &mut P<'_>) -> Option<Item> {
    let attrs = eat_attrs(p);
    // Modifiers: `pub` (optionally `pub(crate)`), `const fn`, `async`,
    // `unsafe`, `default`, `extern "C"`.
    loop {
        if p.eat_ident("pub") {
            if p.peek().is_some_and(|t| t.group('(').is_some()) {
                p.i += 1;
            }
            continue;
        }
        // `const` is both a modifier (`const fn`) and an item (`const X`).
        if p.peek().is_some_and(|t| t.is_ident("const"))
            && p.peek_at(1).is_some_and(|t| t.is_ident("fn"))
        {
            p.i += 1;
            continue;
        }
        if p.peek()
            .is_some_and(|t| t.is_ident("async") || t.is_ident("unsafe") || t.is_ident("default"))
            && p.peek_at(1)
                .is_some_and(|n| n.ident().is_some_and(|s| ITEM_KEYWORDS.contains(&s)))
        {
            p.i += 1;
            continue;
        }
        break;
    }
    let kw = p.peek()?.ident()?.to_string();
    match kw.as_str() {
        "fn" => {
            p.i += 1;
            parse_fn(p, attrs).map(Item::Fn)
        }
        "mod" => {
            let line = p.peek().map_or(0, Tree::line);
            p.i += 1;
            let name = p.bump().and_then(Tree::ident).unwrap_or("").to_string();
            if let Some(body) = p.peek().and_then(|t| t.group('{')) {
                p.i += 1;
                Some(Item::Mod {
                    name,
                    line,
                    items: parse_items(body),
                    is_test: attrs.is_cfg_test,
                })
            } else {
                p.eat_punct(';');
                Some(Item::Other)
            }
        }
        "impl" => {
            let line = p.peek().map_or(0, Tree::line);
            p.i += 1;
            if p.peek().is_some_and(|t| t.is_punct('<')) {
                p.skip_angles();
            }
            // Collect the header up to the body; the self type is the last
            // path before the brace (after `for`, when present).
            let header = p.take_until(|t| t.group('{').is_some());
            let ty = impl_self_type(header);
            let items = match p.peek().and_then(|t| t.group('{')) {
                Some(body) => {
                    p.i += 1;
                    parse_items(body)
                }
                None => Vec::new(),
            };
            Some(Item::Impl { ty, line, items })
        }
        "struct" => {
            let line = p.peek().map_or(0, Tree::line);
            p.i += 1;
            let name = p.bump().and_then(Tree::ident).unwrap_or("").to_string();
            if p.peek().is_some_and(|t| t.is_punct('<')) {
                p.skip_angles();
            }
            // Skip a `where` clause.
            let _ = p.take_until(|t| {
                t.group('{').is_some() || t.group('(').is_some() || t.is_punct(';')
            });
            let mut fields = Vec::new();
            if let Some(body) = p.peek().and_then(|t| t.group('{')) {
                p.i += 1;
                for seg in split_top_commas(body) {
                    let mut q = P::new(seg);
                    let _ = eat_attrs(&mut q);
                    if q.eat_ident("pub") && q.peek().is_some_and(|t| t.group('(').is_some()) {
                        q.i += 1;
                    }
                    let fname = q.bump().and_then(Tree::ident).unwrap_or("").to_string();
                    if q.eat_punct(':') {
                        fields.push((fname, render(&q.t[q.i..])));
                    }
                }
            } else if let Some(body) = p.peek().and_then(|t| t.group('(')) {
                p.i += 1;
                for (idx, seg) in split_top_commas(body).into_iter().enumerate() {
                    fields.push((idx.to_string(), render(seg)));
                }
                p.eat_punct(';');
            } else {
                p.eat_punct(';');
            }
            Some(Item::Struct { name, line, fields })
        }
        "trait" => {
            p.i += 1;
            let _name = p.bump().and_then(Tree::ident);
            if p.peek().is_some_and(|t| t.is_punct('<')) {
                p.skip_angles();
            }
            let _ = p.take_until(|t| t.group('{').is_some() || t.is_punct(';'));
            if let Some(body) = p.peek().and_then(|t| t.group('{')) {
                p.i += 1;
                // Trait default methods matter for the call graph; surface
                // them like a module's items (no self-type qualifier).
                Some(Item::Mod {
                    name: String::new(),
                    line: 0,
                    items: parse_items(body),
                    is_test: false,
                })
            } else {
                p.eat_punct(';');
                Some(Item::Other)
            }
        }
        "enum" | "union" => {
            p.i += 1;
            let _name = p.bump().and_then(Tree::ident);
            if p.peek().is_some_and(|t| t.is_punct('<')) {
                p.skip_angles();
            }
            let _ = p.take_until(|t| t.group('{').is_some() || t.is_punct(';'));
            if p.peek().is_some_and(|t| t.group('{').is_some()) {
                p.i += 1;
            } else {
                p.eat_punct(';');
            }
            Some(Item::Other)
        }
        "macro_rules" => {
            p.i += 1;
            p.eat_punct('!');
            let _name = p.bump();
            if p.peek()
                .is_some_and(|t| t.group('{').is_some() || t.group('(').is_some())
            {
                p.i += 1;
            }
            p.eat_punct(';');
            Some(Item::Other)
        }
        "use" | "type" | "static" | "const" | "extern" => {
            // Consume to the terminating `;` (extern blocks: skip the body).
            p.i += 1;
            let _ = p.take_until(|t| t.is_punct(';') || t.group('{').is_some());
            if p.peek().is_some_and(|t| t.group('{').is_some()) {
                p.i += 1;
            }
            p.eat_punct(';');
            Some(Item::Other)
        }
        _ => None,
    }
}

/// Head identifier of an impl block's self type from its header trees.
fn impl_self_type(header: &[Tree]) -> String {
    // After the last top-level `for`, or the whole header when absent.
    let mut start = 0usize;
    for (i, t) in header.iter().enumerate() {
        if t.is_ident("for") {
            start = i + 1;
        }
    }
    let slice = &header[start..];
    // First path segment run: idents separated by `::`; the head is the
    // last segment before generics.
    let mut head = String::new();
    let mut i = 0usize;
    while i < slice.len() {
        match &slice[i] {
            Tree::Leaf(t) if t.kind == TokKind::Ident && !t.text.starts_with('\'') => {
                if t.text != "dyn" && t.text != "mut" {
                    head = t.text.clone();
                }
                i += 1;
            }
            t if t.is_punct(':') || t.is_punct('&') || t.is_punct('*') => i += 1,
            t if t.is_punct('<') => break,
            _ => break,
        }
    }
    head
}

/// Splits a tree slice on top-level commas, tracking `<...>` depth so
/// generic arguments don't split.
fn split_top_commas(trees: &[Tree]) -> Vec<&[Tree]> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut angle = 0i32;
    let mut prev_minus = false;
    for (i, t) in trees.iter().enumerate() {
        if t.is_punct('<') {
            angle += 1;
            prev_minus = false;
        } else if t.is_punct('>') && !prev_minus {
            angle = (angle - 1).max(0);
        } else if t.is_punct(',') && angle == 0 {
            if i > start {
                out.push(&trees[start..i]);
            }
            start = i + 1;
        } else {
            prev_minus = t.is_punct('-');
        }
    }
    if start < trees.len() {
        out.push(&trees[start..]);
    }
    out
}

/// Parses a fn from just after the `fn` keyword.
fn parse_fn(p: &mut P<'_>, attrs: Attrs) -> Option<FnDef> {
    let name_tree = p.bump()?;
    let line = name_tree.line();
    let name = name_tree.ident().unwrap_or("").to_string();
    if p.peek().is_some_and(|t| t.is_punct('<')) {
        p.skip_angles();
    }
    let params = match p.peek().and_then(|t| t.group('(')) {
        Some(args) => {
            p.i += 1;
            parse_params(args)
        }
        None => Vec::new(),
    };
    // Return type: `-> Type` until body, `;`, or `where`.
    let mut ret = String::new();
    if p.peek().is_some_and(|t| t.is_punct('-')) && p.peek_at(1).is_some_and(|t| t.is_punct('>')) {
        p.i += 2;
        let ty = p.take_until(|t| t.group('{').is_some() || t.is_punct(';') || t.is_ident("where"));
        ret = render(ty);
    }
    if p.peek().is_some_and(|t| t.is_ident("where")) {
        let _ = p.take_until(|t| t.group('{').is_some() || t.is_punct(';'));
    }
    let body = match p.peek() {
        Some(t) => match t.group('{') {
            Some(inner) => {
                let bline = t.line();
                p.i += 1;
                Some(parse_block(inner, bline))
            }
            None => {
                p.eat_punct(';');
                None
            }
        },
        None => None,
    };
    Some(FnDef {
        name,
        line,
        params,
        ret,
        body,
        is_test: attrs.is_test || attrs.is_cfg_test,
    })
}

/// Parses a parameter list group into `(name, type text)` pairs; `self`
/// receivers are dropped.
fn parse_params(trees: &[Tree]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for seg in split_top_commas(trees) {
        let mut q = P::new(seg);
        let _ = eat_attrs(&mut q);
        // Receiver forms: `self`, `&self`, `&mut self`, `&'a mut self`.
        let mut r = q.i;
        while seg.get(r).is_some_and(|t| {
            t.is_punct('&')
                || t.is_ident("mut")
                || matches!(t, Tree::Leaf(tok) if tok.text.starts_with('\''))
        }) {
            r += 1;
        }
        if seg.get(r).is_some_and(|t| t.is_ident("self")) {
            continue;
        }
        // Pattern up to the top-level `:` (but not `::`).
        let mut colon = None;
        let mut k = q.i;
        while k < seg.len() {
            if seg[k].is_punct(':') {
                if seg.get(k + 1).is_some_and(|t| t.is_punct(':')) {
                    k += 2;
                    continue;
                }
                colon = Some(k);
                break;
            }
            k += 1;
        }
        let Some(c) = colon else { continue };
        let pat = &seg[q.i..c];
        let name = match pat {
            [single] => single.ident().unwrap_or("_pat").to_string(),
            [m, single] if m.is_ident("mut") => single.ident().unwrap_or("_pat").to_string(),
            _ => "_pat".to_string(),
        };
        out.push((name, render(&seg[c + 1..])));
    }
    out
}

/// Parses a block group's trees into a [`Block`].
fn parse_block(trees: &[Tree], line: u32) -> Block {
    let mut p = P::new(trees);
    let mut stmts = Vec::new();
    let mut items = Vec::new();
    while !p.done() {
        let before = p.i;
        if p.eat_punct(';') {
            continue;
        }
        // Items nested in the block (helper fns, local `use`, nested mods).
        // `const`/`type` inside a body could also be expression starts in
        // exotic code, but treating them as items is always safe here.
        let save = p.i;
        let attrs_probe = eat_attrs(&mut p);
        let is_item = p.peek().is_some_and(|t| {
            t.ident()
                .is_some_and(|s| (ITEM_KEYWORDS.contains(&s) && s != "impl") || s == "pub")
        }) && !p.peek().is_some_and(|t| {
            t.is_ident("const") && {
                // `const { ... }` block expressions are not items.
                p.peek_at(1).is_some_and(|n| n.group('{').is_some())
            }
        });
        if is_item {
            if let Some(item) = parse_item(&mut p) {
                items.push(apply_attrs(item, attrs_probe));
            }
            if p.i == save {
                p.i += 1;
            }
            continue;
        }
        p.i = save;
        // Statement-level attributes (e.g. `#[allow]` on a stmt).
        let _ = eat_attrs(&mut p);
        stmts.push(parse_stmt(&mut p));
        p.eat_punct(';');
        if p.i == before {
            p.i += 1;
        }
    }
    Block { stmts, items, line }
}

/// Re-applies attribute facts to a just-parsed item (the block item path
/// consumes attrs before dispatching).
fn apply_attrs(item: Item, attrs: Attrs) -> Item {
    match item {
        Item::Fn(mut f) => {
            f.is_test = f.is_test || attrs.is_test || attrs.is_cfg_test;
            Item::Fn(f)
        }
        Item::Mod {
            name,
            line,
            items,
            is_test,
        } => Item::Mod {
            name,
            line,
            items,
            is_test: is_test || attrs.is_cfg_test,
        },
        other => other,
    }
}

/// Operator leaves that separate chains inside one statement.
fn is_operator(t: &Tree) -> bool {
    matches!(t, Tree::Leaf(tok) if tok.kind == TokKind::Punct
        && matches!(tok.text.chars().next(), Some('+' | '-' | '*' | '/' | '%' | '<' | '>' | '=' | '&' | '|' | '^' | '!' | '.' | ',' | ':' | '?' | '@' | '$' | '~' | ';' | '#')))
}

/// Parses one statement: `let`, or a chain sequence up to a top-level `;`
/// (not consumed) or a non-operator boundary.
fn parse_stmt(p: &mut P<'_>) -> Expr {
    if p.peek().is_some_and(|t| t.is_ident("let")) {
        return parse_let(p);
    }
    parse_chain_seq(p)
}

/// Parses a whole tree slice as one statement-like expression (used for
/// arg segments, conditions, match-arm bodies).
fn parse_slice(trees: &[Tree]) -> Expr {
    let mut p = P::new(trees);
    if trees.is_empty() {
        return Expr::Other {
            children: Vec::new(),
            line: 0,
        };
    }
    let e = parse_stmt(&mut p);
    if p.done() {
        e
    } else {
        // Leftovers (e.g. `let ... else { }` tails): keep them walkable.
        let line = e.line();
        let mut children = vec![e];
        while !p.done() {
            let before = p.i;
            if p.eat_punct(';') {
                continue;
            }
            children.push(parse_stmt(&mut p));
            if p.i == before {
                p.i += 1;
            }
        }
        Expr::Other { children, line }
    }
}

/// `let [mut] PAT [: TY] [= INIT]`.
fn parse_let(p: &mut P<'_>) -> Expr {
    let line = p.peek().map_or(0, Tree::line);
    p.i += 1; // `let`
    p.eat_ident("mut");
    // Pattern: trees until top-level `:` (not `::`), `=` (not `==`), or end.
    let pat_start = p.i;
    while let Some(t) = p.peek() {
        if t.is_punct(';') {
            break;
        }
        if t.is_punct(':') && !p.peek_at(1).is_some_and(|n| n.is_punct(':')) {
            break;
        }
        if t.is_punct('=') && !p.peek_at(1).is_some_and(|n| n.is_punct('=')) {
            break;
        }
        if t.is_punct(':') {
            p.i += 2; // `::` inside a pattern path
            continue;
        }
        p.i += 1;
    }
    let pat = &p.t[pat_start..p.i];
    let name = match pat {
        [single] => single.ident().map(str::to_string),
        _ => None,
    };
    let mut ty = None;
    if p.peek().is_some_and(|t| t.is_punct(':')) && !p.peek_at(1).is_some_and(|t| t.is_punct(':')) {
        p.i += 1;
        let start = p.i;
        let mut angle = 0i32;
        let mut prev_minus = false;
        while let Some(t) = p.peek() {
            if t.is_punct('<') {
                angle += 1;
                prev_minus = false;
            } else if t.is_punct('>') && !prev_minus {
                angle = (angle - 1).max(0);
            } else if (t.is_punct('=') || t.is_punct(';')) && angle == 0 {
                break;
            } else {
                prev_minus = t.is_punct('-');
            }
            p.i += 1;
        }
        ty = Some(render(&p.t[start..p.i]));
    }
    let mut init = None;
    if p.eat_punct('=') {
        init = Some(Box::new(parse_chain_seq(p)));
    }
    Expr::Let {
        name,
        ty,
        init,
        line,
    }
}

/// Parses a run of chains separated by operator leaves, stopping at a
/// top-level `;` or at a non-operator boundary (which in valid Rust means
/// a new statement after a block-terminated expression).
fn parse_chain_seq(p: &mut P<'_>) -> Expr {
    let line = p.peek().map_or(0, Tree::line);
    let mut children = Vec::new();
    loop {
        if p.done() || p.peek().is_some_and(|t| t.is_punct(';')) {
            break;
        }
        let before = p.i;
        children.push(parse_chain(p));
        if p.i == before {
            p.i += 1;
        }
        // A top-level assignment operator after the first chain turns the
        // statement into `Expr::Assign` (the rhs absorbs the rest).
        if children.len() == 1 && p.i > before {
            if let Some((op, ntoks)) = peek_assign_op(p) {
                p.i += ntoks;
                let lhs = children.pop().expect("len checked");
                let rhs = parse_chain_seq(p);
                return Expr::Assign {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                    line,
                };
            }
        }
        // Continue through operators; `else` glues if/else chains.
        let mut advanced = false;
        while let Some(t) = p.peek() {
            if t.is_punct(';') {
                break;
            }
            if is_operator(t) {
                // Attribute on an expression position: skip its group too.
                if t.is_punct('#') && p.peek_at(1).is_some_and(|n| n.group('[').is_some()) {
                    p.i += 2;
                } else {
                    p.i += 1;
                }
                advanced = true;
            } else if t.is_ident("else") || t.is_ident("in") || t.is_ident("as") {
                // `as` here only when a chain didn't absorb it (defensive).
                p.i += 1;
                advanced = true;
            } else {
                break;
            }
        }
        if !advanced {
            break;
        }
    }
    match children.len() {
        1 => children.pop().expect("len checked"),
        _ => Expr::Other { children, line },
    }
}

/// Recognizes an assignment operator at the cursor: `=` (but not `==` or
/// `=>`), `op=` for the arithmetic and bit operators, and `<<=`/`>>=`.
/// Comparison forms (`<=`, `>=`, `!=`) are *not* assignments. Returns the
/// operator text and the number of leaves it spans.
fn peek_assign_op(p: &P<'_>) -> Option<(String, usize)> {
    let t0 = p.peek()?;
    if t0.is_punct('=') {
        if p.peek_at(1)
            .is_some_and(|t| t.is_punct('=') || t.is_punct('>'))
        {
            return None;
        }
        return Some(("=".to_string(), 1));
    }
    for c in ['<', '>'] {
        if t0.is_punct(c)
            && p.peek_at(1).is_some_and(|t| t.is_punct(c))
            && p.peek_at(2).is_some_and(|t| t.is_punct('='))
        {
            return Some((format!("{c}{c}="), 3));
        }
    }
    for c in ['+', '-', '*', '/', '%', '&', '|', '^'] {
        if t0.is_punct(c) && p.peek_at(1).is_some_and(|t| t.is_punct('=')) {
            // `a += b` — but `a + = b` is not valid Rust, so adjacency of
            // the operator and `=` leaves is decisive here.
            if p.peek_at(2).is_some_and(|t| t.is_punct('=')) {
                return None; // `a + == b` degenerates; leave to the chain
            }
            return Some((format!("{c}="), 2));
        }
    }
    None
}

/// Parses one prefix–primary–postfix chain.
fn parse_chain(p: &mut P<'_>) -> Expr {
    // Prefix tokens.
    while let Some(t) = p.peek() {
        let is_prefix = t.is_punct('&')
            || t.is_punct('*')
            || t.is_punct('-')
            || t.is_punct('!')
            || t.is_ident("mut")
            || t.is_ident("box")
            || t.is_ident("ref")
            || t.is_ident("dyn");
        if is_prefix {
            p.i += 1;
        } else {
            break;
        }
    }
    let Some(first) = p.peek() else {
        return Expr::Other {
            children: Vec::new(),
            line: 0,
        };
    };
    let line = first.line();

    // Keyword-led constructs.
    if first.is_ident("if") || first.is_ident("while") {
        let is_while = first.is_ident("while");
        p.i += 1;
        let cond = p.take_until(|t| t.group('{').is_some());
        let cond = Box::new(parse_slice(cond));
        let body = match p.peek().and_then(|t| t.group('{')) {
            Some(inner) => {
                let bline = p.peek().map_or(line, Tree::line);
                p.i += 1;
                parse_block(inner, bline)
            }
            None => Block {
                stmts: Vec::new(),
                items: Vec::new(),
                line,
            },
        };
        if is_while {
            return postfix(p, Expr::While { cond, body, line });
        }
        let mut else_ = None;
        if p.peek().is_some_and(|t| t.is_ident("else")) {
            p.i += 1;
            else_ = Some(Box::new(parse_chain(p)));
        }
        return postfix(
            p,
            Expr::If {
                cond,
                then: body,
                else_,
                line,
            },
        );
    }
    if first.is_ident("match") {
        p.i += 1;
        let scrut = p.take_until(|t| t.group('{').is_some());
        let scrutinee = Box::new(parse_slice(scrut));
        let arms = match p.peek().and_then(|t| t.group('{')) {
            Some(body) => {
                p.i += 1;
                parse_match_arms(body)
            }
            None => Vec::new(),
        };
        return postfix(
            p,
            Expr::Match {
                scrutinee,
                arms,
                line,
            },
        );
    }
    if first.is_ident("return") || first.is_ident("yield") {
        p.i += 1;
        let value = if p.done() || p.peek().is_some_and(|t| t.is_punct(';') || t.is_punct(',')) {
            None
        } else {
            Some(Box::new(parse_chain_seq(p)))
        };
        return Expr::Return { value, line };
    }
    if first.is_ident("break") {
        p.i += 1;
        // Optional loop label.
        if p.peek()
            .is_some_and(|t| matches!(t, Tree::Leaf(tok) if tok.text.starts_with('\'')))
        {
            p.i += 1;
        }
        let value = if p.done() || p.peek().is_some_and(|t| t.is_punct(';') || t.is_punct(',')) {
            None
        } else {
            Some(Box::new(parse_chain_seq(p)))
        };
        return Expr::Break { value, line };
    }
    if first.is_ident("continue") {
        p.i += 1;
        if p.peek()
            .is_some_and(|t| matches!(t, Tree::Leaf(tok) if tok.text.starts_with('\'')))
        {
            p.i += 1;
        }
        return Expr::Continue { line };
    }
    if first.is_ident("for") {
        p.i += 1;
        let _pat = p.take_until(|t| t.is_ident("in"));
        p.eat_ident("in");
        let iter = p.take_until(|t| t.group('{').is_some());
        let iter = parse_slice(iter);
        let body = match p.peek() {
            Some(t) => match t.group('{') {
                Some(inner) => {
                    let bline = t.line();
                    p.i += 1;
                    parse_block(inner, bline)
                }
                None => Block {
                    stmts: Vec::new(),
                    items: Vec::new(),
                    line,
                },
            },
            None => Block {
                stmts: Vec::new(),
                items: Vec::new(),
                line,
            },
        };
        return Expr::For {
            iter: Box::new(iter),
            body,
            line,
        };
    }
    if first.is_ident("loop") {
        p.i += 1;
        if let Some(body) = p.peek().and_then(|t| t.group('{')) {
            let bline = p.peek().map_or(line, Tree::line);
            p.i += 1;
            return postfix(
                p,
                Expr::Loop {
                    body: parse_block(body, bline),
                    line,
                },
            );
        }
        return parse_chain(p);
    }
    if first.is_ident("unsafe") || first.is_ident("async") || first.is_ident("move") {
        p.i += 1;
        // `async move`, `unsafe {`, bare `move |..|` closures.
        return parse_chain(p);
    }

    // Closures: `|args| body` or `||` body.
    if first.is_punct('|') {
        p.i += 1;
        if !p.eat_punct('|') {
            // Consume the parameter list up to the closing `|`.
            while let Some(t) = p.peek() {
                let done = t.is_punct('|');
                p.i += 1;
                if done {
                    break;
                }
            }
        }
        // Optional `-> Ty` before a braced body.
        if p.peek().is_some_and(|t| t.is_punct('-'))
            && p.peek_at(1).is_some_and(|t| t.is_punct('>'))
        {
            p.i += 2;
            let _ = p.take_until(|t| t.group('{').is_some());
        }
        let body = parse_chain_seq(p);
        return Expr::Closure {
            body: Box::new(body),
            line,
        };
    }

    // Primaries.
    let mut cur = match first {
        Tree::Leaf(tok) if tok.kind == TokKind::Ident => {
            // A path, possibly a macro or struct literal.
            let mut segs = vec![tok.text.clone()];
            p.i += 1;
            loop {
                if p.at_path_sep() {
                    p.i += 2;
                    if p.peek().is_some_and(|t| t.is_punct('<')) {
                        p.skip_angles();
                        continue;
                    }
                    match p.peek().and_then(Tree::ident) {
                        Some(s) => {
                            segs.push(s.to_string());
                            p.i += 1;
                        }
                        None => break,
                    }
                } else {
                    break;
                }
            }
            if p.peek().is_some_and(|t| t.is_punct('!'))
                && p.peek_at(1)
                    .is_some_and(|t| matches!(t, Tree::Group { .. }))
            {
                p.i += 1;
                let g = p.bump().expect("peeked group");
                let inner = match g {
                    Tree::Group {
                        delim: '{', trees, ..
                    } => {
                        vec![Expr::Block(parse_block(trees, g.line()))]
                    }
                    Tree::Group { trees, .. } => split_top_commas(trees)
                        .into_iter()
                        .map(parse_slice)
                        .collect(),
                    Tree::Leaf(_) => Vec::new(),
                };
                Expr::Macro {
                    name: segs.join("::"),
                    inner,
                    line,
                }
            } else if let Some(body) = p.peek().and_then(|t| t.group('{')) {
                // Struct literal `Path { field: expr, .. }`. Keyword-led
                // forms were handled above, so a brace here is a literal.
                p.i += 1;
                let children = split_top_commas(body)
                    .into_iter()
                    .map(|seg| {
                        // Strip `field:` prefixes, keep the value exprs.
                        let mut q = 0usize;
                        if seg.len() >= 2
                            && seg[0].ident().is_some()
                            && seg[1].is_punct(':')
                            && !seg.get(2).is_some_and(|t| t.is_punct(':'))
                        {
                            q = 2;
                        }
                        parse_slice(&seg[q..])
                    })
                    .collect();
                Expr::Other {
                    children: vec![Expr::Path { segs, line }, Expr::Other { children, line }],
                    line,
                }
            } else {
                Expr::Path { segs, line }
            }
        }
        Tree::Leaf(tok) if tok.kind == TokKind::Literal => {
            p.i += 1;
            Expr::Lit {
                text: tok.text.clone(),
                line,
            }
        }
        Tree::Group {
            delim: '{', trees, ..
        } => {
            p.i += 1;
            Expr::Block(parse_block(trees, line))
        }
        Tree::Group { delim, trees, .. } => {
            // Tuple/paren group or array literal.
            let d = *delim;
            p.i += 1;
            let children: Vec<Expr> = split_top_commas(trees)
                .into_iter()
                .map(parse_slice)
                .collect();
            if d == '(' && children.len() == 1 {
                let mut children = children;
                children.pop().expect("len checked")
            } else {
                Expr::Other { children, line }
            }
        }
        Tree::Leaf(_) => {
            // Stray punctuation: consume defensively.
            p.i += 1;
            Expr::Other {
                children: Vec::new(),
                line,
            }
        }
    };
    cur = postfix(p, cur);
    cur
}

/// Applies postfix operations: method calls, field access, calls,
/// indexing, `?`, `.await`, and `as` casts.
fn postfix(p: &mut P<'_>, mut cur: Expr) -> Expr {
    loop {
        // `.` postfix — but not `..` ranges.
        if p.peek().is_some_and(|t| t.is_punct('.'))
            && !p.peek_at(1).is_some_and(|t| t.is_punct('.'))
        {
            let Some(next) = p.peek_at(1) else { break };
            match next {
                Tree::Leaf(tok) if tok.kind == TokKind::Ident => {
                    if tok.text == "await" {
                        p.i += 2;
                        continue;
                    }
                    let mline = tok.line;
                    let method = tok.text.clone();
                    p.i += 2;
                    // Optional turbofish: `::<...>`.
                    let mut turbofish = String::new();
                    if p.at_path_sep() && p.peek_at(2).is_some_and(|t| t.is_punct('<')) {
                        p.i += 2;
                        turbofish = p.skip_angles();
                    }
                    if let Some(args) = p.peek().and_then(|t| t.group('(')) {
                        p.i += 1;
                        let args = split_top_commas(args)
                            .into_iter()
                            .map(parse_slice)
                            .collect();
                        cur = Expr::MethodCall {
                            recv: Box::new(cur),
                            method,
                            turbofish,
                            args,
                            line: mline,
                        };
                    } else {
                        cur = Expr::Field {
                            recv: Box::new(cur),
                            name: method,
                            line: mline,
                        };
                    }
                    continue;
                }
                Tree::Leaf(tok) if tok.kind == TokKind::Literal => {
                    let name = tok.text.clone();
                    let fline = tok.line;
                    p.i += 2;
                    cur = Expr::Field {
                        recv: Box::new(cur),
                        name,
                        line: fline,
                    };
                    continue;
                }
                _ => break,
            }
        }
        if let Some(t) = p.peek() {
            if let Some(args) = t.group('(') {
                let cline = t.line();
                p.i += 1;
                let args = split_top_commas(args)
                    .into_iter()
                    .map(parse_slice)
                    .collect();
                cur = Expr::Call {
                    callee: Box::new(cur),
                    args,
                    line: cline,
                };
                continue;
            }
            if let Some(idx) = t.group('[') {
                let iline = t.line();
                p.i += 1;
                cur = Expr::Index {
                    recv: Box::new(cur),
                    index: Box::new(parse_slice(idx)),
                    line: iline,
                };
                continue;
            }
            if t.is_punct('?') {
                let qline = t.line();
                p.i += 1;
                cur = Expr::Try {
                    expr: Box::new(cur),
                    line: qline,
                };
                continue;
            }
            if t.is_ident("as") {
                let aline = t.line();
                p.i += 1;
                let ty = parse_cast_type(p);
                cur = Expr::Cast {
                    expr: Box::new(cur),
                    ty,
                    line: aline,
                };
                continue;
            }
        }
        break;
    }
    cur
}

/// Parses the type after `as`: reference/pointer sigils, then one path
/// with optional generics, or a slice/array/tuple group.
fn parse_cast_type(p: &mut P<'_>) -> String {
    let start = p.i;
    while p.peek().is_some_and(|t| {
        t.is_punct('&')
            || t.is_punct('*')
            || t.is_ident("mut")
            || t.is_ident("const")
            || t.is_ident("dyn")
            || matches!(t, Tree::Leaf(tok) if tok.text.starts_with('\''))
    }) {
        p.i += 1;
    }
    if p.peek()
        .is_some_and(|t| t.group('[').is_some() || t.group('(').is_some())
    {
        p.i += 1;
    } else {
        // Path with `::` and generics.
        loop {
            if p.peek().and_then(Tree::ident).is_some() {
                p.i += 1;
                if p.peek().is_some_and(|t| t.is_punct('<')) {
                    p.skip_angles();
                }
                if p.at_path_sep() {
                    p.i += 2;
                    continue;
                }
            }
            break;
        }
    }
    render(&p.t[start..p.i])
}

/// Parses a match body into arm expressions (patterns dropped, guards and
/// bodies kept).
fn parse_match_arms(trees: &[Tree]) -> Vec<Expr> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < trees.len() {
        // Find the `=>` of this arm.
        let mut j = i;
        let mut arrow = None;
        while j < trees.len() {
            if trees[j].is_punct('=') && trees.get(j + 1).is_some_and(|t| t.is_punct('>')) {
                arrow = Some(j);
                break;
            }
            j += 1;
        }
        let Some(a) = arrow else {
            // Trailing trees without an arrow: parse loosely and stop.
            if i < trees.len() {
                out.push(parse_slice(&trees[i..]));
            }
            break;
        };
        // Guard: an `if` inside the pattern region.
        if let Some(k) = (i..a).find(|&k| trees[k].is_ident("if")) {
            out.push(parse_slice(&trees[k + 1..a]));
        }
        // Body: trees after `=>` until the arm-separating `,` at top level
        // — or a single block group.
        let body_start = a + 2;
        let mut end = body_start;
        if trees
            .get(body_start)
            .is_some_and(|t| t.group('{').is_some())
        {
            end = body_start + 1;
        } else {
            while end < trees.len() && !trees[end].is_punct(',') {
                end += 1;
            }
        }
        if body_start < trees.len() {
            out.push(parse_slice(&trees[body_start..end.min(trees.len())]));
        }
        i = end;
        if trees.get(i).is_some_and(|t| t.is_punct(',')) {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;

    fn parse(src: &str) -> SourceFile {
        parse_file("crates/x/src/lib.rs", src)
    }

    fn all_exprs(file: &SourceFile) -> Vec<String> {
        let mut out = Vec::new();
        file.for_each_fn(&mut |_, _, def| {
            if let Some(b) = &def.body {
                for s in &b.stmts {
                    s.walk(&mut |e| out.push(format!("{e:?}")));
                }
            }
        });
        out
    }

    #[test]
    fn parses_simple_fn() {
        let f = parse("pub fn add(a: u32, b: u32) -> u32 { a + b }");
        assert!(f.errors.is_empty());
        let mut found = false;
        f.for_each_fn(&mut |ty, is_test, def| {
            assert_eq!(ty, None);
            assert!(!is_test);
            assert_eq!(def.name, "add");
            assert_eq!(def.params.len(), 2);
            assert_eq!(def.ret, "u32");
            found = true;
        });
        assert!(found);
    }

    #[test]
    fn impl_methods_get_type_qualifier() {
        let f = parse("struct Csr; impl Csr { pub fn neighbors(&self, s: u32) -> u32 { s } }");
        let mut quals = Vec::new();
        f.for_each_fn(&mut |ty, _, def| quals.push((ty.map(str::to_string), def.name.clone())));
        assert_eq!(quals, vec![(Some("Csr".into()), "neighbors".into())]);
    }

    #[test]
    fn trait_impl_resolves_self_type_after_for() {
        let f = parse("impl Rule for MyRule { fn check(&self) {} }");
        let mut quals = Vec::new();
        f.for_each_fn(&mut |ty, _, _| quals.push(ty.map(str::to_string)));
        assert_eq!(quals, vec![Some("MyRule".into())]);
    }

    #[test]
    fn cfg_test_mod_marks_fns() {
        let f = parse("#[cfg(test)] mod tests { #[test] fn t() { x.unwrap(); } }");
        let mut tests = Vec::new();
        f.for_each_fn(&mut |_, is_test, def| tests.push((def.name.clone(), is_test)));
        assert_eq!(tests, vec![("t".into(), true)]);
    }

    #[test]
    fn method_chain_and_cast() {
        let f = parse("fn f(v: Vec<usize>) { let n = v.len() as u32; }");
        assert!(f.errors.is_empty());
        let dump = all_exprs(&f).join("\n");
        assert!(dump.contains("Cast"), "cast parsed: {dump}");
        assert!(dump.contains("MethodCall"), "len() parsed: {dump}");
    }

    #[test]
    fn turbofish_collect_captured() {
        let f = parse("fn f(m: std::collections::HashMap<u32, u32>) { let v = m.keys().collect::<Vec<_>>(); }");
        let mut fish = Vec::new();
        f.for_each_fn(&mut |_, _, def| {
            if let Some(b) = &def.body {
                for s in &b.stmts {
                    s.walk(&mut |e| {
                        if let Expr::MethodCall {
                            method, turbofish, ..
                        } = e
                        {
                            fish.push((method.clone(), turbofish.clone()));
                        }
                    });
                }
            }
        });
        assert!(fish
            .iter()
            .any(|(m, t)| m == "collect" && t.contains("Vec")));
    }

    #[test]
    fn for_loop_over_map() {
        let f = parse("fn f(m: HashMap<u32, u32>) { for (k, v) in m.iter() { drop(k); } }");
        let dump = all_exprs(&f).join("\n");
        assert!(dump.contains("For"), "{dump}");
    }

    #[test]
    fn macros_and_struct_literals() {
        let f = parse("fn f() -> P { assert!(a <= b, \"msg\"); P { x: g(), y: 2 } }");
        assert!(f.errors.is_empty());
        let dump = all_exprs(&f).join("\n");
        assert!(dump.contains("Macro"), "{dump}");
        assert!(
            dump.contains("Call"),
            "struct literal field call kept: {dump}"
        );
    }

    #[test]
    fn unbalanced_braces_error() {
        let toks = lex("fn f() { let x = (1; }");
        let mut errors = Vec::new();
        let _ = build_trees(&toks, &mut errors);
        assert!(!errors.is_empty());
    }

    #[test]
    fn ranges_do_not_break_postfix() {
        let f = parse("fn f(n: usize) { for i in 0..n as u32 { g(i); } }");
        assert!(f.errors.is_empty());
        let dump = all_exprs(&f).join("\n");
        assert!(dump.contains("Cast"), "{dump}");
    }

    #[test]
    fn nested_fn_is_visited() {
        let f = parse("fn outer() { fn inner() { h(); } inner(); }");
        let mut names = Vec::new();
        f.for_each_fn(&mut |_, _, def| names.push(def.name.clone()));
        names.sort();
        assert_eq!(names, vec!["inner".to_string(), "outer".to_string()]);
    }

    #[test]
    fn closures_keep_bodies() {
        let f = parse("fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }");
        let dump = all_exprs(&f).join("\n");
        assert!(dump.contains("Closure"), "{dump}");
        assert!(dump.contains("total_cmp"), "{dump}");
    }

    #[test]
    fn match_arm_bodies_walked() {
        let f = parse("fn f(x: Option<u32>) -> u32 { match x { Some(v) => g(v), None => 0, } }");
        let dump = all_exprs(&f).join("\n");
        assert!(dump.contains("Match"), "{dump}");
        assert!(dump.contains("Call"), "{dump}");
    }

    #[test]
    fn if_else_chain_structured() {
        let f = parse("fn f(x: u32) -> u32 { if x > 1 { g(x) } else if x > 0 { 1 } else { 0 } }");
        assert!(f.errors.is_empty());
        let exprs = all_exprs(&f);
        let ifs = exprs.iter().filter(|e| e.starts_with("If {")).count();
        assert_eq!(ifs, 2, "{exprs:?}");
        assert!(exprs.iter().any(|e| e.starts_with("Call")), "{exprs:?}");
    }

    #[test]
    fn while_and_loop_structured() {
        let f = parse(
            "fn f(mut n: u32) { while n > 0 { n -= 1; } loop { if n == 0 { break; } g(); } }",
        );
        assert!(f.errors.is_empty());
        let dump = all_exprs(&f).join("\n");
        assert!(dump.contains("While"), "{dump}");
        assert!(dump.contains("Loop"), "{dump}");
        assert!(dump.contains("Break"), "{dump}");
    }

    #[test]
    fn return_and_try_structured() {
        let f = parse(
            "fn f(o: Option<u32>) -> Option<u32> { let v = o?; if v > 9 { return None; } Some(v + 1) }",
        );
        assert!(f.errors.is_empty());
        let dump = all_exprs(&f).join("\n");
        assert!(dump.contains("Try"), "{dump}");
        assert!(dump.contains("Return"), "{dump}");
    }

    #[test]
    fn assignments_structured() {
        let f = parse("fn f(v: &mut Vec<u64>, i: usize) { v[i] = 1; self.total += g(); }");
        assert!(f.errors.is_empty());
        let dump = all_exprs(&f).join("\n");
        assert_eq!(dump.matches("Assign {").count(), 2, "{dump}");
        assert!(dump.contains("op: \"=\""), "{dump}");
        assert!(dump.contains("op: \"+=\""), "{dump}");
    }

    #[test]
    fn comparisons_are_not_assignments() {
        let f = parse("fn f(a: u32, b: u32) -> bool { a <= b && a == b || a >= b }");
        assert!(f.errors.is_empty());
        let dump = all_exprs(&f).join("\n");
        assert!(!dump.contains("Assign"), "{dump}");
    }
}
