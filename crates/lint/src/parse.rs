//! Item-tree parser over the token stream from [`crate::lex`].
//!
//! This is not a Rust grammar. It recovers exactly the structure the
//! lint passes need and nothing else:
//!
//! * the **item tree** — functions (with names, `#[cfg(test)]`/
//!   `#[test]` status and generic trait bounds), `impl` blocks (with
//!   the implemented trait and their own bounds), trait definitions
//!   (with their provided methods), modules, enums (with variant
//!   names), and `use` paths;
//! * per-function **statement blocks** — a nested tree where every
//!   braced region becomes a child block, so passes can reason about
//!   "earlier in this block or an enclosing one" (the straight-line
//!   dominator approximation L6 uses);
//! * **match structure** — a statement whose head starts with `match`
//!   has its arms split into pattern tokens and body blocks, which is
//!   what separates an enum variant used as a *pattern* (consumption)
//!   from one used as an *expression* (emission) in L5, and what gives
//!   the state-machine extractor its from-state context.
//!
//! Everything the parser does not understand is preserved as flat
//! token runs — a lint must degrade to "no finding", never to a crash.

use crate::lex::{lex, Tok, TokKind};

/// A parsed source file.
#[derive(Debug)]
pub struct ParsedFile {
    /// Path label used in diagnostics (workspace-relative in CLI use).
    pub path: String,
    /// Top-level items, in source order.
    pub items: Vec<Item>,
    /// `//` and `/* */` comment text per 1-based line.
    pub comments: std::collections::BTreeMap<usize, String>,
}

/// One item in the tree.
#[derive(Debug)]
pub enum Item {
    Fn(FnItem),
    Enum(EnumItem),
    Impl(ImplItem),
    Trait(TraitItem),
    Mod(ModItem),
    Use(UseItem),
    /// Anything else (struct, const, static, type, macro): kept
    /// as its flat token run so per-file token passes still see it.
    Other(OtherItem),
}

/// A function with its body.
#[derive(Debug)]
pub struct FnItem {
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Inside `#[cfg(test)]` / carries `#[test]` / inside a test mod.
    pub in_test: bool,
    /// Signature tokens (between `fn` and the body `{`).
    pub signature: Vec<Tok>,
    /// Traits bounding the fn's generic parameters, from its `<…>` list
    /// and `where` clause (`fn f<E: LockServer>` yields `LockServer`).
    pub bounds: Vec<String>,
    /// False for a bodiless declaration (a required trait method).
    pub has_body: bool,
    pub body: Block,
}

/// An enum definition with its variant names.
#[derive(Debug)]
pub struct EnumItem {
    pub name: String,
    pub line: usize,
    pub in_test: bool,
    /// `(variant name, line)` in declaration order.
    pub variants: Vec<(String, usize)>,
}

/// An `impl` block and the items inside it.
#[derive(Debug)]
pub struct ImplItem {
    /// The implemented type's last path segment (e.g. `G2plEngine`).
    pub type_name: String,
    /// The implemented trait's last path segment, for `impl Trait for
    /// Type` (e.g. `LockServer`).
    pub trait_name: Option<String>,
    /// Traits bounding the impl's generic parameters.
    pub bounds: Vec<String>,
    pub line: usize,
    pub in_test: bool,
    pub items: Vec<Item>,
}

/// A trait definition and the methods it declares or provides.
#[derive(Debug)]
pub struct TraitItem {
    pub name: String,
    pub line: usize,
    pub in_test: bool,
    pub items: Vec<Item>,
}

/// An inline `mod name { … }` (file modules are separate files).
#[derive(Debug)]
pub struct ModItem {
    pub name: String,
    pub line: usize,
    pub in_test: bool,
    pub items: Vec<Item>,
}

/// A `use` declaration, flattened: `use a::{b, c};` yields one item with
/// the full token run (enough for the path-awareness L2 wants).
#[derive(Debug)]
pub struct UseItem {
    pub line: usize,
    pub tokens: Vec<Tok>,
}

/// An item the parser treats as opaque tokens.
#[derive(Debug)]
pub struct OtherItem {
    pub line: usize,
    pub in_test: bool,
    pub tokens: Vec<Tok>,
}

/// A braced region: an ordered list of statements.
#[derive(Debug, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

/// One statement (or statement-like fragment).
#[derive(Debug)]
pub enum Stmt {
    /// Head tokens (up to `;` or a nested block) plus any child blocks
    /// opened by this statement (`if`/`for`/`while`/closures/plain
    /// braces all land here — the pass only needs ordering + nesting).
    Plain {
        line: usize,
        tokens: Vec<Tok>,
        children: Vec<Block>,
    },
    /// A `match` expression: scrutinee tokens and arms.
    Match {
        line: usize,
        scrutinee: Vec<Tok>,
        arms: Vec<Arm>,
    },
}

/// One match arm.
#[derive(Debug)]
pub struct Arm {
    pub line: usize,
    /// Pattern tokens (everything before `=>`, guards included).
    pub pattern: Vec<Tok>,
    pub body: Block,
}

impl Stmt {
    /// First source line of the statement.
    pub fn line(&self) -> usize {
        match self {
            Stmt::Plain { line, .. } | Stmt::Match { line, .. } => *line,
        }
    }
}

/// Parse `source` into an item tree. Infallible by design.
pub fn parse(path: &str, source: &str) -> ParsedFile {
    let lexed = lex(source);
    let mut p = Parser {
        toks: lexed.tokens,
        pos: 0,
    };
    let items = p.items(false, usize::MAX);
    ParsedFile {
        path: path.to_string(),
        items,
        comments: lexed.comments,
    }
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Skip one attribute starting at `#` (cursor on `#`); returns its
    /// flattened text for `cfg(test)` / `test` detection.
    fn attr_text(&mut self) -> String {
        let mut text = String::new();
        self.next(); // '#'
        if self.peek().is_some_and(|t| t.is_punct('!')) {
            self.next();
        }
        if self.peek().is_some_and(|t| t.is_punct('[')) {
            let mut depth = 0;
            while let Some(t) = self.next() {
                if t.is_punct('[') {
                    depth += 1;
                    if depth == 1 {
                        continue;
                    }
                }
                if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if !text.is_empty() {
                    text.push(' ');
                }
                text.push_str(&t.text);
            }
        }
        text
    }

    /// Parse items until `}` at the current nesting (or EOF).
    /// `in_test` is inherited from the enclosing scope.
    fn items(&mut self, in_test: bool, end_at: usize) -> Vec<Item> {
        let mut items = Vec::new();
        let mut pending_test = false;
        while self.pos < end_at {
            let Some(t) = self.peek() else { break };
            if t.is_punct('}') {
                break;
            }
            if t.is_punct('#') {
                let text = self.attr_text();
                if text.contains("cfg ( test")
                    || text.contains("cfg ( all ( test")
                    || text == "test"
                    || text.starts_with("test ")
                    || text.contains(" test )")
                {
                    pending_test = true;
                }
                continue;
            }
            let item_test = in_test || pending_test;
            if t.kind == TokKind::Ident {
                match t.text.as_str() {
                    "fn" => {
                        items.push(Item::Fn(self.fn_item(item_test)));
                        pending_test = false;
                        continue;
                    }
                    "enum" => {
                        items.push(Item::Enum(self.enum_item(item_test)));
                        pending_test = false;
                        continue;
                    }
                    "impl" => {
                        items.push(Item::Impl(self.impl_item(item_test)));
                        pending_test = false;
                        continue;
                    }
                    "trait" => {
                        items.push(Item::Trait(self.trait_item(item_test)));
                        pending_test = false;
                        continue;
                    }
                    "mod" => {
                        if let Some(m) = self.mod_item(item_test) {
                            items.push(m);
                        }
                        pending_test = false;
                        continue;
                    }
                    "use" => {
                        items.push(Item::Use(self.use_item()));
                        pending_test = false;
                        continue;
                    }
                    // Qualifiers before an item keyword: consume and loop.
                    "pub" | "const" | "static" | "unsafe" | "async" | "extern" | "default" => {
                        // `pub fn` etc. — but bare `const NAME: … = …;`
                        // needs the Other fallback, so only treat
                        // `pub`/`unsafe`/`async`/`default` as pass-through
                        // qualifiers; `const fn` is caught by lookahead.
                        if t.text == "pub" {
                            // Skip `pub` and optional `(crate)` etc.
                            self.next();
                            if self.peek().is_some_and(|t| t.is_punct('(')) {
                                self.skip_balanced('(', ')');
                            }
                            if pending_test {
                                // keep the flag for the item that follows
                            }
                            continue;
                        }
                        if (t.text == "unsafe" || t.text == "async" || t.text == "default")
                            || (t.text == "const"
                                && self
                                    .toks
                                    .get(self.pos + 1)
                                    .is_some_and(|n| n.is_ident("fn")))
                            || (t.text == "extern"
                                && self.toks.get(self.pos + 1).map(|n| n.kind)
                                    == Some(TokKind::Str))
                        {
                            self.next();
                            continue;
                        }
                        items.push(Item::Other(self.other_item(item_test)));
                        pending_test = false;
                        continue;
                    }
                    _ => {}
                }
            }
            items.push(Item::Other(self.other_item(item_test)));
            pending_test = false;
        }
        items
    }

    /// Cursor on `fn`.
    fn fn_item(&mut self, in_test: bool) -> FnItem {
        let kw = self.next().unwrap_or(Tok {
            kind: TokKind::Ident,
            text: "fn".into(),
            line: 0,
        }); // unwrap_or keeps this infallible even if the caller's peek lied
        let line = kw.line;
        let name = match self.peek() {
            Some(t) if t.kind == TokKind::Ident => {
                let n = t.text.clone();
                self.next();
                n
            }
            _ => String::new(),
        };
        // Signature: everything until the body `{` or a terminating `;`
        // (trait method declarations / extern fns have no body).
        let mut signature = Vec::new();
        let mut body = Block::default();
        let mut has_body = false;
        while let Some(t) = self.peek() {
            if t.is_punct(';') {
                self.next();
                break;
            }
            if t.is_punct('{') {
                self.next(); // consume '{'
                body = self.block();
                has_body = true;
                break;
            }
            // Balanced skips keep `where T: Fn() -> …` braces from
            // fooling us: parens and angle regions are consumed whole.
            if t.is_punct('(') {
                let mut run = self.balanced('(', ')');
                signature.append(&mut run);
                continue;
            }
            signature.push(self.next().expect("peeked")); // lint:allow(L3): peek() just returned Some
        }
        FnItem {
            name,
            line,
            in_test,
            bounds: bounds_in(&signature),
            signature,
            has_body,
            body,
        }
    }

    /// Cursor on `enum`.
    fn enum_item(&mut self, in_test: bool) -> EnumItem {
        let kw_line = self.next().map_or(0, |t| t.line);
        let name = match self.peek() {
            Some(t) if t.kind == TokKind::Ident => {
                let n = t.text.clone();
                self.next();
                n
            }
            _ => String::new(),
        };
        // Skip generics / where clause to the `{`.
        while let Some(t) = self.peek() {
            if t.is_punct('{') {
                break;
            }
            if t.is_punct(';') {
                self.next();
                return EnumItem {
                    name,
                    line: kw_line,
                    in_test,
                    variants: Vec::new(),
                };
            }
            self.next();
        }
        self.next(); // '{'
        let mut variants = Vec::new();
        // Variants: `Name`, `Name(…)`, `Name { … }`, `Name = expr`,
        // separated by commas; attributes allowed.
        loop {
            match self.peek() {
                None => break,
                Some(t) if t.is_punct('}') => {
                    self.next();
                    break;
                }
                Some(t) if t.is_punct('#') => {
                    self.attr_text();
                }
                Some(t) if t.kind == TokKind::Ident => {
                    variants.push((t.text.clone(), t.line));
                    self.next();
                    // Consume payload / discriminant to the comma or `}`.
                    loop {
                        match self.peek() {
                            None => break,
                            Some(t) if t.is_punct(',') => {
                                self.next();
                                break;
                            }
                            Some(t) if t.is_punct('}') => break,
                            Some(t) if t.is_punct('(') => {
                                self.skip_balanced('(', ')');
                            }
                            Some(t) if t.is_punct('{') => {
                                self.skip_balanced('{', '}');
                            }
                            _ => {
                                self.next();
                            }
                        }
                    }
                }
                _ => {
                    self.next();
                }
            }
        }
        EnumItem {
            name,
            line: kw_line,
            in_test,
            variants,
        }
    }

    /// Cursor on `impl`.
    fn impl_item(&mut self, in_test: bool) -> ImplItem {
        let kw_line = self.next().map_or(0, |t| t.line);
        // Header: `impl<generics> (Trait for)? Type (where …)?`. Names are
        // the last path segment outside angle brackets, so `Bar<E>` is
        // `Bar`; with `for`, the left side is the trait and the right
        // side the implemented type.
        let mut header = Vec::new();
        let mut depth = 0i32;
        let mut left = String::new();
        let mut right = String::new();
        let mut after_for = false;
        let mut in_where = false;
        while let Some(t) = self.peek() {
            if t.is_punct('{') || t.is_punct(';') {
                break;
            }
            let Some(t) = self.next() else { break };
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
            } else if depth == 0 && t.is_ident("for") {
                after_for = true;
            } else if depth == 0 && t.is_ident("where") {
                in_where = true;
            } else if depth == 0 && !in_where && t.kind == TokKind::Ident {
                if after_for {
                    right = t.text.clone();
                } else {
                    left = t.text.clone();
                }
            }
            header.push(t);
        }
        if self.peek().is_some_and(|t| t.is_punct(';')) {
            // `impl Trait for Type;` is not real Rust; bail politely.
            self.next();
        }
        let (type_name, trait_name) = if after_for {
            (right, Some(left))
        } else {
            (left, None)
        };
        if self.peek().is_some_and(|t| t.is_punct('{')) {
            self.next();
        }
        let end = self.matching_brace_end();
        let items = self.items(in_test, end);
        if self.peek().is_some_and(|t| t.is_punct('}')) {
            self.next();
        }
        ImplItem {
            type_name,
            trait_name,
            bounds: bounds_in(&header),
            line: kw_line,
            in_test,
            items,
        }
    }

    /// Cursor on `trait`.
    fn trait_item(&mut self, in_test: bool) -> TraitItem {
        let kw_line = self.next().map_or(0, |t| t.line);
        let name = match self.peek() {
            Some(t) if t.kind == TokKind::Ident => {
                let n = t.text.clone();
                self.next();
                n
            }
            _ => String::new(),
        };
        // Skip generics, supertraits and the where clause to the `{`.
        while let Some(t) = self.peek() {
            if t.is_punct('{') || t.is_punct(';') {
                break;
            }
            self.next();
        }
        let mut items = Vec::new();
        if self.peek().is_some_and(|t| t.is_punct('{')) {
            self.next();
            let end = self.matching_brace_end();
            items = self.items(in_test, end);
            if self.peek().is_some_and(|t| t.is_punct('}')) {
                self.next();
            }
        } else {
            self.next(); // `;`
        }
        TraitItem {
            name,
            line: kw_line,
            in_test,
            items,
        }
    }

    /// Cursor on `mod`. Returns `None` for `mod name;` file modules.
    fn mod_item(&mut self, in_test: bool) -> Option<Item> {
        let kw_line = self.next().map_or(0, |t| t.line);
        let name = match self.peek() {
            Some(t) if t.kind == TokKind::Ident => {
                let n = t.text.clone();
                self.next();
                n
            }
            _ => String::new(),
        };
        match self.peek() {
            Some(t) if t.is_punct(';') => {
                self.next();
                None
            }
            Some(t) if t.is_punct('{') => {
                self.next();
                // A mod literally named `tests` is overwhelmingly a test
                // module even without the attribute in fixture snippets.
                let inner_test = in_test || name == "tests";
                let end = self.matching_brace_end();
                let items = self.items(inner_test, end);
                if self.peek().is_some_and(|t| t.is_punct('}')) {
                    self.next();
                }
                Some(Item::Mod(ModItem {
                    name,
                    line: kw_line,
                    in_test: inner_test,
                    items,
                }))
            }
            _ => None,
        }
    }

    /// Cursor on `use`.
    fn use_item(&mut self) -> UseItem {
        let kw = self.next();
        let line = kw.map_or(0, |t| t.line);
        let mut tokens = Vec::new();
        while let Some(t) = self.peek() {
            if t.is_punct(';') {
                self.next();
                break;
            }
            if t.is_punct('{') {
                let mut run = self.balanced('{', '}');
                tokens.append(&mut run);
                continue;
            }
            tokens.push(self.next().expect("peeked")); // lint:allow(L3): peek() just returned Some
        }
        UseItem { line, tokens }
    }

    /// Opaque item: tokens to the terminating `;` or a balanced `{…}`.
    fn other_item(&mut self, in_test: bool) -> OtherItem {
        let line = self.peek().map_or(0, |t| t.line);
        let mut tokens = Vec::new();
        while let Some(t) = self.peek() {
            if t.is_punct(';') {
                self.next();
                break;
            }
            if t.is_punct('{') {
                let mut run = self.balanced('{', '}');
                tokens.append(&mut run);
                break;
            }
            if t.is_punct('}') {
                // Do not eat the enclosing scope's close brace.
                break;
            }
            tokens.push(self.next().expect("peeked")); // lint:allow(L3): peek() just returned Some
        }
        OtherItem {
            line,
            in_test,
            tokens,
        }
    }

    /// With the cursor just *past* an opening `{`, find the token index
    /// of its matching `}` (or EOF).
    fn matching_brace_end(&self) -> usize {
        let mut depth = 1i32;
        let mut i = self.pos;
        while i < self.toks.len() {
            if self.toks[i].is_punct('{') {
                depth += 1;
            } else if self.toks[i].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            i += 1;
        }
        self.toks.len()
    }

    /// Consume a balanced `open…close` region (cursor on `open`);
    /// returns all tokens including the delimiters.
    fn balanced(&mut self, open: char, close: char) -> Vec<Tok> {
        let mut out = Vec::new();
        let mut depth = 0i32;
        while let Some(t) = self.next() {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
            }
            out.push(t);
            if depth == 0 {
                break;
            }
        }
        out
    }

    fn skip_balanced(&mut self, open: char, close: char) {
        let _ = self.balanced(open, close);
    }

    /// Parse a statement block; cursor just past the opening `{`.
    /// Consumes the matching `}`.
    fn block(&mut self) -> Block {
        let mut stmts = Vec::new();
        loop {
            match self.peek() {
                None => break,
                Some(t) if t.is_punct('}') => {
                    self.next();
                    break;
                }
                Some(t) if t.is_ident("match") => {
                    stmts.push(self.match_stmt());
                }
                _ => {
                    stmts.push(self.plain_stmt());
                }
            }
        }
        Block { stmts }
    }

    /// Cursor on `match`.
    fn match_stmt(&mut self) -> Stmt {
        let kw = self.next();
        let line = kw.map_or(0, |t| t.line);
        let mut scrutinee = Vec::new();
        while let Some(t) = self.peek() {
            if t.is_punct('{') {
                break;
            }
            if t.is_punct('(') {
                let mut run = self.balanced('(', ')');
                scrutinee.append(&mut run);
                continue;
            }
            scrutinee.push(self.next().expect("peeked")); // lint:allow(L3): peek() just returned Some
        }
        if self.peek().is_some_and(|t| t.is_punct('{')) {
            self.next();
        }
        let mut arms = Vec::new();
        loop {
            match self.peek() {
                None => break,
                Some(t) if t.is_punct('}') => {
                    self.next();
                    break;
                }
                _ => {
                    if let Some(arm) = self.arm() {
                        arms.push(arm);
                    }
                }
            }
        }
        Stmt::Match {
            line,
            scrutinee,
            arms,
        }
    }

    /// One match arm: `pattern (if guard)? => body ,?`.
    fn arm(&mut self) -> Option<Arm> {
        let line = self.peek()?.line;
        let mut pattern = Vec::new();
        // Pattern (+ guard) up to `=>`; tuples/slices/structs balanced.
        loop {
            match self.peek() {
                None => return None,
                Some(t) if t.kind == TokKind::FatArrow => {
                    self.next();
                    break;
                }
                Some(t) if t.is_punct('}') => {
                    // Malformed arm; surrender this region.
                    return None;
                }
                Some(t) if t.is_punct('(') => {
                    let mut run = self.balanced('(', ')');
                    pattern.append(&mut run);
                }
                Some(t) if t.is_punct('[') => {
                    let mut run = self.balanced('[', ']');
                    pattern.append(&mut run);
                }
                Some(t) if t.is_punct('{') => {
                    let mut run = self.balanced('{', '}');
                    pattern.append(&mut run);
                }
                _ => pattern.push(self.next()?),
            }
        }
        // Body: a block `{…}` or an expression to the arm-separating
        // comma (at depth 0) or the match's closing `}`.
        let body = if self.peek().is_some_and(|t| t.is_punct('{')) {
            self.next();
            let b = self.block();
            // Optional trailing comma.
            if self.peek().is_some_and(|t| t.is_punct(',')) {
                self.next();
            }
            b
        } else {
            // Expression arm: gather as one plain statement.
            let expr_line = self.peek().map_or(line, |t| t.line);
            let mut tokens = Vec::new();
            let mut children = Vec::new();
            loop {
                match self.peek() {
                    None => break,
                    Some(t) if t.is_punct(',') => {
                        self.next();
                        break;
                    }
                    Some(t) if t.is_punct('}') => break,
                    Some(t) if t.is_ident("match") => {
                        // Nested match in an expression arm: recurse.
                        let m = self.match_stmt();
                        children.push(Block { stmts: vec![m] });
                    }
                    Some(t) if t.is_punct('(') => {
                        let mut run = self.balanced('(', ')');
                        tokens.append(&mut run);
                    }
                    Some(t) if t.is_punct('{') => {
                        self.next();
                        children.push(self.block());
                    }
                    _ => {
                        if let Some(t) = self.next() {
                            tokens.push(t);
                        }
                    }
                }
            }
            Block {
                stmts: vec![Stmt::Plain {
                    line: expr_line,
                    tokens,
                    children,
                }],
            }
        };
        Some(Arm {
            line,
            pattern,
            body,
        })
    }

    /// A plain statement: head tokens up to `;` (depth 0) plus child
    /// blocks for every brace region it opens.
    fn plain_stmt(&mut self) -> Stmt {
        let line = self.peek().map_or(0, |t| t.line);
        let mut tokens = Vec::new();
        let mut children = Vec::new();
        loop {
            match self.peek() {
                None => break,
                Some(t) if t.is_punct(';') => {
                    self.next();
                    break;
                }
                Some(t) if t.is_punct('}') => break,
                Some(t) if t.is_ident("match") => {
                    let m = self.match_stmt();
                    children.push(Block { stmts: vec![m] });
                    // A match used as a trailing expression may end the
                    // statement; a following `;` is consumed next loop.
                }
                Some(t) if t.is_punct('{') => {
                    self.next();
                    children.push(self.block());
                    // `if c { } else { }` / `loop {}` continue the same
                    // statement; only a `;` or `}` ends it. But a block
                    // followed by a fresh statement keyword also ends it
                    // (`if c { } let x = …`). Heuristic: end unless the
                    // next token continues the expression.
                    if let Some(t) = self.peek() {
                        let cont = t.is_ident("else")
                            || t.is_punct('.')
                            || t.is_punct('?')
                            || t.is_punct(';')
                            || t.is_punct(',')
                            || t.is_punct(')');
                        if !cont {
                            break;
                        }
                    }
                }
                Some(t) if t.is_punct('(') => {
                    let mut run = self.balanced('(', ')');
                    // Closures and call arguments may open brace blocks
                    // inside parens; surface them as children too so
                    // ordering passes see into them.
                    tokens.append(&mut run);
                }
                _ => {
                    if let Some(t) = self.next() {
                        tokens.push(t);
                    }
                }
            }
        }
        Stmt::Plain {
            line,
            tokens,
            children,
        }
    }
}

/// The traits bounding the generic parameters of a fn signature or an
/// impl header: the bounds in a leading `<…>` list and in a `where`
/// clause, each path by its last segment. `<E: a::LockServer + Sized, F>`
/// yields `LockServer` and `Sized`; lifetimes, `?Sized` and the argument
/// types of a bound (`Fn(u32) -> u32`) yield nothing.
pub fn bounds_in(toks: &[Tok]) -> Vec<String> {
    let generics_end = if toks.first().is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0i32;
        toks.iter()
            .position(|t| {
                if t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct('>') {
                    depth -= 1;
                }
                depth == 0
            })
            .unwrap_or(toks.len())
    } else {
        0
    };
    let mut out = Vec::new();
    let mut scan = |run: &[Tok]| {
        // `run` holds comma-separated `param: Bound + Bound` predicates.
        let mut depth = 0i32;
        let mut in_bound = false;
        let mut skip = false; // inside a bound's `-> Ret`
        for (i, t) in run.iter().enumerate() {
            if t.is_punct('<') || t.is_punct('(') {
                depth += 1;
            } else if t.is_punct('>') || t.is_punct(')') {
                depth -= 1;
            } else if depth > 0 {
                // A bound's own generic or argument types.
            } else if t.is_punct(',') {
                in_bound = false;
                skip = false;
            } else if t.is_punct(':') {
                in_bound = true;
            } else if t.is_punct('+') {
                skip = false;
            } else if t.kind == TokKind::ThinArrow {
                skip = true;
            } else if in_bound
                && !skip
                && t.kind == TokKind::Ident
                && run.get(i + 1).map(|n| n.kind) != Some(TokKind::PathSep)
                && !(i > 0 && run[i - 1].is_punct('?'))
            {
                out.push(t.text.clone());
            }
        }
    };
    if generics_end > 0 {
        scan(&toks[1..generics_end]);
    }
    let mut depth = 0i32;
    let rest = if generics_end > 0 {
        generics_end + 1
    } else {
        0
    };
    for (i, t) in toks.iter().enumerate().skip(rest) {
        if t.is_punct('<') || t.is_punct('(') {
            depth += 1;
        } else if t.is_punct('>') || t.is_punct(')') {
            depth -= 1;
        } else if depth == 0 && t.is_ident("where") {
            scan(&toks[i + 1..]);
            break;
        }
    }
    out
}

/// Depth-first visit of every function in the item tree (top-level,
/// inside impls, traits and mods), with the enclosing-impl type name.
pub fn walk_fns<'a>(items: &'a [Item], f: &mut dyn FnMut(&'a FnItem, Option<&'a str>)) {
    walk_scoped_fns(items, &mut |func, scope| {
        f(func, scope.imp.map(|i| i.type_name.as_str()));
    });
}

/// Where a function sits: its enclosing impl or trait definition.
#[derive(Clone, Copy, Default)]
pub struct FnScope<'a> {
    pub imp: Option<&'a ImplItem>,
    /// Set for a method declared or provided by a trait definition.
    pub trait_def: Option<&'a TraitItem>,
}

/// Depth-first visit of every function in the item tree, with its scope.
pub fn walk_scoped_fns<'a>(items: &'a [Item], f: &mut dyn FnMut(&'a FnItem, FnScope<'a>)) {
    fn go<'a>(items: &'a [Item], scope: FnScope<'a>, f: &mut dyn FnMut(&'a FnItem, FnScope<'a>)) {
        for item in items {
            match item {
                Item::Fn(func) => f(func, scope),
                Item::Impl(imp) => go(
                    &imp.items,
                    FnScope {
                        imp: Some(imp),
                        trait_def: None,
                    },
                    f,
                ),
                Item::Trait(tr) => go(
                    &tr.items,
                    FnScope {
                        imp: None,
                        trait_def: Some(tr),
                    },
                    f,
                ),
                Item::Mod(m) => go(&m.items, scope, f),
                _ => {}
            }
        }
    }
    go(items, FnScope::default(), f);
}

/// Depth-first visit of every enum in the item tree.
pub fn walk_enums<'a>(items: &'a [Item], f: &mut dyn FnMut(&'a EnumItem)) {
    for item in items {
        match item {
            Item::Enum(e) => f(e),
            Item::Impl(imp) => walk_enums(&imp.items, f),
            Item::Trait(tr) => walk_enums(&tr.items, f),
            Item::Mod(m) => walk_enums(&m.items, f),
            _ => {}
        }
    }
}

/// Depth-first visit of every statement in a block (match arms
/// included), in source order.
pub fn walk_stmts<'a>(block: &'a Block, f: &mut dyn FnMut(&'a Stmt)) {
    for stmt in &block.stmts {
        f(stmt);
        match stmt {
            Stmt::Plain { children, .. } => {
                for c in children {
                    walk_stmts(c, f);
                }
            }
            Stmt::Match { arms, .. } => {
                for arm in arms {
                    walk_stmts(&arm.body, f);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fns(src: &str) -> Vec<(String, bool)> {
        let file = parse("t.rs", src);
        let mut out = Vec::new();
        walk_fns(&file.items, &mut |f, _| {
            out.push((f.name.clone(), f.in_test));
        });
        out
    }

    #[test]
    fn finds_fns_in_impls_and_mods() {
        let src = "struct S;\nimpl S { fn a(&self) {} }\nmod inner { pub fn b() {} }\nfn c() {}";
        let names = fns(src);
        assert_eq!(
            names,
            vec![
                ("a".to_string(), false),
                ("b".to_string(), false),
                ("c".to_string(), false)
            ]
        );
    }

    #[test]
    fn cfg_test_marks_fns_and_mods() {
        let src = "#[cfg(test)]\nmod tests { fn helper() {} #[test] fn t() {} }\nfn prod() {}";
        let names = fns(src);
        assert_eq!(
            names,
            vec![
                ("helper".to_string(), true),
                ("t".to_string(), true),
                ("prod".to_string(), false)
            ]
        );
    }

    #[test]
    fn enum_variants_are_collected() {
        let src = "pub enum TraceKind { A, B(u32), C { x: u8 }, D = 4 }";
        let file = parse("t.rs", src);
        let mut got = Vec::new();
        walk_enums(&file.items, &mut |e| {
            got.push((
                e.name.clone(),
                e.variants
                    .iter()
                    .map(|(v, _)| v.clone())
                    .collect::<Vec<_>>(),
            ));
        });
        assert_eq!(
            got,
            vec![(
                "TraceKind".to_string(),
                vec!["A".into(), "B".into(), "C".into(), "D".into()]
            )]
        );
    }

    #[test]
    fn match_arms_split_pattern_and_body() {
        let src = "fn f(s: K) { match s { K::A | K::B => { x(); } K::C => y(), _ => {} } }";
        let file = parse("t.rs", src);
        let mut found = false;
        walk_fns(&file.items, &mut |f, _| {
            if let Some(Stmt::Match { arms, .. }) = f.body.stmts.first() {
                assert_eq!(arms.len(), 3);
                let pat0: Vec<&str> = arms[0].pattern.iter().map(|t| t.text.as_str()).collect();
                assert!(pat0.contains(&"A") && pat0.contains(&"B"));
                assert_eq!(arms[1].body.stmts.len(), 1);
                found = true;
            }
        });
        assert!(found);
    }

    #[test]
    fn nested_blocks_become_children() {
        let src = "fn f() { if a { b(); } else { c(); } d(); }";
        let file = parse("t.rs", src);
        walk_fns(&file.items, &mut |f, _| {
            assert_eq!(f.body.stmts.len(), 2, "{:?}", f.body);
            if let Stmt::Plain { children, .. } = &f.body.stmts[0] {
                assert_eq!(children.len(), 2, "then + else blocks");
            } else {
                panic!("expected plain stmt");
            }
        });
    }

    #[test]
    fn impl_type_name_prefers_for_target() {
        let src = "impl fmt::Display for Thing { fn fmt(&self) {} }";
        let file = parse("t.rs", src);
        let mut seen = None;
        walk_fns(&file.items, &mut |_, ty| seen = ty.map(String::from));
        assert_eq!(seen.as_deref(), Some("Thing"));
    }

    #[test]
    fn guards_stay_in_pattern() {
        let src = "fn f(s: K, on: bool) { match s { K::A if on => x(), _ => {} } }";
        let file = parse("t.rs", src);
        walk_fns(&file.items, &mut |f, _| {
            if let Some(Stmt::Match { arms, .. }) = f.body.stmts.first() {
                let pat: Vec<&str> = arms[0].pattern.iter().map(|t| t.text.as_str()).collect();
                assert!(pat.contains(&"if") && pat.contains(&"on"));
            }
        });
    }

    #[test]
    fn impl_records_trait_and_bounds() {
        let src = "impl<E: a::LockServer + Sized, F> Protocol for Wrap<E, F> where F: Fn(u32) -> Out { fn f(&self) {} }";
        let file = parse("t.rs", src);
        let Some(Item::Impl(imp)) = file.items.first() else {
            panic!("expected an impl: {:?}", file.items);
        };
        assert_eq!(imp.type_name, "Wrap");
        assert_eq!(imp.trait_name.as_deref(), Some("Protocol"));
        assert_eq!(imp.bounds, ["LockServer", "Sized", "Fn"]);
    }

    #[test]
    fn fn_bounds_and_trait_methods() {
        let src = "trait T { fn req(&mut self); fn provided<P: Protocol>(&self, p: Vec<P>) where P: ?Sized + 'static {} }\n\
                   fn g<'a, E: LockServer>(e: &'a mut E) -> Option<Vec<u8>> { None }";
        let file = parse("t.rs", src);
        let mut got = Vec::new();
        walk_scoped_fns(&file.items, &mut |f, scope| {
            got.push((
                f.name.clone(),
                f.bounds.clone(),
                f.has_body,
                scope.trait_def.map(|t| t.name.clone()),
            ));
        });
        assert_eq!(
            got,
            vec![
                ("req".to_string(), vec![], false, Some("T".to_string())),
                (
                    "provided".to_string(),
                    vec!["Protocol".to_string()],
                    true,
                    Some("T".to_string())
                ),
                ("g".to_string(), vec!["LockServer".to_string()], true, None),
            ]
        );
    }
}
