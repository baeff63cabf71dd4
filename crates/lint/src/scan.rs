//! Structural scan over a lexed file: brace/item tracking good enough to
//! attribute findings to functions and modules, recognise `#[cfg(test)]` /
//! `mod tests` regions, resolve `// lint:allow(..)` and `// lint:no_alloc`
//! pragmas, and record which lines carry doc comments or attributes (the
//! hygiene pass walks those).

use crate::lexer::{Comment, Lexed, TokKind, Token};
use std::collections::{BTreeMap, BTreeSet};

/// A function span: the name plus the token-index range of its body.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// Function name as written.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the body's opening `{`.
    pub body_start: usize,
    /// Token index of the matching `}` (tokens.len() if unterminated).
    pub body_end: usize,
    /// Whether a `// lint:no_alloc` marker covers this function.
    pub no_alloc: bool,
}

/// A module span (`mod name { … }`).
#[derive(Debug, Clone)]
pub struct ModSpan {
    /// Module name.
    pub name: String,
    /// Token index of the opening `{`.
    pub body_start: usize,
    /// Token index of the matching `}`.
    pub body_end: usize,
}

/// Everything the rule passes need to know about one file beyond its raw
/// tokens.
#[derive(Debug, Default)]
pub struct FileMap {
    /// Token-index ranges `[start, end]` that are test-only code:
    /// `#[cfg(test)]`-attributed items and `mod tests { … }` bodies.
    pub test_regions: Vec<(usize, usize)>,
    /// All function spans, in source order.
    pub fns: Vec<FnSpan>,
    /// All module spans, in source order.
    pub mods: Vec<ModSpan>,
    /// `line -> rules` suppressed by `// lint:allow(rule, …)` pragmas.
    pub allow: BTreeMap<u32, BTreeSet<String>>,
    /// Lines carrying a doc comment (`///`, `//!`, `/** … */`, `#[doc`).
    pub doc_lines: BTreeSet<u32>,
    /// Lines covered by an attribute (`#[…]` / `#![…]`, all spanned lines).
    pub attr_lines: BTreeSet<u32>,
    /// Lines that contain at least one token or comment (for blank-line
    /// detection when associating doc comments with items).
    pub content_lines: BTreeSet<u32>,
    /// Lines whose comment is a lint pragma (`lint:allow` / `lint:no_alloc`)
    /// — transparent to the doc-comment walk, like attribute lines.
    pub pragma_lines: BTreeSet<u32>,
    /// Lines of `lint:no_alloc` markers that did not attach to any
    /// function — these are reported as findings (a dangling marker means
    /// the invariant it pinned is silently gone).
    pub dangling_no_alloc: Vec<u32>,
}

impl FileMap {
    /// Is the token at `idx` inside a test-only region?
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_regions.iter().any(|&(s, e)| idx >= s && idx <= e)
    }

    /// Is the token at `idx` inside any function body?
    pub fn in_fn_body(&self, idx: usize) -> bool {
        self.fns
            .iter()
            .any(|f| idx > f.body_start && idx < f.body_end)
    }

    /// Name of the innermost function containing token `idx`, if any.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&str> {
        self.fns
            .iter()
            .filter(|f| idx >= f.body_start && idx <= f.body_end)
            .min_by_key(|f| f.body_end - f.body_start)
            .map(|f| f.name.as_str())
    }

    /// Is `rule` suppressed on `line` by an allow pragma?
    pub fn allowed(&self, line: u32, rule: &str) -> bool {
        self.allow.get(&line).is_some_and(|s| s.contains(rule))
    }
}

/// What kind of scope an open `{` belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BraceKind {
    Plain,
    Fn(usize),
    Mod(usize),
}

/// Build the [`FileMap`] for a lexed file.
pub fn scan(lexed: &Lexed<'_>) -> FileMap {
    let mut map = FileMap::default();
    collect_comment_facts(&lexed.comments, &mut map);
    for t in &lexed.tokens {
        map.content_lines.insert(t.line);
    }

    // no_alloc marker lines, consumed front-to-back as functions appear.
    let mut markers: Vec<u32> = Vec::new();
    for c in &lexed.comments {
        if pragma_no_alloc(c.text) {
            markers.push(c.line);
        }
    }
    let mut next_marker = 0usize;

    let toks = &lexed.tokens;
    let mut braces: Vec<BraceKind> = Vec::new();
    // An open test region: (start token idx, brace depth at which it closes).
    let mut test_stack: Vec<(usize, usize)> = Vec::new();
    let mut pending_fn: Option<(String, u32)> = None;
    let mut pending_mod: Option<String> = None;
    // Set when a `#[cfg(test)]` attribute is waiting for its item.
    let mut pending_test_attr: Option<usize> = None;
    // `(`/`[` nesting — a `;` only terminates an item at depth 0 (array
    // types like `[u8; 4]` in signatures carry semicolons).
    let mut group_depth = 0usize;

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct('#') => {
                // Attribute: `#[…]` or `#![…]`. Record its line span and
                // check for cfg(test).
                let mut j = i + 1;
                if j < toks.len() && toks[j].is_punct('!') {
                    j += 1;
                }
                if j < toks.len() && toks[j].is_punct('[') {
                    let (end, is_test, is_doc) = scan_attribute(toks, j);
                    for tok in &toks[i..end.min(toks.len())] {
                        map.attr_lines.insert(tok.line);
                    }
                    if is_doc {
                        map.doc_lines.insert(t.line);
                    }
                    if is_test {
                        pending_test_attr = Some(i);
                    }
                    i = end;
                    continue;
                }
            }
            TokKind::Ident => match t.text {
                "fn" => {
                    // `fn name(` — a declaration; bare `fn(` is a pointer type.
                    if let Some(next) = toks.get(i + 1) {
                        if next.kind == TokKind::Ident {
                            pending_fn = Some((next.text.to_string(), t.line));
                        }
                    }
                }
                "mod" => {
                    if let Some(next) = toks.get(i + 1) {
                        if next.kind == TokKind::Ident {
                            pending_mod = Some(next.text.to_string());
                        }
                    }
                }
                _ => {}
            },
            TokKind::Punct('(') | TokKind::Punct('[') => group_depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => {
                group_depth = group_depth.saturating_sub(1);
            }
            TokKind::Punct(';') if group_depth == 0 => {
                // Ends trait-method declarations, `mod name;`, and
                // brace-less attributed items (`#[cfg(test)] use x;`).
                pending_fn = None;
                pending_mod = None;
                if let Some(start) = pending_test_attr.take() {
                    map.test_regions.push((start, i));
                }
            }
            TokKind::Punct('{') => {
                let kind = if let Some((name, line)) = pending_fn.take() {
                    let no_alloc = next_marker < markers.len() && markers[next_marker] <= line;
                    if no_alloc {
                        next_marker += 1;
                    }
                    map.fns.push(FnSpan {
                        name,
                        line,
                        body_start: i,
                        body_end: toks.len(),
                        no_alloc,
                    });
                    pending_mod = None;
                    BraceKind::Fn(map.fns.len() - 1)
                } else if let Some(name) = pending_mod.take() {
                    let is_tests_mod = name == "tests";
                    map.mods.push(ModSpan {
                        name,
                        body_start: i,
                        body_end: toks.len(),
                    });
                    if is_tests_mod && pending_test_attr.is_none() {
                        pending_test_attr = Some(i);
                    }
                    BraceKind::Mod(map.mods.len() - 1)
                } else {
                    BraceKind::Plain
                };
                if let Some(start) = pending_test_attr.take() {
                    test_stack.push((start, braces.len()));
                }
                braces.push(kind);
            }
            TokKind::Punct('}') => {
                if let Some(kind) = braces.pop() {
                    match kind {
                        BraceKind::Fn(f) => map.fns[f].body_end = i,
                        BraceKind::Mod(m) => map.mods[m].body_end = i,
                        BraceKind::Plain => {}
                    }
                    if let Some(&(start, depth)) = test_stack.last() {
                        if depth == braces.len() {
                            test_stack.pop();
                            map.test_regions.push((start, i));
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    // Unterminated regions (shouldn't happen on compiling code) close at EOF.
    for (start, _) in test_stack {
        map.test_regions.push((start, toks.len()));
    }
    map.dangling_no_alloc = markers[next_marker..].to_vec();
    map
}

/// Scan an attribute starting at the `[` token; returns (index past the
/// closing `]`, contains-cfg-test, is-doc-attr).
fn scan_attribute(toks: &[Token<'_>], open: usize) -> (usize, bool, bool) {
    let mut depth = 0usize;
    let mut has_cfg = false;
    let mut has_test = false;
    let mut is_doc = false;
    let mut j = open;
    while j < toks.len() {
        let t = &toks[j];
        match t.kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return (j + 1, has_cfg && has_test, is_doc);
                }
            }
            TokKind::Ident => match t.text {
                "cfg" => has_cfg = true,
                "test" => has_test = true,
                "doc" if j == open + 1 => is_doc = true,
                _ => {}
            },
            _ => {}
        }
        j += 1;
    }
    (j, has_cfg && has_test, is_doc)
}

/// Extract pragma and doc-line facts from the comment stream.
fn collect_comment_facts(comments: &[Comment<'_>], map: &mut FileMap) {
    for c in comments {
        map.content_lines.insert(c.line);
        let body = c.text;
        if body.starts_with("///")
            || body.starts_with("//!")
            || body.starts_with("/**")
            || body.starts_with("/*!")
        {
            // Multi-line doc blocks mark every line they span.
            let span = body.matches('\n').count() as u32;
            for l in c.line..=c.line + span {
                map.doc_lines.insert(l);
            }
        }
        if let Some(rules) = pragma_allow(body) {
            for rule in rules {
                map.allow.entry(c.line).or_default().insert(rule);
            }
        }
        if pragma_body(body).starts_with("lint:") {
            map.pragma_lines.insert(c.line);
        }
        // Multi-line plain comments still occupy their lines.
        let span = body.matches('\n').count() as u32;
        for l in c.line..=c.line + span {
            map.content_lines.insert(l);
        }
    }
}

/// Strip the comment delimiter and leading whitespace, leaving the body a
/// pragma must be *anchored* at. Anchoring is what lets prose (like this
/// module's own documentation) mention a pragma without enacting it.
fn pragma_body(text: &str) -> &str {
    let body = ["//!", "///", "//", "/*!", "/**", "/*"]
        .iter()
        .find_map(|d| text.strip_prefix(d))
        .unwrap_or(text);
    body.trim_start()
}

/// Parse `lint:allow(rule, rule2)` at the start of a comment, if present.
fn pragma_allow(text: &str) -> Option<Vec<String>> {
    let rest = pragma_body(text).strip_prefix("lint:allow(")?;
    let close = rest.find(')')?;
    Some(
        rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect(),
    )
}

/// Does this comment carry the `lint:no_alloc` marker (anchored)?
fn pragma_no_alloc(text: &str) -> bool {
    pragma_body(text).starts_with("lint:no_alloc")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn map_of(src: &str) -> (FileMap, crate::lexer::Lexed<'_>) {
        let lexed = lex(src);
        let m = scan(&lexed);
        (m, lexed)
    }

    #[test]
    fn fn_spans_and_attribution() {
        let src = "fn outer() { inner_call(); }\nfn second() { x(); }";
        let (m, l) = map_of(src);
        assert_eq!(m.fns.len(), 2);
        let idx = l
            .tokens
            .iter()
            .position(|t| t.is_ident("inner_call"))
            .unwrap();
        assert_eq!(m.enclosing_fn(idx), Some("outer"));
    }

    #[test]
    fn cfg_test_mod_is_a_test_region() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { target(); }\n}";
        let (m, l) = map_of(src);
        let idx = l.tokens.iter().position(|t| t.is_ident("target")).unwrap();
        assert!(m.in_test(idx));
        let lib_idx = l.tokens.iter().position(|t| t.is_ident("lib")).unwrap();
        assert!(!m.in_test(lib_idx));
    }

    #[test]
    fn bare_mod_tests_is_a_test_region() {
        let src = "mod tests { fn t() { target(); } }\nfn lib() { other(); }";
        let (m, l) = map_of(src);
        let idx = l.tokens.iter().position(|t| t.is_ident("target")).unwrap();
        assert!(m.in_test(idx));
        let other = l.tokens.iter().position(|t| t.is_ident("other")).unwrap();
        assert!(!m.in_test(other));
    }

    #[test]
    fn cfg_test_on_single_fn() {
        let src = "#[cfg(test)]\nfn helper() { target(); }\nfn lib() { other(); }";
        let (m, l) = map_of(src);
        let idx = l.tokens.iter().position(|t| t.is_ident("target")).unwrap();
        assert!(m.in_test(idx));
        let other = l.tokens.iter().position(|t| t.is_ident("other")).unwrap();
        assert!(!m.in_test(other));
    }

    #[test]
    fn allow_pragma_parses() {
        let (m, _) =
            map_of("fn f() {\n    let x = y; // lint:allow(panic_freedom, determinism)\n}");
        assert!(m.allowed(2, "panic_freedom"));
        assert!(m.allowed(2, "determinism"));
        assert!(!m.allowed(2, "no_alloc"));
    }

    #[test]
    fn no_alloc_marker_attaches_to_next_fn() {
        let src = "// lint:no_alloc\nfn hot() { work(); }\nfn cold() {}";
        let (m, _) = map_of(src);
        assert!(m.fns[0].no_alloc);
        assert!(!m.fns[1].no_alloc);
        assert!(m.dangling_no_alloc.is_empty());
    }

    #[test]
    fn dangling_no_alloc_marker_is_reported() {
        let (m, _) = map_of("// lint:no_alloc\nconst X: u8 = 1;");
        assert_eq!(m.dangling_no_alloc, vec![1]);
    }

    #[test]
    fn fn_pointer_types_do_not_open_fn_spans() {
        let src = "fn real(cb: fn(usize) -> u8) { cb(1); }";
        let (m, _) = map_of(src);
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].name, "real");
    }

    #[test]
    fn trait_method_decls_do_not_leak_pending_fn() {
        let src = "trait T { fn decl(&self); }\nstruct S { x: u8 }";
        let (m, _) = map_of(src);
        assert!(m.fns.is_empty());
    }

    #[test]
    fn doc_lines_recorded() {
        let (m, _) = map_of("/// docs here\npub fn f() {}\n#[doc = \"x\"]\npub fn g() {}");
        assert!(m.doc_lines.contains(&1));
        assert!(m.doc_lines.contains(&3));
    }
}
