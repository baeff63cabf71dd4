//! Workspace call graph — the back half of the whole-workspace analyzer.
//!
//! Consumes the per-file [`FileFacts`] and
//! builds one static call graph over every function in the workspace.
//! Resolution is name-based with receiver-type narrowing, mirroring how
//! the resolver classified each call site:
//!
//! - **free calls** resolve against free functions by name, preferring
//!   same-file over same-crate over anywhere (handles shadowed names the
//!   way the compiler's scoping usually does);
//! - **`self.m()` / `Self::m()`** resolve against methods of the
//!   caller's enclosing impl type;
//! - **`x.m()`** (unknown receiver) resolves against *every* workspace
//!   method named `m` — deliberately over-approximate, which is the
//!   sound direction for the invariant passes;
//! - **`Type::f()` / `module::f()` / `witag_x::f()`** resolve through
//!   the type/crate indexes, with `crate`/`self`/`super` heads pinned to
//!   the calling crate;
//! - **`std::` / `core::` / known std module heads / prelude free fns**
//!   are External — outside the workspace by construction;
//! - anything else that finds no definition is **Unknown**, and the
//!   no_alloc pass reports Unknown edges at marked boundaries instead of
//!   silently dropping them.
//!
//! Node ids are assigned in (sorted file, source order) — fully
//! deterministic, so evidence chains are byte-stable at any thread count.

use crate::resolve::{CallKind, FileFacts, HitKind, TokenHit};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

/// Free functions from the std prelude (or universally glob-imported in
/// this workspace) that arrive as bare `name(…)` calls: External, not
/// Unknown, when no workspace definition shadows them.
const PRELUDE_FNS: &[&str] = &["drop", "size_of", "from_fn", "min", "max", "swap", "replace", "take"];

/// Std module heads: `head::…::f()` with one of these heads is a std
/// call, not an unresolved workspace edge.
const STD_MODULE_HEADS: &[&str] = &[
    "iter", "mem", "fmt", "cmp", "ops", "ptr", "slice", "str", "array", "char", "f32", "f64",
    "io", "env", "process", "collections", "hash", "convert", "num", "time", "thread",
];

/// Method names that overwhelmingly mean a std type's method at a call
/// site (`s.parse()`, `v.len()`, …). A bare `x.m()` with an unknown
/// receiver only takes the *cross-crate* fallback edge when its name is
/// not in this list — otherwise every `str::parse` in the workspace
/// would resolve to some unrelated crate's `parse` method. Same-file and
/// same-crate candidates still win over this gate (a local `parse` is a
/// plausible callee for a local call).
const COMMON_STD_METHODS: &[&str] = &[
    "parse", "len", "is_empty", "get", "get_mut", "push", "pop", "insert", "remove", "clear",
    "next", "clone", "min", "max", "abs", "take", "find", "position", "count", "map", "filter",
    "fold", "sum", "rev", "zip", "chain", "extend", "write", "read", "flush", "contains", "split",
    "join", "trim", "starts_with", "ends_with", "floor", "ceil", "round", "sqrt", "to_string",
    "cmp", "eq", "hash", "fmt", "drain", "sort", "swap", "last", "first", "peek", "chars",
    "lines", "bytes", "entry", "keys", "values", "iter", "iter_mut", "into_iter", "as_str",
    "as_slice", "to_owned", "resize", "fill", "copy_from_slice", "push_str", "truncate",
];

/// One function node in the workspace graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Repo-relative file path.
    pub file: String,
    /// Crate directory name (`phy`, `core`, …).
    pub krate: String,
    /// Function name as written.
    pub name: String,
    /// Receiver type when defined in an impl block.
    pub self_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Defined inside a test region.
    pub is_test: bool,
    /// Carries a `// lint:no_alloc` marker.
    pub no_alloc: bool,
    /// Interesting tokens inside the body (alloc/panic/entropy/index).
    pub hits: Vec<TokenHit>,
}

impl FnNode {
    /// `Type::name` when the fn is a method, plain `name` otherwise.
    pub fn qualified(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// One evidence-chain entry: `name (file:line)`.
    pub fn evidence(&self) -> String {
        format!("{} ({}:{})", self.qualified(), self.file, self.line)
    }
}

/// Where one call edge leads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// Candidate node ids (over-approximate for bare method calls).
    Resolved(Vec<usize>),
    /// Outside the workspace (std/core or a prelude fn) — no edge.
    External,
    /// Statically unresolvable; the reason is reported at marked
    /// boundaries by the no_alloc pass.
    Unknown(&'static str),
}

/// One call site with its resolved target.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee name as written.
    pub name: String,
    /// 1-based line of the call.
    pub line: u32,
    /// Resolution result.
    pub target: Target,
}

/// The whole-workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Function nodes, id = index. Deterministic (sorted-file, source)
    /// order.
    pub nodes: Vec<FnNode>,
    /// Outgoing calls per node (parallel to `nodes`).
    pub calls: Vec<Vec<Call>>,
}

impl CallGraph {
    /// Build the graph from per-file facts. `facts` must already be in
    /// deterministic (sorted-file) order.
    pub fn build(facts: &[FileFacts]) -> CallGraph {
        let mut nodes: Vec<FnNode> = Vec::new();
        // (facts idx, fn idx) per node, for the resolution pass.
        let mut origin: Vec<(usize, usize)> = Vec::new();
        for (fi, f) in facts.iter().enumerate() {
            for (gi, g) in f.fns.iter().enumerate() {
                nodes.push(FnNode {
                    file: f.file.clone(),
                    krate: f.krate.clone(),
                    name: g.name.clone(),
                    self_ty: g.self_ty.clone(),
                    line: g.line,
                    is_test: g.is_test,
                    no_alloc: g.no_alloc,
                    hits: g.hits.clone(),
                });
                origin.push((fi, gi));
            }
        }

        // Symbol indexes. All keyed maps are BTree for determinism.
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_ty: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut any_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (id, n) in nodes.iter().enumerate() {
            if n.is_test {
                continue; // test helpers never satisfy non-test edges
            }
            any_by_name.entry(&n.name).or_default().push(id);
            match &n.self_ty {
                Some(ty) => {
                    methods_by_ty.entry((ty, &n.name)).or_default().push(id);
                    methods_by_name.entry(&n.name).or_default().push(id);
                }
                None => free_by_name.entry(&n.name).or_default().push(id),
            }
        }

        let ix = Indexes {
            nodes: &nodes,
            free_by_name: &free_by_name,
            methods_by_ty: &methods_by_ty,
            methods_by_name: &methods_by_name,
            any_by_name: &any_by_name,
        };

        let mut calls: Vec<Vec<Call>> = Vec::with_capacity(nodes.len());
        for (id, &(fi, gi)) in origin.iter().enumerate() {
            let caller = &nodes[id];
            let out = facts[fi].fns[gi]
                .calls
                .iter()
                .map(|c| Call {
                    name: c.name.clone(),
                    line: c.line,
                    target: ix.resolve(caller, &c.name, &c.kind),
                })
                .collect();
            calls.push(out);
        }
        CallGraph { nodes, calls }
    }

    /// Node ids of non-test `lint:no_alloc` roots, in id order.
    pub fn no_alloc_roots(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].no_alloc && !self.nodes[i].is_test)
            .collect()
    }

    /// Node ids of non-test fns whose crate is in `crates`, in id order.
    pub fn roots_in_crates(&self, crates: &[&str]) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| !self.nodes[i].is_test && crates.contains(&self.nodes[i].krate.as_str()))
            .collect()
    }

    /// Breadth-first closure over resolved edges from `roots`. Returns
    /// first-discovery parent pointers `(caller id, call line)` — roots
    /// have no parent. `skip` edges are not traversed *through* (their
    /// target is not enqueued via this edge); roots are visited even if
    /// `skip` matches them.
    pub fn bfs(&self, roots: &[usize], skip: &dyn Fn(usize) -> bool) -> Reach {
        let mut parent: BTreeMap<usize, Option<(usize, u32)>> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            if let Entry::Vacant(e) = parent.entry(r) {
                e.insert(None);
                queue.push_back(r);
            }
        }
        while let Some(id) = queue.pop_front() {
            for call in &self.calls[id] {
                if let Target::Resolved(cands) = &call.target {
                    for &c in cands {
                        if self.nodes[c].is_test || skip(c) || parent.contains_key(&c) {
                            continue;
                        }
                        parent.insert(c, Some((id, call.line)));
                        queue.push_back(c);
                    }
                }
            }
        }
        Reach { parent }
    }

    /// Reverse-edge adjacency: `callers[id]` lists `(caller id, line)`
    /// for every resolved edge into `id`, in deterministic order.
    pub fn reverse_edges(&self) -> Vec<Vec<(usize, u32)>> {
        let mut rev: Vec<Vec<(usize, u32)>> = vec![Vec::new(); self.nodes.len()];
        for (caller, calls) in self.calls.iter().enumerate() {
            for call in calls {
                if let Target::Resolved(cands) = &call.target {
                    for &c in cands {
                        rev[c].push((caller, call.line));
                    }
                }
            }
        }
        rev
    }
}

/// BFS result: reached node set with first-discovery parent pointers.
#[derive(Debug)]
pub struct Reach {
    /// `node -> parent (caller id, call line)`; `None` parent = root.
    pub parent: BTreeMap<usize, Option<(usize, u32)>>,
}

impl Reach {
    /// Was `id` reached?
    pub fn contains(&self, id: usize) -> bool {
        self.parent.contains_key(&id)
    }

    /// Reached ids in deterministic (id) order.
    pub fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.parent.keys().copied()
    }

    /// Evidence chain from the discovery root down to `id`:
    /// `["root (file:line)", …, "id (file:line)"]`.
    pub fn chain(&self, graph: &CallGraph, id: usize) -> Vec<String> {
        let mut path = vec![id];
        let mut cur = id;
        while let Some(Some((p, _))) = self.parent.get(&cur) {
            cur = *p;
            path.push(cur);
            if path.len() > graph.nodes.len() {
                break; // defensive: malformed parent map
            }
        }
        path.reverse();
        path.iter().map(|&n| graph.nodes[n].evidence()).collect()
    }
}

/// Borrowed symbol indexes used during resolution.
struct Indexes<'a> {
    nodes: &'a [FnNode],
    free_by_name: &'a BTreeMap<&'a str, Vec<usize>>,
    methods_by_ty: &'a BTreeMap<(&'a str, &'a str), Vec<usize>>,
    methods_by_name: &'a BTreeMap<&'a str, Vec<usize>>,
    any_by_name: &'a BTreeMap<&'a str, Vec<usize>>,
}

impl Indexes<'_> {
    fn resolve(&self, caller: &FnNode, name: &str, kind: &CallKind) -> Target {
        match kind {
            CallKind::Std => Target::External,
            CallKind::LocalClosure => Target::External, // body is inline, already scanned
            CallKind::Callback => Target::Unknown("call through function-typed parameter"),
            CallKind::Free => {
                let Some(cands) = self.free_by_name.get(name) else {
                    if PRELUDE_FNS.contains(&name) {
                        return Target::External;
                    }
                    return Target::Unknown("no free function with this name in the workspace");
                };
                Target::Resolved(narrow(self.nodes, cands, caller))
            }
            CallKind::Method { on_self: true } | CallKind::SelfPath => {
                let Some(ty) = caller.self_ty.as_deref() else {
                    return Target::Unknown("Self call outside a recognised impl block");
                };
                match self.methods_by_ty.get(&(ty, name)) {
                    Some(c) => Target::Resolved(c.clone()),
                    // Trait-provided default or std method on the type.
                    None => Target::External,
                }
            }
            CallKind::Method { on_self: false } => match self.methods_by_name.get(name) {
                // Unknown receiver: over-approximate across every workspace
                // method with this name, narrowed same-file → same-crate →
                // all. The cross-crate fallback is additionally gated on the
                // name not being a common std method — otherwise every
                // `str::parse` or `Vec::push` in the tree would wire into an
                // unrelated crate that happens to define `parse`/`push`.
                Some(c) => {
                    let narrowed = narrow(self.nodes, c, caller);
                    let cross_crate = narrowed.iter().all(|&i| self.nodes[i].krate != caller.krate);
                    if cross_crate && COMMON_STD_METHODS.contains(&name) {
                        Target::External
                    } else {
                        Target::Resolved(narrowed)
                    }
                }
                // No workspace method named this at all — std/iterator land.
                None => Target::External,
            },
            CallKind::TypePath(ty) => match self.methods_by_ty.get(&(ty.as_str(), name)) {
                Some(c) => Target::Resolved(c.clone()),
                // `Vec::with_capacity`, `Ordering::Less(..)` etc.
                None => Target::External,
            },
            CallKind::ModPath(head) => self.resolve_mod_path(caller, head, name),
        }
    }

    fn resolve_mod_path(&self, caller: &FnNode, head: &str, name: &str) -> Target {
        if STD_MODULE_HEADS.contains(&head) {
            return Target::External;
        }
        // `witag_phy::…` → crate dir `phy`; bare `witag::…` → `core`.
        let crate_pin: Option<String> = if head == "witag" {
            Some("core".to_string())
        } else if let Some(rest) = head.strip_prefix("witag_") {
            Some(rest.to_string())
        } else if matches!(head, "crate" | "self" | "super") {
            Some(caller.krate.clone())
        } else {
            None
        };
        let cands = self
            .any_by_name
            .get(name)
            .map(|v| v.as_slice())
            .unwrap_or(&[]);
        match crate_pin {
            Some(krate) => {
                let pinned: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&i| self.nodes[i].krate == krate)
                    .collect();
                if pinned.is_empty() {
                    Target::Unknown("path call does not resolve inside its crate")
                } else {
                    Target::Resolved(pinned)
                }
            }
            None => {
                if cands.is_empty() {
                    return Target::Unknown("module-path call with no matching definition");
                }
                Target::Resolved(narrow(self.nodes, cands, caller))
            }
        }
    }
}

/// Narrow candidates to same-file, else same-crate, else all.
fn narrow(nodes: &[FnNode], cands: &[usize], caller: &FnNode) -> Vec<usize> {
    let same_file: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&i| nodes[i].file == caller.file)
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let same_crate: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&i| nodes[i].krate == caller.krate)
        .collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    cands.to_vec()
}

/// Hit-kind filter helper used by the passes.
pub fn hits_of(node: &FnNode, kind: HitKind) -> impl Iterator<Item = &TokenHit> {
    node.hits.iter().filter(move |h| h.kind == kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::resolve::extract;
    use crate::scan::scan;

    fn graph_of(files: &[(&str, &str, &str)]) -> CallGraph {
        let mut facts = Vec::new();
        for (file, krate, src) in files {
            let lexed = lex(src);
            let map = scan(&lexed);
            facts.push(extract(file, krate, &lexed, &map));
        }
        CallGraph::build(&facts)
    }

    fn node(g: &CallGraph, name: &str) -> usize {
        (0..g.nodes.len()).find(|&i| g.nodes[i].name == name).unwrap()
    }

    fn edge(g: &CallGraph, from: &str, callee: &str) -> Target {
        let f = node(g, from);
        g.calls[f]
            .iter()
            .find(|c| c.name == callee)
            .map(|c| c.target.clone())
            .unwrap_or_else(|| panic!("no call {from} -> {callee}"))
    }

    #[test]
    fn free_call_prefers_same_file_over_same_crate() {
        let g = graph_of(&[
            ("crates/a/src/lib.rs", "a", "fn helper() {}\nfn caller() { helper(); }"),
            ("crates/b/src/lib.rs", "b", "fn helper() {}"),
        ]);
        let t = edge(&g, "caller", "helper");
        let Target::Resolved(ids) = t else { panic!("{t:?}") };
        assert_eq!(ids.len(), 1);
        assert_eq!(g.nodes[ids[0]].file, "crates/a/src/lib.rs");
    }

    #[test]
    fn shadowed_name_falls_back_to_all_candidates() {
        let g = graph_of(&[
            ("crates/a/src/lib.rs", "a", "fn caller() { helper(); }"),
            ("crates/b/src/lib.rs", "b", "fn helper() {}"),
            ("crates/c/src/lib.rs", "c", "fn helper() {}"),
        ]);
        let Target::Resolved(ids) = edge(&g, "caller", "helper") else { panic!() };
        assert_eq!(ids.len(), 2); // over-approximate: both candidates kept
    }

    #[test]
    fn self_method_resolves_within_impl_type() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "a",
            "struct A;\nimpl A { fn outer(&self) { self.inner(); } fn inner(&self) {} }\n\
             struct B;\nimpl B { fn inner(&self) {} }",
        )]);
        let Target::Resolved(ids) = edge(&g, "outer", "inner") else { panic!() };
        assert_eq!(ids.len(), 1);
        assert_eq!(g.nodes[ids[0]].self_ty.as_deref(), Some("A"));
    }

    #[test]
    fn bare_method_call_is_over_approximate() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "a",
            "struct A;\nimpl A { fn m(&self) {} }\nstruct B;\nimpl B { fn m(&self) {} }\n\
             fn caller(x: &A) { x.m(); }",
        )]);
        let Target::Resolved(ids) = edge(&g, "caller", "m") else { panic!() };
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn crate_path_pins_to_calling_crate() {
        let g = graph_of(&[
            ("crates/a/src/lib.rs", "a", "pub fn target() {}\nfn caller() { crate::target(); }"),
            ("crates/b/src/lib.rs", "b", "pub fn target() {}"),
        ]);
        let Target::Resolved(ids) = edge(&g, "caller", "target") else { panic!() };
        assert_eq!(ids.len(), 1);
        assert_eq!(g.nodes[ids[0]].krate, "a");
    }

    #[test]
    fn witag_path_pins_to_named_crate() {
        let g = graph_of(&[
            ("crates/phy/src/lib.rs", "phy", "pub fn receive() {}"),
            ("crates/mac/src/lib.rs", "mac", "fn caller() { witag_phy::receive(); }"),
        ]);
        let Target::Resolved(ids) = edge(&g, "caller", "receive") else { panic!() };
        assert_eq!(g.nodes[ids[0]].krate, "phy");
    }

    #[test]
    fn callback_is_unknown_and_std_is_external() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "a",
            "fn caller(cb: fn()) { cb(); std::mem::drop(1); }",
        )]);
        assert!(matches!(edge(&g, "caller", "cb"), Target::Unknown(_)));
        assert_eq!(edge(&g, "caller", "drop"), Target::External);
    }

    #[test]
    fn bfs_chain_reports_two_hop_path() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "a",
            "fn root() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}",
        )]);
        let r = g.bfs(&[node(&g, "root")], &|_| false);
        let chain = r.chain(&g, node(&g, "leaf"));
        assert_eq!(chain.len(), 3);
        assert!(chain[0].starts_with("root ("));
        assert!(chain[1].starts_with("mid ("));
        assert!(chain[2].starts_with("leaf ("));
    }

    #[test]
    fn bfs_skip_blocks_traversal_through_sanctioned_nodes() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "a",
            "fn root() { sanctioned(); }\nfn sanctioned() { wild(); }\nfn wild() {}",
        )]);
        let s = node(&g, "sanctioned");
        let r = g.bfs(&[node(&g, "root")], &|id| id == s);
        assert!(!r.contains(s));
        assert!(!r.contains(node(&g, "wild")));
    }

    #[test]
    fn test_fns_are_not_edge_targets() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "a",
            "fn caller() { helper(); }\n#[cfg(test)]\nmod tests { fn helper() {} }",
        )]);
        assert!(matches!(edge(&g, "caller", "helper"), Target::Unknown(_)));
    }
}
