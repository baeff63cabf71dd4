//! Whole-workspace passes over the call graph and file facts.
//!
//! Three interprocedural passes prove transitive invariants through the
//! static call graph ([`no_alloc`], [`panics`], [`determinism`]) and one
//! consistency pass cross-checks code against a committed artifact
//! ([`obs_schema`]). All of them run *after* the per-file
//! rule passes, on the merged [`FileFacts`] and the [`CallGraph`] built
//! from them, and append to the same findings stream with call-chain
//! evidence attached.

pub mod determinism;
pub mod no_alloc;
pub mod obs_schema;
pub mod panics;

use crate::graph::CallGraph;
use crate::resolve::FileFacts;
use crate::rules::Finding;
use std::collections::BTreeMap;

/// Names of the whole-workspace passes, in execution order — reported in
/// the `passes` array of the `witag-lint/2` schema.
pub const PASSES: &[&str] = &[
    "no_alloc_transitive",
    "unknown_callee",
    "panic_path",
    "determinism_taint",
    "obs_schema",
];

/// Shared input to every whole-workspace pass.
pub struct PassCtx<'a> {
    /// The workspace call graph (semantic crates only).
    pub graph: &'a CallGraph,
    /// Per-file facts for *every* scanned file, sorted by path.
    pub facts: &'a [FileFacts],
    /// Crate dirs whose fns root the panic-freedom propagation.
    pub panic_scope: &'a [&'a str],
    /// Crate dirs in the determinism scope (taint boundary).
    pub determinism_scope: &'a [&'a str],
    /// Files sanctioned to hold nondeterminism (the par_map impl).
    pub sanctioned: &'a [&'a str],
    /// Contents of `docs/OBS_SCHEMA.md`, when present.
    pub obs_doc: Option<&'a str>,
    allow: BTreeMap<&'a str, &'a FileFacts>,
}

impl<'a> PassCtx<'a> {
    /// Assemble a context; indexes the per-file allow maps.
    pub fn new(
        graph: &'a CallGraph,
        facts: &'a [FileFacts],
        panic_scope: &'a [&'a str],
        determinism_scope: &'a [&'a str],
        sanctioned: &'a [&'a str],
        obs_doc: Option<&'a str>,
    ) -> Self {
        let allow = facts.iter().map(|f| (f.file.as_str(), f)).collect();
        PassCtx {
            graph,
            facts,
            panic_scope,
            determinism_scope,
            sanctioned,
            obs_doc,
            allow,
        }
    }

    /// Is `rule` suppressed at `file:line` by a `lint:allow` pragma?
    pub fn allowed(&self, file: &str, line: u32, rule: &str) -> bool {
        self.allow.get(file).is_some_and(|f| f.allowed(line, rule))
    }
}

/// Run every whole-workspace pass, appending findings.
pub fn run_all(ctx: &PassCtx<'_>, findings: &mut Vec<Finding>) {
    no_alloc::run(ctx, findings);
    panics::run(ctx, findings);
    determinism::run(ctx, findings);
    obs_schema::run(ctx, findings);
}
