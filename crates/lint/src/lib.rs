//! `witag-lint` — the workspace invariant linter.
//!
//! The WiTAG reproduction's value rests on invariants nothing in `rustc`
//! checks mechanically: experiments are bit-for-bit deterministic for a
//! given seed (PR 1's fault plans, PR 2's thread-count-invariant sweeps),
//! library code never panics mid-round, and the receive chain stays
//! allocation-free in steady state. One careless `std::time::Instant`, an
//! `unwrap()` on a fallible decode, or a `collect()` slipped into the
//! Viterbi kernel silently breaks all of that.
//!
//! This crate is a from-scratch, std-only static-analysis pass (the build
//! environment is offline — no `syn`, no `clippy-utils`): a small real
//! lexer ([`lexer`]) feeds a brace/item tracker ([`scan`]) that can
//! attribute findings to crate → module → function and recognise
//! `#[cfg(test)]` / `mod tests` regions, and the per-file rule passes
//! ([`rules`]) run on top. Above the per-file layer, a resolver
//! ([`resolve`]) extracts symbols and call sites from every file, a
//! whole-workspace call graph ([`graph`]) links them, and the
//! interprocedural/consistency passes ([`passes`]) prove the transitive
//! forms of the same invariants — allocation-freedom through the callee
//! closure of `lint:no_alloc` fns, panic-freedom through everything
//! reachable from the hot set, determinism taint from entropy sources up
//! to their callers — plus obs-schema consistency.
//!
//! Escape hatch: `// lint:allow(<rule>)` suppresses one line and
//! documents *why*; `// lint:no_alloc` marks a function whose transitive
//! call closure must stay free of allocation tokens.
//!
//! Per-file analysis fans out over `witag_sim::parallel::par_map`; the
//! merged report is byte-identical at any thread count (index-ordered
//! merge, deterministic node ids). Run it as `cargo run -p witag-lint`
//! (human diagnostics, nonzero exit on findings) or with `--json
//! LINT_report.json [--threads N]` for the CI gate.
//!
//! The system-wide map — crate graph, data flow, determinism/replay
//! contract, fault/observability/lint hooks — is `docs/ARCHITECTURE.md`
//! at the repository root.

#![forbid(unsafe_code)]

pub mod graph;
pub mod lexer;
pub mod passes;
pub mod report;
pub mod resolve;
pub mod rules;
pub mod scan;

use graph::CallGraph;
use passes::PassCtx;
use report::Report;
use resolve::FileFacts;
use rules::{FileScope, Finding};
use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose library sources must be panic-free (`.unwrap()` /
/// `.expect()` / `panic!` / `todo!` / `unimplemented!` forbidden outside
/// tests). These are the crates a million-round sweep executes, and the
/// roots of the interprocedural `panic_path` pass.
pub const PANIC_SCOPE: &[&str] = &[
    "phy", "mac", "crypto", "channel", "tag", "core", "faults", "obs", "net",
];

/// Crates whose library sources must be deterministic (no wall-clock, no
/// ad-hoc threads, no entropy, no default-hasher collections). Everything
/// the simulator links, plus the CLI and this linter itself; `bench` and
/// the offline `proptest` shim legitimately touch `std::time` and stay
/// out.
pub const DETERMINISM_SCOPE: &[&str] = &[
    "phy",
    "mac",
    "crypto",
    "channel",
    "tag",
    "core",
    "faults",
    "sim",
    "baselines",
    "cli",
    "lint",
    "obs",
    "net",
];

/// Files exempt from the determinism pass because they *implement* the
/// sanctioned wrappers the rest of the workspace is pointed at. The
/// taint pass carries this through the graph: fns in these files are
/// never taint sources, so calling `par_map` stays clean.
pub const DETERMINISM_SANCTIONED: &[&str] = &["crates/sim/src/parallel.rs"];

/// Crates whose `pub` items must carry doc comments (the crates that
/// historically built under `missing_docs`).
pub const DOCS_SCOPE: &[&str] = &[
    "phy",
    "mac",
    "crypto",
    "channel",
    "tag",
    "core",
    "faults",
    "sim",
    "baselines",
    "bench",
    "lint",
    "obs",
    "net",
];

/// Crate dirs excluded from the call graph: `bench` (timers) and the
/// offline `proptest` shim (samplers) re-implement std-ish APIs whose
/// internals are deliberately wall-clock or random; wiring them in
/// through name-based method resolution would attach their
/// nondeterminism to unrelated callers. They still get the full per-file
/// passes and the consistency passes.
pub const GRAPH_EXCLUDE: &[&str] = &["bench", "proptest"];

/// One source file of a (real or virtual) workspace — the unit the
/// analyzer fans out over. Integration tests build these by hand to pin
/// resolver and pass behaviour on synthetic workspaces.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path (`crates/phy/src/lib.rs`).
    pub rel: String,
    /// Crate directory name (`phy`; `root` for the workspace-root shim).
    pub krate: String,
    /// Full source text.
    pub source: String,
    /// Per-file rule scopes.
    pub scope: FileScope,
}

/// Lint the workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml`) using `threads` worker threads for the
/// per-file phase. Scans `crates/*/src/**/*.rs` plus the root package's
/// `src/`, applies each crate's rule scopes, builds the workspace call
/// graph, runs the interprocedural and consistency passes, and returns
/// the sorted, deduplicated report — byte-identical at any `threads`.
pub fn run_workspace(root: &Path, threads: usize) -> std::io::Result<Report> {
    let mut files: Vec<SourceFile> = Vec::new();

    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    for dir in crate_dirs {
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        collect_rs(&src, &mut paths)?;
        paths.sort();
        // Crate roots: lib.rs and/or main.rs directly under src/.
        let roots = [src.join("lib.rs"), src.join("main.rs")];
        for path in paths {
            let rel = rel_path(root, &path);
            let scope = FileScope {
                determinism: DETERMINISM_SCOPE.contains(&name.as_str())
                    && !DETERMINISM_SANCTIONED.contains(&rel.as_str()),
                panic_freedom: PANIC_SCOPE.contains(&name.as_str()),
                docs: DOCS_SCOPE.contains(&name.as_str()),
                crate_root: roots.contains(&path),
            };
            files.push(SourceFile {
                rel,
                krate: name.clone(),
                source: fs::read_to_string(&path)?,
                scope,
            });
        }
    }

    // The workspace-root package (src/root.rs): deterministic re-export
    // shim; its crate root must forbid unsafe too.
    let root_src = root.join("src");
    if root_src.is_dir() {
        let mut paths = Vec::new();
        collect_rs(&root_src, &mut paths)?;
        paths.sort();
        for path in paths {
            let rel = rel_path(root, &path);
            let scope = FileScope {
                determinism: true,
                panic_freedom: false,
                docs: false,
                crate_root: rel == "src/root.rs",
            };
            files.push(SourceFile {
                rel,
                krate: "root".to_string(),
                source: fs::read_to_string(&path)?,
                scope,
            });
        }
    }

    let obs_doc = fs::read_to_string(root.join("docs/OBS_SCHEMA.md")).ok();
    Ok(analyze_workspace(&files, obs_doc.as_deref(), threads))
}

/// Analyze an in-memory workspace: per-file rule passes (fanned out over
/// `witag_sim::par_map`), then the call graph and whole-workspace passes.
/// The public entry point for both `run_workspace` and the fixture tests'
/// virtual workspaces. Output is a pure function of the inputs — the
/// thread count only changes wall time, never a byte of the report.
pub fn analyze_workspace(files: &[SourceFile], obs_doc: Option<&str>, threads: usize) -> Report {
    let per_file: Vec<(Vec<Finding>, FileFacts)> =
        witag_sim::parallel::par_map(files.len(), threads.max(1), |i| {
            let f = &files[i];
            let lexed = lexer::lex(&f.source);
            let map = scan::scan(&lexed);
            let mut findings = Vec::new();
            rules::check_file(&f.rel, &lexed, &map, f.scope, &mut findings);
            (findings, resolve::extract(&f.rel, &f.krate, &lexed, &map))
        });

    let mut findings: Vec<Finding> = Vec::new();
    let mut facts: Vec<FileFacts> = Vec::with_capacity(files.len());
    for (f, fact) in per_file {
        findings.extend(f);
        facts.push(fact);
    }

    let graph_facts: Vec<FileFacts> = facts
        .iter()
        .filter(|f| !GRAPH_EXCLUDE.contains(&f.krate.as_str()))
        .cloned()
        .collect();
    let graph = CallGraph::build(&graph_facts);
    let ctx = PassCtx::new(
        &graph,
        &facts,
        PANIC_SCOPE,
        DETERMINISM_SCOPE,
        DETERMINISM_SANCTIONED,
        obs_doc,
    );
    passes::run_all(&ctx, &mut findings);

    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    findings.dedup();
    Report {
        files_scanned: files.len(),
        findings,
    }
}

/// Lint a single source text under an explicit scope — the per-file
/// fixture tests' entry point, and the unit `analyze_workspace` runs per
/// file before the graph passes.
pub fn analyze_source(rel_path: &str, source: &str, scope: FileScope) -> Vec<Finding> {
    let lexed = lexer::lex(source);
    let map = scan::scan(&lexed);
    let mut findings = Vec::new();
    rules::check_file(rel_path, &lexed, &map, scope, &mut findings);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    // `std::thread::spawn` trips both the `std::thread` and the
    // `thread::spawn` patterns at adjacent tokens — one defect, one report.
    findings.dedup();
    findings
}

/// Recursively collect `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}
