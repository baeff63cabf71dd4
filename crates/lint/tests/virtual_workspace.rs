//! Pass acceptance fixtures on synthetic (in-memory) workspaces: each
//! test builds a tiny multi-crate tree with `SourceFile` structs and runs
//! the full pipeline through [`witag_lint::analyze_workspace`], pinning
//! what the interprocedural and consistency passes must (and must not)
//! report — including the evidence chains.

use witag_lint::rules::{FileScope, Finding};
use witag_lint::{analyze_workspace, SourceFile};

/// Scope with everything off — the per-file rules stay quiet so the tests
/// see only the workspace passes.
fn quiet() -> FileScope {
    FileScope {
        determinism: false,
        panic_freedom: false,
        docs: false,
        crate_root: false,
    }
}

fn file(rel: &str, krate: &str, source: &str) -> SourceFile {
    SourceFile {
        rel: rel.to_string(),
        krate: krate.to_string(),
        source: source.to_string(),
        scope: quiet(),
    }
}

fn run(files: &[SourceFile], obs_doc: Option<&str>) -> Vec<Finding> {
    analyze_workspace(files, obs_doc, 1).findings
}

fn rendered(findings: &[Finding]) -> String {
    findings
        .iter()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn hidden_allocation_two_hops_away_is_caught_with_full_chain() {
    let files = [
        file(
            "crates/phy/src/a.rs",
            "phy",
            "// lint:no_alloc\npub fn hot() {\n    mid();\n}\npub fn mid() {\n    helper();\n}\n",
        ),
        file(
            "crates/phy/src/b.rs",
            "phy",
            "pub fn helper() -> Vec<u8> {\n    vec![1, 2, 3]\n}\n",
        ),
    ];
    let findings = run(&files, None);
    assert_eq!(findings.len(), 1, "expected exactly one finding:\n{}", rendered(&findings));
    let f = &findings[0];
    assert_eq!(f.rule, "no_alloc_transitive");
    assert_eq!(f.file, "crates/phy/src/b.rs");
    assert_eq!(f.line, 2, "finding must land on the vec! line");
    // Full call chain: root -> intermediate -> offender, with locations.
    assert_eq!(f.evidence.len(), 3, "evidence: {:?}", f.evidence);
    assert!(f.evidence[0].contains("hot") && f.evidence[0].contains("crates/phy/src/a.rs:2"));
    assert!(f.evidence[1].contains("mid") && f.evidence[1].contains("crates/phy/src/a.rs:5"));
    assert!(f.evidence[2].contains("helper") && f.evidence[2].contains("crates/phy/src/b.rs:1"));
}

#[test]
fn no_alloc_pragma_on_the_offending_line_suppresses_the_chain() {
    let files = [
        file(
            "crates/phy/src/a.rs",
            "phy",
            "// lint:no_alloc\npub fn hot() {\n    mid();\n}\npub fn mid() {\n    helper();\n}\n",
        ),
        file(
            "crates/phy/src/b.rs",
            "phy",
            "pub fn helper() -> Vec<u8> {\n    vec![1, 2, 3] // lint:allow(no_alloc_transitive) cold path\n}\n",
        ),
    ];
    assert!(run(&files, None).is_empty());
}

#[test]
fn call_through_function_parameter_reports_unknown_callee() {
    let files = [file(
        "crates/phy/src/a.rs",
        "phy",
        "// lint:no_alloc\npub fn hot(f: fn() -> u8) -> u8 {\n    f()\n}\n",
    )];
    let findings = run(&files, None);
    assert_eq!(findings.len(), 1, "{}", rendered(&findings));
    assert_eq!(findings[0].rule, "unknown_callee");
    assert!(findings[0].message.contains("function-typed parameter"));
}

#[test]
fn panic_reached_through_out_of_scope_crate_is_reported_with_chain() {
    // `phy` is in the panic hot set; `sim` is not. The panic lives in sim
    // but is reachable from a phy entry point — the per-line pass cannot
    // see it, the graph pass must.
    let files = [
        file(
            "crates/phy/src/a.rs",
            "phy",
            "pub fn entry(x: Option<u8>) -> u8 {\n    witag_sim::boom(x)\n}\n",
        ),
        file(
            "crates/sim/src/lib.rs",
            "sim",
            "pub fn boom(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
        ),
    ];
    let findings = run(&files, None);
    assert_eq!(findings.len(), 1, "{}", rendered(&findings));
    let f = &findings[0];
    assert_eq!(f.rule, "panic_path");
    assert_eq!(f.file, "crates/sim/src/lib.rs");
    assert_eq!(f.line, 2);
    assert!(f.evidence.first().is_some_and(|e| e.contains("entry")), "{:?}", f.evidence);
}

#[test]
fn entropy_in_unsanctioned_file_taints_callers_sanctioned_does_not() {
    let entropy_src = "pub fn jitter() -> u64 {\n    let r = thread_rng();\n    r\n}\n";
    let caller = file(
        "crates/phy/src/a.rs",
        "phy",
        "pub fn outer() -> u64 {\n    witag_sim::jitter()\n}\n",
    );

    // Unsanctioned source file: the taint propagates to the in-scope
    // caller with a chain down to the entropy site.
    let tainted = [caller.clone(), file("crates/sim/src/rngish.rs", "sim", entropy_src)];
    let findings = run(&tainted, None);
    assert_eq!(findings.len(), 1, "{}", rendered(&findings));
    let f = &findings[0];
    assert_eq!(f.rule, "determinism_taint");
    assert!(!f.evidence.is_empty());

    // Same entropy in the sanctioned parallelism shim: no findings.
    let sanctioned = [caller, file("crates/sim/src/parallel.rs", "sim", entropy_src)];
    assert!(run(&sanctioned, None).is_empty(), "{}", rendered(&run(&sanctioned, None)));
}

const OBS_VOCAB: &str = "pub const KINDS: [&str; 2] = [\"alpha\", \"beta\"];\n\
    pub enum Event { Alpha, Beta }\n\
    impl Event {\n\
    pub fn kind_index(&self) -> usize {\n\
    match self {\n\
    Event::Alpha { .. } => 0,\n\
    Event::Beta { .. } => 1,\n\
    }\n\
    }\n\
    }\n";

#[test]
fn obs_schema_checks_both_directions() {
    let files = [
        file("crates/obs/src/event.rs", "obs", OBS_VOCAB),
        file(
            "crates/mac/src/lib.rs",
            "mac",
            "pub fn go(rec: &mut R) {\n    rec.record(&Event::Alpha);\n}\n",
        ),
    ];
    // Doc documents `beta` (never emitted) and `gamma` (not a kind), but
    // not the emitted `alpha`.
    let doc = "# Trace schema\n\n{\"kind\": \"beta\"}\n{\"kind\": \"gamma\"}\n";
    let findings = run(&files, Some(doc));
    let rules: Vec<(&str, &str, u32)> = findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect();
    assert_eq!(findings.len(), 3, "{}", rendered(&findings));
    // Undocumented emit, at the emission site.
    assert!(rules.contains(&("obs_schema", "crates/mac/src/lib.rs", 2)), "{}", rendered(&findings));
    // Dead entry (beta) and stale entry (gamma), at the doc lines.
    assert!(rules.contains(&("obs_schema", "docs/OBS_SCHEMA.md", 3)), "{}", rendered(&findings));
    assert!(rules.contains(&("obs_schema", "docs/OBS_SCHEMA.md", 4)), "{}", rendered(&findings));
    assert!(findings.iter().any(|f| f.message.contains("stale")));
    assert!(findings.iter().any(|f| f.message.contains("dead")));
}

#[test]
fn obs_schema_doc_allow_keeps_an_intentional_entry() {
    let files = [
        file("crates/obs/src/event.rs", "obs", OBS_VOCAB),
        file(
            "crates/mac/src/lib.rs",
            "mac",
            "pub fn go(rec: &mut R) {\n    rec.record(&Event::Alpha);\n    rec.record(&Event::Beta);\n}\n",
        ),
    ];
    let doc = "{\"kind\": \"alpha\"}\n<!-- lint:allow(obs_schema) reserved -->\n{\"kind\": \"beta\"}\n";
    assert!(run(&files, Some(doc)).is_empty());
}
