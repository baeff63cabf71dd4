//! The linter's own acceptance test: the real workspace carries zero
//! findings — per-file rules AND the whole-workspace passes (transitive
//! no_alloc, panic propagation, determinism taint and obs-schema). Any
//! violation introduced anywhere in the tree fails this
//! test (and `ci.sh`) with the offending file, line and call chain.

use std::path::Path;

fn run(threads: usize) -> witag_lint::report::Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().expect("workspace root exists");
    witag_lint::run_workspace(&root, threads).expect("workspace scan succeeds")
}

#[test]
fn workspace_has_zero_findings() {
    let report = run(1);
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    let rendered: Vec<String> = report
        .findings
        .iter()
        .map(|f| {
            let chain = if f.evidence.is_empty() {
                String::new()
            } else {
                format!("\n    via {}", f.evidence.join(" -> "))
            };
            format!("{}:{}: [{}] {}{}", f.file, f.line, f.rule, f.message, chain)
        })
        .collect();
    assert!(
        report.findings.is_empty(),
        "workspace must be lint-clean:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn report_is_schema_v2_with_all_passes() {
    let json = run(1).to_json();
    assert!(json.contains("\"schema\": \"witag-lint/2\""));
    for pass in witag_lint::passes::PASSES {
        assert!(
            json.contains(&format!("\"{pass}\"")),
            "pass {pass} missing from report"
        );
    }
    assert!(
        !json.contains("\"root\""),
        "report must carry no machine-specific paths"
    );
}

#[test]
fn report_is_byte_identical_across_thread_counts() {
    let one = run(1).to_json();
    for threads in [2, 4, 7] {
        assert_eq!(one, run(threads).to_json(), "threads={threads} diverged");
    }
}
