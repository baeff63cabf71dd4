//! JSON report emission — hand-rolled (the build environment is offline,
//! so no serde), matching the perf-gate's "parse with a python one-liner"
//! contract in `ci.sh`.
//!
//! Schema `witag-lint/2`: adds the `passes` array (the whole-workspace
//! passes that ran) and a per-finding `evidence` array (call-chain hops
//! for interprocedural findings). The report deliberately carries no
//! absolute paths, so the committed `LINT_report.json` is byte-comparable
//! across machines and thread counts.

use crate::passes::PASSES;
use crate::rules::Finding;
use std::collections::BTreeMap;

/// The full result of a workspace lint run.
#[derive(Debug)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
}

impl Report {
    /// Findings per rule name (zero-count rules omitted).
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for f in &self.findings {
            *m.entry(f.rule).or_insert(0) += 1;
        }
        m
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"witag-lint/2\",\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str("  \"passes\": [");
        let passes: Vec<String> = PASSES.iter().map(|p| json_str(p)).collect();
        s.push_str(&passes.join(", "));
        s.push_str("],\n");
        s.push_str("  \"counts\": {");
        let counts = self.counts();
        let items: Vec<String> = counts
            .iter()
            .map(|(rule, n)| format!("{}: {}", json_str(rule), n))
            .collect();
        s.push_str(&items.join(", "));
        s.push_str("},\n");
        s.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            s.push_str(&format!("\"rule\": {}, ", json_str(f.rule)));
            s.push_str(&format!("\"file\": {}, ", json_str(&f.file)));
            s.push_str(&format!("\"line\": {}, ", f.line));
            match &f.function {
                Some(name) => s.push_str(&format!("\"function\": {}, ", json_str(name))),
                None => s.push_str("\"function\": null, "),
            }
            s.push_str(&format!("\"message\": {}, ", json_str(&f.message)));
            s.push_str("\"evidence\": [");
            let hops: Vec<String> = f.evidence.iter().map(|e| json_str(e)).collect();
            s.push_str(&hops.join(", "));
            s.push_str("]}");
        }
        if !self.findings.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn empty_report_serializes_v2() {
        let r = Report {
            files_scanned: 3,
            findings: vec![],
        };
        let j = r.to_json();
        assert!(j.contains("\"schema\": \"witag-lint/2\""));
        assert!(j.contains("\"findings\": []"));
        assert!(j.contains("\"files_scanned\": 3"));
        assert!(j.contains("\"passes\": [\"no_alloc_transitive\""));
        assert!(
            !j.contains("\"root\""),
            "no machine-specific paths in the report"
        );
    }

    #[test]
    fn findings_serialize_with_function_and_evidence() {
        let r = Report {
            files_scanned: 1,
            findings: vec![Finding {
                rule: "no_alloc_transitive",
                file: "crates/phy/src/a.rs".into(),
                line: 12,
                function: Some("receive".into()),
                message: "msg with \"quotes\"".into(),
                evidence: vec![
                    "root (crates/phy/src/a.rs:3)".into(),
                    "helper (crates/phy/src/b.rs:9)".into(),
                ],
            }],
        };
        let j = r.to_json();
        assert!(j.contains("\"line\": 12"));
        assert!(j.contains("\"function\": \"receive\""));
        assert!(j.contains("\\\"quotes\\\""));
        assert!(j.contains(
            "\"evidence\": [\"root (crates/phy/src/a.rs:3)\", \"helper (crates/phy/src/b.rs:9)\"]"
        ));
    }
}
