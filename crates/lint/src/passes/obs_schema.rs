//! Obs event-kind consistency: source emissions vs `docs/OBS_SCHEMA.md`.
//!
//! `docs/OBS_SCHEMA.md` is the versioned wire contract for JSONL traces;
//! `witag_obs::event::KINDS` plus `Event::kind_index` define the kind
//! vocabulary in code. This pass cross-checks both directions:
//!
//! - **undocumented emit**: an `Event::Variant` used in non-test source
//!   (outside the obs crate itself, which defines and aggregates events
//!   rather than emitting them) whose kind string has no `"kind": "…"`
//!   example in the schema doc;
//! - **dead schema entry**: a documented kind whose variants appear in no
//!   non-test source outside the obs crate — the contract promises events
//!   nothing produces.
//!
//! `Event::Variant` in a `match` counts as usage (lexically
//! indistinguishable from construction), which makes dead-entry detection
//! deliberately lenient: a kind that is still consumed somewhere is not
//! dead. A schema entry can also be kept intentionally by placing a
//! `lint:allow(obs_schema)` comment on any line between the previous
//! kind example and this one (it attaches to the next example only).

use crate::passes::PassCtx;
use crate::rules::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// The schema doc's repo-relative path (where doc-side findings land).
pub const OBS_SCHEMA_DOC: &str = "docs/OBS_SCHEMA.md";

/// Run the `obs_schema` pass.
pub fn run(ctx: &PassCtx<'_>, findings: &mut Vec<Finding>) {
    // The vocabulary file: the one defining a KINDS table.
    let Some(vocab) = ctx.facts.iter().find(|f| !f.kinds_array.is_empty()) else {
        return; // no obs vocabulary in this workspace — pass is vacuous
    };
    let Some(doc) = ctx.obs_doc else {
        return; // no schema doc to check against
    };
    // variant -> kind string, through the kind_index arms.
    let variant_kind: BTreeMap<&str, &str> = vocab
        .kind_arms
        .iter()
        .filter_map(|(v, i)| vocab.kinds_array.get(*i).map(|k| (v.as_str(), k.as_str())))
        .collect();
    let (doc_kinds, doc_allowed) = parse_doc_kinds(doc);

    // Direction 1: every emitted kind is documented.
    let mut emitted: BTreeSet<&str> = BTreeSet::new();
    let mut reported: BTreeSet<&str> = BTreeSet::new();
    for f in ctx.facts.iter().filter(|f| f.krate != "obs") {
        for c in &f.obs_ctors {
            let Some(&kind) = variant_kind.get(c.variant.as_str()) else {
                continue; // not an Event variant this vocabulary knows
            };
            emitted.insert(kind);
            if doc_kinds.contains_key(kind)
                || ctx.allowed(&f.file, c.line, "obs_schema")
                || !reported.insert(kind)
            {
                continue;
            }
            findings.push(Finding {
                rule: "obs_schema",
                file: f.file.clone(),
                line: c.line,
                function: c.function.clone(),
                message: format!(
                    "event kind \"{kind}\" (Event::{}) is emitted here but has no example in {OBS_SCHEMA_DOC} — document it or the trace consumers will meet an unknown kind",
                    c.variant
                ),
                evidence: Vec::new(),
            });
        }
    }

    // Direction 2: every documented kind has a live producer/consumer.
    let known_kinds: BTreeSet<&str> = vocab.kinds_array.iter().map(String::as_str).collect();
    for (kind, &line) in &doc_kinds {
        if doc_allowed.contains(kind.as_str()) {
            continue;
        }
        if !known_kinds.contains(kind.as_str()) {
            findings.push(Finding {
                rule: "obs_schema",
                file: OBS_SCHEMA_DOC.to_string(),
                line,
                function: None,
                message: format!(
                    "documented kind \"{kind}\" does not exist in witag_obs::event::KINDS — stale schema entry"
                ),
                evidence: Vec::new(),
            });
        } else if !emitted.contains(kind.as_str()) {
            findings.push(Finding {
                rule: "obs_schema",
                file: OBS_SCHEMA_DOC.to_string(),
                line,
                function: None,
                message: format!(
                    "documented kind \"{kind}\" has no non-test emitter outside the obs crate — dead schema entry (remove it, or keep it with an anchored lint:allow(obs_schema) comment above the example)"
                ),
                evidence: Vec::new(),
            });
        }
    }
}

/// Scan the schema doc for `"kind": "…"` example lines. Returns
/// `kind -> first line` plus the set of kinds whose example is preceded
/// by a `lint:allow(obs_schema)` comment (the pragma attaches to the
/// next kind example after it, only).
fn parse_doc_kinds(doc: &str) -> (BTreeMap<String, u32>, BTreeSet<String>) {
    let mut kinds: BTreeMap<String, u32> = BTreeMap::new();
    let mut allowed: BTreeSet<String> = BTreeSet::new();
    let mut pending_allow = false;
    for (idx, l) in doc.lines().enumerate() {
        if l.contains("lint:allow(obs_schema)") {
            pending_allow = true;
            continue;
        }
        let Some(kind) = kind_on_line(l) else {
            continue;
        };
        kinds.entry(kind.to_string()).or_insert((idx + 1) as u32);
        if pending_allow {
            allowed.insert(kind.to_string());
            pending_allow = false;
        }
    }
    (kinds, allowed)
}

/// Extract the value of a `"kind": "…"` pair on one doc line, if any.
fn kind_on_line(l: &str) -> Option<&str> {
    let pos = l.find("\"kind\"")?;
    let rest = l[pos + "\"kind\"".len()..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(&rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_extraction_tolerates_spacing() {
        assert_eq!(
            kind_on_line(r#"{"kind": "phy_rx", "x": 1}"#),
            Some("phy_rx")
        );
        assert_eq!(kind_on_line(r#"  "kind":"net.grant","#), Some("net.grant"));
        assert_eq!(kind_on_line("no kinds here"), None);
    }

    #[test]
    fn doc_parse_collects_first_line_and_allows() {
        let doc = "a\n<!-- lint:allow(obs_schema) -->\n{\"kind\": \"legacy\"}\n\n{\"kind\": \"live\"}\n{\"kind\": \"live\"}\n";
        let (kinds, allowed) = parse_doc_kinds(doc);
        assert_eq!(kinds.get("legacy"), Some(&3));
        assert_eq!(kinds.get("live"), Some(&5));
        assert!(allowed.contains("legacy"));
        assert!(!allowed.contains("live"));
    }
}
