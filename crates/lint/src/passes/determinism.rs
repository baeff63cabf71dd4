//! Determinism taint: entropy / wall-clock / hash-order sources poison
//! their callers up through the call graph.
//!
//! The per-line `determinism` rule bans nondeterminism tokens inside the
//! determinism-scope crates directly. This pass carries the property
//! through calls: a function containing a source taints every function
//! that (transitively) calls it, and the taint is reported at the
//! *boundary* — the first determinism-scope function on each caller chain
//! — with the chain down to the source as evidence. In-scope callers of
//! in-scope tainted fns are not separately reported (fixing the source
//! clears them all).
//!
//! The PR-2 `par_map` sanctioning is carried through the graph: sources
//! inside `DETERMINISM_SANCTIONED` files (the deterministic fork-join
//! implementation, which legitimately spawns threads) do not taint
//! anything, so calling `witag_sim::parallel::par_map` stays clean. A
//! `lint:allow(determinism)` on the source line likewise neutralises the
//! source — the pragma documents why it is safe, and the taint pass
//! honours that proof instead of second-guessing it.

use crate::graph::{hits_of, FnNode};
use crate::passes::PassCtx;
use crate::resolve::HitKind;
use crate::rules::Finding;
use std::collections::{BTreeMap, VecDeque};

/// Run the `determinism_taint` pass.
pub fn run(ctx: &PassCtx<'_>, findings: &mut Vec<Finding>) {
    let g = ctx.graph;
    let in_scope = |n: &FnNode| ctx.determinism_scope.contains(&n.krate.as_str());

    // Taint sources: non-test fns with an un-allowed nondeterminism hit,
    // outside the sanctioned files.
    let mut sources: BTreeMap<usize, String> = BTreeMap::new();
    for (id, n) in g.nodes.iter().enumerate() {
        if n.is_test || ctx.sanctioned.contains(&n.file.as_str()) {
            continue;
        }
        for h in hits_of(n, HitKind::Entropy) {
            if ctx.allowed(&n.file, h.line, "determinism")
                || ctx.allowed(&n.file, h.line, "determinism_taint")
            {
                continue;
            }
            sources.insert(id, h.what.clone());
            break;
        }
    }
    if sources.is_empty() {
        return;
    }

    // Caller-ward BFS. `toward[x] = (callee, call line)` points one hop
    // *down* the chain toward the source that tainted x. Propagation stops
    // at in-scope non-source nodes: that is where the finding lands.
    let rev = g.reverse_edges();
    let mut toward: BTreeMap<usize, Option<(usize, u32)>> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &id in sources.keys() {
        toward.insert(id, None);
        queue.push_back(id);
    }
    while let Some(id) = queue.pop_front() {
        let boundary = in_scope(&g.nodes[id]) && !sources.contains_key(&id);
        if boundary {
            continue;
        }
        for &(caller, line) in &rev[id] {
            if g.nodes[caller].is_test || toward.contains_key(&caller) {
                continue;
            }
            toward.insert(caller, Some((id, line)));
            queue.push_back(caller);
        }
    }

    for (&id, link) in &toward {
        let n = &g.nodes[id];
        if sources.contains_key(&id) || !in_scope(n) || n.is_test {
            continue;
        }
        let Some((_, line)) = link else { continue };
        if ctx.allowed(&n.file, *line, "determinism_taint") {
            continue;
        }
        // Chain from this boundary fn down to the source.
        let mut path = vec![id];
        let mut cur = id;
        while let Some(Some((callee, _))) = toward.get(&cur) {
            cur = *callee;
            path.push(cur);
            if path.len() > g.nodes.len() {
                break;
            }
        }
        let source = *path.last().unwrap_or(&id);
        findings.push(Finding {
            rule: "determinism_taint",
            file: n.file.clone(),
            line: *line,
            function: Some(n.qualified()),
            message: format!(
                "`{}` transitively reaches nondeterminism source `{}` ({}); route through the sanctioned wrappers (witag_sim::time / witag_sim::parallel) or seed explicitly",
                n.qualified(),
                g.nodes[source].qualified(),
                sources.get(&source).map(String::as_str).unwrap_or("?")
            ),
            evidence: path.iter().map(|&p| g.nodes[p].evidence()).collect(),
        });
    }
}
