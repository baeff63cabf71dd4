//! Panic-freedom propagation from the hot set.
//!
//! The per-line `panic_freedom` rule patrols the panic-scope crates
//! themselves. This pass extends the proof through the call graph in two
//! directions the per-line rule cannot see:
//!
//! - **out-of-scope callees**: a panic token (`.unwrap()`, `panic!`, …)
//!   in *any* crate's fn that is reachable from the hot set (phy / mac /
//!   core / …) is reported with the call chain that reaches it — a sweep
//!   dies the same way whether the `unwrap` lives in `phy` or in a `sim`
//!   helper it calls;
//! - **bare indexing inside the hot set**: `xs[i]` panics out of bounds.
//!   The resolver's bounded-index heuristic exempts structurally-bounded
//!   forms (range-loop binders over literal ranges, masked/`%`-reduced
//!   indices, uppercase constants, `let`s derived from those, range
//!   slices); everything else is reported and must be restructured or
//!   justified with a per-line `lint:allow(panic_path)`.

use crate::graph::{hits_of, Reach};
use crate::passes::PassCtx;
use crate::resolve::HitKind;
use crate::rules::Finding;
use std::collections::BTreeSet;

/// Run the `panic_path` pass.
pub fn run(ctx: &PassCtx<'_>, findings: &mut Vec<Finding>) {
    let g = ctx.graph;
    let roots = g.roots_in_crates(ctx.panic_scope);
    let reach = g.bfs(&roots, &|_| false);
    let mut seen: BTreeSet<(String, u32)> = BTreeSet::new();
    for id in reach.ids() {
        let n = &g.nodes[id];
        let in_scope = ctx.panic_scope.contains(&n.krate.as_str());
        if !in_scope {
            // Reached from the hot set but outside the per-line rule's
            // patrol area: panic tokens here take the round down too.
            report(
                ctx,
                findings,
                &mut seen,
                &reach,
                id,
                HitKind::Panic,
                |what, q| {
                    format!(
                    "{what} in `{q}` is reachable from the panic-free hot set; a panic here kills the sweep round — return a typed error or justify with lint:allow(panic_path)"
                )
                },
            );
        } else {
            // Inside the hot set the per-line rule already bans panic
            // tokens; what it cannot see is unbounded indexing.
            report(
                ctx,
                findings,
                &mut seen,
                &reach,
                id,
                HitKind::Index,
                |what, q| {
                    format!(
                    "bare index `[{what}]` in `{q}` is not structurally bounded (no range-loop binder, mask, or constant) and can panic out of bounds; restructure or justify with lint:allow(panic_path)"
                )
                },
            );
        }
    }
}

fn report(
    ctx: &PassCtx<'_>,
    findings: &mut Vec<Finding>,
    seen: &mut BTreeSet<(String, u32)>,
    reach: &Reach,
    id: usize,
    kind: HitKind,
    msg: impl Fn(&str, &str) -> String,
) {
    let n = &ctx.graph.nodes[id];
    for hit in hits_of(n, kind) {
        if ctx.allowed(&n.file, hit.line, "panic_path")
            || ctx.allowed(&n.file, hit.line, "panic_freedom")
        {
            continue;
        }
        if !seen.insert((n.file.clone(), hit.line)) {
            continue;
        }
        findings.push(Finding {
            rule: "panic_path",
            file: n.file.clone(),
            line: hit.line,
            function: Some(n.qualified()),
            message: msg(&hit.what, &n.qualified()),
            evidence: reach.chain(ctx.graph, id),
        });
    }
}
