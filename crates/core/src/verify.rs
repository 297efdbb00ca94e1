//! Engine self-checks.
//!
//! [`DacceEngine::check_invariants`] audits the internal consistency of the
//! engine at a safe point (between events). It is deliberately exhaustive
//! and O(state size) — meant for tests, debugging sessions and the
//! randomized differential harness, not for the hot path. The concurrent
//! [`crate::Tracker`] reuses the same checks over its shared state and
//! every live thread slot via `Tracker::check_invariants`.

use std::collections::HashMap;

use dacce_callgraph::{CallSiteId, DecodeDict, FunctionId};
use dacce_program::CostModel;

use crate::decode::decode_thread;
use crate::engine::DacceEngine;
use crate::patch::{PatchTable, SitePatch};
use crate::shared::{Generation, ResolvedSite, SharedState};
use crate::thread::ThreadCtx;

/// Shared-state invariants: dictionaries in lock step with `gTimeStamp`,
/// `maxID` agreement, every graph edge patched with a consistent owner,
/// and the compiled dispatch table agreeing with the logical patch table
/// for every `(site, callee)` pair.
pub(crate) fn check_shared(sh: &SharedState) -> Result<(), String> {
    let g = &sh.current;
    let view = &g.view;
    // 1 & 2: dictionaries.
    if view.dicts.len() != view.ts.index() + 1 {
        return Err(format!(
            "dictionary count {} out of step with timestamp {}",
            view.dicts.len(),
            view.ts
        ));
    }
    let latest = view
        .dicts
        .latest()
        .ok_or_else(|| "no dictionary recorded".to_string())?;
    if latest.max_id() != view.max_id {
        return Err(format!(
            "latest dictionary maxID {} != live maxID {}",
            latest.max_id(),
            view.max_id
        ));
    }

    // 3: graph edges vs patch states and owners.
    for (_, e) in g.graph.edges() {
        let state = g
            .patches
            .get(e.site)
            .ok_or_else(|| format!("edge {e:?} has no site state"))?;
        if matches!(state.patch, SitePatch::Trap) {
            return Err(format!("executed site {} still patched as trap", e.site));
        }
        match view.site_owner.get(&e.site) {
            Some(&owner) if owner == e.caller => {}
            Some(&owner) => {
                return Err(format!(
                    "site {} owner {owner} disagrees with edge caller {}",
                    e.site, e.caller
                ))
            }
            None => return Err(format!("site {} has no recorded owner", e.site)),
        }
    }

    // 4: the compiled dispatch table is the flattening of the patch table.
    check_dispatch(g)?;

    // 5: degraded-state bookkeeping is arithmetically consistent.
    check_degraded(sh)
}

/// Exhaustively cross-checks the flat dispatch table against the logical
/// patch table: every patched site must have a compiled record whose
/// `resolve` agrees with [`lookup_in`] for every node of the call graph
/// (including unknown-target traps), compiled slots must be unique, and no
/// record may exist for an unpatched site.
///
/// Degraded encodings are accepted: with an injected dispatch-slot cap a
/// patched site may legitimately have *no* compiled record (it was starved
/// and traps on every call). Such sites are exempt from the per-callee
/// equivalence check — trapping is always sound — but must be fully
/// accounted for by the table's refusal counter.
fn check_dispatch(g: &Generation) -> Result<(), String> {
    let view = &g.view;
    let mut nodes: Vec<FunctionId> = g.graph.nodes().to_vec();
    // Probe an id the graph has never seen so unknown-callee traps are
    // covered too.
    nodes.push(FunctionId::new(u32::MAX - 1));
    let mut compiled = 0usize;
    let mut seen_slots = std::collections::HashSet::new();
    for (site, slot, _) in view.dispatch.iter_compiled() {
        if g.patches.get(site).is_none() {
            return Err(format!(
                "dispatch table has a record for unpatched site {site}"
            ));
        }
        if !seen_slots.insert(slot) {
            return Err(format!("dispatch slot {slot} assigned to {site} twice"));
        }
        compiled += 1;
    }
    let mut starved = 0usize;
    for (&site, _) in g.patches.iter() {
        if !view.dispatch.iter_compiled().any(|(s, _, _)| s == site) {
            if view.dispatch.slot_failures() == 0 {
                return Err(format!("patched site {site} has no compiled record"));
            }
            // Starved by the injected slot cap: permanently traps.
            starved += 1;
            continue;
        }
        for &callee in &nodes {
            let flat = view.resolve(site, callee);
            let logical = lookup_in(&g.patches, &view.cost, site, callee);
            if flat != logical {
                return Err(format!(
                    "dispatch disagreement at ({site}, {callee}): \
                     flat {flat:?} != logical {logical:?}"
                ));
            }
        }
    }
    if compiled + starved != g.patches.len() {
        return Err(format!(
            "{compiled} compiled + {starved} starved records != {} patched sites",
            g.patches.len()
        ));
    }
    if starved > 0 && view.dispatch.slot_failures() < starved as u64 {
        return Err(format!(
            "{starved} starved sites but only {} recorded slot refusals",
            view.dispatch.slot_failures()
        ));
    }
    Ok(())
}

/// The logical patch table's resolution of `(site, callee)`: the reference
/// [`check_dispatch`] holds the compiled dispatch table to, probe by probe.
fn lookup_in(
    patches: &PatchTable,
    cost: &CostModel,
    site: CallSiteId,
    callee: FunctionId,
) -> Option<ResolvedSite> {
    let state = patches.get(site)?;
    match &state.patch {
        SitePatch::Trap => None,
        SitePatch::Direct(target, action) => {
            if *target == callee {
                Some(ResolvedSite {
                    action: *action,
                    dispatch_cost: 0,
                    tc_wrap: state.tc_wrap,
                })
            } else {
                None
            }
        }
        SitePatch::Indirect(p) => match p.lookup(callee) {
            Some((action, cmps, hashed)) => {
                let dispatch_cost = if hashed {
                    cost.hash_lookup
                } else {
                    u64::from(cmps) * cost.compare
                };
                Some(ResolvedSite {
                    action,
                    dispatch_cost,
                    tc_wrap: state.tc_wrap,
                })
            }
            None => None,
        },
    }
}

/// Degraded-state arithmetic: demoted nodes must exist in the call graph,
/// and the counters must be mutually consistent (a node can only be
/// demoted by a trap, and degradation is monotone with the overflow
/// switch).
pub(crate) fn check_degraded(sh: &SharedState) -> Result<(), String> {
    let d = &sh.stats.degraded;
    if d.active && !sh.reencode_overflowed {
        return Err("degraded mode active but re-encoding still enabled".to_string());
    }
    for &raw in &d.trap_nodes {
        if !sh.current.graph.nodes().contains(&FunctionId::new(raw)) {
            return Err(format!("degraded node {raw} is not in the call graph"));
        }
    }
    if d.degraded_traps < d.trap_nodes.len() as u64 {
        return Err(format!(
            "{} degraded traps cannot have demoted {} nodes",
            d.degraded_traps,
            d.trap_nodes.len()
        ));
    }
    if (!d.trap_nodes.is_empty() || d.degraded_traps > 0) && !d.active {
        return Err("degraded traps recorded without degraded mode".to_string());
    }
    if d.slot_failures < sh.current.view.dispatch.slot_failures() {
        return Err(format!(
            "stats record {} slot failures but the table refused {}",
            d.slot_failures,
            sh.current.view.dispatch.slot_failures()
        ));
    }
    Ok(())
}

/// Per-thread invariants against the dictionary the thread's context is
/// stamped with: shadow-stack monotonicity, id within the encodable budget
/// `[0, 2*maxID + 1]`, and the live context decoding to a root-to-current
/// path. `label` names the thread in error messages.
pub(crate) fn check_thread(
    dict: &DecodeDict,
    owners: &HashMap<CallSiteId, FunctionId>,
    max_id: u64,
    label: &str,
    ctx: &ThreadCtx,
) -> Result<(), String> {
    let budget = 2u128 * u128::from(max_id) + 1;
    if u128::from(ctx.id) > budget {
        return Err(format!(
            "{label}: id {} outside encodable range [0, {budget}]",
            ctx.id
        ));
    }
    let mut prev = 0usize;
    for frame in &ctx.shadow {
        if frame.saved_cc_len > ctx.cc.depth() {
            return Err(format!(
                "{label}: shadow frame saved ccStack length {} exceeds depth {}",
                frame.saved_cc_len,
                ctx.cc.depth()
            ));
        }
        if frame.saved_cc_len < prev {
            return Err(format!(
                "{label}: shadow saved ccStack lengths not monotone"
            ));
        }
        prev = frame.saved_cc_len;
    }
    let path = decode_thread(
        dict,
        ctx.id,
        ctx.current,
        ctx.root,
        ctx.cc.entries(),
        owners,
    )
    .map_err(|e| format!("{label}: live context does not decode: {e}"))?;
    match (path.0.first(), path.0.last()) {
        (Some(first), Some(last)) => {
            if first.func != ctx.root {
                return Err(format!(
                    "{label}: decoded root {} != thread root {}",
                    first.func, ctx.root
                ));
            }
            if last.func != ctx.current {
                return Err(format!(
                    "{label}: decoded leaf {} != current {}",
                    last.func, ctx.current
                ));
            }
        }
        _ => return Err(format!("{label}: decoded empty path")),
    }
    Ok(())
}

impl DacceEngine {
    /// Checks every internal invariant; returns a description of the first
    /// violation.
    ///
    /// Invariants checked:
    ///
    /// 1. one decode dictionary per timestamp, in lock step with
    ///    `gTimeStamp`;
    /// 2. the latest dictionary's `maxID` equals the live `maxID`;
    /// 3. every graph edge's site has a patch state and a recorded owner
    ///    function equal to the edge's caller;
    /// 4. per thread: the shadow stack is monotone (saved ccStack lengths
    ///    never exceed the current depth and never decrease upward), and
    ///    the thread's current context decodes to a path rooted at the
    ///    thread root and ending at its current function;
    /// 5. the id of every thread is within the encodable range
    ///    `[0, 2*maxID + 1]`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        check_shared(&self.shared)?;
        for st in self.threads.values() {
            st.check(&self.shared.current.view)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DacceConfig;
    use dacce_program::runtime::CallDispatch;
    use dacce_program::{CostModel, ThreadId};

    fn f(i: u32) -> FunctionId {
        FunctionId::new(i)
    }
    fn s(i: u32) -> CallSiteId {
        CallSiteId::new(i)
    }

    #[test]
    fn fresh_engine_passes() {
        let mut e = DacceEngine::new(DacceConfig::default(), CostModel::default());
        e.attach_main(f(0));
        e.thread_start(ThreadId::MAIN, f(0), None);
        e.check_invariants().unwrap();
    }

    #[test]
    fn invariants_hold_across_calls_and_reencodes() {
        let cfg = DacceConfig {
            edge_threshold: 2,
            min_events_between_reencodes: 1,
            ..DacceConfig::default()
        };
        let mut e = DacceEngine::new(cfg, CostModel::default());
        e.attach_main(f(0));
        e.thread_start(ThreadId::MAIN, f(0), None);
        for round in 0..5u32 {
            for i in 0..4u32 {
                let caller = if i == 0 { f(0) } else { f(i) };
                let _ = e.call(
                    ThreadId::MAIN,
                    s(round * 4 + i),
                    caller,
                    f(i + 1),
                    CallDispatch::Direct,
                    false,
                );
                e.check_invariants().unwrap();
            }
            for i in (0..4u32).rev() {
                let caller = if i == 0 { f(0) } else { f(i) };
                let _ = e.ret(ThreadId::MAIN, s(round * 4 + i), caller, f(i + 1));
                e.check_invariants().unwrap();
            }
        }
    }

    #[test]
    fn corrupted_id_is_detected() {
        let mut e = DacceEngine::new(DacceConfig::default(), CostModel::default());
        e.attach_main(f(0));
        e.thread_start(ThreadId::MAIN, f(0), None);
        // Reach in and corrupt the thread id beyond the encodable range.
        e.threads.get_mut(&ThreadId::MAIN).unwrap().ctx.id = u64::MAX;
        let err = e.check_invariants().unwrap_err();
        assert!(err.contains("outside encodable range"), "{err}");
    }

    #[test]
    fn corrupted_current_function_is_detected() {
        let mut e = DacceEngine::new(DacceConfig::default(), CostModel::default());
        e.attach_main(f(0));
        e.thread_start(ThreadId::MAIN, f(0), None);
        e.threads.get_mut(&ThreadId::MAIN).unwrap().ctx.current = f(7);
        let err = e.check_invariants().unwrap_err();
        assert!(
            err.contains("does not decode") || err.contains("decoded"),
            "{err}"
        );
    }
}
