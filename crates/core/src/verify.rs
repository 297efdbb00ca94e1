//! Engine self-checks.
//!
//! [`DacceEngine::check_invariants`] audits the internal consistency of the
//! engine at a safe point (between events). It is deliberately exhaustive
//! and O(state size) — meant for tests, debugging sessions and the
//! randomized differential harness, not for the hot path. The concurrent
//! [`crate::Tracker`] reuses the same checks over its shared state and
//! every live thread slot via `Tracker::check_invariants`.

use std::collections::{HashMap, HashSet};

use dacce_callgraph::{CallSiteId, DecodeDict, DictEdge, FunctionId};

use crate::decode::decode_thread;
use crate::engine::DacceEngine;
use crate::patch::EdgeAction;
use crate::shared::{Generation, SharedState};
use crate::thread::ThreadCtx;

/// Shared-state invariants: dictionaries in lock step with `gTimeStamp`,
/// `maxID` agreement, every graph edge with a consistent owner, and the
/// dispatch table agreeing with the facts it is compiled from.
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

    // 3: every graph edge's site is owned by the edge's caller.
    for (_, e) in g.graph.edges() {
        let owner = view.site_owner.get(&e.site);
        if owner != Some(&e.caller) {
            return Err(format!(
                "site {} owner {owner:?} disagrees with edge caller {}",
                e.site, e.caller
            ));
        }
    }

    // 4: the dispatch table runs what the graph and dictionary say.
    check_dispatch(g, latest)?;

    // 5: degraded-state bookkeeping is arithmetically consistent.
    check_degraded(sh)
}

/// Holds the dispatch table to the facts it is compiled from: the call
/// graph, the latest dictionary `latest` and the tail-calling functions.
///
/// * every graph edge resolves at its site: to `Encoded { En(e) }` when
///   the edge is in `latest`, to a ccStack action when it is a back edge
///   there, and to `Unencoded` when it was discovered since;
/// * a site wraps iff one of its edges calls a tail-calling function, and
///   a callee the graph never saw traps;
/// * only sites with graph edges have records, and slots are unique.
///
/// A site the injected dispatch-slot cap starved has no slot and traps on
/// every call — always sound — so it is exempt from the per-edge checks,
/// but the table's refusal counter must cover it.
fn check_dispatch(g: &Generation, latest: &DecodeDict) -> Result<(), String> {
    let view = &g.view;
    let table = &view.dispatch;
    let dict: HashMap<(CallSiteId, FunctionId), &DictEdge> = latest
        .edges()
        .iter()
        .map(|e| ((e.site, e.callee), e))
        .collect();
    let starved: HashSet<CallSiteId> = table.starved().collect();
    // Sites with graph edges, and whether one of them calls a tail function.
    let mut wraps: HashMap<CallSiteId, bool> = HashMap::new();
    for (_, e) in g.graph.edges() {
        *wraps.entry(e.site).or_default() |= g.tail_fns.contains(&e.callee);
        if starved.contains(&e.site) {
            continue;
        }
        let action = view.resolve(e.site, e.callee).map(|r| r.action);
        let ok = match (dict.get(&(e.site, e.callee)), action) {
            (_, None) => false,
            (Some(d), Some(a)) if d.back => a.uses_ccstack(),
            (Some(d), Some(a)) => a == EdgeAction::Encoded { delta: d.encoding },
            (None, Some(a)) => a == EdgeAction::Unencoded,
        };
        if !ok {
            return Err(format!(
                "edge {} --{}--> {} runs {action:?}, not what dictionary {} says",
                e.caller,
                e.site,
                e.callee,
                latest.timestamp()
            ));
        }
    }
    // An id the graph has never seen must trap everywhere.
    let unknown = FunctionId::new(u32::MAX - 1);
    let mut slots = HashSet::new();
    for (site, slot, cs) in table.iter_compiled() {
        if wraps.get(&site) != Some(&cs.tc_wrap) {
            return Err(format!(
                "site {site} wraps: {}, but its graph edges call a tail function: {:?}",
                cs.tc_wrap,
                wraps.get(&site)
            ));
        }
        if let Some(r) = view.resolve(site, unknown) {
            return Err(format!("unknown callee resolves at {site}: {r:?}"));
        }
        if !slots.insert(slot) {
            return Err(format!("dispatch slot {slot} assigned to {site} twice"));
        }
    }
    if let Some(site) = starved.iter().find(|s| !wraps.contains_key(s)) {
        return Err(format!("starved site {site} has no graph edge"));
    }
    if slots.len() + starved.len() != wraps.len() {
        return Err(format!(
            "{} compiled + {} starved records != {} sites with graph edges",
            slots.len(),
            starved.len(),
            wraps.len()
        ));
    }
    if table.slot_failures() < starved.len() as u64 {
        return Err(format!(
            "{} starved sites but only {} recorded slot refusals",
            starved.len(),
            table.slot_failures()
        ));
    }
    Ok(())
}

/// Degraded-state arithmetic: demoted nodes must exist in the call graph,
/// and the counters must be mutually consistent (a node can only be
/// demoted by a trap, and degradation is monotone with the overflow
/// switch).
pub(crate) fn check_degraded(sh: &SharedState) -> Result<(), String> {
    let d = &sh.degraded();
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
    /// 3. every graph edge's site has a recorded owner function equal to
    ///    the edge's caller, and the dispatch table runs what the graph,
    ///    the latest dictionary and the tail-calling functions say;
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
