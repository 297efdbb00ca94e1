//! Per-thread instrumentation execution — the lock-free fast path.
//!
//! Everything here operates on one thread's [`ThreadCtx`] plus a read-only
//! [`EncodingView`]: no shared mutable state, no locks. The only caller is
//! the step core, [`crate::thread::ThreadState`], which wraps these
//! primitives with the per-event bookkeeping. Both drivers read the same
//! view type: the [`crate::engine::DacceEngine`] passes its shared state's
//! current view (it owns everything under one `&mut self`); the concurrent
//! [`crate::tracker::Tracker`] passes the clone inside a published
//! [`crate::shared::EncodingSnapshot`] — which is what makes call/return
//! over already-encoded edges execute entirely on thread-local state —
//! and, on its locked slow paths, the shared state's current view.

use std::collections::HashMap;
use std::sync::Arc;

use dacce_callgraph::{CallSiteId, DictStore, FunctionId, TimeStamp};
use dacce_program::{ContextPath, CostModel};

use crate::context::EncodedContext;
use crate::decode::{decode_full, DecodeError};
use crate::dispatch::DispatchTable;
use crate::patch::EdgeAction;
use crate::shared::ResolvedSite;
use crate::thread::{ShadowFrame, ThreadCtx};

/// The thread-read part of a [`Generation`]: everything a thread needs to
/// execute instrumentation, decode and migrate its context. Every published
/// snapshot carries a clone of it, so cloning is cheap: the dispatch
/// table, dictionaries and owner table are `Arc`-backed.
///
/// [`Generation`]: crate::shared::Generation
#[derive(Clone, Debug)]
pub(crate) struct EncodingView {
    /// `gTimeStamp` of the encoding.
    pub(crate) ts: TimeStamp,
    /// `maxID` of the encoding.
    pub(crate) max_id: u64,
    /// Every dictionary recorded up to `ts`: a context built in an older
    /// generation decodes (and migrates) under its own dictionary.
    pub(crate) dicts: DictStore,
    /// Every call site's generated code, in dense slot-indexed vectors;
    /// the only thing the hot-path `resolve` reads.
    pub(crate) dispatch: DispatchTable,
    /// The call-site owner table (for decoding).
    pub(crate) site_owner: Arc<HashMap<CallSiteId, FunctionId>>,
    /// The instance's own cost model and tail-call switch. Like the
    /// dispatch slot cap, they come from the instance's configuration and
    /// are never taken from a lineage.
    pub(crate) cost: CostModel,
    pub(crate) handle_tail_calls: bool,
}

impl EncodingView {
    /// Resolves `(site, callee)` in one compiled-table probe (a
    /// bounds-checked array index for monomorphic sites): action, dispatch
    /// cost and TcStack wrapping. `None` means the site (or this target)
    /// traps.
    pub(crate) fn resolve(&self, site: CallSiteId, callee: FunctionId) -> Option<ResolvedSite> {
        self.dispatch.resolve(site, callee, &self.cost)
    }

    /// Decodes an encoded context (spawn chain included) against the
    /// recorded dictionaries.
    pub(crate) fn decode(&self, ctx: &EncodedContext) -> Result<ContextPath, DecodeError> {
        decode_full(ctx, &self.dicts, &self.site_owner)
    }
}

/// What one before-call execution did, for the caller's accounting.
pub(crate) struct CallEffect {
    /// Cost units the instrumentation spent (excluding dispatch/trap).
    pub(crate) cost: u64,
    /// A compressed push hit the top entry (bump `compress_hits`).
    pub(crate) compress_hit: bool,
}

/// Executes the before-call instrumentation of `site` on `ctx` for an
/// already-resolved `action` (`site_wraps` is the site's TcStack flag from
/// the same probe). Pure thread-local state mutation.
pub(crate) fn exec_call(
    view: &EncodingView,
    ctx: &mut ThreadCtx,
    site: CallSiteId,
    callee: FunctionId,
    action: EdgeAction,
    site_wraps: bool,
    tail: bool,
) -> CallEffect {
    let mut cost = 0u64;
    let mut compress_hit = false;
    let wrapped = !tail && view.handle_tail_calls && site_wraps;

    let saved_id = ctx.id;
    let saved_cc_len = ctx.cc.depth();
    let saved_top_count = ctx.cc.top().map_or(0, |e| e.count);
    if wrapped {
        ctx.tc_ops += 1;
        cost += view.cost.tcstack_op;
    }

    match action {
        EdgeAction::Encoded { delta } => {
            if delta != 0 {
                ctx.id = ctx.id.wrapping_add(delta);
                cost += view.cost.id_arith;
            }
        }
        EdgeAction::Unencoded => {
            ctx.cc.push(ctx.id, site, callee);
            ctx.id = view.max_id + 1;
            cost += view.cost.ccstack_op + view.cost.id_arith;
        }
        EdgeAction::UnencodedCompressed => {
            if ctx.cc.push_compressed(ctx.id, site, callee) {
                compress_hit = true;
            }
            ctx.id = view.max_id + 1;
            cost += view.cost.compare + view.cost.ccstack_op + view.cost.id_arith;
        }
    }

    if !tail {
        ctx.shadow.push(ShadowFrame {
            site,
            callee,
            saved_id,
            saved_cc_len,
            saved_top_count,
            wrapped,
        });
    }
    ctx.current = callee;

    CallEffect { cost, compress_hit }
}

/// Executes the after-call instrumentation when control returns to the
/// frame that called through `site`, for an already-resolved `action`
/// (callers resolve it — or reuse the one cached at call time when the
/// encoding generation has not moved). Returns the cost units spent.
pub(crate) fn exec_ret(
    view: &EncodingView,
    ctx: &mut ThreadCtx,
    site: CallSiteId,
    caller: FunctionId,
    action: EdgeAction,
) -> u64 {
    let mut cost = 0u64;

    let frame = ctx.shadow.pop().expect("balanced call/return events");
    debug_assert_eq!(frame.site, site, "return does not match shadow frame");

    if frame.wrapped {
        // §5.2: absolute restore via TcStack — immune to tail calls in
        // the callee. Restores the length *and* the top entry's
        // repetition count (a compressed push that hit changed only
        // the count).
        ctx.id = frame.saved_id;
        ctx.cc.truncate(frame.saved_cc_len);
        ctx.cc.restore_top_count(frame.saved_top_count);
        ctx.tc_ops += 1;
        cost += view.cost.tcstack_op;
    } else {
        match action {
            EdgeAction::Encoded { delta } => {
                if delta != 0 {
                    ctx.id = ctx.id.wrapping_sub(delta);
                    cost += view.cost.id_arith;
                }
            }
            EdgeAction::Unencoded => {
                ctx.id = ctx.cc.pop();
                cost += view.cost.ccstack_op;
            }
            EdgeAction::UnencodedCompressed => {
                ctx.id = ctx.cc.pop_compressed();
                cost += view.cost.ccstack_op;
            }
        }
    }
    ctx.current = caller;
    cost
}

/// Rebuilds one thread's encoding state by replaying its decoded path
/// under `view`'s dispatch table — each step is the before-call
/// instrumentation of its edge. Physical frames are recognised by matching
/// the old shadow stack (tail steps are never physical; a call site is
/// statically either a tail call or not, so the match is unambiguous).
/// Replay charges nothing: the TcStack saves of the rebuilt frames were
/// counted when the frames were first entered.
pub(crate) fn replay(view: &EncodingView, ctx: &mut ThreadCtx, path: &ContextPath) {
    let old_shadow: Vec<ShadowFrame> = std::mem::take(&mut ctx.shadow);
    let tc_ops = ctx.tc_ops;
    ctx.id = 0;
    ctx.cc.clear();

    let mut k = 0usize;
    for step in path.0.iter().skip(1) {
        let site = step.site.expect("non-root steps carry their site");
        let func = step.func;
        let physical =
            k < old_shadow.len() && old_shadow[k].site == site && old_shadow[k].callee == func;
        let (action, tc_wrap) = view
            .resolve(site, func)
            .map_or((EdgeAction::Unencoded, false), |r| (r.action, r.tc_wrap));
        let _ = exec_call(view, ctx, site, func, action, tc_wrap, !physical);
        if physical {
            k += 1;
        }
    }
    ctx.tc_ops = tc_ops;
    debug_assert!(
        k == old_shadow.len() || !view.handle_tail_calls,
        "replay must reconstruct every physical frame"
    );
    // With a corrupted encoding (broken-tail-call ablation) the decoded
    // path can disagree with the physical frames; keep the unmatched
    // frames so call/return bookkeeping stays balanced — the contexts
    // are wrong either way, which is what the ablation demonstrates.
    for frame in old_shadow.into_iter().skip(k) {
        ctx.shadow.push(frame);
    }
}
