//! Per-thread encoding state.
//!
//! Each thread owns its context identifier and `ccStack` (allocated in TLS
//! in the paper's prototype, §5.3). Additionally the engine keeps a *shadow
//! stack* mirroring the thread's physical frames; it stands in for the
//! machine-stack access a DBI runtime handler has (return-address rewriting
//! at re-encoding, retroactive `TcStack` fix-up when the first tail call of
//! a function traps — see `DESIGN.md`). Only operations on frames whose
//! `wrapped` flag is set are charged as `TcStack` cost; the rest of the
//! shadow is free bookkeeping that real instrumentation keeps on the machine
//! stack itself.
//!
//! [`ThreadState`] wraps a [`ThreadCtx`] with everything else one thread
//! keeps — statistics shard, profiler sampler, sample backlogs — and is the
//! step core both the engine and the concurrent tracker drive.

use std::sync::Arc;

use dacce_callgraph::{CallSiteId, FunctionId, TimeStamp};
use dacce_obs::{EventKind, JournalWriter, MetricsRegistry, Sampler};
use dacce_program::ThreadId;

use crate::ccstack::CcStack;
use crate::context::{EncodedContext, SpawnLink};
use crate::decode::decode_thread;
use crate::fastpath::{self, EncodingView};
use crate::patch::EdgeAction;
use crate::shared::{context_fingerprint, push_circular, SharedState};
use crate::stats::{DacceStats, StatsShard};
use crate::sync::{AtomicU64, Ordering};
use crate::verify::check_thread;

/// Number of [`InlineCache`] entries. A power of two; the dispatch slot
/// masked by `IC_SIZE - 1` picks the entry (direct-mapped).
const IC_SIZE: usize = 64;

/// One inline-cache entry: the last `(site, target)` resolved through a
/// polymorphic (indirect) dispatch slot, stamped with the encoding epoch
/// it was filled under.
#[derive(Clone, Copy, Debug)]
struct IcEntry {
    /// Snapshot epoch the entry was filled under; `u64::MAX` = empty.
    epoch: u64,
    site: CallSiteId,
    target: FunctionId,
    action: EdgeAction,
    tc_wrap: bool,
}

const IC_EMPTY: IcEntry = IcEntry {
    epoch: u64::MAX,
    site: CallSiteId::new(u32::MAX),
    target: FunctionId::new(u32::MAX),
    action: EdgeAction::Unencoded,
    tc_wrap: false,
};

/// A per-thread direct-mapped cache over polymorphic (indirect) call
/// sites: last callee → resolved action. Entries are stamped with the
/// encoding epoch they were filled under, so publishing a new snapshot
/// invalidates every entry for free — no cross-thread shootdown.
///
/// Monomorphic sites never come through here: their dispatch record *is*
/// the resolution, so caching would only add a compare.
#[derive(Clone, Debug)]
pub struct InlineCache {
    entries: Box<[IcEntry; IC_SIZE]>,
}

impl Default for InlineCache {
    fn default() -> Self {
        InlineCache {
            entries: Box::new([IC_EMPTY; IC_SIZE]),
        }
    }
}

impl InlineCache {
    /// Looks up `(site, target)` at dispatch slot `slot` under `epoch`.
    /// A stale epoch, a colliding slot or a different callee all miss.
    #[inline]
    pub(crate) fn probe(
        &self,
        slot: u32,
        epoch: u64,
        site: CallSiteId,
        target: FunctionId,
    ) -> Option<(EdgeAction, bool)> {
        let e = &self.entries[slot as usize & (IC_SIZE - 1)];
        (e.epoch == epoch && e.site == site && e.target == target).then_some((e.action, e.tc_wrap))
    }

    /// Installs the resolution for `(site, target)` at slot `slot`,
    /// evicting whatever shared the entry.
    #[inline]
    pub(crate) fn fill(
        &mut self,
        slot: u32,
        epoch: u64,
        site: CallSiteId,
        target: FunctionId,
        action: EdgeAction,
        tc_wrap: bool,
    ) {
        self.entries[slot as usize & (IC_SIZE - 1)] = IcEntry {
            epoch,
            site,
            target,
            action,
            tc_wrap,
        };
    }

    /// Drops every entry (thread reset).
    pub(crate) fn clear(&mut self) {
        *self.entries = [IC_EMPTY; IC_SIZE];
    }
}

/// One shadow frame: a physical, still-active call.
#[derive(Clone, Copy, Debug)]
pub struct ShadowFrame {
    /// The call site that created the frame.
    pub site: CallSiteId,
    /// The target invoked at call time (stays the original even if tail
    /// calls later replaced the physical frame's function).
    pub callee: FunctionId,
    /// `id` before the site's before-call instrumentation ran.
    pub saved_id: u64,
    /// `ccStack` depth before the site's before-call instrumentation ran.
    pub saved_cc_len: usize,
    /// Repetition count of the `ccStack` top entry before the call. A
    /// compressed push increments the top's counter without changing the
    /// stack length, so the `TcStack` absolute restore must reinstate the
    /// count as well as the length (§3.3 meets §5.2).
    pub saved_top_count: u64,
    /// Whether the site's `TcStack` save executed for this frame (§5.2).
    pub wrapped: bool,
}

/// The complete encoding state of one thread.
#[derive(Clone, Debug)]
pub struct ThreadCtx {
    /// The context identifier (`id`).
    pub id: u64,
    /// The encoding-context stack.
    pub cc: CcStack,
    /// The function currently executing (tracked from call/return events;
    /// a real runtime reads it off the PC).
    pub current: FunctionId,
    /// The thread's root function.
    pub root: FunctionId,
    /// Shadow of the physical frames, oldest first.
    pub shadow: Vec<ShadowFrame>,
    /// Thread-creation context (§5.3), `None` for the initial thread.
    pub spawn: Option<SpawnLink>,
    /// `TcStack` save/restore operations performed.
    pub tc_ops: u64,
    /// Indirect-call inline cache (epoch-stamped, see [`InlineCache`]).
    pub icache: InlineCache,
}

impl ThreadCtx {
    /// Fresh state for a thread rooted at `root`.
    pub fn new(root: FunctionId, spawn: Option<SpawnLink>) -> Self {
        ThreadCtx {
            id: 0,
            cc: CcStack::new(),
            current: root,
            root,
            shadow: Vec::with_capacity(64),
            spawn,
            tc_ops: 0,
            icache: InlineCache::default(),
        }
    }

    /// True when the encoding state is back at its initial value — the
    /// invariant after a fully unwound (balanced) execution.
    pub fn is_clean(&self) -> bool {
        self.id == 0 && self.cc.is_empty() && self.shadow.is_empty()
    }

    /// Resets to the initial state (main-loop restart).
    pub fn reset(&mut self) {
        self.id = 0;
        self.cc.clear();
        self.shadow.clear();
        self.current = self.root;
        self.icache.clear();
    }
}

/// The step core: one thread's [`ThreadCtx`] plus the bookkeeping around
/// every event it executes. Both drivers pass an [`EncodingView`]: the
/// [`crate::Tracker`] the one in its cached snapshot, the
/// [`crate::DacceEngine`] its shared state's current one. The journal
/// writer and its gate are arguments, not
/// state: the engine keeps its one shared writer, and batched callers load
/// the gate once per batch.
#[derive(Debug)]
pub(crate) struct ThreadState {
    pub(crate) tid: ThreadId,
    pub(crate) ctx: ThreadCtx,
    /// The generation `ctx` is encoded under.
    pub(crate) ts: TimeStamp,
    /// Locally accumulated statistics, folded on stats drains.
    pub(crate) shard: StatsShard,
    /// Events not yet flushed to the shared trigger counters (tracker).
    pub(crate) batch_events: u64,
    /// Continuous-profiler sampler (deterministic stride with per-thread
    /// jitter phase: seeded `profiler_seed ^ tid`).
    pub(crate) sampler: Sampler,
    /// ccStack ops already published to the shared trigger state.
    flushed_cc_ops: u64,
    /// Recent samples and weighted profiler samples awaiting a drain into
    /// the shared rings (circular).
    pending_samples: Vec<EncodedContext>,
    pending_pos: usize,
    pending_profiler: Vec<(EncodedContext, u64)>,
    pending_profiler_pos: usize,
    metrics: Arc<MetricsRegistry>,
}

/// Capacity of each per-thread sample backlog.
const SAMPLE_BACKLOG: usize = 64;

impl ThreadState {
    /// Fresh state for thread `tid` rooted at `root`, encoded under the
    /// current generation of `sh`.
    pub(crate) fn new(
        tid: ThreadId,
        root: FunctionId,
        spawn: Option<SpawnLink>,
        sh: &SharedState,
    ) -> Self {
        let config = &sh.config;
        let mut ctx = ThreadCtx::new(root, spawn);
        ctx.cc.set_spill_limit(config.fault.cc_spill_limit);
        let seed = config.profiler_seed ^ u64::from(tid.raw());
        ThreadState {
            tid,
            ctx,
            ts: sh.current.view.ts,
            shard: StatsShard::default(),
            batch_events: 0,
            sampler: Sampler::new(config.profiler_stride, seed, config.profiler_budget),
            flushed_cc_ops: 0,
            pending_samples: Vec::new(),
            pending_pos: 0,
            pending_profiler: Vec::new(),
            pending_profiler_pos: 0,
            metrics: Arc::clone(sh.obs.metrics()),
        }
    }

    /// Before-call step for an already-resolved `action`: the
    /// instrumentation, its counters, the journaled ccStack push and the
    /// overflow high-water check. Returns the cost units (dispatch and
    /// trap excluded).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn call(
        &mut self,
        view: &EncodingView,
        writer: &JournalWriter,
        obs_on: bool,
        site: CallSiteId,
        callee: FunctionId,
        action: EdgeAction,
        site_wraps: bool,
        tail: bool,
    ) -> u64 {
        let prev_max = self.ctx.cc.max_depth();
        let eff = fastpath::exec_call(view, &mut self.ctx, site, callee, action, site_wraps, tail);
        self.shard.calls += 1;
        if eff.compress_hit {
            self.shard.compress_hits += 1;
        }
        if action.uses_ccstack() {
            let deeper = self.ctx.cc.depth() > prev_max;
            let depth = self.ctx.cc.depth() as u32;
            let tid = self.tid.raw();
            if obs_on {
                writer.emit_for(tid, EventKind::CcPush { depth });
            }
            if deeper && depth >= writer.overflow_watermark() {
                self.metrics.cc_overflows.inc();
                writer.emit_for(tid, EventKind::CcOverflow { depth });
            }
        }
        eff.cost
    }

    /// After-call step for an already-resolved `action`, with the
    /// journaled ccStack pop. Returns the cost units.
    #[inline]
    pub(crate) fn ret(
        &mut self,
        view: &EncodingView,
        writer: &JournalWriter,
        obs_on: bool,
        site: CallSiteId,
        caller: FunctionId,
        action: EdgeAction,
    ) -> u64 {
        let cost = fastpath::exec_ret(view, &mut self.ctx, site, caller, action);
        if obs_on && action.uses_ccstack() {
            let depth = self.ctx.cc.depth() as u32;
            writer.emit_for(self.tid.raw(), EventKind::CcPop { depth });
        }
        cost
    }

    /// Continuous-profiler tick for one call through `site`. When the
    /// sampler fires, the context is counted, journaled as a `Sample`
    /// event and buffered for the next [`Self::drain`].
    #[inline]
    pub(crate) fn profiler_tick(&mut self, writer: &JournalWriter, obs_on: bool, site: CallSiteId) {
        let Some(weight) = self.sampler.tick() else {
            return;
        };
        let snap = self.context();
        let depth = snap.cc_depth() as u32;
        self.metrics.on_profiler_sample(depth, snap.id, weight);
        if obs_on {
            let sample = EventKind::Sample {
                generation: snap.ts.raw(),
                id: snap.id,
                site: site.raw(),
                leaf: snap.leaf.raw(),
                root: snap.root.raw(),
                fingerprint: context_fingerprint(&snap),
                weight: u32::try_from(weight).unwrap_or(u32::MAX),
                depth,
            };
            writer.emit_for(self.tid.raw(), sample);
        }
        push_circular(
            &mut self.pending_profiler,
            &mut self.pending_profiler_pos,
            SAMPLE_BACKLOG,
            (snap, weight),
        );
    }

    /// The current encoded context, stamped with its generation. No
    /// accounting.
    pub(crate) fn context(&self) -> EncodedContext {
        EncodedContext {
            ts: self.ts,
            id: self.ctx.id,
            leaf: self.ctx.current,
            root: self.ctx.root,
            cc: self.ctx.cc.entries().to_vec(),
            spawn: self.ctx.spawn.clone(),
        }
    }

    /// Records one sample of the current context (counted, buffered for
    /// the shared heat ring).
    pub(crate) fn sample(&mut self) -> EncodedContext {
        let snap = self.context();
        self.shard.note_cc_depth(snap.cc_depth());
        self.metrics.on_sample(snap.cc_depth() as u32, snap.id);
        push_circular(
            &mut self.pending_samples,
            &mut self.pending_pos,
            SAMPLE_BACKLOG,
            snap.clone(),
        );
        snap
    }

    /// The one migration path: when `view`'s generation moved past the
    /// context's, decode under the old generation's dictionary (still in
    /// the view's store) and replay under the new patches. Lazy epoch
    /// checks, traps, lineage adoptions and re-encodes all come here.
    pub(crate) fn migrate(&mut self, view: &EncodingView, writer: &JournalWriter, obs_on: bool) {
        let to = view.ts;
        if to == self.ts {
            return;
        }
        let ctx = &self.ctx;
        let path = view.dicts.get(self.ts).map(|dict| {
            decode_thread(
                dict,
                ctx.id,
                ctx.current,
                ctx.root,
                ctx.cc.entries(),
                &view.site_owner,
            )
        });
        match path {
            Some(Ok(path)) => fastpath::replay(view, &mut self.ctx, &path),
            // An engine bug: keep the stale state and surface it.
            _ => self.shard.decode_errors += 1,
        }
        self.metrics.migrations.inc();
        if obs_on {
            let (from, to) = (self.ts.raw(), to.raw());
            writer.emit_for(self.tid.raw(), EventKind::Migration { from, to });
        }
        self.ts = to;
    }

    /// Audits the context against its generation in `view` (see
    /// [`check_thread`]).
    pub(crate) fn check(&self, view: &EncodingView) -> Result<(), String> {
        let label = self.tid.to_string();
        let dict = view
            .dicts
            .get(self.ts)
            .ok_or_else(|| format!("{label}: timestamp {} has no dictionary", self.ts))?;
        check_thread(dict, &view.site_owner, view.max_id, &label, &self.ctx)
    }

    /// Drains both sample backlogs into the shared rings, the hit/miss
    /// tallies and spill events into the registry, and the spill-region
    /// peak into the shared degraded state.
    pub(crate) fn drain(&mut self, sh: &mut SharedState) {
        for s in self.pending_samples.drain(..) {
            sh.push_ring(s);
        }
        self.pending_pos = 0;
        self.drain_profile(sh);
        self.flush_obs();
        let spills = self.ctx.cc.take_spill_events();
        if spills > 0 {
            self.metrics.cc_spills.add(spills);
            let peak = &mut sh.stats.degraded.cc_spilled_peak;
            *peak = (*peak).max(self.ctx.cc.spilled_peak() as u64);
        }
    }

    /// Drains only the profiler backlog into the shared profiler ring. The
    /// heat-ring backlog waits for the thread's own drain points, so
    /// reading the profile never changes which samples feed re-encoding.
    pub(crate) fn drain_profile(&mut self, sh: &mut SharedState) {
        for s in self.pending_profiler.drain(..) {
            sh.push_profiler_ring(s);
        }
        self.pending_profiler_pos = 0;
    }

    /// Publishes the ccStack operations executed since the previous call
    /// into the shared total `total` (the "live thread ccops" of the §4
    /// rate trigger).
    pub(crate) fn publish_cc_ops(&mut self, total: &AtomicU64) {
        let now = self.ctx.cc.ops();
        let delta = now.saturating_sub(self.flushed_cc_ops);
        if delta > 0 {
            total.fetch_add(delta, Ordering::Relaxed);
        }
        self.flushed_cc_ops = now;
    }

    /// Moves the shard's inline-cache and superop hit/miss tallies into
    /// the registry.
    pub(crate) fn flush_obs(&mut self) {
        let s = &mut self.shard;
        let take = std::mem::take;
        self.metrics
            .on_icache(take(&mut s.icache_hits), take(&mut s.icache_misses));
        self.metrics
            .on_superops(take(&mut s.superop_hits), take(&mut s.superop_misses));
    }

    /// Folds the shard and the live ccStack/TcStack counters into `out`.
    pub(crate) fn fold_into(&self, out: &mut DacceStats) {
        let cc = &self.ctx.cc;
        out.absorb_shard(&self.shard);
        out.ccstack_ops += cc.ops();
        out.tcstack_ops += self.ctx.tc_ops;
        let peak = &mut out.degraded.cc_spilled_peak;
        *peak = (*peak).max(cc.spilled_peak() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FunctionId {
        FunctionId::new(i)
    }

    #[test]
    fn new_thread_is_clean() {
        let ctx = ThreadCtx::new(f(3), None);
        assert!(ctx.is_clean());
        assert_eq!(ctx.current, f(3));
        assert_eq!(ctx.root, f(3));
    }

    #[test]
    fn dirty_state_detected_and_reset() {
        let mut ctx = ThreadCtx::new(f(0), None);
        ctx.id = 5;
        ctx.current = f(2);
        ctx.shadow.push(ShadowFrame {
            site: CallSiteId::new(1),
            callee: f(2),
            saved_id: 0,
            saved_cc_len: 0,
            saved_top_count: 0,
            wrapped: false,
        });
        assert!(!ctx.is_clean());
        ctx.reset();
        assert!(ctx.is_clean());
        assert_eq!(ctx.current, f(0));
    }

    #[test]
    fn icache_hits_only_exact_epoch_site_target() {
        let mut ic = InlineCache::default();
        let site = CallSiteId::new(9);
        let action = EdgeAction::Encoded { delta: 7 };
        assert!(ic.probe(3, 1, site, f(2)).is_none());
        ic.fill(3, 1, site, f(2), action, true);
        assert_eq!(ic.probe(3, 1, site, f(2)), Some((action, true)));
        // Different callee, stale epoch, colliding slot with another site:
        // all miss.
        assert!(ic.probe(3, 1, site, f(5)).is_none());
        assert!(ic.probe(3, 2, site, f(2)).is_none());
        assert!(ic.probe(3 + 64, 1, CallSiteId::new(10), f(2)).is_none());
        ic.clear();
        assert!(ic.probe(3, 1, site, f(2)).is_none());
    }

    #[test]
    fn icache_slot_collision_evicts() {
        let mut ic = InlineCache::default();
        let a = CallSiteId::new(1);
        let b = CallSiteId::new(2);
        ic.fill(5, 1, a, f(1), EdgeAction::Unencoded, false);
        ic.fill(5 + 64, 1, b, f(2), EdgeAction::Unencoded, false);
        assert!(ic.probe(5, 1, a, f(1)).is_none());
        assert!(ic.probe(5 + 64, 1, b, f(2)).is_some());
    }
}
