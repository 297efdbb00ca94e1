//! The DACCE engine: dynamic encoding, the runtime handler, and per-thread
//! instrumentation execution.
//!
//! The engine is the library-level heart of the system, structured as two
//! layers since the concurrency split (see `DESIGN.md`, "Concurrency
//! architecture"):
//!
//! * [`crate::shared::SharedState`] — everything global: the current
//!   encoding `Generation` (the dynamically growing call
//!   graph, the dispatch table — the "generated code" of every call site —
//!   and the versioned decode dictionaries), trigger state and statistics.
//! * [`crate::thread::ThreadState`] — the step core: one thread's encoding
//!   context plus the bookkeeping around every call, return, sample and
//!   migration, executed over a read-only encoding view.
//!
//! `DacceEngine` composes the two behind the original single-threaded API:
//! it owns the shared state plus every thread's [`ThreadState`] and drives
//! the step core with the current generation's view. What stays here is
//! the driver: per-event trigger counting and re-encode timing, the
//! runtime handler's trap, tail calls and the retrofit of active frames.
//! The concurrent [`crate::Tracker`] drives the *same* step core with
//! published copies of that view, shared state behind a lock.
//!
//! The adaptive re-encoding machinery lives in [`crate::reencode`]
//! (implemented as further methods on [`DacceEngine`]).

use std::collections::HashMap;

use dacce_callgraph::{CallGraph, CallSiteId, DictStore, FunctionId, TimeStamp};
use dacce_program::runtime::CallDispatch;
use dacce_program::{ContextPath, CostModel, ThreadId};

use crate::config::DacceConfig;
use crate::context::{EncodedContext, SpawnLink};
use crate::decode::DecodeError;
use crate::patch::EdgeAction;
use crate::profile::HotContextProfile;
use crate::shared::SharedState;
use crate::stats::DacceStats;
use crate::thread::ThreadState;

/// The DACCE engine. See the crate docs for the big picture.
///
/// # Example
///
/// Drive the engine directly with call/return events (the interpreter and
/// the [`crate::Tracker`] both reduce to this):
///
/// ```
/// use dacce::{DacceConfig, DacceEngine};
/// use dacce_callgraph::{CallSiteId, FunctionId};
/// use dacce_program::{runtime::CallDispatch, CostModel, ThreadId};
///
/// let mut engine = DacceEngine::new(DacceConfig::default(), CostModel::default());
/// let (main, f, site) = (FunctionId::new(0), FunctionId::new(1), CallSiteId::new(0));
/// engine.attach_main(main);
/// engine.thread_start(ThreadId::MAIN, main, None);
///
/// engine.call(ThreadId::MAIN, site, main, f, CallDispatch::Direct, false);
/// let (snapshot, _cost) = engine.sample(ThreadId::MAIN);
/// let path = engine.decode(&snapshot)?;
/// assert_eq!(path.depth(), 2); // main -> f
/// engine.ret(ThreadId::MAIN, site, main, f);
/// # Ok::<(), dacce::DecodeError>(())
/// ```
#[derive(Debug)]
pub struct DacceEngine {
    pub(crate) shared: SharedState,
    pub(crate) threads: HashMap<ThreadId, ThreadState>,
}

impl DacceEngine {
    /// Creates an engine with the given configuration and cost model.
    pub fn new(config: DacceConfig, cost: CostModel) -> Self {
        DacceEngine {
            shared: SharedState::new(config, cost),
            threads: HashMap::new(),
        }
    }

    /// Initialises the engine for a program entered at `main`: the call
    /// graph contains only `main` and everything else is discovered at
    /// runtime (§3: "It starts with a call graph containing only function
    /// main").
    pub fn attach_main(&mut self, main: FunctionId) {
        self.shared.attach_main(main);
    }

    /// Pre-seeds the engine from a static call graph (see [`crate::warm`]).
    /// Must be called after [`DacceEngine::attach_main`] and before any
    /// thread starts.
    ///
    /// # Panics
    ///
    /// Panics if any thread has already been registered, or if any call
    /// event or re-encoding already happened.
    pub fn warm_start(
        &mut self,
        seed: &crate::warm::WarmStartSeed,
    ) -> crate::warm::WarmStartReport {
        assert!(
            self.threads.is_empty(),
            "warm_start must precede thread_start"
        );
        self.shared.warm_start(seed)
    }

    /// Attaches this engine to a shared encoding lineage, adopting its
    /// latest generation wholesale — the non-founding tenant's replacement
    /// for `attach_main` + `warm_start` (zero cold-start traps for every
    /// edge the lineage already encodes). Returns the adopted generation.
    ///
    /// # Panics
    ///
    /// Panics if a thread already started or the engine is already
    /// attached to a lineage.
    pub fn attach_lineage(&mut self, lineage: &crate::lineage::EncodingLineage) -> u64 {
        assert!(
            self.threads.is_empty(),
            "attach_lineage must precede thread_start"
        );
        assert!(
            self.shared.lineage.is_none(),
            "engine already attached to a lineage"
        );
        self.shared.attach_lineage(lineage)
    }

    /// Founds a shared lineage (generation 0) from this engine's current
    /// encoding state, addressed by `hash` — the first tenant of a program
    /// calls this after `attach_main` (and optionally `warm_start`) so
    /// later tenants can [`DacceEngine::attach_lineage`] instead of
    /// rebuilding.
    ///
    /// # Panics
    ///
    /// Panics if the engine is already attached to a lineage.
    pub fn found_lineage(&mut self, hash: u64) -> crate::lineage::EncodingLineage {
        self.shared.found_lineage(hash)
    }

    /// Registers an additional root function — lineage-attached runtimes
    /// register their own entry point on top of the adopted root set.
    pub fn register_root(&mut self, root: FunctionId) {
        self.shared.current.register_root(root);
    }

    /// The shared lineage this engine is attached to, if any.
    pub fn lineage(&self) -> Option<&crate::lineage::EncodingLineage> {
        self.shared.lineage.as_ref()
    }

    /// True once this engine diverged (copy-on-write) off its lineage.
    pub fn diverged(&self) -> bool {
        self.shared.diverged
    }

    /// Registers a new thread rooted at `root`. For spawned threads the
    /// parent's current encoded context is captured so the child's full
    /// calling context can be reconstructed (§5.3).
    pub fn thread_start(
        &mut self,
        tid: ThreadId,
        root: FunctionId,
        parent: Option<(ThreadId, CallSiteId)>,
    ) {
        self.shared.current.register_root(root);
        let spawn = parent.map(|(ptid, site)| SpawnLink {
            site,
            parent: Box::new(self.snapshot(ptid)),
        });
        let st = ThreadState::new(tid, root, spawn, &self.shared);
        self.threads.insert(tid, st);
    }

    /// Removes a finished thread, folding its statistics into the shared
    /// counters.
    pub fn thread_exit(&mut self, tid: ThreadId) {
        if let Some(mut st) = self.threads.remove(&tid) {
            st.drain(&mut self.shared);
            st.fold_into(&mut self.shared.stats);
        }
    }

    /// Replaces a thread's creation link with `link`, returning the
    /// previous one — the primitive behind *work migration* (§5.3): when a
    /// logical task moves to an executor thread, the thread temporarily
    /// adopts the task's origin context so its samples decode to
    /// `origin -> own frames`.
    pub fn adopt_spawn(&mut self, tid: ThreadId, link: Option<SpawnLink>) -> Option<SpawnLink> {
        let st = self.threads.get_mut(&tid).expect("thread registered");
        std::mem::replace(&mut st.ctx.spawn, link)
    }

    /// Resets a thread for a main-loop restart; counts (and repairs) dirty
    /// state, which only occurs under the broken-tail-call ablation.
    pub fn thread_reset(&mut self, tid: ThreadId) {
        if let Some(st) = self.threads.get_mut(&tid) {
            if !st.ctx.is_clean() {
                self.shared.stats.unbalanced_resets += 1;
            }
            st.ctx.reset();
        }
    }

    /// Executes the before-call instrumentation of `site` for a dynamic
    /// call `caller -> callee`. Returns the cost units spent.
    pub fn call(
        &mut self,
        tid: ThreadId,
        site: CallSiteId,
        caller: FunctionId,
        callee: FunctionId,
        dispatch: CallDispatch,
        tail: bool,
    ) -> u64 {
        self.shared.note_events(1);
        // Resolve the action the generated code takes for this target,
        // trapping into the runtime handler on first invocations.
        let (r, newly_tail) =
            self.shared
                .resolve_or_trap(tid.raw(), site, caller, callee, dispatch, tail);
        if let Some(tail_fn) = newly_tail {
            self.retrofit_tail_frames(tail_fn);
        }

        let st = self.threads.get_mut(&tid).expect("thread registered");
        let writer = &self.shared.obs_writer;
        let obs_on = writer.enabled();
        let cost = r.dispatch_cost
            + st.call(
                &self.shared.current.view,
                writer,
                obs_on,
                site,
                callee,
                r.action,
                r.tc_wrap,
                tail,
            );
        st.profiler_tick(writer, obs_on, site);
        st.drain(&mut self.shared);

        cost + self.maybe_reencode()
    }

    /// Executes the after-call instrumentation when control returns to the
    /// frame that called through `site`. Returns the cost units spent.
    pub fn ret(
        &mut self,
        tid: ThreadId,
        site: CallSiteId,
        caller: FunctionId,
        callee: FunctionId,
    ) -> u64 {
        self.shared.note_events(1);
        let view = &self.shared.current.view;
        let action = view
            .resolve(site, callee)
            .map_or(EdgeAction::Unencoded, |r| r.action);
        let st = self.threads.get_mut(&tid).expect("thread registered");
        let writer = &self.shared.obs_writer;
        let cost = st.ret(view, writer, writer.enabled(), site, caller, action);
        cost + self.maybe_reencode()
    }

    /// §5.2 retrofit: active frames that called into a function just
    /// discovered to tail-call get their absolute-restore data now (the
    /// save they would have made). The engine owns every thread context, so
    /// it can do this eagerly — the concurrent tracker never needs to (its
    /// API admits no tail-call events).
    fn retrofit_tail_frames(&mut self, tail_fn: FunctionId) {
        for st in self.threads.values_mut() {
            for frame in &mut st.ctx.shadow {
                if frame.callee == tail_fn && !frame.wrapped {
                    frame.wrapped = true;
                    st.ctx.tc_ops += 1;
                }
            }
        }
    }

    /// The continuous profiler's aggregated hot-context profile: the
    /// weighted sample ring decoded through the versioned dictionaries.
    /// Empty when [`DacceConfig::profiler_stride`] is 0 (profiler off).
    pub fn profiler_profile(&mut self) -> HotContextProfile {
        self.shared.profiler_profile()
    }

    /// The weighted profiler samples currently resident in the ring
    /// (overwrite-oldest; capacity-bounded).
    pub fn profiler_samples(&self) -> &[(EncodedContext, u64)] {
        &self.shared.profiler_ring
    }

    /// The flight-recorder postmortem dump captured at the first
    /// degradation trigger (degraded entry, re-encode abort, or a forced
    /// dump), if any.
    pub fn postmortem(&self) -> Option<&str> {
        self.shared.postmortem.as_deref()
    }

    /// Forces a flight-recorder dump now with the given reason. The first
    /// capture wins: a later degradation will not overwrite a forced dump
    /// (nor vice versa).
    pub fn force_postmortem(&mut self, reason: &str) {
        self.shared.capture_postmortem(reason);
    }

    /// Records a sample of thread `tid`'s current context. Returns the
    /// snapshot and the cost charged (the paper's libpfm4 sample handler).
    pub fn sample(&mut self, tid: ThreadId) -> (EncodedContext, u64) {
        let st = self.threads.get_mut(&tid).expect("thread registered");
        let snap = st.sample();
        st.drain(&mut self.shared);
        (snap, self.shared.current.view.cost.sample_record)
    }

    /// Captures the current encoded context of `tid` without recording it.
    pub fn snapshot(&self, tid: ThreadId) -> EncodedContext {
        self.threads.get(&tid).expect("thread registered").context()
    }

    /// Decodes an encoded context to its full calling context (spawn chain
    /// included).
    ///
    /// # Errors
    ///
    /// See [`DecodeError`]; errors indicate engine bugs and are counted in
    /// [`DacceStats::decode_errors`] by [`DacceEngine::decode_counted`].
    pub fn decode(&self, ctx: &EncodedContext) -> Result<ContextPath, DecodeError> {
        self.shared.current.view.decode(ctx)
    }

    /// Like [`DacceEngine::decode`] but bumps the error counter on failure.
    pub fn decode_counted(&mut self, ctx: &EncodedContext) -> Result<ContextPath, DecodeError> {
        let r = self.shared.current.view.decode(ctx);
        if r.is_err() {
            self.shared.stats.decode_errors += 1;
        }
        r
    }

    /// The engine statistics (live ccStack/TcStack counters folded in;
    /// every call drains its thread, so the registry's counts are whole).
    pub fn stats(&self) -> DacceStats {
        let mut s = self.shared.stats.clone();
        for st in self.threads.values() {
            st.fold_into(&mut s);
        }
        s.read_registry(self.shared.obs.metrics());
        s
    }

    /// The dynamic call graph (grown so far).
    pub fn graph(&self) -> &CallGraph {
        &self.shared.current.graph
    }

    /// The decode dictionaries recorded so far.
    pub fn dicts(&self) -> &DictStore {
        &self.shared.current.view.dicts
    }

    /// The call-site owner table (site -> containing function), learned
    /// from handler traps; needed for offline decoding.
    pub fn site_owner_map(&self) -> &HashMap<CallSiteId, FunctionId> {
        &self.shared.current.view.site_owner
    }

    /// Current global timestamp (`gTimeStamp`).
    pub fn timestamp(&self) -> TimeStamp {
        self.shared.current.view.ts
    }

    /// Current `maxID`.
    pub fn max_id(&self) -> u64 {
        self.shared.current.view.max_id
    }

    /// The full sample log (only populated with
    /// [`DacceConfig::keep_sample_log`]).
    pub fn sample_log(&self) -> &[EncodedContext] {
        &self.shared.sample_log
    }

    /// The configuration the engine runs with.
    pub fn config(&self) -> &DacceConfig {
        &self.shared.config
    }

    /// The observability handle (event journal + metrics registry).
    pub fn observability(&self) -> &crate::observe::Observability {
        &self.shared.obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FunctionId {
        FunctionId::new(i)
    }
    fn s(i: u32) -> CallSiteId {
        CallSiteId::new(i)
    }

    fn engine() -> DacceEngine {
        let mut e = DacceEngine::new(DacceConfig::default(), CostModel::default());
        e.attach_main(f(0));
        e.thread_start(ThreadId::MAIN, f(0), None);
        e
    }

    #[test]
    fn attach_creates_trivial_dictionary() {
        let e = engine();
        assert_eq!(e.timestamp(), TimeStamp::ZERO);
        assert_eq!(e.max_id(), 0);
        assert_eq!(e.dicts().len(), 1);
        assert_eq!(e.graph().node_count(), 1);
    }

    #[test]
    fn first_call_traps_and_patches() {
        let mut e = engine();
        let c1 = e.call(
            ThreadId::MAIN,
            s(0),
            f(0),
            f(1),
            CallDispatch::Direct,
            false,
        );
        assert!(c1 >= CostModel::default().handler_trap, "first call traps");
        let stats = e.stats();
        assert_eq!(stats.traps, 1);
        assert_eq!(e.graph().edge_count(), 1);
        // Unwind, call again: no trap this time.
        let _ = e.ret(ThreadId::MAIN, s(0), f(0), f(1));
        let c2 = e.call(
            ThreadId::MAIN,
            s(0),
            f(0),
            f(1),
            CallDispatch::Direct,
            false,
        );
        assert!(c2 < CostModel::default().handler_trap);
        assert_eq!(e.stats().traps, 1);
    }

    #[test]
    fn unencoded_call_roundtrip_restores_state() {
        let mut e = engine();
        let _ = e.call(
            ThreadId::MAIN,
            s(0),
            f(0),
            f(1),
            CallDispatch::Direct,
            false,
        );
        {
            let ctx = &e.threads[&ThreadId::MAIN].ctx;
            assert_eq!(ctx.id, e.max_id() + 1);
            assert_eq!(ctx.cc.depth(), 1);
            assert_eq!(ctx.current, f(1));
        }
        let _ = e.ret(ThreadId::MAIN, s(0), f(0), f(1));
        let ctx = &e.threads[&ThreadId::MAIN].ctx;
        assert!(ctx.is_clean());
        assert_eq!(ctx.current, f(0));
    }

    #[test]
    fn sample_decodes_to_current_path() {
        let mut e = engine();
        let _ = e.call(
            ThreadId::MAIN,
            s(0),
            f(0),
            f(1),
            CallDispatch::Direct,
            false,
        );
        let _ = e.call(
            ThreadId::MAIN,
            s(1),
            f(1),
            f(2),
            CallDispatch::Direct,
            false,
        );
        let (snap, cost) = e.sample(ThreadId::MAIN);
        assert!(cost > 0);
        let path = e.decode(&snap).unwrap();
        let funcs: Vec<FunctionId> = path.0.iter().map(|p| p.func).collect();
        assert_eq!(funcs, vec![f(0), f(1), f(2)]);
        assert_eq!(path.0[1].site, Some(s(0)));
        assert_eq!(path.0[2].site, Some(s(1)));
    }

    #[test]
    fn indirect_targets_accumulate_on_one_site() {
        let mut e = engine();
        for t in [1u32, 2, 3] {
            let _ = e.call(
                ThreadId::MAIN,
                s(0),
                f(0),
                f(t),
                CallDispatch::Indirect,
                false,
            );
            let _ = e.ret(ThreadId::MAIN, s(0), f(0), f(t));
        }
        assert_eq!(e.stats().traps, 3, "each new target traps once");
        assert_eq!(e.graph().edge_count(), 3);
        // Re-dispatch to a known target: inline chain, no trap.
        let c = e.call(
            ThreadId::MAIN,
            s(0),
            f(0),
            f(2),
            CallDispatch::Indirect,
            false,
        );
        assert!(c < CostModel::default().handler_trap);
        assert_eq!(e.stats().traps, 3);
    }

    #[test]
    fn indirect_chain_converts_to_hash() {
        let cfg = DacceConfig {
            indirect_inline_max: 2,
            ..DacceConfig::default()
        };
        let mut e = DacceEngine::new(cfg, CostModel::default());
        e.attach_main(f(0));
        e.thread_start(ThreadId::MAIN, f(0), None);
        for t in [1u32, 2, 3, 4] {
            let _ = e.call(
                ThreadId::MAIN,
                s(0),
                f(0),
                f(t),
                CallDispatch::Indirect,
                false,
            );
            let _ = e.ret(ThreadId::MAIN, s(0), f(0), f(t));
        }
        assert_eq!(e.stats().hash_conversions, 1);
        // Known target now costs a hash probe, not a trap.
        let c = e.call(
            ThreadId::MAIN,
            s(0),
            f(0),
            f(4),
            CallDispatch::Indirect,
            false,
        );
        assert!(c >= CostModel::default().hash_lookup);
        assert!(c < CostModel::default().handler_trap);
    }

    #[test]
    fn spawned_thread_contexts_chain_to_parent() {
        let mut e = engine();
        let _ = e.call(
            ThreadId::MAIN,
            s(0),
            f(0),
            f(1),
            CallDispatch::Direct,
            false,
        );
        e.thread_start(ThreadId::new(1), f(5), Some((ThreadId::MAIN, s(9))));
        let _ = e.call(
            ThreadId::new(1),
            s(3),
            f(5),
            f(6),
            CallDispatch::Direct,
            false,
        );
        let (snap, _) = e.sample(ThreadId::new(1));
        let path = e.decode(&snap).unwrap();
        let funcs: Vec<FunctionId> = path.0.iter().map(|p| p.func).collect();
        assert_eq!(funcs, vec![f(0), f(1), f(5), f(6)]);
        assert_eq!(path.0[2].site, Some(s(9)), "spawn site recorded");
    }

    #[test]
    fn thread_reset_counts_dirty_state() {
        let mut e = engine();
        let _ = e.call(
            ThreadId::MAIN,
            s(0),
            f(0),
            f(1),
            CallDispatch::Direct,
            false,
        );
        e.thread_reset(ThreadId::MAIN); // mid-call: dirty
        assert_eq!(e.stats().unbalanced_resets, 1);
        assert!(e.threads[&ThreadId::MAIN].ctx.is_clean());
        e.thread_reset(ThreadId::MAIN); // clean now
        assert_eq!(e.stats().unbalanced_resets, 1);
    }

    #[test]
    fn thread_exit_folds_stats() {
        let mut e = engine();
        let _ = e.call(
            ThreadId::MAIN,
            s(0),
            f(0),
            f(1),
            CallDispatch::Direct,
            false,
        );
        let _ = e.ret(ThreadId::MAIN, s(0), f(0), f(1));
        let ops_before = e.stats().ccstack_ops;
        assert!(ops_before > 0);
        e.thread_exit(ThreadId::MAIN);
        assert_eq!(e.stats().ccstack_ops, ops_before);
    }
}
