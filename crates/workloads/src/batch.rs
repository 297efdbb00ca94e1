//! Trace recording and the one replay loop over a [`WorkloadTrace`].
//!
//! `record` runs a program under a cost-free recorder and keeps each
//! thread's call/return stream. `replay` drives such a trace onto a
//! [`Tracker`]: it owns the trace-to-tracker id maps, thread
//! registration, the call/return pairing, the window split and a shadow
//! stack of the context each thread is expected to be in, and reports
//! every step it executes to a [`ReplayVisitor`]. The chaos harness, the
//! journal recorder, the superop warm pass and the profiler differential
//! are all visitors of this loop.
//!
//! The interpreter delivers call/return events one at a time, which is
//! the right shape for the per-event engine adapters but wastes the
//! batched fast path: every op would pay the slot lock, snapshot refresh
//! and journal gate on its own. The loop therefore splits a thread's
//! stream into *balanced windows* — subsequences whose calls all return
//! within the window — and drives them with [`ThreadHandle::run_batch`].
//! Frames that stay open past the window bound (the deep spine of the
//! call tree) fall back to RAII guards, so arbitrary traces replay
//! exactly. A window of 0 drives every op through a guard.
//!
//! The tracker front-end has no tail-call entry point, so traces are
//! recorded tail-free ([`crate::chaos::chaos_trace`]); PLT calls bind to
//! one target and replay as direct calls.

use std::collections::HashMap;

use dacce::tracker::{BatchOp, ThreadHandle, Tracker};
use dacce_callgraph::{CallSiteId, FunctionId};
use dacce_program::runtime::{CallDispatch, CallEvent, ContextRuntime, ReturnEvent, SampleResult};
use dacce_program::{Interpreter, OracleStack, PathStep, Program, ThreadId};

/// One recorded instrumentation op of one thread.
#[derive(Clone, Copy, Debug)]
pub enum TraceOp {
    /// An instrumented call through `site` into `target`.
    Call {
        /// The call site in the caller.
        site: CallSiteId,
        /// The callee entered.
        target: FunctionId,
        /// Whether the site dispatches indirectly (pointer/vtable).
        indirect: bool,
    },
    /// The matching return of the innermost open call.
    Ret,
}

/// One recorded thread: its id, root function and (for spawned threads)
/// the parent thread and spawn site.
#[derive(Clone, Copy, Debug)]
pub struct ThreadStart {
    /// The interpreter's thread id (dense, main = 0).
    pub tid: ThreadId,
    /// The function the thread starts in.
    pub root: FunctionId,
    /// `(parent thread, spawn site)` for spawned threads, `None` for main.
    pub parent: Option<(ThreadId, CallSiteId)>,
}

/// The recorded streams of one interpreter run: per-thread op sequences
/// plus the spawn topology, in thread start order.
#[derive(Debug, Default)]
pub struct WorkloadTrace {
    /// Thread starts in order; parents always precede their children.
    pub threads: Vec<ThreadStart>,
    /// Per-thread recorded op sequences.
    pub traces: HashMap<ThreadId, Vec<TraceOp>>,
}

impl WorkloadTrace {
    /// Total recorded call ops across all threads.
    pub fn calls(&self) -> u64 {
        self.traces
            .values()
            .map(|t| {
                t.iter()
                    .filter(|op| matches!(op, TraceOp::Call { .. }))
                    .count() as u64
            })
            .sum()
    }
}

/// A cost-free [`ContextRuntime`] that records every instrumentation
/// event instead of encoding it.
#[derive(Debug, Default)]
struct TraceRecorder {
    trace: WorkloadTrace,
}

impl ContextRuntime for TraceRecorder {
    fn name(&self) -> &'static str {
        "trace-recorder"
    }

    fn attach(&mut self, _program: &Program) {}

    fn on_thread_start(
        &mut self,
        tid: ThreadId,
        root: FunctionId,
        parent: Option<(ThreadId, CallSiteId)>,
    ) {
        self.trace.threads.push(ThreadStart { tid, root, parent });
        self.trace.traces.entry(tid).or_default();
    }

    fn on_call(&mut self, ev: &CallEvent, _stack: &OracleStack) -> u64 {
        assert!(
            !ev.tail,
            "tracker replay records must be tail-free (regenerate with tail_fraction = 0)"
        );
        self.trace
            .traces
            .entry(ev.tid)
            .or_default()
            .push(TraceOp::Call {
                site: ev.site,
                target: ev.callee,
                indirect: matches!(ev.dispatch, CallDispatch::Indirect),
            });
        0
    }

    fn on_return(&mut self, ev: &ReturnEvent, _stack: &OracleStack) -> u64 {
        self.trace
            .traces
            .entry(ev.tid)
            .or_default()
            .push(TraceOp::Ret);
        0
    }

    fn sample(&mut self, _tid: ThreadId, _events: u64) -> (SampleResult, u64) {
        (SampleResult::Unsupported, 0)
    }
}

/// Records the instrumentation streams of `program` under `icfg`.
pub(crate) fn record(program: &Program, icfg: dacce_program::InterpConfig) -> WorkloadTrace {
    let mut rec = TraceRecorder::default();
    let _ = Interpreter::new(program, icfg).run(&mut rec);
    rec.trace
}

/// For each op, the index of the return closing it: set for calls whose
/// frame closes within the stream, `usize::MAX` for returns and for calls
/// still open when the stream ends (an interpreter budget can cut a run
/// mid-stack). A call at `i` closes within `w` ops iff
/// `match_ret[i] - i < w`.
///
/// # Panics
///
/// Panics on a return with no open call (recorded streams are balanced).
pub(crate) fn matching_returns(ops: &[TraceOp]) -> Vec<usize> {
    let mut match_ret = vec![usize::MAX; ops.len()];
    let mut open = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            TraceOp::Call { .. } => open.push(i),
            TraceOp::Ret => match_ret[open.pop().expect("return matches a call")] = i,
        }
    }
    match_ret
}

/// Trace-to-tracker id maps, filled as trace ids first appear. A map
/// reused across passes replays the later passes over the same ids.
#[derive(Debug, Default)]
pub(crate) struct IdMaps {
    fns: HashMap<FunctionId, FunctionId>,
    sites: HashMap<CallSiteId, CallSiteId>,
}

impl IdMaps {
    fn function(&mut self, tracker: &Tracker, f: FunctionId) -> FunctionId {
        *self
            .fns
            .entry(f)
            .or_insert_with(|| tracker.define_function(&format!("fn{}", f.index())))
    }

    fn site(&mut self, tracker: &Tracker, s: CallSiteId) -> CallSiteId {
        *self
            .sites
            .entry(s)
            .or_insert_with(|| tracker.define_call_site())
    }

    /// Maps each thread's stream into tracker-id [`BatchOp`]s. The maps
    /// must already cover every id in `trace` (a replay of it ran first),
    /// so mining sees the exact op sequences `run_batch` sees.
    pub(crate) fn streams(&self, trace: &WorkloadTrace) -> Vec<Vec<BatchOp>> {
        trace
            .threads
            .iter()
            .map(|start| {
                trace.traces[&start.tid]
                    .iter()
                    .map(|op| match *op {
                        TraceOp::Call {
                            site,
                            target,
                            indirect,
                        } => batch_call(self.sites[&site], self.fns[&target], indirect),
                        TraceOp::Ret => BatchOp::Ret,
                    })
                    .collect()
            })
            .collect()
    }
}

fn batch_call(site: CallSiteId, target: FunctionId, indirect: bool) -> BatchOp {
    if indirect {
        BatchOp::CallIndirect { site, target }
    } else {
        BatchOp::Call { site, target }
    }
}

/// One step the replay loop executed on a thread, in tracker ids.
#[derive(Clone, Copy, Debug)]
pub enum ReplayStep {
    /// A `run_batch` of queued balanced windows.
    Batch,
    /// A guard entered `target` through `site`.
    Call {
        /// The call site.
        site: CallSiteId,
        /// The callee.
        target: FunctionId,
    },
    /// A guard frame returned. Windows queued before it ran first, in the
    /// same step.
    Ret,
}

/// The caller's side of the replay loop ([`replay_guarded`] and the
/// crate's windowed replays): per-thread hooks around the steps
/// the loop executes. Every method defaults to doing nothing.
pub trait ReplayVisitor {
    /// `th` was registered for trace thread `tid`, whose stream is `ops`.
    fn start(&mut self, _tid: ThreadId, _th: &ThreadHandle, _ops: &[TraceOp]) {}

    /// `step` executed. `done` ops of the stream have now run, and
    /// `expected` is the context the thread must be in: for a spawned
    /// thread the parent's context at registration, then the spawn site
    /// and root, then the open frames.
    fn step(
        &mut self,
        _th: &ThreadHandle,
        _step: ReplayStep,
        _done: usize,
        _expected: &[PathStep],
    ) {
    }

    /// The stream ended after `done` ops, in context `expected`. Frames
    /// it left open unwind after this call.
    fn end(&mut self, _th: &ThreadHandle, _done: usize, _expected: &[PathStep]) {}
}

impl ReplayVisitor for () {}

/// Replays `trace` onto `tracker`, registering a fresh handle per
/// recorded thread in start order. Balanced windows of up to `window` ops
/// run through [`ThreadHandle::run_batch`], everything else through
/// guards; `window = 0` runs every op through a guard.
pub(crate) fn replay(
    tracker: &Tracker,
    trace: &WorkloadTrace,
    window: usize,
    ids: &mut IdMaps,
    visit: &mut impl ReplayVisitor,
) {
    let mut handles: HashMap<ThreadId, ThreadHandle> = HashMap::new();
    // Each thread's root frame and parent. Streams replay one after
    // another and unwind at their end, so a parent is back at its root
    // context when its children register: a thread starts in its
    // ancestors' root frames, outermost first.
    let mut roots: HashMap<ThreadId, (PathStep, Option<ThreadId>)> = HashMap::new();
    let mut shadow: Vec<PathStep> = Vec::new();

    for &ThreadStart { tid, root, parent } in &trace.threads {
        let root = ids.function(tracker, root);
        let (th, site) = match parent {
            None => (tracker.register_thread(root), None),
            Some((ptid, psite)) => {
                let psite = ids.site(tracker, psite);
                let parent = handles.get(&ptid).expect("parent registered before child");
                (
                    tracker.register_spawned_thread(root, parent, psite),
                    Some(psite),
                )
            }
        };
        roots.insert(tid, (PathStep { site, func: root }, parent.map(|p| p.0)));
        shadow.clear();
        let mut up = Some(tid);
        while let Some(t) = up {
            let (step, parent) = roots[&t];
            shadow.push(step);
            up = parent;
        }
        shadow.reverse();
        // Park the handle first: guards borrow it, and children registered
        // later need their parent's handle to still be reachable.
        handles.insert(tid, th);
        let th = &handles[&tid];
        let ops = &trace.traces[&tid];
        visit.start(tid, th, ops);

        let match_ret = if window > 0 {
            matching_returns(ops)
        } else {
            Vec::new()
        };
        let mut buf: Vec<BatchOp> = Vec::with_capacity(window);
        // Calls queued in `buf` and not yet closed by a queued Ret. A far
        // call or a guard-frame return can only arrive at `buf_depth == 0`
        // (nesting: everything inside a batched window closes within it),
        // so flushing there always hands `run_batch` a balanced sequence.
        let mut buf_depth = 0usize;
        let mut guards = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                TraceOp::Call {
                    site,
                    target,
                    indirect,
                } => {
                    let site = ids.site(tracker, site);
                    let target = ids.function(tracker, target);
                    if window > 0 && match_ret[i] - i < window {
                        // The whole window [i, match_ret[i]] is balanced;
                        // queue it op by op as the cursor passes.
                        buf.push(batch_call(site, target, indirect));
                        buf_depth += 1;
                        continue;
                    }
                    debug_assert_eq!(buf_depth, 0, "far calls only occur between windows");
                    if flush(th, &mut buf) {
                        visit.step(th, ReplayStep::Batch, i, &shadow);
                    }
                    guards.push(if indirect {
                        th.call_indirect(site, target)
                    } else {
                        th.call(site, target)
                    });
                    shadow.push(PathStep {
                        site: Some(site),
                        func: target,
                    });
                    visit.step(th, ReplayStep::Call { site, target }, i + 1, &shadow);
                }
                TraceOp::Ret if buf_depth > 0 => {
                    buf.push(BatchOp::Ret);
                    buf_depth -= 1;
                    // A balanced buffer is a complete set of windows;
                    // flush once it is big enough.
                    if buf_depth == 0 && buf.len() >= window && flush(th, &mut buf) {
                        visit.step(th, ReplayStep::Batch, i + 1, &shadow);
                    }
                }
                TraceOp::Ret => {
                    // Closes a guard frame; queued windows precede it in
                    // program order, so they run first.
                    flush(th, &mut buf);
                    drop(guards.pop().expect("guard for unbatched return"));
                    shadow.pop();
                    visit.step(th, ReplayStep::Ret, i + 1, &shadow);
                }
            }
        }
        debug_assert_eq!(buf_depth, 0, "queued windows close within the trace");
        if flush(th, &mut buf) {
            visit.step(th, ReplayStep::Batch, ops.len(), &shadow);
        }
        visit.end(th, ops.len(), &shadow);
        // Unwind what stayed open (innermost first) so the thread
        // finishes clean.
        while guards.pop().is_some() {}
    }
}

/// Runs the windows queued in `buf`, if any; returns whether it ran one.
fn flush(th: &ThreadHandle, buf: &mut Vec<BatchOp>) -> bool {
    if buf.is_empty() {
        return false;
    }
    th.run_batch(buf).expect("replay windows are balanced");
    buf.clear();
    true
}

/// Replays `trace` onto `tracker` with every op driven through a guard,
/// reporting each one to `visit`: one call op enters the runtime once,
/// so per-call samplers tick exactly once per op.
pub fn replay_guarded(tracker: &Tracker, trace: &WorkloadTrace, visit: &mut impl ReplayVisitor) {
    replay(tracker, trace, 0, &mut IdMaps::default(), visit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::chaos_trace;
    use crate::driver::DriverConfig;
    use crate::spec::BenchSpec;
    use crate::superops::install_mined;
    use dacce::{DacceConfig, DacceStats};

    /// The throughput-shaped window: wider than the chaos replay's.
    const WIDE_WINDOW: usize = 64;

    fn tiny_trace(name: &'static str, seed: u64) -> (WorkloadTrace, DacceConfig) {
        let cfg = DriverConfig {
            scale: 0.1,
            ..DriverConfig::default()
        };
        (chaos_trace(&BenchSpec::tiny(name, seed), &cfg), cfg.dacce)
    }

    /// Counts the ops each step kind covered, and checks the shadow stack
    /// against the live context after every guard op.
    #[derive(Default)]
    struct Census<'t> {
        tracker: Option<&'t Tracker>,
        guard_ops: u64,
        ops: u64,
        shadow_checks: u64,
    }

    impl ReplayVisitor for Census<'_> {
        fn step(&mut self, th: &ThreadHandle, step: ReplayStep, _: usize, expected: &[PathStep]) {
            if matches!(step, ReplayStep::Batch) {
                return;
            }
            self.guard_ops += 1;
            if let Some(tracker) = self.tracker {
                let path = tracker.decode(&th.sample()).expect("live contexts decode");
                assert_eq!(
                    path.0, expected,
                    "shadow stack diverged from the live context"
                );
                self.shadow_checks += 1;
            }
        }

        fn end(&mut self, _: &ThreadHandle, done: usize, _: &[PathStep]) {
            self.ops += done as u64;
        }
    }

    fn replay_counted(
        trace: &WorkloadTrace,
        config: DacceConfig,
        window: usize,
    ) -> (Census<'static>, DacceStats) {
        let tracker = Tracker::with_config(config);
        let mut census = Census::default();
        replay(&tracker, trace, window, &mut IdMaps::default(), &mut census);
        tracker
            .check_invariants()
            .expect("flat dispatch must agree with the logical table after replay");
        (census, tracker.stats())
    }

    #[test]
    fn batched_replay_covers_the_workload() {
        let (trace, config) = tiny_trace("batch-test", 7);
        let (census, stats) = replay_counted(&trace, config, WIDE_WINDOW);
        let calls = trace.calls();
        assert!(calls >= 1_000, "tiny spec still runs {calls} calls");
        assert_eq!(stats.calls, calls, "every recorded call replays");
        assert_eq!(stats.decode_errors, 0);
        let batched_ops = census.ops - census.guard_ops;
        assert!(
            batched_ops > census.guard_ops,
            "leaf churn must dominate: {batched_ops} batched vs {} guard ops",
            census.guard_ops
        );
        assert!(stats.reencodes > 0, "adaptivity still kicks in");
    }

    #[test]
    fn batched_and_guard_replays_agree() {
        let (trace, config) = tiny_trace("batch-diff", 11);
        let (batched, b) = replay_counted(&trace, config.clone(), WIDE_WINDOW);
        let (guarded, g) = replay_counted(&trace, config, 0);
        assert_eq!(guarded.guard_ops, guarded.ops, "window 0 guards every op");
        assert_eq!(batched.ops, guarded.ops);
        assert_eq!(b.calls, g.calls);
        // Trigger counters flush per batch rather than per op, so the two
        // drives may re-encode a few events apart — the ccStack traffic
        // must agree up to that slack, not exactly.
        let (a, c) = (b.ccstack_ops, g.ccstack_ops);
        assert!(
            a.abs_diff(c) * 20 <= a.max(c).max(1),
            "ccstack traffic diverged: batched {a} vs guarded {c}"
        );
        assert_eq!(b.decode_errors, 0);
        assert_eq!(g.decode_errors, 0);
    }

    #[test]
    fn shadow_stack_tracks_every_op() {
        let (trace, config) = tiny_trace("batch-shadow", 17);
        let tracker = Tracker::with_config(config);
        let mut census = Census {
            tracker: Some(&tracker),
            ..Census::default()
        };
        replay_guarded(&tracker, &trace, &mut census);
        assert!(census.ops >= 1_000);
        assert_eq!(census.shadow_checks, census.ops, "every op is checked");
    }

    /// Replays `trace` twice onto one tracker, installing superops mined
    /// from the first pass before the second. Returns the mined and
    /// installed counts and the final statistics.
    fn two_pass(trace: &WorkloadTrace, config: DacceConfig) -> (usize, usize, DacceStats) {
        let max_window = config.superop_max_window.min(WIDE_WINDOW);
        let max_table = config.superop_max_table;
        let tracker = Tracker::with_config(config);
        let mut ids = IdMaps::default();
        replay(&tracker, trace, WIDE_WINDOW, &mut ids, &mut ());
        let streams = ids.streams(trace);
        let (mined, installed) = install_mined(&tracker, &streams, max_window, max_table);
        replay(&tracker, trace, WIDE_WINDOW, &mut ids, &mut ());
        tracker
            .check_invariants()
            .expect("flat dispatch must agree with the logical table after superop replay");
        (mined, installed, tracker.stats())
    }

    #[test]
    fn second_pass_hits_superops_and_replays_every_call() {
        let (trace, config) = tiny_trace("superop-drive", 13);
        let (mined, installed, s) = two_pass(&trace, config.clone());
        assert!(installed > 0, "repeat-heavy trace compiles superops");
        assert!(installed <= mined);
        assert!(
            s.superop_hits > 0,
            "second pass must hit compiled superops ({installed} installed)"
        );
        assert!(s.superop_events >= s.superop_hits * 2, "hits cover windows");
        // Two passes replay every recorded call, whether per-event or
        // folded into superop net effects.
        assert_eq!(s.calls, 2 * trace.calls(), "no call lost to the fold");
        assert_eq!(s.decode_errors, 0);

        // Disabling superops compiles nothing and never probes.
        let off_cfg = DacceConfig {
            superops_enabled: false,
            ..config
        };
        let (_, installed, off) = two_pass(&trace, off_cfg);
        assert_eq!(installed, 0);
        assert_eq!(off.superop_hits, 0);
        assert_eq!(off.calls, 2 * trace.calls());
    }
}
