//! Embeddable calling-context tracker for real Rust programs.
//!
//! The paper ships DACCE as a preloadable shared library that instruments
//! binaries. The equivalent for a Rust library is an explicit API: the
//! application declares its functions and call sites once, registers each
//! thread, and brackets instrumented calls with RAII guards.
//!
//! Unlike the single-lock seed implementation, the tracker is built on the
//! shared-state / per-thread split (see `DESIGN.md`, "Concurrency
//! architecture"): every thread owns its step-core state
//! ([`ThreadState`], the same one the single-threaded engine drives) in a
//! [`ThreadHandle`] slot and executes call/return instrumentation over
//! already-encoded edges against a cached, immutable [`EncodingSnapshot`] —
//! no shared lock is touched on that path. Guards and
//! [`ThreadHandle::run_batch`] open and close frames through the same
//! `open_frame` / `close_frame` pair. The global [`SharedState`] lock is
//! taken only when a call site traps (new edge), when a re-encoding is
//! evaluated or applied, on thread registration, and when statistics are
//! drained. Re-encoded state reaches the other threads lazily: each one
//! notices the bumped publication epoch at its next event and migrates its
//! own context — decode under the old generation's dictionary, replay
//! under the new patches (the rendezvous of §4, done thread-locally).
//!
//! ```
//! use dacce::tracker::Tracker;
//!
//! let tracker = Tracker::new();
//! let main_fn = tracker.define_function("main");
//! let handler = tracker.define_function("handle_request");
//! let site = tracker.define_call_site();
//!
//! let thread = tracker.register_thread(main_fn);
//! let _guard = thread.call(site, handler);
//! let ctx = thread.sample();
//! assert_eq!(tracker.format_path(&tracker.decode(&ctx)?), "main -> handle_request");
//! # Ok::<(), dacce::DecodeError>(())
//! ```

use std::fmt;
use std::sync::Arc;

use crate::sync::{protocol, AtomicU32, AtomicU64, Mutex, MutexGuard, Ordering};

use dacce_callgraph::{CallSiteId, FunctionId};
use dacce_obs::JournalWriter;
use dacce_program::runtime::CallDispatch;
use dacce_program::{ContextPath, CostModel, ThreadId};

use crate::config::DacceConfig;
use crate::context::{EncodedContext, SpawnLink};
use crate::decode::DecodeError;
use crate::dispatch::CompiledDispatch;
use crate::lineage::EncodingLineage;
use crate::observe::Observability;
use crate::patch::EdgeAction;
use crate::profile::HotContextProfile;
use crate::shared::{EncodingSnapshot, ResolvedSite, SharedState};
use crate::stats::DacceStats;
use crate::superop::{SuperOpProbe, WindowOp};
use crate::thread::ThreadState;
use crate::verify::check_shared;
use crate::warm::{WarmStartReport, WarmStartSeed};

/// Events a thread accumulates locally before flushing them to the shared
/// trigger counters. Bounds how stale the §4 event counts can be.
const EVENT_BATCH: u64 = 64;

/// What a thread keeps under its slot lock: the step core's state, the
/// published snapshot its context is encoded under, and its own journal
/// writer (lock-free; its event ring is allocated by its first recorded
/// event).
#[derive(Debug)]
struct SlotState {
    st: ThreadState,
    /// The snapshot the thread executes against. Outside a locked slow
    /// path, `st.ts == snap.ts`.
    snap: Arc<EncodingSnapshot>,
    writer: JournalWriter,
}

/// One registered thread's slot. The mutex is per-thread: uncontended in
/// correct use (only the owning thread's guards lock it on the hot path;
/// cross-thread access happens on spawn snapshots and stats drains).
#[derive(Debug)]
struct ThreadSlot {
    tid: ThreadId,
    state: Mutex<SlotState>,
}

/// One open call, as a [`CallGuard`] or [`ThreadHandle::run_batch`] holds
/// it: the action resolved at call time and the publication epoch it is
/// valid under, so the return of an encoded edge needs no patch-table
/// probe unless a republish intervened.
#[derive(Clone, Copy, Debug)]
struct Frame {
    site: CallSiteId,
    caller: FunctionId,
    callee: FunctionId,
    action: EdgeAction,
    epoch: u64,
}

#[derive(Debug)]
struct TrackerInner {
    /// The shared half: call graph, dispatch table, dictionaries, triggers.
    /// Locked only on trap, re-encode evaluation, registration and drains.
    shared: Mutex<SharedState>,
    /// The latest published snapshot. Readers reach for it only when the
    /// epoch check fails, so this lock is uncontended in steady state.
    published: Mutex<Arc<EncodingSnapshot>>,
    /// Publication epoch; fast paths revalidate their cached snapshot with
    /// one `Acquire` load of this per event.
    epoch: AtomicU64,
    /// Events flushed by threads, not yet absorbed into `shared`.
    pending_events: AtomicU64,
    /// Monotone flushed ccStack-operation total across all threads (the
    /// "live thread ccops" input of the §4 rate trigger).
    ccops_total: AtomicU64,
    /// `pending_events` level at which a flush should bother taking the
    /// shared lock to evaluate triggers; `u64::MAX` when re-encoding is off.
    trigger_check_at: AtomicU64,
    /// Times a call/return event acquired the shared lock (trap slow paths
    /// and batched trigger evaluations). The encoded-edge steady state
    /// keeps this flat — see [`Tracker::slow_path_locks`].
    slow_locks: AtomicU64,
    names: Mutex<Vec<String>>,
    next_site: AtomicU32,
    next_tid: AtomicU32,
    attached: AtomicU32,
    registry: Mutex<Vec<Arc<ThreadSlot>>>,
    /// Observability handle shared with `shared` (same journal + metrics);
    /// kept outside the mutex so thread registration and metric hooks on
    /// the fast path never take the shared lock for it.
    obs: Observability,
}

// Lock order (outer to inner): slot -> shared -> published/registry/names.
// `published` and `registry` are leaves: no other lock is ever acquired
// while holding them.

impl TrackerInner {
    /// Publishes the current shared encoding under a bumped epoch and
    /// returns the fresh snapshot. Caller holds the shared lock.
    fn republish(&self, sh: &mut SharedState) -> Arc<EncodingSnapshot> {
        sh.epoch += 1;
        let snap = Arc::new(sh.snapshot());
        *self.published.lock() = Arc::clone(&snap);
        self.epoch.store(sh.epoch, protocol::EPOCH_PUBLISH);
        snap
    }

    /// Moves flushed event counts into the shared trigger state.
    fn absorb_pending(&self, sh: &mut SharedState) {
        let e = self.pending_events.swap(0, Ordering::Relaxed);
        if e > 0 {
            sh.note_events(e);
        }
    }

    /// Re-arms the flush threshold: how many more events must flow before a
    /// §4 trigger could possibly fire. Until then, no thread bothers taking
    /// the shared lock from the batched fast path. Trigger 1 (new edges)
    /// only changes state on a trap, and the trap slow path evaluates the
    /// triggers itself — so between traps, only the re-encoding gate and
    /// the trigger 2/3 *window boundaries* can newly open.
    fn update_trigger_mark(&self, sh: &SharedState) {
        let mark = if sh.config.reencode_enabled && !sh.reencode_overflowed {
            let gate = sh.cur_min_events.saturating_sub(sh.events_since_reencode);
            if sh.new_edges >= sh.config.edge_threshold {
                // Trigger 1 is already pending; fire as soon as the gate
                // opens.
                gate.max(EVENT_BATCH)
            } else {
                let next_boundary = sh
                    .window_start_events
                    .saturating_add(sh.config.ccstack_rate_window)
                    .min(sh.next_hot_check)
                    .saturating_sub(sh.events);
                gate.max(next_boundary).max(EVENT_BATCH)
            }
        } else {
            u64::MAX
        };
        self.trigger_check_at.store(mark, Ordering::Relaxed);
    }

    /// Counts one slow-path lock acquisition and — when the fault plan
    /// names this acquisition — simulates a *poisoned* lock. The vendored
    /// mutex has no real poisoning (it cannot observe a panicking holder),
    /// so the fault is injected at the acquisition counter: the current
    /// holder finds the lock poisoned, records the event, and recovers by
    /// clearing the poison and republishing the encoding so every thread
    /// revalidates its cached snapshot against state of unknown freshness.
    /// Returns whether the caller must republish to complete recovery.
    fn note_slow_lock(&self, sh: &mut SharedState) -> bool {
        let n = self.slow_locks.fetch_add(1, Ordering::Relaxed);
        if sh.config.fault.poisons_acquisition(n) {
            sh.obs.metrics().lock_poisonings.inc();
            true
        } else {
            false
        }
    }
}

/// A process-wide calling-context tracker. Cheap to clone handles out of.
/// The call graph, dispatch table and dictionaries are shared; per-thread
/// encoding state lives in the [`ThreadHandle`]s, and call/return over
/// already-encoded edges never touches the shared lock.
#[derive(Clone, Debug)]
pub struct Tracker {
    inner: Arc<TrackerInner>,
}

impl Default for Tracker {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracker {
    /// A tracker with default configuration.
    pub fn new() -> Self {
        Self::with_config(DacceConfig::default())
    }

    /// A tracker with explicit engine configuration.
    pub fn with_config(config: DacceConfig) -> Self {
        let initial_mark = if config.reencode_enabled {
            config.min_events_between_reencodes.max(EVENT_BATCH)
        } else {
            u64::MAX
        };
        let mut shared = SharedState::new(config, CostModel::default());
        let snap = Arc::new(shared.snapshot());
        let obs = shared.obs.clone();
        Tracker {
            inner: Arc::new(TrackerInner {
                shared: Mutex::new(shared),
                published: Mutex::new(snap),
                epoch: AtomicU64::new(0),
                pending_events: AtomicU64::new(0),
                ccops_total: AtomicU64::new(0),
                trigger_check_at: AtomicU64::new(initial_mark),
                slow_locks: AtomicU64::new(0),
                names: Mutex::new(Vec::new()),
                next_site: AtomicU32::new(0),
                next_tid: AtomicU32::new(0),
                attached: AtomicU32::new(0),
                registry: Mutex::new(Vec::new()),
                obs,
            }),
        }
    }

    /// The observability handle (event journal + metrics registry).
    pub fn observability(&self) -> &Observability {
        &self.inner.obs
    }

    /// Declares a function and returns its id. The id and the name slot are
    /// allocated under one lock, so concurrent registrations cannot tear
    /// (an id paired with another call's name).
    pub fn define_function(&self, name: &str) -> FunctionId {
        let mut names = self.inner.names.lock();
        let id = FunctionId::new(u32::try_from(names.len()).expect("function count fits in u32"));
        names.push(name.to_string());
        id
    }

    /// The name `f` was declared with, if any.
    pub fn function_name(&self, f: FunctionId) -> Option<String> {
        self.inner.names.lock().get(f.index()).cloned()
    }

    /// Allocates a call-site id. Call once per static call location.
    pub fn define_call_site(&self) -> CallSiteId {
        CallSiteId::new(self.inner.next_site.fetch_add(1, Ordering::Relaxed))
    }

    /// Pre-seeds the tracker from a static call graph (see [`crate::warm`])
    /// and attaches `main`. Must be called before any thread registers;
    /// the first registered thread should be rooted at `main`.
    ///
    /// # Panics
    ///
    /// Panics if a thread was already registered (the seed must be loaded
    /// before any instrumentation executes).
    pub fn warm_start(&self, main: FunctionId, seed: &WarmStartSeed) -> WarmStartReport {
        let mut sh = self.inner.shared.lock();
        // Idempotent repeat: a tracker already seeded with this exact seed
        // (by content fingerprint) returns the cached report — tenant-safe
        // when several fleet registrants race to seed the same program.
        if let Some((prev, report)) = sh.warm_fingerprint {
            if prev == seed.fingerprint() {
                return report;
            }
        }
        let prev = self.inner.attached.swap(1, Ordering::Relaxed);
        assert_eq!(prev, 0, "warm_start must precede thread registration");
        sh.attach_main(main);
        let report = sh.warm_start(seed);
        self.inner.update_trigger_mark(&sh);
        let _ = self.inner.republish(&mut sh);
        report
    }

    /// A tracker attached to a shared encoding lineage: the latest
    /// published generation is adopted wholesale (graph, dictionaries,
    /// patches, warm-start state), so every edge the lineage already
    /// encodes executes without a single cold-start trap. Re-encodings the
    /// tracker applies while on the lineage are published back into it;
    /// generations published by sibling tenants are adopted lazily at the
    /// next slow path (or eagerly via [`Self::poll_lineage`]).
    pub fn with_lineage(config: DacceConfig, lineage: &EncodingLineage) -> Self {
        let tracker = Self::with_config(config);
        {
            let mut sh = tracker.inner.shared.lock();
            let _ = sh.attach_lineage(lineage);
            // The adopted state carries the founder's `main`; the first
            // register() must not attach a second one.
            tracker.inner.attached.store(1, Ordering::Relaxed);
            tracker.inner.update_trigger_mark(&sh);
            let _ = tracker.inner.republish(&mut sh);
        }
        tracker
    }

    /// Founds a shared encoding lineage from this tracker's current state,
    /// keyed by `hash` (the registering program's content hash). The
    /// tracker itself joins the lineage at generation 0; siblings attach
    /// via [`Self::with_lineage`].
    ///
    /// # Panics
    ///
    /// Panics if the tracker is already on a lineage.
    pub fn found_lineage(&self, hash: u64) -> EncodingLineage {
        self.inner.shared.lock().found_lineage(hash)
    }

    /// Eagerly adopts a newer generation published to this tracker's
    /// lineage by a sibling tenant, if one exists. Returns whether an
    /// adoption happened. Without polling, adoption still happens lazily
    /// on the next slow path (trap or batched trigger check).
    pub fn poll_lineage(&self) -> bool {
        let mut sh = self.inner.shared.lock();
        if sh.adopt_pending_lineage() {
            self.inner.update_trigger_mark(&sh);
            let _ = self.inner.republish(&mut sh);
            true
        } else {
            false
        }
    }

    /// Forces a re-encoding of the current graph regardless of the §4
    /// triggers — the fleet-maintenance entry point. On a shared lineage
    /// the applied encoding is published for the sibling tenants (or a
    /// generation a sibling already published is adopted instead); live
    /// threads migrate lazily at their next epoch check. Returns whether
    /// a new generation was applied or adopted.
    pub fn request_reencode(&self) -> bool {
        let mut sh = self.inner.shared.lock();
        self.inner.absorb_pending(&mut sh);
        let (applied, _) = sh.reencode_via_lineage();
        let live = self.inner.ccops_total.load(Ordering::Relaxed);
        sh.reset_triggers(live);
        self.inner.update_trigger_mark(&sh);
        let _ = self.inner.republish(&mut sh);
        applied
    }

    /// The lineage this tracker is attached to, if any.
    pub fn lineage(&self) -> Option<EncodingLineage> {
        self.inner.shared.lock().lineage.clone()
    }

    /// Whether this tracker has diverged from its lineage (discovered an
    /// edge the shared encoding does not cover). Diverged trackers keep
    /// running on their private copy and no longer publish or adopt.
    pub fn diverged(&self) -> bool {
        self.inner.shared.lock().diverged
    }

    /// Audits the tracker at a safe point: every live thread's context is
    /// validated against the snapshot it is encoded under (id budget,
    /// shadow-stack monotonicity, decodability to a root-to-current path),
    /// then the shared state's dictionary/patch/owner invariants are
    /// checked — the concurrent analogue of
    /// [`DacceEngine::check_invariants`](crate::DacceEngine::check_invariants).
    ///
    /// Threads may run concurrently with the audit; each slot is checked
    /// under its own lock at an event boundary.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let slots: Vec<Arc<ThreadSlot>> = self.inner.registry.lock().clone();
        for slot in slots {
            let l = slot.state.lock();
            l.st.check(&l.snap.view)?;
        }
        let sh = self.inner.shared.lock();
        check_shared(&sh)
    }

    /// Registers the current thread with its root function. The first
    /// registered thread initialises the tracker (its root plays `main`).
    pub fn register_thread(&self, root: FunctionId) -> ThreadHandle {
        self.register(root, None)
    }

    /// Registers a thread spawned by `parent` at `spawn_site`; the child's
    /// decoded contexts are prefixed with the parent's creation context.
    pub fn register_spawned_thread(
        &self,
        root: FunctionId,
        parent: &ThreadHandle,
        spawn_site: CallSiteId,
    ) -> ThreadHandle {
        let link = SpawnLink {
            site: spawn_site,
            parent: Box::new(parent.context()),
        };
        self.register(root, Some(link))
    }

    fn register(&self, root: FunctionId, spawn: Option<SpawnLink>) -> ThreadHandle {
        let tid = ThreadId::new(self.inner.next_tid.fetch_add(1, Ordering::Relaxed));
        let mut sh = self.inner.shared.lock();
        if self.inner.attached.fetch_add(1, Ordering::Relaxed) == 0 {
            sh.attach_main(root);
        }
        sh.current.register_root(root);
        let snap = self.inner.republish(&mut sh);
        let slot = Arc::new(ThreadSlot {
            tid,
            state: Mutex::new(SlotState {
                st: ThreadState::new(tid, root, spawn, &sh),
                snap,
                writer: self.inner.obs.journal().writer(tid.raw()),
            }),
        });
        self.inner.registry.lock().push(Arc::clone(&slot));
        drop(sh);
        ThreadHandle {
            inner: Arc::clone(&self.inner),
            slot,
        }
    }

    /// Decodes an encoded context captured by [`ThreadHandle::sample`].
    /// Reads the published snapshot — never blocks on the shared state.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the context is inconsistent with the
    /// recorded dictionaries (indicates misuse such as unbalanced guards).
    pub fn decode(&self, ctx: &EncodedContext) -> Result<ContextPath, DecodeError> {
        let snap = Arc::clone(&self.inner.published.lock());
        snap.view.decode(ctx)
    }

    /// Renders a decoded path as `main -> f -> g` using the declared names.
    pub fn format_path(&self, path: &ContextPath) -> String {
        let names = self.inner.names.lock();
        path.0
            .iter()
            .map(|s| {
                names
                    .get(s.func.index())
                    .cloned()
                    .unwrap_or_else(|| format!("{}", s.func))
            })
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    /// How many call/return events have taken the shared lock so far: site
    /// traps (first execution of a call edge) plus batched re-encoding
    /// trigger evaluations. In encoded-edge steady state this stays flat —
    /// the per-event fast path is lock-free with respect to shared state.
    pub fn slow_path_locks(&self) -> u64 {
        self.inner.slow_locks.load(Ordering::Relaxed)
    }

    /// Installs superop candidate windows — balanced call/return traces
    /// mined from recorded batches (see the `workloads` miner). Each
    /// window is compiled against the current encoding into a memoized
    /// net effect and published with the next snapshot; the set replaces
    /// any previously installed candidates. Republishes immediately so
    /// attached threads pick the table up at their next epoch check.
    /// Returns the number of superops that compiled (windows crossing a
    /// trap site, a tail-call wrap or an undecidable compressed-recursion
    /// compare are refused and simply keep running on the per-event loop).
    pub fn install_superops(&self, windows: &[Vec<WindowOp>]) -> usize {
        let mut sh = self.inner.shared.lock();
        sh.install_superop_candidates(windows);
        let snap = self.inner.republish(&mut sh);
        snap.superops.len()
    }

    /// Runs `f` with the shared state locked, absorbing pending per-thread
    /// deltas first. Crate-internal escape hatch for exporters.
    pub(crate) fn with_shared<R>(&self, f: impl FnOnce(&SharedState) -> R) -> R {
        let mut sh = self.inner.shared.lock();
        self.inner.absorb_pending(&mut sh);
        f(&sh)
    }

    /// Tracker statistics: the shared counters plus every thread's local
    /// shard and live ccStack/TcStack operation counts. Every thread is
    /// drained first, so the counts read from the registry are whole.
    pub fn stats(&self) -> DacceStats {
        let slots: Vec<Arc<ThreadSlot>> = self.inner.registry.lock().clone();
        let mut out = {
            let mut sh = self.inner.shared.lock();
            self.inner.absorb_pending(&mut sh);
            sh.stats.clone()
        };
        for slot in slots {
            let mut l = slot.state.lock();
            l.st.drain(&mut self.inner.shared.lock());
            l.st.fold_into(&mut out);
        }
        out.read_registry(self.inner.obs.metrics());
        out
    }

    /// The continuous profiler's aggregated hot-context profile: every
    /// thread's pending weighted samples are flushed into the shared
    /// profiler ring, which is then decoded through the versioned
    /// dictionaries. Empty when [`DacceConfig::profiler_stride`] is 0.
    pub fn profiler_profile(&self) -> HotContextProfile {
        let slots: Vec<Arc<ThreadSlot>> = self.inner.registry.lock().clone();
        for slot in slots {
            let mut l = slot.state.lock();
            l.st.drain_profile(&mut self.inner.shared.lock());
        }
        self.inner.shared.lock().profiler_profile()
    }

    /// The flight-recorder postmortem dump captured at the first
    /// degradation trigger (degraded entry, re-encode abort, or a forced
    /// dump), if any.
    pub fn postmortem(&self) -> Option<String> {
        self.inner.shared.lock().postmortem.clone()
    }

    /// Forces a flight-recorder dump now with the given reason. The first
    /// capture wins: a later degradation will not overwrite a forced dump
    /// (nor vice versa).
    pub fn force_postmortem(&self, reason: &str) {
        self.inner.shared.lock().capture_postmortem(reason);
    }
}

/// One operation of a batched drive sequence; see
/// [`ThreadHandle::run_batch`].
#[derive(Clone, Copy, Debug)]
pub enum BatchOp {
    /// Enter a direct call from the current function through `site`.
    Call {
        /// The call site executed.
        site: CallSiteId,
        /// The callee.
        target: FunctionId,
    },
    /// Enter an indirect (function-pointer / vtable) call.
    CallIndirect {
        /// The call site executed.
        site: CallSiteId,
        /// The callee the pointer resolved to.
        target: FunctionId,
    },
    /// Return from the innermost call opened earlier in the same batch.
    Ret,
}

/// What was malformed about a [`ThreadHandle::run_batch`] sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchErrorKind {
    /// A [`BatchOp::Ret`] had no matching call earlier in the same batch.
    /// The offending op (and everything after it) was not executed.
    UnmatchedRet {
        /// Index of the unmatched return within the batch.
        index: usize,
    },
    /// The batch ended with calls still open. The dangling frames were
    /// auto-unwound so the thread lands back at a consistent boundary.
    UnclosedCalls {
        /// How many frames were still open (and auto-returned).
        open: usize,
    },
}

/// A malformed [`ThreadHandle::run_batch`] drive. The batch stopped early
/// but the thread was left at a consistent event boundary (dangling frames
/// are auto-unwound), so the handle — and every other thread — stays fully
/// usable: a bad trace degrades instead of aborting the run. `executed`
/// reports partial progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchError {
    /// What was malformed.
    pub kind: BatchErrorKind,
    /// Ops fully executed before the batch stopped.
    pub executed: usize,
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            BatchErrorKind::UnmatchedRet { index } => write!(
                f,
                "batch op {index} is a Ret without a matching call ({} ops executed)",
                self.executed
            ),
            BatchErrorKind::UnclosedCalls { open } => write!(
                f,
                "batch left {open} call(s) unreturned; frames auto-unwound ({} ops executed)",
                self.executed
            ),
        }
    }
}

impl std::error::Error for BatchError {}

/// Per-thread handle; create one per OS thread via
/// [`Tracker::register_thread`]. Call/return instrumentation over
/// already-encoded edges runs entirely on this handle's own state plus a
/// cached snapshot — the shared lock is not acquired.
#[derive(Debug)]
pub struct ThreadHandle {
    inner: Arc<TrackerInner>,
    slot: Arc<ThreadSlot>,
}

impl ThreadHandle {
    /// The thread id assigned by the tracker.
    pub fn id(&self) -> ThreadId {
        self.slot.tid
    }

    /// Enters an instrumented direct call; the returned guard leaves it on
    /// drop. Guards must nest like the calls they bracket — drop them in
    /// reverse acquisition order. Beware `Vec<CallGuard>`: a vector drops
    /// its elements front-to-back, unwinding the *outermost* call first and
    /// corrupting the encoding; pop and drop instead.
    pub fn call(&self, site: CallSiteId, target: FunctionId) -> CallGuard<'_> {
        self.enter(site, target, CallDispatch::Direct)
    }

    /// Enters an instrumented indirect call (function pointer, vtable).
    pub fn call_indirect(&self, site: CallSiteId, target: FunctionId) -> CallGuard<'_> {
        self.enter(site, target, CallDispatch::Indirect)
    }

    /// Drives a balanced sequence of call/return operations in one locked
    /// section. The slot lock, the snapshot epoch revalidation and the
    /// journal gate are paid once per batch instead of once per op, and
    /// the trigger-counter flush runs once at the end — the per-op cost of
    /// an encoded edge drops to the bare instrumentation arithmetic.
    ///
    /// Semantically equivalent to bracketing every call with
    /// [`Self::call`] / [`Self::call_indirect`] guards: traps taken
    /// mid-batch run the full slow path (and may re-encode), and returns
    /// crossing a re-encoding re-resolve their action under the new
    /// generation exactly like a guard drop does. Re-encodings published
    /// by *other* threads are observed at the next batch or guard, which
    /// matches the lazy-migration semantics of the per-op path.
    ///
    /// Returns the number of ops executed — `ops.len()` on success.
    ///
    /// # Errors
    ///
    /// Returns a [`BatchError`] on a [`BatchOp::Ret`] with no matching
    /// call earlier in the same batch (execution stops before the bad op)
    /// and when the batch ends with calls still open (the dangling frames
    /// are auto-unwound — frames cannot span batch boundaries; use guards
    /// for long-lived frames). Either way the thread lands at a consistent
    /// event boundary and the handle stays usable: a malformed trace
    /// degrades instead of aborting the thread, and partial progress is
    /// reported in [`BatchError::executed`].
    pub fn run_batch(&self, ops: &[BatchOp]) -> Result<usize, BatchError> {
        let inner = &*self.inner;
        let mut guard = self.lock_refreshed();
        let l = &mut *guard;
        let mut obs_on = l.writer.enabled();
        // Profiler hoist: `ops.len()` bounds the batch's call count, so a
        // countdown beyond it proves no sample can fire in this batch —
        // count calls in a register and advance the sampler once at the
        // end instead of ticking it per op. A disabled sampler always
        // takes the bulk path (the final skip is then a no-op).
        let profiler_bulk =
            !l.st.sampler.is_enabled() || l.st.sampler.remaining() > ops.len() as u64;
        let mut bulk_calls = 0u64;
        let mut open: Vec<Frame> = Vec::with_capacity(16);
        let mut executed = 0usize;
        let mut error: Option<BatchErrorKind> = None;
        // Superops need the bulk profiler path: a memoized window skips
        // per-call sampler ticks, which is only sound when no sample can
        // fire inside this batch anyway.
        let mut use_superops = profiler_bulk && !l.snap.superops.is_empty();
        let mut epoch = l.snap.epoch;
        let mut i = 0usize;
        while i < ops.len() {
            let op = ops[i];
            match op {
                BatchOp::Call { site, target } | BatchOp::CallIndirect { site, target } => {
                    if use_superops {
                        match l.snap.superops.probe(&ops[i..]) {
                            SuperOpProbe::Hit(so) => {
                                let entry_depth = l.st.ctx.cc.depth();
                                let peak = entry_depth + so.cc_peak;
                                // Bail to the per-event loop BEFORE applying
                                // anything when the fold would skip observable
                                // bookkeeping: per-push journal events, an
                                // armed spill limit, or a new high-water mark
                                // at/above the overflow watermark (which must
                                // fire the real overflow hook).
                                let admit = so.cc_ops == 0
                                    || !(obs_on
                                        || l.st.ctx.cc.spill_armed()
                                        || (peak > l.st.ctx.cc.max_depth()
                                            && peak as u32 >= l.writer.overflow_watermark()));
                                if admit {
                                    let len = so.window.len();
                                    let st = &mut l.st;
                                    st.ctx.cc.apply_bulk(so.cc_ops, peak);
                                    st.shard.calls += so.calls;
                                    st.shard.compress_hits += so.compress_hits;
                                    st.shard.superop_hits += 1;
                                    st.shard.superop_events += len as u64;
                                    st.batch_events += len as u64;
                                    bulk_calls += so.calls;
                                    executed += len;
                                    i += len;
                                    continue;
                                }
                                l.st.shard.superop_misses += 1;
                            }
                            SuperOpProbe::Miss => l.st.shard.superop_misses += 1,
                            SuperOpProbe::Cold => {}
                        }
                    }
                    let dispatch = match op {
                        BatchOp::CallIndirect { .. } => CallDispatch::Indirect,
                        _ => CallDispatch::Direct,
                    };
                    let frame = l.open_frame(inner, site, target, dispatch, obs_on);
                    if frame.epoch != epoch {
                        // A trap republished the snapshot; re-hoist the
                        // gates — journaling may have been toggled and the
                        // superop table swapped (epoch invalidation).
                        epoch = frame.epoch;
                        obs_on = l.writer.enabled();
                        use_superops = profiler_bulk && !l.snap.superops.is_empty();
                    }
                    if profiler_bulk {
                        bulk_calls += 1;
                    } else {
                        l.st.profiler_tick(&l.writer, obs_on, site);
                    }
                    open.push(frame);
                    executed += 1;
                }
                BatchOp::Ret => {
                    let Some(frame) = open.pop() else {
                        // Malformed trace: stop before the bad op; any
                        // frames opened earlier unwind below.
                        error = Some(BatchErrorKind::UnmatchedRet { index: i });
                        break;
                    };
                    l.close_frame(frame, obs_on);
                    executed += 1;
                }
            }
            i += 1;
        }
        // Graceful degradation: auto-unwind whatever the batch left open
        // (malformed trace or early stop) so the thread's encoding lands
        // back at a consistent boundary instead of aborting the thread.
        let unclosed = open.len();
        while let Some(frame) = open.pop() {
            l.close_frame(frame, obs_on);
        }
        if error.is_none() && unclosed > 0 {
            error = Some(BatchErrorKind::UnclosedCalls { open: unclosed });
        }
        l.st.sampler.skip(bulk_calls);
        l.flush_if_due(inner);
        l.st.flush_obs();
        match error {
            None => Ok(executed),
            Some(kind) => {
                l.st.shard.batch_errors += 1;
                Err(BatchError { kind, executed })
            }
        }
    }

    /// Locks this thread's slot and revalidates its cached snapshot — the
    /// entry of every event.
    #[inline]
    fn lock_refreshed(&self) -> MutexGuard<'_, SlotState> {
        let mut guard = self.slot.state.lock();
        guard.refresh(&self.inner);
        guard
    }

    fn enter(&self, site: CallSiteId, target: FunctionId, dispatch: CallDispatch) -> CallGuard<'_> {
        let inner = &*self.inner;
        let mut guard = self.lock_refreshed();
        let l = &mut *guard;
        let obs_on = l.writer.enabled();
        let frame = l.open_frame(inner, site, target, dispatch, obs_on);
        l.flush_if_due(inner);
        l.st.profiler_tick(&l.writer, obs_on, site);
        CallGuard {
            handle: self,
            frame,
        }
    }

    /// Captures the thread's current encoded context (cheap; decode later).
    pub fn sample(&self) -> EncodedContext {
        // Buffered for the shared heat ring (drained on the next slow path).
        self.lock_refreshed().st.sample()
    }

    /// The thread's current encoded context, without sample accounting
    /// (the journal recorder's full-state capture: entry states, seam
    /// seeds and resync records).
    pub fn context(&self) -> EncodedContext {
        self.lock_refreshed().st.context()
    }

    /// An O(1) probe of the state components one call/return event can
    /// change (see [`crate::fragment::StateSig`]). Reads the state
    /// exactly as the last event left it — no refresh, no accounting —
    /// so the journal recorder can verify a derived effect per op
    /// without cloning the ccStack.
    pub fn state_sig(&self) -> crate::fragment::StateSig {
        let l = self.slot.state.lock();
        crate::fragment::StateSig {
            ts: l.st.ts,
            id: l.st.ctx.id,
            depth: l.st.ctx.cc.depth(),
            top: l.st.ctx.cc.top().copied(),
            leaf: l.st.ctx.current,
        }
    }

    /// Captures the current context as a migratable *task origin* (§5.3,
    /// "work migration"): hand the returned [`TaskContext`] to whatever
    /// executor thread will run the work and have it call
    /// [`ThreadHandle::adopt`].
    pub fn capture_task(&self, handoff_site: CallSiteId) -> TaskContext {
        TaskContext {
            site: handoff_site,
            origin: self.context(),
        }
    }

    /// Adopts a migrated task's origin context for the duration of the
    /// returned guard: samples taken while it is alive decode to
    /// `origin -> (handoff site) -> this thread's frames`. Nest adoptions
    /// like calls; the guard restores the previous creation link on drop.
    pub fn adopt(&self, task: &TaskContext) -> AdoptGuard<'_> {
        let link = SpawnLink {
            site: task.site,
            parent: Box::new(task.origin.clone()),
        };
        let previous = self.slot.state.lock().st.ctx.spawn.replace(link);
        AdoptGuard {
            handle: self,
            previous: Some(previous),
        }
    }
}

impl SlotState {
    /// Revalidates the cached snapshot with one atomic epoch load; on a
    /// mismatch, catches up with the published snapshot.
    #[inline]
    fn refresh(&mut self, inner: &TrackerInner) {
        let cur = inner.epoch.load(protocol::EPOCH_CHECK);
        if self.snap.epoch != cur {
            self.catch_up(inner);
        }
    }

    /// Fetches the published snapshot and migrates the context to it if
    /// the encoding generation moved. Out of line, so the epoch check
    /// above inlines into every event.
    #[cold]
    #[inline(never)]
    fn catch_up(&mut self, inner: &TrackerInner) {
        let snap = Arc::clone(&inner.published.lock());
        self.st
            .migrate(&snap.view, &self.writer, self.writer.enabled());
        self.snap = snap;
    }

    /// The call half of one frame, shared by guards and `run_batch`:
    /// resolves `(site, target)` through the inline cache and executes the
    /// call step against the cached snapshot, or takes the trap slow path
    /// when the snapshot has no action. The frame's epoch is captured
    /// *before* any trigger work, so a re-encoding on this very event
    /// leaves it stale and forces the return to re-resolve. Always
    /// inlined: an out-of-line frame step costs the guard path and
    /// `run_batch`'s per-op loop about 1-2 ns per event.
    #[inline(always)]
    #[allow(clippy::inline_always)]
    fn open_frame(
        &mut self,
        inner: &TrackerInner,
        site: CallSiteId,
        target: FunctionId,
        dispatch: CallDispatch,
        obs_on: bool,
    ) -> Frame {
        let caller = self.st.ctx.current;
        let action = match self.resolve_cached(site, target) {
            Some(r) => {
                let _ = self.st.call(
                    &self.snap.view,
                    &self.writer,
                    obs_on,
                    site,
                    target,
                    r.action,
                    r.tc_wrap,
                    false,
                );
                self.st.batch_events += 1;
                r.action
            }
            None => self.trap_call(inner, site, caller, target, dispatch, obs_on),
        };
        Frame {
            site,
            caller,
            callee: target,
            action,
            epoch: self.snap.epoch,
        }
    }

    /// The return half of one frame, shared by guard drops, `run_batch`
    /// returns and its auto-unwind. When a publication intervened since
    /// the call, the context was migrated, so the return reverses under
    /// the current generation's action.
    #[inline(always)]
    #[allow(clippy::inline_always)]
    fn close_frame(&mut self, frame: Frame, obs_on: bool) {
        let action = if self.snap.epoch == frame.epoch {
            frame.action
        } else {
            self.snap
                .view
                .resolve(frame.site, frame.callee)
                .map_or(EdgeAction::Unencoded, |r| r.action)
        };
        let _ = self.st.ret(
            &self.snap.view,
            &self.writer,
            obs_on,
            frame.site,
            frame.caller,
            action,
        );
        self.st.batch_events += 1;
    }

    /// Resolves `(site, target)` against the cached snapshot, routing
    /// polymorphic (indirect) sites through the per-thread inline cache. A
    /// hit costs one epoch-stamped entry compare instead of the compare
    /// chain / hash probe; a miss falls back to the snapshot's poly table
    /// and installs the result. Entries are keyed to the snapshot epoch,
    /// so a republish invalidates the whole cache without any cross-thread
    /// signal.
    #[inline]
    fn resolve_cached(&mut self, site: CallSiteId, target: FunctionId) -> Option<ResolvedSite> {
        let snap = &self.snap;
        let view = &snap.view;
        let (slot, cs) = view.dispatch.entry(site)?;
        match cs.dispatch {
            CompiledDispatch::Trap => None,
            CompiledDispatch::Mono {
                target: known,
                action,
            } => (known == target).then_some(ResolvedSite {
                action,
                dispatch_cost: 0,
                tc_wrap: cs.tc_wrap,
            }),
            CompiledDispatch::Poly { index } => {
                if let Some((action, tc_wrap)) =
                    self.st.ctx.icache.probe(slot, snap.epoch, site, target)
                {
                    self.st.shard.icache_hits += 1;
                    Some(ResolvedSite {
                        action,
                        // One compare against the cached entry replaces the
                        // chain walk / hash probe.
                        dispatch_cost: view.cost.compare,
                        tc_wrap,
                    })
                } else {
                    self.st.shard.icache_misses += 1;
                    let r = view
                        .dispatch
                        .poly_resolve(index, target, &view.cost, cs.tc_wrap)?;
                    self.st
                        .ctx
                        .icache
                        .fill(slot, snap.epoch, site, target, r.action, r.tc_wrap);
                    Some(r)
                }
            }
        }
    }

    /// The slow path: the cached snapshot has no action for `(site,
    /// target)`. Takes the shared lock, catches the context up with the
    /// current generation, re-checks (a racing thread may have patched the
    /// site first), runs the runtime handler if not, executes the call step
    /// against the live shared state, evaluates the §4 triggers and
    /// republishes. Returns the action valid under the new snapshot.
    #[cold]
    fn trap_call(
        &mut self,
        inner: &TrackerInner,
        site: CallSiteId,
        caller: FunctionId,
        target: FunctionId,
        dispatch: CallDispatch,
        obs_on: bool,
    ) -> EdgeAction {
        let mut sh_guard = inner.shared.lock();
        let sh = &mut *sh_guard;
        // A simulated poisoning needs no extra recovery here: this slow
        // path unconditionally republishes before returning.
        let _ = inner.note_slow_lock(sh);
        inner.absorb_pending(sh);
        self.flush_local(inner, sh);

        // Adopt any generation a sibling tenant published to our shared
        // lineage, then catch up with it and with any re-encoding published
        // since our epoch check in one migration: the call below must
        // execute against the current generation.
        let _ = sh.adopt_pending_lineage();
        self.st
            .migrate(&sh.current.view, &self.writer, self.writer.enabled());

        // The tracker API has no tail-call entry point, so a trap never
        // reveals a newly tail-calling function (no frame retrofit: that
        // path is engine-only).
        let (r, _) = sh.resolve_or_trap(self.st.tid.raw(), site, caller, target, dispatch, false);
        let _ = self.st.call(
            &sh.current.view,
            &self.writer,
            obs_on,
            site,
            target,
            r.action,
            r.tc_wrap,
            false,
        );
        sh.note_events(1);

        self.maybe_reencode(inner, sh);
        inner.update_trigger_mark(sh);
        self.snap = inner.republish(sh);
        // A re-encoding above may have re-patched this very site; report
        // the action valid under the snapshot the frame will be keyed to.
        self.snap
            .view
            .resolve(site, target)
            .map_or(r.action, |r| r.action)
    }

    /// Evaluates the §4 triggers and applies a due re-encoding while
    /// holding the shared lock. Only this thread's context migrates
    /// eagerly; every other thread migrates itself at its next epoch
    /// check. Returns whether a re-encoding ran.
    fn maybe_reencode(&mut self, inner: &TrackerInner, sh: &mut SharedState) -> bool {
        let live = inner.ccops_total.load(Ordering::Relaxed);
        if !sh.should_reencode(&|| live) {
            return false;
        }
        // On a shared lineage this either adopts a generation a sibling
        // already published (skipping the redundant local re-encode) or
        // re-encodes locally and publishes the result for the siblings.
        let _ = sh.reencode_via_lineage();
        self.st
            .migrate(&sh.current.view, &self.writer, self.writer.enabled());
        // Replay rebuilt our ccStack; publish its ops so the rate window
        // the triggers re-arm with starts clean.
        self.st.publish_cc_ops(&inner.ccops_total);
        sh.reset_triggers(inner.ccops_total.load(Ordering::Relaxed));
        true
    }

    /// Flushes this thread's local event batch, ccStack-op delta, spill
    /// activity and sample backlogs into the shared state. Caller holds
    /// the shared lock.
    fn flush_local(&mut self, inner: &TrackerInner, sh: &mut SharedState) {
        if self.st.batch_events > 0 {
            sh.note_events(self.st.batch_events);
            self.st.batch_events = 0;
        }
        self.st.publish_cc_ops(&inner.ccops_total);
        self.st.drain(sh);
    }

    /// Fast-path trigger bookkeeping: every [`EVENT_BATCH`] local events,
    /// flushes the batch to the shared counters.
    #[inline]
    fn flush_if_due(&mut self, inner: &TrackerInner) {
        if self.st.batch_events >= EVENT_BATCH {
            self.flush_batch_counters(inner);
        }
    }

    /// Flushes the accumulated local event batch to the shared atomics and
    /// — once enough events have flowed for the re-encoding gate to
    /// possibly open — *tries* the shared lock to evaluate the §4
    /// triggers, so the hot path never blocks on it.
    fn flush_batch_counters(&mut self, inner: &TrackerInner) {
        let batch = self.st.batch_events;
        self.st.batch_events = 0;
        let pending = inner.pending_events.fetch_add(batch, Ordering::Relaxed) + batch;
        self.st.publish_cc_ops(&inner.ccops_total);
        self.st.flush_obs();

        if pending < inner.trigger_check_at.load(Ordering::Relaxed) {
            return;
        }
        let Some(mut sh_guard) = inner.shared.try_lock() else {
            // Another thread is on the slow path; it will evaluate.
            return;
        };
        let sh = &mut *sh_guard;
        let poisoned = inner.note_slow_lock(sh);
        inner.absorb_pending(sh);
        self.st.drain(sh);
        if sh.adopt_pending_lineage() {
            // A sibling tenant published a newer lineage generation; move
            // this thread across it and republish so the other threads
            // migrate at their next epoch check.
            self.st
                .migrate(&sh.current.view, &self.writer, self.writer.enabled());
            self.snap = inner.republish(sh);
        }
        if self.maybe_reencode(inner, sh) {
            self.snap = inner.republish(sh);
        }
        if poisoned {
            // Recovery from the simulated poisoning: republish so every
            // thread revalidates its cached snapshot at its next event.
            self.snap = inner.republish(sh);
        }
        inner.update_trigger_mark(sh);
    }
}

/// A calling context captured for work migration: the origin context plus
/// the hand-off call site. Cheap to clone and `Send` — attach one to every
/// queued task.
#[derive(Clone, Debug)]
pub struct TaskContext {
    site: CallSiteId,
    origin: EncodedContext,
}

impl TaskContext {
    /// The captured origin context.
    pub fn origin(&self) -> &EncodedContext {
        &self.origin
    }
}

/// RAII guard for an adopted task context; restores the thread's previous
/// creation link on drop.
#[derive(Debug)]
pub struct AdoptGuard<'t> {
    handle: &'t ThreadHandle,
    previous: Option<Option<SpawnLink>>,
}

impl Drop for AdoptGuard<'_> {
    fn drop(&mut self) {
        if let Some(prev) = self.previous.take() {
            self.handle.slot.state.lock().st.ctx.spawn = prev;
        }
    }
}

/// RAII guard for one instrumented call. Carries the action resolved at
/// call time and the publication epoch it is valid under, so the return
/// side of an encoded edge is pure arithmetic — no patch-table probe.
#[derive(Debug)]
pub struct CallGuard<'t> {
    handle: &'t ThreadHandle,
    frame: Frame,
}

impl Drop for CallGuard<'_> {
    fn drop(&mut self) {
        let mut guard = self.handle.lock_refreshed();
        let l = &mut *guard;
        let obs_on = l.writer.enabled();
        l.close_frame(self.frame, obs_on);
        l.flush_if_due(&self.handle.inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_guards_track_the_stack() {
        let tracker = Tracker::new();
        let main_fn = tracker.define_function("main");
        let f = tracker.define_function("f");
        let g = tracker.define_function("g");
        let s1 = tracker.define_call_site();
        let s2 = tracker.define_call_site();

        let th = tracker.register_thread(main_fn);
        {
            let _a = th.call(s1, f);
            {
                let _b = th.call(s2, g);
                let ctx = th.sample();
                let path = tracker.decode(&ctx).unwrap();
                assert_eq!(tracker.format_path(&path), "main -> f -> g");
            }
            let ctx = th.sample();
            assert_eq!(
                tracker.format_path(&tracker.decode(&ctx).unwrap()),
                "main -> f"
            );
        }
        let ctx = th.sample();
        assert_eq!(tracker.format_path(&tracker.decode(&ctx).unwrap()), "main");
        assert_eq!(ctx.id, 0);
    }

    #[test]
    fn profiler_profile_leaves_the_heat_backlog_alone() {
        // Reading the profile mid-run must not move samples into the heat
        // ring: its contents pick the next encoding.
        let tracker = Tracker::with_config(DacceConfig {
            profiler_stride: 1,
            ..DacceConfig::default()
        });
        let main_fn = tracker.define_function("main");
        let f = tracker.define_function("f");
        let site = tracker.define_call_site();
        let th = tracker.register_thread(main_fn);
        {
            let _g = th.call(site, f);
            th.sample();
        }
        let heat = || tracker.with_shared(|sh| sh.ring.len());
        let profile = tracker.profiler_profile();
        assert!(profile.total() > 0);
        assert_eq!(heat(), 0);
        tracker.stats();
        assert_eq!(heat(), 1);
    }

    #[test]
    fn published_snapshots_do_not_share_the_graph() {
        // Traps grow the graph in place under the shared lock. A snapshot
        // that shared it would turn every trap into a deep copy of it.
        let tracker = Tracker::new();
        let main_fn = tracker.define_function("main");
        // Registered first, this thread keeps its snapshot from before the
        // traps cached.
        let _reader = tracker.register_thread(main_fn);
        let th = tracker.register_thread(main_fn);
        for i in 0..8 {
            let f = tracker.define_function(&format!("f{i}"));
            let _g = th.call(tracker.define_call_site(), f);
        }
        assert!(tracker.request_reencode());
        let _g = th.call(tracker.define_call_site(), main_fn);
        tracker.with_shared(|sh| {
            assert!(sh.lineage.is_none());
            assert_eq!(Arc::strong_count(&sh.current.graph), 1);
        });
    }

    #[test]
    fn warm_started_dispatch_slots_are_deterministic_and_ascend_with_site() {
        use crate::warm::SeedEdge;
        use dacce_callgraph::Dispatch;

        let warm_tracker = || {
            let tracker = Tracker::new();
            let main_fn = tracker.define_function("main");
            let fns: Vec<FunctionId> = (0..19)
                .map(|i| tracker.define_function(&format!("f{i}")))
                .collect();
            let sites: Vec<CallSiteId> = (0..19).map(|_| tracker.define_call_site()).collect();
            // A 19-edge chain, seeded deepest edge first so neither edge
            // order nor hash order matches site order.
            let edges = (0..19)
                .rev()
                .map(|i| SeedEdge {
                    caller: if i == 0 { main_fn } else { fns[i - 1] },
                    callee: fns[i],
                    site: sites[i],
                    dispatch: Dispatch::Direct,
                })
                .collect();
            tracker.warm_start(
                main_fn,
                &WarmStartSeed {
                    roots: vec![main_fn],
                    edges,
                    tail_fns: Vec::new(),
                },
            );
            crate::export::export_tracker_state(&tracker)
                .lines()
                .filter(|l| l.starts_with("dispatch "))
                .map(str::to_owned)
                .collect::<Vec<String>>()
        };
        let first = warm_tracker();
        assert_eq!(first.len(), 19);
        for _ in 0..3 {
            assert_eq!(warm_tracker(), first);
        }
        let slots: Vec<(u32, u32)> = first
            .iter()
            .map(|l| {
                let mut fields = l.split_whitespace().skip(1);
                let mut next = || fields.next().unwrap().parse::<u32>().unwrap();
                (next(), next())
            })
            .collect();
        for (i, &(site, slot)) in slots.iter().enumerate() {
            assert_eq!((site, slot), (i as u32, i as u32));
        }
    }

    #[test]
    fn lineage_graph_is_shared_until_the_first_divergent_trap() {
        let founder = Tracker::new();
        let main_fn = founder.define_function("main");
        let f = founder.define_function("f");
        let g = founder.define_function("g");
        let (known, new) = (founder.define_call_site(), founder.define_call_site());
        drop(founder.register_thread(main_fn).call(known, f));
        let lineage = founder.found_lineage(7);
        let lineage_graph = Arc::clone(&lineage.current().current.graph);

        let tenant = Tracker::with_lineage(DacceConfig::default(), &lineage);
        let shares = || tenant.with_shared(|sh| Arc::ptr_eq(&sh.current.graph, &lineage_graph));
        let th = tenant.register_thread(main_fn);
        drop(th.call(known, f));
        assert_eq!(tenant.stats().traps, 0, "the lineage encodes the edge");
        assert!(shares());
        drop(th.call(new, g));
        assert!(tenant.diverged());
        assert!(!shares());
    }

    #[test]
    fn recursion_through_guards_decodes() {
        let tracker = Tracker::new();
        let main_fn = tracker.define_function("main");
        let rec = tracker.define_function("rec");
        // One site lives in one function: the entry call site is in main,
        // the recursive site is in rec.
        let entry_site = tracker.define_call_site();
        let rec_site = tracker.define_call_site();
        let th = tracker.register_thread(main_fn);

        fn go(th: &ThreadHandle, tracker: &Tracker, s: CallSiteId, rec: FunctionId, depth: u32) {
            let _g = th.call(s, rec);
            if depth > 0 {
                go(th, tracker, s, rec, depth - 1);
            } else {
                let path = tracker.decode(&th.sample()).unwrap();
                assert_eq!(path.depth(), 7); // main + 6 rec frames
            }
        }
        let _entry = th.call(entry_site, rec);
        go(&th, &tracker, rec_site, rec, 4);
    }

    #[test]
    fn real_threads_with_spawn_contexts() {
        let tracker = Tracker::new();
        let main_fn = tracker.define_function("main");
        let worker_fn = tracker.define_function("worker");
        let job = tracker.define_function("job");
        let dispatch = tracker.define_call_site();
        let spawn_site = tracker.define_call_site();
        let job_site = tracker.define_call_site();

        let main_th = tracker.register_thread(main_fn);
        let _in_dispatch = main_th.call(dispatch, worker_fn);

        crossbeam::scope(|scope| {
            let t = &tracker;
            let main_th = &main_th;
            scope.spawn(move |_| {
                let th = t.register_spawned_thread(worker_fn, main_th, spawn_site);
                let _g = th.call(job_site, job);
                let path = t.decode(&th.sample()).unwrap();
                // Full context crosses the thread boundary.
                assert_eq!(t.format_path(&path), "main -> worker -> worker -> job");
            });
        })
        .unwrap();
    }

    #[test]
    fn adopted_tasks_carry_their_origin() {
        let tracker = Tracker::new();
        let main_fn = tracker.define_function("main");
        let producer = tracker.define_function("producer");
        let worker_fn = tracker.define_function("worker");
        let body = tracker.define_function("body");
        let s_prod = tracker.define_call_site();
        let s_handoff = tracker.define_call_site();
        let s_spawn = tracker.define_call_site();
        let s_body = tracker.define_call_site();

        let main_th = tracker.register_thread(main_fn);
        let task = {
            let _g = main_th.call(s_prod, producer);
            main_th.capture_task(s_handoff)
        };
        let worker = tracker.register_spawned_thread(worker_fn, &main_th, s_spawn);
        // Without adoption: attributed to the worker's own spawn chain.
        {
            let _g = worker.call(s_body, body);
            let p = tracker.decode(&worker.sample()).unwrap();
            assert_eq!(tracker.format_path(&p), "main -> worker -> body");
        }
        // With adoption: attributed to the producer context.
        {
            let _adopt = worker.adopt(&task);
            let _g = worker.call(s_body, body);
            let p = tracker.decode(&worker.sample()).unwrap();
            assert_eq!(
                tracker.format_path(&p),
                "main -> producer -> worker -> body"
            );
            assert_eq!(task.origin().leaf, producer);
        }
        // Guard dropped: back to the spawn chain.
        let p = tracker.decode(&worker.sample()).unwrap();
        assert_eq!(tracker.format_path(&p), "main -> worker");
    }

    #[test]
    fn warm_started_tracker_never_traps_on_seeded_edges() {
        use crate::warm::SeedEdge;
        use dacce_callgraph::Dispatch;

        let tracker = Tracker::new();
        let main_fn = tracker.define_function("main");
        let f = tracker.define_function("f");
        let g = tracker.define_function("g");
        let s1 = tracker.define_call_site();
        let s2 = tracker.define_call_site();
        let report = tracker.warm_start(
            main_fn,
            &WarmStartSeed {
                roots: vec![main_fn],
                edges: vec![
                    SeedEdge {
                        caller: main_fn,
                        callee: f,
                        site: s1,
                        dispatch: Dispatch::Direct,
                    },
                    SeedEdge {
                        caller: f,
                        callee: g,
                        site: s2,
                        dispatch: Dispatch::Direct,
                    },
                ],
                tail_fns: Vec::new(),
            },
        );
        assert_eq!(report.seeded_edges, 2);

        let th = tracker.register_thread(main_fn);
        {
            let _a = th.call(s1, f);
            let _b = th.call(s2, g);
            let path = tracker.decode(&th.sample()).unwrap();
            assert_eq!(tracker.format_path(&path), "main -> f -> g");
            tracker.check_invariants().unwrap();
        }
        assert_eq!(tracker.stats().traps, 0, "seeded edges must not trap");
        tracker.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "precede thread registration")]
    fn warm_start_after_registration_panics() {
        let tracker = Tracker::new();
        let main_fn = tracker.define_function("main");
        let _th = tracker.register_thread(main_fn);
        tracker.warm_start(main_fn, &WarmStartSeed::default());
    }

    #[test]
    fn check_invariants_passes_under_activity() {
        let tracker = Tracker::new();
        let main_fn = tracker.define_function("main");
        let f = tracker.define_function("f");
        let s = tracker.define_call_site();
        let th = tracker.register_thread(main_fn);
        tracker.check_invariants().unwrap();
        {
            let _g = th.call(s, f);
            tracker.check_invariants().unwrap();
        }
        tracker.check_invariants().unwrap();
    }

    #[test]
    fn stats_are_reachable() {
        let tracker = Tracker::new();
        let main_fn = tracker.define_function("main");
        let f = tracker.define_function("f");
        let s = tracker.define_call_site();
        let th = tracker.register_thread(main_fn);
        for _ in 0..50 {
            let _g = th.call(s, f);
        }
        let stats = tracker.stats();
        assert_eq!(stats.traps, 1);
        assert!(stats.calls >= 50);
    }

    #[test]
    fn function_names_round_trip() {
        let tracker = Tracker::new();
        let a = tracker.define_function("alpha");
        let b = tracker.define_function("beta");
        assert_eq!(tracker.function_name(a).as_deref(), Some("alpha"));
        assert_eq!(tracker.function_name(b).as_deref(), Some("beta"));
        assert_eq!(tracker.function_name(FunctionId::new(99)), None);
    }

    /// Regression test for the id/name registration race: ids used to come
    /// from a separate atomic while the name was pushed under the lock, so
    /// two racing `define_function` calls could pair an id with the other
    /// call's name. Now both are allocated under one lock.
    #[test]
    fn racing_function_definitions_keep_ids_and_names_paired() {
        let tracker = Tracker::new();
        const THREADS: usize = 8;
        const PER_THREAD: usize = 200;
        let mut all: Vec<(FunctionId, String)> = Vec::new();
        crossbeam::scope(|scope| {
            let mut joins = Vec::new();
            for t in 0..THREADS {
                let tr = tracker.clone();
                joins.push(scope.spawn(move |_| {
                    let mut pairs = Vec::with_capacity(PER_THREAD);
                    for i in 0..PER_THREAD {
                        let name = format!("fn_{t}_{i}");
                        let id = tr.define_function(&name);
                        pairs.push((id, name));
                    }
                    pairs
                }));
            }
            for j in joins {
                all.extend(j.join().unwrap());
            }
        })
        .unwrap();
        assert_eq!(all.len(), THREADS * PER_THREAD);
        // Ids are unique...
        let mut ids: Vec<u32> = all.iter().map(|(id, _)| id.index() as u32).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), THREADS * PER_THREAD, "duplicate FunctionIds");
        // ...and every id resolves to exactly the name registered with it.
        for (id, name) in &all {
            assert_eq!(tracker.function_name(*id).as_deref(), Some(name.as_str()));
        }
    }

    /// The acceptance property of the engine split: once every edge a
    /// thread executes is encoded, its call/return events acquire zero
    /// shared-mutex locks. Verified directly via the slow-path counter
    /// (wall-clock scaling is hardware-dependent; this is not).
    #[test]
    fn encoded_edges_take_no_shared_locks() {
        let cfg = DacceConfig {
            // Re-encode eagerly during warmup so the chain gets encoded...
            edge_threshold: 1,
            min_events_between_reencodes: 1,
            reencode_backoff: 1.0,
            // ...then quiesce the periodic trigger windows so steady state
            // is deterministic.
            ccstack_rate_window: u64::MAX,
            hot_check_every: u64::MAX,
            ..DacceConfig::default()
        };
        let tracker = Tracker::with_config(cfg);
        let main_fn = tracker.define_function("main");
        let fns: Vec<FunctionId> = (0..4)
            .map(|i| tracker.define_function(&format!("f{i}")))
            .collect();
        let sites: Vec<CallSiteId> = (0..4).map(|_| tracker.define_call_site()).collect();
        let th = tracker.register_thread(main_fn);

        // Warmup: trap every edge and let the re-encoding encode them.
        for _ in 0..3 {
            let mut guards = Vec::new();
            for (s, f) in sites.iter().zip(&fns) {
                guards.push(th.call(*s, *f));
            }
            while let Some(g) = guards.pop() {
                drop(g);
            }
        }
        assert!(tracker.stats().reencodes >= 1);

        // Steady state: thousands of call/return pairs, zero shared locks.
        let locks_before = tracker.slow_path_locks();
        for _ in 0..5_000 {
            let mut guards = Vec::new();
            for (s, f) in sites.iter().zip(&fns) {
                guards.push(th.call(*s, *f));
            }
            while let Some(g) = guards.pop() {
                drop(g);
            }
        }
        assert_eq!(
            tracker.slow_path_locks(),
            locks_before,
            "encoded-edge call/return must not touch the shared lock"
        );
        // And the encoding is still exact.
        let path = tracker.decode(&th.sample()).unwrap();
        assert_eq!(tracker.format_path(&path), "main");
        assert_eq!(tracker.stats().decode_errors, 0);
    }

    /// Re-encodings triggered through one thread's slow path must reach
    /// the other threads' contexts (lazily, at their next event).
    #[test]
    fn reencode_migrates_other_threads_lazily() {
        let cfg = DacceConfig {
            edge_threshold: 2,
            min_events_between_reencodes: 1,
            ..DacceConfig::default()
        };
        let tracker = Tracker::with_config(cfg);
        let main_fn = tracker.define_function("main");
        let worker_fn = tracker.define_function("worker");
        let f = tracker.define_function("f");
        let g = tracker.define_function("g");
        let s_spawn = tracker.define_call_site();
        let s_f = tracker.define_call_site();
        let s_g = tracker.define_call_site();
        let s_wf = tracker.define_call_site();

        let main_th = tracker.register_thread(main_fn);
        let worker = tracker.register_spawned_thread(worker_fn, &main_th, s_spawn);
        // The worker parks with one active frame under generation 0.
        let wg = worker.call(s_wf, f);
        // Main traps two new edges -> trigger 1 fires -> re-encode.
        let _a = tracker.decode(&main_th.sample()).unwrap();
        let _g1 = main_th.call(s_f, f);
        let _g2 = main_th.call(s_g, g);
        assert!(tracker.stats().reencodes >= 1);
        // The worker's next sample migrates its context to the new
        // generation and still decodes to the true path.
        let p = tracker.decode(&worker.sample()).unwrap();
        assert_eq!(tracker.format_path(&p), "main -> worker -> f");
        drop(wg);
        let p = tracker.decode(&worker.sample()).unwrap();
        assert_eq!(tracker.format_path(&p), "main -> worker");
        assert_eq!(tracker.stats().decode_errors, 0);
    }

    /// A batch must leave exactly the state an equivalent guard sequence
    /// leaves: same context id, same ccStack, same call count, same
    /// decoded paths — including when the batch itself traps and
    /// re-encodes mid-flight.
    #[test]
    fn run_batch_is_equivalent_to_guards() {
        let build = || {
            let tracker = Tracker::with_config(DacceConfig {
                edge_threshold: 1,
                min_events_between_reencodes: 1,
                ..DacceConfig::default()
            });
            let main_fn = tracker.define_function("main");
            let f = tracker.define_function("f");
            let g = tracker.define_function("g");
            let s1 = tracker.define_call_site();
            let s2 = tracker.define_call_site();
            let th = tracker.register_thread(main_fn);
            (tracker, th, f, g, s1, s2)
        };

        // Guard drive.
        let (t_guard, th, f, g, s1, s2) = build();
        {
            let _a = th.call(s1, f);
            let _b = th.call_indirect(s2, g);
        }
        {
            let _a = th.call(s1, f);
            let _b = th.call_indirect(s2, f);
        }
        let guard_stats = t_guard.stats();
        let snap = th.sample();
        assert_eq!((snap.id, snap.cc_depth()), (0, 0));

        // Batched drive of the same op sequence (first batch traps both
        // sites and re-encodes under the eager triggers).
        let (t_batch, th, f, g, s1, s2) = build();
        let n = th
            .run_batch(&[
                BatchOp::Call {
                    site: s1,
                    target: f,
                },
                BatchOp::CallIndirect {
                    site: s2,
                    target: g,
                },
                BatchOp::Ret,
                BatchOp::Ret,
            ])
            .expect("balanced batch");
        assert_eq!(n, 4);
        th.run_batch(&[
            BatchOp::Call {
                site: s1,
                target: f,
            },
            BatchOp::CallIndirect {
                site: s2,
                target: f,
            },
            BatchOp::Ret,
            BatchOp::Ret,
        ])
        .expect("balanced batch");
        let batch_stats = t_batch.stats();
        let snap = th.sample();
        assert_eq!((snap.id, snap.cc_depth()), (0, 0));

        assert_eq!(guard_stats.calls, batch_stats.calls);
        assert_eq!(guard_stats.decode_errors, 0);
        assert_eq!(batch_stats.decode_errors, 0);
        assert!(batch_stats.reencodes >= 1, "eager triggers fired mid-batch");
        t_batch.check_invariants().expect("post-batch invariants");
    }

    /// A batch observes frames opened earlier in the same batch: the
    /// deepest point decodes to the full chain when sampled right after.
    #[test]
    fn run_batch_partial_depth_decodes() {
        let tracker = Tracker::new();
        let main_fn = tracker.define_function("main");
        let f = tracker.define_function("f");
        let g = tracker.define_function("g");
        let s1 = tracker.define_call_site();
        let s2 = tracker.define_call_site();
        let th = tracker.register_thread(main_fn);
        // Balanced batch, then a guard walk to prove the batch left the
        // patch/dispatch state usable by the per-op path.
        th.run_batch(&[
            BatchOp::Call {
                site: s1,
                target: f,
            },
            BatchOp::Call {
                site: s2,
                target: g,
            },
            BatchOp::Ret,
            BatchOp::Ret,
        ])
        .expect("balanced batch");
        let a = th.call(s1, f);
        let b = th.call(s2, g);
        let path = tracker.decode(&th.sample()).unwrap();
        assert_eq!(tracker.format_path(&path), "main -> f -> g");
        drop(b);
        drop(a);
        assert_eq!(tracker.stats().decode_errors, 0);
    }

    /// An unmatched `Ret` stops the batch before the bad op, reports the
    /// error with partial progress, and leaves the handle fully usable.
    #[test]
    fn run_batch_reports_unmatched_ret_and_stays_usable() {
        let tracker = Tracker::new();
        let main_fn = tracker.define_function("main");
        let f = tracker.define_function("f");
        let s = tracker.define_call_site();
        let th = tracker.register_thread(main_fn);
        let err = th
            .run_batch(&[
                BatchOp::Call { site: s, target: f },
                BatchOp::Ret,
                BatchOp::Ret,
            ])
            .unwrap_err();
        assert_eq!(err.kind, BatchErrorKind::UnmatchedRet { index: 2 });
        assert_eq!(err.executed, 2);
        // The thread landed back at a consistent boundary...
        let ctx = th.sample();
        assert_eq!(ctx.id, 0);
        assert_eq!(tracker.format_path(&tracker.decode(&ctx).unwrap()), "main");
        // ...and the failure is visible in the degraded-state counters.
        assert_eq!(tracker.stats().degraded.batch_errors, 1);
        tracker.check_invariants().unwrap();
    }

    /// Frames still open at batch end are auto-unwound: the error reports
    /// them, the encoding lands back at the pre-batch frame, and later
    /// batches on the same handle keep working.
    #[test]
    fn run_batch_unwinds_open_frames_at_end() {
        let tracker = Tracker::new();
        let main_fn = tracker.define_function("main");
        let f = tracker.define_function("f");
        let s = tracker.define_call_site();
        let th = tracker.register_thread(main_fn);
        let err = th
            .run_batch(&[BatchOp::Call { site: s, target: f }])
            .unwrap_err();
        assert_eq!(err.kind, BatchErrorKind::UnclosedCalls { open: 1 });
        assert_eq!(err.executed, 1);
        let ctx = th.sample();
        assert_eq!(ctx.id, 0);
        let n = th
            .run_batch(&[BatchOp::Call { site: s, target: f }, BatchOp::Ret])
            .expect("handle stays usable after a batch error");
        assert_eq!(n, 2);
        assert_eq!(tracker.stats().degraded.batch_errors, 1);
        tracker.check_invariants().unwrap();
    }
}
