//! Shared encoding state and its published snapshots.
//!
//! This is one half of the engine split: everything that is *global* to a
//! DACCE instance lives in [`SharedState`]. Its encoding is one
//! [`Generation`] — what a re-encoding freezes under one `gTimeStamp`
//! (§4) — next to the instance's edge heat, re-encoding trigger state,
//! aggregate statistics and observability. Per-thread encoding contexts
//! are owned by the other half (the [`crate::engine::DacceEngine`] facade
//! or the concurrent [`crate::tracker::Tracker`] slots) and never appear
//! here.
//!
//! A [`Generation`] has two parts. Its thread-read part, the
//! [`EncodingView`], is all a published [`EncodingSnapshot`] carries: the
//! slow path clones it (O(1): every constituent is `Arc`-backed) and
//! publishes it under an epoch counter. Reader threads keep a cached
//! `Arc<EncodingSnapshot>` and revalidate it with a single atomic epoch
//! load per event — see `DESIGN.md`, "Concurrency architecture". The
//! lock-only part (call graph, logical patch table, tail-calling
//! functions, roots) never leaves the shared lock, so a trap mutates it in
//! place without copying. An encoding lineage stores and hands out whole
//! generations.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use dacce_callgraph::analysis::classify_back_edges;
use dacce_callgraph::encode::{encode_graph, EncodeOptions, Encoding};
use dacce_callgraph::{
    CallGraph, CallSiteId, DecodeDict, DictStore, Dispatch, EdgeId, FunctionId, TimeStamp,
};
use dacce_program::runtime::CallDispatch;
use dacce_program::CostModel;

use crate::config::{CompressionMode, DacceConfig};
use crate::context::EncodedContext;
use crate::dispatch::DispatchTable;
use crate::fastpath::EncodingView;
use crate::lineage::{EncodingLineage, LineageState};
use crate::observe::{self, ObsWriter, Observability};
use crate::patch::{EdgeAction, IndirectPatch, PatchTable, SitePatch, SiteState};
use crate::profile::HotContextProfile;
use crate::stats::{DacceStats, ProgressPoint};
use crate::superop::{SuperOpTable, WindowOp};
use crate::warm::WarmStartReport;

/// Minimum heat for an edge to participate in the hot-path-change check;
/// filters sampling noise.
const HOT_FLOOR: u64 = 16;

/// Capacity of the continuous-profiler sample ring (weighted contexts kept
/// for decode-on-demand profiles and, behind
/// [`DacceConfig::profiler_feedback`], re-encode heat derivation).
const PROFILER_RING_CAP: usize = 256;

/// Result of one re-encoding attempt.
pub(crate) enum ReencodeOutcome {
    /// A new dictionary was published; thread states must be regenerated
    /// (eagerly by the engine, lazily by the concurrent tracker).
    Applied,
    /// The attempt aborted: either the grown graph would overflow the
    /// 64-bit id budget (old encoding stays, re-encoding permanently
    /// disabled, degraded trap-everything mode from here on) or an
    /// injected abort rolled the generation back for a later retry.
    Overflowed,
}

/// One encoding generation: everything a re-encoding freezes under one
/// `gTimeStamp` (§4), split by who reads it. Lineages found, publish and
/// adopt whole generations; cloning is cheap because the large parts are
/// `Arc`-backed.
#[derive(Clone, Debug)]
pub(crate) struct Generation {
    /// The thread-read part: cloned into every published snapshot.
    pub(crate) view: EncodingView,
    /// The dynamic call graph, copy-on-write shared with an attached
    /// lineage: attaching is `Arc::clone`, the first local mutation after
    /// attach pays one deep clone (`Arc::make_mut`).
    pub(crate) graph: Arc<CallGraph>,
    /// The logical patch table; `view.dispatch` is its compiled form, kept
    /// in lock step by every mutation path.
    pub(crate) patches: PatchTable,
    pub(crate) tail_fns: HashSet<FunctionId>,
    pub(crate) roots: Vec<FunctionId>,
}

impl Generation {
    /// Adds a (thread) root function to the graph and root set.
    pub(crate) fn register_root(&mut self, root: FunctionId) {
        if !self.graph.contains_node(root) {
            Arc::make_mut(&mut self.graph).ensure_node(root);
        }
        if !self.roots.contains(&root) {
            self.roots.push(root);
        }
    }

    /// Marks every known site targeting `tail_fn` for TcStack wrapping (the
    /// per-thread frame retrofit is the caller's job).
    fn wrap_caller_sites(&mut self, tail_fn: FunctionId) {
        for &eid in self.graph.incoming(tail_fn) {
            let site = self.graph.edge(eid).site;
            if let Some(state) = self.patches.existing_mut(site) {
                state.tc_wrap = true;
                self.view.dispatch.sync_site(site, state);
            }
        }
    }

    /// Patches `site` for the newly trapped `callee` and recompiles its
    /// dispatch record. A new edge stays unencoded until the next
    /// re-encoding (§3: "that edge is not encoded until the next
    /// re-encoding process"). Returns the site's state and whether an
    /// indirect site just converted to hashing.
    fn patch_site(
        &mut self,
        site: CallSiteId,
        callee: FunctionId,
        dispatch: CallDispatch,
        config: &DacceConfig,
    ) -> (&SiteState, bool) {
        let action = EdgeAction::Unencoded;
        let tc_wrap = config.handle_tail_calls && self.tail_fns.contains(&callee);
        let state = self.patches.site_mut(site);
        state.tc_wrap |= tc_wrap;
        let mut converted = false;
        match dispatch {
            CallDispatch::Direct | CallDispatch::Plt => {
                state.patch = SitePatch::Direct(callee, action);
            }
            CallDispatch::Indirect => {
                if !matches!(state.patch, SitePatch::Indirect(_)) {
                    state.patch = SitePatch::Indirect(IndirectPatch::default());
                }
                let SitePatch::Indirect(p) = &mut state.patch else {
                    unreachable!("patched indirect above")
                };
                let before = p.hashed.is_some();
                p.add_target(callee, action, config.indirect_inline_max);
                converted = !before && p.hashed.is_some();
            }
        }
        self.view.dispatch.sync_site(site, state);
        (state, converted)
    }

    /// Freezes `enc`'s dictionary under the next `gTimeStamp` and
    /// regenerates every site patch, and the compiled dispatch table, from
    /// it. Returns how many indirect sites newly converted to hashing.
    fn install(
        &mut self,
        enc: &Encoding,
        config: &DacceConfig,
        heat: &HashMap<EdgeId, u64>,
    ) -> u64 {
        let ts = self.view.ts.next();
        let dict = DecodeDict::from_encoding(&self.graph, enc, ts).expect("overflow checked above");
        self.view.dicts.push(dict);
        self.view.ts = ts;
        self.view.max_id = enc.max_id;

        let heat_of = |eid: EdgeId| heat.get(&eid).copied().unwrap_or(0);
        // The action the new encoding assigns to one graph edge.
        let action_for = |eid: EdgeId, back: bool| {
            if back {
                let compress = match config.compression {
                    CompressionMode::Always => true,
                    CompressionMode::Never => false,
                    CompressionMode::Adaptive => heat_of(eid) >= config.compression_min_heat,
                };
                if compress {
                    EdgeAction::UnencodedCompressed
                } else {
                    EdgeAction::Unencoded
                }
            } else {
                EdgeAction::Encoded {
                    delta: enc.encoding_u64(eid).expect("non-overflowing encoding"),
                }
            }
        };
        // Group edges per site.
        let mut by_site: HashMap<CallSiteId, Vec<EdgeId>> = HashMap::new();
        for (eid, e) in self.graph.edges() {
            by_site.entry(e.site).or_default().push(eid);
        }

        let mut conversions = 0;
        let mut rebuilt: HashMap<CallSiteId, SiteState> = HashMap::with_capacity(by_site.len());
        for (site, eids) in by_site {
            let indirect = eids
                .iter()
                .any(|&eid| self.graph.edge(eid).dispatch == Dispatch::Indirect);
            let tc_wrap = config.handle_tail_calls
                && eids
                    .iter()
                    .any(|&eid| self.tail_fns.contains(&self.graph.edge(eid).callee));

            let patch = if indirect {
                // Order known targets hottest-first for the compare chain.
                let mut ordered: Vec<(u64, EdgeId)> =
                    eids.iter().map(|&eid| (heat_of(eid), eid)).collect();
                ordered.sort_by_key(|&(h, eid)| (std::cmp::Reverse(h), eid.index()));
                let mut p = IndirectPatch::default();
                for &(_, eid) in &ordered {
                    let e = self.graph.edge(eid);
                    let action = action_for(eid, e.back);
                    p.add_target(e.callee, action, config.indirect_inline_max);
                }
                if p.hashed.is_some() {
                    // Conversion accounting only when the site was inline
                    // before (or new).
                    let was_hashed = matches!(
                        self.patches.get(site).map(|s| &s.patch),
                        Some(SitePatch::Indirect(old)) if old.hashed.is_some()
                    );
                    if !was_hashed {
                        conversions += 1;
                    }
                }
                SitePatch::Indirect(p)
            } else {
                let eid = eids[0];
                let e = self.graph.edge(eid);
                SitePatch::Direct(e.callee, action_for(eid, e.back))
            };

            rebuilt.insert(site, SiteState { tc_wrap, patch });
        }
        self.patches.replace_all(rebuilt);
        self.view.dispatch.rebuild(&self.patches);
        conversions
    }

    /// Adds each sample's weight to the heat of every edge its decoded path
    /// runs through (§4, first bullet). Returns how many samples failed to
    /// decode.
    fn add_heat<'a>(
        &self,
        samples: impl Iterator<Item = (&'a EncodedContext, u64)>,
        heat: &mut HashMap<EdgeId, u64>,
    ) -> u64 {
        let mut errors = 0;
        for (samp, weight) in samples {
            let Ok(path) = self.view.decode(samp) else {
                errors += 1;
                continue;
            };
            for w in path.0.windows(2) {
                if let Some(site) = w[1].site {
                    if let Some(eid) = self.graph.edge_id(site, w[1].func) {
                        *heat.entry(eid).or_insert(0) += weight;
                    }
                }
            }
        }
        errors
    }
}

/// The shared (cross-thread) half of a DACCE instance.
#[derive(Debug)]
pub(crate) struct SharedState {
    pub(crate) config: DacceConfig,
    /// The current encoding generation.
    pub(crate) current: Generation,
    pub(crate) edge_heat: HashMap<EdgeId, u64>,
    // Re-encoding trigger state.
    pub(crate) new_edges: usize,
    pub(crate) events_since_reencode: u64,
    pub(crate) cur_min_events: u64,
    pub(crate) window_start_events: u64,
    pub(crate) window_start_ccops: u64,
    pub(crate) next_hot_check: u64,
    pub(crate) last_hot_choice: HashMap<FunctionId, EdgeId>,
    pub(crate) events: u64,
    pub(crate) reencode_overflowed: bool,
    /// Injected re-encode aborts that already fired, one-shot per target
    /// generation so the rolled-back attempt can succeed on retry.
    pub(crate) fired_aborts: HashSet<u32>,
    // Recent samples (ring) for heat derivation, plus the optional full log.
    pub(crate) ring: Vec<EncodedContext>,
    pub(crate) ring_pos: usize,
    pub(crate) sample_log: Vec<EncodedContext>,
    /// Continuous-profiler ring: deterministically sampled contexts with
    /// the call-event weight each one stands for (overwrite-oldest).
    pub(crate) profiler_ring: Vec<(EncodedContext, u64)>,
    pub(crate) profiler_ring_pos: usize,
    /// The flight-recorder dump captured at the first degradation trigger
    /// (degraded entry, re-encode abort, or a forced dump); first wins.
    pub(crate) postmortem: Option<String>,
    pub(crate) stats: DacceStats,
    /// Monotone publication counter; bumped whenever a snapshot observable
    /// by fast paths (patches, dictionaries, `maxID`) changed.
    pub(crate) epoch: u64,
    /// Observability handle (journal + metrics); cloned by runtimes that
    /// need to observe from other threads.
    pub(crate) obs: Observability,
    /// Journal writer for events emitted under the shared lock (traps,
    /// re-encodes, warm starts) — single-producer because the lock
    /// serialises all such emissions.
    pub(crate) obs_writer: ObsWriter,
    /// The shared encoding lineage this instance is attached to, if any.
    pub(crate) lineage: Option<EncodingLineage>,
    /// The lineage generation this instance last adopted or published.
    pub(crate) lineage_gen: u64,
    /// True once this instance grew an edge its lineage does not have —
    /// from then on it owns a private copy-on-write encoding and neither
    /// publishes into nor adopts from the lineage.
    pub(crate) diverged: bool,
    /// Fingerprint and report of the warm start already applied, so a
    /// repeated identical seeding is a cached no-op (tenant-safe
    /// idempotence) instead of double-counting edges.
    pub(crate) warm_fingerprint: Option<(u64, WarmStartReport)>,
    /// Installed superop candidate windows (mined by the workload layer,
    /// ranked best-first); recompiled into `superops` whenever the
    /// dispatch state changes.
    pub(crate) superop_candidates: Vec<Vec<WindowOp>>,
    /// The superop table compiled against the current dispatch state,
    /// shared into every published snapshot.
    pub(crate) superops: Arc<SuperOpTable>,
    /// True when the dispatch state moved since `superops` was compiled;
    /// the next snapshot recompiles (and thereby invalidates the old
    /// table, exactly like the inline cache's epoch keying).
    pub(crate) superops_dirty: bool,
}

impl SharedState {
    pub(crate) fn new(config: DacceConfig, cost: CostModel) -> Self {
        let cur_min_events = config.min_events_between_reencodes;
        let obs = Observability::from_settings(
            config.journal_ring_capacity,
            config.journal_overflow_watermark,
        );
        let obs_writer = obs.writer(u32::MAX);
        let mut dispatch = DispatchTable::new();
        dispatch.set_slot_cap(config.fault.dispatch_slot_cap);
        let view = EncodingView {
            ts: TimeStamp::ZERO,
            max_id: 0,
            dicts: DictStore::new(),
            dispatch,
            site_owner: Arc::new(HashMap::new()),
            cost,
            handle_tail_calls: config.handle_tail_calls,
        };
        SharedState {
            config,
            current: Generation {
                view,
                graph: Arc::new(CallGraph::new()),
                patches: PatchTable::new(),
                tail_fns: HashSet::new(),
                roots: Vec::new(),
            },
            edge_heat: HashMap::new(),
            new_edges: 0,
            events_since_reencode: 0,
            cur_min_events,
            window_start_events: 0,
            window_start_ccops: 0,
            next_hot_check: 0,
            last_hot_choice: HashMap::new(),
            events: 0,
            reencode_overflowed: false,
            fired_aborts: HashSet::new(),
            ring: Vec::new(),
            ring_pos: 0,
            sample_log: Vec::new(),
            profiler_ring: Vec::new(),
            profiler_ring_pos: 0,
            postmortem: None,
            stats: DacceStats::default(),
            epoch: 0,
            obs,
            obs_writer,
            lineage: None,
            lineage_gen: 0,
            diverged: false,
            warm_fingerprint: None,
            superop_candidates: Vec::new(),
            superops: Arc::new(SuperOpTable::default()),
            superops_dirty: false,
        }
    }

    /// Installs mined superop candidate windows (ranked best-first,
    /// replacing any previous set) and marks the table for recompilation
    /// at the next snapshot.
    pub(crate) fn install_superop_candidates(&mut self, windows: &[Vec<WindowOp>]) {
        self.superop_candidates = windows.to_vec();
        self.superops_dirty = true;
    }

    /// §3: the initial graph contains only `main`; freeze dictionary 0.
    pub(crate) fn attach_main(&mut self, main: FunctionId) {
        let g = &mut self.current;
        g.register_root(main);
        let enc = encode_graph(&g.graph, &g.roots, &EncodeOptions::default());
        let dict = DecodeDict::from_encoding(&g.graph, &enc, TimeStamp::ZERO)
            .expect("trivial graph cannot overflow");
        g.view.dicts.push(dict);
        g.view.max_id = enc.max_id;
        self.next_hot_check = self.config.hot_check_every;
        self.note_generation(0);
    }

    /// Records the generation just installed: its Figure 9 progress point
    /// and its row in the obs generation table, charged `cost` units.
    pub(crate) fn note_generation(&mut self, cost: u64) {
        let nodes = self.current.graph.node_count();
        let edges = self.current.graph.edge_count();
        self.stats.progress.push(ProgressPoint {
            calls: self.stats.calls,
            nodes,
            edges,
            max_id: self.current.view.max_id,
        });
        self.obs.record_generation(
            self.current.view.ts.raw(),
            nodes as u32,
            edges as u32,
            self.current.view.max_id,
            cost,
        );
    }

    /// Installs `enc` as the next generation (see [`Generation::install`])
    /// and accounts for it.
    pub(crate) fn install_encoding(&mut self, enc: &Encoding) {
        self.stats.hash_conversions += self.current.install(enc, &self.config, &self.edge_heat);
        self.stats.max_max_id = self.stats.max_max_id.max(enc.max_id);
        self.dispatch_changed();
    }

    /// Trigger bookkeeping for `n` call/return events.
    pub(crate) fn note_events(&mut self, n: u64) {
        self.events += n;
        self.events_since_reencode += n;
    }

    /// Resolves `(site, callee)` like [`EncodingView::resolve`], running
    /// the runtime handler (§3) when the site traps — the first execution
    /// of a call edge. The handler adds the edge to the call graph,
    /// patches the site and performs tail-call discovery; the resolution
    /// it returns is what the freshly generated code executes for this
    /// very invocation, charged the handler's cost. Also returns, when
    /// this trap revealed a *new* tail-calling function, that function, so
    /// the caller can retrofit active frames (shared state has no thread
    /// access).
    pub(crate) fn resolve_or_trap(
        &mut self,
        tid: u32,
        site: CallSiteId,
        caller: FunctionId,
        callee: FunctionId,
        dispatch: CallDispatch,
        tail: bool,
    ) -> (ResolvedSite, Option<FunctionId>) {
        if let Some(r) = self.current.view.resolve(site, callee) {
            return (r, None);
        }
        let timer = observe::start_timer();
        self.stats.traps += 1;
        let prev_owner = Arc::make_mut(&mut self.current.view.site_owner).insert(site, caller);
        debug_assert!(
            prev_owner.is_none() || prev_owner == Some(caller),
            "call site {site} observed in two functions ({prev_owner:?} and {caller}); \
             each static call location needs its own CallSiteId"
        );
        let graph_dispatch = match dispatch {
            CallDispatch::Direct => Dispatch::Direct,
            CallDispatch::Indirect => Dispatch::Indirect,
            CallDispatch::Plt => Dispatch::Plt,
        };
        let (eid, is_new) =
            Arc::make_mut(&mut self.current.graph).add_edge(caller, callee, site, graph_dispatch);
        if is_new {
            self.new_edges += 1;
            self.mark_diverged();
        }
        *self.edge_heat.entry(eid).or_insert(0) += 1;

        // In degraded mode newly discovered edges can never be encoded —
        // re-encoding is off for good — so the callee's subgraph runs
        // trap-everything (first call traps, later calls take the plain
        // sub-path push, all decodable through `[maxID+1, 2*maxID+1]`).
        if self.stats.degraded.active {
            self.stats.degraded.note_trap_node(callee.raw());
            self.stats.degraded.degraded_traps += 1;
            self.obs.on_degraded_trap();
        }

        // §5.2: the first tail call inside `caller` reveals that `caller`'s
        // callers must save/restore the encoding context absolutely.
        let newly_tail =
            if tail && self.config.handle_tail_calls && self.current.tail_fns.insert(caller) {
                self.current.wrap_caller_sites(caller);
                Some(caller)
            } else {
                None
            };

        let (state, converted) = self
            .current
            .patch_site(site, callee, dispatch, &self.config);
        let tc_wrap = state.tc_wrap;
        let targets = match &state.patch {
            SitePatch::Indirect(p) => p.target_count() as u32,
            _ => 1,
        };
        if converted {
            self.stats.hash_conversions += 1;
        }
        self.dispatch_changed();

        self.obs.on_trap(timer.elapsed_ns());
        self.obs.on_site_patched();
        if is_new {
            self.obs.on_edge_discovered();
        }
        if self.obs_writer.enabled() {
            let (s, cr, ce) = (site.raw(), caller.raw(), callee.raw());
            self.obs_writer.trap(tid, s, cr, ce);
            if is_new {
                self.obs_writer.edge_discovered(tid, s, cr, ce);
            }
            self.obs_writer.site_patched(tid, s, targets);
        }
        let dispatch_cost = self.current.view.cost.handler_trap;
        (
            ResolvedSite {
                action: EdgeAction::Unencoded,
                dispatch_cost,
                tc_wrap,
            },
            newly_tail,
        )
    }

    /// Feeds a sample into the heat ring (and the optional log). Samples
    /// are counted in per-thread shards, whose backlogs drain here.
    pub(crate) fn push_ring(&mut self, snap: EncodedContext) {
        if self.config.keep_sample_log {
            self.sample_log.push(snap.clone());
        }
        if self.config.sample_ring > 0 {
            push_circular(
                &mut self.ring,
                &mut self.ring_pos,
                self.config.sample_ring,
                snap,
            );
        }
    }

    /// Feeds a weighted sample into the profiler ring (counted in
    /// per-thread shards, whose backlogs drain here).
    pub(crate) fn push_profiler_ring(&mut self, sample: (EncodedContext, u64)) {
        push_circular(
            &mut self.profiler_ring,
            &mut self.profiler_ring_pos,
            PROFILER_RING_CAP,
            sample,
        );
    }

    /// Decodes the profiler ring into an aggregated hot-context profile.
    /// Each sample contributes its captured weight; samples from older
    /// generations decode against their own versioned dictionary.
    pub(crate) fn profiler_profile(&mut self) -> HotContextProfile {
        let mut prof = HotContextProfile::new();
        let ring = std::mem::take(&mut self.profiler_ring);
        for (samp, weight) in &ring {
            match self.current.view.decode(samp) {
                Ok(path) => prof.record_weighted(&path, *weight),
                Err(_) => self.stats.decode_errors += 1,
            }
        }
        self.profiler_ring = ring;
        prof
    }

    /// Captures a flight-recorder postmortem (first trigger wins): peeks
    /// the journal without consuming it, stitches the recent re-encode
    /// spans and renders the versioned dump document. A no-op when a dump
    /// was already captured or observability is compiled out.
    pub(crate) fn capture_postmortem(&mut self, reason: &str) {
        if self.postmortem.is_some() {
            return;
        }
        self.postmortem = self.obs.render_postmortem(
            reason,
            self.current.view.ts.raw(),
            self.current.view.max_id,
            &self.stats.degraded,
        );
    }

    /// Bookkeeping after the dispatch table changed: the superop table
    /// recompiles at the next snapshot, and the table's slot refusals
    /// (delta-based) and occupancy are mirrored into
    /// [`crate::stats::DegradedState`] and the obs metrics.
    fn dispatch_changed(&mut self) {
        self.superops_dirty = true;
        let total = self.current.view.dispatch.slot_failures();
        let prev = self.stats.degraded.slot_failures;
        if total > prev {
            self.obs.on_slot_failures(total - prev);
            self.stats.degraded.slot_failures = total;
        }
        let (occupied, span) = self.current.view.dispatch.occupancy();
        self.obs.record_dispatch(occupied, span);
    }

    /// Switches the instance into permanent degraded mode: the current
    /// encoding is the last one, and every edge discovered from here on
    /// runs trap-everything (sound via the sub-path mechanism).
    fn enter_degraded(&mut self) {
        self.reencode_overflowed = true;
        self.stats.degraded.active = true;
    }

    /// Cheap pre-gate for the §4 triggers: worth evaluating them at all?
    pub(crate) fn reencode_check_due(&self) -> bool {
        self.config.reencode_enabled
            && !self.reencode_overflowed
            && self.events_since_reencode >= self.cur_min_events
    }

    /// Evaluates the three §4 triggers. `live_thread_ccops` supplies the
    /// ccStack-operation total of currently live threads (evaluated lazily —
    /// it is only needed when the rate window elapsed).
    pub(crate) fn should_reencode(&mut self, live_thread_ccops: &dyn Fn() -> u64) -> bool {
        if !self.reencode_check_due() {
            return false;
        }
        let mut fire = false;

        // Injected reencode-storm fault: force the triggers on a fixed
        // event cadence (the backoff floor in `reencode_check_due` still
        // applies, so aborted generations keep their retry discipline).
        if let Some(every) = self.config.fault.force_reencode_every {
            if self.events_since_reencode >= every {
                fire = true;
            }
        }

        // Trigger 1: the number of identified call edges reached a threshold.
        if self.new_edges >= self.config.edge_threshold {
            fire = true;
        }

        // Trigger 3: the ccStack is frequently accessed.
        if self.events - self.window_start_events >= self.config.ccstack_rate_window {
            let ccops_now = self.stats.ccstack_ops + live_thread_ccops();
            let devents = self.events - self.window_start_events;
            let dops = ccops_now.saturating_sub(self.window_start_ccops);
            let rate = dops as f64 / devents as f64;
            self.window_start_events = self.events;
            self.window_start_ccops = ccops_now;
            if rate > self.config.ccstack_rate_threshold && self.has_unencoded_hot_state() {
                fire = true;
            }
        }

        // Trigger 2: the frequently invoked call paths have changed.
        if self.events >= self.next_hot_check {
            self.next_hot_check = self.events + self.config.hot_check_every;
            if self.hot_choices_changed() >= self.config.hot_change_nodes {
                fire = true;
            }
        }

        fire
    }

    /// True when re-encoding could plausibly reduce ccStack traffic: there
    /// are unencoded non-back edges, or hot back edges still lacking
    /// compression.
    fn has_unencoded_hot_state(&self) -> bool {
        if self.new_edges > 0 {
            return true;
        }
        if self.config.compression == CompressionMode::Adaptive {
            for (eid, e) in self.current.graph.edges() {
                if !e.back {
                    continue;
                }
                let heat = self.edge_heat.get(&eid).copied().unwrap_or(0);
                if heat < self.config.compression_min_heat {
                    continue;
                }
                if let Some(state) = self.current.patches.get(e.site) {
                    let action = match &state.patch {
                        SitePatch::Direct(t, a) if *t == e.callee => Some(*a),
                        SitePatch::Indirect(p) => p.lookup(e.callee).map(|(a, _, _)| a),
                        _ => None,
                    };
                    if action == Some(EdgeAction::Unencoded) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// The hottest non-back incoming edge of `node`, if any clears the
    /// noise floor.
    fn hottest_incoming(&self, node: FunctionId) -> Option<EdgeId> {
        let mut best: Option<(u64, EdgeId)> = None;
        for &eid in self.current.graph.incoming(node) {
            if self.current.graph.edge(eid).back {
                continue;
            }
            let heat = self.edge_heat.get(&eid).copied().unwrap_or(0);
            if heat < HOT_FLOOR {
                continue;
            }
            if best.is_none_or(|(h, e)| heat > h || (heat == h && eid < e)) {
                best = Some((heat, eid));
            }
        }
        best.map(|(_, eid)| eid)
    }

    /// Counts nodes whose hottest incoming edge differs from the one chosen
    /// at the last encoding.
    fn hot_choices_changed(&self) -> usize {
        let mut changed = 0;
        for &node in self.current.graph.nodes() {
            if let (Some(best_eid), Some(&prev)) =
                (self.hottest_incoming(node), self.last_hot_choice.get(&node))
            {
                if best_eid != prev {
                    changed += 1;
                }
            }
        }
        changed
    }

    /// The shared core of the re-encoding procedure (§4): derives heat,
    /// re-classifies back edges, re-encodes the grown graph, freezes a new
    /// dictionary under `gTimeStamp + 1` and regenerates every site patch.
    ///
    /// Thread-state regeneration is the caller's job: afterwards, migrate
    /// live contexts from the old generation's dictionary, which stays in
    /// the store (see [`crate::thread::ThreadState::migrate`]), then call
    /// [`SharedState::reset_triggers`].
    pub(crate) fn reencode_core(&mut self) -> (ReencodeOutcome, u64) {
        let cost =
            self.current.graph.edge_count() as u64 * self.current.view.cost.reencode_per_edge;
        self.stats.reencodes += 1;
        self.stats.reencode_cost += cost;
        self.obs_writer.reencode_begin(self.current.view.ts.raw());

        // Edge heat from the recent-sample ring, then — the adaptive
        // feedback loop behind `DacceConfig::profiler_feedback` — from the
        // continuous profiler's samples, each weighted by the call events
        // it stands for.
        let ring = self.ring.iter().map(|samp| (samp, 4));
        let mut errors = self.current.add_heat(ring, &mut self.edge_heat);
        if self.config.profiler_feedback {
            let ring = self.profiler_ring.iter().map(|(samp, w)| (samp, *w));
            errors += self.current.add_heat(ring, &mut self.edge_heat);
        }
        self.stats.decode_errors += errors;

        // Re-classify and re-encode the grown graph.
        classify_back_edges(Arc::make_mut(&mut self.current.graph), &self.current.roots);
        let opts = if self.config.heat_ordering {
            EncodeOptions::with_heat(self.edge_heat.clone())
        } else {
            EncodeOptions::default()
        };
        let enc = encode_graph(&self.current.graph, &self.current.roots, &opts);
        // Injected id-space exhaustion: treat an encoding past the cap
        // exactly like a genuine 64-bit overflow.
        let exhausted = enc.overflow
            || self
                .config
                .fault
                .max_id_cap
                .is_some_and(|cap| enc.max_id > cap);
        // Injected abort of this target generation: one-shot, so the
        // rolled-back attempt can succeed when retried.
        let target_gen = self.current.view.ts.raw() + 1;
        let injected_abort =
            self.config.fault.aborts_generation(target_gen) && self.fired_aborts.insert(target_gen);
        if exhausted || injected_abort {
            self.stats.overflow_aborts += 1;
            if exhausted {
                // A 64-bit-overflowing dynamic graph cannot be re-encoded;
                // keep the old encoding, stop trying for good (Table 1
                // reports this for PCCE; DACCE graphs stay far below the
                // budget) and degrade the rest of the run to
                // trap-everything on newly discovered edges.
                self.enter_degraded();
            } else {
                // Generation rollback is implicit — no dictionary was
                // pushed and `gTimeStamp` never advanced. Re-arm the
                // trigger with one extra (capped) backoff step so the
                // retry is exponential, not immediate.
                self.stats.degraded.reencode_retries += 1;
                self.obs.on_reencode_retry();
                let next = (self.cur_min_events as f64 * self.config.reencode_backoff) as u64;
                self.cur_min_events = next.min(self.config.reencode_interval_cap);
            }
            self.obs.on_reencode(false, cost);
            self.obs_writer
                .reencode_end(self.current.view.ts.raw(), false, cost, 0, 0, 0);
            // Flight recorder: the aborted span is in the journal now, so
            // the postmortem's span timeline includes this very abort.
            self.capture_postmortem(if exhausted {
                "degraded-entry"
            } else {
                "reencode-abort"
            });
            return (ReencodeOutcome::Overflowed, cost);
        }

        self.install_encoding(&enc);

        // Remember the per-node hot choice this encoding was built with.
        self.last_hot_choice.clear();
        for &node in self.current.graph.nodes() {
            if let Some(eid) = self.hottest_incoming(node) {
                self.last_hot_choice.insert(node, eid);
            }
        }

        self.note_generation(cost);

        // Decay heat *after* it drove this encoding, so the next
        // re-encoding weighs recent behaviour over old phases.
        for h in self.edge_heat.values_mut() {
            *h /= 2;
        }

        self.obs.on_reencode(true, cost);
        self.obs_writer.reencode_end(
            self.current.view.ts.raw(),
            true,
            cost,
            self.current.graph.node_count() as u32,
            self.current.graph.edge_count() as u32,
            self.current.view.max_id,
        );

        (ReencodeOutcome::Applied, cost)
    }

    /// Re-arms the §4 triggers after a re-encoding (or an overflow abort).
    /// `live_thread_ccops` is the ccStack-operation total of live threads
    /// *after* any replay, so the next rate window starts clean.
    pub(crate) fn reset_triggers(&mut self, live_thread_ccops: u64) {
        self.new_edges = 0;
        self.events_since_reencode = 0;
        self.window_start_events = self.events;
        self.window_start_ccops = self.stats.ccstack_ops + live_thread_ccops;
        // Back off: re-encoding is cheap to trigger early (small graph,
        // everything to gain) and increasingly rare once stable.
        let next = (self.cur_min_events as f64 * self.config.reencode_backoff) as u64;
        self.cur_min_events = next.min(self.config.reencode_interval_cap);
    }

    /// Marks this instance as diverged from its lineage (first new edge
    /// the lineage does not have). Idempotent; a no-op without a lineage.
    fn mark_diverged(&mut self) {
        if self.diverged {
            return;
        }
        if let Some(lineage) = &self.lineage {
            self.diverged = true;
            self.stats.lineage_divergences += 1;
            lineage.note_divergence();
            self.obs.on_lineage_diverge();
        }
    }

    /// Freezes the current generation for founding or publishing into a
    /// lineage. Cheap: every large constituent is `Arc`-backed.
    pub(crate) fn export_lineage_state(&self) -> LineageState {
        LineageState {
            current: self.current.clone(),
            warm: self.warm_fingerprint,
            generation: self.lineage_gen,
        }
    }

    /// Founds a shared lineage (generation 0) from the current encodable
    /// state, addressed by `hash`.
    ///
    /// # Panics
    ///
    /// Panics if the instance is already attached to a lineage.
    pub(crate) fn found_lineage(&mut self, hash: u64) -> EncodingLineage {
        assert!(self.lineage.is_none(), "already attached to a lineage");
        let lineage = EncodingLineage::found(hash, self.export_lineage_state());
        self.lineage = Some(lineage.clone());
        self.lineage_gen = 0;
        lineage
    }

    /// Attaches to `lineage`, adopting its latest generation wholesale.
    /// Returns the adopted generation.
    pub(crate) fn attach_lineage(&mut self, lineage: &EncodingLineage) -> u64 {
        let state = lineage.current();
        self.lineage = Some(lineage.clone());
        self.adopt_lineage_state(&state);
        state.generation
    }

    /// Replaces this instance's encodable state with a lineage generation.
    /// Per-instance trigger bookkeeping, statistics and observability are
    /// kept; thread states migrate lazily through the published snapshot
    /// (the adopted `ts` differs, so `refresh` decodes under the old
    /// dictionary and replays under the adopted patches).
    pub(crate) fn adopt_lineage_state(&mut self, state: &LineageState) {
        let own = std::mem::replace(&mut self.current, state.current.clone());
        // The instance's own cost model, tail-call switch and (possibly
        // fault-injected) slot cap survive: the lineage's were set under
        // the founder's configuration.
        self.current.view.cost = own.view.cost;
        self.current.view.handle_tail_calls = self.config.handle_tail_calls;
        self.current
            .view
            .dispatch
            .set_slot_cap(self.config.fault.dispatch_slot_cap);
        // Roots this tenant registered beyond the lineage's set stay first
        // and keep their graph nodes (the adopted graph may lack them).
        let adopted = std::mem::take(&mut self.current.roots);
        for r in own.roots.into_iter().chain(adopted) {
            self.current.register_root(r);
        }
        self.superops_dirty = true;
        self.warm_fingerprint = state.warm;
        self.lineage_gen = state.generation;
        self.stats.max_max_id = self.stats.max_max_id.max(self.current.view.max_id);
        self.last_hot_choice.clear();
        self.next_hot_check = self.events + self.config.hot_check_every;
        self.note_generation(0);
    }

    /// Adopts the latest lineage generation if one was published past the
    /// generation this instance holds. Returns `true` if state changed
    /// (the caller must republish its snapshot so threads migrate).
    pub(crate) fn adopt_pending_lineage(&mut self) -> bool {
        let Some(lineage) = self.lineage.clone() else {
            return false;
        };
        if self.diverged || lineage.generation() == self.lineage_gen {
            return false;
        }
        let state = lineage.current();
        if state.generation <= self.lineage_gen {
            return false;
        }
        self.adopt_lineage_state(&state);
        self.stats.lineage_adoptions += 1;
        self.obs.on_lineage_adopt();
        true
    }

    /// Routes a due re-encode through the shared lineage: if another
    /// tenant already published a newer generation, adopt it (one
    /// background re-encode serves every attached tenant); otherwise run
    /// the local core and — when applied and still on the shared lineage —
    /// publish the result as the next generation. Detached or diverged
    /// instances fall through to the plain local core. Returns whether the
    /// encoding moved (a generation was applied or adopted; thread states
    /// must then migrate) and the cost units charged (adoption is free).
    pub(crate) fn reencode_via_lineage(&mut self) -> (bool, u64) {
        let lineage = match (&self.lineage, self.diverged) {
            (Some(l), false) => l.clone(),
            _ => {
                let (outcome, cost) = self.reencode_core();
                return (matches!(outcome, ReencodeOutcome::Applied), cost);
            }
        };
        let mut guard = lineage.lock_state();
        if guard.generation > self.lineage_gen {
            let state = guard.clone();
            drop(guard);
            self.adopt_lineage_state(&state);
            self.stats.lineage_adoptions += 1;
            self.obs.on_lineage_adopt();
            return (true, 0);
        }
        let (outcome, cost) = self.reencode_core();
        let applied = matches!(outcome, ReencodeOutcome::Applied);
        if applied && !self.diverged {
            self.lineage_gen = lineage.publish_into(&mut guard, self.export_lineage_state());
            self.stats.lineage_publishes += 1;
            self.obs.on_lineage_publish();
        }
        (applied, cost)
    }

    /// Freezes the current generation's thread-read part into an immutable
    /// snapshot for publication to reader threads. Cheap: its dispatch
    /// table, dictionaries and owner table are `Arc`-backed. When the
    /// dispatch state moved since the superop table was compiled, the
    /// table is recompiled here — compile-on-republish — so a published
    /// snapshot can never carry superops folded under a stale encoding.
    pub(crate) fn snapshot(&mut self) -> EncodingSnapshot {
        self.stats.superop_republishes += 1;
        self.obs.on_superop_republish();
        if self.superops_dirty {
            self.superops_dirty = false;
            let dropped = self.superops.len();
            if dropped > 0 {
                self.stats.superop_invalidations += dropped as u64;
                self.obs.on_superop_invalidations(dropped as u64);
            }
            let table = if self.config.superops_enabled && !self.superop_candidates.is_empty() {
                SuperOpTable::compile(
                    &|site, callee| self.current.view.resolve(site, callee),
                    self.current.view.max_id,
                    &self.superop_candidates,
                    self.config.superop_max_window,
                    self.config.superop_max_table,
                )
            } else {
                SuperOpTable::default()
            };
            self.stats.superop_compiled = table.len() as u64;
            self.obs
                .record_superops(table.len() as u64, self.superop_candidates.len() as u64);
            self.superops = Arc::new(table);
        }
        EncodingSnapshot {
            epoch: self.epoch,
            view: self.current.view.clone(),
            superops: Arc::clone(&self.superops),
        }
    }
}

/// An immutable, shareable copy of the current generation's thread-read
/// part at one publication epoch: everything a thread needs to execute
/// call/return instrumentation over already-encoded edges — and to decode
/// or migrate its own context — without touching any shared lock. The
/// call graph and the logical patch table stay behind the shared lock.
#[derive(Clone, Debug)]
pub(crate) struct EncodingSnapshot {
    /// Publication epoch this snapshot was built at.
    pub(crate) epoch: u64,
    pub(crate) view: EncodingView,
    /// Superops compiled against this snapshot's dispatch state; a
    /// republish hands out a table recompiled for the new state, so
    /// stale superops die with the old snapshot (the epoch-invalidation
    /// rule the inline cache also follows).
    pub(crate) superops: Arc<SuperOpTable>,
}

/// Everything one patch-table probe tells the fast path about a call
/// through `(site, callee)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ResolvedSite {
    /// The action the generated code executes.
    pub(crate) action: EdgeAction,
    /// Cost of resolving the target (inline comparisons / hash probe for
    /// indirect sites; 0 for direct).
    pub(crate) dispatch_cost: u64,
    /// Whether the site wraps its frames with a TcStack save/restore
    /// (§5.2).
    pub(crate) tc_wrap: bool,
}

/// Appends `item` to the overwrite-oldest ring `buf` of capacity `cap`;
/// `pos` counts every push.
pub(crate) fn push_circular<T>(buf: &mut Vec<T>, pos: &mut usize, cap: usize, item: T) {
    if buf.len() < cap {
        buf.push(item);
    } else {
        buf[*pos % cap] = item;
    }
    *pos += 1;
}

/// A compact fingerprint of an encoded context's ccStack shape, journaled
/// with each profiler sample so offline consumers can tell distinct deep
/// contexts apart even when only the fixed-width wire record survives.
pub(crate) fn context_fingerprint(snap: &EncodedContext) -> u32 {
    observe::fingerprint64(std::iter::once(snap.id).chain(snap.cc.iter().flat_map(|e| {
        [
            e.id,
            (u64::from(e.site.raw()) << 32) | u64::from(e.target.raw()),
        ]
    })))
}
