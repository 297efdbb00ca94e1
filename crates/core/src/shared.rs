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
//! lock-only part (call graph, tail-calling functions, roots) never leaves
//! the shared lock, so a trap mutates it in place without copying. An
//! encoding lineage stores and hands out whole generations.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use dacce_callgraph::analysis::classify_back_edges;
use dacce_callgraph::encode::{encode_graph, EncodeOptions, Encoding};
use dacce_callgraph::{
    CallGraph, CallSiteId, DecodeDict, DictStore, Dispatch, EdgeId, FunctionId, TimeStamp,
};
use dacce_obs::profiler::fingerprint64;
use dacce_obs::{EventKind, GenerationInfo, JournalConfig, JournalWriter};
use dacce_program::runtime::CallDispatch;
use dacce_program::CostModel;

use crate::config::{CompressionMode, DacceConfig};
use crate::context::EncodedContext;
use crate::dispatch::{CompiledDispatch, CompiledSite, DispatchTable, Patched};
use crate::fastpath::EncodingView;
use crate::lineage::{EncodingLineage, LineageState};
use crate::observe::{Observability, RUNTIME_TID};
use crate::patch::{EdgeAction, IndirectPatch};
use crate::profile::HotContextProfile;
use crate::stats::{DacceStats, DegradedState, ProgressPoint};
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
            self.view.dispatch.wrap(self.graph.edge(eid).site);
        }
    }

    /// Freezes `enc`'s dictionary under the next `gTimeStamp` and writes
    /// every site's dispatch record afresh from it. Returns how many
    /// indirect sites newly converted to hashing.
    ///
    /// One pass over the graph's edges, grouped by site with a counting
    /// sort in ascending site order; `heat` is indexed by edge id.
    pub(crate) fn install(&mut self, enc: &Encoding, config: &DacceConfig, heat: &[u64]) -> u64 {
        let ts = self.view.ts.next();
        let dict = DecodeDict::from_encoding(&self.graph, enc, ts).expect("overflow checked above");
        self.view.dicts.push(dict);
        self.view.ts = ts;
        self.view.max_id = enc.max_id;

        let graph = &*self.graph;
        let heat_of = |eid: EdgeId| heat.get(eid.index()).copied().unwrap_or(0);
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
        // Tail-calling functions by graph local.
        let mut tail = vec![false; graph.node_count()];
        if config.handle_tail_calls {
            for l in self.tail_fns.iter().filter_map(|&f| graph.local(f)) {
                tail[l as usize] = true;
            }
        }
        // Group edges per site: a counting sort over the edge list keeps
        // each site's edges in insertion order.
        let span = graph
            .edges()
            .map(|(_, e)| e.site.index() + 1)
            .max()
            .unwrap_or(0);
        let mut start = vec![0u32; span + 1];
        for (_, e) in graph.edges() {
            start[e.site.index() + 1] += 1;
        }
        for i in 0..span {
            start[i + 1] += start[i];
        }
        let mut by_site = vec![EdgeId::new(0); graph.edge_count()];
        let mut fill = start.clone();
        for (eid, e) in graph.edges() {
            let at = &mut fill[e.site.index()];
            by_site[*at as usize] = eid;
            *at += 1;
        }

        let mut table = self.view.dispatch.regenerated();
        let mut conversions = 0;
        let mut ordered: Vec<(u64, EdgeId)> = Vec::new();
        for idx in 0..span {
            let eids = &by_site[start[idx] as usize..start[idx + 1] as usize];
            let Some(&first) = eids.first() else {
                continue;
            };
            let indirect = eids
                .iter()
                .any(|&eid| graph.edge(eid).dispatch == Dispatch::Indirect);
            let tc_wrap = eids
                .iter()
                .any(|&eid| tail[graph.edge(eid).callee_local as usize]);

            let site = CallSiteId::new(idx as u32);
            let dispatch = if indirect {
                // Order known targets hottest-first for the compare chain.
                ordered.clear();
                ordered.extend(eids.iter().map(|&eid| (heat_of(eid), eid)));
                ordered.sort_by_key(|&(h, eid)| (std::cmp::Reverse(h), eid.index()));
                let mut p = IndirectPatch::default();
                for &(_, eid) in &ordered {
                    let e = graph.edge(eid);
                    let action = action_for(eid, e.back);
                    p.add_target(e.callee, action, config.indirect_inline_max);
                }
                // Conversion accounting only when the site was inline
                // before (or new).
                if p.hashed.is_some() && !self.view.dispatch.hashes(site) {
                    conversions += 1;
                }
                table.push_poly(p)
            } else {
                let e = graph.edge(first);
                CompiledDispatch::Mono {
                    target: e.callee,
                    action: action_for(first, e.back),
                }
            };
            table.put(site, CompiledSite { dispatch, tc_wrap });
        }
        self.view.dispatch = table;
        conversions
    }

    /// Adds each sample's weight to the heat of every edge its decoded path
    /// runs through (§4, first bullet). Returns how many samples failed to
    /// decode.
    ///
    /// Each path is walked leaf to root: the edge into a step is found
    /// among its callee's incoming edges by site, and that edge's caller
    /// local carries the walk on, so only the leaf (and any step whose
    /// edge is not in the graph) takes a function-id lookup.
    fn add_heat<'a>(
        &self,
        samples: impl Iterator<Item = (&'a EncodedContext, u64)>,
        heat: &mut Vec<u64>,
    ) -> u64 {
        let graph = &*self.graph;
        if heat.len() < graph.edge_count() {
            heat.resize(graph.edge_count(), 0);
        }
        let mut errors = 0;
        for (samp, weight) in samples {
            let Ok(path) = self.view.decode(samp) else {
                errors += 1;
                continue;
            };
            let steps = &path.0;
            let mut local = steps.last().and_then(|s| graph.local(s.func));
            for w in steps.windows(2).rev() {
                let edge = w[1].site.zip(local).and_then(|(site, l)| {
                    graph
                        .node_at(l)
                        .incoming
                        .iter()
                        .find(|&&eid| graph.edge(eid).site == site)
                });
                local = match edge {
                    Some(&eid) => {
                        heat[eid.index()] += weight;
                        let e = graph.edge(eid);
                        if e.caller == w[0].func {
                            Some(e.caller_local)
                        } else {
                            graph.local(w[0].func)
                        }
                    }
                    None => graph.local(w[0].func),
                };
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
    /// Observed invocation heat by edge id (edges past the end: 0).
    pub(crate) edge_heat: Vec<u64>,
    // Re-encoding trigger state.
    pub(crate) new_edges: usize,
    pub(crate) events_since_reencode: u64,
    pub(crate) cur_min_events: u64,
    pub(crate) window_start_events: u64,
    pub(crate) window_start_ccops: u64,
    pub(crate) next_hot_check: u64,
    /// The hottest incoming edge each node was encoded with, by graph
    /// local (cleared whenever the graph is replaced).
    pub(crate) last_hot_choice: Vec<Option<EdgeId>>,
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
    /// Lock-only statistics; the counts the registry stores stay zero here
    /// ([`DacceStats::read_registry`] fills them into every view).
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
    pub(crate) obs_writer: JournalWriter,
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
        let obs = Observability::with_config(JournalConfig {
            ring_capacity: config.journal_ring_capacity,
        });
        let obs_writer = obs.journal().writer(RUNTIME_TID);
        let mut dispatch = DispatchTable::default();
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
                tail_fns: HashSet::new(),
                roots: Vec::new(),
            },
            edge_heat: Vec::new(),
            new_edges: 0,
            events_since_reencode: 0,
            cur_min_events,
            window_start_events: 0,
            window_start_ccops: 0,
            next_hot_check: 0,
            last_hot_choice: Vec::new(),
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
        self.obs.metrics().record_generation(GenerationInfo {
            generation: self.current.view.ts.raw(),
            nodes: nodes as u32,
            edges: edges as u32,
            max_id: self.current.view.max_id,
            cost,
        });
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
        let started = Instant::now();
        // Copy the owner table (shared with published snapshots) only when
        // this trap records a new owner, not for every new target of a
        // known site.
        let prev_owner = self.current.view.site_owner.get(&site).copied();
        if prev_owner != Some(caller) {
            Arc::make_mut(&mut self.current.view.site_owner).insert(site, caller);
        }
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
        if self.edge_heat.len() <= eid.index() {
            self.edge_heat.resize(eid.index() + 1, 0);
        }
        self.edge_heat[eid.index()] += 1;

        // In degraded mode newly discovered edges can never be encoded —
        // re-encoding is off for good — so the callee's subgraph runs
        // trap-everything (first call traps, later calls take the plain
        // sub-path push, all decodable through `[maxID+1, 2*maxID+1]`).
        if self.stats.degraded.active {
            self.stats.degraded.note_trap_node(callee.raw());
            self.obs.metrics().degraded_traps.inc();
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

        // A new edge stays unencoded until the next re-encoding (§3: "that
        // edge is not encoded until the next re-encoding process").
        let wrap = self.config.handle_tail_calls && self.current.tail_fns.contains(&callee);
        let Patched {
            tc_wrap,
            targets,
            converted,
        } = self.current.view.dispatch.patch(
            site,
            callee,
            EdgeAction::Unencoded,
            dispatch == CallDispatch::Indirect,
            wrap,
            self.config.indirect_inline_max,
        );
        if converted {
            self.stats.hash_conversions += 1;
        }
        self.dispatch_changed();

        let metrics = self.obs.metrics();
        metrics.on_trap(started.elapsed());
        metrics.sites_patched.inc();
        if is_new {
            metrics.edges_discovered.inc();
        }
        let writer = &self.obs_writer;
        if writer.enabled() {
            let (site, caller, callee) = (site.raw(), caller.raw(), callee.raw());
            writer.emit_for(
                tid,
                EventKind::Trap {
                    site,
                    caller,
                    callee,
                },
            );
            if is_new {
                writer.emit_for(
                    tid,
                    EventKind::EdgeDiscovered {
                        site,
                        caller,
                        callee,
                    },
                );
            }
            writer.emit_for(tid, EventKind::SitePatched { site, targets });
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
    /// was already captured.
    pub(crate) fn capture_postmortem(&mut self, reason: &str) {
        if self.postmortem.is_some() {
            return;
        }
        self.postmortem = Some(self.obs.render_postmortem(
            reason,
            self.current.view.ts.raw(),
            self.current.view.max_id,
            &self.degraded(),
        ));
    }

    /// The degraded state: the lock-only facts kept here plus the counts
    /// the registry stores.
    pub(crate) fn degraded(&self) -> DegradedState {
        let mut d = self.stats.degraded.clone();
        d.read_registry(self.obs.metrics());
        d
    }

    /// Bookkeeping after the dispatch table changed: the superop table
    /// recompiles at the next snapshot, and the table's occupancy and slot
    /// refusals are recorded as registry gauges.
    fn dispatch_changed(&mut self) {
        self.superops_dirty = true;
        let dispatch = &self.current.view.dispatch;
        let (occupied, span) = dispatch.occupancy();
        self.obs
            .metrics()
            .record_dispatch(occupied, span, dispatch.slot_failures());
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
                let heat = self.edge_heat.get(eid.index()).copied().unwrap_or(0);
                if heat < self.config.compression_min_heat {
                    continue;
                }
                let action = self.current.view.dispatch.action(e.site, e.callee);
                if action == Some(EdgeAction::Unencoded) {
                    return true;
                }
            }
        }
        false
    }

    /// The hottest non-back incoming edge of the node at graph local `l`,
    /// if any clears the noise floor.
    fn hottest_incoming(&self, l: u32) -> Option<EdgeId> {
        let graph = &*self.current.graph;
        let mut best: Option<(u64, EdgeId)> = None;
        for &eid in &graph.node_at(l).incoming {
            if graph.edge(eid).back {
                continue;
            }
            let heat = self.edge_heat.get(eid.index()).copied().unwrap_or(0);
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
        for (l, prev) in self.last_hot_choice.iter().enumerate() {
            if let (Some(prev), Some(best_eid)) = (prev, self.hottest_incoming(l as u32)) {
                if best_eid != *prev {
                    changed += 1;
                }
            }
        }
        changed
    }

    /// The shared core of the re-encoding procedure (§4): derives heat,
    /// re-classifies back edges, re-encodes the grown graph, freezes a new
    /// dictionary under `gTimeStamp + 1` and rewrites every dispatch record.
    ///
    /// Thread-state regeneration is the caller's job: afterwards, migrate
    /// live contexts from the old generation's dictionary, which stays in
    /// the store (see [`crate::thread::ThreadState::migrate`]), then call
    /// [`SharedState::reset_triggers`].
    pub(crate) fn reencode_core(&mut self) -> (ReencodeOutcome, u64) {
        let cost =
            self.current.graph.edge_count() as u64 * self.current.view.cost.reencode_per_edge;
        self.obs_writer.emit(EventKind::ReencodeBegin {
            generation: self.current.view.ts.raw(),
        });

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
            EncodeOptions::with_heat(&self.edge_heat)
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
                self.obs.metrics().reencode_retries.inc();
                let next = (self.cur_min_events as f64 * self.config.reencode_backoff) as u64;
                self.cur_min_events = next.min(self.config.reencode_interval_cap);
            }
            self.obs.metrics().on_reencode(false, cost);
            self.obs_writer.emit(EventKind::ReencodeEnd {
                generation: self.current.view.ts.raw(),
                applied: false,
                cost,
                nodes: 0,
                edges: 0,
                max_id: 0,
            });
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
        self.last_hot_choice = (0..self.current.graph.node_count() as u32)
            .map(|l| self.hottest_incoming(l))
            .collect();

        self.note_generation(cost);

        // Decay heat *after* it drove this encoding, so the next
        // re-encoding weighs recent behaviour over old phases.
        for h in &mut self.edge_heat {
            *h /= 2;
        }

        self.obs.metrics().on_reencode(true, cost);
        self.obs_writer.emit(EventKind::ReencodeEnd {
            generation: self.current.view.ts.raw(),
            applied: true,
            cost,
            nodes: self.current.graph.node_count() as u32,
            edges: self.current.graph.edge_count() as u32,
            max_id: self.current.view.max_id,
        });

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
            lineage.note_divergence();
            self.obs.metrics().lineage_divergences.inc();
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
        self.obs.metrics().lineage_adoptions.inc();
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
            self.obs.metrics().lineage_adoptions.inc();
            return (true, 0);
        }
        let (outcome, cost) = self.reencode_core();
        let applied = matches!(outcome, ReencodeOutcome::Applied);
        if applied && !self.diverged {
            self.lineage_gen = lineage.publish_into(&mut guard, self.export_lineage_state());
            self.obs.metrics().lineage_publishes.inc();
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
        self.obs.metrics().superop_republishes.inc();
        if self.superops_dirty {
            self.superops_dirty = false;
            let dropped = self.superops.len();
            if dropped > 0 {
                self.obs.metrics().superop_invalidations.add(dropped as u64);
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
            self.obs
                .metrics()
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
/// call graph stays behind the shared lock.
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
    fingerprint64(std::iter::once(snap.id).chain(snap.cc.iter().flat_map(|e| {
        [
            e.id,
            (u64::from(e.site.raw()) << 32) | u64::from(e.target.raw()),
        ]
    })))
}
