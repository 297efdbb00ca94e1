//! Observability glue: the engine-facing facade over `dacce-obs`.
//!
//! Compiled two ways under the `obs` cargo feature (default on):
//!
//! * **enabled** — [`Observability`] bundles an event [`dacce_obs::Journal`]
//!   and a [`dacce_obs::MetricsRegistry`] behind `Arc`s; [`ObsWriter`] wraps
//!   a per-producer journal writer. Every hook below is a thin forwarding
//!   call; journal hooks check the runtime enable flag (one relaxed load)
//!   before constructing anything.
//! * **disabled** — both types are zero-sized and every hook is an empty
//!   `#[inline]` function, so the instrumentation sites compile away
//!   entirely (the ISSUE's "compile-out via feature").
//!
//! The hook methods take plain integers rather than `dacce-obs` types so
//! the call sites in `shared.rs` / `engine.rs` / `tracker.rs` are
//! identical under both configurations — no `cfg` at any call site.

#[cfg(feature = "obs")]
mod imp {
    use std::sync::Arc;

    use dacce_obs::postmortem::{Postmortem, SpanRow, MAX_SPANS};
    use dacce_obs::{
        EventKind, GenerationInfo, Journal, JournalBatch, JournalConfig, JournalWriter,
        MetricsRegistry, MetricsSnapshot, SpanTimeline,
    };

    use crate::stats::DegradedState;

    /// The per-thread deterministic sampler (re-exported so engine and
    /// tracker instantiate it without `cfg` at the call site).
    pub(crate) use dacce_obs::profiler::fingerprint64;
    pub(crate) use dacce_obs::Sampler;

    /// Thread id stamped on events emitted by the shared slow path when no
    /// specific thread is acting (re-encode cores, warm starts).
    pub const RUNTIME_TID: u32 = u32::MAX;

    /// Shared observability handle: the event journal plus the metrics
    /// registry. Cloning shares both (the clones observe the same run).
    #[derive(Clone, Debug)]
    pub struct Observability {
        journal: Arc<Journal>,
        metrics: Arc<MetricsRegistry>,
    }

    impl Default for Observability {
        fn default() -> Self {
            Self::with_config(JournalConfig::default())
        }
    }

    impl Observability {
        /// Creates a handle with explicit journal parameters. Journaling
        /// starts disabled; metrics are always collected (slow-path only).
        #[must_use]
        pub fn with_config(config: JournalConfig) -> Self {
            Observability {
                journal: Arc::new(Journal::new(config)),
                metrics: Arc::new(MetricsRegistry::default()),
            }
        }

        /// Creates a handle from plain settings (the engine-config view of
        /// [`JournalConfig`]; both compile variants expose this signature).
        #[must_use]
        pub(crate) fn from_settings(ring_capacity: usize, overflow_watermark: u32) -> Self {
            Self::with_config(JournalConfig {
                ring_capacity,
                overflow_watermark,
            })
        }

        /// The event journal.
        #[must_use]
        pub fn journal(&self) -> &Arc<Journal> {
            &self.journal
        }

        /// The metrics registry.
        #[must_use]
        pub fn metrics(&self) -> &Arc<MetricsRegistry> {
            &self.metrics
        }

        /// Turns event journaling on or off at runtime.
        pub fn set_journaling(&self, on: bool) {
            self.journal.set_enabled(on);
        }

        /// Whether event journaling is currently on.
        #[must_use]
        pub fn journaling(&self) -> bool {
            self.journal.enabled()
        }

        /// Drains the journal: all events published since the last drain,
        /// merged across threads in global sequence order.
        #[must_use]
        pub fn drain_journal(&self) -> JournalBatch {
            self.journal.drain()
        }

        /// A point-in-time copy of every metric, with the journal's drop
        /// counter folded in.
        #[must_use]
        pub fn snapshot(&self) -> MetricsSnapshot {
            let mut snap = self.metrics.snapshot();
            snap.journal_dropped = self.journal.dropped_total();
            snap
        }

        /// Registers a journal writer for one producer thread.
        pub(crate) fn writer(&self, tid: u32) -> ObsWriter {
            ObsWriter {
                writer: self.journal.writer(tid),
            }
        }

        // --- metrics hooks (always-on; all slow-path or sample-rate) ---

        pub(crate) fn on_trap(&self, ns: u64) {
            self.metrics.traps.inc();
            self.metrics.trap_ns.observe(ns);
        }

        pub(crate) fn on_edge_discovered(&self) {
            self.metrics.edges_discovered.inc();
        }

        pub(crate) fn on_site_patched(&self) {
            self.metrics.sites_patched.inc();
        }

        pub(crate) fn on_reencode(&self, applied: bool, cost: u64) {
            self.metrics.reencodes.inc();
            self.metrics.reencode_cost.observe(cost);
            if !applied {
                self.metrics.reencode_aborts.inc();
            }
        }

        pub(crate) fn on_migration(&self) {
            self.metrics.migrations.inc();
        }

        pub(crate) fn on_cc_overflow(&self) {
            self.metrics.cc_overflows.inc();
        }

        pub(crate) fn on_sample(&self, cc_depth: u32, id: u64) {
            self.metrics.samples.inc();
            self.metrics.cc_depth.observe(u64::from(cc_depth));
            self.metrics.sampled_ids.observe(id);
        }

        pub(crate) fn on_profiler_sample(&self, cc_depth: u32, id: u64, weight: u64) {
            self.metrics.profiler_samples.inc();
            self.metrics.profiler_sample_weight.add(weight);
            self.metrics.cc_depth.observe(u64::from(cc_depth));
            self.metrics.sampled_ids.observe(id);
        }

        pub(crate) fn on_warm_start(&self, seeded: u64, pruned: u64) {
            self.metrics.warm_seeded_edges.add(seeded);
            self.metrics.warm_pruned_edges.add(pruned);
        }

        /// Records the compiled dispatch table's shape after a mutation:
        /// `occupied` allocated slots over a `span`-wide site-id range.
        pub(crate) fn record_dispatch(&self, occupied: u64, span: u64) {
            self.metrics.record_dispatch(occupied, span);
        }

        // --- degraded-mode hooks (fault injection / graceful paths) ---

        pub(crate) fn on_degraded_trap(&self) {
            self.metrics.degraded_traps.inc();
        }

        pub(crate) fn on_reencode_retry(&self) {
            self.metrics.reencode_retries.inc();
        }

        pub(crate) fn on_slot_failures(&self, n: u64) {
            if n != 0 {
                self.metrics.slot_failures.add(n);
            }
        }

        pub(crate) fn on_cc_spills(&self, n: u64) {
            if n != 0 {
                self.metrics.cc_spills.add(n);
            }
        }

        pub(crate) fn on_lock_poison(&self) {
            self.metrics.lock_poisonings.inc();
        }

        // --- shared-lineage hooks (fleet tenancy) ---

        pub(crate) fn on_lineage_adopt(&self) {
            self.metrics.lineage_adoptions.inc();
        }

        pub(crate) fn on_lineage_publish(&self) {
            self.metrics.lineage_publishes.inc();
        }

        pub(crate) fn on_lineage_diverge(&self) {
            self.metrics.lineage_divergences.inc();
        }

        /// Folds a batch of per-thread inline-cache probe outcomes in.
        pub(crate) fn on_icache(&self, hits: u64, misses: u64) {
            if hits != 0 {
                self.metrics.icache_hits.add(hits);
            }
            if misses != 0 {
                self.metrics.icache_misses.add(misses);
            }
        }

        // --- superop hooks (path memoization) ---

        /// Folds a batch of per-thread superop probe outcomes in.
        pub(crate) fn on_superops(&self, hits: u64, misses: u64) {
            if hits != 0 {
                self.metrics.superop_hits.add(hits);
            }
            if misses != 0 {
                self.metrics.superop_misses.add(misses);
            }
        }

        /// Counts compiled superops dropped by a dispatch-state change.
        pub(crate) fn on_superop_invalidations(&self, n: u64) {
            if n != 0 {
                self.metrics.superop_invalidations.add(n);
            }
        }

        /// Counts one snapshot publication (a superop epoch boundary).
        pub(crate) fn on_superop_republish(&self) {
            self.metrics.superop_republishes.add(1);
        }

        /// Records the superop table's shape after a recompile:
        /// `compiled` superops out of `candidates` installed windows.
        pub(crate) fn record_superops(&self, compiled: u64, candidates: u64) {
            self.metrics.record_superops(compiled, candidates);
        }

        pub(crate) fn record_generation(
            &self,
            generation: u32,
            nodes: u32,
            edges: u32,
            max_id: u64,
            cost: u64,
        ) {
            self.metrics.record_generation(GenerationInfo {
                generation,
                nodes,
                edges,
                max_id,
                cost,
            });
        }

        /// Renders the flight-recorder postmortem document: ring contents
        /// (peeked, not drained — the live journal consumer keeps every
        /// record), the generation table, the degraded state, and the
        /// last re-encode spans, in the versioned text format
        /// `dacce-lint --postmortem` validates.
        ///
        /// `Option` matches the obs-off stub, which has nothing to dump.
        #[allow(clippy::unnecessary_wraps)]
        pub(crate) fn render_postmortem(
            &self,
            reason: &str,
            generation: u32,
            max_id: u64,
            degraded: &DegradedState,
        ) -> Option<String> {
            let batch = self.journal.peek();
            let timeline = SpanTimeline::stitch(&batch.events);
            let spans: Vec<SpanRow> = timeline
                .last(MAX_SPANS)
                .iter()
                .map(|s| SpanRow {
                    tid: s.tid.into(),
                    from: s.from_generation.into(),
                    to: s.to_generation.into(),
                    applied: s.applied.into(),
                    cost: s.cost,
                    begin_seq: s.begin_seq,
                    end_seq: s.end_seq,
                    pause_ns: s.pause_ns(),
                })
                .collect();
            let snap = self.metrics.snapshot();
            let d = degraded;
            Some(
                Postmortem {
                    reason: reason.to_string(),
                    generation: generation.into(),
                    max_id,
                    spans_declared: spans.len() as u64,
                    events_declared: batch.events.len() as u64,
                    dropped: batch.dropped,
                    degraded: [
                        d.active.into(),
                        d.trap_nodes.len() as u64,
                        d.degraded_traps,
                        d.reencode_retries,
                        d.cc_spill_events,
                        d.cc_spilled_peak,
                        d.lock_poisonings,
                        d.slot_failures,
                        d.batch_errors,
                    ],
                    generations: snap.generations,
                    spans,
                    events: batch.events,
                }
                .render(),
            )
        }
    }

    /// A per-producer journal writer. One per engine (single-threaded) or
    /// per tracker thread slot; the shared slow path has its own.
    #[derive(Debug)]
    pub(crate) struct ObsWriter {
        writer: JournalWriter,
    }

    impl ObsWriter {
        /// The fast-path gate: one relaxed load.
        #[inline]
        pub(crate) fn enabled(&self) -> bool {
            self.writer.enabled()
        }

        /// ccStack depth at which new high-water marks count as overflow.
        pub(crate) fn watermark(&self) -> u32 {
            self.writer.overflow_watermark()
        }

        pub(crate) fn trap(&self, tid: u32, site: u32, caller: u32, callee: u32) {
            self.writer.emit_for(
                tid,
                EventKind::Trap {
                    site,
                    caller,
                    callee,
                },
            );
        }

        pub(crate) fn edge_discovered(&self, tid: u32, site: u32, caller: u32, callee: u32) {
            self.writer.emit_for(
                tid,
                EventKind::EdgeDiscovered {
                    site,
                    caller,
                    callee,
                },
            );
        }

        pub(crate) fn site_patched(&self, tid: u32, site: u32, targets: u32) {
            self.writer
                .emit_for(tid, EventKind::SitePatched { site, targets });
        }

        pub(crate) fn reencode_begin(&self, generation: u32) {
            self.writer
                .emit_for(RUNTIME_TID, EventKind::ReencodeBegin { generation });
        }

        #[allow(clippy::too_many_arguments)]
        pub(crate) fn reencode_end(
            &self,
            generation: u32,
            applied: bool,
            cost: u64,
            nodes: u32,
            edges: u32,
            max_id: u64,
        ) {
            self.writer.emit_for(
                RUNTIME_TID,
                EventKind::ReencodeEnd {
                    generation,
                    applied,
                    cost,
                    nodes,
                    edges,
                    max_id,
                },
            );
        }

        #[inline]
        pub(crate) fn cc_push(&self, tid: u32, depth: u32) {
            self.writer.emit_for(tid, EventKind::CcPush { depth });
        }

        #[inline]
        pub(crate) fn cc_pop(&self, tid: u32, depth: u32) {
            self.writer.emit_for(tid, EventKind::CcPop { depth });
        }

        pub(crate) fn cc_overflow(&self, tid: u32, depth: u32) {
            self.writer.emit_for(tid, EventKind::CcOverflow { depth });
        }

        pub(crate) fn migration(&self, tid: u32, from: u32, to: u32) {
            self.writer.emit_for(tid, EventKind::Migration { from, to });
        }

        #[allow(clippy::too_many_arguments)]
        pub(crate) fn sample(
            &self,
            tid: u32,
            generation: u32,
            id: u64,
            site: u32,
            leaf: u32,
            root: u32,
            fingerprint: u32,
            weight: u32,
            depth: u32,
        ) {
            self.writer.emit_for(
                tid,
                EventKind::Sample {
                    generation,
                    id,
                    site,
                    leaf,
                    root,
                    fingerprint,
                    weight,
                    depth,
                },
            );
        }

        pub(crate) fn warm_seed(&self, seeded: u32, pruned: u32, max_id: u64) {
            self.writer.emit_for(
                RUNTIME_TID,
                EventKind::WarmSeed {
                    seeded,
                    pruned,
                    max_id,
                },
            );
        }
    }

    /// Wall-clock timer for trap-handling latency.
    pub(crate) struct TrapTimer(std::time::Instant);

    pub(crate) fn start_timer() -> TrapTimer {
        TrapTimer(std::time::Instant::now())
    }

    impl TrapTimer {
        pub(crate) fn elapsed_ns(&self) -> u64 {
            u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
        }
    }
}

#[cfg(not(feature = "obs"))]
mod imp {
    //! Zero-sized no-op stand-ins; every hook compiles to nothing.

    use crate::stats::DegradedState;

    /// Inert stand-in for the profiler sampler: never fires, so every
    /// tick is a constant branch the optimiser removes.
    #[derive(Clone, Debug, Default)]
    pub(crate) struct Sampler;

    #[allow(clippy::unused_self, dead_code)]
    impl Sampler {
        pub(crate) fn new(_stride: u64, _seed: u64, _budget: u64) -> Sampler {
            Sampler
        }
        #[inline]
        pub(crate) fn tick(&mut self) -> Option<u64> {
            None
        }
        pub(crate) fn is_enabled(&self) -> bool {
            false
        }
        pub(crate) fn effective_stride(&self) -> u64 {
            0
        }
        pub(crate) fn taken(&self) -> u64 {
            0
        }
        pub(crate) fn remaining(&self) -> u64 {
            0
        }
        pub(crate) fn skip(&mut self, _n: u64) {}
    }

    /// ccStack fingerprint stub (no obs layer to correlate against).
    pub(crate) fn fingerprint64(_values: impl IntoIterator<Item = u64>) -> u32 {
        0
    }

    /// Inert observability placeholder (the `obs` feature is disabled).
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Observability;

    impl Observability {
        pub(crate) fn from_settings(_ring_capacity: usize, _overflow_watermark: u32) -> Self {
            Observability
        }
        pub(crate) fn writer(&self, _tid: u32) -> ObsWriter {
            ObsWriter
        }
        pub(crate) fn render_postmortem(
            &self,
            _reason: &str,
            _generation: u32,
            _max_id: u64,
            _degraded: &DegradedState,
        ) -> Option<String> {
            None
        }
        pub(crate) fn on_profiler_sample(&self, _cc_depth: u32, _id: u64, _weight: u64) {}
        pub(crate) fn on_trap(&self, _ns: u64) {}
        pub(crate) fn on_edge_discovered(&self) {}
        pub(crate) fn on_site_patched(&self) {}
        pub(crate) fn on_reencode(&self, _applied: bool, _cost: u64) {}
        pub(crate) fn on_migration(&self) {}
        pub(crate) fn on_cc_overflow(&self) {}
        pub(crate) fn on_sample(&self, _cc_depth: u32, _id: u64) {}
        pub(crate) fn on_warm_start(&self, _seeded: u64, _pruned: u64) {}
        pub(crate) fn record_dispatch(&self, _occupied: u64, _span: u64) {}
        pub(crate) fn on_degraded_trap(&self) {}
        pub(crate) fn on_reencode_retry(&self) {}
        pub(crate) fn on_slot_failures(&self, _n: u64) {}
        pub(crate) fn on_cc_spills(&self, _n: u64) {}
        pub(crate) fn on_lock_poison(&self) {}
        pub(crate) fn on_lineage_adopt(&self) {}
        pub(crate) fn on_lineage_publish(&self) {}
        pub(crate) fn on_lineage_diverge(&self) {}
        pub(crate) fn on_icache(&self, _hits: u64, _misses: u64) {}
        pub(crate) fn on_superops(&self, _hits: u64, _misses: u64) {}
        pub(crate) fn on_superop_invalidations(&self, _n: u64) {}
        pub(crate) fn on_superop_republish(&self) {}
        pub(crate) fn record_superops(&self, _compiled: u64, _candidates: u64) {}
        pub(crate) fn record_generation(
            &self,
            _generation: u32,
            _nodes: u32,
            _edges: u32,
            _max_id: u64,
            _cost: u64,
        ) {
        }
    }

    #[derive(Clone, Copy, Debug, Default)]
    pub(crate) struct ObsWriter;

    #[allow(clippy::unused_self, clippy::too_many_arguments)]
    impl ObsWriter {
        #[inline]
        pub(crate) fn enabled(&self) -> bool {
            false
        }
        pub(crate) fn watermark(&self) -> u32 {
            u32::MAX
        }
        pub(crate) fn trap(&self, _tid: u32, _site: u32, _caller: u32, _callee: u32) {}
        pub(crate) fn edge_discovered(&self, _tid: u32, _site: u32, _caller: u32, _callee: u32) {}
        pub(crate) fn site_patched(&self, _tid: u32, _site: u32, _targets: u32) {}
        pub(crate) fn reencode_begin(&self, _generation: u32) {}
        pub(crate) fn reencode_end(
            &self,
            _generation: u32,
            _applied: bool,
            _cost: u64,
            _nodes: u32,
            _edges: u32,
            _max_id: u64,
        ) {
        }
        #[inline]
        pub(crate) fn cc_push(&self, _tid: u32, _depth: u32) {}
        #[inline]
        pub(crate) fn cc_pop(&self, _tid: u32, _depth: u32) {}
        pub(crate) fn cc_overflow(&self, _tid: u32, _depth: u32) {}
        pub(crate) fn migration(&self, _tid: u32, _from: u32, _to: u32) {}
        pub(crate) fn sample(
            &self,
            _tid: u32,
            _generation: u32,
            _id: u64,
            _site: u32,
            _leaf: u32,
            _root: u32,
            _fingerprint: u32,
            _weight: u32,
            _depth: u32,
        ) {
        }
        pub(crate) fn warm_seed(&self, _seeded: u32, _pruned: u32, _max_id: u64) {}
    }

    pub(crate) struct TrapTimer;

    pub(crate) fn start_timer() -> TrapTimer {
        TrapTimer
    }

    impl TrapTimer {
        pub(crate) fn elapsed_ns(&self) -> u64 {
            0
        }
    }
}

pub use imp::Observability;
pub(crate) use imp::{fingerprint64, start_timer, ObsWriter, Sampler};
