//! Observability glue: the engine's handle on `dacce-obs`.
//!
//! [`Observability`] bundles an event [`Journal`] and a [`MetricsRegistry`]
//! behind `Arc`s. Metrics are always collected, into the registry: the one
//! store of the runtime's counts (see `DESIGN.md`). Journaling
//! starts disabled and is toggled at runtime; every fast-path emission
//! site checks its [`dacce_obs::JournalWriter`]'s enable flag (one relaxed
//! load) before it builds an event.

use std::sync::Arc;

use dacce_obs::postmortem::{Postmortem, SpanRow, MAX_SPANS};
use dacce_obs::{Journal, JournalConfig, MetricsRegistry, MetricsSnapshot, SpanTimeline};

use crate::stats::DegradedState;

/// Thread id stamped on events emitted by the shared slow path when no
/// specific thread is acting (re-encode cores, warm starts).
pub(crate) const RUNTIME_TID: u32 = u32::MAX;

/// Shared observability handle: the event journal plus the metrics
/// registry. Cloning shares both (the clones observe the same run).
#[derive(Clone, Debug)]
pub struct Observability {
    journal: Arc<Journal>,
    metrics: Arc<MetricsRegistry>,
}

impl Observability {
    /// Creates a handle with explicit journal parameters. Journaling
    /// starts disabled; metrics are always collected.
    #[must_use]
    pub fn with_config(config: JournalConfig) -> Self {
        Observability {
            journal: Arc::new(Journal::new(config)),
            metrics: Arc::new(MetricsRegistry::default()),
        }
    }

    /// The event journal: toggle it with [`Journal::set_enabled`], drain
    /// it with [`Journal::drain`].
    #[must_use]
    pub fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }

    /// The metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// A point-in-time copy of every metric, with the journal's drop
    /// counter folded in.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.journal_dropped = self.journal.dropped_total();
        snap
    }

    /// Renders the flight-recorder postmortem document: ring contents
    /// (peeked, not drained — the live journal consumer keeps every
    /// record), the generation table, the degraded state, and the
    /// last re-encode spans, in the versioned text format
    /// `dacce-lint --postmortem` validates.
    pub(crate) fn render_postmortem(
        &self,
        reason: &str,
        generation: u32,
        max_id: u64,
        degraded: &DegradedState,
    ) -> String {
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
        .render()
    }
}

#[cfg(test)]
mod tests {
    use dacce_obs::{events_from_json, events_to_json};

    use crate::config::DacceConfig;
    use crate::tracker::Tracker;

    /// The `events_to_json` dump of a journaled tracker run: traps, edge
    /// discoveries, patches, ccStack pushes and pops, profiler samples, a
    /// re-encode and the migrations it causes.
    fn recorded_dump() -> String {
        let tracker = Tracker::with_config(DacceConfig {
            profiler_stride: 4,
            ..DacceConfig::default()
        });
        let journal = tracker.observability().journal();
        journal.set_enabled(true);
        let main_fn = tracker.define_function("main");
        let f = tracker.define_function("f");
        let sites = [tracker.define_call_site(), tracker.define_call_site()];
        let th = tracker.register_thread(main_fn);
        let drive = |depth: usize| {
            let _outer = th.call(sites[0], f);
            let guards: Vec<_> = (0..depth).map(|_| th.call(sites[1], f)).collect();
            drop(guards);
        };
        drive(3);
        assert!(
            tracker.request_reencode(),
            "the discovered graph re-encodes"
        );
        drive(2);
        let events = journal.drain().events;
        let has = |name: &str| events.iter().any(|e| e.kind.name() == name);
        for kind in ["trap", "reencode_end", "migration", "cc_push", "sample"] {
            assert!(has(kind), "the run journals a `{kind}` event");
        }
        let text = events_to_json(&events);
        assert_eq!(events_from_json(&text), Ok(events));
        text
    }

    /// Every truncation, single-byte deletion and single-byte replacement
    /// of a recorded journal dump parses or fails with a description.
    #[test]
    fn every_single_byte_mutation_of_a_journal_dump_is_a_typed_error() {
        // u64::MAX + 1 overflows every numeric field it lands in.
        const OVERFLOW: &str = "18446744073709551616";
        const SUBS: [&str; 9] = ["é", "9", ",", ":", "\"", "{", "}", "\n", OVERFLOW];
        let text = recorded_dump();
        for i in 0..text.len() {
            let _ = events_from_json(&text[..i]);
            let _ = events_from_json(&format!("{}{}", &text[..i], &text[i + 1..]));
            for c in SUBS {
                let _ = events_from_json(&format!("{}{c}{}", &text[..i], &text[i + 1..]));
            }
        }
    }
}
