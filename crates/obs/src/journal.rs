//! The event journal: per-writer rings, global sequencing, merged drains.
//!
//! A [`Journal`] owns one [`EventRing`] per writer that has recorded an
//! event and a global sequence counter that gives every record a strict
//! total order across threads. Emission is gated by a runtime flag read
//! with a relaxed load; when the flag is off, [`JournalWriter::emit`]
//! returns before constructing anything. A writer allocates its ring on
//! its first recorded event, so registering writers while the journal is
//! off costs no ring memory. Draining collects each ring's published
//! records and merges them by sequence number into one ordered stream.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use dacce_sync::{AtomicBool, AtomicU64, AtomicUsize, Mutex, Ordering};

use crate::event::{EventKind, EventRecord};
use crate::ring::EventRing;

/// ccStack depth at which a thread's new high-water mark emits
/// `CcOverflow` (observability only; no behaviour changes).
pub const CC_OVERFLOW_WATERMARK: u32 = 48;

/// Journal construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct JournalConfig {
    /// Slots per writer ring once its writer records (rounded up to a
    /// power of two, min 8).
    pub ring_capacity: usize,
}

impl Default for JournalConfig {
    fn default() -> JournalConfig {
        JournalConfig {
            ring_capacity: 4096,
        }
    }
}

/// A merged drain result: records ordered by global sequence number plus
/// the number of records lost to ring overwrites since the last drain.
#[derive(Clone, Debug, Default)]
pub struct JournalBatch {
    /// Drained records, ascending by `seq`.
    pub events: Vec<EventRecord>,
    /// Records overwritten before this drain could read them.
    pub dropped: u64,
    /// The same drops attributed to the writer thread whose ring lost
    /// them, `(tid, dropped)` ascending by tid, zero-loss threads
    /// omitted. Overwrites happen inside one producer's private ring, so
    /// unlike the merged total the attribution is exact even when the
    /// drain races the producers.
    pub dropped_by_thread: Vec<(u32, u64)>,
}

/// Lock-free event journal shared by the runtime and its threads.
pub struct Journal {
    enabled: AtomicBool,
    seq: AtomicU64,
    dropped: AtomicU64,
    writers: AtomicUsize,
    epoch: Instant,
    config: JournalConfig,
    /// `(tid, ring)` per writer that has recorded an event. Writers
    /// publish their ring here on first use; drainers reach rings only
    /// through this lock.
    rings: Mutex<Vec<(u32, Arc<EventRing>)>>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("enabled", &self.enabled())
            .field("config", &self.config)
            .field("writers", &self.writer_count())
            .field("rings", &self.ring_count())
            .finish_non_exhaustive()
    }
}

impl Journal {
    /// Creates a disabled journal; call [`Journal::set_enabled`] to start
    /// recording.
    #[must_use]
    pub fn new(config: JournalConfig) -> Journal {
        Journal {
            enabled: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            writers: AtomicUsize::new(0),
            epoch: Instant::now(),
            config,
            rings: Mutex::new(Vec::new()),
        }
    }

    /// Whether emission is currently on (relaxed load — the fast-path
    /// gate).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns emission on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The configuration the journal was built with.
    #[must_use]
    pub fn config(&self) -> JournalConfig {
        self.config
    }

    /// Total records lost to ring overwrites across all drains so far.
    #[must_use]
    pub fn dropped_total(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Writers registered so far, whether or not they have recorded.
    #[must_use]
    pub fn writer_count(&self) -> usize {
        self.writers.load(Ordering::Relaxed)
    }

    /// Rings allocated so far: one per writer that has recorded an event.
    #[must_use]
    pub fn ring_count(&self) -> usize {
        self.rings.lock().len()
    }

    /// The thread ids of the writers that own a ring, ascending (a tid
    /// registered more than once appears once per ring).
    #[must_use]
    pub fn ring_owners(&self) -> Vec<u32> {
        let mut tids: Vec<u32> = self.rings.lock().iter().map(|&(tid, _)| tid).collect();
        tids.sort_unstable();
        tids
    }

    /// Registers a new single-producer writer. Its ring is allocated on
    /// its first recorded event, not here.
    #[must_use]
    pub fn writer(self: &Arc<Self>, tid: u32) -> JournalWriter {
        self.writers.fetch_add(1, Ordering::Relaxed);
        JournalWriter {
            journal: Arc::clone(self),
            ring: OnceLock::new(),
            tid,
        }
    }

    /// Allocates a ring for writer `tid` and makes it visible to drains.
    fn publish_ring(&self, tid: u32) -> Arc<EventRing> {
        let ring = Arc::new(EventRing::new(self.config.ring_capacity));
        self.rings.lock().push((tid, Arc::clone(&ring)));
        ring
    }

    /// Drains every ring and merges the records into one stream ordered
    /// by global sequence number. Ring-overwrite losses are reported both
    /// as a merged total and attributed to the writer thread that owned
    /// the overwritten ring.
    #[must_use]
    pub fn drain(&self) -> JournalBatch {
        let batch = self.collect(EventRing::drain_into);
        self.dropped.fetch_add(batch.dropped, Ordering::Relaxed);
        batch
    }

    /// Reads what a drain would return without consuming it: cursors and
    /// the drop accounting are untouched, so the owner of the live drain
    /// still sees every record. This is the flight recorder's view.
    #[must_use]
    pub fn peek(&self) -> JournalBatch {
        self.collect(EventRing::peek_into)
    }

    /// Reads every allocated ring with `read` (which appends the ring's
    /// records and returns its losses) and merges the results.
    fn collect(&self, read: impl Fn(&EventRing, &mut Vec<EventRecord>) -> u64) -> JournalBatch {
        let rings: Vec<(u32, Arc<EventRing>)> = self.rings.lock().clone();
        let mut events = Vec::new();
        let mut dropped = 0;
        let mut dropped_by_thread: Vec<(u32, u64)> = Vec::new();
        for (tid, ring) in rings {
            let lost = read(&ring, &mut events);
            if lost > 0 {
                dropped += lost;
                // A tid can own several rings (writer re-registration);
                // fold its losses into one entry.
                match dropped_by_thread.iter_mut().find(|(t, _)| *t == tid) {
                    Some((_, d)) => *d += lost,
                    None => dropped_by_thread.push((tid, lost)),
                }
            }
        }
        dropped_by_thread.sort_unstable_by_key(|&(tid, _)| tid);
        events.sort_unstable_by_key(|e| e.seq);
        JournalBatch {
            events,
            dropped,
            dropped_by_thread,
        }
    }
}

/// A handle for one producer thread. The first event it records
/// allocates its private ring and publishes it in the journal; until then
/// the handle holds no ring. Emission is a relaxed-load check plus a
/// handful of atomic stores when enabled, and a single relaxed load when
/// disabled.
pub struct JournalWriter {
    journal: Arc<Journal>,
    ring: OnceLock<Arc<EventRing>>,
    tid: u32,
}

impl std::fmt::Debug for JournalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournalWriter")
            .field("tid", &self.tid)
            .field("ring", &self.ring.get().is_some())
            .finish_non_exhaustive()
    }
}

impl JournalWriter {
    /// Whether the journal is currently recording (relaxed load).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.journal.enabled()
    }

    /// The thread id stamped on this writer's records.
    #[must_use]
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Records an event for this writer's thread, if recording is on.
    pub fn emit(&self, kind: EventKind) {
        if !self.enabled() {
            return;
        }
        self.emit_always(self.tid, kind);
    }

    /// Records an event attributed to an explicit thread (used by the
    /// shared slow path, which acts on behalf of the trapping thread).
    pub fn emit_for(&self, tid: u32, kind: EventKind) {
        if !self.enabled() {
            return;
        }
        self.emit_always(tid, kind);
    }

    fn emit_always(&self, tid: u32, kind: EventKind) {
        // Allocate before taking `seq`: the first event's allocation then
        // never widens the gap between taking a number and publishing it.
        let ring = self
            .ring
            .get_or_init(|| self.journal.publish_ring(self.tid));
        let seq = self.journal.seq.fetch_add(1, Ordering::Relaxed);
        let nanos = u64::try_from(self.journal.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        ring.push(&EventRecord {
            seq,
            nanos,
            tid,
            kind,
        });
    }
}

/// Aggregate counters reconstructed by replaying a journal stream.
///
/// Field names match their `DacceStats` counterparts where one exists, so
/// a journal captured with large-enough rings can be checked against the
/// engine's own accounting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JournalAggregates {
    /// `Trap` events (== `DacceStats::traps` when nothing was dropped).
    pub traps: u64,
    /// `EdgeDiscovered` events.
    pub edges_discovered: u64,
    /// `SitePatched` events.
    pub sites_patched: u64,
    /// `ReencodeEnd` events, applied or not (== `DacceStats::reencodes`).
    pub reencodes: u64,
    /// Sum of `ReencodeEnd` costs (== `DacceStats::reencode_cost`).
    pub reencode_cost: u64,
    /// `ReencodeEnd` events with `applied == false`
    /// (== `DacceStats::overflow_aborts`).
    pub overflow_aborts: u64,
    /// `CcPush` events.
    pub cc_pushes: u64,
    /// `CcPop` events.
    pub cc_pops: u64,
    /// `CcOverflow` events.
    pub cc_overflows: u64,
    /// `Migration` events.
    pub migrations: u64,
    /// Edges seeded by `WarmSeed` events.
    pub warm_seeded: u64,
    /// Edges pruned by `WarmSeed` events.
    pub warm_pruned: u64,
    /// Highest ccStack depth seen in any ccStack event.
    pub max_cc_depth: u32,
    /// `Sample` events (profiler captures that reached the journal).
    pub samples: u64,
    /// Sum of `Sample` weights — the events of execution the samples
    /// stand in for.
    pub sample_weight: u64,
    /// Ring-overwrite losses attributed to the thread whose ring lost
    /// them, `(tid, dropped)` ascending by tid. Empty when replaying a
    /// bare event stream; populated by [`JournalAggregates::replay_batch`].
    pub dropped_by_thread: Vec<(u32, u64)>,
}

impl JournalAggregates {
    /// Replays a drained batch: aggregates the events and carries over
    /// the batch's per-thread drop attribution.
    #[must_use]
    pub fn replay_batch(batch: &JournalBatch) -> JournalAggregates {
        let mut agg = JournalAggregates::replay(&batch.events);
        agg.dropped_by_thread.clone_from(&batch.dropped_by_thread);
        agg
    }

    /// Replays a stream of records into aggregate counters.
    #[must_use]
    pub fn replay(events: &[EventRecord]) -> JournalAggregates {
        let mut agg = JournalAggregates::default();
        for ev in events {
            match ev.kind {
                EventKind::Trap { .. } => agg.traps += 1,
                EventKind::EdgeDiscovered { .. } => agg.edges_discovered += 1,
                EventKind::SitePatched { .. } => agg.sites_patched += 1,
                EventKind::ReencodeBegin { .. } => {}
                EventKind::ReencodeEnd { applied, cost, .. } => {
                    agg.reencodes += 1;
                    agg.reencode_cost += cost;
                    if !applied {
                        agg.overflow_aborts += 1;
                    }
                }
                EventKind::CcPush { depth } => {
                    agg.cc_pushes += 1;
                    agg.max_cc_depth = agg.max_cc_depth.max(depth);
                }
                EventKind::CcPop { depth } => {
                    agg.cc_pops += 1;
                    agg.max_cc_depth = agg.max_cc_depth.max(depth);
                }
                EventKind::CcOverflow { depth } => {
                    agg.cc_overflows += 1;
                    agg.max_cc_depth = agg.max_cc_depth.max(depth);
                }
                EventKind::Migration { .. } => agg.migrations += 1,
                EventKind::WarmSeed { seeded, pruned, .. } => {
                    agg.warm_seeded += u64::from(seeded);
                    agg.warm_pruned += u64::from(pruned);
                }
                EventKind::Sample { weight, depth, .. } => {
                    agg.samples += 1;
                    agg.sample_weight += u64::from(weight);
                    agg.max_cc_depth = agg.max_cc_depth.max(depth);
                }
            }
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_journal_emits_nothing() {
        let journal = Arc::new(Journal::new(JournalConfig::default()));
        let writer = journal.writer(0);
        assert!(!writer.enabled());
        writer.emit(EventKind::CcPush { depth: 1 });
        writer.emit_for(9, EventKind::CcPop { depth: 0 });
        // A writer that never recorded holds no ring.
        assert_eq!(journal.writer_count(), 1);
        assert_eq!(journal.ring_count(), 0);
        for batch in [journal.peek(), journal.drain()] {
            assert!(batch.events.is_empty());
            assert_eq!(batch.dropped, 0);
        }
    }

    #[test]
    fn multi_writer_drain_is_seq_ordered() {
        let journal = Arc::new(Journal::new(JournalConfig::default()));
        // One writer registered before recording starts, one after.
        let w0 = journal.writer(0);
        journal.set_enabled(true);
        let w1 = journal.writer(1);
        for i in 0..50u32 {
            if i % 3 == 0 {
                w0.emit(EventKind::CcPush { depth: i });
            } else {
                w1.emit(EventKind::CcPop { depth: i });
            }
        }
        assert_eq!(journal.ring_owners(), vec![0, 1]);
        let batch = journal.drain();
        assert_eq!(batch.events.len(), 50);
        assert_eq!(batch.dropped, 0);
        assert!(batch.events.windows(2).all(|w| w[0].seq < w[1].seq));
        let tids: Vec<u32> = batch.events.iter().map(|e| e.tid).collect();
        let expected: Vec<u32> = (0..50u32).map(|i| u32::from(i % 3 != 0)).collect();
        assert_eq!(tids, expected);
    }

    #[test]
    fn toggling_enabled_gates_emission() {
        let journal = Arc::new(Journal::new(JournalConfig::default()));
        let writer = journal.writer(3);
        writer.emit(EventKind::CcPush { depth: 1 });
        journal.set_enabled(true);
        writer.emit(EventKind::CcPush { depth: 2 });
        journal.set_enabled(false);
        writer.emit(EventKind::CcPush { depth: 3 });
        journal.set_enabled(true);
        writer.emit(EventKind::CcPush { depth: 4 });
        // Recording again reuses the ring the first recorded event made.
        assert_eq!(journal.ring_count(), 1);
        let kinds: Vec<EventKind> = journal.drain().events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::CcPush { depth: 2 },
                EventKind::CcPush { depth: 4 }
            ]
        );
    }

    #[test]
    fn drops_are_attributed_to_the_overflowing_thread() {
        let journal = Arc::new(Journal::new(JournalConfig { ring_capacity: 8 }));
        let quiet = journal.writer(1);
        let noisy = journal.writer(2);
        noisy.emit(EventKind::CcPop { depth: 0 });
        journal.set_enabled(true);
        for i in 0..4u32 {
            quiet.emit(EventKind::CcPush { depth: i });
        }
        for i in 0..40u32 {
            noisy.emit(EventKind::CcPop { depth: i });
        }
        assert_eq!(journal.peek().dropped_by_thread, vec![(2, 32)]);
        let batch = journal.drain();
        assert_eq!(batch.dropped, 32);
        assert_eq!(batch.dropped_by_thread, vec![(2, 32)]);
        let agg = JournalAggregates::replay_batch(&batch);
        assert_eq!(agg.dropped_by_thread, vec![(2, 32)]);
        assert_eq!(agg.cc_pushes, 4);
        assert_eq!(agg.cc_pops, 8);
        // A clean follow-up drain attributes nothing.
        assert!(journal.drain().dropped_by_thread.is_empty());
    }

    #[test]
    fn sample_events_aggregate_count_and_weight() {
        let journal = Arc::new(Journal::new(JournalConfig::default()));
        journal.set_enabled(true);
        let writer = journal.writer(0);
        for i in 0..5u64 {
            writer.emit(EventKind::Sample {
                generation: 1,
                id: i,
                site: 2,
                leaf: 3,
                root: 0,
                fingerprint: 7,
                weight: 100,
                depth: u32::try_from(i).unwrap(),
            });
        }
        let agg = JournalAggregates::replay(&journal.drain().events);
        assert_eq!(agg.samples, 5);
        assert_eq!(agg.sample_weight, 500);
        assert_eq!(agg.max_cc_depth, 4);
    }

    #[test]
    fn replay_matches_emitted_counts() {
        let journal = Arc::new(Journal::new(JournalConfig {
            ring_capacity: 1 << 14,
        }));
        journal.set_enabled(true);
        let writer = journal.writer(0);
        for i in 0..10u32 {
            writer.emit(EventKind::Trap {
                site: i,
                caller: 0,
                callee: i + 1,
            });
            writer.emit(EventKind::EdgeDiscovered {
                site: i,
                caller: 0,
                callee: i + 1,
            });
        }
        writer.emit(EventKind::ReencodeBegin { generation: 1 });
        writer.emit(EventKind::ReencodeEnd {
            generation: 2,
            applied: true,
            cost: 77,
            nodes: 11,
            edges: 10,
            max_id: 40,
        });
        writer.emit(EventKind::ReencodeEnd {
            generation: 2,
            applied: false,
            cost: 5,
            nodes: 0,
            edges: 0,
            max_id: 0,
        });
        let batch = journal.drain();
        let agg = JournalAggregates::replay(&batch.events);
        assert_eq!(agg.traps, 10);
        assert_eq!(agg.edges_discovered, 10);
        assert_eq!(agg.reencodes, 2);
        assert_eq!(agg.reencode_cost, 82);
        assert_eq!(agg.overflow_aborts, 1);
    }
}
