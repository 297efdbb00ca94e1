//! Metrics registry: sharded counters, log₂-bucketed histograms, and the
//! per-generation dictionary table.
//!
//! The registry is the runtime's one store of every count it keeps: the
//! engine's `DacceStats` reads traps, re-encodes, samples, inline-cache and
//! superop tallies and the degraded counters back from here instead of
//! keeping copies. Counters are striped across cache-line-padded shards;
//! each thread hashes to a shard via a thread-local index, so concurrent
//! increments rarely contend and a read never takes a lock. Histograms
//! bucket by `floor(log2(v)) + 1`, which covers the full `u64` range in 65
//! buckets — good enough for latencies, costs and depths that span orders
//! of magnitude.

use std::time::Duration;

use dacce_sync::{AtomicU64, AtomicUsize, Mutex, Ordering};

const COUNTER_SHARDS: usize = 8;
/// Bucket `i` counts values whose `floor(log2(v)) + 1 == i`; bucket 0 is
/// exactly zero. Upper bound of bucket `i > 0` is `2^i - 1`.
const HISTOGRAM_BUCKETS: usize = 65;

#[repr(align(64))]
struct PaddedU64(AtomicU64);

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD_INDEX: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
}

/// A monotonically increasing counter striped across padded shards.
pub struct Counter {
    shards: [PaddedU64; COUNTER_SHARDS],
}

impl Default for Counter {
    fn default() -> Counter {
        Counter {
            shards: std::array::from_fn(|_| PaddedU64(AtomicU64::new(0))),
        }
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

impl Counter {
    /// Adds `n` on this thread's shard.
    pub fn add(&self, n: u64) {
        let idx = SHARD_INDEX.with(|i| *i);
        self.shards[idx].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Sums all shards.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A lock-free histogram with 65 log₂ buckets plus count/sum/max.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram(n={})", self.count.load(Ordering::Relaxed))
    }
}

/// Adds `n` to `counter`, skipping the atomic when there is nothing to add.
fn add_nonzero(counter: &Counter, n: u64) {
    if n != 0 {
        counter.add(n);
    }
}

/// Bucket index for a value: 0 for 0, else `floor(log2(v)) + 1`.
fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

impl Histogram {
    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy of the histogram.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A plain-data copy of a [`Histogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Per-bucket counts, index as in [`HistogramSnapshot::bucket_upper_bound`].
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Inclusive upper bound of bucket `i` (0, 1, 3, 7, 15, …).
    #[must_use]
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Mean observed value, or 0 with no observations.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (0.0..=1.0) from bucket upper bounds.
    #[must_use]
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_sign_loss,
        clippy::cast_possible_truncation
    )]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank.max(1) {
                return Self::bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty `(upper_bound, count)` pairs, ascending.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Self::bucket_upper_bound(i), n))
            .collect()
    }

    /// Folds another snapshot in: counts, sums and per-bucket tallies
    /// add; `max` takes the larger. Merging is exact because every
    /// snapshot uses the same log₂ bucket layout.
    pub fn absorb(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// An ASCII sketch of the distribution (one char per populated
    /// bucket, height scaled to the fullest bucket).
    #[must_use]
    pub fn sketch(&self) -> String {
        const LEVELS: &[u8] = b" .:-=+*#%@";
        let peak = self.buckets.iter().copied().max().unwrap_or(0);
        if peak == 0 {
            return String::from("(empty)");
        }
        let lo = self.buckets.iter().position(|&n| n > 0).unwrap_or(0);
        let hi = self
            .buckets
            .iter()
            .rposition(|&n| n > 0)
            .unwrap_or(self.buckets.len() - 1);
        self.buckets[lo..=hi]
            .iter()
            .map(|&n| {
                #[allow(clippy::cast_possible_truncation)]
                let level = ((n * (LEVELS.len() as u64 - 1)).div_ceil(peak)) as usize;
                LEVELS[level] as char
            })
            .collect()
    }
}

/// One row of the per-generation dictionary table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GenerationInfo {
    /// `gTimeStamp` of the encoding generation.
    pub generation: u32,
    /// Nodes in the encoded call graph.
    pub nodes: u32,
    /// Edges in the encoded call graph.
    pub edges: u32,
    /// Maximum context id of the generation's encoding.
    pub max_id: u64,
    /// Abstract cost charged to produce the generation (0 for the initial
    /// attach and warm-start generations).
    pub cost: u64,
}

/// How the runtime consumed the `u64` id space: the largest id the
/// current encoding can produce vs. the type's headroom.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IdHeadroom {
    /// `maxID` of the current encoding generation.
    pub max_id: u64,
    /// Bits needed to represent `max_id`.
    pub bits_used: u32,
    /// Bits to spare before a `u64` context id would overflow.
    pub bits_spare: u32,
}

impl IdHeadroom {
    fn for_max_id(max_id: u64) -> IdHeadroom {
        let bits_used = 64 - max_id.leading_zeros();
        IdHeadroom {
            max_id,
            bits_used,
            bits_spare: 64 - bits_used,
        }
    }
}

/// The registry of runtime health metrics, shared via `Arc`.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// New call edges added to the dynamic graph.
    pub edges_discovered: Counter,
    /// Call sites (re)patched.
    pub sites_patched: Counter,
    /// Re-encode attempts aborted on overflow.
    pub reencode_aborts: Counter,
    /// Threads lazily migrated across generations.
    pub migrations: Counter,
    /// New ccStack high-water marks at or above the watermark.
    pub cc_overflows: Counter,
    /// Context samples taken.
    pub samples: Counter,
    /// Continuous-profiler samples captured.
    pub profiler_samples: Counter,
    /// Total weight of continuous-profiler samples (events represented).
    pub profiler_sample_weight: Counter,
    /// Warm-start edges seeded.
    pub warm_seeded_edges: Counter,
    /// Warm-start edges pruned for id budget.
    pub warm_pruned_edges: Counter,
    /// Per-thread indirect-call inline-cache hits.
    pub icache_hits: Counter,
    /// Per-thread indirect-call inline-cache misses.
    pub icache_misses: Counter,
    /// Superop windows executed as memoized net effects.
    pub superop_hits: Counter,
    /// Superop probes that fell back to the per-event loop.
    pub superop_misses: Counter,
    /// Compiled superops dropped on republish (epoch invalidation).
    pub superop_invalidations: Counter,
    /// Snapshot publications — every one is a superop epoch boundary, so
    /// `superop_invalidations / superop_republishes` is the table churn.
    pub superop_republishes: Counter,
    /// Traps taken on degraded (trap-everything) nodes after the engine
    /// gave up re-encoding.
    pub degraded_traps: Counter,
    /// Re-encode attempts re-armed after an abort (rollback + backoff).
    pub reencode_retries: Counter,
    /// ccStack watermark-shedding (spill) events.
    pub cc_spills: Counter,
    /// Slow-path lock acquisitions that recovered from poisoning.
    pub lock_poisonings: Counter,
    /// Shared-lineage generations adopted instead of re-encoding locally.
    pub lineage_adoptions: Counter,
    /// Locally applied re-encodings published into a shared lineage.
    pub lineage_publishes: Counter,
    /// Tenants diverged (copy-on-write) off their shared lineage.
    pub lineage_divergences: Counter,
    /// Trap-handling latency in nanoseconds; its count is the number of
    /// cold-start traps handled.
    pub trap_ns: Histogram,
    /// Abstract cost per re-encode attempt; its count is the number of
    /// attempts (applied or aborted), its sum their total cost.
    pub reencode_cost: Histogram,
    /// ccStack depth at sample points.
    pub cc_depth: Histogram,
    /// Context ids observed at sample points (id-space consumption).
    pub sampled_ids: Histogram,
    max_id: AtomicU64,
    dispatch_slots: AtomicU64,
    dispatch_span: AtomicU64,
    slot_failures: AtomicU64,
    superop_compiled: AtomicU64,
    superop_candidates: AtomicU64,
    generations: Mutex<Vec<GenerationInfo>>,
}

impl MetricsRegistry {
    /// Counts one handled trap and its wall-clock latency.
    pub fn on_trap(&self, took: Duration) {
        self.trap_ns
            .observe(u64::try_from(took.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Counts one re-encode attempt costing `cost` units; `applied` is
    /// false for an aborted one.
    pub fn on_reencode(&self, applied: bool, cost: u64) {
        self.reencode_cost.observe(cost);
        if !applied {
            self.reencode_aborts.inc();
        }
    }

    /// Counts one context sample of ccStack depth `cc_depth` and id `id`.
    pub fn on_sample(&self, cc_depth: u32, id: u64) {
        self.samples.inc();
        self.cc_depth.observe(u64::from(cc_depth));
        self.sampled_ids.observe(id);
    }

    /// Counts one continuous-profiler sample standing for `weight` events.
    pub fn on_profiler_sample(&self, cc_depth: u32, id: u64, weight: u64) {
        self.profiler_samples.inc();
        self.profiler_sample_weight.add(weight);
        self.cc_depth.observe(u64::from(cc_depth));
        self.sampled_ids.observe(id);
    }

    /// Counts the edges a warm start seeded and pruned.
    pub fn on_warm_start(&self, seeded: u64, pruned: u64) {
        self.warm_seeded_edges.add(seeded);
        self.warm_pruned_edges.add(pruned);
    }

    /// Folds a batch of per-thread inline-cache probe outcomes in.
    pub fn on_icache(&self, hits: u64, misses: u64) {
        add_nonzero(&self.icache_hits, hits);
        add_nonzero(&self.icache_misses, misses);
    }

    /// Folds a batch of per-thread superop probe outcomes in.
    pub fn on_superops(&self, hits: u64, misses: u64) {
        add_nonzero(&self.superop_hits, hits);
        add_nonzero(&self.superop_misses, misses);
    }

    /// Records the compiled dispatch table's shape: `occupied` allocated
    /// slots over a `span`-wide site-id index range, and the `refused`
    /// slot allocations the table counted (gauges, last wins).
    pub fn record_dispatch(&self, occupied: u64, span: u64, refused: u64) {
        self.dispatch_slots.store(occupied, Ordering::Relaxed);
        self.dispatch_span.store(span, Ordering::Relaxed);
        self.slot_failures.store(refused, Ordering::Relaxed);
    }

    /// Dispatch-slot allocations refused by an injected cap (gauge).
    #[must_use]
    pub fn slot_failures(&self) -> u64 {
        self.slot_failures.load(Ordering::Relaxed)
    }

    /// Records the superop table's shape: `compiled` superops published
    /// with the latest snapshot out of `candidates` installed candidate
    /// windows (gauges, last wins).
    pub fn record_superops(&self, compiled: u64, candidates: u64) {
        self.superop_compiled.store(compiled, Ordering::Relaxed);
        self.superop_candidates.store(candidates, Ordering::Relaxed);
    }

    /// Records (or replaces) the dictionary table row for a generation
    /// and updates the current `maxID` gauge.
    pub fn record_generation(&self, info: GenerationInfo) {
        let mut table = self.generations.lock();
        if let Some(row) = table.iter_mut().find(|g| g.generation == info.generation) {
            *row = info;
        } else {
            table.push(info);
            table.sort_unstable_by_key(|g| g.generation);
        }
        // The gauge tracks the newest generation, not the latest update.
        if let Some(last) = table.last() {
            self.max_id.store(last.max_id, Ordering::Relaxed);
        }
    }

    /// Takes a point-in-time copy of every metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let trap_ns = self.trap_ns.snapshot();
        let reencode_cost = self.reencode_cost.snapshot();
        MetricsSnapshot {
            traps: trap_ns.count,
            edges_discovered: self.edges_discovered.get(),
            sites_patched: self.sites_patched.get(),
            reencodes: reencode_cost.count,
            reencode_aborts: self.reencode_aborts.get(),
            migrations: self.migrations.get(),
            cc_overflows: self.cc_overflows.get(),
            samples: self.samples.get(),
            profiler_samples: self.profiler_samples.get(),
            profiler_sample_weight: self.profiler_sample_weight.get(),
            warm_seeded_edges: self.warm_seeded_edges.get(),
            warm_pruned_edges: self.warm_pruned_edges.get(),
            icache_hits: self.icache_hits.get(),
            icache_misses: self.icache_misses.get(),
            superop_hits: self.superop_hits.get(),
            superop_misses: self.superop_misses.get(),
            superop_invalidations: self.superop_invalidations.get(),
            superop_republishes: self.superop_republishes.get(),
            superop_compiled: self.superop_compiled.load(Ordering::Relaxed),
            superop_candidates: self.superop_candidates.load(Ordering::Relaxed),
            degraded_traps: self.degraded_traps.get(),
            reencode_retries: self.reencode_retries.get(),
            cc_spills: self.cc_spills.get(),
            lock_poisonings: self.lock_poisonings.get(),
            slot_failures: self.slot_failures(),
            lineage_adoptions: self.lineage_adoptions.get(),
            lineage_publishes: self.lineage_publishes.get(),
            lineage_divergences: self.lineage_divergences.get(),
            dispatch_slots: self.dispatch_slots.load(Ordering::Relaxed),
            dispatch_span: self.dispatch_span.load(Ordering::Relaxed),
            trap_ns,
            reencode_cost,
            cc_depth: self.cc_depth.snapshot(),
            sampled_ids: self.sampled_ids.snapshot(),
            id_headroom: IdHeadroom::for_max_id(self.max_id.load(Ordering::Relaxed)),
            generations: self.generations.lock().clone(),
            journal_dropped: 0,
        }
    }
}

/// A plain-data copy of the whole registry, ready for export.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Cold-start traps handled.
    pub traps: u64,
    /// New call edges added to the dynamic graph.
    pub edges_discovered: u64,
    /// Call sites (re)patched.
    pub sites_patched: u64,
    /// Re-encode attempts (applied or aborted).
    pub reencodes: u64,
    /// Re-encode attempts aborted on overflow.
    pub reencode_aborts: u64,
    /// Threads lazily migrated across generations.
    pub migrations: u64,
    /// New ccStack high-water marks at or above the watermark.
    pub cc_overflows: u64,
    /// Context samples taken.
    pub samples: u64,
    /// Continuous-profiler samples captured.
    pub profiler_samples: u64,
    /// Total weight of continuous-profiler samples (events represented).
    pub profiler_sample_weight: u64,
    /// Warm-start edges seeded.
    pub warm_seeded_edges: u64,
    /// Warm-start edges pruned for id budget.
    pub warm_pruned_edges: u64,
    /// Per-thread indirect-call inline-cache hits.
    pub icache_hits: u64,
    /// Per-thread indirect-call inline-cache misses.
    pub icache_misses: u64,
    /// Superop windows executed as memoized net effects.
    pub superop_hits: u64,
    /// Superop probes that fell back to the per-event loop.
    pub superop_misses: u64,
    /// Compiled superops dropped on republish (epoch invalidation).
    pub superop_invalidations: u64,
    /// Snapshot publications (superop epoch boundaries).
    pub superop_republishes: u64,
    /// Superops published with the latest snapshot (gauge).
    pub superop_compiled: u64,
    /// Candidate windows installed for compilation (gauge).
    pub superop_candidates: u64,
    /// Traps taken on degraded (trap-everything) nodes.
    pub degraded_traps: u64,
    /// Re-encode attempts re-armed after an abort.
    pub reencode_retries: u64,
    /// ccStack watermark-shedding (spill) events.
    pub cc_spills: u64,
    /// Slow-path lock acquisitions that recovered from poisoning.
    pub lock_poisonings: u64,
    /// Dispatch-slot allocations refused by an injected cap.
    pub slot_failures: u64,
    /// Shared-lineage generations adopted instead of re-encoding locally.
    pub lineage_adoptions: u64,
    /// Locally applied re-encodings published into a shared lineage.
    pub lineage_publishes: u64,
    /// Tenants diverged (copy-on-write) off their shared lineage.
    pub lineage_divergences: u64,
    /// Allocated dispatch-table slots (compiled sites).
    pub dispatch_slots: u64,
    /// Site-id index range the slot vector spans.
    pub dispatch_span: u64,
    /// Trap-handling latency in nanoseconds.
    pub trap_ns: HistogramSnapshot,
    /// Abstract cost per re-encode attempt.
    pub reencode_cost: HistogramSnapshot,
    /// ccStack depth at sample points.
    pub cc_depth: HistogramSnapshot,
    /// Context ids observed at sample points.
    pub sampled_ids: HistogramSnapshot,
    /// Id-space consumption of the current generation.
    pub id_headroom: IdHeadroom,
    /// Per-generation dictionary table.
    pub generations: Vec<GenerationInfo>,
    /// Journal records lost to ring overwrites (filled in by the glue
    /// layer, which owns the journal).
    pub journal_dropped: u64,
}

impl MetricsSnapshot {
    /// Folds another runtime instance's snapshot into this one: counters
    /// and histograms add, gauges take the maximum, and the generation
    /// table is dropped (per-instance dictionary histories do not merge —
    /// a fleet aggregate reports them per tenant instead).
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        self.traps += other.traps;
        self.edges_discovered += other.edges_discovered;
        self.sites_patched += other.sites_patched;
        self.reencodes += other.reencodes;
        self.reencode_aborts += other.reencode_aborts;
        self.migrations += other.migrations;
        self.cc_overflows += other.cc_overflows;
        self.samples += other.samples;
        self.profiler_samples += other.profiler_samples;
        self.profiler_sample_weight += other.profiler_sample_weight;
        self.warm_seeded_edges += other.warm_seeded_edges;
        self.warm_pruned_edges += other.warm_pruned_edges;
        self.icache_hits += other.icache_hits;
        self.icache_misses += other.icache_misses;
        self.superop_hits += other.superop_hits;
        self.superop_misses += other.superop_misses;
        self.superop_invalidations += other.superop_invalidations;
        self.superop_republishes += other.superop_republishes;
        self.superop_compiled = self.superop_compiled.max(other.superop_compiled);
        self.superop_candidates = self.superop_candidates.max(other.superop_candidates);
        self.degraded_traps += other.degraded_traps;
        self.reencode_retries += other.reencode_retries;
        self.cc_spills += other.cc_spills;
        self.lock_poisonings += other.lock_poisonings;
        self.slot_failures += other.slot_failures;
        self.lineage_adoptions += other.lineage_adoptions;
        self.lineage_publishes += other.lineage_publishes;
        self.lineage_divergences += other.lineage_divergences;
        self.dispatch_slots = self.dispatch_slots.max(other.dispatch_slots);
        self.dispatch_span = self.dispatch_span.max(other.dispatch_span);
        self.trap_ns.absorb(&other.trap_ns);
        self.reencode_cost.absorb(&other.reencode_cost);
        self.cc_depth.absorb(&other.cc_depth);
        self.sampled_ids.absorb(&other.sampled_ids);
        if other.id_headroom.max_id > self.id_headroom.max_id {
            self.id_headroom = other.id_headroom;
        }
        self.generations.clear();
        self.journal_dropped += other.journal_dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_sums_across_threads() {
        let counter = Arc::new(Counter::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.get(), 40_000);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 1000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1006);
        assert_eq!(snap.max, 1000);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[2], 2);
        assert_eq!(snap.buckets[10], 1); // 1000 in (511, 1023]
    }

    #[test]
    fn quantile_and_mean_sane() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert!((snap.mean() - 50.5).abs() < 0.01);
        assert!(snap.quantile(0.5) >= 32);
        assert_eq!(snap.quantile(1.0), 100);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn generation_table_replaces_by_generation() {
        let reg = MetricsRegistry::default();
        reg.record_generation(GenerationInfo {
            generation: 1,
            nodes: 5,
            edges: 4,
            max_id: 10,
            cost: 0,
        });
        reg.record_generation(GenerationInfo {
            generation: 2,
            nodes: 9,
            edges: 12,
            max_id: 60,
            cost: 30,
        });
        reg.record_generation(GenerationInfo {
            generation: 1,
            nodes: 6,
            edges: 5,
            max_id: 12,
            cost: 0,
        });
        let snap = reg.snapshot();
        assert_eq!(snap.generations.len(), 2);
        assert_eq!(snap.generations[0].nodes, 6);
        assert_eq!(snap.id_headroom.max_id, 60);
        assert_eq!(snap.id_headroom.bits_used, 6);
        assert_eq!(snap.id_headroom.bits_spare, 58);
    }

    #[test]
    fn sketch_renders_nonempty() {
        let h = Histogram::default();
        for v in [1u64, 1, 2, 4, 4, 4, 4, 64] {
            h.observe(v);
        }
        let sketch = h.snapshot().sketch();
        assert!(!sketch.is_empty());
        assert!(sketch.contains('@'));
        assert_eq!(HistogramSnapshot::default().sketch(), "(empty)");
    }
}
