//! Engine statistics backing Table 1 and Figures 9/10 of the paper.
//!
//! [`DacceStats`] is a view built on demand: lock-only facts from the
//! shared state and per-thread [`StatsShard`]s, plus every count the
//! [`MetricsRegistry`] stores (its only record), read by
//! `DacceStats::read_registry`.

use dacce_obs::MetricsRegistry;

/// One point of the Figure 9 time series: graph size and `maxID` right
/// after a re-encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProgressPoint {
    /// Call events executed when the snapshot was taken.
    pub calls: u64,
    /// Encoded nodes.
    pub nodes: usize,
    /// Encoded edges.
    pub edges: usize,
    /// `maxID` of the new encoding.
    pub max_id: u64,
}

/// Degradation bookkeeping: which graceful-degradation paths the run
/// took and how often. All-zero (and `active == false`) on a healthy
/// run; the fault-injection layer ([`crate::fault::FaultPlan`]) forces
/// each path deterministically so CI can prove the counters move and the
/// run stays sound.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegradedState {
    /// True once the engine gave up re-encoding for good (retry budget
    /// exhausted or genuine id-space exhaustion) and runs the affected
    /// subgraph in trap-everything mode.
    pub active: bool,
    /// Functions demoted to trap-everything: callees of edges discovered
    /// after degradation activated (sorted, deduplicated raw ids). They
    /// stay decodable through the sub-path `[maxID+1, 2*maxID+1]`
    /// mechanism — only ever pushed, never encoded.
    pub trap_nodes: Vec<u32>,
    /// Traps taken on degraded edges after degradation activated.
    pub degraded_traps: u64,
    /// Re-encode attempts re-armed after an abort (generation rollback +
    /// extra backoff).
    pub reencode_retries: u64,
    /// ccStack watermark-shedding events across all threads.
    pub cc_spill_events: u64,
    /// Greatest number of ccStack entries resident in any thread's heap
    /// spill region.
    pub cc_spilled_peak: u64,
    /// Slow-path lock acquisitions that found the lock poisoned and
    /// recovered (poison cleared, snapshot revalidated).
    pub lock_poisonings: u64,
    /// Dispatch-table slot allocations refused by the injected cap; each
    /// leaves a site permanently on the trap path.
    pub slot_failures: u64,
    /// Malformed (unbalanced) `run_batch` windows degraded to partial
    /// progress instead of a thread abort.
    pub batch_errors: u64,
}

impl DegradedState {
    /// True when any degradation path was taken at least once.
    #[must_use]
    pub fn any(&self) -> bool {
        self.active
            || !self.trap_nodes.is_empty()
            || self.degraded_traps > 0
            || self.reencode_retries > 0
            || self.cc_spill_events > 0
            || self.lock_poisonings > 0
            || self.slot_failures > 0
            || self.batch_errors > 0
    }

    /// Copies the counts the registry stores into the view.
    pub(crate) fn read_registry(&mut self, m: &MetricsRegistry) {
        self.degraded_traps = m.degraded_traps.get();
        self.reencode_retries = m.reencode_retries.get();
        self.cc_spill_events = m.cc_spills.get();
        self.lock_poisonings = m.lock_poisonings.get();
        self.slot_failures = m.slot_failures();
    }

    /// Records `node` as demoted to trap-everything (keeps the list
    /// sorted and deduplicated).
    pub fn note_trap_node(&mut self, node: u32) {
        if let Err(pos) = self.trap_nodes.binary_search(&node) {
            self.trap_nodes.insert(pos, node);
        }
    }
}

/// Counters accumulated by the DACCE engine over one run.
#[derive(Clone, Debug, Default)]
pub struct DacceStats {
    /// Dynamic call events processed.
    pub calls: u64,
    /// Runtime-handler traps (first invocations).
    pub traps: u64,
    /// Re-encoding processes triggered (`gTS` column of Table 1).
    pub reencodes: u64,
    /// Total cost units spent re-encoding (`costs` column of Table 1).
    pub reencode_cost: u64,
    /// ccStack operations across all threads (`ccStack/s` numerator).
    pub ccstack_ops: u64,
    /// `TcStack` operations across all threads.
    pub tcstack_ops: u64,
    /// Samples recorded.
    pub samples: u64,
    /// Samples per observed ccStack depth: `cc_depths[d]` samples saw
    /// depth `d` (Figure 10 raw data). Bounded by the deepest sample, not
    /// by the sample count.
    pub cc_depths: Vec<u64>,
    /// Figure 9 time series (one point per re-encode, plus the initial one).
    pub progress: Vec<ProgressPoint>,
    /// Largest `maxID` over all encodings of the run (Table 1's MaxID).
    pub max_max_id: u64,
    /// Compressed-recursion hits (top-entry counter increments).
    pub compress_hits: u64,
    /// Indirect chains converted to hash tables (§3.2, Figure 4).
    pub hash_conversions: u64,
    /// Samples whose decode failed (must stay 0; anything else is a bug).
    pub decode_errors: u64,
    /// Main-loop restarts that found a dirty encoding state (only possible
    /// with broken-tail-call ablation; must stay 0 otherwise).
    pub unbalanced_resets: u64,
    /// Re-encoding aborted because the encoding would overflow 64 bits.
    pub overflow_aborts: u64,
    /// Indirect-call inline-cache hits (tracker fast path only).
    pub icache_hits: u64,
    /// Indirect-call inline-cache misses (tracker fast path only).
    pub icache_misses: u64,
    /// Superop windows executed as memoized net effects (batched fast
    /// path only).
    pub superop_hits: u64,
    /// Superop probes that found candidates for a site but fell back to
    /// the per-event loop (trace mismatch or a runtime guard).
    pub superop_misses: u64,
    /// Call/return events covered by superop hits (the events the
    /// per-event loop never had to execute).
    pub superop_events: u64,
    /// Degradation bookkeeping (all-zero on a healthy run).
    pub degraded: DegradedState,
}

impl DacceStats {
    /// Mean ccStack depth over all samples (Table 1's `depth` column).
    pub fn mean_cc_depth(&self) -> f64 {
        let (n, sum) = self
            .cc_depths
            .iter()
            .enumerate()
            .fold((0u64, 0u64), |(n, sum), (d, &c)| {
                (n + c, sum + d as u64 * c)
            });
        if n == 0 {
            return 0.0;
        }
        sum as f64 / n as f64
    }

    /// Copies every count the registry stores into the view (traps and
    /// re-encodes are histogram counts, the re-encode cost a sum).
    pub(crate) fn read_registry(&mut self, m: &MetricsRegistry) {
        self.traps = m.trap_ns.count();
        self.reencodes = m.reencode_cost.count();
        self.reencode_cost = m.reencode_cost.sum();
        self.overflow_aborts = m.reencode_aborts.get();
        self.samples = m.samples.get();
        self.icache_hits = m.icache_hits.get();
        self.icache_misses = m.icache_misses.get();
        self.superop_hits = m.superop_hits.get();
        self.superop_misses = m.superop_misses.get();
        self.degraded.read_registry(m);
    }

    /// Folds one thread's shard into the aggregate (stats drain). Its
    /// hit/miss tallies (tracker-only) are not read: drains flush them.
    pub fn absorb_shard(&mut self, shard: &StatsShard) {
        self.calls += shard.calls;
        self.compress_hits += shard.compress_hits;
        self.decode_errors += shard.decode_errors;
        self.superop_events += shard.superop_events;
        self.degraded.batch_errors += shard.batch_errors;
        if self.cc_depths.len() < shard.cc_depths.len() {
            self.cc_depths.resize(shard.cc_depths.len(), 0);
        }
        for (total, &c) in self.cc_depths.iter_mut().zip(&shard.cc_depths) {
            *total += c;
        }
    }
}

/// Per-thread statistics shard.
///
/// The concurrent tracker's fast paths never touch shared counters: each
/// thread accumulates into its own shard (behind its own uncontended slot
/// lock) and the aggregate is assembled only when someone drains stats,
/// via [`DacceStats::absorb_shard`]. Its hit/miss tallies are pending
/// registry counts: a flush moves them into the registry.
#[derive(Clone, Debug, Default)]
pub struct StatsShard {
    /// Dynamic call events executed by this thread.
    pub calls: u64,
    /// Compressed-recursion hits on this thread's ccStack.
    pub compress_hits: u64,
    /// Lazy-migration decodes that failed (must stay 0).
    pub decode_errors: u64,
    /// Inline-cache hits not yet flushed to the registry.
    pub icache_hits: u64,
    /// Inline-cache misses not yet flushed to the registry.
    pub icache_misses: u64,
    /// Superop hits not yet flushed to the registry.
    pub superop_hits: u64,
    /// Superop misses not yet flushed to the registry.
    pub superop_misses: u64,
    /// Events covered by this thread's superop hits.
    pub superop_events: u64,
    /// Unbalanced `run_batch` windows this thread degraded gracefully.
    pub batch_errors: u64,
    /// This thread's samples per observed ccStack depth.
    pub cc_depths: Vec<u64>,
}

impl StatsShard {
    /// Counts one sample taken at ccStack depth `depth`.
    pub(crate) fn note_cc_depth(&mut self, depth: usize) {
        if self.cc_depths.len() <= depth {
            self.cc_depths.resize(depth + 1, 0);
        }
        self.cc_depths[depth] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_cc_depth_of_no_samples_is_zero() {
        assert_eq!(DacceStats::default().mean_cc_depth(), 0.0);
    }

    #[test]
    fn mean_cc_depth_averages() {
        // One sample each at depths 0, 2 and 4.
        let s = DacceStats {
            cc_depths: vec![1, 0, 1, 0, 1],
            ..DacceStats::default()
        };
        assert!((s.mean_cc_depth() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cc_depth_histogram_is_bounded_by_depth_not_samples() {
        let depths: Vec<usize> = (0..10_000).map(|i| (i * 7) % 9).collect();
        let mut shard = StatsShard::default();
        for &d in &depths {
            shard.note_cc_depth(d);
        }
        let mut stats = DacceStats::default();
        stats.absorb_shard(&shard);
        stats.absorb_shard(&StatsShard::default());
        assert!(
            stats.cc_depths.len() <= 9,
            "{} entries",
            stats.cc_depths.len()
        );
        assert_eq!(stats.cc_depths.iter().sum::<u64>(), 10_000);
        let mean = depths.iter().map(|&d| d as f64).sum::<f64>() / depths.len() as f64;
        assert_eq!(stats.mean_cc_depth(), mean);
    }
}
