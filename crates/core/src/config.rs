//! Runtime configuration and ablation switches.

use crate::fault::FaultPlan;

/// When recursion compression (Figure 5e of the paper) is applied to back
/// edges.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CompressionMode {
    /// §4: at re-encoding time, back edges whose observed heat crosses
    /// [`DacceConfig::compression_min_heat`] get the counting
    /// instrumentation; cold back edges keep the plain push.
    Adaptive,
    /// Every back edge gets the counting instrumentation.
    Always,
    /// Back edges always use the plain push (ablation).
    Never,
}

/// Configuration of the DACCE engine. The defaults correspond to the
/// paper's described behaviour; the boolean switches exist for the ablation
/// experiments in `dacce-bench`.
#[derive(Clone, Debug)]
pub struct DacceConfig {
    /// Trigger 1 (§4): re-encode once this many new call edges accumulated.
    pub edge_threshold: usize,
    /// Minimum call events between two re-encodings (guards against
    /// thrashing during start-up bursts).
    pub min_events_between_reencodes: u64,
    /// Multiplier applied to the minimum-interval after every re-encoding:
    /// re-encoding is frequent while the call graph is young and backs off
    /// as the encoding stabilises (Figure 9: "triggered slightly more
    /// frequently at the beginning", then steady state).
    pub reencode_backoff: f64,
    /// Upper bound for the backed-off minimum interval.
    pub reencode_interval_cap: u64,
    /// Trigger 3 (§4): window length (in call events) over which the
    /// ccStack access rate is evaluated.
    pub ccstack_rate_window: u64,
    /// Trigger 3: re-encode when ccStack operations per call event within
    /// the window exceed this rate.
    pub ccstack_rate_threshold: f64,
    /// Trigger 2 (§4): every this many call events, check whether the
    /// hottest incoming edge of enough nodes changed.
    pub hot_check_every: u64,
    /// Trigger 2: number of nodes whose hottest incoming edge must differ
    /// from the current encoding order to force a re-encode.
    pub hot_change_nodes: usize,
    /// Indirect sites with at most this many known targets use an inline
    /// compare chain; beyond it, the hash-table instrumentation of Figure 4.
    pub indirect_inline_max: usize,
    /// Recursion-compression policy.
    pub compression: CompressionMode,
    /// Adaptive compression: minimum accumulated heat on a back edge for it
    /// to receive counting instrumentation at the next re-encode.
    pub compression_min_heat: u64,
    /// Master switch for adaptive re-encoding; `false` leaves every edge
    /// unencoded forever (ablation: pure ccStack operation).
    pub reencode_enabled: bool,
    /// Order incoming edges by observed heat so the hottest is encoded 0;
    /// `false` uses discovery order (ablation of the adaptive ordering).
    pub heat_ordering: bool,
    /// §5.2 tail-call handling via TcStack wrapping; `false` reproduces the
    /// encoding corruption of Figure 7a (ablation).
    pub handle_tail_calls: bool,
    /// Capacity of the recent-sample ring used to derive edge heat.
    pub sample_ring: usize,
    /// Keep every sample ever taken (needed by the figure binaries; costs
    /// memory on long runs).
    pub keep_sample_log: bool,
    /// Per-producer event-journal ring capacity (rounded up to a power of
    /// two), allocated when the producer records its first event. The
    /// journal has a runtime enable flag and starts disabled.
    pub journal_ring_capacity: usize,
    /// Continuous-profiler base sampling stride in call events (jittered
    /// per thread); 0 disables the profiler entirely. A prime default
    /// avoids phase-locking with power-of-two loop bodies.
    pub profiler_stride: u64,
    /// Seed for the per-thread sampling jitter (xorshifted with the
    /// thread id, so threads decorrelate but runs stay reproducible).
    pub profiler_seed: u64,
    /// Budget of the adaptive rate controller: max samples per
    /// 16-stride window before a thread's effective stride backs off;
    /// 0 leaves the rate fixed.
    pub profiler_budget: u64,
    /// Let re-encoding's hottest-incoming-edge ordering consume sampled
    /// hotness (weighted profiler captures) in addition to trap counts.
    /// Off by default so the paper-faithful trap-driven behaviour stays
    /// bit-identical.
    pub profiler_feedback: bool,
    /// Master switch for superop compilation: installed candidate windows
    /// are compiled into the published snapshot's superop table and the
    /// batched fast path may execute their memoized net effects. `false`
    /// keeps the per-event loop only (ablation / bench baseline).
    pub superops_enabled: bool,
    /// Longest call/return window (in events) a superop may cover;
    /// longer candidates are refused at compile time.
    pub superop_max_window: usize,
    /// Maximum number of compiled superops per snapshot; the best-ranked
    /// candidates win.
    pub superop_max_table: usize,
    /// Deterministic fault-injection plan (disarmed by default). See
    /// [`FaultPlan`] for the fault kinds and the degradation path each
    /// lands on.
    pub fault: FaultPlan,
}

impl Default for DacceConfig {
    fn default() -> Self {
        DacceConfig {
            edge_threshold: 24,
            min_events_between_reencodes: 2_000,
            reencode_backoff: 1.35,
            reencode_interval_cap: 60_000,
            ccstack_rate_window: 20_000,
            ccstack_rate_threshold: 0.05,
            hot_check_every: 50_000,
            hot_change_nodes: 3,
            indirect_inline_max: 4,
            compression: CompressionMode::Adaptive,
            compression_min_heat: 64,
            reencode_enabled: true,
            heat_ordering: true,
            handle_tail_calls: true,
            sample_ring: 256,
            keep_sample_log: false,
            journal_ring_capacity: 4096,
            profiler_stride: 509,
            profiler_seed: 0x5eed,
            profiler_budget: 64,
            profiler_feedback: false,
            superops_enabled: true,
            superop_max_window: 48,
            superop_max_table: 64,
            fault: FaultPlan::default(),
        }
    }
}

impl DacceConfig {
    /// Configuration with adaptive re-encoding disabled entirely.
    pub fn no_reencoding() -> Self {
        DacceConfig {
            reencode_enabled: false,
            ..DacceConfig::default()
        }
    }

    /// Configuration reproducing the Figure 7a tail-call bug.
    pub fn broken_tail_calls() -> Self {
        DacceConfig {
            handle_tail_calls: false,
            ..DacceConfig::default()
        }
    }

    /// The default configuration with `plan` armed.
    pub fn with_fault(plan: FaultPlan) -> Self {
        DacceConfig {
            fault: plan,
            ..DacceConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_enables_everything() {
        let c = DacceConfig::default();
        assert!(c.reencode_enabled);
        assert!(c.heat_ordering);
        assert!(c.handle_tail_calls);
        assert_eq!(c.compression, CompressionMode::Adaptive);
        assert!(c.edge_threshold > 0);
        assert!(c.sample_ring > 0);
        assert!(c.profiler_stride > 0, "profiler samples by default");
        assert!(
            !c.profiler_feedback,
            "sampled-hotness feedback is opt-in; default stays trap-driven"
        );
        assert!(c.superops_enabled, "superops compile by default");
        assert!(c.superop_max_window >= 2);
        assert!(c.superop_max_table > 0);
    }

    #[test]
    fn presets_flip_the_right_switches() {
        assert!(!DacceConfig::no_reencoding().reencode_enabled);
        assert!(!DacceConfig::broken_tail_calls().handle_tail_calls);
        assert!(DacceConfig::broken_tail_calls().reencode_enabled);
        assert!(!DacceConfig::default().fault.is_armed());
        let faulted = DacceConfig::with_fault(FaultPlan {
            max_id_cap: Some(7),
            ..FaultPlan::default()
        });
        assert!(faulted.fault.is_armed());
        assert!(faulted.reencode_enabled);
    }
}
