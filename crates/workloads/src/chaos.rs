//! Deterministic chaos harness: replay a recorded workload trace under an
//! injected [`FaultPlan`] and check every decoded context twice — against
//! the fault-free run and against the replay's shadow stack.
//!
//! Soundness under degradation is the property being tested: whatever
//! faults fire — maxID exhaustion, ccStack spills, aborted re-encodings,
//! dispatch-slot starvation, poisoned slow-path locks — the runtime may
//! get *slower* (more trapping, more ccStack traffic) but never *wrong*.
//! A context sampled at op N of the trace must decode to exactly the path
//! the fault-free replay decodes at op N, and to the context the trace
//! says the thread is in there. Everything is seeded: the program, the
//! interpreter schedule, the recorded trace, the sample cadence and the
//! fault plan are all pure functions of the spec and the plan, so a
//! failing run reproduces byte-for-byte.
//!
//! The replay is the loop of [`crate::batch`] with a 16-op window: balanced windows go through [`ThreadHandle::run_batch`], the
//! deep spine through RAII guards, so the fault paths are exercised under
//! both front-ends. This module only adds the sampler that decodes a
//! context every [`JOURNAL_SAMPLE_EVERY`] ops and at each thread's exit.

use dacce::tracker::{ThreadHandle, Tracker};
use dacce::{DacceConfig, DacceStats, FaultPlan, Observability};
use dacce_program::{PathStep, ThreadId};

use crate::batch::{record, replay, IdMaps, ReplayStep, ReplayVisitor, TraceOp, WorkloadTrace};
use crate::driver::{interp_config, DriverConfig};
use crate::genprog::generate_program;
use crate::journal::JOURNAL_SAMPLE_EVERY;
use crate::spec::BenchSpec;
use crate::superops::install_mined;

/// Ops folded into one `run_batch` window during chaos replay. Smaller
/// than a throughput drive's window so sample points interleave with
/// batch boundaries.
pub(crate) const CHAOS_WINDOW: usize = 16;

/// What one replay of the trace produced.
#[derive(Clone, Debug)]
pub struct ChaosReplay {
    /// Decoded sample paths in deterministic (thread-major, op-ordered)
    /// order, each rendered as `"<tid>: f0 -> f1 -> ..."`.
    pub paths: Vec<String>,
    /// Samples that failed to decode (always 0 for a sound runtime).
    pub decode_failures: usize,
    /// Decoded samples that differ from the replay's shadow stack (always
    /// 0 for a sound runtime).
    pub shadow_mismatches: usize,
    /// Samples taken at the exit of a spawned thread (their decoded paths
    /// carry the spawn context).
    pub spawned_exit_samples: usize,
    /// Final tracker statistics (including the degraded-state record).
    pub stats: DacceStats,
    /// The tracker's observability handle: its metrics, which `stats`
    /// drained every thread into, outlive the tracker.
    pub obs: Observability,
    /// First invariant violation found after the replay, if any.
    pub invariant_error: Option<String>,
}

/// The differential outcome of one fault plan against the fault-free run.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// The preset (or "custom") this outcome belongs to.
    pub preset: String,
    /// Recorded call ops replayed by both runs.
    pub calls: u64,
    /// Samples decoded and compared.
    pub samples: usize,
    /// Sample points whose decoded path differs from the fault-free run.
    pub mismatches: usize,
    /// The faulted replay (the fault-free baseline is discarded after the
    /// comparison).
    pub replay: ChaosReplay,
}

impl ChaosOutcome {
    /// True when the faulted run decoded every sample to the fault-free
    /// path and to the shadow stack, and the post-run invariants held.
    pub fn sound(&self) -> bool {
        self.mismatches == 0
            && self.replay.decode_failures == 0
            && self.replay.shadow_mismatches == 0
            && self.replay.invariant_error.is_none()
    }
}

/// Records the tail-free instrumentation trace of `spec` (the tracker
/// front-end has no tail-call entry point), with validation and the
/// interpreter's own sampling disabled — the harness samples itself.
pub fn chaos_trace(spec: &BenchSpec, cfg: &DriverConfig) -> WorkloadTrace {
    let mut spec = spec.clone();
    spec.tail_fraction = 0.0;
    let program = generate_program(&spec);
    let mut icfg = interp_config(&spec, cfg);
    icfg.sample_every = 0;
    icfg.validate = false;
    record(&program, icfg)
}

/// Replays `trace` under `config` (which carries the fault plan), driving
/// balanced windows through [`ThreadHandle::run_batch`] and the spine
/// through guards, sampling and decoding every [`JOURNAL_SAMPLE_EVERY`]
/// ops and at each thread's exit.
pub fn replay_sampled(trace: &WorkloadTrace, config: DacceConfig) -> ChaosReplay {
    replay_sampled_impl(trace, config, false)
}

/// Like [`replay_sampled`], but first warms the tracker on a *prefix* of
/// the trace, mines superop candidates from the warmed streams (blending
/// the warm pass's sampled hotness), installs them, and then runs the
/// sampled pass with superops live — the realistic profile-then-install
/// shape, where the rest of the run (new edges, phase shifts, late
/// library bindings) keeps re-encoding under the compiled table. Sample
/// points depend only on the trace, so the decoded paths must match
/// [`replay_sampled`] exactly — that equality is the superop differential
/// check.
pub fn replay_sampled_superops(trace: &WorkloadTrace, config: DacceConfig) -> ChaosReplay {
    replay_sampled_impl(trace, config, true)
}

/// The warm-up window handed to the superop miner: the leading third of
/// each thread's ops. Any prefix of a balanced stream is replayable (every
/// return still matches an earlier call; unclosed calls ride the guard
/// spine), and cutting well before the midpoint keeps phase-1 behaviour —
/// hot-callee swaps, late PLT bindings — out of the mined profile so the
/// sampled pass still discovers edges and republishes over the table.
fn warmup_prefix(trace: &WorkloadTrace) -> WorkloadTrace {
    WorkloadTrace {
        threads: trace.threads.clone(),
        traces: trace
            .traces
            .iter()
            .map(|(&tid, ops)| (tid, ops[..ops.len() / 3].to_vec()))
            .collect(),
    }
}

/// Samples and decodes a context every [`JOURNAL_SAMPLE_EVERY`] ops of
/// each thread and at its exit, at op counts that depend only on the
/// trace, so the faulted and fault-free replays sample identical program
/// points.
struct ChaosSampler<'t> {
    tracker: &'t Tracker,
    tid: ThreadId,
    next_sample: u64,
    paths: Vec<String>,
    decode_failures: usize,
    shadow_mismatches: usize,
    spawned_exit_samples: usize,
}

impl ChaosSampler<'_> {
    /// Decodes the thread's current context and checks it against
    /// `expected`. Returns whether the context carries a spawn link.
    fn sample(&mut self, th: &ThreadHandle, expected: &[PathStep]) -> bool {
        let tid = self.tid;
        let sample = th.sample();
        match self.tracker.decode(&sample) {
            Ok(path) => {
                self.shadow_mismatches += usize::from(path.0 != expected);
                let path = self.tracker.format_path(&path);
                self.paths.push(format!("{tid}: {path}"));
            }
            Err(e) => {
                self.decode_failures += 1;
                self.paths.push(format!("{tid}: decode-error {e}"));
            }
        }
        sample.spawn.is_some()
    }
}

impl ReplayVisitor for ChaosSampler<'_> {
    fn start(&mut self, tid: ThreadId, _: &ThreadHandle, _: &[TraceOp]) {
        self.tid = tid;
        self.next_sample = JOURNAL_SAMPLE_EVERY;
    }

    fn step(&mut self, th: &ThreadHandle, _: ReplayStep, done: usize, expected: &[PathStep]) {
        while done as u64 >= self.next_sample {
            self.next_sample += JOURNAL_SAMPLE_EVERY;
            self.sample(th, expected);
        }
    }

    fn end(&mut self, th: &ThreadHandle, done: usize, expected: &[PathStep]) {
        // As in the journal: threads shorter than the cadence are still
        // decoded once, in whatever context they end.
        if done > 0 && self.sample(th, expected) {
            self.spawned_exit_samples += 1;
        }
    }
}

fn replay_sampled_impl(trace: &WorkloadTrace, config: DacceConfig, superops: bool) -> ChaosReplay {
    let max_window = config.superop_max_window.min(CHAOS_WINDOW);
    let max_table = config.superop_max_table;
    let tracker = Tracker::with_config(config);
    let mut ids = IdMaps::default();
    if superops {
        let warm = warmup_prefix(trace);
        replay(&tracker, &warm, CHAOS_WINDOW, &mut ids, &mut ());
        install_mined(&tracker, &ids.streams(&warm), max_window, max_table);
    }
    let mut sampler = ChaosSampler {
        tracker: &tracker,
        tid: ThreadId::MAIN,
        next_sample: JOURNAL_SAMPLE_EVERY,
        paths: Vec::new(),
        decode_failures: 0,
        shadow_mismatches: 0,
        spawned_exit_samples: 0,
    };
    replay(&tracker, trace, CHAOS_WINDOW, &mut ids, &mut sampler);
    let invariant_error = tracker.check_invariants().err();
    ChaosReplay {
        paths: sampler.paths,
        decode_failures: sampler.decode_failures,
        shadow_mismatches: sampler.shadow_mismatches,
        spawned_exit_samples: sampler.spawned_exit_samples,
        stats: tracker.stats(),
        obs: tracker.observability().clone(),
        invariant_error,
    }
}

/// Runs `trace` once fault-free and once under `plan`, comparing every
/// decoded sample point. `preset` labels the outcome.
pub fn run_chaos_plan(
    trace: &WorkloadTrace,
    base: &DacceConfig,
    preset: &str,
    plan: FaultPlan,
) -> ChaosOutcome {
    let with = |fault| DacceConfig {
        fault,
        ..base.clone()
    };
    let clean = replay_sampled(trace, with(FaultPlan::default()));
    let faulted = replay_sampled(trace, with(plan));

    assert_eq!(
        clean.paths.len(),
        faulted.paths.len(),
        "both replays sample the same program points"
    );
    let mismatches = clean
        .paths
        .iter()
        .zip(&faulted.paths)
        .filter(|(a, b)| a != b)
        .count();
    ChaosOutcome {
        preset: preset.to_string(),
        calls: trace.calls(),
        samples: faulted.paths.len(),
        mismatches,
        replay: faulted,
    }
}

/// Records `spec` once and runs the differential chaos check for every
/// [`FaultPlan`] preset.
pub fn run_all_presets(spec: &BenchSpec, cfg: &DriverConfig) -> Vec<ChaosOutcome> {
    let trace = chaos_trace(spec, cfg);
    FaultPlan::presets()
        .into_iter()
        .map(|(name, plan)| run_chaos_plan(&trace, &cfg.dacce, name, plan))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg() -> DriverConfig {
        DriverConfig {
            scale: 0.05,
            ..DriverConfig::default()
        }
    }

    #[test]
    fn fault_free_replay_is_self_consistent() {
        let trace = chaos_trace(&BenchSpec::tiny("chaos-clean", 3), &smoke_cfg());
        let replay = replay_sampled(&trace, DacceConfig::default());
        assert!(replay.paths.len() > 4, "cadence produces samples");
        assert_eq!(replay.decode_failures, 0);
        assert_eq!(replay.shadow_mismatches, 0, "live contexts match the trace");
        assert_eq!(replay.invariant_error, None);
        assert!(!replay.stats.degraded.any(), "no faults, no degradation");
    }

    #[test]
    fn maxid_exhaustion_degrades_but_stays_sound() {
        let trace = chaos_trace(&BenchSpec::tiny("chaos-maxid", 5), &smoke_cfg());
        // Eager re-encoding plus a zero cap: the first re-encoding that
        // needs any id past 0 exhausts and flips the runtime degraded.
        let base = DacceConfig {
            edge_threshold: 2,
            min_events_between_reencodes: 1,
            ..DacceConfig::default()
        };
        let out = run_chaos_plan(
            &trace,
            &base,
            "maxid-exhaustion",
            FaultPlan {
                max_id_cap: Some(0),
                ..FaultPlan::default()
            },
        );
        assert!(out.sound(), "degraded decode diverged: {out:?}");
        let d = &out.replay.stats.degraded;
        assert!(d.active, "a zero maxID cap must force degraded mode");
        assert!(d.degraded_traps > 0);
        assert!(!d.trap_nodes.is_empty());
    }

    #[test]
    fn cc_overflow_spills_but_stays_sound() {
        let trace = chaos_trace(&BenchSpec::tiny("chaos-cc", 7), &smoke_cfg());
        let out = run_chaos_plan(
            &trace,
            &DacceConfig::default(),
            "cc-overflow",
            FaultPlan::preset("cc-overflow").unwrap(),
        );
        assert!(out.sound(), "spilled decode diverged");
        assert!(
            out.replay.stats.degraded.cc_spill_events > 0,
            "a spill limit of 6 must shed on deep stacks"
        );
    }

    #[test]
    fn reencode_storm_churns_generations() {
        let trace = chaos_trace(&BenchSpec::tiny("chaos-storm", 13), &smoke_cfg());
        let base = DacceConfig {
            min_events_between_reencodes: 16,
            ..DacceConfig::default()
        };
        let out = run_chaos_plan(
            &trace,
            &base,
            "reencode-storm",
            FaultPlan::preset("reencode-storm").unwrap(),
        );
        assert!(out.sound(), "storm decode diverged: {out:?}");
        let mut calm_cfg = base;
        calm_cfg.fault = FaultPlan::default();
        let calm = replay_sampled(&trace, calm_cfg);
        assert!(
            out.replay.stats.reencodes > calm.stats.reencodes,
            "the storm must force extra re-encodings ({} vs {})",
            out.replay.stats.reencodes,
            calm.stats.reencodes
        );
    }

    #[test]
    fn every_preset_is_sound_on_a_tiny_workload() {
        for out in run_all_presets(&BenchSpec::tiny("chaos-all", 11), &smoke_cfg()) {
            assert!(
                out.sound(),
                "preset {} diverged: {} mismatches, {} decode failures, invariants {:?}",
                out.preset,
                out.mismatches,
                out.replay.decode_failures,
                out.replay.invariant_error,
            );
        }
    }
}
