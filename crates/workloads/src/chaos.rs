//! Deterministic chaos harness: replay a recorded workload trace under an
//! injected [`FaultPlan`] and differentially check every decoded context
//! against the fault-free run.
//!
//! Soundness under degradation is the property being tested: whatever
//! faults fire — maxID exhaustion, ccStack spills, aborted re-encodings,
//! dispatch-slot starvation, poisoned slow-path locks — the runtime may
//! get *slower* (more trapping, more ccStack traffic) but never *wrong*.
//! A context sampled at op N of the trace must decode to exactly the path
//! the fault-free replay decodes at op N. Everything is seeded: the
//! program, the interpreter schedule, the recorded trace, the sample
//! cadence and the fault plan are all pure functions of the spec and the
//! plan, so a failing run reproduces byte-for-byte.
//!
//! The replay reuses the PR 4 batched drive shape: balanced windows go
//! through [`ThreadHandle::run_batch`], the deep spine through RAII
//! guards, so the fault paths are exercised under both front-ends.

use std::collections::HashMap;

use dacce::tracker::{BatchOp, ThreadHandle, Tracker};
use dacce::{DacceConfig, DacceStats, FaultPlan, Observability};
use dacce_callgraph::{CallSiteId, FunctionId};
use dacce_program::ThreadId;

use crate::batch::{record, ThreadStart, TraceOp, WorkloadTrace};
use crate::driver::{interp_config, DriverConfig};
use crate::genprog::generate_program;
use crate::spec::BenchSpec;

/// Ops folded into one `run_batch` window during chaos replay. Smaller
/// than the throughput drive's window so sample points interleave with
/// batch boundaries.
const CHAOS_WINDOW: usize = 16;

/// A context is sampled (and decoded) every this many replayed ops, per
/// thread. Prime so the cadence drifts across window boundaries.
const SAMPLE_EVERY: u64 = 127;

/// What one replay of the trace produced.
#[derive(Clone, Debug)]
pub struct ChaosReplay {
    /// Decoded sample paths in deterministic (thread-major, op-ordered)
    /// order, each rendered as `"<tid>: f0 -> f1 -> ..."`.
    pub paths: Vec<String>,
    /// Samples that failed to decode (always 0 for a sound runtime).
    pub decode_failures: usize,
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
    /// path and the post-run invariants held.
    pub fn sound(&self) -> bool {
        self.mismatches == 0
            && self.replay.decode_failures == 0
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
/// through guards, sampling and decoding every [`SAMPLE_EVERY`] ops.
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

fn replay_sampled_impl(trace: &WorkloadTrace, config: DacceConfig, superops: bool) -> ChaosReplay {
    let max_window = config.superop_max_window.min(CHAOS_WINDOW);
    let max_table = config.superop_max_table;
    let tracker = Tracker::with_config(config);
    let mut fn_map: HashMap<FunctionId, FunctionId> = HashMap::new();
    let mut site_map: HashMap<CallSiteId, CallSiteId> = HashMap::new();
    if superops {
        let warm = warmup_prefix(trace);
        let _ =
            crate::batch::replay_onto(&tracker, &warm, CHAOS_WINDOW, &mut fn_map, &mut site_map);
        let hot = crate::superops::leaf_weights(&tracker.profiler_profile());
        let streams = crate::batch::mapped_streams(&warm, &fn_map, &site_map);
        let refs: Vec<&[BatchOp]> = streams.iter().map(Vec::as_slice).collect();
        let candidates = crate::superops::mine_windows(&refs, max_window, max_table, |f| {
            hot.get(&f).copied().unwrap_or(0)
        });
        let _ = tracker.install_superops(&candidates);
    }
    let mut handles: HashMap<ThreadId, ThreadHandle> = HashMap::new();
    let mut paths = Vec::new();
    let mut decode_failures = 0usize;

    for &ThreadStart { tid, root, parent } in &trace.threads {
        let root = *fn_map
            .entry(root)
            .or_insert_with(|| tracker.define_function(&format!("fn{}", root.index())));
        let th = match parent {
            None => tracker.register_thread(root),
            Some((ptid, psite)) => {
                let psite = *site_map
                    .entry(psite)
                    .or_insert_with(|| tracker.define_call_site());
                let parent = handles.get(&ptid).expect("parent registered before child");
                tracker.register_spawned_thread(root, parent, psite)
            }
        };
        handles.insert(tid, th);
        let th = &handles[&tid];
        let ops = &trace.traces[&tid];

        // `match_ret[i]` = index of the Ret closing the Call at `i`.
        let mut match_ret = vec![usize::MAX; ops.len()];
        let mut open_idx = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                TraceOp::Call { .. } => open_idx.push(i),
                TraceOp::Ret => match_ret[open_idx.pop().expect("return matches a call")] = i,
            }
        }

        let mut buf: Vec<BatchOp> = Vec::with_capacity(CHAOS_WINDOW);
        let mut buf_depth = 0usize;
        let mut guards = Vec::new();
        let mut done = 0u64;
        // Samples fire at op counts that depend only on the trace, so the
        // faulted and fault-free replays sample identical program points.
        let mut next_sample = SAMPLE_EVERY;
        let mut sample_due = |done: u64, paths: &mut Vec<String>, decode_failures: &mut usize| {
            while done >= next_sample {
                next_sample += SAMPLE_EVERY;
                let ctx = th.sample();
                match tracker.decode(&ctx) {
                    Ok(path) => paths.push(format!("{tid}: {}", tracker.format_path(&path))),
                    Err(e) => {
                        *decode_failures += 1;
                        paths.push(format!("{tid}: decode-error {e}"));
                    }
                }
            }
        };

        let mut i = 0;
        while i < ops.len() {
            match ops[i] {
                TraceOp::Call {
                    site,
                    target,
                    indirect,
                } => {
                    let site = *site_map
                        .entry(site)
                        .or_insert_with(|| tracker.define_call_site());
                    let target = *fn_map.entry(target).or_insert_with(|| {
                        tracker.define_function(&format!("fn{}", target.index()))
                    });
                    let j = match_ret[i];
                    if j != usize::MAX && j - i < CHAOS_WINDOW {
                        buf.push(if indirect {
                            BatchOp::CallIndirect { site, target }
                        } else {
                            BatchOp::Call { site, target }
                        });
                        buf_depth += 1;
                    } else {
                        if !buf.is_empty() {
                            done += buf.len() as u64;
                            th.run_batch(&buf).expect("replay windows are balanced");
                            buf.clear();
                            sample_due(done, &mut paths, &mut decode_failures);
                        }
                        guards.push(if indirect {
                            th.call_indirect(site, target)
                        } else {
                            th.call(site, target)
                        });
                        done += 1;
                        sample_due(done, &mut paths, &mut decode_failures);
                    }
                    i += 1;
                }
                TraceOp::Ret => {
                    if buf_depth > 0 {
                        buf.push(BatchOp::Ret);
                        buf_depth -= 1;
                        if buf_depth == 0 && buf.len() >= CHAOS_WINDOW {
                            done += buf.len() as u64;
                            th.run_batch(&buf).expect("replay windows are balanced");
                            buf.clear();
                            sample_due(done, &mut paths, &mut decode_failures);
                        }
                    } else {
                        if !buf.is_empty() {
                            done += buf.len() as u64;
                            th.run_batch(&buf).expect("replay windows are balanced");
                            buf.clear();
                        }
                        drop(guards.pop().expect("guard for unbatched return"));
                        done += 1;
                        sample_due(done, &mut paths, &mut decode_failures);
                    }
                    i += 1;
                }
            }
        }
        if !buf.is_empty() {
            done += buf.len() as u64;
            th.run_batch(&buf).expect("replay windows are balanced");
            buf.clear();
            sample_due(done, &mut paths, &mut decode_failures);
        }
        while let Some(g) = guards.pop() {
            drop(g);
        }
    }

    let invariant_error = tracker.check_invariants().err();
    ChaosReplay {
        paths,
        decode_failures,
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
    let mut clean_cfg = base.clone();
    clean_cfg.fault = FaultPlan::default();
    let clean = replay_sampled(trace, clean_cfg);

    let mut fault_cfg = base.clone();
    fault_cfg.fault = plan;
    let faulted = replay_sampled(trace, fault_cfg);

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
        assert!(
            out.mismatches == 0 && out.replay.decode_failures == 0,
            "degraded decode diverged: {out:?}"
        );
        assert_eq!(out.replay.invariant_error, None);
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
