//! CI fault-matrix entry point: replay a recorded workload under every
//! [`FaultPlan`] preset (or one named by `DACCE_CHAOS_PRESET`) and check
//! decoded contexts against the fault-free run and the shadow stack.
//!
//! The CI `fault-matrix` job runs this test once per preset with
//! `DACCE_CHAOS_PRESET=<name>`; locally (no env var) every preset runs in
//! one pass. `DACCE_CHAOS_SCALE` scales the workload (default 0.1).

use dacce::{DacceConfig, FaultPlan};
use dacce_workloads::chaos::{chaos_trace, run_chaos_plan};
use dacce_workloads::{family_trace, BenchSpec, DriverConfig};

fn scale() -> f64 {
    std::env::var("DACCE_CHAOS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.1)
}

#[test]
fn fault_matrix_presets_are_sound() {
    let cfg = DriverConfig {
        scale: scale(),
        ..DriverConfig::default()
    };
    // Two recursion-heavy tiny specs, plus the server and thread-churn
    // families, whose work all runs on spawned threads: their samples
    // exercise spawn-context decode under faults.
    let mut workloads: Vec<(&str, _)> = ["chaos-ci-a", "chaos-ci-b"]
        .into_iter()
        .zip([17, 23])
        .map(|(name, seed)| (name, chaos_trace(&BenchSpec::tiny(name, seed), &cfg)))
        .collect();
    let spawning = ["server-rr", "thread-churn"];
    for name in spawning {
        let trace = family_trace(name, 41, (scale() * 0.4).max(0.01)).expect("family");
        workloads.push((name, trace));
    }
    // Eager re-encoding so generation-targeted faults (aborts, exhaustion)
    // actually see re-encodings on a CI-sized trace.
    let base = DacceConfig {
        edge_threshold: 4,
        min_events_between_reencodes: 32,
        ..DacceConfig::default()
    };

    let only = std::env::var("DACCE_CHAOS_PRESET").ok();
    let presets: Vec<(&'static str, FaultPlan)> = match &only {
        Some(name) => {
            let plan = FaultPlan::preset(name)
                .unwrap_or_else(|| panic!("unknown DACCE_CHAOS_PRESET {name:?}"));
            vec![(
                FaultPlan::presets()
                    .into_iter()
                    .find(|(n, _)| n == name)
                    .expect("preset exists")
                    .0,
                plan,
            )]
        }
        None => FaultPlan::presets(),
    };

    for (wname, trace) in &workloads {
        for (name, plan) in &presets {
            let out = run_chaos_plan(trace, &base, name, plan.clone());
            assert!(
                out.samples > 0,
                "{wname}/{name}: no sample points — workload too small"
            );
            assert_eq!(
                out.mismatches, 0,
                "{wname}/{name}: {} of {} decoded contexts diverged from the fault-free run",
                out.mismatches, out.samples
            );
            assert_eq!(
                out.replay.decode_failures, 0,
                "{wname}/{name}: contexts failed to decode under injected faults"
            );
            assert_eq!(
                out.replay.shadow_mismatches, 0,
                "{wname}/{name}: {} of {} decoded contexts differ from the trace's shadow stack",
                out.replay.shadow_mismatches, out.samples
            );
            // Threads shorter than the sample cadence are decoded at exit:
            // the spawning families decode every spawned thread's context
            // there, and the shadow check above covers those samples too.
            assert!(
                !spawning.contains(wname) || out.replay.spawned_exit_samples > 0,
                "{wname}/{name}: no spawned thread was decoded at its exit"
            );
            assert_eq!(
                out.replay.invariant_error, None,
                "{wname}/{name}: post-run invariants violated"
            );
            // The stats view reads its counts from the metrics registry:
            // after the drain, the two must agree on every one of them.
            let (s, m) = (&out.replay.stats, out.replay.obs.snapshot());
            let d = &s.degraded;
            let counts = [
                ("traps", s.traps, m.traps),
                ("reencodes", s.reencodes, m.reencodes),
                ("reencode_cost", s.reencode_cost, m.reencode_cost.sum),
                ("overflow_aborts", s.overflow_aborts, m.reencode_aborts),
                ("samples", s.samples, m.samples),
                ("icache_hits", s.icache_hits, m.icache_hits),
                ("icache_misses", s.icache_misses, m.icache_misses),
                ("superop_hits", s.superop_hits, m.superop_hits),
                ("superop_misses", s.superop_misses, m.superop_misses),
                ("degraded_traps", d.degraded_traps, m.degraded_traps),
                ("reencode_retries", d.reencode_retries, m.reencode_retries),
                ("cc_spill_events", d.cc_spill_events, m.cc_spills),
                ("lock_poisonings", d.lock_poisonings, m.lock_poisonings),
                ("slot_failures", d.slot_failures, m.slot_failures),
            ];
            for (what, stat, metric) in counts {
                assert_eq!(
                    stat, metric,
                    "{wname}/{name}: stats and metrics disagree on {what}"
                );
            }
        }
    }
}
