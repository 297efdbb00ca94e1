//! CI fault-matrix entry point: replay a recorded workload under every
//! [`FaultPlan`] preset (or one named by `DACCE_CHAOS_PRESET`) and
//! differentially check decoded contexts against the fault-free run.
//!
//! The CI `fault-matrix` job runs this test once per preset with
//! `DACCE_CHAOS_PRESET=<name>`; locally (no env var) every preset runs in
//! one pass. `DACCE_CHAOS_SCALE` scales the workload (default 0.1).

use dacce::{DacceConfig, FaultPlan};
use dacce_workloads::chaos::{chaos_trace, run_chaos_plan};
use dacce_workloads::{BenchSpec, DriverConfig};

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
    // Two workload shapes: a recursion-heavy tiny spec and a threaded one
    // (spawned threads exercise spawn-context decode under faults).
    let specs = [
        BenchSpec::tiny("chaos-ci-a", 17),
        BenchSpec::tiny("chaos-ci-b", 23),
    ];
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

    for spec in &specs {
        let trace = chaos_trace(spec, &cfg);
        for (name, plan) in &presets {
            let out = run_chaos_plan(&trace, &base, name, plan.clone());
            assert!(
                out.samples > 0,
                "{}/{name}: no sample points — workload too small",
                spec.name
            );
            assert_eq!(
                out.mismatches, 0,
                "{}/{name}: {} of {} decoded contexts diverged from the fault-free run",
                spec.name, out.mismatches, out.samples
            );
            assert_eq!(
                out.replay.decode_failures, 0,
                "{}/{name}: contexts failed to decode under injected faults",
                spec.name
            );
            assert_eq!(
                out.replay.invariant_error, None,
                "{}/{name}: post-run invariants violated",
                spec.name
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
                    "{}/{name}: stats and metrics disagree on {what}",
                    spec.name
                );
            }
        }
    }
}
