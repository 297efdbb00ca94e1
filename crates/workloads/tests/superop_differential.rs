//! Differential tests for superop path memoization.
//!
//! Superops are a pure perf play: a compiled window replays the net
//! effect of its events without running them, so every observable the
//! per-event loop produces must be unchanged. These tests run every
//! suite workload and chaos-style tiny workloads twice — superops off
//! vs on — and demand byte-identical decoded sample paths, zero decode
//! failures and clean invariants on both variants. A re-encode storm
//! config drives repeated republishes mid-run, so the on-variant also
//! proves that epoch invalidation of compiled superops never corrupts
//! a context.

use dacce::DacceConfig;
use dacce_workloads::{
    all_benchmarks, chaos_trace, replay_sampled, replay_sampled_superops, BenchSpec, ChaosReplay,
    DriverConfig,
};

fn scale() -> f64 {
    std::env::var("DACCE_SUPEROP_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.02)
}

/// Replays `trace` with superops off and on and checks the differential
/// contract: same sample points, same decoded paths, no decode failures,
/// no invariant violations. Returns the on-variant replay for extra
/// per-test assertions.
fn check_differential(
    name: &str,
    trace: &dacce_workloads::WorkloadTrace,
    cfg: &DacceConfig,
) -> ChaosReplay {
    let off = replay_sampled(trace, cfg.clone());
    let on = replay_sampled_superops(trace, cfg.clone());
    assert_eq!(off.decode_failures, 0, "{name}: off-variant decodes");
    assert_eq!(on.decode_failures, 0, "{name}: on-variant decodes");
    assert_eq!(
        off.paths.len(),
        on.paths.len(),
        "{name}: both variants sample the same program points"
    );
    for (i, (a, b)) in off.paths.iter().zip(&on.paths).enumerate() {
        assert_eq!(
            a, b,
            "{name}: superops changed decoded context at sample {i}"
        );
    }
    assert_eq!(off.invariant_error, None, "{name}: off-variant invariants");
    assert_eq!(on.invariant_error, None, "{name}: on-variant invariants");
    assert_eq!(
        off.stats.superop_hits, 0,
        "{name}: off-variant must never execute a superop"
    );
    on
}

#[test]
fn superops_preserve_decoded_contexts_on_every_suite_workload() {
    let cfg = DriverConfig {
        scale: scale(),
        ..DriverConfig::default()
    };
    // Eager re-encoding so compiled tables get invalidated mid-run on
    // workloads with enough distinct edges.
    let dacce_cfg = DacceConfig {
        edge_threshold: 4,
        min_events_between_reencodes: 64,
        ..DacceConfig::default()
    };
    let mut total_hits = 0u64;
    for spec in all_benchmarks() {
        let trace = chaos_trace(&spec, &cfg);
        let on = check_differential(spec.name, &trace, &dacce_cfg);
        total_hits += on.stats.superop_hits;
    }
    assert!(
        total_hits > 0,
        "the suite sweep must execute at least one superop"
    );
}

#[test]
fn reencode_storm_invalidates_superops_without_corrupting_contexts() {
    let cfg = DriverConfig {
        scale: scale().max(0.05),
        ..DriverConfig::default()
    };
    // A storm config: tiny edge threshold and re-encode interval force
    // republish after republish while compiled superops are live.
    let storm = DacceConfig {
        edge_threshold: 2,
        min_events_between_reencodes: 16,
        ..DacceConfig::default()
    };
    // Phase-shifting specs with late-binding libraries: the superop
    // harness warms (and installs) on the leading third of the trace, so
    // the phase-1 hot-callee swap and PLT bindings land as new edges
    // while compiled superops are live.
    let storm_spec = |name: &'static str, seed: u64| {
        let mut s = BenchSpec::tiny(name, seed);
        s.phase_shift = true;
        s.late_libs = true;
        s.lib_functions = 8;
        s.plt_sites = 4;
        s
    };
    let specs = [
        storm_spec("superop-storm-a", 37),
        storm_spec("superop-storm-b", 41),
    ];
    let mut total_hits = 0u64;
    let mut total_invalidations = 0u64;
    for spec in &specs {
        let trace = chaos_trace(spec, &cfg);
        let on = check_differential(spec.name, &trace, &storm);
        total_hits += on.stats.superop_hits;
        total_invalidations += on.obs.snapshot().superop_invalidations;
        assert!(
            on.obs.snapshot().superop_republishes > 0,
            "{}: the storm config must republish with superops installed",
            spec.name
        );
    }
    assert!(total_hits > 0, "storm runs must still hit superops");
    assert!(
        total_invalidations > 0,
        "a re-encode storm must invalidate compiled superops at least once"
    );
}

#[test]
fn superops_disabled_config_behaves_like_plain_replay() {
    let cfg = DriverConfig {
        scale: scale(),
        ..DriverConfig::default()
    };
    let off_cfg = DacceConfig {
        superops_enabled: false,
        ..DacceConfig::default()
    };
    let trace = chaos_trace(&BenchSpec::tiny("superop-off", 43), &cfg);
    let on = check_differential("superop-off", &trace, &off_cfg);
    assert_eq!(
        on.obs.snapshot().superop_compiled,
        0,
        "disabled config must compile nothing"
    );
    assert_eq!(
        on.stats.superop_hits, 0,
        "disabled config must never hit a superop"
    );
}
