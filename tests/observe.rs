//! Acceptance tests for the observability layer: the merged event journal
//! of a suite workload round-trips through its JSON export and replays to
//! the same aggregates the engine's own `DacceStats` reports, and the
//! metrics registry mirrors the engine counters.

use dacce::{DacceConfig, DacceRuntime};
use dacce_obs::{events_from_json, events_to_json, EventKind, JournalAggregates};
use dacce_program::Interpreter;
use dacce_workloads::{all_benchmarks, interp_config, program_of, BenchSpec, DriverConfig};

/// Runs one suite workload with journaling enabled from the first event and
/// a ring large enough to keep every record.
fn run_journaled(spec: &BenchSpec, scale: f64) -> DacceRuntime {
    let cfg = DriverConfig {
        scale,
        dacce: DacceConfig {
            journal_ring_capacity: 1 << 18,
            ..DacceConfig::default()
        },
        ..DriverConfig::default()
    };
    let program = program_of(spec);
    let icfg = interp_config(spec, &cfg);
    let mut rt = DacceRuntime::new(cfg.dacce.clone(), cfg.cost.clone());
    rt.observability().journal().set_enabled(true);
    let report = Interpreter::new(&program, icfg).run(&mut rt);
    assert_eq!(report.mismatches, 0, "workload must still validate");
    rt
}

fn bzip2() -> BenchSpec {
    all_benchmarks()
        .into_iter()
        .find(|s| s.name == "401.bzip2")
        .expect("401.bzip2 in the suite")
}

#[test]
fn journal_roundtrips_and_replays_to_engine_stats() {
    let rt = run_journaled(&bzip2(), 0.05);
    let stats = rt.stats();
    assert!(stats.reencodes > 0, "adaptive workload must re-encode");

    let batch = rt.observability().journal().drain();
    assert_eq!(batch.dropped, 0, "ring must be large enough for this run");
    assert!(!batch.events.is_empty());

    // Merged stream is ordered by global sequence number.
    for w in batch.events.windows(2) {
        assert!(w[0].seq < w[1].seq, "stream must be seq-ordered");
    }

    // JSON export round-trips losslessly.
    let json = events_to_json(&batch.events);
    let back = events_from_json(&json).expect("export must parse");
    assert_eq!(back, batch.events);

    // Replaying the stream reproduces the engine's own aggregates.
    let agg = JournalAggregates::replay(&batch.events);
    assert_eq!(agg.traps, stats.traps);
    assert_eq!(agg.reencodes, stats.reencodes);
    assert_eq!(agg.reencode_cost, stats.reencode_cost);
    assert_eq!(agg.overflow_aborts, stats.overflow_aborts);
    // Every trap discovers at most one edge, and every discovered edge of
    // the final graph was journaled.
    assert!(agg.edges_discovered <= agg.traps);
    assert_eq!(
        agg.edges_discovered,
        rt.engine().graph().edge_count() as u64
    );
    // Each applied re-encoding migrates every live thread.
    assert!(agg.migrations >= stats.reencodes - stats.overflow_aborts);
}

#[test]
fn reencode_events_carry_generation_and_cost() {
    let rt = run_journaled(&bzip2(), 0.05);
    let batch = rt.observability().journal().drain();
    let ends: Vec<_> = batch
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::ReencodeEnd {
                generation,
                applied,
                cost,
                ..
            } => Some((generation, applied, cost)),
            _ => None,
        })
        .collect();
    assert!(!ends.is_empty());
    // Applied generations are strictly increasing and costs are charged.
    let applied: Vec<u32> = ends
        .iter()
        .filter(|(_, a, _)| *a)
        .map(|(g, _, _)| *g)
        .collect();
    for w in applied.windows(2) {
        assert!(w[0] < w[1], "generations must increase");
    }
    assert!(ends.iter().all(|(_, _, c)| *c > 0));
}

#[test]
fn journaling_off_keeps_metrics_but_no_events() {
    let spec = bzip2();
    let cfg = DriverConfig {
        scale: 0.02,
        ..DriverConfig::default()
    };
    let program = program_of(&spec);
    let icfg = interp_config(&spec, &cfg);
    let mut rt = DacceRuntime::new(cfg.dacce.clone(), cfg.cost.clone());
    let _ = Interpreter::new(&program, icfg).run(&mut rt);
    let stats = rt.stats();

    let batch = rt.observability().journal().drain();
    assert!(batch.events.is_empty(), "journaling defaults to off");
    assert_eq!(batch.dropped, 0);

    // Metrics are collected regardless (they live on the slow path).
    let snap = rt.observe();
    assert_eq!(snap.traps, stats.traps);
    assert_eq!(snap.reencodes, stats.reencodes);
    assert_eq!(snap.samples, stats.samples);
    assert_eq!(snap.trap_ns.count, stats.traps);
    assert!(!snap.generations.is_empty());
    // The newest generation row was frozen at the last re-encode; edges
    // discovered since then are in the graph but not yet in any dictionary.
    let latest = snap.generations.last().unwrap();
    assert!(u64::from(latest.edges) <= rt.engine().graph().edge_count() as u64);
    assert_eq!(latest.max_id, snap.id_headroom.max_id);

    // Exports are well-formed (details are unit-tested in dacce-obs; here
    // we only guard the end-to-end plumbing).
    assert!(snap.to_json().starts_with('{'));
    assert!(snap.to_prometheus().contains("dacce_traps_total"));
}

#[test]
fn drain_is_incremental_across_phases() {
    let spec = bzip2();
    let cfg = DriverConfig {
        scale: 0.02,
        dacce: DacceConfig {
            journal_ring_capacity: 1 << 18,
            ..DacceConfig::default()
        },
        ..DriverConfig::default()
    };
    let program = program_of(&spec);
    let icfg = interp_config(&spec, &cfg);
    let mut rt = DacceRuntime::new(cfg.dacce.clone(), cfg.cost.clone());
    rt.observability().journal().set_enabled(true);
    let _ = Interpreter::new(&program, icfg).run(&mut rt);

    let first = rt.observability().journal().drain();
    let second = rt.observability().journal().drain();
    assert!(!first.events.is_empty());
    assert!(
        second.events.is_empty(),
        "drain must not replay already-drained events"
    );
}
