//! `dacce-top` — live introspection of a DACCE run.
//!
//! Runs one workload from the suite under the DACCE runtime with the event
//! journal enabled and renders a periodically refreshing health view:
//! event rates per kind, trap-latency / ccStack-depth / re-encode-cost
//! histogram sketches, the per-generation dictionary table, id headroom,
//! and — once the run completes — the hottest calling contexts
//! reconstructed from the sample log.
//!
//! ```text
//! cargo run -p dacce-bench --release --bin dacce-top -- --bench 401.bzip2
//! cargo run -p dacce-bench --release --bin dacce-top -- \
//!     --bench 400.perlbench --json --require-reencodes > top.json
//! ```
//!
//! `--json` skips the live view and emits a single machine-readable
//! document on stdout (the CI `observe` job consumes this);
//! `--require-reencodes` makes the process exit non-zero when the journal
//! recorded no re-encode events — a canary for adaptivity being wired off.
//! In JSON mode `--prom-out`/`--export-out` additionally write the final
//! Prometheus metrics export and `dacce-export v1` engine state, the input
//! pair for `dacce-lint --metrics`; `--flame` writes the continuous
//! profiler's samples as a collapsed-stack flame file (`dacce-flame`
//! merges them fleet-wide), `--journal-out` dumps the run's journal
//! events as JSON (decodable offline by `dacce-flame --export`), and
//! `--postmortem-out` forces a flight-recorder dump and writes it (the
//! input for `dacce-lint --postmortem`).
//!
//! `--decode-stats` switches to the offline-decode report: the selected
//! workload (a suite benchmark or one of the production families from
//! `dacce_workloads::families`) is recorded into an effect journal with
//! seam seeds, then decoded serially and fragment-parallel
//! ([`dacce::decode_parallel`] at `--workers N`, default 4); the report
//! covers journal size, fragment/seam accounting and the two decode
//! costs. `--json` emits it as one machine-readable document, and
//! `--journal-out` in this mode writes the recorded `dacce-journal v1`
//! text — the input for `dacce-lint --fragments`. Exits non-zero if the
//! parallel decode diverges from the serial reference.
//!
//! ```text
//! cargo run -p dacce-bench --release --bin dacce-top -- \
//!     --bench server-rr --decode-stats --workers 4
//! ```
//!
//! `--fleet N` switches to the multi-tenant view: N tenants of one shared
//! program run under a [`dacce_fleet::Fleet`], their journals and metrics
//! merged through a [`dacce_obs::FleetPump`] into one labeled surface
//! (per-tenant `tenant="…"` rows, `dacce_fleet_` aggregates):
//!
//! ```text
//! cargo run -p dacce-bench --release --bin dacce-top -- --fleet 8
//! cargo run -p dacce-bench --release --bin dacce-top -- \
//!     --fleet 8 --json --prom-out fleet.prom > fleet.json
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dacce::{DacceConfig, DacceRuntime, HotContextProfile, Tracker};
use dacce_fleet::{DefEdge, Fleet, ProgramDef, TenantId};
use dacce_obs::{
    events_to_json, merge_by_lineage, EventKind, EventRecord, FlameGraph, FleetPump,
    JournalAggregates, MetricsSnapshot,
};
use dacce_program::{ContextPath, Interpreter, Program, RunReport};
use dacce_workloads::{all_benchmarks, interp_config, program_of, BenchSpec, DriverConfig};

struct TopOptions {
    bench: String,
    scale: f64,
    json: bool,
    interval_ms: u64,
    require_reencodes: bool,
    top: usize,
    /// Run the multi-tenant fleet view with this many tenants.
    fleet: Option<usize>,
    /// Write the final Prometheus metrics export here (JSON mode only).
    prom_out: Option<String>,
    /// Write the final `dacce-export v1` engine state here (JSON mode
    /// only). Together with `--prom-out` this feeds `dacce-lint --metrics`.
    export_out: Option<String>,
    /// Write the profiler's flame graph (collapsed-stack text) here.
    /// JSON mode, plus fleet mode where tenants merge by lineage.
    flame_out: Option<String>,
    /// Write the run's journal events as JSON here (JSON mode only).
    journal_out: Option<String>,
    /// Force a flight-recorder dump after the run and write it here
    /// (JSON mode only). If the run already tripped the recorder (e.g.
    /// under `--chaos`), that earlier dump is written instead — first
    /// capture wins.
    postmortem_out: Option<String>,
    /// Run under a named [`dacce::FaultPlan`] preset, so degradation
    /// paths (and the flight recorder) fire deterministically.
    chaos: Option<String>,
    /// Record the workload into a decode journal and report offline
    /// serial vs fragment-parallel decode statistics instead of the
    /// live health view.
    decode_stats: bool,
    /// Worker count for the `--decode-stats` parallel decode.
    workers: usize,
}

impl Default for TopOptions {
    fn default() -> Self {
        TopOptions {
            bench: "401.bzip2".to_string(),
            scale: 0.05,
            json: false,
            interval_ms: 500,
            require_reencodes: false,
            top: 10,
            fleet: None,
            prom_out: None,
            export_out: None,
            flame_out: None,
            journal_out: None,
            postmortem_out: None,
            chaos: None,
            decode_stats: false,
            workers: 4,
        }
    }
}

impl TopOptions {
    fn from_args() -> TopOptions {
        let mut o = TopOptions::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--bench" => o.bench = args.next().expect("--bench needs a name"),
                "--scale" => {
                    o.scale = args
                        .next()
                        .expect("--scale needs a value")
                        .parse()
                        .expect("--scale needs a number");
                }
                "--interval-ms" => {
                    o.interval_ms = args
                        .next()
                        .expect("--interval-ms needs a value")
                        .parse()
                        .expect("--interval-ms needs an integer");
                }
                "--top" => {
                    o.top = args
                        .next()
                        .expect("--top needs a value")
                        .parse()
                        .expect("--top needs an integer");
                }
                "--fleet" => {
                    o.fleet = Some(
                        args.next()
                            .expect("--fleet needs a tenant count")
                            .parse()
                            .expect("--fleet needs an integer"),
                    );
                }
                "--json" => o.json = true,
                "--require-reencodes" => o.require_reencodes = true,
                "--prom-out" => o.prom_out = Some(args.next().expect("--prom-out needs a path")),
                "--export-out" => {
                    o.export_out = Some(args.next().expect("--export-out needs a path"));
                }
                "--flame" => o.flame_out = Some(args.next().expect("--flame needs a path")),
                "--journal-out" => {
                    o.journal_out = Some(args.next().expect("--journal-out needs a path"));
                }
                "--postmortem-out" => {
                    o.postmortem_out = Some(args.next().expect("--postmortem-out needs a path"));
                }
                "--chaos" => o.chaos = Some(args.next().expect("--chaos needs a preset name")),
                "--decode-stats" => o.decode_stats = true,
                "--workers" => {
                    o.workers = args
                        .next()
                        .expect("--workers needs a value")
                        .parse()
                        .expect("--workers needs an integer");
                }
                other => panic!(
                    "unknown argument {other}; use \
                     --bench/--scale/--fleet/--json/--interval-ms/--top\
                     /--require-reencodes/--prom-out/--export-out\
                     /--flame/--journal-out/--postmortem-out/--chaos\
                     /--decode-stats/--workers"
                ),
            }
        }
        o
    }
}

fn main() {
    let opts = TopOptions::from_args();
    if opts.decode_stats {
        let ok = run_decode_stats(&opts);
        std::process::exit(i32::from(!ok));
    }
    if let Some(tenants) = opts.fleet {
        let ok = run_fleet(&opts, tenants.max(1));
        std::process::exit(i32::from(!ok));
    }
    let spec = all_benchmarks()
        .into_iter()
        .find(|s| s.name.contains(&opts.bench))
        .unwrap_or_else(|| panic!("no suite benchmark matches {:?}", opts.bench));

    let fault = match &opts.chaos {
        None => dacce::FaultPlan::default(),
        Some(name) => dacce::FaultPlan::preset(name)
            .unwrap_or_else(|| panic!("no fault-plan preset named {name:?}")),
    };
    let cfg = DriverConfig {
        scale: opts.scale,
        keep_sample_log: true,
        dacce: DacceConfig {
            journal_ring_capacity: 1 << 16,
            keep_sample_log: true,
            fault,
            ..DacceConfig::default()
        },
        ..DriverConfig::default()
    };
    let program = program_of(&spec);
    let icfg = interp_config(&spec, &cfg);
    let mut rt = DacceRuntime::new(cfg.dacce.clone(), cfg.cost.clone());
    let obs = rt.observability().clone();
    obs.journal().set_enabled(true);

    if opts.json {
        let report = Interpreter::new(&program, icfg).run(&mut rt);
        // Capture the postmortem before draining: the flight recorder
        // peeks the ring, so the dump carries the events the drain is
        // about to consume. A dump the run already tripped (degraded
        // entry, re-encode abort) wins over the forced one.
        if opts.postmortem_out.is_some() {
            rt.engine_mut().force_postmortem("operator-requested");
        }
        let batch = obs.journal().drain();
        let by_kind = count_by_kind(&batch.events);
        let ok = finish_json(
            &opts,
            &spec,
            &program,
            &report,
            &rt,
            &batch.events,
            &by_kind,
        );
        if let Some(path) = &opts.prom_out {
            write_creating_dirs(path, &rt.observe().to_prometheus());
        }
        if let Some(path) = &opts.export_out {
            write_creating_dirs(path, &dacce::export_state(rt.engine()));
        }
        if let Some(path) = &opts.flame_out {
            let graph = flame_of_engine(rt.engine(), |f| program.name(f).to_string());
            write_creating_dirs(path, &graph.to_collapsed());
        }
        if let Some(path) = &opts.journal_out {
            write_creating_dirs(path, &events_to_json(&batch.events));
        }
        if let Some(path) = &opts.postmortem_out {
            let dump = rt.engine().postmortem().expect("captured above");
            write_creating_dirs(path, dump);
        }
        std::process::exit(i32::from(!ok));
    }

    // Live mode: the workload runs on a worker thread; the main thread
    // renders from the shared observability handle.
    let (tx, rx) = mpsc::channel::<(RunReport, DacceRuntime)>();
    let worker = std::thread::spawn(move || {
        let report = Interpreter::new(&program, icfg).run(&mut rt);
        tx.send((report, rt)).expect("main thread alive");
    });

    let started = Instant::now();
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut events_total = 0u64;
    let (report, rt) = loop {
        match rx.recv_timeout(Duration::from_millis(opts.interval_ms)) {
            Ok(done) => break done,
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("workload thread died"),
        }
        let batch = obs.journal().drain();
        let fresh = count_by_kind(&batch.events);
        for (k, v) in &fresh {
            *totals.entry(k).or_insert(0) += v;
        }
        events_total += batch.events.len() as u64;
        let screen = render_live(
            &spec,
            started.elapsed(),
            &obs.snapshot(),
            &fresh,
            &totals,
            events_total,
            opts.interval_ms,
        );
        // Clear + home, then the frame.
        print!("\x1b[2J\x1b[H{screen}");
    };
    worker.join().expect("workload thread joins");

    // Final drain + summary (plain, no ANSI — it should survive in logs).
    let batch = obs.journal().drain();
    let fresh = count_by_kind(&batch.events);
    for (k, v) in &fresh {
        *totals.entry(k).or_insert(0) += v;
    }
    events_total += batch.events.len() as u64;
    let snap = obs.snapshot();
    println!("\x1b[2J\x1b[H");
    println!(
        "dacce-top — {} finished in {:.2}s ({} calls, overhead {:.3})",
        spec.name,
        started.elapsed().as_secs_f64(),
        report.calls,
        report.overhead()
    );
    let journal = obs.journal();
    println!(
        "journal: {events_total} events ({} dropped; {} rings for {} writers)",
        snap.journal_dropped,
        journal.ring_count(),
        journal.writer_count()
    );
    for (kind, n) in &totals {
        println!("  {kind:<16} {n}");
    }
    print!("{}", render_health(&snap));
    // The program was moved into the worker; regenerate it (deterministic
    // from the spec) to resolve function names for the context tree.
    let program = program_of(&spec);
    print!(
        "{}",
        render_hottest(rt.engine(), opts.top, |f| program.name(f).to_string())
    );
}

fn write_creating_dirs(path: &str, contents: &str) {
    let path = std::path::Path::new(path);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

fn count_by_kind(events: &[EventRecord]) -> BTreeMap<&'static str, u64> {
    let mut map = BTreeMap::new();
    for ev in events {
        *map.entry(ev.kind.name()).or_insert(0) += 1;
    }
    map
}

fn render_live(
    spec: &BenchSpec,
    elapsed: Duration,
    snap: &MetricsSnapshot,
    fresh: &BTreeMap<&'static str, u64>,
    totals: &BTreeMap<&'static str, u64>,
    events_total: u64,
    interval_ms: u64,
) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "dacce-top — {}  [{:.1}s]  journal {} events ({} dropped)",
        spec.name,
        elapsed.as_secs_f64(),
        events_total,
        snap.journal_dropped
    );
    let _ = writeln!(s, "\nevent rates (last {interval_ms} ms):");
    let _ = writeln!(
        s,
        "  {:<16} {:>10} {:>12} {:>10}",
        "kind", "rate/s", "tick", "total"
    );
    let secs = (interval_ms as f64 / 1000.0).max(1e-9);
    for name in EventKind::all_names() {
        let tick = fresh.get(name).copied().unwrap_or(0);
        let total = totals.get(name).copied().unwrap_or(0);
        if total == 0 {
            continue;
        }
        let _ = writeln!(
            s,
            "  {name:<16} {:>10.1} {tick:>12} {total:>10}",
            tick as f64 / secs
        );
    }
    s.push_str(&render_health(snap));
    s
}

/// The histogram / dictionary-table / headroom section shared by the live
/// frame and the final summary.
fn render_health(snap: &MetricsSnapshot) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "\ncounters: traps {} · edges {} · reencodes {} ({} aborted) · \
         migrations {} · samples {} · ccStack overflows {}",
        snap.traps,
        snap.edges_discovered,
        snap.reencodes,
        snap.reencode_aborts,
        snap.migrations,
        snap.samples,
        snap.cc_overflows
    );
    if snap.profiler_samples > 0 {
        let _ = writeln!(
            s,
            "profiler: {} samples (weight {})",
            snap.profiler_samples, snap.profiler_sample_weight
        );
    }
    let ic_total = snap.icache_hits + snap.icache_misses;
    let _ = writeln!(
        s,
        "dispatch: {} slots over span {} ({:.1}% dense) · inline cache {} ({} hit / {} miss)",
        snap.dispatch_slots,
        snap.dispatch_span,
        percent(snap.dispatch_slots, snap.dispatch_span),
        if ic_total == 0 {
            "idle".to_string()
        } else {
            format!("{:.1}% hit", percent(snap.icache_hits, ic_total))
        },
        snap.icache_hits,
        snap.icache_misses
    );
    let so_probes = snap.superop_hits + snap.superop_misses;
    if snap.superop_compiled + snap.superop_candidates + so_probes + snap.superop_invalidations > 0
    {
        let _ = writeln!(
            s,
            "superops: {}/{} candidates compiled ({:.1}% occupancy) · probes {} · \
             {} hit / {} miss ({:.1}% hit) · invalidations {} over {} republishes \
             ({:.2}/republish)",
            snap.superop_compiled,
            snap.superop_candidates,
            percent(snap.superop_compiled, snap.superop_candidates),
            so_probes,
            snap.superop_hits,
            snap.superop_misses,
            percent(snap.superop_hits, so_probes),
            snap.superop_invalidations,
            snap.superop_republishes,
            ratio(snap.superop_invalidations, snap.superop_republishes)
        );
    }
    let degraded_any = snap.degraded_traps
        + snap.reencode_retries
        + snap.cc_spills
        + snap.lock_poisonings
        + snap.slot_failures
        > 0;
    if degraded_any {
        let _ = writeln!(
            s,
            "degraded: traps {} · reencode retries {} · ccStack spills {} · \
             lock poisonings {} · slot failures {}",
            snap.degraded_traps,
            snap.reencode_retries,
            snap.cc_spills,
            snap.lock_poisonings,
            snap.slot_failures
        );
    }
    for (label, h) in [
        ("trap latency ns", &snap.trap_ns),
        ("reencode cost", &snap.reencode_cost),
        ("ccStack depth", &snap.cc_depth),
        ("sampled ids", &snap.sampled_ids),
    ] {
        if h.count == 0 {
            continue;
        }
        let _ = writeln!(
            s,
            "{label:<16} [{}] n={} mean={:.1} p50={} p95={} p99={} max={}",
            h.sketch(),
            h.count,
            h.mean(),
            h.quantile(0.5),
            h.quantile(0.95),
            h.quantile(0.99),
            h.max
        );
    }
    let _ = writeln!(
        s,
        "\ndictionaries ({} generations):",
        snap.generations.len()
    );
    let _ = writeln!(
        s,
        "  {:>4} {:>8} {:>8} {:>14} {:>10}",
        "gen", "nodes", "edges", "maxID", "cost"
    );
    // The table can grow long on eager configs; show the newest entries.
    for g in snap.generations.iter().rev().take(12).rev() {
        let _ = writeln!(
            s,
            "  {:>4} {:>8} {:>8} {:>14} {:>10}",
            g.generation, g.nodes, g.edges, g.max_id, g.cost
        );
    }
    let _ = writeln!(
        s,
        "id headroom: maxID {} uses {}/64 bits ({} spare)",
        snap.id_headroom.max_id, snap.id_headroom.bits_used, snap.id_headroom.bits_spare
    );
    s
}

/// `part / whole`; 0 when `whole` is 0.
fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// `part` as a percentage of `whole`; 0 when `whole` is 0.
fn percent(part: u64, whole: u64) -> f64 {
    100.0 * ratio(part, whole)
}

/// Decodes the continuous profiler's weighted samples into a flame graph
/// (collapsed-stack folds, root-first frames).
fn flame_of_engine(
    engine: &dacce::DacceEngine,
    mut name: impl FnMut(dacce_callgraph::FunctionId) -> String,
) -> FlameGraph {
    let mut graph = FlameGraph::new(0);
    for (ctx, weight) in engine.profiler_samples() {
        if let Ok(path) = engine.decode(ctx) {
            let frames: Vec<String> = path.0.iter().map(|st| name(st.func)).collect();
            graph.add(&frames, *weight);
        }
    }
    graph
}

/// Renders a tenant's profiler profile as a flame graph tagged with the
/// fleet lineage hash, so fleet-wide merges group by encoding history.
fn flame_of_profile(
    profile: &HotContextProfile,
    lineage: u64,
    mut name: impl FnMut(dacce_callgraph::FunctionId) -> String,
) -> FlameGraph {
    let mut graph = FlameGraph::new(lineage);
    for (path, weight) in profile.top(profile.distinct()) {
        let frames: Vec<String> = path.0.iter().map(|st| name(st.func)).collect();
        graph.add(&frames, weight);
    }
    graph
}

/// Decodes the retained sample log into a hot-context profile and renders
/// the top of it.
fn render_hottest(
    engine: &dacce::DacceEngine,
    top: usize,
    mut name: impl FnMut(dacce_callgraph::FunctionId) -> String,
) -> String {
    let mut profile = HotContextProfile::new();
    for ctx in engine.sample_log() {
        if let Ok(path) = engine.decode(ctx) {
            profile.record(&path);
        }
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "\nhottest contexts ({} samples, {} distinct):",
        profile.total(),
        profile.distinct()
    );
    for (path, weight) in profile.top(top) {
        let _ = writeln!(s, "  {weight:>8}  {}", format_path(&path, &mut name));
    }
    s
}

fn format_path(
    path: &ContextPath,
    name: &mut impl FnMut(dacce_callgraph::FunctionId) -> String,
) -> String {
    path.0
        .iter()
        .map(|st| name(st.func))
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// Emits the one-shot JSON document and returns whether the health checks
/// passed.
fn finish_json(
    opts: &TopOptions,
    spec: &BenchSpec,
    program: &Program,
    report: &RunReport,
    rt: &DacceRuntime,
    events: &[EventRecord],
    by_kind: &BTreeMap<&'static str, u64>,
) -> bool {
    let snap = rt.observe();
    let journal = rt.observability().journal();
    let agg = JournalAggregates::replay(events);
    let stats = rt.stats();

    let mut profile = HotContextProfile::new();
    for ctx in rt.engine().sample_log() {
        if let Ok(path) = rt.engine().decode(ctx) {
            profile.record(&path);
        }
    }
    let mut hottest = String::from("[");
    for (i, (path, weight)) in profile.top(opts.top).iter().enumerate() {
        if i > 0 {
            hottest.push(',');
        }
        let rendered = path
            .0
            .iter()
            .map(|st| program.name(st.func).to_string())
            .collect::<Vec<_>>()
            .join(" -> ");
        let _ = write!(hottest, "{{\"weight\":{weight},\"path\":\"{rendered}\"}}");
    }
    hottest.push(']');

    let mut kinds = String::from("{");
    for (i, (k, v)) in by_kind.iter().enumerate() {
        if i > 0 {
            kinds.push(',');
        }
        let _ = write!(kinds, "\"{k}\":{v}");
    }
    kinds.push('}');

    println!(
        "{{\"workload\":\"{}\",\"scale\":{},\"calls\":{},\"overhead\":{:.6},\
         \"stats\":{{\"traps\":{},\"reencodes\":{},\"reencode_cost\":{},\
         \"overflow_aborts\":{},\"samples\":{},\"decode_errors\":{},\
         \"profiler_samples\":{},\"profiler_sample_weight\":{}}},\
         \"journal\":{{\"events\":{},\"dropped\":{},\"rings\":{},\"writers\":{},\
         \"by_kind\":{}}},\
         \"replay\":{{\"traps\":{},\"reencodes\":{},\"migrations\":{}}},\
         \"dispatch\":{{\"slots\":{},\"span\":{},\"occupancy\":{:.4},\
         \"icache_hits\":{},\"icache_misses\":{},\"icache_hit_rate\":{:.4}}},\
         \"superops\":{{\"compiled\":{},\"candidates\":{},\"occupancy\":{:.4},\
         \"hits\":{},\"misses\":{},\"hit_rate\":{:.4},\"invalidations\":{},\
         \"republishes\":{},\"invalidations_per_republish\":{:.4}}},\
         \"degraded\":{{\"active\":{},\"trap_nodes\":{},\"traps\":{},\
         \"reencode_retries\":{},\"cc_spill_events\":{},\"cc_spilled_peak\":{},\
         \"lock_poisonings\":{},\"slot_failures\":{},\"batch_errors\":{}}},\
         \"metrics\":{},\"hottest\":{}}}",
        spec.name,
        opts.scale,
        report.calls,
        report.overhead(),
        stats.traps,
        stats.reencodes,
        stats.reencode_cost,
        stats.overflow_aborts,
        stats.samples,
        stats.decode_errors,
        snap.profiler_samples,
        snap.profiler_sample_weight,
        events.len(),
        snap.journal_dropped,
        journal.ring_count(),
        journal.writer_count(),
        kinds,
        agg.traps,
        agg.reencodes,
        agg.migrations,
        snap.dispatch_slots,
        snap.dispatch_span,
        ratio(snap.dispatch_slots, snap.dispatch_span),
        snap.icache_hits,
        snap.icache_misses,
        ratio(snap.icache_hits, snap.icache_hits + snap.icache_misses),
        snap.superop_compiled,
        snap.superop_candidates,
        ratio(snap.superop_compiled, snap.superop_candidates),
        snap.superop_hits,
        snap.superop_misses,
        ratio(snap.superop_hits, snap.superop_hits + snap.superop_misses),
        snap.superop_invalidations,
        snap.superop_republishes,
        ratio(snap.superop_invalidations, snap.superop_republishes),
        stats.degraded.active,
        stats.degraded.trap_nodes.len(),
        stats.degraded.degraded_traps,
        stats.degraded.reencode_retries,
        stats.degraded.cc_spill_events,
        stats.degraded.cc_spilled_peak,
        stats.degraded.lock_poisonings,
        stats.degraded.slot_failures,
        stats.degraded.batch_errors,
        snap.to_json(),
        hottest
    );

    if opts.require_reencodes && agg.reencodes == 0 {
        eprintln!(
            "dacce-top: --require-reencodes: journal recorded no re-encode \
             events on {}",
            spec.name
        );
        return false;
    }
    true
}

// ---------------------------------------------------------------------------
// Offline decode statistics (`--decode-stats`)
// ---------------------------------------------------------------------------

/// Records the selected workload into an effect journal, decodes it both
/// serially and fragment-parallel, and reports the comparison. Returns
/// whether the parallel decode matched the serial reference byte for
/// byte.
fn run_decode_stats(opts: &TopOptions) -> bool {
    use dacce::{decode_parallel, decode_serial};
    use dacce_workloads::chaos::chaos_trace;
    use dacce_workloads::{family_trace, record_journal};

    let fault = match &opts.chaos {
        None => dacce::FaultPlan::default(),
        Some(name) => dacce::FaultPlan::preset(name)
            .unwrap_or_else(|| panic!("no fault-plan preset named {name:?}")),
    };
    // Production families resolve by exact name; anything else matches a
    // suite benchmark, same as the live view.
    let (name, trace) = match family_trace(&opts.bench, 41, opts.scale) {
        Some(trace) => (opts.bench.clone(), trace),
        None => {
            let spec = all_benchmarks()
                .into_iter()
                .find(|s| s.name.contains(&opts.bench))
                .unwrap_or_else(|| {
                    panic!(
                        "no suite benchmark or workload family matches {:?}",
                        opts.bench
                    )
                });
            let cfg = DriverConfig {
                scale: opts.scale,
                ..DriverConfig::default()
            };
            (spec.name.to_string(), chaos_trace(&spec, &cfg))
        }
    };

    let config = DacceConfig {
        edge_threshold: 4,
        min_events_between_reencodes: 256,
        fault,
        ..DacceConfig::default()
    };
    let run = record_journal(&trace, config, 512);
    let ops = run.journal.ops().max(1) as f64;
    let dec = dacce::import(&run.export).expect("journal export parses");
    if let Some(path) = &opts.journal_out {
        write_creating_dirs(path, &run.journal.to_text());
    }

    let workers = opts.workers.max(1);
    let mut serial_ns = f64::INFINITY;
    let mut serial = None;
    let mut parallel_ns = f64::INFINITY;
    let mut parallel = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let out = decode_serial(&run.journal, &dec).expect("journal replays");
        serial_ns = serial_ns.min(t0.elapsed().as_nanos() as f64 / ops);
        serial = Some(out);
        let t0 = Instant::now();
        let got = decode_parallel(&run.journal, &dec, workers).expect("journal replays");
        parallel_ns = parallel_ns.min(t0.elapsed().as_nanos() as f64 / ops);
        parallel = Some(got);
    }
    let serial = serial.expect("serial decode ran");
    let (parallel, report) = parallel.expect("parallel decode ran");
    let identical = parallel == serial;

    if opts.json {
        println!(
            "{{\"workload\":\"{name}\",\"scale\":{},\"decode\":{{\
             \"ops\":{},\"decode_points\":{},\"resyncs\":{},\
             \"fragments\":{},\"seams_verified\":{},\"seam_failures\":{},\
             \"fallback_fragments\":{},\"workers\":{},\
             \"serial_ns_per_op\":{serial_ns:.2},\
             \"parallel_ns_per_op\":{parallel_ns:.2},\
             \"speedup\":{:.4},\"identical\":{identical}}}}}",
            opts.scale,
            run.journal.ops(),
            run.journal.samples(),
            run.resyncs,
            report.fragments,
            report.seams_verified,
            report.seam_failures,
            report.fallback_fragments,
            report.workers,
            serial_ns / parallel_ns.max(f64::MIN_POSITIVE),
        );
    } else {
        println!("dacce-top --decode-stats — {name} (scale {})", opts.scale);
        println!(
            "journal: {} ops · {} decode points · {} resyncs while recording",
            run.journal.ops(),
            run.journal.samples(),
            run.resyncs
        );
        println!(
            "fragments: {} ({} seams verified, {} failures, {} serial fallbacks)",
            report.fragments,
            report.seams_verified,
            report.seam_failures,
            report.fallback_fragments
        );
        println!(
            "decode: serial {serial_ns:.2} ns/op · {} workers {parallel_ns:.2} ns/op · \
             speedup {:.2}x",
            report.workers,
            serial_ns / parallel_ns.max(f64::MIN_POSITIVE)
        );
        println!(
            "output: {} lines, parallel {} serial",
            serial.lines.len(),
            if identical {
                "identical to"
            } else {
                "DIVERGED from"
            }
        );
    }
    if !identical {
        eprintln!("dacce-top: --decode-stats: parallel decode diverged from serial on {name}");
    }
    identical
}

// ---------------------------------------------------------------------------
// Fleet mode (`--fleet N`)
// ---------------------------------------------------------------------------

/// Middle-layer width of the synthetic fleet program.
const FLEET_MID: usize = 4;
/// Leaf-layer width of the synthetic fleet program.
const FLEET_LEAF: usize = 4;

/// The shared program every fleet tenant registers: `main` calls one of
/// [`FLEET_MID`] services, each service calls one of [`FLEET_LEAF`]
/// operations (odd services through indirect sites). One definition →
/// one content hash → one shared lineage across the whole fleet.
fn fleet_def() -> ProgramDef {
    let mut functions = vec!["main".to_string()];
    for m in 0..FLEET_MID {
        functions.push(format!("svc{m}"));
    }
    for l in 0..FLEET_LEAF {
        functions.push(format!("op{l}"));
    }
    let mut edges = Vec::new();
    let mut site = 0usize;
    for m in 0..FLEET_MID {
        edges.push(DefEdge {
            caller: 0,
            callee: 1 + m,
            site,
            indirect: false,
        });
        site += 1;
    }
    for m in 0..FLEET_MID {
        for l in 0..FLEET_LEAF {
            edges.push(DefEdge {
                caller: 1 + m,
                callee: 1 + FLEET_MID + l,
                site,
                indirect: m % 2 == 1,
            });
            site += 1;
        }
    }
    ProgramDef {
        functions,
        main: 0,
        call_sites: site,
        edges,
        tail_fns: vec![],
        extra_roots: vec![],
    }
}

/// Drives one tenant: deterministic main → svc → op walks with periodic
/// samples. Every fourth tenant grows a private indirect edge halfway
/// through — the copy-on-write divergence the fleet view should surface.
fn drive_tenant(tracker: &Tracker, def: &ProgramDef, index: usize, iterations: u64) {
    let thread = tracker.register_thread(def.main_fn());
    let diverge_at = (index % 4 == 3).then_some(iterations / 2);
    let mut private = None;
    for i in 0..iterations {
        if diverge_at == Some(i) {
            let pfn = tracker.define_function(&format!("wild{index}"));
            let psite = tracker.define_call_site();
            private = Some((psite, pfn));
        }
        let m = usize::try_from(i).unwrap_or(usize::MAX) % FLEET_MID;
        let l = usize::try_from(i / 3).unwrap_or(usize::MAX) % FLEET_LEAF;
        let g1 = thread.call(def.site(m), def.function(1 + m));
        let g2 = thread.call(
            def.site(FLEET_MID + m * FLEET_LEAF + l),
            def.function(1 + FLEET_MID + l),
        );
        if let Some((psite, pfn)) = private {
            if i % 16 == 0 {
                let _g3 = thread.call_indirect(psite, pfn);
            }
        }
        if i % 512 == 0 {
            let _ = thread.sample();
        }
        drop(g2);
        drop(g1);
    }
}

/// Drains every tenant's journal and metrics into the pump.
fn pump_tick(fleet: &Fleet, pump: &mut FleetPump) {
    for (_, label, tracker) in fleet.tenants() {
        let obs = tracker.observability();
        let batch = obs.journal().drain();
        pump.note_events(&label, batch.events.len() as u64);
        pump.record(&label, obs.snapshot());
    }
}

fn render_fleet(fleet: &Fleet, pump: &FleetPump, elapsed: Duration) -> String {
    let stats = fleet.fleet_stats();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "dacce-top --fleet — {} tenants sharing {} lineage(s)  [{:.1}s]",
        stats.tenants,
        stats.lineages,
        elapsed.as_secs_f64()
    );
    let _ = writeln!(
        s,
        "registry: founded {} · attached {} · diverged {} · adoptions {} · publishes {}",
        stats.founded, stats.attached, stats.diverged, stats.adoptions, stats.publishes
    );
    let _ = writeln!(
        s,
        "\n  {:<10} {:>8} {:>10} {:>8} {:>8} {:>6} {:>5} {:>10}",
        "tenant", "traps", "samples", "reenc", "migr", "adopt", "div", "events"
    );
    for (label, member) in pump.members() {
        let m = &member.snapshot;
        let _ = writeln!(
            s,
            "  {label:<10} {:>8} {:>10} {:>8} {:>8} {:>6} {:>5} {:>10}",
            m.traps,
            m.samples,
            m.reencodes,
            m.migrations,
            m.lineage_adoptions,
            m.lineage_divergences,
            member.events
        );
    }
    let agg = pump.aggregate();
    let _ = writeln!(
        s,
        "\nfleet: traps {} · edges {} · reencodes {} ({} aborted) · migrations {} · \
         samples {} · journal {} events ({} dropped)",
        agg.traps,
        agg.edges_discovered,
        agg.reencodes,
        agg.reencode_aborts,
        agg.migrations,
        agg.samples,
        pump.total_events(),
        agg.journal_dropped
    );
    s
}

/// Runs the multi-tenant fleet view and returns whether the health checks
/// passed.
fn run_fleet(opts: &TopOptions, tenants: usize) -> bool {
    let def = fleet_def();
    let fleet = Fleet::with_config(DacceConfig {
        journal_ring_capacity: 1 << 14,
        ..DacceConfig::default()
    });
    let ids: Vec<TenantId> = (0..tenants)
        .map(|i| fleet.register(&format!("svc-{i:03}"), &def))
        .collect();
    // Enable journaling before worker threads register: writers capture
    // the gate at registration.
    for id in &ids {
        let tracker = fleet.tracker(*id).expect("tenant just registered");
        tracker.observability().journal().set_enabled(true);
    }

    let iterations = ((opts.scale * 200_000.0) as u64).max(1_024);
    let started = Instant::now();
    let done = AtomicUsize::new(0);
    let mut pump = FleetPump::new();
    std::thread::scope(|scope| {
        for (i, id) in ids.iter().enumerate() {
            let tracker = fleet.tracker(*id).expect("tenant just registered");
            let def = &def;
            let done = &done;
            scope.spawn(move || {
                drive_tenant(&tracker, def, i, iterations);
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Maintenance + render loop. The first tenant (the founder, which
        // never diverges) drives the shared re-encode; the sweep bounds
        // adoption staleness for its siblings.
        while done.load(Ordering::Relaxed) < ids.len() {
            std::thread::sleep(Duration::from_millis(opts.interval_ms));
            let _ = fleet.reencode(ids[0]);
            let _ = fleet.poll();
            pump_tick(&fleet, &mut pump);
            if !opts.json {
                print!(
                    "\x1b[2J\x1b[H{}",
                    render_fleet(&fleet, &pump, started.elapsed())
                );
            }
        }
    });
    // Final maintenance pass + drain, so laggard adoptions and the last
    // journal entries land in the summary.
    let _ = fleet.reencode(ids[0]);
    let _ = fleet.poll();
    pump_tick(&fleet, &mut pump);
    let stats = fleet.fleet_stats();

    if opts.json {
        println!(
            "{{\"fleet\":{},\"registry\":{{\"tenants\":{},\"lineages\":{},\
             \"founded\":{},\"attached\":{},\"diverged\":{},\"adoptions\":{},\
             \"publishes\":{}}},\"iterations\":{iterations}}}",
            pump.to_json(),
            stats.tenants,
            stats.lineages,
            stats.founded,
            stats.attached,
            stats.diverged,
            stats.adoptions,
            stats.publishes
        );
    } else {
        println!("\x1b[2J\x1b[H");
        print!("{}", render_fleet(&fleet, &pump, started.elapsed()));
    }
    if let Some(path) = &opts.prom_out {
        write_creating_dirs(path, &pump.to_prometheus());
    }
    if let Some(path) = &opts.export_out {
        let founder = fleet.tracker(ids[0]).expect("founder registered");
        write_creating_dirs(path, &dacce::export_tracker_state(&founder));
    }
    if let Some(path) = &opts.flame_out {
        // One graph per tenant, all tagged with the shared program's
        // content hash: the fleet-wide merge key. merge_by_lineage folds
        // them into one graph per distinct encoding lineage.
        let lineage = def.content_hash();
        let graphs: Vec<FlameGraph> = fleet
            .tenants()
            .into_iter()
            .map(|(_, _, tracker)| {
                let profile = tracker.profiler_profile();
                flame_of_profile(&profile, lineage, |f| {
                    tracker.function_name(f).unwrap_or_else(|| f.to_string())
                })
            })
            .collect();
        let merged = match merge_by_lineage(graphs) {
            Ok(merged) => merged,
            Err(e) => {
                eprintln!("dacce-top: --flame-out: {e}");
                return false;
            }
        };
        let text: String = merged.iter().map(FlameGraph::to_collapsed).collect();
        write_creating_dirs(path, &text);
    }

    let agg = pump.aggregate();
    if opts.require_reencodes && agg.reencodes == 0 {
        eprintln!("dacce-top: --require-reencodes: fleet recorded no re-encodes");
        return false;
    }
    if stats.lineages != 1 {
        eprintln!(
            "dacce-top: fleet of one program split into {} lineages",
            stats.lineages
        );
        return false;
    }
    true
}
