//! CI `decode-differential` matrix entry point: record every suite
//! workload (plus the three production-shaped families) into a decode
//! journal under a fault preset, then check that the serial decoder
//! reproduces the replay's shadow stack at every decode point and that
//! fragment-parallel offline decode is byte-identical to it at every
//! worker count — failing on the first divergent sample line.
//!
//! The CI matrix job runs this once per (preset, worker-count) cell with
//! `DACCE_DECODE_PRESET=<no-fault|name>` and `DACCE_DECODE_WORKERS=<n>`;
//! locally (no env vars) the full {no-fault, maxid-exhaustion,
//! reencode-storm} × {1, 2, 4} grid runs in one pass over a smoke-sized
//! workload set. `DACCE_DECODE_SUITE=full` swaps in all 41 suite
//! benchmarks; `DACCE_DECODE_SCALE` scales trace sizes (default 0.05).

use dacce::tracker::{ThreadHandle, Tracker};
use dacce::{decode_parallel, decode_serial, import, DacceConfig, FaultPlan};
use dacce_program::{ContextPath, PathStep, ThreadId};
use dacce_workloads::batch::TraceOp;
use dacce_workloads::chaos::chaos_trace;
use dacce_workloads::journal::{record_journal, JOURNAL_SAMPLE_EVERY};
use dacce_workloads::{
    all_benchmarks, family_traces, replay_guarded, BenchSpec, DriverConfig, ReplayStep,
    ReplayVisitor, WorkloadTrace,
};

/// The matrix presets: fault-free plus the two that stress the decode
/// path hardest (degraded sub-path-band records; generation churn).
const MATRIX_PRESETS: [&str; 3] = ["no-fault", "maxid-exhaustion", "reencode-storm"];

fn scale() -> f64 {
    std::env::var("DACCE_DECODE_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05)
}

fn worker_counts() -> Vec<usize> {
    match std::env::var("DACCE_DECODE_WORKERS") {
        Ok(s) => s
            .split(',')
            .map(|w| {
                w.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("bad DACCE_DECODE_WORKERS entry {w:?}"))
            })
            .collect(),
        Err(_) => vec![1, 2, 4],
    }
}

fn plan_for(name: &str) -> FaultPlan {
    if name == "no-fault" {
        FaultPlan::default()
    } else {
        FaultPlan::preset(name).unwrap_or_else(|| panic!("unknown DACCE_DECODE_PRESET {name:?}"))
    }
}

fn presets() -> Vec<(String, FaultPlan)> {
    match std::env::var("DACCE_DECODE_PRESET") {
        Ok(name) => vec![(name.clone(), plan_for(&name))],
        Err(_) => MATRIX_PRESETS
            .iter()
            .map(|&n| (n.to_string(), plan_for(n)))
            .collect(),
    }
}

fn workloads() -> Vec<(String, WorkloadTrace)> {
    let scale = scale();
    let mut out: Vec<(String, WorkloadTrace)> = Vec::new();
    if std::env::var("DACCE_DECODE_SUITE").as_deref() == Ok("full") {
        let cfg = DriverConfig {
            scale,
            ..DriverConfig::default()
        };
        for spec in all_benchmarks() {
            out.push((spec.name.to_string(), chaos_trace(&spec, &cfg)));
        }
    } else {
        let cfg = DriverConfig {
            scale,
            ..DriverConfig::default()
        };
        for spec in [
            BenchSpec::tiny("decode-ci-a", 19),
            BenchSpec::tiny("decode-ci-b", 29),
        ] {
            out.push((spec.name.to_string(), chaos_trace(&spec, &cfg)));
        }
    }
    for (name, trace) in family_traces(41, (scale * 0.4).max(0.01)) {
        out.push((name.to_string(), trace));
    }
    out
}

fn first_divergence(want: (&str, &[String]), got: (&str, &[String])) -> String {
    let ((wn, want), (gn, got)) = (want, got);
    for (i, (w, g)) in want.iter().zip(got.iter()).enumerate() {
        if w != g {
            return format!("first divergence at sample {i}:\n  {wn}: {w}\n  {gn}: {g}");
        }
    }
    format!(
        "length mismatch: {wn} {} lines, {gn} {} lines",
        want.len(),
        got.len()
    )
}

/// Renders the lines `decode_serial` must produce for a journal of the
/// replayed trace: `"{tid}#{k}: {path}"` from the shadow stack at each of
/// the journal's decode points (every [`JOURNAL_SAMPLE_EVERY`] ops and at
/// thread exit).
#[derive(Default)]
struct ExpectedLines {
    lines: Vec<String>,
    tid: u64,
    k: usize,
}

impl ExpectedLines {
    fn push(&mut self, expected: &[PathStep]) {
        let path = ContextPath(expected.to_vec()).display(|f| f.to_string());
        self.lines.push(format!("{}#{}: {path}", self.tid, self.k));
        self.k += 1;
    }
}

impl ReplayVisitor for ExpectedLines {
    fn start(&mut self, tid: ThreadId, _: &ThreadHandle, _: &[TraceOp]) {
        self.tid = tid.raw().into();
        self.k = 0;
    }

    fn step(&mut self, _: &ThreadHandle, _: ReplayStep, done: usize, expected: &[PathStep]) {
        if (done as u64).is_multiple_of(JOURNAL_SAMPLE_EVERY) {
            self.push(expected);
        }
    }

    fn end(&mut self, _: &ThreadHandle, done: usize, expected: &[PathStep]) {
        if done > 0 {
            self.push(expected);
        }
    }
}

/// The expected decoded lines of `trace`: they depend only on the trace
/// (ids are defined in first-appearance order), not on the config.
fn expected_lines(trace: &WorkloadTrace) -> Vec<String> {
    let mut visitor = ExpectedLines::default();
    replay_guarded(&Tracker::new(), trace, &mut visitor);
    visitor.lines
}

#[test]
fn parallel_decode_matches_serial_across_the_matrix() {
    // Eager re-encoding so generation-targeted presets see re-encodings
    // (and hence generation-crossing seams) on a CI-sized trace.
    let base = DacceConfig {
        edge_threshold: 4,
        min_events_between_reencodes: 32,
        ..DacceConfig::default()
    };
    let workers = worker_counts();

    for (wname, trace) in workloads() {
        let expected = expected_lines(&trace);
        for (pname, plan) in presets() {
            let config = DacceConfig {
                fault: plan,
                ..base.clone()
            };
            let run = record_journal(&trace, config, 256);
            assert!(
                run.journal.samples() > 0,
                "{wname}/{pname}: no decode points journaled — workload too small"
            );
            let dec = import(&run.export)
                .unwrap_or_else(|e| panic!("{wname}/{pname}: export failed to parse: {e}"));
            let serial = decode_serial(&run.journal, &dec)
                .unwrap_or_else(|e| panic!("{wname}/{pname}: serial decode failed: {e}"));
            assert!(
                serial.lines == expected,
                "{wname}/{pname}: serial decode diverged from the shadow stack\n{}",
                first_divergence(("shadow", &expected), ("serial", &serial.lines))
            );
            for &w in &workers {
                let (parallel, report) =
                    decode_parallel(&run.journal, &dec, w).unwrap_or_else(|e| {
                        panic!("{wname}/{pname}/workers={w}: parallel decode failed: {e}")
                    });
                assert!(
                    parallel == serial,
                    "{wname}/{pname}/workers={w}: parallel decode diverged from serial \
                     ({} fragments, {} seams verified, {} fallbacks)\n{}",
                    report.fragments,
                    report.seams_verified,
                    report.fallback_fragments,
                    first_divergence(("serial", &serial.lines), ("parallel", &parallel.lines))
                );
            }
        }
    }
}
